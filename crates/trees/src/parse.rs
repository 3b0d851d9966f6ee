//! Term-syntax parser for trees: `root(a(#,#),b(#,#))`.
//!
//! The printer ([`Tree`]'s `Display`) and this parser round-trip. Symbol
//! names containing structural characters (parentheses, commas, quotes,
//! whitespace) — which occur in DTD-encoded alphabets like `"(a*,b*)"` — are
//! written and read as double-quoted strings with `\"` and `\\` escapes.

use std::fmt;

use crate::symbol::Symbol;
use crate::tree::Tree;

/// A parse error with a byte offset into the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    pub offset: usize,
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseError {}

struct Parser<'a> {
    input: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(input: &'a str) -> Self {
        Parser {
            input: input.as_bytes(),
            pos: 0,
        }
    }

    fn error(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            offset: self.pos,
            message: message.into(),
        }
    }

    fn skip_ws(&mut self) {
        while self.pos < self.input.len() && self.input[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.input.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let c = self.peek()?;
        self.pos += 1;
        Some(c)
    }

    fn parse_symbol(&mut self) -> Result<Symbol, ParseError> {
        self.skip_ws();
        match self.peek() {
            Some(b'"') => self.parse_quoted(),
            Some(c) if !is_structural(c) => self.parse_bare(),
            Some(c) => Err(self.error(format!("expected symbol, found {:?}", c as char))),
            None => Err(self.error("expected symbol, found end of input")),
        }
    }

    fn parse_quoted(&mut self) -> Result<Symbol, ParseError> {
        debug_assert_eq!(self.peek(), Some(b'"'));
        self.bump();
        let mut name = String::new();
        loop {
            match self.bump() {
                Some(b'"') => return Ok(Symbol::new(&name)),
                Some(b'\\') => match self.bump() {
                    Some(c @ (b'"' | b'\\')) => name.push(c as char),
                    Some(c) => {
                        return Err(self.error(format!("invalid escape \\{}", c as char)));
                    }
                    None => return Err(self.error("unterminated escape")),
                },
                Some(c) => name.push(c as char),
                None => return Err(self.error("unterminated quoted symbol")),
            }
        }
    }

    fn parse_bare(&mut self) -> Result<Symbol, ParseError> {
        let start = self.pos;
        while let Some(c) = self.peek() {
            if is_structural(c) || c.is_ascii_whitespace() {
                break;
            }
            self.pos += 1;
        }
        let name = std::str::from_utf8(&self.input[start..self.pos])
            .map_err(|_| self.error("symbol is not valid UTF-8"))?;
        Ok(Symbol::new(name))
    }

    /// Parses one tree with an explicit stack of open argument lists, so
    /// input nesting depth costs heap, not call stack.
    fn parse_tree(&mut self) -> Result<Tree, ParseError> {
        // Each open `f(` with the children parsed so far, innermost last.
        let mut open: Vec<(Symbol, Vec<Tree>)> = Vec::new();
        loop {
            let symbol = self.parse_symbol()?;
            self.skip_ws();
            if self.peek() == Some(b'(') {
                self.bump();
                self.skip_ws();
                if self.peek() != Some(b')') {
                    open.push((symbol, Vec::new()));
                    continue;
                }
                self.bump(); // `f()` is the leaf `f`
            }
            let mut done = Tree::leaf(symbol);
            // Hand the finished tree to its parent; a `)` finishes the
            // parent in turn, a `,` starts its next child.
            loop {
                let Some((_, children)) = open.last_mut() else {
                    return Ok(done);
                };
                children.push(done);
                self.skip_ws();
                match self.bump() {
                    Some(b',') => break,
                    Some(b')') => {
                        let (symbol, children) = open.pop().expect("an open argument list");
                        done = Tree::new(symbol, children);
                    }
                    Some(c) => {
                        return Err(
                            self.error(format!("expected ',' or ')', found {:?}", c as char))
                        );
                    }
                    None => return Err(self.error("unterminated argument list")),
                }
            }
        }
    }
}

fn is_structural(c: u8) -> bool {
    matches!(c, b'(' | b')' | b',' | b'"')
}

/// Parses a tree in term syntax. The whole input must be consumed.
pub fn parse_tree(input: &str) -> Result<Tree, ParseError> {
    let mut parser = Parser::new(input);
    let tree = parser.parse_tree()?;
    parser.skip_ws();
    if parser.pos != parser.input.len() {
        return Err(parser.error("trailing input after tree"));
    }
    Ok(tree)
}

/// Parses several trees separated by whitespace or semicolons.
pub fn parse_trees(input: &str) -> Result<Vec<Tree>, ParseError> {
    let mut parser = Parser::new(input);
    let mut out = Vec::new();
    loop {
        parser.skip_ws();
        while parser.peek() == Some(b';') {
            parser.bump();
            parser.skip_ws();
        }
        if parser.peek().is_none() {
            return Ok(out);
        }
        out.push(parser.parse_tree()?);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_leaves_and_nodes() {
        assert_eq!(parse_tree("#").unwrap().to_string(), "#");
        assert_eq!(
            parse_tree("root(a(#,#),b(#,#))").unwrap().to_string(),
            "root(a(#,#),b(#,#))"
        );
    }

    #[test]
    fn tolerates_whitespace() {
        let t = parse_tree("  f ( a , g ( b ) ) ").unwrap();
        assert_eq!(t.to_string(), "f(a,g(b))");
    }

    #[test]
    fn quoted_symbols_roundtrip() {
        let input = r#"root("(a*,b*)"("a*"(a,"a*"(#,#)),"b*"(b,"b*"(#,#))))"#;
        let t = parse_tree(input).unwrap();
        // canonical form: only names with structural characters stay quoted
        let canonical = r#"root("(a*,b*)"(a*(a,a*(#,#)),b*(b,b*(#,#))))"#;
        assert_eq!(t.to_string(), canonical);
        assert_eq!(parse_tree(canonical).unwrap(), t);
        assert_eq!(t.child(0).unwrap().symbol().name(), "(a*,b*)");
    }

    #[test]
    fn quoted_escapes() {
        let t = parse_tree(r#""a\"b""#).unwrap();
        assert_eq!(t.symbol().name(), "a\"b");
        let t2 = parse_tree(r#""a\\b""#).unwrap();
        assert_eq!(t2.symbol().name(), "a\\b");
    }

    #[test]
    fn explicit_empty_args_is_leaf_like() {
        let t = parse_tree("f()").unwrap();
        assert!(t.is_leaf());
        assert_eq!(t.to_string(), "f");
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_tree("").is_err());
        assert!(parse_tree("f(a").is_err());
        assert!(parse_tree("f(a,)").is_err());
        assert!(parse_tree("f)x").is_err());
        assert!(parse_tree("f(a) trailing").is_err());
        assert!(parse_tree("\"unterminated").is_err());
    }

    #[test]
    fn parse_many() {
        let ts = parse_trees("a; b(c) \n d").unwrap();
        assert_eq!(ts.len(), 3);
        assert_eq!(ts[1].to_string(), "b(c)");
        assert!(parse_trees("   ").unwrap().is_empty());
    }

    #[test]
    fn errors_keep_their_offsets_and_messages() {
        let err = |s: &str| parse_tree(s).unwrap_err();
        assert_eq!(err("f(a").offset, 3);
        assert_eq!(err("f(a").message, "unterminated argument list");
        assert_eq!(err("f(a b)").offset, 5);
        assert_eq!(err("f(a b)").message, "expected ',' or ')', found 'b'");
        assert_eq!(err("f(a,)").offset, 4);
        assert_eq!(err("f(a,)").message, "expected symbol, found ')'");
        assert_eq!(err("f(g(a) x").offset, 8);
        assert_eq!(err("f(g(a) x").message, "expected ',' or ')', found 'x'");
        assert_eq!(err("f(a) x").offset, 5);
        assert_eq!(err("f(a) x").message, "trailing input after tree");
    }

    #[test]
    fn display_parse_roundtrip_on_nested() {
        let s = "L(B(A(P),T(P),Y(P)),B(A(P),T(P),Y(P)))";
        assert_eq!(parse_tree(s).unwrap().to_string(), s);
    }
}
