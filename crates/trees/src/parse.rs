//! Term-syntax parser for trees: `root(a(#,#),b(#,#))`.
//!
//! [`TermEvents`] is the grammar: a pull tokenizer that reads a document's
//! pre-order [`TreeEvent`]s straight off the text, with no tree in
//! between. [`parse_tree`] and [`parse_trees`] build trees from it, so
//! every reader of term syntax accepts and rejects the same documents with
//! the same [`ParseError`]s.
//!
//! The printer ([`Tree`]'s `Display`) and this parser round-trip. Symbol
//! names containing structural characters (parentheses, commas, quotes,
//! whitespace) — which occur in DTD-encoded alphabets like `"(a*,b*)"` — are
//! written and read as double-quoted strings with `\"` and `\\` escapes.

use std::fmt;

use crate::events::TreeEvent;
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
    /// A quoted name's unescaped bytes (reused across names).
    name: Vec<u8>,
    /// Bare names read so far, direct-mapped by a hash of their bytes: a
    /// document repeats a handful of names, and a hit skips the interner.
    recent: [Option<(&'a [u8], Symbol)>; RECENT],
}

const RECENT: usize = 16;

impl<'a> Parser<'a> {
    fn new(input: &'a str) -> Self {
        Parser {
            input: input.as_bytes(),
            pos: 0,
            name: Vec::new(),
            recent: [None; RECENT],
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
        self.name.clear();
        loop {
            match self.bump() {
                Some(b'"') => break,
                Some(b'\\') => match self.bump() {
                    Some(c @ (b'"' | b'\\')) => self.name.push(c),
                    Some(c) => {
                        return Err(self.error(format!("invalid escape \\{}", c as char)));
                    }
                    None => return Err(self.error("unterminated escape")),
                },
                Some(c) => self.name.push(c),
                None => return Err(self.error("unterminated quoted symbol")),
            }
        }
        // Quotes and backslashes are ASCII, so the bytes between them are
        // whole UTF-8 sequences of the input.
        let name =
            std::str::from_utf8(&self.name).map_err(|_| self.error("symbol is not valid UTF-8"))?;
        Ok(Symbol::new(name))
    }

    fn parse_bare(&mut self) -> Result<Symbol, ParseError> {
        let start = self.pos;
        while let Some(c) = self.peek() {
            if is_structural(c) || c.is_ascii_whitespace() {
                break;
            }
            self.pos += 1;
        }
        let input = self.input;
        let bytes = &input[start..self.pos];
        let slot = recent_slot(bytes);
        if let Some((name, symbol)) = self.recent[slot] {
            if name == bytes {
                return Ok(symbol);
            }
        }
        let name =
            std::str::from_utf8(bytes).map_err(|_| self.error("symbol is not valid UTF-8"))?;
        let symbol = Symbol::new(name);
        self.recent[slot] = Some((bytes, symbol));
        Ok(symbol)
    }
}

/// A name's slot in [`Parser::recent`] (FNV-1a of its bytes).
fn recent_slot(name: &[u8]) -> usize {
    let hash = name.iter().fold(0x811c_9dc5u32, |h, &b| {
        (h ^ u32::from(b)).wrapping_mul(0x0100_0193)
    });
    hash as usize % RECENT
}

fn is_structural(c: u8) -> bool {
    matches!(c, b'(' | b')' | b',' | b'"')
}

/// Where [`TermEvents`] is in the grammar.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Step {
    /// A tree starts here.
    Tree,
    /// A leaf was opened; its `Close` is due.
    Leaf,
    /// A subtree finished: a `,`, a `)` or the end follows.
    After,
    /// The tree is read, or an error ended the stream.
    Done,
}

/// The pre-order [`TreeEvent`]s of one term-syntax tree, read off the text
/// as they are pulled. Nesting depth costs one counter, not call stack.
/// The first error ends the stream: after an `Err`, the iterator yields
/// nothing more. A stream that ends without an error was exactly one
/// well-nested tree.
pub struct TermEvents<'a> {
    parser: Parser<'a>,
    /// Open argument lists.
    depth: usize,
    step: Step,
    /// The tree is the whole input: only whitespace may follow it.
    whole: bool,
}

impl<'a> TermEvents<'a> {
    /// The events of `input`, which must be one tree and nothing else
    /// (surrounding whitespace aside) — the documents [`parse_tree`]
    /// accepts.
    pub fn new(input: &'a str) -> TermEvents<'a> {
        TermEvents {
            parser: Parser::new(input),
            depth: 0,
            step: Step::Tree,
            whole: true,
        }
    }

    fn advance(&mut self) -> Option<Result<TreeEvent, ParseError>> {
        let p = &mut self.parser;
        match self.step {
            Step::Tree => {
                let symbol = match p.parse_symbol() {
                    Ok(symbol) => symbol,
                    Err(e) => return Some(Err(e)),
                };
                p.skip_ws();
                if p.peek() == Some(b'(') {
                    p.bump();
                    p.skip_ws();
                    if p.peek() != Some(b')') {
                        self.depth += 1;
                        return Some(Ok(TreeEvent::Open(symbol)));
                    }
                    p.bump(); // `f()` is the leaf `f`
                }
                self.step = Step::Leaf;
                Some(Ok(TreeEvent::Open(symbol)))
            }
            Step::Leaf => {
                self.step = Step::After;
                Some(Ok(TreeEvent::Close))
            }
            Step::After if self.depth == 0 => {
                self.step = Step::Done;
                if self.whole {
                    p.skip_ws();
                    if p.pos != p.input.len() {
                        return Some(Err(p.error("trailing input after tree")));
                    }
                }
                None
            }
            Step::After => {
                // A `)` closes the parent in turn, a `,` starts its next
                // child.
                p.skip_ws();
                match p.bump() {
                    Some(b',') => {
                        self.step = Step::Tree;
                        self.advance()
                    }
                    Some(b')') => {
                        self.depth -= 1;
                        Some(Ok(TreeEvent::Close))
                    }
                    Some(c) => Some(Err(
                        p.error(format!("expected ',' or ')', found {:?}", c as char))
                    )),
                    None => Some(Err(p.error("unterminated argument list"))),
                }
            }
            Step::Done => None,
        }
    }
}

impl Iterator for TermEvents<'_> {
    type Item = Result<TreeEvent, ParseError>;

    fn next(&mut self) -> Option<Result<TreeEvent, ParseError>> {
        let event = self.advance();
        if matches!(event, Some(Err(_))) {
            self.step = Step::Done;
        }
        event
    }
}

/// Builds the tree `events` read, with an explicit stack of open argument
/// lists, so input nesting depth costs heap, not call stack.
fn build(events: &mut TermEvents<'_>) -> Result<Tree, ParseError> {
    // Each open `f(` with the children read so far, innermost last.
    let mut open: Vec<(Symbol, Vec<Tree>)> = Vec::new();
    let mut done = None;
    for event in events {
        match event? {
            TreeEvent::Open(symbol) => open.push((symbol, Vec::new())),
            TreeEvent::Close => {
                let (symbol, children) = open.pop().expect("the tokenizer balances its events");
                let tree = Tree::new(symbol, children);
                match open.last_mut() {
                    Some((_, siblings)) => siblings.push(tree),
                    None => done = Some(tree),
                }
            }
        }
    }
    Ok(done.expect("a stream that ends without an error is one tree"))
}

/// Parses a tree in term syntax. The whole input must be consumed.
pub fn parse_tree(input: &str) -> Result<Tree, ParseError> {
    build(&mut TermEvents::new(input))
}

/// Parses several trees separated by whitespace or semicolons.
pub fn parse_trees(input: &str) -> Result<Vec<Tree>, ParseError> {
    let mut events = TermEvents {
        whole: false,
        ..TermEvents::new(input)
    };
    let mut out = Vec::new();
    loop {
        let p = &mut events.parser;
        p.skip_ws();
        while p.peek() == Some(b';') {
            p.bump();
            p.skip_ws();
        }
        if p.peek().is_none() {
            return Ok(out);
        }
        events.step = Step::Tree;
        out.push(build(&mut events)?);
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
    fn quoted_non_ascii_names_round_trip() {
        let t = parse_tree(r#"f("é ü","a→b")"#).unwrap();
        assert_eq!(t.child(0).unwrap().symbol().name(), "é ü");
        assert_eq!(t.child(1).unwrap().symbol().name(), "a→b");
        assert_eq!(parse_tree(&t.to_string()).unwrap(), t);
    }

    /// More distinct names than the tokenizer's name cache has slots, each
    /// read back exactly (colliding names never share a symbol).
    #[test]
    fn many_distinct_names_resolve_exactly() {
        let names: Vec<String> = (0..100).map(|i| format!("n{i}")).collect();
        let doc = format!("f({})", names.join(","));
        let t = parse_tree(&doc).unwrap();
        let read: Vec<&str> = t.children().iter().map(|c| c.symbol().name()).collect();
        assert_eq!(read, names);
        assert_eq!(t.to_string(), doc);
    }

    /// The tokenizer's events are the parsed tree's events, and an error
    /// ends the stream.
    #[test]
    fn term_events_are_the_trees_events() {
        for doc in [" # ", "root(a(#,#),b(#,#))", "f ( a , g ( b ) , h() )"] {
            let events: Result<Vec<TreeEvent>, ParseError> = TermEvents::new(doc).collect();
            let tree = parse_tree(doc).unwrap();
            assert_eq!(
                events.unwrap(),
                tree.events().collect::<Vec<_>>(),
                "{doc:?}"
            );
        }
        let mut events = TermEvents::new("f(a,)");
        let read: Vec<_> = events.by_ref().collect();
        assert_eq!(read.len(), 4, "Open(f), Open(a), Close, then the error");
        assert!(read[..3].iter().all(Result::is_ok));
        assert_eq!(read[3].as_ref().unwrap_err().offset, 4);
        assert_eq!(events.next(), None, "fused after the error");
    }

    /// Damaged documents answer one exact message at one exact offset.
    #[test]
    fn damaged_documents_table() {
        let table: [(&str, usize, &str); 17] = [
            ("", 0, "expected symbol, found end of input"),
            ("   ", 3, "expected symbol, found end of input"),
            ("root(", 5, "expected symbol, found end of input"),
            ("root(a,", 7, "expected symbol, found end of input"),
            ("root(a(#,#)", 11, "unterminated argument list"),
            ("root(a(#,b(#,#)),b(#,#)", 23, "unterminated argument list"),
            ("root(a(#,#) ", 12, "unterminated argument list"),
            (")", 0, "expected symbol, found ')'"),
            ("root(,a)", 5, "expected symbol, found ','"),
            ("root(a,,b)", 7, "expected symbol, found ','"),
            ("root(a,)", 7, "expected symbol, found ')'"),
            ("root(a b)", 8, "expected ',' or ')', found 'b'"),
            ("root(a))", 7, "trailing input after tree"),
            ("root(a) ;b", 8, "trailing input after tree"),
            ("\"abc", 4, "unterminated quoted symbol"),
            ("f(\"a\\x\")", 6, "invalid escape \\x"),
            ("f(\"a\\", 5, "unterminated escape"),
        ];
        for (doc, offset, message) in table {
            let err = parse_tree(doc).unwrap_err();
            assert_eq!(
                (err.offset, err.message.as_str()),
                (offset, message),
                "{doc:?}"
            );
        }
    }

    #[test]
    fn display_parse_roundtrip_on_nested() {
        let s = "L(B(A(P),T(P),Y(P)),B(A(P),T(P),Y(P)))";
        assert_eq!(parse_tree(s).unwrap().to_string(), s);
    }
}
