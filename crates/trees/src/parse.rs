//! Term syntax: trees like `root(a(#,#),b(#,#))`, and the reader every
//! text format of the workspace reads its names and terms through.
//!
//! [`TermReader`] reads the tokens: names, bare or quoted, punctuation,
//! and the byte offsets errors report. [`TermEvents`] is the tree grammar
//! on top of it: a pull tokenizer that reads a document's pre-order
//! [`TreeEvent`]s straight off the text, with no tree in between.
//! [`parse_tree`] and [`parse_trees`] build trees from it, so every reader
//! of term syntax accepts and rejects the same documents with the same
//! [`ParseError`]s. Transducer rules, DTTA schemas and learning samples
//! read their names, rule heads and state calls through [`TermReader`]
//! too.
//!
//! A bare name runs up to the next whitespace, `(`, `)`, `,` or `"`. The
//! writer ([`Symbol`]'s and [`TermName`]'s `Display`) quotes a name that is
//! empty or holds whitespace, `(`, `)`, `,`, `"`, `<` or `>` — DTD-encoded
//! alphabets have names like `"(a*,b*)"`, subset constructions state sets
//! like `"{q1,q2}"` — and quotes it as Rust's `{:?}` writes a string. The
//! reader takes every escape that writes: `\"`, `\\`, `\n`, `\r`, `\t`,
//! `\0`, `\'` and `\u{…}`.
//!
//! [`TermName`]: crate::symbol::TermName

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

/// The tokens of term syntax, read off a string: names, bare or quoted,
/// and punctuation, each after optional whitespace. An error names the
/// byte offset where reading stopped.
pub struct TermReader<'a> {
    input: &'a [u8],
    pos: usize,
    /// A quoted name's unescaped bytes (reused across names).
    name: Vec<u8>,
    /// Bare names read so far, direct-mapped by a hash of their bytes: a
    /// document repeats a handful of names, and a hit skips the interner.
    recent: [Option<(&'a [u8], Symbol)>; RECENT],
}

const RECENT: usize = 16;

impl<'a> TermReader<'a> {
    pub fn new(input: &'a str) -> Self {
        TermReader {
            input: input.as_bytes(),
            pos: 0,
            name: Vec::new(),
            recent: [None; RECENT],
        }
    }

    /// An error at the current offset.
    pub fn error(&self, message: impl Into<String>) -> ParseError {
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

    /// The next character, quoted, or `end of input`: what an error found.
    fn found(&self) -> String {
        let rest = &self.input[self.pos..];
        let next = String::from_utf8_lossy(&rest[..rest.len().min(4)])
            .chars()
            .next();
        next.map_or_else(|| "end of input".to_owned(), |c| format!("{c:?}"))
    }

    /// Skips whitespace, then consumes `token` if it comes next.
    pub fn eat(&mut self, token: &str) -> bool {
        self.skip_ws();
        let hit = self.input[self.pos..].starts_with(token.as_bytes());
        if hit {
            self.pos += token.len();
        }
        hit
    }

    /// [`eat`](Self::eat), or an error naming what came instead.
    pub fn expect(&mut self, token: &str) -> Result<(), ParseError> {
        if self.eat(token) {
            return Ok(());
        }
        Err(self.error(format!("expected `{token}`, found {}", self.found())))
    }

    /// Skips whitespace; an error unless the input ends there.
    pub fn end(&mut self, what: &str) -> Result<(), ParseError> {
        self.skip_ws();
        if self.pos == self.input.len() {
            return Ok(());
        }
        Err(self.error(format!("trailing input after {what}")))
    }

    /// A name, bare or quoted (unescaped), after optional whitespace.
    pub fn name(&mut self) -> Result<&str, ParseError> {
        self.skip_ws();
        match self.peek() {
            Some(b'"') => self.quoted(),
            Some(c) if !is_structural(c) => {
                let bytes = self.bare();
                std::str::from_utf8(bytes).map_err(|_| self.error("symbol is not valid UTF-8"))
            }
            next => Err(self.no_name(next)),
        }
    }

    /// The symbol of the name that comes next (see [`name`](Self::name)).
    // Inlined, with `parse_bare` and `bare`, into `TermEvents::next`: left
    // as calls, the tokenizer's per-node path read flip documents ~8 %
    // slower.
    #[inline(always)]
    pub fn symbol(&mut self) -> Result<Symbol, ParseError> {
        self.skip_ws();
        match self.peek() {
            Some(b'"') => self.quoted().map(Symbol::new),
            Some(c) if !is_structural(c) => self.parse_bare(),
            next => Err(self.no_name(next)),
        }
    }

    fn no_name(&self, next: Option<u8>) -> ParseError {
        match next {
            Some(c) => self.error(format!("expected symbol, found {:?}", c as char)),
            None => self.error("expected symbol, found end of input"),
        }
    }

    /// A quoted name, unescaped into `self.name`.
    fn quoted(&mut self) -> Result<&str, ParseError> {
        debug_assert_eq!(self.peek(), Some(b'"'));
        self.bump();
        self.name.clear();
        loop {
            match self.bump() {
                Some(b'"') => break,
                Some(b'\\') => {
                    let c = self.escape()?;
                    let mut utf8 = [0; 4];
                    self.name
                        .extend_from_slice(c.encode_utf8(&mut utf8).as_bytes());
                }
                Some(c) => self.name.push(c),
                None => return Err(self.error("unterminated quoted symbol")),
            }
        }
        // Quotes and backslashes are ASCII, so the bytes between them are
        // whole UTF-8 sequences of the input.
        std::str::from_utf8(&self.name).map_err(|_| self.error("symbol is not valid UTF-8"))
    }

    /// The character the escape after a `\` stands for.
    fn escape(&mut self) -> Result<char, ParseError> {
        Ok(match self.bump() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'\'') => '\'',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'0') => '\0',
            Some(b'u') => {
                // `{hex}`: a code point
                let rest = &self.input[self.pos..];
                let end = rest.iter().position(|&b| b == b'}');
                let code = end.filter(|_| rest[0] == b'{').and_then(|end| {
                    let hex = std::str::from_utf8(&rest[1..end]).ok()?;
                    char::from_u32(u32::from_str_radix(hex, 16).ok()?)
                });
                let (Some(end), Some(c)) = (end, code) else {
                    return Err(self.error("invalid escape \\u"));
                };
                self.pos += end + 1;
                c
            }
            Some(c) => return Err(self.error(format!("invalid escape \\{}", c as char))),
            None => return Err(self.error("unterminated escape")),
        })
    }

    /// Reads a bare name's bytes.
    #[inline(always)]
    fn bare(&mut self) -> &'a [u8] {
        let start = self.pos;
        while let Some(c) = self.peek() {
            if is_structural(c) || c.is_ascii_whitespace() {
                break;
            }
            self.pos += 1;
        }
        &self.input[start..self.pos]
    }

    #[inline(always)]
    fn parse_bare(&mut self) -> Result<Symbol, ParseError> {
        let bytes = self.bare();
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

    /// A variable `x<n>` after optional whitespace: its index `n`.
    pub fn variable(&mut self) -> Result<usize, ParseError> {
        self.skip_ws();
        let start = self.pos;
        if self.peek() == Some(b'x') {
            self.pos += 1;
            let digits = self.pos;
            while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                self.pos += 1;
            }
            let index = std::str::from_utf8(&self.input[digits..self.pos]).map(str::parse);
            if let Ok(Ok(n)) = index {
                return Ok(n);
            }
        }
        self.pos = start;
        Err(self.error(format!("expected a variable x<n>, found {}", self.found())))
    }

    /// An argument list that may be left out: nothing or `()` reads as no
    /// arguments, `(a,…,a)` as one per `a`, each read by `arg` with its
    /// 0-based position.
    pub fn args<T>(
        &mut self,
        mut arg: impl FnMut(&mut Self, usize) -> Result<T, ParseError>,
    ) -> Result<Vec<T>, ParseError> {
        let mut args = Vec::new();
        if self.eat("(") && !self.eat(")") {
            loop {
                args.push(arg(self, args.len())?);
                if !self.more_args()? {
                    break;
                }
            }
        }
        Ok(args)
    }

    /// After an argument: `true` at a `,` (another one follows), `false`
    /// at the `)` that closes the list.
    pub fn more_args(&mut self) -> Result<bool, ParseError> {
        if self.eat(",") {
            return Ok(true);
        }
        if self.eat(")") {
            return Ok(false);
        }
        Err(self.error(format!("expected ',' or ')', found {}", self.found())))
    }

    /// The head `state(symbol(x1,…,xk)) ->` of a dtop rule or a DTTA
    /// transition: the state's name, the symbol and its rank `k`. A
    /// constant's head is `state(symbol)` or `state(symbol())`.
    pub fn rule_head(&mut self) -> Result<(String, Symbol, usize), ParseError> {
        let state = self.name()?.to_owned();
        self.expect("(")?;
        let symbol = self.symbol()?;
        let rank = self
            .args(|r, i| match r.variable()? {
                n if n == i + 1 => Ok(()),
                n => Err(r.error(format!("expected variable x{}, found x{n}", i + 1))),
            })?
            .len();
        self.expect(")")?;
        self.expect("->")?;
        Ok((state, symbol, rank))
    }
}

/// A name's slot in [`TermReader::recent`] (FNV-1a of its bytes).
fn recent_slot(name: &[u8]) -> usize {
    let hash = name.iter().fold(0x811c_9dc5u32, |h, &b| {
        (h ^ u32::from(b)).wrapping_mul(0x0100_0193)
    });
    hash as usize % RECENT
}

fn is_structural(c: u8) -> bool {
    matches!(c, b'(' | b')' | b',' | b'"')
}

/// Splits `text` at the first `sep` outside quoted names: the text before
/// and after it, or `None` if there is none.
pub fn split_unquoted<'t>(
    text: &'t str,
    sep: &str,
) -> Result<Option<(&'t str, &'t str)>, ParseError> {
    let mut r = TermReader::new(text);
    while let Some(c) = r.peek() {
        if r.input[r.pos..].starts_with(sep.as_bytes()) {
            return Ok(Some((&text[..r.pos], &text[r.pos + sep.len()..])));
        }
        if c == b'"' {
            r.quoted()?;
        } else {
            r.pos += 1;
        }
    }
    Ok(None)
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
    reader: TermReader<'a>,
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
            reader: TermReader::new(input),
            depth: 0,
            step: Step::Tree,
            whole: true,
        }
    }

    fn advance(&mut self) -> Option<Result<TreeEvent, ParseError>> {
        let p = &mut self.reader;
        match self.step {
            Step::Tree => {
                let symbol = match p.symbol() {
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
                    if let Err(e) = p.end("tree") {
                        return Some(Err(e));
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
        let p = &mut events.reader;
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

    /// Every escape the writer (`{:?}`) emits reads back: the awkward
    /// names, control characters (`\u{…}`) and a leading combining mark.
    #[test]
    fn every_written_escape_reads_back() {
        let others = ["\0\r\u{1}\u{7f}", "\u{301}é", "tab\tquote\"'"];
        for name in crate::gen::AWKWARD_NAMES.into_iter().chain(others) {
            let written = Tree::leaf_named(name).to_string();
            let read = parse_tree(&written).unwrap_or_else(|e| panic!("{written}: {e}"));
            assert_eq!(read.symbol().name(), name, "{written}");
        }
        assert_eq!(parse_tree(r#""\u{e9}\'""#).unwrap().symbol().name(), "é'");
        for bad in [r#""\u{110000}""#, r#""\u{zz}""#, r#""\u41""#, r#""\u{41""#] {
            let err = parse_tree(bad).unwrap_err();
            assert_eq!(
                (err.offset, err.message.as_str()),
                (3, "invalid escape \\u")
            );
        }
    }

    /// The reader's tokens: rule heads, variables, argument lists, and
    /// errors that name what they found.
    #[test]
    fn reader_reads_rule_heads() {
        let mut r = TermReader::new(r#" "a b" ( "é"(x1, x2 ) ) -> rest"#);
        let (state, symbol, rank) = r.rule_head().unwrap();
        assert_eq!((state.as_str(), symbol.name(), rank), ("a b", "é", 2));
        assert_eq!(r.name().unwrap(), "rest");
        r.end("the line").unwrap();
        for head in ["q(f) ->", "q(f()) ->"] {
            assert_eq!(TermReader::new(head).rule_head().unwrap().2, 0, "{head}");
        }
        let err = |head: &str| TermReader::new(head).rule_head().unwrap_err();
        assert_eq!(err("q(f(x2)) ->").message, "expected variable x1, found x2");
        assert_eq!(
            err("q(f(y)) ->").message,
            "expected a variable x<n>, found 'y'"
        );
        assert_eq!(
            err("q(f(x1 x2)) ->").message,
            "expected ',' or ')', found 'x'"
        );
        assert_eq!(err("q(f) é").message, "expected `->`, found 'é'");
        assert_eq!(err("q(f)").message, "expected `->`, found end of input");
    }

    #[test]
    fn split_unquoted_skips_quoted_names() {
        let split = |s| split_unquoted(s, "=>").unwrap();
        assert_eq!(split("e=>e"), Some(("e", "e")));
        assert_eq!(split(r#""a=>b"(e) => g"#), Some((r#""a=>b"(e) "#, " g")));
        assert_eq!(split(r#""\"=>"=>x"#), Some((r#""\"=>""#, "x")));
        assert_eq!(split("f(e)"), None);
        assert!(split_unquoted(r#""a\x" => b"#, "=>").is_err());
    }

    #[test]
    fn display_parse_roundtrip_on_nested() {
        let s = "L(B(A(P),T(P),Y(P)),B(A(P),T(P),Y(P)))";
        assert_eq!(parse_tree(s).unwrap().to_string(), s);
    }
}
