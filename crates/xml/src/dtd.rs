//! DTDs: element declarations with regular-expression content models
//! (Section 10).
//!
//! A DTD over labels `F` has a start symbol and maps each element to a
//! regular expression over `F` (plus `#PCDATA` and `EMPTY`). Only
//! *1-unambiguous* content models are permitted in DTDs; this module
//! validates a standard deterministic subset (pairwise-disjoint first sets
//! in alternations, no iteration of nullable expressions, first/follow
//! disjointness around iterations) that covers every DTD in the paper and
//! makes the unique parse computable by a greedy LL(1)-style walk — which
//! is exactly what the encoding of [`crate::encode`] relies on.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// A content-model regular expression.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Regex {
    /// Reference to an element name.
    Elem(String),
    /// `#PCDATA` — a text node.
    PcData,
    /// `R*`
    Star(Box<Regex>),
    /// `R+`
    Plus(Box<Regex>),
    /// `R?`
    Opt(Box<Regex>),
    /// `(R₁|…|Rₙ)`
    Alt(Vec<Regex>),
    /// `(R₁,…,Rₙ)`
    Seq(Vec<Regex>),
}

/// What an element may contain.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Content {
    /// `EMPTY` — no children (the element encodes as a rank-0 symbol).
    Empty,
    /// A content model.
    Model(Regex),
}

/// A document type definition.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Dtd {
    root: String,
    /// Element name → content, in declaration order.
    elements: Vec<(String, Content)>,
}

/// A token in a child sequence: an element label or a text node.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Tok {
    Elem(String),
    Text,
}

/// DTD syntax or well-formedness errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DtdError {
    Parse { offset: usize, message: String },
    UnknownElement(String),
    DuplicateElement(String),
    NotDeterministic(String),
    NoElements,
}

impl fmt::Display for DtdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DtdError::Parse { offset, message } => {
                write!(f, "DTD syntax error at byte {offset}: {message}")
            }
            DtdError::UnknownElement(n) => write!(f, "content model references undeclared <{n}>"),
            DtdError::DuplicateElement(n) => write!(f, "element <{n}> declared twice"),
            DtdError::NotDeterministic(m) => {
                write!(f, "content model is not 1-unambiguous: {m}")
            }
            DtdError::NoElements => write!(f, "DTD declares no elements"),
        }
    }
}

impl std::error::Error for DtdError {}

impl Regex {
    /// Renders the expression in the paper's notation — this rendering is
    /// the *symbol name* the encoding uses for the node.
    pub fn render(&self) -> String {
        match self {
            Regex::Elem(n) => n.clone(),
            Regex::PcData => "#PCDATA".to_owned(),
            Regex::Star(r) => format!("{}*", r.render_atom()),
            Regex::Plus(r) => format!("{}+", r.render_atom()),
            Regex::Opt(r) => format!("{}?", r.render_atom()),
            Regex::Alt(rs) => format!(
                "({})",
                rs.iter().map(Regex::render).collect::<Vec<_>>().join("|")
            ),
            Regex::Seq(rs) => format!(
                "({})",
                rs.iter().map(Regex::render).collect::<Vec<_>>().join(",")
            ),
        }
    }

    fn render_atom(&self) -> String {
        match self {
            Regex::Elem(_) | Regex::PcData | Regex::Alt(_) | Regex::Seq(_) => self.render(),
            _ => format!("({})", self.render()),
        }
    }

    /// Can the expression match the empty sequence?
    pub fn nullable(&self) -> bool {
        match self {
            Regex::Elem(_) | Regex::PcData | Regex::Plus(_) => false,
            Regex::Star(_) | Regex::Opt(_) => true,
            Regex::Alt(rs) => rs.iter().any(Regex::nullable),
            Regex::Seq(rs) => rs.iter().all(Regex::nullable),
        }
    }

    /// First set: tokens that can start a match.
    pub fn first(&self) -> BTreeSet<Tok> {
        match self {
            Regex::Elem(n) => BTreeSet::from([Tok::Elem(n.clone())]),
            Regex::PcData => BTreeSet::from([Tok::Text]),
            Regex::Star(r) | Regex::Plus(r) | Regex::Opt(r) => r.first(),
            Regex::Alt(rs) => rs.iter().flat_map(Regex::first).collect(),
            Regex::Seq(rs) => {
                let mut out = BTreeSet::new();
                for r in rs {
                    out.extend(r.first());
                    if !r.nullable() {
                        break;
                    }
                }
                out
            }
        }
    }

    /// Pre-order traversal of all subexpressions (self first).
    pub fn subexpressions(&self) -> Vec<&Regex> {
        let mut out = vec![self];
        match self {
            Regex::Star(r) | Regex::Plus(r) | Regex::Opt(r) => out.extend(r.subexpressions()),
            Regex::Alt(rs) | Regex::Seq(rs) => {
                for r in rs {
                    out.extend(r.subexpressions());
                }
            }
            _ => {}
        }
        out
    }

    /// Checks the deterministic (1-unambiguous) conditions given the set
    /// of tokens that may follow this occurrence.
    fn validate(&self, follow: &BTreeSet<Tok>) -> Result<(), DtdError> {
        match self {
            Regex::Elem(_) | Regex::PcData => Ok(()),
            Regex::Star(r) | Regex::Plus(r) => {
                if r.nullable() {
                    return Err(DtdError::NotDeterministic(format!(
                        "iterated expression {} is nullable",
                        r.render()
                    )));
                }
                if !r.first().is_disjoint(follow) {
                    return Err(DtdError::NotDeterministic(format!(
                        "cannot decide whether to continue {}: first/follow overlap",
                        self.render()
                    )));
                }
                // inside the loop, the iterated part may be followed by
                // its own first set (next iteration) or by `follow`
                let mut inner_follow = r.first();
                inner_follow.extend(follow.iter().cloned());
                r.validate(&inner_follow)
            }
            Regex::Opt(r) => {
                if r.nullable() {
                    return Err(DtdError::NotDeterministic(format!(
                        "optional expression {} is itself nullable",
                        r.render()
                    )));
                }
                if !r.first().is_disjoint(follow) {
                    return Err(DtdError::NotDeterministic(format!(
                        "cannot decide whether {} is present: first/follow overlap",
                        self.render()
                    )));
                }
                r.validate(follow)
            }
            Regex::Alt(rs) => {
                let mut seen: BTreeSet<Tok> = BTreeSet::new();
                let mut nullable_branches = 0;
                for r in rs {
                    let f = r.first();
                    if !f.is_disjoint(&seen) {
                        return Err(DtdError::NotDeterministic(format!(
                            "alternation branches of {} share first tokens",
                            self.render()
                        )));
                    }
                    seen.extend(f);
                    if r.nullable() {
                        nullable_branches += 1;
                    }
                    r.validate(follow)?;
                }
                if nullable_branches > 1 {
                    return Err(DtdError::NotDeterministic(format!(
                        "alternation {} has several nullable branches",
                        self.render()
                    )));
                }
                Ok(())
            }
            Regex::Seq(rs) => {
                for (i, r) in rs.iter().enumerate() {
                    // follow of part i = first of the nullable-prefix of the
                    // remainder, plus `follow` if the whole remainder is
                    // nullable.
                    let mut part_follow = BTreeSet::new();
                    let mut rest_nullable = true;
                    for r2 in &rs[i + 1..] {
                        part_follow.extend(r2.first());
                        if !r2.nullable() {
                            rest_nullable = false;
                            break;
                        }
                    }
                    if rest_nullable {
                        part_follow.extend(follow.iter().cloned());
                    }
                    if r.nullable() && !r.first().is_disjoint(&part_follow) {
                        return Err(DtdError::NotDeterministic(format!(
                            "cannot decide whether {} matches inside {}",
                            r.render(),
                            self.render()
                        )));
                    }
                    r.validate(&part_follow)?;
                }
                Ok(())
            }
        }
    }
}

impl Dtd {
    /// Assembles and validates a DTD. The first declared element is the
    /// start symbol.
    pub fn new(elements: Vec<(String, Content)>) -> Result<Dtd, DtdError> {
        let root = elements
            .first()
            .map(|(n, _)| n.clone())
            .ok_or(DtdError::NoElements)?;
        let mut seen: BTreeMap<&str, ()> = BTreeMap::new();
        for (name, _) in &elements {
            if seen.insert(name, ()).is_some() {
                return Err(DtdError::DuplicateElement(name.clone()));
            }
        }
        let dtd = Dtd { root, elements };
        // referenced elements must be declared, models must be deterministic
        for (_, content) in &dtd.elements {
            if let Content::Model(r) = content {
                for sub in r.subexpressions() {
                    if let Regex::Elem(n) = sub {
                        if dtd.content(n).is_none() {
                            return Err(DtdError::UnknownElement(n.clone()));
                        }
                    }
                }
                r.validate(&BTreeSet::new())?;
            }
        }
        Ok(dtd)
    }

    /// Parses W3C `<!ELEMENT …>` declarations.
    ///
    /// ```text
    /// <!ELEMENT root (a*,b*) >
    /// <!ELEMENT a EMPTY >
    /// <!ELEMENT b EMPTY >
    /// ```
    pub fn parse(input: &str) -> Result<Dtd, DtdError> {
        let mut p = DtdParser {
            input: input.as_bytes(),
            pos: 0,
        };
        let mut elements = Vec::new();
        loop {
            p.skip_ws();
            if p.pos >= p.input.len() {
                break;
            }
            elements.push(p.element_decl()?);
        }
        Dtd::new(elements)
    }

    /// The start symbol.
    pub fn root(&self) -> &str {
        &self.root
    }

    /// The content of an element.
    pub fn content(&self, name: &str) -> Option<&Content> {
        self.elements
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, c)| c)
    }

    /// All declarations, in order.
    pub fn elements(&self) -> &[(String, Content)] {
        &self.elements
    }
}

impl fmt::Display for Dtd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (name, content) in &self.elements {
            match content {
                Content::Empty => writeln!(f, "<!ELEMENT {name} EMPTY >")?,
                Content::Model(Regex::PcData) => writeln!(f, "<!ELEMENT {name} #PCDATA >")?,
                Content::Model(r) => writeln!(f, "<!ELEMENT {name} {} >", r.render())?,
            }
        }
        Ok(())
    }
}

struct DtdParser<'a> {
    input: &'a [u8],
    pos: usize,
}

impl<'a> DtdParser<'a> {
    fn err(&self, message: impl Into<String>) -> DtdError {
        DtdError::Parse {
            offset: self.pos,
            message: message.into(),
        }
    }

    fn skip_ws(&mut self) {
        while self.pos < self.input.len() && self.input[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn literal(&mut self, lit: &str) -> Result<(), DtdError> {
        if self.input[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(self.err(format!("expected {lit:?}")))
        }
    }

    fn name(&mut self) -> Result<String, DtdError> {
        let start = self.pos;
        while let Some(&c) = self.input.get(self.pos) {
            if c.is_ascii_alphanumeric() || matches!(c, b'_' | b'-' | b'.' | b':') {
                self.pos += 1;
            } else {
                break;
            }
        }
        if start == self.pos {
            return Err(self.err("expected a name"));
        }
        Ok(std::str::from_utf8(&self.input[start..self.pos])
            .unwrap()
            .to_owned())
    }

    fn element_decl(&mut self) -> Result<(String, Content), DtdError> {
        self.literal("<!ELEMENT")?;
        self.skip_ws();
        let name = self.name()?;
        self.skip_ws();
        let content = if self.input[self.pos..].starts_with(b"EMPTY") {
            self.pos += 5;
            Content::Empty
        } else if self.input[self.pos..].starts_with(b"#PCDATA") {
            self.pos += 7;
            Content::Model(Regex::PcData)
        } else {
            Content::Model(self.regex()?)
        };
        self.skip_ws();
        self.literal(">")?;
        Ok((name, content))
    }

    /// regex := atom postfix*  — at top level also (a|b) / (a,b) groups.
    fn regex(&mut self) -> Result<Regex, DtdError> {
        self.skip_ws();
        let mut r = self.atom()?;
        loop {
            match self.input.get(self.pos) {
                Some(b'*') => {
                    self.pos += 1;
                    r = Regex::Star(Box::new(r));
                }
                Some(b'+') => {
                    self.pos += 1;
                    r = Regex::Plus(Box::new(r));
                }
                Some(b'?') => {
                    self.pos += 1;
                    r = Regex::Opt(Box::new(r));
                }
                _ => return Ok(r),
            }
        }
    }

    fn atom(&mut self) -> Result<Regex, DtdError> {
        self.skip_ws();
        match self.input.get(self.pos) {
            Some(b'(') => {
                self.pos += 1;
                let first = self.regex()?;
                self.skip_ws();
                match self.input.get(self.pos) {
                    Some(b')') => {
                        self.pos += 1;
                        Ok(first)
                    }
                    Some(&sep @ (b',' | b'|')) => {
                        let mut parts = vec![first];
                        while self.input.get(self.pos) == Some(&sep) {
                            self.pos += 1;
                            parts.push(self.regex()?);
                            self.skip_ws();
                        }
                        if self.input.get(self.pos) != Some(&b')') {
                            return Err(self.err("expected ')'"));
                        }
                        self.pos += 1;
                        Ok(if sep == b',' {
                            Regex::Seq(parts)
                        } else {
                            Regex::Alt(parts)
                        })
                    }
                    _ => Err(self.err("expected ')', ',' or '|'")),
                }
            }
            Some(b'#') => {
                self.literal("#PCDATA")?;
                Ok(Regex::PcData)
            }
            _ => Ok(Regex::Elem(self.name()?)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The xmlflip input DTD of the paper's introduction.
    pub(crate) fn flip_dtd() -> Dtd {
        Dtd::parse("<!ELEMENT root (a*,b*) >\n<!ELEMENT a EMPTY >\n<!ELEMENT b EMPTY >\n").unwrap()
    }

    #[test]
    fn parses_the_paper_dtds() {
        let d = flip_dtd();
        assert_eq!(d.root(), "root");
        assert_eq!(d.content("a"), Some(&Content::Empty));
        let Content::Model(r) = d.content("root").unwrap() else {
            panic!("root has a model");
        };
        assert_eq!(r.render(), "(a*,b*)");
    }

    #[test]
    fn parses_the_library_dtd() {
        let d = Dtd::parse(
            "<!ELEMENT LIBRARY (BOOK*) >\n\
             <!ELEMENT BOOK ((AUTHOR, TITLE, YEAR?) | TITLE) >\n\
             <!ELEMENT AUTHOR #PCDATA >\n\
             <!ELEMENT TITLE #PCDATA >\n\
             <!ELEMENT YEAR #PCDATA >",
        )
        .unwrap();
        let Content::Model(r) = d.content("BOOK").unwrap() else {
            panic!()
        };
        assert_eq!(r.render(), "((AUTHOR,TITLE,YEAR?)|TITLE)");
        assert_eq!(d.content("YEAR"), Some(&Content::Model(Regex::PcData)));
    }

    #[test]
    fn first_and_nullable() {
        let d = flip_dtd();
        let Content::Model(r) = d.content("root").unwrap() else {
            panic!()
        };
        assert!(r.nullable());
        let first = r.first();
        assert!(first.contains(&Tok::Elem("a".into())));
        assert!(first.contains(&Tok::Elem("b".into())));
    }

    #[test]
    fn rejects_undeclared_references() {
        let err = Dtd::parse("<!ELEMENT root (zzz) >").unwrap_err();
        assert!(matches!(err, DtdError::UnknownElement(_)));
    }

    #[test]
    fn rejects_nondeterministic_models() {
        // (a*, a) is the classic non-1-unambiguous example
        let err = Dtd::parse("<!ELEMENT root (a*,a) >\n<!ELEMENT a EMPTY >").unwrap_err();
        assert!(matches!(err, DtdError::NotDeterministic(_)), "{err}");
        // (a|a?) shares first tokens
        let err2 = Dtd::parse("<!ELEMENT root (a|(a?)) >\n<!ELEMENT a EMPTY >").unwrap_err();
        assert!(matches!(err2, DtdError::NotDeterministic(_)), "{err2}");
        // (a*)* iterates a nullable
        let err3 = Dtd::parse("<!ELEMENT root ((a*))* >\n<!ELEMENT a EMPTY >").unwrap_err();
        assert!(matches!(err3, DtdError::NotDeterministic(_)), "{err3}");
    }

    #[test]
    fn display_roundtrips() {
        let d = flip_dtd();
        let reparsed = Dtd::parse(&d.to_string()).unwrap();
        assert_eq!(d, reparsed);
    }

    #[test]
    fn duplicate_declarations_rejected() {
        let err = Dtd::parse("<!ELEMENT a EMPTY >\n<!ELEMENT a EMPTY >").unwrap_err();
        assert!(matches!(err, DtdError::DuplicateElement(_)));
    }
}
