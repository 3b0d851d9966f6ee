//! The DTD-based ranked encoding of unranked trees (Section 10).
//!
//! The idea: group the children of an element according to the regular
//! subexpressions of its (1-unambiguous) content model, introducing one
//! ranked symbol per subexpression — `R*`/`R+` binary (head, tail), `R?`
//! and alternations unary, concatenations of arity *n*, elements of rank 1
//! (rank 0 when `EMPTY`), `#` closing lists. Over such encodings a dtop
//! can delete, exchange, or copy whole sibling *groups* — transformations
//! like `xmlflip` that are impossible for dtops over the classical
//! first-child/next-sibling encoding.
//!
//! Two deliberate engineering choices:
//!
//! * **pcdata**: the paper maps every text node to one constant `pcdata`.
//!   That abstraction makes every text-extraction state compute a constant
//!   function, which the earliest normal form then erases — so for
//!   learning experiments we also offer [`PcDataMode::Valued`], a finite
//!   universe of text values, each its own rank-0 symbol.
//! * **path closure**: the set of encodings is in general *not*
//!   path-closed (e.g. `a*(#, a*(#,#))` is in the closure but is not an
//!   encoding), while dtop domains must be (Proposition 2). [`Encoding::
//!   domain`] therefore builds the DTTA of the path closure; encoding
//!   always produces genuine encodings, and [`Encoding::decode`] rejects
//!   closure-only junk.

use std::collections::HashMap;
use std::fmt;

use xtt_automata::{Dtta, DttaBuilder, StateId};
use xtt_trees::{RankedAlphabet, Symbol, Tree};

use crate::dtd::{Content, Dtd, Regex, Tok};
use crate::utree::UTree;

/// Which variant of the encoding to use for `R*`.
///
/// * [`EncodingStyle::Paper`] follows Section 10 to the letter: the empty
///   list is `R*(#,#)`. The resulting encoding language is **not**
///   path-closed, so a characteristic sample w.r.t. the path-closure
///   domain must contain closure trees that decode to no document.
/// * [`EncodingStyle::PathClosed`] encodes the empty list as `#` and every
///   nonempty list as cons cells `R*(head, tail)` with a `#` terminator —
///   the same shape the paper itself uses for `R+` and `R?`. The encoding
///   language *is* path-closed, so transformations can be learned from
///   genuine document pairs alone ([`crate::infer`] uses this style).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum EncodingStyle {
    #[default]
    Paper,
    PathClosed,
}

/// How text nodes are mapped to ranked symbols.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PcDataMode {
    /// Every text node becomes the constant `pcdata` (the paper's letter;
    /// loses the text).
    Abstract,
    /// Text values come from a finite universe; value `v` becomes the
    /// constant `'v'`. Unknown values are an encoding error.
    Valued(Vec<String>),
}

impl PcDataMode {
    fn symbols(&self) -> Vec<(String, Option<String>)> {
        match self {
            PcDataMode::Abstract => vec![("pcdata".to_owned(), None)],
            PcDataMode::Valued(vals) => vals
                .iter()
                .map(|v| (format!("'{v}'"), Some(v.clone())))
                .collect(),
        }
    }

    /// The ranked symbol name a text value encodes to, if any (`None` =
    /// the value is outside a `Valued` universe).
    pub fn symbol_for(&self, text: &str) -> Option<String> {
        match self {
            PcDataMode::Abstract => Some("pcdata".to_owned()),
            PcDataMode::Valued(vals) => {
                vals.contains(&text.to_owned()).then(|| format!("'{text}'"))
            }
        }
    }

    /// The text value a pcdata symbol name decodes to, if it is one.
    pub fn value_of(&self, symbol_name: &str) -> Option<String> {
        match self {
            PcDataMode::Abstract => (symbol_name == "pcdata").then(|| "pcdata".to_owned()),
            PcDataMode::Valued(vals) => symbol_name
                .strip_prefix('\'')
                .and_then(|s| s.strip_suffix('\''))
                .filter(|v| vals.iter().any(|u| u == v))
                .map(str::to_owned),
        }
    }
}

/// Errors of encoding/decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EncodeError {
    NotValid(String),
    UnknownText(String),
    Malformed(String),
}

impl fmt::Display for EncodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EncodeError::NotValid(m) => write!(f, "document does not match the DTD: {m}"),
            EncodeError::UnknownText(t) => {
                write!(f, "text value {t:?} outside the finite pcdata universe")
            }
            EncodeError::Malformed(m) => write!(f, "malformed encoded tree: {m}"),
        }
    }
}

impl std::error::Error for EncodeError {}

/// A compiled DTD encoding: ranked alphabet, encoder, decoder, and the
/// path-closure domain automaton.
#[derive(Clone, Debug)]
pub struct Encoding {
    dtd: Dtd,
    mode: PcDataMode,
    style: EncodingStyle,
    alphabet: RankedAlphabet,
    /// render text → the regex it denotes (for decoding and the domain).
    exprs: HashMap<String, Regex>,
    hash_sym: Symbol,
}

impl Encoding {
    /// Compiles the encoding for a validated DTD, in the paper's style.
    pub fn new(dtd: Dtd, mode: PcDataMode) -> Encoding {
        Encoding::with_style(dtd, mode, EncodingStyle::Paper)
    }

    /// Compiles the encoding with an explicit `R*` style.
    pub fn with_style(dtd: Dtd, mode: PcDataMode, style: EncodingStyle) -> Encoding {
        let mut alphabet = RankedAlphabet::new();
        let mut exprs: HashMap<String, Regex> = HashMap::new();
        for (name, content) in dtd.elements() {
            let rank = usize::from(*content != Content::Empty);
            alphabet.add_named(name, rank);
            if let Content::Model(r) = content {
                for sub in r.subexpressions() {
                    match sub {
                        Regex::Elem(_) | Regex::PcData => {}
                        _ => {
                            let text = sub.render();
                            alphabet.add_named(&text, regex_rank(sub));
                            exprs.entry(text).or_insert_with(|| sub.clone());
                        }
                    }
                }
            }
        }
        for (sym, _) in mode.symbols() {
            alphabet.add_named(&sym, 0);
        }
        // `#PCDATA` can occur directly as an element's content model, in
        // which case `key_of` produces an Exact key for it.
        exprs.insert(Regex::PcData.render(), Regex::PcData);
        let hash_sym = alphabet.add_named("#", 0);
        Encoding {
            dtd,
            mode,
            style,
            alphabet,
            exprs,
            hash_sym,
        }
    }

    /// The `R*` style in use.
    pub fn style(&self) -> EncodingStyle {
        self.style
    }

    pub fn dtd(&self) -> &Dtd {
        &self.dtd
    }

    /// The pcdata mode the encoding was compiled with.
    pub fn mode(&self) -> &PcDataMode {
        &self.mode
    }

    /// The `#` (empty list / absent option) symbol of the encoding.
    pub fn hash_symbol(&self) -> Symbol {
        self.hash_sym
    }

    /// The regular subexpression a rendered group-symbol name denotes,
    /// if the name is one of this encoding's group symbols. Element
    /// names and pcdata symbols are *not* group symbols.
    pub fn group_expr(&self, rendered: &str) -> Option<&Regex> {
        self.exprs.get(rendered)
    }

    /// The ranked alphabet of the encoding, in deterministic order
    /// (elements and their subexpressions in declaration order, pcdata
    /// constants, then `#`).
    pub fn alphabet(&self) -> &RankedAlphabet {
        &self.alphabet
    }

    fn hash(&self) -> Tree {
        Tree::leaf(self.hash_sym)
    }

    /// Encodes a DTD-valid document.
    pub fn encode(&self, doc: &UTree) -> Result<Tree, EncodeError> {
        let label = doc
            .label()
            .ok_or_else(|| EncodeError::NotValid("root is a text node".into()))?;
        if label != self.dtd.root() {
            return Err(EncodeError::NotValid(format!(
                "root is <{label}>, expected <{}>",
                self.dtd.root()
            )));
        }
        self.encode_element(doc)
    }

    fn encode_element(&self, e: &UTree) -> Result<Tree, EncodeError> {
        let label = e
            .label()
            .ok_or_else(|| EncodeError::NotValid("expected an element, found text".into()))?;
        let content = self
            .dtd
            .content(label)
            .ok_or_else(|| EncodeError::NotValid(format!("undeclared element <{label}>")))?;
        match content {
            Content::Empty => {
                if !e.children().is_empty() {
                    return Err(EncodeError::NotValid(format!(
                        "<{label}> is EMPTY but has children"
                    )));
                }
                Ok(Tree::leaf(Symbol::new(label)))
            }
            Content::Model(r) => {
                let mut pos = 0usize;
                let inner = self.encode_model(r, e.children(), &mut pos)?;
                if pos != e.children().len() {
                    return Err(EncodeError::NotValid(format!(
                        "<{label}> has trailing children not matched by {}",
                        r.render()
                    )));
                }
                Ok(Tree::new(Symbol::new(label), vec![inner]))
            }
        }
    }

    fn peek(items: &[UTree], pos: usize) -> Option<Tok> {
        items.get(pos).map(|t| match t {
            UTree::Text(_) => Tok::Text,
            UTree::Elem { label, .. } => Tok::Elem(label.clone()),
        })
    }

    fn starts(r: &Regex, tok: &Option<Tok>) -> bool {
        match tok {
            Some(t) => r.first().contains(t),
            None => false,
        }
    }

    fn encode_model(
        &self,
        r: &Regex,
        items: &[UTree],
        pos: &mut usize,
    ) -> Result<Tree, EncodeError> {
        let sym = |r: &Regex| Symbol::new(&r.render());
        match r {
            Regex::Elem(name) => match items.get(*pos) {
                Some(item) if item.label() == Some(name) => {
                    *pos += 1;
                    self.encode_element(item)
                }
                other => Err(EncodeError::NotValid(format!(
                    "expected <{name}>, found {}",
                    other.map_or("end of children".to_owned(), ToString::to_string)
                ))),
            },
            Regex::PcData => match items.get(*pos) {
                Some(UTree::Text(s)) => {
                    *pos += 1;
                    let name = self
                        .mode
                        .symbol_for(s)
                        .ok_or_else(|| EncodeError::UnknownText(s.clone()))?;
                    Ok(Tree::leaf(Symbol::new(&name)))
                }
                other => Err(EncodeError::NotValid(format!(
                    "expected text, found {}",
                    other.map_or("end of children".to_owned(), ToString::to_string)
                ))),
            },
            Regex::Star(r1) => {
                if Self::starts(r1, &Self::peek(items, *pos)) {
                    let head = self.encode_model(r1, items, pos)?;
                    let tail = self.encode_model(r, items, pos)?;
                    Ok(Tree::new(sym(r), vec![head, tail]))
                } else {
                    match self.style {
                        EncodingStyle::Paper => {
                            Ok(Tree::new(sym(r), vec![self.hash(), self.hash()]))
                        }
                        EncodingStyle::PathClosed => Ok(self.hash()),
                    }
                }
            }
            Regex::Plus(r1) => {
                let head = self.encode_model(r1, items, pos)?;
                if Self::starts(r1, &Self::peek(items, *pos)) {
                    let tail = self.encode_model(r, items, pos)?;
                    Ok(Tree::new(sym(r), vec![head, tail]))
                } else {
                    Ok(Tree::new(sym(r), vec![head, self.hash()]))
                }
            }
            Regex::Opt(r1) => {
                if Self::starts(r1, &Self::peek(items, *pos)) {
                    let inner = self.encode_model(r1, items, pos)?;
                    Ok(Tree::new(sym(r), vec![inner]))
                } else {
                    Ok(Tree::new(sym(r), vec![self.hash()]))
                }
            }
            Regex::Alt(branches) => {
                let tok = Self::peek(items, *pos);
                let branch = branches
                    .iter()
                    .find(|b| Self::starts(b, &tok))
                    .or_else(|| branches.iter().find(|b| b.nullable()))
                    .ok_or_else(|| {
                        EncodeError::NotValid(format!(
                            "no branch of {} matches the children",
                            r.render()
                        ))
                    })?;
                let inner = self.encode_model(branch, items, pos)?;
                Ok(Tree::new(sym(r), vec![inner]))
            }
            Regex::Seq(parts) => {
                let mut children = Vec::with_capacity(parts.len());
                for p in parts {
                    children.push(self.encode_model(p, items, pos)?);
                }
                Ok(Tree::new(sym(r), children))
            }
        }
    }

    /// Decodes a genuine encoding back into the document.
    pub fn decode(&self, t: &Tree) -> Result<UTree, EncodeError> {
        self.decode_element(t)
    }

    fn decode_element(&self, t: &Tree) -> Result<UTree, EncodeError> {
        let label = t.symbol().name();
        let content = self
            .dtd
            .content(label)
            .ok_or_else(|| EncodeError::Malformed(format!("unknown element symbol {label}")))?;
        match content {
            Content::Empty => {
                if !t.is_leaf() {
                    return Err(EncodeError::Malformed(format!(
                        "EMPTY element {label} has children"
                    )));
                }
                Ok(UTree::leaf(label))
            }
            Content::Model(r) => {
                let inner = t.child(0).ok_or_else(|| {
                    EncodeError::Malformed(format!("element {label} missing content"))
                })?;
                let mut children = Vec::new();
                self.decode_model(r, inner, &mut children)?;
                Ok(UTree::elem(label, children))
            }
        }
    }

    fn decode_model(&self, r: &Regex, t: &Tree, out: &mut Vec<UTree>) -> Result<(), EncodeError> {
        let expect = |want: &str| -> Result<(), EncodeError> {
            if t.symbol().name() == want {
                Ok(())
            } else {
                Err(EncodeError::Malformed(format!(
                    "expected node {want}, found {}",
                    t.symbol()
                )))
            }
        };
        match r {
            Regex::Elem(name) => {
                expect(name)?;
                out.push(self.decode_element(t)?);
                Ok(())
            }
            Regex::PcData => {
                let name = t.symbol().name();
                match &self.mode {
                    PcDataMode::Abstract => {
                        expect("pcdata")?;
                        out.push(UTree::text("pcdata"));
                    }
                    PcDataMode::Valued(_) => {
                        let stripped = name
                            .strip_prefix('\'')
                            .and_then(|s| s.strip_suffix('\''))
                            .ok_or_else(|| {
                            EncodeError::Malformed(format!("{name} is not a pcdata value"))
                        })?;
                        out.push(UTree::text(stripped));
                    }
                }
                Ok(())
            }
            Regex::Star(r1) => match self.style {
                EncodingStyle::Paper => {
                    expect(&r.render())?;
                    let (c1, c2) = (t.child(0).unwrap(), t.child(1).unwrap());
                    if c1.symbol() == self.hash_sym && c2.symbol() == self.hash_sym {
                        return Ok(());
                    }
                    if c1.symbol() == self.hash_sym || c2.symbol() == self.hash_sym {
                        return Err(EncodeError::Malformed(format!(
                            "{} node mixes # with content (path-closure junk)",
                            r.render()
                        )));
                    }
                    self.decode_model(r1, c1, out)?;
                    self.decode_model(r, c2, out)
                }
                EncodingStyle::PathClosed => {
                    if t.symbol() == self.hash_sym {
                        return Ok(());
                    }
                    expect(&r.render())?;
                    let (c1, c2) = (t.child(0).unwrap(), t.child(1).unwrap());
                    self.decode_model(r1, c1, out)?;
                    self.decode_model(r, c2, out)
                }
            },
            Regex::Plus(r1) => {
                expect(&r.render())?;
                let (c1, c2) = (t.child(0).unwrap(), t.child(1).unwrap());
                self.decode_model(r1, c1, out)?;
                if c2.symbol() == self.hash_sym {
                    return Ok(());
                }
                self.decode_model(r, c2, out)
            }
            Regex::Opt(r1) => {
                expect(&r.render())?;
                let c = t.child(0).unwrap();
                if c.symbol() == self.hash_sym {
                    return Ok(());
                }
                self.decode_model(r1, c, out)
            }
            Regex::Alt(branches) => {
                expect(&r.render())?;
                let c = t.child(0).unwrap();
                for b in branches {
                    if self.branch_roots(b).contains(&c.symbol().name().to_owned()) {
                        return self.decode_model(b, c, out);
                    }
                }
                Err(EncodeError::Malformed(format!(
                    "no branch of {} produces node {}",
                    r.render(),
                    c.symbol()
                )))
            }
            Regex::Seq(parts) => {
                expect(&r.render())?;
                for (p, c) in parts.iter().zip(t.children()) {
                    self.decode_model(p, c, out)?;
                }
                Ok(())
            }
        }
    }

    /// The symbols that can appear at the root of `enc(b, ·)`.
    fn branch_roots(&self, b: &Regex) -> Vec<String> {
        match b {
            Regex::Elem(n) => vec![n.clone()],
            Regex::PcData => self.mode.symbols().into_iter().map(|(s, _)| s).collect(),
            Regex::Star(_) if self.style == EncodingStyle::PathClosed => {
                vec![b.render(), "#".to_owned()]
            }
            _ => vec![b.render()],
        }
    }

    /// Builds the DTTA of the **path closure** of the encoding language —
    /// the domain automaton handed to the learner (see the module docs for
    /// why the closure, not the encoding set itself).
    pub fn domain(&self) -> Dtta {
        let mut b = DttaBuilder::new(self.alphabet.clone());
        let mut states: HashMap<Key, StateId> = HashMap::new();
        let root_key = Key::Elem(self.dtd.root().to_owned());
        let mut queue: Vec<Key> = Vec::new();
        let s0 = b.add_state(root_key.name());
        states.insert(root_key.clone(), s0);
        queue.push(root_key);
        while let Some(key) = queue.pop() {
            let id = states[&key];
            let (entries, optional) = self.entries_of(&key);
            if optional {
                b.add_transition(id, self.hash_sym, Vec::new())
                    .expect("ranks agree");
            }
            for (sym, child_keys) in entries {
                let mut children = Vec::with_capacity(child_keys.len());
                for ck in child_keys {
                    let child = *states.entry(ck.clone()).or_insert_with(|| {
                        queue.push(ck.clone());
                        b.add_state(ck.name())
                    });
                    children.push(child);
                }
                b.add_transition(id, sym, children).expect("ranks agree");
            }
        }
        b.build().expect("root state exists")
    }

    /// Entry transitions of a state key, plus whether `#` is allowed.
    fn entries_of(&self, key: &Key) -> (Vec<(Symbol, Vec<Key>)>, bool) {
        match key {
            Key::Elem(name) => (self.entry_transitions(&Regex::Elem(name.clone())), false),
            Key::Exact(text) => {
                let r = self.exprs[text].clone();
                (self.entry_transitions(&r), false)
            }
            Key::Opt(inner) => {
                let (entries, _) = self.entries_of(inner);
                (entries, true)
            }
            Key::Union(keys) => {
                let mut entries = Vec::new();
                let mut optional = false;
                for k in keys {
                    let (e, o) = self.entries_of(k);
                    entries.extend(e);
                    optional |= o;
                }
                (entries, optional)
            }
        }
    }

    /// The transitions a sequence position offers when the expected
    /// expression is `r` (symbol at the node, child state keys).
    fn entry_transitions(&self, r: &Regex) -> Vec<(Symbol, Vec<Key>)> {
        match r {
            Regex::Elem(name) => {
                let content = self.dtd.content(name).expect("validated DTD");
                let children = match content {
                    Content::Empty => Vec::new(),
                    Content::Model(m) => vec![self.key_of(m)],
                };
                vec![(Symbol::new(name), children)]
            }
            Regex::PcData => self
                .mode
                .symbols()
                .into_iter()
                .map(|(s, _)| (Symbol::new(&s), Vec::new()))
                .collect(),
            Regex::Star(r1) => match self.style {
                EncodingStyle::Paper => vec![(
                    Symbol::new(&r.render()),
                    vec![opt(self.key_of(r1)), opt(Key::Exact(r.render()))],
                )],
                // cons cell: head is a genuine item, tail is a list or #
                EncodingStyle::PathClosed => vec![(
                    Symbol::new(&r.render()),
                    vec![self.key_of(r1), opt(Key::Exact(r.render()))],
                )],
            },
            Regex::Plus(r1) => vec![(
                Symbol::new(&r.render()),
                vec![self.key_of(r1), opt(Key::Exact(r.render()))],
            )],
            Regex::Opt(r1) => vec![(Symbol::new(&r.render()), vec![opt(self.key_of(r1))])],
            Regex::Alt(branches) => {
                let inner: Vec<Key> = branches.iter().map(|b| self.key_of(b)).collect();
                vec![(Symbol::new(&r.render()), vec![Key::union_of(inner)])]
            }
            Regex::Seq(parts) => vec![(
                Symbol::new(&r.render()),
                parts.iter().map(|p| self.key_of(p)).collect(),
            )],
        }
    }

    fn key_of(&self, r: &Regex) -> Key {
        match r {
            Regex::Elem(n) => Key::Elem(n.clone()),
            // in the path-closed style a star position may hold `#`
            Regex::Star(_) if self.style == EncodingStyle::PathClosed => {
                opt(Key::Exact(r.render()))
            }
            _ => Key::Exact(r.render()),
        }
    }
}

fn regex_rank(r: &Regex) -> usize {
    match r {
        Regex::Elem(_) | Regex::PcData => unreachable!("no node symbol"),
        Regex::Star(_) | Regex::Plus(_) => 2,
        Regex::Opt(_) | Regex::Alt(_) => 1,
        Regex::Seq(parts) => parts.len(),
    }
}

fn opt(k: Key) -> Key {
    Key::Opt(Box::new(k))
}

/// A domain-automaton state key.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
enum Key {
    /// Accepts encodings of the element.
    Elem(String),
    /// Accepts `enc(R, w)` for the rendered expression.
    Exact(String),
    /// The inner key's language plus `#`.
    Opt(Box<Key>),
    /// Union of the branch languages (below an alternation node); branch
    /// root symbols are pairwise distinct in a deterministic DTD, so the
    /// merged transition table stays deterministic.
    Union(Vec<Key>),
}

impl Key {
    fn name(&self) -> String {
        match self {
            Key::Elem(n) => format!("elem:{n}"),
            Key::Exact(t) => format!("enc:{t}"),
            Key::Opt(k) => format!("{}?", k.name()),
            Key::Union(ks) => {
                let names: Vec<String> = ks.iter().map(Key::name).collect();
                format!("[{}]", names.join("|"))
            }
        }
    }

    fn union_of(inner: Vec<Key>) -> Key {
        if inner.len() == 1 {
            inner.into_iter().next().unwrap()
        } else {
            Key::Union(inner)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::xmlparse::parse_xml;

    fn flip_encoding() -> Encoding {
        let dtd = Dtd::parse("<!ELEMENT root (a*,b*) >\n<!ELEMENT a EMPTY >\n<!ELEMENT b EMPTY >")
            .unwrap();
        Encoding::new(dtd, PcDataMode::Abstract)
    }

    #[test]
    fn encodes_the_paper_example() {
        // paper §1: root(a,a,b) ↦
        // root((a*,b*)(a*(a,a*(a,a*(#,#))),b*(b,b*(#,#))))
        let enc = flip_encoding();
        let doc = parse_xml("<root><a/><a/><b/></root>").unwrap();
        let t = enc.encode(&doc).unwrap();
        assert_eq!(
            t.to_string(),
            "root(\"(a*,b*)\"(a*(a,a*(a,a*(#,#))),b*(b,b*(#,#))))"
        );
    }

    #[test]
    fn decode_inverts_encode() {
        let enc = flip_encoding();
        for doc_text in [
            "<root/>",
            "<root><a/></root>",
            "<root><b/><b/></root>",
            "<root><a/><a/><a/><b/></root>",
        ] {
            let doc = parse_xml(doc_text).unwrap();
            let t = enc.encode(&doc).unwrap();
            assert_eq!(enc.decode(&t).unwrap(), doc, "{doc_text}");
        }
    }

    #[test]
    fn invalid_documents_rejected() {
        let enc = flip_encoding();
        // b before a violates (a*,b*)
        let doc = parse_xml("<root><b/><a/></root>").unwrap();
        assert!(enc.encode(&doc).is_err());
        let doc2 = parse_xml("<root><c/></root>").unwrap();
        assert!(enc.encode(&doc2).is_err());
    }

    #[test]
    fn alphabet_ranks_match_paper() {
        let enc = flip_encoding();
        let a = enc.alphabet();
        assert_eq!(a.rank(Symbol::new("root")), Some(1));
        assert_eq!(a.rank(Symbol::new("(a*,b*)")), Some(2));
        assert_eq!(a.rank(Symbol::new("a*")), Some(2));
        assert_eq!(a.rank(Symbol::new("a")), Some(0)); // EMPTY
        assert_eq!(a.rank(Symbol::new("#")), Some(0));
    }

    #[test]
    fn domain_accepts_encodings_and_closure() {
        let enc = flip_encoding();
        let d = enc.domain();
        for n in [(0, 0), (2, 1), (0, 3)] {
            let doc = make_flip_doc(n.0, n.1);
            let t = enc.encode(&doc).unwrap();
            assert!(d.accepts(&t), "{t}");
        }
        // path-closure junk: accepted by the domain, rejected by decode
        let junk = xtt_trees::parse_tree("root(\"(a*,b*)\"(a*(#,a*(a,a*(#,#))),b*(#,#)))").unwrap();
        assert!(d.accepts(&junk));
        assert!(enc.decode(&junk).is_err());
    }

    fn make_flip_doc(n: usize, m: usize) -> UTree {
        let mut children = Vec::new();
        for _ in 0..n {
            children.push(UTree::leaf("a"));
        }
        for _ in 0..m {
            children.push(UTree::leaf("b"));
        }
        UTree::elem("root", children)
    }

    #[test]
    fn valued_pcdata_roundtrip() {
        let dtd = Dtd::parse("<!ELEMENT t #PCDATA >").unwrap();
        let enc = Encoding::new(dtd, PcDataMode::Valued(vec!["x".into(), "y".into()]));
        let doc = parse_xml("<t>x</t>").unwrap();
        let t = enc.encode(&doc).unwrap();
        assert_eq!(t.to_string(), "t('x')");
        assert_eq!(enc.decode(&t).unwrap(), doc);
        let bad = parse_xml("<t>zzz</t>").unwrap();
        assert!(matches!(enc.encode(&bad), Err(EncodeError::UnknownText(_))));
    }

    #[test]
    fn library_dtd_encoding() {
        let dtd = Dtd::parse(
            "<!ELEMENT LIBRARY (BOOK*) >\n\
             <!ELEMENT BOOK ((AUTHOR, TITLE, YEAR?) | TITLE) >\n\
             <!ELEMENT AUTHOR #PCDATA >\n\
             <!ELEMENT TITLE #PCDATA >\n\
             <!ELEMENT YEAR #PCDATA >",
        )
        .unwrap();
        let enc = Encoding::new(dtd, PcDataMode::Abstract);
        let doc = parse_xml(
            "<LIBRARY><BOOK><AUTHOR>a</AUTHOR><TITLE>t</TITLE></BOOK>\
             <BOOK><TITLE>u</TITLE></BOOK></LIBRARY>",
        )
        .unwrap();
        let t = enc.encode(&doc).unwrap();
        // paper: e1 = ((A,T,Y?)|T)((A,T,Y?)(A(P),T(P),Y?(#)))
        let text = t.to_string();
        assert!(
            text.contains("\"((AUTHOR,TITLE,YEAR?)|TITLE)\"(\"(AUTHOR,TITLE,YEAR?)\"(AUTHOR(pcdata),TITLE(pcdata),YEAR?(#))"),
            "{text}"
        );
        // decode loses nothing except text values (Abstract mode)
        let back = enc.decode(&t).unwrap();
        assert_eq!(back.children().len(), 2);
    }
}
