//! Streaming DTD-based encoding and decoding (Section 10, incremental).
//!
//! [`xtt_xml::Encoding::encode`] is a recursive-descent matcher over the
//! (1-unambiguous) content models: every grouping decision looks at one
//! token of lookahead. [`DtdStreamEncoder`] runs the *same* LL(1)
//! derivation inverted: instead of recursing over a materialized child
//! list, it keeps the derivation's spine as an explicit stack of open
//! regex frames per open element, and advances it one SAX token at a
//! time — emitting the encoding's pre-order [`TreeEvent`]s the moment
//! they are determined. Live state is O(depth · content-model nesting);
//! no `UTree` and no ranked tree are ever built, and the emitted event
//! stream is **identical, event for event**, to
//! `Encoding::encode(doc).events()` (pinned by property tests).
//!
//! [`DtdXmlWriter`] is the inverse direction: it consumes the pre-order
//! events of an encoded tree (an engine output, or a prefix of one) and
//! writes the unranked document as XML text, classifying each symbol as
//! an element (start/end tags), a pcdata constant (character data), `#`
//! (structure, nothing written), or a sibling-group symbol (structure,
//! nothing written).

use std::collections::VecDeque;
use std::sync::Arc;

use xtt_trees::{Symbol, TreeEvent};
use xtt_xml::{
    escape_text, is_xml_name, Content, EncodeError, Encoding, EncodingStyle, Regex, Tok, XmlEvent,
};

/// One token of lookahead, by reference — the hot path never clones an
/// element name into a [`Tok`].
#[derive(Clone, Copy)]
enum Look<'a> {
    /// End of the element's children.
    End,
    /// A text node.
    Text,
    /// A child element start.
    Elem(&'a str),
}

/// What a [`ModelParse::consume`] call matched.
enum Consumed {
    /// The token was an element start matching this name; the caller
    /// opens the element and defers `child_done` to its end tag.
    Element,
    /// The token was character data; the caller emits the pcdata leaf
    /// and calls `child_done` immediately.
    Text,
}

type NodeId = u32;

/// One compiled content-model node: the regex shape with its group
/// symbol, first set, and nullability resolved **once** at encoder
/// construction — the per-token hot path never renders a regex, locks
/// the interner, or recomputes a first set.
struct CNode {
    kind: CKind,
    /// Interned group symbol (the rendered expression; unused for
    /// element/pcdata atoms).
    sym: Symbol,
    /// Rendered expression, for diagnostics only.
    render: String,
    nullable: bool,
    /// First-set, split for allocation-free lookups: can the expression
    /// start with text, and with which elements (sorted)?
    first_text: bool,
    first_elems: Vec<String>,
}

enum CKind {
    Elem(String),
    PcData,
    Star(NodeId),
    Plus(NodeId),
    Opt(NodeId),
    Alt(Vec<NodeId>),
    Seq(Vec<NodeId>),
}

/// The compiled content models of one DTD: an arena of [`CNode`]s, each
/// element's symbol and root node (`None` = `EMPTY`), and the symbol of
/// each text value.
struct Models {
    nodes: Vec<CNode>,
    content: std::collections::HashMap<String, (Symbol, Option<NodeId>)>,
    /// The pcdata symbols with the text each stands for (`None` = any
    /// text); see [`Models::text_symbol`].
    texts: Vec<(Option<String>, Symbol)>,
}

impl Models {
    fn compile(enc: &Encoding) -> Models {
        let mut models = Models {
            nodes: Vec::new(),
            content: std::collections::HashMap::new(),
            texts: (enc.mode().symbols().into_iter())
                .map(|(name, value)| (value, Symbol::new(&name)))
                .collect(),
        };
        for (name, content) in enc.dtd().elements() {
            let root = match content {
                Content::Empty => None,
                Content::Model(r) => Some(models.add(r)),
            };
            models
                .content
                .insert(name.clone(), (Symbol::new(name), root));
        }
        models
    }

    /// The symbol a text node encodes to, as
    /// [`xtt_xml::PcDataMode::symbol_for`] names it; `None` outside a
    /// valued universe.
    fn text_symbol(&self, text: &str) -> Option<Symbol> {
        let matches = |value: &Option<String>| value.as_deref().map_or(true, |v| v == text);
        self.texts
            .iter()
            .find(|(value, _)| matches(value))
            .map(|&(_, sym)| sym)
    }

    fn add(&mut self, r: &Regex) -> NodeId {
        let kind = match r {
            Regex::Elem(name) => CKind::Elem(name.clone()),
            Regex::PcData => CKind::PcData,
            Regex::Star(inner) => CKind::Star(self.add(inner)),
            Regex::Plus(inner) => CKind::Plus(self.add(inner)),
            Regex::Opt(inner) => CKind::Opt(self.add(inner)),
            Regex::Alt(branches) => CKind::Alt(branches.iter().map(|b| self.add(b)).collect()),
            Regex::Seq(parts) => CKind::Seq(parts.iter().map(|p| self.add(p)).collect()),
        };
        let render = r.render();
        let mut first_text = false;
        let mut first_elems = Vec::new();
        for tok in r.first() {
            match tok {
                Tok::Text => first_text = true,
                Tok::Elem(name) => first_elems.push(name),
            }
        }
        first_elems.sort();
        let id = self.nodes.len() as NodeId;
        self.nodes.push(CNode {
            kind,
            sym: Symbol::new(&render),
            render,
            nullable: r.nullable(),
            first_text,
            first_elems,
        });
        id
    }

    #[inline]
    fn node(&self, id: NodeId) -> &CNode {
        &self.nodes[id as usize]
    }

    #[inline]
    fn starts(&self, id: NodeId, look: Look<'_>) -> bool {
        let node = self.node(id);
        match look {
            Look::End => false,
            Look::Text => node.first_text,
            Look::Elem(name) => node
                .first_elems
                .binary_search_by(|e| e.as_str().cmp(name))
                .is_ok(),
        }
    }
}

/// One open node of the content-model derivation.
///
/// Iterations are the one place the *encoded* tree is deeper than the
/// document: a list of `n` items is a chain of `n` nested cons cells,
/// all of which close together when the list ends. A naive frame per
/// cons cell would make the encoder O(siblings); instead one frame
/// represents the whole open chain, with `tails` counting the cons-cell
/// `Open`s whose `Close` is still pending — so live state stays
/// O(document depth · content-model nesting).
enum RFrame {
    /// `(R₁,…,Rₙ)` — parts before `idx` are complete.
    Seq { node: NodeId, idx: usize },
    /// An open `R*` cons chain: the deepest cell's head is in flight (or
    /// just completed); `tails` cells await their cascaded `Close`.
    Star { node: NodeId, tails: u32 },
    /// An open `R+` cons chain.
    Plus { node: NodeId, tails: u32 },
    /// `R?` / `(R₁|…|Rₙ)` with the chosen inner expression in flight.
    Wrap,
}

/// The incremental LL(1) derivation of one element's content model. Its
/// open frames are `frames[base..]` of the encoder's one frame stack:
/// an element's derivation completes before its parent's resumes, so
/// the derivations nest like the elements.
struct ModelParse {
    base: usize,
    /// The node the derivation is about to enter (None while a child
    /// subtree is in flight or the model is complete).
    entering: Option<NodeId>,
    /// The root node, for the trailing-children diagnostic.
    root: NodeId,
    complete: bool,
}

fn describe(look: Look<'_>) -> String {
    match look {
        Look::End => "end of children".to_owned(),
        Look::Text => "text".to_owned(),
        Look::Elem(name) => format!("<{name}>"),
    }
}

impl ModelParse {
    /// A derivation whose frames go on `frames` above its current top.
    fn new(root: NodeId, frames: &[RFrame]) -> ModelParse {
        ModelParse {
            base: frames.len(),
            entering: Some(root),
            root,
            complete: false,
        }
    }

    /// This derivation's innermost open frame.
    fn top<'f>(&self, frames: &'f mut [RFrame]) -> Option<&'f mut RFrame> {
        frames[self.base..].last_mut()
    }

    /// No token consumed yet (the element just opened).
    fn is_fresh(&self, frames: &[RFrame]) -> bool {
        frames.len() == self.base && !self.complete && self.entering == Some(self.root)
    }

    /// Emits the encoding of an empty iteration — `R*(#,#)` in the
    /// paper's style, a bare `#` in the path-closed style.
    fn emit_empty_star(
        sym: Symbol,
        style: EncodingStyle,
        hash: Symbol,
        out: &mut VecDeque<TreeEvent>,
    ) {
        match style {
            EncodingStyle::Paper => {
                out.push_back(TreeEvent::Open(sym));
                out.push_back(TreeEvent::Open(hash));
                out.push_back(TreeEvent::Close);
                out.push_back(TreeEvent::Open(hash));
                out.push_back(TreeEvent::Close);
                out.push_back(TreeEvent::Close);
            }
            EncodingStyle::PathClosed => {
                out.push_back(TreeEvent::Open(hash));
                out.push_back(TreeEvent::Close);
            }
        }
    }

    /// A child subtree of the derivation completed: cascade closes of
    /// every frame this finishes.
    fn child_done(
        &mut self,
        frames: &mut Vec<RFrame>,
        models: &Models,
        out: &mut VecDeque<TreeEvent>,
    ) {
        loop {
            match self.top(frames) {
                None => {
                    self.complete = true;
                    return;
                }
                Some(RFrame::Seq { node, idx }) => {
                    *idx += 1;
                    let CKind::Seq(parts) = &models.node(*node).kind else {
                        unreachable!("Seq frame points at a Seq node")
                    };
                    if *idx < parts.len() {
                        return; // next part awaits the next token
                    }
                    out.push_back(TreeEvent::Close);
                    frames.pop();
                }
                Some(RFrame::Wrap) => {
                    out.push_back(TreeEvent::Close);
                    frames.pop();
                }
                Some(RFrame::Star { .. } | RFrame::Plus { .. }) => {
                    return; // a head completed; the tail decision needs a token
                }
            }
        }
    }

    /// Advances the derivation with the next child token ([`Look::End`]
    /// = the element's end tag), emitting every event this determines.
    /// With an element/text token, ends by matching the corresponding
    /// atom; with `End`, drives the model to completion.
    fn consume(
        &mut self,
        frames: &mut Vec<RFrame>,
        models: &Models,
        look: Look<'_>,
        style: EncodingStyle,
        hash: Symbol,
        out: &mut VecDeque<TreeEvent>,
    ) -> Result<Option<Consumed>, EncodeError> {
        loop {
            if let Some(id) = self.entering.take() {
                let node = models.node(id);
                match &node.kind {
                    CKind::Elem(name) => {
                        return match look {
                            Look::Elem(label) if label == name => Ok(Some(Consumed::Element)),
                            other => Err(EncodeError::NotValid(format!(
                                "expected <{name}>, found {}",
                                describe(other)
                            ))),
                        };
                    }
                    CKind::PcData => {
                        return match look {
                            Look::Text => Ok(Some(Consumed::Text)),
                            other => Err(EncodeError::NotValid(format!(
                                "expected text, found {}",
                                describe(other)
                            ))),
                        };
                    }
                    CKind::Star(inner) => {
                        if models.starts(*inner, look) {
                            out.push_back(TreeEvent::Open(node.sym));
                            frames.push(RFrame::Star { node: id, tails: 1 });
                            self.entering = Some(*inner);
                        } else {
                            Self::emit_empty_star(node.sym, style, hash, out);
                            self.child_done(frames, models, out);
                        }
                    }
                    CKind::Plus(inner) => {
                        // The head is mandatory; mismatches surface when
                        // the inner expression's atom is entered.
                        out.push_back(TreeEvent::Open(node.sym));
                        frames.push(RFrame::Plus { node: id, tails: 1 });
                        self.entering = Some(*inner);
                    }
                    CKind::Opt(inner) => {
                        out.push_back(TreeEvent::Open(node.sym));
                        if models.starts(*inner, look) {
                            frames.push(RFrame::Wrap);
                            self.entering = Some(*inner);
                        } else {
                            out.push_back(TreeEvent::Open(hash));
                            out.push_back(TreeEvent::Close);
                            out.push_back(TreeEvent::Close);
                            self.child_done(frames, models, out);
                        }
                    }
                    CKind::Alt(branches) => {
                        let branch = branches
                            .iter()
                            .find(|b| models.starts(**b, look))
                            .or_else(|| branches.iter().find(|b| models.node(**b).nullable))
                            .copied()
                            .ok_or_else(|| {
                                EncodeError::NotValid(format!(
                                    "no branch of {} matches {}",
                                    node.render,
                                    describe(look)
                                ))
                            })?;
                        out.push_back(TreeEvent::Open(node.sym));
                        frames.push(RFrame::Wrap);
                        self.entering = Some(branch);
                    }
                    CKind::Seq(parts) => {
                        out.push_back(TreeEvent::Open(node.sym));
                        let first = parts[0];
                        frames.push(RFrame::Seq { node: id, idx: 0 });
                        self.entering = Some(first);
                    }
                }
                continue;
            }
            if self.complete {
                return match look {
                    Look::End => Ok(None),
                    other => Err(EncodeError::NotValid(format!(
                        "trailing children not matched by {}: {}",
                        models.node(self.root).render,
                        describe(other)
                    ))),
                };
            }
            match self.top(frames) {
                None => unreachable!("incomplete derivation always has a frame or an entry"),
                Some(RFrame::Seq { node, idx }) => {
                    let CKind::Seq(parts) = &models.node(*node).kind else {
                        unreachable!("Seq frame points at a Seq node")
                    };
                    self.entering = Some(parts[*idx]);
                }
                Some(RFrame::Star { node, tails }) => {
                    let id = *node;
                    let CKind::Star(inner) = models.node(id).kind else {
                        unreachable!("Star frame points at a Star node")
                    };
                    if models.starts(inner, look) {
                        // The list continues: a fresh cons cell becomes
                        // this cell's tail child.
                        out.push_back(TreeEvent::Open(models.node(id).sym));
                        *tails += 1;
                        self.entering = Some(inner);
                    } else {
                        // The list ends: emit the empty tail, then the
                        // cascaded closes of every open cons cell.
                        let tails = *tails;
                        Self::emit_empty_star(models.node(id).sym, style, hash, out);
                        for _ in 0..tails {
                            out.push_back(TreeEvent::Close);
                        }
                        frames.pop();
                        self.child_done(frames, models, out);
                    }
                }
                Some(RFrame::Plus { node, tails }) => {
                    let id = *node;
                    let CKind::Plus(inner) = models.node(id).kind else {
                        unreachable!("Plus frame points at a Plus node")
                    };
                    if models.starts(inner, look) {
                        out.push_back(TreeEvent::Open(models.node(id).sym));
                        *tails += 1;
                        self.entering = Some(inner);
                    } else {
                        let tails = *tails;
                        out.push_back(TreeEvent::Open(hash));
                        out.push_back(TreeEvent::Close);
                        for _ in 0..tails {
                            out.push_back(TreeEvent::Close);
                        }
                        frames.pop();
                        self.child_done(frames, models, out);
                    }
                }
                Some(RFrame::Wrap) => {
                    unreachable!("wrap frames are popped by child_done")
                }
            }
        }
    }
}

/// One open XML element.
struct ElemFrame {
    label: Symbol,
    /// `None` for `EMPTY` content.
    model: Option<ModelParse>,
}

/// Incremental DTD encoder; feed it [`XmlEvent`]s, it emits the ranked
/// events of `Encoding::encode(doc)` in order. See the module docs.
pub struct DtdStreamEncoder {
    enc: Arc<Encoding>,
    /// Content models compiled once (symbols, first sets, nullability).
    models: Models,
    hash: Symbol,
    elems: Vec<ElemFrame>,
    /// The open regex frames of every open element's derivation, one
    /// stack for all of them (see [`ModelParse`]).
    frames: Vec<RFrame>,
    started: bool,
    done: bool,
    peak: usize,
}

impl DtdStreamEncoder {
    pub fn new(enc: Arc<Encoding>) -> DtdStreamEncoder {
        let hash = enc.hash_symbol();
        let models = Models::compile(&enc);
        DtdStreamEncoder {
            enc,
            models,
            hash,
            elems: Vec::new(),
            frames: Vec::new(),
            started: false,
            done: false,
            peak: 0,
        }
    }

    /// Live derivation frames (open elements plus open regex groups) —
    /// the O(depth) claim, measured by experiment E12.
    pub fn live_frames(&self) -> usize {
        self.elems.len() + self.frames.len()
    }

    fn note_peak(&mut self) {
        self.peak = self.peak.max(self.live_frames());
    }

    /// High-water mark of [`DtdStreamEncoder::live_frames`].
    pub fn peak_frames(&self) -> usize {
        self.peak
    }

    /// The document's encoding is complete (root closed).
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// True right after an element's `Start` was fed and nothing else:
    /// the last ranked event emitted was that element's `Open`, and its
    /// ranked subtree (the element's encoded content) is still entirely
    /// ahead — the precondition for
    /// [`DtdStreamEncoder::skip_open_element`].
    pub fn just_opened_element(&self) -> bool {
        !self.done
            && self.elems.last().is_some_and(|e| {
                (e.model.as_ref()).map_or(true, |model| model.is_fresh(&self.frames))
            })
    }

    /// Fast-forward bookkeeping for a skipped element subtree: the caller
    /// has fast-forwarded the raw tokenizer past the element's end tag,
    /// so its content is dropped *unvalidated* (the tokenizer still
    /// enforced well-formedness) and the parent derivation advances as if
    /// the element's end tag had been fed.
    ///
    /// Precondition: [`DtdStreamEncoder::just_opened_element`].
    pub fn skip_open_element(&mut self, out: &mut VecDeque<TreeEvent>) {
        debug_assert!(self.just_opened_element());
        self.elems.pop().expect("skipped element frame");
        self.child_done(out);
    }

    /// The top element's child completed: advance the parent derivation,
    /// or end the document after the root.
    fn child_done(&mut self, out: &mut VecDeque<TreeEvent>) {
        match self.elems.last_mut() {
            Some(parent) => parent
                .model
                .as_mut()
                .expect("an element child implies a content model")
                .child_done(&mut self.frames, &self.models, out),
            None => self.done = true,
        }
    }

    fn open_element(
        &mut self,
        label: &str,
        out: &mut VecDeque<TreeEvent>,
    ) -> Result<(), EncodeError> {
        let Some(&(sym, root)) = self.models.content.get(label) else {
            return Err(EncodeError::NotValid(format!(
                "undeclared element <{label}>"
            )));
        };
        out.push_back(TreeEvent::Open(sym));
        let model = root.map(|root| ModelParse::new(root, &self.frames));
        self.elems.push(ElemFrame { label: sym, model });
        self.note_peak();
        Ok(())
    }

    /// Feeds one SAX event, appending the ranked events it determines.
    pub fn feed(
        &mut self,
        event: &XmlEvent<'_>,
        out: &mut VecDeque<TreeEvent>,
    ) -> Result<(), EncodeError> {
        if self.done {
            return Err(EncodeError::Malformed(
                "XML event after the document closed".into(),
            ));
        }
        let style = self.enc.style();
        let hash = self.hash;
        match event {
            XmlEvent::Start { name: label, .. } => {
                if !self.started {
                    self.started = true;
                    if *label != self.enc.dtd().root() {
                        return Err(EncodeError::NotValid(format!(
                            "root is <{label}>, expected <{}>",
                            self.enc.dtd().root()
                        )));
                    }
                    return self.open_element(label, out);
                }
                let model = top_model(&mut self.elems)?;
                let consumed = model.consume(
                    &mut self.frames,
                    &self.models,
                    Look::Elem(label),
                    style,
                    hash,
                    out,
                )?;
                debug_assert!(matches!(consumed, Some(Consumed::Element)));
                self.note_peak();
                self.open_element(label, out)?;
            }
            XmlEvent::Text(text) => {
                let model = top_model(&mut self.elems)?;
                let consumed =
                    model.consume(&mut self.frames, &self.models, Look::Text, style, hash, out)?;
                debug_assert!(matches!(consumed, Some(Consumed::Text)));
                let sym = (self.models.text_symbol(text))
                    .ok_or_else(|| EncodeError::UnknownText(text.to_string()))?;
                out.push_back(TreeEvent::Open(sym));
                out.push_back(TreeEvent::Close);
                model.child_done(&mut self.frames, &self.models, out);
                self.note_peak();
            }
            XmlEvent::End(_) => {
                let mut top = self.elems.pop().expect("tokenizer balances events");
                if let Some(model) = top.model.as_mut() {
                    let end = model
                        .consume(&mut self.frames, &self.models, Look::End, style, hash, out)
                        .map_err(|e| annotate_elem(e, top.label.name()))?;
                    debug_assert!(end.is_none());
                    debug_assert_eq!(
                        self.frames.len(),
                        model.base,
                        "completed derivation holds no frames"
                    );
                }
                out.push_back(TreeEvent::Close);
                self.child_done(out);
            }
        }
        Ok(())
    }
}

/// The derivation of the innermost open element, which a child token is
/// about to advance.
fn top_model(elems: &mut [ElemFrame]) -> Result<&mut ModelParse, EncodeError> {
    let top = elems.last_mut().expect("tokenizer balances events");
    let label = top.label;
    top.model.as_mut().ok_or_else(|| {
        EncodeError::NotValid(format!("<{}> is EMPTY but has children", label.name()))
    })
}

/// Prefixes an end-of-children diagnostic with the element it occurred in.
fn annotate_elem(e: EncodeError, label: &str) -> EncodeError {
    match e {
        EncodeError::NotValid(m) => EncodeError::NotValid(format!("in <{label}>: {m}")),
        other => other,
    }
}

/// One open node of the incremental DTD decoder.
enum DFrame {
    Elem {
        label: Symbol,
        head_open: bool,
    },
    /// A sibling-group symbol or `#`: structure only, nothing written.
    Structure,
    /// A pcdata constant (text already written); children are rejected.
    Leaf,
}

/// Incremental DTD-encoding → XML writer; feed it the pre-order events
/// of an encoded tree, then [`DtdXmlWriter::finish`]. Each event's XML
/// text is appended to the caller's buffer. Symbols are
/// classified against the encoding (elements / pcdata constants / `#` /
/// sibling groups); unknown symbols and text in element position are
/// rejected. Content models are *not* re-validated — that is the batch
/// decoder's job ([`Encoding::decode`]); transducer outputs over the
/// encoding's alphabet decode identically through both.
pub struct DtdXmlWriter {
    enc: Arc<Encoding>,
    hash: Symbol,
    stack: Vec<DFrame>,
    done: bool,
}

impl DtdXmlWriter {
    pub fn new(enc: Arc<Encoding>) -> DtdXmlWriter {
        let hash = enc.hash_symbol();
        DtdXmlWriter {
            enc,
            hash,
            stack: Vec::new(),
            done: false,
        }
    }

    /// Feeds one event of the encoded tree, appending the XML text it
    /// commits to `out`.
    pub fn feed(&mut self, event: TreeEvent, out: &mut String) -> Result<(), EncodeError> {
        if self.done {
            return Err(EncodeError::Malformed(
                "events after the encoded document closed".into(),
            ));
        }
        match event {
            TreeEvent::Open(sym) => self.open(sym, out),
            TreeEvent::Close => self.close(out),
        }
    }

    fn close_head(&mut self, out: &mut String) {
        for frame in self.stack.iter_mut().rev() {
            match frame {
                DFrame::Structure => continue,
                DFrame::Elem { head_open, .. } => {
                    if *head_open {
                        out.push('>');
                        *head_open = false;
                    }
                    return;
                }
                DFrame::Leaf => return,
            }
        }
    }

    fn open(&mut self, sym: Symbol, out: &mut String) -> Result<(), EncodeError> {
        if matches!(self.stack.last(), Some(DFrame::Leaf)) {
            return Err(EncodeError::Malformed(format!(
                "{} node has children",
                sym.name()
            )));
        }
        let name = sym.name();
        if self.enc.dtd().content(name).is_some() {
            if !is_xml_name(name) {
                return Err(EncodeError::Malformed(format!(
                    "element symbol {name} is not an XML name"
                )));
            }
            self.close_head(out);
            out.push('<');
            out.push_str(name);
            self.stack.push(DFrame::Elem {
                label: sym,
                head_open: true,
            });
            return Ok(());
        }
        if sym == self.hash {
            self.stack.push(DFrame::Structure);
            return Ok(());
        }
        if let Some(value) = self.enc.mode().value_of(name) {
            self.close_head(out);
            escape_text(value, out);
            self.stack.push(DFrame::Leaf);
            return Ok(());
        }
        if self.enc.group_expr(name).is_some() {
            self.stack.push(DFrame::Structure);
            return Ok(());
        }
        Err(EncodeError::Malformed(format!(
            "unknown symbol {name} in the encoded tree"
        )))
    }

    fn close(&mut self, out: &mut String) -> Result<(), EncodeError> {
        let frame = self
            .stack
            .pop()
            .ok_or_else(|| EncodeError::Malformed("unbalanced close event".into()))?;
        if let DFrame::Elem { label, head_open } = frame {
            if head_open {
                out.push_str("/>");
            } else {
                out.push_str("</");
                out.push_str(label.name());
                out.push('>');
            }
        }
        if self.stack.is_empty() {
            self.done = true;
        }
        Ok(())
    }

    /// Checks that the events fed so far form one whole encoded
    /// document (its text is complete once this holds).
    pub fn finish(&self) -> Result<(), EncodeError> {
        if !self.done || !self.stack.is_empty() {
            return Err(EncodeError::Malformed(
                "encoded event stream ended early".into(),
            ));
        }
        Ok(())
    }
}
