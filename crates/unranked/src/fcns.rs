//! Streaming first-child/next-sibling encoding and decoding.
//!
//! The batch pipeline (`xtt_xml::fcns_encode`) builds the whole `UTree`,
//! then the whole ranked tree, before the first event reaches the engine.
//! [`FcnsStreamEncoder`] instead maps SAX events straight to the ranked
//! pre-order events of the fc/ns encoding with **O(depth)** live state:
//! one counter per open XML element.
//!
//! The inversion that makes this nontrivial: under fc/ns the *next
//! sibling* of a node is nested inside it (`fcns(f(w), rest) = f(fcns(w),
//! fcns(rest))`), so an element's `Close` event is emitted only when its
//! whole sibling tail has been emitted — the encoder tracks, per open XML
//! element, how many of its children's ranked `Open`s are still awaiting
//! their cascaded `Close`.
//!
//! [`FcnsXmlWriter`] is the inverse: it consumes the pre-order events of
//! an fc/ns-encoded tree (a materialized output tree, or a prefix as it
//! is produced) and writes XML text incrementally, again in O(depth).

use std::collections::VecDeque;

use xtt_trees::{Symbol, TreeEvent};
use xtt_xml::{escape_text, is_xml_name, EncodeError, XmlEvent};

/// The text symbol of the fc/ns encoding (`xtt_xml::fcns::PCDATA`).
const PCDATA: &str = "pcdata";

/// Incremental fc/ns encoder; feed it [`XmlEvent`]s, it emits the ranked
/// [`TreeEvent`]s of `fcns_encode(doc)` in order.
pub struct FcnsStreamEncoder {
    /// `Some(sentinel)` = bounded mode: element names are resolved with
    /// [`Symbol::lookup`] and unknown names map to the sentinel, so
    /// untrusted documents never grow the process-global interner.
    sentinel: Option<Symbol>,
    hash: Symbol,
    pcdata: Symbol,
    /// Per open XML element: ranked `Open`s emitted for its children that
    /// are still awaiting their cascaded `Close`.
    open_children: Vec<u32>,
    done: bool,
    peak: usize,
}

impl FcnsStreamEncoder {
    /// Trusted-input encoder: element names are interned faithfully.
    pub fn new() -> FcnsStreamEncoder {
        FcnsStreamEncoder::with_sentinel(None)
    }

    /// Bounded encoder for untrusted traffic: names never seen by any
    /// transducer alphabet resolve to `sentinel` instead of growing the
    /// interner (evaluation is unaffected — an out-of-vocabulary symbol
    /// has no rules either way).
    pub fn with_sentinel(sentinel: Option<Symbol>) -> FcnsStreamEncoder {
        FcnsStreamEncoder {
            sentinel,
            hash: Symbol::new("#"),
            pcdata: Symbol::new(PCDATA),
            open_children: Vec::new(),
            done: false,
            peak: 0,
        }
    }

    fn resolve(&self, name: &str) -> Symbol {
        match self.sentinel {
            None => Symbol::new(name),
            Some(s) => Symbol::lookup(name).unwrap_or(s),
        }
    }

    /// Live encoder frames (one per open XML element) — the O(depth)
    /// claim, measured by experiment E12.
    pub fn live_frames(&self) -> usize {
        self.open_children.len()
    }

    /// High-water mark of [`FcnsStreamEncoder::live_frames`].
    pub fn peak_frames(&self) -> usize {
        self.peak
    }

    /// The document's encoding is complete (root closed).
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// True right after an element's `Start` was fed and nothing else:
    /// the last ranked event emitted was that element's `Open`, and its
    /// fc/ns subtree (content *and* sibling tail) is still entirely ahead
    /// — the precondition for [`FcnsStreamEncoder::skip_open_element`].
    pub fn just_opened_element(&self) -> bool {
        !self.done && self.open_children.last() == Some(&0)
    }

    /// Fast-forward bookkeeping for a skipped fc/ns subtree. Under fc/ns
    /// a node's *next sibling* is nested inside it, so the ranked subtree
    /// of a just-opened element `e` covers `e`'s content **and** its
    /// entire following sibling forest, ending at the cascaded `Close`
    /// emitted when `e`'s parent's end tag arrives. The caller has
    /// fast-forwarded the raw tokenizer accordingly (past `e`'s end tag,
    /// every following sibling, and the parent's end tag — or just past
    /// `e`'s end tag when `e` is the root); this drops the frames those
    /// events would have popped and queues whatever follows the skipped
    /// subtree (the root trailer, when the parent was the root).
    ///
    /// Precondition: [`FcnsStreamEncoder::just_opened_element`].
    pub fn skip_open_element(&mut self, out: &mut VecDeque<TreeEvent>) {
        debug_assert!(self.just_opened_element());
        self.open_children.pop().expect("skipped element frame");
        match self.open_children.pop() {
            None => {
                // The skipped element was the root: its ranked subtree is
                // the whole remainder of the stream.
                self.done = true;
            }
            Some(parent_count) => {
                // The parent's frame is consumed with its end tag; the
                // parent's own ranked `Close` cascades at *its* parent's
                // end tag and is already counted there. The skipped
                // element's *preceding* siblings, however, are ranked
                // ancestors of the skipped subtree (the sibling slot
                // nests), so their cascaded `Close`s — emitted at the
                // parent's end tag — fall outside it and are still due.
                for _ in 0..parent_count - 1 {
                    out.push_back(TreeEvent::Close);
                }
                if self.open_children.is_empty() {
                    // The parent was the root: the events after the
                    // skipped subtree are the root trailer.
                    out.push_back(TreeEvent::Open(self.hash));
                    out.push_back(TreeEvent::Close);
                    out.push_back(TreeEvent::Close);
                    self.done = true;
                }
            }
        }
    }

    /// Feeds one SAX event, appending the ranked events it determines.
    /// The tokenizer guarantees well-nested input; `Err` is only possible
    /// on misuse (events after the root closed).
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
        match event {
            XmlEvent::Start { name, .. } => {
                out.push_back(TreeEvent::Open(self.resolve(name)));
                if let Some(parent) = self.open_children.last_mut() {
                    *parent += 1;
                }
                self.open_children.push(0);
                self.peak = self.peak.max(self.open_children.len());
            }
            XmlEvent::Text(_) => {
                // One text node = one `pcdata` leaf in the first-child
                // slot position; its own first-child slot is `#` now, its
                // sibling slot cascades like an element's.
                out.push_back(TreeEvent::Open(self.pcdata));
                out.push_back(TreeEvent::Open(self.hash));
                out.push_back(TreeEvent::Close);
                if let Some(parent) = self.open_children.last_mut() {
                    *parent += 1;
                }
            }
            XmlEvent::End(_) => {
                let opens = self
                    .open_children
                    .pop()
                    .expect("tokenizer balances start/end");
                // Terminator of this element's child forest (its
                // first-child slot when it has no children, the sibling
                // slot of its last child otherwise) …
                out.push_back(TreeEvent::Open(self.hash));
                out.push_back(TreeEvent::Close);
                // … then the cascaded closes of every child still open.
                for _ in 0..opens {
                    out.push_back(TreeEvent::Close);
                }
                if self.open_children.is_empty() {
                    // Document root: its sibling forest is empty.
                    out.push_back(TreeEvent::Open(self.hash));
                    out.push_back(TreeEvent::Close);
                    out.push_back(TreeEvent::Close);
                    self.done = true;
                }
            }
        }
        Ok(())
    }
}

impl Default for FcnsStreamEncoder {
    fn default() -> FcnsStreamEncoder {
        FcnsStreamEncoder::new()
    }
}

/// One open node of the incremental fc/ns decoder.
enum WFrame {
    /// An element: `slot` is 0 while its content forest is in flight, 1
    /// while its sibling forest is; `head_open` until the start tag's `>`
    /// (or `/>`) is decided.
    Elem {
        label: Symbol,
        slot: u8,
        head_open: bool,
    },
    /// A `pcdata` node (text already written).
    Pcdata { slot: u8 },
    /// A `#` leaf.
    Hash,
}

/// Incremental fc/ns → XML writer; feed it the pre-order events of an
/// fc/ns-encoded tree, then [`FcnsXmlWriter::finish`]. Each event's XML
/// text is appended to the caller's buffer; the concatenated text is
/// byte-identical to `write_xml(fcns_decode(t))`. The writer rejects
/// trees that are not fc/ns encodings (non-binary nodes, `#` with
/// children, forests of more than one document).
pub struct FcnsXmlWriter {
    stack: Vec<WFrame>,
    hash: Symbol,
    pcdata: Symbol,
    done: bool,
}

impl FcnsXmlWriter {
    pub fn new() -> FcnsXmlWriter {
        FcnsXmlWriter {
            stack: Vec::new(),
            hash: Symbol::new("#"),
            pcdata: Symbol::new(PCDATA),
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

    fn open(&mut self, sym: Symbol, out: &mut String) -> Result<(), EncodeError> {
        let is_hash = sym == self.hash;
        // Validate the position this node occupies.
        match self.stack.last() {
            None if is_hash => {
                return Err(EncodeError::Malformed(
                    "top level decodes to 0 trees, expected 1".into(),
                ));
            }
            None => {}
            Some(WFrame::Hash) => {
                return Err(EncodeError::Malformed("# with children".into()));
            }
            Some(WFrame::Pcdata { slot: 0 }) if !is_hash => {
                return Err(EncodeError::Malformed("text node with children".into()));
            }
            Some(WFrame::Elem { slot: 2, .. }) | Some(WFrame::Pcdata { slot: 2 }) => {
                return Err(EncodeError::Malformed(format!(
                    "fc/ns node {sym} exceeds rank 2"
                )));
            }
            _ => {}
        }
        // A second top-level tree: the root's sibling slot must be `#`.
        if self.stack.len() == 1 && !is_hash {
            if let Some(WFrame::Elem { slot: 1, .. } | WFrame::Pcdata { slot: 1 }) =
                self.stack.last()
            {
                return Err(EncodeError::Malformed(
                    "top level decodes to more than one tree".into(),
                ));
            }
        }
        if is_hash {
            self.stack.push(WFrame::Hash);
            return Ok(());
        }
        // Content is about to appear: finish the enclosing start tag.
        if let Some(WFrame::Elem {
            slot: 0, head_open, ..
        }) = self.stack.last_mut()
        {
            if *head_open {
                out.push('>');
                *head_open = false;
            }
        }
        if sym == self.pcdata {
            escape_text(PCDATA, out);
            self.stack.push(WFrame::Pcdata { slot: 0 });
        } else {
            let name = sym.name();
            if !is_xml_name(name) {
                return Err(EncodeError::Malformed(format!(
                    "symbol {name} is not an XML element name"
                )));
            }
            out.push('<');
            out.push_str(name);
            self.stack.push(WFrame::Elem {
                label: sym,
                slot: 0,
                head_open: true,
            });
        }
        Ok(())
    }

    fn close(&mut self, out: &mut String) -> Result<(), EncodeError> {
        let frame = self
            .stack
            .pop()
            .ok_or_else(|| EncodeError::Malformed("unbalanced close event".into()))?;
        match frame {
            WFrame::Hash => {}
            WFrame::Elem { slot, .. } | WFrame::Pcdata { slot } => {
                if slot != 2 {
                    return Err(EncodeError::Malformed(format!(
                        "fc/ns node closed with {slot} of 2 subtrees"
                    )));
                }
            }
        }
        // The completed subtree fills its parent's next slot.
        match self.stack.last_mut() {
            None => self.done = true,
            Some(WFrame::Elem {
                label,
                slot,
                head_open,
            }) => {
                if *slot == 0 {
                    // Content forest complete: the end tag goes *before*
                    // the sibling forest (which is XML-level sibling
                    // text, not nested content).
                    if *head_open {
                        out.push_str("/>");
                        *head_open = false;
                    } else {
                        out.push_str("</");
                        out.push_str(label.name());
                        out.push('>');
                    }
                }
                *slot += 1;
            }
            Some(WFrame::Pcdata { slot }) => *slot += 1,
            Some(WFrame::Hash) => unreachable!("# children are rejected at open"),
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

impl Default for FcnsXmlWriter {
    fn default() -> FcnsXmlWriter {
        FcnsXmlWriter::new()
    }
}
