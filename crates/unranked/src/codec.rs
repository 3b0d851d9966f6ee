//! [`XmlCodec`] — one handle bundling an encoding direction pair (XML →
//! ranked events, ranked tree → XML) for the engine and the server.

use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;

use xtt_trees::{tree_from_events, Symbol, Tree, TreeEvent};
use xtt_xml::{xml_events, Encoding, XmlEventReader};

use crate::dtd::{DtdStreamEncoder, DtdXmlWriter};
use crate::error::UnrankedError;
use crate::fcns::{FcnsStreamEncoder, FcnsXmlWriter};

/// How unranked XML maps to ranked trees and back. Cheap to clone (the
/// DTD variant shares its compiled [`Encoding`]s by `Arc`).
#[derive(Clone)]
pub enum XmlCodec {
    /// The classical first-child/next-sibling encoding. `sentinel`
    /// switches the encoder to bounded symbol resolution (untrusted
    /// traffic never grows the interner).
    Fcns { sentinel: Option<Symbol> },
    /// A DTD-based encoding pair: documents are encoded with `input`,
    /// output trees decoded with `output` (they differ when the
    /// transformation changes the schema, e.g. the paper's `xmlflip`).
    Dtd {
        input: Arc<Encoding>,
        output: Arc<Encoding>,
    },
}

impl fmt::Debug for XmlCodec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            XmlCodec::Fcns { sentinel } => {
                write!(f, "XmlCodec::Fcns {{ bounded: {} }}", sentinel.is_some())
            }
            XmlCodec::Dtd { input, output } => write!(
                f,
                "XmlCodec::Dtd {{ input root: <{}>, output root: <{}> }}",
                input.dtd().root(),
                output.dtd().root()
            ),
        }
    }
}

impl XmlCodec {
    /// fc/ns with faithful symbol interning (trusted input).
    pub fn fcns() -> XmlCodec {
        XmlCodec::Fcns { sentinel: None }
    }

    /// fc/ns with bounded symbol resolution: names never interned before
    /// map to `sentinel` (serving path).
    pub fn fcns_bounded(sentinel: Symbol) -> XmlCodec {
        XmlCodec::Fcns {
            sentinel: Some(sentinel),
        }
    }

    /// A DTD encoding used for both directions.
    pub fn dtd(enc: Arc<Encoding>) -> XmlCodec {
        XmlCodec::Dtd {
            input: Arc::clone(&enc),
            output: enc,
        }
    }

    /// A DTD encoding pair with distinct input and output schemas.
    pub fn dtd_pair(input: Arc<Encoding>, output: Arc<Encoding>) -> XmlCodec {
        XmlCodec::Dtd { input, output }
    }

    /// Short label for diagnostics (`fcns` / the DTD root elements).
    pub fn label(&self) -> String {
        match self {
            XmlCodec::Fcns { .. } => "fcns".to_owned(),
            XmlCodec::Dtd { input, output } => {
                if Arc::ptr_eq(input, output) {
                    format!("dtd:{}", input.dtd().root())
                } else {
                    format!("dtd:{}->{}", input.dtd().root(), output.dtd().root())
                }
            }
        }
    }

    /// Streams a document's ranked encoding straight off the SAX
    /// tokenizer — O(depth) live state, no intermediate trees.
    pub fn events<'a>(&self, xml: &'a str) -> UnrankedEvents<'a> {
        let encoder = match self {
            XmlCodec::Fcns { sentinel } => {
                StreamEncoder::Fcns(FcnsStreamEncoder::with_sentinel(*sentinel))
            }
            XmlCodec::Dtd { input, .. } => {
                StreamEncoder::Dtd(DtdStreamEncoder::new(Arc::clone(input)))
            }
        };
        UnrankedEvents {
            reader: xml_events(xml),
            encoder,
            queue: VecDeque::new(),
            failed: false,
            skippable: false,
            skipped_subtrees: 0,
        }
    }

    /// Materializes the ranked encoding as a tree — the *same* streaming
    /// encoder, collected (what the engine's `tree` mode uses, so both
    /// modes validate documents identically).
    pub fn ranked_tree(&self, xml: &str) -> Result<Tree, UnrankedError> {
        let mut events = Vec::new();
        for ev in self.events(xml) {
            events.push(ev?);
        }
        tree_from_events(events)
            .map_err(|e| UnrankedError::Encode(xtt_xml::EncodeError::Malformed(e.to_string())))
    }

    /// Decodes a ranked output tree back to unranked XML text via the
    /// streaming writer (O(depth) state over the tree's event stream).
    pub fn decode_tree(&self, t: &Tree) -> Result<String, UnrankedError> {
        let mut writer = self.writer();
        for event in t.events() {
            writer.feed(event)?;
        }
        writer.finish()
    }

    /// An incremental decoder for this codec's *output* side; feed it
    /// ranked events (a whole tree's, or a prefix as it is produced).
    pub fn writer(&self) -> XmlWriter {
        match self {
            XmlCodec::Fcns { .. } => XmlWriter::Fcns(FcnsXmlWriter::new()),
            XmlCodec::Dtd { output, .. } => XmlWriter::Dtd(DtdXmlWriter::new(Arc::clone(output))),
        }
    }
}

enum StreamEncoder {
    Fcns(FcnsStreamEncoder),
    Dtd(DtdStreamEncoder),
}

impl StreamEncoder {
    fn feed(
        &mut self,
        event: &xtt_xml::XmlEvent,
        out: &mut VecDeque<TreeEvent>,
    ) -> Result<(), xtt_xml::EncodeError> {
        match self {
            StreamEncoder::Fcns(e) => e.feed(event, out),
            StreamEncoder::Dtd(e) => e.feed(event, out),
        }
    }

    fn live_frames(&self) -> usize {
        match self {
            StreamEncoder::Fcns(e) => e.live_frames(),
            StreamEncoder::Dtd(e) => e.live_frames(),
        }
    }

    fn peak_frames(&self) -> usize {
        match self {
            StreamEncoder::Fcns(e) => e.peak_frames(),
            StreamEncoder::Dtd(e) => e.peak_frames(),
        }
    }

    fn just_opened_element(&self) -> bool {
        match self {
            StreamEncoder::Fcns(e) => e.just_opened_element(),
            StreamEncoder::Dtd(e) => e.just_opened_element(),
        }
    }
}

/// The streaming adaptor: SAX tokenizer → incremental encoder → ranked
/// [`TreeEvent`]s, one well-nested tree per well-formed valid document.
/// Errors are fused: after the first `Err` the iterator ends.
pub struct UnrankedEvents<'a> {
    reader: XmlEventReader<'a>,
    encoder: StreamEncoder,
    queue: VecDeque<TreeEvent>,
    failed: bool,
    /// The event just delivered was an element's ranked `Open`, emitted
    /// directly off its start tag with nothing queued behind it — the
    /// position [`UnrankedEvents::skip_subtree`] can fast-forward from.
    skippable: bool,
    skipped_subtrees: u64,
}

impl UnrankedEvents<'_> {
    /// Live encoder frames right now (O(depth) — one per open element
    /// plus, for DTD encodings, one per open content-model group).
    pub fn live_frames(&self) -> usize {
        self.encoder.live_frames()
    }

    /// High-water mark of [`UnrankedEvents::live_frames`] — the number
    /// experiment E12 reports as *peak live nodes* for the streaming
    /// path (the materializing path's peak is the whole document).
    pub fn peak_frames(&self) -> usize {
        self.encoder.peak_frames()
    }

    /// Subtrees discarded via the raw fast-forward (observability).
    pub fn skipped_subtrees(&self) -> u64 {
        self.skipped_subtrees
    }

    /// Called immediately after [`Iterator::next`] returned an `Open`:
    /// consume the rest of that ranked node's subtree without encoding —
    /// or even tokenizing — it. `Ok(false)` means the position has no
    /// fast path (a `#`/pcdata node, or queued events in flight) and the
    /// caller should consume the events instead.
    ///
    /// Under fc/ns the skipped element's ranked subtree covers its
    /// content *and* its entire following sibling forest (the sibling is
    /// nested inside the node), so the raw reader is fast-forwarded past
    /// every following sibling and the parent's end tag too. Under a DTD
    /// encoding the subtree is the element's encoded content; its
    /// interior is dropped without content-model validation (the
    /// tokenizer still enforces well-formedness).
    pub fn skip_subtree(&mut self) -> Result<bool, UnrankedError> {
        if !self.skippable || self.failed {
            return Ok(false);
        }
        self.skippable = false;
        if let Err(e) = self.skip_subtree_inner() {
            self.failed = true;
            return Err(e);
        }
        self.skipped_subtrees += 1;
        Ok(true)
    }

    fn skip_subtree_inner(&mut self) -> Result<(), UnrankedError> {
        // Past the just-opened element's own end tag first.
        self.reader.skip_subtree().map_err(UnrankedError::Xml)?;
        match &mut self.encoder {
            StreamEncoder::Dtd(e) => e.skip_open_element(&mut self.queue),
            StreamEncoder::Fcns(e) => {
                if e.live_frames() > 1 {
                    // The ranked subtree extends over the sibling tail:
                    // fast-forward every following sibling and consume
                    // the parent's end tag.
                    loop {
                        match self.reader.next() {
                            None => {
                                return Err(UnrankedError::Xml(xtt_xml::XmlError {
                                    offset: 0,
                                    message: "document ended inside a skipped sibling tail".into(),
                                }))
                            }
                            Some(Err(err)) => return Err(UnrankedError::Xml(err)),
                            Some(Ok(xtt_xml::XmlEvent::Start { .. })) => {
                                self.reader.skip_subtree().map_err(UnrankedError::Xml)?;
                            }
                            Some(Ok(xtt_xml::XmlEvent::Text(_))) => {}
                            Some(Ok(xtt_xml::XmlEvent::End(_))) => break,
                        }
                    }
                }
                e.skip_open_element(&mut self.queue);
            }
        }
        Ok(())
    }
}

impl Iterator for UnrankedEvents<'_> {
    type Item = Result<TreeEvent, UnrankedError>;

    fn next(&mut self) -> Option<Result<TreeEvent, UnrankedError>> {
        loop {
            if let Some(ev) = self.queue.pop_front() {
                self.skippable = matches!(ev, TreeEvent::Open(_))
                    && self.queue.is_empty()
                    && self.encoder.just_opened_element();
                return Some(Ok(ev));
            }
            if self.failed {
                return None;
            }
            match self.reader.next()? {
                Err(e) => {
                    self.failed = true;
                    return Some(Err(UnrankedError::Xml(e)));
                }
                Ok(event) => {
                    if let Err(e) = self.encoder.feed(&event, &mut self.queue) {
                        self.failed = true;
                        return Some(Err(UnrankedError::Encode(e)));
                    }
                }
            }
        }
    }
}

/// Incremental ranked-events → XML writer (either encoding).
pub enum XmlWriter {
    Fcns(FcnsXmlWriter),
    Dtd(DtdXmlWriter),
}

impl XmlWriter {
    pub fn feed(&mut self, event: TreeEvent) -> Result<(), UnrankedError> {
        match self {
            XmlWriter::Fcns(w) => w.feed(event).map_err(UnrankedError::Encode),
            XmlWriter::Dtd(w) => w.feed(event).map_err(UnrankedError::Encode),
        }
    }

    /// Drains the XML text produced so far (the committed output
    /// prefix). Concatenating every drain with the remainder returned by
    /// [`XmlWriter::finish`] yields exactly the batch output.
    pub fn pending(&mut self) -> String {
        match self {
            XmlWriter::Fcns(w) => w.pending(),
            XmlWriter::Dtd(w) => w.pending(),
        }
    }

    pub fn finish(self) -> Result<String, UnrankedError> {
        match self {
            XmlWriter::Fcns(w) => w.finish().map_err(UnrankedError::Encode),
            XmlWriter::Dtd(w) => w.finish().map_err(UnrankedError::Encode),
        }
    }
}
