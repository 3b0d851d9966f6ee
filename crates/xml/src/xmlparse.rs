//! XML reading and writing.
//!
//! The core is [`XmlEventReader`], a pull-based SAX-style tokenizer that
//! yields [`XmlEvent`]s; [`parse_xml`] builds an [`UTree`] on top of it and
//! the streaming engine (`xtt-engine`) consumes the events directly. Built
//! by hand: the workspace policy is to implement substrates rather than
//! pull dependencies.
//!
//! The hot scan is block-wise ([`crate::scan`]): structural bytes (`<`,
//! `&`, quotes, comment/CDATA anchors) are located 16 bytes per iteration
//! (SSE2, with a portable SWAR fallback) instead of the historical
//! byte-at-a-time loop, and events are **zero-copy** — tag names are
//! borrowed `&str` slices of the input buffer, character data is a
//! [`Cow`] that only allocates when a run contains entity references or
//! merges CDATA sections.
//!
//! Two modes:
//!
//! * **lenient** (default) — accepts and skips XML comments, processing
//!   instructions, and DOCTYPE declarations, parses attributes and
//!   namespace declarations for real (surfaced on [`XmlEvent::Start`] and
//!   the reader's prefix stack), and merges CDATA sections into the
//!   surrounding character data, so real-world documents reach the
//!   engine;
//! * **strict** ([`XmlOptions::strict`]) — the paper's minimal subset:
//!   elements and text only (plus an optional leading `<?xml …?>` prolog);
//!   anything else is a hard [`XmlError`].
//!
//! Character data follows XML well-formedness: the five predefined
//! entities and numeric character references (`&#65;`, `&#x416;`) decode
//! to their characters in a single left-to-right pass (decoded output is
//! never re-scanned), and an unknown entity or bare `&` is a positioned
//! error in **both** modes unless
//! [`XmlOptions::allow_unknown_entities`] opts out. Adjacent text and
//! CDATA runs coalesce into one [`XmlEvent::Text`]: the merged run is
//! whitespace-trimmed at its edges only, so interior whitespace —
//! including around CDATA boundaries — survives.

use std::borrow::Cow;
use std::fmt;

use crate::scan;
use crate::utree::UTree;

/// XML syntax error with byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XmlError {
    pub offset: usize,
    pub message: String,
}

impl fmt::Display for XmlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "XML error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for XmlError {}

/// Parsing options; see the module docs for the two modes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct XmlOptions {
    /// Reject comments, processing instructions, DOCTYPE, CDATA, and
    /// attributes instead of skipping them.
    pub strict: bool,
    /// Lenient-mode opt-out from entity well-formedness: unknown entity
    /// references (`&bogus;`) and bare `&` pass through as literal text
    /// instead of raising a positioned [`XmlError`]. The five predefined
    /// entities and numeric character references still decode.
    pub allow_unknown_entities: bool,
    /// Surface attributes when building trees: [`parse_xml_with`] maps a
    /// start tag's attributes to an `@attrs` first child whose children
    /// are one `@name` element per attribute holding the (unescaped)
    /// value as text. Off by default — the paper's data-centric trees
    /// carry no attributes.
    pub keep_attributes: bool,
    /// Force the byte-at-a-time reference scanner instead of the
    /// block-wise SSE2/SWAR scan — the scalar baseline of experiment E15
    /// and the differential proptests. Event streams are identical in
    /// both modes by construction (and pinned by tests).
    pub scalar_scan: bool,
}

impl XmlOptions {
    /// The paper's minimal element/text subset.
    pub fn strict() -> XmlOptions {
        XmlOptions {
            strict: true,
            ..XmlOptions::default()
        }
    }
}

/// One `name="value"` attribute of a start tag. The name is a borrowed
/// slice of the input; the value is unescaped (entities and numeric
/// character references decoded), borrowing when no reference occurs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Attr<'a> {
    /// The qualified name as written (`href`, `xlink:href`, `xmlns:svg`).
    pub name: &'a str,
    /// The unescaped value (empty for HTML-style bare attributes).
    pub value: Cow<'a, str>,
}

impl Attr<'_> {
    /// The namespace prefix, if the name is prefixed (`xlink:href` →
    /// `xlink`).
    pub fn prefix(&self) -> Option<&str> {
        split_qname(self.name).0
    }

    /// The local part of the name (`xlink:href` → `href`).
    pub fn local_name(&self) -> &str {
        split_qname(self.name).1
    }
}

/// Splits a qualified name at its first `:` into `(prefix, local)`.
pub fn split_qname(name: &str) -> (Option<&str>, &str) {
    match name.split_once(':') {
        Some((prefix, local)) if !prefix.is_empty() && !local.is_empty() => (Some(prefix), local),
        _ => (None, name),
    }
}

/// A SAX-style parse event borrowing from the input buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum XmlEvent<'a> {
    /// `<name …>` — element start with its parsed attributes.
    Start { name: &'a str, attrs: Vec<Attr<'a>> },
    /// One coalesced character-data run (text and CDATA sections merged),
    /// entity references decoded, trimmed at the run's edges only; never
    /// whitespace-only. Borrowed unless decoding or merging forced an
    /// allocation.
    Text(Cow<'a, str>),
    /// `</name>` or the implicit close of `<name/>`.
    End(&'a str),
}

impl<'a> XmlEvent<'a> {
    /// An attribute-less start event (test and fixture convenience).
    pub fn start(name: &'a str) -> XmlEvent<'a> {
        XmlEvent::Start {
            name,
            attrs: Vec::new(),
        }
    }

    /// The element name of a `Start`/`End` event.
    pub fn name(&self) -> Option<&'a str> {
        match self {
            XmlEvent::Start { name, .. } => Some(name),
            XmlEvent::End(name) => Some(name),
            XmlEvent::Text(_) => None,
        }
    }
}

/// An in-scope namespace binding (kept on the reader's O(depth) stack).
struct NsBinding<'a> {
    /// `open.len()` of the element that declared it — bindings pop with
    /// their element.
    depth: usize,
    /// The bound prefix (`""` for the default namespace).
    prefix: &'a str,
    uri: Cow<'a, str>,
}

/// Pull parser over a complete input buffer, yielding one event per call.
///
/// The iterator ends (`None`) after the root element closes and only
/// ignorable trailing content remains; every malformation is reported as a
/// single `Err`, after which the iterator is fused.
pub struct XmlEventReader<'a> {
    src: &'a str,
    input: &'a [u8],
    pos: usize,
    opts: XmlOptions,
    /// Names of currently open elements (borrowed start-tag slices).
    open: Vec<&'a str>,
    /// In-scope namespace declarations, innermost last.
    ns: Vec<NsBinding<'a>>,
    /// Queued implicit close for self-closing tags (`Start` then `End`).
    pending_end: Option<&'a str>,
    started: bool,
    finished: bool,
}

/// Lenient event stream over `input` (see [`XmlOptions`]).
pub fn xml_events(input: &str) -> XmlEventReader<'_> {
    xml_events_with(input, XmlOptions::default())
}

/// Event stream with explicit options.
pub fn xml_events_with(input: &str, opts: XmlOptions) -> XmlEventReader<'_> {
    XmlEventReader {
        src: input,
        input: input.as_bytes(),
        pos: 0,
        opts,
        open: Vec::new(),
        ns: Vec::new(),
        pending_end: None,
        started: false,
        finished: false,
    }
}

/// What a `<`-initiated piece of non-element markup amounted to.
enum Markup {
    /// An element tag after all — the caller parses it.
    Element,
    /// Comment / PI / DOCTYPE: skipped, keep scanning.
    Skipped,
    /// A `<![CDATA[` opener, **not consumed** — character-data gathering
    /// merges it, the skip fast path discards it, the top level rejects
    /// it.
    Cdata,
    /// A syntax error.
    Error(XmlError),
}

impl<'a> XmlEventReader<'a> {
    /// Records a syntax error and fuses the iterator.
    fn fail(&mut self, message: impl Into<String>) -> XmlError {
        self.finished = true;
        XmlError {
            offset: self.pos,
            message: message.into(),
        }
    }

    fn err<T>(&mut self, message: impl Into<String>) -> Option<Result<T, XmlError>> {
        Some(Err(self.fail(message)))
    }

    /// Next occurrence of `n` at or after `from` (block-wise scan unless
    /// the scalar baseline is forced).
    #[inline]
    fn scan1(&self, n: u8, from: usize) -> usize {
        if self.opts.scalar_scan {
            scan::memchr_scalar(n, self.input, from)
        } else {
            scan::memchr(n, self.input, from)
        }
    }

    /// Next occurrence of `a` or `b` at or after `from`.
    #[inline]
    fn scan2(&self, a: u8, b: u8, from: usize) -> usize {
        if self.opts.scalar_scan {
            scan::memchr2_scalar(a, b, self.input, from)
        } else {
            scan::memchr2(a, b, self.input, from)
        }
    }

    fn skip_ws(&mut self) {
        while self.pos < self.input.len() && self.input[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn starts_with(&self, prefix: &[u8]) -> bool {
        self.input[self.pos..].starts_with(prefix)
    }

    /// Advances past `terminator`, returning the bytes before it.
    fn skip_until(&mut self, terminator: &[u8]) -> Option<(usize, usize)> {
        let start = self.pos;
        let mut i = self.scan1(terminator[0], self.pos);
        while i < self.input.len() {
            if self.input[i..].starts_with(terminator) {
                self.pos = i + terminator.len();
                return Some((start, i));
            }
            i = self.scan1(terminator[0], i + 1);
        }
        self.pos = self.input.len();
        None
    }

    /// Parses a name as a borrowed slice (names are ASCII in this
    /// subset, so no UTF-8 revalidation is needed).
    fn name(&mut self) -> Result<&'a str, XmlError> {
        let start = self.pos;
        while let Some(&c) = self.input.get(self.pos) {
            if c.is_ascii_alphanumeric() || matches!(c, b'_' | b'-' | b'.' | b':') {
                self.pos += 1;
            } else {
                break;
            }
        }
        if start == self.pos {
            return Err(XmlError {
                offset: self.pos,
                message: "expected a name".into(),
            });
        }
        Ok(&self.src[start..self.pos])
    }

    /// Unescapes a raw slice, fusing the reader on a malformed reference.
    fn unescape_or_fuse(&mut self, raw: &'a str, base: usize) -> Result<Cow<'a, str>, XmlError> {
        match unescape(raw, base, self.opts) {
            Ok(text) => Ok(text),
            Err(e) => {
                self.finished = true;
                Err(e)
            }
        }
    }

    /// Parses the attribute list of a start tag up to `/>` or `>`. With
    /// `collect`, values are unescaped and namespace declarations pushed;
    /// without (the subtree-skip fast path), the tag is only validated —
    /// quote-aware, no decoding, no allocation.
    fn attributes(&mut self, collect: bool) -> Result<Vec<Attr<'a>>, XmlError> {
        let mut attrs = Vec::new();
        let depth = self.open.len() + 1;
        loop {
            self.skip_ws();
            match self.input.get(self.pos) {
                None => return Err(self.fail("unterminated start tag")),
                Some(b'>') | Some(b'/') => return Ok(attrs),
                Some(_) if self.opts.strict => {
                    return Err(self.fail("attributes are not allowed in strict mode"))
                }
                Some(_) => {
                    let name = match self.name() {
                        Ok(n) => n,
                        Err(_) => return Err(self.fail("malformed attribute name")),
                    };
                    self.skip_ws();
                    if self.input.get(self.pos) != Some(&b'=') {
                        // Bare attribute (HTML-style); tolerate as empty.
                        if collect {
                            attrs.push(Attr {
                                name,
                                value: Cow::Borrowed(""),
                            });
                        }
                        continue;
                    }
                    self.pos += 1;
                    self.skip_ws();
                    let q = match self.input.get(self.pos) {
                        Some(&q @ (b'"' | b'\'')) => q,
                        _ => return Err(self.fail("expected a quoted attribute value")),
                    };
                    self.pos += 1;
                    let vstart = self.pos;
                    let vend = self.scan1(q, vstart);
                    if vend >= self.input.len() {
                        self.pos = vend;
                        return Err(self.fail("unterminated attribute value"));
                    }
                    self.pos = vend + 1;
                    if collect {
                        let value = self.unescape_or_fuse(&self.src[vstart..vend], vstart)?;
                        if name == "xmlns" {
                            self.ns.push(NsBinding {
                                depth,
                                prefix: "",
                                uri: value.clone(),
                            });
                        } else if let Some(prefix) = name.strip_prefix("xmlns:") {
                            self.ns.push(NsBinding {
                                depth,
                                prefix,
                                uri: value.clone(),
                            });
                        }
                        attrs.push(Attr { name, value });
                    }
                }
            }
        }
    }

    /// Pops namespace bindings scoped to elements no longer open.
    fn drop_ns_bindings(&mut self) {
        while self.ns.last().is_some_and(|b| b.depth > self.open.len()) {
            self.ns.pop();
        }
    }

    /// Resolves a namespace prefix against the in-scope declarations
    /// (`""` for the default namespace). Follows literal scoping: an
    /// inner re-declaration shadows, and `xmlns=""` resolves to `Some("")`
    /// (an explicit un-declaration).
    pub fn resolve_prefix(&self, prefix: &str) -> Option<&str> {
        self.ns
            .iter()
            .rev()
            .find(|b| b.prefix == prefix)
            .map(|b| b.uri.as_ref())
    }

    /// Skips `<!DOCTYPE …>` including an internal subset in brackets.
    /// Quoted strings are opaque: a `]` or `>` inside `"…"`/`'…'` (e.g.
    /// `<!ENTITY e "a>b">`) neither closes the declaration nor changes
    /// the bracket depth.
    fn skip_doctype(&mut self) -> Result<(), XmlError> {
        let mut brackets = 0usize;
        let mut quote: Option<u8> = None;
        while let Some(&c) = self.input.get(self.pos) {
            self.pos += 1;
            match quote {
                Some(q) => {
                    if c == q {
                        quote = None;
                    }
                }
                None => match c {
                    b'"' | b'\'' => quote = Some(c),
                    b'[' => brackets += 1,
                    b']' => brackets = brackets.saturating_sub(1),
                    b'>' if brackets == 0 => return Ok(()),
                    _ => {}
                },
            }
        }
        Err(self.fail("unterminated DOCTYPE declaration"))
    }

    /// Classifies markup starting with `<` that is not an element tag,
    /// consuming comments, PIs, and DOCTYPE declarations.
    fn markup(&mut self) -> Markup {
        if self.starts_with(b"<!--") {
            if self.opts.strict {
                return Markup::Error(self.fail("comments are not allowed in strict mode"));
            }
            self.pos += 4;
            if self.skip_until(b"-->").is_none() {
                return Markup::Error(self.fail("unterminated comment"));
            }
            return Markup::Skipped;
        }
        if self.starts_with(b"<![CDATA[") {
            return Markup::Cdata;
        }
        if self.starts_with(b"<!") {
            if self.opts.strict {
                return Markup::Error(
                    self.fail("DOCTYPE/markup declarations are not allowed in strict mode"),
                );
            }
            self.pos += 2;
            return match self.skip_doctype() {
                Ok(()) => Markup::Skipped,
                Err(e) => Markup::Error(e),
            };
        }
        if self.starts_with(b"<?") {
            // Strict mode admits only the leading `<?xml …?>` prolog.
            let is_prolog = !self.started && self.open.is_empty();
            if self.opts.strict && !(is_prolog && self.starts_with(b"<?xml")) {
                return Markup::Error(
                    self.fail("processing instructions are not allowed in strict mode"),
                );
            }
            self.pos += 2;
            if self.skip_until(b"?>").is_none() {
                return Markup::Error(self.fail("unterminated processing instruction"));
            }
            return Markup::Skipped;
        }
        Markup::Element
    }

    /// Gathers the maximal character-data run starting at the current
    /// position: text segments (entity-decoded) and CDATA sections
    /// (literal) are concatenated, and the merged run is trimmed at its
    /// edges only. Leaves the position at the `<` of the next non-CDATA
    /// markup (or at input end). `Ok(None)` = the run was empty or
    /// whitespace-only.
    fn char_data(&mut self) -> Result<Option<XmlEvent<'a>>, XmlError> {
        let len = self.input.len();
        // `head` is the first decoded segment (zero-copy in the common
        // single-segment case); `tail` accumulates merged continuations.
        let mut head: Option<Cow<'a, str>> = None;
        let mut tail: Option<String> = None;
        loop {
            let seg_start = self.pos;
            let mut probe = self.scan2(b'<', b'&', seg_start);
            let has_ref = probe < len && self.input[probe] == b'&';
            if has_ref {
                probe = self.scan1(b'<', probe + 1);
            }
            self.pos = probe;
            if probe > seg_start {
                let raw = &self.src[seg_start..probe];
                let decoded = if has_ref {
                    self.unescape_or_fuse(raw, seg_start)?
                } else {
                    Cow::Borrowed(raw)
                };
                match &mut tail {
                    Some(t) => t.push_str(&decoded),
                    None => match &head {
                        None => head = Some(decoded),
                        Some(_) => tail = Some(decoded.into_owned()),
                    },
                }
            }
            if self.pos >= len || !self.starts_with(b"<![CDATA[") {
                break;
            }
            if self.opts.strict {
                return Err(self.fail("CDATA is not allowed in strict mode"));
            }
            self.pos += 9;
            let Some((s, e)) = self.skip_until(b"]]>") else {
                return Err(self.fail("unterminated CDATA section"));
            };
            let cdata = &self.src[s..e];
            if !cdata.is_empty() {
                match &mut tail {
                    Some(t) => t.push_str(cdata),
                    None => match &head {
                        None => head = Some(Cow::Borrowed(cdata)),
                        Some(_) => tail = Some(cdata.to_owned()),
                    },
                }
            }
        }
        Ok(finish_run(head, tail))
    }

    /// Byte position of the reader (diagnostics and fast-forward tests).
    pub fn byte_pos(&self) -> usize {
        self.pos
    }

    /// Depth of currently open elements (the root counts as 1).
    pub fn open_depth(&self) -> usize {
        self.open.len()
    }

    /// Fast-forwards past the subtree of the most recently returned
    /// [`XmlEvent::Start`]: raw input is consumed up to and including the
    /// matching end tag without decoding character data and without
    /// yielding any events. This is how a streaming consumer that knows a
    /// subtree is *deleted* (e.g. the engine's domain guard in a `∅`-skip
    /// state) avoids tokenizing it.
    ///
    /// Structural well-formedness is still enforced — mismatched or
    /// unterminated tags, comments, CDATA, PIs, and unquoted attributes
    /// inside the skipped region fail exactly as they would during
    /// normal reading — but character data is not decoded (no
    /// unescaping, trimming, or coalescing) and attribute values are
    /// only delimited, never unescaped. This is unobservable for
    /// accepted inputs: the input is `&str`, and text runs are delimited
    /// by ASCII markup bytes, so the decoding the skip omits cannot fail
    /// structurally — though a malformed entity reference a full read
    /// would reject is sailed past (the subtree is deleted; nothing
    /// downstream can observe it).
    pub fn skip_subtree(&mut self) -> Result<(), XmlError> {
        if self.finished {
            return Err(self.fail("skip_subtree on a finished reader"));
        }
        // Self-closing element: its Start was returned, its End is queued.
        if self.pending_end.take().is_some() {
            self.open.pop();
            self.drop_ns_bindings();
            return Ok(());
        }
        let target = self.open.len();
        if target == 0 {
            return Err(self.fail("skip_subtree with no open element"));
        }
        while self.open.len() >= target {
            // Raw scan to the next markup; text is not decoded.
            self.pos = self.scan1(b'<', self.pos);
            if self.pos >= self.input.len() {
                let label = self.open.last().copied().unwrap_or_default().to_owned();
                return Err(self.fail(format!("unterminated element <{label}>")));
            }
            match self.markup() {
                Markup::Error(e) => return Err(e),
                Markup::Skipped => continue,
                Markup::Cdata => {
                    // CDATA content inside a skipped subtree is discarded.
                    if self.opts.strict {
                        return Err(self.fail("CDATA is not allowed in strict mode"));
                    }
                    self.pos += 9;
                    if self.skip_until(b"]]>").is_none() {
                        return Err(self.fail("unterminated CDATA section"));
                    }
                    continue;
                }
                Markup::Element => {}
            }
            self.pos += 1; // consume '<'
            if self.input.get(self.pos) == Some(&b'/') {
                self.pos += 1;
                let close = match self.name() {
                    Ok(n) => n,
                    Err(e) => return Err(self.fail(e.message)),
                };
                self.skip_ws();
                if self.input.get(self.pos) != Some(&b'>') {
                    return Err(self.fail("expected '>' in end tag"));
                }
                self.pos += 1;
                match self.open.last() {
                    Some(label) if *label == close => {
                        self.open.pop();
                        self.drop_ns_bindings();
                    }
                    Some(label) => {
                        let label = (*label).to_owned();
                        return Err(
                            self.fail(format!("mismatched </{close}>, expected </{label}>"))
                        );
                    }
                    None => unreachable!("loop guard keeps open non-empty"),
                }
                continue;
            }
            let label = match self.name() {
                Ok(n) => n,
                Err(e) => return Err(self.fail(e.message)),
            };
            self.attributes(false)?;
            if self.input.get(self.pos) == Some(&b'/') {
                self.pos += 1;
                if self.input.get(self.pos) != Some(&b'>') {
                    return Err(self.fail("expected '>' after '/'"));
                }
                self.pos += 1;
                // Self-closing inside the skipped region: nothing opens.
            } else if self.input.get(self.pos) == Some(&b'>') {
                self.pos += 1;
                self.open.push(label);
            } else {
                return Err(self.fail("expected '>' in start tag"));
            }
        }
        Ok(())
    }
}

/// Assembles the coalesced run: trims at the merged edges only, drops
/// whitespace-only runs, and keeps the single-segment case zero-copy.
fn finish_run<'a>(head: Option<Cow<'a, str>>, tail: Option<String>) -> Option<XmlEvent<'a>> {
    let merged = match (head, tail) {
        (None, _) => return None,
        (Some(one), None) => one,
        (Some(head), Some(tail)) => {
            let mut s = head.into_owned();
            s.push_str(&tail);
            Cow::Owned(s)
        }
    };
    let trimmed = match merged {
        Cow::Borrowed(s) => Cow::Borrowed(s.trim()),
        Cow::Owned(s) => {
            let t = s.trim();
            if t.len() == s.len() {
                Cow::Owned(s)
            } else {
                Cow::Owned(t.to_owned())
            }
        }
    };
    if trimmed.is_empty() {
        None
    } else {
        Some(XmlEvent::Text(trimmed))
    }
}

impl<'a> Iterator for XmlEventReader<'a> {
    type Item = Result<XmlEvent<'a>, XmlError>;

    fn next(&mut self) -> Option<Result<XmlEvent<'a>, XmlError>> {
        if self.finished {
            return None;
        }
        if let Some(name) = self.pending_end.take() {
            self.open.pop();
            self.drop_ns_bindings();
            return Some(Ok(XmlEvent::End(name)));
        }
        loop {
            if self.open.is_empty() {
                // Outside the root: only ignorable content is allowed.
                self.skip_ws();
                if self.pos >= self.input.len() {
                    self.finished = true;
                    if !self.started {
                        self.pos = 0;
                        return self.err("expected a root element");
                    }
                    return None;
                }
                if self.input[self.pos] != b'<' {
                    return self.err(if self.started {
                        "trailing content after the root element"
                    } else {
                        "text outside the root element"
                    });
                }
                if self.started && !self.starts_with(b"<!--") && !self.starts_with(b"<?") {
                    return self.err("trailing content after the root element");
                }
            } else {
                // Inside an element: gather the character-data run.
                match self.char_data() {
                    Err(e) => return Some(Err(e)),
                    Ok(Some(event)) => return Some(Ok(event)),
                    Ok(None) => {}
                }
                if self.pos >= self.input.len() {
                    let label = self.open.last().copied().unwrap_or_default().to_owned();
                    return self.err(format!("unterminated element <{label}>"));
                }
            }

            // At '<': comment / DOCTYPE / PI, or an element tag.
            match self.markup() {
                Markup::Error(e) => return Some(Err(e)),
                Markup::Skipped => continue,
                Markup::Cdata => {
                    // `char_data` consumes CDATA inside elements, so this
                    // position is outside the root.
                    return self.err(if self.opts.strict {
                        "CDATA is not allowed in strict mode"
                    } else {
                        "CDATA outside the root element"
                    });
                }
                Markup::Element => {}
            }
            self.pos += 1; // consume '<'
            if self.input.get(self.pos) == Some(&b'/') {
                self.pos += 1;
                let close = match self.name() {
                    Ok(n) => n,
                    Err(e) => return self.err(e.message),
                };
                self.skip_ws();
                if self.input.get(self.pos) != Some(&b'>') {
                    return self.err("expected '>' in end tag");
                }
                self.pos += 1;
                match self.open.last() {
                    Some(label) if *label == close => {
                        self.open.pop();
                        self.drop_ns_bindings();
                        return Some(Ok(XmlEvent::End(close)));
                    }
                    Some(label) => {
                        let label = (*label).to_owned();
                        return self.err(format!("mismatched </{close}>, expected </{label}>"));
                    }
                    None => {
                        return self.err(format!("close tag </{close}> without an open element"))
                    }
                }
            }
            // Start tag.
            let name = match self.name() {
                Ok(n) => n,
                Err(e) => return self.err(e.message),
            };
            let attrs = match self.attributes(true) {
                Ok(attrs) => attrs,
                Err(e) => return Some(Err(e)),
            };
            self.started = true;
            if self.input.get(self.pos) == Some(&b'/') {
                self.pos += 1;
                if self.input.get(self.pos) != Some(&b'>') {
                    return self.err("expected '>' after '/'");
                }
                self.pos += 1;
                // Self-closing: Start now, End queued. `open` tracks the
                // element until the queued End is delivered.
                self.open.push(name);
                self.pending_end = Some(name);
                return Some(Ok(XmlEvent::Start { name, attrs }));
            }
            if self.input.get(self.pos) != Some(&b'>') {
                return self.err("expected '>' in start tag");
            }
            self.pos += 1;
            self.open.push(name);
            return Some(Ok(XmlEvent::Start { name, attrs }));
        }
    }
}

/// Decodes entity and numeric character references in a single
/// left-to-right pass; the decoded output is never re-scanned, so
/// `&amp;lt;` yields the literal text `&lt;`. Borrows when the slice
/// contains no `&`. Errors are positioned at the offending `&` (relative
/// to `base`, the slice's offset in the document); with
/// [`XmlOptions::allow_unknown_entities`] an undecodable reference
/// passes through literally instead.
fn unescape<'s>(s: &'s str, base: usize, opts: XmlOptions) -> Result<Cow<'s, str>, XmlError> {
    let bytes = s.as_bytes();
    let find = if opts.scalar_scan {
        scan::memchr_scalar
    } else {
        scan::memchr
    };
    let mut i = find(b'&', bytes, 0);
    if i >= bytes.len() {
        return Ok(Cow::Borrowed(s));
    }
    let mut out = String::with_capacity(s.len());
    out.push_str(&s[..i]);
    while i < bytes.len() {
        debug_assert_eq!(bytes[i], b'&');
        match entity(&s[i..]) {
            Ok((c, used)) => {
                out.push(c);
                i += used;
            }
            Err(message) => {
                if opts.allow_unknown_entities {
                    out.push('&');
                    i += 1;
                } else {
                    return Err(XmlError {
                        offset: base + i,
                        message,
                    });
                }
            }
        }
        let next = find(b'&', bytes, i);
        out.push_str(&s[i..next]);
        i = next;
    }
    Ok(Cow::Owned(out))
}

/// Decodes the reference at the start of `s` (`s[0] == '&'`), returning
/// the character and the bytes consumed.
fn entity(s: &str) -> Result<(char, usize), String> {
    // References are short; cap the `;` search so a bare `&` deep inside
    // a long run never scans far.
    let window = s.len().min(32);
    let semi = scan::memchr_scalar(b';', &s.as_bytes()[..window], 1);
    if semi >= window {
        return Err("bare '&' in character data (escape it as &amp;)".into());
    }
    let body = &s[1..semi];
    let used = semi + 1;
    let c = match body {
        "lt" => '<',
        "gt" => '>',
        "amp" => '&',
        "apos" => '\'',
        "quot" => '"',
        _ => {
            if let Some(num) = body.strip_prefix('#') {
                let (digits, radix) = match num.strip_prefix(['x', 'X']) {
                    Some(hex) => (hex, 16),
                    None => (num, 10),
                };
                let code = (!digits.is_empty())
                    .then(|| u32::from_str_radix(digits, radix).ok())
                    .flatten();
                match code.and_then(char::from_u32) {
                    Some(c) if c != '\0' => c,
                    _ => return Err(format!("invalid numeric character reference '&{body};'")),
                }
            } else if !body.is_empty()
                && body
                    .bytes()
                    .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'-' | b'.'))
            {
                return Err(format!("unknown entity reference '&{body};'"));
            } else {
                return Err("bare '&' in character data (escape it as &amp;)".into());
            }
        }
    };
    Ok((c, used))
}

/// Escapes `&`, `<`, `>` for text content; borrows when nothing needs
/// escaping.
fn escape(s: &str) -> Cow<'_, str> {
    if !s.bytes().any(|b| matches!(b, b'&' | b'<' | b'>')) {
        return Cow::Borrowed(s);
    }
    let mut out = String::with_capacity(s.len() + 8);
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            _ => out.push(c),
        }
    }
    Cow::Owned(out)
}

/// Parses a document (a single root element) leniently: comments,
/// processing instructions, and DOCTYPE are skipped, attributes are
/// parsed (and dropped unless [`XmlOptions::keep_attributes`]), CDATA is
/// read as text. Use [`parse_xml_strict`] for the paper's minimal subset.
pub fn parse_xml(input: &str) -> Result<UTree, XmlError> {
    parse_xml_with(input, XmlOptions::default())
}

/// Parses in strict mode: elements and text only (plus an optional leading
/// `<?xml …?>` prolog); comments, PIs, DOCTYPE, CDATA, and attributes are
/// syntax errors.
pub fn parse_xml_strict(input: &str) -> Result<UTree, XmlError> {
    parse_xml_with(input, XmlOptions::strict())
}

/// Parses with explicit options, building the tree from the event stream.
/// With [`XmlOptions::keep_attributes`], a start tag's attributes become
/// an `@attrs` first child: one `@name` element per attribute, holding
/// the unescaped value as a text child (empty values stay childless).
pub fn parse_xml_with(input: &str, opts: XmlOptions) -> Result<UTree, XmlError> {
    let mut stack: Vec<(String, Vec<UTree>)> = Vec::new();
    let mut root: Option<UTree> = None;
    for event in xml_events_with(input, opts) {
        match event? {
            XmlEvent::Start { name, attrs } => {
                let mut children = Vec::new();
                if opts.keep_attributes && !attrs.is_empty() {
                    children.push(attrs_subtree(&attrs));
                }
                stack.push((name.to_owned(), children));
            }
            XmlEvent::Text(text) => {
                if let Some((_, children)) = stack.last_mut() {
                    children.push(UTree::Text(text.into_owned()));
                }
            }
            XmlEvent::End(_) => {
                let (label, children) = stack.pop().expect("reader balances events");
                let elem = UTree::Elem { label, children };
                match stack.last_mut() {
                    Some((_, siblings)) => siblings.push(elem),
                    None => root = Some(elem),
                }
            }
        }
    }
    root.ok_or(XmlError {
        offset: input.len(),
        message: "document has no root element".into(),
    })
}

/// The `@attrs` child materialized by [`XmlOptions::keep_attributes`].
fn attrs_subtree(attrs: &[Attr<'_>]) -> UTree {
    UTree::Elem {
        label: "@attrs".to_owned(),
        children: attrs
            .iter()
            .map(|a| UTree::Elem {
                label: format!("@{}", a.name),
                children: if a.value.is_empty() {
                    Vec::new()
                } else {
                    vec![UTree::Text(a.value.clone().into_owned())]
                },
            })
            .collect(),
    }
}

/// Writes a tree as XML text (self-closing tags for empty elements).
pub fn write_xml(t: &UTree) -> String {
    let mut out = String::new();
    write_node(t, &mut out);
    out
}

/// Writes a tree as XML text with two-space indentation.
pub fn write_xml_pretty(t: &UTree) -> String {
    let mut out = String::new();
    write_pretty(t, 0, &mut out);
    out
}

fn write_node(t: &UTree, out: &mut String) {
    match t {
        UTree::Text(s) => out.push_str(&escape(s)),
        UTree::Elem { label, children } => {
            if children.is_empty() {
                out.push_str(&format!("<{label}/>"));
            } else {
                out.push_str(&format!("<{label}>"));
                for c in children {
                    write_node(c, out);
                }
                out.push_str(&format!("</{label}>"));
            }
        }
    }
}

fn write_pretty(t: &UTree, indent: usize, out: &mut String) {
    let pad = "  ".repeat(indent);
    match t {
        UTree::Text(s) => {
            out.push_str(&pad);
            out.push_str(&escape(s));
            out.push('\n');
        }
        UTree::Elem { label, children } => {
            if children.is_empty() {
                out.push_str(&format!("{pad}<{label}/>\n"));
            } else if children.len() == 1 && children[0].is_text() {
                if let UTree::Text(s) = &children[0] {
                    out.push_str(&format!("{pad}<{label}>{}</{label}>\n", escape(s)));
                }
            } else {
                out.push_str(&format!("{pad}<{label}>\n"));
                for c in children {
                    write_pretty(c, indent + 1, out);
                }
                out.push_str(&format!("{pad}</{label}>\n"));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn start(name: &str) -> XmlEvent<'_> {
        XmlEvent::start(name)
    }

    fn text(s: &str) -> XmlEvent<'_> {
        XmlEvent::Text(Cow::Borrowed(s))
    }

    fn end(name: &str) -> XmlEvent<'_> {
        XmlEvent::End(name)
    }

    fn events(doc: &str) -> Vec<XmlEvent<'_>> {
        xml_events(doc).collect::<Result<_, _>>().unwrap()
    }

    #[test]
    fn parses_nested_elements() {
        let t = parse_xml("<root><a/><a/><b/></root>").unwrap();
        assert_eq!(t.to_string(), "root(a,a,b)");
    }

    #[test]
    fn parses_text_content() {
        let t = parse_xml("<BOOK><AUTHOR>Herbert</AUTHOR><TITLE>Dune</TITLE></BOOK>").unwrap();
        assert_eq!(t.to_string(), "BOOK(AUTHOR(\"Herbert\"),TITLE(\"Dune\"))");
    }

    #[test]
    fn roundtrip() {
        let doc = "<L><B><A>x</A><T>y</T></B><B><A>z</A><T>w</T></B></L>";
        let t = parse_xml(doc).unwrap();
        assert_eq!(write_xml(&t), doc);
        assert_eq!(parse_xml(&write_xml(&t)).unwrap(), t);
    }

    #[test]
    fn tolerates_prolog_and_whitespace() {
        let t = parse_xml("  <?xml version=\"1.0\"?>\n <root>\n  <a/>\n </root>\n").unwrap();
        assert_eq!(t.to_string(), "root(a)");
        let t = parse_xml_strict("  <?xml version=\"1.0\"?>\n <root>\n  <a/>\n </root>\n").unwrap();
        assert_eq!(t.to_string(), "root(a)");
    }

    #[test]
    fn escaping_roundtrips() {
        let t = UTree::elem("x", vec![UTree::text("a<b&c>d")]);
        let xml = write_xml(&t);
        assert_eq!(parse_xml(&xml).unwrap(), t);
    }

    #[test]
    fn rejects_malformed() {
        for parse in [parse_xml, parse_xml_strict] {
            assert!(parse("<a><b></a></b>").is_err());
            assert!(parse("<a>").is_err());
            assert!(parse("<a/><b/>").is_err());
            assert!(parse("plain text").is_err());
            assert!(parse("").is_err());
            assert!(parse("</a>").is_err());
        }
    }

    #[test]
    fn pretty_printer_is_reparsable() {
        let t = parse_xml("<L><B><T>x</T></B><B/></L>").unwrap();
        let pretty = write_xml_pretty(&t);
        assert_eq!(parse_xml(&pretty).unwrap(), t);
    }

    #[test]
    fn lenient_skips_comments_pis_doctype() {
        let doc = "<?xml version=\"1.0\"?>\n\
                   <!DOCTYPE root [ <!ELEMENT root (a*)> ]>\n\
                   <!-- a catalog -->\n\
                   <root id=\"r1\" class='x'>\n\
                     <?target data?>\n\
                     <a href=\"https://example.invalid\" disabled/>\n\
                     <!-- trailing --><a/>\n\
                   </root>\n\
                   <!-- after -->";
        let t = parse_xml(doc).unwrap();
        assert_eq!(t.to_string(), "root(a,a)");
    }

    #[test]
    fn strict_rejects_real_world_markup() {
        assert!(parse_xml_strict("<root><!-- c --></root>").is_err());
        assert!(parse_xml_strict("<root><?pi?></root>").is_err());
        assert!(parse_xml_strict("<root id=\"1\"/>").is_err());
        assert!(parse_xml_strict("<!DOCTYPE root><root/>").is_err());
        assert!(parse_xml_strict("<root><![CDATA[x]]></root>").is_err());
    }

    #[test]
    fn cdata_reads_as_text() {
        let t = parse_xml("<x><![CDATA[a <raw> & b]]></x>").unwrap();
        assert_eq!(t, UTree::elem("x", vec![UTree::text("a <raw> & b")]));
    }

    #[test]
    fn event_stream_shape() {
        assert_eq!(
            events("<r><a/>hi</r>"),
            vec![start("r"), start("a"), end("a"), text("hi"), end("r")]
        );
    }

    #[test]
    fn start_events_carry_attributes() {
        let evs = events("<r a=\"1\" b='two &amp; three' empty/>");
        let XmlEvent::Start { name, attrs } = &evs[0] else {
            panic!("expected a start event");
        };
        assert_eq!(*name, "r");
        assert_eq!(attrs.len(), 3);
        assert_eq!((attrs[0].name, attrs[0].value.as_ref()), ("a", "1"));
        assert!(matches!(attrs[0].value, Cow::Borrowed(_)), "zero-copy");
        assert_eq!(
            (attrs[1].name, attrs[1].value.as_ref()),
            ("b", "two & three")
        );
        assert_eq!((attrs[2].name, attrs[2].value.as_ref()), ("empty", ""));
    }

    #[test]
    fn attribute_values_decode_character_references() {
        let evs = events("<r title=\"&#65;&#x42;&lt;\"/>");
        let XmlEvent::Start { attrs, .. } = &evs[0] else {
            panic!("expected a start event");
        };
        assert_eq!(attrs[0].value.as_ref(), "AB<");
    }

    #[test]
    fn qname_splitting_and_attr_helpers() {
        assert_eq!(split_qname("xlink:href"), (Some("xlink"), "href"));
        assert_eq!(split_qname("plain"), (None, "plain"));
        assert_eq!(split_qname(":odd"), (None, ":odd"));
        let evs = events("<r xlink:href=\"#t\"/>");
        let XmlEvent::Start { attrs, .. } = &evs[0] else {
            panic!("expected a start event");
        };
        assert_eq!(attrs[0].prefix(), Some("xlink"));
        assert_eq!(attrs[0].local_name(), "href");
    }

    #[test]
    fn namespace_prefix_stack_scopes_bindings() {
        let doc = "<r xmlns=\"urn:default\" xmlns:a=\"urn:one\">\
                     <x xmlns:a=\"urn:two\"><y/></x><z/></r>";
        let mut r = xml_events(doc);
        r.next().unwrap().unwrap(); // <r>
        assert_eq!(r.resolve_prefix(""), Some("urn:default"));
        assert_eq!(r.resolve_prefix("a"), Some("urn:one"));
        r.next().unwrap().unwrap(); // <x> shadows a
        assert_eq!(r.resolve_prefix("a"), Some("urn:two"));
        r.next().unwrap().unwrap(); // <y/> Start
        r.next().unwrap().unwrap(); // y End
        r.next().unwrap().unwrap(); // </x> — shadowing binding popped
        assert_eq!(r.resolve_prefix("a"), Some("urn:one"));
        assert_eq!(r.resolve_prefix("b"), None);
    }

    #[test]
    fn numeric_character_references_decode() {
        assert_eq!(
            events("<x>&#65;&#x416;&#X2713;</x>")[1],
            text("AЖ✓"),
            "decimal, hex, and capital-X hex references decode"
        );
    }

    #[test]
    fn decoded_output_is_not_rescanned() {
        // The historical replace-chain turned `&amp;lt;` into `<`; the
        // single pass must yield the literal text `&lt;`.
        assert_eq!(events("<x>&amp;lt;</x>")[1], text("&lt;"));
        assert_eq!(events("<x>&amp;amp;</x>")[1], text("&amp;"));
    }

    #[test]
    fn invalid_numeric_references_error() {
        for doc in [
            "<x>&#;</x>",
            "<x>&#x;</x>",
            "<x>&#xD800;</x>",
            "<x>&#0;</x>",
            "<x>&#1114112;</x>",
            "<x>&#xzz;</x>",
        ] {
            assert!(parse_xml(doc).is_err(), "{doc} must be rejected");
        }
    }

    #[test]
    fn unknown_entities_error_in_both_modes() {
        for doc in ["<x>&nbsp;</x>", "<x>&bogus;</x>", "<x>a & b</x>"] {
            let lenient = parse_xml(doc);
            assert!(lenient.is_err(), "{doc} must be rejected leniently");
            assert!(parse_xml_strict(doc).is_err(), "{doc} strict");
        }
        // The error is positioned at the '&'.
        let err = parse_xml("<x>ab&nope;</x>").unwrap_err();
        assert_eq!(err.offset, 5);
        assert!(err.message.contains("&nope;"), "{}", err.message);
    }

    #[test]
    fn allow_unknown_entities_opts_out() {
        let opts = XmlOptions {
            allow_unknown_entities: true,
            ..XmlOptions::default()
        };
        let t = parse_xml_with("<x>&bogus; &amp; a & b</x>", opts).unwrap();
        assert_eq!(t, UTree::elem("x", vec![UTree::text("&bogus; & a & b")]));
    }

    #[test]
    fn adjacent_text_and_cdata_coalesce() {
        // One logical pcdata node: trimmed at the run's edges only, so
        // the interior whitespace around the CDATA boundary survives.
        assert_eq!(events("<x>a <![CDATA[b]]> c</x>")[1], text("a b c"));
        assert_eq!(
            events("<x> <![CDATA[b]]><![CDATA[c]]>d </x>")[1],
            text("bcd")
        );
        // Entity decoding composes with coalescing.
        assert_eq!(
            events("<x>1 &lt; 2 <![CDATA[& 2 > 1]]>!</x>")[1],
            text("1 < 2 & 2 > 1!")
        );
        // Whitespace-only runs still vanish.
        assert_eq!(
            events("<x> <![CDATA[  ]]> </x>"),
            vec![start("x"), end("x")]
        );
    }

    #[test]
    fn comments_still_split_text_runs() {
        assert_eq!(
            events("<x>a<!-- c -->b</x>"),
            vec![start("x"), text("a"), text("b"), end("x")]
        );
    }

    #[test]
    fn doctype_internal_subset_tracks_quotes() {
        // A quoted '>' must not terminate the declaration …
        let doc = "<!DOCTYPE r [ <!ENTITY e \"a>b\"> ]><r/>";
        assert_eq!(parse_xml(doc).unwrap(), UTree::leaf("r"));
        // … nor a quoted ']' close the internal subset.
        let doc = "<!DOCTYPE r [ <!ENTITY e 'a]b'> <!ELEMENT r EMPTY> ]><r/>";
        assert_eq!(parse_xml(doc).unwrap(), UTree::leaf("r"));
        // An unbalanced quote leaves the declaration unterminated.
        assert!(parse_xml("<!DOCTYPE r [ <!ENTITY e \"a> ]><r/>").is_err());
    }

    #[test]
    fn keep_attributes_materializes_attr_children() {
        let opts = XmlOptions {
            keep_attributes: true,
            ..XmlOptions::default()
        };
        let t = parse_xml_with("<r a=\"1\"><x b='&#50;' c=''/><y/></r>", opts).unwrap();
        assert_eq!(
            t.to_string(),
            "r(@attrs(@a(\"1\")),x(@attrs(@b(\"2\"),@c)),y)"
        );
        // Default: attributes are parsed but not materialized.
        let t = parse_xml("<r a=\"1\"><x b='2'/></r>").unwrap();
        assert_eq!(t.to_string(), "r(x)");
    }

    #[test]
    fn scalar_scan_yields_identical_events() {
        let doc = "<?xml version=\"1.0\"?><!DOCTYPE r [ <!ENTITY x \"]\"> ]>\
                   <r a=\"v&#33;\"><k>t &amp; u <![CDATA[<raw>]]></k><e/></r>";
        let fast: Vec<XmlEvent<'_>> = xml_events(doc).collect::<Result<_, _>>().unwrap();
        let opts = XmlOptions {
            scalar_scan: true,
            ..XmlOptions::default()
        };
        let slow: Vec<XmlEvent<'_>> = xml_events_with(doc, opts)
            .collect::<Result<_, _>>()
            .unwrap();
        assert_eq!(fast, slow);
    }

    #[test]
    fn text_events_borrow_when_clean() {
        let evs = events("<x>plain run with no references</x>");
        match &evs[1] {
            XmlEvent::Text(Cow::Borrowed(s)) => {
                assert_eq!(*s, "plain run with no references")
            }
            other => panic!("expected a borrowed text event, got {other:?}"),
        }
    }

    #[test]
    fn event_reader_is_fused_after_error() {
        let mut r = xml_events("<a><b></a>");
        let mut saw_err = false;
        for ev in &mut r {
            if ev.is_err() {
                saw_err = true;
                break;
            }
        }
        assert!(saw_err);
        assert!(r.next().is_none());
    }

    #[test]
    fn skip_subtree_fast_forwards_without_decoding() {
        let mut r =
            xml_events("<root><junk>text <deep><x/>&bad;</deep><!-- c --></junk><b/></root>");
        assert_eq!(r.next().unwrap().unwrap(), start("root"));
        assert_eq!(r.next().unwrap().unwrap(), start("junk"));
        r.skip_subtree().unwrap();
        // The reader resumes exactly after </junk>.
        assert_eq!(r.next().unwrap().unwrap(), start("b"));
        assert_eq!(r.next().unwrap().unwrap(), end("b"));
        assert_eq!(r.next().unwrap().unwrap(), end("root"));
        assert!(r.next().is_none());
    }

    #[test]
    fn skip_subtree_handles_self_closing_and_root() {
        let mut r = xml_events("<root><a/><b/></root>");
        r.next().unwrap().unwrap(); // <root>
        assert_eq!(r.next().unwrap().unwrap(), start("a"));
        r.skip_subtree().unwrap(); // drops the queued End("a")
        assert_eq!(r.next().unwrap().unwrap(), start("b"));
        r.next().unwrap().unwrap(); // </b>
        assert_eq!(r.next().unwrap().unwrap(), end("root"));
        // Skipping the whole root works too.
        let mut r = xml_events("<root><a>hi</a></root>");
        r.next().unwrap().unwrap();
        r.skip_subtree().unwrap();
        assert!(r.next().is_none());
    }

    #[test]
    fn skip_subtree_still_enforces_structure() {
        let mut r = xml_events("<root><junk><a></b></a></junk></root>");
        r.next().unwrap().unwrap();
        r.next().unwrap().unwrap(); // <junk>
        assert!(r.skip_subtree().is_err(), "mismatched tags must still fail");
        assert!(r.next().is_none(), "reader is fused after a skip error");
        let mut r = xml_events("<root><junk><never-closed></root>");
        r.next().unwrap().unwrap();
        r.next().unwrap().unwrap();
        assert!(r.skip_subtree().is_err());
    }

    #[test]
    fn unterminated_constructs_error() {
        assert!(parse_xml("<a><!-- no end").is_err());
        assert!(parse_xml("<a><?pi no end").is_err());
        assert!(parse_xml("<a><![CDATA[ no end").is_err());
        assert!(parse_xml("<!DOCTYPE a [ <!ELEMENT a> ").is_err());
        assert!(parse_xml("<a b=\"unclosed>").is_err());
    }
}
