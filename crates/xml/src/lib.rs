//! # xtt-xml
//!
//! The XML substrate of the workspace — Section 10 of *"A Learning
//! Algorithm for Top-Down XML Transformations"* (PODS 2010):
//!
//! * [`utree::UTree`] — unranked trees, the natural model of XML;
//! * [`xmlparse`] — a hand-rolled XML reader/writer: a pull-based
//!   SAX-style event tokenizer ([`xmlparse::XmlEventReader`]) yielding
//!   zero-copy events (names and clean text borrow the input buffer),
//!   with real attribute + namespace-prefix parsing in lenient mode and
//!   the paper's minimal strict mode, plus the tree-building
//!   [`parse_xml`] on top;
//! * [`scan`] — the block-wise (SSE2/SWAR) structural-byte scanners the
//!   tokenizer's hot loop runs on, with scalar reference variants;
//! * [`dtd`] — DTDs with 1-unambiguous (deterministic) content models,
//!   including the W3C `<!ELEMENT …>` syntax;
//! * [`encode`] — the paper's DTD-based ranked encoding: group siblings by
//!   the regular subexpressions of the content model, so that dtops can
//!   swap/copy/delete whole groups; includes the path-closure domain
//!   automaton handed to the learner;
//! * [`fcns`] — the classical first-child/next-sibling encoding, kept as
//!   the baseline that *cannot* express `xmlflip` (experiment E3);
//! * [`xslt`] — rendering learned transducers as XSLT-like stylesheets
//!   (one template per rule, modes = states).

pub mod dtd;
pub mod encode;
pub mod fcns;
pub mod infer;
pub mod scan;
pub mod utree;
pub mod xmlflip;
pub mod xmlparse;
pub mod xslt;

pub use dtd::{Content, Dtd, DtdError, Regex, Tok};
pub use encode::{EncodeError, Encoding, EncodingStyle, PcDataMode};
pub use fcns::{fcns_alphabet, fcns_decode, fcns_encode};
pub use infer::{XmlLearnError, XmlLearner, XmlTransformation};
pub use utree::UTree;
pub use xmlparse::{
    escape_attr, escape_text, is_xml_name, parse_xml, parse_xml_strict, parse_xml_with,
    split_qname, write_xml, write_xml_pretty, xml_events, xml_events_with, Attr, XmlError,
    XmlEvent, XmlEventReader, XmlOptions,
};
pub use xslt::to_xslt;
