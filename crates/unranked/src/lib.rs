//! # xtt-unranked
//!
//! The streaming unranked-XML pipeline: Section 10's ranked encodings
//! driven **incrementally** from the SAX tokenizer, with no intermediate
//! trees on either side.
//!
//! The batch pipeline materializes three representations of every
//! document — XML text → [`xtt_xml::UTree`] → ranked
//! [`xtt_trees::Tree`] → events — before the streaming engine sees the
//! first event, which makes "streaming" a fiction on real XML. This
//! crate replaces the middle with two O(depth) state machines per
//! encoding:
//!
//! * **encode** — [`FcnsStreamEncoder`] / [`DtdStreamEncoder`] map
//!   [`xtt_xml::XmlEvent`]s to the pre-order [`xtt_trees::TreeEvent`]s
//!   of the fc/ns or DTD-based encoding, event-for-event identical to
//!   `fcns_encode(doc).events()` / `Encoding::encode(doc).events()`
//!   (pinned by property tests). The DTD encoder runs the content
//!   models' LL(1) derivation with an explicit frame stack; the fc/ns
//!   encoder inverts the next-sibling nesting with one counter per open
//!   element.
//! * **decode** — [`FcnsXmlWriter`] / [`DtdXmlWriter`] consume the
//!   events of an encoded *output* tree (or a prefix of them, for
//!   order-preserving rule regions whose output is determined early) and
//!   write unranked XML text incrementally.
//! * **[`XmlCodec`]** bundles a direction pair (fc/ns, or an
//!   input/output DTD-encoding pair) behind one handle; `xtt-engine`'s
//!   `DocFormat::Encoded` and `xtt-serve`'s `?encoding=` are built on
//!   it, and [`UnrankedEvents`] is the adaptor the streaming evaluator
//!   (and its lockstep domain guard) consume directly.

pub mod codec;
pub mod dtd;
pub mod error;
pub mod fcns;

pub use codec::{UnrankedEvents, XmlCodec, XmlWriter};
pub use dtd::{DtdStreamEncoder, DtdXmlWriter};
pub use error::UnrankedError;
pub use fcns::{FcnsStreamEncoder, FcnsXmlWriter};

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use xtt_trees::{Symbol, Tree, TreeEvent};
    use xtt_xml::{fcns_encode, parse_xml, write_xml, Dtd, Encoding, EncodingStyle, PcDataMode};

    use super::*;

    fn stream_events(codec: &XmlCodec, xml: &str) -> Vec<TreeEvent> {
        codec
            .events(xml)
            .collect::<Result<Vec<_>, _>>()
            .unwrap_or_else(|e| panic!("streaming encode of {xml}: {e}"))
    }

    #[test]
    fn fcns_streaming_matches_batch_on_the_paper_example() {
        let xml = "<root><a/><a/><b/></root>";
        let codec = XmlCodec::fcns();
        let batch: Vec<TreeEvent> = fcns_encode(&parse_xml(xml).unwrap()).events().collect();
        assert_eq!(stream_events(&codec, xml), batch);
        assert_eq!(
            codec.ranked_tree(xml).unwrap().to_string(),
            "root(a(#,a(#,b(#,#))),#)"
        );
    }

    #[test]
    fn fcns_streaming_handles_text_and_nesting() {
        for xml in [
            "<t>hello</t>",
            "<root/>",
            "<x><y><z/></y><y/>tail</x>",
            "<a><b><c><d/></c></b></a>",
        ] {
            let codec = XmlCodec::fcns();
            let batch: Vec<TreeEvent> = fcns_encode(&parse_xml(xml).unwrap()).events().collect();
            assert_eq!(stream_events(&codec, xml), batch, "{xml}");
        }
    }

    #[test]
    fn fcns_encoder_is_o_depth() {
        // Wide document: 1000 siblings, depth 2 — the encoder must not
        // hold per-sibling state.
        let xml = format!("<root>{}</root>", "<a/>".repeat(1000));
        let mut it = XmlCodec::fcns().events(&xml);
        (&mut it).for_each(|r| {
            r.unwrap();
        });
        assert_eq!(it.peak_frames(), 2);
    }

    #[test]
    fn fcns_bounded_mode_never_interns_document_names() {
        let sentinel = Symbol::new("\u{1}test:unknown");
        let xml = "<root><fcns-never-interned-xyz/></root>";
        let codec = XmlCodec::fcns_bounded(sentinel);
        let t = codec.ranked_tree(xml).unwrap();
        assert_eq!(Symbol::lookup("fcns-never-interned-xyz"), None);
        assert!(t.preorder().any(|n| n.symbol() == sentinel));
    }

    #[test]
    fn fcns_writer_inverts_the_encoding() {
        for xml in [
            "<root><a/><a/><b/></root>",
            "<root/>",
            "<x><y><z/></y><y/></x>",
        ] {
            let codec = XmlCodec::fcns();
            let t = codec.ranked_tree(xml).unwrap();
            assert_eq!(codec.decode_tree(&t).unwrap(), xml, "{xml}");
        }
        // Text decodes to the pcdata abstraction, like fcns_decode.
        let codec = XmlCodec::fcns();
        let t = codec.ranked_tree("<t>hello</t>").unwrap();
        assert_eq!(codec.decode_tree(&t).unwrap(), "<t>pcdata</t>");
    }

    #[test]
    fn fcns_writer_rejects_junk() {
        let codec = XmlCodec::fcns();
        for bad in ["#(a(#,#),#)", "a(#)", "a(#,#,#)", "root(#,a(#,#))"] {
            let t = xtt_trees::parse_tree(bad).unwrap();
            assert!(codec.decode_tree(&t).is_err(), "{bad}");
        }
    }

    fn flip_encoding(style: EncodingStyle) -> Arc<Encoding> {
        let dtd = Dtd::parse("<!ELEMENT root (a*,b*) >\n<!ELEMENT a EMPTY >\n<!ELEMENT b EMPTY >")
            .unwrap();
        Arc::new(Encoding::with_style(dtd, PcDataMode::Abstract, style))
    }

    #[test]
    fn dtd_streaming_matches_batch_on_the_paper_example() {
        for style in [EncodingStyle::Paper, EncodingStyle::PathClosed] {
            let enc = flip_encoding(style);
            let codec = XmlCodec::dtd(Arc::clone(&enc));
            for xml in [
                "<root><a/><a/><b/></root>",
                "<root/>",
                "<root><b/></root>",
                "<root><a/><b/><b/><b/></root>",
            ] {
                let batch = enc.encode(&parse_xml(xml).unwrap()).unwrap();
                let batch_events: Vec<TreeEvent> = batch.events().collect();
                assert_eq!(
                    stream_events(&codec, xml),
                    batch_events,
                    "{xml} ({style:?})"
                );
                assert_eq!(codec.ranked_tree(xml).unwrap(), batch, "{xml} ({style:?})");
            }
        }
    }

    #[test]
    fn dtd_streaming_rejects_invalid_documents_like_batch() {
        let enc = flip_encoding(EncodingStyle::Paper);
        let codec = XmlCodec::dtd(Arc::clone(&enc));
        for xml in [
            "<root><b/><a/></root>",    // b before a violates (a*,b*)
            "<root><c/></root>",        // undeclared element
            "<other/>",                 // wrong root
            "<root><a><a/></a></root>", // a is EMPTY
            "<root>text</root>",        // no #PCDATA in the model
        ] {
            let doc = parse_xml(xml).unwrap();
            assert!(enc.encode(&doc).is_err(), "batch must reject {xml}");
            let streamed: Result<Vec<_>, _> = codec.events(xml).collect();
            assert!(streamed.is_err(), "streaming must reject {xml}");
        }
    }

    #[test]
    fn dtd_writer_inverts_the_encoding() {
        let enc = flip_encoding(EncodingStyle::Paper);
        let codec = XmlCodec::dtd(Arc::clone(&enc));
        for xml in [
            "<root><a/><a/><b/></root>",
            "<root/>",
            "<root><b/><b/></root>",
        ] {
            let t = codec.ranked_tree(xml).unwrap();
            assert_eq!(codec.decode_tree(&t).unwrap(), xml, "{xml}");
        }
    }

    #[test]
    fn dtd_library_with_valued_text_roundtrips() {
        let dtd = Dtd::parse(
            "<!ELEMENT LIBRARY (BOOK*) >\n\
             <!ELEMENT BOOK ((AUTHOR, TITLE, YEAR?) | TITLE) >\n\
             <!ELEMENT AUTHOR #PCDATA >\n\
             <!ELEMENT TITLE #PCDATA >\n\
             <!ELEMENT YEAR #PCDATA >",
        )
        .unwrap();
        let enc = Arc::new(Encoding::new(
            dtd,
            PcDataMode::Valued(vec!["dune".into(), "herbert".into(), "1965".into()]),
        ));
        let codec = XmlCodec::dtd(Arc::clone(&enc));
        let xml = "<LIBRARY><BOOK><AUTHOR>herbert</AUTHOR><TITLE>dune</TITLE>\
                   <YEAR>1965</YEAR></BOOK><BOOK><TITLE>dune</TITLE></BOOK></LIBRARY>";
        let doc = parse_xml(xml).unwrap();
        let batch = enc.encode(&doc).unwrap();
        assert_eq!(codec.ranked_tree(xml).unwrap(), batch);
        assert_eq!(parse_xml(&codec.decode_tree(&batch).unwrap()).unwrap(), doc);
        // A value outside the universe fails in both pipelines.
        let bad = "<LIBRARY><BOOK><TITLE>unknown-title</TITLE></BOOK></LIBRARY>";
        assert!(enc.encode(&parse_xml(bad).unwrap()).is_err());
        assert!(codec.ranked_tree(bad).is_err());
    }

    #[test]
    fn dtd_encoder_is_o_depth_on_recursive_models() {
        let dtd = Dtd::parse("<!ELEMENT n (n?) >").unwrap();
        let enc = Arc::new(Encoding::new(dtd, PcDataMode::Abstract));
        let depth = 500;
        let xml = format!("{}{}", "<n>".repeat(depth), "</n>".repeat(depth));
        let codec = XmlCodec::dtd(Arc::clone(&enc));
        let mut it = codec.events(&xml);
        (&mut it).for_each(|r| {
            r.unwrap();
        });
        // One element frame + one content frame per level, nothing more.
        assert!(it.peak_frames() <= 2 * depth + 2, "{}", it.peak_frames());
        // Wide documents stay shallow.
        let dtd = Dtd::parse("<!ELEMENT root (a*) >\n<!ELEMENT a EMPTY >").unwrap();
        let enc = Arc::new(Encoding::new(dtd, PcDataMode::Abstract));
        let xml = format!("<root>{}</root>", "<a/>".repeat(1000));
        let codec = XmlCodec::dtd(enc);
        let mut it = codec.events(&xml);
        (&mut it).for_each(|r| {
            r.unwrap();
        });
        assert!(it.peak_frames() <= 4, "{}", it.peak_frames());
    }

    #[test]
    fn writer_accepts_event_prefixes_incrementally() {
        // The writer is usable on prefixes: feed events one at a time and
        // observe no buffering requirement (no Err until a real error).
        let codec = XmlCodec::fcns();
        let t = codec.ranked_tree("<root><a/><b/></root>").unwrap();
        let mut w = codec.writer();
        let events: Vec<TreeEvent> = t.events().collect();
        for ev in &events[..events.len() - 1] {
            w.feed(*ev).unwrap();
        }
        // Unfinished prefix: finish() reports the stream ended early.
        assert!(w.finish().is_err());
        let mut w = codec.writer();
        for ev in events {
            w.feed(ev).unwrap();
        }
        assert_eq!(w.finish().unwrap(), "<root><a/><b/></root>");
    }

    #[test]
    fn malformed_xml_surfaces_as_a_tokenizer_error() {
        let codec = XmlCodec::fcns();
        let result: Result<Vec<_>, _> = codec.events("<root><a></root>").collect();
        assert!(matches!(result, Err(UnrankedError::Xml(_))));
        // Iterator is fused after the error.
        let mut it = codec.events("<root><a></root>");
        while let Some(Ok(_)) = it.next() {}
        assert!(it.next().is_none());
    }

    #[test]
    fn wide_star_lists_match_batch_exactly() {
        // Cons-cell cascades: a long a-list closes all at once at the
        // first b; pin the whole event stream against batch.
        let enc = flip_encoding(EncodingStyle::Paper);
        let codec = XmlCodec::dtd(Arc::clone(&enc));
        let xml = format!("<root>{}{}</root>", "<a/>".repeat(40), "<b/>".repeat(17));
        let batch: Vec<TreeEvent> = enc
            .encode(&parse_xml(&xml).unwrap())
            .unwrap()
            .events()
            .collect();
        assert_eq!(stream_events(&codec, &xml), batch);
    }

    #[test]
    fn decode_tree_matches_write_xml_of_batch_decode() {
        let enc = flip_encoding(EncodingStyle::Paper);
        let codec = XmlCodec::dtd(Arc::clone(&enc));
        let xml = "<root><a/><b/><b/></root>";
        let t: Tree = codec.ranked_tree(xml).unwrap();
        let batch = write_xml(&enc.decode(&t).unwrap());
        assert_eq!(codec.decode_tree(&t).unwrap(), batch);
    }
}
