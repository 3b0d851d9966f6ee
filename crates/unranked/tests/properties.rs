//! Property-based tests pinning the streaming pipeline to the batch one:
//!
//! * streaming encode ≡ `Encoding::encode` / `fcns_encode`, **event for
//!   event**, on random documents (both styles, both pcdata modes);
//! * streaming decode ∘ streaming encode ≡ the batch round trip, byte
//!   for byte;
//! * the lockstep domain guard over streaming unranked events consumes
//!   strictly fewer events than the document holds on out-of-domain
//!   documents (fail-fast without tokenizing the tail).

use std::sync::Arc;

use proptest::prelude::*;
use xtt_trees::{RankedAlphabet, TreeEvent};
use xtt_typecheck::domain_guard;
use xtt_unranked::XmlCodec;
use xtt_xml::encode::EncodingStyle;
use xtt_xml::{fcns_decode, fcns_encode, parse_xml, write_xml, Dtd, Encoding, PcDataMode, UTree};

/// Deterministic document builder: interpret a byte string as build
/// operations (open/close elements, leaves, text) on a stack.
fn doc_from_ops(ops: &[u8]) -> UTree {
    let mut stack: Vec<(String, Vec<UTree>)> = vec![("root".to_owned(), Vec::new())];
    for &op in ops {
        match op % 6 {
            0 => stack.push(("a".to_owned(), Vec::new())),
            1 => stack.push(("b".to_owned(), Vec::new())),
            2 => stack.push(("c".to_owned(), Vec::new())),
            3 => {
                if stack.len() > 1 {
                    let (label, children) = stack.pop().unwrap();
                    stack
                        .last_mut()
                        .unwrap()
                        .1
                        .push(UTree::Elem { label, children });
                }
            }
            4 => stack.last_mut().unwrap().1.push(UTree::leaf("d")),
            _ => stack.last_mut().unwrap().1.push(UTree::text("t")),
        }
    }
    while stack.len() > 1 {
        let (label, children) = stack.pop().unwrap();
        stack
            .last_mut()
            .unwrap()
            .1
            .push(UTree::Elem { label, children });
    }
    let (label, children) = stack.pop().unwrap();
    UTree::Elem { label, children }
}

fn arb_doc() -> impl Strategy<Value = UTree> {
    proptest::collection::vec(any::<u8>(), 0..60).prop_map(|ops| doc_from_ops(&ops))
}

/// Random documents valid for the xmlflip DTD: root(aⁿ bᵐ).
fn arb_flip_doc() -> impl Strategy<Value = UTree> {
    (0usize..8, 0usize..8).prop_map(|(n, m)| {
        let mut children = Vec::new();
        for _ in 0..n {
            children.push(UTree::leaf("a"));
        }
        for _ in 0..m {
            children.push(UTree::leaf("b"));
        }
        UTree::elem("root", children)
    })
}

/// Random library documents with text from a 2-value universe.
fn arb_library_doc() -> impl Strategy<Value = UTree> {
    let value = prop_oneof![Just("v0"), Just("v1")];
    let book = (
        value.clone(),
        value.clone(),
        proptest::option::of(value),
        any::<bool>(),
    )
        .prop_map(|(a, t, y, title_only)| {
            if title_only {
                UTree::elem("BOOK", vec![UTree::elem("TITLE", vec![UTree::text(t)])])
            } else {
                let mut kids = vec![
                    UTree::elem("AUTHOR", vec![UTree::text(a)]),
                    UTree::elem("TITLE", vec![UTree::text(t)]),
                ];
                if let Some(y) = y {
                    kids.push(UTree::elem("YEAR", vec![UTree::text(y)]));
                }
                UTree::elem("BOOK", kids)
            }
        });
    proptest::collection::vec(book, 0..5).prop_map(|books| UTree::elem("LIBRARY", books))
}

fn flip_dtd() -> Dtd {
    Dtd::parse("<!ELEMENT root (a*,b*) >\n<!ELEMENT a EMPTY >\n<!ELEMENT b EMPTY >").unwrap()
}

fn library_dtd() -> Dtd {
    Dtd::parse(
        "<!ELEMENT LIBRARY (BOOK*) >\n\
         <!ELEMENT BOOK ((AUTHOR, TITLE, YEAR?) | TITLE) >\n\
         <!ELEMENT AUTHOR #PCDATA >\n\
         <!ELEMENT TITLE #PCDATA >\n\
         <!ELEMENT YEAR #PCDATA >",
    )
    .unwrap()
}

fn stream_events(codec: &XmlCodec, xml: &str) -> Vec<TreeEvent> {
    codec
        .events(xml)
        .collect::<Result<Vec<_>, _>>()
        .unwrap_or_else(|e| panic!("streaming encode of {xml}: {e}"))
}

/// A dtop over the fc/ns alphabet that copies `a`-only documents and is
/// undefined on any inspected `b` — the partial transducer whose domain
/// guard the fail-fast property exercises.
fn a_only_copier() -> xtt_transducer::Dtop {
    let alpha = RankedAlphabet::from_pairs([("root", 2), ("a", 2), ("b", 2), ("#", 0)]);
    let mut b = xtt_transducer::DtopBuilder::new(alpha.clone(), alpha);
    b.add_state("q0");
    b.add_state("q");
    b.set_axiom_str("<q0,x0>").unwrap();
    b.add_rule_str("q0", "root", "root(<q,x1>,<q,x2>)").unwrap();
    b.add_rule_str("q", "a", "a(<q,x1>,<q,x2>)").unwrap();
    b.add_rule_str("q", "#", "#").unwrap();
    b.build().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// fc/ns: streaming encode emits exactly `fcns_encode(doc).events()`.
    #[test]
    fn fcns_streaming_equals_batch_event_for_event(doc in arb_doc()) {
        let xml = write_xml(&doc);
        let parsed = parse_xml(&xml).unwrap();
        let batch: Vec<TreeEvent> = fcns_encode(&parsed).events().collect();
        prop_assert_eq!(stream_events(&XmlCodec::fcns(), &xml), batch);
    }

    /// fc/ns: streaming decode ∘ streaming encode ≡ the batch round trip
    /// `write_xml(fcns_decode(fcns_encode(doc)))`, byte for byte.
    #[test]
    fn fcns_decode_encode_is_identity(doc in arb_doc()) {
        let xml = write_xml(&doc);
        let parsed = parse_xml(&xml).unwrap();
        let codec = XmlCodec::fcns();
        let streamed = codec.ranked_tree(&xml).unwrap();
        let batch_roundtrip = write_xml(&fcns_decode(&fcns_encode(&parsed)).unwrap());
        prop_assert_eq!(codec.decode_tree(&streamed).unwrap(), batch_roundtrip);
    }

    /// DTD (both styles): streaming encode ≡ `Encoding::encode`, event
    /// for event, and decode ∘ encode is the identity on documents.
    #[test]
    fn dtd_flip_streaming_equals_batch(doc in arb_flip_doc()) {
        let xml = write_xml(&doc);
        for style in [EncodingStyle::Paper, EncodingStyle::PathClosed] {
            let enc = Arc::new(Encoding::with_style(flip_dtd(), PcDataMode::Abstract, style));
            let codec = XmlCodec::dtd(Arc::clone(&enc));
            let batch = enc.encode(&doc).unwrap();
            let batch_events: Vec<TreeEvent> = batch.events().collect();
            prop_assert_eq!(stream_events(&codec, &xml), batch_events);
            prop_assert_eq!(codec.decode_tree(&batch).unwrap(), xml.clone());
        }
    }

    /// DTD with valued text: the alternation/option machinery and the
    /// pcdata universe stream identically to batch, and text survives
    /// the round trip.
    #[test]
    fn dtd_library_streaming_equals_batch(doc in arb_library_doc()) {
        let xml = write_xml(&doc);
        let mode = PcDataMode::Valued(vec!["v0".into(), "v1".into()]);
        for style in [EncodingStyle::Paper, EncodingStyle::PathClosed] {
            let enc = Arc::new(Encoding::with_style(library_dtd(), mode.clone(), style));
            let codec = XmlCodec::dtd(Arc::clone(&enc));
            let batch = enc.encode(&doc).unwrap();
            let batch_events: Vec<TreeEvent> = batch.events().collect();
            prop_assert_eq!(stream_events(&codec, &xml), batch_events);
            prop_assert_eq!(parse_xml(&codec.decode_tree(&batch).unwrap()).unwrap(), doc.clone());
        }
    }

    /// Fail-fast: on a document whose first `b` sits at position `k` of
    /// `n ≥ k+1` children, the lockstep guard over *streaming* unranked
    /// events consumes strictly fewer events than the document holds —
    /// the tail beyond the violation is never encoded.
    #[test]
    fn guarded_streaming_consumes_strictly_fewer_events_when_rejecting(
        k in 0usize..6, tail in 1usize..30,
    ) {
        let m = a_only_copier();
        let guard = domain_guard(&m).unwrap();
        let mut children = vec!["<a/>"; k].join("");
        children.push_str("<b/>");
        children.push_str(&"<a/>".repeat(tail));
        let xml = format!("<root>{children}</root>");
        let codec = XmlCodec::fcns();
        let total = stream_events(&codec, &xml).len() as u64;
        let mut run = guard.run();
        let verdict = codec.events(&xml).try_for_each(|event| run.feed(event.unwrap()));
        prop_assert!(verdict.is_err(), "document must be rejected");
        prop_assert!(
            run.events_consumed() < total,
            "consumed {} of {} events",
            run.events_consumed(),
            total
        );
        // In-domain documents: every event is accepted.
        let ok_xml = format!("<root>{}</root>", "<a/>".repeat(k + tail));
        let mut run = guard.run();
        let verdict = codec.events(&ok_xml).try_for_each(|event| run.feed(event.unwrap()));
        prop_assert!(verdict.is_ok());
        prop_assert_eq!(run.events_consumed(), stream_events(&codec, &ok_xml).len() as u64);
    }
}
