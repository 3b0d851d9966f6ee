//! Property-based tests for the XML substrate: encodings, DTD parsing,
//! and the XML reader/writer.

use proptest::prelude::*;
use xtt_automata::enumerate_language;
use xtt_xml::encode::EncodingStyle;
use xtt_xml::{
    fcns_decode, fcns_encode, parse_xml, parse_xml_strict, write_xml, Dtd, Encoding, PcDataMode,
    UTree,
};

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

/// Random library documents: books with author/title(/year), some with
/// title only, text values drawn from a 2-value universe.
fn arb_library_doc() -> impl Strategy<Value = UTree> {
    let value = prop_oneof![Just("v0"), Just("v1")];
    let book = (
        value.clone(),
        value.clone(),
        proptest::option::of(value.clone()),
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn flip_encoding_roundtrips_both_styles(doc in arb_flip_doc()) {
        for style in [EncodingStyle::Paper, EncodingStyle::PathClosed] {
            let enc = Encoding::with_style(flip_dtd(), PcDataMode::Abstract, style);
            let t = enc.encode(&doc).unwrap();
            prop_assert_eq!(enc.decode(&t).unwrap(), doc.clone());
            prop_assert!(enc.domain().accepts(&t), "domain rejects its own encoding");
        }
    }

    #[test]
    fn library_encoding_roundtrips(doc in arb_library_doc()) {
        let enc = Encoding::with_style(
            library_dtd(),
            PcDataMode::Valued(vec!["v0".into(), "v1".into()]),
            EncodingStyle::PathClosed,
        );
        let t = enc.encode(&doc).unwrap();
        prop_assert_eq!(enc.decode(&t).unwrap(), doc.clone());
        prop_assert!(enc.domain().accepts(&t));
    }

    #[test]
    fn fcns_roundtrips(doc in arb_library_doc()) {
        // fc/ns abstracts text; compare after the same abstraction
        let t = fcns_encode(&doc);
        let back = fcns_decode(&t).unwrap();
        prop_assert_eq!(abstract_text(&doc), back);
    }

    #[test]
    fn xml_write_parse_roundtrips(doc in arb_library_doc()) {
        let text = write_xml(&doc);
        prop_assert_eq!(parse_xml(&text).unwrap(), doc.clone());
        let pretty = xtt_xml::write_xml_pretty(&doc);
        prop_assert_eq!(parse_xml(&pretty).unwrap(), doc);
    }
}

/// Which pieces of real-world markup the noisy serializer injects. Every
/// kind is skipped by the lenient parser and a hard error in strict mode.
#[derive(Clone, Copy, Debug, Default)]
struct Noise {
    doctype: bool,
    leading_comment: bool,
    inner_comment: bool,
    inner_pi: bool,
    root_attribute: bool,
    cdata_text: bool,
    trailing_comment: bool,
}

fn arb_noise() -> impl Strategy<Value = Noise> {
    // One bit per noise kind (the vendored proptest has no 7-tuples).
    (0u32..128).prop_map(|bits| Noise {
        doctype: bits & 1 != 0,
        leading_comment: bits & 2 != 0,
        inner_comment: bits & 4 != 0,
        inner_pi: bits & 8 != 0,
        root_attribute: bits & 16 != 0,
        cdata_text: bits & 32 != 0,
        trailing_comment: bits & 64 != 0,
    })
}

/// Writes `doc` as XML with the selected noise interleaved; returns the text
/// and how many noise constructs were *actually* emitted (flags that find
/// no injection point — e.g. CDATA with no text nodes — count zero).
fn write_noisy(doc: &UTree, noise: Noise) -> (String, usize) {
    let mut out = String::from("<?xml version=\"1.0\"?>\n"); // legal even in strict mode
    let mut emitted = 0usize;
    if noise.doctype {
        out.push_str("<!DOCTYPE LIBRARY [ <!ELEMENT LIBRARY (BOOK*)> ]>\n");
        emitted += 1;
    }
    if noise.leading_comment {
        out.push_str("<!-- generated corpus -->\n");
        emitted += 1;
    }
    write_noisy_node(doc, noise, true, &mut out, &mut emitted);
    if noise.trailing_comment {
        out.push_str("\n<!-- end of document -->");
        emitted += 1;
    }
    (out, emitted)
}

fn write_noisy_node(t: &UTree, noise: Noise, is_root: bool, out: &mut String, emitted: &mut usize) {
    match t {
        UTree::Text(s) => {
            if noise.cdata_text {
                out.push_str(&format!("<![CDATA[{s}]]>"));
                *emitted += 1;
            } else {
                out.push_str(s); // corpus text needs no escaping
            }
        }
        UTree::Elem { label, children } => {
            out.push_str(&format!("<{label}"));
            if is_root && noise.root_attribute {
                out.push_str(" id=\"r1\" class='noisy' defer");
                *emitted += 1;
            }
            if children.is_empty() {
                out.push_str("/>");
                return;
            }
            out.push('>');
            if is_root && noise.inner_comment {
                out.push_str("<!-- first child follows -->");
                *emitted += 1;
            }
            for child in children {
                write_noisy_node(child, noise, false, out, emitted);
            }
            if is_root && noise.inner_pi {
                out.push_str("<?target instruction data?>");
                *emitted += 1;
            }
            out.push_str(&format!("</{label}>"));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// serialize-with-noise → lenient parse is the identity, and strict
    /// mode rejects exactly the renderings that contain noise.
    #[test]
    fn noisy_roundtrip_lenient_identity_strict_exact(
        doc in arb_library_doc(),
        noise in arb_noise(),
    ) {
        let (text, emitted) = write_noisy(&doc, noise);
        let lenient = parse_xml(&text);
        prop_assert_eq!(
            lenient.unwrap(), doc.clone(),
            "lenient parse must see through the noise: {}", text
        );
        let strict = parse_xml_strict(&text);
        if emitted == 0 {
            prop_assert_eq!(
                strict.unwrap(), doc,
                "strict must accept the noise-free rendering: {}", text
            );
        } else {
            prop_assert!(
                strict.is_err(),
                "strict accepted a rendering with {} noise constructs: {}", emitted, text
            );
        }
    }
}

/// Collects the full event stream (events *and* the terminating error,
/// if any) under the given scan implementation.
fn event_trace(
    text: &str,
    scalar: bool,
) -> Vec<Result<xtt_xml::xmlparse::XmlEvent<'_>, xtt_xml::xmlparse::XmlError>> {
    let opts = xtt_xml::xmlparse::XmlOptions {
        scalar_scan: scalar,
        ..Default::default()
    };
    xtt_xml::xmlparse::xml_events_with(text, opts).collect()
}

/// XML-flavored fragment soup: markup shards, entities (valid and
/// broken), text, and multi-byte characters, concatenated at random —
/// most samples are malformed somewhere.
fn arb_garbage() -> impl Strategy<Value = String> {
    let fragment = prop_oneof![
        Just("<a>"),
        Just("</a>"),
        Just("<a"),
        Just("<"),
        Just(">"),
        Just("/>"),
        Just("<!--x-->"),
        Just("<!--"),
        Just("<![CDATA[y]]>"),
        Just("<![CDATA["),
        Just("<!DOCTYPE d [<!-- \"]\" -->]>"),
        Just("<?pi?>"),
        Just("&amp;"),
        Just("&#65;"),
        Just("&#x2026;"),
        Just("&bogus;"),
        Just("&"),
        Just("&#"),
        Just(";"),
        Just("text"),
        Just(" "),
        Just("\t\n"),
        Just("=\"v\""),
        Just("='v'"),
        Just("héllo✓"),
        Just("]]>"),
    ];
    proptest::collection::vec(fragment, 0..24).prop_map(|parts| parts.concat())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The SIMD/SWAR scanner is a drop-in for the scalar loop: on any
    /// well-formed noisy document the two tokenizations agree
    /// event-for-event (names, attribute lists, coalesced text).
    #[test]
    fn simd_and_scalar_scans_agree_on_documents(
        doc in arb_library_doc(),
        noise in arb_noise(),
    ) {
        let (text, _) = write_noisy(&doc, noise);
        prop_assert_eq!(event_trace(&text, false), event_trace(&text, true));
    }

    /// …and on arbitrary garbage: same events, then the same positioned
    /// error. Exercises the scanners' tail handling on inputs that stop
    /// mid-construct.
    #[test]
    fn simd_and_scalar_scans_agree_on_garbage(input in arb_garbage()) {
        prop_assert_eq!(event_trace(&input, false), event_trace(&input, true));
    }
}

fn abstract_text(doc: &UTree) -> UTree {
    match doc {
        UTree::Text(_) => UTree::text("pcdata"),
        UTree::Elem { label, children } => UTree::Elem {
            label: label.clone(),
            children: children.iter().map(abstract_text).collect(),
        },
    }
}

/// The decisive property of the path-closed style: every tree of the
/// domain automaton decodes to a document (language = closure).
#[test]
fn path_closed_domain_equals_encoding_language() {
    for dtd in [flip_dtd(), library_dtd()] {
        let enc = Encoding::with_style(dtd, PcDataMode::Abstract, EncodingStyle::PathClosed);
        let domain = enc.domain();
        let trees = enumerate_language(&domain, domain.initial(), 200, 24);
        assert!(!trees.is_empty());
        for t in trees {
            let doc = enc
                .decode(&t)
                .unwrap_or_else(|e| panic!("closure tree fails to decode: {t}: {e}"));
            // and encoding the decoded document gives back the same tree
            assert_eq!(enc.encode(&doc).unwrap(), t);
        }
    }
}

/// The paper style is genuinely not path-closed: some accepted trees do
/// not decode.
#[test]
fn paper_style_domain_strictly_larger() {
    let enc = Encoding::new(flip_dtd(), PcDataMode::Abstract);
    let domain = enc.domain();
    let trees = enumerate_language(&domain, domain.initial(), 400, 16);
    let undecodable = trees.iter().filter(|t| enc.decode(t).is_err()).count();
    assert!(
        undecodable > 0,
        "expected path-closure junk in the paper-style domain"
    );
}
