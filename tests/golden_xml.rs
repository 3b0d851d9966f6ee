//! Golden corpus for the unranked-XML pipeline: checked-in
//! `(transducer, encoding, XML input, XML output)` quadruples under
//! `tests/golden_xml/`, each run through both evaluation modes (with
//! and without validation) of the engine's encoded path (`DocFormat::Encoded`) and asserted
//! byte-identical against the expected XML text — the documents are
//! genuine unranked XML, encoded incrementally off the SAX tokenizer
//! and decoded back by the streaming writers.
//!
//! The corpus covers: the fc/ns encoding with deletion (pruned subtrees
//! are skipped, not built), the paper's `xmlflip` over a DTD-encoding
//! pair with distinct input/output schemas, and valued-pcdata text
//! handling through an alternating field swap.

use std::path::Path;
use std::sync::Arc;

use xtt::engine::{DocFormat, Engine, EngineOptions, EvalMode, Request, XmlCodec};
use xtt::transducer::parse_dtop;
use xtt::xml::{Dtd, Encoding, PcDataMode};

struct GoldenXmlCase {
    name: String,
    transducer: String,
    encoding: String,
    input_dtd: String,
    output_dtd: String,
    pcdata: Option<Vec<String>>,
    input: String,
    expected: String,
}

fn parse_case(name: &str, text: &str) -> GoldenXmlCase {
    let mut sections: std::collections::HashMap<String, String> = Default::default();
    let mut current = String::new();
    for line in text.lines() {
        let trimmed = line.trim();
        if trimmed.starts_with("//") || (trimmed.is_empty() && current != "transducer") {
            continue;
        }
        if let Some(header) = trimmed.strip_prefix("==") {
            current = header.trim().to_owned();
            continue;
        }
        assert!(
            !current.is_empty(),
            "{name}: content before a section: {line}"
        );
        let section = sections.entry(current.clone()).or_default();
        section.push_str(trimmed);
        section.push('\n');
    }
    let take = |key: &str| sections.get(key).map(|s| s.trim().to_owned());
    let required =
        |key: &str| take(key).unwrap_or_else(|| panic!("{name}: missing == {key} section"));
    let input_dtd = take("input-dtd").unwrap_or_default();
    GoldenXmlCase {
        name: name.to_owned(),
        transducer: required("transducer"),
        encoding: required("encoding"),
        output_dtd: take("output-dtd").unwrap_or_else(|| input_dtd.clone()),
        input_dtd,
        pcdata: take("pcdata").map(|v| v.split(',').map(|s| s.trim().to_owned()).collect()),
        input: required("input"),
        expected: required("expected"),
    }
}

fn load_corpus() -> Vec<GoldenXmlCase> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden_xml");
    let mut cases = Vec::new();
    for entry in std::fs::read_dir(&dir).expect("tests/golden_xml exists") {
        let path = entry.expect("readable dir entry").path();
        if path.extension().is_some_and(|e| e == "golden") {
            let name = path.file_stem().unwrap().to_string_lossy().into_owned();
            let text = std::fs::read_to_string(&path).expect("readable golden file");
            cases.push(parse_case(&name, &text));
        }
    }
    cases.sort_by(|a, b| a.name.cmp(&b.name));
    assert!(
        cases.len() >= 3,
        "XML golden corpus shrank: {}",
        cases.len()
    );
    cases
}

fn codec_for(case: &GoldenXmlCase) -> XmlCodec {
    match case.encoding.as_str() {
        "fcns" => XmlCodec::fcns(),
        "dtd" => {
            let mode = match &case.pcdata {
                None => PcDataMode::Abstract,
                Some(values) => PcDataMode::Valued(values.clone()),
            };
            let parse = |text: &str| {
                Arc::new(Encoding::new(
                    Dtd::parse(text).unwrap_or_else(|e| panic!("{}: bad DTD: {e}", case.name)),
                    mode.clone(),
                ))
            };
            XmlCodec::dtd_pair(parse(&case.input_dtd), parse(&case.output_dtd))
        }
        other => panic!("{}: unknown encoding kind {other:?}", case.name),
    }
}

/// Every case, through every eval mode (and both validation settings),
/// produces exactly the expected XML text.
#[test]
fn golden_xml_corpus_all_modes_exact() {
    for case in load_corpus() {
        let dtop = parse_dtop(&case.transducer)
            .unwrap_or_else(|e| panic!("{}: bad transducer: {e}", case.name));
        let format = DocFormat::Encoded(codec_for(&case));
        for validate in [false, true] {
            let engine = Engine::new(EngineOptions {
                validate,
                ..EngineOptions::default()
            });
            let (machine, guard) = engine.resolve(&dtop, validate).unwrap();
            for mode in [EvalMode::Compiled, EvalMode::Streaming] {
                let req = Request::new(&machine, guard.as_deref(), &format, mode);
                let got = engine.run_batch(&[&case.input], req).pop().unwrap();
                let got = got.unwrap_or_else(|e| {
                    panic!("{} [{mode:?} validate={validate}]: {e}", case.name)
                });
                assert_eq!(
                    got, case.expected,
                    "{} [{mode:?} validate={validate}] output differs",
                    case.name
                );
            }
        }
    }
}

/// Streamed emission (`Engine::transform_streaming_with`) produces the
/// exact bytes of tree-at-root-close emission on every golden case,
/// with validation on and off — the refactor changed *when* bytes
/// leave, never *which* bytes.
#[test]
fn golden_xml_streamed_emission_is_byte_identical() {
    for case in load_corpus() {
        let dtop = parse_dtop(&case.transducer)
            .unwrap_or_else(|e| panic!("{}: bad transducer: {e}", case.name));
        let format = DocFormat::Encoded(codec_for(&case));
        let engine = Engine::default();
        for validate in [false, true] {
            let (machine, _) = engine.resolve(&dtop, false).unwrap();
            let req = Request::new(&machine, None, &format, EvalMode::Streaming);
            let batch = engine.run_batch(&[&case.input], req).pop().unwrap();
            let batch =
                batch.unwrap_or_else(|e| panic!("{} [batch validate={validate}]: {e}", case.name));
            let mut streamed = Vec::new();
            let outcome = engine
                .transform_streaming_with(
                    &dtop,
                    &case.input,
                    format.clone(),
                    validate,
                    &mut streamed,
                )
                .unwrap_or_else(|e| panic!("{} [streamed validate={validate}]: {e}", case.name));
            assert_eq!(
                String::from_utf8(streamed).expect("XML output is UTF-8"),
                batch,
                "{} [validate={validate}]: streamed bytes differ from tree-at-root-close",
                case.name
            );
            assert_eq!(batch, case.expected, "{}: output differs", case.name);
            assert_eq!(
                outcome.bytes_written as usize,
                case.expected.len(),
                "{}: reported byte count is off",
                case.name
            );
        }
    }
}

/// The expected output is itself a fixed point of parse→serialize (the
/// corpus files stay in the writers' canonical form).
#[test]
fn golden_xml_expected_is_canonical() {
    for case in load_corpus() {
        let parsed = xtt::xml::parse_xml(&case.expected)
            .unwrap_or_else(|e| panic!("{}: expected is not XML: {e}", case.name));
        assert_eq!(
            xtt::xml::write_xml(&parsed),
            case.expected,
            "{}: expected XML is not canonical",
            case.name
        );
    }
}
