//! Golden-corpus tests: checked-in `(transducer, input, expected)`
//! triples under `tests/golden/`, each run through all three evaluation
//! paths — the research tree-walk evaluator, the compiled interpreter,
//! and the streaming evaluator — and diffed against the expected output
//! *exactly*. `!undefined` expects all three paths to agree the input is
//! outside the domain; `!type-error at <path>: …`
//! additionally pins the *diagnostic* that guarded (validate-mode)
//! evaluation must report, bit-identical across the engine's `tree` and
//! `stream` modes.
//!
//! The corpus covers the paper's behavioral families: flipping
//! (permutation at the root), the library transformation, copying
//! (exponential output), deletion, relabeling, constant axioms, and
//! partial (undefined) regions.

use std::path::Path;

use xtt::engine::{compile, EvalScratch, StreamEvaluator};
use xtt::transducer::{eval, parse_dtop};
use xtt::trees::{parse_tree, Tree};

struct GoldenCase {
    name: String,
    transducer: String,
    input: String,
    expected: String,
}

fn parse_case(name: &str, text: &str) -> GoldenCase {
    let mut section = String::new();
    let mut transducer = String::new();
    let mut input = String::new();
    let mut expected = String::new();
    for line in text.lines() {
        let trimmed = line.trim();
        if trimmed.starts_with("//") || trimmed.is_empty() {
            continue;
        }
        if let Some(header) = trimmed.strip_prefix("==") {
            section = header.trim().to_owned();
            continue;
        }
        match section.as_str() {
            "transducer" => {
                transducer.push_str(trimmed);
                transducer.push('\n');
            }
            "input" => input.push_str(trimmed),
            "expected" => expected.push_str(trimmed),
            other => panic!("{name}: line outside a known section ({other:?}): {line}"),
        }
    }
    assert!(!transducer.is_empty(), "{name}: missing == transducer");
    assert!(!input.is_empty(), "{name}: missing == input");
    assert!(!expected.is_empty(), "{name}: missing == expected");
    GoldenCase {
        name: name.to_owned(),
        transducer,
        input,
        expected,
    }
}

fn load_corpus() -> Vec<GoldenCase> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let mut cases = Vec::new();
    for entry in std::fs::read_dir(&dir).expect("tests/golden exists") {
        let path = entry.expect("readable dir entry").path();
        if path.extension().is_some_and(|e| e == "golden") {
            let name = path.file_stem().unwrap().to_string_lossy().into_owned();
            let text = std::fs::read_to_string(&path).expect("readable golden file");
            cases.push(parse_case(&name, &text));
        }
    }
    cases.sort_by(|a, b| a.name.cmp(&b.name));
    assert!(
        cases.len() >= 10,
        "golden corpus shrank: {} cases",
        cases.len()
    );
    cases
}

/// All three evaluation paths on one input; `None` = outside the domain.
fn run_all_paths(case: &GoldenCase, input: &Tree) -> Vec<(&'static str, Option<Tree>)> {
    let dtop = parse_dtop(&case.transducer)
        .unwrap_or_else(|e| panic!("{}: bad transducer: {e}", case.name));
    let compiled = compile(&dtop).unwrap_or_else(|e| panic!("{}: compile failed: {e}", case.name));
    let mut scratch = EvalScratch::new();
    let mut stream = StreamEvaluator::new();
    vec![
        ("eval", eval(&dtop, input)),
        ("compiled", compiled.eval(input, &mut scratch)),
        ("stream", stream.eval_tree(&compiled, input)),
    ]
}

#[test]
fn golden_corpus_all_paths_exact() {
    for case in load_corpus() {
        let input =
            parse_tree(&case.input).unwrap_or_else(|e| panic!("{}: bad input: {e}", case.name));
        for (path, result) in run_all_paths(&case, &input) {
            // Both failure expectations mean "outside the domain" for the
            // unguarded paths; the diagnostic itself is pinned separately.
            let expect_undefined =
                case.expected == "!undefined" || case.expected.starts_with("!type-error ");
            match (expect_undefined, result) {
                (true, None) => {}
                (true, Some(got)) => {
                    panic!("{} [{path}]: expected undefined, got {got}", case.name)
                }
                (false, None) => panic!(
                    "{} [{path}]: expected {}, got undefined",
                    case.name, case.expected
                ),
                (false, Some(got)) => {
                    assert_eq!(
                        got.to_string(),
                        case.expected,
                        "{} [{path}] output differs",
                        case.name
                    )
                }
            }
        }
    }
}

/// The `!type-error` triples: guarded evaluation must report *exactly*
/// the pinned diagnostic — first-violation path included — bit-identical
/// across both eval modes, through the engine's batch path too.
#[test]
fn golden_type_error_diagnostics_exact_across_guarded_modes() {
    use xtt::engine::{DocFormat, Engine, EngineError, EngineOptions, EvalMode, Request};
    let engine = Engine::new(EngineOptions {
        validate: true,
        ..EngineOptions::default()
    });
    let mut covered = 0;
    for case in load_corpus() {
        if !case.expected.starts_with("!type-error ") {
            continue;
        }
        covered += 1;
        let dtop = parse_dtop(&case.transducer).unwrap();
        let (machine, guard) = engine.resolve(&dtop, true).unwrap();
        for mode in [EvalMode::Compiled, EvalMode::Streaming] {
            let req = Request::new(&machine, guard.as_deref(), &DocFormat::Term, mode);
            let err = engine
                .run_batch(&[&case.input], req)
                .pop()
                .unwrap()
                .unwrap_err();
            let EngineError::Type(violation) = &err else {
                panic!(
                    "{} [{mode:?}]: expected a type error, got {err:?}",
                    case.name
                );
            };
            assert_eq!(
                format!("!type-error {violation}"),
                case.expected,
                "{} [{mode:?}] diagnostic differs",
                case.name
            );
        }
    }
    assert!(covered >= 3, "only {covered} type-error golden cases");
}

/// The corpus transducers round-trip through the engine's serving layer
/// too: `Engine::transform` returns the same text the golden file pins.
#[test]
fn golden_corpus_through_the_engine() {
    use xtt::engine::{Engine, EngineError, EngineOptions};
    let engine = Engine::new(EngineOptions::default());
    for case in load_corpus() {
        let dtop = parse_dtop(&case.transducer).unwrap();
        match engine.transform(&dtop, &case.input) {
            Ok(got) => assert_eq!(got, case.expected, "{} engine output differs", case.name),
            Err(EngineError::Undefined) => {
                assert!(
                    case.expected == "!undefined" || case.expected.starts_with("!type-error "),
                    "{} unexpectedly undefined",
                    case.name
                )
            }
            Err(e) => panic!("{}: engine error: {e}", case.name),
        }
    }
}
