//! Golden pipeline corpus: fixed transducers, fixed documents, hardcoded
//! expected bytes. The plan's composed machine, under its guard, must
//! reproduce them exactly in both eval modes and through both engine
//! calls — including the rejection diagnostic for out-of-domain
//! documents, which must be the same string everywhere — and the
//! expected bytes are the reference evaluator's stages applied one after
//! another, exactly on the chain domain.

use std::sync::Arc;

use xtt_engine::{
    tree_to_xml, DocFormat, Engine, EngineOptions, EvalMode, Request, XmlRankedEvents,
};
use xtt_pipeline::{plan, Plan, StageDef, StrategyChoice};
use xtt_transducer::{eval as walk_eval, parse_dtop};

/// Stage 1: swap the children of every `f`, keep `g` and `a`. Partial:
/// no rule for `b` (the dead rule only keeps `b` in the alphabet), so
/// any document containing `b` is out of the pipeline's domain.
const SWAP: &str = "ax = <q,x0>\n\
                    q(f(x1,x2)) -> f(<q,x2>,<q,x1>)\n\
                    q(g(x1)) -> g(<q,x1>)\n\
                    q(a) -> a\n\
                    qdead(b) -> a\n";

/// Stage 2: relabel into a fresh alphabet, double-wrapping `g`.
const WRAP: &str = "ax = <r,x0>\n\
                    r(f(x1,x2)) -> u(<r,x1>,<r,x2>)\n\
                    r(g(x1)) -> v(v(<r,x1>))\n\
                    r(a) -> c\n";

/// Stage 3: drop every `v` wrapper (a *deleting* stage — the case where
/// the chain domain is strictly smaller than the composed domain).
const UNWRAP: &str = "ax = <s,x0>\n\
                      s(u(x1,x2)) -> m(<s,x1>,<s,x2>)\n\
                      s(v(x1)) -> <s,x1>\n\
                      s(c) -> x\n";

fn stage(name: &str, text: &str) -> StageDef {
    StageDef {
        name: name.to_owned(),
        dtop: Arc::new(parse_dtop(text).unwrap()),
    }
}

const MODES: [EvalMode; 2] = [EvalMode::Compiled, EvalMode::Streaming];

/// Runs `doc` through the plan under its guard in both modes, one result
/// per mode — `Ok(bytes)` for in-domain documents, `Err(diagnostic)` for
/// rejected ones — after asserting that the batch call's text equals the
/// one-document call's bytes, errors included.
fn run_both_modes(p: &Plan, doc: &str) -> Vec<Result<String, String>> {
    let engine = Engine::new(EngineOptions::default());
    MODES
        .iter()
        .map(|&mode| {
            let req = || Request::new(p.machine(), Some(p.guard()), &DocFormat::Xml, mode);
            let text = engine.run_batch(&[doc], req()).pop().unwrap();
            let text = text.map_err(|e| e.to_string());
            let mut out = Vec::new();
            let bytes = engine
                .run_doc(doc, &mut out, req())
                .map(|_| String::from_utf8(out).unwrap())
                .map_err(|e| e.to_string());
            assert_eq!(
                text, bytes,
                "{mode:?}: batch text vs document bytes on {doc}"
            );
            text
        })
        .collect()
}

/// The reference: the stages applied one after another by the reference
/// evaluator, rendered as XML; `None` off the chain domain.
fn reference(stages: &[StageDef], doc: &str) -> Option<String> {
    let mut t = XmlRankedEvents::new(doc).collect_tree().unwrap();
    for s in stages {
        t = walk_eval(&s.dtop, &t)?;
    }
    Some(tree_to_xml(&t))
}

/// Asserts one golden result: the reference agrees with it (defined
/// exactly when `want` is `Ok`), and the plan reproduces it in both
/// modes.
fn assert_golden(stages: &[StageDef], p: &Plan, doc: &str, want: &Result<&str, &str>) {
    assert_eq!(
        reference(stages, doc).as_deref(),
        want.as_ref().ok().copied(),
        "reference on {doc}"
    );
    for (mode, got) in MODES.iter().zip(run_both_modes(p, doc)) {
        assert_eq!(
            got.as_deref().map_err(String::as_str),
            *want,
            "{mode:?} on {doc}"
        );
    }
}

#[test]
fn two_stage_golden_corpus() {
    let stages = vec![stage("swap", SWAP), stage("wrap", WRAP)];
    let p = plan(&stages, None, StrategyChoice::Auto).unwrap();
    for (doc, want) in [
        ("<a/>", Ok("<c/>")),
        (
            "<f><g><a/></g><a/></f>",
            Ok("<u><c/><v><v><c/></v></v></u>"),
        ),
        (
            "<g><f><a/><a/></f></g>",
            Ok("<v><v><u><c/><c/></u></v></v>"),
        ),
        (
            "<f><f><a/><a/></f><g><a/></g></f>",
            Ok("<u><v><v><c/></v></v><u><c/><c/></u></u>"),
        ),
    ] {
        assert_golden(&stages, &p, doc, &want);
    }
}

#[test]
fn two_stage_rejection_is_identical_everywhere() {
    let stages = vec![stage("swap", SWAP), stage("wrap", WRAP)];
    let p = plan(&stages, None, StrategyChoice::Auto).unwrap();
    // `b` at path 2 has no rule in stage 1: the reference is undefined,
    // and both modes must report the *same* first-violation diagnostic.
    let doc = "<f><a/><b/></f>";
    assert_eq!(reference(&stages, doc), None);
    let errors: Vec<String> = run_both_modes(&p, doc)
        .into_iter()
        .map(|got| got.expect_err(&format!("accepted {doc}")))
        .collect();
    assert!(
        errors[0].starts_with("type error at 2:"),
        "positioned diagnostic, got {}",
        errors[0]
    );
    assert!(
        errors.iter().all(|e| e == &errors[0]),
        "diagnostics diverge: {errors:?}"
    );
}

#[test]
fn three_stage_golden_corpus_with_deleting_stage() {
    let stages = vec![
        stage("swap", SWAP),
        stage("wrap", WRAP),
        stage("unwrap", UNWRAP),
    ];
    let p = plan(&stages, None, StrategyChoice::Auto).unwrap();
    for (doc, want) in [
        ("<a/>", Ok("<x/>")),
        ("<g><a/></g>", Ok("<x/>")),
        ("<f><g><a/></g><a/></f>", Ok("<m><x/><x/></m>")),
        (
            "<f><f><a/><a/></f><a/></f>",
            Ok("<m><x/><m><x/><x/></m></m>"),
        ),
        // Rejection flows through the shared guard identically here too.
        (
            "<g><b/></g>",
            Err("type error at 1: symbol b not allowed in state {q}|{r∘q}|{s∘r∘q}"),
        ),
    ] {
        assert_golden(&stages, &p, doc, &want);
    }
}
