//! Golden pipeline corpus: fixed transducers, fixed documents, hardcoded
//! expected bytes. The plan's composed machine and the stage-by-stage
//! chain of the compiled stages must reproduce them exactly in every
//! eval mode — including the rejection diagnostic for the out-of-domain
//! document, which must be the same string everywhere.

use std::sync::Arc;

use xtt_engine::{compile, ChainStage, DocFormat, Engine, EngineOptions, EvalMode, Request};
use xtt_pipeline::{plan, Plan, StageDef, StrategyChoice};
use xtt_transducer::parse_dtop;

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

/// The stage-by-stage reference: every stage compiled on its own and run
/// one after another by the engine's n-stage path.
fn chain(stages: &[StageDef]) -> Vec<ChainStage> {
    stages
        .iter()
        .map(|s| ChainStage {
            compiled: Arc::new(compile(&s.dtop).unwrap()),
        })
        .collect()
}

/// Runs `doc` through the plan and the chain (both under the plan's
/// guard) in every mode, one result each: `Ok(bytes)` for in-domain
/// documents, `Err(diagnostic)` for rejected ones.
fn run_everywhere(p: &Plan, chain: &[ChainStage], doc: &str) -> Vec<Result<String, String>> {
    let engine = Engine::new(EngineOptions::default());
    let mut results = Vec::new();
    for stages in [p.exec_stages(), chain] {
        for mode in MODES {
            let req = Request::new(stages, Some(p.guard()), &DocFormat::Xml, mode);
            let got = engine.run_batch(&[doc], req).pop().unwrap();
            results.push(got.map_err(|e| e.to_string()));
        }
    }
    results
}

/// Asserts one golden result, byte-identical across all four executions.
fn assert_golden(p: &Plan, chain: &[ChainStage], doc: &str, want: &Result<&str, &str>) {
    for (i, got) in run_everywhere(p, chain, doc).iter().enumerate() {
        let (runner, mode) = (["plan", "chain"][i / 2], MODES[i % 2]);
        assert_eq!(
            got.as_deref().map_err(String::as_str),
            *want,
            "{runner}/{mode:?} on {doc}"
        );
    }
}

#[test]
fn two_stage_golden_corpus() {
    let stages = vec![stage("swap", SWAP), stage("wrap", WRAP)];
    let p = plan(&stages, None, StrategyChoice::Auto).unwrap();
    let chain = chain(&stages);
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
        assert_golden(&p, &chain, doc, &want);
    }
}

#[test]
fn two_stage_rejection_is_identical_everywhere() {
    let stages = vec![stage("swap", SWAP), stage("wrap", WRAP)];
    let p = plan(&stages, None, StrategyChoice::Auto).unwrap();
    // `b` at path 2 has no rule in stage 1: all four executions must
    // report the *same* first-violation diagnostic.
    let doc = "<f><a/><b/></f>";
    let errors: Vec<String> = run_everywhere(&p, &chain(&stages), doc)
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
    let chain = chain(&stages);
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
        assert_golden(&p, &chain, doc, &want);
    }
}
