//! Differential property tests for the pipeline planner: the plan's
//! statically composed machine, under its guard, must equal the reference
//! evaluator applied stage by stage through the engine's public entry
//! points — the same XML output exactly on the chain domain, a rejection
//! outside it — with both entry points and both modes byte-identical,
//! errors included; and schema-specialized plans must guard exactly the
//! schema-valid subset of the domain.

use std::sync::Arc;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use xtt_engine::{tree_to_xml, DocFormat, Engine, EngineOptions, EvalMode, Request};
use xtt_pipeline::{plan, PlanError, StageDef, StrategyChoice};
use xtt_transducer::{domain_dtta, eval as walk_eval, random_partial_dtop, RandomDtopConfig};
use xtt_trees::{gen, RankedAlphabet, Tree};

/// XML-name-safe alphabets so `DocFormat::Xml` round-trips.
fn alphabets() -> (RankedAlphabet, RankedAlphabet, RankedAlphabet) {
    (
        RankedAlphabet::from_pairs([("f", 2), ("g", 1), ("a", 0), ("b", 0)]),
        RankedAlphabet::from_pairs([("u", 2), ("v", 1), ("c", 0), ("d", 0)]),
        RankedAlphabet::from_pairs([("m", 2), ("n", 1), ("x", 0), ("y", 0)]),
    )
}

fn config() -> RandomDtopConfig {
    RandomDtopConfig {
        n_states: 3,
        max_rhs_depth: 3,
        call_percent: 55,
    }
}

fn workload(input: &RankedAlphabet, rng: &mut StdRng) -> Vec<Tree> {
    let mut trees = gen::enumerate_trees(input, 40, 7);
    for _ in 0..4 {
        trees.push(gen::random_tree(input, 40, rng));
    }
    trees
}

fn stage(name: &str, dtop: xtt_transducer::Dtop) -> StageDef {
    StageDef {
        name: name.to_owned(),
        dtop: Arc::new(dtop),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The composed plan under its guard against the stages chained
    /// through the reference evaluator, over XML and term text on random
    /// partial two-stage pipelines, in both the materialized (`tree`) and
    /// fused streaming modes: the one-document byte call equals the batch
    /// text (errors included), the two modes agree (a rejection names the
    /// same position either way), and the output is τ₂(τ₁(t)) rendered in
    /// the document's format exactly on the chain's domain. A pipeline runs like a validated
    /// transducer, so this pins the single-transducer path too.
    #[test]
    fn composed_and_chained_agree_byte_for_byte(seed in any::<u64>(), keep in 40u32..95) {
        let (alpha_a, alpha_b, alpha_c) = alphabets();
        let mut rng = StdRng::seed_from_u64(seed);
        let m1 = random_partial_dtop(&mut rng, &alpha_a, &alpha_b, &config(), keep);
        let m2 = random_partial_dtop(&mut rng, &alpha_b, &alpha_c, &config(), keep);
        let stages = vec![stage("s1", m1.clone()), stage("s2", m2.clone())];
        let p = match plan(&stages, None, StrategyChoice::Auto) {
            Ok(p) => p,
            // A composition nothing can pass through is a registration
            // error upstream; there is no runtime behavior to compare.
            Err(PlanError::EmptyComposition) => return Ok(()),
            Err(e) => return Err(format!("plan failed: {e}")),
        };
        let engine = Engine::new(EngineOptions::default());
        for t in workload(&alpha_a, &mut rng) {
            let out = walk_eval(&m1, &t).and_then(|u| walk_eval(&m2, &u));
            for format in [DocFormat::Xml, DocFormat::Term] {
                let render = |t: &Tree| match format {
                    DocFormat::Term => t.to_string(),
                    _ => tree_to_xml(t),
                };
                let doc = render(&t);
                let want = out.as_ref().map(render);
                let mut texts = Vec::new();
                for mode in [EvalMode::Compiled, EvalMode::Streaming] {
                    let req = || Request::new(p.machine(), Some(p.guard()), &format, mode);
                    let text = engine.run_batch(&[&doc], req()).pop().unwrap();
                    let text = text.map_err(|e| e.to_string());
                    let mut out = Vec::new();
                    let bytes = engine
                        .run_doc(&doc, &mut out, req())
                        .map(|_| String::from_utf8(out).unwrap())
                        .map_err(|e| e.to_string());
                    prop_assert_eq!(&text, &bytes, "{:?} on {}", mode, doc);
                    prop_assert_eq!(text.as_ref().ok(), want.as_ref(), "mode {:?} on {}", mode, doc);
                    texts.push(text);
                }
                prop_assert_eq!(&texts[0], &texts[1], "modes disagree on {}", doc);
            }
        }
    }

    /// With an input schema, the plan's guard accepts **exactly** the
    /// schema-valid subset of the pipeline's domain: `t` passes iff
    /// `t ∈ L(schema)` and the (unspecialized) stage composition is
    /// defined on `t`.
    #[test]
    fn schema_specialized_guard_accepts_exactly_the_schema_valid_subset(
        seed in any::<u64>(),
        keep in 40u32..95,
    ) {
        let (alpha_a, alpha_b, _) = alphabets();
        let mut rng = StdRng::seed_from_u64(seed);
        let m1 = random_partial_dtop(&mut rng, &alpha_a, &alpha_b, &config(), keep);
        let m2 = random_partial_dtop(&mut rng, &alpha_b, &alpha_a, &config(), keep);
        // A random regular tree language over the input alphabet: the
        // domain automaton of yet another random partial dtop.
        let m_schema = random_partial_dtop(&mut rng, &alpha_a, &alpha_b, &config(), keep);
        let schema = domain_dtta(&m_schema, None);
        let stages = vec![stage("s1", m1.clone()), stage("s2", m2.clone())];
        let p = match plan(&stages, Some(&schema), StrategyChoice::Auto) {
            Ok(p) => p,
            Err(PlanError::EmptyComposition) => {
                // Then nothing may pass: the unspecialized composition
                // must indeed be undefined everywhere on the schema.
                for t in workload(&alpha_a, &mut rng) {
                    let defined = walk_eval(&m1, &t)
                        .and_then(|u| walk_eval(&m2, &u))
                        .is_some();
                    prop_assert!(
                        !(schema.accepts(&t) && defined),
                        "EmptyComposition but {} is schema-valid and defined", t
                    );
                }
                return Ok(());
            }
            Err(e) => return Err(format!("plan failed: {e}")),
        };
        for t in workload(&alpha_a, &mut rng) {
            let expected = schema.accepts(&t)
                && walk_eval(&m1, &t).and_then(|u| walk_eval(&m2, &u)).is_some();
            prop_assert_eq!(
                p.guard().accepts(&t),
                expected,
                "guard disagrees on {} (schema {}, defined {})",
                &t,
                schema.accepts(&t),
                walk_eval(&m1, &t).and_then(|u| walk_eval(&m2, &u)).is_some()
            );
        }
    }
}

/// A case of the property above (drawn under `XTT_PROPTEST_SEED=1`): the
/// normalized machine has no rule for `g` at the root, while the raw
/// chain guard accepts `g` there and rejects its child. `stream` mode
/// must not stop with the machine's `input outside the transduction
/// domain`: both modes name the guard's violation.
#[test]
fn both_modes_name_the_guard_violation_when_the_machine_stops_first() {
    let m1 = xtt_transducer::parse_dtop(
        "ax = <r1,x0>\n\
         r0(f(x1,x2)) -> <r1,x1>\nr0(g(x1)) -> <r0,x1>\nr0(a) -> u(c,v(v(c)))\nr0(b) -> v(c)\n\
         r1(g(x1)) -> <r2,x1>\nr1(a) -> u(c,c)\nr1(b) -> u(d,v(d))\n\
         r2(f(x1,x2)) -> d\nr2(g(x1)) -> v(u(d,u(<r1,x1>,d)))\nr2(b) -> c\n",
    )
    .unwrap();
    let m2 = xtt_transducer::parse_dtop(
        "ax = n(n(<r1,x0>))\n\
         r0(u(x1,x2)) -> <r1,x1>\nr0(v(x1)) -> n(x)\nr0(c) -> y\n\
         r1(u(x1,x2)) -> <r2,x1>\nr1(v(x1)) -> m(<r1,x1>,<r2,x1>)\n\
         r2(u(x1,x2)) -> m(<r1,x1>,m(y,<r0,x2>))\nr2(c) -> m(x,y)\nr2(d) -> m(x,x)\n",
    )
    .unwrap();
    let p = plan(
        &[stage("s1", m1), stage("s2", m2)],
        None,
        StrategyChoice::Auto,
    )
    .unwrap();
    let engine = Engine::default();
    for mode in [EvalMode::Compiled, EvalMode::Streaming] {
        let req = Request::new(p.machine(), Some(p.guard()), &DocFormat::Xml, mode);
        let result = engine.run_batch(&["<g><a/></g>"], req).pop().unwrap();
        let err = result.expect_err("outside the chain domain").to_string();
        assert!(
            err.starts_with("type error at 1: symbol a"),
            "{mode:?}: {err}"
        );
    }
}
