//! Differential property tests for the pipeline planner: the plan's
//! statically composed machine and the stage-by-stage chain of the
//! compiled stages must be **byte-identical** through the engine's public
//! entry points — same XML output on the pipeline's domain, same
//! rejection (same position, same diagnostic) outside it — and
//! schema-specialized plans must guard exactly the schema-valid subset of
//! the domain.

use std::sync::Arc;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use xtt_engine::{
    compile, tree_to_xml, ChainStage, DocFormat, Engine, EngineOptions, EvalMode, Request,
};
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The plan and the stage-by-stage chain (both under the plan's
    /// guard) are byte-identical over XML on random partial two-stage
    /// pipelines: same output bytes on the domain, same error (position
    /// included) off it — in both the materialized (`tree`) and fused
    /// streaming modes. The plan is a one-stage chain, so this pins the
    /// single-transducer path too: for both and every mode the
    /// one-document byte call equals the batch text (errors included),
    /// and the output is the reference evaluator's τ₂(τ₁(t)) rendered as
    /// XML exactly on the chain's domain.
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
        let chain = chain(&stages);
        let engine = Engine::new(EngineOptions::default());
        for t in workload(&alpha_a, &mut rng) {
            let doc = tree_to_xml(&t);
            let want = walk_eval(&m1, &t)
                .and_then(|u| walk_eval(&m2, &u))
                .map(|out| tree_to_xml(&out));
            for mode in [EvalMode::Compiled, EvalMode::Streaming] {
                let mut texts = Vec::new();
                for (runner, stages) in [("plan", p.exec_stages()), ("chain", &chain[..])] {
                    let req = || Request::new(stages, Some(p.guard()), &DocFormat::Xml, mode);
                    let text = engine.run_batch(&[&doc], req()).pop().unwrap();
                    let text = text.map_err(|e| e.to_string());
                    let mut out = Vec::new();
                    let bytes = engine
                        .run_doc(&doc, &mut out, req())
                        .map(|_| String::from_utf8(out).unwrap())
                        .map_err(|e| e.to_string());
                    prop_assert_eq!(&text, &bytes, "{}/{:?} on {}", runner, mode, doc);
                    texts.push(text);
                }
                prop_assert_eq!(&texts[0], &texts[1], "mode {:?} on {}", mode, doc);
                prop_assert_eq!(texts[0].as_ref().ok(), want.as_ref(), "mode {:?} on {}", mode, doc);
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
