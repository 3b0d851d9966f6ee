//! Differential property tests: every engine execution layer must agree
//! *exactly* with the research evaluator `xtt_transducer::eval::eval` —
//! same outputs on the domain, same `None` outside it. The text-level
//! properties drive the engine's public entry points over term text, in
//! both modes, with and without the domain guard: the answer is the
//! reference output's rendering, or the error the reference implies.
//!
//! Transducers are random **partial** dtops (missing rules make random
//! inputs routinely undefined), so the tests exercise the failure
//! propagation paths as hard as the success paths. Inputs mix exhaustive
//! small-tree enumeration with random larger trees.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use xtt_engine::{
    compile, DocFormat, Engine, EngineError, EngineOptions, EvalMode, EvalScratch, Request,
    StreamEvaluator,
};
use xtt_transducer::{
    eval as walk_eval, random_partial_dtop, random_total_dtop, Dtop, RandomDtopConfig,
};
use xtt_trees::{gen, RankedAlphabet, Tree};
use xtt_typecheck::domain_guard;

fn alphabets() -> (RankedAlphabet, RankedAlphabet) {
    (
        RankedAlphabet::from_pairs([("f", 2), ("g", 1), ("h", 3), ("a", 0), ("b", 0)]),
        RankedAlphabet::from_pairs([("u", 2), ("v", 1), ("c", 0), ("d", 0)]),
    )
}

fn config() -> RandomDtopConfig {
    RandomDtopConfig {
        n_states: 4,
        max_rhs_depth: 3,
        call_percent: 55,
    }
}

/// Inputs for one case: all small trees plus a few random larger ones.
fn workload(input: &RankedAlphabet, rng: &mut StdRng) -> Vec<Tree> {
    let mut trees = gen::enumerate_trees(input, 50, 7);
    for _ in 0..6 {
        trees.push(gen::random_tree(input, 60, rng));
    }
    trees
}

proptest! {
    /// Compiled tree evaluation ≡ tree-walk evaluation, including `None`.
    #[test]
    fn compiled_eval_agrees(seed in any::<u64>(), keep in 35u32..95) {
        let (input, output) = alphabets();
        let mut rng = StdRng::seed_from_u64(seed);
        let m = random_partial_dtop(&mut rng, &input, &output, &config(), keep);
        let c = compile(&m).unwrap();
        let mut scratch = EvalScratch::new();
        for t in workload(&input, &mut rng) {
            prop_assert_eq!(c.eval(&t, &mut scratch), walk_eval(&m, &t), "on {}", t);
        }
    }

    /// Streaming evaluation over the event stream agrees as well.
    #[test]
    fn streaming_eval_agrees(seed in any::<u64>(), keep in 35u32..95) {
        let (input, output) = alphabets();
        let mut rng = StdRng::seed_from_u64(seed);
        let m = random_partial_dtop(&mut rng, &input, &output, &config(), keep);
        let c = compile(&m).unwrap();
        let mut stream = StreamEvaluator::new();
        for t in workload(&input, &mut rng) {
            prop_assert_eq!(stream.eval_tree(&c, &t), walk_eval(&m, &t), "on {}", t);
        }
    }

    /// Total dtops (universal domain): every layer is defined everywhere
    /// and all three results coincide.
    #[test]
    fn total_dtops_always_defined(seed in any::<u64>()) {
        let (input, output) = alphabets();
        let mut rng = StdRng::seed_from_u64(seed);
        let m = random_total_dtop(&mut rng, &input, &output, &config());
        let c = compile(&m).unwrap();
        let mut scratch = EvalScratch::new();
        let mut stream = StreamEvaluator::new();
        for t in workload(&input, &mut rng) {
            let reference = walk_eval(&m, &t);
            prop_assert!(reference.is_some(), "total dtop undefined on {}", t);
            prop_assert_eq!(c.eval(&t, &mut scratch), reference.clone());
            prop_assert_eq!(stream.eval_tree(&c, &t), reference);
        }
    }
}

const MODES: [EvalMode; 2] = [EvalMode::Compiled, EvalMode::Streaming];

/// Per-document answers: text, or the engine's error.
type Answers = Vec<Result<String, EngineError>>;

/// Every document through `run_batch` (one call for the whole batch) and
/// `run_doc` (one call each), in `mode`, with or without `m`'s domain
/// guard: the batch answers and, per document, the byte call's answer.
fn run_text(
    engine: &Engine,
    m: &Dtop,
    docs: &[String],
    mode: EvalMode,
    validate: bool,
) -> (Answers, Answers) {
    let (machine, guard) = engine.resolve(m, validate).unwrap();
    let req = || Request::new(&machine, guard.as_deref(), &DocFormat::Term, mode);
    let batch = engine.run_batch(docs, req());
    let bytes = docs
        .iter()
        .map(|doc| {
            let mut out = Vec::new();
            engine
                .run_doc(doc, &mut out, req())
                .map(|_| String::from_utf8(out).unwrap())
        })
        .collect();
    (batch, bytes)
}

proptest! {
    /// Term text through both entry points, both modes, with and without
    /// the guard: the reference output's rendering on the domain; outside
    /// it `Undefined`, or under the guard its first violation.
    #[test]
    fn text_answers_agree_with_the_reference(seed in any::<u64>(), keep in 35u32..95) {
        let (input, output) = alphabets();
        let mut rng = StdRng::seed_from_u64(seed);
        let m = random_partial_dtop(&mut rng, &input, &output, &config(), keep);
        let guard = domain_guard(&m).unwrap();
        let trees = workload(&input, &mut rng);
        let docs: Vec<String> = trees.iter().map(Tree::to_string).collect();
        let engine = Engine::default();
        for validate in [false, true] {
            let want: Answers = trees
                .iter()
                .map(|t| match walk_eval(&m, t) {
                    Some(out) => Ok(out.to_string()),
                    None if validate => Err(EngineError::Type(guard.check_tree(t).unwrap_err())),
                    None => Err(EngineError::Undefined),
                })
                .collect();
            for mode in MODES {
                let (batch, bytes) = run_text(&engine, &m, &docs, mode, validate);
                for (k, doc) in docs.iter().enumerate() {
                    prop_assert_eq!(&batch[k], &want[k], "{:?} validate={} on {}", mode, validate, doc);
                    prop_assert_eq!(&bytes[k], &want[k], "run_doc {:?} validate={} on {}", mode, validate, doc);
                }
            }
        }
    }

    /// Random total (so often copying) dtops under a small output bound:
    /// `tree` mode answers exactly the reference output, or
    /// `OutputTooLarge` with its shared, saturating size; `stream` mode
    /// the same output, or `OutputTooLarge` past the bound.
    #[test]
    fn copying_under_an_output_bound(seed in any::<u64>()) {
        let (input, output) = alphabets();
        let mut rng = StdRng::seed_from_u64(seed);
        let m = random_total_dtop(&mut rng, &input, &output, &config());
        let trees = workload(&input, &mut rng);
        let docs: Vec<String> = trees.iter().map(Tree::to_string).collect();
        let limit = 10;
        let engine = Engine::new(EngineOptions {
            max_output_nodes: Some(limit),
            ..EngineOptions::default()
        });
        for validate in [false, true] {
            for mode in MODES {
                let (batch, bytes) = run_text(&engine, &m, &docs, mode, validate);
                for (k, t) in trees.iter().enumerate() {
                    let reference = walk_eval(&m, t).expect("total");
                    prop_assert_eq!(&batch[k], &bytes[k], "{:?} on {}", mode, t);
                    match (&batch[k], mode) {
                        (Ok(text), _) => {
                            prop_assert!(reference.size() <= limit, "{:?} on {}", mode, t);
                            prop_assert_eq!(text, &reference.to_string());
                        }
                        (Err(EngineError::OutputTooLarge(n)), EvalMode::Compiled) => {
                            prop_assert_eq!(*n, reference.size(), "on {}", t);
                            prop_assert!(*n > limit);
                        }
                        (Err(EngineError::OutputTooLarge(n)), EvalMode::Streaming) => {
                            prop_assert!(*n > limit && reference.size() > limit, "on {}", t);
                        }
                        (Err(e), _) => prop_assert!(false, "{:?} on {}: {}", mode, t, e),
                    }
                }
            }
        }
    }
}
