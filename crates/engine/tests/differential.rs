//! Differential property tests: every engine execution layer must agree
//! *exactly* with the research evaluator `xtt_transducer::eval::eval` —
//! same outputs on the domain, same `None` outside it.
//!
//! Transducers are random **partial** dtops (missing rules make random
//! inputs routinely undefined), so the tests exercise the failure
//! propagation paths as hard as the success paths. Inputs mix exhaustive
//! small-tree enumeration with random larger trees.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use xtt_engine::{compile, EvalScratch, StreamEvaluator};
use xtt_transducer::{eval as walk_eval, random_partial_dtop, random_total_dtop, RandomDtopConfig};
use xtt_trees::{gen, RankedAlphabet, Tree};

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
