//! Concurrency stress: one shared [`Engine`] hammered from many threads
//! with interleaved *distinct* transducers, with the fingerprint LRU
//! sized far below the working set so every thread constantly evicts the
//! others' compiled forms. The invariant: under arbitrary interleaving,
//! eviction churn, and mode mixing, every result stays bit-identical to
//! the single-threaded research evaluator `xtt_transducer::eval`.
//!
//! Run in CI under `--release` as well — the interesting interleavings
//! only show up at speed.

use std::sync::Arc;

use xtt_engine::{DocFormat, Engine, EngineOptions, EvalMode, Request};
use xtt_transducer::{eval, examples, Dtop};
use xtt_trees::Tree;

/// A transducer plus inputs in its domain and the ground-truth outputs.
struct Case {
    dtop: Dtop,
    docs: Vec<String>,
    expected: Vec<String>,
}

fn monadic(k: usize) -> Tree {
    let mut t = Tree::leaf_named("e");
    for _ in 0..k {
        t = Tree::node("f", vec![t]);
    }
    t
}

/// `flip_k(k)` inputs: a root over `k` single-letter lists.
fn flip_k_input(k: usize, lens: &[usize]) -> Tree {
    let children = (0..k)
        .map(|i| {
            let mut list = Tree::leaf_named("#");
            for _ in 0..lens[i % lens.len()] {
                list = Tree::node(&format!("c{i}"), vec![Tree::leaf_named("#"), list]);
            }
            list
        })
        .collect();
    Tree::node("root", children)
}

fn build_cases() -> Vec<Case> {
    let mut cases = Vec::new();
    let mut push = |dtop: Dtop, inputs: Vec<Tree>| {
        let docs: Vec<String> = inputs.iter().map(Tree::to_string).collect();
        let expected: Vec<String> = inputs
            .iter()
            .map(|t| {
                eval(&dtop, t)
                    .expect("stress inputs are in the domain")
                    .to_string()
            })
            .collect();
        cases.push(Case {
            dtop,
            docs,
            expected,
        });
    };
    // Twelve structurally distinct transducers — every fingerprint
    // differs, so with an LRU of 4 the cache is always churning.
    for n in 1..=5 {
        push(
            examples::relabel_chain(n).dtop,
            (0..6).map(|k| monadic(k + n)).collect(),
        );
    }
    for k in 1..=4 {
        push(
            examples::flip_k(k).dtop,
            vec![
                flip_k_input(k, &[0, 1, 2]),
                flip_k_input(k, &[3, 0, 1]),
                flip_k_input(k, &[2, 2, 2]),
            ],
        );
    }
    push(
        examples::flip().dtop,
        (0..5).map(|i| examples::flip_input(i, 5 - i)).collect(),
    );
    push(
        examples::monadic_to_binary().dtop,
        (0..8).map(monadic).collect(),
    );
    push(
        examples::library().dtop,
        (1..5).map(examples::library_input).collect(),
    );
    assert_eq!(cases.len(), 12);
    cases
}

#[test]
fn concurrent_distinct_transducers_stay_bit_identical() {
    let cases = Arc::new(build_cases());
    // LRU far below the 12-transducer working set → constant eviction.
    let engine = Arc::new(Engine::new(EngineOptions {
        cache_capacity: 4,
        ..EngineOptions::default()
    }));
    let threads = 8;
    let iterations = if cfg!(debug_assertions) { 60 } else { 250 };
    let modes = [EvalMode::Compiled, EvalMode::Streaming];

    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let cases = Arc::clone(&cases);
            let engine = Arc::clone(&engine);
            std::thread::spawn(move || {
                let mode = modes[t % modes.len()];
                for i in 0..iterations {
                    // Each thread walks the cases in a different order so
                    // the LRU sees adversarial interleavings.
                    let case = &cases[(t * 7 + i * 5 + 3) % cases.len()];
                    // Every call resolves through the churning LRU.
                    let (machine, _) = engine.resolve(&case.dtop, false).expect("compiles");
                    let req = Request::new(&machine, None, &DocFormat::Term, mode);
                    if i % 3 == 0 {
                        // Whole-batch path (shares one compiled Arc).
                        let results = engine.run_batch(&case.docs, req);
                        for (j, r) in results.iter().enumerate() {
                            assert_eq!(
                                r.as_deref().expect("in-domain input"),
                                case.expected[j],
                                "thread {t} iter {i} doc {j} diverged"
                            );
                        }
                    } else {
                        // Single-document path.
                        let j = i % case.docs.len();
                        let mut got = Vec::new();
                        engine
                            .run_doc(&case.docs[j], &mut got, req)
                            .expect("in-domain input");
                        assert_eq!(
                            got,
                            case.expected[j].as_bytes(),
                            "thread {t} iter {i} doc {j} diverged"
                        );
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("stress thread panicked");
    }

    // The cache must actually have churned: far more misses than the 12
    // distinct transducers could explain without eviction.
    let stats = engine.cache_stats();
    assert!(stats.entries <= 4, "LRU overflowed: {}", stats.entries);
    assert!(
        stats.misses > 12,
        "no eviction churn happened (misses = {})",
        stats.misses
    );
    assert!(stats.hits > 0, "nothing ever hit the cache");
}
