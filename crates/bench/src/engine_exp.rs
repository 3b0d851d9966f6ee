//! E10 — throughput of the `xtt-engine` execution layers vs the research
//! evaluator, on the established bench families (flip / library / copying).
//!
//! Run by the `exp_e10_engine` binary, which also writes
//! `BENCH_engine.json`.

use std::hint::black_box;
use std::time::{Duration, Instant};

use serde::Serialize;
use xtt_engine::{compile, CompiledDtop, EvalScratch, StreamEvaluator};
use xtt_transducer::{eval as walk_eval, examples, Dtop};
use xtt_trees::Tree;

/// One benchmark corpus: a transducer plus documents in its domain.
pub struct EngineWorkload {
    pub family: &'static str,
    pub param: usize,
    pub dtop: Dtop,
    pub docs: Vec<Tree>,
}

/// The standard E10 workloads.
pub fn engine_workloads() -> Vec<EngineWorkload> {
    let mut out = Vec::new();
    for n in [10usize, 100] {
        out.push(EngineWorkload {
            family: "flip",
            param: n,
            dtop: examples::flip().dtop,
            docs: (0..200)
                .map(|i| examples::flip_input(n + i % 7, n + i % 5))
                .collect(),
        });
    }
    out.push(EngineWorkload {
        family: "library",
        param: 20,
        dtop: examples::library().dtop,
        docs: (1..=60)
            .map(|i| examples::library_input(i % 20 + 1))
            .collect(),
    });
    out.push(EngineWorkload {
        family: "copying",
        param: 18,
        dtop: examples::monadic_to_binary().dtop,
        docs: (0..100)
            .map(|i| {
                let mut t = Tree::leaf_named("e");
                for _ in 0..(i % 18 + 1) {
                    t = Tree::node("f", vec![t]);
                }
                t
            })
            .collect(),
    });
    out
}

/// One row of the E10 table.
#[derive(Debug, Clone, Serialize)]
pub struct EngineRow {
    pub family: String,
    pub param: usize,
    pub docs: usize,
    pub input_nodes: u64,
    /// Wall time of one corpus pass per evaluator, best of several.
    pub walk_micros: u128,
    pub compiled_micros: u128,
    pub stream_micros: u128,
    pub speedup_compiled: f64,
    pub speedup_stream: f64,
    pub compiled_docs_per_sec: f64,
    pub compiled_mnodes_per_sec: f64,
}

fn best_of(rounds: usize, mut f: impl FnMut()) -> Duration {
    let mut best = Duration::MAX;
    for _ in 0..rounds {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed());
    }
    best
}

/// Times all three evaluators over one workload (corpus passes, best of
/// `rounds`; every output is consumed through `black_box`).
pub fn engine_row(w: &EngineWorkload, rounds: usize) -> EngineRow {
    let compiled: CompiledDtop = compile(&w.dtop).expect("compilable");
    let mut scratch = EvalScratch::new();
    let mut stream = StreamEvaluator::new();
    let input_nodes: u64 = w.docs.iter().map(Tree::size).sum();

    let walk = best_of(rounds, || {
        for d in &w.docs {
            black_box(walk_eval(&w.dtop, d).map(|t| t.height()));
        }
    });
    let comp = best_of(rounds, || {
        for d in &w.docs {
            black_box(compiled.eval(d, &mut scratch).map(|t| t.height()));
        }
    });
    let strm = best_of(rounds, || {
        for d in &w.docs {
            black_box(stream.eval_tree(&compiled, d).map(|t| t.height()));
        }
    });

    let secs = comp.as_secs_f64().max(1e-9);
    EngineRow {
        family: w.family.to_owned(),
        param: w.param,
        docs: w.docs.len(),
        input_nodes,
        walk_micros: walk.as_micros(),
        compiled_micros: comp.as_micros(),
        stream_micros: strm.as_micros(),
        speedup_compiled: walk.as_secs_f64() / secs,
        speedup_stream: walk.as_secs_f64() / strm.as_secs_f64().max(1e-9),
        compiled_docs_per_sec: w.docs.len() as f64 / secs,
        compiled_mnodes_per_sec: input_nodes as f64 / secs / 1e6,
    }
}

/// E10 — compiled/streaming engine vs tree-walk evaluation.
pub fn run_e10() -> Vec<EngineRow> {
    println!("\n== E10: xtt-engine throughput (walk vs compiled vs streaming) ==");
    let rows: Vec<EngineRow> = engine_workloads()
        .iter()
        .map(|w| engine_row(w, 5))
        .collect();
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                format!("{}_{}", r.family, r.param),
                r.docs.to_string(),
                r.input_nodes.to_string(),
                r.walk_micros.to_string(),
                r.compiled_micros.to_string(),
                r.stream_micros.to_string(),
                format!("{:.1}x", r.speedup_compiled),
                format!("{:.1}x", r.speedup_stream),
                format!("{:.0}", r.compiled_docs_per_sec),
                format!("{:.1}", r.compiled_mnodes_per_sec),
            ]
        })
        .collect();
    crate::print_table(
        &[
            "workload",
            "docs",
            "nodes",
            "walk µs",
            "compiled µs",
            "stream µs",
            "speedup(c)",
            "speedup(s)",
            "docs/s(c)",
            "Mnodes/s(c)",
        ],
        &table,
    );
    println!("shape check: compiled ≥ 3x the tree-walk evaluator on every family.");
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_rows_have_consistent_shapes() {
        // One cheap round on a trimmed corpus: the three layers must all
        // have run (non-zero time) on non-empty corpora.
        let mut w = engine_workloads().remove(0);
        w.docs.truncate(10);
        let row = engine_row(&w, 1);
        assert_eq!(row.docs, 10);
        assert!(row.input_nodes > 0);
        assert!(row.compiled_docs_per_sec > 0.0);
    }
}
