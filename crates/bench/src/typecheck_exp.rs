//! E11 — cost and payoff of the typecheck subsystem (`xtt-typecheck`).
//!
//! Two questions, one table each:
//!
//! * **Guard overhead** — on the established in-domain corpora
//!   (flip / library / copying), how much does guarded evaluation
//!   (domain-guard pre-flight + compiled eval) cost over the unguarded
//!   compiled evaluator?
//! * **Fail-fast win** — on out-of-domain documents whose first
//!   violation sits near the front of a large document, how much work
//!   does the lockstep streaming guard save versus the materialize-first
//!   paths (full parse + eval to an opaque `None`)? Also reported: the
//!   fraction of SAX events the guard actually consumed before
//!   rejecting.
//!
//! Shared by the `exp_e11_typecheck` binary (which also writes
//! `BENCH_typecheck.json`).

use std::hint::black_box;
use std::time::{Duration, Instant};

use serde_json::{json, Value};
use xtt_engine::{
    compile, ranked_tree_from_xml_bounded, tree_to_xml, EvalScratch, GuardedSource, XmlRankedEvents,
};
use xtt_transducer::{eval as walk_eval, examples};
use xtt_trees::Tree;
use xtt_typecheck::domain_guard;

use crate::engine_exp::engine_workloads;

/// One row of the guard-overhead table.
#[derive(Debug, Clone)]
pub struct OverheadRow {
    pub family: String,
    pub param: usize,
    pub docs: usize,
    pub input_nodes: u64,
    pub guard_states: usize,
    /// Corpus pass, best of several.
    pub unguarded_micros: u128,
    pub guarded_micros: u128,
    /// `guarded / unguarded` (1.0 = free).
    pub overhead_ratio: f64,
}

impl OverheadRow {
    /// `self` as a JSON object, its fields in declaration order.
    pub fn json(&self) -> Value {
        json!({
            "family": self.family.as_str(),
            "param": self.param,
            "docs": self.docs,
            "input_nodes": self.input_nodes,
            "guard_states": self.guard_states,
            "unguarded_micros": self.unguarded_micros,
            "guarded_micros": self.guarded_micros,
            "overhead_ratio": self.overhead_ratio,
        })
    }
}

/// One row of the fail-fast table.
#[derive(Debug, Clone)]
pub struct FailFastRow {
    pub family: String,
    pub docs: usize,
    /// Total SAX events across the corpus vs what the guard consumed.
    pub events_total: u64,
    pub events_consumed: u64,
    /// Rejection by full parse + unguarded eval (opaque `None`).
    pub full_parse_micros: u128,
    /// Rejection by the lockstep streaming guard (typed, early).
    pub guarded_stream_micros: u128,
    pub speedup: f64,
}

impl FailFastRow {
    /// `self` as a JSON object, its fields in declaration order.
    pub fn json(&self) -> Value {
        json!({
            "family": self.family.as_str(),
            "docs": self.docs,
            "events_total": self.events_total,
            "events_consumed": self.events_consumed,
            "full_parse_micros": self.full_parse_micros,
            "guarded_stream_micros": self.guarded_stream_micros,
            "speedup": self.speedup,
        })
    }
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

/// Guard overhead on the in-domain E10 corpora.
pub fn overhead_rows(rounds: usize) -> Vec<OverheadRow> {
    engine_workloads()
        .iter()
        .map(|w| {
            let compiled = compile(&w.dtop).expect("compilable");
            let guard = domain_guard(&w.dtop).expect("guardable");
            let mut scratch = EvalScratch::new();
            let input_nodes: u64 = w.docs.iter().map(Tree::size).sum();
            let unguarded = best_of(rounds, || {
                for d in &w.docs {
                    black_box(compiled.eval(d, &mut scratch).map(|t| t.height()));
                }
            });
            let guarded = best_of(rounds, || {
                for d in &w.docs {
                    guard.check_tree(d).expect("in-domain corpus");
                    black_box(compiled.eval(d, &mut scratch).map(|t| t.height()));
                }
            });
            OverheadRow {
                family: w.family.to_owned(),
                param: w.param,
                docs: w.docs.len(),
                input_nodes,
                guard_states: guard.state_count(),
                unguarded_micros: unguarded.as_micros(),
                guarded_micros: guarded.as_micros(),
                overhead_ratio: guarded.as_secs_f64() / unguarded.as_secs_f64().max(1e-9),
            }
        })
        .collect()
}

/// Out-of-domain flip documents with the violation at the second node of
/// the a-list and an `n`-element tail behind it.
fn early_violation_docs(n: usize, count: usize) -> Vec<String> {
    (0..count)
        .map(|i| {
            let mut tail = examples::flip_input(0, n + i % 7);
            // Splice a b-node into the a-list: root(a(#, b(...)), blist).
            let blist = tail.children()[1].clone();
            let bad_alist = Tree::node(
                "a",
                vec![
                    Tree::leaf_named("#"),
                    Tree::node("b", vec![Tree::leaf_named("#"), Tree::leaf_named("#")]),
                ],
            );
            tail = Tree::node("root", vec![bad_alist, blist]);
            tree_to_xml(&tail)
        })
        .collect()
}

/// Fail-fast win on early-violation documents (XML, streaming).
pub fn failfast_rows(rounds: usize) -> Vec<FailFastRow> {
    let fix = examples::flip();
    let compiled = compile(&fix.dtop).unwrap();
    let guard = domain_guard(&fix.dtop).unwrap();
    let mut stream = xtt_engine::StreamEvaluator::new();
    [200usize, 2000]
        .iter()
        .map(|&n| {
            let docs = early_violation_docs(n, 50);
            let mut events_total = 0u64;
            let mut events_consumed = 0u64;
            for d in &docs {
                let t = ranked_tree_from_xml_bounded(d).unwrap();
                events_total += 2 * t.size();
                let mut run = guard.run();
                let violation = t.events().try_for_each(|event| run.feed(event));
                assert!(violation.is_err(), "corpus must be out of domain");
                events_consumed += run.events_consumed();
            }
            let full_parse = best_of(rounds, || {
                for d in &docs {
                    let t = ranked_tree_from_xml_bounded(d).unwrap();
                    black_box(walk_eval(&fix.dtop, &t).is_some());
                }
            });
            let guarded_stream = best_of(rounds, || {
                for d in &docs {
                    let mut source = GuardedSource::new(&guard, XmlRankedEvents::bounded(d));
                    black_box(stream.eval_source(&compiled, &mut source));
                    black_box(source.take_violation().is_some());
                }
            });
            FailFastRow {
                family: format!("flip_tail_{n}"),
                docs: docs.len(),
                events_total,
                events_consumed,
                full_parse_micros: full_parse.as_micros(),
                guarded_stream_micros: guarded_stream.as_micros(),
                speedup: full_parse.as_secs_f64() / guarded_stream.as_secs_f64().max(1e-9),
            }
        })
        .collect()
}

/// E11 — guard overhead and fail-fast win.
pub fn run_e11() -> (Vec<OverheadRow>, Vec<FailFastRow>) {
    println!("\n== E11: typecheck guard overhead (in-domain corpora) ==");
    let overhead = overhead_rows(5);
    let table: Vec<Vec<String>> = overhead
        .iter()
        .map(|r| {
            vec![
                format!("{}_{}", r.family, r.param),
                r.docs.to_string(),
                r.input_nodes.to_string(),
                r.guard_states.to_string(),
                r.unguarded_micros.to_string(),
                r.guarded_micros.to_string(),
                format!("{:.2}x", r.overhead_ratio),
            ]
        })
        .collect();
    crate::print_table(
        &[
            "workload",
            "docs",
            "nodes",
            "guard |Q|",
            "unguarded µs",
            "guarded µs",
            "overhead",
        ],
        &table,
    );

    println!("\n== E11: fail-fast win on early-violation documents ==");
    let failfast = failfast_rows(5);
    let table: Vec<Vec<String>> = failfast
        .iter()
        .map(|r| {
            vec![
                r.family.clone(),
                r.docs.to_string(),
                r.events_total.to_string(),
                r.events_consumed.to_string(),
                format!(
                    "{:.1}%",
                    100.0 * r.events_consumed as f64 / r.events_total as f64
                ),
                r.full_parse_micros.to_string(),
                r.guarded_stream_micros.to_string(),
                format!("{:.1}x", r.speedup),
            ]
        })
        .collect();
    crate::print_table(
        &[
            "corpus",
            "docs",
            "events",
            "consumed",
            "consumed %",
            "full-parse µs",
            "guarded µs",
            "win",
        ],
        &table,
    );
    println!("shape check: the guard consumes a small fixed prefix regardless of tail size.");
    (overhead, failfast)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failfast_corpus_rejects_early_regardless_of_tail() {
        let rows = failfast_rows(1);
        assert_eq!(rows.len(), 2);
        for row in &rows {
            assert!(row.events_consumed < row.events_total);
        }
        // The consumed prefix is constant, so the longer-tail corpus
        // consumes a strictly smaller fraction.
        let frac = |r: &FailFastRow| r.events_consumed as f64 / r.events_total as f64;
        assert!(frac(&rows[1]) < frac(&rows[0]));
    }

    #[test]
    fn overhead_rows_have_consistent_shapes() {
        let mut rows = overhead_rows(1);
        assert!(!rows.is_empty());
        let row = rows.remove(0);
        assert!(row.guard_states >= 1);
        assert!(row.guarded_micros >= 1);
    }
}
