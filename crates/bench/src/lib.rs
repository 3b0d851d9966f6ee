//! Shared experiment logic for the PODS 2010 reproduction.
//!
//! Every table/figure-equivalent artifact of the paper is regenerated by
//! a function here; the `exp_*` binaries print the tables (README,
//! "Experiments"), and each row type's `json()` is what they write to
//! `BENCH_*.json` and as `exp_json`'s lines.

use std::time::{Duration, Instant};

use serde_json::{json, Value};
use xtt_core::{characteristic_sample, rpni_dtop, Sample};
use xtt_transducer::{canonical_form, eval, same_canonical, Canonical};
use xtt_trees::{FPath, Tree, TreeDag};

pub mod engine_exp;
pub mod exps;
pub mod families;
pub mod fcns_index;
pub mod obs_exp;
pub mod pipeline_exp;
pub mod serve_exp;
pub mod stream_exp;
pub mod typecheck_exp;
pub mod unranked_exp;
pub mod xml_exp;

/// One row of a learning experiment.
#[derive(Debug, Clone)]
pub struct LearnRow {
    /// Family parameter (k, n, …).
    pub param: usize,
    /// States of `min(τ)`.
    pub states: usize,
    /// Rules of `min(τ)`.
    pub rules: usize,
    /// Size `|min(τ)|` (axiom + rhs nodes).
    pub transducer_size: usize,
    /// Characteristic-sample cardinality.
    pub sample_pairs: usize,
    /// Characteristic-sample total node count.
    pub sample_nodes: u64,
    /// Wall time of sample generation.
    pub gen_micros: u128,
    /// Wall time of `RPNIdtop`.
    pub learn_micros: u128,
    /// Whether the learned transducer equals `min(τ)` canonically.
    pub identified: bool,
}

impl LearnRow {
    /// `self` as a JSON object, its fields in declaration order.
    pub fn json(&self) -> Value {
        json!({
            "param": self.param,
            "states": self.states,
            "rules": self.rules,
            "transducer_size": self.transducer_size,
            "sample_pairs": self.sample_pairs,
            "sample_nodes": self.sample_nodes,
            "gen_micros": self.gen_micros,
            "learn_micros": self.learn_micros,
            "identified": self.identified,
        })
    }
}

/// Runs the full teach-and-learn loop for one canonical target.
pub fn learn_roundtrip(param: usize, target: &Canonical) -> LearnRow {
    let t0 = Instant::now();
    let sample = characteristic_sample(target).expect("sample generation");
    let gen = t0.elapsed();
    let (learned, learn_time) =
        time(|| rpni_dtop(&sample, &target.domain, target.dtop.output()).expect("learning"));
    let got = canonical_form(&learned.dtop, Some(&target.domain)).expect("canonicalize learned");
    LearnRow {
        param,
        states: target.dtop.state_count(),
        rules: target.dtop.rule_count(),
        transducer_size: target.dtop.size(),
        sample_pairs: sample.len(),
        sample_nodes: sample.total_size(),
        gen_micros: gen.as_micros(),
        learn_micros: learn_time.as_micros(),
        identified: same_canonical(target, &got),
    }
}

/// Times a closure.
pub fn time<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed())
}

/// One row of the DAG-compression experiment (E6).
#[derive(Debug, Clone)]
pub struct DagRow {
    pub height: u32,
    pub input_size: u64,
    pub output_tree_size: u64,
    pub output_dag_size: u64,
    pub compression: f64,
    pub eval_micros: u128,
    pub dag_micros: u128,
}

impl DagRow {
    /// `self` as a JSON object, its fields in declaration order.
    pub fn json(&self) -> Value {
        json!({
            "height": self.height,
            "input_size": self.input_size,
            "output_tree_size": self.output_tree_size,
            "output_dag_size": self.output_dag_size,
            "compression": self.compression,
            "eval_micros": self.eval_micros,
            "dag_micros": self.dag_micros,
        })
    }
}

/// Runs the monadic-input → full-binary-output pipeline at one height.
pub fn dag_row(height: u32) -> DagRow {
    let fix = xtt_transducer::examples::monadic_to_binary();
    let mut input = Tree::leaf_named("e");
    for _ in 0..height {
        input = Tree::node("f", vec![input]);
    }
    let (output, eval_time) = time(|| eval(&fix.dtop, &input).expect("total"));
    let (stats, dag_time) = time(|| {
        let mut dag = TreeDag::new();
        let id = dag.insert(&output);
        dag.stats(id)
    });
    DagRow {
        height,
        input_size: input.size(),
        output_tree_size: stats.tree_size,
        output_dag_size: stats.dag_size,
        compression: stats.compression_ratio(),
        eval_micros: eval_time.as_micros(),
        dag_micros: dag_time.as_micros(),
    }
}

/// Helper: the least io-path residual function of a sample, as a sorted
/// rendering (used by the fc/ns impossibility experiment).
pub fn residual_signature(sample: &Sample, u: &FPath, v: &FPath) -> Vec<(String, String)> {
    let mut rows: Vec<(String, String)> = sample
        .residual(u, v)
        .into_iter()
        .map(|(a, b)| (a.to_string(), b.to_string()))
        .collect();
    rows.sort();
    rows.dedup();
    rows
}

/// Pretty-prints a markdown table.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let line = |cells: &[String]| {
        let padded: Vec<String> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:width$}", c, width = widths[i]))
            .collect();
        println!("| {} |", padded.join(" | "));
    };
    line(&headers.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    let seps: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
    line(&seps);
    for row in rows {
        line(row);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xtt_transducer::examples;

    #[test]
    fn learn_roundtrip_reports_identification() {
        let fix = examples::flip();
        let target = canonical_form(&fix.dtop, Some(&fix.domain)).unwrap();
        let row = learn_roundtrip(0, &target);
        assert!(row.identified);
        assert_eq!(row.states, 4);
        assert_eq!(row.rules, 6);
        assert!(row.sample_pairs >= 4);
    }

    #[test]
    fn dag_row_shapes() {
        let row = dag_row(10);
        assert_eq!(row.output_tree_size, (1 << 11) - 1);
        assert_eq!(row.output_dag_size, 11);
        assert!(row.compression > 100.0);
    }
}
