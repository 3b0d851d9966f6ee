//! E17 — pipeline execution strategies: the statically composed product
//! vs the chained streaming cascade, through the engine's public
//! `run_batch` core (guarded, XML in / XML out), on 2- and
//! 3-stage pipelines. Also reports the jump-table shrink a fixed input
//! schema buys via stage specialization, and checks the planner's
//! probe-based chooser against the full-corpus measurement.

use std::time::Instant;

use serde::Serialize;
use xtt_engine::{tree_to_xml, DocFormat, Engine, EngineOptions, EvalMode, Request};
use xtt_pipeline::{plan, Plan, StageDef, Strategy, StrategyChoice};
use xtt_transducer::{domain_dtta, parse_dtop};
use xtt_trees::{gen, RankedAlphabet};

/// Stage 1: swap the children of every `f` (total over {f, g, a}). The
/// dedicated below-`f` state `qf` exists so a schema that forbids `f`
/// kills a whole state, not just a rule — the jump-table shrink the
/// specialization report measures.
const SWAP: &str = "ax = <q,x0>\n\
                    q(f(x1,x2)) -> f(<qf,x2>,<qf,x1>)\n\
                    q(g(x1)) -> g(<q,x1>)\n\
                    q(a) -> a\n\
                    qf(f(x1,x2)) -> f(<qf,x2>,<qf,x1>)\n\
                    qf(g(x1)) -> g(<qf,x1>)\n\
                    qf(a) -> a\n";

/// Stage 2: relabel into a fresh alphabet, double-wrapping `g`.
const WRAP: &str = "ax = <r,x0>\n\
                    r(f(x1,x2)) -> u(<r,x1>,<r,x2>)\n\
                    r(g(x1)) -> v(v(<r,x1>))\n\
                    r(a) -> c\n";

/// Stage 3: drop every `v` wrapper (a deleting stage: the chained
/// cascade still produces the wrappers stage 3 then consumes, while the
/// composed product never emits them at all).
const UNWRAP: &str = "ax = <s,x0>\n\
                      s(u(x1,x2)) -> m(<s,x1>,<s,x2>)\n\
                      s(v(x1)) -> <s,x1>\n\
                      s(c) -> x\n";

/// The schema for the specialization report: monadic `g…g(a)` chains
/// only, so every `f` rule (and everything it alone emits) is dead.
const CHAIN_ONLY: &str = "ax = <p,x0>\n\
                          p(g(x1)) -> g(<p,x1>)\n\
                          p(a) -> a\n";

/// One measured (pipeline × strategy × eval-mode) cell.
#[derive(Debug, Clone, Serialize)]
pub struct E17Row {
    pub pipeline: &'static str,
    pub stages: usize,
    pub strategy: &'static str,
    pub mode: &'static str,
    pub docs: usize,
    pub bytes: u64,
    pub best_ns: u64,
    pub docs_per_sec: f64,
    pub mb_per_sec: f64,
}

/// The chooser audit for one pipeline: what the probe picked vs what the
/// full corpus measured (streaming mode, the serving hot path).
#[derive(Debug, Clone, Serialize)]
pub struct E17Choice {
    pub pipeline: &'static str,
    pub chosen: &'static str,
    pub composed_docs_per_sec: f64,
    pub chained_docs_per_sec: f64,
    /// Throughput of the chosen strategy relative to the faster one
    /// (1.0 = the chooser picked the winner).
    pub chosen_fraction_of_best: f64,
}

#[derive(Debug, Clone, Serialize)]
pub struct E17Schema {
    pub jump_entries_unspecialized: usize,
    pub jump_entries_specialized: usize,
    pub jump_table_shrink_pct: f64,
}

pub struct E17Options {
    /// Timed rounds per cell (best-of is reported).
    pub rounds: usize,
}

impl Default for E17Options {
    fn default() -> E17Options {
        E17Options { rounds: 5 }
    }
}

fn stage(name: &str, text: &str) -> StageDef {
    StageDef {
        name: name.to_owned(),
        dtop: std::sync::Arc::new(parse_dtop(text).unwrap()),
    }
}

/// Deterministic corpus over {f, g, a}: every small tree, plus deep
/// monadic chains and full binary combs for byte volume.
fn corpus() -> Vec<String> {
    let alpha = RankedAlphabet::from_pairs([("f", 2), ("g", 1), ("a", 0)]);
    let mut docs: Vec<String> = gen::enumerate_trees(&alpha, 300, 12)
        .iter()
        .map(tree_to_xml)
        .collect();
    for n in [64, 256] {
        docs.push(format!("{}<a/>{}", "<g>".repeat(n), "</g>".repeat(n)));
    }
    fn full(depth: usize) -> String {
        if depth == 0 {
            "<a/>".to_owned()
        } else {
            let sub = full(depth - 1);
            format!("<f>{sub}{sub}</f>")
        }
    }
    docs.push(full(7));
    docs.push(format!("<g>{}</g>", full(6)));
    docs
}

/// Runs every doc through one strategy, asserting acceptance, and
/// returns (best round ns, total output bytes of one round).
fn measure(p: &Plan, strategy: Strategy, mode: EvalMode, docs: &[String], rounds: usize) -> u64 {
    let engine = Engine::new(EngineOptions::default());
    let stages = p.stages_for(strategy);
    let run = |check: bool| {
        for doc in docs {
            let req = Request::new(stages, Some(p.guard()), &DocFormat::Xml, mode);
            let out = engine.run_batch(std::slice::from_ref(doc), req).pop();
            let out = out
                .expect("one result per document")
                .unwrap_or_else(|e| panic!("{strategy:?}/{mode:?} rejected {doc}: {e}"));
            if check {
                assert!(!out.is_empty());
            }
        }
    };
    run(true); // warm-up + acceptance check
    let mut best = u64::MAX;
    for _ in 0..rounds {
        let start = Instant::now();
        run(false);
        best = best.min(start.elapsed().as_nanos() as u64);
    }
    best
}

const MODES: [(EvalMode, &str); 2] = [
    (EvalMode::Compiled, "compiled"),
    (EvalMode::Streaming, "stream"),
];

pub fn run_e17(opts: &E17Options) -> (Vec<E17Row>, Vec<E17Choice>, E17Schema) {
    let docs = corpus();
    let bytes: u64 = docs.iter().map(|d| d.len() as u64).sum();

    let pipelines: [(&'static str, Vec<StageDef>); 2] = [
        ("swap-wrap", vec![stage("swap", SWAP), stage("wrap", WRAP)]),
        (
            "swap-wrap-unwrap",
            vec![
                stage("swap", SWAP),
                stage("wrap", WRAP),
                stage("unwrap", UNWRAP),
            ],
        ),
    ];

    let mut rows = Vec::new();
    let mut choices = Vec::new();
    for (name, stages) in &pipelines {
        let p = plan(stages, None, StrategyChoice::Auto).unwrap();
        let mut stream_docs_per_sec = [0.0f64; 2]; // [composed, chained]
        for (i, strategy) in [Strategy::Composed, Strategy::Chained]
            .into_iter()
            .enumerate()
        {
            for (mode, mode_name) in MODES {
                let best_ns = measure(&p, strategy, mode, &docs, opts.rounds);
                let secs = best_ns as f64 / 1e9;
                let row = E17Row {
                    pipeline: name,
                    stages: stages.len(),
                    strategy: strategy.as_str(),
                    mode: mode_name,
                    docs: docs.len(),
                    bytes,
                    best_ns,
                    docs_per_sec: docs.len() as f64 / secs,
                    mb_per_sec: bytes as f64 / 1e6 / secs,
                };
                if mode_name == "stream" {
                    stream_docs_per_sec[i] = row.docs_per_sec;
                }
                rows.push(row);
            }
        }
        let [composed, chained] = stream_docs_per_sec;
        let chosen = match p.strategy {
            Strategy::Composed => composed,
            Strategy::Chained => chained,
        };
        choices.push(E17Choice {
            pipeline: name,
            chosen: p.strategy.as_str(),
            composed_docs_per_sec: composed,
            chained_docs_per_sec: chained,
            chosen_fraction_of_best: chosen / composed.max(chained),
        });
    }

    // Schema specialization: restrict swap-wrap to monadic g-chains and
    // report how much of the per-stage jump tables dies.
    let schema_dtop = parse_dtop(CHAIN_ONLY).unwrap();
    let schema = domain_dtta(&schema_dtop, None);
    let sp = plan(
        &[stage("swap", SWAP), stage("wrap", WRAP)],
        Some(&schema),
        StrategyChoice::Auto,
    )
    .unwrap();
    let schema_report = E17Schema {
        jump_entries_unspecialized: sp.report.jump_entries_unspecialized,
        jump_entries_specialized: sp.report.jump_entries_specialized,
        jump_table_shrink_pct: sp.report.jump_table_shrink_pct(),
    };
    assert!(
        schema_report.jump_table_shrink_pct > 0.0,
        "g-chain schema must kill the f rules: {schema_report:?}"
    );

    (rows, choices, schema_report)
}

pub fn print_e17(rows: &[E17Row], choices: &[E17Choice], schema: &E17Schema) {
    println!(
        "{:<18} {:>6} {:>9} {:>9} {:>7} {:>12} {:>10}",
        "pipeline", "stages", "strategy", "mode", "docs", "docs/s", "MB/s"
    );
    for r in rows {
        println!(
            "{:<18} {:>6} {:>9} {:>9} {:>7} {:>12.0} {:>10.2}",
            r.pipeline, r.stages, r.strategy, r.mode, r.docs, r.docs_per_sec, r.mb_per_sec
        );
    }
    for c in choices {
        println!(
            "{}: chooser picked {} (composed {:.0} docs/s, chained {:.0} docs/s, {:.1}% of best)",
            c.pipeline,
            c.chosen,
            c.composed_docs_per_sec,
            c.chained_docs_per_sec,
            100.0 * c.chosen_fraction_of_best
        );
    }
    println!(
        "schema specialization: jump entries {} -> {} ({:.1}% shrink)",
        schema.jump_entries_unspecialized,
        schema.jump_entries_specialized,
        schema.jump_table_shrink_pct
    );
}
