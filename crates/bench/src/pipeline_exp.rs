//! E17 — pipeline execution: the plan's statically composed machine vs
//! the stage-by-stage chain of the compiled original stages, both through
//! the engine's public `run_batch` core under the plan's guard (XML in /
//! XML out), on 2- and 3-stage pipelines. The gate checks that the plan
//! keeps up with the chain it replaces; the experiment also reports the
//! jump-table shrink a fixed input schema buys via stage specialization.

use std::sync::Arc;
use std::time::Instant;

use serde::Serialize;
use xtt_engine::{
    compile, tree_to_xml, ChainStage, DocFormat, Engine, EngineOptions, EvalMode, Request,
};
use xtt_pipeline::{plan, StageDef, StrategyChoice};
use xtt_transducer::{domain_dtta, parse_dtop};
use xtt_trees::{gen, RankedAlphabet};
use xtt_typecheck::CompiledDtta;

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

/// Stage 3: drop every `v` wrapper (a deleting stage: the stage-by-stage
/// chain still produces the wrappers stage 3 then consumes, while the
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

/// One measured (pipeline × runner × eval-mode) cell; `runner` is
/// `plan` (the composed machine) or `chain` (the stages one by one).
#[derive(Debug, Clone, Serialize)]
pub struct E17Row {
    pub pipeline: &'static str,
    pub stages: usize,
    pub runner: &'static str,
    pub mode: &'static str,
    pub docs: usize,
    pub bytes: u64,
    pub best_ns: u64,
    pub docs_per_sec: f64,
    pub mb_per_sec: f64,
}

/// The gate row for one pipeline: the plan against the chain in
/// streaming mode, the serving hot path.
#[derive(Debug, Clone, Serialize)]
pub struct E17Gate {
    pub pipeline: &'static str,
    pub plan_docs_per_sec: f64,
    pub chain_docs_per_sec: f64,
    /// Plan throughput relative to the chain's (≥ 1.0: the composed
    /// machine is at least as fast).
    pub plan_fraction_of_chain: f64,
}

#[derive(Debug, Clone, Serialize)]
pub struct E17Schema {
    pub jump_entries_unspecialized: usize,
    pub jump_entries_specialized: usize,
    pub jump_table_shrink_pct: f64,
}

pub struct E17Options {
    /// Timed rounds per cell (best-of is reported); the plan's and the
    /// chain's rounds alternate, so host drift hits both alike.
    pub rounds: usize,
}

impl Default for E17Options {
    fn default() -> E17Options {
        E17Options { rounds: 30 }
    }
}

fn stage(name: &str, text: &str) -> StageDef {
    StageDef {
        name: name.to_owned(),
        dtop: Arc::new(parse_dtop(text).unwrap()),
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

/// Runs the corpus through each of `runners` under `guard`, one
/// sequential `run_batch` per round (one warm worker, so the rounds time
/// the machines rather than per-call set-up), the runners' rounds
/// alternating. Asserts acceptance and returns each runner's best round
/// in nanoseconds.
fn measure(
    runners: [&[ChainStage]; 2],
    guard: &CompiledDtta,
    mode: EvalMode,
    docs: &[String],
    rounds: usize,
) -> [u64; 2] {
    let engine = Engine::new(EngineOptions {
        workers: 1,
        ..EngineOptions::default()
    });
    let run = |stages| {
        engine.run_batch(
            docs,
            Request::new(stages, Some(guard), &DocFormat::Xml, mode),
        )
    };
    // Warm-up + acceptance check.
    for stages in runners {
        for (doc, out) in docs.iter().zip(run(stages)) {
            let out = out.unwrap_or_else(|e| panic!("{mode:?} rejected {doc}: {e}"));
            assert!(!out.is_empty());
        }
    }
    let mut best = [u64::MAX; 2];
    for round in 0..rounds {
        for i in [round % 2, 1 - round % 2] {
            let start = Instant::now();
            std::hint::black_box(run(runners[i]));
            best[i] = best[i].min(start.elapsed().as_nanos() as u64);
        }
    }
    best
}

const MODES: [(EvalMode, &str); 2] = [
    (EvalMode::Compiled, "compiled"),
    (EvalMode::Streaming, "stream"),
];

pub fn run_e17(opts: &E17Options) -> (Vec<E17Row>, Vec<E17Gate>, E17Schema) {
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
    let mut gates = Vec::new();
    for (name, stages) in &pipelines {
        let p = plan(stages, None, StrategyChoice::Auto).unwrap();
        let chain: Vec<ChainStage> = stages
            .iter()
            .map(|s| ChainStage {
                compiled: Arc::new(compile(&s.dtop).unwrap()),
            })
            .collect();
        let mut stream_docs_per_sec = [0.0f64; 2]; // [plan, chain]
        for (mode, mode_name) in MODES {
            let runners = [p.exec_stages(), &chain[..]];
            let best = measure(runners, p.guard(), mode, &docs, opts.rounds);
            for (i, runner) in ["plan", "chain"].into_iter().enumerate() {
                let secs = best[i] as f64 / 1e9;
                let row = E17Row {
                    pipeline: name,
                    stages: stages.len(),
                    runner,
                    mode: mode_name,
                    docs: docs.len(),
                    bytes,
                    best_ns: best[i],
                    docs_per_sec: docs.len() as f64 / secs,
                    mb_per_sec: bytes as f64 / 1e6 / secs,
                };
                if mode_name == "stream" {
                    stream_docs_per_sec[i] = row.docs_per_sec;
                }
                rows.push(row);
            }
        }
        let [plan_dps, chain_dps] = stream_docs_per_sec;
        gates.push(E17Gate {
            pipeline: name,
            plan_docs_per_sec: plan_dps,
            chain_docs_per_sec: chain_dps,
            plan_fraction_of_chain: plan_dps / chain_dps,
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

    (rows, gates, schema_report)
}

pub fn print_e17(rows: &[E17Row], gates: &[E17Gate], schema: &E17Schema) {
    println!(
        "{:<18} {:>6} {:>9} {:>9} {:>7} {:>12} {:>10}",
        "pipeline", "stages", "runner", "mode", "docs", "docs/s", "MB/s"
    );
    for r in rows {
        println!(
            "{:<18} {:>6} {:>9} {:>9} {:>7} {:>12.0} {:>10.2}",
            r.pipeline, r.stages, r.runner, r.mode, r.docs, r.docs_per_sec, r.mb_per_sec
        );
    }
    for g in gates {
        println!(
            "{}: plan {:.0} docs/s vs chain {:.0} docs/s ({:.1}% of the chain)",
            g.pipeline,
            g.plan_docs_per_sec,
            g.chain_docs_per_sec,
            100.0 * g.plan_fraction_of_chain
        );
    }
    println!(
        "schema specialization: jump entries {} -> {} ({:.1}% shrink)",
        schema.jump_entries_unspecialized,
        schema.jump_entries_specialized,
        schema.jump_table_shrink_pct
    );
}
