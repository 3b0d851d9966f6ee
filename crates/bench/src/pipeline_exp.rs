//! E17 — pipeline execution: the plan's statically composed machine vs
//! the compiled original stages run one after another, both through the
//! engine's public `run_batch` core (XML in / XML out), on 2- and 3-stage
//! pipelines. The plan is one batch under its guard; the baseline is one
//! batch per stage — stage 1 under the plan's guard, every later stage
//! reading the previous stage's XML output. The gate checks that the plan
//! is at least as fast as that baseline; the experiment also reports the
//! jump-table shrink a fixed input schema buys via stage specialization.

use std::sync::Arc;
use std::time::Instant;

use serde_json::{json, Value};
use xtt_engine::{compile, tree_to_xml, CompiledDtop, DocFormat, Engine, EvalMode, Request};
use xtt_pipeline::{plan, Plan, StageDef, StrategyChoice};
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

/// Stage 3: drop every `v` wrapper (a deleting stage: run stage by stage,
/// stage 2 still writes the wrappers stage 3 then consumes, while the
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
/// `plan` (the composed machine) or `chain` (the stages run one after
/// another, one batch per stage).
#[derive(Debug, Clone)]
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

impl E17Row {
    /// `self` as a JSON object, its fields in declaration order.
    pub fn json(&self) -> Value {
        json!({
            "pipeline": self.pipeline,
            "stages": self.stages,
            "runner": self.runner,
            "mode": self.mode,
            "docs": self.docs,
            "bytes": self.bytes,
            "best_ns": self.best_ns,
            "docs_per_sec": self.docs_per_sec,
            "mb_per_sec": self.mb_per_sec,
        })
    }
}

/// The gate row for one pipeline: the plan against the stage-by-stage
/// baseline in streaming mode, the serving hot path.
#[derive(Debug, Clone)]
pub struct E17Gate {
    pub pipeline: &'static str,
    pub plan_docs_per_sec: f64,
    /// The stage-by-stage baseline's throughput.
    pub chain_docs_per_sec: f64,
    /// Plan throughput relative to the baseline's (≥ 1.0: the composed
    /// machine is at least as fast).
    pub plan_fraction_of_chain: f64,
}

impl E17Gate {
    /// `self` as a JSON object, its fields in declaration order.
    pub fn json(&self) -> Value {
        json!({
            "pipeline": self.pipeline,
            "plan_docs_per_sec": self.plan_docs_per_sec,
            "chain_docs_per_sec": self.chain_docs_per_sec,
            "plan_fraction_of_chain": self.plan_fraction_of_chain,
        })
    }
}

#[derive(Debug, Clone)]
pub struct E17Schema {
    pub jump_entries_unspecialized: usize,
    pub jump_entries_specialized: usize,
    pub jump_table_shrink_pct: f64,
}

impl E17Schema {
    /// `self` as a JSON object, its fields in declaration order.
    pub fn json(&self) -> Value {
        json!({
            "jump_entries_unspecialized": self.jump_entries_unspecialized,
            "jump_entries_specialized": self.jump_entries_specialized,
            "jump_table_shrink_pct": self.jump_table_shrink_pct,
        })
    }
}

pub struct E17Options {
    /// Timed rounds per cell (best-of is reported); the plan's and the
    /// baseline's rounds alternate, so host drift hits both alike.
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

/// The baseline: `stages` run one after another, one `run_batch` per
/// stage over the whole corpus — stage 1 under `guard`, every later
/// stage reading the previous stage's XML output. Every document must
/// pass every stage.
fn stage_by_stage(
    engine: &Engine,
    stages: &[CompiledDtop],
    guard: &CompiledDtta,
    mode: EvalMode,
    docs: &[String],
) -> Vec<String> {
    let mut guard = Some(guard);
    let mut texts: Vec<String> = Vec::new();
    for (i, machine) in stages.iter().enumerate() {
        let input = if i == 0 { docs } else { &texts };
        let req = Request::new(machine, guard.take(), &DocFormat::Xml, mode);
        texts = engine
            .run_batch(input, req)
            .into_iter()
            .map(|out| out.unwrap_or_else(|e| panic!("{mode:?}: stage {} rejected: {e}", i + 1)))
            .collect();
    }
    texts
}

/// Runs the corpus through the plan (one sequential `run_batch` under its
/// guard) and through [`stage_by_stage`], one warm worker each so the
/// rounds time the machines rather than per-call set-up, the two runners'
/// rounds alternating. Asserts that both produce the same bytes and
/// returns each runner's best round in nanoseconds, `[plan, baseline]`.
fn measure(
    plan: &Plan,
    stages: &[CompiledDtop],
    mode: EvalMode,
    docs: &[String],
    rounds: usize,
) -> [u64; 2] {
    let engine = Engine::default();
    let run_plan = || {
        let req = Request::new(plan.machine(), Some(plan.guard()), &DocFormat::Xml, mode);
        engine.run_batch(docs, req)
    };
    let run_stages = || stage_by_stage(&engine, stages, plan.guard(), mode, docs);
    // Warm-up + agreement check.
    for ((doc, got), want) in docs.iter().zip(run_plan()).zip(run_stages()) {
        let got = got.unwrap_or_else(|e| panic!("{mode:?} rejected {doc}: {e}"));
        assert_eq!(got, want, "{mode:?}: plan and stages disagree on {doc}");
    }
    let mut best = [u64::MAX; 2];
    for round in 0..rounds {
        for i in [round % 2, 1 - round % 2] {
            let start = Instant::now();
            if i == 0 {
                std::hint::black_box(run_plan());
            } else {
                std::hint::black_box(run_stages());
            }
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
        let compiled: Vec<CompiledDtop> =
            stages.iter().map(|s| compile(&s.dtop).unwrap()).collect();
        let mut stream_docs_per_sec = [0.0f64; 2]; // [plan, baseline]
        for (mode, mode_name) in MODES {
            let best = measure(&p, &compiled, mode, &docs, opts.rounds);
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
            "{}: plan {:.0} docs/s vs stage by stage {:.0} docs/s ({:.1}% of the stages)",
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
