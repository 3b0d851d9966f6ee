//! E17 — pipeline execution: the plan's composed machine vs the compiled
//! stages run one after another (one batch per stage, each later stage
//! reading the previous stage's XML output) on 2- and 3-stage pipelines,
//! plus the schema-specialization jump-table shrink. Writes
//! `BENCH_pipeline.json` and enforces the gate: the plan must deliver at
//! least the stage-by-stage baseline's full-corpus streaming throughput
//! on every pipeline.
//!
//! ```console
//! $ cargo run --release -p xtt-bench --bin exp_e17_pipeline
//! ```

use xtt_bench::pipeline_exp::{print_e17, run_e17, E17Options};

fn main() {
    let opts = E17Options::default();
    let (rows, gates, schema) = run_e17(&opts);
    print_e17(&rows, &gates, &schema);

    let json = serde_json::json!({
        "experiment": "E17",
        "description": "pipeline execution: the plan's statically composed dtop (one Engine::run_batch under the plan's chain guard) vs the compiled stages run one after another (runner 'chain': one Engine::run_batch per stage over the corpus, stage 1 under the plan's guard, each later stage reading the previous stage's XML output), best-of-rounds over a deterministic corpus; gate: plan vs that baseline's streaming throughput; jump-table shrink from fixed-input-schema stage specialization",
        "rows": rows,
        "gate": gates,
        "schema_specialization": schema,
        "gate_min_plan_fraction_of_chain": 1.0,
    });
    let path = "BENCH_pipeline.json";
    match std::fs::write(path, format!("{json}\n")) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }

    // The gate: a pipeline runs as its composed machine, so that machine
    // must be at least as fast as running its stages one after another.
    let mut failed = false;
    for g in &gates {
        if g.plan_fraction_of_chain < 1.0 {
            eprintln!(
                "WARNING: {} plan at {:.1}% of the stage-by-stage streaming throughput",
                g.pipeline,
                100.0 * g.plan_fraction_of_chain
            );
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
}
