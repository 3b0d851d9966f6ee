//! E17 — pipeline execution: the plan's composed machine vs the
//! stage-by-stage chain of the compiled stages on 2- and 3-stage
//! pipelines, plus the schema-specialization jump-table shrink. Writes
//! `BENCH_pipeline.json` and enforces the gate: the plan must deliver at
//! least 90 % of the chain's full-corpus streaming throughput on every
//! pipeline.
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
        "description": "pipeline execution: the plan's statically composed dtop vs the stage-by-stage chain of the compiled stages, both through Engine::run_batch under the plan's chain guard (XML), best-of-rounds over a deterministic corpus; gate: plan vs chain streaming throughput; jump-table shrink from fixed-input-schema stage specialization",
        "rows": rows,
        "gate": gates,
        "schema_specialization": schema,
        "gate_min_plan_fraction_of_chain": 0.9,
    });
    let path = "BENCH_pipeline.json";
    match std::fs::write(path, format!("{json}\n")) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }

    // The gate: a pipeline runs as its composed machine, so that machine
    // must keep up with the chain it replaces (within noise — it may not
    // trail the chain by more than 10 % streaming throughput).
    let mut failed = false;
    for g in &gates {
        if g.plan_fraction_of_chain < 0.9 {
            eprintln!(
                "WARNING: {} plan at {:.1}% of the chain's streaming throughput",
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
