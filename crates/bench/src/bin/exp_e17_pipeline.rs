//! E17 — pipeline strategies: composed product vs chained streaming
//! cascade on 2- and 3-stage pipelines, plus the schema-specialization
//! jump-table shrink. Writes `BENCH_pipeline.json` and enforces the
//! chooser gate: the probe-picked strategy must deliver at least 90 % of
//! the faster strategy's full-corpus streaming throughput.
//!
//! ```console
//! $ cargo run --release -p xtt-bench --bin exp_e17_pipeline
//! ```

use xtt_bench::pipeline_exp::{print_e17, run_e17, E17Options};

fn main() {
    let opts = E17Options::default();
    let (rows, choices, schema) = run_e17(&opts);
    print_e17(&rows, &choices, &schema);

    let json = serde_json::json!({
        "experiment": "E17",
        "description": "pipeline execution strategies: statically composed dtop vs chained streaming cascade through Engine::run_batch (guarded, XML), best-of-rounds over a deterministic corpus; chooser audit against the full-corpus streaming measurement; jump-table shrink from fixed-input-schema stage specialization",
        "rows": rows,
        "chooser": choices,
        "schema_specialization": schema,
        "gate_min_chosen_fraction_of_best": 0.9,
    });
    let path = "BENCH_pipeline.json";
    match std::fs::write(path, format!("{json}\n")) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }

    // The gate: the planner's probe ranking must hold up on the full
    // corpus (within noise — the chosen strategy may not trail the
    // winner by more than 10 % streaming throughput).
    let mut failed = false;
    for c in &choices {
        if c.chosen_fraction_of_best < 0.9 {
            eprintln!(
                "WARNING: {} chooser picked {} at {:.1}% of the faster strategy",
                c.pipeline,
                c.chosen,
                100.0 * c.chosen_fraction_of_best
            );
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
}
