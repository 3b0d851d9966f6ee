//! E16 — observability overhead: request-interleaved A/B of the E14
//! baseline_fresh workload with tracing off vs tracing every request.
//! Prints the table, verifies the Server-Timing stage reconstruction,
//! writes `BENCH_obs.json`, and enforces the ≤ 3 % overhead gate.
//!
//! ```console
//! $ cargo run --release -p xtt-bench --bin exp_e16_obs
//! ```

use xtt_bench::obs_exp::{overhead, print_e16, run_e16, E16Options};

fn main() {
    let opts = E16Options::default();
    let (rows, check) = run_e16(&opts);
    print_e16(&rows);
    println!(
        "\ntrace {}: {} (sum {:.3} ms)",
        check.trace_id,
        check
            .stages
            .iter()
            .map(|(n, ms)| format!("{n}={ms:.3}ms"))
            .collect::<Vec<_>>()
            .join(" "),
        check.stage_sum_ms
    );
    let over = overhead(&rows);
    println!(
        "tracing overhead (median over rounds of the paired slowdown): {:.2}%",
        over * 100.0
    );

    let json = serde_json::json!({
        "experiment": "E16",
        "description": "observability overhead: E14 baseline_fresh with trace_sample=0 vs trace_sample=1 (every request traced), requests alternating between the two servers, median over rounds of the per-round slowdown, plus Server-Timing stage-breakdown reconstruction",
        "rows": rows,
        "stage_check": check,
        "overhead_fraction": over,
        "gate_max_overhead_fraction": 0.03,
    });
    let path = "BENCH_obs.json";
    match std::fs::write(path, format!("{json}\n")) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }

    // The gate: tracing every request may cost at most 3 % of
    // throughput, as the median over rounds of the paired slowdown.
    // run_e16's in-run asserts already pinned zero errors, 1-in-1
    // sampling, and the stage reconstruction.
    if over > 0.03 {
        eprintln!(
            "WARNING: tracing overhead {:.2}% exceeds the 3% gate",
            over * 100.0
        );
        std::process::exit(1);
    }
}
