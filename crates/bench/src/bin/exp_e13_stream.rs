//! E13 — event-driven output emission: first-output-byte latency and
//! peak resident output state (buffered frames) of `Engine::run_doc`
//! in `stream` mode, against the `tree`-mode reference (whole output
//! tree first) on the same documents. Prints the table and writes
//! `BENCH_stream.json` for the CI gate.
//!
//! ```console
//! $ cargo run --release -p xtt-bench --bin exp_e13_stream
//! ```

use xtt_bench::stream_exp::{print_e13, run_e13, stream_workloads};

fn main() {
    let rows = run_e13(&stream_workloads(), 5);
    print_e13(&rows);
    let json = serde_json::json!({
        "experiment": "E13",
        "description": "xtt-engine: event-driven output emission (best-of-5) — first-byte latency, early-event ratio, and peak buffered output frames vs tree-at-root-close",
        "rows": rows,
    });
    let path = "BENCH_stream.json";
    match std::fs::write(path, format!("{json}\n")) {
        Ok(()) => println!("\nwrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }

    // Gate 1 (in addition to run_e13's in-run asserts): on the
    // order-preserving families the peak buffered output state must be
    // flat across the size ladder — the streaming claim of the PR.
    let max_peak = rows
        .iter()
        .filter(|r| r.order_preserving)
        .map(|r| r.peak_buffered_frames)
        .max()
        .unwrap_or(0);
    println!("maximum peak buffered frames on order-preserving corpora: {max_peak} (target 0)");

    // Gate 2: the first output byte must leave well before the document
    // completes on the largest order-preserving rungs (tree-at-root-close
    // by definition pays the whole batch time first).
    let mut slow_first_byte = false;
    for r in rows.iter().filter(|r| r.order_preserving) {
        let big = rows
            .iter()
            .filter(|o| o.family == r.family)
            .map(|o| o.param)
            .max()
            .unwrap_or(0);
        if r.param == big && r.first_byte_micros * 5 > r.total_micros.max(1) * 2 {
            eprintln!(
                "WARNING: {} n={}: first byte at {}us of {}us total (> 40%)",
                r.family, r.param, r.first_byte_micros, r.total_micros
            );
            slow_first_byte = true;
        }
    }
    if max_peak > 0 || slow_first_byte {
        eprintln!("WARNING: streaming emission gate failed");
        std::process::exit(1);
    }
}
