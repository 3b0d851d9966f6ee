//! E11 — typecheck guard overhead on in-domain corpora and fail-fast win
//! on early-violation documents. Prints both tables and writes
//! `BENCH_typecheck.json` for downstream tracking.
//!
//! ```console
//! $ cargo run --release -p xtt-bench --bin exp_e11_typecheck
//! ```

use xtt_bench::typecheck_exp::{run_e11, FailFastRow, OverheadRow};

fn main() {
    let (overhead, failfast) = run_e11();
    let json = serde_json::json!({
        "experiment": "E11",
        "description": "xtt-typecheck: guard overhead (in-domain) and fail-fast win (early violations), best-of-5",
        "overhead": overhead.iter().map(OverheadRow::json).collect::<Vec<_>>(),
        "failfast": failfast.iter().map(FailFastRow::json).collect::<Vec<_>>(),
    });
    let path = "BENCH_typecheck.json";
    match std::fs::write(path, format!("{json}\n")) {
        Ok(()) => println!("\nwrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
    let max_overhead = overhead
        .iter()
        .map(|r| r.overhead_ratio)
        .fold(0.0f64, f64::max);
    let min_win = failfast
        .iter()
        .map(|r| r.speedup)
        .fold(f64::INFINITY, f64::min);
    println!("max guard overhead on in-domain corpora: {max_overhead:.2}x");
    println!("minimum fail-fast win on early-violation corpora: {min_win:.1}x");
}
