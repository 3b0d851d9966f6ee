//! E10 — engine throughput: tree-walk vs compiled vs streaming
//! evaluation on the flip / library / copying families. Prints the
//! comparison table and writes `BENCH_engine.json` (one row per workload)
//! for downstream tracking.
//!
//! ```console
//! $ cargo run --release -p xtt-bench --bin exp_e10_engine
//! ```

use xtt_bench::engine_exp::{run_e10, EngineRow};

fn main() {
    let rows = run_e10();
    let json = serde_json::json!({
        "experiment": "E10",
        "description": "xtt-engine throughput: walk vs compiled vs streaming (corpus pass, best-of-5)",
        "rows": rows.iter().map(EngineRow::json).collect::<Vec<_>>(),
    });
    let path = "BENCH_engine.json";
    match std::fs::write(path, format!("{json}\n")) {
        Ok(()) => println!("\nwrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
    let min = rows
        .iter()
        .map(|r| r.speedup_compiled)
        .fold(f64::INFINITY, f64::min);
    println!("minimum compiled speedup over tree-walk: {min:.1}x (target ≥ 3x)");
}
