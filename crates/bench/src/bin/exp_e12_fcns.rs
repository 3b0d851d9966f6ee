//! E12 — streaming vs materializing unranked-XML encoders (fc/ns and
//! DTD): corpus throughput, events/sec, and peak live nodes. Prints the
//! table and writes `BENCH_fcns.json` for downstream tracking.
//!
//! ```console
//! $ cargo run --release -p xtt-bench --bin exp_e12_fcns
//! ```

use xtt_bench::unranked_exp::{run_e12, UnrankedRow};

fn main() {
    let rows = run_e12();
    let json = serde_json::json!({
        "experiment": "E12",
        "description": "xtt-unranked: streaming encode vs materialize-then-encode (corpus pass, best-of-5), with peak live nodes",
        "rows": rows.iter().map(UnrankedRow::json).collect::<Vec<_>>(),
    });
    let path = "BENCH_fcns.json";
    match std::fs::write(path, format!("{json}\n")) {
        Ok(()) => println!("\nwrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
    let min_deep = rows
        .iter()
        .filter(|r| r.deep)
        .map(|r| r.speedup)
        .fold(f64::INFINITY, f64::min);
    let max_peak = rows.iter().map(|r| r.peak_live_stream).max().unwrap_or(0);
    println!("minimum streaming speedup on deep corpora: {min_deep:.2}x (target ≥ 1.5x)");
    println!("maximum streaming peak live frames: {max_peak} (O(depth), never document size)");
    if min_deep < 1.5 {
        eprintln!("WARNING: streaming speedup below the 1.5x target");
        std::process::exit(1);
    }
}
