//! E14 — `xtt-load`: serving traffic against the epoll front end.
//! Baseline fresh requests, the idle-heavy army (512 parked keep-alive
//! connections, 8 workers), and pipelined concurrent batches. Prints the
//! table, writes `BENCH_serve.json`, and enforces the idle-heavy gate.
//!
//! ```console
//! $ cargo run --release -p xtt-bench --bin exp_e14_serve
//! ```

use xtt_bench::serve_exp::{print_e14, run_e14, E14Options, ServeRow};

fn main() {
    let opts = E14Options::default();
    let rows = run_e14(&opts);
    print_e14(&rows);
    let json = serde_json::json!({
        "experiment": "E14",
        "description": "xtt-serve under xtt-load: fresh-request latency and throughput at baseline, behind 512 parked keep-alive connections (8 workers), and under pipelined concurrency",
        "rows": rows.iter().map(ServeRow::json).collect::<Vec<_>>(),
    });
    let path = "BENCH_serve.json";
    match std::fs::write(path, format!("{json}\n")) {
        Ok(()) => println!("\nwrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }

    // The gate: the parked army must not degrade fresh traffic. The
    // thread-per-connection design did not get this far (512 idle
    // connections pinned every worker before a fresh request ran);
    // run_e14's in-run asserts already pinned zero errors and a parked
    // army, so what is left to gate is throughput and tail latency
    // against the measured baseline — generous factors absorb CI noise.
    let baseline = rows
        .iter()
        .find(|r| r.scenario == "baseline_fresh")
        .unwrap();
    let idle = rows.iter().find(|r| r.scenario == "idle_heavy").unwrap();
    println!(
        "idle-heavy vs baseline: {:.0} vs {:.0} docs/s, p99 {} vs {} us",
        idle.docs_per_sec, baseline.docs_per_sec, idle.p99_micros, baseline.p99_micros
    );
    let mut failed = false;
    if idle.docs_per_sec < baseline.docs_per_sec / 4.0 {
        eprintln!(
            "WARNING: fresh throughput behind the idle army fell below 1/4 of baseline \
             ({:.0} vs {:.0} docs/s)",
            idle.docs_per_sec, baseline.docs_per_sec
        );
        failed = true;
    }
    let p99_ceiling = (baseline.p99_micros * 10).max(250_000);
    if idle.p99_micros > p99_ceiling {
        eprintln!(
            "WARNING: fresh p99 behind the idle army exceeded the gate \
             ({} us > {} us)",
            idle.p99_micros, p99_ceiling
        );
        failed = true;
    }
    if failed {
        eprintln!("WARNING: idle-heavy serving gate failed");
        std::process::exit(1);
    }
}
