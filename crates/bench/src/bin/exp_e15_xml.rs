//! E15 — XML tokenizer hot-path throughput: full tokenization with the
//! SIMD/SWAR structural scanner vs the scalar reference loop, over ≥1 MB
//! mixed, text-heavy, and attribute-heavy corpora. Prints the table and
//! writes `BENCH_xml.json`; exits nonzero when the mixed-corpus speedup
//! drops below the 2x gate.
//!
//! ```console
//! $ cargo run --release -p xtt-bench --bin exp_e15_xml
//! ```

use xtt_bench::xml_exp::{run_e15, XmlRow};

fn main() {
    let rows = run_e15();
    let json = serde_json::json!({
        "experiment": "E15",
        "description": "xtt-xml tokenizer: full tokenization MB/s, scalar scan vs SIMD/SWAR scan (best-of-7 over generated >=1MB corpora)",
        "rows": rows.iter().map(XmlRow::json).collect::<Vec<_>>(),
    });
    let path = "BENCH_xml.json";
    match std::fs::write(path, format!("{json}\n")) {
        Ok(()) => println!("\nwrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
    let mixed = rows
        .iter()
        .find(|r| r.family == "mixed")
        .expect("mixed corpus row");
    println!(
        "mixed-corpus speedup: {:.2}x at {:.0} MB/s (target ≥ 2x over the scalar loop)",
        mixed.speedup, mixed.simd_mb_per_sec
    );
    if mixed.speedup < 2.0 {
        eprintln!("WARNING: SIMD tokenization below the 2x target on the mixed corpus");
        std::process::exit(1);
    }
}
