//! Emits the E4/E5/E6 experiment rows as JSON (one object per line) for
//! downstream plotting/analysis.
//!
//! ```console
//! $ cargo run -p xtt-bench --bin exp_json > rows.jsonl
//! ```

use xtt_bench::families;
use xtt_bench::{dag_row, learn_roundtrip};

fn main() {
    for k in 1..=8usize {
        let target = families::flip_k_target(k);
        let row = learn_roundtrip(k, &target);
        println!(
            "{}",
            serde_json::json!({ "experiment": "E4/E5", "family": "flip_k", "row": row.json() })
        );
    }
    for n in [2usize, 4, 8, 12, 16] {
        let target = families::chain_target(n);
        let row = learn_roundtrip(n, &target);
        println!(
            "{}",
            serde_json::json!({ "experiment": "E4/E5", "family": "chain", "row": row.json() })
        );
    }
    for h in [4u32, 8, 12, 16, 20] {
        let row = dag_row(h);
        println!(
            "{}",
            serde_json::json!({ "experiment": "E6", "family": "monadic_to_binary", "row": row.json() })
        );
    }
}
