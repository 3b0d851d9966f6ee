//! Experiment E5 — learning wall time over scaled families (Thm. 38).
//! Prints the paper-vs-measured table of `xtt_bench::exps::run_e5`.
fn main() {
    xtt_bench::exps::run_e5();
}
