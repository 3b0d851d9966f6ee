//! Experiment E7 — the canonical-form (earliest + minimize) pipeline.
//! Prints the paper-vs-measured table of `xtt_bench::exps::run_e7`.
fn main() {
    xtt_bench::exps::run_e7();
}
