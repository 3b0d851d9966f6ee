//! Experiment E2 — the library DTD transformation of the paper's §10.
//! Prints the paper-vs-measured table of `xtt_bench::exps::run_e2`.
fn main() {
    xtt_bench::exps::run_e2();
}
