//! Experiment E9 — subsequential string transducers as monadic dtops.
//! Prints the paper-vs-measured table of `xtt_bench::exps::run_e9`.
fn main() {
    xtt_bench::exps::run_e9();
}
