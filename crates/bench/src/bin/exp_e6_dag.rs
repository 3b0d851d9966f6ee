//! Experiment E6 — DAG compression of exponential outputs. Prints the
//! paper-vs-measured table of `xtt_bench::exps::run_e6`.
fn main() {
    xtt_bench::exps::run_e6();
}
