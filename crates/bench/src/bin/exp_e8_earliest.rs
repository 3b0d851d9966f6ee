//! Experiment E8 — earliest-normal-form fixpoint behaviour. Prints the
//! paper-vs-measured table of `xtt_bench::exps::run_e8`.
fn main() {
    xtt_bench::exps::run_e8();
}
