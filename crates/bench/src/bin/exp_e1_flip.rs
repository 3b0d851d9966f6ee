//! Experiment E1 — τflip: states, rules and sample size vs. the paper's §1
//! figures. Prints the paper-vs-measured table of
//! `xtt_bench::exps::run_e1`.
fn main() {
    xtt_bench::exps::run_e1();
}
