//! Experiment E4 — characteristic-sample growth over scaled families (Prop.
//! 34). Prints the paper-vs-measured table of `xtt_bench::exps::run_e4`.
fn main() {
    xtt_bench::exps::run_e4();
}
