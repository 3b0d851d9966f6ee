//! Experiment E3 — xmlflip under the DTD encoding vs. the fc/ns
//! impossibility (§10). Prints the paper-vs-measured table of
//! `xtt_bench::exps::run_e3`.
fn main() {
    xtt_bench::exps::run_e3();
}
