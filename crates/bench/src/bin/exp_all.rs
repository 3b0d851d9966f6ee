//! Runs every experiment E1–E13 and prints its paper-vs-measured table
//! (README, "Experiments", lists what each reproduces).
fn main() {
    xtt_bench::exps::run_all();
}
