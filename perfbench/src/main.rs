//! `xtt-perfbench` — the repository benchmark. Starts the release
//! `xtt-serve` as a child process with its default options, drives one
//! workload against it from one closed-loop connection per role (the
//! reader, and in `learn_beside_reads` also the writer), checks every
//! response against the reference evaluator, and prints one JSON result
//! line on stdout:
//!
//! ```console
//! $ cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!       --workload xml_stream_bulk --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` reports the end-to-end metrics of an untraced run;
//! `--trace 1` reports the per-layer metrics of a separate traced run
//! (an in-process replay of each layer plus the server's `/metrics`
//! deltas) and prints the layer waterfall on stderr. Run it from the
//! repository root: it builds `xtt-serve` there first.

mod child;
mod gen;
mod http;
mod layers;
mod load;
mod metrics;
mod rng;
mod stats;
mod workload;

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Duration;

use gen::Scale;
use workload::{Outcome, Workload};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    scale: Scale,
}

const USAGE: &str =
    "usage: xtt-perfbench --workload <xml_stream_bulk|term_small_batches|learn_beside_reads> \
--seed <n> --seconds <n> --trace <0|1> [--tiny]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: Workload::Bulk,
        seed: 1,
        seconds: 10,
        trace: false,
        scale: Scale::Full,
    };
    let mut workload = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("missing value for {flag}"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::parse(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|_| "bad --seed")?,
            "--seconds" => args.seconds = value()?.parse().map_err(|_| "bad --seconds")?,
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("bad --trace {other}")),
                }
            }
            "--tiny" => args.scale = Scale::Tiny,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(args)
}

/// Builds the release server in the repository at `root` and returns the
/// binary's path (under `CARGO_TARGET_DIR` when set, as Cargo does).
fn build_server(root: &Path) -> Result<PathBuf, String> {
    if !root.join("crates/serve/Cargo.toml").is_file() {
        return Err(format!(
            "{} is not the repository root (no crates/serve)",
            root.display()
        ));
    }
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_owned());
    let status = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "-p",
            "xtt-serve",
            "--bin",
            "xtt-serve",
        ])
        .current_dir(root)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building xtt-serve failed: {status}"));
    }
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target"));
    let bin = root.join(target).join("release/xtt-serve");
    if !bin.is_file() {
        return Err(format!("no server binary at {}", bin.display()));
    }
    Ok(bin)
}

/// The result line: `correct`, `attempted`, `failed`, and each metric
/// with its unit, all digits kept.
fn result_json(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|(name, unit, value)| {
            let v = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let root = std::env::current_dir().expect("current directory");
    let bin = match build_server(&root) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };
    let run = workload::Run {
        workload: args.workload,
        seed: args.seed,
        seconds: Duration::from_secs(args.seconds),
        scale: args.scale,
        bin,
    };
    let result = if args.trace {
        workload::traced(&run)
    } else {
        workload::untraced(&run)
    };
    match result {
        Ok(outcome) => {
            for e in &outcome.errors {
                eprintln!("failure: {e}");
            }
            println!("{}", result_json(&outcome));
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}
