//! Debug-scale self-test of the benchmark: a tiny configuration of every
//! workload, untraced and traced, must finish with zero failed operations
//! and emit exactly the metrics `BENCHMARK.json` names, each with its unit.
//!
//! ```console
//! $ cargo test --manifest-path perfbench/Cargo.toml
//! ```

use std::path::Path;
use std::process::Command;

use serde_json::Value;

fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives inside the repository")
}

fn spec() -> Value {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn items(v: &Value) -> &[Value] {
    match v {
        Value::Array(items) => items,
        other => panic!("expected an array, got {other:?}"),
    }
}

/// Runs the benchmark binary once and returns its parsed result line.
fn run(workload: &str, trace: &str) -> Value {
    let out = Command::new(env!("CARGO_BIN_EXE_xtt-perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "1",
            "--trace",
            trace,
            "--tiny",
        ])
        .current_dir(repo_root())
        .output()
        .expect("run the benchmark");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed:\n{stderr}"
    );
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 result");
    let last = stdout.lines().last().expect("a result line");
    serde_json::from_str(last).unwrap_or_else(|e| panic!("result line {last:?}: {e:?}"))
}

#[test]
fn every_workload_runs_clean_and_emits_every_metric() {
    let spec = spec();
    for workload in items(&spec["workloads"]) {
        let name = workload["name"].as_str().expect("workload name");
        for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
            let result = run(name, trace);
            let tag = format!("{name} --trace {trace}");
            assert_eq!(result["correct"].as_bool(), Some(true), "{tag}: {result:?}");
            assert_eq!(result["failed"].as_u64(), Some(0), "{tag}: {result:?}");
            assert!(
                result["attempted"].as_u64().unwrap_or(0) >= 1,
                "{tag}: {result:?}"
            );
            let Value::Object(emitted) = &result["metrics"] else {
                panic!("{tag}: no metrics object in {result:?}");
            };
            let expected = items(&spec[list]);
            assert_eq!(emitted.len(), expected.len(), "{tag}: metric count");
            for metric in expected {
                let metric_name = metric["name"].as_str().expect("metric name");
                let got = &result["metrics"][metric_name];
                assert_eq!(
                    got["unit"].as_str(),
                    metric["unit"].as_str(),
                    "{tag}: unit of {metric_name}"
                );
                let value = got["value"].as_f64();
                assert!(
                    value.is_some_and(f64::is_finite),
                    "{tag}: {metric_name} = {got:?}"
                );
            }
        }
    }
}
