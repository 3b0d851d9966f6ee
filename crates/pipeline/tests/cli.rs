//! `xtt-transform --pipeline` end to end: a pipeline always runs under its
//! plan's chain-domain guard, `--validate` or not.

use std::io::Write;
use std::process::{Command, Stdio};

/// Runs `xtt-transform` with `args`, feeding `input` on stdin; returns
/// stdout.
fn xtt_transform(args: &[&str], input: &str) -> String {
    let mut child = Command::new(env!("CARGO_BIN_EXE_xtt-transform"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("xtt-transform starts");
    child
        .stdin
        .take()
        .expect("piped stdin")
        .write_all(input.as_bytes())
        .expect("write stdin");
    let out = child.wait_with_output().expect("xtt-transform runs");
    assert!(out.status.success(), "exit status {}", out.status);
    String::from_utf8(out.stdout).expect("UTF-8 output")
}

/// flip∘flip is defined on `root(#,#)` only: the first flip maps the
/// second document to `root(b(#,#),a(#,#))`, on which the second flip is
/// undefined, yet the composed machine alone accepts it. Without
/// `--validate` the chain guard must still reject it, in both modes.
#[test]
fn pipeline_runs_under_its_chain_guard_without_validate() {
    let input = "root(#,#)\nroot(a(#,#),b(#,#))\n";
    for mode in ["tree", "stream"] {
        let out = xtt_transform(&["--pipeline", "flip,flip", "--mode", mode], input);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 2, "{mode}: {out}");
        assert_eq!(lines[0], "root(#,#)", "{mode}");
        assert!(
            lines[1].starts_with("!error: type error at 1"),
            "{mode}: {}",
            lines[1]
        );
    }
}
