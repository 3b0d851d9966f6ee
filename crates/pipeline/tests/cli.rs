//! `xtt-transform` end to end: a pipeline always runs under its plan's
//! chain-domain guard, `--validate` or not, and `--jobs` never changes
//! the output.

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

/// `--jobs` splits the corpus into contiguous chunks run side by side;
/// the output is the one-chunk output byte for byte, failures included,
/// each `!error:` line at its document's position.
#[test]
fn jobs_shard_the_corpus_without_reordering_it() {
    let chain =
        |sym: &str, n: usize| (0..n).fold("#".to_owned(), |inner, _| format!("{sym}(#,{inner})"));
    let mut docs: Vec<String> = (0..50)
        .map(|i| format!("root({},{})", chain("a", i % 4), chain("b", i % 3)))
        .collect();
    docs[7] = "root(a(#,#)".to_owned(); // malformed
    docs[31] = "root(b(#,#),#)".to_owned(); // outside flip's domain
    let input = docs.join("\n") + "\n";
    for mode in ["tree", "stream"] {
        let one = xtt_transform(&["--mode", mode, "--jobs", "1"], &input);
        let three = xtt_transform(&["--mode", mode, "--jobs", "3"], &input);
        assert_eq!(one, three, "{mode}");
        let lines: Vec<&str> = three.lines().collect();
        assert_eq!(lines.len(), docs.len(), "{mode}");
        for (i, line) in lines.iter().enumerate() {
            let failed = line.starts_with("!error:");
            assert_eq!(failed, i == 7 || i == 31, "{mode}, document {i}: {line}");
        }
        assert!(lines[7].starts_with("!error: parse error"), "{mode}");
        assert_eq!(lines[0], "root(#,#)", "{mode}");
        assert_eq!(lines[5], "root(b(#,b(#,#)),a(#,#))", "{mode}");
    }
}
