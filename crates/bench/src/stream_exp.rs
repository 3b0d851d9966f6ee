//! E13 — event-driven output emission (`Engine::run_doc` in `stream`
//! mode).
//!
//! Measures what tree-at-root-close cannot deliver: the **first output
//! byte** leaves while the input is still being read, and the resident
//! output state (buffered frames) stays flat as documents grow. Each
//! family runs a ladder of document sizes; the in-run asserts pin
//!
//!   * streamed bytes ≡ batch bytes (byte-identical emission),
//!   * on order-preserving families, `peak_buffered_frames` does **not**
//!     scale with document size (the ladder's largest rung buffers no
//!     more than its smallest — the E12-style O(depth) discipline, here
//!     O(1) because nothing permutes),
//!   * order-preserving families emit **every** event early (before the
//!     document completes) and first-byte latency stays well under total
//!     evaluation time on the deep rungs.
//!
//! Shared by the `exp_e13_stream` binary (which also writes
//! `BENCH_stream.json`).

use std::io::{self, Write};
use std::time::Instant;

use serde::Serialize;
use xtt_engine::{DocFormat, Engine, EngineOptions, EvalMode};
use xtt_transducer::{examples, Dtop, DtopBuilder};
use xtt_trees::RankedAlphabet;

/// One corpus rung: a transducer, a document, the size parameter it was
/// generated from, and whether the transducer is order-preserving (the
/// families the flat-buffering gate applies to).
pub struct StreamWorkload {
    pub family: &'static str,
    /// Ladder parameter (chain depth / list length).
    pub param: usize,
    pub dtop: Dtop,
    pub doc: String,
    pub format: DocFormat,
    /// True when every rule emits its calls in child order — the
    /// streaming fast path; these rows are gated on flat buffering and
    /// all-early emission.
    pub order_preserving: bool,
}

/// One measured row of E13.
#[derive(Debug, Clone, Serialize)]
pub struct StreamRow {
    pub family: &'static str,
    pub param: usize,
    pub input_bytes: usize,
    pub output_bytes: u64,
    pub events_total: u64,
    pub events_early: u64,
    pub peak_buffered_frames: usize,
    pub skipped_subtrees: u64,
    /// Latency start → first output byte (best of rounds).
    pub first_byte_micros: u128,
    /// Latency start → document complete, streaming emission.
    pub total_micros: u128,
    /// Same document through `tree` mode (the whole output tree first,
    /// then serialize) — its first byte leaves only after this long.
    pub batch_micros: u128,
    pub order_preserving: bool,
}

/// Identity on monadic chains: `q,f → f(<q,x1>)`, `q,e → e` — fully
/// order-preserving, so every output byte can leave the moment its input
/// symbol is read.
fn chain_identity() -> Dtop {
    let alpha = RankedAlphabet::from_pairs([("f", 1), ("e", 0)]);
    let mut b = DtopBuilder::new(alpha.clone(), alpha);
    b.add_state("q");
    b.set_axiom_str("<q,x0>").expect("axiom parses");
    b.add_rule_str("q", "f", "f(<q,x1>)").expect("rule parses");
    b.add_rule_str("q", "e", "e").expect("rule parses");
    b.build().expect("chain identity is well-formed")
}

/// The `prune` dtop over the fc/ns encoding: drop every `<b>` subtree,
/// keep everything else — order-preserving *and* deleting, so the rung
/// also exercises the encoded-skip fast path.
fn fcns_prune() -> Dtop {
    let alpha =
        RankedAlphabet::from_pairs([("root", 2), ("a", 2), ("b", 2), ("pcdata", 2), ("#", 0)]);
    let mut b = DtopBuilder::new(alpha.clone(), alpha);
    b.add_state("q0");
    b.add_state("q");
    b.set_axiom_str("<q0,x0>").expect("axiom parses");
    b.add_rule_str("q0", "root", "root(<q,x1>,<q,x2>)")
        .expect("rule parses");
    b.add_rule_str("q", "a", "a(<q,x1>,<q,x2>)").expect("rule");
    b.add_rule_str("q", "b", "<q,x2>").expect("rule");
    b.add_rule_str("q", "pcdata", "pcdata(#,<q,x2>)")
        .expect("rule");
    b.add_rule_str("q", "#", "#").expect("rule");
    b.build().expect("prune dtop is well-formed")
}

/// `f^depth(e)` in term syntax.
fn chain_doc(depth: usize) -> String {
    let mut s = String::with_capacity(depth * 2 + 4);
    for _ in 0..depth {
        s.push_str("f(");
    }
    s.push('e');
    s.push_str(&")".repeat(depth));
    s
}

/// A deep unranked XML document: an `<a>` spine of the given depth with
/// a deleted `<b>` bush (element-first content, so the encoded skip
/// fast-forwards the raw tokenizer) every few levels.
fn deep_xml(depth: usize) -> String {
    let mut s = String::with_capacity(depth * 8 + 32);
    s.push_str("<root>");
    for i in 0..depth {
        s.push_str("<a>");
        if i % 8 == 0 {
            s.push_str("<b><a>dropped</a><a/></b>");
        }
    }
    for _ in 0..depth {
        s.push_str("</a>");
    }
    s.push_str("</root>");
    s
}

/// The standard E13 ladders (full scale). Depths stay within the term
/// parser's recursion budget on the main thread; a 16× size span is
/// plenty to expose peak buffering that scales with the document.
pub fn stream_workloads() -> Vec<StreamWorkload> {
    stream_workloads_scaled(&[512, 2048, 8192])
}

/// E13 ladders at explicit rung sizes (debug tests run tiny rungs).
pub fn stream_workloads_scaled(ladder: &[usize]) -> Vec<StreamWorkload> {
    let mut out = Vec::new();
    for &n in ladder {
        out.push(StreamWorkload {
            family: "chain_id/term",
            param: n,
            dtop: chain_identity(),
            doc: chain_doc(n),
            format: DocFormat::Term,
            order_preserving: true,
        });
    }
    for &n in ladder {
        out.push(StreamWorkload {
            family: "prune/fcns",
            param: n,
            dtop: fcns_prune(),
            doc: deep_xml(n),
            format: DocFormat::parse("fcns").expect("fcns format"),
            order_preserving: true,
        });
    }
    // Contrast rung: flip permutes at the root, so its whole output is
    // buffered until root close — no early events, and that is correct.
    for &n in ladder {
        out.push(StreamWorkload {
            family: "flip/term",
            param: n,
            dtop: examples::flip().dtop,
            doc: examples::flip_input(n.min(2048), n.min(2048)).to_string(),
            format: DocFormat::Term,
            order_preserving: false,
        });
    }
    out
}

/// Sink that timestamps the first byte and otherwise counts.
struct FirstByteSink {
    t0: Instant,
    first: Option<std::time::Duration>,
    bytes: u64,
}

impl Write for FirstByteSink {
    fn write(&mut self, data: &[u8]) -> io::Result<usize> {
        if self.first.is_none() && !data.is_empty() {
            self.first = Some(self.t0.elapsed());
        }
        self.bytes += data.len() as u64;
        Ok(data.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

fn best_of(rounds: usize, mut f: impl FnMut() -> (u128, u128)) -> (u128, u128) {
    let mut best = (u128::MAX, u128::MAX);
    for _ in 0..rounds {
        let (first, total) = f();
        if total < best.1 {
            best = (first, total);
        }
    }
    best
}

/// Runs the E13 grid with the in-run asserts.
pub fn run_e13(workloads: &[StreamWorkload], rounds: usize) -> Vec<StreamRow> {
    let engine = Engine::new(EngineOptions {
        mode: EvalMode::Streaming,
        ..EngineOptions::default()
    });
    let mut rows = Vec::new();
    for w in workloads {
        // Batch reference: `tree` mode, the whole output tree first.
        let (batch_out, batch_time) = {
            let t0 = Instant::now();
            let doc = std::slice::from_ref(&w.doc);
            let format = w.format.clone();
            let out = engine
                .transform_batch_with_validation(&w.dtop, doc, EvalMode::Compiled, format, false)
                .pop()
                .expect("one result per document")
                .expect("batch transform succeeds");
            (out, t0.elapsed())
        };

        // Byte-identity: streamed emission reproduces the batch bytes.
        let mut streamed = Vec::new();
        let skips_before = engine.skipped_subtrees();
        let outcome = engine
            .transform_streaming_with(&w.dtop, &w.doc, w.format.clone(), false, &mut streamed)
            .expect("streaming transform succeeds");
        let skipped = engine.skipped_subtrees() - skips_before;
        assert_eq!(
            streamed,
            batch_out.as_bytes(),
            "{} n={}: streamed bytes differ from tree-at-root-close",
            w.family,
            w.param
        );

        let (first_byte_micros, total_micros) = best_of(rounds, || {
            let mut sink = FirstByteSink {
                t0: Instant::now(),
                first: None,
                bytes: 0,
            };
            engine
                .transform_streaming_with(&w.dtop, &w.doc, w.format.clone(), false, &mut sink)
                .expect("streaming transform succeeds");
            let total = sink.t0.elapsed().as_micros();
            (sink.first.expect("output produced").as_micros(), total)
        });

        if w.order_preserving {
            // The whole point of event-driven emission: nothing waits
            // for root close, so nothing is ever buffered and every
            // event is emitted early.
            assert_eq!(
                outcome.peak_buffered_frames, 0,
                "{} n={}: order-preserving run buffered output frames",
                w.family, w.param
            );
            assert_eq!(
                outcome.events_emitted_early, outcome.events_total,
                "{} n={}: order-preserving run held events back",
                w.family, w.param
            );
        }

        rows.push(StreamRow {
            family: w.family,
            param: w.param,
            input_bytes: w.doc.len(),
            output_bytes: outcome.bytes_written,
            events_total: outcome.events_total,
            events_early: outcome.events_emitted_early,
            peak_buffered_frames: outcome.peak_buffered_frames,
            skipped_subtrees: skipped,
            first_byte_micros,
            total_micros,
            batch_micros: batch_time.as_micros(),
            order_preserving: w.order_preserving,
        });
    }

    // Ladder gate, E12-style but for output state: within each
    // order-preserving family, the largest rung must buffer no more than
    // the smallest — peak resident output state is flat in document
    // size (O(depth) would already pass; these families achieve O(1)).
    for family in ["chain_id/term", "prune/fcns"] {
        let fam: Vec<&StreamRow> = rows.iter().filter(|r| r.family == family).collect();
        let min = fam.iter().min_by_key(|r| r.param).expect("family has rows");
        let max = fam.iter().max_by_key(|r| r.param).expect("family has rows");
        assert!(
            max.peak_buffered_frames <= min.peak_buffered_frames + 2,
            "{family}: peak buffered frames scale with document size \
             ({} at n={} vs {} at n={})",
            max.peak_buffered_frames,
            max.param,
            min.peak_buffered_frames,
            min.param
        );
    }

    rows
}

/// Renders the E13 table.
pub fn print_e13(rows: &[StreamRow]) {
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.family.to_string(),
                r.param.to_string(),
                r.input_bytes.to_string(),
                r.output_bytes.to_string(),
                format!("{}/{}", r.events_early, r.events_total),
                r.peak_buffered_frames.to_string(),
                r.skipped_subtrees.to_string(),
                r.first_byte_micros.to_string(),
                r.total_micros.to_string(),
                r.batch_micros.to_string(),
            ]
        })
        .collect();
    crate::print_table(
        &[
            "family",
            "n",
            "in_B",
            "out_B",
            "early/total",
            "peak_buf",
            "skips",
            "first_us",
            "total_us",
            "batch_us",
        ],
        &table,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Debug-scale E13: tiny rungs, one round — the in-run asserts
    /// (byte identity, flat buffering, all-early emission) are the test.
    #[test]
    fn e13_rows_hold_the_flat_buffering_and_identity_invariants() {
        let rows = run_e13(&stream_workloads_scaled(&[16, 64]), 1);
        assert_eq!(rows.len(), 6);
        let prune: Vec<&StreamRow> = rows.iter().filter(|r| r.family == "prune/fcns").collect();
        assert!(
            prune.iter().all(|r| r.skipped_subtrees > 0),
            "prune rungs should exercise the encoded skip fast path"
        );
        let flip: Vec<&StreamRow> = rows.iter().filter(|r| r.family == "flip/term").collect();
        assert!(
            flip.iter().all(|r| r.events_early == 0),
            "flip permutes at the root; nothing can be emitted early"
        );
    }

    /// The corpus generators stay in the transducers' domains.
    #[test]
    fn corpus_parses_and_transforms() {
        let engine = Engine::new(EngineOptions::default());
        let mut out = Vec::new();
        engine
            .transform_streaming_with(
                &chain_identity(),
                &chain_doc(3),
                DocFormat::Term,
                false,
                &mut out,
            )
            .expect("chain doc in domain");
        assert_eq!(out, b"f(f(f(e)))");
        let mut out = Vec::new();
        engine
            .transform_streaming_with(
                &fcns_prune(),
                &deep_xml(2),
                DocFormat::parse("fcns").expect("fcns"),
                false,
                &mut out,
            )
            .expect("xml doc in domain");
        let out = String::from_utf8(out).expect("XML output is UTF-8");
        assert!(!out.contains("<b>"), "prune drops every <b>: {out}");
    }
}
