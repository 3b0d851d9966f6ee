//! E12 — streaming vs materializing encoders on real unranked XML
//! (`xtt-unranked`).
//!
//! The question: what does skipping the intermediate trees buy? Two
//! pipelines produce the *same* ranked event stream from XML text:
//!
//! * **materialize** — `parse_xml` (build the `UTree`), batch-encode
//!   (`fcns_encode` / `Encoding::encode`, build the ranked `Tree`), then
//!   walk its events — the pre-PR pipeline;
//! * **stream** — SAX tokenizer → incremental encoder → events, with
//!   O(depth) live frames and no tree at all.
//!
//! Each row reports wall time for a corpus pass (best of N), events/sec
//! for both pipelines, and the **peak live nodes** of each: the whole
//! document for the materializing path, the encoder's high-water frame
//! count for the streaming one. The run *asserts* the O(depth) claim
//! (streaming peak ≤ a small multiple of the nesting depth, independent
//! of document size). Shared by the `exp_e12_fcns` binary, which also
//! writes `BENCH_fcns.json`.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use serde_json::{json, Value};
use xtt_unranked::XmlCodec;
use xtt_xml::{fcns_encode, parse_xml, Dtd, Encoding, PcDataMode};

/// One E12 corpus: documents of a given shape family.
pub struct UnrankedWorkload {
    pub family: &'static str,
    /// Maximum element nesting depth across the corpus.
    pub depth: usize,
    pub codec: XmlCodec,
    pub docs: Vec<String>,
    /// `true` rows back the headline ≥1.5x acceptance check.
    pub deep: bool,
}

/// One row of the E12 table.
#[derive(Debug, Clone)]
pub struct UnrankedRow {
    pub family: String,
    pub docs: usize,
    pub depth: usize,
    pub xml_bytes: usize,
    /// Ranked events per document corpus pass.
    pub events: u64,
    pub materialize_micros: u128,
    pub stream_micros: u128,
    pub materialize_events_per_sec: f64,
    pub stream_events_per_sec: f64,
    /// `materialize / stream` (>1 = streaming wins).
    pub speedup: f64,
    /// Peak live nodes: whole documents vs encoder frames.
    pub peak_live_materialize: u64,
    pub peak_live_stream: u64,
    pub deep: bool,
}

impl UnrankedRow {
    /// `self` as a JSON object, its fields in declaration order.
    pub fn json(&self) -> Value {
        json!({
            "family": self.family.as_str(),
            "docs": self.docs,
            "depth": self.depth,
            "xml_bytes": self.xml_bytes,
            "events": self.events,
            "materialize_micros": self.materialize_micros,
            "stream_micros": self.stream_micros,
            "materialize_events_per_sec": self.materialize_events_per_sec,
            "stream_events_per_sec": self.stream_events_per_sec,
            "speedup": self.speedup,
            "peak_live_materialize": self.peak_live_materialize,
            "peak_live_stream": self.peak_live_stream,
            "deep": self.deep,
        })
    }
}

fn deep_doc(depth: usize, i: usize) -> String {
    // A chain of <a> elements with a small fringe at the bottom.
    format!(
        "{}<b/>{}{}",
        "<a>".repeat(depth),
        "<b/>".repeat(i % 3 + 1),
        "</a>".repeat(depth),
    )
}

fn wide_doc(width: usize, i: usize) -> String {
    format!("<a>{}{}</a>", "<a></a>".repeat(width), "<b/>".repeat(i % 5),)
}

fn mixed_doc(depth: usize, i: usize) -> String {
    let mut out = String::new();
    for d in 0..depth {
        out.push_str("<a>");
        out.push_str(&"<b/>".repeat(d % 4 + i % 3));
    }
    out.push_str(&"</a>".repeat(depth));
    format!("<a>{out}</a>")
}

fn recursive_dtd_doc(depth: usize) -> String {
    format!("{}{}", "<n>".repeat(depth), "</n>".repeat(depth))
}

/// The standard E12 workloads: deep/wide/mixed fc/ns corpora plus a
/// deep recursive-DTD corpus.
pub fn unranked_workloads() -> Vec<UnrankedWorkload> {
    unranked_workloads_scaled(800, 1500)
}

/// The E12 families at a chosen scale (the *batch* baseline recurses on
/// document depth, so debug-mode tests run the same shapes shallower).
pub fn unranked_workloads_scaled(depth: usize, width: usize) -> Vec<UnrankedWorkload> {
    let mixed_depth = depth / 7 + 1;
    let mut out = vec![
        UnrankedWorkload {
            family: "fcns_deep",
            depth,
            codec: XmlCodec::fcns(),
            docs: (0..40).map(|i| deep_doc(depth, i)).collect(),
            deep: true,
        },
        UnrankedWorkload {
            family: "fcns_wide",
            depth: 2,
            codec: XmlCodec::fcns(),
            docs: (0..40).map(|i| wide_doc(width, i)).collect(),
            deep: false,
        },
        UnrankedWorkload {
            family: "fcns_mixed",
            depth: mixed_depth + 1,
            codec: XmlCodec::fcns(),
            docs: (0..60).map(|i| mixed_doc(mixed_depth, i)).collect(),
            deep: true,
        },
    ];
    let dtd = Dtd::parse("<!ELEMENT n (n?) >").expect("recursive DTD");
    let enc = Arc::new(Encoding::new(dtd, PcDataMode::Abstract));
    out.push(UnrankedWorkload {
        family: "dtd_deep",
        depth: depth * 3 / 4,
        codec: XmlCodec::dtd(enc),
        docs: (0..40).map(|_| recursive_dtd_doc(depth * 3 / 4)).collect(),
        deep: true,
    });
    out
}

fn best_of(rounds: usize, mut f: impl FnMut()) -> Duration {
    let mut best = Duration::MAX;
    for _ in 0..rounds {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed());
    }
    best
}

/// Runs both pipelines over one workload.
pub fn unranked_row(w: &UnrankedWorkload, rounds: usize) -> UnrankedRow {
    let xml_bytes: usize = w.docs.iter().map(String::len).sum();

    // Correctness + accounting pass: identical event streams, peaks.
    let mut events = 0u64;
    let mut peak_stream = 0u64;
    let mut peak_materialize = 0u64;
    for doc in &w.docs {
        let mut it = w.codec.events(doc);
        let streamed: Vec<_> = (&mut it).map(|r| r.expect("valid corpus")).collect();
        peak_stream = peak_stream.max(it.peak_frames() as u64);
        events += streamed.len() as u64;
        let utree = parse_xml(doc).expect("well-formed corpus");
        peak_materialize = peak_materialize.max(utree.size() as u64);
        let batch = match &w.codec {
            XmlCodec::Fcns { .. } => fcns_encode(&utree),
            XmlCodec::Dtd { input, .. } => input.encode(&utree).expect("valid corpus"),
        };
        assert!(
            batch.events().eq(streamed.iter().copied()),
            "streaming encode diverged from batch on {}",
            w.family
        );
    }
    // The O(depth) claim, asserted: the streaming peak tracks nesting
    // depth (a few frames per level), never document size.
    assert!(
        peak_stream <= 4 * w.depth as u64 + 8,
        "{}: streaming peak {} exceeds O(depth) bound for depth {}",
        w.family,
        peak_stream,
        w.depth
    );

    let materialize = best_of(rounds, || {
        for doc in &w.docs {
            let utree = parse_xml(doc).expect("well-formed corpus");
            let tree = match &w.codec {
                XmlCodec::Fcns { .. } => fcns_encode(&utree),
                XmlCodec::Dtd { input, .. } => input.encode(&utree).expect("valid corpus"),
            };
            black_box(tree.events().count());
        }
    });
    let stream = best_of(rounds, || {
        for doc in &w.docs {
            black_box(w.codec.events(doc).fold(0u64, |n, r| {
                r.expect("valid corpus");
                n + 1
            }));
        }
    });

    UnrankedRow {
        family: w.family.to_owned(),
        docs: w.docs.len(),
        depth: w.depth,
        xml_bytes,
        events,
        materialize_micros: materialize.as_micros(),
        stream_micros: stream.as_micros(),
        materialize_events_per_sec: events as f64 / materialize.as_secs_f64().max(1e-9),
        stream_events_per_sec: events as f64 / stream.as_secs_f64().max(1e-9),
        speedup: materialize.as_secs_f64() / stream.as_secs_f64().max(1e-9),
        peak_live_materialize: peak_materialize,
        peak_live_stream: peak_stream,
        deep: w.deep,
    }
}

/// E12 — streaming encode vs materialize-then-encode.
pub fn run_e12() -> Vec<UnrankedRow> {
    println!("\n== E12: streaming vs materializing unranked-XML encoders ==");
    let rows: Vec<UnrankedRow> = unranked_workloads()
        .iter()
        .map(|w| unranked_row(w, 5))
        .collect();
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.family.clone(),
                r.docs.to_string(),
                r.events.to_string(),
                r.materialize_micros.to_string(),
                r.stream_micros.to_string(),
                format!("{:.1}", r.stream_events_per_sec / 1e6),
                format!("{:.2}x", r.speedup),
                r.peak_live_materialize.to_string(),
                r.peak_live_stream.to_string(),
            ]
        })
        .collect();
    crate::print_table(
        &[
            "corpus",
            "docs",
            "events",
            "materialize µs",
            "stream µs",
            "Mev/s(s)",
            "speedup",
            "peak live(m)",
            "peak live(s)",
        ],
        &table,
    );
    println!(
        "shape check: streaming ≥ 1.5x on deep corpora; streaming peak live state is O(depth)."
    );
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e12_rows_hold_the_peak_and_agreement_invariants() {
        // One cheap round over trimmed corpora: the in-row assertions
        // (event-stream agreement, O(depth) peak) must hold. For deep
        // chains depth ≈ document size, so the separation between the
        // two peaks shows on the wide corpus: the materializing path
        // holds every sibling, the streaming path a couple of frames.
        for mut w in unranked_workloads_scaled(60, 800) {
            w.docs.truncate(3);
            let row = unranked_row(&w, 1);
            assert!(row.events > 0);
            if row.family == "fcns_wide" {
                assert!(
                    row.peak_live_stream * 100 < row.peak_live_materialize,
                    "wide corpus: stream peak {} vs materialize peak {}",
                    row.peak_live_stream,
                    row.peak_live_materialize
                );
            }
        }
    }
}
