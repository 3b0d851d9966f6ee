//! E15 — tokenizer hot-path throughput (`xtt-xml`): SIMD/SWAR structural
//! scanning vs the scalar reference loop.
//!
//! The rebuilt tokenizer finds structural bytes (`<`, `&`, quotes) with a
//! vectorized scanner — SSE2 on x86_64, a portable u64 SWAR fallback
//! elsewhere — behind the same `memchr`/`memchr2` interface as the
//! byte-at-a-time reference loop it replaced. `XmlOptions::scalar_scan`
//! keeps the reference loop selectable at runtime, so one binary can
//! race the two over identical corpora doing *full tokenization* (events
//! materialized and counted, attributes parsed, entities decoded) — not
//! a scan microbenchmark.
//!
//! Three generated corpora (≥ 1 MB each) bracket real documents:
//!
//! * **mixed** — element trees with text runs, attributes, comments, and
//!   CDATA in realistic proportions (the headline row; CI gates on it);
//! * **text_heavy** — long character-data runs with occasional entities
//!   (scanning dominates; the vector paths' best case);
//! * **attr_heavy** — dense markup, many attributes per element, short
//!   values (markup dispatch dominates; the vector paths' worst case).
//!
//! Shared by the `exp_e15_xml` binary, which writes `BENCH_xml.json` and
//! exits nonzero when the mixed-corpus speedup falls below 2x.

use std::hint::black_box;
use std::time::{Duration, Instant};

use serde_json::{json, Value};
use xtt_xml::xmlparse::{xml_events_with, XmlEvent, XmlOptions};

/// One E15 corpus: a single large generated document plus its family tag.
pub struct XmlWorkload {
    pub family: &'static str,
    pub doc: String,
}

/// One row of the E15 table.
#[derive(Debug, Clone)]
pub struct XmlRow {
    pub family: String,
    pub bytes: usize,
    /// Events per full-document tokenization pass.
    pub events: u64,
    pub scalar_micros: u128,
    pub simd_micros: u128,
    pub scalar_mb_per_sec: f64,
    pub simd_mb_per_sec: f64,
    /// `scalar / simd` (>1 = the vector scanner wins).
    pub speedup: f64,
}

impl XmlRow {
    /// `self` as a JSON object, its fields in declaration order.
    pub fn json(&self) -> Value {
        json!({
            "family": self.family.as_str(),
            "bytes": self.bytes,
            "events": self.events,
            "scalar_micros": self.scalar_micros,
            "simd_micros": self.simd_micros,
            "scalar_mb_per_sec": self.scalar_mb_per_sec,
            "simd_mb_per_sec": self.simd_mb_per_sec,
            "speedup": self.speedup,
        })
    }
}

/// Deterministic xorshift so corpora are identical across runs.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

const WORDS: [&str; 12] = [
    "transducer",
    "deterministic",
    "top-down",
    "earliest",
    "normal form",
    "learning",
    "sample",
    "characteristic",
    "myhill",
    "nerode",
    "semantics",
    "polynomial",
];

fn push_text(out: &mut String, rng: &mut Rng, words: usize, entities: bool) {
    for i in 0..words {
        if i > 0 {
            out.push(' ');
        }
        out.push_str(WORDS[rng.below(WORDS.len())]);
        if entities && rng.below(24) == 0 {
            out.push_str(["&amp;", "&lt;", "&gt;", "&#233;"][rng.below(4)]);
        }
    }
}

/// Element trees with text runs, attributes, comments, CDATA — the
/// proportions of a text-centric document corpus.
fn mixed_doc(target_bytes: usize) -> String {
    let mut rng = Rng(0x9e3779b97f4a7c15);
    let mut out = String::with_capacity(target_bytes + 4096);
    out.push_str("<?xml version=\"1.0\"?><corpus>");
    let mut n = 0usize;
    while out.len() < target_bytes {
        n += 1;
        out.push_str(&format!("<record id=\"r{n}\" kind=\"entry\">"));
        out.push_str("<title>");
        let w = 4 + rng.below(5);
        push_text(&mut out, &mut rng, w, false);
        out.push_str("</title>");
        for _ in 0..3 + rng.below(3) {
            out.push_str("<para>");
            let w = 40 + rng.below(60);
            push_text(&mut out, &mut rng, w, true);
            out.push_str("</para>");
        }
        if rng.below(5) == 0 {
            out.push_str("<!-- generated -->");
        }
        if rng.below(7) == 0 {
            out.push_str("<code><![CDATA[if a < b && b > c { flip() }]]></code>");
        }
        out.push_str("<ref tag=\"x\"/></record>");
    }
    out.push_str("</corpus>");
    out
}

/// Long character-data runs, sparse markup, occasional entities.
fn text_heavy_doc(target_bytes: usize) -> String {
    let mut rng = Rng(0xdeadbeefcafef00d);
    let mut out = String::with_capacity(target_bytes + 4096);
    out.push_str("<doc>");
    while out.len() < target_bytes {
        out.push_str("<p>");
        let w = 300 + rng.below(200);
        push_text(&mut out, &mut rng, w, true);
        out.push_str("</p>");
    }
    out.push_str("</doc>");
    out
}

/// Dense markup: short elements carrying many short attributes.
fn attr_heavy_doc(target_bytes: usize) -> String {
    let mut rng = Rng(0x123456789abcdef1);
    let mut out = String::with_capacity(target_bytes + 4096);
    out.push_str("<table>");
    let mut n = 0usize;
    while out.len() < target_bytes {
        n += 1;
        out.push_str(&format!("<row id=\"i{n}\""));
        for a in 0..6 + rng.below(5) {
            out.push_str(&format!(
                " c{a}=\"{} {}\"",
                WORDS[rng.below(WORDS.len())],
                rng.below(1000)
            ));
        }
        out.push_str("/>");
    }
    out.push_str("</table>");
    out
}

/// The standard E15 corpora at the default ≥ 1 MB scale.
pub fn xml_workloads() -> Vec<XmlWorkload> {
    xml_workloads_scaled(1 << 20)
}

/// The E15 corpora at a chosen byte target (tests run them smaller).
pub fn xml_workloads_scaled(target_bytes: usize) -> Vec<XmlWorkload> {
    vec![
        XmlWorkload {
            family: "mixed",
            doc: mixed_doc(target_bytes),
        },
        XmlWorkload {
            family: "text_heavy",
            doc: text_heavy_doc(target_bytes),
        },
        XmlWorkload {
            family: "attr_heavy",
            doc: attr_heavy_doc(target_bytes),
        },
    ]
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

fn tokenize(doc: &str, opts: XmlOptions) -> u64 {
    let mut events = 0u64;
    for ev in xml_events_with(doc, opts) {
        black_box(&ev);
        ev.expect("generated corpus is well-formed");
        events += 1;
    }
    events
}

/// Races full tokenization (scalar scan vs vector scan) over one corpus.
pub fn xml_row(w: &XmlWorkload, rounds: usize) -> XmlRow {
    let simd_opts = XmlOptions::default();
    let scalar_opts = XmlOptions {
        scalar_scan: true,
        ..XmlOptions::default()
    };

    // Correctness pass: the two scanners must yield identical events.
    let simd_events: Vec<XmlEvent<'_>> = xml_events_with(&w.doc, simd_opts)
        .map(|r| r.expect("generated corpus is well-formed"))
        .collect();
    let agree = xml_events_with(&w.doc, scalar_opts)
        .map(|r| r.expect("generated corpus is well-formed"))
        .eq(simd_events.iter().cloned());
    assert!(agree, "{}: scalar and vector scans diverged", w.family);
    let events = simd_events.len() as u64;
    drop(simd_events);

    let scalar = best_of(rounds, || {
        black_box(tokenize(&w.doc, scalar_opts));
    });
    let simd = best_of(rounds, || {
        black_box(tokenize(&w.doc, simd_opts));
    });

    let mb = w.doc.len() as f64 / 1e6;
    XmlRow {
        family: w.family.to_owned(),
        bytes: w.doc.len(),
        events,
        scalar_micros: scalar.as_micros(),
        simd_micros: simd.as_micros(),
        scalar_mb_per_sec: mb / scalar.as_secs_f64().max(1e-9),
        simd_mb_per_sec: mb / simd.as_secs_f64().max(1e-9),
        speedup: scalar.as_secs_f64() / simd.as_secs_f64().max(1e-9),
    }
}

/// E15 — tokenizer throughput, scalar vs vector structural scanning.
pub fn run_e15() -> Vec<XmlRow> {
    println!("\n== E15: XML tokenizer hot path — scalar vs SIMD/SWAR scanning ==");
    let rows: Vec<XmlRow> = xml_workloads().iter().map(|w| xml_row(w, 7)).collect();
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.family.clone(),
                r.bytes.to_string(),
                r.events.to_string(),
                r.scalar_micros.to_string(),
                r.simd_micros.to_string(),
                format!("{:.0}", r.scalar_mb_per_sec),
                format!("{:.0}", r.simd_mb_per_sec),
                format!("{:.2}x", r.speedup),
            ]
        })
        .collect();
    crate::print_table(
        &[
            "corpus",
            "bytes",
            "events",
            "scalar µs",
            "simd µs",
            "MB/s(scalar)",
            "MB/s(simd)",
            "speedup",
        ],
        &table,
    );
    println!("shape check: full tokenization (not a scan microbenchmark); gate is mixed ≥ 2x.");
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e15_rows_hold_the_agreement_invariant() {
        // Small corpora, one round: the in-row scalar≡vector assertion
        // and well-formedness expectations must hold.
        for w in xml_workloads_scaled(20_000) {
            let row = xml_row(&w, 1);
            assert!(row.events > 0, "{}: no events", row.family);
            assert!(row.bytes >= 20_000);
        }
    }
}
