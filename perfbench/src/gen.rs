//! Seeded inputs for every workload, with every expected response line
//! computed up front by the reference evaluator `xtt_transducer::eval` —
//! never by the engine under test.

use xtt_core::characteristic_sample;
use xtt_transducer::{canonical_form, eval, examples, parse_dtop, Dtop, QId};
use xtt_trees::{NodePath, Tree};
use xtt_xml::{fcns_decode, fcns_encode, parse_xml, write_xml};

use crate::rng::Rng;

/// How large the generated inputs are. `Full` is the benchmark; `Tiny`
/// is the debug-scale self-test.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Scale {
    Full,
    Tiny,
}

/// Element kinds of the bulk XML records. `note` is the deleted kind.
const KEPT: [&str; 9] = [
    "records", "record", "id", "name", "tags", "tag", "body", "p", "em",
];
const DELETED: &str = "note";
/// Out-of-alphabet element carried by the out-of-domain documents.
pub const BOGUS: &str = "attachment";

const WORDS: [&str; 48] = [
    "tree", "node", "state", "rule", "sample", "learn", "merge", "path", "label", "output",
    "input", "domain", "earliest", "minimal", "top", "down", "xml", "element", "text", "record",
    "copy", "delete", "swap", "list", "alpha", "beta", "gamma", "delta", "river", "stone", "cloud",
    "paper", "proof", "lemma", "query", "index", "vector", "matrix", "graph", "order", "queue",
    "stack", "heap", "cache", "batch", "frame", "token", "parser",
];

/// The order-preserving fc/ns dtop of `xml_stream_bulk`: copy every kept
/// element (and text), delete `note` with its whole content.
pub fn bulk_dtop_text() -> String {
    let mut s = String::from("ax = <q0,x0>\nq0(records(x1,x2)) -> records(<q,x1>,<q,x2>)\n");
    for kind in KEPT.iter().skip(1).chain(["pcdata"].iter()) {
        s.push_str(&format!("q({kind}(x1,x2)) -> {kind}(<q,x1>,<q,x2>)\n"));
    }
    s.push_str(&format!("q({DELETED}(x1,x2)) -> <q,x2>\nq(#) -> #\n"));
    s
}

/// `unflip`: the inverse of `flip` (swaps the lists back), so the
/// two-stage pipeline `flip,unflip` is the identity on `flip`'s domain
/// with both stages doing real work.
pub fn unflip_dtop_text() -> &'static str {
    "ax = root(<q1,x0>,<q2,x0>)\n\
     q1(root(x1,x2)) -> <q3,x2>\n\
     q2(root(x1,x2)) -> <q4,x1>\n\
     q3(a(x1,x2)) -> a(#,<q3,x2>)\n\
     q3(#) -> #\n\
     q4(b(x1,x2)) -> b(#,<q4,x2>)\n\
     q4(#) -> #\n"
}

fn words(rng: &mut Rng, lo: usize, hi: usize) -> String {
    let n = rng.range(lo, hi);
    let mut s = String::new();
    for i in 0..n {
        if i > 0 {
            s.push(' ');
        }
        s.push_str(WORDS[rng.below(WORDS.len())]);
    }
    s
}

/// One single-line record document of about `target` bytes. With
/// `bogus = Some(r)`, record `r` carries a [`BOGUS`] element as the first
/// child of its `tags`. Returns the document and the bytes inside `note`
/// elements (the deleted share).
fn record_doc(rng: &mut Rng, target: usize, bogus: Option<usize>) -> (String, usize) {
    let mut doc = String::with_capacity(target + 1024);
    let mut deleted = 0;
    doc.push_str("<records>");
    let mut r = 0;
    while doc.len() < target {
        doc.push_str(&format!(
            "<record><id>{}</id><name>{}</name><tags>",
            r,
            words(rng, 1, 3)
        ));
        if bogus == Some(r) {
            doc.push_str(&format!("<{BOGUS}>{}</{BOGUS}>", words(rng, 1, 2)));
        }
        for _ in 0..rng.range(1, 4) {
            doc.push_str(&format!("<tag>{}</tag>", words(rng, 1, 1)));
        }
        doc.push_str("</tags>");
        // The note's first child is always an element, so the streaming
        // evaluator can fast-forward the raw tokenizer past it.
        let note_start = doc.len();
        doc.push_str(&format!("<{DELETED}>"));
        for _ in 0..rng.range(1, 3) {
            doc.push_str(&format!("<p>{}</p>", words(rng, 6, 18)));
        }
        doc.push_str(&format!("</{DELETED}>"));
        deleted += doc.len() - note_start;
        doc.push_str("<body>");
        for _ in 0..rng.range(1, 3) {
            doc.push_str(&format!(
                "<p>{} <em>{}</em> {}</p>",
                words(rng, 3, 10),
                words(rng, 1, 2),
                words(rng, 2, 8)
            ));
        }
        doc.push_str("</body></record>");
        r += 1;
    }
    doc.push_str("</records>");
    (doc, deleted)
}

/// The states processing each node of `t` under `m`, walked in pre-order
/// (the order the streaming guard sees the nodes); returns the first node
/// some processing state has no rule for, as `(path, state set)`.
fn first_violation(m: &Dtop, t: &Tree) -> Option<(NodePath, String)> {
    let mut stack: Vec<(Tree, NodePath, Vec<QId>)> = Vec::new();
    let root_states: Vec<QId> = m.axiom().calls().into_iter().map(|(_, q, _)| q).collect();
    stack.push((t.clone(), NodePath::root(), root_states));
    while let Some((node, path, mut states)) = stack.pop() {
        states.sort_by_key(|q| q.index());
        states.dedup();
        if states.is_empty() {
            continue;
        }
        let mut children: Vec<Vec<QId>> = vec![Vec::new(); node.arity()];
        for &q in &states {
            match m.rule(q, node.symbol()) {
                None => {
                    let names: Vec<&str> = states.iter().map(|&q| m.state_name(q)).collect();
                    return Some((path, format!("{{{}}}", names.join(","))));
                }
                Some(rhs) => {
                    for (_, q2, i) in rhs.calls() {
                        children[i].push(q2);
                    }
                }
            }
        }
        for (i, states) in children.into_iter().enumerate().rev() {
            let child = node.child(i).expect("arity checked").clone();
            stack.push((child, path.child(i as u32), states));
        }
    }
    None
}

/// Reference output of the bulk dtop on one XML document:
/// parse → batch fc/ns encode → `xtt_transducer::eval` → decode → write.
fn bulk_reference(m: &Dtop, doc: &str) -> Result<String, (NodePath, String)> {
    let utree = parse_xml(doc).expect("generated XML is well-formed");
    let ranked = fcns_encode(&utree);
    match eval(m, &ranked) {
        Some(out) => Ok(write_xml(&fcns_decode(&out).expect("fc/ns output decodes"))),
        None => Err(first_violation(m, &ranked).expect("an undefined document has a violation")),
    }
}

/// What one bulk document must come back as.
pub enum BulkExpect {
    /// The whole output line.
    Ok(String),
    /// An out-of-domain document: streamed output may have committed a
    /// prefix of `repaired` (the same document with the bogus element
    /// renamed to a kept kind) before the exact `error` line.
    Rejected { repaired: String, error: String },
}

pub struct BulkRequest {
    pub body: Vec<u8>,
    /// Indices into [`BulkInputs::expect`], in body order.
    pub members: Vec<usize>,
}

pub struct BulkInputs {
    pub dtop_text: String,
    pub docs: Vec<String>,
    pub expect: Vec<BulkExpect>,
    pub requests: Vec<BulkRequest>,
    pub deleted_share: f64,
    pub rejected_share: f64,
    pub doc_bytes_min: usize,
    pub doc_bytes_max: usize,
}

/// `xml_stream_bulk`: a pool of record documents (16–48 KB, one in
/// twenty out of domain), grouped into request bodies of about 1 MB.
pub fn bulk(seed: u64, scale: Scale) -> BulkInputs {
    let mut rng = Rng::new(seed, 1);
    let (pool, lo, hi, request_bytes, requests) = match scale {
        Scale::Full => (100, 16 << 10, 48 << 10, 1 << 20, 40),
        Scale::Tiny => (8, 2 << 10, 6 << 10, 12 << 10, 3),
    };
    let dtop_text = bulk_dtop_text();
    let m = parse_dtop(&dtop_text).expect("bulk dtop parses");
    let unknown = xtt_engine::unknown_symbol();
    let mut docs = Vec::with_capacity(pool);
    let mut expect = Vec::with_capacity(pool);
    let (mut deleted, mut total, mut rejected) = (0usize, 0usize, 0usize);
    // Sizes evenly spread over [lo, hi] and exactly one document in
    // twenty out of domain, both in a seeded order, so that every seed
    // draws the same size distribution and out-of-domain share.
    let mut sizes: Vec<usize> = (0..pool).map(|k| lo + (hi - lo) * k / (pool - 1)).collect();
    rng.shuffle(&mut sizes);
    let mut bad: Vec<bool> = (0..pool).map(|k| k < (pool / 20).max(1)).collect();
    rng.shuffle(&mut bad);
    for i in 0..pool {
        let target = sizes[i];
        let bogus = bad[i].then(|| rng.range(1, 6));
        let (doc, del) = record_doc(&mut rng, target, bogus);
        deleted += del;
        total += doc.len();
        let e = match bulk_reference(&m, &doc) {
            Ok(out) => {
                assert!(!bad[i], "out-of-domain document accepted by the reference");
                BulkExpect::Ok(out)
            }
            Err((path, states)) => {
                rejected += 1;
                let repaired_doc = doc.replace(BOGUS, "tag");
                let repaired = bulk_reference(&m, &repaired_doc)
                    .unwrap_or_else(|_| panic!("repaired document {i} is in the domain"));
                BulkExpect::Rejected {
                    repaired,
                    error: format!(
                        "!error: type error at {path}: symbol {unknown} not allowed in state {states}"
                    ),
                }
            }
        };
        docs.push(doc);
        expect.push(e);
    }
    let doc_bytes_min = docs.iter().map(String::len).min().unwrap_or(0);
    let doc_bytes_max = docs.iter().map(String::len).max().unwrap_or(0);
    let mut order: Vec<usize> = (0..pool).collect();
    let mut reqs = Vec::with_capacity(requests);
    let mut cursor = order.len();
    for _ in 0..requests {
        let mut body = Vec::with_capacity(request_bytes + (64 << 10));
        let mut members = Vec::new();
        while body.len() < request_bytes {
            if cursor == order.len() {
                rng.shuffle(&mut order);
                cursor = 0;
            }
            let d = order[cursor];
            cursor += 1;
            body.extend_from_slice(docs[d].as_bytes());
            body.push(b'\n');
            members.push(d);
        }
        reqs.push(BulkRequest { body, members });
    }
    BulkInputs {
        dtop_text,
        docs,
        expect,
        requests: reqs,
        deleted_share: deleted as f64 / total as f64,
        rejected_share: rejected as f64 / pool as f64,
        doc_bytes_min,
        doc_bytes_max,
    }
}

/// A small-batch request: a target name, its body, and the expected
/// response body (one reference output line per document).
pub struct TermRequest {
    pub target: String,
    pub docs: Vec<String>,
    pub body: Vec<u8>,
    pub expect: Vec<u8>,
}

fn term_request(target: &str, docs: Vec<Tree>, reference: impl Fn(&Tree) -> Tree) -> TermRequest {
    let mut body = String::new();
    let mut expect = String::new();
    for d in &docs {
        body.push_str(&d.to_string());
        body.push('\n');
        expect.push_str(&reference(d).to_string());
        expect.push('\n');
    }
    TermRequest {
        target: target.to_owned(),
        docs: docs.iter().map(Tree::to_string).collect(),
        body: body.into_bytes(),
        expect: expect.into_bytes(),
    }
}

/// The targets of `term_small_batches`, as registered at setup.
pub const FLIP: &str = "flip";
pub const LIBRARY: &str = "library";
pub const UNFLIP: &str = "unflip";
pub const PIPELINE: &str = "flipunflip";

/// Flip documents of a few hundred bytes, their list lengths drawn from
/// `lengths`.
fn flip_batch(lengths: &mut impl Iterator<Item = usize>, docs: usize) -> Vec<Tree> {
    let mut next = || lengths.next().expect("enough list lengths");
    (0..docs)
        .map(|_| examples::flip_input(next(), next()))
        .collect()
}

/// `term_small_batches` requests rotating flip → library → pipeline, four
/// documents each. With `only_flip` every request targets `flip` (the
/// reader of `learn_beside_reads`).
pub fn term_requests(seed: u64, count: usize, only_flip: bool) -> Vec<TermRequest> {
    let mut rng = Rng::new(seed, 2);
    let flip = examples::flip().dtop;
    let library = examples::library().dtop;
    let unflip = parse_dtop(unflip_dtop_text()).expect("unflip parses");
    let eval_ok = |m: &Dtop, t: &Tree| eval(m, t).expect("generated document is in the domain");
    let mut lengths = rng.spread(count * 8, 12, 36).into_iter();
    let mut books = rng.spread(count * 4, 4, 10).into_iter();
    (0..count)
        .map(|i| match if only_flip { 0 } else { i % 3 } {
            0 => term_request(FLIP, flip_batch(&mut lengths, 4), |t| eval_ok(&flip, t)),
            1 => {
                let docs = (0..4)
                    .map(|_| {
                        let flips: Vec<bool> = (0..3 * 12).map(|_| rng.chance(0.5)).collect();
                        let n = books.next().expect("enough book counts");
                        examples::library_input_with(n, &|b, f| {
                            if flips[(b * 3 + f) % flips.len()] {
                                "P'"
                            } else {
                                "P"
                            }
                        })
                    })
                    .collect();
                term_request(LIBRARY, docs, |t| eval_ok(&library, t))
            }
            _ => term_request(PIPELINE, flip_batch(&mut lengths, 4), |t| {
                eval_ok(&unflip, &eval_ok(&flip, t))
            }),
        })
        .collect()
}

/// One learn target: its sample body, `min(τ)`'s state count, and the
/// read-back request checked after every learn.
pub struct LearnTarget {
    pub label: &'static str,
    pub sample_lines: Vec<String>,
    pub min_states: usize,
    pub readback: Vec<u8>,
    pub readback_expect: Vec<u8>,
}

/// Compiled-LRU capacity is 8; writes rotate over 12 names.
pub const LEARN_NAMES: usize = 12;

/// The universal-domain learn targets: `relabel_chain(n)` for
/// n ∈ {8, 16, 24, 32} and `monadic_to_binary`, each with its
/// characteristic sample and a 16-document read-back.
pub fn learn_targets(seed: u64, scale: Scale) -> Vec<LearnTarget> {
    let mut rng = Rng::new(seed, 3);
    let mut fixtures = vec![("relabel_chain(8)", examples::relabel_chain(8), 40)];
    if scale == Scale::Full {
        fixtures.push(("relabel_chain(16)", examples::relabel_chain(16), 40));
        fixtures.push(("relabel_chain(24)", examples::relabel_chain(24), 40));
        fixtures.push(("relabel_chain(32)", examples::relabel_chain(32), 40));
    }
    fixtures.push(("monadic_to_binary", examples::monadic_to_binary(), 8));
    fixtures
        .into_iter()
        .map(|(label, fix, max_depth)| {
            let canonical =
                canonical_form(&fix.dtop, Some(&fix.domain)).expect("fixture normalizes");
            let sample = characteristic_sample(&canonical).expect("characteristic sample exists");
            let sample_lines = sample
                .pairs()
                .iter()
                .map(|(i, o)| format!("{i} => {o}"))
                .collect();
            let mut readback = String::new();
            let mut readback_expect = String::new();
            for depth in rng.spread(16, 1, max_depth) {
                let mut t = Tree::leaf_named("e");
                for _ in 0..depth {
                    t = Tree::node("f", vec![t]);
                }
                readback.push_str(&format!("{t}\n"));
                let out = eval(&fix.dtop, &t).expect("universal domain");
                readback_expect.push_str(&format!("{out}\n"));
            }
            LearnTarget {
                label,
                sample_lines,
                min_states: canonical.dtop.state_count(),
                readback: readback.into_bytes(),
                readback_expect: readback_expect.into_bytes(),
            }
        })
        .collect()
}

/// The `i`-th write's body: the target's sample lines in a seeded order
/// (RPNI's result does not depend on it).
pub fn learn_body(target: &LearnTarget, rng: &mut Rng) -> Vec<u8> {
    let mut lines: Vec<&String> = target.sample_lines.iter().collect();
    rng.shuffle(&mut lines);
    let mut body = String::new();
    for l in lines {
        body.push_str(l);
        body.push('\n');
    }
    body.into_bytes()
}
