//! The traced run's in-process replay: the run's seeded inputs for each
//! layer family (the bulk corpus, the term mix, the learn targets — the
//! inputs the server gets on the workload that runs that family), through
//! each crate's public functions, timed from outside as growing prefixes
//! of the serving path. A layer's self time is its prefix minus the one
//! before it.
//!
//! `xml_stream_bulk`: tokenize → +encode → +guard → +eval → +emit, where
//! each prefix takes the same fast-forward over deleted subtrees and stops
//! at the same rejected element as the server's streaming path, so the
//! prefixes do the same work the full path does up to their layer.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use xtt_automata::Dtta;
use xtt_core::{rpni_dtop, Sample};
use xtt_engine::{
    ChainStage, CompiledDtop, DocFormat, Engine, EvalMode, FnSink, GuardedSource, StreamEvaluator,
    TreeEventSource, XmlCodec,
};
use xtt_pipeline::{plan, StageDef, StrategyChoice};
use xtt_transducer::{eval, examples, parse_dtop, Dtop};
use xtt_trees::{parse_tree, RankedAlphabet, Symbol, Tree, TreeEvent};
use xtt_typecheck::CompiledDtta;
use xtt_unranked::UnrankedEvents;
use xtt_xml::{xml_events, XmlEvent};

use crate::gen::{self, BulkInputs, LearnTarget, TermRequest, BOGUS};
use crate::stats::median;

/// Runs `passes` of `f` until `budget` is spent (at least `min` passes)
/// and returns the median pass time in seconds.
fn median_pass(budget: Duration, min: usize, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut times = Vec::new();
    while times.len() < min || start.elapsed() < budget {
        let t0 = Instant::now();
        f();
        times.push(t0.elapsed().as_secs_f64());
    }
    median(&times)
}

/// The server's engine configuration (default options).
fn server_engine() -> Engine {
    Engine::new(xtt_serve::ServeOptions::default().engine)
}

/// [`TreeEventSource`] over the codec's encoder with its raw fast-forward
/// (the engine's own adaptor is private).
struct Encoded<'a>(UnrankedEvents<'a>);

impl TreeEventSource for Encoded<'_> {
    fn next_event(&mut self) -> Option<TreeEvent> {
        self.0.next()?.ok()
    }

    fn skip_subtree(&mut self) -> bool {
        self.0.skip_subtree().unwrap_or(true)
    }
}

/// Prefix 1: the XML tokenizer alone, fast-forwarding each deleted
/// element's content the way the encoder's skip does and stopping at the
/// bogus start tag the guard rejects.
fn tokenize(doc: &str) -> u64 {
    let mut reader = xml_events(doc);
    let mut events = 0;
    while let Some(ev) = reader.next() {
        events += 1;
        match ev.expect("generated XML tokenizes") {
            XmlEvent::Start { name, .. } if name == BOGUS => break,
            XmlEvent::Start { name: "note", .. } => {
                // The first child's start tag is read, then the child, its
                // following siblings and the note's end tag are skipped.
                reader.next();
                reader.skip_subtree().expect("skip");
                loop {
                    match reader.next() {
                        Some(Ok(XmlEvent::Start { .. })) => reader.skip_subtree().expect("skip"),
                        Some(Ok(XmlEvent::Text(_))) => {}
                        _ => break,
                    }
                }
            }
            _ => {}
        }
    }
    events
}

/// Prefix 2: tokenizer + fc/ns encoder, skipping at the first child of
/// every `note` and stopping at the unknown element.
fn encode(codec: &XmlCodec, doc: &str, note: Symbol, unknown: Symbol) -> u64 {
    let mut events = codec.events(doc);
    let mut n = 0;
    let mut after_note = false;
    while let Some(ev) = events.next() {
        n += 1;
        match ev.expect("generated XML encodes") {
            TreeEvent::Open(s) if s == unknown => break,
            TreeEvent::Open(s) => {
                if after_note {
                    events.skip_subtree().expect("skip");
                    after_note = false;
                } else {
                    after_note = s == note;
                }
            }
            TreeEvent::Close => after_note = false,
        }
    }
    n
}

/// Prefix 3: + the domain guard in lockstep, taking the fast-forward
/// wherever the guard enters its skip state (for a transducer's own guard,
/// exactly where the evaluator deletes).
fn guard(codec: &XmlCodec, g: &CompiledDtta, doc: &str) -> u64 {
    let mut source = GuardedSource::new(g, Encoded(codec.events(doc)));
    let mut n = 0;
    while let Some(ev) = source.next_event() {
        n += 1;
        if matches!(ev, TreeEvent::Open(_)) {
            source.skip_subtree();
        }
    }
    n
}

/// Prefix 4: + the streaming evaluator, output events counted, not
/// serialized.
fn stream_eval(
    codec: &XmlCodec,
    g: &CompiledDtta,
    c: &CompiledDtop,
    ev: &mut StreamEvaluator,
    doc: &str,
) -> u64 {
    let mut source = GuardedSource::new(g, Encoded(codec.events(doc)));
    let mut n = 0u64;
    let _ = ev.eval_streaming(c, &mut source, &mut FnSink(|_| n += 1));
    n
}

pub const BULK_LAYERS: [&str; 5] = [
    "xml.tokenize",
    "unranked.encode",
    "typecheck.guard",
    "engine.stream_eval",
    "engine.emit",
];

/// Self time per input MB of each of [`BULK_LAYERS`], in ms.
pub fn bulk_layers(inputs: &BulkInputs, budget: Duration) -> [f64; 5] {
    let engine = server_engine();
    let dtop = parse_dtop(&inputs.dtop_text).expect("bulk dtop parses");
    let compiled = engine.compiled(&dtop).expect("bulk dtop compiles");
    let g = engine.guard(&dtop).expect("bulk dtop guards");
    let format = DocFormat::parse("fcns").expect("fcns format");
    let codec = XmlCodec::fcns_bounded(xtt_engine::unknown_symbol());
    let note = Symbol::new("note");
    let unknown = xtt_engine::unknown_symbol();
    let docs = &inputs.docs;
    let mb = docs.iter().map(String::len).sum::<usize>() as f64 / 1e6;
    let mut ev = StreamEvaluator::new();
    let mut out = Vec::with_capacity(64 << 10);
    let share = budget / 5;
    let prefixes = [
        median_pass(share, 3, || {
            docs.iter().for_each(|d| {
                black_box(tokenize(d));
            })
        }),
        median_pass(share, 3, || {
            docs.iter().for_each(|d| {
                black_box(encode(&codec, d, note, unknown));
            })
        }),
        median_pass(share, 3, || {
            docs.iter().for_each(|d| {
                black_box(guard(&codec, &g, d));
            })
        }),
        median_pass(share, 3, || {
            docs.iter().for_each(|d| {
                black_box(stream_eval(&codec, &g, &compiled, &mut ev, d));
            })
        }),
        median_pass(share, 3, || {
            docs.iter().for_each(|d| {
                out.clear();
                let _ = black_box(engine.transform_streaming_with(
                    &dtop,
                    d,
                    format.clone(),
                    true,
                    &mut out,
                ));
            })
        }),
    ];
    let mut self_ms_per_mb = [0.0; 5];
    let mut before = 0.0;
    for (k, p) in prefixes.iter().enumerate() {
        self_ms_per_mb[k] = (p - before) * 1e3 / mb;
        before = *p;
    }
    self_ms_per_mb
}

/// Per-document layer times of the term requests, in µs.
pub struct TermLayers {
    pub parse_us: f64,
    pub compiled_eval_us: f64,
    pub display_us: f64,
    pub chain_us: f64,
}

fn registered(name: &str) -> Dtop {
    match name {
        gen::FLIP => examples::flip().dtop,
        gen::LIBRARY => examples::library().dtop,
        _ => parse_dtop(gen::unflip_dtop_text()).expect("unflip parses"),
    }
}

/// Replays `reqs` (one pass = every request once): parse and display per
/// document, `Engine::transform_batch_with_validation` per single-target
/// request, `Engine::transform_batch_chain` per pipeline request.
pub fn term_layers(reqs: &[TermRequest], budget: Duration) -> TermLayers {
    let engine = server_engine();
    let flip = Arc::new(registered(gen::FLIP));
    let unflip = Arc::new(registered(gen::UNFLIP));
    let pipeline = plan(
        &[
            StageDef {
                name: gen::FLIP.into(),
                dtop: Arc::clone(&flip),
            },
            StageDef {
                name: gen::UNFLIP.into(),
                dtop: Arc::clone(&unflip),
            },
        ],
        None,
        StrategyChoice::Auto,
    )
    .expect("flip,unflip plans");
    let stages: Vec<ChainStage> = pipeline.exec_stages().to_vec();
    let single: Vec<(&TermRequest, Dtop)> = reqs
        .iter()
        .filter(|r| r.target != gen::PIPELINE)
        .map(|r| (r, registered(&r.target)))
        .collect();
    let chained: Vec<&TermRequest> = reqs.iter().filter(|r| r.target == gen::PIPELINE).collect();
    let single_docs: usize = single.iter().map(|(r, _)| r.docs.len()).sum();
    let chained_docs: usize = chained.iter().map(|r| r.docs.len()).sum();
    // Outputs to display, from the reference evaluator.
    let outputs: Vec<Tree> = single
        .iter()
        .flat_map(|(r, m)| {
            r.docs
                .iter()
                .map(|d| eval(m, &parse_tree(d).expect("parses")).expect("in domain"))
        })
        .collect();
    let share = budget / 4;
    let parse = median_pass(share, 3, || {
        for (r, _) in &single {
            for d in &r.docs {
                black_box(parse_tree(d).expect("parses"));
            }
        }
    });
    let display = median_pass(share, 3, || {
        for t in &outputs {
            black_box(t.to_string());
        }
    });
    let batch = median_pass(share, 3, || {
        for (r, m) in &single {
            black_box(engine.transform_batch_with_validation(
                m,
                &r.docs,
                EvalMode::Compiled,
                DocFormat::Term,
                false,
            ));
        }
    });
    let chain = if chained.is_empty() {
        0.0
    } else {
        median_pass(share, 3, || {
            for r in &chained {
                black_box(engine.transform_batch_chain(
                    &stages,
                    &r.docs,
                    EvalMode::Compiled,
                    DocFormat::Term,
                    Some(pipeline.guard()),
                    None,
                ));
            }
        })
    };
    let per = |t: f64, n: usize| if n == 0 { 0.0 } else { t * 1e6 / n as f64 };
    let parse_us = per(parse, single_docs);
    let display_us = per(display, single_docs);
    TermLayers {
        parse_us,
        compiled_eval_us: per(batch, single_docs) - parse_us - display_us,
        display_us,
        chain_us: per(chain, chained_docs),
    }
}

/// Mean per-learn layer costs over the target mix.
pub struct LearnLayers {
    pub sample_parse_ms: f64,
    pub rpni_ms: f64,
    pub compile_ms: f64,
    pub guard_ms: f64,
    pub sample_nodes: f64,
    pub learned_states: f64,
    /// Every learned dtop had its target's `min(τ)` state count.
    pub minimal: bool,
}

fn infer_alphabet<'a>(trees: impl Iterator<Item = &'a Tree>) -> RankedAlphabet {
    let mut alpha = RankedAlphabet::new();
    for t in trees {
        for node in t.preorder() {
            alpha.add(node.symbol(), node.arity());
        }
    }
    alpha
}

/// The learn endpoint's steps, one by one: parse the sample lines, run
/// `rpni_dtop` with the universal domain, compile, build the guard.
pub fn learn_layers(targets: &[LearnTarget], budget: Duration) -> LearnLayers {
    let per_target = budget / targets.len() as u32 / 4;
    let mut sums = [0.0; 4];
    let (mut nodes, mut states) = (0.0, 0.0);
    let mut minimal = true;
    for t in targets {
        let parse_pairs = || -> Vec<(Tree, Tree)> {
            t.sample_lines
                .iter()
                .map(|l| {
                    let (i, o) = l.split_once("=>").expect("sample line");
                    (
                        parse_tree(i.trim()).expect("input"),
                        parse_tree(o.trim()).expect("output"),
                    )
                })
                .collect()
        };
        sums[0] += median_pass(per_target, 3, || {
            black_box(Sample::from_pairs(parse_pairs()).expect("functional"));
        });
        let pairs = parse_pairs();
        let domain = Dtta::universal(infer_alphabet(pairs.iter().map(|(i, _)| i)));
        let output = infer_alphabet(pairs.iter().map(|(_, o)| o));
        let sample = Sample::from_pairs(pairs).expect("functional");
        let learned = rpni_dtop(&sample, &domain, &output).expect("learns");
        sums[1] += median_pass(per_target, 3, || {
            black_box(rpni_dtop(&sample, &domain, &output).expect("learns"));
        });
        sums[2] += median_pass(per_target, 3, || {
            black_box(xtt_engine::compile(&learned.dtop).expect("compiles"));
        });
        sums[3] += median_pass(per_target, 3, || {
            black_box(xtt_typecheck::domain_guard(&learned.dtop).expect("guards"));
        });
        nodes += sample.total_size() as f64;
        states += learned.dtop.state_count() as f64;
        minimal &= learned.dtop.state_count() == t.min_states;
    }
    let n = targets.len() as f64;
    LearnLayers {
        sample_parse_ms: sums[0] * 1e3 / n,
        rpni_ms: sums[1] * 1e3 / n,
        compile_ms: sums[2] * 1e3 / n,
        guard_ms: sums[3] * 1e3 / n,
        sample_nodes: nodes / n,
        learned_states: states / n,
        minimal,
    }
}
