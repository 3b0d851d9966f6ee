//! `xtt-transform` — transform newline-delimited documents at throughput.
//!
//! ```console
//! $ printf 'root(a(#,#),b(#,#))\n' | xtt-transform --example flip
//! root(b(#,#),a(#,#))
//! $ xtt-transform --example flip --demo 100000 --mode tree --quiet
//! ... throughput stats on stderr ...
//! ```
//!
//! One document per input line; results (or `!error: …`) one per output
//! line, in input order. `--demo N` generates a synthetic corpus for the
//! chosen example instead of reading stdin, which is how the CI smoke
//! test and quick benchmarking run it. A single transducer runs as a
//! one-stage chain, so `--example` and `--pipeline` take the same path
//! through the engine.

use std::io::{BufWriter, Read, Write};
use std::sync::Arc;
use std::time::Instant;

use xtt_engine::{tree_to_xml, ChainStage, DocFormat, Engine, EngineOptions, EvalMode, Request};
use xtt_obs::{EvalObserver, Trace};
use xtt_pipeline::{plan, StageDef, StrategyChoice};
use xtt_transducer::{examples, Dtop, DtopBuilder};
use xtt_trees::{RankedAlphabet, Tree};
use xtt_typecheck::CompiledDtta;

const USAGE: &str = "\
xtt-transform: apply a dtop to newline-delimited documents

USAGE: xtt-transform [OPTIONS]

OPTIONS:
  --example <flip|library|copy|prune>  built-in transducer  [default: flip]
  --pipeline <t1,t2[,t3]>        run a composition pipeline of built-in
                                 transducers (τₙ∘…∘τ₁, t1 applied first)
                                 instead of a single --example, as their
                                 composed transducer (with --validate,
                                 guarded by the chain domain)
  --mode <tree|stream>           tree: collect the input tree, evaluate,
                                 then write; stream: one streaming pass
                                 (`compiled` = tree)       [default: tree]
  --format <term|xml|xml+attrs>  document syntax            [default: term]
                                 (xml+attrs maps attributes into the
                                 ranked encoding as an @attrs child)
  --encoding <fcns>              treat documents as genuine unranked XML
                                 through the named ranked encoding
                                 (overrides --format; streaming mode
                                 encodes off the tokenizer with no
                                 intermediate tree)
  --jobs <N>                     worker threads (0 = auto)  [default: 0]
  --demo <N>                     generate N demo documents instead of stdin
  --validate                     guarded evaluation: reject out-of-domain
                                 documents with a typed violation path
  --stream-output                event-driven emission: output bytes are
                                 flushed as committed (order-preserving
                                 regions stream before the input ends;
                                 evaluation is always streaming mode);
                                 emission stats land on stderr
  --profile                      aggregate per-stage pipeline timing
                                 (tokenize/encode/guard/eval/emit) across
                                 the whole run, printed on stderr
  --quiet                        suppress per-document output
  --help                         print this help
";

struct Args {
    example: String,
    pipeline: Option<Vec<String>>,
    mode: EvalMode,
    format: DocFormat,
    encoding: Option<String>,
    jobs: usize,
    demo: Option<usize>,
    validate: bool,
    stream_output: bool,
    profile: bool,
    quiet: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        example: "flip".to_owned(),
        pipeline: None,
        mode: EvalMode::Compiled,
        format: DocFormat::Term,
        encoding: None,
        jobs: 0,
        demo: None,
        validate: false,
        stream_output: false,
        profile: false,
        quiet: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("missing value for {name}"));
        match flag.as_str() {
            "--example" => args.example = value("--example")?,
            "--pipeline" => {
                let list = value("--pipeline")?;
                let names: Vec<String> = list
                    .split(',')
                    .map(str::trim)
                    .filter(|s| !s.is_empty())
                    .map(str::to_owned)
                    .collect();
                if names.is_empty() {
                    return Err("--pipeline needs at least one stage".to_owned());
                }
                args.pipeline = Some(names);
            }
            "--mode" => {
                let name = value("--mode")?;
                args.mode =
                    EvalMode::parse(&name).ok_or_else(|| format!("unknown mode '{name}'"))?;
            }
            "--format" => {
                let name = value("--format")?;
                args.format =
                    DocFormat::parse(&name).ok_or_else(|| format!("unknown format '{name}'"))?;
            }
            "--encoding" => {
                let name = value("--encoding")?;
                if name != "fcns" {
                    return Err(format!(
                        "unknown encoding '{name}' (the CLI supports fcns; DTD-based \
                         encodings are served via xtt-serve's PUT /encodings)"
                    ));
                }
                args.encoding = Some(name);
            }
            "--jobs" => {
                args.jobs = value("--jobs")?
                    .parse()
                    .map_err(|_| "bad --jobs value".to_owned())?
            }
            "--demo" => {
                args.demo = Some(
                    value("--demo")?
                        .parse()
                        .map_err(|_| "bad --demo value".to_owned())?,
                )
            }
            "--validate" => args.validate = true,
            "--stream-output" => args.stream_output = true,
            "--profile" => args.profile = true,
            "--quiet" => args.quiet = true,
            "--help" | "-h" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown option '{other}'")),
        }
    }
    // --encoding overrides --format regardless of argument order.
    if let Some(name) = &args.encoding {
        args.format = DocFormat::parse(name).expect("validated encoding name");
    }
    Ok(args)
}

fn example_dtop(name: &str) -> Result<Dtop, String> {
    match name {
        "flip" => Ok(examples::flip().dtop),
        "library" => Ok(examples::library().dtop),
        "copy" => Ok(examples::monadic_to_binary().dtop),
        "prune" => Ok(prune_dtop()),
        other => Err(format!(
            "unknown example '{other}' (expected flip, library, copy, or prune)"
        )),
    }
}

/// A dtop over the fc/ns encoding: drop every `<b>` element (with its
/// whole subtree — a genuine deletion the streaming skip fast path
/// exercises), keep everything else. Drive it with `--encoding fcns`.
fn prune_dtop() -> Dtop {
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

fn demo_tree(example: &str, i: usize) -> Tree {
    match example {
        "library" => examples::library_input(i % 6 + 1),
        "copy" => {
            let mut t = Tree::leaf_named("e");
            for _ in 0..(i % 12 + 1) {
                t = Tree::node("f", vec![t]);
            }
            t
        }
        _ => examples::flip_input(i % 8 + 1, i % 5 + 1),
    }
}

/// Demo documents for the encoded (genuine unranked XML) path.
fn demo_xml(i: usize) -> String {
    let depth = i % 4 + 1;
    // The deleted <b> content *starts with an element*, so the encoded
    // skip fast path engages (a deleted region opening on text falls
    // back to event-level skipping).
    format!(
        "<root>{}{}<b><a>deleted text</a><a/></b>{}{}</root>",
        "<a>".repeat(depth),
        "</a>".repeat(depth),
        "<a/>".repeat(i % 3),
        "<b/>".repeat(i % 2 + 1),
    )
}

fn demo_doc(example: &str, i: usize, format: &DocFormat) -> String {
    match format {
        DocFormat::Term => demo_tree(example, i).to_string(),
        // Attribute-free documents encode identically in both XML forms.
        DocFormat::Xml | DocFormat::XmlAttrs => tree_to_xml(&demo_tree(example, i)),
        DocFormat::Encoded(_) => demo_xml(i),
    }
}

/// The chain a run executes: `--pipeline` plans the composition into one
/// compiled machine (and its chain-domain guard), `--example` is a
/// one-stage chain.
fn resolve(
    engine: &Engine,
    args: &Args,
) -> Result<(Vec<ChainStage>, Option<Arc<CompiledDtta>>), String> {
    let Some(names) = &args.pipeline else {
        let dtop = example_dtop(&args.example)?;
        let (stage, guard) = engine
            .resolve(&dtop, args.validate)
            .map_err(|e| e.to_string())?;
        return Ok((vec![stage], guard));
    };
    let mut stages = Vec::with_capacity(names.len());
    for name in names {
        stages.push(StageDef {
            name: name.clone(),
            dtop: Arc::new(example_dtop(name)?),
        });
    }
    let plan =
        plan(&stages, None, StrategyChoice::Auto).map_err(|e| format!("planning pipeline: {e}"))?;
    Ok((
        plan.exec_stages().to_vec(),
        args.validate.then(|| plan.guard_arc()),
    ))
}

/// Tracks whether a failing document already flushed a partial prefix.
struct CountingWriter<'a> {
    inner: &'a mut dyn Write,
    bytes: u64,
}

impl Write for CountingWriter<'_> {
    fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
        let n = self.inner.write(data)?;
        self.bytes += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            std::process::exit(2);
        }
    };
    let engine = Engine::new(EngineOptions {
        workers: args.jobs,
        ..EngineOptions::default()
    });
    let (stages, guard) = match resolve(&engine, &args) {
        Ok(chain) => chain,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };

    let docs: Vec<String> = match args.demo {
        Some(n) => (0..n)
            .map(|i| demo_doc(&args.example, i, &args.format))
            .collect(),
        None => {
            let mut buf = String::new();
            if std::io::stdin().read_to_string(&mut buf).is_err() {
                eprintln!("error: stdin is not valid UTF-8");
                std::process::exit(2);
            }
            buf.lines()
                .map(str::trim)
                .filter(|l| !l.is_empty())
                .map(str::to_owned)
                .collect()
        }
    };
    let in_bytes: usize = docs.iter().map(String::len).sum();

    let stdout = std::io::stdout();
    let mut out = BufWriter::new(stdout.lock());
    let mut sink: &mut dyn Write = &mut out;
    let mut null = std::io::sink();
    if args.quiet {
        sink = &mut null;
    }
    let mut trace = args.profile.then(|| Trace::new(0));
    let t0 = Instant::now();
    let mut failures = 0usize;
    let mut streamed = String::new();
    if args.stream_output {
        // `--stream-output`: each document is driven source → evaluator →
        // stdout in one pass; committed output prefixes are written (and
        // flushed) before the document — let alone the batch — completes.
        // Failures still answer positionally (`!error:` lines, after a
        // newline when a partial prefix is already out).
        let (mut early, mut total, mut peak_buffered) = (0u64, 0u64, 0usize);
        for doc in &docs {
            let mut counted = CountingWriter {
                inner: &mut sink,
                bytes: 0,
            };
            let req = Request {
                observer: trace.as_mut().map(|t| t as &mut dyn EvalObserver),
                ..Request::new(&stages, guard.as_deref(), &args.format, EvalMode::Streaming)
            };
            match engine.run_doc(doc, &mut counted, req) {
                Ok(outcome) => {
                    early += outcome.events_emitted_early;
                    total += outcome.events_total;
                    peak_buffered = peak_buffered.max(outcome.peak_buffered_frames);
                    writeln!(sink).expect("write stdout");
                }
                Err(e) => {
                    failures += 1;
                    let sep = if counted.bytes > 0 { "\n" } else { "" };
                    writeln!(sink, "{sep}!error: {e}").expect("write stdout");
                }
            }
            sink.flush().expect("flush stdout");
        }
        streamed = format!(
            " | streamed: {early}/{total} events early, peak buffered frames {peak_buffered}, \
             skipped subtrees {}",
            engine.skipped_subtrees()
        );
    } else {
        let req = Request {
            observer: trace.as_mut().map(|t| t as &mut dyn EvalObserver),
            ..Request::new(&stages, guard.as_deref(), &args.format, args.mode)
        };
        for result in engine.run_batch(&docs, req) {
            match result {
                Ok(text) => writeln!(sink, "{text}").expect("write stdout"),
                Err(e) => {
                    failures += 1;
                    writeln!(sink, "!error: {e}").expect("write stdout");
                }
            }
        }
        sink.flush().expect("flush stdout");
    }
    let secs = t0.elapsed().as_secs_f64().max(1e-9);
    eprintln!(
        "{} docs ({} ok, {} failed) in {:.3}s — {:.0} docs/s, {:.2} MB/s in{streamed}",
        docs.len(),
        docs.len() - failures,
        failures,
        secs,
        docs.len() as f64 / secs,
        in_bytes as f64 / secs / 1e6,
    );
    if let Some(t) = &trace {
        eprintln!(
            "pipeline profile: {} total_us={}",
            t.breakdown_micros(),
            t.total().as_micros(),
        );
    }
}
