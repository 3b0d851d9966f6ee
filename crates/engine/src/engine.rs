//! The execution core. Every document runs as **source → machine →
//! sink**: its [`DocFormat`] supplies the event source that reads it and
//! the serializer its output streams into; the machine is one
//! [`CompiledDtop`] with an optional domain guard ([`Request`]) — a
//! transducer's own ([`Engine::resolve`]) or a pipeline's composed
//! machine under its chain-domain guard. `tree` mode loads the whole
//! document into the evaluator's flat arrays in one pass over the source
//! (the guard fed the same events), evaluates it, and replays the output
//! arena into the sink; `stream` mode runs the guard in lockstep with the
//! source and writes committed output events into the sink as they
//! commit.
//!
//! [`Engine::run_doc`] writes one document's bytes; [`Engine::run_batch`]
//! aims the same routine at a buffer per document. Both run on the
//! caller's thread — the engine starts no threads, so a server's request
//! pool is the only concurrency — and the `Rc`-based [`Tree`] that
//! `stream` mode buffers never crosses a thread boundary. Compiled
//! transducers and guards live in LRU caches keyed by
//! [`crate::fingerprint`], so repeat traffic never recompiles; a cache
//! miss builds once, outside the cache's lock.

use std::io;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use xtt_obs::{EvalObserver, Stage};
use xtt_transducer::Dtop;
use xtt_trees::{parse_tree, EventError, ParseError, Symbol, TermEvents, Tree, TreeEvent};
use xtt_typecheck::{domain_guard, CompiledDtta, DttaRun, TypeError};
use xtt_unranked::{UnrankedError, UnrankedEvents, XmlCodec, XmlWriter};
use xtt_xml::EncodeError;

use crate::compile::{compile, fingerprint_of, CompileError, CompiledDtop};
use crate::eval::{self, EvalScratch};
use crate::stream::{
    EmitStats, GuardedSource, IterEvents, OutputSink, StreamEvaluator, TreeEventSource,
    XmlRankedEvents,
};

/// How the machine runs over a document (see the module docs).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum EvalMode {
    /// Load the input into the compiled evaluator in one pass (the guard
    /// fed the same events), evaluate it, replay the output into the
    /// sink.
    #[default]
    Compiled,
    /// One pass over the event stream: lockstep guard, streaming
    /// evaluator, output bytes written as their prefixes commit.
    Streaming,
}

impl EvalMode {
    /// Parses the names used by the CLI and the HTTP API (`tree` or
    /// `compiled`, `stream` or `streaming`).
    pub fn parse(name: &str) -> Option<EvalMode> {
        match name {
            "tree" | "compiled" => Some(EvalMode::Compiled),
            "stream" | "streaming" => Some(EvalMode::Streaming),
            _ => None,
        }
    }
}

/// How documents are read and results written.
#[derive(Clone, Debug, Default)]
pub enum DocFormat {
    /// The workspace term syntax, e.g. `root(a(#,#),b(#,#))`.
    #[default]
    Term,
    /// XML read as a ranked tree directly (elements = symbols of their
    /// child arity, text = whitespace-separated leaf tokens), via
    /// [`XmlRankedEvents`].
    Xml,
    /// [`DocFormat::Xml`] with attributes surfaced: an element with
    /// attributes gains an `@attrs` first child (one `@name` node per
    /// attribute, value tokens as its leaves) on the way in, and `@attrs`
    /// children decode back to `name="value"` syntax on the way out — so
    /// transducer rules can address attributes like any child subtree.
    /// Named `xml+attrs` in the CLI and HTTP API.
    XmlAttrs,
    /// Genuine unranked XML through a ranked encoding
    /// ([`xtt_unranked::XmlCodec`]): documents are encoded
    /// *incrementally* off the SAX tokenizer (fc/ns or a DTD-based
    /// encoding — in `stream` mode with no intermediate tree at all) and
    /// output events are decoded back to unranked XML text.
    Encoded(XmlCodec),
}

impl DocFormat {
    /// Parses the names used by the CLI and the HTTP API. Named DTD
    /// encodings are resolved by the server's encoding registry; here
    /// only `fcns` is nameable.
    pub fn parse(name: &str) -> Option<DocFormat> {
        match name {
            "term" => Some(DocFormat::Term),
            "xml" => Some(DocFormat::Xml),
            "xml+attrs" => Some(DocFormat::XmlAttrs),
            "fcns" => Some(DocFormat::Encoded(XmlCodec::fcns_bounded(
                crate::stream::unknown_symbol(),
            ))),
            _ => None,
        }
    }
}

/// Engine configuration.
#[derive(Clone, Debug)]
pub struct EngineOptions {
    /// Capacity of the compiled-transducer and domain-guard LRU caches.
    pub cache_capacity: usize,
    /// Default mode of [`Engine::transform`] (and of serving layers).
    pub mode: EvalMode,
    /// Default format of [`Engine::transform`] (and of serving layers).
    pub format: DocFormat,
    /// Documents whose *output tree* would exceed this many nodes fail
    /// with [`EngineError::OutputTooLarge`] instead of being emitted:
    /// `tree` mode measures the evaluated output, whose repeated subtrees
    /// are shared (so an exponential output is never unfolded), `stream`
    /// mode counts output nodes as they pass. `None` = unbounded.
    pub max_output_nodes: Option<u64>,
    /// Default validation of [`Engine::transform`] (and of serving
    /// layers): out-of-domain documents fail with a typed
    /// [`EngineError::Type`] that names the first violating node.
    pub validate: bool,
}

impl Default for EngineOptions {
    fn default() -> EngineOptions {
        EngineOptions {
            cache_capacity: 8,
            mode: EvalMode::Compiled,
            format: DocFormat::Term,
            max_output_nodes: None,
            validate: false,
        }
    }
}

/// Per-document failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EngineError {
    /// The document is not parseable in the configured [`DocFormat`] (or
    /// its output has no form in it).
    Parse(String),
    /// The document is outside `dom(⟦M⟧)`.
    Undefined,
    /// The transducer exceeded a compiled-form capacity limit.
    Compile(String),
    /// The evaluator panicked on this document; the rest of the batch is
    /// unaffected (the worker recovers with fresh scratch state).
    Internal(String),
    /// With [`DocFormat::Encoded`]: the document does not match the
    /// encoding's DTD, or the output tree is not decodable as unranked
    /// XML under the output encoding.
    Encoding(String),
    /// The output tree exceeds [`EngineOptions::max_output_nodes`]
    /// (`.0` is the measured size — in `stream` mode, the count when the
    /// bound tripped — saturating at `u64::MAX`).
    OutputTooLarge(u64),
    /// Guarded evaluation rejected the document: it is outside
    /// `dom(⟦M⟧)`, and the diagnostic names the first violating node.
    /// Only produced when a guard is attached (otherwise out-of-domain
    /// documents surface as [`EngineError::Undefined`]).
    Type(TypeError),
    /// [`Engine::run_doc`]: the output writer failed mid-document. `kind`
    /// preserves the [`io::ErrorKind`] so a serving layer can distinguish
    /// a slow client (`TimedOut`/`WouldBlock`) from a disconnect.
    Write {
        kind: io::ErrorKind,
        message: String,
    },
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Parse(e) => write!(f, "parse error: {e}"),
            EngineError::Undefined => write!(f, "input outside the transduction domain"),
            EngineError::Compile(e) => write!(f, "compile error: {e}"),
            EngineError::Internal(e) => write!(f, "internal error: {e}"),
            EngineError::Encoding(e) => write!(f, "encoding error: {e}"),
            EngineError::OutputTooLarge(n) => {
                write!(f, "output too large: {n} nodes exceed the configured bound")
            }
            EngineError::Type(e) => write!(f, "type error {e}"),
            EngineError::Write { kind, message } => write!(f, "write error ({kind:?}): {message}"),
        }
    }
}

impl std::error::Error for EngineError {}

fn parse_error(e: impl ToString) -> EngineError {
    EngineError::Parse(e.to_string())
}

fn write_error(e: io::Error) -> EngineError {
    EngineError::Write {
        kind: e.kind(),
        message: e.to_string(),
    }
}

/// Maps an encoded-source failure onto the engine's error taxonomy: XML
/// syntax errors are parse errors, DTD/encoding mismatches are encoding
/// errors.
fn encoded_error(e: UnrankedError) -> EngineError {
    match e {
        UnrankedError::Xml(x) => parse_error(x),
        UnrankedError::Encode(x) => EngineError::Encoding(x.to_string()),
    }
}

struct LruEntry<V> {
    fp: u64,
    /// The exact rendering the fingerprint hashed; compared on every hit
    /// so a 64-bit collision can never serve the wrong transducer.
    rendering: String,
    /// Empty while its first miss builds; that build holds the lock.
    slot: Arc<Mutex<Option<V>>>,
}

/// The one LRU discipline behind the compiled-transducer cache, the
/// domain-guard cache, and `xtt-pipeline`'s compiled-plan cache:
/// fingerprint + exact-rendering lookup (a 64-bit collision can never
/// serve the wrong value), least-recently-used eviction on insert. Safe
/// to share: the lock covers lookups and inserts, never a build.
pub struct LruCache<V> {
    /// Least recently used first.
    entries: Mutex<Vec<LruEntry<V>>>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl<V: Clone> LruCache<V> {
    /// An empty cache holding at most `capacity` (at least 1) entries.
    pub fn new(capacity: usize) -> LruCache<V> {
        LruCache {
            entries: Mutex::new(Vec::new()),
            capacity: capacity.max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Vec<LruEntry<V>>> {
        self.entries.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Hit/miss/occupancy counters (monotonic over the cache's life).
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.lock().len(),
        }
    }

    /// The slot for `(fp, rendering)`, now the most recently used: on a
    /// miss a new, empty one, evicting the least-recently-used entry at
    /// capacity.
    fn slot(&self, fp: u64, rendering: &str) -> Arc<Mutex<Option<V>>> {
        let mut entries = self.lock();
        let entry = match entries
            .iter()
            .position(|e| e.fp == fp && e.rendering == rendering)
        {
            Some(at) => entries.remove(at),
            None => {
                if entries.len() >= self.capacity {
                    entries.remove(0);
                }
                LruEntry {
                    fp,
                    rendering: rendering.to_owned(),
                    slot: Arc::default(),
                }
            }
        };
        let slot = Arc::clone(&entry.slot);
        entries.push(entry);
        slot
    }

    /// Returns the cached value for `(fp, rendering)`. A miss inserts the
    /// key's slot and builds into it with the cache unlocked — so a slow
    /// build (a compile, a subset construction, a plan) never blocks
    /// lookups of other keys — and counts as the one miss. A lookup of
    /// the same key meanwhile waits for that build and takes its value,
    /// as a hit. A failed or panicking build leaves no entry, and each
    /// lookup that waited on it builds for itself.
    pub fn get_or_insert_with<E>(
        &self,
        fp: u64,
        rendering: &str,
        build: impl FnOnce() -> Result<V, E>,
    ) -> Result<V, E> {
        let slot = self.slot(fp, rendering);
        let mut value = slot.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(value) = value.as_ref() {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(value.clone());
        }
        let built = catch_unwind(AssertUnwindSafe(build));
        match &built {
            Ok(Ok(v)) => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                *value = Some(v.clone());
            }
            _ => self.lock().retain(|e| !Arc::ptr_eq(&e.slot, &slot)),
        }
        drop(value);
        built.unwrap_or_else(|panic| resume_unwind(panic))
    }
}

/// Cache observability counters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    pub entries: usize,
}

/// Violation counters for guarded evaluation (see
/// [`Engine::validation_stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ValidationStats {
    /// Documents that went through a domain guard.
    pub docs_validated: u64,
    /// Documents the guard rejected before (or instead of) evaluation.
    pub docs_rejected_pre_eval: u64,
    /// Domain guards built (guard-cache misses).
    pub guards_compiled: u64,
}

/// What one [`Engine::run_doc`] did (per-document observability;
/// `xtt-serve` aggregates these into `/stats`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StreamOutcome {
    /// Bytes handed to the output writer.
    pub bytes_written: u64,
    /// Output events emitted before the input was fully consumed (always
    /// 0 in `tree` mode).
    pub events_emitted_early: u64,
    /// Total output events.
    pub events_total: u64,
    /// High-water mark of buffered (permuting/copying) output frames;
    /// 0 on a fully order-preserving run (and in `tree` mode).
    pub peak_buffered_frames: usize,
    /// Deleted subtrees fast-forwarded at the tokenizer.
    pub skipped_subtrees: u64,
}

/// A compiled machine wrapped as a one-element stage list. Kept, with
/// this shape, only because `perfbench/src/layers.rs` passes
/// `Plan::exec_stages()` to [`Engine::transform_batch_chain`].
#[derive(Clone)]
pub struct ChainStage {
    pub compiled: Arc<CompiledDtop>,
}

/// Everything an execution depends on besides the documents.
pub struct Request<'a> {
    /// The one compiled machine every document runs through.
    pub machine: &'a CompiledDtop,
    /// The machine's domain guard — for a pipeline, the exact chain
    /// domain; `Some` = guarded evaluation, counted in
    /// [`Engine::validation_stats`].
    pub guard: Option<&'a CompiledDtta>,
    pub format: &'a DocFormat,
    pub mode: EvalMode,
    /// Stamped at every stage boundary a document crosses (tokenize,
    /// encode, eval, emit; fused work, a guard's included, is charged to
    /// the stage it ends in); `None` costs nothing.
    pub observer: Option<&'a mut dyn EvalObserver>,
}

impl<'a> Request<'a> {
    /// A request without an observer.
    pub fn new(
        machine: &'a CompiledDtop,
        guard: Option<&'a CompiledDtta>,
        format: &'a DocFormat,
        mode: EvalMode,
    ) -> Request<'a> {
        Request {
            machine,
            guard,
            format,
            mode,
            observer: None,
        }
    }
}

/// A reusable transformation service; see the module docs.
pub struct Engine {
    opts: EngineOptions,
    cache: LruCache<Arc<CompiledDtop>>,
    guards: LruCache<Arc<CompiledDtta>>,
    /// Guarded documents, and the ones their guard rejected.
    validated: AtomicU64,
    rejected: AtomicU64,
    /// Deleted subtrees fast-forwarded at the tokenizer, across all
    /// documents this engine streamed.
    skips: AtomicU64,
}

impl Default for Engine {
    fn default() -> Engine {
        Engine::new(EngineOptions::default())
    }
}

impl Engine {
    pub fn new(opts: EngineOptions) -> Engine {
        Engine {
            cache: LruCache::new(opts.cache_capacity),
            guards: LruCache::new(opts.cache_capacity),
            opts,
            validated: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            skips: AtomicU64::new(0),
        }
    }

    /// A shareable handle, for long-lived services (`xtt-serve`) that hand
    /// one engine to many connection handlers.
    pub fn shared(opts: EngineOptions) -> Arc<Engine> {
        Arc::new(Engine::new(opts))
    }

    pub fn options(&self) -> &EngineOptions {
        &self.opts
    }

    /// The compiled form of `dtop`, from the LRU cache when its
    /// fingerprint was seen before (hits are verified against the exact
    /// rendered structure, not just the hash).
    pub fn compiled(&self, dtop: &Dtop) -> Result<Arc<CompiledDtop>, CompileError> {
        self.compiled_at(dtop, &Key::of(dtop))
    }

    fn compiled_at(&self, dtop: &Dtop, key: &Key) -> Result<Arc<CompiledDtop>, CompileError> {
        cached(&self.cache, key, || compile(dtop).map(Arc::new))
    }

    /// Cache counters (for observability and tests).
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// The compiled domain guard of `dtop`, from its own LRU cache (same
    /// fingerprint key and verification as [`Engine::compiled`]). The
    /// subset construction can blow up on adversarial transducers; a
    /// capacity overrun surfaces as [`EngineError::Compile`] instead of
    /// taking the process down.
    pub fn guard(&self, dtop: &Dtop) -> Result<Arc<CompiledDtta>, EngineError> {
        self.guard_at(dtop, &Key::of(dtop))
    }

    fn guard_at(&self, dtop: &Dtop, key: &Key) -> Result<Arc<CompiledDtta>, EngineError> {
        cached(&self.guards, key, || {
            catch_unwind(AssertUnwindSafe(|| domain_guard(dtop)))
                .map_err(|_| EngineError::Compile("domain guard construction blew up".into()))?
                .map(Arc::new)
                .map_err(|e| EngineError::Compile(e.to_string()))
        })
    }

    /// `dtop`'s compiled machine from the transducer LRU and, when
    /// `validate`, its domain guard from the guard LRU — what a
    /// [`Request`] for a single transducer carries. `dtop` is rendered
    /// once for both lookups.
    pub fn resolve(
        &self,
        dtop: &Dtop,
        validate: bool,
    ) -> Result<(Arc<CompiledDtop>, Option<Arc<CompiledDtta>>), EngineError> {
        let key = Key::of(dtop);
        let machine = self
            .compiled_at(dtop, &key)
            .map_err(|e| EngineError::Compile(e.to_string()))?;
        let guard = validate.then(|| self.guard_at(dtop, &key)).transpose()?;
        Ok((machine, guard))
    }

    /// Guarded-evaluation counters (for `/stats` and tests).
    pub fn validation_stats(&self) -> ValidationStats {
        ValidationStats {
            docs_validated: self.validated.load(Ordering::Relaxed),
            docs_rejected_pre_eval: self.rejected.load(Ordering::Relaxed),
            guards_compiled: self.guards.stats().misses,
        }
    }

    /// Deleted subtrees fast-forwarded at the tokenizer, totalled across
    /// every document this engine streamed — raw-XML and encoded sources
    /// alike.
    pub fn skipped_subtrees(&self) -> u64 {
        self.skips.load(Ordering::Relaxed)
    }

    /// Counts guarded documents into the violation counters. Documents
    /// that never reached a guard (parse or compile failures) do not
    /// count as validated.
    fn record_validation<T>(&self, results: &[Result<T, EngineError>]) {
        let count =
            |f: fn(&Result<T, EngineError>) -> bool| results.iter().filter(|r| f(r)).count();
        let validated =
            count(|r| !matches!(r, Err(EngineError::Parse(_) | EngineError::Compile(_))));
        let rejected = count(|r| matches!(r, Err(EngineError::Type(_))));
        self.validated
            .fetch_add(validated as u64, Ordering::Relaxed);
        self.rejected.fetch_add(rejected as u64, Ordering::Relaxed);
    }

    /// Runs a batch on the calling thread and returns every document's
    /// output text (its [`Engine::run_doc`] bytes) in input order;
    /// failures — even evaluator panics — are per-document and
    /// positional. One worker, created for this call, runs the documents
    /// in order, so an observer's stamps accumulate into one breakdown.
    pub fn run_batch<D: AsRef<str>>(
        &self,
        docs: &[D],
        mut req: Request<'_>,
    ) -> Vec<Result<String, EngineError>> {
        let mut worker = Worker::new();
        let results: Vec<_> = docs
            .iter()
            .map(|d| worker.text(self, d.as_ref(), &mut req))
            .collect();
        if req.guard.is_some() {
            self.record_validation(&results);
        }
        results
    }

    /// Runs one document, writing its output bytes to `out` as the
    /// format's sink produces them — in `stream` mode, before the input
    /// is fully read, so on `Err` a partial prefix may already be out.
    pub fn run_doc(
        &self,
        doc: &str,
        out: &mut dyn io::Write,
        mut req: Request<'_>,
    ) -> Result<StreamOutcome, EngineError> {
        let result = Worker::new().run(self, doc, out, &mut req);
        if req.guard.is_some() {
            self.record_validation(std::slice::from_ref(&result));
        }
        result
    }

    /// Transforms one document with the engine's configured mode, format
    /// and validation — [`Engine::run_batch`] on `dtop`'s compiled machine.
    pub fn transform(&self, dtop: &Dtop, doc: &str) -> Result<String, EngineError> {
        let o = &self.opts;
        let (machine, guard) = self.resolve(dtop, o.validate)?;
        let req = Request::new(&machine, guard.as_deref(), &o.format, o.mode);
        self.run_batch(&[doc], req)
            .pop()
            .expect("one result per document")
    }

    /// [`Engine::run_doc`] in `stream` mode on `dtop`'s compiled machine.
    /// Kept, with this signature, for the calls in `perfbench/src/layers.rs`.
    pub fn transform_streaming_with(
        &self,
        dtop: &Dtop,
        doc: &str,
        format: DocFormat,
        validate: bool,
        out: &mut dyn io::Write,
    ) -> Result<StreamOutcome, EngineError> {
        let (machine, guard) = self.resolve(dtop, validate)?;
        let req = Request::new(&machine, guard.as_deref(), &format, EvalMode::Streaming);
        self.run_doc(doc, out, req)
    }

    /// [`Engine::run_batch`] on `dtop`'s compiled machine. Kept, with
    /// this signature, for the calls in `perfbench/src/layers.rs`.
    pub fn transform_batch_with_validation(
        &self,
        dtop: &Dtop,
        docs: &[String],
        mode: EvalMode,
        format: DocFormat,
        validate: bool,
    ) -> Vec<Result<String, EngineError>> {
        match self.resolve(dtop, validate) {
            Ok((machine, guard)) => self.run_batch(
                docs,
                Request::new(&machine, guard.as_deref(), &format, mode),
            ),
            Err(e) => vec![Err(e); docs.len()],
        }
    }

    /// [`Engine::run_batch`] on a plan's one-element
    /// [`ChainStage`] list. Kept, with this signature (stage list and an
    /// ignored `_stage_events` tap), only for the call in
    /// `perfbench/src/layers.rs`.
    pub fn transform_batch_chain(
        &self,
        stages: &[ChainStage],
        docs: &[String],
        mode: EvalMode,
        format: DocFormat,
        guard: Option<&CompiledDtta>,
        _stage_events: Option<&(dyn Fn(usize, u64) + Sync)>,
    ) -> Vec<Result<String, EngineError>> {
        let [stage] = stages else {
            panic!("a request runs one machine, got {} stages", stages.len());
        };
        self.run_batch(docs, Request::new(&stage.compiled, guard, &format, mode))
    }
}

/// [`TreeEventSource`] over a fallible event iterator — the term
/// tokenizer, the codec's incremental encoder: the first error ends the
/// stream and is kept for the verdict.
struct Fallible<I, E> {
    inner: I,
    error: Option<E>,
}

impl<I: Iterator<Item = Result<TreeEvent, E>>, E> Fallible<I, E> {
    fn new(inner: I) -> Fallible<I, E> {
        Fallible { inner, error: None }
    }

    fn pull(&mut self) -> Option<TreeEvent> {
        let event = self.inner.next().filter(|_| self.error.is_none())?;
        event.map_err(|e| self.error = Some(e)).ok()
    }
}

impl TreeEventSource for Fallible<TermEvents<'_>, ParseError> {
    fn next_event(&mut self) -> Option<TreeEvent> {
        self.pull()
    }
}

/// The encoder with its raw fast-forward wired through.
impl TreeEventSource for Fallible<UnrankedEvents<'_>, UnrankedError> {
    fn next_event(&mut self) -> Option<TreeEvent> {
        self.pull()
    }

    fn skip_subtree(&mut self) -> bool {
        // A structural error inside the fast-forward ends the stream
        // either way: report the skip as taken, and the next
        // `next_event` returns `None` so the error surfaces.
        self.inner.skip_subtree().unwrap_or_else(|e| {
            self.error = Some(e);
            true
        })
    }
}

/// Feeds a guard every event it passes on, without cutting the stream:
/// `tree` mode reads the whole document before the guard's violation
/// counts, so a parse error after the violation still wins.
struct Checked<'g, S> {
    inner: S,
    /// `None` once it has reported its violation.
    run: Option<DttaRun<'g>>,
    violation: Option<TypeError>,
}

impl<S: TreeEventSource> TreeEventSource for Checked<'_, S> {
    fn next_event(&mut self) -> Option<TreeEvent> {
        let event = self.inner.next_event()?;
        if let Some(Err(violation)) = self.run.as_mut().map(|run| run.feed(event)) {
            self.violation = Some(violation);
            self.run = None;
        }
        Some(event)
    }
}

/// The output half of a [`DocFormat`]: its serializer over the caller's
/// writer. An output with no form in the format stops it with `failure`.
pub(crate) struct FormatSink<'w> {
    out: &'w mut dyn io::Write,
    bytes: u64,
    failure: Option<EngineError>,
    kind: SinkKind,
}

enum SinkKind {
    /// Term syntax, as `Tree::to_string()`: the symbol awaiting leaf or
    /// inner, and whether the next node follows a sibling.
    Term(Option<Symbol>, bool),
    Xml(XmlState),
    /// Unranked XML decoded by the codec's incremental [`XmlWriter`],
    /// each committed text prefix written as it is produced.
    Encoded(Option<XmlWriter>),
}

impl<'w> FormatSink<'w> {
    pub(crate) fn new(format: &DocFormat, out: &'w mut dyn io::Write) -> FormatSink<'w> {
        let kind = match format {
            DocFormat::Term => SinkKind::Term(None, false),
            DocFormat::Xml => SinkKind::Xml(XmlState::new(false, true)),
            DocFormat::XmlAttrs => SinkKind::Xml(XmlState::new(true, true)),
            DocFormat::Encoded(codec) => SinkKind::Encoded(Some(codec.writer())),
        };
        FormatSink {
            out,
            bytes: 0,
            failure: None,
            kind,
        }
    }

    fn put(&mut self, s: &str) -> io::Result<()> {
        self.out.write_all(s.as_bytes())?;
        self.bytes += s.len() as u64;
        Ok(())
    }

    fn puts(&mut self, parts: &[&str]) -> io::Result<()> {
        parts.iter().try_for_each(|s| self.put(s))
    }

    fn fail(&mut self, e: EngineError, why: &str) -> io::Result<()> {
        self.failure = Some(e);
        Err(io::Error::other(why))
    }

    /// Completes the output after the last event: validates the decoder's
    /// end state and writes its remainder. `true` if the format has such
    /// a tail (work charged to emit).
    fn finish(&mut self) -> Result<bool, EngineError> {
        let SinkKind::Encoded(writer) = &mut self.kind else {
            return Ok(false);
        };
        let writer = writer.take().expect("finished once");
        let rest = writer
            .finish()
            .map_err(|e| EngineError::Encoding(e.to_string()))?;
        self.put(&rest).map_err(write_error)?;
        Ok(true)
    }

    fn symbol(&mut self, sym: Symbol) -> io::Result<()> {
        if sym.needs_quoting() {
            self.put(&sym.to_string())
        } else {
            self.put(sym.name())
        }
    }

    fn term(&mut self, ev: TreeEvent) -> io::Result<()> {
        let SinkKind::Term(pending, sep) = &mut self.kind else {
            unreachable!("dispatched on the kind")
        };
        let (prev, follows) = (pending.take(), *sep);
        *sep = ev == TreeEvent::Close;
        if let TreeEvent::Open(sym) = ev {
            *pending = Some(sym);
        }
        match (ev, prev) {
            (TreeEvent::Open(_), Some(parent)) => {
                self.symbol(parent)?;
                self.put("(")
            }
            (TreeEvent::Open(_), None) if follows => self.put(","),
            (TreeEvent::Open(_), None) => Ok(()),
            (TreeEvent::Close, Some(leaf)) => self.symbol(leaf),
            (TreeEvent::Close, None) => self.put(")"),
        }
    }
}

impl OutputSink for FormatSink<'_> {
    fn event(&mut self, ev: TreeEvent) -> io::Result<()> {
        match &mut self.kind {
            SinkKind::Term(..) => self.term(ev),
            SinkKind::Xml(_) => self.xml(ev),
            SinkKind::Encoded(writer) => {
                let writer = writer.as_mut().expect("sink not finished");
                if let Err(e) = writer.feed(ev) {
                    let e = EngineError::Encoding(e.to_string());
                    return self.fail(e, "output not decodable");
                }
                let chunk = writer.pending();
                self.out.write_all(chunk.as_bytes())?;
                self.bytes += chunk.len() as u64;
                Ok(())
            }
        }
    }
}

const NOT_XML: &str = "output has inner symbols that are not XML names; use the term format";

/// Where the XML writer is inside an `@attrs` block.
#[derive(Clone, Copy)]
enum Attr {
    Outside,
    /// Between attribute slots.
    Block,
    /// Inside a slot's value (`true` = no token written yet).
    Slot(bool),
    /// Inside a value token.
    Token,
}

/// Ranked XML, the writer behind [`tree_to_xml`]. With `attrs`, an
/// element's `@attrs` first child is written back as `name="value"`
/// attributes (the inverse of [`XmlRankedEvents::attributes`]). A
/// `strict` writer stops at the first output with no XML form (an inner
/// symbol that is not an XML name, a malformed attribute block).
struct XmlState {
    attrs: bool,
    strict: bool,
    /// The symbol awaiting leaf or inner.
    pending: Option<Symbol>,
    /// Open elements, each with: was the last child a text token?
    stack: Vec<(Symbol, bool)>,
    /// The top element's start tag awaits `>` or `/>` (after attributes).
    tag_open: bool,
    attr: Attr,
}

impl XmlState {
    fn new(attrs: bool, strict: bool) -> XmlState {
        XmlState {
            attrs,
            strict,
            pending: None,
            stack: Vec::new(),
            tag_open: false,
            attr: Attr::Outside,
        }
    }
}

impl FormatSink<'_> {
    fn xml(&mut self, ev: TreeEvent) -> io::Result<()> {
        let SinkKind::Xml(st) = &mut self.kind else {
            unreachable!("dispatched on the kind")
        };
        let not_xml = |sink: &mut Self| sink.fail(parse_error(NOT_XML), "output not XML");
        match (st.attr, ev) {
            (Attr::Block, TreeEvent::Open(slot)) => {
                let Some(name) = slot.name().strip_prefix('@').filter(|n| is_xml_name(n)) else {
                    return not_xml(self);
                };
                st.attr = Attr::Slot(true);
                self.puts(&[" ", name, "=\""])
            }
            (Attr::Block, TreeEvent::Close) => {
                st.attr = Attr::Outside;
                Ok(())
            }
            (Attr::Slot(first), TreeEvent::Open(token)) => {
                st.attr = Attr::Token;
                let sep = if first { "" } else { " " };
                self.puts(&[sep, &escape_attr(token.name())])
            }
            (Attr::Slot(_), TreeEvent::Close) => {
                st.attr = Attr::Block;
                self.put("\"")
            }
            (Attr::Token, TreeEvent::Open(_)) => not_xml(self),
            (Attr::Token, TreeEvent::Close) => {
                st.attr = Attr::Slot(false);
                Ok(())
            }
            (Attr::Outside, TreeEvent::Open(sym)) => {
                let Some(parent) = st.pending.replace(sym) else {
                    // A next child: close a start tag left open by its
                    // attribute block.
                    return match std::mem::take(&mut st.tag_open) {
                        true => self.put(">"),
                        false => Ok(()),
                    };
                };
                // The pending node has children: an element.
                let name = parent.name();
                if st.strict && !is_xml_name(name) {
                    return not_xml(self);
                }
                if let Some(top) = st.stack.last_mut() {
                    top.1 = false;
                }
                st.stack.push((parent, false));
                let attrs = st.attrs && sym.name() == "@attrs";
                if attrs {
                    st.pending = None;
                    st.tag_open = true;
                    st.attr = Attr::Block;
                }
                self.puts(&["<", name, if attrs { "" } else { ">" }])
            }
            (Attr::Outside, TreeEvent::Close) => match st.pending.take() {
                Some(leaf) => {
                    let name = leaf.name();
                    let text = !is_xml_name(name);
                    // Adjacent text leaves stay distinct tokens.
                    let space = text && st.stack.last().is_some_and(|t| t.1);
                    if let Some(top) = st.stack.last_mut() {
                        top.1 = text;
                    }
                    let sep = if space { " " } else { "" };
                    match text {
                        true => self.puts(&[sep, &escape_text(name)]),
                        false => self.puts(&["<", name, "/>"]),
                    }
                }
                None => {
                    let (sym, _) = st.stack.pop().expect("output events are balanced");
                    match std::mem::take(&mut st.tag_open) {
                        true => self.put("/>"),
                        false => self.puts(&["</", sym.name(), ">"]),
                    }
                }
            },
        }
    }
}

/// Writes a ranked tree as XML: XML-name symbols become elements,
/// other leaves (like the paper's `#`) text tokens — the inverse of
/// [`XmlRankedEvents::collect_tree`], iterative in depth. Inner symbols
/// that are not XML names are written as they are.
pub fn tree_to_xml(t: &Tree) -> String {
    let mut out = Vec::new();
    let mut sink = FormatSink::new(&DocFormat::Xml, &mut out);
    sink.kind = SinkKind::Xml(XmlState::new(false, false));
    sink.tree(t)
        .expect("a lenient sink over a buffer cannot fail");
    String::from_utf8(out).expect("symbol names are UTF-8")
}

fn is_xml_name(s: &str) -> bool {
    let mut chars = s.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '-' | '.' | ':'))
}

fn escape_text(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
}

fn escape_attr(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('"', "&quot;")
}

/// Enforces [`EngineOptions::max_output_nodes`] on a streamed run by
/// counting output nodes as they pass to the sink.
struct CapSink<'s> {
    inner: &'s mut dyn OutputSink,
    nodes: u64,
    limit: u64,
    exceeded: bool,
}

impl CapSink<'_> {
    fn check(&mut self) -> io::Result<()> {
        if self.nodes > self.limit {
            self.exceeded = true;
            return Err(io::Error::other("output bound exceeded"));
        }
        Ok(())
    }
}

impl OutputSink for CapSink<'_> {
    fn event(&mut self, ev: TreeEvent) -> io::Result<()> {
        if matches!(ev, TreeEvent::Open(_)) {
            self.nodes += 1;
            self.check()?;
        }
        self.inner.event(ev)
    }

    fn tree(&mut self, t: &Tree) -> io::Result<()> {
        self.nodes = self.nodes.saturating_add(t.size());
        self.check()?;
        self.inner.tree(t)
    }
}

/// Everything one run produced, before classification.
struct RunOutcome {
    result: io::Result<Option<EmitStats>>,
    violation: Option<TypeError>,
    nodes: u64,
    exceeded: bool,
}

/// Maps a run onto the engine's error taxonomy: a guard violation wins
/// (it cut the stream first), then the output-node cap, the sink's
/// failure, a write error; a clean `None` is the source's error, if any.
fn verdict(
    run: RunOutcome,
    source_error: Option<EngineError>,
    sink_failure: Option<EngineError>,
) -> Result<EmitStats, EngineError> {
    if let Some(v) = run.violation {
        return Err(EngineError::Type(v));
    }
    match run.result {
        Err(_) if run.exceeded => Err(EngineError::OutputTooLarge(run.nodes)),
        Err(e) => Err(sink_failure.unwrap_or_else(|| write_error(e))),
        Ok(None) => Err(source_error.unwrap_or(EngineError::Undefined)),
        Ok(Some(stats)) => Ok(stats),
    }
}

/// A transducer's key in the engine's LRU caches: its rendering, and the
/// fingerprint of that rendering.
struct Key {
    fp: u64,
    rendering: String,
}

impl Key {
    fn of(dtop: &Dtop) -> Key {
        let rendering = dtop.to_string();
        Key {
            fp: fingerprint_of(dtop, &rendering),
            rendering,
        }
    }
}

/// A transducer's entry in one of the engine's LRU caches.
fn cached<V: Clone, E>(
    cache: &LruCache<V>,
    key: &Key,
    build: impl FnOnce() -> Result<V, E>,
) -> Result<V, E> {
    cache.get_or_insert_with(key.fp, &key.rendering, build)
}

/// Stamps a stage boundary on the observer, if one is attached. The
/// `None` path is a single predictable branch — no clock read, no call.
#[inline]
fn stamp(obs: &mut Option<&mut dyn EvalObserver>, stage: Stage) {
    if let Some(o) = obs.as_deref_mut() {
        o.stage(stage);
    }
}

/// Execution state for one engine call, warm across that call's
/// documents; recreated after a caught panic (which can leave the
/// scratches inconsistent).
struct Worker {
    scratch: EvalScratch,
    stream: StreamEvaluator,
}

impl Worker {
    fn new() -> Worker {
        Worker {
            scratch: EvalScratch::new(),
            stream: StreamEvaluator::new(),
        }
    }

    /// [`Worker::run`] into a buffer, as text, with exactly its stage
    /// stamps: one per stage per document is what tracing a batch costs.
    fn text(
        &mut self,
        engine: &Engine,
        doc: &str,
        req: &mut Request<'_>,
    ) -> Result<String, EngineError> {
        let mut out = Vec::with_capacity(doc.len());
        self.run(engine, doc, &mut out, req)?;
        String::from_utf8(out).map_err(|e| EngineError::Internal(e.to_string()))
    }

    /// The per-document routine: the format's sink over `out`, fed by the
    /// mode's path through the machine. A panicking document yields
    /// `Err(EngineError::Internal)`, and the worker starts afresh.
    fn run(
        &mut self,
        engine: &Engine,
        doc: &str,
        out: &mut dyn io::Write,
        req: &mut Request<'_>,
    ) -> Result<StreamOutcome, EngineError> {
        let mut sink = FormatSink::new(req.format, out);
        let result = catch_unwind(AssertUnwindSafe(|| match req.mode {
            EvalMode::Compiled => self.tree(engine, doc, &mut sink, req),
            EvalMode::Streaming => self.stream(engine, doc, &mut sink, req),
        }));
        let (stats, skipped) = result.unwrap_or_else(|panic| {
            *self = Worker::new();
            let msg = panic
                .downcast_ref::<&str>()
                .map(|s| (*s).to_owned())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "evaluator panicked".to_owned());
            Err(EngineError::Internal(msg))
        })?;
        Ok(StreamOutcome {
            bytes_written: sink.bytes,
            events_emitted_early: stats.events_emitted_early,
            events_total: stats.events_total,
            peak_buffered_frames: stats.peak_buffered_frames,
            skipped_subtrees: skipped,
        })
    }

    /// `tree` mode: one pass loads the input into the evaluator's flat
    /// arrays, with the guard fed the same events (charged to the read
    /// stage); then evaluate, bound the output, replay the output arena
    /// into the sink. The whole document is read before any verdict, so a
    /// parse error wins over the guard's violation.
    fn tree(
        &mut self,
        engine: &Engine,
        doc: &str,
        sink: &mut FormatSink<'_>,
        req: &mut Request<'_>,
    ) -> Result<(EmitStats, u64), EngineError> {
        let (violation, read) = match req.format {
            DocFormat::Term => {
                let mut source = Fallible::new(TermEvents::new(doc));
                let (shape, violation) = self.load(req, &mut source);
                if let Some(e) = source.error {
                    return Err(parse_error(e));
                }
                shape.expect("the tokenizer reads one tree or fails");
                (violation, Stage::Tokenize)
            }
            DocFormat::Xml | DocFormat::XmlAttrs => {
                let mut source = XmlRankedEvents::bounded(doc)
                    .attributes(matches!(req.format, DocFormat::XmlAttrs));
                let (shape, violation) = self.load(req, &mut source);
                if let Some(e) = source.take_error() {
                    return Err(parse_error(e));
                }
                shape.map_err(|e| parse_error(source.structure_error(e)))?;
                (violation, Stage::Tokenize)
            }
            DocFormat::Encoded(codec) => {
                let mut source = Fallible::new(codec.events(doc));
                let (shape, violation) = self.load(req, &mut source);
                if let Some(e) = source.error {
                    return Err(encoded_error(e));
                }
                shape.map_err(|e| {
                    encoded_error(UnrankedError::Encode(EncodeError::Malformed(e.to_string())))
                })?;
                (violation, Stage::Encode)
            }
        };
        stamp(&mut req.observer, read);
        if let Some(v) = violation {
            return Err(EngineError::Type(v));
        }
        let root = eval::run(req.machine, &mut self.scratch).ok_or(EngineError::Undefined)?;
        // A memo hit shares an arena node and sizes saturate, so even an
        // exponential output is measured here without being unfolded.
        let size = self.scratch.size(root);
        if let Some(limit) = engine.opts.max_output_nodes {
            if size > limit {
                return Err(EngineError::OutputTooLarge(size));
            }
        }
        stamp(&mut req.observer, Stage::Evaluate);
        let stats = EmitStats {
            events_total: size.saturating_mul(2),
            ..EmitStats::default()
        };
        let run = RunOutcome {
            result: self.scratch.emit(root, sink).map(|()| Some(stats)),
            violation: None,
            nodes: 0,
            exceeded: false,
        };
        let failure = sink.failure.take();
        let stats = verdict(run, None, failure)?;
        sink.finish()?;
        stamp(&mut req.observer, Stage::Emit);
        Ok((stats, 0))
    }

    /// Loads `source` into the scratch for the request's machine, with
    /// the request's guard fed the same events: the event structure's
    /// verdict and the guard's violation.
    fn load(
        &mut self,
        req: &Request<'_>,
        source: &mut impl TreeEventSource,
    ) -> (Result<(), EventError>, Option<TypeError>) {
        match req.guard {
            None => (self.scratch.load(req.machine, source), None),
            Some(guard) => {
                let mut checked = Checked {
                    inner: source,
                    run: Some(guard.run()),
                    violation: None,
                };
                let shape = self.scratch.load(req.machine, &mut checked);
                (shape, checked.violation)
            }
        }
    }

    /// `stream` mode: one pass, source → lockstep guard → streaming
    /// evaluator → output-node cap → sink. The fused pass is charged to
    /// eval, a tail written after it (the decoder's remainder) to emit.
    fn stream(
        &mut self,
        engine: &Engine,
        doc: &str,
        sink: &mut FormatSink<'_>,
        req: &mut Request<'_>,
    ) -> Result<(EmitStats, u64), EngineError> {
        let limit = engine.opts.max_output_nodes.unwrap_or(u64::MAX);
        let (run, skipped, source_error) = match req.format {
            DocFormat::Term => {
                let input = parse_tree(doc).map_err(parse_error)?;
                stamp(&mut req.observer, Stage::Tokenize);
                let run = self.pump(req, &mut IterEvents(input.events()), sink, limit);
                (run, 0, None)
            }
            DocFormat::Xml | DocFormat::XmlAttrs => {
                let mut source = XmlRankedEvents::bounded(doc)
                    .attributes(matches!(req.format, DocFormat::XmlAttrs));
                let run = self.pump(req, &mut source, sink, limit);
                let error = source.take_error().map(parse_error);
                (run, source.skipped_subtrees(), error)
            }
            DocFormat::Encoded(codec) => {
                let mut source = Fallible::new(codec.events(doc));
                let run = self.pump(req, &mut source, sink, limit);
                let error = source.error.take().map(encoded_error);
                (run, source.inner.skipped_subtrees(), error)
            }
        };
        engine.skips.fetch_add(skipped, Ordering::Relaxed);
        let failure = sink.failure.take();
        let stats = verdict(run, source_error, failure)?;
        stamp(&mut req.observer, Stage::Evaluate);
        if sink.finish()? {
            stamp(&mut req.observer, Stage::Emit);
        }
        Ok((stats, skipped))
    }

    /// Streams `source` through the machine with the optional lockstep
    /// guard and the output-node cap composed in.
    fn pump(
        &mut self,
        req: &Request<'_>,
        source: &mut impl TreeEventSource,
        sink: &mut dyn OutputSink,
        limit: u64,
    ) -> RunOutcome {
        let mut cap = CapSink {
            inner: sink,
            nodes: 0,
            limit,
            exceeded: false,
        };
        let (result, violation) = match req.guard {
            Some(g) => {
                let mut guarded = GuardedSource::new(g, source);
                let result = self
                    .stream
                    .eval_streaming(req.machine, &mut guarded, &mut cap);
                // A pipeline's normalized machine can stop above the raw
                // chain guard's first violation: run the guard on to it,
                // the violation `tree` mode names.
                if matches!(result, Ok(None)) {
                    while guarded.next_event().is_some() {}
                }
                (result, guarded.take_violation())
            }
            None => (
                self.stream.eval_streaming(req.machine, source, &mut cap),
                None,
            ),
        };
        RunOutcome {
            result,
            violation,
            nodes: cap.nodes,
            exceeded: cap.exceeded,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xtt_transducer::examples;

    const MODES: [EvalMode; 2] = [EvalMode::Compiled, EvalMode::Streaming];

    /// One document through the batch call on `dtop`'s compiled machine.
    fn run_one(
        engine: &Engine,
        dtop: &Dtop,
        doc: &str,
        mode: EvalMode,
        format: &DocFormat,
        validate: bool,
        trace: Option<&mut xtt_obs::Trace>,
    ) -> Result<String, EngineError> {
        let (machine, guard) = engine.resolve(dtop, validate)?;
        let req = Request {
            observer: trace.map(|t| t as &mut dyn EvalObserver),
            ..Request::new(&machine, guard.as_deref(), format, mode)
        };
        engine.run_batch(&[doc], req).pop().unwrap()
    }

    /// The batch call with the engine's default mode, format, validation.
    fn batch(engine: &Engine, dtop: &Dtop, docs: &[String]) -> Vec<Result<String, EngineError>> {
        let o = engine.options();
        engine.transform_batch_with_validation(dtop, docs, o.mode, o.format.clone(), o.validate)
    }

    fn flip_docs(n: usize) -> Vec<String> {
        (0..n)
            .map(|i| examples::flip_input(i % 5 + 1, (i + 2) % 4 + 1).to_string())
            .collect()
    }

    #[test]
    fn batch_results_are_in_input_order() {
        let fix = examples::flip();
        let engine = Engine::default();
        let docs = flip_docs(101);
        let results = batch(&engine, &fix.dtop, &docs);
        assert_eq!(results.len(), docs.len());
        let mut scratch = EvalScratch::new();
        let compiled = engine.compiled(&fix.dtop).unwrap();
        for (doc, result) in docs.iter().zip(&results) {
            let expected = compiled
                .eval(&parse_tree(doc).unwrap(), &mut scratch)
                .unwrap()
                .to_string();
            assert_eq!(result.as_ref().unwrap(), &expected);
        }
    }

    #[test]
    fn documents_fail_independently() {
        let fix = examples::flip();
        let engine = Engine::default();
        let docs = vec![
            "root(a(#,#),b(#,#))".to_owned(),
            "root(b(#,#),#)".to_owned(), // outside the domain
            "((".to_owned(),             // unparseable
            "root(#,#)".to_owned(),
        ];
        let results = batch(&engine, &fix.dtop, &docs);
        assert!(results[0].is_ok());
        assert_eq!(results[1], Err(EngineError::Undefined));
        assert!(matches!(results[2], Err(EngineError::Parse(_))));
        assert_eq!(results[3].as_deref(), Ok("root(#,#)"));
    }

    #[test]
    fn all_modes_agree_on_batches() {
        let fix = examples::flip();
        let docs = flip_docs(40);
        let mut outputs: Vec<Vec<Result<String, EngineError>>> = Vec::new();
        for mode in MODES {
            let engine = Engine::new(EngineOptions {
                mode,
                ..EngineOptions::default()
            });
            outputs.push(batch(&engine, &fix.dtop, &docs));
        }
        assert_eq!(outputs[0], outputs[1]);
    }

    /// An attached observer sees the pipeline stages in flow order in
    /// every mode, and the observed result is byte-identical to the
    /// unobserved one.
    #[test]
    fn observer_sees_stage_breakdown_in_all_modes() {
        let fix = examples::flip();
        let engine = Engine::new(EngineOptions::default());
        let doc = "root(a(#,#),b(#,#))";
        for mode in MODES {
            let plain =
                run_one(&engine, &fix.dtop, doc, mode, &DocFormat::Term, true, None).unwrap();
            let mut trace = xtt_obs::Trace::new(1);
            let observed = run_one(
                &engine,
                &fix.dtop,
                doc,
                mode,
                &DocFormat::Term,
                true,
                Some(&mut trace),
            )
            .unwrap();
            assert_eq!(plain, observed);
            let names: Vec<&str> = trace.stages().map(|(n, _)| n).collect();
            if mode == EvalMode::Streaming {
                // Guard, evaluation and emission run fused in lockstep;
                // the term sink has no tail to charge to emit.
                assert_eq!(names, ["tokenize", "eval"], "mode {mode:?}");
            } else {
                // The guard reads the same pass as the tokenizer.
                assert_eq!(names, ["tokenize", "eval", "emit"], "mode {mode:?}");
            }
        }
    }

    /// The streaming-emission path stamps the observer too, and batch
    /// observation accumulates stages across documents.
    #[test]
    fn observer_covers_streaming_and_batches() {
        let fix = examples::flip();
        let engine = Engine::new(EngineOptions::default());
        let mut out = Vec::new();
        let mut trace = xtt_obs::Trace::new(2);
        let (machine, _) = engine.resolve(&fix.dtop, false).unwrap();
        let req = Request {
            observer: Some(&mut trace),
            ..Request::new(&machine, None, &DocFormat::Term, EvalMode::Streaming)
        };
        engine
            .run_doc("root(a(#,#),b(#,#))", &mut out, req)
            .unwrap();
        let names: Vec<&str> = trace.stages().map(|(n, _)| n).collect();
        assert_eq!(names, ["tokenize", "eval"]);

        let docs = flip_docs(8);
        let mut trace = xtt_obs::Trace::new(3);
        let req = Request {
            observer: Some(&mut trace),
            ..Request::new(&machine, None, &DocFormat::Term, EvalMode::Compiled)
        };
        let observed = engine.run_batch(&docs, req);
        let plain = batch(&engine, &fix.dtop, &docs);
        assert_eq!(observed, plain);
        let names: Vec<&str> = trace.stages().map(|(n, _)| n).collect();
        assert_eq!(names, ["tokenize", "eval", "emit"], "stages accumulate");
    }

    /// Regression test for the serving contract: a large batch with
    /// malformed and out-of-domain documents sprinkled in reports each
    /// failure *positionally* — no abort on first error, every other
    /// document still transformed, in every mode.
    #[test]
    fn batch_errors_are_positional_not_aborting() {
        let fix = examples::flip();
        let mut docs = flip_docs(100);
        docs[13] = "root(".to_owned(); // malformed
        docs[57] = "root(b(#,#),#)".to_owned(); // outside the domain
        docs[99] = "((".to_owned(); // malformed
        for mode in MODES {
            let engine = Engine::new(EngineOptions {
                mode,
                ..EngineOptions::default()
            });
            let results = batch(&engine, &fix.dtop, &docs);
            assert_eq!(results.len(), docs.len());
            assert!(matches!(results[13], Err(EngineError::Parse(_))));
            assert_eq!(results[57], Err(EngineError::Undefined));
            assert!(matches!(results[99], Err(EngineError::Parse(_))));
            let ok = results.iter().filter(|r| r.is_ok()).count();
            assert_eq!(ok, 97, "every well-formed document must succeed");
        }
    }

    /// With a bound configured, a copying transducer cannot be used to
    /// materialize an exponential output — the bound rejects the document
    /// (in every mode) while small documents still succeed.
    #[test]
    fn output_bound_rejects_exponential_outputs_cheaply() {
        let copier = examples::monadic_to_binary().dtop; // output 2^(depth+1)-1 nodes
        let engine = Engine::new(EngineOptions {
            max_output_nodes: Some(10_000),
            ..EngineOptions::default()
        });
        let mut deep = String::from("e");
        for _ in 0..200 {
            deep = format!("f({deep})"); // output ~2^201 nodes, saturates u64
        }
        let docs = vec!["f(f(e))".to_owned(), deep, "e".to_owned()];
        for mode in MODES {
            let results = engine.transform_batch_with_validation(
                &copier,
                &docs,
                mode,
                DocFormat::Term,
                false,
            );
            assert_eq!(results[0].as_deref(), Ok("g(g(e,e),g(e,e))"), "{mode:?}");
            assert!(
                matches!(results[1], Err(EngineError::OutputTooLarge(n)) if n > 10_000),
                "{mode:?}: {:?}",
                results[1]
            );
            assert_eq!(results[2].as_deref(), Ok("e"), "{mode:?}");
        }
        // Unbounded engines are unaffected.
        let unbounded = Engine::new(EngineOptions::default());
        assert!(unbounded.transform(&copier, "f(f(f(e)))").is_ok());
    }

    #[test]
    fn per_request_mode_and_format_override_engine_defaults() {
        let fix = examples::flip();
        let engine = Engine::shared(EngineOptions::default()); // Term + Compiled
        let doc = "<root><a># #</a><b># #</b></root>";
        let out = run_one(
            &engine,
            &fix.dtop,
            doc,
            EvalMode::Streaming,
            &DocFormat::Xml,
            false,
            None,
        )
        .unwrap();
        assert_eq!(out, "<root><b># #</b><a># #</a></root>");
        let batch = engine.transform_batch_with_validation(
            &fix.dtop,
            &["root(a(#,#),b(#,#))".to_owned()],
            EvalMode::Streaming,
            DocFormat::Term,
            false,
        );
        assert_eq!(batch[0].as_deref(), Ok("root(b(#,#),a(#,#))"));
    }

    #[test]
    fn xml_format_roundtrips() {
        let fix = examples::flip();
        let engine = Engine::new(EngineOptions {
            format: DocFormat::Xml,
            mode: EvalMode::Streaming,
            ..EngineOptions::default()
        });
        let out = engine
            .transform(&fix.dtop, "<root><a># #</a><b># #</b></root>")
            .unwrap();
        assert_eq!(out, "<root><b># #</b><a># #</a></root>");
    }

    /// Guarded evaluation: the typed diagnostic (with the violation path
    /// of the first undefined node) is bit-identical across both eval
    /// modes, and in-domain documents are unaffected.
    #[test]
    fn validation_diagnostics_identical_across_modes() {
        let fix = examples::flip();
        let engine = Engine::new(EngineOptions {
            validate: true,
            ..EngineOptions::default()
        });
        let bad = "root(a(#,b(#,#)),b(#,#))"; // violation at node 1.2
        let good = "root(a(#,#),b(#,#))";
        let mut rendered: Vec<String> = Vec::new();
        for mode in MODES {
            let results = engine.transform_batch_with_validation(
                &fix.dtop,
                &[good.to_owned(), bad.to_owned()],
                mode,
                DocFormat::Term,
                true,
            );
            assert_eq!(results[0].as_deref(), Ok("root(b(#,#),a(#,#))"), "{mode:?}");
            match &results[1] {
                Err(EngineError::Type(e)) => {
                    assert_eq!(e.path().to_string(), "1.2", "{mode:?}");
                    rendered.push(e.to_string());
                }
                other => panic!("{mode:?}: expected a type error, got {other:?}"),
            }
        }
        rendered.dedup();
        assert_eq!(rendered.len(), 1, "diagnostics differ across modes");
        // Violation counters: 4 validated, 2 rejected.
        let stats = engine.validation_stats();
        assert_eq!(stats.docs_validated, 4);
        assert_eq!(stats.docs_rejected_pre_eval, 2);
        assert_eq!(stats.guards_compiled, 1, "guard cache must hit");
    }

    /// The guarded XML streaming path rejects with the same diagnostic as
    /// the tree-based modes, without validation only an opaque
    /// `Undefined` surfaces, and per-request validation overrides the
    /// engine default.
    #[test]
    fn validation_overrides_and_xml_streaming() {
        let fix = examples::flip();
        let engine = Engine::new(EngineOptions::default()); // validate off
        let bad_xml = "<root><a># <b># #</b></a><b># #</b></root>";
        let run = |doc: &str, mode: EvalMode, validate: bool| {
            run_one(
                &engine,
                &fix.dtop,
                doc,
                mode,
                &DocFormat::Xml,
                validate,
                None,
            )
        };
        let unguarded = run(bad_xml, EvalMode::Streaming, false).unwrap_err();
        assert_eq!(unguarded, EngineError::Undefined);
        let guarded = run(bad_xml, EvalMode::Streaming, true).unwrap_err();
        let EngineError::Type(e) = &guarded else {
            panic!("expected a type error, got {guarded:?}");
        };
        assert_eq!(e.path().to_string(), "1.2");
        // Same violation through the tree-based XML path.
        let tree = run(bad_xml, EvalMode::Compiled, true).unwrap_err();
        assert_eq!(tree, guarded);
        // Deleted junk stays accepted under validation (guard ≡ eval).
        let junk_xml = "<root><a>zzz-not-in-alphabet<a># #</a></a><b># #</b></root>";
        for mode in [EvalMode::Streaming, EvalMode::Compiled] {
            let out = run(junk_xml, mode, true).unwrap();
            assert_eq!(out, "<root><b># #</b><a>#<a># #</a></a></root>");
        }
    }

    /// Validation composes with the output bound: the guard's typed error
    /// wins on out-of-domain documents, the bound still rejects oversized
    /// in-domain ones.
    #[test]
    fn validation_composes_with_output_bound() {
        let copier = examples::monadic_to_binary().dtop;
        let engine = Engine::new(EngineOptions {
            validate: true,
            max_output_nodes: Some(1_000),
            ..EngineOptions::default()
        });
        let mut deep = String::from("e");
        for _ in 0..30 {
            deep = format!("f({deep})");
        }
        let docs = vec![
            "f(f(e))".to_owned(),
            deep,
            "f(zzz)".to_owned(), // out of domain at 1
        ];
        for mode in MODES {
            let results =
                engine.transform_batch_with_validation(&copier, &docs, mode, DocFormat::Term, true);
            assert_eq!(results[0].as_deref(), Ok("g(g(e,e),g(e,e))"), "{mode:?}");
            assert!(
                matches!(results[1], Err(EngineError::OutputTooLarge(_))),
                "{mode:?}: {:?}",
                results[1]
            );
            match &results[2] {
                Err(EngineError::Type(e)) => assert_eq!(e.path().to_string(), "1"),
                other => panic!("{mode:?}: expected type error, got {other:?}"),
            }
        }
    }

    /// A dtop over the fc/ns alphabet: drop every `b` element, keep the
    /// rest (used by the encoded-format tests; deletion exercises the
    /// skip fast path through the whole encoded pipeline).
    fn fcns_prune() -> Dtop {
        let alpha =
            xtt_trees::RankedAlphabet::from_pairs([("root", 2), ("a", 2), ("b", 2), ("#", 0)]);
        let mut b = xtt_transducer::DtopBuilder::new(alpha.clone(), alpha);
        b.add_state("q0");
        b.add_state("q");
        b.set_axiom_str("<q0,x0>").unwrap();
        b.add_rule_str("q0", "root", "root(<q,x1>,<q,x2>)").unwrap();
        b.add_rule_str("q", "a", "a(<q,x1>,<q,x2>)").unwrap();
        b.add_rule_str("q", "b", "<q,x2>").unwrap();
        b.add_rule_str("q", "#", "#").unwrap();
        b.build().unwrap()
    }

    /// Genuine unranked XML through the fc/ns codec: both eval modes
    /// produce byte-identical decoded XML, including under validation
    /// and the output bound.
    #[test]
    fn encoded_fcns_agrees_across_modes() {
        let prune = fcns_prune();
        let format = DocFormat::parse("fcns").unwrap();
        let docs = vec![
            "<root><a><b><a/></b><a/></a><b/></root>".to_owned(),
            "<root/>".to_owned(),
            "<root><b/><b/><a/></root>".to_owned(),
            "<notroot/>".to_owned(), // out of domain (no q0 rule)
        ];
        let mut outputs: Vec<Vec<Result<String, ()>>> = Vec::new();
        for validate in [false, true] {
            for mode in MODES {
                let engine = Engine::new(EngineOptions {
                    max_output_nodes: if validate { Some(10_000) } else { None },
                    ..EngineOptions::default()
                });
                let results = engine.transform_batch_with_validation(
                    &prune,
                    &docs,
                    mode,
                    format.clone(),
                    validate,
                );
                assert_eq!(
                    results[0].as_deref().unwrap(),
                    "<root><a><a/></a></root>",
                    "{mode:?} validate={validate}"
                );
                assert_eq!(results[1].as_deref().unwrap(), "<root/>");
                assert_eq!(results[2].as_deref().unwrap(), "<root><a/></root>");
                assert!(results[3].is_err(), "{mode:?}: {:?}", results[3]);
                outputs.push(results.iter().map(|r| r.clone().map_err(|_| ())).collect());
            }
        }
        // The Ok outputs are identical everywhere.
        let oks: Vec<_> = outputs
            .iter()
            .map(|rs| {
                rs.iter()
                    .filter_map(|r| r.as_ref().ok())
                    .collect::<Vec<_>>()
            })
            .collect();
        assert!(oks.windows(2).all(|w| w[0] == w[1]));
    }

    /// `xml+attrs` end to end: attributes surface as the `@attrs` first
    /// child of the ranked encoding, a transducer can delete or keep
    /// them, and kept attribute blocks decode back to real attribute
    /// syntax — byte-identical across every mode and under validation.
    #[test]
    fn xml_attrs_round_trip_across_modes() {
        // Strip: `root` carries an @attrs block (arity 3 with it); the
        // transducer drops the block (exercising the attribute-queue
        // skip drain) and keeps the element children.
        let in_alpha = xtt_trees::RankedAlphabet::from_pairs([
            ("root", 3),
            ("@attrs", 2),
            ("@a", 2),
            ("@b", 1),
            ("p", 0),
            ("q", 0),
            ("z", 0),
            ("x", 0),
        ]);
        let out_alpha = in_alpha.clone();
        let mut b = xtt_transducer::DtopBuilder::new(in_alpha.clone(), out_alpha.clone());
        b.add_state("q0");
        b.add_state("qx");
        b.set_axiom_str("<q0,x0>").unwrap();
        b.add_rule_str("q0", "root", "root(<qx,x2>,<qx,x3>,z)")
            .unwrap();
        b.add_rule_str("qx", "x", "x").unwrap();
        let strip = b.build().unwrap();

        // Keep: the identity on this fixed shape, @attrs block included.
        let mut b = xtt_transducer::DtopBuilder::new(in_alpha.clone(), out_alpha);
        for s in ["q0", "qat", "qa", "qb", "qt", "qx"] {
            b.add_state(s);
        }
        b.set_axiom_str("<q0,x0>").unwrap();
        b.add_rule_str("q0", "root", "root(<qat,x1>,<qx,x2>,<qx,x3>)")
            .unwrap();
        b.add_rule_str("qat", "@attrs", "@attrs(<qa,x1>,<qb,x2>)")
            .unwrap();
        b.add_rule_str("qa", "@a", "@a(<qt,x1>,<qt,x2>)").unwrap();
        b.add_rule_str("qb", "@b", "@b(<qt,x1>)").unwrap();
        for leaf in ["p", "q", "z"] {
            b.add_rule_str("qt", leaf, leaf).unwrap();
        }
        b.add_rule_str("qx", "x", "x").unwrap();
        let keep = b.build().unwrap();

        let doc = r#"<root a="p q" b="z"><x/><x/></root>"#;
        let format = DocFormat::parse("xml+attrs").unwrap();
        for validate in [false, true] {
            for mode in MODES {
                let engine = Engine::default();
                let stripped =
                    run_one(&engine, &strip, doc, mode, &format, validate, None).unwrap();
                assert_eq!(stripped, "<root><x/><x/><z/></root>", "{mode:?}");
                let kept = run_one(&engine, &keep, doc, mode, &format, validate, None).unwrap();
                assert_eq!(kept, doc, "{mode:?} validate={validate}");
            }
        }
        // Plain `xml` never builds the @attrs child: root then has two
        // children and the arity-3 rules leave the document undefined.
        let engine = Engine::new(EngineOptions::default());
        assert_eq!(
            run_one(
                &engine,
                &strip,
                doc,
                EvalMode::Compiled,
                &DocFormat::Xml,
                false,
                None
            ),
            Err(EngineError::Undefined)
        );
    }

    /// The DTD-encoded path end to end: the paper's `xmlflip` applied to
    /// real XML — input encoded with the `(a*,b*)` DTD, output decoded
    /// with the `(b*,a*)` DTD, in both modes.
    #[test]
    fn encoded_dtd_xmlflip_end_to_end() {
        use xtt_xml::xmlflip;
        let m = xmlflip::target_dtop();
        let codec = XmlCodec::dtd_pair(
            std::sync::Arc::new(xmlflip::input_encoding()),
            std::sync::Arc::new(xmlflip::output_encoding()),
        );
        let format = DocFormat::Encoded(codec);
        let engine = Engine::default();
        for mode in MODES {
            let run = |doc: &str| run_one(&engine, &m, doc, mode, &format, false, None);
            let out = run("<root><a/><a/><b/></root>").unwrap();
            assert_eq!(out, "<root><b/><a/><a/></root>", "{mode:?}");
            // A DTD-invalid document is an encoding error, positionally.
            let bad = run("<root><b/><a/></root>").unwrap_err();
            assert!(matches!(bad, EngineError::Encoding(_)), "{mode:?}: {bad:?}");
        }
    }

    /// Encoded + validation: the lockstep guard rejects out-of-domain
    /// encoded documents with the same typed diagnostic in streaming and
    /// pre-flight modes.
    #[test]
    fn encoded_validation_diagnostics_agree() {
        let prune = fcns_prune();
        let format = DocFormat::parse("fcns").unwrap();
        let engine = Engine::new(EngineOptions {
            validate: true,
            ..EngineOptions::default()
        });
        // `c` is not in prune's alphabet and sits in an inspected
        // position: a typed violation, not an opaque Undefined.
        let bad = "<root><a/><c/><a/></root>";
        let mut rendered: Vec<String> = Vec::new();
        for mode in [EvalMode::Streaming, EvalMode::Compiled] {
            match run_one(&engine, &prune, bad, mode, &format, true, None) {
                Err(EngineError::Type(e)) => rendered.push(e.to_string()),
                other => panic!("{mode:?}: expected a type error, got {other:?}"),
            }
        }
        rendered.dedup();
        assert_eq!(rendered.len(), 1, "diagnostics differ across modes");
    }

    /// Streamed emission is byte-identical to the batch API in every
    /// format, and on order-preserving transducers the first output
    /// bytes leave before the input ends (events_emitted_early > 0,
    /// nothing buffered).
    #[test]
    fn transform_streaming_matches_batch_output() {
        let fix = examples::flip();
        let engine = Engine::default();
        let prune = fcns_prune();
        let cases = [
            (&fix.dtop, DocFormat::Term, "root(a(#,#),b(#,#))"),
            (
                &fix.dtop,
                DocFormat::Xml,
                "<root><a># #</a><b># #</b></root>",
            ),
            (
                &prune,
                DocFormat::parse("fcns").unwrap(),
                "<root><a><a/></a><b/></root>",
            ),
        ];
        for (dtop, format, doc) in cases {
            let batch = run_one(
                &engine,
                dtop,
                doc,
                EvalMode::Streaming,
                &format,
                false,
                None,
            )
            .unwrap();
            let mut bytes = Vec::new();
            let out = engine
                .transform_streaming_with(dtop, doc, format.clone(), false, &mut bytes)
                .unwrap();
            assert_eq!(String::from_utf8(bytes).unwrap(), batch, "{format:?}");
            assert_eq!(out.bytes_written as usize, batch.len(), "{format:?}");
            assert!(out.events_total > 0, "{format:?}");
        }
        // The prune transducer is order-preserving: everything streams.
        let prune = fcns_prune();
        let doc = "<root><a><a/></a><a/></root>";
        let mut bytes = Vec::new();
        let out = engine
            .transform_streaming_with(
                &prune,
                doc,
                DocFormat::parse("fcns").unwrap(),
                false,
                &mut bytes,
            )
            .unwrap();
        assert_eq!(out.peak_buffered_frames, 0, "order-preserving run buffers");
        assert_eq!(out.events_emitted_early, out.events_total);
    }

    /// The encoded streaming path fast-forwards deleted subtrees at the
    /// raw tokenizer (the PR-5 skip upside, closed for encoded formats),
    /// observable through the engine-wide counter.
    #[test]
    fn encoded_streaming_skips_deleted_subtrees() {
        let prune = fcns_prune();
        let format = DocFormat::parse("fcns").unwrap();
        let engine = Engine::default();
        // Every `b` content forest is deleted; the inner junk would fail
        // fc/ns encoding if it were tokenized (undeclared depth is fine,
        // but the skip counter is the direct evidence).
        let doc = "<root><b><a><a/><a/></a></b><a/></root>";
        let out = run_one(
            &engine,
            &prune,
            doc,
            EvalMode::Streaming,
            &format,
            false,
            None,
        )
        .unwrap();
        assert_eq!(out, "<root><a/></root>");
        assert!(
            engine.skipped_subtrees() >= 1,
            "encoded skip fast path must engage"
        );
        // Streamed emission takes the same fast path and reports it.
        let before = engine.skipped_subtrees();
        let mut bytes = Vec::new();
        let streamed = engine
            .transform_streaming_with(&prune, doc, format, false, &mut bytes)
            .unwrap();
        assert_eq!(String::from_utf8(bytes).unwrap(), "<root><a/></root>");
        assert!(streamed.skipped_subtrees >= 1);
        assert_eq!(
            engine.skipped_subtrees(),
            before + streamed.skipped_subtrees
        );
    }

    /// Writer failures surface as [`EngineError::Write`] with the
    /// [`io::ErrorKind`] preserved (serving layers classify timeouts).
    #[test]
    fn streaming_write_errors_carry_the_kind() {
        struct FailAfter(usize);
        impl io::Write for FailAfter {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                if self.0 == 0 {
                    return Err(io::Error::new(io::ErrorKind::TimedOut, "slow client"));
                }
                self.0 = self.0.saturating_sub(buf.len());
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let fix = examples::flip();
        let engine = Engine::new(EngineOptions::default());
        let err = engine
            .transform_streaming_with(
                &fix.dtop,
                "root(a(#,#),b(#,#))",
                DocFormat::Term,
                false,
                &mut FailAfter(0),
            )
            .unwrap_err();
        assert!(
            matches!(err, EngineError::Write { kind, .. } if kind == io::ErrorKind::TimedOut),
            "{err:?}"
        );
    }

    /// The output-node cap holds on streamed runs too — enforced as the
    /// events pass, without materializing the oversized output.
    #[test]
    fn streaming_enforces_the_output_bound() {
        let copier = examples::monadic_to_binary().dtop;
        let engine = Engine::new(EngineOptions {
            max_output_nodes: Some(1_000),
            ..EngineOptions::default()
        });
        let mut deep = String::from("e");
        for _ in 0..30 {
            deep = format!("f({deep})");
        }
        let mut bytes = Vec::new();
        let err = engine
            .transform_streaming_with(&copier, &deep, DocFormat::Term, false, &mut bytes)
            .unwrap_err();
        assert!(
            matches!(err, EngineError::OutputTooLarge(n) if n > 1_000),
            "{err:?}"
        );
        let mut ok = Vec::new();
        engine
            .transform_streaming_with(&copier, "f(f(e))", DocFormat::Term, false, &mut ok)
            .unwrap();
        assert_eq!(String::from_utf8(ok).unwrap(), "g(g(e,e),g(e,e))");
    }

    /// Streaming validation composes: the lockstep guard rejects with
    /// the same typed diagnostic as the batch paths.
    #[test]
    fn streaming_validation_rejects_with_typed_diagnostics() {
        let fix = examples::flip();
        let engine = Engine::new(EngineOptions::default());
        let mut bytes = Vec::new();
        let err = engine
            .transform_streaming_with(
                &fix.dtop,
                "root(a(#,b(#,#)),b(#,#))",
                DocFormat::Term,
                true,
                &mut bytes,
            )
            .unwrap_err();
        let EngineError::Type(e) = &err else {
            panic!("expected a type error, got {err:?}");
        };
        assert_eq!(e.path().to_string(), "1.2");
    }

    #[test]
    fn compiled_cache_hits_by_fingerprint() {
        let fix = examples::flip();
        let engine = Engine::new(EngineOptions::default());
        let a = engine.compiled(&fix.dtop).unwrap();
        let b = engine.compiled(&examples::flip().dtop).unwrap(); // rebuilt, same structure
        assert_eq!(a.fingerprint(), b.fingerprint());
        let stats = engine.cache_stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
        // A failed build counts nothing and leaves no entry.
        let library = examples::library().dtop;
        assert!(cached(&engine.cache, &Key::of(&library), || Err::<
            Arc<CompiledDtop>,
            _,
        >(()))
        .is_err());
        let stats = engine.cache_stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
    }

    #[test]
    fn cache_evicts_least_recently_used() {
        let engine = Engine::new(EngineOptions {
            cache_capacity: 2,
            ..EngineOptions::default()
        });
        let m1 = examples::flip().dtop;
        let m2 = examples::library().dtop;
        let m3 = examples::monadic_to_binary().dtop;
        engine.compiled(&m1).unwrap();
        engine.compiled(&m2).unwrap();
        engine.compiled(&m1).unwrap(); // refresh m1
        engine.compiled(&m3).unwrap(); // evicts m2
        engine.compiled(&m1).unwrap(); // still cached
        let stats = engine.cache_stats();
        assert_eq!(stats.entries, 2);
        assert_eq!(stats.hits, 2);
        assert_eq!(stats.misses, 3);
        engine.compiled(&m2).unwrap(); // was evicted → miss
        assert_eq!(engine.cache_stats().misses, 4);
    }

    /// A miss builds with the cache unlocked: a build that waits for
    /// another thread's `compiled` call completes, and both results are
    /// cached. Were the lock held across the build, that call would wait
    /// for the build, and the build would time out.
    #[test]
    fn a_cache_miss_does_not_block_other_lookups() {
        use std::sync::mpsc;
        use std::time::Duration;
        let engine = Engine::default();
        let (flip, library) = (examples::flip().dtop, examples::library().dtop);
        let (done, other_returned) = mpsc::channel();
        let built = std::thread::scope(|scope| {
            scope.spawn(|| {
                engine.compiled(&library).unwrap();
                let _ = done.send(());
            });
            cached(&engine.cache, &Key::of(&flip), || {
                other_returned
                    .recv_timeout(Duration::from_secs(5))
                    .map(|()| Arc::new(compile(&flip).unwrap()))
            })
        });
        assert!(built.is_ok(), "the concurrent lookup waited for the build");
        let stats = engine.cache_stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (0, 2, 2));
        assert!(Arc::ptr_eq(
            &built.unwrap(),
            &engine.compiled(&flip).unwrap()
        ));
    }

    /// Concurrent misses on one key build once: a lookup of the key while
    /// its first build runs waits for that build and takes its value, as
    /// a hit. Were each miss to build, B's build would run.
    #[test]
    fn concurrent_misses_on_one_key_build_once() {
        use std::sync::atomic::AtomicUsize;
        use std::sync::mpsc;
        use std::time::Duration;
        let (engine, flip) = (&Engine::default(), &examples::flip().dtop);
        let (building, a_is_building) = mpsc::channel();
        let (release, released) = mpsc::channel();
        let b_builds = &AtomicUsize::new(0);
        let (a, b) = std::thread::scope(|scope| {
            let a = scope.spawn(move || {
                cached(&engine.cache, &Key::of(flip), || {
                    building.send(()).unwrap();
                    released
                        .recv_timeout(Duration::from_secs(5))
                        .map(|()| Arc::new(compile(flip).unwrap()))
                })
            });
            a_is_building.recv().unwrap();
            let b = scope.spawn(move || {
                cached(&engine.cache, &Key::of(flip), || {
                    b_builds.fetch_add(1, Ordering::Relaxed);
                    Ok::<_, ()>(Arc::new(compile(flip).unwrap()))
                })
            });
            // Let B reach its lookup while A's build still runs.
            std::thread::sleep(Duration::from_millis(200));
            release.send(()).unwrap();
            (a.join().unwrap().unwrap(), b.join().unwrap().unwrap())
        });
        assert_eq!(b_builds.load(Ordering::Relaxed), 0, "B built the key again");
        assert!(Arc::ptr_eq(&a, &b), "B did not take A's value");
        assert_eq!(engine.cache_stats().misses, 1);
    }

    /// A 200,000-deep document through the identity returns its own
    /// bytes in both modes, for both XML formats and the term format,
    /// with and without an output bound — on a spawned thread's default
    /// stack. Every input is read and every output rendered without
    /// recursing on depth; a recursive parser or tree writer overflows
    /// the stack here and aborts the process.
    #[test]
    fn deep_xml_round_trips_in_every_mode() {
        std::thread::spawn(|| {
            let identity =
                xtt_transducer::parse_dtop("ax = <q,x0>\nq(f(x1)) -> f(<q,x1>)\nq(g) -> g\n")
                    .unwrap();
            let depth = 200_000;
            let xml = format!("{}<g/>{}", "<f>".repeat(depth), "</f>".repeat(depth));
            let term = format!("{}g{}", "f(".repeat(depth), ")".repeat(depth));
            for bound in [None, Some(2 * depth as u64)] {
                let engine = Engine::new(EngineOptions {
                    max_output_nodes: bound,
                    ..EngineOptions::default()
                });
                for (format, doc) in [
                    (DocFormat::Xml, &xml),
                    (DocFormat::XmlAttrs, &xml),
                    (DocFormat::Term, &term),
                ] {
                    for mode in MODES {
                        let out = run_one(&engine, &identity, doc, mode, &format, false, None);
                        let ok = out.as_deref() == Ok(doc.as_str());
                        assert!(
                            ok,
                            "{mode:?} {format:?} bound {bound:?}: {:?}",
                            out.map(|o| o.len())
                        );
                    }
                }
            }
        })
        .join()
        .expect("the deep document must transform");
    }
}
