//! The long-lived server: an epoll event loop in front of a bounded
//! worker pool around a shared [`Engine`], routing the handful of
//! endpoints of the transformation service.
//!
//! ```text
//! PUT    /transducers/{name}[?learn=1]   upload term-syntax rules, or learn
//!                                        from `input => output` sample lines
//! GET    /transducers                    list registered transducers
//! GET    /transducers/{name}             one transducer's summary
//! DELETE /transducers/{name}             unregister
//! POST   /transform/{name}?mode=tree|stream&format=&validate=
//!                                        newline-delimited batch transform;
//!                                        chunked response, one line per doc,
//!                                        failures positional (`!error: …`;
//!                                        with validation, out-of-domain
//!                                        documents get `!error: type error
//!                                        at <path>: …` naming the first
//!                                        violating node)
//! POST   /typecheck/{name}               output typechecking: body is a DTTA
//!                                        schema (term syntax); answers
//!                                        ok/counterexample JSON
//! PUT    /encodings/{name}               upload a DTD; registers a ranked
//!                                        encoding usable via ?encoding=
//!                                        (422 on a malformed or ambiguous
//!                                        DTD); ?pcdata=v1,v2 sets a finite
//!                                        text universe, ?style=paper|
//!                                        path-closed the R* shape
//! GET    /encodings[/{name}]             list / inspect encodings (the
//!                                        built-in fcns is always there)
//! DELETE /encodings/{name}               unregister
//! PUT    /pipelines/{name}               register a pipeline: body is a
//!                                        comma/newline list of registered
//!                                        transducer names (τ₁ first);
//!                                        ?schema={encoding} specializes to
//!                                        that DTD encoding's domain (422 on
//!                                        undefined stages or an empty
//!                                        composition)
//! GET    /pipelines[/{name}]             list / inspect pipelines (plan
//!                                        report: composed size, jump-table
//!                                        shrink)
//! DELETE /pipelines/{name}               unregister
//! POST   /transform/{name}               also dispatches to pipelines
//!                                        (either ?mode=): the composed
//!                                        machine under the plan's chain
//!                                        guard, which always validates
//! GET    /slow                           recent slow-request lines (JSON
//!                                        ring, newest last)
//! GET    /healthz                        liveness (+ started_at/uptime)
//! GET    /stats                          counters (engine cache, validation,
//!                                        typecheck, queue, event loop,
//!                                        latency)
//! GET    /metrics                        the same counters in Prometheus
//!                                        text exposition format
//! POST   /shutdown                       graceful shutdown (drain, then exit)
//! ```
//!
//! Concurrency model: **one event-loop thread owns every socket** (see
//! `event_loop`) — it accepts, reads, and parses requests incrementally,
//! and writes responses from a bounded per-connection `Outbuf`. A
//! parsed request is handed to the bounded [`WorkQueue`]; `N` worker
//! threads pop requests, run the CPU work, and push the finished
//! disposition back through the event loop's wakeup pipe. They are the
//! only thread pool: the engine runs a request's documents on the
//! worker that popped it and never starts threads of its own. A parked
//! keep-alive connection therefore holds *no thread* — only an epoll
//! registration and a buffer — so idle connections scale to the fd
//! limit, not the thread count. A full queue is answered `503`
//! immediately; a streamed response whose client stops draining yields
//! its worker at a document boundary and resumes when the buffer
//! empties. Shutdown (SIGTERM/SIGINT in the binary, `POST /shutdown`
//! anywhere) stops the listener, parses out what is already buffered,
//! drains the queue, finishes in-flight requests, and joins the workers
//! before [`Server::run`] returns.
//!
//! Execution: a transform request resolves its target once into one
//! compiled machine and an optional guard — a registered transducer's
//! own machine (guarded with `?validate=1`), a pipeline's composed
//! machine under its plan's chain guard — and makes one engine request
//! of them, then one engine call per mode: `tree` answers with the whole
//! batch's text (`Engine::run_batch`), `stream` writes each document's
//! output bytes straight into the chunked response as its prefixes
//! commit (`Engine::run_doc`). In both, every document runs source →
//! machine → sink in the engine; tracing and validation ride on the
//! same request.

use std::fmt::Write as _;
use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use xtt_engine::{CompiledDtop, DocFormat, Engine, EngineError, EngineOptions, EvalMode};
use xtt_netio::Waker;
use xtt_obs::{EvalObserver, Trace, TraceSampler};
use xtt_pipeline::StageDef;
use xtt_typecheck::CompiledDtta;

use crate::encodings::EncodingRegistry;
use crate::event_loop;
use crate::http::{write_response, write_response_conn, ChunkedWriter, Request};
use crate::outbuf::{ConnWriter, Outbuf};
use crate::pipelines::{PipelineEntry, PipelineRegistry};
use crate::pool::WorkQueue;
use crate::registry::{self, escape_json, Entry, Registry, Source};
use crate::stats::ServerStats;

/// Server configuration.
#[derive(Clone, Debug)]
pub struct ServeOptions {
    /// Worker threads answering requests — the only thread pool on the
    /// serving path; 0 = one per available CPU.
    pub workers: usize,
    /// Backpressure bound: requests queued ahead of the workers.
    pub queue_capacity: usize,
    /// Largest accepted request body, in bytes.
    pub max_body: usize,
    /// Per-connection inactivity timeout: reading a request, or draining
    /// a response the client has stopped accepting.
    pub io_timeout: Duration,
    /// Write deadline for streamed (`mode=stream`) responses: a client
    /// whose output buffer makes no progress for this long has its
    /// response aborted (and the abort counted in
    /// `streaming.write_timeouts`), so a slow consumer cannot pin a
    /// worker past one deadline.
    pub stream_write_deadline: Duration,
    /// How long a kept-alive connection may sit idle between requests
    /// before the server closes it.
    pub keep_alive_timeout: Duration,
    /// Requests served per connection before the server closes it
    /// (`1` = one request per connection, the pre-keep-alive behavior).
    pub keep_alive_limit: usize,
    /// Per-connection output buffer bound. A streamed response that
    /// backs up past half of this yields its worker at the next document
    /// boundary and resumes once the event loop has drained the buffer
    /// to a quarter.
    pub stream_buffer: usize,
    /// Trace one in N transform requests through the evaluation
    /// pipeline (tokenize/encode/guard/eval/emit stage stamps, surfaced
    /// as `Server-Timing` + `X-Xtt-Trace-Id` response headers and in the
    /// slow-request log). `0` disables sampling entirely — the engine
    /// then sees a `None` observer and pays nothing.
    pub trace_sample: u64,
    /// Requests slower than this get a structured `slow-request` line on
    /// stderr (with the stage breakdown when the request was sampled).
    /// Zero disables the log.
    pub slow_request: Duration,
    /// The wrapped engine (cache capacity, default mode/format, output
    /// bound). It starts no threads: a request runs on the worker that
    /// took it.
    pub engine: EngineOptions,
}

impl Default for ServeOptions {
    fn default() -> ServeOptions {
        ServeOptions {
            workers: 0,
            queue_capacity: 128,
            max_body: 64 * 1024 * 1024,
            io_timeout: Duration::from_secs(30),
            stream_write_deadline: Duration::from_secs(10),
            keep_alive_timeout: Duration::from_secs(5),
            keep_alive_limit: 1000,
            stream_buffer: 256 * 1024,
            trace_sample: 0,
            slow_request: Duration::from_secs(1),
            engine: EngineOptions {
                // A copying transducer turns a 100-byte document into an
                // exponential output; a server must bound what it will
                // emit (measured on the shared evaluated output, or
                // counted as it streams; a per-document error).
                max_output_nodes: Some(10_000_000),
                ..EngineOptions::default()
            },
        }
    }
}

/// One unit of worker work, handed off by the event loop.
pub(crate) enum Job {
    /// A fully parsed request on connection `token`.
    Request {
        token: u64,
        request: Request,
        /// This connection's request ordinal (1-based) — the keep-alive
        /// limit input.
        served: usize,
        out: Arc<Outbuf>,
        /// When the event loop pushed the job (queue-wait histogram).
        enqueued: Instant,
    },
    /// A stream job that yielded to a slow client, resuming now that the
    /// buffer has drained.
    Resume {
        token: u64,
        job: StreamJob,
        out: Arc<Outbuf>,
    },
}

/// A worker's verdict on one job, returned through the done-list.
pub(crate) struct Done {
    pub token: u64,
    pub disposition: Disposition,
}

pub(crate) enum Disposition {
    /// The response is fully buffered; drain it, then keep or close.
    Finish { keep: bool },
    /// The response is unrecoverable (write deadline, I/O error): close.
    Abort,
    /// A streamed response paused at a document boundary; park the
    /// connection until the buffer drains, then resume the job.
    Yield { job: StreamJob },
}

/// What a transform request executes, resolved once per request into one
/// compiled machine and its guard: a registered transducer's own
/// (through the engine's compiled-dtop and guard caches), or a registered
/// pipeline's composed machine with the plan's chain guard.
pub(crate) struct StreamTarget {
    name: String,
    /// The machine and guard, or the error every document answers with
    /// when the transducer cannot be compiled or guarded.
    machine: Result<Machine, Box<EngineError>>,
}

type Machine = (Arc<CompiledDtop>, Option<Arc<CompiledDtta>>);

impl StreamTarget {
    /// The engine request for this target, or its resolution error.
    fn request<'a>(
        &'a self,
        format: &'a DocFormat,
        mode: EvalMode,
        trace: Option<&'a mut Trace>,
    ) -> Result<xtt_engine::Request<'a>, EngineError> {
        let (machine, guard) = self.machine.as_ref().map_err(|e| (**e).clone())?;
        Ok(xtt_engine::Request {
            observer: trace.map(|t| t as &mut dyn EvalObserver),
            ..xtt_engine::Request::new(machine, guard.as_deref(), format, mode)
        })
    }
}

/// The resumable state of one `mode=stream` transform response.
pub(crate) struct StreamJob {
    target: Box<StreamTarget>,
    docs: Vec<String>,
    /// Next document index to evaluate.
    next: usize,
    format: DocFormat,
    failed: u64,
    type_errors: u64,
    keep: bool,
    head_written: bool,
    started: Instant,
    /// Sampled pipeline trace; stages accumulate across yields.
    trace: Option<Trace>,
}

/// What routing one request produced.
pub(crate) enum RouteStep {
    Done { keep: bool },
    Yield(StreamJob),
}

pub(crate) struct Shared {
    pub(crate) engine: Arc<Engine>,
    pub(crate) registry: Registry,
    pub(crate) encodings: EncodingRegistry,
    pub(crate) pipelines: PipelineRegistry,
    pub(crate) stats: ServerStats,
    pub(crate) queue: WorkQueue<Job>,
    /// Finished jobs queued for the event loop, paired with a waker kick.
    pub(crate) done: Mutex<Vec<Done>>,
    pub(crate) waker: Waker,
    pub(crate) sampler: TraceSampler,
    pub(crate) opts: ServeOptions,
}

impl Shared {
    /// Flips the shutdown flag *and* kicks the event loop so the drain
    /// starts now, not at the next tick (idempotent).
    pub(crate) fn begin_shutdown(&self) {
        self.queue.shutdown();
        let _ = self.waker.wake();
    }

    pub(crate) fn take_done(&self) -> Vec<Done> {
        std::mem::take(&mut *self.done.lock().unwrap_or_else(|e| e.into_inner()))
    }

    pub(crate) fn push_done(&self, done: Done) {
        self.done
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(done);
        let _ = self.waker.wake();
    }
}

/// A cloneable handle for observing and stopping a running server.
#[derive(Clone)]
pub struct ServeHandle {
    shared: Arc<Shared>,
}

impl ServeHandle {
    /// Triggers graceful shutdown (idempotent).
    pub fn shutdown(&self) {
        self.shared.begin_shutdown();
    }

    pub fn is_shutting_down(&self) -> bool {
        self.shared.queue.is_shutting_down()
    }

    /// The `/stats` JSON snapshot.
    pub fn stats_json(&self) -> String {
        self.shared.stats_json()
    }

    /// The engine shared with the server (e.g. to pre-warm transducers).
    pub fn engine(&self) -> &Arc<Engine> {
        &self.shared.engine
    }

    /// The transducer registry (e.g. to preload examples at boot).
    pub fn registry(&self) -> &Registry {
        &self.shared.registry
    }
}

/// The bound-but-not-yet-running server.
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
}

impl Server {
    /// Binds the listener (`port 0` picks an ephemeral port).
    pub fn bind(addr: impl ToSocketAddrs, opts: ServeOptions) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let waker = Waker::new()?;
        Ok(Server {
            listener,
            shared: Arc::new(Shared {
                engine: Engine::shared(opts.engine.clone()),
                registry: Registry::new(),
                encodings: EncodingRegistry::new(),
                // Plan-cache cardinality tracks the engine's compile LRU.
                pipelines: PipelineRegistry::new(opts.engine.cache_capacity),
                stats: ServerStats::new(),
                queue: WorkQueue::new(opts.queue_capacity),
                done: Mutex::new(Vec::new()),
                waker,
                sampler: TraceSampler::new(opts.trace_sample),
                opts,
            }),
        })
    }

    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    pub fn handle(&self) -> ServeHandle {
        ServeHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Runs the event loop until shutdown, then drains and joins the
    /// workers. Blocking; returns once the last in-flight request is
    /// answered and the last response byte is on the wire.
    pub fn run(self) -> io::Result<()> {
        let Server { listener, shared } = self;
        let worker_count = if shared.opts.workers == 0 {
            std::thread::available_parallelism().map_or(4, |n| n.get())
        } else {
            shared.opts.workers
        };
        let workers: Vec<_> = (0..worker_count)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("xtt-serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn worker")
            })
            .collect();

        // The caller's thread *is* the event loop; it returns once every
        // connection has been answered and closed.
        let result = event_loop::run(&shared, listener);

        // Belt and braces for the error path (a healthy exit has already
        // drained): release the workers and wait them out.
        shared.begin_shutdown();
        while !shared.queue.drained() {
            std::thread::sleep(Duration::from_millis(10));
        }
        for w in workers {
            let _ = w.join();
        }
        result
    }
}

fn worker_loop(shared: &Shared) {
    while let Some((job, _guard)) = shared.queue.pop() {
        shared.stats.queue_depth.set(shared.queue.depth() as u64);
        let (token, disposition) = match job {
            Job::Request {
                token,
                request,
                served,
                out,
                enqueued,
            } => {
                shared
                    .stats
                    .queue_wait
                    .record(enqueued.elapsed().as_micros() as u64);
                let keep = request.keep_alive()
                    && served < shared.opts.keep_alive_limit.max(1)
                    && !shared.queue.is_shutting_down();
                let mut w = ConnWriter::new(&out, &shared.waker, shared.opts.io_timeout);
                let result =
                    catch_unwind(AssertUnwindSafe(|| route(shared, &request, &mut w, keep)));
                let disposition = match result {
                    Ok(Ok(RouteStep::Done { keep })) => Disposition::Finish { keep },
                    Ok(Ok(RouteStep::Yield(job))) => Disposition::Yield { job },
                    Ok(Err(_)) => Disposition::Abort,
                    Err(_) => {
                        shared.stats.handler_panics.inc();
                        let mut buf = Vec::new();
                        let _ = write_response(
                            &mut buf,
                            500,
                            "text/plain",
                            &[],
                            b"internal error: handler panicked\n",
                        );
                        out.force_push(&buf);
                        Disposition::Finish { keep: false }
                    }
                };
                (token, disposition)
            }
            Job::Resume { token, job, out } => {
                let mut w = ConnWriter::new(&out, &shared.waker, shared.opts.stream_write_deadline);
                let result = catch_unwind(AssertUnwindSafe(|| run_stream_job(shared, job, &mut w)));
                let disposition = match result {
                    Ok(Ok(RouteStep::Done { keep })) => Disposition::Finish { keep },
                    Ok(Ok(RouteStep::Yield(job))) => Disposition::Yield { job },
                    Ok(Err(_)) => Disposition::Abort,
                    Err(_) => {
                        shared.stats.handler_panics.inc();
                        Disposition::Abort
                    }
                };
                (token, disposition)
            }
        };
        // A yielded job is parked work that WILL come back: hold the
        // queue open (the drain must not complete under it) before the
        // in-flight guard drops or the event loop sees the disposition.
        if matches!(disposition, Disposition::Yield { .. }) {
            shared.queue.hold();
        }
        shared.push_done(Done { token, disposition });
    }
}

/// Routes one request into the connection's output buffer. `keep` is the
/// connection disposition every response must carry; the returned
/// [`RouteStep`] tells the event loop whether the connection may be kept
/// (shutdown forces a close) or the response yielded mid-stream.
fn route(
    shared: &Shared,
    req: &Request,
    w: &mut ConnWriter<'_>,
    keep: bool,
) -> io::Result<RouteStep> {
    let started = Instant::now();
    let segments: Vec<&str> = req
        .path
        .trim_matches('/')
        .split('/')
        .filter(|s| !s.is_empty())
        .collect();
    // Shutdown always closes; everything else follows the caller.
    let keep = keep && !matches!(segments.as_slice(), ["shutdown"]);
    let respond = |w: &mut ConnWriter<'_>, status: u16, ct: &str, body: &[u8]| {
        write_response_conn(w, status, ct, &[], body, keep)
    };
    let r = match (req.method.as_str(), segments.as_slice()) {
        ("GET", ["healthz"]) => {
            let body = format!(
                "{{\"ok\":true,\"started_at\":{},\"uptime_seconds\":{}}}\n",
                shared.stats.started_unix,
                shared.stats.uptime_seconds(),
            );
            let r = respond(w, 200, "application/json", body.as_bytes());
            shared.stats.health.record(started, 200);
            r
        }
        ("GET", ["stats"]) => {
            let body = shared.stats_json();
            let r = respond(w, 200, "application/json", body.as_bytes());
            shared.stats.stats.record(started, 200);
            r
        }
        ("GET", ["metrics"]) => {
            let body = shared.metrics_text();
            let r = respond(w, 200, "text/plain; version=0.0.4", body.as_bytes());
            shared.stats.stats.record(started, 200);
            r
        }
        ("GET", ["transducers"]) => {
            let body = shared.registry.list_json();
            let r = respond(w, 200, "application/json", body.as_bytes());
            shared.stats.transducers.record(started, 200);
            r
        }
        ("GET", ["transducers", name]) => {
            let (status, body) = match shared.registry.get(name) {
                Some(entry) => (200, entry.json()),
                None => (404, error_json("unknown transducer")),
            };
            let r = respond(w, status, "application/json", body.as_bytes());
            shared.stats.transducers.record(started, status);
            r
        }
        ("PUT", ["transducers", name]) => {
            let (status, body) = put_transducer(shared, req, name);
            let r = respond(w, status, "application/json", body.as_bytes());
            shared.stats.transducers.record(started, status);
            r
        }
        ("DELETE", ["transducers", name]) => {
            let status = if shared.registry.remove(name) {
                204
            } else {
                404
            };
            let r = respond(w, status, "text/plain", b"");
            shared.stats.transducers.record(started, status);
            r
        }
        ("GET", ["encodings"]) => {
            let body = shared.encodings.list_json();
            let r = respond(w, 200, "application/json", body.as_bytes());
            shared.stats.encodings.record(started, 200);
            r
        }
        ("GET", ["encodings", name]) => {
            let (status, body) = match shared.encodings.get(name) {
                Some(entry) => (200, entry.json()),
                None if *name == "fcns" => (200, "{\"name\":\"fcns\",\"builtin\":true}".to_owned()),
                None => (404, error_json("unknown encoding")),
            };
            let r = respond(w, status, "application/json", body.as_bytes());
            shared.stats.encodings.record(started, status);
            r
        }
        ("PUT", ["encodings", name]) => {
            let (status, body) = put_encoding(shared, req, name);
            let r = respond(w, status, "application/json", body.as_bytes());
            shared.stats.encodings.record(started, status);
            r
        }
        ("DELETE", ["encodings", name]) => {
            let status = if shared.encodings.remove(name) {
                204
            } else {
                404
            };
            let r = respond(w, status, "text/plain", b"");
            shared.stats.encodings.record(started, status);
            r
        }
        ("GET", ["pipelines"]) => {
            let body = shared.pipelines.list_json();
            let r = respond(w, 200, "application/json", body.as_bytes());
            shared.stats.pipelines.record(started, 200);
            r
        }
        ("GET", ["pipelines", name]) => {
            let (status, body) = match shared.pipelines.get(name) {
                Some(entry) => (200, entry.json()),
                None => (404, error_json("unknown pipeline")),
            };
            let r = respond(w, status, "application/json", body.as_bytes());
            shared.stats.pipelines.record(started, status);
            r
        }
        ("PUT", ["pipelines", name]) => {
            let (status, body) = put_pipeline(shared, req, name);
            let r = respond(w, status, "application/json", body.as_bytes());
            shared.stats.pipelines.record(started, status);
            r
        }
        ("DELETE", ["pipelines", name]) => {
            let status = if shared.pipelines.remove(name) {
                204
            } else {
                404
            };
            let r = respond(w, status, "text/plain", b"");
            shared.stats.pipelines.record(started, status);
            r
        }
        ("GET", ["slow"]) => {
            let body = shared.stats.slow_json();
            let r = respond(w, 200, "application/json", body.as_bytes());
            shared.stats.stats.record(started, 200);
            r
        }
        ("POST", ["transform", name]) => return transform(shared, req, name, w, started, keep),
        ("POST", ["typecheck", name]) => {
            let (status, body) = typecheck(shared, req, name);
            let r = respond(w, status, "application/json", body.as_bytes());
            shared.stats.typecheck.record(started, status);
            r
        }
        ("POST", ["shutdown"]) => {
            let r = respond(w, 200, "text/plain", b"draining\n");
            shared.stats.other.record(started, 200);
            shared.begin_shutdown();
            r
        }
        (_, ["healthz" | "stats" | "metrics" | "slow" | "shutdown"])
        | (_, ["transducers" | "transform" | "typecheck" | "encodings" | "pipelines", ..]) => {
            let r = respond(w, 405, "text/plain", b"method not allowed\n");
            shared.stats.other.record(started, 405);
            r
        }
        _ => {
            let r = respond(w, 404, "text/plain", b"no such endpoint\n");
            shared.stats.other.record(started, 404);
            r
        }
    };
    r.map(|()| RouteStep::Done { keep })
}

/// `PUT /encodings/{name}`: body is a DTD; `?pcdata=v1,v2` sets a finite
/// text universe (default: the paper's abstract pcdata); `?style=paper|
/// path-closed` picks the `R*` shape. A malformed or non-1-unambiguous
/// DTD answers `422` and registers nothing.
fn put_encoding(shared: &Shared, req: &Request, name: &str) -> (u16, String) {
    if !Registry::valid_name(name) {
        return (
            400,
            error_json("encoding names are [A-Za-z0-9_.-], at most 64 bytes"),
        );
    }
    let body = match req.body_str() {
        Ok(b) => b,
        Err(e) => return (400, error_json(&e.to_string())),
    };
    let pcdata = req.query_param("pcdata").map(|v| {
        v.split(',')
            .filter(|s| !s.is_empty())
            .map(str::to_owned)
            .collect::<Vec<_>>()
    });
    let style = match req.query_param("style") {
        None | Some("paper") => xtt_xml::EncodingStyle::Paper,
        Some("path-closed" | "pathclosed") => xtt_xml::EncodingStyle::PathClosed,
        Some(other) => {
            return (
                400,
                error_json(&format!("bad style '{other}' (paper or path-closed)")),
            )
        }
    };
    match shared.encodings.upload(name, body, pcdata, style) {
        Ok(entry) => (201, entry.json()),
        Err(e) => (422, error_json(&e.to_string())),
    }
}

/// `PUT /pipelines/{name}`: body is the stage list — registered
/// transducer names separated by commas or newlines, in application order
/// (τ₁ first). `?schema={encoding}` specializes the stages to an uploaded
/// DTD encoding's domain automaton. Undefined stages, an empty stage
/// list, and a composition with an empty domain all answer `422` and
/// register nothing.
fn put_pipeline(shared: &Shared, req: &Request, name: &str) -> (u16, String) {
    if !Registry::valid_name(name) {
        return (
            400,
            error_json("pipeline names are [A-Za-z0-9_.-], at most 64 bytes"),
        );
    }
    let body = match req.body_str() {
        Ok(b) => b,
        Err(e) => return (400, error_json(&e.to_string())),
    };
    let stage_names: Vec<&str> = body
        .split(['\n', ','])
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .collect();
    if stage_names.is_empty() {
        return (
            422,
            error_json("pipeline body must list at least one registered transducer"),
        );
    }
    let mut stages = Vec::with_capacity(stage_names.len());
    let mut missing = Vec::new();
    for stage_name in &stage_names {
        match shared.registry.get(stage_name) {
            Some(entry) => stages.push(StageDef {
                name: (*stage_name).to_owned(),
                dtop: Arc::new(entry.dtop.clone()),
            }),
            None => missing.push((*stage_name).to_owned()),
        }
    }
    if !missing.is_empty() {
        return (
            422,
            error_json(&format!("undefined stages: {}", missing.join(", "))),
        );
    }
    let schema = match req.query_param("schema") {
        None => None,
        Some("fcns") => {
            return (
                422,
                error_json("the built-in fcns encoding carries no schema; upload a DTD encoding"),
            )
        }
        Some(enc_name) => match shared.encodings.get(enc_name) {
            Some(entry) => Some((enc_name.to_owned(), entry.encoding.domain())),
            None => {
                return (
                    422,
                    error_json(&format!("unknown schema encoding '{enc_name}'")),
                )
            }
        },
    };
    match shared.pipelines.register(name, stages, schema) {
        Ok(entry) => (201, entry.json()),
        Err(e) => (422, error_json(&format!("cannot plan pipeline: {e}"))),
    }
}

fn put_transducer(shared: &Shared, req: &Request, name: &str) -> (u16, String) {
    if !Registry::valid_name(name) {
        return (
            400,
            error_json("transducer names are [A-Za-z0-9_.-], at most 64 bytes"),
        );
    }
    let body = match req.body_str() {
        Ok(b) => b,
        Err(e) => return (400, error_json(&e.to_string())),
    };
    let learn = match req.query_param("learn") {
        None | Some("0") | Some("false") => false,
        Some("1") | Some("true") => true,
        Some(other) => {
            return (
                400,
                error_json(&format!("bad learn value '{other}' (use 1 or true)")),
            )
        }
    };
    let (dtop, source) = match if learn {
        registry::learn_dtop(body).map(|d| (d, Source::Learned))
    } else {
        registry::parse_rules(body).map(|d| (d, Source::Uploaded))
    } {
        Ok(parsed) => parsed,
        Err(e) => return (422, error_json(&e.to_string())),
    };
    // Compile *before* registering: a transducer the engine cannot run is
    // rejected here instead of poisoning every later transform — and a
    // successful compile pre-warms the fingerprint LRU, so the first
    // transform after a hot swap never pays the compile.
    if let Err(e) = shared.engine.compiled(&dtop) {
        return (
            422,
            error_json(&format!("transducer does not compile: {e}")),
        );
    }
    // When the server validates by default, an unguardable transducer
    // would poison every transform: build its guard now and reject it
    // here. With validation off the upload builds no guard (the subset
    // construction can be exponential); the first `?validate=1` request
    // builds it through the guard cache.
    if shared.opts.engine.validate {
        if let Err(e) = shared.engine.guard(&dtop) {
            return (
                422,
                error_json(&format!("transducer cannot be guarded: {e}")),
            );
        }
    }
    let entry = shared.registry.register(name, dtop, source);
    (201, entry.json())
}

fn transform(
    shared: &Shared,
    req: &Request,
    name: &str,
    w: &mut ConnWriter<'_>,
    started: Instant,
    keep: bool,
) -> io::Result<RouteStep> {
    // Transducers shadow pipelines on name collisions (pipelines are the
    // newer namespace; give them distinct names).
    enum Found {
        Transducer(Arc<Entry>),
        Pipeline(Arc<PipelineEntry>),
    }
    let found = match shared.registry.get(name) {
        Some(entry) => Found::Transducer(entry),
        None => match shared.pipelines.get(name) {
            Some(entry) => Found::Pipeline(entry),
            None => {
                let r = write_response_conn(
                    w,
                    404,
                    "application/json",
                    &[],
                    error_json("unknown transducer or pipeline").as_bytes(),
                    keep,
                );
                shared.stats.transform.record(started, 404);
                return r.map(|()| RouteStep::Done { keep });
            }
        },
    };
    let mode = match optional(req.query_param("mode"), EvalMode::parse) {
        Ok(m) => m.unwrap_or(shared.opts.engine.mode),
        Err(v) => return bad_param(shared, w, started, "mode", &v, keep),
    };
    let format = match optional(req.query_param("format"), DocFormat::parse) {
        Ok(f) => f.unwrap_or(shared.opts.engine.format.clone()),
        Err(v) => return bad_param(shared, w, started, "format", &v, keep),
    };
    // `?encoding=fcns|{name}` overrides the format: genuine unranked XML
    // through a ranked encoding (named ones come from PUT /encodings).
    // `?output_encoding={name}` decodes outputs with a different DTD
    // (schema-changing transformations like the paper's xmlflip).
    let format = match req.query_param("encoding") {
        None => {
            if let Some(out) = req.query_param("output_encoding") {
                return bad_param(
                    shared,
                    w,
                    started,
                    "output_encoding",
                    &format!("{out} (requires ?encoding=)"),
                    keep,
                );
            }
            format
        }
        Some(enc_name) => {
            let out_name = req.query_param("output_encoding").unwrap_or(enc_name);
            match shared.encodings.codec_pair(enc_name, out_name) {
                Some(codec) => DocFormat::Encoded(codec),
                None => {
                    return bad_param(
                        shared,
                        w,
                        started,
                        "encoding",
                        &format!("{enc_name} -> {out_name}"),
                        keep,
                    )
                }
            }
        }
    };
    let validate = match optional(req.query_param("validate"), parse_bool) {
        Ok(v) => v.unwrap_or(shared.opts.engine.validate),
        Err(v) => return bad_param(shared, w, started, "validate", &v, keep),
    };
    let body = match req.body_str() {
        Ok(b) => b,
        Err(e) => {
            let r = write_response_conn(
                w,
                400,
                "application/json",
                &[],
                error_json(&e.to_string()).as_bytes(),
                keep,
            );
            shared.stats.transform.record(started, 400);
            return r.map(|()| RouteStep::Done { keep });
        }
    };
    // One document per line, positions preserved exactly; only the final
    // newline's empty remainder is dropped.
    let mut docs: Vec<String> = body.split('\n').map(|l| l.trim().to_owned()).collect();
    if docs.last().is_some_and(String::is_empty) {
        docs.pop();
    }
    // One in `trace_sample` transform requests carries a pipeline trace
    // through the engine; everyone else passes a `None` observer, which
    // the evaluation paths skip entirely.
    let mut trace = shared.sampler.sample().map(Trace::new);
    if trace.is_some() {
        shared.stats.traces_sampled.inc();
    }
    let target = match found {
        Found::Transducer(entry) => {
            shared
                .stats
                .record_transform_target("transducer", &entry.name);
            StreamTarget {
                name: entry.name.clone(),
                machine: shared
                    .engine
                    .resolve(&entry.dtop, validate)
                    .map_err(Box::new),
            }
        }
        // The plan's guard (the chain domain ∩ schema) always validates a
        // pipeline request: dom(composition) alone over-accepts where a
        // later stage deletes an earlier stage's partial output, so it is
        // not optional the way `?validate=` is.
        Found::Pipeline(entry) => {
            shared
                .stats
                .record_transform_target("pipeline", &entry.name);
            shared.stats.pipeline_transforms.inc();
            let machine = Arc::clone(entry.plan.machine());
            StreamTarget {
                name: entry.name.clone(),
                machine: Ok((machine, Some(entry.plan.guard_arc()))),
            }
        }
    };
    if mode == EvalMode::Streaming {
        let job = StreamJob {
            target: Box::new(target),
            docs,
            next: 0,
            format,
            failed: 0,
            type_errors: 0,
            keep,
            head_written: false,
            started,
            trace,
        };
        return run_stream_job(shared, job, w);
    }
    let results = match target.request(&format, mode, trace.as_mut()) {
        Ok(req) => shared.engine.run_batch(&docs, req),
        Err(e) => vec![Err(e); docs.len()],
    };
    let failed = results.iter().filter(|r| r.is_err()).count();
    let type_errors = results
        .iter()
        .filter(|r| matches!(r, Err(EngineError::Type(_))))
        .count();
    shared.stats.documents.add(results.len() as u64);
    shared.stats.document_errors.add(failed as u64);
    shared.stats.documents_type_errors.add(type_errors as u64);
    let status = if failed == 0 { 200 } else { 207 };
    let mut headers = vec![
        ("X-Xtt-Docs", results.len().to_string()),
        ("X-Xtt-Failed", failed.to_string()),
    ];
    if let Some(t) = &trace {
        // The batch is fully evaluated before the head goes out, so the
        // stage breakdown rides the response itself.
        headers.push(("X-Xtt-Trace-Id", t.id_hex()));
        headers.push(("Server-Timing", t.server_timing()));
    }
    // The response is framed in memory and goes into the connection's
    // buffer in one push: each push takes the buffer's lock, and the
    // first wakes the event loop.
    let mut response = Vec::new();
    let mut writer =
        ChunkedWriter::start_conn(&mut response, status, "text/plain", &headers, keep)?;
    let mut line = String::new();
    for result in &results {
        line.clear();
        match result {
            Ok(text) => line.push_str(text),
            Err(e) => {
                let _ = write!(line, "!error: {e}");
            }
        }
        line.push('\n');
        writer.chunk(line.as_bytes())?;
    }
    writer.finish()?;
    let r = w.write_all(&response);
    log_if_slow(
        shared,
        &target.name,
        status,
        results.len() as u64,
        started,
        trace.as_ref(),
    );
    shared.stats.transform.record(started, status);
    r.map(|()| RouteStep::Done { keep })
}

/// Emits the structured slow-request line for transform requests that
/// crossed [`ServeOptions::slow_request`] — to stderr and into the
/// bounded ring behind `GET /slow`; sampled requests carry their
/// per-stage breakdown, unsampled ones log `trace=-`.
fn log_if_slow(
    shared: &Shared,
    target: &str,
    status: u16,
    docs: u64,
    started: Instant,
    trace: Option<&Trace>,
) {
    let threshold = shared.opts.slow_request;
    if threshold.is_zero() {
        return;
    }
    let elapsed = started.elapsed();
    if elapsed < threshold {
        return;
    }
    shared.stats.slow_requests.inc();
    let id = trace.map_or_else(|| "-".to_owned(), Trace::id_hex);
    let stages = trace.map_or_else(String::new, |t| format!(" {}", t.breakdown_micros()));
    let line = format!(
        "xtt-serve slow-request endpoint=transform target={target} status={status} docs={docs} total_us={} trace={id}{stages}",
        elapsed.as_micros(),
    );
    eprintln!("{line}");
    shared.stats.push_slow(line);
}

/// Runs (or resumes) a `mode=stream` transform until it finishes, fails,
/// or yields at a document boundary because the client's output buffer
/// is backed up. Endpoint latency is recorded once, at the true end.
fn run_stream_job(
    shared: &Shared,
    mut job: StreamJob,
    w: &mut ConnWriter<'_>,
) -> io::Result<RouteStep> {
    w.set_deadline(shared.opts.stream_write_deadline);
    match stream_job_step(shared, &mut job, w) {
        Ok(true) => {
            log_if_slow(
                shared,
                &job.target.name,
                200,
                job.docs.len() as u64,
                job.started,
                job.trace.as_ref(),
            );
            shared.stats.transform.record(job.started, 200);
            Ok(RouteStep::Done { keep: job.keep })
        }
        Ok(false) => Ok(RouteStep::Yield(job)),
        Err(e) => {
            // The response died mid-stream (write deadline, I/O error):
            // a server-side abort, counted with the 5xx class.
            shared.stats.transform.record(job.started, 500);
            Err(e)
        }
    }
}

/// `mode=stream`: each document runs through the engine's streaming
/// emission — committed output prefixes land in the connection buffer
/// (and from there on the wire) as HTTP chunks *while the document is
/// still being evaluated*, instead of after the whole batch completes.
/// The status line is committed before any document runs, so it is
/// always `200`; failures still appear positionally as `!error:` lines
/// (preceded by a newline when a partial output prefix had already been
/// flushed — inherent to streaming). A client that stops reading trips
/// [`ServeOptions::stream_write_deadline`] and the response is aborted.
///
/// Returns `Ok(true)` when the batch is complete (terminating chunk
/// written), `Ok(false)` when it yielded for a slow client.
fn stream_job_step(
    shared: &Shared,
    job: &mut StreamJob,
    w: &mut ConnWriter<'_>,
) -> io::Result<bool> {
    if !job.head_written {
        let mut headers = vec![
            ("X-Xtt-Docs", job.docs.len().to_string()),
            ("X-Xtt-Streamed", "1".to_owned()),
        ];
        // The head goes out before any document runs, so a streamed
        // response can carry the trace id but not the (not yet
        // measured) stage breakdown — that lands in the slow log.
        if let Some(t) = &job.trace {
            headers.push(("X-Xtt-Trace-Id", t.id_hex()));
        }
        // Head only: dropping the writer (instead of `finish`ing it)
        // leaves the chunked body open, so the job can resume across
        // yields with `ChunkedWriter::resume`.
        let _ = ChunkedWriter::start_conn(&mut *w, 200, "text/plain", &headers, job.keep)?;
        job.head_written = true;
    }
    while job.next < job.docs.len() {
        let doc = &job.docs[job.next];
        let mut writer = ChunkedWriter::resume(&mut *w);
        let mut sink = CountingWriter {
            inner: &mut writer,
            buf: Vec::new(),
            bytes: 0,
        };
        let result = job
            .target
            .request(&job.format, EvalMode::Streaming, job.trace.as_mut())
            .and_then(|req| shared.engine.run_doc(doc, &mut sink, req));
        match result {
            Ok(out) => {
                sink.flush()?;
                shared.stats.bytes_flushed_early.add(out.bytes_written);
                writer.chunk(b"\n")?;
            }
            Err(EngineError::Write { kind, message }) => {
                // The failing writer *is* the client connection: nothing
                // more can be said on it, abort the response.
                if matches!(kind, io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock) {
                    shared.stats.write_timeouts.inc();
                }
                return Err(io::Error::new(kind, message));
            }
            Err(e) => {
                job.failed += 1;
                if matches!(e, EngineError::Type(_)) {
                    job.type_errors += 1;
                }
                // The failed document's partial prefix stays on the
                // wire (same bytes as unbuffered emission).
                sink.flush()?;
                let flushed = sink.bytes;
                shared.stats.bytes_flushed_early.add(flushed);
                let sep = if flushed > 0 { "\n" } else { "" };
                writer.chunk(format!("{sep}!error: {e}\n").as_bytes())?;
            }
        }
        job.next += 1;
        // Doc-boundary yield: a backed-up client keeps its connection
        // parked in the event loop instead of this worker thread.
        if job.next < job.docs.len() && w.backlog() > w.buffer_capacity() / 2 {
            shared.stats.slow_client_yields.inc();
            return Ok(false);
        }
    }
    ChunkedWriter::resume(&mut *w).finish()?;
    shared.stats.docs_streamed.add(job.docs.len() as u64);
    shared.stats.documents.add(job.docs.len() as u64);
    shared.stats.document_errors.add(job.failed);
    shared.stats.documents_type_errors.add(job.type_errors);
    Ok(true)
}

/// Streamed responses coalesce at this size: the evaluator writes
/// fine-grained pieces (single tags, separators), and framing each as
/// its own HTTP chunk would multiply the wire bytes several-fold.
const STREAM_CHUNK: usize = 4096;

/// Coalesces the evaluator's fine-grained writes into [`STREAM_CHUNK`]ed
/// HTTP chunks (an explicit `flush` drains the remainder at document
/// end) and counts the bytes each document produced, so the stats and
/// the `!error:` line separator know whether a partial prefix is on the
/// wire.
struct CountingWriter<'a, 'b> {
    inner: &'a mut ChunkedWriter<'b>,
    buf: Vec<u8>,
    bytes: u64,
}

impl io::Write for CountingWriter<'_, '_> {
    fn write(&mut self, data: &[u8]) -> io::Result<usize> {
        self.buf.extend_from_slice(data);
        self.bytes += data.len() as u64;
        if self.buf.len() >= STREAM_CHUNK {
            self.flush()?;
        }
        Ok(data.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        if !self.buf.is_empty() {
            self.inner.chunk(&self.buf)?;
            self.buf.clear();
        }
        Ok(())
    }
}

/// `POST /typecheck/{name}`: body is an output schema (a DTTA in term
/// syntax, see `xtt_automata::parse_dtta`); decides
/// `dom(τ) ⊆ τ⁻¹(L(schema))` and answers with a verdict — on failure,
/// with a concrete counterexample input and its schema-violating output.
fn typecheck(shared: &Shared, req: &Request, name: &str) -> (u16, String) {
    let Some(entry) = shared.registry.get(name) else {
        return (404, error_json("unknown transducer"));
    };
    let body = match req.body_str() {
        Ok(b) => b,
        Err(e) => return (400, error_json(&e.to_string())),
    };
    let schema = match xtt_automata::parse_dtta(body) {
        Ok(s) => s,
        Err(e) => return (422, error_json(&format!("bad schema: {e}"))),
    };
    shared.stats.typecheck_runs.inc();
    match xtt_typecheck::output_typecheck(&entry.dtop, None, &schema) {
        xtt_typecheck::TypecheckVerdict::WellTyped => (
            200,
            format!("{{\"name\":\"{}\",\"ok\":true}}\n", escape_json(name)),
        ),
        xtt_typecheck::TypecheckVerdict::Counterexample { input, output } => {
            shared.stats.typecheck_ill_typed.inc();
            (
                200,
                format!(
                    "{{\"name\":\"{}\",\"ok\":false,\"counterexample\":\"{}\",\"counterexample_output\":\"{}\"}}\n",
                    escape_json(name),
                    escape_json(&input.to_string()),
                    escape_json(&output.to_string()),
                ),
            )
        }
    }
}

/// Parses the `?validate=` / `?learn=`-style boolean query values.
fn parse_bool(value: &str) -> Option<bool> {
    match value {
        "1" | "true" => Some(true),
        "0" | "false" => Some(false),
        _ => None,
    }
}

fn optional<T>(
    value: Option<&str>,
    parse: impl Fn(&str) -> Option<T>,
) -> Result<Option<T>, String> {
    match value {
        None => Ok(None),
        Some(v) => parse(v).map(Some).ok_or_else(|| v.to_owned()),
    }
}

fn bad_param(
    shared: &Shared,
    w: &mut ConnWriter<'_>,
    started: Instant,
    param: &str,
    value: &str,
    keep: bool,
) -> io::Result<RouteStep> {
    let r = write_response_conn(
        w,
        400,
        "application/json",
        &[],
        error_json(&format!("bad {param}: {value}")).as_bytes(),
        keep,
    );
    shared.stats.transform.record(started, 400);
    r.map(|()| RouteStep::Done { keep })
}

impl Shared {
    fn stats_json(&self) -> String {
        self.stats.json(
            self.engine.cache_stats(),
            self.engine.validation_stats(),
            self.engine.skipped_subtrees(),
            self.registry.len(),
            self.encodings.len(),
            self.pipelines.len(),
            self.pipelines.plan_cache_stats(),
            self.queue.capacity(),
        )
    }

    /// The Prometheus text exposition: sync the externally owned values
    /// into their gauges, then render the registry — the same atomics
    /// `/stats` reads.
    fn metrics_text(&self) -> String {
        self.stats.sync_external(
            self.engine.cache_stats(),
            self.engine.validation_stats(),
            self.engine.skipped_subtrees(),
            self.registry.len(),
            self.encodings.len(),
            self.pipelines.len(),
            self.pipelines.plan_cache_stats(),
            self.queue.capacity(),
        );
        self.stats.metrics.render_prometheus()
    }
}

fn error_json(message: &str) -> String {
    format!("{{\"error\":\"{}\"}}\n", escape_json(message))
}
