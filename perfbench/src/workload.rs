//! The three workloads, the untraced run that yields the end-to-end
//! metrics, and the traced run that yields the per-layer metrics and the
//! waterfall.

use std::net::SocketAddr;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use xtt_transducer::examples;

use crate::child::Server;
use crate::gen::{self, BulkInputs, LearnTarget, Scale, TermRequest};
use crate::http::Conn;
use crate::layers;
use crate::load::{self, Tally, Window, SLICE_S};
use crate::metrics::{Delta, Snapshot};
use crate::stats::{mean, quantile};

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Bulk,
    Term,
    Learn,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "xml_stream_bulk" => Some(Workload::Bulk),
            "term_small_batches" => Some(Workload::Term),
            "learn_beside_reads" => Some(Workload::Learn),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::Bulk => "xml_stream_bulk",
            Workload::Term => "term_small_batches",
            Workload::Learn => "learn_beside_reads",
        }
    }
}

pub struct Run {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: Duration,
    pub scale: Scale,
    pub bin: PathBuf,
}

impl Run {
    fn tiny(&self) -> bool {
        self.scale == Scale::Tiny
    }
}

pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, &'static str, f64)>,
    pub errors: Vec<String>,
}

struct Inputs {
    /// The bulk corpus: the load of `xml_stream_bulk`, and the XML layers'
    /// replay input in every traced run.
    bulk: Option<BulkInputs>,
    /// `term_small_batches` requests, or the `flip`-only reader stream.
    term: Vec<TermRequest>,
    /// The `term_small_batches` mix, the term layers' replay input in every
    /// traced run.
    term_mix: Vec<TermRequest>,
    targets: Vec<LearnTarget>,
}

/// Generates every input before any server starts (on a thread with a
/// large stack: the reference evaluator recurses on tree depth). A traced
/// run also generates every layer family's replay input, so each
/// per-layer metric is measured on every workload.
fn generate(run: &Run, traced: bool) -> Inputs {
    let (workload, seed, scale) = (run.workload, run.seed, run.scale);
    std::thread::Builder::new()
        .stack_size(256 << 20)
        .spawn(move || {
            let t0 = Instant::now();
            let count = if scale == Scale::Tiny { 12 } else { 192 };
            let inputs = Inputs {
                bulk: (traced || workload == Workload::Bulk).then(|| gen::bulk(seed, scale)),
                term: match workload {
                    Workload::Bulk => Vec::new(),
                    Workload::Term => gen::term_requests(seed, count, false),
                    Workload::Learn => gen::term_requests(seed, count, true),
                },
                term_mix: if traced {
                    gen::term_requests(seed, count, false)
                } else {
                    Vec::new()
                },
                targets: gen::learn_targets(seed, scale),
            };
            if let Some(b) = &inputs.bulk {
                eprintln!(
                    "bulk corpus: {} docs of {}..{} bytes, {:.1} % of bytes deleted, {:.1} % out of domain, {} request bodies of ~{} KB ({:.1} s to generate)",
                    b.docs.len(),
                    b.doc_bytes_min,
                    b.doc_bytes_max,
                    100.0 * b.deleted_share,
                    100.0 * b.rejected_share,
                    b.requests.len(),
                    b.requests[0].body.len() >> 10,
                    t0.elapsed().as_secs_f64()
                );
            }
            inputs
        })
        .expect("spawn generator")
        .join()
        .expect("input generation panicked")
}

fn put(conn: &mut Conn, path: &str, body: &str) -> Result<(), String> {
    let resp = conn
        .request("PUT", path, body.as_bytes())
        .map_err(|e| format!("PUT {path}: {e}"))?;
    if resp.status != 201 {
        return Err(format!(
            "PUT {path}: status {}: {}",
            resp.status,
            resp.text()
        ));
    }
    Ok(())
}

/// Registers the workload's targets.
fn register(addr: SocketAddr, workload: Workload, inputs: &Inputs) -> Result<(), String> {
    let mut conn = Conn::new(addr);
    match workload {
        Workload::Bulk => {
            let text = &inputs.bulk.as_ref().expect("bulk inputs").dtop_text;
            put(&mut conn, "/transducers/bulk", text)
        }
        Workload::Term => {
            put(
                &mut conn,
                "/transducers/flip",
                &examples::flip().dtop.to_string(),
            )?;
            put(
                &mut conn,
                "/transducers/library",
                &examples::library().dtop.to_string(),
            )?;
            put(&mut conn, "/transducers/unflip", gen::unflip_dtop_text())?;
            put(
                &mut conn,
                &format!("/pipelines/{}", gen::PIPELINE),
                "flip,unflip\n",
            )
        }
        Workload::Learn => put(
            &mut conn,
            "/transducers/flip",
            &examples::flip().dtop.to_string(),
        ),
    }
}

/// Spawn → `/healthz` ok → targets registered; returns the server and the
/// set-up time in seconds.
fn start(run: &Run, inputs: &Inputs, extra: &[&str]) -> Result<(Server, f64), String> {
    let t0 = Instant::now();
    let server = Server::spawn(&run.bin, extra)?;
    server.wait_healthy()?;
    register(server.addr, run.workload, inputs)?;
    Ok((server, t0.elapsed().as_secs_f64()))
}

/// What one slice of a load segment's measurement window (see
/// [`SLICE_S`]) completed, and what it cost.
struct Slice {
    secs: f64,
    docs: f64,
    bytes: f64,
    learns: f64,
    /// The server's CPU seconds.
    cpu_s: f64,
    /// Share of the machine's CPU time the hypervisor gave to other guests.
    steal: f64,
}

/// What the load segments of one run measured, accumulated.
#[derive(Default)]
struct Load {
    reads: Tally,
    writes: Tally,
    /// Every slice of every segment, in order.
    slices: Vec<Slice>,
    /// Read latencies, each with the index of the slice it completed in.
    read_ms: Vec<(usize, f64)>,
    /// The writer's learn latencies, likewise.
    learn_ms: Vec<(usize, f64)>,
}

/// Steal share at or below which a slice or learn chunk is undisturbed.
const CLEAN_STEAL: f64 = 0.01;

/// Which of the slices (or chunks) with these steal shares a run reads its
/// figures from: the undisturbed ones, or, when fewer than half are, the
/// half with the least steal. On a shared host the hypervisor's steal
/// comes in bursts of a few seconds; a slice it hit measures the host.
fn clean(steals: &[f64]) -> Vec<bool> {
    if steals.is_empty() {
        return Vec::new();
    }
    let limit = crate::stats::median(steals).max(CLEAN_STEAL);
    steals.iter().map(|&s| s <= limit).collect()
}

impl Load {
    fn clean(&self) -> Vec<bool> {
        let steals: Vec<f64> = self.slices.iter().map(|s| s.steal).collect();
        clean(&steals)
    }

    /// The sum of `figure` over the clean slices.
    fn clean_total(&self, figure: impl Fn(&Slice) -> f64) -> f64 {
        self.slices
            .iter()
            .zip(self.clean())
            .filter(|(_, keep)| *keep)
            .map(|(s, _)| figure(s))
            .sum()
    }

    /// A count per second over the clean slices.
    fn rate(&self, count: impl Fn(&Slice) -> f64) -> f64 {
        per(self.clean_total(count), self.clean_total(|s| s.secs))
    }

    /// The samples in `tagged` that completed in a clean slice.
    fn clean_samples(&self, tagged: &[(usize, f64)]) -> Vec<f64> {
        let keep = self.clean();
        tagged
            .iter()
            .filter(|(i, _)| keep[*i])
            .map(|&(_, v)| v)
            .collect()
    }
}

/// The host's ticks (see [`host_ticks`]) and the server's CPU seconds at
/// one instant.
type Mark = (Option<(u64, u64)>, f64);

/// A [`Mark`] at each of the `n + 1` slice boundaries of `window`.
fn sample_slices(window: Window, n: usize, server: &Server) -> Result<Vec<Mark>, String> {
    let len = window.end - window.start;
    (0..=n)
        .map(|k| {
            let at = window.start + len.mul_f64(k as f64 / n as f64);
            if let Some(wait) = at.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            Ok((host_ticks(), server.cpu_seconds()?))
        })
        .collect()
}

/// Completions tagged with the index of the slice they fell in, in
/// completion order; completions after the last slice are left out.
fn tag(t: &Tally, slice_s: f64, n: usize, base: usize) -> Vec<(usize, f64)> {
    let mut order: Vec<usize> = (0..t.done.len()).collect();
    order.sort_by(|&a, &b| t.done[a].at_s.total_cmp(&t.done[b].at_s));
    order
        .into_iter()
        .filter_map(|i| {
            let k = (t.done[i].at_s / slice_s) as usize;
            (k < n).then(|| (base + k, t.latencies_ms[i]))
        })
        .collect()
}

/// One load segment, added to `load`.
fn drive(
    run: &Run,
    inputs: &Inputs,
    server: &Server,
    window: Window,
    load: &mut Load,
) -> Result<(), String> {
    let addr = server.addr;
    let len = (window.end - window.start).as_secs_f64();
    let n = ((len / SLICE_S).round() as usize).max(1);
    let slice_s = len / n as f64;
    std::thread::scope(|s| {
        let sampler = s.spawn(move || sample_slices(window, n, server));
        let (workload, seed) = (run.workload, run.seed);
        let reads = s.spawn(move || match workload {
            Workload::Bulk => {
                load::bulk_loop(addr, window, inputs.bulk.as_ref().expect("bulk inputs"))
            }
            Workload::Term | Workload::Learn => load::term_loop(addr, window, &inputs.term),
        });
        let writes = (workload == Workload::Learn)
            .then(|| s.spawn(move || load::learn_loop(addr, window, &inputs.targets, seed)));
        let read = reads.join().expect("load thread panicked");
        let write = writes
            .map(|h| h.join().expect("load thread panicked"))
            .unwrap_or_default();
        let marks = sampler.join().expect("sampler panicked")?;
        let base = load.slices.len();
        let read_counts = read.slices(slice_s, n);
        let write_counts = write.slices(slice_s, n);
        for k in 0..n {
            let [docs, bytes, _] = read_counts[k];
            let (ticks0, cpu0) = marks[k];
            let (ticks1, cpu1) = marks[k + 1];
            load.slices.push(Slice {
                secs: slice_s,
                docs,
                bytes,
                learns: write_counts[k][2],
                cpu_s: cpu1 - cpu0,
                steal: steal_share(ticks0, ticks1),
            });
        }
        load.read_ms.extend(tag(&read, slice_s, n, base));
        load.learn_ms.extend(tag(&write, slice_s, n, base));
        load.reads.absorb(read);
        load.writes.absorb(write);
        Ok(())
    })
}

/// Steal and total CPU ticks of the whole machine (`/proc/stat`): time the
/// hypervisor gave to other guests shows as steal. Slices it disturbed are
/// left out of the figures (see [`clean`]), and the run's share is reported
/// on stderr so a disturbed run can be told from a regression.
fn host_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

fn steal_share(before: Option<(u64, u64)>, after: Option<(u64, u64)>) -> f64 {
    match (before, after) {
        (Some((s0, t0)), Some((s1, t1))) => per((s1 - s0) as f64, (t1 - t0) as f64),
        _ => 0.0,
    }
}

fn warmup(run: &Run) -> Duration {
    if run.tiny() {
        Duration::from_millis(100)
    } else {
        Duration::from_millis(1000)
    }
}

fn pct(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        quantile(values, q)
    }
}

fn per(n: f64, d: f64) -> f64 {
    if d > 0.0 {
        n / d
    } else {
        0.0
    }
}

/// The untraced run: set up the server to load, then load it for
/// `seconds` in segments; before each segment set up (and shut down) more
/// servers, so the median set-up time spreads over the run. Rates,
/// latencies and CPU per document come from the clean slices (see
/// [`clean`]). Read the child's peak RSS and shut it down.
pub fn untraced(run: &Run) -> Result<Outcome, String> {
    let inputs = generate(run, false);
    let mut errors = Vec::new();
    let (server, t) = start(run, &inputs, &[])?;
    let mut setup_times = vec![t];
    // The load runs in segments. On the read workloads each segment is
    // preceded by a chunk of the learn probe on the otherwise idle server,
    // so both spread over the whole run.
    let segments: u32 = if run.tiny() { 1 } else { 8 };
    let setups_per_segment = if run.tiny() { 1 } else { 2 };
    let (probe_chunks_per_segment, probe_chunk) = if run.tiny() { (1, 5) } else { (2, 50) };
    let mut load = Load::default();
    let mut probe = Tally::default();
    // Each probe chunk's learn latencies, busy seconds and host steal share.
    let mut probe_chunks: Vec<(Vec<f64>, f64, f64)> = Vec::new();
    let host_before = host_ticks();
    for k in 0..segments {
        for _ in 0..setups_per_segment {
            let (extra, t) = start(run, &inputs, &[])?;
            setup_times.push(t);
            if let Err(e) = extra.shutdown() {
                errors.push(e);
            }
        }
        if run.workload != Workload::Learn {
            for _ in 0..probe_chunks_per_segment {
                let first = probe.attempted;
                let ticks = host_ticks();
                let chunk = load::learn_probe(
                    server.addr,
                    &inputs.targets,
                    first..first + probe_chunk,
                    run.seed,
                );
                let steal = steal_share(ticks, host_ticks());
                probe_chunks.push((chunk.latencies_ms.clone(), chunk.busy_s, steal));
                probe.absorb(chunk);
            }
        }
        let warm = if k == 0 { warmup(run) } else { warmup(run) / 4 };
        drive(
            run,
            &inputs,
            &server,
            Window::after_warmup(warm, run.seconds / segments),
            &mut load,
        )?;
    }
    let steal = steal_share(host_before, host_ticks());
    let rss = server.peak_rss_mb();
    if let Err(e) = server.shutdown() {
        errors.push(e);
    }
    let rss = rss?;
    let reads = &load.reads;
    let learns = if run.workload == Workload::Learn {
        &load.writes
    } else {
        &probe
    };
    let attempted = reads.attempted + learns.attempted;
    let failed = reads.failed + learns.failed;
    errors.extend(reads.errors.iter().cloned());
    errors.extend(learns.errors.iter().cloned());
    let learn: [f64; 3] = if run.workload == Workload::Learn {
        let learns = load.clean_samples(&load.learn_ms);
        [mean(&learns), pct(&learns, 0.9), load.rate(|s| s.learns)]
    } else {
        let steals: Vec<f64> = probe_chunks.iter().map(|c| c.2).collect();
        let (mut latencies, mut busy_s) = (Vec::new(), 0.0);
        for ((ms, busy, _), keep) in probe_chunks.iter().zip(clean(&steals)) {
            if keep {
                latencies.extend_from_slice(ms);
                busy_s += busy;
            }
        }
        [
            mean(&latencies),
            pct(&latencies, 0.9),
            per(latencies.len() as f64, busy_s),
        ]
    };
    // Means, not medians, for the typical request and learn: latencies
    // spread over modes whose shares follow the scheduler on a small host
    // (the five learn targets' costs; reads behind a learn or not; bulk
    // answers between 25 and 42 ms). Over ten runs a median on the edge
    // between two modes spread 17-30 %, the mean over the fixed request
    // mix about as little as the throughput, 8-12 %.
    let reads_ms = load.clean_samples(&load.read_ms);
    let metrics = vec![
        ("setup_s", "s", crate::stats::median(&setup_times)),
        ("docs_per_s", "docs/s", load.rate(|s| s.docs)),
        ("input_mb_per_s", "MB/s", load.rate(|s| s.bytes) / 1e6),
        ("latency_mean_ms", "ms", mean(&reads_ms)),
        ("latency_p99_ms", "ms", pct(&reads_ms, 0.99)),
        ("learn_mean_ms", "ms", learn[0]),
        ("learn_p90_ms", "ms", learn[1]),
        ("learns_per_s", "1/s", learn[2]),
        (
            "server_cpu_us_per_doc",
            "us",
            per(
                load.clean_total(|s| s.cpu_s) * 1e6,
                load.clean_total(|s| s.docs),
            ),
        ),
        ("server_peak_rss_mb", "MB", rss),
    ];
    let kept = load.clean().iter().filter(|k| **k).count();
    eprintln!(
        "{}: {} transform requests ({} docs) in {:.2} s, {} learns; set-ups {:?} s; host steal {:.1} % of CPU time; figures from {kept} of {} slices",
        run.workload.name(),
        reads.latencies_ms.len(),
        reads.docs,
        reads.busy_s,
        learns.latencies_ms.len(),
        setup_times,
        100.0 * steal,
        load.slices.len()
    );
    Ok(Outcome {
        correct: failed == 0 && errors.is_empty() && attempted > 0,
        attempted,
        failed,
        metrics,
        errors,
    })
}

/// One row of the waterfall: a layer's self time per request, in µs.
struct Row {
    name: String,
    us: f64,
}

/// The traced run: an untraced and a `--trace-sample 1` server loaded in
/// alternating segments (the docs/s ratio is the tracing overhead), the
/// untraced server's `/metrics` deltas, and the in-process layer replay.
pub fn traced(run: &Run) -> Result<Outcome, String> {
    let inputs = generate(run, true);
    let (plain, _) = start(run, &inputs, &[])?;
    let (sampled, _) = start(run, &inputs, &["--trace-sample", "1"])?;
    let segment = run.seconds / 5;
    let seg_warmup = warmup(run) / 4;
    let before = Snapshot::scrape(plain.addr)?;
    let (mut plain_load, mut sampled_load) = (Load::default(), Load::default());
    for _ in 0..2 {
        drive(
            run,
            &inputs,
            &plain,
            Window::after_warmup(seg_warmup, segment),
            &mut plain_load,
        )?;
        drive(
            run,
            &inputs,
            &sampled,
            Window::after_warmup(seg_warmup, segment),
            &mut sampled_load,
        )?;
    }
    let after = Snapshot::scrape(plain.addr)?;
    let mut errors = Vec::new();
    for server in [plain, sampled] {
        if let Err(e) = server.shutdown() {
            errors.push(e);
        }
    }
    let delta = Delta {
        before: &before,
        after: &after,
    };

    // The in-process replay gets the last fifth of the run: every layer
    // family on its own input, plus (learn workload) the reader's stream
    // for its waterfall.
    let budget = run.seconds / 5;
    let learn = layers::learn_layers(&inputs.targets, budget / 4);
    let replay = (budget - budget / 4) / 2;
    let bulk = layers::bulk_layers(inputs.bulk.as_ref().expect("replay corpus"), replay);
    let (term, reader) = if run.workload == Workload::Learn {
        (
            layers::term_layers(&inputs.term_mix, replay / 2),
            Some(layers::term_layers(&inputs.term, replay / 2)),
        )
    } else {
        (layers::term_layers(&inputs.term_mix, replay), None)
    };
    if !learn.minimal {
        errors.push("a learned dtop does not have min(τ)'s state count".into());
    }

    // Waterfall of one transform request, in µs. Its rows are means, so
    // they add up to the client's mean latency.
    let client_us = mean(&plain_load.reads.latencies_ms) * 1e3;
    let endpoint_us = delta.mean("xtt_endpoint_latency_micros", "endpoint=\"transform\"");
    let queue_us = delta.mean("xtt_queue_wait_micros", "");
    let overhead_us = client_us - endpoint_us - queue_us;
    // Only the layers the workload's requests run are attributed.
    let mut rows = Vec::new();
    if run.workload == Workload::Bulk {
        let reads = &plain_load.reads;
        let mb_per_request = per(reads.body_bytes as f64, reads.latencies_ms.len() as f64) / 1e6;
        for (name, ms) in layers::BULK_LAYERS.iter().zip(bulk) {
            rows.push(Row {
                name: (*name).to_owned(),
                us: ms * mb_per_request * 1e3,
            });
        }
    } else {
        let (t, stream) = match &reader {
            Some(r) => (r, &inputs.term),
            None => (&term, &inputs.term_mix),
        };
        let pipeline_share = per(
            stream.iter().filter(|r| r.target == gen::PIPELINE).count() as f64,
            stream.len() as f64,
        );
        let docs = 4.0;
        for (name, us, share) in [
            ("trees.parse", t.parse_us, 1.0 - pipeline_share),
            (
                "engine.compiled_eval",
                t.compiled_eval_us,
                1.0 - pipeline_share,
            ),
            ("trees.display", t.display_us, 1.0 - pipeline_share),
            ("pipeline.chain", t.chain_us, pipeline_share),
        ] {
            if share > 0.0 {
                rows.push(Row {
                    name: name.to_owned(),
                    us: us * docs * share,
                });
            }
        }
    }
    let layer_sum: f64 = rows.iter().map(|r| r.us).sum();
    let unattributed_us = client_us - layer_sum - queue_us - overhead_us;
    rows.push(Row {
        name: "serve.queue_wait".into(),
        us: queue_us,
    });
    rows.push(Row {
        name: "serve.request_overhead".into(),
        us: overhead_us,
    });
    let largest = rows.iter().map(|r| r.us).fold(0.0, f64::max);
    eprintln!(
        "waterfall {} (mean µs per transform request; client {:.1}, server endpoint {:.1})",
        run.workload.name(),
        client_us,
        endpoint_us
    );
    for r in &rows {
        eprintln!("  {:<28} {:>12.1}", r.name, r.us);
    }
    eprintln!(
        "  {:<28} {:>12.1}{}",
        "layers.unattributed",
        unattributed_us,
        if unattributed_us > largest {
            "   FLAG: residual exceeds the largest layer"
        } else {
            ""
        }
    );
    if run.workload == Workload::Learn {
        let learn_ms = mean(&plain_load.writes.latencies_ms);
        let steps = learn.sample_parse_ms + learn.rpni_ms + learn.compile_ms + learn.guard_ms;
        eprintln!(
            "learn waterfall (mean ms per learn; client {learn_ms:.3}): sample parse {:.3}, rpni {:.3}, compile {:.3}, guard build {:.3}, unattributed {:.3}",
            learn.sample_parse_ms,
            learn.rpni_ms,
            learn.compile_ms,
            learn.guard_ms,
            learn_ms - steps
        );
    }

    let plain_rate = plain_load.rate(|s| s.docs);
    let sampled_rate = sampled_load.rate(|s| s.docs);
    let requests = delta.of("xtt_http_requests_total");
    let hits = delta.of("xtt_engine_cache_hits");
    let misses = delta.of("xtt_engine_cache_misses");
    let metrics = vec![
        ("xml.tokenize_ms_per_mb", "ms/MB", bulk[0]),
        ("unranked.encode_ms_per_mb", "ms/MB", bulk[1]),
        ("typecheck.guard_ms_per_mb", "ms/MB", bulk[2]),
        ("engine.stream_eval_ms_per_mb", "ms/MB", bulk[3]),
        ("engine.emit_ms_per_mb", "ms/MB", bulk[4]),
        (
            "engine.skipped_subtrees_per_doc",
            "count",
            per(
                delta.of("xtt_engine_skipped_subtrees"),
                delta.of("xtt_documents_total"),
            ),
        ),
        (
            "typecheck.rejected_share",
            "ratio",
            per(
                delta.of("xtt_docs_rejected_pre_eval"),
                delta.of("xtt_docs_validated"),
            ),
        ),
        ("trees.parse_us_per_doc", "us", term.parse_us),
        (
            "engine.compiled_eval_us_per_doc",
            "us",
            term.compiled_eval_us,
        ),
        ("trees.display_us_per_doc", "us", term.display_us),
        ("pipeline.chain_us_per_doc", "us", term.chain_us),
        (
            "serve.queue_wait_p50_us",
            "us",
            delta.quantile("xtt_queue_wait_micros", 0.5),
        ),
        (
            "netio.epoll_wakeups_per_request",
            "count",
            per(delta.of("xtt_epoll_wakeups_total"), requests),
        ),
        (
            "serve.worker_handoffs_per_request",
            "count",
            per(delta.of("xtt_worker_handoffs_total"), requests),
        ),
        ("engine.cache_hit_ratio", "ratio", per(hits, hits + misses)),
        ("trees.sample_parse_ms", "ms", learn.sample_parse_ms),
        ("core.rpni_ms", "ms", learn.rpni_ms),
        ("engine.compile_ms", "ms", learn.compile_ms),
        ("typecheck.guard_build_ms", "ms", learn.guard_ms),
        ("core.sample_nodes", "count", learn.sample_nodes),
        ("core.learned_states", "count", learn.learned_states),
        ("serve.endpoint_us", "us", endpoint_us),
        ("serve.request_overhead_us", "us", overhead_us),
        ("layers.unattributed_us", "us", unattributed_us),
        (
            "obs.trace_overhead_pct",
            "%",
            100.0 * per(plain_rate - sampled_rate, plain_rate),
        ),
    ];
    let tallies = [
        &plain_load.reads,
        &plain_load.writes,
        &sampled_load.reads,
        &sampled_load.writes,
    ];
    let attempted: u64 = tallies.iter().map(|t| t.attempted).sum();
    let failed: u64 = tallies.iter().map(|t| t.failed).sum();
    for t in tallies {
        errors.extend(t.errors.iter().cloned());
    }
    Ok(Outcome {
        correct: failed == 0 && errors.is_empty() && attempted > 0,
        attempted,
        failed,
        metrics,
        errors,
    })
}
