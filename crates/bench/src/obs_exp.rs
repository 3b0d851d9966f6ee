//! E16 — observability overhead: what does `--trace-sample 1` cost?
//!
//! Two identical in-process servers answer the same E14-style
//! baseline_fresh workload, one with tracing disabled (`trace_sample:
//! 0`, the default no-observer path) and one tracing **every** request
//! (`trace_sample: 1`, the worst case). Requests alternate between the
//! two servers, and so does which of them goes first, so clock drift,
//! turbo state, page-cache warmth and other tenants' load hit both
//! configurations equally; the gate reads the median over rounds of the
//! traced server's slowdown in the same round, which a single noisy
//! round cannot move.
//!
//! The run also fetches one traced response and reconstructs the stage
//! breakdown from its `Server-Timing` header — proving the tracing
//! plumbing end-to-end (id header present, every expected pipeline
//! stage named, durations parse and sum to something non-trivial).
//!
//! Shared by the `exp_e16_obs` binary, which writes `BENCH_obs.json`
//! and enforces the ≤ 3 % overhead gate in CI.

use std::time::{Duration, Instant};

use serde::Serialize;
use xtt_obs::Histogram;
use xtt_serve::{ServeClient, ServeOptions, Server};
use xtt_transducer::examples;

use crate::serve_exp::{peak_rss_kb, request_body, stat_u64};

/// Knobs for the E16 A/B run (debug tests use a tiny version).
pub struct E16Options {
    /// Request worker threads per server.
    pub workers: usize,
    /// Measured rounds.
    pub rounds: usize,
    /// Request pairs (one request to each server) per round.
    pub requests_per_round: usize,
    /// Documents per transform request.
    pub docs_per_request: usize,
}

impl Default for E16Options {
    fn default() -> E16Options {
        E16Options {
            workers: 4,
            rounds: 41,
            requests_per_round: 60,
            docs_per_request: 20,
        }
    }
}

/// One configuration's aggregate over all its rounds.
#[derive(Debug, Clone, Serialize)]
pub struct ObsRow {
    pub config: &'static str,
    /// The server's `--trace-sample` setting (0 = tracing off).
    pub trace_sample: u64,
    pub requests: u64,
    pub errors: u64,
    pub docs: u64,
    pub elapsed_millis: u128,
    /// Throughput over the lane's summed request latency.
    pub docs_per_sec: f64,
    /// Median of the per-round throughputs.
    pub median_round_docs_per_sec: f64,
    /// Throughput in each round, in round order — the gate compares the
    /// two lanes round by round.
    pub round_docs_per_sec: Vec<f64>,
    pub p50_micros: u64,
    pub p99_micros: u64,
    pub p999_micros: u64,
    pub max_micros: u64,
    /// `tracing.traces_sampled` from the server's own /stats.
    pub traces_sampled: u64,
    pub peak_rss_kb: u64,
}

/// The reconstructed stage breakdown of one traced response.
#[derive(Debug, Clone, Serialize)]
pub struct StageCheck {
    /// `X-Xtt-Trace-Id` value (16 hex digits).
    pub trace_id: String,
    /// `(stage, milliseconds)` parsed from `Server-Timing`, in
    /// pipeline order.
    pub stages: Vec<(String, f64)>,
    /// Sum of the stage durations, ms.
    pub stage_sum_ms: f64,
}

struct Lane {
    config: &'static str,
    trace_sample: u64,
    client: ServeClient,
    runner: std::thread::JoinHandle<std::io::Result<()>>,
    latency: Histogram,
    round_rates: Vec<f64>,
    errors: u64,
    docs: u64,
    elapsed: Duration,
}

fn boot_lane(config: &'static str, trace_sample: u64, workers: usize) -> Lane {
    let server = Server::bind(
        "127.0.0.1:0",
        ServeOptions {
            workers,
            queue_capacity: 256,
            trace_sample,
            // Keep the slow log out of the measurement: E16 times the
            // happy path, not stderr formatting.
            slow_request: Duration::ZERO,
            ..ServeOptions::default()
        },
    )
    .expect("bind ephemeral");
    let addr = server.local_addr().expect("bound address");
    let runner = std::thread::spawn(move || server.run());
    let client = ServeClient::new(addr)
        .expect("resolve address")
        .with_timeout(Duration::from_secs(30));
    assert!(client.wait_ready(Duration::from_secs(5)), "server not up");
    client
        .put_transducer("flip", &examples::flip().dtop.to_string())
        .expect("upload flip");
    Lane {
        config,
        trace_sample,
        client,
        runner,
        latency: Histogram::new(),
        round_rates: Vec::new(),
        errors: 0,
        docs: 0,
        elapsed: Duration::ZERO,
    }
}

/// One measured round: `requests` pairs of sequential requests, one to
/// each lane, the lane that goes first alternating from pair to pair. A
/// lane's round rate is its documents over its own requests' summed
/// latency, so both rates cover the same stretch of wall time and a
/// slow spell on the host lands on both.
fn round(lanes: [&mut Lane; 2], body: &str, requests: usize, docs_per_request: usize) {
    let mut spent = [Duration::ZERO; 2];
    let mut docs = [0u64; 2];
    for i in 0..requests {
        for k in [i % 2, 1 - i % 2] {
            let lane = &mut *lanes[k];
            let r0 = Instant::now();
            let ok = matches!(
                lane.client.request("POST", "/transform/flip", body),
                Ok(resp) if resp.status == 200
            );
            let took = r0.elapsed();
            spent[k] += took;
            if ok {
                lane.latency.record(took.as_micros() as u64);
                docs[k] += docs_per_request as u64;
            } else {
                lane.errors += 1;
            }
        }
    }
    for (k, lane) in lanes.into_iter().enumerate() {
        lane.docs += docs[k];
        lane.elapsed += spent[k];
        lane.round_rates
            .push(docs[k] as f64 / spent[k].as_secs_f64().max(1e-9));
    }
}

fn median(rates: &[f64]) -> f64 {
    let mut sorted = rates.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

fn finish_lane(lane: Lane) -> ObsRow {
    let stats = lane.client.stats().expect("stats").body_str();
    let traces_sampled = stat_u64(&stats, "traces_sampled");
    lane.client.shutdown().expect("shutdown");
    lane.runner
        .join()
        .expect("server thread")
        .expect("server exits");
    let snap = lane.latency.snapshot();
    ObsRow {
        config: lane.config,
        trace_sample: lane.trace_sample,
        requests: snap.count() + lane.errors,
        errors: lane.errors,
        docs: lane.docs,
        elapsed_millis: lane.elapsed.as_millis(),
        docs_per_sec: lane.docs as f64 / lane.elapsed.as_secs_f64().max(1e-9),
        median_round_docs_per_sec: median(&lane.round_rates),
        round_docs_per_sec: lane.round_rates,
        p50_micros: snap.p50(),
        p99_micros: snap.p99(),
        p999_micros: snap.p999(),
        max_micros: snap.max(),
        traces_sampled,
        peak_rss_kb: peak_rss_kb(),
    }
}

/// Fetches one traced response and reconstructs the stage breakdown
/// from its headers. Panics if the tracing plumbing is broken.
fn stage_check(lane: &Lane, body: &str) -> StageCheck {
    let resp = lane
        .client
        .request("POST", "/transform/flip", body)
        .expect("traced request");
    assert_eq!(resp.status, 200, "traced request failed");
    let trace_id = resp
        .header("x-xtt-trace-id")
        .expect("traced response missing X-Xtt-Trace-Id")
        .to_owned();
    assert_eq!(trace_id.len(), 16, "trace id not 16 hex digits: {trace_id}");
    assert!(
        trace_id.bytes().all(|b| b.is_ascii_hexdigit()),
        "trace id not hex: {trace_id}"
    );
    let timing = resp
        .header("server-timing")
        .expect("traced response missing Server-Timing");
    // `tokenize;dur=0.123, eval;dur=1.200, emit;dur=0.050`
    let stages: Vec<(String, f64)> = timing
        .split(", ")
        .map(|entry| {
            let (name, dur) = entry
                .split_once(";dur=")
                .unwrap_or_else(|| panic!("unparseable Server-Timing entry '{entry}'"));
            let ms: f64 = dur
                .parse()
                .unwrap_or_else(|_| panic!("bad duration in '{entry}'"));
            (name.to_owned(), ms)
        })
        .collect();
    let names: Vec<&str> = stages.iter().map(|(n, _)| n.as_str()).collect();
    // Term-format, unvalidated flip: tokenize → eval → emit (no ranked
    // encoding, no guard). All three must be present, in order.
    assert_eq!(
        names,
        ["tokenize", "eval", "emit"],
        "unexpected stage breakdown in Server-Timing: {timing}"
    );
    let stage_sum_ms: f64 = stages.iter().map(|(_, ms)| ms).sum();
    assert!(
        stages.iter().all(|(_, ms)| *ms >= 0.0),
        "negative stage duration: {timing}"
    );
    StageCheck {
        trace_id,
        stages,
        stage_sum_ms,
    }
}

/// Runs the interleaved A/B grid plus the stage-breakdown check.
pub fn run_e16(opts: &E16Options) -> (Vec<ObsRow>, StageCheck) {
    let body = request_body(opts.docs_per_request);
    let mut untraced = boot_lane("untraced", 0, opts.workers);
    let mut traced = boot_lane("traced_every", 1, opts.workers);

    // Warm both lanes (compile cache, page tables) outside the clock.
    round(
        [&mut untraced, &mut traced],
        &body,
        5,
        opts.docs_per_request,
    );
    untraced.round_rates.clear();
    traced.round_rates.clear();

    for _ in 0..opts.rounds {
        round(
            [&mut untraced, &mut traced],
            &body,
            opts.requests_per_round,
            opts.docs_per_request,
        );
    }

    let check = stage_check(&traced, &body);
    let rows = vec![finish_lane(untraced), finish_lane(traced)];
    for r in &rows {
        assert_eq!(r.errors, 0, "{}: {} failed requests", r.config, r.errors);
        assert!(r.docs > 0, "{}: no documents served", r.config);
    }
    let traced_row = &rows[1];
    // Every transform request against the traced lane is 1-in-1 sampled
    // (warmup + measured rounds + the stage check).
    assert!(
        traced_row.traces_sampled >= traced_row.requests,
        "traced lane sampled {} of {} requests",
        traced_row.traces_sampled,
        traced_row.requests
    );
    let untraced_row = &rows[0];
    assert_eq!(
        untraced_row.traces_sampled, 0,
        "untraced lane sampled traces"
    );
    (rows, check)
}

/// Tracing overhead as a fraction (0.03 = traced is 3 % slower): the
/// median over rounds of how much slower the traced lane ran than the
/// untraced one in the same round. Pairing by round keeps the host's
/// drift between rounds out of the comparison. Negative means traced
/// measured faster (pure noise — the gate treats it as zero overhead).
pub fn overhead(rows: &[ObsRow]) -> f64 {
    let untraced = rows.iter().find(|r| r.trace_sample == 0).expect("untraced");
    let traced = rows.iter().find(|r| r.trace_sample != 0).expect("traced");
    let per_round: Vec<f64> = traced
        .round_docs_per_sec
        .iter()
        .zip(&untraced.round_docs_per_sec)
        .map(|(t, u)| 1.0 - t / u.max(1e-9))
        .collect();
    median(&per_round)
}

/// Renders the E16 table.
pub fn print_e16(rows: &[ObsRow]) {
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.config.to_string(),
                r.trace_sample.to_string(),
                r.requests.to_string(),
                r.errors.to_string(),
                r.docs.to_string(),
                format!("{:.0}", r.docs_per_sec),
                format!("{:.0}", r.median_round_docs_per_sec),
                r.p50_micros.to_string(),
                r.p99_micros.to_string(),
                r.p999_micros.to_string(),
                r.max_micros.to_string(),
                r.traces_sampled.to_string(),
            ]
        })
        .collect();
    crate::print_table(
        &[
            "config",
            "sample",
            "reqs",
            "errs",
            "docs",
            "docs/s",
            "med docs/s",
            "p50_us",
            "p99_us",
            "p999_us",
            "max_us",
            "traces",
        ],
        &table,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Debug-scale E16: the in-run asserts (zero errors, every traced
    /// request sampled, Server-Timing reconstructs tokenize/eval/emit)
    /// are the test. The 3 % gate is NOT applied here — debug builds
    /// are far too noisy — only in the release binary.
    #[test]
    fn e16_traces_every_request_and_reconstructs_the_stage_breakdown() {
        let (rows, check) = run_e16(&E16Options {
            workers: 2,
            rounds: 2,
            requests_per_round: 5,
            docs_per_request: 4,
        });
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].config, "untraced");
        assert_eq!(rows[1].config, "traced_every");
        assert_eq!(check.stages.len(), 3);
        assert!(check.stage_sum_ms >= 0.0);
        assert!(overhead(&rows).is_finite());
    }
}
