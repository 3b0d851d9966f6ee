//! E14 — `xtt-load`: serving-traffic benchmark against the epoll front
//! end of `xtt-serve`.
//!
//! Three scenarios against an in-process server on an ephemeral port:
//!
//! * **baseline_fresh** — sequential transform requests with nothing
//!   else connected: the per-request floor the gate compares against.
//! * **idle_heavy** — the scenario the thread-per-connection design
//!   could not complete: hundreds of mostly-idle keep-alive connections
//!   (each made one real request, then parked) in front of a handful of
//!   workers, while fresh requests keep arriving. Parked connections
//!   hold an epoll registration, not a thread, so fresh traffic must
//!   still be served at (near-)baseline throughput — the in-run asserts
//!   pin the army actually being parked, and the binary gates p50/p99
//!   against the baseline.
//! * **pipelined** — N connections each writing batches of pipelined
//!   requests (mixed transform + stats) back-to-back before reading the
//!   responses: keep-alive reuse and head-of-line behavior under real
//!   concurrency.
//!
//! Latency is recorded per request into an [`xtt_obs::Histogram`] (for
//! pipelined batches: batch wall time divided by depth), reported as
//! p50/p99/p999/max; `peak_rss_kb` is the
//! process-wide `VmHWM` (server + load generator share the process — a
//! scaling indicator, not an isolated server figure). Shared by the
//! `exp_e14_serve` binary, which writes `BENCH_serve.json` and enforces
//! the CI gate.

use std::io::Write as _;
use std::net::TcpStream;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use serde::Serialize;
use xtt_obs::Histogram;
use xtt_serve::{ServeClient, ServeOptions, Server};
use xtt_transducer::examples;

/// Knobs for the E14 grid (debug tests run a tiny version).
pub struct E14Options {
    /// Mostly-idle keep-alive connections in the idle-heavy scenario.
    pub idle_connections: usize,
    /// Workers serving in front of the idle army.
    pub idle_workers: usize,
    /// Fresh requests measured per scenario.
    pub fresh_requests: usize,
    /// Concurrent connections in the pipelined scenario.
    pub pipeline_connections: usize,
    /// Pipelined request batches per connection.
    pub pipeline_rounds: usize,
    /// Requests written back-to-back per batch.
    pub pipeline_depth: usize,
    /// Documents per transform request.
    pub docs_per_request: usize,
}

impl Default for E14Options {
    fn default() -> E14Options {
        E14Options {
            idle_connections: 512,
            idle_workers: 8,
            fresh_requests: 200,
            pipeline_connections: 32,
            pipeline_rounds: 8,
            pipeline_depth: 8,
            docs_per_request: 20,
        }
    }
}

/// One measured scenario of E14.
#[derive(Debug, Clone, Serialize)]
pub struct ServeRow {
    pub scenario: &'static str,
    /// Connections open against the server during the measurement
    /// (idle army + the measuring client, or the pipelined fleet).
    pub connections: usize,
    pub workers: usize,
    pub requests: u64,
    pub errors: u64,
    pub docs: u64,
    pub elapsed_millis: u128,
    pub docs_per_sec: f64,
    pub p50_micros: u64,
    pub p99_micros: u64,
    pub p999_micros: u64,
    pub max_micros: u64,
    /// `event_loop.parked_idle` observed during the scenario (0 where
    /// not applicable).
    pub parked_idle: u64,
    /// Process-wide peak RSS (`VmHWM`) after the scenario.
    pub peak_rss_kb: u64,
}

fn boot(opts: ServeOptions) -> (ServeClient, std::thread::JoinHandle<std::io::Result<()>>) {
    let server = Server::bind("127.0.0.1:0", opts).expect("bind ephemeral");
    let addr = server.local_addr().expect("bound address");
    let runner = std::thread::spawn(move || server.run());
    let client = ServeClient::new(addr)
        .expect("resolve address")
        .with_timeout(Duration::from_secs(30));
    assert!(client.wait_ready(Duration::from_secs(5)), "server not up");
    client
        .put_transducer("flip", &examples::flip().dtop.to_string())
        .expect("upload flip");
    (client, runner)
}

/// Process-wide peak resident set (`VmHWM` in /proc/self/status), kB.
pub fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse().ok())
        })
        .unwrap_or(0)
}

pub(crate) fn stat_u64(json: &str, key: &str) -> u64 {
    json.split(&format!("\"{key}\":"))
        .nth(1)
        .and_then(|s| s.split(|c: char| !c.is_ascii_digit()).next())
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

/// The transform request body: `docs` flip inputs, one per line.
pub(crate) fn request_body(docs: usize) -> String {
    let doc = examples::flip_input(3, 2).to_string();
    let mut body = String::with_capacity((doc.len() + 1) * docs);
    for _ in 0..docs {
        body.push_str(&doc);
        body.push('\n');
    }
    body
}

/// Raw measurements of one scenario, before aggregation. Latencies land
/// in the same lock-free log₂ histogram `xtt-serve` itself reports from,
/// so the benchmark quantiles and the server's `/metrics` quantiles are
/// computed by one implementation.
struct Measured {
    latency: Histogram,
    errors: u64,
    docs: u64,
    elapsed: Duration,
}

/// Sequential fresh requests through `client`, one latency sample each.
fn fresh_loop(client: &ServeClient, requests: usize, docs: usize) -> Measured {
    let body = request_body(docs);
    let t0 = Instant::now();
    let latency = Histogram::new();
    let mut errors = 0u64;
    let mut answered = 0u64;
    for _ in 0..requests {
        let t0 = Instant::now();
        match client.request("POST", "/transform/flip", &body) {
            Ok(resp) if resp.status == 200 => {
                latency.record(t0.elapsed().as_micros() as u64);
                answered += docs as u64;
            }
            Ok(_) | Err(_) => errors += 1,
        }
    }
    Measured {
        latency,
        errors,
        docs: answered,
        elapsed: t0.elapsed(),
    }
}

fn finish(
    scenario: &'static str,
    connections: usize,
    workers: usize,
    m: Measured,
    parked_idle: u64,
) -> ServeRow {
    let Measured {
        latency,
        errors,
        docs,
        elapsed,
    } = m;
    let snap = latency.snapshot();
    let secs = elapsed.as_secs_f64().max(1e-9);
    ServeRow {
        scenario,
        connections,
        workers,
        requests: snap.count() + errors,
        errors,
        docs,
        elapsed_millis: elapsed.as_millis(),
        docs_per_sec: docs as f64 / secs,
        p50_micros: snap.p50(),
        p99_micros: snap.p99(),
        p999_micros: snap.p999(),
        max_micros: snap.max(),
        parked_idle,
        peak_rss_kb: peak_rss_kb(),
    }
}

/// Scenario 1: fresh requests with nothing else connected.
fn run_baseline(opts: &E14Options) -> ServeRow {
    let (client, runner) = boot(ServeOptions {
        workers: opts.idle_workers,
        queue_capacity: 256,
        ..ServeOptions::default()
    });
    let measured = fresh_loop(&client, opts.fresh_requests, opts.docs_per_request);
    client.shutdown().expect("shutdown");
    runner.join().expect("server thread").expect("server exits");
    finish("baseline_fresh", 1, opts.idle_workers, measured, 0)
}

/// Scenario 2 (the gate): an army of parked keep-alive connections in
/// front of few workers; fresh requests must still be served promptly.
fn run_idle_heavy(opts: &E14Options) -> ServeRow {
    let (client, runner) = boot(ServeOptions {
        workers: opts.idle_workers,
        queue_capacity: 256,
        // The army must outlive the measurement.
        keep_alive_timeout: Duration::from_secs(300),
        ..ServeOptions::default()
    });

    // Park the army: one real request each, then silence.
    let body = request_body(1);
    let head = format!(
        "POST /transform/flip HTTP/1.1\r\nHost: load\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    let mut army = Vec::with_capacity(opts.idle_connections);
    for i in 0..opts.idle_connections {
        let mut conn = TcpStream::connect(client.addr()).expect("connect soldier");
        conn.set_read_timeout(Some(Duration::from_secs(30)))
            .expect("read timeout");
        conn.write_all(head.as_bytes()).expect("write head");
        conn.write_all(body.as_bytes()).expect("write body");
        let resp = xtt_serve::http::read_response(&mut conn)
            .unwrap_or_else(|e| panic!("soldier {i}: {e}"));
        assert_eq!(resp.status, 200, "soldier {i} got {}", resp.status);
        army.push(conn);
    }

    // The army must actually be *parked* (gauges update once per tick).
    let deadline = Instant::now() + Duration::from_secs(10);
    let parked = loop {
        let json = client.stats().expect("stats").body_str();
        let parked = stat_u64(&json, "parked_idle");
        if parked >= opts.idle_connections as u64 {
            break parked;
        }
        assert!(
            Instant::now() < deadline,
            "idle army never parked: {parked}/{} in {json}",
            opts.idle_connections
        );
        std::thread::sleep(Duration::from_millis(25));
    };

    let measured = fresh_loop(&client, opts.fresh_requests, opts.docs_per_request);
    drop(army);
    client.shutdown().expect("shutdown");
    runner.join().expect("server thread").expect("server exits");
    finish(
        "idle_heavy",
        opts.idle_connections + 1,
        opts.idle_workers,
        measured,
        parked,
    )
}

/// Scenario 3: concurrent connections, pipelined mixed batches.
fn run_pipelined(opts: &E14Options) -> ServeRow {
    let (client, runner) = boot(ServeOptions {
        workers: opts.idle_workers,
        queue_capacity: 256,
        ..ServeOptions::default()
    });

    let body = request_body(opts.docs_per_request);
    let transform = format!(
        "POST /transform/flip HTTP/1.1\r\nHost: load\r\nContent-Length: {}\r\n\r\n{}",
        body.len(),
        body
    );
    let stats = "GET /stats HTTP/1.1\r\nHost: load\r\nContent-Length: 0\r\n\r\n".to_owned();

    // Every connection thread records straight into the shared
    // lock-free histogram; only the error/doc tallies need the mutex.
    let latency = Arc::new(Histogram::new());
    let results: Arc<Mutex<(u64, u64)>> = Arc::new(Mutex::new((0u64, 0u64)));
    let t0 = Instant::now();
    let mut threads = Vec::with_capacity(opts.pipeline_connections);
    for _ in 0..opts.pipeline_connections {
        let addr = client.addr();
        let transform = transform.clone();
        let stats = stats.clone();
        let latency = Arc::clone(&latency);
        let results = Arc::clone(&results);
        let (rounds, depth, docs_per_request) = (
            opts.pipeline_rounds,
            opts.pipeline_depth,
            opts.docs_per_request,
        );
        threads.push(std::thread::spawn(move || {
            let mut conn = TcpStream::connect(addr).expect("connect pipeline");
            conn.set_read_timeout(Some(Duration::from_secs(30)))
                .expect("read timeout");
            let (mut errs, mut docs) = (0u64, 0u64);
            // The server answers pipelined batches back-to-back, so one
            // read can pull in the start of the next response: `carry`
            // keeps those bytes for the next parse.
            let mut carry = Vec::new();
            for _ in 0..rounds {
                // Write the whole batch back-to-back, then read all the
                // responses: every 8th slot is a stats request.
                let batch = Instant::now();
                for i in 0..depth {
                    let req = if i % 8 == 7 { &stats } else { &transform };
                    conn.write_all(req.as_bytes()).expect("write pipelined");
                }
                for i in 0..depth {
                    match xtt_serve::http::read_response_carry(&mut conn, &mut carry) {
                        Ok(resp) if resp.status == 200 => {
                            if i % 8 != 7 {
                                docs += docs_per_request as u64;
                            }
                        }
                        Ok(_) | Err(_) => errs += 1,
                    }
                }
                let per_request = (batch.elapsed().as_micros() / depth as u128) as u64;
                for _ in 0..depth {
                    latency.record(per_request);
                }
            }
            let mut shared = results.lock().expect("results lock");
            shared.0 += errs;
            shared.1 += docs;
        }));
    }
    for t in threads {
        t.join().expect("pipeline thread");
    }
    let elapsed = t0.elapsed();
    let (errors, docs) = *results.lock().expect("results lock");
    let latency = Arc::try_unwrap(latency).unwrap_or_else(|_| panic!("threads joined"));
    let measured = Measured {
        latency,
        errors,
        docs,
        elapsed,
    };
    client.shutdown().expect("shutdown");
    runner.join().expect("server thread").expect("server exits");
    finish(
        "pipelined",
        opts.pipeline_connections,
        opts.idle_workers,
        measured,
        0,
    )
}

/// Runs the E14 grid with in-run asserts (no request errors anywhere;
/// the idle army really parked). The throughput/latency gate lives in
/// the `exp_e14_serve` binary, which has the baseline row to compare
/// against.
pub fn run_e14(opts: &E14Options) -> Vec<ServeRow> {
    let rows = vec![
        run_baseline(opts),
        run_idle_heavy(opts),
        run_pipelined(opts),
    ];
    for r in &rows {
        assert_eq!(r.errors, 0, "{}: {} failed requests", r.scenario, r.errors);
        assert!(r.docs > 0, "{}: no documents served", r.scenario);
    }
    let idle = rows
        .iter()
        .find(|r| r.scenario == "idle_heavy")
        .expect("idle row");
    assert!(
        idle.parked_idle >= opts.idle_connections as u64,
        "idle army not parked: {} of {}",
        idle.parked_idle,
        opts.idle_connections
    );
    rows
}

/// Renders the E14 table.
pub fn print_e14(rows: &[ServeRow]) {
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.scenario.to_string(),
                r.connections.to_string(),
                r.workers.to_string(),
                r.requests.to_string(),
                r.errors.to_string(),
                r.docs.to_string(),
                format!("{:.0}", r.docs_per_sec),
                r.p50_micros.to_string(),
                r.p99_micros.to_string(),
                r.p999_micros.to_string(),
                r.max_micros.to_string(),
                r.parked_idle.to_string(),
                r.peak_rss_kb.to_string(),
            ]
        })
        .collect();
    crate::print_table(
        &[
            "scenario", "conns", "workers", "reqs", "errs", "docs", "docs/s", "p50_us", "p99_us",
            "p999_us", "max_us", "parked", "rss_kB",
        ],
        &table,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Debug-scale E14: a small army and short loops — the in-run
    /// asserts (zero errors, army parked) are the test.
    #[test]
    fn e14_rows_hold_the_no_errors_and_parked_army_invariants() {
        let rows = run_e14(&E14Options {
            idle_connections: 32,
            idle_workers: 2,
            fresh_requests: 10,
            pipeline_connections: 4,
            pipeline_rounds: 2,
            pipeline_depth: 8,
            docs_per_request: 4,
        });
        assert_eq!(rows.len(), 3);
        assert!(rows.iter().all(|r| r.p99_micros >= r.p50_micros));
        assert!(rows.iter().all(|r| r.peak_rss_kb > 0));
    }
}
