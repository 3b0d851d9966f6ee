//! Observability integration tests: `/stats` and `/metrics` are two
//! views of one registry, so they can never disagree — including under
//! concurrent hammering — and sampled requests carry their stage
//! breakdown in response headers.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use xtt_serve::{ServeClient, ServeOptions, Server};
use xtt_transducer::examples;

fn boot(opts: ServeOptions) -> (ServeClient, std::thread::JoinHandle<std::io::Result<()>>) {
    let server = Server::bind("127.0.0.1:0", opts).expect("bind ephemeral");
    let addr = server.local_addr().unwrap();
    let runner = std::thread::spawn(move || server.run());
    let client = ServeClient::new(addr)
        .unwrap()
        .with_timeout(Duration::from_secs(10));
    assert!(client.wait_ready(Duration::from_secs(5)), "server not up");
    (client, runner)
}

fn opts(trace_sample: u64) -> ServeOptions {
    ServeOptions {
        workers: 4,
        queue_capacity: 64,
        trace_sample,
        ..ServeOptions::default()
    }
}

/// The value of one exposition series, e.g.
/// `xtt_documents_total` or `xtt_endpoint_requests_total{endpoint="transform"}`.
fn metric_value(text: &str, series: &str) -> Option<u64> {
    text.lines().find_map(|line| {
        let rest = line.strip_prefix(series)?.strip_prefix(' ')?;
        rest.parse::<f64>().ok().map(|v| v as u64)
    })
}

/// Every exposition line is a comment (`# HELP` / `# TYPE`) or a
/// `series value` sample with a numeric value.
fn lint_exposition(text: &str) {
    assert!(!text.is_empty(), "empty /metrics body");
    for line in text.lines() {
        if let Some(comment) = line.strip_prefix('#') {
            assert!(
                comment.starts_with(" HELP ") || comment.starts_with(" TYPE "),
                "bad exposition comment: {line}"
            );
            continue;
        }
        let (series, value) = line.rsplit_once(' ').unwrap_or_else(|| {
            panic!("exposition sample without a value: {line}");
        });
        assert!(
            series
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphabetic() || c == '_'),
            "bad series name: {line}"
        );
        assert!(
            value.parse::<f64>().is_ok(),
            "non-numeric sample value: {line}"
        );
    }
}

/// The concurrent hammer: transform traffic on four connections while
/// two scrapers pound `/stats` and `/metrics`. Every `/stats` snapshot
/// must parse as valid JSON (no torn writes, no trailing commas under
/// concurrency), every `/metrics` body must lint; once traffic
/// quiesces, the two views must agree on every shared counter.
#[test]
fn hammer_stats_snapshots_parse_and_agree_with_metrics() {
    let (client, runner) = boot(opts(3));
    client
        .put_transducer("flip", &examples::flip().dtop.to_string())
        .unwrap();
    let addr = client.addr();
    let body = {
        let doc = examples::flip_input(2, 2).to_string();
        format!("{doc}\n{doc}\n{doc}\n")
    };

    let traffic: Vec<_> = (0..4)
        .map(|_| {
            let body = body.clone();
            std::thread::spawn(move || {
                let c = ServeClient::new(addr)
                    .unwrap()
                    .with_timeout(Duration::from_secs(10));
                for _ in 0..40 {
                    let resp = c.request("POST", "/transform/flip", &body).unwrap();
                    assert_eq!(resp.status, 200, "{}", resp.body_str());
                }
            })
        })
        .collect();

    let done = Arc::new(AtomicBool::new(false));
    let scrapers: Vec<_> = (0..2)
        .map(|scraper| {
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                let c = ServeClient::new(addr)
                    .unwrap()
                    .with_timeout(Duration::from_secs(10));
                let mut scrapes = 0u64;
                while !done.load(Ordering::Relaxed) {
                    if scraper == 0 {
                        let resp = c.stats().unwrap();
                        assert_eq!(resp.status, 200);
                        let snapshot: serde_json::Value = serde_json::from_str(&resp.body_str())
                            .expect("mid-traffic /stats is not valid JSON");
                        assert!(snapshot["documents"]["total"].is_u64());
                    } else {
                        let resp = c.request("GET", "/metrics", "").unwrap();
                        assert_eq!(resp.status, 200);
                        lint_exposition(&resp.body_str());
                    }
                    scrapes += 1;
                }
                scrapes
            })
        })
        .collect();

    for t in traffic {
        t.join().unwrap();
    }
    done.store(true, Ordering::Relaxed);
    for s in scrapers {
        assert!(s.join().unwrap() > 0, "scraper never got a snapshot in");
    }

    // Quiesced: both views must report identical shared counters.
    let stats: serde_json::Value =
        serde_json::from_str(&client.stats().unwrap().body_str()).unwrap();
    let metrics = client.request("GET", "/metrics", "").unwrap().body_str();
    lint_exposition(&metrics);
    let pairs: &[(&str, &serde_json::Value)] = &[
        ("xtt_documents_total", &stats["documents"]["total"]),
        ("xtt_document_errors_total", &stats["documents"]["errors"]),
        (
            "xtt_endpoint_requests_total{endpoint=\"transform\"}",
            &stats["endpoints"]["transform"]["count"],
        ),
        (
            "xtt_traces_sampled_total",
            &stats["tracing"]["traces_sampled"],
        ),
        ("xtt_transducers_registered", &stats["transducers"]),
        ("xtt_queue_capacity", &stats["queue"]["capacity"]),
        ("xtt_handler_panics_total", &stats["handler_panics"]),
    ];
    for (series, stat) in pairs {
        assert_eq!(
            metric_value(&metrics, series),
            stat.as_u64(),
            "/stats and /metrics disagree on {series}"
        );
    }
    assert_eq!(stats["documents"]["total"].as_u64(), Some(4 * 40 * 3));
    // 1-in-3 sampling over 160 transform requests.
    let sampled = stats["tracing"]["traces_sampled"].as_u64().unwrap();
    assert!(sampled > 0, "no traces sampled at 1-in-3");

    client.shutdown().unwrap();
    runner.join().unwrap().unwrap();
}

/// A traced request answers with its id and per-stage timing — for a
/// transducer and for a pipeline alike; healthz reports the start time
/// the same registry exposes.
#[test]
fn traced_request_carries_trace_headers_with_stage_breakdown() {
    let (client, runner) = boot(opts(1));
    client
        .put_transducer("flip", &examples::flip().dtop.to_string())
        .unwrap();
    let doc = examples::flip_input(3, 2).to_string();
    let resp = client.request("POST", "/transform/flip", &doc).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body_str());

    let id = resp
        .header("x-xtt-trace-id")
        .expect("traced response missing X-Xtt-Trace-Id");
    assert_eq!(id.len(), 16, "trace id not 16 hex digits: {id}");
    assert!(id.bytes().all(|b| b.is_ascii_hexdigit()), "not hex: {id}");

    let timing = resp
        .header("server-timing")
        .expect("traced response missing Server-Timing");
    for stage in ["tokenize;dur=", "eval;dur=", "emit;dur="] {
        assert!(timing.contains(stage), "missing {stage} in: {timing}");
    }

    // A pipeline request is traced through the same engine core.
    let resp = client.request("PUT", "/pipelines/ff", "flip,flip").unwrap();
    assert_eq!(resp.status, 201, "{}", resp.body_str());
    let resp = client
        .request("POST", "/transform/ff", "root(#,#)\n")
        .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body_str());
    assert_eq!(resp.body_str(), "root(#,#)\n");
    let timing = resp
        .header("server-timing")
        .expect("traced pipeline response missing Server-Timing");
    for stage in ["tokenize;dur=", "eval;dur=", "emit;dur="] {
        assert!(
            timing.contains(stage),
            "pipeline: missing {stage} in: {timing}"
        );
    }

    // healthz carries the same start time /stats and /metrics expose.
    let health = client.request("GET", "/healthz", "").unwrap();
    assert_eq!(health.status, 200);
    let health: serde_json::Value = serde_json::from_str(&health.body_str()).unwrap();
    assert_eq!(health["ok"], serde_json::Value::Bool(true));
    let stats: serde_json::Value =
        serde_json::from_str(&client.stats().unwrap().body_str()).unwrap();
    assert_eq!(health["started_at"], stats["started_at"]);

    client.shutdown().unwrap();
    runner.join().unwrap().unwrap();
}
