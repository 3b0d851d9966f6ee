//! Closed-loop load: each connection sends its next request only after
//! the previous response was read and checked. Every response is
//! compared byte for byte with the reference; a wrong byte, a bad status
//! or a timeout counts the request as failed.

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use crate::gen::{BulkExpect, BulkInputs, BulkRequest, LearnTarget, TermRequest, LEARN_NAMES};
use crate::http::Conn;
use crate::rng::Rng;

/// What one connection's loop measured inside the measurement window. A
/// writer's or the probe's latencies are its learns'.
#[derive(Default)]
pub struct Tally {
    pub latencies_ms: Vec<f64>,
    /// Each tallied request's completion, in window order.
    pub done: Vec<Done>,
    pub docs: u64,
    pub body_bytes: u64,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    /// Seconds from the window's start to this loop's last completion.
    pub busy_s: f64,
}

impl Tally {
    pub fn merge(&mut self, other: Tally) {
        self.latencies_ms.extend(other.latencies_ms);
        self.done.extend(other.done);
        self.docs += other.docs;
        self.body_bytes += other.body_bytes;
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.errors.extend(other.errors);
        self.busy_s = self.busy_s.max(other.busy_s);
    }

    /// Accumulates a later load segment: like [`Tally::merge`], but the
    /// segments' busy times add up.
    pub fn absorb(&mut self, other: Tally) {
        let busy = self.busy_s + other.busy_s;
        self.merge(other);
        self.busy_s = busy;
    }

    /// Documents, body bytes and requests completed in each of the first
    /// `n` slices of `slice_s` seconds of one segment's window.
    pub fn slices(&self, slice_s: f64, n: usize) -> Vec<[f64; 3]> {
        let mut per_slice = vec![[0.0; 3]; n];
        for d in &self.done {
            if let Some(slot) = per_slice.get_mut((d.at_s / slice_s) as usize) {
                slot[0] += d.docs as f64;
                slot[1] += d.bytes as f64;
                slot[2] += 1.0;
            }
        }
        per_slice
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(what);
        }
    }
}

/// About how long the slices a segment's window is cut into last, in
/// seconds: throughput, CPU time and host steal are read per slice.
pub const SLICE_S: f64 = 0.5;

/// One completed request: when (seconds into the window) and how much.
pub struct Done {
    pub at_s: f64,
    pub docs: u64,
    pub bytes: u64,
}

/// The measurement window shared by the loops of one run: requests that
/// start before `start` are warm-up and are not counted; no request
/// starts after `end`.
#[derive(Clone, Copy)]
pub struct Window {
    pub start: Instant,
    pub end: Instant,
}

impl Window {
    pub fn after_warmup(warmup: Duration, measure: Duration) -> Window {
        let start = Instant::now() + warmup;
        Window {
            start,
            end: start + measure,
        }
    }
}

/// Sends one request and returns `(latency_ms, response)` or a failure
/// description. The connection is opened outside the timed span.
fn timed(
    conn: &mut Conn,
    method: &str,
    path: &str,
    body: &[u8],
) -> Result<(f64, crate::http::Response), String> {
    conn.ensure_connected()
        .map_err(|e| format!("{method} {path}: connect: {e}"))?;
    let t0 = Instant::now();
    let resp = conn
        .request(method, path, body)
        .map_err(|e| format!("{method} {path}: {e}"))?;
    Ok((t0.elapsed().as_secs_f64() * 1e3, resp))
}

/// Runs `step` in a closed loop on one connection until the window ends.
/// `step` returns the request's latency and document/body counts, or a
/// failure; only steps started inside the window are tallied.
fn closed_loop(
    addr: SocketAddr,
    window: Window,
    mut step: impl FnMut(&mut Conn, u64) -> Result<(f64, u64, u64), String>,
) -> Tally {
    let mut conn = Conn::new(addr);
    let mut tally = Tally::default();
    let mut i = 0u64;
    loop {
        let now = Instant::now();
        if now >= window.end {
            break;
        }
        let result = step(&mut conn, i);
        i += 1;
        if now < window.start {
            continue;
        }
        tally.attempted += 1;
        match result {
            Ok((ms, docs, bytes)) => {
                tally.latencies_ms.push(ms);
                tally.done.push(Done {
                    at_s: window.start.elapsed().as_secs_f64(),
                    docs,
                    bytes,
                });
                tally.docs += docs;
                tally.body_bytes += bytes;
            }
            Err(e) => tally.fail(e),
        }
        tally.busy_s = window.start.elapsed().as_secs_f64();
    }
    tally
}

/// Checks a streamed `xml_stream_bulk` response: in-domain documents come
/// back as their exact reference line; an out-of-domain document as an
/// optional committed prefix of its repaired output, then its exact
/// positional `!error:` line.
fn check_bulk(inputs: &BulkInputs, req: &BulkRequest, body: &[u8]) -> Result<(), String> {
    let text = std::str::from_utf8(body).map_err(|_| "response is not UTF-8".to_owned())?;
    let mut lines = text.split('\n');
    for (k, &d) in req.members.iter().enumerate() {
        let line = lines
            .next()
            .ok_or_else(|| format!("doc {k}: response ended early"))?;
        match &inputs.expect[d] {
            BulkExpect::Ok(out) => {
                if line != out {
                    return Err(format!("doc {k}: output differs from the reference"));
                }
            }
            BulkExpect::Rejected { repaired, error } => {
                if line == error {
                    continue;
                }
                if !repaired.starts_with(line) || line.is_empty() {
                    return Err(format!("doc {k}: streamed prefix is not the reference's"));
                }
                let err = lines.next().unwrap_or("");
                if err != error {
                    return Err(format!("doc {k}: expected `{error}`, got `{err}`"));
                }
            }
        }
    }
    match (lines.next(), lines.next()) {
        (Some(""), None) => Ok(()),
        _ => Err("response has lines past the last document".to_owned()),
    }
}

const BULK_PATH: &str = "/transform/bulk?encoding=fcns&mode=stream&validate=1";

/// `xml_stream_bulk`: sends the request bodies round-robin.
pub fn bulk_loop(addr: SocketAddr, window: Window, inputs: &BulkInputs) -> Tally {
    closed_loop(addr, window, |conn, i| {
        let req = &inputs.requests[i as usize % inputs.requests.len()];
        let (ms, resp) = timed(conn, "POST", BULK_PATH, &req.body)?;
        if resp.status != 200 {
            return Err(format!("bulk: status {}", resp.status));
        }
        check_bulk(inputs, req, &resp.body).map_err(|e| format!("bulk: {e}"))?;
        Ok((ms, req.members.len() as u64, req.body.len() as u64))
    })
}

/// One small-batch term request against its target, checked exactly.
fn term_step(conn: &mut Conn, req: &TermRequest) -> Result<(f64, u64, u64), String> {
    let path = format!("/transform/{}", req.target);
    let (ms, resp) = timed(conn, "POST", &path, &req.body)?;
    if resp.status != 200 {
        return Err(format!("{path}: status {}", resp.status));
    }
    if resp.body != req.expect {
        return Err(format!("{path}: output differs from the reference"));
    }
    Ok((ms, req.docs.len() as u64, req.body.len() as u64))
}

/// `term_small_batches` (and the reader of `learn_beside_reads`).
pub fn term_loop(addr: SocketAddr, window: Window, reqs: &[TermRequest]) -> Tally {
    closed_loop(addr, window, |conn, i| {
        term_step(conn, &reqs[i as usize % reqs.len()])
    })
}

/// One write of the learn loop: `PUT /transducers/learned-{i mod 12}?learn=1`
/// with a target's characteristic sample, then a 16-document read-back.
/// The learned dtop must have `min(τ)`'s state count and reproduce the
/// target's reference outputs. Returns the learn's latency in ms.
fn learn_step(
    conn: &mut Conn,
    i: u64,
    targets: &[LearnTarget],
    rng: &mut Rng,
) -> Result<f64, String> {
    let target = &targets[i as usize % targets.len()];
    let name = format!("learned-{}", i as usize % LEARN_NAMES);
    let body = crate::gen::learn_body(target, rng);
    let path = format!("/transducers/{name}?learn=1");
    let (learn_ms, resp) = timed(conn, "PUT", &path, &body)?;
    if resp.status != 201 {
        return Err(format!(
            "{path} ({}): status {}: {}",
            target.label,
            resp.status,
            resp.text()
        ));
    }
    let text = resp.text();
    let states = text
        .split("\"states\":")
        .nth(1)
        .and_then(|r| r.split(|c: char| !c.is_ascii_digit()).next())
        .and_then(|n| n.parse::<usize>().ok())
        .ok_or_else(|| format!("{path}: no state count in {text}"))?;
    if states != target.min_states {
        return Err(format!(
            "{path} ({}): learned {states} states, min(τ) has {}",
            target.label, target.min_states
        ));
    }
    let read = format!("/transform/{name}");
    let (_, resp) = timed(conn, "POST", &read, &target.readback)?;
    if resp.status != 200 || resp.body != target.readback_expect {
        return Err(format!(
            "{read} ({}): status {}, read-back differs from the target's outputs",
            target.label, resp.status
        ));
    }
    Ok(learn_ms)
}

/// The writer of `learn_beside_reads`: learns and read-backs in a closed
/// loop. The read-backs' documents are not reader documents, so they are
/// not tallied as `docs`.
pub fn learn_loop(addr: SocketAddr, window: Window, targets: &[LearnTarget], seed: u64) -> Tally {
    let mut rng = Rng::new(seed, 4);
    closed_loop(addr, window, |conn, i| {
        Ok((learn_step(conn, i, targets, &mut rng)?, 0, 0))
    })
}

/// Writes `writes` of the learn sequence on one connection with nothing
/// else running: the learn probe of the two read workloads.
pub fn learn_probe(
    addr: SocketAddr,
    targets: &[LearnTarget],
    writes: std::ops::Range<u64>,
    seed: u64,
) -> Tally {
    let mut rng = Rng::new(seed, 5 + writes.start);
    let mut conn = Conn::new(addr);
    let mut tally = Tally::default();
    let start = Instant::now();
    for i in writes {
        tally.attempted += 1;
        match learn_step(&mut conn, i, targets, &mut rng) {
            Ok(ms) => tally.latencies_ms.push(ms),
            Err(e) => tally.fail(e),
        }
    }
    tally.busy_s = start.elapsed().as_secs_f64();
    tally
}
