//! Sampled per-request pipeline tracing.
//!
//! A [`Trace`] stamps stage boundaries as a request flows through the
//! pipeline (tokenize → encode → evaluate → emit; a domain guard reads
//! the same pass as the stage it runs beside and is charged to it). The
//! engine sees it only through the [`EvalObserver`] trait, passed as
//! `Option<&mut dyn EvalObserver>` — `None` on the unsampled path, so an
//! untraced request never even reads the clock. [`TraceSampler`] picks
//! 1-in-N requests with a single relaxed `fetch_add`.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::{Duration, Instant, SystemTime};

/// A pipeline stage boundary, in flow order.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Stage {
    /// Raw bytes → parse events / term parse.
    Tokenize,
    /// Unranked events → ranked encoding (fc/ns, DTD).
    Encode,
    /// Transducer evaluation.
    Evaluate,
    /// Output serialization / decode back to XML.
    Emit,
}

impl Stage {
    pub fn name(self) -> &'static str {
        match self {
            Stage::Tokenize => "tokenize",
            Stage::Encode => "encode",
            Stage::Evaluate => "eval",
            Stage::Emit => "emit",
        }
    }
}

/// The hook the engine calls at stage boundaries. `stage(s)` means
/// "the work for `s` just finished" — implementations charge the time
/// since the previous stamp to `s`.
pub trait EvalObserver {
    fn stage(&mut self, stage: Stage);
}

impl EvalObserver for Trace {
    fn stage(&mut self, stage: Stage) {
        self.stamp(stage);
    }
}

/// Every stage, in pipeline order.
const STAGES: [Stage; 4] = [Stage::Tokenize, Stage::Encode, Stage::Evaluate, Stage::Emit];

/// The counter a stamp reads. A traced batch stamps about three stage
/// boundaries per document, so this read is the cost of tracing: on
/// x86-64 it is the time-stamp counter, one `rdtsc`, about half the cost
/// of `Instant::now()`; elsewhere, nanoseconds since the first call. A
/// stamp that reads behind the previous one (cores whose counters
/// disagree) charges nothing.
#[cfg(target_arch = "x86_64")]
#[inline]
fn ticks() -> u64 {
    // SAFETY: `rdtsc` reads a counter every x86-64 CPU has; it touches
    // no memory.
    unsafe { core::arch::x86_64::_rdtsc() }
}

#[cfg(not(target_arch = "x86_64"))]
#[inline]
fn ticks() -> u64 {
    static BASE: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    BASE.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// One sampled request's stage breakdown. Stages repeat per document in
/// a batch request; repeated stamps accumulate into one entry, so the
/// rendered header stays bounded regardless of batch size. Stamps count
/// ticks; reading the breakdown turns them into time at the rate ticks
/// and the wall clock have advanced since the trace began.
pub struct Trace {
    id: u64,
    start: Instant,
    start_ticks: u64,
    last: u64,
    /// Ticks charged to each stage, indexed by `Stage as usize`.
    spent: [u64; STAGES.len()],
    /// Bit `s` is set once stage `s` has been stamped.
    seen: u8,
}

impl Trace {
    pub fn new(id: u64) -> Trace {
        let start_ticks = ticks();
        Trace {
            id,
            start: Instant::now(),
            start_ticks,
            last: start_ticks,
            spent: [0; STAGES.len()],
            seen: 0,
        }
    }

    pub fn id(&self) -> u64 {
        self.id
    }

    /// The trace id as it appears in `X-Xtt-Trace-Id` and the slow log:
    /// 16 lowercase hex digits.
    pub fn id_hex(&self) -> String {
        (0..16)
            .rev()
            .map(|i| char::from_digit((self.id >> (4 * i)) as u32 & 0xf, 16).expect("a hex digit"))
            .collect()
    }

    /// Charges the time since the previous stamp to `stage`.
    #[inline]
    pub fn stamp(&mut self, stage: Stage) {
        let now = ticks();
        self.spent[stage as usize] += now.saturating_sub(self.last);
        self.seen |= 1 << stage as u8;
        self.last = now;
    }

    /// Nanoseconds per tick: the rate the wall clock and the tick
    /// counter have advanced at, against each other, since the trace
    /// began.
    fn nanos_per_tick(&self) -> f64 {
        let ticks = ticks().saturating_sub(self.start_ticks).max(1);
        self.start.elapsed().as_nanos() as f64 / ticks as f64
    }

    /// Time from the trace's start to its last stamp.
    pub fn total(&self) -> Duration {
        let ticks = self.last.saturating_sub(self.start_ticks);
        Duration::from_nanos((ticks as f64 * self.nanos_per_tick()) as u64)
    }

    /// The recorded `(stage, accumulated duration)` pairs, in pipeline
    /// order.
    pub fn stages(&self) -> impl Iterator<Item = (&'static str, Duration)> + '_ {
        let rate = self.nanos_per_tick();
        STAGES
            .into_iter()
            .filter(|&s| self.seen & (1 << s as u8) != 0)
            .map(move |s| {
                let nanos = self.spent[s as usize] as f64 * rate;
                (s.name(), Duration::from_nanos(nanos as u64))
            })
    }

    /// `Server-Timing`-style header value:
    /// `tokenize;dur=0.123, eval;dur=1.200, emit;dur=0.045` (ms).
    pub fn server_timing(&self) -> String {
        let mut out = String::with_capacity(24 * STAGES.len());
        for (name, dur) in self.stages() {
            if !out.is_empty() {
                out.push_str(", ");
            }
            let us = dur.as_micros() as u64;
            out.push_str(name);
            out.push_str(";dur=");
            push_decimal(&mut out, us / 1000, 1);
            out.push('.');
            push_decimal(&mut out, us % 1000, 3);
        }
        out
    }

    /// `stage=micros` pairs for the structured slow-request log line.
    pub fn breakdown_micros(&self) -> String {
        let mut out = String::with_capacity(16 * STAGES.len());
        for (name, dur) in self.stages() {
            if !out.is_empty() {
                out.push(' ');
            }
            out.push_str(name);
            out.push('=');
            push_decimal(&mut out, dur.as_micros() as u64, 1);
        }
        out
    }
}

/// Appends `n` in decimal, zero-padded to at least `width` digits. The
/// trace headers are rendered on every traced request, and `core::fmt`
/// made that rendering cost about a third of what tracing a 20-document
/// request costs in total.
fn push_decimal(out: &mut String, mut n: u64, width: usize) {
    let mut digits = [0u8; 20];
    let mut len = 0;
    while n > 0 || len < width {
        digits[len] = b'0' + (n % 10) as u8;
        n /= 10;
        len += 1;
    }
    out.extend(digits[..len].iter().rev().map(|&d| char::from(d)));
}

/// Picks 1-in-N requests for tracing. `every == 0` disables sampling
/// entirely; `every == 1` traces everything.
pub struct TraceSampler {
    every: u64,
    seq: AtomicU64,
    seed: u64,
}

impl TraceSampler {
    pub fn new(every: u64) -> TraceSampler {
        // Seed trace ids from the wall clock so ids from different
        // server runs don't collide in aggregated logs.
        let seed = SystemTime::now()
            .duration_since(SystemTime::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0);
        TraceSampler {
            every,
            seq: AtomicU64::new(0),
            seed,
        }
    }

    /// The configured 1-in-N rate (0 = disabled).
    pub fn every(&self) -> u64 {
        self.every
    }

    /// One relaxed `fetch_add`; returns a trace id for sampled requests.
    #[inline]
    pub fn sample(&self) -> Option<u64> {
        if self.every == 0 {
            return None;
        }
        let n = self.seq.fetch_add(1, Relaxed);
        if n % self.every == 0 {
            Some(splitmix64(self.seed ^ n.wrapping_add(1)))
        } else {
            None
        }
    }
}

/// SplitMix64 finalizer — spreads sequential inputs into distinctive ids.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stamps_accumulate_by_stage_name() {
        let mut t = Trace::new(7);
        t.stage(Stage::Tokenize);
        t.stage(Stage::Evaluate);
        t.stage(Stage::Tokenize);
        t.stage(Stage::Emit);
        let names: Vec<&str> = t.stages().map(|(n, _)| n).collect();
        assert_eq!(names, ["tokenize", "eval", "emit"]);
        assert_eq!(t.id_hex().len(), 16);
        let header = t.server_timing();
        assert!(header.starts_with("tokenize;dur="), "{header}");
        assert_eq!(header.matches(";dur=").count(), 3, "{header}");
        let log = t.breakdown_micros();
        assert_eq!(log.split(' ').count(), 3, "{log}");
        assert!(log.starts_with("tokenize="), "{log}");
    }

    /// Ticks turn into wall time: a stage that slept 20 ms reads as about
    /// 20 ms, and the stages add up to the total.
    #[test]
    fn stamped_ticks_read_back_as_wall_time() {
        let mut t = Trace::new(1);
        t.stage(Stage::Tokenize);
        std::thread::sleep(Duration::from_millis(20));
        t.stage(Stage::Evaluate);
        let stages: Vec<_> = t.stages().collect();
        let eval = stages[1].1;
        assert!(
            eval >= Duration::from_millis(15) && eval < Duration::from_secs(5),
            "{eval:?}"
        );
        let sum: Duration = stages.iter().map(|(_, d)| *d).sum();
        let total = t.total();
        assert!(
            sum.abs_diff(total) < Duration::from_millis(1),
            "{sum:?} vs {total:?}"
        );
    }

    #[test]
    fn headers_render_fixed_point_millis_and_hex_ids() {
        let mut out = String::new();
        for (n, width) in [(0, 1), (0, 3), (5, 3), (1234, 1), (u64::MAX, 1)] {
            push_decimal(&mut out, n, width);
            out.push(' ');
        }
        assert_eq!(out, format!("0 000 005 1234 {} ", u64::MAX));
        assert_eq!(Trace::new(0xab).id_hex(), "00000000000000ab");
        let header = Trace::new(1).server_timing();
        assert_eq!(header, "");
        let mut t = Trace::new(1);
        t.stage(Stage::Evaluate);
        let header = t.server_timing();
        let ms = header.strip_prefix("eval;dur=").expect(&header);
        assert!(
            ms.len() >= 5 && ms.as_bytes()[ms.len() - 4] == b'.',
            "{header}"
        );
    }

    #[test]
    fn sampler_picks_one_in_n() {
        let s = TraceSampler::new(3);
        let picks: Vec<bool> = (0..9).map(|_| s.sample().is_some()).collect();
        assert_eq!(
            picks,
            [true, false, false, true, false, false, true, false, false]
        );
        // Sampled ids are distinct.
        let s = TraceSampler::new(1);
        let a = s.sample().unwrap();
        let b = s.sample().unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn sampler_zero_disables() {
        let s = TraceSampler::new(0);
        assert!((0..100).all(|_| s.sample().is_none()));
        assert_eq!(s.every(), 0);
    }
}
