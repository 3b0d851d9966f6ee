//! `xtt-obs` — the observability core for the serving stack.
//!
//! Dependency-free (like `xtt-netio`) on purpose: everything on the
//! record path is a handful of relaxed atomics, so instrumentation can
//! stay enabled in production.
//!
//! Three layers:
//!
//! - **Metrics** ([`Counter`], [`Gauge`], [`Histogram`]): lock-free
//!   primitives. The histogram is log₂-bucketed — a fixed array of 65
//!   atomic buckets covering all of `u64` — so recording is one relaxed
//!   `fetch_add` into the right bucket (plus sum/max upkeep) and
//!   p50/p99/p999 read out from a snapshot without storing samples.
//! - **Registry** ([`Registry`]): names + help text + labels over those
//!   primitives, rendered to Prometheus text exposition format. Callers
//!   keep the returned `Arc` handles for the hot path; the registry's
//!   lock is touched only at registration and render time.
//! - **Tracing** ([`Trace`], [`TraceSampler`], [`EvalObserver`]): a
//!   sampled per-request pipeline trace stamping stage boundaries
//!   (tokenize → encode → evaluate → emit). The engine accepts
//!   an `Option<&mut dyn EvalObserver>`; the unsampled path passes
//!   `None` and costs nothing — not even an `Instant::now()`.

mod hist;
mod registry;
mod trace;

pub use hist::{Histogram, HistogramSnapshot, BUCKETS};
pub use registry::{Counter, Gauge, Registry};
pub use trace::{EvalObserver, Stage, Trace, TraceSampler};
