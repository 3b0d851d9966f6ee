//! # xtt-serve
//!
//! The serving front end for learned top-down tree transducers: a
//! dependency-free HTTP/1.1 server on `std::net` wrapping a shared
//! [`Engine`](xtt_engine::Engine), so learned DTOPs are reachable over a
//! wire protocol instead of a linked crate — the transformation-service
//! shape of the XSLT workloads surveyed by Janssen et al., backed by the
//! PODS 2010 learner.
//!
//! What it does (see [`server`] for the endpoint table):
//!
//! * **upload or learn** transducers (`PUT /transducers/{name}`, term
//!   syntax or `input => output` samples run through `RPNIdtop`), with
//!   atomic hot swap keyed into the engine's fingerprint LRU;
//! * **transform batches** (`POST /transform/{name}`) in term or XML
//!   syntax — or genuine unranked XML through a ranked encoding
//!   (`?encoding=fcns` or a DTD uploaded via `PUT /encodings/{name}`) —
//!   in either execution mode (`?mode=tree|stream`), with strictly
//!   per-document positional errors and chunked responses — a
//!   transducer and a pipeline run through the same engine core, each
//!   as one compiled machine (a pipeline's is its composition);
//! * **observe** (`/healthz`, `/stats`: cache hits, queue depth,
//!   per-endpoint latency) and **shut down gracefully** (SIGTERM/SIGINT
//!   or `POST /shutdown`: stop accepting, drain, finish in-flight, exit).
//!
//! Concurrency: an **epoll event loop** (one thread owning every socket,
//! on the raw-syscall [`xtt_netio`] readiness layer) in front of a
//! bounded worker queue, with **keep-alive** connections (idle timeout +
//! per-connection request limit; reuse is visible in `/stats` under
//! `connections`, the loop itself under `event_loop`). Idle and parked
//! connections hold no thread — only an epoll registration and a bounded
//! output buffer — so hundreds of idle clients coexist with a handful of
//! workers; a full queue answers `503` immediately (backpressure, never
//! unbounded buffering). The HTTP layer is hand-rolled ([`http`]) — the
//! build environment is offline and the workspace policy is to implement
//! substrates rather than pull deps.
//!
//! [`ServeClient`] is the matching minimal client, used by the
//! integration tests, the examples, and the CI smoke script.

pub mod client;
pub mod encodings;
mod event_loop;
pub mod http;
mod outbuf;
pub mod pipelines;
pub mod pool;
pub mod registry;
pub mod server;
pub mod signal;
pub mod stats;

pub use client::{ServeClient, ServeSession};
pub use encodings::{EncodingEntry, EncodingRegistry};
pub use pipelines::{PipelineEntry, PipelineRegistry};
pub use pool::{PushError, WorkQueue};
pub use registry::{Entry, Registry, RegistryError, Source};
pub use server::{ServeHandle, ServeOptions, Server};
