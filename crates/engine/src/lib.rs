//! # xtt-engine
//!
//! The production runtime for learned top-down tree transducers: where
//! `xtt-transducer` implements the *theory* of PODS 2010 (normal forms,
//! learning, characteristic samples), this crate turns a finished
//! [`Dtop`](xtt_transducer::Dtop) into something you can serve traffic
//! with. Related work treats the transducer exactly this way — as a
//! compiled object applied to document streams (Janssen et al. on XSLT's
//! transformation power; Martens & Neven on typechecking top-down
//! transformations) — and this crate is that missing layer.
//!
//! Three layers:
//!
//! * [`mod@compile`] — lowers a `Dtop` into a [`CompiledDtop`]: dense
//!   `(state, symbol)` jump tables over interned symbol ids and a flat
//!   instruction arena. No hashing, no `Rc`, no rule cloning on the hot
//!   path.
//! * [`eval`] / [`stream`] — two executions of the same instruction set:
//!   the **compiled evaluator** (the document loaded from its event
//!   source straight into flat arrays, a dense memo table, output nodes
//!   in a per-call arena where a memo hit shares its node so
//!   exponentially large results stay linear in memory, all in a
//!   reusable [`EvalScratch`]), and the
//!   **streaming evaluator** ([`StreamEvaluator`]) which runs directly
//!   over SAX-style events and keeps only the spine of the input —
//!   deleted subtrees are skipped, not built.
//! * [`engine`] — one execution core: a [`Request`] names one compiled
//!   machine, an optional domain guard, the [`DocFormat`] and the
//!   [`EvalMode`], and every document runs as source → machine → sink —
//!   the format reads the document and serializes the output, the mode
//!   (`tree` or `stream`) decides what runs in between. A pipeline is its
//!   composed machine under its chain-domain guard, so it runs exactly
//!   like a validated transducer. [`Engine::run_doc`] writes one
//!   document's bytes; [`Engine::run_batch`] returns text for a batch,
//!   both on the caller's thread; LRU caches of compiled transducers
//!   and guards are keyed by structural [`fingerprint`]. The
//!   `xtt-transform` binary and `xtt-serve` are thin layers over it.
//!
//! Semantics are bit-for-bit Definition 1: for every input, every layer
//! returns exactly what `xtt_transducer::eval::eval` returns (including
//! `None` outside the domain) — enforced by differential property tests.

pub mod compile;
pub mod engine;
pub mod eval;
pub mod stream;

pub use compile::{compile, fingerprint, CompileError, CompiledDtop, Instr};
pub use engine::{
    tree_to_xml, CacheStats, ChainStage, DocFormat, Engine, EngineError, EngineOptions, EvalMode,
    LruCache, Request, StreamOutcome, ValidationStats,
};
pub use eval::EvalScratch;
pub use stream::{
    ranked_tree_from_xml_bounded, unknown_symbol, EmitStats, FnSink, GuardedSource, IterEvents,
    OutputSink, StreamEvaluator, TreeCollector, TreeEventSource, XmlRankedEvents,
};
/// Re-exported from `xtt-typecheck`: the typed diagnostic carried by
/// [`EngineError::Type`] under guarded evaluation.
pub use xtt_typecheck::TypeError;
/// Re-exported from `xtt-unranked`: the encoding handle behind
/// [`DocFormat::Encoded`].
pub use xtt_unranked::XmlCodec;
