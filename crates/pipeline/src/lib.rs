//! # xtt-pipeline
//!
//! Composition pipelines over learned dtops. The paper's transducer class
//! is closed under composition (Engelfriet 1975, the paper's reference
//! [8]); this crate turns that theorem into a serving feature: a **named
//! pipeline** is a sequence of registered transducers τₙ ∘ … ∘ τ₁ plus an
//! optional input schema, planned once into an executable form.
//!
//! * [`plan`] builds a [`Plan`]: it schema-specializes each stage
//!   ([`specialize`], the Martens & Neven fixed-input-schema restriction),
//!   composes and normalizes the product, compiles **both** execution
//!   strategies — one statically composed [`CompiledDtop`] vs a chain of
//!   per-stage evaluators cascading committed output events — and picks
//!   the faster by racing them on a probe corpus drawn from the
//!   pipeline's own domain ([`StrategyChoice::Auto`]; explicit override
//!   available).
//! * Every plan carries one shared guard — the exact **chain domain**
//!   `⋂ᵢ dom(τᵢ ∘ … ∘ τ₁) ∩ L(schema)`, strictly smaller than
//!   `dom(composed)` when a later stage deletes part of an earlier
//!   stage's partial output — so both strategies accept the same
//!   language and reject at the same node, the property the
//!   differential proptests pin down.
//! * [`PlanCache`] memoizes plans per pipeline fingerprint with exact
//!   rendering verification, reusing the engine's LRU.
//!
//! Execution happens in `xtt-engine`: [`Plan::exec_stages`] and
//! [`Plan::guard`] fill an [`xtt_engine::Request`]; the composed strategy
//! is simply a chain of length one, so one execution core serves both.
//!
//! [`CompiledDtop`]: xtt_engine::CompiledDtop

pub mod cache;
pub mod plan;
pub mod specialize;

pub use cache::PlanCache;
pub use plan::{
    pipeline_fingerprint, pipeline_rendering, plan, Plan, PlanError, PlanReport, StageDef,
    Strategy, StrategyChoice,
};
pub use specialize::{specialize_to_schema, specialize_to_symbols, Specialized};
