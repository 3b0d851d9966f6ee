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
//!   composes the stages, normalizes the product to the paper's earliest
//!   minimal form, and compiles it into one [`CompiledDtop`].
//! * Every plan carries a guard — the exact **chain domain**
//!   `⋂ᵢ dom(τᵢ ∘ … ∘ τ₁) ∩ L(schema)`, strictly smaller than
//!   `dom(composed)` when a later stage deletes part of an earlier
//!   stage's partial output — so the composed machine accepts exactly the
//!   inputs on which running the stages one after another is defined,
//!   and rejects at the same node: the property the differential
//!   proptests pin down against that stage-by-stage run.
//! * [`PlanCache`] memoizes plans per pipeline fingerprint with exact
//!   rendering verification, reusing the engine's LRU.
//!
//! Execution happens in `xtt-engine`: [`Plan::exec_stages`] and
//! [`Plan::guard`] fill an [`xtt_engine::Request`], so a pipeline runs
//! exactly like a validated transducer — one compiled machine plus its
//! guard.
//!
//! [`CompiledDtop`]: xtt_engine::CompiledDtop

pub mod cache;
pub mod plan;
pub mod specialize;

pub use cache::PlanCache;
pub use plan::{
    pipeline_fingerprint, pipeline_rendering, plan, Plan, PlanError, PlanReport, StageDef,
    StrategyChoice,
};
pub use specialize::{specialize_to_schema, specialize_to_symbols, Specialized};
