//! # xtt-typecheck
//!
//! The inspection device of *"A Learning Algorithm for Top-Down XML
//! Transformations"* as a first-class, compiled runtime subsystem. The
//! paper's learned objects are dtops *with inspection*: a DTTA `A` with
//! `L(A) = dom(τ)` (domains are path-closed, Proposition 2) travels with
//! the transducer — yet a bare execution engine ignores it, discovering
//! out-of-domain documents only as an opaque `None`. This crate closes
//! that gap, following Martens & Neven's *"On Typechecking Top-Down XML
//! Transformations"*:
//!
//! * [`compiled`] — [`CompiledDtta`]: a DTTA lowered to dense
//!   `(state, symbol-id)` jump tables over the engine's interned symbols,
//!   and [`domain_guard`], which extracts `dom(τ)` of any dtop via
//!   `xtt-transducer`'s subset-construction domain machinery and marks
//!   deleted (`∅`-subset) positions as skip states so guard acceptance
//!   coincides with evaluation *exactly*;
//! * [`run`] — fail-fast streaming validation: [`DttaRun`] consumes
//!   pre-order events and rejects at the **first violating node** with a
//!   typed diagnostic ([`TypeError`] carrying the violation path),
//!   consuming strictly fewer events than the document contains; the
//!   engine runs it in lockstep with its streaming evaluator;
//! * [`output`] — output typechecking: [`output_typecheck`] decides
//!   `dom(τ) ⊆ τ⁻¹(L(S_out))` by inverse type inference over the
//!   domain/schema product, returning a concrete counterexample input
//!   (assembled from `xtt-automata`'s minimal witnesses) when it fails.
//!
//! `xtt-engine` consumes this crate for its `validate` mode (guarded
//! evaluation in both eval modes) and `xtt-serve` for
//! `POST /typecheck/{name}` and per-document positional type errors.

pub mod compiled;
pub mod output;
pub mod run;

pub use compiled::{
    domain_guard, domain_guard_with_schema, guard_from_domain, CompiledDtta, TypeError,
    TypecheckError,
};
pub use output::{output_typecheck, TypecheckVerdict};
pub use run::DttaRun;
