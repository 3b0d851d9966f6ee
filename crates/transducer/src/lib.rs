//! # xtt-transducer
//!
//! Deterministic top-down tree transducers (dtops) with the full normal-form
//! toolchain of *"A Learning Algorithm for Top-Down XML Transformations"*
//! (Lemay, Maneth, Niehren; PODS 2010):
//!
//! * [`dtop::Dtop`] + [`rhs::Rhs`] — Definition 1, with a builder that
//!   accepts the paper's textual rule syntax;
//! * [`mod@eval`] — the semantics `⟦M⟧` / `⟦M⟧_q` and the stopped computation
//!   `⟦Mx⟧(s[u←x])` (Definition 3, Proposition 4), memoized so copying
//!   transducers stay polynomial;
//! * [`domain::domain_dtta`] — the subset-construction domain automaton
//!   (Proposition 2);
//! * [`earliest`] — the earliest normal form (Section 3 / Definition 8);
//! * [`mod@minimize`] — merging of equivalent states and canonical numbering,
//!   yielding the paper's unique `min(τ)` (Definition 24, Theorem 28);
//! * [`equiv`] — polynomial equivalence checking via canonical forms;
//! * [`iopaths`] — state- and trans-io-paths under the order `<` of
//!   Section 8 (Definition 29);
//! * [`outputs`] — symbolic maximal outputs `out_τ(u·f)` with hole
//!   provenance, the backbone of characteristic-sample generation;
//! * [`witness`] — two-valuedness witnesses per state (Lemma 21);
//! * [`examples`] — every transducer exhibited in the paper plus scalable
//!   families for the benchmarks.

pub mod compose;
pub mod domain;
pub mod dtop;
pub mod earliest;
pub mod equiv;
pub mod eval;
pub mod examples;
pub mod iopaths;
pub mod minimize;
pub mod outputs;
pub mod parse;
pub mod random;
pub mod rhs;
pub mod witness;

pub use compose::{compose, identity};
pub use domain::{chain_domain_dtta, chain_domain_raw, domain_dtta, domain_dtta_raw, RawDomain};
pub use dtop::{Dtop, DtopBuilder, DtopError};
pub use earliest::{is_earliest, to_earliest, Canonical, NormError};
pub use equiv::{canonical_form, equivalent, same_canonical};
pub use eval::{eval, eval_cut, eval_naive, eval_state, Evaluator};
pub use iopaths::{sort_io_paths, state_io_paths, trans_io_paths, IoPath, TransIoPath};
pub use minimize::{canonical_number, minimize};
pub use outputs::{out_at, Hole, OutAt};
pub use parse::parse_dtop;
pub use random::{random_partial_dtop, random_total_dtop, RandomDtopConfig};
pub use rhs::{parse_rhs, QId, Rhs, RhsError};
pub use witness::{root_output_witnesses, root_symbol_witnesses};
