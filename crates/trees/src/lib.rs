//! # xtt-trees
//!
//! Ranked trees and path machinery for the `xtt` workspace — the substrate
//! shared by the tree-automata, tree-transducer, learning, and XML crates.
//!
//! This crate implements Section 2 of *"A Learning Algorithm for Top-Down
//! XML Transformations"* (Lemay, Maneth, Niehren; PODS 2010):
//!
//! * [`symbol::Symbol`] — interned node labels;
//! * [`alphabet::RankedAlphabet`] — ranked alphabets `F` with the
//!   declaration order that underlies the paper's path order `<`;
//! * [`tree::Tree`] — the ground terms `T_F`, immutable and shared;
//! * [`path`] — node paths `π`, labeled paths `u ∈ F#*`, npaths `U = u·f`,
//!   and the order `<` of Section 8;
//! * [`prefix::PTree`] — trees over `G ∪ {⊥}` with the largest-common-prefix
//!   operation `⊔` of Section 3 (plus the transient `⊤` used by normal-form
//!   fixpoints);
//! * [`dag::TreeDag`] — minimal DAG representation of (possibly
//!   exponentially large) output trees;
//! * [`events::TreeEvent`] — pre-order `Open`/`Close` event streams, the
//!   SAX-style interface consumed by the streaming engine;
//! * [`parse`] — term syntax: [`TermReader`], the reader of names and
//!   punctuation that every text format reads through, [`TermEvents`], the
//!   pull tokenizer of trees built on it, and [`parse_tree`];
//! * [`gen`] — deterministic enumeration and random generation of trees.

pub mod alphabet;
pub mod dag;
pub mod events;
pub mod gen;
pub mod parse;
pub mod path;
pub mod prefix;
pub mod symbol;
pub mod tree;

pub use alphabet::RankedAlphabet;
pub use dag::{DagId, DagStats, TreeDag};
pub use events::{tree_from_events, EventError, TreeEvent};
pub use parse::{parse_tree, parse_trees, split_unquoted, ParseError, TermEvents, TermReader};
pub use path::{FPath, NPath, NodePath, PathOrder, Step};
pub use prefix::{PLabel, PTree};
pub use symbol::{Symbol, TermName};
pub use tree::Tree;
