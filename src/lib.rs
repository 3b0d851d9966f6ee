//! # xtt — learning top-down XML transformations
//!
//! A full reproduction of *"A Learning Algorithm for Top-Down XML
//! Transformations"* (Aurélien Lemay, Sebastian Maneth, Joachim Niehren;
//! PODS 2010): deterministic top-down tree transducers (dtops), their
//! Myhill–Nerode theory (earliest normal form, unique minimal compatible
//! transducer, io-paths), the Gold-style learner `RPNIdtop` with
//! polynomial characteristic samples, and the DTD-based encoding that
//! makes the machinery applicable to XML.
//!
//! ## Quickstart
//!
//! ```
//! use xtt::prelude::*;
//!
//! // The paper's τflip: swap an a-list and a b-list (fc/ns encoded).
//! let fixture = xtt::transducer::examples::flip();
//!
//! // 1. canonicalize the target: unique minimal earliest compatible dtop
//! let target = canonical_form(&fixture.dtop, Some(&fixture.domain)).unwrap();
//!
//! // 2. generate a characteristic sample (Proposition 34)
//! let sample = characteristic_sample(&target).unwrap();
//!
//! // 3. learn it back with RPNIdtop (Figure 1)
//! let learned = rpni_dtop(&sample, &target.domain, target.dtop.output()).unwrap();
//!
//! // 4. the result is exactly min(τ) (Theorem 38)
//! let got = canonical_form(&learned.dtop, Some(&target.domain)).unwrap();
//! assert!(same_canonical(&target, &got));
//! assert_eq!(learned.dtop.state_count(), 4);
//! ```
//!
//! ## Serving at scale
//!
//! Once a transducer is learned, [`engine`] (`xtt-engine`) turns it into a
//! production runtime: [`engine::compile()`] lowers it to flat jump tables,
//! [`engine::Engine::run_batch`] runs document batches on the caller's
//! thread (with an LRU of compiled transducers), and the streaming evaluator
//! applies it directly to SAX-style XML events. The `xtt-transform` CLI
//! wraps the same API for newline-delimited corpora.
//!
//! ```
//! use xtt::prelude::*;
//!
//! let flip = xtt::transducer::examples::flip().dtop;
//! let engine = Engine::new(EngineOptions::default());
//! let out = engine.transform(&flip, "root(a(#,#),b(#,#))").unwrap();
//! assert_eq!(out, "root(b(#,#),a(#,#))");
//! ```
//!
//! ## Crate map
//!
//! | re-export | crate | contents |
//! |---|---|---|
//! | [`trees`] | `xtt-trees` | ranked trees, paths, `⊔`, minimal DAGs, event streams |
//! | [`automata`] | `xtt-automata` | deterministic top-down tree automata |
//! | [`transducer`] | `xtt-transducer` | dtops, earliest form, `min(τ)`, equivalence |
//! | [`learn`] | `xtt-core` | samples, `RPNIdtop`, characteristic samples |
//! | [`xml`] | `xtt-xml` | unranked trees, DTDs, encodings, SAX reader, XSLT export |
//! | [`unranked`] | `xtt-unranked` | streaming unranked-XML pipeline (SAX → ranked events → XML out, no intermediate trees) |
//! | [`engine`] | `xtt-engine` | compiled + streaming execution, batch serving, CLI |
//! | [`typecheck`] | `xtt-typecheck` | compiled domain guards, fail-fast validation, output typechecking |
//! | [`serve`] | `xtt-serve` | HTTP transformation service (`xtt-serve` binary) |

pub use xtt_automata as automata;
pub use xtt_core as learn;
pub use xtt_engine as engine;
pub use xtt_serve as serve;
pub use xtt_transducer as transducer;
pub use xtt_trees as trees;
pub use xtt_typecheck as typecheck;
pub use xtt_unranked as unranked;
pub use xtt_xml as xml;

/// The most common imports for working with the library.
pub mod prelude {
    pub use xtt_automata::{parse_dtta, Dtta, DttaBuilder};
    pub use xtt_core::{characteristic_sample, check_characteristic_conditions, rpni_dtop, Sample};
    pub use xtt_engine::{
        compile, CompiledDtop, DocFormat, Engine, EngineOptions, EvalMode, EvalScratch,
        StreamEvaluator,
    };
    pub use xtt_serve::{ServeClient, ServeOptions, Server};
    pub use xtt_transducer::{
        canonical_form, equivalent, eval, parse_dtop, same_canonical, Canonical, Dtop, DtopBuilder,
    };
    pub use xtt_trees::{parse_tree, FPath, RankedAlphabet, Symbol, Tree, TreeEvent};
    pub use xtt_typecheck::{
        domain_guard, output_typecheck, CompiledDtta, TypeError, TypecheckVerdict,
    };
    pub use xtt_unranked::{UnrankedError, UnrankedEvents, XmlCodec};
    pub use xtt_xml::{parse_xml, Dtd, Encoding, PcDataMode, UTree};
}
