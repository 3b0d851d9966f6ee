//! The paper's running XML example `xmlflip` (§1 and §10): transform a
//! root with `n` `a`-children followed by `m` `b`-children into a root
//! with the `m` `b`s first.
//!
//! * Over the DTD-based encoding (input DTD `root → (a*,b*)`, output DTD
//!   `root → (b*,a*)`) the transformation is realized by a small dtop
//!   ([`target_dtop`]; the paper reports 12 states and 16 rules — our
//!   minimal canonical transducer is measured in experiment E3).
//! * Over the first-child/next-sibling encoding it is **not** realizable
//!   by any dtop, because the `b`s are descendants of the `a`s and a dtop
//!   cannot exchange a node with a descendant; [`fcns_flip_input`]
//!   provides the io-path family whose residuals are pairwise distinct
//!   (unbounded Myhill–Nerode index), which experiment E3 verifies.

use xtt_transducer::{Dtop, DtopBuilder};
use xtt_trees::Tree;

use crate::dtd::Dtd;
use crate::encode::{Encoding, PcDataMode};
use crate::utree::UTree;

/// The input DTD of the paper: `root → (a*,b*)`.
pub fn input_dtd() -> Dtd {
    Dtd::parse("<!ELEMENT root (a*,b*) >\n<!ELEMENT a EMPTY >\n<!ELEMENT b EMPTY >").unwrap()
}

/// The output DTD: `root → (b*,a*)`.
pub fn output_dtd() -> Dtd {
    Dtd::parse("<!ELEMENT root (b*,a*) >\n<!ELEMENT a EMPTY >\n<!ELEMENT b EMPTY >").unwrap()
}

/// Compiled input encoding.
pub fn input_encoding() -> Encoding {
    Encoding::new(input_dtd(), PcDataMode::Abstract)
}

/// Compiled output encoding.
pub fn output_encoding() -> Encoding {
    Encoding::new(output_dtd(), PcDataMode::Abstract)
}

/// The unranked document `root(aⁿ, bᵐ)`.
pub fn document(n: usize, m: usize) -> UTree {
    let mut children = Vec::with_capacity(n + m);
    for _ in 0..n {
        children.push(UTree::leaf("a"));
    }
    for _ in 0..m {
        children.push(UTree::leaf("b"));
    }
    UTree::elem("root", children)
}

/// The transformation on unranked documents: `root(aⁿ,bᵐ) ↦ root(bᵐ,aⁿ)`.
pub fn flip_document(doc: &UTree) -> UTree {
    let mut bs: Vec<UTree> = Vec::new();
    let mut as_: Vec<UTree> = Vec::new();
    for c in doc.children() {
        match c.label() {
            Some("a") => as_.push(c.clone()),
            Some("b") => bs.push(c.clone()),
            _ => {}
        }
    }
    bs.extend(as_);
    UTree::elem("root", bs)
}

/// A hand-written dtop realizing `xmlflip` over the DTD encodings — the
/// learning target of experiment E3. It is defined on the whole *path
/// closure* of the input encoding (copy states accept `#` tails).
pub fn target_dtop() -> Dtop {
    let input = input_encoding();
    let output = output_encoding();
    let mut b = DtopBuilder::new(input.alphabet().clone(), output.alphabet().clone());
    for s in ["q1", "q2", "q1g", "q2g", "qbs", "qb", "qas", "qa"] {
        b.add_state(s);
    }
    b.set_axiom_str("root(\"(b*,a*)\"(<q1,x0>,<q2,x0>))")
        .unwrap();
    b.add_rule_str("q1", "root", "<q1g,x1>").unwrap();
    b.add_rule_str("q2", "root", "<q2g,x1>").unwrap();
    b.add_rule_str("q1g", "(a*,b*)", "<qbs,x2>").unwrap();
    b.add_rule_str("q2g", "(a*,b*)", "<qas,x1>").unwrap();
    b.add_rule_str("qbs", "b*", "b*(<qb,x1>,<qbs,x2>)").unwrap();
    b.add_rule_str("qbs", "#", "#").unwrap();
    b.add_rule_str("qb", "b", "b").unwrap();
    b.add_rule_str("qb", "#", "#").unwrap();
    b.add_rule_str("qas", "a*", "a*(<qa,x1>,<qas,x2>)").unwrap();
    b.add_rule_str("qas", "#", "#").unwrap();
    b.add_rule_str("qa", "a", "a").unwrap();
    b.add_rule_str("qa", "#", "#").unwrap();
    b.build().unwrap()
}

/// Input encoding in the path-closed style (see
/// [`crate::encode::EncodingStyle`]): over it, `xmlflip` is learnable from
/// genuine document pairs alone.
pub fn input_encoding_pc() -> Encoding {
    Encoding::with_style(
        input_dtd(),
        PcDataMode::Abstract,
        crate::encode::EncodingStyle::PathClosed,
    )
}

/// Output encoding in the path-closed style.
pub fn output_encoding_pc() -> Encoding {
    Encoding::with_style(
        output_dtd(),
        PcDataMode::Abstract,
        crate::encode::EncodingStyle::PathClosed,
    )
}

/// The `xmlflip` dtop over path-closed encodings (empty lists are `#`).
pub fn target_dtop_pc() -> Dtop {
    let input = input_encoding_pc();
    let output = output_encoding_pc();
    let mut b = DtopBuilder::new(input.alphabet().clone(), output.alphabet().clone());
    for s in ["q1", "q2", "q1g", "q2g", "qbs", "qb", "qas", "qa"] {
        b.add_state(s);
    }
    b.set_axiom_str("root(\"(b*,a*)\"(<q1,x0>,<q2,x0>))")
        .unwrap();
    b.add_rule_str("q1", "root", "<q1g,x1>").unwrap();
    b.add_rule_str("q2", "root", "<q2g,x1>").unwrap();
    b.add_rule_str("q1g", "(a*,b*)", "<qbs,x2>").unwrap();
    b.add_rule_str("q2g", "(a*,b*)", "<qas,x1>").unwrap();
    b.add_rule_str("qbs", "b*", "b*(<qb,x1>,<qbs,x2>)").unwrap();
    b.add_rule_str("qbs", "#", "#").unwrap();
    b.add_rule_str("qb", "b", "b").unwrap();
    b.add_rule_str("qas", "a*", "a*(<qa,x1>,<qas,x2>)").unwrap();
    b.add_rule_str("qas", "#", "#").unwrap();
    b.add_rule_str("qa", "a", "a").unwrap();
    b.build().unwrap()
}

/// fc/ns-encoded inputs for the Myhill–Nerode impossibility argument: for
/// the io-path `u_n = (root,1)·((a,2))ⁿ` of the fc/ns version of
/// `xmlflip`, the residual must "remember" `n` (the `a`s are replayed
/// *after* the `b`s in the output), so all residuals are pairwise
/// distinct. Returns, for each `n < count`, the encoded input with `n` `a`s
/// and `m` `b`s.
pub fn fcns_flip_input(n: usize, m: usize) -> Tree {
    crate::fcns::fcns_encode(&document(n, m))
}

/// The fc/ns-encoded *output* for `n` `a`s and `m` `b`s.
pub fn fcns_flip_output(n: usize, m: usize) -> Tree {
    crate::fcns::fcns_encode(&flip_document(&document(n, m)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use xtt_transducer::eval;

    #[test]
    fn target_realizes_xmlflip_on_encodings() {
        let enc_in = input_encoding();
        let enc_out = output_encoding();
        let m = target_dtop();
        for (n, k) in [(0, 0), (2, 1), (1, 3), (4, 4), (0, 2), (3, 0)] {
            let doc = document(n, k);
            let input = enc_in.encode(&doc).unwrap();
            let expected = enc_out.encode(&flip_document(&doc)).unwrap();
            let got = eval(&m, &input).expect("defined on encodings");
            assert_eq!(got, expected, "n={n}, m={k}");
        }
    }

    #[test]
    fn target_total_on_path_closure() {
        let enc_in = input_encoding();
        let m = target_dtop();
        let domain = enc_in.domain();
        for t in xtt_automata::enumerate_language(&domain, domain.initial(), 300, 25) {
            assert!(eval(&m, &t).is_some(), "undefined on closure tree {t}");
        }
    }

    #[test]
    fn paper_example_encoding_shape() {
        // §1: root(a,a,b) encodes and flips into the displayed trees.
        let enc_in = input_encoding();
        let enc_out = output_encoding();
        let doc = document(2, 1);
        assert_eq!(
            enc_in.encode(&doc).unwrap().to_string(),
            "root(\"(a*,b*)\"(a*(a,a*(a,a*(#,#))),b*(b,b*(#,#))))"
        );
        assert_eq!(
            enc_out.encode(&flip_document(&doc)).unwrap().to_string(),
            "root(\"(b*,a*)\"(b*(b,b*(#,#)),a*(a,a*(a,a*(#,#)))))"
        );
    }

    #[test]
    fn fcns_encoding_nests_bs_below_as() {
        let t = fcns_flip_input(2, 1);
        assert_eq!(t.to_string(), "root(a(#,a(#,b(#,#))),#)");
        let o = fcns_flip_output(2, 1);
        assert_eq!(o.to_string(), "root(b(#,a(#,a(#,#))),#)");
    }
}
