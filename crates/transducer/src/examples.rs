//! The paper's worked examples and scalable families derived from them.
//!
//! Every concrete transducer the paper exhibits is reproduced here as a
//! fixture (dtop + domain DTTA) shared by unit tests, integration tests,
//! the experiment binaries, and the benches:
//!
//! * [`flip`] — `Mflip` from the introduction (4 states);
//! * [`constant_m1`]/[`constant_m2`]/[`constant_m3`] — Example 1;
//! * [`example6_m0`]…[`example6_m3`] — the four transducers of Example 6
//!   (§7) over the domain [`example6_domain`]
//!   `D = {f(c,a), f(c,b)}`;
//! * [`library`] — the §10 library transformation over DTD-encoded trees;
//! * [`monadic_to_binary`] — the monadic-input/full-binary-output copier
//!   used for the DAG-representation claim (§1);
//! * [`flip_k`]/[`relabel_chain`] — parameterized families for scaling
//!   experiments (E4/E5).

use xtt_automata::{Dtta, DttaBuilder};
use xtt_trees::{RankedAlphabet, Symbol, Tree};

use crate::domain::domain_dtta;
use crate::dtop::{Dtop, DtopBuilder};
use crate::rhs::Rhs;

/// A transducer together with the DTTA defining its intended domain
/// (the "inspection" of Section 7).
#[derive(Clone, Debug)]
pub struct Fixture {
    pub dtop: Dtop,
    pub domain: Dtta,
}

/// `Mflip` from the paper's introduction: exchange an `a`-list and a
/// `b`-list (fc/ns encoded). Minimal earliest, 4 states, 6 rules.
pub fn flip() -> Fixture {
    let alpha = RankedAlphabet::from_pairs([("root", 2), ("a", 2), ("b", 2), ("#", 0)]);
    let mut b = DtopBuilder::new(alpha.clone(), alpha.clone());
    for name in ["q1", "q2", "q3", "q4"] {
        b.add_state(name);
    }
    b.set_axiom_str("root(<q1,x0>,<q2,x0>)").unwrap();
    b.add_rule_str("q1", "root", "<q3,x2>").unwrap();
    b.add_rule_str("q2", "root", "<q4,x1>").unwrap();
    b.add_rule_str("q3", "#", "#").unwrap();
    b.add_rule_str("q3", "b", "b(#,<q3,x2>)").unwrap();
    b.add_rule_str("q4", "#", "#").unwrap();
    b.add_rule_str("q4", "a", "a(#,<q4,x2>)").unwrap();
    let dtop = b.build().unwrap();

    let mut d = DttaBuilder::new(alpha);
    let p0 = d.add_state("start");
    let pa = d.add_state("alist");
    let pb = d.add_state("blist");
    let nil = d.add_state("nil");
    d.add_transition(p0, Symbol::new("root"), vec![pa, pb])
        .unwrap();
    d.add_transition(pa, Symbol::new("a"), vec![nil, pa])
        .unwrap();
    d.add_transition(pa, Symbol::new("#"), vec![]).unwrap();
    d.add_transition(pb, Symbol::new("b"), vec![nil, pb])
        .unwrap();
    d.add_transition(pb, Symbol::new("#"), vec![]).unwrap();
    d.add_transition(nil, Symbol::new("#"), vec![]).unwrap();
    Fixture {
        dtop,
        domain: d.build().unwrap(),
    }
}

fn example1_alphabets() -> (RankedAlphabet, RankedAlphabet) {
    (
        RankedAlphabet::from_pairs([("f", 2), ("a", 0)]),
        RankedAlphabet::from_pairs([("b", 0)]),
    )
}

/// Example 1, `M₁`: the constant transduction as a bare axiom — already
/// earliest.
pub fn constant_m1() -> Fixture {
    let (input, output) = example1_alphabets();
    let dtop = Dtop::constant(input.clone(), output, Rhs::leaf("b"));
    Fixture {
        dtop,
        domain: Dtta::universal(input),
    }
}

/// Example 1, `M₂`: same transduction, produced one step late (not
/// earliest).
pub fn constant_m2() -> Fixture {
    let (input, output) = example1_alphabets();
    let mut b = DtopBuilder::new(input.clone(), output);
    b.add_state("q0");
    b.set_axiom_str("<q0,x0>").unwrap();
    b.add_rule_str("q0", "f", "b").unwrap();
    b.add_rule_str("q0", "a", "b").unwrap();
    Fixture {
        dtop: b.build().unwrap(),
        domain: Dtta::universal(input),
    }
}

/// Example 1, `M₃`: produces the output at the first child if one exists.
pub fn constant_m3() -> Fixture {
    let (input, output) = example1_alphabets();
    let mut b = DtopBuilder::new(input.clone(), output);
    b.add_state("q0");
    b.add_state("q1");
    b.set_axiom_str("<q0,x0>").unwrap();
    b.add_rule_str("q0", "f", "<q1,x1>").unwrap();
    b.add_rule_str("q0", "a", "b").unwrap();
    b.add_rule_str("q1", "f", "b").unwrap();
    b.add_rule_str("q1", "a", "b").unwrap();
    Fixture {
        dtop: b.build().unwrap(),
        domain: Dtta::universal(input),
    }
}

/// The domain `D = {f(c,a), f(c,b)}` of Example 6.
pub fn example6_domain() -> Dtta {
    let alpha = example6_alphabet();
    let mut d = DttaBuilder::new(alpha);
    let p0 = d.add_state("root");
    let pc = d.add_state("c");
    let pab = d.add_state("ab");
    d.add_transition(p0, Symbol::new("f"), vec![pc, pab])
        .unwrap();
    d.add_transition(pc, Symbol::new("c"), vec![]).unwrap();
    d.add_transition(pab, Symbol::new("a"), vec![]).unwrap();
    d.add_transition(pab, Symbol::new("b"), vec![]).unwrap();
    d.build().unwrap()
}

fn example6_alphabet() -> RankedAlphabet {
    RankedAlphabet::from_pairs([("f", 2), ("g", 1), ("a", 0), ("b", 0), ("c", 0)])
}

/// Example 6, `M₀`: earliest single-state identity-ish transducer that
/// violates (C0) on `D`.
pub fn example6_m0() -> Fixture {
    let alpha = example6_alphabet();
    let mut b = DtopBuilder::new(alpha.clone(), alpha);
    b.add_state("q0");
    b.set_axiom_str("f(c,<q0,x0>)").unwrap();
    b.add_rule_str("q0", "f", "<q0,x2>").unwrap();
    b.add_rule_str("q0", "a", "a").unwrap();
    b.add_rule_str("q0", "b", "b").unwrap();
    Fixture {
        dtop: b.build().unwrap(),
        domain: example6_domain(),
    }
}

/// Example 6, `M₁`: the minimal earliest compatible transducer for the
/// restricted identity (two states).
pub fn example6_m1() -> Fixture {
    let alpha = example6_alphabet();
    let mut b = DtopBuilder::new(alpha.clone(), alpha);
    b.add_state("q0");
    b.add_state("q1");
    b.set_axiom_str("f(c,<q0,x0>)").unwrap();
    b.add_rule_str("q0", "f", "<q1,x2>").unwrap();
    b.add_rule_str("q1", "a", "a").unwrap();
    b.add_rule_str("q1", "b", "b").unwrap();
    Fixture {
        dtop: b.build().unwrap(),
        domain: example6_domain(),
    }
}

/// Example 6, `M₂`: defines the same function on `D` but is not
/// output-maximal w.r.t. `D` — violates (C1).
pub fn example6_m2() -> Fixture {
    let alpha = example6_alphabet();
    let mut b = DtopBuilder::new(alpha.clone(), alpha);
    b.add_state("q0");
    b.set_axiom_str("<q0,x0>").unwrap();
    b.add_rule_str("q0", "f", "f(c,<q0,x2>)").unwrap();
    b.add_rule_str("q0", "a", "a").unwrap();
    b.add_rule_str("q0", "b", "b").unwrap();
    Fixture {
        dtop: b.build().unwrap(),
        domain: example6_domain(),
    }
}

/// Example 6, `M₃`: like `M₁` plus a superfluous rule `q0(g(x1)) → a` —
/// violates (C2).
pub fn example6_m3() -> Fixture {
    let alpha = example6_alphabet();
    let mut b = DtopBuilder::new(alpha.clone(), alpha);
    b.add_state("q0");
    b.add_state("q1");
    b.set_axiom_str("f(c,<q0,x0>)").unwrap();
    b.add_rule_str("q0", "f", "<q1,x2>").unwrap();
    b.add_rule_str("q0", "g", "a").unwrap();
    b.add_rule_str("q1", "a", "a").unwrap();
    b.add_rule_str("q1", "b", "b").unwrap();
    Fixture {
        dtop: b.build().unwrap(),
        domain: example6_domain(),
    }
}

/// The Section 10 library transformation over DTD-encoded trees: swap
/// author/title, delete year, copy all titles into a summary.
///
/// Two deliberate deviations from the paper's listing, both measured by
/// experiment E2 (`exp_e2_library`):
///
/// * the paper's state `qT` is applied both to `B`-nodes (in the `qT*`
///   rules) and to `T`-nodes (in the `qB` rule), which is inconsistent for
///   a deterministic transducer; we split it into `qTB` (produce a summary
///   title from a book) and `qTT` (extract a title's pcdata), giving 15
///   states instead of the claimed 14;
/// * pcdata is modeled by *two* constants `P` and `P'` — with a single
///   constant every text-extraction state would compute a constant function
///   and be absorbed by the earliest normal form, trivializing the example.
pub fn library() -> Fixture {
    let input = RankedAlphabet::from_pairs([
        ("L", 1),
        ("B*", 2),
        ("B", 3),
        ("A", 1),
        ("T", 1),
        ("Y", 1),
        ("P", 0),
        ("P'", 0),
        ("#", 0),
    ]);
    let output = RankedAlphabet::from_pairs([
        ("L", 2),
        ("S", 1),
        ("T*", 2),
        ("B*", 2),
        ("B", 2),
        ("T", 1),
        ("A", 1),
        ("P", 0),
        ("P'", 0),
        ("#", 0),
    ]);
    let mut b = DtopBuilder::new(input, output);
    for name in [
        "qL1", "qL2", "qL3", "qL4", "qT1s", "qT2s", "qTs", "qB1s", "qB2s", "qBs", "qB", "qTB",
        "qTT", "qA", "qP",
    ] {
        b.add_state(name);
    }
    b.set_axiom_str("L(S(\"T*\"(<qL1,x0>,<qL2,x0>)),\"B*\"(<qL3,x0>,<qL4,x0>))")
        .unwrap();
    b.add_rule_str("qL1", "L", "<qT1s,x1>").unwrap();
    b.add_rule_str("qL2", "L", "<qT2s,x1>").unwrap();
    b.add_rule_str("qL3", "L", "<qB1s,x1>").unwrap();
    b.add_rule_str("qL4", "L", "<qB2s,x1>").unwrap();
    b.add_rule_str("qT1s", "B*", "<qTB,x1>").unwrap();
    b.add_rule_str("qT2s", "B*", "<qTs,x2>").unwrap();
    b.add_rule_str("qTs", "B*", "\"T*\"(<qTB,x1>,<qTs,x2>)")
        .unwrap();
    b.add_rule_str("qTs", "#", "#").unwrap();
    b.add_rule_str("qB1s", "B*", "<qB,x1>").unwrap();
    b.add_rule_str("qB2s", "B*", "<qBs,x2>").unwrap();
    b.add_rule_str("qBs", "B*", "\"B*\"(<qB,x1>,<qBs,x2>)")
        .unwrap();
    b.add_rule_str("qBs", "#", "#").unwrap();
    b.add_rule_str("qB", "B", "B(T(<qTT,x2>),A(<qA,x1>))")
        .unwrap();
    b.add_rule_str("qB", "#", "#").unwrap();
    b.add_rule_str("qTB", "B", "T(<qTT,x2>)").unwrap();
    b.add_rule_str("qTB", "#", "#").unwrap();
    b.add_rule_str("qTT", "T", "<qP,x1>").unwrap();
    b.add_rule_str("qA", "A", "<qP,x1>").unwrap();
    b.add_rule_str("qP", "P", "P").unwrap();
    b.add_rule_str("qP", "P'", "P'").unwrap();
    let dtop = b.build().unwrap();
    let domain = domain_dtta(&dtop, None);
    Fixture { dtop, domain }
}

/// Builds the encoded library input with `n` books — the paper's `s_n`.
/// All pcdata leaves are `P`.
pub fn library_input(n: usize) -> Tree {
    library_input_with(n, &|_, _| "P")
}

/// Builds the encoded library input with `n` books, choosing the pcdata
/// symbol (`"P"` or `"P'"`) per `(book index, field index)`; field indices
/// are 0 = author, 1 = title, 2 = year.
pub fn library_input_with(n: usize, pcdata: &dyn Fn(usize, usize) -> &'static str) -> Tree {
    let mut list = Tree::node("B*", vec![Tree::leaf_named("#"), Tree::leaf_named("#")]);
    for i in (0..n).rev() {
        let book = Tree::node(
            "B",
            vec![
                Tree::node("A", vec![Tree::leaf_named(pcdata(i, 0))]),
                Tree::node("T", vec![Tree::leaf_named(pcdata(i, 1))]),
                Tree::node("Y", vec![Tree::leaf_named(pcdata(i, 2))]),
            ],
        );
        list = Tree::node("B*", vec![book, list]);
    }
    Tree::node("L", vec![list])
}

/// The copier that turns a monadic tree of height `n` into a full binary
/// tree of height `n` — the paper's witness that characteristic samples can
/// contain exponentially large outputs (mitigated by DAGs).
pub fn monadic_to_binary() -> Fixture {
    let input = RankedAlphabet::from_pairs([("f", 1), ("e", 0)]);
    let output = RankedAlphabet::from_pairs([("g", 2), ("e", 0)]);
    let mut b = DtopBuilder::new(input.clone(), output);
    b.add_state("q");
    b.set_axiom_str("<q,x0>").unwrap();
    b.add_rule_str("q", "f", "g(<q,x1>,<q,x1>)").unwrap();
    b.add_rule_str("q", "e", "e").unwrap();
    Fixture {
        dtop: b.build().unwrap(),
        domain: Dtta::universal(input),
    }
}

/// A scalable generalization of `flip`: the root has `k` children, each a
/// list of a distinct letter `c_i`, and the transducer reverses the order
/// of the `k` lists. `min(τ)` grows linearly in `k` (k selector states +
/// k list-copier states), the root rank grows with `k`.
pub fn flip_k(k: usize) -> Fixture {
    assert!(k >= 1);
    let mut pairs: Vec<(String, usize)> = vec![("root".to_owned(), k)];
    for i in 0..k {
        pairs.push((letter(i), 2));
    }
    pairs.push(("#".to_owned(), 0));
    let alpha: RankedAlphabet = pairs.iter().map(|(n, r)| (n.as_str(), *r)).collect();

    let mut b = DtopBuilder::new(alpha.clone(), alpha.clone());
    for i in 0..k {
        b.add_state(format!("sel{i}"));
    }
    for i in 0..k {
        b.add_state(format!("copy{i}"));
    }
    let axiom_calls: Vec<String> = (0..k).map(|i| format!("<sel{i},x0>")).collect();
    b.set_axiom_str(&format!("root({})", axiom_calls.join(",")))
        .unwrap();
    for i in 0..k {
        // selector i outputs list k-1-i of the input
        let src = k - 1 - i;
        b.add_rule_str(
            &format!("sel{i}"),
            "root",
            &format!("<copy{src},x{}>", src + 1),
        )
        .unwrap();
    }
    for i in 0..k {
        let c = letter(i);
        b.add_rule_str(&format!("copy{i}"), &c, &format!("{c}(#,<copy{i},x2>)"))
            .unwrap();
        b.add_rule_str(&format!("copy{i}"), "#", "#").unwrap();
    }
    let dtop = b.build().unwrap();

    let mut d = DttaBuilder::new(alpha);
    let p0 = d.add_state("start");
    let nil = d.add_state("nil");
    let lists: Vec<_> = (0..k).map(|i| d.add_state(format!("list{i}"))).collect();
    d.add_transition(p0, Symbol::new("root"), lists.clone())
        .unwrap();
    for (i, &p) in lists.iter().enumerate() {
        d.add_transition(p, Symbol::new(&letter(i)), vec![nil, p])
            .unwrap();
        d.add_transition(p, Symbol::new("#"), vec![]).unwrap();
    }
    d.add_transition(nil, Symbol::new("#"), vec![]).unwrap();
    Fixture {
        dtop,
        domain: d.build().unwrap(),
    }
}

fn letter(i: usize) -> String {
    format!("c{i}")
}

/// A monadic relabeling family with `n` states: state `q_i` rewrites `f`
/// to `g_i` and advances to `q_{i+1 mod n}`. All states are pairwise
/// non-equivalent, so `min(τ)` has exactly `n` states.
pub fn relabel_chain(n: usize) -> Fixture {
    assert!(n >= 1);
    let input = RankedAlphabet::from_pairs([("f", 1), ("e", 0)]);
    let mut out_pairs: Vec<(String, usize)> = (0..n).map(|i| (format!("g{i}"), 1)).collect();
    out_pairs.push(("e".to_owned(), 0));
    let output: RankedAlphabet = out_pairs.iter().map(|(s, r)| (s.as_str(), *r)).collect();

    let mut b = DtopBuilder::new(input.clone(), output);
    for i in 0..n {
        b.add_state(format!("q{i}"));
    }
    b.set_axiom_str("<q0,x0>").unwrap();
    for i in 0..n {
        b.add_rule_str(
            &format!("q{i}"),
            "f",
            &format!("g{i}(<q{},x1>)", (i + 1) % n),
        )
        .unwrap();
        b.add_rule_str(&format!("q{i}"), "e", "e").unwrap();
    }
    Fixture {
        dtop: b.build().unwrap(),
        domain: Dtta::universal(input),
    }
}

/// Builds the fc/ns-encoded flip input with `n` `a`s and `m` `b`s.
pub fn flip_input(n: usize, m: usize) -> Tree {
    let mut alist = Tree::leaf_named("#");
    for _ in 0..n {
        alist = Tree::node("a", vec![Tree::leaf_named("#"), alist]);
    }
    let mut blist = Tree::leaf_named("#");
    for _ in 0..m {
        blist = Tree::node("b", vec![Tree::leaf_named("#"), blist]);
    }
    Tree::node("root", vec![alist, blist])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::eval;

    #[test]
    fn flip_k1_matches_flip_shape() {
        let f = flip_k(1);
        assert_eq!(f.dtop.state_count(), 2);
        let input = xtt_trees::parse_tree("root(c0(#,c0(#,#)))").unwrap();
        assert!(f.domain.accepts(&input));
        let out = eval(&f.dtop, &input).unwrap();
        assert_eq!(out.to_string(), "root(c0(#,c0(#,#)))");
    }

    #[test]
    fn flip_k3_reverses_lists() {
        let f = flip_k(3);
        // lists of lengths 1, 0, 2
        let input = xtt_trees::parse_tree("root(c0(#,#),#,c2(#,c2(#,#)))").unwrap();
        assert!(f.domain.accepts(&input));
        let out = eval(&f.dtop, &input).unwrap();
        assert_eq!(out.to_string(), "root(c2(#,c2(#,#)),#,c0(#,#))");
    }

    #[test]
    fn library_translates_paper_example() {
        let f = library();
        let s2 = library_input(2);
        assert!(f.domain.accepts(&s2));
        let t2 = eval(&f.dtop, &s2).unwrap();
        let expected = "L(S(T*(T(P),T*(T(P),T*(#,#)))),B*(B(T(P),A(P)),B*(B(T(P),A(P)),B*(#,#))))";
        assert_eq!(t2.to_string(), expected);
    }

    #[test]
    fn library_empty_catalog() {
        let f = library();
        let s0 = library_input(0);
        let t0 = eval(&f.dtop, &s0).unwrap();
        assert_eq!(t0.to_string(), "L(S(T*(#,#)),B*(#,#))");
    }

    #[test]
    fn relabel_chain_cycles_labels() {
        let f = relabel_chain(3);
        let input = xtt_trees::parse_tree("f(f(f(f(e))))").unwrap();
        let out = eval(&f.dtop, &input).unwrap();
        assert_eq!(out.to_string(), "g0(g1(g2(g0(e))))");
    }

    #[test]
    fn flip_input_builder() {
        assert_eq!(flip_input(0, 0).to_string(), "root(#,#)");
        assert_eq!(flip_input(2, 1).to_string(), "root(a(#,a(#,#)),b(#,#))");
    }
}
