//! Every concrete artifact exhibited in the paper, checked end to end
//! through the facade crate.

use xtt::learn::strings::{sequential_to_dtop, StringAlphabet};
use xtt::prelude::*;
use xtt::transducer::examples as fixtures;
use xtt::transducer::{state_io_paths, QId};

/// §1: the minimal earliest uniform dtop Mflip has 4 states, the axiom
/// root(⟨q1,x0⟩,⟨q2,x0⟩), and the six listed rules.
#[test]
fn section1_mflip_shape() {
    let fix = fixtures::flip();
    let m = &fix.dtop;
    assert_eq!(m.state_count(), 4);
    let text = m.to_string();
    for expected in [
        "ax = root(<q1,x0>,<q2,x0>)",
        "q1(root(x1,x2)) -> <q3,x2>",
        "q2(root(x1,x2)) -> <q4,x1>",
        "q3(#) -> #",
        "q3(b(x1,x2)) -> b(#,<q3,x2>)",
        "q4(#) -> #",
        "q4(a(x1,x2)) -> a(#,<q4,x2>)",
    ] {
        assert!(text.contains(expected), "missing {expected:?} in\n{text}");
    }
}

/// §1: τflip has exactly 4 equivalence classes with the listed shortest
/// representatives.
#[test]
fn section1_flip_io_paths() {
    let fix = fixtures::flip();
    let canon = canonical_form(&fix.dtop, Some(&fix.domain)).unwrap();
    let paths: Vec<String> = state_io_paths(&canon)
        .iter()
        .map(ToString::to_string)
        .collect();
    assert_eq!(
        paths,
        vec![
            "(ε; (root,1))",
            "(ε; (root,2))",
            "((root,2); (root,1))",
            "((root,1); (root,2))",
        ]
    );
}

/// §1 / Example 7: the four-pair characteristic sample infers Mflip.
#[test]
fn section1_flip_characteristic_sample() {
    let fix = fixtures::flip();
    let pairs = [
        ("root(#,#)", "root(#,#)"),
        ("root(a(#,#),#)", "root(#,a(#,#))"),
        ("root(#,b(#,#))", "root(b(#,#),#)"),
        (
            "root(a(#,a(#,#)),b(#,b(#,#)))",
            "root(b(#,b(#,#)),a(#,a(#,#)))",
        ),
    ];
    let sample = Sample::from_pairs(
        pairs
            .iter()
            .map(|(s, t)| (parse_tree(s).unwrap(), parse_tree(t).unwrap())),
    )
    .unwrap();
    let learned = rpni_dtop(&sample, &fix.domain, fix.dtop.output()).unwrap();
    assert!(equivalent(
        &learned.dtop,
        Some(&fix.domain),
        &fix.dtop,
        Some(&fix.domain)
    )
    .unwrap());
}

/// Example 1 + Example 2: M1 is earliest; M2 and M3 are not, and all three
/// are equivalent.
#[test]
fn examples_1_and_2_constant_transducers() {
    let m1 = fixtures::constant_m1();
    let m2 = fixtures::constant_m2();
    let m3 = fixtures::constant_m3();
    // all three map everything to b
    for input in ["a", "f(a,a)", "f(f(a,a),a)"] {
        let t = parse_tree(input).unwrap();
        for fix in [&m1, &m2, &m3] {
            assert_eq!(eval(&fix.dtop, &t).unwrap().to_string(), "b");
        }
    }
    // M1 already earliest (axiom only); the canonical form of M2/M3 is M1
    for fix in [&m2, &m3] {
        let c = canonical_form(&fix.dtop, Some(&fix.domain)).unwrap();
        assert_eq!(c.dtop.state_count(), 0);
        assert_eq!(c.dtop.show_rhs(c.dtop.axiom(), true), "b");
    }
}

/// Example 3: τ = {(f(0,0),0),(f(0,1),0),(f(1,0),0),(f(1,1),1)} has (ε,ε)
/// as its only io-path and is not realizable by any dtop — the learner
/// cannot find a consistent alignment.
#[test]
fn example_3_not_top_down() {
    let alpha = RankedAlphabet::from_pairs([("f", 2), ("0", 0), ("1", 0)]);
    let mut d = DttaBuilder::new(alpha.clone());
    let root = d.add_state("root");
    let bit = d.add_state("bit");
    d.add_transition(root, Symbol::new("f"), vec![bit, bit])
        .unwrap();
    d.add_transition(bit, Symbol::new("0"), vec![]).unwrap();
    d.add_transition(bit, Symbol::new("1"), vec![]).unwrap();
    let domain = d.build().unwrap();

    let sample = Sample::from_pairs([
        (parse_tree("f(0,0)").unwrap(), parse_tree("0").unwrap()),
        (parse_tree("f(0,1)").unwrap(), parse_tree("0").unwrap()),
        (parse_tree("f(1,0)").unwrap(), parse_tree("0").unwrap()),
        (parse_tree("f(1,1)").unwrap(), parse_tree("1").unwrap()),
    ])
    .unwrap();
    // out_S(ε) = ⊥, and no child alignment for the hole is functional:
    // p = ((f,1),ε) has residual {(0,0),(1,0),(1,1)} — not functional.
    let err = rpni_dtop(&sample, &domain, &alpha).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("no functional alignment"), "{msg}");
}

/// Example 6: the four variants all define the restricted identity on
/// D = {f(c,a), f(c,b)}; their canonical form is M1 (2 states), and no
/// dtop realizes τ without inspection.
#[test]
fn example_6_compatibility() {
    let variants = [
        fixtures::example6_m0(),
        fixtures::example6_m1(),
        fixtures::example6_m2(),
        fixtures::example6_m3(),
    ];
    for fix in &variants {
        for (input, output) in [("f(c,a)", "f(c,a)"), ("f(c,b)", "f(c,b)")] {
            assert_eq!(
                eval(&fix.dtop, &parse_tree(input).unwrap()).unwrap(),
                parse_tree(output).unwrap()
            );
        }
    }
    let canon: Vec<Canonical> = variants
        .iter()
        .map(|f| canonical_form(&f.dtop, Some(&f.domain)).unwrap())
        .collect();
    for c in &canon[1..] {
        assert!(same_canonical(&canon[0], c));
    }
    assert_eq!(canon[0].dtop.state_count(), 2);
    // the deletion happens in the axiom: f(c, ⟨q0,x0⟩)
    assert_eq!(
        canon[0].dtop.show_rhs(canon[0].dtop.axiom(), true),
        "f(c,<q0,x0>)"
    );
}

/// §10: the library transformation — swap, copy, delete — is learned from
/// a generated characteristic sample; experiment E2 (`exp_e2_library`)
/// prints the paper-vs-measured state counts (paper: 14; measured: 15 —
/// the paper's rule table uses one state for two different node kinds).
#[test]
fn section10_library_learned() {
    let fix = fixtures::library();
    let target = canonical_form(&fix.dtop, None).unwrap();
    assert_eq!(target.dtop.state_count(), 15);
    let sample = characteristic_sample(&target).unwrap();
    let learned = rpni_dtop(&sample, &target.domain, target.dtop.output()).unwrap();
    let got = canonical_form(&learned.dtop, Some(&target.domain)).unwrap();
    assert!(same_canonical(&target, &got));

    // spot-check the translation of s2 (two books)
    let s2 = fixtures::library_input(2);
    assert_eq!(eval(&learned.dtop, &s2), eval(&fix.dtop, &s2),);
}

/// §10 intro claim: dtops over DTD encodings realize xmlflip; the encoded
/// example from §1 translates as displayed.
#[test]
fn section10_xmlflip_encoding() {
    use xtt::xml::xmlflip;
    let enc_in = xmlflip::input_encoding();
    let enc_out = xmlflip::output_encoding();
    let doc = xmlflip::document(2, 1);
    let input = enc_in.encode(&doc).unwrap();
    let m = xmlflip::target_dtop();
    let out = eval(&m, &input).unwrap();
    assert_eq!(out, enc_out.encode(&xmlflip::flip_document(&doc)).unwrap());
}

/// Related work: minimal subsequential string transducers over monadic
/// trees.
#[test]
fn string_transducers_via_monadic_trees() {
    let input = StringAlphabet::new(&['a', 'b']);
    let output = StringAlphabet::new(&['x', 'y']);
    // swap a↔b, as strings
    let delta = vec![
        ((0, 'a'), (0, "y".to_owned())),
        ((0, 'b'), (0, "x".to_owned())),
    ];
    let target = sequential_to_dtop(&input, &output, 1, &delta, &[(0, String::new())]).unwrap();
    assert_eq!(target.dtop.state_count(), 1);
    let sample = characteristic_sample(&target).unwrap();
    let learned = rpni_dtop(&sample, &target.domain, target.dtop.output()).unwrap();
    let got = canonical_form(&learned.dtop, Some(&target.domain)).unwrap();
    assert!(same_canonical(&target, &got));
}

/// Section 6's motivating counterexample: τ = {(f(c,a),a),(f(c,b),b)}
/// cannot be realized without inspection, but min(τ) with inspection
/// exists and deletes the first subtree.
#[test]
fn section6_deletion_needs_inspection() {
    let fix = fixtures::example6_m1();
    let canon = canonical_form(&fix.dtop, Some(&fix.domain)).unwrap();
    // q0 deletes x1 (no call mentions it) — the c-subtree is checked only
    // by the domain automaton
    let q0 = QId(0);
    let f = Symbol::new("f");
    let rhs = canon.dtop.rule(q0, f).unwrap();
    let calls = rhs.calls();
    assert_eq!(calls.len(), 1);
    assert_eq!(calls[0].2, 1, "only x2 is used");
    // the evaluator alone accepts junk in the deleted slot...
    let junk = parse_tree("f(a,b)").unwrap();
    assert!(eval(&canon.dtop, &junk).is_some());
    // ...but the domain automaton rejects it
    assert!(!canon.domain.accepts(&junk));
}
