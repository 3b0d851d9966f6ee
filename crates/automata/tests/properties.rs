//! Property-based tests for DTTAs over randomly generated automata.

use proptest::prelude::*;
use xtt_automata::{
    enumerate_language, intersect, language_classes, language_equal, minimal_witnesses,
    nonempty_states, parse_dtta, trim, Dtta, DttaBuilder, StateId,
};
use xtt_trees::gen::AWKWARD_NAMES;
use xtt_trees::{FPath, RankedAlphabet, Symbol, Tree};

/// The table's letters and their ranks.
const LETTERS: [(&str, usize); 4] = [("f", 2), ("g", 1), ("a", 0), ("b", 0)];

/// Builds a random DTTA from a transition table description: for each
/// (state, symbol), an optional list of child states.
fn build(n_states: usize, table: &[TableRow]) -> Dtta {
    let states: Vec<String> = (0..n_states).map(|i| format!("s{i}")).collect();
    build_named(&states, LETTERS.map(|(letter, _)| letter), table)
}

/// [`build`] with its states and its letters `f`, `g`, `a`, `b` named as
/// given.
fn build_named(states: &[String], letters: [&str; 4], table: &[TableRow]) -> Dtta {
    let alpha = RankedAlphabet::from_pairs(letters.into_iter().zip(LETTERS.map(|(_, r)| r)));
    let mut b = DttaBuilder::new(alpha.clone());
    let ids: Vec<StateId> = states
        .iter()
        .map(|name| b.add_state(name.clone()))
        .collect();
    let n_states = ids.len();
    for (q, sym, children) in table {
        let kids: Vec<StateId> = children.iter().map(|&c| ids[c % n_states]).collect();
        let letter = LETTERS.iter().position(|&(l, _)| l == *sym).unwrap();
        let symbol = Symbol::new(letters[letter]);
        let rank = alpha.rank(symbol).unwrap();
        if kids.len() == rank {
            b.add_transition(ids[*q % n_states], symbol, kids).unwrap();
        }
    }
    b.build().unwrap()
}

/// A raw transition-table row: (state, symbol, child states).
type TableRow = (usize, &'static str, Vec<usize>);

/// Strategy producing random transition tables.
fn arb_table() -> impl Strategy<Value = (usize, Vec<TableRow>)> {
    let entry = (
        0usize..4,
        prop_oneof![Just("f"), Just("g"), Just("a"), Just("b")],
        proptest::collection::vec(0usize..4, 0..2),
    )
        .prop_map(|(q, s, mut kids)| {
            let rank = LETTERS.iter().find(|&&(l, _)| l == s).unwrap().1;
            kids.resize(rank, 0);
            (q, s, kids)
        });
    (2usize..5, proptest::collection::vec(entry, 1..14))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn trim_preserves_language((n, table) in arb_table()) {
        let a = build(n, &table);
        let t = trim(&a);
        for tree in xtt_trees::gen::enumerate_trees(a.alphabet(), 60, 6) {
            prop_assert_eq!(a.accepts(&tree), t.accepts(&tree), "on {}", tree);
        }
    }

    #[test]
    fn intersection_is_conjunction((n1, t1) in arb_table(), (n2, t2) in arb_table()) {
        let a = build(n1, &t1);
        let b = build(n2, &t2);
        let p = intersect(&a, &b);
        for tree in xtt_trees::gen::enumerate_trees(a.alphabet(), 60, 6) {
            prop_assert_eq!(p.accepts(&tree), a.accepts(&tree) && b.accepts(&tree));
        }
    }

    #[test]
    fn nonempty_agrees_with_enumeration((n, table) in arb_table()) {
        let a = build(n, &table);
        let nonempty = nonempty_states(&a);
        for q in a.states() {
            let found = !enumerate_language(&a, q, 1, 8).is_empty();
            // enumeration is bounded; only check the positive direction
            // at small size, and that empty-flagged states yield nothing
            if !nonempty[q.index()] {
                prop_assert!(!found, "empty state produced a tree");
            }
        }
    }

    #[test]
    fn witnesses_are_accepted_and_minimal((n, table) in arb_table()) {
        let a = build(n, &table);
        let wit = minimal_witnesses(&a);
        for q in a.states() {
            if let Some(w) = &wit[q.index()] {
                prop_assert!(a.accepts_from(q, w));
                // nothing smaller is accepted
                for smaller in enumerate_language(&a, q, 5, (w.size() as usize).saturating_sub(1)) {
                    prop_assert!(smaller.size() >= w.size());
                }
            }
        }
    }

    #[test]
    fn language_classes_respect_enumeration((n, table) in arb_table()) {
        let a = build(n, &table);
        let classes = language_classes(&a);
        let probe = xtt_trees::gen::enumerate_trees(a.alphabet(), 40, 5);
        for q1 in a.states() {
            for q2 in a.states() {
                if classes[q1.index()] == classes[q2.index()] {
                    for t in &probe {
                        prop_assert_eq!(
                            a.accepts_from(q1, t),
                            a.accepts_from(q2, t),
                            "states {} and {} same class but differ on {}", q1, q2, t
                        );
                    }
                }
            }
        }
    }

    /// States and letters named from [`AWKWARD_NAMES`] read back from the
    /// rendering as the same language.
    #[test]
    fn display_parse_roundtrip_with_awkward_names(
        (n, table) in arb_table(),
        state_at in 0usize..11,
        letter_at in 0usize..11,
    ) {
        let name = |i: usize| AWKWARD_NAMES[i % AWKWARD_NAMES.len()];
        let states: Vec<String> = (0..n).map(|i| name(state_at + i).to_owned()).collect();
        let letters = [0, 1, 2, 3].map(|i| name(letter_at + i));
        let a = build_named(&states, letters, &table);
        let text = a.to_string();
        match parse_dtta(&text) {
            Ok(back) => prop_assert!(language_equal(&a, &back), "read back another language:\n{}", text),
            Err(e) => prop_assert!(false, "{}:\n{}", e, text),
        }
    }

    #[test]
    fn residual_states_accept_subtrees((n, table) in arb_table()) {
        let a = build(n, &table);
        for tree in enumerate_language(&a, a.initial(), 20, 8) {
            for path in tree.node_paths() {
                let u = FPath::of_node_path(&tree, &path).unwrap();
                let q = a.residual(&u);
                prop_assert!(q.is_some(), "accepted tree has dead path {}", u);
                let sub: Tree = tree.subtree_at(&path).unwrap();
                prop_assert!(a.accepts_from(q.unwrap(), &sub));
            }
        }
    }
}
