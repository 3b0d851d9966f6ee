//! Differential property tests for the typecheck subsystem.
//!
//! Transducers are random **partial** dtops, so random inputs routinely
//! fall outside the domain. The inferred domain automaton
//! (`domain_dtta`), the compiled guard (`domain_guard`), and the research
//! evaluator must agree *exactly* on definedness; the guard's diagnostic
//! must point at the first (pre-order) undefined node of the tree-walk
//! run; and on rejection the streaming guard must consume strictly fewer
//! events than the document contains.

use std::collections::BTreeSet;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use xtt_transducer::{
    domain_dtta, eval as walk_eval, random_partial_dtop, Dtop, QId, RandomDtopConfig,
};
use xtt_trees::{gen, NodePath, RankedAlphabet, Tree};
use xtt_typecheck::{domain_guard, output_typecheck, TypecheckVerdict};

fn alphabets() -> (RankedAlphabet, RankedAlphabet) {
    (
        RankedAlphabet::from_pairs([("f", 2), ("g", 1), ("h", 3), ("a", 0), ("b", 0)]),
        RankedAlphabet::from_pairs([("u", 2), ("v", 1), ("c", 0), ("d", 0)]),
    )
}

fn config() -> RandomDtopConfig {
    RandomDtopConfig {
        n_states: 4,
        max_rhs_depth: 3,
        call_percent: 55,
    }
}

fn workload(input: &RankedAlphabet, rng: &mut StdRng) -> Vec<Tree> {
    let mut trees = gen::enumerate_trees(input, 50, 7);
    for _ in 0..6 {
        trees.push(gen::random_tree(input, 60, rng));
    }
    trees
}

/// Reference: the pre-order-first node at which the tree-walk run is
/// undefined — some transducer state processing the node has no rule for
/// its symbol (or a referenced child is absent). `None` when defined.
fn first_undefined(m: &Dtop, t: &Tree) -> Option<NodePath> {
    fn go(m: &Dtop, states: &BTreeSet<QId>, t: &Tree, path: &NodePath) -> Option<NodePath> {
        if states.is_empty() {
            return None; // deleted subtree: never inspected
        }
        let mut child_states: Vec<BTreeSet<QId>> = vec![BTreeSet::new(); t.arity()];
        for &q in states {
            let Some(rhs) = m.rule(q, t.symbol()) else {
                return Some(path.clone());
            };
            for (_, q2, child) in rhs.calls() {
                match child_states.get_mut(child) {
                    Some(set) => {
                        set.insert(q2);
                    }
                    None => return Some(path.child(child as u32)), // missing child
                }
            }
        }
        for (i, (set, sub)) in child_states.iter().zip(t.children()).enumerate() {
            if let Some(found) = go(m, set, sub, &path.child(i as u32)) {
                return Some(found);
            }
        }
        None
    }
    let states: BTreeSet<QId> = m.axiom().called_states().into_iter().collect();
    go(m, &states, t, &NodePath::root())
}

proptest! {
    /// The inferred domain DTTA accepts exactly the inputs on which eval
    /// is defined, and the compiled guard agrees — with the streaming
    /// guard consuming strictly fewer events than the document on
    /// rejection, and its violation path matching the tree-walk run's
    /// first undefined node.
    #[test]
    fn inferred_domain_matches_eval_exactly(seed in any::<u64>(), keep in 35u32..95) {
        let (input, output) = alphabets();
        let mut rng = StdRng::seed_from_u64(seed);
        let m = random_partial_dtop(&mut rng, &input, &output, &config(), keep);
        let domain = domain_dtta(&m, None);
        let guard = domain_guard(&m).unwrap();
        for t in workload(&input, &mut rng) {
            let defined = walk_eval(&m, &t).is_some();
            prop_assert_eq!(domain.accepts(&t), defined, "domain_dtta differs on {}", t);

            let total_events = 2 * t.size();
            let mut run = guard.run();
            match t.events().try_for_each(|event| run.feed(event)).err() {
                None => {
                    prop_assert!(defined, "guard accepted undefined input {}", t);
                    prop_assert_eq!(run.events_consumed(), total_events);
                }
                Some(violation) => {
                    prop_assert!(!defined, "guard rejected defined input {}", t);
                    prop_assert!(
                        run.events_consumed() < total_events,
                        "guard must stop early on {} ({} of {} events)",
                        t, run.events_consumed(), total_events
                    );
                    // The pre-flight tree check reports the same violation...
                    prop_assert_eq!(guard.check_tree(&t), Err(violation.clone()));
                    // ...and it is the tree-walk run's first undefined node.
                    let reference = first_undefined(&m, &t).expect("undefined input");
                    prop_assert_eq!(violation.path(), &reference, "on {}", t);
                }
            }
        }
    }

    /// Output typechecking against the universal schema always passes,
    /// and any counterexample against a random partial schema is real:
    /// in the domain, evaluating, and rejected by the schema.
    #[test]
    fn output_typecheck_counterexamples_are_real(seed in any::<u64>(), keep in 35u32..95) {
        let (input, output) = alphabets();
        let mut rng = StdRng::seed_from_u64(seed);
        let m = random_partial_dtop(&mut rng, &input, &output, &config(), keep);
        let universal = xtt_automata::Dtta::universal(output.clone());
        prop_assert!(output_typecheck(&m, None, &universal).is_well_typed());

        // A schema that forbids one output constant: counterexamples must
        // verify end to end whenever the checker reports one.
        let restricted = {
            let mut b = xtt_automata::DttaBuilder::new(output.clone());
            let s = b.add_state("s");
            for &sym in output.symbols() {
                if sym.name() == "d" {
                    continue;
                }
                let rank = output.rank(sym).unwrap();
                b.add_transition(s, sym, vec![s; rank]).unwrap();
            }
            b.build().unwrap()
        };
        match output_typecheck(&m, None, &restricted) {
            TypecheckVerdict::WellTyped => {}
            TypecheckVerdict::Counterexample { input: t, output: out } => {
                let evaluated = walk_eval(&m, &t);
                prop_assert_eq!(evaluated.as_ref(), Some(&out));
                prop_assert!(!restricted.accepts(&out));
            }
        }
    }
}
