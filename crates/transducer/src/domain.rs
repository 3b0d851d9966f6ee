//! The domain automaton of a dtop.
//!
//! The domain of a dtop is accepted by a deterministic top-down tree
//! automaton (Proposition 2 via [Engelfriet, Maneth & Seidl 2009,
//! Prop. 2(1)]). The classic construction is a *subset construction*: the
//! automaton state at a node is the **set** of transducer states that
//! process the node (the "state sequence" of Definition 3), optionally
//! paired with the state of an external inspection DTTA.
//!
//! `s ∈ dom(⟦M⟧|_{L(A)})` iff at every node of `s`, every transducer state
//! in the node's set has a rule for the node's symbol, and `A` accepts `s`.
//! The returned automaton is trimmed: every state has a nonempty language
//! and every transition is live.

use std::collections::{BTreeSet, HashMap};

use xtt_automata::{trim, Dtta, DttaBuilder, StateId};

use crate::dtop::Dtop;
use crate::rhs::QId;

/// One subset-construction state: for each machine run in parallel, the
/// set of its transducer states processing the node, plus the inspection
/// state (if any). [`domain_dtta_raw`] runs one machine; the chain
/// variants run every composed prefix of a pipeline at once.
type SubsetState = (Vec<BTreeSet<QId>>, Option<StateId>);

/// The untrimmed subset automaton of [`domain_dtta_raw`], with the
/// bookkeeping a runtime guard needs: `skip_state` is the `∅` subset
/// state — the node is *deleted* by the run, no transducer state ever
/// inspects it, so a guard may accept the whole subtree without looking
/// (even at symbols outside the declared alphabet, which is exactly what
/// evaluation does).
pub struct RawDomain {
    pub dtta: Dtta,
    pub skip_state: Option<StateId>,
}

/// Builds a trimmed DTTA recognizing `dom(⟦M⟧) ∩ L(inspection)`
/// (or `dom(⟦M⟧)` if no inspection automaton is given).
pub fn domain_dtta(m: &Dtop, inspection: Option<&Dtta>) -> Dtta {
    trim(&domain_dtta_raw(m, inspection).dtta)
}

/// The *untrimmed* subset automaton. Same language as [`domain_dtta`],
/// but every reachable subset state is kept, so a run over a tree fails
/// exactly at the first (pre-order) node where some transducer state
/// lacks a rule — the property the fail-fast typecheck guard needs for
/// its diagnostics. (Trimming would reject earlier: a transition into an
/// empty-language state is removed, moving the failure up the tree.)
pub fn domain_dtta_raw(m: &Dtop, inspection: Option<&Dtta>) -> RawDomain {
    chain_domain_raw(&[m], inspection)
}

/// Trimmed DTTA recognizing `⋂ᵢ dom(⟦Mᵢ⟧) ∩ L(inspection)` for machines
/// sharing one input alphabet. See [`chain_domain_raw`] for why a
/// pipeline needs the intersection over its composed prefixes.
pub fn chain_domain_dtta(ms: &[&Dtop], inspection: Option<&Dtta>) -> Dtta {
    trim(&chain_domain_raw(ms, inspection).dtta)
}

/// The untrimmed subset automaton of `⋂ᵢ dom(⟦Mᵢ⟧) ∩ L(inspection)`,
/// running every machine's subset construction in lockstep.
///
/// This is the exact domain of a *pipeline chain* when `ms` are the
/// composed prefixes `C₁ = τ₁, C₂ = τ₂∘τ₁, …`: stage-by-stage execution
/// needs every intermediate value **fully** defined, while the final
/// composed product alone evaluates earlier stages lazily — when a later
/// stage deletes part of an earlier stage's output, `dom(Cₙ)` never
/// checks the earlier stage's partiality there and can strictly exceed
/// the chain's domain. Intersecting `dom(Cᵢ)` for every prefix closes
/// that gap: given `t ∈ ⋂_{i<k} dom(Cᵢ)`, the value `C_{k-1}(t)` is fully
/// defined, so `t ∈ dom(C_k)` iff `τ_k` is defined on it.
///
/// The `∅`-everywhere subset is the skip state: no machine ever inspects
/// the node (for prefix chains that is exactly where stage 1 deletes, and
/// later prefixes read subsets of stage 1's positions), so a guard may
/// accept the whole subtree without looking — matching evaluation.
pub fn chain_domain_raw(ms: &[&Dtop], inspection: Option<&Dtta>) -> RawDomain {
    assert!(!ms.is_empty(), "chain domain of zero machines");
    let alphabet = ms[0].input().clone();
    for m in ms {
        assert!(
            *m.input() == alphabet,
            "chain domain machines must share one input alphabet"
        );
    }
    let mut builder = DttaBuilder::new(alphabet.clone());
    let mut ids: HashMap<SubsetState, StateId> = HashMap::new();
    let mut queue: Vec<SubsetState> = Vec::new();

    let initial_sets: Vec<BTreeSet<QId>> = ms
        .iter()
        .map(|m| m.axiom().called_states().into_iter().collect())
        .collect();
    let initial: SubsetState = (initial_sets, inspection.map(Dtta::initial));
    let id0 = builder.add_state(subset_name(ms, inspection, &initial));
    ids.insert(initial.clone(), id0);
    queue.push(initial);

    while let Some(state) = queue.pop() {
        let id = ids[&state];
        let (ref qsets, insp) = state;
        'symbols: for &f in alphabet.symbols() {
            let rank = alphabet.rank(f).unwrap();
            // Inspection must allow f here.
            let insp_children: Option<&[StateId]> = match (inspection, insp) {
                (Some(a), Some(p)) => match a.transition(p, f) {
                    Some(cs) => Some(cs),
                    None => continue 'symbols,
                },
                _ => None,
            };
            // Every state of every machine in the set needs an f-rule.
            let mut child_sets: Vec<Vec<BTreeSet<QId>>> =
                vec![vec![BTreeSet::new(); rank]; ms.len()];
            for (k, m) in ms.iter().enumerate() {
                for &q in &qsets[k] {
                    let Some(rhs) = m.rule(q, f) else {
                        continue 'symbols;
                    };
                    for (_, q2, child) in rhs.calls() {
                        child_sets[k][child].insert(q2);
                    }
                }
            }
            let mut children = Vec::with_capacity(rank);
            for i in 0..rank {
                let sets: Vec<BTreeSet<QId>> = child_sets
                    .iter_mut()
                    .map(|per_m| std::mem::take(&mut per_m[i]))
                    .collect();
                let child_insp = insp_children.map(|cs| cs[i]);
                let child_state: SubsetState = (sets, child_insp);
                let child_id = *ids.entry(child_state.clone()).or_insert_with(|| {
                    queue.push(child_state.clone());
                    builder.add_state(subset_name(ms, inspection, &child_state))
                });
                children.push(child_id);
            }
            builder
                .add_transition(id, f, children)
                .expect("ranks agree by construction");
        }
        assert!(
            ids.len() <= 1_000_000,
            "domain subset construction exceeded 1e6 states"
        );
    }
    let skip_key: SubsetState = (vec![BTreeSet::new(); ms.len()], None);
    let skip_state = ids.get(&skip_key).copied();
    RawDomain {
        dtta: builder.build().expect("has initial state"),
        skip_state,
    }
}

fn subset_name(ms: &[&Dtop], inspection: Option<&Dtta>, s: &SubsetState) -> String {
    let mut name = String::new();
    for (k, (m, set)) in ms.iter().zip(&s.0).enumerate() {
        if k > 0 {
            name.push('|');
        }
        name.push('{');
        for (i, q) in set.iter().enumerate() {
            if i > 0 {
                name.push(',');
            }
            name.push_str(m.state_name(*q));
        }
        name.push('}');
    }
    if let (Some(a), Some(p)) = (inspection, s.1) {
        name.push('@');
        name.push_str(a.state_name(p));
    }
    name
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::eval;
    use crate::examples;
    use xtt_automata::enumerate_language;
    use xtt_trees::parse_tree;

    /// A domain's states are subsets, named like `{qT1s,qT2s,qB1s,qB2s}`:
    /// the rendering quotes them, so the domain reads back as itself.
    #[test]
    fn domains_read_back_language_equal() {
        for fix in [examples::library(), examples::flip(), examples::flip_k(2)] {
            let d = domain_dtta(&fix.dtop, None);
            let text = d.to_string();
            let back = xtt_automata::parse_dtta(&text).unwrap();
            assert_eq!(back.state_count(), d.state_count(), "{text}");
            assert!(xtt_automata::language_equal(&d, &back), "{text}");
        }
    }

    #[test]
    fn flip_domain_without_inspection_is_larger() {
        // (q4, a) deletes its first subtree, so without inspection the
        // domain accepts junk in deleted positions (paper's remark on Mflip).
        let fix = examples::flip();
        let d = domain_dtta(&fix.dtop, None);
        let junk = parse_tree("root(a(b(#,#),#),#)").unwrap();
        assert!(d.accepts(&junk));
        assert!(!fix.domain.accepts(&junk));
        // with inspection, the domain is the intended one
        let di = domain_dtta(&fix.dtop, Some(&fix.domain));
        assert!(!di.accepts(&junk));
        assert!(di.accepts(&parse_tree("root(a(#,#),b(#,#))").unwrap()));
    }

    #[test]
    fn domain_matches_evaluation_on_enumerated_trees() {
        let fix = examples::flip();
        let d = domain_dtta(&fix.dtop, None);
        // dom(⟦M⟧) membership must coincide with eval success
        let all = xtt_trees::gen::enumerate_trees(fix.dtop.input(), 400, 9);
        for t in all {
            assert_eq!(
                d.accepts(&t),
                eval(&fix.dtop, &t).is_some(),
                "domain mismatch on {t}"
            );
        }
    }

    #[test]
    fn domain_with_inspection_matches_restricted_evaluation() {
        let fix = examples::flip();
        let d = domain_dtta(&fix.dtop, Some(&fix.domain));
        let all = xtt_trees::gen::enumerate_trees(fix.dtop.input(), 400, 9);
        for t in all {
            let expected = fix.domain.accepts(&t) && eval(&fix.dtop, &t).is_some();
            assert_eq!(d.accepts(&t), expected, "restricted domain mismatch on {t}");
        }
    }

    #[test]
    fn copying_transducer_intersects_child_constraints() {
        // q(f(x1)) -> g(<qa,x1>,<qb,x1>) where qa wants a, qb wants b:
        // the child is processed by both states, so the domain is empty
        // beyond... actually the child must satisfy both: only trees where
        // both rules exist. qa accepts only "a", qb only "b" ⇒ dom = ∅.
        let input = xtt_trees::RankedAlphabet::from_pairs([("f", 1), ("a", 0), ("b", 0)]);
        let output = xtt_trees::RankedAlphabet::from_pairs([("g", 2), ("a", 0), ("b", 0)]);
        let mut b = crate::dtop::DtopBuilder::new(input, output);
        b.add_state("q");
        b.add_state("qa");
        b.add_state("qb");
        b.set_axiom_str("<q,x0>").unwrap();
        b.add_rule_str("q", "f", "g(<qa,x1>,<qb,x1>)").unwrap();
        b.add_rule_str("qa", "a", "a").unwrap();
        b.add_rule_str("qb", "b", "b").unwrap();
        let m = b.build().unwrap();
        let d = domain_dtta(&m, None);
        assert!(xtt_automata::is_empty(&d));
    }

    #[test]
    fn raw_domain_keeps_language_and_marks_skip_state() {
        let fix = examples::flip();
        let raw = domain_dtta_raw(&fix.dtop, None);
        let trimmed = domain_dtta(&fix.dtop, None);
        assert!(xtt_automata::language_equal(&raw.dtta, &trimmed));
        // (q4, a) deletes its first subtree, so the ∅ subset state is
        // reachable and marked.
        let skip = raw.skip_state.expect("flip deletes subtrees");
        assert_eq!(raw.dtta.state_name(skip), "{}");
        // With inspection there is no uninspected position.
        let insp = domain_dtta_raw(&fix.dtop, Some(&fix.domain));
        assert!(insp.skip_state.is_none());
    }

    #[test]
    fn library_domain_accepts_encodings() {
        let fix = examples::library();
        for n in 0..4 {
            assert!(fix.domain.accepts(&examples::library_input(n)));
        }
        // path-closure member that is not an encoding is still in dom(⟦M⟧):
        // B*(#, B*(#,#)) — junk tail after empty head
        let odd = parse_tree("L(\"B*\"(#,\"B*\"(#,#)))").unwrap();
        assert!(fix.domain.accepts(&odd));
        assert!(eval(&fix.dtop, &odd).is_some());
    }

    #[test]
    fn enumerated_domain_trees_all_evaluate() {
        let fix = examples::library();
        let trees = enumerate_language(&fix.domain, fix.domain.initial(), 60, 24);
        assert!(!trees.is_empty());
        for t in trees {
            assert!(eval(&fix.dtop, &t).is_some(), "in-domain tree failed: {t}");
        }
    }
}
