//! Composition of dtops.
//!
//! Total deterministic top-down tree transducers are closed under
//! composition (\[Engelfriet 1975\] — reference \[8\] of the paper, also the
//! basis of the paper's remark that dtops are "a large and well-studied
//! class"). The construction is a product: a state of `M₂ ∘ M₁` is a pair
//! `(q₂, q₁)`; its rule on `f` is obtained by *symbolically running* `M₂`
//! from `q₂` on the right-hand side `rhs₁(q₁, f)`, where hitting a call
//! `⟨q₁', x_i⟩` of `M₁` suspends `M₂` in its current state `q₂'` and emits
//! the pair call `⟨(q₂', q₁'), x_i⟩`.
//!
//! For *partial* transducers the construction stays sound but may lose
//! domain: when `M₂` is undefined on some rigid output of `M₁` the pair
//! rule is dropped, so `dom(compose(M₂,M₁)) ⊆ dom(⟦M₂⟧ ∘ ⟦M₁⟧)`; for the
//! total case (the classical theorem) the domains coincide. Composing the
//! result with [`crate::equiv::canonical_form`] yields the minimal
//! transducer of the composed transduction.

use std::collections::HashMap;

use crate::dtop::{Dtop, DtopBuilder, DtopError};
use crate::rhs::{QId, Rhs};

/// Builds a dtop realizing `⟦m2⟧ ∘ ⟦m1⟧` (first `m1`, then `m2`).
///
/// `m2`'s input alphabet must contain `m1`'s output alphabet. Fails only
/// on alphabet inconsistencies; partiality of either machine shrinks the
/// composed domain as described in the module docs.
pub fn compose(m2: &Dtop, m1: &Dtop) -> Result<Dtop, DtopError> {
    let mut composer = Composer {
        m1,
        m2,
        builder: DtopBuilder::new(m1.input().clone(), m2.output().clone()),
        pairs: HashMap::new(),
        order: Vec::new(),
        cur_q1: None,
    };
    // axiom: run m2's axiom; each ⟨q2,x0⟩ runs q2 on m1's axiom.
    let m2_axiom = m2.axiom().clone();
    let axiom = composer.expand_m2_rhs(&m2_axiom, &mut |this, q2| {
        let m1_axiom = m1.axiom().clone();
        this.run_state_on_rhs(q2, &m1_axiom)
    })?;
    let axiom = match axiom {
        Some(ax) => ax,
        // m2 is undefined on m1's rigid axiom output: empty transduction,
        // representable as an empty-domain machine via a never-matching
        // state... simplest honest signal is an error-free empty dtop: we
        // keep a single state with no rules.
        None => {
            let mut b = DtopBuilder::new(m1.input().clone(), m2.output().clone());
            let dead = b.add_state("dead");
            b.set_axiom(Rhs::Call {
                state: dead,
                child: 0,
            });
            return b.build();
        }
    };
    composer.builder.set_axiom(axiom);

    // process pair states breadth-first
    let mut i = 0;
    while i < composer.order.len() {
        let (q2, q1) = composer.order[i];
        let id = composer.pairs[&(q2, q1)];
        i += 1;
        composer.cur_q1 = Some(q1);
        for f in m1.enabled_symbols(q1) {
            let rhs1 = m1.rule(q1, f).unwrap().clone();
            if let Some(rhs) = composer.run_state_on_rhs(q2, &rhs1)? {
                composer.builder.add_rule(id, f, rhs)?;
            }
            // None: m2 undefined on this branch — rule dropped (domain
            // shrinks for partial m2).
        }
    }
    composer.builder.build()
}

/// Callback expanding one `⟨q2,x0⟩` call while walking an `m2` rhs.
type OnCall<'a, 'b> = dyn FnMut(&mut Composer<'a>, QId) -> Result<Option<Rhs>, DtopError> + 'b;

struct Composer<'a> {
    m1: &'a Dtop,
    m2: &'a Dtop,
    builder: DtopBuilder,
    pairs: HashMap<(QId, QId), QId>,
    order: Vec<(QId, QId)>,
    /// The `m1` state whose rules are currently being expanded; `None`
    /// while expanding the axiom. Only used to position error reports.
    cur_q1: Option<QId>,
}

impl<'a> Composer<'a> {
    fn pair(&mut self, q2: QId, q1: QId) -> QId {
        if let Some(&id) = self.pairs.get(&(q2, q1)) {
            return id;
        }
        let name = format!("{}∘{}", self.m2.state_name(q2), self.m1.state_name(q1));
        let id = self.builder.add_state(name);
        self.pairs.insert((q2, q1), id);
        self.order.push((q2, q1));
        id
    }

    /// Runs `m2` state `q2` on an rhs of `m1` (a tree over `m1`-output
    /// symbols with `⟨q1', x_i⟩` leaves). Returns `None` when `m2` has no
    /// rule for a rigid symbol encountered.
    fn run_state_on_rhs(&mut self, q2: QId, rhs1: &Rhs) -> Result<Option<Rhs>, DtopError> {
        match rhs1 {
            Rhs::Call { state: q1p, child } => {
                let id = self.pair(q2, *q1p);
                Ok(Some(Rhs::Call {
                    state: id,
                    child: *child,
                }))
            }
            Rhs::Out(sym, kids) => {
                let Some(rule2) = self.m2.rule(q2, *sym) else {
                    if self.m2.input().rank(*sym).is_none() {
                        // `m1` emits a symbol `m2` cannot even name: that is
                        // an alphabet wiring bug, not partiality — report it
                        // with the offending pair instead of silently
                        // shrinking the domain to nothing.
                        return Err(DtopError::Compose {
                            q2: self.m2.state_name(q2).to_owned(),
                            q1: self
                                .cur_q1
                                .map(|q| self.m1.state_name(q).to_owned())
                                .unwrap_or_else(|| "axiom".to_owned()),
                            symbol: *sym,
                        });
                    }
                    return Ok(None);
                };
                let rule2 = rule2.clone();
                // expand m2's rule; its variable x_j refers to kids[j]
                let kids = kids.clone();
                self.expand_with_children(&rule2, &kids)
            }
        }
    }

    /// Expands an `m2` rhs whose variables refer to the given `m1`-rhs
    /// children.
    fn expand_with_children(
        &mut self,
        rhs2: &Rhs,
        children: &[Rhs],
    ) -> Result<Option<Rhs>, DtopError> {
        match rhs2 {
            Rhs::Call { state, child } => self.run_state_on_rhs(*state, &children[*child].clone()),
            Rhs::Out(sym, kids) => {
                let mut out = Vec::with_capacity(kids.len());
                for k in kids {
                    match self.expand_with_children(k, children)? {
                        Some(r) => out.push(r),
                        None => return Ok(None),
                    }
                }
                Ok(Some(Rhs::Out(*sym, out)))
            }
        }
    }

    /// Expands an `m2` rhs whose variables all refer to `x0` (axiom case);
    /// `on_call` produces the expansion of each ⟨q2,x0⟩.
    fn expand_m2_rhs(
        &mut self,
        rhs2: &Rhs,
        on_call: &mut OnCall<'a, '_>,
    ) -> Result<Option<Rhs>, DtopError> {
        match rhs2 {
            Rhs::Call { state, .. } => on_call(self, *state),
            Rhs::Out(sym, kids) => {
                let mut out = Vec::with_capacity(kids.len());
                for k in kids {
                    match self.expand_m2_rhs(k, on_call)? {
                        Some(r) => out.push(r),
                        None => return Ok(None),
                    }
                }
                Ok(Some(Rhs::Out(*sym, out)))
            }
        }
    }
}

/// The identity transducer over an alphabet (handy composition unit).
pub fn identity(alphabet: &xtt_trees::RankedAlphabet) -> Dtop {
    let mut b = DtopBuilder::new(alphabet.clone(), alphabet.clone());
    let q = b.add_state("id");
    b.set_axiom(Rhs::Call { state: q, child: 0 });
    for &f in alphabet.symbols() {
        let rank = alphabet.rank(f).unwrap();
        let kids = (0..rank)
            .map(|i| Rhs::Call { state: q, child: i })
            .collect();
        b.add_rule(q, f, Rhs::Out(f, kids)).unwrap();
    }
    b.build().unwrap()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::eval;
    use crate::examples;
    use crate::random::{random_total_dtop, RandomDtopConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use xtt_trees::{gen::enumerate_trees, RankedAlphabet};

    #[test]
    fn identity_is_a_unit() {
        let fix = examples::flip();
        let id_out = identity(fix.dtop.output());
        let composed = compose(&id_out, &fix.dtop).unwrap();
        for t in enumerate_trees(fix.dtop.input(), 100, 9) {
            assert_eq!(eval(&composed, &t), eval(&fix.dtop, &t), "on {t}");
        }
        let id_in = identity(fix.dtop.input());
        let composed2 = compose(&fix.dtop, &id_in).unwrap();
        for t in enumerate_trees(fix.dtop.input(), 100, 9) {
            assert_eq!(eval(&composed2, &t), eval(&fix.dtop, &t), "on {t}");
        }
    }

    #[test]
    fn doubling_then_relabeling() {
        // M1: monadic f^n(e) → full binary g-tree; M2: relabel g→h.
        let m1 = examples::monadic_to_binary().dtop;
        let g_alpha = RankedAlphabet::from_pairs([("g", 2), ("e", 0)]);
        let h_alpha = RankedAlphabet::from_pairs([("h", 2), ("e", 0)]);
        let mut b = DtopBuilder::new(g_alpha, h_alpha);
        b.add_state("r");
        b.set_axiom_str("<r,x0>").unwrap();
        b.add_rule_str("r", "g", "h(<r,x1>,<r,x2>)").unwrap();
        b.add_rule_str("r", "e", "e").unwrap();
        let m2 = b.build().unwrap();

        let composed = compose(&m2, &m1).unwrap();
        let input = xtt_trees::parse_tree("f(f(f(e)))").unwrap();
        let expected = eval(&m2, &eval(&m1, &input).unwrap()).unwrap();
        assert_eq!(eval(&composed, &input).unwrap(), expected);
        assert_eq!(expected.symbol().name(), "h");
    }

    #[test]
    fn random_total_compositions_agree_pointwise() {
        // The classical closure theorem, fuzz-checked: for random total
        // dtops, ⟦compose(M2,M1)⟧ = ⟦M2⟧ ∘ ⟦M1⟧ on enumerated inputs.
        let in_alpha = RankedAlphabet::from_pairs([("f", 2), ("a", 0)]);
        let mid_alpha = RankedAlphabet::from_pairs([("g", 2), ("u", 1), ("b", 0)]);
        let out_alpha = RankedAlphabet::from_pairs([("h", 1), ("c", 0), ("d", 0)]);
        let config = RandomDtopConfig {
            n_states: 3,
            max_rhs_depth: 2,
            call_percent: 50,
        };
        for seed in 0..25u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let m1 = random_total_dtop(&mut rng, &in_alpha, &mid_alpha, &config);
            let m2 = random_total_dtop(&mut rng, &mid_alpha, &out_alpha, &config);
            let composed = compose(&m2, &m1).unwrap();
            for t in enumerate_trees(&in_alpha, 60, 7) {
                let direct = eval(&m1, &t).and_then(|mid| eval(&m2, &mid));
                assert_eq!(
                    eval(&composed, &t),
                    direct,
                    "seed {seed}: composition differs on {t}"
                );
            }
        }
    }

    #[test]
    fn out_of_alphabet_emission_names_the_offending_pair() {
        // m1 : f(x) → wrap(<q,x1>), a → leaf ... but `wrap`/`leaf` are not
        // in m2's input alphabet, so m1's range misses m2's domain for a
        // structural reason compose must report, not swallow.
        let in_alpha = RankedAlphabet::from_pairs([("f", 1), ("a", 0)]);
        let mid_alpha = RankedAlphabet::from_pairs([("wrap", 1), ("leaf", 0)]);
        let mut b1 = DtopBuilder::new(in_alpha, mid_alpha);
        b1.add_state("p");
        b1.set_axiom_str("<p,x0>").unwrap();
        b1.add_rule_str("p", "f", "wrap(<p,x1>)").unwrap();
        b1.add_rule_str("p", "a", "leaf").unwrap();
        let m1 = b1.build().unwrap();

        // m2 speaks a disjoint alphabet entirely.
        let other = RankedAlphabet::from_pairs([("g", 1), ("b", 0)]);
        let m2 = identity(&other);

        let err = compose(&m2, &m1).unwrap_err();
        match err {
            DtopError::Compose {
                ref q2,
                ref q1,
                symbol,
            } => {
                assert_eq!(q2, "id");
                assert_eq!(q1, "p");
                assert_eq!(symbol.name(), "wrap");
            }
            other => panic!("expected positioned Compose error, got {other:?}"),
        }
        let msg = err.to_string();
        assert!(msg.contains("id\u{2218}p"), "unpositioned: {msg}");
        assert!(msg.contains("wrap"), "symbol missing: {msg}");
    }

    #[test]
    fn rigid_axiom_miss_yields_the_empty_transduction() {
        // A partial m2 with *in-alphabet* gaps whose domain misses m1's
        // whole range: compose succeeds (partiality is semantics, not an
        // error) and the result has an empty domain.
        let fix = examples::flip();
        let out = fix.dtop.output().clone();
        let mut b = DtopBuilder::new(out.clone(), out);
        b.add_state("q");
        b.set_axiom_str("<q,x0>").unwrap();
        // `q` only accepts `#`, but flip's outputs are always root(·,·).
        b.add_rule_str("q", "#", "#").unwrap();
        let m2 = b.build().unwrap();
        let composed = compose(&m2, &fix.dtop).unwrap();
        for t in enumerate_trees(fix.dtop.input(), 60, 7) {
            assert_eq!(eval(&composed, &t), None, "domain must be empty on {t}");
        }
        assert!(xtt_automata::is_empty(&crate::domain::domain_dtta(
            &composed, None
        )));
    }

    #[test]
    fn partial_m2_shrinks_domain_soundly() {
        // m2 only accepts outputs whose root is `a`; composition must be
        // undefined exactly where m1's output starts differently.
        let fix = examples::flip();
        let out = fix.dtop.output().clone();
        let mut b = DtopBuilder::new(out.clone(), out.clone());
        b.add_state("q");
        b.add_state("copy");
        b.set_axiom_str("<q,x0>").unwrap();
        // m2 copies root(·,·) but its `copy` state has no rule for `root`,
        // so m2 is partial on nested roots (and total elsewhere)
        b.add_rule_str("q", "root", "root(<copy,x1>,<copy,x2>)")
            .unwrap();
        for sym in ["a", "b"] {
            b.add_rule_str("copy", sym, &format!("{sym}(<copy,x1>,<copy,x2>)"))
                .unwrap();
        }
        b.add_rule_str("copy", "#", "#").unwrap();
        let m2 = b.build().unwrap();
        let composed = compose(&m2, &fix.dtop).unwrap();
        for t in enumerate_trees(fix.dtop.input(), 80, 9) {
            let direct = eval(&fix.dtop, &t).and_then(|mid| eval(&m2, &mid));
            assert_eq!(eval(&composed, &t), direct, "on {t}");
        }
    }
}
