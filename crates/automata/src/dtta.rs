//! Deterministic top-down tree automata (DTTA).
//!
//! A DTTA is defined in the paper as a dtop realizing a partial identity:
//! every rule has the shape `q(f(x₁,…,x_k)) → f(⟨q₁,x₁⟩,…,⟨q_k,x_k⟩)`.
//! Here we store them directly as a transition function
//! `δ : Q × F ⇀ Q^rank(f)` with one initial state. Tree languages accepted
//! by DTTAs are exactly the path-closed regular tree languages (Section 2);
//! domains of dtops are path-closed (Proposition 2), which is why DTTAs are
//! the domain-inspection device used throughout the learning algorithm.

use std::collections::HashMap;
use std::fmt;

use xtt_trees::{FPath, RankedAlphabet, Symbol, TermName, Tree};

/// A state of a [`Dtta`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StateId(pub u32);

impl StateId {
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for StateId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// A deterministic top-down tree automaton.
#[derive(Clone, Debug)]
pub struct Dtta {
    alphabet: RankedAlphabet,
    state_names: Vec<String>,
    initial: StateId,
    /// `δ(q, f) = (q₁,…,q_k)`; absence means the transition is undefined.
    delta: HashMap<(StateId, Symbol), Vec<StateId>>,
}

/// Errors raised when assembling an ill-formed automaton.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DttaError {
    UnknownSymbol(Symbol),
    RankMismatch {
        symbol: Symbol,
        expected: usize,
        got: usize,
    },
    NoStates,
}

impl fmt::Display for DttaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DttaError::UnknownSymbol(s) => write!(f, "symbol {s} is not in the alphabet"),
            DttaError::RankMismatch {
                symbol,
                expected,
                got,
            } => write!(
                f,
                "transition on {symbol} has {got} successor states, rank is {expected}"
            ),
            DttaError::NoStates => write!(f, "automaton must have at least one state"),
        }
    }
}

impl std::error::Error for DttaError {}

/// Incremental construction of a [`Dtta`].
#[derive(Clone, Debug)]
pub struct DttaBuilder {
    alphabet: RankedAlphabet,
    state_names: Vec<String>,
    initial: Option<StateId>,
    delta: HashMap<(StateId, Symbol), Vec<StateId>>,
}

impl DttaBuilder {
    pub fn new(alphabet: RankedAlphabet) -> Self {
        DttaBuilder {
            alphabet,
            state_names: Vec::new(),
            initial: None,
            delta: HashMap::new(),
        }
    }

    /// Adds a fresh state. The first state added becomes the initial state
    /// unless [`set_initial`](Self::set_initial) is called.
    pub fn add_state(&mut self, name: impl Into<String>) -> StateId {
        let id = StateId(u32::try_from(self.state_names.len()).expect("too many states"));
        self.state_names.push(name.into());
        if self.initial.is_none() {
            self.initial = Some(id);
        }
        id
    }

    pub fn set_initial(&mut self, q: StateId) {
        self.initial = Some(q);
    }

    /// Defines `δ(q, f) = children`. Overwrites any previous definition
    /// (the automaton is deterministic by construction).
    pub fn add_transition(
        &mut self,
        q: StateId,
        f: Symbol,
        children: Vec<StateId>,
    ) -> Result<(), DttaError> {
        let rank = self.alphabet.rank(f).ok_or(DttaError::UnknownSymbol(f))?;
        if rank != children.len() {
            return Err(DttaError::RankMismatch {
                symbol: f,
                expected: rank,
                got: children.len(),
            });
        }
        self.delta.insert((q, f), children);
        Ok(())
    }

    pub fn build(self) -> Result<Dtta, DttaError> {
        let initial = self.initial.ok_or(DttaError::NoStates)?;
        Ok(Dtta {
            alphabet: self.alphabet,
            state_names: self.state_names,
            initial,
            delta: self.delta,
        })
    }
}

impl Dtta {
    /// The universal automaton accepting all of `T_F` (a single state with a
    /// transition for every symbol).
    pub fn universal(alphabet: RankedAlphabet) -> Dtta {
        let mut b = DttaBuilder::new(alphabet.clone());
        let q = b.add_state("any");
        for &f in alphabet.symbols() {
            let rank = alphabet.rank(f).unwrap();
            b.add_transition(q, f, vec![q; rank]).unwrap();
        }
        b.build().unwrap()
    }

    pub fn alphabet(&self) -> &RankedAlphabet {
        &self.alphabet
    }

    pub fn initial(&self) -> StateId {
        self.initial
    }

    pub fn state_count(&self) -> usize {
        self.state_names.len()
    }

    pub fn state_name(&self, q: StateId) -> &str {
        &self.state_names[q.index()]
    }

    pub fn states(&self) -> impl Iterator<Item = StateId> {
        (0..self.state_names.len() as u32).map(StateId)
    }

    /// `δ(q, f)`, if defined.
    pub fn transition(&self, q: StateId, f: Symbol) -> Option<&[StateId]> {
        self.delta.get(&(q, f)).map(Vec::as_slice)
    }

    /// All transitions, in deterministic (state, symbol-declaration) order.
    pub fn transitions(&self) -> Vec<(StateId, Symbol, &[StateId])> {
        let mut out: Vec<_> = self
            .delta
            .iter()
            .map(|(&(q, f), ch)| (q, f, ch.as_slice()))
            .collect();
        out.sort_by(|a, b| {
            a.0.cmp(&b.0)
                .then_with(|| self.alphabet.cmp_symbols(a.1, b.1))
        });
        out
    }

    /// Number of defined transitions.
    pub fn transition_count(&self) -> usize {
        self.delta.len()
    }

    /// True if `s ∈ L(q)`.
    pub fn accepts_from(&self, q: StateId, s: &Tree) -> bool {
        let Some(children) = self.transition(q, s.symbol()) else {
            return false;
        };
        debug_assert_eq!(children.len(), s.arity());
        children
            .iter()
            .zip(s.children())
            .all(|(&c, t)| self.accepts_from(c, t))
    }

    /// True if `s ∈ L(A)` (from the initial state).
    pub fn accepts(&self, s: &Tree) -> bool {
        self.accepts_from(self.initial, s)
    }

    /// The state reached by following the labeled path `u` from `q`, i.e.
    /// the state whose language is the residual `u⁻¹(L(q))`. `None` if some
    /// transition along the way is undefined (the residual is empty then).
    pub fn residual_from(&self, q: StateId, u: &FPath) -> Option<StateId> {
        let mut cur = q;
        for step in u.steps() {
            let children = self.transition(cur, step.symbol)?;
            cur = *children.get(step.child as usize)?;
        }
        Some(cur)
    }

    /// The state at path `u` from the initial state.
    pub fn residual(&self, u: &FPath) -> Option<StateId> {
        self.residual_from(self.initial, u)
    }
}

impl fmt::Display for Dtta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = |q| TermName(self.state_name(q));
        writeln!(f, "dtta (initial {})", name(self.initial))?;
        for (q, sym, children) in self.transitions() {
            write!(f, "  {}({}(", name(q), sym)?;
            for i in 0..children.len() {
                if i > 0 {
                    write!(f, ",")?;
                }
                write!(f, "x{}", i + 1)?;
            }
            write!(f, ")) -> {}(", sym)?;
            for (i, c) in children.iter().enumerate() {
                if i > 0 {
                    write!(f, ",")?;
                }
                write!(f, "<{},x{}>", name(*c), i + 1)?;
            }
            writeln!(f, ")")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xtt_trees::parse_tree;

    /// The domain of τflip: root(a-list, b-list) in fc/ns encoding.
    pub(crate) fn flip_domain() -> Dtta {
        let alpha = RankedAlphabet::from_pairs([("root", 2), ("a", 2), ("b", 2), ("#", 0)]);
        let mut b = DttaBuilder::new(alpha.clone());
        let p0 = b.add_state("start");
        let pa = b.add_state("alist");
        let pb = b.add_state("blist");
        let ph = b.add_state("nil");
        let root = Symbol::new("root");
        let a = Symbol::new("a");
        let bb = Symbol::new("b");
        let h = Symbol::new("#");
        b.add_transition(p0, root, vec![pa, pb]).unwrap();
        b.add_transition(pa, a, vec![ph, pa]).unwrap();
        b.add_transition(pa, h, vec![]).unwrap();
        b.add_transition(pb, bb, vec![ph, pb]).unwrap();
        b.add_transition(pb, h, vec![]).unwrap();
        b.add_transition(ph, h, vec![]).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn accepts_flip_domain() {
        let a = flip_domain();
        assert!(a.accepts(&parse_tree("root(#,#)").unwrap()));
        assert!(a.accepts(&parse_tree("root(a(#,a(#,#)),b(#,#))").unwrap()));
        assert!(!a.accepts(&parse_tree("root(b(#,#),a(#,#))").unwrap()));
        assert!(!a.accepts(&parse_tree("root(a(a(#,#),#),#)").unwrap()));
        assert!(!a.accepts(&parse_tree("#").unwrap()));
    }

    #[test]
    fn universal_accepts_everything() {
        let alpha = RankedAlphabet::from_pairs([("f", 2), ("a", 0)]);
        let u = Dtta::universal(alpha);
        assert!(u.accepts(&parse_tree("f(f(a,a),a)").unwrap()));
        assert!(u.accepts(&parse_tree("a").unwrap()));
    }

    #[test]
    fn residual_follows_paths() {
        let a = flip_domain();
        let u = FPath::parse_pairs(&[("root", 2), ("b", 2)]);
        let q = a.residual(&u).unwrap();
        assert_eq!(a.state_name(q), "blist");
        let dead = FPath::parse_pairs(&[("a", 1)]);
        assert!(a.residual(&dead).is_none());
    }

    #[test]
    fn builder_validates_ranks() {
        let alpha = RankedAlphabet::from_pairs([("f", 2), ("a", 0)]);
        let mut b = DttaBuilder::new(alpha);
        let q = b.add_state("q");
        let err = b.add_transition(q, Symbol::new("f"), vec![q]).unwrap_err();
        assert!(matches!(err, DttaError::RankMismatch { .. }));
        let err2 = b.add_transition(q, Symbol::new("zzz"), vec![]).unwrap_err();
        assert!(matches!(err2, DttaError::UnknownSymbol(_)));
    }

    #[test]
    fn display_lists_transitions() {
        let a = flip_domain();
        let text = a.to_string();
        assert!(text.contains("start(root(x1,x2)) -> root(<alist,x1>,<blist,x2>)"));
    }
}
