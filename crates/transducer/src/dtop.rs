//! Deterministic top-down tree transducers (Definition 1).
//!
//! A dtop is `M = (Q, F, G, ax, rhs)` with a finite state set `Q`, input and
//! output ranked alphabets, an axiom `ax ∈ T_G(Q × {x₀})`, and a partial
//! rule function `rhs(q, f) ∈ T_G(Q × X_k)` for `f ∈ F^(k)`. The induced
//! transduction `⟦M⟧` is the partial function evaluated by
//! [`crate::eval()`].

use std::collections::HashMap;
use std::fmt;

use xtt_trees::{RankedAlphabet, Symbol, TermName};

use crate::rhs::{display_rhs, parse_rhs, QId, Rhs, RhsError};

/// A deterministic top-down tree transducer.
#[derive(Clone, Debug)]
pub struct Dtop {
    input: RankedAlphabet,
    output: RankedAlphabet,
    state_names: Vec<String>,
    axiom: Rhs,
    rules: HashMap<(QId, Symbol), Rhs>,
}

/// Errors raised when assembling an ill-formed transducer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DtopError {
    Rhs(RhsError),
    UnknownInputSymbol(Symbol),
    UnknownState(QId),
    BadStateName(String),
    Parse(String),
    /// Composition alphabet mismatch, positioned: while building the pair
    /// state `q2∘q1`, `m1`'s right-hand side emitted `symbol`, which is
    /// not in `m2`'s input alphabet at all. (An in-alphabet symbol that
    /// merely lacks a rule is *not* an error — it soundly shrinks the
    /// composed domain, see `compose`'s module docs.)
    Compose {
        q2: String,
        q1: String,
        symbol: Symbol,
    },
}

impl fmt::Display for DtopError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DtopError::Rhs(e) => write!(f, "{e}"),
            DtopError::UnknownInputSymbol(s) => write!(f, "input symbol {s} not in alphabet"),
            DtopError::UnknownState(q) => write!(f, "unknown state {q}"),
            DtopError::BadStateName(n) => write!(f, "unknown state name '{n}'"),
            DtopError::Parse(e) => write!(f, "{e}"),
            DtopError::Compose { q2, q1, symbol } => write!(
                f,
                "composition pair {q2}\u{2218}{q1}: m1 emits '{symbol}', \
                 which is outside m2's input alphabet"
            ),
        }
    }
}

impl std::error::Error for DtopError {}

impl From<RhsError> for DtopError {
    fn from(e: RhsError) -> Self {
        DtopError::Rhs(e)
    }
}

/// Incremental construction of a [`Dtop`].
#[derive(Clone, Debug)]
pub struct DtopBuilder {
    input: RankedAlphabet,
    output: RankedAlphabet,
    state_names: Vec<String>,
    name_index: HashMap<String, QId>,
    axiom: Option<Rhs>,
    rules: HashMap<(QId, Symbol), Rhs>,
}

impl DtopBuilder {
    pub fn new(input: RankedAlphabet, output: RankedAlphabet) -> Self {
        DtopBuilder {
            input,
            output,
            state_names: Vec::new(),
            name_index: HashMap::new(),
            axiom: None,
            rules: HashMap::new(),
        }
    }

    /// Adds a fresh state with the given display name.
    pub fn add_state(&mut self, name: impl Into<String>) -> QId {
        let name = name.into();
        let id = QId(u32::try_from(self.state_names.len()).expect("too many states"));
        self.name_index.insert(name.clone(), id);
        self.state_names.push(name);
        id
    }

    /// Looks up a state by display name.
    pub fn state(&self, name: &str) -> Option<QId> {
        self.name_index.get(name).copied()
    }

    /// Sets the axiom (calls must use variable `x0`).
    pub fn set_axiom(&mut self, axiom: Rhs) {
        self.axiom = Some(axiom);
    }

    /// Parses and sets the axiom from text like `root(<q1,x0>,<q2,x0>)`.
    pub fn set_axiom_str(&mut self, text: &str) -> Result<(), DtopError> {
        let idx = self.name_index.clone();
        let axiom = parse_rhs(text, &|n| idx.get(n).copied(), true).map_err(DtopError::Parse)?;
        self.axiom = Some(axiom);
        Ok(())
    }

    /// Defines the `(q, f)`-rule. Overwrites any previous rule (determinism
    /// by construction).
    pub fn add_rule(&mut self, q: QId, f: Symbol, rhs: Rhs) -> Result<(), DtopError> {
        if !self.input.contains(f) {
            return Err(DtopError::UnknownInputSymbol(f));
        }
        if q.index() >= self.state_names.len() {
            return Err(DtopError::UnknownState(q));
        }
        self.rules.insert((q, f), rhs);
        Ok(())
    }

    /// Parses and adds a rule, e.g. `add_rule_str("q3", "b", "b(#,<q3,x2>)")`.
    pub fn add_rule_str(&mut self, state: &str, symbol: &str, rhs: &str) -> Result<(), DtopError> {
        let q = self
            .state(state)
            .ok_or_else(|| DtopError::BadStateName(state.to_owned()))?;
        let f = Symbol::new(symbol);
        let idx = self.name_index.clone();
        let rhs = parse_rhs(rhs, &|n| idx.get(n).copied(), false).map_err(DtopError::Parse)?;
        self.add_rule(q, f, rhs)
    }

    /// Validates everything and builds the transducer. If no axiom was set,
    /// the default is `⟨q0, x0⟩`.
    pub fn build(self) -> Result<Dtop, DtopError> {
        let axiom = self.axiom.unwrap_or(Rhs::Call {
            state: QId(0),
            child: 0,
        });
        axiom.validate(&self.output, 1, self.state_names.len())?;
        for (&(q, f), rhs) in &self.rules {
            let arity = self.input.rank(f).ok_or(DtopError::UnknownInputSymbol(f))?;
            rhs.validate(&self.output, arity, self.state_names.len())?;
            debug_assert!(q.index() < self.state_names.len());
        }
        Ok(Dtop {
            input: self.input,
            output: self.output,
            state_names: self.state_names,
            axiom,
            rules: self.rules,
        })
    }
}

impl Dtop {
    pub fn builder(input: RankedAlphabet, output: RankedAlphabet) -> DtopBuilder {
        DtopBuilder::new(input, output)
    }

    /// A transducer with a constant axiom and no states (Example 1's `M₁`).
    pub fn constant(input: RankedAlphabet, output: RankedAlphabet, axiom: Rhs) -> Dtop {
        assert!(
            axiom.calls().is_empty(),
            "constant axiom must not call states"
        );
        Dtop {
            input,
            output,
            state_names: Vec::new(),
            axiom,
            rules: HashMap::new(),
        }
    }

    pub fn input(&self) -> &RankedAlphabet {
        &self.input
    }

    pub fn output(&self) -> &RankedAlphabet {
        &self.output
    }

    pub fn axiom(&self) -> &Rhs {
        &self.axiom
    }

    pub fn state_count(&self) -> usize {
        self.state_names.len()
    }

    pub fn states(&self) -> impl Iterator<Item = QId> {
        (0..self.state_names.len() as u32).map(QId)
    }

    pub fn state_name(&self, q: QId) -> &str {
        &self.state_names[q.index()]
    }

    pub fn state_by_name(&self, name: &str) -> Option<QId> {
        self.state_names
            .iter()
            .position(|n| n == name)
            .map(|i| QId(i as u32))
    }

    /// `rhs(q, f)`, if defined.
    pub fn rule(&self, q: QId, f: Symbol) -> Option<&Rhs> {
        self.rules.get(&(q, f))
    }

    /// All rules in deterministic (state, symbol-declaration) order.
    pub fn rules(&self) -> Vec<(QId, Symbol, &Rhs)> {
        let mut out: Vec<_> = self
            .rules
            .iter()
            .map(|(&(q, f), rhs)| (q, f, rhs))
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0).then_with(|| self.input.cmp_symbols(a.1, b.1)));
        out
    }

    /// Number of rules.
    pub fn rule_count(&self) -> usize {
        self.rules.len()
    }

    /// Input symbols with a rule for `q`, in declaration order.
    pub fn enabled_symbols(&self, q: QId) -> Vec<Symbol> {
        let mut syms: Vec<Symbol> = self
            .rules
            .keys()
            .filter(|&&(q2, _)| q2 == q)
            .map(|&(_, f)| f)
            .collect();
        syms.sort_by(|&a, &b| self.input.cmp_symbols(a, b));
        syms
    }

    /// Total size: axiom size plus the sizes of all right-hand sides.
    /// This is the size measure `|M|` for the complexity claims.
    pub fn size(&self) -> usize {
        self.axiom.size() + self.rules.values().map(Rhs::size).sum::<usize>()
    }

    /// Renders a rhs with this transducer's state names.
    pub fn show_rhs(&self, rhs: &Rhs, axiom: bool) -> String {
        display_rhs(rhs, &|q| TermName(self.state_name(q)).to_string(), axiom)
    }
}

impl fmt::Display for Dtop {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "ax = {}", self.show_rhs(&self.axiom, true))?;
        for (q, sym, rhs) in self.rules() {
            let arity = self.input.rank(sym).unwrap_or(0);
            write!(f, "{}({}", TermName(self.state_name(q)), sym)?;
            if arity > 0 {
                write!(f, "(")?;
                for i in 0..arity {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "x{}", i + 1)?;
                }
                write!(f, ")")?;
            }
            writeln!(f, ") -> {}", self.show_rhs(rhs, false))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::examples;

    #[test]
    fn flip_transducer_shape() {
        let m = examples::flip().dtop;
        assert_eq!(m.state_count(), 4);
        assert_eq!(m.rule_count(), 6);
        let text = m.to_string();
        assert!(text.contains("ax = root(<q1,x0>,<q2,x0>)"));
        assert!(text.contains("q1(root(x1,x2)) -> <q3,x2>"));
        assert!(text.contains("q3(b(x1,x2)) -> b(#,<q3,x2>)"));
    }

    #[test]
    fn builder_rejects_bad_rules() {
        let alpha = RankedAlphabet::from_pairs([("f", 2), ("a", 0)]);
        let mut b = DtopBuilder::new(alpha.clone(), alpha);
        let q = b.add_state("q");
        // unknown input symbol
        assert!(b.add_rule(q, Symbol::new("zzz"), Rhs::leaf("a")).is_err());
        // rank-mismatched rhs is caught at build time
        b.add_rule(q, Symbol::new("f"), Rhs::out("f", vec![Rhs::leaf("a")]))
            .unwrap();
        assert!(b.build().is_err());
    }

    #[test]
    fn constant_transducer_m1() {
        // Example 1: axiom b, no states or rules.
        let f = RankedAlphabet::from_pairs([("f", 2), ("a", 0)]);
        let g = RankedAlphabet::from_pairs([("b", 0)]);
        let m1 = Dtop::constant(f, g, Rhs::leaf("b"));
        assert_eq!(m1.state_count(), 0);
        assert_eq!(m1.rule_count(), 0);
        assert_eq!(m1.size(), 1);
    }

    #[test]
    fn enabled_symbols_in_declaration_order() {
        let m = examples::flip().dtop;
        let q3 = m.state_by_name("q3").unwrap();
        let names: Vec<&str> = m.enabled_symbols(q3).iter().map(|s| s.name()).collect();
        assert_eq!(names, vec!["b", "#"]);
    }

    #[test]
    fn size_counts_axiom_and_rhs_nodes() {
        let m = examples::flip().dtop;
        // axiom root(<q1,x0>,<q2,x0>) = 3 nodes; rules: <q3,x2>=1, <q4,x1>=1,
        // #=1, b(#,<q3,x2>)=3, #=1, a(#,<q4,x2>)=3
        assert_eq!(m.size(), 3 + 1 + 1 + 1 + 3 + 1 + 3);
    }
}
