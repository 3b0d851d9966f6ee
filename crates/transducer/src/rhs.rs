//! Right-hand sides of dtop rules: trees over output symbols with state
//! calls `⟨q, x_i⟩` at leaves.
//!
//! A rule `q(f(x₁,…,x_k)) → t` has `t ∈ T_G(Q × X_k)` (Definition 1). A
//! variable may occur several times (*copying*) or not at all (*deletion*),
//! and variables may be permuted — the three abilities that distinguish
//! dtops from the relabeling transducers of earlier learning work.
//!
//! Variables are stored 0-based (`Call { child: 0 }` is the paper's `x₁`);
//! in an axiom, calls refer to the whole input tree (`x₀`) and `child` is 0
//! by convention.
//!
//! [`display_rhs`] writes the term syntax `g(#,<q3,x2>)`, and
//! [`parse_rhs`] reads it back through [`xtt_trees::TermReader`]: names
//! follow term syntax's quoting rule (see [`xtt_trees::parse`]). The
//! reader keeps an explicit stack of open output nodes, so an rhs of any
//! depth reads without recursion; a term that starts with `<` is a call.

use std::collections::HashMap;
use std::fmt;

use xtt_trees::{FPath, NodePath, ParseError, RankedAlphabet, Step, Symbol, TermName, TermReader};

/// A state of a [`crate::dtop::Dtop`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QId(pub u32);

impl QId {
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for QId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "q{}", self.0)
    }
}

/// A right-hand-side tree: output symbols with `⟨state, x_child⟩` leaves.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Rhs {
    /// An output node `g(t₁,…,t_m)`.
    Out(Symbol, Vec<Rhs>),
    /// A state call `⟨q, x_child⟩` (0-based child).
    Call { state: QId, child: usize },
}

impl Rhs {
    pub fn out(name: &str, children: Vec<Rhs>) -> Rhs {
        Rhs::Out(Symbol::new(name), children)
    }

    pub fn leaf(name: &str) -> Rhs {
        Rhs::Out(Symbol::new(name), Vec::new())
    }

    pub fn call(state: QId, child: usize) -> Rhs {
        Rhs::Call { state, child }
    }

    /// All state calls, in pre-order, with the output node-path where each
    /// occurs.
    pub fn calls(&self) -> Vec<(NodePath, QId, usize)> {
        let mut out = Vec::new();
        self.collect_calls(&NodePath::root(), &mut out);
        out
    }

    fn collect_calls(&self, at: &NodePath, out: &mut Vec<(NodePath, QId, usize)>) {
        match self {
            Rhs::Call { state, child } => out.push((at.clone(), *state, *child)),
            Rhs::Out(_, children) => {
                for (i, c) in children.iter().enumerate() {
                    c.collect_calls(&at.child(i as u32), out);
                }
            }
        }
    }

    /// All state calls with the *labeled* output path (F-path over `G`) to
    /// each; needed because io-paths are labeled paths.
    pub fn calls_with_fpath(&self) -> Vec<(FPath, QId, usize)> {
        let mut out = Vec::new();
        self.collect_calls_fpath(&FPath::empty(), &mut out);
        out
    }

    fn collect_calls_fpath(&self, at: &FPath, out: &mut Vec<(FPath, QId, usize)>) {
        match self {
            Rhs::Call { state, child } => out.push((at.clone(), *state, *child)),
            Rhs::Out(sym, children) => {
                for (i, c) in children.iter().enumerate() {
                    c.collect_calls_fpath(&at.push(Step::new(*sym, i as u32)), out);
                }
            }
        }
    }

    /// The set of distinct states called.
    pub fn called_states(&self) -> Vec<QId> {
        let mut v: Vec<QId> = self.calls().into_iter().map(|(_, q, _)| q).collect();
        v.sort();
        v.dedup();
        v
    }

    /// Number of nodes (output symbols + calls).
    pub fn size(&self) -> usize {
        match self {
            Rhs::Call { .. } => 1,
            Rhs::Out(_, children) => 1 + children.iter().map(Rhs::size).sum::<usize>(),
        }
    }

    /// Applies a state renaming.
    pub fn map_states(&self, f: &mut impl FnMut(QId) -> QId) -> Rhs {
        match self {
            Rhs::Call { state, child } => Rhs::Call {
                state: f(*state),
                child: *child,
            },
            Rhs::Out(sym, children) => {
                Rhs::Out(*sym, children.iter().map(|c| c.map_states(f)).collect())
            }
        }
    }

    /// Checks output ranks and that every variable index is `< arity`.
    pub fn validate(
        &self,
        output: &RankedAlphabet,
        arity: usize,
        n_states: usize,
    ) -> Result<(), RhsError> {
        match self {
            Rhs::Call { state, child } => {
                if state.index() >= n_states {
                    return Err(RhsError::UnknownState(*state));
                }
                if *child >= arity.max(1) {
                    // arity.max(1): axioms have arity 0 conceptually but use x0
                    return Err(RhsError::VariableOutOfRange {
                        child: *child,
                        arity,
                    });
                }
                Ok(())
            }
            Rhs::Out(sym, children) => {
                let rank = output.rank(*sym).ok_or(RhsError::UnknownSymbol(*sym))?;
                if rank != children.len() {
                    return Err(RhsError::RankMismatch {
                        symbol: *sym,
                        expected: rank,
                        got: children.len(),
                    });
                }
                for c in children {
                    c.validate(output, arity, n_states)?;
                }
                Ok(())
            }
        }
    }
}

/// Validation errors for right-hand sides.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RhsError {
    UnknownSymbol(Symbol),
    UnknownState(QId),
    RankMismatch {
        symbol: Symbol,
        expected: usize,
        got: usize,
    },
    VariableOutOfRange {
        child: usize,
        arity: usize,
    },
}

impl fmt::Display for RhsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RhsError::UnknownSymbol(s) => write!(f, "output symbol {s} not in alphabet"),
            RhsError::UnknownState(q) => write!(f, "call to unknown state {q}"),
            RhsError::RankMismatch {
                symbol,
                expected,
                got,
            } => write!(
                f,
                "output symbol {symbol} has rank {expected}, got {got} children"
            ),
            RhsError::VariableOutOfRange { child, arity } => {
                write!(f, "variable x{} out of range for arity {arity}", child + 1)
            }
        }
    }
}

impl std::error::Error for RhsError {}

/// Renders an rhs with a state-name lookup, which gives each name as
/// written (quoted where term syntax needs it, see
/// [`TermName`]). `axiom = true` prints `x0` for
/// every variable (paper convention), otherwise 1-based `x{i+1}`.
pub fn display_rhs(rhs: &Rhs, state_name: &dyn Fn(QId) -> String, axiom: bool) -> String {
    let mut s = String::new();
    write_rhs(rhs, state_name, axiom, &mut s);
    s
}

fn write_rhs(rhs: &Rhs, state_name: &dyn Fn(QId) -> String, axiom: bool, out: &mut String) {
    match rhs {
        Rhs::Call { state, child } => {
            out.push('<');
            out.push_str(&state_name(*state));
            if axiom {
                out.push_str(",x0>");
            } else {
                out.push_str(&format!(",x{}>", child + 1));
            }
        }
        Rhs::Out(sym, children) => {
            out.push_str(&sym.to_string());
            if !children.is_empty() {
                out.push('(');
                for (i, c) in children.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_rhs(c, state_name, axiom, out);
                }
                out.push(')');
            }
        }
    }
}

/// Parses an rhs in the `Display` syntax, e.g. `b(#,<q3,x2>)`. State names
/// are resolved through `resolve`. In axiom context (`axiom = true`) only
/// `x0` is allowed; otherwise variables are 1-based `x1..xk`.
pub fn parse_rhs(
    input: &str,
    resolve: &dyn Fn(&str) -> Option<QId>,
    axiom: bool,
) -> Result<Rhs, String> {
    let mut r = TermReader::new(input);
    let mut ranks = OutputRanks::default();
    read_rhs(&mut r, &mut |name| resolve(name), axiom, &mut ranks)
        .and_then(|rhs| r.end("the rhs").map(|()| rhs))
        .map_err(|e| e.to_string())
}

/// Reads one rhs off `r` with an explicit stack of open output nodes, as
/// [`xtt_trees::parse_tree`] does, so nesting depth costs heap, not call
/// stack. `state` maps a call's state name to its id; `ranks` records each
/// output node's rank as the node closes. Variables are as in
/// [`parse_rhs`].
pub(crate) fn read_rhs(
    r: &mut TermReader<'_>,
    state: &mut dyn FnMut(&str) -> Option<QId>,
    axiom: bool,
    ranks: &mut OutputRanks,
) -> Result<Rhs, ParseError> {
    // Each open `g(` with the children read so far, innermost last.
    let mut open: Vec<(Symbol, Vec<Rhs>)> = Vec::new();
    loop {
        let mut done = if r.eat("<") {
            read_call(r, state, axiom)?
        } else {
            let symbol = r.symbol()?;
            ranks.open(symbol);
            if r.eat("(") && !r.eat(")") {
                open.push((symbol, Vec::new()));
                continue;
            }
            ranks.close(symbol, 0).map_err(|m| r.error(m))?;
            Rhs::Out(symbol, Vec::new())
        };
        // A term ended: a `,` starts its next sibling, a `)` closes its
        // parent in turn.
        loop {
            let Some((_, siblings)) = open.last_mut() else {
                return Ok(done);
            };
            siblings.push(done);
            if r.more_args()? {
                break;
            }
            let (symbol, children) = open.pop().expect("an open node");
            ranks
                .close(symbol, children.len())
                .map_err(|m| r.error(m))?;
            done = Rhs::Out(symbol, children);
        }
    }
}

/// A state call `<q,xi>`, read after its `<`.
fn read_call(
    r: &mut TermReader<'_>,
    state: &mut dyn FnMut(&str) -> Option<QId>,
    axiom: bool,
) -> Result<Rhs, ParseError> {
    let name = r.name()?;
    let Some(state) = state(name) else {
        let message = format!("unknown state {}", TermName(name));
        return Err(r.error(message));
    };
    r.expect(",")?;
    let n = r.variable()?;
    r.expect(">")?;
    let child = match (axiom, n) {
        (true, 0) => 0,
        (true, _) => return Err(r.error("axiom variables must be x0")),
        (false, 0) => return Err(r.error("rule variables are 1-based (x1..xk)")),
        (false, n) => n - 1,
    };
    Ok(Rhs::Call { state, child })
}

/// The output symbols of the right-hand sides read so far, in the order
/// their first node opened, each with the rank its nodes close with.
#[derive(Default)]
pub(crate) struct OutputRanks {
    order: Vec<Symbol>,
    ranks: HashMap<Symbol, Option<usize>>,
}

impl OutputRanks {
    fn open(&mut self, symbol: Symbol) {
        self.ranks.entry(symbol).or_insert_with(|| {
            self.order.push(symbol);
            None
        });
    }

    fn close(&mut self, symbol: Symbol, rank: usize) -> Result<(), String> {
        match self.ranks.insert(symbol, Some(rank)) {
            Some(Some(r)) if r != rank => Err(format!(
                "output symbol {symbol} used with ranks {r} and {rank}"
            )),
            _ => Ok(()),
        }
    }

    /// The output alphabet, in first-opened order.
    pub(crate) fn alphabet(&self) -> RankedAlphabet {
        let mut alphabet = RankedAlphabet::new();
        for &symbol in &self.order {
            alphabet.add(symbol, self.ranks[&symbol].expect("every node read closed"));
        }
        alphabet
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn resolve(name: &str) -> Option<QId> {
        name.strip_prefix('q').and_then(|n| n.parse().ok()).map(QId)
    }

    #[test]
    fn parse_and_display_roundtrip() {
        let rhs = parse_rhs("b(#,<q3,x2>)", &resolve, false).unwrap();
        assert_eq!(
            rhs,
            Rhs::out("b", vec![Rhs::leaf("#"), Rhs::call(QId(3), 1)])
        );
        let shown = display_rhs(&rhs, &|q| format!("q{}", q.0), false);
        assert_eq!(shown, "b(#,<q3,x2>)");
    }

    #[test]
    fn axiom_variables_are_x0() {
        let ax = parse_rhs("root(<q1,x0>,<q2,x0>)", &resolve, true).unwrap();
        assert_eq!(ax.calls().len(), 2);
        assert!(parse_rhs("root(<q1,x1>,#)", &resolve, true).is_err());
        assert!(parse_rhs("<q1,x0>", &resolve, false).is_err());
    }

    #[test]
    fn calls_report_positions() {
        let rhs = parse_rhs("f(<q1,x1>,g(<q2,x2>))", &resolve, false).unwrap();
        let calls = rhs.calls();
        assert_eq!(calls.len(), 2);
        assert_eq!(calls[0].0, NodePath::from_indices(&[0]));
        assert_eq!(calls[0].1, QId(1));
        assert_eq!(calls[0].2, 0);
        assert_eq!(calls[1].0, NodePath::from_indices(&[1, 0]));
        assert_eq!(calls[1].2, 1);
        let fcalls = rhs.calls_with_fpath();
        assert_eq!(fcalls[1].0, FPath::parse_pairs(&[("f", 2), ("g", 1)]));
    }

    #[test]
    fn validation_catches_errors() {
        let output = RankedAlphabet::from_pairs([("f", 2), ("a", 0)]);
        let ok = Rhs::out("f", vec![Rhs::leaf("a"), Rhs::call(QId(0), 1)]);
        assert!(ok.validate(&output, 2, 1).is_ok());
        let bad_rank = Rhs::out("f", vec![Rhs::leaf("a")]);
        assert!(matches!(
            bad_rank.validate(&output, 2, 1),
            Err(RhsError::RankMismatch { .. })
        ));
        let bad_var = Rhs::call(QId(0), 5);
        assert!(matches!(
            bad_var.validate(&output, 2, 1),
            Err(RhsError::VariableOutOfRange { .. })
        ));
        let bad_state = Rhs::call(QId(7), 0);
        assert!(matches!(
            bad_state.validate(&output, 2, 1),
            Err(RhsError::UnknownState(_))
        ));
        let bad_sym = Rhs::leaf("zzz");
        assert!(matches!(
            bad_sym.validate(&output, 2, 1),
            Err(RhsError::UnknownSymbol(_))
        ));
    }

    #[test]
    fn copying_and_deletion_shapes() {
        // copying: x1 twice; deletion: x2 unused
        let rhs = parse_rhs("f(<q0,x1>,<q0,x1>)", &resolve, false).unwrap();
        assert_eq!(rhs.calls().len(), 2);
        assert_eq!(rhs.called_states(), vec![QId(0)]);
        assert_eq!(rhs.size(), 3);
    }

    #[test]
    fn map_states_renames() {
        let rhs = parse_rhs("f(<q1,x1>,<q2,x2>)", &resolve, false).unwrap();
        let renamed = rhs.map_states(&mut |q| QId(q.0 + 10));
        assert_eq!(renamed.called_states(), vec![QId(11), QId(12)]);
    }

    /// Nesting costs the reader heap, not call stack: a 100,000-deep rhs
    /// reads on a 256 KiB thread.
    #[test]
    fn deep_rhs_reads_without_recursion() {
        const DEPTH: usize = 100_000;
        let text = format!("{}<q1,x1>{}", "g(".repeat(DEPTH), ")".repeat(DEPTH));
        let reader = std::thread::Builder::new().stack_size(256 << 10);
        let depth = reader
            .spawn(move || {
                let mut rhs = parse_rhs(&text, &resolve, false).unwrap();
                // Unwind the spine here: dropping it whole would recurse.
                let mut depth = 0;
                while let Rhs::Out(_, mut children) = rhs {
                    rhs = children.pop().unwrap();
                    depth += 1;
                }
                assert_eq!(rhs, Rhs::call(QId(1), 0));
                depth
            })
            .unwrap()
            .join()
            .unwrap();
        assert_eq!(depth, DEPTH);
    }

    #[test]
    fn quoted_symbols_in_rhs() {
        let rhs = parse_rhs(r#""(b*,a*)"(<q1,x1>,<q2,x1>)"#, &resolve, false).unwrap();
        match &rhs {
            Rhs::Out(sym, children) => {
                assert_eq!(sym.name(), "(b*,a*)");
                assert_eq!(children.len(), 2);
            }
            _ => panic!("expected output node"),
        }
    }
}
