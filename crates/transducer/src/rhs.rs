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

use std::fmt;

use xtt_trees::{FPath, NodePath, RankedAlphabet, Step, Symbol};

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

/// Renders an rhs with a state-name lookup. `axiom = true` prints `x0` for
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
    let mut p = RhsParser {
        input: input.as_bytes(),
        pos: 0,
        axiom,
    };
    let rhs = p.parse(resolve)?;
    p.skip_ws();
    if p.pos != p.input.len() {
        return Err(format!("trailing input at byte {}", p.pos));
    }
    Ok(rhs)
}

struct RhsParser<'a> {
    input: &'a [u8],
    pos: usize,
    axiom: bool,
}

impl<'a> RhsParser<'a> {
    fn skip_ws(&mut self) {
        while self.pos < self.input.len() && self.input[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn parse(&mut self, resolve: &dyn Fn(&str) -> Option<QId>) -> Result<Rhs, String> {
        self.skip_ws();
        if self.input.get(self.pos) == Some(&b'<') {
            return self.parse_call(resolve);
        }
        // symbol, possibly quoted
        let symbol = self.parse_symbol()?;
        self.skip_ws();
        if self.input.get(self.pos) != Some(&b'(') {
            return Ok(Rhs::Out(symbol, Vec::new()));
        }
        self.pos += 1;
        let mut children = Vec::new();
        self.skip_ws();
        if self.input.get(self.pos) == Some(&b')') {
            self.pos += 1;
            return Ok(Rhs::Out(symbol, children));
        }
        loop {
            children.push(self.parse(resolve)?);
            self.skip_ws();
            match self.input.get(self.pos) {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b')') => {
                    self.pos += 1;
                    break;
                }
                _ => return Err(format!("expected ',' or ')' at byte {}", self.pos)),
            }
        }
        Ok(Rhs::Out(symbol, children))
    }

    fn parse_symbol(&mut self) -> Result<Symbol, String> {
        self.skip_ws();
        if self.input.get(self.pos) == Some(&b'"') {
            self.pos += 1;
            let mut name = String::new();
            loop {
                match self.input.get(self.pos) {
                    Some(b'"') => {
                        self.pos += 1;
                        return Ok(Symbol::new(&name));
                    }
                    Some(b'\\') => {
                        self.pos += 1;
                        match self.input.get(self.pos) {
                            Some(&c @ (b'"' | b'\\')) => {
                                name.push(c as char);
                                self.pos += 1;
                            }
                            _ => return Err("bad escape in quoted symbol".into()),
                        }
                    }
                    Some(&c) => {
                        name.push(c as char);
                        self.pos += 1;
                    }
                    None => return Err("unterminated quoted symbol".into()),
                }
            }
        }
        let start = self.pos;
        while let Some(&c) = self.input.get(self.pos) {
            if matches!(c, b'(' | b')' | b',' | b'<' | b'>' | b'"') || c.is_ascii_whitespace() {
                break;
            }
            self.pos += 1;
        }
        if start == self.pos {
            return Err(format!("expected symbol at byte {start}"));
        }
        let name = std::str::from_utf8(&self.input[start..self.pos]).map_err(|e| e.to_string())?;
        Ok(Symbol::new(name))
    }

    fn parse_call(&mut self, resolve: &dyn Fn(&str) -> Option<QId>) -> Result<Rhs, String> {
        self.pos += 1; // consume '<'
        let start = self.pos;
        while let Some(&c) = self.input.get(self.pos) {
            if c == b',' {
                break;
            }
            self.pos += 1;
        }
        let name = std::str::from_utf8(&self.input[start..self.pos])
            .map_err(|e| e.to_string())?
            .trim()
            .to_owned();
        let state = resolve(&name).ok_or_else(|| format!("unknown state '{name}'"))?;
        if self.input.get(self.pos) != Some(&b',') {
            return Err("expected ',' in state call".into());
        }
        self.pos += 1;
        self.skip_ws();
        if self.input.get(self.pos) != Some(&b'x') {
            return Err("expected variable x<N> in state call".into());
        }
        self.pos += 1;
        let num_start = self.pos;
        while self.input.get(self.pos).is_some_and(u8::is_ascii_digit) {
            self.pos += 1;
        }
        let n: usize = std::str::from_utf8(&self.input[num_start..self.pos])
            .unwrap()
            .parse()
            .map_err(|_| "bad variable index".to_string())?;
        self.skip_ws();
        if self.input.get(self.pos) != Some(&b'>') {
            return Err("expected '>' closing state call".into());
        }
        self.pos += 1;
        let child = if self.axiom {
            if n != 0 {
                return Err("axiom variables must be x0".into());
            }
            0
        } else {
            if n == 0 {
                return Err("rule variables are 1-based (x1..xk)".into());
            }
            n - 1
        };
        Ok(Rhs::Call { state, child })
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
