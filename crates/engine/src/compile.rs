//! Lowering a [`Dtop`] into a flat, cache-friendly compiled form.
//!
//! The research representation (`HashMap<(QId, Symbol), Rhs>` with
//! `Rc`-shaped right-hand sides) is ideal for the normal-form and learning
//! algorithms but slow to *run*: every rule application hashes a tuple key
//! and clones a boxed tree. [`compile`] turns the transducer into:
//!
//! * a **dense jump table** `rules[q · |F| + f]` over interned input-symbol
//!   ids — rule lookup is two array reads, no hashing;
//! * a single **instruction arena**: every right-hand side is a flat
//!   pre-order sequence of [`Instr`]s, contiguous in one `Vec`;
//! * a `Symbol → dense id` translation table indexed by the global interner
//!   id, so input nodes are resolved once per document.
//!
//! The compiled object is immutable and `Send + Sync`; all per-evaluation
//! state lives in [`crate::eval::EvalScratch`].

use std::fmt;

use xtt_transducer::{Dtop, Rhs};
use xtt_trees::{RankedAlphabet, Symbol};

/// Dense-symbol sentinel for "not in the input alphabet".
pub const NO_SYM: u32 = u32::MAX;

/// One instruction of a lowered right-hand side (pre-order).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Instr {
    /// Emit an output node; its `arity` children are produced by the
    /// following instructions.
    Out { sym: Symbol, arity: u32 },
    /// Evaluate state `q` on the `child`-th input subtree (0-based) and
    /// splice the result here. In an axiom, `child` is 0 = the whole input.
    Call { q: u16, child: u16 },
}

#[derive(Clone, Copy, Debug)]
struct RuleRange {
    start: u32,
    end: u32,
}

impl RuleRange {
    const NONE: RuleRange = RuleRange {
        start: u32::MAX,
        end: u32::MAX,
    };

    fn is_none(self) -> bool {
        self.start == u32::MAX
    }
}

/// Errors from [`compile`]; all of them are capacity limits far beyond any
/// transducer this workspace produces.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileError {
    TooManyStates(usize),
    TooManyVariables(usize),
    CodeTooLarge(usize),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::TooManyStates(n) => write!(f, "{n} states exceed the u16 state limit"),
            CompileError::TooManyVariables(n) => {
                write!(f, "variable x{} exceeds the u16 child limit", n + 1)
            }
            CompileError::CodeTooLarge(n) => write!(f, "{n} instructions exceed the u32 limit"),
        }
    }
}

impl std::error::Error for CompileError {}

/// A [`Dtop`] lowered for execution; see the module docs.
#[derive(Debug, Clone)]
pub struct CompiledDtop {
    input: RankedAlphabet,
    n_states: usize,
    n_syms: u32,
    /// Global interner id → dense input-symbol id ([`NO_SYM`] if absent).
    sym_map: Vec<u32>,
    /// `(q · n_syms + dense_sym)` → code range.
    rules: Vec<RuleRange>,
    axiom: RuleRange,
    /// Distinct states called by the axiom, sorted.
    axiom_states: Vec<u16>,
    code: Vec<Instr>,
    fingerprint: u64,
}

/// A structural fingerprint of a transducer, used as the compiled-cache
/// key. Stable within a process (it hashes the deterministic `Display`
/// rendering, which sorts rules).
pub fn fingerprint(dtop: &Dtop) -> u64 {
    fingerprint_of(dtop, &dtop.to_string())
}

/// [`fingerprint`] from a rendering the caller already has.
pub(crate) fn fingerprint_of(dtop: &Dtop, rendering: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    };
    eat(rendering.as_bytes());
    eat(&(dtop.state_count() as u64).to_le_bytes());
    eat(&(dtop.rule_count() as u64).to_le_bytes());
    h
}

/// Lowers a transducer. See the module docs for the layout.
pub fn compile(dtop: &Dtop) -> Result<CompiledDtop, CompileError> {
    let input = dtop.input().clone();
    let n_states = dtop.state_count();
    if n_states >= usize::from(u16::MAX) {
        return Err(CompileError::TooManyStates(n_states));
    }
    let n_syms = input.len() as u32;

    let max_gid = input
        .symbols()
        .iter()
        .map(|s| s.id() as usize)
        .max()
        .map_or(0, |m| m + 1);
    let mut sym_map = vec![NO_SYM; max_gid];
    for (dense, &sym) in input.symbols().iter().enumerate() {
        sym_map[sym.id() as usize] = dense as u32;
    }

    let mut code = Vec::new();
    let mut rules = vec![RuleRange::NONE; n_states * n_syms as usize];
    for (q, f, rhs) in dtop.rules() {
        let dense = sym_map[f.id() as usize];
        debug_assert_ne!(
            dense, NO_SYM,
            "builder guarantees rule symbols are declared"
        );
        let start = code.len() as u32;
        lower(rhs, &mut code)?;
        rules[q.index() * n_syms as usize + dense as usize] = RuleRange {
            start,
            end: code.len() as u32,
        };
    }
    let ax_start = code.len() as u32;
    lower(dtop.axiom(), &mut code)?;
    let axiom = RuleRange {
        start: ax_start,
        end: code.len() as u32,
    };
    if code.len() >= u32::MAX as usize {
        return Err(CompileError::CodeTooLarge(code.len()));
    }
    let axiom_states = dtop
        .axiom()
        .called_states()
        .into_iter()
        .map(|q| q.0 as u16)
        .collect();

    Ok(CompiledDtop {
        input,
        n_states,
        n_syms,
        sym_map,
        rules,
        axiom,
        axiom_states,
        code,
        fingerprint: fingerprint(dtop),
    })
}

fn lower(rhs: &Rhs, code: &mut Vec<Instr>) -> Result<(), CompileError> {
    match rhs {
        Rhs::Call { state, child } => {
            let q =
                u16::try_from(state.0).map_err(|_| CompileError::TooManyStates(state.index()))?;
            let child =
                u16::try_from(*child).map_err(|_| CompileError::TooManyVariables(*child))?;
            code.push(Instr::Call { q, child });
        }
        Rhs::Out(sym, children) => {
            code.push(Instr::Out {
                sym: *sym,
                arity: children.len() as u32,
            });
            for c in children {
                lower(c, code)?;
            }
        }
    }
    Ok(())
}

impl CompiledDtop {
    /// The input alphabet the transducer was compiled against.
    pub fn input(&self) -> &RankedAlphabet {
        &self.input
    }

    /// Number of states.
    pub fn state_count(&self) -> usize {
        self.n_states
    }

    /// Number of dense input symbols.
    pub fn symbol_count(&self) -> usize {
        self.n_syms as usize
    }

    /// Total lowered instructions (axiom + all rules).
    pub fn code_len(&self) -> usize {
        self.code.len()
    }

    /// The cache key; see [`fingerprint`].
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The instruction arena.
    pub fn code(&self) -> &[Instr] {
        &self.code
    }

    /// Dense id of an input symbol, or [`NO_SYM`].
    #[inline]
    pub fn dense_sym(&self, sym: Symbol) -> u32 {
        self.sym_map
            .get(sym.id() as usize)
            .copied()
            .unwrap_or(NO_SYM)
    }

    /// Code range of `rhs(q, f)` for a dense symbol id, if the rule exists.
    #[inline]
    pub fn rule_range(&self, q: u16, dense_sym: u32) -> Option<(u32, u32)> {
        if dense_sym >= self.n_syms {
            return None;
        }
        let r = self.rules[q as usize * self.n_syms as usize + dense_sym as usize];
        if r.is_none() {
            None
        } else {
            Some((r.start, r.end))
        }
    }

    /// Code range of the axiom.
    #[inline]
    pub fn axiom_range(&self) -> (u32, u32) {
        (self.axiom.start, self.axiom.end)
    }

    /// Distinct states the axiom calls on the input root, sorted.
    pub fn axiom_states(&self) -> &[u16] {
        &self.axiom_states
    }

    /// Collects into `out` the sorted, deduplicated set of states that
    /// process child `child` of a node labeled `dense_sym`, given that
    /// `states` process the node itself. Used by the streaming front end
    /// to drive the run top-down in lockstep with the event stream.
    pub fn states_for_child(
        &self,
        states: &[u16],
        dense_sym: u32,
        child: usize,
        out: &mut Vec<u16>,
    ) {
        out.clear();
        for &q in states {
            if let Some((s, e)) = self.rule_range(q, dense_sym) {
                for instr in &self.code[s as usize..e as usize] {
                    if let Instr::Call { q: q2, child: c } = *instr {
                        if usize::from(c) == child {
                            out.push(q2);
                        }
                    }
                }
            }
        }
        out.sort_unstable();
        out.dedup();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xtt_transducer::examples;

    #[test]
    fn flip_compiles_to_dense_tables() {
        let m = examples::flip().dtop;
        let c = compile(&m).unwrap();
        assert_eq!(c.state_count(), 4);
        assert_eq!(c.symbol_count(), 4);
        // every (q, f) with a rule resolves; others do not
        let mut found = 0;
        for q in 0..4u16 {
            for dense in 0..4u32 {
                if c.rule_range(q, dense).is_some() {
                    found += 1;
                }
            }
        }
        assert_eq!(found, m.rule_count());
        // code size equals |M| (one instruction per rhs node)
        assert_eq!(c.code_len(), m.size());
    }

    #[test]
    fn unknown_symbols_map_to_no_sym() {
        let c = compile(&examples::flip().dtop).unwrap();
        assert_eq!(c.dense_sym(Symbol::new("certainly-not-declared")), NO_SYM);
        assert_eq!(c.rule_range(0, NO_SYM), None);
    }

    #[test]
    fn fingerprints_separate_structures() {
        let flip = examples::flip().dtop;
        let lib = examples::library().dtop;
        assert_ne!(fingerprint(&flip), fingerprint(&lib));
        assert_eq!(fingerprint(&flip), fingerprint(&examples::flip().dtop));
        assert_eq!(compile(&flip).unwrap().fingerprint(), fingerprint(&flip));
    }

    #[test]
    fn axiom_states_are_sorted_distinct() {
        // ax = root(<q1,x0>,<q2,x0>); the fixture names q1..q4 are QIds 0..3.
        let c = compile(&examples::flip().dtop).unwrap();
        assert_eq!(c.axiom_states(), &[0, 1]);
    }

    #[test]
    fn states_for_child_follows_rules() {
        let m = examples::flip().dtop;
        let c = compile(&m).unwrap();
        let root = c.dense_sym(Symbol::new("root"));
        let mut out = Vec::new();
        // q1(root(x1,x2)) -> <q3,x2>, q2(root(x1,x2)) -> <q4,x1>
        c.states_for_child(&[0, 1], root, 1, &mut out);
        assert_eq!(out, vec![2]); // q3
        c.states_for_child(&[0, 1], root, 0, &mut out);
        assert_eq!(out, vec![3]); // q4
    }
}
