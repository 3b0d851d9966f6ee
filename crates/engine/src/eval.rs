//! The compiled evaluator: an iterative, allocation-free interpreter for
//! [`CompiledDtop`] instruction sequences.
//!
//! Semantics are exactly Definition 1 (`⟦M⟧`, see `xtt_transducer::eval`),
//! but the execution strategy is engineered for throughput:
//!
//! * the input tree is **flattened once** into dense arrays (symbol id,
//!   child range) — no pointer chasing or `Rc` traffic afterwards;
//! * memoization uses a **dense table** indexed by `q · n_nodes + node`
//!   instead of a hash map, so copying transducers stay linear without
//!   hashing on the hot path;
//! * the interpreter runs on **explicit stacks** (activation records +
//!   value/frame stacks), so arbitrarily deep inputs cannot overflow the
//!   call stack;
//! * all per-evaluation state lives in a reusable [`EvalScratch`]: after
//!   warm-up, steady-state evaluation performs no allocations beyond the
//!   output itself;
//! * repeated output nodes are **hash-consed** across documents, so a
//!   copying transducer's exponential output is built as a shared,
//!   linear-size [`Tree`] and never unfolded.

use xtt_trees::{Symbol, Tree};

use crate::compile::{CompiledDtop, Instr};

/// A node of the flattened input tree.
#[derive(Clone, Copy, Debug)]
struct FlatNode {
    /// Dense input-symbol id, or [`crate::compile::NO_SYM`].
    sym: u32,
    child_start: u32,
    child_count: u32,
}

/// Virtual axiom node id (its single "child" is the input root).
const VIRT: u32 = u32::MAX;
/// Activation-record state marker for the axiom (not memoized).
const NO_Q: u16 = u16::MAX;

/// A suspended rule application: instructions `ip..end` of `rhs(q, node)`.
#[derive(Clone, Copy, Debug)]
struct Activation {
    ip: u32,
    end: u32,
    node: u32,
    q: u16,
    /// Frame-stack depth when the activation started; frames above it
    /// belong to this rule body.
    fbase: u32,
}

/// A pending output node awaiting `arity` children on the value stack.
#[derive(Clone, Copy, Debug)]
struct Frame {
    sym: Symbol,
    base: u32,
    arity: u32,
}

/// One interned output node: the exact key (symbol + child `Rc`
/// addresses) plus the shared tree. The table keeps its trees alive, so
/// an address cannot be reused while it keys the table.
struct InternEntry {
    sym: u32,
    children: Box<[u64]>,
    val: Tree,
}

/// Trivial hasher for pre-mixed `u64` keys.
#[derive(Default)]
struct PremixedHasher(u64);

impl std::hash::Hasher for PremixedHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("intern keys are written as u64");
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = v;
    }
}

type InternMap =
    std::collections::HashMap<u64, Vec<InternEntry>, std::hash::BuildHasherDefault<PremixedHasher>>;

/// Intern-table size bound; crossing it clears the table (bulk workloads
/// re-warm it within a document or two).
const INTERN_CAP: usize = 1 << 17;

/// Reusable evaluation state. Create once per worker thread and pass to
/// every [`CompiledDtop::eval`] call; buffers are retained across
/// documents, so steady-state evaluation allocates nothing.
#[derive(Default)]
pub struct EvalScratch {
    nodes: Vec<FlatNode>,
    children: Vec<u32>,
    memo: Vec<Option<Tree>>,
    /// Memo slots written during the current document; resetting clears
    /// exactly these instead of the whole table.
    dirty: Vec<usize>,
    /// Per-instruction cache of leaf trees, valid for the compiled
    /// transducer identified by `cached_fp`.
    leaf_cache: Vec<Option<Tree>>,
    cached_fp: Option<u64>,
    /// Cross-document hash-consing of output nodes.
    intern: InternMap,
    interned: usize,
    acts: Vec<Activation>,
    vals: Vec<Tree>,
    frames: Vec<Frame>,
}

impl EvalScratch {
    pub fn new() -> EvalScratch {
        EvalScratch::default()
    }

    /// Flattens `input` and resets the memo table for `c`.
    fn prepare(&mut self, c: &CompiledDtop, input: &Tree) {
        if self.cached_fp != Some(c.fingerprint()) {
            self.cached_fp = Some(c.fingerprint());
            self.leaf_cache.clear();
            self.leaf_cache.resize(c.code_len(), None);
        }
        self.nodes.clear();
        self.children.clear();
        self.nodes.push(FlatNode {
            sym: c.dense_sym(input.symbol()),
            child_start: 0,
            child_count: input.arity() as u32,
        });
        let mut stack: Vec<(&Tree, u32)> = vec![(input, 0)];
        while let Some((t, id)) = stack.pop() {
            let cs = self.children.len() as u32;
            self.nodes[id as usize].child_start = cs;
            for child in t.children() {
                let cid = self.nodes.len() as u32;
                self.nodes.push(FlatNode {
                    sym: c.dense_sym(child.symbol()),
                    child_start: 0,
                    child_count: child.arity() as u32,
                });
                self.children.push(cid);
            }
            for (i, child) in t.children().iter().enumerate() {
                stack.push((child, self.children[cs as usize + i]));
            }
        }
        assert!(self.nodes.len() < VIRT as usize, "input too large");
        for slot in self.dirty.drain(..) {
            self.memo[slot] = None;
        }
        let len = c.state_count() * self.nodes.len();
        if self.memo.len() < len {
            self.memo.resize(len, None);
        }
    }
}

impl CompiledDtop {
    /// Evaluates `⟦M⟧(input)` with reusable scratch state. `None` iff
    /// `input ∉ dom(⟦M⟧)` — bit-for-bit the partiality of
    /// `xtt_transducer::eval::eval`.
    pub fn eval(&self, input: &Tree, scratch: &mut EvalScratch) -> Option<Tree> {
        scratch.prepare(self, input);
        run(self, scratch)
    }

    /// One-shot convenience wrapper around [`CompiledDtop::eval`].
    pub fn eval_once(&self, input: &Tree) -> Option<Tree> {
        self.eval(input, &mut EvalScratch::new())
    }
}

/// The interpreter loop. Executes the axiom's instruction sequence; every
/// `Call` either hits the memo table or pushes an activation record for
/// the callee's rule. Returns `None` on the first missing rule or
/// out-of-range variable (partiality propagates to the top, so aborting
/// early is exact).
///
/// The current activation is kept in locals (only suspended rules touch
/// the activation stack), leaf instructions hit the per-instruction leaf
/// cache, and memo writes are dirty-tracked so the next document resets
/// only what this one touched.
fn run(c: &CompiledDtop, sc: &mut EvalScratch) -> Option<Tree> {
    let n_nodes = sc.nodes.len();
    sc.acts.clear();
    sc.vals.clear();
    sc.frames.clear();
    let code = c.code();
    let (ax_start, ax_end) = c.axiom_range();
    let mut act = Activation {
        ip: ax_start,
        end: ax_end,
        node: VIRT,
        q: NO_Q,
        fbase: 0,
    };
    loop {
        while act.ip < act.end {
            let instr = code[act.ip as usize];
            let at = act.ip as usize;
            act.ip += 1;
            match instr {
                Instr::Out { sym, arity: 0 } => {
                    let v = sc.leaf_cache[at].get_or_insert_with(|| Tree::leaf(sym));
                    sc.vals.push(v.clone());
                    complete_frames(sc, act.fbase);
                }
                Instr::Out { sym, arity } => sc.frames.push(Frame {
                    sym,
                    base: sc.vals.len() as u32,
                    arity,
                }),
                Instr::Call { q, child } => {
                    let node = if act.node == VIRT {
                        0 // axiom calls target the input root (x0)
                    } else {
                        let n = sc.nodes[act.node as usize];
                        if u32::from(child) >= n.child_count {
                            return None; // variable beyond the node's children
                        }
                        sc.children[(n.child_start + u32::from(child)) as usize]
                    };
                    let slot = q as usize * n_nodes + node as usize;
                    if let Some(v) = sc.memo[slot].clone() {
                        sc.vals.push(v);
                        complete_frames(sc, act.fbase);
                    } else {
                        let sym = sc.nodes[node as usize].sym;
                        let (start, end) = c.rule_range(q, sym)?;
                        sc.acts.push(act);
                        act = Activation {
                            ip: start,
                            end,
                            node,
                            q,
                            fbase: sc.frames.len() as u32,
                        };
                    }
                }
            }
        }
        // Rule body finished: its single value is on top of `vals`.
        debug_assert_eq!(sc.frames.len() as u32, act.fbase);
        if act.q != NO_Q {
            let v = sc.vals.last().expect("rule produced a value").clone();
            let slot = act.q as usize * n_nodes + act.node as usize;
            sc.memo[slot] = Some(v);
            sc.dirty.push(slot);
        }
        match sc.acts.pop() {
            None => {
                debug_assert_eq!(sc.vals.len(), 1);
                return sc.vals.pop();
            }
            Some(parent) => {
                act = parent;
                complete_frames(sc, act.fbase);
            }
        }
    }
}

/// Pops every frame (down to `floor`) whose children are all on the value
/// stack, building the corresponding output nodes.
fn complete_frames(sc: &mut EvalScratch, floor: u32) {
    while sc.frames.len() as u32 > floor {
        let f = *sc.frames.last().expect("frame");
        if sc.vals.len() as u32 != f.base + f.arity {
            break;
        }
        sc.frames.pop();
        let v = make_node(
            &mut sc.vals,
            &mut sc.intern,
            &mut sc.interned,
            f.sym,
            f.base as usize,
        );
        sc.vals.push(v);
    }
}

/// Builds `sym(vals[base..])`, hash-consing the node across documents:
/// if an identical node (same symbol, same child `Rc` addresses) was
/// built before, the shared tree is reused and no construction happens
/// at all.
fn make_node(
    vals: &mut Vec<Tree>,
    intern: &mut InternMap,
    interned: &mut usize,
    sym: Symbol,
    base: usize,
) -> Tree {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ u64::from(sym.id());
    h = h.wrapping_mul(0x100_0000_01b3);
    for v in &vals[base..] {
        h ^= v.addr() as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    if let Some(bucket) = intern.get(&h) {
        'entry: for entry in bucket {
            if entry.sym != sym.id() || entry.children.len() != vals.len() - base {
                continue;
            }
            for (&id, v) in entry.children.iter().zip(&vals[base..]) {
                if id != v.addr() as u64 {
                    continue 'entry;
                }
            }
            let val = entry.val.clone();
            vals.truncate(base);
            return val;
        }
    }
    let children: Box<[u64]> = vals[base..].iter().map(|v| v.addr() as u64).collect();
    let val = Tree::new(sym, vals.split_off(base));
    if *interned >= INTERN_CAP {
        intern.clear();
        *interned = 0;
    }
    intern.entry(h).or_default().push(InternEntry {
        sym: sym.id(),
        children,
        val: val.clone(),
    });
    *interned += 1;
    val
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile;
    use xtt_transducer::{eval as walk_eval, examples};
    use xtt_trees::{gen::enumerate_trees, parse_tree, TreeDag};

    #[test]
    fn agrees_with_tree_walk_on_fixtures() {
        for fix in [
            examples::flip(),
            examples::library(),
            examples::monadic_to_binary(),
            examples::flip_k(3),
            examples::relabel_chain(4),
        ] {
            let c = compile(&fix.dtop).unwrap();
            let mut scratch = EvalScratch::new();
            for t in enumerate_trees(fix.dtop.input(), 120, 9) {
                assert_eq!(c.eval(&t, &mut scratch), walk_eval(&fix.dtop, &t), "on {t}");
            }
        }
    }

    #[test]
    fn flip_paper_pairs() {
        let c = compile(&examples::flip().dtop).unwrap();
        let mut scratch = EvalScratch::new();
        let cases = [
            ("root(#,#)", "root(#,#)"),
            ("root(a(#,#),#)", "root(#,a(#,#))"),
            ("root(#,b(#,#))", "root(b(#,#),#)"),
            (
                "root(a(#,a(#,#)),b(#,b(#,#)))",
                "root(b(#,b(#,#)),a(#,a(#,#)))",
            ),
        ];
        for (input, expected) in cases {
            let s = parse_tree(input).unwrap();
            assert_eq!(
                c.eval(&s, &mut scratch).unwrap().to_string(),
                expected,
                "on {input}"
            );
        }
        // partiality: an a-list where the b-list belongs
        assert_eq!(
            c.eval(&parse_tree("root(#,a(#,#))").unwrap(), &mut scratch),
            None
        );
        // out-of-alphabet symbol anywhere reachable is undefined
        assert_eq!(c.eval(&parse_tree("zzz(#,#)").unwrap(), &mut scratch), None);
    }

    #[test]
    fn copying_is_linear_and_shares_output() {
        let c = compile(&examples::monadic_to_binary().dtop).unwrap();
        let mut input = Tree::leaf_named("e");
        for _ in 0..24 {
            input = Tree::node("f", vec![input]);
        }
        let out = c.eval_once(&input).unwrap();
        assert_eq!(out.size(), (1 << 25) - 1);
        assert_eq!(out.height(), 24);
    }

    #[test]
    fn dag_output_is_minimal_for_copying() {
        let c = compile(&examples::monadic_to_binary().dtop).unwrap();
        let mut input = Tree::leaf_named("e");
        for _ in 0..40 {
            input = Tree::node("f", vec![input]);
        }
        // 2^41 - 1 output nodes as a 41-node DAG: `eval` shares repeated
        // output subtrees, so the output is never unfolded.
        let mut dag = TreeDag::new();
        let id = dag.insert(&c.eval_once(&input).unwrap());
        let stats = dag.stats(id);
        assert_eq!(stats.tree_size, (1u64 << 41) - 1);
        assert_eq!(stats.dag_size, 41);
    }

    #[test]
    fn deep_monadic_input_no_stack_overflow() {
        let c = compile(&examples::relabel_chain(2).dtop).unwrap();
        let mut t = Tree::leaf_named("e");
        for _ in 0..200_000 {
            t = Tree::node("f", vec![t]);
        }
        // The relabeling of a 200k-deep monadic chain must not recurse on
        // input depth (explicit activation stack).
        let mut scratch = EvalScratch::new();
        let out = c.eval(&t, &mut scratch).unwrap();
        assert_eq!(out.size(), t.size());
    }

    #[test]
    fn scratch_reuse_is_sound_across_documents() {
        let c = compile(&examples::flip().dtop).unwrap();
        let mut scratch = EvalScratch::new();
        let a = parse_tree("root(a(#,#),b(#,#))").unwrap();
        let bad = parse_tree("root(b(#,#),#)").unwrap();
        for _ in 0..3 {
            assert_eq!(
                c.eval(&a, &mut scratch).unwrap().to_string(),
                "root(b(#,#),a(#,#))"
            );
            assert_eq!(c.eval(&bad, &mut scratch), None);
        }
    }

    #[test]
    fn constant_axiom_ignores_input() {
        let c = compile(&examples::constant_m1().dtop).unwrap();
        let mut scratch = EvalScratch::new();
        for text in ["a", "f(a,a)", "f(f(a,a),a)"] {
            let t = parse_tree(text).unwrap();
            assert_eq!(c.eval(&t, &mut scratch).unwrap().to_string(), "b");
        }
    }
}
