//! The compiled evaluator: an iterative interpreter for [`CompiledDtop`]
//! instruction sequences.
//!
//! Semantics are exactly Definition 1 (`⟦M⟧`, see `xtt_transducer::eval`),
//! but the execution strategy is engineered for throughput:
//!
//! * the input is **loaded once** into dense arrays (symbol id, child
//!   range) straight from its format's event source — no input tree, no
//!   pointer chasing or `Rc` traffic;
//! * memoization uses a **dense table** indexed by `q · n_nodes + node`
//!   instead of a hash map, so each (state, node) pair is computed once
//!   and copying transducers stay linear without hashing;
//! * output nodes go into a **per-call arena** of `u32` ids: a memo hit
//!   shares an id, so a copying transducer's exponential output is a
//!   linear-size DAG that is never unfolded, and its saturating size is
//!   known without a walk;
//! * the interpreter runs on **explicit stacks** (activation records +
//!   value/frame stacks), so arbitrarily deep inputs cannot overflow the
//!   call stack;
//! * all per-evaluation state lives in a reusable [`EvalScratch`]: after
//!   warm-up, a document allocates nothing.
//!
//! [`CompiledDtop::eval`] is the tree-in, tree-out wrapper over the same
//! core, and allocates the tree it returns; the engine's `tree` mode
//! loads from the document's text and replays the arena into the
//! format's sink.

use std::io;

use xtt_trees::{EventError, Symbol, Tree, TreeEvent};

use crate::compile::{CompiledDtop, Instr};
use crate::stream::{IterEvents, OutputSink, TreeEventSource};

/// A node of the flattened input tree.
#[derive(Clone, Copy, Debug)]
struct FlatNode {
    /// Dense input-symbol id, or [`crate::compile::NO_SYM`].
    sym: u32,
    child_start: u32,
    child_count: u32,
}

/// A node of the output arena; its children are
/// `out_children[start..start + arity]`.
#[derive(Clone, Copy, Debug)]
struct OutNode {
    sym: Symbol,
    start: u32,
    arity: u32,
    /// Nodes of the unfolded subtree, saturating at `u64::MAX`.
    size: u64,
}

/// Virtual axiom node id (its single "child" is the input root).
const VIRT: u32 = u32::MAX;
/// Activation-record state marker for the axiom (not memoized).
const NO_Q: u16 = u16::MAX;
/// An empty memo slot.
const NO_VAL: u32 = u32::MAX;

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

/// Reusable evaluation state. Create once and pass to every
/// [`CompiledDtop::eval`]; buffers are retained across documents.
#[derive(Default)]
pub struct EvalScratch {
    nodes: Vec<FlatNode>,
    children: Vec<u32>,
    /// Loading: the open input nodes, innermost last.
    open: Vec<u32>,
    /// Loading: child ids awaiting their parent's `Close`.
    pending: Vec<u32>,
    /// Output id per `(q, node)`, or [`NO_VAL`].
    memo: Vec<u32>,
    /// Memo slots written during the current document; resetting clears
    /// exactly these instead of the whole table.
    dirty: Vec<usize>,
    acts: Vec<Activation>,
    vals: Vec<u32>,
    frames: Vec<Frame>,
    out: Vec<OutNode>,
    out_children: Vec<u32>,
    /// Emitting: `(node, children emitted)` of the open output nodes.
    walk: Vec<(u32, u32)>,
}

impl EvalScratch {
    pub fn new() -> EvalScratch {
        EvalScratch::default()
    }

    /// Loads one document's events into the flat input for `c`, draining
    /// `source`. Children are assigned when their parent closes, so one
    /// pass gives every node a contiguous child range. `Err` is the first
    /// way the events fail to be exactly one tree; the source's own error,
    /// if one ended it, is the caller's to take.
    pub(crate) fn load(
        &mut self,
        c: &CompiledDtop,
        source: &mut impl TreeEventSource,
    ) -> Result<(), EventError> {
        self.nodes.clear();
        self.children.clear();
        self.open.clear();
        self.pending.clear();
        let mut shape = Ok(());
        let mut closed = false;
        while let Some(event) = source.next_event() {
            if shape.is_err() {
                continue;
            }
            if closed {
                shape = Err(EventError::NotASingleTree);
                continue;
            }
            match event {
                TreeEvent::Open(sym) => {
                    let id = u32::try_from(self.nodes.len())
                        .ok()
                        .filter(|&id| id != VIRT)
                        .expect("input too large");
                    if let Some(&parent) = self.open.last() {
                        self.nodes[parent as usize].child_count += 1;
                        self.pending.push(id);
                    }
                    self.nodes.push(FlatNode {
                        sym: c.dense_sym(sym),
                        child_start: 0,
                        child_count: 0,
                    });
                    self.open.push(id);
                }
                TreeEvent::Close => {
                    let Some(id) = self.open.pop() else {
                        shape = Err(EventError::UnbalancedClose);
                        continue;
                    };
                    let node = &mut self.nodes[id as usize];
                    node.child_start = self.children.len() as u32;
                    let first = self.pending.len() - node.child_count as usize;
                    self.children.extend_from_slice(&self.pending[first..]);
                    self.pending.truncate(first);
                    closed = self.open.is_empty();
                }
            }
        }
        if shape.is_ok() && !closed {
            shape = Err(match self.open.is_empty() {
                true => EventError::NotASingleTree,
                false => EventError::UnexpectedEnd,
            });
        }
        for slot in self.dirty.drain(..) {
            self.memo[slot] = NO_VAL;
        }
        let len = c.state_count() * self.nodes.len();
        if self.memo.len() < len {
            self.memo.resize(len, NO_VAL);
        }
        shape
    }

    /// Nodes of the unfolded output below arena node `id`, saturating.
    pub(crate) fn size(&self, id: u32) -> u64 {
        self.out[id as usize].size
    }

    /// Replays the output below arena node `root` into `sink` as
    /// pre-order events, iteratively in depth.
    pub(crate) fn emit(&mut self, root: u32, sink: &mut dyn OutputSink) -> io::Result<()> {
        let (out, out_children, walk) = (&self.out, &self.out_children, &mut self.walk);
        walk.clear();
        sink.event(TreeEvent::Open(out[root as usize].sym))?;
        walk.push((root, 0));
        while let Some((id, next)) = walk.last_mut() {
            let node = out[*id as usize];
            if *next == node.arity {
                walk.pop();
                sink.event(TreeEvent::Close)?;
                continue;
            }
            let child = out_children[(node.start + *next) as usize];
            *next += 1;
            sink.event(TreeEvent::Open(out[child as usize].sym))?;
            walk.push((child, 0));
        }
        Ok(())
    }

    /// The output below arena node `root` as a [`Tree`] that shares every
    /// repeated arena node.
    fn tree(&self, root: u32) -> Tree {
        // Children precede their parents in the arena.
        let mut trees: Vec<Tree> = Vec::with_capacity(root as usize + 1);
        for node in &self.out[..=root as usize] {
            let range = node.start as usize..(node.start + node.arity) as usize;
            let children = self.out_children[range]
                .iter()
                .map(|&c| trees[c as usize].clone())
                .collect();
            trees.push(Tree::new(node.sym, children));
        }
        trees.swap_remove(root as usize)
    }
}

impl CompiledDtop {
    /// Evaluates `⟦M⟧(input)` with reusable scratch state. `None` iff
    /// `input ∉ dom(⟦M⟧)` — bit-for-bit the partiality of
    /// `xtt_transducer::eval::eval`. Repeated output subtrees are shared.
    pub fn eval(&self, input: &Tree, scratch: &mut EvalScratch) -> Option<Tree> {
        scratch
            .load(self, &mut IterEvents(input.events()))
            .expect("a tree's events are one tree");
        let root = run(self, scratch)?;
        Some(scratch.tree(root))
    }

    /// One-shot convenience wrapper around [`CompiledDtop::eval`].
    pub fn eval_once(&self, input: &Tree) -> Option<Tree> {
        self.eval(input, &mut EvalScratch::new())
    }
}

/// The interpreter loop over the loaded input. Executes the axiom's
/// instruction sequence; every `Call` either hits the memo table or pushes
/// an activation record for the callee's rule. Returns the output root's
/// arena id, or `None` on the first missing rule or out-of-range variable
/// (partiality propagates to the top, so aborting early is exact).
///
/// The current activation is kept in locals (only suspended rules touch
/// the activation stack), and memo writes are dirty-tracked so the next
/// document resets only what this one touched.
pub(crate) fn run(c: &CompiledDtop, sc: &mut EvalScratch) -> Option<u32> {
    let n_nodes = sc.nodes.len();
    sc.acts.clear();
    sc.vals.clear();
    sc.frames.clear();
    sc.out.clear();
    sc.out_children.clear();
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
            act.ip += 1;
            match instr {
                Instr::Out { sym, arity: 0 } => {
                    let leaf = new_node(sc, sym, 0, 0, 1);
                    sc.vals.push(leaf);
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
                    let hit = sc.memo[slot];
                    if hit != NO_VAL {
                        sc.vals.push(hit);
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
            let v = *sc.vals.last().expect("rule produced a value");
            let slot = act.q as usize * n_nodes + act.node as usize;
            sc.memo[slot] = v;
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

/// Appends an output node to the arena and returns its id.
fn new_node(sc: &mut EvalScratch, sym: Symbol, start: u32, arity: u32, size: u64) -> u32 {
    let id = u32::try_from(sc.out.len()).expect("output arena overflow");
    sc.out.push(OutNode {
        sym,
        start,
        arity,
        size,
    });
    id
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
        let kids = &sc.vals[f.base as usize..];
        let size = kids.iter().fold(1u64, |size, &k| {
            size.saturating_add(sc.out[k as usize].size)
        });
        let start = u32::try_from(sc.out_children.len()).expect("output arena overflow");
        sc.out_children.extend_from_slice(kids);
        sc.vals.truncate(f.base as usize);
        let id = new_node(sc, f.sym, start, f.arity, size);
        sc.vals.push(id);
    }
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
