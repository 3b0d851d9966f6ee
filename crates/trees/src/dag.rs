//! Minimal DAG representation of trees.
//!
//! The paper (Section 1, "Learning Algorithm") notes that a dtop can turn a
//! monadic input of height *n* into a full binary tree of height *n*, so
//! characteristic samples can contain exponentially large output trees — and
//! that this is avoided by representing outputs as their minimal DAGs, which
//! a dtop produces in time linear in the input size (cf. [Maneth & Busatto,
//! FOSSACS 2004]).
//!
//! [`TreeDag`] is a hash-consing arena: structurally equal subtrees are
//! stored exactly once. Insertion of an [`crate::tree::Tree`] is linear in
//! the number of *distinct* subtrees thanks to a memo table keyed on the
//! `Rc` address of shared nodes (outputs of copying transducers are already
//! heavily shared in memory). The memo lives for one insertion only: the
//! inserted tree keeps every address it holds alive, while an address
//! from an earlier, since-dropped tree may belong to a new tree by now.

use std::collections::HashMap;
use std::fmt;

use crate::symbol::Symbol;
use crate::tree::Tree;

/// Identifier of a DAG node within one [`TreeDag`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DagId(u32);

impl DagId {
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

#[derive(Clone, Debug, PartialEq, Eq, Hash)]
struct DagNode {
    symbol: Symbol,
    children: Vec<DagId>,
}

/// A hash-consing arena of tree nodes; the minimal DAG of every inserted
/// tree.
#[derive(Default)]
pub struct TreeDag {
    nodes: Vec<DagNode>,
    intern: HashMap<DagNode, DagId>,
    /// Per-node tree-unfolding size, maintained at intern time so
    /// [`TreeDag::tree_size`] is O(1) (saturating at `u64::MAX`).
    sizes: Vec<u64>,
}

impl TreeDag {
    pub fn new() -> TreeDag {
        TreeDag::default()
    }

    /// Number of distinct nodes stored (the DAG size).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Interns a node with already-interned children.
    pub fn intern_node(&mut self, symbol: Symbol, children: Vec<DagId>) -> DagId {
        for c in &children {
            assert!(c.index() < self.nodes.len(), "foreign DagId");
        }
        let node = DagNode { symbol, children };
        if let Some(&id) = self.intern.get(&node) {
            return id;
        }
        let id = DagId(u32::try_from(self.nodes.len()).expect("DAG too large"));
        self.intern.insert(node.clone(), id);
        let size = node
            .children
            .iter()
            .fold(1u64, |acc, c| acc.saturating_add(self.sizes[c.index()]));
        self.nodes.push(node);
        self.sizes.push(size);
        id
    }

    /// Inserts a tree, sharing all equal subtrees. Returns the root id.
    pub fn insert(&mut self, tree: &Tree) -> DagId {
        // `Tree::addr()` → id, so shared subtrees are revisited O(1). Local
        // to this call: `tree` keeps the addresses it holds alive.
        let mut memo: HashMap<usize, DagId> = HashMap::new();
        // Explicit stack to avoid recursion limits on path-shaped trees.
        enum Frame<'a> {
            Enter(&'a Tree),
            Exit(&'a Tree),
        }
        let mut stack = vec![Frame::Enter(tree)];
        let mut results: Vec<DagId> = Vec::new();
        while let Some(frame) = stack.pop() {
            match frame {
                Frame::Enter(t) => {
                    if let Some(&id) = memo.get(&t.addr()) {
                        results.push(id);
                        continue;
                    }
                    stack.push(Frame::Exit(t));
                    for c in t.children().iter().rev() {
                        stack.push(Frame::Enter(c));
                    }
                }
                Frame::Exit(t) => {
                    let k = t.arity();
                    let children = results.split_off(results.len() - k);
                    let id = self.intern_node(t.symbol(), children);
                    memo.insert(t.addr(), id);
                    results.push(id);
                }
            }
        }
        debug_assert_eq!(results.len(), 1);
        results[0]
    }

    /// The symbol of a node.
    pub fn symbol(&self, id: DagId) -> Symbol {
        self.nodes[id.index()].symbol
    }

    /// The children of a node.
    pub fn children(&self, id: DagId) -> &[DagId] {
        &self.nodes[id.index()].children
    }

    /// The number of nodes of the *tree* unfolding rooted at `id`
    /// (may be exponentially larger than the DAG). O(1) — maintained at
    /// intern time — and saturating at `u64::MAX`: a 100-byte monadic
    /// input to a copying transducer is enough to overflow 64 bits, and
    /// callers use this to *bound* work.
    pub fn tree_size(&self, id: DagId) -> u64 {
        self.sizes[id.index()]
    }

    /// Number of distinct nodes reachable from `id` (the minimal-DAG size of
    /// the tree rooted there).
    pub fn reachable_count(&self, id: DagId) -> usize {
        let mut seen = vec![false; self.nodes.len()];
        let mut stack = vec![id];
        let mut count = 0;
        while let Some(n) = stack.pop() {
            if std::mem::replace(&mut seen[n.index()], true) {
                continue;
            }
            count += 1;
            stack.extend(self.children(n).iter().copied());
        }
        count
    }

    /// Unfolds a DAG node back into a tree. Shared DAG nodes unfold into
    /// shared `Rc` subtrees, so this is linear in the DAG size.
    pub fn extract(&self, id: DagId) -> Tree {
        // Children have smaller ids than parents; build bottom-up.
        let mut built: Vec<Option<Tree>> = vec![None; id.index() + 1];
        for i in 0..=id.index() {
            let node = &self.nodes[i];
            let children = node
                .children
                .iter()
                .map(|c| built[c.index()].clone().expect("child built before parent"))
                .collect();
            built[i] = Some(Tree::new(node.symbol, children));
        }
        built[id.index()].take().expect("root built")
    }

    /// Compression statistics for the tree rooted at `id`.
    pub fn stats(&self, id: DagId) -> DagStats {
        let tree_size = self.tree_size(id);
        let dag_size = self.reachable_count(id) as u64;
        DagStats {
            tree_size,
            dag_size,
        }
    }
}

/// Tree-vs-DAG size comparison.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DagStats {
    pub tree_size: u64,
    pub dag_size: u64,
}

impl DagStats {
    /// `tree_size / dag_size` as a float.
    pub fn compression_ratio(&self) -> f64 {
        self.tree_size as f64 / self.dag_size as f64
    }
}

impl fmt::Debug for TreeDag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TreeDag")
            .field("nodes", &self.nodes.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_tree;

    fn full_binary(n: u32) -> Tree {
        // Built with sharing: both children are the same Rc.
        let mut t = Tree::leaf_named("leaf");
        for _ in 0..n {
            t = Tree::node("bin", vec![t.clone(), t]);
        }
        t
    }

    #[test]
    fn insert_shares_equal_subtrees() {
        let mut dag = TreeDag::new();
        let id = dag.insert(&parse_tree("f(g(a),g(a))").unwrap());
        // nodes: a, g(a), f — the two g(a) children collapse.
        assert_eq!(dag.node_count(), 3);
        assert_eq!(dag.tree_size(id), 5);
        assert_eq!(dag.reachable_count(id), 3);
    }

    #[test]
    fn exponential_tree_linear_dag() {
        let mut dag = TreeDag::new();
        let n = 16;
        let id = dag.insert(&full_binary(n));
        let stats = dag.stats(id);
        assert_eq!(stats.tree_size, (1u64 << (n + 1)) - 1);
        assert_eq!(stats.dag_size, u64::from(n) + 1);
        assert!(stats.compression_ratio() > 1000.0);
    }

    #[test]
    fn extract_roundtrips() {
        let mut dag = TreeDag::new();
        let t = parse_tree("root(a(#,#),b(#,a(#,#)))").unwrap();
        let id = dag.insert(&t);
        assert_eq!(dag.extract(id), t);
    }

    #[test]
    fn repeated_insert_is_stable() {
        let mut dag = TreeDag::new();
        let t = parse_tree("f(a,b)").unwrap();
        let id1 = dag.insert(&t);
        let id2 = dag.insert(&t.clone());
        let id3 = dag.insert(&parse_tree("f(a,b)").unwrap());
        assert_eq!(id1, id2);
        assert_eq!(id1, id3);
        assert_eq!(dag.node_count(), 3);
    }

    #[test]
    fn multiple_trees_share_across_insertions() {
        let mut dag = TreeDag::new();
        dag.insert(&parse_tree("f(a,b)").unwrap());
        let before = dag.node_count();
        dag.insert(&parse_tree("g(a,b)").unwrap());
        // only the root g is new
        assert_eq!(dag.node_count(), before + 1);
    }

    /// A dropped tree's `Rc` addresses are free for reuse by later
    /// allocations, so the address memo must not outlive one `insert`: a
    /// new tree allocated at a dead tree's address would get its id.
    #[test]
    fn insert_after_drop_never_reuses_a_dead_trees_id() {
        let mut aliased = Vec::new();
        for i in 0..1_000 {
            let (a, b) = (format!("a{i}"), format!("b{i}"));
            let mut dag = TreeDag::new();
            let dropped = Tree::node("f", vec![Tree::leaf_named(&a), Tree::leaf_named(&b)]);
            dag.insert(&dropped);
            drop(dropped);
            let t = Tree::node("f", vec![Tree::leaf_named(&b), Tree::leaf_named(&a)]);
            let id = dag.insert(&t);
            if dag.extract(id) != t {
                aliased.push(format!("{t} came back as {}", dag.extract(id)));
            }
        }
        assert!(
            aliased.is_empty(),
            "{} aliased, e.g. {:?}",
            aliased.len(),
            aliased.first()
        );
    }

    #[test]
    fn deep_monadic_tree_no_stack_overflow() {
        let mut t = Tree::leaf_named("z");
        for _ in 0..200_000 {
            t = Tree::node("s", vec![t]);
        }
        let mut dag = TreeDag::new();
        let id = dag.insert(&t);
        assert_eq!(dag.node_count(), 200_001);
        assert_eq!(dag.tree_size(id), 200_001);
    }
}
