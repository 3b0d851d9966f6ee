//! Immutable ranked trees with cached structural hashes.
//!
//! [`Tree`] is the ground-term type `T_F` of the paper (Section 2). Trees are
//! reference-counted and immutable, so subtrees are shared freely: taking a
//! subtree, substituting a leaf, or copying a subtree into several output
//! positions (as copying transducers do) never deep-copies. Every node caches
//! its structural hash, size, and height, giving an O(1) fast path for
//! equality and hashing — the hot operations in residual and common-prefix
//! computations.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::rc::Rc;

use crate::path::NodePath;
use crate::symbol::Symbol;

#[derive(Debug)]
struct NodeInner {
    symbol: Symbol,
    children: Vec<Tree>,
    hash: u64,
    size: u64,
    height: u32,
}

/// An immutable, cheaply clonable ranked tree.
#[derive(Clone)]
pub struct Tree(Rc<NodeInner>);

impl Drop for NodeInner {
    fn drop(&mut self) {
        // Iterative drop: path-shaped trees (e.g. monadic encodings of long
        // strings) would otherwise overflow the stack in the default
        // recursive drop.
        let mut stack = std::mem::take(&mut self.children);
        while let Some(Tree(rc)) = stack.pop() {
            if let Ok(mut inner) = Rc::try_unwrap(rc) {
                stack.append(&mut inner.children);
            }
        }
    }
}

fn mix(mut h: u64, v: u64) -> u64 {
    // FNV-ish mixing; quality is sufficient for a fast-path discriminator
    // (equality always falls back to a structural comparison).
    h ^= v;
    h = h.wrapping_mul(0x100_0000_01b3);
    h ^ (h >> 29)
}

impl Tree {
    /// Builds the tree `symbol(children...)`.
    pub fn new(symbol: Symbol, children: Vec<Tree>) -> Tree {
        let mut hash = mix(0xcbf2_9ce4_8422_2325, u64::from(symbol.id()));
        let mut size = 1u64;
        let mut height = 0u32;
        for child in &children {
            hash = mix(hash, child.structural_hash());
            size = size.saturating_add(child.size());
            height = height.max(child.height() + 1);
        }
        Tree(Rc::new(NodeInner {
            symbol,
            children,
            hash,
            size,
            height,
        }))
    }

    /// Builds a leaf (rank-0) tree.
    pub fn leaf(symbol: Symbol) -> Tree {
        Tree::new(symbol, Vec::new())
    }

    /// Convenience: builds a leaf from a name.
    pub fn leaf_named(name: &str) -> Tree {
        Tree::leaf(Symbol::new(name))
    }

    /// Convenience: builds `name(children...)`.
    pub fn node(name: &str, children: Vec<Tree>) -> Tree {
        Tree::new(Symbol::new(name), children)
    }

    /// The root symbol.
    pub fn symbol(&self) -> Symbol {
        self.0.symbol
    }

    /// The children, in order.
    pub fn children(&self) -> &[Tree] {
        &self.0.children
    }

    /// The `i`-th child (0-based), if it exists.
    pub fn child(&self, i: usize) -> Option<&Tree> {
        self.0.children.get(i)
    }

    /// Number of children of the root.
    pub fn arity(&self) -> usize {
        self.0.children.len()
    }

    /// True if the root has no children.
    pub fn is_leaf(&self) -> bool {
        self.0.children.is_empty()
    }

    /// Total number of nodes, saturating at `u64::MAX` (a tree that
    /// shares subtrees can have exponentially many).
    pub fn size(&self) -> u64 {
        self.0.size
    }

    /// Height (a leaf has height 0).
    pub fn height(&self) -> u32 {
        self.0.height
    }

    /// Cached structural hash. Equal trees have equal hashes.
    pub fn structural_hash(&self) -> u64 {
        self.0.hash
    }

    /// True if `self` and `other` are the same allocation.
    pub fn ptr_eq(&self, other: &Tree) -> bool {
        Rc::ptr_eq(&self.0, &other.0)
    }

    /// A stable address for memoization keyed on shared subtrees.
    pub fn addr(&self) -> usize {
        Rc::as_ptr(&self.0) as usize
    }

    /// The subtree at `path` (`π⁻¹s` in the paper), if `path` is a node of
    /// `self`. Cheap: shares the subtree.
    pub fn subtree_at(&self, path: &NodePath) -> Option<Tree> {
        let mut cur = self;
        for &i in path.indices() {
            cur = cur.child(i as usize)?;
        }
        Some(cur.clone())
    }

    /// The label at `path` (`s[π]`), if `path` is a node of `self`.
    pub fn label_at(&self, path: &NodePath) -> Option<Symbol> {
        self.node_at(path).map(Tree::symbol)
    }

    fn node_at(&self, path: &NodePath) -> Option<&Tree> {
        let mut cur = self;
        for &i in path.indices() {
            cur = cur.child(i as usize)?;
        }
        Some(cur)
    }

    /// Returns a tree equal to `self` except that the subtree at `path` is
    /// replaced by `replacement`. Returns `None` if `path` is not a node.
    /// Only the spine from the root to `path` is rebuilt.
    pub fn replace_at(&self, path: &NodePath, replacement: Tree) -> Option<Tree> {
        fn go(node: &Tree, indices: &[u32], replacement: Tree) -> Option<Tree> {
            match indices.split_first() {
                None => Some(replacement),
                Some((&i, rest)) => {
                    let i = i as usize;
                    node.child(i)?;
                    let mut children = node.children().to_vec();
                    children[i] = go(&children[i], rest, replacement)?;
                    Some(Tree::new(node.symbol(), children))
                }
            }
        }
        go(self, path.indices(), replacement)
    }

    /// Pre-order iterator over all subtree handles (root first).
    pub fn preorder(&self) -> Preorder<'_> {
        Preorder { stack: vec![self] }
    }

    /// All node paths of the tree, pre-order.
    pub fn node_paths(&self) -> Vec<NodePath> {
        let mut out = Vec::with_capacity(self.size() as usize);
        let mut stack: Vec<(NodePath, &Tree)> = vec![(NodePath::root(), self)];
        while let Some((p, t)) = stack.pop() {
            for (i, c) in t.children().iter().enumerate().rev() {
                stack.push((p.child(i as u32), c));
            }
            out.push(p);
        }
        out
    }

    /// Replaces every leaf whose symbol appears in `mapping` with the mapped
    /// tree — the substitution `[f₁ ← s₁, …, fₙ ← sₙ]` of Section 2. Inner
    /// nodes are never replaced, matching the paper (substitution is on
    /// rank-0 symbols).
    pub fn substitute_leaves(&self, mapping: &std::collections::HashMap<Symbol, Tree>) -> Tree {
        if self.is_leaf() {
            return match mapping.get(&self.symbol()) {
                Some(t) => t.clone(),
                None => self.clone(),
            };
        }
        // Fast path: if no mapped symbol occurs in this subtree, reuse it.
        if !self.contains_any_leaf(mapping) {
            return self.clone();
        }
        let children = self
            .children()
            .iter()
            .map(|c| c.substitute_leaves(mapping))
            .collect();
        Tree::new(self.symbol(), children)
    }

    fn contains_any_leaf(&self, mapping: &std::collections::HashMap<Symbol, Tree>) -> bool {
        if self.is_leaf() {
            return mapping.contains_key(&self.symbol());
        }
        self.children().iter().any(|c| c.contains_any_leaf(mapping))
    }

    /// Counts occurrences of leaves labeled `symbol`.
    pub fn count_leaves(&self, symbol: Symbol) -> usize {
        if self.is_leaf() {
            return usize::from(self.symbol() == symbol);
        }
        self.children().iter().map(|c| c.count_leaves(symbol)).sum()
    }
}

/// Pre-order iterator over subtrees.
pub struct Preorder<'a> {
    stack: Vec<&'a Tree>,
}

impl<'a> Iterator for Preorder<'a> {
    type Item = &'a Tree;

    fn next(&mut self) -> Option<&'a Tree> {
        let t = self.stack.pop()?;
        self.stack.extend(t.children().iter().rev());
        Some(t)
    }
}

impl PartialEq for Tree {
    fn eq(&self, other: &Tree) -> bool {
        if self.ptr_eq(other) {
            return true;
        }
        if self.0.hash != other.0.hash || self.0.size != other.0.size {
            return false;
        }
        self.0.symbol == other.0.symbol && self.0.children == other.0.children
    }
}

impl Eq for Tree {}

impl Hash for Tree {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.0.hash);
    }
}

impl fmt::Display for Tree {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.symbol())?;
        if !self.is_leaf() {
            write!(f, "(")?;
            for (i, c) in self.children().iter().enumerate() {
                if i > 0 {
                    write!(f, ",")?;
                }
                write!(f, "{c}")?;
            }
            write!(f, ")")?;
        }
        Ok(())
    }
}

impl fmt::Debug for Tree {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn flip_input() -> Tree {
        // root(a(#,#), b(#,#))
        let h = Tree::leaf_named("#");
        Tree::node(
            "root",
            vec![
                Tree::node("a", vec![h.clone(), h.clone()]),
                Tree::node("b", vec![h.clone(), h]),
            ],
        )
    }

    #[test]
    fn size_height_arity() {
        let t = flip_input();
        assert_eq!(t.size(), 7);
        assert_eq!(t.height(), 2);
        assert_eq!(t.arity(), 2);
        assert!(!t.is_leaf());
        assert!(Tree::leaf_named("#").is_leaf());
    }

    #[test]
    fn equality_is_structural() {
        assert_eq!(flip_input(), flip_input());
        assert_ne!(flip_input(), Tree::leaf_named("root"));
        let a = flip_input();
        let b = a.clone();
        assert!(a.ptr_eq(&b));
        assert_eq!(a.structural_hash(), flip_input().structural_hash());
    }

    #[test]
    fn subtree_and_label_access() {
        let t = flip_input();
        let p = NodePath::from_indices(&[0]);
        assert_eq!(t.label_at(&p).unwrap().name(), "a");
        let sub = t.subtree_at(&p).unwrap();
        assert_eq!(sub.to_string(), "a(#,#)");
        assert_eq!(t.subtree_at(&NodePath::root()).unwrap(), t);
        assert!(t.subtree_at(&NodePath::from_indices(&[5])).is_none());
        assert!(t.subtree_at(&NodePath::from_indices(&[0, 0, 0])).is_none());
    }

    #[test]
    fn replace_rebuilds_spine_only() {
        let t = flip_input();
        let c = Tree::leaf_named("c");
        let t2 = t.replace_at(&NodePath::from_indices(&[1, 0]), c).unwrap();
        assert_eq!(t2.to_string(), "root(a(#,#),b(c,#))");
        // untouched subtree is shared
        assert!(t.child(0).unwrap().ptr_eq(t2.child(0).unwrap()));
        assert!(t
            .replace_at(&NodePath::from_indices(&[9]), Tree::leaf_named("x"))
            .is_none());
    }

    #[test]
    fn display_matches_term_syntax() {
        assert_eq!(flip_input().to_string(), "root(a(#,#),b(#,#))");
        assert_eq!(Tree::leaf_named("#").to_string(), "#");
    }

    #[test]
    fn substitution_replaces_leaves_only() {
        let t = flip_input();
        let mut map = HashMap::new();
        map.insert(Symbol::new("#"), Tree::leaf_named("z"));
        let t2 = t.substitute_leaves(&map);
        assert_eq!(t2.to_string(), "root(a(z,z),b(z,z))");
        // inner "a" nodes are untouched even if "a" is mapped
        let mut map2 = HashMap::new();
        map2.insert(Symbol::new("a"), Tree::leaf_named("z"));
        assert_eq!(t.substitute_leaves(&map2), t);
    }

    #[test]
    fn preorder_visits_all_nodes() {
        let t = flip_input();
        let symbols: Vec<&str> = t.preorder().map(|n| n.symbol().name()).collect();
        assert_eq!(symbols, vec!["root", "a", "#", "#", "b", "#", "#"]);
        assert_eq!(t.node_paths().len(), 7);
    }

    #[test]
    fn count_leaves_counts_only_leaves() {
        let t = flip_input();
        assert_eq!(t.count_leaves(Symbol::new("#")), 4);
        assert_eq!(t.count_leaves(Symbol::new("a")), 0);
    }
}
