//! Node paths, labeled paths (F-paths), and node paths with labels (npaths).
//!
//! Section 2 of the paper distinguishes three kinds of addresses into trees:
//!
//! * a **node path** `π ∈ ℕ*` (here [`NodePath`], with 0-based indices);
//! * an **F-path** `u = (f₁,i₁)…(fₙ,iₙ)` over labeled positions
//!   `F# = {(f,i) | f ∈ F^(k), 1 ≤ i ≤ k}` (here [`FPath`] with 0-based
//!   `child` indices; `Display` prints 1-based to match the paper);
//! * an **npath** `U = u·f` which additionally fixes the label of the node it
//!   addresses (here [`NPath`]).
//!
//! The paper's order `<` on paths — shorter first, then lexicographic by
//! letters — is implemented by [`PathOrder`], parameterized by a
//! [`RankedAlphabet`] so the letter order is the declaration order.

use std::cmp::Ordering;
use std::fmt;

use crate::alphabet::RankedAlphabet;
use crate::symbol::Symbol;
use crate::tree::Tree;

/// A node address: the sequence of 0-based child indices from the root.
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodePath(Vec<u32>);

impl NodePath {
    /// The root path `ε`.
    pub fn root() -> NodePath {
        NodePath(Vec::new())
    }

    /// Builds a path from explicit indices.
    pub fn from_indices(indices: &[u32]) -> NodePath {
        NodePath(indices.to_vec())
    }

    /// The underlying indices.
    pub fn indices(&self) -> &[u32] {
        &self.0
    }

    /// Length of the path (depth of the addressed node).
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True for the root path.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The path of the `i`-th child of this node.
    pub fn child(&self, i: u32) -> NodePath {
        let mut v = Vec::with_capacity(self.0.len() + 1);
        v.extend_from_slice(&self.0);
        v.push(i);
        NodePath(v)
    }

    /// The parent path, or `None` for the root.
    pub fn parent(&self) -> Option<NodePath> {
        if self.0.is_empty() {
            return None;
        }
        Some(NodePath(self.0[..self.0.len() - 1].to_vec()))
    }

    /// Concatenation `self · other`.
    pub fn concat(&self, other: &NodePath) -> NodePath {
        let mut v = Vec::with_capacity(self.0.len() + other.0.len());
        v.extend_from_slice(&self.0);
        v.extend_from_slice(&other.0);
        NodePath(v)
    }

    /// True if `self` is a (not necessarily proper) prefix of `other`.
    pub fn is_prefix_of(&self, other: &NodePath) -> bool {
        other.0.len() >= self.0.len() && other.0[..self.0.len()] == self.0[..]
    }

    /// If `self = prefix · rest`, returns `rest`.
    pub fn strip_prefix(&self, prefix: &NodePath) -> Option<NodePath> {
        if prefix.is_prefix_of(self) {
            Some(NodePath(self.0[prefix.len()..].to_vec()))
        } else {
            None
        }
    }
}

impl fmt::Display for NodePath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_empty() {
            return write!(f, "ε");
        }
        for (k, i) in self.0.iter().enumerate() {
            if k > 0 {
                write!(f, ".")?;
            }
            write!(f, "{}", i + 1)?; // 1-based, as in the paper
        }
        Ok(())
    }
}

/// A labeled position `(f, i)`: symbol `f` together with a 0-based child
/// index `i < rank(f)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Step {
    pub symbol: Symbol,
    pub child: u32,
}

impl Step {
    pub fn new(symbol: Symbol, child: u32) -> Step {
        Step { symbol, child }
    }
}

impl fmt::Display for Step {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({},{})", self.symbol, self.child + 1)
    }
}

/// A labeled path `u = (f₁,i₁)…(fₙ,iₙ)` — an "F-path" / "edge path".
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
pub struct FPath(Vec<Step>);

impl FPath {
    /// The empty path `ε`.
    pub fn empty() -> FPath {
        FPath(Vec::new())
    }

    pub fn from_steps(steps: Vec<Step>) -> FPath {
        FPath(steps)
    }

    /// Convenience constructor from `(name, 1-based index)` pairs, matching
    /// how the paper writes paths like `(root, 2)(a, 2)`.
    pub fn parse_pairs(pairs: &[(&str, u32)]) -> FPath {
        FPath(
            pairs
                .iter()
                .map(|&(n, i)| {
                    assert!(i >= 1, "paper-style path indices are 1-based");
                    Step::new(Symbol::new(n), i - 1)
                })
                .collect(),
        )
    }

    pub fn steps(&self) -> &[Step] {
        &self.0
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// `self · step`.
    pub fn push(&self, step: Step) -> FPath {
        let mut v = Vec::with_capacity(self.0.len() + 1);
        v.extend_from_slice(&self.0);
        v.push(step);
        FPath(v)
    }

    /// Concatenation `self · other`.
    pub fn concat(&self, other: &FPath) -> FPath {
        let mut v = Vec::with_capacity(self.0.len() + other.0.len());
        v.extend_from_slice(&self.0);
        v.extend_from_slice(&other.0);
        FPath(v)
    }

    /// The npath `self · f`.
    pub fn with_label(&self, label: Symbol) -> NPath {
        NPath {
            steps: self.clone(),
            label,
        }
    }

    /// True if `self` is a prefix of `other`.
    pub fn is_prefix_of(&self, other: &FPath) -> bool {
        other.0.len() >= self.0.len() && other.0[..self.0.len()] == self.0[..]
    }

    /// If `self = prefix · rest`, returns `rest`.
    pub fn strip_prefix(&self, prefix: &FPath) -> Option<FPath> {
        if prefix.is_prefix_of(self) {
            Some(FPath(self.0[prefix.len()..].to_vec()))
        } else {
            None
        }
    }

    /// The paper's `u ⊨ s`: the path belongs to tree `s` (every step's symbol
    /// matches the node it passes through).
    pub fn belongs_to(&self, s: &Tree) -> bool {
        self.resolve(s).is_some()
    }

    /// The subtree `u⁻¹(s)` if `u ⊨ s`.
    pub fn resolve(&self, s: &Tree) -> Option<Tree> {
        let mut cur = s.clone();
        for step in &self.0 {
            if cur.symbol() != step.symbol {
                return None;
            }
            cur = cur.child(step.child as usize)?.clone();
        }
        Some(cur)
    }

    /// The node path addressed by this F-path (forgetting labels).
    pub fn node_path(&self) -> NodePath {
        NodePath(self.0.iter().map(|s| s.child).collect())
    }

    /// Reads the F-path of `node_path` inside `s`, labeling each step.
    pub fn of_node_path(s: &Tree, node_path: &NodePath) -> Option<FPath> {
        let mut steps = Vec::with_capacity(node_path.len());
        let mut cur = s;
        for &i in node_path.indices() {
            steps.push(Step::new(cur.symbol(), i));
            cur = cur.child(i as usize)?;
        }
        Some(FPath(steps))
    }
}

impl fmt::Display for FPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_empty() {
            return write!(f, "ε");
        }
        for step in &self.0 {
            write!(f, "{step}")?;
        }
        Ok(())
    }
}

/// An npath `U = u · f`: an F-path plus the label of the addressed node.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct NPath {
    pub steps: FPath,
    pub label: Symbol,
}

impl NPath {
    pub fn new(steps: FPath, label: Symbol) -> NPath {
        NPath { steps, label }
    }

    /// The paper's `U ⊨ s`: `u ⊨ s` and the node at `u` is labeled `f`.
    pub fn belongs_to(&self, s: &Tree) -> bool {
        match self.steps.resolve(s) {
            Some(sub) => sub.symbol() == self.label,
            None => false,
        }
    }

    /// The subtree addressed by this npath, if it belongs to `s`.
    pub fn resolve(&self, s: &Tree) -> Option<Tree> {
        let sub = self.steps.resolve(s)?;
        (sub.symbol() == self.label).then_some(sub)
    }

    /// The paper's `parent`: `parent(u·(f,i)·f') = u·f`, `parent(ε·f) = ε`.
    /// Returns `None` for the root npath (whose parent is the empty path,
    /// which carries no label).
    pub fn parent(&self) -> Option<NPath> {
        let steps = self.steps.steps();
        let last = steps.last()?;
        Some(NPath {
            steps: FPath(steps[..steps.len() - 1].to_vec()),
            label: last.symbol,
        })
    }
}

impl fmt::Display for NPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.steps.is_empty() {
            write!(f, "ε·{}", self.label)
        } else {
            write!(f, "{}·{}", self.steps, self.label)
        }
    }
}

/// The paper's total order `<` on paths and pairs of paths (Section 8):
/// fewer letters first, then lexicographic, with the letter order given by
/// the alphabet declaration order (then child index).
///
/// Pairs are ordered `(u,v) < (u',v') ⇔ u < u' ∨ (u = u' ∧ v < v')`, where
/// `u` is compared with the input-alphabet order and `v` with the output
/// order.
pub struct PathOrder<'a> {
    input: &'a RankedAlphabet,
    output: &'a RankedAlphabet,
}

impl<'a> PathOrder<'a> {
    pub fn new(input: &'a RankedAlphabet, output: &'a RankedAlphabet) -> Self {
        PathOrder { input, output }
    }

    fn cmp_with(alpha: &RankedAlphabet, a: &FPath, b: &FPath) -> Ordering {
        a.len().cmp(&b.len()).then_with(|| {
            for (x, y) in a.steps().iter().zip(b.steps()) {
                let c = alpha
                    .cmp_symbols(x.symbol, y.symbol)
                    .then(x.child.cmp(&y.child));
                if c != Ordering::Equal {
                    return c;
                }
            }
            Ordering::Equal
        })
    }

    /// Compares two input paths.
    pub fn cmp_input(&self, a: &FPath, b: &FPath) -> Ordering {
        Self::cmp_with(self.input, a, b)
    }

    /// Compares two output paths.
    pub fn cmp_output(&self, a: &FPath, b: &FPath) -> Ordering {
        Self::cmp_with(self.output, a, b)
    }

    /// Compares two (input path, output path) pairs lexicographically.
    pub fn cmp_pair(&self, a: &(FPath, FPath), b: &(FPath, FPath)) -> Ordering {
        self.cmp_input(&a.0, &b.0)
            .then_with(|| self.cmp_output(&a.1, &b.1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_tree() -> Tree {
        // root(a(#,#), b(#, b(#,#)))
        let h = || Tree::leaf_named("#");
        Tree::node(
            "root",
            vec![
                Tree::node("a", vec![h(), h()]),
                Tree::node("b", vec![h(), Tree::node("b", vec![h(), h()])]),
            ],
        )
    }

    #[test]
    fn node_path_basics() {
        let p = NodePath::from_indices(&[1, 0]);
        assert_eq!(p.len(), 2);
        assert_eq!(p.parent().unwrap(), NodePath::from_indices(&[1]));
        assert!(NodePath::root().parent().is_none());
        assert!(NodePath::from_indices(&[1]).is_prefix_of(&p));
        assert!(!p.is_prefix_of(&NodePath::from_indices(&[1])));
        assert_eq!(
            p.strip_prefix(&NodePath::from_indices(&[1])).unwrap(),
            NodePath::from_indices(&[0])
        );
        assert_eq!(p.to_string(), "2.1");
        assert_eq!(NodePath::root().to_string(), "ε");
    }

    #[test]
    fn fpath_belongs_and_resolves() {
        let t = sample_tree();
        let u = FPath::parse_pairs(&[("root", 2), ("b", 2)]);
        assert!(u.belongs_to(&t));
        assert_eq!(u.resolve(&t).unwrap().to_string(), "b(#,#)");
        let bad = FPath::parse_pairs(&[("root", 1), ("b", 1)]);
        assert!(!bad.belongs_to(&t)); // node 1 is labeled a, not b
        let too_deep = FPath::parse_pairs(&[("root", 1), ("a", 1), ("#", 1)]);
        assert!(!too_deep.belongs_to(&t));
        assert!(FPath::empty().belongs_to(&t));
    }

    #[test]
    fn npath_belongs_checks_label() {
        let t = sample_tree();
        let u = FPath::parse_pairs(&[("root", 2)]);
        assert!(u.with_label(Symbol::new("b")).belongs_to(&t));
        assert!(!u.with_label(Symbol::new("a")).belongs_to(&t));
        // root npath
        assert!(FPath::empty()
            .with_label(Symbol::new("root"))
            .belongs_to(&t));
    }

    #[test]
    fn npath_parent_matches_paper() {
        // parent(u·(f,i)·f') = u·f
        let u = FPath::parse_pairs(&[("root", 2), ("b", 2)]).with_label(Symbol::new("b"));
        let p = u.parent().unwrap();
        assert_eq!(p.steps, FPath::parse_pairs(&[("root", 2)]));
        assert_eq!(p.label.name(), "b");
        let root = FPath::empty().with_label(Symbol::new("root"));
        assert!(root.parent().is_none());
    }

    #[test]
    fn fpath_of_node_path_labels_steps() {
        let t = sample_tree();
        let np = NodePath::from_indices(&[1, 1]);
        let u = FPath::of_node_path(&t, &np).unwrap();
        assert_eq!(u, FPath::parse_pairs(&[("root", 2), ("b", 2)]));
        assert_eq!(u.node_path(), np);
    }

    #[test]
    fn path_order_is_length_then_lex() {
        let input = RankedAlphabet::from_pairs([("root", 2), ("a", 2), ("b", 2), ("#", 0)]);
        let output = input.clone();
        let ord = PathOrder::new(&input, &output);
        let e = FPath::empty();
        let r1 = FPath::parse_pairs(&[("root", 1)]);
        let r2 = FPath::parse_pairs(&[("root", 2)]);
        let r1a2 = FPath::parse_pairs(&[("root", 1), ("a", 2)]);
        let r1b1 = FPath::parse_pairs(&[("root", 1), ("b", 1)]);
        assert_eq!(ord.cmp_input(&e, &r1), Ordering::Less);
        assert_eq!(ord.cmp_input(&r1, &r2), Ordering::Less);
        assert_eq!(ord.cmp_input(&r2, &r1a2), Ordering::Less); // shorter first
        assert_eq!(ord.cmp_input(&r1a2, &r1b1), Ordering::Less); // a before b
        assert_eq!(ord.cmp_input(&r1a2, &r1a2), Ordering::Equal);
    }

    #[test]
    fn pair_order_is_lexicographic() {
        let input = RankedAlphabet::from_pairs([("root", 2), ("#", 0)]);
        let output = input.clone();
        let ord = PathOrder::new(&input, &output);
        let e = FPath::empty();
        let r1 = FPath::parse_pairs(&[("root", 1)]);
        let r2 = FPath::parse_pairs(&[("root", 2)]);
        let p1 = (e.clone(), r1.clone());
        let p2 = (e.clone(), r2.clone());
        let p3 = (r1.clone(), e.clone());
        assert_eq!(ord.cmp_pair(&p1, &p2), Ordering::Less);
        assert_eq!(ord.cmp_pair(&p2, &p3), Ordering::Less); // u dominates
        assert_eq!(ord.cmp_pair(&p3, &p3), Ordering::Equal);
    }
}
