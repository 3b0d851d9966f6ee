//! Property-based tests for the tree substrate.

use proptest::prelude::*;
use xtt_trees::gen::AWKWARD_NAMES;
use xtt_trees::{parse_tree, FPath, NodePath, PTree, RankedAlphabet, Symbol, Tree, TreeDag};

fn alpha() -> RankedAlphabet {
    RankedAlphabet::from_pairs([("f", 2), ("g", 1), ("h", 3), ("a", 0), ("b", 0), ("c", 0)])
}

/// Strategy producing arbitrary well-ranked trees over `alpha()`.
fn arb_tree() -> impl Strategy<Value = Tree> {
    let leaf = prop_oneof![
        Just(Tree::leaf_named("a")),
        Just(Tree::leaf_named("b")),
        Just(Tree::leaf_named("c")),
    ];
    leaf.prop_recursive(5, 64, 3, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(x, y)| Tree::node("f", vec![x, y])),
            inner.clone().prop_map(|x| Tree::node("g", vec![x])),
            (inner.clone(), inner.clone(), inner)
                .prop_map(|(x, y, z)| Tree::node("h", vec![x, y, z])),
        ]
    })
}

/// Trees whose names are drawn from [`AWKWARD_NAMES`], the ranks free.
fn arb_awkward_tree() -> impl Strategy<Value = Tree> {
    let name = || (0..AWKWARD_NAMES.len()).prop_map(|i| AWKWARD_NAMES[i]);
    name()
        .prop_map(Tree::leaf_named)
        .prop_recursive(4, 32, 3, move |inner| {
            (name(), proptest::collection::vec(inner, 1..4))
                .prop_map(|(name, children)| Tree::node(name, children))
        })
}

proptest! {
    #[test]
    fn display_parse_roundtrip(t in arb_awkward_tree()) {
        let printed = t.to_string();
        let reparsed = parse_tree(&printed).unwrap();
        prop_assert_eq!(reparsed, t);
    }

    #[test]
    fn size_is_node_count(t in arb_tree()) {
        prop_assert_eq!(t.size() as usize, t.preorder().count());
        prop_assert_eq!(t.node_paths().len(), t.size() as usize);
    }

    #[test]
    fn well_ranked(t in arb_tree()) {
        let alpha = alpha();
        for node in t.preorder() {
            prop_assert_eq!(alpha.rank(node.symbol()).unwrap(), node.arity());
        }
    }

    #[test]
    fn subtree_concat_law(t in arb_tree()) {
        // (π1·π2)⁻¹ s = π2⁻¹ (π1⁻¹ s) for all node paths
        for p in t.node_paths() {
            if let Some(parent) = p.parent() {
                let rest = p.strip_prefix(&parent).unwrap();
                let via_parent = t
                    .subtree_at(&parent)
                    .unwrap()
                    .subtree_at(&rest)
                    .unwrap();
                prop_assert_eq!(t.subtree_at(&p).unwrap(), via_parent);
            }
        }
    }

    #[test]
    fn fpath_resolution_agrees_with_node_path(t in arb_tree()) {
        for p in t.node_paths() {
            let u = FPath::of_node_path(&t, &p).unwrap();
            prop_assert!(u.belongs_to(&t));
            prop_assert_eq!(u.resolve(&t).unwrap(), t.subtree_at(&p).unwrap());
        }
    }

    #[test]
    fn replace_then_read_back(t in arb_tree(), r in arb_tree()) {
        for p in t.node_paths() {
            let replaced = t.replace_at(&p, r.clone()).unwrap();
            prop_assert_eq!(replaced.subtree_at(&p).unwrap(), r.clone());
            // all disjoint positions unchanged: check siblings of the spine
            if p.is_empty() {
                prop_assert_eq!(replaced, r.clone());
            }
        }
    }

    #[test]
    fn lcp_commutative(x in arb_tree(), y in arb_tree()) {
        let a = PTree::from_tree(&x);
        let b = PTree::from_tree(&y);
        prop_assert_eq!(a.lcp(&b), b.lcp(&a));
    }

    #[test]
    fn lcp_associative(x in arb_tree(), y in arb_tree(), z in arb_tree()) {
        let a = PTree::from_tree(&x);
        let b = PTree::from_tree(&y);
        let c = PTree::from_tree(&z);
        prop_assert_eq!(a.lcp(&b).lcp(&c), a.lcp(&b.lcp(&c)));
    }

    #[test]
    fn lcp_idempotent_and_identity(x in arb_tree()) {
        let a = PTree::from_tree(&x);
        prop_assert_eq!(a.lcp(&a), a.clone());
        prop_assert_eq!(a.lcp(&PTree::top()), a.clone());
        prop_assert!(a.lcp(&PTree::bottom()).is_bottom());
    }

    #[test]
    fn lcp_is_prefix_of_both(x in arb_tree(), y in arb_tree()) {
        let p = PTree::from_tree(&x).lcp(&PTree::from_tree(&y));
        prop_assert!(p.is_prefix_of_tree(&x));
        prop_assert!(p.is_prefix_of_tree(&y));
    }

    #[test]
    fn dag_roundtrip_and_compression(t in arb_tree()) {
        let mut dag = TreeDag::new();
        let id = dag.insert(&t);
        prop_assert_eq!(dag.extract(id), t.clone());
        let stats = dag.stats(id);
        prop_assert_eq!(stats.tree_size, t.size());
        prop_assert!(stats.dag_size <= stats.tree_size);
    }

    #[test]
    fn substitution_removes_all_mapped_leaves(t in arb_tree()) {
        let mut map = std::collections::HashMap::new();
        map.insert(Symbol::new("a"), Tree::leaf_named("b"));
        let t2 = t.substitute_leaves(&map);
        prop_assert_eq!(t2.count_leaves(Symbol::new("a")), 0);
        prop_assert_eq!(t2.size(), t.size());
    }

    #[test]
    fn structural_hash_agrees_with_eq(x in arb_tree(), y in arb_tree()) {
        if x == y {
            prop_assert_eq!(x.structural_hash(), y.structural_hash());
        }
        // and re-built trees hash identically
        let rebuilt = parse_tree(&x.to_string()).unwrap();
        prop_assert_eq!(rebuilt.structural_hash(), x.structural_hash());
    }
}

#[test]
fn node_path_display_is_one_based() {
    let p = NodePath::from_indices(&[0, 1]);
    assert_eq!(p.to_string(), "1.2");
}
