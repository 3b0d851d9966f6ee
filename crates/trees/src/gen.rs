//! Tree enumeration and random generation over a ranked alphabet.
//!
//! Used for workload generation in benches and for property-based tests.
//! Enumeration is by increasing size with a deterministic order (symbol
//! declaration order, then child combinations), which the distinguisher
//! search in `xtt-core` relies on to find *minimal* witnesses.

use rand::Rng;

use crate::alphabet::RankedAlphabet;
use crate::tree::Tree;

/// Names that try term syntax's quoting rule: structural characters,
/// quotes and backslashes, the `\t` and `\n` escapes, non-ASCII text, a
/// subset construction's state set, and the empty name. Round-trip tests
/// draw symbols and state names from these.
pub const AWKWARD_NAMES: [&str; 11] = [
    "a b",
    "x,y",
    "p(q)",
    "say \"hi\"",
    "back\\slash",
    "a\tb",
    "line\nbreak",
    "<x>",
    "é ü",
    "{q1,q2}",
    "",
];

/// Enumerates all trees over `alphabet` in order of increasing size, up to
/// `max_count` trees and `max_size` nodes. Deterministic.
pub fn enumerate_trees(alphabet: &RankedAlphabet, max_count: usize, max_size: usize) -> Vec<Tree> {
    // by_size[n] = all trees with exactly n nodes (n >= 1)
    let mut by_size: Vec<Vec<Tree>> = vec![Vec::new(); max_size + 1];
    let mut out = Vec::new();
    for n in 1..=max_size {
        let mut bucket = Vec::new();
        for &symbol in alphabet.symbols() {
            let rank = alphabet.rank(symbol).unwrap();
            if rank == 0 {
                if n == 1 {
                    bucket.push(Tree::leaf(symbol));
                }
                continue;
            }
            if n < rank + 1 {
                continue;
            }
            // Distribute n-1 nodes over `rank` children, each >= 1.
            let mut combos: Vec<Vec<Tree>> = Vec::new();
            distribute(n - 1, rank, &by_size, &mut Vec::new(), &mut combos);
            for children in combos {
                bucket.push(Tree::new(symbol, children));
                if out.len() + bucket.len() >= max_count {
                    break;
                }
            }
            if out.len() + bucket.len() >= max_count {
                break;
            }
        }
        for t in &bucket {
            out.push(t.clone());
            if out.len() >= max_count {
                return out;
            }
        }
        by_size[n] = bucket;
    }
    out
}

fn distribute(
    total: usize,
    slots: usize,
    by_size: &[Vec<Tree>],
    prefix: &mut Vec<Tree>,
    out: &mut Vec<Vec<Tree>>,
) {
    if slots == 0 {
        if total == 0 {
            out.push(prefix.clone());
        }
        return;
    }
    let min_rest = slots - 1; // each remaining child needs >= 1 node
    for take in 1..=total.saturating_sub(min_rest) {
        for t in &by_size[take] {
            prefix.push(t.clone());
            distribute(total - take, slots - 1, by_size, prefix, out);
            prefix.pop();
        }
    }
}

/// Generates a random tree over `alphabet` with roughly `target_size` nodes.
///
/// The generator walks top-down: while below the budget it prefers non-leaf
/// symbols, then switches to constants. Panics if the alphabet has no
/// constant (no finite tree exists then).
pub fn random_tree<R: Rng + ?Sized>(
    alphabet: &RankedAlphabet,
    target_size: usize,
    rng: &mut R,
) -> Tree {
    let constants: Vec<_> = alphabet.constants().collect();
    assert!(
        !constants.is_empty(),
        "alphabet without constants has no finite trees"
    );
    let non_constants: Vec<_> = alphabet
        .symbols()
        .iter()
        .copied()
        .filter(|&s| alphabet.rank(s).unwrap() > 0)
        .collect();
    let mut budget = target_size as i64;
    gen_node(alphabet, &constants, &non_constants, &mut budget, rng)
}

fn gen_node<R: Rng + ?Sized>(
    alphabet: &RankedAlphabet,
    constants: &[crate::symbol::Symbol],
    non_constants: &[crate::symbol::Symbol],
    budget: &mut i64,
    rng: &mut R,
) -> Tree {
    *budget -= 1;
    if *budget <= 0 || non_constants.is_empty() {
        return Tree::leaf(constants[rng.gen_range(0..constants.len())]);
    }
    let symbol = non_constants[rng.gen_range(0..non_constants.len())];
    let rank = alphabet.rank(symbol).unwrap();
    let children = (0..rank)
        .map(|_| gen_node(alphabet, constants, non_constants, budget, rng))
        .collect();
    Tree::new(symbol, children)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn alpha() -> RankedAlphabet {
        RankedAlphabet::from_pairs([("f", 2), ("g", 1), ("a", 0), ("b", 0)])
    }

    #[test]
    fn enumeration_is_by_increasing_size() {
        let trees = enumerate_trees(&alpha(), 50, 10);
        for w in trees.windows(2) {
            assert!(w[0].size() <= w[1].size());
        }
        // smallest trees first: the two constants
        assert_eq!(trees[0].to_string(), "a");
        assert_eq!(trees[1].to_string(), "b");
        // then size-2: g(a), g(b)
        assert_eq!(trees[2].to_string(), "g(a)");
        assert_eq!(trees[3].to_string(), "g(b)");
    }

    #[test]
    fn enumeration_has_no_duplicates() {
        let trees = enumerate_trees(&alpha(), 200, 12);
        let set: std::collections::HashSet<_> = trees.iter().cloned().collect();
        assert_eq!(set.len(), trees.len());
    }

    #[test]
    fn enumeration_counts_small_sizes() {
        // size 3 trees: f(a,a), f(a,b), f(b,a), f(b,b), g(g(a)), g(g(b))
        let trees = enumerate_trees(&alpha(), 10_000, 3);
        let size3 = trees.iter().filter(|t| t.size() == 3).count();
        assert_eq!(size3, 6);
    }

    #[test]
    fn enumeration_respects_max_count() {
        assert_eq!(enumerate_trees(&alpha(), 7, 20).len(), 7);
    }

    #[test]
    fn random_trees_are_well_formed_and_near_target() {
        let alpha = alpha();
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..20 {
            let t = random_tree(&alpha, 50, &mut rng);
            for node in t.preorder() {
                assert_eq!(
                    alpha.rank(node.symbol()).unwrap(),
                    node.arity(),
                    "rank mismatch in generated tree"
                );
            }
            assert!(t.size() >= 1);
        }
    }

    #[test]
    fn random_tree_deterministic_for_seed() {
        let alpha = alpha();
        let t1 = random_tree(&alpha, 30, &mut StdRng::seed_from_u64(7));
        let t2 = random_tree(&alpha, 30, &mut StdRng::seed_from_u64(7));
        assert_eq!(t1, t2);
    }
}
