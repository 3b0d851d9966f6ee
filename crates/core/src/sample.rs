//! Samples: finite sub-relations of a target transduction, with residuals
//! and maximal outputs (Definitions 5, 10, and Section 8).
//!
//! The learner sees the target `τ` only through a [`Sample`] `S ⊆ τ`. All
//! the notions the algorithm needs are computed directly on the sample:
//!
//! * `out_S(u)` / `out_S(u·f)` — largest common prefix of the outputs of
//!   all pairs whose input contains the path;
//! * residuals `p⁻¹S` for a pair of paths `p = (u, v)`;
//! * functionality of residuals — the gate for io-paths of `S`.

use std::collections::HashMap;
use std::fmt;

use xtt_trees::{FPath, NPath, PTree, Tree};

/// A finite, functional set of input/output tree pairs.
#[derive(Clone, Debug, Default)]
pub struct Sample {
    pairs: Vec<(Tree, Tree)>,
}

/// Error raised when a sample would contain two different outputs for the
/// same input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NotFunctional {
    pub input: Tree,
}

impl fmt::Display for NotFunctional {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "sample is not functional: two outputs for input {}",
            self.input
        )
    }
}

impl std::error::Error for NotFunctional {}

impl Sample {
    pub fn new() -> Sample {
        Sample::default()
    }

    /// Builds a sample from pairs; duplicate pairs are deduplicated, and
    /// conflicting outputs for one input are an error.
    pub fn from_pairs<I: IntoIterator<Item = (Tree, Tree)>>(
        pairs: I,
    ) -> Result<Sample, NotFunctional> {
        let mut s = Sample::new();
        for (input, output) in pairs {
            s.add(input, output)?;
        }
        Ok(s)
    }

    /// Adds a pair; a duplicate input with an equal output is a no-op.
    pub fn add(&mut self, input: Tree, output: Tree) -> Result<(), NotFunctional> {
        for (s, t) in &self.pairs {
            if *s == input {
                return if *t == output {
                    Ok(())
                } else {
                    Err(NotFunctional { input })
                };
            }
        }
        self.pairs.push((input, output));
        Ok(())
    }

    /// Merges another sample into this one.
    pub fn extend(&mut self, other: &Sample) -> Result<(), NotFunctional> {
        for (s, t) in &other.pairs {
            self.add(s.clone(), t.clone())?;
        }
        Ok(())
    }

    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    pub fn pairs(&self) -> &[(Tree, Tree)] {
        &self.pairs
    }

    /// Total number of nodes over all inputs and outputs — the size
    /// measure `|S|` used in the complexity statements (Theorem 38).
    pub fn total_size(&self) -> u64 {
        self.pairs.iter().map(|(s, t)| s.size() + t.size()).sum()
    }

    /// `out_S(ε)`: largest common prefix of all outputs. `None` for an
    /// empty sample (undefined in the paper).
    pub fn out_root(&self) -> Option<PTree> {
        if self.pairs.is_empty() {
            return None;
        }
        Some(PTree::lcp_many(
            self.pairs.iter().map(|(_, t)| PTree::from_tree(t)),
        ))
    }

    /// `out_S(u)` for a labeled input path `u`.
    pub fn out_at_path(&self, u: &FPath) -> Option<PTree> {
        let outputs: Vec<PTree> = self
            .pairs
            .iter()
            .filter(|(s, _)| u.belongs_to(s))
            .map(|(_, t)| PTree::from_tree(t))
            .collect();
        if outputs.is_empty() {
            return None;
        }
        Some(PTree::lcp_many(outputs))
    }

    /// `out_S(U)` for an npath `U = u·f`.
    pub fn out_at_npath(&self, u: &NPath) -> Option<PTree> {
        let outputs: Vec<PTree> = self
            .pairs
            .iter()
            .filter(|(s, _)| u.belongs_to(s))
            .map(|(_, t)| PTree::from_tree(t))
            .collect();
        if outputs.is_empty() {
            return None;
        }
        Some(PTree::lcp_many(outputs))
    }

    /// The residual `p⁻¹S` for `p = (u, v)` (Definition 5): all pairs
    /// `(u⁻¹s, v⁻¹t)` with `u ⊨ s` and `v ⊨ t`.
    pub fn residual(&self, u: &FPath, v: &FPath) -> Vec<(Tree, Tree)> {
        let mut out = Vec::new();
        for (s, t) in &self.pairs {
            let (Some(si), Some(ti)) = (u.resolve(s), v.resolve(t)) else {
                continue;
            };
            out.push((si, ti));
        }
        out
    }

    /// True if `p⁻¹S` is a partial function (no input maps to two outputs).
    /// Trees are shared `Rc`s, so storing them in the scratch map is cheap.
    pub fn residual_is_functional(&self, u: &FPath, v: &FPath) -> bool {
        let mut seen: HashMap<Tree, Tree> = HashMap::new();
        for (s, t) in &self.pairs {
            let (Some(si), Some(ti)) = (u.resolve(s), v.resolve(t)) else {
                continue;
            };
            match seen.get(&si) {
                Some(prev) if *prev != ti => return false,
                Some(_) => {}
                None => {
                    seen.insert(si, ti);
                }
            }
        }
        true
    }

    /// The residual as a map, or `None` if not functional.
    pub fn residual_function(&self, u: &FPath, v: &FPath) -> Option<HashMap<Tree, Tree>> {
        let mut map: HashMap<Tree, Tree> = HashMap::new();
        for (si, ti) in self.residual(u, v) {
            match map.get(&si) {
                Some(prev) if *prev != ti => return None,
                Some(_) => {}
                None => {
                    map.insert(si, ti);
                }
            }
        }
        Some(map)
    }
}

impl fmt::Display for Sample {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (s, t) in &self.pairs {
            writeln!(f, "{s} -> {t}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xtt_trees::{parse_tree, Symbol};

    fn flip_sample() -> Sample {
        // the (corrected) characteristic sample of τflip
        let pairs = [
            ("root(#,#)", "root(#,#)"),
            ("root(a(#,#),#)", "root(#,a(#,#))"),
            ("root(#,b(#,#))", "root(b(#,#),#)"),
            (
                "root(a(#,a(#,#)),b(#,b(#,#)))",
                "root(b(#,b(#,#)),a(#,a(#,#)))",
            ),
        ];
        Sample::from_pairs(
            pairs
                .iter()
                .map(|(s, t)| (parse_tree(s).unwrap(), parse_tree(t).unwrap())),
        )
        .unwrap()
    }

    #[test]
    fn functionality_is_enforced() {
        let mut s = Sample::new();
        s.add(parse_tree("a").unwrap(), parse_tree("x").unwrap())
            .unwrap();
        s.add(parse_tree("a").unwrap(), parse_tree("x").unwrap())
            .unwrap(); // dup ok
        assert_eq!(s.len(), 1);
        let err = s.add(parse_tree("a").unwrap(), parse_tree("y").unwrap());
        assert!(err.is_err());
    }

    #[test]
    fn out_root_of_flip_sample() {
        let s = flip_sample();
        assert_eq!(s.out_root().unwrap().to_string(), "root(⊥,⊥)");
        assert!(Sample::new().out_root().is_none());
    }

    #[test]
    fn out_at_npath_matches_paper() {
        let s = flip_sample();
        // out_S(ε·root): same as out_S(ε) here
        let u = FPath::empty().with_label(Symbol::new("root"));
        assert_eq!(s.out_at_npath(&u).unwrap().to_string(), "root(⊥,⊥)");
        // out_S((root,2)·b): inputs 3 and 4 → outputs root(b(...),...):
        // common prefix of root(b(#,#),#) and root(b(#,b(#,#)),a(#,a(#,#)))
        let u2 = FPath::parse_pairs(&[("root", 2)]).with_label(Symbol::new("b"));
        assert_eq!(s.out_at_npath(&u2).unwrap().to_string(), "root(b(#,⊥),⊥)");
    }

    #[test]
    fn residual_functionality_drives_alignment() {
        // Example 7: ((root,1),(root,1))⁻¹S contains (#,#) and (#,b(#,#)),
        // hence not functional; ((root,2),(root,1)) is functional.
        let s = flip_sample();
        let wrong = (
            FPath::parse_pairs(&[("root", 1)]),
            FPath::parse_pairs(&[("root", 1)]),
        );
        assert!(!s.residual_is_functional(&wrong.0, &wrong.1));
        let right = (
            FPath::parse_pairs(&[("root", 2)]),
            FPath::parse_pairs(&[("root", 1)]),
        );
        assert!(s.residual_is_functional(&right.0, &right.1));
        let map = s.residual_function(&right.0, &right.1).unwrap();
        assert_eq!(map.len(), 3);
        assert_eq!(
            map[&parse_tree("b(#,#)").unwrap()],
            parse_tree("b(#,#)").unwrap()
        );
    }

    #[test]
    fn residual_requires_both_paths() {
        let s = flip_sample();
        // u belongs to every input, but v = (root,2)(a,1) only belongs to
        // the outputs of pairs 2 and 4 (the ones with an `a` at (root,2)).
        let u = FPath::parse_pairs(&[("root", 1)]);
        let v = FPath::parse_pairs(&[("root", 2), ("a", 1)]);
        let r = s.residual(&u, &v);
        assert_eq!(r.len(), 2);
        // ...and v = (root,1)(a,1) belongs to no output at all.
        let v2 = FPath::parse_pairs(&[("root", 1), ("a", 1)]);
        assert!(s.residual(&u, &v2).is_empty());
    }

    #[test]
    fn total_size_counts_all_nodes() {
        let s = flip_sample();
        assert_eq!(
            s.total_size(),
            s.pairs()
                .iter()
                .map(|(a, b)| a.size() + b.size())
                .sum::<u64>()
        );
    }
}
