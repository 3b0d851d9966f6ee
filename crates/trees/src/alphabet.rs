//! Ranked alphabets.
//!
//! A ranked alphabet `F` assigns every symbol a fixed arity (Section 2 of the
//! paper). The declaration order of symbols is significant: the learning
//! algorithm's total order `<` on labeled paths (Section 8) breaks ties
//! lexicographically, and we define the letter order as the order in which
//! symbols were added to the alphabet. All algorithms in the workspace that
//! need a deterministic symbol order take it from here.

use std::collections::HashMap;
use std::fmt;

use crate::symbol::Symbol;

/// A finite set of symbols, each with a fixed rank (arity), in a fixed
/// declaration order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RankedAlphabet {
    symbols: Vec<Symbol>,
    ranks: Vec<usize>,
    index: HashMap<Symbol, usize>,
}

impl RankedAlphabet {
    /// Creates an empty alphabet.
    pub fn new() -> Self {
        RankedAlphabet::default()
    }

    /// Creates an alphabet from `(name, rank)` pairs, in declaration order.
    pub fn from_pairs<'a, I: IntoIterator<Item = (&'a str, usize)>>(pairs: I) -> Self {
        let mut alphabet = RankedAlphabet::new();
        for (name, rank) in pairs {
            alphabet.add(Symbol::new(name), rank);
        }
        alphabet
    }

    /// Adds `symbol` with the given `rank`. Re-adding with the same rank is a
    /// no-op; re-adding with a different rank panics (ranks are fixed).
    pub fn add(&mut self, symbol: Symbol, rank: usize) -> Symbol {
        self.try_add(symbol, rank).unwrap_or_else(|declared| {
            panic!("symbol {symbol} re-declared with different rank ({declared} vs {rank})")
        })
    }

    /// [`add`](Self::add), or the rank `symbol` was declared with if it
    /// differs from `rank`.
    pub fn try_add(&mut self, symbol: Symbol, rank: usize) -> Result<Symbol, usize> {
        match self.index.get(&symbol) {
            Some(&i) if self.ranks[i] != rank => return Err(self.ranks[i]),
            Some(_) => {}
            None => {
                self.index.insert(symbol, self.symbols.len());
                self.symbols.push(symbol);
                self.ranks.push(rank);
            }
        }
        Ok(symbol)
    }

    /// Interns `name` and adds it with `rank`.
    pub fn add_named(&mut self, name: &str, rank: usize) -> Symbol {
        self.add(Symbol::new(name), rank)
    }

    /// The rank of `symbol`, or `None` if it is not in the alphabet.
    pub fn rank(&self, symbol: Symbol) -> Option<usize> {
        self.index.get(&symbol).map(|&i| self.ranks[i])
    }

    /// True if the alphabet contains `symbol`.
    pub fn contains(&self, symbol: Symbol) -> bool {
        self.index.contains_key(&symbol)
    }

    /// Declaration index of `symbol`; this is the letter order used by the
    /// paper's path order `<`.
    pub fn symbol_index(&self, symbol: Symbol) -> Option<usize> {
        self.index.get(&symbol).copied()
    }

    /// All symbols in declaration order.
    pub fn symbols(&self) -> &[Symbol] {
        &self.symbols
    }

    /// All symbols of the given rank, in declaration order.
    pub fn symbols_of_rank(&self, rank: usize) -> impl Iterator<Item = Symbol> + '_ {
        self.symbols
            .iter()
            .zip(&self.ranks)
            .filter(move |&(_, &r)| r == rank)
            .map(|(&s, _)| s)
    }

    /// Symbols of rank zero (constants), in declaration order.
    pub fn constants(&self) -> impl Iterator<Item = Symbol> + '_ {
        self.symbols_of_rank(0)
    }

    /// The largest rank in the alphabet (0 for an empty alphabet).
    pub fn max_rank(&self) -> usize {
        self.ranks.iter().copied().max().unwrap_or(0)
    }

    /// Number of symbols.
    pub fn len(&self) -> usize {
        self.symbols.len()
    }

    /// True if the alphabet has no symbols.
    pub fn is_empty(&self) -> bool {
        self.symbols.is_empty()
    }

    /// Compares two symbols by declaration order. Symbols missing from the
    /// alphabet sort after all declared symbols (by global id, for totality).
    pub fn cmp_symbols(&self, a: Symbol, b: Symbol) -> std::cmp::Ordering {
        match (self.symbol_index(a), self.symbol_index(b)) {
            (Some(x), Some(y)) => x.cmp(&y),
            (Some(_), None) => std::cmp::Ordering::Less,
            (None, Some(_)) => std::cmp::Ordering::Greater,
            (None, None) => a.id().cmp(&b.id()),
        }
    }

    /// Merges another alphabet into this one (used to form `F ∪ G`).
    /// Panics on rank conflicts.
    pub fn union_with(&mut self, other: &RankedAlphabet) {
        for (&s, &r) in other.symbols.iter().zip(&other.ranks) {
            self.add(s, r);
        }
    }

    /// Rebuilds the internal index; needed after deserialization.
    pub fn rebuild_index(&mut self) {
        self.index = self
            .symbols
            .iter()
            .enumerate()
            .map(|(i, &s)| (s, i))
            .collect();
    }
}

impl fmt::Display for RankedAlphabet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (&s, &r)) in self.symbols.iter().zip(&self.ranks).enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{s}^{r}")?;
        }
        write!(f, "}}")
    }
}

impl<'a> FromIterator<(&'a str, usize)> for RankedAlphabet {
    fn from_iter<I: IntoIterator<Item = (&'a str, usize)>>(iter: I) -> Self {
        RankedAlphabet::from_pairs(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RankedAlphabet {
        RankedAlphabet::from_pairs([("root", 2), ("a", 2), ("b", 2), ("#", 0)])
    }

    #[test]
    fn ranks_and_membership() {
        let alpha = sample();
        assert_eq!(alpha.rank(Symbol::new("root")), Some(2));
        assert_eq!(alpha.rank(Symbol::new("#")), Some(0));
        assert_eq!(alpha.rank(Symbol::new("zzz")), None);
        assert!(alpha.contains(Symbol::new("a")));
        assert_eq!(alpha.len(), 4);
        assert_eq!(alpha.max_rank(), 2);
    }

    #[test]
    fn declaration_order_is_preserved() {
        let alpha = sample();
        let names: Vec<&str> = alpha.symbols().iter().map(|s| s.name()).collect();
        assert_eq!(names, vec!["root", "a", "b", "#"]);
        assert!(
            alpha.symbol_index(Symbol::new("root")).unwrap()
                < alpha.symbol_index(Symbol::new("b")).unwrap()
        );
    }

    #[test]
    fn readding_same_rank_is_noop() {
        let mut alpha = sample();
        alpha.add_named("a", 2);
        assert_eq!(alpha.len(), 4);
    }

    #[test]
    #[should_panic(expected = "re-declared")]
    fn readding_different_rank_panics() {
        let mut alpha = sample();
        alpha.add_named("a", 3);
    }

    #[test]
    fn symbols_of_rank_filters() {
        let alpha = sample();
        let constants: Vec<&str> = alpha.constants().map(|s| s.name()).collect();
        assert_eq!(constants, vec!["#"]);
        let binary: Vec<&str> = alpha.symbols_of_rank(2).map(|s| s.name()).collect();
        assert_eq!(binary, vec!["root", "a", "b"]);
    }

    #[test]
    fn union_merges_without_duplicates() {
        let mut alpha = sample();
        let other = RankedAlphabet::from_pairs([("a", 2), ("c", 1)]);
        alpha.union_with(&other);
        assert_eq!(alpha.len(), 5);
        assert_eq!(alpha.rank(Symbol::new("c")), Some(1));
    }

    #[test]
    fn cmp_symbols_uses_declaration_order() {
        let alpha = sample();
        use std::cmp::Ordering;
        assert_eq!(
            alpha.cmp_symbols(Symbol::new("root"), Symbol::new("a")),
            Ordering::Less
        );
        assert_eq!(
            alpha.cmp_symbols(Symbol::new("#"), Symbol::new("a")),
            Ordering::Greater
        );
        assert_eq!(
            alpha.cmp_symbols(Symbol::new("b"), Symbol::new("b")),
            Ordering::Equal
        );
    }
}
