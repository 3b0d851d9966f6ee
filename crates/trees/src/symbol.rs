//! Interned symbols.
//!
//! Every node label, state name, or alphabet letter in the library is a
//! [`Symbol`]: a `Copy` handle into a process-global string interner. Interning
//! makes symbol comparison and hashing O(1) and keeps tree nodes small, which
//! matters because transducer evaluation and sample residual computation are
//! dominated by symbol comparisons.
//!
//! The global intern order is *not* used for any semantically meaningful
//! ordering (the paper's order `<` on paths is derived from per-alphabet
//! declaration order, see [`crate::alphabet::RankedAlphabet`]); it only
//! provides a stable `Ord` for deterministic iteration of hash maps after
//! sorting.

use std::collections::HashMap;
use std::fmt;
use std::sync::RwLock;

/// An interned string, used for tree node labels and alphabet letters.
///
/// `Symbol` is `Copy` and 4 bytes wide. Two symbols are equal iff their names
/// are equal. The `Ord` instance is by interner id, which is stable within a
/// process but has no semantic meaning; use
/// [`RankedAlphabet::symbol_index`](crate::alphabet::RankedAlphabet::symbol_index)
/// for the declaration order the learning algorithms rely on.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol(u32);

struct Interner {
    names: Vec<&'static str>,
    ids: HashMap<&'static str, u32>,
}

impl Interner {
    fn intern(&mut self, name: &str) -> u32 {
        if let Some(&id) = self.ids.get(name) {
            return id;
        }
        // Interned names live for the whole process; the set of distinct
        // symbols in any workload is small and bounded, so leaking is the
        // standard interner trade-off (O(1) `name()` without locks or clones).
        let leaked: &'static str = Box::leak(name.to_owned().into_boxed_str());
        let id = u32::try_from(self.names.len()).expect("symbol interner overflow");
        self.names.push(leaked);
        self.ids.insert(leaked, id);
        id
    }
}

static INTERNER: RwLock<Option<Interner>> = RwLock::new(None);

fn with_interner<R>(f: impl FnOnce(&mut Interner) -> R) -> R {
    let mut guard = INTERNER.write().unwrap_or_else(|e| e.into_inner());
    let interner = guard.get_or_insert_with(|| Interner {
        names: Vec::new(),
        ids: HashMap::new(),
    });
    f(interner)
}

impl Symbol {
    /// Interns `name` and returns its symbol.
    pub fn new(name: &str) -> Symbol {
        Symbol(with_interner(|i| i.intern(name)))
    }

    /// Returns the symbol for `name` only if it was interned before; never
    /// grows the interner. This is the entry point for *untrusted* input
    /// (e.g. arbitrary document text in a long-running server): unknown
    /// names can be mapped to a sentinel instead of leaking interner
    /// memory per distinct token.
    pub fn lookup(name: &str) -> Option<Symbol> {
        let guard = INTERNER.read().unwrap_or_else(|e| e.into_inner());
        guard
            .as_ref()
            .and_then(|i| i.ids.get(name).copied())
            .map(Symbol)
    }

    /// The symbol's name. O(1), no allocation.
    pub fn name(self) -> &'static str {
        let guard = INTERNER.read().unwrap_or_else(|e| e.into_inner());
        let interner = guard.as_ref().expect("symbol not interned");
        interner.names[self.0 as usize]
    }

    /// The raw interner id. Stable within a process; only useful as a compact
    /// map key.
    pub fn id(self) -> u32 {
        self.0
    }

    /// True if the name needs quoting in term syntax (contains characters
    /// that the term grammar treats as structure).
    pub fn needs_quoting(self) -> bool {
        let n = self.name();
        n.is_empty()
            || n.chars()
                .any(|c| c.is_whitespace() || matches!(c, '(' | ')' | ',' | '"' | '<' | '>'))
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Symbol({:?})", self.name())
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.needs_quoting() {
            write!(f, "{:?}", self.name())
        } else {
            f.write_str(self.name())
        }
    }
}

impl From<&str> for Symbol {
    fn from(name: &str) -> Symbol {
        Symbol::new(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let a = Symbol::new("foo");
        let b = Symbol::new("foo");
        assert_eq!(a, b);
        assert_eq!(a.id(), b.id());
        assert_eq!(a.name(), "foo");
    }

    #[test]
    fn distinct_names_distinct_symbols() {
        assert_ne!(Symbol::new("left"), Symbol::new("right"));
    }

    #[test]
    fn lookup_never_interns() {
        assert_eq!(
            Symbol::lookup("never-interned-by-any-test-qzx"),
            None,
            "lookup must not create symbols"
        );
        let s = Symbol::new("lookup-roundtrip");
        assert_eq!(Symbol::lookup("lookup-roundtrip"), Some(s));
    }

    #[test]
    fn display_quotes_structured_names() {
        let plain = Symbol::new("root");
        let fancy = Symbol::new("(a*,b*)");
        assert_eq!(plain.to_string(), "root");
        assert_eq!(fancy.to_string(), "\"(a*,b*)\"");
        assert!(fancy.needs_quoting());
        assert!(!plain.needs_quoting());
    }

    #[test]
    fn symbol_ids_are_stable() {
        let s = Symbol::new("BOOK");
        let t = Symbol::new("BOOK");
        assert_eq!(s.id(), t.id());
    }

    #[test]
    fn hash_set_of_symbols() {
        use std::collections::HashSet;
        let set: HashSet<Symbol> = ["a", "b", "a", "c"]
            .iter()
            .map(|n| Symbol::new(n))
            .collect();
        assert_eq!(set.len(), 3);
    }
}
