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
use std::sync::{OnceLock, RwLock};

/// An interned string, used for tree node labels and alphabet letters.
///
/// `Symbol` is `Copy` and 4 bytes wide. Two symbols are equal iff their names
/// are equal. The `Ord` instance is by interner id, which is stable within a
/// process but has no semantic meaning; use
/// [`RankedAlphabet::symbol_index`](crate::alphabet::RankedAlphabet::symbol_index)
/// for the declaration order the learning algorithms rely on.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol(u32);

/// An interned name, with its term-syntax quoting decided once.
struct Entry {
    name: &'static str,
    quoted: bool,
}

/// The id → name table is append-only and read without a lock: chunk `k`
/// holds the `BASE << k` ids from `BASE · (2^k − 1)` on, is allocated
/// when its first id is interned, and never moves. A slot is written
/// before its id is handed out. 27 chunks cover every `u32` id.
const BASE: usize = 64;
const CHUNKS: usize = 27;

type Chunk = Box<[OnceLock<Entry>]>;

#[allow(clippy::declare_interior_mutable_const)] // a repeat-expression initializer
const NO_CHUNK: OnceLock<Chunk> = OnceLock::new();
static NAMES: [OnceLock<Chunk>; CHUNKS] = [NO_CHUNK; CHUNKS];

/// Name → id, for interning. Interned names live for the whole process;
/// leaking them is the standard interner trade-off (`name()` hands out
/// `&'static str` without clones).
static IDS: RwLock<Option<HashMap<&'static str, u32>>> = RwLock::new(None);

/// The chunk and offset of an id's slot.
fn locate(id: u32) -> (usize, usize) {
    let j = id as usize / BASE + 1;
    let chunk = (usize::BITS - 1 - j.leading_zeros()) as usize;
    (chunk, id as usize - BASE * ((1 << chunk) - 1))
}

fn entry(id: u32) -> &'static Entry {
    let (chunk, offset) = locate(id);
    NAMES[chunk]
        .get()
        .and_then(|slots| slots[offset].get())
        .expect("symbol not interned")
}

fn needs_quoting(name: &str) -> bool {
    name.is_empty()
        || name
            .chars()
            .any(|c| c.is_whitespace() || matches!(c, '(' | ')' | ',' | '"' | '<' | '>'))
}

impl Symbol {
    /// Interns `name` and returns its symbol. A name interned before costs
    /// a shared read of the name table; only a new name takes its write
    /// lock.
    pub fn new(name: &str) -> Symbol {
        if let Some(symbol) = Symbol::lookup(name) {
            return symbol;
        }
        let mut ids = IDS.write().unwrap_or_else(|e| e.into_inner());
        let ids = ids.get_or_insert_with(HashMap::new);
        if let Some(&id) = ids.get(name) {
            return Symbol(id);
        }
        let id = u32::try_from(ids.len()).expect("symbol interner overflow");
        let name: &'static str = Box::leak(name.to_owned().into_boxed_str());
        let (chunk, offset) = locate(id);
        let slots =
            NAMES[chunk].get_or_init(|| (0..BASE << chunk).map(|_| OnceLock::new()).collect());
        let quoted = needs_quoting(name);
        assert!(
            slots[offset].set(Entry { name, quoted }).is_ok(),
            "id reused"
        );
        ids.insert(name, id);
        Symbol(id)
    }

    /// Returns the symbol for `name` only if it was interned before; never
    /// grows the interner. This is the entry point for *untrusted* input
    /// (e.g. arbitrary document text in a long-running server): unknown
    /// names can be mapped to a sentinel instead of leaking interner
    /// memory per distinct token.
    pub fn lookup(name: &str) -> Option<Symbol> {
        let ids = IDS.read().unwrap_or_else(|e| e.into_inner());
        ids.as_ref()?.get(name).copied().map(Symbol)
    }

    /// The symbol's name. O(1), no allocation, no lock.
    pub fn name(self) -> &'static str {
        entry(self.0).name
    }

    /// The raw interner id. Stable within a process; only useful as a compact
    /// map key.
    pub fn id(self) -> u32 {
        self.0
    }

    /// True if the name needs quoting in term syntax (contains characters
    /// that the term grammar treats as structure). O(1): decided once, at
    /// interning.
    pub fn needs_quoting(self) -> bool {
        entry(self.0).quoted
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
    fn locate_tiles_the_id_space() {
        assert_eq!(locate(0), (0, 0));
        assert_eq!(locate(63), (0, 63));
        assert_eq!(locate(64), (1, 0));
        assert_eq!(locate(191), (1, 127));
        assert_eq!(locate(192), (2, 0));
        let (chunk, offset) = locate(u32::MAX);
        assert!(chunk < CHUNKS && offset < BASE << chunk);
    }

    /// Names interned from several threads at once, across chunk
    /// boundaries, read back from any thread.
    #[test]
    fn names_resolve_across_chunks_and_threads() {
        let workers: Vec<_> = (0..4)
            .map(|t| {
                std::thread::spawn(move || {
                    (0..300)
                        .map(|i| {
                            let name = format!("chunked-{t}-{i}");
                            (Symbol::new(&name), name)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for worker in workers {
            for (symbol, name) in worker.join().unwrap() {
                assert_eq!(symbol.name(), name);
                assert_eq!(Symbol::new(&name), symbol);
                assert!(!symbol.needs_quoting());
            }
        }
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
