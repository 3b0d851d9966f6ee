//! The named-transducer registry behind `/transducers`.
//!
//! Transducers arrive over the wire in two forms:
//!
//! * **term syntax** — the `Display` rendering parsed by
//!   [`xtt_transducer::parse_dtop`] (rules as text);
//! * **samples** — `input => output` pairs, one per line, run through the
//!   paper's learner `RPNIdtop` with an inferred alphabet and a universal
//!   domain automaton, so a client that has examples but no transducer
//!   can still be served.
//!
//! Entries are immutable `Arc`s behind an `RwLock`: a `PUT` to an
//! existing name *hot-swaps* it atomically — in-flight transforms keep
//! the old `Arc`, new requests pick up the new one, and the engine's
//! fingerprint LRU keeps both compiled forms warm during the swap.

use std::collections::HashMap;
use std::fmt;
use std::sync::RwLock;

use xtt_automata::Dtta;
use xtt_core::{rpni_dtop, Sample};
use xtt_engine::fingerprint;
use xtt_transducer::{parse_dtop, Dtop};
use xtt_trees::{parse_tree, split_unquoted, RankedAlphabet, Tree};

/// How a registered transducer was created.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Source {
    Uploaded,
    Learned,
}

impl fmt::Display for Source {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Source::Uploaded => write!(f, "uploaded"),
            Source::Learned => write!(f, "learned"),
        }
    }
}

/// One registered transducer.
pub struct Entry {
    pub name: String,
    pub dtop: Dtop,
    pub source: Source,
    pub fingerprint: u64,
}

impl Entry {
    /// The JSON summary used by the list and upload responses.
    pub fn json(&self) -> String {
        format!(
            "{{\"name\":\"{}\",\"source\":\"{}\",\"states\":{},\"rules\":{},\"fingerprint\":\"{:016x}\"}}",
            escape_json(&self.name),
            self.source,
            self.dtop.state_count(),
            self.dtop.rule_count(),
            self.fingerprint,
        )
    }
}

/// Errors raised while registering a transducer (mapped to `422`).
#[derive(Debug)]
pub struct RegistryError(pub String);

impl fmt::Display for RegistryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for RegistryError {}

/// Thread-safe name → transducer map.
#[derive(Default)]
pub struct Registry {
    entries: RwLock<HashMap<String, std::sync::Arc<Entry>>>,
}

impl Registry {
    pub fn new() -> Registry {
        Registry::default()
    }

    /// True for names safe to appear in paths and JSON unescaped-ish.
    pub fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'-' | b'.'))
    }

    /// Registers (or hot-swaps) a transducer from its term-syntax text.
    pub fn upload(&self, name: &str, text: &str) -> Result<std::sync::Arc<Entry>, RegistryError> {
        Ok(self.register(name, parse_rules(text)?, Source::Uploaded))
    }

    /// Learns a transducer from `input => output` sample lines and
    /// registers it.
    pub fn learn(&self, name: &str, body: &str) -> Result<std::sync::Arc<Entry>, RegistryError> {
        Ok(self.register(name, learn_dtop(body)?, Source::Learned))
    }

    /// Registers (or hot-swaps) an already-validated transducer. The
    /// server uses this so a transducer that fails to *compile* is never
    /// registered in the first place.
    pub fn register(&self, name: &str, dtop: Dtop, source: Source) -> std::sync::Arc<Entry> {
        let entry = std::sync::Arc::new(Entry {
            name: name.to_owned(),
            fingerprint: fingerprint(&dtop),
            dtop,
            source,
        });
        self.write()
            .insert(name.to_owned(), std::sync::Arc::clone(&entry));
        entry
    }

    pub fn get(&self, name: &str) -> Option<std::sync::Arc<Entry>> {
        self.read().get(name).cloned()
    }

    pub fn remove(&self, name: &str) -> bool {
        self.write().remove(name).is_some()
    }

    pub fn len(&self) -> usize {
        self.read().len()
    }

    pub fn is_empty(&self) -> bool {
        self.read().is_empty()
    }

    /// JSON array of all entries, sorted by name.
    pub fn list_json(&self) -> String {
        let map = self.read();
        let mut entries: Vec<_> = map.values().collect();
        entries.sort_by(|a, b| a.name.cmp(&b.name));
        let items: Vec<String> = entries.iter().map(|e| e.json()).collect();
        format!("[{}]", items.join(","))
    }

    fn read(&self) -> std::sync::RwLockReadGuard<'_, HashMap<String, std::sync::Arc<Entry>>> {
        self.entries.read().unwrap_or_else(|e| e.into_inner())
    }

    fn write(&self) -> std::sync::RwLockWriteGuard<'_, HashMap<String, std::sync::Arc<Entry>>> {
        self.entries.write().unwrap_or_else(|e| e.into_inner())
    }
}

/// Parses a term-syntax transducer body (the `Display` rendering).
pub fn parse_rules(text: &str) -> Result<Dtop, RegistryError> {
    parse_dtop(text).map_err(|e| RegistryError(format!("bad transducer: {e}")))
}

/// Learns a transducer from `input => output` sample lines with the
/// paper's `RPNIdtop` (alphabets inferred, universal domain automaton).
pub fn learn_dtop(body: &str) -> Result<Dtop, RegistryError> {
    let mut pairs: Vec<(Tree, Tree)> = Vec::new();
    for (lineno, raw) in body.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with("//") {
            continue;
        }
        let bad_input = |e| RegistryError(format!("line {}: bad input: {e}", lineno + 1));
        let (lhs, rhs) = split_unquoted(line, "=>")
            .map_err(bad_input)?
            .ok_or_else(|| {
                RegistryError(format!("line {}: expected `input => output`", lineno + 1))
            })?;
        let input = parse_tree(lhs).map_err(bad_input)?;
        let output = parse_tree(rhs)
            .map_err(|e| RegistryError(format!("line {}: bad output: {e}", lineno + 1)))?;
        pairs.push((input, output));
    }
    if pairs.is_empty() {
        return Err(RegistryError("empty sample".into()));
    }
    let input_alpha = infer_alphabet(pairs.iter().map(|(i, _)| i), "input")?;
    let output_alpha = infer_alphabet(pairs.iter().map(|(_, o)| o), "output")?;
    let sample =
        Sample::from_pairs(pairs).map_err(|e| RegistryError(format!("bad sample: {e}")))?;
    let domain = Dtta::universal(input_alpha);
    let learned = rpni_dtop(&sample, &domain, &output_alpha)
        .map_err(|e| RegistryError(format!("learning failed: {e}")))?;
    Ok(learned.dtop)
}

/// Collects every `(symbol, arity)` of the given trees into a ranked
/// alphabet, rejecting rank conflicts.
fn infer_alphabet<'a, I: Iterator<Item = &'a Tree>>(
    trees: I,
    side: &str,
) -> Result<RankedAlphabet, RegistryError> {
    let mut alpha = RankedAlphabet::new();
    for tree in trees {
        let mut stack = vec![tree];
        while let Some(t) = stack.pop() {
            alpha.try_add(t.symbol(), t.arity()).map_err(|r| {
                RegistryError(format!(
                    "{side} symbol {} used with ranks {r} and {}",
                    t.symbol(),
                    t.arity()
                ))
            })?;
            stack.extend(t.children());
        }
    }
    Ok(alpha)
}

/// Escapes a string for embedding in a JSON string literal: quotes,
/// backslashes, and control characters (error messages can carry
/// newlines or raw client input).
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use xtt_transducer::examples;

    #[test]
    fn upload_and_hot_swap() {
        let reg = Registry::new();
        let e1 = reg
            .upload("flip", &examples::flip().dtop.to_string())
            .unwrap();
        assert_eq!(e1.source, Source::Uploaded);
        assert_eq!(reg.len(), 1);
        // Hot swap with a different transducer under the same name.
        let e2 = reg
            .upload("flip", &examples::monadic_to_binary().dtop.to_string())
            .unwrap();
        assert_ne!(e1.fingerprint, e2.fingerprint);
        assert_eq!(reg.get("flip").unwrap().fingerprint, e2.fingerprint);
        assert_eq!(reg.len(), 1);
        assert!(reg.remove("flip"));
        assert!(!reg.remove("flip"));
    }

    /// The learn endpoint runs `RPNIdtop` with a *universal* domain
    /// automaton over the inferred input alphabet, so the sample must be
    /// characteristic for a total-domain transduction — exactly what a
    /// fixture with a universal domain provides.
    #[test]
    fn learns_copier_from_its_characteristic_sample() {
        use xtt_core::characteristic_sample;
        use xtt_transducer::canonical_form;

        let fix = examples::monadic_to_binary(); // domain: universal
        let canonical = canonical_form(&fix.dtop, Some(&fix.domain)).unwrap();
        let sample = characteristic_sample(&canonical).unwrap();
        let body: String = sample
            .pairs()
            .iter()
            .map(|(i, o)| format!("{i} => {o}\n"))
            .collect();

        let reg = Registry::new();
        let entry = reg.learn("copy", &body).unwrap();
        assert_eq!(entry.source, Source::Learned);
        let input = parse_tree("f(f(f(e)))").unwrap();
        assert_eq!(
            xtt_transducer::eval(&entry.dtop, &input),
            xtt_transducer::eval(&fix.dtop, &input)
        );
    }

    /// A sample line splits at the first `=>` outside quoted names; an
    /// unspaced `=>` still splits.
    #[test]
    fn sample_lines_split_outside_quotes() {
        let dtop = learn_dtop("\"a=>b\"(e) => g(e)\ne=>e\n").unwrap();
        let input = parse_tree(r#""a=>b"(e)"#).unwrap();
        let output = xtt_transducer::eval(&dtop, &input).unwrap();
        assert_eq!(output.to_string(), "g(e)");
    }

    #[test]
    fn rejects_bad_uploads() {
        let reg = Registry::new();
        assert!(reg.upload("x", "not a transducer").is_err());
        assert!(
            reg.learn("x", "root(#,#) -> root(#,#)").is_err(),
            "wrong arrow"
        );
        assert!(reg.learn("x", "").is_err());
        assert!(
            reg.learn("x", "f(a) => b\nf(a,a) => b").is_err(),
            "rank conflict"
        );
        assert!(!Registry::valid_name(""));
        assert!(!Registry::valid_name("a/b"));
        assert!(Registry::valid_name("flip-v2.1_final"));
    }
}
