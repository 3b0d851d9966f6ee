//! Parsing a [`Dtta`] back from its [`Display`] rendering.
//!
//! The textual format is what `Dtta`'s `Display` impl writes — an
//! optional header naming the initial state and one line per transition:
//!
//! ```text
//! dtta (initial start)
//! start(root(x1,x2)) -> root(<alist,x1>,<blist,x2>)
//! alist(a(x1,x2)) -> a(<nil,x1>,<alist,x2>)
//! alist(#) -> #
//! ```
//!
//! Constants may be written `q(#) -> #` or, as `Display` prints them,
//! `q(#()) -> #()`. The alphabet (with ranks) is inferred from the
//! left-hand sides; states are collected from heads and call targets; the
//! initial state comes from the header, or defaults to the first rule's
//! head state. This makes the rendering a complete wire format — the
//! serving layer accepts output schemas for `POST /typecheck/{name}` in
//! it.
//!
//! Every line is read through [`xtt_trees::TermReader`]: state names and
//! symbols follow term syntax's quoting rule (see [`xtt_trees::parse`]),
//! so the state sets a subset construction names, like `{q1,q2}`, read
//! back; the head is the reader's [`rule_head`](TermReader::rule_head),
//! which dtop rules share.
//!
//! [`Display`]: std::fmt::Display

use std::collections::{HashMap, HashSet};

use xtt_trees::{RankedAlphabet, TermName, TermReader};

use crate::dtta::{Dtta, DttaBuilder, DttaError};

/// A parse error, with the offending line when there is one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DttaParseError(pub String);

impl std::fmt::Display for DttaParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for DttaParseError {}

impl From<DttaError> for DttaParseError {
    fn from(e: DttaError) -> DttaParseError {
        DttaParseError(e.to_string())
    }
}

/// Parses an automaton from its `Display` rendering (see the module
/// docs). Lines that are empty or start with `//` are skipped.
pub fn parse_dtta(text: &str) -> Result<Dtta, DttaParseError> {
    let mut initial: Option<String> = None;
    let mut lines = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with("//") {
            continue;
        }
        let mut r = TermReader::new(line);
        if !(r.eat("dtta") && r.eat("(initial")) {
            lines.push((lineno, line));
            continue;
        }
        let name = r.name().map_err(|e| err(lineno, e))?.to_owned();
        r.expect(")")
            .and_then(|()| r.end("the header"))
            .map_err(|e| err(lineno, e))?;
        if initial.replace(name).is_some() {
            return Err(err(lineno, "duplicate header line"));
        }
    }
    if lines.is_empty() && initial.is_none() {
        return Err(DttaParseError("empty automaton text".into()));
    }

    // States are numbered as they are first named: the initial state, then
    // each line's head and calls.
    let mut names: Vec<String> = Vec::new();
    let mut index: HashMap<String, usize> = HashMap::new();
    let mut state = |name: &str| match index.get(name) {
        Some(&q) => q,
        None => {
            index.insert(name.to_owned(), names.len());
            names.push(name.to_owned());
            names.len() - 1
        }
    };
    if let Some(name) = &initial {
        state(name);
    }
    let mut alphabet = RankedAlphabet::new();
    let mut defined = HashSet::new();
    let mut transitions = Vec::new();
    for (lineno, line) in lines {
        let mut r = TermReader::new(line);
        let (name, f, rank) = r.rule_head().map_err(|e| err(lineno, e))?;
        let q = state(&name);
        // The right-hand side `f(<p1,x1>,…,<pk,xk>)` repeats the head's
        // symbol (a DTTA realizes a partial identity); its calls name the
        // successor states.
        if r.name().map_err(|e| err(lineno, e))? != f.name() {
            return Err(err(
                lineno,
                format!("the transition on {f} writes another symbol"),
            ));
        }
        let children = r
            .args(|r, i| {
                r.expect("<")?;
                let p = state(r.name()?);
                r.expect(",")?;
                match r.variable()? {
                    n if n == i + 1 => {}
                    n => return Err(r.error(format!("expected variable x{}, found x{n}", i + 1))),
                }
                r.expect(">")?;
                Ok(p)
            })
            .and_then(|children| r.end("the transition").map(|()| children))
            .map_err(|e| err(lineno, e))?;
        if children.len() != rank {
            return Err(err(
                lineno,
                format!(
                    "transition on {f} has {} successor calls, head has rank {rank}",
                    children.len()
                ),
            ));
        }
        alphabet
            .try_add(f, rank)
            .map_err(|k| err(lineno, format!("symbol {f} used with ranks {k} and {rank}")))?;
        if !defined.insert((q, f)) {
            let duplicate = format!("duplicate transition for ({}, {f})", TermName(&name));
            return Err(err(lineno, duplicate));
        }
        transitions.push((q, f, children));
    }

    let mut builder = DttaBuilder::new(alphabet);
    let ids: Vec<_> = names
        .into_iter()
        .map(|name| builder.add_state(name))
        .collect();
    builder.set_initial(ids[0]);
    for (q, f, children) in transitions {
        builder.add_transition(ids[q], f, children.iter().map(|&c| ids[c]).collect())?;
    }
    Ok(builder.build()?)
}

fn err(lineno: usize, message: impl std::fmt::Display) -> DttaParseError {
    DttaParseError(format!("line {}: {message}", lineno + 1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::language_equal;
    use xtt_trees::{parse_tree, Symbol};

    fn flip_domain_text() -> &'static str {
        "dtta (initial start)\n\
         start(root(x1,x2)) -> root(<alist,x1>,<blist,x2>)\n\
         alist(a(x1,x2)) -> a(<nil,x1>,<alist,x2>)\n\
         alist(#) -> #\n\
         blist(b(x1,x2)) -> b(<nil,x1>,<blist,x2>)\n\
         blist(#) -> #\n\
         nil(#) -> #\n"
    }

    #[test]
    fn parses_handwritten_automaton() {
        let a = parse_dtta(flip_domain_text()).unwrap();
        assert_eq!(a.state_name(a.initial()), "start");
        assert!(a.accepts(&parse_tree("root(a(#,a(#,#)),b(#,#))").unwrap()));
        assert!(!a.accepts(&parse_tree("root(b(#,#),a(#,#))").unwrap()));
    }

    #[test]
    fn display_parse_roundtrips() {
        let a = parse_dtta(flip_domain_text()).unwrap();
        let reparsed = parse_dtta(&a.to_string()).unwrap();
        assert!(language_equal(&a, &reparsed));
        assert_eq!(reparsed.to_string(), a.to_string());
    }

    #[test]
    fn header_is_optional_and_constants_take_both_forms() {
        let a = parse_dtta("q(f(x1)) -> f(<q,x1>)\nq(e()) -> e()\n").unwrap();
        assert_eq!(a.state_name(a.initial()), "q");
        assert!(a.accepts(&parse_tree("f(f(e))").unwrap()));
    }

    #[test]
    fn quoted_symbols_roundtrip() {
        let alpha = RankedAlphabet::from_pairs([("odd name", 1), ("e", 0)]);
        let mut b = DttaBuilder::new(alpha);
        let q = b.add_state("q");
        b.add_transition(q, Symbol::new("odd name"), vec![q])
            .unwrap();
        b.add_transition(q, Symbol::new("e"), vec![]).unwrap();
        let a = b.build().unwrap();
        let parsed = parse_dtta(&a.to_string()).unwrap();
        assert!(language_equal(&a, &parsed));
    }

    /// A subset construction's state sets, like `{a,b}`, are quoted, so a
    /// call's first comma no longer ends its state.
    #[test]
    fn state_sets_read_back() {
        let alpha = RankedAlphabet::from_pairs([("f", 2), ("e", 0)]);
        let mut b = DttaBuilder::new(alpha);
        let pair = b.add_state("{a,b}");
        let leaf = b.add_state("{e}");
        b.add_transition(pair, Symbol::new("f"), vec![leaf, pair])
            .unwrap();
        b.add_transition(pair, Symbol::new("e"), vec![]).unwrap();
        b.add_transition(leaf, Symbol::new("e"), vec![]).unwrap();
        let a = b.build().unwrap();
        let text = a.to_string();
        assert!(text.contains(r#"f(<{e},x1>,<"{a,b}",x2>)"#), "{text}");
        let parsed = parse_dtta(&text).unwrap();
        assert_eq!(parsed.state_count(), 2);
        assert!(language_equal(&a, &parsed));
    }

    #[test]
    fn rejects_malformed_text() {
        assert!(parse_dtta("").is_err());
        assert!(parse_dtta("nonsense").is_err());
        assert!(parse_dtta("q(f(x1)) -> f(<q,x1>)\nq(f(x1)) -> f(<q,x1>)").is_err());
        assert!(parse_dtta("q(f(x1)) -> f()").is_err(), "missing call");
        assert!(parse_dtta("q(f(x2)) -> f(<q,x2>)").is_err(), "bad variable");
        assert!(
            parse_dtta("q(f(x1)) -> f(<q,x1>)\nq(f) -> f").is_err(),
            "rank conflict"
        );
        assert!(parse_dtta("dtta (initial q").is_err(), "bad header");
        let err = |text: &str| parse_dtta(text).unwrap_err().0;
        assert_eq!(
            err("q(f(x1,x2)) -> f(<a,x2>,<b,x1>)"),
            "line 1: parse error at byte 22: expected variable x1, found x2"
        );
        assert_eq!(
            err("q(f(x1)) -> g(<q,x1>)"),
            "line 1: the transition on f writes another symbol"
        );
        assert_eq!(
            err("dtta (initial q)\nq(f(x1)) -> f(<q,x1>) x"),
            "line 2: parse error at byte 22: trailing input after the transition"
        );
    }
}
