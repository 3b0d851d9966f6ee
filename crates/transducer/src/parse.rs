//! Parsing a [`Dtop`] back from its [`Display`] rendering.
//!
//! The textual format is exactly what `Dtop`'s `Display` impl writes —
//! one axiom line and one line per rule:
//!
//! ```text
//! ax = root(<q1,x0>,<q2,x0>)
//! q1(root(x1,x2)) -> <q3,x2>
//! q3(#) -> #
//! q3(b(x1,x2)) -> b(#,<q3,x2>)
//! ```
//!
//! Alphabets and states are *inferred*: input symbols (with ranks) from
//! the rule left-hand sides, output symbols from the right-hand sides,
//! states from every name that appears as a rule head or inside a
//! `<state,xi>` call. This makes the rendering a complete wire format for
//! transducers — the serving layer (`xtt-serve`) accepts uploads in it and
//! the golden-corpus tests store transducers in it.
//!
//! Every line is read through [`xtt_trees::TermReader`]: state names and
//! symbols follow term syntax's quoting rule (see [`xtt_trees::parse`]),
//! the rule head is the reader's [`rule_head`](TermReader::rule_head),
//! which DTTA schemas share, and the right-hand side is read by
//! [`crate::rhs`]'s iterative reader.
//!
//! [`Display`]: std::fmt::Display

use std::collections::{HashMap, HashSet};

use xtt_trees::{RankedAlphabet, TermName, TermReader};

use crate::dtop::{Dtop, DtopBuilder, DtopError};
use crate::rhs::{read_rhs, OutputRanks, QId};

/// Parses a transducer from its `Display` rendering (see the module docs).
///
/// Lines that are empty or start with `//` are skipped. The axiom line
/// (`ax = …`) is mandatory; rule lines may come in any order. Duplicate
/// `(state, symbol)` rules are rejected rather than silently overwritten.
pub fn parse_dtop(text: &str) -> Result<Dtop, DtopError> {
    let mut axiom = None;
    let mut rules = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with("//") {
            continue;
        }
        let mut r = TermReader::new(line);
        if !(r.eat("ax") && r.eat("=")) {
            rules.push((lineno, line));
        } else if axiom.replace((lineno, r)).is_some() {
            return Err(err(lineno, "duplicate axiom line"));
        }
    }
    let Some((ax_line, mut ax)) = axiom else {
        return Err(DtopError::Parse("missing axiom line `ax = …`".into()));
    };

    // States are numbered as they are first named: the axiom's calls, then
    // each rule line's head and calls.
    let mut names: Vec<String> = Vec::new();
    let mut index: HashMap<String, QId> = HashMap::new();
    let mut state = |name: &str| match index.get(name) {
        Some(&q) => q,
        None => {
            let q = QId(names.len() as u32);
            index.insert(name.to_owned(), q);
            names.push(name.to_owned());
            q
        }
    };
    let mut output = OutputRanks::default();
    let axiom = read_rhs(&mut ax, &mut |n| Some(state(n)), true, &mut output)
        .and_then(|rhs| ax.end("the axiom").map(|()| rhs))
        .map_err(|e| err(ax_line, e))?;
    let mut input = RankedAlphabet::new();
    let mut defined = HashSet::new();
    let mut parsed = Vec::new();
    for (lineno, line) in rules {
        let mut r = TermReader::new(line);
        let (name, f, rank) = r.rule_head().map_err(|e| err(lineno, e))?;
        let q = state(&name);
        input.try_add(f, rank).map_err(|k| {
            err(
                lineno,
                format!("input symbol {f} used with ranks {k} and {rank}"),
            )
        })?;
        if !defined.insert((q, f)) {
            return Err(err(
                lineno,
                format!("duplicate rule for ({}, {f})", TermName(&name)),
            ));
        }
        let rhs = read_rhs(&mut r, &mut |n| Some(state(n)), false, &mut output)
            .and_then(|rhs| r.end("the rule").map(|()| rhs))
            .map_err(|e| err(lineno, e))?;
        parsed.push((q, f, rhs));
    }

    let mut builder = DtopBuilder::new(input, output.alphabet());
    for name in names {
        builder.add_state(name);
    }
    builder.set_axiom(axiom);
    for (q, f, rhs) in parsed {
        builder.add_rule(q, f, rhs)?;
    }
    builder.build()
}

fn err(lineno: usize, message: impl std::fmt::Display) -> DtopError {
    DtopError::Parse(format!("line {}: {message}", lineno + 1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::eval;
    use crate::examples;
    use crate::rhs::Rhs;
    use xtt_automata::enumerate_language;
    use xtt_trees::gen::AWKWARD_NAMES;
    use xtt_trees::parse_tree;
    use xtt_trees::Symbol;

    /// Every fixture round-trips through its own rendering: the parsed
    /// transducer is equivalent, and its own rendering is a fixed point
    /// (the text does not encode alphabet declaration order, so rule
    /// *order* may differ after the first trip, but never again).
    #[test]
    fn display_parse_roundtrips_fixtures() {
        for fixture in [
            examples::flip(),
            examples::library(),
            examples::monadic_to_binary(),
            examples::relabel_chain(5),
            examples::flip_k(3),
            examples::constant_m2(),
            examples::constant_m3(),
        ] {
            let text = fixture.dtop.to_string();
            let parsed = parse_dtop(&text).unwrap_or_else(|e| panic!("parse failed: {e}\n{text}"));
            // Rule *order* can shift once (the text does not encode
            // alphabet declaration order); after one reparse the
            // rendering is a fixed point.
            let text2 = parse_dtop(&parsed.to_string()).unwrap().to_string();
            let reparsed = parse_dtop(&text2).unwrap();
            assert_eq!(reparsed.to_string(), text2, "display∘parse not idempotent");
            let inputs = enumerate_language(&fixture.domain, fixture.domain.initial(), 100, 12);
            assert!(!inputs.is_empty());
            for input in inputs {
                assert_eq!(
                    eval(&fixture.dtop, &input),
                    eval(&parsed, &input),
                    "parsed transducer disagrees on {input}\n{text}"
                );
            }
        }
    }

    /// A constant transducer (no states, no rules) parses too.
    #[test]
    fn parses_constant_axiom() {
        let m = parse_dtop("ax = b\n").unwrap();
        assert_eq!(m.state_count(), 0);
        assert_eq!(m.rule_count(), 0);
        let input = parse_tree("whatever").unwrap();
        assert_eq!(eval(&m, &input).unwrap().to_string(), "b");
    }

    #[test]
    fn parsed_flip_transforms() {
        let m = parse_dtop(&examples::flip().dtop.to_string()).unwrap();
        let input = parse_tree("root(a(#,#),b(#,b(#,#)))").unwrap();
        let output = eval(&m, &input).unwrap();
        assert_eq!(output.to_string(), "root(b(#,b(#,#)),a(#,#))");
    }

    #[test]
    fn comments_and_blank_lines_are_skipped() {
        let text = "// the flip axiom\n\nax = root(<q1,x0>,<q2,x0>)\n\
                    q1(root(x1,x2)) -> <q1,x1>\nq1(#) -> #\nq2(root(x1,x2)) -> #\n";
        let m = parse_dtop(text).unwrap();
        assert_eq!(m.state_count(), 2);
        assert_eq!(m.rule_count(), 3);
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(parse_dtop("q(f(x1)) -> g").is_err(), "missing axiom");
        assert!(parse_dtop("ax = <q,x0>\nnonsense").is_err());
        assert!(
            parse_dtop("ax = <q,x0>\nq(f(x2)) -> g").is_err(),
            "bad vars"
        );
        assert!(
            parse_dtop("ax = <q,x0>\nq(f(x1)) -> g\nq(f(x1)) -> h").is_err(),
            "duplicate rule"
        );
        assert!(
            parse_dtop("ax = <q,x0>\nq(f(x1)) -> g(e)\nq(e) -> g").is_err(),
            "conflicting output rank for g"
        );
        assert!(
            parse_dtop("ax = <q,x0>\nq(f(x1)) -> e\nq(f) -> e").is_err(),
            "conflicting input rank for f"
        );
    }

    /// A quoted input symbol containing `->`, parentheses, and a comma —
    /// the characters the line splitter must not trip over.
    #[test]
    fn quoted_symbol_with_arrow_and_parens_roundtrips() {
        let nasty = "a->b(x,1)";
        let input = RankedAlphabet::from_pairs([(nasty, 1), ("e", 0)]);
        let output = RankedAlphabet::from_pairs([("g", 1), ("e", 0)]);
        let mut b = DtopBuilder::new(input, output);
        let q = b.add_state("q");
        b.set_axiom(Rhs::call(q, 0));
        b.add_rule(q, Symbol::new(nasty), Rhs::out("g", vec![Rhs::call(q, 0)]))
            .unwrap();
        b.add_rule(q, Symbol::new("e"), Rhs::leaf("e")).unwrap();
        let m = b.build().unwrap();
        let text = m.to_string();
        let parsed = parse_dtop(&text).unwrap_or_else(|e| panic!("parse failed: {e}\n{text}"));
        assert_eq!(parsed.to_string(), text);
        assert_eq!(parsed.input().rank(Symbol::new(nasty)), Some(1));
    }

    /// Names that need quoting, as input symbols, output symbols and state
    /// names, survive the trip: the parsed transducer renders as the
    /// original.
    #[test]
    fn quoted_symbols_roundtrip() {
        let n = AWKWARD_NAMES.len();
        let ranked = |i: usize| (AWKWARD_NAMES[i], i % 3);
        let alphabet = RankedAlphabet::from_pairs((0..n).map(ranked));
        let mut b = DtopBuilder::new(alphabet.clone(), alphabet);
        let states: Vec<QId> = AWKWARD_NAMES
            .iter()
            .map(|&name| b.add_state(name))
            .collect();
        b.set_axiom(Rhs::call(states[0], 0));
        // State i reads symbol i and writes symbol i + 5, calling state
        // i + 1 on its children (or writing the constant `a b`).
        for i in 0..n {
            let (out, out_rank) = ranked((i + 5) % n);
            let children = (0..out_rank)
                .map(|k| match i % 3 {
                    0 => Rhs::leaf(AWKWARD_NAMES[0]),
                    rank => Rhs::call(states[(i + 1) % n], k % rank),
                })
                .collect();
            let f = Symbol::new(AWKWARD_NAMES[i]);
            b.add_rule(states[i], f, Rhs::out(out, children)).unwrap();
        }
        let m = b.build().unwrap();
        let text = m.to_string();
        let parsed = parse_dtop(&text).unwrap_or_else(|e| panic!("parse failed: {e}\n{text}"));
        assert_eq!(parsed.to_string(), text);
    }

    /// A quoted non-ASCII output name reads as itself, not byte by byte.
    #[test]
    fn non_ascii_output_names_read_back() {
        let m = parse_dtop("ax = <q,x0>\nq(f(x1)) -> \"é ü\"(<q,x1>)\nq(e) -> e\n").unwrap();
        let out = eval(&m, &parse_tree("f(e)").unwrap()).unwrap();
        assert_eq!(out.symbol().name(), "é ü");
        assert_eq!(out.to_string(), "\"é ü\"(e)");
    }

    /// Errors name their line and the byte where reading stopped.
    #[test]
    fn errors_name_line_and_byte() {
        let err = |text: &str| parse_dtop(text).unwrap_err().to_string();
        assert_eq!(
            err("ax = <q,x0>\nq(f(x1)) -> g(<q,x1> <q,x1>)"),
            "line 2: parse error at byte 21: expected ',' or ')', found '<'"
        );
        assert_eq!(
            err("ax = <p,x0>\nq(f(x1)) => g"),
            "line 2: parse error at byte 9: expected `->`, found '='"
        );
        assert_eq!(
            err("ax = <q,x1>"),
            "line 1: parse error at byte 11: axiom variables must be x0"
        );
        assert_eq!(
            err("ax = g\nq(f) -> h(a)\nq(e) -> h"),
            "line 3: parse error at byte 9: output symbol h used with ranks 1 and 0"
        );
    }
}
