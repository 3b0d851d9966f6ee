//! Which error a damaged document answers, in each mode.
//!
//! `tree` mode reads the whole document before it judges it, so a parse
//! error wins over everything the machine or its guard would say.
//! `stream` mode judges as it reads, so its answer is the first failure
//! in document order: a document that leaves the domain before the damage
//! answers with that. These tests pin both rules, for term, XML and
//! fc/ns-encoded input, with and without the domain guard.

use xtt_engine::{DocFormat, Engine, EvalMode, Request};
use xtt_transducer::{examples, parse_dtop, Dtop};

/// The error line a one-document batch answers (`Ok` text otherwise).
fn answer(dtop: &Dtop, doc: &str, format: &DocFormat, mode: EvalMode, validate: bool) -> String {
    let engine = Engine::default();
    let (machine, guard) = engine.resolve(dtop, validate).unwrap();
    let req = Request::new(&machine, guard.as_deref(), format, mode);
    let batch = engine.run_batch(&[doc], req).pop().unwrap();
    // The byte call answers the same error.
    let req = Request::new(&machine, guard.as_deref(), format, mode);
    let doc_call = engine.run_doc(doc, &mut Vec::new(), req);
    assert_eq!(
        batch.as_ref().err(),
        doc_call.as_ref().err(),
        "{mode:?} {format:?} validate={validate}"
    );
    match batch {
        Ok(text) => text,
        Err(e) => format!("!error: {e}"),
    }
}

const MODES: [EvalMode; 2] = [EvalMode::Compiled, EvalMode::Streaming];

/// A term document whose last `)` is missing, with a domain violation at
/// 1.2 before the damage: both modes answer the parse error (`stream`
/// mode parses term input whole before it runs).
#[test]
fn term_parse_error_wins_in_both_modes() {
    let flip = examples::flip().dtop;
    let doc = "root(a(#,b(#,#)),b(#,#)";
    for mode in MODES {
        for validate in [false, true] {
            assert_eq!(
                answer(&flip, doc, &DocFormat::Term, mode, validate),
                "!error: parse error: parse error at byte 23: unterminated argument list",
                "{mode:?} validate={validate}"
            );
        }
    }
}

/// An XML document cut off inside a start tag, out of flip's domain
/// before the cut: `tree` mode answers the parse error, `stream` mode
/// the first failure it reads.
#[test]
fn xml_damage_tree_mode_parse_error_stream_mode_first_failure() {
    let flip = examples::flip().dtop;
    let doc = "<root><b/><a/><oops";
    let parse = "!error: parse error: XML error at byte 19: unterminated start tag";
    for validate in [false, true] {
        assert_eq!(
            answer(&flip, doc, &DocFormat::Xml, EvalMode::Compiled, validate),
            parse,
            "validate={validate}"
        );
    }
    assert_eq!(
        answer(&flip, doc, &DocFormat::Xml, EvalMode::Streaming, false),
        "!error: input outside the transduction domain"
    );
    assert_eq!(
        answer(&flip, doc, &DocFormat::Xml, EvalMode::Streaming, true),
        "!error: type error at 1: symbol b not allowed in state {q4}"
    );
}

/// An fc/ns transducer over `root(a*, b*)`: every `a` before every `b`.
fn fcns_ab() -> Dtop {
    parse_dtop(
        "ax = <q0,x0>\n\
         q0(root(x1,x2)) -> root(<qa,x1>,<qe,x2>)\n\
         qa(a(x1,x2)) -> a(<qe,x1>,<qa,x2>)\n\
         qa(b(x1,x2)) -> b(<qe,x1>,<qb,x2>)\n\
         qa(#) -> #\n\
         qb(b(x1,x2)) -> b(<qe,x1>,<qb,x2>)\n\
         qb(#) -> #\n\
         qe(#) -> #\n",
    )
    .unwrap()
}

/// The same rule through the fc/ns codec: `tree` mode answers the parse
/// error, `stream` mode the `a` after a `b` that it reads first.
#[test]
fn fcns_damage_tree_mode_parse_error_stream_mode_first_failure() {
    let m = fcns_ab();
    let fcns = DocFormat::parse("fcns").unwrap();
    assert_eq!(
        answer(&m, "<root><a/><b/></root>", &fcns, EvalMode::Compiled, true),
        "<root><a/><b/></root>"
    );
    let doc = "<root><b/><a/><oops";
    let parse = "!error: parse error: XML error at byte 19: unterminated start tag";
    for validate in [false, true] {
        assert_eq!(
            answer(&m, doc, &fcns, EvalMode::Compiled, validate),
            parse,
            "validate={validate}"
        );
    }
    assert_eq!(
        answer(&m, doc, &fcns, EvalMode::Streaming, false),
        "!error: input outside the transduction domain"
    );
    assert_eq!(
        answer(&m, doc, &fcns, EvalMode::Streaming, true),
        "!error: type error at 1.2: symbol a not allowed in state {qb}"
    );
}

/// Trailing content after an fc/ns document's root fails it in both
/// modes, with and without the guard: the source's error arrives after a
/// complete tree, and `stream` mode no longer answers the output it
/// already has.
#[test]
fn fcns_trailing_content_fails_in_both_modes() {
    let m = fcns_ab();
    let fcns = DocFormat::parse("fcns").unwrap();
    for (doc, at) in [("<root/> #", 8), ("<root><a/></root> junk", 18)] {
        let parse = format!(
            "!error: parse error: XML error at byte {at}: trailing content after the root element"
        );
        for mode in MODES {
            for validate in [false, true] {
                assert_eq!(
                    answer(&m, doc, &fcns, mode, validate),
                    parse,
                    "{doc:?} {mode:?} validate={validate}"
                );
            }
        }
    }
}

/// Plain XML: the trailing text reaches `stream` mode's evaluator as
/// events before the tokenizer's error, so it answers the domain miss;
/// `tree` mode reads the whole document first and answers the parse
/// error.
#[test]
fn xml_trailing_content_stream_mode_domain_miss_tree_mode_parse_error() {
    let flip = examples::flip().dtop;
    let doc = "<root/> #";
    assert_eq!(
        answer(&flip, doc, &DocFormat::Xml, EvalMode::Streaming, false),
        "!error: input outside the transduction domain"
    );
    assert_eq!(
        answer(&flip, doc, &DocFormat::Xml, EvalMode::Compiled, false),
        "!error: parse error: XML error at byte 8: trailing content after the root element"
    );
}
