//! Property tests for event-driven emission: `eval_streaming` must hand
//! the sink **exactly** the pre-order events of the batch output tree —
//! event for event, in order — across all four input encodings (term
//! events, raw ranked XML, fc/ns, DTD-based) and both pcdata modes; on
//! deep order-preserving corpora the first output event must leave
//! before the input is 10% consumed (tree-at-root-close pays 100% by
//! definition); and an evaluator reused after a rejected, truncated or
//! unbalanced document answers the next one as a fresh evaluator does.

use std::cell::Cell;
use std::rc::Rc;
use std::sync::Arc;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use xtt_engine::{
    compile, tree_to_xml, CompiledDtop, DocFormat, EmitStats, Engine, EvalMode, FnSink, IterEvents,
    Request, StreamEvaluator, TreeEventSource, XmlRankedEvents,
};
use xtt_transducer::{parse_dtop, random_partial_dtop, Dtop, RandomDtopConfig};
use xtt_trees::{gen, RankedAlphabet, TreeEvent};
use xtt_unranked::XmlCodec;
use xtt_xml::{write_xml, Dtd, Encoding, PcDataMode, UTree};

/// Runs `eval_streaming` with an event-collecting sink; `None` mirrors
/// the tree API's out-of-domain answer.
fn streamed_events(c: &CompiledDtop, source: &mut impl TreeEventSource) -> Option<Vec<TreeEvent>> {
    let mut events = Vec::new();
    let outcome = {
        let mut sink = FnSink(|e| events.push(e));
        StreamEvaluator::new()
            .eval_streaming(c, source, &mut sink)
            .expect("FnSink cannot fail")
    };
    outcome.map(|_| events)
}

/// Everything one streaming run shows: its verdict and every event it
/// handed the sink, a rejected run's partial prefix included.
fn run_events(
    ev: &mut StreamEvaluator,
    c: &CompiledDtop,
    events: &[TreeEvent],
) -> (Option<EmitStats>, Vec<TreeEvent>) {
    let mut out = Vec::new();
    let verdict = ev
        .eval_streaming(
            c,
            &mut IterEvents(events.iter().copied()),
            &mut FnSink(|e| out.push(e)),
        )
        .expect("FnSink cannot fail");
    (verdict, out)
}

/// The batch reference: materialize the output tree, take its pre-order
/// events.
fn batch_events(c: &CompiledDtop, source: &mut impl TreeEventSource) -> Option<Vec<TreeEvent>> {
    StreamEvaluator::new()
        .eval_source(c, source)
        .map(|t| t.events().collect())
}

fn config() -> RandomDtopConfig {
    RandomDtopConfig {
        n_states: 4,
        max_rhs_depth: 3,
        call_percent: 55,
    }
}

/// Element-only unranked document builder (every symbol is fcns-safe).
fn elem_doc_from_ops(ops: &[u8]) -> UTree {
    let mut stack: Vec<(String, Vec<UTree>)> = vec![("root".to_owned(), Vec::new())];
    for &op in ops {
        match op % 5 {
            0 => stack.push(("a".to_owned(), Vec::new())),
            1 => stack.push(("b".to_owned(), Vec::new())),
            2 => stack.push(("c".to_owned(), Vec::new())),
            3 => {
                if stack.len() > 1 {
                    let (label, children) = stack.pop().unwrap();
                    stack
                        .last_mut()
                        .unwrap()
                        .1
                        .push(UTree::Elem { label, children });
                }
            }
            _ => stack.last_mut().unwrap().1.push(UTree::leaf("d")),
        }
    }
    while stack.len() > 1 {
        let (label, children) = stack.pop().unwrap();
        stack
            .last_mut()
            .unwrap()
            .1
            .push(UTree::Elem { label, children });
    }
    let (label, children) = stack.pop().unwrap();
    UTree::Elem { label, children }
}

/// The golden xmlflip dtop (paper §1/§10) over the DTD encoding of
/// `root → (a*,b*)` / output `root → (b*,a*)`, abstract pcdata.
fn xmlflip() -> Dtop {
    parse_dtop(
        "ax = root(\"(b*,a*)\"(<q1,x0>,<q2,x0>))\n\
         q1(root(x1)) -> <q1g,x1>\n\
         q2(root(x1)) -> <q2g,x1>\n\
         q1g(\"(a*,b*)\"(x1,x2)) -> <qbs,x2>\n\
         q2g(\"(a*,b*)\"(x1,x2)) -> <qas,x1>\n\
         qbs(b*(x1,x2)) -> b*(<qb,x1>,<qbs,x2>)\n\
         qbs(#) -> #\n\
         qb(b) -> b\n\
         qb(#) -> #\n\
         qas(a*(x1,x2)) -> a*(<qa,x1>,<qas,x2>)\n\
         qas(#) -> #\n\
         qa(a) -> a\n\
         qa(#) -> #",
    )
    .expect("xmlflip parses")
}

/// The golden text-swap dtop: valued pcdata `{x,y}`, swaps the A/T
/// fields of `B → (A,T)`.
fn text_swap() -> Dtop {
    parse_dtop(
        "ax = B(\"(T,A)\"(<q1,x0>,<q2,x0>))\n\
         q1(B(x1)) -> <qg1,x1>\n\
         q2(B(x1)) -> <qg2,x1>\n\
         qg1(\"(A,T)\"(x1,x2)) -> <qt,x2>\n\
         qg2(\"(A,T)\"(x1,x2)) -> <qa,x1>\n\
         qt(T(x1)) -> T(<qv,x1>)\n\
         qa(A(x1)) -> A(<qv,x1>)\n\
         qv('x') -> 'x'\n\
         qv('y') -> 'y'",
    )
    .expect("text_swap parses")
}

/// `TreeEventSource` wrapper counting delivered input events (skipped
/// subtrees intentionally count as whatever the inner fast path hides).
struct CountingSource<S> {
    inner: S,
    consumed: Rc<Cell<u64>>,
}

impl<S: TreeEventSource> TreeEventSource for CountingSource<S> {
    fn next_event(&mut self) -> Option<TreeEvent> {
        let ev = self.inner.next_event();
        if ev.is_some() {
            self.consumed.set(self.consumed.get() + 1);
        }
        ev
    }

    fn skip_subtree(&mut self) -> bool {
        self.inner.skip_subtree()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Term events: random partial dtops on random trees — streamed
    /// emission is the batch output's pre-order, and the two agree on
    /// `None` outside the domain.
    #[test]
    fn term_emission_matches_batch_preorder(seed in any::<u64>(), keep in 35u32..95) {
        let input = RankedAlphabet::from_pairs([("f", 2), ("g", 1), ("h", 3), ("a", 0), ("b", 0)]);
        let output = RankedAlphabet::from_pairs([("u", 2), ("v", 1), ("c", 0), ("d", 0)]);
        let mut rng = StdRng::seed_from_u64(seed);
        let m = random_partial_dtop(&mut rng, &input, &output, &config(), keep);
        let c = compile(&m).unwrap();
        let mut trees = gen::enumerate_trees(&input, 40, 7);
        for _ in 0..4 {
            trees.push(gen::random_tree(&input, 60, &mut rng));
        }
        for t in trees {
            let streamed = streamed_events(&c, &mut IterEvents(t.events()));
            let batch = batch_events(&c, &mut IterEvents(t.events()));
            prop_assert_eq!(streamed, batch, "on {}", t);
        }
    }

    /// One evaluator runs a random sequence of documents — in the
    /// domain, rejected mid-spine, truncated, or with an event dropped
    /// or a `Close` added — and answers each exactly as a fresh
    /// evaluator does: nothing a dead run leaves on the run-wide stacks
    /// reaches the next document.
    #[test]
    fn reused_evaluator_matches_a_fresh_one(seed in any::<u64>(), keep in 35u32..95) {
        let input = RankedAlphabet::from_pairs([("f", 2), ("g", 1), ("h", 3), ("a", 0), ("b", 0)]);
        let output = RankedAlphabet::from_pairs([("u", 2), ("v", 1), ("c", 0), ("d", 0)]);
        let mut rng = StdRng::seed_from_u64(seed);
        let m = random_partial_dtop(&mut rng, &input, &output, &config(), keep);
        let c = compile(&m).unwrap();
        let mut reused = StreamEvaluator::new();
        for _ in 0..24 {
            let t = gen::random_tree(&input, 60, &mut rng);
            let mut events: Vec<TreeEvent> = t.events().collect();
            let at = rng.gen_range(0..events.len());
            match rng.gen_range(0..4) {
                0 => {}
                1 => events.truncate(at),
                2 => {
                    events.remove(at);
                }
                _ => events.insert(at, TreeEvent::Close),
            }
            let fresh = run_events(&mut StreamEvaluator::new(), &c, &events);
            prop_assert_eq!(run_events(&mut reused, &c, &events), fresh, "on {:?}", events);
        }
    }

    /// Raw ranked XML: the same property through the SAX tokenizer
    /// (`XmlRankedEvents`), including its skip fast path on deletions.
    #[test]
    fn xml_emission_matches_batch_preorder(seed in any::<u64>(), keep in 35u32..95) {
        let alpha = RankedAlphabet::from_pairs([("f", 2), ("g", 1), ("a", 0), ("b", 0)]);
        let mut rng = StdRng::seed_from_u64(seed);
        let m = random_partial_dtop(&mut rng, &alpha, &alpha, &config(), keep);
        let c = compile(&m).unwrap();
        let mut trees = gen::enumerate_trees(&alpha, 40, 7);
        for _ in 0..4 {
            trees.push(gen::random_tree(&alpha, 60, &mut rng));
        }
        for t in trees {
            let xml = tree_to_xml(&t);
            let streamed = streamed_events(&c, &mut XmlRankedEvents::new(&xml));
            let batch = batch_events(&c, &mut XmlRankedEvents::new(&xml));
            prop_assert_eq!(streamed, batch, "on {xml}");
        }
    }

    /// fc/ns encoding: random partial dtops over the encoded alphabet on
    /// random element-only documents, streamed straight off the encoder.
    #[test]
    fn fcns_emission_matches_batch_preorder(
        seed in any::<u64>(), keep in 35u32..95,
        ops in proptest::collection::vec(any::<u8>(), 0..50),
    ) {
        let alpha = RankedAlphabet::from_pairs([
            ("root", 2), ("a", 2), ("b", 2), ("c", 2), ("d", 2), ("#", 0),
        ]);
        let mut rng = StdRng::seed_from_u64(seed);
        let m = random_partial_dtop(&mut rng, &alpha, &alpha, &config(), keep);
        let c = compile(&m).unwrap();
        let xml = write_xml(&elem_doc_from_ops(&ops));
        let codec = XmlCodec::fcns();
        let events = || IterEvents(codec.events(&xml).map(|r| r.expect("well-formed XML")));
        prop_assert_eq!(
            streamed_events(&c, &mut events()),
            batch_events(&c, &mut events()),
            "on {}", xml
        );
    }

    /// DTD encoding, abstract pcdata: the paper's xmlflip on random
    /// (and occasionally out-of-domain) documents.
    #[test]
    fn dtd_abstract_emission_matches_batch_preorder(
        n in 0usize..10, m in 0usize..10, rogue in any::<bool>(),
    ) {
        let dtd = Dtd::parse(
            "<!ELEMENT root (a*,b*) >\n<!ELEMENT a EMPTY >\n<!ELEMENT b EMPTY >",
        ).unwrap();
        let enc = Arc::new(Encoding::new(dtd, PcDataMode::Abstract));
        let codec = XmlCodec::dtd(Arc::clone(&enc));
        let c = compile(&xmlflip()).unwrap();
        let mut kids = vec![UTree::leaf("a"); n];
        kids.extend(vec![UTree::leaf("b"); m]);
        if rogue {
            // b before a: still in the DTD's language only when n == 0.
            kids.reverse();
        }
        let xml = write_xml(&UTree::elem("root", kids));
        if enc.encode(&xtt_xml::parse_xml(&xml).unwrap()).is_err() {
            return Ok(()); // outside the DTD: nothing to compare
        }
        let events = || IterEvents(codec.events(&xml).map(|r| r.expect("in DTD language")));
        prop_assert_eq!(
            streamed_events(&c, &mut events()),
            batch_events(&c, &mut events()),
            "on {}", xml
        );
    }

    /// DTD encoding, valued pcdata: the text-swap exemplar over the
    /// `{x,y}` text universe (permuting at the root, so everything
    /// buffers — the equality must hold regardless).
    #[test]
    fn dtd_valued_emission_matches_batch_preorder(a in any::<bool>(), t in any::<bool>()) {
        let dtd = Dtd::parse(
            "<!ELEMENT B (A,T) >\n<!ELEMENT A #PCDATA >\n<!ELEMENT T #PCDATA >",
        ).unwrap();
        let mode = PcDataMode::Valued(vec!["x".into(), "y".into()]);
        let enc = Arc::new(Encoding::new(dtd, mode));
        let codec = XmlCodec::dtd(enc);
        let c = compile(&text_swap()).unwrap();
        let pick = |b: bool| if b { "x" } else { "y" };
        let xml = format!("<B><A>{}</A><T>{}</T></B>", pick(a), pick(t));
        let events = || IterEvents(codec.events(&xml).map(|r| r.expect("in DTD language")));
        prop_assert_eq!(
            streamed_events(&c, &mut events()),
            batch_events(&c, &mut events()),
            "on {}", xml
        );
    }

    /// Deep order-preserving corpora: the first output event leaves
    /// before 10% of the input events have been consumed.
    #[test]
    fn first_event_before_ten_percent_consumed(depth in 100usize..400) {
        let prune = parse_dtop(
            "ax = <q0,x0>\n\
             q0(root(x1,x2)) -> root(<q,x1>,<q,x2>)\n\
             q(a(x1,x2)) -> a(<q,x1>,<q,x2>)\n\
             q(b(x1,x2)) -> <q,x2>\n\
             q(#) -> #",
        ).unwrap();
        let c = compile(&prune).unwrap();
        let mut xml = String::from("<root>");
        for _ in 0..depth {
            xml.push_str("<a>");
        }
        for _ in 0..depth {
            xml.push_str("</a>");
        }
        xml.push_str("</root>");
        let codec = XmlCodec::fcns();
        let total = codec.events(&xml).count() as u64;
        prop_assert!(total >= 2 * depth as u64);

        let consumed = Rc::new(Cell::new(0u64));
        let mut source = CountingSource {
            inner: IterEvents(codec.events(&xml).map(|r| r.expect("well-formed XML"))),
            consumed: Rc::clone(&consumed),
        };
        let at_first = Rc::new(Cell::new(None::<u64>));
        let emitted = {
            let consumed = Rc::clone(&consumed);
            let at_first = Rc::clone(&at_first);
            let mut sink = FnSink(move |_| {
                if at_first.get().is_none() {
                    at_first.set(Some(consumed.get()));
                }
            });
            StreamEvaluator::new()
                .eval_streaming(&c, &mut source, &mut sink)
                .expect("FnSink cannot fail")
        };
        prop_assert!(emitted.is_some(), "prune is defined on the chain");
        let at_first = at_first.get().expect("output was produced");
        prop_assert!(
            at_first * 10 <= total,
            "first output event only after {at_first} of {total} input events"
        );
    }
}

/// `stream`-mode batches run their documents on one evaluator: a deep
/// fc/ns document rejected near the bottom of its spine (a node's next
/// sibling is its second child, so 2,000 siblings make a spine 2,000
/// deep) leaves the next document's answer as it would be alone, with
/// and without the guard.
#[test]
fn a_batch_answers_after_a_deep_rejection_as_alone() {
    let prune = parse_dtop(
        "ax = <q0,x0>\n\
         q0(root(x1,x2)) -> root(<q,x1>,<q,x2>)\n\
         q(a(x1,x2)) -> a(<q,x1>,<q,x2>)\n\
         q(b(x1,x2)) -> <q,x2>\n\
         q(#) -> #",
    )
    .unwrap();
    // The rejected name is one the transducer interns: an uninterned
    // name reads as unknown only until another test thread interns it,
    // which would change the error between the two runs.
    let rejected = format!("<root>{}<root/><a/></root>", "<a/>".repeat(2_000));
    let accepted = "<root><a><b/></a><b><a/></b><a/></root>".to_owned();
    let engine = Engine::default();
    let format = DocFormat::parse("fcns").unwrap();
    for validate in [false, true] {
        let (machine, guard) = engine.resolve(&prune, validate).unwrap();
        let run = |docs: &[String]| {
            let req = Request::new(&machine, guard.as_deref(), &format, EvalMode::Streaming);
            engine.run_batch(docs, req)
        };
        let alone: Vec<_> = [&rejected, &accepted]
            .into_iter()
            .flat_map(|d| run(std::slice::from_ref(d)))
            .collect();
        assert!(alone[0].is_err() && alone[1].is_ok(), "{alone:?}");
        assert_eq!(run(&[rejected.clone(), accepted.clone()]), alone);
    }
}
