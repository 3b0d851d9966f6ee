//! The streaming unranked-XML pipeline end to end: genuine XML in,
//! transformed XML out — encoded incrementally off the SAX tokenizer
//! (no `UTree`, no materialized ranked input) and decoded back by the
//! streaming writer.
//!
//! ```console
//! $ cargo run --example unranked_pipeline
//! ```

use std::sync::Arc;

use xtt::engine::{DocFormat, Engine, EngineError, EngineOptions, EvalMode, Request, XmlCodec};
use xtt::prelude::*;
use xtt::xml::xmlflip;

/// One document through the engine core on `dtop`'s compiled machine.
fn run(
    engine: &Engine,
    dtop: &Dtop,
    doc: &str,
    mode: EvalMode,
    format: &DocFormat,
) -> Result<String, EngineError> {
    let (machine, guard) = engine.resolve(dtop, false)?;
    let req = Request::new(&machine, guard.as_deref(), format, mode);
    engine
        .run_batch(&[doc], req)
        .pop()
        .expect("one result per document")
}

fn main() {
    // 1. The paper's xmlflip over its DTD-encoding pair: the input
    //    follows root → (a*,b*), the output root → (b*,a*).
    let engine = Engine::new(EngineOptions::default());
    let flip_codec = XmlCodec::dtd_pair(
        Arc::new(xmlflip::input_encoding()),
        Arc::new(xmlflip::output_encoding()),
    );
    let doc = "<root><a/><a/><b/></root>";
    let flip_format = DocFormat::Encoded(flip_codec);
    let m = xmlflip::target_dtop();
    let out = run(&engine, &m, doc, EvalMode::Streaming, &flip_format).expect("in-domain document");
    println!("xmlflip (DTD encoding, streaming): {doc}  ->  {out}");
    assert_eq!(out, "<root><b/><a/><a/></root>");

    // 2. The same streaming encoder feeds `tree` mode too — outputs agree.
    let again = run(&engine, &m, doc, EvalMode::Compiled, &flip_format).unwrap();
    assert_eq!(again, out);

    // 3. fc/ns with deletion: prune every <b> subtree. The streaming
    //    evaluator skips deleted subtrees at the *tokenizer* level.
    let prune = parse_dtop(
        "ax = <q0,x0>\n\
         q0(root(x1,x2)) -> root(<q,x1>,<q,x2>)\n\
         q(a(x1,x2)) -> a(<q,x1>,<q,x2>)\n\
         q(b(x1,x2)) -> <q,x2>\n\
         q(#) -> #\n",
    )
    .unwrap();
    let doc = "<root><a><b>discarded <junk/> without tokenizing</b><a/></a><b/></root>";
    let fcns = DocFormat::parse("fcns").unwrap();
    let out = run(&engine, &prune, doc, EvalMode::Streaming, &fcns).unwrap();
    println!("prune (fc/ns encoding, streaming):  {doc}  ->  {out}");
    assert_eq!(out, "<root><a><a/></a></root>");

    // 4. The raw pieces, without the engine: SAX events → ranked events
    //    (O(depth) frames) → evaluator → streaming writer.
    let codec = XmlCodec::fcns();
    let mut events = codec.events("<root><a/><a/></root>");
    let ranked: Vec<_> = (&mut events).map(Result::unwrap).collect();
    println!(
        "ranked events: {} (peak live frames: {})",
        ranked.len(),
        events.peak_frames()
    );
    let tree = codec.ranked_tree("<root><a/><a/></root>").unwrap();
    assert_eq!(codec.decode_tree(&tree).unwrap(), "<root><a/><a/></root>");
    println!("decode ∘ encode is the identity — pipeline closed.");
}
