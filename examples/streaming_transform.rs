//! The `xtt-engine` execution pipeline end to end: compile a learned
//! transducer, evaluate it three ways (tree-walk, compiled, streaming
//! over XML events), serve a batch on one thread, and produce an
//! exponentially large output as a shared tree, measured as its minimal
//! DAG.
//!
//! Run with `cargo run --release --example streaming_transform`.

use std::time::Instant;

use xtt::engine::{tree_to_xml, DocFormat, Request, XmlRankedEvents};
use xtt::prelude::*;
use xtt::transducer::examples;
use xtt::trees::TreeDag;

fn main() {
    // τflip again — but this time as a compiled object applied to
    // document streams, not a research artifact.
    let fixture = examples::flip();
    let compiled = compile(&fixture.dtop).unwrap();
    println!(
        "compiled τflip: {} states × {} symbols, {} instructions, fingerprint {:016x}",
        compiled.state_count(),
        compiled.symbol_count(),
        compiled.code_len(),
        compiled.fingerprint(),
    );

    // One document, three evaluators, one answer.
    let doc = parse_tree("root(a(#,a(#,#)),b(#,b(#,#)))").unwrap();
    let walk = eval(&fixture.dtop, &doc).unwrap();
    let mut scratch = EvalScratch::new();
    let fast = compiled.eval(&doc, &mut scratch).unwrap();
    let mut stream = StreamEvaluator::new();
    let xml_doc = tree_to_xml(&doc);
    let streamed = stream
        .eval_source(&compiled, &mut XmlRankedEvents::bounded(&xml_doc))
        .unwrap();
    assert!(walk == fast && fast == streamed);
    println!("\nτflip({doc})\n  = {walk}");
    println!(
        "streamed straight from XML: {xml_doc} -> {}",
        tree_to_xml(&streamed)
    );

    // Batch serving: the transducer's compiled machine over a corpus, on
    // the calling thread.
    let docs: Vec<String> = (0..50_000)
        .map(|i| examples::flip_input(i % 20 + 1, i % 13 + 1).to_string())
        .collect();
    let engine = Engine::new(EngineOptions::default());
    let t0 = Instant::now();
    let (machine, guard) = engine.resolve(&fixture.dtop, false).unwrap();
    let req = Request::new(
        &machine,
        guard.as_deref(),
        &DocFormat::Term,
        EvalMode::Compiled,
    );
    let results = engine.run_batch(&docs, req);
    let elapsed = t0.elapsed();
    let ok = results.iter().filter(|r| r.is_ok()).count();
    println!(
        "\nbatch: {} docs in {:.1?} ({:.0} docs/s), {} ok, cache {:?}",
        docs.len(),
        elapsed,
        docs.len() as f64 / elapsed.as_secs_f64(),
        ok,
        engine.cache_stats(),
    );

    // Exponential outputs stay linear (the paper's Section 1 trick): a
    // monadic input of height 40 maps to 2^41 - 1 output nodes, which the
    // compiled evaluator builds as shared subtrees — a 41-node DAG.
    let copier = compile(&examples::monadic_to_binary().dtop).unwrap();
    let mut input = Tree::leaf_named("e");
    for _ in 0..40 {
        input = Tree::node("f", vec![input]);
    }
    let mut dag = TreeDag::new();
    let id = dag.insert(&copier.eval_once(&input).unwrap());
    let stats = dag.stats(id);
    println!(
        "\ncopying dtop on height-40 input: output tree {} nodes, DAG {} nodes ({}x compression)",
        stats.tree_size,
        stats.dag_size,
        stats.compression_ratio() as u64,
    );

    // XML-format batch, streaming mode: documents are tokenized and
    // transformed without ever materializing the input tree.
    let xml_engine = Engine::new(EngineOptions {
        format: DocFormat::Xml,
        mode: EvalMode::Streaming,
        ..EngineOptions::default()
    });
    let out = xml_engine
        .transform(&fixture.dtop, "<root><a># #</a><b># #</b></root>")
        .unwrap();
    println!("\nstreaming XML batch sample: {out}");
}
