//! The transformation service end to end, in one process: boot
//! `xtt-serve` on an ephemeral port, learn a transducer over the wire
//! from `input => output` examples, batch-transform documents (with a
//! positional failure), read the stats, and shut down gracefully.
//!
//! Run with `cargo run --example transform_service`.

use xtt::prelude::*;
use xtt::serve::ServeOptions;

fn main() {
    let server = Server::bind("127.0.0.1:0", ServeOptions::default()).expect("bind");
    let addr = server.local_addr().unwrap();
    let runner = std::thread::spawn(move || server.run());
    let client = ServeClient::new(addr).expect("client");
    assert!(client.wait_ready(std::time::Duration::from_secs(5)));
    println!("serving on http://{addr}");

    // Teach the server the monadic→binary copier from examples alone:
    // the PODS 2010 learner runs server-side on the uploaded sample.
    let fixture = xtt::transducer::examples::monadic_to_binary();
    let canonical = canonical_form(&fixture.dtop, Some(&fixture.domain)).unwrap();
    let sample: String = characteristic_sample(&canonical)
        .unwrap()
        .pairs()
        .iter()
        .map(|(i, o)| format!("{i} => {o}\n"))
        .collect();
    let resp = client.learn_transducer("copy", &sample).expect("learn");
    println!(
        "PUT /transducers/copy?learn=1 -> {} {}",
        resp.status,
        resp.body_str()
    );

    // Batch-transform; the malformed document fails positionally.
    let docs = ["f(e)", "f(f(f(e)))", "oops((", "e"];
    let (resp, lines) = client
        .transform("copy", "?mode=tree", &docs)
        .expect("transform");
    println!("POST /transform/copy?mode=tree -> {}", resp.status);
    for (doc, line) in docs.iter().zip(&lines) {
        println!("  {doc:12} -> {line}");
    }
    assert!(lines[2].starts_with("!error:"));

    let stats = client.stats().expect("stats");
    println!("GET /stats -> {}", stats.body_str());

    client.shutdown().expect("shutdown");
    runner.join().unwrap().expect("clean exit");
    println!("server drained and stopped.");
}
