//! Integration tests for the pipeline subsystem over a real socket:
//! register transducers, compose them into a named pipeline, transform
//! through it in every evaluation mode (byte-identical results), and
//! exercise the 422 paths, `/slow`, and the pipeline metrics.

use std::time::Duration;

use xtt_serve::{ServeClient, ServeOptions, Server};
use xtt_transducer::{examples, identity};

fn boot(
    opts: ServeOptions,
) -> (
    ServeClient,
    std::thread::JoinHandle<std::io::Result<()>>,
    xtt_serve::ServeHandle,
) {
    let server = Server::bind("127.0.0.1:0", opts).expect("bind ephemeral");
    let addr = server.local_addr().unwrap();
    let handle = server.handle();
    let runner = std::thread::spawn(move || server.run());
    let client = ServeClient::new(addr)
        .unwrap()
        .with_timeout(Duration::from_secs(10));
    assert!(client.wait_ready(Duration::from_secs(5)), "server not up");
    (client, runner, handle)
}

fn small_opts() -> ServeOptions {
    ServeOptions {
        workers: 4,
        queue_capacity: 64,
        // Every request is "slow" at a 1ns threshold, so the /slow ring
        // fills deterministically.
        slow_request: Duration::from_nanos(1),
        ..ServeOptions::default()
    }
}

#[test]
fn pipeline_register_transform_all_modes_and_teardown() {
    let (client, runner, handle) = boot(small_opts());

    let flip = examples::flip().dtop;
    let resp = client.put_transducer("flip", &flip.to_string()).unwrap();
    assert_eq!(resp.status, 201, "{}", resp.body_str());
    let resp = client
        .put_transducer("id", &identity(flip.output()).to_string())
        .unwrap();
    assert_eq!(resp.status, 201, "{}", resp.body_str());

    // Register flip ∘ id as a named pipeline.
    let resp = client
        .request("PUT", "/pipelines/flipid", "flip,id\n")
        .unwrap();
    assert_eq!(resp.status, 201, "{}", resp.body_str());
    let body = resp.body_str();
    assert!(body.contains("\"name\":\"flipid\""), "{body}");
    assert!(body.contains("\"stages\":[\"flip\",\"id\"]"), "{body}");
    assert!(body.contains("\"composed_states\":"), "{body}");

    // Inspect and list.
    let resp = client.request("GET", "/pipelines/flipid", "").unwrap();
    assert_eq!(resp.status, 200);
    let resp = client.request("GET", "/pipelines", "").unwrap();
    assert!(resp.body_str().contains("\"flipid\""));
    let resp = client.request("GET", "/pipelines/nope", "").unwrap();
    assert_eq!(resp.status, 404);

    // Transform through the pipeline in both modes; results must be
    // byte-identical across modes. Doc 2 is outside the composed domain —
    // rejected by the plan's guard at the same position in both.
    let docs = [
        examples::flip_input(2, 3).to_string(),
        examples::flip_input(0, 0).to_string(),
        "root(b(#,#),#)".to_owned(),
        examples::flip_input(4, 1).to_string(),
    ];
    let doc_refs: Vec<&str> = docs.iter().map(String::as_str).collect();
    let mut outputs: Vec<(String, Vec<String>)> = Vec::new();
    for mode in ["tree", "stream"] {
        let query = format!("?mode={mode}");
        let (resp, lines) = client.transform("flipid", &query, &doc_refs).unwrap();
        // mode=stream commits the status before evaluating; batch
        // modes answer 207 on partial failure.
        assert!(
            resp.status == 200 || resp.status == 207,
            "{mode}: {}",
            resp.status
        );
        assert_eq!(lines.len(), 4, "{mode}: {lines:?}");
        outputs.push((query, lines));
    }
    let (ref baseline_query, ref baseline) = outputs[0];
    for (query, lines) in &outputs[1..] {
        assert_eq!(lines, baseline, "{query} disagrees with {baseline_query}");
    }
    assert!(
        baseline[2].starts_with("!error: type error at"),
        "guard rejection names the violating node: {}",
        baseline[2]
    );

    // The slow ring captured pipeline requests (1ns threshold).
    let resp = client.request("GET", "/slow", "").unwrap();
    assert_eq!(resp.status, 200);
    let body = resp.body_str();
    assert!(body.contains("\"recent\":["), "{body}");
    assert!(body.contains("target=flipid"), "{body}");

    // Stats and metrics carry the pipeline counters and labels.
    let resp = client.stats().unwrap();
    let stats = resp.body_str();
    assert!(stats.contains("\"pipelines\":{\"registered\":1"), "{stats}");
    let resp = client.request("GET", "/metrics", "").unwrap();
    let metrics = resp.body_str();
    assert!(metrics.contains("xtt_pipelines_registered 1"), "{metrics}");
    assert!(
        metrics
            .contains("xtt_transform_requests_by_target_total{kind=\"pipeline\",name=\"flipid\"}"),
        "{metrics}"
    );
    // A pipeline runs as one machine: there is no per-stage series.
    assert!(!metrics.contains("xtt_pipeline_stage_events"), "{metrics}");

    // Unregister: transforms stop resolving.
    let resp = client.request("DELETE", "/pipelines/flipid", "").unwrap();
    assert_eq!(resp.status, 204);
    let (resp, _) = client.transform("flipid", "", &doc_refs).unwrap();
    assert_eq!(resp.status, 404);

    handle.shutdown();
    runner.join().unwrap().unwrap();
}

#[test]
fn pipeline_registration_error_paths() {
    let (client, runner, handle) = boot(small_opts());

    let flip = examples::flip().dtop;
    client.put_transducer("flip", &flip.to_string()).unwrap();

    // Undefined stages.
    let resp = client
        .request("PUT", "/pipelines/p1", "flip,nosuch,other\n")
        .unwrap();
    assert_eq!(resp.status, 422, "{}", resp.body_str());
    assert!(
        resp.body_str().contains("undefined stages: nosuch, other"),
        "{}",
        resp.body_str()
    );

    // Empty stage list.
    let resp = client.request("PUT", "/pipelines/p1", "\n").unwrap();
    assert_eq!(resp.status, 422, "{}", resp.body_str());

    // Empty composition: stage 2 only accepts `a`-rooted inputs, which
    // flip never emits. The `dead` state keeps every alphabet symbol
    // mentioned in some rule so the upload round-trip (which rebuilds the
    // alphabet from the rule text) preserves flip's output alphabet — the
    // miss is then an in-alphabet domain shrink, not a compose error.
    let sym = |n: &str| {
        *flip
            .output()
            .symbols()
            .iter()
            .find(|s| s.name() == n)
            .unwrap()
    };
    let leaf = sym("#");
    let mut b = xtt_transducer::Dtop::builder(flip.output().clone(), flip.output().clone());
    let q = b.add_state("q");
    let dead = b.add_state("dead");
    b.set_axiom(xtt_transducer::Rhs::Call { state: q, child: 0 });
    b.add_rule(q, sym("a"), xtt_transducer::Rhs::Out(leaf, vec![]))
        .unwrap();
    b.add_rule(dead, sym("root"), xtt_transducer::Rhs::Out(leaf, vec![]))
        .unwrap();
    b.add_rule(dead, sym("b"), xtt_transducer::Rhs::Out(leaf, vec![]))
        .unwrap();
    let only_a = b.build().unwrap();
    let resp = client
        .put_transducer("only_a", &only_a.to_string())
        .unwrap();
    assert_eq!(resp.status, 201, "{}", resp.body_str());
    let resp = client
        .request("PUT", "/pipelines/p1", "flip,only_a\n")
        .unwrap();
    assert_eq!(resp.status, 422, "{}", resp.body_str());
    assert!(
        resp.body_str().contains("empty domain"),
        "{}",
        resp.body_str()
    );

    // Bad names and unknown schema encodings.
    let resp = client
        .request("PUT", "/pipelines/bad%20name", "flip\n")
        .unwrap();
    assert_eq!(resp.status, 400, "{}", resp.body_str());
    let resp = client
        .request("PUT", "/pipelines/p2?schema=missing", "flip\n")
        .unwrap();
    assert_eq!(resp.status, 422, "{}", resp.body_str());
    let resp = client
        .request("PUT", "/pipelines/p2?schema=fcns", "flip\n")
        .unwrap();
    assert_eq!(resp.status, 422, "{}", resp.body_str());

    // Wrong method on the pipelines namespace is 405, not 404.
    let resp = client.request("PATCH", "/pipelines/p1", "").unwrap();
    assert_eq!(resp.status, 405);

    handle.shutdown();
    runner.join().unwrap().unwrap();
}
