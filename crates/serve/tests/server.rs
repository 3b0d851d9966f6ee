//! Integration tests driving a real `xtt-serve` over a socket with
//! [`ServeClient`] — including the acceptance scenario: upload a
//! transducer, send a 100-document batch containing malformed documents,
//! get per-document positional results plus correct `/stats` counters,
//! and shut down gracefully with in-flight work drained.

use std::time::Duration;

use xtt_serve::{ServeClient, ServeOptions, Server};
use xtt_transducer::examples;

/// Boots a server on an ephemeral port; returns the client, the run-loop
/// thread handle, and the serve handle.
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
        ..ServeOptions::default()
    }
}

#[test]
fn acceptance_upload_batch_stats_graceful_shutdown() {
    let (client, runner, _handle) = boot(small_opts());

    // Upload the flip transducer in term syntax.
    let resp = client
        .put_transducer("flip", &examples::flip().dtop.to_string())
        .unwrap();
    assert_eq!(resp.status, 201, "{}", resp.body_str());
    let body = resp.body_str();
    assert!(body.contains("\"name\":\"flip\""), "{body}");
    assert!(body.contains("\"states\":4"), "{body}");

    // A 100-document batch with two malformed documents and one
    // out-of-domain document at known positions.
    let mut docs: Vec<String> = (0..100)
        .map(|i| examples::flip_input(i % 5, i % 3).to_string())
        .collect();
    docs[17] = "root((".to_owned(); // malformed
    docs[42] = "root(b(#,#),#)".to_owned(); // outside the domain
    docs[93] = "not a term (".to_owned(); // malformed
    let doc_refs: Vec<&str> = docs.iter().map(String::as_str).collect();
    let (resp, lines) = client.transform("flip", "", &doc_refs).unwrap();
    assert_eq!(resp.status, 207, "partial success is multi-status");
    assert_eq!(resp.header("x-xtt-docs"), Some("100"));
    assert_eq!(resp.header("x-xtt-failed"), Some("3"));
    assert_eq!(lines.len(), 100, "one result line per document");
    for (i, line) in lines.iter().enumerate() {
        match i {
            17 | 93 => assert!(line.starts_with("!error: parse error"), "doc {i}: {line}"),
            42 => assert!(
                line.contains("outside the transduction domain"),
                "doc {i}: {line}"
            ),
            _ => {
                let expected = xtt_transducer::eval(
                    &examples::flip().dtop,
                    &xtt_trees::parse_tree(&docs[i]).unwrap(),
                )
                .unwrap()
                .to_string();
                assert_eq!(line, &expected, "doc {i}");
            }
        }
    }

    // Stats reflect the traffic: the upload compiled once (miss), the
    // transform hit the fingerprint LRU, and the document counters add up.
    let stats = client.stats().unwrap();
    assert_eq!(stats.status, 200);
    let json = stats.body_str();
    assert!(json.contains("\"cache_misses\":1"), "{json}");
    assert!(json.contains("\"cache_hits\":1"), "{json}");
    assert!(
        json.contains("\"documents\":{\"total\":100,\"errors\":3,\"type_errors\":0}"),
        "{json}"
    );
    assert!(
        json.contains("\"validation\":{\"docs_validated\":0,\"docs_rejected_pre_eval\":0"),
        "{json}"
    );
    assert!(json.contains("\"transducers\":1"), "{json}");

    // Graceful shutdown: the server drains and the run loop exits Ok.
    let resp = client.shutdown().unwrap();
    assert_eq!(resp.status, 200);
    runner.join().unwrap().unwrap();
    assert!(!client.healthz(), "server still answering after shutdown");
}

/// The typecheck surface over the wire: `POST /typecheck/{name}` decides
/// output types (ok and counterexample both), `?validate=1` turns
/// out-of-domain documents into positional type errors whose lines carry
/// the violation path, and `/stats` exposes the new counters.
#[test]
fn typecheck_and_validation_over_the_wire() {
    let (client, runner, _handle) = boot(small_opts());
    client
        .put_transducer("flip", &examples::flip().dtop.to_string())
        .unwrap();

    // flip's true output type: root(b-list, a-list) → well-typed.
    let good_schema = "dtta (initial s)\n\
         s(root(x1,x2)) -> root(<bl,x1>,<al,x2>)\n\
         bl(b(x1,x2)) -> b(<nil,x1>,<bl,x2>)\n\
         bl(#) -> #\n\
         al(a(x1,x2)) -> a(<nil,x1>,<al,x2>)\n\
         al(#) -> #\n\
         nil(#) -> #\n";
    let resp = client.typecheck("flip", good_schema).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body_str());
    assert!(
        resp.body_str().contains("\"ok\":true"),
        "{}",
        resp.body_str()
    );

    // Demanding the *input* shape fails with a concrete counterexample.
    let wrong_schema = good_schema.replace("root(<bl,x1>,<al,x2>)", "root(<al,x1>,<bl,x2>)");
    let resp = client.typecheck("flip", &wrong_schema).unwrap();
    assert_eq!(resp.status, 200);
    let body = resp.body_str().to_owned();
    assert!(body.contains("\"ok\":false"), "{body}");
    assert!(body.contains("\"counterexample\":"), "{body}");

    // Bad schema → 422; unknown transducer → 404.
    assert_eq!(client.typecheck("flip", "not a dtta").unwrap().status, 422);
    assert_eq!(client.typecheck("nope", good_schema).unwrap().status, 404);

    // Guarded batch transform: the out-of-domain document answers with a
    // typed, positional error line naming the first violating node; the
    // same document unguarded is an opaque domain error.
    for mode in ["tree", "stream"] {
        let (resp, lines) = client
            .transform(
                "flip",
                &format!("?mode={mode}&validate=1"),
                &["root(a(#,#),b(#,#))", "root(a(#,b(#,#)),b(#,#))"],
            )
            .unwrap();
        // mode=stream commits the status before evaluating; errors are
        // in-band only.
        let expected = if mode == "stream" { 200 } else { 207 };
        assert_eq!(resp.status, expected, "mode {mode}");
        assert_eq!(lines[0], "root(b(#,#),a(#,#))", "mode {mode}");
        assert_eq!(
            lines[1], "!error: type error at 1.2: symbol b not allowed in state {q4}",
            "mode {mode}"
        );
    }
    let (_, lines) = client
        .transform("flip", "?validate=0", &["root(a(#,b(#,#)),b(#,#))"])
        .unwrap();
    assert_eq!(lines[0], "!error: input outside the transduction domain");
    assert_eq!(
        client
            .transform("flip", "?validate=maybe", &["root(#,#)"])
            .unwrap()
            .0
            .status,
        400
    );

    // Counters: 2 typecheck runs (the 422/404 never ran), 1 ill-typed;
    // 4 documents validated, 2 rejected pre-eval.
    let stats = client.stats().unwrap();
    let json = stats.body_str();
    assert!(
        json.contains("\"typecheck\":{\"runs\":2,\"ill_typed\":1}"),
        "{json}"
    );
    assert!(
        json.contains("\"docs_validated\":4,\"docs_rejected_pre_eval\":2,\"guards_compiled\":1"),
        "{json}"
    );
    assert!(json.contains("\"type_errors\":2"), "{json}");

    client.shutdown().unwrap();
    runner.join().unwrap().unwrap();
}

#[test]
fn all_modes_agree_over_the_wire() {
    let (client, runner, _handle) = boot(small_opts());
    client
        .put_transducer("flip", &examples::flip().dtop.to_string())
        .unwrap();
    let docs: Vec<String> = (0..20)
        .map(|i| examples::flip_input(i % 4 + 1, i % 3).to_string())
        .collect();
    let doc_refs: Vec<&str> = docs.iter().map(String::as_str).collect();
    let mut outputs = Vec::new();
    for mode in ["tree", "stream"] {
        let (resp, lines) = client
            .transform("flip", &format!("?mode={mode}"), &doc_refs)
            .unwrap();
        assert_eq!(resp.status, 200, "mode {mode}");
        outputs.push(lines);
    }
    assert_eq!(outputs[0], outputs[1]);
    client.shutdown().unwrap();
    runner.join().unwrap().unwrap();
}

#[test]
fn xml_format_and_learning_over_the_wire() {
    use xtt_core::characteristic_sample;
    use xtt_transducer::canonical_form;

    let (client, runner, _handle) = boot(small_opts());

    // Learn the monadic→binary copier from its characteristic sample.
    let fix = examples::monadic_to_binary();
    let canonical = canonical_form(&fix.dtop, Some(&fix.domain)).unwrap();
    let sample: String = characteristic_sample(&canonical)
        .unwrap()
        .pairs()
        .iter()
        .map(|(i, o)| format!("{i} => {o}\n"))
        .collect();
    let resp = client.learn_transducer("copy", &sample).unwrap();
    assert_eq!(resp.status, 201, "{}", resp.body_str());
    assert!(resp.body_str().contains("\"source\":\"learned\""));
    let (_, lines) = client.transform("copy", "", &["f(f(e))"]).unwrap();
    assert_eq!(lines, vec!["g(g(e,e),g(e,e))"]);

    // The output bound protects the server from copying blow-ups: a
    // ~120-byte document whose output would be 2^41 nodes is rejected
    // positionally; its neighbors still transform.
    let mut deep = String::from("e");
    for _ in 0..40 {
        deep = format!("f({deep})");
    }
    let (resp, lines) = client.transform("copy", "", &["f(e)", &deep, "e"]).unwrap();
    assert_eq!(resp.status, 207);
    assert_eq!(lines[0], "g(e,e)");
    assert!(
        lines[1].starts_with("!error: output too large"),
        "{}",
        lines[1]
    );
    assert_eq!(lines[2], "e");

    // XML round-trip through the flip transducer, streaming mode.
    client
        .put_transducer("flip", &examples::flip().dtop.to_string())
        .unwrap();
    let (resp, lines) = client
        .transform(
            "flip",
            "?format=xml&mode=stream",
            &["<root><a># #</a><b># #</b></root>"],
        )
        .unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(lines, vec!["<root><b># #</b><a># #</a></root>"]);

    client.shutdown().unwrap();
    runner.join().unwrap().unwrap();
}

/// An uploaded rule's quoted non-ASCII output symbol is emitted as
/// itself.
#[test]
fn quoted_output_symbol_over_the_wire() {
    let (client, runner, _handle) = boot(small_opts());
    let rules = "ax = <q,x0>\nq(f(x1)) -> \"é ü\"(<q,x1>)\nq(e) -> e\n";
    let resp = client.put_transducer("accents", rules).unwrap();
    assert_eq!(resp.status, 201, "{}", resp.body_str());
    let (resp, lines) = client.transform("accents", "", &["f(e)"]).unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(lines, vec!["\"é ü\"(e)"]);
    client.shutdown().unwrap();
    runner.join().unwrap().unwrap();
}

/// A quoted `=>` inside a sample's input name does not split the line.
#[test]
fn quoted_arrow_in_a_sample_over_the_wire() {
    let (client, runner, _handle) = boot(small_opts());
    let sample = "\"a=>b\"(e) => g(e)\ne => e\n";
    let resp = client.learn_transducer("arrows", sample).unwrap();
    assert_eq!(resp.status, 201, "{}", resp.body_str());
    let (_, lines) = client.transform("arrows", "", &["\"a=>b\"(e)"]).unwrap();
    assert_eq!(lines, vec!["g(e)"]);
    client.shutdown().unwrap();
    runner.join().unwrap().unwrap();
}

#[test]
fn registry_endpoints_and_errors() {
    let (client, runner, _handle) = boot(small_opts());

    // Unknown transducer → 404.
    let (resp, _) = client.transform("nope", "", &["e"]).unwrap();
    assert_eq!(resp.status, 404);
    // A slash in the name (raw or percent-encoded) is extra path
    // segments → 405; an invalid character in a single segment → 400;
    // bad body → 422; bad mode → 400.
    let resp = client.put_transducer("a/b", "ax = e").unwrap();
    assert_eq!(resp.status, 405);
    let resp = client
        .request("PUT", "/transducers/bad%20name", "ax = e")
        .unwrap();
    assert_eq!(resp.status, 400);
    let resp = client.put_transducer("x", "not a transducer").unwrap();
    assert_eq!(resp.status, 422);
    client
        .put_transducer("flip", &examples::flip().dtop.to_string())
        .unwrap();
    let (resp, _) = client
        .transform("flip", "?mode=warp", &["root(#,#)"])
        .unwrap();
    assert_eq!(resp.status, 400);

    // List + get + delete.
    let resp = client.request("GET", "/transducers", "").unwrap();
    assert_eq!(resp.status, 200);
    assert!(resp.body_str().starts_with('['), "{}", resp.body_str());
    let resp = client.request("GET", "/transducers/flip", "").unwrap();
    assert_eq!(resp.status, 200);
    let resp = client.request("DELETE", "/transducers/flip", "").unwrap();
    assert_eq!(resp.status, 204);
    let resp = client.request("GET", "/transducers/flip", "").unwrap();
    assert_eq!(resp.status, 404);
    // Method confusion → 405; unknown path → 404.
    let resp = client.request("POST", "/healthz", "").unwrap();
    assert_eq!(resp.status, 405);
    let resp = client.request("GET", "/nonsense", "").unwrap();
    assert_eq!(resp.status, 404);

    client.shutdown().unwrap();
    runner.join().unwrap().unwrap();
}

/// Keep-alive: one TCP connection serves many requests, `/stats` counts
/// the reuse, a `Connection: close` request ends the session, and the
/// idle timeout reaps silent connections.
#[test]
fn keep_alive_reuses_connections() {
    let (client, runner, _handle) = boot(ServeOptions {
        keep_alive_timeout: Duration::from_millis(300),
        ..small_opts()
    });
    client
        .put_transducer("flip", &examples::flip().dtop.to_string())
        .unwrap();

    let mut session = client.session().unwrap();
    for i in 0..5 {
        let resp = session
            .request("POST", "/transform/flip", "root(a(#,#),b(#,#))\n")
            .unwrap_or_else(|e| panic!("request {i} on the shared connection: {e}"));
        assert_eq!(resp.status, 200, "request {i}");
        assert_eq!(resp.header("connection"), Some("keep-alive"));
        assert_eq!(resp.body_str(), "root(b(#,#),a(#,#))\n");
    }
    let resp = session.request("GET", "/stats", "").unwrap();
    let json = resp.body_str();
    assert!(json.contains("\"reused_requests\":"), "{json}");
    // This session alone reused the connection at least 5 times.
    let reused: u64 = json
        .split("\"reused_requests\":")
        .nth(1)
        .and_then(|s| s.split(|c: char| !c.is_ascii_digit()).next())
        .and_then(|s| s.parse().ok())
        .unwrap();
    assert!(reused >= 5, "reused_requests = {reused}");

    // Connection: close is honored — the server answers, then closes.
    let resp = session.request_close("GET", "/healthz", "").unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(resp.header("connection"), Some("close"));
    assert!(
        session.request("GET", "/healthz", "").is_err(),
        "connection must be closed after Connection: close"
    );

    // Idle sessions are reaped after the keep-alive timeout.
    let mut idle = client.session().unwrap();
    idle.request("GET", "/healthz", "").unwrap();
    std::thread::sleep(Duration::from_millis(700));
    assert!(
        idle.request("GET", "/healthz", "").is_err(),
        "idle connection must be closed by the server"
    );
    let json = client.stats().unwrap().body_str();
    assert!(json.contains("\"closed_idle\":1"), "{json}");

    client.shutdown().unwrap();
    runner.join().unwrap().unwrap();
}

/// The unranked pipeline over the wire: upload a DTD as a named
/// encoding, transform genuine unranked XML through it (the paper's
/// xmlflip, wrong-DTD documents failing positionally), and use the
/// built-in fcns encoding without any upload.
#[test]
fn encodings_over_the_wire() {
    use xtt_xml::xmlflip;
    let (client, runner, _handle) = boot(small_opts());

    // Upload the xmlflip transducer (over the DTD-encoding alphabet).
    let resp = client
        .put_transducer("xmlflip", &xmlflip::target_dtop().to_string())
        .unwrap();
    assert_eq!(resp.status, 201, "{}", resp.body_str());

    // Bad DTD → 422, nothing registered; good DTD → 201.
    let resp = client
        .request("PUT", "/encodings/flipdtd", "<!ELEMENT root (undeclared) >")
        .unwrap();
    assert_eq!(resp.status, 422, "{}", resp.body_str());
    let resp = client.request("GET", "/encodings/flipdtd", "").unwrap();
    assert_eq!(resp.status, 404);
    let dtd = "<!ELEMENT root (a*,b*) >\n<!ELEMENT a EMPTY >\n<!ELEMENT b EMPTY >";
    let resp = client.request("PUT", "/encodings/flipdtd", dtd).unwrap();
    assert_eq!(resp.status, 201, "{}", resp.body_str());
    assert!(resp.body_str().contains("\"root\":\"root\""));

    // xmlflip changes the schema: inputs match root → (a*,b*), outputs
    // root → (b*,a*) — so register the output DTD too and decode with
    // `?output_encoding=`.
    let out_dtd = "<!ELEMENT root (b*,a*) >\n<!ELEMENT a EMPTY >\n<!ELEMENT b EMPTY >";
    let resp = client
        .request("PUT", "/encodings/flipout", out_dtd)
        .unwrap();
    assert_eq!(resp.status, 201, "{}", resp.body_str());
    for mode in ["tree", "stream"] {
        let (resp, lines) = client
            .transform(
                "xmlflip",
                &format!("?encoding=flipdtd&output_encoding=flipout&mode={mode}"),
                &[
                    "<root><a/><a/><b/></root>",
                    "<root><b/><a/></root>",
                    "<root/>",
                ],
            )
            .unwrap();
        // Streamed responses commit their status before any document
        // runs; failures stay positional (`!error:` lines).
        let expected = if mode == "stream" { 200 } else { 207 };
        assert_eq!(resp.status, expected, "mode {mode}: {lines:?}");
        assert_eq!(lines[0], "<root><b/><a/><a/></root>", "mode {mode}");
        assert!(
            lines[1].starts_with("!error: encoding error"),
            "mode {mode}: {}",
            lines[1]
        );
        assert_eq!(lines[2], "<root/>", "mode {mode}");
    }

    // The built-in fcns encoding needs no upload: a small pruning
    // transducer over the fc/ns alphabet, uploaded in term syntax.
    let prune = "ax = <q0,x0>\n\
                 q0(root(x1,x2)) -> root(<q,x1>,<q,x2>)\n\
                 q(a(x1,x2)) -> a(<q,x1>,<q,x2>)\n\
                 q(b(x1,x2)) -> <q,x2>\n\
                 q(#) -> #\n";
    let resp = client.put_transducer("prune", prune).unwrap();
    assert_eq!(resp.status, 201, "{}", resp.body_str());
    let (resp, lines) = client
        .transform(
            "prune",
            "?encoding=fcns&mode=stream",
            &["<root><a><b><a/></b><a/></a><b/></root>"],
        )
        .unwrap();
    assert_eq!(resp.status, 200, "{lines:?}");
    assert_eq!(lines, vec!["<root><a><a/></a></root>"]);

    // Unknown encoding → 400; list shows fcns + the upload; delete works.
    let (resp, _) = client
        .transform("prune", "?encoding=nope", &["<root/>"])
        .unwrap();
    assert_eq!(resp.status, 400);
    let resp = client.request("GET", "/encodings", "").unwrap();
    let body = resp.body_str();
    assert!(body.contains("\"fcns\""), "{body}");
    assert!(body.contains("\"flipdtd\""), "{body}");
    let json = client.stats().unwrap().body_str();
    assert!(json.contains("\"encodings\":2"), "{json}");
    let resp = client.request("DELETE", "/encodings/flipdtd", "").unwrap();
    assert_eq!(resp.status, 204);

    client.shutdown().unwrap();
    runner.join().unwrap().unwrap();
}

/// Shutdown with queued work: everything accepted before the shutdown is
/// still answered (drain), nothing is lost, and the run loop exits 0.
#[test]
fn shutdown_drains_concurrent_requests() {
    let (client, runner, handle) = boot(ServeOptions {
        workers: 2,
        ..small_opts()
    });
    client
        .put_transducer("flip", &examples::flip().dtop.to_string())
        .unwrap();
    // Big enough batches that the transforms are still running when the
    // shutdown lands.
    let docs: Vec<String> = (0..2000)
        .map(|i| examples::flip_input(i % 6, i % 4).to_string())
        .collect();
    let clients: Vec<_> = (0..8).map(|_| client.clone()).collect();
    let threads: Vec<_> = clients
        .into_iter()
        .map(|c| {
            let docs = docs.clone();
            std::thread::spawn(move || {
                let doc_refs: Vec<&str> = docs.iter().map(String::as_str).collect();
                c.transform("flip", "", &doc_refs)
            })
        })
        .collect();
    // Trigger shutdown while transforms are in flight.
    std::thread::sleep(Duration::from_millis(30));
    handle.shutdown();
    let mut answered = 0;
    for t in threads {
        // A request is either fully answered (accepted before shutdown,
        // drained to completion) or turned away at accept time (503 /
        // connection refused) — never half-answered.
        match t.join().unwrap() {
            Ok((resp, lines)) if resp.status == 200 => {
                assert_eq!(lines.len(), docs.len(), "drained response is complete");
                answered += 1;
            }
            Ok((resp, _)) => assert_eq!(resp.status, 503, "unexpected partial answer"),
            Err(_) => {} // connection refused after the acceptor exited
        }
    }
    runner.join().unwrap().unwrap();
    assert!(answered >= 1, "drain lost every in-flight request");
}

/// Satellite coverage for streamed *uploads*: chunked request bodies are
/// decoded on the transform endpoint (positionally identical to a
/// Content-Length batch) and the decoded size is capped at `max_body`.
#[test]
fn chunked_request_bodies_over_the_wire() {
    let (client, runner, _handle) = boot(small_opts());
    client
        .put_transducer("flip", &examples::flip().dtop.to_string())
        .unwrap();
    let resp = client
        .request_chunked(
            "POST",
            "/transform/flip",
            &["root(a(#,#)", ",b(#,#))\n", "root((\n"],
        )
        .unwrap();
    assert_eq!(resp.status, 207, "{}", resp.body_str());
    let body = resp.body_str();
    let lines: Vec<&str> = body.lines().collect();
    assert_eq!(lines[0], "root(b(#,#),a(#,#))");
    assert!(lines[1].starts_with("!error: parse error"), "{}", lines[1]);

    // The decoded-size cap answers 413 like an oversized Content-Length.
    let opts = ServeOptions {
        max_body: 64,
        ..small_opts()
    };
    let (small_client, small_runner, _h) = boot(opts);
    let big = "x".repeat(256);
    let resp = small_client
        .request_chunked("POST", "/transform/flip", &[&big])
        .unwrap();
    assert_eq!(resp.status, 413, "{}", resp.body_str());
    small_client.shutdown().unwrap();
    small_runner.join().unwrap().unwrap();

    client.shutdown().unwrap();
    runner.join().unwrap().unwrap();
}

/// The tentpole ordering property over the wire: a `mode=stream`
/// response is fully delivered while the *next* pipelined request's
/// large body has not even been sent — the first chunk cannot be waiting
/// on batch completion or request-body reads.
#[test]
fn streamed_response_arrives_before_pipelined_body_is_read() {
    use std::io::Write;

    let (client, runner, _handle) = boot(small_opts());
    client
        .put_transducer("flip", &examples::flip().dtop.to_string())
        .unwrap();

    let mut raw = std::net::TcpStream::connect(client.addr()).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let first_body = "root(a(#,#),b(#,#))\n";
    // A big pipelined follow-up batch, declared but only partially sent.
    let second_body: String = "root(a(#,#),b(#,#))\n".repeat(4096);
    let first = format!(
        "POST /transform/flip?mode=stream HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{first_body}",
        first_body.len()
    );
    let second_head = format!(
        "POST /transform/flip HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        second_body.len()
    );
    raw.write_all(first.as_bytes()).unwrap();
    raw.write_all(second_head.as_bytes()).unwrap();
    raw.write_all(&second_body.as_bytes()[..8]).unwrap();
    raw.flush().unwrap();

    // The streamed response completes while the server is still waiting
    // on the rest of the pipelined body we have not sent.
    let mut reader = raw.try_clone().unwrap();
    let resp = xtt_serve::http::read_response(&mut reader).unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(resp.header("x-xtt-streamed"), Some("1"));
    assert_eq!(resp.body_str(), "root(b(#,#),a(#,#))\n");

    // Now finish the pipelined body; the second (batch) response answers.
    raw.write_all(&second_body.as_bytes()[8..]).unwrap();
    raw.flush().unwrap();
    let resp = xtt_serve::http::read_response(&mut reader).unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(resp.body_str().lines().count(), 4096);

    client.shutdown().unwrap();
    runner.join().unwrap().unwrap();
}

/// A streamed response to a client that stops reading is aborted by the
/// write deadline and counted in `/stats` `streaming.write_timeouts`.
#[test]
fn slow_stream_readers_trip_the_write_deadline() {
    use std::io::Write;

    let opts = ServeOptions {
        stream_write_deadline: Duration::from_millis(250),
        ..small_opts()
    };
    let (client, runner, _handle) = boot(opts);
    client
        .put_transducer("copy", &examples::monadic_to_binary().dtop.to_string())
        .unwrap();

    // Each document's output is a full binary tree of ~4M nodes (~12MB
    // of text): far beyond what the kernel socket buffers absorb, so an
    // unread connection must block the writer past the deadline.
    let mut deep = String::from("e");
    for _ in 0..21 {
        deep = format!("f({deep})");
    }
    let body = format!("{deep}\n{deep}\n{deep}\n{deep}\n");
    let mut raw = std::net::TcpStream::connect(client.addr()).unwrap();
    let head = format!(
        "POST /transform/copy?mode=stream HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    raw.write_all(head.as_bytes()).unwrap();
    raw.write_all(body.as_bytes()).unwrap();
    raw.flush().unwrap();

    // Stall: never read. The server must give up on its own.
    let deadline = std::time::Instant::now() + Duration::from_secs(20);
    loop {
        let json = client.stats().unwrap().body_str();
        if json.contains("\"write_timeouts\":1") {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "write deadline never tripped: {json}"
        );
        std::thread::sleep(Duration::from_millis(100));
    }
    drop(raw);

    client.shutdown().unwrap();
    runner.join().unwrap().unwrap();
}
