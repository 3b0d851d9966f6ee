//! Hostile uploads over a real socket: each answers a typed 4xx, and the
//! server stays up. A request that overflowed a worker's stack would
//! abort the whole process, and this test with it.

use std::time::Duration;

use xtt_serve::{ServeClient, ServeOptions, Server};

/// DTDs whose content models nest far past the parser's limits: 30,000
/// groups `((…(a)…))`, and 200,000 stacked `*` operators where XML allows
/// one per particle.
#[test]
fn deep_dtd_uploads_answer_422_and_the_server_stays_up() {
    let server = Server::bind(
        "127.0.0.1:0",
        ServeOptions {
            workers: 2,
            ..ServeOptions::default()
        },
    )
    .expect("bind ephemeral");
    let addr = server.local_addr().unwrap();
    let handle = server.handle();
    let runner = std::thread::spawn(move || server.run());
    let client = ServeClient::new(addr)
        .unwrap()
        .with_timeout(Duration::from_secs(30));
    assert!(client.wait_ready(Duration::from_secs(5)), "server not up");

    let leaf = "<!ELEMENT a EMPTY >\n";
    let groups = 30_000;
    let nested = format!(
        "<!ELEMENT r {}a{} >\n{leaf}",
        "(".repeat(groups),
        ")".repeat(groups)
    );
    let stars = format!("<!ELEMENT r (a{}) >\n{leaf}", "*".repeat(200_000));
    let cases = [
        ("groups", nested, "nests more than"),
        ("stars", stars, "per particle"),
    ];
    for (name, dtd, reason) in cases {
        let resp = client
            .request("PUT", &format!("/encodings/{name}"), &dtd)
            .unwrap_or_else(|e| panic!("{name}: no answer ({e})"));
        assert_eq!(resp.status, 422, "{name}: {}", resp.body_str());
        assert!(
            resp.body_str().contains(reason),
            "{name}: {}",
            resp.body_str()
        );
        assert!(client.healthz(), "{name}: server down after the upload");
    }

    handle.shutdown();
    runner.join().unwrap().unwrap();
}

/// `n` states over unary symbols `s1`…`sn`: `q_j` deletes its subtree at
/// `s_j` and reads past every other `s_i`, and the axiom runs every state
/// on the root. Any subset of the states can meet at one node, so the
/// domain guard's subset construction has 2ⁿ states.
fn exponential_guard_rules(n: usize) -> String {
    let calls: Vec<String> = (1..=n).map(|j| format!("<q{j},x0>")).collect();
    let mut rules = format!("ax = c({})\n", calls.join(","));
    for j in 1..=n {
        for i in 1..=n {
            let rhs = if i == j {
                "e".to_owned()
            } else {
                format!("<q{j},x1>")
            };
            rules += &format!("q{j}(s{i}(x1)) -> {rhs}\n");
        }
        rules += &format!("q{j}(e) -> e\n");
    }
    rules
}

/// With validation off an upload builds no domain guard: two concurrent
/// uploads whose guard has 2¹⁸ states (about 19 s to build in release)
/// each answer 201 at once, and neither holds a worker meanwhile.
#[test]
fn uploads_with_validation_off_build_no_guard() {
    let server = Server::bind(
        "127.0.0.1:0",
        ServeOptions {
            workers: 2,
            ..ServeOptions::default()
        },
    )
    .expect("bind ephemeral");
    let addr = server.local_addr().unwrap();
    let handle = server.handle();
    let runner = std::thread::spawn(move || server.run());
    let client = ServeClient::new(addr)
        .unwrap()
        .with_timeout(Duration::from_secs(2));
    assert!(client.wait_ready(Duration::from_secs(5)), "server not up");
    let flip = xtt_transducer::examples::flip().dtop.to_string();
    assert_eq!(client.put_transducer("flip", &flip).unwrap().status, 201);

    let (client, rules) = (&client, &exponential_guard_rules(18));
    std::thread::scope(|scope| {
        let uploads = ["wide_a", "wide_b"]
            .map(|name| scope.spawn(move || (name, client.put_transducer(name, rules))));
        for upload in uploads {
            let (name, resp) = upload.join().unwrap();
            let resp = resp.unwrap_or_else(|e| panic!("{name}: no answer within 2 s ({e})"));
            assert_eq!(resp.status, 201, "{name}: {}", resp.body_str());
        }
    });

    let (resp, lines) = client
        .transform("flip", "", &["root(a(#,#),b(#,#))"])
        .unwrap();
    assert_eq!(
        (resp.status, lines[0].as_str()),
        (200, "root(b(#,#),a(#,#))")
    );
    assert!(client.healthz(), "server down after the uploads");
    let stats = client.stats().unwrap().body_str();
    assert!(stats.contains("\"guards_compiled\":0"), "{stats}");

    handle.shutdown();
    runner.join().unwrap().unwrap();
}
