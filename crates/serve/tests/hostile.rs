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
