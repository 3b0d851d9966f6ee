//! Event-loop-specific integration tests: the properties the epoll
//! front end was built for. Idle keep-alive connections must cost no
//! thread (an army of them cannot starve fresh requests), a slow
//! streamed reader must yield its worker at a document boundary instead
//! of pinning it, and the SIGTERM drain of the `xtt-serve` binary must
//! survive the rebuild onto the readiness loop.
#![cfg(unix)]

use std::io::Write as _;
use std::time::{Duration, Instant};

use xtt_serve::{ServeClient, ServeOptions, Server};
use xtt_transducer::examples;

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

/// Pulls an integer counter out of the `/stats` JSON.
fn stat_u64(json: &str, key: &str) -> u64 {
    json.split(&format!("\"{key}\":"))
        .nth(1)
        .and_then(|s| s.split(|c: char| !c.is_ascii_digit()).next())
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("no {key} in {json}"))
}

/// The most a TCP send buffer autotunes to: `tcp_wmem`'s maximum (Linux
/// defaults it to 4 MiB).
fn max_send_buffer() -> usize {
    std::fs::read_to_string("/proc/sys/net/ipv4/tcp_wmem")
        .ok()
        .and_then(|s| s.split_whitespace().nth(2)?.parse().ok())
        .unwrap_or(4 << 20)
}

/// Pins `sock`'s receive buffer to `bytes` (`SO_RCVBUF`, which also stops
/// its autotuning), through `setsockopt` declared against the libc that
/// `std` links, with Linux's option numbers (the event loop is
/// Linux-only).
fn pin_receive_buffer(sock: &std::net::TcpStream, bytes: std::os::raw::c_int) {
    use std::os::raw::{c_int, c_void};
    use std::os::unix::io::AsRawFd;
    extern "C" {
        fn setsockopt(
            fd: c_int,
            level: c_int,
            name: c_int,
            value: *const c_void,
            len: u32,
        ) -> c_int;
    }
    const SOL_SOCKET: c_int = 1;
    const SO_RCVBUF: c_int = 8;
    // SAFETY: `bytes` outlives the call and `len` is its size.
    let rc = unsafe {
        setsockopt(
            sock.as_raw_fd(),
            SOL_SOCKET,
            SO_RCVBUF,
            (&bytes as *const c_int).cast(),
            std::mem::size_of::<c_int>() as u32,
        )
    };
    assert_eq!(rc, 0, "SO_RCVBUF: {}", std::io::Error::last_os_error());
}

/// Hundreds of idle keep-alive connections hold epoll registrations, not
/// threads: with only 4 workers, a fresh request still answers promptly,
/// and the `event_loop` stats block accounts for the idle army.
#[test]
fn idle_keep_alive_army_does_not_starve_fresh_requests() {
    const ARMY: usize = 500;
    let opts = ServeOptions {
        workers: 4,
        queue_capacity: 64,
        // The army must stay parked for the whole test.
        keep_alive_timeout: Duration::from_secs(60),
        ..ServeOptions::default()
    };
    let (client, runner, _handle) = boot(opts);

    // Each soldier makes one real request (so it counts as kept-alive,
    // not merely connected) and then goes silent, holding the socket.
    let mut army = Vec::with_capacity(ARMY);
    for i in 0..ARMY {
        let mut conn = std::net::TcpStream::connect(client.addr()).unwrap();
        conn.set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        conn.write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
            .unwrap();
        let resp = xtt_serve::http::read_response(&mut conn)
            .unwrap_or_else(|e| panic!("soldier {i}: {e}"));
        assert_eq!(resp.status, 200, "soldier {i}");
        army.push(conn);
    }

    // Fresh requests answer at full speed in front of the parked army.
    let started = Instant::now();
    for _ in 0..10 {
        let resp = client.request("GET", "/healthz", "").unwrap();
        assert_eq!(resp.status, 200);
    }
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_secs(2),
        "10 fresh requests took {elapsed:?} behind {ARMY} idle connections"
    );

    // The gauges see the army (updated once per tick; give it a moment).
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let json = client.stats().unwrap().body_str();
        let open = stat_u64(&json, "connections_open");
        let parked = stat_u64(&json, "parked_idle");
        if open >= ARMY as u64 && parked >= ARMY as u64 {
            assert!(stat_u64(&json, "worker_handoffs") >= ARMY as u64, "{json}");
            break;
        }
        assert!(
            Instant::now() < deadline,
            "gauges never saw the army: open={open} parked={parked}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }

    drop(army);
    client.shutdown().unwrap();
    runner.join().unwrap().unwrap();
}

/// A streamed response to a client that stops reading yields its worker
/// at a document boundary (counted in `event_loop.slow_client_yields`)
/// instead of pinning it — with a single worker, the server stays
/// responsive while the stream is parked — and the resumed response is
/// byte-identical to the batch answer.
#[test]
fn slow_stream_reader_yields_its_worker_and_resumes_correctly() {
    let opts = ServeOptions {
        workers: 1,
        queue_capacity: 64,
        // Small buffer so a few documents back it up; long deadline so
        // the parked connection survives our deliberate stall.
        stream_buffer: 16 * 1024,
        stream_write_deadline: Duration::from_secs(30),
        ..ServeOptions::default()
    };
    let (client, runner, _handle) = boot(opts);
    client
        .put_transducer("copy", &examples::monadic_to_binary().dtop.to_string())
        .unwrap();

    // Documents of ~3KB output each, each small enough to end at a
    // document boundary, and in total more than the kernel can absorb:
    // the server's send buffer at its largest, plus the client's pinned
    // receive buffer (doubled by the kernel) and its initial window. Only
    // then must the 16KB stream buffer back up, whatever the host's
    // socket-buffer autotuning does.
    const RCVBUF: i32 = 16 * 1024;
    let mut deep = String::from("e");
    for _ in 0..9 {
        deep = format!("f({deep})");
    }
    let (_, one) = client.transform("copy", "", &[deep.as_str()]).unwrap();
    let per_doc = one[0].len() + 1;
    let absorbable = max_send_buffer() + 2 * RCVBUF as usize + 256 * 1024;
    let docs: Vec<&str> = vec![deep.as_str(); absorbable / per_doc + 1];
    let (batch_resp, expected) = client.transform("copy", "", &docs).unwrap();
    assert_eq!(batch_resp.status, 200);

    let body = format!("{}\n", docs.join("\n"));
    let mut raw = std::net::TcpStream::connect(client.addr()).unwrap();
    pin_receive_buffer(&raw, RCVBUF);
    raw.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
    let head = format!(
        "POST /transform/copy?mode=stream HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    raw.write_all(head.as_bytes()).unwrap();
    raw.write_all(body.as_bytes()).unwrap();
    raw.flush().unwrap();

    // Stall without reading: the single worker must yield — these stats
    // requests only get answered at all if it did.
    let deadline = Instant::now() + Duration::from_secs(15);
    loop {
        let json = client.stats().unwrap().body_str();
        if stat_u64(&json, "slow_client_yields") >= 1 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "stream never yielded its worker: {json}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }

    // Start reading: the parked job resumes and completes, and the
    // streamed bytes match the batch answer document for document.
    let resp = xtt_serve::http::read_response(&mut raw).unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(resp.header("x-xtt-streamed"), Some("1"));
    let streamed_body = resp.body_str();
    let streamed: Vec<&str> = streamed_body.lines().collect();
    assert_eq!(streamed.len(), expected.len());
    for (i, (got, want)) in streamed.iter().zip(&expected).enumerate() {
        assert_eq!(got, want, "document {i} diverged after the yield");
    }

    let json = client.stats().unwrap().body_str();
    assert_eq!(stat_u64(&json, "write_timeouts"), 0, "{json}");

    client.shutdown().unwrap();
    runner.join().unwrap().unwrap();
}

/// SIGTERM regression under the event loop: the binary drains in-flight
/// work, says goodbye on stderr, and exits 0.
#[test]
fn sigterm_drains_the_binary_gracefully() {
    use std::io::{BufRead, BufReader, Read};
    use std::process::{Command, Stdio};

    let mut child = Command::new(env!("CARGO_BIN_EXE_xtt-serve"))
        .args([
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "2",
            "--preload",
            "flip",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn xtt-serve");
    let mut stdout = BufReader::new(child.stdout.take().unwrap());
    let mut banner = String::new();
    stdout.read_line(&mut banner).unwrap();
    let addr = banner
        .trim()
        .rsplit("http://")
        .next()
        .expect("address in banner")
        .to_owned();

    let client = ServeClient::new(addr.as_str())
        .unwrap()
        .with_timeout(Duration::from_secs(10));
    assert!(client.wait_ready(Duration::from_secs(5)), "binary not up");

    // A slow-ish batch in flight when the signal lands.
    let worker = {
        let docs: Vec<String> = (0..2000)
            .map(|i| examples::flip_input(i % 5, i % 3).to_string())
            .collect();
        let client = ServeClient::new(addr.as_str())
            .unwrap()
            .with_timeout(Duration::from_secs(10));
        std::thread::spawn(move || {
            let doc_refs: Vec<&str> = docs.iter().map(String::as_str).collect();
            client.transform("flip", "", &doc_refs)
        })
    };
    std::thread::sleep(Duration::from_millis(30));

    let status = Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .unwrap();
    assert!(status.success(), "kill -TERM failed");

    // In-flight work either drains to a complete answer or was turned
    // away whole — never a torn response.
    match worker.join().unwrap() {
        Ok((resp, lines)) if resp.status == 200 => assert_eq!(lines.len(), 2000),
        Ok((resp, _)) => assert_eq!(resp.status, 503),
        Err(_) => {}
    }

    let deadline = Instant::now() + Duration::from_secs(15);
    let exit = loop {
        if let Some(exit) = child.try_wait().unwrap() {
            break exit;
        }
        if Instant::now() > deadline {
            let _ = child.kill();
            panic!("binary did not exit after SIGTERM");
        }
        std::thread::sleep(Duration::from_millis(50));
    };
    assert!(exit.success(), "exit status {exit:?}");
    let mut stderr = String::new();
    child
        .stderr
        .take()
        .unwrap()
        .read_to_string(&mut stderr)
        .unwrap();
    assert!(stderr.contains("drained, bye"), "stderr: {stderr}");
}
