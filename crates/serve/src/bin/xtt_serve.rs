//! `xtt-serve` — the transformation service as a process.
//!
//! ```console
//! $ xtt-serve --addr 127.0.0.1:0 --preload flip
//! xtt-serve listening on http://127.0.0.1:40123
//! ```
//!
//! `--addr …:0` picks an ephemeral port; the actual address is printed on
//! stdout (and flushed) so scripts can scrape it. SIGTERM/SIGINT or
//! `POST /shutdown` drain gracefully; the process exits 0 once the last
//! in-flight request is answered.

use std::io::Write;

use xtt_engine::{DocFormat, EvalMode};
use xtt_serve::{signal, ServeOptions, Server};
use xtt_transducer::examples;

const USAGE: &str = "\
xtt-serve: HTTP serving front end for learned tree transducers

USAGE: xtt-serve [OPTIONS]

OPTIONS:
  --addr <ip:port>        bind address (port 0 = ephemeral) [default: 127.0.0.1:7878]
  --workers <N>           request worker threads, the only
                          thread pool; each request runs on
                          one of them (0 = one per CPU)      [default: 0]
  --queue <N>             backpressure queue capacity        [default: 128]
  --cache <N>             compiled-transducer LRU capacity   [default: 8]
  --max-output <N>        per-document output-tree node bound
                          (0 = unbounded)                    [default: 10000000]
  --stream-deadline <secs>  write deadline for streamed (mode=stream)
                          responses: a client not draining its socket
                          for this long aborts the connection
                          (counted in /stats)                [default: 10]
  --stream-buffer <bytes> per-connection output buffer; a streamed
                          response backing up past half of it yields
                          its worker until the client catches up
                                                             [default: 262144]
  --mode <tree|stream>    default execution mode             [default: tree]
  --format <term|xml>     default document syntax            [default: term]
  --validate              guarded evaluation by default: out-of-domain
                          documents answer with typed violation paths
                          (per-request override: ?validate=0|1)
  --trace-sample <N>      trace 1 in N transform requests through the
                          pipeline (Server-Timing + X-Xtt-Trace-Id
                          response headers, stage breakdown in the slow
                          log; 0 disables)                   [default: 0]
  --slow-ms <ms>          slow-request log threshold: requests slower
                          than this log a structured line on stderr and
                          into the GET /slow ring (0 disables)
                                                             [default: 1000]
  --slow-us <us>          same threshold in microseconds, for smoke
                          tests that want every request captured
  --preload <names>       comma-separated built-ins to register at boot
                          (flip, library, copy)
  --help                  print this help
";

struct Args {
    addr: String,
    opts: ServeOptions,
    preload: Vec<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        addr: "127.0.0.1:7878".to_owned(),
        opts: ServeOptions::default(),
        preload: Vec::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("missing value for {name}"));
        match flag.as_str() {
            "--addr" => args.addr = value("--addr")?,
            "--workers" => {
                args.opts.workers = value("--workers")?
                    .parse()
                    .map_err(|_| "bad --workers value".to_owned())?
            }
            "--queue" => {
                args.opts.queue_capacity = value("--queue")?
                    .parse()
                    .map_err(|_| "bad --queue value".to_owned())?
            }
            "--cache" => {
                args.opts.engine.cache_capacity = value("--cache")?
                    .parse()
                    .map_err(|_| "bad --cache value".to_owned())?
            }
            "--max-output" => {
                let n: u64 = value("--max-output")?
                    .parse()
                    .map_err(|_| "bad --max-output value".to_owned())?;
                args.opts.engine.max_output_nodes = (n > 0).then_some(n);
            }
            "--stream-deadline" => {
                let secs: u64 = value("--stream-deadline")?
                    .parse()
                    .map_err(|_| "bad --stream-deadline value".to_owned())?;
                args.opts.stream_write_deadline = std::time::Duration::from_secs(secs.max(1));
            }
            "--stream-buffer" => {
                let bytes: usize = value("--stream-buffer")?
                    .parse()
                    .map_err(|_| "bad --stream-buffer value".to_owned())?;
                args.opts.stream_buffer = bytes.max(4096);
            }
            "--mode" => {
                let name = value("--mode")?;
                args.opts.engine.mode =
                    EvalMode::parse(&name).ok_or_else(|| format!("unknown mode '{name}'"))?;
            }
            "--format" => {
                let name = value("--format")?;
                args.opts.engine.format =
                    DocFormat::parse(&name).ok_or_else(|| format!("unknown format '{name}'"))?;
            }
            "--validate" => args.opts.engine.validate = true,
            "--trace-sample" => {
                args.opts.trace_sample = value("--trace-sample")?
                    .parse()
                    .map_err(|_| "bad --trace-sample value".to_owned())?
            }
            "--slow-ms" => {
                let ms: u64 = value("--slow-ms")?
                    .parse()
                    .map_err(|_| "bad --slow-ms value".to_owned())?;
                args.opts.slow_request = std::time::Duration::from_millis(ms);
            }
            "--slow-us" => {
                let us: u64 = value("--slow-us")?
                    .parse()
                    .map_err(|_| "bad --slow-us value".to_owned())?;
                args.opts.slow_request = std::time::Duration::from_micros(us);
            }
            "--preload" => {
                args.preload = value("--preload")?
                    .split(',')
                    .map(|s| s.trim().to_owned())
                    .filter(|s| !s.is_empty())
                    .collect();
            }
            "--help" | "-h" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown option '{other}'")),
        }
    }
    Ok(args)
}

fn preload(server: &Server, names: &[String]) -> Result<(), String> {
    let handle = server.handle();
    for name in names {
        let dtop = match name.as_str() {
            "flip" => examples::flip().dtop,
            "library" => examples::library().dtop,
            "copy" => examples::monadic_to_binary().dtop,
            other => return Err(format!("unknown preload '{other}'")),
        };
        let entry = handle
            .registry()
            .upload(name, &dtop.to_string())
            .map_err(|e| format!("preload {name}: {e}"))?;
        let _ = handle.engine().compiled(&entry.dtop);
        eprintln!(
            "preloaded {name} ({} states, {} rules)",
            entry.dtop.state_count(),
            entry.dtop.rule_count()
        );
    }
    Ok(())
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            std::process::exit(2);
        }
    };
    let server = match Server::bind(&args.addr, args.opts) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot bind {}: {e}", args.addr);
            std::process::exit(1);
        }
    };
    if let Err(e) = preload(&server, &args.preload) {
        eprintln!("error: {e}");
        std::process::exit(2);
    }
    let addr = server.local_addr().expect("bound listener has an address");
    println!("xtt-serve listening on http://{addr}");
    std::io::stdout().flush().expect("flush stdout");
    signal::install();
    if let Err(e) = server.run() {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
    eprintln!("xtt-serve: drained, bye");
}
