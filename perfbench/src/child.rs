//! The server under test as a child process: spawn with its default
//! options, scrape the port line, read its CPU time and peak RSS from
//! `/proc`, and end it with `POST /shutdown`, requiring exit status 0.

use std::io::{BufRead, BufReader, Read};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::http::Conn;

/// Clock ticks per second in `/proc/<pid>/stat` (`USER_HZ`, fixed at 100
/// by the Linux ABI).
const USER_HZ: f64 = 100.0;

/// How long a drain may take after `POST /shutdown`.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(30);

pub struct Server {
    child: Option<Child>,
    pub addr: SocketAddr,
    pub pid: u32,
    stdout: Option<JoinHandle<()>>,
    stderr: Option<JoinHandle<String>>,
}

impl Server {
    /// Starts `bin --addr 127.0.0.1:0 <extra>` and waits for its
    /// `listening on http://…` line.
    pub fn spawn(bin: &Path, extra: &[&str]) -> Result<Server, String> {
        let mut child = Command::new(bin)
            .args(["--addr", "127.0.0.1:0"])
            .args(extra)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let pid = child.id();
        let mut out = BufReader::new(child.stdout.take().expect("piped stdout"));
        let err = child.stderr.take().expect("piped stderr");
        // Keep stderr drained (the slow-request log writes there) and keep
        // its tail for diagnostics.
        let stderr = std::thread::spawn(move || {
            let mut text = String::new();
            let _ = BufReader::new(err).take(1 << 20).read_to_string(&mut text);
            text
        });
        let mut line = String::new();
        let read = out.read_line(&mut line);
        let addr = line
            .split("http://")
            .nth(1)
            .and_then(|a| a.trim().parse::<SocketAddr>().ok());
        let Some(addr) = addr else {
            let _ = child.kill();
            let _ = child.wait();
            let tail = stderr.join().unwrap_or_default();
            return Err(format!(
                "server printed no port line (read {read:?}, line {line:?}, stderr {tail:?})"
            ));
        };
        let stdout = std::thread::spawn(move || {
            let _ = std::io::copy(&mut out, &mut std::io::sink());
        });
        Ok(Server {
            child: Some(child),
            addr,
            pid,
            stdout: Some(stdout),
            stderr: Some(stderr),
        })
    }

    /// Polls `GET /healthz` until it answers `200` with `"ok":true`.
    pub fn wait_healthy(&self) -> Result<(), String> {
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut conn = Conn::new(self.addr);
        loop {
            match conn.request("GET", "/healthz", b"") {
                Ok(r) if r.status == 200 && r.text().contains("\"ok\":true") => return Ok(()),
                other if Instant::now() > deadline => {
                    return Err(format!(
                        "server never became healthy: {:?}",
                        other.map(|r| r.status)
                    ))
                }
                _ => std::thread::sleep(Duration::from_millis(2)),
            }
        }
    }

    /// User + system CPU seconds the child has used so far.
    pub fn cpu_seconds(&self) -> Result<f64, String> {
        let stat = std::fs::read_to_string(format!("/proc/{}/stat", self.pid))
            .map_err(|e| format!("cannot read /proc stat: {e}"))?;
        // Fields after the parenthesized command name; utime and stime are
        // fields 14 and 15 of the whole line.
        let rest = stat
            .rsplit_once(')')
            .map(|(_, r)| r)
            .ok_or("malformed /proc stat")?;
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let tick = |i: usize| -> Result<f64, String> {
            fields
                .get(i)
                .and_then(|v| v.parse::<f64>().ok())
                .ok_or_else(|| "malformed /proc stat".to_owned())
        };
        Ok((tick(11)? + tick(12)?) / USER_HZ)
    }

    /// Peak resident set size (`VmHWM`) in MB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid))
            .map_err(|e| format!("cannot read /proc status: {e}"))?;
        let kb: f64 = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            .ok_or("no VmHWM in /proc status")?;
        Ok(kb / 1024.0)
    }

    /// `POST /shutdown`, then waits for the drain; the run fails unless the
    /// child exits with status 0 in time.
    pub fn shutdown(mut self) -> Result<(), String> {
        let mut conn = Conn::new(self.addr);
        let answer = conn.request("POST", "/shutdown", b"");
        drop(conn);
        let mut child = self.child.take().expect("child present until shutdown");
        let deadline = Instant::now() + DRAIN_TIMEOUT;
        let status = loop {
            match child.try_wait() {
                Ok(Some(status)) => break Ok(status),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(2))
                }
                Ok(None) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    break Err("server did not drain within the deadline".to_owned());
                }
                Err(e) => break Err(format!("cannot wait for the server: {e}")),
            }
        };
        let tail = self.join_pipes();
        match (answer, status) {
            (Ok(r), Ok(s)) if r.status == 200 && s.success() => Ok(()),
            (answer, status) => Err(format!(
                "shutdown failed: answer {:?}, exit {status:?}, stderr tail {:?}",
                answer.map(|r| r.status),
                tail.chars()
                    .rev()
                    .take(400)
                    .collect::<String>()
                    .chars()
                    .rev()
                    .collect::<String>()
            )),
        }
    }

    fn join_pipes(&mut self) -> String {
        if let Some(h) = self.stdout.take() {
            let _ = h.join();
        }
        self.stderr
            .take()
            .map(|h| h.join().unwrap_or_default())
            .unwrap_or_default()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
        self.join_pipes();
    }
}
