//! A minimal blocking HTTP/1.1 client for one keep-alive connection:
//! `Content-Length` requests, `Content-Length` or chunked responses. It
//! reconnects on its own when the server answers `Connection: close`
//! (the server's keep-alive limit), outside any timed request.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// How long one request may take before it counts as failed.
pub const REQUEST_TIMEOUT: Duration = Duration::from_secs(30);

pub struct Response {
    pub status: u16,
    pub headers: Vec<(String, String)>,
    pub body: Vec<u8>,
}

impl Response {
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

pub struct Conn {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    /// Bytes read past the end of the previous response.
    buf: Vec<u8>,
    head: Vec<u8>,
}

impl Conn {
    pub fn new(addr: SocketAddr) -> Conn {
        Conn {
            addr,
            stream: None,
            buf: Vec::with_capacity(64 * 1024),
            head: Vec::with_capacity(256),
        }
    }

    /// Opens the connection now if it is not open, so that a timed request
    /// never includes the TCP handshake.
    pub fn ensure_connected(&mut self) -> io::Result<()> {
        if self.stream.is_none() {
            let s = TcpStream::connect_timeout(&self.addr, REQUEST_TIMEOUT)?;
            s.set_nodelay(true)?;
            quick_ack(&s);
            s.set_read_timeout(Some(REQUEST_TIMEOUT))?;
            s.set_write_timeout(Some(REQUEST_TIMEOUT))?;
            self.stream = Some(s);
            self.buf.clear();
        }
        Ok(())
    }

    /// Sends one request and reads its whole response. Any error leaves
    /// the connection closed; the next request reconnects.
    pub fn request(&mut self, method: &str, path: &str, body: &[u8]) -> io::Result<Response> {
        self.ensure_connected()?;
        let result = self.exchange(method, path, body);
        match &result {
            Ok(resp)
                if !resp
                    .header("connection")
                    .is_some_and(|v| v.eq_ignore_ascii_case("close")) => {}
            _ => self.stream = None,
        }
        result
    }

    fn exchange(&mut self, method: &str, path: &str, body: &[u8]) -> io::Result<Response> {
        self.head.clear();
        write!(
            self.head,
            "{method} {path} HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\n\r\n",
            body.len()
        )?;
        let stream = self.stream.as_mut().expect("connected above");
        if body.len() <= 16 * 1024 {
            self.head.extend_from_slice(body);
            stream.write_all(&self.head)?;
        } else {
            stream.write_all(&self.head)?;
            stream.write_all(body)?;
        }
        let head_end = self.fill_until_head()?;
        let head = std::str::from_utf8(&self.buf[..head_end])
            .map_err(|_| bad("response head is not UTF-8"))?
            .to_owned();
        self.buf.drain(..head_end + 4);
        let mut lines = head.split("\r\n");
        let status_line = lines.next().unwrap_or("");
        let status: u16 = status_line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("bad status line"))?;
        let headers: Vec<(String, String)> = lines
            .filter_map(|l| l.split_once(':'))
            .map(|(k, v)| (k.trim().to_owned(), v.trim().to_owned()))
            .collect();
        let mut resp = Response {
            status,
            headers,
            body: Vec::new(),
        };
        if resp
            .header("transfer-encoding")
            .is_some_and(|v| v.eq_ignore_ascii_case("chunked"))
        {
            resp.body = self.read_chunked()?;
        } else {
            let len: usize = resp
                .header("content-length")
                .map(|v| v.parse().map_err(|_| bad("bad content-length")))
                .transpose()?
                .unwrap_or(0);
            self.fill_to(len)?;
            resp.body = self.buf.drain(..len).collect();
        }
        Ok(resp)
    }

    fn read_more(&mut self) -> io::Result<()> {
        let stream = self.stream.as_mut().expect("connected");
        let old = self.buf.len();
        self.buf.resize(old + 64 * 1024, 0);
        quick_ack(stream);
        let n = stream.read(&mut self.buf[old..]);
        match n {
            Ok(0) => {
                self.buf.truncate(old);
                Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed the connection",
                ))
            }
            Ok(n) => {
                self.buf.truncate(old + n);
                Ok(())
            }
            Err(e) => {
                self.buf.truncate(old);
                Err(e)
            }
        }
    }

    fn fill_to(&mut self, len: usize) -> io::Result<()> {
        while self.buf.len() < len {
            self.read_more()?;
        }
        Ok(())
    }

    fn fill_until_head(&mut self) -> io::Result<usize> {
        let mut from = 0;
        loop {
            if let Some(i) = find(&self.buf[from..], b"\r\n\r\n") {
                return Ok(from + i);
            }
            from = self.buf.len().saturating_sub(3);
            self.read_more()?;
        }
    }

    fn read_chunked(&mut self) -> io::Result<Vec<u8>> {
        let mut body = Vec::new();
        let mut pos = 0;
        loop {
            let line_end = loop {
                if let Some(i) = find(&self.buf[pos..], b"\r\n") {
                    break pos + i;
                }
                self.read_more()?;
            };
            let size_text =
                std::str::from_utf8(&self.buf[pos..line_end]).map_err(|_| bad("bad chunk size"))?;
            let size_text = size_text.split(';').next().unwrap_or("").trim();
            let size = usize::from_str_radix(size_text, 16).map_err(|_| bad("bad chunk size"))?;
            let data = line_end + 2;
            self.fill_to(data + size + 2)?;
            if size == 0 {
                // No trailers are ever sent: the terminating CRLF follows.
                self.buf.drain(..data + 2);
                return Ok(body);
            }
            body.extend_from_slice(&self.buf[data..data + size]);
            pos = data + size + 2;
            if pos > 1 << 20 {
                self.buf.drain(..pos);
                pos = 0;
            }
        }
    }
}

extern "C" {
    fn setsockopt(fd: i32, level: i32, name: i32, value: *const std::ffi::c_void, len: u32) -> i32;
}

/// Asks the kernel to acknowledge the next incoming segments at once
/// (`TCP_QUICKACK`; Linux clears it again on its own, so it is re-armed
/// before every read). The server writes a response head and its chunks
/// as separate small writes without `TCP_NODELAY`; with the client's
/// delayed ACK, Nagle's algorithm would hold each later write for the
/// 40 ms ACK timer and every latency would measure that timer instead of
/// the server.
fn quick_ack(stream: &TcpStream) {
    use std::os::fd::AsRawFd;
    const IPPROTO_TCP: i32 = 6;
    const TCP_QUICKACK: i32 = 12;
    let on: i32 = 1;
    // SAFETY: the descriptor is owned by `stream`, which outlives the call;
    // the value pointer and length describe the local `on`. A failure only
    // leaves the default ACK behaviour, so the result is ignored.
    unsafe {
        setsockopt(
            stream.as_raw_fd(),
            IPPROTO_TCP,
            TCP_QUICKACK,
            (&on as *const i32).cast(),
            std::mem::size_of::<i32>() as u32,
        );
    }
}

fn find(hay: &[u8], needle: &[u8]) -> Option<usize> {
    hay.windows(needle.len()).position(|w| w == needle)
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_owned())
}
