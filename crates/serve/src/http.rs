//! A hand-rolled HTTP/1.1 layer: exactly what the server needs, nothing
//! more. Requests carry bodies via `Content-Length` or
//! `Transfer-Encoding: chunked` (decoded with the same size cap, so
//! clients can stream uploads); responses are written either with
//! `Content-Length` or chunked (the transform endpoint streams one chunk
//! per document — in `mode=stream`, one chunk per flushed output
//! prefix). Connections are **keep-alive** by default (HTTP/1.1
//! semantics): the server answers multiple requests per connection until
//! the client says `Connection: close`, the idle timeout passes, or the
//! per-connection request limit is reached — every response carries an
//! explicit `Connection:` header, so the accounting stays exact.
//!
//! The workspace policy is to implement substrates rather than pull
//! dependencies — the environment is fully offline, so hyper/tokio are
//! not an option anyway.

use std::fmt;
use std::io::{self, Read, Write};

/// Cap on the request line + headers.
const MAX_HEAD: usize = 16 * 1024;

/// Errors while reading a request or response.
#[derive(Debug)]
pub enum HttpError {
    Io(io::Error),
    /// The peer closed the connection cleanly before sending any bytes
    /// of the next request — the normal end of a keep-alive connection.
    Closed,
    /// Syntactically broken request (maps to `400`).
    Malformed(String),
    /// Head or body over the configured limit (maps to `431`/`413`).
    TooLarge(&'static str),
    /// A feature this server deliberately does not speak (maps to `501`).
    Unsupported(&'static str),
}

impl fmt::Display for HttpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HttpError::Io(e) => write!(f, "i/o error: {e}"),
            HttpError::Closed => write!(f, "connection closed"),
            HttpError::Malformed(m) => write!(f, "malformed request: {m}"),
            HttpError::TooLarge(w) => write!(f, "{w} too large"),
            HttpError::Unsupported(w) => write!(f, "unsupported: {w}"),
        }
    }
}

impl std::error::Error for HttpError {}

impl From<io::Error> for HttpError {
    fn from(e: io::Error) -> HttpError {
        HttpError::Io(e)
    }
}

/// A parsed request.
#[derive(Debug, Clone)]
pub struct Request {
    pub method: String,
    /// True for HTTP/1.1 (keep-alive by default), false for HTTP/1.0.
    pub http11: bool,
    /// Percent-decoded path, without the query string.
    pub path: String,
    /// Percent-decoded `key=value` pairs, in order.
    pub query: Vec<(String, String)>,
    /// Header `(name, value)` pairs; names lowercased.
    pub headers: Vec<(String, String)>,
    pub body: Vec<u8>,
}

impl Request {
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    pub fn body_str(&self) -> Result<&str, HttpError> {
        std::str::from_utf8(&self.body)
            .map_err(|_| HttpError::Malformed("body is not valid UTF-8".into()))
    }

    /// HTTP/1.1 keep-alive semantics: persistent unless the client says
    /// `Connection: close`; HTTP/1.0 only with an explicit keep-alive.
    pub fn keep_alive(&self) -> bool {
        match self.header("connection") {
            Some(v) if v.eq_ignore_ascii_case("close") => false,
            Some(v) if v.eq_ignore_ascii_case("keep-alive") => true,
            _ => self.http11,
        }
    }
}

/// Attempts to parse one complete request out of `buf` without blocking.
///
/// Returns `Ok(None)` while the bytes so far are a valid *prefix* of a
/// request (more must arrive), `Ok(Some((request, consumed)))` once one
/// is complete — `consumed` is how many bytes of `buf` it spanned; the
/// remainder belongs to the next pipelined request — and `Err` as soon
/// as the prefix can never become a valid request (oversized head,
/// `Content-Length` beyond `max_body`, syntax errors).
///
/// `scan_from` is the caller's cursor into `buf` for the head-terminator
/// search: the parser resumes the `\r\n\r\n` scan there instead of from
/// byte zero, so feeding a large body in small reads stays linear.
/// Start it at `0` for a fresh buffer and keep passing the same variable
/// while the buffer grows; reset it to `0` whenever consumed bytes are
/// drained from the front.
pub fn try_parse_request(
    buf: &[u8],
    max_body: usize,
    scan_from: &mut usize,
) -> Result<Option<(Request, usize)>, HttpError> {
    // The resumed scan backs up 3 bytes so a terminator straddling the
    // previous end of buffer is still seen.
    let window = scan_from.saturating_sub(3).min(buf.len());
    let pos = match find_subsequence(&buf[window..], b"\r\n\r\n") {
        Some(p) => window + p,
        None => {
            *scan_from = buf.len();
            if buf.len() > MAX_HEAD {
                return Err(HttpError::TooLarge("request head"));
            }
            return Ok(None);
        }
    };
    // Pin the cursor to the terminator: repeat calls while the body
    // trickles in re-find it immediately instead of rescanning the head.
    *scan_from = pos;
    if pos > MAX_HEAD {
        return Err(HttpError::TooLarge("request head"));
    }
    let body_start = pos + 4;

    let head = std::str::from_utf8(&buf[..pos])
        .map_err(|_| HttpError::Malformed("head is not valid UTF-8".into()))?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or_default();
    let mut parts = request_line.split(' ');
    let method = parts
        .next()
        .filter(|m| !m.is_empty())
        .ok_or_else(|| HttpError::Malformed("empty request line".into()))?
        .to_owned();
    let target = parts
        .next()
        .ok_or_else(|| HttpError::Malformed("missing request target".into()))?;
    let version = parts
        .next()
        .ok_or_else(|| HttpError::Malformed("missing HTTP version".into()))?;
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::Unsupported("HTTP version"));
    }
    let http11 = version != "HTTP/1.0";

    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| HttpError::Malformed(format!("bad header line: {line}")))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_owned()));
    }
    let header = |name: &str| {
        headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    };
    let (body, consumed) = match header("transfer-encoding") {
        Some(te) if te.eq_ignore_ascii_case("chunked") => {
            // A streamed upload: decode the chunked framing, capping the
            // *decoded* size at the same bound as Content-Length bodies.
            // Bytes past the terminator belong to the next pipelined
            // request on the connection.
            match decode_chunked_slice(&buf[body_start..], Some(max_body))? {
                None => return Ok(None),
                Some((body, used)) => (body, body_start + used),
            }
        }
        Some(_) => {
            return Err(HttpError::Unsupported(
                "transfer encodings other than chunked",
            ))
        }
        None => {
            let content_length: usize = match header("content-length") {
                None => 0,
                Some(v) => v
                    .parse()
                    .map_err(|_| HttpError::Malformed(format!("bad Content-Length: {v}")))?,
            };
            if content_length > max_body {
                return Err(HttpError::TooLarge("body"));
            }
            if buf.len() - body_start < content_length {
                return Ok(None);
            }
            (
                buf[body_start..body_start + content_length].to_vec(),
                body_start + content_length,
            )
        }
    };

    let (path, query) = match target.split_once('?') {
        None => (percent_decode(target), Vec::new()),
        Some((p, q)) => (percent_decode(p), parse_query(q)),
    };
    Ok(Some((
        Request {
            method,
            http11,
            path,
            query,
            headers,
            body,
        },
        consumed,
    )))
}

/// Decodes a chunked body from a byte slice: `Ok(None)` while the
/// framing is incomplete, `Ok(Some((body, consumed)))` once the
/// terminator (and trailer section) is in. The cap applies to the
/// *decoded* size, same as the streaming decoder.
fn decode_chunked_slice(
    buf: &[u8],
    cap: Option<usize>,
) -> Result<Option<(Vec<u8>, usize)>, HttpError> {
    let mut out = Vec::new();
    let mut i = 0;
    loop {
        let line_end = match find_subsequence(&buf[i..], b"\r\n") {
            Some(p) => i + p,
            None => return Ok(None),
        };
        let line = String::from_utf8_lossy(&buf[i..line_end]);
        let size_str = line.split(';').next().unwrap_or_default().trim();
        let size = usize::from_str_radix(size_str, 16)
            .map_err(|_| HttpError::Malformed(format!("bad chunk size: {size_str}")))?;
        if size > MAX_CHUNK {
            return Err(HttpError::Malformed(format!(
                "chunk size {size} exceeds the {MAX_CHUNK}-byte cap"
            )));
        }
        i = line_end + 2;
        if size == 0 {
            // Trailer section: zero or more header lines, then CRLF.
            loop {
                let trailer_end = match find_subsequence(&buf[i..], b"\r\n") {
                    Some(p) => i + p,
                    None => return Ok(None),
                };
                let empty = trailer_end == i;
                i = trailer_end + 2;
                if empty {
                    return Ok(Some((out, i)));
                }
            }
        }
        if cap.is_some_and(|max| out.len() + size > max) {
            return Err(HttpError::TooLarge("body"));
        }
        if buf.len() < i + size + 2 {
            return Ok(None);
        }
        out.extend_from_slice(&buf[i..i + size]);
        i += size + 2; // chunk data + CRLF
    }
}

/// Reads up to and including the `\r\n\r\n` head terminator; returns the
/// head bytes (terminator stripped) and any body bytes read past it.
fn read_head_carry(
    stream: &mut dyn Read,
    carried: Vec<u8>,
) -> Result<(Vec<u8>, Vec<u8>), HttpError> {
    let mut buf = carried;
    loop {
        if let Some(pos) = find_subsequence(&buf, b"\r\n\r\n") {
            let rest = buf.split_off(pos + 4);
            buf.truncate(pos);
            return Ok((buf, rest));
        }
        if buf.len() > MAX_HEAD {
            return Err(HttpError::TooLarge("request head"));
        }
        let mut chunk = [0u8; 2048];
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            if buf.is_empty() {
                // Clean close between requests (keep-alive end).
                return Err(HttpError::Closed);
            }
            return Err(HttpError::Malformed(
                "connection closed before the end of the headers".into(),
            ));
        }
        buf.extend_from_slice(&chunk[..n]);
    }
}

fn find_subsequence(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack
        .windows(needle.len())
        .position(|window| window == needle)
}

fn parse_query(q: &str) -> Vec<(String, String)> {
    q.split('&')
        .filter(|kv| !kv.is_empty())
        .map(|kv| match kv.split_once('=') {
            Some((k, v)) => (percent_decode(k), percent_decode(v)),
            None => (percent_decode(kv), String::new()),
        })
        .collect()
}

/// Minimal percent-decoding (`%XX`; `+`-as-space is *not* applied —
/// transducer names and modes never contain spaces).
pub fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut decoded = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' && i + 2 < bytes.len() {
            if let (Some(hi), Some(lo)) = (hex_val(bytes[i + 1]), hex_val(bytes[i + 2])) {
                decoded.push(hi * 16 + lo);
                i += 3;
                continue;
            }
        }
        decoded.push(bytes[i]);
        i += 1;
    }
    String::from_utf8_lossy(&decoded).into_owned()
}

fn hex_val(b: u8) -> Option<u8> {
    match b {
        b'0'..=b'9' => Some(b - b'0'),
        b'a'..=b'f' => Some(b - b'a' + 10),
        b'A'..=b'F' => Some(b - b'A' + 10),
        _ => None,
    }
}

/// The reason phrase for the handful of status codes the server uses.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        204 => "No Content",
        207 => "Multi-Status",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

fn connection_header(keep_alive: bool) -> &'static str {
    if keep_alive {
        "keep-alive"
    } else {
        "close"
    }
}

/// Writes a complete `Content-Length` response, closing the connection.
pub fn write_response(
    stream: &mut dyn Write,
    status: u16,
    content_type: &str,
    extra_headers: &[(&str, String)],
    body: &[u8],
) -> io::Result<()> {
    write_response_conn(stream, status, content_type, extra_headers, body, false)
}

/// Writes a complete `Content-Length` response with an explicit
/// `Connection:` disposition.
pub fn write_response_conn(
    stream: &mut dyn Write,
    status: u16,
    content_type: &str,
    extra_headers: &[(&str, String)],
    body: &[u8],
    keep_alive: bool,
) -> io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {status} {}\r\nConnection: {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\n",
        reason(status),
        connection_header(keep_alive),
        body.len()
    );
    for (name, value) in extra_headers {
        head.extend([*name, ": ", value, "\r\n"]);
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    stream.flush()
}

/// A chunked-transfer response in progress (one [`ChunkedWriter::chunk`]
/// call per document on the transform endpoint).
pub struct ChunkedWriter<'a> {
    stream: &'a mut dyn Write,
}

impl<'a> ChunkedWriter<'a> {
    /// Writes the response head and switches the body to chunked framing.
    pub fn start(
        stream: &'a mut dyn Write,
        status: u16,
        content_type: &str,
        extra_headers: &[(&str, String)],
    ) -> io::Result<ChunkedWriter<'a>> {
        ChunkedWriter::start_conn(stream, status, content_type, extra_headers, false)
    }

    /// [`ChunkedWriter::start`] with an explicit `Connection:`
    /// disposition (chunked framing delimits the body, so keep-alive
    /// works for streamed responses too).
    pub fn start_conn(
        stream: &'a mut dyn Write,
        status: u16,
        content_type: &str,
        extra_headers: &[(&str, String)],
        keep_alive: bool,
    ) -> io::Result<ChunkedWriter<'a>> {
        let mut head = format!(
            "HTTP/1.1 {status} {}\r\nConnection: {}\r\nContent-Type: {content_type}\r\nTransfer-Encoding: chunked\r\n",
            reason(status),
            connection_header(keep_alive)
        );
        for (name, value) in extra_headers {
            head.extend([*name, ": ", value, "\r\n"]);
        }
        head.push_str("\r\n");
        stream.write_all(head.as_bytes())?;
        Ok(ChunkedWriter { stream })
    }

    /// Continues a chunked body whose head was already written — a
    /// stream job resumed on another worker after yielding mid-response
    /// picks up the framing where it left off.
    pub fn resume(stream: &'a mut dyn Write) -> ChunkedWriter<'a> {
        ChunkedWriter { stream }
    }

    pub fn chunk(&mut self, data: &[u8]) -> io::Result<()> {
        if data.is_empty() {
            return Ok(()); // an empty chunk would terminate the body
        }
        write!(self.stream, "{:x}\r\n", data.len())?;
        self.stream.write_all(data)?;
        self.stream.write_all(b"\r\n")
    }

    pub fn finish(self) -> io::Result<()> {
        self.stream.write_all(b"0\r\n\r\n")?;
        self.stream.flush()
    }
}

/// Streamed responses (`mode=stream`) hand the writer straight to the
/// engine as an output byte sink: every `write` becomes one chunk on the
/// wire and `flush` pushes it to the socket, so committed output
/// prefixes reach the client while the document is still being read.
impl Write for ChunkedWriter<'_> {
    fn write(&mut self, data: &[u8]) -> io::Result<usize> {
        self.chunk(data)?;
        Ok(data.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        self.stream.flush()
    }
}

/// A response as read back by the client: status, headers, decoded body.
#[derive(Debug, Clone)]
pub struct Response {
    pub status: u16,
    pub headers: Vec<(String, String)>,
    pub body: Vec<u8>,
}

impl Response {
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    pub fn body_str(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// Reads a full response (Content-Length, chunked, or read-to-EOF).
pub fn read_response(stream: &mut dyn Read) -> Result<Response, HttpError> {
    let mut carry = Vec::new();
    read_response_carry(stream, &mut carry)
}

/// [`read_response`] for pipelined connections: bytes read past the end
/// of this response (the start of the next one, when the server answers
/// back-to-back) are preserved in `carry` and consumed first on the next
/// call.
pub fn read_response_carry(
    stream: &mut dyn Read,
    carry: &mut Vec<u8>,
) -> Result<Response, HttpError> {
    let (head, leftover) = read_head_carry(stream, std::mem::take(carry))?;
    let head = String::from_utf8(head)
        .map_err(|_| HttpError::Malformed("head is not valid UTF-8".into()))?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or_default();
    let status: u16 = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| HttpError::Malformed(format!("bad status line: {status_line}")))?;
    let mut headers = Vec::new();
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            headers.push((name.trim().to_ascii_lowercase(), value.trim().to_owned()));
        }
    }
    let find = |name: &str| {
        headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    };
    let mut rest = leftover;
    let body = if find("transfer-encoding").is_some_and(|v| v.eq_ignore_ascii_case("chunked")) {
        let body = decode_chunked(stream, &mut rest)?;
        *carry = rest;
        body
    } else if let Some(len) = find("content-length") {
        let len: usize = len
            .parse()
            .map_err(|_| HttpError::Malformed("bad Content-Length".into()))?;
        while rest.len() < len {
            let mut buf = [0u8; 8192];
            let n = stream.read(&mut buf)?;
            if n == 0 {
                return Err(HttpError::Malformed("connection closed mid-body".into()));
            }
            rest.extend_from_slice(&buf[..n]);
        }
        let mut body = rest;
        *carry = body.split_off(len);
        body
    } else {
        // Read to EOF.
        let mut buf = Vec::new();
        stream.read_to_end(&mut buf)?;
        rest.extend_from_slice(&buf);
        rest
    };
    Ok(Response {
        status,
        headers,
        body,
    })
}

/// Largest chunk a client will buffer; a bigger size line is treated as
/// a corrupt peer rather than an allocation request.
const MAX_CHUNK: usize = 1 << 30;

/// Decodes a chunked response body; `rest` holds bytes already read past
/// the head. Only absurd single-chunk size lines are refused. Trailer
/// fields after the last chunk are consumed and discarded; bytes past
/// the terminator stay in `rest`.
fn decode_chunked(stream: &mut dyn Read, rest: &mut Vec<u8>) -> Result<Vec<u8>, HttpError> {
    let mut out = Vec::new();
    loop {
        let line = read_line(stream, rest)?;
        let size_str = line.split(';').next().unwrap_or_default().trim();
        let size = usize::from_str_radix(size_str, 16)
            .map_err(|_| HttpError::Malformed(format!("bad chunk size: {size_str}")))?;
        if size > MAX_CHUNK {
            return Err(HttpError::Malformed(format!(
                "chunk size {size} exceeds the {MAX_CHUNK}-byte cap"
            )));
        }
        if size == 0 {
            // Trailer section: zero or more header lines, then CRLF.
            loop {
                if read_line(stream, rest)?.is_empty() {
                    return Ok(out);
                }
            }
        }
        while rest.len() < size + 2 {
            let mut buf = [0u8; 8192];
            let n = stream.read(&mut buf)?;
            if n == 0 {
                return Err(HttpError::Malformed("connection closed mid-chunk".into()));
            }
            rest.extend_from_slice(&buf[..n]);
        }
        out.extend_from_slice(&rest[..size]);
        rest.drain(..size + 2); // chunk data + CRLF
    }
}

/// Reads one CRLF-terminated line out of `rest`, refilling from the stream.
fn read_line(stream: &mut dyn Read, rest: &mut Vec<u8>) -> Result<String, HttpError> {
    loop {
        if let Some(pos) = find_subsequence(rest, b"\r\n") {
            let line = String::from_utf8_lossy(&rest[..pos]).into_owned();
            rest.drain(..pos + 2);
            return Ok(line);
        }
        let mut buf = [0u8; 1024];
        let n = stream.read(&mut buf)?;
        if n == 0 {
            return Err(HttpError::Malformed("connection closed mid-line".into()));
        }
        rest.extend_from_slice(&buf[..n]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One complete request parsed out of the front of `raw`, and the
    /// bytes left behind it (the next pipelined request).
    fn parse(raw: &[u8], max_body: usize) -> Result<(Request, &[u8]), HttpError> {
        let (req, used) = try_parse_request(raw, max_body, &mut 0)?.expect("complete request");
        Ok((req, &raw[used..]))
    }

    #[test]
    fn parses_a_put_with_body() {
        let raw =
            b"PUT /transducers/flip?learn=1 HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\r\nhello";
        let (req, _) = parse(raw, 1024).unwrap();
        assert_eq!(req.method, "PUT");
        assert_eq!(req.path, "/transducers/flip");
        assert_eq!(req.query_param("learn"), Some("1"));
        assert_eq!(req.body, b"hello");
    }

    #[test]
    fn percent_decoding_applies_to_path_and_query() {
        let raw = b"GET /transducers/my%2dname?mode=tree&x=a%20b HTTP/1.1\r\n\r\n";
        let (req, _) = parse(raw, 1024).unwrap();
        assert_eq!(req.path, "/transducers/my-name");
        assert_eq!(req.query_param("x"), Some("a b"));
    }

    #[test]
    fn pipelined_requests_carry_over() {
        // Two requests in one buffer: the bytes past the first body are
        // not a protocol error — they seed the next read.
        let raw = b"POST /a HTTP/1.1\r\nContent-Length: 2\r\n\r\nhiGET /b HTTP/1.1\r\n\r\n";
        let (first, carry) = parse(raw, 1024).unwrap();
        assert_eq!(
            (first.path.as_str(), first.body.as_slice()),
            ("/a", &b"hi"[..])
        );
        assert!(!carry.is_empty(), "second request must be carried over");
        let (second, carry) = parse(carry, 1024).unwrap();
        assert_eq!(second.path, "/b");
        assert!(carry.is_empty());
    }

    #[test]
    fn decodes_chunked_request_bodies() {
        // Two chunks, a trailer field, and a pipelined request behind the
        // terminator: the body is reassembled and the next request is
        // carried over exactly like a Content-Length one.
        let raw = b"POST /t HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n\
                    5\r\nhello\r\n6\r\n world\r\n0\r\nX-Trailer: 1\r\n\r\n\
                    GET /b HTTP/1.1\r\n\r\n";
        let (req, carry) = parse(raw, 1024).unwrap();
        assert_eq!(req.body, b"hello world");
        let (second, _) = parse(carry, 1024).unwrap();
        assert_eq!(second.path, "/b");
    }

    #[test]
    fn rejects_oversized_bodies_chunked_or_not() {
        let raw = b"POST /t HTTP/1.1\r\nContent-Length: 2048\r\n\r\n";
        assert!(matches!(parse(raw, 1024), Err(HttpError::TooLarge(_))));
        // The cap applies to the *decoded* chunked size too.
        let mut raw = b"POST /t HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n".to_vec();
        for _ in 0..3 {
            raw.extend_from_slice(b"200\r\n");
            raw.extend_from_slice(&[b'x'; 0x200]);
            raw.extend_from_slice(b"\r\n");
        }
        raw.extend_from_slice(b"0\r\n\r\n");
        assert!(matches!(parse(&raw, 1024), Err(HttpError::TooLarge(_))));
        // Exotic transfer encodings are still refused outright.
        let raw = b"POST /t HTTP/1.1\r\nTransfer-Encoding: gzip\r\n\r\n";
        assert!(matches!(parse(raw, 1024), Err(HttpError::Unsupported(_))));
    }

    #[test]
    fn try_parse_reports_incomplete_prefixes_then_the_request() {
        let raw = b"POST /a HTTP/1.1\r\nContent-Length: 4\r\n\r\nbodyGET /b HTTP/1.1\r\n\r\n";
        let mut scan = 0;
        // Feed the bytes in growing prefixes: every proper prefix of the
        // first request parses to None, the full span to Some.
        let full = b"POST /a HTTP/1.1\r\nContent-Length: 4\r\n\r\nbody".len();
        for cut in 0..full {
            assert!(
                try_parse_request(&raw[..cut], 1024, &mut scan)
                    .unwrap()
                    .is_none(),
                "prefix of {cut} bytes must be incomplete"
            );
        }
        let (req, consumed) = try_parse_request(raw, 1024, &mut scan).unwrap().unwrap();
        assert_eq!(
            (req.path.as_str(), req.body.as_slice()),
            ("/a", &b"body"[..])
        );
        assert_eq!(consumed, full);
        // The remainder is the next pipelined request.
        let mut scan = 0;
        let (second, consumed2) = try_parse_request(&raw[consumed..], 1024, &mut scan)
            .unwrap()
            .unwrap();
        assert_eq!(second.path, "/b");
        assert_eq!(consumed + consumed2, raw.len());
    }

    #[test]
    fn try_parse_handles_incremental_chunked_bodies() {
        let raw = b"POST /t HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n\
                    5\r\nhello\r\n6\r\n world\r\n0\r\n\r\n";
        let mut scan = 0;
        for cut in 0..raw.len() {
            assert!(
                try_parse_request(&raw[..cut], 1024, &mut scan)
                    .unwrap()
                    .is_none(),
                "prefix of {cut} bytes must be incomplete"
            );
        }
        let (req, consumed) = try_parse_request(raw, 1024, &mut scan).unwrap().unwrap();
        assert_eq!(req.body, b"hello world");
        assert_eq!(consumed, raw.len());
    }

    #[test]
    fn try_parse_rejects_hopeless_prefixes_early() {
        // An oversized Content-Length is refused at the head, before any
        // body bytes arrive.
        let raw = b"POST /t HTTP/1.1\r\nContent-Length: 2048\r\n\r\n";
        let mut scan = 0;
        assert!(matches!(
            try_parse_request(raw, 1024, &mut scan),
            Err(HttpError::TooLarge("body"))
        ));
        // A head that can never terminate under the cap is refused too.
        let huge = vec![b'x'; MAX_HEAD + 2];
        let mut scan = 0;
        assert!(matches!(
            try_parse_request(&huge, 1024, &mut scan),
            Err(HttpError::TooLarge("request head"))
        ));
    }

    #[test]
    fn content_length_response_roundtrips() {
        let mut wire = Vec::new();
        write_response(
            &mut wire,
            200,
            "text/plain",
            &[("X-Extra", "1".into())],
            b"hi",
        )
        .unwrap();
        let resp = read_response(&mut &wire[..]).unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.header("x-extra"), Some("1"));
        assert_eq!(resp.body, b"hi");
    }

    #[test]
    fn chunked_response_roundtrips() {
        let mut wire = Vec::new();
        {
            let mut w = ChunkedWriter::start(&mut wire, 207, "text/plain", &[]).unwrap();
            w.chunk(b"line one\n").unwrap();
            w.chunk(b"").unwrap(); // ignored, must not terminate
            w.chunk(b"line two\n").unwrap();
            w.finish().unwrap();
        }
        let resp = read_response(&mut &wire[..]).unwrap();
        assert_eq!(resp.status, 207);
        assert_eq!(resp.body_str(), "line one\nline two\n");
    }

    /// Back-to-back responses on one connection (pipelining): bytes read
    /// past the first response must carry into the next parse.
    #[test]
    fn pipelined_responses_carry_over() {
        let mut wire = Vec::new();
        write_response_conn(&mut wire, 200, "text/plain", &[], b"first", true).unwrap();
        {
            let mut w = ChunkedWriter::start(&mut wire, 200, "text/plain", &[]).unwrap();
            w.chunk(b"second").unwrap();
            w.finish().unwrap();
        }
        write_response_conn(&mut wire, 200, "text/plain", &[], b"third", false).unwrap();

        let mut stream = &wire[..];
        let mut carry = Vec::new();
        for expect in ["first", "second", "third"] {
            let resp = read_response_carry(&mut stream, &mut carry).unwrap();
            assert_eq!(resp.status, 200);
            assert_eq!(resp.body_str(), expect);
        }
        assert!(carry.is_empty());
    }
}
