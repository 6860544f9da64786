//! A minimal HTTP/1.1 layer over blocking streams.
//!
//! Just enough of the protocol for the exploration server and its clients:
//! request/response lines, headers, `Content-Length`-bounded bodies, and
//! keep-alive. A request body always carries its length (a chunked request
//! is refused, so requests stay bounded and their parser simple), and so
//! does every response this crate writes; a response read from a peer may
//! instead stream as `Transfer-Encoding: chunked`, whose parts a reader
//! takes as they arrive ([`read_response_with`]) or joined
//! ([`read_response`]).
//!
//! Everything is parsed defensively: line-length and header-count caps, a
//! body-size cap that bounds every chunk and their running total before
//! anything is allocated, a length that must be plain digits, no message
//! whose headers frame its body two ways, and explicit error variants so the
//! connection loop can answer `400`/`413` instead of dying.

use crate::wire::Json;
use std::io::{self, BufRead, Write};
use std::time::Instant;

/// The request header carrying the caller's total time budget in
/// milliseconds. The server anchors it at admission time; the coordinator
/// forwards the remaining budget to the shards under the same name.
/// Header-name comparison is case-insensitive, as HTTP requires.
pub const DEADLINE_HEADER: &str = "x-atlas-deadline-ms";

/// Distributed-trace propagation header: the coordinator's trace id, sent on
/// every shard call so a shard can label its own spans with the originating
/// trace and return them for reassembly into one tree.
pub const TRACE_HEADER: &str = "x-atlas-trace-id";

/// Upper bound on one request/status/header line, in bytes.
const MAX_LINE_BYTES: usize = 8 * 1024;
/// Upper bound on the number of headers per message.
const MAX_HEADERS: usize = 64;

/// A parsed HTTP request.
#[derive(Debug, Clone)]
pub struct Request {
    /// The method, upper-cased (`GET`, `POST`, …).
    pub method: String,
    /// The path, query string included if one was sent.
    pub path: String,
    /// Header `(name, value)` pairs in arrival order; names are lower-cased.
    pub headers: Vec<(String, String)>,
    /// The request body (empty when no `Content-Length` was sent).
    pub body: Vec<u8>,
}

impl Request {
    /// The value of a header (name compared case-insensitively).
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the client asked to keep the connection open (HTTP/1.1
    /// defaults to keep-alive unless `Connection: close` is sent).
    pub fn wants_keep_alive(&self) -> bool {
        !matches!(self.header("connection"), Some(v) if v.eq_ignore_ascii_case("close"))
    }

    /// The path split on `/`, empty segments dropped, query string stripped:
    /// `/sessions/abc/explore?x=1` → `["sessions", "abc", "explore"]`.
    pub fn path_segments(&self) -> Vec<&str> {
        let path = self.path.split('?').next().unwrap_or("");
        path.split('/').filter(|s| !s.is_empty()).collect()
    }

    /// The body as UTF-8 text, if it is valid UTF-8.
    pub fn body_text(&self) -> Option<&str> {
        std::str::from_utf8(&self.body).ok()
    }

    /// The value of a query-string parameter:
    /// `/explore?trace=1` → `query_param("trace") == Some("1")`.
    /// A bare flag (`?trace`) yields `Some("")`.
    pub fn query_param(&self, name: &str) -> Option<&str> {
        let query = self.path.split_once('?')?.1;
        query.split('&').find_map(|pair| {
            let (key, value) = pair.split_once('=').unwrap_or((pair, ""));
            (key == name).then_some(value)
        })
    }
}

/// Why reading a request (or response) failed.
#[derive(Debug)]
pub enum HttpError {
    /// The peer closed the connection before sending anything.
    Closed,
    /// The read timed out with no bytes available (an idle keep-alive
    /// connection; the caller decides whether to wait more or hang up).
    Idle,
    /// The message violates the protocol (answer 400 and close).
    Malformed(String),
    /// The declared body exceeds the configured cap (answer 413 and close).
    BodyTooLarge {
        /// The configured body cap in bytes.
        limit: usize,
    },
    /// An underlying I/O error mid-message.
    Io(io::Error),
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Closed => f.write_str("connection closed"),
            HttpError::Idle => f.write_str("connection idle"),
            HttpError::Malformed(m) => write!(f, "malformed message: {m}"),
            HttpError::BodyTooLarge { limit } => {
                write!(f, "body exceeds the {limit}-byte limit")
            }
            HttpError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for HttpError {}

fn io_error(e: io::Error) -> HttpError {
    match e.kind() {
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => HttpError::Idle,
        io::ErrorKind::UnexpectedEof
        | io::ErrorKind::ConnectionReset
        | io::ErrorKind::ConnectionAborted
        | io::ErrorKind::BrokenPipe => HttpError::Closed,
        _ => HttpError::Io(e),
    }
}

/// Block until at least one byte is buffered, without consuming it.
///
/// Distinguishes the three states the keep-alive loop cares about: data ready
/// (`Ok`), peer gone ([`HttpError::Closed`]), or read timeout with nothing
/// buffered ([`HttpError::Idle`] — the caller can poll its shutdown flag and
/// try again).
pub fn wait_for_data<R: BufRead>(reader: &mut R) -> Result<(), HttpError> {
    match reader.fill_buf() {
        Ok([]) => Err(HttpError::Closed),
        Ok(_) => Ok(()),
        Err(e) => Err(io_error(e)),
    }
}

/// Fill `buf` completely, riding out socket read timeouts until `deadline`
/// (slow peers legitimately deliver a message across many timeout slices;
/// only the overall deadline hangs up on them). EOF before the first byte of
/// a message is a clean [`HttpError::Closed`]; EOF or an expired deadline
/// mid-message is malformed.
fn read_full<R: BufRead>(
    reader: &mut R,
    buf: &mut [u8],
    deadline: Option<Instant>,
    at_message_start: bool,
) -> Result<(), HttpError> {
    let mut filled = 0usize;
    while filled < buf.len() {
        #[expect(
            clippy::indexing_slicing,
            reason = "filled < buf.len() is the loop condition; [n..] at n <= len is valid"
        )]
        match reader.read(&mut buf[filled..]) {
            Ok(0) => {
                return Err(if filled == 0 && at_message_start {
                    HttpError::Closed
                } else {
                    HttpError::Malformed("connection closed mid-message".to_string())
                })
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                if deadline.is_some_and(|d| Instant::now() >= d) {
                    return Err(HttpError::Malformed(
                        "timed out reading the message".to_string(),
                    ));
                }
            }
            Err(e) => return Err(io_error(e)),
        }
    }
    Ok(())
}

fn read_line<R: BufRead>(
    reader: &mut R,
    deadline: Option<Instant>,
    at_message_start: bool,
) -> Result<String, HttpError> {
    let mut line = Vec::new();
    loop {
        let mut byte = [0u8; 1];
        read_full(
            reader,
            &mut byte,
            deadline,
            at_message_start && line.is_empty(),
        )?;
        if byte[0] == b'\n' {
            if line.last() == Some(&b'\r') {
                line.pop();
            }
            return String::from_utf8(line)
                .map_err(|_| HttpError::Malformed("non-UTF-8 header line".to_string()));
        }
        line.push(byte[0]);
        if line.len() > MAX_LINE_BYTES {
            return Err(HttpError::Malformed("header line too long".to_string()));
        }
    }
}

fn read_headers<R: BufRead>(
    reader: &mut R,
    deadline: Option<Instant>,
) -> Result<Vec<(String, String)>, HttpError> {
    let mut headers = Vec::new();
    loop {
        let line = read_line(reader, deadline, false)?;
        if line.is_empty() {
            return Ok(headers);
        }
        if headers.len() >= MAX_HEADERS {
            return Err(HttpError::Malformed("too many headers".to_string()));
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| HttpError::Malformed(format!("header without ':': {line}")))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
}

/// Longest chunk-size line a chunked body may carry: 16 hex digits spell
/// every 64-bit size.
const MAX_CHUNK_SIZE_DIGITS: usize = 16;

/// How a message delimits its body.
enum Framing {
    /// This many bytes (`Content-Length`; 0 when the header is absent).
    Length(usize),
    /// A chunked stream.
    Chunked,
}

/// Read a message's body framing off its headers. A length is `1*DIGIT`
/// (no sign, no list), and several `Content-Length` headers must agree. A
/// message that carries a length and a transfer coding both is refused, as
/// is one with two transfer codings: either could be read two ways by two
/// parsers, the rest of the body taken for the next message. The one coding
/// is `chunked`.
fn framing(headers: &[(String, String)]) -> Result<Framing, HttpError> {
    let mut length: Option<usize> = None;
    for (_, value) in headers.iter().filter(|(name, _)| name == "content-length") {
        let invalid = || HttpError::Malformed(format!("invalid Content-Length: {value}"));
        if value.is_empty() || !value.bytes().all(|b| b.is_ascii_digit()) {
            return Err(invalid());
        }
        let parsed = value.parse::<usize>().map_err(|_| invalid())?;
        if length.is_some_and(|seen| seen != parsed) {
            return Err(HttpError::Malformed(
                "conflicting Content-Length headers".to_string(),
            ));
        }
        length = Some(parsed);
    }
    let mut codings = headers
        .iter()
        .filter(|(name, _)| name == "transfer-encoding")
        .map(|(_, value)| value.as_str());
    let coding = codings.next();
    if codings.next().is_some() {
        return Err(HttpError::Malformed(
            "more than one Transfer-Encoding header".to_string(),
        ));
    }
    match (coding, length) {
        (None, length) => Ok(Framing::Length(length.unwrap_or(0))),
        (Some(_), Some(_)) => Err(HttpError::Malformed(
            "both Content-Length and Transfer-Encoding".to_string(),
        )),
        (Some(coding), None) if coding.eq_ignore_ascii_case("chunked") => Ok(Framing::Chunked),
        (Some(coding), None) => Err(HttpError::Malformed(format!(
            "unsupported transfer coding: {coding}"
        ))),
    }
}

/// Read a `Content-Length` body of `length` bytes, refused past `max_body`
/// before anything is allocated.
fn read_sized_body<R: BufRead>(
    reader: &mut R,
    length: usize,
    max_body: usize,
    deadline: Option<Instant>,
) -> Result<Vec<u8>, HttpError> {
    if length > max_body {
        return Err(HttpError::BodyTooLarge { limit: max_body });
    }
    let mut body = vec![0u8; length];
    read_full(reader, &mut body, deadline, false)?;
    Ok(body)
}

/// Read the next chunk of a chunked body: its bytes, or `None` at the
/// zero-size last chunk (whose trailer section must be empty). The size line
/// is hex digits only, at most [`MAX_CHUNK_SIZE_DIGITS`], and a size past
/// `allowance` — what is left of the `max_body` cap — is refused before
/// anything is allocated. The data must be followed by CRLF.
fn read_chunk<R: BufRead>(
    reader: &mut R,
    allowance: usize,
    max_body: usize,
    deadline: Option<Instant>,
) -> Result<Option<Vec<u8>>, HttpError> {
    let line = read_line(reader, deadline, false)?;
    let invalid = || HttpError::Malformed("invalid chunk size line".to_string());
    if line.is_empty()
        || line.len() > MAX_CHUNK_SIZE_DIGITS
        || !line.bytes().all(|b| b.is_ascii_hexdigit())
    {
        return Err(invalid());
    }
    let size = usize::from_str_radix(&line, 16).map_err(|_| invalid())?;
    if size == 0 {
        if !read_line(reader, deadline, false)?.is_empty() {
            return Err(HttpError::Malformed(
                "chunked trailer fields are not supported".to_string(),
            ));
        }
        return Ok(None);
    }
    if size > allowance {
        return Err(HttpError::BodyTooLarge { limit: max_body });
    }
    let mut chunk = vec![0u8; size];
    read_full(reader, &mut chunk, deadline, false)?;
    let mut crlf = [0u8; 2];
    read_full(reader, &mut crlf, deadline, false)?;
    if crlf != *b"\r\n" {
        return Err(HttpError::Malformed(
            "chunk data not followed by CRLF".to_string(),
        ));
    }
    Ok(Some(chunk))
}

/// Read one request from the stream. `max_body` bounds the accepted
/// `Content-Length`; `deadline` bounds how long a slow peer may take to
/// deliver the whole message (socket read timeouts within it are ridden
/// out, not treated as errors).
pub fn read_request<R: BufRead>(
    reader: &mut R,
    max_body: usize,
    deadline: Option<Instant>,
) -> Result<Request, HttpError> {
    let line = read_line(reader, deadline, true)?;
    let mut parts = line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| HttpError::Malformed("empty request line".to_string()))?
        .to_ascii_uppercase();
    let path = parts
        .next()
        .ok_or_else(|| HttpError::Malformed("request line without a path".to_string()))?
        .to_string();
    match parts.next() {
        Some(v) if v.starts_with("HTTP/1.") => {}
        other => {
            return Err(HttpError::Malformed(format!(
                "unsupported protocol version: {other:?}"
            )))
        }
    }
    let headers = read_headers(reader, deadline)?;
    let body = match framing(&headers)? {
        Framing::Length(length) => read_sized_body(reader, length, max_body, deadline)?,
        Framing::Chunked => {
            return Err(HttpError::Malformed(
                "a chunked request body is not supported; send Content-Length".to_string(),
            ))
        }
    };
    Ok(Request {
        method,
        path,
        headers,
        body,
    })
}

/// A response about to be written.
#[derive(Debug, Clone)]
pub struct Response {
    /// The status code.
    pub status: u16,
    /// The `Content-Type` header value.
    pub content_type: &'static str,
    /// Extra headers beyond the fixed set [`write_response`] emits
    /// (`Retry-After` on overload answers, for instance).
    pub headers: Vec<(String, String)>,
    /// The body.
    pub body: Vec<u8>,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, value: &Json) -> Response {
        Response {
            status,
            content_type: "application/json",
            headers: Vec::new(),
            body: value.encode().into_bytes(),
        }
    }

    /// A plain-text response.
    pub fn text(status: u16, body: impl Into<String>) -> Response {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            headers: Vec::new(),
            body: body.into().into_bytes(),
        }
    }

    /// The standard error envelope: `{"error": message}`.
    pub fn error(status: u16, message: impl Into<String>) -> Response {
        Response::json(
            status,
            &Json::object(vec![("error", Json::from(message.into()))]),
        )
    }

    /// This response with an extra header appended.
    pub fn with_header(mut self, name: impl Into<String>, value: impl Into<String>) -> Response {
        self.headers.push((name.into(), value.into()));
        self
    }
}

/// The reason phrase of a status code (the subset the server uses).
pub fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        411 => "Length Required",
        413 => "Content Too Large",
        422 => "Unprocessable Content",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

/// Write a response; `keep_alive` controls the `Connection` header.
pub fn write_response<W: Write>(
    writer: &mut W,
    response: &Response,
    keep_alive: bool,
) -> io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n",
        response.status,
        status_text(response.status),
        response.content_type,
        response.body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    );
    for (name, value) in &response.headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    writer.write_all(head.as_bytes())?;
    writer.write_all(&response.body)?;
    writer.flush()
}

/// A parsed HTTP response (client side).
#[derive(Debug, Clone)]
pub struct ClientResponse {
    /// The status code.
    pub status: u16,
    /// Header `(name, value)` pairs, names lower-cased.
    pub headers: Vec<(String, String)>,
    /// The body.
    pub body: Vec<u8>,
}

impl ClientResponse {
    /// Whether the server leaves the connection open after this reply
    /// (HTTP/1.1 keeps it unless the reply says `Connection: close`).
    pub fn keeps_alive(&self) -> bool {
        !self
            .headers
            .iter()
            .any(|(name, value)| name == "connection" && value.eq_ignore_ascii_case("close"))
    }

    /// The body as UTF-8 text.
    pub fn body_text(&self) -> Option<&str> {
        std::str::from_utf8(&self.body).ok()
    }

    /// The body parsed as JSON.
    pub fn json(&self) -> Option<Json> {
        crate::wire::parse(self.body_text()?).ok()
    }
}

/// Read one response from the stream. `max_body` bounds the accepted
/// `Content-Length`, or each chunk and their running total when the body is
/// chunked (the chunks are then joined into `body`); `deadline` bounds the
/// whole read as in [`read_request`].
pub fn read_response<R: BufRead>(
    reader: &mut R,
    max_body: usize,
    deadline: Option<Instant>,
) -> Result<ClientResponse, HttpError> {
    let mut joined = Vec::new();
    let mut response = read_response_with(reader, max_body, deadline, &mut |chunk| {
        joined.extend_from_slice(&chunk);
        Ok(())
    })?;
    if response.body.is_empty() {
        response.body = joined;
    }
    Ok(response)
}

/// [`read_response`], handing each chunk of a chunked body to `on_chunk` as
/// it arrives instead of joining them, so no buffer holds more than one
/// chunk; the returned `body` is then empty. A `Content-Length` body is read
/// whole into `body` as usual. An error from `on_chunk` stops the read and
/// comes back as [`HttpError::Io`].
pub fn read_response_with<R: BufRead>(
    reader: &mut R,
    max_body: usize,
    deadline: Option<Instant>,
    on_chunk: &mut dyn FnMut(Vec<u8>) -> io::Result<()>,
) -> Result<ClientResponse, HttpError> {
    let line = read_line(reader, deadline, true)?;
    let mut parts = line.split_whitespace();
    match parts.next() {
        Some(v) if v.starts_with("HTTP/1.") => {}
        other => {
            return Err(HttpError::Malformed(format!(
                "unsupported protocol version: {other:?}"
            )))
        }
    }
    let status = parts
        .next()
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| HttpError::Malformed("status line without a code".to_string()))?;
    let headers = read_headers(reader, deadline)?;
    let body = match framing(&headers)? {
        Framing::Length(length) => read_sized_body(reader, length, max_body, deadline)?,
        Framing::Chunked => {
            let mut total = 0usize;
            while let Some(chunk) = read_chunk(reader, max_body - total, max_body, deadline)? {
                total += chunk.len();
                on_chunk(chunk).map_err(HttpError::Io)?;
            }
            Vec::new()
        }
    };
    Ok(ClientResponse {
        status,
        headers,
        body,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse_bytes(bytes: &[u8]) -> Result<Request, HttpError> {
        let mut reader = BufReader::new(bytes);
        read_request(&mut reader, 1024, None)
    }

    #[test]
    fn requests_parse_with_headers_and_body() {
        let raw = b"POST /sessions/x/explore?q=1 HTTP/1.1\r\nHost: localhost\r\nContent-Type: text/plain\r\nContent-Length: 5\r\n\r\nhello";
        let req = parse_bytes(raw).unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path_segments(), vec!["sessions", "x", "explore"]);
        assert_eq!(req.header("HOST"), Some("localhost"));
        assert_eq!(req.body_text(), Some("hello"));
        assert!(req.wants_keep_alive());
        assert_eq!(req.query_param("q"), Some("1"));
        assert_eq!(req.query_param("missing"), None);
    }

    #[test]
    fn query_params_parse_flags_and_pairs() {
        let raw = b"GET /x?trace=1&flag&empty= HTTP/1.1\r\n\r\n";
        let req = parse_bytes(raw).unwrap();
        assert_eq!(req.query_param("trace"), Some("1"));
        assert_eq!(req.query_param("flag"), Some(""));
        assert_eq!(req.query_param("empty"), Some(""));
        assert_eq!(req.query_param("nope"), None);
    }

    #[test]
    fn connection_close_is_honoured() {
        let raw = b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n";
        let req = parse_bytes(raw).unwrap();
        assert!(!req.wants_keep_alive());
        assert!(req.body.is_empty());
        assert!(req.path_segments().is_empty());
    }

    #[test]
    fn malformed_requests_are_rejected() {
        assert!(matches!(parse_bytes(b""), Err(HttpError::Closed)));
        assert!(matches!(
            parse_bytes(b"GET /\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
        assert!(matches!(
            parse_bytes(b"GET / HTTP/2\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
        assert!(matches!(
            parse_bytes(b"GET / HTTP/1.1\r\nbad header\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
        assert!(matches!(
            parse_bytes(b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
    }

    #[test]
    fn oversized_bodies_are_refused_up_front() {
        let raw = b"POST / HTTP/1.1\r\nContent-Length: 10000\r\n\r\n";
        assert!(matches!(
            parse_bytes(raw),
            Err(HttpError::BodyTooLarge { limit: 1024 })
        ));
    }

    /// Delivers its message one byte per `read` call, answering `WouldBlock`
    /// between bytes the way a socket read timeout does. After the message
    /// is exhausted it either reports EOF or stalls with `WouldBlock`
    /// forever, depending on `stall_at_end`.
    struct Slowloris {
        bytes: Vec<u8>,
        position: usize,
        parched: bool,
        stall_at_end: bool,
    }

    impl Slowloris {
        fn new(bytes: &[u8], stall_at_end: bool) -> BufReader<Slowloris> {
            BufReader::new(Slowloris {
                bytes: bytes.to_vec(),
                position: 0,
                parched: false,
                stall_at_end,
            })
        }
    }

    impl io::Read for Slowloris {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.parched {
                self.parched = false;
                return Err(io::Error::new(io::ErrorKind::WouldBlock, "drip"));
            }
            self.parched = true;
            match self.bytes.get(self.position) {
                Some(&byte) if !buf.is_empty() => {
                    buf[0] = byte;
                    self.position += 1;
                    Ok(1)
                }
                _ if self.stall_at_end => Err(io::Error::new(io::ErrorKind::WouldBlock, "stall")),
                _ => Ok(0),
            }
        }
    }

    #[test]
    fn a_slow_but_steady_peer_is_ridden_out_within_the_deadline() {
        let raw = b"POST /explore HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello";
        let deadline = Some(Instant::now() + std::time::Duration::from_secs(30));
        let mut reader = Slowloris::new(raw, false);
        let request = read_request(&mut reader, 1024, deadline).unwrap();
        assert_eq!(request.method, "POST");
        assert_eq!(request.body_text(), Some("hello"));
    }

    #[test]
    fn a_peer_that_stalls_mid_message_is_a_typed_error_not_a_hang() {
        // Stall after the request line: the headers never arrive, the socket
        // keeps timing out, and the parser must give up at the deadline.
        let raw = b"POST /explore HTTP/1.1\r\nContent-";
        let budget = std::time::Duration::from_millis(100);
        let started = Instant::now();
        let mut reader = Slowloris::new(raw, true);
        let result = read_request(&mut reader, 1024, Some(started + budget));
        assert!(
            matches!(&result, Err(HttpError::Malformed(m)) if m.contains("timed out")),
            "expected a timeout, got {result:?}"
        );
        assert!(
            started.elapsed() < budget + std::time::Duration::from_secs(2),
            "the parser overstayed its deadline: {:?}",
            started.elapsed()
        );
    }

    #[test]
    fn a_stalled_body_is_a_typed_error_not_a_hang() {
        // The headers arrive whole but the promised body never does.
        let raw = b"POST /explore HTTP/1.1\r\nContent-Length: 64\r\n\r\nonly a few bytes";
        let budget = std::time::Duration::from_millis(100);
        let started = Instant::now();
        let mut reader = Slowloris::new(raw, true);
        let result = read_request(&mut reader, 1024, Some(started + budget));
        assert!(
            matches!(&result, Err(HttpError::Malformed(m)) if m.contains("timed out")),
            "expected a timeout, got {result:?}"
        );
        assert!(
            started.elapsed() < budget + std::time::Duration::from_secs(2),
            "the parser overstayed its deadline: {:?}",
            started.elapsed()
        );
    }

    /// Three chunks of a streamed reply, `Transfer-Encoding: chunked`.
    fn three_chunk_response() -> Vec<u8> {
        let head = "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n\
                    Transfer-Encoding: chunked\r\nConnection: keep-alive\r\n\r\n";
        let mut wire = head.as_bytes().to_vec();
        for part in [r#"{"partials": [1]}"#, r#"{"partials": [22, 3]}"#, "{}"] {
            wire.extend_from_slice(format!("{:x}\r\n{part}\r\n", part.len()).as_bytes());
        }
        wire.extend_from_slice(b"0\r\n\r\n");
        wire
    }

    #[test]
    fn a_response_truncated_at_every_boundary_byte_is_an_error_never_a_hang() {
        let response = Response::json(200, &Json::object(vec![("answer", Json::from(42.0_f64))]))
            .with_header("Retry-After", "3");
        let mut sized = Vec::new();
        write_response(&mut sized, &response, true).unwrap();

        for wire in [sized, three_chunk_response()] {
            // The full message parses.
            let mut reader = BufReader::new(wire.as_slice());
            let parsed = read_response(&mut reader, 1024, None).unwrap();
            assert_eq!(parsed.status, 200);

            // Every proper prefix is a typed error: `Closed` when the peer
            // vanished before a single byte, `Malformed` anywhere
            // mid-message — inside a chunk, its size line, its CRLF, or the
            // last chunk.
            for cut in 0..wire.len() {
                let truncated = &wire[..cut];
                let mut reader = BufReader::new(truncated);
                let result = read_response(&mut reader, 1024, None);
                match (cut, result) {
                    (0, Err(HttpError::Closed)) => {}
                    (_, Err(HttpError::Closed | HttpError::Malformed(_))) => {}
                    (_, other) => panic!("truncation at byte {cut} gave {other:?}"),
                }
            }
        }
    }

    fn parse_response(bytes: &[u8], max_body: usize) -> Result<ClientResponse, HttpError> {
        read_response(&mut BufReader::new(bytes), max_body, None)
    }

    #[test]
    fn a_signed_content_length_is_refused() {
        let raw = b"POST / HTTP/1.1\r\nContent-Length: +5\r\n\r\nhello";
        assert!(
            matches!(parse_bytes(raw), Err(HttpError::Malformed(_))),
            "a length is 1*DIGIT"
        );
        for length in ["-0", "5 5", "0x5", "5,5", ""] {
            let raw = format!("POST / HTTP/1.1\r\nContent-Length: {length}\r\n\r\nhello");
            assert!(
                matches!(parse_bytes(raw.as_bytes()), Err(HttpError::Malformed(_))),
                "Content-Length: {length}"
            );
        }
    }

    #[test]
    fn conflicting_content_lengths_are_refused() {
        // Read by the first header, the request would leave `6` in the
        // stream for the next keep-alive request to start with.
        let raw = b"POST / HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 6\r\n\r\nhello6";
        assert!(matches!(parse_bytes(raw), Err(HttpError::Malformed(_))));
        // The same length twice frames the body one way only.
        let raw = b"POST / HTTP/1.1\r\nContent-Length: 5\r\ncontent-length: 5\r\n\r\nhello";
        assert_eq!(parse_bytes(raw).unwrap().body_text(), Some("hello"));
    }

    #[test]
    fn a_response_may_be_chunked_but_not_also_carry_a_length() {
        let chunked =
            b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n";
        assert_eq!(
            parse_response(chunked, 1024).unwrap().body_text(),
            Some("hello")
        );
        let both = b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n";
        assert!(matches!(
            parse_response(both, 1024),
            Err(HttpError::Malformed(_))
        ));
        let request =
            b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\nContent-Length: 5\r\n\r\nhello";
        assert!(matches!(parse_bytes(request), Err(HttpError::Malformed(_))));
        let twice = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n";
        assert!(matches!(
            parse_response(twice, 1024),
            Err(HttpError::Malformed(_))
        ));
    }

    #[test]
    fn hostile_chunk_framing_gets_typed_errors_before_any_allocation() {
        let head = "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n";
        let malformed = [
            "zz\r\nhello\r\n0\r\n\r\n",                // not hex
            "+5\r\nhello\r\n0\r\n\r\n",                // signed
            "5;ext=1\r\nhello\r\n0\r\n\r\n",           // extensions
            "00000000000000005\r\nhello\r\n0\r\n\r\n", // 17 digits
            "5\r\nhelloXY0\r\n\r\n",                   // no CRLF after the data
            "5\r\nhello\r\n",                          // no last chunk
            "5\r\nhello\r\n0\r\n",                     // last chunk without its CRLF
            "5\r\nhello\r\n0\r\nX-Trailer: 1\r\n\r\n", // trailer fields
            "9\r\nhello",                              // EOF mid-chunk
        ];
        for body in malformed {
            let raw = format!("{head}{body}");
            let result = parse_response(raw.as_bytes(), 1024);
            assert!(
                matches!(result, Err(HttpError::Malformed(_))),
                "{body:?} gave {result:?}"
            );
        }
        // A size past the cap is refused from its size line, before any
        // data: no buffer of `ffffffffffffffff` bytes is ever asked for, and
        // neither is one that would take the running total past the cap
        // (512 bytes taken, 513 more announced).
        let half = format!("200\r\n{}\r\n", "x".repeat(0x200));
        for body in [
            "ffffffffffffffff\r\n".to_string(),
            "401\r\n".to_string(),
            format!("{half}201\r\n"),
        ] {
            let raw = format!("{head}{body}");
            let result = parse_response(raw.as_bytes(), 1024);
            assert!(
                matches!(result, Err(HttpError::BodyTooLarge { limit: 1024 })),
                "{body:?} gave {result:?}"
            );
        }
    }

    #[test]
    fn chunks_reach_the_receiver_one_at_a_time() {
        let wire = three_chunk_response();
        let mut seen = Vec::new();
        let response = read_response_with(
            &mut BufReader::new(wire.as_slice()),
            1024,
            None,
            &mut |chunk| {
                seen.push(String::from_utf8(chunk).unwrap());
                Ok(())
            },
        )
        .unwrap();
        assert!(response.body.is_empty());
        assert_eq!(
            seen,
            [r#"{"partials": [1]}"#, r#"{"partials": [22, 3]}"#, "{}"]
        );

        // A receiver that refuses a chunk stops the read there.
        let mut taken = 0;
        let result = read_response_with(
            &mut BufReader::new(wire.as_slice()),
            1024,
            None,
            &mut |_| {
                taken += 1;
                Err(io::Error::other("refused"))
            },
        );
        assert!(matches!(result, Err(HttpError::Io(_))), "{result:?}");
        assert_eq!(taken, 1);
    }

    #[test]
    fn a_request_truncated_at_every_boundary_byte_is_an_error_never_a_hang() {
        let raw: &[u8] = b"POST /sessions/x/explore HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello";
        assert!(parse_bytes(raw).is_ok());
        for cut in 0..raw.len() {
            let result = parse_bytes(&raw[..cut]);
            match (cut, result) {
                (0, Err(HttpError::Closed)) => {}
                (_, Err(HttpError::Closed | HttpError::Malformed(_))) => {}
                (_, other) => panic!("truncation at byte {cut} gave {other:?}"),
            }
        }
    }

    #[test]
    fn responses_round_trip() {
        let response = Response::json(201, &Json::object(vec![("token", Json::from("abc"))]));
        let mut wire = Vec::new();
        write_response(&mut wire, &response, true).unwrap();
        let text = String::from_utf8(wire.clone()).unwrap();
        assert!(text.starts_with("HTTP/1.1 201 Created\r\n"));
        assert!(text.contains("Connection: keep-alive"));

        let mut reader = BufReader::new(wire.as_slice());
        let parsed = read_response(&mut reader, 1024, None).unwrap();
        assert_eq!(parsed.status, 201);
        assert_eq!(
            parsed.json().unwrap().get("token").unwrap().str(),
            Some("abc")
        );
    }

    #[test]
    fn error_envelope_and_status_text() {
        let response = Response::error(404, "no such dataset");
        assert_eq!(response.status, 404);
        assert!(String::from_utf8(response.body)
            .unwrap()
            .contains("no such dataset"));
        assert_eq!(status_text(503), "Service Unavailable");
        assert_eq!(status_text(599), "Unknown");
    }
}
