//! The load generator's own HTTP/1.1 client: one keep-alive connection, one
//! thread, closed loop. `atlas_serve::Client` reconnects per request, which
//! is exactly the tax the explorer workloads must not pay (and the one
//! `serve.healthz_close_us` measures on purpose). The parser is the
//! harness's own so that a change to `atlas_serve::http` cannot speed up or
//! slow down the instrument.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Longest a single request may take before it counts as failed.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(30);
/// Largest reply body accepted (a 1M-row explore answers ~10 KiB).
const MAX_BODY: usize = 64 << 20;

/// When one request started, when the client stopped sending and started
/// waiting, when the first reply byte arrived, and when the reply was
/// complete.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    pub start: Instant,
    pub sent: Instant,
    pub first_byte: Instant,
    pub end: Instant,
}

impl Timing {
    /// Client-observed latency in milliseconds.
    pub fn latency_ms(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e3
    }

    /// Time blocked on the socket with nothing to do.
    pub fn wait(&self) -> Duration {
        self.first_byte - self.sent
    }
}

/// One connection. The reply body of the latest request stays readable in
/// [`Conn::body`] until the next one.
pub struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    request: Vec<u8>,
    line: Vec<u8>,
    body: Vec<u8>,
}

fn bad(message: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message.to_string())
}

impl Conn {
    /// Connect with `Connection: keep-alive` semantics (or `close`-per-request
    /// when the caller opens a fresh `Conn` each time).
    pub fn open(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5))?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(REQUEST_TIMEOUT))?;
        stream.set_write_timeout(Some(REQUEST_TIMEOUT))?;
        Ok(Conn {
            reader: BufReader::with_capacity(64 << 10, stream.try_clone()?),
            stream,
            request: Vec::with_capacity(4 << 10),
            line: Vec::with_capacity(128),
            body: Vec::with_capacity(32 << 10),
        })
    }

    /// The reply body of the latest request.
    pub fn body(&self) -> &[u8] {
        &self.body
    }

    /// The latest request exactly as it went over the wire.
    pub fn last_request(&self) -> &[u8] {
        &self.request
    }

    /// Send one request and read its reply; returns the status and the
    /// timing of the exchange.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: &[u8],
        keep_alive: bool,
    ) -> io::Result<(u16, Timing)> {
        let start = Instant::now();
        self.request.clear();
        write!(
            self.request,
            "{method} {path} HTTP/1.1\r\nHost: atlas\r\nConnection: {}\r\nContent-Length: {}\r\n\r\n",
            if keep_alive { "keep-alive" } else { "close" },
            body.len()
        )?;
        self.request.extend_from_slice(body);
        self.stream.write_all(&self.request)?;
        let sent = Instant::now();

        if self.reader.fill_buf()?.is_empty() {
            return Err(bad("connection closed before the reply"));
        }
        let first_byte = Instant::now();

        let status = {
            let line = self.read_line()?;
            let mut parts = line.split(|&b| b == b' ');
            let version = parts.next().unwrap_or_default();
            if !version.starts_with(b"HTTP/1.") {
                return Err(bad("reply does not start with an HTTP/1.x status line"));
            }
            parts
                .next()
                .and_then(|code| std::str::from_utf8(code).ok())
                .and_then(|code| code.parse::<u16>().ok())
                .ok_or_else(|| bad("status line without a code"))?
        };
        let mut length = 0usize;
        loop {
            let line = self.read_line()?;
            if line.is_empty() {
                break;
            }
            let Some(colon) = line.iter().position(|&b| b == b':') else {
                return Err(bad("header without ':'"));
            };
            if line[..colon].eq_ignore_ascii_case(b"content-length") {
                length = std::str::from_utf8(&line[colon + 1..])
                    .ok()
                    .and_then(|v| v.trim().parse::<usize>().ok())
                    .filter(|&n| n <= MAX_BODY)
                    .ok_or_else(|| bad("invalid Content-Length"))?;
            }
        }
        self.body.resize(length, 0);
        self.reader.read_exact(&mut self.body)?;
        let end = Instant::now();
        Ok((
            status,
            Timing {
                start,
                sent,
                first_byte,
                end,
            },
        ))
    }

    /// One header line without its line terminator.
    fn read_line(&mut self) -> io::Result<&[u8]> {
        self.line.clear();
        // Bounded: a reply head line is short, and a peer that never sends
        // a newline must not grow the buffer without limit.
        let read = (&mut self.reader)
            .take(8 << 10)
            .read_until(b'\n', &mut self.line)?;
        if read == 0 || self.line.last() != Some(&b'\n') {
            return Err(bad("reply head ended early"));
        }
        self.line.pop();
        if self.line.last() == Some(&b'\r') {
            self.line.pop();
        }
        Ok(&self.line)
    }
}
