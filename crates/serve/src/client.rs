//! A minimal blocking HTTP client for the exploration server.
//!
//! A [`Connection`] is one open TCP stream and the reader that owns whatever
//! of it was read ahead; [`Client::send`] is the one function that writes a
//! request on a connection and reads the whole reply. [`Client::request`]
//! opens a fresh connection and sends `Connection: close`, which keeps the
//! client fair under a single-worker server and trivially correct; it is
//! what the integration tests and the quickstart example drive the server
//! with. The distributed coordinator keeps one idle keep-alive connection
//! per shard and sends on it while [`Connection::is_reusable`] holds.

use crate::http::{self, ClientResponse, HttpError};
use crate::wire::Json;
use std::io::{self, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Largest response body the client accepts (a chunked one's running
/// total, each chunk included).
const MAX_RESPONSE_BYTES: usize = 64 * 1024 * 1024;

/// What a failed read of a reply becomes: an I/O error stays one, anything
/// else is invalid data.
fn into_io(error: HttpError) -> io::Error {
    match error {
        HttpError::Io(io) => io,
        other => io::Error::new(io::ErrorKind::InvalidData, other.to_string()),
    }
}

/// One open connection to a server: the stream, read through the buffer
/// that holds whatever of it was read ahead.
#[derive(Debug)]
pub struct Connection {
    reader: BufReader<TcpStream>,
}

impl Connection {
    /// Whether this idle connection can carry another request: nothing was
    /// read ahead, and a non-blocking peek finds nothing to read yet
    /// (`WouldBlock`). EOF means the server hung up; an error, or bytes no
    /// request asked for, mean the connection cannot be trusted.
    pub fn is_reusable(&self) -> bool {
        if !self.reader.buffer().is_empty() {
            return false;
        }
        let stream = self.reader.get_ref();
        if stream.set_nonblocking(true).is_err() {
            return false;
        }
        let idle = matches!(
            stream.peek(&mut [0u8; 1]),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock
        );
        stream.set_nonblocking(false).is_ok() && idle
    }
}

/// A client bound to one server address.
#[derive(Debug, Clone)]
pub struct Client {
    addr: SocketAddr,
    /// Read/write budget of one request once connected.
    timeout: Duration,
    /// TCP connect budget, tracked separately so a slow connect cannot eat
    /// the whole request budget. `None` falls back to `timeout`.
    connect_timeout: Option<Duration>,
    /// Extra headers sent with every request (deadline propagation).
    headers: Vec<(String, String)>,
}

impl Client {
    /// A client for the server at `addr` with a 30 s per-request timeout.
    pub fn new(addr: SocketAddr) -> Client {
        Client {
            addr,
            timeout: Duration::from_secs(30),
            connect_timeout: None,
            headers: Vec::new(),
        }
    }

    /// This client with the given per-request read/write socket timeout.
    /// The connect timeout stays whatever [`Client::with_connect_timeout`]
    /// set (defaulting to this same value when it never was).
    pub fn with_timeout(mut self, timeout: Duration) -> Client {
        self.timeout = timeout;
        self
    }

    /// This client with a TCP connect timeout independent of the
    /// read/write timeout, so an unreachable host fails fast without
    /// shrinking the budget of the request proper.
    pub fn with_connect_timeout(mut self, timeout: Duration) -> Client {
        self.connect_timeout = Some(timeout);
        self
    }

    /// This client with an extra header sent on every request (replacing
    /// any earlier value for the same name).
    pub fn with_header(mut self, name: impl Into<String>, value: impl Into<String>) -> Client {
        let name = name.into();
        self.headers.retain(|(n, _)| *n != name);
        self.headers.push((name, value.into()));
        self
    }

    /// The read/write timeout of one request.
    pub fn timeout(&self) -> Duration {
        self.timeout
    }

    /// The TCP connect timeout ([`Client::timeout`] unless split).
    pub fn connect_timeout(&self) -> Duration {
        self.connect_timeout.unwrap_or(self.timeout)
    }

    /// Open a new connection to the server within the connect timeout.
    pub fn connect(&self) -> io::Result<Connection> {
        let stream = TcpStream::connect_timeout(&self.addr, self.connect_timeout())?;
        stream.set_nodelay(true)?;
        Ok(Connection {
            reader: BufReader::new(stream),
        })
    }

    /// Issue one request on a fresh connection that the reply closes.
    /// `body` is sent verbatim with the given content type when present. A
    /// chunked reply comes back with its chunks joined.
    pub fn request(
        &self,
        method: &str,
        path: &str,
        body: Option<(&str, &[u8])>,
    ) -> io::Result<ClientResponse> {
        self.send(&mut self.connect()?, method, path, body, false)
    }

    /// Write one request on `connection` and read its whole reply within
    /// this client's timeout. With `keep_alive` false the request asks the
    /// server to close the connection after the reply; otherwise the
    /// connection may carry another request when the reply
    /// [keeps it alive](ClientResponse::keeps_alive).
    pub fn send(
        &self,
        connection: &mut Connection,
        method: &str,
        path: &str,
        body: Option<(&str, &[u8])>,
        keep_alive: bool,
    ) -> io::Result<ClientResponse> {
        let stream = connection.reader.get_ref();
        stream.set_read_timeout(Some(self.timeout))?;
        stream.set_write_timeout(Some(self.timeout))?;
        let mut writer = BufWriter::new(stream);
        let close = if keep_alive {
            ""
        } else {
            "Connection: close\r\n"
        };
        let mut head = format!("{method} {path} HTTP/1.1\r\nHost: atlas\r\n{close}");
        for (name, value) in &self.headers {
            head.push_str(&format!("{name}: {value}\r\n"));
        }
        if let Some((content_type, bytes)) = body {
            head.push_str(&format!(
                "Content-Type: {content_type}\r\nContent-Length: {}\r\n",
                bytes.len()
            ));
        }
        head.push_str("\r\n");
        writer.write_all(head.as_bytes())?;
        if let Some((_, bytes)) = body {
            writer.write_all(bytes)?;
        }
        writer.flush()?;
        drop(writer);
        let deadline = Instant::now() + self.timeout;
        http::read_response(&mut connection.reader, MAX_RESPONSE_BYTES, Some(deadline))
            .map_err(into_io)
    }

    /// `GET path`.
    pub fn get(&self, path: &str) -> io::Result<ClientResponse> {
        self.request("GET", path, None)
    }

    /// `POST path` with a JSON body.
    pub fn post_json(&self, path: &str, body: &Json) -> io::Result<ClientResponse> {
        self.request(
            "POST",
            path,
            Some(("application/json", body.encode().as_bytes())),
        )
    }

    /// `POST path` with a plain-text body (conjunctive SQL).
    pub fn post_text(&self, path: &str, body: &str) -> io::Result<ClientResponse> {
        self.request(
            "POST",
            path,
            Some(("text/plain; charset=utf-8", body.as_bytes())),
        )
    }

    /// `DELETE path`.
    pub fn delete(&self, path: &str) -> io::Result<ClientResponse> {
        self.request("DELETE", path, None)
    }

    /// Create a session over `dataset` and return its token.
    pub fn create_session(&self, dataset: &str) -> io::Result<String> {
        let response = self.post_json(
            "/sessions",
            &Json::object(vec![("dataset", Json::from(dataset))]),
        )?;
        let json = response
            .json()
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "non-JSON reply"))?;
        if response.status != 201 {
            return Err(io::Error::other(format!(
                "session creation failed ({}): {}",
                response.status,
                json.get("error").and_then(Json::str).unwrap_or("?")
            )));
        }
        json.get("token")
            .and_then(Json::str)
            .map(String::from)
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "reply without a token"))
    }
}
