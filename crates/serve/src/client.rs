//! A minimal blocking HTTP client for the exploration server.
//!
//! One connection per request (`Connection: close`) keeps the client fair
//! under a single-worker server and trivially correct; it is what the
//! integration tests and the quickstart example drive the server with.

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

    /// Issue one request. `body` is sent verbatim with the given content
    /// type when present. A chunked reply comes back with its chunks joined.
    pub fn request(
        &self,
        method: &str,
        path: &str,
        body: Option<(&str, &[u8])>,
    ) -> io::Result<ClientResponse> {
        let stream = TcpStream::connect_timeout(&self.addr, self.connect_timeout())?;
        stream.set_read_timeout(Some(self.timeout))?;
        stream.set_write_timeout(Some(self.timeout))?;
        stream.set_nodelay(true)?;
        let mut writer = BufWriter::new(stream.try_clone()?);
        let mut head = format!("{method} {path} HTTP/1.1\r\nHost: atlas\r\nConnection: close\r\n");
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
        let deadline = Instant::now() + self.timeout;
        http::read_response(
            &mut BufReader::new(stream),
            MAX_RESPONSE_BYTES,
            Some(deadline),
        )
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
