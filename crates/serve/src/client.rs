//! [`ServeClient`] / [`ClientConnection`] — the in-process test/bench
//! harness for a running server.
//!
//! Thin blocking HTTP/1.1 clients over `std::net::TcpStream`, both
//! framing responses by `content-length`, which the server always sends:
//!
//! * [`ServeClient`] issues one request per fresh connection (sends
//!   `connection: close`) — the simplest correct thing for tests that
//!   exercise admission control;
//! * [`ClientConnection`] holds one **keep-alive** connection and can
//!   write several pipelined requests before reading any response — used
//!   by [`ServeClient`], the keep-alive conformance tests and the
//!   `serve_bench` keep-alive/coalescing loops.
//!
//! Used by the admission-control integration tests, the CI smoke driver
//! (`serve_smoke`), and the `serve_bench` latency bench.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// A parsed client-side response: status code, headers, and body text.
#[derive(Debug, Clone)]
pub struct ClientResponse {
    /// HTTP status code.
    pub status: u16,
    /// Response headers as `(lowercased-name, value)` pairs.
    pub headers: Vec<(String, String)>,
    /// Response body (JSON in this API).
    pub body: String,
}

impl ClientResponse {
    /// The first header with the given name (case-insensitive), if any.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Blocking HTTP client bound to one server address.
#[derive(Debug, Clone)]
pub struct ServeClient {
    addr: SocketAddr,
    timeout: Duration,
}

impl ServeClient {
    /// A client for `addr` with a 120 s per-request timeout.
    pub fn new(addr: SocketAddr) -> Self {
        ServeClient {
            addr,
            timeout: Duration::from_secs(120),
        }
    }

    /// Override the per-request socket timeout.
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = timeout;
        self
    }

    /// The server address this client talks to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// `GET` a path.
    pub fn get(&self, path: &str) -> std::io::Result<ClientResponse> {
        self.request("GET", path, None)
    }

    /// `POST` a JSON body to a path.
    pub fn post_json(&self, path: &str, body: &str) -> std::io::Result<ClientResponse> {
        self.request("POST", path, Some(body))
    }

    /// Issue one request on a fresh connection, asking the server to
    /// close it after answering.
    pub fn request(
        &self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> std::io::Result<ClientResponse> {
        let mut conn = self.connect()?;
        conn.send(method, path, body, true)?;
        conn.read_response()
    }

    /// Open a persistent keep-alive connection to the server.
    pub fn connect(&self) -> std::io::Result<ClientConnection> {
        ClientConnection::connect(self.addr, self.timeout)
    }

    /// Poll `GET /healthz` until the server answers 200 or the deadline
    /// passes — boot synchronization for tests and the CI smoke driver.
    pub fn wait_ready(&self, deadline: Duration) -> std::io::Result<()> {
        let started = Instant::now();
        loop {
            match self.get("/healthz") {
                Ok(r) if r.status == 200 => return Ok(()),
                _ if started.elapsed() > deadline => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::TimedOut,
                        format!("server at {} not ready within {deadline:?}", self.addr),
                    ));
                }
                _ => std::thread::sleep(Duration::from_millis(50)),
            }
        }
    }
}

/// One persistent HTTP/1.1 keep-alive connection. Requests sent through
/// it omit `connection: close`; responses are framed by `content-length`,
/// so the connection stays usable for the next exchange. Supports
/// pipelining: write N requests with [`send`](Self::send), then collect N
/// responses in order with [`read_response`](Self::read_response).
pub struct ClientConnection {
    reader: BufReader<TcpStream>,
}

impl ClientConnection {
    /// Connect with the given per-operation socket timeout.
    pub fn connect(addr: SocketAddr, timeout: Duration) -> std::io::Result<ClientConnection> {
        let stream = TcpStream::connect_timeout(&addr, timeout)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        stream.set_nodelay(true)?;
        Ok(ClientConnection {
            reader: BufReader::new(stream),
        })
    }

    /// Write one request without reading its response (pipelining).
    /// `close` asks the server to close after answering this request.
    pub fn send(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
        close: bool,
    ) -> std::io::Result<()> {
        let body = body.unwrap_or("");
        let connection = if close { "connection: close\r\n" } else { "" };
        let head = format!(
            "{method} {path} HTTP/1.1\r\nhost: faircap\r\ncontent-type: application/json\r\ncontent-length: {}\r\n{connection}\r\n",
            body.len()
        );
        let stream = self.reader.get_mut();
        stream.write_all(head.as_bytes())?;
        stream.write_all(body.as_bytes())?;
        stream.flush()
    }

    /// Read the next response off the connection, framed by its
    /// `content-length` header (the connection stays open unless the
    /// server said `connection: close`).
    pub fn read_response(&mut self) -> std::io::Result<ClientResponse> {
        let mut status_line = String::new();
        if self.reader.read_line(&mut status_line)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "connection closed before a status line",
            ));
        }
        let status: u16 = status_line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("bad status line `{}`", status_line.trim_end()),
                )
            })?;
        let mut content_length: Option<usize> = None;
        let mut headers = Vec::new();
        loop {
            let mut line = String::new();
            let n = self.reader.read_line(&mut line)?;
            if n == 0 || line == "\r\n" || line == "\n" {
                break;
            }
            if let Some((name, value)) = line.split_once(':') {
                let name = name.trim().to_ascii_lowercase();
                let value = value.trim().to_owned();
                if name == "content-length" {
                    content_length = value.parse().ok();
                }
                headers.push((name, value));
            }
        }
        let len = content_length.ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "response without content-length cannot be framed on a keep-alive connection",
            )
        })?;
        let mut body = vec![0u8; len];
        self.reader.read_exact(&mut body)?;
        let body = String::from_utf8(body).map_err(|e| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("non-UTF-8 body: {e}"),
            )
        })?;
        Ok(ClientResponse {
            status,
            headers,
            body,
        })
    }

    /// One full request/response exchange, keeping the connection alive.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> std::io::Result<ClientResponse> {
        self.send(method, path, body, false)?;
        self.read_response()
    }

    /// Pipeline: write every `(method, path, body)` request back to back,
    /// then read the responses in order.
    pub fn pipeline(
        &mut self,
        requests: &[(&str, &str, Option<&str>)],
    ) -> std::io::Result<Vec<ClientResponse>> {
        for (method, path, body) in requests {
            self.send(method, path, *body, false)?;
        }
        requests.iter().map(|_| self.read_response()).collect()
    }
}
