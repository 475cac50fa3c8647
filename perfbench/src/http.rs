//! A minimal HTTP/1.1 keep-alive client whose write and read halves can
//! live on different threads, so an open-loop sender can pipeline onto a
//! busy connection while a reader collects responses in order.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Per-operation socket timeout: a stuck server fails the run instead of
/// hanging it.
const TIMEOUT: Duration = Duration::from_secs(60);

/// Largest response body read; a solve report is a few KB.
const MAX_BODY: usize = 64 << 20;

pub struct Writer(TcpStream);
pub struct Reader(BufReader<TcpStream>);

/// Open one keep-alive connection.
pub fn connect(addr: SocketAddr) -> std::io::Result<(Writer, Reader)> {
    let stream = TcpStream::connect_timeout(&addr, TIMEOUT)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(TIMEOUT))?;
    stream.set_write_timeout(Some(TIMEOUT))?;
    let read_half = stream.try_clone()?;
    Ok((Writer(stream), Reader(BufReader::new(read_half))))
}

impl Writer {
    /// Write one request (head and body in a single write).
    pub fn send(&mut self, method: &str, path: &str, body: &str) -> std::io::Result<()> {
        let request = format!(
            "{method} {path} HTTP/1.1\r\nhost: perfbench\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n{body}",
            body.len()
        );
        self.0.write_all(request.as_bytes())
    }
}

fn invalid(msg: String) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg)
}

impl Reader {
    /// Read the next response: status and body, framed by
    /// `content-length`.
    pub fn read(&mut self) -> std::io::Result<(u16, String)> {
        let mut line = String::new();
        if self.0.read_line(&mut line)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "connection closed before a status line",
            ));
        }
        let status: u16 = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| invalid(format!("bad status line `{}`", line.trim_end())))?;
        let mut length = None;
        loop {
            line.clear();
            if self.0.read_line(&mut line)? == 0 || line == "\r\n" || line == "\n" {
                break;
            }
            if let Some((name, value)) = line.split_once(':') {
                if name.trim().eq_ignore_ascii_case("content-length") {
                    length = value.trim().parse::<usize>().ok();
                }
            }
        }
        let length = length.ok_or_else(|| invalid("response without content-length".into()))?;
        if length > MAX_BODY {
            return Err(invalid(format!("response body of {length} bytes")));
        }
        let mut body = vec![0u8; length];
        self.0.read_exact(&mut body)?;
        let body = String::from_utf8(body).map_err(|e| invalid(format!("non-UTF-8 body: {e}")))?;
        Ok((status, body))
    }
}
