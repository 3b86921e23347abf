//! Minimal blocking HTTP/1.1 client — enough for the integration tests and
//! the repo benchmark's serve workloads.
//!
//! [`Conn`] holds one keep-alive connection and serves sequential requests
//! over it; the free functions ([`request`], [`get`], [`post`]) are one-shot
//! `Connection: close` conveniences on top. Responses are read by the
//! server's own framer — exactly `Content-Length` body bytes are consumed —
//! so the client works identically against keep-alive and close
//! connections, and surplus bytes (the next pipelined response) stay
//! buffered on the connection.

use crate::http;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A parsed response.
#[derive(Debug)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Lower-cased header names with trimmed values.
    pub headers: Vec<(String, String)>,
    /// Response body (the server always sends UTF-8 JSON).
    pub body: String,
}

impl Response {
    /// First header value matching `name` (case-insensitive).
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the server will keep the connection open after this response.
    pub fn keep_alive(&self) -> bool {
        self.header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("keep-alive"))
    }
}

fn bad(msg: impl Into<String>) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg.into())
}

/// A persistent keep-alive connection to the server.
pub struct Conn {
    stream: TcpStream,
    /// Bytes read off the socket but not yet consumed (next response).
    carry: Vec<u8>,
    open: bool,
}

impl Conn {
    /// Connects with the default 120 s I/O timeouts.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(120)))?;
        stream.set_write_timeout(Some(Duration::from_secs(120)))?;
        Ok(Conn {
            stream,
            carry: Vec::new(),
            open: true,
        })
    }

    /// Whether the connection is still usable (the server has not answered
    /// `Connection: close`).
    pub fn is_open(&self) -> bool {
        self.open
    }

    /// Sends one request on this connection and reads its response.
    ///
    /// # Errors
    ///
    /// Propagates socket errors; malformed responses surface as
    /// `InvalidData`. After an error (or a `Connection: close` response) the
    /// connection is no longer usable — open a new one.
    pub fn request(&mut self, method: &str, path: &str, body: &str) -> std::io::Result<Response> {
        self.send(method, path, body, true)
    }

    fn send(
        &mut self,
        method: &str,
        path: &str,
        body: &str,
        keep_alive: bool,
    ) -> std::io::Result<Response> {
        if !self.open {
            return Err(std::io::Error::new(
                std::io::ErrorKind::NotConnected,
                "connection was closed by the server",
            ));
        }
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: prem-serve\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n",
            body.len(),
            if keep_alive { "keep-alive" } else { "close" }
        );
        // Single write per request: split head/body writes on a keep-alive
        // socket trip over Nagle + delayed ACK.
        let mut frame = head.into_bytes();
        frame.extend_from_slice(body.as_bytes());
        let sent = self
            .stream
            .write_all(&frame)
            .and_then(|()| self.stream.flush());
        if let Err(e) = sent {
            self.open = false;
            return Err(e);
        }
        match read_response(&mut self.stream, &mut self.carry) {
            Ok(resp) => {
                if !resp.keep_alive() {
                    self.open = false;
                }
                Ok(resp)
            }
            Err(e) => {
                self.open = false;
                Err(e)
            }
        }
    }
}

/// Reads one response through the server's framer ([`crate::http`]): its
/// head cap and `Content-Length` rules hold here too, and surplus bytes stay
/// in `carry` for the next response. A response must carry
/// `Content-Length`.
fn read_response<R: Read>(stream: &mut R, carry: &mut Vec<u8>) -> std::io::Result<Response> {
    // No body cap beyond what a `Vec` can hold.
    let message = match http::read_message(stream, carry, isize::MAX as usize) {
        Ok(Some(m)) => m,
        Ok(None) => return Err(bad("connection closed before response headers ended")),
        Err(http::ReadError::Io(e)) => return Err(e),
        Err(http::ReadError::Framing(e)) => return Err(bad(e.message)),
    };
    let status_line = &message.start_line;
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad(format!("bad status line {status_line:?}")))?;
    if !message.headers.iter().any(|(n, _)| n == "content-length") {
        return Err(bad("response carries no Content-Length"));
    }
    let body = String::from_utf8(message.body).map_err(|_| bad("response body is not UTF-8"))?;
    Ok(Response {
        status,
        headers: message.headers,
        body,
    })
}

/// Sends one `Connection: close` request on a fresh connection and reads
/// the full response.
///
/// # Errors
///
/// Propagates socket errors; malformed responses surface as `InvalidData`.
pub fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> std::io::Result<Response> {
    let mut conn = Conn::connect(addr)?;
    conn.send(method, path, body, false)
}

/// `POST path` with a JSON body.
///
/// # Errors
///
/// See [`request`].
pub fn post(addr: SocketAddr, path: &str, body: &str) -> std::io::Result<Response> {
    request(addr, "POST", path, body)
}

/// `GET path`.
///
/// # Errors
///
/// See [`request`].
pub fn get(addr: SocketAddr, path: &str) -> std::io::Result<Response> {
    request(addr, "GET", path, "")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn read(raw: &str) -> std::io::Result<Response> {
        read_response(&mut Cursor::new(raw.as_bytes().to_vec()), &mut Vec::new())
    }

    #[test]
    fn bad_framing_is_invalid_data() {
        let oversized_head = format!(
            "HTTP/1.1 200 OK\r\nX-Junk: {}\r\nContent-Length: 0\r\n\r\n",
            "a".repeat(http::MAX_HEAD_BYTES)
        );
        for (case, raw) in [
            (
                "signed length",
                "HTTP/1.1 200 OK\r\nContent-Length: +5\r\n\r\nabcde",
            ),
            (
                "conflicting lengths",
                "HTTP/1.1 200 OK\r\nContent-Length: 3\r\nContent-Length: 5\r\n\r\nabcde",
            ),
            ("head over the cap", &oversized_head),
            ("no length", "HTTP/1.1 200 OK\r\n\r\n"),
            (
                "length past any buffer",
                "HTTP/1.1 200 OK\r\nContent-Length: 18446744073709551615\r\n\r\n",
            ),
        ] {
            let e = read(raw).unwrap_err();
            assert_eq!(e.kind(), std::io::ErrorKind::InvalidData, "{case}: {e}");
        }
    }
}
