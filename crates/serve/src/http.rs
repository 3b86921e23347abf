//! Minimal, bounded HTTP/1.1 message handling over `std` I/O.
//!
//! The server is hermetic (no registry dependencies), so the protocol layer
//! is hand-rolled — but deliberately tiny: `Content-Length` bodies only,
//! HTTP/1.1 keep-alive with sequential (pipelined-input) requests per
//! connection. Everything is bounded: header blocks are capped at
//! [`MAX_HEAD_BYTES`], bodies at the limit the caller passes, and malformed
//! framing surfaces as a structured [`HttpError`] rather than a panic or an
//! unbounded read.
//!
//! One framer, `read_message`, reads every message off the wire for the
//! server ([`read_request`]) and for [`crate::client`] alike, so both sides
//! share the head cap and the `Content-Length` rules. Because a pipelining
//! peer may send the next message's bytes in the same TCP segment as the
//! current one's body, it works against a caller-owned carry buffer:
//! whatever arrives past the current message's body stays in the buffer and
//! seeds the next parse on the same connection.

use std::io::{ErrorKind, Read, Write};

/// Hard cap on a message's head block: start line, headers and the blank
/// line that ends them.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;

/// A parsed (bounded) HTTP request.
#[derive(Debug)]
pub struct Request {
    /// Request method, verbatim (`GET`, `POST`, …).
    pub method: String,
    /// Request target, verbatim (`/optimize`).
    pub target: String,
    /// Raw body bytes (exactly `Content-Length` of them).
    pub body: Vec<u8>,
    /// Whether the client allows the connection to be reused: HTTP/1.1
    /// unless `Connection: close`, HTTP/1.0 only with
    /// `Connection: keep-alive`.
    pub keep_alive: bool,
}

/// A protocol-level failure with the status code it should be reported as.
#[derive(Debug)]
pub struct HttpError {
    /// HTTP status code (400, 413, 501, …).
    pub status: u16,
    /// Human-readable description, safe to echo back to the client.
    pub message: String,
}

impl HttpError {
    /// Builds an error with `status` and `message`.
    pub fn new(status: u16, message: impl Into<String>) -> HttpError {
        HttpError {
            status,
            message: message.into(),
        }
    }
}

/// One message read off a connection by [`read_message`].
pub(crate) struct Message {
    /// The request or status line.
    pub start_line: String,
    /// Lower-cased header names with trimmed values, in arrival order.
    pub headers: Vec<(String, String)>,
    /// Exactly `Content-Length` body bytes (none without the header).
    pub body: Vec<u8>,
}

/// Why [`read_message`] returned no message.
pub(crate) enum ReadError {
    /// Reading the stream failed, a read timeout included. `carry` keeps
    /// whatever arrived, so the caller can tell an idle connection (nothing
    /// buffered) from a stalled message.
    Io(std::io::Error),
    /// The bytes break the framing rules; the status is how a server
    /// reports it.
    Framing(HttpError),
}

/// Splits a head block into its start line and header fields and applies
/// the `Content-Length` rules: only digits, repeats must agree (RFC 9112
/// §6.3), at most `max_body`. Returns the message without its body and the
/// body's length.
fn parse_head(block: &[u8], max_body: usize) -> Result<(Message, usize), HttpError> {
    let head = std::str::from_utf8(&block[..block.len() - 4])
        .map_err(|_| HttpError::new(400, "headers are not valid UTF-8"))?;
    let mut lines = head.split("\r\n");
    let start_line = lines.next().unwrap_or("").to_string();
    let mut headers = Vec::new();
    let mut content_length: Option<usize> = None;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            return Err(HttpError::new(
                400,
                format!("malformed header line {line:?}"),
            ));
        };
        let (name, value) = (name.trim().to_ascii_lowercase(), value.trim());
        if name == "content-length" {
            let bad = || HttpError::new(400, format!("bad Content-Length {value:?}"));
            if !value.bytes().all(|b| b.is_ascii_digit()) {
                return Err(bad());
            }
            let n = value.parse().map_err(|_| bad())?;
            if content_length.is_some_and(|prev| prev != n) {
                return Err(HttpError::new(400, "conflicting Content-Length headers"));
            }
            content_length = Some(n);
        }
        headers.push((name, value.to_string()));
    }
    let content_length = content_length.unwrap_or(0);
    if content_length > max_body {
        return Err(HttpError::new(
            413,
            format!("body of {content_length} bytes exceeds the {max_body}-byte limit"),
        ));
    }
    let message = Message {
        start_line,
        headers,
        body: Vec::new(),
    };
    Ok((message, content_length))
}

/// Reads one message — a head block of at most [`MAX_HEAD_BYTES`], blank
/// line included, then exactly `Content-Length` body bytes — for the server
/// and the client alike. This is the only place either reads the wire.
///
/// `carry` holds bytes already read off this connection but not yet
/// consumed; the message's bytes are drained from it and any surplus (the
/// next pipelined message) is left for the next call. Returns `Ok(None)`
/// when the stream ends with nothing buffered.
///
/// # Errors
///
/// [`ReadError::Io`] when a read fails; [`ReadError::Framing`] with 400 for
/// malformed or truncated framing, 413 for a body over `max_body` and 431
/// for a head block over the cap.
pub(crate) fn read_message<R: Read>(
    stream: &mut R,
    carry: &mut Vec<u8>,
    max_body: usize,
) -> Result<Option<Message>, ReadError> {
    let mut chunk = [0u8; 4096];
    // The parsed head and where its body starts and ends in `carry`.
    let mut head: Option<(Message, usize, usize)> = None;
    let (mut message, body_start, body_end) = loop {
        if head.is_none() {
            // The head block ends just past its blank line; with none
            // buffered yet, it can only end past `carry`.
            let end = carry
                .windows(4)
                .position(|w| w == b"\r\n\r\n")
                .map(|p| p + 4);
            if end.unwrap_or(carry.len() + 1) > MAX_HEAD_BYTES {
                return Err(ReadError::Framing(HttpError::new(
                    431,
                    format!("head block exceeds {MAX_HEAD_BYTES} bytes"),
                )));
            }
            if let Some(end) = end {
                let (message, body_len) =
                    parse_head(&carry[..end], max_body).map_err(ReadError::Framing)?;
                head = Some((message, end, end + body_len));
            }
        }
        if let Some(done) = head.take_if(|(_, _, body_end)| carry.len() >= *body_end) {
            break done;
        }
        let n = stream.read(&mut chunk).map_err(ReadError::Io)?;
        if n == 0 {
            if carry.is_empty() {
                return Ok(None);
            }
            return Err(ReadError::Framing(HttpError::new(
                400,
                "connection closed in the middle of a message",
            )));
        }
        carry.extend_from_slice(&chunk[..n]);
    };
    // Surplus bytes past this message's body belong to the next one: leave
    // them in the carry buffer.
    let surplus = carry.split_off(body_end);
    let mut consumed = std::mem::replace(carry, surplus);
    message.body = consumed.split_off(body_start);
    Ok(Some(message))
}

/// Reads one request from `stream` through `read_message` (same `carry`
/// contract). Returns `Ok(None)` on a clean end-of-connection: EOF or an
/// idle (read-timeout) expiry with no partial request buffered.
///
/// # Errors
///
/// Returns an [`HttpError`] carrying the status the failure should be
/// reported as: 400 for framing/encoding problems, 408 for a timeout
/// mid-request, 413 when the declared body exceeds `max_body`, 431 for
/// oversized headers, 501 for `Transfer-Encoding` bodies.
pub fn read_request<R: Read>(
    stream: &mut R,
    carry: &mut Vec<u8>,
    max_body: usize,
) -> Result<Option<Request>, HttpError> {
    let message = match read_message(stream, carry, max_body) {
        Ok(Some(m)) => m,
        Ok(None) => return Ok(None), // clean close between requests
        Err(ReadError::Io(e))
            if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) =>
        {
            if carry.is_empty() {
                return Ok(None); // idle keep-alive connection: close quietly
            }
            return Err(HttpError::new(408, "connection idled out mid-request"));
        }
        Err(ReadError::Io(e)) => return Err(HttpError::new(400, format!("read failed: {e}"))),
        Err(ReadError::Framing(e)) => return Err(e),
    };
    let mut parts = message.start_line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| HttpError::new(400, "empty request line"))?
        .to_string();
    let target = parts
        .next()
        .ok_or_else(|| HttpError::new(400, "request line has no target"))?
        .to_string();
    let version = parts.next().unwrap_or("");
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::new(
            400,
            format!("unsupported protocol version {version:?}"),
        ));
    }
    // HTTP/1.1 defaults to keep-alive, HTTP/1.0 to close.
    let mut keep_alive = version != "HTTP/1.0";
    for (name, value) in &message.headers {
        match name.as_str() {
            "transfer-encoding" => {
                return Err(HttpError::new(
                    501,
                    "Transfer-Encoding bodies are not supported; send Content-Length",
                ))
            }
            "connection" => {
                for token in value.split(',') {
                    match token.trim().to_ascii_lowercase().as_str() {
                        "close" => keep_alive = false,
                        "keep-alive" if version == "HTTP/1.0" => keep_alive = true,
                        _ => {}
                    }
                }
            }
            _ => {}
        }
    }
    Ok(Some(Request {
        method,
        target,
        body: message.body,
        keep_alive,
    }))
}

/// Canonical reason phrase for the status codes the server emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
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
        504 => "Gateway Timeout",
        _ => "Status",
    }
}

/// Writes a complete JSON response. `keep_alive` selects the
/// `Connection: keep-alive` / `Connection: close` header; the server closes
/// the socket after a `close` response.
///
/// # Errors
///
/// Propagates I/O errors from the underlying stream.
pub fn write_response<W: Write>(
    stream: &mut W,
    status: u16,
    extra_headers: &[(&str, &str)],
    body: &[u8],
    keep_alive: bool,
) -> std::io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: {}\r\n",
        reason(status),
        body.len(),
        if keep_alive { "keep-alive" } else { "close" }
    );
    for (name, value) in extra_headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    // One write for head + body: on a keep-alive socket, two small writes
    // interact with Nagle + delayed ACK and stall the response by tens of
    // milliseconds.
    let mut frame = head.into_bytes();
    frame.extend_from_slice(body);
    stream.write_all(&frame)?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn parse(raw: &str) -> Result<Option<Request>, HttpError> {
        let mut carry = Vec::new();
        read_request(
            &mut Cursor::new(raw.as_bytes().to_vec()),
            &mut carry,
            1 << 20,
        )
    }

    fn parse_one(raw: &str) -> Result<Request, HttpError> {
        parse(raw).map(|r| r.expect("request expected"))
    }

    #[test]
    fn parses_simple_post() {
        let r = parse_one("POST /optimize HTTP/1.1\r\nContent-Length: 4\r\n\r\nabcd").unwrap();
        assert_eq!(r.method, "POST");
        assert_eq!(r.target, "/optimize");
        assert_eq!(r.body, b"abcd");
        assert!(r.keep_alive, "HTTP/1.1 defaults to keep-alive");
    }

    #[test]
    fn get_without_body() {
        let r = parse_one("GET /health HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(r.method, "GET");
        assert!(r.body.is_empty());
    }

    #[test]
    fn connection_header_controls_keep_alive() {
        let r = parse_one("GET / HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
        assert!(!r.keep_alive);
        let r = parse_one("GET / HTTP/1.0\r\n\r\n").unwrap();
        assert!(!r.keep_alive, "HTTP/1.0 defaults to close");
        let r = parse_one("GET / HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n").unwrap();
        assert!(r.keep_alive);
        let r = parse_one("GET / HTTP/1.1\r\nConnection: foo, Close\r\n\r\n").unwrap();
        assert!(!r.keep_alive, "close wins in a token list");
    }

    #[test]
    fn pipelined_requests_parse_back_to_back() {
        let raw = "POST /optimize HTTP/1.1\r\nContent-Length: 3\r\n\r\nabc\
                   GET /health HTTP/1.1\r\n\r\n";
        let mut carry = Vec::new();
        let mut cursor = Cursor::new(raw.as_bytes().to_vec());
        let a = read_request(&mut cursor, &mut carry, 1 << 20)
            .unwrap()
            .expect("first request");
        assert_eq!(a.body, b"abc");
        assert!(
            !carry.is_empty(),
            "second pipelined request stays in the carry buffer"
        );
        let b = read_request(&mut cursor, &mut carry, 1 << 20)
            .unwrap()
            .expect("second request");
        assert_eq!(b.method, "GET");
        assert_eq!(b.target, "/health");
        assert!(carry.is_empty());
        // A third read sees EOF at a request boundary: clean close.
        assert!(read_request(&mut cursor, &mut carry, 1 << 20)
            .unwrap()
            .is_none());
    }

    #[test]
    fn eof_at_request_boundary_is_clean_close() {
        assert!(parse("").unwrap().is_none());
    }

    #[test]
    fn truncated_body_is_400() {
        let e = parse("POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nab").unwrap_err();
        assert_eq!(e.status, 400);
    }

    #[test]
    fn oversized_body_is_413() {
        let raw = "POST / HTTP/1.1\r\nContent-Length: 99\r\n\r\n";
        let mut carry = Vec::new();
        let e =
            read_request(&mut Cursor::new(raw.as_bytes().to_vec()), &mut carry, 10).unwrap_err();
        assert_eq!(e.status, 413);
    }

    #[test]
    fn conflicting_content_lengths_are_400() {
        let e = parse("POST / HTTP/1.1\r\nContent-Length: 3\r\nContent-Length: 4\r\n\r\nabcd")
            .unwrap_err();
        assert_eq!(e.status, 400);
        // Identical repeats frame the same body.
        let r = parse_one("POST / HTTP/1.1\r\nContent-Length: 3\r\ncontent-length: 3\r\n\r\nabc")
            .unwrap();
        assert_eq!(r.body, b"abc");
    }

    #[test]
    fn non_digit_content_length_is_400() {
        for value in ["+5", "-5", "5 5", "0x5", "", "5."] {
            let raw = format!("POST / HTTP/1.1\r\nContent-Length: {value}\r\n\r\nabcde");
            assert_eq!(parse(&raw).unwrap_err().status, 400, "{value:?}");
        }
    }

    #[test]
    fn chunked_encoding_is_501() {
        let e = parse("POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n").unwrap_err();
        assert_eq!(e.status, 501);
    }

    #[test]
    fn unbounded_headers_are_431() {
        let raw = format!(
            "GET / HTTP/1.1\r\nX-Junk: {}\r\n\r\n",
            "a".repeat(64 * 1024)
        );
        let e = parse(&raw).unwrap_err();
        assert_eq!(e.status, 431);
    }

    /// A `GET` whose head block, blank line included, is `len` bytes long.
    fn head_of_len(len: usize) -> String {
        let bare = "GET / HTTP/1.1\r\nX-Junk: \r\n\r\n".len();
        format!(
            "GET / HTTP/1.1\r\nX-Junk: {}\r\n\r\n",
            "a".repeat(len - bare)
        )
    }

    #[test]
    fn head_cap_is_exact() {
        let over = head_of_len(MAX_HEAD_BYTES + 100);
        assert_eq!(over.len(), MAX_HEAD_BYTES + 100);
        assert_eq!(parse(&over).unwrap_err().status, 431);
        let at_cap = head_of_len(MAX_HEAD_BYTES);
        assert_eq!(parse_one(&at_cap).unwrap().target, "/");
        assert_eq!(
            parse(&head_of_len(MAX_HEAD_BYTES + 1)).unwrap_err().status,
            431
        );
    }

    #[test]
    fn garbage_request_line_is_400() {
        assert_eq!(parse("\r\n\r\n").unwrap_err().status, 400);
        assert_eq!(parse("GET\r\n\r\n").unwrap_err().status, 400);
        assert_eq!(parse("GET / SPDY/9\r\n\r\n").unwrap_err().status, 400);
    }
}
