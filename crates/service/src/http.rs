//! Hand-rolled HTTP/1.1 framing: exactly what the job server needs — parse
//! one request per connection, write one fixed or chunked response — with no
//! async runtime. Every connection is `Connection: close`, which keeps the
//! state machine trivial (the interesting long-lived flow, result streaming,
//! is a single chunked response).

use std::io::{self, Read, Write};
use std::net::TcpStream;

/// Upper bound on request head (request line + headers) bytes.
const MAX_HEAD: usize = 64 * 1024;
/// Upper bound on request body bytes. Inline traces dominate body size: a
/// 240 k-instruction trace envelope is a few MiB of hex.
const MAX_BODY: usize = 64 * 1024 * 1024;

/// One parsed HTTP request.
#[derive(Debug)]
pub struct Request {
    /// Request method (`GET`, `POST`, `DELETE`, ...), upper-cased by the
    /// client per the HTTP grammar.
    pub method: String,
    /// Request target path (query strings are kept verbatim; the job API
    /// does not use them).
    pub target: String,
    /// Header name/value pairs in arrival order (names lower-cased).
    pub headers: Vec<(String, String)>,
    /// Request body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
}

impl Request {
    /// Case-insensitive header lookup.
    #[must_use]
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Reads one request from the stream (a connection, or any byte source).
/// Returns `Ok(None)` when the peer closed the connection before sending
/// anything (a clean no-request close).
///
/// # Errors
///
/// Propagates socket errors; malformed or oversized requests surface as
/// `InvalidData`.
pub fn read_request(stream: &mut impl Read) -> io::Result<Option<Request>> {
    let mut head = Vec::new();
    let mut buf = [0u8; 4096];
    let body_start;
    loop {
        let n = stream.read(&mut buf)?;
        if n == 0 {
            if head.is_empty() {
                return Ok(None);
            }
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed mid-request",
            ));
        }
        head.extend_from_slice(&buf[..n]);
        if let Some(pos) = find_head_end(&head) {
            body_start = pos;
            break;
        }
        if head.len() > MAX_HEAD {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "request head too large",
            ));
        }
    }

    let head_text = std::str::from_utf8(&head[..body_start])
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-UTF-8 request head"))?;
    let mut lines = head_text.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "empty request line"))?
        .to_string();
    let target = parts
        .next()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "request line has no target"))?
        .to_string();

    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "malformed header"))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    let content_length = headers
        .iter()
        .find(|(k, _)| k == "content-length")
        .map(|(_, v)| {
            v.parse::<usize>()
                .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "bad Content-Length"))
        })
        .transpose()?
        .unwrap_or(0);
    if content_length > MAX_BODY {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "request body too large",
        ));
    }

    // Whatever followed the head in the last read is the body's prefix.
    let mut body = head.split_off(body_start + 4);
    head.truncate(body_start);
    while body.len() < content_length {
        let n = stream.read(&mut buf)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed mid-body",
            ));
        }
        body.extend_from_slice(&buf[..n]);
    }
    body.truncate(content_length);

    Ok(Some(Request {
        method,
        target,
        headers,
        body,
    }))
}

/// Byte offset of the `\r\n\r\n` head terminator, if present.
fn find_head_end(bytes: &[u8]) -> Option<usize> {
    bytes.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Reason phrase for the handful of status codes the server emits.
#[must_use]
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        _ => "Unknown",
    }
}

/// Writes one complete response (status + headers + body) and flushes.
///
/// # Errors
///
/// Propagates socket errors.
pub fn write_response(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    extra_headers: &[(&str, &str)],
    body: &[u8],
) -> io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n",
        reason(status),
        body.len()
    );
    for (k, v) in extra_headers {
        head.push_str(&format!("{k}: {v}\r\n"));
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    stream.flush()
}

/// An in-flight `Transfer-Encoding: chunked` response — the result-streaming
/// transport. Each [`ChunkedResponse::chunk`] is one HTTP chunk, so clients
/// reading line-delimited JSON see every interval the moment it completes.
pub struct ChunkedResponse<'a> {
    stream: &'a mut TcpStream,
}

impl<'a> ChunkedResponse<'a> {
    /// Writes the response head and returns the chunk writer.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn start(
        stream: &'a mut TcpStream,
        status: u16,
        content_type: &str,
    ) -> io::Result<ChunkedResponse<'a>> {
        let head = format!(
            "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nTransfer-Encoding: chunked\r\nConnection: close\r\n\r\n",
            reason(status)
        );
        stream.write_all(head.as_bytes())?;
        stream.flush()?;
        Ok(ChunkedResponse { stream })
    }

    /// Writes one chunk (empty input is skipped — an empty chunk would
    /// terminate the stream).
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn chunk(&mut self, data: &[u8]) -> io::Result<()> {
        if data.is_empty() {
            return Ok(());
        }
        self.stream
            .write_all(format!("{:x}\r\n", data.len()).as_bytes())?;
        self.stream.write_all(data)?;
        self.stream.write_all(b"\r\n")?;
        self.stream.flush()
    }

    /// Writes the terminating zero-length chunk.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn finish(self) -> io::Result<()> {
        self.stream.write_all(b"0\r\n\r\n")?;
        self.stream.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    fn round_trip(raw: &[u8]) -> io::Result<Option<Request>> {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let raw = raw.to_vec();
        let client = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).expect("connect");
            s.write_all(&raw).expect("write");
        });
        let (mut server_side, _) = listener.accept().expect("accept");
        let req = read_request(&mut server_side);
        client.join().expect("client thread");
        req
    }

    #[test]
    fn parses_post_with_body() {
        let req = round_trip(
            b"POST /jobs HTTP/1.1\r\nHost: x\r\nContent-Length: 11\r\nContent-Type: application/json\r\n\r\n{\"a\":\"b c\"}",
        )
        .expect("read")
        .expect("some request");
        assert_eq!(req.method, "POST");
        assert_eq!(req.target, "/jobs");
        assert_eq!(req.header("content-type"), Some("application/json"));
        assert_eq!(req.header("Content-Type"), Some("application/json"));
        assert_eq!(req.body, b"{\"a\":\"b c\"}");
    }

    #[test]
    fn parses_get_without_body() {
        let req = round_trip(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
            .expect("read")
            .expect("some request");
        assert_eq!(req.method, "GET");
        assert_eq!(req.target, "/healthz");
        assert!(req.body.is_empty());
    }

    #[test]
    fn clean_close_is_none() {
        let req = round_trip(b"").expect("read");
        assert!(req.is_none());
    }

    #[test]
    fn truncated_body_is_an_error() {
        let err = round_trip(b"POST /jobs HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc")
            .expect_err("must fail");
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }
}
