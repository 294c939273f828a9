//! A minimal blocking HTTP/1.1 client for the job server: one request per
//! connection, and a chunked-stream reader that timestamps every NDJSON line
//! as it arrives.
//!
//! Responses are read with plain string matching on the server's compact
//! JSON rather than through the server crate's JSON type, so the benchmark
//! depends on the wire format only.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Instant;

/// A complete response.
#[derive(Debug)]
pub struct Reply {
    /// Status code.
    pub status: u16,
    /// Body text (chunked transfer decoded).
    pub body: String,
}

/// A streamed response: every complete body line with its arrival time.
#[derive(Debug)]
pub struct Streamed {
    /// Status code.
    pub status: u16,
    /// Lines in arrival order.
    pub lines: Vec<(Instant, String)>,
}

fn invalid(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

fn send(addr: SocketAddr, method: &str, path: &str, body: &str) -> io::Result<TcpStream> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: ltp\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()?;
    Ok(stream)
}

/// Reads the response head; returns the status, whether the body is
/// chunked, and the body bytes already received.
fn read_head(stream: &mut TcpStream) -> io::Result<(u16, bool, Vec<u8>)> {
    let mut buf = Vec::new();
    let mut tmp = [0u8; 8192];
    loop {
        if let Some(end) = find(&buf, b"\r\n\r\n") {
            let head = std::str::from_utf8(&buf[..end]).map_err(|_| invalid("non-UTF-8 head"))?;
            let mut lines = head.split("\r\n");
            let status = lines
                .next()
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| invalid("bad status line"))?;
            let chunked = lines.any(|l| {
                let l = l.to_ascii_lowercase();
                l.starts_with("transfer-encoding:") && l.contains("chunked")
            });
            return Ok((status, chunked, buf[end + 4..].to_vec()));
        }
        let n = stream.read(&mut tmp)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed in the response head",
            ));
        }
        buf.extend_from_slice(&tmp[..n]);
    }
}

/// Decodes as much of a chunked body as `buf` holds, feeding each chunk's
/// data to `sink`. Returns `true` at the terminating chunk, `false` when more
/// bytes are needed.
fn drain_chunks(buf: &mut Vec<u8>, sink: &mut impl FnMut(&[u8])) -> io::Result<bool> {
    loop {
        let Some(line_end) = find(buf, b"\r\n") else {
            return Ok(false);
        };
        let size_text = std::str::from_utf8(&buf[..line_end]).map_err(|_| invalid("chunk size"))?;
        let size =
            usize::from_str_radix(size_text.trim(), 16).map_err(|_| invalid("chunk size"))?;
        if size == 0 {
            return Ok(true);
        }
        if buf.len() < line_end + 2 + size + 2 {
            return Ok(false);
        }
        sink(&buf[line_end + 2..line_end + 2 + size]);
        buf.drain(..line_end + 2 + size + 2);
    }
}

/// Reads the body to its end, calling `sink` with each piece as it lands.
fn read_body(
    stream: &mut TcpStream,
    chunked: bool,
    mut buf: Vec<u8>,
    mut sink: impl FnMut(&[u8]),
) -> io::Result<()> {
    let mut tmp = [0u8; 16384];
    if !chunked {
        sink(&buf);
        loop {
            let n = stream.read(&mut tmp)?;
            if n == 0 {
                return Ok(());
            }
            sink(&tmp[..n]);
        }
    }
    loop {
        if drain_chunks(&mut buf, &mut sink)? {
            return Ok(());
        }
        let n = stream.read(&mut tmp)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed mid-stream",
            ));
        }
        buf.extend_from_slice(&tmp[..n]);
    }
}

/// Sends one request and reads the whole response.
///
/// # Errors
///
/// Socket errors and malformed responses.
pub fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> io::Result<Reply> {
    let mut stream = send(addr, method, path, body)?;
    let (status, chunked, buf) = read_head(&mut stream)?;
    let mut bytes = Vec::new();
    read_body(&mut stream, chunked, buf, |piece| {
        bytes.extend_from_slice(piece)
    })?;
    let body = String::from_utf8(bytes).map_err(|_| invalid("non-UTF-8 body"))?;
    Ok(Reply { status, body })
}

/// Sends a GET and collects the body's lines, each stamped with the time its
/// last byte arrived.
///
/// # Errors
///
/// Socket errors and malformed responses.
pub fn stream_lines(addr: SocketAddr, path: &str) -> io::Result<Streamed> {
    let mut stream = send(addr, "GET", path, "")?;
    let (status, chunked, buf) = read_head(&mut stream)?;
    let mut lines = Vec::new();
    let mut partial = Vec::new();
    read_body(&mut stream, chunked, buf, |piece| {
        let now = Instant::now();
        partial.extend_from_slice(piece);
        while let Some(nl) = partial.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = partial.drain(..=nl).collect();
            lines.push((now, String::from_utf8_lossy(&line[..nl]).into_owned()));
        }
    })?;
    if !partial.is_empty() {
        lines.push((
            Instant::now(),
            String::from_utf8_lossy(&partial).into_owned(),
        ));
    }
    Ok(Streamed { status, lines })
}

/// The unsigned integer value of `"key":` in compact JSON text.
#[must_use]
pub fn json_u64(text: &str, key: &str) -> Option<u64> {
    let at = text.find(&format!("\"{key}\":"))? + key.len() + 3;
    let digits: String = text[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

/// The string value of `"key":"..."` in compact JSON text (no escapes).
#[must_use]
pub fn json_str<'a>(text: &'a str, key: &str) -> Option<&'a str> {
    let at = text.find(&format!("\"{key}\":\""))? + key.len() + 4;
    let len = text[at..].find('"')?;
    Some(&text[at..at + len])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunked_bodies_decode_incrementally() {
        let mut got = Vec::new();
        let mut buf = b"5\r\nhel".to_vec();
        assert!(!drain_chunks(&mut buf, &mut |p: &[u8]| got.extend_from_slice(p)).unwrap());
        assert!(got.is_empty());
        buf.extend_from_slice(b"lo\r\n1\r\n!\r\n0\r\n\r\n");
        assert!(drain_chunks(&mut buf, &mut |p: &[u8]| got.extend_from_slice(p)).unwrap());
        assert_eq!(got, b"hello!");
    }

    #[test]
    fn compact_json_fields_are_extracted() {
        let text = r#"{"final":true,"state":"done","completed":6,"digest":"0x00ab","cache":{"hits":3,"misses":0}}"#;
        assert_eq!(json_str(text, "state"), Some("done"));
        assert_eq!(json_str(text, "digest"), Some("0x00ab"));
        assert_eq!(json_u64(text, "completed"), Some(6));
        assert_eq!(json_u64(text, "misses"), Some(0));
        assert_eq!(json_u64(text, "absent"), None);
    }
}
