//! Benchmark-owned keep-alive HTTP/1.1 client: one request in flight per
//! connection (closed loop), `Content-Length` framing only — which is all
//! the server under test emits.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

pub struct HttpClient {
    addr: SocketAddr,
    stream: TcpStream,
    buf: Vec<u8>,
}

/// One response: status and where the body sits in the client's buffer.
pub struct Reply {
    pub status: u16,
    pub total_len: usize,
    body_start: usize,
}

impl HttpClient {
    pub fn connect(addr: SocketAddr) -> io::Result<HttpClient> {
        Ok(HttpClient {
            addr,
            stream: dial(addr)?,
            buf: vec![0; 64 * 1024],
        })
    }

    /// After a failed exchange the connection's framing is unknown.
    pub fn reconnect(&mut self) -> io::Result<()> {
        self.stream = dial(self.addr)?;
        Ok(())
    }

    pub fn body(&self, r: &Reply) -> &[u8] {
        &self.buf[r.body_start..r.total_len]
    }

    /// Write `request`, then read exactly one response.
    pub fn roundtrip(&mut self, request: &[u8]) -> io::Result<Reply> {
        self.stream.write_all(request)?;
        let mut filled = 0;
        let mut head_end = None;
        let (status, content_length, body_start) = loop {
            if filled == self.buf.len() {
                return Err(io::Error::other("response head larger than client buffer"));
            }
            let n = self.stream.read(&mut self.buf[filled..])?;
            if n == 0 {
                return Err(io::ErrorKind::UnexpectedEof.into());
            }
            // Re-scan only the bytes that could complete a terminator.
            let from = filled.saturating_sub(3);
            filled += n;
            if head_end.is_none() {
                head_end = find(&self.buf[from..filled], b"\r\n\r\n").map(|i| from + i + 4);
            }
            if let Some(end) = head_end {
                break parse_head(&self.buf[..end])?;
            }
        };
        let total_len = body_start + content_length;
        if total_len > self.buf.len() {
            self.buf.resize(total_len, 0);
        }
        if filled > total_len {
            return Err(io::Error::other("bytes past the framed response"));
        }
        self.stream.read_exact(&mut self.buf[filled..total_len])?;
        Ok(Reply {
            status,
            total_len,
            body_start,
        })
    }
}

fn dial(addr: SocketAddr) -> io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    // A lost reply must become a counted failure, not a hung benchmark.
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    stream.set_write_timeout(Some(Duration::from_secs(5)))?;
    Ok(stream)
}

fn find(hay: &[u8], needle: &[u8]) -> Option<usize> {
    hay.windows(needle.len()).position(|w| w == needle)
}

/// `(status, content_length, head_len)` of a complete response head.
fn parse_head(head: &[u8]) -> io::Result<(u16, usize, usize)> {
    let bad = || io::Error::other("malformed response head");
    let status = std::str::from_utf8(head.get(9..12).ok_or_else(bad)?)
        .ok()
        .and_then(|s| s.parse().ok())
        .ok_or_else(bad)?;
    let mut content_length = 0;
    for line in head.split(|&b| b == b'\n').skip(1) {
        if let Some(colon) = line.iter().position(|&b| b == b':') {
            if line[..colon].eq_ignore_ascii_case(b"content-length") {
                content_length = std::str::from_utf8(&line[colon + 1..])
                    .ok()
                    .and_then(|s| s.trim().parse().ok())
                    .ok_or_else(bad)?;
            }
        }
    }
    Ok((status, content_length, head.len()))
}

/// `GET {route}?query=<percent-encoded>` request bytes.
pub fn get_request(query: &str) -> Vec<u8> {
    let mut out = b"GET /sparql?query=".to_vec();
    sparql_rewrite_server::request::percent_encode_into(query, &mut out);
    out.extend_from_slice(b" HTTP/1.1\r\nHost: bench\r\n\r\n");
    out
}

/// `POST {route}` with the query as an `application/sparql-query` body.
pub fn post_request(query: &str) -> Vec<u8> {
    let mut out = format!(
        "POST /sparql HTTP/1.1\r\nHost: bench\r\nContent-Type: application/sparql-query\r\nContent-Length: {}\r\n\r\n",
        query.len()
    )
    .into_bytes();
    out.extend_from_slice(query.as_bytes());
    out
}
