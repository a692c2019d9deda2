//! Shared bounded HTTP/1.1 framing primitives.
//!
//! One implementation of line reading, header scanning (obs-folds,
//! `Content-Length` agreement, `Transfer-Encoding: chunked`, `Connection`
//! tokens), chunked-body decoding, and deadline-armed socket reads — used
//! by **both** sides of the system: the federation client transport
//! ([`crate::federate::HttpTransport`] parses endpoint responses with
//! [`read_response`]) and the server front end (`crates/server` parses
//! incoming requests with the same [`read_line_bounded`] /
//! [`read_headers`] / [`read_chunked_body_into`] primitives). Sharing the
//! module is a correctness stance, not a convenience: the client's chaos
//! suite (`tests/http_chaos.rs`) and the server's malformed-request
//! battery pin the *same* byte-level framing code, so the two sides cannot
//! drift apart in how they count header budgets, unfold continuations, or
//! reject a lying `Content-Length`.
//!
//! Every reader is pure over [`BufRead`] and charges consumed bytes
//! against explicit budgets, so the full edge-case surface is testable on
//! byte slices with no sockets involved. The one socket-aware piece is
//! [`DeadlineReader`]: a [`Read`] adapter over `&TcpStream` that re-arms
//! the OS read timeout to the remaining deadline before *every* syscall,
//! which bounds total read time even against a slow-loris peer that keeps
//! each individual syscall short.

use std::cell::Cell;
use std::io::{self, BufRead, Read};
use std::net::TcpStream;
use std::time::Instant;

/// Caps on what a framing reader will buffer. Exceeding either is a
/// *permanent* error: a peer that ships multi-megabyte headers is broken,
/// not busy.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct HttpLimits {
    /// Start line + all header bytes (folded continuations included).
    pub max_header_bytes: usize,
    /// Decoded body bytes (Content-Length or summed chunks).
    pub max_body_bytes: usize,
}

impl Default for HttpLimits {
    fn default() -> HttpLimits {
        HttpLimits {
            max_header_bytes: 16 * 1024,
            max_body_bytes: 4 * 1024 * 1024,
        }
    }
}

/// Structured failure of one HTTP exchange. The retry classification
/// (`class()`) lives with the federation client in `federate::http`; the
/// server maps these onto response-status classes instead.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum HttpError {
    /// First line was not `HTTP/1.x <3-digit status> ...`.
    MalformedStatusLine,
    /// A header line without a colon, or a fold with no header to extend.
    MalformedHeader,
    /// Start line + headers exceeded [`HttpLimits::max_header_bytes`].
    HeadersTooLarge,
    /// Declared or decoded body exceeded [`HttpLimits::max_body_bytes`].
    BodyTooLarge,
    /// Unparseable or self-contradictory `Content-Length`.
    InvalidContentLength,
    /// Bad chunk-size line, missing chunk CRLF, or oversized chunk header.
    InvalidChunk,
    /// The peer closed the connection mid-status, mid-header, or mid-body.
    Truncated,
    /// The endpoint authority did not resolve to a socket address.
    BadAddress,
    /// Non-2xx response status (body was drained, connection preserved).
    Status(u16),
    /// Socket-level error; `TimedOut` means the deadline budget expired.
    Io(io::ErrorKind),
}

impl HttpError {
    /// True when the failure is the deadline budget running out — the
    /// client transport reports these with `latency_nanos >= budget` so
    /// the executor classifies the attempt as timed out, not merely
    /// failed; the server maps them to `408 Request Timeout`.
    pub fn is_timeout(&self) -> bool {
        matches!(self, HttpError::Io(io::ErrorKind::TimedOut))
    }

    /// Canonicalize an [`io::Error`] into the framing taxonomy.
    pub fn from_io(e: &io::Error) -> HttpError {
        match e.kind() {
            // Unix reports an expired SO_RCVTIMEO/SO_SNDTIMEO as WouldBlock.
            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => {
                HttpError::Io(io::ErrorKind::TimedOut)
            }
            io::ErrorKind::UnexpectedEof => HttpError::Truncated,
            kind => HttpError::Io(kind),
        }
    }
}

/// One parsed HTTP response.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct HttpResponse {
    pub status: u16,
    pub body: Vec<u8>,
    /// The connection must not be reused: the peer said `Connection:
    /// close` or the body was EOF-framed.
    pub close: bool,
}

/// Framing facts a header block declares, collected by [`read_headers`].
#[derive(Copy, Clone, Default, PartialEq, Eq, Debug)]
pub struct HeaderFraming {
    /// Agreed `Content-Length` (duplicates must match; conflicts are a
    /// request-smuggling-shaped protocol violation and error out).
    pub content_length: Option<u64>,
    /// `Transfer-Encoding` contained the `chunked` token.
    pub chunked: bool,
    /// `Connection` contained the `close` token.
    pub close: bool,
    /// `Connection` contained the `keep-alive` token (the HTTP/1.0
    /// opt-in; HTTP/1.1 keeps alive by default).
    pub keep_alive: bool,
}

/// Read one HTTP/1.1 response from `r`, enforcing `limits`.
///
/// Handles the full framing surface a real endpoint can emit: status
/// line, header obs-folds, `Content-Length` bodies, `chunked` transfer
/// coding (extensions and trailers included), EOF-framed bodies, and
/// bodiless 204/304 responses. Pure over any [`BufRead`], which is what
/// lets the edge-case battery and the mutation fuzz run on byte slices
/// with no sockets involved.
pub fn read_response<R: BufRead>(
    r: &mut R,
    limits: &HttpLimits,
) -> Result<HttpResponse, HttpError> {
    let mut header_budget = limits.max_header_bytes;
    let mut line = Vec::new();
    let mut pending = Vec::new();
    read_line_bounded(r, &mut line, &mut header_budget, HttpError::HeadersTooLarge)?;
    let status = parse_status_line(&line)?;

    let mut framing = HeaderFraming::default();
    read_headers(
        r,
        &mut line,
        &mut pending,
        &mut header_budget,
        &mut framing,
        &mut |_, _| {},
    )?;
    let mut close = framing.close;

    let body = if status == 204 || status == 304 {
        Vec::new()
    } else if framing.chunked {
        let mut body = Vec::new();
        read_chunked_body_into(r, limits, &mut body)?;
        body
    } else if let Some(n) = framing.content_length {
        if n > limits.max_body_bytes as u64 {
            return Err(HttpError::BodyTooLarge);
        }
        let mut body = vec![0u8; n as usize];
        r.read_exact(&mut body)
            .map_err(|e| HttpError::from_io(&e))?;
        body
    } else {
        // No framing at all: the body runs to EOF and the connection is
        // spent.
        close = true;
        read_to_end_bounded(r, limits.max_body_bytes)?
    };
    Ok(HttpResponse {
        status,
        body,
        close,
    })
}

/// `HTTP/1.<d> <3-digit status> [reason]`.
pub(crate) fn parse_status_line(line: &[u8]) -> Result<u16, HttpError> {
    let rest = match line.strip_prefix(b"HTTP/1.") {
        Some(r) => r,
        None => return Err(HttpError::MalformedStatusLine),
    };
    if rest.len() < 5
        || !rest[0].is_ascii_digit()
        || rest[1] != b' '
        || !rest[2..5].iter().all(u8::is_ascii_digit)
        || (rest.len() > 5 && rest[5] != b' ')
    {
        return Err(HttpError::MalformedStatusLine);
    }
    let status =
        (rest[2] - b'0') as u16 * 100 + (rest[3] - b'0') as u16 * 10 + (rest[4] - b'0') as u16;
    if status < 100 {
        return Err(HttpError::MalformedStatusLine);
    }
    Ok(status)
}

/// Read a header block (everything after the start line, up to and
/// including the blank line), unfolding obs-fold continuations and
/// charging every byte against `*budget`.
///
/// Framing-relevant headers (`Content-Length`, `Transfer-Encoding`,
/// `Connection`) land in `framing`; every *other* logical header is handed
/// to `extra(name, value)` with surrounding whitespace trimmed — the
/// server uses this for `Content-Type`, the client ignores it. `line` and
/// `pending` are caller-owned scratch so a steady-state server loop can
/// run this without allocating.
pub fn read_headers<R: BufRead>(
    r: &mut R,
    line: &mut Vec<u8>,
    pending: &mut Vec<u8>,
    budget: &mut usize,
    framing: &mut HeaderFraming,
    extra: &mut dyn FnMut(&[u8], &[u8]),
) -> Result<(), HttpError> {
    pending.clear();
    loop {
        read_line_bounded(r, line, budget, HttpError::HeadersTooLarge)?;
        if line.is_empty() {
            process_header(pending, framing, extra)?;
            return Ok(());
        }
        if line[0] == b' ' || line[0] == b'\t' {
            if pending.is_empty() {
                return Err(HttpError::MalformedHeader);
            }
            pending.push(b' ');
            pending.extend_from_slice(trim_ascii(line));
        } else {
            process_header(pending, framing, extra)?;
            pending.clear();
            pending.extend_from_slice(line);
        }
    }
}

fn process_header(
    header: &[u8],
    framing: &mut HeaderFraming,
    extra: &mut dyn FnMut(&[u8], &[u8]),
) -> Result<(), HttpError> {
    if header.is_empty() {
        return Ok(());
    }
    let colon = match header.iter().position(|&b| b == b':') {
        Some(c) => c,
        None => return Err(HttpError::MalformedHeader),
    };
    let name = trim_ascii(&header[..colon]);
    let value = trim_ascii(&header[colon + 1..]);
    if name.eq_ignore_ascii_case(b"content-length") {
        if value.is_empty() || !value.iter().all(u8::is_ascii_digit) || value.len() > 18 {
            return Err(HttpError::InvalidContentLength);
        }
        let mut n = 0u64;
        for &d in value {
            n = n * 10 + (d - b'0') as u64;
        }
        // Duplicate headers must agree; conflicting lengths are a
        // request-smuggling-shaped protocol violation.
        if framing
            .content_length
            .replace(n)
            .is_some_and(|prev| prev != n)
        {
            return Err(HttpError::InvalidContentLength);
        }
    } else if name.eq_ignore_ascii_case(b"transfer-encoding") {
        if contains_token_ci(value, b"chunked") {
            framing.chunked = true;
        }
    } else if name.eq_ignore_ascii_case(b"connection") {
        if contains_token_ci(value, b"close") {
            framing.close = true;
        }
        if contains_token_ci(value, b"keep-alive") {
            framing.keep_alive = true;
        }
    } else {
        extra(name, value);
    }
    Ok(())
}

/// Decode a `chunked` body into `body` (appending), enforcing
/// `limits.max_body_bytes` on the decoded total. Chunk-size lines and the
/// trailer section get their own small budgets — a peer streaming an
/// endless size line is broken, not large.
pub fn read_chunked_body_into<R: BufRead>(
    r: &mut R,
    limits: &HttpLimits,
    body: &mut Vec<u8>,
) -> Result<(), HttpError> {
    let mut line = Vec::new();
    loop {
        let mut chunk_budget = 256usize;
        read_line_bounded(r, &mut line, &mut chunk_budget, HttpError::InvalidChunk)?;
        let size_part = match line.iter().position(|&b| b == b';') {
            Some(p) => &line[..p],
            None => &line[..],
        };
        let size_part = trim_ascii(size_part);
        if size_part.is_empty() || size_part.len() > 8 {
            return Err(HttpError::InvalidChunk);
        }
        let mut size = 0usize;
        for &b in size_part {
            let d = match b {
                b'0'..=b'9' => b - b'0',
                b'a'..=b'f' => b - b'a' + 10,
                b'A'..=b'F' => b - b'A' + 10,
                _ => return Err(HttpError::InvalidChunk),
            };
            size = size * 16 + d as usize;
        }
        if size == 0 {
            // Trailer section: headers we ignore, up to the empty line.
            let mut trailer_budget = 4096usize;
            loop {
                read_line_bounded(r, &mut line, &mut trailer_budget, HttpError::InvalidChunk)?;
                if line.is_empty() {
                    return Ok(());
                }
            }
        }
        if body.len() + size > limits.max_body_bytes {
            return Err(HttpError::BodyTooLarge);
        }
        let start = body.len();
        body.resize(start + size, 0);
        r.read_exact(&mut body[start..])
            .map_err(|e| HttpError::from_io(&e))?;
        let mut crlf = [0u8; 2];
        r.read_exact(&mut crlf)
            .map_err(|e| HttpError::from_io(&e))?;
        if crlf != *b"\r\n" {
            return Err(HttpError::InvalidChunk);
        }
    }
}

/// Read one `\n`-terminated line (CR stripped) into `out`, charging the
/// consumed bytes against `*budget` and failing with `overflow` once it
/// is exceeded. EOF before the terminator is [`HttpError::Truncated`].
pub fn read_line_bounded<R: BufRead>(
    r: &mut R,
    out: &mut Vec<u8>,
    budget: &mut usize,
    overflow: HttpError,
) -> Result<(), HttpError> {
    out.clear();
    loop {
        let buf = match r.fill_buf() {
            Ok(b) => b,
            Err(e) => return Err(HttpError::from_io(&e)),
        };
        if buf.is_empty() {
            return Err(HttpError::Truncated);
        }
        match buf.iter().position(|&b| b == b'\n') {
            Some(pos) => {
                if pos + 1 > *budget {
                    return Err(overflow);
                }
                *budget -= pos + 1;
                out.extend_from_slice(&buf[..pos]);
                r.consume(pos + 1);
                if out.last() == Some(&b'\r') {
                    out.pop();
                }
                return Ok(());
            }
            None => {
                let n = buf.len();
                if n > *budget {
                    return Err(overflow);
                }
                *budget -= n;
                out.extend_from_slice(buf);
                r.consume(n);
            }
        }
    }
}

/// Read to EOF, failing with [`HttpError::BodyTooLarge`] past `cap`.
pub(crate) fn read_to_end_bounded<R: BufRead>(r: &mut R, cap: usize) -> Result<Vec<u8>, HttpError> {
    let mut body = Vec::new();
    loop {
        let buf = match r.fill_buf() {
            Ok(b) => b,
            Err(e) => return Err(HttpError::from_io(&e)),
        };
        if buf.is_empty() {
            return Ok(body);
        }
        if body.len() + buf.len() > cap {
            return Err(HttpError::BodyTooLarge);
        }
        body.extend_from_slice(buf);
        let n = buf.len();
        r.consume(n);
    }
}

/// Trim ASCII space/tab from both ends.
pub fn trim_ascii(mut s: &[u8]) -> &[u8] {
    while let [b' ' | b'\t', rest @ ..] = s {
        s = rest;
    }
    while let [rest @ .., b' ' | b'\t'] = s {
        s = rest;
    }
    s
}

/// Does a comma-separated header value contain `token` (ASCII
/// case-insensitive)?
pub(crate) fn contains_token_ci(value: &[u8], token: &[u8]) -> bool {
    value
        .split(|&b| b == b',')
        .any(|part| trim_ascii(part).eq_ignore_ascii_case(token))
}

/// A [`Read`] over `&TcpStream` that re-arms the socket read timeout to
/// the remaining deadline before every syscall and fails with `TimedOut`
/// once the deadline passes — which bounds *total* read time even against
/// a slow-loris peer that keeps each individual syscall short.
///
/// The deadline is interior-mutable so a server connection loop can
/// re-arm it between requests through `BufReader::get_ref()` without
/// tearing down the buffered reader (and the bytes it already holds).
pub struct DeadlineReader<'a> {
    stream: &'a TcpStream,
    deadline: Cell<Instant>,
    got_any: Cell<bool>,
}

impl<'a> DeadlineReader<'a> {
    pub fn new(stream: &'a TcpStream, deadline: Instant) -> DeadlineReader<'a> {
        DeadlineReader {
            stream,
            deadline: Cell::new(deadline),
            got_any: Cell::new(false),
        }
    }

    /// Replace the deadline governing subsequent reads (per-request
    /// re-arm on a keep-alive connection).
    pub fn set_deadline(&self, deadline: Instant) {
        self.deadline.set(deadline);
    }

    /// Whether any byte has been read since construction — the signal
    /// that separates an idle peer from one that died mid-message.
    pub(crate) fn got_any(&self) -> bool {
        self.got_any.get()
    }
}

impl Read for DeadlineReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let remaining = match self.deadline.get().checked_duration_since(Instant::now()) {
            Some(d) if !d.is_zero() => d,
            _ => return Err(io::Error::new(io::ErrorKind::TimedOut, "deadline expired")),
        };
        self.stream.set_read_timeout(Some(remaining))?;
        let mut raw: &TcpStream = self.stream;
        let n = raw.read(buf)?;
        if n > 0 {
            self.got_any.set(true);
        }
        Ok(n)
    }
}
