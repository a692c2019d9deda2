//! Real SPARQL-protocol HTTP transport over `std::net::TcpStream`.
//!
//! [`HttpTransport`] implements [`EndpointTransport`] with nothing beyond
//! the standard library: each dispatch is a `POST` with an
//! `application/sparql-query` body, the response is parsed by a
//! hand-rolled bounded HTTP/1.1 reader ([`read_response`]), and the
//! executor's remaining deadline budget is mapped onto connect/read/write
//! socket timeouts so a stalled peer can never hold an endpoint slot past
//! the federated deadline ceiling.
//!
//! # One segment per subquery
//!
//! The request head and the query body are rendered into one buffer and
//! sent with a single `write_all`: connections run under `TCP_NODELAY`, so
//! every write is its own segment and its own wake-up of the member. The
//! buffer lives in the endpoint's pool slot beside the connection, so a
//! dispatch renders into capacity the previous one left behind.
//!
//! # Connection reuse
//!
//! One idle keep-alive connection is pooled per endpoint (the executor
//! serializes same-endpoint calls, so one is all a slot can use). A pooled
//! connection is health-checked on checkout with a non-blocking `peek`:
//! a closed peer or stray unread bytes (a previous response that lied
//! about its framing) disqualify it and a fresh connection is dialed.
//! If a *reused* connection dies before yielding a single response byte —
//! the classic keep-alive race where the server closed the socket while
//! it was idle — the request is transparently resent once on a fresh
//! connection; SPARQL queries are idempotent reads, so the retry is safe
//! and is not surfaced as an attempt.
//!
//! # Error taxonomy
//!
//! Every failure funnels through [`HttpError`], whose
//! [`class`](HttpError::class) maps it onto the executor's
//! transient/permanent retry split: protocol violations and size-cap
//! breaches are permanent (the peer is broken, retries are wasted);
//! connection-shaped faults (refusal, reset, truncation) are transient;
//! deadline expiry is reported with `latency_nanos >= budget` so the
//! executor classifies it as [`EndpointOutcome::TimedOut`](super::EndpointOutcome).
//! The full fault-class → outcome table lives in the README's federation
//! section and is asserted by `tests/http_chaos.rs` against the seeded
//! chaos proxy of the `sparql-rewrite-chaos` test crate.

use std::io::{self, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use super::{
    classify_http_status, classify_io_error, EndpointTransport, TransportError, TransportReply,
    TransportRequest,
};
use crate::httpcore::DeadlineReader;
// The framing layer (limits, error taxonomy, response reader) lives in
// the shared `httpcore` module so the server front end parses with the
// exact same code; re-exported here so transport callers keep their
// `federate::{HttpError, ...}` paths.
pub use crate::httpcore::{read_response, HttpError, HttpLimits, HttpResponse};

impl HttpError {
    /// Retry classification, per the documented fault-class table.
    pub fn class(&self) -> TransportError {
        match *self {
            HttpError::MalformedStatusLine
            | HttpError::MalformedHeader
            | HttpError::HeadersTooLarge
            | HttpError::BodyTooLarge
            | HttpError::InvalidContentLength
            | HttpError::InvalidChunk
            | HttpError::BadAddress => TransportError::Permanent,
            HttpError::Truncated => TransportError::Transient,
            HttpError::Status(s) => classify_http_status(s).unwrap_or(TransportError::Permanent),
            HttpError::Io(kind) => classify_io_error(kind),
        }
    }
}

/// One federation member's network coordinates.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct HttpEndpoint {
    /// `host:port`, resolved per dispatch via [`ToSocketAddrs`].
    pub authority: String,
    /// Request path of the SPARQL endpoint, e.g. `/sparql`.
    pub path: String,
}

impl HttpEndpoint {
    pub fn new(authority: impl Into<String>, path: impl Into<String>) -> HttpEndpoint {
        HttpEndpoint {
            authority: authority.into(),
            path: path.into(),
        }
    }
}

/// Transport tuning knobs.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct HttpConfig {
    pub limits: HttpLimits,
    /// Hard cap on the TCP connect wait, independent of (and bounded by)
    /// the per-attempt deadline budget.
    pub connect_cap_nanos: u64,
}

impl Default for HttpConfig {
    fn default() -> HttpConfig {
        HttpConfig {
            limits: HttpLimits::default(),
            connect_cap_nanos: 1_000_000_000,
        }
    }
}

/// What an endpoint keeps between dispatches.
#[derive(Default)]
struct PoolSlot {
    /// The idle keep-alive connection, if the last exchange left one clean.
    conn: Option<TcpStream>,
    /// The last rendered request, kept for its capacity.
    request: Vec<u8>,
}

/// Render the one-segment request for `query` into `buf`, replacing its
/// contents: head, blank line, body.
fn render_request_into(buf: &mut Vec<u8>, ep: &HttpEndpoint, query: &str) {
    buf.clear();
    write!(
        buf,
        "POST {} HTTP/1.1\r\nHost: {}\r\nContent-Type: application/sparql-query\r\n\
         Accept: application/sparql-results+json\r\nContent-Length: {}\r\n\r\n",
        ep.path,
        ep.authority,
        query.len()
    )
    .expect("writing to a Vec cannot fail");
    buf.extend_from_slice(query.as_bytes());
}

/// Blocking SPARQL-protocol HTTP transport. Indexed by
/// [`EndpointId`](super::EndpointId) like every transport: endpoint `e`
/// dials `endpoints[e]`.
pub struct HttpTransport {
    endpoints: Vec<HttpEndpoint>,
    config: HttpConfig,
    pool: Vec<Mutex<PoolSlot>>,
    reused: AtomicU64,
    transparent_reconnects: AtomicU64,
}

impl HttpTransport {
    pub fn new(endpoints: Vec<HttpEndpoint>, config: HttpConfig) -> HttpTransport {
        let pool = endpoints.iter().map(|_| Mutex::default()).collect();
        HttpTransport {
            endpoints,
            config,
            pool,
            reused: AtomicU64::new(0),
            transparent_reconnects: AtomicU64::new(0),
        }
    }

    /// Dispatches served over a pooled keep-alive connection.
    pub fn reused_connections(&self) -> u64 {
        self.reused.load(Ordering::Relaxed)
    }

    /// Requests transparently resent after a reused connection died
    /// before its first response byte (not visible as executor attempts).
    pub fn transparent_reconnects(&self) -> u64 {
        self.transparent_reconnects.load(Ordering::Relaxed)
    }

    fn pool_slot(&self, e: usize) -> MutexGuard<'_, PoolSlot> {
        self.pool[e].lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// A pooled connection is usable only if the peer is still there and
    /// has sent nothing since the last response: stray readable bytes mean
    /// the previous exchange's framing lied, and replies would desync.
    fn conn_is_clean(conn: &TcpStream) -> bool {
        if conn.set_nonblocking(true).is_err() {
            return false;
        }
        let mut probe = [0u8; 1];
        let verdict = match conn.peek(&mut probe) {
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => true,
            // Ok(0) = peer closed; Ok(_) = stray bytes; Err = broken.
            _ => false,
        };
        conn.set_nonblocking(false).is_ok() && verdict
    }

    fn connect(&self, e: usize, deadline: Instant) -> Result<TcpStream, HttpError> {
        let remaining = match deadline.checked_duration_since(Instant::now()) {
            Some(d) if !d.is_zero() => d,
            _ => return Err(HttpError::Io(io::ErrorKind::TimedOut)),
        };
        let addr = self.endpoints[e]
            .authority
            .to_socket_addrs()
            .map_err(|_| HttpError::BadAddress)?
            .next()
            .ok_or(HttpError::BadAddress)?;
        let cap = Duration::from_nanos(self.config.connect_cap_nanos.max(1));
        let stream = TcpStream::connect_timeout(&addr, remaining.min(cap))
            .map_err(|e| HttpError::from_io(&e))?;
        let _ = stream.set_nodelay(true);
        Ok(stream)
    }

    /// Write `request` (one `write_all`, one segment) and read the response
    /// on `stream`. On failure, also reports whether any response byte had
    /// arrived — the signal that decides transparent-reconnect eligibility.
    fn roundtrip(
        &self,
        stream: &TcpStream,
        request: &[u8],
        deadline: Instant,
    ) -> Result<(HttpResponse, bool), (HttpError, bool)> {
        let remaining = match deadline.checked_duration_since(Instant::now()) {
            Some(d) if !d.is_zero() => d,
            _ => return Err((HttpError::Io(io::ErrorKind::TimedOut), false)),
        };
        if stream.set_write_timeout(Some(remaining)).is_err() {
            return Err((HttpError::Io(io::ErrorKind::Other), false));
        }
        let mut w = stream;
        if let Err(e) = w.write_all(request) {
            return Err((HttpError::from_io(&e), false));
        }
        let mut reader = BufReader::with_capacity(8 * 1024, DeadlineReader::new(stream, deadline));
        match read_response(&mut reader, &self.config.limits) {
            Ok(resp) => {
                // Reusable only under explicit framing with no stray bytes
                // already buffered past the response.
                let clean = !resp.close && reader.buffer().is_empty();
                Ok((resp, clean))
            }
            Err(err) => Err((err, reader.get_ref().got_any())),
        }
    }

    fn execute_inner(&self, e: usize, query: &str, deadline: Instant) -> Result<String, HttpError> {
        // Taken out and put back, not held: the slot's lock is never kept
        // across socket I/O.
        let mut slot = std::mem::take(&mut *self.pool_slot(e));
        render_request_into(&mut slot.request, &self.endpoints[e], query);
        let result = self.exchange(e, &mut slot.conn, &slot.request, deadline);
        *self.pool_slot(e) = slot;
        result
    }

    /// Send `request` and read its response. `pooled` hands in the idle
    /// connection, if any, and takes back the one to keep.
    fn exchange(
        &self,
        e: usize,
        pooled: &mut Option<TcpStream>,
        request: &[u8],
        deadline: Instant,
    ) -> Result<String, HttpError> {
        // Round 0 may run on a pooled connection; if that connection dies
        // before a single response byte, round 1 resends on a fresh dial.
        for _ in 0..2 {
            let (stream, reused) = match pooled.take().filter(Self::conn_is_clean) {
                Some(conn) => {
                    self.reused.fetch_add(1, Ordering::Relaxed);
                    (conn, true)
                }
                None => (self.connect(e, deadline)?, false),
            };
            match self.roundtrip(&stream, request, deadline) {
                Ok((resp, clean)) => {
                    if clean {
                        *pooled = Some(stream);
                    }
                    return match classify_http_status(resp.status) {
                        None => Ok(String::from_utf8_lossy(&resp.body).into_owned()),
                        Some(_) => Err(HttpError::Status(resp.status)),
                    };
                }
                Err((err, got_any)) => {
                    if reused && !got_any && !err.is_timeout() {
                        // Keep-alive race: the server closed the idle
                        // connection under us. The query is an idempotent
                        // read — resend once, invisibly.
                        self.transparent_reconnects.fetch_add(1, Ordering::Relaxed);
                        continue;
                    }
                    return Err(err);
                }
            }
        }
        unreachable!("round 1 never runs on a reused connection")
    }
}

impl EndpointTransport for HttpTransport {
    fn execute(&self, req: &TransportRequest<'_>) -> TransportReply {
        let start = Instant::now();
        let budget = Duration::from_nanos(req.budget_nanos.max(1));
        let result = self.execute_inner(req.endpoint.0 as usize, req.query, start + budget);
        let elapsed = start.elapsed().as_nanos() as u64;
        match result {
            Ok(body) => TransportReply {
                latency_nanos: elapsed,
                payload: Ok(body),
            },
            Err(err) => TransportReply {
                // Deadline expiry must read as `latency >= budget` so the
                // executor books it as TimedOut, not a retryable failure.
                latency_nanos: if err.is_timeout() {
                    elapsed.max(req.budget_nanos)
                } else {
                    elapsed
                },
                payload: Err(err.class()),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::mix_chain;
    use super::*;

    fn parse(bytes: &[u8]) -> Result<HttpResponse, HttpError> {
        read_response(&mut &bytes[..], &HttpLimits::default())
    }

    fn parse_with(bytes: &[u8], limits: HttpLimits) -> Result<HttpResponse, HttpError> {
        read_response(&mut &bytes[..], &limits)
    }

    fn ok(bytes: &[u8]) -> HttpResponse {
        parse(bytes).expect("response should parse")
    }

    // ---- the request on the wire -----------------------------------

    #[test]
    fn rendered_request_bytes_are_pinned() {
        let ep = HttpEndpoint::new("member.example:8890", "/sparql");
        let query = "SELECT * WHERE { ?s ?p ?o . }";
        // Stale contents of a larger previous request must not leak.
        let mut buf = vec![b'x'; 4096];
        render_request_into(&mut buf, &ep, query);
        assert_eq!(
            String::from_utf8(buf).unwrap(),
            "POST /sparql HTTP/1.1\r\n\
             Host: member.example:8890\r\n\
             Content-Type: application/sparql-query\r\n\
             Accept: application/sparql-results+json\r\n\
             Content-Length: 29\r\n\
             \r\n\
             SELECT * WHERE { ?s ?p ?o . }"
        );
    }

    // ---- well-formed responses -------------------------------------

    #[test]
    fn content_length_body() {
        let r = ok(b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nhello");
        assert_eq!(
            (r.status, r.body.as_slice(), r.close),
            (200, &b"hello"[..], false)
        );
    }

    #[test]
    fn zero_length_body() {
        let r = ok(b"HTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n");
        assert_eq!((r.status, r.body.len(), r.close), (200, 0, false));
    }

    #[test]
    fn bodiless_204_and_304() {
        for status in ["204 No Content", "304 Not Modified"] {
            let raw = format!("HTTP/1.1 {status}\r\n\r\n");
            let r = ok(raw.as_bytes());
            assert!(r.body.is_empty());
            assert!(!r.close);
        }
    }

    #[test]
    fn chunked_body_reassembles() {
        let r = ok(b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n6\r\n world\r\n0\r\n\r\n");
        assert_eq!(r.body, b"hello world");
    }

    #[test]
    fn chunked_with_extension_and_uppercase_hex() {
        let r = ok(b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nA;ext=1\r\n0123456789\r\n0\r\n\r\n");
        assert_eq!(r.body, b"0123456789");
    }

    #[test]
    fn chunked_with_trailers() {
        let r = ok(b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nabc\r\n0\r\nX-Trailer: 1\r\n\r\n");
        assert_eq!(r.body, b"abc");
    }

    #[test]
    fn transfer_encoding_is_case_insensitive() {
        let r = ok(b"HTTP/1.1 200 OK\r\ntRaNsFeR-eNcOdInG: ChUnKeD\r\n\r\n2\r\nok\r\n0\r\n\r\n");
        assert_eq!(r.body, b"ok");
    }

    #[test]
    fn folded_header_is_unfolded() {
        // An obs-fold on an uninterpreted header must not derail parsing.
        let r = ok(b"HTTP/1.1 200 OK\r\nX-Info: first\r\n  second\r\nContent-Length: 2\r\n\r\nok");
        assert_eq!(r.body, b"ok");
    }

    #[test]
    fn connection_close_is_reported() {
        let r = ok(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nConnection: close\r\n\r\nok");
        assert!(r.close);
    }

    #[test]
    fn connection_keep_alive_is_not_close() {
        let r = ok(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nConnection: keep-alive\r\n\r\nok");
        assert!(!r.close);
    }

    #[test]
    fn eof_framed_body_reads_to_end_and_forces_close() {
        let r = ok(b"HTTP/1.0 200 OK\r\n\r\nall the way to eof");
        assert_eq!(r.body, b"all the way to eof");
        assert!(r.close);
    }

    #[test]
    fn duplicate_agreeing_content_length_is_tolerated() {
        let r = ok(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nContent-Length: 2\r\n\r\nok");
        assert_eq!(r.body, b"ok");
    }

    #[test]
    fn non_2xx_statuses_parse_with_their_bodies() {
        let r = ok(b"HTTP/1.1 503 Service Unavailable\r\nContent-Length: 4\r\n\r\nbusy");
        assert_eq!((r.status, r.body.as_slice()), (503, &b"busy"[..]));
    }

    // ---- malformed and hostile responses ---------------------------

    #[test]
    fn malformed_status_lines_are_permanent() {
        for raw in [
            &b"HTP/1.1 200 OK\r\n\r\n"[..],
            b"HTTP/2 200 OK\r\n\r\n",
            b"HTTP/1.1 20 OK\r\n\r\n",
            b"HTTP/1.1 2x0 OK\r\n\r\n",
            b"HTTP/1.1 099 low\r\n\r\n",
            b"HTTP/1.1 200OK\r\n\r\n",
            b"banana\r\n\r\n",
        ] {
            let err = parse(raw).unwrap_err();
            assert_eq!(err, HttpError::MalformedStatusLine, "{raw:?}");
            assert!(err.class().is_permanent());
        }
    }

    #[test]
    fn header_without_colon_is_permanent() {
        let err = parse(b"HTTP/1.1 200 OK\r\nthis line has no colon\r\n\r\n").unwrap_err();
        assert_eq!(err, HttpError::MalformedHeader);
        assert!(err.class().is_permanent());
    }

    #[test]
    fn fold_before_any_header_is_malformed() {
        let err = parse(b"HTTP/1.1 200 OK\r\n  dangling fold\r\n\r\n").unwrap_err();
        assert_eq!(err, HttpError::MalformedHeader);
    }

    #[test]
    fn conflicting_content_lengths_are_rejected() {
        let err = parse(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nContent-Length: 3\r\n\r\nok")
            .unwrap_err();
        assert_eq!(err, HttpError::InvalidContentLength);
        assert!(err.class().is_permanent());
    }

    #[test]
    fn unparseable_content_length_is_rejected() {
        for v in ["banana", "-1", "1 2", ""] {
            let raw = format!("HTTP/1.1 200 OK\r\nContent-Length: {v}\r\n\r\n");
            assert_eq!(
                parse(raw.as_bytes()).unwrap_err(),
                HttpError::InvalidContentLength,
                "{v:?}"
            );
        }
    }

    #[test]
    fn declared_body_over_cap_is_rejected_before_reading() {
        let limits = HttpLimits {
            max_body_bytes: 8,
            ..HttpLimits::default()
        };
        let err = parse_with(
            b"HTTP/1.1 200 OK\r\nContent-Length: 9\r\n\r\n123456789",
            limits,
        )
        .unwrap_err();
        assert_eq!(err, HttpError::BodyTooLarge);
        assert!(err.class().is_permanent());
    }

    #[test]
    fn chunked_body_over_cap_is_rejected() {
        let limits = HttpLimits {
            max_body_bytes: 8,
            ..HttpLimits::default()
        };
        let err = parse_with(
            b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n6\r\nabcdef\r\n6\r\nghijkl\r\n0\r\n\r\n",
            limits,
        )
        .unwrap_err();
        assert_eq!(err, HttpError::BodyTooLarge);
    }

    #[test]
    fn eof_framed_body_over_cap_is_rejected() {
        let limits = HttpLimits {
            max_body_bytes: 4,
            ..HttpLimits::default()
        };
        let err = parse_with(b"HTTP/1.1 200 OK\r\n\r\ntoo much body", limits).unwrap_err();
        assert_eq!(err, HttpError::BodyTooLarge);
    }

    #[test]
    fn oversized_headers_are_rejected() {
        let limits = HttpLimits {
            max_header_bytes: 64,
            ..HttpLimits::default()
        };
        let raw = format!("HTTP/1.1 200 OK\r\nX-Big: {}\r\n\r\n", "a".repeat(128));
        let err = parse_with(raw.as_bytes(), limits).unwrap_err();
        assert_eq!(err, HttpError::HeadersTooLarge);
        assert!(err.class().is_permanent());
    }

    #[test]
    fn oversized_status_line_is_rejected() {
        let limits = HttpLimits {
            max_header_bytes: 32,
            ..HttpLimits::default()
        };
        let raw = format!("HTTP/1.1 200 {}\r\n\r\n", "x".repeat(64));
        assert_eq!(
            parse_with(raw.as_bytes(), limits).unwrap_err(),
            HttpError::HeadersTooLarge
        );
    }

    #[test]
    fn bad_chunk_headers_are_rejected() {
        for raw in [
            &b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nxyz\r\nabc\r\n0\r\n\r\n"[..],
            b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n\r\nabc\r\n0\r\n\r\n",
            // 3-byte chunk whose data is not followed by CRLF.
            b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nabcXX0\r\n\r\n",
            // Absurdly long size line.
            b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n111111111\r\n\r\n",
        ] {
            let err = parse(raw).unwrap_err();
            assert_eq!(err, HttpError::InvalidChunk, "{raw:?}");
            assert!(err.class().is_permanent());
        }
    }

    // ---- truncation (every cut is a transient error) ---------------

    #[test]
    fn truncation_points_all_map_to_transient() {
        for raw in [
            &b""[..],
            b"HTTP/1.1 2",
            b"HTTP/1.1 200 OK\r\n",
            b"HTTP/1.1 200 OK\r\nContent-Le",
            b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\n",
            b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nhel",
            b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhe",
            b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n",
        ] {
            let err = parse(raw).unwrap_err();
            assert_eq!(err, HttpError::Truncated, "{raw:?}");
            assert!(err.class().is_transient(), "{raw:?}");
        }
    }

    #[test]
    fn every_prefix_of_a_valid_response_parses_or_errors_cleanly() {
        let raw: &[u8] = b"HTTP/1.1 200 OK\r\nX-A: 1\r\n b\r\nContent-Length: 5\r\n\r\nhello";
        for cut in 0..raw.len() {
            // Must terminate without panicking; every cut is Truncated.
            assert_eq!(
                parse(&raw[..cut]).unwrap_err(),
                HttpError::Truncated,
                "cut {cut}"
            );
        }
        assert_eq!(ok(raw).body, b"hello");
    }

    // ---- classification --------------------------------------------

    #[test]
    fn error_classes_match_the_documented_table() {
        use TransportError::{Permanent, Transient};
        for (err, class) in [
            (HttpError::MalformedStatusLine, Permanent),
            (HttpError::MalformedHeader, Permanent),
            (HttpError::HeadersTooLarge, Permanent),
            (HttpError::BodyTooLarge, Permanent),
            (HttpError::InvalidContentLength, Permanent),
            (HttpError::InvalidChunk, Permanent),
            (HttpError::BadAddress, Permanent),
            (HttpError::Truncated, Transient),
            (HttpError::Status(503), Transient),
            (HttpError::Status(429), Transient),
            (HttpError::Status(404), Permanent),
            (HttpError::Io(io::ErrorKind::ConnectionRefused), Transient),
            (HttpError::Io(io::ErrorKind::ConnectionReset), Transient),
            (HttpError::Io(io::ErrorKind::TimedOut), Transient),
        ] {
            assert_eq!(err.class(), class, "{err:?}");
        }
        assert!(HttpError::Io(io::ErrorKind::TimedOut).is_timeout());
        assert!(!HttpError::Truncated.is_timeout());
    }

    // ---- seeded mutation fuzz (mirrors the PR 5 parser fuzz net) ---

    #[test]
    fn mutation_fuzz_never_panics_and_never_overreads() {
        let bases: [&[u8]; 3] = [
            b"HTTP/1.1 200 OK\r\nContent-Type: application/sparql-results+json\r\nContent-Length: 12\r\n\r\n{\"rows\":[1]}",
            b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n6\r\n{\"a\":1\r\n1\r\n}\r\n0\r\nX-T: v\r\n\r\n",
            b"HTTP/1.1 503 Service Unavailable\r\nRetry-After: 1\r\nConnection: close\r\nContent-Length: 4\r\n\r\nbusy",
        ];
        let limits = HttpLimits {
            max_header_bytes: 512,
            max_body_bytes: 512,
        };
        let seed = 0x1799_c0de;
        let mut parsed_ok = 0u32;
        for i in 0..6_000u64 {
            let base = bases[(i % bases.len() as u64) as usize];
            let mut bytes = base.to_vec();
            // 1–3 seeded point mutations per iteration.
            let n_mut = 1 + (mix_chain(seed, &[i, 0]) % 3) as usize;
            for m in 0..n_mut {
                let draw = mix_chain(seed, &[i, 1 + m as u64]);
                let pos = (draw % bytes.len() as u64) as usize;
                bytes[pos] = (draw >> 32) as u8;
            }
            // Occasionally truncate as well.
            if mix_chain(seed, &[i, 9]).is_multiple_of(4) {
                let cut = (mix_chain(seed, &[i, 10]) % (bytes.len() as u64 + 1)) as usize;
                bytes.truncate(cut);
            }
            // The only contract: terminate, and never hand back more body
            // than the caps allow. Both Ok and structured Err are fine.
            if let Ok(resp) = read_response(&mut &bytes[..], &limits) {
                assert!(resp.body.len() <= limits.max_body_bytes);
                parsed_ok += 1;
            }
        }
        // Sanity: the fuzz actually explores both outcomes.
        assert!(parsed_ok > 0, "no mutated response ever parsed");
    }
}
