//! Deterministic byte-level fault injection behind a real socket.
//!
//! [`ChaosProxy`] is an in-process SPARQL endpoint impersonator: a
//! [`TcpListener`] on a loopback ephemeral port whose every response is
//! scheduled by a seeded SplitMix64 draw keyed on `(seed, connection,
//! request)`. The same seed therefore replays the exact same fault
//! sequence — connection refusal, accept-then-reset, slow-loris trickle,
//! mid-body truncation, malformed status lines and headers, oversized
//! bodies, and lying `Content-Length` framing — which is what lets the
//! `http_chaos` battery and the server crate's `federation_http_soak` test
//! drive [`HttpTransport`](sparql_rewrite_core::HttpTransport) through
//! every failure class a TCP peer can exhibit and byte-compare the outcome
//! transcripts of two runs.
//!
//! Healthy responses carry a deterministic body — an FNV-1a stamp of the
//! received query — so served rows are replayable too, and alternate
//! between `Content-Length` and chunked framing (also by seeded draw) so
//! connection reuse is exercised under both codings.
//!
//! The proxy is for tests: one instance impersonates one
//! endpoint, and because the executor serializes same-endpoint calls, the
//! per-connection/per-request fault schedule is deterministic end to end.
//! No fault's effect on the client depends on timing: a refused slot waits
//! for the request before it closes, so a client holding the connection
//! in its keep-alive pool always finds it alive at checkout, and a
//! trickled response never ends, so it always runs into the client's
//! deadline. Either race, lost to a loaded scheduler, would shift which
//! connection — and so which slot of the schedule — the next request gets.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError, Weak};
use std::thread::{self, JoinHandle};
use std::time::Duration;

use sparql_rewrite_core::httpcore::{
    read_headers, read_line_bounded, HeaderFraming, HttpError, HttpLimits,
};
use sparql_rewrite_core::mix_chain;

use crate::{draw, fnv1a};

/// Every behavior the proxy can exhibit for one request slot.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum FaultClass {
    /// Valid 200 response (Content-Length or chunked framing by draw).
    Healthy,
    /// Connection closed with no response as soon as the request starts
    /// to arrive.
    Refuse,
    /// Request read, then the connection is closed with no response.
    Reset,
    /// Slow-loris: a valid-looking response trickled one byte at a time,
    /// then silence until the client hangs up, so it never completes.
    Trickle,
    /// `Content-Length` promises more body than is sent before close.
    TruncateBody,
    /// Garbage where the status line should be.
    MalformedStatus,
    /// A header line with no colon.
    MalformedHeader,
    /// `Content-Length` far beyond any sane response cap.
    OversizedBody,
    /// `Content-Length` *shorter* than the bytes actually sent: the
    /// response parses, but stray bytes poison the keep-alive connection.
    WrongContentLength,
}

impl FaultClass {
    pub const ALL: [FaultClass; 9] = [
        FaultClass::Healthy,
        FaultClass::Refuse,
        FaultClass::Reset,
        FaultClass::Trickle,
        FaultClass::TruncateBody,
        FaultClass::MalformedStatus,
        FaultClass::MalformedHeader,
        FaultClass::OversizedBody,
        FaultClass::WrongContentLength,
    ];

    pub fn index(self) -> usize {
        FaultClass::ALL.iter().position(|&c| c == self).unwrap()
    }
}

/// What a proxy injects, and how.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct ChaosSpec {
    /// Percent of request slots per class, by [`FaultClass::index`]; at
    /// most 100 in all. `Healthy`'s entry is not drawn: healthy slots are
    /// whatever the faults leave.
    pub pcts: [u8; 9],
    /// Delay between trickled bytes, in nanoseconds.
    pub trickle_step_nanos: u64,
    /// Declared `Content-Length` of an oversized response.
    pub oversized_bytes: usize,
    /// Alternate healthy responses between Content-Length and chunked
    /// framing (by seeded draw) instead of always using Content-Length.
    pub chunked_healthy: bool,
}

impl Default for ChaosSpec {
    /// All-healthy endpoint.
    fn default() -> ChaosSpec {
        ChaosSpec {
            pcts: [0; 9],
            trickle_step_nanos: 20_000_000,
            oversized_bytes: 256 * 1024,
            chunked_healthy: true,
        }
    }
}

impl ChaosSpec {
    /// The default spec with each `(class, percent)` of `mix` set.
    pub fn with(mix: &[(FaultClass, u8)]) -> ChaosSpec {
        let mut spec = ChaosSpec::default();
        for &(class, pct) in mix {
            spec.pcts[class.index()] = pct;
        }
        spec
    }

    /// The scheduled behavior of request slot `req` on connection `conn`.
    pub fn draw(&self, seed: u64, conn: u64, req: u64) -> FaultClass {
        FaultClass::ALL[draw(seed, [conn, req, 0], &self.pcts[1..]).map_or(0, |i| i + 1)]
    }
}

/// Every accepted connection with its handler thread. The handler holds
/// the only strong reference, so a connection closes when its handler
/// returns, as if nothing else tracked it.
type Conns = Mutex<Vec<(Weak<TcpStream>, JoinHandle<()>)>>;

/// The running proxy. Dropping it shuts the listener and every accepted
/// connection down, which ends the handlers' blocking reads and writes,
/// and joins the handlers.
pub struct ChaosProxy {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    injected: Arc<[AtomicU64; 9]>,
    accept: Option<JoinHandle<()>>,
    conns: Arc<Conns>,
}

impl ChaosProxy {
    /// Bind a loopback ephemeral port and start serving the seeded fault
    /// schedule.
    ///
    /// # Panics
    ///
    /// If `spec`'s percentages sum past 100 (see [`draw`]).
    pub fn spawn(seed: u64, spec: ChaosSpec) -> io::Result<ChaosProxy> {
        // Check the mix here: in a handler the panic would only close a
        // connection.
        spec.draw(seed, 0, 0);
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let injected: Arc<[AtomicU64; 9]> = Arc::default();
        let conns: Arc<Conns> = Arc::default();
        let accept = {
            let shutdown = Arc::clone(&shutdown);
            let injected = Arc::clone(&injected);
            let conns = Arc::clone(&conns);
            thread::spawn(move || {
                let mut conn_id = 0u64;
                for stream in listener.incoming() {
                    if shutdown.load(Ordering::Relaxed) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    let stream = Arc::new(stream);
                    let tracked = Arc::downgrade(&stream);
                    let conn = conn_id;
                    conn_id += 1;
                    let injected = Arc::clone(&injected);
                    let handler = thread::spawn(move || {
                        handle_connection(&stream, conn, seed, spec, &injected);
                    });
                    conns
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .push((tracked, handler));
                }
            })
        };
        Ok(ChaosProxy {
            addr,
            shutdown,
            injected,
            accept: Some(accept),
            conns,
        })
    }

    /// `host:port` string for an
    /// [`HttpEndpoint`](sparql_rewrite_core::HttpEndpoint).
    pub fn authority(&self) -> String {
        self.addr.to_string()
    }

    /// How many times `class` has been injected so far (scheduled on an
    /// accepted connection's request slot). Deterministic per seed.
    pub fn injected(&self, class: FaultClass) -> u64 {
        self.injected[class.index()].load(Ordering::Relaxed)
    }

    /// All per-class injection counts, in [`FaultClass::ALL`] order.
    pub fn injected_counts(&self) -> [u64; 9] {
        FaultClass::ALL.map(|class| self.injected(class))
    }
}

impl Drop for ChaosProxy {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::Relaxed);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        // The accept loop is gone, so the list is complete.
        let conns = std::mem::take(&mut *self.conns.lock().unwrap_or_else(PoisonError::into_inner));
        for stream in conns.iter().filter_map(|(s, _)| s.upgrade()) {
            let _ = stream.shutdown(Shutdown::Both);
        }
        for (_, handler) in conns {
            let _ = handler.join();
        }
    }
}

/// Serve one connection: loop over request slots, drawing each slot's
/// fault before touching the socket so even never-sent requests keep the
/// schedule aligned across runs.
fn handle_connection(
    stream: &TcpStream,
    conn: u64,
    seed: u64,
    spec: ChaosSpec,
    injected: &[AtomicU64; 9],
) {
    let _ = stream.set_nodelay(true);
    let mut reader = BufReader::new(stream);
    let mut w = stream;
    let (mut line, mut pending) = (Vec::new(), Vec::new());
    for req in 0u64.. {
        let fault = spec.draw(seed, conn, req);
        let count = || injected[fault.index()].fetch_add(1, Ordering::Relaxed);
        if fault == FaultClass::Refuse {
            // Slam the door once the request starts to arrive (closing
            // earlier would race a pooled connection's health check).
            count();
            let _ = reader.fill_buf();
            return;
        }
        let Some(query) = read_request(&mut reader, &mut line, &mut pending) else {
            return;
        };
        count();
        let body = format!("{{\"q\":\"{:016x}\"}}", fnv1a(&query));
        let keep_going = match fault {
            FaultClass::Refuse => unreachable!("handled before the read"),
            FaultClass::Healthy => {
                let chunked = spec.chunked_healthy && mix_chain(seed, &[conn, req, 1]) & 1 == 1;
                let (head, tail) = body.split_at(body.len() / 2);
                let framing = if chunked {
                    let (h, t) = (head.len(), tail.len());
                    format!(
                        "Transfer-Encoding: chunked\r\n\r\n\
                         {h:x}\r\n{head}\r\n{t:x}\r\n{tail}\r\n0\r\n\r\n"
                    )
                } else {
                    format!("Content-Length: {}\r\n\r\n{body}", body.len())
                };
                let resp = format!(
                    "HTTP/1.1 200 OK\r\nContent-Type: application/sparql-results+json\r\n{framing}"
                );
                w.write_all(resp.as_bytes()).is_ok()
            }
            FaultClass::Reset => false,
            FaultClass::Trickle => {
                trickle(w, &spec);
                // Hold the connection open and silent until the client
                // hangs up.
                let _ = io::copy(&mut reader, &mut io::sink());
                false
            }
            FaultClass::TruncateBody => {
                let resp = format!(
                    "HTTP/1.1 200 OK\r\nContent-Length: {}\r\n\r\n{}",
                    body.len() + 32,
                    body
                );
                let _ = w.write_all(resp.as_bytes());
                false
            }
            FaultClass::MalformedStatus => {
                let _ = w.write_all(b"HTP/banana 200 NOPE\r\n\r\n");
                false
            }
            FaultClass::MalformedHeader => {
                let _ = w.write_all(b"HTTP/1.1 200 OK\r\nthis header has no colon\r\n\r\n");
                false
            }
            FaultClass::OversizedBody => {
                let n = spec.oversized_bytes;
                let mut resp =
                    format!("HTTP/1.1 200 OK\r\nContent-Length: {n}\r\n\r\n").into_bytes();
                // Filler until done or the client hangs up in disgust (its
                // body cap makes that the expected path).
                resp.resize(resp.len() + n, b'z');
                let _ = w.write_all(&resp);
                false
            }
            FaultClass::WrongContentLength => {
                // Understate the length by 8 in a single write: the client
                // sees a valid (short) body plus stray bytes that must
                // disqualify this connection from the keep-alive pool.
                let declared = body.len().saturating_sub(8);
                let resp = format!("HTTP/1.1 200 OK\r\nContent-Length: {declared}\r\n\r\n{body}");
                w.write_all(resp.as_bytes()).is_ok()
            }
        };
        if !keep_going {
            return;
        }
    }
}

/// Read one request with the workspace's HTTP framing code and return its
/// body. `None` when the client hangs up, the proxy is dropped, or the
/// request does not frame.
fn read_request(r: &mut impl BufRead, line: &mut Vec<u8>, pending: &mut Vec<u8>) -> Option<String> {
    let limits = HttpLimits::default();
    let mut budget = limits.max_header_bytes;
    let mut framing = HeaderFraming::default();
    read_line_bounded(r, line, &mut budget, HttpError::HeadersTooLarge).ok()?;
    read_headers(r, line, pending, &mut budget, &mut framing, &mut |_, _| {}).ok()?;
    let len = usize::try_from(framing.content_length.unwrap_or(0)).ok()?;
    if len > limits.max_body_bytes {
        return None;
    }
    let mut body = vec![0; len];
    r.read_exact(&mut body).ok()?;
    String::from_utf8(body).ok()
}

/// Trickle a response one byte at a time until the client gives up or
/// the proxy is dropped (a write error either way). The response promises
/// more body than it sends, and the caller then holds the connection open,
/// so the client's deadline always ends the exchange, however fast the
/// trickle ran.
fn trickle(mut w: &TcpStream, spec: &ChaosSpec) {
    let resp = format!(
        "HTTP/1.1 200 OK\r\nContent-Length: 4096\r\n\r\n{}",
        "x".repeat(64)
    );
    let step = Duration::from_nanos(spec.trickle_step_nanos.max(1));
    for byte in resp.as_bytes().chunks(1) {
        if w.write_all(byte).and_then(|()| w.flush()).is_err() {
            return;
        }
        thread::sleep(step);
    }
}

#[cfg(test)]
mod tests {
    use std::io::Read;
    use std::sync::mpsc;

    use sparql_rewrite_core::httpcore::read_response;

    use super::*;

    fn post(mut stream: &TcpStream, query: &str) {
        let req = format!(
            "POST /sparql HTTP/1.1\r\nHost: chaos\r\nContent-Length: {}\r\n\r\n{query}",
            query.len()
        );
        stream.write_all(req.as_bytes()).unwrap();
    }

    #[test]
    fn draw_is_deterministic_and_tracks_the_mix() {
        let spec = ChaosSpec::with(&[
            (FaultClass::Refuse, 10),
            (FaultClass::Reset, 10),
            (FaultClass::Trickle, 5),
        ]);
        let mut tallies = [0u32; 9];
        for conn in 0..50u64 {
            for req in 0..20u64 {
                let a = spec.draw(42, conn, req);
                let b = spec.draw(42, conn, req);
                assert_eq!(a, b);
                tallies[a.index()] += 1;
            }
        }
        let total = 1000u32;
        let refusals = tallies[FaultClass::Refuse.index()];
        let healthy = tallies[FaultClass::Healthy.index()];
        assert!(
            (50..=150).contains(&refusals),
            "{refusals} refusals in {total}"
        );
        assert!(healthy > 600, "{healthy} healthy in {total}");
        // A different seed reshuffles the schedule.
        let diverged = (0..100u64).any(|req| spec.draw(42, 0, req) != spec.draw(43, 0, req));
        assert!(diverged);
    }

    #[test]
    fn healthy_proxy_answers_a_raw_post_deterministically() {
        let proxy = ChaosProxy::spawn(7, ChaosSpec::default()).unwrap();
        let fetch = || {
            let stream = TcpStream::connect(proxy.authority()).unwrap();
            post(&stream, "SELECT * WHERE { ?s ?p ?o }");
            read_response(&mut BufReader::new(stream), &HttpLimits::default()).unwrap()
        };
        let a = fetch();
        let b = fetch();
        assert_eq!(a.status, 200);
        assert_eq!(a.body, b.body, "healthy bodies must be replayable");
        assert_eq!(
            proxy.injected(FaultClass::Healthy),
            2,
            "both requests observed"
        );
    }

    #[test]
    fn refusing_proxy_counts_injections_and_closes_immediately() {
        let proxy = ChaosProxy::spawn(9, ChaosSpec::with(&[(FaultClass::Refuse, 100)])).unwrap();
        let stream = TcpStream::connect(proxy.authority()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        post(&stream, "SELECT * WHERE { ?s ?p ?o }");
        // The request starts to arrive, the peer closes: EOF, not a timeout.
        let n = (&stream).read(&mut [0u8; 8]).expect("EOF, not a timeout");
        assert_eq!(n, 0, "refused connection must yield EOF");
        assert_eq!(proxy.injected(FaultClass::Refuse), 1);
    }

    #[test]
    fn drop_returns_promptly_with_a_trickle_and_an_idle_keep_alive_connection() {
        let spec = ChaosSpec::with(&[(FaultClass::Trickle, 50)]);
        // Connection 0 is served and then idles in keep-alive; connection
        // 1 is parked in a trickle slot.
        let seed = (0..)
            .find(|&s| {
                spec.draw(s, 0, 0) == FaultClass::Healthy
                    && spec.draw(s, 1, 0) == FaultClass::Trickle
            })
            .unwrap();
        let proxy = ChaosProxy::spawn(seed, spec).unwrap();
        let idle = TcpStream::connect(proxy.authority()).unwrap();
        post(&idle, "SELECT * WHERE { ?s ?p ?o }");
        let resp = read_response(&mut BufReader::new(&idle), &HttpLimits::default()).unwrap();
        assert!(resp.status == 200 && !resp.close);
        let trickled = TcpStream::connect(proxy.authority()).unwrap();
        post(&trickled, "SELECT * WHERE { ?s ?p ?o }");
        (&trickled).read_exact(&mut [0u8; 1]).unwrap();
        assert_eq!(proxy.injected(FaultClass::Trickle), 1);

        let (done, dropped) = mpsc::channel();
        thread::spawn(move || {
            drop(proxy);
            done.send(()).unwrap();
        });
        dropped
            .recv_timeout(Duration::from_secs(1))
            .expect("drop did not return within 1 s with two open connections");
    }
}
