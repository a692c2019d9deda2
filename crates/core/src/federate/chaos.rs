//! Deterministic byte-level fault injection behind a real socket.
//!
//! [`ChaosProxy`] is an in-process SPARQL endpoint impersonator: a
//! [`TcpListener`] on a loopback ephemeral port whose every response is
//! scheduled by a seeded SplitMix64 draw keyed on `(seed, connection,
//! request)`. The same seed therefore replays the exact same fault
//! sequence — connection refusal, accept-then-reset, slow-loris trickle,
//! mid-body truncation, malformed status lines and headers, oversized
//! bodies, and lying `Content-Length` framing — which is what lets
//! `cargo test` and the `federation/http_soak` bench leg drive
//! [`HttpTransport`](super::HttpTransport) through every failure class a
//! TCP peer can exhibit and byte-compare the outcome transcripts of two
//! runs.
//!
//! Healthy responses carry a deterministic body — an FNV-1a stamp of the
//! received query — so served rows are replayable too, and alternate
//! between `Content-Length` and chunked framing (also by seeded draw) so
//! connection reuse is exercised under both codings.
//!
//! The proxy is for tests and benches: one instance impersonates one
//! endpoint, and because the executor serializes same-endpoint calls, the
//! per-connection/per-request fault schedule is deterministic end to end.
//! No fault's effect on the client depends on timing: a refused slot waits
//! for the request before it closes, so a client holding the connection
//! in its keep-alive pool always finds it alive at checkout, and a
//! trickled response never ends, so it always runs into the client's
//! deadline. Either race, lost to a loaded scheduler, would shift which
//! connection — and so which slot of the schedule — the next request gets.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::Duration;

use super::mix_chain;
use super::transport::fnv1a;

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

    pub fn name(self) -> &'static str {
        match self {
            FaultClass::Healthy => "healthy",
            FaultClass::Refuse => "refuse",
            FaultClass::Reset => "reset",
            FaultClass::Trickle => "trickle",
            FaultClass::TruncateBody => "truncate_body",
            FaultClass::MalformedStatus => "malformed_status",
            FaultClass::MalformedHeader => "malformed_header",
            FaultClass::OversizedBody => "oversized_body",
            FaultClass::WrongContentLength => "wrong_content_length",
        }
    }

    fn index(self) -> usize {
        FaultClass::ALL.iter().position(|&c| c == self).unwrap()
    }
}

/// Fault mix, in percent per request slot; the remainder is healthy.
/// Percentages are cumulative against a single `% 100` draw, so their sum
/// should stay ≤ 100.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct ChaosSpec {
    pub refuse_pct: u8,
    pub reset_pct: u8,
    pub trickle_pct: u8,
    pub truncate_pct: u8,
    pub malformed_status_pct: u8,
    pub malformed_header_pct: u8,
    pub oversized_pct: u8,
    pub wrong_len_pct: u8,
    /// Delay between trickled bytes, in nanoseconds.
    pub trickle_step_nanos: u64,
    /// Declared `Content-Length` of an oversized response.
    pub oversized_bytes: usize,
    /// Alternate healthy responses between Content-Length and chunked
    /// framing (by seeded draw) instead of always using Content-Length.
    pub chunked_healthy: bool,
}

impl Default for ChaosSpec {
    /// All-healthy endpoint with chaos knobs at zero.
    fn default() -> ChaosSpec {
        ChaosSpec {
            refuse_pct: 0,
            reset_pct: 0,
            trickle_pct: 0,
            truncate_pct: 0,
            malformed_status_pct: 0,
            malformed_header_pct: 0,
            oversized_pct: 0,
            wrong_len_pct: 0,
            trickle_step_nanos: 20_000_000,
            oversized_bytes: 256 * 1024,
            chunked_healthy: true,
        }
    }
}

impl ChaosSpec {
    /// A spec injecting `class` on 100% of request slots — the
    /// fault-class → outcome mapping tests run one proxy per class.
    pub fn always(class: FaultClass) -> ChaosSpec {
        let mut s = ChaosSpec::default();
        match class {
            FaultClass::Healthy => {}
            FaultClass::Refuse => s.refuse_pct = 100,
            FaultClass::Reset => s.reset_pct = 100,
            FaultClass::Trickle => s.trickle_pct = 100,
            FaultClass::TruncateBody => s.truncate_pct = 100,
            FaultClass::MalformedStatus => s.malformed_status_pct = 100,
            FaultClass::MalformedHeader => s.malformed_header_pct = 100,
            FaultClass::OversizedBody => s.oversized_pct = 100,
            FaultClass::WrongContentLength => s.wrong_len_pct = 100,
        }
        s
    }

    /// The scheduled behavior of request slot `req` on connection `conn`.
    pub fn draw(&self, seed: u64, conn: u64, req: u64) -> FaultClass {
        let roll = (mix_chain(seed, &[conn, req, 0]) % 100) as u8;
        let classes = [
            (self.refuse_pct, FaultClass::Refuse),
            (self.reset_pct, FaultClass::Reset),
            (self.trickle_pct, FaultClass::Trickle),
            (self.truncate_pct, FaultClass::TruncateBody),
            (self.malformed_status_pct, FaultClass::MalformedStatus),
            (self.malformed_header_pct, FaultClass::MalformedHeader),
            (self.oversized_pct, FaultClass::OversizedBody),
            (self.wrong_len_pct, FaultClass::WrongContentLength),
        ];
        let mut acc = 0u8;
        for (pct, class) in classes {
            acc = acc.saturating_add(pct);
            if roll < acc {
                return class;
            }
        }
        FaultClass::Healthy
    }
}

#[derive(Default)]
struct ChaosCounters {
    injected: [AtomicU64; 9],
}

/// The running proxy. Dropping it shuts the listener down and joins every
/// connection handler.
pub struct ChaosProxy {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    counters: Arc<ChaosCounters>,
    accept: Option<JoinHandle<()>>,
    handlers: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl ChaosProxy {
    /// Bind a loopback ephemeral port and start serving the seeded fault
    /// schedule.
    pub fn spawn(seed: u64, spec: ChaosSpec) -> io::Result<ChaosProxy> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let counters = Arc::new(ChaosCounters::default());
        let handlers: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let accept = {
            let shutdown = Arc::clone(&shutdown);
            let counters = Arc::clone(&counters);
            let handlers = Arc::clone(&handlers);
            thread::spawn(move || {
                let mut conn_id = 0u64;
                for stream in listener.incoming() {
                    if shutdown.load(Ordering::Relaxed) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    let conn = conn_id;
                    conn_id += 1;
                    let shutdown = Arc::clone(&shutdown);
                    let counters = Arc::clone(&counters);
                    let handle = thread::spawn(move || {
                        handle_connection(stream, conn, seed, spec, &shutdown, &counters);
                    });
                    handlers
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .push(handle);
                }
            })
        };
        Ok(ChaosProxy {
            addr,
            shutdown,
            counters,
            accept: Some(accept),
            handlers,
        })
    }

    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// `host:port` string for [`HttpEndpoint`](super::HttpEndpoint).
    pub fn authority(&self) -> String {
        self.addr.to_string()
    }

    /// How many times `class` has been injected so far (scheduled on an
    /// accepted connection's request slot). Deterministic per seed.
    pub fn injected(&self, class: FaultClass) -> u64 {
        self.counters.injected[class.index()].load(Ordering::Relaxed)
    }

    /// All per-class injection counts, in [`FaultClass::ALL`] order.
    pub fn injected_counts(&self) -> [u64; 9] {
        let mut out = [0u64; 9];
        for (slot, class) in out.iter_mut().zip(FaultClass::ALL) {
            *slot = self.injected(class);
        }
        out
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
        let handles =
            std::mem::take(&mut *self.handlers.lock().unwrap_or_else(PoisonError::into_inner));
        for h in handles {
            let _ = h.join();
        }
    }
}

/// Serve one connection: loop over request slots, drawing each slot's
/// fault before touching the socket so even never-sent requests keep the
/// schedule aligned across runs.
fn handle_connection(
    stream: TcpStream,
    conn: u64,
    seed: u64,
    spec: ChaosSpec,
    shutdown: &AtomicBool,
    counters: &ChaosCounters,
) {
    let _ = stream.set_nodelay(true);
    // Short poll interval: blocked reads wake up to observe shutdown.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(20)));
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut write_half = &stream;
    for req in 0u64.. {
        let fault = spec.draw(seed, conn, req);
        if fault == FaultClass::Refuse {
            // Slam the door once the request starts to arrive (closing
            // earlier would race a pooled connection's health check).
            counters.injected[fault.index()].fetch_add(1, Ordering::Relaxed);
            await_client(&mut reader, shutdown);
            return;
        }
        let Some(query) = read_request(&mut reader, shutdown) else {
            return;
        };
        counters.injected[fault.index()].fetch_add(1, Ordering::Relaxed);
        let body = format!("{{\"q\":\"{:016x}\"}}", fnv1a(&query));
        let keep_going = match fault {
            FaultClass::Refuse => unreachable!("handled before the read"),
            FaultClass::Healthy => {
                let chunked = spec.chunked_healthy && mix_chain(seed, &[conn, req, 1]) & 1 == 1;
                let resp = if chunked {
                    let split = body.len() / 2;
                    format!(
                        "HTTP/1.1 200 OK\r\nContent-Type: application/sparql-results+json\r\n\
                         Transfer-Encoding: chunked\r\n\r\n{:x}\r\n{}\r\n{:x}\r\n{}\r\n0\r\n\r\n",
                        split,
                        &body[..split],
                        body.len() - split,
                        &body[split..]
                    )
                } else {
                    format!(
                        "HTTP/1.1 200 OK\r\nContent-Type: application/sparql-results+json\r\n\
                         Content-Length: {}\r\n\r\n{}",
                        body.len(),
                        body
                    )
                };
                write_half.write_all(resp.as_bytes()).is_ok()
            }
            FaultClass::Reset => false,
            FaultClass::Trickle => {
                trickle(write_half, &spec, shutdown);
                drain_until_hangup(&mut reader, shutdown);
                false
            }
            FaultClass::TruncateBody => {
                let resp = format!(
                    "HTTP/1.1 200 OK\r\nContent-Length: {}\r\n\r\n{}",
                    body.len() + 32,
                    body
                );
                let _ = write_half.write_all(resp.as_bytes());
                false
            }
            FaultClass::MalformedStatus => {
                let _ = write_half.write_all(b"HTP/banana 200 NOPE\r\n\r\n");
                false
            }
            FaultClass::MalformedHeader => {
                let _ =
                    write_half.write_all(b"HTTP/1.1 200 OK\r\nthis header has no colon\r\n\r\n");
                false
            }
            FaultClass::OversizedBody => {
                let head = format!(
                    "HTTP/1.1 200 OK\r\nContent-Length: {}\r\n\r\n",
                    spec.oversized_bytes
                );
                // Stream filler until done or the client hangs up in
                // disgust (its body cap makes that the expected path).
                let mut sent_head = write_half.write_all(head.as_bytes()).is_ok();
                let filler = [b'z'; 4096];
                let mut remaining = spec.oversized_bytes;
                while sent_head && remaining > 0 && !shutdown.load(Ordering::Relaxed) {
                    let n = remaining.min(filler.len());
                    if write_half.write_all(&filler[..n]).is_err() {
                        sent_head = false;
                    }
                    remaining -= n;
                }
                false
            }
            FaultClass::WrongContentLength => {
                // Understate the length by 8 in a single write: the client
                // sees a valid (short) body plus stray bytes that must
                // disqualify this connection from the keep-alive pool.
                let declared = body.len().saturating_sub(8);
                let resp = format!("HTTP/1.1 200 OK\r\nContent-Length: {declared}\r\n\r\n{body}");
                write_half.write_all(resp.as_bytes()).is_ok()
            }
        };
        if !keep_going {
            return;
        }
    }
}

/// Trickle a response one byte at a time until the client gives up
/// (write error) or shutdown. The response promises more body than it
/// sends, and the caller then holds the connection open, so the client's
/// deadline always ends the exchange, however fast the trickle ran.
fn trickle(mut w: &TcpStream, spec: &ChaosSpec, shutdown: &AtomicBool) {
    let resp = format!(
        "HTTP/1.1 200 OK\r\nContent-Length: 4096\r\n\r\n{}",
        "x".repeat(64)
    );
    let step = Duration::from_nanos(spec.trickle_step_nanos.max(1));
    for chunk in resp.as_bytes().chunks(1) {
        if shutdown.load(Ordering::Relaxed) {
            return;
        }
        if w.write_all(chunk).and_then(|()| w.flush()).is_err() {
            return;
        }
        thread::sleep(step);
    }
}

/// Block until the client sends something or hangs up (or shutdown).
fn await_client(reader: &mut BufReader<TcpStream>, shutdown: &AtomicBool) {
    while !shutdown.load(Ordering::Relaxed) {
        match reader.fill_buf() {
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut => {
            }
            _ => return,
        }
    }
}

/// Keep the connection open and silent, discarding whatever arrives,
/// until the client hangs up (or shutdown).
fn drain_until_hangup(reader: &mut BufReader<TcpStream>, shutdown: &AtomicBool) {
    while !shutdown.load(Ordering::Relaxed) {
        match reader.fill_buf() {
            Ok([]) => return,
            Ok(buf) => {
                let n = buf.len();
                reader.consume(n);
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut => {
            }
            Err(_) => return,
        }
    }
}

/// Read one HTTP request (headers + Content-Length body) and return the
/// body. `None` on clean close, broken connection, or shutdown.
fn read_request(reader: &mut BufReader<TcpStream>, shutdown: &AtomicBool) -> Option<String> {
    let mut line = Vec::new();
    let mut content_length = 0usize;
    let mut saw_any = false;
    loop {
        if !read_line(reader, shutdown, &mut line)? {
            return None;
        }
        if line.is_empty() {
            if !saw_any {
                return None;
            }
            break;
        }
        saw_any = true;
        let lower: Vec<u8> = line.to_ascii_lowercase();
        if let Some(v) = lower.strip_prefix(b"content-length:") {
            let v: &[u8] = v;
            let digits: String = v
                .iter()
                .filter(|b| b.is_ascii_digit())
                .map(|&b| b as char)
                .collect();
            content_length = digits.parse().ok()?;
            // A client pathologically huge request is not this server's
            // problem to buffer.
            if content_length > 1 << 20 {
                return None;
            }
        }
    }
    let mut body = vec![0u8; content_length];
    if !read_exact_tolerant(reader, shutdown, &mut body)? {
        return None;
    }
    String::from_utf8(body).ok()
}

/// Read a CRLF line, retrying through poll timeouts until shutdown.
/// `Some(true)` = line in `out`; `Some(false)` = EOF/shutdown; `None` =
/// hard error.
fn read_line(
    reader: &mut BufReader<TcpStream>,
    shutdown: &AtomicBool,
    out: &mut Vec<u8>,
) -> Option<bool> {
    out.clear();
    loop {
        if shutdown.load(Ordering::Relaxed) {
            return Some(false);
        }
        let buf = match reader.fill_buf() {
            Ok(b) => b,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => return None,
        };
        if buf.is_empty() {
            return Some(false);
        }
        match buf.iter().position(|&b| b == b'\n') {
            Some(pos) => {
                out.extend_from_slice(&buf[..pos]);
                reader.consume(pos + 1);
                if out.last() == Some(&b'\r') {
                    out.pop();
                }
                return Some(true);
            }
            None => {
                if out.len() + buf.len() > 64 * 1024 {
                    return None;
                }
                out.extend_from_slice(buf);
                let n = buf.len();
                reader.consume(n);
            }
        }
    }
}

fn read_exact_tolerant(
    reader: &mut BufReader<TcpStream>,
    shutdown: &AtomicBool,
    buf: &mut [u8],
) -> Option<bool> {
    let mut filled = 0usize;
    while filled < buf.len() {
        if shutdown.load(Ordering::Relaxed) {
            return Some(false);
        }
        match reader.read(&mut buf[filled..]) {
            Ok(0) => return Some(false),
            Ok(n) => filled += n,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut => {
            }
            Err(_) => return None,
        }
    }
    Some(true)
}

#[cfg(test)]
mod tests {
    use super::super::{read_response, HttpLimits};
    use super::*;

    #[test]
    fn draw_is_deterministic_and_tracks_the_mix() {
        let spec = ChaosSpec {
            refuse_pct: 10,
            reset_pct: 10,
            trickle_pct: 5,
            ..ChaosSpec::default()
        };
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
        let query = "SELECT * WHERE { ?s ?p ?o }";
        let fetch = || {
            let stream = TcpStream::connect(proxy.addr()).unwrap();
            let req = format!(
                "POST /sparql HTTP/1.1\r\nHost: {}\r\nContent-Length: {}\r\n\r\n{}",
                proxy.authority(),
                query.len(),
                query
            );
            (&stream).write_all(req.as_bytes()).unwrap();
            let mut reader = BufReader::new(stream);
            read_response(&mut reader, &HttpLimits::default()).unwrap()
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
        // Dropping the proxy joins its threads without hanging.
        drop(proxy);
    }

    #[test]
    fn refusing_proxy_counts_injections_and_closes_immediately() {
        let proxy = ChaosProxy::spawn(9, ChaosSpec::always(FaultClass::Refuse)).unwrap();
        let stream = TcpStream::connect(proxy.addr()).unwrap();
        let mut buf = [0u8; 8];
        // The peer closes without reading: our read sees EOF promptly.
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let n = (&stream).read(&mut buf).unwrap_or(0);
        assert_eq!(n, 0, "refused connection must yield EOF");
        assert_eq!(proxy.injected(FaultClass::Refuse), 1);
    }
}
