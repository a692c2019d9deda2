//! The connection loop: each worker thread pops admitted connections and
//! runs the keep-alive state machine (idle wait → deadline-armed read →
//! serve → write) on buffers it owns for its whole life.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use sparql_rewrite_core::httpcore::DeadlineReader;
use sparql_rewrite_core::{ServeEngine, ServeScratch};

use crate::federated::{serve_federated, FedScratch, FederationRuntime};
use crate::request::{read_request, RequestError, RequestScratch, Route};
use crate::response::render_response;
use crate::stats::{render_health, render_stats};
use crate::{ServeMode, Shared};

/// Per-worker serve state: the server's [`ServeMode`] paired with the
/// worker's buffers for it. One value per worker thread, alive for the
/// thread's whole life; boxing would only add a pointer chase on the serve
/// path.
#[allow(clippy::large_enum_variant)]
enum WorkerScratch<'a> {
    Single(&'a ServeEngine, ServeScratch),
    Federated(&'a FederationRuntime, FedScratch),
}

fn new_worker_scratch(shared: &Shared) -> WorkerScratch<'_> {
    match &shared.mode {
        ServeMode::Single(engine) => WorkerScratch::Single(engine, engine.scratch()),
        ServeMode::Federated(fed) => WorkerScratch::Federated(fed, FedScratch::new(fed)),
    }
}

pub(crate) fn worker_loop(shared: &Shared) {
    let mut scratch = new_worker_scratch(shared);
    let mut req_scratch = RequestScratch::new();
    let mut resp = Vec::with_capacity(4096);
    while let Some(stream) = shared.pop_conn() {
        shared.stats.in_flight.fetch_add(1, Ordering::Relaxed);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            handle_connection(shared, &stream, &mut scratch, &mut req_scratch, &mut resp);
        }));
        shared.stats.in_flight.fetch_sub(1, Ordering::Relaxed);
        if outcome.is_err() {
            // Panic isolation: count it, answer what we can, rebuild the
            // scratches (their invariants may not have survived), live on.
            shared.stats.panics.fetch_add(1, Ordering::Relaxed);
            let _ = stream.set_write_timeout(Some(Duration::from_millis(200)));
            resp.clear();
            render_response(&mut resp, 500, b"internal error\n", "text/plain", true);
            let _ = (&stream).write_all(&resp);
            let _ = stream.shutdown(Shutdown::Both);
            scratch = new_worker_scratch(shared);
            req_scratch = RequestScratch::new();
        }
    }
}

/// Outcome of waiting for the first byte of the next request.
enum FirstByte {
    Ready,
    Idle,
    Gone,
}

fn wait_first_byte(r: &mut BufReader<DeadlineReader<'_>>) -> FirstByte {
    match r.fill_buf() {
        Ok([]) => FirstByte::Idle, // clean EOF between requests
        Ok(_) => FirstByte::Ready,
        Err(e)
            if matches!(
                e.kind(),
                io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock
            ) =>
        {
            FirstByte::Idle
        }
        Err(_) => FirstByte::Gone,
    }
}

/// Serve one connection: keep-alive loop of idle-wait → deadline-armed
/// request read → engine serve → response. Every return closes the
/// connection (the stream drops with the caller's scope).
fn handle_connection(
    shared: &Shared,
    stream: &TcpStream,
    scratch: &mut WorkerScratch<'_>,
    req_scratch: &mut RequestScratch,
    resp: &mut Vec<u8>,
) {
    let _ = stream.set_nodelay(true);
    // Every write on this connection is a response to a request whose
    // deadline is `request_deadline`; the value never changes, so one
    // `setsockopt` serves every request on it.
    let _ = stream.set_write_timeout(Some(shared.config.request_deadline));
    let reader = DeadlineReader::new(stream, Instant::now() + shared.config.keep_alive_idle);
    let mut r = BufReader::with_capacity(8 * 1024, reader);
    loop {
        // IDLE: between requests the only budget is the idle deadline
        // (capped by the drain deadline once shutdown begins).
        r.get_ref()
            .set_deadline(shared.eff_deadline(shared.config.keep_alive_idle));
        match wait_first_byte(&mut r) {
            FirstByte::Ready => {}
            FirstByte::Idle => {
                shared.stats.idle_closes.fetch_add(1, Ordering::Relaxed);
                return;
            }
            FirstByte::Gone => return,
        }
        // PARSE: the first byte arrived; every subsequent read re-arms
        // the socket timeout to what's left of the request deadline.
        r.get_ref()
            .set_deadline(shared.eff_deadline(shared.config.request_deadline));
        match read_request(
            &mut r,
            &shared.config.limits,
            shared.config.route.as_bytes(),
            req_scratch,
        ) {
            Ok(req) => {
                let t0 = Instant::now();
                let close = !req.keep_alive || shared.draining();
                match req.route {
                    Route::Query => serve_query(shared, scratch, req_scratch, resp, close),
                    Route::Health => render_health(shared, resp, close),
                    Route::Stats => render_stats(shared, resp, close),
                }
                // Framed-request → rendered-response latency, pre-write.
                shared.latency[req.route.index()].record(t0.elapsed().as_nanos() as u64);
                if write_all(stream, resp).is_err() || close {
                    return;
                }
            }
            Err(e) => {
                shared.stats.count(e);
                if let Some(status) = e.status() {
                    render_response(resp, status, e.label().as_bytes(), "text/plain", true);
                    if write_all(stream, resp).is_ok() {
                        // The peer may still be mid-send; a hard close now
                        // could RST the response out of their buffer.
                        linger_close(stream);
                    }
                }
                return;
            }
        }
    }
}

/// SERVE one framed query per the serve mode. A SPARQL-level failure
/// (parse or plan) is the one 4xx that keeps the connection — the HTTP
/// framing was clean, so we are still in sync.
fn serve_query(
    shared: &Shared,
    scratch: &mut WorkerScratch<'_>,
    req_scratch: &RequestScratch,
    resp: &mut Vec<u8>,
    close: bool,
) {
    match scratch {
        WorkerScratch::Single(engine, serve_scratch) => {
            match engine.serve(&req_scratch.query, serve_scratch) {
                Ok(out) => {
                    render_response(resp, 200, out.as_bytes(), "application/sparql-query", close);
                    shared.stats.served.fetch_add(1, Ordering::Relaxed);
                }
                Err(_) => {
                    let e = RequestError::QueryUnparseable;
                    shared.stats.count(e);
                    render_response(resp, 400, e.label().as_bytes(), "text/plain", close);
                }
            }
        }
        WorkerScratch::Federated(fed, fs) => {
            serve_federated(shared, fed, &req_scratch.query, fs, resp, close);
        }
    }
}

/// `Write` goes through `impl Write for &TcpStream` (shared reference,
/// interior syscall) — this pins the reborrow the method call needs.
fn write_all(mut s: &TcpStream, buf: &[u8]) -> io::Result<()> {
    s.write_all(buf)
}

/// Half-close and briefly drain so an error response survives a peer
/// that is still writing (close-with-unread-data triggers RST).
fn linger_close(stream: &TcpStream) {
    let _ = stream.shutdown(Shutdown::Write);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(50)));
    let until = Instant::now() + Duration::from_millis(150);
    let mut buf = [0u8; 4096];
    let mut drained = 0usize;
    let mut s = stream;
    while drained < 64 * 1024 && Instant::now() < until {
        match s.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => drained += n,
        }
    }
}
