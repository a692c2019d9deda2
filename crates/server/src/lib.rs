//! Overload-safe SPARQL HTTP front end over the rewriting serve engine.
//!
//! Thread-per-worker blocking I/O over `std::net` — no async runtime, no
//! dependencies. One acceptor thread and N worker threads share one
//! [`ServeEngine`] behind an `Arc`; each worker pins its own
//! [`ServeScratch`] + [`RequestScratch`] + response buffer, so the warm
//! request path (keep-alive connection, cache hit) performs **zero heap
//! allocations** end to end through the socket —
//! `tests/zero_alloc_socket.rs` asserts that with the counting allocator.
//!
//! The server runs in one of two modes. **Single-store** ([`Server::spawn`])
//! serves rewrites from one [`ServeEngine`]. **Federated**
//! ([`Server::spawn_federated`]) plans each query across per-endpoint
//! alignment stores and dispatches the subqueries over real HTTP; the
//! per-endpoint outcomes map onto explicit degraded-mode semantics:
//!
//! ```text
//! every endpoint served   → 200, envelope "partial":false
//! some endpoints served   → 200, envelope "partial":true
//!                           + X-Endpoint-Status: ep0=served,ep1=timed-out,…
//! no endpoint served      → 502 Bad Gateway (504 if any endpoint timed
//!                           out), Retry-After from the soonest breaker
//!                           half-open ETA
//! ```
//!
//! Both modes expose a read-only observability surface: `GET /healthz`
//! (readiness keyed on drain state, queue saturation, and breaker states)
//! and `GET /stats` (JSON counters, per-class request errors, drain
//! accounting, per-route log-spaced latency histograms, cache and
//! federation state).
//!
//! The request lifecycle is a strict state machine:
//!
//! ```text
//!            accept
//!              │
//!       queue full? ──yes──► SHED: 503 + Retry-After, close
//!              │                  (written by the acceptor, O(1),
//!            queued                before any request byte is read)
//!              │
//!        worker picks up
//!              │
//!      ┌──── IDLE ◄────────────────────────────┐
//!      │  wait first byte                      │
//!      │  (keep-alive idle deadline)           │
//!      │       │                               │
//!      │     PARSE — request deadline armed    │
//!      │       │     onto every socket read    │
//!      │   ┌───┴─────────┐                     │
//!      │ malformed     framed                  │
//!      │   │             │                     │
//!      │ 4xx, close    SERVE (engine)          │
//!      │               ┌─┴──────────┐          │
//!      │          parse error     rewritten    │
//!      │               │            │          │
//!      │          400, keep      200, keep ────┘
//!      │               └────────────┘
//!      └── idle timeout / peer close / drain → connection closed
//! ```
//!
//! Overload never queues unboundedly: admission is a bounded queue and
//! the shed path is O(1) — the acceptor writes a prebuilt `503` +
//! `Retry-After` and closes, without parsing a byte. Slow peers never
//! hold a worker past the request deadline: the shared
//! [`DeadlineReader`] re-arms the socket timeout before every read.
//! Worker panics are isolated per connection (`catch_unwind` → best-effort
//! `500`, scratch rebuilt, worker lives on). Shutdown stops accepting,
//! lets in-flight requests run out their request deadline, bounds all
//! *new* waiting by the drain deadline, and reports what was dropped —
//! so total shutdown time is bounded by `request_deadline +
//! drain_deadline`.
//!
//! The code follows the same split: `admission` (the bounded queue, the
//! acceptor's shed path, the drain helpers), `conn` (the worker's
//! connection loop), `federated` (plan → dispatch → envelope), `stats`
//! (counters, their two snapshot readers, `/stats`, `/healthz`) and
//! `response` (the one response renderer). This file holds the public
//! types, [`Server`] and its spawn / shutdown.
//!
//! [`DeadlineReader`]: sparql_rewrite_core::httpcore::DeadlineReader
//! [`ServeScratch`]: sparql_rewrite_core::ServeScratch
//! [`RequestScratch`]: request::RequestScratch

#![forbid(unsafe_code)]

pub mod request;

mod admission;
mod conn;
mod federated;
mod response;
mod stats;

use std::fmt;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use sparql_rewrite_core::httpcore::HttpLimits;
use sparql_rewrite_core::{
    BreakerState, ExecutorConfig, FederationPlanner, HttpConfig, Interner, RewriteLimits,
    ServeEngine,
};

use admission::{accept_loop, Queue};
use conn::worker_loop;
use federated::{build_federation, FederationRuntime};
use request::{RequestError, ERROR_CLASSES, N_ROUTES};
use response::render_shed;
use stats::{federation_snapshot, stats_snapshot, Counters, LatencyHistogram};

/// Tunables for one [`Server`]. The defaults are sized for a loopback
/// bench profile, not production traffic — every knob exists so the soak
/// can pin deterministic behavior.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Worker threads (each owns one engine scratch).
    pub workers: usize,
    /// Accepted-but-unserved connection cap; beyond it the acceptor sheds.
    pub queue_capacity: usize,
    /// Header/body byte caps for request parsing.
    pub limits: HttpLimits,
    /// Budget from first request byte to fully framed request; re-armed
    /// onto every socket read (slow-loris bound).
    pub request_deadline: Duration,
    /// How long a keep-alive connection may sit idle between requests.
    pub keep_alive_idle: Duration,
    /// On shutdown: bound on all *new* waiting (queue pickup, idle waits).
    /// In-flight request reads armed before shutdown still run out their
    /// `request_deadline`, so total drain ≤ `request_deadline +
    /// drain_deadline`.
    pub drain_deadline: Duration,
    /// `Retry-After` seconds advertised on the shed path, by a not-ready
    /// `/healthz`, and (while no breaker is cooling down) by the
    /// federated `502`/`504`; 0 is read as 1.
    pub retry_after_secs: u32,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            workers: 4,
            queue_capacity: 64,
            limits: HttpLimits::default(),
            request_deadline: Duration::from_secs(2),
            keep_alive_idle: Duration::from_secs(5),
            drain_deadline: Duration::from_secs(1),
            retry_after_secs: 1,
        }
    }
}

/// Where one federation endpoint is served: the endpoint IRI the planner
/// knows it by, plus the HTTP authority/path to dispatch to.
#[derive(Clone, Debug)]
pub struct EndpointRoute {
    /// Endpoint IRI exactly as registered with the planner (no angle
    /// brackets), e.g. `http://ep0.example.org/sparql`.
    pub iri: String,
    /// `host:port` to connect to.
    pub authority: String,
    /// Request path on that host, e.g. `/sparql`.
    pub path: String,
}

/// Everything needed to serve the query route in federated mode.
pub struct FederationConfig {
    /// The planner holding the per-endpoint alignment stores.
    pub planner: FederationPlanner,
    /// The interner the planner's rules and endpoint terms were built
    /// with. The server shares it read-only behind an `Arc`, and each
    /// worker parses requests into a [`sparql_rewrite_core::RequestTerms`]
    /// over it, so they resolve to the planner's symbols.
    pub interner: Interner,
    /// One route per planner endpoint (any order; matched by IRI).
    pub routes: Vec<EndpointRoute>,
    /// Executor tuning (deadline, retries, breaker).
    pub executor: ExecutorConfig,
    /// HTTP transport tuning.
    pub http: HttpConfig,
    /// Rewrite limits for per-endpoint subquery generation.
    pub limits: RewriteLimits,
    /// Record a deterministic per-request outcome transcript
    /// ([`Server::federation_transcript`]). Grows without bound — meant
    /// for soak gating, not production.
    pub record_outcomes: bool,
}

/// Structured startup rejection for a malformed federation config —
/// always an `Err`, never a panic.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum FederationConfigError {
    /// No routes given, or the planner has no endpoints.
    NoEndpoints,
    /// A route names an IRI the planner never registered.
    UnknownEndpointIri(String),
    /// Two routes name the same endpoint IRI.
    DuplicateEndpoint(String),
    /// A planner endpoint has no route to dispatch to.
    MissingRoute(String),
}

impl fmt::Display for FederationConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FederationConfigError::NoEndpoints => write!(f, "federation has no endpoints"),
            FederationConfigError::UnknownEndpointIri(iri) => {
                write!(f, "route names unknown endpoint IRI {iri}")
            }
            FederationConfigError::DuplicateEndpoint(iri) => {
                write!(f, "duplicate route for endpoint IRI {iri}")
            }
            FederationConfigError::MissingRoute(iri) => {
                write!(f, "no route for planner endpoint {iri}")
            }
        }
    }
}

impl std::error::Error for FederationConfigError {}

/// Why [`Server::spawn_federated`] failed: rejected config or socket
/// setup failure.
#[derive(Debug)]
pub enum SpawnError {
    Config(FederationConfigError),
    Io(io::Error),
}

impl fmt::Display for SpawnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpawnError::Config(e) => write!(f, "federation config: {e}"),
            SpawnError::Io(e) => write!(f, "spawn: {e}"),
        }
    }
}

impl std::error::Error for SpawnError {}

impl From<FederationConfigError> for SpawnError {
    fn from(e: FederationConfigError) -> SpawnError {
        SpawnError::Config(e)
    }
}

impl From<io::Error> for SpawnError {
    fn from(e: io::Error) -> SpawnError {
        SpawnError::Io(e)
    }
}

/// Outcome-class names in [`FederationStats::outcomes`] order — also the
/// vocabulary of the `X-Endpoint-Status` header and the envelope
/// `outcome` field.
pub const OUTCOME_CLASSES: [&str; 4] = ["served", "timed-out", "circuit-open", "retries-exhausted"];

/// Snapshot of federated-serving counters ([`Server::federation_stats`]).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FederationStats {
    /// Per-endpoint-execution outcome tallies, [`OUTCOME_CLASSES`] order.
    pub outcomes: [u64; 4],
    /// Responses where every endpoint served (`200`, `"partial":false`).
    pub complete_responses: u64,
    /// Mixed responses (`200` with `"partial":true`).
    pub partial_responses: u64,
    /// All-degraded responses answered `502`.
    pub gateway_unavailable: u64,
    /// All-degraded responses answered `504` (some endpoint timed out).
    pub gateway_timeouts: u64,
    /// Endpoint executions that overshot `deadline + backoff.max_nanos`.
    pub deadline_breaches: u64,
    /// Transport worker panics caught inside the executor.
    pub transport_panics: u64,
    /// Keep-alive connections the transport reused.
    pub reused_connections: u64,
    /// Transparent reconnects after a dead pooled connection.
    pub transparent_reconnects: u64,
    /// Current breaker state per endpoint (dense id order).
    pub breakers: Vec<BreakerState>,
}

/// What the query route serves: one engine, or a federation. One value
/// per server; the size skew between the variants is irrelevant.
#[allow(clippy::large_enum_variant)]
enum ServeMode {
    Single(Arc<ServeEngine>),
    Federated(FederationRuntime),
}

/// Number of log-spaced latency bins per route: bin `i` covers
/// `[2^(10+i), 2^(11+i))` nanoseconds — 1 µs up to 2 s — with the first
/// and last bins absorbing under/overflow.
pub const LATENCY_BINS: usize = 22;

/// Lower bound (nanoseconds) of latency bin `i`.
pub fn latency_bin_lower_nanos(i: usize) -> u64 {
    1u64 << (10 + i.min(LATENCY_BINS - 1))
}

/// One coherent-enough read of the server's counters (each counter is an
/// independent relaxed load).
#[derive(Clone, Debug, Default)]
pub struct StatsSnapshot {
    /// Connections the acceptor took off the listener.
    pub accepted: u64,
    /// Connections refused with `503` because the queue was full.
    pub shed: u64,
    /// Requests answered `200`.
    pub served: u64,
    /// Worker panics caught at the connection boundary.
    pub panics: u64,
    /// Keep-alive connections that ended idle (timeout or clean EOF).
    pub idle_closes: u64,
    /// Connections currently waiting in the admission queue.
    pub queue_depth: usize,
    /// Connections currently being handled by workers.
    pub in_flight: usize,
    /// Queued connections refused with `503` during shutdown drain.
    pub dropped_from_queue: u64,
    /// Per-[`RequestError`]-class counts, [`RequestError::labels`] order.
    pub error_classes: [u64; ERROR_CLASSES],
    /// Per-route server-side latency histograms ([`Route::index`](request::Route::index) order:
    /// query, healthz, stats); bin `i` counts responses with latency in
    /// `[latency_bin_lower_nanos(i), latency_bin_lower_nanos(i+1))`.
    /// Wall-clock — excluded from determinism comparisons by design.
    pub latency: [[u64; LATENCY_BINS]; N_ROUTES],
}

impl StatsSnapshot {
    /// Count for one error class.
    pub fn class(&self, e: RequestError) -> u64 {
        self.error_classes[e.index()]
    }

    /// Sum of all error-class counts.
    pub fn errors_total(&self) -> u64 {
        self.error_classes.iter().sum()
    }
}

/// State shared by the acceptor, the workers, and the [`Server`] handle.
struct Shared {
    mode: ServeMode,
    config: ServerConfig,
    latency: [LatencyHistogram; N_ROUTES],
    queue: Queue,
    shutdown: AtomicBool,
    /// Base instant for `drain_at_nanos` (atomics can't hold `Instant`).
    base: Instant,
    /// Drain deadline as nanos since `base`; `u64::MAX` = not draining.
    drain_at_nanos: AtomicU64,
    stats: Counters,
    shed_response: Vec<u8>,
}

impl Shared {
    fn new(mode: ServeMode, config: ServerConfig) -> Shared {
        let mut shared = Shared {
            mode,
            latency: std::array::from_fn(|_| LatencyHistogram::new()),
            queue: Queue::new(config.queue_capacity.max(1)),
            config,
            shutdown: AtomicBool::new(false),
            base: Instant::now(),
            drain_at_nanos: AtomicU64::new(u64::MAX),
            stats: Counters::new(),
            shed_response: Vec::new(),
        };
        // Built before any breaker can be cooling down, so the shed bytes
        // carry the configured value.
        shared.shed_response = render_shed(shared.retry_after_secs());
        shared
    }

    /// `Retry-After` seconds for every response that carries one (the
    /// shed `503`, a not-ready `/healthz`, the federated all-degraded
    /// `502`/`504`): the ceiling of the soonest breaker half-open ETA
    /// while one is cooling down, else the configured `retry_after_secs`;
    /// never below 1.
    fn retry_after_secs(&self) -> u64 {
        let half_open = match &self.mode {
            ServeMode::Federated(fed) => fed.executor.soonest_half_open_nanos(),
            ServeMode::Single(_) => None,
        };
        half_open
            .map_or(u64::from(self.config.retry_after_secs), |n| {
                n.div_ceil(1_000_000_000)
            })
            .max(1)
    }
}

/// What graceful shutdown observed.
#[derive(Clone, Debug)]
pub struct DrainReport {
    /// Wall time from `shutdown()` entry to all threads joined.
    pub elapsed: Duration,
    /// Queued-but-never-served connections refused with `503` at the end.
    pub dropped_from_queue: usize,
    /// The configured drain deadline (for gating `elapsed` against).
    pub drain_deadline: Duration,
    /// The configured request deadline; `elapsed` is bounded by
    /// `drain_deadline + request_deadline` (in-flight reads run out).
    pub request_deadline: Duration,
}

/// A running server: an acceptor thread, `config.workers` worker threads,
/// and this handle. Dropping the handle without calling
/// [`Server::shutdown`] leaks the threads (they keep serving).
pub struct Server {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral loopback port)
    /// and start serving `engine` with `config` (single-store mode).
    pub fn spawn(engine: Arc<ServeEngine>, config: ServerConfig, addr: &str) -> io::Result<Server> {
        Server::spawn_mode(ServeMode::Single(engine), config, addr)
    }

    /// Bind `addr` and serve the query route in federated mode: each
    /// request is planned across `fed.planner`'s endpoints and dispatched
    /// over HTTP per `fed.routes`. The config is validated first; every
    /// malformation is a structured [`SpawnError::Config`].
    pub fn spawn_federated(
        fed: FederationConfig,
        config: ServerConfig,
        addr: &str,
    ) -> Result<Server, SpawnError> {
        let runtime = build_federation(fed)?;
        Ok(Server::spawn_mode(
            ServeMode::Federated(runtime),
            config,
            addr,
        )?)
    }

    fn spawn_mode(mode: ServeMode, config: ServerConfig, addr: &str) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let n_workers = config.workers.max(1);
        let shared = Arc::new(Shared::new(mode, config));

        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("sparql-accept".into())
                .spawn(move || accept_loop(&shared, &listener))?
        };
        let mut workers = Vec::with_capacity(n_workers);
        for i in 0..n_workers {
            let shared = Arc::clone(&shared);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("sparql-worker-{i}"))
                    .spawn(move || worker_loop(&shared))?,
            );
        }
        Ok(Server {
            shared,
            local_addr,
            acceptor: Some(acceptor),
            workers,
        })
    }

    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The engine behind the server (cache stats live there); `None` in
    /// federated mode.
    pub fn engine(&self) -> Option<&Arc<ServeEngine>> {
        match &self.shared.mode {
            ServeMode::Single(engine) => Some(engine),
            ServeMode::Federated(_) => None,
        }
    }

    /// Federated-mode counters; `None` in single-store mode.
    pub fn federation_stats(&self) -> Option<FederationStats> {
        let ServeMode::Federated(fed) = &self.shared.mode else {
            return None;
        };
        Some(federation_snapshot(fed))
    }

    /// Clone of the deterministic per-request outcome transcript; `None`
    /// unless federated with `record_outcomes`.
    pub fn federation_transcript(&self) -> Option<String> {
        let ServeMode::Federated(fed) = &self.shared.mode else {
            return None;
        };
        fed.transcript
            .as_ref()
            .map(|t| t.lock().unwrap_or_else(PoisonError::into_inner).clone())
    }

    pub fn stats(&self) -> StatsSnapshot {
        stats_snapshot(&self.shared)
    }

    /// Graceful shutdown: stop accepting, bound new waiting by the drain
    /// deadline, let in-flight reads run out their request deadline, join
    /// everything, refuse leftovers with `503`.
    pub fn shutdown(mut self) -> DrainReport {
        let start = Instant::now();
        let shared = &self.shared;
        let drain_at = start + shared.config.drain_deadline;
        shared.drain_at_nanos.store(
            drain_at.duration_since(shared.base).as_nanos() as u64,
            Ordering::Release,
        );
        shared.shutdown.store(true, Ordering::Release);
        // Wake the acceptor out of its blocking accept().
        let _ = TcpStream::connect(self.local_addr);
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        shared.queue.wake_all();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        let dropped = shared.queue.refuse_all(&shared.shed_response);
        shared
            .stats
            .dropped_from_queue
            .fetch_add(dropped as u64, Ordering::Relaxed);
        DrainReport {
            elapsed: start.elapsed(),
            dropped_from_queue: dropped,
            drain_deadline: shared.config.drain_deadline,
            request_deadline: shared.config.request_deadline,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::response::render_with;
    use crate::stats::render_health;
    use sparql_rewrite_core::AlignmentStore;

    /// Shared state of a single-store server that spawns no threads.
    fn test_shared(config: ServerConfig) -> Shared {
        let engine = ServeEngine::with_cache(AlignmentStore::new(), Interner::new(), None);
        Shared::new(ServeMode::Single(Arc::new(engine)), config)
    }

    /// The value of the `Retry-After` header in `response`, if any.
    fn retry_after(response: &[u8]) -> Option<String> {
        let text = String::from_utf8_lossy(response);
        let head = text.split("\r\n\r\n").next()?;
        head.lines()
            .find_map(|l| l.strip_prefix("Retry-After: "))
            .map(str::to_string)
    }

    #[test]
    fn shed_and_gateway_responses_share_retry_after() {
        let shed = render_shed(7);
        let text = String::from_utf8_lossy(&shed).into_owned();
        assert!(text.starts_with("HTTP/1.1 503 Service Unavailable\r\n"));
        assert!(text.contains("\r\nRetry-After: 7\r\n"));
        assert!(text.contains("\r\nConnection: close\r\n"));
        assert!(text.ends_with("\r\n\r\noverloaded\n"));

        let mut buf = Vec::new();
        render_with(&mut buf, 502, b"{}", "application/json", true, Some(3), &[]);
        let text = String::from_utf8_lossy(&buf).into_owned();
        assert!(text.starts_with("HTTP/1.1 502 Bad Gateway\r\n"));
        assert!(text.contains("\r\nRetry-After: 3\r\n"));

        let mut buf = Vec::new();
        render_with(
            &mut buf,
            504,
            b"{}",
            "application/json",
            false,
            Some(1),
            &[("X-Endpoint-Status", b"ep0=timed-out")],
        );
        let text = String::from_utf8_lossy(&buf).into_owned();
        assert!(text.starts_with("HTTP/1.1 504 Gateway Timeout\r\n"));
        assert!(text.contains("\r\nRetry-After: 1\r\n"));
        assert!(text.contains("\r\nX-Endpoint-Status: ep0=timed-out\r\n"));
    }

    #[test]
    fn shed_bytes_unchanged_by_helper_unification() {
        // Pin the exact byte shape the overload soak's shed assertions
        // rely on (body, header order, close semantics).
        let expected: &[u8] = b"HTTP/1.1 503 Service Unavailable\r\nContent-Type: text/plain\r\nRetry-After: 1\r\nContent-Length: 11\r\nConnection: close\r\n\r\noverloaded\n";
        assert_eq!(render_shed(1), expected);
    }

    #[test]
    fn a_configured_zero_retry_after_is_floored_to_one_everywhere() {
        let shared = test_shared(ServerConfig {
            retry_after_secs: 0,
            ..ServerConfig::default()
        });
        // Not ready: draining since the server's base instant.
        shared.drain_at_nanos.store(0, Ordering::Release);
        let mut health = Vec::new();
        render_health(&shared, &mut health, true);
        assert!(health.starts_with(b"HTTP/1.1 503 Service Unavailable\r\n"));
        let shed = retry_after(&shared.shed_response);
        assert_eq!(shed.as_deref(), Some("1"), "shed 503 Retry-After");
        assert_eq!(retry_after(&health), shed, "/healthz and shed 503 disagree");
    }

    #[test]
    fn latency_bins_are_log_spaced_and_saturating() {
        let shared = test_shared(ServerConfig::default());
        let h = &shared.latency[0];
        h.record(0); // clamps into bin 0
        h.record(1_023); // below 2^10 → bin 0
        h.record(1_024); // 2^10 → bin 0 lower bound
        h.record(2_048); // 2^11 → bin 1
        h.record(u64::MAX); // saturates into the last bin
        let snap = stats_snapshot(&shared).latency[0];
        assert_eq!(snap[0], 3);
        assert_eq!(snap[1], 1);
        assert_eq!(snap[LATENCY_BINS - 1], 1);
        assert_eq!(snap.iter().sum::<u64>(), 5);
        assert_eq!(latency_bin_lower_nanos(0), 1 << 10);
        assert_eq!(latency_bin_lower_nanos(LATENCY_BINS - 1), 1 << 31);
    }
}
