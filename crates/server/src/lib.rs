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
//! [`DeadlineReader`]: sparql_rewrite_core::httpcore::DeadlineReader

pub mod request;

use std::collections::VecDeque;
use std::fmt;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use sparql_rewrite_core::httpcore::{DeadlineReader, HttpLimits};
use sparql_rewrite_core::{
    parse_query_into, BreakerState, EndpointId, EndpointOutcome, ExecutorConfig, FederatedExecutor,
    FederatedResult, FederationPlanner, HttpConfig, HttpEndpoint, HttpTransport, Interner,
    ParseScratch, RewriteLimits, ServeEngine, ServeScratch,
};

use request::{read_request, RequestError, RequestScratch, Route, ERROR_CLASSES, N_ROUTES};

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
    /// `Retry-After` seconds advertised on the shed path.
    pub retry_after_secs: u32,
    /// Query route path (SPARQL protocol endpoint), e.g. `/sparql`.
    pub route: String,
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
            route: String::from("/sparql"),
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
    /// The interner the planner's rules were built with; each worker
    /// clones it so request parsing resolves to the planner's symbols.
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

fn outcome_class(o: &EndpointOutcome) -> usize {
    match o {
        EndpointOutcome::Served { .. } => 0,
        EndpointOutcome::TimedOut { .. } => 1,
        EndpointOutcome::CircuitOpen { .. } => 2,
        EndpointOutcome::ExhaustedRetries { .. } => 3,
    }
}

fn outcome_attempts(o: &EndpointOutcome) -> u32 {
    match *o {
        EndpointOutcome::Served { attempts, .. }
        | EndpointOutcome::TimedOut { attempts, .. }
        | EndpointOutcome::CircuitOpen { attempts }
        | EndpointOutcome::ExhaustedRetries { attempts, .. } => attempts,
    }
}

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

/// Federated-mode serving state shared across workers.
struct FederationRuntime {
    planner: FederationPlanner,
    executor: FederatedExecutor<HttpTransport>,
    interner: Interner,
    limits: RewriteLimits,
    /// Per-endpoint outcome tallies, [`OUTCOME_CLASSES`] order.
    outcome_counts: [AtomicU64; 4],
    complete_responses: AtomicU64,
    partial_responses: AtomicU64,
    gateway_unavailable: AtomicU64,
    gateway_timeouts: AtomicU64,
    /// Endpoint executions that overshot `deadline + backoff.max_nanos`.
    deadline_breaches: AtomicU64,
    /// Request sequence for transcript lines.
    seq: AtomicU64,
    transcript: Option<Mutex<String>>,
}

impl FederationRuntime {
    /// `Retry-After` seconds for an all-degraded response: ceiling of the
    /// soonest breaker half-open ETA, else the configured shed default.
    fn retry_after_secs(&self, fallback: u32) -> u64 {
        match self.executor.soonest_half_open_nanos() {
            Some(n) => n.div_ceil(1_000_000_000).max(1),
            None => u64::from(fallback.max(1)),
        }
    }
}

/// Validate a [`FederationConfig`] against its planner and build the
/// shared runtime. Every malformation is a structured error, never a
/// panic.
fn build_federation(fed: FederationConfig) -> Result<FederationRuntime, FederationConfigError> {
    let n = fed.planner.n_endpoints();
    if n == 0 || fed.routes.is_empty() {
        return Err(FederationConfigError::NoEndpoints);
    }
    let mut slots: Vec<Option<HttpEndpoint>> = (0..n).map(|_| None).collect();
    for route in &fed.routes {
        let id = (0..n).find(|&e| {
            let term = fed.planner.endpoint_term(EndpointId(e as u32));
            fed.interner.resolve(term.symbol()) == route.iri
        });
        let Some(id) = id else {
            return Err(FederationConfigError::UnknownEndpointIri(route.iri.clone()));
        };
        if slots[id].is_some() {
            return Err(FederationConfigError::DuplicateEndpoint(route.iri.clone()));
        }
        slots[id] = Some(HttpEndpoint::new(
            route.authority.clone(),
            route.path.clone(),
        ));
    }
    let mut endpoints = Vec::with_capacity(n);
    for (e, slot) in slots.into_iter().enumerate() {
        match slot {
            Some(ep) => endpoints.push(ep),
            None => {
                let term = fed.planner.endpoint_term(EndpointId(e as u32));
                return Err(FederationConfigError::MissingRoute(
                    fed.interner.resolve(term.symbol()).to_string(),
                ));
            }
        }
    }
    let transport = HttpTransport::new(endpoints, fed.http);
    let executor = FederatedExecutor::new(transport, n, fed.executor);
    Ok(FederationRuntime {
        planner: fed.planner,
        executor,
        interner: fed.interner,
        limits: fed.limits,
        outcome_counts: std::array::from_fn(|_| AtomicU64::new(0)),
        complete_responses: AtomicU64::new(0),
        partial_responses: AtomicU64::new(0),
        gateway_unavailable: AtomicU64::new(0),
        gateway_timeouts: AtomicU64::new(0),
        deadline_breaches: AtomicU64::new(0),
        seq: AtomicU64::new(0),
        transcript: fed.record_outcomes.then(|| Mutex::new(String::new())),
    })
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

/// Fixed log2-binned latency histogram (relaxed atomics, lock-free).
/// Server-side wall-clock only — never part of determinism transcripts.
struct LatencyHistogram {
    bins: [AtomicU64; LATENCY_BINS],
}

impl LatencyHistogram {
    fn new() -> LatencyHistogram {
        LatencyHistogram {
            bins: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    fn record(&self, nanos: u64) {
        let lg = 63 - nanos.max(1).leading_zeros() as usize;
        let bin = lg.saturating_sub(10).min(LATENCY_BINS - 1);
        self.bins[bin].fetch_add(1, Ordering::Relaxed);
    }

    fn snapshot(&self) -> [u64; LATENCY_BINS] {
        std::array::from_fn(|i| self.bins[i].load(Ordering::Relaxed))
    }
}

/// Monotone counters + gauges, updated with relaxed atomics off the hot
/// path's shared cache lines (per-request accounting that must be exact
/// per class is one `fetch_add` per outcome).
struct Counters {
    accepted: AtomicU64,
    shed: AtomicU64,
    served: AtomicU64,
    panics: AtomicU64,
    idle_closes: AtomicU64,
    in_flight: AtomicUsize,
    dropped_from_queue: AtomicU64,
    class_counts: [AtomicU64; ERROR_CLASSES],
}

impl Counters {
    fn new() -> Counters {
        Counters {
            accepted: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            served: AtomicU64::new(0),
            panics: AtomicU64::new(0),
            idle_closes: AtomicU64::new(0),
            in_flight: AtomicUsize::new(0),
            dropped_from_queue: AtomicU64::new(0),
            class_counts: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    fn count(&self, e: RequestError) {
        self.class_counts[e.index()].fetch_add(1, Ordering::Relaxed);
    }
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
    /// Per-route server-side latency histograms ([`Route::index`] order:
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

/// Bounded accept→work handoff. `try_push` is O(1) and never blocks the
/// acceptor; `notify_one` wakes exactly one worker.
struct Queue {
    inner: Mutex<VecDeque<TcpStream>>,
    cond: Condvar,
    capacity: usize,
}

impl Queue {
    fn try_push(&self, s: TcpStream) -> Result<(), TcpStream> {
        let mut q = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        if q.len() >= self.capacity {
            return Err(s);
        }
        q.push_back(s);
        drop(q);
        self.cond.notify_one();
        Ok(())
    }

    fn depth(&self) -> usize {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
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
    fn draining(&self) -> bool {
        self.drain_at_nanos.load(Ordering::Acquire) != u64::MAX
    }

    fn drain_instant(&self) -> Option<Instant> {
        let n = self.drain_at_nanos.load(Ordering::Acquire);
        (n != u64::MAX).then(|| self.base + Duration::from_nanos(n))
    }

    fn drain_expired(&self) -> bool {
        self.drain_instant().is_some_and(|d| Instant::now() >= d)
    }

    /// `now + budget`, capped by the drain deadline once draining.
    fn eff_deadline(&self, budget: Duration) -> Instant {
        let t = Instant::now() + budget;
        match self.drain_instant() {
            Some(d) if d < t => d,
            _ => t,
        }
    }

    /// Worker-side pickup: blocks (in 20ms condvar slices) until a
    /// connection is available or shutdown empties the well. Once the
    /// drain deadline has passed, remaining queued connections are left
    /// for [`Server::shutdown`] to refuse with `503`.
    fn pop_conn(&self) -> Option<TcpStream> {
        let mut q = self
            .queue
            .inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        loop {
            if self.shutdown.load(Ordering::Acquire) && self.drain_expired() {
                return None;
            }
            if let Some(s) = q.pop_front() {
                return Some(s);
            }
            if self.shutdown.load(Ordering::Acquire) {
                return None;
            }
            let (guard, _) = self
                .queue
                .cond
                .wait_timeout(q, Duration::from_millis(20))
                .unwrap_or_else(PoisonError::into_inner);
            q = guard;
        }
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

impl DrainReport {
    /// Did the drain complete within its documented bound (plus `slack`
    /// for scheduling noise)?
    pub fn within_bound(&self, slack: Duration) -> bool {
        self.elapsed <= self.drain_deadline + self.request_deadline + slack
    }
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
        let shed_response = render_shed(config.retry_after_secs);
        let n_workers = config.workers.max(1);
        let capacity = config.queue_capacity.max(1);
        let shared = Arc::new(Shared {
            mode,
            latency: std::array::from_fn(|_| LatencyHistogram::new()),
            queue: Queue {
                inner: Mutex::new(VecDeque::with_capacity(capacity)),
                cond: Condvar::new(),
                capacity,
            },
            config,
            shutdown: AtomicBool::new(false),
            base: Instant::now(),
            drain_at_nanos: AtomicU64::new(u64::MAX),
            stats: Counters::new(),
            shed_response,
        });

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
        Some(FederationStats {
            outcomes: std::array::from_fn(|i| fed.outcome_counts[i].load(Ordering::Relaxed)),
            complete_responses: fed.complete_responses.load(Ordering::Relaxed),
            partial_responses: fed.partial_responses.load(Ordering::Relaxed),
            gateway_unavailable: fed.gateway_unavailable.load(Ordering::Relaxed),
            gateway_timeouts: fed.gateway_timeouts.load(Ordering::Relaxed),
            deadline_breaches: fed.deadline_breaches.load(Ordering::Relaxed),
            transport_panics: fed.executor.caught_panics(),
            reused_connections: fed.executor.transport().reused_connections(),
            transparent_reconnects: fed.executor.transport().transparent_reconnects(),
            breakers: fed.executor.breaker_states(),
        })
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
        let c = &self.shared.stats;
        StatsSnapshot {
            accepted: c.accepted.load(Ordering::Relaxed),
            shed: c.shed.load(Ordering::Relaxed),
            served: c.served.load(Ordering::Relaxed),
            panics: c.panics.load(Ordering::Relaxed),
            idle_closes: c.idle_closes.load(Ordering::Relaxed),
            queue_depth: self.shared.queue.depth(),
            in_flight: c.in_flight.load(Ordering::Relaxed),
            dropped_from_queue: c.dropped_from_queue.load(Ordering::Relaxed),
            error_classes: std::array::from_fn(|i| c.class_counts[i].load(Ordering::Relaxed)),
            latency: std::array::from_fn(|r| self.shared.latency[r].snapshot()),
        }
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
        shared.queue.cond.notify_all();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        let mut dropped = 0usize;
        let mut q = shared
            .queue
            .inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        while let Some(stream) = q.pop_front() {
            dropped += 1;
            write_shed(&stream, &shared.shed_response);
        }
        drop(q);
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

fn accept_loop(shared: &Shared, listener: &TcpListener) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if shared.shutdown.load(Ordering::Acquire) {
                    // The shutdown wake-up connection (or a straggler).
                    drop(stream);
                    return;
                }
                shared.stats.accepted.fetch_add(1, Ordering::Relaxed);
                let _ = stream.set_nodelay(true);
                if let Err(stream) = shared.queue.try_push(stream) {
                    // O(1) load shed: prebuilt bytes, no parsing, short
                    // write timeout so a dead peer can't stall accepts.
                    shared.stats.shed.fetch_add(1, Ordering::Relaxed);
                    write_shed(&stream, &shared.shed_response);
                }
            }
            Err(_) => {
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
                // Transient accept failure (e.g. fd pressure): back off a
                // beat instead of spinning.
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    }
}

/// Per-worker serve state: the server's [`ServeMode`] paired with the
/// worker's buffers for it. One value per worker thread, alive for the
/// thread's whole life; boxing would only add a pointer chase on the serve
/// path.
#[allow(clippy::large_enum_variant)]
enum WorkerScratch<'a> {
    Single(&'a ServeEngine, ServeScratch),
    Federated(&'a FederationRuntime, FedScratch),
}

/// Federated-mode per-worker buffers: a cloned interner (so parsing
/// resolves to the planner's symbols without cross-worker locking),
/// parse scratch, and response-building buffers.
struct FedScratch {
    interner: Interner,
    parse: ParseScratch,
    body: String,
    status_header: String,
}

fn new_worker_scratch(shared: &Shared) -> WorkerScratch<'_> {
    match &shared.mode {
        ServeMode::Single(engine) => WorkerScratch::Single(engine, engine.scratch()),
        ServeMode::Federated(fed) => WorkerScratch::Federated(
            fed,
            FedScratch {
                interner: fed.interner.clone(),
                parse: ParseScratch::new(),
                body: String::new(),
                status_header: String::new(),
            },
        ),
    }
}

fn worker_loop(shared: &Shared) {
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
        let _ = stream.set_write_timeout(Some(shared.config.request_deadline));
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

/// Federated serve: parse → plan per endpoint → dispatch over HTTP → map
/// the per-endpoint outcomes onto one response.
///
/// * every endpoint served → `200`, envelope `"partial":false`
/// * some served → `200`, `"partial":true` + `X-Endpoint-Status` detail
/// * none served → `502` (`504` if any endpoint timed out) with
///   `Retry-After` from the soonest breaker half-open ETA
fn serve_federated(
    shared: &Shared,
    fed: &FederationRuntime,
    query: &str,
    fs: &mut FedScratch,
    resp: &mut Vec<u8>,
    close: bool,
) {
    use std::fmt::Write as _;
    let seq = fed.seq.fetch_add(1, Ordering::Relaxed);
    // A request boundary: the partition cache is keyed by term text, so no
    // symbol minted for an earlier request is looked up again.
    fs.interner.trim_overlay();
    let planned = parse_query_into(query, &mut fs.interner, &mut fs.parse)
        .ok()
        .and_then(|()| {
            fed.planner
                .plan_for_dispatch(fs.parse.query_ref(), &fs.interner, fed.limits)
                .ok()
        });
    let Some(plan) = planned else {
        let e = RequestError::QueryUnparseable;
        shared.stats.count(e);
        if let Some(t) = &fed.transcript {
            let mut t = t.lock().unwrap_or_else(PoisonError::into_inner);
            let _ = writeln!(t, "r{seq} reject query_unparseable");
        }
        render_response(resp, 400, e.label().as_bytes(), "text/plain", close);
        return;
    };
    let result = fed.executor.execute(&plan.endpoints);

    let ceiling = {
        let c = fed.executor.config();
        c.deadline_nanos.saturating_add(c.backoff.max_nanos)
    };
    let mut any_timeout = false;
    for report in &result.reports {
        fed.outcome_counts[outcome_class(&report.outcome)].fetch_add(1, Ordering::Relaxed);
        let elapsed = match report.outcome {
            EndpointOutcome::Served { latency_nanos, .. } => latency_nanos,
            EndpointOutcome::TimedOut { elapsed_nanos, .. } => {
                any_timeout = true;
                elapsed_nanos
            }
            _ => 0,
        };
        if elapsed > ceiling {
            fed.deadline_breaches.fetch_add(1, Ordering::Relaxed);
        }
    }
    if let Some(t) = &fed.transcript {
        let mut t = t.lock().unwrap_or_else(PoisonError::into_inner);
        for report in &result.reports {
            // Outcome classes, attempts, and row payloads only — never
            // wall-clock nanos — so two same-seed runs compare bytewise.
            let _ = writeln!(
                t,
                "r{seq} ep={} {} a={} rows={}",
                report.endpoint.0,
                OUTCOME_CLASSES[outcome_class(&report.outcome)],
                outcome_attempts(&report.outcome),
                report.rows.as_deref().unwrap_or("-"),
            );
        }
    }

    let n = result.reports.len();
    let served = result.served_count();
    render_envelope(
        fed,
        &result,
        plan.n_residual_patterns,
        served < n,
        &mut fs.body,
    );
    if served == n {
        fed.complete_responses.fetch_add(1, Ordering::Relaxed);
        shared.stats.served.fetch_add(1, Ordering::Relaxed);
        render_response(resp, 200, fs.body.as_bytes(), "application/json", close);
    } else {
        endpoint_status_header(&result, &mut fs.status_header);
        let extra = [("X-Endpoint-Status", fs.status_header.as_bytes())];
        if served > 0 {
            fed.partial_responses.fetch_add(1, Ordering::Relaxed);
            shared.stats.served.fetch_add(1, Ordering::Relaxed);
            render_with(
                resp,
                200,
                fs.body.as_bytes(),
                "application/json",
                close,
                None,
                &extra,
            );
        } else {
            let status = if any_timeout { 504 } else { 502 };
            let counter = if any_timeout {
                &fed.gateway_timeouts
            } else {
                &fed.gateway_unavailable
            };
            counter.fetch_add(1, Ordering::Relaxed);
            let retry = fed.retry_after_secs(shared.config.retry_after_secs);
            render_unavailable(
                resp,
                status,
                retry,
                fs.body.as_bytes(),
                "application/json",
                close,
                &extra,
            );
        }
    }
}

/// Hand-rolled JSON result envelope. Byte-deterministic for a fixed
/// outcome sequence: no latency or timestamp fields.
fn render_envelope(
    fed: &FederationRuntime,
    result: &FederatedResult,
    n_residual_patterns: usize,
    partial: bool,
    out: &mut String,
) {
    use std::fmt::Write as _;
    out.clear();
    let _ = write!(
        out,
        "{{\"partial\":{partial},\"residual_patterns\":{n_residual_patterns},\"endpoints\":["
    );
    for (i, report) in result.reports.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let iri = fed
            .interner
            .resolve(fed.planner.endpoint_term(report.endpoint).symbol());
        let _ = write!(out, "{{\"id\":{},\"iri\":\"", report.endpoint.0);
        push_json_escaped(out, iri);
        let _ = write!(
            out,
            "\",\"outcome\":\"{}\",\"attempts\":{}",
            OUTCOME_CLASSES[outcome_class(&report.outcome)],
            outcome_attempts(&report.outcome),
        );
        if let Some(rows) = &report.rows {
            out.push_str(",\"rows\":\"");
            push_json_escaped(out, rows);
            out.push('"');
        }
        out.push('}');
    }
    out.push_str("]}");
}

/// `X-Endpoint-Status` value: `ep0=served,ep1=timed-out,…` in plan order.
fn endpoint_status_header(result: &FederatedResult, out: &mut String) {
    use std::fmt::Write as _;
    out.clear();
    for (i, report) in result.reports.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "ep{}={}",
            report.endpoint.0,
            OUTCOME_CLASSES[outcome_class(&report.outcome)]
        );
    }
}

/// Minimal JSON string escape: quote, backslash, and control bytes.
fn push_json_escaped(out: &mut String, s: &str) {
    use std::fmt::Write as _;
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// `GET /healthz`: readiness probe. Not ready (`503` + reason body +
/// `Retry-After`) while draining, with a saturated admission queue, or —
/// federated — with every breaker open; otherwise `200 ok`.
fn render_health(shared: &Shared, resp: &mut Vec<u8>, close: bool) {
    let reason_body: Option<&[u8]> = if shared.draining() {
        Some(b"draining\n")
    } else if shared.queue.depth() >= shared.queue.capacity {
        Some(b"queue-full\n")
    } else if let ServeMode::Federated(fed) = &shared.mode {
        let states = fed.executor.breaker_states();
        let all_open = !states.is_empty() && states.iter().all(|s| *s == BreakerState::Open);
        all_open.then_some(b"breakers-open\n".as_slice())
    } else {
        None
    };
    match reason_body {
        Some(body) => {
            let retry = match &shared.mode {
                ServeMode::Federated(fed) => fed.retry_after_secs(shared.config.retry_after_secs),
                ServeMode::Single(_) => u64::from(shared.config.retry_after_secs.max(1)),
            };
            render_unavailable(resp, 503, retry, body, "text/plain", close, &[]);
        }
        None => render_response(resp, 200, b"ok\n", "text/plain", close),
    }
}

/// `GET /stats`: JSON counters snapshot. Builds into a fresh `String` —
/// the observability surface is off the zero-alloc hot path by design.
fn render_stats(shared: &Shared, resp: &mut Vec<u8>, close: bool) {
    use std::fmt::Write as _;
    let c = &shared.stats;
    let mut s = String::with_capacity(2048);
    let _ = write!(
        s,
        "{{\"accepted\":{},\"shed\":{},\"served\":{},\"worker_panics\":{},\"idle_closes\":{},\"queue_depth\":{},\"queue_capacity\":{},\"in_flight\":{}",
        c.accepted.load(Ordering::Relaxed),
        c.shed.load(Ordering::Relaxed),
        c.served.load(Ordering::Relaxed),
        c.panics.load(Ordering::Relaxed),
        c.idle_closes.load(Ordering::Relaxed),
        shared.queue.depth(),
        shared.queue.capacity,
        c.in_flight.load(Ordering::Relaxed),
    );
    s.push_str(",\"errors\":{");
    for (i, label) in RequestError::labels().iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(
            s,
            "\"{label}\":{}",
            c.class_counts[i].load(Ordering::Relaxed)
        );
    }
    s.push('}');
    let _ = write!(
        s,
        ",\"drain\":{{\"draining\":{},\"dropped_from_queue\":{},\"drain_deadline_ms\":{},\"request_deadline_ms\":{}}}",
        shared.draining(),
        c.dropped_from_queue.load(Ordering::Relaxed),
        shared.config.drain_deadline.as_millis(),
        shared.config.request_deadline.as_millis(),
    );
    s.push_str(",\"latency_nanos\":{\"bin_lower\":[");
    for i in 0..LATENCY_BINS {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "{}", latency_bin_lower_nanos(i));
    }
    s.push(']');
    for (name, hist) in [
        ("query", &shared.latency[Route::Query.index()]),
        ("healthz", &shared.latency[Route::Health.index()]),
        ("stats", &shared.latency[Route::Stats.index()]),
    ] {
        let _ = write!(s, ",\"{name}\":[");
        for (i, v) in hist.snapshot().iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "{v}");
        }
        s.push(']');
    }
    s.push('}');
    match &shared.mode {
        ServeMode::Single(engine) => {
            if let Some(stats) = engine.cache_stats() {
                let (grows, shrinks) = engine.cache_resizes();
                let _ = write!(
                    s,
                    ",\"cache\":{{\"occupancy\":{},\"capacity\":{},\"hits\":{},\"misses\":{},\"evictions\":{},\"oversize_bypasses\":{},\"value_cap\":{},\"grows\":{},\"shrinks\":{}}}",
                    stats.occupancy(),
                    stats.capacity(),
                    stats.hits(),
                    stats.misses(),
                    stats.evictions(),
                    stats.oversize_bypasses(),
                    engine.cache_value_cap().unwrap_or(0),
                    grows,
                    shrinks,
                );
            }
        }
        ServeMode::Federated(fed) => {
            let _ = write!(
                s,
                ",\"federation\":{{\"complete\":{},\"partial\":{},\"gateway_502\":{},\"gateway_504\":{},\"deadline_breaches\":{},\"transport_panics\":{},\"reused_connections\":{},\"transparent_reconnects\":{}",
                fed.complete_responses.load(Ordering::Relaxed),
                fed.partial_responses.load(Ordering::Relaxed),
                fed.gateway_unavailable.load(Ordering::Relaxed),
                fed.gateway_timeouts.load(Ordering::Relaxed),
                fed.deadline_breaches.load(Ordering::Relaxed),
                fed.executor.caught_panics(),
                fed.executor.transport().reused_connections(),
                fed.executor.transport().transparent_reconnects(),
            );
            s.push_str(",\"outcomes\":{");
            for (i, name) in OUTCOME_CLASSES.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                let _ = write!(
                    s,
                    "\"{name}\":{}",
                    fed.outcome_counts[i].load(Ordering::Relaxed)
                );
            }
            s.push_str("},\"breakers\":[");
            for (i, st) in fed.executor.breaker_states().iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                let _ = write!(s, "\"{st:?}\"");
            }
            s.push_str("]}");
        }
    }
    s.push('}');
    render_response(resp, 200, s.as_bytes(), "application/json", close);
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

/// Shed-path write: prebuilt bytes, bounded write, brief linger.
fn write_shed(stream: &TcpStream, bytes: &[u8]) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_write_timeout(Some(Duration::from_millis(200)));
    let mut s = stream;
    if s.write_all(bytes).is_ok() {
        let _ = stream.shutdown(Shutdown::Write);
        let _ = stream.set_read_timeout(Some(Duration::from_millis(10)));
        let mut buf = [0u8; 1024];
        let _ = s.read(&mut buf);
    }
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        411 => "Length Required",
        413 => "Payload Too Large",
        415 => "Unsupported Media Type",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        502 => "Bad Gateway",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Response",
    }
}

/// The one response renderer: status line, `Content-Type`, optional
/// `Retry-After`, extra headers, `Content-Length`, optional
/// `Connection: close`, body. Allocation-free once `buf` has capacity —
/// the 200 hot path reuses one buffer per worker.
fn render_with(
    buf: &mut Vec<u8>,
    status: u16,
    body: &[u8],
    content_type: &str,
    close: bool,
    retry_after_secs: Option<u64>,
    extra: &[(&str, &[u8])],
) {
    buf.clear();
    buf.extend_from_slice(b"HTTP/1.1 ");
    push_decimal(buf, status as u64);
    buf.push(b' ');
    buf.extend_from_slice(reason(status).as_bytes());
    buf.extend_from_slice(b"\r\nContent-Type: ");
    buf.extend_from_slice(content_type.as_bytes());
    if let Some(secs) = retry_after_secs {
        buf.extend_from_slice(b"\r\nRetry-After: ");
        push_decimal(buf, secs);
    }
    for (name, value) in extra {
        buf.extend_from_slice(b"\r\n");
        buf.extend_from_slice(name.as_bytes());
        buf.extend_from_slice(b": ");
        buf.extend_from_slice(value);
    }
    buf.extend_from_slice(b"\r\nContent-Length: ");
    push_decimal(buf, body.len() as u64);
    if close {
        buf.extend_from_slice(b"\r\nConnection: close");
    }
    buf.extend_from_slice(b"\r\n\r\n");
    buf.extend_from_slice(body);
}

/// Render a plain response (no `Retry-After`, no extra headers).
fn render_response(buf: &mut Vec<u8>, status: u16, body: &[u8], content_type: &str, close: bool) {
    render_with(buf, status, body, content_type, close, None, &[]);
}

/// Render a `Retry-After`-bearing unavailability response — the single
/// helper behind the prebuilt shed `503`, the federated all-degraded
/// `502`/`504`, and the not-ready health probe.
fn render_unavailable(
    buf: &mut Vec<u8>,
    status: u16,
    retry_after_secs: u64,
    body: &[u8],
    content_type: &str,
    close: bool,
    extra: &[(&str, &[u8])],
) {
    render_with(
        buf,
        status,
        body,
        content_type,
        close,
        Some(retry_after_secs),
        extra,
    );
}

/// The prebuilt overload response the acceptor writes on the shed path.
fn render_shed(retry_after_secs: u32) -> Vec<u8> {
    let mut buf = Vec::with_capacity(160);
    render_unavailable(
        &mut buf,
        503,
        u64::from(retry_after_secs),
        b"overloaded\n",
        "text/plain",
        true,
        &[],
    );
    buf
}

fn push_decimal(out: &mut Vec<u8>, mut n: u64) {
    let mut tmp = [0u8; 20];
    let mut i = tmp.len();
    loop {
        i -= 1;
        tmp[i] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.extend_from_slice(&tmp[i..]);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shed_and_gateway_responses_share_retry_after() {
        let shed = render_shed(7);
        let text = String::from_utf8_lossy(&shed).into_owned();
        assert!(text.starts_with("HTTP/1.1 503 Service Unavailable\r\n"));
        assert!(text.contains("\r\nRetry-After: 7\r\n"));
        assert!(text.contains("\r\nConnection: close\r\n"));
        assert!(text.ends_with("\r\n\r\noverloaded\n"));

        let mut buf = Vec::new();
        render_unavailable(&mut buf, 502, 3, b"{}", "application/json", true, &[]);
        let text = String::from_utf8_lossy(&buf).into_owned();
        assert!(text.starts_with("HTTP/1.1 502 Bad Gateway\r\n"));
        assert!(text.contains("\r\nRetry-After: 3\r\n"));

        let mut buf = Vec::new();
        render_unavailable(
            &mut buf,
            504,
            1,
            b"{}",
            "application/json",
            false,
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
    fn latency_bins_are_log_spaced_and_saturating() {
        let h = LatencyHistogram::new();
        h.record(0); // clamps into bin 0
        h.record(1_023); // below 2^10 → bin 0
        h.record(1_024); // 2^10 → bin 0 lower bound
        h.record(2_048); // 2^11 → bin 1
        h.record(u64::MAX); // saturates into the last bin
        let snap = h.snapshot();
        assert_eq!(snap[0], 3);
        assert_eq!(snap[1], 1);
        assert_eq!(snap[LATENCY_BINS - 1], 1);
        assert_eq!(snap.iter().sum::<u64>(), 5);
        assert_eq!(latency_bin_lower_nanos(0), 1 << 10);
        assert_eq!(latency_bin_lower_nanos(LATENCY_BINS - 1), 1 << 31);
    }
}
