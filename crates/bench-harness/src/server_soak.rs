//! Server-side robustness legs: the `server/chaos_soak` config (seeded
//! chaos client vs the live HTTP front end, run twice and gated on
//! byte-identical outcome transcripts) and the `server/cached/zipf`
//! config (healthy keep-alive traffic through the socket, gated on zero
//! steady-state allocations per request under the counting allocator).
//!
//! Three phases:
//!
//! 1. **Chaos** — a fresh server + [`ChaosClient`] schedule, twice with
//!    the same seed. Gates: zero worker panics, transcripts and fault
//!    schedules byte-identical, every fault class observed, structured
//!    degradation observed (some errors, some serves).
//! 2. **Shed/drain** — workers wedged by slow-loris blockers, queue
//!    packed by silent fillers, then probes that must all be refused
//!    with an O(1) `503` under a p99 bound; shutdown must refuse exactly
//!    the parked fillers and finish inside the documented drain bound.
//! 3. **Cached hit path** — one keep-alive connection streams a Zipfian
//!    request mix (pre-rendered bytes, hand-rolled allocation-free
//!    response reader) through a [`ServeEngine::with_tuned_cache`]
//!    server; the allocation counter must not move.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use sparql_rewrite_core::counting_alloc::allocation_count;
use sparql_rewrite_core::httpcore::{read_response, HttpLimits};
use sparql_rewrite_core::{
    BackoffPolicy, BreakerConfig, CacheConfig, ChaosProxy, ChaosSpec, ExecutorConfig, HttpConfig,
    Interner, RewriteLimits, ServeEngine,
};
use sparql_rewrite_server::{
    EndpointRoute, FederationConfig, FederationStats, Server, ServerConfig, StatsSnapshot,
};

use crate::chaos_client::{render_get, ChaosClient, N_FAULTS};
use crate::workload::{
    alias_prefix, generate, generate_federation, perturb_whitespace, zipf_ranks, ComplexShape,
    FederationSpec, Rng, WorkloadSpec, ZipfSpec,
};

/// Outcome of the server chaos soak (phases 1 and 2).
pub struct ServerSoak {
    pub served: u64,
    pub errors_total: u64,
    /// Transcripts, fault schedules, and server counters byte-identical
    /// across the two identical-seed runs.
    pub deterministic: bool,
    pub all_faults_injected: bool,
    /// Worker panics summed over both runs (gated to zero).
    pub panics: u64,
    // ---- shed/drain phase ----
    pub shed: u64,
    pub sheds_well_formed: bool,
    pub shed_p99_ms: f64,
    pub dropped_from_queue: usize,
    pub drain_elapsed_ms: f64,
    pub drain_within_bound: bool,
}

impl ServerSoak {
    /// The front end's overload/degradation contract, proven against a
    /// live loopback server. Each failure means a robustness property
    /// regressed — a worker panic escaped isolation, identically seeded
    /// adversaries produced different outcomes, a fault class silently
    /// stopped firing, the shed path waited on workers, or graceful
    /// shutdown overran its documented bound.
    pub fn failures(&self) -> Vec<String> {
        let mut failures = Vec::new();
        if self.panics > 0 {
            failures.push(format!(
                "server chaos soak caught {} worker panic(s) — malformed input reached a panic",
                self.panics
            ));
        }
        if !self.deterministic {
            failures.push(
                "server soak transcripts or counters diverged across identical-seed runs"
                    .to_string(),
            );
        }
        if !self.all_faults_injected {
            failures.push(
                "a client chaos fault class was never injected — coverage silently shrank"
                    .to_string(),
            );
        }
        if self.served == 0 {
            failures.push("server soak served nothing — the front end is broken".to_string());
        }
        if self.errors_total == 0 {
            failures.push(
                "server soak saw no structured errors — chaos injection is not degrading"
                    .to_string(),
            );
        }
        if self.shed != 8 || !self.sheds_well_formed {
            failures.push(format!(
                "overload shed {} of 8 probes well_formed={} — admission control regressed",
                self.shed, self.sheds_well_formed
            ));
        }
        if self.shed_p99_ms > 250.0 {
            failures.push(format!(
                "shed-path p99 {:.1}ms > 250ms — the 503 path is waiting on workers",
                self.shed_p99_ms
            ));
        }
        if self.dropped_from_queue != 4 {
            failures.push(format!(
                "drain refused {} queued connections, expected exactly the 4 parked fillers",
                self.dropped_from_queue
            ));
        }
        if !self.drain_within_bound {
            failures.push(format!(
                "graceful drain took {:.0}ms — outside request_deadline + drain_deadline",
                self.drain_elapsed_ms
            ));
        }
        failures
    }
}

/// Chaos phase: run the full seeded schedule against a fresh server and
/// return everything the determinism compare needs.
fn chaos_run(
    spec: &WorkloadSpec,
    n_connections: usize,
    seed: u64,
) -> (String, [u64; N_FAULTS], u64, StatsSnapshot) {
    let mut w = generate(spec);
    let queries = w.query_texts();
    let engine = Arc::new(ServeEngine::with_cache(
        std::mem::take(&mut w.store),
        std::mem::replace(&mut w.interner, Interner::new()),
        Some(CacheConfig::default()),
    ));
    let config = ServerConfig {
        workers: 2,
        queue_capacity: 16,
        request_deadline: Duration::from_secs(2),
        keep_alive_idle: Duration::from_secs(2),
        drain_deadline: Duration::from_millis(300),
        ..ServerConfig::default()
    };
    let limits = config.limits;
    let server = Server::spawn(engine, config, "127.0.0.1:0").expect("soak server binds loopback");
    let mut client = ChaosClient::new(server.local_addr(), seed, limits);
    let mut transcript = String::new();
    let mut attempts = 0u64;
    for conn in 0..n_connections {
        attempts += client.run_connection(conn as u64, &queries, &mut transcript);
    }
    let stats = server.stats();
    server.shutdown();
    (transcript, client.injected, attempts, stats)
}

/// Shed/drain phase observations.
struct ShedDrain {
    shed: u64,
    sheds_well_formed: bool,
    shed_p99_ms: f64,
    dropped_from_queue: usize,
    drain_elapsed_ms: f64,
    drain_within_bound: bool,
}

/// Wedge every worker with a slow-loris blocker, pack the queue with
/// silent fillers, then fire probes that must all shed fast; finally
/// shut down and check the drain contract refuses exactly the fillers.
fn shed_drain_phase(spec: &WorkloadSpec) -> ShedDrain {
    const WORKERS: usize = 2;
    const FILLERS: usize = 4;
    const PROBES: usize = 8;
    let mut w = generate(spec);
    let engine = Arc::new(ServeEngine::with_cache(
        std::mem::take(&mut w.store),
        std::mem::replace(&mut w.interner, Interner::new()),
        None,
    ));
    let config = ServerConfig {
        workers: WORKERS,
        queue_capacity: FILLERS,
        request_deadline: Duration::from_millis(800),
        keep_alive_idle: Duration::from_millis(800),
        drain_deadline: Duration::from_millis(250),
        ..ServerConfig::default()
    };
    let server = Server::spawn(engine, config, "127.0.0.1:0").expect("shed server binds loopback");
    let addr = server.local_addr();

    // Blockers: hold every worker mid-request (the request deadline keeps
    // them wedged far longer than the probe sequence takes).
    let blockers: Vec<TcpStream> = (0..WORKERS)
        .map(|_| {
            let mut s = TcpStream::connect(addr).expect("blocker connect");
            s.write_all(b"POST /spar").expect("blocker partial write");
            s
        })
        .collect();
    let t0 = Instant::now();
    while server.stats().in_flight < WORKERS {
        assert!(
            t0.elapsed() < Duration::from_secs(2),
            "workers never picked up blockers"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    // Fillers: park in the admission queue without sending a byte.
    let fillers: Vec<TcpStream> = (0..FILLERS)
        .map(|_| TcpStream::connect(addr).expect("filler connect"))
        .collect();
    while server.stats().queue_depth < FILLERS {
        assert!(t0.elapsed() < Duration::from_secs(2), "queue never filled");
        std::thread::sleep(Duration::from_millis(2));
    }

    // Probes: each must be refused with the prebuilt 503 + Retry-After,
    // without waiting on any worker.
    let mut sheds_well_formed = true;
    let mut latencies = Vec::with_capacity(PROBES);
    for _ in 0..PROBES {
        let start = Instant::now();
        let probe = TcpStream::connect(addr).expect("probe connect");
        let _ = probe.set_read_timeout(Some(Duration::from_secs(2)));
        let mut r = std::io::BufReader::new(probe);
        match read_response(&mut r, &HttpLimits::default()) {
            Ok(resp) => {
                sheds_well_formed &=
                    resp.status == 503 && resp.close && resp.body == b"overloaded\n"
            }
            Err(_) => sheds_well_formed = false,
        }
        latencies.push(start.elapsed());
    }
    latencies.sort();
    // p99 over 8 samples is the max — the bound is on the worst probe.
    let shed_p99_ms = latencies.last().map_or(f64::NAN, |d| d.as_secs_f64() * 1e3);

    let shed = server.stats().shed;
    let report = server.shutdown();
    drop(blockers);
    drop(fillers);
    ShedDrain {
        shed,
        sheds_well_formed,
        shed_p99_ms,
        dropped_from_queue: report.dropped_from_queue,
        drain_elapsed_ms: report.elapsed.as_secs_f64() * 1e3,
        drain_within_bound: report.within_bound(Duration::from_millis(500)),
    }
}

/// The `server/chaos_soak` leg: phases 1 (chaos, twice) and 2
/// (shed/drain) against live loopback servers.
pub fn run_server_chaos_soak() -> ServerSoak {
    let spec = WorkloadSpec {
        n_rules: 512,
        patterns_per_query: 6,
        n_queries: 24,
        seed: 0xc1a0_5eed,
        group_shapes: false,
        complex: ComplexShape::None,
    };
    let n_connections = 48;
    let seed = 0x5eed_0fa0_17c1_a55e;

    let first = std::panic::catch_unwind(|| chaos_run(&spec, n_connections, seed));
    let second = std::panic::catch_unwind(|| chaos_run(&spec, n_connections, seed));
    let (deterministic, injected, stats, panics, harness_panic) = match (&first, &second) {
        (Ok(a), Ok(b)) => {
            let (ta, ia, aa, sa) = a;
            let (tb, ib, ab, sb) = b;
            let same = ta == tb
                && ia == ib
                && aa == ab
                && sa.accepted == sb.accepted
                && sa.served == sb.served
                && sa.shed == sb.shed
                && sa.idle_closes == sb.idle_closes
                && sa.error_classes == sb.error_classes;
            (same, *ia, sa.clone(), sa.panics + sb.panics, false)
        }
        _ => (false, [0; N_FAULTS], StatsSnapshot::default(), 0, true),
    };
    let all_faults_injected = injected.iter().all(|&n| n > 0);

    let shed = shed_drain_phase(&spec);
    ServerSoak {
        served: stats.served,
        errors_total: stats.errors_total(),
        deterministic,
        all_faults_injected,
        // A panic that escapes `chaos_run` itself (client-side) is
        // folded into the panic gate alongside caught worker panics.
        panics: panics + u64::from(harness_panic),
        shed: shed.shed,
        sheds_well_formed: shed.sheds_well_formed,
        shed_p99_ms: shed.shed_p99_ms,
        dropped_from_queue: shed.dropped_from_queue,
        drain_elapsed_ms: shed.drain_elapsed_ms,
        drain_within_bound: shed.drain_within_bound,
    }
}

/// Outcome of the healthy-traffic cached socket config (phase 3).
pub struct ServerCachedResult {
    /// Heap allocations per request across the *whole process* (client
    /// write, server parse/serve/render, client read) at steady state.
    pub allocs_per_request: f64,
    /// Every measured request answered `200`.
    pub served_all: bool,
    /// Probe-level cache hit rate over the measured window only.
    pub measured_hit_rate: f64,
    /// Rewrites whose rendered text exceeded the workload-tuned value cap
    /// and skipped the cache.
    pub oversize_bypasses: u64,
}

impl ServerCachedResult {
    /// The whole-process zero-allocation gate (cached hits serve through
    /// the socket without a single steady-state heap allocation), plus
    /// hit-rate sanity.
    pub fn failures(&self) -> Vec<String> {
        let mut failures = Vec::new();
        if self.allocs_per_request > 0.0 {
            failures.push(format!(
                "server socket path allocated ({:.4} allocs/request, expected 0 across \
                 client write, server parse/serve/render, client read)",
                self.allocs_per_request
            ));
        }
        if !self.served_all {
            failures.push("a healthy cached request was not answered 200".to_string());
        }
        if self.measured_hit_rate < 0.9 {
            failures.push(format!(
                "server cached hit rate {:.3} < 0.9 over the measured window",
                self.measured_hit_rate
            ));
        }
        if self.oversize_bypasses > 0 {
            failures.push(format!(
                "{} oversize cache bypasses under a workload-tuned value cap",
                self.oversize_bypasses
            ));
        }
        failures
    }
}

/// Allocation-free response reader: preallocated accumulation buffer, a
/// stack scratch for reads, manual status/Content-Length scan. After the
/// warm pass it never allocates.
struct PinnedReader {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl PinnedReader {
    fn new(stream: TcpStream) -> PinnedReader {
        PinnedReader {
            stream,
            buf: Vec::with_capacity(64 * 1024),
        }
    }

    /// Read exactly one response off the keep-alive stream; returns its
    /// status code.
    fn read_one(&mut self) -> io::Result<u16> {
        loop {
            if let Some(h_end) = find_double_crlf(&self.buf) {
                let status = parse_status(&self.buf)?;
                let total = h_end + 4 + content_length(&self.buf[..h_end + 2]);
                while self.buf.len() < total {
                    self.fill()?;
                }
                self.buf.drain(..total);
                return Ok(status);
            }
            self.fill()?;
        }
    }

    fn fill(&mut self) -> io::Result<()> {
        let mut scratch = [0u8; 4096];
        let n = self.stream.read(&mut scratch)?;
        if n == 0 {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        self.buf.extend_from_slice(&scratch[..n]);
        Ok(())
    }
}

fn find_double_crlf(b: &[u8]) -> Option<usize> {
    b.windows(4).position(|w| w == b"\r\n\r\n")
}

fn parse_status(b: &[u8]) -> io::Result<u16> {
    // b"HTTP/1.1 NNN ..." — the server always emits this shape.
    if b.len() < 12 || !b.starts_with(b"HTTP/1.") {
        return Err(io::ErrorKind::InvalidData.into());
    }
    let d = &b[9..12];
    if !d.iter().all(u8::is_ascii_digit) {
        return Err(io::ErrorKind::InvalidData.into());
    }
    Ok(d.iter().fold(0u16, |acc, &c| acc * 10 + (c - b'0') as u16))
}

fn content_length(headers: &[u8]) -> usize {
    for line in headers.split(|&b| b == b'\n') {
        let line = line.strip_suffix(b"\r").unwrap_or(line);
        if line.len() > 15 && line[..15].eq_ignore_ascii_case(b"content-length:") {
            return line[15..]
                .iter()
                .filter(|c| c.is_ascii_digit())
                .fold(0usize, |acc, &c| acc * 10 + (c - b'0') as usize);
        }
    }
    0
}

/// The `server/cached/zipf` leg: a single-worker server fronting a
/// workload-tuned cache, driven by one keep-alive connection replaying a
/// Zipfian stream of re-spelled repeats from pre-rendered request bytes.
/// The measured window must not allocate anywhere in the process.
pub fn run_server_cached_config() -> ServerCachedResult {
    let spec = WorkloadSpec {
        n_rules: 1_000,
        patterns_per_query: 8,
        n_queries: 64,
        seed: 0x5e12_ed0c_ac4e,
        group_shapes: false,
        complex: ComplexShape::None,
    };
    let mut w = generate(&spec);
    let distinct = w.query_texts();
    let engine = Arc::new(ServeEngine::with_tuned_cache(
        std::mem::take(&mut w.store),
        std::mem::replace(&mut w.interner, Interner::new()),
        CacheConfig::default(),
        &distinct,
    ));
    let config = ServerConfig {
        workers: 1,
        queue_capacity: 4,
        request_deadline: Duration::from_secs(2),
        keep_alive_idle: Duration::from_secs(10),
        drain_deadline: Duration::from_millis(300),
        ..ServerConfig::default()
    };
    let server = Server::spawn(Arc::clone(&engine), config, "127.0.0.1:0")
        .expect("cached server binds loopback");

    // Three spellings per logical query, pre-rendered to raw request
    // bytes so the measured loop only writes and reads.
    let mut rng = Rng::new(spec.seed ^ 0x77);
    let rendered: Vec<[Vec<u8>; 3]> = distinct
        .iter()
        .map(|t| {
            let spellings = [
                t.clone(),
                perturb_whitespace(t, &mut rng),
                alias_prefix(t, "s", "http://src.example.org/onto/"),
            ];
            spellings.map(|s| {
                let mut req = Vec::new();
                render_get(&s, &mut req);
                req
            })
        })
        .collect();
    let n_requests = 512;
    let ranks = zipf_ranks(&ZipfSpec {
        s: 1.0,
        n_distinct: distinct.len(),
        n_requests,
        seed: spec.seed ^ 0x21bf_5eed,
    });

    let stream = TcpStream::connect(server.local_addr()).expect("client connect");
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
    let mut writer = stream.try_clone().expect("stream clone");
    let mut reader = PinnedReader::new(stream);

    // Warm pass: every spelling once (populates the cache and grows every
    // buffer on both sides of the socket), then one full stream replay
    // (warms the drain/extend patterns at measured-loop sizes).
    for spellings in &rendered {
        for req in spellings {
            writer.write_all(req).expect("warm write");
            reader.read_one().expect("warm response");
        }
    }
    for (i, &rank) in ranks.iter().enumerate() {
        writer
            .write_all(&rendered[rank as usize][i % 3])
            .expect("warm write");
        reader.read_one().expect("warm response");
    }

    // Measured window: the whole process (this thread writing/reading,
    // the worker thread parsing/serving/rendering) must not allocate.
    let stats_before = engine.cache_stats().expect("cache installed");
    let before = allocation_count();
    let mut served_all = true;
    for (i, &rank) in ranks.iter().enumerate() {
        writer
            .write_all(&rendered[rank as usize][i % 3])
            .expect("measured write");
        served_all &= reader.read_one().expect("measured response") == 200;
    }
    let allocs = allocation_count() - before;
    let stats_after = engine.cache_stats().expect("cache installed");

    drop(writer);
    drop(reader);
    server.shutdown();

    let d_hits = stats_after.hits() - stats_before.hits();
    let d_misses = stats_after.misses() - stats_before.misses();
    ServerCachedResult {
        allocs_per_request: allocs as f64 / n_requests as f64,
        served_all,
        measured_hit_rate: if d_hits + d_misses > 0 {
            d_hits as f64 / (d_hits + d_misses) as f64
        } else {
            0.0
        },
        oversize_bypasses: engine.cache_bypasses(),
    }
}

// ---------------------------------------------------------------------------
// Double-sided federated chaos: seeded chaos client in front, chaos proxies
// behind, the federated server squeezed between them.
// ---------------------------------------------------------------------------

/// Fault counters a [`ChaosProxy`] reports.
const PROXY_FAULTS: usize = 9;

/// Outcome of the `server/federated_chaos` leg: the full seeded client
/// schedule against a federated server whose member endpoints are chaos
/// proxies, twice with the same seeds, gated on byte-identical
/// transcripts on *both* sides of the server.
pub struct FederatedSoak {
    pub complete_responses: u64,
    pub deadline_breaches: u64,
    /// Client transcript, server outcome transcript, both fault
    /// schedules, federation stats, and server counters all byte- or
    /// field-identical across the two identical-seed runs.
    pub deterministic: bool,
    /// At least one mixed response (some endpoints served, some not) was
    /// actually observed — the partial-result path ran, not just the
    /// happy path.
    pub partial_seen: bool,
    /// Final breaker states identical across both runs.
    pub breakers_converged: bool,
    /// Worker panics + executor transport panics over both runs, plus
    /// any panic that escaped the harness itself.
    pub panics: u64,
}

impl FederatedSoak {
    /// The server between a hostile client and hostile endpoints must stay
    /// deterministic, panic-free, honest about partial results, and inside
    /// its deadline ceiling.
    pub fn failures(&self) -> Vec<String> {
        let mut failures = Vec::new();
        if self.panics > 0 {
            failures.push(format!(
                "federated chaos caught {} panic(s) between chaos client and chaos endpoints",
                self.panics
            ));
        }
        if !self.deterministic {
            failures.push(
                "federated chaos transcripts (client or server side) diverged across \
                 identical-seed runs"
                    .to_string(),
            );
        }
        if !self.breakers_converged {
            failures.push(
                "final breaker states diverged across identical-seed federated runs".to_string(),
            );
        }
        if !self.partial_seen {
            failures.push(
                "no mixed partial response observed — the degraded-endpoint path never ran"
                    .to_string(),
            );
        }
        if self.deadline_breaches > 0 {
            failures.push(format!(
                "{} federated response(s) exceeded deadline + max backoff",
                self.deadline_breaches
            ));
        }
        if self.complete_responses == 0 {
            failures.push(
                "federated chaos completed nothing — the dispatch path is broken".to_string(),
            );
        }
        failures
    }
}

/// Everything one federated chaos run yields that the determinism
/// compare needs.
struct FedRun {
    client_transcript: String,
    server_transcript: String,
    injected_client: [u64; N_FAULTS],
    injected_endpoints: [u64; PROXY_FAULTS],
    attempts: u64,
    fstats: FederationStats,
    stats: StatsSnapshot,
}

/// Per-endpoint chaos profile: one honest member, one that lies at the
/// protocol layer, one slow one, and one hostile enough to trip its
/// breaker — the mix that forces mixed (partial) responses.
fn endpoint_chaos(e: usize) -> ChaosSpec {
    match e {
        0 => ChaosSpec::default(),
        1 => ChaosSpec {
            malformed_status_pct: 10,
            malformed_header_pct: 8,
            wrong_len_pct: 6,
            ..ChaosSpec::default()
        },
        2 => ChaosSpec {
            trickle_pct: 10,
            truncate_pct: 8,
            trickle_step_nanos: 2_000_000,
            ..ChaosSpec::default()
        },
        _ => ChaosSpec {
            refuse_pct: 20,
            reset_pct: 18,
            truncate_pct: 12,
            ..ChaosSpec::default()
        },
    }
}

/// One full double-sided run: fresh proxies, fresh federated server,
/// the complete seeded client schedule, then a quiescence wait so every
/// accepted connection is fully processed before counters are read
/// (abandoned client connections would otherwise race the snapshot).
fn federated_chaos_run(spec: &FederationSpec, n_connections: usize, client_seed: u64) -> FedRun {
    let w = generate_federation(spec);
    let queries: Vec<String> = w
        .queries
        .iter()
        .map(|q| q.display(&w.interner).to_string())
        .collect();
    let proxies: Vec<ChaosProxy> = (0..spec.n_endpoints)
        .map(|e| {
            ChaosProxy::spawn(spec.seed.wrapping_add(e as u64), endpoint_chaos(e))
                .expect("chaos proxy binds loopback")
        })
        .collect();
    let routes = (0..spec.n_endpoints)
        .map(|e| EndpointRoute {
            iri: format!("http://ep{e}.example.org/sparql"),
            authority: proxies[e].authority(),
            path: "/sparql".to_string(),
        })
        .collect();
    let fed = FederationConfig {
        planner: w.planner,
        interner: w.interner,
        routes,
        executor: ExecutorConfig {
            n_threads: 4,
            deadline_nanos: 250_000_000,
            inter_request_nanos: 50_000_000,
            backoff: BackoffPolicy {
                base_nanos: 2_000_000,
                max_nanos: 10_000_000,
                max_retries: 2,
            },
            breaker: BreakerConfig {
                window: 8,
                min_samples: 4,
                failure_rate_pct: 50,
                cooldown_nanos: 120_000_000,
                half_open_successes: 1,
            },
            seed: client_seed ^ 0xfed,
        },
        http: HttpConfig::default(),
        limits: RewriteLimits::default(),
        record_outcomes: true,
    };
    // One worker: the serial client plus a single worker makes the
    // server-side outcome transcript a deterministic total order.
    let config = ServerConfig {
        workers: 1,
        queue_capacity: 16,
        request_deadline: Duration::from_secs(2),
        keep_alive_idle: Duration::from_secs(2),
        drain_deadline: Duration::from_millis(300),
        ..ServerConfig::default()
    };
    let limits = config.limits;
    let server =
        Server::spawn_federated(fed, config, "127.0.0.1:0").expect("federated server binds");
    let mut client = ChaosClient::new(server.local_addr(), client_seed, limits);
    let mut client_transcript = String::new();
    let mut attempts = 0u64;
    for conn in 0..n_connections {
        attempts += client.run_connection(conn as u64, &queries, &mut client_transcript);
    }
    // Quiesce: mid-request aborts leave the last connections queued or
    // in flight after the client returns; wait until the worker has
    // drained them so snapshots don't race wall-clock scheduling.
    let t0 = Instant::now();
    loop {
        let s = server.stats();
        if s.in_flight == 0 && s.queue_depth == 0 {
            break;
        }
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "federated server never quiesced"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    let fstats = server.federation_stats().expect("federated mode");
    let server_transcript = server.federation_transcript().expect("recording enabled");
    let stats = server.stats();
    server.shutdown();
    let mut injected_endpoints = [0u64; PROXY_FAULTS];
    for p in &proxies {
        for (total, n) in injected_endpoints.iter_mut().zip(p.injected_counts()) {
            *total += n;
        }
    }
    FedRun {
        client_transcript,
        server_transcript,
        injected_client: client.injected,
        injected_endpoints,
        attempts,
        fstats,
        stats,
    }
}

/// The `server/federated_chaos` leg: double-sided chaos, twice with the
/// same seeds, compared field by field.
pub fn run_server_federated_chaos() -> FederatedSoak {
    let spec = FederationSpec {
        n_endpoints: 4,
        rules_per_endpoint: 48,
        n_queries: 24,
        patterns_per_query: 8,
        seed: 0xfed5_0a4e_ca11_ed01,
    };
    let n_connections = 16;
    let client_seed = 0x2fed_c1a0_5eed_cafe;

    let first = std::panic::catch_unwind(|| federated_chaos_run(&spec, n_connections, client_seed));
    let second =
        std::panic::catch_unwind(|| federated_chaos_run(&spec, n_connections, client_seed));

    let (deterministic, breakers_converged, run, panics) = match (&first, &second) {
        (Ok(a), Ok(b)) => {
            let same = a.client_transcript == b.client_transcript
                && a.server_transcript == b.server_transcript
                && a.injected_client == b.injected_client
                && a.injected_endpoints == b.injected_endpoints
                && a.attempts == b.attempts
                && a.fstats == b.fstats
                && a.stats.accepted == b.stats.accepted
                && a.stats.served == b.stats.served
                && a.stats.shed == b.stats.shed
                && a.stats.error_classes == b.stats.error_classes;
            let converged = a.fstats.breakers == b.fstats.breakers;
            let panics = a.stats.panics
                + b.stats.panics
                + a.fstats.transport_panics
                + b.fstats.transport_panics;
            (same, converged, Some(a), panics)
        }
        // A panic that escaped the harness folds into the panic gate.
        _ => (false, false, None, 1),
    };

    FederatedSoak {
        complete_responses: run.map_or(0, |a| a.fstats.complete_responses),
        deadline_breaches: run.map_or(0, |a| a.fstats.deadline_breaches),
        deterministic,
        partial_seen: run.is_some_and(|a| a.fstats.partial_responses > 0),
        breakers_converged,
        panics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::assert_each_flip_trips_one_gate;

    #[test]
    fn server_soak_gates_each_trip_alone() {
        fn passing() -> ServerSoak {
            ServerSoak {
                served: 60,
                errors_total: 30,
                deterministic: true,
                all_faults_injected: true,
                panics: 0,
                shed: 8,
                sheds_well_formed: true,
                shed_p99_ms: 250.0,
                dropped_from_queue: 4,
                drain_elapsed_ms: 260.0,
                drain_within_bound: true,
            }
        }
        assert_each_flip_trips_one_gate(
            passing,
            ServerSoak::failures,
            &[
                ("panics > 0", |r| r.panics = 1, "1 worker panic"),
                ("deterministic", |r| r.deterministic = false, "diverged"),
                (
                    "all_faults_injected",
                    |r| r.all_faults_injected = false,
                    "never injected",
                ),
                ("served == 0", |r| r.served = 0, "served nothing"),
                (
                    "errors_total == 0",
                    |r| r.errors_total = 0,
                    "no structured errors",
                ),
                ("shed < 8", |r| r.shed = 7, "shed 7 of 8"),
                ("shed > 8", |r| r.shed = 9, "shed 9 of 8"),
                (
                    "sheds_well_formed",
                    |r| r.sheds_well_formed = false,
                    "well_formed=false",
                ),
                ("shed p99", |r| r.shed_p99_ms = 250.1, "250.1ms > 250ms"),
                (
                    "dropped_from_queue != 4",
                    |r| r.dropped_from_queue = 3,
                    "refused 3 queued",
                ),
                (
                    "drain_within_bound",
                    |r| r.drain_within_bound = false,
                    "drain took 260ms",
                ),
            ],
        );
    }

    #[test]
    fn server_cached_gates_each_trip_alone() {
        fn passing() -> ServerCachedResult {
            ServerCachedResult {
                allocs_per_request: 0.0,
                served_all: true,
                measured_hit_rate: 0.9,
                oversize_bypasses: 0,
            }
        }
        assert_each_flip_trips_one_gate(
            passing,
            ServerCachedResult::failures,
            &[
                (
                    "allocs_per_request > 0",
                    // One allocation in the 512-request window.
                    |r| r.allocs_per_request = 1.0 / 512.0,
                    "0.0020 allocs/request",
                ),
                ("served_all", |r| r.served_all = false, "not answered 200"),
                (
                    "hit rate < 0.9",
                    |r| r.measured_hit_rate = 0.899,
                    "0.899 < 0.9",
                ),
                (
                    "oversize_bypasses > 0",
                    |r| r.oversize_bypasses = 1,
                    "1 oversize cache bypasses",
                ),
            ],
        );
    }

    #[test]
    fn federated_soak_gates_each_trip_alone() {
        fn passing() -> FederatedSoak {
            FederatedSoak {
                complete_responses: 1,
                deadline_breaches: 0,
                deterministic: true,
                partial_seen: true,
                breakers_converged: true,
                panics: 0,
            }
        }
        assert_each_flip_trips_one_gate(
            passing,
            FederatedSoak::failures,
            &[
                ("panics > 0", |r| r.panics = 1, "1 panic"),
                ("deterministic", |r| r.deterministic = false, "diverged"),
                (
                    "breakers_converged",
                    |r| r.breakers_converged = false,
                    "breaker states diverged",
                ),
                (
                    "partial_seen",
                    |r| r.partial_seen = false,
                    "no mixed partial",
                ),
                (
                    "deadline_breaches > 0",
                    |r| r.deadline_breaches = 1,
                    "1 federated response(s) exceeded",
                ),
                (
                    "complete_responses == 0",
                    |r| r.complete_responses = 0,
                    "completed nothing",
                ),
            ],
        );
    }
}
