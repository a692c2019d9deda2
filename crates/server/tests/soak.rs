//! The mediator's seeded robustness legs, one `#[test]` each: never panic,
//! stay inside the deadline ceiling, same seed ⇒ same bytes. Every leg
//! runs its stream twice with identical seeds and compares the two runs;
//! loopback only, no external network. Each assertion message names the
//! property that regressed.
//!
//! The zero-allocation socket leg (`server/cached/zipf`) is not here: it
//! reads a process-global counter and so runs alone in
//! `tests/zero_alloc_socket.rs`.

mod common;

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

use common::assert_sheds_and_drains;
use common::chaos_client::{ChaosClient, N_FAULTS};
use common::workload::{
    generate, generate_federation, zipf_ranks, FederationSpec, Rng, WorkloadSpec, ZipfSpec,
};
use sparql_rewrite_chaos::FaultClass::{
    MalformedHeader, MalformedStatus, OversizedBody, Refuse, Reset, Trickle, TruncateBody,
    WrongContentLength,
};
use sparql_rewrite_chaos::{
    canonical_text, ChaosProxy, ChaosSpec, FaultClass, FaultSpec, MockTransport,
};
use sparql_rewrite_core::{
    BackoffPolicy, BreakerConfig, CacheConfig, EndpointOutcome, ExecutorConfig, FederatedExecutor,
    HttpConfig, HttpEndpoint, HttpLimits, HttpTransport, Interner, RewriteLimits, ServeEngine,
};
use sparql_rewrite_server::{
    EndpointRoute, FederationConfig, FederationStats, Server, ServerConfig, StatsSnapshot,
};

/// `federation/soak`: a Zipfian(1.0) mix of planned federated queries
/// against four mock endpoints at a 30% transient-failure rate, the last
/// one also flapping in windows so circuit breakers trip and probe during
/// the stream. The identical stream runs twice with fresh, identically
/// seeded executor + transport pairs. Fails on diverging partial-result
/// transcripts or breaker states, an outcome past deadline + one backoff
/// quantum, nothing served, or nothing degraded.
#[test]
fn federation_soak() {
    const N_ENDPOINTS: usize = 4;
    let spec = FederationSpec {
        n_endpoints: N_ENDPOINTS,
        rules_per_endpoint: 64,
        n_queries: 32,
        patterns_per_query: 8,
        seed: 0xfed5_0a4b,
    };
    let w = generate_federation(&spec);
    // One seeded chain feeds everything downstream: executor jitter, mock
    // fault schedules, and the request mix all trace back to the workload
    // seed, so the whole soak replays from a single number.
    let mut seeds = Rng::new(spec.seed);
    let exec_seed = seeds.next_u64();
    let fault_seed = seeds.next_u64();
    let zipf_seed = seeds.next_u64();

    let limits = RewriteLimits::with_union_branch_cap(1024);
    let plans: Vec<_> = w
        .queries
        .iter()
        .map(|q| {
            w.planner
                .plan_for_dispatch(q.as_ref(), &w.interner, limits)
                .expect("soak workload stays under the UNION branch cap")
        })
        .collect();
    let ranks = zipf_ranks(&ZipfSpec {
        s: 1.0,
        n_distinct: plans.len(),
        n_requests: 400,
        seed: zipf_seed,
    });

    let config = ExecutorConfig {
        seed: exec_seed,
        ..ExecutorConfig::default()
    };
    let mut fault_specs = vec![FaultSpec::transient(30); N_ENDPOINTS];
    // The last endpoint also flaps in 40-request windows: whole-window
    // outages on top of the 30% transient floor drive its breaker through
    // open and half-open states during the stream.
    fault_specs[N_ENDPOINTS - 1].flap_period = 40;

    // Acceptance ceiling: elapsed virtual time never exceeds the deadline
    // by more than one backoff quantum. (The executor actually clamps at
    // the deadline exactly; the gate allows the documented slack.)
    let ceiling = config.deadline_nanos + config.backoff.max_nanos;

    let run_once = || {
        let executor = FederatedExecutor::new(
            MockTransport::new(fault_seed, fault_specs.clone()),
            N_ENDPOINTS,
            config,
        );
        let mut transcript = String::new();
        let mut tallies = [0u64; 4]; // served / timed out / circuit open / exhausted
        let mut within_ceiling = true;
        for &rank in &ranks {
            let result = executor.execute(&plans[rank as usize].endpoints);
            for report in &result.reports {
                match report.outcome {
                    EndpointOutcome::Served { latency_nanos, .. } => {
                        tallies[0] += 1;
                        within_ceiling &= latency_nanos <= ceiling;
                    }
                    EndpointOutcome::TimedOut { elapsed_nanos, .. } => {
                        tallies[1] += 1;
                        within_ceiling &= elapsed_nanos <= ceiling;
                    }
                    EndpointOutcome::CircuitOpen { .. } => tallies[2] += 1,
                    EndpointOutcome::ExhaustedRetries { .. } => tallies[3] += 1,
                }
            }
            transcript.push_str(&canonical_text(&result));
        }
        (
            transcript,
            executor.breaker_states(),
            tallies,
            within_ceiling,
        )
    };

    let (transcript_a, breakers_a, tallies, within_a) = run_once();
    let (transcript_b, breakers_b, _, within_b) = run_once();
    assert!(
        transcript_a == transcript_b,
        "federated partial-result transcripts diverged across identical-seed runs"
    );
    assert!(
        breakers_a == breakers_b,
        "per-endpoint breaker states did not converge across identical-seed runs"
    );
    assert!(
        within_a && within_b,
        "a federated dispatch exceeded the deadline by more than one backoff quantum"
    );
    let [served, timed_out, circuit_open, exhausted] = tallies;
    assert!(
        served > 0,
        "federation soak served nothing — partial-result degradation is broken"
    );
    assert!(
        timed_out + circuit_open + exhausted > 0,
        "federation soak saw no degraded outcomes — fault injection is not firing"
    );
}

/// `federation/http_soak`: the `federation/soak` contract over real
/// sockets. Four loopback chaos proxies — three lightly faulty, one
/// hostile enough to trip its breaker — inject byte-level protocol faults
/// (refused/reset connections, slow-loris trickle, truncated and oversized
/// bodies, malformed status lines and headers, lying `Content-Length`)
/// into the blocking HTTP transport, while each request of a Zipfian(1.0)
/// stream is re-planned. The stream runs twice with identical seeds and
/// fresh proxies/transport/executor; transcripts record outcome *classes*
/// (never wall-clock nanos, which real sockets make noisy). Also fails on
/// a caught transport panic, diverging fault schedules, or an enabled
/// fault class that never fired.
///
/// Timing margins are chosen so scheduling noise cannot flip a decision:
/// inter-request (50ms) and breaker cooldown (120ms) are *virtual* — free
/// to make enormous next to the sub-millisecond real latencies that leak
/// into the virtual clock — and the 250ms deadline gives loopback
/// round-trips (~0.1ms) three orders of magnitude of headroom.
#[test]
fn federation_http_soak() {
    const N_ENDPOINTS: usize = 4;
    let spec = FederationSpec {
        n_endpoints: N_ENDPOINTS,
        rules_per_endpoint: 64,
        n_queries: 32,
        patterns_per_query: 8,
        seed: 0xc4a0_55ed,
    };
    let w = generate_federation(&spec);
    let mut seeds = Rng::new(spec.seed);
    let exec_seed = seeds.next_u64();
    let fault_seed = seeds.next_u64();
    let zipf_seed = seeds.next_u64();

    let ranks = zipf_ranks(&ZipfSpec {
        s: 1.0,
        n_distinct: w.queries.len(),
        n_requests: 120,
        seed: zipf_seed,
    });

    // Three lightly faulty endpoints covering every protocol fault class
    // between them, and one hostile enough (50% connection faults) that
    // its breaker trips and probes during the stream.
    let light = ChaosSpec::with(&[
        (Refuse, 3),
        (Reset, 3),
        (TruncateBody, 3),
        (WrongContentLength, 4),
    ]);
    let exotic = ChaosSpec::with(&[(Trickle, 2), (MalformedStatus, 3), (OversizedBody, 3)]);
    let header_faults =
        ChaosSpec::with(&[(Reset, 3), (MalformedHeader, 3), (WrongContentLength, 4)]);
    let hostile = ChaosSpec::with(&[(Refuse, 18), (Reset, 18), (TruncateBody, 14)]);
    let chaos_specs = [light, exotic, header_faults, hostile];

    let config = ExecutorConfig {
        n_threads: N_ENDPOINTS,
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
        seed: exec_seed,
    };
    let limits = RewriteLimits::with_union_branch_cap(1024);
    let ceiling = config.deadline_nanos + config.backoff.max_nanos;

    let run_once = || {
        let proxies: Vec<ChaosProxy> = chaos_specs
            .iter()
            .enumerate()
            .map(|(e, s)| {
                ChaosProxy::spawn(fault_seed.wrapping_add(e as u64), *s)
                    .expect("chaos proxy binds loopback")
            })
            .collect();
        let transport = HttpTransport::new(
            proxies
                .iter()
                .map(|p| HttpEndpoint::new(p.authority(), "/sparql"))
                .collect(),
            HttpConfig {
                limits: HttpLimits {
                    max_header_bytes: 16 * 1024,
                    // Below the proxies' 256 KiB oversized announcement.
                    max_body_bytes: 64 * 1024,
                },
                connect_cap_nanos: config.deadline_nanos,
            },
        );
        let executor = FederatedExecutor::new(transport, N_ENDPOINTS, config);
        let mut transcript = String::new();
        let mut tallies = [0u64; 5]; // served/timed_out/circuit_open/exhausted/exhausted_permanent
        let mut within_ceiling = true;
        for (i, &rank) in ranks.iter().enumerate() {
            let dp = w
                .planner
                .plan_for_dispatch(w.queries[rank as usize].as_ref(), &w.interner, limits)
                .expect("soak workload stays under the UNION branch cap");
            let result = executor.execute(&dp.endpoints);
            for report in &result.reports {
                // Classes and attempts only: real-socket latencies are
                // noise, and including them would make determinism
                // impossible to assert.
                let class = match report.outcome {
                    EndpointOutcome::Served { attempts, .. } => {
                        tallies[0] += 1;
                        format!("served a={attempts}")
                    }
                    EndpointOutcome::TimedOut { attempts, .. } => {
                        tallies[1] += 1;
                        format!("timed_out a={attempts}")
                    }
                    EndpointOutcome::CircuitOpen { attempts } => {
                        tallies[2] += 1;
                        format!("circuit_open a={attempts}")
                    }
                    EndpointOutcome::ExhaustedRetries {
                        attempts,
                        permanent,
                    } => {
                        tallies[if permanent { 4 } else { 3 }] += 1;
                        format!("exhausted a={attempts} perm={permanent}")
                    }
                };
                if let EndpointOutcome::Served { latency_nanos, .. } = report.outcome {
                    within_ceiling &= latency_nanos <= ceiling;
                }
                if let EndpointOutcome::TimedOut { elapsed_nanos, .. } = report.outcome {
                    within_ceiling &= elapsed_nanos <= ceiling;
                }
                let _ = writeln!(
                    transcript,
                    "q={i} ep={} {class} breaker={:?} rows={}",
                    report.endpoint.0,
                    report.breaker,
                    // Proxy bodies stamp a hash of the received subquery,
                    // so served rows are themselves deterministic.
                    report.rows.as_deref().unwrap_or("-"),
                );
            }
        }
        (
            transcript,
            executor.breaker_states(),
            tallies,
            within_ceiling,
            injected_total(&proxies),
            executor.caught_panics(),
        )
    };

    let (transcript_a, breakers_a, tallies, within_a, injected_a, panics_a) = run_once();
    let (transcript_b, breakers_b, _, within_b, injected_b, panics_b) = run_once();
    assert!(
        panics_a + panics_b == 0,
        "http chaos soak panicked (or a panic crossed the pool boundary)"
    );
    assert!(
        transcript_a == transcript_b && injected_a == injected_b,
        "http soak outcome transcripts or fault schedules diverged across identical-seed runs"
    );
    assert!(
        breakers_a == breakers_b,
        "http soak breaker states did not converge across identical-seed runs"
    );
    assert!(
        within_a && within_b,
        "an http dispatch exceeded the deadline by more than one backoff quantum"
    );
    let [served, timed_out, circuit_open, exhausted, exhausted_permanent] = tallies;
    assert!(
        served > 0,
        "http soak served nothing — the socket transport is broken"
    );
    assert!(
        timed_out + circuit_open + exhausted + exhausted_permanent > 0,
        "http soak saw no degraded outcomes — chaos injection is not firing"
    );
    // Healthy and every class some spec enables must have fired. The draw
    // schedule is seeded, so this is a deterministic property of the
    // config above, not a statistical hope.
    let expected = |i: usize| i == 0 || chaos_specs.iter().any(|s| s.pcts[i] > 0);
    assert!(
        (0..injected_a.len()).all(|i| !expected(i) || injected_a[i] > 0),
        "an enabled chaos fault class was never injected — coverage silently shrank"
    );
}

/// `server/chaos_soak`: a seeded *client-side* adversary (nine fault
/// classes) drives a live 2-worker server over loopback, twice with
/// identical seeds, then the shed/drain scenario runs with 2 wedged
/// workers, 4 queued fillers and 8 probes. Fails on a worker panic, a
/// transcript/schedule/counter mismatch, a missing fault class, zero served
/// or zero rejected, a shed probe that is not the prebuilt `503`, shed
/// p99 > 250 ms, queue drops != 4, or a drain outside request + drain
/// deadline.
#[test]
fn server_chaos_soak() {
    let spec = WorkloadSpec {
        n_rules: 512,
        patterns_per_query: 6,
        n_queries: 24,
        seed: 0xc1a0_5eed,
        group_shapes: false,
    };
    let n_connections = 48;
    let seed = 0x5eed_0fa0_17c1_a55e;

    let (transcript_a, injected_a, attempts_a, stats_a) = chaos_run(&spec, n_connections, seed);
    let (transcript_b, injected_b, attempts_b, stats_b) = chaos_run(&spec, n_connections, seed);
    let panics = stats_a.panics + stats_b.panics;
    assert!(
        panics == 0,
        "server chaos soak caught {panics} worker panic(s) — malformed input reached a panic"
    );
    assert!(
        transcript_a == transcript_b
            && injected_a == injected_b
            && attempts_a == attempts_b
            && stats_a.accepted == stats_b.accepted
            && stats_a.served == stats_b.served
            && stats_a.shed == stats_b.shed
            && stats_a.idle_closes == stats_b.idle_closes
            && stats_a.error_classes == stats_b.error_classes,
        "server soak transcripts or counters diverged across identical-seed runs"
    );
    assert!(
        injected_a.iter().all(|&n| n > 0),
        "a client chaos fault class was never injected — coverage silently shrank"
    );
    assert!(
        stats_a.served > 0,
        "server soak served nothing — the front end is broken"
    );
    assert!(
        stats_a.errors_total() > 0,
        "server soak saw no structured errors — chaos injection is not degrading"
    );

    assert_sheds_and_drains(2, 4, 8);
}

/// One chaos run: the full seeded client schedule against a fresh server,
/// returning everything the determinism compare needs.
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

/// `server/federated_chaos`: the chaos client in front of a federated
/// server whose four members are chaos proxies, twice with identical
/// seeds. Fails on a panic on either side, diverging transcripts,
/// schedules, counters or breaker states, no mixed partial response, no
/// complete response, or a response past the deadline ceiling.
#[test]
fn server_federated_chaos() {
    let spec = FederationSpec {
        n_endpoints: 4,
        rules_per_endpoint: 48,
        n_queries: 24,
        patterns_per_query: 8,
        seed: 0xfed5_0a4e_ca11_ed01,
    };
    let n_connections = 16;
    let client_seed = 0x2fed_c1a0_5eed_cafe;

    let a = federated_chaos_run(&spec, n_connections, client_seed);
    let b = federated_chaos_run(&spec, n_connections, client_seed);
    let panics =
        a.stats.panics + b.stats.panics + a.fstats.transport_panics + b.fstats.transport_panics;
    assert!(
        panics == 0,
        "federated chaos caught {panics} panic(s) between chaos client and chaos endpoints"
    );
    let divergence = a.first_divergence(&b);
    assert!(
        divergence.is_none(),
        "federated chaos diverged across identical-seed runs, first in the {}",
        divergence.unwrap_or_default()
    );
    assert!(
        a.fstats.partial_responses > 0,
        "no mixed partial response observed — the degraded-endpoint path never ran"
    );
    assert!(
        a.fstats.deadline_breaches == 0,
        "{} federated response(s) exceeded deadline + max backoff",
        a.fstats.deadline_breaches
    );
    assert!(
        a.fstats.complete_responses > 0,
        "federated chaos completed nothing — the dispatch path is broken"
    );
}

/// Fault counters a [`ChaosProxy`] reports.
const PROXY_FAULTS: usize = FaultClass::ALL.len();

/// Per-class injection counts summed over `proxies`.
fn injected_total(proxies: &[ChaosProxy]) -> [u64; PROXY_FAULTS] {
    let counts = proxies.iter().map(ChaosProxy::injected_counts);
    counts.fold([0; PROXY_FAULTS], |sum, c| {
        std::array::from_fn(|i| sum[i] + c[i])
    })
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

impl FedRun {
    /// Everything the determinism check compares, as (name, text): the
    /// transcripts as recorded, every counter on a line of its own that
    /// starts with the counter's name.
    fn compared(&self) -> [(&'static str, String); 3] {
        let FederationStats {
            outcomes,
            complete_responses,
            partial_responses,
            gateway_unavailable,
            gateway_timeouts,
            deadline_breaches,
            transport_panics,
            reused_connections,
            transparent_reconnects,
            breakers,
        } = &self.fstats;
        let s = &self.stats;
        let counters = format!(
            "injected_client {:?}\ninjected_endpoints {:?}\nattempts {}\n\
             outcomes {outcomes:?}\ncomplete_responses {complete_responses}\n\
             partial_responses {partial_responses}\ngateway_unavailable {gateway_unavailable}\n\
             gateway_timeouts {gateway_timeouts}\ndeadline_breaches {deadline_breaches}\n\
             transport_panics {transport_panics}\nreused_connections {reused_connections}\n\
             transparent_reconnects {transparent_reconnects}\nbreakers {breakers:?}\n\
             accepted {}\nserved {}\nshed {}\nerror_classes {:?}",
            self.injected_client,
            self.injected_endpoints,
            self.attempts,
            s.accepted,
            s.served,
            s.shed,
            s.error_classes
        );
        [
            ("client transcript", self.client_transcript.clone()),
            ("server transcript", self.server_transcript.clone()),
            ("counters", counters),
        ]
    }

    /// The first compared line in which `other` differs from this run —
    /// its field and line number and both versions — or `None`.
    fn first_divergence(&self, other: &FedRun) -> Option<String> {
        for ((name, a), (_, b)) in self.compared().iter().zip(other.compared()) {
            let (mut la, mut lb) = (a.lines(), b.lines());
            for n in 1.. {
                match (la.next(), lb.next()) {
                    (None, None) => break,
                    (x, y) if x != y => {
                        return Some(format!("{name}, line {n}: {x:?} vs {y:?}"));
                    }
                    _ => {}
                }
            }
        }
        None
    }
}

/// Per-endpoint chaos profile: one honest member, one that lies at the
/// protocol layer, one slow one, and one hostile enough to trip its
/// breaker — the mix that forces mixed (partial) responses.
fn endpoint_chaos(e: usize) -> ChaosSpec {
    match e {
        0 => ChaosSpec::default(),
        1 => ChaosSpec::with(&[
            (MalformedStatus, 10),
            (MalformedHeader, 8),
            (WrongContentLength, 6),
        ]),
        2 => ChaosSpec {
            trickle_step_nanos: 2_000_000,
            ..ChaosSpec::with(&[(Trickle, 10), (TruncateBody, 8)])
        },
        _ => ChaosSpec::with(&[(Refuse, 20), (Reset, 18), (TruncateBody, 12)]),
    }
}

/// One full double-sided run: fresh proxies, fresh federated server,
/// the complete seeded client schedule, then a quiescence wait so every
/// accepted connection is fully processed before counters are read
/// (abandoned client connections would otherwise race the snapshot).
fn federated_chaos_run(spec: &FederationSpec, n_connections: usize, client_seed: u64) -> FedRun {
    let w = generate_federation(spec);
    let queries: Vec<String> = w.queries.iter().map(|q| q.to_sparql(&w.interner)).collect();
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
    let injected_endpoints = injected_total(&proxies);
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

/// Tests of the seeded generator the legs above run on.
mod workload {
    use super::common::rewrite;
    use super::common::workload::*;
    use sparql_rewrite_core::{
        parse_query, DispatchPlan, EndpointId, PatternNode, Query, RewriteLimits,
    };

    fn total_patterns(w: &Workload) -> usize {
        w.queries.iter().map(|q| q.pattern.triples.len()).sum()
    }

    #[test]
    fn deterministic_for_a_seed() {
        let spec = WorkloadSpec {
            n_rules: 200,
            patterns_per_query: 8,
            n_queries: 10,
            seed: 42,
            group_shapes: false,
        };
        let a = generate(&spec);
        let b = generate(&spec);
        assert_eq!(a.queries, b.queries);
        assert_eq!(a.store.len(), b.store.len());
        assert_eq!(total_patterns(&a), 80);
    }

    #[test]
    fn group_workload_is_deterministic_and_group_shaped() {
        let spec = WorkloadSpec {
            n_rules: 200,
            patterns_per_query: 8,
            n_queries: 10,
            seed: 42,
            group_shapes: true,
        };
        let a = generate(&spec);
        let b = generate(&spec);
        assert_eq!(a.queries, b.queries);
        assert!(total_patterns(&a) > 0);
        // Every query carries the full shape mix: none is a flat BGP.
        assert!(a.queries.iter().all(|q| !q.pattern.is_flat()));
        // Multi-template rules exist (second template per eighth predicate).
        assert!(a.store.len() > 200);
    }

    #[test]
    fn zipf_stream_is_deterministic_and_skewed() {
        let spec = ZipfSpec {
            s: 1.0,
            n_distinct: 64,
            n_requests: 4096,
            seed: 99,
        };
        let a = zipf_ranks(&spec);
        let b = zipf_ranks(&spec);
        assert_eq!(a, b);
        assert_eq!(a.len(), 4096);
        assert!(a.iter().all(|&r| (r as usize) < 64));
        // Rank 0 must dominate rank 63 by roughly its 64x weight ratio.
        let count = |r: u32| a.iter().filter(|&&x| x == r).count();
        let (head, tail) = (count(0), count(63));
        assert!(head > 10 * tail.max(1), "no skew: head {head}, tail {tail}");
        // s = 0 is uniform-ish: the head must NOT dominate.
        let uniform = zipf_ranks(&ZipfSpec { s: 0.0, ..spec });
        let uhead = uniform.iter().filter(|&&x| x == 0).count();
        assert!(uhead < 4096 / 16, "s=0 stream is skewed: {uhead}");
    }

    #[test]
    fn perturbations_preserve_the_parsed_query() {
        let spec = WorkloadSpec {
            n_rules: 100,
            patterns_per_query: 8,
            n_queries: 8,
            seed: 11,
            group_shapes: true,
        };
        let mut w = generate(&spec);
        let texts = w.query_texts();
        let mut rng = Rng::new(5);
        for (text, parsed) in texts.iter().zip(&w.queries) {
            let ws = perturb_whitespace(text, &mut rng);
            assert_eq!(
                &parse_query(&ws, &mut w.interner).expect("whitespace perturbation parses"),
                parsed,
                "whitespace perturbation changed the parse of {text:?}"
            );
            let aliased = alias_prefix(text, "zq", "http://src.example.org/onto/");
            assert_eq!(
                &parse_query(&aliased, &mut w.interner).expect("aliased variant parses"),
                parsed,
                "prefix aliasing changed the parse of {text:?}"
            );
        }
    }

    #[test]
    fn federation_workload_is_deterministic_and_partitions() {
        let spec = FederationSpec {
            n_endpoints: 4,
            rules_per_endpoint: 64,
            n_queries: 24,
            patterns_per_query: 8,
            seed: 21,
        };
        let a = generate_federation(&spec);
        let b = generate_federation(&spec);
        assert_eq!(a.queries, b.queries);
        assert_eq!(a.planner.n_endpoints(), 4);
        // Plans are deterministic and the query mix reaches multiple
        // endpoints plus the residual partition across the set.
        let shape = |p: &DispatchPlan| {
            let eps: Vec<_> = p
                .endpoints
                .iter()
                .map(|e| (e.endpoint, e.subquery.clone(), e.selectivity, e.n_patterns))
                .collect();
            (eps, p.n_residual_patterns)
        };
        let mut multi_endpoint = false;
        let mut any_residual = false;
        let mut ep0_complex = false;
        for q in &a.queries {
            let plan = a
                .planner
                .plan_for_dispatch(q.as_ref(), &a.interner, RewriteLimits::unbounded())
                .unwrap();
            let plan_b = b
                .planner
                .plan_for_dispatch(q.as_ref(), &b.interner, RewriteLimits::unbounded())
                .unwrap();
            assert_eq!(shape(&plan), shape(&plan_b));
            multi_endpoint |= plan.endpoints.len() >= 2;
            any_residual |= plan.n_residual_patterns > 0;
            // Endpoint 0 serves complex correspondences: when one fires,
            // its subquery carries a residual-guard or transform
            // FILTER.
            for ep in &plan.endpoints {
                if ep.endpoint == EndpointId(0) {
                    ep0_complex |= ep.subquery.contains("FILTER(");
                }
            }
        }
        assert!(multi_endpoint, "no query spanned two endpoints");
        assert!(any_residual, "no query kept a residual pattern");
        assert!(ep0_complex, "no complex rule fired on endpoint 0");
    }

    #[test]
    fn group_workload_rewrites_expand_unions() {
        let spec = WorkloadSpec {
            n_rules: 64,
            patterns_per_query: 12,
            n_queries: 16,
            seed: 3,
            group_shapes: true,
        };
        let w = generate(&spec);
        // At least one query must hit a double-template predicate and grow
        // an extra UNION beyond the one the query text already contains.
        let extra_unions = w.queries.iter().any(|q| {
            let out = rewrite(&w.store, q);
            let unions = |qq: &Query| {
                qq.pattern
                    .nodes
                    .iter()
                    .filter(|n| matches!(n, PatternNode::Union { .. }))
                    .count()
            };
            unions(&out) > unions(q)
        });
        assert!(extra_unions, "no multi-template UNION expansion fired");
    }
}
