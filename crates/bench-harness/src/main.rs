//! Deterministic gates: the five seeded robustness legs the repo's ruler
//! (`benchmark/`, see `BENCHMARK.json`) deliberately does not run, because
//! they check a pass/fail contract rather than measure a speed. Every
//! timing question — rewrite, serve, cache, socket path, thread contention
//! — belongs to the ruler.
//!
//! ```text
//! cargo run --release -p bench-harness
//! ```
//!
//! takes no arguments, writes no file, prints one `PASS`/`FAIL` line per
//! leg and exits nonzero if any leg failed.
//!
//! * `federation/soak` streams Zipfian federated queries against four
//!   fault-injected mock endpoints (30% transient failures, one flapping)
//!   — twice, with identical seeds. Fails on a panic, diverging
//!   partial-result transcripts or breaker states, an endpoint outcome
//!   past the deadline ceiling (deadline + one backoff quantum), or a
//!   stream that served nothing or degraded nothing.
//! * `federation/http_soak` proves the same contract over real sockets:
//!   four in-process chaos proxies inject byte-level protocol faults
//!   (refused/reset connections, slow-loris trickle, truncated and
//!   oversized bodies, malformed status lines and headers, lying
//!   Content-Length) into the blocking HTTP transport, while each request
//!   is re-planned through the planner's partition cache. Also fails if an
//!   enabled fault class never fired or the partition cache never hit.
//! * `server/chaos_soak` turns the chaos around: a seeded *client-side*
//!   adversary (nine fault classes) drives the live `sparql-rewrite-server`
//!   front end over loopback, twice with identical seeds. Fails on a worker
//!   panic, diverging transcripts or server counters, a missing fault
//!   class, a shed path that is not eight well-formed O(1) `503`s under
//!   wedged workers, or a drain outside the documented bound.
//! * `server/cached/zipf` streams healthy keep-alive traffic through a
//!   workload-tuned cache. Fails on a single steady-state allocation
//!   anywhere in the process — socket path included — a non-200, a hit
//!   rate under 0.9, or an oversize cache bypass.
//! * `server/federated_chaos` squeezes the federated server between the
//!   chaos client and chaos-proxy endpoints, twice with identical seeds.
//!   Fails on a panic on either side, diverging transcripts or breaker
//!   states, no mixed partial response, no complete response, or a
//!   response past the deadline ceiling.

mod chaos_client;
mod engine;
mod server_soak;
mod workload;

use sparql_rewrite_core::counting_alloc::CountingAllocator;
use sparql_rewrite_core::{
    BackoffPolicy, BreakerConfig, CacheConfig, ChaosProxy, ChaosSpec, EndpointOutcome,
    ExecutorConfig, FaultSpec, FederatedExecutor, HttpConfig, HttpEndpoint, HttpLimits,
    HttpTransport, MockTransport, RewriteLimits,
};
use workload::{generate_federation, zipf_ranks, FederationSpec, Rng, ZipfSpec};

// Counting allocator (shared with the core crate's alloc_free test) so the
// `server/cached/zipf` leg can gate on allocations per request.
#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Outcome of the fault-injection soak: a Zipfian stream of planned
/// federated queries dispatched twice against identically seeded mock
/// endpoints.
struct FederationSoak {
    served: u64,
    timed_out: u64,
    circuit_open: u64,
    exhausted: u64,
    deterministic: bool,
    breaker_converged: bool,
    deadline_respected: bool,
    panicked: bool,
}

impl FederationSoak {
    /// Robustness properties, not throughput. Each failure means fault
    /// tolerance regressed — a panic escaped the executor, identically
    /// seeded runs diverged (scheduling leaked into results), breakers
    /// ended in different states, an endpoint overshot the deadline
    /// ceiling, or the fault injection silently stopped exercising the
    /// degraded paths.
    fn failures(&self) -> Vec<String> {
        let mut failures = Vec::new();
        if self.panicked {
            failures.push("federation soak panicked under fault injection".to_string());
        }
        if !self.deterministic {
            failures.push(
                "federated partial-result transcripts diverged across identical-seed runs"
                    .to_string(),
            );
        }
        if !self.breaker_converged {
            failures.push(
                "per-endpoint breaker states did not converge across identical-seed runs"
                    .to_string(),
            );
        }
        if !self.deadline_respected {
            failures.push(
                "a federated dispatch exceeded the deadline by more than one backoff quantum"
                    .to_string(),
            );
        }
        if self.served == 0 {
            failures.push(
                "federation soak served nothing — partial-result degradation is broken".to_string(),
            );
        }
        if self.timed_out + self.circuit_open + self.exhausted == 0 {
            failures.push(
                "federation soak saw no degraded outcomes — fault injection is not firing"
                    .to_string(),
            );
        }
        failures
    }
}

/// Fault-injection soak: four mock endpoints at a 30% transient-failure
/// rate (the last one also flapping in windows, so circuit breakers trip
/// and probe during the stream), serving a Zipfian(1.0) mix of federated
/// query plans. The identical stream runs twice with fresh, identically
/// seeded executor + transport pairs; the concatenated canonical
/// transcripts must be byte-identical and the final per-endpoint breaker
/// states equal — the concurrency-determinism acceptance gate.
fn run_federation_soak() -> FederationSoak {
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
                .plan(q.as_ref(), &w.interner, limits)
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
            transcript.push_str(&result.canonical_text());
        }
        (
            transcript,
            executor.breaker_states(),
            tallies,
            within_ceiling,
        )
    };

    let first = std::panic::catch_unwind(std::panic::AssertUnwindSafe(&run_once));
    let second = std::panic::catch_unwind(std::panic::AssertUnwindSafe(&run_once));
    let (panicked, deterministic, breaker_converged, deadline_respected, tallies) =
        match (&first, &second) {
            (Ok(a), Ok(b)) => (false, a.0 == b.0, a.1 == b.1, a.3 && b.3, a.2),
            _ => (true, false, false, false, [0u64; 4]),
        };
    FederationSoak {
        served: tallies[0],
        timed_out: tallies[1],
        circuit_open: tallies[2],
        exhausted: tallies[3],
        deterministic,
        breaker_converged,
        deadline_respected,
        panicked,
    }
}

/// Outcome of the HTTP chaos soak: the same robustness contract as
/// [`FederationSoak`], but over the real socket transport — a Zipfian
/// stream re-planned per request (exercising the planner's partition
/// cache) and dispatched through [`HttpTransport`] against four in-process
/// [`ChaosProxy`] endpoints injecting byte-level protocol faults.
struct HttpSoak {
    served: u64,
    timed_out: u64,
    circuit_open: u64,
    exhausted: u64,
    exhausted_permanent: u64,
    /// Partition-cache hits over both runs of the stream.
    cache_hits: u64,
    deterministic: bool,
    breaker_converged: bool,
    deadline_respected: bool,
    /// Every fault class the specs enable (all nine, Healthy included)
    /// was actually injected at least once.
    all_faults_injected: bool,
    panicked: bool,
}

impl HttpSoak {
    /// The same robustness contract as the mock soak, but proven against
    /// real sockets — plus the transport-specific properties (every
    /// injected protocol fault class observed, partition cache serving
    /// repeat plans, no panic crossing the pool boundary).
    fn failures(&self) -> Vec<String> {
        let mut failures = Vec::new();
        if self.panicked {
            failures.push("http chaos soak panicked (or a panic crossed the pool boundary)".into());
        }
        if !self.deterministic {
            failures.push(
                "http soak outcome transcripts or fault schedules diverged across \
                 identical-seed runs"
                    .to_string(),
            );
        }
        if !self.breaker_converged {
            failures.push(
                "http soak breaker states did not converge across identical-seed runs".to_string(),
            );
        }
        if !self.deadline_respected {
            failures.push(
                "an http dispatch exceeded the deadline by more than one backoff quantum"
                    .to_string(),
            );
        }
        if self.served == 0 {
            failures.push("http soak served nothing — the socket transport is broken".to_string());
        }
        if self.timed_out + self.circuit_open + self.exhausted + self.exhausted_permanent == 0 {
            failures.push(
                "http soak saw no degraded outcomes — chaos injection is not firing".to_string(),
            );
        }
        if !self.all_faults_injected {
            failures.push(
                "an enabled chaos fault class was never injected — coverage silently shrank"
                    .to_string(),
            );
        }
        if self.cache_hits == 0 {
            failures.push(
                "partition cache saw no hits on a Zipfian stream — per-endpoint caching is dead"
                    .to_string(),
            );
        }
        failures
    }
}

/// HTTP chaos soak: four loopback chaos proxies — three lightly faulty,
/// one hostile enough to trip its breaker — serve a Zipfian(1.0) stream of
/// federated queries re-planned per request through the planner's
/// partition cache and dispatched over real TCP. The stream runs twice
/// with identical seeds and fresh proxies/transport/executor; transcripts
/// record outcome *classes* (never wall-clock nanos, which real sockets
/// make noisy), and must replay byte-identically, with converged breakers
/// and identical fault-injection schedules.
///
/// Timing margins are chosen so scheduling noise cannot flip a decision:
/// inter-request (50ms) and breaker cooldown (120ms) are *virtual* — free
/// to make enormous next to the sub-millisecond real latencies that leak
/// into the virtual clock — and the 250ms deadline gives loopback
/// round-trips (~0.1ms) three orders of magnitude of headroom.
fn run_http_soak() -> HttpSoak {
    const N_ENDPOINTS: usize = 4;
    let spec = FederationSpec {
        n_endpoints: N_ENDPOINTS,
        rules_per_endpoint: 64,
        n_queries: 32,
        patterns_per_query: 8,
        seed: 0xc4a0_55ed,
    };
    let mut w = generate_federation(&spec);
    w.planner.enable_partition_cache(CacheConfig::default());
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
    let light = ChaosSpec {
        refuse_pct: 3,
        reset_pct: 3,
        truncate_pct: 3,
        wrong_len_pct: 4,
        ..ChaosSpec::default()
    };
    let exotic = ChaosSpec {
        trickle_pct: 2,
        malformed_status_pct: 3,
        oversized_pct: 3,
        ..ChaosSpec::default()
    };
    let header_faults = ChaosSpec {
        reset_pct: 3,
        malformed_header_pct: 3,
        wrong_len_pct: 4,
        ..ChaosSpec::default()
    };
    let hostile = ChaosSpec {
        refuse_pct: 18,
        reset_pct: 18,
        truncate_pct: 14,
        ..ChaosSpec::default()
    };
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
                use std::fmt::Write as _;
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
        let mut injected = [0u64; 9];
        for p in &proxies {
            for (total, n) in injected.iter_mut().zip(p.injected_counts()) {
                *total += n;
            }
        }
        (
            transcript,
            executor.breaker_states(),
            tallies,
            within_ceiling,
            injected,
            executor.caught_panics(),
        )
    };

    let first = std::panic::catch_unwind(std::panic::AssertUnwindSafe(&run_once));
    let second = std::panic::catch_unwind(std::panic::AssertUnwindSafe(&run_once));
    let (panicked, deterministic, breaker_converged, deadline_respected, tallies, injected) =
        match (&first, &second) {
            (Ok(a), Ok(b)) => (
                a.5 + b.5 > 0,
                a.0 == b.0 && a.4 == b.4,
                a.1 == b.1,
                a.3 && b.3,
                a.2,
                a.4,
            ),
            _ => (true, false, false, false, [0u64; 5], [0u64; 9]),
        };
    // Every class some spec enables must have fired; with all-zero pcts
    // only Healthy is expected. The draw schedule is seeded, so this is a
    // deterministic property of the config above, not a statistical hope.
    let enabled = |f: fn(&ChaosSpec) -> u8| chaos_specs.iter().any(|s| f(s) > 0);
    let expected: [bool; 9] = [
        true, // Healthy
        enabled(|s| s.refuse_pct),
        enabled(|s| s.reset_pct),
        enabled(|s| s.trickle_pct),
        enabled(|s| s.truncate_pct),
        enabled(|s| s.malformed_status_pct),
        enabled(|s| s.malformed_header_pct),
        enabled(|s| s.oversized_pct),
        enabled(|s| s.wrong_len_pct),
    ];
    let all_faults_injected = expected
        .iter()
        .zip(injected)
        .all(|(&want, got)| !want || got > 0);
    HttpSoak {
        served: tallies[0],
        timed_out: tallies[1],
        circuit_open: tallies[2],
        exhausted: tallies[3],
        exhausted_permanent: tallies[4],
        cache_hits: w.planner.partition_cache_stats().hits,
        deterministic,
        breaker_converged,
        deadline_respected,
        all_faults_injected,
        panicked,
    }
}

fn main() {
    if let Some(arg) = std::env::args().nth(1) {
        eprintln!("error: unexpected argument {arg:?}: the gates take no arguments");
        std::process::exit(2);
    }
    let mut failed = false;
    let mut gate = |name: &str, failures: Vec<String>| {
        if failures.is_empty() {
            println!("PASS {name}");
        } else {
            failed = true;
            println!("FAIL {name}: {}", failures.join("; "));
        }
    };
    gate(
        "federation/soak/zipf/4ep/30pct",
        run_federation_soak().failures(),
    );
    gate(
        "federation/http_soak/zipf/4ep/chaos",
        run_http_soak().failures(),
    );
    gate(
        "server/chaos_soak/2w/9faults",
        server_soak::run_server_chaos_soak().failures(),
    );
    gate(
        "server/cached/zipf/1k",
        server_soak::run_server_cached_config().failures(),
    );
    gate(
        "server/federated_chaos/4ep/double-sided",
        server_soak::run_server_federated_chaos().failures(),
    );
    if failed {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One row of a gate table: what is flipped, the flip, and a fragment
    /// the single resulting failure must contain.
    pub(crate) type Flip<R> = (&'static str, fn(&mut R), &'static str);

    /// A passing report has no failures, and each flip applied alone to a
    /// passing report trips exactly one gate — a condition that went
    /// vacuous, or two that overlap, fails here.
    pub(crate) fn assert_each_flip_trips_one_gate<R>(
        passing: fn() -> R,
        failures: fn(&R) -> Vec<String>,
        table: &[Flip<R>],
    ) {
        assert_eq!(failures(&passing()), Vec::<String>::new());
        for (label, flip, expect) in table {
            let mut report = passing();
            flip(&mut report);
            let failed = failures(&report);
            assert_eq!(failed.len(), 1, "{label}: {failed:?}");
            assert!(failed[0].contains(expect), "{label}: {failed:?}");
        }
    }

    #[test]
    fn federation_soak_gates_each_trip_alone() {
        fn passing() -> FederationSoak {
            FederationSoak {
                served: 900,
                timed_out: 1,
                circuit_open: 0,
                exhausted: 0,
                deterministic: true,
                breaker_converged: true,
                deadline_respected: true,
                panicked: false,
            }
        }
        assert_each_flip_trips_one_gate(
            passing,
            FederationSoak::failures,
            &[
                ("panicked", |r| r.panicked = true, "panicked"),
                ("deterministic", |r| r.deterministic = false, "diverged"),
                (
                    "breaker_converged",
                    |r| r.breaker_converged = false,
                    "did not converge",
                ),
                (
                    "deadline_respected",
                    |r| r.deadline_respected = false,
                    "exceeded the deadline",
                ),
                ("served == 0", |r| r.served = 0, "served nothing"),
                ("no degraded", |r| r.timed_out = 0, "no degraded outcomes"),
            ],
        );
    }

    #[test]
    fn http_soak_gates_each_trip_alone() {
        fn passing() -> HttpSoak {
            HttpSoak {
                served: 300,
                timed_out: 0,
                circuit_open: 0,
                exhausted: 0,
                exhausted_permanent: 1,
                cache_hits: 1,
                deterministic: true,
                breaker_converged: true,
                deadline_respected: true,
                all_faults_injected: true,
                panicked: false,
            }
        }
        assert_each_flip_trips_one_gate(
            passing,
            HttpSoak::failures,
            &[
                ("panicked", |r| r.panicked = true, "panicked"),
                ("deterministic", |r| r.deterministic = false, "diverged"),
                (
                    "breaker_converged",
                    |r| r.breaker_converged = false,
                    "did not converge",
                ),
                (
                    "deadline_respected",
                    |r| r.deadline_respected = false,
                    "exceeded the deadline",
                ),
                ("served == 0", |r| r.served = 0, "served nothing"),
                (
                    "no degraded",
                    |r| r.exhausted_permanent = 0,
                    "no degraded outcomes",
                ),
                (
                    "all_faults_injected",
                    |r| r.all_faults_injected = false,
                    "never injected",
                ),
                ("cache_hits == 0", |r| r.cache_hits = 0, "no hits"),
            ],
        );
    }
}
