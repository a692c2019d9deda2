//! End-to-end chaos battery: the real [`HttpTransport`] driven through the
//! [`FederatedExecutor`] against an in-process [`ChaosProxy`], one test per
//! injected fault class, asserting the documented fault → outcome mapping:
//!
//! | fault                | outcome                                      |
//! |----------------------|----------------------------------------------|
//! | healthy              | `Served` (connection reused across requests) |
//! | refuse / reset       | transient → `ExhaustedRetries { permanent: false }` |
//! | trickle (slow-loris) | `TimedOut` at exactly the deadline           |
//! | truncated body       | transient → `ExhaustedRetries { permanent: false }` |
//! | malformed status     | permanent, one attempt                       |
//! | malformed header     | permanent, one attempt                       |
//! | oversized body       | permanent, one attempt (cap checked before read) |
//! | wrong content-length | `Served`, but the connection is never pooled |
//!
//! Plus the conditions no proxy can fake: a genuinely dead port
//! (ECONNREFUSED from the kernel) and an unparseable authority. The final
//! test streams a mixed fault schedule twice and requires byte-identical
//! outcome transcripts — the determinism contract the server crate's
//! `federation_http_soak` asserts on a longer stream.

use sparql_rewrite_core::{
    BackoffPolicy, BreakerConfig, BreakerState, ChaosProxy, ChaosSpec, EndpointId, EndpointOutcome,
    EndpointPlan, ExecutorConfig, FaultClass, FederatedExecutor, HttpConfig, HttpEndpoint,
    HttpLimits, HttpTransport, Interner, Term,
};

/// A plan shipping one fixed subquery to endpoint 0.
fn plan() -> EndpointPlan {
    let mut interner = Interner::new();
    let sym = interner.intern("http://chaos.example.org/sparql");
    EndpointPlan {
        endpoint: EndpointId(0),
        endpoint_term: Term::iri(sym),
        subquery: "SELECT * WHERE { ?s <http://ep0.example.org/onto/p0> ?o . }".to_string(),
        selectivity: 1,
        n_patterns: 1,
    }
}

fn transport_for(authority: String) -> HttpTransport {
    HttpTransport::new(
        vec![HttpEndpoint::new(authority, "/sparql")],
        HttpConfig {
            limits: HttpLimits {
                max_header_bytes: 8 * 1024,
                // Below the chaos proxy's 256 KiB oversized announcement,
                // so OversizedBody is rejected at the cap.
                max_body_bytes: 64 * 1024,
            },
            connect_cap_nanos: 250_000_000,
        },
    )
}

/// Wide-margin timing: inter-request and cooldown are *virtual* (free), so
/// they dwarf any real socket latency that leaks into the virtual clock —
/// breaker decisions can't flip on scheduling noise.
fn exec_config() -> ExecutorConfig {
    ExecutorConfig {
        n_threads: 1,
        deadline_nanos: 200_000_000,
        inter_request_nanos: 50_000_000,
        backoff: BackoffPolicy {
            base_nanos: 1_000_000,
            max_nanos: 4_000_000,
            max_retries: 3,
        },
        breaker: BreakerConfig {
            window: 8,
            min_samples: 4,
            failure_rate_pct: 50,
            cooldown_nanos: 120_000_000,
            half_open_successes: 1,
        },
        seed: 0x7e57_c4a0,
    }
}

/// Spawn a proxy locked to one fault class, run `n` sequential executions,
/// and hand back (outcomes, executor, proxy) for assertions.
fn run_against(
    class: FaultClass,
    n: usize,
) -> (
    Vec<EndpointOutcome>,
    FederatedExecutor<HttpTransport>,
    ChaosProxy,
) {
    let proxy = ChaosProxy::spawn(0x5eed, ChaosSpec::always(class)).expect("spawn chaos proxy");
    let exec = FederatedExecutor::new(transport_for(proxy.authority()), 1, exec_config());
    let plans = [plan()];
    let outcomes = (0..n)
        .map(|_| exec.execute(&plans).reports[0].outcome)
        .collect();
    (outcomes, exec, proxy)
}

#[test]
fn healthy_endpoint_serves_and_reuses_its_connection() {
    let (outcomes, exec, proxy) = run_against(FaultClass::Healthy, 6);
    for (i, o) in outcomes.iter().enumerate() {
        assert!(
            matches!(o, EndpointOutcome::Served { attempts: 1, .. }),
            "request {i}: {o:?}"
        );
    }
    assert_eq!(proxy.injected(FaultClass::Healthy), 6);
    assert!(
        exec.transport().reused_connections() >= 1,
        "keep-alive pool never reused a healthy connection"
    );
    assert_eq!(exec.caught_panics(), 0);
}

#[test]
fn healthy_responses_are_deterministic_per_subquery() {
    let proxy = ChaosProxy::spawn(1, ChaosSpec::default()).unwrap();
    let exec = FederatedExecutor::new(transport_for(proxy.authority()), 1, exec_config());
    let plans = [plan()];
    let first = exec.execute(&plans).reports[0].rows.clone().unwrap();
    let second = exec.execute(&plans).reports[0].rows.clone().unwrap();
    // The chaos proxy stamps bodies with a hash of the received query, so
    // equal subqueries must produce byte-equal rows.
    assert_eq!(first, second);
    assert!(first.starts_with("{\"q\":\""), "unexpected body {first:?}");
}

#[test]
fn refused_connections_exhaust_transient_retries() {
    let (outcomes, exec, proxy) = run_against(FaultClass::Refuse, 1);
    let max = exec.config().backoff.max_retries;
    assert_eq!(
        outcomes[0],
        EndpointOutcome::ExhaustedRetries {
            attempts: max + 1,
            permanent: false
        }
    );
    assert_eq!(proxy.injected(FaultClass::Refuse), (max + 1) as u64);
}

#[test]
fn reset_after_the_request_is_transient() {
    let (outcomes, exec, _proxy) = run_against(FaultClass::Reset, 1);
    assert_eq!(
        outcomes[0],
        EndpointOutcome::ExhaustedRetries {
            attempts: exec.config().backoff.max_retries + 1,
            permanent: false
        }
    );
}

#[test]
fn truncated_bodies_are_transient() {
    let (outcomes, exec, _proxy) = run_against(FaultClass::TruncateBody, 1);
    assert_eq!(
        outcomes[0],
        EndpointOutcome::ExhaustedRetries {
            attempts: exec.config().backoff.max_retries + 1,
            permanent: false
        }
    );
}

#[test]
fn slow_loris_burns_the_deadline_to_a_timeout() {
    let (outcomes, exec, proxy) = run_against(FaultClass::Trickle, 1);
    // The trickle streams one byte per 20ms against a 200ms deadline: the
    // DeadlineReader re-arms the socket timeout per read, so the *total*
    // stall is cut at the deadline and the executor books exactly it.
    assert_eq!(
        outcomes[0],
        EndpointOutcome::TimedOut {
            attempts: 1,
            elapsed_nanos: exec.config().deadline_nanos
        }
    );
    assert_eq!(proxy.injected(FaultClass::Trickle), 1);
}

#[test]
fn malformed_status_lines_are_permanent() {
    let (outcomes, _exec, _proxy) = run_against(FaultClass::MalformedStatus, 1);
    assert_eq!(
        outcomes[0],
        EndpointOutcome::ExhaustedRetries {
            attempts: 1,
            permanent: true
        }
    );
}

#[test]
fn malformed_headers_are_permanent() {
    let (outcomes, _exec, _proxy) = run_against(FaultClass::MalformedHeader, 1);
    assert_eq!(
        outcomes[0],
        EndpointOutcome::ExhaustedRetries {
            attempts: 1,
            permanent: true
        }
    );
}

#[test]
fn oversized_bodies_are_rejected_at_the_cap_without_reading() {
    let (outcomes, _exec, _proxy) = run_against(FaultClass::OversizedBody, 1);
    // The 256 KiB Content-Length announcement exceeds the 64 KiB cap: the
    // reader rejects it from the header alone, never draining the body.
    assert_eq!(
        outcomes[0],
        EndpointOutcome::ExhaustedRetries {
            attempts: 1,
            permanent: true
        }
    );
}

#[test]
fn wrong_content_length_serves_but_poisons_the_connection() {
    let (outcomes, exec, _proxy) = run_against(FaultClass::WrongContentLength, 3);
    // The response parses (short body), so the caller is served — but the
    // stray over-announced bytes make the connection dirty, so it must
    // never re-enter the keep-alive pool.
    for (i, o) in outcomes.iter().enumerate() {
        assert!(
            matches!(o, EndpointOutcome::Served { attempts: 1, .. }),
            "request {i}: {o:?}"
        );
    }
    assert_eq!(
        exec.transport().reused_connections(),
        0,
        "a poisoned connection was reused"
    );
    assert_eq!(exec.transport().transparent_reconnects(), 0);
}

#[test]
fn sustained_faults_trip_the_breaker_and_fast_fail() {
    let (outcomes, exec, _proxy) = run_against(FaultClass::Refuse, 3);
    // Execution 1 records min_samples failures at a 100% rate: tripped.
    assert!(matches!(
        outcomes[0],
        EndpointOutcome::ExhaustedRetries {
            permanent: false,
            ..
        }
    ));
    // The 120ms cooldown spans the 50ms inter-request gap, so the next two
    // executions are rejected without a single socket dial.
    assert_eq!(outcomes[1], EndpointOutcome::CircuitOpen { attempts: 0 });
    assert_eq!(outcomes[2], EndpointOutcome::CircuitOpen { attempts: 0 });
    assert_eq!(exec.breaker_states()[0], BreakerState::Open);
}

#[test]
fn a_genuinely_dead_port_fast_fails_as_transient() {
    // Bind a listener to reserve a loopback port, then drop it: dialing
    // the dead port yields a real kernel ECONNREFUSED, not a proxy fake.
    let dead = {
        let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap()
    };
    let exec = FederatedExecutor::new(transport_for(dead.to_string()), 1, exec_config());
    let report = &exec.execute(&[plan()]).reports[0];
    assert_eq!(
        report.outcome,
        EndpointOutcome::ExhaustedRetries {
            attempts: exec.config().backoff.max_retries + 1,
            permanent: false
        },
        "rows: {:?}",
        report.rows
    );
}

#[test]
fn an_unparseable_authority_is_permanent() {
    let exec = FederatedExecutor::new(
        transport_for("127.0.0.1:notaport".to_string()),
        1,
        exec_config(),
    );
    assert_eq!(
        exec.execute(&[plan()]).reports[0].outcome,
        EndpointOutcome::ExhaustedRetries {
            attempts: 1,
            permanent: true
        }
    );
}

/// Outcome classes only — never latency nanos, which real sockets make
/// nondeterministic. This is the same transcript shape the bench soak
/// compares across runs.
fn outcome_class(o: &EndpointOutcome) -> String {
    match o {
        EndpointOutcome::Served { attempts, .. } => format!("served a={attempts}"),
        EndpointOutcome::TimedOut { attempts, .. } => format!("timed_out a={attempts}"),
        EndpointOutcome::CircuitOpen { attempts } => format!("circuit_open a={attempts}"),
        EndpointOutcome::ExhaustedRetries {
            attempts,
            permanent,
        } => format!("exhausted a={attempts} perm={permanent}"),
    }
}

#[test]
fn mixed_chaos_schedules_replay_byte_identically() {
    let spec = ChaosSpec {
        refuse_pct: 12,
        reset_pct: 12,
        truncate_pct: 12,
        malformed_status_pct: 6,
        wrong_len_pct: 10,
        ..ChaosSpec::default()
    };
    let run = || {
        let proxy = ChaosProxy::spawn(0xc4a0_5eed, spec).unwrap();
        let exec = FederatedExecutor::new(transport_for(proxy.authority()), 1, exec_config());
        let plans = [plan()];
        let mut transcript = String::new();
        let mut served = 0u32;
        let mut degraded = 0u32;
        for i in 0..40 {
            let r = &exec.execute(&plans).reports[0];
            if r.outcome.is_served() {
                served += 1;
            } else {
                degraded += 1;
            }
            transcript.push_str(&format!(
                "r={i} {} b={:?}\n",
                outcome_class(&r.outcome),
                r.breaker
            ));
        }
        assert_eq!(exec.caught_panics(), 0);
        (transcript, proxy.injected_counts(), served, degraded)
    };
    let (t1, inj1, served, degraded) = run();
    let (t2, inj2, _, _) = run();
    assert_eq!(t1, t2, "outcome transcripts diverged across identical runs");
    assert_eq!(inj1, inj2, "fault-injection schedules diverged");
    assert!(served > 0, "no request was served:\n{t1}");
    assert!(degraded > 0, "no request degraded:\n{t1}");
}
