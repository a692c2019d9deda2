//! The federated executor's resilience ladder over the seeded
//! [`MockTransport`]: deadlines, retries, breakers, partial results, replay.

use std::sync::Arc;
use std::thread;

use sparql_rewrite_chaos::{FaultSpec, MockTransport};
use sparql_rewrite_core::{
    BreakerConfig, BreakerState, EndpointId, EndpointOutcome, EndpointPlan, ExecutorConfig,
    FederatedExecutor, FederatedResult, Interner, Term,
};

fn plan_for(e: u32) -> EndpointPlan {
    let mut interner = Interner::new();
    EndpointPlan {
        endpoint: EndpointId(e),
        endpoint_term: Term::iri(interner.intern(&format!("http://ep{e}/sparql"))),
        subquery: format!("SELECT * WHERE {{ ?s <http://ep{e}/p> ?o . }}"),
        selectivity: 1,
        n_patterns: 1,
    }
}

fn executor(specs: Vec<FaultSpec>, config: ExecutorConfig) -> FederatedExecutor<MockTransport> {
    let n = specs.len();
    FederatedExecutor::new(MockTransport::new(config.seed, specs), n, config)
}

#[test]
fn healthy_endpoints_all_serve_within_deadline() {
    let cfg = ExecutorConfig::default();
    let ex = executor(vec![FaultSpec::default(); 4], cfg);
    let plans: Vec<_> = (0..4).map(plan_for).collect();
    let result = ex.execute(&plans);
    assert!(result.is_complete());
    for r in &result.reports {
        match r.outcome {
            EndpointOutcome::Served {
                attempts,
                latency_nanos,
            } => {
                assert_eq!(attempts, 1);
                assert!(latency_nanos <= cfg.deadline_nanos);
                assert!(r.rows.is_some());
            }
            other => panic!("expected Served, got {other:?}"),
        }
        assert_eq!(r.breaker, BreakerState::Closed);
    }
}

#[test]
fn identical_seeds_replay_bit_identically() {
    let cfg = ExecutorConfig {
        seed: 1234,
        ..ExecutorConfig::default()
    };
    let specs = || {
        vec![
            FaultSpec::transient(30),
            FaultSpec::transient(60),
            FaultSpec {
                timeout_pct: 20,
                ..FaultSpec::transient(20)
            },
            FaultSpec {
                flap_period: 7,
                ..FaultSpec::default()
            },
        ]
    };
    let run = || {
        let ex = executor(specs(), cfg);
        let plans: Vec<_> = (0..4).map(plan_for).collect();
        let mut transcript = String::new();
        for _ in 0..50 {
            transcript.push_str(&ex.execute(&plans).canonical_text());
        }
        (transcript, ex.breaker_states())
    };
    let (ta, ba) = run();
    let (tb, bb) = run();
    assert_eq!(ta, tb, "fault replay diverged");
    assert_eq!(ba, bb, "breaker states diverged");
}

#[test]
fn permanent_failure_degrades_to_partial_results() {
    let ex = executor(
        vec![
            FaultSpec::default(),
            FaultSpec {
                permanent_pct: 100,
                ..FaultSpec::default()
            },
        ],
        ExecutorConfig::default(),
    );
    let result = ex.execute(&[plan_for(0), plan_for(1)]);
    assert_eq!(result.served_count(), 1);
    assert!(result.reports[0].outcome.is_served());
    assert_eq!(
        result.reports[1].outcome,
        EndpointOutcome::ExhaustedRetries {
            attempts: 1,
            permanent: true
        },
        "permanent errors must not be retried"
    );
    assert_eq!(result.reports[1].rows, None);
}

#[test]
fn stalled_endpoint_times_out_exactly_at_the_deadline() {
    let cfg = ExecutorConfig::default();
    let ex = executor(
        vec![FaultSpec {
            timeout_pct: 100,
            ..FaultSpec::default()
        }],
        cfg,
    );
    let result = ex.execute(&[plan_for(0)]);
    match result.reports[0].outcome {
        EndpointOutcome::TimedOut {
            attempts,
            elapsed_nanos,
        } => {
            assert_eq!(attempts, 1);
            assert_eq!(elapsed_nanos, cfg.deadline_nanos);
        }
        other => panic!("expected TimedOut, got {other:?}"),
    }
}

#[test]
fn transient_failures_retry_and_elapsed_never_exceeds_deadline() {
    let cfg = ExecutorConfig {
        seed: 77,
        ..ExecutorConfig::default()
    };
    let ex = executor(vec![FaultSpec::transient(50)], cfg);
    let mut retried = false;
    for _ in 0..100 {
        let result = ex.execute(&[plan_for(0)]);
        let r = &result.reports[0];
        match r.outcome {
            EndpointOutcome::Served {
                attempts,
                latency_nanos,
            } => {
                retried |= attempts > 1;
                assert!(latency_nanos <= cfg.deadline_nanos);
            }
            EndpointOutcome::TimedOut { elapsed_nanos, .. } => {
                assert!(elapsed_nanos <= cfg.deadline_nanos);
            }
            EndpointOutcome::ExhaustedRetries { attempts, .. } => {
                assert_eq!(attempts, cfg.backoff.max_retries + 1);
            }
            EndpointOutcome::CircuitOpen { .. } => {}
        }
    }
    assert!(
        retried,
        "50% transient faults should trigger at least one retry"
    );
}

#[test]
fn breaker_opens_fails_fast_and_recovers_via_half_open() {
    // Flapping endpoint: up for 6 requests, down for 6, up for 6, ...
    // The cooldown (4ms) is shorter than the request inter-arrival
    // (5ms), so an open breaker probes on every subsequent execution
    // and can catch the next up-window.
    let cfg = ExecutorConfig {
        breaker: BreakerConfig {
            window: 4,
            min_samples: 2,
            failure_rate_pct: 50,
            cooldown_nanos: 4_000_000,
            half_open_successes: 1,
        },
        ..ExecutorConfig::default()
    };
    let ex = executor(
        vec![FaultSpec {
            flap_period: 6,
            ..FaultSpec::default()
        }],
        cfg,
    );
    let mut saw = (false, false, false); // (open fast-fail, recovery, served after recovery)
    let mut was_open = false;
    for _ in 0..60 {
        let result = ex.execute(&[plan_for(0)]);
        let r = &result.reports[0];
        if matches!(r.outcome, EndpointOutcome::CircuitOpen { .. }) {
            saw.0 = true;
            was_open = true;
        } else if was_open && r.outcome.is_served() {
            saw.2 = true;
        }
        if was_open && r.breaker == BreakerState::Closed {
            saw.1 = true;
        }
    }
    assert!(saw.0, "breaker never fast-failed");
    assert!(saw.1, "breaker never closed again after opening");
    assert!(saw.2, "no request served after recovery");
}

#[test]
fn overlapping_executions_with_fewer_lanes_than_demand_match_the_serial_run() {
    const CALLERS: usize = 4;
    const ROUNDS: usize = 500;
    // Caller `c` sends plan set `c % 3`: the same three endpoints in
    // rotated orders, so every caller contends with every other.
    let plan_sets: [Vec<EndpointPlan>; 3] = [
        vec![plan_for(0), plan_for(1), plan_for(2)],
        vec![plan_for(2), plan_for(0), plan_for(1)],
        vec![plan_for(1), plan_for(2), plan_for(0)],
    ];
    let cfg = ExecutorConfig {
        n_threads: 2,
        seed: 99,
        ..ExecutorConfig::default()
    };
    let specs = || {
        vec![
            FaultSpec::transient(30),
            FaultSpec {
                timeout_pct: 10,
                ..FaultSpec::transient(20)
            },
            FaultSpec {
                flap_period: 5,
                ..FaultSpec::default()
            },
        ]
    };
    // An endpoint's k-th report depends only on k — its runtime and the
    // mock's fault stream are indexed by its own call count — so
    // however the callers interleave, each endpoint must emit exactly
    // the reports it emits when one thread makes the same number of
    // calls. Which caller received the k-th one is the only freedom,
    // hence the sort.
    let stream_of = |results: &[FederatedResult], e: u32| {
        let mut stream: Vec<String> = results
            .iter()
            .flat_map(|r| &r.reports)
            .filter(|r| r.endpoint == EndpointId(e))
            .map(|r| format!("{r:?}"))
            .collect();
        stream.sort();
        stream
    };

    let serial = executor(
        specs(),
        ExecutorConfig {
            n_threads: 1,
            ..cfg
        },
    );
    let expected: Vec<FederatedResult> = (0..CALLERS * ROUNDS)
        .map(|_| serial.execute(&plan_sets[0]))
        .collect();

    let ex = Arc::new(executor(specs(), cfg));
    let callers: Vec<_> = (0..CALLERS)
        .map(|c| {
            let (ex, plans) = (Arc::clone(&ex), plan_sets[c % 3].clone());
            thread::spawn(move || {
                let results: Vec<_> = (0..ROUNDS).map(|_| ex.execute(&plans)).collect();
                for result in &results {
                    assert!(
                        result
                            .reports
                            .iter()
                            .map(|r| r.endpoint)
                            .eq(plans.iter().map(|p| p.endpoint)),
                        "reports must come back in plan order"
                    );
                }
                results
            })
        })
        .collect();
    let got: Vec<FederatedResult> = callers
        .into_iter()
        .flat_map(|c| c.join().expect("a caller panicked"))
        .collect();

    for e in 0..3 {
        assert_eq!(
            stream_of(&got, e),
            stream_of(&expected, e),
            "endpoint {e}'s report stream diverged from the serial run"
        );
        assert_eq!(
            ex.transport().requests_seen(EndpointId(e)),
            serial.transport().requests_seen(EndpointId(e))
        );
    }
    assert_eq!(ex.breaker_states(), serial.breaker_states());
    assert_eq!(ex.caught_panics(), 0);
}

#[test]
fn empty_plan_list_is_a_clean_noop() {
    let ex = executor(vec![], ExecutorConfig::default());
    let result = ex.execute(&[]);
    assert!(result.reports.is_empty());
    assert!(result.is_complete());
}
