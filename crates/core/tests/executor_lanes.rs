//! The federated executor spawns its dispatch lanes once, at construction,
//! and never on the request path.
//!
//! This is the only test in its binary on purpose: it reads the process's
//! thread count, which any test running beside it would move.
#![cfg(target_os = "linux")]

use sparql_rewrite_core::{
    EndpointId, EndpointPlan, ExecutorConfig, FaultSpec, FederatedExecutor, Interner,
    MockTransport, Term,
};

/// `Threads:` from `/proc/self/status`.
fn process_threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|n| n.trim().parse().ok())
        .expect("/proc/self/status has a Threads: line")
}

/// The thread count after joins: the kernel wakes a thread's joiner just
/// before it takes the exiting thread off the process's count, so give it
/// a bounded moment to reach `expected` and report what it read last.
fn process_threads_settling_to(expected: usize) -> usize {
    for _ in 0..1_000 {
        if process_threads() == expected {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    process_threads()
}

fn executor() -> FederatedExecutor<MockTransport> {
    let config = ExecutorConfig::default();
    FederatedExecutor::new(
        MockTransport::new(config.seed, vec![FaultSpec::transient(20); 3]),
        3,
        config,
    )
}

#[test]
fn lanes_are_spawned_at_construction_and_joined_on_drop() {
    let mut interner = Interner::new();
    let plans: Vec<EndpointPlan> = (0..3)
        .map(|e| EndpointPlan {
            endpoint: EndpointId(e),
            endpoint_term: Term::iri(interner.intern(&format!("http://ep{e}/sparql"))),
            subquery: format!("SELECT * WHERE {{ ?s <http://ep{e}/p> ?o . }}"),
            selectivity: 1,
            n_patterns: 1,
        })
        .collect();

    let before_construction = process_threads();
    let ex = executor();
    let idle = process_threads();
    assert_eq!(
        idle,
        before_construction + 2,
        "min(n_threads, n_endpoints) - 1 lanes"
    );
    for _ in 0..1_000 {
        assert_eq!(ex.execute(&plans).reports.len(), 3);
    }
    assert_eq!(process_threads(), idle, "a request spawned a thread");
    drop(ex);
    assert_eq!(
        process_threads_settling_to(before_construction),
        before_construction,
        "a lane outlived drop"
    );

    for _ in 0..100 {
        let ex = executor();
        ex.execute(&plans);
    }
    assert_eq!(
        process_threads_settling_to(before_construction),
        before_construction,
        "lanes leak per cycle"
    );
}
