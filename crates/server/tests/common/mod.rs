//! Helpers shared by this crate's test binaries. Nothing here is a
//! `#[test]`: every binary that declares `mod common;` compiles this tree,
//! so a test here would run once per binary.

pub mod chaos_client;
pub mod workload;

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use sparql_rewrite_core::{
    AlignmentStore, CacheConfig, Interner, Query, RewriteScratch, Rewriter, ServeEngine, Term,
    TriplePattern,
};
use sparql_rewrite_server::{Server, ServerConfig};

/// Rewrite `query` into an owned result through a fresh scratch.
pub fn rewrite(store: &AlignmentStore, query: &Query) -> Query {
    let mut scratch = RewriteScratch::new();
    store.rewrite_ref_into(query.as_ref(), &mut scratch);
    scratch.to_query()
}

/// One predicate rule: `src:p` → `tgt:q`.
pub fn test_engine() -> Arc<ServeEngine> {
    let mut interner = Interner::new();
    let mut store = AlignmentStore::new();
    let var_s = Term::var(interner.intern("s"));
    let var_o = Term::var(interner.intern("o"));
    let src = Term::iri(interner.intern("http://src.example.org/onto/p"));
    let tgt = Term::iri(interner.intern("http://tgt.example.org/onto/q"));
    store
        .add_predicate(
            TriplePattern::new(var_s, src, var_o),
            vec![TriplePattern::new(var_s, tgt, var_o)],
        )
        .expect("valid rule");
    Arc::new(ServeEngine::with_cache(
        store,
        interner,
        Some(CacheConfig::default()),
    ))
}

/// The acceptor's prebuilt overload response under the default
/// `retry_after_secs`, the same bytes `shed_bytes_unchanged_by_helper_unification`
/// pins in the server's `lib.rs`.
const SHED_RESPONSE: &[u8] = b"HTTP/1.1 503 Service Unavailable\r\nContent-Type: text/plain\r\nRetry-After: 1\r\nContent-Length: 11\r\nConnection: close\r\n\r\noverloaded\n";

/// Queue-full admission control and the drain contract. Wedge every worker
/// with a slow-loris blocker, pack the queue with silent fillers, then fire
/// probes: each must be refused with the prebuilt `503` + `Retry-After`,
/// read to EOF, without waiting on any worker. Shutdown must then refuse
/// exactly the parked fillers, inside its documented bound.
pub fn assert_sheds_and_drains(workers: usize, fillers: usize, probes: usize) {
    let config = ServerConfig {
        workers,
        queue_capacity: fillers,
        request_deadline: Duration::from_millis(800),
        keep_alive_idle: Duration::from_millis(800),
        drain_deadline: Duration::from_millis(250),
        ..ServerConfig::default()
    };
    let server = Server::spawn(test_engine(), config, "127.0.0.1:0").expect("shed server binds");
    let addr = server.local_addr();

    // Blockers: hold every worker mid-request (the request deadline keeps
    // them wedged far longer than the probe sequence takes).
    let blockers: Vec<TcpStream> = (0..workers)
        .map(|_| {
            let mut s = TcpStream::connect(addr).expect("blocker connect");
            s.write_all(b"POST /spar").expect("blocker partial write");
            s
        })
        .collect();
    let t0 = Instant::now();
    while server.stats().in_flight < workers {
        assert!(
            t0.elapsed() < Duration::from_secs(2),
            "workers never picked up blockers"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    // Fillers: park in the admission queue without sending a byte.
    let fillers_held: Vec<TcpStream> = (0..fillers)
        .map(|_| TcpStream::connect(addr).expect("filler connect"))
        .collect();
    while server.stats().queue_depth < fillers {
        assert!(t0.elapsed() < Duration::from_secs(2), "queue never filled");
        std::thread::sleep(Duration::from_millis(2));
    }

    // p99 over this few probes is the worst one.
    let mut worst = Duration::ZERO;
    for _ in 0..probes {
        let start = Instant::now();
        let mut probe = TcpStream::connect(addr).expect("probe connect");
        let _ = probe.set_read_timeout(Some(Duration::from_secs(2)));
        let mut raw = Vec::new();
        probe
            .read_to_end(&mut raw)
            .expect("shed probe reads to EOF");
        worst = worst.max(start.elapsed());
        assert!(
            raw == SHED_RESPONSE,
            "overload shed {:?}, not the prebuilt 503 + Retry-After — admission control regressed",
            String::from_utf8_lossy(&raw)
        );
    }
    assert!(
        worst <= Duration::from_millis(250),
        "shed-path p99 {:.1}ms > 250ms — the 503 path is waiting on workers",
        worst.as_secs_f64() * 1e3
    );
    let shed = server.stats().shed;
    assert!(
        shed == probes as u64,
        "overload shed {shed} of {probes} probes — admission control regressed"
    );

    let report = server.shutdown();
    drop(blockers);
    drop(fillers_held);
    assert!(
        report.dropped_from_queue == fillers,
        "drain refused {} queued connections, expected exactly the {fillers} parked fillers",
        report.dropped_from_queue
    );
    // 500 ms of slack over the documented bound, for scheduling noise.
    let bound = report.drain_deadline + report.request_deadline;
    assert!(
        report.elapsed <= bound + Duration::from_millis(500),
        "graceful drain took {:.0}ms — outside request_deadline + drain_deadline",
        report.elapsed.as_secs_f64() * 1e3
    );
}
