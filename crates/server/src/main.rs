//! Standalone SPARQL rewriting front end over a small built-in demo
//! alignment set. Binds a TCP port, serves the SPARQL protocol
//! (`GET /sparql?query=…`, `POST /sparql`), and shuts down gracefully on
//! stdin EOF (e.g. `Ctrl-D`, or the end of a piped script).
//!
//! ```text
//! server [--addr 127.0.0.1:8080] [--workers N] [--queue N]
//! curl 'http://127.0.0.1:8080/sparql?query=SELECT%20*%20WHERE%20%7B%20%3Fs%20%3Chttp%3A%2F%2Fsrc.example.org%2Fonto%2Fname%3E%20%3Fo%20%7D'
//! ```

#![forbid(unsafe_code)]

use std::io::Read;
use std::process::exit;
use std::sync::Arc;

use sparql_rewrite_core::{
    AlignmentStore, CacheConfig, Interner, ServeEngine, Term, TriplePattern,
};
use sparql_rewrite_server::request::RequestError;
use sparql_rewrite_server::{Server, ServerConfig};

/// A small cross-ontology alignment set so the binary demonstrates real
/// rewrites out of the box: `src.example.org/onto/*` terms map onto
/// `tgt.example.org/onto/*`, including one 1:2 predicate split that
/// exercises the UNION expansion.
fn demo_engine() -> ServeEngine {
    let mut interner = Interner::new();
    let mut store = AlignmentStore::new();
    let iri = |it: &mut Interner, s: &str| Term::iri(it.intern(s));
    let var_s = Term::var(interner.intern("s"));
    let var_o = Term::var(interner.intern("o"));

    for (src, tgt) in [
        (
            "http://src.example.org/onto/name",
            "http://tgt.example.org/onto/label",
        ),
        (
            "http://src.example.org/onto/homepage",
            "http://tgt.example.org/onto/url",
        ),
        (
            "http://src.example.org/onto/knows",
            "http://tgt.example.org/onto/acquaintedWith",
        ),
    ] {
        let lhs = TriplePattern::new(var_s, iri(&mut interner, src), var_o);
        let rhs = vec![TriplePattern::new(var_s, iri(&mut interner, tgt), var_o)];
        store.add_predicate(lhs, rhs).expect("valid demo template");
    }
    // 1:2 split: `member` matches two target predicates → UNION branches.
    let member = iri(&mut interner, "http://src.example.org/onto/member");
    for tgt in [
        "http://tgt.example.org/onto/memberOf",
        "http://tgt.example.org/onto/affiliatedWith",
    ] {
        let lhs = TriplePattern::new(var_s, member, var_o);
        let rhs = vec![TriplePattern::new(var_s, iri(&mut interner, tgt), var_o)];
        store.add_predicate(lhs, rhs).expect("valid demo template");
    }
    for (src, tgt) in [
        (
            "http://src.example.org/ent/acme",
            "http://tgt.example.org/ent/acme-corp",
        ),
        (
            "http://src.example.org/ent/widget",
            "http://tgt.example.org/ent/widget-x",
        ),
    ] {
        store
            .add_entity(iri(&mut interner, src), iri(&mut interner, tgt))
            .expect("valid demo entity alignment");
    }
    ServeEngine::with_cache(store, interner, Some(CacheConfig::default()))
}

fn main() {
    let mut addr = String::from("127.0.0.1:8080");
    let mut config = ServerConfig::default();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut take = |name: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("{name} needs a value");
                exit(2);
            })
        };
        match flag.as_str() {
            "--addr" => addr = take("--addr"),
            "--workers" => {
                config.workers = take("--workers").parse().unwrap_or_else(|_| {
                    eprintln!("--workers needs an integer");
                    exit(2);
                })
            }
            "--queue" => {
                config.queue_capacity = take("--queue").parse().unwrap_or_else(|_| {
                    eprintln!("--queue needs an integer");
                    exit(2);
                })
            }
            "--help" | "-h" => {
                println!("usage: server [--addr HOST:PORT] [--workers N] [--queue N]");
                return;
            }
            other => {
                eprintln!("unknown flag {other}");
                exit(2);
            }
        }
    }

    let engine = Arc::new(demo_engine());
    let server = match Server::spawn(engine, config, &addr) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("bind {addr}: {e}");
            exit(1);
        }
    };
    println!("listening on http://{}/sparql", server.local_addr());
    println!("EOF on stdin (Ctrl-D) shuts down gracefully");

    // Block until stdin closes, then drain.
    let mut sink = [0u8; 256];
    let mut stdin = std::io::stdin();
    while matches!(stdin.read(&mut sink), Ok(n) if n > 0) {}

    let stats = server.stats();
    let cache = server.engine().and_then(|e| e.cache_stats());
    let report = server.shutdown();
    println!(
        "accepted {} | served {} | shed {} | panics {} | errors {}",
        stats.accepted,
        stats.served,
        stats.shed,
        stats.panics,
        stats.errors_total(),
    );
    for (label, count) in RequestError::labels().iter().zip(stats.error_classes) {
        if count > 0 {
            println!("  {label}: {count}");
        }
    }
    if let Some(cache) = cache {
        println!(
            "cache: occupancy {}/{} | hit ratio {:.3} | evictions {} | oversize bypasses {}",
            cache.occupancy(),
            cache.capacity(),
            cache.hit_ratio(),
            cache.evictions(),
            cache.oversize_bypasses(),
        );
    }
    println!(
        "drain: {:?} elapsed, {} queued connections dropped",
        report.elapsed, report.dropped_from_queue
    );
}
