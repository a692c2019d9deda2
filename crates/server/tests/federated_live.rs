//! Live loopback tests for federated serving: a real `Server` in
//! federated mode in front of real endpoint sockets. Covers the
//! malformed-federation-config battery (structured startup errors, never
//! a panic), the degraded-mode contract for a wedged endpoint (partial
//! `200` inside the deadline, never a whole-request failure), and the
//! `/healthz` + `/stats` observability surface.

#[allow(dead_code)]
mod common;

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use sparql_rewrite_chaos::{ChaosProxy, ChaosSpec};
use sparql_rewrite_core::{
    parse_query, AlignmentStore, BackoffPolicy, ExecutorConfig, FederationPlanner, HttpConfig,
    Interner, RequestTerms, RewriteLimits, Term, TriplePattern,
};
use sparql_rewrite_server::request::percent_encode_into;
use sparql_rewrite_server::{
    EndpointRoute, FederationConfig, FederationConfigError, Server, ServerConfig, SpawnError,
};

fn quick_config() -> ServerConfig {
    ServerConfig {
        workers: 2,
        queue_capacity: 8,
        request_deadline: Duration::from_secs(2),
        keep_alive_idle: Duration::from_millis(400),
        drain_deadline: Duration::from_millis(300),
        ..ServerConfig::default()
    }
}

fn route(e: usize, authority: &str) -> EndpointRoute {
    EndpointRoute {
        iri: format!("http://ep{e}.example.org/sparql"),
        authority: authority.to_string(),
        path: "/sparql".to_string(),
    }
}

/// `n` endpoints, one predicate rule each: queries over
/// `http://src.example.org/onto/p{e}` dispatch to endpoint `e`.
fn endpoint_config(n: usize, routes: Vec<EndpointRoute>) -> FederationConfig {
    let mut interner = Interner::new();
    let var_s = Term::var(interner.intern("s"));
    let var_o = Term::var(interner.intern("o"));
    let mut planner = FederationPlanner::new();
    for e in 0..n {
        let mut store = AlignmentStore::new();
        let src = Term::iri(interner.intern(&format!("http://src.example.org/onto/p{e}")));
        let tgt = Term::iri(interner.intern(&format!("http://ep{e}.example.org/onto/q")));
        store
            .add_predicate(
                TriplePattern::new(var_s, src, var_o),
                vec![TriplePattern::new(var_s, tgt, var_o)],
            )
            .expect("valid rule");
        let ep = Term::iri(interner.intern(&format!("http://ep{e}.example.org/sparql")));
        planner.add_endpoint(ep, Arc::new(store));
    }
    FederationConfig {
        planner,
        interner,
        routes,
        executor: ExecutorConfig {
            deadline_nanos: 150_000_000,
            backoff: BackoffPolicy::none(),
            ..ExecutorConfig::default()
        },
        http: HttpConfig::default(),
        limits: RewriteLimits::default(),
        record_outcomes: false,
    }
}

#[test]
fn malformed_federation_configs_are_structured_errors() {
    // Zero endpoints (empty planner AND no routes).
    let empty = FederationConfig {
        planner: FederationPlanner::new(),
        interner: Interner::new(),
        routes: Vec::new(),
        executor: ExecutorConfig::default(),
        http: HttpConfig::default(),
        limits: RewriteLimits::default(),
        record_outcomes: false,
    };
    match Server::spawn_federated(empty, quick_config(), "127.0.0.1:0").map(|_| ()) {
        Err(SpawnError::Config(FederationConfigError::NoEndpoints)) => {}
        other => panic!("empty federation: expected NoEndpoints, got {other:?}"),
    }

    // A route naming an IRI the planner never registered.
    let unknown = endpoint_config(
        2,
        vec![
            route(0, "127.0.0.1:1"),
            EndpointRoute {
                iri: "http://nope.example.org/sparql".to_string(),
                authority: "127.0.0.1:1".to_string(),
                path: "/sparql".to_string(),
            },
        ],
    );
    match Server::spawn_federated(unknown, quick_config(), "127.0.0.1:0").map(|_| ()) {
        Err(SpawnError::Config(FederationConfigError::UnknownEndpointIri(iri))) => {
            assert_eq!(iri, "http://nope.example.org/sparql");
        }
        other => panic!("unknown IRI: expected UnknownEndpointIri, got {other:?}"),
    }

    // Two routes for the same endpoint.
    let dup = endpoint_config(
        2,
        vec![
            route(0, "127.0.0.1:1"),
            route(0, "127.0.0.1:2"),
            route(1, "127.0.0.1:3"),
        ],
    );
    match Server::spawn_federated(dup, quick_config(), "127.0.0.1:0").map(|_| ()) {
        Err(SpawnError::Config(FederationConfigError::DuplicateEndpoint(iri))) => {
            assert_eq!(iri, "http://ep0.example.org/sparql");
        }
        other => panic!("duplicate: expected DuplicateEndpoint, got {other:?}"),
    }

    // A planner endpoint left without any route.
    let missing = endpoint_config(2, vec![route(0, "127.0.0.1:1")]);
    match Server::spawn_federated(missing, quick_config(), "127.0.0.1:0").map(|_| ()) {
        Err(SpawnError::Config(FederationConfigError::MissingRoute(iri))) => {
            assert_eq!(iri, "http://ep1.example.org/sparql");
        }
        other => panic!("missing route: expected MissingRoute, got {other:?}"),
    }

    // An endpoint term another interner minted (id 99), and a config
    // interner that never minted it: no route can name it.
    let mut other = Interner::new();
    for i in 0..99 {
        other.intern(&format!("http://filler.example.org/{i}"));
    }
    let foreign = Term::iri(other.intern("http://ep0.example.org/sparql"));
    assert_eq!(foreign.symbol().index(), 99);
    let mut planner = FederationPlanner::new();
    planner.add_endpoint(foreign, Arc::new(AlignmentStore::new()));
    let foreign_config = FederationConfig {
        planner,
        interner: Interner::new(),
        ..endpoint_config(0, vec![route(0, "127.0.0.1:1")])
    };
    match Server::spawn_federated(foreign_config, quick_config(), "127.0.0.1:0").map(|_| ()) {
        Err(SpawnError::Config(FederationConfigError::UnknownEndpointIri(iri))) => {
            assert_eq!(iri, "http://ep0.example.org/sparql");
        }
        other => panic!("foreign endpoint term: expected UnknownEndpointIri, got {other:?}"),
    }

    // An endpoint term taken from a request parse: request-local, so the
    // config interner cannot name it, and no route reaches it.
    let mut local_config = endpoint_config(1, vec![route(0, "127.0.0.1:1")]);
    let mut terms = RequestTerms::new(Arc::new(local_config.interner.clone()));
    let q = "SELECT * WHERE { ?s ?p <http://ep1.example.org/sparql> }";
    let local = parse_query(q, &mut terms).expect("parses").pattern.triples[0].o;
    assert!(local.symbol().is_local());
    local_config
        .planner
        .add_endpoint(local, Arc::new(AlignmentStore::new()));
    match Server::spawn_federated(local_config, quick_config(), "127.0.0.1:0").map(|_| ()) {
        Err(SpawnError::Config(FederationConfigError::MissingRoute(name))) => {
            assert_eq!(name, format!("{local:?}"));
        }
        other => panic!("request-local endpoint term: expected MissingRoute, got {other:?}"),
    }
}

/// An endpoint that accepts connections and then never sends a byte.
/// Accepted sockets are held so the peer sees a stall, not a reset.
fn wedged_endpoint() -> String {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind wedged endpoint");
    let authority = format!("127.0.0.1:{}", listener.local_addr().unwrap().port());
    std::thread::spawn(move || {
        let mut held = Vec::new();
        while let Ok((s, _)) = listener.accept() {
            held.push(s);
        }
    });
    authority
}

/// `GET /sparql?query=…` for `query`, closing the connection after the
/// response.
fn get_request(query: &str) -> Vec<u8> {
    let mut req = Vec::new();
    req.extend_from_slice(b"GET /sparql?query=");
    percent_encode_into(query, &mut req);
    req.extend_from_slice(b" HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n");
    req
}

#[test]
fn wedged_endpoint_yields_partial_200_within_deadline() {
    let healthy = ChaosProxy::spawn(0xfeed, ChaosSpec::default()).expect("healthy endpoint");
    let wedged = wedged_endpoint();
    let fed = endpoint_config(2, vec![route(0, &healthy.authority()), route(1, &wedged)]);
    let config = quick_config();
    let request_deadline = config.request_deadline;
    let server = Server::spawn_federated(fed, config, "127.0.0.1:0").expect("spawn federated");

    let query = "SELECT * WHERE { ?s <http://src.example.org/onto/p0> ?o . \
                 ?s <http://src.example.org/onto/p1> ?o }";
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream
        .write_all(&get_request(query))
        .expect("request write");
    let t0 = Instant::now();
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("response read");
    let elapsed = t0.elapsed();
    let text = String::from_utf8_lossy(&raw).into_owned();

    assert!(
        text.starts_with("HTTP/1.1 200 OK\r\n"),
        "a wedged endpoint must degrade to a partial 200, got: {text}"
    );
    assert!(
        text.contains("X-Endpoint-Status: "),
        "partial responses must carry per-endpoint detail: {text}"
    );
    assert!(text.contains("ep1=timed-out"), "detail header: {text}");
    assert!(text.contains("ep0=served"), "detail header: {text}");
    assert!(text.contains("\"partial\":true"), "envelope: {text}");
    assert!(
        elapsed < request_deadline,
        "partial response took {elapsed:?}, request deadline {request_deadline:?}"
    );

    let fstats = server.federation_stats().expect("federated mode");
    assert_eq!(fstats.partial_responses, 1);
    assert_eq!(fstats.outcomes[0], 1, "one served endpoint");
    assert_eq!(fstats.outcomes[1], 1, "one timed-out endpoint");
    assert_eq!(fstats.deadline_breaches, 0);
    server.shutdown();
}

/// Every member serves, but none evaluates the FILTER or the projection:
/// the envelope stays `"partial":false`, which is about member failures,
/// and counts both in `residual_patterns`.
#[test]
fn envelope_counts_what_no_member_evaluates() {
    let healthy = ChaosProxy::spawn(0x2e51, ChaosSpec::default()).expect("healthy endpoint");
    let fed = endpoint_config(1, vec![route(0, &healthy.authority())]);
    let server = Server::spawn_federated(fed, quick_config(), "127.0.0.1:0").expect("spawn");

    let query = "SELECT ?s WHERE { ?s <http://src.example.org/onto/p0> ?o FILTER(?o = 1) }";
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream
        .write_all(&get_request(query))
        .expect("request write");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("response read");
    let text = String::from_utf8_lossy(&raw).into_owned();
    server.shutdown();

    assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
    assert!(
        text.contains("\r\n\r\n{\"partial\":false,\"residual_patterns\":2,"),
        "envelope: {text}"
    );
}

#[test]
fn health_and_stats_surface_is_read_only() {
    let healthy = ChaosProxy::spawn(0x900d, ChaosSpec::default()).expect("healthy endpoint");
    let wedged = wedged_endpoint();
    let fed = endpoint_config(2, vec![route(0, &healthy.authority()), route(1, &wedged)]);
    let server = Server::spawn_federated(fed, quick_config(), "127.0.0.1:0").expect("spawn");
    let addr = server.local_addr();

    let send = |req: &[u8]| -> String {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.write_all(req).expect("write");
        let mut raw = Vec::new();
        stream.read_to_end(&mut raw).expect("read");
        String::from_utf8_lossy(&raw).into_owned()
    };

    let health = send(b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n");
    assert!(health.starts_with("HTTP/1.1 200 OK\r\n"), "{health}");
    assert!(health.ends_with("ok\n"), "{health}");

    let stats = send(b"GET /stats HTTP/1.1\r\nConnection: close\r\n\r\n");
    assert!(stats.starts_with("HTTP/1.1 200 OK\r\n"), "{stats}");
    for key in [
        "\"accepted\":",
        "\"errors\":{",
        "\"drain\":{",
        "\"latency_nanos\":{",
        "\"federation\":{",
        "\"breakers\":[",
        "\"dropped_from_queue\":",
    ] {
        assert!(stats.contains(key), "missing {key} in /stats: {stats}");
    }

    let post = send(b"POST /stats HTTP/1.1\r\nContent-Length: 3\r\nConnection: close\r\n\r\nabc");
    assert!(
        post.starts_with("HTTP/1.1 405 Method Not Allowed\r\n"),
        "observability surface must be read-only: {post}"
    );
    server.shutdown();
}

/// `s` with every run of ASCII digits replaced by `N`: what stays is the
/// key order, nesting and non-numeric values of a JSON document.
fn skeleton(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut in_digits = false;
    for c in s.chars() {
        if c.is_ascii_digit() {
            if !in_digits {
                out.push('N');
            }
            in_digits = true;
        } else {
            out.push(c);
            in_digits = false;
        }
    }
    out
}

/// `GET /stats` body, read to EOF on a fresh connection.
fn stats_body(addr: std::net::SocketAddr) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .write_all(b"GET /stats HTTP/1.1\r\nConnection: close\r\n\r\n")
        .expect("write");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read");
    let text = String::from_utf8(raw).expect("utf8 response");
    assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
    let (_, body) = text.split_once("\r\n\r\n").expect("header/body split");
    body.to_string()
}

const SINGLE_STATS_SKELETON: &str = concat!(
    r#"{"accepted":N,"shed":N,"served":N,"worker_panics":N,"idle_closes":N,"queue_depth":N,"queue_capacity":N,"in_flight":N"#,
    r#","errors":{"bad_request_line":N,"bad_header":N,"headers_too_large":N,"body_too_large":N,"invalid_content_length":N,"invalid_chunk":N,"length_required":N,"method_not_allowed":N,"unsupported_media_type":N,"not_found":N,"missing_query":N,"bad_encoding":N,"query_unparseable":N,"timeout":N,"closed":N}"#,
    r#","drain":{"draining":false,"dropped_from_queue":N,"drain_deadline_ms":N,"request_deadline_ms":N}"#,
    r#","latency_nanos":{"bin_lower":[N,N,N,N,N,N,N,N,N,N,N,N,N,N,N,N,N,N,N,N,N,N],"query":[N,N,N,N,N,N,N,N,N,N,N,N,N,N,N,N,N,N,N,N,N,N],"healthz":[N,N,N,N,N,N,N,N,N,N,N,N,N,N,N,N,N,N,N,N,N,N],"stats":[N,N,N,N,N,N,N,N,N,N,N,N,N,N,N,N,N,N,N,N,N,N]}"#,
    r#","cache":{"occupancy":N,"capacity":N,"hits":N,"misses":N,"evictions":N,"oversize_bypasses":N,"value_cap":N}}"#,
);

const FEDERATED_STATS_SKELETON: &str = concat!(
    r#"{"accepted":N,"shed":N,"served":N,"worker_panics":N,"idle_closes":N,"queue_depth":N,"queue_capacity":N,"in_flight":N"#,
    r#","errors":{"bad_request_line":N,"bad_header":N,"headers_too_large":N,"body_too_large":N,"invalid_content_length":N,"invalid_chunk":N,"length_required":N,"method_not_allowed":N,"unsupported_media_type":N,"not_found":N,"missing_query":N,"bad_encoding":N,"query_unparseable":N,"timeout":N,"closed":N}"#,
    r#","drain":{"draining":false,"dropped_from_queue":N,"drain_deadline_ms":N,"request_deadline_ms":N}"#,
    r#","latency_nanos":{"bin_lower":[N,N,N,N,N,N,N,N,N,N,N,N,N,N,N,N,N,N,N,N,N,N],"query":[N,N,N,N,N,N,N,N,N,N,N,N,N,N,N,N,N,N,N,N,N,N],"healthz":[N,N,N,N,N,N,N,N,N,N,N,N,N,N,N,N,N,N,N,N,N,N],"stats":[N,N,N,N,N,N,N,N,N,N,N,N,N,N,N,N,N,N,N,N,N,N]}"#,
    r#","federation":{"complete":N,"partial":N,"gateway_N":N,"gateway_N":N,"deadline_breaches":N,"transport_panics":N,"reused_connections":N,"transparent_reconnects":N,"outcomes":{"served":N,"timed-out":N,"circuit-open":N,"retries-exhausted":N},"breakers":["Closed","Closed"]}}"#,
);

#[test]
fn stats_json_skeleton_is_pinned_in_both_modes() {
    let single = Server::spawn(common::test_engine(), quick_config(), "127.0.0.1:0")
        .expect("spawn single-store");
    let body = stats_body(single.local_addr());
    single.shutdown();
    assert_eq!(
        skeleton(&body),
        SINGLE_STATS_SKELETON,
        "single-store /stats: {body}"
    );

    let healthy = ChaosProxy::spawn(0x57a7, ChaosSpec::default()).expect("healthy endpoint");
    let fed = endpoint_config(
        2,
        vec![
            route(0, &healthy.authority()),
            route(1, &healthy.authority()),
        ],
    );
    let federated = Server::spawn_federated(fed, quick_config(), "127.0.0.1:0").expect("spawn");
    let body = stats_body(federated.local_addr());
    federated.shutdown();
    assert_eq!(
        skeleton(&body),
        FEDERATED_STATS_SKELETON,
        "federated /stats: {body}"
    );
}
