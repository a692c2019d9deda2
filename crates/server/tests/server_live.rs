//! Live loopback tests for the HTTP front end: real sockets, real
//! threads, tiny deadlines. Each test spawns its own server on an
//! ephemeral port and talks to it with the shared `httpcore` response
//! reader — the same framing code the federation client uses.

#[allow(dead_code)]
mod common;

use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use common::{assert_sheds_and_drains, test_engine};
use sparql_rewrite_core::httpcore::{read_response, HttpLimits, HttpResponse};
use sparql_rewrite_server::request::RequestError;
use sparql_rewrite_server::{Server, ServerConfig};

fn quick_config() -> ServerConfig {
    ServerConfig {
        workers: 2,
        queue_capacity: 8,
        request_deadline: Duration::from_millis(400),
        keep_alive_idle: Duration::from_millis(400),
        drain_deadline: Duration::from_millis(300),
        ..ServerConfig::default()
    }
}

fn send_and_read(stream: &mut TcpStream, request: &[u8]) -> HttpResponse {
    stream.write_all(request).expect("request write");
    let mut r = BufReader::new(stream.try_clone().expect("clone"));
    read_response(&mut r, &HttpLimits::default()).expect("response parse")
}

const QUERY: &str = "SELECT * WHERE { ?s <http://src.example.org/onto/p> ?o }";

#[test]
fn get_and_post_round_trip_with_rewriting() {
    let server = Server::spawn(test_engine(), quick_config(), "127.0.0.1:0").expect("spawn");
    let addr = server.local_addr();

    let mut stream = TcpStream::connect(addr).expect("connect");
    let get = b"GET /sparql?query=SELECT+*+WHERE+%7B+%3Fs+%3Chttp%3A%2F%2Fsrc.example.org%2Fonto%2Fp%3E+%3Fo+%7D HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n";
    let resp = send_and_read(&mut stream, get);
    assert_eq!(resp.status, 200);
    let body = String::from_utf8(resp.body).expect("utf8 body");
    assert!(
        body.contains("http://tgt.example.org/onto/q"),
        "GET response not rewritten: {body}"
    );

    let mut stream = TcpStream::connect(addr).expect("connect");
    let mut post = Vec::new();
    post.extend_from_slice(
        b"POST /sparql HTTP/1.1\r\nContent-Type: application/sparql-query\r\nContent-Length: ",
    );
    post.extend_from_slice(QUERY.len().to_string().as_bytes());
    post.extend_from_slice(b"\r\nConnection: close\r\n\r\n");
    post.extend_from_slice(QUERY.as_bytes());
    let resp2 = send_and_read(&mut stream, &post);
    assert_eq!(resp2.status, 200);
    assert_eq!(
        String::from_utf8(resp2.body).unwrap(),
        body,
        "GET and POST disagree"
    );

    let stats = server.stats();
    assert_eq!(stats.served, 2);
    assert_eq!(stats.panics, 0);
    let report = server.shutdown();
    assert_eq!(report.dropped_from_queue, 0);
}

#[test]
fn keep_alive_serves_many_and_survives_unparseable_queries() {
    let server = Server::spawn(test_engine(), quick_config(), "127.0.0.1:0").expect("spawn");
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");

    let good =
        b"GET /sparql?query=SELECT+*+WHERE+%7B+%3Fs+%3Fp+%3Fo+%7D HTTP/1.1\r\nHost: t\r\n\r\n";
    let bad_sparql = b"GET /sparql?query=SELECT+WHERE+%7B HTTP/1.1\r\nHost: t\r\n\r\n";
    // good → bad SPARQL (400, connection kept) → good again, same socket.
    let r1 = send_and_read(&mut stream, good);
    assert_eq!(r1.status, 200);
    let r2 = send_and_read(&mut stream, bad_sparql);
    assert_eq!(r2.status, 400);
    assert!(!r2.close, "SPARQL parse failure must keep the connection");
    let r3 = send_and_read(&mut stream, good);
    assert_eq!(r3.status, 200);

    let stats = server.stats();
    assert_eq!(stats.served, 2);
    assert_eq!(stats.class(RequestError::QueryUnparseable), 1);
    server.shutdown();
}

#[test]
fn framing_errors_get_structured_statuses_and_close() {
    let server = Server::spawn(test_engine(), quick_config(), "127.0.0.1:0").expect("spawn");
    let addr = server.local_addr();
    let cases: &[(&[u8], u16)] = &[
        (b"GET /nope?query=x HTTP/1.1\r\n\r\n", 404),
        (b"PUT /sparql?query=x HTTP/1.1\r\n\r\n", 405),
        (b"POST /sparql HTTP/1.1\r\n\r\nSELECT", 411),
        (b"bogus nonsense\r\n\r\n", 400),
        (
            b"POST /sparql HTTP/1.1\r\nContent-Type: text/turtle\r\nContent-Length: 1\r\n\r\nx",
            415,
        ),
    ];
    for (req, want_status) in cases {
        let mut stream = TcpStream::connect(addr).expect("connect");
        let resp = send_and_read(&mut stream, req);
        assert_eq!(
            resp.status,
            *want_status,
            "request {:?}",
            String::from_utf8_lossy(req)
        );
        assert!(resp.close, "framing errors must close the connection");
    }
    let stats = server.stats();
    assert_eq!(stats.class(RequestError::NotFound), 1);
    assert_eq!(stats.class(RequestError::MethodNotAllowed), 1);
    assert_eq!(stats.class(RequestError::LengthRequired), 1);
    assert_eq!(stats.class(RequestError::BadRequestLine), 1);
    assert_eq!(stats.class(RequestError::UnsupportedMediaType), 1);
    server.shutdown();
}

/// Two requests far past the parser's depth cap: 20 KB of nested `{`,
/// and a FILTER of 100,000 `&&` operators, which parses in a loop but
/// builds a tree 100,000 levels tall. Each is a `400` on its own
/// connection, not a stack overflow that takes the process down, and the
/// server goes on serving.
#[test]
fn depth_cap_posts_past_the_cap_get_400_and_the_server_lives() {
    let server = Server::spawn(test_engine(), quick_config(), "127.0.0.1:0").expect("spawn");
    let addr = server.local_addr();

    let braces = format!("SELECT * WHERE {}", "{".repeat(20 * 1024));
    let chain = format!(
        "SELECT * WHERE {{ ?s ?p ?o FILTER(?o = ?o{}) }}",
        " && ?o = ?o".repeat(100_000)
    );
    for deep in [&braces, &chain] {
        let mut post = format!(
            "POST /sparql HTTP/1.1\r\nContent-Type: application/sparql-query\r\nContent-Length: {}\r\n\r\n",
            deep.len()
        )
        .into_bytes();
        post.extend_from_slice(deep.as_bytes());
        let mut stream = TcpStream::connect(addr).expect("connect");
        let resp = send_and_read(&mut stream, &post);
        assert_eq!(resp.status, 400, "{}", &deep[..40]);
        assert_eq!(resp.body, b"query_unparseable");
    }

    let mut stream = TcpStream::connect(addr).expect("connect");
    let good = b"GET /sparql?query=SELECT+*+WHERE+%7B+%3Fs+%3Fp+%3Fo+%7D HTTP/1.1\r\nConnection: close\r\n\r\n";
    assert_eq!(send_and_read(&mut stream, good).status, 200);

    let stats = server.stats();
    assert_eq!(stats.class(RequestError::QueryUnparseable), 2);
    assert_eq!(stats.panics, 0);
    server.shutdown();
}

/// Slow loris: a peer that sends half a request and stalls gets `408`
/// once the request deadline expires — the worker is never held longer.
#[test]
fn stalled_request_times_out_with_408() {
    let server = Server::spawn(test_engine(), quick_config(), "127.0.0.1:0").expect("spawn");
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream
        .write_all(b"GET /sparql?query=x HT")
        .expect("partial write");
    let start = Instant::now();
    let mut r = BufReader::new(stream.try_clone().unwrap());
    let resp = read_response(&mut r, &HttpLimits::default()).expect("timeout response");
    let waited = start.elapsed();
    assert_eq!(resp.status, 408);
    assert!(
        waited >= Duration::from_millis(250) && waited < Duration::from_secs(3),
        "408 after {waited:?}, deadline was 400ms"
    );
    assert_eq!(server.stats().class(RequestError::Timeout), 1);
    server.shutdown();
}

/// Queue-full admission control: with every worker blocked and the queue
/// full, a new connection is shed with `503` + `Retry-After` *fast* — the
/// acceptor never waits on workers.
#[test]
fn overload_sheds_with_503_and_retry_after() {
    assert_sheds_and_drains(1, 1, 1);
}

/// An idle server drains essentially instantly.
#[test]
fn clean_shutdown_is_fast_and_drops_nothing() {
    let server = Server::spawn(test_engine(), quick_config(), "127.0.0.1:0").expect("spawn");
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    let good = b"GET /sparql?query=SELECT+*+WHERE+%7B+%3Fs+%3Fp+%3Fo+%7D HTTP/1.1\r\nConnection: close\r\n\r\n";
    assert_eq!(send_and_read(&mut stream, good).status, 200);
    drop(stream);
    let report = server.shutdown();
    assert_eq!(report.dropped_from_queue, 0);
    assert!(
        report.elapsed < report.drain_deadline + Duration::from_millis(200),
        "idle drain took {:?}",
        report.elapsed
    );
}
