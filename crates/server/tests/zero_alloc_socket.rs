//! `server/cached/zipf`: a cached hit served through the real socket makes
//! no heap allocation anywhere in the process — client write, server
//! parse/serve/render, client read.
//!
//! This binary must hold exactly one `#[test]`. The window reads the
//! process-global `counting_alloc::allocation_count()`, because its work
//! crosses the client thread and the server's worker thread, so anything
//! else running in the process is counted too. Sharing the binary with the
//! generator's unit tests turned this test red in 1 of 30 runs (1.09
//! allocations/request, 2-vCPU host); alone it reads 0.

#[allow(dead_code)]
mod common;

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use common::workload::{
    alias_prefix, generate, perturb_whitespace, zipf_ranks, Rng, WorkloadSpec, ZipfSpec,
};
use sparql_rewrite_chaos::counting_alloc::{allocation_count, CountingAllocator};
use sparql_rewrite_core::{CacheConfig, Interner, ServeEngine};
use sparql_rewrite_server::request::percent_encode_into;
use sparql_rewrite_server::{Server, ServerConfig};

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

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

/// A healthy keep-alive GET request for `query`.
fn render_get(query: &str) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(b"GET /sparql?query=");
    percent_encode_into(query, &mut out);
    out.extend_from_slice(b" HTTP/1.1\r\nHost: bench\r\n\r\n");
    out
}

/// A single-worker server fronting the default cache, driven by one
/// keep-alive connection replaying a Zipfian stream of re-spelled repeats
/// from pre-rendered request bytes. Fails on any allocation per request in
/// the measured window, a non-200, a measured hit rate under 0.9, or an
/// oversize cache bypass.
#[test]
fn server_cached_zipf() {
    let spec = WorkloadSpec {
        n_rules: 1_000,
        patterns_per_query: 8,
        n_queries: 64,
        seed: 0x5e12_ed0c_ac4e,
        group_shapes: false,
    };
    let mut w = generate(&spec);
    let distinct = w.query_texts();
    let engine = Arc::new(ServeEngine::with_cache(
        std::mem::take(&mut w.store),
        std::mem::replace(&mut w.interner, Interner::new()),
        Some(CacheConfig::default()),
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
            [
                t.clone(),
                perturb_whitespace(t, &mut rng),
                alias_prefix(t, "s", "http://src.example.org/onto/"),
            ]
            .map(|s| render_get(&s))
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

    assert!(
        allocs == 0,
        "server socket path allocated ({:.4} allocs/request, expected 0 across \
         client write, server parse/serve/render, client read)",
        allocs as f64 / n_requests as f64
    );
    assert!(served_all, "a healthy cached request was not answered 200");
    let d_hits = stats_after.hits() - stats_before.hits();
    let d_misses = stats_after.misses() - stats_before.misses();
    let hit_rate = d_hits as f64 / (d_hits + d_misses).max(1) as f64;
    assert!(
        hit_rate >= 0.9,
        "server cached hit rate {hit_rate:.3} < 0.9 over the measured window"
    );
    let bypasses = stats_after.oversize_bypasses();
    assert!(
        bypasses == 0,
        "{bypasses} oversize cache bypasses under the default value cap"
    );
}
