//! Layer replay: per-layer numbers measured from outside, by calling each
//! layer's public entry point over the workload's own requests and timing
//! the call. For every replayed request there is a span for the whole
//! pipeline as the program runs it (`serve`, or the HTTP round trip) and a
//! sibling `replay` span whose children are the same pipeline composed by
//! hand, so the two can be reconciled.
//!
//! Calls that take well under 1 µs are timed per block of [`BLOCK`]
//! consecutive requests (one span with `n = BLOCK`), so the timer does not
//! dominate them.

use std::hint::black_box;
use std::io::Write;
use std::time::Instant;

use sparql_rewrite_core::httpcore::HttpLimits;
use sparql_rewrite_core::{
    fingerprint_query, fingerprint_raw, parse_query_into, read_response, render_query_into,
    CacheConfig, ExecutorConfig, FederatedExecutor, HttpConfig, HttpEndpoint, HttpTransport,
    ParseScratch, PatternNode, QueryFingerprint, QueryRef, RewriteCache, RewriteLimits,
    RewriteScratch, Rewriter, ServeEngine,
};
use sparql_rewrite_server::request::{read_request, RequestScratch};

use crate::stats::median;
use crate::stub::{stub_body, stub_reply, Stub};
use crate::workload::{build_planner, Inputs, SetupTimes, WireRequests, TRACE_SPANS};

pub const BLOCK: usize = 64;

/// One timed interval. `n` is how many calls it covers (1, or [`BLOCK`]).
#[derive(Clone, Copy)]
pub struct Span {
    pub req: u32,
    pub span: &'static str,
    pub parent: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub n: u32,
}

impl Span {
    /// The interval `t0..t1`, as offsets from the run's `epoch`.
    pub fn between(
        epoch: Instant,
        (t0, t1): (Instant, Instant),
        req: usize,
        span: &'static str,
        parent: &'static str,
        n: usize,
    ) -> Span {
        Span {
            req: req as u32,
            span,
            parent,
            start_ns: (t0 - epoch).as_nanos() as u64,
            end_ns: (t1 - epoch).as_nanos() as u64,
            n: n as u32,
        }
    }
}

pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            w,
            "{{\"req\":{},\"span\":\"{}\",\"parent\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"n\":{}}}",
            s.req, s.span, s.parent, s.start_ns, s.end_ns, s.n
        )?;
    }
    w.flush()
}

/// Collects spans and per-call samples against one epoch.
pub struct Recorder {
    pub epoch: Instant,
    pub spans: Vec<Span>,
}

impl Recorder {
    /// Time `f` as one span covering `n` calls; returns ns per call.
    fn time<R>(
        &mut self,
        req: usize,
        span: &'static str,
        parent: &'static str,
        n: usize,
        f: impl FnOnce() -> R,
    ) -> (f64, R) {
        let t0 = Instant::now();
        let r = f();
        let t1 = Instant::now();
        self.spans
            .push(Span::between(self.epoch, (t0, t1), req, span, parent, n));
        ((t1 - t0).as_nanos() as f64 / n as f64, r)
    }
}

/// The first [`TRACE_SPANS`] requests of the stream, as query indices.
fn replayed(inputs: &Inputs) -> Vec<usize> {
    (0..TRACE_SPANS)
        .map(|pos| inputs.stream[pos % inputs.stream.len()] as usize)
        .collect()
}

/// Medians (ns per call) and mean sizes from replaying the single-store
/// pipeline layer by layer.
#[derive(Default)]
pub struct SingleLayers {
    pub fingerprint_raw_ns: f64,
    pub fingerprint_canon_ns: f64,
    pub lookup_hit_ns: f64,
    pub lookup_miss_ns: f64,
    pub insert_ns: f64,
    pub parse_ns: f64,
    pub rewrite_ns: f64,
    pub render_ns: f64,
    pub serve_ns: f64,
    pub serve_hit_share: f64,
    pub bytes_in: f64,
    pub patterns_in: f64,
    pub patterns_out: f64,
    pub union_branches: f64,
    pub bytes_out: f64,
}

/// Replay `engine`'s pipeline over the workload's requests on one thread.
/// `hot` says the engine's cache holds these requests (serve is a
/// sub-µs hit, timed per block) rather than misses on them.
pub fn replay_single(
    engine: &ServeEngine,
    inputs: &Inputs,
    hot: bool,
    rec: &mut Recorder,
) -> SingleLayers {
    let reqs = replayed(inputs);
    let n = reqs.len() as f64;
    let mut out = SingleLayers::default();

    // Span A: the pipeline as the program runs it.
    let mut scratch = engine.scratch();
    for &idx in &reqs {
        let _ = engine.serve(&inputs.queries[idx], &mut scratch); // warm the interner
    }
    if !hot {
        // The warming pass cached what it served; push it out again with
        // twice the cache's capacity of other requests from the stream.
        let capacity = engine.cache_stats().map_or(0, |s| s.capacity());
        for pos in TRACE_SPANS..TRACE_SPANS + 2 * capacity {
            let idx = inputs.stream[pos % inputs.stream.len()] as usize;
            let _ = engine.serve(&inputs.queries[idx], &mut scratch);
        }
    }
    scratch.reset_cache_counters();
    let mut serve = Vec::new();
    if hot {
        for (b, block) in reqs.chunks(BLOCK).enumerate() {
            let (ns, ()) = rec.time(b * BLOCK, "serve", "", block.len(), || {
                for &idx in block {
                    black_box(engine.serve(&inputs.queries[idx], &mut scratch).is_ok());
                }
            });
            serve.push(ns);
        }
    } else {
        for (r, &idx) in reqs.iter().enumerate() {
            let (ns, _) = rec.time(r, "serve", "", 1, || {
                black_box(engine.serve(&inputs.queries[idx], &mut scratch).is_ok())
            });
            serve.push(ns);
        }
    }
    out.serve_ns = median(&serve);
    out.serve_hit_share = scratch.cache_hits() as f64 / n;

    // Span B: the same pipeline composed by hand from the public entry
    // points, each child timed on its own.
    let mut interner = engine.base_interner().clone();
    let mut parse = ParseScratch::new();
    let mut rewrite = RewriteScratch::new();
    let (mut fresh_base, mut rendered) = (String::new(), String::new());
    // One untimed pass first, so the interner already holds every string.
    for &idx in &reqs {
        parse_query_into(&inputs.queries[idx], &mut interner, &mut parse)
            .expect("workload query parses");
    }
    let (mut parse_ns, mut rewrite_ns, mut render_ns) = (Vec::new(), Vec::new(), Vec::new());
    let mut outputs: Vec<String> = Vec::with_capacity(reqs.len());
    for (r, &idx) in reqs.iter().enumerate() {
        let q = &inputs.queries[idx];
        let t0 = Instant::now();
        let (ns, ()) = rec.time(r, "parser.parse", "replay", 1, || {
            parse_query_into(q, &mut interner, &mut parse).expect("workload query parses");
        });
        parse_ns.push(ns);
        let (ns, ()) = rec.time(r, "rewriter.rewrite", "replay", 1, || {
            engine
                .rewriter()
                .rewrite_ref_into(parse.query_ref(), &mut rewrite);
        });
        rewrite_ns.push(ns);
        let (ns, ()) = rec.time(r, "pattern.render", "replay", 1, || {
            render_query_into(
                QueryRef {
                    select: rewrite.select(),
                    pattern: rewrite.pattern(),
                },
                &interner,
                &mut fresh_base,
                &mut rendered,
            );
        });
        render_ns.push(ns);
        let t1 = Instant::now();
        rec.spans
            .push(Span::between(rec.epoch, (t0, t1), r, "replay", "", 1));
        out.bytes_in += q.len() as f64 / n;
        out.patterns_in += parse.pattern().triples.len() as f64 / n;
        let rewritten = rewrite.pattern();
        out.patterns_out += rewritten.triples.len() as f64 / n;
        for node in &rewritten.nodes {
            if let PatternNode::Union { first } = node {
                out.union_branches += rewritten.children_from(*first).count() as f64 / n;
            }
        }
        out.bytes_out += rendered.len() as f64 / n;
        outputs.push(rendered.clone());
    }
    out.parse_ns = median(&parse_ns);
    out.rewrite_ns = median(&rewrite_ns);
    out.render_ns = median(&render_ns);

    // The sub-µs children, per block.
    let (mut raw, mut canon) = (Vec::new(), Vec::new());
    for (b, block) in reqs.chunks(BLOCK).enumerate() {
        let (ns, ()) = rec.time(
            b * BLOCK,
            "cache.fingerprint_raw",
            "replay",
            block.len(),
            || {
                for &idx in block {
                    black_box(fingerprint_raw(&inputs.queries[idx]));
                }
            },
        );
        raw.push(ns);
        let (ns, ()) = rec.time(
            b * BLOCK,
            "cache.fingerprint_canon",
            "replay",
            block.len(),
            || {
                for &idx in block {
                    black_box(fingerprint_query(&inputs.queries[idx]));
                }
            },
        );
        canon.push(ns);
    }
    out.fingerprint_raw_ns = median(&raw);
    out.fingerprint_canon_ns = median(&canon);

    // Cache probes against a replay-owned cache of the engine's geometry,
    // filled past capacity first so inserts evict, as on `lib_cold`.
    let cache = RewriteCache::new(CacheConfig {
        value_cap: engine
            .cache_value_cap()
            .unwrap_or(CacheConfig::default().value_cap),
        ..CacheConfig::default()
    });
    let key = |i: usize| {
        let h = (i as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        QueryFingerprint::from_parts(h ^ (h >> 29), 64)
    };
    let gen = 1;
    let fill = cache.capacity() * 2;
    for i in 0..fill {
        cache.insert(key(i), gen, outputs[i % outputs.len()].as_bytes());
    }
    let (mut insert, mut hit, mut miss) = (Vec::new(), Vec::new(), Vec::new());
    let mut buf = Vec::with_capacity(cache.value_cap());
    for (b, block) in outputs.chunks(BLOCK).enumerate() {
        let base = fill + b * BLOCK;
        let (ns, ()) = rec.time(b * BLOCK, "cache.insert", "replay", block.len(), || {
            for (i, value) in block.iter().enumerate() {
                cache.insert(key(base + i), gen, value.as_bytes());
            }
        });
        insert.push(ns);
        let (ns, ()) = rec.time(b * BLOCK, "cache.lookup_hit", "replay", block.len(), || {
            for i in 0..block.len() {
                black_box(cache.lookup(key(base + i), gen, &mut buf));
            }
        });
        hit.push(ns);
        // Keys far past anything inserted: guaranteed absent.
        let (ns, ()) = rec.time(
            b * BLOCK,
            "cache.lookup_miss",
            "replay",
            block.len(),
            || {
                for i in 0..block.len() {
                    black_box(cache.lookup(key(usize::MAX / 2 + base + i), gen, &mut buf));
                }
            },
        );
        miss.push(ns);
    }
    out.insert_ns = median(&insert);
    out.lookup_hit_ns = median(&hit);
    out.lookup_miss_ns = median(&miss);
    out
}

/// `request::read_request` over the exact request bytes, in memory.
/// Returns `(get_ns, post_ns)` medians.
pub fn replay_read_request(inputs: &Inputs, wire: &WireRequests, rec: &mut Recorder) -> (f64, f64) {
    let limits = HttpLimits::default();
    let mut scratch = RequestScratch::new();
    let mut medians = [0.0; 2];
    let reqs = replayed(inputs);
    for (m, (name, requests)) in [
        ("server.read_request_get", &wire.get),
        ("server.read_request_post", &wire.post),
    ]
    .into_iter()
    .enumerate()
    {
        let mut samples = Vec::new();
        for (r, &idx) in reqs.iter().enumerate() {
            let mut bytes = &requests[idx][..];
            let (ns, ok) = rec.time(r, name, "replay", 1, || {
                read_request(&mut bytes, &limits, b"/sparql", &mut scratch).is_ok()
            });
            assert!(ok, "generated request does not frame");
            samples.push(ns);
        }
        medians[m] = median(&samples);
    }
    (medians[0], medians[1])
}

#[derive(Default)]
pub struct FedLayers {
    pub parse_ns: f64,
    pub plan_ns: f64,
    pub execute_ns: f64,
    pub read_response_ns: f64,
    pub endpoints_per_query: f64,
    pub partition_cache_hit_ratio: f64,
    pub bytes_in: f64,
    pub patterns_in: f64,
}

/// Replay the federated pipeline — parse, plan, execute over real sockets
/// to the same member stubs — with a replay-owned planner and executor.
pub fn replay_fed(
    inputs: &Inputs,
    stubs: &[Stub],
    rec: &mut Recorder,
) -> Result<FedLayers, String> {
    let (planner, interner) = build_planner(inputs, &mut SetupTimes::default())?;
    let endpoints = stubs
        .iter()
        .map(|s| HttpEndpoint::new(s.authority.clone(), "/sparql"))
        .collect();
    let executor = FederatedExecutor::new(
        HttpTransport::new(endpoints, HttpConfig::default()),
        stubs.len(),
        ExecutorConfig::default(),
    );
    let mut interner = interner;
    let mut parse = ParseScratch::new();
    let reqs = replayed(inputs);
    let n = reqs.len() as f64;
    let mut out = FedLayers::default();
    let (mut parse_ns, mut plan_ns, mut execute_ns) = (Vec::new(), Vec::new(), Vec::new());
    // Two passes: the first warms the interner, the partition cache and the
    // keep-alive pool, as the measured server's were by its own traffic.
    for pass in 0..2 {
        for (r, &idx) in reqs.iter().enumerate() {
            let q = &inputs.queries[idx];
            let t0 = Instant::now();
            let mark = rec.spans.len();
            let (p, ()) = rec.time(r, "parser.parse", "replay", 1, || {
                parse_query_into(q, &mut interner, &mut parse).expect("workload query parses");
            });
            let (pl, plan) = rec.time(r, "federate.plan", "replay", 1, || {
                planner
                    .plan_for_dispatch(parse.query_ref(), &interner, RewriteLimits::default())
                    .expect("workload query plans")
            });
            let (ex, result) = rec.time(r, "federate.execute", "replay", 1, || {
                executor.execute(&plan.endpoints)
            });
            if pass == 0 {
                rec.spans.truncate(mark);
                continue;
            }
            let t1 = Instant::now();
            rec.spans
                .push(Span::between(rec.epoch, (t0, t1), r, "replay", "", 1));
            if !result.is_complete() {
                return Err(format!(
                    "replayed request {r} was not served by every endpoint"
                ));
            }
            parse_ns.push(p);
            plan_ns.push(pl);
            execute_ns.push(ex);
            out.endpoints_per_query += plan.endpoints.len() as f64 / n;
            out.bytes_in += q.len() as f64 / n;
            out.patterns_in += parse.pattern().triples.len() as f64 / n;
        }
    }
    out.parse_ns = median(&parse_ns);
    out.plan_ns = median(&plan_ns);
    out.execute_ns = median(&execute_ns);
    let pc = planner.partition_cache_stats();
    out.partition_cache_hit_ratio = pc.hits as f64 / (pc.hits + pc.misses).max(1) as f64;

    let reply = stub_reply(&stub_body());
    let limits = HttpLimits::default();
    let mut samples = Vec::new();
    for b in 0..reqs.len() / BLOCK {
        let (ns, ()) = rec.time(b * BLOCK, "httpcore.read_response", "replay", BLOCK, || {
            for _ in 0..BLOCK {
                black_box(read_response(&mut &reply[..], &limits).is_ok());
            }
        });
        samples.push(ns);
    }
    out.read_response_ns = median(&samples);
    Ok(out)
}
