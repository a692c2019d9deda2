//! One round of one workload, in a process of its own (the runner re-execs
//! itself as `benchmark round …`): calibrate, generate inputs, set up,
//! verify, warm up, measure, and print one JSON object of numbers.
//! A fresh process per round gives every set-up a clean heap, so
//! `setup_rss_mb` is the same measurement every time.

use std::hint::black_box;
use std::path::{Path as FsPath, PathBuf};
use std::sync::{Barrier, OnceLock};
use std::time::{Duration, Instant};

use sparql_rewrite_core::ServeEngine;
use sparql_rewrite_server::{FederationStats, Server, StatsSnapshot};

use crate::check::{check_cases, verify};
use crate::spec::PER_LAYER;
use crate::stats::{cv, median, percentile_sorted};
use crate::stub::Stub;
use crate::trace::{replay_fed, replay_read_request, replay_single, write_spans, Recorder};
use crate::workload::{
    drive, generate, generator_threads, kind_of, pin_to_one_cpu, setup_fed, setup_single, Inputs,
    Kind, LibPath, LoopSpec, Path, SocketPath, Sut, ThreadResult, WireRequests, LIB_BATCH,
};

pub struct RoundArgs {
    pub workload: String,
    pub seed: u64,
    pub warm: Duration,
    pub measure: Duration,
    pub trace: bool,
    /// First round of a run: also push the hand-written cases through and
    /// re-parse every response.
    pub first: bool,
    pub bench_dir: PathBuf,
}

/// `name → number` pairs, printed as one JSON object.
#[derive(Default)]
pub struct Numbers(Vec<(String, f64)>);

impl Numbers {
    pub fn set(&mut self, name: &str, value: f64) {
        self.0.push((name.to_string(), value));
    }

    fn to_json(&self, digest: u64) -> String {
        let mut out = format!("{{\"digest\":\"{digest:016x}\"");
        for (name, value) in &self.0 {
            if value.is_finite() {
                out.push_str(&format!(",\"{name}\":{value:?}"));
            } else {
                out.push_str(&format!(",\"{name}\":null"));
            }
        }
        out.push('}');
        out
    }
}

/// A fixed integer spin, timed: the noise guard's probe of how fast this
/// host is running right now.
fn calibrate() -> f64 {
    let t0 = Instant::now();
    let mut x = 1u64;
    for i in 0..50_000_000u64 {
        // `black_box` keeps the chain serial: one multiply-add per turn.
        x = black_box(x)
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(i);
    }
    t0.elapsed().as_nanos() as f64
}

fn rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Counters the program keeps, read before and after a window.
#[derive(Default)]
struct Counters {
    probe_hits: u64,
    probe_misses: u64,
    evictions: u64,
    bypasses: u64,
    resizes: u64,
    server: StatsSnapshot,
    fed: FederationStats,
}

fn snapshot(engine: Option<&ServeEngine>, server: Option<&Server>) -> Counters {
    let mut c = Counters::default();
    if let Some(stats) = engine.and_then(ServeEngine::cache_stats) {
        c.probe_hits = stats.hits();
        c.probe_misses = stats.misses();
        c.evictions = stats.evictions();
        c.bypasses = stats.oversize_bypasses();
    }
    if let Some(engine) = engine {
        let (grows, shrinks) = engine.cache_resizes();
        c.resizes = grows + shrinks;
    }
    if let Some(server) = server {
        c.server = server.stats();
        c.fed = server.federation_stats().unwrap_or_default();
    }
    c
}

fn run_loop<P: Path + Send>(
    paths: &mut [P],
    spec: &LoopSpec,
    on_start: &(dyn Fn() + Sync),
) -> Vec<ThreadResult> {
    assert_eq!(paths.len(), spec.threads);
    let barrier = Barrier::new(paths.len());
    std::thread::scope(|s| {
        let handles: Vec<_> = paths
            .iter_mut()
            .enumerate()
            .map(|(k, path)| {
                let barrier = &barrier;
                s.spawn(move || drive(path, k, spec, barrier, on_start))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("generator thread panicked"))
            .collect()
    })
}

/// Set-ups per round (`setup_s` is their median): at least 3, and for a
/// set-up of a few tens of ms — where one page-fault storm or preemption
/// is a large share — up to 9, while they fit in the budget.
const SETUP_REPEATS: std::ops::RangeInclusive<usize> = 3..=9;
const SETUP_BUDGET_S: f64 = 0.4;

/// Windows with fewer samples are dropped from the per-window percentiles.
const MIN_WINDOW_SAMPLES: usize = 1_000;

struct Summary {
    throughput_rps: f64,
    p50_us: f64,
    p99_us: f64,
    samples: usize,
    attempted: u64,
    failed: u64,
    window_rps_cv: f64,
    allocs_per_request: f64,
}

/// Percentiles are taken per 1-s window and the median over windows is
/// reported, so one noisy-neighbour burst cannot set the tail.
fn summarize(results: &[ThreadResult], batch: usize) -> Summary {
    let n_windows = results.iter().map(|r| r.windows.len()).max().unwrap_or(0);
    let (mut p50s, mut p99s, mut window_counts) = (Vec::new(), Vec::new(), Vec::new());
    let mut all: Vec<u32> = Vec::new();
    for w in 0..n_windows {
        let mut merged: Vec<u32> = results
            .iter()
            .filter_map(|r| r.windows.get(w))
            .flatten()
            .copied()
            .collect();
        window_counts.push(merged.len() as f64);
        all.extend_from_slice(&merged);
        if merged.len() >= MIN_WINDOW_SAMPLES {
            merged.sort_unstable();
            p50s.push(percentile_sorted(&merged, 50.0));
            p99s.push(percentile_sorted(&merged, 99.0));
        }
    }
    if p50s.is_empty() {
        all.sort_unstable();
        p50s.push(percentile_sorted(&all, 50.0));
        p99s.push(percentile_sorted(&all, 99.0));
    }
    let per_request_us = |ns: f64| ns / batch as f64 / 1000.0;
    let attempted: u64 = results.iter().map(|r| r.attempted).sum();
    let failed: u64 = results.iter().map(|r| r.failed).sum();
    Summary {
        throughput_rps: results
            .iter()
            .map(|r| (r.attempted - r.failed) as f64 / r.elapsed_s)
            .sum(),
        p50_us: per_request_us(median(&p50s)),
        p99_us: per_request_us(median(&p99s)),
        samples: all.len(),
        attempted,
        failed,
        window_rps_cv: cv(&window_counts),
        allocs_per_request: results.iter().map(|r| r.allocs).sum::<u64>() as f64
            / attempted.max(1) as f64,
    }
}

fn p50_us(samples: impl Iterator<Item = u32>) -> f64 {
    let mut v: Vec<u32> = samples.collect();
    if v.is_empty() {
        return 0.0;
    }
    v.sort_unstable();
    percentile_sorted(&v, 50.0) / 1000.0
}

/// What the generic (path-independent) part of a round produced.
struct Measured {
    digest: u64,
    /// Mean bytes per response on the wire over the stream (0 in process).
    response_bytes: f64,
    e2e: Summary,
    /// Counter deltas over the untraced window.
    before: Counters,
    after: Counters,
    /// `Some` on a traced round.
    traced: Option<TracedLoops>,
}

struct TracedLoops {
    traced: Summary,
    /// In-process workloads only.
    one_thread: Option<Summary>,
    get_p50_us: f64,
    post_p50_us: f64,
    spans: Vec<crate::trace::Span>,
}

struct Env<'a> {
    args: &'a RoundArgs,
    inputs: &'a Inputs,
    kind: Kind,
    engine: Option<&'a ServeEngine>,
    server: Option<&'a Server>,
    epoch: Instant,
}

fn measure<P: Path + Send>(
    paths: &mut [P],
    env: &Env,
    out: &mut Numbers,
) -> Result<Measured, String> {
    let verified = verify(&mut paths[0], env.inputs, env.kind, env.args.first)?;
    out.set("distinct_requests", env.inputs.queries.len() as f64);
    out.set("reparsed", verified.reparsed as f64);
    let in_process = env.kind == Kind::Lib;
    let batch = if in_process { LIB_BATCH } else { 1 };
    let spec = LoopSpec {
        stream: &env.inputs.stream,
        expected_len: &verified.expected_len,
        threads: paths.len(),
        batch,
        warm: env.args.warm,
        measure: env.args.measure,
        trace: None,
        span_name: if in_process { "serve" } else { "roundtrip" },
        split_methods: !in_process,
    };
    let before = OnceLock::new();
    let results = run_loop(paths, &spec, &|| {
        let _ = before.set(snapshot(env.engine, env.server));
    });
    let mut after = snapshot(env.engine, env.server);
    let before = before.into_inner().expect("thread 0 ran on_start");
    // In process the per-thread scratch counters are exact per serve; the
    // cache's own counters count probes (two per cold serve).
    if let Some((hits, misses)) = results
        .iter()
        .map(|r| r.cache)
        .try_fold((0, 0), |(h, m), c| c.map(|(ch, cm)| (h + ch, m + cm)))
    {
        after.probe_hits = before.probe_hits + hits;
        after.probe_misses = before.probe_misses + misses;
    }
    let e2e = summarize(&results, batch);
    let traced = if env.args.trace {
        let short_warm = Duration::from_millis(200);
        let mut traced = run_loop(
            paths,
            &LoopSpec {
                batch: 1,
                warm: short_warm,
                trace: Some(env.epoch),
                ..spec
            },
            &|| {},
        );
        // Contention is an in-process question: one thread, same loop.
        let one_thread = in_process.then(|| {
            let results = run_loop(
                &mut paths[..1],
                &LoopSpec {
                    threads: 1,
                    warm: short_warm,
                    measure: env.args.measure / 4,
                    ..spec
                },
                &|| {},
            );
            summarize(&results, batch)
        });
        Some(TracedLoops {
            get_p50_us: p50_us(traced.iter().flat_map(|r| r.get_ns.iter().copied())),
            post_p50_us: p50_us(traced.iter().flat_map(|r| r.post_ns.iter().copied())),
            spans: traced
                .iter_mut()
                .flat_map(|r| std::mem::take(&mut r.spans))
                .collect(),
            traced: summarize(&traced, 1),
            one_thread,
        })
    } else {
        None
    };
    Ok(Measured {
        digest: verified.digest,
        response_bytes: mean_len(env.inputs, |i| verified.wire_len[i] as usize),
        e2e,
        before,
        after,
        traced,
    })
}

pub fn run(args: &RoundArgs) -> Result<String, String> {
    let kind =
        kind_of(&args.workload).ok_or_else(|| format!("unknown workload {:?}", args.workload))?;
    let mut out = Numbers::default();
    if kind == Kind::Fed {
        out.set("pinned", f64::from(u8::from(pin_to_one_cpu())));
    }
    let t = generator_threads();
    out.set("threads", t as f64);
    out.set("client.calibration_ns", calibrate());
    if args.first {
        let text = std::fs::read_to_string(args.bench_dir.join("expected/cases.txt"))
            .map_err(|e| format!("expected/cases.txt: {e}"))?;
        out.set("cases_checked", check_cases(&text, kind)? as f64);
    }
    let inputs = generate(&args.workload, args.seed);
    let wire = (kind != Kind::Lib).then(|| WireRequests::new(&inputs.queries));
    let stubs: Vec<Stub> = if kind == Kind::Fed {
        (0..inputs.rules.len())
            .map(|_| Stub::spawn(false).map_err(|e| format!("stub: {e}")))
            .collect::<Result<_, _>>()?
    } else {
        Vec::new()
    };

    // Set up several times and keep the last: memory is read around the
    // first (clean heap), time is the median of all.
    let rss_before = rss_mb();
    let mut setup_s = Vec::new();
    let (sut, times) = loop {
        let (sut, times) = match kind {
            Kind::Lib => setup_single(&inputs, t, false, args.trace)?,
            Kind::Http => setup_single(&inputs, t, true, args.trace)?,
            Kind::Fed => setup_fed(&inputs, &stubs, t, args.trace)?,
        };
        if setup_s.is_empty() {
            out.set("setup_rss_mb", rss_mb() - rss_before);
        }
        setup_s.push(times.total_s);
        let enough = setup_s.len() >= *SETUP_REPEATS.start()
            && setup_s.iter().sum::<f64>() >= SETUP_BUDGET_S;
        if enough || setup_s.len() == *SETUP_REPEATS.end() {
            break (sut, times);
        }
        if let Sut::Socket { server, clients } = sut {
            // Closed connections first, so no worker sits out an idle wait.
            drop(clients);
            server.shutdown();
        }
    };
    out.set("setup_s", median(&setup_s));
    out.set("setup_repeats", setup_s.len() as f64);

    let epoch = Instant::now();
    let mut rec = Recorder {
        epoch,
        spans: Vec::new(),
    };
    let mut layers = Numbers::default();
    let mut measured = match sut {
        Sut::Lib { engine, scratches } => {
            let mut paths: Vec<LibPath> = scratches
                .into_iter()
                .map(|scratch| LibPath {
                    engine: &engine,
                    scratch,
                    queries: &inputs.queries,
                })
                .collect();
            let env = Env {
                args,
                inputs: &inputs,
                kind,
                engine: Some(&engine),
                server: None,
                epoch,
            };
            let m = measure(&mut paths, &env, &mut out)?;
            if args.trace {
                let hot = args.workload != "lib_cold";
                single_layers(&engine, &inputs, hot, &mut rec, &mut layers);
            }
            m
        }
        Sut::Socket { server, clients } => {
            let wire = wire.as_ref().expect("socket workloads pre-render requests");
            let mut paths: Vec<SocketPath> = clients
                .into_iter()
                .map(|client| SocketPath {
                    client,
                    wire,
                    require_complete: kind == Kind::Fed,
                    last_wire_len: 0,
                })
                .collect();
            let env = Env {
                args,
                inputs: &inputs,
                kind,
                engine: server.engine().map(|e| &**e),
                server: Some(&server),
                epoch,
            };
            let m = measure(&mut paths, &env, &mut out)?;
            drop(paths);
            if args.trace {
                let request_bytes =
                    mean_len(&inputs, |i| (wire.get[i].len() + wire.post[i].len()) / 2);
                layers.set("server.request_bytes", request_bytes);
                layers.set("server.response_bytes", m.response_bytes);
                if let Some(engine) = server.engine() {
                    let serve_hit_ns = single_layers(engine, &inputs, true, &mut rec, &mut layers);
                    let (get_ns, post_ns) = replay_read_request(&inputs, wire, &mut rec);
                    layers.set("server.read_request_get_ns", get_ns);
                    layers.set("server.read_request_post_ns", post_ns);
                    layers.set(
                        "server.socket_self_ns",
                        m.e2e.p50_us * 1000.0 - serve_hit_ns - (get_ns + post_ns) / 2.0,
                    );
                }
            }
            server.shutdown();
            if args.trace && kind == Kind::Fed {
                let fed = replay_fed(&inputs, &stubs, &mut rec)?;
                layers.set("parser.parse_ns", fed.parse_ns);
                layers.set("parser.bytes_in", fed.bytes_in);
                layers.set("parser.patterns_in", fed.patterns_in);
                layers.set("federate.plan_ns", fed.plan_ns);
                layers.set("federate.execute_ns", fed.execute_ns);
                layers.set("federate.endpoints_per_query", fed.endpoints_per_query);
                layers.set(
                    "federate.partition_cache_hit_ratio",
                    fed.partition_cache_hit_ratio,
                );
                layers.set("httpcore.read_response_ns", fed.read_response_ns);
                layers.set(
                    "federate.self_ns",
                    m.e2e.p50_us * 1000.0 - fed.parse_ns - fed.plan_ns - fed.execute_ns,
                );
            }
            m
        }
    };
    for stub in stubs {
        stub.shutdown();
    }

    let traced = measured.traced.take();
    let e = &measured.e2e;
    out.set("throughput_rps", e.throughput_rps);
    out.set("latency_p50_us", e.p50_us);
    out.set("latency_p99_us", e.p99_us);
    out.set("attempted", e.attempted as f64);
    out.set("failed", e.failed as f64);
    out.set("samples", e.samples as f64);
    out.set("client.window_rps_cv", e.window_rps_cv);

    if let Some(traced) = traced {
        let (b, a) = (&measured.before, &measured.after);
        out.set("align.load_s", times.align_load_s);
        out.set("align.dense_index_s", times.dense_index_s);
        out.set("align.rules", times.rules as f64);
        out.set("interner.symbols", times.symbols as f64);
        out.set("engine.scratch_s", times.scratch_s);
        let (hits, misses) = (a.probe_hits - b.probe_hits, a.probe_misses - b.probe_misses);
        out.set(
            "cache.hit_ratio",
            hits as f64 / (hits + misses).max(1) as f64,
        );
        out.set("cache.evictions", (a.evictions - b.evictions) as f64);
        // A resize swaps in a fresh cache whose bypass counter restarts.
        out.set(
            "cache.oversize_bypasses",
            a.bypasses.saturating_sub(b.bypasses) as f64,
        );
        out.set("cache.resizes", (a.resizes - b.resizes) as f64);
        if let Some(one_thread) = &traced.one_thread {
            out.set("engine.contention_ratio", e.p50_us / one_thread.p50_us);
            out.set("engine.allocs_per_serve", one_thread.allocs_per_request);
        } else {
            out.set("client.get_p50_us", traced.get_p50_us);
            out.set("client.post_p50_us", traced.post_p50_us);
        }
        let (sb, sa) = (&b.server, &a.server);
        out.set("server.accepted", (sa.accepted - sb.accepted) as f64);
        out.set("server.served", (sa.served - sb.served) as f64);
        out.set("server.shed", (sa.shed - sb.shed) as f64);
        out.set(
            "server.errors_total",
            (sa.errors_total() - sb.errors_total()) as f64,
        );
        out.set(
            "server.idle_closes",
            (sa.idle_closes - sb.idle_closes) as f64,
        );
        out.set("server.panics", (sa.panics - sb.panics) as f64);
        let (fb, fa) = (&b.fed, &a.fed);
        out.set(
            "federate.outcomes_served",
            (fa.outcomes[0] - fb.outcomes[0]) as f64,
        );
        out.set(
            "federate.outcomes_degraded",
            (1..4).map(|i| fa.outcomes[i] - fb.outcomes[i]).sum::<u64>() as f64,
        );
        out.set(
            "federate.partial_responses",
            (fa.partial_responses - fb.partial_responses) as f64,
        );
        out.set(
            "federate.reused_connections",
            (fa.reused_connections - fb.reused_connections) as f64,
        );
        out.set(
            "federate.transparent_reconnects",
            (fa.transparent_reconnects - fb.transparent_reconnects) as f64,
        );
        out.set("client.requests_sent", e.attempted as f64);
        out.set("client.requests_ok", (e.attempted - e.failed) as f64);
        out.set("client.requests_failed", e.failed as f64);
        out.set(
            "trace.overhead_share",
            (e.throughput_rps - traced.traced.throughput_rps) / e.throughput_rps,
        );
        out.0.extend(layers.0);
        // A layer this workload never enters reports 0.
        for (name, _) in PER_LAYER {
            if !out.0.iter().any(|(n, _)| n == name) {
                out.set(name, 0.0);
            }
        }
        rec.spans.extend(traced.spans);
        write_trace(&args.bench_dir, &args.workload, &rec)?;
    }
    Ok(out.to_json(measured.digest))
}

fn mean_len(inputs: &Inputs, len: impl Fn(usize) -> usize) -> f64 {
    inputs
        .stream
        .iter()
        .map(|&i| len(i as usize) as f64)
        .sum::<f64>()
        / inputs.stream.len() as f64
}

/// Replay the single-store layers and record their metrics; returns the
/// replayed `serve` median (ns) for the socket path's self-time.
fn single_layers(
    engine: &ServeEngine,
    inputs: &Inputs,
    hot: bool,
    rec: &mut Recorder,
    layers: &mut Numbers,
) -> f64 {
    let l = replay_single(engine, inputs, hot, rec);
    layers.set("cache.fingerprint_raw_ns", l.fingerprint_raw_ns);
    layers.set("cache.fingerprint_canon_ns", l.fingerprint_canon_ns);
    layers.set("cache.lookup_hit_ns", l.lookup_hit_ns);
    layers.set("cache.lookup_miss_ns", l.lookup_miss_ns);
    layers.set("cache.insert_ns", l.insert_ns);
    layers.set("parser.parse_ns", l.parse_ns);
    layers.set("parser.bytes_in", l.bytes_in);
    layers.set("parser.patterns_in", l.patterns_in);
    layers.set("rewriter.rewrite_ns", l.rewrite_ns);
    layers.set("rewriter.patterns_out", l.patterns_out);
    layers.set("rewriter.union_branches", l.union_branches);
    layers.set("pattern.render_ns", l.render_ns);
    layers.set("pattern.bytes_out", l.bytes_out);
    layers.set("replay.serve_hit_share", l.serve_hit_share);
    // Self time: the whole serve minus the children it is known to run.
    let children = if hot {
        layers.set("engine.serve_hit_ns", l.serve_ns);
        l.fingerprint_raw_ns + l.lookup_hit_ns
    } else {
        layers.set("engine.serve_cold_ns", l.serve_ns);
        l.fingerprint_raw_ns
            + l.fingerprint_canon_ns
            + 2.0 * l.lookup_miss_ns
            + l.parse_ns
            + l.rewrite_ns
            + l.render_ns
            + 2.0 * l.insert_ns
    };
    layers.set("engine.self_ns", l.serve_ns - children);
    l.serve_ns
}

fn write_trace(bench_dir: &FsPath, workload: &str, rec: &Recorder) -> Result<(), String> {
    let dir = bench_dir.join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("trace-{workload}.jsonl"));
    write_spans(&path, &rec.spans).map_err(|e| format!("{}: {e}", path.display()))
}
