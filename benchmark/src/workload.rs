//! The four workloads: their inputs, how the system under test is set up
//! for each (what `setup_s` times), and the closed-loop request generator.

use std::net::SocketAddr;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use sparql_rewrite_core::{
    AlignmentStore, CacheConfig, ExecutorConfig, FederationPlanner, HttpConfig, Interner,
    RewriteLimits, ServeEngine, ServeScratch, Term,
};
use sparql_rewrite_server::{EndpointRoute, FederationConfig, Server, ServerConfig};

use crate::client::{get_request, post_request, HttpClient};
use crate::gen::{self, Complex, Rng};
use crate::load::load_rules;
use crate::stub::Stub;
use crate::trace::Span;

pub const WORKLOADS: [&str; 4] = ["lib_hot", "lib_cold", "http_hot", "fed_fanout"];

const HOT_RULES: usize = 10_000;
const HOT_DISTINCT: usize = 256;
const COLD_RULES: usize = 100_000;
const STREAM_LEN: usize = 65_536;
const FED_RULES_PER_ENDPOINT: usize = 2_000;
const FED_QUERIES: usize = 4_096;
/// Queries handed to `ServeEngine::with_tuned_cache` as the cap-tuning
/// sample on `lib_cold` (the hot workloads pass every distinct query).
const COLD_TUNING_SAMPLES: usize = 4_096;

/// Calls timed as one sample on the in-process workloads, so the timer
/// stays under 1 % of a ~0.3 µs cached serve.
pub const LIB_BATCH: usize = 32;

/// Generator threads = server workers: 2 × 2 keeps every hop on a busy
/// vCPU; 1 × 1 across two vCPUs would time the hypervisor's cross-vCPU
/// wake-ups instead. Counts the CPUs this process may run on, so after
/// [`pin_to_one_cpu`] it is 1.
pub fn generator_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

/// Restrict the calling thread — and every thread it starts from here on —
/// to the lowest-numbered CPU it may run on. `fed_fanout` runs this way:
/// a federated request is a chain of thread hand-offs (worker → executor
/// threads → member sockets → back), and spread over two vCPUs 60 % of its
/// latency is cross-vCPU wake-ups that land in one of two levels depending
/// on where the threads happened to be placed. On one vCPU every hand-off
/// is a same-core switch and what is left is the mediator's own work.
/// Returns `false` (and changes nothing) if the kernel refuses.
pub fn pin_to_one_cpu() -> bool {
    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    // glibc's `cpu_set_t`: 1024 bits.
    let mut mask = [0u64; 16];
    let bytes = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a live, writable buffer of exactly `bytes` bytes,
    // which is what the call is told; pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, bytes, mask.as_mut_ptr()) } != 0 {
        return false;
    }
    let Some(word) = mask.iter().position(|w| *w != 0) else {
        return false;
    };
    let lowest = mask[word] & mask[word].wrapping_neg();
    mask = [0; 16];
    mask[word] = lowest;
    // SAFETY: as above, read-only this time.
    unsafe { sched_setaffinity(0, bytes, mask.as_ptr()) == 0 }
}

#[derive(Copy, Clone, PartialEq, Eq)]
pub enum Kind {
    Lib,
    Http,
    Fed,
}

pub fn kind_of(workload: &str) -> Option<Kind> {
    match workload {
        "lib_hot" | "lib_cold" => Some(Kind::Lib),
        "http_hot" => Some(Kind::Http),
        "fed_fanout" => Some(Kind::Fed),
        _ => None,
    }
}

/// Everything a workload feeds the program, derived from the seed alone.
pub struct Inputs {
    /// Rule text, one entry per alignment store (3 for the federation).
    pub rules: Vec<String>,
    /// Distinct request texts, spellings included.
    pub queries: Vec<String>,
    /// `logical[i]` = which logical query `queries[i]` is a spelling of.
    pub logical: Vec<u32>,
    /// Request order: indices into `queries`, cycled.
    pub stream: Vec<u32>,
    /// `queries[..n_tuning]` are the cache-cap tuning sample.
    pub n_tuning: usize,
}

pub fn generate(workload: &str, seed: u64) -> Inputs {
    let mut rng = Rng::new(seed);
    match workload {
        // Same inputs on both: only the path to the engine differs.
        "lib_hot" | "http_hot" => {
            let rules = gen::rules_text(&mut rng, HOT_RULES, gen::SRC, gen::TGT, Complex::Guarded);
            let mut queries = Vec::with_capacity(HOT_DISTINCT * 3);
            let mut logical = Vec::with_capacity(HOT_DISTINCT * 3);
            for i in 0..HOT_DISTINCT {
                let canonical = gen::group_query(&mut rng, i, HOT_RULES);
                queries.push(gen::perturb_whitespace(&canonical, &mut rng));
                queries.push(gen::alias_prefix(&canonical));
                queries.push(canonical);
                logical.extend([i as u32; 3]);
            }
            let stream = gen::zipf_ranks(&mut rng, HOT_DISTINCT, STREAM_LEN)
                .into_iter()
                .map(|rank| rank * 3 + rng.below(3) as u32)
                .collect();
            Inputs {
                rules: vec![rules],
                n_tuning: queries.len(),
                queries,
                logical,
                stream,
            }
        }
        "lib_cold" => {
            let rules = gen::rules_text(&mut rng, COLD_RULES, gen::SRC, gen::TGT, Complex::Guarded);
            let queries: Vec<String> = (0..STREAM_LEN)
                .map(|i| gen::group_query(&mut rng, i, COLD_RULES))
                .collect();
            Inputs {
                rules: vec![rules],
                logical: (0..STREAM_LEN as u32).collect(),
                stream: (0..STREAM_LEN as u32).collect(),
                n_tuning: COLD_TUNING_SAMPLES,
                queries,
            }
        }
        "fed_fanout" => {
            let rules = (0..gen::FED_ENDPOINTS)
                .map(|e| {
                    let complex = if e == 0 {
                        Complex::GuardedAndChainFilters
                    } else {
                        Complex::None
                    };
                    let src = gen::fed_src(e);
                    let tgt = format!("http://tgt{e}.example.org");
                    gen::rules_text(&mut rng, FED_RULES_PER_ENDPOINT, &src, &tgt, complex)
                })
                .collect();
            let queries: Vec<String> = (0..FED_QUERIES)
                .map(|i| gen::fed_query(&mut rng, i, FED_RULES_PER_ENDPOINT))
                .collect();
            Inputs {
                rules,
                logical: (0..FED_QUERIES as u32).collect(),
                stream: (0..FED_QUERIES as u32).collect(),
                n_tuning: 0,
                queries,
            }
        }
        other => panic!("unknown workload {other:?}"),
    }
}

/// What set-up spent where; the per-layer set-up metrics.
#[derive(Default)]
pub struct SetupTimes {
    pub total_s: f64,
    pub align_load_s: f64,
    pub dense_index_s: f64,
    pub scratch_s: f64,
    pub rules: usize,
    pub symbols: usize,
}

/// The running system plus the generator-side handles to drive it.
pub enum Sut {
    Lib {
        engine: Arc<ServeEngine>,
        scratches: Vec<ServeScratch>,
    },
    Socket {
        server: Server,
        clients: Vec<HttpClient>,
    },
}

fn server_config(workers: usize) -> ServerConfig {
    ServerConfig {
        workers,
        ..ServerConfig::default()
    }
}

fn build_engine(
    inputs: &Inputs,
    replay: bool,
    times: &mut SetupTimes,
) -> Result<ServeEngine, String> {
    let mut interner = Interner::new();
    let mut store = AlignmentStore::new();
    times.align_load_s = load_rules(&inputs.rules[0], &mut interner, &mut store)?.as_secs_f64();
    times.rules = store.len();
    times.symbols = interner.symbol_bound();
    if replay {
        // The engine constructor freezes the store itself; the traced run
        // repeats that one call from outside to time the `align` layer.
        let t = Instant::now();
        store.build_dense_index(interner.symbol_bound());
        times.dense_index_s = t.elapsed().as_secs_f64();
    }
    Ok(ServeEngine::with_tuned_cache(
        store,
        interner,
        CacheConfig::default(),
        &inputs.queries[..inputs.n_tuning],
    ))
}

/// Rule text → ready to serve, for the single-store workloads. With
/// `socket` the engine goes behind `Server::spawn` and "ready" means a
/// first `200` on each of the `t` keep-alive connections.
pub fn setup_single(
    inputs: &Inputs,
    t: usize,
    socket: bool,
    replay: bool,
) -> Result<(Sut, SetupTimes), String> {
    let mut times = SetupTimes::default();
    let t0 = Instant::now();
    let engine = Arc::new(build_engine(inputs, replay, &mut times)?);
    let sut = if socket {
        if replay {
            let t = Instant::now();
            drop(std::hint::black_box(engine.scratch()));
            times.scratch_s = t.elapsed().as_secs_f64();
        }
        let server = Server::spawn(engine, server_config(t), "127.0.0.1:0")
            .map_err(|e| format!("spawn: {e}"))?;
        let clients = first_replies(server.local_addr(), t, &inputs.queries[0])?;
        Sut::Socket { server, clients }
    } else {
        let ts = Instant::now();
        let scratches: Vec<ServeScratch> = (0..t).map(|_| engine.scratch()).collect();
        times.scratch_s = ts.elapsed().as_secs_f64() / t as f64;
        Sut::Lib { engine, scratches }
    };
    times.total_s = t0.elapsed().as_secs_f64();
    Ok((sut, times))
}

/// The federation's planner and interner, built from the rule text the way
/// a deployment would: one store per member, frozen against the shared
/// interner, partition cache on.
pub fn build_planner(
    inputs: &Inputs,
    times: &mut SetupTimes,
) -> Result<(FederationPlanner, Interner), String> {
    let mut interner = Interner::new();
    let endpoint_terms: Vec<Term> = (0..inputs.rules.len())
        .map(|e| Term::iri(interner.intern(&gen::fed_endpoint_iri(e))))
        .collect();
    let mut stores = Vec::with_capacity(inputs.rules.len());
    for text in &inputs.rules {
        let mut store = AlignmentStore::new();
        times.align_load_s += load_rules(text, &mut interner, &mut store)?.as_secs_f64();
        times.rules += store.len();
        stores.push(store);
    }
    times.symbols = interner.symbol_bound();
    let mut planner = FederationPlanner::new();
    for (term, mut store) in endpoint_terms.into_iter().zip(stores) {
        let t = Instant::now();
        store.build_dense_index(interner.symbol_bound());
        times.dense_index_s += t.elapsed().as_secs_f64();
        planner.add_endpoint(term, Arc::new(store));
    }
    planner.enable_partition_cache(CacheConfig::default());
    Ok((planner, interner))
}

pub fn fed_routes(stubs: &[Stub]) -> Vec<EndpointRoute> {
    stubs
        .iter()
        .enumerate()
        .map(|(e, stub)| EndpointRoute {
            iri: gen::fed_endpoint_iri(e),
            authority: stub.authority.clone(),
            path: "/sparql".to_string(),
        })
        .collect()
}

/// Rule text → first `200` through `Server::spawn_federated`. The member
/// endpoints (`stubs`) are already listening: they are the environment,
/// not the system.
pub fn setup_fed(
    inputs: &Inputs,
    stubs: &[Stub],
    t: usize,
    replay: bool,
) -> Result<(Sut, SetupTimes), String> {
    let mut times = SetupTimes::default();
    let t0 = Instant::now();
    let (planner, interner) = build_planner(inputs, &mut times)?;
    if replay {
        // What each federated worker does once at start-up.
        let t = Instant::now();
        drop(std::hint::black_box(interner.clone()));
        times.scratch_s = t.elapsed().as_secs_f64();
    }
    let fed = FederationConfig {
        planner,
        interner,
        routes: fed_routes(stubs),
        executor: ExecutorConfig::default(),
        http: HttpConfig::default(),
        limits: RewriteLimits::default(),
        record_outcomes: false,
    };
    let server = Server::spawn_federated(fed, server_config(t), "127.0.0.1:0")
        .map_err(|e| format!("spawn_federated: {e}"))?;
    let clients = first_replies(server.local_addr(), t, &inputs.queries[0])?;
    times.total_s = t0.elapsed().as_secs_f64();
    Ok((Sut::Socket { server, clients }, times))
}

fn first_replies(addr: SocketAddr, t: usize, query: &str) -> Result<Vec<HttpClient>, String> {
    let request = get_request(query);
    (0..t)
        .map(|_| {
            let mut client = HttpClient::connect(addr).map_err(|e| format!("connect: {e}"))?;
            let reply = client
                .roundtrip(&request)
                .map_err(|e| format!("first request: {e}"))?;
            if reply.status != 200 {
                return Err(format!("first request answered {}", reply.status));
            }
            Ok(client)
        })
        .collect()
}

/// One way of getting request `idx` answered. `pos` is the position in the
/// request stream (its parity picks GET or POST on the socket paths).
pub trait Path {
    /// The response body, or `None` if the request failed outright.
    fn request(&mut self, pos: usize, idx: usize) -> Option<&[u8]>;

    /// Bytes the last response took on the wire (0 in process).
    fn last_wire_len(&self) -> usize {
        0
    }

    /// Exact per-serve `(hits, misses)` so far, where the generator
    /// thread itself owns the serve scratch.
    fn cache_counters(&self) -> Option<(u64, u64)> {
        None
    }
}

pub struct LibPath<'a> {
    pub engine: &'a ServeEngine,
    pub scratch: ServeScratch,
    pub queries: &'a [String],
}

impl Path for LibPath<'_> {
    fn request(&mut self, _pos: usize, idx: usize) -> Option<&[u8]> {
        self.engine
            .serve(&self.queries[idx], &mut self.scratch)
            .ok()
            .map(str::as_bytes)
    }

    fn cache_counters(&self) -> Option<(u64, u64)> {
        Some((self.scratch.cache_hits(), self.scratch.cache_misses()))
    }
}

/// Pre-rendered request bytes: even stream positions GET, odd POST.
pub struct WireRequests {
    pub get: Vec<Vec<u8>>,
    pub post: Vec<Vec<u8>>,
}

impl WireRequests {
    pub fn new(queries: &[String]) -> WireRequests {
        WireRequests {
            get: queries.iter().map(|q| get_request(q)).collect(),
            post: queries.iter().map(|q| post_request(q)).collect(),
        }
    }

    pub fn bytes(&self, pos: usize, idx: usize) -> &[u8] {
        if pos.is_multiple_of(2) {
            &self.get[idx]
        } else {
            &self.post[idx]
        }
    }
}

pub struct SocketPath<'a> {
    pub client: HttpClient,
    pub wire: &'a WireRequests,
    /// Federated: a `200` whose envelope says `"partial":true` is a failure.
    pub require_complete: bool,
    pub last_wire_len: usize,
}

impl Path for SocketPath<'_> {
    fn request(&mut self, pos: usize, idx: usize) -> Option<&[u8]> {
        let reply = match self.client.roundtrip(self.wire.bytes(pos, idx)) {
            Ok(reply) => reply,
            Err(_) => {
                // Timeout or broken framing: start over on a fresh socket.
                let _ = self.client.reconnect();
                return None;
            }
        };
        self.last_wire_len = reply.total_len;
        let body = self.client.body(&reply);
        if reply.status != 200
            || (self.require_complete && !body.starts_with(br#"{"partial":false"#))
        {
            return None;
        }
        Some(body)
    }

    fn last_wire_len(&self) -> usize {
        self.last_wire_len
    }
}

/// What one generator thread measured.
#[derive(Default)]
pub struct ThreadResult {
    /// Latency samples (ns per timed batch), one `Vec` per 1-s window.
    pub windows: Vec<Vec<u32>>,
    pub attempted: u64,
    pub failed: u64,
    pub elapsed_s: f64,
    pub allocs: u64,
    /// `(hits, misses)` of this thread's own serve scratch, if it has one.
    pub cache: Option<(u64, u64)>,
    /// Traced runs only: samples split by request method.
    pub get_ns: Vec<u32>,
    pub post_ns: Vec<u32>,
    pub spans: Vec<Span>,
}

pub struct LoopSpec<'a> {
    pub stream: &'a [u32],
    pub expected_len: &'a [u32],
    pub threads: usize,
    /// Requests timed as one sample.
    pub batch: usize,
    pub warm: Duration,
    pub measure: Duration,
    /// `Some(epoch)`: record a span per sample (first `TRACE_SPANS` only).
    pub trace: Option<Instant>,
    pub span_name: &'static str,
    /// Traced socket runs: also keep GET and POST samples apart.
    pub split_methods: bool,
}

/// Spans kept per traced run, shared out over the generator threads.
pub const TRACE_SPANS: usize = 4_096;

/// Closed loop on one thread: the next request is sent when the previous
/// one has been answered and checked. Thread `k` of `t` takes stream
/// positions `k, k + t, k + 2t, …`, so the threads together replay the
/// stream in order.
///
/// `on_start` runs once, on thread 0, between warm-up and the first timed
/// request — where the program's counters are read for a window delta.
pub fn drive<P: Path>(
    path: &mut P,
    k: usize,
    spec: &LoopSpec,
    barrier: &Barrier,
    on_start: &(dyn Fn() + Sync),
) -> ThreadResult {
    let mut res = ThreadResult::default();
    let mut pos = k;
    barrier.wait();
    // Warm-up: at least `warm`, and at least this thread's whole share of
    // the stream once, so every buffer and the scratch's private interner
    // have seen every request before timing starts.
    let warm_until = Instant::now() + spec.warm;
    while Instant::now() < warm_until || pos < spec.stream.len() {
        unit(path, spec, &mut pos, &mut res);
    }
    (res.attempted, res.failed, res.allocs) = (0, 0, 0);
    // Every thread measures the same interval.
    barrier.wait();
    if k == 0 {
        on_start();
    }
    let cache_before = path.cache_counters();
    let span_quota = TRACE_SPANS / spec.threads;
    let start = Instant::now();
    let mut t0 = start;
    loop {
        let first_pos = pos;
        unit(path, spec, &mut pos, &mut res);
        let t1 = Instant::now();
        // Whole-batch nanoseconds; the summary divides by the batch size.
        let sample = (t1 - t0).as_nanos().min(u32::MAX as u128) as u32;
        let window = (t1 - start).as_secs() as usize;
        if res.windows.len() <= window {
            res.windows.resize_with(window + 1, Vec::new);
        }
        res.windows[window].push(sample);
        if let Some(epoch) = spec.trace {
            if spec.split_methods {
                if first_pos.is_multiple_of(2) {
                    res.get_ns.push(sample);
                } else {
                    res.post_ns.push(sample);
                }
            }
            if res.spans.len() < span_quota {
                res.spans.push(Span::between(
                    epoch,
                    (t0, t1),
                    first_pos,
                    spec.span_name,
                    "",
                    spec.batch,
                ));
            }
        }
        t0 = t1;
        if t1 - start >= spec.measure {
            break;
        }
    }
    res.elapsed_s = (t0 - start).as_secs_f64();
    res.cache = path
        .cache_counters()
        .zip(cache_before)
        .map(|((h1, m1), (h0, m0))| (h1 - h0, m1 - m0));
    // The sample that crossed the finish line opened a window of its own;
    // a one-sample window would skew the per-window percentiles.
    if res.windows.len() > 1 && (res.elapsed_s as usize) < res.windows.len() {
        let tail = res.windows.pop().unwrap_or_default();
        if let Some(last) = res.windows.last_mut() {
            last.extend(tail);
        }
    }
    res
}

/// One timed unit: `spec.batch` requests, each checked against the
/// expected body length. Allocations are counted around the requests
/// only, so the generator's own sample buffers stay out of the count.
fn unit<P: Path>(path: &mut P, spec: &LoopSpec, pos: &mut usize, res: &mut ThreadResult) {
    let allocs_before = crate::alloc::thread_allocs();
    for _ in 0..spec.batch {
        let idx = spec.stream[*pos % spec.stream.len()] as usize;
        let ok = path
            .request(*pos, idx)
            .is_some_and(|body| body.len() == spec.expected_len[idx] as usize);
        res.attempted += 1;
        res.failed += u64::from(!ok);
        *pos += spec.threads;
    }
    res.allocs += crate::alloc::thread_allocs() - allocs_before;
}
