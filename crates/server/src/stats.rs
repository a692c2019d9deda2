//! Observability: the counters and latency histograms the serve path
//! bumps, the two snapshot functions that read them, and the `/stats` and
//! `/healthz` routes, which render only what those snapshots return.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use sparql_rewrite_core::BreakerState;

use crate::federated::FederationRuntime;
use crate::request::{RequestError, Route, ERROR_CLASSES};
use crate::response::{render_response, render_with};
use crate::{
    latency_bin_lower_nanos, FederationStats, ServeMode, Shared, StatsSnapshot, LATENCY_BINS,
    OUTCOME_CLASSES,
};

/// Fixed log2-binned latency histogram (relaxed atomics, lock-free).
/// Server-side wall-clock only — never part of determinism transcripts.
pub(crate) struct LatencyHistogram {
    bins: [AtomicU64; LATENCY_BINS],
}

impl LatencyHistogram {
    pub(crate) fn new() -> LatencyHistogram {
        LatencyHistogram {
            bins: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    pub(crate) fn record(&self, nanos: u64) {
        let lg = 63 - nanos.max(1).leading_zeros() as usize;
        let bin = lg.saturating_sub(10).min(LATENCY_BINS - 1);
        self.bins[bin].fetch_add(1, Ordering::Relaxed);
    }
}

/// Monotone counters + gauges, updated with relaxed atomics off the hot
/// path's shared cache lines (per-request accounting that must be exact
/// per class is one `fetch_add` per outcome).
pub(crate) struct Counters {
    pub(crate) accepted: AtomicU64,
    pub(crate) shed: AtomicU64,
    pub(crate) served: AtomicU64,
    pub(crate) panics: AtomicU64,
    pub(crate) idle_closes: AtomicU64,
    pub(crate) in_flight: AtomicUsize,
    pub(crate) dropped_from_queue: AtomicU64,
    class_counts: [AtomicU64; ERROR_CLASSES],
}

impl Counters {
    pub(crate) fn new() -> Counters {
        Counters {
            accepted: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            served: AtomicU64::new(0),
            panics: AtomicU64::new(0),
            idle_closes: AtomicU64::new(0),
            in_flight: AtomicUsize::new(0),
            dropped_from_queue: AtomicU64::new(0),
            class_counts: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    pub(crate) fn count(&self, e: RequestError) {
        self.class_counts[e.index()].fetch_add(1, Ordering::Relaxed);
    }
}

/// The one reader of the server-wide counters and histograms
/// ([`Server::stats`](crate::Server::stats), `/stats`).
pub(crate) fn stats_snapshot(shared: &Shared) -> StatsSnapshot {
    let c = &shared.stats;
    StatsSnapshot {
        accepted: c.accepted.load(Ordering::Relaxed),
        shed: c.shed.load(Ordering::Relaxed),
        served: c.served.load(Ordering::Relaxed),
        panics: c.panics.load(Ordering::Relaxed),
        idle_closes: c.idle_closes.load(Ordering::Relaxed),
        queue_depth: shared.queue.depth(),
        in_flight: c.in_flight.load(Ordering::Relaxed),
        dropped_from_queue: c.dropped_from_queue.load(Ordering::Relaxed),
        error_classes: std::array::from_fn(|i| c.class_counts[i].load(Ordering::Relaxed)),
        latency: std::array::from_fn(|r| {
            let bins = &shared.latency[r].bins;
            std::array::from_fn(|i| bins[i].load(Ordering::Relaxed))
        }),
    }
}

/// The one reader of the federated counters
/// ([`Server::federation_stats`](crate::Server::federation_stats),
/// `/stats`).
pub(crate) fn federation_snapshot(fed: &FederationRuntime) -> FederationStats {
    FederationStats {
        outcomes: std::array::from_fn(|i| fed.outcome_counts[i].load(Ordering::Relaxed)),
        complete_responses: fed.complete_responses.load(Ordering::Relaxed),
        partial_responses: fed.partial_responses.load(Ordering::Relaxed),
        gateway_unavailable: fed.gateway_unavailable.load(Ordering::Relaxed),
        gateway_timeouts: fed.gateway_timeouts.load(Ordering::Relaxed),
        deadline_breaches: fed.deadline_breaches.load(Ordering::Relaxed),
        transport_panics: fed.executor.caught_panics(),
        reused_connections: fed.executor.transport().reused_connections(),
        transparent_reconnects: fed.executor.transport().transparent_reconnects(),
        breakers: fed.executor.breaker_states(),
    }
}

/// `GET /healthz`: readiness probe. Not ready (`503` + reason body +
/// `Retry-After`) while draining, with a saturated admission queue, or —
/// federated — with every breaker open; otherwise `200 ok`.
pub(crate) fn render_health(shared: &Shared, resp: &mut Vec<u8>, close: bool) {
    let reason_body: Option<&[u8]> = if shared.draining() {
        Some(b"draining\n")
    } else if shared.queue.depth() >= shared.queue.capacity {
        Some(b"queue-full\n")
    } else if let ServeMode::Federated(fed) = &shared.mode {
        let states = fed.executor.breaker_states();
        let all_open = !states.is_empty() && states.iter().all(|s| *s == BreakerState::Open);
        all_open.then_some(b"breakers-open\n".as_slice())
    } else {
        None
    };
    match reason_body {
        Some(body) => {
            let retry = Some(shared.retry_after_secs());
            render_with(resp, 503, body, "text/plain", close, retry, &[]);
        }
        None => render_response(resp, 200, b"ok\n", "text/plain", close),
    }
}

/// `s` += `[v0,v1,…]`.
fn push_list<T: std::fmt::Display>(s: &mut String, values: impl IntoIterator<Item = T>) {
    s.push('[');
    for (i, v) in values.into_iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "{v}");
    }
    s.push(']');
}

/// `GET /stats`: JSON rendering of [`stats_snapshot`] (and, federated,
/// [`federation_snapshot`]). Builds into a fresh `String` — the
/// observability surface is off the zero-alloc hot path by design.
pub(crate) fn render_stats(shared: &Shared, resp: &mut Vec<u8>, close: bool) {
    let c = stats_snapshot(shared);
    let mut s = String::with_capacity(2048);
    let _ = write!(
        s,
        "{{\"accepted\":{},\"shed\":{},\"served\":{},\"worker_panics\":{},\"idle_closes\":{},\"queue_depth\":{},\"queue_capacity\":{},\"in_flight\":{}",
        c.accepted,
        c.shed,
        c.served,
        c.panics,
        c.idle_closes,
        c.queue_depth,
        shared.queue.capacity,
        c.in_flight,
    );
    s.push_str(",\"errors\":{");
    for (i, (label, count)) in RequestError::labels()
        .iter()
        .zip(c.error_classes)
        .enumerate()
    {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "\"{label}\":{count}");
    }
    s.push('}');
    let _ = write!(
        s,
        ",\"drain\":{{\"draining\":{},\"dropped_from_queue\":{},\"drain_deadline_ms\":{},\"request_deadline_ms\":{}}}",
        shared.draining(),
        c.dropped_from_queue,
        shared.config.drain_deadline.as_millis(),
        shared.config.request_deadline.as_millis(),
    );
    s.push_str(",\"latency_nanos\":{\"bin_lower\":");
    push_list(&mut s, (0..LATENCY_BINS).map(latency_bin_lower_nanos));
    for (name, route) in [
        ("query", Route::Query),
        ("healthz", Route::Health),
        ("stats", Route::Stats),
    ] {
        let _ = write!(s, ",\"{name}\":");
        push_list(&mut s, c.latency[route.index()]);
    }
    s.push('}');
    match &shared.mode {
        ServeMode::Single(engine) => {
            if let Some(stats) = engine.cache_stats() {
                let (grows, shrinks) = engine.cache_resizes();
                let _ = write!(
                    s,
                    ",\"cache\":{{\"occupancy\":{},\"capacity\":{},\"hits\":{},\"misses\":{},\"evictions\":{},\"oversize_bypasses\":{},\"value_cap\":{},\"grows\":{},\"shrinks\":{}}}",
                    stats.occupancy(),
                    stats.capacity(),
                    stats.hits(),
                    stats.misses(),
                    stats.evictions(),
                    stats.oversize_bypasses(),
                    engine.cache_value_cap().unwrap_or(0),
                    grows,
                    shrinks,
                );
            }
        }
        ServeMode::Federated(fed) => {
            let f = federation_snapshot(fed);
            let _ = write!(
                s,
                ",\"federation\":{{\"complete\":{},\"partial\":{},\"gateway_502\":{},\"gateway_504\":{},\"deadline_breaches\":{},\"transport_panics\":{},\"reused_connections\":{},\"transparent_reconnects\":{}",
                f.complete_responses,
                f.partial_responses,
                f.gateway_unavailable,
                f.gateway_timeouts,
                f.deadline_breaches,
                f.transport_panics,
                f.reused_connections,
                f.transparent_reconnects,
            );
            s.push_str(",\"outcomes\":{");
            for (i, (name, count)) in OUTCOME_CLASSES.iter().zip(f.outcomes).enumerate() {
                if i > 0 {
                    s.push(',');
                }
                let _ = write!(s, "\"{name}\":{count}");
            }
            s.push_str("},\"breakers\":");
            push_list(&mut s, f.breakers.iter().map(|st| format!("\"{st:?}\"")));
            s.push('}');
        }
    }
    s.push('}');
    render_response(resp, 200, s.as_bytes(), "application/json", close);
}
