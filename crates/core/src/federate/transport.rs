//! Pluggable endpoint transport and the seeded fault-injecting mock.

use std::sync::atomic::{AtomicU64, Ordering};

use super::{mix_chain, EndpointId};

/// One subquery dispatch to one endpoint.
#[derive(Copy, Clone, Debug)]
pub struct TransportRequest<'a> {
    pub endpoint: EndpointId,
    /// Rendered `SELECT * WHERE { ... }` subquery text.
    pub query: &'a str,
    /// 1-based attempt number within the current execution (retries
    /// increment it).
    pub attempt: u32,
    /// Remaining deadline budget in virtual nanoseconds. Real transports
    /// should give up once this is spent; the executor treats any reply
    /// whose latency meets or exceeds it as a timeout.
    pub budget_nanos: u64,
}

/// Transport-level failure classification, which drives retry policy.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum TransportError {
    /// Worth retrying (connection reset, 503, overload shedding, ...).
    Transient,
    /// Retrying cannot help (malformed endpoint, auth refusal, 4xx, ...).
    Permanent,
}

impl TransportError {
    #[inline]
    pub fn is_transient(self) -> bool {
        self == TransportError::Transient
    }

    #[inline]
    pub fn is_permanent(self) -> bool {
        self == TransportError::Permanent
    }
}

/// Retry classification of an HTTP status code, per the taxonomy the real
/// transport and the chaos soak gate share: 2xx is success (`None`);
/// 408/425/429 and every 5xx are load or availability signals worth
/// retrying; everything else (including 3xx — the transport does not
/// follow redirects) indicates a request or endpoint problem retries
/// cannot fix.
pub fn classify_http_status(status: u16) -> Option<TransportError> {
    match status {
        200..=299 => None,
        408 | 425 | 429 | 500..=599 => Some(TransportError::Transient),
        _ => Some(TransportError::Permanent),
    }
}

/// Retry classification of a socket-level error kind: connection-shaped
/// failures (refusal, reset, abort, premature EOF, broken pipe) are
/// transient peer conditions; address/configuration failures are
/// permanent; anything unrecognized defaults to transient so a flaky
/// kernel edge never permanently blacklists an endpoint.
pub fn classify_io_error(kind: std::io::ErrorKind) -> TransportError {
    use std::io::ErrorKind as K;
    match kind {
        K::AddrNotAvailable | K::InvalidInput | K::Unsupported => TransportError::Permanent,
        _ => TransportError::Transient,
    }
}

/// What came back: how long the attempt took (virtual nanoseconds) and
/// either the response payload or a classified error.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TransportReply {
    pub latency_nanos: u64,
    pub payload: Result<String, TransportError>,
}

/// How subqueries reach endpoints. Implementations must be shareable
/// across the executor's callers and dispatch lanes. The in-tree implementation is the
/// fault-injecting [`MockTransport`]; a real HTTP transport slots in here
/// (see ROADMAP).
pub trait EndpointTransport: Send + Sync {
    fn execute(&self, req: &TransportRequest<'_>) -> TransportReply;
}

/// Per-endpoint fault-injection profile for [`MockTransport`]. All draws
/// come from a seeded stream indexed by (seed, endpoint, request number),
/// so a given seed replays the exact same fault schedule.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct FaultSpec {
    /// Floor latency of a successful or failed attempt.
    pub base_latency_nanos: u64,
    /// Uniform extra latency in `[0, jitter_nanos)`.
    pub jitter_nanos: u64,
    /// Percent of requests that fail with [`TransportError::Transient`].
    pub transient_pct: u8,
    /// Percent of requests that fail with [`TransportError::Permanent`].
    pub permanent_pct: u8,
    /// Percent of requests whose latency blows past any budget (the
    /// executor will classify them as timed out).
    pub timeout_pct: u8,
    /// Flapping: when non-zero, requests are windowed in runs of
    /// `flap_period`; every odd window the endpoint is down (all requests
    /// fail transiently), every even window the percentages above apply.
    pub flap_period: u64,
}

impl Default for FaultSpec {
    /// A healthy endpoint: 1ms ± 0.5ms latency, no faults.
    fn default() -> FaultSpec {
        FaultSpec {
            base_latency_nanos: 1_000_000,
            jitter_nanos: 500_000,
            transient_pct: 0,
            permanent_pct: 0,
            timeout_pct: 0,
            flap_period: 0,
        }
    }
}

impl FaultSpec {
    /// `default()` plus a transient-failure rate — the soak-test profile.
    pub fn transient(pct: u8) -> FaultSpec {
        FaultSpec {
            transient_pct: pct,
            ..FaultSpec::default()
        }
    }
}

/// Deterministic fault-injecting transport for tests and benches: latency,
/// error class, and flapping are pure functions of (seed, endpoint,
/// per-endpoint request number). Request numbers are per-endpoint atomic
/// counters, and the executor serializes calls per endpoint, so concurrent
/// executions over distinct endpoints cannot perturb each other's streams.
pub struct MockTransport {
    seed: u64,
    specs: Vec<FaultSpec>,
    counters: Vec<AtomicU64>,
}

impl MockTransport {
    pub fn new(seed: u64, specs: Vec<FaultSpec>) -> MockTransport {
        let counters = specs.iter().map(|_| AtomicU64::new(0)).collect();
        MockTransport {
            seed,
            specs,
            counters,
        }
    }

    /// Total requests this endpoint has seen (including failed attempts).
    pub fn requests_seen(&self, endpoint: EndpointId) -> u64 {
        self.counters[endpoint.0 as usize].load(Ordering::Relaxed)
    }
}

/// FNV-1a over the query text: stamps mock and chaos-proxy payloads so
/// tests can tell which subquery produced which rows.
pub(crate) fn fnv1a(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.bytes() {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

impl EndpointTransport for MockTransport {
    fn execute(&self, req: &TransportRequest<'_>) -> TransportReply {
        let e = req.endpoint.0 as usize;
        let spec = &self.specs[e];
        let n = self.counters[e].fetch_add(1, Ordering::Relaxed);
        let h = mix_chain(self.seed, &[e as u64, n]);
        let mut latency = spec.base_latency_nanos
            + if spec.jitter_nanos > 0 {
                h % spec.jitter_nanos
            } else {
                0
            };
        let flapping_down = spec.flap_period > 0 && (n / spec.flap_period) % 2 == 1;
        let roll = (mix_chain(self.seed, &[e as u64, n, 1]) % 100) as u8;
        let payload = if flapping_down || roll < spec.transient_pct {
            Err(TransportError::Transient)
        } else if roll < spec.transient_pct.saturating_add(spec.permanent_pct) {
            Err(TransportError::Permanent)
        } else if roll
            < spec
                .transient_pct
                .saturating_add(spec.permanent_pct)
                .saturating_add(spec.timeout_pct)
        {
            // A stall: latency exceeds any plausible budget.
            latency = u64::MAX / 4;
            Ok(String::new())
        } else {
            Ok(format!("ep{e}#r{n}:{:016x}", fnv1a(req.query)))
        };
        TransportReply {
            latency_nanos: latency,
            payload,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(endpoint: u32, query: &str) -> TransportRequest<'_> {
        TransportRequest {
            endpoint: EndpointId(endpoint),
            query,
            attempt: 1,
            budget_nanos: u64::MAX / 2,
        }
    }

    #[test]
    fn http_status_classification_matches_the_documented_taxonomy() {
        assert_eq!(classify_http_status(200), None);
        assert_eq!(classify_http_status(204), None);
        for s in [408u16, 425, 429, 500, 502, 503, 504, 599] {
            assert_eq!(
                classify_http_status(s),
                Some(TransportError::Transient),
                "status {s}"
            );
        }
        for s in [301u16, 400, 401, 403, 404, 410, 418] {
            assert_eq!(
                classify_http_status(s),
                Some(TransportError::Permanent),
                "status {s}"
            );
        }
    }

    #[test]
    fn io_error_kinds_classify_conservatively() {
        use std::io::ErrorKind as K;
        for k in [
            K::ConnectionRefused,
            K::ConnectionReset,
            K::ConnectionAborted,
            K::UnexpectedEof,
            K::BrokenPipe,
            K::TimedOut,
            K::WouldBlock,
            K::Other,
        ] {
            assert!(classify_io_error(k).is_transient(), "{k:?}");
        }
        for k in [K::AddrNotAvailable, K::InvalidInput, K::Unsupported] {
            assert!(classify_io_error(k).is_permanent(), "{k:?}");
        }
    }

    #[test]
    fn same_seed_replays_the_same_fault_schedule() {
        let make =
            || MockTransport::new(99, vec![FaultSpec::transient(30), FaultSpec::transient(30)]);
        let a = make();
        let b = make();
        for i in 0..200 {
            let ep = (i % 2) as u32;
            let ra = a.execute(&req(ep, "SELECT * WHERE { ?s ?p ?o }"));
            let rb = b.execute(&req(ep, "SELECT * WHERE { ?s ?p ?o }"));
            assert_eq!(ra, rb, "request {i} diverged");
        }
        assert_eq!(a.requests_seen(EndpointId(0)), 100);
    }

    #[test]
    fn fault_rates_track_the_spec() {
        let t = MockTransport::new(7, vec![FaultSpec::transient(30)]);
        let mut failures = 0;
        for _ in 0..1000 {
            if t.execute(&req(0, "q")).payload.is_err() {
                failures += 1;
            }
        }
        // 30% nominal; the seeded stream should land well within ±7pp.
        assert!(
            (230..=370).contains(&failures),
            "{failures} transient failures in 1000"
        );
    }

    #[test]
    fn flapping_windows_alternate_up_and_down() {
        let spec = FaultSpec {
            flap_period: 10,
            ..FaultSpec::default()
        };
        let t = MockTransport::new(3, vec![spec]);
        let mut pattern = Vec::new();
        for _ in 0..40 {
            pattern.push(t.execute(&req(0, "q")).payload.is_ok());
        }
        assert!(pattern[..10].iter().all(|&ok| ok), "first window up");
        assert!(pattern[10..20].iter().all(|&ok| !ok), "second window down");
        assert!(pattern[20..30].iter().all(|&ok| ok), "third window up");
        assert!(pattern[30..].iter().all(|&ok| !ok), "fourth window down");
    }

    #[test]
    fn latency_stays_within_base_plus_jitter() {
        let t = MockTransport::new(11, vec![FaultSpec::default()]);
        for _ in 0..100 {
            let r = t.execute(&req(0, "q"));
            assert!(r.latency_nanos >= 1_000_000 && r.latency_nanos < 1_500_000);
        }
    }
}
