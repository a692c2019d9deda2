//! The seeded fault-injecting transport: no socket, virtual latencies.

use std::sync::atomic::{AtomicU64, Ordering};

use sparql_rewrite_core::{
    mix_chain, EndpointId, EndpointTransport, TransportError, TransportReply, TransportRequest,
};

use crate::{draw, fnv1a};

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

    fn pcts(&self) -> [u8; 3] {
        [self.transient_pct, self.permanent_pct, self.timeout_pct]
    }
}

/// Deterministic fault-injecting transport for tests: latency,
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
    /// # Panics
    ///
    /// If a spec's percentages sum past 100 (see [`draw`]).
    pub fn new(seed: u64, specs: Vec<FaultSpec>) -> MockTransport {
        // Check the mixes here: inside `execute`, the executor's panic
        // guard would turn the panic into a transient failure.
        for spec in &specs {
            draw(seed, [0, 0, 1], &spec.pcts());
        }
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

impl EndpointTransport for MockTransport {
    fn execute(&self, req: &TransportRequest<'_>) -> TransportReply {
        let e = req.endpoint.0 as usize;
        let spec = &self.specs[e];
        let n = self.counters[e].fetch_add(1, Ordering::Relaxed);
        let jitter = mix_chain(self.seed, &[e as u64, n]).checked_rem(spec.jitter_nanos);
        let mut latency = spec.base_latency_nanos + jitter.unwrap_or(0);
        let flapping_down = spec.flap_period > 0 && (n / spec.flap_period) % 2 == 1;
        let fault = draw(self.seed, [e as u64, n, 1], &spec.pcts());
        let payload = match fault {
            _ if flapping_down => Err(TransportError::Transient),
            Some(0) => Err(TransportError::Transient),
            Some(1) => Err(TransportError::Permanent),
            Some(_) => {
                // A stall: latency exceeds any plausible budget.
                latency = u64::MAX / 4;
                Ok(String::new())
            }
            None => Ok(format!("ep{e}#r{n}:{:016x}", fnv1a(req.query))),
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
