//! Per-endpoint circuit breaker: closed → open → half-open → closed.
//!
//! The breaker watches a sliding window of recent call results. While
//! **closed**, calls flow; once the window holds at least
//! [`BreakerConfig::min_samples`] results and the failure rate reaches
//! [`BreakerConfig::failure_rate_pct`], it trips **open** and fails calls
//! fast (no network, outcome `CircuitOpen`). After
//! [`BreakerConfig::cooldown_nanos`] of (virtual) time it admits probe
//! traffic in **half-open**: [`BreakerConfig::half_open_successes`]
//! consecutive successes close it again (window reset), any failure
//! re-opens it and restarts the cooldown.
//!
//! Half-open probes are **coalesced**: at most one admitted probe is in
//! flight at a time. While a probe is outstanding, further [`allow`] calls
//! return `false` (callers short-circuit to `CircuitOpen`) instead of
//! racing a thundering herd at a barely-recovered endpoint. A granted
//! probe must be resolved by [`record`] — or explicitly released with
//! [`abandon_probe`] if the caller gives up before dispatching.
//!
//! All time is the caller's virtual clock — the breaker never reads wall
//! time, which keeps federated executions deterministic.
//!
//! [`allow`]: CircuitBreaker::allow
//! [`record`]: CircuitBreaker::record
//! [`abandon_probe`]: CircuitBreaker::abandon_probe

/// Breaker tuning knobs. Defaults: 16-sample window, trip at ≥ 50% failures
/// over ≥ 8 samples, 100ms cooldown, 1 probe success to close.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct BreakerConfig {
    /// Sliding window size in calls (clamped to 64).
    pub window: u32,
    /// Minimum samples in the window before the breaker may trip.
    pub min_samples: u32,
    /// Trip when `failures * 100 >= failure_rate_pct * samples`.
    pub failure_rate_pct: u8,
    /// Virtual nanoseconds an open breaker waits before admitting probes.
    pub cooldown_nanos: u64,
    /// Consecutive half-open successes required to close.
    pub half_open_successes: u32,
}

impl Default for BreakerConfig {
    fn default() -> BreakerConfig {
        BreakerConfig {
            window: 16,
            min_samples: 8,
            failure_rate_pct: 50,
            cooldown_nanos: 100_000_000,
            half_open_successes: 1,
        }
    }
}

/// Observable breaker state.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum BreakerState {
    Closed,
    Open,
    HalfOpen,
}

/// One endpoint's breaker. Not thread-safe by itself — the executor keeps
/// each breaker behind its endpoint's runtime lock.
#[derive(Clone, Debug)]
pub struct CircuitBreaker {
    config: BreakerConfig,
    state: BreakerState,
    /// Last `len` results as bits (1 = failure), newest at `pos`.
    bits: u64,
    len: u32,
    pos: u32,
    failures: u32,
    opened_at: u64,
    half_open_ok: u32,
    /// True while a half-open probe has been admitted but not yet recorded.
    probe_in_flight: bool,
}

impl CircuitBreaker {
    pub fn new(config: BreakerConfig) -> CircuitBreaker {
        let config = BreakerConfig {
            window: config.window.clamp(1, 64),
            min_samples: config.min_samples.max(1),
            ..config
        };
        CircuitBreaker {
            config,
            state: BreakerState::Closed,
            bits: 0,
            len: 0,
            pos: 0,
            failures: 0,
            opened_at: 0,
            half_open_ok: 0,
            probe_in_flight: false,
        }
    }

    pub fn state(&self) -> BreakerState {
        self.state
    }

    pub fn config(&self) -> BreakerConfig {
        self.config
    }

    /// May a call proceed at virtual time `now`? Transitions open →
    /// half-open once the cooldown has elapsed. In half-open, admits at
    /// most one probe at a time: a `true` return claims the probe slot
    /// until the next [`CircuitBreaker::record`] (or
    /// [`CircuitBreaker::abandon_probe`]); concurrent callers get `false`.
    pub fn allow(&mut self, now: u64) -> bool {
        match self.state {
            BreakerState::Closed => true,
            BreakerState::HalfOpen => {
                if self.probe_in_flight {
                    false
                } else {
                    self.probe_in_flight = true;
                    true
                }
            }
            BreakerState::Open => {
                if now.saturating_sub(self.opened_at) >= self.config.cooldown_nanos {
                    self.state = BreakerState::HalfOpen;
                    self.half_open_ok = 0;
                    self.probe_in_flight = true;
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Virtual nanoseconds until an *open* breaker would admit its next
    /// half-open probe, measured at virtual time `now`; `None` unless the
    /// breaker is open. `Some(0)` means the very next [`allow`] call will
    /// probe. This is the `Retry-After` signal for callers that surface an
    /// open breaker to their own clients.
    ///
    /// [`allow`]: CircuitBreaker::allow
    pub fn cooldown_remaining(&self, now: u64) -> Option<u64> {
        match self.state {
            BreakerState::Open => Some(
                self.opened_at
                    .saturating_add(self.config.cooldown_nanos)
                    .saturating_sub(now),
            ),
            BreakerState::Closed | BreakerState::HalfOpen => None,
        }
    }

    /// Release a probe slot claimed by [`CircuitBreaker::allow`] without
    /// recording a result — for callers that were admitted but bailed out
    /// (e.g. zero remaining deadline budget) before dispatching.
    pub fn abandon_probe(&mut self) {
        self.probe_in_flight = false;
    }

    /// Record a call result observed at virtual time `now`.
    pub fn record(&mut self, now: u64, ok: bool) {
        match self.state {
            BreakerState::Closed => {
                self.push_sample(ok);
                if self.len >= self.config.min_samples
                    && self.failures as u64 * 100
                        >= self.config.failure_rate_pct as u64 * self.len as u64
                {
                    self.trip(now);
                }
            }
            BreakerState::HalfOpen => {
                self.probe_in_flight = false;
                if ok {
                    self.half_open_ok += 1;
                    if self.half_open_ok >= self.config.half_open_successes {
                        self.state = BreakerState::Closed;
                        self.bits = 0;
                        self.len = 0;
                        self.pos = 0;
                        self.failures = 0;
                    }
                } else {
                    self.trip(now);
                }
            }
            // A late result while open (e.g. a racing in-flight call)
            // carries no information the breaker still needs.
            BreakerState::Open => {}
        }
    }

    fn trip(&mut self, now: u64) {
        self.state = BreakerState::Open;
        self.opened_at = now;
        self.half_open_ok = 0;
        self.probe_in_flight = false;
    }

    fn push_sample(&mut self, ok: bool) {
        let bit = 1u64 << self.pos;
        if self.len == self.config.window {
            // Window full: the slot at `pos` holds the oldest sample.
            if self.bits & bit != 0 {
                self.failures -= 1;
            }
        } else {
            self.len += 1;
        }
        if ok {
            self.bits &= !bit;
        } else {
            self.bits |= bit;
            self.failures += 1;
        }
        self.pos = (self.pos + 1) % self.config.window;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> BreakerConfig {
        BreakerConfig {
            window: 8,
            min_samples: 4,
            failure_rate_pct: 50,
            cooldown_nanos: 1_000,
            half_open_successes: 2,
        }
    }

    #[test]
    fn trips_at_failure_rate_and_fails_fast() {
        let mut b = CircuitBreaker::new(cfg());
        assert_eq!(b.state(), BreakerState::Closed);
        b.record(0, true);
        b.record(1, false);
        b.record(2, true);
        assert_eq!(b.state(), BreakerState::Closed, "below min_samples");
        b.record(3, false);
        assert_eq!(b.state(), BreakerState::Open, "2/4 failures = 50%");
        assert!(!b.allow(3), "open fails fast");
        assert!(!b.allow(1_002), "cooldown measured from trip time");
    }

    #[test]
    fn half_open_probe_closes_or_reopens() {
        let mut b = CircuitBreaker::new(cfg());
        for t in 0..4 {
            b.record(t, false);
        }
        assert_eq!(b.state(), BreakerState::Open);
        // Cooldown elapses → half-open, probes admitted.
        assert!(b.allow(1_004));
        assert_eq!(b.state(), BreakerState::HalfOpen);
        // One success is not enough (half_open_successes = 2)...
        b.record(1_005, true);
        assert_eq!(b.state(), BreakerState::HalfOpen);
        // ...a failure re-opens and restarts the cooldown...
        b.record(1_006, false);
        assert_eq!(b.state(), BreakerState::Open);
        assert!(!b.allow(1_500));
        // ...and two consecutive probe successes finally close it with a
        // fresh window.
        assert!(b.allow(2_006));
        b.record(2_007, true);
        b.record(2_008, true);
        assert_eq!(b.state(), BreakerState::Closed);
        // Fresh window: three failures alone don't reach min_samples.
        b.record(2_009, false);
        b.record(2_010, false);
        b.record(2_011, false);
        assert_eq!(b.state(), BreakerState::Closed);
        b.record(2_012, false);
        assert_eq!(b.state(), BreakerState::Open);
    }

    #[test]
    fn half_open_admits_exactly_one_probe_at_a_time() {
        let mut b = CircuitBreaker::new(cfg());
        for t in 0..4 {
            b.record(t, false);
        }
        assert_eq!(b.state(), BreakerState::Open);
        // The cooldown-elapsing caller claims the probe slot...
        assert!(b.allow(1_004));
        // ...and every further caller is short-circuited until the probe
        // resolves, even though the breaker is half-open.
        assert_eq!(b.state(), BreakerState::HalfOpen);
        assert!(!b.allow(1_004));
        assert!(!b.allow(1_900));
        // Resolving the probe frees the slot for the next single probe.
        b.record(1_950, true);
        assert!(b.allow(1_951));
        assert!(!b.allow(1_951));
        // An abandoned probe (admitted, never dispatched) must not wedge
        // the endpoint in permanent fast-fail.
        b.abandon_probe();
        assert!(b.allow(1_952));
    }

    #[test]
    fn concurrent_half_open_callers_race_for_one_probe() {
        use std::sync::{Arc, Mutex};
        let b = Arc::new(Mutex::new(CircuitBreaker::new(cfg())));
        {
            let mut b = b.lock().unwrap();
            for t in 0..4 {
                b.record(t, false);
            }
            assert_eq!(b.state(), BreakerState::Open);
        }
        // Two threads arrive together after the cooldown on the same
        // virtual instant: exactly one may probe.
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let b = Arc::clone(&b);
                std::thread::spawn(move || b.lock().unwrap().allow(2_000))
            })
            .collect();
        let grants: Vec<bool> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(
            grants.iter().filter(|&&g| g).count(),
            1,
            "exactly one of two concurrent callers may probe, got {grants:?}"
        );
        // The winning probe's success closes the breaker for everyone.
        let mut b = b.lock().unwrap();
        b.record(2_001, true);
        b.record(2_002, true);
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn cooldown_remaining_tracks_the_half_open_eta() {
        let mut b = CircuitBreaker::new(cfg());
        assert_eq!(b.cooldown_remaining(0), None, "closed breaker has no ETA");
        for t in 0..4 {
            b.record(t, false);
        }
        // Tripped at t=3, cooldown 1_000 → probe admitted at t=1_003.
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.cooldown_remaining(3), Some(1_000));
        assert_eq!(b.cooldown_remaining(503), Some(500));
        assert_eq!(b.cooldown_remaining(2_000), Some(0), "ETA saturates at 0");
        // Half-open (probe claimed) is no longer "open": no ETA.
        assert!(b.allow(1_003));
        assert_eq!(b.cooldown_remaining(1_003), None);
    }

    #[test]
    fn sliding_window_evicts_old_samples() {
        let mut b = CircuitBreaker::new(cfg());
        // Two early failures spread through a healthy stream — never ≥ 50%
        // at any prefix past min_samples, so the breaker stays closed.
        for (t, ok) in [true, false, true, true, false, true, true, true]
            .into_iter()
            .enumerate()
        {
            b.record(t as u64, ok);
        }
        assert_eq!(b.state(), BreakerState::Closed);
        // Eight successes slide both failures out of the window entirely.
        for t in 8..16 {
            b.record(t, true);
        }
        assert_eq!(b.state(), BreakerState::Closed);
        // Three fresh failures are 3/8 < 50% — the evicted history doesn't
        // count against the endpoint...
        b.record(16, false);
        b.record(17, false);
        b.record(18, false);
        assert_eq!(b.state(), BreakerState::Closed);
        // ...but the fourth reaches 4/8 and trips.
        b.record(19, false);
        assert_eq!(b.state(), BreakerState::Open);
    }
}
