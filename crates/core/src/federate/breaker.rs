//! Per-endpoint circuit breaker: closed → open → half-open → closed.
//!
//! The breaker watches a sliding window of recent call results. While
//! **closed**, calls flow; once the window holds at least
//! [`BreakerConfig::min_samples`] results and the failure rate reaches
//! [`BreakerConfig::failure_rate_pct`], it trips **open** and fails calls
//! fast (no network, outcome `CircuitOpen`). After
//! [`BreakerConfig::cooldown_nanos`] of (virtual) time it admits a probe
//! in **half-open**: one success closes it again (window reset), a
//! failure re-opens it and restarts the cooldown.
//!
//! The breaker keeps no admission bookkeeping of its own: the executor
//! calls [`allow`] only under the endpoint's runtime lock and holds that
//! lock through the whole retry ladder, so one call per endpoint is in
//! flight at a time. After a granted [`allow`] the holder either
//! [`record`]s a result or gives up on a spent deadline before it
//! releases the lock, so a half-open grant is never followed by a second
//! one before the probe's result is in.
//!
//! All time is the caller's virtual clock — the breaker never reads wall
//! time, which keeps federated executions deterministic.
//!
//! [`allow`]: CircuitBreaker::allow
//! [`record`]: CircuitBreaker::record

/// Breaker tuning knobs. Defaults: 16-sample window, trip at ≥ 50% failures
/// over ≥ 8 samples, 100ms cooldown.
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
}

impl Default for BreakerConfig {
    fn default() -> BreakerConfig {
        BreakerConfig {
            window: 16,
            min_samples: 8,
            failure_rate_pct: 50,
            cooldown_nanos: 100_000_000,
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
pub(crate) struct CircuitBreaker {
    config: BreakerConfig,
    state: BreakerState,
    /// Last `len` results as bits (1 = failure), newest at `pos`.
    bits: u64,
    len: u32,
    pos: u32,
    failures: u32,
    opened_at: u64,
}

impl CircuitBreaker {
    pub(crate) fn new(config: BreakerConfig) -> CircuitBreaker {
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
        }
    }

    pub(crate) fn state(&self) -> BreakerState {
        self.state
    }

    /// May a call proceed at virtual time `now`? Transitions open →
    /// half-open once the cooldown has elapsed; a half-open breaker admits
    /// the probe (see the module docs for why one at a time).
    pub(crate) fn allow(&mut self, now: u64) -> bool {
        match self.state {
            BreakerState::Closed | BreakerState::HalfOpen => true,
            BreakerState::Open => {
                if now.saturating_sub(self.opened_at) >= self.config.cooldown_nanos {
                    self.state = BreakerState::HalfOpen;
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
    pub(crate) fn cooldown_remaining(&self, now: u64) -> Option<u64> {
        match self.state {
            BreakerState::Open => Some(
                self.opened_at
                    .saturating_add(self.config.cooldown_nanos)
                    .saturating_sub(now),
            ),
            BreakerState::Closed | BreakerState::HalfOpen => None,
        }
    }

    /// Record a call result observed at virtual time `now`.
    pub(crate) fn record(&mut self, now: u64, ok: bool) {
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
                if ok {
                    self.state = BreakerState::Closed;
                    self.bits = 0;
                    self.len = 0;
                    self.pos = 0;
                    self.failures = 0;
                } else {
                    self.trip(now);
                }
            }
            // Every result follows a granted `allow`, so none arrives
            // while open; one that did would carry nothing the breaker
            // still needs.
            BreakerState::Open => {}
        }
    }

    fn trip(&mut self, now: u64) {
        self.state = BreakerState::Open;
        self.opened_at = now;
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
        // Cooldown elapses → half-open, the probe is admitted.
        assert!(b.allow(1_004));
        assert_eq!(b.state(), BreakerState::HalfOpen);
        // A failed probe re-opens and restarts the cooldown from its own
        // time, not from the first trip...
        b.record(1_005, false);
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.cooldown_remaining(1_005), Some(1_000));
        assert!(!b.allow(1_500));
        assert!(!b.allow(2_004), "cooldown measured from the failed probe");
        // ...and one probe success closes it with a fresh window.
        assert!(b.allow(2_005));
        assert_eq!(b.state(), BreakerState::HalfOpen);
        b.record(2_006, true);
        assert_eq!(b.state(), BreakerState::Closed);
        // Fresh window: three failures alone don't reach min_samples.
        b.record(2_007, false);
        b.record(2_008, false);
        b.record(2_009, false);
        assert_eq!(b.state(), BreakerState::Closed);
        b.record(2_010, false);
        assert_eq!(b.state(), BreakerState::Open);
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
        // Half-open is no longer "open": no ETA.
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
