//! Bounded retries with seeded, jittered exponential backoff.

/// Retry/backoff policy applied per endpoint call by the
/// [`FederatedExecutor`](super::FederatedExecutor).
///
/// The delay before retry `k` (1-based) is exponential —
/// `base_nanos << (k - 1)`, clamped to `max_nanos` — with *equal jitter*:
/// half the clamped delay is kept fixed and the other half is drawn
/// uniformly from a seeded stream, so retries from independent callers
/// decorrelate (no thundering herd) while identical seeds replay the exact
/// same schedule.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct BackoffPolicy {
    /// Delay before the first retry, in virtual nanoseconds.
    pub base_nanos: u64,
    /// Upper clamp on any single delay — also the "backoff quantum" the
    /// deadline contract is stated in: an execution never overshoots its
    /// deadline by more than one `max_nanos`.
    pub max_nanos: u64,
    /// Retries permitted after the initial attempt (0 = no retries).
    pub max_retries: u32,
}

impl BackoffPolicy {
    /// A policy that never retries (and thus never sleeps).
    pub fn none() -> BackoffPolicy {
        BackoffPolicy {
            base_nanos: 0,
            max_nanos: 0,
            max_retries: 0,
        }
    }

    /// Jittered delay before retry `retry` (1-based). `draw` is one 64-bit
    /// value from the caller's seeded stream; passing the same draw yields
    /// the same delay.
    pub(crate) fn delay_nanos(&self, retry: u32, draw: u64) -> u64 {
        if self.base_nanos == 0 {
            return 0;
        }
        let shift = (retry.saturating_sub(1)).min(32);
        let raw = self
            .base_nanos
            .checked_shl(shift)
            .unwrap_or(u64::MAX)
            .min(self.max_nanos.max(self.base_nanos));
        // Equal jitter: fixed half plus a uniform draw over the other half.
        let half = raw / 2;
        half + draw % (raw - half + 1)
    }
}

impl Default for BackoffPolicy {
    /// 2ms base, 50ms clamp, 3 retries — sized for the mock transport's
    /// virtual-time scale.
    fn default() -> BackoffPolicy {
        BackoffPolicy {
            base_nanos: 2_000_000,
            max_nanos: 50_000_000,
            max_retries: 3,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::federate::mix_chain;

    #[test]
    fn delays_grow_exponentially_and_clamp() {
        let p = BackoffPolicy {
            base_nanos: 1_000,
            max_nanos: 8_000,
            max_retries: 10,
        };
        // Draw 0 gives the fixed lower half: raw/2.
        assert_eq!(p.delay_nanos(1, 0), 500);
        assert_eq!(p.delay_nanos(2, 0), 1_000);
        assert_eq!(p.delay_nanos(3, 0), 2_000);
        // Clamped at max from retry 4 on.
        assert_eq!(p.delay_nanos(4, 0), 4_000);
        assert_eq!(p.delay_nanos(9, 0), 4_000);
        // Jitter stays within [raw/2, raw].
        for retry in 1..6 {
            for salt in 0..50u64 {
                let d = p.delay_nanos(retry, mix_chain(7, &[retry as u64, salt]));
                let raw = (1_000u64 << (retry - 1)).min(8_000);
                assert!(
                    d >= raw / 2 && d <= raw,
                    "retry {retry}: {d} not in [{}, {raw}]",
                    raw / 2
                );
            }
        }
    }

    #[test]
    fn same_draw_same_delay() {
        let p = BackoffPolicy::default();
        let draw = mix_chain(42, &[1, 2, 3]);
        assert_eq!(p.delay_nanos(2, draw), p.delay_nanos(2, draw));
    }

    #[test]
    fn none_policy_never_sleeps() {
        let p = BackoffPolicy::none();
        assert_eq!(p.max_retries, 0);
        assert_eq!(p.delay_nanos(1, u64::MAX), 0);
    }
}
