//! # sparql-rewrite-chaos
//!
//! Seeded fault injection for the workspace's tests. Nothing here ships:
//! the crate is only ever a `[dev-dependencies]` entry of
//! `sparql-rewrite-core` and `sparql-rewrite-server`, and CI fails if a
//! shipped crate links it.
//!
//! Every injector draws from one schedule, [`draw`]: a stateless
//! SplitMix64 roll keyed on `(seed, conn, req, salt)`, walked against a
//! list of per-class percentages. The adapters differ only in their key
//! and their classes:
//!
//! | adapter                        | key                 | classes                       |
//! |--------------------------------|---------------------|-------------------------------|
//! | [`ChaosProxy`] (endpoint side) | `[conn, req, 0]`    | [`FaultClass`]                |
//! | the server tests' chaos client | `[conn, req, 0xfa]` | [`ClientFault`]               |
//! | [`MockTransport`] (no socket)  | `[endpoint, n, 1]`  | transient / permanent / stall |
//!
//! so a seed replays the same fault sequence on every run, whatever the
//! thread timing. [`counting_alloc`] is the allocation counter the
//! zero-allocation tests register as their global allocator, and
//! [`canonical_text`] is the federated-result transcript line the
//! determinism tests byte-compare.

mod client;
pub mod counting_alloc;
mod mock;
mod proxy;

pub use client::ClientFault;
pub use mock::{FaultSpec, MockTransport};
pub use proxy::{ChaosProxy, ChaosSpec, FaultClass};

use std::fmt::Write as _;

use sparql_rewrite_core::{mix_chain, FederatedResult};

/// The one fault schedule: the index of the class slot `key` falls in
/// under `seed`, or `None` for the remainder (the healthy share).
///
/// One `% 100` roll is walked against the cumulative `pcts`, so class `i`
/// gets `pcts[i]` percent of the slots.
///
/// # Panics
///
/// If `pcts` sums past 100: the later classes would silently shrink.
pub fn draw(seed: u64, key: [u64; 3], pcts: &[u8]) -> Option<usize> {
    let roll = mix_chain(seed, &key) % 100;
    let mut acc = 0u64;
    let mut class = None;
    for (i, &pct) in pcts.iter().enumerate() {
        acc += u64::from(pct);
        if class.is_none() && roll < acc {
            class = Some(i);
        }
    }
    assert!(acc <= 100, "fault percentages sum to {acc}, past 100");
    class
}

/// Canonical textual form of `result`, one line per endpoint report and
/// stable across processes: what the determinism tests byte-compare.
pub fn canonical_text(result: &FederatedResult) -> String {
    let mut out = String::new();
    for r in &result.reports {
        let _ = writeln!(
            out,
            "ep={} outcome={:?} breaker={:?} rows={}",
            r.endpoint.0,
            r.outcome,
            r.breaker,
            r.rows.as_deref().unwrap_or("-")
        );
    }
    out
}

/// FNV-1a over the query text: stamps mock and proxy payloads so tests can
/// tell which subquery produced which rows.
fn fnv1a(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.bytes() {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparql_rewrite_core::{EndpointId, EndpointTransport, TransportError, TransportRequest};

    /// The first 64 draws of each adapter at seed `0x5eed`. The soak legs
    /// compare two runs of one build, so a schedule change across versions
    /// passes them; it fails here.
    #[test]
    fn every_adapter_draws_its_recorded_schedule() {
        let seed = 0x5eed;
        let spec = ChaosSpec {
            pcts: [0, 5, 10, 5, 10, 10, 10, 10, 10],
            ..ChaosSpec::default()
        };
        let (mut proxy, mut client) = (String::new(), String::new());
        for conn in 0..8 {
            for req in 0..8 {
                proxy.push_str(&spec.draw(seed, conn, req).index().to_string());
                client.push_str(&ClientFault::draw(seed, conn, req).index().to_string());
            }
        }
        let mock = MockTransport::new(
            seed,
            vec![FaultSpec {
                transient_pct: 20,
                permanent_pct: 10,
                timeout_pct: 10,
                ..FaultSpec::default()
            }],
        );
        let req = TransportRequest {
            endpoint: EndpointId(0),
            query: "q",
            attempt: 1,
            budget_nanos: u64::MAX / 2,
        };
        let outcomes: String = (0..64)
            .map(|_| match mock.execute(&req).payload {
                Err(TransportError::Transient) => 't',
                Err(TransportError::Permanent) => 'p',
                Ok(rows) if rows.is_empty() => 's',
                Ok(_) => 'o',
            })
            .collect();
        assert_eq!(
            [proxy, client, outcomes],
            [
                "7626805220038006001327050406364677028065586554867200466672587076",
                "2758207307874358845528155601030030007543300050040800016100010303",
                "ottppptooopoottooosostootopoootootooossoootoooooostoototooossooo",
            ]
        );
    }

    #[test]
    #[should_panic(expected = "past 100")]
    fn percentages_summing_past_100_are_rejected() {
        draw(1, [0, 0, 0], &[60, 30, 11]);
    }

    #[test]
    fn adapters_reject_a_mix_past_100_when_built() {
        let spec = ChaosSpec::with(&[(FaultClass::Refuse, 60), (FaultClass::Reset, 50)]);
        assert!(std::panic::catch_unwind(|| ChaosProxy::spawn(1, spec)).is_err());
        let faults = FaultSpec {
            permanent_pct: 90,
            ..FaultSpec::transient(20)
        };
        assert!(std::panic::catch_unwind(|| MockTransport::new(1, vec![faults])).is_err());
    }
}
