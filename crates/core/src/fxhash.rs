//! FxHash: the non-cryptographic multiply-and-rotate hasher used by rustc.
//!
//! The container image has no registry access, so the `fxhash`/`rustc-hash`
//! crates are re-implemented here (the algorithm is a few lines). Symbol and
//! short-string keys dominate this codebase and Fx is ~5x faster than the
//! default SipHash for them. It is NOT DoS-resistant, but request text
//! enters no hash table: a serve-path parse only looks the request's IRIs
//! and literals up in the interner's frozen base, which holds the engine's
//! own vocabulary, and finds a request's repeated terms by sorting them.
//! A client that crafts strings whose hashes collide can only walk the
//! probe chains the base already has, and lengthens none.

use std::hash::Hasher;

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

#[derive(Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add_to_hash(u64::from_le_bytes(chunk.try_into().unwrap()));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rest.len()].copy_from_slice(rest);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add_to_hash(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distinct_inputs_distinct_hashes() {
        let mut seen = std::collections::HashSet::new();
        for i in 0u32..10_000 {
            let mut h = FxHasher::default();
            h.write_u32(i);
            seen.insert(h.finish());
        }
        assert_eq!(seen.len(), 10_000);
    }

    #[test]
    fn string_hashing_is_consistent() {
        let hash = |s: &str| {
            let mut h = FxHasher::default();
            h.write(s.as_bytes());
            h.finish()
        };
        assert_eq!(hash("http://ex.org/p"), hash("http://ex.org/p"));
        assert_ne!(hash("http://ex.org/p"), hash("http://ex.org/q"));
    }
}
