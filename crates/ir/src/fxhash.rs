//! A local FxHash-style hasher for hot sparse maps.
//!
//! `std::collections::HashMap`'s default SipHash is DoS-resistant but costs
//! tens of cycles per lookup — measurable when the paged [`crate::Memory`]
//! or the simulator's cache model performs one map operation per simulated
//! memory access. Page numbers, set indices, and line addresses are not
//! attacker-controlled, so these maps use the rustc-style multiply-rotate
//! hash instead (the same trade rustc itself makes): one rotate, one xor,
//! one multiply per 8 bytes.
//!
//! This is the only definition: the memory model, the simulator's cache
//! model, and the engine and analyzer fingerprints all use it, so every map
//! and key in the workspace hashes identically.

use std::hash::{BuildHasher, Hasher};

const K: u64 = 0x517c_c1b7_2722_0a95;

/// Multiply-rotate hasher (FxHash); not DoS-resistant, not for untrusted keys.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().unwrap()));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(n as u64);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(n as u64);
    }
}

/// [`BuildHasher`] producing [`FxHasher`]s; plug into `HashMap::with_hasher`.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxBuildHasher;

impl BuildHasher for FxBuildHasher {
    type Hasher = FxHasher;

    #[inline]
    fn build_hasher(&self) -> FxHasher {
        FxHasher::default()
    }
}

/// A `HashMap` keyed with [`FxHasher`] — the hot-map type.
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    fn hash_one<T: Hash>(v: T) -> u64 {
        let mut h = FxHasher::default();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn deterministic_and_spreading() {
        assert_eq!(hash_one(42u64), hash_one(42u64));
        // Consecutive small keys (the common set-index pattern) must not
        // collide and should differ in their low bits (HashMap bucket bits).
        let hs: Vec<u64> = (0..1024u64).map(hash_one).collect();
        let mut uniq = hs.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), hs.len(), "no collisions on 1k consecutive keys");
        let low_bits: std::collections::HashSet<u64> = hs.iter().map(|h| h & 0xff).collect();
        assert!(low_bits.len() > 200, "low bits spread: {}", low_bits.len());
    }

    #[test]
    fn byte_stream_matches_word_writes_for_aligned_input() {
        // Not required by the Hasher contract, but documents that the
        // bytewise path chunks by little-endian u64 words.
        let mut a = FxHasher::default();
        a.write(&7u64.to_le_bytes());
        let mut b = FxHasher::default();
        b.write_u64(7);
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn map_works() {
        let mut m: FxHashMap<u64, u64> = FxHashMap::default();
        for i in 0..100 {
            m.insert(i, i * 2);
        }
        assert_eq!(m.get(&50), Some(&100));
        assert_eq!(m.len(), 100);
    }
}
