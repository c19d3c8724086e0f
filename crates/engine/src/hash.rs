//! Fast non-cryptographic hashing for internal hash indexes.
//!
//! Join builds and group-by dictionaries hash millions of small keys per
//! query into tables that live only for the duration of one kernel call,
//! so SipHash's DoS resistance buys nothing while its per-write cost
//! dominates the probe loop. [`FxHasher`] uses the multiply-rotate-xor
//! scheme popularized by the Firefox/rustc hasher: one multiply per
//! 8-byte word.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` keyed through [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Multiply-rotate-xor hasher; one multiply per 8-byte word written.
#[derive(Debug, Default)]
pub struct FxHasher {
    hash: u64,
}

/// One multiply-rotate-xor step: `hash` with `word` mixed in.
#[inline]
pub(crate) fn mix(hash: u64, word: u64) -> u64 {
    (hash.rotate_left(5) ^ word).wrapping_mul(SEED)
}

/// `hash` with `bytes` mixed in, eight at a time (the last word zero-padded).
#[inline]
pub(crate) fn mix_bytes(hash: u64, bytes: &[u8]) -> u64 {
    bytes.chunks(8).fold(hash, |hash, chunk| {
        let mut buf = [0u8; 8];
        buf[..chunk.len()].copy_from_slice(chunk);
        mix(hash, u64::from_le_bytes(buf))
    })
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = mix(self.hash, word);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        self.hash = mix_bytes(self.hash, bytes);
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    #[inline]
    fn write_u128(&mut self, v: u128) {
        self.add(v as u64);
        self.add((v >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_sensitive() {
        let h = |bytes: &[u8]| {
            let mut hasher = FxHasher::default();
            hasher.write(bytes);
            hasher.finish()
        };
        assert_eq!(h(b"datachat"), h(b"datachat"));
        assert_ne!(h(b"datachat"), h(b"datachaT"));
        assert_ne!(h(b"ab"), h(b"ba"));
    }

    #[test]
    fn map_roundtrip() {
        let mut map: FxHashMap<i64, usize> = FxHashMap::default();
        for i in 0..1000 {
            map.insert(i, i as usize * 2);
        }
        assert_eq!(map.len(), 1000);
        assert_eq!(map[&500], 1000);
    }
}
