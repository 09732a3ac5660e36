//! A fast, deterministic, non-cryptographic 64-bit hash.
//!
//! PAS hashes short strings (words, n-grams) extremely frequently for feature
//! extraction, so the default SipHash is a poor fit. This is the FxHash
//! algorithm used by rustc (word-at-a-time multiply-rotate), implemented here
//! so the workspace stays within its sanctioned dependency set. The hash is
//! stable across runs and platforms with the same endianness assumptions
//! (we read little-endian explicitly, so it is fully portable).

use std::hash::{BuildHasherDefault, Hasher};

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;
const ROTATE: u32 = 5;

/// Streaming FxHash hasher. Use [`FxHashMap`]/[`FxHashSet`] aliases for
/// hash-heavy collections keyed by small values.
#[derive(Debug, Default, Clone)]
pub struct FxHasher {
    state: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.state = (self.state.rotate_left(ROTATE) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let mut buf = [0u8; 8];
            buf.copy_from_slice(chunk);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            // The zero-padded little-endian word of the tail, assembled
            // byte by byte: short keys (trigrams, words) are all tail, and
            // this avoids a variable-length copy.
            let word = rem.iter().rev().fold(0u64, |acc, &b| (acc << 8) | b as u64);
            // Mix in the remainder length so "a" and "a\0" differ.
            self.add_to_hash(word ^ (rem.len() as u64));
        }
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
        // Multiply-based mixing leaves the low bits weak (the low byte of a
        // product depends only on the operands' low bytes), so run the
        // MurmurHash3 fmix64 avalanche before handing the value to hash
        // tables that index with low bits. Still only a handful of cycles.
        let mut h = self.state;
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        h ^= h >> 33;
        h
    }
}

/// `HashMap` keyed with FxHash; drop-in replacement for `std::collections::HashMap`.
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<FxHasher>>;
/// `HashSet` keyed with FxHash; drop-in replacement for `std::collections::HashSet`.
pub type FxHashSet<K> = std::collections::HashSet<K, BuildHasherDefault<FxHasher>>;

/// Hashes a byte slice to a stable 64-bit value.
#[inline]
pub fn fx_hash_bytes(bytes: &[u8]) -> u64 {
    let mut h = FxHasher::default();
    h.write(bytes);
    h.finish()
}

/// Hashes a string to a stable 64-bit value.
#[inline]
pub fn fx_hash_str(s: &str) -> u64 {
    fx_hash_bytes(s.as_bytes())
}

/// Combines two hashes into one (order-sensitive). Used for hierarchical
/// feature hashing, e.g. `(feature-namespace, token)`.
#[inline]
pub fn fx_combine(a: u64, b: u64) -> u64 {
    (a.rotate_left(ROTATE) ^ b).wrapping_mul(SEED)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_is_deterministic() {
        assert_eq!(fx_hash_str("hello"), fx_hash_str("hello"));
    }

    #[test]
    fn hash_differs_for_different_inputs() {
        assert_ne!(fx_hash_str("hello"), fx_hash_str("hellp"));
        assert_ne!(fx_hash_str("a"), fx_hash_str("b"));
    }

    #[test]
    fn trailing_zero_bytes_change_hash() {
        assert_ne!(fx_hash_bytes(b"a"), fx_hash_bytes(b"a\0"));
        assert_ne!(fx_hash_bytes(b""), fx_hash_bytes(b"\0"));
    }

    #[test]
    fn tail_word_is_zero_padded_little_endian() {
        // Feature hashes feed every embedding and golden fixture; pin the
        // zero-padded tail word for every remainder length.
        for len in 1..8 {
            let bytes = &b"\x01\x02\x03\x04\x05\x06\x07"[..len];
            let mut buf = [0u8; 8];
            buf[..len].copy_from_slice(bytes);
            let mut h = FxHasher::default();
            h.write(bytes);
            let want = (u64::from_le_bytes(buf) ^ len as u64).wrapping_mul(SEED);
            assert_eq!(h.state, want, "tail length {len}");
        }
    }

    #[test]
    fn combine_is_order_sensitive() {
        let (a, b) = (fx_hash_str("x"), fx_hash_str("y"));
        assert_ne!(fx_combine(a, b), fx_combine(b, a));
    }

    #[test]
    fn map_alias_works() {
        let mut m: FxHashMap<String, u32> = FxHashMap::default();
        m.insert("k".into(), 1);
        assert_eq!(m.get("k"), Some(&1));
    }

    #[test]
    fn distribution_spreads_low_bits() {
        // Low bits must vary across sequential keys or open-addressing tables
        // degrade. A perfect random hash throwing 256 balls into 256 bins
        // yields ~162 distinct values in expectation; require at least 120.
        let mut seen = std::collections::HashSet::new();
        for i in 0..256u32 {
            seen.insert((fx_hash_str(&format!("key-{i}")) & 0xff) as u8);
        }
        assert!(seen.len() > 120, "only {} distinct low bytes", seen.len());
    }
}
