//! Deterministic hashing for the simulator's id-keyed tables.
//!
//! Every hash map in the model is keyed by small integer ids the program
//! allocates itself (tids, rpc ids, cores, kernel pairs, pages, futex
//! words), never by input from outside. The standard map's SipHash with a
//! per-process random seed guards against keys an attacker picks, which
//! cannot happen here, and costs several times more per lookup than the
//! multiply-rotate hash rustc uses for its own tables ("FxHash"). This
//! module is that hash, with no seed: a map's iteration order is a fixed
//! function of its keys and insertion history. Output still sorts before
//! it is written, so nothing depends on that order.
//!
//! # Example
//!
//! ```
//! use popcorn_sim::hash::FxHashMap;
//! let mut m: FxHashMap<u32, &str> = FxHashMap::default();
//! m.insert(7, "seven");
//! assert_eq!(m.get(&7), Some(&"seven"));
//! ```

use std::hash::{BuildHasherDefault, Hasher};

/// rustc's FxHash: each word is folded in as
/// `hash = (hash.rotl(5) ^ word) * SEED`.
///
/// Byte slices are read little-endian in 8-byte words, then a 4-, 2- and
/// 1-byte tail, so the value is the same on every host.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.add(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
        let mut rest = words.remainder();
        if rest.len() >= 4 {
            self.add(u32::from_le_bytes(rest[..4].try_into().expect("4 bytes")).into());
            rest = &rest[4..];
        }
        if rest.len() >= 2 {
            self.add(u16::from_le_bytes(rest[..2].try_into().expect("2 bytes")).into());
            rest = &rest[2..];
        }
        if let Some(&b) = rest.first() {
            self.add(b.into());
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(i.into());
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(i.into());
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(i.into());
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// The map every id-keyed table in the workspace uses. Create one with
/// `FxHashMap::default()`.
#[allow(clippy::disallowed_types)]
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<FxHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn fx<T: Hash>(v: T) -> u64 {
        BuildHasherDefault::<FxHasher>::default().hash_one(v)
    }

    #[test]
    fn integer_and_tuple_hashes_are_pinned() {
        assert_eq!(fx(1u16), SEED);
        assert_eq!(fx(1u32), SEED);
        assert_eq!(fx(1u64), SEED);
        assert_eq!(
            fx(0x1234_5678_9abc_def0u64),
            0x1234_5678_9abc_def0u64.wrapping_mul(SEED)
        );
        assert_eq!(fx(3u16), 0xf476_4525_7566_1fbf);
        assert_eq!(fx(7u32), 0x3a69_4c02_11ee_4a13);
        assert_eq!(fx(u64::MAX), 0xae83_3e48_d8dd_f56b);
        // A tuple hashes its fields in order: (1, 2) folds 1, then 2.
        assert_eq!(
            fx((1u16, 2u16)),
            (SEED.rotate_left(5) ^ 2).wrapping_mul(SEED)
        );
        assert_eq!(fx((1u16, 2u16)), 0x6a4b_e67f_f98f_abc8);
    }

    #[test]
    fn byte_slice_tail_is_hashed_word_by_word() {
        // 13 bytes: one 8-byte word, then a 4-byte and a 1-byte tail.
        let bytes: Vec<u8> = (1..=13).collect();
        let mut h = FxHasher::default();
        h.write(&bytes);
        let mut want = FxHasher::default();
        want.add(u64::from_le_bytes([1, 2, 3, 4, 5, 6, 7, 8]));
        want.add(u32::from_le_bytes([9, 10, 11, 12]).into());
        want.add(13);
        assert_eq!(h.finish(), want.finish());
        assert_eq!(h.finish(), 0x5063_b701_6f4a_623f);
        // Every tail byte matters.
        let mut other = bytes.clone();
        other[12] = 14;
        let mut h2 = FxHasher::default();
        h2.write(&other);
        assert_ne!(h.finish(), h2.finish());
    }

    #[test]
    fn same_insertions_iterate_in_the_same_order() {
        let build = || {
            let mut m: FxHashMap<(u16, u64), u32> = FxHashMap::default();
            let mut x = 1u64;
            for i in 0..500u32 {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                m.insert(((x >> 48) as u16, x % 4096), i);
                if i % 7 == 0 {
                    m.remove(&((x >> 48) as u16, x % 4096));
                }
            }
            m.into_iter().collect::<Vec<_>>()
        };
        let a = build();
        assert!(a.len() > 400);
        assert_eq!(a, build());
    }
}
