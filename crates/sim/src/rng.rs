//! Deterministic pseudo-random number generation.
//!
//! The simulator cannot depend on ambient entropy — every experiment must be
//! bit-reproducible from its seed — so this module provides a small,
//! self-contained xoshiro256** generator seeded via SplitMix64 (the
//! initialization recommended by the xoshiro authors). The `rand` crate is
//! still used by workload *generators* at the harness layer, but everything
//! inside a simulation draws from a [`SimRng`] owned by the machine model.

/// SplitMix64 step: used to expand a single `u64` seed into generator state.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic xoshiro256** generator.
///
/// # Example
///
/// ```
/// use popcorn_sim::SimRng;
///
/// let mut a = SimRng::new(42);
/// let mut b = SimRng::new(42);
/// assert_eq!(a.next_u64(), b.next_u64()); // same seed, same stream
/// let die = a.range_u64(1, 7);
/// assert!((1..7).contains(&die));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimRng {
    s: [u64; 4],
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        SimRng { s }
    }

    /// Derives an independent child generator; used to give each simulated
    /// component its own stream so adding draws in one component does not
    /// perturb another.
    pub fn fork(&mut self, label: u64) -> SimRng {
        SimRng::new(self.next_u64() ^ label.wrapping_mul(0xA24B_AED4_963E_E407))
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform value in `[lo, hi)` via Lemire's unbiased method.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range [{lo}, {hi})");
        let span = hi - lo;
        // Rejection sampling on the multiply-shift trick.
        loop {
            let x = self.next_u64();
            let m = (x as u128).wrapping_mul(span as u128);
            let low = m as u64;
            if low >= span {
                return lo + (m >> 64) as u64;
            }
            // Bias zone: threshold test.
            let threshold = span.wrapping_neg() % span;
            if low >= threshold {
                return lo + (m >> 64) as u64;
            }
        }
    }

    /// Uniform `usize` in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn index(&mut self, n: usize) -> usize {
        self.range_u64(0, n as u64) as usize
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn f64(&mut self) -> f64 {
        // 53 random mantissa bits.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli draw with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.index(i + 1);
            xs.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::new(7);
        let mut b = SimRng::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn range_stays_in_bounds() {
        let mut r = SimRng::new(3);
        for _ in 0..10_000 {
            let v = r.range_u64(10, 20);
            assert!((10..20).contains(&v));
        }
    }

    #[test]
    fn range_covers_all_values() {
        let mut r = SimRng::new(4);
        let mut seen = [false; 8];
        for _ in 0..1_000 {
            seen[r.range_u64(0, 8) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        SimRng::new(0).range_u64(5, 5);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = SimRng::new(5);
        for _ in 0..10_000 {
            let v = r.f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn f64_mean_is_roughly_half() {
        let mut r = SimRng::new(6);
        let n = 100_000;
        let sum: f64 = (0..n).map(|_| r.f64()).sum();
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean} too far from 0.5");
    }

    #[test]
    fn fork_produces_independent_streams() {
        let mut root = SimRng::new(9);
        let mut c1 = root.fork(1);
        let mut c2 = root.fork(2);
        assert_ne!(c1.next_u64(), c2.next_u64());
    }

    #[test]
    fn fork_is_deterministic() {
        let mut a = SimRng::new(9).fork(1);
        let mut b = SimRng::new(9).fork(1);
        for _ in 0..10 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = SimRng::new(10);
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, (0..50).collect::<Vec<_>>(), "shuffle left input sorted");
    }

    #[test]
    fn chance_extremes() {
        let mut r = SimRng::new(11);
        assert!(!(0..100).any(|_| r.chance(0.0)));
        assert!((0..100).all(|_| r.chance(1.1)));
    }
}
