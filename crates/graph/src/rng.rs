//! Small deterministic RNG helpers.
//!
//! Hot inner loops (random matching, GGGP seed picks, tie-breaking) use a
//! hand-rolled SplitMix64: it is fast, has no dependencies, and — unlike
//! thread-local RNGs — gives every thread/GPU-lane its own deterministic
//! stream derived from a seed and a stream id, which keeps the racy
//! lock-free algorithms reproducible enough to test invariants on.

use crate::csr::Vid;

/// SplitMix64 PRNG. Passes BigCrush; one multiply-xor-shift pipeline per
/// draw.
#[derive(Clone, Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Seeded constructor.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed.wrapping_add(0x9E37_79B9_7F4A_7C15) }
    }

    /// Derive an independent stream for `(seed, stream)` — used to give
    /// each thread or lane its own generator.
    pub fn stream(seed: u64, stream: u64) -> Self {
        let mut r = SplitMix64::new(seed ^ stream.wrapping_mul(0xBF58_476D_1CE4_E5B9));
        r.next_u64(); // decorrelate nearby streams
        r
    }

    /// Next 64 random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Next 32 random bits.
    #[inline]
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Uniform integer in `[0, bound)` (Lemire's method). `bound` must be
    /// nonzero.
    #[inline]
    pub fn below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli draw with probability `p`.
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }
}

/// Fisher–Yates shuffle of `xs` driven by `rng`.
pub fn shuffle<T>(xs: &mut [T], rng: &mut SplitMix64) {
    let n = xs.len();
    for i in (1..n).rev() {
        let j = rng.below((i + 1) as u64) as usize;
        xs.swap(i, j);
    }
}

/// A random permutation of `0..n`. The draw sequence depends only on `n`.
pub fn random_permutation(n: usize, rng: &mut SplitMix64) -> Vec<Vid> {
    let mut p: Vec<Vid> = (0..n as Vid).collect();
    shuffle(&mut p, rng);
    p
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_seed() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn streams_are_independent() {
        let mut a = SplitMix64::stream(7, 0);
        let mut b = SplitMix64::stream(7, 1);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn below_respects_bound() {
        let mut r = SplitMix64::new(9);
        for _ in 0..10_000 {
            assert!(r.below(17) < 17);
        }
    }

    #[test]
    fn below_covers_range() {
        let mut r = SplitMix64::new(3);
        let mut seen = [false; 8];
        for _ in 0..1_000 {
            seen[r.below(8) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = SplitMix64::new(11);
        for _ in 0..10_000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn permutation_is_permutation() {
        let mut r = SplitMix64::new(5);
        let p = random_permutation(100, &mut r);
        let mut q = p.clone();
        q.sort_unstable();
        assert_eq!(q, (0..100).collect::<Vec<Vid>>());
    }

    #[test]
    fn chance_extremes() {
        let mut r = SplitMix64::new(13);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
    }
}
