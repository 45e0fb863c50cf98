//! The workspace's one pseudo-random generator.
//!
//! [`splitmix64`] is the SplitMix64 output function (Steele, Lea & Flood,
//! OOPSLA 2014) and the only copy of its finalizer outside `benchmark/`:
//! seed derivation (`dim_cluster::rng`), chaos schedules, reconnect jitter
//! and trivalency weights all call it. [`Rng`] is the SplitMix64 sequence
//! built on it — state stepped by the golden-ratio increment, every output
//! the finalizer of the state. It is the stream behind every committed
//! `BENCH_*.json` row, so RR sets, θ, seeds and marginals are functions of
//! the run's seed alone.
//!
//! [`Rng::below`] reduces with `raw % n`: values below `2⁶⁴ mod n` are
//! over-represented by one part in `⌊2⁶⁴ / n⌋`, a bias of at most `n / 2⁶⁴`
//! (< 2⁻³² for any `u32`-indexed graph) — far below the `ε` of every
//! estimator here, and cheaper than a rejection loop on the sampling path.

/// SplitMix64 output function: the finalizer applied to `x` plus the
/// golden-ratio increment. A bijection on `u64` with full avalanche.
#[inline]
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(GOLDEN_GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `⌊2⁶⁴ / φ⌋`, odd: the SplitMix64 state increment.
const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// SplitMix64 sequence generator: period 2⁶⁴, one add and one finalizer
/// per draw, fully determined by its 64-bit seed.
#[derive(Clone, Debug)]
pub struct Rng {
    state: u64,
}

impl Rng {
    /// A generator whose stream is a pure function of `seed`.
    pub fn new(seed: u64) -> Self {
        Rng { state: seed }
    }

    /// The next 64 uniformly distributed bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let out = splitmix64(self.state);
        self.state = self.state.wrapping_add(GOLDEN_GAMMA);
        out
    }

    /// Uniform in `[0, 1)` with 53 random mantissa bits.
    #[inline]
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, 1)` with 24 random mantissa bits.
    #[inline]
    pub fn f32(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 / (1u64 << 24) as f32
    }

    /// Uniform in `0..n` up to the modulo bias stated in the module docs.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    #[inline]
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "cannot sample from an empty range");
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle, from the last position down.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_published_splitmix64_vector() {
        // Reference outputs of Vigna's splitmix64.c seeded with
        // 1234567 (the vector used by the xoshiro test suites).
        let mut rng = Rng::new(1234567);
        let got: Vec<u64> = (0..5).map(|_| rng.next_u64()).collect();
        assert_eq!(
            got,
            [
                6457827717110365317,
                3203168211198807973,
                9817491932198370423,
                4593380528125082431,
                16408922859458223821,
            ]
        );
        assert_eq!(
            splitmix64(1234567),
            got[0],
            "first draw is the finalizer of the seed"
        );
    }

    #[test]
    fn below_stays_in_range() {
        let mut rng = Rng::new(7);
        for n in [1usize, 2, 3, 10, 1 << 20, usize::MAX] {
            for _ in 0..200 {
                assert!(rng.below(n) < n);
            }
        }
    }

    #[test]
    fn floats_in_unit_interval() {
        let mut rng = Rng::new(8);
        for _ in 0..10_000 {
            let x = rng.f64();
            assert!((0.0..1.0).contains(&x));
            let y = rng.f32();
            assert!((0.0..1.0).contains(&y));
        }
    }

    #[test]
    fn shuffle_is_a_deterministic_permutation() {
        let shuffled = |seed: u64| {
            let mut v: Vec<u32> = (0..100).collect();
            Rng::new(seed).shuffle(&mut v);
            v
        };
        let a = shuffled(3);
        assert_eq!(a, shuffled(3));
        assert_ne!(a, shuffled(4));
        assert_ne!(a, (0..100).collect::<Vec<u32>>());
        let mut sorted = a;
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<u32>>());
    }
}
