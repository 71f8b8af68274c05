//! Offline stand-in for the `rand` crate.
//!
//! The build environment has no network access, so the workspace vendors
//! the tiny API subset it actually uses: [`StdRng`] seeded via
//! [`SeedableRng::seed_from_u64`], plus [`Rng::gen_range`] / [`Rng::gen_bool`].
//! The generator is SplitMix64 — deterministic, fast, and more than good
//! enough for workload generation (it is *not* cryptographic, and it does
//! not reproduce upstream rand's streams).

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod rngs {
    /// A deterministic 64-bit generator (SplitMix64 core).
    #[derive(Debug, Clone)]
    pub struct StdRng {
        state: u64,
    }

    impl StdRng {
        pub(crate) fn from_state(state: u64) -> StdRng {
            StdRng { state }
        }

        pub(crate) fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }
}

pub use rngs::StdRng;

/// Seeding, mirroring `rand::SeedableRng`.
pub trait SeedableRng: Sized {
    /// Builds a generator from a 64-bit seed.
    fn seed_from_u64(seed: u64) -> Self;
}

impl SeedableRng for StdRng {
    fn seed_from_u64(seed: u64) -> StdRng {
        // One scramble round so that small seeds diverge immediately.
        let mut r = StdRng::from_state(seed ^ 0x5DEE_CE66_D016_3C4F);
        r.next_u64();
        r
    }
}

/// Types that can be drawn uniformly from a half-open range.
pub trait SampleUniform: Copy {
    /// Uniform draw from `[lo, hi)`; `hi > lo` required.
    fn sample_range(rng: &mut StdRng, lo: Self, hi: Self) -> Self;
}

macro_rules! impl_sample_uniform {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_range(rng: &mut StdRng, lo: Self, hi: Self) -> Self {
                assert!(hi > lo, "gen_range requires a non-empty range");
                let span = (hi as u64).wrapping_sub(lo as u64);
                // Modulo bias is irrelevant at workload-generation scale.
                lo.wrapping_add((rng.next_u64() % span) as $t)
            }
        }
    )*};
}

impl_sample_uniform!(u8, u16, u32, u64, usize, i32, i64, isize);

/// The API subset of `rand::Rng` this workspace uses.
pub trait Rng {
    /// Uniform draw from a half-open range.
    fn gen_range<T: SampleUniform>(&mut self, range: std::ops::Range<T>) -> T;

    /// Bernoulli draw with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool;
}

impl Rng for StdRng {
    fn gen_range<T: SampleUniform>(&mut self, range: std::ops::Range<T>) -> T {
        T::sample_range(self, range.start, range.end)
    }

    fn gen_bool(&mut self, p: f64) -> bool {
        debug_assert!((0.0..=1.0).contains(&p));
        ((self.next_u64() >> 11) as f64) * (1.0 / (1u64 << 53) as f64) < p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut r = StdRng::seed_from_u64(1);
        for _ in 0..1000 {
            let x = r.gen_range(3u32..17);
            assert!((3..17).contains(&x));
            let y = r.gen_range(0usize..5);
            assert!(y < 5);
        }
    }

    #[test]
    fn gen_bool_rates() {
        let mut r = StdRng::seed_from_u64(2);
        let hits = (0..10_000).filter(|_| r.gen_bool(0.25)).count();
        assert!((2000..3000).contains(&hits), "got {hits}");
    }
}
