//! Vendored shim of `rand` 0.8: the subset this workspace uses.
//!
//! Provides [`rngs::SmallRng`] (xoshiro256++ seeded via SplitMix64),
//! the [`Rng`] / [`SeedableRng`] traits with `gen`, `gen_range`, `gen_bool`,
//! and [`seq::SliceRandom`] with `shuffle`/`choose`. Deterministic given a
//! seed, like the real crate — but the exact streams differ from upstream
//! rand, which is fine: nothing in the repo depends on upstream's bit
//! sequences, only on determinism and rough uniformity.

use std::ops::Range;

/// Low-level uniform bit source.
pub trait RngCore {
    /// Next 64 uniformly random bits.
    fn next_u64(&mut self) -> u64;

    /// Next 32 uniformly random bits.
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Fills `dest` with random bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let bytes = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
    }
}

/// Types that can be sampled uniformly from an RNG's raw bits.
pub trait Standard: Sized {
    /// Draws one value.
    fn draw(rng: &mut dyn RngCore) -> Self;
}

impl Standard for u8 {
    fn draw(rng: &mut dyn RngCore) -> Self {
        (rng.next_u64() >> 56) as u8
    }
}
impl Standard for u16 {
    fn draw(rng: &mut dyn RngCore) -> Self {
        (rng.next_u64() >> 48) as u16
    }
}
impl Standard for u32 {
    fn draw(rng: &mut dyn RngCore) -> Self {
        rng.next_u32()
    }
}
impl Standard for u64 {
    fn draw(rng: &mut dyn RngCore) -> Self {
        rng.next_u64()
    }
}
impl Standard for usize {
    fn draw(rng: &mut dyn RngCore) -> Self {
        rng.next_u64() as usize
    }
}
impl Standard for bool {
    fn draw(rng: &mut dyn RngCore) -> Self {
        rng.next_u64() & 1 == 1
    }
}
impl Standard for f64 {
    fn draw(rng: &mut dyn RngCore) -> Self {
        // 53 uniform mantissa bits in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}
impl Standard for f32 {
    fn draw(rng: &mut dyn RngCore) -> Self {
        (rng.next_u32() >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

/// Ranges that [`Rng::gen_range`] can sample from.
pub trait SampleRange<T> {
    /// Draws a uniform value from the range.
    fn sample(self, rng: &mut dyn RngCore) -> T;
}

macro_rules! impl_int_sample_range {
    ($($t:ty),*) => {
        $(
            impl SampleRange<$t> for Range<$t> {
                fn sample(self, rng: &mut dyn RngCore) -> $t {
                    assert!(self.start < self.end, "cannot sample empty range");
                    let span = (self.end as u128) - (self.start as u128);
                    // Modulo bias is < 2^-64 for every span used in-repo.
                    let r = (rng.next_u64() as u128) % span;
                    (self.start as u128 + r) as $t
                }
            }
            impl SampleRange<$t> for std::ops::RangeInclusive<$t> {
                fn sample(self, rng: &mut dyn RngCore) -> $t {
                    let (start, end) = (*self.start(), *self.end());
                    assert!(start <= end, "cannot sample empty range");
                    let span = (end as u128) - (start as u128) + 1;
                    let r = (rng.next_u64() as u128) % span;
                    (start as u128 + r) as $t
                }
            }
        )*
    };
}

impl_int_sample_range!(u8, u16, u32, u64, usize);

macro_rules! impl_signed_sample_range {
    ($($t:ty),*) => {
        $(
            impl SampleRange<$t> for Range<$t> {
                fn sample(self, rng: &mut dyn RngCore) -> $t {
                    assert!(self.start < self.end, "cannot sample empty range");
                    let span = (self.end as i128 - self.start as i128) as u128;
                    let r = (rng.next_u64() as u128) % span;
                    (self.start as i128 + r as i128) as $t
                }
            }
        )*
    };
}

impl_signed_sample_range!(i8, i16, i32, i64, isize);

impl SampleRange<f64> for Range<f64> {
    fn sample(self, rng: &mut dyn RngCore) -> f64 {
        assert!(self.start < self.end, "cannot sample empty range");
        self.start + f64::draw(rng) * (self.end - self.start)
    }
}

/// High-level convenience methods over [`RngCore`].
pub trait Rng: RngCore {
    /// Uniform value of type `T`.
    fn gen<T: Standard>(&mut self) -> T
    where
        Self: Sized,
    {
        T::draw(self)
    }

    /// Uniform value in `range` (half-open or inclusive).
    fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T
    where
        Self: Sized,
    {
        range.sample(self)
    }

    /// `true` with probability `p`.
    ///
    /// # Panics
    /// Panics if `p` is not in `[0, 1]`.
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        assert!((0.0..=1.0).contains(&p), "probability out of range: {p}");
        f64::draw(self) < p
    }

    /// Fills a mutable slice with random bytes.
    fn fill(&mut self, dest: &mut [u8])
    where
        Self: Sized,
    {
        self.fill_bytes(dest);
    }
}

impl<R: RngCore> Rng for R {}

/// RNGs constructible from seed material.
pub trait SeedableRng: Sized {
    /// Builds the RNG from a 64-bit seed (via SplitMix64 expansion).
    fn seed_from_u64(seed: u64) -> Self;

    /// Builds the RNG from OS entropy. This shim derives entropy from the
    /// system clock + a counter: good enough for tests and benches, which is
    /// all the workspace uses it for.
    // Entropy, not simulated time: the wall clock is the seed source.
    #[allow(clippy::disallowed_types)]
    fn from_entropy() -> Self {
        use std::sync::atomic::{AtomicU64, Ordering};
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let t = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0x9E37_79B9_7F4A_7C15);
        Self::seed_from_u64(t ^ COUNTER.fetch_add(0x6C62_272E_07BB_0142, Ordering::Relaxed))
    }
}

/// SplitMix64 step, used for seed expansion.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

pub mod rngs {
    //! Concrete RNGs.

    use super::{splitmix64, RngCore, SeedableRng};

    /// A small, fast, non-cryptographic RNG: xoshiro256++.
    #[derive(Debug, Clone)]
    pub struct SmallRng {
        s: [u64; 4],
    }

    impl RngCore for SmallRng {
        fn next_u64(&mut self) -> u64 {
            let result = self.s[0]
                .wrapping_add(self.s[3])
                .rotate_left(23)
                .wrapping_add(self.s[0]);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            result
        }
    }

    impl SeedableRng for SmallRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut sm = seed;
            let mut s = [0u64; 4];
            for slot in &mut s {
                *slot = splitmix64(&mut sm);
            }
            // xoshiro's all-zero state is degenerate; splitmix64 of any seed
            // cannot produce four zeros, but guard anyway.
            if s == [0; 4] {
                s[0] = 0x9E37_79B9_7F4A_7C15;
            }
            SmallRng { s }
        }
    }
}

/// Sequence-related extensions: the thread-RNG-free API surface the
/// repo touches.
pub mod seq {
    use super::{Rng, RngCore};

    /// Random operations on slices.
    pub trait SliceRandom {
        /// Element type.
        type Item;

        /// Shuffles the slice in place (Fisher–Yates).
        fn shuffle<R: Rng + RngCore>(&mut self, rng: &mut R);

        /// Uniformly random element, `None` when empty.
        fn choose<R: Rng + RngCore>(&self, rng: &mut R) -> Option<&Self::Item>;
    }

    impl<T> SliceRandom for [T] {
        type Item = T;

        fn shuffle<R: Rng + RngCore>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                let j = rng.gen_range(0..i + 1);
                self.swap(i, j);
            }
        }

        fn choose<R: Rng + RngCore>(&self, rng: &mut R) -> Option<&T> {
            if self.is_empty() {
                None
            } else {
                Some(&self[rng.gen_range(0..self.len())])
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::SmallRng;
    use super::seq::SliceRandom;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_from_seed() {
        let mut a = SmallRng::seed_from_u64(7);
        let mut b = SmallRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn distinct_seeds_diverge() {
        let mut a = SmallRng::seed_from_u64(1);
        let mut b = SmallRng::seed_from_u64(2);
        let same = (0..64).filter(|_| a.gen::<u64>() == b.gen::<u64>()).count();
        assert!(same < 4);
    }

    #[test]
    fn gen_range_bounds() {
        let mut r = SmallRng::seed_from_u64(3);
        for _ in 0..10_000 {
            let x = r.gen_range(10u64..20);
            assert!((10..20).contains(&x));
            let y = r.gen_range(0..1usize);
            assert_eq!(y, 0);
        }
    }

    #[test]
    fn gen_f64_unit_interval() {
        let mut r = SmallRng::seed_from_u64(4);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let x: f64 = r.gen();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / 10_000.0;
        assert!((0.45..0.55).contains(&mean), "mean {mean}");
    }

    #[test]
    fn gen_bool_probability() {
        let mut r = SmallRng::seed_from_u64(5);
        let hits = (0..10_000).filter(|_| r.gen_bool(0.25)).count();
        assert!((2_200..2_800).contains(&hits), "hits {hits}");
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = SmallRng::seed_from_u64(6);
        let mut v: Vec<u32> = (0..100).collect();
        v.shuffle(&mut r);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(
            v, sorted,
            "shuffle left slice sorted (astronomically unlikely)"
        );
    }
}
