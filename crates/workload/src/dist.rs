//! Key-access distributions.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// FNV-1a 64-bit hash, used to scramble Zipfian ranks across the key space.
pub(crate) fn fnv1a(mut x: u64) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for _ in 0..8 {
        h ^= x & 0xFF;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
        x >>= 8;
    }
    h
}

/// Declarative description of a key-access distribution.
///
/// Turn into a stateful sampler with [`KeyDist::sampler`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KeyDist {
    /// Every key equally likely.
    Uniform,
    /// Zipfian over key *ranks*: key 0 is the hottest, key 1 next, …
    /// `theta` is the YCSB skew constant (0.99 is the YCSB default).
    Zipfian {
        /// Skew parameter in (0, 1).
        theta: f64,
    },
    /// Zipfian ranks scrambled over the key space by a hash, so hot keys are
    /// spread across pages — the YCSB "scrambled zipfian".
    ScrambledZipfian {
        /// Skew parameter in (0, 1).
        theta: f64,
    },
    /// Skewed toward the most recently inserted keys (YCSB "latest").
    Latest {
        /// Skew parameter in (0, 1).
        theta: f64,
    },
    /// A fraction of accesses goes to a fraction of keys:
    /// `hot_fraction` of operations target the first
    /// `hot_keys_fraction` of the key space.
    HotSpot {
        /// Fraction of the key space that is hot (0, 1].
        hot_keys_fraction: f64,
        /// Fraction of operations that touch the hot set [0, 1].
        hot_ops_fraction: f64,
    },
}

impl KeyDist {
    /// Zipfian with the given skew.
    pub fn zipfian(theta: f64) -> Self {
        KeyDist::Zipfian { theta }
    }

    /// Scrambled Zipfian with the given skew.
    pub fn scrambled_zipfian(theta: f64) -> Self {
        KeyDist::ScrambledZipfian { theta }
    }

    /// Build a stateful sampler over `n` keys.
    ///
    /// # Panics
    /// Panics if `n == 0` or a skew/fraction parameter is out of range.
    pub fn sampler(self, n: u64, seed: u64) -> KeySampler {
        assert!(n > 0, "key space must be non-empty");
        let rng = SmallRng::seed_from_u64(seed);
        let inner = match self {
            KeyDist::Uniform => SamplerKind::Uniform,
            KeyDist::Zipfian { theta } => SamplerKind::Zipf {
                z: ZipfState::new(n, theta),
                scrambled: false,
            },
            KeyDist::ScrambledZipfian { theta } => SamplerKind::Zipf {
                z: ZipfState::new(n, theta),
                scrambled: true,
            },
            KeyDist::Latest { theta } => SamplerKind::Latest {
                z: ZipfState::new(n, theta),
            },
            KeyDist::HotSpot {
                hot_keys_fraction,
                hot_ops_fraction,
            } => {
                assert!(
                    hot_keys_fraction > 0.0 && hot_keys_fraction <= 1.0,
                    "hot_keys_fraction out of range"
                );
                assert!(
                    (0.0..=1.0).contains(&hot_ops_fraction),
                    "hot_ops_fraction out of range"
                );
                SamplerKind::HotSpot {
                    hot_keys: ((n as f64 * hot_keys_fraction) as u64).max(1),
                    hot_ops: hot_ops_fraction,
                }
            }
        };
        KeySampler { n, rng, inner }
    }
}

/// State for the YCSB constant-time Zipfian generator
/// (Gray et al., "Quickly Generating Billion-Record Synthetic Databases").
#[derive(Debug, Clone)]
struct ZipfState {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

impl ZipfState {
    fn new(n: u64, theta: f64) -> Self {
        assert!(
            theta > 0.0 && theta < 1.0,
            "zipfian theta must be in (0,1), got {theta}"
        );
        let zetan = Self::zeta(n, theta);
        Self::from_zetan(n, theta, zetan)
    }

    fn from_zetan(n: u64, theta: f64, zetan: f64) -> Self {
        let zeta2 = Self::zeta(2, theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan);
        ZipfState {
            n,
            theta,
            alpha,
            zetan,
            eta,
        }
    }

    /// Grow the key space incrementally: extends the zeta sum with only the
    /// new terms (YCSB's incremental-zeta trick — recomputing from scratch
    /// would make every insert O(n)).
    fn grow_to(&mut self, new_n: u64) {
        debug_assert!(new_n > self.n);
        let mut zetan = self.zetan;
        for i in self.n + 1..=new_n {
            zetan += 1.0 / (i as f64).powf(self.theta);
        }
        *self = Self::from_zetan(new_n, self.theta, zetan);
    }

    fn zeta(n: u64, theta: f64) -> f64 {
        // Direct summation. For very large n this is the slow part of
        // construction; sampling itself is O(1). For the key-space sizes in
        // this workspace (≤ 10^8) construction finishes in well under a
        // second, so we keep it simple rather than caching partial zetas.
        let mut sum = 0.0;
        for i in 1..=n {
            sum += 1.0 / (i as f64).powf(theta);
        }
        sum
    }

    /// Sample a rank in `[0, n)`; rank 0 is the most popular.
    fn sample(&self, rng: &mut SmallRng) -> u64 {
        let u: f64 = rng.gen();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let rank = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        rank.min(self.n - 1)
    }
}

#[derive(Debug, Clone)]
enum SamplerKind {
    Uniform,
    Zipf { z: ZipfState, scrambled: bool },
    Latest { z: ZipfState },
    HotSpot { hot_keys: u64, hot_ops: f64 },
}

/// A stateful, seeded sampler of key ids in `[0, n)`.
#[derive(Debug, Clone)]
pub struct KeySampler {
    n: u64,
    rng: SmallRng,
    inner: SamplerKind,
}

impl KeySampler {
    /// Sample the next key id.
    pub fn next_key(&mut self) -> u64 {
        match &self.inner {
            SamplerKind::Uniform => self.rng.gen_range(0..self.n),
            SamplerKind::Zipf { z, scrambled } => {
                let rank = z.sample(&mut self.rng);
                if *scrambled {
                    fnv1a(rank) % self.n
                } else {
                    rank
                }
            }
            SamplerKind::Latest { z } => {
                // Rank 0 = newest key = id n-1.
                let rank = z.sample(&mut self.rng);
                self.n - 1 - rank
            }
            SamplerKind::HotSpot { hot_keys, hot_ops } => {
                if self.rng.gen::<f64>() < *hot_ops {
                    self.rng.gen_range(0..*hot_keys)
                } else if *hot_keys < self.n {
                    self.rng.gen_range(*hot_keys..self.n)
                } else {
                    self.rng.gen_range(0..self.n)
                }
            }
        }
    }

    /// The key-space size.
    pub fn key_space(&self) -> u64 {
        self.n
    }

    /// Grow the key space (after inserts). For `Latest`, newly inserted keys
    /// immediately become the hottest.
    pub fn grow(&mut self, new_n: u64) {
        if new_n <= self.n {
            return;
        }
        self.n = new_n;
        match &mut self.inner {
            SamplerKind::Zipf { z, .. } | SamplerKind::Latest { z } => {
                z.grow_to(new_n);
            }
            SamplerKind::HotSpot { .. } | SamplerKind::Uniform => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn histogram(dist: KeyDist, n: u64, samples: usize) -> Vec<u64> {
        let mut s = dist.sampler(n, 7);
        let mut h = vec![0u64; n as usize];
        for _ in 0..samples {
            h[s.next_key() as usize] += 1;
        }
        h
    }

    #[test]
    fn uniform_covers_space_evenly() {
        let h = histogram(KeyDist::Uniform, 16, 160_000);
        for &count in &h {
            let dev = (count as f64 - 10_000.0).abs() / 10_000.0;
            assert!(dev < 0.1, "uniform bucket off by {dev}");
        }
    }

    #[test]
    fn zipfian_is_skewed_and_ordered() {
        let h = histogram(KeyDist::zipfian(0.99), 100, 200_000);
        assert!(h[0] > h[10], "rank 0 should beat rank 10");
        assert!(h[0] > h[50]);
        // YCSB zipf 0.99 over 100 keys: rank 0 gets roughly 1/zeta ≈ 19%.
        let frac0 = h[0] as f64 / 200_000.0;
        assert!((0.10..0.35).contains(&frac0), "rank-0 share {frac0}");
    }

    #[test]
    fn scrambled_zipfian_spreads_hot_key() {
        let h = histogram(KeyDist::scrambled_zipfian(0.99), 100, 200_000);
        // The hottest key exists but is not necessarily key 0.
        let max = h.iter().copied().max().unwrap();
        let frac = max as f64 / 200_000.0;
        assert!(frac > 0.05, "some key should be hot, max share {frac}");
    }

    #[test]
    fn latest_prefers_high_ids() {
        let h = histogram(KeyDist::Latest { theta: 0.99 }, 100, 100_000);
        assert!(h[99] > h[0], "latest should prefer newest key");
    }

    #[test]
    fn hotspot_respects_fractions() {
        let dist = KeyDist::HotSpot {
            hot_keys_fraction: 0.1,
            hot_ops_fraction: 0.9,
        };
        let h = histogram(dist, 100, 100_000);
        let hot: u64 = h[..10].iter().sum();
        let frac = hot as f64 / 100_000.0;
        assert!((frac - 0.9).abs() < 0.02, "hot fraction {frac}");
    }

    #[test]
    fn samplers_are_deterministic() {
        let mut a = KeyDist::zipfian(0.9).sampler(1000, 5);
        let mut b = KeyDist::zipfian(0.9).sampler(1000, 5);
        for _ in 0..100 {
            assert_eq!(a.next_key(), b.next_key());
        }
    }

    #[test]
    fn keys_stay_in_range() {
        for dist in [
            KeyDist::Uniform,
            KeyDist::zipfian(0.5),
            KeyDist::scrambled_zipfian(0.99),
            KeyDist::Latest { theta: 0.8 },
            KeyDist::HotSpot {
                hot_keys_fraction: 0.2,
                hot_ops_fraction: 0.8,
            },
        ] {
            let mut s = dist.sampler(37, 11);
            for _ in 0..10_000 {
                assert!(s.next_key() < 37);
            }
        }
    }

    #[test]
    fn grow_expands_range() {
        let mut s = KeyDist::Latest { theta: 0.99 }.sampler(10, 3);
        s.grow(20);
        assert_eq!(s.key_space(), 20);
        let mut saw_high = false;
        for _ in 0..1000 {
            if s.next_key() >= 10 {
                saw_high = true;
            }
        }
        assert!(saw_high, "grown space never sampled");
    }

    #[test]
    #[should_panic(expected = "key space")]
    fn empty_key_space_panics() {
        let _ = KeyDist::Uniform.sampler(0, 1);
    }

    #[test]
    #[should_panic(expected = "theta")]
    fn bad_theta_panics() {
        let _ = KeyDist::zipfian(1.5).sampler(10, 1);
    }

    #[test]
    fn fnv_is_stable() {
        assert_eq!(fnv1a(0), fnv1a(0));
        assert_ne!(fnv1a(1), fnv1a(2));
    }
}
