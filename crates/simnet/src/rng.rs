//! Deterministic random number generation.
//!
//! Every stochastic decision in the workspace (path jitter, packet loss,
//! resolver recursion latency, population synthesis, ...) flows through
//! [`SimRng`], a xoshiro256** generator seeded via SplitMix64. The
//! implementation is self-contained so that results are bit-identical
//! across platforms and dependency upgrades — a property the paper's
//! "Reproducibility" section calls for and that external RNG crates do
//! not guarantee across versions.

/// SplitMix64 step, used to expand a single `u64` seed into the four
/// words of xoshiro256** state (the construction recommended by the
/// xoshiro authors).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic xoshiro256** PRNG with convenience samplers.
#[derive(Debug, Clone)]
pub struct SimRng {
    s: [u64; 4],
}

impl SimRng {
    /// Create a generator from a 64-bit seed. Identical seeds produce
    /// identical streams on every platform.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let mut s = [0u64; 4];
        for w in &mut s {
            *w = splitmix64(&mut sm);
        }
        // xoshiro256** must not start from the all-zero state; SplitMix64
        // of any seed cannot produce four zero words, but guard anyway.
        if s == [0, 0, 0, 0] {
            s = [
                0x1,
                0x9E3779B97F4A7C15,
                0xBF58476D1CE4E5B9,
                0x94D049BB133111EB,
            ];
        }
        SimRng { s }
    }

    /// Derive an independent child generator. Used to give each
    /// measurement unit (vantage point x resolver x protocol x repeat)
    /// its own stream so units can be simulated in any order — or in
    /// parallel — without changing results.
    pub fn fork(&self, label: u64) -> SimRng {
        // Mix the label into a fresh seed drawn from this generator's
        // state without advancing it, so forks are order-independent.
        let mut sm = self.s.iter().fold(label ^ 0xD6E8_FEB8_6659_FD93, |acc, w| {
            acc.rotate_left(23) ^ w.wrapping_mul(0xA24B_AED4_963E_E407)
        });
        let mut s = [0u64; 4];
        for w in &mut s {
            *w = splitmix64(&mut sm);
        }
        SimRng { s }
    }

    /// Next raw 64-bit output (xoshiro256**).
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

    /// Uniform float in `[0, 1)` with 53 bits of precision.
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, bound)`. Panics if `bound == 0`.
    /// Uses Lemire's multiply-shift reduction with rejection to avoid
    /// modulo bias.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "below(0) is meaningless");
        loop {
            let x = self.next_u64();
            let (hi, lo) = {
                let m = (x as u128) * (bound as u128);
                ((m >> 64) as u64, m as u64)
            };
            if lo >= bound || lo >= bound.wrapping_neg() % bound {
                return hi;
            }
        }
    }

    /// Uniform integer in `[lo, hi)` . Panics if `lo >= hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range");
        lo + self.below(hi - lo)
    }

    /// Bernoulli trial: `true` with probability `p` (clamped to `[0,1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// Pick a uniformly random element of a non-empty slice.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        assert!(!items.is_empty(), "pick from empty slice");
        &items[self.below(items.len() as u64) as usize]
    }

    /// Pick an index according to the given (not necessarily normalized)
    /// non-negative weights. Panics if all weights are zero or the slice
    /// is empty.
    pub fn pick_weighted(&mut self, weights: &[f64]) -> usize {
        let total: f64 = weights.iter().sum();
        assert!(total > 0.0, "pick_weighted needs positive total weight");
        let mut x = self.f64() * total;
        for (i, w) in weights.iter().enumerate() {
            if x < *w {
                return i;
            }
            x -= w;
        }
        weights.len() - 1
    }

    /// Standard normal deviate (Box-Muller, one value per call).
    pub fn normal(&mut self) -> f64 {
        // Avoid ln(0) by drawing from (0, 1].
        let u1 = 1.0 - self.f64();
        let u2 = self.f64();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Normal deviate with the given mean and standard deviation.
    pub fn normal_with(&mut self, mean: f64, std_dev: f64) -> f64 {
        mean + std_dev * self.normal()
    }

    /// Log-normal deviate: `exp(N(mu, sigma))`. Used for recursion
    /// latency and page-resource sizes, which are heavy-tailed in
    /// practice.
    pub fn log_normal(&mut self, mu: f64, sigma: f64) -> f64 {
        (mu + sigma * self.normal()).exp()
    }

    /// Exponential deviate with the given mean.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        -mean * (1.0 - self.f64()).ln()
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..16).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn fork_is_order_independent() {
        let root = SimRng::new(7);
        let mut a1 = root.fork(10);
        let mut b1 = root.fork(20);
        let mut b2 = root.fork(20);
        let mut a2 = root.fork(10);
        assert_eq!(a1.next_u64(), a2.next_u64());
        assert_eq!(b1.next_u64(), b2.next_u64());
    }

    #[test]
    fn fork_labels_independent() {
        let root = SimRng::new(7);
        let mut a = root.fork(1);
        let mut b = root.fork(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = SimRng::new(3);
        for _ in 0..10_000 {
            let x = rng.f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn below_respects_bound_and_covers() {
        let mut rng = SimRng::new(4);
        let mut seen = [false; 7];
        for _ in 0..10_000 {
            seen[rng.below(7) as usize] = true;
        }
        assert!(seen.iter().all(|s| *s));
    }

    #[test]
    fn range_bounds() {
        let mut rng = SimRng::new(5);
        for _ in 0..1000 {
            let x = rng.range(10, 20);
            assert!((10..20).contains(&x));
        }
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SimRng::new(6);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.1));
    }

    #[test]
    fn chance_is_roughly_calibrated() {
        let mut rng = SimRng::new(8);
        let hits = (0..100_000).filter(|_| rng.chance(0.25)).count();
        let frac = hits as f64 / 100_000.0;
        assert!((frac - 0.25).abs() < 0.01, "frac = {frac}");
    }

    #[test]
    fn normal_moments() {
        let mut rng = SimRng::new(9);
        let n = 100_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.normal()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean = {mean}");
        assert!((var - 1.0).abs() < 0.05, "var = {var}");
    }

    #[test]
    fn pick_weighted_prefers_heavy() {
        let mut rng = SimRng::new(10);
        let weights = [1.0, 0.0, 9.0];
        let mut counts = [0usize; 3];
        for _ in 0..10_000 {
            counts[rng.pick_weighted(&weights)] += 1;
        }
        assert_eq!(counts[1], 0);
        assert!(counts[2] > counts[0] * 5);
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = SimRng::new(11);
        let mut v: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn exponential_mean() {
        let mut rng = SimRng::new(12);
        let n = 100_000;
        let mean = (0..n).map(|_| rng.exponential(5.0)).sum::<f64>() / n as f64;
        assert!((mean - 5.0).abs() < 0.1, "mean = {mean}");
    }
}
