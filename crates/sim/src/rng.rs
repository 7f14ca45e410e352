//! A small, deterministic pseudo-random number generator.
//!
//! The reproduction is built to run in hermetic/offline environments,
//! so randomised experiments (the Fig 7 colouring ablation) and the
//! property-test harness use this self-contained generator instead of
//! an external crate. The core is SplitMix64 (Steele, Lea & Flood,
//! *Fast splittable pseudorandom number generators*, OOPSLA 2014) —
//! statistically solid for simulation workloads, trivially seedable,
//! and guaranteed to produce the same stream on every platform.

/// Deterministic SplitMix64 generator.
#[derive(Debug, Clone)]
pub struct Rng64 {
    state: u64,
}

impl Rng64 {
    /// Creates a generator from a seed. Equal seeds give equal streams.
    pub fn seed_from_u64(seed: u64) -> Rng64 {
        Rng64 { state: seed }
    }

    /// The raw internal state. Capturing it and rebuilding with
    /// [`Rng64::from_state`] resumes the stream exactly where it left
    /// off — this is how snapshots freeze RNG streams mid-run.
    pub fn state(&self) -> u64 {
        self.state
    }

    /// Rebuilds a generator from a [`Rng64::state`] capture. Unlike
    /// [`Rng64::seed_from_u64`] this is a *resume*, not a reseed: the
    /// next draw continues the captured stream.
    pub fn from_state(state: u64) -> Rng64 {
        Rng64 { state }
    }

    /// The next 64 uniformly distributed bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Splits off an independent child generator, advancing this one
    /// by a single draw. Splitting is deterministic — the same parent
    /// seed and split order always yield the same child streams — which
    /// is how the DSE runner derives one stream per design point from a
    /// single sweep seed (split in point order), so no point's draws
    /// depend on how many another point made or on the thread count.
    pub fn split(&mut self) -> Rng64 {
        Rng64::seed_from_u64(self.next_u64())
    }

    /// A uniform `usize` in `[lo, hi]` (inclusive).
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn gen_range_inclusive(&mut self, lo: usize, hi: usize) -> usize {
        assert!(lo <= hi, "empty range: {lo}..={hi}");
        let span = (hi - lo) as u64 + 1;
        lo + (self.next_u64() % span) as usize
    }

    /// A uniform `usize` in `[lo, hi)` (exclusive).
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn gen_range(&mut self, lo: usize, hi: usize) -> usize {
        assert!(lo < hi, "empty range: {lo}..{hi}");
        self.gen_range_inclusive(lo, hi - 1)
    }

    /// A uniform `f64` in `[0, 1)`.
    pub fn gen_f64(&mut self) -> f64 {
        // 53 random mantissa bits.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.gen_f64() < p
    }

    /// Fisher–Yates shuffle of `xs` in place.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.gen_range_inclusive(0, i);
            xs.swap(i, j);
        }
    }

    /// An exponentially distributed sample with rate `rate` (mean
    /// `1/rate`) by inverse-transform sampling — the inter-arrival time
    /// of a Poisson process, which is what the cluster scheduler's
    /// arrival generator draws. Consumes exactly one `next_u64`.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not finite and positive.
    pub fn gen_exp(&mut self, rate: f64) -> f64 {
        assert!(
            rate.is_finite() && rate > 0.0,
            "exponential rate must be finite and positive, got {rate}"
        );
        // gen_f64 is in [0, 1), so 1-u is in (0, 1] and ln is finite.
        -(1.0 - self.gen_f64()).ln() / rate
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = Rng64::seed_from_u64(42);
        let mut b = Rng64::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = Rng64::seed_from_u64(43);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn ranges_are_in_bounds() {
        let mut r = Rng64::seed_from_u64(7);
        for _ in 0..1000 {
            let x = r.gen_range(3, 10);
            assert!((3..10).contains(&x));
            let y = r.gen_range_inclusive(0, 0);
            assert_eq!(y, 0);
            let f = r.gen_f64();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn range_is_roughly_uniform() {
        let mut r = Rng64::seed_from_u64(1);
        let mut counts = [0usize; 8];
        for _ in 0..8000 {
            counts[r.gen_range(0, 8)] += 1;
        }
        for &c in &counts {
            assert!((700..1300).contains(&c), "skewed bucket: {counts:?}");
        }
    }

    #[test]
    fn exponential_is_deterministic_and_has_the_right_mean() {
        let draw = |seed: u64| {
            let mut r = Rng64::seed_from_u64(seed);
            (0..4000).map(|_| r.gen_exp(2.0)).collect::<Vec<f64>>()
        };
        // Bitwise deterministic across equal seeds…
        assert_eq!(draw(11), draw(11));
        // …and a different stream for a different seed.
        assert_ne!(draw(11)[0], draw(12)[0]);
        let xs = draw(11);
        assert!(xs.iter().all(|&x| x >= 0.0 && x.is_finite()));
        // Mean 1/rate = 0.5 within sampling tolerance.
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        assert!((mean - 0.5).abs() < 0.03, "mean {mean}");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn non_positive_exponential_rate_panics() {
        let _ = Rng64::seed_from_u64(0).gen_exp(0.0);
    }

    #[test]
    fn split_streams_round_trip_through_state() {
        // A parent mid-stream and two split children, all captured and
        // resumed: every resumed stream must continue bit-identically.
        let mut parent = Rng64::seed_from_u64(0xFEED_5EED);
        let _burn: Vec<u64> = (0..17).map(|_| parent.next_u64()).collect();
        let mut child_a = parent.split();
        let _ = child_a.gen_f64();
        let mut child_b = parent.split();

        let caps = [parent.state(), child_a.state(), child_b.state()];
        let originals = [&mut parent, &mut child_a, &mut child_b];
        for (cap, orig) in caps.into_iter().zip(originals) {
            let mut resumed = Rng64::from_state(cap);
            for _ in 0..64 {
                assert_eq!(resumed.next_u64(), orig.next_u64());
            }
        }
        // And a resumed parent splits the same grandchildren.
        let mut p1 = Rng64::seed_from_u64(7);
        let _ = p1.next_u64();
        let mut p2 = Rng64::from_state(p1.state());
        assert_eq!(p1.split().next_u64(), p2.split().next_u64());
        assert_eq!(p1.next_u64(), p2.next_u64());
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = Rng64::seed_from_u64(9);
        let mut xs: Vec<usize> = (0..32).collect();
        r.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..32).collect::<Vec<_>>());
        assert_ne!(
            xs,
            (0..32).collect::<Vec<_>>(),
            "identity shuffle is astronomically unlikely"
        );
    }
}
