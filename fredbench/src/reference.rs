//! A fixed reference kernel timed alongside the workload.
//!
//! The host this benchmark runs on is shared: for minutes at a time it
//! runs everything, set-up included, up to 1.7× slower, far more than
//! any change worth measuring. Timing a kernel that depends on nothing
//! in the simulator measures how fast the host is right now. The kernel
//! is sampled before and after every stretch of timed work, and between
//! the units of a pass at most [`EVERY`] apart; each timing is reported
//! scaled to the speed at which the kernel takes [`NOMINAL_S`], using
//! the mean of the samples from the one before it to the one after it.
//!
//! The kernel sorts a copy of a 2 MB array, larger than a core's
//! private caches, so it slows down when other tenants contend for the
//! shared cache and memory as the simulator does. A sample is the
//! fastest of three timed runs after an untimed one: every run starts
//! from the same cache state, and an interrupt that lands on one run
//! does not move the sample. It allocates nothing while timed, so the
//! simulator's heap cannot change its speed.

use std::time::{Duration, Instant};

use crate::stats::median;

/// Host seconds one kernel run takes at the reference speed: about its
/// median on the 2-vCPU machine this benchmark's bounds were measured on.
pub const NOMINAL_S: f64 = 0.005;

/// Longest host time between samples taken by [`Reference::sample_due`].
pub const EVERY: Duration = Duration::from_millis(250);

/// Elements sorted per kernel run (2 MB of `u64`).
const LEN: usize = 1 << 18;

/// Timed kernel runs per sample.
const RUNS: usize = 3;

/// The kernel's buffers and its samples so far.
pub struct Reference {
    src: Vec<u64>,
    buf: Vec<u64>,
    samples: Vec<f64>,
    /// When the latest sample ended.
    last: Option<Instant>,
    /// Host time spent sampling so far.
    spent: Duration,
}

impl Default for Reference {
    fn default() -> Reference {
        Reference {
            src: (0..LEN as u64)
                .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17))
                .collect(),
            buf: vec![0; LEN],
            samples: Vec::new(),
            last: None,
            spent: Duration::ZERO,
        }
    }
}

impl Reference {
    fn run(&mut self) {
        self.buf.copy_from_slice(&self.src);
        self.buf.sort_unstable();
        std::hint::black_box(&self.buf);
    }

    /// Takes a sample: the fastest of [`RUNS`] warm kernel runs, each
    /// copying the array and sorting the copy. Returns its index.
    pub fn sample(&mut self) -> usize {
        let start = Instant::now();
        self.run();
        let fastest = (0..RUNS)
            .map(|_| {
                let t = Instant::now();
                self.run();
                t.elapsed().as_secs_f64()
            })
            .fold(f64::INFINITY, f64::min);
        self.samples.push(fastest);
        let now = Instant::now();
        self.spent += now - start;
        self.last = Some(now);
        self.samples.len() - 1
    }

    /// Takes a sample unless one ended less than [`EVERY`] ago.
    pub fn sample_due(&mut self) {
        if self.last.is_none_or(|t| t.elapsed() >= EVERY) {
            self.sample();
        }
    }

    /// Index of the latest sample.
    ///
    /// # Panics
    ///
    /// If no sample has been taken.
    pub fn latest(&self) -> usize {
        assert!(!self.samples.is_empty(), "no reference sample yet");
        self.samples.len() - 1
    }

    /// Host time spent taking samples so far.
    pub fn spent(&self) -> Duration {
        self.spent
    }

    /// Median host seconds of one kernel run over the samples so far.
    pub fn median_s(&self) -> f64 {
        median(&self.samples)
    }

    /// Factor turning host seconds measured between samples `from` and
    /// `to` into seconds at the reference speed: the nominal kernel time
    /// over the mean of the samples `from..=to`.
    ///
    /// # Panics
    ///
    /// If sample `to` has not been taken or `to < from`.
    pub fn scale(&self, from: usize, to: usize) -> f64 {
        let window = &self.samples[from..=to];
        NOMINAL_S * window.len() as f64 / window.iter().sum::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernel_sorts_and_scale_is_the_inverse_local_speed() {
        let mut r = Reference::default();
        assert_eq!((r.sample(), r.sample()), (0, 1));
        assert_eq!(r.latest(), 1);
        assert!(r.spent() > Duration::ZERO);
        assert!(r.buf.windows(2).all(|w| w[0] <= w[1]));
        let n = NOMINAL_S;
        r.samples = vec![n, n, n * 3.0, n * 4.0, n * 4.0];
        assert_eq!(r.scale(0, 1), 1.0);
        assert_eq!(r.scale(1, 2), 0.5, "between speeds 1 and 1/3");
        assert_eq!(r.scale(3, 4), 0.25, "a host 4× as slow");
        let mean_of_four = r.scale(0, 3) - 4.0 / 9.0;
        assert!(mean_of_four.abs() < 1e-12, "the mean of four samples");
        assert_eq!(r.median_s(), n * 3.0);
    }

    #[test]
    fn samples_are_only_due_after_a_pause() {
        let mut r = Reference::default();
        r.sample_due();
        r.sample_due();
        assert_eq!(r.latest(), 0, "the second came too soon");
        r.last = Some(Instant::now() - EVERY);
        r.sample_due();
        assert_eq!(r.latest(), 1);
    }
}
