//! Order statistics, output digests and the peak-memory probe.

/// Median of `xs` (mean of the two middle values for an even count).
///
/// # Panics
///
/// On an empty slice or a NaN sample.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0–100] of ascending `sorted`.
fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    sorted[rank(sorted.len(), p).max(1) - 1]
}

/// 1-based nearest rank of percentile `p` among `n` samples. The
/// epsilon keeps representation error in `p` (99.9 is not exact) from
/// pushing an exact rank up by one.
fn rank(n: usize, p: f64) -> usize {
    (p * n as f64 / 100.0 - 1e-9).ceil() as usize
}

/// Percentiles a tail may be reported at, highest first.
const TAIL_CANDIDATES: [f64; 7] = [99.9, 99.0, 95.0, 90.0, 80.0, 75.0, 50.0];

/// A tail latency: the percentile used, its value and how many samples
/// lie beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Percentile, 0–100.
    pub pct: f64,
    /// Sample value at that percentile (nearest rank).
    pub value: f64,
    /// Samples ranked above the percentile.
    pub beyond: usize,
}

/// The highest candidate percentile, at most `cap`, that has at least
/// ten samples beyond it. With fewer than twenty samples no candidate
/// qualifies and the median is returned; `beyond` then shows how thin
/// the tail is.
///
/// # Panics
///
/// On an empty slice or a NaN sample.
pub fn tail(xs: &[f64], cap: f64) -> Tail {
    assert!(!xs.is_empty(), "tail of no samples");
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    let n = v.len();
    let pct = TAIL_CANDIDATES
        .into_iter()
        .filter(|&p| p <= cap)
        .find(|&p| n - rank(n, p) >= 10)
        .unwrap_or(50.0);
    Tail {
        pct,
        value: nearest_rank(&v, pct),
        beyond: n - rank(n, pct),
    }
}

/// Incremental 64-bit FNV-1a over the bit patterns of simulated
/// outputs: two runs agree on a digest only if every hashed `f64` is
/// bit-identical.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Hashes the little-endian bytes of `x`'s IEEE-754 bits.
    pub fn f64(&mut self, x: f64) {
        self.bytes(&x.to_bits().to_le_bytes());
    }

    /// Hashes raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// The digest value.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Peak resident set size in kB from the text of `/proc/self/status`
/// (its `VmHWM` line), if present.
pub fn parse_vm_hwm_kb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut words = line["VmHWM:".len()..].split_whitespace();
    let kb: f64 = words.next()?.parse().ok()?;
    (words.next()? == "kB").then_some(kb)
}

/// This process's peak resident set size in MB (2^20 bytes).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_vm_hwm_kb(&status).map(|kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[2.0, 2.0, 9.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_picks_the_highest_percentile_with_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=60).map(f64::from).collect();
        // 60 samples: p80 leaves 12 beyond, p90 only 6.
        assert_eq!(
            tail(&xs, 99.9),
            Tail {
                pct: 80.0,
                value: 48.0,
                beyond: 12
            }
        );
        // 1000 samples: p99 leaves exactly 10, p99.9 one.
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&xs, 99.9);
        assert_eq!((t.pct, t.value, t.beyond), (99.0, 990.0, 10));
        // The cap wins over a higher qualifying percentile.
        let t = tail(&xs, 90.0);
        assert_eq!((t.pct, t.value, t.beyond), (90.0, 900.0, 100));
        // 40 samples qualify for p75 (10 beyond) but not p80 (8).
        let xs: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(tail(&xs, 99.9).pct, 75.0);
        // Too few samples for any tail: the median, with its count.
        let t = tail(&[1.0, 2.0, 3.0], 99.0);
        assert_eq!((t.pct, t.value, t.beyond), (50.0, 2.0, 1));
        // Order of the input does not matter.
        let mut xs: Vec<f64> = (1..=60).map(f64::from).collect();
        xs.reverse();
        assert_eq!(tail(&xs, 99.9).value, 48.0);
    }

    #[test]
    fn vm_hwm_is_parsed_in_kb() {
        let status =
            "Name:\tfredbench\nVmPeak:\t  20000 kB\nVmHWM:\t    8192 kB\nVmRSS:\t 4096 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(8192.0));
        assert_eq!(parse_vm_hwm_kb("VmRSS:\t 4096 kB\n"), None);
        assert_eq!(parse_vm_hwm_kb("VmHWM:\t lots kB\n"), None);
        assert_eq!(parse_vm_hwm_kb("VmHWM:\t 12 MB\n"), None);
        assert!(peak_rss_mb().is_some_and(|mb| mb > 0.0));
    }

    #[test]
    fn digest_sees_every_bit() {
        let of = |xs: &[f64]| {
            let mut d = Digest::default();
            xs.iter().for_each(|&x| d.f64(x));
            d.finish()
        };
        let a = of(&[1.0, 2.5]);
        assert_eq!(a, of(&[1.0, 2.5]));
        assert_ne!(a, of(&[2.5, 1.0]));
        assert_ne!(a, of(&[1.0, f64::from_bits(2.5f64.to_bits() ^ 1)]));
        assert_ne!(of(&[0.0]), of(&[-0.0]));
        // The FNV-1a offset basis: nothing hashed yet.
        assert_eq!(Digest::default().finish(), 0xcbf2_9ce4_8422_2325);
    }
}
