//! Seeded generators and the summary statistics every metric uses.

/// SplitMix64: the benchmark's only randomness. Every input stream is a
/// pure function of the `--seed` argument and a stream label.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream derived from the run seed and labels such as workload,
    /// round and generator thread, so streams never overlap.
    pub fn new(seed: u64, labels: &[u64]) -> Rng {
        let mut r = Rng(seed ^ 0x5EED_0A7B_E4C4_0001);
        for &l in labels {
            r.0 ^= l.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            r.next();
        }
        r
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// True with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        ((self.next() >> 11) as f64 / (1u64 << 53) as f64) < p
    }

    /// A write argument in `-500..500`.
    pub fn value(&mut self) -> i64 {
        (self.next() % 1000) as i64 - 500
    }
}

/// Median of `xs` (mean of the middle pair for even lengths); 0 if empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Latency histogram in nanoseconds with constant memory (30 KiB):
/// values below 128 ns are exact, larger ones fall into buckets 1/128 of
/// their magnitude wide (≤0.4% error from the bucket midpoint). Constant
/// memory keeps the benchmark's own footprint out of `peak_rss_mb`
/// however many requests complete.
#[derive(Clone)]
pub struct Hist {
    counts: Vec<u32>,
    n: u64,
}

const SUB_BITS: u32 = 7;
const SUB: u64 = 1 << SUB_BITS;
const BUCKETS: usize = ((64 - SUB_BITS + 1) as usize) * SUB as usize;

impl Hist {
    pub fn new() -> Hist {
        Hist {
            counts: vec![0; BUCKETS],
            n: 0,
        }
    }

    fn bucket(ns: u64) -> usize {
        if ns < SUB {
            return ns as usize;
        }
        let e = 63 - ns.leading_zeros();
        let shift = e - SUB_BITS;
        let m = (ns >> shift) & (SUB - 1);
        ((shift + 1) as usize) * SUB as usize + m as usize
    }

    /// Midpoint of a bucket's value range.
    fn value(b: usize) -> f64 {
        let (octave, m) = ((b as u64) / SUB, (b as u64) % SUB);
        if octave == 0 {
            return m as f64;
        }
        let shift = octave - 1;
        let lo = (SUB + m) << shift;
        lo as f64 + ((1u64 << shift) as f64 - 1.0) / 2.0
    }

    pub fn record(&mut self, ns: u64) {
        let c = &mut self.counts[Self::bucket(ns)];
        *c = c.saturating_add(1);
        self.n += 1;
    }

    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a = a.saturating_add(*b);
        }
        self.n += other.n;
    }

    pub fn count(&self) -> u64 {
        self.n
    }

    /// The value at 0-based rank `rank` of the sorted samples.
    fn at_rank(&self, rank: u64) -> f64 {
        let mut seen = 0;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += u64::from(c);
            if seen > rank {
                return Self::value(b);
            }
        }
        0.0
    }

    /// Median in nanoseconds.
    pub fn p50(&self) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        self.at_rank((self.n - 1) / 2)
    }

    /// Interquartile mean: the mean of the middle half of the samples
    /// (ranks n/4 up to 3n/4). Latencies here often fall into two modes
    /// (answered from held leases, or after a probe across the tree); a
    /// quantile jumps from one mode to the other when their shares shift
    /// past it, while this moves smoothly, and unlike the plain mean it
    /// leaves out the stalls in the tails.
    pub fn iqm(&self) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let (lo, hi) = (self.n / 4, self.n - self.n / 4);
        let (mut seen, mut sum) = (0u64, 0.0);
        for (b, &c) in self.counts.iter().enumerate() {
            let start = seen;
            seen += u64::from(c);
            let take = seen.min(hi).saturating_sub(start.max(lo));
            sum += take as f64 * Self::value(b);
            if seen >= hi {
                break;
            }
        }
        sum / (hi - lo) as f64
    }

    /// The tail: p99, or where fewer than 1100 samples leave p99 with
    /// fewer than ten beyond it, the highest percentile that still has
    /// ten. Returns `(value_ns, percentile)`.
    pub fn tail(&self) -> (f64, f64) {
        tail_rank(self.n).map_or((0.0, 0.0), |r| {
            (self.at_rank(r), 100.0 * (r + 1) as f64 / self.n as f64)
        })
    }
}

/// 0-based rank of the tail percentile among `n` sorted samples: p99
/// when at least ten samples lie beyond it, else the highest rank that
/// leaves ten beyond. With 11 or fewer samples no rank qualifies and
/// the maximum stands in for the tail.
pub fn tail_rank(n: u64) -> Option<u64> {
    match n {
        0 => None,
        1..=11 => Some(n - 1),
        _ => Some(((n * 99).div_ceil(100) - 1).min(n - 11)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hist_percentiles_are_within_bucket_error() {
        let mut h = Hist::new();
        for ns in 1..=100_000u64 {
            h.record(ns * 10);
        }
        let p50 = h.p50();
        assert!((p50 - 500_000.0).abs() / 500_000.0 < 0.005, "{p50}");
        let iqm = h.iqm();
        assert!((iqm - 500_000.0).abs() / 500_000.0 < 0.005, "{iqm}");
        let (p99, pct) = h.tail();
        assert!((p99 - 990_000.0).abs() / 990_000.0 < 0.005, "{p99}");
        assert!((pct - 99.0).abs() < 0.01);
    }

    #[test]
    fn iqm_moves_smoothly_when_the_median_jumps_modes() {
        // 51% fast samples vs 49%: the median jumps between the modes,
        // the interquartile mean moves by the 2% that changed.
        let mut more_fast = Hist::new();
        let mut more_slow = Hist::new();
        for i in 0..1000u64 {
            more_fast.record(if i < 510 { 100_000 } else { 600_000 });
            more_slow.record(if i < 490 { 100_000 } else { 600_000 });
        }
        assert!(more_slow.p50() / more_fast.p50() > 5.0);
        let (a, b) = (more_fast.iqm(), more_slow.iqm());
        assert!((a - 340_000.0).abs() < 2_000.0 && (b - 360_000.0).abs() < 2_000.0);
        let mut one = Hist::new();
        one.record(7);
        assert_eq!(one.iqm(), 7.0);
    }

    #[test]
    fn small_samples_keep_ten_beyond_the_tail() {
        assert_eq!(tail_rank(1000), Some(989));
        assert_eq!(tail_rank(100_000), Some(98_999));
        assert_eq!(tail_rank(64), Some(53));
        assert_eq!(tail_rank(8), Some(7));
    }

    #[test]
    fn rng_streams_repeat_and_differ() {
        let a: Vec<u64> = (0..4).map(|_| Rng::new(7, &[1, 2]).next()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(Rng::new(7, &[1, 2]).next(), Rng::new(7, &[2, 1]).next());
        assert_ne!(Rng::new(7, &[1]).next(), Rng::new(8, &[1]).next());
    }
}
