//! Latency quantiles and medians.

/// Linear sub-buckets per power of two.
const SUB: u64 = 128;
/// Values at or above `2^MAX_BITS` ns (about 18 minutes) share the top
/// bucket.
const MAX_BITS: u32 = 40;

/// A latency histogram with log-linear buckets: values below 128 are
/// counted exactly, and each power-of-two range above is split into 128
/// equal buckets. A quantile is reported as the middle of the bucket
/// holding the exact order statistic, so it is within 1/256 (0.4 %) of
/// it. Memory is fixed, however many samples are recorded.
#[derive(Debug, Clone)]
pub struct LogHist {
    counts: Vec<u32>,
    total: u64,
}

impl Default for LogHist {
    fn default() -> Self {
        LogHist {
            counts: vec![0; bucket((1 << MAX_BITS) - 1) + 1],
            total: 0,
        }
    }
}

fn bucket(v: u64) -> usize {
    let v = v.min((1 << MAX_BITS) - 1);
    if v < SUB {
        return v as usize;
    }
    let shift = 63 - v.leading_zeros() - SUB.trailing_zeros();
    ((u64::from(shift) + 1) * SUB + ((v >> shift) - SUB)) as usize
}

/// The smallest and largest value of bucket `i`.
fn bounds(i: usize) -> (u64, u64) {
    let i = i as u64;
    if i < SUB {
        return (i, i);
    }
    let shift = i / SUB - 1;
    let top = SUB + i % SUB;
    (top << shift, ((top + 1) << shift) - 1)
}

impl LogHist {
    /// Records one value.
    pub fn record(&mut self, v: u64) {
        self.counts[bucket(v)] += 1;
        self.total += 1;
    }

    /// Adds every sample of `other`.
    pub fn merge(&mut self, other: &LogHist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
    }

    /// Samples recorded.
    pub fn len(&self) -> u64 {
        self.total
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// The `q`-quantile (`0 < q <= 1`) by the nearest-rank rule (the
    /// smallest sample with at least `q · n` samples at or below it),
    /// within the bucket error; `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0;
        for (i, c) in self.counts.iter().enumerate() {
            seen += u64::from(*c);
            if seen >= rank {
                let (lo, hi) = bounds(i);
                return Some((lo + hi) as f64 / 2.0);
            }
        }
        unreachable!("rank is at most the sample count")
    }
}

/// The median of `values` (mean of the middle two for even counts).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    /// Nearest rank over a sorted copy.
    fn oracle(samples: &[u64], q: f64) -> u64 {
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }

    #[test]
    fn quantiles_match_a_sorted_vector_within_the_stated_error() {
        let mut rng = Rng::new(3, 0);
        for n in [1usize, 2, 3, 10, 99, 100, 101, 1000, 4097, 50_000] {
            // Latency-like: a body of tens of microseconds and a long tail.
            let samples: Vec<u64> = (0..n)
                .map(|_| match rng.below(100) {
                    0 => rng.between(1_000_000, 50_000_000),
                    1..=9 => rng.between(100_000, 1_000_000),
                    _ => rng.between(10, 100_000),
                })
                .collect();
            let mut h = LogHist::default();
            for s in &samples {
                h.record(*s);
            }
            assert_eq!(h.len(), n as u64);
            for q in [0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0] {
                let exact = oracle(&samples, q) as f64;
                let got = h.quantile(q).unwrap();
                assert!(
                    (got - exact).abs() <= exact / 256.0,
                    "n={n} q={q}: {got} vs {exact}"
                );
            }
        }
        assert_eq!(LogHist::default().quantile(0.5), None);
    }

    #[test]
    fn buckets_tile_the_range_and_merge_adds() {
        let mut next = 0;
        for i in 0..bucket(u64::MAX) {
            let (lo, hi) = bounds(i);
            assert_eq!(lo, next, "bucket {i}");
            assert_eq!(bucket(lo), i);
            assert_eq!(bucket(hi), i);
            next = hi + 1;
        }
        let mut a = LogHist::default();
        let mut b = LogHist::default();
        a.record(5);
        b.record(1_000);
        b.record(u64::MAX);
        a.merge(&b);
        assert_eq!(a.len(), 3);
        assert_eq!(a.quantile(0.3), Some(5.0));
    }

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
