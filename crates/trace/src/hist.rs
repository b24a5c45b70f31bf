//! The one log2 histogram: [`HistSnapshot`], the plain struct the audit
//! engine buckets event latencies into.

const BUCKETS: usize = 64;

/// The log2 bucket of `v`: `64 - v.leading_zeros()`, so bucket 0 holds
/// zeros and bucket `i` covers `[2^(i-1), 2^i)`.
#[inline]
fn log2_bucket(v: u64) -> usize {
    (64 - v.leading_zeros()) as usize
}

/// A log2-bucketed histogram of `u64` samples: fixed memory, no
/// allocation on record.
#[derive(Clone, Debug)]
pub struct HistSnapshot {
    /// Per-bucket sample counts; bucket `i` covers `[2^(i-1), 2^i)`.
    pub buckets: [u64; BUCKETS + 1],
    /// Total samples.
    pub count: u64,
    /// Largest sample.
    pub max: u64,
}

impl Default for HistSnapshot {
    fn default() -> HistSnapshot {
        HistSnapshot {
            buckets: [0; BUCKETS + 1],
            count: 0,
            max: 0,
        }
    }
}

impl HistSnapshot {
    /// Record one sample.
    pub fn record(&mut self, v: u64) {
        self.buckets[log2_bucket(v)] += 1;
        self.count += 1;
        self.max = self.max.max(v);
    }

    /// Upper bound of the bucket holding the q-quantile sample (`q`
    /// clamped to [0, 1]); 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        let total: u64 = self.buckets.iter().sum();
        if total == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        let i = self
            .buckets
            .iter()
            .position(|&c| {
                seen += c;
                seen >= rank
            })
            .unwrap_or(BUCKETS);
        if i == 0 {
            0
        } else {
            1u64 << i.min(63)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(log2_bucket(0), 0);
        assert_eq!(log2_bucket(1), 1);
        assert_eq!(log2_bucket(2), 2);
        assert_eq!(log2_bucket(3), 2);
        assert_eq!(log2_bucket(4), 3);
        assert_eq!(log2_bucket(1023), 10);
        assert_eq!(log2_bucket(1024), 11);
        assert_eq!(log2_bucket(u64::MAX), 64);
    }

    #[test]
    fn histogram_stats() {
        let mut snap = HistSnapshot::default();
        for v in [100u64, 200, 300, 400, 10_000, 50] {
            snap.record(v);
        }
        assert_eq!(snap.count, 6);
        assert_eq!(snap.max, 10_000);
        // p50 of {50,100,200,300,400,10000} sits in the 256-bucket.
        assert_eq!(snap.quantile(0.5), 256);
        assert!(snap.quantile(1.0) >= 8192);
    }

    #[test]
    fn quantile_extremes_on_empty_snapshot() {
        let snap = HistSnapshot::default();
        for q in [0.0, 0.5, 1.0] {
            assert_eq!(snap.quantile(q), 0, "q={q}");
        }
    }

    #[test]
    fn quantile_extremes_on_single_bucket() {
        // One sample: every quantile lands in its bucket.
        let mut snap = HistSnapshot::default();
        snap.record(5); // bucket 3, upper bound 8
        for q in [0.0, 0.5, 1.0] {
            assert_eq!(snap.quantile(q), 8, "q={q}");
        }
        // Many samples in the same bucket behave identically.
        for _ in 0..99 {
            snap.record(5);
        }
        for q in [0.0, 1.0] {
            assert_eq!(snap.quantile(q), 8, "q={q}");
        }
    }

    #[test]
    fn quantile_q0_and_q1_hit_the_extreme_buckets() {
        let mut snap = HistSnapshot::default();
        for v in [1, 1024] {
            snap.record(v); // buckets 1 and 11, upper bounds 2 and 2048
        }
        // q=0 clamps rank to the first sample, q=1 to the last.
        assert_eq!(snap.quantile(0.0), 2);
        assert_eq!(snap.quantile(1.0), 2048);
        // Out-of-range q clamps rather than panicking or wrapping.
        assert_eq!(snap.quantile(-3.0), snap.quantile(0.0));
        assert_eq!(snap.quantile(7.5), snap.quantile(1.0));
    }

    #[test]
    fn quantile_of_zero_valued_samples_is_zero() {
        let mut snap = HistSnapshot::default();
        snap.record(0); // bucket 0 reports upper bound 0
        assert_eq!(snap.quantile(0.0), 0);
        assert_eq!(snap.quantile(1.0), 0);
        assert_eq!(snap.count, 1);
    }

    /// Exact q-quantile of a sorted sample set (nearest-rank).
    fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
        let rank = ((q * sorted.len() as f64).ceil() as usize).max(1);
        sorted[rank - 1]
    }

    /// The log2 buckets guarantee the estimate is the upper bound of the
    /// bucket holding the true quantile: exact <= estimate <= 2 * exact
    /// (equality on the right when the exact value is a power of two).
    fn assert_within_bucket(est: u64, exact: u64, what: &str) {
        if exact == 0 {
            assert_eq!(est, 0, "{what}: zero sample must estimate 0");
        } else {
            assert!(
                est >= exact && est <= exact.saturating_mul(2),
                "{what}: estimate {est} outside [{exact}, {}]",
                exact.saturating_mul(2)
            );
        }
    }

    #[test]
    fn percentiles_track_exact_values_on_synthetic_distributions() {
        // Uniform, geometric-ish (latency-like heavy tail), and constant.
        let uniform: Vec<u64> = (1..=10_000).collect();
        let heavy: Vec<u64> = (0..10_000)
            .map(|i| 100 + (i % 97) + if i % 100 == 0 { 1 << 20 } else { 0 })
            .collect();
        let constant: Vec<u64> = vec![4096; 1000];
        for (name, samples) in [
            ("uniform", uniform),
            ("heavy-tail", heavy),
            ("constant", constant),
        ] {
            let mut snap = HistSnapshot::default();
            for &v in &samples {
                snap.record(v);
            }
            let mut sorted = samples.clone();
            sorted.sort_unstable();
            for q in [0.5, 0.9, 0.99] {
                assert_within_bucket(
                    snap.quantile(q),
                    exact_quantile(&sorted, q),
                    &format!("{name} p{}", (q * 100.0) as u32),
                );
            }
            assert_eq!(snap.count, samples.len() as u64);
            assert_eq!(snap.max, *sorted.last().unwrap());
        }
    }
}
