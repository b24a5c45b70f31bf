//! Estimators for noisy host timings.
//!
//! Per-rep host times in this sandbox have a fat right tail (the 2-vCPU
//! host preempts the run), so the benchmark never reports a mean: speed is
//! the *fast decile* of per-rep values (the run's repeatable floor),
//! ratios and latencies are medians, and a tail is only ever quoted at a
//! percentile that still has ten samples beyond it.

/// Value at quantile `q` (0..=1) of `xs`, linearly interpolated between
/// order statistics. Panics on an empty slice: every caller owns at least
/// one measured rep.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The 10th percentile: the speed the run repeats when the host leaves it
/// alone, robust to a minority of preempted reps in a way the mean and
/// even the median are not.
pub fn fast_decile(xs: &[f64]) -> f64 {
    quantile(xs, 0.10)
}

/// A tail quantile together with how it was chosen.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The percentile actually reported (≤ the one asked for).
    pub percentile: f64,
    /// Its value.
    pub value: f64,
}

/// The highest percentile, capped at `wanted` (e.g. 0.99), that still has
/// at least ten samples beyond it; with fewer than twenty samples that is
/// the median. Callers report it beside the sample count.
pub fn tail(xs: &[f64], wanted: f64) -> Tail {
    let n = xs.len();
    let supported = if n > 20 { 1.0 - 10.0 / n as f64 } else { 0.5 };
    let percentile = wanted.min(supported).max(0.5);
    Tail {
        percentile,
        value: quantile(xs, percentile),
    }
}

/// Interquartile distance of `xs` as a share of its median (0 when the
/// median is 0). Applied to a run's per-segment estimates it says how well
/// a metric repeats inside the run; `perfbench compare` calls a difference
/// *unresolved* rather than *worse* when this is wider than the metric's
/// bound.
pub fn iqr_share(xs: &[f64]) -> f64 {
    let m = median(xs);
    if m == 0.0 {
        return 0.0;
    }
    ((quantile(xs, 0.75) - quantile(xs, 0.25)) / m).abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(median(&xs), 3.0);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 5.0);
        assert_eq!(quantile(&xs, 0.25), 2.0);
        // Between order statistics: 10th percentile of 1..=5 is 1.4.
        assert!((fast_decile(&xs) - 1.4).abs() < 1e-12);
        assert_eq!(median(&[1.0, 2.0]), 1.5);
    }

    #[test]
    fn fast_decile_ignores_a_preempted_minority() {
        let mut xs = vec![100.0; 80];
        xs.extend(vec![900.0; 20]); // a fifth of the reps were preempted
        assert_eq!(fast_decile(&xs), 100.0);
        assert_eq!(median(&xs), 100.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let xs: Vec<f64> = (0..1000).map(f64::from).collect();
        let t = tail(&xs, 0.99);
        assert_eq!(t.percentile, 0.99);
        // 200 samples support p95 at most.
        let t = tail(&xs[..200], 0.99);
        assert!((t.percentile - 0.95).abs() < 1e-12);
        assert!(xs[..200].iter().filter(|&&x| x > t.value).count() >= 10);
        // Too few samples for any tail: the median.
        let t = tail(&xs[..12], 0.99);
        assert_eq!(t.percentile, 0.5);
    }

    #[test]
    fn iqr_share_is_relative_to_the_median() {
        assert_eq!(iqr_share(&[10.0; 8]), 0.0);
        // Quartiles of 1..=5 are 2 and 4, the median 3.
        assert!((iqr_share(&[1.0, 2.0, 3.0, 4.0, 5.0]) - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(iqr_share(&[0.0, 0.0, 0.0]), 0.0);
        assert!((iqr_share(&[1.0, 3.0]) - 0.5).abs() < 1e-12);
    }
}
