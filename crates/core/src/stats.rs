//! Reporting helpers: exit-count tables and overhead summaries.

use crate::vctx::VirtContext;

/// Median of a sample: the one the bench suite's records are built with.
pub use covirt_trace::bench::median;

/// A sorted (reason, count) table of a context's exits across all cores —
/// the "incremental overhead costs of different hardware protection
/// features" instrumentation the paper's contribution list promises.
pub fn exit_table(vctx: &VirtContext) -> Vec<(&'static str, u64)> {
    let mut v: Vec<(&'static str, u64)> = vctx.exit_counts().into_iter().collect();
    v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
    v
}

/// Render an exit table as aligned text lines.
pub fn format_exit_table(vctx: &VirtContext) -> String {
    let table = exit_table(vctx);
    let mut out = String::from("exit reason        count\n");
    for (name, count) in table {
        out.push_str(&format!("{name:<18} {count}\n"));
    }
    out
}

/// Percentage slowdown of `measured` relative to `baseline` (positive =
/// slower). Used everywhere the paper reports "X% overhead". A zero
/// baseline makes the ratio meaningless, so it yields NaN — call sites
/// print "n/a" rather than a fake 0.0% (see `covirt_bench::fmt_pct`).
pub fn overhead_pct(baseline: f64, measured: f64) -> f64 {
    if baseline == 0.0 {
        return f64::NAN;
    }
    (measured - baseline) / baseline * 100.0
}

/// `n / d` as f64, 0.0 when the denominator is zero. Used for per-event
/// rates (walk loads per miss, cache hit rates) in reports.
pub fn ratio(n: u64, d: u64) -> f64 {
    if d == 0 {
        0.0
    } else {
        n as f64 / d as f64
    }
}

/// Mean of a sample.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Sample standard deviation.
pub fn stddev(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    (xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (xs.len() - 1) as f64).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CovirtConfig;
    use covirt_simhw::exit::{ExitInfo, ExitReason};

    #[test]
    fn exit_table_sorted_desc() {
        let vctx = VirtContext::new(1, CovirtConfig::NONE, &[1], &[], None);
        let h = vctx.vmcs(1).unwrap();
        for _ in 0..3 {
            h.write().record_exit(ExitInfo {
                reason: ExitReason::Hlt,
                tsc: 0,
            });
        }
        h.write().record_exit(ExitInfo {
            reason: ExitReason::Cpuid { leaf: 0 },
            tsc: 0,
        });
        let t = exit_table(&vctx);
        assert_eq!(t[0], ("hlt", 3));
        assert_eq!(t[1], ("cpuid", 1));
        let s = format_exit_table(&vctx);
        assert!(s.contains("hlt"));
    }

    #[test]
    fn overhead_math() {
        assert_eq!(overhead_pct(100.0, 103.1), 3.0999999999999943);
        assert!(overhead_pct(0.0, 5.0).is_nan(), "zero baseline is n/a");
        assert!(overhead_pct(100.0, 95.0) < 0.0);
    }

    #[test]
    fn ratio_handles_zero_denominator() {
        assert_eq!(ratio(6, 4), 1.5);
        assert_eq!(ratio(3, 0), 0.0);
        assert_eq!(ratio(0, 9), 0.0);
    }

    #[test]
    fn stats_basics() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(mean(&xs), 2.5);
        assert_eq!(median(&xs), 2.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert!((stddev(&xs) - 1.2909944487358056).abs() < 1e-12);
        assert_eq!(stddev(&[1.0]), 0.0);
        assert_eq!(mean(&[]), 0.0);
    }
}
