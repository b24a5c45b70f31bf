//! Reporting helpers: exit-count tables and overhead summaries.

use crate::vctx::VirtContext;

/// A sorted (reason, count) table of a context's exits across all cores —
/// the "incremental overhead costs of different hardware protection
/// features" instrumentation the paper's contribution list promises.
pub fn exit_table(vctx: &VirtContext) -> Vec<(&'static str, u64)> {
    let mut v = vctx.exit_counts();
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

/// Median of a sample (of a copy; the input is not reordered). 0.0 when
/// empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
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

    /// A fixed mix of exits on two cores, payload-carrying reasons among
    /// them, tabulates by count then name, summed across cores.
    #[test]
    fn exit_table_sorted_desc() {
        let vctx = VirtContext::new(1, CovirtConfig::NONE, [1, 2], &[], None);
        let mix = [
            (1, ExitReason::Hlt, 3),
            (1, ExitReason::Cpuid { leaf: 0 }, 1),
            (2, ExitReason::ExternalInterrupt { vector: 0xec }, 2),
            (1, ExitReason::ExternalInterrupt { vector: 0x40 }, 1),
            (2, ExitReason::Cpuid { leaf: 7 }, 1),
            (2, ExitReason::MsrRead { index: 0x10 }, 1),
            (2, ExitReason::Nmi, 3),
        ];
        for (core, reason, n) in mix {
            let h = vctx.vmcs(core).unwrap();
            for _ in 0..n {
                h.write().record_exit(ExitInfo { reason, tsc: 0 });
            }
        }
        let t = exit_table(&vctx);
        assert_eq!(
            t,
            [
                ("ext-intr", 3),
                ("hlt", 3),
                ("nmi", 3),
                ("cpuid", 2),
                ("rdmsr", 1)
            ]
        );
        let s = format_exit_table(&vctx);
        assert_eq!(
            s,
            "exit reason        count\n\
             ext-intr           3\n\
             hlt                3\n\
             nmi                3\n\
             cpuid              2\n\
             rdmsr              1\n"
        );
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
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[1.0, 9.0, 2.0]), 2.0);
        assert!((stddev(&xs) - 1.2909944487358056).abs() < 1e-12);
        assert_eq!(stddev(&[1.0]), 0.0);
        assert_eq!(mean(&[]), 0.0);
    }

    // The stand-in `ProptestConfig` has one field; `..default()` keeps the
    // block compatible with the real crate.
    #[allow(clippy::needless_update)]
    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

            /// The median lies within the sample's range, and shifting
            /// every sample shifts it by the same amount.
            #[test]
            fn median_within_range_and_shift_equivariant(
                xs in proptest::collection::vec((0u64..2_000_000).prop_map(|v| v as f64 / 100.0), 1..12),
                shift in 0u64..1000,
            ) {
                let m = median(&xs);
                let lo = xs.iter().cloned().fold(f64::INFINITY, f64::min);
                let hi = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                prop_assert!(m >= lo && m <= hi, "median {} outside [{}, {}]", m, lo, hi);
                let shifted: Vec<f64> = xs.iter().map(|x| x + shift as f64).collect();
                prop_assert!((median(&shifted) - (m + shift as f64)).abs() < 1e-9);
            }
        }
    }
}
