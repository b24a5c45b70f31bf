//! Per-figure drivers: one function per table/figure in the paper's
//! evaluation, each sweeping the paper's configurations and returning the
//! same rows/series the paper plots. The `figures` binary (covirt-bench)
//! prints them.

use crate::env::World;
use crate::{hpcg, md, minife, randomaccess, selfish, stream, table1, xemem_bench};
use covirt::ExecMode;
use covirt_simhw::topology::HwLayout;

/// Scale selector: `Quick` finishes the full suite in minutes; `Paper`
/// uses Table I parameters (hours, and gigabytes of backing).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Scaled-down defaults.
    Quick,
    /// The paper's parameters.
    Paper,
}

/// Figure 3 — Selfish-Detour noise profile per configuration.
#[derive(Clone, Debug)]
pub struct Fig3Row {
    /// Configuration label.
    pub mode: String,
    /// Detected detours (time offset ns, duration ns).
    pub detours: Vec<(u64, u64)>,
    /// Noise fraction.
    pub noise_fraction: f64,
    /// Detour rate per second.
    pub rate_hz: f64,
    /// Minimum loop time (ns).
    pub min_loop_ns: u64,
}

/// Run Figure 3: every configuration built, then its detour loop run in
/// one interleaved round per configuration, each a share of the duration,
/// so each configuration leads one round; a configuration's rounds are
/// reported as one run.
pub fn fig3(scale: Scale) -> Vec<Fig3Row> {
    let duration_ms = match scale {
        Scale::Quick => 150,
        Scale::Paper => 5_000,
    };
    let modes = ExecMode::paper_sweep();
    let round_ms = duration_ms / modes.len() as u64;
    interleaved_sweep(&modes, modes.len(), World::quick, |_, w| {
        selfish::run(w, round_ms)
    })
    .into_iter()
    .map(|(mode, rounds)| {
        let r = rounds
            .into_iter()
            .reduce(selfish::SelfishResult::followed_by)
            .expect("at least one round");
        Fig3Row {
            mode: mode.label(),
            detours: r.detours.iter().map(|d| (d.at_ns, d.duration_ns)).collect(),
            noise_fraction: r.noise_fraction(),
            rate_hz: r.detour_rate_hz(),
            min_loop_ns: r.min_loop_ns,
        }
    })
    .collect()
}

/// Figure 4 — XEMEM attach delay vs region size, Covirt on/off.
#[derive(Clone, Debug)]
pub struct Fig4Row {
    /// "native" or "covirt".
    pub mode: String,
    /// (size MiB, mean µs, stddev µs) per size.
    pub samples: Vec<(u64, f64, f64)>,
}

/// Run Figure 4: both configurations' worlds built, then `reps` rounds
/// that each time one attach per size, interleaved so each configuration
/// leads in turn.
pub fn fig4(scale: Scale) -> Vec<Fig4Row> {
    let sizes: &[u64] = match scale {
        Scale::Quick => &xemem_bench::DEFAULT_SIZES_MIB,
        Scale::Paper => &xemem_bench::PAPER_SIZES_MIB,
    };
    let reps = match scale {
        Scale::Quick => 5,
        Scale::Paper => 10,
    };
    let max_mib = sizes.iter().copied().max().unwrap_or(1);
    interleaved_sweep(
        &[
            ExecMode::Native,
            ExecMode::Covirt(covirt::config::CovirtConfig::MEM),
        ],
        reps,
        |mode| xemem_bench::AttachBench::new(mode, max_mib),
        |_, bench| {
            sizes
                .iter()
                .map(|&mib| bench.attach_us(mib))
                .collect::<Vec<_>>()
        },
    )
    .into_iter()
    .map(|(mode, rounds)| Fig4Row {
        mode: mode.label(),
        samples: sizes
            .iter()
            .enumerate()
            .map(|(i, &mib)| {
                let latencies: Vec<f64> = rounds.iter().map(|r| r[i]).collect();
                let (mean, sd) = (
                    covirt::stats::mean(&latencies),
                    covirt::stats::stddev(&latencies),
                );
                (mib, mean, sd)
            })
            .collect(),
    })
    .collect()
}

/// The measurement order every per-configuration figure shares: `setup`
/// builds and warms one arm per mode, then `reps` rounds measure every
/// mode in turn, so slow drift of the shared host lands on all
/// configurations alike. The lead rotates: arm *i* goes first in rounds
/// ≡ *i* (mod arms), so no arm pays for going first every round. Returns
/// each mode's samples in `modes` order.
fn interleaved_sweep<S, R>(
    modes: &[ExecMode],
    reps: usize,
    mut setup: impl FnMut(ExecMode) -> S,
    mut measure: impl FnMut(ExecMode, &mut S) -> R,
) -> Vec<(ExecMode, Vec<R>)> {
    let mut arms: Vec<(ExecMode, S, Vec<R>)> = modes
        .iter()
        .map(|&mode| (mode, setup(mode), Vec::with_capacity(reps)))
        .collect();
    let n = arms.len();
    for round in 0..reps {
        for k in 0..n {
            let (mode, state, samples) = &mut arms[(round + k) % n];
            samples.push(measure(*mode, state));
        }
    }
    arms.into_iter().map(|(m, _, r)| (m, r)).collect()
}

/// The median of one field over a mode's samples.
fn median_of<R>(samples: &[R], field: impl Fn(&R) -> f64) -> f64 {
    covirt::stats::median(&samples.iter().map(field).collect::<Vec<_>>())
}

/// Figure 5a — STREAM bandwidths per configuration.
#[derive(Clone, Debug)]
pub struct Fig5aRow {
    /// Configuration label.
    pub mode: String,
    /// Bandwidths in MB/s.
    pub copy: f64,
    /// Scale kernel.
    pub scale: f64,
    /// Add kernel.
    pub add: f64,
    /// Triad kernel.
    pub triad: f64,
}

/// Run Figure 5a: every configuration built and warmed, then the timed
/// trials interleaved (drift cancellation, as for Figure 5b); STREAM
/// convention keeps the best bandwidth per kernel.
pub fn fig5a(scale: Scale) -> Vec<Fig5aRow> {
    let (n, trials) = match scale {
        Scale::Quick => (1 << 22, 5),
        Scale::Paper => (1 << 24, 10),
    };
    let mem = (n as u64 * 8 * 3 + 96 * 1024 * 1024).max(crate::env::DEFAULT_ENCLAVE_MEM);
    interleaved_sweep(
        &ExecMode::paper_sweep(),
        trials,
        |mode| {
            let w = World::build(mode, HwLayout { cores: 1, zones: 1 }, mem);
            let s = stream::Stream::setup(&w, n);
            let mut g = w.guest_core(w.cores[0]).expect("guest core");
            s.init(&mut g).expect("init");
            s.run_once(&mut g).expect("warmup");
            (w, s, g)
        },
        |_, (_, s, g)| s.run_once(g).expect("stream"),
    )
    .into_iter()
    .map(|(mode, runs)| {
        let best =
            |kernel: fn(&stream::StreamResult) -> f64| runs.iter().map(kernel).fold(0.0, f64::max);
        Fig5aRow {
            mode: mode.label(),
            copy: best(|r| r.copy_mbs),
            scale: best(|r| r.scale_mbs),
            add: best(|r| r.add_mbs),
            triad: best(|r| r.triad_mbs),
        }
    })
    .collect()
}

/// Figure 5b — RandomAccess GUPS per configuration.
#[derive(Clone, Debug)]
pub struct Fig5bRow {
    /// Configuration label.
    pub mode: String,
    /// Giga-updates per second.
    pub gups: f64,
    /// Observed TLB miss rate.
    pub tlb_miss_rate: f64,
    /// Guest PT-entry loads per TLB miss (3 under 2 MiB pages, every mode).
    pub guest_loads_per_miss: f64,
    /// Nested (EPT-entry) loads per TLB miss on top of those: 0 without an
    /// EPT, and with one once the walk cache holds the leaves the walk meets.
    pub nested_loads_per_miss: f64,
    /// EPT walk-cache hit rate (0 natively).
    pub walk_cache_hit_rate: f64,
}

/// Run Figure 5b: every configuration built and its table warmed, then
/// measured in interleaved batches; the per-configuration median GUPS is
/// reported (the paper averages ten runs per configuration) beside the
/// last batch's TLB and walk figures.
pub fn fig5b(scale: Scale) -> Vec<Fig5bRow> {
    let (log2_n, updates, reps) = match scale {
        Scale::Quick => (table1::RA_LOG2_TABLE_DEFAULT, 2_000_000u64, 9),
        Scale::Paper => (table1::RA_LOG2_TABLE_PAPER, 16_000_000u64, 15),
    };
    let mem = ((8u64 << log2_n) + 96 * 1024 * 1024).max(crate::env::DEFAULT_ENCLAVE_MEM);
    interleaved_sweep(
        &ExecMode::paper_sweep(),
        reps,
        |mode| {
            let w = World::build(mode, HwLayout { cores: 1, zones: 1 }, mem);
            let ra = randomaccess::RandomAccess::setup(&w, log2_n);
            let mut g = w.guest_core(w.cores[0]).expect("guest core");
            ra.init(&mut g).expect("init");
            ra.run(&mut g, updates / 2).expect("warmup");
            (w, ra, g)
        },
        |_, (_, ra, g)| ra.run(g, updates).expect("updates"),
    )
    .into_iter()
    .map(|(mode, runs)| {
        let last = runs.last().expect("at least one rep");
        Fig5bRow {
            mode: mode.label(),
            gups: median_of(&runs, |r| r.gups),
            tlb_miss_rate: last.tlb_miss_rate,
            guest_loads_per_miss: last.guest_loads_per_miss(),
            nested_loads_per_miss: if mode.config().is_some_and(|c| c.memory) {
                last.walk_loads_per_miss()
            } else {
                0.0
            },
            walk_cache_hit_rate: last.walk_cache_hit_rate(),
        }
    })
    .collect()
}

/// Figures 6/7 — scaling over CPU-core/NUMA-zone layouts.
#[derive(Clone, Debug)]
pub struct ScalingRow {
    /// Configuration label.
    pub mode: String,
    /// Layout label, e.g. "4c/2z".
    pub layout: String,
    /// Performance metric (MFLOP/s for MiniFE, GFLOP/s for HPCG).
    pub perf: f64,
    /// Solve seconds.
    pub seconds: f64,
}

/// Sweep a scaling figure: per layout, one discarded warm-up run per
/// configuration followed by `reps` interleaved measured runs; the median
/// is reported. (The paper runs everything ten times.)
fn scaling_sweep(
    reps: usize,
    run_one: impl Fn(ExecMode, HwLayout) -> (f64, f64),
) -> Vec<ScalingRow> {
    let mut rows = Vec::new();
    for layout in HwLayout::paper_layouts() {
        let runs = interleaved_sweep(
            &ExecMode::paper_sweep(),
            reps,
            |mode| {
                run_one(mode, layout);
            },
            |mode, ()| run_one(mode, layout),
        );
        rows.extend(runs.into_iter().map(|(mode, runs)| ScalingRow {
            mode: mode.label(),
            layout: layout.to_string(),
            perf: median_of(&runs, |r| r.0),
            seconds: median_of(&runs, |r| r.1),
        }));
    }
    rows
}

/// Run Figure 6 (MiniFE).
pub fn fig6(scale: Scale) -> Vec<ScalingRow> {
    let (dim, iters, reps) = match scale {
        Scale::Quick => (table1::MINIFE_DIM_DEFAULT / 2, 100, 3),
        Scale::Paper => (table1::MINIFE_DIM_PAPER, 200, 5),
    };
    scaling_sweep(reps, |mode, layout| {
        let w = World::build(mode, layout, crate::env::DEFAULT_ENCLAVE_MEM);
        let r = minife::run(&w, dim, iters);
        (r.mflops, r.solve_seconds)
    })
}

/// Run Figure 7 (HPCG).
pub fn fig7(scale: Scale) -> Vec<ScalingRow> {
    let (dim, iters, reps) = match scale {
        Scale::Quick => (table1::HPCG_DIM_DEFAULT / 2, 40, 3),
        Scale::Paper => (table1::HPCG_DIM_PAPER, 50, 5),
    };
    scaling_sweep(reps, |mode, layout| {
        let w = World::build(mode, layout, crate::env::DEFAULT_ENCLAVE_MEM);
        let r = hpcg::run(&w, dim, iters);
        (r.gflops, r.seconds)
    })
}

/// Figure 8 — LAMMPS loop times per workload and configuration.
#[derive(Clone, Debug)]
pub struct Fig8Row {
    /// Configuration label.
    pub mode: String,
    /// Workload name (lj/chain/eam/chute).
    pub workload: String,
    /// Loop time in seconds (lower is better).
    pub loop_time_s: f64,
}

/// Run Figure 8 (8 cores / 2 NUMA zones, per the paper): per workload, a
/// warm-up run per configuration then `reps` interleaved measured runs,
/// reporting median loop time.
pub fn fig8(scale: Scale) -> Vec<Fig8Row> {
    let layout = HwLayout { cores: 8, zones: 2 };
    let reps = match scale {
        Scale::Quick => 3,
        Scale::Paper => 5,
    };
    let mut rows = Vec::new();
    for wl in md::MdWorkload::ALL {
        let mut params = md::MdParams::default_for(wl);
        if scale == Scale::Paper {
            params.n_atoms = 32_000;
            params.steps = 100;
        }
        let run_one = |mode| {
            let w = World::build(mode, layout, crate::env::DEFAULT_ENCLAVE_MEM);
            md::run(&w, params).loop_time_s
        };
        let runs = interleaved_sweep(
            &ExecMode::paper_sweep(),
            reps,
            |mode| {
                run_one(mode);
            },
            |mode, ()| run_one(mode),
        );
        rows.extend(runs.into_iter().map(|(mode, times)| Fig8Row {
            mode: mode.label(),
            workload: wl.label().to_owned(),
            loop_time_s: covirt::stats::median(&times),
        }));
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    // The figure drivers are exercised end-to-end (at reduced scale) by
    // the integration suite; here only cheap structural checks run.

    #[test]
    fn sweep_labels_unique() {
        let labels: Vec<String> = ExecMode::paper_sweep().iter().map(|m| m.label()).collect();
        let mut dedup = labels.clone();
        dedup.dedup();
        assert_eq!(labels.len(), dedup.len());
    }

    /// Every arm is warmed once, then each round measures every arm once,
    /// led by arm `round mod 3`.
    #[test]
    fn sweep_warms_each_mode_once_then_rotates_the_lead_each_round() {
        let [a, b, c, _] = ExecMode::paper_sweep();
        let log = std::cell::RefCell::new(Vec::new());
        let runs = interleaved_sweep(
            &[a, b, c],
            4,
            |mode| log.borrow_mut().push(("warm", mode)),
            |mode, ()| {
                log.borrow_mut().push(("measure", mode));
                log.borrow().len()
            },
        );
        let round = |modes: [ExecMode; 3]| modes.map(|m| ("measure", m));
        let expected = [
            [("warm", a), ("warm", b), ("warm", c)],
            round([a, b, c]),
            round([b, c, a]),
            round([c, a, b]),
            round([a, b, c]),
        ];
        assert_eq!(*log.borrow(), expected.concat());
        // Each mode gets its own samples back, in rep order.
        let expected_runs = [
            (a, vec![4, 9, 11, 13]),
            (b, vec![5, 7, 12, 14]),
            (c, vec![6, 8, 10, 15]),
        ];
        assert_eq!(runs, expected_runs);
    }

    #[test]
    fn fig3_quick_runs() {
        let rows = fig3(Scale::Quick);
        assert_eq!(rows.len(), 4);
        for r in rows {
            assert!(r.min_loop_ns > 0);
            assert!(
                r.noise_fraction < 0.5,
                "{}: noise {}",
                r.mode,
                r.noise_fraction
            );
        }
    }
}
