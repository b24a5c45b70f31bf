//! # covirt-bench — the evaluation harness
//!
//! One entry point: the **`figures` binary** (`cargo run -p covirt-bench
//! --release --bin figures -- <table1|fig3|...|profile|bench|all>
//! [--full]`) re-runs an experiment and prints the same rows/series the
//! paper's table or figure reports, including the overhead percentages
//! the text quotes.
//!
//! This library holds the report renderers, the shared
//! [`gate::GateResult`] pass/fail path every subcommand exits through,
//! and the [`suite`] module: the one table of harnesses behind every
//! `figures` subcommand, its declarative gate table, the records a run
//! reduces to and the `BENCH_covirt.json` writer.

pub mod gate;
pub mod suite;

/// The `alloc` harness counts allocations only under this allocator.
#[cfg(test)]
#[global_allocator]
static ALLOC: workloads::census::CountingAlloc = workloads::census::CountingAlloc;

use crate::suite::Direction::{self, Higher, Lower};
use covirt::stats::overhead_pct;
use covirt_simhw::topology::ZoneId;
use covirt_trace::audit::CmdLifecycle;
use covirt_trace::Phase;
use workloads::audit::audit_trace;
use workloads::exitless::{ArmResult, ConcurrentResult, ParkedResult};
use workloads::figures::{Fig3Row, Fig4Row, Fig5aRow, Fig5bRow, Fig8Row, ScalingRow};
use workloads::profile::{OverheadArm, ProfileReport};
use workloads::scaling::{NumaPoint, ScalingPoint};
use workloads::shootdown::ShootdownRun;

/// Format an overhead percentage for a table cell: two decimals, or
/// `"n/a"` when the baseline was zero (`overhead_pct` yields NaN then).
pub fn fmt_pct(v: f64) -> String {
    if v.is_nan() {
        "n/a".to_string()
    } else {
        format!("{v:.2}")
    }
}

/// Render Figure 3 output: per-configuration noise summaries plus the
/// first few detour samples (the scatter the paper plots).
pub fn render_fig3(rows: &[Fig3Row]) -> String {
    let mut out = String::from(
        "Fig. 3 — Selfish-Detour noise profile (single core)\n\
         config              detours/s   noise-%    min-loop-ns\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{:<19} {:>9.1} {:>9.4} {:>13}\n",
            r.mode,
            r.rate_hz,
            r.noise_fraction * 100.0,
            r.min_loop_ns
        ));
    }
    out.push_str("\nscatter samples (offset-ms, detour-us), per config:\n");
    for r in rows {
        let pts: Vec<String> = r
            .detours
            .iter()
            .take(8)
            .map(|&(at, d)| format!("({:.1},{:.1})", at as f64 / 1e6, d as f64 / 1e3))
            .collect();
        out.push_str(&format!("  {:<18} {}\n", r.mode, pts.join(" ")));
    }
    out
}

/// Render Figure 4: attach delay vs size for each mode.
pub fn render_fig4(rows: &[Fig4Row]) -> String {
    let mut out = String::from("Fig. 4 — XEMEM attach delay\nsize-MiB");
    for r in rows {
        out.push_str(&format!(" {:>16}", format!("{}-us", r.mode)));
    }
    out.push('\n');
    let sizes: Vec<u64> = rows[0].samples.iter().map(|s| s.0).collect();
    for (i, &size) in sizes.iter().enumerate() {
        out.push_str(&format!("{size:>8}"));
        for r in rows {
            out.push_str(&format!(" {:>16.2}", r.samples[i].1));
        }
        out.push('\n');
    }
    out
}

/// `head`, then each row of `rows` against its group's `native` row, one
/// `line` per row. `key` gives a row's group and mode; the groups are the
/// runs of equal keys in row order, and each prints every row of its key.
/// `line` gets the row and `ovh`, which formats a column's overhead
/// against the native row, positive when the row is worse in the column's
/// direction.
fn vs_native<'a, R, K: PartialEq>(
    head: &str,
    rows: &'a [R],
    key: impl Fn(&'a R) -> (K, &'a str),
    line: impl Fn(&R, &dyn Fn(fn(&R) -> f64, Direction) -> String) -> String,
) -> String {
    let mut groups: Vec<K> = rows.iter().map(|r| key(r).0).collect();
    groups.dedup();
    let mut out = head.to_string();
    for g in &groups {
        let group = || rows.iter().filter(|r| key(r).0 == *g);
        let native = group().find(|r| key(r).1 == "native").expect("native row");
        for r in group() {
            let ovh = |col: fn(&R) -> f64, better| match better {
                Direction::Higher => fmt_pct(overhead_pct(col(r), col(native))),
                Direction::Lower => fmt_pct(overhead_pct(col(native), col(r))),
            };
            out.push_str(&line(r, &ovh));
        }
    }
    out
}

/// Render Figure 5a (STREAM) with overhead-vs-native percentages.
pub fn render_fig5a(rows: &[Fig5aRow]) -> String {
    vs_native(
        "Fig. 5a — STREAM bandwidth (MB/s)\n\
         config              copy        scale       add         triad     triad-ovh%\n",
        rows,
        |r| ((), &r.mode),
        |r, ovh| {
            format!(
                "{:<18} {:>10.0} {:>11.0} {:>11.0} {:>11.0} {:>10}\n",
                r.mode,
                r.copy,
                r.scale,
                r.add,
                r.triad,
                ovh(|r| r.triad, Higher)
            )
        },
    )
}

/// Render Figure 5b (RandomAccess GUPS) with overheads and the nested-walk
/// instrumentation behind them.
pub fn render_fig5b(rows: &[Fig5bRow]) -> String {
    vs_native(
        "Fig. 5b — RandomAccess\n\
         config              GUPS        miss-rate   overhead-%  loads/miss (guest + nested)  wcache-hit%\n",
        rows,
        |r| ((), &r.mode),
        |r, ovh| {
            format!(
                "{:<18} {:>10.5} {:>11.4} {:>11} {:>11.2} ({:.2} + {:.2}) {:>16.1}\n",
                r.mode,
                r.gups,
                r.tlb_miss_rate,
                ovh(|r| r.gups, Higher),
                r.guest_loads_per_miss + r.nested_loads_per_miss,
                r.guest_loads_per_miss,
                r.nested_loads_per_miss,
                r.walk_cache_hit_rate * 100.0
            )
        },
    )
}

/// Render a scaling figure (6 or 7).
pub fn render_scaling(title: &str, unit: &str, rows: &[ScalingRow]) -> String {
    vs_native(
        &format!("{title}\nlayout  config              {unit:>12}   seconds   ovh-vs-native-%\n"),
        rows,
        |r| (&r.layout, &r.mode),
        |r, ovh| {
            format!(
                "{:<7} {:<18} {:>12.2} {:>9.3} {:>12}\n",
                r.layout,
                r.mode,
                r.perf,
                r.seconds,
                ovh(|r| r.perf, Higher)
            )
        },
    )
}

/// Render the data-plane scaling sweep (per-core STREAM + RandomAccess at
/// 1/2/4/8 cores).
pub fn render_scaling_points(rows: &[ScalingPoint]) -> String {
    vs_native(
        "Data-plane scaling — per-core throughput (weak scaling)\n\
         cores config              triad-MB/s/core  ovh-%  GUPS/core  ovh-%\n",
        rows,
        |r| (r.cores, &r.mode),
        |r, ovh| {
            format!(
                "{:<5} {:<18} {:>15.0} {:>6} {:>10.5} {:>6}\n",
                r.cores,
                r.mode,
                r.stream_mbs_per_core,
                ovh(|r| r.stream_mbs_per_core, Higher),
                r.gups_per_core,
                ovh(|r| r.gups_per_core, Higher),
            )
        },
    )
}

/// Render the multi-zone weak-scaling arm: per-core throughput with each
/// core's arrays pinned to its local zone.
pub fn render_numa_points(rows: &[NumaPoint]) -> String {
    vs_native(
        "Multi-zone weak scaling — arrays pinned per local zone\n\
         cores zones config              triad-MB/s/core  ovh-%\n",
        rows,
        |r| (r.cores, &r.mode),
        |r, ovh| {
            format!(
                "{:<5} {:<5} {:<18} {:>15.0} {:>6}\n",
                r.cores,
                r.zones,
                r.mode,
                r.stream_mbs_per_core,
                ovh(|r| r.stream_mbs_per_core, Higher),
            )
        },
    )
}

/// Render Figure 8 (LAMMPS loop times, lower is better).
pub fn render_fig8(rows: &[Fig8Row]) -> String {
    vs_native(
        "Fig. 8 — LAMMPS loop time (s, lower is better)\n\
         workload  config              loop-s     ovh-vs-native-%\n",
        rows,
        |r| (&r.workload, &r.mode),
        |r, ovh| {
            format!(
                "{:<9} {:<18} {:>8.3} {:>14}\n",
                r.workload,
                r.mode,
                r.loop_time_s,
                ovh(|r| r.loop_time_s, Lower)
            )
        },
    )
}

/// Render the shootdown demo's page of one recorded run: the per-reclaim
/// headline, the per-core count table (TLB, walk cache, exits, guest-mode
/// harvests), the audit engine's page over the same capture (region and
/// command lifecycles, the per-enclave latency rows), the slowest of the
/// command completions it stitched, and each zone's memory in use.
pub fn render_report(run: &ShootdownRun) -> String {
    let mut out = format!(
        "Reclaim, one shootdown each: 2 x 2 MiB reclaimed, {} broadcast shootdown(s), \
         {} NMI escalation(s)\n\
         core   tlb-hits  tlb-misses  full-flush  range-flush  wcache h/m  \
         exits  harvested\n",
        run.shootdowns, run.nmi_escalations
    );
    for g in &run.cores {
        let (tlb, c) = (g.tlb_stats(), g.counters());
        out.push_str(&format!(
            "cpu{:<4} {:>8} {:>11} {:>11} {:>12} {:>10} {:>6} {:>10}\n",
            g.core,
            tlb.hits,
            tlb.misses,
            tlb.full_flushes,
            tlb.range_flushes,
            format!("{}/{}", c.walk_cache_hits, c.walk_cache_misses),
            g.exit_count(),
            c.cmd_harvested,
        ));
    }
    let node = &run.node;
    let audit = audit_trace(node);
    out += &format!("\n{}", audit.render());

    let mut timed: Vec<&CmdLifecycle> = audit
        .commands
        .iter()
        .filter(|c| c.complete_tsc.is_some())
        .collect();
    timed.sort_by(|x, y| y.complete_ns.cmp(&x.complete_ns).then(x.seq.cmp(&y.seq)));
    out.push_str(
        "\nslowest command completions (post -> complete):\n\
         \x20 seq        core   latency-ns\n",
    );
    for c in timed.iter().take(5) {
        out.push_str(&format!(
            "  {:<10} {:<6} {:>10}\n",
            c.seq, c.core, c.complete_ns
        ));
    }

    out.push_str("\nper-zone memory:\n  zone   total-MiB   in-use-KiB\n");
    for z in 0..node.topology.zones {
        let (total, in_use) = node.mem.zone_usage(ZoneId(z)).expect("zone usage");
        out.push_str(&format!(
            "  {:<6} {:>9} {:>12}\n",
            z,
            total >> 20,
            in_use >> 10
        ));
    }
    out
}

/// Render the `exitless` comparison: the two steady-state delivery arms,
/// the concurrent barrier and the parked-core fallback.
pub fn render_exitless(
    nmi: &ArmResult,
    doorbell: &ArmResult,
    conc: &ConcurrentResult,
    parked: &ParkedResult,
) -> String {
    let mut out = format!(
        "steady-state command delivery ({} single-command round-trips per arm):\n\
         \x20 {:<15} {:>9} {:>12} {:>12} {:>10} {:>10} {:>11}\n",
        nmi.rounds, "arm", "commands", "p50-ns", "p99-ns", "cmd-exits", "exits/cmd", "escalations"
    );
    for a in [nmi, doorbell] {
        out.push_str(&format!(
            "  {:<15} {:>9} {:>12} {:>12} {:>10} {:>10.3} {:>11}\n",
            a.label,
            a.commands,
            a.p50_ns,
            a.p99_ns,
            a.cmd_exits,
            a.exits_per_cmd(),
            a.escalations
        ));
    }
    out.push_str(&format!(
        "  post->complete p99 ratio (nmi-only / doorbell-first): {:.1}x\n\
         concurrent barrier ({} rounds, 2 live cores): {} command-path exit(s), \
         {} harvested in guest mode, {} escalation(s)\n\
         parked-core fallback: {} escalation(s), first after {} ns (bound {} ns), completed: {}\n",
        nmi.p99_ns as f64 / doorbell.p99_ns.max(1) as f64,
        conc.rounds,
        conc.cmd_exits,
        conc.harvested,
        conc.escalations,
        parked.escalations,
        parked.time_to_escalation_ns,
        parked.bound_ns,
        parked.completed
    ));
    out
}

/// Render an instrumentation off-vs-on STREAM arm (`what` = "recorder" /
/// "profiler").
pub fn render_overhead_arm(what: &str, arm: &OverheadArm) -> String {
    format!(
        "STREAM triad, {what} off: {:.0} MB/s\n\
         STREAM triad, {what} on:  {:.0} MB/s\n\
         disabled-{what} margin: {}%  (positive = off faster, as expected)\n",
        arm.off_mbs,
        arm.on_mbs,
        fmt_pct(overhead_pct(arm.on_mbs, arm.off_mbs)) // off throughput relative to on
    )
}

/// Render a profile report: the per-enclave x per-phase cycle table and
/// the per-core conservation check.
pub fn render_profile(r: &ProfileReport) -> String {
    let mut out = String::from("per-enclave phase breakdown (cycles):\n");
    out.push_str(&format!("  {:<10}", "enclave"));
    for p in Phase::ALL {
        out.push_str(&format!(" {:>14}", p.name()));
    }
    out.push('\n');
    for e in r.snapshot.by_enclave() {
        let label = e.enclave.map_or("native".to_string(), |id| id.to_string());
        out.push_str(&format!("  {label:<10}"));
        for p in Phase::ALL {
            out.push_str(&format!(" {:>14}", e.cycles[p as usize]));
        }
        out.push('\n');
    }
    out.push_str("per-core conservation (accounted vs wall TSC):\n");
    for l in r.snapshot.lanes.iter().filter(|l| l.wall > 0) {
        out.push_str(&format!(
            "  core{:<3} wall {:>14}  accounted {:>14}  err {:.4}%\n",
            l.lane,
            l.wall,
            l.accounted,
            l.conservation_error() * 100.0
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_pct_prints_na_for_nan() {
        assert_eq!(fmt_pct(f64::NAN), "n/a");
        assert_eq!(fmt_pct(4.25159), "4.25");
        assert_eq!(fmt_pct(overhead_pct(0.0, 5.0)), "n/a");
    }

    /// Each group's baseline is its `native` row wherever it sits, and a
    /// column's sign follows its direction: a worse row reads positive.
    #[test]
    fn vs_native_reads_each_groups_native_row_in_either_direction() {
        let rows = [
            ("a", "covirt", 90.0, 1.1),
            ("a", "native", 100.0, 1.0),
            ("b", "covirt", 300.0, 1.5),
            ("b", "none", 150.0, 2.5),
            ("b", "native", 200.0, 2.0),
        ];
        let s = vs_native(
            "head\n",
            &rows,
            |r| (r.0, r.1),
            |_, ovh| format!("{} {}\n", ovh(|r| r.2, Higher), ovh(|r| r.3, Lower)),
        );
        // Row order is kept: a's two rows, then b's three.
        assert_eq!(
            s,
            "head\n11.11 10.00\n0.00 0.00\n-33.33 -25.00\n33.33 25.00\n0.00 0.00\n"
        );
    }

    #[test]
    fn fig5b_render_includes_overheads() {
        let rows = vec![
            Fig5bRow {
                mode: "native".into(),
                gups: 0.010,
                tlb_miss_rate: 0.05,
                guest_loads_per_miss: 3.0,
                nested_loads_per_miss: 0.0,
                walk_cache_hit_rate: 0.0,
            },
            Fig5bRow {
                mode: "covirt-mem".into(),
                gups: 0.0098,
                tlb_miss_rate: 0.05,
                guest_loads_per_miss: 3.0,
                nested_loads_per_miss: 3.2,
                walk_cache_hit_rate: 0.74,
            },
        ];
        let s = render_fig5b(&rows);
        assert!(s.contains("native"));
        assert!(s.contains("covirt-mem"));
        // native is ~2% faster than covirt-mem.
        assert!(s.contains("2.0"));
        assert!(s.contains("6.20 (3.00 + 3.20)"), "{s}");
    }

    #[test]
    fn scaling_render_groups_by_layout() {
        let rows = vec![
            ScalingRow {
                mode: "native".into(),
                layout: "1c/1z".into(),
                perf: 100.0,
                seconds: 1.0,
            },
            ScalingRow {
                mode: "covirt-mem".into(),
                layout: "1c/1z".into(),
                perf: 99.0,
                seconds: 1.01,
            },
            ScalingRow {
                mode: "native".into(),
                layout: "4c/2z".into(),
                perf: 300.0,
                seconds: 0.4,
            },
        ];
        let s = render_scaling("Fig. 7 — HPCG", "GFLOP/s", &rows);
        assert!(s.contains("1c/1z"));
        assert!(s.contains("4c/2z"));
    }

    #[test]
    fn numa_render_lists_both_modes() {
        let rows = vec![
            NumaPoint {
                mode: "native".into(),
                cores: 2,
                zones: 2,
                stream_mbs_per_core: 1000.0,
            },
            NumaPoint {
                mode: "covirt-mem".into(),
                cores: 2,
                zones: 2,
                stream_mbs_per_core: 990.0,
            },
        ];
        let s = render_numa_points(&rows);
        assert!(s.contains("covirt-mem"));
        // covirt is ~1% slower than native on this rung.
        assert!(s.contains("1.0"));
    }

    #[test]
    fn fig8_render_lower_is_better_sign() {
        let rows = vec![
            Fig8Row {
                mode: "native".into(),
                workload: "lj".into(),
                loop_time_s: 1.0,
            },
            Fig8Row {
                mode: "covirt-mem".into(),
                workload: "lj".into(),
                loop_time_s: 1.05,
            },
        ];
        let s = render_fig8(&rows);
        // covirt is 5% slower ⇒ positive overhead.
        assert!(s.contains("5.00"));
    }
}
