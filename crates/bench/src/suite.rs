//! The one harness table behind the `figures` binary. Every experiment
//! is an entry of [`HARNESSES`]: `figures <name>` runs one entry,
//! `figures all` the entries marked for it, and `figures bench` every
//! entry that owns rows of the one declarative [`GATES`] table — the
//! single place the repo's performance/correctness bounds live. All three
//! go through [`run_suite`] and [`apply_gates`], so a harness is measured,
//! reported and judged by the same code however it is invoked, and a row's
//! bound is the whole verdict on it: there is no baseline file.
//!
//! Metric selection follows the simulator's measurement model: the sim
//! TSC is scaled host wall-clock, so raw latencies and bandwidths are
//! machine-dependent. Those rows carry no bound, or a capability bound
//! judged on the best trial; deterministic counts, rates, ratios and
//! conservation errors are bounded at the value they take, judged on the
//! worst trial.

use crate::gate::GateResult;
use crate::{
    render_exitless, render_fig3, render_fig4, render_fig5a, render_fig5b, render_fig8,
    render_numa_points, render_overhead_arm, render_profile, render_scaling, render_scaling_points,
    render_shootdown,
};
use covirt::config::CovirtConfig;
use covirt::stats::{median, overhead_pct};
use covirt::ExecMode;
use covirt_trace::export::escape;
use covirt_trace::Phase;
use std::collections::BTreeMap;
use std::path::Path;
use workloads::figures::{self, Scale};
use workloads::scaling::ScalingParams;
use workloads::{audit, census, exitless, profile, scaling, shootdown, table1};

/// Default trials per harness for `figures bench`.
pub const DEFAULT_TRIALS: usize = 3;

/// Scaling-rung sizing for the suite: smaller than `Scale::Quick` so a
/// multi-trial run stays CI-friendly, but still many pages per core.
const SUITE_SCALING: ScalingParams = ScalingParams {
    stream_n: 1 << 19,
    ra_log2_n: 14,
    ra_updates: 50_000,
    trials: 3,
};
const SCALING_CORES: usize = 4;
const FRAG_REGIONS: usize = 128;
const FRAG_ROUNDS: usize = 8;
const EXITLESS_ROUNDS: u64 = 8192;
const BARRIER_ROUNDS: u64 = 32;
const PARKED_BOUND_NS: u64 = 200_000;

/// Which way "better" points for a metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    /// Larger is better (throughput, hit rates, speedups).
    Higher,
    /// Smaller is better (latency, error, exits, violations).
    Lower,
}

impl Direction {
    /// Name in `BENCH_covirt.json`.
    pub fn name(self) -> &'static str {
        match self {
            Direction::Higher => "higher",
            Direction::Lower => "lower",
        }
    }
}

/// Which trial statistic a row's bounds judge.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GateOn {
    /// The sample farthest in the worse direction — the default, right
    /// for deterministic counts and invariants (one bad trial fails).
    Worst,
    /// The sample farthest in the better direction — capability claims
    /// on wall-clock-noisy metrics ("the off-path CAN run within 2%"),
    /// the STREAM best-of convention.
    Best,
}

/// One row of the declarative gate table: the metric's identity and its
/// bounds, judged against the [`GateOn`] trial statistic. A row with no
/// bound is `info`: recorded, never judged.
pub struct MetricSpec {
    /// Harness name.
    pub harness: &'static str,
    /// Metric name.
    pub metric: &'static str,
    /// Unit string.
    pub unit: &'static str,
    /// Which way better points.
    pub direction: Direction,
    /// The gated statistic must be `>=` this.
    pub min: Option<f64>,
    /// The gated statistic must be `<=` this.
    pub max: Option<f64>,
    /// Which trial statistic `min`/`max` judge.
    pub gate_on: GateOn,
}

impl MetricSpec {
    /// Whether the row has a bound to fail.
    pub fn bounded(&self) -> bool {
        self.min.is_some() || self.max.is_some()
    }
}

/// The gate table. Every metric a harness emits appears here under the
/// harness's name, in [`HARNESSES`] order, and [`run_suite`] panics if
/// the collector and this table drift apart. A bound on a deterministic
/// count sits at the value the count takes, so any move in the worse
/// direction fails; a new row is gated by adding it here.
pub const GATES: &[MetricSpec] = &[
    // -- table1: the benchmark roster itself --------------------------------
    MetricSpec {
        harness: "table1",
        metric: "rows",
        unit: "count",
        direction: Direction::Higher,
        min: Some(6.0),
        max: None,
        gate_on: GateOn::Worst,
    },
    // -- shootdown: one broadcast per reclaim ------------------------------
    MetricSpec {
        harness: "shootdown",
        metric: "broadcast_shootdowns",
        unit: "count",
        direction: Direction::Lower,
        min: Some(2.0),
        max: Some(2.0),
        gate_on: GateOn::Worst,
    },
    MetricSpec {
        harness: "shootdown",
        metric: "tlb_range_flushes",
        unit: "count",
        direction: Direction::Lower,
        min: Some(1.0),
        max: Some(8.0),
        gate_on: GateOn::Worst,
    },
    // -- scaling: 4-core data-plane rung, native vs covirt ------------------
    MetricSpec {
        harness: "scaling",
        metric: "native_stream_mbs_per_core",
        unit: "MB/s",
        direction: Direction::Higher,
        min: None,
        max: None,
        gate_on: GateOn::Worst,
    },
    MetricSpec {
        harness: "scaling",
        metric: "covirt_stream_mbs_per_core",
        unit: "MB/s",
        direction: Direction::Higher,
        min: None,
        max: None,
        gate_on: GateOn::Worst,
    },
    MetricSpec {
        harness: "scaling",
        metric: "stream_overhead_pct",
        unit: "pct",
        direction: Direction::Lower,
        min: None,
        max: None,
        gate_on: GateOn::Worst,
    },
    MetricSpec {
        harness: "scaling",
        metric: "covirt_gups_per_core",
        unit: "GUPS",
        direction: Direction::Higher,
        min: None,
        max: None,
        gate_on: GateOn::Worst,
    },
    // One core, a 2-entry TLB over a four-page table: EPT-entry loads per
    // TLB miss once the walk cache is warm. 3 means the data page's leaf is
    // walked afresh on every miss.
    MetricSpec {
        harness: "scaling",
        metric: "nested_loads_per_warm_miss",
        unit: "count",
        direction: Direction::Lower,
        min: None,
        max: Some(0.0),
        gate_on: GateOn::Worst,
    },
    // The same run: guest PT-entry addresses per TLB miss translated on
    // the nested walk's slow path (a walk-cache lookup) instead of inside
    // the walk cache's table line. 0 while the line survives from miss to
    // miss; 1 means every miss looks its first table entry up again, 3 that
    // no level walks inside the line.
    MetricSpec {
        harness: "scaling",
        metric: "slow_entries_per_warm_miss",
        unit: "count",
        direction: Direction::Lower,
        min: None,
        max: Some(0.0),
        gate_on: GateOn::Worst,
    },
    // -- numa: the walk over a fragmented enclave ---------------------------
    // EPT-entry loads per TLB miss over the fragmented working set (4 KiB
    // EPT leaves the walk cache cannot keep): 2 while the walk starts at the
    // cached PD page of the data page's GiB, 4 from the EPT root. The run
    // is deterministic and lands on 1027/512 exactly.
    MetricSpec {
        harness: "numa",
        metric: "frag_nested_loads_per_miss",
        unit: "count",
        direction: Direction::Lower,
        min: None,
        max: Some(2.005859375),
        gate_on: GateOn::Worst,
    },
    // -- exitless: command delivery -----------------------------------------
    MetricSpec {
        harness: "exitless",
        metric: "nmi_p99_ns",
        unit: "ns",
        direction: Direction::Lower,
        min: None,
        max: None,
        gate_on: GateOn::Worst,
    },
    MetricSpec {
        harness: "exitless",
        metric: "doorbell_p99_ns",
        unit: "ns",
        direction: Direction::Lower,
        min: None,
        max: None,
        gate_on: GateOn::Worst,
    },
    MetricSpec {
        harness: "exitless",
        metric: "p99_speedup",
        unit: "ratio",
        direction: Direction::Higher,
        min: Some(3.0),
        max: None,
        gate_on: GateOn::Best,
    },
    MetricSpec {
        harness: "exitless",
        metric: "doorbell_cmd_exits",
        unit: "count",
        direction: Direction::Lower,
        min: None,
        max: Some(0.0),
        gate_on: GateOn::Worst,
    },
    MetricSpec {
        harness: "exitless",
        metric: "doorbell_escalations",
        unit: "count",
        direction: Direction::Lower,
        min: None,
        max: Some(0.0),
        gate_on: GateOn::Worst,
    },
    MetricSpec {
        harness: "exitless",
        metric: "doorbell_unharvested",
        unit: "count",
        direction: Direction::Lower,
        min: None,
        max: Some(0.0),
        gate_on: GateOn::Worst,
    },
    MetricSpec {
        harness: "exitless",
        metric: "concurrent_cmd_exits",
        unit: "count",
        direction: Direction::Lower,
        min: None,
        max: Some(0.0),
        gate_on: GateOn::Worst,
    },
    MetricSpec {
        harness: "exitless",
        metric: "concurrent_escalations",
        unit: "count",
        direction: Direction::Lower,
        min: None,
        max: Some(0.0),
        gate_on: GateOn::Worst,
    },
    MetricSpec {
        harness: "exitless",
        metric: "parked_escalations",
        unit: "count",
        direction: Direction::Higher,
        min: Some(1.0),
        max: None,
        gate_on: GateOn::Worst,
    },
    MetricSpec {
        harness: "exitless",
        metric: "parked_escalated_after_bound",
        unit: "bool",
        direction: Direction::Higher,
        min: Some(1.0),
        max: None,
        gate_on: GateOn::Worst,
    },
    MetricSpec {
        harness: "exitless",
        metric: "parked_completed",
        unit: "bool",
        direction: Direction::Higher,
        min: Some(1.0),
        max: None,
        gate_on: GateOn::Worst,
    },
    // -- audit: protection-audit engine -------------------------------------
    MetricSpec {
        harness: "audit",
        metric: "clean_violations",
        unit: "count",
        direction: Direction::Lower,
        min: None,
        max: Some(0.0),
        gate_on: GateOn::Worst,
    },
    MetricSpec {
        harness: "audit",
        metric: "region_lifecycles",
        unit: "count",
        direction: Direction::Higher,
        min: Some(1.0),
        max: None,
        gate_on: GateOn::Worst,
    },
    MetricSpec {
        harness: "audit",
        metric: "command_chains",
        unit: "count",
        direction: Direction::Higher,
        min: Some(1.0),
        max: None,
        gate_on: GateOn::Worst,
    },
    MetricSpec {
        harness: "audit",
        metric: "fault_attributed_violations",
        unit: "count",
        direction: Direction::Higher,
        min: Some(1.0),
        max: None,
        gate_on: GateOn::Worst,
    },
    // Info: host wall-clock, so a bound waits for a virtual clock.
    MetricSpec {
        harness: "audit",
        metric: "fault_to_teardown_ns",
        unit: "ns",
        direction: Direction::Lower,
        min: None,
        max: None,
        gate_on: GateOn::Worst,
    },
    // -- profile: always-on cycle accounting --------------------------------
    MetricSpec {
        harness: "profile",
        metric: "conservation_error_pct",
        unit: "pct",
        direction: Direction::Lower,
        min: None,
        max: Some(0.5),
        gate_on: GateOn::Worst,
    },
    MetricSpec {
        harness: "profile",
        metric: "profiler_off_deficit_pct",
        unit: "pct",
        direction: Direction::Lower,
        min: None,
        max: Some(5.0),
        gate_on: GateOn::Best,
    },
    MetricSpec {
        harness: "profile",
        metric: "fault_culprit_spike_cycles",
        unit: "cycles",
        direction: Direction::Higher,
        min: Some(1.0),
        max: None,
        gate_on: GateOn::Worst,
    },
    MetricSpec {
        harness: "profile",
        metric: "bystander_controller_cycles",
        unit: "cycles",
        direction: Direction::Lower,
        min: None,
        max: Some(0.0),
        gate_on: GateOn::Worst,
    },
    // -- alloc: heap allocations per call (counted, not timed) --------------
    // The per-event paths of the co-kernel, the guest, the controller and
    // the hypervisor allocate nothing. The host's grant and reclaim calls
    // sit at the value they reach, 0; the lifecycle at what Covirt adds to
    // the native one: the context, its slots (each core's VMCS inline),
    // the EPT and its frame record, each core's queue frame, the
    // whitelist's core bitmap, the abort reason, and one fault-log growth
    // every eight lifecycles. The two lifecycle totals are information.
    // The lifecycles give every frame of the controller's pool back, which
    // the perfbench leak gate, reading zone bytes, cannot see.
    MetricSpec {
        harness: "alloc",
        metric: "coker_poll",
        unit: "allocs",
        direction: Direction::Lower,
        min: None,
        max: Some(0.0),
        gate_on: GateOn::Worst,
    },
    MetricSpec {
        harness: "alloc",
        metric: "guest_harvest",
        unit: "allocs",
        direction: Direction::Lower,
        min: None,
        max: Some(0.0),
        gate_on: GateOn::Worst,
    },
    MetricSpec {
        harness: "alloc",
        metric: "grant_hook",
        unit: "allocs",
        direction: Direction::Lower,
        min: None,
        max: Some(0.0),
        gate_on: GateOn::Worst,
    },
    MetricSpec {
        harness: "alloc",
        metric: "reclaim_round_trip",
        unit: "allocs",
        direction: Direction::Lower,
        min: None,
        max: Some(0.0),
        gate_on: GateOn::Worst,
    },
    MetricSpec {
        harness: "alloc",
        metric: "cpuid_exit",
        unit: "allocs",
        direction: Direction::Lower,
        min: None,
        max: Some(0.0),
        gate_on: GateOn::Worst,
    },
    MetricSpec {
        harness: "alloc",
        metric: "lifecycle_covirt_minus_native",
        unit: "allocs",
        direction: Direction::Lower,
        min: None,
        max: Some(7.125),
        gate_on: GateOn::Worst,
    },
    MetricSpec {
        harness: "alloc",
        metric: "lifecycle_frames_left",
        unit: "frames",
        direction: Direction::Lower,
        min: None,
        max: Some(0.0),
        gate_on: GateOn::Worst,
    },
    MetricSpec {
        harness: "alloc",
        metric: "lifecycle_covirt",
        unit: "allocs",
        direction: Direction::Lower,
        min: None,
        max: None,
        gate_on: GateOn::Worst,
    },
    MetricSpec {
        harness: "alloc",
        metric: "lifecycle_native",
        unit: "allocs",
        direction: Direction::Lower,
        min: None,
        max: None,
        gate_on: GateOn::Worst,
    },
    MetricSpec {
        harness: "alloc",
        metric: "add_memory",
        unit: "allocs",
        direction: Direction::Lower,
        min: None,
        max: Some(0.0),
        gate_on: GateOn::Worst,
    },
    MetricSpec {
        harness: "alloc",
        metric: "request_remove",
        unit: "allocs",
        direction: Direction::Lower,
        min: None,
        max: Some(0.0),
        gate_on: GateOn::Worst,
    },
    MetricSpec {
        harness: "alloc",
        metric: "process_acks",
        unit: "allocs",
        direction: Direction::Lower,
        min: None,
        max: Some(0.0),
        gate_on: GateOn::Worst,
    },
    // -- traceovh: flight-recorder off-path cost ----------------------------
    MetricSpec {
        harness: "traceovh",
        metric: "recorder_off_deficit_pct",
        unit: "pct",
        direction: Direction::Lower,
        min: None,
        max: Some(5.0),
        gate_on: GateOn::Best,
    },
];

/// Look up a spec.
pub fn spec(harness: &str, metric: &str) -> Option<&'static MetricSpec> {
    GATES
        .iter()
        .find(|s| s.harness == harness && s.metric == metric)
}

/// What a harness run is handed.
pub struct Ctx<'a> {
    /// Sweep scale of the paper-figure harnesses (`--full` = Table I
    /// parameters). Gate rows never depend on it: they are measured at
    /// the fixed suite sizing above.
    pub scale: Scale,
    /// Artifact directory (`--out`).
    pub out: &'a Path,
    /// Whether anyone reads the report. `figures bench` does not, so a
    /// harness skips work that feeds only the report (the `scaling` and
    /// `numa` core ladders, `profile`'s exports) — never a sample.
    pub report: bool,
}

/// One harness: a `figures` subcommand and, when it has rows in
/// [`GATES`], a block of the `figures bench` suite. Usage text, dispatch,
/// `figures all` and the suite loop all iterate [`HARNESSES`].
pub struct Harness {
    /// Subcommand name.
    pub name: &'static str,
    /// Help text; continuation lines are newline-separated.
    pub help: &'static str,
    /// Whether `figures all` includes it.
    pub in_all: bool,
    /// Run the harness once: push one sample per row it owns into the
    /// collector and return the human-readable report.
    pub measure: fn(&Ctx, &mut Collector) -> String,
}

impl Harness {
    /// This harness's rows of [`GATES`].
    pub fn rows(&self) -> impl Iterator<Item = &'static MetricSpec> + '_ {
        GATES.iter().filter(|s| s.harness == self.name)
    }

    /// Whether a run can fail: some row has an absolute bound.
    pub fn gated(&self) -> bool {
        self.rows().any(MetricSpec::bounded)
    }
}

/// Every harness, in usage / `figures all` / suite order.
pub const HARNESSES: &[Harness] = &[
    Harness {
        name: "table1",
        help: "benchmark versions/parameters (Table I)",
        in_all: true,
        measure: table1,
    },
    Harness {
        name: "fig3",
        help: "Selfish-Detour noise profile",
        in_all: true,
        measure: |ctx, _| render_fig3(&figures::fig3(ctx.scale)),
    },
    Harness {
        name: "fig4",
        help: "XEMEM attach delay vs region size",
        in_all: true,
        measure: |ctx, _| render_fig4(&figures::fig4(ctx.scale)),
    },
    Harness {
        name: "fig5a",
        help: "STREAM bandwidth",
        in_all: true,
        measure: |ctx, _| render_fig5a(&figures::fig5a(ctx.scale)),
    },
    Harness {
        name: "fig5b",
        help: "RandomAccess GUPS",
        in_all: true,
        measure: |ctx, _| render_fig5b(&figures::fig5b(ctx.scale)),
    },
    Harness {
        name: "fig6",
        help: "MiniFE scaling over core/NUMA layouts",
        in_all: true,
        measure: |ctx, _| {
            render_scaling(
                "Fig. 6 — MiniFE scaling",
                "MFLOP/s",
                &figures::fig6(ctx.scale),
            )
        },
    },
    Harness {
        name: "fig7",
        help: "HPCG scaling over core/NUMA layouts",
        in_all: true,
        measure: |ctx, _| {
            render_scaling(
                "Fig. 7 — HPCG scaling",
                "GFLOP/s",
                &figures::fig7(ctx.scale),
            )
        },
    },
    Harness {
        name: "fig8",
        help: "LAMMPS loop times (lj/chain/eam/chute)",
        in_all: true,
        measure: |ctx, _| render_fig8(&figures::fig8(ctx.scale)),
    },
    Harness {
        name: "shootdown",
        help: "per-reclaim shootdown demo with TLB flush stats",
        in_all: true,
        measure: shootdown,
    },
    Harness {
        name: "scaling",
        help: "data-plane per-core scaling (STREAM+GUPS, 1..8 cores; `numa`\n\
               prints the multi-zone ladder); the gate rows come from a 4-core\n\
               rung at suite sizing and, for the nested loads a warm TLB miss\n\
               pays, a 1-core RandomAccess over a 2-entry TLB",
        in_all: true,
        measure: scaling,
    },
    Harness {
        name: "numa",
        help: "the many-grants fragmentation rung: EPT-entry loads per TLB miss\n\
               over an enclave fragmented into small grants, plus the multi-zone\n\
               weak-scaling ladder (arrays pinned per zone)",
        in_all: false,
        measure: numa,
    },
    Harness {
        name: "exitless",
        help: "command-delivery comparison: NMI-only vs doorbell-first\n\
               round-trips, a concurrent barrier and a parked-core fallback;\n\
               the doorbell path must be exitless (no command-path VM exit,\n\
               no NMI escalation) with a lower post->complete p99, and the\n\
               parked run may escalate only after the configured bound",
        in_all: false,
        measure: exitless,
    },
    Harness {
        name: "audit",
        help: "protection audit: a clean lifecycle workload through the audit\n\
               engine (lifecycles, violations — expected: zero — and the\n\
               per-enclave report), then a contained fault the engine must\n\
               attribute to the faulting enclave, with its fault->teardown\n\
               latency",
        in_all: false,
        measure: audit,
    },
    Harness {
        name: "profile",
        help: "always-on cycle accounting: STREAM + reclaim churn with the\n\
               phase profiler on, per-enclave phase breakdown and a flamegraph\n\
               (covirt-profile.folded) under --out; accounted cycles\n\
               must match wall-clock TSC per core and the profiler-off STREAM\n\
               path must keep up with the enabled one (judged on the best of\n\
               --trials). Then a bystander\n\
               enclave runs beside a misbehaving one (reclaim churn, then a\n\
               contained fault): the ShootdownWait spike must land on the\n\
               culprit and the bystander stay clean",
        in_all: false,
        measure: profile,
    },
    Harness {
        name: "alloc",
        help: "allocation census: heap allocations per call of the co-kernel's\n\
               control poll, a guest doorbell harvest, the controller's grant\n\
               hook and reclaim hook with its round trip to eleven live cores,\n\
               a CPUID exit, the host's grant/reclaim calls, and one enclave\n\
               lifecycle under Covirt against native (needs the figures\n\
               binary's counting allocator)",
        in_all: false,
        measure: alloc,
    },
    Harness {
        name: "traceovh",
        help: "STREAM with the flight recorder disabled vs enabled: the\n\
               disabled path must keep up (judged on the best of --trials)",
        in_all: false,
        measure: traceovh,
    },
];

/// Look up a harness by subcommand name.
pub fn harness(name: &str) -> Option<&'static Harness> {
    HARNESSES.iter().find(|h| h.name == name)
}

fn table1(_: &Ctx, c: &mut Collector) -> String {
    c.push("rows", table1::TABLE1.len() as f64);
    format!(
        "TABLE I: Benchmark Versions and Parameters\n{}",
        table1::format_table1()
    )
}

fn shootdown(_: &Ctx, c: &mut Collector) -> String {
    let sd = shootdown::run(false);
    c.push("broadcast_shootdowns", sd.shootdowns as f64);
    let range_flushes: u64 = sd.cores.iter().map(|g| g.tlb_stats().range_flushes).sum();
    c.push("tlb_range_flushes", range_flushes as f64);
    render_shootdown(&sd)
}

fn scaling(ctx: &Ctx, c: &mut Collector) -> String {
    let p = SUITE_SCALING;
    let native = scaling::run_point(ExecMode::Native, SCALING_CORES, p);
    let covirt = scaling::run_point(ExecMode::Covirt(CovirtConfig::MEM), SCALING_CORES, p);
    c.push("native_stream_mbs_per_core", native.stream_mbs_per_core);
    c.push("covirt_stream_mbs_per_core", covirt.stream_mbs_per_core);
    c.push(
        "stream_overhead_pct",
        overhead_pct(native.stream_mbs_per_core, covirt.stream_mbs_per_core),
    );
    c.push("covirt_gups_per_core", covirt.gups_per_core);
    let warm = scaling::run_warm_miss_point(p.ra_updates);
    c.push("nested_loads_per_warm_miss", warm.walk_loads_per_miss());
    c.push("slow_entries_per_warm_miss", warm.slow_entries_per_miss());
    if !ctx.report {
        return String::new();
    }
    render_scaling_points(&scaling::run(ctx.scale))
}

fn numa(ctx: &Ctx, c: &mut Collector) -> String {
    let loads = scaling::frag_nested_loads_per_miss(FRAG_REGIONS, FRAG_ROUNDS);
    c.push("frag_nested_loads_per_miss", loads);
    let ladder = if ctx.report {
        render_numa_points(&scaling::run_numa(ctx.scale)) + "\n"
    } else {
        String::new()
    };
    format!(
        "{ladder}Many-grants fragmentation: {FRAG_REGIONS} grants, {loads:.2} EPT-entry loads per TLB miss\n"
    )
}

fn exitless(_: &Ctx, c: &mut Collector) -> String {
    let (nmi, doorbell) = exitless::steady_state(EXITLESS_ROUNDS);
    c.push("nmi_p99_ns", nmi.p99_ns as f64);
    c.push("doorbell_p99_ns", doorbell.p99_ns as f64);
    c.push(
        "p99_speedup",
        nmi.p99_ns as f64 / doorbell.p99_ns.max(1) as f64,
    );
    c.push("doorbell_cmd_exits", doorbell.cmd_exits as f64);
    c.push("doorbell_escalations", doorbell.escalations as f64);
    c.push(
        "doorbell_unharvested",
        (doorbell.commands - doorbell.harvested) as f64,
    );
    let conc = exitless::concurrent_barrier(BARRIER_ROUNDS);
    c.push("concurrent_cmd_exits", conc.cmd_exits as f64);
    c.push("concurrent_escalations", conc.escalations as f64);
    let parked = exitless::parked_fallback(PARKED_BOUND_NS);
    c.push("parked_escalations", parked.escalations as f64);
    c.push(
        "parked_escalated_after_bound",
        (parked.escalations > 0 && parked.time_to_escalation_ns >= parked.bound_ns) as u64 as f64,
    );
    c.push("parked_completed", parked.completed as u64 as f64);
    render_exitless(&nmi, &doorbell, &conc, &parked)
}

fn audit(_: &Ctx, c: &mut Collector) -> String {
    let clean = audit::audit_trace(&audit::clean_run().node);
    c.push("clean_violations", clean.violations.len() as f64);
    c.push("region_lifecycles", clean.regions.len() as f64);
    c.push("command_chains", clean.commands.len() as f64);
    let run = audit::fault_run();
    let fault = audit::audit_trace(&run.node);
    let attributed = fault
        .violations
        .iter()
        .filter(|v| v.enclave == Some(run.enclave))
        .count();
    c.push("fault_attributed_violations", attributed as f64);
    let fault_to_teardown = fault.enclaves[&run.enclave]
        .fault_to_teardown_ns
        .expect("the contained fault tears its enclave down");
    c.push("fault_to_teardown_ns", fault_to_teardown as f64);
    format!(
        "clean run\n{}\nfault run: {attributed} violation(s) attributed to enclave {}\n{}",
        clean.render(),
        run.enclave,
        fault.render()
    )
}

fn profile(ctx: &Ctx, c: &mut Collector) -> String {
    let clean = profile::clean_run();
    c.push(
        "conservation_error_pct",
        clean.max_conservation_error() * 100.0,
    );
    let arm = profile::profiler_overhead_arm();
    c.push("profiler_off_deficit_pct", arm.deficit_pct());
    let fr = profile::fault_run();
    let spike = |e| fr.enclave_phase_cycles(e, Phase::ShootdownWait);
    c.push("fault_culprit_spike_cycles", spike(fr.enclave) as f64);
    let bystander = fr.bystander.expect("fault run has a bystander");
    c.push("bystander_controller_cycles", spike(bystander) as f64);

    let mut out = format!("clean run\n{}", render_profile(&clean));
    if ctx.report {
        out.push_str(&export_profile(ctx.out, &clean));
    }
    out.push_str(&render_overhead_arm("profiler", &arm));
    out.push_str(&format!(
        "\nfault run: culprit enclave {}, bystander enclave {bystander}\n{}",
        fr.enclave,
        render_profile(&fr)
    ));
    out
}

/// Write the clean profile's flamegraph under `dir`; returns the
/// "wrote ..." line.
fn export_profile(dir: &Path, r: &profile::ProfileReport) -> String {
    std::fs::create_dir_all(dir).unwrap_or_else(|e| panic!("create {}: {e}", dir.display()));
    let path = dir.join("covirt-profile.folded");
    let folded = covirt_trace::export::to_folded(&r.snapshot);
    std::fs::write(&path, &folded).expect("write covirt-profile.folded");
    format!(
        "wrote {} ({} lines; flamegraph.pl / speedscope folded format)\n",
        path.display(),
        folded.lines().count()
    )
}

/// Allocations are counted per thread by the global allocator, so they
/// repeat on any host: every row is bounded at the value it takes.
fn alloc(_: &Ctx, c: &mut Collector) -> String {
    assert!(
        census::counting(),
        "the alloc harness needs workloads::census::CountingAlloc as the global allocator"
    );
    let n = census::take();
    let minus = n.lifecycle_covirt - n.lifecycle_native;
    let rows = [
        (
            "coker_poll",
            n.coker_poll,
            "co-kernel poll_ctrl, per message",
        ),
        ("guest_harvest", n.guest_harvest, "guest doorbell harvest"),
        (
            "grant_hook",
            n.grant_hook,
            "controller grant hook (EPT map)",
        ),
        (
            "reclaim_round_trip",
            n.reclaim_round_trip,
            "controller reclaim hook + round trip, 11 cores",
        ),
        ("cpuid_exit", n.cpuid_exit, "CPUID exit"),
        (
            "lifecycle_covirt_minus_native",
            minus,
            "one lifecycle, Covirt minus native",
        ),
        (
            "lifecycle_frames_left",
            n.lifecycle_frames_left,
            "pool frames the Covirt lifecycles left out",
        ),
        (
            "lifecycle_covirt",
            n.lifecycle_covirt,
            "one lifecycle, Covirt",
        ),
        (
            "lifecycle_native",
            n.lifecycle_native,
            "one lifecycle, native",
        ),
        (
            "add_memory",
            n.add_memory,
            "host add_memory (grant hook in)",
        ),
        (
            "request_remove",
            n.request_remove,
            "host request_remove_memory",
        ),
        (
            "process_acks",
            n.process_acks,
            "host process_acks, per grant-and-reclaim cycle",
        ),
    ];
    let mut out = String::from("Allocation census (heap allocations per call)\n");
    for (metric, v, what) in rows {
        c.push(metric, v);
        out.push_str(&format!("  {what:<48} {v:>7.2}\n"));
    }
    out
}

/// The disabled recorder costs one relaxed load + branch per emit point,
/// so disabled throughput must track (and normally beat) enabled
/// throughput; the bound leaves room for a shared single-CPU runner
/// stealing several percent from one arm of the comparison.
fn traceovh(_: &Ctx, c: &mut Collector) -> String {
    let arm = profile::recorder_overhead_arm();
    c.push("recorder_off_deficit_pct", arm.deficit_pct());
    render_overhead_arm("recorder", &arm)
}

/// The rows of [`GATES`] owned by `harnesses`, in table order.
fn rows_of<'a>(harnesses: &'a [&Harness]) -> impl Iterator<Item = &'static MetricSpec> + 'a {
    GATES
        .iter()
        .filter(|s| harnesses.iter().any(|h| h.name == s.harness))
}

/// One row's trials: the samples a run pushed and their median.
pub struct BenchRecord {
    /// The row of [`GATES`] measured.
    pub spec: &'static MetricSpec,
    /// Per-trial samples, in run order.
    pub samples: Vec<f64>,
    /// `median(samples)`.
    pub median: f64,
}

impl BenchRecord {
    /// A record of `spec` from its trial samples.
    pub fn new(spec: &'static MetricSpec, samples: Vec<f64>) -> BenchRecord {
        BenchRecord {
            spec,
            median: median(&samples),
            samples,
        }
    }

    /// `harness.metric`, the name reports give the row.
    pub fn key(&self) -> String {
        format!("{}.{}", self.spec.harness, self.spec.metric)
    }

    /// The sample farthest in the worse direction (max for
    /// lower-is-better, min for higher).
    pub fn worst_sample(&self) -> f64 {
        let fold = match self.spec.direction {
            Direction::Lower => f64::max,
            Direction::Higher => f64::min,
        };
        self.samples.iter().copied().fold(self.median, fold)
    }

    /// The sample farthest in the better direction.
    pub fn best_sample(&self) -> f64 {
        let fold = match self.spec.direction {
            Direction::Lower => f64::min,
            Direction::Higher => f64::max,
        };
        self.samples.iter().copied().fold(self.median, fold)
    }

    /// The statistic the row's bounds judge, named (`"worst"`/`"best"`).
    pub fn judged(&self) -> (&'static str, f64) {
        match self.spec.gate_on {
            GateOn::Worst => ("worst", self.worst_sample()),
            GateOn::Best => ("best", self.best_sample()),
        }
    }

    /// Each of the row's bounds (`">= 1"`, `"<= 8"`) and whether this
    /// run's judged statistic meets it; empty for an `info` row.
    pub fn checks(&self) -> Vec<(String, bool)> {
        let v = self.judged().1;
        let min = self.spec.min.map(|b| (format!(">= {b}"), v >= b));
        let max = self.spec.max.map(|b| (format!("<= {b}"), v <= b));
        min.into_iter().chain(max).collect()
    }
}

/// A finite number as JSON, anything else as `null`.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// `s` as a JSON string literal.
fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    escape(s, &mut out);
    out.push('"');
    out
}

/// The `BENCH_covirt.json` artifact of a run at `commit`: per row, its
/// samples and median and, for a bounded row, the statistic judged, the
/// bounds and the verdict, so a failed run is explained by the artifact
/// alone.
pub fn to_json(commit: &str, records: &[BenchRecord]) -> String {
    let rows: Vec<String> = records
        .iter()
        .map(|r| {
            let s = r.spec;
            let samples: Vec<String> = r.samples.iter().map(|&v| json_num(v)).collect();
            let mut row = format!(
                "    {{\"harness\": {}, \"metric\": {}, \"unit\": {}, \"direction\": {}, \
                 \"median\": {}, \"samples\": [{}]",
                json_str(s.harness),
                json_str(s.metric),
                json_str(s.unit),
                json_str(s.direction.name()),
                json_num(r.median),
                samples.join(", ")
            );
            if s.bounded() {
                let (which, v) = r.judged();
                let bound = |b: Option<f64>| b.map_or("null".to_string(), json_num);
                row.push_str(&format!(
                    ", \"gate_on\": {}, \"judged\": {}, \"min\": {}, \"max\": {}, \"pass\": {}",
                    json_str(which),
                    json_num(v),
                    bound(s.min),
                    bound(s.max),
                    r.checks().iter().all(|c| c.1)
                ));
            }
            row + "}"
        })
        .collect();
    format!(
        "{{\n  \"commit\": {},\n  \"records\": [\n{}\n  ]\n}}\n",
        json_str(commit),
        rows.join(",\n")
    )
}

/// Trial samples keyed by (harness, metric).
#[derive(Default)]
pub struct Collector {
    /// Name of the harness being measured; [`run_suite`] sets it, so a
    /// harness can only ever push its own rows.
    harness: &'static str,
    samples: BTreeMap<(&'static str, &'static str), Vec<f64>>,
}

impl Collector {
    /// Record one trial's sample of the running harness's `metric`; it
    /// must have a [`GATES`] row.
    pub fn push(&mut self, metric: &'static str, v: f64) {
        assert!(
            spec(self.harness, metric).is_some(),
            "metric {}.{metric} has no entry in suite::GATES",
            self.harness
        );
        self.samples
            .entry((self.harness, metric))
            .or_default()
            .push(v);
    }

    /// Reduce to records, in `GATES` order. Panics when the run and the
    /// table drifted apart (a row of `harnesses` never measured).
    fn into_records(mut self, harnesses: &[&Harness]) -> Vec<BenchRecord> {
        rows_of(harnesses)
            .map(|s| {
                let samples = self
                    .samples
                    .remove(&(s.harness, s.metric))
                    .unwrap_or_else(|| {
                        panic!(
                            "suite::GATES declares {}.{} but no trial measured it",
                            s.harness, s.metric
                        )
                    });
                BenchRecord::new(s, samples)
            })
            .collect()
    }
}

/// Run `harnesses` `trials` times each and reduce their samples to
/// records. Progress goes to stderr and, when `ctx.report` is set, each
/// report to stdout. `figures bench` passes every harness that has rows;
/// `figures <name>` passes one.
pub fn run_suite(harnesses: &[&Harness], trials: usize, ctx: &Ctx) -> Vec<BenchRecord> {
    let mut c = Collector::default();
    for t in 0..trials {
        for h in harnesses {
            eprintln!("[{}] trial {}/{trials}...", h.name, t + 1);
            c.harness = h.name;
            let report = (h.measure)(ctx, &mut c);
            if ctx.report {
                println!("{report}");
            }
        }
    }
    c.into_records(harnesses)
}

/// Apply the bounds of `harnesses`' rows to a finished run's records.
/// Each bound is judged against the spec's [`GateOn`] statistic — the
/// worst trial by default, so a single bad trial fails a deterministic
/// gate even when the median survives.
pub fn apply_gates(records: &[BenchRecord], harnesses: &[&Harness]) -> GateResult {
    let mut g = GateResult::new();
    for s in rows_of(harnesses).filter(|s| s.bounded()) {
        let key = format!("{}.{}", s.harness, s.metric);
        let Some(r) = records
            .iter()
            .find(|r| r.spec.harness == s.harness && r.spec.metric == s.metric)
        else {
            g.check(
                &key,
                false,
                "metric declared in suite::GATES but absent from the suite",
            );
            continue;
        };
        let (which, v) = r.judged();
        for (bound, holds) in r.checks() {
            g.check(
                &format!("{key} {bound}"),
                holds,
                format!("{which} trial {v} {}", s.unit),
            );
        }
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every check `figures bench` makes, in table order. A bound moves
    /// only by editing this list too.
    const CHECKS: &[&str] = &[
        "table1.rows >= 6",
        "shootdown.broadcast_shootdowns >= 2",
        "shootdown.broadcast_shootdowns <= 2",
        "shootdown.tlb_range_flushes >= 1",
        "shootdown.tlb_range_flushes <= 8",
        "scaling.nested_loads_per_warm_miss <= 0",
        "scaling.slow_entries_per_warm_miss <= 0",
        "numa.frag_nested_loads_per_miss <= 2.005859375",
        "exitless.p99_speedup >= 3",
        "exitless.doorbell_cmd_exits <= 0",
        "exitless.doorbell_escalations <= 0",
        "exitless.doorbell_unharvested <= 0",
        "exitless.concurrent_cmd_exits <= 0",
        "exitless.concurrent_escalations <= 0",
        "exitless.parked_escalations >= 1",
        "exitless.parked_escalated_after_bound >= 1",
        "exitless.parked_completed >= 1",
        "audit.clean_violations <= 0",
        "audit.region_lifecycles >= 1",
        "audit.command_chains >= 1",
        "audit.fault_attributed_violations >= 1",
        "profile.conservation_error_pct <= 0.5",
        "profile.profiler_off_deficit_pct <= 5",
        "profile.fault_culprit_spike_cycles >= 1",
        "profile.bystander_controller_cycles <= 0",
        "alloc.coker_poll <= 0",
        "alloc.guest_harvest <= 0",
        "alloc.grant_hook <= 0",
        "alloc.reclaim_round_trip <= 0",
        "alloc.cpuid_exit <= 0",
        "alloc.lifecycle_covirt_minus_native <= 7.125",
        "alloc.lifecycle_frames_left <= 0",
        "alloc.add_memory <= 0",
        "alloc.request_remove <= 0",
        "alloc.process_acks <= 0",
        "traceovh.recorder_off_deficit_pct <= 5",
    ];

    #[test]
    fn gate_table_is_consistent() {
        let mut keys: Vec<(&str, &str)> = GATES.iter().map(|s| (s.harness, s.metric)).collect();
        let n = keys.len();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), n, "duplicate (harness, metric) in GATES");
        for s in GATES {
            if let (Some(min), Some(max)) = (s.min, s.max) {
                assert!(min <= max, "{}.{} min > max", s.harness, s.metric);
            }
            assert!(!s.unit.is_empty() && !s.harness.is_empty() && !s.metric.is_empty());
            // Every row belongs to exactly one harness, which measures it.
            assert_eq!(
                HARNESSES.iter().filter(|h| h.name == s.harness).count(),
                1,
                "{}.{} names no harness",
                s.harness,
                s.metric
            );
        }
    }

    #[test]
    fn harness_table_is_consistent() {
        let mut names: Vec<&str> = HARNESSES.iter().map(|h| h.name).collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "duplicate harness names");
        for h in HARNESSES {
            assert_ne!(h.name, "all", "'all' is the dispatcher's keyword");
            assert!(!h.help.trim().is_empty(), "{} has no help text", h.name);
            // `figures all` must always succeed on a healthy tree, so it
            // holds no harness with a bound on a noisy quantity.
            if h.in_all {
                assert!(
                    h.rows()
                        .filter(|s| s.bounded())
                        .all(|s| s.gate_on == GateOn::Worst),
                    "{} is in `all` but has a noise-judged bound",
                    h.name
                );
            }
        }
        // The harnesses the suite's coverage floor counts on.
        for gated in [
            "shootdown",
            "scaling",
            "numa",
            "exitless",
            "profile",
            "audit",
            "alloc",
            "traceovh",
        ] {
            assert!(harness(gated).is_some_and(Harness::gated), "{gated}");
        }
        assert!(!harness("fig3").unwrap().gated());
    }

    fn ctx() -> Ctx<'static> {
        Ctx {
            scale: Scale::Quick,
            out: Path::new("target/figures"),
            report: false,
        }
    }

    fn keys(records: &[BenchRecord]) -> Vec<String> {
        records.iter().map(BenchRecord::key).collect()
    }

    #[test]
    fn a_harness_measures_the_same_rows_alone_and_inside_the_suite() {
        let cheap = [harness("table1").unwrap(), harness("shootdown").unwrap()];
        let together = run_suite(&cheap, 1, &ctx());
        assert_eq!(
            keys(&together),
            [
                "table1.rows",
                "shootdown.broadcast_shootdowns",
                "shootdown.tlb_range_flushes"
            ]
        );
        for h in cheap {
            let alone = run_suite(&[h], 2, &ctx());
            let expected: Vec<String> = keys(&together)
                .into_iter()
                .filter(|k| k.starts_with(h.name))
                .collect();
            assert_eq!(keys(&alone), expected);
            assert!(alone.iter().all(|r| r.samples.len() == 2));
            assert!(apply_gates(&alone, &[h]).ok());
        }
    }

    fn one(harness: &str, metric: &str, samples: &[f64]) -> BenchRecord {
        BenchRecord::new(spec(harness, metric).unwrap(), samples.to_vec())
    }

    #[test]
    fn gates_restricted_to_one_harness_judge_only_its_rows() {
        let all: Vec<&Harness> = HARNESSES.iter().collect();
        let mut judged = Vec::new();
        for h in HARNESSES {
            // Every row of `h` at its bound, `bad` one step past another.
            let run = |bad: Option<(&str, f64)>| {
                let records: Vec<BenchRecord> = h
                    .rows()
                    .map(|s| {
                        let v = match bad {
                            Some((metric, v)) if metric == s.metric => v,
                            _ => s.min.or(s.max).unwrap_or(0.0),
                        };
                        BenchRecord::new(s, vec![v; 3])
                    })
                    .collect();
                apply_gates(&records, &[h])
            };
            let g = run(None);
            assert!(g.ok(), "{}", g.render());
            judged.extend(g.checks.iter().map(|c| c.label.clone()));
            if h.gated() {
                // Judged as part of the whole table, the other harnesses'
                // rows are missing.
                let records: Vec<BenchRecord> = h
                    .rows()
                    .map(|s| BenchRecord::new(s, vec![s.min.or(s.max).unwrap_or(0.0)]))
                    .collect();
                assert!(!apply_gates(&records, &all).ok(), "{}", h.name);
            }
            for s in h.rows() {
                let key = format!("{}.{}", s.harness, s.metric);
                let below_min = s.min.map(|b| (b.next_down(), format!("{key} >= {b}")));
                let above_max = s.max.map(|b| (b.next_up(), format!("{key} <= {b}")));
                for (v, label) in below_min.into_iter().chain(above_max) {
                    let g = run(Some((s.metric, v)));
                    let failed: Vec<&str> = g.failures().iter().map(|c| c.label.as_str()).collect();
                    assert_eq!(failed, [label]);
                }
            }
        }
        assert_eq!(judged, CHECKS);
    }

    /// The census runs under the counting allocator this test binary
    /// installs, and every bounded row of it holds.
    #[test]
    fn the_alloc_harness_meets_its_bounds() {
        let alloc = [harness("alloc").unwrap()];
        let records = run_suite(&alloc, 1, &ctx());
        assert_eq!(records.len(), alloc[0].rows().count());
        let g = apply_gates(&records, &alloc);
        assert!(g.ok(), "{}", g.render());
    }

    #[test]
    fn a_record_judges_its_worst_or_best_trial_by_direction() {
        let r = one("exitless", "doorbell_cmd_exits", &[3.0, 1.0, 7.0]);
        assert_eq!(r.median, 3.0);
        assert_eq!(r.worst_sample(), 7.0, "lower-is-better: worst is max");
        assert_eq!(r.best_sample(), 1.0, "lower-is-better: best is min");
        assert_eq!(r.key(), "exitless.doorbell_cmd_exits");
        let r = one("exitless", "p99_speedup", &[3.0, 1.0, 7.0]);
        assert_eq!(r.worst_sample(), 1.0, "higher-is-better: worst is min");
        assert_eq!(r.best_sample(), 7.0, "higher-is-better: best is max");
        assert_eq!(r.judged(), ("best", 7.0));
    }

    #[test]
    fn absolute_gates_judge_the_worst_trial() {
        let exitless = [harness("exitless").unwrap()];
        // Median 0 but one bad trial: a max=0 bound must still fail.
        let bad = [one("exitless", "doorbell_cmd_exits", &[0.0, 0.0, 3.0])];
        assert!(apply_gates(&bad, &exitless)
            .failures()
            .iter()
            .any(|c| c.label.contains("doorbell_cmd_exits")));
        let good = [one("exitless", "doorbell_cmd_exits", &[0.0, 0.0, 0.0])];
        // The harness's other rows are absent here, so look only at the
        // present one.
        assert!(apply_gates(&good, &exitless)
            .failures()
            .iter()
            .all(|c| !c.label.contains("doorbell_cmd_exits")));
    }

    #[test]
    fn min_gates_use_the_lowest_trial_for_higher_is_better() {
        // parked_escalations gates on the worst (lowest) trial: one run
        // that never escalated fails even though the median is fine.
        let s = [one("exitless", "parked_escalations", &[2.0, 0.0, 3.0])];
        let g = apply_gates(&s, &[harness("exitless").unwrap()]);
        assert!(
            g.failures()
                .iter()
                .any(|c| c.label.contains("parked_escalations")),
            "worst trial 0 is below the 1.0 floor: {}",
            g.render()
        );
    }

    #[test]
    fn capability_gates_judge_the_best_trial() {
        let exitless = [harness("exitless").unwrap()];
        // p99_speedup is a Best-gated capability claim: one trial
        // reaching the floor passes even when the others are noisy.
        let s = [one("exitless", "p99_speedup", &[2.1, 1.9, 5.6])];
        assert!(apply_gates(&s, &exitless)
            .failures()
            .iter()
            .all(|c| !c.label.contains("p99_speedup")));
        let bad = [one("exitless", "p99_speedup", &[2.1, 1.9, 2.6])];
        assert!(apply_gates(&bad, &exitless)
            .failures()
            .iter()
            .any(|c| c.label.contains("p99_speedup")));
    }

    /// The artifact records, for a bounded row, the statistic judged, its
    /// bounds and the verdict; an `info` row carries its samples only.
    #[test]
    fn the_artifact_records_each_bounded_rows_verdict() {
        let records = [
            one("shootdown", "tlb_range_flushes", &[4.0, 9.0, 4.0]),
            one("scaling", "covirt_gups_per_core", &[0.5]),
        ];
        let json = to_json("abc", &records);
        assert!(json.starts_with("{\n  \"commit\": \"abc\",\n  \"records\": [\n"));
        assert!(json.contains(
            "\"metric\": \"tlb_range_flushes\", \"unit\": \"count\", \"direction\": \"lower\", \
             \"median\": 4, \"samples\": [4, 9, 4], \"gate_on\": \"worst\", \"judged\": 9, \
             \"min\": 1, \"max\": 8, \"pass\": false}"
        ));
        assert!(json.contains("\"median\": 0.5, \"samples\": [0.5]}\n  ]\n}\n"));
    }
}
