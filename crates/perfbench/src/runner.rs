//! One run of one workload: segments, the measured loop, and the metrics.
//!
//! A run is a sequence of **segments**. Each segment sets the workload up
//! afresh from the same seed — new worlds, new allocations, new page
//! placement — and measures its share of the rep pairs, native and Covirt
//! interleaved with the order flipping every pair. Every host-time metric
//! is estimated per segment and reported as the median over segments, so
//! neither a slow phase of the host nor one unlucky memory layout defines
//! the run; the spread of the segment estimates says how far to trust it.
//! All times are host time; the simulator's clock is derived from the
//! host's, so simulated time is host time.

use crate::costs::{Counts, SimCycles};
use crate::json::Value;
use crate::metrics::{self, Def, Scope};
use crate::probes;
use crate::spans::{self, Spans};
use crate::stats;
use crate::workloads::{digest, Arm, Latencies, Workload};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// How much work a run does.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// Requested measuring time; the rep count is derived from it.
    pub seconds: f64,
    /// Segments per run: fresh set-ups the reps are divided among.
    /// `setup_s` is the median of their set-up times.
    pub segments: usize,
    /// Batches per layer probe; a probe reports its fastest batch.
    pub probe_batches: usize,
    /// The measured loops stop after this long in total even if reps
    /// remain, so a slow host cannot make a run overstay.
    pub deadline_s: f64,
}

impl Scale {
    /// A full run measuring for `seconds`.
    pub fn full(seconds: f64) -> Scale {
        Scale {
            seconds,
            segments: 10,
            probe_batches: 20,
            deadline_s: 1.25 * seconds,
        }
    }

    /// The smallest run that still exercises every code path.
    pub fn smoke() -> Scale {
        Scale {
            seconds: 0.25,
            segments: 2,
            probe_batches: 2,
            deadline_s: 0.4,
        }
    }
}

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    pub def: &'static Def,
    pub value: f64,
    /// Interquartile distance of the per-segment estimates as a share of
    /// their median; end-to-end metrics only.
    pub spread: Option<f64>,
    /// Samples behind a timing, where that is not the rep count.
    pub samples: Option<usize>,
}

/// What one segment measured.
pub struct Segment {
    pub setup_s: f64,
    /// Per-rep host nanoseconds, `[native, covirt]`.
    pub ns: [Vec<f64>; 2],
    /// Whether each pair was traced.
    pub traced: Vec<bool>,
    /// Counter vectors of the measured reps, `[native, covirt]`.
    pub counts: [Counts; 2],
    /// Zone-0 bytes handed out and not returned during the reps.
    pub leaked: [u64; 2],
    pub latencies: Latencies,
}

/// Everything one run produced.
pub struct RunResult {
    pub workload: &'static str,
    pub seed: u64,
    pub traced: bool,
    pub seconds: f64,
    pub threads: usize,
    /// Native+Covirt rep pairs measured, over all segments.
    pub pairs: usize,
    pub ops_per_rep: u64,
    /// Whether the safety deadline cut the planned reps short.
    pub deadline_hit: bool,
    pub attempted: u64,
    pub failed: u64,
    pub checksum: u64,
    pub metrics: Vec<Metric>,
    /// Measured-phase counter vectors summed over segments,
    /// `[native, covirt]`.
    pub counts: [Counts; 2],
    /// The raw material of every host-time metric, kept so a surprising
    /// number can be explained from the result file.
    pub segments: Vec<Segment>,
    /// The traced run's spans (empty otherwise).
    pub spans: Vec<spans::Span>,
}

impl RunResult {
    /// A metric's value by name.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.def.name == name)
            .map(|m| m.value)
    }

    /// Failed ops as a share of attempted ops.
    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted as f64
    }
}

/// Measure up to `pairs` rep pairs of `w`, stopping at `deadline` (but never
/// before one pair, so every set-up is measured and checked). Returns the
/// segment and the ops that failed.
fn measure<W: Workload>(
    w: &mut W,
    setup_s: f64,
    pairs: usize,
    first_pair: usize,
    trace: bool,
    deadline: Instant,
    spans: &mut Spans,
) -> (Segment, u64) {
    let arms = [Arm::Native, Arm::Covirt];
    let start_counts = arms.map(|a| w.counts(a));
    let start_in_use = arms.map(|a| w.in_use_bytes(a));
    let mut seg = Segment {
        setup_s,
        ns: [Vec::with_capacity(pairs), Vec::with_capacity(pairs)],
        traced: Vec::with_capacity(pairs),
        counts: start_counts,
        leaked: [0; 2],
        latencies: Latencies::new(),
    };
    let mut failed = 0;
    for pair in first_pair..first_pair + pairs {
        // Order flips every pair; tracing flips every second pair, so each
        // order is measured both traced and untraced.
        let order = if pair % 2 == 0 {
            arms
        } else {
            [Arm::Covirt, Arm::Native]
        };
        let traced = trace && (pair / 2) % 2 == 0;
        spans.set_rep(pair as u32);
        for arm in order {
            // Spans describe the Covirt arm; mixing the native arm's calls
            // in under the same names would blur every median.
            spans.set_on(traced && arm == Arm::Covirt);
            let rep = spans.enter("rep");
            let t = Instant::now();
            failed += w.rep(arm, spans);
            seg.ns[arm as usize].push(t.elapsed().as_nanos() as f64);
            spans.exit(rep);
        }
        seg.traced.push(traced);
        w.housekeeping();
        if Instant::now() > deadline {
            break;
        }
    }
    spans.set_on(false);
    for arm in arms {
        let i = arm as usize;
        seg.counts[i] = w.counts(arm).since(&start_counts[i]);
        seg.leaked[i] = w.in_use_bytes(arm).saturating_sub(start_in_use[i]);
    }
    seg.latencies = w.take_latencies();
    (seg, failed)
}

/// Make glibc serve every simulated memory region from `mmap`.
///
/// The simulator's backings are `alloc_zeroed` blocks. Above glibc's mmap
/// threshold such a block is a fresh mapping of zero pages; below it, or
/// whenever the heap happens to hold a free chunk that large, it is heap
/// memory cleared with `memset`. Left alone the threshold starts at
/// 128 KiB and *rises* (to as much as 32 MiB) the first time a large block
/// is freed, and freed sub-threshold backings (`frag`'s 64 KiB grants)
/// coalesce into heap chunks that later swallow 2 MiB requests. Which
/// regime an allocation lands in then depends on the process's history,
/// and the difference is not small: a `faultcycle` cycle measured 64 µs in
/// one and 2.7 ms in the other, a `memchurn` grant 8 µs and 98 µs.
/// Pinning the threshold at 32 KiB — below every multi-page region the
/// program allocates — makes the benchmark measure the program, not the
/// allocator's mood.
fn pin_mmap_threshold() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        const M_MMAP_THRESHOLD: i32 = -3;
        // SAFETY: `mallopt` only stores a tunable inside the allocator,
        // under the allocator's own lock; it touches no Rust-visible
        // memory and may be called at any time.
        unsafe {
            mallopt(M_MMAP_THRESHOLD, 32 * 1024);
        }
    }
}

/// Run `W` once.
pub fn run<W: Workload>(seed: u64, trace: bool, scale: Scale) -> RunResult {
    pin_mmap_threshold();
    // A traced run repeats the workload at ¼ length with spans on, and as
    // many reps again with spans off to price the tracing itself.
    let planned = W::PAIRS_PER_SECOND * scale.seconds * if trace { 0.5 } else { 1.0 };
    let segments = scale.segments.max(1);
    let per_segment = ((planned / segments as f64).round() as usize).max(2);
    let mut budget = Duration::from_secs_f64(scale.deadline_s);

    let mut spans = Spans::new(Instant::now());
    let mut done: Vec<Segment> = Vec::with_capacity(segments);
    let mut values = LayerValues::new();
    let (mut failed, mut checksum, mut pairs) = (0u64, 0u64, 0usize);
    for s in 0..segments {
        let t = Instant::now();
        let mut w = W::setup(seed);
        let setup_s = t.elapsed().as_secs_f64();
        let started = Instant::now();
        let (seg, seg_failed) = measure(
            &mut w,
            setup_s,
            per_segment,
            pairs,
            trace,
            started + budget,
            &mut spans,
        );
        budget = budget.saturating_sub(started.elapsed());
        pairs += seg.traced.len();
        failed += seg_failed;
        if trace && s + 1 == segments {
            // The probes and the traced extras run against the last
            // segment's worlds.
            w.trace_extras(spans_on(&mut spans), scale.probe_batches);
            probes::data_plane(w.probe_target(), scale.probe_batches, &mut values);
        }
        let finish = w.finish();
        failed += finish.failed;
        checksum = digest(checksum, finish.checksum);
        done.push(seg);
    }
    let deadline_hit = pairs < segments * per_segment;

    let ops = W::OPS_PER_REP as f64;
    let mut out: Vec<Metric> = Vec::new();
    let mut push = |name: &str, value: f64, spread: Option<f64>, samples: Option<usize>| {
        let def = metrics::def(name).unwrap_or_else(|| panic!("metric {name} is not registered"));
        out.push(Metric {
            def,
            value,
            spread,
            samples,
        });
    };
    // An end-to-end estimate: the median of the per-segment estimates, and
    // how far those spread.
    let mut across = |name: &str, per_segment: Vec<f64>, samples: Option<usize>| {
        push(
            name,
            stats::median(&per_segment),
            Some(stats::iqr_share(&per_segment)),
            samples,
        );
    };

    let counts = [Arm::Native, Arm::Covirt].map(|arm| {
        done.iter().fold(Counts::default(), |acc, s| {
            acc.plus(&s.counts[arm as usize])
        })
    });
    let mut latencies = Latencies::new();
    for seg in &done {
        for (name, xs) in &seg.latencies {
            latencies.entry(name).or_default().extend(xs);
        }
    }

    if !trace {
        across(
            "setup_s",
            done.iter().map(|s| s.setup_s).collect(),
            Some(done.len()),
        );
        across(
            "native_ratio",
            done.iter()
                .map(|s| {
                    let [native, covirt] = &s.ns;
                    let ratios: Vec<f64> = native.iter().zip(covirt).map(|(n, c)| n / c).collect();
                    stats::median(&ratios)
                })
                .collect(),
            None,
        );
        across(
            "sim_cycles_per_op",
            done.iter()
                .map(|s| {
                    let cycles = SimCycles::of(&s.counts[Arm::Covirt as usize]).total();
                    cycles as f64 / (s.traced.len() as f64 * ops)
                })
                .collect(),
            None,
        );
        across(
            "host_ns_per_op",
            done.iter()
                .map(|s| stats::fast_decile(&s.ns[Arm::Covirt as usize]) / ops)
                .collect(),
            None,
        );
        for (short, name) in LATENCY_P50 {
            if let Some(all) = latencies.get(short) {
                let per_segment = done
                    .iter()
                    .filter_map(|s| s.latencies.get(short))
                    .map(|xs| stats::median(xs));
                across(name, per_segment.collect(), Some(all.len()));
            }
        }
    } else {
        layer_values::<W>(&done, &counts, &mut values);
        failed += probes::control_plane::<W>(
            seed,
            scale.probe_batches,
            spans_on(&mut spans),
            &mut latencies,
        );
        span_values(spans.spans(), &mut values);
        latency_values(&latencies, &mut values);
        for def in metrics::per_layer() {
            let (value, samples) = *values
                .get(def.name)
                .unwrap_or_else(|| panic!("traced run of {} produced no {}", W::NAME, def.name));
            push(def.name, value, None, samples);
        }
    }

    RunResult {
        workload: W::NAME,
        seed,
        traced: trace,
        seconds: scale.seconds,
        threads: W::THREADS,
        pairs,
        ops_per_rep: W::OPS_PER_REP,
        deadline_hit,
        attempted: 2 * pairs as u64 * W::OPS_PER_REP,
        failed,
        checksum,
        metrics: out,
        counts,
        segments: done,
        spans: spans.into_spans(),
    }
}

/// The recorder, switched on for the part of a traced run outside the
/// measured loop.
fn spans_on(spans: &mut Spans) -> &mut Spans {
    spans.set_on(true);
    spans.set_rep(u32::MAX);
    spans
}

/// Latency sample name → its median metric.
const LATENCY_P50: [(&str, &str); 4] = [
    ("grant", "grant_p50_us"),
    ("reclaim", "reclaim_p50_us"),
    ("bringup", "bringup_p50_us"),
    ("contain", "contain_p50_us"),
];

/// Latency sample name → its tail metric.
const LATENCY_TAILS: [(&str, &str); 3] = [
    ("grant", "pisces.grant_p99_us"),
    ("reclaim", "pisces.reclaim_p99_us"),
    ("contain", "hobbes.contain_p99_us"),
];

/// A layer metric's value and, for timings, the samples behind it.
pub type LayerValues = BTreeMap<&'static str, (f64, Option<usize>)>;

fn ratio(n: u64, d: u64) -> f64 {
    if d == 0 {
        0.0
    } else {
        n as f64 / d as f64
    }
}

/// Layer metrics derived from the measured loops' counters and rep times,
/// pooled over segments.
fn layer_values<W: Workload>(segments: &[Segment], counts: &[Counts; 2], v: &mut LayerValues) {
    let pairs: usize = segments.iter().map(|s| s.traced.len()).sum();
    let ops = pairs as u64 * W::OPS_PER_REP;
    let [native, c] = counts;
    let mut count = |name, value| {
        v.insert(name, (value, None));
    };
    count(
        "simhw.tlb.hit_rate",
        ratio(c.tlb_hits, c.tlb_hits + c.tlb_misses),
    );
    count(
        "simhw.tlb.flushes_per_op",
        ratio(
            c.tlb_page_flushes + c.tlb_range_flushes + c.tlb_full_flushes,
            ops,
        ),
    );
    count(
        "simhw.ept.walk_cache_hit_rate",
        ratio(c.walk_cache_hits, c.walk_cache_hits + c.walk_cache_misses),
    );
    count(
        "simhw.memory.region_cache_hit_rate",
        ratio(c.resolve_hits, c.resolve_hits + c.resolve_misses),
    );
    count(
        "simhw.memory.search_depth",
        ratio(c.search_depth, c.searches),
    );
    count(
        "simhw.memory.snapshot_swaps_per_op",
        ratio(c.snapshot_swaps, ops),
    );
    count(
        "simhw.memory.leaked_bytes_per_op",
        ratio(
            segments
                .iter()
                .map(|s| s.leaked[Arm::Covirt as usize])
                .sum(),
            ops,
        ),
    );
    count("core.exec.walks_per_op", ratio(c.walks, ops));
    count(
        "core.exec.walk_loads_per_miss",
        ratio(c.walk_loads, c.walks),
    );
    count("core.exec.exits_per_op", ratio(c.exits, ops));
    count("core.exec.timer_exits", c.timer_irqs as f64);
    count(
        "core.controller.shootdowns_per_op",
        ratio(c.shootdowns, ops),
    );
    count("core.controller.doorbells_per_op", ratio(c.doorbells, ops));
    count("core.controller.harvested_per_op", ratio(c.harvested, ops));
    count("core.controller.nmi_escalations", c.nmi_escalations as f64);

    count(
        "sim.native_cycles_per_op",
        ratio(SimCycles::of(native).total(), ops),
    );
    for (name, share) in [
        "sim.share.tlb",
        "sim.share.walk",
        "sim.share.resolve",
        "sim.share.exit",
        "sim.share.control",
    ]
    .into_iter()
    .zip(SimCycles::of(c).shares())
    {
        count(name, share);
    }

    // Host-time context from the untraced reps; the traced ones price the
    // tracing.
    let pick = |arm: Arm, traced: bool| -> Vec<f64> {
        let reps = || {
            segments
                .iter()
                .flat_map(|s| s.ns[arm as usize].iter().zip(&s.traced))
        };
        let picked: Vec<f64> = reps()
            .filter(|(_, &t)| t == traced)
            .map(|(&ns, _)| ns)
            .collect();
        // A run the deadline cut to a pair or two may have no rep of one
        // kind; every rep then stands in.
        if picked.is_empty() {
            reps().map(|(&ns, _)| ns).collect()
        } else {
            picked
        }
    };
    let per_op = W::OPS_PER_REP as f64;
    let plain = pick(Arm::Covirt, false);
    let floor = stats::fast_decile(&plain);
    count("host_ns_per_op", floor / per_op);
    count(
        "host.native_ns_per_op",
        stats::fast_decile(&pick(Arm::Native, false)) / per_op,
    );
    count("host.ops_per_s", per_op / floor * 1e9);
    count("host.rep_spread", stats::quantile(&plain, 0.9) / floor);
    count(
        "trace.overhead_pct",
        (stats::fast_decile(&pick(Arm::Covirt, true)) / floor - 1.0) * 100.0,
    );
}

/// Span metrics: the median self time of every span named like the metric
/// without its `_us`.
fn span_values(spans: &[spans::Span], values: &mut LayerValues) {
    let by_name = spans::self_us_by_name(spans);
    for def in metrics::METRICS.iter().filter(|d| d.scope == Scope::Layer) {
        let Some(span_name) = def.name.strip_suffix("_us") else {
            continue;
        };
        if let Some(own) = by_name.get(span_name) {
            values.insert(def.name, (stats::median(own), Some(own.len())));
        }
    }
}

/// Latency metrics: medians and the highest tail the samples support.
fn latency_values(latencies: &Latencies, values: &mut LayerValues) {
    for (short, name) in LATENCY_P50 {
        if let Some(xs) = latencies.get(short) {
            values.insert(name, (stats::median(xs), Some(xs.len())));
        }
    }
    for (short, name) in LATENCY_TAILS {
        if let Some(xs) = latencies.get(short) {
            values.insert(name, (stats::tail(xs, 0.99).value, Some(xs.len())));
        }
    }
}

/// The run as the JSON written to `<workload>.json` / `.trace.json`.
pub fn to_json(r: &RunResult) -> Value {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let metrics = r.metrics.iter().map(|m| {
        let mut fields = vec![
            ("value", Value::Number(m.value)),
            ("unit", Value::String(m.def.unit.into())),
            ("better", Value::String(m.def.better.as_str().into())),
        ];
        if let Some(b) = m.def.bound {
            fields.push(("bound", Value::Number(b)));
        }
        if let Some(s) = m.spread {
            fields.push(("spread", Value::Number(s)));
        }
        if let Some(n) = m.samples {
            fields.push(("samples", Value::Number(n as f64)));
        }
        (m.def.name, Value::object(fields))
    });
    let numbers = |xs: &[f64]| Value::Array(xs.iter().map(|&x| Value::Number(x)).collect());
    let segments = r.segments.iter().map(|s| {
        Value::object([
            ("setup_s", Value::Number(s.setup_s)),
            ("native_ns", numbers(&s.ns[Arm::Native as usize])),
            ("covirt_ns", numbers(&s.ns[Arm::Covirt as usize])),
        ])
    });
    let mut fields = vec![
        ("schema", Value::Number(1.0)),
        ("workload", Value::String(r.workload.into())),
        ("seed", Value::Number(r.seed as f64)),
        ("seconds", Value::Number(r.seconds)),
        ("traced", Value::Bool(r.traced)),
        ("threads", Value::Number(r.threads as f64)),
        ("nproc", Value::Number(nproc as f64)),
        ("pairs", Value::Number(r.pairs as f64)),
        ("ops_per_rep", Value::Number(r.ops_per_rep as f64)),
        ("deadline_hit", Value::Bool(r.deadline_hit)),
        ("attempted", Value::Number(r.attempted as f64)),
        ("failed", Value::Number(r.failed as f64)),
        ("failed_share", Value::Number(r.failed_share())),
        ("checksum", Value::String(format!("{:016x}", r.checksum))),
        ("metrics", Value::object(metrics)),
        (
            "counts",
            Value::object([
                ("native", r.counts[Arm::Native as usize].to_json()),
                ("covirt", r.counts[Arm::Covirt as usize].to_json()),
            ]),
        ),
        ("segments", Value::Array(segments.collect())),
    ];
    if r.traced {
        fields.push(("spans", spans::to_json(&r.spans, 4096)));
    }
    Value::object(fields)
}

/// The line the driver reads: exactly `correct`, `attempted`, `failed` and
/// `metrics` (end-to-end metrics untraced, layer metrics traced).
pub fn driver_line(r: &RunResult) -> String {
    let metrics = r
        .metrics
        .iter()
        .filter(|m| r.traced || m.def.scope == Scope::EndToEnd)
        .map(|m| {
            (
                m.def.name,
                Value::object([
                    ("value", Value::Number(m.value)),
                    ("unit", Value::String(m.def.unit.into())),
                ]),
            )
        });
    Value::object([
        ("correct", Value::Bool(r.failed == 0)),
        ("attempted", Value::Number(r.attempted as f64)),
        ("failed", Value::Number(r.failed as f64)),
        ("metrics", Value::object(metrics)),
    ])
    .to_json()
}
