//! Unified metrics registry: per-lane sharded counters plus log-bucketed
//! latency histograms, behind typed enums so every producer and every
//! exporter agrees on names.
//!
//! The registry replaces the scattered copies Covirt grew organically —
//! `CoreCounters` in `exec`, `TlbStats` in `simhw::tlb`, exit tables in
//! `simhw::vmcs`, `snapshot_swaps` in `simhw::memory` — with one sink.
//! Producers either `add` deltas or `set` absolutes (cores that keep
//! their own cheap non-atomic counters publish wholesale), so hot paths
//! keep their current cost.

use std::sync::atomic::{AtomicU64, Ordering};

/// Every counter the registry tracks. Grouped by origin subsystem.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Counter {
    // GuestCore memory path.
    Reads,
    Writes,
    Walks,
    WalkLoads,
    WalkCacheHits,
    WalkCacheMisses,
    /// Walk-cache syncs that cleared every entry (EPT unmap log overrun,
    /// or a core's first sync).
    WalkCacheFullFlushes,
    ResolveHits,
    ResolveMisses,
    // Interrupts.
    IpisSent,
    TimerIrqs,
    IpiIrqs,
    PostedHarvested,
    Polls,
    // TLB.
    TlbHits,
    TlbMisses,
    TlbFullFlushes,
    TlbPageFlushes,
    TlbRangeFlushes,
    // Control plane.
    Exits,
    Commands,
    CmdPosts,
    Shootdowns,
    SnapshotPublishes,
    CtrlMsgs,
    /// Command doorbells posted into posted-interrupt descriptors.
    CmdDoorbells,
    /// Commands drained in guest mode via doorbell harvest (no VM exit).
    CmdHarvested,
    /// Doorbell deliveries that timed out and escalated to an NMI kick.
    NmiEscalations,
    /// Retired region snapshots freed after their epoch grace period.
    RetiredFreed,
}

impl Counter {
    /// Every counter, in display order.
    pub const ALL: [Counter; 29] = [
        Counter::Reads,
        Counter::Writes,
        Counter::Walks,
        Counter::WalkLoads,
        Counter::WalkCacheHits,
        Counter::WalkCacheMisses,
        Counter::WalkCacheFullFlushes,
        Counter::ResolveHits,
        Counter::ResolveMisses,
        Counter::IpisSent,
        Counter::TimerIrqs,
        Counter::IpiIrqs,
        Counter::PostedHarvested,
        Counter::Polls,
        Counter::TlbHits,
        Counter::TlbMisses,
        Counter::TlbFullFlushes,
        Counter::TlbPageFlushes,
        Counter::TlbRangeFlushes,
        Counter::Exits,
        Counter::Commands,
        Counter::CmdPosts,
        Counter::Shootdowns,
        Counter::SnapshotPublishes,
        Counter::CtrlMsgs,
        Counter::CmdDoorbells,
        Counter::CmdHarvested,
        Counter::NmiEscalations,
        Counter::RetiredFreed,
    ];

    /// Stable display name.
    pub fn name(&self) -> &'static str {
        match self {
            Counter::Reads => "reads",
            Counter::Writes => "writes",
            Counter::Walks => "walks",
            Counter::WalkLoads => "walk_loads",
            Counter::WalkCacheHits => "walk_cache_hits",
            Counter::WalkCacheMisses => "walk_cache_misses",
            Counter::WalkCacheFullFlushes => "walk_cache_full_flushes",
            Counter::ResolveHits => "resolve_hits",
            Counter::ResolveMisses => "resolve_misses",
            Counter::IpisSent => "ipis_sent",
            Counter::TimerIrqs => "timer_irqs",
            Counter::IpiIrqs => "ipi_irqs",
            Counter::PostedHarvested => "posted_harvested",
            Counter::Polls => "polls",
            Counter::TlbHits => "tlb_hits",
            Counter::TlbMisses => "tlb_misses",
            Counter::TlbFullFlushes => "tlb_full_flushes",
            Counter::TlbPageFlushes => "tlb_page_flushes",
            Counter::TlbRangeFlushes => "tlb_range_flushes",
            Counter::Exits => "exits",
            Counter::Commands => "commands",
            Counter::CmdPosts => "cmd_posts",
            Counter::Shootdowns => "shootdowns",
            Counter::SnapshotPublishes => "snapshot_publishes",
            Counter::CtrlMsgs => "ctrl_msgs",
            Counter::CmdDoorbells => "cmd_doorbells",
            Counter::CmdHarvested => "cmd_harvested",
            Counter::NmiEscalations => "nmi_escalations",
            Counter::RetiredFreed => "retired_freed",
        }
    }
}

/// Latency histograms (all in nanoseconds).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Hist {
    /// Command post → completion acknowledged (controller-observed).
    CmdLatencyNs,
    /// Controller wait() spin time per completion.
    CmdWaitNs,
    /// Broadcast shootdown two-phase round-trip.
    ShootdownRttNs,
    /// VM exit handle time (hypervisor dispatch).
    ExitHandleNs,
    /// Slow-path translate cost on a resolve miss.
    ResolveMissNs,
}

impl Hist {
    /// Every histogram, in display order.
    pub const ALL: [Hist; 5] = [
        Hist::CmdLatencyNs,
        Hist::CmdWaitNs,
        Hist::ShootdownRttNs,
        Hist::ExitHandleNs,
        Hist::ResolveMissNs,
    ];

    /// Stable display name.
    pub fn name(&self) -> &'static str {
        match self {
            Hist::CmdLatencyNs => "cmd_latency_ns",
            Hist::CmdWaitNs => "cmd_wait_ns",
            Hist::ShootdownRttNs => "shootdown_rtt_ns",
            Hist::ExitHandleNs => "exit_handle_ns",
            Hist::ResolveMissNs => "resolve_miss_ns",
        }
    }
}

const BUCKETS: usize = 64;

/// Log2-bucketed histogram: value `v` lands in bucket
/// `64 - v.leading_zeros()` (bucket 0 holds zeros), i.e. bucket `i`
/// covers `[2^(i-1), 2^i)`. Fixed memory, no allocation on observe.
pub struct LogHistogram {
    buckets: [AtomicU64; BUCKETS + 1],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl LogHistogram {
    fn new() -> LogHistogram {
        LogHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    #[inline]
    fn bucket_of(v: u64) -> usize {
        (64 - v.leading_zeros()) as usize
    }

    #[inline]
    fn observe(&self, v: u64) {
        self.buckets[Self::bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    fn merge_into(&self, snap: &mut HistSnapshot) {
        for (i, b) in self.buckets.iter().enumerate() {
            snap.buckets[i] += b.load(Ordering::Relaxed);
        }
        snap.count += self.count.load(Ordering::Relaxed);
        snap.sum += self.sum.load(Ordering::Relaxed);
        snap.max = snap.max.max(self.max.load(Ordering::Relaxed));
    }
}

/// Point-in-time merged view of one histogram across all lanes.
#[derive(Clone, Debug)]
pub struct HistSnapshot {
    /// Per-bucket sample counts; bucket `i` covers `[2^(i-1), 2^i)`.
    pub buckets: [u64; BUCKETS + 1],
    /// Total samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Largest sample.
    pub max: u64,
}

impl Default for HistSnapshot {
    fn default() -> HistSnapshot {
        HistSnapshot {
            buckets: [0; BUCKETS + 1],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl HistSnapshot {
    /// Record one sample into this snapshot — for offline consumers (the
    /// audit engine) that bucket values outside the atomic registry.
    pub fn record(&mut self, v: u64) {
        self.buckets[LogHistogram::bucket_of(v)] += 1;
        self.count += 1;
        self.sum += v;
        self.max = self.max.max(v);
    }

    /// Merge another snapshot (e.g. a per-lane shard) into this one.
    pub fn merge(&mut self, other: &HistSnapshot) {
        for (i, b) in other.buckets.iter().enumerate() {
            self.buckets[i] += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// Arithmetic mean, or 0 for an empty histogram.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper bound of the bucket holding the q-quantile sample
    /// (`q` in [0, 1]); 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= rank {
                return if i == 0 { 0 } else { 1u64 << i.min(63) };
            }
        }
        self.max
    }
}

/// One lane's slice of the registry.
struct Shard {
    counters: [AtomicU64; Counter::ALL.len()],
    hists: [LogHistogram; Hist::ALL.len()],
}

impl Shard {
    fn new() -> Shard {
        Shard {
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            hists: std::array::from_fn(|_| LogHistogram::new()),
        }
    }
}

/// Per-lane sharded counters + histograms. Lane layout matches the
/// recorder's: one shard per core plus a controller shard.
pub struct MetricsRegistry {
    shards: Vec<Shard>,
}

impl MetricsRegistry {
    pub(crate) fn new(lanes: usize) -> MetricsRegistry {
        MetricsRegistry {
            shards: (0..lanes.max(1)).map(|_| Shard::new()).collect(),
        }
    }

    #[inline]
    fn shard(&self, lane: usize) -> &Shard {
        &self.shards[lane.min(self.shards.len() - 1)]
    }

    /// Add `n` to a lane's counter.
    #[inline]
    pub fn add(&self, lane: usize, c: Counter, n: u64) {
        self.shard(lane).counters[c as usize].fetch_add(n, Ordering::Relaxed);
    }

    /// Store an absolute value into a lane's counter — for producers that
    /// keep private non-atomic counters and publish wholesale.
    #[inline]
    pub fn set(&self, lane: usize, c: Counter, v: u64) {
        self.shard(lane).counters[c as usize].store(v, Ordering::Relaxed);
    }

    /// Record one histogram sample on a lane.
    #[inline]
    pub fn observe(&self, lane: usize, h: Hist, v: u64) {
        self.shard(lane).hists[h as usize].observe(v);
    }

    /// One lane's counter value.
    pub fn counter(&self, lane: usize, c: Counter) -> u64 {
        self.shard(lane).counters[c as usize].load(Ordering::Relaxed)
    }

    /// A counter summed across all lanes.
    pub fn counter_total(&self, c: Counter) -> u64 {
        self.shards
            .iter()
            .map(|s| s.counters[c as usize].load(Ordering::Relaxed))
            .sum()
    }

    /// A histogram merged across all lanes.
    pub fn histogram(&self, h: Hist) -> HistSnapshot {
        let mut snap = HistSnapshot::default();
        for s in &self.shards {
            s.hists[h as usize].merge_into(&mut snap);
        }
        snap
    }

    /// Number of lanes.
    pub fn lanes(&self) -> usize {
        self.shards.len()
    }

    /// Render the registry as a text report: non-zero counters per lane
    /// and in total, then histogram summaries.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("== metrics registry ==\n");
        out.push_str(&format!("{:<24} {:>12}  per-lane\n", "counter", "total"));
        for c in Counter::ALL {
            let total = self.counter_total(c);
            if total == 0 {
                continue;
            }
            let lanes: Vec<String> = self
                .shards
                .iter()
                .map(|s| s.counters[c as usize].load(Ordering::Relaxed).to_string())
                .collect();
            out.push_str(&format!(
                "{:<24} {:>12}  [{}]\n",
                c.name(),
                total,
                lanes.join(", ")
            ));
        }
        out.push_str(&format!(
            "\n{:<18} {:>9} {:>12} {:>12} {:>12} {:>12}\n",
            "histogram (ns)", "count", "mean", "p50", "p99", "max"
        ));
        for h in Hist::ALL {
            let snap = self.histogram(h);
            if snap.count == 0 {
                continue;
            }
            out.push_str(&format!(
                "{:<18} {:>9} {:>12.0} {:>12} {:>12} {:>12}\n",
                h.name(),
                snap.count,
                snap.mean(),
                snap.quantile(0.5),
                snap.quantile(0.99),
                snap.max
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(LogHistogram::bucket_of(0), 0);
        assert_eq!(LogHistogram::bucket_of(1), 1);
        assert_eq!(LogHistogram::bucket_of(2), 2);
        assert_eq!(LogHistogram::bucket_of(3), 2);
        assert_eq!(LogHistogram::bucket_of(4), 3);
        assert_eq!(LogHistogram::bucket_of(1023), 10);
        assert_eq!(LogHistogram::bucket_of(1024), 11);
        assert_eq!(LogHistogram::bucket_of(u64::MAX), 64);
    }

    #[test]
    fn histogram_stats() {
        let reg = MetricsRegistry::new(2);
        for v in [100u64, 200, 300, 400, 10_000] {
            reg.observe(0, Hist::CmdLatencyNs, v);
        }
        reg.observe(1, Hist::CmdLatencyNs, 50);
        let snap = reg.histogram(Hist::CmdLatencyNs);
        assert_eq!(snap.count, 6);
        assert_eq!(snap.max, 10_000);
        assert!((snap.mean() - (11_050.0 / 6.0)).abs() < 1e-9);
        // p50 of {50,100,200,300,400,10000} sits in the 256-bucket.
        assert_eq!(snap.quantile(0.5), 256);
        assert!(snap.quantile(1.0) >= 8192);
        assert_eq!(HistSnapshot::default().quantile(0.5), 0);
    }

    #[test]
    fn quantile_extremes_on_empty_snapshot() {
        let snap = HistSnapshot::default();
        assert_eq!(snap.quantile(0.0), 0);
        assert_eq!(snap.quantile(0.5), 0);
        assert_eq!(snap.quantile(1.0), 0);
        assert_eq!(snap.mean(), 0.0);
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
        assert_eq!(snap.quantile(0.0), 8);
        assert_eq!(snap.quantile(1.0), 8);
    }

    #[test]
    fn quantile_q0_and_q1_hit_the_extreme_buckets() {
        let mut snap = HistSnapshot::default();
        snap.record(1); // bucket 1, upper bound 2
        snap.record(1024); // bucket 11, upper bound 2048
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

    #[test]
    fn counters_shard_and_merge() {
        let reg = MetricsRegistry::new(3);
        reg.add(0, Counter::Exits, 5);
        reg.add(1, Counter::Exits, 7);
        reg.set(2, Counter::Exits, 11);
        reg.set(2, Counter::Exits, 13); // absolute overwrite, not add
        assert_eq!(reg.counter(0, Counter::Exits), 5);
        assert_eq!(reg.counter_total(Counter::Exits), 25);
        // Out-of-range lane clamps to the last shard.
        reg.add(99, Counter::Shootdowns, 1);
        assert_eq!(reg.counter(2, Counter::Shootdowns), 1);
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

    #[test]
    fn merge_of_shards_matches_single_histogram() {
        // Record the same stream split across 4 shards vs all-in-one;
        // merged shards must be bit-identical to the single snapshot.
        let samples: Vec<u64> = (0..5_000).map(|i| (i * 7919) % 100_000).collect();
        let mut whole = HistSnapshot::default();
        let mut shards = vec![HistSnapshot::default(); 4];
        for (i, &v) in samples.iter().enumerate() {
            whole.record(v);
            shards[i % 4].record(v);
        }
        let mut merged = HistSnapshot::default();
        for s in &shards {
            merged.merge(s);
        }
        assert_eq!(merged.buckets, whole.buckets);
        assert_eq!(merged.count, whole.count);
        assert_eq!(merged.sum, whole.sum);
        assert_eq!(merged.max, whole.max);
        for q in [0.5, 0.9, 0.99, 1.0] {
            assert_eq!(merged.quantile(q), whole.quantile(q));
        }
        // And matches the atomic registry's cross-lane merge.
        let reg = MetricsRegistry::new(4);
        for (i, &v) in samples.iter().enumerate() {
            reg.observe(i % 4, Hist::CmdLatencyNs, v);
        }
        let reg_snap = reg.histogram(Hist::CmdLatencyNs);
        assert_eq!(reg_snap.buckets, whole.buckets);
        assert_eq!(reg_snap.count, whole.count);
    }

    #[test]
    fn render_skips_zero_rows() {
        let reg = MetricsRegistry::new(1);
        reg.add(0, Counter::Commands, 3);
        reg.observe(0, Hist::ExitHandleNs, 700);
        let text = reg.render();
        assert!(text.contains("commands"));
        assert!(text.contains("exit_handle_ns"));
        assert!(!text.contains("tlb_hits"));
        assert!(!text.contains("resolve_miss_ns"));
    }
}
