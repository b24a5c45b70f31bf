//! covirt-prof: always-on cycle accounting with per-enclave phase
//! attribution.
//!
//! The flight recorder answers *what happened*; this module answers
//! **where every cycle went**. Each core runs a phase state machine
//! ([`Phase`]) whose transitions are TSC-delimited at the existing
//! hot-path boundaries (guest execution, exit dispatch, command harvest,
//! region-resolve misses, safe-point servicing). Because the simulated
//! TSC is exact, accounting is exact too: the per-core phase totals
//! telescope, so
//!
//! ```text
//!   sum over phases(cycles) == finish_tsc - begin_tsc      (conservation)
//! ```
//!
//! holds by construction on every core, and the `figures profile` CI gate
//! verifies it to 1% so a future missed boundary or double attribution is
//! caught, not silently absorbed.
//!
//! Layout mirrors the recorder: one shard per lane (core lanes plus the
//! controller lane), each shard a small enclave-slot table of per-phase
//! atomic cycle counters. The hot paths pay **one plain-bool branch when
//! the profiler is off** — the [`PhaseTracker`] caches enabled-ness at
//! `begin`, so a disabled transition is a single predictable-untaken
//! branch, no atomic load, no RDTSC.
//!
//! Controller-side costs that execute on arbitrary threads (shootdown
//! completion waits, remediation throttle intervals) cannot join a
//! per-core timeline without breaking conservation; they are attributed
//! per enclave through the **overlay** ([`PhaseProfiler::attribute`]),
//! reported alongside the per-core totals but excluded from the
//! conservation check.
//!
//! A per-lane sliding-window ring ([`PhaseProfiler::tail_windows`])
//! exposes the time series live — fixed windows of per-phase cycle
//! shares — in the same seqlock ring the recorder's event lanes use
//! (`seqring.rs`), so the remediation pump consumes it with the cursor
//! discipline it already has.

use crate::seqring::SeqRing;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Execution phases a core (or the control plane, via the overlay) can
/// spend cycles in.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Phase {
    /// Guest software executing (reads, writes, compute).
    GuestExec = 0,
    /// Hypervisor root mode: VM-exit dispatch and handling.
    RootExit = 1,
    /// Draining + executing the command queue (doorbell harvest or the
    /// command portion of an NMI exit).
    CmdHarvest = 2,
    /// Slow-path translation: walks and region-resolve misses.
    RegionResolve = 3,
    /// Waiting on broadcast shootdown completions (overlay: attributed
    /// to the enclave whose reclaim forced the wait).
    ShootdownWait = 4,
    /// Enclave throttled by the remediation policy (overlay: wall time
    /// between throttle and unthrottle/quarantine).
    Throttled = 5,
    /// Safe-point servicing not otherwise attributed (timer poll, IRR
    /// scan, doorbell check on the no-work path).
    SafePoint = 6,
    /// Core parked (terminated enclave) or trailing time at finish.
    Idle = 7,
}

/// Number of phases (array dimension for per-slot counters).
pub const NUM_PHASES: usize = 8;

impl Phase {
    /// Every phase, in display order.
    pub const ALL: [Phase; NUM_PHASES] = [
        Phase::GuestExec,
        Phase::RootExit,
        Phase::CmdHarvest,
        Phase::RegionResolve,
        Phase::ShootdownWait,
        Phase::Throttled,
        Phase::SafePoint,
        Phase::Idle,
    ];

    /// Stable wire/display name (folded stacks, counter tracks, tables).
    pub fn name(&self) -> &'static str {
        match self {
            Phase::GuestExec => "guest_exec",
            Phase::RootExit => "root_exit",
            Phase::CmdHarvest => "cmd_harvest",
            Phase::RegionResolve => "region_resolve",
            Phase::ShootdownWait => "shootdown_wait",
            Phase::Throttled => "throttled",
            Phase::SafePoint => "safe_point",
            Phase::Idle => "idle",
        }
    }
}

/// Enclave slots per lane shard. A core serves one enclave (plus
/// untagged work), the overlay serves every enclave on the node; the
/// last slot aggregates overflow so attribution never fails.
const SLOTS: usize = 8;

/// Sealed windows retained per lane ring (power of two).
const WINDOW_SLOTS: usize = 64;

/// Default window length in cycles (~0.4 ms at the default 2.4 GHz
/// simulated clock) — long enough to hold many phase changes, short
/// enough that a remediation pump sees phase-mix changes quickly.
pub const DEFAULT_WINDOW_CYCLES: u64 = 1 << 20;

/// One sealed window of a lane's time series.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WindowSnapshot {
    /// Window index: `tsc / window_cycles` of the cycles it covers.
    pub index: u64,
    /// Cycles accumulated per phase within the window.
    pub phase_cycles: [u64; NUM_PHASES],
}

impl WindowSnapshot {
    /// Total cycles accounted in this window.
    pub fn total(&self) -> u64 {
        self.phase_cycles.iter().sum()
    }

    /// Fraction of the window's accounted cycles spent in `phase`.
    pub fn share(&self, phase: Phase) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            self.phase_cycles[phase as usize] as f64 / total as f64
        }
    }
}

/// Payload words of one sealed window in the lane's [`SeqRing`]: the
/// window index, then per-phase cycles.
const WINDOW_WORDS: usize = 1 + NUM_PHASES;

/// Decode a sealed window from its ring payload.
fn decode_window(words: [u64; WINDOW_WORDS]) -> WindowSnapshot {
    WindowSnapshot {
        index: words[0],
        phase_cycles: std::array::from_fn(|p| words[1 + p]),
    }
}

/// Writer-private accumulator for the window currently being filled.
/// Lives in the [`PhaseTracker`] so the hot path touches no atomics
/// beyond the per-phase totals.
struct WindowAcc {
    index: u64,
    phase_cycles: [u64; NUM_PHASES],
    dirty: bool,
}

impl WindowAcc {
    fn new() -> WindowAcc {
        WindowAcc {
            index: 0,
            phase_cycles: [0; NUM_PHASES],
            dirty: false,
        }
    }

    fn reset(&mut self, index: u64) {
        self.index = index;
        self.phase_cycles = [0; NUM_PHASES];
        self.dirty = false;
    }
}

/// One lane's shard: enclave-slot table of per-phase cycle totals, the
/// conservation pair (wall vs accounted) and the sealed-window ring.
struct LaneShard {
    /// Slot tags: enclave id + 1; 0 = free; the last slot aggregates
    /// overflow under its first claimant's tag.
    tags: [AtomicU64; SLOTS],
    cycles: [[AtomicU64; NUM_PHASES]; SLOTS],
    /// Sum of `finish_tsc - begin_tsc` over tracker sessions.
    wall: AtomicU64,
    /// Sum of all phase deltas recorded by the tracker (conservation
    /// counterpart of `wall`; overlay attribution bypasses this).
    accounted: AtomicU64,
    /// Sealed windows, in seal order.
    windows: SeqRing<WINDOW_WORDS>,
}

impl LaneShard {
    fn new() -> LaneShard {
        LaneShard {
            tags: std::array::from_fn(|_| AtomicU64::new(0)),
            cycles: std::array::from_fn(|_| std::array::from_fn(|_| AtomicU64::new(0))),
            wall: AtomicU64::new(0),
            accounted: AtomicU64::new(0),
            windows: SeqRing::new(WINDOW_SLOTS),
        }
    }

    /// The slot for `tag` (enclave id + 1; 0 = untagged), claiming a
    /// free one on first use. When the table is full everything else
    /// aggregates into the last slot.
    fn slot_for(&self, tag: u64) -> usize {
        for (i, t) in self.tags.iter().enumerate() {
            let cur = t.load(Ordering::Relaxed);
            if cur == tag {
                return i;
            }
            if cur == 0
                && t.compare_exchange(0, tag, Ordering::Relaxed, Ordering::Relaxed)
                    .is_ok()
            {
                return i;
            }
        }
        SLOTS - 1
    }

    /// Seal a writer-private window accumulator into the ring.
    fn seal(&self, acc: &WindowAcc) {
        let mut words = [0; WINDOW_WORDS];
        words[0] = acc.index;
        words[1..].copy_from_slice(&acc.phase_cycles);
        self.windows.write(words);
    }

    /// Tail sealed windows from `cursor` (seal-order stream index):
    /// `(windows, next_cursor, dropped_since)` — same strict-prefix
    /// cursor protocol as the recorder's event tailing.
    fn tail_windows(&self, cursor: u64) -> (Vec<WindowSnapshot>, u64, u64) {
        let (records, next, dropped) = self.windows.tail_from(cursor);
        let windows = records
            .into_iter()
            .map(|(_, words)| decode_window(words))
            .collect();
        (windows, next, dropped)
    }
}

/// Per-enclave phase cycle totals (one row of the breakdown table).
#[derive(Clone, Debug)]
pub struct EnclavePhases {
    /// The enclave (None = untagged / native work).
    pub enclave: Option<u64>,
    /// Cycles per phase.
    pub cycles: [u64; NUM_PHASES],
}

impl EnclavePhases {
    /// Total cycles across phases.
    pub fn total(&self) -> u64 {
        self.cycles.iter().sum()
    }
}

/// One lane's profile: conservation pair plus per-enclave breakdown.
#[derive(Clone, Debug)]
pub struct LaneProfile {
    /// Lane (core index; the last lane is the controller's by the
    /// recorder's convention).
    pub lane: usize,
    /// Wall cycles between `begin` and `finish` (summed over sessions).
    pub wall: u64,
    /// Cycles the phase state machine attributed.
    pub accounted: u64,
    /// Per-enclave phase totals on this lane.
    pub enclaves: Vec<EnclavePhases>,
}

impl LaneProfile {
    /// Relative conservation error `|wall - accounted| / wall`
    /// (0 for an idle lane that never began).
    pub fn conservation_error(&self) -> f64 {
        if self.wall == 0 {
            return 0.0;
        }
        (self.wall as f64 - self.accounted as f64).abs() / self.wall as f64
    }
}

/// Point-in-time profile across all lanes plus the overlay.
#[derive(Clone, Debug)]
pub struct ProfileSnapshot {
    /// Per-lane (per-core) profiles, lane order.
    pub lanes: Vec<LaneProfile>,
    /// Controller-side per-enclave attribution (shootdown waits,
    /// throttle intervals) — outside the per-core conservation sums.
    pub overlay: Vec<EnclavePhases>,
}

impl ProfileSnapshot {
    /// Per-enclave totals merged across lanes *and* the overlay —
    /// the rows of the `figures profile` breakdown table.
    pub fn by_enclave(&self) -> Vec<EnclavePhases> {
        let mut merged: Vec<EnclavePhases> = Vec::new();
        let mut add = |e: &EnclavePhases| {
            if e.total() == 0 {
                return;
            }
            match merged.iter_mut().find(|m| m.enclave == e.enclave) {
                Some(m) => {
                    for p in 0..NUM_PHASES {
                        m.cycles[p] += e.cycles[p];
                    }
                }
                None => merged.push(e.clone()),
            }
        };
        for lane in &self.lanes {
            for e in &lane.enclaves {
                add(e);
            }
        }
        for e in &self.overlay {
            add(e);
        }
        merged.sort_by_key(|e| e.enclave);
        merged
    }
}

/// The profiler: per-lane shards of per-enclave × per-phase cycle
/// totals, a controller overlay, and per-lane sliding-window rings.
/// Starts disabled; when off the only cost at an emit site is the
/// tracker's cached-bool branch.
pub struct PhaseProfiler {
    enabled: AtomicBool,
    window_cycles: AtomicU64,
    lanes: Vec<LaneShard>,
    overlay: LaneShard,
}

impl PhaseProfiler {
    /// A profiler sharded over `lanes` (match the recorder's lane
    /// count: cores + controller). Profiling starts disabled.
    pub fn new(lanes: usize) -> Arc<PhaseProfiler> {
        Arc::new(PhaseProfiler {
            enabled: AtomicBool::new(false),
            window_cycles: AtomicU64::new(DEFAULT_WINDOW_CYCLES),
            lanes: (0..lanes.max(1)).map(|_| LaneShard::new()).collect(),
            overlay: LaneShard::new(),
        })
    }

    /// Whether profiling is on. Trackers sample this at `begin`; the
    /// per-transition gate is their cached bool.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turn profiling on or off. Takes effect at each tracker's next
    /// `begin`.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Release);
    }

    /// Number of lanes.
    pub fn lane_count(&self) -> usize {
        self.lanes.len()
    }

    /// Window length in cycles for the time-series rings.
    pub fn window_cycles(&self) -> u64 {
        self.window_cycles.load(Ordering::Relaxed).max(1)
    }

    /// Set the window length (cycles; clamped to >= 1). Affects windows
    /// sealed after the call.
    pub fn set_window_cycles(&self, cycles: u64) {
        self.window_cycles.store(cycles.max(1), Ordering::Relaxed);
    }

    #[inline]
    fn shard(&self, lane: u32) -> &LaneShard {
        &self.lanes[(lane as usize).min(self.lanes.len() - 1)]
    }

    /// Attribute `cycles` of `phase` to `enclave` on the controller
    /// overlay — for control-plane costs (shootdown completion waits,
    /// throttle intervals) that run on arbitrary threads and therefore
    /// sit outside every per-core conservation sum. Gated on the
    /// profiler flag.
    pub fn attribute(&self, enclave: u64, phase: Phase, cycles: u64) {
        if !self.enabled() || cycles == 0 {
            return;
        }
        let slot = self.overlay.slot_for(enclave + 1);
        self.overlay.cycles[slot][phase as usize].fetch_add(cycles, Ordering::Relaxed);
    }

    /// Live-tail one lane's sealed windows from a cursor:
    /// `(windows, next_cursor, dropped_since)` — the recorder's tailing
    /// contract (strict prefix, lapped windows counted as dropped).
    pub fn tail_windows(&self, lane: u32, cursor: u64) -> (Vec<WindowSnapshot>, u64, u64) {
        self.lanes
            .get(lane as usize)
            .map(|l| l.tail_windows(cursor))
            .unwrap_or((Vec::new(), cursor, 0))
    }

    fn shard_enclaves(shard: &LaneShard) -> Vec<EnclavePhases> {
        let mut out = Vec::new();
        for (i, t) in shard.tags.iter().enumerate() {
            let tag = t.load(Ordering::Relaxed);
            let mut cycles = [0u64; NUM_PHASES];
            let mut any = false;
            for (p, slot) in cycles.iter_mut().enumerate() {
                *slot = shard.cycles[i][p].load(Ordering::Relaxed);
                any |= *slot != 0;
            }
            if tag == 0 && !any {
                continue;
            }
            out.push(EnclavePhases {
                enclave: (tag != 0).then(|| tag - 1),
                cycles,
            });
        }
        out
    }

    /// Point-in-time profile across all lanes plus the overlay.
    pub fn snapshot(&self) -> ProfileSnapshot {
        let lanes = self
            .lanes
            .iter()
            .enumerate()
            .map(|(lane, shard)| LaneProfile {
                lane,
                wall: shard.wall.load(Ordering::Relaxed),
                accounted: shard.accounted.load(Ordering::Relaxed),
                enclaves: Self::shard_enclaves(shard),
            })
            .collect();
        ProfileSnapshot {
            lanes,
            overlay: Self::shard_enclaves(&self.overlay),
        }
    }
}

/// Per-core handle driving the phase state machine. One per `GuestCore`
/// (the thread logically owning the lane); transitions are
/// single-threaded by construction, the shard atomics exist for
/// concurrent *readers* (snapshot, window tailing).
pub struct PhaseTracker {
    prof: Arc<PhaseProfiler>,
    lane: u32,
    /// Enclave tag (id + 1; 0 = untagged), resolved to a shard slot.
    slot: usize,
    tag: u64,
    /// Cached at `begin`: the only thing a transition checks when the
    /// profiler is off.
    on: bool,
    phase: Phase,
    /// When the current phase delta started (last transition).
    phase_start: u64,
    begin_tsc: u64,
    window: WindowAcc,
}

impl PhaseTracker {
    /// A tracker for `lane` on `prof`. Starts off; call
    /// [`PhaseTracker::begin`] to arm it.
    pub fn new(prof: Arc<PhaseProfiler>, lane: u32) -> PhaseTracker {
        PhaseTracker {
            prof,
            lane,
            slot: 0,
            tag: 0,
            on: false,
            phase: Phase::Idle,
            phase_start: 0,
            begin_tsc: 0,
            window: WindowAcc::new(),
        }
    }

    /// Attribute this tracker's cycles to `enclave` (claims a shard
    /// slot). Call before `begin`.
    pub fn set_enclave(&mut self, enclave: u64) {
        self.tag = enclave + 1;
    }

    /// Whether the tracker is armed (profiler was enabled at `begin`).
    #[inline]
    pub fn on(&self) -> bool {
        self.on
    }

    /// The current phase.
    pub fn phase(&self) -> Phase {
        self.phase
    }

    /// Arm the tracker at `tsc`, entering [`Phase::GuestExec`]. Samples
    /// the profiler flag once — a session that begins off stays off (and
    /// free) until the next `begin`.
    pub fn begin(&mut self, tsc: u64) {
        self.on = self.prof.enabled();
        if !self.on {
            return;
        }
        self.slot = self.prof.shard(self.lane).slot_for(self.tag);
        self.phase = Phase::GuestExec;
        self.phase_start = tsc;
        self.begin_tsc = tsc;
        self.window.reset(tsc / self.prof.window_cycles());
    }

    /// Move the state machine to `phase` at `tsc`, attributing the
    /// elapsed delta to the outgoing phase. No-op (one branch) when off.
    #[inline]
    pub fn transition(&mut self, phase: Phase, tsc: u64) {
        if !self.on {
            return;
        }
        self.advance(phase, tsc);
    }

    /// [`PhaseTracker::transition`] with a lazily-taken timestamp, so
    /// the off path skips the clock read too.
    #[inline]
    pub fn transition_now(&mut self, phase: Phase, now: impl FnOnce() -> u64) {
        if !self.on {
            return;
        }
        self.advance(phase, now());
    }

    fn advance(&mut self, phase: Phase, tsc: u64) {
        let delta = tsc.saturating_sub(self.phase_start);
        let out = self.phase as usize;
        let shard = self.prof.shard(self.lane);
        if delta > 0 {
            shard.cycles[self.slot][out].fetch_add(delta, Ordering::Relaxed);
            shard.accounted.fetch_add(delta, Ordering::Relaxed);
            // Window accounting: the delta lands in the window of its
            // *end* timestamp; a boundary crossing seals the previous
            // window first so readers see a dense seal-order stream.
            let idx = tsc / self.prof.window_cycles();
            if idx != self.window.index {
                if self.window.dirty {
                    shard.seal(&self.window);
                }
                self.window.reset(idx);
            }
            self.window.phase_cycles[out] += delta;
            self.window.dirty = true;
        }
        self.phase = phase;
        self.phase_start = tsc;
    }

    /// Disarm at `tsc`: attribute the trailing delta to the current
    /// phase, seal the partial window, and add `tsc - begin_tsc` to the
    /// lane's wall total. Conservation (`wall == accounted`) holds
    /// exactly when every session is bracketed begin/finish.
    pub fn finish(&mut self, tsc: u64) {
        if !self.on {
            return;
        }
        self.advance(Phase::Idle, tsc);
        if self.window.dirty {
            self.prof.shard(self.lane).seal(&self.window);
            self.window.reset(self.window.index + 1);
        }
        self.prof
            .shard(self.lane)
            .wall
            .fetch_add(tsc.saturating_sub(self.begin_tsc), Ordering::Relaxed);
        self.on = false;
    }
}

impl std::fmt::Debug for PhaseTracker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "PhaseTracker(lane {}, {}, {})",
            self.lane,
            self.phase.name(),
            if self.on { "on" } else { "off" }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profiler(lanes: usize) -> Arc<PhaseProfiler> {
        let p = PhaseProfiler::new(lanes);
        p.set_enabled(true);
        p
    }

    #[test]
    fn phase_name_table_exhaustive_and_unique() {
        let mut seen = std::collections::HashSet::new();
        for (i, p) in Phase::ALL.iter().enumerate() {
            assert_eq!(*p as usize, i, "ALL order must match discriminants");
            let n = p.name();
            assert!(seen.insert(n), "duplicate phase name {n}");
            assert!(n
                .chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_'));
        }
        assert_eq!(Phase::ALL.len(), NUM_PHASES);
    }

    #[test]
    fn conservation_is_exact_for_a_bracketed_session() {
        let prof = profiler(2);
        let mut t = PhaseTracker::new(Arc::clone(&prof), 0);
        t.set_enclave(3);
        t.begin(1_000);
        t.transition(Phase::RootExit, 1_700);
        t.transition(Phase::CmdHarvest, 2_000);
        t.transition(Phase::GuestExec, 2_600);
        t.transition(Phase::RegionResolve, 9_000);
        t.transition(Phase::GuestExec, 9_400);
        t.finish(12_345);
        let snap = prof.snapshot();
        let lane = &snap.lanes[0];
        assert_eq!(lane.wall, 12_345 - 1_000);
        assert_eq!(lane.accounted, lane.wall, "telescoping must be exact");
        assert_eq!(lane.conservation_error(), 0.0);
        let e = &lane.enclaves[0];
        assert_eq!(e.enclave, Some(3));
        assert_eq!(e.cycles[Phase::GuestExec as usize], 700 + 6_400 + 2_945);
        assert_eq!(e.cycles[Phase::RootExit as usize], 300);
        assert_eq!(e.cycles[Phase::CmdHarvest as usize], 600);
        assert_eq!(e.cycles[Phase::RegionResolve as usize], 400);
        assert_eq!(e.total(), lane.accounted);
    }

    #[test]
    fn disabled_tracker_records_nothing_and_stays_off_mid_session() {
        let prof = PhaseProfiler::new(1); // disabled
        let mut t = PhaseTracker::new(Arc::clone(&prof), 0);
        t.begin(100);
        prof.set_enabled(true); // mid-session enable must not arm it
        t.transition(Phase::RootExit, 200);
        t.finish(300);
        let snap = prof.snapshot();
        assert_eq!(snap.lanes[0].wall, 0);
        assert_eq!(snap.lanes[0].accounted, 0);
        assert!(snap.lanes[0].enclaves.is_empty());
        // The next begin picks the flag up.
        t.begin(400);
        assert!(t.on());
    }

    #[test]
    fn overlay_attribution_is_per_enclave_and_off_conservation() {
        let prof = profiler(2);
        prof.attribute(7, Phase::ShootdownWait, 5_000);
        prof.attribute(7, Phase::Throttled, 2_000);
        prof.attribute(9, Phase::ShootdownWait, 100);
        prof.attribute(9, Phase::GuestExec, 0); // zero: dropped
        let snap = prof.snapshot();
        assert!(snap.lanes.iter().all(|l| l.accounted == 0));
        assert_eq!(snap.overlay.len(), 2);
        let by = snap.by_enclave();
        let e7 = by.iter().find(|e| e.enclave == Some(7)).unwrap();
        assert_eq!(e7.cycles[Phase::ShootdownWait as usize], 5_000);
        assert_eq!(e7.cycles[Phase::Throttled as usize], 2_000);
        let e9 = by.iter().find(|e| e.enclave == Some(9)).unwrap();
        assert_eq!(e9.total(), 100);
        // Disabled profiler drops attribution.
        prof.set_enabled(false);
        prof.attribute(7, Phase::Throttled, 999);
        assert_eq!(
            prof.snapshot().by_enclave()[0].cycles[Phase::Throttled as usize],
            2_000
        );
    }

    #[test]
    fn window_rollover_seals_dense_stream_with_indices() {
        let prof = profiler(1);
        prof.set_window_cycles(1_000);
        let mut t = PhaseTracker::new(Arc::clone(&prof), 0);
        t.begin(0);
        t.transition(Phase::RootExit, 500); // window 0
        t.transition(Phase::GuestExec, 900); // window 0
        t.transition(Phase::RootExit, 1_200); // crosses into window 1
        t.transition(Phase::GuestExec, 5_500); // skips windows 2..4
        t.finish(5_600);
        let (wins, next, dropped) = prof.tail_windows(0, 0);
        assert_eq!(dropped, 0);
        assert_eq!(next, wins.len() as u64);
        // Seal order is dense even though window indices have gaps.
        assert_eq!(
            wins.iter().map(|w| w.index).collect::<Vec<_>>(),
            vec![0, 1, 5]
        );
        // Deltas belong to the *outgoing* phase: begin enters GuestExec,
        // so the 0..500 delta is guest time, 500..900 is exit time.
        assert_eq!(wins[0].phase_cycles[Phase::GuestExec as usize], 500);
        assert_eq!(wins[0].phase_cycles[Phase::RootExit as usize], 400);
        // The delta ending at 1200 lands wholly in window 1.
        assert_eq!(wins[1].phase_cycles[Phase::GuestExec as usize], 300);
        assert_eq!(wins[2].phase_cycles[Phase::RootExit as usize], 4_300);
        assert_eq!(wins[2].phase_cycles[Phase::GuestExec as usize], 100);
        // Shares sum to 1 for a non-empty window.
        let s: f64 = Phase::ALL.iter().map(|&p| wins[0].share(p)).sum();
        assert!((s - 1.0).abs() < 1e-9);
        // Cursor protocol: nothing new after the tail.
        let (more, next2, d2) = prof.tail_windows(0, next);
        assert!(more.is_empty());
        assert_eq!(next2, next);
        assert_eq!(d2, 0);
    }

    #[test]
    fn window_ring_laps_count_dropped() {
        let prof = profiler(1);
        prof.set_window_cycles(100);
        let mut t = PhaseTracker::new(Arc::clone(&prof), 0);
        t.begin(0);
        let total = (WINDOW_SLOTS as u64) + 17;
        for i in 0..total {
            // One delta per window: each seal advances the stream.
            t.transition(Phase::RootExit, i * 100 + 50);
            t.transition(Phase::GuestExec, i * 100 + 90);
        }
        t.finish(total * 100 + 10);
        let (wins, next, dropped) = prof.tail_windows(0, 0);
        assert_eq!(wins.len(), WINDOW_SLOTS);
        assert_eq!(dropped, next - WINDOW_SLOTS as u64);
        assert!(dropped >= 17);
        // The survivors are the newest windows, in order.
        for pair in wins.windows(2) {
            assert!(pair[0].index < pair[1].index);
        }
    }

    #[test]
    fn window_read_is_tear_free_while_writer_advances() {
        let prof = profiler(1);
        prof.set_window_cycles(1_000);
        let stop = Arc::new(AtomicBool::new(false));
        let writer = {
            let prof = Arc::clone(&prof);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut t = PhaseTracker::new(prof, 0);
                t.begin(0);
                let mut tsc = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    // Fill each window with a recognizable pattern: every
                    // phase gets exactly `index + 1` cycles, so a torn read
                    // mixing two windows shows unequal entries.
                    let idx = tsc / 1_000;
                    let unit = (idx % 100) + 1;
                    if unit * (NUM_PHASES as u64) <= 1_000 {
                        for &p in Phase::ALL.iter() {
                            tsc += unit;
                            t.transition(p, tsc);
                        }
                    }
                    tsc = (idx + 1) * 1_000; // jump to the next window
                    t.transition(Phase::GuestExec, tsc);
                    // Strip the boundary-crossing delta off phase 0 below.
                }
                t.finish(tsc);
            })
        };
        let mut cursor = 0u64;
        let mut seen = 0u64;
        while seen < 500 {
            let (wins, next, _) = prof.tail_windows(0, cursor);
            cursor = next;
            for w in &wins {
                // The mid-cycle phases must all hold the same unit value;
                // a torn read straddling two seals would disagree.
                // (GuestExec absorbs an extra unit at the cycle start and
                // Idle absorbs the previous window's boundary jump, so
                // both are excluded from the equality check.)
                let unit = (w.index % 100) + 1;
                for &p in Phase::ALL.iter() {
                    if p == Phase::GuestExec || p == Phase::Idle {
                        continue;
                    }
                    assert_eq!(
                        w.phase_cycles[p as usize],
                        unit,
                        "torn window at index {} phase {}",
                        w.index,
                        p.name()
                    );
                }
            }
            seen += wins.len() as u64;
        }
        stop.store(true, Ordering::Relaxed);
        writer.join().unwrap();
    }

    #[test]
    fn by_enclave_merges_lanes_and_overlay() {
        let prof = profiler(3);
        let mut a = PhaseTracker::new(Arc::clone(&prof), 0);
        a.set_enclave(1);
        a.begin(0);
        a.finish(1_000);
        let mut b = PhaseTracker::new(Arc::clone(&prof), 1);
        b.set_enclave(1);
        b.begin(0);
        b.finish(500);
        prof.attribute(1, Phase::ShootdownWait, 250);
        let by = prof.snapshot().by_enclave();
        assert_eq!(by.len(), 1);
        assert_eq!(by[0].total(), 1_750);
        assert_eq!(by[0].cycles[Phase::ShootdownWait as usize], 250);
    }

    #[test]
    fn slot_overflow_aggregates_instead_of_failing() {
        let prof = profiler(1);
        for e in 0..(SLOTS as u64 + 4) {
            prof.attribute(e, Phase::Throttled, 10);
        }
        let snap = prof.snapshot();
        let total: u64 = snap
            .overlay
            .iter()
            .map(|e| e.cycles[Phase::Throttled as usize])
            .sum();
        assert_eq!(total, (SLOTS as u64 + 4) * 10, "no attribution lost");
    }
}
