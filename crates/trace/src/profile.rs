//! covirt-prof: always-on cycle accounting with per-enclave phase
//! attribution.
//!
//! The flight recorder answers *what happened*; this module answers
//! **where every cycle went**. Each core runs a phase state machine
//! ([`Phase`]) whose transitions are TSC-delimited at the existing
//! hot-path boundaries (guest execution, exit dispatch, command harvest,
//! TLB misses, safe-point servicing). Because the simulated
//! TSC is exact, accounting is exact too: the per-core phase totals
//! telescope, so
//!
//! ```text
//!   sum over phases(cycles) == finish_tsc - begin_tsc      (conservation)
//! ```
//!
//! holds by construction on every core, and the `figures profile` CI gate
//! verifies it to 0.5 % so a future missed boundary or double attribution is
//! caught, not silently absorbed.
//!
//! Layout mirrors the recorder: one shard per lane (core lanes plus the
//! controller lane), each shard a small enclave-slot table of per-phase
//! atomic cycle counters. The profiler keeps totals only: a reader that
//! wants a rate takes two snapshots and subtracts. The hot paths pay
//! **one plain-bool branch when the profiler is off** — the
//! [`PhaseTracker`] caches enabled-ness at `begin`, so a disabled
//! transition is a single predictable-untaken branch, no atomic load, no
//! RDTSC.
//!
//! Controller-side costs that execute on arbitrary threads (shootdown
//! completion waits) cannot join a per-core timeline without breaking
//! conservation; they are attributed per enclave through the **overlay**
//! ([`PhaseProfiler::attribute`]), reported alongside the per-core totals
//! but excluded from the conservation check.

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
    /// A TLB miss: the slow-path translation — the guest walk, its nested
    /// EPT steps and the fill.
    TlbMiss = 3,
    /// Waiting on broadcast shootdown completions (overlay: attributed
    /// to the enclave whose reclaim forced the wait).
    ShootdownWait = 4,
    /// Safe-point servicing not otherwise attributed (timer poll, IRR
    /// scan, doorbell check on the no-work path).
    SafePoint = 5,
    /// Core parked (terminated enclave) or trailing time at finish.
    Idle = 6,
}

/// Number of phases (array dimension for per-slot counters).
pub const NUM_PHASES: usize = 7;

impl Phase {
    /// Every phase, in display order.
    pub const ALL: [Phase; NUM_PHASES] = [
        Phase::GuestExec,
        Phase::RootExit,
        Phase::CmdHarvest,
        Phase::TlbMiss,
        Phase::ShootdownWait,
        Phase::SafePoint,
        Phase::Idle,
    ];

    /// Stable wire/display name (folded stacks, tables).
    pub fn name(&self) -> &'static str {
        match self {
            Phase::GuestExec => "guest_exec",
            Phase::RootExit => "root_exit",
            Phase::CmdHarvest => "cmd_harvest",
            Phase::TlbMiss => "tlb_miss",
            Phase::ShootdownWait => "shootdown_wait",
            Phase::SafePoint => "safe_point",
            Phase::Idle => "idle",
        }
    }
}

/// Enclave slots per lane shard. A core serves one enclave (plus
/// untagged work), the overlay serves every enclave on the node; the
/// last slot aggregates overflow so attribution never fails.
const SLOTS: usize = 8;

/// Slot tag of a slot no session or attribution has claimed.
const FREE: u64 = 0;

/// Slot tag for `enclave` (None = untagged / native work). Untagged work
/// claims a slot like an enclave does, under a tag distinct from [`FREE`],
/// so a later enclave never claims a slot that already holds cycles.
fn slot_tag(enclave: Option<u64>) -> u64 {
    enclave.map_or(1, |e| e.saturating_add(2))
}

/// One lane's shard: enclave-slot table of per-phase cycle totals and the
/// conservation pair (wall vs accounted).
struct LaneShard {
    /// Slot tags ([`slot_tag`], or [`FREE`]); the last slot aggregates
    /// overflow under its first claimant's tag.
    tags: [AtomicU64; SLOTS],
    cycles: [[AtomicU64; NUM_PHASES]; SLOTS],
    /// Sum of `finish_tsc - begin_tsc` over tracker sessions.
    wall: AtomicU64,
    /// Sum of all phase deltas recorded by the tracker (conservation
    /// counterpart of `wall`; overlay attribution bypasses this).
    accounted: AtomicU64,
}

impl LaneShard {
    fn new() -> LaneShard {
        LaneShard {
            tags: std::array::from_fn(|_| AtomicU64::new(FREE)),
            cycles: std::array::from_fn(|_| std::array::from_fn(|_| AtomicU64::new(0))),
            wall: AtomicU64::new(0),
            accounted: AtomicU64::new(0),
        }
    }

    /// The slot for `tag` (a [`slot_tag`]), claiming a free one on first
    /// use. When the table is full everything else aggregates into the
    /// last slot.
    fn slot_for(&self, tag: u64) -> usize {
        for (i, t) in self.tags.iter().enumerate() {
            let cur = t.load(Ordering::Relaxed);
            if cur == tag {
                return i;
            }
            if cur == FREE
                && t.compare_exchange(FREE, tag, Ordering::Relaxed, Ordering::Relaxed)
                    .is_ok()
            {
                return i;
            }
        }
        SLOTS - 1
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
    /// Controller-side per-enclave attribution (shootdown waits) —
    /// outside the per-core conservation sums.
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
/// totals and a controller overlay.
/// Starts disabled; when off the only cost at an emit site is the
/// tracker's cached-bool branch.
pub struct PhaseProfiler {
    enabled: AtomicBool,
    lanes: Vec<LaneShard>,
    overlay: LaneShard,
}

impl PhaseProfiler {
    /// A profiler sharded over `lanes` (match the recorder's lane
    /// count: cores + controller). Profiling starts disabled.
    pub fn new(lanes: usize) -> Arc<PhaseProfiler> {
        Arc::new(PhaseProfiler {
            enabled: AtomicBool::new(false),
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

    #[inline]
    fn shard(&self, lane: u32) -> &LaneShard {
        &self.lanes[(lane as usize).min(self.lanes.len() - 1)]
    }

    /// Attribute `cycles` of `phase` to `enclave` on the controller
    /// overlay — for control-plane costs (shootdown completion waits)
    /// that run on arbitrary threads and therefore sit outside every
    /// per-core conservation sum. Gated on the profiler flag.
    pub fn attribute(&self, enclave: u64, phase: Phase, cycles: u64) {
        if !self.enabled() || cycles == 0 {
            return;
        }
        let slot = self.overlay.slot_for(slot_tag(Some(enclave)));
        self.overlay.cycles[slot][phase as usize].fetch_add(cycles, Ordering::Relaxed);
    }

    fn shard_enclaves(shard: &LaneShard) -> Vec<EnclavePhases> {
        let mut out = Vec::new();
        for (i, t) in shard.tags.iter().enumerate() {
            let tag = t.load(Ordering::Relaxed);
            if tag == FREE {
                continue;
            }
            out.push(EnclavePhases {
                enclave: tag.checked_sub(2),
                cycles: std::array::from_fn(|p| shard.cycles[i][p].load(Ordering::Relaxed)),
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
/// concurrent *readers* (snapshot).
pub struct PhaseTracker {
    prof: Arc<PhaseProfiler>,
    lane: u32,
    /// Enclave slot tag ([`slot_tag`]), resolved to a shard slot.
    slot: usize,
    tag: u64,
    /// Cached at `begin`: the only thing a transition checks when the
    /// profiler is off.
    on: bool,
    phase: Phase,
    /// When the current phase delta started (last transition).
    phase_start: u64,
    begin_tsc: u64,
}

impl PhaseTracker {
    /// A tracker for `lane` on `prof`. Starts off; call
    /// [`PhaseTracker::begin`] to arm it.
    pub fn new(prof: Arc<PhaseProfiler>, lane: u32) -> PhaseTracker {
        PhaseTracker {
            prof,
            lane,
            slot: 0,
            tag: slot_tag(None),
            on: false,
            phase: Phase::Idle,
            phase_start: 0,
            begin_tsc: 0,
        }
    }

    /// Attribute this tracker's cycles to `enclave` (claims a shard
    /// slot). Call before `begin`.
    pub fn set_enclave(&mut self, enclave: u64) {
        self.tag = slot_tag(Some(enclave));
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
        }
        self.phase = phase;
        self.phase_start = tsc;
    }

    /// Disarm at `tsc`: attribute the trailing delta to the current
    /// phase and add `tsc - begin_tsc` to the lane's wall total.
    /// Conservation (`wall == accounted`) holds exactly when every session
    /// is bracketed begin/finish.
    pub fn finish(&mut self, tsc: u64) {
        if !self.on {
            return;
        }
        self.advance(Phase::Idle, tsc);
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
        t.transition(Phase::TlbMiss, 9_000);
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
        assert_eq!(e.cycles[Phase::TlbMiss as usize], 400);
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
        assert!(t.on);
    }

    #[test]
    fn overlay_attribution_is_per_enclave_and_off_conservation() {
        let prof = profiler(2);
        prof.attribute(7, Phase::ShootdownWait, 5_000);
        prof.attribute(7, Phase::CmdHarvest, 2_000);
        prof.attribute(9, Phase::ShootdownWait, 100);
        prof.attribute(9, Phase::GuestExec, 0); // zero: dropped
        let snap = prof.snapshot();
        assert!(snap.lanes.iter().all(|l| l.accounted == 0));
        assert_eq!(snap.overlay.len(), 2);
        let by = snap.by_enclave();
        let e7 = by.iter().find(|e| e.enclave == Some(7)).unwrap();
        assert_eq!(e7.cycles[Phase::ShootdownWait as usize], 5_000);
        assert_eq!(e7.cycles[Phase::CmdHarvest as usize], 2_000);
        let e9 = by.iter().find(|e| e.enclave == Some(9)).unwrap();
        assert_eq!(e9.total(), 100);
        // Disabled profiler drops attribution.
        prof.set_enabled(false);
        prof.attribute(7, Phase::CmdHarvest, 999);
        assert_eq!(
            prof.snapshot().by_enclave()[0].cycles[Phase::CmdHarvest as usize],
            2_000
        );
    }

    /// Regression: an untagged session's slot stayed tagged free, so the
    /// next enclave on the lane claimed it along with the native cycles
    /// already in it.
    #[test]
    fn untagged_cycles_stay_untagged_when_an_enclave_follows_on_the_lane() {
        let prof = profiler(1);
        let mut native = PhaseTracker::new(Arc::clone(&prof), 0);
        native.begin(0);
        native.finish(1_000);
        let mut enclave = PhaseTracker::new(Arc::clone(&prof), 0);
        enclave.set_enclave(3);
        enclave.begin(2_000);
        enclave.finish(2_500);
        let by: Vec<(Option<u64>, u64)> = prof
            .snapshot()
            .by_enclave()
            .iter()
            .map(|e| (e.enclave, e.total()))
            .collect();
        assert_eq!(by, vec![(None, 1_000), (Some(3), 500)]);
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
            prof.attribute(e, Phase::ShootdownWait, 10);
        }
        let snap = prof.snapshot();
        let total: u64 = snap
            .overlay
            .iter()
            .map(|e| e.cycles[Phase::ShootdownWait as usize])
            .sum();
        assert_eq!(total, (SLOTS as u64 + 4) * 10, "no attribution lost");
    }
}
