//! Online protection-audit engine (`covirt-audit`).
//!
//! The flight recorder proves that events *happened*; this module proves
//! that they happened in the order the protection model requires. It
//! streams a merged event dump through three analyses:
//!
//! 1. **Causal lifecycle stitching** — reconstructs end-to-end chains
//!    keyed by region (`Grant → Reclaim → ShootdownEnd`) and by command
//!    (`CmdPost → NmiKick → CmdDrain → CmdComplete → CmdWait`), with
//!    per-stage latency breakdowns, and flags chains that never complete.
//! 2. **Invariant checkers** — streaming assertions over event order:
//!    no grant may overlap a reclaimed range whose shootdown has not
//!    completed (the frame-recycling analog of "no resolve hit after
//!    reclaim"), every posted command completes within a bound, every
//!    teardown is preceded by a fault report or an explicit shutdown
//!    message for the same enclave, ring-drop counters never exceed a
//!    threshold, and every fault report is surfaced as a protection
//!    violation. Each violation carries the event window around it.
//! 3. **Per-enclave attribution** — exits, shootdown RTTs and command
//!    latencies roll up per enclave (from the enclave-tagged events) into
//!    log2 histograms, beside each enclave's fault count and its
//!    fault-report → teardown latency.
//!
//! ## Drop-window semantics
//!
//! Ring overflow (or a mid-stream reservation-index gap) means events
//! are missing, so *absence*-based invariants — "X never happened" —
//! cannot be asserted. When any lane dropped events the engine marks the
//! report **evidence-incomplete** and demotes absence-based findings
//! (never-completed commands, never-synced reclaims, teardown-without-
//! cause) to notes instead of violations. Presence-based findings (a
//! fault report, a grant inside a stale window, an over-bound completion
//! that *was* observed) remain violations: the events proving them are
//! in hand.

use crate::hist::HistSnapshot;
use crate::{cycles_to_ns, unpack_str, EventKind, TraceEvent};
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};

/// A posted command must complete within this many (TSC-derived)
/// nanoseconds of its post: 1 s, generous for loaded CI hosts.
const CMD_BOUND_NS: u64 = 1_000_000_000;
/// Events of context captured around each violation.
const WINDOW: usize = 8;

/// One region's protection lifecycle, stitched from `Grant` → `Reclaim` →
/// the enclave's next `ShootdownEnd`, which synchronizes every pending
/// reclaim of its enclave.
#[derive(Clone, Debug)]
pub struct RegionLifecycle {
    /// Owning enclave, when the emitter tagged one.
    pub enclave: Option<u64>,
    /// Region base address.
    pub start: u64,
    /// Region length in bytes.
    pub len: u64,
    /// TSC of the grant (`None` for regions mapped before the capture,
    /// e.g. the boot-time assignment).
    pub grant_tsc: Option<u64>,
    /// TSC of the reclaim (EPT unmap), if reclaimed.
    pub reclaim_tsc: Option<u64>,
    /// TSC of the shootdown completion that closed the stale window.
    pub synced_tsc: Option<u64>,
}

impl RegionLifecycle {
    /// Lifecycle state label for the report table.
    pub fn state(&self) -> &'static str {
        if self.synced_tsc.is_some() {
            "synced"
        } else if self.reclaim_tsc.is_some() {
            "stale-window"
        } else {
            "held"
        }
    }

    /// Whether the full grant → reclaim → shootdown chain completed.
    pub fn complete(&self) -> bool {
        self.grant_tsc.is_some() && self.reclaim_tsc.is_some() && self.synced_tsc.is_some()
    }
}

/// One command's lifecycle, stitched from `CmdPost` → delivery →
/// `CmdComplete` → `CmdWait`, keyed by (seq, core). Delivery is one of
/// two valid shapes: the NMI path (`NmiKick` → `CmdDrain`, the guest
/// takes a VM exit to drain) or the exitless path (`CmdDoorbell` →
/// `CmdHarvest`, the guest harvests the posted-interrupt descriptor at
/// a safe point and drains in guest mode). `NmiKick` is therefore
/// *optional*: an exitless chain with no kick is complete, and a kick
/// on a doorbell chain records a bounded-fallback escalation.
#[derive(Clone, Debug)]
pub struct CmdLifecycle {
    /// Command sequence number.
    pub seq: u64,
    /// Core the command was posted to.
    pub core: u64,
    /// Posting enclave, when tagged.
    pub enclave: Option<u64>,
    /// TSC of the post.
    pub post_tsc: u64,
    /// TSC of the first NMI kick to the core after the post. `None` on
    /// exitless chains that never escalated.
    pub nmi_tsc: Option<u64>,
    /// TSC of the doorbell post into the core's posted-interrupt
    /// descriptor, when the controller ran doorbell-first.
    pub doorbell_tsc: Option<u64>,
    /// TSC of the guest-mode harvest that drained the command without a
    /// VM exit.
    pub harvest_tsc: Option<u64>,
    /// TSC of the hypervisor's queue drain that picked the command up.
    pub drain_tsc: Option<u64>,
    /// TSC of the completion acknowledgement.
    pub complete_tsc: Option<u64>,
    /// Post → complete latency the completing hypervisor reported
    /// (event payload; 0 when the poster's recorder was off).
    pub complete_ns: u64,
    /// Controller-observed wait time, when a `CmdWait` matched.
    pub wait_ns: Option<u64>,
}

impl CmdLifecycle {
    /// Whether the command provably finished: its completion ack was
    /// observed, or a controller wait for it returned. The second case
    /// matters for drain-merged captures — the ring can
    /// overwrite the `CmdComplete` record while the controller's
    /// `CmdWait` (which can only follow the completion) survives, so the
    /// chain is complete even though `complete_tsc` is `None`.
    pub fn complete(&self) -> bool {
        self.complete_tsc.is_some() || self.wait_ns.is_some()
    }

    /// Whether the chain was delivered exitlessly: a doorbell or a
    /// guest-mode harvest was observed and no NMI kick ever was.
    pub fn exitless(&self) -> bool {
        self.nmi_tsc.is_none() && (self.doorbell_tsc.is_some() || self.harvest_tsc.is_some())
    }
}

/// The invariant a violation breaks.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ViolationKind {
    /// A fault-isolation teardown was reported (`FaultReport`): the
    /// enclave attempted an access the protection layer had to contain.
    ProtectionFault,
    /// A grant overlapped a reclaimed range whose shootdown had not yet
    /// completed — the frame was recycled inside the stale-TLB window.
    UseAfterReclaim,
    /// A posted command never completed, or completed over the bound.
    CommandStall,
    /// A reclaimed range was never covered by a shootdown completion.
    UnsyncedReclaim,
    /// A teardown with no preceding fault report or shutdown message.
    OrphanTeardown,
    /// Ring-overflow drops exceeded the configured threshold.
    RingDrops,
}

impl ViolationKind {
    /// Stable display name.
    pub fn name(&self) -> &'static str {
        match self {
            ViolationKind::ProtectionFault => "protection_fault",
            ViolationKind::UseAfterReclaim => "use_after_reclaim",
            ViolationKind::CommandStall => "command_stall",
            ViolationKind::UnsyncedReclaim => "unsynced_reclaim",
            ViolationKind::OrphanTeardown => "orphan_teardown",
            ViolationKind::RingDrops => "ring_drops",
        }
    }
}

/// One invariant violation, with the event window around it.
#[derive(Clone, Debug)]
pub struct Violation {
    /// Which invariant broke.
    pub kind: ViolationKind,
    /// The enclave the violation is attributed to, when known.
    pub enclave: Option<u64>,
    /// TSC at (or nearest to) the violating event.
    pub tsc: u64,
    /// Human-readable description.
    pub detail: String,
    /// The events immediately preceding (and including) the trigger.
    pub window: Vec<TraceEvent>,
    /// The finding rests on an event *not* occurring (a completion or a
    /// fault report that was never seen), so it is demoted to a note when
    /// the capture dropped events — the missing event may be among them.
    /// Presence-based findings keep their proof in hand and survive.
    pub absence_based: bool,
}

/// Per-enclave attribution rollup.
#[derive(Clone, Default)]
pub struct EnclaveStats {
    /// Exit handle times (ns), one sample per VM exit handled.
    pub exit_ns: HistSnapshot,
    /// Broadcast-shootdown round-trips (ns).
    pub shootdown_rtt_ns: HistSnapshot,
    /// Controller command-wait times (ns).
    pub cmd_wait_ns: HistSnapshot,
    /// Post → complete command latencies (ns).
    pub cmd_latency_ns: HistSnapshot,
    /// Fault reports attributed to this enclave.
    pub faults: u64,
    /// Host time from the enclave's first fault report to its teardown
    /// (ns), when both were seen: how long containment took to hand the
    /// enclave's resources back.
    pub fault_to_teardown_ns: Option<u64>,
}

/// The engine's final output.
pub struct AuditReport {
    /// Stitched region lifecycles, in first-seen order.
    pub regions: Vec<RegionLifecycle>,
    /// Stitched command lifecycles, in post order.
    pub commands: Vec<CmdLifecycle>,
    /// Invariant violations (empty on a clean run).
    pub violations: Vec<Violation>,
    /// Demoted findings and informational remarks.
    pub notes: Vec<String>,
    /// Per-enclave attribution, keyed by enclave id.
    pub enclaves: BTreeMap<u64, EnclaveStats>,
    /// Whether the capture lost events (ring drops or index gaps).
    pub evidence_incomplete: bool,
    /// Total events the capture dropped.
    pub dropped_events: u64,
    /// Clock frequency used for TSC → ns conversion.
    pub hz: u64,
}

impl AuditReport {
    /// True when no invariant was violated.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    fn ns(&self, cycles: u64) -> u64 {
        cycles_to_ns(cycles, self.hz)
    }

    /// Render the report as the text the `figures audit` subcommand
    /// prints: evidence status, lifecycle tables, violations with their
    /// event windows, and the per-enclave report.
    pub fn render(&self) -> String {
        let mut out = String::from("== protection audit ==\n");
        if self.evidence_incomplete {
            out.push_str(&format!(
                "evidence: INCOMPLETE — {} event(s) dropped; absence-based checks demoted to notes\n",
                self.dropped_events
            ));
        } else {
            out.push_str("evidence: complete (no ring drops)\n");
        }

        out.push_str("\nregion lifecycles (grant -> reclaim -> shootdown-synced):\n");
        if self.regions.is_empty() {
            out.push_str("  (none observed)\n");
        } else {
            out.push_str(&format!(
                "  {:<8} {:<14} {:<10} {:<13} {:>12} {:>12}\n",
                "enclave", "start", "len", "state", "hold-ns", "sync-ns"
            ));
            for r in &self.regions {
                let hold = match (r.grant_tsc, r.reclaim_tsc) {
                    (Some(g), Some(q)) => self.ns(q.saturating_sub(g)).to_string(),
                    _ => "-".to_string(),
                };
                let sync = match (r.reclaim_tsc, r.synced_tsc) {
                    (Some(q), Some(s)) => self.ns(s.saturating_sub(q)).to_string(),
                    _ => "-".to_string(),
                };
                out.push_str(&format!(
                    "  {:<8} {:<#14x} {:<#10x} {:<13} {:>12} {:>12}\n",
                    r.enclave.map_or("-".to_string(), |e| e.to_string()),
                    r.start,
                    r.len,
                    r.state(),
                    hold,
                    sync
                ));
            }
        }

        let completed = self.commands.iter().filter(|c| c.complete()).count();
        let exitless = self
            .commands
            .iter()
            .filter(|c| c.complete() && c.exitless())
            .count();
        out.push_str(&format!(
            "\ncommand chains: {} posted, {} completed ({} exitless), {} unfinished\n",
            self.commands.len(),
            completed,
            exitless,
            self.commands.len() - completed
        ));
        if completed > 0 {
            let mut post_to_nmi = HistSnapshot::default();
            let mut post_to_doorbell = HistSnapshot::default();
            let mut post_to_harvest = HistSnapshot::default();
            let mut post_to_complete = HistSnapshot::default();
            let mut exitless_complete = HistSnapshot::default();
            for c in self.commands.iter().filter(|c| c.complete()) {
                if let Some(nmi) = c.nmi_tsc {
                    post_to_nmi.record(self.ns(nmi.saturating_sub(c.post_tsc)));
                }
                if let Some(db) = c.doorbell_tsc {
                    post_to_doorbell.record(self.ns(db.saturating_sub(c.post_tsc)));
                }
                if let Some(h) = c.harvest_tsc {
                    post_to_harvest.record(self.ns(h.saturating_sub(c.post_tsc)));
                }
                // A chain can be complete with no observed ack (a
                // returned wait proves completion after the ack record
                // was overwritten) — unwrapping here used to panic.
                if let Some(t) = c.complete_tsc {
                    let ns = self.ns(t.saturating_sub(c.post_tsc));
                    post_to_complete.record(ns);
                    if c.exitless() {
                        exitless_complete.record(ns);
                    }
                }
            }
            for (label, h) in [
                ("post->nmi-ns     ", &post_to_nmi),
                ("post->doorbell-ns", &post_to_doorbell),
                ("post->harvest-ns ", &post_to_harvest),
                ("post->complete-ns", &post_to_complete),
                ("exitless-cplt-ns ", &exitless_complete),
            ] {
                if h.count == 0 {
                    continue;
                }
                out.push_str(&format!(
                    "  {label} p50 {:>8}  p99 {:>8}  max {:>8}  (n={})\n",
                    h.quantile(0.5),
                    h.quantile(0.99),
                    h.max,
                    h.count
                ));
            }
        }

        out.push_str(&format!("\nviolations: {}\n", self.violations.len()));
        for v in &self.violations {
            out.push_str(&format!(
                "  [{}] enclave={} tsc={} — {}\n",
                v.kind.name(),
                v.enclave.map_or("-".to_string(), |e| e.to_string()),
                v.tsc,
                v.detail
            ));
            for e in &v.window {
                out.push_str(&format!(
                    "      tsc={:<12} lane={:<3} {:<16} a={:#x} b={:#x}\n",
                    e.tsc,
                    e.lane,
                    e.kind.name(),
                    e.a,
                    e.b
                ));
            }
        }

        out.push_str("\nper-enclave report:\n");
        if self.enclaves.is_empty() {
            out.push_str("  (no enclave-attributed events)\n");
        } else {
            out.push_str(&format!(
                "  {:<8} {:>6} {:>12} {:>12} {:>12} {:>7} {:>14}\n",
                "enclave", "exits", "exit-p99", "sd-p99", "wait-p99", "faults", "fault->td-ns"
            ));
            for (id, s) in &self.enclaves {
                out.push_str(&format!(
                    "  {:<8} {:>6} {:>12} {:>12} {:>12} {:>7} {:>14}\n",
                    id,
                    s.exit_ns.count,
                    s.exit_ns.quantile(0.99),
                    s.shootdown_rtt_ns.quantile(0.99),
                    s.cmd_wait_ns.quantile(0.99),
                    s.faults,
                    s.fault_to_teardown_ns
                        .map_or("-".to_string(), |ns| ns.to_string())
                ));
            }
        }

        if !self.notes.is_empty() {
            out.push_str("\nnotes:\n");
            for n in &self.notes {
                out.push_str(&format!("  - {n}\n"));
            }
        }
        out
    }
}

/// The streaming audit engine. Feed it a chronological event stream via
/// [`AuditEngine::ingest`] (plus the recorder's drop counters via
/// [`AuditEngine::note_lane_drops`]), then call [`AuditEngine::finish`].
pub struct AuditEngine {
    hz: u64,
    /// Rolling context window for violation reports.
    window: VecDeque<TraceEvent>,
    /// Region lifecycles keyed by (enclave tag, start); values index
    /// `region_order` so the report preserves first-seen order.
    regions: HashMap<(u64, u64), usize>,
    region_order: Vec<RegionLifecycle>,
    /// Command lifecycles keyed by (seq, core), in post order.
    cmds_open: HashMap<(u64, u64), usize>,
    cmd_order: Vec<CmdLifecycle>,
    violations: Vec<Violation>,
    notes: Vec<String>,
    enclaves: BTreeMap<u64, EnclaveStats>,
    /// TSC of each enclave's first fault report.
    faulted: HashMap<u64, u64>,
    /// Enclaves a `shutdown` control message was seen for.
    shut_down: HashSet<u64>,
    /// Per lane, the lowest and highest reservation index [`Self::ingest`]
    /// saw and how many events: the indices in between that never arrived
    /// are mid-stream gaps. Order-free, because a core's lane has a second
    /// writer — the controller's waits on that core — whose timestamps and
    /// indices can disagree with the core's by an event.
    lane_spans: BTreeMap<u32, (u64, u64, u64)>,
    /// Drops reported by the recorder plus index gaps.
    dropped: u64,
}

impl AuditEngine {
    /// A fresh engine converting timestamps at `hz`.
    pub fn new(hz: u64) -> AuditEngine {
        AuditEngine {
            hz,
            window: VecDeque::with_capacity(WINDOW + 1),
            regions: HashMap::new(),
            region_order: Vec::new(),
            cmds_open: HashMap::new(),
            cmd_order: Vec::new(),
            violations: Vec::new(),
            notes: Vec::new(),
            enclaves: BTreeMap::new(),
            faulted: HashMap::new(),
            shut_down: HashSet::new(),
            lane_spans: BTreeMap::new(),
            dropped: 0,
        }
    }

    /// Report the recorder's per-lane ring-overflow counters (events
    /// overwritten before the dump). Any non-zero entry marks the
    /// evidence incomplete.
    pub fn note_lane_drops(&mut self, drops_per_lane: &[u64]) {
        for (lane, &d) in drops_per_lane.iter().enumerate() {
            if d > 0 {
                self.notes
                    .push(format!("lane {lane} dropped {d} event(s) to ring overflow"));
                self.dropped += d;
            }
        }
    }

    fn stats(&mut self, enclave: Option<u64>) -> Option<&mut EnclaveStats> {
        enclave.map(|e| self.enclaves.entry(e).or_default())
    }

    fn violate(&mut self, kind: ViolationKind, enclave: Option<u64>, tsc: u64, detail: String) {
        self.violate_inner(kind, enclave, tsc, detail, false);
    }

    fn violate_inner(
        &mut self,
        kind: ViolationKind,
        enclave: Option<u64>,
        tsc: u64,
        detail: String,
        absence_based: bool,
    ) {
        let window = self.window.iter().copied().collect();
        self.violations.push(Violation {
            kind,
            enclave,
            tsc,
            detail,
            window,
            absence_based,
        });
    }

    fn region_key(e: &TraceEvent) -> (u64, u64) {
        (e.enclave.map_or(0, |id| id + 1), e.a)
    }

    /// Ingest one event. Events must arrive in merged chronological order
    /// (the order [`crate::Recorder::drain`] produces).
    pub fn ingest(&mut self, e: &TraceEvent) {
        let span = self.lane_spans.entry(e.lane).or_insert((e.idx, e.idx, 0));
        *span = (span.0.min(e.idx), span.1.max(e.idx), span.2 + 1);
        self.window.push_back(*e);
        if self.window.len() > WINDOW {
            self.window.pop_front();
        }

        match e.kind {
            EventKind::ExitLeave => {
                let ns = e.a;
                if let Some(s) = self.stats(e.enclave) {
                    s.exit_ns.record(ns);
                }
            }
            EventKind::CmdPost => {
                let idx = self.cmd_order.len();
                self.cmd_order.push(CmdLifecycle {
                    seq: e.a,
                    core: e.b,
                    enclave: e.enclave,
                    post_tsc: e.tsc,
                    nmi_tsc: None,
                    doorbell_tsc: None,
                    harvest_tsc: None,
                    drain_tsc: None,
                    complete_tsc: None,
                    complete_ns: 0,
                    wait_ns: None,
                });
                self.cmds_open.insert((e.a, e.b), idx);
            }
            EventKind::NmiKick => {
                // First kick to the destination core after a post starts
                // that command's synchronous phase.
                for (&(_seq, core), &i) in self.cmds_open.iter() {
                    if core == e.b && self.cmd_order[i].nmi_tsc.is_none() {
                        self.cmd_order[i].nmi_tsc = Some(e.tsc);
                    }
                }
            }
            EventKind::CmdDrain => {
                for (&(_seq, core), &i) in self.cmds_open.iter() {
                    if core == e.lane as u64 && self.cmd_order[i].drain_tsc.is_none() {
                        self.cmd_order[i].drain_tsc = Some(e.tsc);
                    }
                }
            }
            EventKind::CmdDoorbell => {
                // Doorbells carry the exact (seq, dest core) key, so the
                // stitch is precise rather than first-kick-after-post.
                if let Some(&i) = self.cmds_open.get(&(e.a, e.b)) {
                    if self.cmd_order[i].doorbell_tsc.is_none() {
                        self.cmd_order[i].doorbell_tsc = Some(e.tsc);
                    }
                }
            }
            EventKind::CmdHarvest => {
                // Guest-mode drain on the emitting core: attribute to
                // every command still open on that core, like CmdDrain.
                for (&(_seq, core), &i) in self.cmds_open.iter() {
                    if core == e.lane as u64 && self.cmd_order[i].harvest_tsc.is_none() {
                        self.cmd_order[i].harvest_tsc = Some(e.tsc);
                    }
                }
            }
            EventKind::CmdComplete => {
                let key = (e.a, e.lane as u64);
                if let Some(i) = self.cmds_open.remove(&key) {
                    let c = &mut self.cmd_order[i];
                    c.complete_tsc = Some(e.tsc);
                    c.complete_ns = e.b;
                    let ns = cycles_to_ns(e.tsc.saturating_sub(c.post_tsc), self.hz);
                    let (enclave, seq, core, bound) = (c.enclave, c.seq, c.core, CMD_BOUND_NS);
                    if e.b > 0 {
                        if let Some(s) = self.stats(e.enclave.or(enclave)) {
                            s.cmd_latency_ns.record(e.b);
                        }
                    }
                    if ns > bound {
                        self.violate(
                            ViolationKind::CommandStall,
                            enclave.or(e.enclave),
                            e.tsc,
                            format!(
                                "command seq {seq} on core {core} completed after {ns} ns (bound {bound} ns)"
                            ),
                        );
                    }
                } else {
                    self.notes.push(format!(
                        "completion for seq {} on core {} had no observed post",
                        e.a, e.lane
                    ));
                }
            }
            EventKind::CmdWait => {
                if let Some(s) = self.stats(e.enclave) {
                    s.cmd_wait_ns.record(e.b);
                }
                // The wait is on the waited core's lane, so (seq, lane) is
                // its command, as a doorbell's (seq, core) is. It leaves the
                // chain open for the ack: the controller stamps the wait on
                // its own thread, so it can sort before the ack's record.
                let key = (e.a, e.lane as u64);
                let mut cmds = self.cmd_order.iter_mut().rev();
                if let Some(c) = cmds.find(|c| (c.seq, c.core) == key && c.wait_ns.is_none()) {
                    c.wait_ns = Some(e.b);
                }
            }
            EventKind::Grant => {
                // Frame-recycling check: a grant overlapping ANY range
                // still inside its stale-TLB window (reclaimed, shootdown
                // pending) is a protection hole, whichever enclave the
                // frames move between.
                let overlap = self.region_order.iter().find(|r| {
                    r.reclaim_tsc.is_some()
                        && r.synced_tsc.is_none()
                        && e.a < r.start + r.len
                        && r.start < e.a + e.b
                });
                if let Some(r) = overlap {
                    let detail = format!(
                        "grant [{:#x}+{:#x}) overlaps reclaimed range [{:#x}+{:#x}) before its shootdown completed",
                        e.a, e.b, r.start, r.len
                    );
                    self.violate(ViolationKind::UseAfterReclaim, e.enclave, e.tsc, detail);
                }
                let idx = self.region_order.len();
                self.region_order.push(RegionLifecycle {
                    enclave: e.enclave,
                    start: e.a,
                    len: e.b,
                    grant_tsc: Some(e.tsc),
                    reclaim_tsc: None,
                    synced_tsc: None,
                });
                self.regions.insert(Self::region_key(e), idx);
            }
            EventKind::Reclaim => {
                let key = Self::region_key(e);
                match self.regions.get(&key) {
                    Some(&i) if self.region_order[i].reclaim_tsc.is_none() => {
                        self.region_order[i].reclaim_tsc = Some(e.tsc);
                        self.region_order[i].len = self.region_order[i].len.max(e.b);
                    }
                    _ => {
                        // Reclaim of a region granted before the capture
                        // (or re-reclaim): open a grant-less lifecycle.
                        let idx = self.region_order.len();
                        self.region_order.push(RegionLifecycle {
                            enclave: e.enclave,
                            start: e.a,
                            len: e.b,
                            grant_tsc: None,
                            reclaim_tsc: Some(e.tsc),
                            synced_tsc: None,
                        });
                        self.regions.insert(key, idx);
                    }
                }
            }
            EventKind::ShootdownEnd => {
                // A shootdown completion closes the stale window of every
                // pending reclaim it covers: all of its enclave's, or all
                // pending ones when untagged (conservative).
                if let Some(s) = self.stats(e.enclave) {
                    s.shootdown_rtt_ns.record(e.a);
                }
                for r in self.region_order.iter_mut() {
                    let same = e.enclave.is_none() || r.enclave == e.enclave;
                    if same && r.reclaim_tsc.is_some() && r.synced_tsc.is_none() {
                        r.synced_tsc = Some(e.tsc);
                    }
                }
            }
            EventKind::FaultReport => {
                self.faulted.entry(e.a).or_insert(e.tsc);
                let enclave = Some(e.a);
                if let Some(s) = self.stats(enclave) {
                    s.faults += 1;
                }
                let detail = format!(
                    "fault-isolation teardown reported for enclave {} on core {}",
                    e.a, e.b
                );
                self.violate(ViolationKind::ProtectionFault, enclave, e.tsc, detail);
            }
            EventKind::Teardown => {
                if let Some(&fault_tsc) = self.faulted.get(&e.a) {
                    let ns = cycles_to_ns(e.tsc.saturating_sub(fault_tsc), self.hz);
                    let stats = self.enclaves.entry(e.a).or_default();
                    stats.fault_to_teardown_ns.get_or_insert(ns);
                } else if !self.shut_down.contains(&e.a) {
                    let detail = format!(
                        "enclave {} torn down with no preceding fault report or shutdown message",
                        e.a
                    );
                    // Absence-based: the fault report or shutdown message
                    // may itself have been dropped.
                    self.violate_inner(
                        ViolationKind::OrphanTeardown,
                        Some(e.a),
                        e.tsc,
                        detail,
                        true,
                    );
                }
            }
            EventKind::CtrlSend | EventKind::CtrlRecv => {
                // The host tags each control channel with its enclave, so
                // a shutdown message legitimizes that enclave's teardown
                // and no other's.
                if let Some(id) = e.enclave.filter(|_| unpack_str(e.a, e.b) == "shutdown") {
                    self.shut_down.insert(id);
                }
            }
            // Pure markers: no lifecycle or invariant keyed off them.
            EventKind::ExitEnter
            | EventKind::EptMap
            | EventKind::ShootdownBegin
            | EventKind::TlbFlushAll
            | EventKind::TlbFlushRange
            | EventKind::XememAttach
            | EventKind::XememDetach
            | EventKind::VectorAlloc
            | EventKind::VectorFree
            | EventKind::PostedHarvest => {}
        }
    }

    /// Close the stream: run end-of-trace checks and the drop-threshold
    /// check, and produce the report.
    pub fn finish(mut self) -> AuditReport {
        // Reservation-index gap ⇒ the ring wrapped mid-capture.
        for (lane, &(lo, hi, seen)) in &self.lane_spans {
            let missing = (hi - lo + 1).saturating_sub(seen);
            if missing > 0 {
                self.dropped += missing;
                self.notes.push(format!(
                    "lane {lane} index gaps: {missing} event(s) missing"
                ));
            }
        }
        let evidence_incomplete = self.dropped > 0;
        let end_tsc = self.window.back().map(|e| e.tsc).unwrap_or(0);

        // Absence-based end-of-trace checks.
        let mut pending: Vec<Violation> = Vec::new();
        for c in self.cmd_order.iter().filter(|c| !c.complete()) {
            pending.push(Violation {
                kind: ViolationKind::CommandStall,
                enclave: c.enclave,
                tsc: c.post_tsc,
                detail: format!(
                    "command seq {} posted to core {} never completed",
                    c.seq, c.core
                ),
                window: Vec::new(),
                absence_based: true,
            });
        }
        let mut stitch_notes: Vec<String> = Vec::new();
        for r in self.region_order.iter().filter(|r| r.synced_tsc.is_none()) {
            match (r.grant_tsc, r.reclaim_tsc) {
                (_, Some(reclaim_tsc)) => pending.push(Violation {
                    kind: ViolationKind::UnsyncedReclaim,
                    enclave: r.enclave,
                    tsc: reclaim_tsc,
                    detail: format!(
                        "reclaimed range [{:#x}+{:#x}) never covered by a shootdown completion",
                        r.start, r.len
                    ),
                    window: Vec::new(),
                    absence_based: true,
                }),
                // Held region: granted, never reclaimed. Nothing pending.
                (Some(_), None) => {}
                // Degenerate stitch: a lapped ring can hand the engine a
                // lifecycle with neither grant nor reclaim timestamp
                // (both events overwritten before the drain). There
                // is no TSC to anchor a violation to and no evidence the
                // reclaim happened inside the capture — never panic or
                // accuse on missing evidence; record what we can't prove.
                (None, None) => stitch_notes.push(format!(
                    "evidence incomplete: range [{:#x}+{:#x}) has no grant or \
                     reclaim timestamp (events dropped before stitching); \
                     stale-window check skipped",
                    r.start, r.len
                )),
            }
        }
        self.notes.extend(stitch_notes);
        self.violations.extend(pending);
        // Demote absence-based findings (including any recorded before
        // the drops became known).
        if evidence_incomplete {
            let (demoted, kept): (Vec<_>, Vec<_>) =
                self.violations.drain(..).partition(|v| v.absence_based);
            self.violations = kept;
            for v in demoted {
                self.notes.push(format!(
                    "demoted ({} dropped events): {}",
                    self.dropped, v.detail
                ));
            }
        }

        // Any drop is loud.
        if evidence_incomplete {
            let detail = format!("capture dropped {} event(s)", self.dropped);
            self.violate(ViolationKind::RingDrops, None, end_tsc, detail);
        }

        AuditReport {
            regions: self.region_order,
            commands: self.cmd_order,
            violations: self.violations,
            notes: self.notes,
            enclaves: self.enclaves,
            evidence_incomplete,
            dropped_events: self.dropped,
            hz: self.hz,
        }
    }
}

/// Convenience: audit a full dump plus the recorder's per-lane drop
/// counters in one call.
pub fn audit_events(hz: u64, events: &[TraceEvent], drops_per_lane: &[u64]) -> AuditReport {
    let mut engine = AuditEngine::new(hz);
    engine.note_lane_drops(drops_per_lane);
    for e in events {
        engine.ingest(e);
    }
    engine.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pack_str;

    const HZ: u64 = 1_000_000_000; // 1 cycle = 1 ns

    fn ev(tsc: u64, lane: u32, idx: u64, kind: EventKind, a: u64, b: u64) -> TraceEvent {
        TraceEvent {
            tsc,
            lane,
            idx,
            kind,
            enclave: None,
            a,
            b,
        }
    }

    fn tagged(mut e: TraceEvent, enclave: u64) -> TraceEvent {
        e.enclave = Some(enclave);
        e
    }

    /// A complete, clean grant → reclaim → shootdown trace for enclave 0.
    fn clean_stream() -> Vec<TraceEvent> {
        vec![
            tagged(ev(100, 2, 0, EventKind::Grant, 0x20_0000, 0x20_0000), 0),
            tagged(ev(200, 2, 1, EventKind::CmdPost, 7, 0), 0),
            ev(210, 2, 2, EventKind::NmiKick, 0, 0),
            tagged(ev(250, 0, 0, EventKind::CmdDrain, 1, 0), 0),
            tagged(ev(300, 0, 1, EventKind::CmdComplete, 7, 100), 0),
            tagged(ev(350, 0, 2, EventKind::CmdWait, 7, 150), 0),
            tagged(ev(400, 2, 3, EventKind::Reclaim, 0x20_0000, 0x20_0000), 0),
            tagged(ev(500, 2, 4, EventKind::ShootdownEnd, 400, 0), 0),
        ]
    }

    #[test]
    fn clean_stream_has_zero_violations_and_complete_lifecycles() {
        let report = audit_events(HZ, &clean_stream(), &[0, 0, 0]);
        assert!(report.ok(), "violations: {:?}", report.violations);
        assert!(!report.evidence_incomplete);
        assert_eq!(report.regions.len(), 1);
        assert!(report.regions[0].complete());
        assert_eq!(report.regions[0].state(), "synced");
        assert_eq!(report.commands.len(), 1);
        assert!(report.commands[0].complete());
        assert_eq!(report.commands[0].nmi_tsc, Some(210));
        assert_eq!(report.commands[0].drain_tsc, Some(250));
        assert_eq!(report.commands[0].wait_ns, Some(150));
        let s = &report.enclaves[&0];
        assert_eq!(s.cmd_wait_ns.count, 1);
        assert_eq!(s.cmd_latency_ns.count, 1);
        assert_eq!(s.shootdown_rtt_ns.count, 1);
        let text = report.render();
        assert!(text.contains("violations: 0"));
        assert!(text.contains("synced"));
    }

    /// Exitless delivery: CmdPost → CmdDoorbell → CmdHarvest →
    /// CmdComplete → CmdWait, with no NmiKick and no VM exit anywhere in
    /// the chain, must stitch to a complete, violation-free lifecycle.
    #[test]
    fn exitless_chain_without_nmi_is_complete() {
        let events = vec![
            tagged(ev(200, 2, 0, EventKind::CmdPost, 7, 0), 0),
            tagged(ev(205, 2, 1, EventKind::CmdDoorbell, 7, 0), 0),
            // Guest core 0 harvests in guest mode (lane = core).
            tagged(ev(240, 0, 0, EventKind::CmdHarvest, 1, 0), 0),
            tagged(ev(260, 0, 1, EventKind::CmdComplete, 7, 60), 0),
            tagged(ev(300, 0, 2, EventKind::CmdWait, 7, 100), 0),
        ];
        let report = audit_events(HZ, &events, &[0, 0, 0]);
        assert!(report.ok(), "violations: {:?}", report.violations);
        assert_eq!(report.commands.len(), 1);
        let c = &report.commands[0];
        assert!(c.complete());
        assert!(c.exitless());
        assert_eq!(c.nmi_tsc, None);
        assert_eq!(c.doorbell_tsc, Some(205));
        assert_eq!(c.harvest_tsc, Some(240));
        assert_eq!(c.complete_tsc, Some(260));
        let text = report.render();
        assert!(text.contains("1 completed (1 exitless)"), "{text}");
        assert!(text.contains("post->doorbell-ns"), "{text}");
        assert!(text.contains("post->harvest-ns"), "{text}");
        assert!(!text.contains("post->nmi-ns"), "{text}");
    }

    /// One broadcast posts the same sequence number to every core. The
    /// first core's wait can return before the second core completes; it
    /// must not close the second core's chain, whose completion (and
    /// latency) would then go unmatched.
    #[test]
    fn wait_attaches_to_the_acked_sibling_not_the_one_in_flight() {
        let events = vec![
            tagged(ev(100, 2, 0, EventKind::CmdPost, 7, 0), 0),
            tagged(ev(110, 2, 1, EventKind::CmdPost, 7, 1), 0),
            tagged(ev(200, 0, 0, EventKind::CmdComplete, 7, 100), 0),
            tagged(ev(210, 0, 1, EventKind::CmdWait, 7, 20), 0),
            tagged(ev(300, 1, 0, EventKind::CmdComplete, 7, 190), 0),
            tagged(ev(310, 1, 1, EventKind::CmdWait, 7, 5), 0),
        ];
        let report = audit_events(HZ, &events, &[0, 0, 0]);
        assert!(report.ok(), "violations: {:?}", report.violations);
        assert!(report.notes.is_empty(), "notes: {:?}", report.notes);
        let by_core = |core| report.commands.iter().find(|c| c.core == core).unwrap();
        assert_eq!(
            (by_core(0).complete_ns, by_core(0).wait_ns),
            (100, Some(20))
        );
        assert_eq!((by_core(1).complete_ns, by_core(1).wait_ns), (190, Some(5)));
        assert_eq!(report.enclaves[&0].cmd_latency_ns.count, 2);
    }

    /// Two cores ack one broadcast's sequence number and the controller's
    /// waits on them return in the opposite order. A wait is on its core's
    /// lane, so each lands on that core's command; matched by sequence
    /// number alone, the two would be swapped.
    #[test]
    fn each_wait_lands_on_the_core_whose_lane_it_is_on() {
        let events = vec![
            tagged(ev(100, 2, 0, EventKind::CmdPost, 7, 0), 0),
            tagged(ev(110, 2, 1, EventKind::CmdPost, 7, 1), 0),
            tagged(ev(200, 1, 0, EventKind::CmdComplete, 7, 90), 0),
            tagged(ev(210, 0, 0, EventKind::CmdComplete, 7, 110), 0),
            tagged(ev(300, 0, 1, EventKind::CmdWait, 7, 200), 0),
            tagged(ev(310, 1, 1, EventKind::CmdWait, 7, 210), 0),
        ];
        let report = audit_events(HZ, &events, &[0, 0, 0]);
        assert!(report.ok(), "violations: {:?}", report.violations);
        assert!(report.notes.is_empty(), "notes: {:?}", report.notes);
        let wait_of = |core| {
            report
                .commands
                .iter()
                .find(|c| c.core == core)
                .unwrap()
                .wait_ns
        };
        assert_eq!((wait_of(0), wait_of(1)), (Some(200), Some(210)));
    }

    /// The controller stamps a wait on its own thread, so the wait can sort
    /// before the ack it followed; the ack still closes the chain.
    #[test]
    fn a_wait_sorted_before_its_ack_leaves_the_ack_to_stitch() {
        let events = vec![
            tagged(ev(100, 2, 0, EventKind::CmdPost, 7, 0), 0),
            tagged(ev(200, 0, 0, EventKind::CmdWait, 7, 30), 0),
            tagged(ev(201, 0, 1, EventKind::CmdComplete, 7, 100), 0),
        ];
        let report = audit_events(HZ, &events, &[0, 0, 0]);
        assert!(report.notes.is_empty(), "notes: {:?}", report.notes);
        let c = &report.commands[0];
        assert_eq!(
            (c.complete_tsc, c.complete_ns, c.wait_ns),
            (Some(201), 100, Some(30))
        );
        assert_eq!(report.enclaves[&0].cmd_latency_ns.count, 1);
    }

    /// Two writers share a core's lane, so its indices can arrive out of
    /// order by timestamp; only an index that never arrives is a gap.
    #[test]
    fn index_gaps_do_not_depend_on_arrival_order() {
        let events = [1, 0, 3].map(|idx| ev(100 + idx, 0, idx, EventKind::TlbFlushRange, 0, 0));
        let report = audit_events(HZ, &events, &[]);
        assert_eq!(report.dropped_events, 1, "notes: {:?}", report.notes);
        assert_eq!(report.notes, ["lane 0 index gaps: 1 event(s) missing"]);
    }

    /// A doorbell chain that escalated (NmiKick present) is still valid
    /// but no longer counts as exitless.
    #[test]
    fn escalated_doorbell_chain_is_not_exitless() {
        let events = vec![
            tagged(ev(200, 2, 0, EventKind::CmdPost, 7, 0), 0),
            tagged(ev(205, 2, 1, EventKind::CmdDoorbell, 7, 0), 0),
            ev(1000, 2, 2, EventKind::NmiKick, 0, 0),
            tagged(ev(1050, 0, 0, EventKind::CmdDrain, 1, 0), 0),
            tagged(ev(1080, 0, 1, EventKind::CmdComplete, 7, 880), 0),
        ];
        let report = audit_events(HZ, &events, &[0, 0, 0]);
        assert!(report.ok(), "violations: {:?}", report.violations);
        let c = &report.commands[0];
        assert!(c.complete());
        assert!(!c.exitless());
        assert_eq!(c.doorbell_tsc, Some(205));
        assert_eq!(c.nmi_tsc, Some(1000));
        assert!(report.render().contains("1 completed (0 exitless)"));
    }

    #[test]
    fn fault_report_is_an_attributed_violation() {
        let events = vec![
            tagged(ev(100, 2, 0, EventKind::FaultReport, 3, 1), 3),
            tagged(ev(200, 2, 1, EventKind::Teardown, 3, 0), 3),
        ];
        let report = audit_events(HZ, &events, &[]);
        assert_eq!(report.violations.len(), 1);
        assert_eq!(report.violations[0].kind, ViolationKind::ProtectionFault);
        assert_eq!(report.violations[0].enclave, Some(3));
        assert!(!report.violations[0].window.is_empty());
        assert_eq!(report.enclaves[&3].faults, 1);
        assert_eq!(report.enclaves[&3].fault_to_teardown_ns, Some(100));
        assert!(report.render().contains("fault->td-ns"));
    }

    #[test]
    fn teardown_without_cause_is_orphan() {
        let events = vec![tagged(ev(100, 2, 0, EventKind::Teardown, 5, 0), 5)];
        let report = audit_events(HZ, &events, &[]);
        assert_eq!(report.violations.len(), 1);
        assert_eq!(report.violations[0].kind, ViolationKind::OrphanTeardown);
        assert_eq!(report.violations[0].enclave, Some(5));
    }

    #[test]
    fn shutdown_message_legitimizes_teardown() {
        let (a, b) = pack_str("shutdown");
        let mut events = vec![
            tagged(ev(50, 2, 0, EventKind::CtrlSend, a, b), 5),
            tagged(ev(100, 2, 1, EventKind::Teardown, 5, 0), 5),
        ];
        let report = audit_events(HZ, &events, &[]);
        assert!(report.ok(), "violations: {:?}", report.violations);
        // Enclave 5's shutdown does not excuse enclave 6's teardown.
        events.push(tagged(ev(150, 2, 2, EventKind::Teardown, 6, 0), 6));
        let report = audit_events(HZ, &events, &[]);
        assert_eq!(report.violations.len(), 1);
        assert_eq!(report.violations[0].kind, ViolationKind::OrphanTeardown);
        assert_eq!(report.violations[0].enclave, Some(6));
    }

    #[test]
    fn grant_inside_stale_window_violates() {
        let events = vec![
            tagged(ev(100, 2, 0, EventKind::Reclaim, 0x20_0000, 0x20_0000), 0),
            // Frames recycled to enclave 1 before the shootdown completed.
            tagged(ev(150, 2, 1, EventKind::Grant, 0x30_0000, 0x20_0000), 1),
            tagged(ev(200, 2, 2, EventKind::ShootdownEnd, 100, 0), 0),
        ];
        let report = audit_events(HZ, &events, &[]);
        assert_eq!(report.violations.len(), 1);
        assert_eq!(report.violations[0].kind, ViolationKind::UseAfterReclaim);
        assert_eq!(report.violations[0].enclave, Some(1));
        // The same grant after the shootdown is clean.
        let events = vec![
            tagged(ev(100, 2, 0, EventKind::Reclaim, 0x20_0000, 0x20_0000), 0),
            tagged(ev(200, 2, 1, EventKind::ShootdownEnd, 100, 0), 0),
            tagged(ev(250, 2, 2, EventKind::Grant, 0x30_0000, 0x20_0000), 1),
        ];
        let report = audit_events(HZ, &events, &[]);
        assert!(report.ok());
    }

    #[test]
    fn unfinished_command_and_reclaim_violate_when_evidence_complete() {
        let events = vec![
            tagged(ev(100, 2, 0, EventKind::CmdPost, 9, 1), 0),
            tagged(ev(200, 2, 1, EventKind::Reclaim, 0x20_0000, 0x20_0000), 0),
        ];
        let report = audit_events(HZ, &events, &[]);
        let kinds: Vec<_> = report.violations.iter().map(|v| v.kind).collect();
        assert!(kinds.contains(&ViolationKind::CommandStall));
        assert!(kinds.contains(&ViolationKind::UnsyncedReclaim));
    }

    /// Drops demote the absence-based findings to notes, and are
    /// themselves the one violation.
    #[test]
    fn drops_demote_absence_checks_and_are_a_violation() {
        let events = vec![
            tagged(ev(100, 2, 0, EventKind::CmdPost, 9, 1), 0),
            tagged(ev(200, 2, 1, EventKind::Reclaim, 0x20_0000, 0x20_0000), 0),
        ];
        let report = audit_events(HZ, &events, &[0, 0, 7]);
        assert!(report.evidence_incomplete);
        assert_eq!(report.dropped_events, 7);
        assert!(report.notes.iter().any(|n| n.contains("demoted")));
        let kinds: Vec<_> = report.violations.iter().map(|v| v.kind).collect();
        assert_eq!(kinds, [ViolationKind::RingDrops]);
    }

    #[test]
    fn index_gap_detected_midstream() {
        let events = vec![
            tagged(ev(100, 2, 0, EventKind::CmdPost, 9, 1), 0),
            tagged(ev(200, 2, 5, EventKind::CmdComplete, 9, 10), 0), // idx jumped 0 -> 5
        ];
        // The completion is on lane 2 keyed to core 1 ⇒ no match; with the
        // gap the engine must demote the stall instead of asserting it.
        let report = audit_events(HZ, &events, &[]);
        assert!(report.evidence_incomplete);
        assert_eq!(report.dropped_events, 4);
        let kinds: Vec<_> = report.violations.iter().map(|v| v.kind).collect();
        assert_eq!(kinds, [ViolationKind::RingDrops]);
    }

    #[test]
    fn command_over_bound_is_a_stall_even_with_drops() {
        // Completed 2 s after its post, past the 1 s bound.
        let events = vec![
            tagged(ev(1_000, 2, 0, EventKind::CmdPost, 9, 1), 0),
            tagged(ev(2_000_001_000, 1, 0, EventKind::CmdComplete, 9, 0), 0),
        ];
        let report = audit_events(HZ, &events, &[0, 5]);
        // Presence-based: the over-bound completion was observed, so it is
        // NOT demoted by the incomplete evidence.
        let kinds: Vec<_> = report.violations.iter().map(|v| v.kind).collect();
        assert_eq!(
            kinds,
            [ViolationKind::CommandStall, ViolationKind::RingDrops]
        );
        assert!(report.violations[0].detail.contains("bound"));
    }

    #[test]
    fn a_shootdown_closes_all_pending_reclaims() {
        let events = vec![
            tagged(ev(100, 2, 0, EventKind::Grant, 0x20_0000, 0x20_0000), 0),
            tagged(ev(110, 2, 1, EventKind::Grant, 0x40_0000, 0x20_0000), 0),
            tagged(ev(200, 2, 2, EventKind::Reclaim, 0x20_0000, 0x20_0000), 0),
            tagged(ev(210, 2, 3, EventKind::Reclaim, 0x40_0000, 0x20_0000), 0),
            tagged(ev(300, 2, 4, EventKind::ShootdownEnd, 200, 0), 0),
        ];
        let report = audit_events(HZ, &events, &[]);
        assert!(report.ok());
        assert_eq!(report.regions.len(), 2);
        assert!(report.regions.iter().all(|r| r.complete()));
        assert!(report.regions.iter().all(|r| r.synced_tsc == Some(300)));
    }

    #[test]
    fn render_is_stable_for_empty_input() {
        let report = audit_events(HZ, &[], &[]);
        assert!(report.ok());
        let text = report.render();
        assert!(text.contains("(none observed)"));
        assert!(text.contains("(no enclave-attributed events)"));
    }

    /// Regression: `render()` unwrapped `complete_tsc` inside the
    /// `complete()` filter. A drain-merged chain whose `CmdComplete`
    /// record was lapped by the ring but whose controller `CmdWait`
    /// survived is complete (the wait can only follow the ack) yet has no
    /// `complete_tsc` — rendering such a chain panicked, and the old
    /// `complete()` miscounted it as unfinished.
    #[test]
    fn wait_only_chain_is_complete_and_renders() {
        let mut engine = AuditEngine::new(HZ);
        // The CmdComplete on lane 1 was overwritten before the drain (the
        // one drop below), but the controller's wait returned:
        engine.note_lane_drops(&[0, 1]);
        engine.ingest(&tagged(ev(100, 2, 0, EventKind::CmdPost, 9, 1), 0));
        engine.ingest(&tagged(ev(300, 1, 1, EventKind::CmdWait, 9, 150), 0));
        let report = engine.finish();
        assert!(report.evidence_incomplete);
        assert_eq!(report.dropped_events, 1);
        assert_eq!(report.commands.len(), 1);
        assert!(
            report.commands[0].complete(),
            "a returned wait proves completion"
        );
        assert!(report.commands[0].complete_tsc.is_none());
        let text = report.render(); // panicked before the fix
        assert!(text.contains("1 posted, 1 completed (0 exitless), 0 unfinished"));
        assert!(!report
            .violations
            .iter()
            .any(|v| v.kind == ViolationKind::CommandStall));
    }

    /// Regression: `finish` used to `unwrap()` `reclaim_tsc` on every
    /// unsynced region. A lapped ring can stitch a lifecycle whose grant
    /// AND reclaim events were both dropped — such a region must become
    /// an evidence-incomplete note, not a panic or an accusation.
    #[test]
    fn degenerate_lifecycle_without_reclaim_tsc_is_noted_not_fatal() {
        let mut engine = AuditEngine::new(HZ);
        engine.ingest(&tagged(
            ev(100, 2, 0, EventKind::Grant, 0x10_0000, 0x1000),
            0,
        ));
        // Simulate a lap-stitched region: no timestamps survived.
        engine.region_order.push(RegionLifecycle {
            enclave: Some(1),
            start: 0x40_0000,
            len: 0x2000,
            grant_tsc: None,
            reclaim_tsc: None,
            synced_tsc: None,
        });
        let report = engine.finish(); // must not panic
        assert!(
            !report
                .violations
                .iter()
                .any(|v| v.kind == ViolationKind::UnsyncedReclaim),
            "a timestamp-free region is not evidence of an unsynced reclaim"
        );
        assert!(
            report
                .notes
                .iter()
                .any(|n| n.contains("0x400000") && n.contains("evidence incomplete")),
            "degenerate stitch must be surfaced as a note: {:?}",
            report.notes
        );
        // The well-formed held region stays silent.
        assert!(!report.notes.iter().any(|n| n.contains("0x100000")));
    }
}
