//! Flight recorder for the Covirt control plane.
//!
//! Covirt's evaluation needs *traces* (which event, when, on which core),
//! not just counters: a shootdown storm is explained by the interleaving of
//! controller posts, NMI kicks and per-core flushes, which aggregates
//! cannot show. This crate provides:
//!
//! * a lock-free per-lane **flight recorder** — one fixed-size ring of
//!   compact [`TraceEvent`] records per core (plus one lane for the
//!   controller), written with relaxed atomics behind a single
//!   `enabled` branch so the hot paths pay nothing when tracing is off;
//! * **exporters** ([`export`]) rendering a merged chronological dump as
//!   JSON Lines or chrome://tracing JSON;
//! * a **protection-audit engine** ([`audit`]) that streams a dump
//!   through lifecycle stitching, invariant checkers and per-enclave
//!   attribution, bucketing every latency the events carry into the one
//!   log2 histogram ([`hist`]).
//!
//! The crate holds no counters. Counts live on the component that counts
//! them (`CoreCounters`, `TlbStats`, `ZoneStats`, the controller's
//! shootdown and escalation counts) and are read from there; latencies
//! live in the event stream as payload words, stitched and bucketed once
//! by the audit engine.
//!
//! The crate is a leaf: it knows nothing about the simulated hardware.
//! Callers stamp events with their own TSC (a [`Tracer`] carries a
//! timestamp closure so emit sites stay one-liners).
//!
//! ## Ring protocol
//!
//! Each event lane is one seqlock ring (`seqring.rs`) of four-word
//! records the recorder packs and decodes. Each lane has one *logical*
//! writer (the thread driving that core; the controller gets its own
//! lane), but the ring is robust to concurrent readers and even
//! misbehaving extra writers: slots carry a seqlock-style
//! sequence word (`2*idx + 1` while a write is in flight, `2*idx + 2` once
//! slot content for stream index `idx` is committed). A reader that
//! observes an odd sequence, or a sequence that changed across its payload
//! read, discards the slot — torn records are *detected*, never returned.

pub mod audit;
pub mod export;
pub mod hist;
pub mod profile;
mod seqring;

pub use profile::{Phase, PhaseProfiler, PhaseTracker, ProfileSnapshot};

use seqring::SeqRing;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Default events retained per lane.
pub const DEFAULT_LANE_CAPACITY: usize = 4096;

/// What happened. Payload words `a`/`b` are event-specific; kinds that
/// carry a name (exit reasons, control-channel tags) pack it with
/// [`pack_str`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum EventKind {
    /// VM exit recorded (span begin). `a`,`b`: packed exit-reason name.
    ExitEnter = 1,
    /// VM exit handled, guest re-entered (span end). `a`: handle ns,
    /// `b`: unused (0).
    ExitLeave = 2,
    /// Command posted to a core's queue. `a`: seq, `b`: target core.
    CmdPost = 3,
    /// Hypervisor drained its queue. `a`: commands drained, `b`: unused (0).
    CmdDrain = 4,
    /// Command executed + acknowledged. `a`: seq, `b`: post→complete ns
    /// (0 when the poster's recorder was off).
    CmdComplete = 5,
    /// Controller finished waiting on a core's completion; on that core's
    /// lane, not the controller's. `a`: seq, `b`: wait ns.
    CmdWait = 6,
    /// NMI kick sent. `a`: sender core, `b`: destination core.
    NmiKick = 7,
    /// Full TLB flush executed. `a`,`b`: unused (0).
    TlbFlushAll = 8,
    /// Single-page TLB invalidation. `a`: gva, `b`: unused (0).
    TlbFlushPage = 9,
    /// Ranged TLB invalidation. `a`: gva, `b`: len.
    TlbFlushRange = 10,
    /// EPT mapping installed. `a`: start, `b`: len.
    EptMap = 11,
    /// EPT mapping removed. `a`: start, `b`: len.
    EptUnmap = 12,
    /// Memory granted to the enclave. `a`: start, `b`: len.
    Grant = 13,
    /// Memory reclaimed (unmapped, shootdown issued/deferred). `a`: start,
    /// `b`: len.
    Reclaim = 14,
    /// Broadcast shootdown phase 1 begins (span begin). `a`: ranges,
    /// `b`: 1 if range-flush commands were selected, else 0.
    ShootdownBegin = 15,
    /// Broadcast shootdown fully acknowledged (span end). `a`: rtt ns,
    /// `b`: unused (0).
    ShootdownEnd = 16,
    /// XEMEM segment attached. `a`: start, `b`: len.
    XememAttach = 17,
    /// XEMEM segment detached. `a`: start, `b`: len.
    XememDetach = 18,
    /// IPI vector whitelisted. `a`: vector, `b`: unused (0).
    VectorAlloc = 19,
    /// IPI vector revoked. `a`: vector, `b`: unused (0).
    VectorFree = 20,
    /// Enclave virtualization context torn down. `a`: enclave id,
    /// `b`: unused (0).
    Teardown = 21,
    /// Fault-isolation teardown reported. `a`: enclave id, `b`: core.
    FaultReport = 22,
    /// Control-channel message sent. `a`,`b`: packed message tag.
    CtrlSend = 23,
    /// Control-channel message received. `a`,`b`: packed message tag.
    CtrlRecv = 24,
    /// Posted-interrupt vectors harvested exit-lessly. `a`: count,
    /// `b`: unused (0).
    PostedHarvest = 25,
    /// Command doorbell posted into a core's posted-interrupt descriptor
    /// (exitless delivery; no NMI sent). `a`: sequence number of the
    /// command the doorbell signals, `b`: destination core.
    CmdDoorbell = 26,
    /// Command queue drained in guest mode after a doorbell harvest — no
    /// VM exit involved. `a`: commands drained, `b`: unused (0).
    CmdHarvest = 27,
}

impl EventKind {
    /// Every kind, for decoders and summaries.
    pub const ALL: [EventKind; 27] = [
        EventKind::ExitEnter,
        EventKind::ExitLeave,
        EventKind::CmdPost,
        EventKind::CmdDrain,
        EventKind::CmdComplete,
        EventKind::CmdWait,
        EventKind::NmiKick,
        EventKind::TlbFlushAll,
        EventKind::TlbFlushPage,
        EventKind::TlbFlushRange,
        EventKind::EptMap,
        EventKind::EptUnmap,
        EventKind::Grant,
        EventKind::Reclaim,
        EventKind::ShootdownBegin,
        EventKind::ShootdownEnd,
        EventKind::XememAttach,
        EventKind::XememDetach,
        EventKind::VectorAlloc,
        EventKind::VectorFree,
        EventKind::Teardown,
        EventKind::FaultReport,
        EventKind::CtrlSend,
        EventKind::CtrlRecv,
        EventKind::PostedHarvest,
        EventKind::CmdDoorbell,
        EventKind::CmdHarvest,
    ];

    /// Stable wire/display name.
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::ExitEnter => "exit_enter",
            EventKind::ExitLeave => "exit_leave",
            EventKind::CmdPost => "cmd_post",
            EventKind::CmdDrain => "cmd_drain",
            EventKind::CmdComplete => "cmd_complete",
            EventKind::CmdWait => "cmd_wait",
            EventKind::NmiKick => "nmi_kick",
            EventKind::TlbFlushAll => "tlb_flush_all",
            EventKind::TlbFlushPage => "tlb_flush_page",
            EventKind::TlbFlushRange => "tlb_flush_range",
            EventKind::EptMap => "ept_map",
            EventKind::EptUnmap => "ept_unmap",
            EventKind::Grant => "grant",
            EventKind::Reclaim => "reclaim",
            EventKind::ShootdownBegin => "shootdown_begin",
            EventKind::ShootdownEnd => "shootdown_end",
            EventKind::XememAttach => "xemem_attach",
            EventKind::XememDetach => "xemem_detach",
            EventKind::VectorAlloc => "vector_alloc",
            EventKind::VectorFree => "vector_free",
            EventKind::Teardown => "teardown",
            EventKind::FaultReport => "fault_report",
            EventKind::CtrlSend => "ctrl_send",
            EventKind::CtrlRecv => "ctrl_recv",
            EventKind::PostedHarvest => "posted_harvest",
            EventKind::CmdDoorbell => "cmd_doorbell",
            EventKind::CmdHarvest => "cmd_harvest",
        }
    }

    /// Whether `a`/`b` carry a [`pack_str`]-packed name.
    pub fn carries_name(&self) -> bool {
        matches!(
            self,
            EventKind::ExitEnter | EventKind::CtrlSend | EventKind::CtrlRecv
        )
    }

    fn from_u8(v: u8) -> Option<EventKind> {
        EventKind::ALL.get(v.wrapping_sub(1) as usize).copied()
    }
}

/// Pack up to 16 bytes of a name into two payload words (little-endian,
/// zero-padded) so events can carry `&'static str` identities without the
/// recorder knowing the namespace.
pub fn pack_str(s: &str) -> (u64, u64) {
    let mut buf = [0u8; 16];
    let bytes = s.as_bytes();
    let n = bytes.len().min(16);
    buf[..n].copy_from_slice(&bytes[..n]);
    (
        u64::from_le_bytes(buf[..8].try_into().unwrap()),
        u64::from_le_bytes(buf[8..].try_into().unwrap()),
    )
}

/// Inverse of [`pack_str`].
pub fn unpack_str(a: u64, b: u64) -> String {
    let mut buf = [0u8; 16];
    buf[..8].copy_from_slice(&a.to_le_bytes());
    buf[8..].copy_from_slice(&b.to_le_bytes());
    let end = buf.iter().position(|&c| c == 0).unwrap_or(16);
    String::from_utf8_lossy(&buf[..end]).into_owned()
}

/// Convert simulated-TSC cycles to nanoseconds at `hz` (split to avoid
/// overflow on large cycle counts).
pub fn cycles_to_ns(cycles: u64, hz: u64) -> u64 {
    if hz == 0 {
        return cycles;
    }
    let secs = cycles / hz;
    let rem = cycles % hz;
    secs * 1_000_000_000 + rem * 1_000_000_000 / hz
}

/// Enclave-attribution tags ride in the high 24 bits of a slot's meta
/// word; ids at or above this alias to the max tag (never hit in practice
/// — enclave ids are small and sequential).
const ENCLAVE_TAG_MAX: u64 = (1 << 24) - 1;

#[inline]
fn enclave_tag(enclave: Option<u64>) -> u64 {
    match enclave {
        Some(id) => id.saturating_add(1).min(ENCLAVE_TAG_MAX),
        None => 0,
    }
}

/// One flight-recorder record: 40 bytes of payload, no pointers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Simulated-TSC timestamp.
    pub tsc: u64,
    /// Lane (== core id; the last lane is the controller's).
    pub lane: u32,
    /// Position in the lane's event stream (monotonic per lane; survives
    /// wraparound, so dumps expose how many events were overwritten).
    pub idx: u64,
    /// What happened.
    pub kind: EventKind,
    /// The enclave this event is attributed to, when the emitter tagged
    /// one (see [`Tracer::with_enclave`] / [`Tracer::emit_for`]).
    pub enclave: Option<u64>,
    /// First payload word.
    pub a: u64,
    /// Second payload word.
    pub b: u64,
}

/// Decode one lane record (TSC, meta, `a`, `b`); `None` when the kind byte
/// is unknown. Meta is kind (low 8 bits) | lane (bits 8..40) | enclave tag
/// (bits 40..64, `enclave_id + 1`, 0 = unattributed).
fn decode((idx, [tsc, meta, a, b]): (u64, [u64; 4])) -> Option<TraceEvent> {
    let tag = meta >> 40;
    Some(TraceEvent {
        tsc,
        lane: (meta >> 8) as u32,
        idx,
        kind: EventKind::from_u8(meta as u8)?,
        enclave: (tag != 0).then(|| tag - 1),
        a,
        b,
    })
}

/// The flight recorder: one ring per lane, plus the phase profiler that
/// shares the lane layout.
pub struct Recorder {
    enabled: AtomicBool,
    lanes: Vec<SeqRing>,
    profile: Arc<profile::PhaseProfiler>,
}

impl Recorder {
    /// A recorder with `lanes` rings of `capacity` events each (rounded up
    /// to a power of two). Tracing starts disabled.
    pub fn new(lanes: usize, capacity: usize) -> Arc<Recorder> {
        let lanes = lanes.max(1);
        let capacity = capacity.max(2).next_power_of_two();
        Arc::new(Recorder {
            enabled: AtomicBool::new(false),
            lanes: (0..lanes).map(|_| SeqRing::new(capacity)).collect(),
            profile: profile::PhaseProfiler::new(lanes),
        })
    }

    /// The phase profiler sharing this recorder's lane layout. Gated
    /// independently of tracing (`PhaseProfiler::set_enabled`), so cycle
    /// accounting can run with the event rings off and vice versa.
    pub fn profiler(&self) -> &Arc<profile::PhaseProfiler> {
        &self.profile
    }

    /// Whether tracing is on — the one branch the hot paths pay.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turn tracing on or off at runtime.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Release);
    }

    /// Number of lanes (cores + 1 controller lane by convention).
    pub fn lane_count(&self) -> usize {
        self.lanes.len()
    }

    /// The controller's lane (last, by convention).
    pub fn controller_lane(&self) -> u32 {
        (self.lanes.len() - 1) as u32
    }

    /// Emit one event if tracing is enabled. Out-of-range lanes clamp to
    /// the last (controller) lane.
    #[inline]
    pub fn emit(&self, lane: u32, kind: EventKind, tsc: u64, a: u64, b: u64) {
        self.emit_tagged(lane, None, kind, tsc, a, b);
    }

    /// [`Recorder::emit`] with an enclave-attribution tag packed into the
    /// record's meta word (the audit engine keys per-enclave rollups and
    /// lifecycle chains off it).
    #[inline]
    fn emit_tagged(
        &self,
        lane: u32,
        enclave: Option<u64>,
        kind: EventKind,
        tsc: u64,
        a: u64,
        b: u64,
    ) {
        if !self.enabled() {
            return;
        }
        let li = (lane as usize).min(self.lanes.len() - 1);
        let meta = kind as u64 | ((lane as u64) << 8) | (enclave_tag(enclave) << 40);
        self.lanes[li].write([tsc, meta, a, b]);
    }

    /// Merged chronological dump across all lanes, sorted by TSC (lane and
    /// stream index break ties deterministically).
    pub fn drain(&self) -> Vec<TraceEvent> {
        let mut all: Vec<TraceEvent> = self
            .lanes
            .iter()
            .flat_map(|l| l.snapshot())
            .filter_map(decode)
            .collect();
        all.sort_by_key(|e| (e.tsc, e.lane, e.idx));
        all
    }

    /// Total events ever emitted (including overwritten ones).
    pub fn emitted(&self) -> u64 {
        self.lanes.iter().map(SeqRing::written).sum()
    }

    /// Events per lane ring (all lanes share one capacity; 0 if the
    /// recorder somehow has no lanes — `drop` accounting must not panic).
    fn lane_capacity(&self) -> u64 {
        self.lanes.first().map_or(0, SeqRing::capacity)
    }

    /// Events ever emitted on one lane (including overwritten ones).
    fn lane_emitted(&self, lane: u32) -> u64 {
        self.lanes.get(lane as usize).map_or(0, SeqRing::written)
    }

    /// Events a lane's ring has overwritten (dropped from any future
    /// dump): everything emitted beyond the ring's capacity.
    fn lane_dropped(&self, lane: u32) -> u64 {
        self.lane_emitted(lane).saturating_sub(self.lane_capacity())
    }

    /// Overwritten (dropped) events summed across all lanes.
    pub fn dropped(&self) -> u64 {
        (0..self.lanes.len() as u32)
            .map(|l| self.lane_dropped(l))
            .sum()
    }

    /// Per-lane dropped-event counts, in lane order.
    pub fn drops_per_lane(&self) -> Vec<u64> {
        (0..self.lanes.len() as u32)
            .map(|l| self.lane_dropped(l))
            .collect()
    }
}

/// A cheap per-call-site handle: recorder + lane + timestamp source. The
/// closure indirection only runs when tracing is enabled — `emit` checks
/// the flag before taking a timestamp.
#[derive(Clone)]
pub struct Tracer {
    rec: Arc<Recorder>,
    lane: u32,
    /// Default enclave attribution for every emit (None = untagged).
    enclave: Option<u64>,
    now: Arc<dyn Fn() -> u64 + Send + Sync>,
}

impl Tracer {
    /// A tracer stamping events for `lane` with timestamps from `now`.
    pub fn new(rec: Arc<Recorder>, lane: u32, now: Arc<dyn Fn() -> u64 + Send + Sync>) -> Tracer {
        Tracer {
            rec,
            lane,
            enclave: None,
            now,
        }
    }

    /// Tag every event this tracer emits with an enclave id, so the audit
    /// engine can attribute exits, commands and shootdowns per enclave.
    pub fn with_enclave(mut self, enclave: u64) -> Tracer {
        self.enclave = Some(enclave);
        self
    }

    /// The enclave this tracer attributes events to, if any.
    pub fn enclave(&self) -> Option<u64> {
        self.enclave
    }

    /// The recorder behind this tracer.
    pub fn recorder(&self) -> &Arc<Recorder> {
        &self.rec
    }

    /// Whether tracing is on (hot-path gate).
    #[inline]
    pub fn enabled(&self) -> bool {
        self.rec.enabled()
    }

    /// Emit with a timestamp from the tracer's clock.
    #[inline]
    pub fn emit(&self, kind: EventKind, a: u64, b: u64) {
        if self.rec.enabled() {
            self.rec
                .emit_tagged(self.lane, self.enclave, kind, (self.now)(), a, b);
        }
    }

    /// Emit attributed to an explicit enclave, overriding the tracer's
    /// default tag — for shared call sites (controller hooks) that serve
    /// many enclaves through one tracer.
    #[inline]
    pub fn emit_for(&self, enclave: u64, kind: EventKind, a: u64, b: u64) {
        if self.rec.enabled() {
            self.rec
                .emit_tagged(self.lane, Some(enclave), kind, (self.now)(), a, b);
        }
    }

    /// [`Tracer::emit`] on `lane` instead of the tracer's own: for an event
    /// about a core that another thread observes (the controller's wait on
    /// a core's ack goes on that core's lane).
    #[inline]
    pub fn emit_on(&self, lane: u32, kind: EventKind, a: u64, b: u64) {
        if self.rec.enabled() {
            self.rec
                .emit_tagged(lane, self.enclave, kind, (self.now)(), a, b);
        }
    }

    /// Emit with a caller-supplied timestamp (e.g. the exit-info TSC).
    #[inline]
    pub fn emit_at(&self, kind: EventKind, tsc: u64, a: u64, b: u64) {
        self.rec
            .emit_tagged(self.lane, self.enclave, kind, tsc, a, b);
    }

    /// [`Tracer::emit_at`] attributed to an explicit enclave.
    #[inline]
    pub fn emit_at_for(&self, enclave: u64, kind: EventKind, tsc: u64, a: u64, b: u64) {
        self.rec
            .emit_tagged(self.lane, Some(enclave), kind, tsc, a, b);
    }
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Tracer(lane {})", self.lane)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Recorder {
        /// One lane's coherent records, oldest first.
        fn lane_events(&self, lane: u32) -> Vec<TraceEvent> {
            self.lanes[lane as usize]
                .snapshot()
                .into_iter()
                .filter_map(decode)
                .collect()
        }
    }

    fn recorder() -> Arc<Recorder> {
        let r = Recorder::new(3, 16);
        r.set_enabled(true);
        r
    }

    #[test]
    fn disabled_recorder_emits_nothing() {
        let r = Recorder::new(2, 16);
        r.emit(0, EventKind::Grant, 10, 1, 2);
        assert!(r.drain().is_empty());
        assert_eq!(r.emitted(), 0);
    }

    #[test]
    fn events_roundtrip_and_merge_sorted() {
        let r = recorder();
        r.emit(1, EventKind::CmdPost, 30, 7, 1);
        r.emit(0, EventKind::Grant, 10, 0x1000, 0x2000);
        r.emit(2, EventKind::CmdComplete, 20, 7, 900);
        let all = r.drain();
        assert_eq!(all.len(), 3);
        assert_eq!(
            all.iter().map(|e| e.tsc).collect::<Vec<_>>(),
            vec![10, 20, 30]
        );
        assert_eq!(all[0].kind, EventKind::Grant);
        assert_eq!(all[0].a, 0x1000);
        assert_eq!(all[2].lane, 1);
    }

    #[test]
    fn wraparound_keeps_latest_capacity_events() {
        let r = recorder(); // capacity 16 per lane
        for i in 0..40u64 {
            r.emit(0, EventKind::CmdPost, 100 + i, i, 0);
        }
        let events = r.lane_events(0);
        assert_eq!(events.len(), 16);
        assert_eq!(events.first().unwrap().idx, 24);
        assert_eq!(events.last().unwrap().idx, 39);
        assert_eq!(events.last().unwrap().a, 39);
        assert_eq!(r.emitted(), 40);
    }

    #[test]
    fn out_of_range_lane_clamps_to_controller() {
        let r = recorder();
        r.emit(99, EventKind::Teardown, 5, 1, 0);
        // Stored in the last ring, but tagged with the caller's lane id.
        assert_eq!(r.lane_events(2).len(), 1);
        assert_eq!(r.lane_events(2)[0].lane, 99);
    }

    #[test]
    fn pack_unpack_str_roundtrip() {
        for s in ["cpuid", "ept_violation", "a-16-byte-name!!", ""] {
            let (a, b) = pack_str(s);
            assert_eq!(unpack_str(a, b), s[..s.len().min(16)]);
        }
        // Longer than 16 bytes truncates.
        let (a, b) = pack_str("external_interrupt");
        assert_eq!(unpack_str(a, b), "external_interru");
    }

    #[test]
    fn tracer_uses_clock_closure() {
        let r = recorder();
        let t = Tracer::new(Arc::clone(&r), 1, Arc::new(|| 777));
        t.emit(EventKind::NmiKick, 0, 1);
        let e = &r.lane_events(1)[0];
        assert_eq!(e.tsc, 777);
        assert_eq!(e.kind, EventKind::NmiKick);
    }

    #[test]
    fn kind_codes_roundtrip() {
        for k in EventKind::ALL {
            assert_eq!(EventKind::from_u8(k as u8), Some(k));
        }
        assert_eq!(EventKind::from_u8(0), None);
        assert_eq!(EventKind::from_u8(200), None);
    }

    /// The kind→name table must stay exhaustive: `EventKind::name` is a
    /// match without a wildcard (a new kind without a name is a compile
    /// error), `ALL` must enumerate every discriminant contiguously, and
    /// names must be unique, non-empty wire identifiers.
    #[test]
    fn kind_name_table_exhaustive() {
        use std::collections::HashSet;
        // Discriminants are 1..=N with no gaps, in declaration order.
        for (i, k) in EventKind::ALL.iter().enumerate() {
            assert_eq!(*k as u8, (i + 1) as u8, "ALL must match discriminants");
        }
        assert_eq!(
            EventKind::from_u8(EventKind::ALL.len() as u8 + 1),
            None,
            "ALL must cover every defined kind"
        );
        let names: HashSet<&str> = EventKind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(names.len(), EventKind::ALL.len(), "names must be unique");
        for n in names {
            assert!(!n.is_empty());
            assert!(
                n.chars().all(|c| c.is_ascii_lowercase() || c == '_'),
                "{n} is not a wire-safe name"
            );
        }
    }

    #[test]
    fn enclave_tag_roundtrips_through_meta_word() {
        let r = recorder();
        r.emit_tagged(0, Some(0), EventKind::Grant, 10, 1, 2);
        r.emit_tagged(0, Some(41), EventKind::Reclaim, 20, 3, 4);
        r.emit(0, EventKind::CmdPost, 30, 5, 6);
        let evs = r.lane_events(0);
        assert_eq!(evs[0].enclave, Some(0));
        assert_eq!(evs[1].enclave, Some(41));
        assert_eq!(evs[2].enclave, None);
        // Huge ids clamp instead of corrupting lane/kind bits.
        r.emit_tagged(1, Some(u64::MAX), EventKind::Teardown, 40, 0, 0);
        let e = &r.lane_events(1)[0];
        assert_eq!(e.kind, EventKind::Teardown);
        assert_eq!(e.lane, 1);
        assert_eq!(e.enclave, Some(ENCLAVE_TAG_MAX - 1));
    }

    #[test]
    fn tracer_enclave_tagging() {
        let r = recorder();
        let t = Tracer::new(Arc::clone(&r), 1, Arc::new(|| 5)).with_enclave(7);
        assert_eq!(t.enclave(), Some(7));
        t.emit(EventKind::ExitLeave, 100, 0);
        t.emit_for(9, EventKind::Grant, 0x1000, 0x2000);
        t.emit_at(EventKind::CmdDrain, 6, 1, 0);
        t.emit_at_for(9, EventKind::ShootdownBegin, 7, 1, 0);
        let evs = r.lane_events(1);
        assert_eq!(evs[0].enclave, Some(7));
        assert_eq!(evs[1].enclave, Some(9));
        assert_eq!(evs[2].enclave, Some(7));
        assert_eq!(evs[3].enclave, Some(9));
        t.emit_on(0, EventKind::CmdWait, 7, 40);
        let e = &r.lane_events(0)[0];
        assert_eq!((e.lane, e.enclave, e.tsc, e.a), (0, Some(7), 5, 7));
    }

    #[test]
    fn lane_drop_accounting() {
        let r = recorder(); // capacity 16 per lane
        assert_eq!(r.lane_capacity(), 16);
        for i in 0..40u64 {
            r.emit(0, EventKind::CmdPost, 100 + i, i, 0);
        }
        r.emit(1, EventKind::Grant, 1, 0, 0);
        assert_eq!(r.lane_emitted(0), 40);
        assert_eq!(r.lane_dropped(0), 24);
        assert_eq!(r.lane_dropped(1), 0);
        assert_eq!(r.dropped(), 24);
        assert_eq!(r.drops_per_lane(), vec![24, 0, 0]);
    }

    /// Regression: `lane_capacity` indexed `lanes[0]` unconditionally and
    /// panicked on a recorder with no lanes, taking `dropped()` and
    /// `drops_per_lane()` down with it. The constructor clamps to one
    /// lane, so build the degenerate value directly.
    #[test]
    fn zero_lane_recorder_does_not_panic() {
        let r = Recorder {
            enabled: AtomicBool::new(true),
            lanes: Vec::new(),
            profile: profile::PhaseProfiler::new(0),
        };
        assert_eq!(r.lane_capacity(), 0);
        assert_eq!(r.dropped(), 0);
        assert_eq!(r.drops_per_lane(), Vec::<u64>::new());
        assert!(r.drain().is_empty());
    }

    #[test]
    fn constructor_clamps_degenerate_shapes() {
        let r = Recorder::new(0, 0);
        assert_eq!(r.lane_count(), 1);
        assert_eq!(r.lane_capacity(), 2);
        assert_eq!(r.controller_lane(), 0);
        r.set_enabled(true);
        r.emit(0, EventKind::Grant, 1, 2, 3);
        assert_eq!(r.drain().len(), 1);
    }
}
