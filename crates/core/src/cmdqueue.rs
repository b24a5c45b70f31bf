//! The hypervisor command queue.
//!
//! "The Covirt hypervisor is managed via a simple command queue between
//! itself and the controller module. Commands are fixed-size messages
//! containing update notifications directing the hypervisor to synchronize
//! part of its local state." Pending commands are signalled with NMI IPIs
//! so no fixed interrupt vector has to be stolen from the guest's vector
//! space.
//!
//! One queue exists per enclave CPU (each hypervisor context is
//! single-core). The queue lives in shared physical memory inside the
//! enclave's management region; a completion counter lets the controller
//! block until a synchronization command has been executed on the core —
//! which is how memory-unmap ordering ("reclamation only occurs after the
//! resources have been fully unmapped") is enforced.

use covirt_simhw::addr::PhysRange;
use covirt_simhw::memory::MemWindow;
use covirt_trace::{EventKind, Tracer};
use pisces::ring::{RingError, SharedRing};
use pisces::wire::{WireReader, WireWriter};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Fixed command slot size (seq + post-TSC + op + up to two operands).
pub const CMD_SLOT: u64 = 40;
/// Commands per queue.
pub const CMD_SLOTS: u64 = 32;
/// Offset of the completion counter within the queue region.
const OFF_COMPLETION: u64 = 0;
/// Offset of the sequence-number allocator within the queue region.
const OFF_NEXT_SEQ: u64 = 8;
/// Offset of the ring within the queue region.
const OFF_RING: u64 = 64;

/// A command to the hypervisor. Every variant is a *synchronization
/// notification*: the actual configuration change was already made by the
/// controller; the hypervisor only activates it / invalidates caches.
///
/// The flush commands are the only way a core learns that the EPT shrank:
/// each drops what the core cached from it — TLB entries and EPT walk-cache
/// lines, table lines included — not the TLB alone. The LWK identity-maps
/// its assignment, so their guest-virtual addresses are guest-physical too.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Command {
    /// Flush the core's entire TLB and walk cache (EPT mappings shrank).
    TlbFlushAll,
    /// Flush a single page translation.
    TlbFlushPage {
        /// Guest-virtual page to invalidate.
        gva: u64,
    },
    /// Flush every translation overlapping a range (a coalesced reclaim
    /// shootdown that leaves unrelated hot entries alive).
    TlbFlushRange {
        /// Start of the range to invalidate.
        gva: u64,
        /// Length of the range in bytes.
        len: u64,
    },
    /// Re-load the VMCS from memory (controls changed).
    ReloadVmcs,
    /// Terminate the enclave on this core (host-initiated kill).
    Terminate,
    /// Pure barrier: complete without doing anything (used to measure the
    /// queue's round-trip latency in the ablation bench).
    Sync,
}

const OP_FLUSH_ALL: u64 = 1;
const OP_FLUSH_PAGE: u64 = 2;
const OP_RELOAD: u64 = 3;
const OP_TERMINATE: u64 = 4;
const OP_SYNC: u64 = 5;
const OP_FLUSH_RANGE: u64 = 6;

impl Command {
    /// True for TLB-invalidation commands. Any of these is subsumed by a
    /// single `TlbFlushAll`, which is what makes drain-merge coalescing
    /// sound when the ring fills.
    pub fn is_flush(&self) -> bool {
        matches!(
            self,
            Command::TlbFlushAll | Command::TlbFlushPage { .. } | Command::TlbFlushRange { .. }
        )
    }
}

/// A command tagged with its sequence number.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SeqCommand {
    /// Monotonic sequence number (used for completion tracking).
    pub seq: u64,
    /// TSC at post time (0 when the poster's recorder was off); lets the
    /// completing hypervisor report post→complete latency.
    pub tsc: u64,
    /// The command.
    pub cmd: Command,
}

impl SeqCommand {
    fn encode(&self) -> Vec<u8> {
        let mut w = WireWriter::new();
        w.put_u64(self.seq).put_u64(self.tsc);
        match self.cmd {
            Command::TlbFlushAll => {
                w.put_u64(OP_FLUSH_ALL);
            }
            Command::TlbFlushPage { gva } => {
                w.put_u64(OP_FLUSH_PAGE).put_u64(gva);
            }
            Command::TlbFlushRange { gva, len } => {
                w.put_u64(OP_FLUSH_RANGE).put_u64(gva).put_u64(len);
            }
            Command::ReloadVmcs => {
                w.put_u64(OP_RELOAD);
            }
            Command::Terminate => {
                w.put_u64(OP_TERMINATE);
            }
            Command::Sync => {
                w.put_u64(OP_SYNC);
            }
        }
        w.finish()
    }

    fn decode(buf: &[u8]) -> Option<SeqCommand> {
        let mut r = WireReader::new(buf);
        let seq = r.get_u64().ok()?;
        let tsc = r.get_u64().ok()?;
        let op = r.get_u64().ok()?;
        let cmd = match op {
            OP_FLUSH_ALL => Command::TlbFlushAll,
            OP_FLUSH_PAGE => Command::TlbFlushPage {
                gva: r.get_u64().ok()?,
            },
            OP_FLUSH_RANGE => Command::TlbFlushRange {
                gva: r.get_u64().ok()?,
                len: r.get_u64().ok()?,
            },
            OP_RELOAD => Command::ReloadVmcs,
            OP_TERMINATE => Command::Terminate,
            OP_SYNC => Command::Sync,
            _ => return None,
        };
        Some(SeqCommand { seq, tsc, cmd })
    }
}

/// A synchronization wait that ran out of budget: names the core that
/// failed to acknowledge, the sequence number waited for, and how far the
/// core actually got — so controller errors can say *which* CPU is stuck.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FlushTimeout {
    /// The core whose queue this is.
    pub core: u64,
    /// Sequence number that was being waited on.
    pub seq: u64,
    /// Highest sequence number the core had completed at timeout.
    pub completed: u64,
}

impl std::fmt::Display for FlushTimeout {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "core {} did not acknowledge seq {} (completed {})",
            self.core, self.seq, self.completed
        )
    }
}

impl std::error::Error for FlushTimeout {}

/// One per-core command queue over shared physical memory. Cloneable:
/// controller and hypervisor each hold a handle onto the same region (the
/// hypervisor's is a clone taken from the enclave's context at launch).
#[derive(Clone)]
pub struct CmdQueue {
    ring: SharedRing,
    /// Resolved backing + offset of the completion counter, cached at
    /// construction: `completed()` sits in every completion-wait spin and
    /// every harvest, and the queue's region lives as long as the enclave,
    /// so re-resolving per read (bitmap check + `Arc` churn) is pure
    /// overhead on the hottest path of command delivery.
    completion: (Arc<covirt_simhw::backing::Backing>, usize),
    /// Resolved backing + offset of the next-sequence word (same
    /// rationale: `alloc_seq` runs once per post).
    next_seq: (Arc<covirt_simhw::backing::Backing>, usize),
    /// The core this queue serves (diagnostic only; carried into
    /// [`FlushTimeout`] errors).
    core: u64,
    /// Flight-recorder handle; posts and waits emit trace events when set.
    tracer: Option<Tracer>,
}

impl CmdQueue {
    /// Bytes of shared memory one queue needs.
    pub fn required_bytes() -> u64 {
        OFF_RING + SharedRing::required_bytes(CMD_SLOTS, CMD_SLOT)
    }

    /// Format a queue at the start of `window` (controller side, before
    /// boot).
    pub fn create(window: &MemWindow) -> Result<Self, RingError> {
        let ring_window = Self::ring_window(window)?;
        for (off, value) in [(OFF_COMPLETION, 0), (OFF_NEXT_SEQ, 1)] {
            window
                .write_u64(window.base().add(off), value)
                .map_err(|_| RingError::Corrupt)?;
        }
        let ring = SharedRing::create(&ring_window, CMD_SLOTS, CMD_SLOT)?;
        let (backing, off) = window.pinned();
        Ok(CmdQueue {
            ring,
            completion: (Arc::clone(&backing), off + OFF_COMPLETION as usize),
            next_seq: (backing, off + OFF_NEXT_SEQ as usize),
            core: 0,
            tracer: None,
        })
    }

    /// The part of `window` past the two words, which the ring gets; a
    /// window too short for the words has none.
    fn ring_window(window: &MemWindow) -> Result<MemWindow, RingError> {
        let len = window
            .len()
            .checked_sub(OFF_RING)
            .ok_or(RingError::Corrupt)?;
        window
            .sub(PhysRange::new(window.base().add(OFF_RING), len))
            .map_err(|_| RingError::Corrupt)
    }

    /// Tag the queue with the core it serves (for timeout diagnostics).
    pub fn with_core(mut self, core: u64) -> Self {
        self.core = core;
        self
    }

    /// Attach a flight-recorder handle (controller side).
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = Some(tracer);
        self
    }

    /// Push `cmd` under the next sequence number, which is returned.
    fn push(&self, cmd: Command, tsc: u64) -> Result<u64, RingError> {
        // Sequence numbers live in shared memory so any controller thread
        // allocates them consistently.
        let (backing, off) = &self.next_seq;
        let seq = loop {
            let cur = backing.read_u64_acquire(*off);
            if backing.cas_u64(*off, cur, cur + 1).is_ok() {
                break cur;
            }
        };
        self.ring.push(&SeqCommand { seq, tsc, cmd }.encode())?;
        Ok(seq)
    }

    /// Controller: post a command, returning its sequence number. The
    /// caller is responsible for signalling the target core with an NMI.
    ///
    /// A full ring does not fail the caller: pending flush commands are
    /// drained and merged into a single `TlbFlushAll` (see
    /// [`Command::is_flush`]), which both makes room and subsumes the
    /// drained work.
    pub fn post(&self, cmd: Command) -> Result<u64, RingError> {
        self.post_at(cmd, 0)
    }

    /// [`CmdQueue::post`] with an explicit post-time TSC stamp, which the
    /// completing hypervisor uses to report post→complete latency. A zero
    /// stamp disables the measurement for that command.
    pub fn post_at(&self, cmd: Command, tsc: u64) -> Result<u64, RingError> {
        let out = match self.push(cmd, tsc) {
            Err(RingError::Full) => self.post_coalescing(cmd, tsc),
            out => out,
        };
        if let (Ok(seq), Some(t)) = (&out, &self.tracer) {
            t.emit(EventKind::CmdPost, *seq, self.core);
        }
        out
    }

    /// Slow path when the ring is full: drain it, merge every flush-class
    /// command into one `TlbFlushAll`, re-post the rest, then post `cmd`.
    ///
    /// Soundness: flush commands are idempotent and mutually subsumable, so
    /// replacing N of them with one `TlbFlushAll` carrying a *fresh,
    /// maximal* sequence number preserves every waiter's contract — the
    /// completion counter is a monotonic max, so acknowledging the merged
    /// command also acknowledges every drained sequence number below it.
    /// Racing the hypervisor's own drain is harmless for the same reason:
    /// a command observed by both sides executes twice, and every command
    /// in the protocol is idempotent.
    fn post_coalescing(&self, cmd: Command, tsc: u64) -> Result<u64, RingError> {
        let drained = self.drain().into_iter();
        let (flushes, kept): (Vec<_>, Vec<_>) = drained.partition(|c| c.cmd.is_flush());
        for c in &kept {
            self.ring.push(&c.encode())?;
        }
        if cmd.is_flush() {
            // The merged flush covers the drained flushes *and* `cmd`.
            return self.push(Command::TlbFlushAll, tsc);
        }
        if !flushes.is_empty() {
            self.push(Command::TlbFlushAll, 0)?;
        }
        self.push(cmd, tsc)
    }

    /// Hypervisor: drain all pending commands.
    pub fn drain(&self) -> Vec<SeqCommand> {
        let mut out = Vec::new();
        while let Ok(buf) = self.ring.pop() {
            if let Some(c) = SeqCommand::decode(&buf) {
                out.push(c);
            }
        }
        out
    }

    /// Hypervisor: mark `seq` (and everything before it) complete.
    pub fn complete(&self, seq: u64) {
        let (backing, off) = &self.completion;
        // Monotonic max — completions may be recorded out of order if a
        // drain batch is processed back-to-front.
        loop {
            let cur = backing.read_u64_acquire(*off);
            if seq <= cur || backing.cas_u64(*off, cur, seq).is_ok() {
                break;
            }
        }
    }

    /// Highest completed sequence number.
    #[inline]
    pub fn completed(&self) -> u64 {
        let (backing, off) = &self.completion;
        backing.read_u64_acquire(*off)
    }

    /// Controller: wait until `seq` completes or `spins` polls elapse — the
    /// one completion wait.
    ///
    /// The wait escalates: the first polls busy-spin (the common case — a
    /// core at a safe point acknowledges within nanoseconds), then yield
    /// the CPU, then back off with short sleeps so a slow core never costs
    /// the controller a saturated CPU. `escalate` is the caller's bounded
    /// fallback, `(bound, kick)`: if the wait is still open `bound` after it
    /// began, `kick` runs — once, never earlier — and the wait goes on. On
    /// timeout the error names the stuck core and how far it got.
    pub fn wait(
        &self,
        seq: u64,
        spins: u64,
        mut escalate: Option<(Duration, &dyn Fn())>,
    ) -> Result<(), FlushTimeout> {
        const SPIN_POLLS: u64 = 128;
        const YIELD_POLLS: u64 = 4096;
        let t0 = Instant::now();
        for i in 0..=spins {
            if self.completed() >= seq {
                if let Some(t) = self.tracer.as_ref().filter(|t| t.enabled()) {
                    t.emit(EventKind::CmdWait, seq, t0.elapsed().as_nanos() as u64);
                }
                return Ok(());
            }
            if let Some((_, kick)) = escalate.take_if(|(bound, _)| t0.elapsed() >= *bound) {
                kick();
            }
            if i < SPIN_POLLS {
                std::hint::spin_loop();
            } else if i < YIELD_POLLS {
                std::thread::yield_now();
            } else {
                std::thread::sleep(Duration::from_micros(20));
            }
        }
        Err(FlushTimeout {
            core: self.core,
            seq,
            completed: self.completed(),
        })
    }

    /// Pending (unconsumed) command count.
    pub fn pending(&self) -> u64 {
        self.ring.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use covirt_simhw::addr::PAGE_SIZE_4K;
    use covirt_simhw::memory::PhysMemory;
    use covirt_simhw::topology::ZoneId;

    fn queue() -> (MemWindow, CmdQueue) {
        let window = PhysMemory::new(&[16 * 1024 * 1024])
            .alloc_window(ZoneId(0), CmdQueue::required_bytes(), PAGE_SIZE_4K)
            .unwrap();
        let q = CmdQueue::create(&window).unwrap();
        (window, q)
    }

    #[test]
    fn roundtrip_all_commands() {
        let (_w, q) = queue();
        let cmds = [
            Command::TlbFlushAll,
            Command::TlbFlushPage { gva: 0x20_0000 },
            Command::TlbFlushRange {
                gva: 0x40_0000,
                len: 2 * 1024 * 1024,
            },
            Command::ReloadVmcs,
            Command::Terminate,
            Command::Sync,
        ];
        let mut seqs = Vec::new();
        for c in cmds {
            seqs.push(q.post(c).unwrap());
        }
        assert_eq!(q.pending(), 6);
        let drained = q.drain();
        assert_eq!(drained.len(), 6);
        for (i, d) in drained.iter().enumerate() {
            assert_eq!(d.seq, seqs[i]);
            assert_eq!(d.cmd, cmds[i]);
        }
        assert_eq!(q.pending(), 0);
    }

    #[test]
    fn completion_tracking() {
        let (_w, q) = queue();
        let s1 = q.post(Command::Sync).unwrap();
        let s2 = q.post(Command::TlbFlushAll).unwrap();
        assert!(s2 > s1);
        assert!(q.wait(s1, 1, None).is_err());
        for c in q.drain() {
            q.complete(c.seq);
        }
        assert!(q.wait(s2, 1, None).is_ok());
        assert_eq!(q.completed(), s2);
    }

    #[test]
    fn timeout_error_names_core_and_progress() {
        let (_w, q) = queue();
        let q = q.with_core(7);
        let s = q.post(Command::Sync).unwrap();
        let err = q.wait(s, 1, None).unwrap_err();
        assert_eq!(err.core, 7);
        assert_eq!(err.seq, s);
        assert_eq!(err.completed, 0);
        assert!(err.to_string().contains("core 7"));
    }

    #[test]
    fn full_ring_of_flushes_coalesces_instead_of_failing() {
        let (_w, q) = queue();
        // Fill the ring to capacity with flush commands.
        let mut seqs = Vec::new();
        for i in 0..CMD_SLOTS {
            seqs.push(q.post(Command::TlbFlushPage { gva: i * 4096 }).unwrap());
        }
        assert_eq!(q.pending(), CMD_SLOTS);
        // The next post coalesces rather than erroring.
        let merged = q
            .post(Command::TlbFlushRange { gva: 0, len: 4096 })
            .unwrap();
        assert!(merged > *seqs.last().unwrap());
        let drained = q.drain();
        assert_eq!(drained.len(), 1, "flushes must merge into a single command");
        assert_eq!(drained[0].cmd, Command::TlbFlushAll);
        assert_eq!(drained[0].seq, merged);
        // Completing the merged command releases every earlier waiter.
        q.complete(merged);
        for s in seqs {
            assert!(q.wait(s, 1, None).is_ok());
        }
    }

    #[test]
    fn coalescing_preserves_non_flush_commands() {
        let (_w, q) = queue();
        let reload = q.post(Command::ReloadVmcs).unwrap();
        for i in 0..CMD_SLOTS - 1 {
            q.post(Command::TlbFlushPage { gva: i * 4096 }).unwrap();
        }
        assert_eq!(q.pending(), CMD_SLOTS);
        let sync = q.post(Command::Sync).unwrap();
        let drained = q.drain();
        // ReloadVmcs survives with its original seq; the flushes merged;
        // the new Sync landed last.
        assert_eq!(drained.len(), 3);
        assert_eq!(drained[0].cmd, Command::ReloadVmcs);
        assert_eq!(drained[0].seq, reload);
        assert_eq!(drained[1].cmd, Command::TlbFlushAll);
        assert_eq!(drained[2].cmd, Command::Sync);
        assert_eq!(drained[2].seq, sync);
    }

    #[test]
    fn completion_is_monotonic() {
        let (_w, q) = queue();
        q.complete(5);
        q.complete(3); // out-of-order completion must not regress
        assert_eq!(q.completed(), 5);
    }

    /// The two sides' handles are clones: everything they agree on —
    /// ring, completion counter, sequence allocator — is in the region.
    #[test]
    fn clones_share_the_queue_in_memory() {
        let (_w, q) = queue();
        let other = q.clone();
        let a = q.post(Command::Sync).unwrap();
        let b = other.post(Command::Sync).unwrap();
        assert_ne!(a, b);
        let drained = other.drain();
        assert_eq!(drained.len(), 2);
        other.complete(b);
        assert!(q.wait(a, 1, None).is_ok());
    }

    #[test]
    fn undersized_region_rejected() {
        let (window, _q) = queue();
        // alloc rounds to 4 KiB, so make deliberately short sub-windows:
        // one with no room for the ring, one with none for the words.
        for len in [128, 8] {
            let short = window.sub(PhysRange::new(window.base(), len)).unwrap();
            assert!(CmdQueue::create(&short).is_err(), "{len} bytes");
        }
    }
}
