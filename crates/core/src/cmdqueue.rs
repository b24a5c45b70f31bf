//! The hypervisor command queue.
//!
//! "The Covirt hypervisor is managed via a simple command queue between
//! itself and the controller module. Commands are fixed-size messages
//! containing update notifications directing the hypervisor to synchronize
//! part of its local state." Pending commands are signalled by a polled
//! doorbell: the controller posts the command vector into the core's
//! doorbell descriptor, whose outstanding-notification bit the guest checks
//! at every safe point and answers with no VM exit. No interrupt is sent
//! for it. An NMI IPI — which steals no vector from the guest's space — is
//! the fallback for a core that does not answer within the controller's
//! escalation bound; with a bound of zero it goes out with every post,
//! which is the paper's NMI-only protocol.
//!
//! One queue exists per enclave CPU (each hypervisor context is
//! single-core). The queue lives in one frame of the controller's
//! node-lifetime frame pool that no EPT maps, so the co-kernel it commands
//! cannot write it. The frame holds only what the hypervisor reads or
//! writes: the completion word at offset 0, which lets the controller block
//! until a synchronization command has been executed on the core — which
//! is how memory-unmap ordering ("reclamation only occurs after the
//! resources have been fully unmapped") is enforced, up to a deadline —
//! and, from `OFF_RING`, a Pisces [`SharedRing`] of `CMD_SLOTS` commands.
//! A command is one ring slot: eight words holding its sequence number,
//! post TSC, op and two operands.
//!
//! The ring has exactly one producer and one consumer. Several host
//! threads may post to one queue (a reclaim, an XEMEM detach and a
//! termination of the same enclave), so a post holds the queue's host-side
//! producer lock over its push; the lock also guards the sequence counter,
//! which only posters use. The hypervisor is the one consumer and takes no
//! lock. A post to a full ring fails with the same error as a wait that
//! timed out: the core has not taken `CMD_SLOTS` commands.

use covirt_simhw::addr::PhysRange;
use covirt_simhw::backing::Backing;
use covirt_simhw::memory::MemWindow;
use covirt_simhw::paging::PoolFrame;
use covirt_trace::{EventKind, Tracer};
use parking_lot::Mutex;
use pisces::ring::{Batch, RingError, SharedRing, Slot};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Commands per queue.
pub const CMD_SLOTS: u64 = 32;
/// What one drain takes off a queue: at most its `CMD_SLOTS` commands,
/// held inline.
pub type Drained = Batch<SeqCommand, { CMD_SLOTS as usize }>;
/// Offset of the completion counter within the queue region.
pub(crate) const OFF_COMPLETION: u64 = 0;
/// Offset of the ring (its header first) within the queue region: the
/// completion word, which a waiting controller polls, has its line
/// ([`LINE_BYTES`](covirt_simhw::line::LINE_BYTES)) to itself, apart from
/// the cursors and slots every post and drain write.
pub(crate) const OFF_RING: u64 = 128;

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
    /// Flush every translation overlapping a range (a reclaim's shootdown
    /// that leaves unrelated hot entries alive).
    TlbFlushRange {
        /// Start of the range to invalidate.
        gva: u64,
        /// Length of the range in bytes.
        len: u64,
    },
    /// Stop the core for good, reporting nothing: its enclave's teardown.
    Terminate,
    /// Pure barrier: complete without doing anything (used to measure the
    /// queue's round-trip latency in the ablation bench).
    Sync,
}

const OP_FLUSH_ALL: u64 = 1;
const OP_TERMINATE: u64 = 4;
const OP_SYNC: u64 = 5;
const OP_FLUSH_RANGE: u64 = 6;

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
    /// The command as a ring slot: seq, post TSC, op, two operands.
    fn to_slot(self) -> Slot {
        let (op, a, b) = match self.cmd {
            Command::TlbFlushAll => (OP_FLUSH_ALL, 0, 0),
            Command::TlbFlushRange { gva, len } => (OP_FLUSH_RANGE, gva, len),
            Command::Terminate => (OP_TERMINATE, 0, 0),
            Command::Sync => (OP_SYNC, 0, 0),
        };
        [self.seq, self.tsc, op, a, b, 0, 0, 0]
    }

    /// The command a slot holds; `None` for an unknown op.
    fn from_slot(slot: &Slot) -> Option<SeqCommand> {
        let [seq, tsc, op, a, b, ..] = *slot;
        let cmd = match op {
            OP_FLUSH_ALL => Command::TlbFlushAll,
            OP_FLUSH_RANGE => Command::TlbFlushRange { gva: a, len: b },
            OP_TERMINATE => Command::Terminate,
            OP_SYNC => Command::Sync,
            _ => return None,
        };
        Some(SeqCommand { seq, tsc, cmd })
    }
}

/// A core that did not answer its commands: a synchronization wait that
/// ran out of budget, or a post that found the core's ring full. Names the
/// core, the command it did not acknowledge, and how far the core actually
/// got — so controller errors can say *which* CPU is stuck.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FlushTimeout {
    /// The core whose queue this is.
    pub core: u64,
    /// Sequence number that was being waited on; for a full ring, the
    /// oldest command the core has not taken.
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
    /// The completion counter: the queue frame's backing and the word's
    /// offset in it, resolved once at construction.
    completion: (Arc<Backing>, usize),
    /// The core this queue serves: carried into [`FlushTimeout`] errors,
    /// and the lane a wait's trace event goes on.
    core: u64,
    /// Flight-recorder handle; posts and waits emit trace events when set.
    tracer: Option<Tracer>,
    /// What every handle shares besides the queue's memory. The frame goes
    /// back to its pool when the last handle drops — never while one can
    /// still post or drain.
    frame: Arc<QueueFrame>,
}

/// The frame a queue is formatted in, and the lock its producers take.
struct QueueFrame {
    frame: PoolFrame,
    /// The next post's sequence number, held by a post over its push: the
    /// ring takes one producer at a time, and a post the ring refuses
    /// takes no number.
    sequence: Mutex<u64>,
}

impl CmdQueue {
    /// Format a queue at the start of `frame` (controller side, before
    /// boot); the queue owns the frame from here.
    pub fn create(frame: PoolFrame) -> Result<Self, RingError> {
        let window = frame.window();
        let ring_window = Self::ring_window(window)?;
        window
            .write_u64(window.base().add(OFF_COMPLETION), 0)
            .map_err(|_| RingError::Corrupt)?;
        let ring = SharedRing::create(&ring_window, CMD_SLOTS)?;
        let (backing, off) = window.pinned();
        Ok(CmdQueue {
            ring,
            completion: (backing, off + OFF_COMPLETION as usize),
            core: 0,
            tracer: None,
            frame: Arc::new(QueueFrame {
                frame,
                sequence: Mutex::new(1),
            }),
        })
    }

    /// The physical span the queue lives in: its frame.
    pub fn range(&self) -> PhysRange {
        self.frame.frame.window().range()
    }

    /// The part of `window` past the completion word's line, which the
    /// ring gets; a window too short for the line has none.
    fn ring_window(window: &MemWindow) -> Result<MemWindow, RingError> {
        let len = window
            .len()
            .checked_sub(OFF_RING)
            .ok_or(RingError::Corrupt)?;
        window
            .sub(PhysRange::new(window.base().add(OFF_RING), len))
            .map_err(|_| RingError::Corrupt)
    }

    /// Tag the queue with the core it serves (for timeout diagnostics and
    /// the lane of its waits' trace events).
    pub fn with_core(mut self, core: u64) -> Self {
        self.core = core;
        self
    }

    /// Attach a flight-recorder handle (controller side).
    pub fn traced(mut self, tracer: Tracer) -> Self {
        self.tracer = Some(tracer);
        self
    }

    /// Controller: post a command, returning its sequence number. The
    /// caller signals the target core: a doorbell first, an NMI as the
    /// bounded fallback.
    ///
    /// A full ring fails the post, with the core, the oldest command it has
    /// not taken and its completion count, and takes no sequence number:
    /// the core has left `CMD_SLOTS` commands untaken.
    pub fn post(&self, cmd: Command) -> Result<u64, FlushTimeout> {
        self.post_at(cmd, 0)
    }

    /// [`CmdQueue::post`] with an explicit post-time TSC stamp, which the
    /// completing hypervisor uses to report post→complete latency. A zero
    /// stamp disables the measurement for that command.
    pub fn post_at(&self, cmd: Command, tsc: u64) -> Result<u64, FlushTimeout> {
        let seq = {
            let mut next = self.frame.sequence.lock();
            let seq = *next;
            // A push refuses nothing but a full ring.
            if self
                .ring
                .push(SeqCommand { seq, tsc, cmd }.to_slot())
                .is_err()
            {
                return Err(self.stuck(seq.saturating_sub(CMD_SLOTS)));
            }
            *next += 1;
            seq
        };
        if let Some(t) = &self.tracer {
            t.emit(EventKind::CmdPost, seq, self.core);
        }
        Ok(seq)
    }

    /// The error naming this queue's core as stuck on `seq`.
    fn stuck(&self, seq: u64) -> FlushTimeout {
        FlushTimeout {
            core: self.core,
            seq,
            completed: self.completed(),
        }
    }

    /// Hypervisor: drain the pending commands, at most a ring's worth, in
    /// the order they were posted. Allocates nothing: the batch is held
    /// inline. What producers push meanwhile beyond that stays queued for
    /// the next drain (their doorbell comes after their push).
    pub fn drain(&self) -> Drained {
        let mut out = Drained::new();
        for _ in 0..CMD_SLOTS {
            let Ok(slot) = self.ring.pop() else {
                break;
            };
            if let Some(c) = SeqCommand::from_slot(&slot) {
                // At most `CMD_SLOTS` pops: the batch has room.
                let _ = out.push(c);
            }
        }
        out
    }

    /// Hypervisor: mark `seq` (and everything before it) complete. One
    /// atomic max: the counter never moves back.
    pub fn complete(&self, seq: u64) {
        let (backing, off) = &self.completion;
        backing.fetch_max_u64(*off, seq);
    }

    /// Highest completed sequence number.
    #[inline]
    pub fn completed(&self) -> u64 {
        let (backing, off) = &self.completion;
        backing.read_u64_acquire(*off)
    }

    /// Controller: wait until `seq` completes, the core leaves guest mode
    /// or `deadline` passes — the one completion wait.
    ///
    /// `live` says whether the core is still in guest mode. A core that has
    /// left it never runs on what it cached again, so its ack is not needed
    /// and the wait ends `Ok`: a core parked by a fault never acknowledges.
    ///
    /// The wait backs off: the first polls busy-spin (the common case — a
    /// core at a safe point acknowledges within nanoseconds), then yield
    /// the CPU, then short sleeps so a slow core never costs the controller
    /// a saturated CPU. `escalate` is the caller's bounded fallback,
    /// `(bound, kick)`: if the wait is still open `bound` after it began,
    /// `kick` runs — once, never earlier — and the wait goes on. At
    /// `deadline` after it began the wait gives up, and the error names
    /// the stuck core and how far it got.
    ///
    /// The `CmdWait` event goes on the waited core's lane, so the audit
    /// engine matches it to that core's post of `seq`.
    pub fn wait(
        &self,
        seq: u64,
        deadline: Duration,
        mut escalate: Option<(Duration, &dyn Fn())>,
        live: &dyn Fn() -> bool,
    ) -> Result<(), FlushTimeout> {
        const SPIN_POLLS: u64 = 128;
        const YIELD_POLLS: u64 = 4096;
        // Host time: a bound on a silent core must end if modelled time stops.
        let t0 = Instant::now();
        for i in 0u64.. {
            if self.completed() >= seq || !live() {
                if let Some(t) = self.tracer.as_ref().filter(|t| t.enabled()) {
                    let ns = t0.elapsed().as_nanos() as u64;
                    t.emit_on(self.core as u32, EventKind::CmdWait, seq, ns);
                }
                return Ok(());
            }
            let waited = t0.elapsed();
            if waited >= deadline {
                break;
            }
            if let Some((_, kick)) = escalate.take_if(|(bound, _)| waited >= *bound) {
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
        Err(self.stuck(seq))
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
    use covirt_simhw::paging::FramePool;
    use covirt_simhw::topology::ZoneId;

    /// The deadline of a wait that either finds its command complete or is
    /// meant to time out.
    const SHORT: Duration = Duration::from_millis(1);

    fn pool() -> Arc<FramePool> {
        let mem = Arc::new(PhysMemory::new(&[16 * 1024 * 1024]));
        let window = mem
            .alloc_window(ZoneId(0), 4 * PAGE_SIZE_4K, PAGE_SIZE_4K)
            .unwrap();
        Arc::new(FramePool::over(mem, &window))
    }

    /// A flush of the `i`th 4 KiB page.
    fn page_flush(i: u64) -> Command {
        Command::TlbFlushRange {
            gva: i * PAGE_SIZE_4K,
            len: PAGE_SIZE_4K,
        }
    }

    fn queue() -> (Arc<FramePool>, CmdQueue) {
        let pool = pool();
        let q = CmdQueue::create(pool.take_frame().unwrap()).unwrap();
        (pool, q)
    }

    #[test]
    fn roundtrip_all_commands() {
        let (_w, q) = queue();
        let cmds = [
            Command::TlbFlushAll,
            Command::TlbFlushRange {
                gva: 0x40_0000,
                len: 2 * 1024 * 1024,
            },
            Command::Terminate,
            Command::Sync,
        ];
        let mut seqs = Vec::new();
        for c in cmds {
            seqs.push(q.post(c).unwrap());
        }
        assert_eq!(q.pending(), 4);
        let drained = q.drain();
        assert_eq!(drained.len(), 4);
        for (i, d) in drained.iter().enumerate() {
            assert_eq!(d.seq, seqs[i]);
            assert_eq!(d.cmd, cmds[i]);
        }
        assert_eq!(q.pending(), 0);
        // No command has op 2 or 3.
        for op in [2, 3] {
            assert_eq!(SeqCommand::from_slot(&[1, 0, op, 0x1000, 0, 0, 0, 0]), None);
        }
    }

    #[test]
    fn completion_tracking() {
        let (_w, q) = queue();
        let s1 = q.post(Command::Sync).unwrap();
        let s2 = q.post(Command::TlbFlushAll).unwrap();
        assert!(s2 > s1);
        assert!(q.wait(s1, SHORT, None, &|| true).is_err());
        for c in q.drain().iter() {
            q.complete(c.seq);
        }
        assert!(q.wait(s2, SHORT, None, &|| true).is_ok());
        assert_eq!(q.completed(), s2);
    }

    #[test]
    fn timeout_error_names_core_and_progress() {
        let (_w, q) = queue();
        let q = q.with_core(7);
        let s = q.post(Command::Sync).unwrap();
        let err = q.wait(s, SHORT, None, &|| true).unwrap_err();
        assert_eq!(err.core, 7);
        assert_eq!(err.seq, s);
        assert_eq!(err.completed, 0);
        assert!(err.to_string().contains("core 7"));
    }

    /// A core out of guest mode is not waited for, whatever the deadline.
    #[test]
    fn a_wait_on_a_parked_core_ends_ok() {
        let (_w, q) = queue();
        let s = q.post(Command::Sync).unwrap();
        for deadline in [Duration::ZERO, Duration::MAX] {
            assert_eq!(q.wait(s, deadline, None, &|| false), Ok(()));
        }
        assert_eq!(q.completed(), 0, "nothing acknowledged");
    }

    /// A post to a full ring fails, naming the core, the oldest command
    /// it has not taken and its completion count; the ring still drains
    /// whole and in post order, and the next post takes the next sequence
    /// number. The controller is never a second consumer of the ring.
    #[test]
    fn a_post_to_a_full_ring_fails_and_the_ring_drains_whole_and_in_order() {
        let (_w, q) = queue();
        let q = q.with_core(5);
        let cmds: Vec<Command> = (0..CMD_SLOTS)
            .map(|i| match i % 2 {
                0 => Command::Sync,
                _ => page_flush(i),
            })
            .collect();
        let seqs: Vec<u64> = cmds.iter().map(|&c| q.post(c).unwrap()).collect();
        q.complete(seqs[0] - 1);
        for cmd in [Command::Terminate, Command::TlbFlushAll] {
            let err = q.post(cmd).unwrap_err();
            let want = FlushTimeout {
                core: 5,
                seq: seqs[0],
                completed: seqs[0] - 1,
            };
            assert_eq!(err, want);
            assert!(err.to_string().contains("core 5"), "{err}");
        }
        assert_eq!(q.pending(), CMD_SLOTS);

        let drained = q.drain();
        let got: Vec<(u64, Command)> = drained.iter().map(|c| (c.seq, c.cmd)).collect();
        let want: Vec<(u64, Command)> = seqs.iter().copied().zip(cmds.iter().copied()).collect();
        assert_eq!(got, want);
        assert_eq!(q.pending(), 0);
        assert_eq!(q.post(Command::Sync), Ok(seqs[CMD_SLOTS as usize - 1] + 1));
    }

    /// The completion word shares no line with the ring a post writes,
    /// and `complete` lands in the queue frame's word.
    #[test]
    fn the_completion_word_has_its_line() {
        use covirt_simhw::line::{shares_line, LINE_BYTES};
        let ring_header = 32;
        assert!(
            !shares_line(OFF_COMPLETION as usize, 8, OFF_RING as usize, ring_header),
            "the completion word shares a line with the ring's cursors"
        );
        let (_w, q) = queue();
        let (backing, off) = q.frame.frame.window().pinned();
        assert_eq!(off % LINE_BYTES, 0, "the queue frame starts a line");
        q.complete(9);
        assert_eq!(backing.read_u64(off + OFF_COMPLETION as usize), 9);
    }

    #[test]
    fn completion_is_monotonic() {
        let (_w, q) = queue();
        q.complete(5);
        q.complete(3); // out-of-order completion must not regress
        assert_eq!(q.completed(), 5);
    }

    /// The two sides' handles are clones: the ring and the completion
    /// counter are in the region, and posters share one sequence counter.
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
        assert!(q.wait(a, SHORT, None, &|| true).is_ok());
    }

    /// Two host threads posting to one queue at once lose nothing: every
    /// sequence number either got is drained, once, and together they got
    /// the next numbers with no gap. (The ring holds all of a round's
    /// posts.)
    #[test]
    fn concurrent_posters_lose_no_command() {
        const POSTS: usize = 14;
        let (_pool, q) = queue();
        let mut next = 1;
        for round in 0..3_000 {
            let barrier = std::sync::Barrier::new(2);
            let mut posted: Vec<u64> = std::thread::scope(|s| {
                let poster = || {
                    barrier.wait();
                    (0..POSTS)
                        .map(|_| q.post(Command::Sync).unwrap())
                        .collect::<Vec<_>>()
                };
                let threads = [s.spawn(poster), s.spawn(poster)];
                threads
                    .into_iter()
                    .flat_map(|t| t.join().unwrap())
                    .collect()
            });
            let mut drained: Vec<u64> = q.drain().iter().map(|c| c.seq).collect();
            posted.sort_unstable();
            drained.sort_unstable();
            assert_eq!(drained, posted, "round {round}");
            let gap_free: Vec<u64> = (next..next + 2 * POSTS as u64).collect();
            assert_eq!(posted, gap_free, "round {round}");
            next += 2 * POSTS as u64;
        }
    }

    /// A queue is one frame, and the frame stays out of the pool until the
    /// last handle that can still use the queue drops.
    #[test]
    fn the_frame_returns_when_the_last_handle_drops() {
        let (pool, q) = queue();
        assert_eq!(q.range().len, PAGE_SIZE_4K);
        let other = q.clone();
        drop(q);
        assert_eq!(pool.outstanding(), 1, "a clone can still post");
        let seq = other.post(Command::Sync).unwrap();
        assert_eq!(other.drain()[0].seq, seq);
        drop(other);
        assert_eq!(pool.outstanding(), 0);
    }
}
