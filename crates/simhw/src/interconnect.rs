//! The interrupt interconnect: how IPIs and NMIs move between cores.
//!
//! Each core owns a mailbox of pending interrupts — a 256-bit IRR-style
//! bitmap for fixed vectors plus an NMI counter. Senders set bits from any
//! thread; the thread driving the destination core *polls* its mailbox at
//! instruction-boundary-like safe points (the exec loop and the hypervisor
//! both do). This mirrors how interrupts are only recognized at instruction
//! boundaries on hardware, and gives the simulator deterministic,
//! race-free delivery semantics.

use crate::error::{HwError, HwResult};
use covirt_trace::{EventKind, Tracer};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// A 256-bit pending-vector bitmap (IRR analogue).
#[derive(Default)]
pub struct VectorBitmap {
    words: [AtomicU64; 4],
}

impl VectorBitmap {
    /// Set a vector's pending bit; returns true if it was newly set.
    #[inline]
    pub fn set(&self, vector: u8) -> bool {
        let w = (vector >> 6) as usize;
        let bit = 1u64 << (vector & 63);
        self.words[w].fetch_or(bit, Ordering::AcqRel) & bit == 0
    }

    /// Test a vector's pending bit.
    #[inline]
    pub fn test(&self, vector: u8) -> bool {
        let w = (vector >> 6) as usize;
        self.words[w].load(Ordering::Acquire) & (1u64 << (vector & 63)) != 0
    }

    /// Clear a vector's pending bit; returns true if it was set.
    #[inline]
    pub fn clear(&self, vector: u8) -> bool {
        let w = (vector >> 6) as usize;
        let bit = 1u64 << (vector & 63);
        self.words[w].fetch_and(!bit, Ordering::AcqRel) & bit != 0
    }

    /// Pop the highest-priority (highest-numbered) pending vector, as the
    /// APIC prioritization rule dictates.
    pub fn pop_highest(&self) -> Option<u8> {
        for w in (0..4).rev() {
            loop {
                let cur = self.words[w].load(Ordering::Acquire);
                if cur == 0 {
                    break;
                }
                let bit = 63 - cur.leading_zeros() as u8;
                let mask = 1u64 << bit;
                if self.words[w].fetch_and(!mask, Ordering::AcqRel) & mask != 0 {
                    return Some((w as u8) * 64 + bit);
                }
                // Lost the race for that bit; retry.
            }
        }
        None
    }

    /// Drain every pending vector, highest first.
    pub fn drain(&self) -> Vec<u8> {
        let mut v = Vec::new();
        while let Some(vec) = self.pop_highest() {
            v.push(vec);
        }
        v
    }

    /// Clear every pending bit without materialising the vector list
    /// (unlike `drain`, no allocation). Bits set by a racing `set` after
    /// the wipe survive; callers that pair this with an outstanding-
    /// notification protocol (see `PostedIntDescriptor`) stay lossless.
    pub fn clear_all(&self) {
        for w in &self.words {
            w.store(0, Ordering::Release);
        }
    }

    /// True if no vector is pending.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|w| w.load(Ordering::Acquire) == 0)
    }
}

/// One core's interrupt mailbox.
#[derive(Default)]
pub struct CoreMailbox {
    /// Pending fixed-vector interrupts.
    pub irr: VectorBitmap,
    /// Pending NMIs (counted — NMIs do not merge at the sender in our model
    /// so the command-queue protocol can rely on one wake-up per signal).
    nmi: AtomicU64,
    /// Total fixed IPIs received (instrumentation).
    pub received: AtomicU64,
}

impl CoreMailbox {
    /// Post a fixed-vector interrupt.
    #[inline]
    pub fn post(&self, vector: u8) {
        self.irr.set(vector);
        self.received.fetch_add(1, Ordering::Relaxed);
    }

    /// Post an NMI.
    #[inline]
    pub fn post_nmi(&self) {
        self.nmi.fetch_add(1, Ordering::AcqRel);
    }

    /// Consume one pending NMI if present.
    #[inline]
    pub fn take_nmi(&self) -> bool {
        self.nmi
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| n.checked_sub(1))
            .is_ok()
    }
}

/// IPI destination addressing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IpiDest {
    /// A single core by (physical) APIC id == core id.
    Core(usize),
    /// Every core except the sender.
    AllExcludingSelf,
    /// Every core including the sender.
    AllIncludingSelf,
}

/// Delivery mode subset used by the stack.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeliveryMode {
    /// Fixed-vector interrupt.
    Fixed(u8),
    /// Non-maskable interrupt (vector field ignored by hardware).
    Nmi,
}

/// The node-wide interconnect routing interrupts to core mailboxes.
pub struct Interconnect {
    mailboxes: Vec<CoreMailbox>,
    /// Flight-recorder handle; NMI kicks emit trace events when set.
    tracer: OnceLock<Tracer>,
}

impl Interconnect {
    /// Build an interconnect for `cores` cores.
    pub fn new(cores: usize) -> Self {
        Interconnect {
            mailboxes: (0..cores).map(|_| CoreMailbox::default()).collect(),
            tracer: OnceLock::new(),
        }
    }

    /// Attach a flight-recorder handle (first call wins).
    pub fn set_tracer(&self, tracer: Tracer) {
        let _ = self.tracer.set(tracer);
    }

    /// Number of cores attached.
    pub fn cores(&self) -> usize {
        self.mailboxes.len()
    }

    /// A core's mailbox.
    pub fn mailbox(&self, core: usize) -> HwResult<&CoreMailbox> {
        self.mailboxes.get(core).ok_or(HwError::NoSuchCore(core))
    }

    /// Route an IPI. `from` is the sending core (used for shorthand
    /// destinations).
    pub fn send(&self, from: usize, dest: IpiDest, mode: DeliveryMode) -> HwResult<()> {
        // NMI kicks are the command queue's doorbell — trace them. Fixed
        // IPIs are the guest's own data plane and stay untraced here.
        if mode == DeliveryMode::Nmi {
            if let Some(t) = self.tracer.get() {
                let d = match dest {
                    IpiDest::Core(c) => c as u64,
                    IpiDest::AllExcludingSelf | IpiDest::AllIncludingSelf => u64::MAX,
                };
                t.emit(EventKind::NmiKick, from as u64, d);
            }
        }
        let deliver = |mb: &CoreMailbox| match mode {
            DeliveryMode::Fixed(v) => mb.post(v),
            DeliveryMode::Nmi => mb.post_nmi(),
        };
        match dest {
            IpiDest::Core(c) => deliver(self.mailbox(c)?),
            IpiDest::AllExcludingSelf => {
                for (i, mb) in self.mailboxes.iter().enumerate() {
                    if i != from {
                        deliver(mb);
                    }
                }
            }
            IpiDest::AllIncludingSelf => {
                for mb in &self.mailboxes {
                    deliver(mb);
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitmap_set_test_clear() {
        let b = VectorBitmap::default();
        assert!(b.set(200));
        assert!(!b.set(200), "second set reports already-pending");
        assert!(b.test(200));
        assert!(b.clear(200));
        assert!(!b.test(200));
        assert!(!b.clear(200));
    }

    #[test]
    fn bitmap_pops_highest_first() {
        let b = VectorBitmap::default();
        b.set(32);
        b.set(255);
        b.set(100);
        assert_eq!(b.pop_highest(), Some(255));
        assert_eq!(b.pop_highest(), Some(100));
        assert_eq!(b.pop_highest(), Some(32));
        assert_eq!(b.pop_highest(), None);
        assert!(b.is_empty());
    }

    #[test]
    fn send_to_single_core() {
        let ic = Interconnect::new(4);
        ic.send(0, IpiDest::Core(2), DeliveryMode::Fixed(0x40))
            .unwrap();
        assert!(ic.mailbox(2).unwrap().irr.test(0x40));
        assert!(ic.mailbox(1).unwrap().irr.is_empty());
    }

    #[test]
    fn broadcast_excluding_self() {
        let ic = Interconnect::new(3);
        ic.send(1, IpiDest::AllExcludingSelf, DeliveryMode::Fixed(0x50))
            .unwrap();
        assert!(ic.mailbox(0).unwrap().irr.test(0x50));
        assert!(!ic.mailbox(1).unwrap().irr.test(0x50));
        assert!(ic.mailbox(2).unwrap().irr.test(0x50));
    }

    #[test]
    fn broadcast_including_self() {
        let ic = Interconnect::new(2);
        ic.send(0, IpiDest::AllIncludingSelf, DeliveryMode::Fixed(0x21))
            .unwrap();
        assert!(ic.mailbox(0).unwrap().irr.test(0x21));
        assert!(ic.mailbox(1).unwrap().irr.test(0x21));
    }

    #[test]
    fn nmi_counted_individually() {
        let ic = Interconnect::new(2);
        ic.send(0, IpiDest::Core(1), DeliveryMode::Nmi).unwrap();
        ic.send(0, IpiDest::Core(1), DeliveryMode::Nmi).unwrap();
        let mb = ic.mailbox(1).unwrap();
        assert!(mb.take_nmi());
        assert!(mb.take_nmi());
        assert!(!mb.take_nmi());
    }

    #[test]
    fn bad_core_rejected() {
        let ic = Interconnect::new(2);
        assert!(matches!(
            ic.send(0, IpiDest::Core(7), DeliveryMode::Fixed(1)),
            Err(HwError::NoSuchCore(7))
        ));
    }

    #[test]
    fn concurrent_senders() {
        use std::sync::Arc;
        let ic = Arc::new(Interconnect::new(1));
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let ic = Arc::clone(&ic);
                std::thread::spawn(move || {
                    for i in 0..64u8 {
                        ic.send(0, IpiDest::Core(0), DeliveryMode::Fixed(t * 64 + i))
                            .unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let drained = ic.mailbox(0).unwrap().irr.drain();
        assert_eq!(drained.len(), 256);
    }
}
