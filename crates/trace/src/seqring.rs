//! The seqlock ring behind each of the flight recorder's event lanes.
//!
//! A [`SeqRing`] is a fixed, power-of-two number of slots of [`WORDS`]
//! payload words each. A writer reserves stream index `idx` with one
//! `fetch_add`, marks the slot `2*idx + 1` (write in flight), stores the
//! payload with relaxed atomics, and commits with `2*idx + 2`. Payload
//! words are atomics so concurrent read/write stays defined — the
//! sequence word detects (and the readers discard) torn payloads rather
//! than preventing them. Readers never block a writer and never return a
//! record whose sequence was odd or moved across the payload read.
//!
//! The ring stores raw words; the recorder packs and decodes its records.

use std::sync::atomic::{fence, AtomicU64, Ordering};

/// Payload words per record: TSC, meta, `a`, `b`.
const WORDS: usize = 4;

struct Slot {
    seq: AtomicU64,
    words: [AtomicU64; WORDS],
}

/// A lock-free single-lane ring of [`WORDS`]-word records.
pub(crate) struct SeqRing {
    /// Next stream index to write (fetch_add reservation).
    next: AtomicU64,
    slots: Box<[Slot]>,
}

impl SeqRing {
    /// A ring of `capacity` slots; `capacity` must be a power of two.
    ///
    /// The slots come from one zeroed allocation, so a large ring costs
    /// nothing until its pages are written. Built slot by slot, every page
    /// of every lane is touched when a node is created, unless the
    /// optimizer happens to fold the stores into a zeroed allocation: a
    /// paper-testbed node then takes about 2 ms instead of 0.2 ms to build
    /// (2-vCPU x86-64 host, glibc mmap threshold pinned at 32 KiB as
    /// perfbench pins it).
    pub(crate) fn new(capacity: usize) -> Self {
        assert!(capacity.is_power_of_two(), "ring capacity {capacity}");
        let slots = Box::<[Slot]>::new_zeroed_slice(capacity);
        SeqRing {
            next: AtomicU64::new(0),
            // SAFETY: a `Slot` is only `AtomicU64`s, and an `AtomicU64` has
            // the in-memory representation of a `u64`, for which all-zero
            // bytes are a valid value (0), so a zeroed slot is initialised.
            slots: unsafe { slots.assume_init() },
        }
    }

    /// Slots in the ring.
    pub(crate) fn capacity(&self) -> u64 {
        self.slots.len() as u64
    }

    /// Records ever written (including overwritten ones).
    pub(crate) fn written(&self) -> u64 {
        self.next.load(Ordering::Relaxed)
    }

    fn slot(&self, idx: u64) -> &Slot {
        &self.slots[(idx as usize) & (self.slots.len() - 1)]
    }

    /// Append one record, overwriting the oldest when full.
    #[inline]
    pub(crate) fn write(&self, words: [u64; WORDS]) {
        let idx = self.next.fetch_add(1, Ordering::Relaxed);
        let slot = self.slot(idx);
        // Odd = write in flight. The release fence keeps the marker ahead
        // of the payload stores: a reader that loads any of them and then
        // passes its acquire fence re-reads a sequence that has moved.
        slot.seq.store(idx * 2 + 1, Ordering::Release);
        fence(Ordering::Release);
        for (w, v) in slot.words.iter().zip(words) {
            w.store(v, Ordering::Relaxed);
        }
        // Even = committed for stream index `idx`; Release publishes the
        // payload to any reader that acquires this value.
        slot.seq.store(idx * 2 + 2, Ordering::Release);
    }

    /// Read `slot`'s payload if it stays committed under `seq` throughout.
    fn read(slot: &Slot, seq: u64) -> Option<[u64; WORDS]> {
        let words = std::array::from_fn(|i| slot.words[i].load(Ordering::Relaxed));
        // The fence orders the payload loads before the re-check: if seq
        // is unchanged, no writer touched the slot in between and the
        // payload is the one committed under `seq`.
        fence(Ordering::Acquire);
        (slot.seq.load(Ordering::Relaxed) == seq).then_some(words)
    }

    /// Every coherent record currently in the ring as (stream index,
    /// payload), oldest first. Records a concurrent writer is
    /// mid-overwriting are skipped.
    pub(crate) fn snapshot(&self) -> Vec<(u64, [u64; WORDS])> {
        let mut out: Vec<(u64, [u64; WORDS])> = self
            .slots
            .iter()
            .filter_map(|slot| {
                let seq = slot.seq.load(Ordering::Acquire);
                if seq == 0 || seq % 2 == 1 {
                    return None; // empty or write in flight
                }
                Self::read(slot, seq).map(|words| ((seq - 2) / 2, words))
            })
            .collect();
        out.sort_by_key(|r| r.0);
        out
    }
}
