//! Single-producer / single-consumer ring of fixed records in shared
//! physical memory.
//!
//! Pisces' control channels and Covirt's hypervisor command queue are
//! rings of fixed-size messages in memory both sides can write. A record
//! is one [`Slot`] of [`SLOT_WORDS`] 64-bit words, and every access to
//! the ring — header, cursors, slots — is one atomic word load or store:
//!
//! ```text
//! +0   magic
//! +8   slot_count          (power of two)
//! +16  head                (consumer cursor, release-published)
//! +24  tail                (producer cursor, release-published)
//! +64  slot[0] .. slot[n-1], SLOT_WORDS words each
//! ```
//!
//! The other side can write every word, so a handle keeps the count it was
//! made with and a consumer refuses cursors claiming more than it holds.
//!
//! What a consumer takes off a ring in one call goes into a [`Batch`]: at
//! most a ring's worth of records held inline, so draining a ring
//! allocates nothing.

use covirt_simhw::backing::Backing;
use covirt_simhw::memory::MemWindow;
use std::mem::MaybeUninit;
use std::sync::Arc;

/// Words per record.
pub const SLOT_WORDS: usize = 8;
/// One record: 64 bytes, a cache line.
pub type Slot = [u64; SLOT_WORDS];

const SLOT_BYTES: u64 = 8 * SLOT_WORDS as u64;
const MAGIC: u64 = 0x5049_5343_4553_5251; // "PISCESRQ"
const OFF_MAGIC: usize = 0;
const OFF_COUNT: usize = 8;
const OFF_HEAD: usize = 16;
const OFF_TAIL: usize = 24;
const DATA_OFF: usize = 64;

/// Errors from ring operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RingError {
    /// The ring is full (producer side).
    Full,
    /// The ring is empty (consumer side).
    Empty,
    /// The header or a cursor is corrupt, or the region is too small.
    Corrupt,
}

impl std::fmt::Display for RingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            RingError::Full => "ring full",
            RingError::Empty => "ring empty",
            RingError::Corrupt => "ring corrupt",
        };
        f.write_str(s)
    }
}

impl std::error::Error for RingError {}

/// A handle onto a shared-memory ring. Both ends construct a handle over
/// a window onto the same physical range; the type does not enforce which
/// side produces — the *protocol* (one producer, one consumer) does, as in
/// the real system.
#[derive(Clone)]
pub struct SharedRing {
    backing: Arc<Backing>,
    base: usize,
    slot_count: u64,
}

impl SharedRing {
    /// Bytes of shared memory needed for `slot_count` slots.
    pub const fn required_bytes(slot_count: u64) -> u64 {
        DATA_OFF as u64 + slot_count * SLOT_BYTES
    }

    /// Format a fresh ring at the start of `window` and return a handle.
    /// `slot_count` is rounded up to a power of two.
    pub fn create(window: &MemWindow, slot_count: u64) -> Result<Self, RingError> {
        let slot_count = slot_count.max(2).next_power_of_two();
        if Self::required_bytes(slot_count) > window.len() {
            return Err(RingError::Corrupt);
        }
        let (backing, base) = window.pinned();
        backing.write_u64(base + OFF_COUNT, slot_count);
        backing.write_u64(base + OFF_HEAD, 0);
        backing.write_u64(base + OFF_TAIL, 0);
        backing.write_u64_release(base + OFF_MAGIC, MAGIC);
        Ok(SharedRing {
            backing,
            base,
            slot_count,
        })
    }

    /// Attach to a ring previously formatted at the start of `window`,
    /// which it must lie within.
    pub fn attach(window: &MemWindow) -> Result<Self, RingError> {
        let (backing, base) = window.pinned();
        if window.len() < DATA_OFF as u64 || backing.read_u64_acquire(base + OFF_MAGIC) != MAGIC {
            return Err(RingError::Corrupt);
        }
        let slot_count = backing.read_u64(base + OFF_COUNT);
        // The header is writable by the other side: bounds-check the data
        // area it describes without trusting the product not to wrap.
        let fits = slot_count
            .checked_mul(SLOT_BYTES)
            .and_then(|data| data.checked_add(DATA_OFF as u64))
            .is_some_and(|need| need <= window.len());
        if !slot_count.is_power_of_two() || !fits {
            return Err(RingError::Corrupt);
        }
        Ok(SharedRing {
            backing,
            base,
            slot_count,
        })
    }

    /// Capacity in messages.
    pub fn capacity(&self) -> u64 {
        self.slot_count
    }

    fn head(&self) -> u64 {
        self.backing.read_u64_acquire(self.base + OFF_HEAD)
    }

    fn tail(&self) -> u64 {
        self.backing.read_u64_acquire(self.base + OFF_TAIL)
    }

    /// Messages currently queued.
    pub fn len(&self) -> u64 {
        self.tail().wrapping_sub(self.head())
    }

    /// True if no message is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn slot_offset(&self, idx: u64) -> usize {
        self.base + DATA_OFF + ((idx & (self.slot_count - 1)) * SLOT_BYTES) as usize
    }

    /// Producer: enqueue one record.
    pub fn push(&self, slot: Slot) -> Result<(), RingError> {
        let tail = self.tail();
        if tail.wrapping_sub(self.head()) >= self.slot_count {
            return Err(RingError::Full);
        }
        let off = self.slot_offset(tail);
        for (i, word) in slot.into_iter().enumerate() {
            self.backing.write_u64(off + 8 * i, word);
        }
        self.backing
            .write_u64_release(self.base + OFF_TAIL, tail.wrapping_add(1));
        Ok(())
    }

    /// Consumer: dequeue one record. More queued than the ring holds means
    /// the producer's cursor is corrupt: refused, and nothing is consumed.
    pub fn pop(&self) -> Result<Slot, RingError> {
        let head = self.head();
        match self.tail().wrapping_sub(head) {
            0 => return Err(RingError::Empty),
            queued if queued > self.slot_count => return Err(RingError::Corrupt),
            _ => {}
        }
        let off = self.slot_offset(head);
        let slot = std::array::from_fn(|i| self.backing.read_u64(off + 8 * i));
        self.backing
            .write_u64_release(self.base + OFF_HEAD, head.wrapping_add(1));
        Ok(slot)
    }
}

/// Up to `N` records held inline, in the order they were pushed: what one
/// call takes off a ring of at most `N` slots. Reads as a slice.
#[derive(Clone, Copy)]
pub struct Batch<T: Copy, const N: usize> {
    len: usize,
    items: [MaybeUninit<T>; N],
}

impl<T: Copy, const N: usize> Batch<T, N> {
    /// An empty batch.
    pub const fn new() -> Self {
        Batch {
            len: 0,
            items: [MaybeUninit::uninit(); N],
        }
    }

    /// Append `item`, or hand it back when the batch already holds `N`.
    pub fn push(&mut self, item: T) -> Result<(), T> {
        match self.items.get_mut(self.len) {
            Some(slot) => {
                slot.write(item);
                self.len += 1;
                Ok(())
            }
            None => Err(item),
        }
    }
}

impl<T: Copy, const N: usize> Default for Batch<T, N> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Copy, const N: usize> std::ops::Deref for Batch<T, N> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        // SAFETY: the first `len` items were written by `push`, and
        // `MaybeUninit<T>` has `T`'s layout.
        unsafe { std::slice::from_raw_parts(self.items.as_ptr().cast(), self.len) }
    }
}

impl<T: Copy + PartialEq, const N: usize, const M: usize> PartialEq<[T; M]> for Batch<T, N> {
    fn eq(&self, other: &[T; M]) -> bool {
        **self == *other
    }
}

impl<T: Copy + std::fmt::Debug, const N: usize> std::fmt::Debug for Batch<T, N> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use covirt_simhw::addr::{PhysRange, PAGE_SIZE_4K};
    use covirt_simhw::memory::PhysMemory;
    use covirt_simhw::topology::ZoneId;

    fn window(bytes: u64) -> MemWindow {
        PhysMemory::new(&[16 * 1024 * 1024])
            .alloc_window(ZoneId(0), bytes, PAGE_SIZE_4K)
            .unwrap()
    }

    fn setup(slots: u64) -> (MemWindow, SharedRing) {
        let window = window(64 * 1024);
        let ring = SharedRing::create(&window, slots).unwrap();
        (window, ring)
    }

    /// A record whose first word is `v` and whose last is its complement.
    fn slot(v: u64) -> Slot {
        let mut s = [0; SLOT_WORDS];
        s[0] = v;
        s[SLOT_WORDS - 1] = !v;
        s
    }

    /// A batch keeps what it was given, in order, up to its size, and hands
    /// back what does not fit.
    #[test]
    fn a_batch_holds_its_size_in_order() {
        let mut b = Batch::<u64, 3>::new();
        assert!(b.is_empty());
        for v in [7, 8, 9] {
            b.push(v).unwrap();
        }
        assert_eq!(b.push(10), Err(10));
        assert_eq!(*b, [7, 8, 9]);
        assert_eq!(b.iter().rev().copied().collect::<Vec<_>>(), [9, 8, 7]);
        assert_eq!(format!("{b:?}"), "[7, 8, 9]");
    }

    #[test]
    fn push_pop_fifo() {
        let (_w, ring) = setup(8);
        ring.push(slot(1)).unwrap();
        ring.push(slot(2)).unwrap();
        assert_eq!(ring.len(), 2);
        assert_eq!(ring.pop(), Ok(slot(1)));
        assert_eq!(ring.pop(), Ok(slot(2)));
        assert_eq!(ring.pop(), Err(RingError::Empty));
    }

    #[test]
    fn fills_at_capacity() {
        let (_w, ring) = setup(4);
        for i in 0..4u64 {
            ring.push(slot(i)).unwrap();
        }
        assert_eq!(ring.push(slot(9)), Err(RingError::Full));
        ring.pop().unwrap();
        ring.push(slot(9)).unwrap();
    }

    #[test]
    fn attach_sees_messages() {
        let (window, ring) = setup(8);
        ring.push(slot(0xe)).unwrap();
        let other = SharedRing::attach(&window).unwrap();
        assert_eq!(other.capacity(), 8);
        assert_eq!(other.pop(), Ok(slot(0xe)));
        // Consumption is visible to the original handle.
        assert!(ring.is_empty());
    }

    #[test]
    fn attach_rejects_unformatted() {
        assert_eq!(
            SharedRing::attach(&window(4096)).err(),
            Some(RingError::Corrupt)
        );
    }

    /// The window is the ring's bound on both ends: a ring formatted into
    /// a wide window does not attach through a narrower one.
    #[test]
    fn attach_rejects_a_window_the_ring_overruns() {
        let (window, _ring) = setup(8);
        let need = SharedRing::required_bytes(8);
        let narrow = |len| window.sub(PhysRange::new(window.base(), len)).unwrap();
        assert!(SharedRing::attach(&narrow(need)).is_ok());
        assert_eq!(
            SharedRing::attach(&narrow(need - 8)).err(),
            Some(RingError::Corrupt)
        );
        assert_eq!(
            SharedRing::attach(&narrow(8)).err(),
            Some(RingError::Corrupt)
        );
    }

    #[test]
    fn create_rejects_undersized_region() {
        assert!(SharedRing::create(&window(4096), 1024).is_err());
    }

    #[test]
    fn cross_thread_stream() {
        let (_w, ring) = setup(16);
        let producer = ring.clone();
        let t = std::thread::spawn(move || {
            for i in 0..1000u64 {
                loop {
                    match producer.push(slot(i)) {
                        Ok(()) => break,
                        Err(RingError::Full) => std::thread::yield_now(),
                        Err(e) => panic!("{e}"),
                    }
                }
            }
        });
        let mut expect = 0u64;
        while expect < 1000 {
            match ring.pop() {
                Ok(got) => {
                    assert_eq!(got, slot(expect));
                    expect += 1;
                }
                Err(RingError::Empty) => std::thread::yield_now(),
                Err(e) => panic!("{e}"),
            }
        }
        t.join().unwrap();
    }
}
