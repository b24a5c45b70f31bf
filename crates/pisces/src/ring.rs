//! Single-producer / single-consumer message ring in shared physical
//! memory.
//!
//! Pisces' control channels (and later Covirt's hypervisor command queue)
//! are fixed-size message rings living in memory visible to both sides.
//! The ring is laid out *inside a populated physical region*, so the
//! simulated kernels genuinely communicate through (simulated) RAM:
//!
//! ```text
//! +0   magic
//! +8   slot_count          (power of two)
//! +16  slot_size           (bytes, multiple of 8)
//! +24  head                (consumer cursor, release-published)
//! +32  tail                (producer cursor, release-published)
//! +64  slot[0] .. slot[n-1]
//! ```

use covirt_simhw::backing::Backing;
use covirt_simhw::memory::MemWindow;
use std::sync::Arc;

const MAGIC: u64 = 0x5049_5343_4553_5251; // "PISCESRQ"
const OFF_MAGIC: usize = 0;
const OFF_COUNT: usize = 8;
const OFF_SLOT_SIZE: usize = 16;
const OFF_HEAD: usize = 24;
const OFF_TAIL: usize = 32;
const DATA_OFF: usize = 64;

/// Errors from ring operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RingError {
    /// The ring is full (producer side).
    Full,
    /// The ring is empty (consumer side).
    Empty,
    /// The header is corrupt or the region is too small.
    Corrupt,
    /// A payload did not match the slot size.
    BadSize,
}

impl std::fmt::Display for RingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            RingError::Full => "ring full",
            RingError::Empty => "ring empty",
            RingError::Corrupt => "ring corrupt",
            RingError::BadSize => "bad payload size",
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
    slot_size: u64,
}

impl SharedRing {
    /// Bytes of shared memory needed for `slot_count` slots of `slot_size`.
    pub fn required_bytes(slot_count: u64, slot_size: u64) -> u64 {
        DATA_OFF as u64 + slot_count * slot_size
    }

    /// Format a fresh ring at the start of `window` and return a handle.
    /// `slot_count` is rounded up to a power of two; `slot_size` to a
    /// multiple of 8.
    pub fn create(window: &MemWindow, slot_count: u64, slot_size: u64) -> Result<Self, RingError> {
        let slot_count = slot_count.max(2).next_power_of_two();
        let slot_size = slot_size.div_ceil(8) * 8;
        if Self::required_bytes(slot_count, slot_size) > window.len() {
            return Err(RingError::Corrupt);
        }
        let (backing, base) = window.pinned();
        backing.write_u64(base + OFF_COUNT, slot_count);
        backing.write_u64(base + OFF_SLOT_SIZE, slot_size);
        backing.write_u64(base + OFF_HEAD, 0);
        backing.write_u64(base + OFF_TAIL, 0);
        backing.write_u64_release(base + OFF_MAGIC, MAGIC);
        Ok(SharedRing {
            backing,
            base,
            slot_count,
            slot_size,
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
        let slot_size = backing.read_u64(base + OFF_SLOT_SIZE);
        if !slot_count.is_power_of_two() || slot_size == 0 || !slot_size.is_multiple_of(8) {
            return Err(RingError::Corrupt);
        }
        // The header is writable by the other side: bounds-check the data
        // area it describes without trusting the product not to wrap.
        let fits = slot_count
            .checked_mul(slot_size)
            .and_then(|data| data.checked_add(DATA_OFF as u64))
            .is_some_and(|need| need <= window.len());
        if !fits {
            return Err(RingError::Corrupt);
        }
        Ok(SharedRing {
            backing,
            base,
            slot_count,
            slot_size,
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
        self.base + DATA_OFF + ((idx & (self.slot_count - 1)) * self.slot_size) as usize
    }

    /// Producer: enqueue one message (must be exactly `slot_size` bytes or
    /// shorter — short payloads are zero-padded).
    pub fn push(&self, payload: &[u8]) -> Result<(), RingError> {
        if payload.len() as u64 > self.slot_size {
            return Err(RingError::BadSize);
        }
        let head = self.head();
        let tail = self.tail();
        if tail.wrapping_sub(head) >= self.slot_count {
            return Err(RingError::Full);
        }
        let off = self.slot_offset(tail);
        self.backing.zero(off, self.slot_size as usize);
        self.backing.write_bytes(off, payload);
        self.backing
            .write_u64_release(self.base + OFF_TAIL, tail.wrapping_add(1));
        Ok(())
    }

    /// Consumer: dequeue one message.
    pub fn pop(&self) -> Result<Vec<u8>, RingError> {
        let head = self.head();
        let tail = self.tail();
        if tail == head {
            return Err(RingError::Empty);
        }
        let off = self.slot_offset(head);
        let mut buf = vec![0u8; self.slot_size as usize];
        self.backing.read_bytes(off, &mut buf);
        self.backing
            .write_u64_release(self.base + OFF_HEAD, head.wrapping_add(1));
        Ok(buf)
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

    fn setup(slots: u64, size: u64) -> (MemWindow, SharedRing) {
        let window = window(64 * 1024);
        let ring = SharedRing::create(&window, slots, size).unwrap();
        (window, ring)
    }

    #[test]
    fn push_pop_fifo() {
        let (_w, ring) = setup(8, 16);
        ring.push(b"alpha").unwrap();
        ring.push(b"beta").unwrap();
        assert_eq!(ring.len(), 2);
        assert_eq!(&ring.pop().unwrap()[..5], b"alpha");
        assert_eq!(&ring.pop().unwrap()[..4], b"beta");
        assert_eq!(ring.pop(), Err(RingError::Empty));
    }

    #[test]
    fn fills_at_capacity() {
        let (_w, ring) = setup(4, 8);
        for i in 0..4u64 {
            ring.push(&i.to_le_bytes()).unwrap();
        }
        assert_eq!(ring.push(&[0; 8]), Err(RingError::Full));
        ring.pop().unwrap();
        ring.push(&[0; 8]).unwrap();
    }

    #[test]
    fn oversized_payload_rejected() {
        let (_w, ring) = setup(4, 8);
        assert_eq!(ring.push(&[0u8; 9]), Err(RingError::BadSize));
    }

    #[test]
    fn attach_sees_messages() {
        let (window, ring) = setup(8, 16);
        ring.push(b"hello enclave").unwrap();
        let other = SharedRing::attach(&window).unwrap();
        assert_eq!(other.capacity(), 8);
        let msg = other.pop().unwrap();
        assert_eq!(&msg[..13], b"hello enclave");
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
        let (window, _ring) = setup(8, 16);
        let need = SharedRing::required_bytes(8, 16);
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
        assert!(SharedRing::create(&window(4096), 1024, 128).is_err());
    }

    #[test]
    fn cross_thread_stream() {
        let (_w, ring) = setup(16, 8);
        let producer = ring.clone();
        let t = std::thread::spawn(move || {
            for i in 0..1000u64 {
                loop {
                    match producer.push(&i.to_le_bytes()) {
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
                Ok(buf) => {
                    let v = u64::from_le_bytes(buf[..8].try_into().unwrap());
                    assert_eq!(v, expect);
                    expect += 1;
                }
                Err(RingError::Empty) => std::thread::yield_now(),
                Err(e) => panic!("{e}"),
            }
        }
        t.join().unwrap();
    }
}
