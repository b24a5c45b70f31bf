//! Host-memory backing for populated physical regions.
//!
//! Simulated "physical memory" that is actually touched (kernel images, page
//! tables, boot parameter structures, workload arrays, shared segments) is
//! backed by real host allocations. A [`Backing`] behaves like RAM: multiple
//! simulated cores may read and write it concurrently, and — exactly as on
//! real hardware — racing unsynchronized accesses yield unspecified *values*
//! but never corrupt the simulator itself (accesses are always whole aligned
//! machine words or byte copies into freshly owned buffers).

use crate::error::{HwError, HwResult};
use std::alloc::{alloc_zeroed, dealloc, handle_alloc_error, Layout};
use std::sync::atomic::{AtomicU64, Ordering};

/// A contiguous, zero-initialized block of host memory standing in for a
/// populated physical region.
///
/// # Safety model
///
/// The block is raw shared memory. All access goes through the methods
/// below, which only ever perform aligned word loads/stores (via
/// [`AtomicU64`] with relaxed ordering, matching the coherence guarantees of
/// real DRAM) or `ptr::copy_nonoverlapping` into/out of caller-owned
/// buffers. No Rust references to the interior are ever created, so no
/// aliasing rules can be violated regardless of what the simulated software
/// does.
pub struct Backing {
    ptr: *mut u8,
    /// What `ptr` was allocated with; its size is the backing's length.
    layout: Layout,
}

// SAFETY: `Backing` is a bag of bytes accessed only through raw-pointer
// word/byte operations; it has the same thread-safety characteristics as
// `&[AtomicU64]`.
unsafe impl Send for Backing {}
unsafe impl Sync for Backing {}

impl Backing {
    /// Allocate `len` bytes of zeroed backing. `len` is rounded up to an
    /// 8-byte multiple so word access never straddles the end. A length of
    /// zero, or one no host allocation can have, is refused.
    pub fn new(len: usize) -> HwResult<Self> {
        let layout = len
            .checked_next_multiple_of(8)
            .filter(|&len| len > 0)
            .and_then(|len| Layout::from_size_align(len, 8).ok())
            .ok_or(HwError::Invalid("backing length is zero or too large"))?;
        // SAFETY: layout has non-zero size and valid 8-byte alignment.
        let ptr = unsafe { alloc_zeroed(layout) };
        if ptr.is_null() {
            handle_alloc_error(layout);
        }
        Ok(Backing { ptr, layout })
    }

    /// Length in bytes (rounded up to a word multiple).
    #[inline]
    pub fn len(&self) -> usize {
        self.layout.size()
    }

    /// True if the backing has no capacity (never the case after `new`).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Raw pointer to the byte at `offset`.
    ///
    /// The pointer remains valid for the lifetime of the `Backing`. Callers
    /// must perform bounds checking before dereferencing past `offset`.
    #[inline]
    pub fn ptr_at(&self, offset: usize) -> *mut u8 {
        debug_assert!(
            offset < self.len(),
            "offset {offset} out of backing of len {}",
            self.len()
        );
        // SAFETY: offset is within the allocation (debug-asserted; release
        // callers bounds-check via `PhysMemory::resolve`).
        unsafe { self.ptr.add(offset) }
    }

    #[inline]
    fn word(&self, offset: usize) -> &AtomicU64 {
        assert!(
            offset + 8 <= self.len(),
            "word access at {offset} out of bounds ({})",
            self.len()
        );
        assert!(
            offset.is_multiple_of(8),
            "unaligned word access at {offset}"
        );
        // SAFETY: in-bounds, aligned; AtomicU64 has no validity invariants
        // beyond alignment and the memory is always initialized (zeroed).
        unsafe { &*(self.ptr.add(offset) as *const AtomicU64) }
    }

    /// Aligned 64-bit load (relaxed — models coherent DRAM).
    #[inline]
    pub fn read_u64(&self, offset: usize) -> u64 {
        self.word(offset).load(Ordering::Relaxed)
    }

    /// Aligned 64-bit store (relaxed — models coherent DRAM).
    #[inline]
    pub fn write_u64(&self, offset: usize, value: u64) {
        self.word(offset).store(value, Ordering::Relaxed);
    }

    /// Aligned 64-bit load with acquire ordering — pairs with
    /// [`Backing::write_u64_release`] for message-passing protocols built in
    /// shared memory (rings, command queues).
    #[inline]
    pub fn read_u64_acquire(&self, offset: usize) -> u64 {
        self.word(offset).load(Ordering::Acquire)
    }

    /// Aligned 64-bit store with release ordering — publishes everything
    /// written to the backing before it.
    #[inline]
    pub fn write_u64_release(&self, offset: usize, value: u64) {
        self.word(offset).store(value, Ordering::Release);
    }

    /// Aligned 64-bit compare-exchange, for simulated software that needs
    /// atomic RMW on shared memory (e.g. command-queue producer/consumer
    /// indices).
    #[inline]
    pub fn cas_u64(&self, offset: usize, current: u64, new: u64) -> Result<u64, u64> {
        self.word(offset)
            .compare_exchange(current, new, Ordering::AcqRel, Ordering::Acquire)
    }

    /// Copy bytes out of the backing into `buf`.
    pub fn read_bytes(&self, offset: usize, buf: &mut [u8]) {
        assert!(offset + buf.len() <= self.len(), "read_bytes out of bounds");
        // SAFETY: source range is in-bounds; destination is caller-owned and
        // non-overlapping with the backing.
        unsafe { std::ptr::copy_nonoverlapping(self.ptr.add(offset), buf.as_mut_ptr(), buf.len()) }
    }

    /// Copy bytes from `buf` into the backing.
    pub fn write_bytes(&self, offset: usize, buf: &[u8]) {
        assert!(
            offset + buf.len() <= self.len(),
            "write_bytes out of bounds"
        );
        // SAFETY: destination range is in-bounds; source is caller-owned and
        // non-overlapping with the backing.
        unsafe { std::ptr::copy_nonoverlapping(buf.as_ptr(), self.ptr.add(offset), buf.len()) }
    }

    /// Zero a byte range.
    pub fn zero(&self, offset: usize, len: usize) {
        assert!(offset + len <= self.len(), "zero out of bounds");
        // SAFETY: range is in-bounds.
        unsafe { std::ptr::write_bytes(self.ptr.add(offset), 0, len) }
    }
}

impl Drop for Backing {
    fn drop(&mut self) {
        // SAFETY: ptr was produced by `alloc_zeroed` with this exact layout.
        unsafe { dealloc(self.ptr, self.layout) }
    }
}

impl std::fmt::Debug for Backing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Backing({} bytes @ {:p})", self.len(), self.ptr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn zeroed_on_alloc() {
        let b = Backing::new(4096).unwrap();
        for off in (0..4096).step_by(8) {
            assert_eq!(b.read_u64(off), 0);
        }
    }

    #[test]
    fn word_roundtrip() {
        let b = Backing::new(64).unwrap();
        b.write_u64(8, 0xdead_beef_cafe_f00d);
        assert_eq!(b.read_u64(8), 0xdead_beef_cafe_f00d);
        assert_eq!(b.read_u64(0), 0);
        assert_eq!(b.read_u64(16), 0);
    }

    #[test]
    fn bytes_roundtrip() {
        let b = Backing::new(128).unwrap();
        let src = [1u8, 2, 3, 4, 5];
        b.write_bytes(17, &src);
        let mut dst = [0u8; 5];
        b.read_bytes(17, &mut dst);
        assert_eq!(src, dst);
    }

    #[test]
    fn zero_range() {
        let b = Backing::new(64).unwrap();
        b.write_u64(0, u64::MAX);
        b.write_u64(8, u64::MAX);
        b.zero(0, 8);
        assert_eq!(b.read_u64(0), 0);
        assert_eq!(b.read_u64(8), u64::MAX);
    }

    #[test]
    fn impossible_lengths_are_refused() {
        assert!(Backing::new(0).is_err());
        assert!(Backing::new(usize::MAX - 3).is_err());
        assert!(Backing::new(isize::MAX as usize).is_err());
    }

    #[test]
    fn rounds_len_to_word() {
        let b = Backing::new(5).unwrap();
        assert_eq!(b.len(), 8);
        b.write_u64(0, 42);
        assert_eq!(b.read_u64(0), 42);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn oob_word_panics() {
        let b = Backing::new(8).unwrap();
        b.read_u64(8);
    }

    #[test]
    fn cas_semantics() {
        let b = Backing::new(8).unwrap();
        assert_eq!(b.cas_u64(0, 0, 7), Ok(0));
        assert_eq!(b.cas_u64(0, 0, 9), Err(7));
        assert_eq!(b.read_u64(0), 7);
    }

    #[test]
    fn concurrent_counter() {
        let b = Arc::new(Backing::new(8).unwrap());
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let b = Arc::clone(&b);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        loop {
                            let cur = b.read_u64(0);
                            if b.cas_u64(0, cur, cur + 1).is_ok() {
                                break;
                            }
                        }
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(b.read_u64(0), 4000);
    }
}
