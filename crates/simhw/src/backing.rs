//! Host memory behind simulated physical RAM.
//!
//! Each NUMA zone's RAM is one [`Backing`]: an anonymous host mapping the
//! size of the zone, reserved without committing (`MAP_NORESERVE`), so the
//! host supplies a page only when simulated software first touches it and
//! takes it back when the zone frees it ([`Backing::discard`]). A `Backing`
//! behaves like RAM: multiple simulated cores may read and write it
//! concurrently, and — exactly as on real hardware — racing unsynchronized
//! accesses yield unspecified *values* but never corrupt the simulator
//! itself (accesses are always whole aligned machine words, or a
//! zero-fill of a range).

use crate::error::{HwError, HwResult};
use std::sync::atomic::{AtomicU64, Ordering};

/// A contiguous, zero-initialized block of host memory standing in for
/// physical RAM.
///
/// # Safety model
///
/// The block is raw shared memory, mapped for the whole life of the
/// `Backing`: [`Backing::discard`] hands pages back to the host but leaves
/// them mapped (they read as zeros afterwards), so a pointer into the block
/// stays valid as long as the `Backing` does. All access goes through the
/// methods below, which only ever perform aligned word loads/stores (via
/// [`AtomicU64`] with relaxed ordering, matching the coherence guarantees of
/// real DRAM) or zero-fill a range ([`Backing::zero`]). No Rust references to the interior are ever created, so no
/// aliasing rules can be violated regardless of what the simulated software
/// does.
pub struct Backing {
    ptr: *mut u8,
    /// Bytes mapped at `ptr`.
    len: usize,
}

// SAFETY: `Backing` is a bag of bytes accessed only through raw-pointer
// word/byte operations; it has the same thread-safety characteristics as
// `&[AtomicU64]`.
unsafe impl Send for Backing {}
unsafe impl Sync for Backing {}

/// The C library calls a `Backing` is made of, with their Linux constants.
mod sys {
    use std::ffi::c_void;

    pub const PROT_READ_WRITE: i32 = 0x1 | 0x2;
    /// `MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE`.
    pub const MAP_ANON_NORESERVE: i32 = 0x02 | 0x20 | 0x4000;
    pub const MADV_DONTNEED: i32 = 4;
    pub const MAP_FAILED: *mut c_void = usize::MAX as *mut c_void;

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            off: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> i32;
        pub fn madvise(addr: *mut c_void, len: usize, advice: i32) -> i32;
    }
}

/// Granule of [`Backing::discard`]: the host's base page.
pub const DISCARD_GRANULE: usize = 4096;

const REFUSED: HwError = HwError::Invalid("backing length is zero or too large");

impl Backing {
    /// Reserve `len` bytes of zeroed host memory. `len` is rounded up to an
    /// 8-byte multiple so word access never straddles the end. A length of
    /// zero, or one the host will not map, is refused.
    pub fn new(len: usize) -> HwResult<Self> {
        let len = len
            .checked_next_multiple_of(8)
            .filter(|&len| len > 0 && len <= isize::MAX as usize)
            .ok_or(REFUSED)?;
        // SAFETY: a fresh private anonymous mapping at an address of the
        // kernel's choosing aliases nothing Rust owns; on success it is
        // `len` readable, writable, zero-filled bytes until `munmap`.
        let ptr = unsafe {
            sys::mmap(
                std::ptr::null_mut(),
                len,
                sys::PROT_READ_WRITE,
                sys::MAP_ANON_NORESERVE,
                -1,
                0,
            )
        };
        if ptr == sys::MAP_FAILED {
            return Err(REFUSED);
        }
        Ok(Backing {
            ptr: ptr.cast(),
            len,
        })
    }

    /// Length in bytes (rounded up to a word multiple).
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the backing has no capacity (never the case after `new`).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Raw pointer to the byte at `offset`.
    ///
    /// The pointer remains valid for the lifetime of the `Backing`. Callers
    /// must perform bounds checking before dereferencing past `offset`.
    #[inline]
    pub fn ptr_at(&self, offset: usize) -> *mut u8 {
        debug_assert!(
            offset < self.len,
            "offset {offset} out of backing of len {}",
            self.len
        );
        // SAFETY: offset is within the mapping (debug-asserted; release
        // callers bounds-check via `PhysMemory::resolve`).
        unsafe { self.ptr.add(offset) }
    }

    /// The word at `offset`. `len` is a word multiple (see [`Backing::new`]),
    /// so an aligned offset below it starts a whole word: one compare that
    /// cannot wrap bounds it.
    #[inline]
    fn word(&self, offset: usize) -> &AtomicU64 {
        assert!(
            offset < self.len,
            "word access at {offset} out of bounds ({})",
            self.len
        );
        assert!(
            offset.is_multiple_of(8),
            "unaligned word access at {offset}"
        );
        // SAFETY: in-bounds, aligned; AtomicU64 has no validity invariants
        // beyond alignment and the mapping is always initialized (zeroed).
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

    /// Aligned 64-bit atomic max (acquire-release): the word becomes the
    /// larger of itself and `value` and never moves back (a completion
    /// counter). Returns the previous value.
    #[inline]
    pub fn fetch_max_u64(&self, offset: usize, value: u64) -> u64 {
        self.word(offset).fetch_max(value, Ordering::AcqRel)
    }

    /// Zero a byte range.
    pub fn zero(&self, offset: usize, len: usize) {
        assert!(
            offset.checked_add(len).is_some_and(|end| end <= self.len),
            "zero out of bounds"
        );
        // SAFETY: range is in-bounds.
        unsafe { std::ptr::write_bytes(self.ptr.add(offset), 0, len) }
    }

    /// Hand the pages of `offset .. offset + len` back to the host. They
    /// stay mapped and read as zeros until written again. Both ends must be
    /// [`DISCARD_GRANULE`]-aligned and inside the backing.
    pub fn discard(&self, offset: usize, len: usize) -> HwResult<()> {
        let aligned = offset.is_multiple_of(DISCARD_GRANULE) && len.is_multiple_of(DISCARD_GRANULE);
        if !aligned || offset.checked_add(len).is_none_or(|end| end > self.len) {
            return Err(HwError::Invalid("discard outside the backing or unaligned"));
        }
        // SAFETY: the range is page-aligned and inside our own private
        // anonymous mapping; `MADV_DONTNEED` replaces its pages with
        // zero-fill-on-demand ones and unmaps nothing, so every pointer
        // into the backing stays valid. Racing accesses read either the
        // old bytes or zeros, as the type's safety model allows.
        let rc = unsafe { sys::madvise(self.ptr.add(offset).cast(), len, sys::MADV_DONTNEED) };
        if rc != 0 {
            return Err(HwError::Invalid("host refused to discard pages"));
        }
        Ok(())
    }

    /// Ask the host CPU to start fetching the cache line at `offset` — a
    /// hint that changes no byte and no later access's result.
    #[inline]
    pub fn prefetch(&self, offset: usize) {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: a prefetch neither faults nor reads or writes memory as
        // the program sees it, whatever the address.
        unsafe {
            use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
            _mm_prefetch::<_MM_HINT_T0>(self.ptr.wrapping_add(offset).cast());
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = offset;
    }
}

impl Drop for Backing {
    fn drop(&mut self) {
        // SAFETY: `ptr`/`len` are exactly what `mmap` returned in `new`, and
        // with `&mut self` no pointer handed out by `ptr_at` may outlive
        // this (their holders keep an `Arc<Backing>`).
        unsafe { sys::munmap(self.ptr.cast(), self.len) };
    }
}

impl std::fmt::Debug for Backing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Backing({} bytes @ {:p})", self.len, self.ptr)
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
    fn zero_range() {
        let b = Backing::new(64).unwrap();
        b.write_u64(0, u64::MAX);
        b.write_u64(8, u64::MAX);
        b.zero(0, 8);
        assert_eq!(b.read_u64(0), 0);
        assert_eq!(b.read_u64(8), u64::MAX);
    }

    #[test]
    fn discard_reads_back_zeros_and_keeps_neighbours() {
        let b = Backing::new(4 * DISCARD_GRANULE).unwrap();
        let p = DISCARD_GRANULE;
        for page in 0..4 {
            b.write_u64(page * p + 8, page as u64 + 1);
        }
        let ptr = b.ptr_at(p);
        b.discard(p, 2 * p).unwrap();
        assert_eq!(
            (0..4).map(|i| b.read_u64(i * p + 8)).collect::<Vec<_>>(),
            [1, 0, 0, 4]
        );
        // Still mapped at the same place: the page takes writes again.
        assert_eq!(b.ptr_at(p), ptr);
        b.write_u64(p + 8, 9);
        assert_eq!(b.read_u64(p + 8), 9);
        for (off, len) in [(1, p), (0, 5 * p), (p, usize::MAX - p + 1)] {
            assert!(b.discard(off, len).is_err(), "({off}, {len})");
        }
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

    /// An offset whose word would end past `usize::MAX` is out of bounds,
    /// not a word that wraps to the backing's start.
    #[test]
    #[should_panic(expected = "out of bounds")]
    fn a_word_offset_that_wraps_panics() {
        let b = Backing::new(8).unwrap();
        b.read_u64(usize::MAX - 7);
    }

    /// So is a range to zero whose end would wrap.
    #[test]
    #[should_panic(expected = "out of bounds")]
    fn a_zero_range_that_wraps_panics() {
        let b = Backing::new(16).unwrap();
        b.zero(8, usize::MAX);
    }

    #[test]
    fn fetch_max_semantics() {
        let b = Backing::new(16).unwrap();
        assert_eq!(b.fetch_max_u64(8, 7), 0);
        assert_eq!(b.fetch_max_u64(8, 3), 7);
        assert_eq!((b.read_u64(0), b.read_u64(8)), (0, 7));
    }

    /// Racing maxima leave the largest value, whatever the order.
    #[test]
    fn concurrent_max() {
        let b = Arc::new(Backing::new(8).unwrap());
        let threads: Vec<_> = (0..4u64)
            .map(|t| {
                let b = Arc::clone(&b);
                std::thread::spawn(move || {
                    for i in 0..1000 {
                        b.fetch_max_u64(0, i * 4 + t);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(b.read_u64(0), 3999);
    }
}
