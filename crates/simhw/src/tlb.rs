//! Per-core software translation cache.
//!
//! The TLB caches *complete* translations — guest-virtual page → host
//! pointer — so that the hit path is identical no matter how expensive the
//! underlying walk is. Protection overheads therefore emerge exclusively
//! from (a) the miss path (a 1-level guest walk natively vs a nested
//! guest × EPT walk under Covirt's memory protection) and (b) explicit
//! flushes triggered by the Covirt command queue.
//!
//! Crucially, the TLB is **not** coherent with EPT edits: entries stay
//! usable after the controller unmaps the backing region, until the Covirt
//! hypervisor processes a `TlbFlush` command on this core. That stale
//! window is precisely the consistency hazard the paper's controller
//! protocol (unmap → command → NMI → flush → ack) closes, and the
//! fault-injection tests rely on it.
//!
//! Geometry is configurable ([`TlbParams`]); the defaults approximate a
//! modern two-level STLB and are the calibration knob for the RandomAccess
//! overhead band (see EXPERIMENTS.md).

use crate::addr::PageSize;
use crate::backing::Backing;
use crate::sizeclass::SizeClassed;
use covirt_trace::{EventKind, Tracer};
use std::sync::Arc;

/// TLB geometry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TlbParams {
    /// Number of 4 KiB-page entries (direct-mapped).
    pub entries_4k: usize,
    /// Number of 2 MiB-page entries (direct-mapped).
    pub entries_2m: usize,
    /// Number of 1 GiB-page entries (fully associative, tiny).
    pub entries_1g: usize,
}

impl Default for TlbParams {
    /// Approximates a Broadwell-class hierarchy collapsed into one level:
    /// 1536 × 4 KiB (the STLB), 127 × 2 MiB, 4 × 1 GiB. The 2 MiB figure is
    /// the calibration constant for the RandomAccess overhead band — it
    /// models the combined L1-DTLB + STLB reach for large pages, and its
    /// slight misfit against the paper-parameter working set (128 × 2 MiB
    /// pages for the 2^25-entry table) produces the ~1 % conflict-miss
    /// rate that turns the nested-walk delta into the paper's few-percent
    /// GUPS degradation. See EXPERIMENTS.md.
    fn default() -> Self {
        TlbParams {
            entries_4k: 1536,
            entries_2m: 127,
            entries_1g: 4,
        }
    }
}

/// What one cached translation stores beside its guest-virtual page.
struct TlbLine {
    /// Host pointer to the first byte of the page.
    host_base: *mut u8,
    /// Keep-alive for the backing so stale entries can never dangle
    /// (held only for its Drop effect).
    _backing: Option<Arc<Backing>>,
    /// Writes permitted.
    writable: bool,
}

// SAFETY: the raw pointer refers into a `Backing`, which is itself
// `Send + Sync`; the `Arc` keep-alive guarantees validity.
unsafe impl Send for TlbLine {}

impl Default for TlbLine {
    fn default() -> Self {
        TlbLine {
            host_base: std::ptr::null_mut(),
            _backing: None,
            writable: false,
        }
    }
}

/// Hit/miss/flush statistics, core-local and non-atomic (one thread drives
/// one core).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TlbStats {
    /// Lookup hits.
    pub hits: u64,
    /// Lookup misses.
    pub misses: u64,
    /// Full flushes performed.
    pub full_flushes: u64,
    /// Single-page invalidations performed.
    pub page_flushes: u64,
    /// Ranged invalidations performed (Covirt's coalesced shootdowns).
    pub range_flushes: u64,
}

/// A successful TLB lookup: the host pointer for the *requested address*
/// (page base + offset already applied) and whether writes are allowed.
#[derive(Clone, Copy, Debug)]
pub struct TlbHit {
    /// Host pointer corresponding to the looked-up guest address.
    pub host_ptr: *mut u8,
    /// Whether the cached mapping permits writes.
    pub writable: bool,
    /// Bytes remaining in the page from the looked-up address.
    pub remaining: u64,
}

/// Per-core translation cache. Owned exclusively by the thread driving the
/// core, exactly as a hardware TLB is private to its CPU.
pub struct Tlb {
    lines: SizeClassed<TlbLine, false>,
    stats: TlbStats,
    tracer: Option<Tracer>,
}

impl Tlb {
    /// Build a TLB with the given geometry (exact entry counts; sets are
    /// indexed by `vpn mod entries`, so non-power-of-two geometries are
    /// legal and useful for calibration).
    pub fn new(params: TlbParams) -> Self {
        Tlb {
            lines: SizeClassed::new([params.entries_4k, params.entries_2m, params.entries_1g]),
            stats: TlbStats::default(),
            tracer: None,
        }
    }

    /// Attach a flight-recorder handle; flushes emit trace events.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = Some(tracer);
    }

    /// Look up a guest-virtual address. On a hit, returns the host pointer
    /// for that exact byte.
    #[inline]
    pub fn lookup(&mut self, gva: u64) -> Option<TlbHit> {
        match self.lines.probe(gva) {
            Some(hit) => {
                self.stats.hits += 1;
                Some(TlbHit {
                    // SAFETY: host_base points at the page base inside a live
                    // Backing (kept alive by the line); offset < page size.
                    host_ptr: unsafe { hit.payload.host_base.add(hit.offset as usize) },
                    writable: hit.payload.writable,
                    remaining: hit.size.bytes() - hit.offset,
                })
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Install a translation after a walk; `page_size`, in bytes, selects
    /// the class. A size no class holds caches nothing. That is a TLB that
    /// misses, which is always correct: no insert promises a later hit (the
    /// next one may evict its slot), so there is nothing to refuse loudly.
    pub fn insert(
        &mut self,
        gva_page: u64,
        page_size: u64,
        host_base: *mut u8,
        backing: Arc<Backing>,
        writable: bool,
    ) {
        let Some(size) = PageSize::from_bytes(page_size) else {
            return;
        };
        debug_assert_eq!(gva_page % page_size, 0, "insert of non-page-aligned base");
        let line = self.lines.fill(gva_page, size);
        line.host_base = host_base;
        line._backing = Some(backing);
        line.writable = writable;
    }

    /// Drop every cached translation (the hypervisor's response to a
    /// `TlbFlush` command, or a MOV-CR3 analogue).
    pub fn flush_all(&mut self) {
        self.lines.clear();
        self.stats.full_flushes += 1;
        if let Some(t) = &self.tracer {
            t.emit(EventKind::TlbFlushAll, 0, 0);
        }
    }

    /// Invalidate any entry covering `gva` (INVLPG analogue).
    pub fn flush_page(&mut self, gva: u64) {
        self.lines.invalidate_page(gva);
        self.stats.page_flushes += 1;
        if let Some(t) = &self.tracer {
            t.emit(EventKind::TlbFlushPage, gva, 0);
        }
    }

    /// Invalidate every entry whose page overlaps `[gva, gva + len)`.
    ///
    /// This is the hypervisor's response to a `TlbFlushRange` command: a
    /// reclaim of a small region invalidates only the translations it could
    /// have cached, so unrelated hot entries survive the shootdown. It visits
    /// only the occupied entries, so its cost follows how many the core
    /// holds, never the geometry or the range size.
    pub fn flush_range(&mut self, gva: u64, len: u64) {
        self.lines.invalidate_overlapping(gva, len);
        self.stats.range_flushes += 1;
        if let Some(t) = &self.tracer {
            t.emit(EventKind::TlbFlushRange, gva, len);
        }
    }

    /// Snapshot of the counters.
    pub fn stats(&self) -> TlbStats {
        self.stats
    }

    /// Entries of `size` the TLB holds.
    #[cfg(test)]
    pub(crate) fn occupied(&self, size: PageSize) -> usize {
        self.lines.occupied(size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::{PAGE_SIZE_2M, PAGE_SIZE_4K};

    fn backing_page() -> Arc<Backing> {
        Arc::new(Backing::new(PAGE_SIZE_2M as usize).unwrap())
    }

    #[test]
    fn miss_then_hit() {
        let mut tlb = Tlb::new(TlbParams::default());
        let b = backing_page();
        assert!(tlb.lookup(0x20_0000).is_none());
        tlb.insert(0x20_0000, PAGE_SIZE_2M, b.ptr_at(0), Arc::clone(&b), true);
        let hit = tlb.lookup(0x20_0000 + 64).expect("hit");
        assert_eq!(hit.host_ptr as usize, b.ptr_at(64) as usize);
        assert!(hit.writable);
        assert_eq!(tlb.stats().hits, 1);
        assert_eq!(tlb.stats().misses, 1);
    }

    #[test]
    fn offset_applied_within_page() {
        let mut tlb = Tlb::new(TlbParams::default());
        let b = backing_page();
        tlb.insert(0, PAGE_SIZE_4K, b.ptr_at(0), Arc::clone(&b), false);
        let hit = tlb.lookup(0xabc).unwrap();
        assert_eq!(hit.host_ptr as usize, b.ptr_at(0xabc) as usize);
        assert!(!hit.writable);
    }

    #[test]
    fn conflict_eviction_direct_mapped() {
        let mut tlb = Tlb::new(TlbParams {
            entries_4k: 2,
            entries_2m: 2,
            entries_1g: 1,
        });
        let b = backing_page();
        // Two pages mapping to the same index (stride = entries * page).
        tlb.insert(0, PAGE_SIZE_4K, b.ptr_at(0), Arc::clone(&b), true);
        tlb.insert(
            2 * PAGE_SIZE_4K,
            PAGE_SIZE_4K,
            b.ptr_at(0),
            Arc::clone(&b),
            true,
        );
        assert!(
            tlb.lookup(0).is_none(),
            "first entry should have been evicted"
        );
        assert!(tlb.lookup(2 * PAGE_SIZE_4K).is_some());
    }

    #[test]
    fn flush_all_clears() {
        let mut tlb = Tlb::new(TlbParams::default());
        let b = backing_page();
        tlb.insert(0x40_0000, PAGE_SIZE_2M, b.ptr_at(0), Arc::clone(&b), true);
        assert!(tlb.lookup(0x40_0000).is_some());
        tlb.flush_all();
        assert!(tlb.lookup(0x40_0000).is_none());
        assert_eq!(tlb.stats().full_flushes, 1);
    }

    #[test]
    fn flush_page_is_selective() {
        let mut tlb = Tlb::new(TlbParams::default());
        let b = backing_page();
        tlb.insert(0, PAGE_SIZE_4K, b.ptr_at(0), Arc::clone(&b), true);
        tlb.insert(
            PAGE_SIZE_4K,
            PAGE_SIZE_4K,
            b.ptr_at(0),
            Arc::clone(&b),
            true,
        );
        tlb.flush_page(0);
        assert!(tlb.lookup(0).is_none());
        assert!(tlb.lookup(PAGE_SIZE_4K).is_some());
    }

    #[test]
    fn flush_range_is_selective() {
        let mut tlb = Tlb::new(TlbParams::default());
        let b = backing_page();
        // Three 2 MiB pages; flush the middle one by range.
        for p in 0..3u64 {
            tlb.insert(
                p * PAGE_SIZE_2M,
                PAGE_SIZE_2M,
                b.ptr_at(0),
                Arc::clone(&b),
                true,
            );
        }
        tlb.flush_range(PAGE_SIZE_2M, PAGE_SIZE_2M);
        assert!(tlb.lookup(0).is_some());
        assert!(tlb.lookup(PAGE_SIZE_2M).is_none());
        assert!(tlb.lookup(2 * PAGE_SIZE_2M).is_some());
        assert_eq!(tlb.stats().range_flushes, 1);
        assert_eq!(tlb.stats().full_flushes, 0);
    }

    #[test]
    fn flush_range_clears_partially_overlapped_pages() {
        let mut tlb = Tlb::new(TlbParams::default());
        let b = backing_page();
        tlb.insert(0, PAGE_SIZE_2M, b.ptr_at(0), Arc::clone(&b), true);
        // A sub-page range still kills the covering large-page entry.
        tlb.flush_range(64 * 1024, 4096);
        assert!(tlb.lookup(0).is_none());
    }

    #[test]
    fn entries_keep_backing_alive() {
        let mut tlb = Tlb::new(TlbParams::default());
        let b = backing_page();
        b.write_u64(0, 0x5a5a);
        tlb.insert(0, PAGE_SIZE_4K, b.ptr_at(0), Arc::clone(&b), true);
        drop(b);
        // Entry still resolves and reads the retained memory — models a
        // stale-but-safe TLB entry after the region was freed host-side.
        let hit = tlb.lookup(0).unwrap();
        // SAFETY: pointer kept alive by the entry's Arc.
        let v = unsafe { (hit.host_ptr as *const u64).read() };
        assert_eq!(v, 0x5a5a);
    }

    #[test]
    fn non_pow2_geometry_wraps_correctly() {
        // 3-entry 4K set: pages 0 and 3 collide; pages 0,1,2 do not.
        let mut tlb = Tlb::new(TlbParams {
            entries_4k: 3,
            entries_2m: 1,
            entries_1g: 1,
        });
        let b = backing_page();
        for p in 0..3u64 {
            tlb.insert(
                p * PAGE_SIZE_4K,
                PAGE_SIZE_4K,
                b.ptr_at(0),
                Arc::clone(&b),
                true,
            );
        }
        for p in 0..3u64 {
            assert!(tlb.lookup(p * PAGE_SIZE_4K).is_some());
        }
        tlb.insert(
            3 * PAGE_SIZE_4K,
            PAGE_SIZE_4K,
            b.ptr_at(0),
            Arc::clone(&b),
            true,
        );
        assert!(
            tlb.lookup(0).is_none(),
            "page 3 must evict page 0 (same set mod 3)"
        );
        assert!(tlb.lookup(3 * PAGE_SIZE_4K).is_some());
    }
}
