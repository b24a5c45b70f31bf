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

use crate::backing::Backing;
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

/// One cached translation. `tag == u64::MAX` means invalid.
#[derive(Clone)]
struct TlbEntry {
    /// Guest-virtual page base (absolute address, page-aligned).
    tag: u64,
    /// log2 of the page size.
    shift: u32,
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
unsafe impl Send for TlbEntry {}

impl TlbEntry {
    const INVALID: u64 = u64::MAX;

    fn empty() -> Self {
        TlbEntry {
            tag: Self::INVALID,
            shift: 0,
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
    params: TlbParams,
    e4k: Vec<TlbEntry>,
    e2m: Vec<TlbEntry>,
    e1g: Vec<TlbEntry>,
    stats: TlbStats,
    tracer: Option<Tracer>,
}

const SHIFT_4K: u32 = 12;
const SHIFT_2M: u32 = 21;
const SHIFT_1G: u32 = 30;

impl Tlb {
    /// Build a TLB with the given geometry (exact entry counts; sets are
    /// indexed by `vpn mod entries`, so non-power-of-two geometries are
    /// legal and useful for calibration).
    pub fn new(params: TlbParams) -> Self {
        let p = TlbParams {
            entries_4k: params.entries_4k.max(1),
            entries_2m: params.entries_2m.max(1),
            entries_1g: params.entries_1g.max(1),
        };
        Tlb {
            params: p,
            e4k: vec![TlbEntry::empty(); p.entries_4k],
            e2m: vec![TlbEntry::empty(); p.entries_2m],
            e1g: vec![TlbEntry::empty(); p.entries_1g],
            stats: TlbStats::default(),
            tracer: None,
        }
    }

    /// Attach a flight-recorder handle; flushes emit trace events.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = Some(tracer);
    }

    /// Geometry in use (after power-of-two rounding).
    pub fn params(&self) -> TlbParams {
        self.params
    }

    #[inline]
    fn probe(set: &[TlbEntry], gva: u64, shift: u32) -> Option<&TlbEntry> {
        let page = gva >> shift << shift;
        let idx = ((gva >> shift) as usize) % set.len();
        let e = &set[idx];
        if e.tag == page {
            Some(e)
        } else {
            None
        }
    }

    /// Look up a guest-virtual address. On a hit, returns the host pointer
    /// for that exact byte.
    #[inline]
    pub fn lookup(&mut self, gva: u64) -> Option<TlbHit> {
        // Probe the three page-size sets; 2 MiB first — it is the common
        // case for LWK workloads (contiguous memory policy ⇒ large pages).
        let hit = Self::probe(&self.e2m, gva, SHIFT_2M)
            .or_else(|| Self::probe(&self.e4k, gva, SHIFT_4K))
            .or_else(|| Self::probe(&self.e1g, gva, SHIFT_1G));
        match hit {
            Some(e) => {
                let off = gva - e.tag;
                // SAFETY: host_base points at the page base inside a live
                // Backing (kept alive by e.backing); off < page size.
                let ptr = unsafe { e.host_base.add(off as usize) };
                let writable = e.writable;
                let remaining = (1u64 << e.shift) - off;
                self.stats.hits += 1;
                Some(TlbHit {
                    host_ptr: ptr,
                    writable,
                    remaining,
                })
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Install a translation after a walk. `page_size` selects the set.
    pub fn insert(
        &mut self,
        gva_page: u64,
        page_size: u64,
        host_base: *mut u8,
        backing: Arc<Backing>,
        writable: bool,
    ) {
        let (set, shift) = match page_size {
            crate::addr::PAGE_SIZE_4K => (&mut self.e4k, SHIFT_4K),
            crate::addr::PAGE_SIZE_2M => (&mut self.e2m, SHIFT_2M),
            crate::addr::PAGE_SIZE_1G => (&mut self.e1g, SHIFT_1G),
            _ => panic!("unsupported page size {page_size:#x}"),
        };
        debug_assert_eq!(gva_page % page_size, 0, "insert of non-page-aligned base");
        let idx = ((gva_page >> shift) as usize) % set.len();
        set[idx] = TlbEntry {
            tag: gva_page,
            shift,
            host_base,
            _backing: Some(backing),
            writable,
        };
    }

    /// Drop every cached translation (the hypervisor's response to a
    /// `TlbFlush` command, or a MOV-CR3 analogue).
    pub fn flush_all(&mut self) {
        for e in self
            .e4k
            .iter_mut()
            .chain(self.e2m.iter_mut())
            .chain(self.e1g.iter_mut())
        {
            *e = TlbEntry::empty();
        }
        self.stats.full_flushes += 1;
        if let Some(t) = &self.tracer {
            t.emit(EventKind::TlbFlushAll, 0, 0);
        }
    }

    /// Invalidate any entry covering `gva` (INVLPG analogue).
    pub fn flush_page(&mut self, gva: u64) {
        for (set, shift) in [
            (&mut self.e4k, SHIFT_4K),
            (&mut self.e2m, SHIFT_2M),
            (&mut self.e1g, SHIFT_1G),
        ] {
            let page = gva >> shift << shift;
            let idx = ((gva >> shift) as usize) % set.len();
            if set[idx].tag == page {
                set[idx] = TlbEntry::empty();
            }
        }
        self.stats.page_flushes += 1;
        if let Some(t) = &self.tracer {
            t.emit(EventKind::TlbFlushPage, gva, 0);
        }
    }

    /// Invalidate every entry whose page overlaps `[gva, gva + len)`.
    ///
    /// This is the hypervisor's response to a `TlbFlushRange` command: a
    /// reclaim of a small region invalidates only the translations it could
    /// have cached, so unrelated hot entries survive the shootdown. Cost is
    /// bounded by the TLB geometry (one pass over the sets), never by the
    /// range size.
    pub fn flush_range(&mut self, gva: u64, len: u64) {
        let end = gva.saturating_add(len);
        for (set, shift) in [
            (&mut self.e4k, SHIFT_4K),
            (&mut self.e2m, SHIFT_2M),
            (&mut self.e1g, SHIFT_1G),
        ] {
            let page_size = 1u64 << shift;
            for e in set.iter_mut() {
                if e.tag != TlbEntry::INVALID && e.tag < end && e.tag + page_size > gva {
                    *e = TlbEntry::empty();
                }
            }
        }
        self.stats.range_flushes += 1;
        if let Some(t) = &self.tracer {
            t.emit(EventKind::TlbFlushRange, gva, len);
        }
    }

    /// Snapshot of the counters.
    pub fn stats(&self) -> TlbStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::{PAGE_SIZE_2M, PAGE_SIZE_4K};

    fn backing_page() -> Arc<Backing> {
        Arc::new(Backing::new(PAGE_SIZE_2M as usize))
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
    fn exact_geometry_preserved() {
        let tlb = Tlb::new(TlbParams {
            entries_4k: 3,
            entries_2m: 5,
            entries_1g: 0,
        });
        assert_eq!(tlb.params().entries_4k, 3);
        assert_eq!(tlb.params().entries_2m, 5);
        assert_eq!(tlb.params().entries_1g, 1);
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
