//! The node's physical address space: per-zone allocators and the populated
//! region map.
//!
//! Each NUMA zone owns a disjoint span of host-physical addresses
//! (`zone i` starts at `i * ZONE_SPAN`). A [`PhysMemory`] hands out
//! page-aligned [`PhysRange`]s from a first-fit free list per zone, and
//! tracks which ranges are *populated* — i.e. have real host memory behind
//! them (see [`crate::backing::Backing`]). Page walks and workload data
//! resolve through [`PhysMemory::resolve`]; a boot-time structure is reached
//! through a [`MemWindow`] its owner resolved once.
//!
//! # Sharded lock-free resolution
//!
//! Resolution is the guest data plane's only shared lookup: every TLB fill
//! and every table-entry load that misses the frame pool lands here, from
//! every core at once. The populated map is sharded by NUMA zone — zone
//! membership is recoverable from the address alone — and each shard is
//! published RCU-style: writers (grant/reclaim/XEMEM — all control-plane,
//! all rare) build a new sorted snapshot under a small per-zone writer
//! mutex and swap one pointer; readers take no lock at all — one atomic
//! pointer load, one load from the snapshot's bucket table and a binary
//! search of that bucket's few regions. A publish in one zone never touches
//! another zone's snapshot or generation, so one enclave's grant/reclaim
//! churn cannot invalidate resolves (or region caches) in a sibling zone.
//!
//! # Bounded reclamation
//!
//! Retired snapshots are reclaimed with a two-epoch scheme instead of a
//! global reader-count quiesce. Each shard keeps an `epoch` counter, two
//! per-slot reader counts and two retired buckets (slot = `epoch & 1`).
//! Readers register in the current epoch's slot (re-checking the epoch
//! after the increment); a publish retires the old snapshot into the
//! current bucket and advances the epoch — freeing the *previous* epoch's
//! bucket — once the previous slot's reader count is zero. A reader only
//! ever blocks the advance *after next* (its registration epoch `e` stalls
//! `e+1 → e+2`), so sustained back-to-back reader sections cannot defer
//! freeing indefinitely: the backlog is bounded by the publishes issued
//! within roughly two reader-section lengths, not by how long readers keep
//! arriving. See DESIGN.md §12 for the ordering argument.
//!
//! Every publish bumps the owning zone's generation (and the global
//! [`PhysMemory::snapshot_swaps`] publish count). A per-core
//! [`RegionCache`] pins recently-resolved regions tagged by zone
//! generation — or by a per-enclave [`RegionView`] generation when one is
//! attached — and skips even the snapshot search, with reclaim safety by
//! generation mismatch.

use crate::addr::{HostPhysAddr, PageSize, PhysRange, PAGE_SIZE_4K};
use crate::backing::Backing;
use crate::error::{HwError, HwResult};
use crate::topology::ZoneId;
use covirt_trace::{EventKind, Tracer};
use parking_lot::Mutex;
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicPtr, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Host-physical span reserved for each NUMA zone (1 TiB), far larger than
/// any real zone so zone membership is recoverable from an address alone.
pub const ZONE_SPAN: u64 = 1 << 40;

/// First usable offset within a zone span; the low 16 MiB stand in for
/// firmware/legacy holes so that address 0 is never valid RAM.
const ZONE_RAM_BASE: u64 = 16 * 1024 * 1024;

/// Associativity of a fully-grown [`RegionCache`] (see `set_ways`).
pub const REGION_CACHE_WAYS: usize = 4;

/// Retired-snapshot backlog above which a publish donates its timeslice
/// (bounded, see `RETIRE_YIELD_BUDGET`) to let a preempted straggler
/// reader drain its epoch slot. Running readers never push the backlog
/// anywhere near this; only a reader descheduled *inside* a section can,
/// and it needs one timeslice to finish its nanosecond-scale section.
pub const RETIRE_BACKLOG_SOFT_CAP: u64 = 8;

/// Maximum `yield_now` donations per publish once the soft cap is hit.
/// Bounds the writer's worst-case publish latency: reclamation pressure
/// must never turn the control plane's publish into an unbounded wait.
const RETIRE_YIELD_BUDGET: u32 = 64;

/// Free-list allocator for one NUMA zone.
struct ZoneAllocator {
    /// start -> len of free extents, keyed by start for coalescing.
    free: BTreeMap<u64, u64>,
    /// First byte of the zone's RAM.
    base: u64,
    total: u64,
    in_use: u64,
}

impl ZoneAllocator {
    fn new(zone: usize, bytes: u64) -> Self {
        let base = zone as u64 * ZONE_SPAN + ZONE_RAM_BASE;
        let mut free = BTreeMap::new();
        free.insert(base, bytes);
        ZoneAllocator {
            free,
            base,
            total: bytes,
            in_use: 0,
        }
    }

    fn alloc(&mut self, len: u64, align: u64) -> Option<PhysRange> {
        debug_assert!(align.is_power_of_two());
        let (pick_start, pick_len, alloc_at) = self.free.iter().find_map(|(&start, &flen)| {
            let aligned = (start + align - 1) & !(align - 1);
            let head_waste = aligned - start;
            if flen >= head_waste + len {
                Some((start, flen, aligned))
            } else {
                None
            }
        })?;
        self.free.remove(&pick_start);
        // Re-insert the head fragment (below the aligned start), if any.
        if alloc_at > pick_start {
            self.free.insert(pick_start, alloc_at - pick_start);
        }
        // Re-insert the tail fragment, if any.
        let tail_start = alloc_at + len;
        let tail_len = pick_start + pick_len - tail_start;
        if tail_len > 0 {
            self.free.insert(tail_start, tail_len);
        }
        self.in_use += len;
        Some(PhysRange::new(HostPhysAddr::new(alloc_at), len))
    }

    /// Whether `range` can be returned: inside the zone's RAM, overlapping
    /// no free extent (neither the one before it nor the one after), and
    /// no larger than what is out — the guard on `free`'s subtraction,
    /// which the first two already imply while the free list and `in_use`
    /// agree. `range` is non-empty and does not wrap
    /// (`PhysMemory::range_zone`).
    fn check_free(&self, range: &PhysRange) -> HwResult<()> {
        let (start, end) = (range.start.raw(), range.end().raw());
        if start < self.base || end > self.base + self.total {
            return Err(HwError::NotAllocated(range.start));
        }
        let prev_overlaps = self
            .free
            .range(..start)
            .next_back()
            .is_some_and(|(&pstart, &plen)| pstart + plen > start);
        let next_overlaps = self
            .free
            .range(start..)
            .next()
            .is_some_and(|(&nstart, _)| nstart < end);
        if prev_overlaps || next_overlaps || range.len > self.in_use {
            return Err(HwError::DoubleFree { range: *range });
        }
        Ok(())
    }

    /// Return `range` to the free list; a refused free edits nothing.
    fn free(&mut self, range: PhysRange) -> HwResult<()> {
        self.check_free(&range)?;
        let mut start = range.start.raw();
        let mut len = range.len;
        // Coalesce with the previous extent if adjacent.
        if let Some((&pstart, &plen)) = self.free.range(..start).next_back() {
            if pstart + plen == start {
                self.free.remove(&pstart);
                start = pstart;
                len += plen;
            }
        }
        // Coalesce with the next extent if adjacent.
        if let Some((&nstart, &nlen)) = self.free.range(start + len..).next() {
            if start + len == nstart {
                self.free.remove(&nstart);
                len += nlen;
            }
        }
        self.free.insert(start, len);
        self.in_use -= range.len;
        Ok(())
    }
}

/// A populated physical region and its host backing.
#[derive(Clone)]
struct Populated {
    range: PhysRange,
    backing: Arc<Backing>,
}

impl Populated {
    /// The backing keep-alive and `addr`'s offset into it (`addr` lies in
    /// `range`).
    #[inline]
    fn pin(&self, addr: HostPhysAddr) -> (Arc<Backing>, usize) {
        (
            Arc::clone(&self.backing),
            (addr.raw() - self.range.start.raw()) as usize,
        )
    }
}

/// Whether `range` holds all of `addr .. addr + len`. A `len` that carries
/// the sum past `u64::MAX` is held by nothing — unchecked, the wrapped sum
/// would pass for a small one.
#[inline]
fn covers_access(range: &PhysRange, addr: HostPhysAddr, len: u64) -> bool {
    range.contains(addr)
        && addr
            .raw()
            .checked_add(len)
            .is_some_and(|end| end <= range.end().raw())
}

/// Narrowest bucket of a snapshot's table: 2 MiB, the alignment
/// `PiscesHost::add_memory` gives every grant, so an enclave built from
/// many small grants has one region start per bucket.
const BUCKET_SHIFT_MIN: u32 = PageSize::Size2M.shift();

/// Most buckets one table may hold (a 16 KiB table, 8 GiB of span at the
/// narrowest width); a wider populated span doubles the bucket width until
/// it fits.
const MAX_BUCKETS: u64 = 4096;

/// An immutable view of one zone's populated regions, sorted by start
/// address, and a bucket table over their starts. Writers publish a fresh
/// snapshot with a single pointer swap; readers search whichever snapshot
/// they loaded. `generation` identifies the snapshot uniquely within its
/// zone (it increments on every publish to that zone), so a cached
/// `(generation, region)` pair is current iff the generation still equals
/// the zone's generation.
///
/// The table cuts the span from the first region's start to the last
/// region's start into `1 << bucket_shift`-byte buckets and holds, per
/// bucket boundary, how many regions start below it: `starts_below[b]..
/// starts_below[b + 1]` indexes the regions that start in bucket `b`. It is
/// built once, in [`RegionSnapshot::new`], from the list it is stored
/// beside, and neither changes afterwards — a reader that holds a snapshot
/// can never pair the table of one publish with the list of another.
struct RegionSnapshot {
    generation: u64,
    regions: Vec<Populated>,
    /// Start of bucket 0: the first region's start, rounded down to the
    /// bucket width.
    bucket_base: u64,
    bucket_shift: u32,
    /// Buckets + 1 prefix counts (empty for an empty snapshot).
    starts_below: Box<[u32]>,
}

impl RegionSnapshot {
    /// Index `regions` (sorted by start, disjoint): one allocation sized
    /// to the populated span and one pass over the list.
    fn new(generation: u64, regions: Vec<Populated>) -> Self {
        let start = |p: &Populated| p.range.start.raw();
        let (Some(first), Some(last)) = (regions.first().map(start), regions.last().map(start))
        else {
            return RegionSnapshot {
                generation,
                regions,
                bucket_base: 0,
                bucket_shift: BUCKET_SHIFT_MIN,
                starts_below: Box::default(),
            };
        };
        assert!(
            regions.len() <= u32::MAX as usize,
            "region count overflows the bucket table's u32 counts"
        );
        let mut shift = BUCKET_SHIFT_MIN;
        while (last >> shift) - (first >> shift) >= MAX_BUCKETS {
            shift += 1;
        }
        let first_bucket = first >> shift;
        let buckets = ((last >> shift) - first_bucket + 1) as usize;
        let mut starts_below = Vec::with_capacity(buckets + 1);
        for (i, p) in regions.iter().enumerate() {
            // Every boundary up to this region's bucket has `i` starts
            // below it.
            let bucket = ((start(p) >> shift) - first_bucket) as usize;
            starts_below.resize(bucket + 1, i as u32);
        }
        starts_below.push(regions.len() as u32);
        RegionSnapshot {
            generation,
            bucket_base: first_bucket << shift,
            bucket_shift: shift,
            starts_below: starts_below.into_boxed_slice(),
            regions,
        }
    }

    /// The region with the greatest start `<= addr`, if any, and the
    /// dependent loads made to find it (see
    /// [`ZoneStats::search_depth_total`]). The caller still has to
    /// bounds-check `addr` against the region's end.
    ///
    /// Addresses outside the table clamp to its first or last bucket. Below
    /// the first bucket no start is `<= addr`, and bucket 0's search says
    /// so; above the last one every start is, and the last bucket's search
    /// ends on the last region (which starts in it). A bucket with no
    /// start answers with its predecessor — the region that starts in an
    /// earlier bucket and may reach into this one.
    #[inline]
    fn find(&self, addr: u64) -> (Option<&Populated>, u64) {
        let Some(last_bucket) = self.starts_below.len().checked_sub(2) else {
            return (None, 0);
        };
        let bucket = (addr.saturating_sub(self.bucket_base) >> self.bucket_shift)
            .min(last_bucket as u64) as usize;
        let lo = self.starts_below[bucket] as usize;
        let hi = self.starts_below[bucket + 1] as usize;
        let idx = lo + self.regions[lo..hi].partition_point(|p| p.range.start.raw() <= addr);
        // One load for the table entry, then the binary search's
        // `floor(log2 k) + 1` over the bucket's `k` starts — or, with none
        // to search, the one load of the predecessor's entry.
        let probes = 1 + (usize::BITS - (hi - lo).leading_zeros()).max(1);
        (self.regions[..idx].last(), u64::from(probes))
    }

    /// The whole-list search `find` must agree with.
    #[cfg(test)]
    fn find_reference(&self, addr: u64) -> Option<&Populated> {
        let idx = self
            .regions
            .partition_point(|p| p.range.start.raw() <= addr);
        self.regions[..idx].last()
    }
}

/// A resolved populated region: its full geometry, backing, and the zone
/// generation of the snapshot it came from. The generation is the
/// snapshot's own — never re-sampled — so a [`RegionCache`] can never pair
/// a stale region with a fresh generation.
struct ResolvedRegion {
    /// The populated region containing the requested address.
    range: PhysRange,
    /// Host memory behind the region.
    backing: Arc<Backing>,
    /// Zone generation the region was resolved under.
    generation: u64,
}

/// A resolved, bounds-checked view of one populated range: the backing it
/// lives in, found once, plus the physical span the holder may touch.
///
/// Whoever sets up a structure in shared memory (boot parameters, a ring, a
/// command queue) resolves its region into a window — [`PhysMemory::window`],
/// or [`PhysMemory::alloc_window`] when it allocates the region itself —
/// and hands [`MemWindow::sub`]-windows to the parts. Accesses take physical
/// addresses, as the structures themselves store them, and one outside the
/// window (or whose end wraps) is refused, never clamped.
///
/// A window pins its region's host memory like any resolve does; it says
/// nothing about whether the range is still populated.
#[derive(Clone)]
pub struct MemWindow {
    backing: Arc<Backing>,
    /// Offset of `range.start` in `backing`.
    off: usize,
    range: PhysRange,
}

impl MemWindow {
    /// The physical span the window covers.
    pub fn range(&self) -> PhysRange {
        self.range
    }

    /// First physical address of the window.
    pub fn base(&self) -> HostPhysAddr {
        self.range.start
    }

    /// Bytes the window covers.
    pub fn len(&self) -> u64 {
        self.range.len
    }

    /// True for a zero-length window.
    pub fn is_empty(&self) -> bool {
        self.range.len == 0
    }

    /// Offset in the backing of `addr .. addr + len`, if the window holds
    /// all of it.
    #[inline]
    fn locate(&self, addr: HostPhysAddr, len: u64) -> HwResult<usize> {
        let end = addr.raw().checked_add(len);
        if addr.raw() < self.range.start.raw() || end.is_none_or(|e| e > self.range.end().raw()) {
            return Err(HwError::UnbackedPhys(addr));
        }
        Ok(self.off + (addr.raw() - self.range.start.raw()) as usize)
    }

    #[inline]
    fn locate_word(&self, addr: HostPhysAddr) -> HwResult<usize> {
        if !addr.raw().is_multiple_of(8) {
            return Err(HwError::Invalid("unaligned word access"));
        }
        self.locate(addr, 8)
    }

    /// Aligned 64-bit load.
    pub fn read_u64(&self, addr: HostPhysAddr) -> HwResult<u64> {
        Ok(self.backing.read_u64(self.locate_word(addr)?))
    }

    /// Aligned 64-bit store.
    pub fn write_u64(&self, addr: HostPhysAddr, value: u64) -> HwResult<()> {
        self.backing.write_u64(self.locate_word(addr)?, value);
        Ok(())
    }

    /// Copy bytes out of the window.
    pub fn read_bytes(&self, addr: HostPhysAddr, buf: &mut [u8]) -> HwResult<()> {
        self.backing
            .read_bytes(self.locate(addr, buf.len() as u64)?, buf);
        Ok(())
    }

    /// Copy bytes into the window.
    pub fn write_bytes(&self, addr: HostPhysAddr, buf: &[u8]) -> HwResult<()> {
        self.backing
            .write_bytes(self.locate(addr, buf.len() as u64)?, buf);
        Ok(())
    }

    /// The window onto `range`, which this one must hold entirely.
    pub fn sub(&self, range: PhysRange) -> HwResult<MemWindow> {
        Ok(MemWindow {
            off: self.locate(range.start, range.len)?,
            backing: Arc::clone(&self.backing),
            range,
        })
    }

    /// The backing and the offset of the window's first byte in it — what
    /// [`PhysMemory::resolve`] returns for [`MemWindow::range`]. For a
    /// structure that has checked its layout against [`MemWindow::len`] and
    /// then works on the shared words directly (ring cursors, completion
    /// counters).
    pub fn pinned(&self) -> (Arc<Backing>, usize) {
        (Arc::clone(&self.backing), self.off)
    }
}

impl std::fmt::Debug for MemWindow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "MemWindow({:?})", self.range)
    }
}

/// Retired snapshots parked per epoch slot until their grace period ends.
/// The boxes are the exact allocations readers' raw snapshot pointers
/// refer to — moving the snapshots out of them (clippy's suggestion) would
/// free those allocations while readers may still hold the pointers.
#[allow(clippy::vec_box)]
#[derive(Default)]
struct RetiredBuckets {
    buckets: [Vec<Box<RegionSnapshot>>; 2],
}

impl RetiredBuckets {
    fn backlog(&self) -> u64 {
        (self.buckets[0].len() + self.buckets[1].len()) as u64
    }
}

/// One NUMA zone's shard of the populated-region machinery: allocator,
/// current snapshot, epoch-based reclamation state and per-zone counters.
struct ZoneShard {
    alloc: Mutex<ZoneAllocator>,
    /// Current populated-region snapshot for this zone; never null.
    current: AtomicPtr<RegionSnapshot>,
    /// Mirror of the current snapshot's generation, so the region-cache
    /// validity check is one atomic load with no pointer chase.
    generation: AtomicU64,
    /// Reclamation epoch; `epoch & 1` selects the active reader slot and
    /// retired bucket. Advanced by publishes once the previous slot drains.
    epoch: AtomicU64,
    /// In-flight reader sections per epoch slot (Dekker-style SeqCst
    /// pairing with the writer's drain check).
    section_readers: [AtomicU64; 2],
    /// Writer side: serializes publishes to this zone and parks retired
    /// snapshots until their epoch's grace period ends.
    retired: Mutex<RetiredBuckets>,
    // Per-zone observability (all Relaxed; read via `zone_stats`).
    swaps: AtomicU64,
    retired_freed: AtomicU64,
    backlog_high_water: AtomicU64,
    hits: AtomicU64,
    searches: AtomicU64,
    search_depth: AtomicU64,
}

impl ZoneShard {
    fn new(zone: usize, bytes: u64) -> Self {
        let first = Box::new(RegionSnapshot::new(1, Vec::new()));
        ZoneShard {
            alloc: Mutex::new(ZoneAllocator::new(zone, bytes)),
            current: AtomicPtr::new(Box::into_raw(first)),
            generation: AtomicU64::new(1),
            epoch: AtomicU64::new(0),
            section_readers: [AtomicU64::new(0), AtomicU64::new(0)],
            retired: Mutex::new(RetiredBuckets::default()),
            swaps: AtomicU64::new(0),
            retired_freed: AtomicU64::new(0),
            backlog_high_water: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            searches: AtomicU64::new(0),
            search_depth: AtomicU64::new(0),
        }
    }

    /// Enter a reader section: register in the current epoch's slot, then
    /// re-check the epoch. If an advance raced us, our slot may already
    /// have been declared drained — back out and re-register. SeqCst on
    /// every step pairs with the writer's swap-then-drain-check so a
    /// registration the writer did not observe implies our subsequent
    /// snapshot load sees post-retirement pointers only.
    #[inline]
    fn begin_read(&self) -> usize {
        loop {
            let e = self.epoch.load(Ordering::SeqCst);
            let slot = (e & 1) as usize;
            self.section_readers[slot].fetch_add(1, Ordering::SeqCst);
            if self.epoch.load(Ordering::SeqCst) == e {
                return slot;
            }
            self.section_readers[slot].fetch_sub(1, Ordering::SeqCst);
        }
    }

    #[inline]
    fn end_read(&self, slot: usize) {
        self.section_readers[slot].fetch_sub(1, Ordering::Release);
    }
}

/// Per-zone counters mirrored out of a shard (see
/// [`PhysMemory::zone_stats`]). `resolve_misses` counts snapshot searches
/// (every resolve that was not served by a [`RegionCache`] hit);
/// `search_depth_total / resolve_misses` is the average number of
/// dependent loads one search made.
#[derive(Clone, Copy, Debug, Default)]
pub struct ZoneStats {
    /// Snapshots published into this zone.
    pub snapshot_swaps: u64,
    /// Retired snapshots freed after their epoch grace period.
    pub retired_freed: u64,
    /// Retired snapshots currently awaiting a grace period.
    pub retired_backlog: u64,
    /// Highest retired backlog ever observed (the bounded-reclamation
    /// gauge: sustained readers must not let this grow).
    pub retired_backlog_high_water: u64,
    /// Region-cache hits attributed to this zone's addresses.
    pub resolve_hits: u64,
    /// Snapshot searches (resolves not served by a region cache).
    pub resolve_misses: u64,
    /// Dependent loads made to find the candidate region, summed over all
    /// searches. One probe is one load whose address hangs on the previous
    /// one's value: the bucket-table entry for the address (its two
    /// adjacent counts are one load), then the binary search's `floor(log2
    /// k) + 1` steps over the `k` regions that start in that bucket — or,
    /// when none does, the one load of the predecessor's entry. An empty
    /// snapshot costs nothing. The snapshot header (table base, width and
    /// the list pointer) is not counted, as the list pointer never was.
    pub search_depth_total: u64,
}

impl ZoneStats {
    /// Average probes (see `search_depth_total`) per snapshot search.
    pub fn avg_search_depth(&self) -> f64 {
        if self.resolve_misses == 0 {
            0.0
        } else {
            self.search_depth_total as f64 / self.resolve_misses as f64
        }
    }
}

/// A per-enclave region-view generation. The controller hands every
/// enclave's cores a view; reclaim-class changes to that enclave's
/// mappings (memory remove, XEMEM detach) bump it *after* the EPT unmap
/// and shootdown complete, invalidating the enclave's [`RegionCache`]s
/// without touching any other enclave's. Grant-class changes never bump —
/// adding a region cannot make a pinned one stale.
///
/// Contract: a cache with a view attached trades zone-generation
/// invalidation for view-scoped invalidation, so its owner must guarantee
/// that every unmap affecting the enclave's reachable ranges bumps the
/// view (the controller's remove/detach hooks do).
pub struct RegionView {
    generation: AtomicU64,
}

impl RegionView {
    /// A fresh view at generation 1.
    pub fn new() -> Self {
        RegionView {
            generation: AtomicU64::new(1),
        }
    }

    /// Current view generation.
    #[inline]
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// Invalidate every cache holding entries tagged with the current
    /// generation; returns the new generation. Call only after the
    /// triggering unmap is globally visible.
    pub fn bump(&self) -> u64 {
        self.generation.fetch_add(1, Ordering::AcqRel) + 1
    }
}

impl Default for RegionView {
    fn default() -> Self {
        Self::new()
    }
}

/// The node's physical memory: one `ZoneShard` per NUMA zone, plus the
/// global publish count legacy callers key off.
pub struct PhysMemory {
    shards: Vec<ZoneShard>,
    /// Total publishes across all zones (`snapshot_swaps`, the writer-side
    /// cost counter).
    publishes: AtomicU64,
    /// Flight-recorder handle, installed once by the owning node; snapshot
    /// publishes and retire sweeps emit trace events when set.
    tracer: OnceLock<Tracer>,
}

impl PhysMemory {
    /// Build the physical memory of a node with `zone_bytes[i]` bytes of RAM
    /// in zone `i`.
    pub fn new(zone_bytes: &[u64]) -> Self {
        let shards = zone_bytes
            .iter()
            .enumerate()
            .map(|(i, &b)| {
                assert!(
                    b <= ZONE_SPAN - ZONE_RAM_BASE,
                    "zone RAM exceeds the zone span"
                );
                ZoneShard::new(i, b)
            })
            .collect();
        PhysMemory {
            shards,
            publishes: AtomicU64::new(0),
            tracer: OnceLock::new(),
        }
    }

    /// Attach a flight-recorder handle (first call wins; standalone
    /// `PhysMemory` instances in tests simply stay untraced).
    pub fn set_tracer(&self, tracer: Tracer) {
        let _ = self.tracer.set(tracer);
    }

    /// The NUMA zone an address belongs to (derivable from the span
    /// layout). Pure arithmetic: addresses beyond the last configured zone
    /// map to a `ZoneId` with no shard behind it — resolution and
    /// allocation paths bounds-check before indexing.
    pub fn zone_of(&self, addr: HostPhysAddr) -> ZoneId {
        ZoneId((addr.raw() / ZONE_SPAN) as usize)
    }

    /// The shard index for an address, or `UnbackedPhys` if the address
    /// lies beyond the configured zones.
    #[inline]
    fn shard_index(&self, addr: HostPhysAddr) -> HwResult<usize> {
        let z = (addr.raw() / ZONE_SPAN) as usize;
        if z < self.shards.len() {
            Ok(z)
        } else {
            Err(HwError::UnbackedPhys(addr))
        }
    }

    /// Validate that a range is non-empty and zone-local, returning its
    /// zone index. Populate/depopulate/free must be zone-local: a range
    /// straddling a zone-span boundary would have to live in two shards.
    fn range_zone(&self, range: &PhysRange) -> HwResult<usize> {
        if range.len == 0 {
            return Err(HwError::Invalid("zero-length range"));
        }
        let last = range
            .start
            .raw()
            .checked_add(range.len - 1)
            .ok_or(HwError::Invalid("range wraps the physical address space"))?;
        let first_zone = range.start.raw() / ZONE_SPAN;
        if first_zone != last / ZONE_SPAN {
            return Err(HwError::Invalid("range crosses a NUMA zone boundary"));
        }
        let z = first_zone as usize;
        if z >= self.shards.len() {
            return Err(HwError::NoSuchZone(z));
        }
        Ok(z)
    }

    /// (total, in-use) bytes for a zone.
    pub fn zone_usage(&self, zone: ZoneId) -> HwResult<(u64, u64)> {
        let z = self
            .shards
            .get(zone.0)
            .ok_or(HwError::NoSuchZone(zone.0))?
            .alloc
            .lock();
        Ok((z.total, z.in_use))
    }

    /// Per-zone resolution and reclamation counters.
    pub fn zone_stats(&self, zone: ZoneId) -> HwResult<ZoneStats> {
        let s = self.shards.get(zone.0).ok_or(HwError::NoSuchZone(zone.0))?;
        let retired = s.retired.lock();
        Ok(ZoneStats {
            snapshot_swaps: s.swaps.load(Ordering::Relaxed),
            retired_freed: s.retired_freed.load(Ordering::Relaxed),
            retired_backlog: retired.backlog(),
            retired_backlog_high_water: s.backlog_high_water.load(Ordering::Relaxed),
            resolve_hits: s.hits.load(Ordering::Relaxed),
            resolve_misses: s.searches.load(Ordering::Relaxed),
            search_depth_total: s.search_depth.load(Ordering::Relaxed),
        })
    }

    #[inline]
    fn zone_generation_of(&self, addr: HostPhysAddr) -> Option<u64> {
        let z = (addr.raw() / ZONE_SPAN) as usize;
        self.shards
            .get(z)
            .map(|s| s.generation.load(Ordering::SeqCst))
    }

    /// Credit a region-cache hit to the zone owning `addr`.
    #[inline]
    fn note_cache_hit(&self, addr: HostPhysAddr) {
        let z = (addr.raw() / ZONE_SPAN) as usize;
        if let Some(s) = self.shards.get(z) {
            s.hits.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Account one snapshot search that made `probes` dependent loads (what
    /// [`RegionSnapshot::find`] reports; 0 for an empty snapshot).
    #[inline]
    fn note_search(shard: &ZoneShard, probes: u64) {
        shard.searches.fetch_add(1, Ordering::Relaxed);
        if probes > 0 {
            shard.search_depth.fetch_add(probes, Ordering::Relaxed);
        }
    }

    /// Allocate `len` bytes (rounded up to 4 KiB) from `zone` with at least
    /// `align` alignment. Bookkeeping only — the range is *not* populated.
    pub fn alloc(&self, zone: ZoneId, len: u64, align: u64) -> HwResult<PhysRange> {
        if len == 0 {
            return Err(HwError::Invalid("zero-length allocation"));
        }
        let len = len
            .checked_next_multiple_of(PAGE_SIZE_4K)
            .ok_or(HwError::Invalid(
                "allocation length overflows page rounding",
            ))?;
        let align = align.max(PAGE_SIZE_4K);
        let mut z = self
            .shards
            .get(zone.0)
            .ok_or(HwError::NoSuchZone(zone.0))?
            .alloc
            .lock();
        z.alloc(len, align).ok_or(HwError::OutOfMemory {
            zone: zone.0,
            requested: len,
        })
    }

    /// Allocate and immediately populate a range.
    pub fn alloc_backed(&self, zone: ZoneId, len: u64, align: u64) -> HwResult<PhysRange> {
        self.alloc_window(zone, len, align).map(|w| w.range())
    }

    /// [`PhysMemory::alloc_backed`] for a caller that goes on to fill the
    /// range: the window comes from the allocation itself, with no search.
    pub fn alloc_window(&self, zone: ZoneId, len: u64, align: u64) -> HwResult<MemWindow> {
        let range = self.alloc(zone, len, align)?;
        self.populate(range)
    }

    /// Run `f` against one zone's current snapshot inside a reader section.
    #[inline]
    fn with_zone_snapshot<R>(&self, zone: usize, f: impl FnOnce(&RegionSnapshot) -> R) -> R {
        let shard = &self.shards[zone];
        let slot = shard.begin_read();
        // SAFETY: `current` always points at a live snapshot — writers only
        // free a retired bucket after observing its reader slot drained,
        // which our registration above forbids while this reference is
        // alive (see `ZoneShard::begin_read`).
        let r = f(unsafe { &*shard.current.load(Ordering::SeqCst) });
        shard.end_read(slot);
        r
    }

    /// Clone-edit-publish one zone's region list under that zone's writer
    /// mutex. The edit closure may fail, in which case nothing is published
    /// and no generation moves. Publishing also attempts one epoch advance,
    /// freeing the previous epoch's retired bucket if its readers drained.
    fn mutate_zone<R>(
        &self,
        zone: usize,
        f: impl FnOnce(&mut Vec<Populated>) -> HwResult<R>,
    ) -> HwResult<R> {
        let shard = self.shards.get(zone).ok_or(HwError::NoSuchZone(zone))?;
        let mut retired = shard.retired.lock();
        // SAFETY: publishes to this zone are serialized by the mutex we
        // hold, and the *current* snapshot is never retired, so it stays
        // live here.
        let cur = unsafe { &*shard.current.load(Ordering::SeqCst) };
        let mut regions = cur.regions.clone();
        let out = f(&mut regions)?;
        let next_gen = cur.generation + 1;
        let next = Box::new(RegionSnapshot::new(next_gen, regions));
        // Publish the generation before the snapshot: a region cache racing
        // with this publish can only *miss* (generation mismatch while the
        // old snapshot is still current), never hit on just-reclaimed data.
        shard.generation.store(next_gen, Ordering::SeqCst);
        let old = shard.current.swap(Box::into_raw(next), Ordering::SeqCst);
        let e = shard.epoch.load(Ordering::SeqCst);
        // SAFETY: `old` came out of Box::into_raw at the previous publish
        // (or construction) and is retired exactly once — here.
        retired.buckets[(e & 1) as usize].push(unsafe { Box::from_raw(old) });
        let backlog = retired.backlog();
        let mut new_high = 0;
        if backlog > shard.backlog_high_water.load(Ordering::Relaxed) {
            shard.backlog_high_water.store(backlog, Ordering::Relaxed);
            new_high = backlog;
        }
        // Grace period: the previous slot drained means every reader that
        // could still hold a pointer retired in epoch `e - 1` has exited
        // (readers registered at epoch `e` observed the advance to `e` —
        // SeqCst — and therefore post-retirement pointers only). Free that
        // bucket and advance; a busy previous slot just defers to a later
        // publish, and the registration protocol guarantees it drains.
        let stale = ((e + 1) & 1) as usize;
        let mut advance = shard.section_readers[stale].load(Ordering::SeqCst) == 0;
        if !advance && backlog > RETIRE_BACKLOG_SOFT_CAP {
            // A publish burst can outpace a reader preempted mid-section
            // (its slot never drains while it holds no CPU). Donate the
            // writer's timeslice — a bounded number of times — so the
            // straggler can finish its nanosecond-scale section; then
            // re-check. With the budget exhausted the publish proceeds
            // without freeing: the writer never blocks indefinitely.
            for _ in 0..RETIRE_YIELD_BUDGET {
                std::thread::yield_now();
                if shard.section_readers[stale].load(Ordering::SeqCst) == 0 {
                    advance = true;
                    break;
                }
            }
        }
        let mut freed = 0u64;
        if advance {
            freed = retired.buckets[stale].len() as u64;
            retired.buckets[stale].clear();
            shard.epoch.store(e + 1, Ordering::SeqCst);
        }
        drop(retired);
        shard.swaps.fetch_add(1, Ordering::Relaxed);
        if freed > 0 {
            shard.retired_freed.fetch_add(freed, Ordering::Relaxed);
        }
        self.publishes.fetch_add(1, Ordering::SeqCst);
        if let Some(t) = self.tracer.get() {
            t.emit(EventKind::ZonePublish, zone as u64, next_gen);
            if freed > 0 {
                t.emit(EventKind::ZoneRetire, zone as u64, freed);
            }
            if new_high > 0 {
                t.emit(EventKind::RetireBacklog, zone as u64, new_high);
            }
        }
        Ok(out)
    }

    /// Attach real host memory to an allocated range so it can be accessed,
    /// and hand back the window onto the new backing.
    fn populate(&self, range: PhysRange) -> HwResult<MemWindow> {
        let zone = self.range_zone(&range)?;
        self.mutate_zone(zone, |regions| {
            let idx = regions.partition_point(|p| p.range.start.raw() < range.start.raw());
            // Regions are sorted and disjoint, so only the immediate
            // neighbours can overlap the newcomer.
            let clash = (idx > 0 && regions[idx - 1].range.overlaps(&range))
                || (idx < regions.len() && regions[idx].range.overlaps(&range));
            if clash {
                return Err(HwError::Invalid(
                    "populate overlaps an existing populated region",
                ));
            }
            let backing = Arc::new(Backing::new(range.len as usize)?);
            let window = MemWindow {
                backing: Arc::clone(&backing),
                off: 0,
                range,
            };
            regions.insert(idx, Populated { range, backing });
            Ok(window)
        })
    }

    /// Drop the backing of a populated range (exact match required).
    fn depopulate(&self, range: PhysRange) -> HwResult<()> {
        let zone = self.range_zone(&range)?;
        self.mutate_zone(zone, |regions| {
            match regions.binary_search_by_key(&range.start.raw(), |p| p.range.start.raw()) {
                Ok(i) if regions[i].range == range => {
                    regions.remove(i);
                    Ok(())
                }
                _ => Err(HwError::NotAllocated(range.start)),
            }
        })
    }

    /// Return the range to its zone's free list (and drop backing if any).
    /// A range the allocator refuses ([`HwError::DoubleFree`], or
    /// `NotAllocated` outside the zone's RAM) keeps its backing: nothing is
    /// depopulated, published or edited.
    pub fn free(&self, range: PhysRange) -> HwResult<()> {
        let zone = self.range_zone(&range)?;
        // Ask first, and keep the allocator locked until the edit so the
        // answer cannot go stale in between.
        let mut alloc = self.shards[zone].alloc.lock();
        alloc.check_free(&range)?;
        // Bookkeeping-only ranges fail the exact-match depopulate, which
        // then publishes nothing — no spurious generation bump.
        match self.depopulate(range) {
            Ok(()) | Err(HwError::NotAllocated(_)) => {}
            Err(e) => return Err(e),
        }
        alloc.free(range)
    }

    /// Snapshot swaps published so far across all zones (the writer-side
    /// cost counter the scaling harness reports).
    pub fn snapshot_swaps(&self) -> u64 {
        self.publishes.load(Ordering::SeqCst)
    }

    /// Number of populated regions right now, across all zones.
    pub fn populated_regions(&self) -> usize {
        (0..self.shards.len())
            .map(|z| self.with_zone_snapshot(z, |s| s.regions.len()))
            .sum()
    }

    /// The populated region of snapshot `s` holding all of `addr .. addr +
    /// len`; every snapshot search goes through here and is accounted to
    /// `shard`.
    #[inline]
    fn resolve_in<'s>(
        shard: &ZoneShard,
        s: &'s RegionSnapshot,
        addr: HostPhysAddr,
        len: u64,
    ) -> HwResult<&'s Populated> {
        let (found, probes) = s.find(addr.raw());
        Self::note_search(shard, probes);
        found
            .filter(|p| covers_access(&p.range, addr, len))
            .ok_or(HwError::UnbackedPhys(addr))
    }

    /// Resolve a physical address to a host pointer valid for `len` bytes,
    /// plus the backing keep-alive. Fails if the range is not fully inside
    /// one populated region. Lock-free: one atomic load + bucketed search
    /// in the owning zone's shard only.
    pub fn resolve(&self, addr: HostPhysAddr, len: u64) -> HwResult<(Arc<Backing>, usize)> {
        let zone = self.shard_index(addr)?;
        self.with_zone_snapshot(zone, |s| {
            Self::resolve_in(&self.shards[zone], s, addr, len).map(|p| p.pin(addr))
        })
    }

    /// Resolve to the *whole* containing region (for [`RegionCache`]):
    /// geometry, backing, and the zone snapshot's generation.
    fn resolve_region(&self, addr: HostPhysAddr, len: u64) -> HwResult<ResolvedRegion> {
        let zone = self.shard_index(addr)?;
        self.with_zone_snapshot(zone, |s| {
            let p = Self::resolve_in(&self.shards[zone], s, addr, len)?;
            Ok(ResolvedRegion {
                range: p.range,
                backing: Arc::clone(&p.backing),
                generation: s.generation,
            })
        })
    }

    /// Resolve a populated range into a [`MemWindow`]: one snapshot search,
    /// after which every access to the range is a bounds check. Fails unless
    /// one populated region holds all of `range`.
    pub fn window(&self, range: PhysRange) -> HwResult<MemWindow> {
        self.window_in(range.start, range.len, |_| range)
    }

    /// The window from `addr` to the end of the populated region holding
    /// it — for a reader that is handed only the address of a structure
    /// whose extent is written inside it (a kernel and its boot parameters).
    pub fn window_from(&self, addr: HostPhysAddr) -> HwResult<MemWindow> {
        self.window_in(addr, 1, |p| {
            PhysRange::new(addr, p.range.end().raw() - addr.raw())
        })
    }

    /// One search for `addr .. addr + len`, then the window `span` picks
    /// inside the region found (it starts at `addr`).
    fn window_in(
        &self,
        addr: HostPhysAddr,
        len: u64,
        span: impl FnOnce(&Populated) -> PhysRange,
    ) -> HwResult<MemWindow> {
        let zone = self.shard_index(addr)?;
        self.with_zone_snapshot(zone, |s| {
            let p = Self::resolve_in(&self.shards[zone], s, addr, len)?;
            let (backing, off) = p.pin(addr);
            Ok(MemWindow {
                backing,
                off,
                range: span(p),
            })
        })
    }

    /// Aligned 64-bit physical load.
    #[inline]
    pub fn read_u64(&self, addr: HostPhysAddr) -> HwResult<u64> {
        let (b, off) = self.resolve(addr, 8)?;
        Ok(b.read_u64(off))
    }

    /// Aligned 64-bit physical store.
    #[inline]
    pub fn write_u64(&self, addr: HostPhysAddr, value: u64) -> HwResult<()> {
        let (b, off) = self.resolve(addr, 8)?;
        b.write_u64(off, value);
        Ok(())
    }
}

impl Drop for PhysMemory {
    fn drop(&mut self) {
        // No readers can exist with &mut self; free each shard's current
        // snapshot (retired ones drop with the mutex-held buckets).
        for shard in &mut self.shards {
            let ptr = *shard.current.get_mut();
            if !ptr.is_null() {
                // SAFETY: `current` is only ever set from Box::into_raw and
                // is freed exactly once, here.
                drop(unsafe { Box::from_raw(ptr) });
            }
        }
    }
}

impl std::fmt::Debug for PhysMemory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "PhysMemory({} zones, {} populated regions)",
            self.shards.len(),
            self.populated_regions()
        )
    }
}

/// A cached way: a resolved region plus the tag it must match to hit —
/// the zone generation it was resolved under, or the owning enclave's
/// view generation when a [`RegionView`] is attached.
struct CachedWay {
    region: ResolvedRegion,
    tag: u64,
}

/// Core-local set-associative cache of recently-resolved populated
/// regions. Like the TLB and the EPT walk cache it is core-private
/// (interior mutability, one thread per core), so a hit costs one atomic
/// generation load and zero shared-state traffic — the common case for
/// streaming TLB fills and walk loads landing in a handful of grant
/// regions. Up to [`REGION_CACHE_WAYS`] ways (fully associative,
/// round-robin victim) keep fragmented enclaves — many small grants — from
/// thrashing the single pinned slot the cache used to be.
///
/// A way pins its region's host memory. Its tag can only fall behind, so a
/// lookup that passes over a way with a stale tag drops it there and then —
/// the core's first resolve after a reclaim releases the reclaimed backing,
/// not the fourth fill after it.
///
/// Reclaim safety, plain mode: a hit requires the pinned region's zone
/// generation to equal the owning zone's *current* generation. Any publish
/// to that zone — including the reclaim of an unrelated region — bumps it
/// and demotes the next lookup to a snapshot search; publishes to *other*
/// zones change nothing here, so remote-zone churn cannot dent the hit
/// rate.
///
/// Reclaim safety, view mode (`set_view`): ways are tagged with the
/// enclave's [`RegionView`] generation, sampled *before* the fill resolve,
/// and hit only while it is unchanged — so a bump racing a fill strands
/// the new way at the old tag (a conservative miss, never a stale hit).
/// Sibling enclaves' grant/reclaim churn leaves this cache hot; the view
/// owner must bump on every unmap affecting this enclave (see
/// [`RegionView`]).
pub struct RegionCache {
    ways: RefCell<Vec<Option<CachedWay>>>,
    /// Round-robin fill cursor.
    victim: Cell<usize>,
    /// Active associativity (1..=REGION_CACHE_WAYS; ablation knob).
    ways_limit: Cell<usize>,
    view: RefCell<Option<Arc<RegionView>>>,
    hits: Cell<u64>,
    misses: Cell<u64>,
}

impl RegionCache {
    /// An empty cache at full associativity.
    pub fn new() -> Self {
        RegionCache {
            ways: RefCell::new((0..REGION_CACHE_WAYS).map(|_| None).collect()),
            victim: Cell::new(0),
            ways_limit: Cell::new(REGION_CACHE_WAYS),
            view: RefCell::new(None),
            hits: Cell::new(0),
            misses: Cell::new(0),
        }
    }

    /// Ablation knob: restrict the cache to `ways` ways (clamped to
    /// `1..=REGION_CACHE_WAYS`); drops every current entry.
    pub fn set_ways(&self, ways: usize) {
        self.ways_limit.set(ways.clamp(1, REGION_CACHE_WAYS));
        self.victim.set(0);
        self.invalidate();
    }

    /// Attach (or detach) a per-enclave region view; entries are then
    /// tagged and validated by the view's generation instead of zone
    /// generations. Drops every current entry.
    pub fn set_view(&self, view: Option<Arc<RegionView>>) {
        *self.view.borrow_mut() = view;
        self.invalidate();
    }

    /// Resolve `addr` for `len` bytes through the cache, falling back to
    /// (and re-pinning from) the snapshot on miss.
    #[inline]
    pub fn resolve(
        &self,
        mem: &PhysMemory,
        addr: HostPhysAddr,
        len: u64,
    ) -> HwResult<(Arc<Backing>, usize)> {
        let mut fill = false;
        let mut view_tag = None;
        // The validity tag, sampled before the lookup (and, for a view,
        // before the fill's resolve — see the view-mode race note on the
        // type).
        let tag = match self.view.borrow().as_ref() {
            Some(v) => {
                let g = v.generation();
                view_tag = Some(g);
                Some(g)
            }
            None => mem.zone_generation_of(addr),
        };
        if let Some(tag) = tag {
            let mut ways = self.ways.borrow_mut();
            for slot in ways.iter_mut().take(self.ways_limit.get()) {
                let Some(w) = slot else { continue };
                if w.tag == tag {
                    if covers_access(&w.region.range, addr, len) {
                        self.hits.set(self.hits.get() + 1);
                        mem.note_cache_hit(addr);
                        return Ok((
                            Arc::clone(&w.region.backing),
                            (addr.raw() - w.region.range.start.raw()) as usize,
                        ));
                    }
                } else if view_tag.is_some()
                    || mem.zone_generation_of(w.region.range.start) != Some(w.tag)
                {
                    // Generations only grow, so a way behind its view (or,
                    // in plain mode, behind its own zone — `tag` may be
                    // another zone's) can never hit again. Drop it now: its
                    // `Arc` may be the last reference to a reclaimed
                    // region's host memory.
                    *slot = None;
                }
            }
            fill = true;
        }
        self.misses.set(self.misses.get() + 1);
        let r = mem.resolve_region(addr, len)?;
        let off = (addr.raw() - r.range.start.raw()) as usize;
        if fill {
            // Plain mode tags with the snapshot's own zone generation
            // (never re-sampled); view mode with the pre-resolve view
            // generation.
            let tag = view_tag.unwrap_or(r.generation);
            let backing = Arc::clone(&r.backing);
            let mut ways = self.ways.borrow_mut();
            let v = self.victim.get() % self.ways_limit.get();
            ways[v] = Some(CachedWay { region: r, tag });
            self.victim.set((v + 1) % self.ways_limit.get());
            return Ok((backing, off));
        }
        Ok((r.backing, off))
    }

    /// (hits, misses) so far.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits.get(), self.misses.get())
    }

    /// Drop every pinned region (the generation checks make this
    /// unnecessary for correctness).
    fn invalidate(&self) {
        for w in self.ways.borrow_mut().iter_mut() {
            *w = None;
        }
    }
}

impl Default for RegionCache {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem() -> PhysMemory {
        PhysMemory::new(&[64 * 1024 * 1024, 64 * 1024 * 1024])
    }

    #[test]
    fn alloc_is_zone_local_and_aligned() {
        let m = mem();
        let r0 = m.alloc(ZoneId(0), 8192, PAGE_SIZE_4K).unwrap();
        let r1 = m.alloc(ZoneId(1), 8192, PAGE_SIZE_4K).unwrap();
        assert_eq!(m.zone_of(r0.start), ZoneId(0));
        assert_eq!(m.zone_of(r1.start), ZoneId(1));
        assert_eq!(r0.start.align_down(PAGE_SIZE_4K), r0.start);
    }

    #[test]
    fn alloc_respects_large_alignment() {
        let m = mem();
        let r = m.alloc(ZoneId(0), 4096, 2 * 1024 * 1024).unwrap();
        assert_eq!(r.start.align_down(2 * 1024 * 1024), r.start);
    }

    #[test]
    fn alloc_rounds_to_page() {
        let m = mem();
        let r = m.alloc(ZoneId(0), 1, PAGE_SIZE_4K).unwrap();
        assert_eq!(r.len, PAGE_SIZE_4K);
    }

    #[test]
    fn out_of_memory_reported() {
        let m = PhysMemory::new(&[1024 * 1024]);
        let e = m
            .alloc(ZoneId(0), 2 * 1024 * 1024, PAGE_SIZE_4K)
            .unwrap_err();
        assert!(matches!(e, HwError::OutOfMemory { zone: 0, .. }));
    }

    #[test]
    fn alloc_len_overflow_rejected() {
        let m = mem();
        // Page-rounding u64::MAX would overflow; must error, not wrap.
        let e = m.alloc(ZoneId(0), u64::MAX, PAGE_SIZE_4K).unwrap_err();
        assert!(matches!(e, HwError::Invalid(_)));
        let e = m.alloc(ZoneId(0), u64::MAX - 7, PAGE_SIZE_4K).unwrap_err();
        assert!(matches!(e, HwError::Invalid(_)));
    }

    #[test]
    fn zone_boundary_first_and_last_byte() {
        let m = mem();
        // Last byte of zone 0 and first byte of zone 1.
        assert_eq!(m.zone_of(HostPhysAddr::new(ZONE_SPAN - 1)), ZoneId(0));
        assert_eq!(m.zone_of(HostPhysAddr::new(ZONE_SPAN)), ZoneId(1));
        assert_eq!(m.zone_of(HostPhysAddr::new(0)), ZoneId(0));
        // zone_of is pure arithmetic; shard-backed APIs bounds-check.
        assert_eq!(m.zone_of(HostPhysAddr::new(5 * ZONE_SPAN)), ZoneId(5));
        assert!(matches!(
            m.zone_usage(ZoneId(2)),
            Err(HwError::NoSuchZone(2))
        ));
        assert!(matches!(
            m.zone_stats(ZoneId(2)),
            Err(HwError::NoSuchZone(2))
        ));
        // Resolution beyond the last configured zone is unbacked, not a
        // panic or a wrong-shard search.
        assert!(matches!(
            m.resolve(HostPhysAddr::new(5 * ZONE_SPAN + ZONE_RAM_BASE), 8),
            Err(HwError::UnbackedPhys(_))
        ));
    }

    #[test]
    fn cross_zone_and_degenerate_ranges_rejected() {
        let m = mem();
        // A range straddling the zone 0 / zone 1 span boundary would have
        // to live in two shards; populate and free both reject it.
        let straddle = PhysRange::new(HostPhysAddr::new(ZONE_SPAN - 4096), 8192);
        assert!(matches!(m.populate(straddle), Err(HwError::Invalid(_))));
        assert!(matches!(m.free(straddle), Err(HwError::Invalid(_))));
        // Zero-length ranges are degenerate.
        let empty = PhysRange::new(HostPhysAddr::new(ZONE_RAM_BASE), 0);
        assert!(matches!(m.populate(empty), Err(HwError::Invalid(_))));
        assert!(matches!(m.free(empty), Err(HwError::Invalid(_))));
        // A range wrapping the address space is degenerate, not a panic.
        let wrap = PhysRange::new(HostPhysAddr::new(u64::MAX - 4095), 8192);
        assert!(matches!(m.populate(wrap), Err(HwError::Invalid(_))));
        // A range entirely beyond the configured zones has no shard.
        let beyond = PhysRange::new(HostPhysAddr::new(3 * ZONE_SPAN + ZONE_RAM_BASE), 4096);
        assert!(matches!(m.populate(beyond), Err(HwError::NoSuchZone(3))));
        assert!(matches!(m.free(beyond), Err(HwError::NoSuchZone(3))));
    }

    #[test]
    fn free_coalesces() {
        let m = mem();
        let a = m.alloc(ZoneId(0), 4096, PAGE_SIZE_4K).unwrap();
        let b = m.alloc(ZoneId(0), 4096, PAGE_SIZE_4K).unwrap();
        let c = m.alloc(ZoneId(0), 4096, PAGE_SIZE_4K).unwrap();
        m.free(b).unwrap();
        m.free(a).unwrap();
        m.free(c).unwrap();
        // After coalescing everything, a fresh max-size alloc succeeds.
        let (total, in_use) = m.zone_usage(ZoneId(0)).unwrap();
        assert_eq!(in_use, 0);
        let big = m.alloc(ZoneId(0), total, PAGE_SIZE_4K).unwrap();
        assert_eq!(big.len, total);
    }

    #[test]
    fn resolve_requires_population() {
        let m = mem();
        let r = m.alloc(ZoneId(0), 4096, PAGE_SIZE_4K).unwrap();
        assert!(matches!(m.read_u64(r.start), Err(HwError::UnbackedPhys(_))));
        m.populate(r).unwrap();
        assert_eq!(m.read_u64(r.start).unwrap(), 0);
    }

    #[test]
    fn rw_roundtrip_across_regions() {
        let m = mem();
        let r = m.alloc_backed(ZoneId(0), 8192, PAGE_SIZE_4K).unwrap();
        m.write_u64(r.start.add(4096), 99).unwrap();
        assert_eq!(m.read_u64(r.start.add(4096)).unwrap(), 99);
        // A straddling read past the end fails.
        assert!(m.resolve(r.start.add(8192 - 4), 8).is_err());
    }

    #[test]
    fn depopulate_then_access_fails() {
        let m = mem();
        let r = m.alloc_backed(ZoneId(0), 4096, PAGE_SIZE_4K).unwrap();
        m.write_u64(r.start, 1).unwrap();
        m.depopulate(r).unwrap();
        assert!(m.read_u64(r.start).is_err());
    }

    #[test]
    fn populate_overlap_rejected() {
        let m = mem();
        let r = m.alloc_backed(ZoneId(0), 8192, PAGE_SIZE_4K).unwrap();
        let inner = PhysRange::new(r.start.add(4096), 4096);
        assert!(m.populate(inner).is_err());
    }

    #[test]
    fn zone_usage_tracks() {
        let m = mem();
        let r = m.alloc(ZoneId(0), 4096, PAGE_SIZE_4K).unwrap();
        assert_eq!(m.zone_usage(ZoneId(0)).unwrap().1, 4096);
        m.free(r).unwrap();
        assert_eq!(m.zone_usage(ZoneId(0)).unwrap().1, 0);
    }

    #[test]
    fn generation_bumps_on_publish_only() {
        let m = mem();
        let r = m.alloc(ZoneId(0), 4096, PAGE_SIZE_4K).unwrap();
        // Bookkeeping-only alloc does not publish.
        assert_eq!(m.snapshot_swaps(), 0);
        m.populate(r).unwrap();
        assert_eq!(m.snapshot_swaps(), 1);
        // Failed publishes do not move the generation.
        assert!(m.populate(r).is_err());
        assert_eq!(m.snapshot_swaps(), 1);
        m.free(r).unwrap();
        assert_eq!(m.snapshot_swaps(), 2);
        // Freeing a bookkeeping-only range does not publish.
        let r2 = m.alloc(ZoneId(0), 4096, PAGE_SIZE_4K).unwrap();
        m.free(r2).unwrap();
        assert_eq!(m.snapshot_swaps(), 2);
    }

    #[test]
    fn zone_generations_are_independent() {
        let m = mem();
        let generation = |zone: u64| m.zone_generation_of(HostPhysAddr::new(zone * ZONE_SPAN));
        let (z0, z1) = (generation(0).unwrap(), generation(1).unwrap());
        let r = m.alloc_backed(ZoneId(0), 4096, PAGE_SIZE_4K).unwrap();
        // A zone-0 publish moves zone 0's generation and the global count,
        // but never zone 1's.
        assert_eq!(generation(0), Some(z0 + 1));
        assert_eq!(generation(1), Some(z1));
        assert_eq!(m.snapshot_swaps(), 1);
        assert_eq!(m.zone_stats(ZoneId(0)).unwrap().snapshot_swaps, 1);
        assert_eq!(m.zone_stats(ZoneId(1)).unwrap().snapshot_swaps, 0);
        let _ = r;
    }

    #[test]
    fn region_cache_hits_and_generation_invalidation() {
        let m = mem();
        let cache = RegionCache::new();
        let r = m.alloc_backed(ZoneId(0), 8192, PAGE_SIZE_4K).unwrap();
        // First lookup misses, the rest of the region hits.
        cache.resolve(&m, r.start, 8).unwrap();
        cache.resolve(&m, r.start.add(4096), 8).unwrap();
        assert_eq!(cache.stats(), (1, 1));
        // A publish in a *different* zone leaves the pinned way valid:
        // cross-zone churn no longer dents the hit rate.
        let other = m.alloc_backed(ZoneId(1), 4096, PAGE_SIZE_4K).unwrap();
        cache.resolve(&m, r.start, 8).unwrap();
        assert_eq!(cache.stats(), (2, 1));
        // A publish in the *same* zone bumps its generation: next lookup
        // misses, then re-pins.
        let same = m.alloc_backed(ZoneId(0), 4096, PAGE_SIZE_4K).unwrap();
        cache.resolve(&m, r.start, 8).unwrap();
        assert_eq!(cache.stats(), (2, 2));
        cache.resolve(&m, r.start.add(8), 8).unwrap();
        assert_eq!(cache.stats(), (3, 2));
        let _ = (other, same);
    }

    #[test]
    fn region_cache_never_resolves_reclaimed_region() {
        let m = mem();
        let cache = RegionCache::new();
        let r = m.alloc_backed(ZoneId(0), 4096, PAGE_SIZE_4K).unwrap();
        cache.resolve(&m, r.start, 8).unwrap();
        m.free(r).unwrap();
        // The pinned region's zone generation is stale; resolution must
        // fail, not serve the reclaimed backing.
        assert!(matches!(
            cache.resolve(&m, r.start, 8),
            Err(HwError::UnbackedPhys(_))
        ));
    }

    #[test]
    fn region_cache_set_associativity_covers_working_set() {
        let m = mem();
        let cache = RegionCache::new();
        let regions: Vec<PhysRange> = (0..REGION_CACHE_WAYS)
            .map(|_| m.alloc_backed(ZoneId(0), 4096, PAGE_SIZE_4K).unwrap())
            .collect();
        // Warm every way, then a second pass over the working set hits on
        // all four ways.
        for r in &regions {
            cache.resolve(&m, r.start, 8).unwrap();
        }
        let warm = cache.stats();
        for _ in 0..3 {
            for r in &regions {
                cache.resolve(&m, r.start, 8).unwrap();
            }
        }
        assert_eq!(
            cache.stats(),
            (warm.0 + 3 * REGION_CACHE_WAYS as u64, warm.1)
        );
        // The same working set thrashes a single-way cache: round-robin
        // over N regions with 1 way never revisits the pinned one.
        cache.set_ways(1);
        assert_eq!(cache.ways_limit.get(), 1);
        for r in &regions {
            cache.resolve(&m, r.start, 8).unwrap();
        }
        let warm = cache.stats();
        for r in &regions {
            cache.resolve(&m, r.start, 8).unwrap();
        }
        assert_eq!(cache.stats(), (warm.0, warm.1 + REGION_CACHE_WAYS as u64));
        // The knob clamps.
        cache.set_ways(0);
        assert_eq!(cache.ways_limit.get(), 1);
        cache.set_ways(1000);
        assert_eq!(cache.ways_limit.get(), REGION_CACHE_WAYS);
    }

    #[test]
    fn region_view_scopes_invalidation_to_the_enclave() {
        let m = mem();
        let view = Arc::new(RegionView::new());
        let cache = RegionCache::new();
        cache.set_view(Some(Arc::clone(&view)));
        let r = m.alloc_backed(ZoneId(0), 8192, PAGE_SIZE_4K).unwrap();
        cache.resolve(&m, r.start, 8).unwrap();
        cache.resolve(&m, r.start.add(8), 8).unwrap();
        assert_eq!(cache.stats(), (1, 1));
        // A same-zone publish on behalf of *another* enclave does not bump
        // this enclave's view: the pinned way stays hot.
        let sibling = m.alloc_backed(ZoneId(0), 4096, PAGE_SIZE_4K).unwrap();
        cache.resolve(&m, r.start, 8).unwrap();
        assert_eq!(cache.stats(), (2, 1));
        // Bumping the view (what the controller does after an unmap
        // affecting this enclave) invalidates every way.
        view.bump();
        cache.resolve(&m, r.start, 8).unwrap();
        assert_eq!(cache.stats(), (2, 2));
        let _ = sibling;
    }

    #[test]
    fn region_view_bump_blocks_reclaimed_region() {
        let m = mem();
        let view = Arc::new(RegionView::new());
        let cache = RegionCache::new();
        cache.set_view(Some(Arc::clone(&view)));
        let r = m.alloc_backed(ZoneId(0), 4096, PAGE_SIZE_4K).unwrap();
        cache.resolve(&m, r.start, 8).unwrap();
        // Reclaim + view bump (the controller's remove-acked sequence):
        // the cache must fall through to the snapshot and fail.
        m.free(r).unwrap();
        view.bump();
        assert!(matches!(
            cache.resolve(&m, r.start, 8),
            Err(HwError::UnbackedPhys(_))
        ));
    }

    /// What a refused free must leave alone: usage, the free list, the
    /// zone's generation and its populated regions.
    fn zone0_state(m: &PhysMemory) -> ((u64, u64), BTreeMap<u64, u64>, u64, Vec<PhysRange>) {
        (
            m.zone_usage(ZoneId(0)).unwrap(),
            m.shards[0].alloc.lock().free.clone(),
            m.zone_generation_of(HostPhysAddr::new(0)).unwrap(),
            m.with_zone_snapshot(0, |s| s.regions.iter().map(|p| p.range).collect()),
        )
    }

    #[test]
    fn double_free_is_a_typed_error_and_changes_nothing() {
        let m = mem();
        let keep = m.alloc_backed(ZoneId(0), 8192, PAGE_SIZE_4K).unwrap();
        let a = m.alloc_backed(ZoneId(0), 8192, PAGE_SIZE_4K).unwrap();
        m.free(a).unwrap();
        let before = zone0_state(&m);
        assert_eq!(m.free(a), Err(HwError::DoubleFree { range: a }));
        // Half of it, too: the previous extent reaches over the start.
        let tail = PhysRange::new(a.start.add(4096), 4096);
        assert_eq!(m.free(tail), Err(HwError::DoubleFree { range: tail }));
        assert_eq!(zone0_state(&m), before);
        m.free(keep).unwrap();
        assert_eq!(m.zone_usage(ZoneId(0)).unwrap().1, 0);
    }

    #[test]
    fn free_reaching_into_the_next_free_extent_is_refused() {
        let m = mem();
        let a = m.alloc_backed(ZoneId(0), 4096, PAGE_SIZE_4K).unwrap();
        let b = m.alloc(ZoneId(0), 4096, PAGE_SIZE_4K).unwrap();
        let c = m.alloc(ZoneId(0), 4096, PAGE_SIZE_4K).unwrap();
        assert!(a.end() == b.start && b.end() == c.start);
        m.free(b).unwrap();
        // Starts in allocated `a` (no free extent before it) and runs on
        // into free `b`: only the next extent gives it away.
        let before = zone0_state(&m);
        let over = PhysRange::new(a.start, 8192);
        assert_eq!(m.free(over), Err(HwError::DoubleFree { range: over }));
        assert_eq!(zone0_state(&m), before);
        assert_eq!(m.read_u64(a.start).unwrap(), 0);
        m.free(a).unwrap();
        m.free(c).unwrap();
        assert_eq!(m.zone_usage(ZoneId(0)).unwrap().1, 0);
    }

    #[test]
    fn free_of_a_never_allocated_range_is_refused() {
        let m = mem();
        let a = m.alloc(ZoneId(0), 4096, PAGE_SIZE_4K).unwrap();
        // Populated behind the allocator's back, in space it holds free:
        // the refused free must not take the backing away.
        let rogue = PhysRange::new(a.start.add(1 << 20), 4096);
        m.populate(rogue).unwrap();
        let before = zone0_state(&m);
        assert_eq!(m.free(rogue), Err(HwError::DoubleFree { range: rogue }));
        // Inside the zone's span but past its 64 MiB of RAM.
        let beyond = PhysRange::new(HostPhysAddr::new(ZONE_RAM_BASE + (64 << 20)), 4096);
        assert_eq!(m.free(beyond), Err(HwError::NotAllocated(beyond.start)));
        let below = PhysRange::new(HostPhysAddr::new(ZONE_RAM_BASE - 4096), 8192);
        assert_eq!(m.free(below), Err(HwError::NotAllocated(below.start)));
        assert_eq!(zone0_state(&m), before);
        assert_eq!(m.read_u64(rogue.start).unwrap(), 0);
    }

    #[test]
    fn oversized_len_is_unbacked_not_a_wrapped_sum() {
        let m = mem();
        let r = m.alloc_backed(ZoneId(0), 8192, PAGE_SIZE_4K).unwrap();
        // An address in the last populated page: `addr + u64::MAX` wraps to
        // `addr - 1`, which is below the region's end.
        let addr = r.start.add(4096 + 8);
        let unbacked = Err(HwError::UnbackedPhys(addr));
        assert_eq!(m.resolve(addr, u64::MAX).map(|_| ()), unbacked);
        let cache = RegionCache::new();
        cache.resolve(&m, addr, 8).unwrap();
        assert_eq!(cache.resolve(&m, addr, u64::MAX).map(|_| ()), unbacked);
        // The warm way refused it (a miss), and still serves honest sizes.
        assert_eq!(cache.stats(), (0, 2));
        cache.resolve(&m, addr, 4096 - 8).unwrap();
        assert_eq!(cache.stats(), (1, 2));
    }

    /// Grant, touch through `cache`, reclaim (bumping `view` if the cache
    /// has one), then resolve something else: that first resolve must let
    /// go of the reclaimed region's host memory.
    fn first_resolve_after_reclaim_releases_backing(view: Option<Arc<RegionView>>) {
        let m = mem();
        let cache = RegionCache::new();
        cache.set_view(view.clone());
        let other = m.alloc_backed(ZoneId(0), 4096, PAGE_SIZE_4K).unwrap();
        let r = m.alloc_backed(ZoneId(0), 4096, PAGE_SIZE_4K).unwrap();
        let retired = Arc::downgrade(&cache.resolve(&m, r.start, 8).unwrap().0);
        m.free(r).unwrap();
        if let Some(v) = &view {
            v.bump();
        }
        // Two more publishes push the snapshots that still list `r` out of
        // the retire buckets; the cache's way is then the last holder.
        let scratch = m.alloc_backed(ZoneId(0), 4096, PAGE_SIZE_4K).unwrap();
        m.free(scratch).unwrap();
        assert!(retired.upgrade().is_some(), "the way should still pin it");
        let before = cache.stats();
        cache.resolve(&m, other.start, 8).unwrap();
        assert!(retired.upgrade().is_none(), "stale way kept the backing");
        // Dropping the way is not a lookup outcome: one miss, as before.
        assert_eq!(cache.stats(), (before.0, before.1 + 1));
    }

    #[test]
    fn stale_way_releases_reclaimed_backing_plain_mode() {
        first_resolve_after_reclaim_releases_backing(None);
    }

    #[test]
    fn stale_way_releases_reclaimed_backing_view_mode() {
        first_resolve_after_reclaim_releases_backing(Some(Arc::new(RegionView::new())));
    }

    #[test]
    fn lookup_in_one_zone_keeps_another_zones_live_way() {
        let m = mem();
        let cache = RegionCache::new();
        let r0 = m.alloc_backed(ZoneId(0), 4096, PAGE_SIZE_4K).unwrap();
        let r1 = m.alloc_backed(ZoneId(1), 4096, PAGE_SIZE_4K).unwrap();
        // Move zone 1's generation away from zone 0's, so the two ways'
        // tags differ while both are current.
        let bump = m.alloc_backed(ZoneId(1), 4096, PAGE_SIZE_4K).unwrap();
        cache.resolve(&m, r0.start, 8).unwrap();
        cache.resolve(&m, r1.start, 8).unwrap();
        let warm = cache.stats();
        for _ in 0..3 {
            cache.resolve(&m, r1.start, 8).unwrap();
            cache.resolve(&m, r0.start, 8).unwrap();
        }
        assert_eq!(cache.stats(), (warm.0 + 6, warm.1));
        let _ = bump;
    }

    /// Snapshot probes one `resolve(addr, 8)` is charged.
    fn probes(m: &PhysMemory, addr: u64) -> u64 {
        let zone = m.zone_of(HostPhysAddr::new(addr));
        let before = m.zone_stats(zone).unwrap();
        let _ = m.resolve(HostPhysAddr::new(addr), 8);
        let after = m.zone_stats(zone).unwrap();
        assert_eq!(after.resolve_misses, before.resolve_misses + 1);
        after.search_depth_total - before.search_depth_total
    }

    fn populate_at(m: &PhysMemory, start: u64, len: u64) -> PhysRange {
        let r = PhysRange::new(HostPhysAddr::new(start), len);
        m.populate(r).unwrap();
        r
    }

    const MIB: u64 = 1 << 20;

    #[test]
    fn probe_counts_match_hand_computation() {
        let m = mem();
        let base = ZONE_RAM_BASE;
        // Empty snapshot: a search, but nothing to load.
        assert_eq!(probes(&m, base), 0);
        // One 64 KiB region per 2 MiB bucket (the `frag` shape): the table
        // entry, then a one-step search of the bucket's single start.
        for i in 0..8 {
            populate_at(&m, base + i * 2 * MIB, 64 * 1024);
        }
        for i in 0..8 {
            assert_eq!(probes(&m, base + i * 2 * MIB + 4096), 2);
        }
        // Past a region's end but in its bucket: same search, no backing.
        assert_eq!(probes(&m, base + MIB), 2);
        // Below the first bucket and above the last: clamped, same cost.
        assert_eq!(probes(&m, base - 4096), 2);
        assert_eq!(probes(&m, base + 40 * MIB), 2);
        // Three starts in one bucket: 1 + floor(log2 3) + 1.
        let m = mem();
        for i in 0..3 {
            populate_at(&m, base + i * 8192, 4096);
        }
        for i in 0..3 {
            assert_eq!(probes(&m, base + i * 8192), 3);
        }
        // A 6 MiB region over buckets 0..=2 and a neighbour in bucket 4:
        // buckets 1 and 2 hold no start, so the table entry plus the
        // predecessor's entry; bucket 3 likewise, and finds nothing backed.
        let m = mem();
        let big = populate_at(&m, base, 6 * MIB);
        populate_at(&m, base + 8 * MIB, 4096);
        for addr in [base + 2 * MIB, base + 4 * MIB, base + 6 * MIB - 8] {
            assert_eq!(probes(&m, addr), 2);
            let (_, off) = m.resolve(HostPhysAddr::new(addr), 8).unwrap();
            assert_eq!(off as u64, addr - big.start.raw());
        }
        assert_eq!(probes(&m, base + 6 * MIB), 2);
        assert!(m.resolve(HostPhysAddr::new(base + 6 * MIB), 8).is_err());
    }

    #[test]
    fn table_is_sized_to_the_span_and_widens_past_the_bucket_limit() {
        let m = PhysMemory::new(&[64 << 30]);
        let base = ZONE_RAM_BASE;
        let shape =
            |m: &PhysMemory| m.with_zone_snapshot(0, |s| (s.bucket_shift, s.starts_below.len()));
        assert_eq!(shape(&m), (BUCKET_SHIFT_MIN, 0));
        populate_at(&m, base, 4096);
        populate_at(&m, base + 2 * MIB, 4096);
        assert_eq!(shape(&m), (BUCKET_SHIFT_MIN, 3));
        // Exactly MAX_BUCKETS 2 MiB buckets still fit ...
        let edge = populate_at(&m, base + (MAX_BUCKETS - 1) * 2 * MIB, 4096);
        assert_eq!(shape(&m), (BUCKET_SHIFT_MIN, MAX_BUCKETS as usize + 1));
        assert_eq!(probes(&m, base), 2);
        assert_eq!(probes(&m, base + 2 * MIB), 2);
        // ... one more does not: 4 MiB buckets, and the two low regions
        // now share bucket 0 (1 + floor(log2 2) + 1 probes).
        let far = populate_at(&m, base + MAX_BUCKETS * 2 * MIB, 4096);
        assert_eq!(
            shape(&m),
            (BUCKET_SHIFT_MIN + 1, MAX_BUCKETS as usize / 2 + 2)
        );
        assert_eq!(probes(&m, base), 3);
        assert_eq!(probes(&m, base + 2 * MIB), 3);
        assert_eq!(probes(&m, far.start.raw()), 2);
        m.write_u64(far.start, 7).unwrap();
        assert_eq!(m.read_u64(far.start).unwrap(), 7);
        // The width follows the span back down.
        m.depopulate(far).unwrap();
        m.depopulate(edge).unwrap();
        assert_eq!(shape(&m), (BUCKET_SHIFT_MIN, 3));
    }

    #[allow(clippy::needless_update)]
    mod bucket_table_props {
        use super::*;
        use proptest::prelude::*;

        /// Where an op lands. Class 0: sixteen 4 KiB-spaced starts inside
        /// one 2 MiB bucket (regions smaller than a bucket, sharing one).
        /// Class 1: 8 MiB-spaced, 5 MiB-and-a-page long (each spans four
        /// buckets). Class 2: 2 MiB-spaced starts 16 GiB up, which force
        /// wider buckets while any is populated.
        fn site(zone: u64, class: u8, slot: u64) -> PhysRange {
            let base = zone * ZONE_SPAN + ZONE_RAM_BASE;
            let (start, len) = match class {
                0 => (base + slot * 4096, 4096 * (1 + slot % 3)),
                1 => (base + 4 * MIB + slot * 8 * MIB, 5 * MIB + 4096),
                _ => (base + (16 << 30) + slot * 2 * MIB, 4096),
            };
            PhysRange::new(HostPhysAddr::new(start), len)
        }

        /// `find` against the whole-list reference at every address where
        /// they could part: each region's start, end - 1 and end, their
        /// neighbours, every bucket boundary a region touches (+- 1), and
        /// the far ends of the address space.
        fn check(s: &RegionSnapshot) -> Result<(), TestCaseError> {
            let width = 1u64 << s.bucket_shift;
            let mut addrs = vec![0, s.bucket_base.saturating_sub(1), u64::MAX];
            for p in &s.regions {
                let (start, end) = (p.range.start.raw(), p.range.end().raw());
                addrs.extend([start - 1, start, start + 1, end - 1, end, end + 1]);
                let mut boundary = start & !(width - 1);
                while boundary <= end + width {
                    addrs.extend([boundary - 1, boundary, boundary + 1]);
                    boundary += width;
                }
            }
            for a in addrs {
                let (got, probes) = s.find(a);
                prop_assert_eq!(
                    got.map(|p| p.range),
                    s.find_reference(a).map(|p| p.range),
                    "find({:#x}) with {} regions, {} byte buckets",
                    a,
                    s.regions.len(),
                    width
                );
                prop_assert_eq!(probes == 0, s.regions.is_empty());
            }
            Ok(())
        }

        proptest! {
            #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]
            /// Toggle random sites of two zones between populated and not;
            /// after every publish the bucketed `find` of the zone's new
            /// snapshot equals the whole-list search.
            #[test]
            fn find_matches_the_whole_list_search(
                ops in proptest::collection::vec((0u64..2, 0u8..3, 0u64..16), 1..120),
            ) {
                let m = PhysMemory::new(&[64 << 30, 64 << 30]);
                let mut live = std::collections::HashSet::new();
                for (zone, class, slot) in ops {
                    let r = site(zone, class, slot);
                    if live.remove(&r) {
                        m.depopulate(r).unwrap();
                    } else if m.populate(r).is_ok() {
                        // (class 0 neighbours overlap; a refused populate
                        // publishes nothing.)
                        live.insert(r);
                    } else {
                        continue;
                    }
                    m.with_zone_snapshot(zone as usize, check)?;
                }
            }
        }
    }

    #[test]
    fn epoch_reclamation_frees_without_quiescence() {
        // With no readers at all, every publish after the first two frees
        // the stale bucket: the backlog never exceeds the two in-flight
        // epochs.
        let m = mem();
        for _ in 0..10 {
            let r = m.alloc_backed(ZoneId(0), 4096, PAGE_SIZE_4K).unwrap();
            m.free(r).unwrap();
        }
        let s = m.zone_stats(ZoneId(0)).unwrap();
        assert_eq!(s.snapshot_swaps, 20);
        assert!(s.retired_backlog <= 2, "backlog {}", s.retired_backlog);
        assert!(
            s.retired_backlog_high_water <= 2,
            "high water {}",
            s.retired_backlog_high_water
        );
        assert!(s.retired_freed >= 18, "freed {}", s.retired_freed);
    }

    #[test]
    fn retired_backlog_bounded_under_sustained_reader() {
        // A reader that never stops issuing resolve sections must not
        // defer reclamation indefinitely: each section registers in the
        // *current* epoch, so the previous slot keeps draining and the
        // writer keeps advancing. (The old reader-count quiesce failed
        // exactly this test shape: overlapping readers held the count
        // above zero forever.)
        let m = Arc::new(mem());
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let target = m.alloc_backed(ZoneId(0), 4096, PAGE_SIZE_4K).unwrap();
        let readers: Vec<_> = (0..3)
            .map(|_| {
                let m = Arc::clone(&m);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        let (b, off) = m.resolve(target.start, 8).unwrap();
                        let _ = b.read_u64(off);
                    }
                })
            })
            .collect();
        for _ in 0..300 {
            let r = m.alloc_backed(ZoneId(0), 4096, PAGE_SIZE_4K).unwrap();
            m.free(r).unwrap();
        }
        let s = m.zone_stats(ZoneId(0)).unwrap();
        stop.store(true, Ordering::Relaxed);
        for h in readers {
            h.join().unwrap();
        }
        assert!(
            s.retired_backlog_high_water <= 32,
            "backlog high water {} under sustained readers",
            s.retired_backlog_high_water
        );
        assert!(s.retired_freed >= 500, "freed {}", s.retired_freed);
    }

    #[test]
    fn snapshot_readers_quiesce() {
        // Churn publishes while hammering resolves from other threads; the
        // retired backlog must stay bounded and every resolve must see a
        // coherent snapshot. (The deeper coherence assertions live in
        // tests/resolve_coherence.rs.)
        let m = Arc::new(mem());
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let target = m.alloc_backed(ZoneId(1), 4096, PAGE_SIZE_4K).unwrap();
        let readers: Vec<_> = (0..2)
            .map(|_| {
                let m = Arc::clone(&m);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        let (b, off) = m.resolve(target.start, 8).unwrap();
                        let _ = b.read_u64(off);
                    }
                })
            })
            .collect();
        for _ in 0..200 {
            let r = m.alloc_backed(ZoneId(0), 4096, PAGE_SIZE_4K).unwrap();
            m.free(r).unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        for h in readers {
            h.join().unwrap();
        }
        assert!(m.snapshot_swaps() >= 400);
        // The zone-1 readers never touch zone 0's shard, so its epochs
        // advance freely: the churn zone's backlog stays tiny.
        let s = m.zone_stats(ZoneId(0)).unwrap();
        assert!(s.retired_backlog_high_water <= 2);
        assert_eq!(s.snapshot_swaps, 400);
    }

    #[test]
    fn windows_cost_one_search_or_none() {
        let m = mem();
        let searches = || m.zone_stats(ZoneId(0)).unwrap().resolve_misses;
        let w = m.alloc_window(ZoneId(0), 3 * 4096, PAGE_SIZE_4K).unwrap();
        assert_eq!(searches(), 0, "the allocation hands its window over");
        w.write_u64(w.base().add(4096), 5).unwrap();
        let inner = PhysRange::new(w.base().add(4096), 4096);
        let sub = w.sub(inner).unwrap();
        assert_eq!((sub.range(), sub.read_u64(inner.start)), (inner, Ok(5)));
        assert_eq!(searches(), 0);
        assert_eq!(m.window(inner).unwrap().read_u64(inner.start), Ok(5));
        assert_eq!(searches(), 1);
        // From an address alone: the rest of the region it lies in.
        let rest = m.window_from(inner.start).unwrap();
        assert_eq!(rest.range(), PhysRange::new(inner.start, 2 * 4096));
        assert_eq!(searches(), 2);
        // Nothing spans two regions, lies outside one, or wraps.
        let next = m.alloc_backed(ZoneId(0), 4096, PAGE_SIZE_4K).unwrap();
        assert_eq!(next.start, w.range().end());
        for bad in [
            PhysRange::new(inner.start, 3 * 4096),
            PhysRange::new(next.end(), 8),
            PhysRange::new(inner.start, u64::MAX),
        ] {
            assert!(m.window(bad).is_err(), "{bad:?}");
        }
        assert!(m.window_from(next.end()).is_err());
        assert!(matches!(
            w.read_u64(w.base().add(4)),
            Err(HwError::Invalid(_))
        ));
    }

    #[allow(clippy::needless_update)]
    mod window_props {
        use super::*;
        use proptest::prelude::*;

        /// Bytes of the region the windows are cut from.
        const REGION: u64 = 2 * 4096;

        proptest! {
            #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]
            /// A window, a sub-window of it and the memory they were cut
            /// from are views of the same bytes: what one writes at an
            /// address the others read there, an access the (sub-)window
            /// does not hold entirely is refused and changes nothing, and
            /// no length wraps an address into range. Ops are (view, kind,
            /// offset from the region start — may fall either side of it —,
            /// length, value).
            #[test]
            fn window_access_agrees_with_physmemory_and_stops_at_its_bounds(
                cut in (0u64..REGION / 8, 0u64..REGION / 8 + 2),
                ops in proptest::collection::vec(
                    (0u8..3, 0u8..4, -64i64..(REGION as i64 + 64), 0usize..48, any::<u64>()),
                    1..80,
                ),
            ) {
                let m = mem();
                // Neighbours on both sides: an overrun would land in
                // populated memory, not fault.
                let _below = m.alloc_backed(ZoneId(0), 4096, PAGE_SIZE_4K).unwrap();
                let whole = m.alloc_window(ZoneId(0), REGION, PAGE_SIZE_4K).unwrap();
                let _above = m.alloc_backed(ZoneId(0), 4096, PAGE_SIZE_4K).unwrap();
                let base = whole.base().raw();

                let cut = PhysRange::new(HostPhysAddr::new(base + cut.0 * 8), cut.1 * 8);
                let inner = whole.sub(cut);
                prop_assert_eq!(inner.is_ok(), cut.end().raw() <= base + REGION, "{:?}", cut);
                let views = [Some(whole.clone()), inner.ok(), m.window(whole.range()).ok()];

                let mut model = vec![0u8; REGION as usize];
                for (view, kind, off, len, value) in ops {
                    let Some(w) = &views[view as usize] else { continue };
                    let addr = HostPhysAddr::new(base.wrapping_add_signed(off));
                    let word = HostPhysAddr::new(addr.raw() & !7);
                    let held = |a: HostPhysAddr, n: u64| {
                        a.raw() >= w.base().raw() && a.raw() + n <= w.range().end().raw()
                    };
                    let at = |a: HostPhysAddr| (a.raw() - base) as usize;
                    match kind {
                        0 => {
                            let wrote = w.write_u64(word, value);
                            prop_assert_eq!(wrote.is_ok(), held(word, 8), "{:?} in {:?}", word, w);
                            if wrote.is_ok() {
                                model[at(word)..][..8].copy_from_slice(&value.to_le_bytes());
                                prop_assert_eq!(m.read_u64(word), Ok(value));
                            }
                        }
                        1 => {
                            let got = w.read_u64(word);
                            prop_assert_eq!(got.is_ok(), held(word, 8), "{:?} in {:?}", word, w);
                            if let Ok(got) = got {
                                prop_assert_eq!(Ok(got), m.read_u64(word));
                                prop_assert_eq!(got.to_le_bytes(), model[at(word)..][..8]);
                            }
                        }
                        2 => {
                            let bytes: Vec<u8> =
                                (0..len).map(|i| (value >> (i % 8 * 8)) as u8 ^ i as u8).collect();
                            let wrote = w.write_bytes(addr, &bytes);
                            prop_assert_eq!(wrote.is_ok(), held(addr, len as u64));
                            if wrote.is_ok() {
                                model[at(addr)..][..len].copy_from_slice(&bytes);
                            }
                        }
                        _ => {
                            let mut got = vec![0xa5u8; len];
                            let read = w.read_bytes(addr, &mut got);
                            prop_assert_eq!(read.is_ok(), held(addr, len as u64));
                            if read.is_ok() {
                                prop_assert_eq!(&got[..], &model[at(addr)..][..len]);
                            }
                        }
                    }
                }
                // Refused accesses wrote nothing, here or next door.
                let mut bytes = vec![0u8; REGION as usize];
                m.window(whole.range()).unwrap().read_bytes(whole.base(), &mut bytes).unwrap();
                prop_assert!(bytes == model, "the region is not what the accepted writes made it");
                for r in [_below, _above] {
                    let mut bytes = vec![0u8; 4096];
                    m.window(r).unwrap().read_bytes(r.start, &mut bytes).unwrap();
                    prop_assert!(bytes.iter().all(|&b| b == 0), "{:?} was written", r);
                }
                // An end that wraps is out of range, not a small number.
                for w in views.iter().flatten() {
                    let top = HostPhysAddr::new(u64::MAX - 7);
                    prop_assert!(w.read_u64(top).is_err());
                    prop_assert!(w.write_bytes(top, &[0; 16]).is_err());
                    prop_assert!(w.sub(PhysRange::new(w.base(), u64::MAX)).is_err());
                    prop_assert!(w.sub(PhysRange::new(top, 16)).is_err());
                }
            }
        }
    }
}
