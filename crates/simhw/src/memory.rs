//! The node's physical address space: one linear map per NUMA zone.
//!
//! Zone `i` spans host-physical addresses from `i * ZONE_SPAN`; its RAM
//! starts `ZONE_RAM_BASE` in and lives in one [`Backing`] reserved when the
//! [`PhysMemory`] is built, so a host-physical address *is* its location:
//! the zone is `addr / ZONE_SPAN` and the byte is `addr − RAM base` into
//! that zone's backing. Nothing is looked up — the map is a hypervisor's
//! linear physical map (RVirt's `pa2va`), and a co-kernel's memory is the
//! fixed physical ranges it was granted.
//!
//! A [`PhysMemory`] hands out page-aligned [`PhysRange`]s from a first-fit
//! free list per zone and keeps a bitmap of which 4 KiB pages are
//! *populated*: populating sets their bits, freeing clears them and
//! discards the pages to the host ([`Backing::discard`]), so the next
//! population reads zeros. [`PhysMemory::resolve`] is a zone index, a
//! bounds check and a bitmap check; a boot-time structure is reached
//! through a [`MemWindow`] its owner resolved once.
//!
//! A zone's backing is mapped for as long as anything holds it, so neither
//! a window nor a TLB's host pointer can dangle. An access through one
//! after the range was freed lands in the zone's RAM at the same address —
//! zeros, or whatever the range's next owner wrote there — as it would on
//! hardware.

use crate::addr::{HostPhysAddr, PhysRange, PAGE_SIZE_4K};
use crate::backing::Backing;
use crate::error::{HwError, HwResult};
use crate::topology::ZoneId;
use parking_lot::Mutex;
use std::alloc::{handle_alloc_error, Layout};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Host-physical span reserved for each NUMA zone (1 TiB), far larger than
/// any real zone so zone membership is recoverable from an address alone.
pub const ZONE_SPAN: u64 = 1 << 40;

/// First usable offset within a zone span; the low 16 MiB stand in for
/// firmware/legacy holes so that address 0 is never valid RAM.
const ZONE_RAM_BASE: u64 = 16 * 1024 * 1024;

/// Read by perfbench only, which sizes a probe with it; the next
/// benchmark-only change removes it. Nothing here has ways.
pub const REGION_CACHE_WAYS: usize = 4;

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
/// A window holds its zone's backing, so it never dangles; it says nothing
/// about whether the range is still populated.
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

/// The bitmap words and masks covering pages `first ..= last`.
#[inline]
fn page_masks(first: u64, last: u64) -> impl Iterator<Item = (usize, u64)> {
    (first / 64..=last / 64).map(move |w| {
        let lo = if w == first / 64 { first % 64 } else { 0 };
        let hi = if w == last / 64 { last % 64 } else { 63 };
        (w as usize, (u64::MAX >> (63 - hi)) & (u64::MAX << lo))
    })
}

/// One NUMA zone: its allocator, its RAM and which pages of it are
/// populated.
struct Zone {
    alloc: Mutex<ZoneAllocator>,
    /// The zone's RAM: byte `i` is host-physical address `base + i`.
    backing: Arc<Backing>,
    /// First byte of the zone's RAM.
    base: u64,
    /// Bytes of RAM.
    bytes: u64,
    /// One bit per 4 KiB page of RAM, set while the page is populated.
    /// Written under `alloc`'s lock, read without any.
    populated: Box<[AtomicU64]>,
}

impl Zone {
    fn new(zone: usize, bytes: u64) -> Self {
        let len = bytes.max(8) as usize;
        let backing = match Backing::new(len) {
            Ok(b) => b,
            // The host will not reserve the zone's RAM: out of memory, as
            // an allocation of it would be.
            Err(_) => {
                handle_alloc_error(Layout::from_size_align(len, 8).unwrap_or(Layout::new::<u64>()))
            }
        };
        let pages = bytes.div_ceil(PAGE_SIZE_4K);
        let alloc = ZoneAllocator::new(zone, bytes);
        Zone {
            base: alloc.base,
            alloc: Mutex::new(alloc),
            backing: Arc::new(backing),
            bytes,
            populated: (0..pages.div_ceil(64)).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Offset into the backing of `addr`, and the pages `addr .. addr +
    /// len` covers — if all of it is RAM (an empty access covers `addr`'s
    /// page).
    #[inline]
    fn pages(&self, addr: u64, len: u64) -> Option<(u64, u64, u64)> {
        let off = addr.wrapping_sub(self.base);
        let end = off.checked_add(len.max(1))?;
        (off < self.bytes && end <= self.bytes).then_some((
            off,
            off / PAGE_SIZE_4K,
            (end - 1) / PAGE_SIZE_4K,
        ))
    }

    #[inline]
    fn all_populated(&self, first: u64, last: u64) -> bool {
        page_masks(first, last).all(|(w, m)| self.populated[w].load(Ordering::Acquire) & m == m)
    }

    fn any_populated(&self, first: u64, last: u64) -> bool {
        page_masks(first, last).any(|(w, m)| self.populated[w].load(Ordering::Acquire) & m != 0)
    }

    /// Set (or clear) the bits of pages `first ..= last`; the caller holds
    /// `alloc`'s lock.
    fn mark(&self, first: u64, last: u64, populated: bool) {
        for (w, m) in page_masks(first, last) {
            if populated {
                self.populated[w].fetch_or(m, Ordering::Release);
            } else {
                self.populated[w].fetch_and(!m, Ordering::Release);
            }
        }
    }

    /// The window onto `range`, whose first byte is at `off`.
    fn window(&self, off: u64, range: PhysRange) -> MemWindow {
        MemWindow {
            backing: Arc::clone(&self.backing),
            off: off as usize,
            range,
        }
    }
}

/// Per-zone counters perfbench reads (see [`PhysMemory::zone_stats`]). A
/// linear map publishes, retires and searches nothing, so every field
/// reads 0; the next benchmark-only change removes the type.
#[derive(Clone, Copy, Debug, Default)]
pub struct ZoneStats {
    /// Read by perfbench only: always 0.
    pub snapshot_swaps: u64,
    /// Read by perfbench only: always 0.
    pub retired_backlog_high_water: u64,
    /// Read by perfbench only: always 0.
    pub resolve_misses: u64,
    /// Read by perfbench only: always 0.
    pub search_depth_total: u64,
}

/// The node's physical memory: one linear map per NUMA zone.
pub struct PhysMemory {
    zones: Vec<Zone>,
}

impl PhysMemory {
    /// Build the physical memory of a node with `zone_bytes[i]` bytes of RAM
    /// in zone `i`. Each zone's RAM is reserved, not committed: the host
    /// supplies a page when it is first touched.
    pub fn new(zone_bytes: &[u64]) -> Self {
        let zones = zone_bytes
            .iter()
            .enumerate()
            .map(|(i, &b)| {
                assert!(
                    b <= ZONE_SPAN - ZONE_RAM_BASE,
                    "zone RAM exceeds the zone span"
                );
                Zone::new(i, b)
            })
            .collect();
        PhysMemory { zones }
    }

    /// The NUMA zone an address belongs to (derivable from the span
    /// layout). Pure arithmetic: addresses beyond the last configured zone
    /// map to a `ZoneId` with no zone behind it — resolution and
    /// allocation paths bounds-check before indexing.
    pub fn zone_of(&self, addr: HostPhysAddr) -> ZoneId {
        ZoneId((addr.raw() / ZONE_SPAN) as usize)
    }

    fn zone(&self, zone: ZoneId) -> HwResult<&Zone> {
        self.zones.get(zone.0).ok_or(HwError::NoSuchZone(zone.0))
    }

    /// Validate that a range is non-empty, page-aligned and zone-local,
    /// returning its zone. Populate and free must be zone-local: a range
    /// straddling a zone-span boundary would have to live in two maps.
    fn range_zone(&self, range: &PhysRange) -> HwResult<&Zone> {
        if range.len == 0 {
            return Err(HwError::Invalid("zero-length range"));
        }
        if !(range.start.raw() | range.len).is_multiple_of(PAGE_SIZE_4K) {
            return Err(HwError::Invalid("range is not page-aligned"));
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
        self.zone(ZoneId(first_zone as usize))
    }

    /// (total, in-use) bytes for a zone.
    pub fn zone_usage(&self, zone: ZoneId) -> HwResult<(u64, u64)> {
        let z = self.zone(zone)?.alloc.lock();
        Ok((z.total, z.in_use))
    }

    /// The zone's counters — all 0 (see [`ZoneStats`]). Read by perfbench
    /// only.
    pub fn zone_stats(&self, zone: ZoneId) -> HwResult<ZoneStats> {
        self.zone(zone).map(|_| ZoneStats::default())
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
        let mut z = self.zone(zone)?.alloc.lock();
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
    /// range, with the window onto it.
    pub fn alloc_window(&self, zone: ZoneId, len: u64, align: u64) -> HwResult<MemWindow> {
        let range = self.alloc(zone, len, align)?;
        self.populate(range)
    }

    /// Mark a range's pages populated, so they can be accessed, and hand
    /// back the window onto them. A range any page of which is already
    /// populated is refused.
    fn populate(&self, range: PhysRange) -> HwResult<MemWindow> {
        let zone = self.range_zone(&range)?;
        let (off, first, last) = zone
            .pages(range.start.raw(), range.len)
            .ok_or(HwError::Invalid("populate outside the zone's RAM"))?;
        let _alloc = zone.alloc.lock();
        if zone.any_populated(first, last) {
            return Err(HwError::Invalid(
                "populate overlaps an existing populated region",
            ));
        }
        zone.mark(first, last, true);
        Ok(zone.window(off, range))
    }

    /// Return the range to its zone's free list, unpopulating it and
    /// discarding its pages to the host. A range the allocator refuses
    /// ([`HwError::DoubleFree`], or `NotAllocated` outside the zone's RAM)
    /// changes nothing.
    pub fn free(&self, range: PhysRange) -> HwResult<()> {
        let zone = self.range_zone(&range)?;
        let mut alloc = zone.alloc.lock();
        alloc.check_free(&range)?;
        let (off, first, last) = zone
            .pages(range.start.raw(), range.len)
            .ok_or(HwError::NotAllocated(range.start))?;
        if zone.any_populated(first, last) {
            zone.mark(first, last, false);
            zone.backing.discard(off as usize, range.len as usize)?;
        }
        alloc.free(range)
    }

    /// The zone holding all of `addr .. addr + len` as populated RAM, and
    /// `addr`'s offset into its backing.
    #[inline]
    fn locate(&self, addr: HostPhysAddr, len: u64) -> HwResult<(&Zone, u64)> {
        let zone = self.zones.get((addr.raw() / ZONE_SPAN) as usize);
        match zone.and_then(|z| Some((z, z.pages(addr.raw(), len)?))) {
            Some((z, (off, first, last))) if z.all_populated(first, last) => Ok((z, off)),
            _ => Err(HwError::UnbackedPhys(addr)),
        }
    }

    /// Resolve a physical address to its zone's backing and the offset of
    /// `addr` in it, if all of `addr .. addr + len` is populated.
    #[inline]
    pub fn resolve(&self, addr: HostPhysAddr, len: u64) -> HwResult<(Arc<Backing>, usize)> {
        let (zone, off) = self.locate(addr, len)?;
        Ok((Arc::clone(&zone.backing), off as usize))
    }

    /// Start the host's fetch of the byte at `addr`, if it is populated
    /// RAM: a hint for a caller that will access it after other work.
    #[inline]
    pub fn prefetch(&self, addr: HostPhysAddr) {
        if let Ok((zone, off)) = self.locate(addr, 1) {
            zone.backing.prefetch(off as usize);
        }
    }

    /// The window onto a populated range; every access through it is then
    /// a bounds check.
    pub fn window(&self, range: PhysRange) -> HwResult<MemWindow> {
        let (zone, off) = self.locate(range.start, range.len)?;
        Ok(zone.window(off, range))
    }

    /// The window from `addr` to the end of the populated run of pages
    /// holding it — for a reader that is handed only the address of a
    /// structure whose extent is written inside it (a kernel and its boot
    /// parameters).
    pub fn window_from(&self, addr: HostPhysAddr) -> HwResult<MemWindow> {
        let (zone, off) = self.locate(addr, 1)?;
        let pages = zone.bytes.div_ceil(PAGE_SIZE_4K);
        let mut end = off / PAGE_SIZE_4K + 1;
        while end < pages && zone.all_populated(end, end) {
            end += 1;
        }
        let len = (end * PAGE_SIZE_4K).min(zone.bytes) - off;
        Ok(zone.window(off, PhysRange::new(addr, len)))
    }

    /// Aligned 64-bit physical load.
    #[inline]
    pub fn read_u64(&self, addr: HostPhysAddr) -> HwResult<u64> {
        let (zone, off) = self.locate(addr, 8)?;
        Ok(zone.backing.read_u64(off as usize))
    }

    /// Aligned 64-bit physical store.
    #[inline]
    pub fn write_u64(&self, addr: HostPhysAddr, value: u64) -> HwResult<()> {
        let (zone, off) = self.locate(addr, 8)?;
        zone.backing.write_u64(off as usize, value);
        Ok(())
    }
}

impl std::fmt::Debug for PhysMemory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PhysMemory({} zones)", self.zones.len())
    }
}

/// A core's count of physical resolves: what perfbench's `resolve` layer
/// group charges, through `CoreCounters::resolve_hits`. Every resolve is a
/// hit — a linear map has nothing to cache. Its name, `new` and `resolve`
/// are kept for perfbench only; the next benchmark-only change renames or
/// removes them.
#[derive(Default)]
pub struct RegionCache {
    resolves: Cell<u64>,
}

impl RegionCache {
    /// A zeroed counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// [`PhysMemory::resolve`], counted.
    #[inline]
    pub fn resolve(
        &self,
        mem: &PhysMemory,
        addr: HostPhysAddr,
        len: u64,
    ) -> HwResult<(Arc<Backing>, usize)> {
        self.resolves.set(self.resolves.get() + 1);
        mem.resolve(addr, len)
    }

    /// Resolves counted so far.
    pub fn resolves(&self) -> u64 {
        self.resolves.get()
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
        // zone_of is pure arithmetic; zone-backed APIs bounds-check.
        assert_eq!(m.zone_of(HostPhysAddr::new(5 * ZONE_SPAN)), ZoneId(5));
        assert!(matches!(
            m.zone_usage(ZoneId(2)),
            Err(HwError::NoSuchZone(2))
        ));
        assert!(matches!(
            m.zone_stats(ZoneId(2)),
            Err(HwError::NoSuchZone(2))
        ));
        // Resolution beyond the last configured zone, below a zone's RAM
        // or past its end is unbacked, not a panic.
        let r = m.alloc_backed(ZoneId(0), 4096, PAGE_SIZE_4K).unwrap();
        assert_eq!(r.start.raw(), ZONE_RAM_BASE);
        for addr in [
            5 * ZONE_SPAN + ZONE_RAM_BASE,
            ZONE_RAM_BASE - 8,
            ZONE_RAM_BASE + (64 << 20),
            ZONE_SPAN - 8,
        ] {
            assert_eq!(
                m.resolve(HostPhysAddr::new(addr), 8).map(|_| ()),
                Err(HwError::UnbackedPhys(HostPhysAddr::new(addr))),
                "{addr:#x}"
            );
        }
    }

    #[test]
    fn cross_zone_and_degenerate_ranges_rejected() {
        let m = mem();
        // A range straddling the zone 0 / zone 1 span boundary would have
        // to live in two maps; populate and free both reject it.
        let straddle = PhysRange::new(HostPhysAddr::new(ZONE_SPAN - 4096), 8192);
        assert!(matches!(m.populate(straddle), Err(HwError::Invalid(_))));
        assert!(matches!(m.free(straddle), Err(HwError::Invalid(_))));
        // Zero-length and unaligned ranges are degenerate.
        let empty = PhysRange::new(HostPhysAddr::new(ZONE_RAM_BASE), 0);
        let odd = PhysRange::new(HostPhysAddr::new(ZONE_RAM_BASE), 100);
        for bad in [empty, odd] {
            assert!(matches!(m.populate(bad), Err(HwError::Invalid(_))));
            assert!(matches!(m.free(bad), Err(HwError::Invalid(_))));
        }
        // A range wrapping the address space is degenerate, not a panic.
        let wrap = PhysRange::new(HostPhysAddr::new(u64::MAX - 4095), 8192);
        assert!(matches!(m.populate(wrap), Err(HwError::Invalid(_))));
        // A range entirely beyond the configured zones has no zone, and
        // one outside a zone's RAM has no backing.
        let beyond = PhysRange::new(HostPhysAddr::new(3 * ZONE_SPAN + ZONE_RAM_BASE), 4096);
        assert!(matches!(m.populate(beyond), Err(HwError::NoSuchZone(3))));
        assert!(matches!(m.free(beyond), Err(HwError::NoSuchZone(3))));
        let hole = PhysRange::new(HostPhysAddr::new(ZONE_RAM_BASE - 4096), 4096);
        assert!(matches!(m.populate(hole), Err(HwError::Invalid(_))));
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
    fn an_address_is_its_offset_into_the_zones_ram() {
        let m = mem();
        let a = m.alloc_backed(ZoneId(1), 8192, PAGE_SIZE_4K).unwrap();
        let b = m.alloc_backed(ZoneId(1), 4096, PAGE_SIZE_4K).unwrap();
        let (ba, off) = m.resolve(a.start.add(4096), 8).unwrap();
        assert_eq!(off as u64, a.start.raw() - ZONE_SPAN - ZONE_RAM_BASE + 4096);
        // One backing per zone, whichever range an address lies in.
        let (bb, _) = m.resolve(b.start, 8).unwrap();
        assert!(Arc::ptr_eq(&ba, &bb));
        assert!(!Arc::ptr_eq(
            &ba,
            &m.resolve(m.alloc_backed(ZoneId(0), 4096, 0).unwrap().start, 8)
                .unwrap()
                .0
        ));
        m.write_u64(a.start.add(4096), 99).unwrap();
        assert_eq!(m.read_u64(a.start.add(4096)).unwrap(), 99);
        // Adjacent populated ranges are one run of RAM; an access that
        // runs on into an unpopulated page is not.
        assert_eq!(b.start, a.end());
        assert!(m.resolve(a.start.add(4096), 8192).is_ok());
        assert!(m.resolve(b.start.add(4096 - 4), 8).is_err());
    }

    #[test]
    fn free_unpopulates_and_the_next_population_reads_zeros() {
        let m = mem();
        let r = m.alloc_backed(ZoneId(0), 8192, PAGE_SIZE_4K).unwrap();
        let held = m.window(r).unwrap();
        m.write_u64(r.start.add(4096), 1).unwrap();
        m.free(r).unwrap();
        assert!(m.read_u64(r.start.add(4096)).is_err());
        // A window kept across the free still points at the zone's RAM:
        // the discarded page reads zeros, never freed host memory.
        assert_eq!(held.read_u64(r.start.add(4096)), Ok(0));
        let again = m.alloc_backed(ZoneId(0), 8192, PAGE_SIZE_4K).unwrap();
        assert_eq!(again, r);
        assert_eq!(m.read_u64(r.start.add(4096)).unwrap(), 0);
        // What it writes now is what the old window sees: same RAM.
        m.write_u64(r.start, 5).unwrap();
        assert_eq!(held.read_u64(r.start), Ok(5));
    }

    #[test]
    fn populate_overlap_rejected() {
        let m = mem();
        let r = m.alloc_backed(ZoneId(0), 8192, PAGE_SIZE_4K).unwrap();
        let inner = PhysRange::new(r.start.add(4096), 4096);
        assert!(m.populate(inner).is_err());
        let across = PhysRange::new(r.start.add(4096), 8192);
        assert!(m.populate(across).is_err());
        // The refused populate marked nothing past the region's end.
        assert!(m.read_u64(r.end()).is_err());
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
    fn page_masks_cover_exactly_the_pages() {
        let bits = |first, last| {
            let mut words = [0u64; 3];
            for (w, m) in page_masks(first, last) {
                words[w] |= m;
            }
            words
        };
        assert_eq!(bits(0, 0), [1, 0, 0]);
        assert_eq!(bits(63, 64), [1 << 63, 1, 0]);
        assert_eq!(bits(0, 63), [u64::MAX, 0, 0]);
        assert_eq!(bits(3, 130), [u64::MAX << 3, u64::MAX, 0b111]);
    }

    /// What a refused free must leave alone: usage, the free list and the
    /// populated bits.
    fn zone0_state(m: &PhysMemory) -> ((u64, u64), BTreeMap<u64, u64>, Vec<u64>) {
        let z = &m.zones[0];
        (
            m.zone_usage(ZoneId(0)).unwrap(),
            z.alloc.lock().free.clone(),
            z.populated
                .iter()
                .map(|w| w.load(Ordering::Relaxed))
                .collect(),
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
        m.write_u64(rogue.start, 3).unwrap();
        let before = zone0_state(&m);
        assert_eq!(m.free(rogue), Err(HwError::DoubleFree { range: rogue }));
        // Inside the zone's span but past its 64 MiB of RAM.
        let beyond = PhysRange::new(HostPhysAddr::new(ZONE_RAM_BASE + (64 << 20)), 4096);
        assert_eq!(m.free(beyond), Err(HwError::NotAllocated(beyond.start)));
        let below = PhysRange::new(HostPhysAddr::new(ZONE_RAM_BASE - 4096), 8192);
        assert_eq!(m.free(below), Err(HwError::NotAllocated(below.start)));
        assert_eq!(zone0_state(&m), before);
        assert_eq!(m.read_u64(rogue.start).unwrap(), 3);
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
        assert_eq!(cache.resolve(&m, addr, u64::MAX).map(|_| ()), unbacked);
        cache.resolve(&m, addr, 4096 - 8).unwrap();
        // The counter counts every resolve, refused or not.
        assert_eq!(cache.resolves(), 2);
    }

    #[test]
    fn windows_stop_at_their_bounds() {
        let m = mem();
        let w = m.alloc_window(ZoneId(0), 3 * 4096, PAGE_SIZE_4K).unwrap();
        w.write_u64(w.base().add(4096), 5).unwrap();
        let inner = PhysRange::new(w.base().add(4096), 4096);
        let sub = w.sub(inner).unwrap();
        assert_eq!((sub.range(), sub.read_u64(inner.start)), (inner, Ok(5)));
        assert_eq!(m.window(inner).unwrap().read_u64(inner.start), Ok(5));
        // From an address alone: the rest of the populated run it lies in.
        let rest = m.window_from(inner.start).unwrap();
        assert_eq!(rest.range(), PhysRange::new(inner.start, 2 * 4096));
        // Nothing lies outside populated RAM or wraps.
        let gap = m.alloc(ZoneId(0), 4096, PAGE_SIZE_4K).unwrap();
        assert_eq!(gap.start, w.range().end());
        for bad in [
            PhysRange::new(inner.start, 3 * 4096),
            PhysRange::new(gap.start, 8),
            PhysRange::new(inner.start, u64::MAX),
        ] {
            assert!(m.window(bad).is_err(), "{bad:?}");
        }
        assert!(m.window_from(gap.start).is_err());
        assert!(sub.sub(PhysRange::new(inner.start, 4097)).is_err());
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
