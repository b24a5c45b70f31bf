//! Extended Page Tables (EPT) — Intel's nested paging, functionally modelled.
//!
//! The EPT translates *guest-physical* to *host-physical* addresses. Covirt
//! builds an identity map of exactly the regions an enclave owns, with full
//! RWX permissions, so a violation occurs if and only if the enclave touches
//! a guest-physical address outside its assignment — the paper's memory
//! protection feature. Contiguous runs are coalesced into 2 MiB and 1 GiB
//! leaves by the generic radix engine (see [`crate::paging`]).
//!
//! The structure also carries a monotonic *generation* counter and a short
//! log of the ranges the last few shrinking edits touched. An edit after
//! which an answer given before it would be too generous — an unmap, a
//! re-map that may narrow a leaf's rights, or a map that failed and took
//! back the tables it linked — logs its range and bumps the generation; a
//! core's [`WalkCache`] (EPT leaves, and the PD pages of the PDPTEs above
//! them) pulls the ranges it has not seen the next time it starts a walk and
//! drops only the lines they overlap. TLBs are a different matter: the
//! hardware model deliberately does **not** auto-invalidate them on EPT
//! edits — the Covirt hypervisor's `TlbFlush` command is what
//! re-synchronizes them (the paper's command-queue + NMI protocol), and that
//! asynchrony is the behaviour Covirt exists to manage.

use crate::addr::{GuestPhysAddr, HostPhysAddr, PageSize, PhysRange};
use crate::error::{HwError, HwResult};
use crate::paging::{Access, EntryFormat, FramePool, Perms, RadixTable, TableLoad, Translation};
use crate::sizeclass::SizeClassed;
use parking_lot::Mutex;
use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// EPT entry encoding.
pub struct EptFormat;

/// EPT entry bits.
pub mod ept_bits {
    /// Read allowed.
    pub const R: u64 = 1 << 0;
    /// Write allowed.
    pub const W: u64 = 1 << 1;
    /// Execute allowed.
    pub const X: u64 = 1 << 2;
    /// Large/giant page (levels 2 and 3).
    pub const LARGE: u64 = 1 << 7;
    /// Address mask (bits 12..=51).
    pub const ADDR: u64 = 0x000f_ffff_ffff_f000;
}

impl EntryFormat for EptFormat {
    #[inline]
    fn present(entry: u64) -> bool {
        entry & (ept_bits::R | ept_bits::W | ept_bits::X) != 0
    }
    #[inline]
    fn leaf(entry: u64, level: u8) -> bool {
        level == 1 || entry & ept_bits::LARGE != 0
    }
    #[inline]
    fn frame(entry: u64) -> HostPhysAddr {
        HostPhysAddr::new(entry & ept_bits::ADDR)
    }
    #[inline]
    fn table_entry(child: HostPhysAddr) -> u64 {
        (child.raw() & ept_bits::ADDR) | ept_bits::R | ept_bits::W | ept_bits::X
    }
    #[inline]
    fn leaf_entry(pa: HostPhysAddr, level: u8, perms: Perms) -> u64 {
        let mut e = pa.raw() & ept_bits::ADDR;
        if perms.r {
            e |= ept_bits::R;
        }
        if perms.w {
            e |= ept_bits::W;
        }
        if perms.x {
            e |= ept_bits::X;
        }
        if level > 1 {
            e |= ept_bits::LARGE;
        }
        e
    }
    #[inline]
    fn entry_allows(entry: u64, access: Access) -> bool {
        match access {
            Access::Read => entry & ept_bits::R != 0,
            Access::Write => entry & ept_bits::W != 0,
            Access::Exec => entry & ept_bits::X != 0,
        }
    }
    #[inline]
    fn entry_perms(entry: u64) -> Perms {
        Perms {
            r: entry & ept_bits::R != 0,
            w: entry & ept_bits::W != 0,
            x: entry & ept_bits::X != 0,
        }
    }
}

/// Details of an EPT violation, mirroring the VMX exit qualification.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EptViolationInfo {
    /// Faulting guest-physical address.
    pub gpa: GuestPhysAddr,
    /// The access that faulted.
    pub access: Access,
}

/// How many shrinking edits a [`WalkCache`] may fall behind before its next
/// sync has to clear everything. The controller coalesces at most 8 ranged
/// flushes into one reclaim epoch (`MAX_RANGE_FLUSH_CMDS`), so a core that
/// walks at least once per epoch never overflows this.
pub(crate) const UNMAP_LOG_SLOTS: usize = 16;

/// The rights a [`WalkCache`] table line carries: none, which no present EPT
/// entry has, so a lookup never answers with one.
const TABLE_LINE: Perms = Perms {
    r: false,
    w: false,
    x: false,
};

/// An enclave's extended page tables.
pub struct Ept {
    table: RadixTable<EptFormat>,
    /// Bumped whenever the mapping *shrinks* — loses a range or may lose
    /// rights on one (an INVEPT-requiring change). Written only under the
    /// `unmap_log` lock.
    generation: AtomicU64,
    /// Slot `g % UNMAP_LOG_SLOTS` holds the range whose shrinking produced
    /// generation `g`, for the last `UNMAP_LOG_SLOTS` generations.
    unmap_log: Mutex<[PhysRange; UNMAP_LOG_SLOTS]>,
    /// Count of map operations (controller-side instrumentation).
    map_ops: AtomicU64,
    /// Count of unmap operations.
    unmap_ops: AtomicU64,
}

impl Ept {
    /// Create an empty EPT whose table frames come from `pool`.
    pub fn new(pool: Arc<FramePool>) -> HwResult<Self> {
        Ok(Ept {
            table: RadixTable::new(pool)?,
            generation: AtomicU64::new(1),
            unmap_log: Mutex::new([PhysRange::new(HostPhysAddr::new(0), 0); UNMAP_LOG_SLOTS]),
            map_ops: AtomicU64::new(0),
            unmap_ops: AtomicU64::new(0),
        })
    }

    /// The EPT pointer (root frame) that goes into the VMCS.
    pub fn eptp(&self) -> HostPhysAddr {
        self.table.root()
    }

    /// Identity-map a host-physical range into the guest-physical space
    /// with full permissions, coalescing into pages up to `max_level`
    /// (3 ⇒ allow 1 GiB, 2 ⇒ up to 2 MiB, 1 ⇒ 4 KiB only).
    pub fn map_identity(&self, range: PhysRange, max_level: u8) -> HwResult<()> {
        self.map_identity_perms(range, Perms::RWX, max_level)
    }

    /// Identity-map with explicit permissions (used by tests and by the
    /// read-only grant extension). A map overwrites a present leaf, so one of
    /// less than `RWX` may narrow rights a [`WalkCache`] holds and is logged
    /// like an unmap; `RWX` — all production code maps — can only widen. A
    /// map that fails is logged too: its roll-back unlinks the tables it
    /// linked and returns their frames to the pool, which may hand one to
    /// another enclave's EPT while a cached PDPTE still points at it.
    pub fn map_identity_perms(
        &self,
        range: PhysRange,
        perms: Perms,
        max_level: u8,
    ) -> HwResult<()> {
        let mapped = self
            .table
            .map(range.start.raw(), range.start, range.len, perms, max_level);
        if mapped.is_err() || perms != Perms::RWX {
            self.log_shrink(range);
        }
        mapped?;
        self.map_ops.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Remove a guest-physical range from the map, log it and bump the
    /// generation. A failed unmap may have cleared part of the range, so it
    /// is logged all the same.
    pub fn unmap(&self, range: PhysRange) -> HwResult<()> {
        let cleared = self.table.unmap(range.start.raw(), range.len);
        self.log_shrink(range);
        cleared?;
        self.unmap_ops.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Log `range` after the table edit that shrank it. The entry is written
    /// before the generation that names it is published, so whoever observes
    /// the new generation finds the range logged and the table edited.
    fn log_shrink(&self, range: PhysRange) {
        let mut log = self.unmap_log.lock();
        let generation = self.generation.load(Ordering::Relaxed) + 1;
        log[generation as usize % UNMAP_LOG_SLOTS] = range;
        self.generation.store(generation, Ordering::Release);
    }

    /// Translate a guest-physical address, checking `access` permission.
    /// Returns the translation or an [`HwError::EptViolation`].
    pub fn translate(
        &self,
        gpa: GuestPhysAddr,
        access: Access,
        loader: &impl TableLoad,
    ) -> HwResult<Translation> {
        self.translate_from(self.table.root(), 4, gpa, access, loader)
            .map(|(t, _)| t)
    }

    /// [`translate`](Self::translate) from `table`, the table holding
    /// `gpa`'s entry at `level`; also returns the PD page the walk passed
    /// (see [`RadixTable::walk_from`]).
    fn translate_from(
        &self,
        table: HostPhysAddr,
        level: u8,
        gpa: GuestPhysAddr,
        access: Access,
        loader: &impl TableLoad,
    ) -> HwResult<(Translation, Option<HostPhysAddr>)> {
        let (t, pd) = self
            .table
            .walk_from(table, level, gpa.raw(), loader)
            .map_err(|e| match e {
                HwError::PageNotPresent { .. } => violation_err(gpa, access),
                other => other,
            })?;
        if !t.perms.allows(access) {
            return Err(violation_err(gpa, access));
        }
        Ok((t, pd))
    }

    /// Current generation (TLB-coherence epoch).
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// Leaf counts `(4k, 2m, 1g)` — used by the coalescing ablation.
    pub fn leaf_counts(&self) -> HwResult<(u64, u64, u64)> {
        self.table.leaf_counts()
    }

    /// (map ops, unmap ops) performed so far.
    pub fn op_counts(&self) -> (u64, u64) {
        (
            self.map_ops.load(Ordering::Relaxed),
            self.unmap_ops.load(Ordering::Relaxed),
        )
    }
}

/// The core's cache of the EPT's answers: leaves, rights included, and the
/// PDPTEs above them.
///
/// Under nested paging every guest-physical address a TLB miss meets — each
/// guest page-table entry it loads, then the data page — must itself be
/// translated through the EPT (up to ~24 loads for a 4-level guest walk).
/// VT-x hides most of this with two caches, modelled here in one
/// size-classed structure. *Guest-physical mappings* (gpa → hpa with their
/// access rights, SDM vol. 3 §28.4) are held at the size of the EPT leaf a
/// translation came from (4 KiB / 2 MiB / 1 GiB classes, as
/// [`crate::tlb::Tlb`] has for guest-virtual pages), so one 2 MiB entry
/// answers every guest PT page and data page under that leaf with no EPT
/// walk. The 1 GiB class is also the *EPT PDPTE cache* (§28.3.1): a slot
/// there holds the PDPTE a walk read — a 1 GiB leaf, or the PD page it
/// points to — so a walk whose leaf is not cached starts at that PD page
/// (1 load to a 2 MiB leaf, 2 to a 4 KiB one, instead of 3 and 4). PDE
/// pointers are not cached: they would share the 2 MiB class with the
/// leaves over the guest's page-table pages, and a fragmented enclave's
/// hundreds of EPT page tables would evict those. A table line
/// carries no rights, so it never answers a lookup as a leaf.
/// [`WalkCache::translate`] is the one way to ask.
///
/// Coherence, one rule for every line. An [`Ept`] edit after which a cached
/// answer would be too generous — [`Ept::unmap`], an
/// [`Ept::map_identity_perms`] that may narrow a present leaf's rights, and
/// a map that failed (its roll-back hands the frames of the tables it linked
/// back to the pool) — edits the table, writes the range into a small ring
/// of the most recent such ranges, then publishes the generation naming that
/// slot, all before it returns. [`WalkCache::sync`], which a core calls once
/// when it starts a guest walk, replays the ranges logged since the
/// generation it last synced to and clears exactly the lines that overlap
/// one, table lines included: the whole line, so the surviving part of a
/// split large leaf goes too, while lines no edit touched keep hitting. Once
/// `unmap(R)` has returned, the first walk any core starts therefore serves
/// nothing from inside `R`. A cache further behind than the ring reaches, or
/// never synced, clears everything instead (counted in
/// [`WalkCache::full_flushes`]). A walk in flight when an edit lands keeps
/// the view it synced to; what it leaves in the TLB is for the reclaim
/// protocol's shootdown to flush. A cache follows one [`Ept`] for life.
///
/// Every hit is checked against the cached rights, and one they deny falls
/// through to the live EPT, which raises the violation or refills the line;
/// so does a walk resumed from a PD page that finds no entry or denied
/// rights — it falls through to a walk from the root. So an edit that only
/// makes the EPT *more* generous is not logged: the EPT is an identity map,
/// so no re-map changes a cached gpa → hpa pair; rights a re-map widened are
/// found by the fall-through; and a PD page a 1 GiB leaf was mapped over
/// stays the table's until the table drops, so a walk resumed there finds an
/// answer the EPT gave before, or falls through.
///
/// Core-private (interior mutability via [`Cell`] and [`RefCell`], not
/// thread-safe), like the hardware structure it models.
pub struct WalkCache {
    /// Under its guest-physical base, each line's host-physical base and
    /// rights: an EPT leaf's, or — in the 1 GiB class, with `TABLE_LINE`'s
    /// no rights — the PD page an EPT PDPTE points at. 64 × 4 KiB, 16 ×
    /// 2 MiB and 4 × 1 GiB slots: a few dozen lines cover the guest's page
    /// tables and the data of many gigabytes.
    lines: RefCell<SizeClassed<(u64, Perms), true>>,
    /// The EPT generation up to which every logged edit has been applied to
    /// the entries; 0 (no EPT ever has it) until the first sync.
    synced: Cell<u64>,
    hits: Cell<u64>,
    misses: Cell<u64>,
    full_flushes: Cell<u64>,
}

impl WalkCache {
    /// Build an empty cache.
    pub fn new() -> Self {
        WalkCache {
            lines: RefCell::new(SizeClassed::new([64, 16, 4])),
            synced: Cell::new(0),
            hits: Cell::new(0),
            misses: Cell::new(0),
            full_flushes: Cell::new(0),
        }
    }

    /// Bring the cache up to `ept`'s current generation: drop what the
    /// edits logged since the last sync shrank. Call once at the start of
    /// each guest walk, before the first [`translate`](Self::translate);
    /// with no such edit in between this is one atomic load.
    #[inline]
    pub fn sync(&self, ept: &Ept) {
        if ept.generation() != self.synced.get() {
            self.catch_up(ept);
        }
    }

    #[cold]
    fn catch_up(&self, ept: &Ept) {
        // Holding the lock keeps the slots being replayed from being reused
        // and the generation still.
        let log = ept.unmap_log.lock();
        let current = ept.generation.load(Ordering::Relaxed);
        let synced = self.synced.get();
        let logged = synced != 0
            && current
                .checked_sub(synced)
                .is_some_and(|behind| behind <= UNMAP_LOG_SLOTS as u64);
        let mut lines = self.lines.borrow_mut();
        if logged {
            for generation in synced + 1..=current {
                let range = &log[generation as usize % UNMAP_LOG_SLOTS];
                lines.invalidate_overlapping(range.start.raw(), range.len);
            }
        } else {
            lines.clear();
            self.full_flushes.set(self.full_flushes.get() + 1);
        }
        self.synced.set(current);
    }

    /// Translate `gpa` for `access` as of the last [`sync`](Self::sync): the
    /// gpa → hpa step of a nested walk, for a guest PT-entry page
    /// ([`Access::Read`]) and the data page alike. A cached leaf whose rights
    /// allow `access` answers with zero loads; anything else walks the live
    /// `ept` through `loader` — from the cached PD page of `gpa`'s GiB if
    /// there is one, else from the root, which raises the
    /// [`HwError::EptViolation`] for `gpa` and `access` — and caches what
    /// the walk read.
    ///
    /// Forced inline, the miss out of line: a hit is a link in the chain of
    /// dependent loads a guest walk is. As a call handing a `Translation`
    /// back through memory it costs RandomAccess under Covirt 9 % of its
    /// host time, a fragmented enclave 14 %.
    #[inline(always)]
    pub fn translate(
        &self,
        ept: &Ept,
        gpa: GuestPhysAddr,
        access: Access,
        loader: &impl TableLoad,
    ) -> HwResult<Translation> {
        match self.lookup(gpa.raw(), access) {
            Some(leaf) => Ok(leaf),
            None => self.walk_and_fill(ept, gpa, access, loader),
        }
    }

    /// The miss of [`translate`](Self::translate). A walk resumed from a
    /// cached PD page that answers is a hit; one that finds no entry or
    /// denied rights falls through to the root walk and counts as the miss
    /// `lookup` tallied, charged that walk's loads.
    #[inline(never)]
    fn walk_and_fill(
        &self,
        ept: &Ept,
        gpa: GuestPhysAddr,
        access: Access,
        loader: &impl TableLoad,
    ) -> HwResult<Translation> {
        if let Some(pd) = self.pd_page(gpa.raw()) {
            if let Ok((leaf, _)) = ept.translate_from(pd, 2, gpa, access, loader) {
                self.misses.set(self.misses.get() - 1);
                self.hits.set(self.hits.get() + 1);
                self.insert(gpa.raw(), &leaf);
                return Ok(leaf);
            }
        }
        let (leaf, pd) = ept.translate_from(ept.eptp(), 4, gpa, access, loader)?;
        self.insert(gpa.raw(), &leaf);
        if let Some(pd) = pd {
            *self.lines.borrow_mut().fill(gpa.raw(), PageSize::Size1G) = (pd.raw(), TABLE_LINE);
        }
        Ok(leaf)
    }

    /// The PD page a cached PDPTE says holds `gpa`'s PDE.
    #[inline]
    fn pd_page(&self, gpa: u64) -> Option<HostPhysAddr> {
        let lines = self.lines.borrow();
        let &(base, perms) = lines.probe_class(gpa, PageSize::Size1G)?.payload;
        (perms == TABLE_LINE).then(|| HostPhysAddr::new(base))
    }

    /// The cached leaf covering `gpa`, if its rights allow `access`. The
    /// classes are probed in turn; one lookup counts one hit or — a leaf
    /// that denies `access` included — one miss.
    #[inline(always)]
    pub(crate) fn lookup(&self, gpa: u64, access: Access) -> Option<Translation> {
        let lines = self.lines.borrow();
        let leaf = lines.probe(gpa).and_then(|hit| {
            let &(base, perms) = hit.payload;
            perms.allows(access).then(|| Translation {
                page_base: HostPhysAddr::new(base),
                page_size: hit.size,
                pa: HostPhysAddr::new(base + hit.offset),
                perms,
                loads: 0,
            })
        });
        let tally = if leaf.is_some() {
            &self.hits
        } else {
            &self.misses
        };
        tally.set(tally.get() + 1);
        leaf
    }

    /// Install the whole EPT leaf that translated `gpa` — `leaf` is what
    /// [`Ept::translate`] returned for it since the last
    /// [`sync`](Self::sync).
    #[inline]
    pub(crate) fn insert(&self, gpa: u64, leaf: &Translation) {
        *self.lines.borrow_mut().fill(gpa, leaf.page_size) = (leaf.page_base.raw(), leaf.perms);
    }

    /// (hits, misses) since construction.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits.get(), self.misses.get())
    }

    /// Syncs that had to clear everything because the log no longer covered
    /// the gap; a cache's first sync is one of them.
    pub fn full_flushes(&self) -> u64 {
        self.full_flushes.get()
    }
}

impl Default for WalkCache {
    fn default() -> Self {
        Self::new()
    }
}

fn violation_err(gpa: GuestPhysAddr, access: Access) -> HwError {
    HwError::EptViolation {
        gpa,
        read: access == Access::Read,
        write: access == Access::Write,
        exec: access == Access::Exec,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::{PageSize, PAGE_SIZE_1G, PAGE_SIZE_2M, PAGE_SIZE_4K};
    use crate::memory::PhysMemory;
    use crate::paging::DirectLoad;
    use crate::topology::ZoneId;

    fn setup() -> (Arc<PhysMemory>, Ept) {
        let (mem, _, ept) = setup_pool(8 * 1024 * 1024);
        (mem, ept)
    }

    /// An EPT on a pool of `pool_bytes` in a 512 MiB memory, and that pool.
    fn setup_pool(pool_bytes: u64) -> (Arc<PhysMemory>, Arc<FramePool>, Ept) {
        let mem = Arc::new(PhysMemory::new(&[512 * 1024 * 1024]));
        let pool_region = mem
            .alloc_backed(ZoneId(0), pool_bytes, PAGE_SIZE_4K)
            .unwrap();
        let pool = Arc::new(FramePool::new(Arc::clone(&mem), pool_region).unwrap());
        let ept = Ept::new(Arc::clone(&pool)).unwrap();
        (mem, pool, ept)
    }

    #[test]
    fn identity_translate() {
        let (mem, ept) = setup();
        let r = mem
            .alloc(ZoneId(0), 8 * PAGE_SIZE_4K, PAGE_SIZE_4K)
            .unwrap();
        ept.map_identity(r, 2).unwrap();
        let t = ept
            .translate(
                GuestPhysAddr::new(r.start.raw() + 100),
                Access::Read,
                &DirectLoad(&mem),
            )
            .unwrap();
        assert_eq!(t.pa.raw(), r.start.raw() + 100);
    }

    #[test]
    fn violation_outside_assignment() {
        let (mem, ept) = setup();
        let r = mem.alloc(ZoneId(0), PAGE_SIZE_4K, PAGE_SIZE_4K).unwrap();
        ept.map_identity(r, 1).unwrap();
        let bad = GuestPhysAddr::new(r.end().raw() + PAGE_SIZE_4K);
        let e = ept
            .translate(bad, Access::Write, &DirectLoad(&mem))
            .unwrap_err();
        assert!(matches!(e, HwError::EptViolation { write: true, .. }));
    }

    #[test]
    fn unmap_bumps_generation() {
        let (mem, ept) = setup();
        let r = mem.alloc(ZoneId(0), PAGE_SIZE_2M, PAGE_SIZE_2M).unwrap();
        let g0 = ept.generation();
        ept.map_identity(r, 2).unwrap();
        assert_eq!(
            ept.generation(),
            g0,
            "growing the map must not require INVEPT"
        );
        ept.unmap(r).unwrap();
        assert_eq!(ept.generation(), g0 + 1);
        assert!(ept
            .translate(
                GuestPhysAddr::new(r.start.raw()),
                Access::Read,
                &DirectLoad(&mem)
            )
            .is_err());
    }

    #[test]
    fn coalescing_uses_large_pages() {
        let (mem, ept) = setup();
        let r = mem
            .alloc(ZoneId(0), 4 * PAGE_SIZE_2M, PAGE_SIZE_2M)
            .unwrap();
        ept.map_identity(r, 3).unwrap();
        let (c4k, c2m, _c1g) = ept.leaf_counts().unwrap();
        assert_eq!(c4k, 0);
        assert_eq!(c2m, 4);
    }

    #[test]
    fn no_coalescing_when_limited() {
        let (mem, ept) = setup();
        let r = mem.alloc(ZoneId(0), PAGE_SIZE_2M, PAGE_SIZE_2M).unwrap();
        ept.map_identity(r, 1).unwrap();
        let (c4k, c2m, _): (u64, u64, u64) = ept.leaf_counts().unwrap();
        assert_eq!(c4k, 512);
        assert_eq!(c2m, 0);
    }

    #[test]
    fn readonly_grant_blocks_writes() {
        let (mem, ept) = setup();
        let r = mem.alloc(ZoneId(0), PAGE_SIZE_4K, PAGE_SIZE_4K).unwrap();
        let ro = Perms {
            w: false,
            x: false,
            ..Perms::RWX
        };
        ept.map_identity_perms(r, ro, 1).unwrap();
        let gpa = GuestPhysAddr::new(r.start.raw());
        assert!(ept.translate(gpa, Access::Read, &DirectLoad(&mem)).is_ok());
        assert!(ept
            .translate(gpa, Access::Write, &DirectLoad(&mem))
            .is_err());
    }

    /// What `Ept::translate` returns for an address under the leaf of
    /// `page_size` bytes at host-physical `host_base`.
    fn leaf(host_base: u64, page_size: u64) -> Translation {
        Translation {
            page_base: HostPhysAddr::new(host_base),
            page_size: PageSize::from_bytes(page_size).unwrap(),
            pa: HostPhysAddr::new(host_base),
            perms: Perms::RWX,
            loads: 0,
        }
    }

    /// Host address a read of `gpa` hits at, if it does.
    fn read_hit(c: &WalkCache, gpa: u64) -> Option<u64> {
        c.lookup(gpa, Access::Read).map(|t| t.pa.raw())
    }

    #[test]
    fn walk_cache_hits_within_the_inserted_leaf() {
        let c = WalkCache::new();
        c.insert(0x5000 + 8, &leaf(0x9000, PAGE_SIZE_4K));
        assert_eq!(read_hit(&c, 0x5010), Some(0x9010));
        assert_eq!(read_hit(&c, 0x5ff8), Some(0x9ff8));
        let (h, m) = c.stats();
        assert_eq!((h, m), (2, 0));
    }

    #[test]
    fn walk_cache_entry_covers_its_whole_leaf_and_nothing_else() {
        let c = WalkCache::new();
        let (gpa, host) = (3 * PAGE_SIZE_1G + 5 * PAGE_SIZE_2M, 7 * PAGE_SIZE_2M);
        c.insert(gpa + 0x1238, &leaf(host, PAGE_SIZE_2M));
        assert_eq!(read_hit(&c, gpa), Some(host));
        assert_eq!(
            read_hit(&c, gpa + PAGE_SIZE_2M - 8),
            Some(host + PAGE_SIZE_2M - 8)
        );
        assert_eq!(read_hit(&c, gpa - 8), None);
        assert_eq!(read_hit(&c, gpa + PAGE_SIZE_2M), None);
        // One lookup is one hit or one miss, however many classes it probed.
        assert_eq!(c.stats(), (2, 2));
    }

    /// Map `slots` consecutive 2 MiB leaves and cache all of them the way a
    /// walk does: sync, then translate through the cache, which misses.
    fn cached_2m_leaves(mem: &PhysMemory, ept: &Ept, c: &WalkCache, slots: u64) -> PhysRange {
        let r = mem
            .alloc(ZoneId(0), slots * PAGE_SIZE_2M, PAGE_SIZE_2M)
            .unwrap();
        ept.map_identity(r, 2).unwrap();
        c.sync(ept);
        for slot in 0..slots {
            let gpa = GuestPhysAddr::new(r.start.raw() + slot * PAGE_SIZE_2M + 64);
            let t = c.translate(ept, gpa, Access::Read, &DirectLoad(mem));
            assert!(t.unwrap().loads > 0, "a cold leaf walks the EPT");
        }
        r
    }

    fn sub(r: PhysRange, offset: u64, len: u64) -> PhysRange {
        PhysRange::new(r.start.add(offset), len)
    }

    #[test]
    fn sync_drops_what_an_unmap_removed_and_keeps_the_rest() {
        let (mem, ept) = setup();
        let c = WalkCache::new();
        let r = cached_2m_leaves(&mem, &ept, &c, 3);
        let at = |slot: u64| r.start.raw() + slot * PAGE_SIZE_2M + 4096;
        assert_eq!(c.full_flushes(), 1, "the cold first sync");

        ept.unmap(sub(r, PAGE_SIZE_2M, PAGE_SIZE_2M)).unwrap();
        // Not yet synced: the walk in flight keeps the view it started with.
        assert_eq!(read_hit(&c, at(1)), Some(at(1)));
        c.sync(&ept);
        assert_eq!(read_hit(&c, at(1)), None, "the reclaimed leaf is gone");
        assert_eq!(read_hit(&c, at(0)), Some(at(0)), "its neighbours still hit");
        assert_eq!(read_hit(&c, at(2)), Some(at(2)));
        assert_eq!(c.full_flushes(), 1, "a logged unmap needs no full clear");
    }

    #[test]
    fn sync_drops_the_whole_entry_of_a_split_leaf() {
        let (mem, ept) = setup();
        let c = WalkCache::new();
        let r = cached_2m_leaves(&mem, &ept, &c, 2);
        // One page out of the first leaf: the radix engine splits it, and
        // the 2 MiB entry no longer describes a leaf that exists.
        ept.unmap(sub(r, 16 * PAGE_SIZE_4K, PAGE_SIZE_4K)).unwrap();
        c.sync(&ept);
        assert_eq!(read_hit(&c, r.start.raw() + 16 * PAGE_SIZE_4K), None);
        assert_eq!(read_hit(&c, r.start.raw()), None, "surviving part included");
        let other = r.start.raw() + PAGE_SIZE_2M;
        assert_eq!(read_hit(&c, other), Some(other));
    }

    #[test]
    fn sync_clears_everything_once_the_log_has_wrapped() {
        let (mem, ept) = setup();
        let c = WalkCache::new();
        let r = cached_2m_leaves(&mem, &ept, &c, 2);
        let (reclaimed, kept) = (r.start.raw(), r.start.raw() + PAGE_SIZE_2M);
        let slots = UNMAP_LOG_SLOTS as u64;
        let scratch = mem
            .alloc(ZoneId(0), slots * PAGE_SIZE_4K, PAGE_SIZE_4K)
            .unwrap();
        // Unmap the first leaf, then `more` unrelated pages, unsynced.
        let fall_behind = |more: u64| {
            ept.map_identity(scratch, 1).unwrap();
            ept.unmap(sub(r, 0, PAGE_SIZE_2M)).unwrap();
            for page in 0..more {
                ept.unmap(sub(scratch, page * PAGE_SIZE_4K, PAGE_SIZE_4K))
                    .unwrap();
            }
        };

        fall_behind(slots - 1);
        c.sync(&ept);
        assert_eq!(c.full_flushes(), 1, "a full ring is still replayed");
        assert_eq!(read_hit(&c, reclaimed), None);
        assert_eq!(read_hit(&c, kept), Some(kept));

        fall_behind(slots);
        c.sync(&ept);
        assert_eq!(c.full_flushes(), 2, "one unmap too many to replay");
        assert_eq!(
            read_hit(&c, kept),
            None,
            "overflow degrades to a full clear"
        );
    }

    /// One leaf through its life: read-only and cached by a read, widened,
    /// narrowed again. The cached rights are checked on every hit, a denied
    /// hit is the live EPT's to answer, and only the narrowing is logged.
    #[test]
    fn cached_rights_are_checked_and_only_a_narrowing_re_map_is_logged() {
        let (mem, ept) = setup();
        let c = WalkCache::new();
        let r = mem.alloc(ZoneId(0), PAGE_SIZE_2M, PAGE_SIZE_2M).unwrap();
        let gpa = GuestPhysAddr::new(r.start.raw() + 0x1238);
        // What a walk started now gets: the translation's loads, or the error.
        let walk = |access| {
            c.sync(&ept);
            c.translate(&ept, gpa, access, &DirectLoad(&mem))
                .map(|t| (t.pa.raw(), t.loads))
        };
        let denied = Err(violation_err(gpa, Access::Write));

        ept.map_identity_perms(r, Perms::R, 2).unwrap();
        assert_eq!(walk(Access::Read), Ok((gpa.raw(), 3)), "cold: the EPT walk");
        assert_eq!(walk(Access::Read), Ok((gpa.raw(), 0)), "then the cache");
        assert_eq!(walk(Access::Write), denied, "the cached rights refuse it");
        assert_eq!(walk(Access::Read), Ok((gpa.raw(), 0)), "and the leaf stays");

        let generation = ept.generation();
        ept.map_identity(r, 2).unwrap();
        assert_eq!(ept.generation(), generation, "widening needs no log entry");
        assert_eq!(
            walk(Access::Write),
            Ok((gpa.raw(), 1)),
            "falls through to the live EPT — since PR 25 from the cached PD page \
             the cold walk passed: one load, the PDE, not the root walk's 3"
        );
        assert_eq!(walk(Access::Write), Ok((gpa.raw(), 0)), "and refills");

        ept.map_identity_perms(r, Perms::R, 2).unwrap();
        assert_eq!(ept.generation(), generation + 1, "narrowing is logged");
        assert_eq!(walk(Access::Write), denied, "first walk after the re-map");
        assert_eq!(c.full_flushes(), 1, "ranged, not a full clear");
    }

    /// Whether `cached` is an answer the live EPT gives: the same verdict,
    /// and on success the same address with no right the live leaf lacks.
    fn agrees(cached: &HwResult<Translation>, live: &HwResult<Translation>) -> bool {
        match (cached, live) {
            (Ok(c), Ok(l)) => c.pa == l.pa && c.perms.intersect(l.perms) == c.perms,
            (Err(c), Err(l)) => c == l,
            _ => false,
        }
    }

    /// A walk whose leaf is not cached starts at the PD page the cold walk
    /// cached for its GiB and answers exactly what a walk from the root
    /// does: one hit, charged the loads below the PDPTE.
    #[test]
    fn a_walk_resumed_from_a_cached_pd_page_answers_what_the_root_walk_does() {
        let (mem, ept) = setup();
        let (c, load) = (WalkCache::new(), DirectLoad(&mem));
        let big = mem.alloc(ZoneId(0), PAGE_SIZE_2M, PAGE_SIZE_2M).unwrap();
        let small = mem
            .alloc(ZoneId(0), 4 * PAGE_SIZE_4K, PAGE_SIZE_4K)
            .unwrap();
        assert_eq!(
            big.start.raw() / PAGE_SIZE_1G,
            small.start.raw() / PAGE_SIZE_1G
        );
        ept.map_identity_perms(big, Perms::R, 2).unwrap();
        ept.map_identity_perms(small, Perms::RW, 1).unwrap();
        c.sync(&ept);
        let cold = c.translate(
            &ept,
            GuestPhysAddr::new(small.start.raw()),
            Access::Read,
            &load,
        );
        assert_eq!(cold.unwrap().loads, 4, "the cold walk starts at the root");
        assert_eq!(c.stats(), (0, 1));

        for (gpa, loads) in [
            (small.start.raw() + PAGE_SIZE_4K + 8, 2),
            (big.start.raw() + 0x1238, 1),
        ] {
            let gpa = GuestPhysAddr::new(gpa);
            let (hits, misses) = c.stats();
            let resumed = c.translate(&ept, gpa, Access::Read, &load).unwrap();
            let root = ept.translate(gpa, Access::Read, &load).unwrap();
            assert_eq!(
                (
                    resumed.page_base,
                    resumed.page_size,
                    resumed.pa,
                    resumed.perms
                ),
                (root.page_base, root.page_size, root.pa, root.perms)
            );
            assert_eq!(resumed.loads, loads, "{:?}", root.page_size);
            assert_eq!(c.stats(), (hits + 1, misses), "a resumed walk is a hit");
        }
    }

    /// A 1 GiB leaf mapped over a GiB whose PD page is cached unlinks that
    /// page without a log entry (an `RWX` map only widens). A walk resumed
    /// there still gets what the live EPT grants — an answer it gave before,
    /// or the root walk's where the old page has none or denies the access —
    /// and once part of the leaf is unmapped, the logged range takes the
    /// line with it.
    #[test]
    fn a_1g_leaf_over_a_cached_pd_page_leaves_only_answers_the_live_ept_gives() {
        let gib = PhysRange::new(HostPhysAddr::new(PAGE_SIZE_1G), PAGE_SIZE_1G);
        let hole = sub(gib, PAGE_SIZE_2M + 5 * PAGE_SIZE_4K, PAGE_SIZE_4K);
        // Read-only under the old PD page: a 2 MiB leaf in slot 0 and sixteen
        // 4 KiB ones in slot 1, page 5 of them `hole`; nothing in slot 3 or
        // at the top. `hole` comes first: a walk that falls through to the
        // root caches the live PDPTE in place of the old one.
        let points = [
            hole.start.raw() + 8,
            gib.start.raw() + 0x1238,
            gib.start.raw() + PAGE_SIZE_2M + 16 * PAGE_SIZE_4K,
            gib.start.raw() + 3 * PAGE_SIZE_2M + 8,
            gib.end().raw() - 8,
        ];
        for unmap_first in [false, true] {
            let (mem, ept) = setup();
            let (c, load) = (WalkCache::new(), DirectLoad(&mem));
            ept.map_identity_perms(sub(gib, 0, PAGE_SIZE_2M), Perms::R, 2)
                .unwrap();
            ept.map_identity_perms(sub(gib, PAGE_SIZE_2M, 16 * PAGE_SIZE_4K), Perms::R, 1)
                .unwrap();
            c.sync(&ept);
            c.translate(
                &ept,
                GuestPhysAddr::new(gib.start.raw()),
                Access::Read,
                &load,
            )
            .unwrap();
            let old_pd = c.pd_page(gib.start.raw());
            assert!(old_pd.is_some(), "the cold walk cached the PDPTE");

            let generation = ept.generation();
            ept.map_identity(gib, 3).unwrap();
            assert_eq!(ept.generation(), generation, "not logged");
            if unmap_first {
                // The 1 GiB leaf splits under the hole; the range is logged.
                ept.unmap(hole).unwrap();
            }
            for gpa in points {
                for access in [Access::Read, Access::Write, Access::Exec] {
                    c.sync(&ept);
                    let gpa = GuestPhysAddr::new(gpa);
                    let cached = c.translate(&ept, gpa, access, &load);
                    let live = ept.translate(gpa, access, &load);
                    assert!(
                        agrees(&cached, &live),
                        "{access:?} of {gpa:?} after unmap: {unmap_first}: {cached:?}, live {live:?}"
                    );
                }
            }
            if unmap_first {
                assert_ne!(
                    c.pd_page(gib.start.raw()),
                    old_pd,
                    "the unmap took the line"
                );
            }
        }
    }

    /// A map the pool refuses after it linked a new PD page takes the page
    /// back, and the pool hands it on — here to a second EPT on the same
    /// pool, as the controller's node-wide pool does. A walk in flight during
    /// the map may have cached the PDPTE that pointed at it; the failed map is
    /// logged, so the next sync drops that line and the next walk gets this
    /// EPT's answer, not the other's.
    #[test]
    fn a_failed_map_is_logged_so_no_line_leads_into_the_frame_it_gave_back() {
        let mem = Arc::new(PhysMemory::new(&[64 * 1024 * 1024]));
        // Each EPT's root, PDPT and one PD, and one frame spare.
        let region = mem
            .alloc_backed(ZoneId(0), 7 * PAGE_SIZE_4K, PAGE_SIZE_4K)
            .unwrap();
        let pool = Arc::new(FramePool::new(Arc::clone(&mem), region).unwrap());
        let (ept, other) = (
            Ept::new(Arc::clone(&pool)).unwrap(),
            Ept::new(Arc::clone(&pool)).unwrap(),
        );
        let slot = |gib: u64, n: u64| {
            PhysRange::new(
                HostPhysAddr::new(gib * PAGE_SIZE_1G + n * PAGE_SIZE_2M),
                PAGE_SIZE_2M,
            )
        };
        ept.map_identity(slot(1, 0), 2).unwrap();
        other.map_identity(slot(1, 0), 2).unwrap();
        let spare = pool.alloc_frame().unwrap();
        pool.free_frame(spare).unwrap();

        // The last 2 MiB of GiB 2 and the first of GiB 3: the spare becomes
        // GiB 2's PD page, GiB 3's finds no frame.
        let wanted = PhysRange::new(slot(2, 511).start, 2 * PAGE_SIZE_2M);
        let c = WalkCache::new();
        c.sync(&ept);
        // The line a walk of `wanted` racing the map would leave: GiB 2's
        // PDPTE, pointing at the spare. (One thread cannot interleave a walk
        // with a map, so it is filled by hand.)
        *c.lines
            .borrow_mut()
            .fill(wanted.start.raw(), PageSize::Size1G) = (spare.raw(), TABLE_LINE);
        let generation = ept.generation();
        let refused = ept.map_identity(wanted, 2);
        assert!(
            matches!(refused, Err(HwError::OutOfMemory { .. })),
            "{refused:?}"
        );
        assert_eq!(ept.generation(), generation + 1, "the failed map is logged");
        // The other EPT's PD page for GiB 3 is the spare, with its last slot
        // mapped.
        other.map_identity(slot(3, 511), 2).unwrap();
        assert_eq!(pool.outstanding(), 7);

        c.sync(&ept);
        assert_eq!(
            c.pd_page(wanted.start.raw()),
            None,
            "the line went with the log entry"
        );
        let gpa = GuestPhysAddr::new(wanted.start.raw() + 0x40);
        assert_eq!(
            c.translate(&ept, gpa, Access::Read, &DirectLoad(&mem)),
            Err(violation_err(gpa, Access::Read)),
            "this EPT never mapped it"
        );
    }

    // The stand-in `ProptestConfig` has one field; `..default()` keeps the
    // block compatible with the real crate.
    #[allow(clippy::needless_update)]
    mod leaf_cache_props {
        use super::*;
        use proptest::prelude::*;

        /// The sample points of the 2 GiB arena: GiB slot `g`, 2 MiB slot
        /// `m` within it, and eight 256 KiB-spaced pages `p` across that
        /// slot, so ops collide and both halves of a 2 MiB leaf are seen.
        fn point(arena: u64, (g, m, p): (u64, u64, u64)) -> u64 {
            arena + g * PAGE_SIZE_1G + m * PAGE_SIZE_2M + p * (PAGE_SIZE_2M / 8)
        }

        fn points(arena: u64) -> impl Iterator<Item = u64> {
            (0..2).flat_map(move |g| {
                (0..4).flat_map(move |m| (0..8).map(move |p| point(arena, (g, m, p))))
            })
        }

        proptest! {
            #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]
            /// Drive the cache the way `NestedLoad` does (sync, then
            /// translate through it) against random map/unmap sequences
            /// mixing 4 KiB, 2 MiB and 1 GiB leaves of three sets of rights,
            /// 1 GiB leaves mapped over a subtree whose PD page may be
            /// cached, and maps refused by a pool with one frame left, with
            /// any number of edits — at times more than the log holds —
            /// between two walks. After every sync no point inside a range
            /// unmapped since the previous one may hit, every hit anywhere,
            /// for any access, must be one a fresh `Ept::translate` grants
            /// (same address, no right the live leaf lacks), and so must
            /// every answer `translate` gives, leaf or resumed walk.
            #[test]
            fn hits_match_the_live_ept_and_unmapped_ranges_never_hit(
                ops in proptest::collection::vec((0u8..18, 0u64..2, 0u64..4, 0u64..8), 1..200),
            ) {
                // Two GiB slots above the memory `setup` builds: the EPT
                // maps addresses, so the arena needs no backing.
                let (mem, pool, ept) = setup_pool(2 * 1024 * 1024);
                let arena = PAGE_SIZE_1G;
                let load = DirectLoad(&mem);
                let cache = WalkCache::new();
                let range = |start, len| PhysRange::new(HostPhysAddr::new(start), len);
                let accesses = [Access::Read, Access::Write, Access::Exec];
                // Unmapped since the cache last synced.
                let mut unsynced: Vec<PhysRange> = Vec::new();

                for (kind, g, m, p) in ops {
                    let page = point(arena, (g, m, p));
                    let slot_2m = point(arena, (g, m, 0));
                    let slot_1g = point(arena, (g, 0, 0));
                    let unmaps = match kind {
                        // A map that collides with a larger leaf is
                        // refused; the sequence just carries on. One over a
                        // present leaf of the same size re-maps it, at
                        // times with fewer rights.
                        0..=2 => {
                            let (start, level) =
                                [(page, 1), (slot_2m, 2), (slot_1g, 3)][kind as usize];
                            let len = PageSize::from_level(level).unwrap().bytes();
                            let perms = [Perms::RWX, Perms::R, Perms::RW][(g + m + p) as usize % 3];
                            let _ = ept.map_identity_perms(range(start, len), perms, level);
                            continue;
                        }
                        3 => vec![range(page, PAGE_SIZE_4K)],
                        4 => vec![range(slot_2m, PAGE_SIZE_2M)],
                        // The lower half only: splits a 2 MiB leaf.
                        5 => vec![range(slot_2m, PAGE_SIZE_2M / 2)],
                        6 => vec![range(slot_1g, PAGE_SIZE_1G)],
                        // Every sample page of one GiB slot, one unmap
                        // each: more than the log holds.
                        7 => points(arena)
                            .filter(|gpa| range(slot_1g, PAGE_SIZE_1G).contains(HostPhysAddr::new(*gpa)))
                            .map(|gpa| range(gpa, PAGE_SIZE_4K))
                            .collect(),
                        // A large leaf over whatever subtree the GiB has.
                        8 => {
                            ept.map_identity(range(slot_1g, PAGE_SIZE_1G), 3).unwrap();
                            continue;
                        }
                        // One frame left: a map needing a PD page and a PT
                        // links the first and is refused at the second.
                        9 => {
                            let mut held = Vec::new();
                            while let Ok(frame) = pool.alloc_frame() {
                                held.push(frame);
                            }
                            if let Some(frame) = held.pop() {
                                pool.free_frame(frame).unwrap();
                            }
                            let _ = ept.map_identity(range(page, PAGE_SIZE_4K), 1);
                            for frame in held {
                                pool.free_frame(frame).unwrap();
                            }
                            continue;
                        }
                        _ => {
                            cache.sync(&ept);
                            for (gpa, access) in points(arena).flat_map(|gpa| accesses.map(|a| (gpa, a))) {
                                let hit = cache.lookup(gpa, access);
                                if unsynced.iter().any(|r| r.contains(HostPhysAddr::new(gpa))) {
                                    prop_assert_eq!(
                                        hit, None,
                                        "{:#x} hits after a sync that followed its unmap", gpa
                                    );
                                }
                                if let Some(hit) = hit {
                                    let live = ept.translate(GuestPhysAddr::new(gpa), access, &load);
                                    prop_assert_eq!(
                                        live.map(|t| (t.pa, t.perms.intersect(hit.perms))).ok(),
                                        Some((hit.pa, hit.perms)),
                                        "{:?} hit at {:#x} is not what the live EPT grants", access, gpa
                                    );
                                }
                            }
                            unsynced.clear();
                            for (i, gpa) in points(arena).enumerate() {
                                let (gpa, access) = (GuestPhysAddr::new(gpa + 8 * p), accesses[(i + kind as usize) % 3]);
                                let cached = cache.translate(&ept, gpa, access, &load);
                                let live = ept.translate(gpa, access, &load);
                                prop_assert!(
                                    agrees(&cached, &live),
                                    "{:?} of {:?}: cached {:?}, live {:?}", access, gpa, cached, live
                                );
                            }
                            continue;
                        }
                    };
                    for r in unmaps {
                        ept.unmap(r).unwrap();
                        unsynced.push(r);
                    }
                }
            }
        }
    }

    #[test]
    fn op_counters() {
        let (mem, ept) = setup();
        let r = mem.alloc(ZoneId(0), PAGE_SIZE_4K, PAGE_SIZE_4K).unwrap();
        ept.map_identity(r, 1).unwrap();
        ept.unmap(r).unwrap();
        assert_eq!(ept.op_counts(), (1, 1));
    }
}
