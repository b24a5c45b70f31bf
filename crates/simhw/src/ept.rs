//! Extended Page Tables (EPT) — Intel's nested paging, functionally modelled.
//!
//! The EPT translates *guest-physical* to *host-physical* addresses. Covirt
//! builds an identity map of exactly the regions an enclave owns, with full
//! RWX permissions, so a violation occurs if and only if the enclave touches
//! a guest-physical address outside its assignment — the paper's memory
//! protection feature. Contiguous runs are coalesced into 2 MiB and 1 GiB
//! leaves by the generic radix engine (see [`crate::paging`]).
//!
//! An edit changes the table and nothing else. What a core cached from the
//! EPT — its TLB and its [`WalkCache`] — keeps serving the old answer until
//! the core is told to drop it, as on hardware: whoever shrinks the map owes
//! every core that may hold the range an invalidation. In Covirt that is the
//! hypervisor's flush command (the paper's command-queue + NMI protocol), and
//! that asynchrony is the behaviour Covirt exists to manage.

use crate::addr::{GuestPhysAddr, HostPhysAddr, PageSize, PhysRange};
use crate::error::{HwError, HwResult};
use crate::line::Line;
use crate::paging::{Access, EntryFormat, FramePool, Perms, RadixTable, TableLoad, Translation};
use crate::sizeclass::SizeClassed;
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

/// The rights a [`WalkCache`] table line carries: none, which no present EPT
/// entry has, so a lookup never answers with one.
const TABLE_LINE: Perms = Perms {
    r: false,
    w: false,
    x: false,
};

/// An enclave's extended page tables.
///
/// What a grant or a reclaim writes — the op counts here and the table's
/// frame record — sits on lines of its own, apart from the table's root
/// and pool, which every nested walk reads (see [`crate::line`]).
pub struct Ept {
    table: RadixTable<EptFormat>,
    /// Map and unmap operations (controller-side instrumentation).
    ops: Line<OpCounts>,
}

/// The counts behind [`Ept::op_counts`].
#[derive(Default)]
struct OpCounts {
    map: AtomicU64,
    unmap: AtomicU64,
}

impl Ept {
    /// Create an empty EPT whose table frames come from `pool`.
    pub fn new(pool: Arc<FramePool>) -> HwResult<Self> {
        Ok(Ept {
            table: RadixTable::new(pool)?,
            ops: Line::default(),
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
    /// less than `RWX` may narrow rights a core has cached; `RWX` — all
    /// production code maps — can only widen. A map that fails has rolled
    /// back the tables it linked and returned their frames to the pool, which
    /// may hand one to another enclave's EPT while a cached PDPTE still
    /// points at it. After either the caller owes the cores an invalidation
    /// of `range`.
    pub fn map_identity_perms(
        &self,
        range: PhysRange,
        perms: Perms,
        max_level: u8,
    ) -> HwResult<()> {
        self.table
            .map(range.start.raw(), range.start, range.len, perms, max_level)?;
        self.ops.map.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Remove a guest-physical range from the map. The caller owes the
    /// cores an invalidation of `range` — even when the unmap fails, since
    /// it may have cleared part of it.
    pub fn unmap(&self, range: PhysRange) -> HwResult<()> {
        self.table.unmap(range.start.raw(), range.len)?;
        self.ops.unmap.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Translate a guest-physical address, checking `access` permission.
    /// Returns the translation or an [`HwError::EptViolation`].
    pub fn translate(
        &self,
        gpa: GuestPhysAddr,
        access: Access,
        loader: &impl TableLoad,
    ) -> HwResult<Translation> {
        self.walk(gpa, access, loader).map(|(t, _)| t)
    }

    /// [`translate`](Self::translate), also returning the PD page the walk
    /// passed (see [`RadixTable::walk_with_pd`]).
    fn walk(
        &self,
        gpa: GuestPhysAddr,
        access: Access,
        loader: &impl TableLoad,
    ) -> HwResult<(Translation, Option<HostPhysAddr>)> {
        let (t, pd) = self
            .table
            .walk_with_pd(gpa.raw(), loader)
            .map_err(|e| match e {
                HwError::PageNotPresent { .. } => violation_err(gpa, access),
                other => other,
            })?;
        if !t.perms.allows(access) {
            return Err(violation_err(gpa, access));
        }
        Ok((t, pd))
    }

    /// Leaf counts `(4k, 2m, 1g)` — used by the coalescing ablation.
    pub fn leaf_counts(&self) -> HwResult<(u64, u64, u64)> {
        self.table.leaf_counts()
    }

    /// (map ops, unmap ops) performed so far.
    pub fn op_counts(&self) -> (u64, u64) {
        (
            self.ops.map.load(Ordering::Relaxed),
            self.ops.unmap.load(Ordering::Relaxed),
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
/// Coherence is the core's own business, as on hardware: the cache never
/// looks at the [`Ept`] to learn of an edit. An edit after which a cached
/// answer would be too generous — [`Ept::unmap`], an
/// [`Ept::map_identity_perms`] that may narrow a present leaf's rights, and
/// a map that failed — leaves every line as it was until the core is told:
/// [`flush_range`](Self::flush_range) drops exactly the lines that share a
/// byte with the range, table lines included (the whole line, so the
/// surviving part of a split large leaf goes too), while lines no edit
/// touched keep hitting. The Covirt hypervisor runs it for the flush
/// commands the controller posts after every such edit, so once that round
/// trip has returned no walk any core starts serves anything from inside the
/// range. A cache follows one [`Ept`] for life.
///
/// The cache also remembers its *table line*: the identity 2 MiB line that
/// last answered a guest page-table read ([`table_line`](Self::table_line)).
/// While it is set, a lookup anywhere inside it would return that line, so a
/// walker may answer a guest table entry there from the entry's own address
/// and count the hit with [`count_repeat_hits`](Self::count_repeat_hits).
/// Only a flush or a 2 MiB fill can change what such a lookup returns, and
/// every flush and every 2 MiB fill forgets the line: the flush commands
/// stay the cache's only coherence.
///
/// Every hit is checked against the cached rights, and one they deny falls
/// through to the live EPT, which raises the violation or refills the line;
/// so does a walk resumed from a PD page that finds no entry or denied
/// rights — it falls through to a walk from the root. So an edit that only
/// makes the EPT *more* generous needs no flush: the EPT is an identity map,
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
    /// Base of the table line, or `u64::MAX` (no 2 MiB line has it).
    table_line: Cell<u64>,
    hits: Cell<u64>,
    misses: Cell<u64>,
}

impl WalkCache {
    /// Build an empty cache.
    pub fn new() -> Self {
        WalkCache {
            lines: RefCell::new(SizeClassed::new([64, 16, 4])),
            table_line: Cell::new(u64::MAX),
            hits: Cell::new(0),
            misses: Cell::new(0),
        }
    }

    /// Drop every line that shares a byte with `[gpa, gpa + len)`, table
    /// lines included: the walk-cache half of a ranged flush command.
    pub fn flush_range(&self, gpa: u64, len: u64) {
        self.table_line.set(u64::MAX);
        self.lines.borrow_mut().invalidate_overlapping(gpa, len);
    }

    /// Drop every line.
    pub fn flush_all(&self) {
        self.table_line.set(u64::MAX);
        self.lines.borrow_mut().clear();
    }

    /// The base of the table line, if one is set: every guest-physical
    /// address inside it translates to itself with read rights, with no
    /// load, until the next flush or 2 MiB fill.
    #[inline(always)]
    pub fn table_line(&self) -> Option<u64> {
        let line = self.table_line.get();
        (line != u64::MAX).then_some(line)
    }

    /// Remember `t`, the answer to a guest page-table read of `gpa`, as
    /// the table line if it is an identity 2 MiB line.
    #[inline]
    pub fn remember_table_line(&self, gpa: u64, t: &Translation) {
        if t.page_size == PageSize::Size2M && t.pa.raw() == gpa {
            self.table_line.set(t.page_base.raw());
        }
    }

    /// Translate `gpa` for `access` as of the last flush: the gpa → hpa
    /// step of a nested walk, for a guest PT-entry page
    /// ([`Access::Read`]) and the data page alike. One probe of the classes
    /// answers: a cached leaf whose rights allow `access` is the
    /// translation, with zero loads; else the cached PD page of `gpa`'s GiB,
    /// if there is one, is read for the leaf below it (1 load to a 2 MiB
    /// leaf, 2 to a 4 KiB one), which is cached and counts as a hit if it
    /// allows `access`. Anything else walks the live `ept` from the root
    /// through `loader`, which raises the [`HwError::EptViolation`] for
    /// `gpa` and `access`, and caches what the walk read.
    ///
    /// Forced inline, only the root walk out of line: a hit is a link in the
    /// chain of dependent loads a guest walk is, and so is the read of a PD
    /// page, which a fragmented enclave's data page takes on every TLB miss.
    /// As a call handing a `Translation` back through memory the hit costs
    /// RandomAccess under Covirt 9 % of its host time, a fragmented enclave
    /// 14 %; with the PD page read out of line, behind a second probe, the
    /// latter's `native_ratio` read about 5 % lower.
    #[inline(always)]
    pub fn translate(
        &self,
        ept: &Ept,
        gpa: GuestPhysAddr,
        access: Access,
        loader: &impl TableLoad,
    ) -> HwResult<Translation> {
        let resumed = match self.probe(gpa.raw(), access) {
            Ok(leaf) => {
                self.hits.set(self.hits.get() + 1);
                return Ok(leaf);
            }
            Err(pd) => pd.and_then(|pd| ept.table.leaf_from_pd(pd, gpa.raw())),
        };
        match resumed.filter(|leaf| leaf.perms.allows(access)) {
            Some(leaf) => {
                self.hits.set(self.hits.get() + 1);
                self.insert(gpa.raw(), &leaf);
                Ok(leaf)
            }
            None => self.walk_from_root(ept, gpa, access, loader),
        }
    }

    /// The miss of [`translate`](Self::translate): the live EPT walked from
    /// the root, its leaf and the PDPTE it passed cached.
    #[inline(never)]
    fn walk_from_root(
        &self,
        ept: &Ept,
        gpa: GuestPhysAddr,
        access: Access,
        loader: &impl TableLoad,
    ) -> HwResult<Translation> {
        self.misses.set(self.misses.get() + 1);
        let (leaf, pd) = ept.walk(gpa, access, loader)?;
        self.insert(gpa.raw(), &leaf);
        if let Some(pd) = pd {
            *self.lines.borrow_mut().fill(gpa.raw(), PageSize::Size1G) = (pd.raw(), TABLE_LINE);
        }
        Ok(leaf)
    }

    /// The one probe of [`translate`](Self::translate), counting nothing:
    /// the cached leaf covering `gpa` if its rights allow `access`, else the
    /// PD page a cached PDPTE says holds `gpa`'s PDE, if one does. The
    /// classes are probed in turn and the first line covering `gpa`
    /// decides; one that denies `access` in the 2 MiB or 4 KiB class still
    /// leaves its GiB's PDPTE line to be asked.
    #[inline(always)]
    fn probe(&self, gpa: u64, access: Access) -> Result<Translation, Option<HostPhysAddr>> {
        let lines = self.lines.borrow();
        let line = match lines.probe(gpa) {
            Some(hit) if hit.payload.1.allows(access) => {
                let &(base, perms) = hit.payload;
                return Ok(Translation {
                    page_base: HostPhysAddr::new(base),
                    page_size: hit.size,
                    pa: HostPhysAddr::new(base + hit.offset),
                    perms,
                    loads: 0,
                });
            }
            Some(hit) if hit.size != PageSize::Size1G => lines.probe_class(gpa, PageSize::Size1G),
            line => line,
        };
        Err(line
            .filter(|line| line.payload.1 == TABLE_LINE)
            .map(|line| HostPhysAddr::new(line.payload.0)))
    }

    /// The cached leaf covering `gpa`, if its rights allow `access`,
    /// counted as one hit or — a leaf that denies `access` included — one
    /// miss: [`translate`](Self::translate) with neither the resume nor the
    /// walk, for tests that ask the cache alone.
    #[cfg(test)]
    pub(crate) fn lookup(&self, gpa: u64, access: Access) -> Option<Translation> {
        let leaf = self.probe(gpa, access).ok();
        let tally = if leaf.is_some() {
            &self.hits
        } else {
            &self.misses
        };
        tally.set(tally.get() + 1);
        leaf
    }

    /// Install the whole EPT leaf that translated `gpa` — `leaf` is what
    /// the live EPT answered for it since the last flush. A 2 MiB fill
    /// forgets the table line.
    #[inline]
    pub(crate) fn insert(&self, gpa: u64, leaf: &Translation) {
        if leaf.page_size == PageSize::Size2M {
            self.table_line.set(u64::MAX);
        }
        *self.lines.borrow_mut().fill(gpa, leaf.page_size) = (leaf.page_base.raw(), leaf.perms);
    }

    /// Count `n` hits on the table line that a walker answered from itself:
    /// the 2 MiB class is probed first and only a fill changes a line, so
    /// until the next flush or 2 MiB fill a lookup inside that
    /// line would return it again.
    #[inline(always)]
    pub fn count_repeat_hits(&self, n: u32) {
        self.hits.set(self.hits.get() + u64::from(n));
    }

    /// (hits, misses) since construction.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits.get(), self.misses.get())
    }

    /// Lines of `size` the cache holds, table lines included.
    #[cfg(test)]
    pub(crate) fn occupied(&self, size: PageSize) -> usize {
        self.lines.borrow().occupied(size)
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

    /// The op counts a grant and a reclaim bump share no line with the
    /// table (whose own test keeps its frame record off the root and the
    /// pool a walk reads), and the counts of an `Arc<Ept>` sit on a line
    /// before the table.
    #[test]
    fn a_grant_or_reclaim_writes_no_line_a_walk_reads() {
        use crate::line::{shares_line, LINE_BYTES};
        use std::mem::{align_of, offset_of, size_of};
        assert!(
            align_of::<Ept>() >= LINE_BYTES,
            "an Arc<Ept>'s counts share a line with Ept::table"
        );
        let ops = (offset_of!(Ept, ops), size_of::<Line<OpCounts>>());
        let table = (offset_of!(Ept, table), size_of::<RadixTable<EptFormat>>());
        assert!(
            !shares_line(ops.0, ops.1, table.0, table.1),
            "Ept::ops shares a line with Ept::table"
        );
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

    /// The PD page the cached PDPTE line of `gpa`'s GiB points at, if
    /// there is one.
    fn pd_line(c: &WalkCache, gpa: u64) -> Option<u64> {
        let lines = c.lines.borrow();
        let line = lines.probe_class(gpa, PageSize::Size1G)?;
        (line.payload.1 == TABLE_LINE).then_some(line.payload.0)
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

    fn sub(r: PhysRange, offset: u64, len: u64) -> PhysRange {
        PhysRange::new(r.start.add(offset), len)
    }

    /// One leaf through its life: read-only and cached by a read, widened,
    /// narrowed again. The cached rights are checked on every hit, a denied
    /// hit is the live EPT's to answer, and only the narrowing needs a flush:
    /// until it comes, the cache grants what the leaf no longer does.
    #[test]
    fn cached_rights_are_checked_and_only_a_narrowing_re_map_needs_a_flush() {
        let (mem, ept) = setup();
        let c = WalkCache::new();
        let r = mem.alloc(ZoneId(0), PAGE_SIZE_2M, PAGE_SIZE_2M).unwrap();
        let gpa = GuestPhysAddr::new(r.start.raw() + 0x1238);
        // What a walk started now gets: the translation's loads, or the error.
        let walk = |access| {
            c.translate(&ept, gpa, access, &DirectLoad(&mem))
                .map(|t| (t.pa.raw(), t.loads))
        };
        let denied = Err(violation_err(gpa, Access::Write));

        ept.map_identity_perms(r, Perms::R, 2).unwrap();
        assert_eq!(walk(Access::Read), Ok((gpa.raw(), 3)), "cold: the EPT walk");
        assert_eq!(walk(Access::Read), Ok((gpa.raw(), 0)), "then the cache");
        assert_eq!(walk(Access::Write), denied, "the cached rights refuse it");
        assert_eq!(walk(Access::Read), Ok((gpa.raw(), 0)), "and the leaf stays");

        ept.map_identity(r, 2).unwrap();
        assert_eq!(
            walk(Access::Write),
            Ok((gpa.raw(), 1)),
            "falls through to the live EPT from the cached PD page the cold walk \
             passed: one load, the PDE, not the root walk's 3"
        );
        assert_eq!(walk(Access::Write), Ok((gpa.raw(), 0)), "and refills");

        ept.map_identity_perms(r, Perms::R, 2).unwrap();
        assert_eq!(
            walk(Access::Write),
            Ok((gpa.raw(), 0)),
            "unflushed, the line still grants the write"
        );
        c.flush_range(r.start.raw(), r.len);
        assert_eq!(walk(Access::Write), denied, "first walk after the flush");
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

    /// The table line is an identity 2 MiB answer to a read, and it lasts
    /// until a flush of any kind or a 2 MiB fill.
    #[test]
    fn the_table_line_lasts_until_a_flush_or_a_2m_fill() {
        let (mem, ept) = setup();
        let (c, load) = (WalkCache::new(), DirectLoad(&mem));
        let r = mem
            .alloc(ZoneId(0), 2 * PAGE_SIZE_2M, PAGE_SIZE_2M)
            .unwrap();
        let small = mem
            .alloc(ZoneId(0), 2 * PAGE_SIZE_4K, PAGE_SIZE_4K)
            .unwrap();
        ept.map_identity(r, 2).unwrap();
        ept.map_identity(small, 1).unwrap();
        let line = r.start.raw();
        let read = |gpa: u64| {
            let t = c.translate(&ept, GuestPhysAddr::new(gpa), Access::Read, &load);
            t.unwrap()
        };
        let remember = |gpa: u64| c.remember_table_line(gpa, &read(gpa));

        remember(small.start.raw());
        assert_eq!(c.table_line(), None, "a 4 KiB leaf is no line");
        remember(line + 0x1238);
        assert_eq!(c.table_line(), Some(line));
        read(small.start.raw() + PAGE_SIZE_4K);
        assert_eq!(c.table_line(), Some(line), "a 4 KiB fill");
        read(line + PAGE_SIZE_2M);
        assert_eq!(c.table_line(), None, "a 2 MiB fill");

        let page = || c.flush_range(small.start.raw(), PAGE_SIZE_4K);
        let all = || c.flush_all();
        let flushes: [&dyn Fn(); 2] = [&page, &all];
        for (kind, flush) in flushes.iter().enumerate() {
            remember(line + 8);
            assert_eq!(c.table_line(), Some(line));
            flush();
            assert_eq!(c.table_line(), None, "flush kind {kind}");
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

    /// A 2 MiB and a 4 KiB leaf under a cached PDPTE, each cached with read
    /// rights only and widened by a re-map (which owes no flush): a write
    /// that the cached line denies is refilled from the PD page — 1 and 2
    /// loads, one hit — not walked from the root, and then hits the line.
    #[test]
    fn a_denied_leaf_a_re_map_widened_is_refilled_from_the_pd_page() {
        let (mem, ept) = setup();
        let (c, load) = (WalkCache::new(), DirectLoad(&mem));
        let big = mem.alloc(ZoneId(0), PAGE_SIZE_2M, PAGE_SIZE_2M).unwrap();
        let small = mem.alloc(ZoneId(0), PAGE_SIZE_4K, PAGE_SIZE_4K).unwrap();
        assert_eq!(
            big.start.raw() / PAGE_SIZE_1G,
            small.start.raw() / PAGE_SIZE_1G
        );
        ept.map_identity_perms(big, Perms::R, 2).unwrap();
        ept.map_identity_perms(small, Perms::R, 1).unwrap();
        let walk = |gpa: u64, access| {
            let t = c.translate(&ept, GuestPhysAddr::new(gpa), access, &load);
            (t.map(|t| t.loads), c.stats())
        };
        let (small_gpa, big_gpa) = (small.start.raw() + 8, big.start.raw() + 0x1238);
        assert_eq!(walk(small_gpa, Access::Read), (Ok(4), (0, 1)), "cold");
        assert_eq!(walk(big_gpa, Access::Read), (Ok(1), (1, 1)), "resumed");

        ept.map_identity(big, 2).unwrap();
        ept.map_identity(small, 1).unwrap();
        assert_eq!(
            walk(small_gpa, Access::Write),
            (Ok(2), (2, 1)),
            "4 KiB refill"
        );
        assert_eq!(
            walk(big_gpa, Access::Write),
            (Ok(1), (3, 1)),
            "2 MiB refill"
        );
        assert_eq!(walk(small_gpa, Access::Write), (Ok(0), (4, 1)));
        assert_eq!(walk(big_gpa, Access::Write), (Ok(0), (5, 1)));
    }

    /// Under a cached PD page, a PDE or a PTE that is not present, and a
    /// leaf whose rights deny the access, are the root walk's to answer: it
    /// raises the [`HwError::EptViolation`] for the address and the access,
    /// counts one miss and caches nothing, so the PD page stays.
    #[test]
    fn a_missing_or_denying_entry_under_a_cached_pd_page_raises_the_root_walks_violation() {
        let (mem, ept) = setup();
        let (c, load) = (WalkCache::new(), DirectLoad(&mem));
        let small = mem
            .alloc(ZoneId(0), 2 * PAGE_SIZE_4K, PAGE_SIZE_4K)
            .unwrap();
        ept.map_identity_perms(sub(small, 0, PAGE_SIZE_4K), Perms::RWX, 1)
            .unwrap();
        ept.map_identity_perms(sub(small, PAGE_SIZE_4K, PAGE_SIZE_4K), Perms::R, 1)
            .unwrap();
        let first = GuestPhysAddr::new(small.start.raw());
        c.translate(&ept, first, Access::Read, &load).unwrap();
        let pd = pd_line(&c, first.raw());
        assert!(pd.is_some(), "the cold walk cached the PDPTE");

        // The page after `small` in its PT, and the same page in the other
        // 2 MiB slot of an adjacent pair, whose PDE is empty.
        assert!(!small.end().raw().is_multiple_of(PAGE_SIZE_2M));
        let pte_missing = small.end().raw() + 8;
        let pde_missing = first.raw() ^ PAGE_SIZE_2M;
        for (gpa, access) in [
            (pte_missing, Access::Read),
            (pde_missing, Access::Write),
            (small.start.raw() + PAGE_SIZE_4K + 8, Access::Write),
        ] {
            let gpa = GuestPhysAddr::new(gpa);
            let (hits, misses) = c.stats();
            assert_eq!(
                c.translate(&ept, gpa, access, &load),
                Err(violation_err(gpa, access)),
                "{gpa:?}"
            );
            assert_eq!(c.stats(), (hits, misses + 1), "{gpa:?}: one miss");
            assert_eq!(pd_line(&c, first.raw()), pd, "{gpa:?}");
        }
        let read = GuestPhysAddr::new(small.start.raw() + PAGE_SIZE_4K);
        let (hits, misses) = c.stats();
        let resumed = c.translate(&ept, read, Access::Read, &load);
        assert_eq!(resumed.map(|t| t.loads), Ok(2), "the PD page still serves");
        assert_eq!(c.stats(), (hits + 1, misses));
    }

    /// A 1 GiB leaf mapped over a GiB whose PD page is cached unlinks that
    /// page and needs no flush (an `RWX` map only widens). A walk resumed
    /// there still gets what the live EPT grants — an answer it gave before,
    /// or the root walk's where the old page has none or denies the access —
    /// and once part of the leaf is unmapped, the flush of that range takes
    /// the line with it.
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
            c.translate(
                &ept,
                GuestPhysAddr::new(gib.start.raw()),
                Access::Read,
                &load,
            )
            .unwrap();
            let old_pd = pd_line(&c, gib.start.raw());
            assert!(old_pd.is_some(), "the cold walk cached the PDPTE");

            ept.map_identity(gib, 3).unwrap();
            if unmap_first {
                // The 1 GiB leaf splits under the hole, which is flushed.
                ept.unmap(hole).unwrap();
                c.flush_range(hole.start.raw(), hole.len);
            }
            for gpa in points {
                for access in [Access::Read, Access::Write, Access::Exec] {
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
                    pd_line(&c, gib.start.raw()),
                    old_pd,
                    "the flush took the line"
                );
            }
        }
    }

    /// A map the pool refuses after it linked a new PD page takes the page
    /// back, and the pool hands it on — here to a second EPT on the same
    /// pool, as the controller's node-wide pool does. A walk in flight during
    /// the map may have cached the PDPTE that pointed at it: until the failed
    /// map's range is flushed, that line leads into the other EPT's table;
    /// after, the next walk gets this EPT's answer.
    #[test]
    fn a_failed_maps_flush_drops_the_line_into_the_frame_it_gave_back() {
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
        // The line a walk of `wanted` racing the map would leave: GiB 2's
        // PDPTE, pointing at the spare. (One thread cannot interleave a walk
        // with a map, so it is filled by hand.)
        *c.lines
            .borrow_mut()
            .fill(wanted.start.raw(), PageSize::Size1G) = (spare.raw(), TABLE_LINE);
        let refused = ept.map_identity(wanted, 2);
        assert!(
            matches!(refused, Err(HwError::OutOfMemory { .. })),
            "{refused:?}"
        );
        // The other EPT's PD page for GiB 3 is the spare, with its last slot
        // mapped.
        other.map_identity(slot(3, 511), 2).unwrap();
        assert_eq!(pool.outstanding(), 7);

        let gpa = GuestPhysAddr::new(wanted.start.raw() + 0x40);
        let stale = c.translate(&ept, gpa, Access::Read, &DirectLoad(&mem));
        assert_eq!(
            stale.map(|t| t.pa.raw()),
            Ok(slot(3, 511).start.raw() + 0x40),
            "unflushed, the line serves the other EPT's mapping"
        );
        c.flush_range(wanted.start.raw(), wanted.len);
        assert_eq!(
            pd_line(&c, wanted.start.raw()),
            None,
            "the flush took the line"
        );
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
            /// Drive the cache the way a core does (translate through it,
            /// and flush what the controller flushes: every range unmapped,
            /// re-mapped with fewer rights or refused since the last walk)
            /// against random map/unmap sequences mixing 4 KiB, 2 MiB and
            /// 1 GiB leaves of three sets of rights, 1 GiB leaves mapped over
            /// a subtree whose PD page may be cached, and maps refused by a
            /// pool with one frame left, with any number of edits between two
            /// walks. After every flush no point inside a flushed range may
            /// hit, every hit anywhere, for any access, must be one a fresh
            /// `Ept::translate` grants (same address, no right the live leaf
            /// lacks), and so must every answer `translate` gives, leaf or
            /// resumed walk.
            #[test]
            fn hits_match_the_live_ept_and_flushed_ranges_never_hit(
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
                // Owed a flush since the last walk.
                let mut unflushed: Vec<PhysRange> = Vec::new();

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
                            let r = range(start, PageSize::from_level(level).unwrap().bytes());
                            let perms = [Perms::RWX, Perms::R, Perms::RW][(g + m + p) as usize % 3];
                            if ept.map_identity_perms(r, perms, level).is_err() || perms != Perms::RWX {
                                unflushed.push(r);
                            }
                            continue;
                        }
                        3 => vec![range(page, PAGE_SIZE_4K)],
                        4 => vec![range(slot_2m, PAGE_SIZE_2M)],
                        // The lower half only: splits a 2 MiB leaf.
                        5 => vec![range(slot_2m, PAGE_SIZE_2M / 2)],
                        6 => vec![range(slot_1g, PAGE_SIZE_1G)],
                        // Every sample page of one GiB slot, one unmap
                        // each.
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
                            if ept.map_identity(range(page, PAGE_SIZE_4K), 1).is_err() {
                                unflushed.push(range(page, PAGE_SIZE_4K));
                            }
                            for frame in held {
                                pool.free_frame(frame).unwrap();
                            }
                            continue;
                        }
                        _ => {
                            for r in &unflushed {
                                cache.flush_range(r.start.raw(), r.len);
                            }
                            for (gpa, access) in points(arena).flat_map(|gpa| accesses.map(|a| (gpa, a))) {
                                let hit = cache.lookup(gpa, access);
                                if unflushed.iter().any(|r| r.contains(HostPhysAddr::new(gpa))) {
                                    prop_assert_eq!(
                                        hit, None,
                                        "{:#x} hits after the flush of its range", gpa
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
                            unflushed.clear();
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
                        unflushed.push(r);
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
