//! Extended Page Tables (EPT) — Intel's nested paging, functionally modelled.
//!
//! The EPT translates *guest-physical* to *host-physical* addresses. Covirt
//! builds an identity map of exactly the regions an enclave owns, with full
//! RWX permissions, so a violation occurs if and only if the enclave touches
//! a guest-physical address outside its assignment — the paper's memory
//! protection feature. Contiguous runs are coalesced into 2 MiB and 1 GiB
//! leaves by the generic radix engine (see [`crate::paging`]).
//!
//! The structure also carries a monotonic *generation* counter. Shrinking
//! the map bumps the generation; per-core TLBs record the generation of the
//! entries they cache, and the Covirt hypervisor's `TlbFlush` command is
//! what re-synchronizes them (the paper's command-queue + NMI protocol). The
//! hardware model deliberately does **not** auto-invalidate TLBs on EPT
//! edits — that asynchrony is the behaviour Covirt exists to manage.

use crate::addr::{
    GuestPhysAddr, HostPhysAddr, PhysRange, PAGE_SHIFT_1G, PAGE_SHIFT_2M, PAGE_SHIFT_4K,
    PAGE_SIZE_1G, PAGE_SIZE_2M, PAGE_SIZE_4K,
};
use crate::error::{HwError, HwResult};
use crate::paging::{Access, EntryFormat, FramePool, Perms, RadixTable, TableLoad, Translation};
use std::cell::Cell;
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

/// An enclave's extended page tables.
pub struct Ept {
    table: RadixTable<EptFormat>,
    /// Bumped whenever the mapping *shrinks* (an INVEPT-requiring change).
    generation: AtomicU64,
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
    /// read-only grant extension).
    pub fn map_identity_perms(
        &self,
        range: PhysRange,
        perms: Perms,
        max_level: u8,
    ) -> HwResult<()> {
        self.table
            .map(range.start.raw(), range.start, range.len, perms, max_level)?;
        self.map_ops.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Remove a guest-physical range from the map and bump the generation.
    pub fn unmap(&self, range: PhysRange) -> HwResult<()> {
        self.table.unmap(range.start.raw(), range.len)?;
        self.unmap_ops.fetch_add(1, Ordering::Relaxed);
        self.generation.fetch_add(1, Ordering::Release);
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
        let t = self.table.walk(gpa.raw(), loader).map_err(|e| match e {
            HwError::PageNotPresent { .. } => violation_err(gpa, access),
            other => other,
        })?;
        if !t.perms.allows(access) {
            return Err(violation_err(gpa, access));
        }
        Ok(t)
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

/// A paging-structure cache for nested walks.
///
/// Under nested paging every *guest page-table entry* load must itself be
/// translated through the EPT, multiplying the miss-path cost (up to ~24
/// loads for a 4-level guest walk). Real hardware hides most of this by
/// caching nested translations at the size of the EPT leaf they came from;
/// this models that: a fill records the whole leaf (4 KiB / 2 MiB / 1 GiB
/// classes, as [`crate::tlb::Tlb`] does for guest-virtual pages), so one
/// 2 MiB entry answers every guest PT page under that leaf, and a hit skips
/// the EPT walk entirely.
///
/// Coherence contract: every entry is tagged with the EPT [`generation`]
/// current when it was filled, and a lookup only hits when the tag equals
/// the *current* generation. The generation is bumped exactly when the
/// mapping shrinks ([`Ept::unmap`], which also splits a partially unmapped
/// large leaf), so a stale entry can never outlive the mapping it was
/// derived from. Growth needs no bump: the EPT is an identity map, so a
/// map or re-map (the radix engine overwrites a same-level leaf) cannot
/// change a cached guest-physical → host-physical pair, and the cache
/// stores no permissions — the data page's permission check always runs
/// against the live EPT. No explicit invalidation call exists or is needed.
///
/// The cache is core-private (interior mutability via [`Cell`], not
/// thread-safe) exactly like the hardware structure it models.
///
/// [`generation`]: Ept::generation
pub struct WalkCache {
    // Slots per class, sized like a hardware PML4/PDPT/PDE cache: a few
    // dozen entries cover the paging structures of many gigabytes.
    e4k: LeafClass<64, PAGE_SHIFT_4K>,
    e2m: LeafClass<16, PAGE_SHIFT_2M>,
    e1g: LeafClass<4, PAGE_SHIFT_1G>,
    hits: Cell<u64>,
    misses: Cell<u64>,
}

#[derive(Clone, Copy)]
struct WalkCacheEntry {
    /// Guest-physical base of the cached leaf; `u64::MAX` = invalid.
    tag: u64,
    /// Host-physical base of that leaf.
    host_base: u64,
    /// EPT generation when filled.
    generation: u64,
}

/// The direct-mapped slots for EPT leaves of `1 << SHIFT` bytes. `N` is a
/// power of two, so a slot is picked with a mask, not a divide.
struct LeafClass<const N: usize, const SHIFT: u32>([Cell<WalkCacheEntry>; N]);

impl<const N: usize, const SHIFT: u32> LeafClass<N, SHIFT> {
    const MASK: usize = {
        assert!(N.is_power_of_two());
        N - 1
    };

    fn new() -> Self {
        LeafClass(std::array::from_fn(|_| {
            Cell::new(WalkCacheEntry {
                tag: u64::MAX,
                host_base: 0,
                generation: 0,
            })
        }))
    }

    #[inline]
    fn slot(&self, gpa: u64) -> &Cell<WalkCacheEntry> {
        &self.0[(gpa >> SHIFT) as usize & Self::MASK]
    }

    #[inline]
    fn probe(&self, gpa: u64, generation: u64) -> Option<u64> {
        let e = self.slot(gpa).get();
        (e.tag == gpa >> SHIFT << SHIFT && e.generation == generation)
            .then(|| e.host_base + (gpa - e.tag))
    }

    #[inline]
    fn fill(&self, gpa: u64, host_base: u64, generation: u64) {
        self.slot(gpa).set(WalkCacheEntry {
            tag: gpa >> SHIFT << SHIFT,
            host_base,
            generation,
        });
    }
}

impl WalkCache {
    /// Build an empty cache.
    pub fn new() -> Self {
        WalkCache {
            e4k: LeafClass::new(),
            e2m: LeafClass::new(),
            e1g: LeafClass::new(),
            hits: Cell::new(0),
            misses: Cell::new(0),
        }
    }

    /// Look up the host-physical address for `gpa` given the current EPT
    /// generation. Hits return the translated address with zero loads. The
    /// classes are probed in turn; one lookup counts one hit or one miss.
    #[inline]
    pub fn lookup(&self, gpa: u64, generation: u64) -> Option<u64> {
        // 2 MiB first: enclave memory is granted in large contiguous runs,
        // so that is the leaf size guest PT pages normally sit under.
        let hit = self
            .e2m
            .probe(gpa, generation)
            .or_else(|| self.e4k.probe(gpa, generation))
            .or_else(|| self.e1g.probe(gpa, generation));
        let tally = if hit.is_some() {
            &self.hits
        } else {
            &self.misses
        };
        tally.set(tally.get() + 1);
        hit
    }

    /// Install the whole EPT leaf that translated `gpa` — `leaf` is what
    /// [`Ept::translate`] returned for it — under `generation`.
    #[inline]
    pub fn insert(&self, gpa: u64, leaf: &Translation, generation: u64) {
        let host_base = leaf.page_base.raw();
        match leaf.page_size {
            PAGE_SIZE_4K => self.e4k.fill(gpa, host_base, generation),
            PAGE_SIZE_2M => self.e2m.fill(gpa, host_base, generation),
            PAGE_SIZE_1G => self.e1g.fill(gpa, host_base, generation),
            size => panic!("unsupported EPT leaf size {size:#x}"),
        }
    }

    /// (hits, misses) since construction.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits.get(), self.misses.get())
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
    use crate::addr::{PAGE_SIZE_2M, PAGE_SIZE_4K};
    use crate::memory::PhysMemory;
    use crate::paging::{level_page_size, DirectLoad};
    use crate::topology::ZoneId;

    fn setup() -> (Arc<PhysMemory>, Ept) {
        let mem = Arc::new(PhysMemory::new(&[512 * 1024 * 1024]));
        let pool_region = mem
            .alloc_backed(ZoneId(0), 8 * 1024 * 1024, PAGE_SIZE_4K)
            .unwrap();
        let pool = Arc::new(FramePool::new(Arc::clone(&mem), pool_region).unwrap());
        let ept = Ept::new(pool).unwrap();
        (mem, ept)
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
        ept.map_identity_perms(r, Perms::RO, 1).unwrap();
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
            page_size,
            pa: HostPhysAddr::new(host_base),
            perms: Perms::RWX,
            loads: 0,
        }
    }

    #[test]
    fn walk_cache_hits_within_generation() {
        let c = WalkCache::new();
        c.insert(0x5000 + 8, &leaf(0x9000, PAGE_SIZE_4K), 1);
        assert_eq!(c.lookup(0x5010, 1), Some(0x9010));
        assert_eq!(c.lookup(0x5ff8, 1), Some(0x9ff8));
        let (h, m) = c.stats();
        assert_eq!((h, m), (2, 0));
    }

    #[test]
    fn walk_cache_invalidated_by_generation_bump() {
        let c = WalkCache::new();
        c.insert(0x5000, &leaf(0x9000, PAGE_SIZE_4K), 1);
        assert!(c.lookup(0x5000, 2).is_none(), "stale generation must miss");
        // Refill under the new generation works.
        c.insert(0x5000, &leaf(0xa000, PAGE_SIZE_4K), 2);
        assert_eq!(c.lookup(0x5000, 2), Some(0xa000));
    }

    #[test]
    fn walk_cache_entry_covers_its_whole_leaf_and_nothing_else() {
        let c = WalkCache::new();
        let (gpa, host) = (3 * PAGE_SIZE_1G + 5 * PAGE_SIZE_2M, 7 * PAGE_SIZE_2M);
        c.insert(gpa + 0x1238, &leaf(host, PAGE_SIZE_2M), 1);
        assert_eq!(c.lookup(gpa, 1), Some(host));
        assert_eq!(
            c.lookup(gpa + PAGE_SIZE_2M - 8, 1),
            Some(host + PAGE_SIZE_2M - 8)
        );
        assert_eq!(c.lookup(gpa - 8, 1), None);
        assert_eq!(c.lookup(gpa + PAGE_SIZE_2M, 1), None);
        // One lookup is one hit or one miss, however many classes it probed.
        assert_eq!(c.stats(), (2, 2));
    }

    #[test]
    fn walk_cache_tracks_ept_generation_end_to_end() {
        let (mem, ept) = setup();
        let r = mem.alloc(ZoneId(0), PAGE_SIZE_2M, PAGE_SIZE_2M).unwrap();
        ept.map_identity(r, 2).unwrap();
        let c = WalkCache::new();
        let gpa = r.start.raw() + 64;
        let t = ept
            .translate(GuestPhysAddr::new(gpa), Access::Read, &DirectLoad(&mem))
            .unwrap();
        c.insert(gpa, &t, ept.generation());
        assert_eq!(c.lookup(gpa, ept.generation()), Some(t.pa.raw()));
        // The reclaim's generation bump kills the cached translation
        // without any explicit invalidation.
        ept.unmap(r).unwrap();
        assert!(c.lookup(gpa, ept.generation()).is_none());
    }

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
            /// Drive the cache the way `NestedLoad` does (sample the
            /// generation, look up, on a miss translate and insert the
            /// leaf) against random map/unmap sequences mixing 4 KiB,
            /// 2 MiB and 1 GiB leaves. Every hit must equal a fresh
            /// `Ept::translate` at the current generation — so an unmapped
            /// address can never hit — and right after an unmap nothing
            /// inside any leaf it touched may hit, the surviving part of a
            /// split leaf included.
            #[test]
            #[allow(clippy::needless_update)]
            fn hits_match_the_live_ept_and_unmapped_leaves_never_hit(
                ops in proptest::collection::vec((0u8..12, 0u64..2, 0u64..4, 0u64..8), 1..200),
            ) {
                // Two GiB slots above the memory `setup` builds: the EPT
                // maps addresses, so the arena needs no backing.
                let (mem, ept) = setup();
                let arena = PAGE_SIZE_1G;
                let load = DirectLoad(&mem);
                let translate =
                    |gpa: u64| ept.translate(GuestPhysAddr::new(gpa), Access::Read, &load);
                let cache = WalkCache::new();

                for (kind, g, m, p) in ops {
                    let page = point(arena, (g, m, p));
                    let slot_2m = point(arena, (g, m, 0));
                    let slot_1g = point(arena, (g, 0, 0));
                    let range = |start, len| PhysRange::new(HostPhysAddr::new(start), len);
                    let r = match kind {
                        // A map that collides with a larger leaf is
                        // refused; the sequence just carries on.
                        0..=2 => {
                            let (start, level) =
                                [(page, 1), (slot_2m, 2), (slot_1g, 3)][kind as usize];
                            let _ = ept.map_identity(range(start, level_page_size(level)), level);
                            continue;
                        }
                        3 => range(page, PAGE_SIZE_4K),
                        4 => range(slot_2m, PAGE_SIZE_2M),
                        // The lower half only: splits a 2 MiB leaf.
                        5 => range(slot_2m, PAGE_SIZE_2M / 2),
                        _ => {
                            let gpa = page + 8 * (g + m + p);
                            let generation = ept.generation();
                            match cache.lookup(gpa, generation) {
                                Some(host) => prop_assert_eq!(
                                    translate(gpa).map(|t| t.pa.raw()).ok(),
                                    Some(host),
                                    "hit at {:#x} disagrees with the live EPT", gpa
                                ),
                                None => {
                                    if let Ok(t) = translate(gpa) {
                                        cache.insert(gpa, &t, generation);
                                    }
                                }
                            }
                            continue;
                        }
                    };
                    // The leaves the unmap is about to touch, whole.
                    let touched: Vec<(u64, u64)> = points(arena)
                        .filter(|gpa| r.contains(HostPhysAddr::new(*gpa)))
                        .filter_map(|gpa| translate(gpa).ok())
                        .map(|t| (t.page_base.raw(), t.page_size))
                        .collect();
                    ept.unmap(r).unwrap();
                    let generation = ept.generation();
                    for (base, size) in touched {
                        for gpa in points(arena).chain([base + size - 8]) {
                            if (base..base + size).contains(&gpa) {
                                prop_assert_eq!(
                                    cache.lookup(gpa, generation), None,
                                    "{:#x} hits after an unmap touched its {:#x}-byte leaf",
                                    gpa, size
                                );
                            }
                        }
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
