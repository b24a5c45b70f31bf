//! The direct-mapped, page-size-classed array under the TLB and the EPT
//! walk cache.
//!
//! Both caches answer "which cached page covers this address, and what was
//! stored for it": one class of slots per [`PageSize`], a page held in the
//! slot its page number indexes, tagged with its base. This module is the one
//! place that knows the invalid tag, how a slot is picked, the order the
//! classes are probed in and what "overlaps a range" means; the two caches
//! keep what differs — payload, statistics and tracer events. Both are kept
//! coherent the same way: the hypervisor's flush commands.
//!
//! Each class also keeps a bitmap of its occupied slots, so a ranged or full
//! invalidation visits only the slots that hold a page: its cost follows what
//! the core cached (plus one word per 64 slots), not the geometry. A reclaim
//! flushes every live core, and most of a default TLB's 1 667 slots are empty
//! on a core that touched a few pages.

use crate::addr::PageSize;

/// Tag of an empty slot. Page bases are at least 4 KiB aligned, so no page
/// has it.
const INVALID: u64 = u64::MAX;

struct Slot<P> {
    /// Base address of the cached page, or [`INVALID`].
    tag: u64,
    payload: P,
}

impl<P: Default> Slot<P> {
    fn empty() -> Self {
        Slot {
            tag: INVALID,
            payload: P::default(),
        }
    }
}

/// A probe that hit: the page found and where in it the address fell.
pub(crate) struct Hit<'a, P> {
    /// What was stored for the page.
    pub payload: &'a P,
    /// Offset of the probed address from the page base.
    pub offset: u64,
    /// Size of the page.
    pub size: PageSize,
}

/// One direct-mapped class of slots per page size.
///
/// How a page number picks its slot is chosen at compile time. With `POW2`
/// every class has a power-of-two slot count and the pick is a mask: the walk
/// cache's lookups sit on a walk's chain of dependent loads. Without it any
/// count is legal and the pick is a remainder: the TLB's calibration
/// geometries (127 × 2 MiB) are not powers of two. A test at run time
/// would serve both and costs the TLB hit path a cycle it did not pay.
pub(crate) struct SizeClassed<P, const POW2: bool> {
    /// Indexed by `PageSize as usize`.
    classes: [Box<[Slot<P>]>; 3],
    /// Per class, bit `i % 64` of word `i / 64` is set while slot `i` holds
    /// a page. Probes never read it; fills and invalidations keep it exact.
    occupied: [Box<[u64]>; 3],
}

impl<P: Default, const POW2: bool> SizeClassed<P, POW2> {
    /// `slots[size as usize]` slots for pages of `size`; a class asked to
    /// hold none still gets one, and under `POW2` a count is rounded up to a
    /// power of two.
    pub fn new(slots: [usize; 3]) -> Self {
        let slots = slots.map(|n| {
            if POW2 {
                n.next_power_of_two()
            } else {
                n.max(1)
            }
        });
        SizeClassed {
            classes: slots.map(|n| (0..n).map(|_| Slot::empty()).collect()),
            occupied: slots.map(|n| vec![0; n.div_ceil(64)].into_boxed_slice()),
        }
    }

    #[inline]
    fn index(&self, addr: u64, size: PageSize) -> usize {
        let n = self.classes[size as usize].len();
        let page = (addr >> size.shift()) as usize;
        if POW2 {
            page & (n - 1)
        } else {
            page % n
        }
    }

    /// The cached page of `size` covering `addr`, if its class holds one.
    #[inline]
    pub fn probe_class(&self, addr: u64, size: PageSize) -> Option<Hit<'_, P>> {
        let slot = &self.classes[size as usize][self.index(addr, size)];
        (slot.tag == size.base_of(addr)).then(|| Hit {
            payload: &slot.payload,
            offset: addr - slot.tag,
            size,
        })
    }

    /// The cached page covering `addr`, if any class holds one.
    #[inline]
    pub fn probe(&self, addr: u64) -> Option<Hit<'_, P>> {
        // 2 MiB first: enclave memory is granted in large contiguous runs
        // (the LWK's contiguous-memory policy), so that is the size both a
        // workload's data pages and the EPT leaves over guest page-table
        // pages normally have.
        self.probe_class(addr, PageSize::Size2M)
            .or_else(|| self.probe_class(addr, PageSize::Size4K))
            .or_else(|| self.probe_class(addr, PageSize::Size1G))
    }

    /// Give the page of `size` covering `addr` its slot, evicting whatever
    /// held it, and hand back the payload for the caller to overwrite. (In
    /// place, not passed in: a payload moved through here is assembled on the
    /// stack and copied across, which stalls the TLB fill on store
    /// forwarding — a third of its cost.)
    #[inline]
    pub fn fill(&mut self, addr: u64, size: PageSize) -> &mut P {
        let idx = self.index(addr, size);
        self.occupied[size as usize][idx / 64] |= 1 << (idx % 64);
        let slot = &mut self.classes[size as usize][idx];
        slot.tag = size.base_of(addr);
        &mut slot.payload
    }

    /// Drop every page that shares a byte with `[start, start + len)`. Only
    /// occupied slots are visited: the cost follows what is cached, never
    /// the range.
    pub fn invalidate_overlapping(&mut self, start: u64, len: u64) {
        let end = start.saturating_add(len);
        // The page's last byte, not its end: the top page's end is not a
        // `u64`.
        self.evict_where(|base, size| base < end && base + (size.bytes() - 1) >= start);
    }

    /// Drop everything.
    pub fn clear(&mut self) {
        self.evict_where(|_, _| true);
    }

    /// Empty every occupied slot whose page `doomed` picks by base and size.
    fn evict_where(&mut self, doomed: impl Fn(u64, PageSize) -> bool) {
        for size in PageSize::ALL {
            let slots = &mut self.classes[size as usize];
            for (w, word) in self.occupied[size as usize].iter_mut().enumerate() {
                let mut bits = *word;
                while bits != 0 {
                    let bit = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    let slot = &mut slots[w * 64 + bit];
                    if doomed(slot.tag, size) {
                        *slot = Slot::empty();
                        *word &= !(1 << bit);
                    }
                }
            }
        }
    }

    /// Slots of `size`'s class that hold a page.
    #[cfg(test)]
    pub fn occupied(&self, size: PageSize) -> usize {
        let words = self.occupied[size as usize].iter();
        words.map(|w| w.count_ones() as usize).sum()
    }
}

// The stand-in `ProptestConfig` has one field; `..default()` keeps the block
// compatible with the real crate.
#[cfg(test)]
#[allow(clippy::needless_update)]
mod tests {
    use super::*;
    use crate::addr::{HostPhysAddr, PAGE_SIZE_1G, PAGE_SIZE_2M, PAGE_SIZE_4K};
    use crate::backing::Backing;
    use crate::ept::WalkCache;
    use crate::paging::{Access, Perms, Translation};
    use crate::tlb::{Tlb, TlbParams};
    use proptest::prelude::*;
    use std::collections::HashMap;
    use std::sync::Arc;

    /// What a direct-mapped cache with `slots` per class must hold after a
    /// sequence of operations — stated over a map from page to payload, with
    /// none of this module's code.
    struct Reference {
        slots: [u64; 3],
        pages: HashMap<(PageSize, u64), u64>,
    }

    impl Reference {
        fn new(slots: [usize; 3]) -> Self {
            Reference {
                slots: slots.map(|n| n.max(1) as u64),
                pages: HashMap::new(),
            }
        }

        fn insert(&mut self, addr: u64, size: PageSize, payload: u64) {
            let (n, page) = (self.slots[size as usize], addr >> size.shift());
            self.pages
                .retain(|&(s, p), _| s != size || p % n != page % n);
            self.pages.insert((size, page), payload);
        }

        /// Payload, offset into the page and page size of what answers `addr`.
        fn lookup(&self, addr: u64) -> Option<(u64, u64, PageSize)> {
            [PageSize::Size2M, PageSize::Size4K, PageSize::Size1G]
                .into_iter()
                .find_map(|s| {
                    let payload = self.pages.get(&(s, addr >> s.shift()))?;
                    Some((*payload, addr % s.bytes(), s))
                })
        }

        fn remove_overlapping(&mut self, start: u64, len: u64) {
            self.pages.retain(|&(s, p), _| {
                let base = p << s.shift();
                !(base < start + len && base + s.bytes() > start)
            });
        }

        fn count(&self, size: PageSize) -> usize {
            self.pages.keys().filter(|&&(s, _)| s == size).count()
        }
    }

    /// The sample point `(g, m, p, w)`: GiB slot, 2 MiB slot in it, 4 KiB
    /// page in that, word in that. Few enough of each that inserts collide
    /// in every class of every geometry below, and every offset into a
    /// cached page stays under 16 MiB.
    fn point((g, m, p, w): (u64, u64, u64, u64)) -> u64 {
        g * PAGE_SIZE_1G + m * PAGE_SIZE_2M + p * PAGE_SIZE_4K + w * 8
    }

    fn points() -> impl Iterator<Item = u64> {
        (0..6).flat_map(|g| (0..8).flat_map(move |m| (0..8).map(move |p| point((g, m, p, 0)))))
    }

    const WALK_CACHE_SLOTS: [usize; 3] = [64, 16, 4];

    /// The rights the walk cache's reference keeps in the low bits of a
    /// leaf's (GiB-aligned) host base.
    const RIGHTS: [Perms; 3] = [Perms::RWX, Perms::RW, Perms::R];
    const ACCESSES: [Access; 3] = [Access::Read, Access::Write, Access::Exec];

    #[test]
    fn overlap_is_judged_by_a_pages_last_byte() {
        let mut c = SizeClassed::<u64, true>::new([4, 4, 4]);
        let top = u64::MAX - (PAGE_SIZE_4K - 1);
        *c.fill(PAGE_SIZE_4K, PageSize::Size4K) = 1;
        *c.fill(top, PageSize::Size4K) = 2;
        // Ends one byte short of the first page; starts past the second's
        // base, whose end is not a `u64`.
        c.invalidate_overlapping(0, PAGE_SIZE_4K);
        assert!(c.probe(PAGE_SIZE_4K).is_some());
        c.invalidate_overlapping(2 * PAGE_SIZE_4K - 1, 1);
        assert!(c.probe(PAGE_SIZE_4K).is_none());
        assert!(c.probe(u64::MAX).is_some());
        c.invalidate_overlapping(u64::MAX, 1);
        assert!(c.probe(top).is_none());
    }

    /// On the default TLB geometry a ranged flush empties exactly the slots
    /// of the pages it overlaps, in both classes, a one-page range flush
    /// the one slot of its page, and a full flush every slot.
    #[test]
    fn flushes_empty_exactly_the_slots_they_drop_on_the_default_tlb() {
        let mut tlb = Tlb::new(TlbParams::default());
        let backing = Arc::new(Backing::new(PAGE_SIZE_4K as usize).unwrap());
        // Distinct slots: 4 KiB pages 1, 2 and 0x50003 (slot 515 of 1536);
        // 2 MiB pages 1, 2 and 512 (slot 4 of 127).
        let small = [0x1000, 0x2000, 0x5000_3000];
        let large = [PAGE_SIZE_2M, 2 * PAGE_SIZE_2M, PAGE_SIZE_1G];
        for (pages, size) in [(small, PAGE_SIZE_4K), (large, PAGE_SIZE_2M)] {
            for base in pages {
                tlb.insert(base, size, backing.ptr_at(0), Arc::clone(&backing), true);
            }
        }
        let occupancy = |tlb: &Tlb| PageSize::ALL.map(|s| tlb.occupied(s));
        assert_eq!(occupancy(&tlb), [3, 3, 0]);

        // From the second 4 KiB page to the first byte of the first 2 MiB one.
        tlb.flush_range(0x2000, PAGE_SIZE_2M - 0x2000 + 1);
        let dropped = [small[1], large[0]];
        for addr in small.into_iter().chain(large) {
            assert_eq!(
                tlb.lookup(addr).is_none(),
                dropped.contains(&addr),
                "{addr:#x}"
            );
        }
        assert_eq!(occupancy(&tlb), [2, 2, 0]);
        tlb.flush_range(small[0], PAGE_SIZE_4K);
        assert_eq!(occupancy(&tlb), [1, 2, 0]);

        tlb.flush_all();
        assert_eq!(occupancy(&tlb), [0, 0, 0]);
        let hits = tlb.stats().hits;
        for addr in small.into_iter().chain(large) {
            assert!(tlb.lookup(addr).is_none(), "{addr:#x}");
        }
        assert_eq!(tlb.stats().hits, hits);
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]
        /// Random inserts, lookups and invalidations on a `Tlb` (three
        /// geometries: the default with its 127-entry class, a tiny odd one
        /// and one with an empty class) and on a `WalkCache` (leaves of three
        /// sets of rights looked up for all three accesses, flushed by the
        /// same one-page, range and full flushes as the TLB): every lookup, the
        /// final survivors and the statistics equal the reference's — a leaf
        /// whose rights deny the access is a miss — and after every operation
        /// each class's occupied-slot count is the reference's page count.
        #[test]
        fn tlb_and_walk_cache_hold_what_a_map_of_their_geometry_holds(
            geometry in 0usize..3,
            ops in proptest::collection::vec((0u8..12, 0u64..6, 0u64..8, 0u64..8, 0u64..512), 1..300),
        ) {
            let params = [
                TlbParams::default(),
                TlbParams { entries_4k: 3, entries_2m: 127, entries_1g: 0 },
                TlbParams { entries_4k: 2, entries_2m: 5, entries_1g: 1 },
            ][geometry];
            let mut tlb = Tlb::new(params);
            let mut tlb_ref =
                Reference::new([params.entries_4k, params.entries_2m, params.entries_1g]);
            let backing = Arc::new(Backing::new(16 * 1024 * 1024 + 4096).unwrap());
            let host = |id: u64| backing.ptr_at(id as usize * 8) as u64;
            let (mut hits, mut misses) = (0u64, 0u64);
            let (mut range_flushes, mut full_flushes) = (0u64, 0u64);

            let cache = WalkCache::new();
            let mut cache_ref = Reference::new(WALK_CACHE_SLOTS);
            let (mut cache_hits, mut cache_misses) = (0u64, 0u64);

            let mut check = |addr: u64, access: Access, tlb: &mut Tlb, tlb_ref: &Reference, cache_ref: &Reference| {
                let want = tlb_ref.lookup(addr);
                let got = tlb.lookup(addr);
                *(if want.is_some() { &mut hits } else { &mut misses }) += 1;
                prop_assert_eq!(
                    got.map(|h| (h.host_ptr as u64, h.writable, h.remaining)),
                    want.map(|(id, off, s)| (host(id) + off, id.is_multiple_of(2), s.bytes() - off)),
                    "TLB lookup of {:#x}", addr
                );
                let want = cache_ref.lookup(addr).and_then(|(leaf, off, size)| {
                    let (base, perms) = (leaf & !3, RIGHTS[leaf as usize & 3]);
                    perms.allows(access).then_some((base + off, size, perms))
                });
                *(if want.is_some() { &mut cache_hits } else { &mut cache_misses }) += 1;
                prop_assert_eq!(
                    cache.lookup(addr, access).map(|t| (t.pa.raw(), t.page_size, t.perms)), want,
                    "walk-cache {:?} of {:#x}", access, addr
                );
                Ok(())
            };

            for (i, (kind, g, m, p, w)) in ops.into_iter().enumerate() {
                let addr = point((g, m, p, w));
                let id = i as u64 % 512;
                match kind {
                    0..=4 => {
                        let size = [PageSize::Size4K, PageSize::Size2M, PageSize::Size1G]
                            [[0, 0, 1, 1, 2][kind as usize]];
                        tlb.insert(
                            size.base_of(addr), size.bytes(), host(id) as *mut u8,
                            Arc::clone(&backing), id.is_multiple_of(2),
                        );
                        tlb_ref.insert(addr, size, id);
                        let host_base = id * PAGE_SIZE_1G;
                        cache.insert(addr, &Translation {
                            page_base: HostPhysAddr::new(host_base),
                            page_size: size,
                            pa: HostPhysAddr::new(host_base + addr % size.bytes()),
                            perms: RIGHTS[i % 3],
                            loads: 0,
                        });
                        cache_ref.insert(addr, size, host_base | (i % 3) as u64);
                    }
                    5..=7 => check(addr, ACCESSES[kind as usize - 5], &mut tlb, &tlb_ref, &cache_ref)?,
                    8 => {
                        // One 4 KiB page.
                        let page = addr & !(PAGE_SIZE_4K - 1);
                        tlb.flush_range(page, PAGE_SIZE_4K);
                        tlb_ref.remove_overlapping(page, PAGE_SIZE_4K);
                        range_flushes += 1;
                        cache.flush_range(page, PAGE_SIZE_4K);
                        cache_ref.remove_overlapping(page, PAGE_SIZE_4K);
                    }
                    9 => {
                        let len = [0, 8, PAGE_SIZE_4K, PAGE_SIZE_2M, 3 * PAGE_SIZE_2M + PAGE_SIZE_4K, PAGE_SIZE_1G]
                            [w as usize % 6];
                        // From a word, or from the last byte of its page.
                        let start = if w.is_multiple_of(2) { addr } else { addr | 0xfff };
                        tlb.flush_range(start, len);
                        tlb_ref.remove_overlapping(start, len);
                        range_flushes += 1;
                        cache.flush_range(start, len);
                        cache_ref.remove_overlapping(start, len);
                    }
                    10 => {
                        tlb.flush_all();
                        tlb_ref.pages.clear();
                        full_flushes += 1;
                        cache.flush_all();
                        cache_ref.pages.clear();
                    }
                    _ => {
                        // A size no class holds caches nothing.
                        tlb.insert(addr & !8191, 8192, host(id) as *mut u8, Arc::clone(&backing), true);
                    }
                }
                for size in PageSize::ALL {
                    prop_assert_eq!(tlb.occupied(size), tlb_ref.count(size), "TLB {:?} after op {}", size, i);
                    prop_assert_eq!(cache.occupied(size), cache_ref.count(size), "walk cache {:?} after op {}", size, i);
                }
            }
            for (addr, access) in points().zip(ACCESSES.into_iter().cycle()) {
                check(addr, access, &mut tlb, &tlb_ref, &cache_ref)?;
            }
            let stats = tlb.stats();
            prop_assert_eq!((stats.hits, stats.misses), (hits, misses));
            prop_assert_eq!(
                (stats.range_flushes, stats.full_flushes),
                (range_flushes, full_flushes)
            );
            prop_assert_eq!(cache.stats(), (cache_hits, cache_misses));
        }
    }
}
