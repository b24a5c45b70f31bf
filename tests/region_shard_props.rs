//! Property tests for the per-zone linear map: populates and frees in every
//! zone racing cross-zone resolves.
//!
//! The invariants under test mirror the contract in `simhw::memory`:
//!
//! * a resolve racing local- and remote-zone populates and frees never
//!   returns a torn word or another range's bytes — pinned ranges read
//!   back exactly what was written, always;
//! * a range freed and populated again reads zeros: the free discarded its
//!   pages, whoever touched them last;
//! * a word read through a backing resolved before a racing free is the
//!   range's own tag or zero — the backing is the zone's RAM, never freed
//!   host memory;
//! * afterwards each zone holds exactly its pinned range.

// `ProptestConfig { cases, ..default() }` is the portable spelling; the
// offline stub's config struct has a single field, which trips this lint.
#![allow(clippy::needless_update)]

use covirt_suite::simhw::addr::{HostPhysAddr, PhysRange, PAGE_SIZE_4K};
use covirt_suite::simhw::memory::PhysMemory;
use covirt_suite::simhw::topology::ZoneId;
use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Recognizable marker pattern; the low bits carry the owning zone.
const MARKER: u64 = 0x5a5a_0000_0000_0000;
/// Churn tags: the high half marks them, the low bits the cycle.
const TAG: u64 = 0x7a67_0000_0000_0000;

/// One run of a case: per-zone churners racing cross-zone readers.
fn race(zones: usize, cycles: u32, readers: usize) {
    let mem = Arc::new(PhysMemory::new(&vec![32 * 1024 * 1024; zones][..]));
    // One pinned range per zone that outlives all churn; its marker is what
    // every racing resolve must read back intact.
    let pins: Vec<PhysRange> = (0..zones)
        .map(|z| {
            mem.alloc_backed(ZoneId(z), 16 * PAGE_SIZE_4K, PAGE_SIZE_4K)
                .unwrap()
        })
        .collect();
    for (z, p) in pins.iter().enumerate() {
        mem.write_u64(p.start, MARKER | z as u64).unwrap();
    }
    let in_use: Vec<u64> = (0..zones)
        .map(|z| mem.zone_usage(ZoneId(z)).unwrap().1)
        .collect();
    // Each zone's live churn range, 0 while none is.
    let live: Arc<Vec<AtomicU64>> = Arc::new((0..zones).map(|_| AtomicU64::new(0)).collect());
    let stop = Arc::new(AtomicBool::new(false));

    std::thread::scope(|s| {
        // Per-zone churners: populate, check it reads zeros, tag, publish,
        // free.
        let churners: Vec<_> = (0..zones)
            .map(|z| {
                let (mem, live) = (Arc::clone(&mem), Arc::clone(&live));
                s.spawn(move || {
                    for i in 0..cycles {
                        let r = mem
                            .alloc_backed(ZoneId(z), 2 * PAGE_SIZE_4K, PAGE_SIZE_4K)
                            .unwrap();
                        assert_eq!(mem.read_u64(r.start), Ok(0), "a free left its bytes");
                        mem.write_u64(r.start, TAG | u64::from(i)).unwrap();
                        live[z].store(r.start.raw(), Ordering::Release);
                        std::thread::yield_now();
                        live[z].store(0, Ordering::Release);
                        mem.free(r).unwrap();
                    }
                })
            })
            .collect();
        // Cross-zone readers, sustained until every churner exits.
        for _ in 0..readers {
            let (mem, live, stop) = (Arc::clone(&mem), Arc::clone(&live), Arc::clone(&stop));
            let pins = pins.clone();
            s.spawn(move || {
                while !stop.load(Ordering::Acquire) {
                    for (z, p) in pins.iter().enumerate() {
                        assert_eq!(mem.read_u64(p.start), Ok(MARKER | z as u64));
                        let addr = live[z].load(Ordering::Acquire);
                        if addr == 0 {
                            continue;
                        }
                        // Stale by now, perhaps: unbacked is then the
                        // answer, and a backing already in hand reads the
                        // range's tag or the zeros its free left.
                        if let Ok((b, off)) = mem.resolve(HostPhysAddr::new(addr), 8) {
                            std::thread::yield_now();
                            let v = b.read_u64(off);
                            assert!(v == 0 || v & !0xffff_ffff == TAG, "read {v:#x}");
                        }
                    }
                }
            });
        }
        for c in churners {
            c.join().unwrap();
        }
        stop.store(true, Ordering::Release);
    });

    for (z, p) in pins.iter().enumerate() {
        assert_eq!(mem.zone_usage(ZoneId(z)).unwrap().1, in_use[z]);
        assert!(
            mem.resolve(p.end(), 8).is_err(),
            "zone {z} kept a churn range"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    #[test]
    fn racing_populates_frees_and_resolves_stay_coherent(
        zones in 2usize..4,
        cycles in 10u32..60,
        readers in 1usize..3,
    ) {
        race(zones, cycles, readers);
    }
}
