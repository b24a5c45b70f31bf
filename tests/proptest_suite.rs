//! Property-based tests on the core data structures and invariants:
//! the radix page tables against a reference map, the shared ring's FIFO
//! property, wire-codec roundtrips, memory-map consistency, whitelist
//! algebra, and TLB/translation agreement.

// `ProptestConfig { cases, ..default() }` is the portable spelling; the
// offline stub's config struct has a single field, which trips this lint.
#![allow(clippy::needless_update)]

use covirt_suite::simhw::addr::{HostPhysAddr, PhysRange, PAGE_SIZE_2M, PAGE_SIZE_4K};
use covirt_suite::simhw::memory::PhysMemory;
use covirt_suite::simhw::paging::{DirectLoad, FramePool, GuestPageTables, Perms};
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;

fn pt_setup(mem_bytes: u64) -> (Arc<PhysMemory>, GuestPageTables, PhysRange) {
    let mem = Arc::new(PhysMemory::new(&[mem_bytes]));
    let pool_region = mem
        .alloc_backed(
            covirt_suite::simhw::topology::ZoneId(0),
            16 * 1024 * 1024,
            PAGE_SIZE_4K,
        )
        .unwrap();
    let pool = Arc::new(FramePool::new(Arc::clone(&mem), pool_region).unwrap());
    let pt = GuestPageTables::new(pool).unwrap();
    let arena = mem
        .alloc(
            covirt_suite::simhw::topology::ZoneId(0),
            64 * 1024 * 1024,
            PAGE_SIZE_2M,
        )
        .unwrap();
    (mem, pt, arena)
}

/// A map/unmap operation over a 64 MiB arena, in 4 KiB page units.
#[derive(Clone, Debug)]
enum PtOp {
    Map { page: u64, count: u64 },
    Unmap { page: u64, count: u64 },
}

fn pt_op() -> impl Strategy<Value = PtOp> {
    let pages = 64 * 1024 * 1024 / PAGE_SIZE_4K; // 16384
    prop_oneof![
        (0..pages, 1u64..64).prop_map(|(page, count)| PtOp::Map { page, count }),
        (0..pages, 1u64..64).prop_map(|(page, count)| PtOp::Unmap { page, count }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// The radix table agrees with a reference HashMap model under
    /// arbitrary interleavings of (possibly overlapping) maps and unmaps.
    #[test]
    fn radix_matches_reference_model(ops in proptest::collection::vec(pt_op(), 1..40)) {
        let (mem, pt, arena) = pt_setup(256 * 1024 * 1024);
        let pages = arena.len / PAGE_SIZE_4K;
        let mut model: HashMap<u64, ()> = HashMap::new();
        for op in ops {
            match op {
                PtOp::Map { page, count } => {
                    let count = count.min(pages - page);
                    let va = arena.start.raw() + page * PAGE_SIZE_4K;
                    // Skip maps that overlap the model (the table rejects
                    // double-mapping; the model mirrors that by skipping).
                    if (page..page + count).any(|p| model.contains_key(&p)) {
                        continue;
                    }
                    pt.map(va, HostPhysAddr::new(va), count * PAGE_SIZE_4K, Perms::RWX, 2).unwrap();
                    for p in page..page + count {
                        model.insert(p, ());
                    }
                }
                PtOp::Unmap { page, count } => {
                    let count = count.min(pages - page);
                    let va = arena.start.raw() + page * PAGE_SIZE_4K;
                    pt.unmap(va, count * PAGE_SIZE_4K).unwrap();
                    for p in page..page + count {
                        model.remove(&p);
                    }
                }
            }
        }
        // Sample agreement on a deterministic stride plus the model keys.
        let loader = DirectLoad(&mem);
        for p in (0..pages).step_by(37) {
            let va = arena.start.raw() + p * PAGE_SIZE_4K;
            prop_assert_eq!(pt.walk(va, &loader).is_ok(), model.contains_key(&p), "page {}", p);
        }
        for (&p, _) in model.iter().take(64) {
            let va = arena.start.raw() + p * PAGE_SIZE_4K;
            let t = pt.walk(va, &loader);
            prop_assert!(t.is_ok());
            prop_assert_eq!(t.unwrap().pa.raw(), va, "identity mapping broken");
        }
    }

    /// Ring: any push/pop interleaving preserves FIFO order and capacity.
    #[test]
    fn ring_fifo_property(ops in proptest::collection::vec(any::<bool>(), 1..200)) {
        use covirt_suite::pisces::ring::{RingError, SharedRing};
        let region = PhysMemory::new(&[8 * 1024 * 1024])
            .alloc_window(covirt_suite::simhw::topology::ZoneId(0), 16 * 1024, PAGE_SIZE_4K)
            .unwrap();
        let ring = SharedRing::create(&region, 8, 16).unwrap();
        let mut model = std::collections::VecDeque::new();
        let mut next = 0u64;
        for push in ops {
            if push {
                match ring.push(&next.to_le_bytes()) {
                    Ok(()) => { model.push_back(next); next += 1; }
                    Err(RingError::Full) => prop_assert_eq!(model.len() as u64, ring.capacity()),
                    Err(e) => prop_assert!(false, "unexpected {:?}", e),
                }
            } else {
                match ring.pop() {
                    Ok(buf) => {
                        let v = u64::from_le_bytes(buf[..8].try_into().unwrap());
                        prop_assert_eq!(Some(v), model.pop_front());
                    }
                    Err(RingError::Empty) => prop_assert!(model.is_empty()),
                    Err(e) => prop_assert!(false, "unexpected {:?}", e),
                }
            }
            prop_assert_eq!(ring.len(), model.len() as u64);
        }
    }

    /// Wire codec: boot parameters roundtrip for arbitrary contents.
    #[test]
    fn boot_params_roundtrip(
        enclave_id in any::<u64>(),
        name in "[a-z0-9_.-]{0,32}",
        cores in proptest::collection::vec(0u64..4096, 0..16),
        regions in proptest::collection::vec((any::<u32>(), any::<u32>()), 0..16),
        vectors in proptest::collection::vec(any::<u8>(), 0..16),
        tsc in any::<u64>(),
    ) {
        use covirt_suite::pisces::boot::{BootParams, BOOT_MAGIC};
        let p = BootParams {
            magic: BOOT_MAGIC,
            enclave_id,
            kernel_name: name,
            cores,
            mem_regions: regions.into_iter().map(|(a, b)| (a as u64, b as u64)).collect(),
            ipi_vectors: vectors,
            ctrlchan_base: 0x1234,
            ctrlchan_len: 0x5678,
            pt_pool: (1, 2),
            tsc_hz: tsc,
        };
        prop_assert_eq!(BootParams::decode(&p.encode()).unwrap(), p);
    }

    /// Covirt command-queue messages roundtrip and preserve sequencing.
    #[test]
    fn cmdqueue_roundtrip(gvas in proptest::collection::vec(any::<u64>(), 1..16)) {
        use covirt_suite::covirt::cmdqueue::{CmdQueue, Command};
        let mem = Arc::new(PhysMemory::new(&[8 * 1024 * 1024]));
        let region = mem
            .alloc_window(covirt_suite::simhw::topology::ZoneId(0), PAGE_SIZE_4K, PAGE_SIZE_4K)
            .unwrap();
        let pool = Arc::new(FramePool::over(mem, &region));
        let q = CmdQueue::create(pool.take_frame().unwrap()).unwrap();
        let mut seqs = Vec::new();
        for &gva in &gvas {
            seqs.push(q.post(Command::TlbFlushPage { gva }).unwrap());
        }
        let drained = q.drain();
        prop_assert_eq!(drained.len(), gvas.len());
        for ((d, &gva), &seq) in drained.iter().zip(&gvas).zip(&seqs) {
            prop_assert_eq!(d.cmd, Command::TlbFlushPage { gva });
            prop_assert_eq!(d.seq, seq);
            q.complete(d.seq);
        }
        prop_assert!(q.wait(*seqs.last().unwrap(), 1, None, &|| true).is_ok());
    }

    /// Whitelist algebra: grants and revocations compose like set ops, and
    /// vectors added or removed after construction move the base predicate.
    /// Destinations past the core bitmap (`usize::MAX` included) and the
    /// top vector are probed on every case.
    #[test]
    fn whitelist_set_semantics(
        base_cores in proptest::collection::hash_set(0usize..16, 0..4),
        base_vectors in proptest::collection::hash_set(any::<u8>(), 0..4),
        added in proptest::collection::hash_set(any::<u8>(), 0..4),
        removed in proptest::collection::hash_set(any::<u8>(), 0..4),
        grants in proptest::collection::vec((0usize..80, any::<u8>()), 0..8),
        probe in (0usize..80, any::<u8>()),
    ) {
        use covirt_suite::covirt::whitelist::IpiWhitelist;
        let w = IpiWhitelist::new(base_cores.iter().copied(), base_vectors.iter().copied());
        // A grant reaches past the core bitmap too.
        let grants: Vec<(usize, u8)> = grants.into_iter().chain([(usize::MAX, 0xff)]).collect();
        for &v in &added {
            w.add_vector(v);
        }
        for &v in &removed {
            w.remove_vector(v);
        }
        let vectors: std::collections::HashSet<u8> =
            base_vectors.union(&added).filter(|v| !removed.contains(v)).copied().collect();
        for &(c, v) in &grants {
            w.grant(c, v);
        }
        let base = |c: usize, v: u8| base_cores.contains(&c) && vectors.contains(&v);
        let probes = [probe.0, 16, 64, 1 << 20, usize::MAX]
            .into_iter()
            .flat_map(|c| [(c, probe.1), (c, 0xff)]);
        for (pc, pv) in probes.clone() {
            let expect = base(pc, pv) || grants.contains(&(pc, pv));
            prop_assert_eq!(w.would_allow(pc, pv), expect);
        }
        // Revoking all grants restores the base predicate.
        for &(c, v) in &grants {
            w.revoke(c, v);
        }
        for (pc, pv) in probes {
            prop_assert_eq!(w.would_allow(pc, pv), base(pc, pv));
        }
    }

    /// MemMap: after any sequence of adds/removes, regions never overlap
    /// and total_bytes equals the sum of region lengths.
    #[test]
    fn memmap_invariants(ops in proptest::collection::vec((0u64..128, 1u64..16, any::<bool>()), 1..40)) {
        use covirt_suite::kitten::memmap::{MemMap, RegionKind};
        let mut m = MemMap::new();
        for (page, count, add) in ops {
            let range = PhysRange::new(
                HostPhysAddr::new(page * PAGE_SIZE_4K),
                count * PAGE_SIZE_4K,
            );
            if add {
                let _ = m.add(range, RegionKind::Granted);
            } else {
                let _ = m.remove(range);
            }
            // Invariants hold at every step.
            let regions = m.regions();
            for w in regions.windows(2) {
                prop_assert!(!w[0].range.overlaps(&w[1].range));
                prop_assert!(w[0].range.start <= w[1].range.start);
            }
            prop_assert_eq!(
                m.total_bytes(),
                regions.iter().map(|r| r.range.len).sum::<u64>()
            );
        }
    }

    /// VectorBitmap: drain returns exactly the distinct set bits, highest
    /// first.
    #[test]
    fn vector_bitmap_drain(vectors in proptest::collection::vec(any::<u8>(), 0..64)) {
        use covirt_suite::simhw::interconnect::VectorBitmap;
        let b = VectorBitmap::default();
        let mut expect: Vec<u8> = vectors.clone();
        expect.sort_unstable();
        expect.dedup();
        expect.reverse();
        for v in vectors {
            b.set(v);
        }
        prop_assert_eq!(b.drain(), expect);
        prop_assert!(b.is_empty());
    }
}
