//! Property-based tests on the core data structures and invariants:
//! the radix page tables against a reference map, the shared ring's FIFO
//! property, boot-parameter and command roundtrips, memory-map
//! consistency, whitelist algebra, and TLB/translation agreement.

// `ProptestConfig { cases, ..default() }` is the portable spelling; the
// offline stub's config struct has a single field, which trips this lint.
#![allow(clippy::needless_update)]

use covirt_suite::pisces::ctrlchan::CtrlMsg;
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

/// A step of `arbitrary_cokernel_words_never_hurt_the_host`: a host call
/// (grant 2 MiB, ask for a held range back, handle the culprit's messages)
/// or a co-kernel store into its control channel (any word at a word
/// offset, a removal ack of a range it holds or held, a well-formed
/// message with arbitrary fields).
#[derive(Clone, Debug)]
enum ChanOp {
    Grant,
    Request(usize),
    Acks,
    Word(u64, u64),
    AckHeld(usize),
    Send(CtrlMsg),
    /// The co-kernel scribbles a message into its own inbound ring (which
    /// lies in its management region), then polls it.
    Inbound(CtrlMsg),
}

fn chan_op() -> impl Strategy<Value = ChanOp> {
    // Each ring is 1024 words; its header is the first 8, the cursors
    // words 2 and 3.
    let word = prop_oneof![0u64..2048, 0u64..8, 1024u64..1032];
    let value = prop_oneof![any::<u64>(), 0u64..256];
    let msg = (0u8..3, any::<u64>(), any::<u64>()).prop_map(|(kind, a, b)| match kind {
        0 => CtrlMsg::RemoveMemAck { start: a, len: b },
        1 => CtrlMsg::AddMem { start: a, len: b },
        _ => CtrlMsg::PingAck { token: a },
    });
    // Ranges at the top of the address space wrap when their end is
    // computed; a co-kernel's kernel must refuse them, not overflow.
    let start = prop_oneof![any::<u64>(), Just(!0xfff_u64), 0u64..1 << 36];
    let len = prop_oneof![
        any::<u64>(),
        Just(0x2000u64),
        (1u64..1024).prop_map(|p| p << 12)
    ];
    let inbound = (any::<bool>(), start, len).prop_map(|(add, start, len)| match add {
        true => CtrlMsg::AddMem { start, len },
        false => CtrlMsg::RemoveMem { start, len },
    });
    prop_oneof![
        1 => Just(ChanOp::Grant),
        1 => (0usize..8).prop_map(ChanOp::Request),
        3 => Just(ChanOp::Acks),
        4 => (word, value).prop_map(|(w, v)| ChanOp::Word(w, v)),
        1 => (0usize..8).prop_map(ChanOp::AckHeld),
        3 => msg.prop_map(ChanOp::Send),
        2 => inbound.prop_map(ChanOp::Inbound),
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
        use covirt_suite::pisces::ring::{RingError, SharedRing, SLOT_WORDS};
        let region = PhysMemory::new(&[8 * 1024 * 1024])
            .alloc_window(covirt_suite::simhw::topology::ZoneId(0), 16 * 1024, PAGE_SIZE_4K)
            .unwrap();
        let ring = SharedRing::create(&region, 8).unwrap();
        let mut model = std::collections::VecDeque::new();
        let mut next = 0u64;
        for push in ops {
            if push {
                match ring.push([next; SLOT_WORDS]) {
                    Ok(()) => { model.push_back(next); next += 1; }
                    Err(RingError::Full) => prop_assert_eq!(model.len() as u64, ring.capacity()),
                    Err(e) => prop_assert!(false, "unexpected {:?}", e),
                }
            } else {
                match ring.pop() {
                    Ok(slot) => {
                        let v = model.pop_front();
                        prop_assert_eq!(Some(slot), v.map(|v| [v; SLOT_WORDS]));
                    }
                    Err(RingError::Empty) => prop_assert!(model.is_empty()),
                    Err(e) => prop_assert!(false, "unexpected {:?}", e),
                }
            }
            prop_assert_eq!(ring.len(), model.len() as u64);
        }
    }

    /// Boot parameters roundtrip for arbitrary contents.
    #[test]
    fn boot_params_roundtrip(
        enclave_id in any::<u64>(),
        cores in proptest::collection::vec(0u64..4096, 0..16),
        regions in proptest::collection::vec((any::<u32>(), any::<u32>()), 0..16),
    ) {
        use covirt_suite::pisces::boot::BootParams;
        let p = BootParams {
            enclave_id,
            cores,
            mem_regions: regions.into_iter().map(|(a, b)| (a as u64, b as u64)).collect(),
            ctrlchan_base: 0x1234,
            ctrlchan_len: 0x5678,
            pt_pool: (1, 2),
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
            let len = PAGE_SIZE_4K;
            seqs.push(q.post(Command::TlbFlushRange { gva, len }).unwrap());
        }
        let drained = q.drain();
        prop_assert_eq!(drained.len(), gvas.len());
        for ((d, &gva), &seq) in drained.iter().zip(&gvas).zip(&seqs) {
            prop_assert_eq!(d.cmd, Command::TlbFlushRange { gva, len: PAGE_SIZE_4K });
            prop_assert_eq!(d.seq, seq);
            q.complete(d.seq);
        }
        let deadline = std::time::Duration::ZERO;
        prop_assert!(q.wait(*seqs.last().unwrap(), deadline, None, &|| true).is_ok());
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

    /// Whatever a co-kernel writes into its control channel, the host
    /// neither panics nor handles more than one ring's worth of messages
    /// per call, and neither does the co-kernel's own kernel polling a
    /// scribbled inbound ring. A call that fails either refused a message, and the
    /// culprit lives on having lost only memory it was asked to return, or
    /// found the ring corrupt, and the culprit is `Failed` for it. A
    /// bystander's partition and EPT do not move, and once the culprit is
    /// gone every byte and pool frame it held is back.
    #[test]
    fn arbitrary_cokernel_words_never_hurt_the_host(
        ops in proptest::collection::vec(chan_op(), 1..60),
    ) {
        use covirt_suite::covirt::config::CovirtConfig;
        use covirt_suite::covirt::CovirtController;
        use covirt_suite::hobbes::MasterControl;
        use covirt_suite::pisces::ctrlchan::CTRL_SLOTS;
        use covirt_suite::pisces::resources::ResourceRequest;
        use covirt_suite::pisces::EnclaveState;
        use covirt_suite::simhw::node::{NodeConfig, SimNode};
        use covirt_suite::simhw::topology::{CoreId, ZoneId};

        let node = SimNode::new(NodeConfig::paper_testbed());
        let master = MasterControl::new(Arc::clone(&node));
        let ctl = CovirtController::new(Arc::clone(&node), CovirtConfig::MEM);
        ctl.attach_hobbes(&master);
        let pisces = master.pisces();
        let req = |core| ResourceRequest::new(vec![CoreId(core)], vec![(ZoneId(0), 64 << 20)]);
        let usage = || (node.mem.zone_usage(ZoneId(0)).unwrap().1, ctl.frames_outstanding());
        // One lifecycle first, so the node's frame pool (reserved at the
        // first Covirt boot, kept for good) is part of the baseline.
        let (warm, _) = master.bring_up_enclave("warm", &req(2)).unwrap();
        pisces.teardown(&warm).unwrap();
        let start = usage();

        let (bystander, _) = master.bring_up_enclave("bystander", &req(3)).unwrap();
        let bystander_vctx = ctl.context(bystander.id.0).unwrap();
        let bystander_view = || {
            let ept = bystander_vctx.ept.as_ref().unwrap();
            (bystander.resources(), ept.leaf_counts().unwrap())
        };
        let bystander_before = bystander_view();
        let (culprit, k) = master.bring_up_enclave("culprit", &req(2)).unwrap();
        let chan = PhysRange::new(HostPhysAddr::new(k.params.ctrlchan_base), k.params.ctrlchan_len);
        let mut held = culprit.resources().mem;
        let mut asked = Vec::new();
        for op in ops {
            let pick = |i: usize| held[i % held.len()];
            match op {
                ChanOp::Grant => held.extend(pisces.add_memory(&culprit, ZoneId(0), 2 << 20)),
                ChanOp::Request(i) => {
                    if pisces.request_remove_memory(&culprit, pick(i)).is_ok() {
                        asked.push(pick(i));
                    }
                }
                ChanOp::Acks => {
                    let acked = pisces.process_acks(&culprit);
                    if let Ok(h) = &acked {
                        prop_assert!(h.len() as u64 <= CTRL_SLOTS, "{} handled", h.len());
                    }
                    match culprit.state() {
                        EnclaveState::Running => {
                            // Every pop checks the enclave→host cursors
                            // (the second ring's words 2 and 3) first, so a
                            // call that leaves them claiming more than the
                            // ring holds found them so.
                            let word = |w: u64| node.mem.read_u64(chan.start.add(8 * w)).unwrap();
                            let queued = word(1024 + 3).wrapping_sub(word(1024 + 2));
                            prop_assert!(queued <= CTRL_SLOTS, "{:?} on a corrupt ring", acked);
                        }
                        EnclaveState::Failed(why) => {
                            prop_assert!(acked.is_err(), "failed, yet {:?}", acked);
                            prop_assert!(why.contains("control channel"), "{}", why);
                        }
                        state => prop_assert!(false, "{:?} left the culprit {:?}", acked, state),
                    }
                }
                ChanOp::Word(w, v) => {
                    node.mem.write_u64(chan.start.add(8 * (w % (chan.len / 8))), v).unwrap();
                }
                ChanOp::AckHeld(i) => {
                    let (start, len) = (pick(i).start.raw(), pick(i).len);
                    _ = k.ctrl().send(&CtrlMsg::RemoveMemAck { start, len });
                }
                ChanOp::Send(msg) => _ = k.ctrl().send(&msg),
                ChanOp::Inbound(msg) => {
                    if let Some(inbound) = culprit.ctrl() {
                        _ = inbound.send(&msg);
                    }
                    if let Ok(h) = k.poll_ctrl() {
                        prop_assert!(h.len() as u64 <= CTRL_SLOTS, "{} polled", h.len());
                    }
                }
            }
            prop_assert_eq!(bystander_view(), bystander_before.clone());
            if culprit.state() != EnclaveState::Running {
                // Failed and reclaimed: its co-kernel runs no more.
                break;
            }
            let now = culprit.resources().mem;
            for r in &held {
                prop_assert!(now.contains(r) || asked.contains(r), "{:?} taken unasked", r);
            }
        }
        if culprit.state() == EnclaveState::Running {
            pisces.teardown(&culprit).unwrap();
        }
        drop(bystander_vctx);
        pisces.teardown(&bystander).unwrap();
        prop_assert_eq!(usage(), start);
    }
}
