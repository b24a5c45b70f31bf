//! Stale-TLB-window safety under the coalesced/broadcast shootdown
//! protocol: a reclaim epoch may defer synchronization, but its close must
//! not return until *every* live core has executed its flush — only then
//! may the host recycle the frames.

use covirt_suite::covirt::config::CovirtConfig;
use covirt_suite::covirt::controller::DEFAULT_RANGE_FLUSH_THRESHOLD;
use covirt_suite::covirt::exec::FaultOutcome;
use covirt_suite::covirt::{CovirtController, GuestCore};
use covirt_suite::hobbes::MasterControl;
use covirt_suite::simhw::node::{NodeConfig, SimNode};
use covirt_suite::simhw::tlb::TlbParams;
use covirt_suite::simhw::topology::{CoreId, ZoneId};
use std::sync::Arc;

fn world() -> (Arc<SimNode>, Arc<MasterControl>, Arc<CovirtController>) {
    let node = SimNode::new(NodeConfig::paper_testbed());
    let master = MasterControl::new(Arc::clone(&node));
    let ctl = CovirtController::new(Arc::clone(&node), CovirtConfig::MEM);
    ctl.attach_hobbes(&master);
    (node, master, ctl)
}

#[test]
fn epoch_close_blocks_until_every_core_flushes() {
    let (node, master, ctl) = world();
    let req = covirt_suite::pisces::resources::ResourceRequest::new(
        vec![CoreId(2), CoreId(3)],
        vec![(ZoneId(0), 64 * 1024 * 1024)],
    );
    let (e, k) = master.bring_up_enclave("s", &req).unwrap();
    let mk = |core: usize| {
        GuestCore::launch_covirt(
            Arc::clone(&node),
            Arc::clone(&k),
            Arc::clone(&ctl),
            core,
            TlbParams::default(),
        )
        .unwrap()
    };
    let mut g2 = mk(2);
    let mut g3 = mk(3);

    // Grant two ranges and cache their translations on both cores.
    let r1 = master
        .pisces()
        .add_memory(&e, ZoneId(0), 2 * 1024 * 1024)
        .unwrap();
    let r2 = master
        .pisces()
        .add_memory(&e, ZoneId(0), 2 * 1024 * 1024)
        .unwrap();
    k.poll_ctrl().unwrap();
    master.pisces().process_acks(&e).unwrap();
    for g in [&mut g2, &mut g3] {
        g.write_u64(r1.start.raw(), 0xa).unwrap();
        g.write_u64(r2.start.raw(), 0xb).unwrap();
    }

    // Reclaim both ranges inside one epoch: the unmaps are immediate and
    // the acks complete without any shootdown.
    ctl.begin_reclaim_epoch(e.id.0);
    for r in [r1, r2] {
        master.pisces().request_remove_memory(&e, r).unwrap();
        k.poll_ctrl().unwrap();
        master.pisces().process_acks(&e).unwrap();
    }
    assert!(!e.resources().mem.contains(&r1) && !e.resources().mem.contains(&r2));

    // THE WINDOW: with the epoch still open, both cores can still reach
    // the reclaimed frames through their stale TLB entries — exactly why
    // the epoch contract forbids recycling before the close returns.
    assert_eq!(g2.read_u64(r1.start.raw()).unwrap(), 0xa);
    assert_eq!(g3.read_u64(r2.start.raw()).unwrap(), 0xb);
    let flushes_before = g2.tlb_stats().range_flushes + g2.tlb_stats().full_flushes;

    // Close the epoch from the host side. Service NMIs ONLY on core 2 for
    // a while: the close must NOT complete while core 3 still holds its
    // stale entries.
    let ctl2 = Arc::clone(&ctl);
    let enclave_id = e.id.0;
    let closer = std::thread::spawn(move || ctl2.end_reclaim_epoch(enclave_id).unwrap());
    let t0 = std::time::Instant::now();
    while t0.elapsed() < std::time::Duration::from_millis(300) {
        g2.poll().unwrap();
        std::thread::yield_now();
    }
    assert!(
        !closer.is_finished(),
        "epoch close returned before core 3 flushed — stale window open!"
    );

    // Now let core 3 service its flush too; the close completes.
    while !closer.is_finished() {
        g2.poll().unwrap();
        g3.poll().unwrap();
        std::thread::yield_now();
    }
    closer.join().unwrap();

    // The two coalesced ranges rode ONE shootdown of two range-flush
    // commands per core (both sit under the range threshold).
    assert_eq!(g2.tlb_stats().range_flushes, flushes_before + 2);
    assert_eq!(g3.tlb_stats().range_flushes, 2);
    assert_eq!(g3.tlb_stats().full_flushes, 0);

    // After the close, the stale path is gone on BOTH cores: a rebuilt
    // stale access EPT-faults and is contained.
    for (g, r) in [(&mut g2, r1), (&mut g3, r2)] {
        let fault = covirt_suite::kitten::faults::stale_shared_mapping(&k, r);
        match g.execute_fault(fault) {
            FaultOutcome::Contained(reason) => assert!(reason.contains("EPT violation")),
            o => panic!("post-close stale access must be contained, got {o:?}"),
        }
    }
}

#[test]
fn oversized_reclaim_falls_back_to_full_flush() {
    let (node, master, ctl) = world();
    let req = covirt_suite::pisces::resources::ResourceRequest::new(
        vec![CoreId(2)],
        vec![(ZoneId(0), 64 * 1024 * 1024)],
    );
    let (e, k) = master.bring_up_enclave("f", &req).unwrap();
    let mut g = GuestCore::launch_covirt(
        Arc::clone(&node),
        Arc::clone(&k),
        Arc::clone(&ctl),
        2,
        TlbParams::default(),
    )
    .unwrap();
    // One grant past the range-flush threshold: sweeping the TLB for it
    // would cost more than invalidating everything.
    let range = master
        .pisces()
        .add_memory(
            &e,
            ZoneId(0),
            DEFAULT_RANGE_FLUSH_THRESHOLD + 2 * 1024 * 1024,
        )
        .unwrap();
    k.poll_ctrl().unwrap();
    master.pisces().process_acks(&e).unwrap();
    g.write_u64(range.start.raw(), 1).unwrap();

    master.pisces().request_remove_memory(&e, range).unwrap();
    k.poll_ctrl().unwrap();
    let host = Arc::clone(master.pisces());
    let e2 = Arc::clone(&e);
    let reclaim = std::thread::spawn(move || {
        while e2.resources().mem.contains(&range) {
            host.process_acks(&e2).unwrap();
            std::thread::yield_now();
        }
    });
    while !reclaim.is_finished() {
        g.poll().unwrap();
        std::thread::yield_now();
    }
    reclaim.join().unwrap();
    assert_eq!(
        g.tlb_stats().full_flushes,
        1,
        "a reclaim past the threshold must flush everything"
    );
    assert_eq!(g.tlb_stats().range_flushes, 0);
}

/// Reclaim `range` through the full protocol — guest ack, controller unmap,
/// shootdown — with `g` polling as a live core does.
fn reclaim_with_live_core(
    master: &MasterControl,
    e: &Arc<covirt_suite::pisces::Enclave>,
    k: &covirt_suite::kitten::KittenKernel,
    g: &mut GuestCore,
    range: covirt_suite::simhw::addr::PhysRange,
) {
    master.pisces().request_remove_memory(e, range).unwrap();
    k.poll_ctrl().unwrap();
    std::thread::scope(|s| {
        let acks = s.spawn(|| {
            while e.resources().mem.contains(&range) {
                master.pisces().process_acks(e).unwrap();
                std::thread::yield_now();
            }
        });
        while !acks.is_finished() {
            g.poll().unwrap();
            std::thread::yield_now();
        }
    });
}

/// The walk cache's half of a reclaim: the flush command the round trip
/// posts drops the nested translations overlapping the reclaimed range, its
/// GiB's PDPTE line included, while the unrelated ones — the guest's own
/// page-table pages included — keep hitting, and nothing is cleared
/// wholesale.
#[test]
fn reclaim_keeps_unrelated_walk_cache_lines_and_drops_reclaimed_ones() {
    use covirt_suite::covirt::CovirtError;

    let (node, master, ctl) = world();
    let req = covirt_suite::pisces::resources::ResourceRequest::new(
        vec![CoreId(2)],
        vec![(ZoneId(0), 64 * 1024 * 1024)],
    );
    let (e, k) = master.bring_up_enclave("w", &req).unwrap();
    let mut g = GuestCore::launch_covirt(
        Arc::clone(&node),
        Arc::clone(&k),
        Arc::clone(&ctl),
        2,
        TlbParams::default(),
    )
    .unwrap();

    let grant = || {
        let r = master
            .pisces()
            .add_memory(&e, ZoneId(0), 2 * 1024 * 1024)
            .unwrap();
        k.poll_ctrl().unwrap();
        master.pisces().process_acks(&e).unwrap();
        r
    };
    let (reclaimed, kept) = (grant(), grant());
    assert_eq!(reclaimed.start.raw() >> 30, kept.start.raw() >> 30);
    g.write_u64(reclaimed.start.raw(), 0xa).unwrap();
    let before = g.counters();

    reclaim_with_live_core(&master, &e, &k, &mut g, reclaimed);
    assert_eq!(g.tlb_stats().range_flushes, 1);
    assert_eq!(g.tlb_stats().full_flushes, 0, "by range, not wholesale");

    // Kept: the first touch of the other grant walks through the same
    // guest PT pages, and every one of their lines still hits.
    g.write_u64(kept.start.raw(), 0xb).unwrap();
    let after = g.counters();
    assert_eq!(after.walks, before.walks + 1);
    assert_eq!(
        after.walk_cache_misses,
        before.walk_cache_misses + 1,
        "the one miss is the grant's own EPT leaf, which the core never touched before"
    );
    assert_eq!(after.walk_cache_hits, before.walk_cache_hits + 3);
    assert_eq!(
        after.walk_loads,
        before.walk_loads + 3,
        "walked from the EPT root: the GiB's PDPTE line overlapped the reclaimed range"
    );

    // Dropped: the reclaimed leaf's line went with the flush, so the live
    // EPT answers the first access into it.
    let _ = covirt_suite::kitten::faults::stale_shared_mapping(&k, reclaimed);
    let gpa = reclaimed.start.raw() + 0x40;
    match g.read_u64(gpa) {
        Err(CovirtError::EnclaveTerminated(reason)) => assert!(
            reason.contains(&format!("EPT violation at {gpa:#x} (Read)")),
            "{reason}"
        ),
        other => panic!("a stale read of {gpa:#x} must be contained, got {other:?}"),
    }
    assert_eq!(g.counters().walk_cache_misses, after.walk_cache_misses + 1);
}

/// The data page's half of that contract. A core caches the EPT leaf of a
/// page it touched, rights and all; once the reclaim that unmapped it has
/// returned, the first access the core starts must find the line gone and
/// take the violation, not be served the grant it no longer holds.
#[test]
fn first_access_after_a_reclaim_is_a_violation_though_its_data_leaf_was_cached() {
    let (node, master, ctl) = world();
    let req = covirt_suite::pisces::resources::ResourceRequest::new(
        vec![CoreId(2)],
        vec![(ZoneId(0), 64 * 1024 * 1024)],
    );
    let (e, k) = master.bring_up_enclave("d", &req).unwrap();
    let mut g = GuestCore::launch_covirt(
        Arc::clone(&node),
        Arc::clone(&k),
        Arc::clone(&ctl),
        2,
        TlbParams::default(),
    )
    .unwrap();
    let range = master
        .pisces()
        .add_memory(&e, ZoneId(0), 2 * 1024 * 1024)
        .unwrap();
    k.poll_ctrl().unwrap();
    master.pisces().process_acks(&e).unwrap();
    // One walk: a TLB entry and a walk-cache line for the grant's leaf.
    g.write_u64(range.start.raw(), 0xa).unwrap();
    let cached = g.counters();

    reclaim_with_live_core(&master, &e, &k, &mut g, range);
    assert_eq!(g.tlb_stats().range_flushes, 1, "the TLB entry is gone");

    // The co-kernel's cleanup bug: its own mapping of the grant survives.
    let fault = covirt_suite::kitten::faults::stale_shared_mapping(&k, range);
    let gpa = range.start.raw() + range.len / 2;
    match g.execute_fault(fault) {
        FaultOutcome::Contained(reason) => assert!(
            reason.contains(&format!("EPT violation at {gpa:#x} (Write)")),
            "{reason}"
        ),
        o => panic!("a stale access must be contained, got {o:?}"),
    }
    let after = g.counters();
    assert_eq!(after.walks, cached.walks + 1);
    assert_eq!(
        after.walk_cache_misses,
        cached.walk_cache_misses + 1,
        "the line was dropped, so the live EPT answered"
    );
}

/// The PDPTE half of that contract. A core that touched two grants in one
/// GiB holds that GiB's PD page as a line: the second grant's first walk
/// resumed there. Once the reclaim of either grant has returned, the first
/// access the core starts into it — anywhere in the range, either kind — is
/// an EPT violation naming that address and access.
#[test]
fn first_access_after_a_reclaim_is_a_violation_though_its_pd_page_was_cached() {
    use covirt_suite::covirt::CovirtError;
    use covirt_suite::simhw::addr::PAGE_SIZE_2M;

    for (reclaim_second, offset, write) in [
        (false, PAGE_SIZE_2M / 2, true),
        (false, 0, false),
        (true, PAGE_SIZE_2M - 8, false),
        (true, 8, true),
    ] {
        let (node, master, ctl) = world();
        let req = covirt_suite::pisces::resources::ResourceRequest::new(
            vec![CoreId(2)],
            vec![(ZoneId(0), 64 * 1024 * 1024)],
        );
        let (e, k) = master.bring_up_enclave("p", &req).unwrap();
        let mut g = GuestCore::launch_covirt(
            Arc::clone(&node),
            Arc::clone(&k),
            Arc::clone(&ctl),
            2,
            TlbParams::default(),
        )
        .unwrap();
        let grants = [(); 2].map(|()| {
            let r = master
                .pisces()
                .add_memory(&e, ZoneId(0), PAGE_SIZE_2M)
                .unwrap();
            k.poll_ctrl().unwrap();
            master.pisces().process_acks(&e).unwrap();
            r
        });
        assert_eq!(grants[0].start.raw() >> 30, grants[1].start.raw() >> 30);
        g.write_u64(grants[0].start.raw(), 0xa).unwrap();
        let before = g.counters();
        g.write_u64(grants[1].start.raw(), 0xb).unwrap();
        assert_eq!(
            g.counters().walk_loads,
            before.walk_loads + 1,
            "the second grant's leaf was walked from the cached PD page"
        );

        let range = grants[reclaim_second as usize];
        reclaim_with_live_core(&master, &e, &k, &mut g, range);
        // The co-kernel's cleanup bug: its own mapping of the grant survives.
        let _ = covirt_suite::kitten::faults::stale_shared_mapping(&k, range);
        let gpa = range.start.raw() + offset;
        let (access, got) = if write {
            ("Write", g.write_u64(gpa, 1))
        } else {
            ("Read", g.read_u64(gpa).map(drop))
        };
        match got {
            Err(CovirtError::EnclaveTerminated(reason)) => assert!(
                reason.contains(&format!("EPT violation at {gpa:#x} ({access})")),
                "{reason}"
            ),
            other => panic!("a stale {access} of {gpa:#x} must be contained, got {other:?}"),
        }
    }
}
