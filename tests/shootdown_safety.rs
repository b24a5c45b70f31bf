//! Stale-TLB-window safety under the broadcast shootdown protocol: a
//! reclaim must not return — and so Pisces must not free its frames —
//! until *every* live core has executed its flush. Only then may another
//! enclave be handed the memory.

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
fn reclaim_blocks_until_every_core_flushes() {
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
    let flushes_before = g2.tlb_stats().range_flushes + g2.tlb_stats().full_flushes;

    // Reclaim both ranges, one after the other, from a host thread.
    // Service flush commands ONLY on core 2 for a while: the first
    // reclaim must NOT complete while core 3 still holds its stale
    // entries.
    let host = Arc::clone(master.pisces());
    let (e2, k2) = (Arc::clone(&e), Arc::clone(&k));
    let reclaimer = std::thread::spawn(move || {
        for r in [r1, r2] {
            host.request_remove_memory(&e2, r).unwrap();
            k2.poll_ctrl().unwrap();
            while e2.resources().mem.contains(&r) {
                host.process_acks(&e2).unwrap();
                std::thread::yield_now();
            }
        }
    });
    let t0 = std::time::Instant::now();
    while t0.elapsed() < std::time::Duration::from_millis(300) {
        g2.poll().unwrap();
        std::thread::yield_now();
    }
    assert!(
        !reclaimer.is_finished() && e.resources().mem.contains(&r1),
        "a reclaim returned before core 3 flushed — stale window open!"
    );

    // Now let core 3 service its flushes too; both reclaims complete.
    while !reclaimer.is_finished() {
        g2.poll().unwrap();
        g3.poll().unwrap();
        std::thread::yield_now();
    }
    reclaimer.join().unwrap();
    assert!(!e.resources().mem.contains(&r1) && !e.resources().mem.contains(&r2));

    // Each reclaim was its own shootdown of one range-flush command per
    // core (both sit under the range threshold).
    assert_eq!(g2.tlb_stats().range_flushes, flushes_before + 2);
    assert_eq!(g3.tlb_stats().range_flushes, 2);
    assert_eq!(g3.tlb_stats().full_flushes, 0);

    // After the reclaims, the stale path is gone on BOTH cores: a rebuilt
    // stale access EPT-faults and is contained.
    for (g, r) in [(&mut g2, r1), (&mut g3, r2)] {
        let fault = covirt_suite::kitten::faults::stale_shared_mapping(&k, r);
        match g.execute_fault(fault) {
            FaultOutcome::Contained(reason) => assert!(reason.contains("EPT violation")),
            o => panic!("a stale access after the reclaim must be contained, got {o:?}"),
        }
    }
}

/// The invariant across enclaves: while a reclaim waits on a core of its
/// enclave that still caches the range, the frames stay allocated and no
/// other enclave can be granted them. Once the reclaim completes the next
/// owner gets them, and the old owner's stale access is an EPT violation
/// that leaves the new owner's data intact.
#[test]
fn a_reclaimed_range_reaches_no_new_owner_before_every_core_flushed_it() {
    use covirt_suite::pisces::resources::ResourceRequest;

    let (node, master, ctl) = world();
    let host = master.pisces();
    let request = |core| ResourceRequest::new(vec![CoreId(core)], vec![(ZoneId(0), 64 << 20)]);
    let (a, ka) = master.bring_up_enclave("a", &request(2)).unwrap();
    let (b, kb) = master.bring_up_enclave("b", &request(3)).unwrap();
    let launch = |k: &Arc<covirt_suite::kitten::KittenKernel>, core| {
        let (node, k, ctl) = (Arc::clone(&node), Arc::clone(k), Arc::clone(&ctl));
        GuestCore::launch_covirt(node, k, ctl, core, TlbParams::default()).unwrap()
    };
    let (mut ga, mut gb) = (launch(&ka, 2), launch(&kb, 3));
    let grant = |e, k: &covirt_suite::kitten::KittenKernel| {
        let r = host.add_memory(e, ZoneId(0), 2 << 20).unwrap();
        k.poll_ctrl().unwrap();
        host.process_acks(e).unwrap();
        r
    };

    // A's live core caches the grant.
    let r = grant(&a, &ka);
    ga.write_u64(r.start.raw(), 0xa).unwrap();
    let in_use = || node.mem.zone_usage(ZoneId(0)).unwrap().1;
    let held = in_use();

    // A host thread reclaims it while A's core does not poll.
    host.request_remove_memory(&a, r).unwrap();
    ka.poll_ctrl().unwrap();
    let vctx = ctl.context(a.id.0).unwrap();
    let reclaimer = std::thread::spawn({
        let (host, a) = (Arc::clone(host), Arc::clone(&a));
        move || {
            while a.resources().mem.contains(&r) {
                host.process_acks(&a).unwrap();
                std::thread::yield_now();
            }
        }
    });
    // The shootdown has rung A's core; the reclaim now waits on it.
    let rung = || vctx.cmd_doorbell(2).unwrap().notification_outstanding();
    while !rung() && !reclaimer.is_finished() {
        std::thread::yield_now();
    }
    assert_eq!(in_use(), held, "zone 0 still counts the range");
    let other = grant(&b, &kb);
    assert!(
        !other.overlaps(&r),
        "B was granted {other:?}, inside A's unflushed {r:?}"
    );
    assert!(!reclaimer.is_finished(), "the reclaim returned unflushed");

    // A's core polls; the reclaim completes and the range goes back.
    while !reclaimer.is_finished() {
        ga.poll().unwrap();
        std::thread::yield_now();
    }
    reclaimer.join().unwrap();
    assert_eq!(ga.tlb_stats().range_flushes, 1);

    // B gets the range and writes where A's stale write would land.
    let next = grant(&b, &kb);
    assert_eq!(next, r, "B is granted A's reclaimed range");
    let word = r.start.raw() + r.len / 2;
    gb.write_u64(word, 0xb0b).unwrap();
    let fault = covirt_suite::kitten::faults::stale_shared_mapping(&ka, r);
    match ga.execute_fault(fault) {
        FaultOutcome::Contained(reason) => assert!(
            reason.contains(&format!("EPT violation at {word:#x} (Write)")),
            "{reason}"
        ),
        o => panic!("A's stale write must be contained, got {o:?}"),
    }
    assert_eq!(gb.read_u64(word).unwrap(), 0xb0b, "B's word is intact");
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
