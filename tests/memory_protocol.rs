//! The memory-reconfiguration protocol end-to-end: ordering guarantees,
//! asynchronous grants, blocking reclaims, and XEMEM integration — the
//! heart of Covirt's controller design.

use covirt_suite::covirt::config::CovirtConfig;
use covirt_suite::covirt::{CovirtController, GuestCore};
use covirt_suite::hobbes::events::HobbesHooks;
use covirt_suite::hobbes::{HobbesError, MasterControl};
use covirt_suite::kitten::KittenKernel;
use covirt_suite::pisces::ctrlchan::{CtrlChannel, CtrlMsg, CTRL_SLOTS};
use covirt_suite::pisces::host::{VECTOR_POOL_FIRST, VECTOR_POOL_LAST};
use covirt_suite::pisces::resources::ResourceRequest;
use covirt_suite::pisces::{EnclaveState, PiscesError};
use covirt_suite::simhw::addr::{HostPhysAddr, PhysRange, PAGE_SIZE_4K};
use covirt_suite::simhw::error::HwError;
use covirt_suite::simhw::node::{NodeConfig, SimNode};
use covirt_suite::simhw::paging::{Access, DirectLoad};
use covirt_suite::simhw::tlb::TlbParams;
use covirt_suite::simhw::topology::{CoreId, ZoneId};
use covirt_suite::trace::audit::ViolationKind;
use covirt_suite::workloads::audit::audit_trace;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

fn world() -> (Arc<SimNode>, Arc<MasterControl>, Arc<CovirtController>) {
    let node = SimNode::new(NodeConfig::paper_testbed());
    let master = MasterControl::new(Arc::clone(&node));
    let ctl = CovirtController::new(Arc::clone(&node), CovirtConfig::MEM);
    ctl.attach_hobbes(&master);
    (node, master, ctl)
}

#[test]
fn grant_is_ept_mapped_before_guest_notification() {
    let (node, master, ctl) = world();
    let req = ResourceRequest::new(vec![CoreId(2)], vec![(ZoneId(0), 64 * 1024 * 1024)]);
    let (e, k) = master.bring_up_enclave("g", &req).unwrap();
    let vctx = ctl.context(e.id.0).unwrap();
    let ept = vctx.ept.as_ref().unwrap();

    let range = master
        .pisces()
        .add_memory(&e, ZoneId(0), 4 * 1024 * 1024)
        .unwrap();
    // Invariant: at the moment the grant message is in flight (guest has
    // not polled), the EPT already maps the region...
    assert!(ept
        .translate(
            covirt_suite::simhw::addr::GuestPhysAddr::new(range.start.raw()),
            Access::Write,
            &DirectLoad(&node.mem)
        )
        .is_ok());
    // ...while the guest cannot yet *name* it.
    assert!(k.translate(range.start.raw()).is_err());
    k.poll_ctrl().unwrap();
    assert!(k.translate(range.start.raw()).is_ok());
}

#[test]
fn grants_are_asynchronous_wrt_running_guest() {
    // The guest keeps executing while the host grants memory; nothing
    // needs to stop ("configuration updates are handled asynchronously").
    let (node, master, ctl) = world();
    let req = ResourceRequest::new(vec![CoreId(2)], vec![(ZoneId(0), 64 * 1024 * 1024)]);
    let (e, k) = master.bring_up_enclave("a", &req).unwrap();
    let mut g = GuestCore::launch_covirt(
        Arc::clone(&node),
        Arc::clone(&k),
        Arc::clone(&ctl),
        2,
        TlbParams::default(),
    )
    .unwrap();

    let host = Arc::clone(master.pisces());
    let e2 = Arc::clone(&e);
    let granter = std::thread::spawn(move || {
        (0..8)
            .map(|_| host.add_memory(&e2, ZoneId(0), 2 * 1024 * 1024).unwrap())
            .collect::<Vec<PhysRange>>()
    });

    // Guest busy-works while the grants land; zero exits are required for
    // mapping growth.
    let mut cursor = 0;
    let a = k.alloc_contiguous(1024 * 1024, &mut cursor).unwrap();
    let exits_before = g.exit_count();
    while !granter.is_finished() {
        for i in 0..64u64 {
            g.write_u64(a + i * 8, i).unwrap();
        }
        g.poll().unwrap();
    }
    let ranges = granter.join().unwrap();
    assert_eq!(g.exit_count(), exits_before, "grants must not force exits");

    // After polling, every granted range is usable through the data path.
    k.poll_ctrl().unwrap();
    master.pisces().process_acks(&e).unwrap();
    for r in ranges {
        g.write_u64(r.start.raw(), 0x5a).unwrap();
        assert_eq!(g.read_u64(r.start.raw()).unwrap(), 0x5a);
    }
}

/// A reclaim whose only live core is never polled ends at the completion
/// deadline (the escalation bound plus a few seconds) with `ResourceBusy`
/// naming that core. Nothing of the range is lost: it stays in the
/// partition and counted in zone 0, and its removal stays pending. The
/// co-kernel dropped the range from its memory map when it acknowledged
/// and acknowledges no second request, so only the enclave's teardown
/// returns the range, once. A bystander is granted memory and writes it
/// while the wait runs.
#[test]
fn a_reclaim_from_a_core_that_never_answers_ends_at_its_deadline_and_loses_no_range() {
    let (node, master, ctl) = world();
    let host = master.pisces();
    let request = |core| ResourceRequest::new(vec![CoreId(core)], vec![(ZoneId(0), 64 << 20)]);
    let (a, ka) = master.bring_up_enclave("a", &request(2)).unwrap();
    let (b, kb) = master.bring_up_enclave("b", &request(3)).unwrap();
    let launch = |k: &Arc<KittenKernel>, core| {
        let (node, k, ctl) = (Arc::clone(&node), Arc::clone(k), Arc::clone(&ctl));
        GuestCore::launch_covirt(node, k, ctl, core, TlbParams::default()).unwrap()
    };
    // A's core is in guest mode and never polls.
    let (ga, mut gb) = (launch(&ka, 2), launch(&kb, 3));
    let grant = |e, k: &KittenKernel| {
        let r = host.add_memory(e, ZoneId(0), 2 << 20).unwrap();
        k.poll_ctrl().unwrap();
        host.process_acks(e).unwrap();
        r
    };
    let r = grant(&a, &ka);
    let in_use = || node.mem.zone_usage(ZoneId(0)).unwrap().1;
    let held = in_use();

    host.request_remove_memory(&a, r).unwrap();
    ka.poll_ctrl().unwrap();
    let (done, reclaimed) = std::sync::mpsc::channel();
    let t0 = Instant::now();
    let reclaimer = std::thread::spawn({
        let (host, a) = (Arc::clone(host), Arc::clone(&a));
        move || done.send(host.process_acks(&a).map(drop)).unwrap()
    });
    let bell = ctl.context(a.id.0).unwrap();
    while !bell.cmd_doorbell(2).unwrap().notification_outstanding() {
        assert!(
            t0.elapsed() < Duration::from_secs(30),
            "A's core was never rung"
        );
        std::thread::yield_now();
    }
    let other = grant(&b, &kb);
    gb.write_u64(other.start.raw(), 0xb0b).unwrap();
    assert_eq!(gb.read_u64(other.start.raw()).unwrap(), 0xb0b);
    assert!(reclaimed.try_recv().is_err(), "the reclaim did not wait");

    let err = match reclaimed.recv_timeout(Duration::from_secs(30)) {
        Ok(Err(e)) => e,
        got => panic!("the reclaim must fail within its deadline, got {got:?}"),
    };
    reclaimer.join().unwrap();
    assert!(matches!(err, PiscesError::ResourceBusy(_)), "{err}");
    assert!(err.to_string().contains("core 2"), "{err}");
    assert!(a.removal_pending(r), "the removal was dropped");
    assert!(
        a.resources().mem.contains(&r),
        "the range left A's partition"
    );
    assert_eq!(in_use(), held + other.len, "zone 0 lost count of the range");

    // A's core leaves guest mode, and the teardown returns A's partition,
    // the range with it, once: a second free of it would fail the teardown.
    drop(ga);
    let partition: u64 = a.resources().mem.iter().map(|m| m.len).sum();
    host.teardown(&a).unwrap();
    let returned = partition + a.mgmt_region.len;
    assert_eq!(in_use(), held + other.len - returned);
}

/// A grant abandoned because the co-kernel's control ring is full is
/// flushed from the enclave's cores before the range goes back. When the
/// only live core never answers, the flush ends at the completion deadline
/// and the range stays in the partition and counted in zone 0, so the
/// enclave's teardown returns it, once, instead of the grant handing it
/// back while the core may still cache it.
#[test]
fn an_aborted_grant_whose_core_never_answers_stays_in_the_partition() {
    let (node, master, ctl) = world();
    let host = master.pisces();
    let req = ResourceRequest::new(vec![CoreId(2)], vec![(ZoneId(0), 64 << 20)]);
    let (a, ka) = master.bring_up_enclave("a", &req).unwrap();
    // A's core is in guest mode and never polls.
    let ga = GuestCore::launch_covirt(Arc::clone(&node), ka, ctl, 2, TlbParams::default()).unwrap();
    let ctrl = a.ctrl().unwrap();
    while ctrl.send(&CtrlMsg::Ping { token: 0 }).is_ok() {}
    let in_use = || node.mem.zone_usage(ZoneId(0)).unwrap().1;
    let (held, before) = (in_use(), a.resources().mem);

    let (done, granted) = std::sync::mpsc::channel();
    let granter = std::thread::spawn({
        let (host, a) = (Arc::clone(host), Arc::clone(&a));
        move || done.send(host.add_memory(&a, ZoneId(0), 2 << 20)).unwrap()
    });
    match granted.recv_timeout(Duration::from_secs(30)) {
        Ok(Err(PiscesError::ResourceBusy(_))) => {}
        got => panic!("the grant must fail on the full ring, got {got:?}"),
    }
    granter.join().unwrap();
    let kept: Vec<_> = a
        .resources()
        .mem
        .into_iter()
        .filter(|m| !before.contains(m))
        .collect();
    assert_eq!(kept.len(), 1, "the aborted range left the partition");
    assert_eq!(
        in_use(),
        held + kept[0].len,
        "zone 0 lost count of the range"
    );

    drop(ga);
    let partition: u64 = a.resources().mem.iter().map(|m| m.len).sum();
    host.teardown(&a).unwrap();
    assert_eq!(in_use(), held + kept[0].len - partition - a.mgmt_region.len);
}

#[test]
fn reclaim_blocks_until_live_cores_flush() {
    let (node, master, ctl) = world();
    let req = ResourceRequest::new(
        vec![CoreId(2), CoreId(3)],
        vec![(ZoneId(0), 64 * 1024 * 1024)],
    );
    let (e, k) = master.bring_up_enclave("r", &req).unwrap();
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

    let range = master
        .pisces()
        .add_memory(&e, ZoneId(0), 2 * 1024 * 1024)
        .unwrap();
    k.poll_ctrl().unwrap();
    master.pisces().process_acks(&e).unwrap();
    // Both cores cache the translation.
    g2.write_u64(range.start.raw(), 1).unwrap();
    g3.write_u64(range.start.raw() + 8, 2).unwrap();

    master.pisces().request_remove_memory(&e, range).unwrap();
    k.poll_ctrl().unwrap();

    let host = Arc::clone(master.pisces());
    let e2 = Arc::clone(&e);
    let reclaim = std::thread::spawn(move || {
        let t0 = std::time::Instant::now();
        loop {
            host.process_acks(&e2).unwrap();
            if !e2.resources().mem.contains(&range) {
                return t0.elapsed();
            }
            assert!(t0.elapsed().as_secs() < 30, "reclaim wedged");
            std::thread::yield_now();
        }
    });
    // Both cores must service their flush NMIs before reclaim finishes.
    while !reclaim.is_finished() {
        g2.poll().unwrap();
        g3.poll().unwrap();
        std::thread::yield_now();
    }
    reclaim.join().unwrap();

    // Each live core's TLB saw exactly one commanded flush — a range
    // flush, since a 2 MiB reclaim sits under the controller's threshold
    // and must not discard the cores' unrelated translations.
    assert_eq!(g2.tlb_stats().range_flushes, 1);
    assert_eq!(g3.tlb_stats().range_flushes, 1);
    assert_eq!(g2.tlb_stats().full_flushes, 0);
    assert_eq!(g3.tlb_stats().full_flushes, 0);
    // And the memory is genuinely gone from both the EPT and the host.
    let vctx = ctl.context(e.id.0).unwrap();
    assert!(vctx
        .ept
        .as_ref()
        .unwrap()
        .translate(
            covirt_suite::simhw::addr::GuestPhysAddr::new(range.start.raw()),
            Access::Read,
            &DirectLoad(&node.mem)
        )
        .is_err());
}

#[test]
fn xemem_attach_detach_under_covirt_with_live_consumer() {
    let (node, master, ctl) = world();
    let mk_req =
        |c: usize| ResourceRequest::new(vec![CoreId(c)], vec![(ZoneId(0), 64 * 1024 * 1024)]);
    let (e1, _k1) = master.bring_up_enclave("prod", &mk_req(2)).unwrap();
    let (e2, k2) = master.bring_up_enclave("cons", &mk_req(3)).unwrap();
    let mut g2 = GuestCore::launch_covirt(
        Arc::clone(&node),
        Arc::clone(&k2),
        Arc::clone(&ctl),
        3,
        TlbParams::default(),
    )
    .unwrap();

    let r1 = e1.resources().mem[0];
    let seg = PhysRange::new(r1.start.add(r1.len - 2 * 1024 * 1024), 2 * 1024 * 1024);
    master.export_segment(e1.id.0, "ring", seg).unwrap();
    master.attach_segment(e2.id.0, "ring").unwrap();
    g2.write_u64(seg.start.raw(), 0x77).unwrap();
    assert_eq!(g2.read_u64(seg.start.raw()).unwrap(), 0x77);

    // Detach while the consumer core is live: the controller unmaps and
    // flushes through the command queue.
    let master2 = Arc::clone(&master);
    let who = e2.id.0;
    let detach = std::thread::spawn(move || master2.detach_segment(who, "ring").unwrap());
    while !detach.is_finished() {
        g2.poll().unwrap();
        std::thread::yield_now();
    }
    detach.join().unwrap();
    let stats = g2.tlb_stats();
    assert!(
        stats.full_flushes + stats.range_flushes >= 1,
        "detach must flush the consumer"
    );
    // A post-detach access through the stale path is contained.
    let fault = covirt_suite::kitten::faults::stale_shared_mapping(&k2, seg);
    match g2.execute_fault(fault) {
        covirt_suite::covirt::exec::FaultOutcome::Contained(_) => {}
        o => panic!("expected containment, got {o:?}"),
    }
}

#[test]
fn ept_uses_large_pages_for_enclave_memory() {
    let (_node, master, ctl) = world();
    let req = ResourceRequest::new(vec![CoreId(2)], vec![(ZoneId(0), 64 * 1024 * 1024)]);
    let (e, _k) = master.bring_up_enclave("lp", &req).unwrap();
    let vctx = ctl.context(e.id.0).unwrap();
    let (c4k, c2m, c1g) = vctx.ept.as_ref().unwrap().leaf_counts().unwrap();
    // 64 MiB of 2 MiB-aligned memory coalesces into 32 large pages; only
    // the management region — the boot-parameter page, then the control
    // channel — needs 4 KiB entries.
    assert_eq!(c2m + c1g * 512, 32, "enclave memory must coalesce");
    let region_pages = (PAGE_SIZE_4K + CtrlChannel::required_bytes()) / PAGE_SIZE_4K;
    assert_eq!(region_pages, 5);
    assert_eq!(e.mgmt_region.len, region_pages * PAGE_SIZE_4K);
    assert_eq!(c4k, region_pages, "management region maps with 4 KiB pages");
    // The EPT's root, PDPT, PD and the region's PT, and the core's queue.
    assert_eq!(ctl.frames_outstanding(), 4 + 1);
}

/// The enclave→host ring's cursors are the co-kernel's to write. A tail
/// pushed 2^16 past the head over a ring full of well-formed messages
/// must not make one host call handle 2^16 of them: the host takes at
/// most one ring's worth, and refuses a cursor that claims more.
#[test]
fn a_scribbled_ring_cursor_costs_the_host_at_most_one_ring_of_messages() {
    let (node, master, _ctl) = world();
    let req = ResourceRequest::new(vec![CoreId(2)], vec![(ZoneId(0), 64 * 1024 * 1024)]);
    let (e, k) = master.bring_up_enclave("c", &req).unwrap();
    let pisces = master.pisces();
    for token in 0..CTRL_SLOTS {
        k.ctrl().send(&CtrlMsg::PingAck { token }).unwrap();
    }
    assert_eq!(pisces.process_acks(&e).unwrap().len() as u64, CTRL_SLOTS);

    let to_host = k.params.ctrlchan_base + k.params.ctrlchan_len / 2;
    let tail = HostPhysAddr::new(to_host + 24); // the ring header's tail word
    node.mem
        .write_u64(tail, node.mem.read_u64(tail).unwrap() + (1 << 16))
        .unwrap();
    let handled = pisces.process_acks(&e).map_or(0, |h| h.len() as u64);
    assert!(handled <= CTRL_SLOTS, "{handled} handled");
}

/// A co-kernel that corrupts its own enclave→host ring fails its enclave
/// and nothing else. The host fails the culprit down the one fault path —
/// Covirt files the report, Hobbes tells the enclave that shares the
/// culprit's memory, Pisces reclaims it once, its memory and pool frames
/// back — and reads its ring no more. The trace audits as a contained
/// fault, not an orphan teardown, and a bystander keeps its partition and
/// its EPT.
#[test]
fn a_corrupt_control_ring_fails_its_enclave_and_nothing_else() {
    struct Told(Mutex<Vec<(u64, u64)>>);
    impl HobbesHooks for Told {
        fn on_dependency_failed(&self, dependent: u64, failed: u64) {
            self.0.lock().unwrap().push((dependent, failed));
        }
    }
    let (node, master, ctl) = world();
    node.recorder().set_enabled(true);
    let told = Arc::new(Told(Mutex::new(Vec::new())));
    master.register_hooks(Arc::clone(&told) as Arc<dyn HobbesHooks>);
    let pisces = master.pisces();
    let req = |core| ResourceRequest::new(vec![CoreId(core)], vec![(ZoneId(0), 64 * 1024 * 1024)]);
    let (bystander, _) = master.bring_up_enclave("bystander", &req(3)).unwrap();
    let bystander_vctx = ctl.context(bystander.id.0).unwrap();
    let bystander_view = || {
        (
            bystander.state(),
            bystander.resources(),
            bystander_vctx.ept.as_ref().unwrap().leaf_counts().unwrap(),
        )
    };
    let bystander_before = bystander_view();
    let usage = || {
        (
            node.mem.zone_usage(ZoneId(0)).unwrap(),
            ctl.frames_outstanding(),
        )
    };
    let before = usage();

    let (sharer, _) = master.bring_up_enclave("sharer", &req(4)).unwrap();
    let (culprit, k) = master.bring_up_enclave("culprit", &req(2)).unwrap();
    let seg = PhysRange::new(culprit.resources().mem[0].start, 2 * 1024 * 1024);
    master.export_segment(culprit.id.0, "seg", seg).unwrap();
    master.attach_segment(sharer.id.0, "seg").unwrap();
    let to_host = k.params.ctrlchan_base + k.params.ctrlchan_len / 2;
    let tail = HostPhysAddr::new(to_host + 24); // the ring header's tail word
    node.mem
        .write_u64(tail, node.mem.read_u64(tail).unwrap() + (1 << 16))
        .unwrap();
    assert!(pisces.process_acks(&culprit).is_err());
    match culprit.state() {
        EnclaveState::Failed(why) => assert!(why.contains("control channel"), "{why}"),
        state => panic!("the culprit is {state:?}"),
    }
    let filed = ctl.faults.for_enclave(culprit.id.0);
    assert_eq!(filed.len(), 1, "{filed:?}");
    assert!(filed[0].reason.contains("control channel"), "{filed:?}");
    assert_eq!(filed[0].reclaim, Some(Ok(())));
    let notices = master.notices.drain();
    assert_eq!(notices.len(), 1, "{notices:?}");
    assert_eq!(
        (notices[0].dependent, notices[0].failed),
        (sharer.id.0, culprit.id.0)
    );
    assert_eq!(*told.0.lock().unwrap(), [(sharer.id.0, culprit.id.0)]);
    assert_eq!(sharer.state(), EnclaveState::Running);

    let failed = usage();
    for _ in 0..2 {
        let again = pisces.process_acks(&culprit);
        assert!(
            matches!(again, Err(PiscesError::BadState { .. })),
            "{again:?}"
        );
    }
    assert_eq!(usage(), failed, "reclaimed once");
    assert_eq!(ctl.faults.for_enclave(culprit.id.0).len(), 1);
    let audit = audit_trace(&node);
    assert!(
        audit
            .violations
            .iter()
            .all(|v| v.kind != ViolationKind::OrphanTeardown),
        "{}",
        audit.render()
    );
    assert!(
        audit
            .violations
            .iter()
            .any(|v| v.kind == ViolationKind::ProtectionFault && v.enclave == Some(culprit.id.0)),
        "{}",
        audit.render()
    );
    // With its sharer gone too, everything the culprit held is back.
    pisces.teardown(&sharer).unwrap();
    assert_eq!(usage(), before);
    assert_eq!(bystander_view(), bystander_before);
}

/// The boot-parameter page holds the largest record the node can
/// describe: every core the host can give and a region in each zone. A
/// request whose record the page cannot hold is refused with nothing kept:
/// memory, pool frames, cores and vectors are all back.
#[test]
fn the_boot_page_holds_the_largest_record_the_node_describes() {
    let (node, master, ctl) = world();
    let topo = &node.topology;
    // Core 0 is the host's; the request takes every vector as well.
    let cores: Vec<_> = (1..topo.total_cores()).map(CoreId).collect();
    let zones = (0..topo.zones)
        .map(|z| (ZoneId(z), 4 * 1024 * 1024))
        .collect();
    let mut everything = ResourceRequest::new(cores, zones);
    everything.num_ipi_vectors = (VECTOR_POOL_LAST - VECTOR_POOL_FIRST) as usize + 1;
    let (e, k) = master.bring_up_enclave("everything", &everything).unwrap();
    assert_eq!(k.params.cores.len(), topo.total_cores() - 1);
    assert_eq!(k.params.mem_regions.len(), topo.zones);
    master.pisces().teardown(&e).unwrap();

    let state = || {
        (
            node.mem.zone_usage(ZoneId(0)).unwrap(),
            node.mem.zone_usage(ZoneId(1)).unwrap(),
            ctl.frames_outstanding(),
        )
    };
    let before = state();
    // 256 (start, len) pairs are a page on their own.
    let overflow = ResourceRequest::new(vec![CoreId(1)], vec![(ZoneId(0), PAGE_SIZE_4K); 256]);
    let refused = master.bring_up_enclave("overflow", &overflow).err();
    assert_eq!(state(), before);
    // The cores and vectors are back: the request for all of them boots,
    // its boot page where the refused record would have begun.
    let (e, _) = master.bring_up_enclave("everything", &everything).unwrap();
    match refused {
        Some(HobbesError::Pisces(PiscesError::Hw(HwError::UnbackedPhys(at)))) => {
            assert_eq!(at, e.mgmt_region.start, "refused for another record")
        }
        other => panic!("a record past its page was not refused for it: {other:?}"),
    }
    master.pisces().teardown(&e).unwrap();
}

/// Sends a `RemoveMemAck` of the range `forged` makes of the boot region,
/// with no removal outstanding: the host must refuse it before any hook
/// runs, and the partition, the EPT and zone 0's use stay as they were.
fn forged_removal_ack_is_refused(forged: impl Fn(PhysRange) -> (u64, u64)) {
    let (node, master, ctl) = world();
    let req = ResourceRequest::new(vec![CoreId(2)], vec![(ZoneId(0), 64 * 1024 * 1024)]);
    let (e, k) = master.bring_up_enclave("f", &req).unwrap();
    let vctx = ctl.context(e.id.0).unwrap();
    let ept = vctx.ept.as_ref().unwrap();
    let view = || {
        (
            e.resources(),
            ept.leaf_counts(),
            node.mem.zone_usage(ZoneId(0)),
        )
    };
    let before = view();
    let (start, len) = forged(before.0.mem[0]);
    k.ctrl()
        .send(&CtrlMsg::RemoveMemAck { start, len })
        .unwrap();
    let acked = master.pisces().process_acks(&e);
    assert!(acked.is_err(), "{acked:?}");
    assert_eq!(view(), before);
}

/// A removal acknowledgement whose range wraps the address space reaches
/// no hook: a range built from the co-kernel's words never does.
#[test]
fn an_acknowledged_removal_of_a_wrapping_range_is_refused() {
    forged_removal_ack_is_refused(|_| (u64::MAX - 4095, 8192));
}

/// A co-kernel that acknowledges the removal of its own boot region, which
/// the host never asked for, keeps it: nothing leaves the partition, the
/// EPT or the zone.
#[test]
fn an_acknowledged_removal_the_host_did_not_request_is_refused() {
    forged_removal_ack_is_refused(|boot| (boot.start.raw(), boot.len));
}

/// The co-kernel's inbound ring lies in its management region, which it
/// can write: a message scribbled there whose range wraps the address
/// space is refused by its own kernel as an error — not an overflow inside
/// the page-table code — and the kernel serves the next grant.
#[test]
fn a_wrapping_range_in_the_inbound_ring_is_an_error_not_a_panic() {
    let (_node, master, _ctl) = world();
    let req = ResourceRequest::new(vec![CoreId(2)], vec![(ZoneId(0), 64 * 1024 * 1024)]);
    let (e, k) = master.bring_up_enclave("w", &req).unwrap();
    let inbound = e.ctrl().unwrap();
    let top = !0xfff_u64;
    for scribbled in [
        CtrlMsg::AddMem {
            start: top,
            len: 0x2000,
        },
        CtrlMsg::RemoveMem {
            start: top,
            len: 0x2000,
        },
    ] {
        inbound.send(&scribbled).unwrap();
        assert!(k.poll_ctrl().is_err(), "{scribbled:?} was not refused");
    }
    let pisces = master.pisces();
    let range = pisces.add_memory(&e, ZoneId(0), 2 * 1024 * 1024).unwrap();
    assert_eq!(k.poll_ctrl().unwrap().len(), 1);
    assert!(k.memmap().contains(range.start, range.len));
    pisces.teardown(&e).unwrap();
}

/// A boot page whose regions wrap the address space does not boot: the
/// kernel reports bad parameters for each range it decodes.
#[test]
fn a_boot_page_with_a_wrapping_range_does_not_boot() {
    use covirt_suite::kitten::{KittenError, KittenKernel};
    use covirt_suite::pisces::boot::BootParams;

    let (node, master, _ctl) = world();
    let req = ResourceRequest::new(vec![CoreId(2)], vec![(ZoneId(0), 64 * 1024 * 1024)]);
    let e = master.pisces().create_enclave("b", &req).unwrap();
    let page = e
        .mgmt()
        .sub(PhysRange::new(e.mgmt_region.start, PAGE_SIZE_4K));
    let page = page.unwrap();
    let good = BootParams::read_from(&page, e.params_addr()).unwrap();
    const WRAP: (u64, u64) = (!0xfff, 0x2000);
    let scribbles: [fn(&mut BootParams); 3] = [
        |p| p.mem_regions[0] = WRAP,
        |p| p.pt_pool = WRAP,
        |p| (p.ctrlchan_base, p.ctrlchan_len) = WRAP,
    ];
    for scribble in scribbles {
        let mut params = good.clone();
        scribble(&mut params);
        params.write_to(&page, e.params_addr()).unwrap();
        let booted = KittenKernel::boot(&node.mem, e.params_addr());
        assert!(
            matches!(booted, Err(KittenError::BadBootParams)),
            "{:?}",
            booted.err()
        );
    }
    master.pisces().teardown(&e).unwrap();
}
