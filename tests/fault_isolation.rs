//! The fault-isolation matrix (Section V): every injected bug class,
//! native vs Covirt, asserting the paper's containment claims.

use covirt_suite::covirt::config::CovirtConfig;
use covirt_suite::covirt::exec::FaultOutcome;
use covirt_suite::covirt::{CovirtController, ExecMode, GuestCore};
use covirt_suite::hobbes::MasterControl;
use covirt_suite::kitten::faults;
use covirt_suite::kitten::KittenKernel;
use covirt_suite::pisces::resources::ResourceRequest;
use covirt_suite::pisces::{Enclave, EnclaveState};
use covirt_suite::simhw::node::{NodeConfig, SimNode};
use covirt_suite::simhw::tlb::TlbParams;
use covirt_suite::simhw::topology::{CoreId, ZoneId};
use covirt_suite::workloads::env::LiveCores;
use std::sync::Arc;

struct Lab {
    node: Arc<SimNode>,
    master: Arc<MasterControl>,
    controller: Option<Arc<CovirtController>>,
}

impl Lab {
    fn new(mode: ExecMode) -> Lab {
        let node = SimNode::new(NodeConfig::paper_testbed());
        let master = MasterControl::new(Arc::clone(&node));
        let controller = mode.config().map(|cfg| {
            let c = CovirtController::new(Arc::clone(&node), cfg);
            c.attach_hobbes(&master);
            c
        });
        Lab {
            node,
            master,
            controller,
        }
    }

    fn enclave(&self, core: usize) -> (Arc<Enclave>, Arc<KittenKernel>, GuestCore) {
        let req = ResourceRequest::new(vec![CoreId(core)], vec![(ZoneId(0), 96 * 1024 * 1024)]);
        let (e, k) = self.master.bring_up_enclave("fi", &req).expect("bring-up");
        let g = match &self.controller {
            Some(c) => GuestCore::launch_covirt(
                Arc::clone(&self.node),
                Arc::clone(&k),
                Arc::clone(c),
                core,
                TlbParams::default(),
            )
            .unwrap(),
            None => GuestCore::launch_native(
                Arc::clone(&self.node),
                Arc::clone(&k),
                core,
                TlbParams::default(),
            )
            .unwrap(),
        };
        (e, k, g)
    }
}

#[test]
fn off_by_one_contained_only_under_covirt() {
    // Native: escapes (corrupts or crashes). Covirt: contained, enclave dead,
    // neighbours alive.
    let lab = Lab::new(ExecMode::Native);
    let (_e, k, mut g) = lab.enclave(2);
    match g.execute_fault(faults::off_by_one_region(&k)) {
        FaultOutcome::CorruptedMemory { .. } | FaultOutcome::NodeCrash(_) => {}
        o => panic!("native must escape, got {o:?}"),
    }

    let lab = Lab::new(ExecMode::Covirt(CovirtConfig::MEM));
    let (e, k, mut g) = lab.enclave(2);
    let (e2, _k2, mut g2) = lab.enclave(3); // innocent neighbour
    match g.execute_fault(faults::off_by_one_region(&k)) {
        FaultOutcome::Contained(r) => assert!(r.contains("EPT violation")),
        o => panic!("covirt must contain, got {o:?}"),
    }
    assert!(matches!(e.state(), EnclaveState::Failed(_)));
    // The neighbour is untouched and still runs.
    assert_eq!(e2.state(), EnclaveState::Running);
    let mut cursor = 0;
    let a = g2.kernel().alloc_contiguous(4096, &mut cursor).unwrap();
    g2.write_u64(a, 7).unwrap();
    assert_eq!(g2.read_u64(a).unwrap(), 7);
    // And the fault was logged for the operator.
    assert_eq!(
        lab.controller
            .as_ref()
            .unwrap()
            .faults
            .for_enclave(e.id.0)
            .len(),
        1
    );
}

#[test]
fn native_wild_write_actually_corrupts_victim() {
    // The scary baseline: natively, the off-by-one lands in the next
    // allocation and changes its bytes without anyone noticing.
    let lab = Lab::new(ExecMode::Native);
    let (_e, k, mut g) = lab.enclave(2);
    // Place a victim page right after the enclave's memory.
    let last = k.memmap().regions().last().unwrap().range;
    let victim = lab
        .node
        .mem
        .alloc_backed(ZoneId(0), 4096, covirt_suite::simhw::addr::PAGE_SIZE_4K)
        .unwrap();
    if victim.start != last.end() {
        // Allocator placed it elsewhere; nothing to assert deterministically.
        return;
    }
    lab.node.mem.write_u64(victim.start, 0x600D_600D).unwrap();
    match g.execute_fault(faults::off_by_one_region(&k)) {
        FaultOutcome::CorruptedMemory { addr } => {
            assert_eq!(addr.align_down(4096), victim.start);
            let now = lab.node.mem.read_u64(victim.start).unwrap();
            assert_ne!(now, 0x600D_600D, "victim data must have been clobbered");
        }
        o => panic!("expected corruption, got {o:?}"),
    }
}

#[test]
fn errant_ipi_matrix() {
    // Native: delivered. Covirt+IPI: dropped. Covirt memory-only: delivered
    // (feature off — the modularity trade-off is real).
    let cases = [
        (ExecMode::Native, false),
        (ExecMode::Covirt(CovirtConfig::MEM), false),
        (ExecMode::Covirt(CovirtConfig::MEM_IPI), true),
        (ExecMode::Covirt(CovirtConfig::MEM_IPI_PIV), true),
    ];
    for (mode, blocked) in cases {
        let lab = Lab::new(mode);
        let (_e, _k, mut g) = lab.enclave(2);
        let outcome = g.execute_fault(faults::errant_ipi(0, 0x2f));
        if blocked {
            assert_eq!(outcome, FaultOutcome::IpiBlocked, "{mode}");
        } else {
            assert_eq!(
                outcome,
                FaultOutcome::IpiDelivered {
                    victim: 0,
                    vector: 0x2f
                },
                "{mode}"
            );
        }
    }
}

#[test]
fn stale_xemem_mapping_contained_after_flush_protocol() {
    // The paper's anecdote end-to-end with a live guest core: grant →
    // touch (cache in TLB) → reclaim (controller flushes via NMI) → buggy
    // stale access → contained.
    let lab = Lab::new(ExecMode::Covirt(CovirtConfig::MEM));
    let (e, k, mut g) = lab.enclave(2);
    let range = lab
        .master
        .pisces()
        .add_memory(&e, ZoneId(0), 2 * 1024 * 1024)
        .unwrap();
    k.poll_ctrl().unwrap();
    lab.master.pisces().process_acks(&e).unwrap();
    g.write_u64(range.start.raw(), 0xAA).unwrap(); // warm the TLB

    lab.master
        .pisces()
        .request_remove_memory(&e, range)
        .unwrap();
    k.poll_ctrl().unwrap(); // guest acks removal
    let host = Arc::clone(lab.master.pisces());
    let e2 = Arc::clone(&e);
    let reclaim = std::thread::spawn(move || {
        for _ in 0..2_000_000 {
            host.process_acks(&e2).unwrap();
            if !e2.resources().mem.contains(&range) {
                return true;
            }
            std::thread::yield_now();
        }
        false
    });
    while !reclaim.is_finished() {
        g.poll().unwrap();
        std::thread::yield_now();
    }
    assert!(reclaim.join().unwrap(), "reclaim must complete");

    let fault = faults::stale_shared_mapping(&k, range);
    match g.execute_fault(fault) {
        FaultOutcome::Contained(r) => assert!(r.contains("EPT violation")),
        o => panic!("stale access must be contained, got {o:?}"),
    }
}

#[test]
fn dependent_enclaves_notified_not_crashed() {
    let lab = Lab::new(ExecMode::Covirt(CovirtConfig::MEM));
    let (e1, k1, mut g1) = lab.enclave(2);
    let (e2, k2, mut g2) = lab.enclave(3);
    // Share a segment from e1 to e2.
    let r1 = e1.resources().mem[0];
    let seg = covirt_suite::simhw::addr::PhysRange::new(
        r1.start.add(r1.len - 2 * 1024 * 1024),
        2 * 1024 * 1024,
    );
    lab.master.export_segment(e1.id.0, "x", seg).unwrap();
    lab.master.attach_segment(e2.id.0, "x").unwrap();
    g2.write_u64(seg.start.raw(), 1).unwrap(); // consumer uses it

    // Producer faults. Its segment is revoked before its memory is freed,
    // which waits on the consumer's core: that core keeps running.
    let consumer = LiveCores::adopt(vec![g2], |_| {}, |_| {});
    let outcome = g1.execute_fault(faults::off_by_one_region(&k1));
    assert!(matches!(outcome, FaultOutcome::Contained(_)));
    consumer.stop();
    // Consumer is running and was told.
    assert_eq!(e2.state(), EnclaveState::Running);
    let notices = lab.master.notices.drain();
    assert_eq!(notices.len(), 1);
    assert_eq!(notices[0].dependent, e2.id.0);
    assert_eq!(notices[0].failed, e1.id.0);
    // The consumer's kernel still translates the shared segment (its own
    // cleanup runs later; with Covirt that is safe, not fatal).
    assert!(k2.translate(seg.start.raw()).is_ok());
}

/// The paper's motivating bug with the roles reversed: it is the *owner*
/// of a shared segment that dies, while an attacher still maps it, and the
/// owner's memory is handed to somebody else. One table over what Covirt
/// buys: natively the attacher's stale mapping writes into the heir;
/// under memory protection the attacher's EPT lost the segment before the
/// memory was freed, and the stale write is an EPT violation.
#[test]
fn dead_owners_segment_is_unreachable_once_its_memory_is_regranted() {
    use covirt_suite::hobbes::HobbesError;
    use covirt_suite::kitten::faults::InjectedFault;
    use covirt_suite::simhw::addr::{GuestPhysAddr, PhysRange, PAGE_SIZE_2M};
    use covirt_suite::simhw::paging::{Access, DirectLoad};
    use covirt_suite::xemem::XememError;
    const EARLY: u64 = 0xea71;
    const HEIR: u64 = 0x4e12;

    for mode in [ExecMode::Native, ExecMode::Covirt(CovirtConfig::MEM)] {
        let lab = Lab::new(mode);
        let pisces = lab.master.pisces();
        let in_use = || lab.node.mem.zone_usage(ZoneId(0)).unwrap().1;
        let frames = || {
            let ctl = lab.controller.as_ref();
            ctl.map_or(0, |c| c.ept_frames_outstanding())
        };
        // One lifecycle first, so the node's EPT pool (reserved at the
        // first protected boot, kept for good) is part of the baseline.
        let (warm, _k, g) = lab.enclave(2);
        g.shutdown();
        pisces.teardown(&warm).unwrap();
        let (idle, frames_idle) = (in_use(), frames());

        // `late` is the owner's neighbour in memory: natively the owner's
        // wild write lands in its page tables, and it needs none.
        let (owner, ko, mut go) = lab.enclave(2);
        let (late, _kl, gl) = lab.enclave(4);
        let (early, ke, mut ge) = lab.enclave(3);
        let owned = owner.resources().mem[0];
        let seg = PhysRange::new(owned.start.add(owned.len - PAGE_SIZE_2M), PAGE_SIZE_2M);
        lab.master.export_segment(owner.id.0, "x", seg).unwrap();
        lab.master.attach_segment(early.id.0, "x").unwrap();
        // What `early`'s kernel will do once its mapping is stale.
        let stale = faults::stale_shared_mapping(&ke, seg);
        let InjectedFault::WildAccess { addr: target, .. } = stale else {
            panic!("{mode}: {stale:?}");
        };
        // `early` uses the segment, then keeps running on a live core.
        ge.write_u64(seg.start.raw(), EARLY).unwrap();
        let flushes = ge.tlb_stats().range_flushes;
        let early_core = LiveCores::adopt(vec![ge], |_| {}, |_| {});

        // The owner faults. Natively nothing notices (the write lands in
        // its neighbour) and the operator ends it by hand.
        let outcome = go.execute_fault(faults::off_by_one_region(&ko));
        match mode {
            ExecMode::Native => {
                assert!(matches!(outcome, FaultOutcome::CorruptedMemory { .. }));
                let failed = lab.master.handle_enclave_failure(owner.id.0, "operator");
                failed.unwrap();
            }
            ExecMode::Covirt(_) => assert!(matches!(outcome, FaultOutcome::Contained(_))),
        }
        assert!(matches!(owner.state(), EnclaveState::Failed(_)), "{mode}");
        let mut ge = early_core.stop().pop().unwrap();
        let told = lab.master.notices.drain();
        let told: Vec<(u64, u64)> = told.iter().map(|n| (n.dependent, n.failed)).collect();
        assert_eq!(told, [(early.id.0, owner.id.0)], "{mode}");

        // The very same memory goes to an heir, which puts its own data
        // where `early` still believes the segment is.
        go.shutdown();
        let (heir, _kh, mut gh) = lab.enclave(2);
        assert_eq!(heir.resources().mem[0], owned, "{mode}: the test's premise");
        gh.write_u64(target.raw(), HEIR).unwrap();

        // The dead owner's name resolves to nothing.
        match lab.master.attach_segment(late.id.0, "x") {
            Err(HobbesError::Xemem(XememError::NoSuchName(_))) => {}
            other => panic!("{mode}: attached to a dead owner's segment: {other:?}"),
        }
        let marker = || lab.node.mem.read_u64(target).unwrap();
        match &lab.controller {
            None => {
                // What Covirt buys: natively the stale write lands.
                let outcome = ge.execute_fault(stale);
                assert!(
                    matches!(outcome, FaultOutcome::CorruptedMemory { .. }),
                    "{outcome:?}"
                );
                assert_ne!(marker(), HEIR, "native stale write must land in the heir");
                assert_eq!(early.state(), EnclaveState::Running);
                ge.shutdown();
                let failed = lab.master.handle_enclave_failure(early.id.0, "operator");
                failed.unwrap();
            }
            Some(ctl) => {
                let ept = ctl.context(early.id.0).unwrap().ept.clone().unwrap();
                let gpa = GuestPhysAddr::new(target.raw());
                let walk = ept.translate(gpa, Access::Write, &DirectLoad(&lab.node.mem));
                assert!(
                    walk.is_err(),
                    "early's EPT still maps the segment: {walk:?}"
                );
                // Its live core acknowledged the shootdown before the
                // owner's memory was freed.
                assert_eq!(ge.tlb_stats().range_flushes, flushes + 1);
                assert!(
                    ke.translate(target.raw()).is_ok(),
                    "its kernel's belief is stale"
                );
                match ge.execute_fault(stale) {
                    FaultOutcome::Contained(r) => assert!(r.contains("EPT violation"), "{r}"),
                    o => panic!("the stale write must be contained, got {o:?}"),
                }
                assert_eq!(marker(), HEIR, "the heir's data must be intact");
                assert!(matches!(early.state(), EnclaveState::Failed(_)));
                drop(ge);
            }
        }
        // `early` shared with nobody by the time it ended: no notice goes
        // out, least of all to the dead owner.
        let told = lab.master.notices.drain();
        assert!(told.is_empty(), "{mode}: told the dead: {told:?}");

        // Everything goes back, once.
        gh.shutdown();
        gl.shutdown();
        for e in [&heir, &late] {
            pisces.teardown(e).unwrap();
        }
        assert!(pisces.enclaves().is_empty(), "{mode}");
        assert_eq!(in_use(), idle, "{mode}: leaked bytes");
        assert_eq!(frames(), frames_idle, "{mode}: EPT frames outstanding");
    }
}

/// Physical memory is one linear map, so a frame the host reclaimed is
/// real memory with a next owner, not an orphaned allocation. A core of
/// enclave `a` writes a granted range; the host reclaims it and grants the
/// same range to `b`. (a) Between the two the range is unpopulated: a
/// resolve is `UnbackedPhys`. (b) Natively `a`'s stale TLB entry still
/// points at those bytes, so its write lands in `b`'s memory and `b` reads
/// it — the corruption Covirt exists to prevent. (c) Under memory
/// protection the reclaim's shootdown dropped that entry and `a`'s EPT no
/// longer maps the range: the write is an EPT violation and `b` reads the
/// zeros the reclaim left.
#[test]
fn a_reclaimed_frame_is_real_memory_not_an_orphan() {
    use covirt_suite::covirt::exec::FaultOutcome::{Contained, CorruptedMemory};
    use covirt_suite::simhw::addr::PAGE_SIZE_2M;
    use covirt_suite::simhw::HwError;

    for mode in [ExecMode::Native, ExecMode::Covirt(CovirtConfig::MEM)] {
        let lab = Lab::new(mode);
        let pisces = lab.master.pisces();
        let (a, ka, mut ga) = lab.enclave(2);
        let (b, kb, mut gb) = lab.enclave(3);
        let range = pisces.add_memory(&a, ZoneId(0), PAGE_SIZE_2M).unwrap();
        ka.poll_ctrl().unwrap();
        pisces.process_acks(&a).unwrap();
        let target = range.start.add(range.len / 2);
        ga.write_u64(target.raw(), 0xa).unwrap();

        // The reclaim, against `a`'s live core.
        let live = LiveCores::adopt(vec![ga], |_| {}, |_| {});
        pisces.request_remove_memory(&a, range).unwrap();
        ka.poll_ctrl().unwrap();
        pisces.process_acks(&a).unwrap();
        let mut ga = live.stop().pop().unwrap();
        assert_eq!(
            lab.node.mem.resolve(target, 8).map(|_| ()),
            Err(HwError::UnbackedPhys(target)),
            "{mode}: (a) a reclaimed range resolves to nothing"
        );

        let regranted = pisces.add_memory(&b, ZoneId(0), PAGE_SIZE_2M).unwrap();
        kb.poll_ctrl().unwrap();
        pisces.process_acks(&b).unwrap();
        assert_eq!(regranted, range, "{mode}: the test's premise");
        let stale = faults::stale_shared_mapping(&ka, range);
        match (mode, ga.execute_fault(stale)) {
            (ExecMode::Native, CorruptedMemory { addr }) => {
                assert_eq!(addr, target);
                assert_eq!(
                    gb.read_u64(target.raw()).unwrap(),
                    0xDEAD_BEEF_DEAD_BEEF,
                    "(b) the stale write must land in the next owner's memory"
                );
            }
            (ExecMode::Covirt(_), Contained(reason)) => {
                assert!(reason.contains("EPT violation"), "{reason}");
                assert_eq!(gb.read_u64(target.raw()).unwrap(), 0, "(c) b reads zeros");
            }
            (_, outcome) => panic!("{mode}: {outcome:?}"),
        }
    }
}

#[test]
fn msr_and_io_protection_full_config() {
    let lab = Lab::new(ExecMode::Covirt(CovirtConfig::FULL));
    let (_e, _k, mut g) = lab.enclave(2);
    g.wrmsr(covirt_suite::simhw::msr::IA32_MC0_CTL, 0xbad)
        .unwrap();
    assert_eq!(
        lab.node
            .cpu(CoreId(2))
            .unwrap()
            .msrs
            .read(covirt_suite::simhw::msr::IA32_MC0_CTL),
        0,
        "machine-check MSR write must be blocked"
    );
    g.io_write(covirt_suite::simhw::ioport::PORT_KBD_RESET, 0xfe)
        .unwrap();
    assert_eq!(
        lab.node
            .ioports
            .write_count(covirt_suite::simhw::ioport::PORT_KBD_RESET),
        0,
        "reset-port write must be blocked"
    );
    // Benign accesses pass through unchanged.
    g.wrmsr(covirt_suite::simhw::msr::IA32_FS_BASE, 0x1000)
        .unwrap();
    assert_eq!(
        lab.node
            .cpu(CoreId(2))
            .unwrap()
            .msrs
            .read(covirt_suite::simhw::msr::IA32_FS_BASE),
        0x1000
    );
    g.io_write(covirt_suite::simhw::ioport::PORT_COM1, b'k' as u32)
        .unwrap();
    assert_eq!(
        lab.node
            .ioports
            .write_count(covirt_suite::simhw::ioport::PORT_COM1),
        1
    );
}

#[test]
fn guest_leaf_larger_than_the_ept_leaf_reaches_only_what_the_ept_mapped() {
    use covirt_suite::covirt::CovirtError;
    use covirt_suite::simhw::addr::{HostPhysAddr, PhysRange, PAGE_SIZE_2M, PAGE_SIZE_4K};
    use covirt_suite::simhw::paging::x86_bits;

    let lab = Lab::new(ExecMode::Covirt(CovirtConfig::MEM));
    let (owner, _ko, mut go) = lab.enclave(2);
    let in_use = |lab: &Lab| lab.node.mem.zone_usage(ZoneId(0)).unwrap().1;
    let before_attacher = in_use(&lab);
    let (attacher, ka, mut ga) = lab.enclave(3);

    // A 4 KiB segment on a 2 MiB boundary well inside the owner's region;
    // the page after it stays the owner's own.
    let region = owner.resources().mem[0];
    let seg = PhysRange::new(
        region.start.align_up(PAGE_SIZE_2M).add(8 * PAGE_SIZE_2M),
        PAGE_SIZE_4K,
    );
    let private = seg.end().raw();
    go.write_u64(seg.start.raw() + 8, 0x5e6).unwrap();
    go.write_u64(private, 0xdead_beef).unwrap();
    lab.master.export_segment(owner.id.0, "seg", seg).unwrap();
    lab.master.attach_segment(attacher.id.0, "seg").unwrap();

    // The attacher rewrites the PDE over the segment as a 2 MiB leaf: its
    // own page tables now claim the owner's whole 2 MiB frame.
    let index = |level: u64| (seg.start.raw() >> (12 + 9 * (level - 1))) & 0x1ff;
    let mut table = ka.page_tables.root().raw();
    for level in [4, 3] {
        table = ga.read_u64(table + index(level) * 8).unwrap() & x86_bits::ADDR;
    }
    let leaf = seg.start.raw() | x86_bits::P | x86_bits::RW | x86_bits::US | x86_bits::PS;
    ga.write_u64(table + index(2) * 8, leaf).unwrap();

    // Inside the segment the EPT agrees, and that walk leaves the segment's
    // 4 KiB EPT leaf in the attacher's walk cache. One page on, the EPT was
    // never asked: the cached leaf covers its own page only, so the touch
    // misses it and the live EPT refuses.
    let walked = ga.counters();
    assert_eq!(ga.read_u64(seg.start.raw() + 8).unwrap(), 0x5e6);
    let cached = ga.counters();
    assert_eq!(
        cached.walk_loads,
        walked.walk_loads + 2,
        "a 4 KiB leaf, walked from the PD page of its GiB the attacher's own walks \
         cached: the PDE and the PTE (4 from the EPT root before PR 25)"
    );
    match ga.read_u64(private) {
        Err(CovirtError::EnclaveTerminated(reason)) => {
            assert!(reason.contains("EPT violation"), "{reason}");
            assert!(reason.contains(&format!("{private:#x} (Read)")), "{reason}");
        }
        other => panic!("the neighbour page must be out of reach, got {other:x?}"),
    }
    assert_eq!(
        ga.counters().walk_cache_misses,
        cached.walk_cache_misses + 1
    );
    assert_eq!(
        lab.node.mem.read_u64(HostPhysAddr::new(private)).unwrap(),
        0xdead_beef
    );
    assert_eq!(owner.state(), EnclaveState::Running);
    assert_eq!(go.read_u64(private).unwrap(), 0xdead_beef);
    // The attacher's partition went back, once.
    assert!(matches!(attacher.state(), EnclaveState::Failed(_)));
    assert!(attacher.resources().mem.is_empty());
    assert_eq!(in_use(&lab), before_attacher);
    let reports = lab
        .controller
        .as_ref()
        .unwrap()
        .faults
        .for_enclave(attacher.id.0);
    assert_eq!(reports.len(), 1);
    assert_eq!(reports[0].reclaim, Some(Ok(())));
}
