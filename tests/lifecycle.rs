//! Full-stack lifecycle: node → Pisces → (Covirt) → Kitten → guest code →
//! teardown, across every execution mode.

use covirt_suite::covirt::config::CovirtConfig;
use covirt_suite::covirt::{CovirtController, ExecMode, GuestCore};
use covirt_suite::hobbes::MasterControl;
use covirt_suite::pisces::resources::ResourceRequest;
use covirt_suite::pisces::EnclaveState;
use covirt_suite::simhw::node::{NodeConfig, SimNode};
use covirt_suite::simhw::tlb::TlbParams;
use covirt_suite::simhw::topology::{CoreId, ZoneId};
use std::sync::Arc;

fn modes() -> Vec<ExecMode> {
    vec![
        ExecMode::Native,
        ExecMode::Covirt(CovirtConfig::NONE),
        ExecMode::Covirt(CovirtConfig::MEM),
        ExecMode::Covirt(CovirtConfig::MEM_IPI),
        ExecMode::Covirt(CovirtConfig::MEM_IPI_PIV),
        ExecMode::Covirt(CovirtConfig::FULL),
    ]
}

#[test]
fn boot_run_teardown_every_mode() {
    for mode in modes() {
        let node = SimNode::new(NodeConfig::paper_testbed());
        let master = MasterControl::new(Arc::clone(&node));
        let controller = mode.config().map(|cfg| {
            let c = CovirtController::new(Arc::clone(&node), cfg);
            c.attach_hobbes(&master);
            c
        });
        let req = ResourceRequest::new(
            vec![CoreId(2), CoreId(3)],
            vec![(ZoneId(0), 96 * 1024 * 1024)],
        );
        let (enclave, kernel) = master.bring_up_enclave("lc", &req).expect("bring-up");
        assert_eq!(enclave.state(), EnclaveState::Running, "{mode}");

        let mut g = match &controller {
            Some(c) => GuestCore::launch_covirt(
                Arc::clone(&node),
                Arc::clone(&kernel),
                Arc::clone(c),
                2,
                TlbParams::default(),
            )
            .unwrap(),
            None => GuestCore::launch_native(
                Arc::clone(&node),
                Arc::clone(&kernel),
                2,
                TlbParams::default(),
            )
            .unwrap(),
        };
        let mut cursor = 0;
        let a = kernel.alloc_contiguous(1024 * 1024, &mut cursor).unwrap();
        for i in 0..512u64 {
            g.write_u64(a + i * 8, i).unwrap();
        }
        let sum: u64 = (0..512u64).map(|i| g.read_u64(a + i * 8).unwrap()).sum();
        assert_eq!(sum, 511 * 512 / 2, "{mode}");
        g.poll().unwrap();
        g.shutdown();

        master.pisces().teardown(&enclave).expect("teardown");
        assert_eq!(enclave.state(), EnclaveState::Terminated, "{mode}");
        // Everything is reusable afterwards.
        let (e2, _k2) = master.bring_up_enclave("lc2", &req).expect("re-create");
        assert_eq!(e2.state(), EnclaveState::Running, "{mode}");
    }
}

#[test]
fn relaunch_core_after_clean_shutdown() {
    let node = SimNode::new(NodeConfig::small());
    let master = MasterControl::new(Arc::clone(&node));
    let ctl = CovirtController::new(Arc::clone(&node), CovirtConfig::MEM);
    ctl.attach_hobbes(&master);
    let req = ResourceRequest::new(vec![CoreId(1)], vec![(ZoneId(0), 64 * 1024 * 1024)]);
    let (_e, kernel) = master.bring_up_enclave("rl", &req).unwrap();
    for round in 0..3 {
        let mut g = GuestCore::launch_covirt(
            Arc::clone(&node),
            Arc::clone(&kernel),
            Arc::clone(&ctl),
            1,
            TlbParams::default(),
        )
        .unwrap_or_else(|e| panic!("relaunch round {round}: {e}"));
        g.poll().unwrap();
        g.shutdown();
    }
}

/// Bring-up resolves once: the host places every boot structure through
/// the window the management region's allocation handed it, so creating,
/// loading and (under Covirt) interposing an enclave searches the zone
/// snapshot not at all; the booting kernel searches twice — the management
/// region, from the parameter address it is handed, and its page-table
/// pool — and the core's first access once. The steady-state cycle is
/// what it was: one search, the core's first touch of the new grant.
#[test]
fn bring_up_searches_the_zone_snapshot_once_per_region() {
    use covirt_suite::kitten::KittenKernel;
    use covirt_suite::simhw::addr::PAGE_SIZE_2M;
    use std::sync::atomic::{AtomicBool, Ordering};

    for mode in [ExecMode::Native, ExecMode::Covirt(CovirtConfig::MEM_IPI)] {
        let node = SimNode::new(NodeConfig::paper_testbed());
        let master = MasterControl::new(Arc::clone(&node));
        let controller = mode.config().map(|cfg| {
            let c = CovirtController::new(Arc::clone(&node), cfg);
            c.attach_hobbes(&master);
            c
        });
        let pisces = master.pisces();
        let searches = || node.mem.zone_stats(ZoneId(0)).unwrap().resolve_misses;
        let mut seen = searches();
        let mut step = |what: &str, expect: u64| {
            let now = searches();
            assert_eq!(now - seen, expect, "{mode}: searches in {what}");
            seen = now;
        };

        let req = ResourceRequest::new(vec![CoreId(2)], vec![(ZoneId(0), 32 * 1024 * 1024)]);
        let enclave = pisces.create_enclave("victim", &req).unwrap();
        step("create_enclave", 0);
        let plan = pisces.launch(&enclave).unwrap();
        step("launch and its hooks", 0);
        let kernel = Arc::new(KittenKernel::boot(&node.mem, plan.pisces_params_addr).unwrap());
        master.register_kernel(enclave.id.0, Arc::clone(&kernel));
        step("KittenKernel::boot", 2);
        let mut g = match &controller {
            Some(c) => GuestCore::launch_covirt(
                Arc::clone(&node),
                Arc::clone(&kernel),
                Arc::clone(c),
                2,
                TlbParams::default(),
            ),
            None => GuestCore::launch_native(
                Arc::clone(&node),
                Arc::clone(&kernel),
                2,
                TlbParams::default(),
            ),
        }
        .unwrap();
        step("core launch", 0);
        let first = kernel.alloc_contiguous(PAGE_SIZE_2M, &mut 0).unwrap();
        g.write_u64(first, 7).unwrap();
        assert_eq!(g.read_u64(first).unwrap(), 7);
        step("first touch", 1);

        // Grant → write → reclaim, the reclaim against the live core.
        let range = pisces
            .add_memory(&enclave, ZoneId(0), PAGE_SIZE_2M)
            .unwrap();
        kernel.poll_ctrl().unwrap();
        pisces.process_acks(&enclave).unwrap();
        g.write_u64(range.start.raw(), 9).unwrap();
        pisces.request_remove_memory(&enclave, range).unwrap();
        kernel.poll_ctrl().unwrap();
        let reclaimed = AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                while !reclaimed.load(Ordering::Acquire) {
                    g.poll().unwrap();
                    std::thread::yield_now();
                }
            });
            let acks = pisces.process_acks(&enclave);
            reclaimed.store(true, Ordering::Release);
            acks.unwrap();
        });
        assert!(!enclave.resources().mem.contains(&range), "{mode}");
        step("grant, write, reclaim", 1);

        g.shutdown();
        pisces.teardown(&enclave).unwrap();
        step("teardown", 0);
    }
}
