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

/// A Covirt core its thread lets go of after an orderly teardown, without
/// `shutdown`, still leaves VMX operation: the next enclave on the core
/// launches. (A core left in VMX refused the next VMXON.)
#[test]
fn a_dropped_core_leaves_vmx_for_the_next_enclave() {
    let node = SimNode::new(NodeConfig::small());
    let master = MasterControl::new(Arc::clone(&node));
    let ctl = CovirtController::new(Arc::clone(&node), CovirtConfig::MEM);
    ctl.attach_hobbes(&master);
    let req = ResourceRequest::new(vec![CoreId(1)], vec![(ZoneId(0), 64 * 1024 * 1024)]);
    let launch = |kernel| {
        GuestCore::launch_covirt(
            Arc::clone(&node),
            kernel,
            Arc::clone(&ctl),
            1,
            TlbParams::default(),
        )
    };
    let (first, kernel) = master.bring_up_enclave("first", &req).unwrap();
    let mut g = launch(kernel).unwrap();
    g.poll().unwrap();
    master.pisces().teardown(&first).unwrap();
    drop(g);

    let (_second, kernel) = master.bring_up_enclave("second", &req).unwrap();
    let mut g = launch(kernel).expect("the second enclave's core launches");
    g.poll().unwrap();
    g.shutdown();
}
