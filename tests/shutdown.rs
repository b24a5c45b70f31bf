//! Orderly shutdown protocol and the operator's kill switch, end to end
//! and under Covirt.

use covirt_suite::covirt::config::CovirtConfig;
use covirt_suite::covirt::{CovirtController, GuestCore};
use covirt_suite::hobbes::MasterControl;
use covirt_suite::pisces::ctrlchan::CtrlMsg;
use covirt_suite::pisces::resources::ResourceRequest;
use covirt_suite::pisces::EnclaveState;
use covirt_suite::simhw::cpu::VmxState;
use covirt_suite::simhw::node::{NodeConfig, SimNode};
use covirt_suite::simhw::tlb::TlbParams;
use covirt_suite::simhw::topology::{CoreId, ZoneId};
use std::sync::Arc;

fn world() -> (Arc<SimNode>, Arc<MasterControl>, Arc<CovirtController>) {
    let node = SimNode::new(NodeConfig::small());
    let master = MasterControl::new(Arc::clone(&node));
    let ctl = CovirtController::new(Arc::clone(&node), CovirtConfig::MEM);
    ctl.attach_hobbes(&master);
    (node, master, ctl)
}

#[test]
fn orderly_shutdown_roundtrip() {
    let (_node, master, _ctl) = world();
    let req = ResourceRequest::new(vec![CoreId(1)], vec![(ZoneId(0), 64 * 1024 * 1024)]);
    let (e, k) = master.bring_up_enclave("sd", &req).unwrap();

    // The kernel side polls on a thread; the host runs the sync shutdown.
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let stop2 = Arc::clone(&stop);
    let kernel = Arc::clone(&k);
    let pump = std::thread::spawn(move || {
        while !stop2.load(std::sync::atomic::Ordering::Acquire) {
            kernel.poll_ctrl().unwrap();
            std::thread::yield_now();
        }
    });
    let host = master.pisces();
    host.request_shutdown(&e).unwrap();
    let t0 = std::time::Instant::now();
    // `process_acks` treats ShutdownAck as benign and hands it back.
    while !host
        .process_acks(&e)
        .unwrap()
        .contains(&CtrlMsg::ShutdownAck)
    {
        assert!(t0.elapsed().as_secs() < 30, "no ShutdownAck");
        std::thread::yield_now();
    }
    host.teardown(&e).unwrap();
    stop.store(true, std::sync::atomic::Ordering::Release);
    pump.join().unwrap();
    assert_eq!(e.state(), EnclaveState::Terminated);
    // Resources returned: a new enclave on the same core succeeds.
    let (e2, _) = master.bring_up_enclave("sd2", &req).unwrap();
    assert_eq!(e2.state(), EnclaveState::Running);
}

#[test]
fn shutdown_requires_live_enclave() {
    let (_node, master, _ctl) = world();
    let req = ResourceRequest::new(vec![CoreId(1)], vec![(ZoneId(0), 64 * 1024 * 1024)]);
    let (e, _k) = master.bring_up_enclave("sd", &req).unwrap();
    master.pisces().teardown(&e).unwrap();
    assert!(master.pisces().request_shutdown(&e).is_err());
}

#[test]
fn operator_kill_switch_terminates_live_guest() {
    let (node, master, ctl) = world();
    let req = ResourceRequest::new(vec![CoreId(1)], vec![(ZoneId(0), 64 * 1024 * 1024)]);
    let (e, k) = master.bring_up_enclave("kill", &req).unwrap();
    let mut g = GuestCore::launch_covirt(
        Arc::clone(&node),
        Arc::clone(&k),
        Arc::clone(&ctl),
        1,
        TlbParams::default(),
    )
    .unwrap();
    // The guest runs on a thread of its own, polling at safe points.
    let guest = std::thread::spawn(move || loop {
        match g.poll() {
            Ok(()) => std::thread::yield_now(),
            Err(err) => break (g, err),
        }
    });

    // The operator kills the enclave as a fault is reported; its teardown
    // stops the core at its next safe point before the call returns.
    ctl.report_fault(e.id.0, 0, "killed by the operator");
    assert_eq!(node.cpu(CoreId(1)).unwrap().vmx_state(), VmxState::Off);
    let (mut g, err) = guest.join().unwrap();
    match err {
        covirt_suite::covirt::CovirtError::EnclaveTerminated(why) => {
            assert!(why.contains("operator"), "{why}")
        }
        err => panic!("{err:?}"),
    }
    assert!(g.poll().is_err(), "a stopped core runs no more");
    assert!(matches!(e.state(), EnclaveState::Failed(_)));
    // The operator reads why in the fault log: the kill's row, and none
    // from the core it stopped.
    let rows = ctl.faults.for_enclave(e.id.0);
    assert_eq!(rows.len(), 1, "{rows:?}");
    assert!(rows[0].reason.contains("operator"));
    assert_eq!(rows[0].reclaim, Some(Ok(())));
    // The enclave is gone: there is nothing left to kill.
    assert!(ctl.context(e.id.0).is_err());
}
