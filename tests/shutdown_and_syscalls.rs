//! Orderly shutdown protocol and syscall forwarding, end to end and under
//! Covirt.

use covirt_suite::covirt::config::CovirtConfig;
use covirt_suite::covirt::{CovirtController, GuestCore};
use covirt_suite::hobbes::MasterControl;
use covirt_suite::kitten::syscall::{self, Sysno};
use covirt_suite::pisces::ctrlchan::CtrlMsg;
use covirt_suite::pisces::resources::ResourceRequest;
use covirt_suite::pisces::EnclaveState;
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
fn syscall_forwarding_works_under_covirt_guest() {
    let (node, master, ctl) = world();
    let req = ResourceRequest::new(vec![CoreId(1)], vec![(ZoneId(0), 64 * 1024 * 1024)]);
    let (e, k) = master.bring_up_enclave("sc", &req).unwrap();
    let mut g = GuestCore::launch_covirt(
        Arc::clone(&node),
        Arc::clone(&k),
        Arc::clone(&ctl),
        1,
        TlbParams::default(),
    )
    .unwrap();

    // Local syscalls complete with no exits and no host involvement.
    let mut cursor = 0;
    let exits = g.exit_count();
    match syscall::dispatch(&k, Sysno::Mmap as u64, 8192, 0, &mut cursor).unwrap() {
        syscall::SyscallResult::Done(addr) => {
            g.write_u64(addr, 1).unwrap();
            assert_eq!(g.read_u64(addr).unwrap(), 1);
        }
        r => panic!("unexpected {r:?}"),
    }
    assert_eq!(g.exit_count(), exits, "local syscalls must not exit");

    // Forwarded syscall with the host pumping.
    let host = Arc::clone(master.pisces());
    let e2 = Arc::clone(&e);
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let stop2 = Arc::clone(&stop);
    let pump = std::thread::spawn(move || {
        while !stop2.load(std::sync::atomic::Ordering::Acquire) {
            host.process_acks(&e2).unwrap();
            std::thread::yield_now();
        }
    });
    let ret = syscall::forwarded_sync(&k, Sysno::Write as u64, 1, 2, 10_000_000).unwrap();
    assert_eq!(ret, 0);
    stop.store(true, std::sync::atomic::Ordering::Release);
    pump.join().unwrap();
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

    // Operator issues the kill; the guest core discovers it at its next
    // safe point (the NMI drains the Terminate command).
    ctl.terminate_enclave(e.id.0).unwrap();
    let err = loop {
        match g.poll() {
            Ok(()) => std::thread::yield_now(),
            Err(err) => break err,
        }
    };
    assert!(matches!(
        err,
        covirt_suite::covirt::CovirtError::EnclaveTerminated(_)
    ));
    assert!(matches!(e.state(), EnclaveState::Failed(_)));
    // The operator reads why in the fault log.
    let rows = ctl.faults.all();
    assert!(rows
        .iter()
        .any(|r| r.enclave == e.id.0 && r.reason.contains("controller")));
    // The enclave is gone: there is nothing left to kill.
    assert!(ctl.terminate_enclave(e.id.0).is_err());
}
