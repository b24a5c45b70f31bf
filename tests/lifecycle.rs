//! Full-stack lifecycle: node → Pisces → (Covirt) → Kitten → guest code →
//! teardown, across every execution mode; and the VMX lifecycle of one
//! core under it, one state changed by one transition.

use covirt_suite::covirt::config::CovirtConfig;
use covirt_suite::covirt::hypervisor::{ExitAction, Hypervisor};
use covirt_suite::covirt::vctx::VirtContext;
use covirt_suite::covirt::{CovirtController, CovirtError, ExecMode, GuestCore};
use covirt_suite::hobbes::MasterControl;
use covirt_suite::pisces::resources::ResourceRequest;
use covirt_suite::pisces::EnclaveState;
use covirt_suite::simhw::addr::GuestPhysAddr;
use covirt_suite::simhw::apic::LocalApic;
use covirt_suite::simhw::clock::TscClock;
use covirt_suite::simhw::cpu::{Cpu, VmxEvent, VmxState};
use covirt_suite::simhw::ept::{EptViolationInfo, WalkCache};
use covirt_suite::simhw::error::{HwError, HwResult};
use covirt_suite::simhw::exit::ExitReason;
use covirt_suite::simhw::interconnect::Interconnect;
use covirt_suite::simhw::node::{NodeConfig, SimNode};
use covirt_suite::simhw::paging::Access;
use covirt_suite::simhw::tlb::{Tlb, TlbParams};
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

/// A Covirt core its thread lets go of without `shutdown` still leaves VMX
/// operation: the teardown has no core left to stop, and the next enclave
/// on the core launches. (A core left in VMX refused the next VMXON.)
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
    drop(g);
    assert_eq!(node.cpu(CoreId(1)).unwrap().vmx_state(), VmxState::Off);
    master.pisces().teardown(&first).unwrap();

    let (_second, kernel) = master.bring_up_enclave("second", &req).unwrap();
    let mut g = launch(kernel).expect("the second enclave's core launches");
    g.poll().unwrap();
    g.shutdown();
}

/// The enclave whose VMCS the table's core holds.
const E: u64 = 7;

/// A core fresh out of reset, driven from `Off` into `state` (`Off` or a
/// state of enclave `E`).
fn core_in(state: VmxState) -> Cpu {
    let clock = Arc::new(TscClock::new(1_000_000_000));
    let apic = LocalApic::new(1, Arc::new(Interconnect::new(2)), clock);
    let cpu = Cpu::new(CoreId(1), Arc::new(apic));
    let steps = match state {
        VmxState::Off => 0,
        VmxState::Guest(_) => 1,
        VmxState::Root(_) => 2,
    };
    for &event in &[VmxEvent::Launch, VmxEvent::Exit][..steps] {
        cpu.transition(E, event).unwrap();
    }
    assert_eq!(cpu.vmx_state(), state);
    cpu
}

/// Every (state, event) pair of a core's VMX life, and which are errors:
/// each refusal is an `HwError`, not a panic, and leaves the state as it
/// was. In VMX operation an event of an enclave whose VMCS is not current
/// is refused too, so one enclave's hypervisor cannot exit, resume or
/// leave a core that runs another's.
#[test]
fn every_vmx_state_and_event_pair_is_pinned() {
    use HwError::{Invalid, InvalidVmcs, VmxNotEnabled};
    use VmxEvent::*;
    use VmxState::*;
    let (off, twice) = (
        Err(VmxNotEnabled(1)),
        Err(Invalid("VMXON while already in VMX operation")),
    );
    let guest_only = |what| Err(Invalid(what));
    // Per state, what `Launch`, `Exit`, `Resume` and `Leave` lead to.
    let table: [(VmxState, [HwResult<VmxState>; 4]); 3] = [
        (Off, [Ok(Guest(E)), off.clone(), off.clone(), off]),
        (
            Guest(E),
            [
                twice.clone(),
                Ok(Root(E)),
                guest_only("VMRESUME outside VMX root operation"),
                Ok(Off),
            ],
        ),
        (
            Root(E),
            [
                twice,
                guest_only("VM exit outside VMX non-root operation"),
                Ok(Guest(E)),
                Ok(Off),
            ],
        ),
    ];
    for (state, row) in table {
        for (event, expected) in [Launch, Exit, Resume, Leave].into_iter().zip(row) {
            let cpu = core_in(state);
            assert_eq!(cpu.transition(E, event), expected, "{state:?} {event:?}");
            assert_eq!(
                cpu.vmx_state(),
                expected.unwrap_or(state),
                "{state:?} {event:?}"
            );
            if state != Off && event != Launch {
                let cpu = core_in(state);
                assert_eq!(
                    cpu.transition(E + 1, event),
                    Err(InvalidVmcs),
                    "{state:?} {event:?}"
                );
                assert_eq!(cpu.vmx_state(), state);
            }
        }
    }
    let wide = core_in(Off).transition(u64::MAX, Launch);
    assert!(matches!(wide, Err(Invalid(_))), "{wide:?}");
}

/// A small node whose `MEM` controller hooks Pisces only: nothing reclaims
/// a terminated enclave, so its context stays to be launched and read.
fn pisces_only() -> (Arc<SimNode>, Arc<MasterControl>, Arc<CovirtController>) {
    let node = SimNode::new(NodeConfig::small());
    let master = MasterControl::new(Arc::clone(&node));
    let ctl = CovirtController::new(Arc::clone(&node), CovirtConfig::MEM);
    ctl.attach_pisces(master.pisces());
    (node, master, ctl)
}

/// Hand `hv` one exit.
fn exit(hv: &mut Hypervisor, reason: ExitReason) -> ExitAction {
    hv.handle_exit(
        reason,
        &mut Tlb::new(TlbParams::default()),
        &WalkCache::new(),
    )
}

fn ept_violation() -> ExitReason {
    let gpa = GuestPhysAddr::new(0xdead_0000);
    ExitReason::EptViolation(EptViolationInfo {
        gpa,
        access: Access::Write,
    })
}

/// Each hypervisor call is one transition of its core, and a context reads
/// a core live exactly while the core's state names its enclave. The state
/// is the core's: once the next enclave runs on it, the dead enclave's
/// context never reads the core live, and a hypervisor the dead enclave
/// left behind cannot take it out of VMX.
#[test]
fn a_core_runs_one_enclave_and_only_its_context_reads_it_live() {
    let (node, master, ctl) = pisces_only();
    let state = |core| node.cpu(CoreId(core)).unwrap().vmx_state();
    let launch = |vctx: &Arc<VirtContext>, core| {
        Hypervisor::launch(Arc::clone(&node), Arc::clone(&ctl), Arc::clone(vctx), core)
    };
    let enclave = |name, cores: &[usize]| {
        let cores = cores.iter().map(|&c| CoreId(c)).collect();
        let req = ResourceRequest::new(cores, vec![(ZoneId(0), 64 << 20)]);
        let (e, _kernel) = master.bring_up_enclave(name, &req).unwrap();
        (ctl.context(e.id.0).unwrap(), e)
    };
    let (a, first) = enclave("first", &[1, 2]);
    assert!(a.live_cores().is_empty());
    let mut hv1 = launch(&a, 1).unwrap();
    assert_eq!(state(1), VmxState::Guest(a.enclave_id));
    assert!(launch(&a, 1).is_err(), "a second VMXON");
    let hv2 = launch(&a, 2).unwrap();
    assert_eq!([1, 2, 3].map(|c| a.is_live(c)), [true, true, false]);
    assert_eq!(
        exit(&mut hv1, ExitReason::Cpuid { leaf: 0 }),
        ExitAction::Resume
    );
    assert_eq!(state(1), VmxState::Guest(a.enclave_id), "exit, then resume");
    hv2.shutdown();
    assert_eq!((state(2), a.live_cores()), (VmxState::Off, vec![1]));
    exit(&mut hv1, ept_violation());
    assert_eq!((state(1), a.live_cores()), (VmxState::Off, vec![]));

    master.pisces().teardown(&first).unwrap();
    let (b, _second) = enclave("second", &[1]);
    let hv = launch(&b, 1).expect("the next enclave's core launches");
    assert_eq!(state(1), VmxState::Guest(b.enclave_id));
    assert_eq!((a.live_cores(), b.live_cores()), (vec![], vec![1]));
    drop(hv1);
    assert_eq!(
        state(1),
        VmxState::Guest(b.enclave_id),
        "a stale drop left VMX"
    );
    hv.shutdown();
    assert_eq!(state(1), VmxState::Off);
}

/// A terminated enclave is not entered again: once a core's abort has
/// terminated the enclave, a launch of any of its cores is refused with the
/// abort's reason, by the hypervisor and through `GuestCore` alike, and the
/// core stays outside VMX. (The hypervisor's launch returned `Ok` and put
/// the core back in guest mode in a dead context.)
#[test]
fn a_terminated_enclave_is_not_entered_again() {
    let (node, master, ctl) = pisces_only();
    let req = ResourceRequest::new(vec![CoreId(1), CoreId(2)], vec![(ZoneId(0), 64 << 20)]);
    let (enclave, kernel) = master.bring_up_enclave("dead", &req).unwrap();
    let vctx = ctl.context(enclave.id.0).unwrap();
    let launch = || Hypervisor::launch(Arc::clone(&node), Arc::clone(&ctl), Arc::clone(&vctx), 1);
    let ExitAction::Terminate(reason) = exit(&mut launch().unwrap(), ept_violation()) else {
        panic!("an EPT violation terminates");
    };
    let terminated = Err(CovirtError::EnclaveTerminated(reason));
    assert_eq!(launch().map(drop), terminated, "the hypervisor re-entered");
    for core in [1, 2] {
        let (node, kernel, ctl) = (Arc::clone(&node), Arc::clone(&kernel), Arc::clone(&ctl));
        let g = GuestCore::launch_covirt(node, kernel, ctl, core, TlbParams::default());
        assert_eq!(g.map(drop), terminated, "core {core} re-entered");
    }
    assert!(node.cpus().iter().all(|c| c.vmx_state() == VmxState::Off));
    assert!(vctx.live_cores().is_empty());
}
