//! Fault-injection study — the Section V narrative, executable.
//!
//! Runs the paper's catalogue of co-kernel bug classes twice — natively
//! and under Covirt — and prints what happened in each world:
//!
//! 1. the XEMEM-cleanup-path bug (stale shared mapping used after the
//!    host reclaimed it — the paper's large-scale crash anecdote);
//! 2. an off-by-one memory-map misconfiguration;
//! 3. an errant IPI targeting the host OS core;
//! 4. a double fault inside the guest;
//! 5. a write to a machine-check MSR and a poke at the reset I/O port
//!    (with the full feature set).
//!
//! ```text
//! cargo run --release --example fault_injection
//! ```

use covirt_suite::covirt::config::CovirtConfig;
use covirt_suite::covirt::exec::FaultOutcome;
use covirt_suite::covirt::{CovirtController, ExecMode, GuestCore};
use covirt_suite::hobbes::MasterControl;
use covirt_suite::kitten::faults;
use covirt_suite::simhw::node::{NodeConfig, SimNode};
use covirt_suite::simhw::tlb::TlbParams;
use covirt_suite::simhw::topology::{CoreId, ZoneId};
use std::sync::Arc;

struct Lab {
    node: Arc<SimNode>,
    master: Arc<MasterControl>,
    controller: Option<Arc<CovirtController>>,
    /// Every enclave this world brought up. A reclaimed enclave leaves the
    /// host's table, so the ledger at the end reads these handles.
    enclaves: std::cell::RefCell<Vec<Arc<covirt_suite::pisces::Enclave>>>,
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
            enclaves: Default::default(),
        }
    }

    fn enclave(
        &self,
        name: &str,
        core: usize,
    ) -> (
        Arc<covirt_suite::pisces::Enclave>,
        Arc<covirt_suite::kitten::KittenKernel>,
        GuestCore,
    ) {
        let req = covirt_suite::pisces::resources::ResourceRequest::new(
            vec![CoreId(core)],
            vec![(ZoneId(0), 128 * 1024 * 1024)],
        );
        let (e, k) = self.master.bring_up_enclave(name, &req).expect("bring-up");
        self.enclaves.borrow_mut().push(Arc::clone(&e));
        let g = match &self.controller {
            Some(c) => GuestCore::launch_covirt(
                Arc::clone(&self.node),
                Arc::clone(&k),
                Arc::clone(c),
                core,
                TlbParams::default(),
            )
            .expect("guest"),
            None => GuestCore::launch_native(
                Arc::clone(&self.node),
                Arc::clone(&k),
                core,
                TlbParams::default(),
            )
            .expect("guest"),
        };
        (e, k, g)
    }
}

fn outcome_str(o: &FaultOutcome) -> String {
    match o {
        FaultOutcome::Contained(r) => format!("CONTAINED by Covirt ({r})"),
        FaultOutcome::CorruptedMemory { addr } => {
            format!("silently CORRUPTED foreign memory at {addr} — the node is now wrong")
        }
        FaultOutcome::NodeCrash(e) => format!("NODE CRASH equivalent ({e})"),
        FaultOutcome::IpiDelivered { victim, vector } => {
            format!("errant IPI vector {vector:#x} DELIVERED to core {victim} (host OS!)")
        }
        FaultOutcome::IpiBlocked => "errant IPI silently DROPPED by the whitelist".to_owned(),
    }
}

fn main() {
    for mode in [
        ExecMode::Native,
        ExecMode::Covirt(CovirtConfig::MEM_IPI),
        ExecMode::Covirt(CovirtConfig::FULL),
    ] {
        println!("\n=== world: {} ===", mode.label());
        let lab = Lab::new(mode);

        // --- scenario 1: the XEMEM cleanup-path bug -------------------
        let (e1, k1, mut g1) = lab.enclave("victim-of-stale-mapping", 2);
        // Export a segment from this enclave, attach a consumer, then
        // destroy it while the consumer still holds it... here we model
        // the *owner-side* variant: host reclaims a granted region but the
        // buggy kernel keeps its mapping.
        let seg = lab
            .master
            .pisces()
            .add_memory(&e1, ZoneId(0), 2 * 1024 * 1024)
            .expect("grant");
        k1.poll_ctrl().expect("poll");
        lab.master.pisces().process_acks(&e1).expect("acks");
        // The host asks for it back; the kernel acks (clean removal). The
        // Covirt controller blocks inside process_acks until the live
        // enclave core services the TLB-flush NMI, so the host side runs
        // on its own thread while the guest keeps polling — exactly the
        // concurrency of the real system.
        lab.master
            .pisces()
            .request_remove_memory(&e1, seg)
            .expect("remove");
        k1.poll_ctrl().expect("poll");
        let host = Arc::clone(lab.master.pisces());
        let e1c = Arc::clone(&e1);
        let reclaim = std::thread::spawn(move || {
            for _ in 0..1_000_000 {
                host.process_acks(&e1c).expect("acks");
                if !e1c.resources().mem.contains(&seg) {
                    return;
                }
                std::thread::yield_now();
            }
            panic!("reclaim did not complete");
        });
        while !reclaim.is_finished() {
            g1.poll().expect("poll"); // service the TLB-flush NMI
            std::thread::yield_now();
        }
        reclaim.join().expect("reclaim thread");
        // ... but a stale pointer from the cleanup path is used later:
        let fault = faults::stale_shared_mapping(&k1, seg);
        println!(
            "1. stale-mapping use after reclaim: {}",
            outcome_str(&g1.execute_fault(fault))
        );

        // --- scenario 2: off-by-one memory map ------------------------
        let (_e2, k2, mut g2) = lab.enclave("off-by-one", 3);
        let fault = faults::off_by_one_region(&k2);
        println!(
            "2. off-by-one memory map:           {}",
            outcome_str(&g2.execute_fault(fault))
        );

        // --- scenario 3: errant IPI to the host core ------------------
        let (_e3, _k3, mut g3) = lab.enclave("errant-ipi", 4);
        let fault = faults::errant_ipi(0, 0x2f); // core 0 = host Linux
        println!(
            "3. errant IPI to host core 0:       {}",
            outcome_str(&g3.execute_fault(fault))
        );

        // --- scenario 4: double fault in the guest --------------------
        if mode != ExecMode::Native {
            let (_e4, k4, mut g4) = lab.enclave("double-fault", 5);
            // A guest page fault while the fault handler's stack is bad is
            // a double fault; model it via the hypervisor's abort path.
            let _ = k4;
            let r = g4.execute_fault(faults::InjectedFault::WildAccess {
                addr: covirt_suite::simhw::addr::HostPhysAddr::new(0x3f_0000_0000),
                write: false,
            });
            println!("4. wild read far outside the node:  {}", outcome_str(&r));
        } else {
            println!("4. wild read far outside the node:  (native: machine-dependent — often a node hang)");
        }

        // --- scenario 5: MSR / I/O-port protection (FULL config only) --
        if lab.controller.as_ref().is_some_and(|c| c.config().msr) {
            let (_e5, _k5, mut g5) = lab.enclave("msr-io", 6);
            g5.wrmsr(covirt_suite::simhw::msr::IA32_MC0_CTL, 0xbad)
                .expect("wrmsr traps");
            g5.io_write(covirt_suite::simhw::ioport::PORT_KBD_RESET, 0xfe)
                .expect("out traps");
            let mc0 = lab
                .node
                .cpu(CoreId(6))
                .unwrap()
                .msrs
                .read(covirt_suite::simhw::msr::IA32_MC0_CTL);
            let resets = lab
                .node
                .ioports
                .write_count(covirt_suite::simhw::ioport::PORT_KBD_RESET);
            println!(
                "5. MC0_CTL write + reset-port poke: BLOCKED (MSR still {mc0:#x}, {resets} reset writes reached hardware)"
            );
        } else if mode != ExecMode::Native {
            println!("5. MC0_CTL write + reset-port poke: (feature disabled in this config — modular protection)");
        } else {
            println!("5. MC0_CTL write + reset-port poke: (native: lands on real hardware — machine check / reboot)");
        }

        // ledger
        if let Some(c) = &lab.controller {
            println!("fault log: {} contained faults recorded", c.faults.count());
        }
        let failed = lab
            .enclaves
            .borrow()
            .iter()
            .filter(|e| matches!(e.state(), covirt_suite::pisces::EnclaveState::Failed(_)))
            .count();
        let running = lab.master.pisces().enclaves().len();
        println!("enclaves marked Failed: {failed}; node and the other {running} keep running");
    }
    println!("\nConclusion: natively every injected bug escapes the enclave; under Covirt each is trapped at the hardware boundary and contained.");
}
