//! An enclave's lifecycle must cost what it cost the first time, however
//! many enclaves the node has hosted before: the 64th bring-up, fault and
//! reclaim leave the node's memory, the victim's pages and the EPT frame
//! pool exactly where the 1st did.
//!
//! Single-threaded, as perfbench's `faultcycle` is, so containment never
//! crosses the enclave-teardown race (ROADMAP P0).

use covirt_suite::covirt::config::CovirtConfig;
use covirt_suite::covirt::exec::FaultOutcome;
use covirt_suite::covirt::{CovirtController, GuestCore};
use covirt_suite::hobbes::MasterControl;
use covirt_suite::kitten::faults;
use covirt_suite::pisces::resources::ResourceRequest;
use covirt_suite::pisces::EnclaveState;
use covirt_suite::simhw::addr::{HostPhysAddr, PAGE_SIZE_2M};
use covirt_suite::simhw::node::{NodeConfig, SimNode};
use covirt_suite::simhw::tlb::TlbParams;
use covirt_suite::simhw::topology::{CoreId, ZoneId};
use std::sync::Arc;

const CYCLES: usize = 64;
const VICTIM_CORE: usize = 9;

/// What one finished cycle left behind in zone 0.
#[derive(Debug, PartialEq, Eq)]
struct Footprint {
    zone0_in_use: u64,
    /// Whether the victim's first page still resolves after its end.
    victim_page_backed: bool,
    ept_frames_outstanding: u64,
}

struct Lab {
    node: Arc<SimNode>,
    master: Arc<MasterControl>,
    controller: Arc<CovirtController>,
}

impl Lab {
    fn new() -> Lab {
        let node = SimNode::new(NodeConfig::paper_testbed());
        let master = MasterControl::new(Arc::clone(&node));
        let controller = CovirtController::new(Arc::clone(&node), CovirtConfig::MEM_IPI);
        controller.attach_hobbes(&master);
        Lab {
            node,
            master,
            controller,
        }
    }

    /// Bring an enclave up on `core`, launch the core and touch memory;
    /// also returns the address touched.
    fn bring_up(
        &self,
        core: usize,
        bytes: u64,
    ) -> (Arc<covirt_suite::pisces::Enclave>, GuestCore, u64) {
        let req = ResourceRequest::new(vec![CoreId(core)], vec![(ZoneId(0), bytes)]);
        let (enclave, kernel) = self.master.bring_up_enclave("e", &req).expect("bring-up");
        let mut g = GuestCore::launch_covirt(
            Arc::clone(&self.node),
            Arc::clone(&kernel),
            Arc::clone(&self.controller),
            core,
            TlbParams::default(),
        )
        .expect("launch");
        let first = kernel.alloc_contiguous(PAGE_SIZE_2M, &mut 0).unwrap();
        g.write_u64(first, 0x5eed).unwrap();
        assert_eq!(g.read_u64(first).unwrap(), 0x5eed);
        (enclave, g, first)
    }

    /// One victim lifecycle, ended by a contained wild write (`fault`) or
    /// by an orderly teardown.
    fn cycle(&self, fault: bool) -> Footprint {
        let mem = &self.node.mem;
        let touched = {
            let (enclave, mut g, touched) = self.bring_up(VICTIM_CORE, 32 * 1024 * 1024);
            if fault {
                let wild = faults::off_by_one_region(g.kernel());
                assert!(matches!(g.execute_fault(wild), FaultOutcome::Contained(_)));
                assert!(matches!(enclave.state(), EnclaveState::Failed(_)));
            } else {
                g.poll().unwrap();
                g.shutdown();
                self.master.pisces().teardown(&enclave).unwrap();
                assert_eq!(enclave.state(), EnclaveState::Terminated);
            }
            assert!(enclave.resources().mem.is_empty());
            // The dead core still holds its context here; it drops with `g`.
            touched
        };
        Footprint {
            zone0_in_use: mem.zone_usage(ZoneId(0)).unwrap().1,
            victim_page_backed: mem.resolve(HostPhysAddr::new(touched), 8).is_ok(),
            ept_frames_outstanding: self.controller.ept_frames_outstanding(),
        }
    }
}

#[test]
fn the_64th_lifecycle_costs_and_leaves_what_the_first_did() {
    let lab = Lab::new();
    // A long-lived bystander, as on a real node: its frames stay out of the
    // pool throughout, and it must still run at the end.
    let (bystander, mut bystander_core, _) = lab.bring_up(2, 64 * 1024 * 1024);
    let bystander_frames = lab.controller.ept_frames_outstanding();
    assert!(bystander_frames > 0);

    for fault in [true, false] {
        let first = lab.cycle(fault);
        assert_eq!(first.ept_frames_outstanding, bystander_frames);
        assert!(!first.victim_page_backed);
        let mut last = None;
        for _ in 1..CYCLES {
            last = Some(lab.cycle(fault));
        }
        assert_eq!(
            last.as_ref(),
            Some(&first),
            "lifecycle {CYCLES} differs from lifecycle 1 (fault = {fault})"
        );
    }

    assert_eq!(bystander.state(), EnclaveState::Running);
    bystander_core.poll().unwrap();
}
