//! Quickstart: bring up a co-kernel enclave under Covirt, run guest code,
//! inject the paper's signature bug, and watch the fault get contained.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use covirt_suite::covirt::config::CovirtConfig;
use covirt_suite::covirt::exec::FaultOutcome;
use covirt_suite::covirt::{CovirtController, ExecMode, GuestCore};
use covirt_suite::hobbes::MasterControl;
use covirt_suite::simhw::node::{NodeConfig, SimNode};
use covirt_suite::simhw::tlb::TlbParams;
use covirt_suite::simhw::topology::{CoreId, ZoneId};
use std::sync::Arc;

fn main() {
    // 1. A simulated node: the paper's dual-socket Xeon testbed.
    let node = SimNode::new(NodeConfig::paper_testbed());
    println!("node: {node:?}");

    // 2. The Hobbes master control process (loads Pisces), plus the Covirt
    //    controller with memory + IPI protection, hooked into both.
    let master = MasterControl::new(Arc::clone(&node));
    let controller = CovirtController::new(Arc::clone(&node), CovirtConfig::MEM_IPI);
    controller.attach_hobbes(&master);

    // 3. Create and launch an enclave: 2 cores, 256 MiB. The launch is
    //    interposed — the CPUs boot into the Covirt hypervisor, which
    //    chains into the Kitten kernel transparently.
    let req = covirt_suite::pisces::resources::ResourceRequest::new(
        vec![CoreId(6), CoreId(7)],
        vec![(ZoneId(1), 256 * 1024 * 1024)],
    );
    let (enclave, kernel) = master.bring_up_enclave("demo", &req).expect("bring-up");
    println!(
        "enclave {} running ({} cores, {} MiB), mode = {}",
        enclave.id,
        kernel.cores().len(),
        enclave.resources().mem_bytes() / (1024 * 1024),
        ExecMode::Covirt(controller.config()).label()
    );

    // 4. Run guest code on one of the enclave's cores: all memory access
    //    goes through the virtualized translation path.
    let mut guest = GuestCore::launch_covirt(
        Arc::clone(&node),
        Arc::clone(&kernel),
        Arc::clone(&controller),
        6,
        TlbParams::default(),
    )
    .expect("guest core");
    let mut cursor = 0;
    let buf = kernel
        .alloc_contiguous(1024 * 1024, &mut cursor)
        .expect("alloc");
    for i in 0..1024u64 {
        guest.write_u64(buf + i * 8, i * i).expect("write");
    }
    let sum: u64 = (0..1024u64)
        .map(|i| guest.read_u64(buf + i * 8).expect("read"))
        .sum();
    println!("guest computed sum of squares: {sum}");
    println!(
        "translation stats: {} walks, {} table loads, {} exits so far",
        guest.counters.walks,
        guest.counters.walk_loads,
        guest.exit_count()
    );

    // 5. Inject the paper's off-by-one memory-map bug: the kernel believes
    //    it owns one page past its assignment and touches it.
    let fault = covirt_suite::kitten::faults::off_by_one_region(&kernel);
    println!("\ninjecting fault: {fault:?}");
    match guest.execute_fault(fault) {
        FaultOutcome::Contained(reason) => {
            println!("covirt contained it: {reason}");
        }
        other => panic!("expected containment, got {other:?}"),
    }

    // 6. The enclave is dead; the node and the management stack survive,
    //    and the fault log tells the operator exactly what happened.
    println!("enclave state: {:?}", enclave.state());
    for report in controller.faults.all() {
        println!(
            "fault log: enclave {} core {} @tsc {}: {} (reclaim: {:?})",
            report.enclave, report.core, report.tsc, report.reason, report.reclaim
        );
    }

    // A fresh enclave can be created immediately — the node survived.
    let req2 = covirt_suite::pisces::resources::ResourceRequest::new(
        vec![CoreId(8)],
        vec![(ZoneId(1), 64 * 1024 * 1024)],
    );
    let (e2, _k2) = master
        .bring_up_enclave("phoenix", &req2)
        .expect("second enclave");
    println!(
        "\nnew enclave {} is {:?} — the node survived the fault",
        e2.id,
        e2.state()
    );
}
