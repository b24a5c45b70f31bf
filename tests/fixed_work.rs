//! Covirt's per-event paths do fixed work: no heap allocation. This test
//! binary installs the counting allocator the `figures alloc` harness
//! gates with, and drives the widest of those paths — one command round
//! trip to every core an enclave can hold — end to end.

use covirt_suite::workloads::census::{self, CountingAlloc};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// A `Sync` round trip to every assignable core of the paper's testbed
/// (eleven; core 0 is the host's), each live on its own thread, completes
/// on every core and allocates nothing on the controller's thread.
#[test]
fn a_round_trip_to_every_testbed_core_completes_and_allocates_nothing() {
    assert!(census::counting());
    let (w, live) = census::testbed_enclave();
    assert_eq!(w.cores.len(), 11);
    let ctl = w.controller.as_ref().unwrap();
    let vctx = ctl.context(w.enclave.id.0).unwrap();
    assert_eq!(vctx.live_cores(), w.cores, "every core is in guest mode");
    ctl.shootdown_barrier(w.enclave.id.0).unwrap();
    for _ in 0..4 {
        let posted: Vec<u64> = w
            .cores
            .iter()
            .map(|&c| vctx.cmdq(c).unwrap().completed())
            .collect();
        let (done, allocs) = census::counted(|| ctl.shootdown_barrier(w.enclave.id.0));
        done.unwrap();
        assert_eq!(allocs, 0, "the round trip allocated");
        for (&core, before) in w.cores.iter().zip(posted) {
            let q = vctx.cmdq(core).unwrap();
            assert!(
                q.completed() > before,
                "core {core} did not complete its Sync"
            );
        }
    }
    drop(live);
}
