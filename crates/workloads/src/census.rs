//! Allocation census of the paths Covirt runs once per event or once per
//! enclave: how many heap allocations one call makes, counted per thread
//! by [`CountingAlloc`].
//!
//! The paper's hypervisor is driven through a fixed-size command queue
//! and has no allocator; its management paths should cost what the work
//! costs, not bookkeeping. Allocations are a count, not a time, so a
//! bound on them holds on any host: the `alloc` harness of `figures`
//! reports every field of [`Census`] and bounds all but the two lifecycle
//! totals.
//!
//! The counts only mean something in a binary whose global allocator is
//! [`CountingAlloc`] (the `figures` binary installs it):
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: workloads::census::CountingAlloc = workloads::census::CountingAlloc;
//! ```

use covirt::config::CovirtConfig;
use covirt::controller::CovirtController;
use covirt::exec::FaultOutcome;
use covirt::{ExecMode, GuestCore};
use covirt_simhw::addr::PAGE_SIZE_2M;
use covirt_simhw::node::{NodeConfig, SimNode};
use covirt_simhw::tlb::TlbParams;
use covirt_simhw::topology::{CoreId, HwLayout, Topology, ZoneId};
use hobbes::MasterControl;
use kitten::KittenKernel;
use pisces::ctrlchan::CtrlMsg;
use pisces::hooks::EnclaveHooks;
use pisces::resources::ResourceRequest;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use crate::env::LiveCores;
use crate::World;

/// The system allocator, counting every allocation and reallocation on
/// the thread that makes it.
pub struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Set by the first allocation through [`CountingAlloc`].
static INSTALLED: AtomicBool = AtomicBool::new(false);

fn count() {
    // A thread being torn down may still allocate; it is not measured.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    if !INSTALLED.load(Ordering::Relaxed) {
        INSTALLED.store(true, Ordering::Relaxed);
    }
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// count is a thread-local with no destructor, which allocates nothing.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// Whether this binary's global allocator is [`CountingAlloc`].
pub fn counting() -> bool {
    drop(std::hint::black_box(Box::new(0u64)));
    INSTALLED.load(Ordering::Relaxed)
}

/// Allocations this thread has made so far.
pub fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// `f`'s result and the allocations this thread made running it.
pub fn counted<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = allocations();
    let out = f();
    (out, allocations() - before)
}

/// Calls each per-call row averages over, after as many unmeasured ones.
const CALLS: u64 = 16;
/// Lifecycles each arm of the lifecycle rows averages over.
const LIFECYCLES: u64 = 8;
/// The grant every control-path row moves.
const GRANT: u64 = 2 * 1024 * 1024;
/// The lifecycle's enclave: core and memory (`perfbench`'s `faultcycle`).
const VICTIM_CORE: usize = 9;
const VICTIM_MEM: u64 = 32 * 1024 * 1024;

/// Heap allocations per call of every path the `alloc` harness bounds.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Census {
    /// The co-kernel's `poll_ctrl`, per control message it handles (a
    /// grant's `AddMem` and a reclaim's `RemoveMem`, alternately).
    pub coker_poll: f64,
    /// A guest safe point that harvests a command doorbell and executes
    /// the command.
    pub guest_harvest: f64,
    /// The controller's grant hook: the EPT map of a 2 MiB grant.
    pub grant_hook: f64,
    /// The controller's reclaim hook: the EPT unmap and the command round
    /// trip to every assignable core of the paper's testbed, all live.
    pub reclaim_round_trip: f64,
    /// One CPUID exit.
    pub cpuid_exit: f64,
    /// `PiscesHost::add_memory` of a 2 MiB grant under Covirt, its grant
    /// hook included.
    pub add_memory: f64,
    /// `PiscesHost::request_remove_memory`.
    pub request_remove: f64,
    /// Every `process_acks` of one grant-and-reclaim cycle: the grant's
    /// ack, then the reclaim's (its hook and round trip included).
    pub process_acks: f64,
    /// One lifecycle under Covirt (bring-up → launch → first touch → wild
    /// write contained → reclaimed).
    pub lifecycle_covirt: f64,
    /// The same lifecycle natively, to first touch and an orderly
    /// teardown.
    pub lifecycle_native: f64,
    /// Frames of the controller's frame pool still out once the Covirt
    /// lifecycles are over, beyond those out before them: an EPT table or
    /// command queue a lifecycle never gave back. Zone usage cannot show
    /// one, since the pool is reserved once for the node.
    pub lifecycle_frames_left: f64,
}

/// Take the census. Meaningful only under [`CountingAlloc`].
pub fn take() -> Census {
    let mut c = Census::default();
    exits_and_harvests(&mut c);
    control_path(&mut c);
    hooks(&mut c);
    (c.lifecycle_covirt, c.lifecycle_frames_left) = lifecycle(ExecMode::Covirt(CovirtConfig::MEM));
    (c.lifecycle_native, _) = lifecycle(ExecMode::Native);
    c
}

/// Mean allocations of `calls` calls of `f`, after `calls` unmeasured.
fn per_call(calls: u64, mut f: impl FnMut()) -> f64 {
    for _ in 0..calls {
        f();
    }
    let ((), n) = counted(|| (0..calls).for_each(|_| f()));
    n as f64 / calls as f64
}

/// The guest's side, on the guest's thread: a CPUID exit, and a safe point
/// that harvests one `Sync` command.
fn exits_and_harvests(c: &mut Census) {
    let w = World::quick(ExecMode::Covirt(CovirtConfig::MEM));
    let ctl = w.controller.as_ref().expect("covirt world");
    let mut g = w.guest_core(w.cores[0]).expect("guest core");
    let vctx = ctl.context(w.enclave.id.0).expect("context");
    c.cpuid_exit = per_call(CALLS, || g.cpuid(0).expect("cpuid"));
    let q = vctx.cmdq(g.core).expect("command queue").clone();
    let mut harvests = 0.0;
    let mut posted = 0;
    for round in 0..2 * CALLS {
        posted = ctl.post_sync(&vctx, g.core).expect("post");
        let ((), n) = counted(|| g.poll().expect("harvest"));
        if round >= CALLS {
            harvests += n as f64;
        }
    }
    assert_eq!(q.completed(), posted, "every Sync was harvested");
    c.guest_harvest = harvests / CALLS as f64;
    g.shutdown();
}

/// The host's and the co-kernel's side of grant-and-reclaim cycles against
/// one live core polled on its own thread.
fn control_path(c: &mut Census) {
    let w = World::quick(ExecMode::Covirt(CovirtConfig::MEM));
    let (pisces, enclave, kernel) = (w.master.pisces(), &w.enclave, &w.kernel);
    let live = w.live_cores(|_| {}, |_| {});
    let (mut add, mut remove, mut acks, mut polls) = (0, 0, 0, 0);
    for round in 0..2 * CALLS {
        let (range, n_add) = counted(|| pisces.add_memory(enclave, ZoneId(0), GRANT));
        let range = range.expect("grant");
        let (handled, n_poll) = counted(|| kernel.poll_ctrl().expect("co-kernel poll").len());
        assert_eq!(handled, 1);
        let (ack, n_ack) = counted(|| {
            let acks = pisces.process_acks(enclave).expect("grant ack");
            matches!(acks.first(), Some(CtrlMsg::AddMemAck { .. }))
        });
        assert!(ack, "the grant was acknowledged");
        let (sent, n_remove) = counted(|| pisces.request_remove_memory(enclave, range));
        sent.expect("reclaim request");
        let (handled, n_poll2) = counted(|| kernel.poll_ctrl().expect("co-kernel poll").len());
        assert_eq!(handled, 1);
        let (ack, n_ack2) = counted(|| {
            let acks = pisces.process_acks(enclave).expect("reclaim ack");
            matches!(acks.first(), Some(CtrlMsg::RemoveMemAck { .. }))
        });
        assert!(ack, "the reclaim was acknowledged");
        if round >= CALLS {
            add += n_add;
            remove += n_remove;
            acks += n_ack + n_ack2;
            polls += n_poll + n_poll2;
        }
    }
    drop(live);
    c.add_memory = add as f64 / CALLS as f64;
    c.request_remove = remove as f64 / CALLS as f64;
    c.process_acks = acks as f64 / CALLS as f64;
    c.coker_poll = polls as f64 / (2 * CALLS) as f64;
}

/// An enclave on every assignable core of the paper's testbed (core 0 is
/// the host's), each core live on a thread of its own.
pub fn testbed_enclave() -> (World, LiveCores) {
    let topo = Topology::paper_testbed();
    let mut w = World::build_on(
        topo.clone(),
        ExecMode::Covirt(CovirtConfig::MEM),
        HwLayout { cores: 1, zones: 1 },
        32 * 1024 * 1024,
    );
    // `World::build_on` picks by layout, which never spans every core of
    // a zone: re-home the world on an enclave that does.
    let cores: Vec<CoreId> = (1..topo.total_cores()).map(CoreId).collect();
    let req = ResourceRequest::new(cores.clone(), vec![(ZoneId(0), 32 * 1024 * 1024)]);
    w.master.pisces().teardown(&w.enclave).expect("teardown");
    let (enclave, kernel) = w
        .master
        .bring_up_enclave("testbed", &req)
        .expect("bring-up");
    w.enclave = enclave;
    w.kernel = kernel;
    w.cores = cores.iter().map(|c| c.0).collect();
    let live = w.live_cores(|_| {}, |_| {});
    (w, live)
}

/// The controller's hooks, called as Pisces calls them: the grant hook
/// alone, then the reclaim hook with its round trip to eleven live cores.
fn hooks(c: &mut Census) {
    let (w, live) = testbed_enclave();
    let ctl: &CovirtController = w.controller.as_deref().expect("covirt world");
    let (mut grant, mut reclaim) = (0, 0);
    for round in 0..2 * CALLS {
        let range = w
            .node
            .mem
            .alloc_backed(ZoneId(0), GRANT, PAGE_SIZE_2M)
            .expect("grant memory");
        let (mapped, n_grant) = counted(|| ctl.on_mem_add_prepared(&w.enclave, range));
        mapped.expect("grant hook");
        let before = ctl.shootdown_count();
        let (unmapped, n_reclaim) = counted(|| ctl.on_mem_remove_acked(&w.enclave, range));
        unmapped.expect("reclaim hook");
        assert_eq!(ctl.shootdown_count(), before + 1, "one round trip");
        w.node.mem.free(range).expect("free");
        if round >= CALLS {
            grant += n_grant;
            reclaim += n_reclaim;
        }
    }
    drop(live);
    c.grant_hook = grant as f64 / CALLS as f64;
    c.reclaim_round_trip = reclaim as f64 / CALLS as f64;
}

/// Mean allocations of one enclave lifecycle in `mode`, as `perfbench`'s
/// `faultcycle` runs it: bring-up, launch of its core, first touch, then
/// under Covirt a wild write contained and the enclave reclaimed, natively
/// an orderly teardown. Also the controller's pool frames the lifecycles
/// left out (0 natively).
fn lifecycle(mode: ExecMode) -> (f64, f64) {
    let node = SimNode::new(NodeConfig {
        topology: Topology::paper_testbed(),
    });
    let master = MasterControl::new(Arc::clone(&node));
    let controller = mode.config().map(|cfg| {
        let c = CovirtController::new(Arc::clone(&node), cfg);
        c.attach_hobbes(&master);
        c
    });
    let req = ResourceRequest::new(vec![CoreId(VICTIM_CORE)], vec![(ZoneId(0), VICTIM_MEM)]);
    let once = || {
        let pisces = master.pisces();
        let enclave = pisces.create_enclave("victim", &req).expect("create");
        let plan = pisces.launch(&enclave).expect("launch");
        let kernel = KittenKernel::boot(&node.mem, plan.pisces_params_addr).expect("boot");
        let kernel = Arc::new(kernel);
        master.register_kernel(enclave.id.0, Arc::clone(&kernel));
        let tlb = TlbParams::default();
        let mut g = match &controller {
            Some(c) => GuestCore::launch_covirt(
                Arc::clone(&node),
                Arc::clone(&kernel),
                Arc::clone(c),
                VICTIM_CORE,
                tlb,
            ),
            None => {
                GuestCore::launch_native(Arc::clone(&node), Arc::clone(&kernel), VICTIM_CORE, tlb)
            }
        }
        .expect("core launch");
        let first = kernel
            .alloc_contiguous(PAGE_SIZE_2M, &mut 0)
            .expect("alloc");
        g.write_u64(first, 1).expect("first touch");
        assert_eq!(g.read_u64(first).expect("read back"), 1);
        if controller.is_some() {
            let fault = kitten::faults::off_by_one_region(&kernel);
            assert!(matches!(g.execute_fault(fault), FaultOutcome::Contained(_)));
        } else {
            g.poll().expect("poll");
            pisces.teardown(&enclave).expect("teardown");
        }
        assert!(enclave.resources().mem.is_empty(), "reclaimed");
    };
    let frames = || controller.as_ref().map_or(0, |c| c.frames_outstanding());
    let before = frames();
    let allocs = per_call(LIFECYCLES, once);
    (allocs, frames().saturating_sub(before) as f64)
}
