//! Workload environment: one fully built co-kernel world per execution
//! mode, plus the parallel-execution harness.

use covirt::controller::CovirtController;
use covirt::{CovirtError, CovirtResult, ExecMode, GuestCore};
use covirt_simhw::addr::PAGE_SIZE_2M;
use covirt_simhw::memory::ZONE_SPAN;
use covirt_simhw::node::{NodeConfig, SimNode};
use covirt_simhw::tlb::TlbParams;
use covirt_simhw::topology::{HwLayout, Topology};
use hobbes::MasterControl;
use kitten::memmap::RegionKind;
use kitten::KittenKernel;
use parking_lot::Mutex;
use pisces::resources::ResourceRequest;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Default enclave memory for workload worlds. The paper uses 14 GiB; the
/// simulation scales this down so populated backing stays laptop-sized
/// while every code path (multi-region, NUMA-split allocation) is
/// identical.
pub const DEFAULT_ENCLAVE_MEM: u64 = 192 * 1024 * 1024;

/// A complete world: node, Pisces host, optional Covirt controller, one
/// enclave running a Kitten kernel on a chosen hardware layout.
pub struct World {
    /// The simulated node.
    pub node: Arc<SimNode>,
    /// Master control (owns the Pisces host + XEMEM).
    pub master: Arc<MasterControl>,
    /// The Covirt controller, when the mode interposes one.
    pub controller: Option<Arc<CovirtController>>,
    /// The workload enclave.
    pub enclave: Arc<pisces::Enclave>,
    /// Its kernel.
    pub kernel: Arc<KittenKernel>,
    /// Execution mode this world was built for.
    pub mode: ExecMode,
    /// Enclave core ids (one workload thread each).
    pub cores: Vec<usize>,
    /// TLB geometry used by every guest core.
    pub tlb: TlbParams,
    alloc: Mutex<AllocPolicy>,
}

/// Zone-aware allocation state behind [`World::alloc_array`]. The default
/// policy (zone `None`) delegates to the kernel's bump allocator over the
/// *first* boot region, which lives in zone 0; pinning to a higher zone
/// carves from that zone's own boot region with its own cursor, so
/// workload setup code (which only ever calls `alloc_array`) can be
/// NUMA-placed without signature changes.
#[derive(Default)]
struct AllocPolicy {
    /// Zone subsequent allocations are pinned to (`None` = kernel default).
    zone: Option<usize>,
    /// Cursor for the kernel's default (first-boot-region) allocator.
    cursor0: u64,
    /// Bump cursor per explicitly pinned zone.
    zone_cursors: BTreeMap<usize, u64>,
}

impl World {
    /// Build a world on the paper's testbed topology with the given
    /// enclave layout and memory.
    pub fn build(mode: ExecMode, layout: HwLayout, enclave_mem: u64) -> World {
        Self::build_on(Topology::paper_testbed(), mode, layout, enclave_mem)
    }

    /// Build with defaults (1 core / 1 zone, default memory) — handy for
    /// tests and examples.
    pub fn quick(mode: ExecMode) -> World {
        Self::build(mode, HwLayout { cores: 1, zones: 1 }, DEFAULT_ENCLAVE_MEM)
    }

    /// Build on an explicit topology.
    pub fn build_on(topo: Topology, mode: ExecMode, layout: HwLayout, enclave_mem: u64) -> World {
        let node = SimNode::new(NodeConfig {
            topology: topo.clone(),
        });
        let master = MasterControl::new(Arc::clone(&node));
        let controller = mode.config().map(|cfg| {
            let c = CovirtController::new(Arc::clone(&node), cfg);
            c.attach_hobbes(&master);
            c
        });
        let req = ResourceRequest::from_layout(layout, &topo, enclave_mem);
        let cores: Vec<usize> = req.cores.iter().map(|c| c.0).collect();
        let (enclave, kernel) = master
            .bring_up_enclave("workload", &req)
            .expect("enclave bring-up failed");
        World {
            node,
            master,
            controller,
            enclave,
            kernel,
            mode,
            cores,
            tlb: TlbParams::default(),
            alloc: Mutex::new(AllocPolicy::default()),
        }
    }

    /// Launch a guest execution context on one of the enclave's cores.
    pub fn guest_core(&self, core: usize) -> CovirtResult<GuestCore> {
        match &self.controller {
            Some(c) => GuestCore::launch_covirt(
                Arc::clone(&self.node),
                Arc::clone(&self.kernel),
                Arc::clone(c),
                core,
                self.tlb,
            ),
            None => GuestCore::launch_native(
                Arc::clone(&self.node),
                Arc::clone(&self.kernel),
                core,
                self.tlb,
            ),
        }
    }

    /// Launch a guest execution context on every enclave core, rank order.
    pub fn guest_cores(&self) -> Vec<GuestCore> {
        self.cores
            .iter()
            .map(|&c| self.guest_core(c).expect("guest core launch failed"))
            .collect()
    }

    /// Pin subsequent [`World::alloc_array`] calls to a NUMA zone. `None`
    /// (the default) restores the kernel's bump allocator over the first
    /// boot region; `Some(z)` carves from the boot region the enclave was
    /// assigned in zone `z`, so a multi-zone layout can place each core's
    /// working set in that core's local zone.
    pub fn set_alloc_zone(&self, zone: Option<usize>) {
        self.alloc.lock().zone = zone;
    }

    /// Allocate a contiguous, 2 MiB-aligned guest array of `bytes` from the
    /// enclave's memory; returns its (identity) virtual address. Honours
    /// the zone pin set by [`World::set_alloc_zone`].
    pub fn alloc_array(&self, bytes: u64) -> u64 {
        let mut st = self.alloc.lock();
        match st.zone {
            // Zone 0 is where the kernel's first boot region (and its
            // page-table pool) lives; the kernel allocator already skips
            // the pool, so both unpinned and zone-0-pinned requests share
            // one cursor and never overlap.
            None | Some(0) => self
                .kernel
                .alloc_contiguous(bytes, &mut st.cursor0)
                .expect("enclave memory exhausted — shrink the workload"),
            Some(z) => {
                let boot = self
                    .kernel
                    .memmap()
                    .by_kind(RegionKind::Boot)
                    .into_iter()
                    .find(|r| (r.range.start.raw() / ZONE_SPAN) as usize == z)
                    .unwrap_or_else(|| panic!("enclave has no boot region in zone {z}"));
                let cursor = st.zone_cursors.entry(z).or_insert(0);
                let base = boot.range.start.raw().div_ceil(PAGE_SIZE_2M) * PAGE_SIZE_2M;
                let aligned = (base + *cursor).div_ceil(PAGE_SIZE_2M) * PAGE_SIZE_2M;
                let len = bytes.div_ceil(PAGE_SIZE_2M) * PAGE_SIZE_2M;
                assert!(
                    aligned + len <= boot.range.end().raw(),
                    "zone {z} enclave memory exhausted — shrink the workload"
                );
                *cursor = aligned + len - base;
                aligned
            }
        }
    }

    /// Run `f(rank, guest_core)` on every enclave core concurrently, one
    /// OS thread per core (the workload's "OpenMP threads"). Results are
    /// returned in rank order.
    pub fn run_on_cores<R: Send>(&self, f: impl Fn(usize, &mut GuestCore) -> R + Sync) -> Vec<R> {
        let n = self.cores.len();
        let mut guests = self.guest_cores();
        if n == 1 {
            let r = f(0, &mut guests[0]);
            for g in guests {
                g.shutdown();
            }
            return vec![r];
        }
        let f = &f;
        std::thread::scope(|s| {
            let handles: Vec<_> = guests
                .into_iter()
                .enumerate()
                .map(|(rank, mut g)| {
                    s.spawn(move || {
                        let r = f(rank, &mut g);
                        g.shutdown();
                        r
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("workload thread panicked"))
                .collect()
        })
    }

    /// Launch every enclave core and keep it live — see [`LiveCores`].
    pub fn live_cores(
        &self,
        prime: impl Fn(&mut GuestCore) + Send + Sync + 'static,
        finish: impl Fn(&mut GuestCore) + Send + Sync + 'static,
    ) -> LiveCores {
        LiveCores::adopt(self.guest_cores(), prime, finish)
    }
}

/// Guest cores kept live for a control-plane driver: one thread per core
/// runs `prime`, reports ready, then polls at safe points — servicing the
/// controller's doorbells and NMIs — until [`LiveCores::stop`] or its
/// enclave's end, and runs `finish` on its own thread before handing the
/// core back. Dropping the handle stops and joins too, so no poller
/// outlives a panicking driver.
pub struct LiveCores {
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<GuestCore>>,
}

impl LiveCores {
    /// Take over already-launched cores (a driver that needs them parked
    /// first launches them itself); returns once every core has primed.
    pub fn adopt(
        guests: Vec<GuestCore>,
        prime: impl Fn(&mut GuestCore) + Send + Sync + 'static,
        finish: impl Fn(&mut GuestCore) + Send + Sync + 'static,
    ) -> LiveCores {
        let stop = Arc::new(AtomicBool::new(false));
        let primed = Arc::new(AtomicUsize::new(0));
        let hooks = Arc::new((prime, finish));
        let n = guests.len();
        let threads = guests
            .into_iter()
            .map(|mut g| {
                let (stop, primed, hooks) =
                    (Arc::clone(&stop), Arc::clone(&primed), Arc::clone(&hooks));
                std::thread::spawn(move || {
                    (hooks.0)(&mut g);
                    primed.fetch_add(1, Ordering::Release);
                    while !stop.load(Ordering::Acquire) {
                        if let Err(e) = g.poll() {
                            let ended = matches!(e, CovirtError::EnclaveTerminated(_));
                            assert!(ended, "live core poll failed: {e}");
                            break;
                        }
                        // The driver needs CPU time too on a host with
                        // fewer CPUs than enclave cores.
                        std::thread::yield_now();
                    }
                    (hooks.1)(&mut g);
                    g
                })
            })
            .collect();
        // Built before the wait so that unwinding out of it joins.
        let live = LiveCores { stop, threads };
        while primed.load(Ordering::Acquire) < n {
            // Nobody has been told to stop: a thread that ended, died.
            let died = live.threads.iter().any(JoinHandle::is_finished);
            assert!(!died, "a live core panicked while priming");
            std::thread::yield_now();
        }
        live
    }

    /// Stop polling and return the cores in rank order, `finish` applied.
    pub fn stop(mut self) -> Vec<GuestCore> {
        self.join()
            .into_iter()
            .map(|g| g.expect("live core thread panicked"))
            .collect()
    }

    fn join(&mut self) -> Vec<std::thread::Result<GuestCore>> {
        self.stop.store(true, Ordering::Release);
        self.threads.drain(..).map(JoinHandle::join).collect()
    }
}

impl Drop for LiveCores {
    fn drop(&mut self) {
        self.join();
    }
}

/// Split `n` items into `parts` contiguous ranges (for row/atom
/// partitioning across cores).
pub fn partition(n: usize, parts: usize) -> Vec<std::ops::Range<usize>> {
    let base = n / parts;
    let extra = n % parts;
    let mut out = Vec::with_capacity(parts);
    let mut start = 0;
    for i in 0..parts {
        let len = base + usize::from(i < extra);
        out.push(start..start + len);
        start += len;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use covirt::config::CovirtConfig;

    #[test]
    fn quick_world_native() {
        let w = World::quick(ExecMode::Native);
        assert_eq!(w.cores.len(), 1);
        assert!(w.controller.is_none());
        let mut g = w.guest_core(w.cores[0]).unwrap();
        let a = w.alloc_array(1024 * 1024);
        g.write_u64(a, 5).unwrap();
        assert_eq!(g.read_u64(a).unwrap(), 5);
    }

    #[test]
    fn covirt_world_builds_context() {
        let w = World::quick(ExecMode::Covirt(CovirtConfig::MEM));
        let ctl = w.controller.as_ref().unwrap();
        assert!(ctl.context(w.enclave.id.0).is_ok());
        let mut g = w.guest_core(w.cores[0]).unwrap();
        let a = w.alloc_array(1024 * 1024);
        g.write_u64(a, 9).unwrap();
        assert_eq!(g.read_u64(a).unwrap(), 9);
    }

    #[test]
    fn layouts_pick_distinct_cores() {
        let w = World::build(
            ExecMode::Native,
            HwLayout { cores: 8, zones: 2 },
            DEFAULT_ENCLAVE_MEM,
        );
        assert_eq!(w.cores.len(), 8);
        let mut sorted = w.cores.clone();
        sorted.dedup();
        assert_eq!(sorted.len(), 8);
    }

    #[test]
    fn run_on_cores_parallel_sum() {
        let w = World::build(
            ExecMode::Covirt(CovirtConfig::MEM),
            HwLayout { cores: 4, zones: 2 },
            DEFAULT_ENCLAVE_MEM,
        );
        let a = w.alloc_array(4 * 8 * 1024);
        let results = w.run_on_cores(|rank, g| {
            let base = a + (rank as u64) * 8 * 1024;
            for i in 0..1024u64 {
                g.write_u64(base + i * 8, rank as u64 + 1).unwrap();
            }
            let mut s = 0u64;
            for i in 0..1024u64 {
                s += g.read_u64(base + i * 8).unwrap();
            }
            s
        });
        assert_eq!(results, vec![1024, 2048, 3072, 4096]);
    }

    #[test]
    fn live_cores_stop_returns_every_core_in_rank_order_with_its_counters() {
        let w = crate::scenario::world(2);
        let a = w.alloc_array(1024 * 1024);
        let live = w.live_cores(
            move |g| g.write_u64(a + 8 * g.core as u64, 1).unwrap(),
            move |g| g.write_u64(a + 8 * g.core as u64, 2).unwrap(),
        );
        // Live means serviced: a broadcast barrier completes.
        let ctl = w.controller.as_ref().unwrap();
        ctl.shootdown_barrier(w.enclave.id.0).unwrap();
        let mut cores = live.stop();
        assert_eq!(cores.iter().map(|g| g.core).collect::<Vec<_>>(), w.cores);
        for g in &mut cores {
            assert!(g.counters().polls > 0, "core {} never polled", g.core);
            // `prime` then `finish` ran on this core.
            assert_eq!(g.read_u64(a + 8 * g.core as u64).unwrap(), 2);
        }
    }

    #[test]
    fn live_cores_dropped_or_unwound_past_are_joined() {
        use std::panic::{catch_unwind, AssertUnwindSafe};

        // `finish` runs on a core's thread as its last act, so the count
        // says how many pollers had ended by the time the handle was gone.
        let finished = Arc::new(AtomicUsize::new(0));
        let live = |w: &World, prime: fn(&mut GuestCore)| {
            let finished = Arc::clone(&finished);
            w.live_cores(prime, move |_| {
                finished.fetch_add(1, Ordering::SeqCst);
            })
        };

        drop(live(&crate::scenario::world(2), |_| {}));
        assert_eq!(finished.load(Ordering::SeqCst), 2, "dropped without stop()");

        let w = crate::scenario::world(2);
        let unwound = catch_unwind(AssertUnwindSafe(|| {
            let _live = live(&w, |_| {});
            panic!("driver failed with its cores live");
        }));
        assert!(unwound.is_err());
        assert_eq!(finished.load(Ordering::SeqCst), 4, "unwound past");

        // A core that dies priming fails the driver instead of hanging
        // it, and its sibling is stopped and joined.
        static PRIMED: AtomicUsize = AtomicUsize::new(0);
        let w = crate::scenario::world(2);
        let primed = catch_unwind(AssertUnwindSafe(|| {
            live(&w, |_| {
                let earlier = PRIMED.fetch_add(1, Ordering::SeqCst);
                assert_eq!(earlier, 0, "the second core to prime dies");
            })
        }));
        assert!(primed.is_err());
        assert_eq!(finished.load(Ordering::SeqCst), 5);
    }

    /// A teardown stops live cores, and their pollers end there instead of
    /// failing: `stop` hands back every core, each out of guest mode.
    #[test]
    fn live_cores_end_when_their_enclave_is_torn_down() {
        let w = crate::scenario::world(2);
        let live = w.live_cores(|_| {}, |_| {});
        w.master.pisces().teardown(&w.enclave).expect("teardown");
        let cores = live.stop();
        assert_eq!(cores.len(), 2);
        assert!(cores.iter().all(|g| g.terminated().is_some()));
    }

    #[test]
    fn alloc_array_distinct() {
        let w = World::quick(ExecMode::Native);
        let a = w.alloc_array(1024 * 1024);
        let b = w.alloc_array(1024 * 1024);
        assert_ne!(a, b);
        assert!(b >= a + 1024 * 1024);
    }

    #[test]
    fn alloc_array_zone_pinning() {
        use covirt_simhw::addr::HostPhysAddr;
        let topo = Topology {
            sockets: 2,
            cores_per_socket: 2,
            zones: 2,
            mem_per_zone: 128 * 1024 * 1024,
            tsc_hz: 1_000_000_000,
        };
        let w = World::build_on(
            topo,
            ExecMode::Native,
            HwLayout { cores: 2, zones: 2 },
            64 * 1024 * 1024,
        );
        let a0 = w.alloc_array(1024 * 1024);
        w.set_alloc_zone(Some(1));
        let a1 = w.alloc_array(1024 * 1024);
        let a1b = w.alloc_array(1024 * 1024);
        w.set_alloc_zone(None);
        let a2 = w.alloc_array(1024 * 1024);
        let zone = |a: u64| w.node.mem.zone_of(HostPhysAddr::new(a)).0;
        assert_eq!(zone(a0), 0);
        assert_eq!(zone(a1), 1);
        assert_eq!(zone(a1b), 1);
        assert_eq!(zone(a2), 0);
        assert_ne!(a1, a1b);
        // Unpinning resumes the zone-0 cursor rather than re-handing a0.
        assert_ne!(a0, a2);
        // The pinned array is live, mapped guest memory like any other.
        let mut g = w.guest_core(w.cores[0]).unwrap();
        g.write_u64(a1, 7).unwrap();
        assert_eq!(g.read_u64(a1).unwrap(), 7);
    }

    #[test]
    fn partition_covers_all() {
        let parts = partition(10, 3);
        assert_eq!(parts, vec![0..4, 4..7, 7..10]);
        let parts = partition(4, 4);
        assert_eq!(parts.iter().map(|r| r.len()).sum::<usize>(), 4);
        let parts = partition(3, 5);
        assert_eq!(parts.iter().map(|r| r.len()).sum::<usize>(), 3);
    }
}
