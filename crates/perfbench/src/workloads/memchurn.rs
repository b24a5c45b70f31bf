//! `memchurn` — the control-plane workload (paper Fig. 4's question for
//! dynamic memory: what does Covirt add to a grant and a reclaim?).
//!
//! One cycle grants 2 MiB, has the guest core write it, asks for it back
//! and processes acks until it is reclaimed — against one live, polling
//! guest thread. It exercises EPT map/unmap, the control channel, the
//! command queue, the doorbell, the guest-mode harvest, the range flush,
//! the allocator and snapshot publish/retire; the data-plane layers idle.
//! The native arm runs the same cycle with no controller hooked in.
//!
//! Two OS threads: the driver (host side) and one guest thread that owns
//! both arms' guest cores and services whichever arm is active — never
//! more than the sandbox's two vCPUs.

use super::{digest, warm, zone0_in_use, Arm, Finish, Latencies, ProbeTarget, Rng, Workload};
use crate::costs::Counts;
use crate::spans::Spans;
use covirt::GuestCore;
use covirt_simhw::addr::{PhysRange, PAGE_SIZE_2M};
use covirt_simhw::topology::{CoreId, HwLayout, ZoneId};
use kitten::KittenKernel;
use pisces::ctrlchan::CtrlMsg;
use pisces::resources::ResourceRequest;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering::SeqCst};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use workloads::World;

const GRANT_BYTES: u64 = PAGE_SIZE_2M;
const CYCLES_PER_REP: u64 = 100;
const ENCLAVE_MEM: u64 = 64 * 1024 * 1024;
/// A wait this long means a lost message, not a slow host.
const WAIT_LIMIT: Duration = Duration::from_secs(5);
/// How long the controller waits for a doorbell to be answered before it
/// falls back to an NMI.
const ESCALATION_BOUND: Duration = Duration::from_secs(1);
/// `Shared::request` value asking the guest thread to publish its
/// counters (never a valid 8-byte-aligned guest address).
const SNAPSHOT: u64 = 1;

/// What the driver and the guest thread share.
struct Shared {
    /// The arm whose kernel and core the guest thread services.
    active: AtomicUsize,
    /// 0 = nothing asked; [`SNAPSHOT`]; else the guest address to write
    /// `token` at.
    request: AtomicU64,
    token: AtomicU64,
    /// Requests served so far.
    served: AtomicU64,
    guest_errors: AtomicU64,
    stop: AtomicBool,
    tracing: AtomicBool,
    rep: AtomicU32,
    snapshot: Mutex<[Counts; 2]>,
}

/// What the guest thread hands back when it stops.
struct GuestSide {
    guests: [GuestCore; 2],
    spans: Spans,
}

fn guest_loop(
    shared: Arc<Shared>,
    kernels: [Arc<KittenKernel>; 2],
    mut guests: [GuestCore; 2],
    origin: Instant,
) -> GuestSide {
    let mut spans = Spans::new(origin);
    // Loop passes since the last control message or request.
    let mut idle = 0u32;
    while !shared.stop.load(SeqCst) {
        idle += 1;
        if idle > SPINS_BEFORE_YIELD {
            std::thread::yield_now();
        }
        let arm = shared.active.load(SeqCst);
        spans.set_on(shared.tracing.load(SeqCst));
        spans.set_rep(shared.rep.load(SeqCst));
        // The kernel's management bottom half, then the core's safe point:
        // what a live enclave core does between application work.
        let s = spans.enter("kitten.poll_ctrl");
        match kernels[arm].poll_ctrl() {
            Ok(handled) if handled.is_empty() => spans.discard(s),
            Ok(_) => {
                spans.exit(s);
                idle = 0;
            }
            Err(_) => {
                spans.exit(s);
                shared.guest_errors.fetch_add(1, SeqCst);
            }
        }
        if guests[arm].poll().is_err() {
            shared.guest_errors.fetch_add(1, SeqCst);
        }
        match shared.request.load(SeqCst) {
            0 => continue,
            SNAPSHOT => {
                *shared.snapshot.lock().expect("snapshot lock") =
                    [Counts::of_core(&guests[0]), Counts::of_core(&guests[1])];
            }
            addr => {
                // The driver set `active` before asking, so this is the
                // arm the grant went to.
                let g = &mut guests[shared.active.load(SeqCst)];
                let token = shared.token.load(SeqCst);
                let far = addr + GRANT_BYTES / 2;
                let landed = g.write_u64(addr, token).is_ok()
                    && g.write_u64(far, !token).is_ok()
                    && g.read_u64(addr).ok() == Some(token)
                    && g.read_u64(far).ok() == Some(!token);
                if !landed {
                    shared.guest_errors.fetch_add(1, SeqCst);
                }
            }
        }
        shared.request.store(0, SeqCst);
        shared.served.fetch_add(1, SeqCst);
        idle = 0;
    }
    GuestSide { guests, spans }
}

pub struct Memchurn {
    worlds: [World; 2],
    shared: Arc<Shared>,
    thread: Option<JoinHandle<GuestSide>>,
    /// The guest cores, once the guest thread has stopped.
    stopped: Option<GuestSide>,
    rng: Rng,
    latencies: Latencies,
    /// Zone-0 bytes in use per arm while nothing is granted.
    idle_in_use: [u64; 2],
    /// Digest of every token the guest wrote and the host read back.
    checksum: u64,
}

/// Polls a waiting thread spins through before it starts yielding. When
/// the host leaves the sandbox only one vCPU, two threads that spin on each
/// other pay a whole scheduler timeslice per hand-off (cycles of 20 ms
/// instead of 40 µs were measured); yielding after a short spin costs
/// nothing while both vCPUs run and keeps hand-offs short when they do not.
const SPINS_BEFORE_YIELD: u32 = 200;

/// Spin, then yield, until `done()` or the wait limit.
fn wait_until(mut done: impl FnMut() -> bool) -> bool {
    let start = Instant::now();
    let mut polls = 0u32;
    while !done() {
        if start.elapsed() > WAIT_LIMIT {
            return false;
        }
        polls += 1;
        if polls > SPINS_BEFORE_YIELD {
            std::thread::yield_now();
        } else {
            std::hint::spin_loop();
        }
    }
    true
}

impl Memchurn {
    /// Hand the guest thread a request and wait until it is served.
    fn ask(&self, request: u64) -> bool {
        let before = self.shared.served.load(SeqCst);
        self.shared.request.store(request, SeqCst);
        wait_until(|| self.shared.served.load(SeqCst) > before)
    }

    /// One grant → write → reclaim cycle; `None` on any failure.
    fn cycle(&mut self, arm: Arm, spans: &mut Spans) -> Option<()> {
        let world = &self.worlds[arm as usize];
        let (pisces, enclave) = (world.master.pisces(), &world.enclave);

        let t0 = Instant::now();
        let s = spans.enter("pisces.add_memory");
        let range = pisces.add_memory(enclave, ZoneId(0), GRANT_BYTES).ok()?;
        spans.exit(s);
        let s = spans.enter("pisces.acks_grant");
        let start = range.start.raw();
        let acked = wait_until(|| {
            pisces.process_acks(enclave).is_ok_and(|msgs| {
                msgs.iter()
                    .any(|m| matches!(m, CtrlMsg::AddMemAck { start: s, .. } if *s == start))
            })
        });
        spans.exit(s);
        let grant_us = t0.elapsed().as_nanos() as f64 / 1000.0;
        if !acked {
            return None;
        }

        // The guest core writes the grant and reads it back. Under Covirt
        // the host also sees the bytes land. Natively it cannot: nothing
        // models the co-kernel's own INVLPG, so a native core writes a
        // re-granted range through its stale TLB entry, into the retired
        // backing (recorded in README.md).
        let token = self.rng.next_u64();
        self.shared.token.store(token, SeqCst);
        let errors = self.shared.guest_errors.load(SeqCst);
        let host_sees = |at, want| world.node.mem.read_u64(at).ok() == Some(want);
        let wrote = self.ask(start)
            && self.shared.guest_errors.load(SeqCst) == errors
            && (arm == Arm::Native
                || (host_sees(range.start, token)
                    && host_sees(range.start.add(GRANT_BYTES / 2), !token)));
        self.checksum = digest(self.checksum, token);

        let t1 = Instant::now();
        let s = spans.enter("pisces.request_remove");
        pisces.request_remove_memory(enclave, range).ok()?;
        spans.exit(s);
        let s = spans.enter("pisces.acks_reclaim");
        // `process_acks` returns the ack only after the hooks ran, the
        // partition shrank and the memory went back to the host.
        let reclaimed = wait_until(|| {
            pisces.process_acks(enclave).is_ok_and(|msgs| {
                msgs.iter()
                    .any(|m| matches!(m, CtrlMsg::RemoveMemAck { start: s, .. } if *s == start))
            })
        }) && !enclave.resources().mem.contains(&range);
        spans.exit(s);
        let reclaim_us = t1.elapsed().as_nanos() as f64 / 1000.0;

        if arm == Arm::Covirt {
            self.latencies.entry("grant").or_default().push(grant_us);
            self.latencies
                .entry("reclaim")
                .or_default()
                .push(reclaim_us);
        }
        (wrote && reclaimed).then_some(())
    }

    /// Stop the guest thread and take the guest cores back.
    fn stop(&mut self) -> &mut GuestSide {
        if let Some(t) = self.thread.take() {
            self.shared.stop.store(true, SeqCst);
            self.stopped = Some(t.join().expect("guest thread panicked"));
        }
        self.stopped.as_mut().expect("guest thread was started")
    }

    /// `core.controller.barrier` spans: a pure command round trip to the
    /// live, polling core.
    fn barrier_sample(&mut self, spans: &mut Spans, rounds: usize) {
        self.shared.active.store(Arm::Covirt as usize, SeqCst);
        let world = &self.worlds[Arm::Covirt as usize];
        let ctl = world.controller.as_ref().expect("covirt world");
        for _ in 0..rounds {
            let s = spans.enter("core.controller.barrier");
            ctl.shootdown_barrier(world.enclave.id.0).expect("barrier");
            spans.exit(s);
        }
    }

    /// `xemem.attach_2m` / `xemem.detach_2m` spans: export, attach, detach
    /// and destroy a 2 MiB segment to a consumer enclave with no running
    /// core (the paper's Fig. 4 path).
    fn xemem_sample(&mut self, spans: &mut Spans, rounds: usize) {
        let world = &self.worlds[Arm::Covirt as usize];
        let req = ResourceRequest::new(
            vec![CoreId(world.cores[0] - 1)],
            vec![(ZoneId(0), 32 * 1024 * 1024)],
        );
        let (consumer, _kernel) = world
            .master
            .bring_up_enclave("consumer", &req)
            .expect("consumer enclave");
        self.idle_in_use[Arm::Covirt as usize] = zone0_in_use(world);
        let owned = world.enclave.resources().mem[0];
        let segment = PhysRange::new(
            owned
                .start
                .add(owned.len - GRANT_BYTES)
                .align_down(PAGE_SIZE_2M),
            GRANT_BYTES,
        );
        for i in 0..rounds {
            let name = format!("perfbench-{i}");
            world
                .master
                .export_segment(world.enclave.id.0, &name, segment)
                .expect("export");
            let s = spans.enter("xemem.attach_2m");
            world
                .master
                .attach_segment(consumer.id.0, &name)
                .expect("attach");
            spans.exit(s);
            let s = spans.enter("xemem.detach_2m");
            world
                .master
                .detach_segment(consumer.id.0, &name)
                .expect("detach");
            spans.exit(s);
            world.master.destroy_segment(&name).expect("destroy");
        }
    }
}

impl Workload for Memchurn {
    const NAME: &'static str = "memchurn";
    const OPS_PER_REP: u64 = CYCLES_PER_REP;
    const PAIRS_PER_SECOND: f64 = 95.0;
    const THREADS: usize = 2;

    fn setup(seed: u64) -> Memchurn {
        let worlds = [Arm::Native, Arm::Covirt]
            .map(|arm| World::build(arm.mode(), HwLayout { cores: 1, zones: 1 }, ENCLAVE_MEM));
        if let Some(ctl) = &worlds[Arm::Covirt as usize].controller {
            // The controller's 10 ms default is meant to outlast scheduler
            // hiccups; this sandbox's host deschedules a thread for longer
            // than that about once in four million cycles. With a second of
            // grace an escalation means a lost doorbell, which is a failure.
            ctl.set_escalation_bound_ns(ESCALATION_BOUND.as_nanos() as u64);
        }
        let guests = [0, 1].map(|i| {
            worlds[i]
                .guest_core(worlds[i].cores[0])
                .expect("guest core launch")
        });
        let kernels = [0, 1].map(|i| Arc::clone(&worlds[i].kernel));
        let shared = Arc::new(Shared {
            active: AtomicUsize::new(0),
            request: AtomicU64::new(0),
            token: AtomicU64::new(0),
            served: AtomicU64::new(0),
            guest_errors: AtomicU64::new(0),
            stop: AtomicBool::new(false),
            tracing: AtomicBool::new(false),
            rep: AtomicU32::new(0),
            snapshot: Mutex::new([Counts::default(); 2]),
        });
        let thread = {
            let shared = Arc::clone(&shared);
            let origin = Instant::now();
            std::thread::spawn(move || guest_loop(shared, kernels, guests, origin))
        };
        let idle_in_use = [0, 1].map(|i| zone0_in_use(&worlds[i]));
        let mut w = Memchurn {
            worlds,
            shared,
            thread: Some(thread),
            stopped: None,
            rng: Rng::new(seed),
            latencies: Latencies::new(),
            idle_in_use,
            checksum: 0,
        };
        warm(&mut w);
        w.latencies.clear();
        w
    }

    fn rep(&mut self, arm: Arm, spans: &mut Spans) -> u64 {
        self.shared.active.store(arm as usize, SeqCst);
        self.shared.tracing.store(spans.is_on(), SeqCst);
        self.shared.rep.store(spans.rep(), SeqCst);
        let mut failed = 0;
        for _ in 0..CYCLES_PER_REP {
            failed += u64::from(self.cycle(arm, spans).is_none());
        }
        failed
    }

    fn counts(&mut self, arm: Arm) -> Counts {
        let core = if self.thread.is_some() {
            assert!(self.ask(SNAPSHOT), "guest thread stopped answering");
            self.shared.snapshot.lock().expect("snapshot lock")[arm as usize]
        } else {
            Counts::of_core(&self.stop().guests[arm as usize])
        };
        let world = &self.worlds[arm as usize];
        core.plus(&Counts::of_node(
            &world.node.mem,
            world.controller.as_deref(),
            world.enclave.id.0,
        ))
    }

    fn in_use_bytes(&self, arm: Arm) -> u64 {
        zone0_in_use(&self.worlds[arm as usize])
    }

    fn take_latencies(&mut self) -> Latencies {
        std::mem::take(&mut self.latencies)
    }

    /// Barrier and XEMEM samples, then the guest thread's own spans. The
    /// workload runs no reps after this.
    fn trace_extras(&mut self, spans: &mut Spans, batches: usize) {
        self.shared.tracing.store(false, SeqCst);
        self.barrier_sample(spans, 10 * batches);
        self.xemem_sample(spans, 10 * batches);
        let guest_spans = std::mem::replace(&mut self.stop().spans, Spans::new(Instant::now()));
        spans.absorb(guest_spans);
    }

    /// Every cycle checked its own grant; what is left is node-wide: the
    /// doorbell path never needed the NMI fallback, and every granted byte
    /// came back.
    fn finish(&mut self) -> Finish {
        let escalations = self.worlds[Arm::Covirt as usize]
            .controller
            .as_ref()
            .map_or(0, |c| c.nmi_escalation_count());
        let leaked = [Arm::Native, Arm::Covirt]
            .iter()
            .filter(|&&arm| self.in_use_bytes(arm) != self.idle_in_use[arm as usize])
            .count() as u64;
        Finish {
            failed: escalations + leaked + self.shared.guest_errors.load(SeqCst),
            checksum: self.checksum,
        }
    }

    fn probe_target(&mut self) -> ProbeTarget<'_> {
        self.stop();
        let world = &self.worlds[Arm::Covirt as usize];
        let owned = world.enclave.resources().mem[0];
        let guest = &mut self.stopped.as_mut().expect("stopped").guests[Arm::Covirt as usize];
        ProbeTarget {
            world,
            pages: (1..=4)
                .map(|p| owned.end().raw() - p * PAGE_SIZE_2M)
                .collect(),
            guest,
        }
    }
}

impl Drop for Memchurn {
    fn drop(&mut self) {
        if let Some(t) = self.thread.take() {
            self.shared.stop.store(true, SeqCst);
            // A guest-thread panic already failed the run's asserts.
            let _ = t.join();
        }
    }
}
