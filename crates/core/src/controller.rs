//! The Covirt controller module.
//!
//! The controller is the management half of Covirt's split architecture:
//! it is "integrated with the master control process" and "hooks into the
//! control paths that manage the system-wide hardware configuration". It
//! builds each enclave's virtualization context before boot (which is what
//! interposes the hypervisor: a core of an enclave with a context starts
//! under it). Everything it hands a hypervisor that lives in physical
//! memory — the EPT's table frames and each core's command queue — comes
//! from one frame pool the controller reserves once per node and no EPT
//! maps, so no co-kernel can write its hypervisor's state. Afterwards it
//! translates every resource-management event into direct edits of that
//! context:
//!
//! * memory grant   → EPT map, then return immediately (asynchronous —
//!   the enclave keeps running while the mapping is installed);
//! * memory reclaim → EPT unmap, then one flush command to every live
//!   enclave core, signalled by its polled doorbell (no interrupt is sent:
//!   the core checks the doorbell at every safe point), blocking until
//!   each completes —
//!   so Pisces frees no frame a core may still cache. A core that has not
//!   answered within the escalation bound is kicked with an NMI; a bound
//!   of zero sends the NMI with the post, which is the paper's NMI-only
//!   protocol. A core that answers neither within a few seconds more
//!   fails the reclaim with an error naming it, and so does a post that
//!   finds the core's command ring full; the removal stays pending;
//! * vector alloc/free → whitelist edit, **no** hypervisor coordination
//!   (the hypervisor reads the whitelist fresh on every trap — only state
//!   the CPU may cache needs the command queue);
//! * XEMEM attach/detach → same as grant/reclaim, via the Hobbes hooks;
//!   the master runs the detach hook too for every attacher of a segment
//!   that is destroyed, or whose owner ends, under it;
//! * teardown (orderly, faulted or the operator's kill) → one `Terminate`
//!   round trip, so every live core of the enclave has left guest mode
//!   before Pisces frees its partition; if one never answers, Pisces
//!   frees nothing.

use crate::cmdqueue::{CmdQueue, Command};
use crate::config::CovirtConfig;
use crate::fault::{FaultLog, FaultReport};
use crate::hypervisor::TORN_DOWN;
use crate::vctx::{VirtContext, CMD_DOORBELL_VECTOR};
use crate::{CovirtError, CovirtResult};
use covirt_simhw::addr::{PhysRange, PAGE_SIZE_4K};
use covirt_simhw::ept::Ept;
use covirt_simhw::error::HwResult;
use covirt_simhw::interconnect::{DeliveryMode, IpiDest};
use covirt_simhw::node::SimNode;
use covirt_simhw::paging::FramePool;
use covirt_simhw::posted::PostedIntDescriptor;
use covirt_simhw::topology::ZoneId;
use covirt_trace::{EventKind, Phase, Tracer};
use hobbes::events::HobbesHooks;
use hobbes::MasterControl;
use parking_lot::{Mutex, RwLock};
use pisces::enclave::Enclave;
use pisces::hooks::EnclaveHooks;
use pisces::host::PiscesHost;
use pisces::resources::ResourceSpec;
use pisces::ring::Batch;
use pisces::{EnclaveState, PiscesError, PiscesResult};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, Weak};
use std::time::Duration;

/// Bytes of host memory the node reserves, once, for the frames of every
/// enclave it will ever host: its EPT's tables and one command queue per
/// core. An enclave takes a handful of frames (its grants are 2 MiB-aligned
/// and coalesce into large leaves) and returns them when its context
/// drops, so 4096 frames bound the enclaves *alive at once*, not the
/// enclaves ever created.
const FRAME_POOL_BYTES: u64 = 16 * 1024 * 1024;

/// Reclaims at or below this size are shot down with a `TlbFlushRange`
/// command; larger ones fall back to a full flush. On the host either
/// flush visits only the entries the core holds, so the choice rests on
/// the modelled cost: a ranged flush spares the refills of the entries it
/// keeps, which stops paying once the range dwarfs the TLB's reach.
pub const DEFAULT_RANGE_FLUSH_THRESHOLD: u64 = 16 * 1024 * 1024;

/// How long past the escalation bound a round trip waits for a core
/// before it gives up with a [`FlushTimeout`] naming the core. Of 100 000
/// waits in the tests, `figures bench` and traced perfbench on a 2-vCPU
/// host the longest on a polled core took 12 ms, on a deliberately parked
/// one 0.3 s (EXPERIMENTS.md, "One command round trip"): a core this
/// silent is not polled.
const COMPLETION_GRACE: Duration = Duration::from_secs(3);

/// Live cores one pass of a command round trip posts to before it waits
/// on them; an enclave with more live cores takes several passes.
const ROUND_TRIP_CORES: usize = 64;

/// Default time a core gets to acknowledge a doorbell-delivered command
/// before the controller escalates to an NMI kick. Generous relative to a
/// polling core's harvest latency (microseconds) so host-scheduler hiccups
/// never trigger spurious escalations, yet bounded so a core parked
/// outside any safe point is kicked promptly.
pub const DEFAULT_ESCALATION_BOUND_NS: u64 = 10_000_000;

/// The controller module. One instance manages every Covirt-protected
/// enclave on the node.
pub struct CovirtController {
    node: Arc<SimNode>,
    config: CovirtConfig,
    /// Every managed enclave's context, sorted by enclave id: a lookup is
    /// a binary search over the enclaves alive, no hashing.
    contexts: RwLock<Vec<(u64, Arc<VirtContext>)>>,
    /// The master control process this controller reports faults to: one,
    /// set when it attaches (see [`Self::attach_hobbes`]).
    master: OnceLock<Weak<MasterControl>>,
    /// Every contained fault, counted; the latest kept.
    pub faults: FaultLog,
    /// Broadcast shootdowns issued (instrumentation).
    shootdowns: AtomicU64,
    /// Nanoseconds a core gets to acknowledge a doorbell before the
    /// controller escalates to an NMI kick; 0 sends the NMI with the post.
    escalation_bound_ns: AtomicU64,
    /// Doorbell deliveries that timed out and escalated to an NMI.
    nmi_escalations: AtomicU64,
    /// The node's frames for hypervisor state — every enclave's EPT tables
    /// and command queues; reserved when the first enclave boots and kept
    /// for the life of the node. Read without a lock once reserved.
    frame_pool: OnceLock<Arc<FramePool>>,
    /// Held by the one bring-up that reserves the frame pool.
    reserving: Mutex<()>,
    /// Flight-recorder handle on the controller lane.
    tracer: Tracer,
}

impl CovirtController {
    /// Create a controller enforcing `config` on every enclave it manages.
    pub fn new(node: Arc<SimNode>, config: CovirtConfig) -> Arc<Self> {
        let tracer = node.controller_tracer();
        Arc::new(CovirtController {
            node,
            config,
            contexts: RwLock::new(Vec::new()),
            master: OnceLock::new(),
            faults: FaultLog::new(),
            shootdowns: AtomicU64::new(0),
            escalation_bound_ns: AtomicU64::new(DEFAULT_ESCALATION_BOUND_NS),
            nmi_escalations: AtomicU64::new(0),
            frame_pool: OnceLock::new(),
            reserving: Mutex::new(()),
            tracer,
        })
    }

    /// Register with the Pisces framework (boot + memory + vector hooks).
    pub fn attach_pisces(self: &Arc<Self>, host: &PiscesHost) {
        host.register_hooks(Arc::clone(self) as Arc<dyn EnclaveHooks>);
    }

    /// Register with the Hobbes master control (XEMEM hooks + fault
    /// notification path). Also attaches to its Pisces instance, where a
    /// fault the host finds itself (a control ring it cannot read) is then
    /// reported here, on core 0 (the host's), before it reaches Hobbes.
    /// A controller serves one master: faults go to the first it attached
    /// to.
    pub fn attach_hobbes(self: &Arc<Self>, master: &Arc<MasterControl>) {
        let _ = self.master.set(Arc::downgrade(master));
        master.register_hooks(Arc::clone(self) as Arc<dyn HobbesHooks>);
        self.attach_pisces(master.pisces());
        let ctl = Arc::downgrade(self);
        master.pisces().set_fault_path(move |enclave, reason| {
            if let Some(ctl) = ctl.upgrade() {
                ctl.report_fault(enclave, 0, reason);
            }
        });
    }

    /// The feature set this controller enforces.
    pub fn config(&self) -> CovirtConfig {
        self.config
    }

    /// The virtualization context for an enclave.
    pub fn context(&self, enclave: u64) -> CovirtResult<Arc<VirtContext>> {
        let contexts = self.contexts.read();
        match contexts.binary_search_by_key(&enclave, |(id, _)| *id) {
            Ok(i) => Ok(Arc::clone(&contexts[i].1)),
            Err(_) => Err(CovirtError::NoContext(enclave)),
        }
    }

    /// How many broadcast shootdowns this controller has issued.
    pub fn shootdown_count(&self) -> u64 {
        self.shootdowns.load(Ordering::Relaxed)
    }

    /// Bound the doorbell-acknowledgement window: a core that has not
    /// advanced its completion counter within `ns` is escalated to an NMI
    /// kick. A bound of 0 is the paper's NMI-only protocol: the NMI goes
    /// out with every post, beside the doorbell, and is not counted as an
    /// escalation.
    pub fn set_escalation_bound_ns(&self, ns: u64) {
        self.escalation_bound_ns.store(ns, Ordering::Relaxed);
    }

    /// How many doorbell deliveries escalated to an NMI kick.
    pub fn nmi_escalation_count(&self) -> u64 {
        self.nmi_escalations.load(Ordering::Relaxed)
    }

    /// Post `cmd` to `core`'s queue, then signal the core — the first half
    /// of a command round trip. Returns the command's sequence number; a
    /// full ring fails the post with the error a timed-out wait returns.
    ///
    /// The signal is the doorbell vector posted into the core's descriptor,
    /// whose outstanding-notification bit the core checks at every safe
    /// point; no notification IPI is sent. At an escalation bound of 0 an
    /// NMI goes first, so a safe point that begins after the doorbell rang
    /// takes the NMI exit, whose drain answers the doorbell too.
    fn post_and_signal(
        &self,
        enclave: u64,
        core: usize,
        q: &CmdQueue,
        doorbell: &PostedIntDescriptor,
        cmd: Command,
    ) -> CovirtResult<u64> {
        let stamp = if self.tracer.enabled() {
            self.node.clock.rdtsc()
        } else {
            0
        };
        let seq = q.post_at(cmd, stamp)?;
        if self.escalation_bound_ns.load(Ordering::Relaxed) == 0 {
            let nmi = DeliveryMode::Nmi;
            self.node.interconnect.send(0, IpiDest::Core(core), nmi)?;
        }
        doorbell.post(CMD_DOORBELL_VECTOR);
        self.tracer
            .emit_for(enclave, EventKind::CmdDoorbell, seq, core as u64);
        Ok(seq)
    }

    /// Post a single `Sync` command to `core`, signalled as every post is,
    /// and return its sequence number — the caller owns the completion
    /// wait (poll `vctx.cmdq(core)`). Takes the prefetched
    /// context (see [`Self::context`]) so the per-command span contains no
    /// map lookup or queue clone. Benchmarks drive this to measure pure
    /// per-command delivery latency (post → signal → drain → complete)
    /// with the guest polled from the same thread, excluding scheduler
    /// noise the blocking barrier wait would add.
    pub fn post_sync(&self, vctx: &VirtContext, core: usize) -> CovirtResult<u64> {
        let slot = vctx.cmdq(core).zip(vctx.cmd_doorbell(core));
        let (q, doorbell) = slot.ok_or(CovirtError::Invalid("core has no command queue"))?;
        self.post_and_signal(vctx.enclave_id, core, q, doorbell, Command::Sync)
    }

    /// One command round trip: post `cmd` to *every* live core and signal
    /// them all (doorbell posts, with NMIs at a bound of 0) before waiting
    /// on anything, so the per-core work executes concurrently; then
    /// collect the completions in a single pass. Total latency is therefore
    /// max(per-core) + one signal delivery, not the sum over cores. What
    /// the wait needs of each core is held inline, for up to
    /// [`ROUND_TRIP_CORES`] live cores a pass.
    ///
    /// A core that has not acknowledged within a nonzero escalation bound
    /// is kicked with an NMI once (and the escalation counted), so a core
    /// parked outside any harvest safe point still converges. A core that
    /// leaves guest mode meanwhile is not waited for: it never runs on what
    /// it cached again. A core that does neither within
    /// [`COMPLETION_GRACE`] past the bound is named in the error.
    fn round_trip(&self, vctx: &VirtContext, cmd: Command) -> CovirtResult<()> {
        let mut live = vctx.live_slots().peekable();
        while live.peek().is_some() {
            let mut waits = Batch::<_, ROUND_TRIP_CORES>::new();
            for (core, q, doorbell) in live.by_ref().take(ROUND_TRIP_CORES) {
                let seq = self.post_and_signal(vctx.enclave_id, core, q, doorbell, cmd)?;
                // `take` leaves the batch room.
                let _ = waits.push((core, q, seq));
            }
            self.await_completions(vctx, &waits)?;
        }
        Ok(())
    }

    /// The waiting half of [`Self::round_trip`]: each `(core, queue, seq)`
    /// completes, escalates, or its core leaves guest mode — or the first
    /// that does none of these by the deadline fails the round trip.
    fn await_completions(
        &self,
        vctx: &VirtContext,
        waits: &[(usize, &CmdQueue, u64)],
    ) -> CovirtResult<()> {
        // The wait is control-plane time forced by *this* enclave, so
        // covirt-prof attributes it to the enclave on the overlay (the
        // calling thread has no per-core timeline to conserve against).
        let prof = self.node.recorder().profiler();
        let w0 = prof.enabled().then(|| self.node.clock.rdtsc());
        let bound_ns = self.escalation_bound_ns.load(Ordering::Relaxed);
        let bound = Duration::from_nanos(bound_ns);
        let deadline = bound.saturating_add(COMPLETION_GRACE);
        for &(core, q, seq) in waits {
            // The doorbell went unanswered: kick with an NMI (the
            // interconnect emits NmiKick for the audit trail). At a bound
            // of 0 the NMI already went with the post.
            let kick = || {
                self.nmi_escalations.fetch_add(1, Ordering::Relaxed);
                let nmi = DeliveryMode::Nmi;
                let _ = self.node.interconnect.send(0, IpiDest::Core(core), nmi);
            };
            let escalate = (bound_ns > 0).then_some((bound, &kick as &dyn Fn()));
            q.wait(seq, deadline, escalate, &|| vctx.is_live(core))?;
        }
        if let Some(w0) = w0 {
            prof.attribute(
                vctx.enclave_id,
                Phase::ShootdownWait,
                self.node.clock.rdtsc().saturating_sub(w0),
            );
        }
        Ok(())
    }

    /// The node's frame pool, reserved on first use.
    fn frame_pool(&self) -> HwResult<&Arc<FramePool>> {
        if let Some(pool) = self.frame_pool.get() {
            return Ok(pool);
        }
        let _one = self.reserving.lock();
        if let Some(pool) = self.frame_pool.get() {
            return Ok(pool);
        }
        let mem = &self.node.mem;
        let region = mem.alloc_window(ZoneId(0), FRAME_POOL_BYTES, PAGE_SIZE_4K)?;
        Ok(self
            .frame_pool
            .get_or_init(|| Arc::new(FramePool::over(Arc::clone(mem), &region))))
    }

    /// Frames currently held by enclaves' EPTs and command queues (0
    /// before the first enclave boots). Every frame comes back when the
    /// last handle on its enclave's [`VirtContext`] — or on one of its
    /// queues — drops.
    pub fn frames_outstanding(&self) -> u64 {
        self.frame_pool.get().map_or(0, |pool| pool.outstanding())
    }

    /// Build the full virtualization context for an enclave about to boot,
    /// reading its partition in place, and register it.
    ///
    /// A teardown may kill the enclave while the context is built. Its hook
    /// then finds no context to remove, so the context is registered only
    /// if the enclave is still alive, checked under the registry's lock,
    /// which the teardown's hook takes after the kill: whichever side comes
    /// second removes the context. A context not registered goes, with its
    /// frames, when this returns the launch's refusal.
    fn build_context(&self, enclave: &Enclave) -> PiscesResult<()> {
        let pool = self.frame_pool()?;
        let vctx = Arc::new(enclave.with_resources(|res| self.assemble(enclave, res, pool))?);
        let id = enclave.id.0;
        let mut contexts = self.contexts.write();
        if !EnclaveState::NOT_DEAD.contains(&enclave.state()) {
            return Err(PiscesError::BadState {
                enclave: id,
                op: "launch",
            });
        }
        match contexts.binary_search_by_key(&id, |(id, _)| *id) {
            Ok(i) => contexts[i].1 = vctx,
            Err(i) => contexts.insert(i, (id, vctx)),
        }
        Ok(())
    }

    /// The context of `enclave`, whose partition is `res`, with its tables
    /// and queues taken from `pool`.
    fn assemble(
        &self,
        enclave: &Enclave,
        res: &ResourceSpec,
        pool: &Arc<FramePool>,
    ) -> PiscesResult<VirtContext> {
        // EPT: identity map of everything the enclave owns, coalesced into
        // the largest possible pages, and of the management region (boot
        // parameters, control channel), which must be guest-reachable too;
        // full permissions, one map each.
        let ept = if self.config.memory {
            let ept = Ept::new(Arc::clone(pool))?;
            for r in &res.mem {
                ept.map_identity(*r, 3)?;
                self.tracer
                    .emit_for(enclave.id.0, EventKind::EptMap, r.start.raw(), r.len);
            }
            ept.map_identity(enclave.mgmt_region, 1)?;
            Some(Arc::new(ept))
        } else {
            None
        };

        // Pisces admitted only cores the node has.
        let cpus = res.cores.iter().filter_map(|&c| self.node.cpu(c).ok());
        let cpus = cpus.map(Arc::clone);
        let mut vctx = VirtContext::new(enclave.id.0, self.config, cpus, &res.ipi_vectors, ept);

        // Pre-boot VMCS guest state: every core launches "at the kernel
        // entry" with RDI = the unmodified Pisces boot parameters. And one
        // command queue per core, each in a frame of the node's pool:
        // hypervisor state the guest has no mapping of.
        vctx.prepare_cores(enclave.params_addr().raw(), |core| {
            let q = CmdQueue::create(pool.take_frame()?)
                .map_err(|_| PiscesError::Invalid("command queue creation failed"))?;
            let traced = q
                .with_core(core as u64)
                .traced(self.tracer.clone().with_enclave(enclave.id.0));
            Ok::<_, PiscesError>(traced)
        })?;
        Ok(vctx)
    }

    /// Unmap a range and synchronize every live core's TLB and EPT walk
    /// cache — the EPT edit alone leaves both serving the old translation.
    /// Returns only once every live core has flushed the range, so the
    /// caller may hand its frames to a new owner.
    pub(crate) fn unmap_and_flush(&self, enclave: u64, range: PhysRange) -> CovirtResult<()> {
        let Ok(vctx) = self.context(enclave) else {
            return Ok(()); // not a Covirt-managed enclave
        };
        // Without memory protection there is nothing to unmap.
        if let Some(ept) = vctx.ept.as_ref() {
            ept.unmap(range)?;
            self.tracer
                .emit_for(enclave, EventKind::Reclaim, range.start.raw(), range.len);
            self.broadcast_shootdown(&vctx, range)?;
        }
        Ok(())
    }

    /// Broadcast shootdown: one [`Self::round_trip`] of one flush command.
    ///
    /// A range at or under the range-flush threshold gets a
    /// `TlbFlushRange`, so each core keeps its unrelated TLB entries and
    /// walk-cache lines; a larger one a `TlbFlushAll`. A ranged flush is the RISC-V
    /// `HFENCE.GVMA` form; VT-x's INVEPT has no ranged type, and its
    /// single-context form would clear the whole walk cache on every
    /// reclaim.
    fn broadcast_shootdown(&self, vctx: &VirtContext, range: PhysRange) -> CovirtResult<()> {
        // The LWK identity-maps its assignment, so the guest-virtual
        // address of a reclaimed frame is its guest-physical address.
        let ranged = range.len <= DEFAULT_RANGE_FLUSH_THRESHOLD;
        let cmd = match ranged {
            true => Command::TlbFlushRange {
                gva: range.start.raw(),
                len: range.len,
            },
            false => Command::TlbFlushAll,
        };
        let traced = self.tracer.enabled();
        let t0 = if traced { self.node.clock.rdtsc() } else { 0 };
        if traced {
            self.tracer.emit_at_for(
                vctx.enclave_id,
                EventKind::ShootdownBegin,
                t0,
                range.len,
                ranged as u64,
            );
        }
        self.round_trip(vctx, cmd)?;
        self.shootdowns.fetch_add(1, Ordering::Relaxed);
        if traced {
            let rtt = self.node.clock.ns_since(t0);
            self.tracer
                .emit_for(vctx.enclave_id, EventKind::ShootdownEnd, rtt, 0);
        }
        Ok(())
    }

    /// Run one command round trip of `Sync` commands (post to every live
    /// core, signal it, wait for all acks) without touching any state. This
    /// is the pure synchronization cost of a shootdown — benchmarks use it
    /// to measure how latency scales with core count.
    pub fn shootdown_barrier(&self, enclave: u64) -> CovirtResult<()> {
        match self.context(enclave) {
            Ok(vctx) => self.round_trip(&vctx, Command::Sync),
            Err(_) => Ok(()),
        }
    }

    /// Fault containment entry point, called by the execution environment
    /// when a hypervisor instance terminates its enclave: record the
    /// report and tell the master control process, which reclaims the
    /// enclave's resources and notifies dependants — in that order, so a
    /// notice never precedes its report and the report does not depend on
    /// the reclaim returning. What the reclaim returned joins it afterwards.
    /// Also the operator's kill switch (`core` 0): the reclaim's teardown
    /// stops the enclave's cores.
    pub fn report_fault(&self, enclave: u64, core: usize, reason: impl Into<Arc<str>>) {
        let reason = reason.into();
        self.tracer
            .emit_for(enclave, EventKind::FaultReport, enclave, core as u64);
        let filed = self.faults.record(FaultReport {
            enclave,
            core,
            reason: Arc::clone(&reason),
            tsc: self.node.clock.rdtsc(),
            reclaim: None,
        });
        if let Some(master) = self.master.get().and_then(Weak::upgrade) {
            let reclaim = master.handle_enclave_failure(enclave, reason);
            self.faults.set_reclaim(filed, reclaim);
        }
    }

    /// Map `range` into the enclave's EPT, if it has one, and trace it as
    /// `kind`. Returns as soon as the mapping is in: the guest keeps
    /// running, and Pisces may transmit the page list meanwhile.
    ///
    /// A map that fails has rolled back and given the frames of the tables
    /// it linked back to the node's pool, while a core whose walk raced it
    /// may hold a line leading into one: the range is shot down before the
    /// error returns.
    fn map_and_trace(&self, enclave: u64, range: PhysRange, kind: EventKind) -> HwResult<()> {
        let Ok(vctx) = self.context(enclave) else {
            return Ok(());
        };
        let Some(ept) = vctx.ept.as_ref() else {
            return Ok(());
        };
        if let Err(e) = ept.map_identity(range, 3) {
            let _ = self.broadcast_shootdown(&vctx, range);
            return Err(e);
        }
        self.tracer
            .emit_for(enclave, kind, range.start.raw(), range.len);
        Ok(())
    }
}

/// A failed round trip for Pisces: a core that never answered the flush
/// or the stop makes the resource busy, with the core named.
fn flush_error(e: CovirtError) -> PiscesError {
    match e {
        CovirtError::Hw(e) => PiscesError::Hw(e),
        e => PiscesError::ResourceBusy(e.to_string().into()),
    }
}

impl EnclaveHooks for CovirtController {
    fn on_launch(&self, enclave: &Enclave) -> PiscesResult<()> {
        self.build_context(enclave)
    }

    fn on_mem_add_prepared(&self, enclave: &Enclave, range: PhysRange) -> PiscesResult<()> {
        self.map_and_trace(enclave.id.0, range, EventKind::Grant)
            .map_err(PiscesError::Hw)
    }

    /// The kernel never heard of the range, but the EPT mapped it: a core
    /// whose kernel strayed into it holds its translations until the
    /// shootdown, like a reclaim's.
    fn on_mem_add_aborted(&self, enclave: &Enclave, range: PhysRange) -> PiscesResult<()> {
        self.unmap_and_flush(enclave.id.0, range)
            .map_err(flush_error)
    }

    fn on_mem_remove_acked(&self, enclave: &Enclave, range: PhysRange) -> PiscesResult<()> {
        self.unmap_and_flush(enclave.id.0, range)
            .map_err(flush_error)
    }

    fn on_vector_alloc(&self, enclave: &Enclave, vector: u8) -> PiscesResult<()> {
        if let Ok(vctx) = self.context(enclave.id.0) {
            vctx.whitelist.add_vector(vector);
            self.tracer
                .emit_for(enclave.id.0, EventKind::VectorAlloc, vector as u64, 0);
        }
        Ok(())
    }

    fn on_vector_free(&self, enclave: &Enclave, vector: u8) -> PiscesResult<()> {
        if let Ok(vctx) = self.context(enclave.id.0) {
            vctx.whitelist.remove_vector(vector);
            self.tracer
                .emit_for(enclave.id.0, EventKind::VectorFree, vector as u64, 0);
        }
        Ok(())
    }

    /// Before the enclave's frames go back, one `Terminate` round trip
    /// stops every core still in guest mode, with the reason the enclave
    /// ended; one that never answers is named in the error.
    fn on_teardown(&self, enclave: &Enclave) -> PiscesResult<()> {
        let id = enclave.id.0;
        let removed = {
            let mut contexts = self.contexts.write();
            let at = contexts.binary_search_by_key(&id, |(id, _)| *id);
            at.ok().map(|i| contexts.remove(i).1)
        };
        let Some(vctx) = removed else {
            return Ok(());
        };
        // A fault named the end already when its core aborted.
        if vctx.termination().is_none() {
            match enclave.state() {
                EnclaveState::Failed(why) => vctx.terminate(why),
                _ => vctx.terminate(TORN_DOWN),
            };
        }
        self.tracer.emit_for(id, EventKind::Teardown, id, 0);
        self.round_trip(&vctx, Command::Terminate)
            .map_err(flush_error)
    }
}

impl HobbesHooks for CovirtController {
    fn on_xemem_attach_prepared(&self, enclave: u64, range: PhysRange) -> Result<(), String> {
        self.map_and_trace(enclave, range, EventKind::XememAttach)
            .map_err(|e| e.to_string())
    }

    fn on_xemem_detach_acked(&self, enclave: u64, range: PhysRange) -> Result<(), String> {
        self.tracer.emit_for(
            enclave,
            EventKind::XememDetach,
            range.start.raw(),
            range.len,
        );
        self.unmap_and_flush(enclave, range)
            .map_err(|e| e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use covirt_simhw::node::NodeConfig;
    use covirt_simhw::paging::{Access, DirectLoad};
    use covirt_simhw::topology::CoreId;
    use pisces::resources::ResourceRequest;

    fn setup(config: CovirtConfig) -> (Arc<MasterControl>, Arc<CovirtController>) {
        let node = SimNode::new(NodeConfig::small());
        let master = MasterControl::new(Arc::clone(&node));
        let ctl = CovirtController::new(node, config);
        ctl.attach_hobbes(&master);
        (master, ctl)
    }

    fn req() -> ResourceRequest {
        ResourceRequest::new(
            vec![CoreId(1), CoreId(2)],
            vec![(ZoneId(0), 64 * 1024 * 1024)],
        )
    }

    #[test]
    fn boot_plan_is_interposed_and_context_built() {
        let (master, ctl) = setup(CovirtConfig::MEM);
        let (enclave, _kernel) = master.bring_up_enclave("e0", &req()).unwrap();
        let vctx = ctl.context(enclave.id.0).unwrap();
        assert_eq!(vctx.cores(), vec![1, 2]);
        // Every core is set to enter the kernel with the unmodified Pisces
        // parameters in RDI, and has its queue.
        for core in [1, 2] {
            let rdi = vctx.vmcs(core).unwrap().read().guest.rdi;
            assert_eq!(rdi, enclave.params_addr().raw());
            assert!(vctx.cmdq(core).is_some());
        }
        let ept = vctx.ept.as_ref().unwrap();
        // The whole assignment translates identity.
        let r = enclave.resources().mem[0];
        let t = ept
            .translate(
                covirt_simhw::addr::GuestPhysAddr::new(r.start.raw() + 4096),
                Access::Read,
                &DirectLoad(&master.pisces().node().mem),
            )
            .unwrap();
        assert_eq!(t.pa.raw(), r.start.raw() + 4096);
    }

    #[test]
    fn outside_assignment_violates() {
        let (master, ctl) = setup(CovirtConfig::MEM);
        let (enclave, _kernel) = master.bring_up_enclave("e0", &req()).unwrap();
        let vctx = ctl.context(enclave.id.0).unwrap();
        let bad = covirt_simhw::addr::GuestPhysAddr::new(0x3f_0000_0000);
        assert!(vctx
            .ept
            .as_ref()
            .unwrap()
            .translate(bad, Access::Write, &DirectLoad(&master.pisces().node().mem))
            .is_err());
    }

    #[test]
    fn grant_maps_ept_before_guest_sees_it() {
        let (master, ctl) = setup(CovirtConfig::MEM);
        let (enclave, kernel) = master.bring_up_enclave("e0", &req()).unwrap();
        let vctx = ctl.context(enclave.id.0).unwrap();
        let range = master
            .pisces()
            .add_memory(&enclave, ZoneId(0), 4 * 1024 * 1024)
            .unwrap();
        // EPT mapping exists even though the kernel has not polled yet.
        assert!(vctx
            .ept
            .as_ref()
            .unwrap()
            .translate(
                covirt_simhw::addr::GuestPhysAddr::new(range.start.raw()),
                Access::Write,
                &DirectLoad(&master.pisces().node().mem)
            )
            .is_ok());
        assert!(
            !kernel.memmap().contains(range.start, 8),
            "guest map updates only on poll"
        );
        kernel.poll_ctrl().unwrap();
        assert!(kernel.memmap().contains(range.start, 8));
    }

    #[test]
    fn reclaim_unmaps_after_ack() {
        let (master, ctl) = setup(CovirtConfig::MEM);
        let (enclave, kernel) = master.bring_up_enclave("e0", &req()).unwrap();
        let vctx = ctl.context(enclave.id.0).unwrap();
        let range = master
            .pisces()
            .add_memory(&enclave, ZoneId(0), 2 * 1024 * 1024)
            .unwrap();
        kernel.poll_ctrl().unwrap();
        master.pisces().process_acks(&enclave).unwrap();

        master
            .pisces()
            .request_remove_memory(&enclave, range)
            .unwrap();
        kernel.poll_ctrl().unwrap(); // guest acks
                                     // No live guest cores → flush completes immediately.
        master.pisces().process_acks(&enclave).unwrap();
        assert!(vctx
            .ept
            .as_ref()
            .unwrap()
            .translate(
                covirt_simhw::addr::GuestPhysAddr::new(range.start.raw()),
                Access::Read,
                &DirectLoad(&master.pisces().node().mem)
            )
            .is_err());
    }

    #[test]
    fn each_reclaim_shoots_down_once() {
        let (master, ctl) = setup(CovirtConfig::MEM);
        let (enclave, kernel) = master.bring_up_enclave("e0", &req()).unwrap();
        let r1 = master
            .pisces()
            .add_memory(&enclave, ZoneId(0), 2 * 1024 * 1024)
            .unwrap();
        let r2 = master
            .pisces()
            .add_memory(&enclave, ZoneId(0), 2 * 1024 * 1024)
            .unwrap();
        kernel.poll_ctrl().unwrap();
        master.pisces().process_acks(&enclave).unwrap();
        let before = ctl.shootdown_count();
        for (i, r) in [r1, r2].into_iter().enumerate() {
            master.pisces().request_remove_memory(&enclave, r).unwrap();
            kernel.poll_ctrl().unwrap();
            master.pisces().process_acks(&enclave).unwrap();
            assert_eq!(ctl.shootdown_count(), before + i as u64 + 1, "{r:?}");
        }
    }

    #[test]
    fn vector_hooks_edit_whitelist() {
        let (master, ctl) = setup(CovirtConfig::MEM_IPI);
        let (enclave, _kernel) = master.bring_up_enclave("e0", &req()).unwrap();
        let vctx = ctl.context(enclave.id.0).unwrap();
        let v = master.pisces().alloc_vector(&enclave).unwrap();
        assert!(vctx.whitelist.would_allow(1, v));
        master.pisces().free_vector(&enclave, v).unwrap();
        assert!(!vctx.whitelist.would_allow(1, v));
    }

    #[test]
    fn xemem_attach_maps_and_detach_unmaps() {
        let (master, ctl) = setup(CovirtConfig::MEM);
        let (e1, _k1) = master.bring_up_enclave("p", &req()).unwrap();
        let (e2, _k2) = master
            .bring_up_enclave(
                "c",
                &ResourceRequest::new(vec![CoreId(3)], vec![(ZoneId(0), 32 * 1024 * 1024)]),
            )
            .unwrap();
        let r1 = e1.resources().mem[0];
        let seg = PhysRange::new(r1.start.add(r1.len - 2 * 1024 * 1024), 2 * 1024 * 1024);
        master.export_segment(e1.id.0, "x", seg).unwrap();
        master.attach_segment(e2.id.0, "x").unwrap();

        let vctx2 = ctl.context(e2.id.0).unwrap();
        let mem = &master.pisces().node().mem;
        assert!(vctx2
            .ept
            .as_ref()
            .unwrap()
            .translate(
                covirt_simhw::addr::GuestPhysAddr::new(seg.start.raw()),
                Access::Write,
                &DirectLoad(mem)
            )
            .is_ok());
        master.detach_segment(e2.id.0, "x").unwrap();
        assert!(vctx2
            .ept
            .as_ref()
            .unwrap()
            .translate(
                covirt_simhw::addr::GuestPhysAddr::new(seg.start.raw()),
                Access::Read,
                &DirectLoad(mem)
            )
            .is_err());
    }

    /// A report reaches the log before the master acts on it — a dependant
    /// told of the failure finds it filed — and then carries the reclaim's
    /// outcome.
    #[test]
    fn fault_report_flows_to_master() {
        struct Dependant(Arc<CovirtController>, AtomicU64);
        impl HobbesHooks for Dependant {
            fn on_dependency_failed(&self, _dependent: u64, failed: u64) {
                let filed = self.0.faults.for_enclave(failed).len() as u64;
                self.1.store(filed, Ordering::SeqCst);
            }
        }
        let (master, ctl) = setup(CovirtConfig::MEM);
        let (enclave, _kernel) = master.bring_up_enclave("e0", &req()).unwrap();
        let peer = ResourceRequest::new(vec![CoreId(3)], vec![(ZoneId(0), 32 << 20)]);
        let (peer, _kernel) = master.bring_up_enclave("peer", &peer).unwrap();
        let seg = PhysRange::new(enclave.resources().mem[0].start, 2 << 20);
        master.export_segment(enclave.id.0, "x", seg).unwrap();
        master.attach_segment(peer.id.0, "x").unwrap();
        let dependant = Arc::new(Dependant(Arc::clone(&ctl), AtomicU64::new(0)));
        master.register_hooks(Arc::clone(&dependant) as Arc<dyn HobbesHooks>);

        ctl.report_fault(enclave.id.0, 1, "EPT violation at 0xdead");
        assert_eq!(ctl.faults.count(), 1);
        assert!(matches!(enclave.state(), pisces::EnclaveState::Failed(_)));
        assert_eq!(ctl.faults.all()[0].reclaim, Some(Ok(())));
        assert_eq!(dependant.1.load(Ordering::SeqCst), 1, "notice came first");
    }

    #[test]
    fn enclaves_share_one_pool_and_return_their_frames_when_they_drop() {
        let (master, ctl) = setup(CovirtConfig::MEM);
        let mem = &master.pisces().node().mem;
        assert_eq!(ctl.frames_outstanding(), 0);
        let idle = mem.zone_usage(ZoneId(0)).unwrap().1;
        let (e1, _k1) = master.bring_up_enclave("e1", &req()).unwrap();
        // Its EPT's four tables (root, PDPT, PD and the management region's
        // PT) and one command queue for each of its two cores.
        let one = ctl.frames_outstanding();
        assert_eq!(one, 4 + 2);
        let with_one = mem.zone_usage(ZoneId(0)).unwrap().1;
        let small = ResourceRequest::new(vec![CoreId(3)], vec![(ZoneId(0), 64 * 1024 * 1024)]);
        let (e2, _k2) = master.bring_up_enclave("e2", &small).unwrap();
        // The second enclave took frames, not a second pool: the same EPT
        // and one queue fewer, and zone 0 grew by exactly what the first
        // enclave itself cost beyond the pool.
        assert_eq!(ctl.frames_outstanding(), 2 * one - 1);
        let with_two = mem.zone_usage(ZoneId(0)).unwrap().1;
        assert_eq!(with_two - with_one, with_one - idle - FRAME_POOL_BYTES);

        // Teardown drops the controller's handle; a holder of the context
        // (a terminated guest core, a benchmark) keeps the frames alive.
        let held = ctl.context(e2.id.0).unwrap();
        master.pisces().teardown(&e2).unwrap();
        assert_eq!(ctl.frames_outstanding(), 2 * one - 1);
        drop(held);
        assert_eq!(ctl.frames_outstanding(), one);
        master.pisces().teardown(&e1).unwrap();
        assert_eq!(ctl.frames_outstanding(), 0);
        assert_eq!(
            mem.zone_usage(ZoneId(0)).unwrap().1,
            idle + FRAME_POOL_BYTES
        );

        // Without memory protection an enclave still gets its queues from
        // the pool, which its first bring-up reserves: one frame per core,
        // back when the last handle on the context drops.
        let (master, ctl) = setup(CovirtConfig::NONE);
        let mem = &master.pisces().node().mem;
        let idle = mem.zone_usage(ZoneId(0)).unwrap().1;
        let (e, _k) = master.bring_up_enclave("e", &req()).unwrap();
        assert_eq!(ctl.frames_outstanding(), 2);
        let held = ctl.context(e.id.0).unwrap();
        master.pisces().teardown(&e).unwrap();
        assert_eq!(ctl.frames_outstanding(), 2);
        drop(held);
        assert_eq!(ctl.frames_outstanding(), 0);
        assert_eq!(
            mem.zone_usage(ZoneId(0)).unwrap().1,
            idle + FRAME_POOL_BYTES
        );
    }

    /// Every writer of the pool's frames cleans up after itself: an
    /// enclave's EPT (leaves at every level, a 2 MiB leaf split by an
    /// unmap, a map refused mid-way and rolled back) and its used command
    /// queues come back to the pool clean: every frame the pool hands out
    /// next reads zero.
    #[test]
    fn frames_come_back_to_the_pool_clean() {
        use crate::cmdqueue::Command;
        use covirt_simhw::addr::{HostPhysAddr, PAGE_SIZE_1G, PAGE_SIZE_2M};

        let (master, ctl) = setup(CovirtConfig::MEM);
        let (enclave, _kernel) = master.bring_up_enclave("e0", &req()).unwrap();
        let vctx = ctl.context(enclave.id.0).unwrap();
        let ept = vctx.ept.as_ref().unwrap();
        // The bring-up mapped 2 MiB and 4 KiB leaves; add a 1 GiB one far
        // above RAM (the EPT maps, it does not allocate).
        let far = PhysRange::new(HostPhysAddr::new(64 * PAGE_SIZE_1G), PAGE_SIZE_1G);
        ept.map_identity(far, 3).unwrap();
        let (l4k, l2m, l1g) = ept.leaf_counts().unwrap();
        assert!(l4k > 0 && l2m > 0 && l1g == 1);
        // An unmap inside a 2 MiB leaf fills a whole PT with the split.
        let ram = enclave.resources().mem[0];
        let page = PhysRange::new(ram.start.add(PAGE_SIZE_2M + PAGE_SIZE_4K), PAGE_SIZE_4K);
        let split = ctl.frames_outstanding();
        ept.unmap(page).unwrap();
        assert_eq!(ctl.frames_outstanding(), split + 1, "the split took a PT");
        // 4 KiB leaves across a 2 MiB boundary of a fresh GiB need a PD and
        // two PTs; with two frames left the map links the PD, writes the
        // first PT's leaves, is refused at the second and rolls back.
        let pool = ctl.frame_pool().unwrap();
        let mut hoard = Vec::new();
        while let Ok(frame) = pool.alloc_frame() {
            hoard.push(frame);
        }
        let mut spare = hoard.split_off(hoard.len() - 2);
        for &frame in &spare {
            pool.free_frame(frame).unwrap();
        }
        let boundary = 65 * PAGE_SIZE_1G + PAGE_SIZE_2M;
        let across = PhysRange::new(
            HostPhysAddr::new(boundary - 2 * PAGE_SIZE_4K),
            3 * PAGE_SIZE_4K,
        );
        assert!(ept.map_identity(across, 1).is_err());
        // What the pool hands out next is what the map wrote and gave back.
        let next: Vec<_> = (0..2).map(|_| pool.take_frame().unwrap()).collect();
        let mut taken: Vec<_> = next.iter().map(|f| f.window().base()).collect();
        taken.sort();
        spare.sort();
        assert_eq!(taken, spare);
        for f in &next {
            let w = f.window();
            for off in (0..PAGE_SIZE_4K).step_by(8) {
                assert_eq!(w.read_u64(w.base().add(off)).unwrap(), 0, "{:?}", w.base());
            }
        }
        drop(next);
        for frame in hoard {
            pool.free_frame(frame).unwrap();
        }
        for core in vctx.cores() {
            let q = vctx.cmdq(core).unwrap();
            for gva in 1..=4 {
                let page = Command::TlbFlushRange {
                    gva: gva << 12,
                    len: PAGE_SIZE_4K,
                };
                q.post(page).unwrap();
            }
        }
        let out = ctl.frames_outstanding();
        drop(vctx);
        master.pisces().teardown(&enclave).unwrap();
        assert_eq!(ctl.frames_outstanding(), 0);

        let frames: Vec<_> = (0..out).map(|_| pool.take_frame().unwrap()).collect();
        for f in &frames {
            let w = f.window();
            for off in (0..PAGE_SIZE_4K).step_by(8) {
                assert_eq!(w.read_u64(w.base().add(off)).unwrap(), 0, "{:?}", w.base());
            }
        }
    }

    /// The same return through a teardown whose EPT split a 2 MiB leaf and
    /// whose queue wrapped its ring: the EPT's frames come back in one
    /// pool call, the queues' with them, and every frame the pool hands
    /// out next — those very frames — reads zero.
    #[test]
    fn frames_come_back_to_the_pool_clean_after_a_split_and_a_wrapped_ring() {
        use crate::cmdqueue::{Command, CMD_SLOTS};
        use covirt_simhw::addr::PAGE_SIZE_2M;

        let (master, ctl) = setup(CovirtConfig::MEM);
        let (enclave, _kernel) = master.bring_up_enclave("e0", &req()).unwrap();
        let vctx = ctl.context(enclave.id.0).unwrap();
        let ram = enclave.resources().mem[0];
        let page = PhysRange::new(ram.start.add(PAGE_SIZE_2M + PAGE_SIZE_4K), PAGE_SIZE_4K);
        let split = ctl.frames_outstanding();
        vctx.ept.as_ref().unwrap().unmap(page).unwrap();
        assert_eq!(ctl.frames_outstanding(), split + 1, "the split took a PT");
        // Three rings' worth through core 1's queue, drained as its
        // hypervisor would: every slot written, the cursors past the end.
        let q = vctx.cmdq(1).unwrap();
        for gva in 0..3 * CMD_SLOTS {
            q.post(Command::TlbFlushRange {
                gva: gva << 12,
                len: PAGE_SIZE_4K,
            })
            .unwrap();
            assert_eq!(q.drain().len(), 1);
        }
        let queues: Vec<_> = vctx
            .cores()
            .iter()
            .map(|&c| vctx.cmdq(c).unwrap().range().start)
            .collect();
        let out = ctl.frames_outstanding();
        drop(vctx);
        master.pisces().teardown(&enclave).unwrap();
        assert_eq!(ctl.frames_outstanding(), 0);

        let pool = ctl.frame_pool().unwrap();
        let frames: Vec<_> = (0..out).map(|_| pool.take_frame().unwrap()).collect();
        let taken: Vec<_> = frames.iter().map(|f| f.window().base()).collect();
        assert!(
            queues.iter().all(|q| taken.contains(q)),
            "{queues:?} not among {taken:?}"
        );
        for f in &frames {
            let w = f.window();
            for off in (0..PAGE_SIZE_4K).step_by(8) {
                assert_eq!(w.read_u64(w.base().add(off)).unwrap(), 0, "{:?}", w.base());
            }
        }
    }

    /// A teardown that kills the enclave while its launch builds the
    /// context — here a hook ahead of the controller's — finds no context
    /// to remove; the launch, coming second, removes it. Nothing stays
    /// registered, no frame stays out, and the core is not entered.
    #[test]
    fn a_launch_that_loses_to_a_teardown_leaves_no_context() {
        use crate::exec::GuestCore;
        use covirt_simhw::tlb::TlbParams;
        use kitten::KittenKernel;

        struct TearDownAtLaunch(Weak<PiscesHost>);
        impl EnclaveHooks for TearDownAtLaunch {
            fn on_launch(&self, enclave: &Enclave) -> PiscesResult<()> {
                match self.0.upgrade() {
                    Some(host) => host.teardown(enclave),
                    None => Ok(()),
                }
            }
        }
        let node = SimNode::new(NodeConfig::small());
        let master = MasterControl::new(Arc::clone(&node));
        let pisces = master.pisces();
        pisces.register_hooks(Arc::new(TearDownAtLaunch(Arc::downgrade(pisces))));
        let ctl = CovirtController::new(Arc::clone(&node), CovirtConfig::MEM);
        ctl.attach_hobbes(&master);

        let enclave = pisces.create_enclave("e0", &req()).unwrap();
        let kernel = Arc::new(KittenKernel::boot(&node.mem, enclave.params_addr()).unwrap());
        let err = pisces.launch(&enclave).unwrap_err();
        assert!(matches!(err, PiscesError::BadState { .. }), "{err}");
        assert_eq!(enclave.state(), EnclaveState::Terminated);
        assert_eq!(ctl.frames_outstanding(), 0);
        assert!(matches!(
            ctl.context(enclave.id.0),
            Err(CovirtError::NoContext(_))
        ));
        let core = GuestCore::launch_covirt(node, kernel, ctl, 1, TlbParams::default());
        assert!(matches!(core.err(), Some(CovirtError::NoContext(_))));
    }

    /// A bring-up whose launch the EPT pool refuses changes nothing: the
    /// new enclave is torn down — partition, management region, record —
    /// and once the frames are back the same bring-up goes through.
    #[test]
    fn a_bring_up_refused_by_an_exhausted_ept_pool_changes_nothing() {
        use covirt_simhw::HwError;

        let (master, ctl) = setup(CovirtConfig::MEM);
        let node = Arc::clone(master.pisces().node());
        let (_e0, _k0) = master.bring_up_enclave("e0", &req()).unwrap();
        let pool = ctl.frame_pool().unwrap();
        let mut hoard = Vec::new();
        while let Ok(frame) = pool.alloc_frame() {
            hoard.push(frame);
        }
        let state = || {
            (
                node.mem.zone_usage(ZoneId(0)).unwrap(),
                ctl.frames_outstanding(),
                master.pisces().enclaves().len(),
            )
        };
        let before = state();
        let small = ResourceRequest::new(vec![CoreId(3)], vec![(ZoneId(0), 32 << 20)]);
        let Err(err) = master.bring_up_enclave("e1", &small) else {
            panic!("the bring-up went through");
        };
        assert!(
            matches!(
                err,
                hobbes::HobbesError::Pisces(PiscesError::Hw(HwError::OutOfMemory { .. }))
            ),
            "{err}"
        );
        assert_eq!(state(), before);

        for frame in hoard {
            pool.free_frame(frame).unwrap();
        }
        let (e1, _k1) = master.bring_up_enclave("e1", &small).unwrap();
        assert!(ctl.context(e1.id.0).is_ok());
    }

    /// The co-kernel cannot forge its hypervisor's acknowledgements: no
    /// core's completion counter or ring header is writable through the
    /// enclave's EPT.
    #[test]
    fn no_command_queue_word_is_writable_through_the_ept() {
        use crate::cmdqueue::{OFF_COMPLETION, OFF_RING};
        use covirt_simhw::addr::GuestPhysAddr;
        use covirt_simhw::HwError;

        let (master, ctl) = setup(CovirtConfig::MEM);
        let (enclave, _kernel) = master.bring_up_enclave("e0", &req()).unwrap();
        let vctx = ctl.context(enclave.id.0).unwrap();
        let ept = vctx.ept.as_ref().unwrap();
        let mem = &master.pisces().node().mem;
        for core in vctx.cores() {
            let base = vctx.cmdq(core).unwrap().range().start;
            for off in [OFF_COMPLETION, OFF_RING] {
                let gpa = GuestPhysAddr::new(base.raw() + off);
                match ept.translate(gpa, Access::Write, &DirectLoad(mem)) {
                    Err(HwError::EptViolation { .. }) => {}
                    other => panic!("core {core}: the word at {gpa} is reachable: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn grant_refused_by_an_exhausted_ept_pool_changes_nothing() {
        let mut topology = covirt_simhw::topology::Topology::small();
        topology.zones = 2;
        let node = SimNode::new(NodeConfig { topology });
        let master = MasterControl::new(Arc::clone(&node));
        let ctl = CovirtController::new(Arc::clone(&node), CovirtConfig::MEM);
        ctl.attach_hobbes(&master);
        let (enclave, _kernel) = master.bring_up_enclave("e0", &req()).unwrap();
        let vctx = ctl.context(enclave.id.0).unwrap();

        // Leave the pool a single frame. The enclave's first grant from
        // zone 1 sits under a PML4 entry of its own and needs two: the
        // first allocation succeeds, the second is the refusal.
        let pool = ctl.frame_pool().unwrap();
        let mut hoard = Vec::new();
        while let Ok(frame) = pool.alloc_frame() {
            hoard.push(frame);
        }
        pool.free_frame(hoard.pop().unwrap()).unwrap();

        let state = || {
            (
                node.mem.zone_usage(ZoneId(0)).unwrap(),
                node.mem.zone_usage(ZoneId(1)).unwrap(),
                enclave.resources(),
                ctl.frames_outstanding(),
                vctx.ept.as_ref().unwrap().leaf_counts().unwrap(),
            )
        };
        let before = state();
        let err = master
            .pisces()
            .add_memory(&enclave, ZoneId(1), 2 * 1024 * 1024)
            .unwrap_err();
        assert!(
            matches!(
                err,
                PiscesError::Hw(covirt_simhw::HwError::OutOfMemory { .. })
            ),
            "{err}"
        );
        assert_eq!(state(), before);
        assert_eq!(ctl.shootdown_count(), 1, "the refused range was shot down");

        // With the frames back the same grant goes through.
        for frame in hoard {
            pool.free_frame(frame).unwrap();
        }
        let range = master
            .pisces()
            .add_memory(&enclave, ZoneId(1), 2 * 1024 * 1024)
            .unwrap();
        assert!(vctx
            .ept
            .as_ref()
            .unwrap()
            .translate(
                covirt_simhw::addr::GuestPhysAddr::new(range.start.raw()),
                Access::Write,
                &DirectLoad(&node.mem)
            )
            .is_ok());
    }

    /// A co-kernel that never polls fills the 64-slot control ring; the
    /// grant that finds it full was already allocated, EPT-mapped and
    /// recorded, and must be undone down to the last leaf.
    #[test]
    fn grant_refused_by_a_full_control_ring_changes_nothing() {
        let (master, ctl) = setup(CovirtConfig::MEM);
        let node = Arc::clone(master.pisces().node());
        let (enclave, kernel) = master.bring_up_enclave("e0", &req()).unwrap();
        let vctx = ctl.context(enclave.id.0).unwrap();
        let grant = || master.pisces().add_memory(&enclave, ZoneId(0), 64 * 1024);
        let mut granted = Vec::new();
        let state = || {
            (
                node.mem.zone_usage(ZoneId(0)).unwrap(),
                enclave.resources(),
                vctx.ept.as_ref().unwrap().leaf_counts().unwrap(),
                kernel.memmap().regions().len(),
            )
        };
        let (before, err) = loop {
            let before = state();
            match grant() {
                Ok(r) => granted.push(r),
                Err(e) => break (before, e),
            }
        };
        assert_eq!(granted.len(), 64, "the ring holds 64 messages");
        assert!(matches!(err, PiscesError::ResourceBusy(_)), "{err}");
        assert_eq!(state(), before);

        // Once the kernel drains the ring the same grant goes through and
        // every earlier one is there to be used.
        master.pisces().process_acks(&enclave).unwrap();
        kernel.poll_ctrl().unwrap();
        granted.push(grant().unwrap());
        master.pisces().process_acks(&enclave).unwrap();
        kernel.poll_ctrl().unwrap();
        for r in granted {
            assert!(kernel.memmap().contains(r.start, 8));
        }
    }

    #[test]
    fn teardown_drops_context() {
        let (master, ctl) = setup(CovirtConfig::NONE);
        let (enclave, _kernel) = master.bring_up_enclave("e0", &req()).unwrap();
        assert!(ctl.context(enclave.id.0).is_ok());
        master.pisces().teardown(&enclave).unwrap();
        assert!(matches!(
            ctl.context(enclave.id.0),
            Err(CovirtError::NoContext(_))
        ));
    }

    #[test]
    fn no_memory_protection_means_no_ept() {
        let (master, ctl) = setup(CovirtConfig::NONE);
        let (enclave, _kernel) = master.bring_up_enclave("e0", &req()).unwrap();
        let vctx = ctl.context(enclave.id.0).unwrap();
        assert!(vctx.ept.is_none());
        // Reclaim with no EPT is a no-op and must not fail.
        let range = master
            .pisces()
            .add_memory(&enclave, ZoneId(0), 2 * 1024 * 1024)
            .unwrap();
        let k = master.kernel(enclave.id.0).unwrap();
        k.poll_ctrl().unwrap();
        master.pisces().process_acks(&enclave).unwrap();
        master
            .pisces()
            .request_remove_memory(&enclave, range)
            .unwrap();
        k.poll_ctrl().unwrap();
        master.pisces().process_acks(&enclave).unwrap();
    }
}
