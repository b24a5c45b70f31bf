//! The guest execution environment.
//!
//! A [`GuestCore`] is "code running on one enclave CPU": it owns the core's
//! TLB and (when Covirt is interposed) the per-core hypervisor instance,
//! and provides the primitives simulated guest software uses —
//!
//! * **memory access** through the translation path: TLB probe on the hit
//!   path (identical in every configuration), a real page walk on the miss
//!   path — one-level natively, nested guest×EPT under Covirt memory
//!   protection. Overheads therefore *emerge* from executed walk code.
//! * **IPI transmission** through the ICR — direct natively, trapped and
//!   whitelisted under IPI protection.
//! * **safe points** ([`GuestCore::poll`]) where timers fire, NMIs drain
//!   the command queue, and pending interrupts are delivered (with VM
//!   exits where the configuration requires them).
//!
//! A thread drives at most one `GuestCore`, mirroring hardware ownership.

use crate::config::ExecMode;
use crate::controller::CovirtController;
use crate::hypervisor::{ExitAction, Hypervisor};
use crate::vctx::{VirtContext, PIV_NOTIFICATION_VECTOR, TIMER_VECTOR};
use crate::{CovirtError, CovirtResult};
use covirt_simhw::addr::{GuestPhysAddr, HostPhysAddr, PAGE_SIZE_2M};
use covirt_simhw::apic::{IcrCommand, ICR_MODE_FIXED, ICR_SH_NONE};
use covirt_simhw::cpu::Cpu;
use covirt_simhw::ept::{Ept, WalkCache};
use covirt_simhw::error::{HwError, HwResult};
use covirt_simhw::exit::ExitReason;
use covirt_simhw::memory::{PhysMemory, RegionCache};
use covirt_simhw::node::SimNode;
use covirt_simhw::paging::{Access, CachedLoad, TableLoad, Translation};
use covirt_simhw::tlb::{Tlb, TlbParams};
use covirt_trace::{EventKind, Phase, PhaseTracker, Tracer};
use kitten::faults::InjectedFault;
use kitten::KittenKernel;
use std::cell::Cell;
use std::sync::Arc;

/// Modelled cost of the guest's timer-interrupt handler (the detour the
/// Selfish benchmark sees even natively).
pub const TIMER_HANDLER_NS: u64 = 400;

/// The data path moves aligned words (DESIGN.md §7). A misaligned one is
/// the guest's own fault, refused before any translation: no exit, and the
/// core runs on.
#[inline(always)]
fn word_aligned(gva: u64) -> CovirtResult<()> {
    if gva.is_multiple_of(8) {
        Ok(())
    } else {
        Err(CovirtError::Invalid("misaligned guest word"))
    }
}

/// Per-core instrumentation counters (non-atomic: one thread per core).
#[derive(Clone, Copy, Debug, Default)]
pub struct CoreCounters {
    /// Data-path reads.
    pub reads: u64,
    /// Data-path writes.
    pub writes: u64,
    /// Page walks performed (TLB misses).
    pub walks: u64,
    /// Table-entry loads of the miss path's own loader class, so the meaning
    /// is per mode (perfbench charges it). Natively these are the guest
    /// PT-entry loads. Under memory protection they are EPT-entry loads
    /// only: the EPT walks for the guest-physical addresses — guest
    /// PT-entry pages and the data page — that missed the walk cache; the
    /// guest PT-entry loads themselves are not added. Every EPT load a walk
    /// made counts, also when the walk fails: at a not-present guest entry,
    /// on the EPT's violation, or on the guest's rights, which end it
    /// before the data-page step.
    pub walk_loads: u64,
    /// Guest PT-entry loads across all walks, in every mode (natively the
    /// same loads `walk_loads` counts).
    pub guest_walk_loads: u64,
    /// IPIs transmitted by guest code.
    pub ipis_sent: u64,
    /// Timer interrupts handled.
    pub timer_irqs: u64,
    /// Inter-processor interrupts handled (incl. harvested posted ones).
    pub ipi_irqs: u64,
    /// Vectors harvested from the posted-interrupt descriptor.
    pub posted_harvested: u64,
    /// Command doorbells harvested in guest mode (exitless delivery).
    pub cmd_doorbells: u64,
    /// Commands drained and executed in guest mode — no VM exit paid.
    pub cmd_harvested: u64,
    /// Safe-point polls executed.
    pub polls: u64,
    /// EPT walk-cache hits (guest-physical addresses — PT-entry pages and
    /// data pages — translated without an EPT walk).
    pub walk_cache_hits: u64,
    /// EPT walk-cache misses (translations that went to the live EPT).
    pub walk_cache_misses: u64,
    /// Guest PT-entry addresses a nested walk translated on its slow path —
    /// through a walk-cache lookup, or the live EPT with the cache off —
    /// rather than inside the walk cache's table line. 0 while no flush or
    /// 2 MiB fill intervenes and the guest's tables share that line.
    pub slow_entry_translations: u64,
    /// Physical resolves this core made: TLB fills and table-entry loads
    /// off the frame pool. Named for perfbench, which reads it and
    /// `resolve_misses`; the next benchmark-only change renames both.
    pub resolve_hits: u64,
    /// Always 0: a linear map has nothing to miss. Read by perfbench only.
    pub resolve_misses: u64,
}

/// Outcome of executing an injected fault (see [`GuestCore::execute_fault`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FaultOutcome {
    /// Covirt trapped the access and terminated the enclave; the node and
    /// other enclaves survive. The abort reason.
    Contained(Arc<str>),
    /// The wild access went through and silently corrupted memory that
    /// belongs to someone else (native co-kernel behaviour).
    CorruptedMemory {
        /// The victim address.
        addr: HostPhysAddr,
    },
    /// The wild access hit unbacked/reclaimed memory — on real hardware
    /// this is the machine-check / node-crash case.
    NodeCrash(String),
    /// The errant IPI was delivered to its victim (native behaviour).
    IpiDelivered {
        /// The victim core.
        victim: usize,
        /// The vector raised on it.
        vector: u8,
    },
    /// The errant IPI was dropped by the hypervisor whitelist.
    IpiBlocked,
}

/// Nested table-entry loader: every guest page-table entry load itself
/// goes through an EPT walk, which is how nested paging multiplies walk
/// cost on hardware (up to 24 loads for a 4-level guest walk).
///
/// When a [`WalkCache`] is attached it models the hardware's caches of
/// guest-physical mappings and of EPT PDPTEs: an address under a cached EPT
/// leaf whose rights allow the access resolves in zero extra loads, a miss
/// under a cached PD page walks from that page (1–2 loads instead of 3–4),
/// and a miss caches the whole leaf it walked to and the PDPTE it passed. A
/// table entry inside the cache's table line is its own host address: the
/// native load plus one compare, its hit counted with the others of the
/// walk in one add ([`count_line_hits`](Self::count_line_hits)); only the
/// rest take the slow path. The cache is the core's: only the hypervisor's
/// flush commands, run at a safe point, drop its lines — never mid-walk.
struct NestedLoad<'a> {
    ept: &'a Ept,
    mem: &'a PhysMemory,
    loads: Cell<u32>,
    /// Table entries translated on the slow path rather than inside the
    /// table line: by the walk cache's lookup, or the live EPT when no
    /// cache is attached.
    slow_entries: Cell<u32>,
    cache: Option<&'a WalkCache>,
    /// The cache's table line as of this walk's last slow entry, or
    /// `u64::MAX` (no line, or no cache).
    line: Cell<u64>,
    /// Table entries answered inside `line`, each a walk-cache hit.
    line_hits: Cell<u32>,
    /// The owning [`GuestCore`]'s resolve counter, which off-pool entry
    /// loads (both the EPT walk's and the guest walk's) are counted on.
    region_cache: &'a RegionCache,
}

impl<'a> NestedLoad<'a> {
    /// The loader for one guest walk.
    fn new(
        ept: &'a Ept,
        mem: &'a PhysMemory,
        cache: Option<&'a WalkCache>,
        region_cache: &'a RegionCache,
    ) -> Self {
        NestedLoad {
            ept,
            mem,
            loads: Cell::new(0),
            slow_entries: Cell::new(0),
            cache,
            line: Cell::new(Self::line_of(cache)),
            line_hits: Cell::new(0),
            region_cache,
        }
    }

    /// The base of `cache`'s table line, or `u64::MAX`.
    fn line_of(cache: Option<&WalkCache>) -> u64 {
        cache.and_then(WalkCache::table_line).unwrap_or(u64::MAX)
    }

    /// Count the walk's entries answered inside the table line as the
    /// walk-cache hits their lookups would have been.
    fn count_line_hits(&self) {
        if let Some(cache) = self.cache {
            cache.count_repeat_hits(self.line_hits.get());
        }
    }

    /// A table entry outside the table line: the gpa → hpa step, which may
    /// set a new line or (by a 2 MiB fill) forget the old one.
    #[cold]
    #[inline(never)]
    fn translate_entry_slow(&self, pa: HostPhysAddr) -> Result<(HostPhysAddr, u32), HwError> {
        self.slow_entries.set(self.slow_entries.get() + 1);
        let t = self.translate_gpa(GuestPhysAddr::new(pa.raw()), Access::Read)?;
        if let Some(cache) = self.cache {
            cache.remember_table_line(pa.raw(), &t);
        }
        self.line.set(Self::line_of(self.cache));
        Ok((t.pa, t.loads))
    }

    /// The gpa → hpa step of this walk, for a guest PT-entry page and for
    /// the data page alike: through the walk cache when one is attached,
    /// else the live EPT. An access neither grants is the
    /// [`HwError::EptViolation`] naming `gpa` and `access`. (Forced inline
    /// for the reason [`WalkCache::translate`] is.)
    #[inline(always)]
    fn translate_gpa(&self, gpa: GuestPhysAddr, access: Access) -> Result<Translation, HwError> {
        let loader = CachedLoad {
            mem: self.mem,
            cache: self.region_cache,
        };
        let t = match self.cache {
            Some(cache) => cache.translate(self.ept, gpa, access, &loader),
            None => self.ept.translate(gpa, access, &loader),
        }?;
        self.loads.set(self.loads.get() + t.loads);
        Ok(t)
    }

    /// Count a guest walk that ended in `walk`: its table line's hits, its
    /// slow entries, every EPT load it made as `walk_loads`, and, for a
    /// walk that reached a leaf, its guest loads.
    #[inline(always)]
    fn count(&self, walk: &HwResult<Translation>, c: &mut CoreCounters) {
        self.count_line_hits();
        c.slow_entry_translations += self.slow_entries.get() as u64;
        let ept_loads = self.loads.get();
        c.walk_loads += ept_loads as u64;
        if let Ok(gt) = walk {
            c.guest_walk_loads += (gt.loads - ept_loads) as u64;
        }
    }

    /// The TLB fill for `gt`, a guest leaf that grants `access`: what the
    /// EPT's check of its data page leaves of it.
    #[inline(always)]
    fn fill(&self, gt: Translation, access: Access, c: &mut CoreCounters) -> HwResult<Translation> {
        let et = self.translate_gpa(GuestPhysAddr::new(gt.pa.raw()), access)?;
        c.walk_loads += et.loads as u64;
        // The TLB is filled with what both leaves cover, not with the
        // guest's own: the EPT vouched for `et`'s page only.
        Ok(gt.intersect(&et))
    }
}

impl TableLoad for NestedLoad<'_> {
    #[inline(always)]
    fn translate_entry_addr(&self, pa: HostPhysAddr) -> Result<(HostPhysAddr, u32), HwError> {
        if pa.align_down(PAGE_SIZE_2M).raw() == self.line.get() {
            self.line_hits.set(self.line_hits.get() + 1);
            return Ok((pa, 0));
        }
        self.translate_entry_slow(pa)
    }

    #[inline]
    fn load_word(&self, mem: &PhysMemory, pa: HostPhysAddr) -> Result<u64, HwError> {
        let (b, off) = self.region_cache.resolve(mem, pa, 8)?;
        Ok(b.read_u64(off))
    }
}

/// The guest's own rights rule, the same in every mode and checked before
/// the EPT's: a leaf the guest's walk reached that does not grant `access`
/// is the guest's page fault, not an exit.
#[inline(always)]
fn guest_leaf(walk: HwResult<Translation>, access: Access) -> CovirtResult<Translation> {
    let gt = walk?;
    if !gt.perms.allows(access) {
        return Err(CovirtError::Invalid("write to read-only mapping"));
    }
    Ok(gt)
}

/// One enclave CPU executing guest software.
pub struct GuestCore {
    /// The core id.
    pub core: usize,
    node: Arc<SimNode>,
    kernel: Arc<KittenKernel>,
    cpu: Arc<Cpu>,
    /// The Covirt side of this core — its hypervisor instance, which holds
    /// the enclave's context, this core's command queue and doorbell and
    /// the controller handle. `None` is native execution, nothing else.
    hv: Option<Hypervisor>,
    tlb: Tlb,
    /// Paging-structure cache for nested walks (per-core, like the TLB).
    walk_cache: WalkCache,
    walk_cache_enabled: bool,
    /// Counts the physical resolves of TLB fills and off-pool walk loads.
    region_cache: RegionCache,
    /// Instrumentation.
    pub counters: CoreCounters,
    /// Flight-recorder handle for this core's lane.
    tracer: Tracer,
    /// covirt-prof phase state machine for this core's lane. Dormant (one
    /// cached-bool branch per transition) until a harness arms it with
    /// [`GuestCore::profile_begin`].
    phase: PhaseTracker,
    terminated: Option<Arc<str>>,
}

impl GuestCore {
    /// Boot guest execution on `core` natively (no hypervisor).
    pub fn launch_native(
        node: Arc<SimNode>,
        kernel: Arc<KittenKernel>,
        core: usize,
        tlb: TlbParams,
    ) -> CovirtResult<Self> {
        Self::launch(node, kernel, core, tlb, None)
    }

    /// Boot guest execution on `core` under the Covirt hypervisor. The
    /// enclave must have been launched through a `CovirtController`-hooked
    /// Pisces host so its virtualization context exists.
    pub fn launch_covirt(
        node: Arc<SimNode>,
        kernel: Arc<KittenKernel>,
        controller: Arc<CovirtController>,
        core: usize,
        tlb: TlbParams,
    ) -> CovirtResult<Self> {
        let vctx = controller.context(kernel.params.enclave_id)?;
        let hv = Hypervisor::launch(Arc::clone(&node), controller, vctx, core)?;
        Self::launch(node, kernel, core, tlb, Some(hv))
    }

    fn launch(
        node: Arc<SimNode>,
        kernel: Arc<KittenKernel>,
        core: usize,
        tlb: TlbParams,
        hv: Option<Hypervisor>,
    ) -> CovirtResult<Self> {
        let cpu = Arc::clone(node.cpu(covirt_simhw::topology::CoreId(core))?);
        let mut tracer = node.tracer(core as u32);
        let mut phase = PhaseTracker::new(Arc::clone(node.recorder().profiler()), core as u32);
        if let Some(vctx) = hv.as_ref().map(Hypervisor::vctx) {
            tracer = tracer.with_enclave(vctx.enclave_id);
            phase.set_enclave(vctx.enclave_id);
        }
        let mut tlb = Tlb::new(tlb);
        tlb.set_tracer(tracer.clone());
        let gc = GuestCore {
            core,
            node,
            kernel,
            cpu,
            hv,
            tlb,
            walk_cache: WalkCache::new(),
            walk_cache_enabled: true,
            region_cache: RegionCache::new(),
            counters: CoreCounters::default(),
            tracer,
            phase,
            terminated: None,
        };
        if let Some(period) = gc.kernel.timer_policy.period_ns() {
            gc.cpu.apic.arm_timer(period, true, TIMER_VECTOR);
        }
        Ok(gc)
    }

    /// The enclave's virtualization context, when this core has a Covirt
    /// side.
    fn vctx(&self) -> Option<&VirtContext> {
        self.hv.as_ref().map(|hv| &**hv.vctx())
    }

    /// The execution mode this core runs in.
    pub fn mode(&self) -> ExecMode {
        match self.vctx() {
            Some(v) => ExecMode::Covirt(v.config),
            None => ExecMode::Native,
        }
    }

    /// The kernel this core runs.
    pub fn kernel(&self) -> &Arc<KittenKernel> {
        &self.kernel
    }

    /// RDTSC.
    #[inline]
    pub fn rdtsc(&self) -> u64 {
        self.node.clock.rdtsc()
    }

    /// The node clock.
    pub fn clock(&self) -> &Arc<covirt_simhw::clock::TscClock> {
        &self.node.clock
    }

    /// Arm the covirt-prof phase state machine for this core, entering
    /// [`Phase::GuestExec`] now. Samples the profiler's enabled flag once:
    /// when the profiler is off, every subsequent transition is a single
    /// cached-bool branch.
    pub fn profile_begin(&mut self) {
        let t = self.node.clock.rdtsc();
        self.phase.begin(t);
    }

    /// Disarm the phase state machine, attributing the trailing cycles and
    /// closing the conservation interval (`wall == accounted` exactly for
    /// a bracketed session).
    pub fn profile_finish(&mut self) {
        let t = self.node.clock.rdtsc();
        self.phase.finish(t);
    }

    /// The one VM-exit path: every trapped operation of every entry point
    /// comes through here. A terminated core takes no further exit; a live
    /// one dispatches through its hypervisor with the phase state machine
    /// bracketing it — [`Phase::RootExit`] for the dispatch, then back to
    /// the interrupted phase (guest context or safe-point servicing) — and
    /// dies with the enclave when the exit terminated it. Natively nothing
    /// exits.
    fn vm_exit(&mut self, reason: ExitReason) -> CovirtResult<()> {
        self.check_live()?;
        let Some(hv) = self.hv.as_mut() else {
            return Ok(());
        };
        let clock = &self.node.clock;
        let prev = self.phase.phase();
        self.phase.transition_now(Phase::RootExit, || clock.rdtsc());
        match hv.handle_exit(reason, &mut self.tlb, &self.walk_cache) {
            ExitAction::Resume => {
                self.phase.transition_now(prev, || clock.rdtsc());
                Ok(())
            }
            ExitAction::Terminate(r) => Err(self.die(r, true)),
            ExitAction::Stopped(r) => Err(self.die(r, false)),
        }
    }

    /// TLB statistics snapshot.
    pub fn tlb_stats(&self) -> covirt_simhw::tlb::TlbStats {
        self.tlb.stats()
    }

    /// Snapshot of the per-core counters with the walk cache's hit/miss
    /// tallies and the resolve count folded in. They are kept core-locally
    /// so the miss path never copies stats per walk; the merge happens
    /// here, on the (cold) reporting path, without mutating the core.
    pub fn counters(&self) -> CoreCounters {
        let mut c = self.counters;
        let (h, m) = self.walk_cache.stats();
        c.walk_cache_hits = h;
        c.walk_cache_misses = m;
        c.resolve_hits = self.region_cache.resolves();
        c
    }

    /// Enable or disable the EPT walk cache (on by default). Off, no line of
    /// either kind — EPT leaf or PDPTE — is cached: every gpa → hpa step
    /// walks the live EPT from its root.
    #[cfg(test)]
    fn set_walk_cache_enabled(&mut self, enabled: bool) {
        self.walk_cache_enabled = enabled;
    }

    /// If the enclave was terminated on this core, why.
    pub fn terminated(&self) -> Option<&str> {
        self.terminated.as_deref()
    }

    /// Hypervisor exit count on this core: the sum of its VMCS's
    /// per-reason counts (0 when native). The VMCS lives as long as the
    /// enclave's context, so a core launched again keeps counting on.
    pub fn exit_count(&self) -> u64 {
        self.hv
            .as_ref()
            .map_or(0, |hv| hv.vmcs().read().exit_total())
    }

    /// The hypervisor parked this core: no further guest execution.
    #[inline]
    fn check_live(&self) -> CovirtResult<()> {
        match &self.terminated {
            Some(reason) => Err(CovirtError::EnclaveTerminated(Arc::clone(reason))),
            None => Ok(()),
        }
    }

    /// Out of guest mode for good; only a fault of the core's own reports.
    fn die(&mut self, reason: Arc<str>, report: bool) -> CovirtError {
        self.phase
            .transition_now(Phase::Idle, || self.node.clock.rdtsc());
        self.terminated = Some(Arc::clone(&reason));
        if let Some(hv) = self.hv.as_ref().filter(|_| report) {
            hv.report_fault(&reason);
        }
        CovirtError::EnclaveTerminated(reason)
    }

    /// Translate `gva` for `access`, filling the TLB. Returns the host
    /// pointer for the exact byte and the bytes remaining in the page.
    #[inline]
    fn translate(&mut self, gva: u64, access: Access) -> CovirtResult<(*mut u8, u64)> {
        self.check_live()?;
        if let Some(hit) = self.tlb.lookup(gva) {
            // A line holds only what the guest's leaf and the EPT's both
            // grant, so a write it refuses walks: the walk, not the line,
            // tells the guest's fault from the EPT's.
            if access != Access::Write || hit.writable {
                return Ok((hit.host_ptr, hit.remaining));
            }
        }
        self.translate_slow(gva, access)
    }

    /// The one miss path: the guest's tables walked once over the mode's
    /// loader — entries loaded where they sit natively, each entry's gpa
    /// translated by the EPT (through the walk cache) under memory
    /// protection — then the fill. The interrupted phase is back on every
    /// return but the enclave's termination.
    #[cold]
    fn translate_slow(&mut self, gva: u64, access: Access) -> CovirtResult<(*mut u8, u64)> {
        self.counters.walks += 1;
        let prev = self.phase.phase();
        self.phase
            .transition_now(Phase::TlbMiss, || self.node.clock.rdtsc());
        let (mem, pt, c) = (&self.node.mem, &self.kernel.page_tables, &mut self.counters);
        let filled = match self.hv.as_ref().and_then(|h| h.vctx().ept.as_deref()) {
            Some(ept) => {
                let cache = self.walk_cache_enabled.then_some(&self.walk_cache);
                let loader = NestedLoad::new(ept, mem, cache, &self.region_cache);
                let walk = pt.walk(gva, &loader);
                if let Ok(gt) = &walk {
                    // The access waits for the checks of its rights; the
                    // host's fetch of its line need not.
                    mem.prefetch(gt.pa);
                }
                loader.count(&walk, c);
                guest_leaf(walk, access).and_then(|gt| Ok(loader.fill(gt, access, c)?))
            }
            None => {
                let cache = &self.region_cache;
                let walk = pt.walk(gva, &CachedLoad { mem, cache });
                if let Ok(gt) = &walk {
                    c.walk_loads += gt.loads as u64;
                    c.guest_walk_loads += gt.loads as u64;
                }
                guest_leaf(walk, access)
            }
        };
        let t = match filled {
            Ok(t) => t,
            Err(e) => return self.refuse(prev, e),
        };

        // Resolve host backing for the whole page and fill the TLB.
        let page_size = t.page_size.bytes();
        let page_gva = t.page_size.base_of(gva);
        let (backing, off) = match self.region_cache.resolve(mem, t.page_base, page_size) {
            Ok(r) => r,
            Err(e) => return self.refuse(prev, e.into()),
        };
        let base_ptr = backing.ptr_at(off);
        self.tlb
            .insert(page_gva, page_size, base_ptr, backing, t.perms.w);
        let in_page = gva - page_gva;
        self.phase.transition_now(prev, || self.node.clock.rdtsc());
        // SAFETY: in_page < page_size, and the resolve covered the page.
        Ok(unsafe { (base_ptr.add(in_page as usize), page_size - in_page) })
    }

    /// A miss that ends without a fill: the guest's own page fault, or the
    /// EPT's violation — an exit, which terminates the enclave unless the
    /// hypervisor resumes it. Unless it did, `prev`, the phase the miss
    /// interrupted, is back.
    #[cold]
    #[inline(never)]
    fn refuse(&mut self, prev: Phase, e: CovirtError) -> CovirtResult<(*mut u8, u64)> {
        let e = match e {
            CovirtError::Hw(HwError::EptViolation { gpa, write, .. }) => {
                // The data path reads and writes; it never fetches.
                let access = if write { Access::Write } else { Access::Read };
                let info = covirt_simhw::ept::EptViolationInfo { gpa, access };
                match self.vm_exit(ExitReason::EptViolation(info)) {
                    Ok(()) => CovirtError::Invalid("EPT violation resumed the guest"),
                    Err(e) => return Err(e),
                }
            }
            CovirtError::Hw(HwError::PageNotPresent { .. }) => {
                CovirtError::Invalid("guest page fault (not mapped)")
            }
            e => e,
        };
        self.phase.transition_now(prev, || self.node.clock.rdtsc());
        Err(e)
    }

    /// Read a 64-bit word at `gva`.
    #[inline]
    pub fn read_u64(&mut self, gva: u64) -> CovirtResult<u64> {
        word_aligned(gva)?;
        self.counters.reads += 1;
        let (p, _) = self.translate(gva, Access::Read)?;
        // SAFETY: p points at 8 aligned mapped bytes inside a live Backing.
        // Relaxed atomic access models coherent DRAM and keeps racing
        // guest accesses (which real co-kernels do perform) defined.
        Ok(unsafe {
            (*(p as *const std::sync::atomic::AtomicU64)).load(std::sync::atomic::Ordering::Relaxed)
        })
    }

    /// Write a 64-bit word at `gva`.
    #[inline]
    pub fn write_u64(&mut self, gva: u64, value: u64) -> CovirtResult<()> {
        word_aligned(gva)?;
        self.counters.writes += 1;
        let (p, _) = self.translate(gva, Access::Write)?;
        // SAFETY: p points at 8 aligned mapped writable bytes inside a live
        // Backing; relaxed atomic store keeps racing guest writes defined.
        unsafe {
            (*(p as *const std::sync::atomic::AtomicU64))
                .store(value, std::sync::atomic::Ordering::Relaxed)
        };
        Ok(())
    }

    /// Read an `f64` at `gva`.
    #[inline]
    pub fn read_f64(&mut self, gva: u64) -> CovirtResult<f64> {
        Ok(f64::from_bits(self.read_u64(gva)?))
    }

    /// Write an `f64` at `gva`.
    #[inline]
    pub fn write_f64(&mut self, gva: u64, value: f64) -> CovirtResult<()> {
        self.write_u64(gva, value.to_bits())
    }

    /// Stream over `[gva, gva + count*size_of::<T>())` as mutable slices,
    /// one per contiguous translated span (at most one page each). `f`
    /// receives the element offset of the chunk and the chunk itself. `T`
    /// is a word (`u64`, `f64`; another size does not compile), and a
    /// misaligned `gva` is refused like [`GuestCore::read_u64`]'s.
    ///
    /// # Safety contract (internal)
    ///
    /// The slices alias guest memory. The caller must logically own the
    /// range (no other core mutating it concurrently) — the same contract
    /// an OpenMP workload has for its partitioned arrays.
    pub fn with_chunks_mut<T: Copy>(
        &mut self,
        gva: u64,
        count: usize,
        mut f: impl FnMut(usize, &mut [T]),
    ) -> CovirtResult<()> {
        // SAFETY: see `chunks`; exclusive logical ownership of the range
        // is the caller's contract.
        self.chunks(gva, count, Access::Write, |i, s| f(i, unsafe { &mut *s }))
    }

    /// Immutable variant of [`GuestCore::with_chunks_mut`].
    pub fn with_chunks<T: Copy>(
        &mut self,
        gva: u64,
        count: usize,
        mut f: impl FnMut(usize, &[T]),
    ) -> CovirtResult<()> {
        // SAFETY: see `chunks`.
        self.chunks(gva, count, Access::Read, |i, s| f(i, unsafe { &*s }))
    }

    /// The one loop of both chunked accesses: `f` gets each span's element
    /// offset and the span, translated for `access` — valid for its
    /// elements, all within one mapped page. Elements are words, and an
    /// aligned word never crosses a page.
    #[inline(always)]
    fn chunks<T>(
        &mut self,
        gva: u64,
        count: usize,
        access: Access,
        mut f: impl FnMut(usize, *mut [T]),
    ) -> CovirtResult<()> {
        const { assert!(std::mem::size_of::<T>() == 8, "the data path moves words") };
        word_aligned(gva)?;
        let mut done = 0usize;
        while done < count {
            let (p, remaining) = self.translate(gva + done as u64 * 8, access)?;
            let n = ((remaining / 8) as usize).min(count - done);
            f(done, std::ptr::slice_from_raw_parts_mut(p as *mut T, n));
            done += n;
        }
        if access == Access::Write {
            self.counters.writes += count as u64;
        } else {
            self.counters.reads += count as u64;
        }
        Ok(())
    }

    /// Transmit an IPI (fixed vector) to `dest`.
    pub fn send_ipi(&mut self, dest: usize, vector: u8) -> CovirtResult<()> {
        self.check_live()?;
        self.counters.ipis_sent += 1;
        let icr = IcrCommand {
            vector,
            mode: ICR_MODE_FIXED,
            dest: dest as u32,
            shorthand: ICR_SH_NONE,
        }
        .encode();
        if self.vctx().is_some_and(|v| v.config.ipi.is_some()) {
            self.vm_exit(ExitReason::IcrWrite { value: icr })
        } else {
            Ok(self.cpu.apic.icr_write(icr)?)
        }
    }

    /// Execute CPUID (always exits under any hypervisor).
    pub fn cpuid(&mut self, leaf: u32) -> CovirtResult<()> {
        self.vm_exit(ExitReason::Cpuid { leaf })
    }

    /// WRMSR from guest code.
    pub fn wrmsr(&mut self, index: u32, value: u64) -> CovirtResult<()> {
        self.check_live()?;
        let msrs = self.vctx().and_then(|v| v.msr_bitmap.as_ref());
        if msrs.is_some_and(|b| b.write_exits(index)) {
            self.vm_exit(ExitReason::MsrWrite { index, value })
        } else {
            self.cpu.msrs.write(index, value);
            Ok(())
        }
    }

    /// OUT instruction from guest code.
    pub fn io_write(&mut self, port: u16, value: u32) -> CovirtResult<()> {
        self.check_live()?;
        let ports = self.vctx().and_then(|v| v.io_bitmap.as_ref());
        if ports.is_some_and(|b| b.exits(port)) {
            self.vm_exit(ExitReason::IoWrite { port, value })
        } else {
            self.node.ioports.write(port, value);
            Ok(())
        }
    }

    /// Safe point: fire due timers, service NMIs (command queue), deliver
    /// pending interrupts — with VM exits where the configuration demands.
    pub fn poll(&mut self) -> CovirtResult<()> {
        self.check_live()?;
        self.counters.polls += 1;
        self.phase
            .transition_now(Phase::SafePoint, || self.node.clock.rdtsc());
        self.cpu.apic.poll_timer();

        // NMIs first (they are never maskable and always exit under VMX).
        while self.node.interconnect.mailbox(self.core)?.take_nmi() {
            self.vm_exit(ExitReason::Nmi)?;
        }

        // The command doorbell: every safe point checks the descriptor
        // directly (one atomic load on the no-work path, no clone, no
        // allocation), and drains pending commands exitlessly. This check
        // is the delivery path; no interrupt is sent for the doorbell.
        self.harvest_doorbell()?;

        // Fixed vectors. Under Covirt each one exits, in every configuration:
        // the minimal hypervisor keeps pin-based external-interrupt exiting
        // on to keep control of the hardware interrupt path for abort
        // handling, and VMX requires it for posted-interrupt processing.
        // Posted mode exempts only its notification vector — "while PIV
        // allows exitless IPIs, it still requires exits for all external
        // interrupts generated by hardware devices" (Section IV-C). This is
        // the paper's "baseline performance penalty ... that stays roughly
        // constant regardless of how those features are configured" (HPCG,
        // Section V-B).
        let ext_exits = self.hv.is_some();
        loop {
            let mailbox = self.node.interconnect.mailbox(self.core)?;
            let Some(vector) = mailbox.irr.pop_highest() else {
                break;
            };
            if vector == PIV_NOTIFICATION_VECTOR {
                // Only cloned on the (rare) notification arrival, never on
                // the empty-IRR hot path.
                let piv = self.vctx().and_then(|v| v.posted(self.core)).cloned();
                if let Some(desc) = piv {
                    // Exit-less delivery: harvest the PIR directly.
                    let mut harvested = 0u64;
                    for v in desc.harvest() {
                        self.deliver(v);
                        self.counters.posted_harvested += 1;
                        harvested += 1;
                    }
                    if harvested > 0 {
                        self.tracer.emit(EventKind::PostedHarvest, harvested, 0);
                    }
                    continue;
                }
            }
            if ext_exits {
                self.vm_exit(ExitReason::ExternalInterrupt { vector })?;
            }
            self.deliver(vector);
        }
        self.phase
            .transition_now(Phase::GuestExec, || self.node.clock.rdtsc());
        Ok(())
    }

    /// If the controller rang this core's doorbell, drain and execute the
    /// command queue in guest mode — the exitless half of command delivery.
    /// The doorbell rings on its outstanding-notification bit alone, which
    /// a poster sets after its commands are queued
    /// ([`Hypervisor::doorbell_rung`]): one post is one harvest, never one
    /// early harvest and a second over an empty queue, so every harvest
    /// counted finds work — except at an escalation bound of 0, where an
    /// NMI exit may drain the queue before the doorbell rings, and the next
    /// safe point counts a harvest of nothing. Execution semantics are shared with the NMI path
    /// ([`Hypervisor::execute_commands`]): flushes hit this core's TLB and
    /// walk cache, and the completion counter advances only after each
    /// command's effect is applied, so the controller's completion wait
    /// still proves unmap-before-reclaim. No VM exit is taken and the
    /// hypervisor's exit counter does not move.
    ///
    /// Two functions on purpose. Written as one, LLVM keeps it out of line
    /// (even under `#[inline]`) and every silent poll pays the call and a
    /// six-register prologue before the two loads; EXPERIMENTS.md §PR 20
    /// has the disassembly and the `poll_idle_ns` runs.
    #[inline]
    fn harvest_doorbell(&mut self) -> CovirtResult<()> {
        if self.hv.as_ref().is_some_and(Hypervisor::doorbell_rung) {
            return self.harvest_commands();
        }
        Ok(())
    }

    /// The rung half of [`Self::harvest_doorbell`], out of line.
    #[cold]
    fn harvest_commands(&mut self) -> CovirtResult<()> {
        let Some(hv) = self.hv.as_mut() else {
            return Ok(());
        };
        self.counters.cmd_doorbells += 1;
        let drained = hv.take_commands();
        if drained.is_empty() {
            return Ok(());
        }
        self.counters.cmd_harvested += drained.len() as u64;
        if self.tracer.enabled() {
            self.tracer
                .emit(EventKind::CmdHarvest, drained.len() as u64, 0);
        }
        // Phase accounting: the drain + [`Hypervisor::execute_commands`]
        // batch is command-harvest work; return to safe-point servicing
        // once the batch is applied (poll's tail flips back to guest).
        let clock = &self.node.clock;
        let prev = self.phase.phase();
        self.phase
            .transition_now(Phase::CmdHarvest, || clock.rdtsc());
        let action = hv.execute_commands(&drained, &mut self.tlb, &self.walk_cache);
        self.phase.transition_now(prev, || clock.rdtsc());
        match action {
            ExitAction::Terminate(r) => Err(self.die(r, true)),
            ExitAction::Stopped(r) => Err(self.die(r, false)),
            ExitAction::Resume => Ok(()),
        }
    }

    /// Run the guest's interrupt handler for `vector`.
    fn deliver(&mut self, vector: u8) {
        if vector == TIMER_VECTOR {
            self.counters.timer_irqs += 1;
            self.node.clock.charge_ns(TIMER_HANDLER_NS);
        } else {
            self.counters.ipi_irqs += 1;
        }
    }

    /// Execute an injected fault and classify what happened — the
    /// fault-isolation demonstration of Section V.
    pub fn execute_fault(&mut self, fault: InjectedFault) -> FaultOutcome {
        match fault {
            InjectedFault::WildAccess { addr, write } => {
                let r = if write {
                    self.write_u64(addr.raw() & !7, 0xDEAD_BEEF_DEAD_BEEF)
                } else {
                    self.read_u64(addr.raw() & !7).map(|_| ())
                };
                match r {
                    Ok(()) => FaultOutcome::CorruptedMemory { addr },
                    Err(CovirtError::EnclaveTerminated(reason)) => FaultOutcome::Contained(reason),
                    Err(e) => FaultOutcome::NodeCrash(e.to_string()),
                }
            }
            InjectedFault::ErrantIpi { icr } => {
                let cmd = IcrCommand::decode(icr);
                let victim = cmd.dest as usize;
                let node = Arc::clone(&self.node);
                let received = || {
                    let mailbox = node.interconnect.mailbox(victim);
                    mailbox.map_or(0, |m| m.received.load(std::sync::atomic::Ordering::Relaxed))
                };
                let before = received();
                let _ = self.send_ipi(victim, cmd.vector);
                if received() > before {
                    FaultOutcome::IpiDelivered {
                        victim,
                        vector: cmd.vector,
                    }
                } else {
                    FaultOutcome::IpiBlocked
                }
            }
        }
    }

    /// Leave guest mode cleanly (enclave shutdown).
    pub fn shutdown(mut self) {
        if let Some(hv) = self.hv.take() {
            hv.shutdown();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cmdqueue::Command;
    use crate::config::CovirtConfig;
    use crate::vctx::CMD_DOORBELL_VECTOR;
    use covirt_simhw::addr::{PhysRange, PAGE_SIZE_2M, PAGE_SIZE_4K};
    use covirt_simhw::node::NodeConfig;
    use covirt_simhw::topology::{CoreId, ZoneId};
    use hobbes::MasterControl;
    use pisces::resources::ResourceRequest;

    struct World {
        master: Arc<MasterControl>,
        controller: Option<Arc<CovirtController>>,
        enclave: Arc<pisces::Enclave>,
        kernel: Arc<KittenKernel>,
    }

    fn world(mode: ExecMode) -> World {
        let node = covirt_simhw::node::SimNode::new(NodeConfig::small());
        let master = MasterControl::new(Arc::clone(&node));
        let controller = mode.config().map(|cfg| {
            let c = CovirtController::new(Arc::clone(&node), cfg);
            c.attach_hobbes(&master);
            c
        });
        let req = ResourceRequest::new(
            vec![CoreId(1), CoreId(2)],
            vec![(ZoneId(0), 64 * 1024 * 1024)],
        );
        let (enclave, kernel) = master.bring_up_enclave("e0", &req).unwrap();
        World {
            master,
            controller,
            enclave,
            kernel,
        }
    }

    fn core(w: &World, id: usize) -> GuestCore {
        core_with(w, id, TlbParams::default())
    }

    fn core_with(w: &World, id: usize, tlb: TlbParams) -> GuestCore {
        let (node, kernel) = (Arc::clone(w.master.pisces().node()), Arc::clone(&w.kernel));
        match &w.controller {
            Some(c) => GuestCore::launch_covirt(node, kernel, Arc::clone(c), id, tlb),
            None => GuestCore::launch_native(node, kernel, id, tlb),
        }
        .unwrap()
    }

    fn data_gva(w: &World) -> u64 {
        let mut cursor = 0;
        w.kernel
            .alloc_contiguous(4 * 1024 * 1024, &mut cursor)
            .unwrap()
    }

    #[test]
    fn native_rw_roundtrip() {
        let w = world(ExecMode::Native);
        let mut gc = core(&w, 1);
        let a = data_gva(&w);
        gc.write_u64(a, 42).unwrap();
        gc.write_f64(a + 8, 1.5).unwrap();
        assert_eq!(gc.read_u64(a).unwrap(), 42);
        assert_eq!(gc.read_f64(a + 8).unwrap(), 1.5);
        assert!(gc.counters.walks >= 1);
        // Second access hits the TLB: walk count unchanged.
        let walks = gc.counters.walks;
        gc.read_u64(a).unwrap();
        assert_eq!(gc.counters.walks, walks);
    }

    #[test]
    fn covirt_rw_roundtrip_and_nested_walk_costs_more() {
        let roundtrip = |mode: ExecMode, walk_cache: bool| {
            let w = world(mode);
            let mut gc = core(&w, 1);
            gc.set_walk_cache_enabled(walk_cache);
            let a = data_gva(&w);
            gc.write_u64(a, 7).unwrap();
            assert_eq!(gc.read_u64(a).unwrap(), 7);
            assert_eq!(gc.counters.walks, 1);
            gc.counters.walk_loads
        };
        let native = roundtrip(ExecMode::Native, true);
        let cached = roundtrip(ExecMode::Covirt(CovirtConfig::MEM), true);
        let full = roundtrip(ExecMode::Covirt(CovirtConfig::MEM), false);
        // One walk each. The full 2-D walk pays an EPT walk per guest PT
        // entry; with the walk cache one leaf fill serves the remaining
        // levels of even a cold walk.
        assert!(
            full > 3 * native,
            "nested walk loads ({full}) should dwarf native ({native})"
        );
        assert!(
            native < cached && cached < full,
            "cached nested walk ({cached}) must sit between native ({native}) and full ({full})"
        );
    }

    /// The guest owns its page tables and may set the leaf bit where no
    /// page size exists (PS in a PML4E). A walk — the core's or the
    /// kernel's own unmap on `RemoveMem` — that meets it is the guest's page
    /// fault, as for a not-present entry; the host carries on.
    #[test]
    fn leaf_bit_in_a_pml4e_is_a_guest_page_fault_in_every_mode() {
        for mode in [ExecMode::Native, ExecMode::Covirt(CovirtConfig::MEM)] {
            let w = world(mode);
            let mut gc = core(&w, 1);
            let host = w.master.pisces();
            let granted = host
                .add_memory(&w.enclave, ZoneId(0), PAGE_SIZE_2M)
                .unwrap();
            w.kernel.poll_ctrl().unwrap();
            host.process_acks(&w.enclave).unwrap();
            let a = data_gva(&w);
            gc.write_u64(a, 7).unwrap();

            let entry = w.kernel.page_tables.root().raw() + ((a >> 39) & 0x1ff) * 8;
            let intact = gc.read_u64(entry).unwrap();
            gc.write_u64(entry, intact | covirt_simhw::paging::x86_bits::PS)
                .unwrap();
            // A cached translation still hits; one that must walk faults.
            assert_eq!(gc.read_u64(a).unwrap(), 7, "{mode}");
            assert!(
                matches!(gc.read_u64(a + PAGE_SIZE_2M), Err(CovirtError::Invalid(_))),
                "{mode}"
            );
            host.request_remove_memory(&w.enclave, granted).unwrap();
            assert!(
                matches!(
                    w.kernel.poll_ctrl(),
                    Err(kitten::KittenError::Hw(HwError::PageNotPresent {
                        level: 4,
                        ..
                    }))
                ),
                "{mode}"
            );
            // Nobody died of it, and the guest can repair its own table.
            assert!(gc.terminated().is_none(), "{mode}");
            gc.write_u64(entry, intact).unwrap();
            assert_eq!(gc.read_u64(a + PAGE_SIZE_2M).unwrap(), 0, "{mode}");
        }
    }

    /// A nested walk that stops at a not-present guest entry made EPT loads
    /// for the guest entries it read, and `walk_loads` counts them; it
    /// reached no leaf, so it adds no guest loads.
    #[test]
    fn a_guest_page_fault_under_memory_protection_counts_its_ept_loads() {
        let w = world(ExecMode::Covirt(CovirtConfig::MEM));
        let mut gc = core(&w, 1);
        gc.set_walk_cache_enabled(false);
        let before = gc.counters();
        assert!(matches!(
            gc.read_u64(0x7f00_0000_0000),
            Err(CovirtError::Invalid(_))
        ));
        let after = gc.counters();
        assert_eq!(after.walks, before.walks + 1);
        assert!(after.walk_loads > before.walk_loads, "EPT loads uncounted");
        assert_eq!(after.guest_walk_loads, before.guest_walk_loads);
        assert!(gc.terminated().is_none());
    }

    /// Exits taken through the guest's own entry points are counted per
    /// reason in each core's VMCS: the context sums them across cores, and
    /// a core's `exit_count` is the sum of its VMCS's counts.
    #[test]
    fn exits_are_counted_per_reason_in_each_cores_vmcs() {
        use covirt_simhw::ioport::{PORT_COM1, PORT_KBD_RESET};
        use covirt_simhw::msr::{IA32_FS_BASE, IA32_MC0_CTL};
        let w = world(ExecMode::Covirt(CovirtConfig::FULL));
        let (mut g1, mut g2) = (core(&w, 1), core(&w, 2));
        g1.cpuid(0).unwrap();
        g1.cpuid(1).unwrap();
        g1.wrmsr(IA32_MC0_CTL, 0xbad).unwrap();
        g1.io_write(PORT_KBD_RESET, 0xfe).unwrap();
        g2.cpuid(0).unwrap();
        g2.wrmsr(IA32_MC0_CTL + 4, 0).unwrap();
        g2.send_ipi(0, 0x40).unwrap();
        // An MSR and a port the bitmaps pass take no exit.
        g2.wrmsr(IA32_FS_BASE, 1).unwrap();
        g2.io_write(PORT_COM1, b'x' as u32).unwrap();

        let vctx = g1.vctx().unwrap();
        assert_eq!(vctx.whitelist.counts(), (0, 1), "the IPI was refused");
        assert_eq!(
            vctx.exit_counts(),
            [("cpuid", 3), ("wrmsr", 2), ("io-out", 1), ("icr-write", 1)]
        );
        for (g, total) in [(&g1, 4), (&g2, 3)] {
            let vmcs = vctx.vmcs(g.core).unwrap().read();
            let per_reason: u64 = vmcs.exit_counts().map(|(_, n)| n).sum();
            assert_eq!(
                (g.exit_count(), per_reason),
                (total, total),
                "core {}",
                g.core
            );
        }
        g1.shutdown();
        assert_eq!(core(&w, 1).exit_count(), 4, "a relaunch keeps the VMCS");
    }

    #[test]
    fn walk_cache_cuts_nested_walk_loads() {
        let touch = |gc: &mut GuestCore, base: u64| {
            // Stride 2 MiB: every access is a fresh TLB miss → full walk.
            for i in 0..2 {
                gc.read_u64(base + i * 2 * 1024 * 1024).unwrap();
            }
            (gc.counters.walk_loads, gc.counters.walks)
        };
        let w_on = world(ExecMode::Covirt(CovirtConfig::MEM));
        let mut on = core(&w_on, 1);
        let a_on = data_gva(&w_on);
        on.write_u64(a_on, 1).unwrap(); // warm the cache with one walk
        let before = on.counters.walk_loads;
        let (after, _) = touch(&mut on, a_on + 8);
        let on_loads = after - before;

        let w_off = world(ExecMode::Covirt(CovirtConfig::MEM));
        let mut off = core(&w_off, 1);
        off.set_walk_cache_enabled(false);
        let a_off = data_gva(&w_off);
        off.write_u64(a_off, 1).unwrap();
        let before = off.counters.walk_loads;
        let (after, _) = touch(&mut off, a_off + 8);
        let off_loads = after - before;

        assert!(
            on_loads < off_loads,
            "walk cache must shed PT-entry EPT walks ({on_loads} vs {off_loads} loads)"
        );
        assert!(
            on.counters().walk_cache_hits > 0,
            "warm walks must hit the cache"
        );
        assert_eq!(
            off.counters().walk_cache_hits,
            0,
            "disabled cache never hits"
        );
    }

    /// RandomAccess's walk-bound regime — random read-then-write updates of
    /// an 8 MiB table over a 2-entry 2 MiB TLB — with the walk cache on and
    /// off. Off, no line of either kind is cached and every miss walks the
    /// EPT from its root.
    #[test]
    fn walk_cache_ablation_cuts_loads_per_miss() {
        let run_with_cache = |enabled: bool| {
            let w = world(ExecMode::Covirt(CovirtConfig::MEM));
            let mut gc = core_with(&w, 1, TWO_PAGE_TLB);
            gc.set_walk_cache_enabled(enabled);
            let table = w.kernel.alloc_contiguous(8 << 20, &mut 0).unwrap();
            let mut ran = 1u64;
            for _ in 0..20_000 {
                ran = ran
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                let addr = table + (ran >> 44) * 8;
                let v = gc.read_u64(addr).unwrap();
                gc.write_u64(addr, v ^ ran).unwrap();
            }
            gc.counters()
        };
        let per_miss = |c: &CoreCounters| crate::stats::ratio(c.walk_loads, c.walks);
        let (on, off) = (run_with_cache(true), run_with_cache(false));
        assert!(
            on.walks > 0 && off.walks > 0,
            "test must generate TLB misses"
        );
        assert!(on.walk_cache_hits > 0);
        assert_eq!(off.walk_cache_hits, 0);
        assert!(
            per_miss(&on) < per_miss(&off),
            "walk cache must cut per-miss loads ({:.2} vs {:.2})",
            per_miss(&on),
            per_miss(&off)
        );
    }

    /// The enclave's virtualization context, as the controller built it.
    fn vctx_of(w: &World) -> Arc<VirtContext> {
        w.controller
            .as_ref()
            .unwrap()
            .context(w.enclave.id.0)
            .unwrap()
    }

    /// The enclave's EPT, as the controller built it.
    fn ept_of(w: &World) -> Arc<Ept> {
        vctx_of(w).ept.clone().unwrap()
    }

    /// Grant 2 MiB and let the guest take it.
    fn grant_2m(w: &World) -> PhysRange {
        let host = w.master.pisces();
        let range = host
            .add_memory(&w.enclave, ZoneId(0), PAGE_SIZE_2M)
            .unwrap();
        w.kernel.poll_ctrl().unwrap();
        host.process_acks(&w.enclave).unwrap();
        range
    }

    /// Reclaim `range` through the full protocol — guest ack, controller
    /// unmap, shootdown — with `gc` polling as a live core does.
    fn reclaim(w: &World, gc: &mut GuestCore, range: PhysRange) {
        let host = w.master.pisces();
        host.request_remove_memory(&w.enclave, range).unwrap();
        w.kernel.poll_ctrl().unwrap();
        std::thread::scope(|s| {
            let acks = s.spawn(|| {
                while w.enclave.resources().mem.contains(&range) {
                    host.process_acks(&w.enclave).unwrap();
                    std::thread::yield_now();
                }
            });
            while !acks.is_finished() {
                gc.poll().unwrap();
                std::thread::yield_now();
            }
        });
    }

    #[test]
    fn walk_cache_keeps_pt_lines_across_an_unrelated_reclaim() {
        let w = world(ExecMode::Covirt(CovirtConfig::MEM));
        let mut gc = core(&w, 1);
        let a = data_gva(&w);
        gc.read_u64(a).unwrap();
        gc.read_u64(a + 2 * 1024 * 1024).unwrap(); // same PT pages → cache hit
        let before = gc.counters();
        assert!(before.walk_cache_hits > 0);

        // Reclaiming an unrelated grant flushes its range, but the leaf
        // holding the guest's PT pages was not in it.
        let range = grant_2m(&w);
        reclaim(&w, &mut gc, range);

        gc.read_u64(a + 4 * 1024 * 1024).unwrap(); // fresh page, same PT path
        let after = gc.counters();
        assert_eq!(after.walks, before.walks + 1);
        assert_eq!(
            after.walk_cache_misses,
            before.walk_cache_misses + 1,
            "an unrelated reclaim must leave the PT-page lines hitting: the one miss is \
             the fresh data page's own EPT leaf, looked up in the walk cache since PR 23"
        );
        assert_eq!(after.walk_loads, before.walk_loads + 3, "that leaf's walk");
        assert_eq!(after.walk_cache_hits, before.walk_cache_hits + 3);
    }

    #[test]
    fn walk_cache_rewalks_after_the_pt_leaf_is_reclaimed() {
        let w = world(ExecMode::Covirt(CovirtConfig::MEM));
        let mut gc = core(&w, 1);
        let a = data_gva(&w);
        gc.read_u64(a).unwrap();
        gc.read_u64(a + 2 * 1024 * 1024).unwrap();
        let before = gc.counters();

        // Take the EPT leaf under the guest's root table away, put it back
        // and flush it: the cached translation of that leaf must not survive.
        let ept = ept_of(&w);
        let root = w.kernel.page_tables.root();
        let leaf = PhysRange::new(root.align_down(PAGE_SIZE_2M), PAGE_SIZE_2M);
        ept.unmap(leaf).unwrap();
        ept.map_identity(leaf, 2).unwrap();
        flush_range(&w, &mut gc, leaf);

        gc.read_u64(a + 4 * 1024 * 1024).unwrap();
        let after = gc.counters();
        assert!(
            after.walk_cache_misses > before.walk_cache_misses,
            "a reclaim overlapping the PT pages' leaf must force a cold re-walk"
        );
        assert!(after.walk_loads - before.walk_loads > 3, "EPT re-walked");
    }

    /// The first half of the controller's round trip for one core: post
    /// `cmd` to `core`'s queue and ring its doorbell. Returns the command's
    /// sequence number.
    fn post_command(vctx: &VirtContext, core: usize, cmd: Command) -> u64 {
        let seq = vctx.cmdq(core).unwrap().post(cmd).unwrap();
        vctx.cmd_doorbell(core).unwrap().post(CMD_DOORBELL_VECTOR);
        seq
    }

    /// The flush command for `range`.
    fn range_flush(range: PhysRange) -> Command {
        Command::TlbFlushRange {
            gva: range.start.raw(),
            len: range.len,
        }
    }

    /// [`post_command`] for a flush of `range`.
    fn post_flush(vctx: &VirtContext, core: usize, range: PhysRange) -> u64 {
        post_command(vctx, core, range_flush(range))
    }

    /// The whole round trip for one live core: `cmd`, run by the
    /// hypervisor's `execute_commands` at `gc`'s next safe point.
    fn run_command(w: &World, gc: &mut GuestCore, cmd: Command) {
        let vctx = vctx_of(w);
        let seq = post_command(&vctx, gc.core, cmd);
        gc.poll().unwrap();
        assert!(
            vctx.cmdq(gc.core).unwrap().completed() >= seq,
            "the core ran {cmd:?}"
        );
    }

    /// [`run_command`] for a flush of `range`.
    fn flush_range(w: &World, gc: &mut GuestCore, range: PhysRange) {
        run_command(w, gc, range_flush(range));
    }

    /// What a write to `gva` must come back as once the EPT refuses it: the
    /// abort naming that address and access, through exactly one VM exit.
    fn assert_write_violates(gc: &mut GuestCore, gva: u64) {
        let (exits, misses) = (gc.exit_count(), gc.tlb_stats().misses);
        let want = format!("EPT violation at {gva:#x} (Write)");
        match gc.write_u64(gva, 1) {
            Err(CovirtError::EnclaveTerminated(r)) => assert!(r.contains(&want), "{r}"),
            other => panic!("expected `{want}`, got {other:?}"),
        }
        assert_eq!(gc.tlb_stats().misses, misses + 1, "refused on the walk");
        assert_eq!(gc.exit_count(), exits + 1);
    }

    #[test]
    fn walk_cache_serves_the_data_leaf_of_a_second_tlb_miss() {
        let w = world(ExecMode::Covirt(CovirtConfig::MEM));
        let mut gc = core(&w, 1);
        let a = data_gva(&w);
        gc.write_u64(a + 8, 0xfeed).unwrap();
        gc.tlb.flush_all(); // the walk cache, not the TLB, answers the revisit
        let before = gc.counters();
        assert_eq!(gc.read_u64(a + 8).unwrap(), 0xfeed);
        let after = gc.counters();
        assert_eq!(after.walks, before.walks + 1, "a TLB miss");
        assert_eq!(after.walk_loads, before.walk_loads, "no EPT load");
        assert_eq!(after.guest_walk_loads, before.guest_walk_loads + 3);
        assert_eq!(after.walk_cache_misses, before.walk_cache_misses);
        assert_eq!(
            after.walk_cache_hits,
            before.walk_cache_hits + 4,
            "three PT-entry pages and the data page"
        );
    }

    #[test]
    fn walk_cache_checks_a_write_against_the_rights_a_read_cached() {
        let w = world(ExecMode::Covirt(CovirtConfig::MEM));
        let mut gc = core(&w, 1);
        let range = grant_2m(&w);
        ept_of(&w)
            .map_identity_perms(range, covirt_simhw::paging::Perms::R, 2)
            .unwrap();
        assert_eq!(gc.read_u64(range.start.raw()).unwrap(), 0);
        gc.tlb.flush_all();
        let hits = gc.counters().walk_cache_hits;
        assert_eq!(gc.read_u64(range.start.raw() + 8).unwrap(), 0);
        assert_eq!(
            gc.counters().walk_cache_hits,
            hits + 4,
            "the leaf is cached"
        );
        gc.tlb.flush_all();
        assert_write_violates(&mut gc, range.start.raw() + 16);
    }

    /// Rights a re-map widened are found by the hit that the cached rights
    /// deny; rights it narrowed, by the first walk started after the flush
    /// of its range.
    #[test]
    fn walk_cache_follows_rights_a_re_map_widens_or_narrows() {
        let w = world(ExecMode::Covirt(CovirtConfig::MEM));
        let mut gc = core(&w, 1);
        let (range, ept) = (grant_2m(&w), ept_of(&w));
        let gva = range.start.raw();
        ept.map_identity_perms(range, covirt_simhw::paging::Perms::R, 2)
            .unwrap();
        assert_eq!(gc.read_u64(gva).unwrap(), 0); // cached read-only
        gc.tlb.flush_all();

        ept.map_identity(range, 2).unwrap();
        let before = gc.counters();
        gc.write_u64(gva, 7).unwrap();
        let after = gc.counters();
        assert_eq!(
            after.walk_cache_misses, before.walk_cache_misses,
            "the denied leaf falls through to a walk resumed from the PD page the \
             read cached, which answers — a paging-structure hit since PR 25"
        );
        assert_eq!(
            after.walk_loads,
            before.walk_loads + 1,
            "falls through: one load, the PDE under the cached PDPTE (3 from the root \
             before PR 25)"
        );
        gc.tlb.flush_all();
        gc.write_u64(gva + 8, 8).unwrap();
        assert_eq!(gc.counters().walk_loads, after.walk_loads, "and refilled");

        ept.map_identity_perms(range, covirt_simhw::paging::Perms::R, 2)
            .unwrap();
        gc.tlb.flush_all();
        gc.write_u64(gva + 16, 9).unwrap(); // unflushed, the line still grants it
        flush_range(&w, &mut gc, range);
        assert_write_violates(&mut gc, gva + 16);
    }

    /// The guest's own read-only leaf refuses a write in every mode, on the
    /// miss and on the hit of the line a read filled: the guest's page
    /// fault, no exit, and the enclave lives on. (Under an EPT the miss once
    /// wrote the word and the hit killed the enclave.) A refused miss hands
    /// the profiler back the phase it interrupted, so guest time is not
    /// billed to `tlb_miss`.
    #[test]
    fn a_write_to_a_guest_read_only_page_is_the_guests_fault_in_every_mode() {
        let modes = [CovirtConfig::MEM, CovirtConfig::MEM_IPI].map(ExecMode::Covirt);
        for mode in [ExecMode::Native].into_iter().chain(modes) {
            let w = world(mode);
            w.master
                .pisces()
                .node()
                .recorder()
                .profiler()
                .set_enabled(true);
            let mut gc = core(&w, 1);
            let (range, read_only) = (grant_2m(&w), covirt_simhw::paging::Perms::R);
            let gva = range.start.raw();
            w.kernel
                .page_tables
                .map(gva, range.start, range.len, read_only, 2)
                .unwrap();
            gc.profile_begin();
            let exits = gc.exit_count();
            let refused = |gc: &mut GuestCore, r: CovirtResult<()>, want: &str| {
                assert!(
                    matches!(r, Err(CovirtError::Invalid(m)) if m == want),
                    "{mode}: {r:?}"
                );
                assert_eq!(gc.phase.phase(), Phase::GuestExec, "{mode}: {want}");
            };
            let r = gc.write_u64(gva, 1);
            refused(&mut gc, r, "write to read-only mapping");
            assert_eq!(gc.read_u64(gva).unwrap(), 0, "{mode}");
            let (hits, walks) = (gc.tlb_stats().hits, gc.counters.walks);
            let r = gc.write_u64(gva, 1);
            refused(&mut gc, r, "write to read-only mapping");
            assert_eq!(gc.tlb_stats().hits, hits + 1, "{mode}: a hit");
            assert_eq!(
                gc.counters.walks,
                walks + 1,
                "{mode}: the refused hit walks"
            );
            let r = gc.read_u64(0x7f00_0000_0000).map(drop);
            refused(&mut gc, r, "guest page fault (not mapped)");
            assert_eq!((gc.exit_count(), gc.terminated()), (exits, None), "{mode}");
            gc.profile_finish();
        }
    }

    /// A line the EPT narrowed refuses a write hit by walking, and the walk
    /// finds the EPT's violation, not the guest's fault.
    #[test]
    fn a_write_hit_on_a_line_the_ept_narrowed_is_its_violation() {
        let w = world(ExecMode::Covirt(CovirtConfig::MEM));
        let mut gc = core(&w, 1);
        let range = grant_2m(&w);
        ept_of(&w)
            .map_identity_perms(range, covirt_simhw::paging::Perms::R, 2)
            .unwrap();
        assert_eq!(gc.read_u64(range.start.raw()).unwrap(), 0);
        let exits = gc.exit_count();
        match gc.write_u64(range.start.raw(), 1) {
            Err(CovirtError::EnclaveTerminated(r)) => assert!(r.contains("EPT violation"), "{r}"),
            other => panic!("expected the EPT violation, got {other:?}"),
        }
        assert_eq!(gc.exit_count(), exits + 1);
    }

    /// The simulator notices a Covirt that forgets to invalidate: an EPT
    /// unmap alone leaves the core's walk cache serving the old gpa → hpa,
    /// and only the flush the reclaim's round trip posts takes it away.
    #[test]
    fn an_unmap_without_a_flush_command_leaves_the_cached_line_serving() {
        let w = world(ExecMode::Covirt(CovirtConfig::MEM));
        let mut gc = core(&w, 1);
        let range = grant_2m(&w);
        gc.write_u64(range.start.raw(), 0xa).unwrap();
        ept_of(&w).unmap(range).unwrap();
        gc.tlb.flush_all(); // the walk cache, not the TLB, answers the revisit
        let (before, exits) = (gc.counters(), gc.exit_count());
        assert_eq!(gc.read_u64(range.start.raw()).unwrap(), 0xa);
        let after = gc.counters();
        assert_eq!(after.walk_loads, before.walk_loads, "no EPT load");
        assert_eq!(after.walk_cache_hits, before.walk_cache_hits + 4);
        assert_eq!(gc.exit_count(), exits, "no violation");

        reclaim(&w, &mut gc, range);
        let _ = kitten::faults::stale_shared_mapping(&w.kernel, range);
        assert_write_violates(&mut gc, range.start.raw() + 8);
    }

    /// A grant abandoned after the EPT mapped it is flushed like a reclaim:
    /// a kernel whose memory map strayed into the range wrote it through a
    /// live core, and once the abort has returned the next write is an EPT
    /// violation, not served from the TLB or the walk cache.
    #[test]
    fn an_aborted_grant_is_shot_down_on_the_live_cores() {
        use pisces::hooks::EnclaveHooks;

        let w = world(ExecMode::Covirt(CovirtConfig::MEM));
        let ctl = w.controller.as_ref().unwrap();
        let mut gc = core(&w, 1);
        let mem = &w.master.pisces().node().mem;
        let range = mem
            .alloc_backed(ZoneId(0), PAGE_SIZE_2M, PAGE_SIZE_2M)
            .unwrap();
        ctl.on_mem_add_prepared(&w.enclave, range).unwrap();
        let _ = kitten::faults::stale_shared_mapping(&w.kernel, range);
        gc.write_u64(range.start.raw(), 0xa).unwrap();

        std::thread::scope(|s| {
            let abort = s.spawn(|| ctl.on_mem_add_aborted(&w.enclave, range));
            while !abort.is_finished() {
                gc.poll().unwrap();
                std::thread::yield_now();
            }
            abort.join().unwrap().unwrap();
        });
        assert_write_violates(&mut gc, range.start.raw() + 8);
    }

    /// A command round trip waits only on cores still in guest mode. A
    /// barrier is waiting on an unpolled core when that core makes a wild
    /// write and is parked: the barrier returns `Ok` at once, since a parked
    /// core never runs on what it cached again, instead of waiting out the
    /// completion deadline and failing with the core's `FlushTimeout`. The
    /// barrier's thread is joined only once it has answered.
    #[test]
    fn a_round_trip_ends_when_its_core_leaves_guest_mode() {
        let w = world(ExecMode::Covirt(CovirtConfig::MEM_IPI));
        let ctl = Arc::clone(w.controller.as_ref().unwrap());
        let vctx = vctx_of(&w);
        let mut gc = core(&w, 1);
        let (enclave, (done, barrier)) = (w.enclave.id.0, std::sync::mpsc::channel());
        let waiter = std::thread::spawn(move || done.send(ctl.shootdown_barrier(enclave)));
        let q = vctx.cmdq(1).unwrap();
        while q.pending() == 0 {
            std::thread::yield_now();
        }

        let fault = kitten::faults::off_by_one_region(&w.kernel);
        assert!(matches!(
            gc.execute_fault(fault),
            FaultOutcome::Contained(_)
        ));
        assert!(vctx.live_cores().is_empty());
        let waited = barrier.recv_timeout(std::time::Duration::from_secs(5));
        assert!(matches!(waited, Ok(Ok(()))), "{waited:?}");
        waiter.join().unwrap().unwrap();
    }

    /// One thread walks through `NestedLoad`s over a live core's walk cache,
    /// harvesting commands between walks as the core's safe points do, while
    /// another unmaps a range, flushes it through the core's queue and waits
    /// for the completion, then re-maps it. The walker free-runs, so walks
    /// also straddle the edits; the ones that provably began after the flush
    /// completed and ended before the re-map began must not be served from
    /// inside the range.
    #[test]
    fn walks_started_after_a_flush_completes_are_not_served_from_its_range() {
        use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

        let w = world(ExecMode::Covirt(CovirtConfig::MEM));
        let ept = ept_of(&w);
        let vctx = vctx_of(&w);
        let q = vctx.cmdq(1).unwrap();
        let node = Arc::clone(w.master.pisces().node());
        let host = w.master.pisces();
        let reclaimed = host
            .add_memory(&w.enclave, ZoneId(0), PAGE_SIZE_2M)
            .unwrap();
        let unrelated = host
            .add_memory(&w.enclave, ZoneId(0), PAGE_SIZE_2M)
            .unwrap();
        // Odd while `reclaimed` is unmapped: set once its flush completed,
        // cleared before the re-map starts.
        let phase = AtomicU64::new(0);
        let walks = AtomicU64::new(0);
        let done = AtomicBool::new(false);

        std::thread::scope(|s| {
            let walker = s.spawn(|| {
                let mut gc = core(&w, 1);
                let mut checked = 0u64;
                while !done.load(Ordering::SeqCst) {
                    gc.poll().unwrap();
                    let began = phase.load(Ordering::SeqCst);
                    let loader =
                        NestedLoad::new(&ept, &node.mem, Some(&gc.walk_cache), &gc.region_cache);
                    let inside = loader.translate_entry_addr(reclaimed.start.add(0x1238));
                    let outside = loader.translate_entry_addr(unrelated.start.add(0x38));
                    let ended = phase.load(Ordering::SeqCst);
                    assert_eq!(outside.unwrap().0, unrelated.start.add(0x38));
                    if began == ended && began % 2 == 1 {
                        assert!(
                            inside.is_err(),
                            "walk begun after the flush completed was served {inside:?}"
                        );
                        checked += 1;
                    }
                    walks.fetch_add(1, Ordering::SeqCst);
                }
                (checked, gc.walk_cache.stats())
            });

            // Each phase lasts until the walker has begun and ended a walk
            // inside it, so both the cached and the reclaimed view are seen.
            // A walker that failed stops advancing; `join` reports it.
            let await_walks = |n: u64| {
                let target = walks.load(Ordering::SeqCst) + n;
                while walks.load(Ordering::SeqCst) < target && !walker.is_finished() {
                    std::thread::yield_now();
                }
            };
            for _ in 0..300 {
                await_walks(2);
                let unmapped = ept.unmap(reclaimed);
                let seq = post_flush(&vctx, 1, reclaimed);
                while q.completed() < seq && !walker.is_finished() {
                    std::thread::yield_now();
                }
                phase.fetch_add(1, Ordering::SeqCst);
                await_walks(2);
                phase.fetch_add(1, Ordering::SeqCst);
                let mapped = ept.map_identity(reclaimed, 2);
                if unmapped.and(mapped).is_err() || walker.is_finished() {
                    break;
                }
            }
            done.store(true, Ordering::SeqCst);
            let (checked, (hits, _)) = walker.join().unwrap();
            assert!(checked >= 300, "every unmapped phase held a whole walk");
            assert!(hits > 300, "the mapped phases were served from the cache");
        });
    }

    #[test]
    fn one_leaf_fill_serves_every_pt_page_under_it() {
        let w = world(ExecMode::Covirt(CovirtConfig::MEM));
        let ept = ept_of(&w);
        let node = w.master.pisces().node();
        let mem = w.enclave.resources().mem[0];
        let (walk_cache, region_cache) = (WalkCache::new(), RegionCache::new());
        let loader = NestedLoad::new(&ept, &node.mem, Some(&walk_cache), &region_cache);
        // 256 guest PT pages under one 2 MiB EPT leaf, as `frag` has.
        let leaf = mem.start.align_up(PAGE_SIZE_2M);
        assert!(mem.covers(&PhysRange::new(leaf, PAGE_SIZE_2M)));
        let (_, fill) = loader.translate_entry_addr(leaf).unwrap();
        assert!(fill > 0, "the cold fill walks the EPT");
        for pt_page in 1..256 {
            let entry = leaf.add(pt_page * PAGE_SIZE_4K + 8 * pt_page);
            assert_eq!(loader.translate_entry_addr(entry).unwrap(), (entry, 0));
        }
        loader.count_line_hits();
        assert_eq!(walk_cache.stats(), (255, 1));
        assert_eq!(loader.loads.get(), fill);
    }

    /// A 2-entry 2 MiB TLB: strided reads over four 2 MiB pages all miss.
    const TWO_PAGE_TLB: TlbParams = TlbParams {
        entries_4k: 16,
        entries_2m: 2,
        entries_1g: 1,
    };

    /// A Covirt core with a 2-page TLB over an 8 MiB table whose data leaves
    /// and the guest tables' line the walk cache holds, and that table.
    fn warm_core(w: &World) -> (GuestCore, u64) {
        let mut gc = core_with(w, 1, TWO_PAGE_TLB);
        let a = w.kernel.alloc_contiguous(8 << 20, &mut 0).unwrap();
        // The first four misses fill the data leaves, each fill forgetting
        // the line; the next four set it and keep it.
        misses(&mut gc, a, 8);
        let line = w.kernel.page_tables.root().align_down(PAGE_SIZE_2M);
        assert_eq!(gc.walk_cache.table_line(), Some(line.raw()));
        (gc, a)
    }

    /// `n` reads, each a TLB miss, striding over the four pages at `a`.
    fn misses(gc: &mut GuestCore, a: u64, n: u64) {
        let walks = gc.counters.walks;
        for i in 0..n {
            gc.read_u64(a + (i % 4) * PAGE_SIZE_2M).unwrap();
        }
        assert_eq!(gc.counters.walks, walks + n, "every read missed");
    }

    /// Once one miss has set the table line, a miss walks the guest's
    /// tables inside it: no entry goes to a walk-cache lookup, and the
    /// counts are what the lookups would have made — a hit per level and
    /// one for the data page.
    #[test]
    fn warm_misses_take_no_slow_path_entry_translation() {
        let w = world(ExecMode::Covirt(CovirtConfig::MEM));
        let (mut gc, a) = warm_core(&w);
        let before = gc.counters();
        misses(&mut gc, a, 64);
        let after = gc.counters();
        assert_eq!(
            after.slow_entry_translations,
            before.slow_entry_translations
        );
        assert_eq!(after.walk_cache_hits, before.walk_cache_hits + 64 * 4);
        assert_eq!(after.walk_cache_misses, before.walk_cache_misses);
        assert_eq!(after.walk_loads, before.walk_loads);
        assert_eq!(after.guest_walk_loads, before.guest_walk_loads + 64 * 3);
        assert_eq!(
            after.resolve_hits,
            before.resolve_hits + 64,
            "the TLB fills"
        );
    }

    /// The table line goes with every flush command the hypervisor runs
    /// and with every 2 MiB fill; the next miss looks its first entry up
    /// again and the misses after it are back inside the line.
    #[test]
    fn each_flush_command_and_each_2m_fill_forget_the_table_line() {
        let w = world(ExecMode::Covirt(CovirtConfig::MEM));
        let (mut gc, a) = warm_core(&w);
        let slow = |gc: &GuestCore| gc.counters().slow_entry_translations;
        let line = gc.walk_cache.table_line().unwrap();
        // A range flush of the line's own page drops no data leaf; a full
        // flush drops the four, and each 2 MiB refill forgets the line once
        // more.
        let flushes = [
            (
                range_flush(PhysRange::new(HostPhysAddr::new(line), PAGE_SIZE_2M)),
                1,
            ),
            (Command::TlbFlushAll, 1 + 4),
        ];
        for (cmd, cost) in flushes {
            run_command(&w, &mut gc, cmd);
            assert_eq!(gc.walk_cache.table_line(), None, "{cmd:?}");
            let before = slow(&gc);
            misses(&mut gc, a, 16);
            assert_eq!(slow(&gc), before + cost, "{cmd:?}");
        }

        // A 2 MiB page in the line's slot, 16 lines (the class's slots)
        // away: its fill evicts no data leaf.
        let mem = w.enclave.resources().mem[0];
        let fresh = [
            line + 16 * PAGE_SIZE_2M,
            line.wrapping_sub(16 * PAGE_SIZE_2M),
        ]
        .into_iter()
        .find(|&c| mem.covers(&PhysRange::new(HostPhysAddr::new(c), PAGE_SIZE_2M)))
        .unwrap();
        gc.read_u64(fresh).unwrap();
        assert_eq!(gc.walk_cache.table_line(), None, "its 2 MiB fill");
        let before = slow(&gc);
        misses(&mut gc, a, 16);
        assert_eq!(slow(&gc), before + 1);
    }

    /// With the walk cache off there is no table line: every level of
    /// every walk translates its entry through the live EPT.
    #[test]
    fn with_the_walk_cache_off_every_level_takes_the_slow_path() {
        let w = world(ExecMode::Covirt(CovirtConfig::MEM));
        let mut gc = core_with(&w, 1, TWO_PAGE_TLB);
        gc.set_walk_cache_enabled(false);
        let a = w.kernel.alloc_contiguous(8 << 20, &mut 0).unwrap();
        misses(&mut gc, a, 16);
        let c = gc.counters();
        assert_eq!(c.slow_entry_translations, 16 * 3);
        assert_eq!(c.slow_entry_translations, c.guest_walk_loads);
    }

    /// A walk inside the table line whose lower table is elsewhere looks
    /// up only the entry outside the line: the levels inside it are counted
    /// once, as hits, and the line moves to the one that answered.
    #[test]
    fn a_walk_through_a_table_outside_the_line_looks_up_only_that_entry() {
        use covirt_simhw::paging::x86_bits::{ADDR, P, PS, RW};

        let w = world(ExecMode::Covirt(CovirtConfig::MEM));
        let (mut gc, _) = warm_core(&w);
        let (pd, data) = (grant_2m(&w).start.raw(), grant_2m(&w).start.raw());
        // A 2 MiB page in a GiB the guest has not mapped, whose PD page
        // is outside the line.
        let gva = 0x40_0000_0000 + 3 * PAGE_SIZE_2M;
        let root = w.kernel.page_tables.root().raw();
        let pdpt = gc.read_u64(root + ((gva >> 39) & 0x1ff) * 8).unwrap() & ADDR;
        let pdpte = pdpt + ((gva >> 30) & 0x1ff) * 8;
        assert_eq!(gc.read_u64(pdpte).unwrap(), 0, "an unmapped GiB");
        gc.write_u64(pd + ((gva >> 21) & 0x1ff) * 8, data | P | RW | PS)
            .unwrap();
        gc.write_u64(pdpte, pd | P | RW).unwrap();
        gc.write_u64(data + 8, 0xfeed).unwrap();
        // The data write's 2 MiB fill forgot the line; a miss on the PD
        // page, whose leaf the cache holds, sets it again.
        gc.read_u64(pd).unwrap();
        assert_eq!(gc.walk_cache.table_line(), Some(root & !(PAGE_SIZE_2M - 1)));

        let before = gc.counters();
        assert_eq!(gc.read_u64(gva + 8).unwrap(), 0xfeed);
        let after = gc.counters();
        assert_eq!(after.walks, before.walks + 1);
        assert_eq!(after.guest_walk_loads, before.guest_walk_loads + 3);
        assert_eq!(after.walk_loads, before.walk_loads, "every gpa was cached");
        assert_eq!(
            after.walk_cache_hits,
            before.walk_cache_hits + 4,
            "two levels in the line, the PD page and the data page"
        );
        assert_eq!(after.walk_cache_misses, before.walk_cache_misses);
        assert_eq!(
            after.slow_entry_translations,
            before.slow_entry_translations + 1
        );
        assert_eq!(
            after.resolve_hits,
            before.resolve_hits + 2,
            "the off-pool PDE and the TLB fill"
        );
        assert_eq!(gc.walk_cache.table_line(), Some(pd), "the PD page's line");
    }

    /// The table line never outlives what the EPT grants: once the line
    /// under the guest's page tables is unmapped, or narrowed to no read
    /// right, and the flush round trip has returned, the next miss reads a
    /// table entry there and is contained.
    #[test]
    fn a_table_line_the_ept_takes_back_is_not_walked_after_its_flush() {
        use covirt_simhw::paging::Perms;

        for how in ["unmap", "narrow"] {
            let w = world(ExecMode::Covirt(CovirtConfig::MEM));
            let (mut gc, a) = warm_core(&w);
            let root = w.kernel.page_tables.root();
            let line = PhysRange::new(root.align_down(PAGE_SIZE_2M), PAGE_SIZE_2M);
            if how == "unmap" {
                let ctl = w.controller.as_ref().unwrap();
                std::thread::scope(|s| {
                    let op = s.spawn(|| ctl.unmap_and_flush(w.enclave.id.0, line));
                    while !op.is_finished() {
                        gc.poll().unwrap();
                        std::thread::yield_now();
                    }
                    op.join().unwrap().unwrap();
                });
            } else {
                let exec_only = Perms {
                    r: false,
                    w: false,
                    x: true,
                };
                ept_of(&w).map_identity_perms(line, exec_only, 2).unwrap();
                flush_range(&w, &mut gc, line);
            }
            assert_eq!(gc.walk_cache.table_line(), None, "{how}");
            let pml4e = root.raw() + ((a >> 39) & 0x1ff) * 8;
            let fault = InjectedFault::WildAccess {
                addr: HostPhysAddr::new(a + PAGE_SIZE_2M),
                write: false,
            };
            match gc.execute_fault(fault) {
                FaultOutcome::Contained(r) => assert!(
                    r.contains(&format!("EPT violation at {pml4e:#x} (Read)")),
                    "{how}: {r}"
                ),
                other => panic!("{how}: a walk through the taken-back line gave {other:?}"),
            }
            assert!(gc.terminated().is_some(), "{how}");
        }
    }

    #[test]
    fn chunked_access_spans_pages() {
        let w = world(ExecMode::Native);
        let mut gc = core(&w, 1);
        let a = data_gva(&w);
        let count = 1_000_000usize; // ~8 MB? no — 1M f64 = 8MB > alloc; use 400k
        let count = count.min(400_000);
        let mut filled = 0usize;
        gc.with_chunks_mut::<f64>(a, count, |off, chunk| {
            for (i, v) in chunk.iter_mut().enumerate() {
                *v = (off + i) as f64;
            }
            filled += chunk.len();
        })
        .unwrap();
        assert_eq!(filled, count);
        let mut sum = 0.0;
        gc.with_chunks::<f64>(a, count, |_, chunk| {
            sum += chunk.iter().sum::<f64>();
        })
        .unwrap();
        let nexp = (count as f64 - 1.0) * count as f64 / 2.0;
        assert_eq!(sum, nexp);
    }

    /// Containment is on the record, local and final. The fault report
    /// carries what the reclaim returned — under `MEM` a refusal, one of the
    /// enclave's ranges having gone back behind the host's back — and the
    /// bystander runs on either way. No entry point runs guest code on the
    /// terminated core, let alone takes a VM exit that would put the parked
    /// CPU back in guest mode (under `FULL` the MSR and port below are
    /// intercepted, under `MEM` they are not).
    #[test]
    fn wild_access_contained_under_covirt() {
        for config in [CovirtConfig::MEM, CovirtConfig::FULL] {
            let w = world(ExecMode::Covirt(config));
            let req = ResourceRequest::new(vec![CoreId(3)], vec![(ZoneId(0), 32 << 20)]);
            let (bystander, _kernel) = w.master.bring_up_enclave("bystander", &req).unwrap();
            let mut gc = core(&w, 1);
            let stray = (config == CovirtConfig::MEM).then(|| grant_2m(&w));
            stray.inspect(|r| w.master.pisces().node().mem.free(*r).unwrap());

            let fault = kitten::faults::off_by_one_region(&w.kernel);
            match gc.execute_fault(fault) {
                FaultOutcome::Contained(reason) => assert!(reason.contains("EPT violation")),
                o => panic!("expected containment, got {o:?}"),
            }
            assert!(gc.terminated().is_some());
            // The master control recorded the failure; the log, the reclaim.
            assert!(matches!(w.enclave.state(), pisces::EnclaveState::Failed(_)));
            let reports = w.controller.as_ref().unwrap().faults.all();
            let refused = stray.map(|range| HwError::DoubleFree { range });
            let reclaim = refused.map_or(Ok(()), |e| Err(hobbes::HobbesError::Pisces(e.into())));
            assert_eq!(reports.len(), 1, "{config}");
            assert_eq!(reports[0].reclaim, Some(reclaim), "{config}");
            assert_eq!(bystander.state(), pisces::EnclaveState::Running);

            let (exits, a) = (gc.exit_count(), data_gva(&w));
            let entry_points = [
                gc.read_u64(a).map(drop),
                gc.write_u64(a, 1),
                gc.with_chunks::<u64>(a, 1, |_, _| ()),
                gc.with_chunks_mut::<u64>(a, 1, |_, _| ()),
                gc.send_ipi(2, 0x40),
                gc.cpuid(0),
                gc.wrmsr(covirt_simhw::msr::IA32_MC0_CTL, 1),
                gc.io_write(covirt_simhw::ioport::PORT_KBD_RESET, 1),
                gc.poll(),
            ];
            for (i, r) in entry_points.into_iter().enumerate() {
                let terminated = matches!(r, Err(CovirtError::EnclaveTerminated(_)));
                assert!(terminated, "{config}: entry point {i} returned {r:?}");
            }
            assert_eq!(gc.exit_count(), exits, "{config}");
            let parked = covirt_simhw::cpu::VmxState::Off;
            assert_eq!(gc.cpu.vmx_state(), parked, "{config}");
        }
    }

    #[test]
    fn wild_access_corrupts_natively() {
        let w = world(ExecMode::Native);
        let mut gc = core(&w, 1);
        // Allocate a "victim" region right after the enclave (same zone) so
        // the off-by-one lands in backed memory.
        let victim = w
            .master
            .pisces()
            .node()
            .mem
            .alloc_backed(ZoneId(0), 4096, covirt_simhw::addr::PAGE_SIZE_4K)
            .unwrap();
        let fault = kitten::faults::off_by_one_region(&w.kernel);
        match gc.execute_fault(fault) {
            FaultOutcome::CorruptedMemory { .. } => {}
            // Depending on layout the rogue page may be unbacked → crash.
            FaultOutcome::NodeCrash(_) => {}
            o => panic!("native wild access must corrupt or crash, got {o:?}"),
        }
        let _ = victim;
    }

    #[test]
    fn errant_ipi_blocked_under_protection() {
        let w = world(ExecMode::Covirt(CovirtConfig::MEM_IPI));
        let mut gc = core(&w, 1);
        let fault = kitten::faults::errant_ipi(0, 0x2f);
        assert_eq!(gc.execute_fault(fault), FaultOutcome::IpiBlocked);
        let (_, dropped) = w
            .controller
            .as_ref()
            .unwrap()
            .context(w.enclave.id.0)
            .unwrap()
            .whitelist
            .counts();
        assert_eq!(dropped, 1);
    }

    #[test]
    fn errant_ipi_delivered_natively() {
        let w = world(ExecMode::Native);
        let mut gc = core(&w, 1);
        let fault = kitten::faults::errant_ipi(0, 0x2f);
        assert_eq!(
            gc.execute_fault(fault),
            FaultOutcome::IpiDelivered {
                victim: 0,
                vector: 0x2f
            }
        );
    }

    #[test]
    fn legitimate_ipi_allowed_under_protection() {
        let w = world(ExecMode::Covirt(CovirtConfig::MEM_IPI));
        let mut sender = core(&w, 1);
        let mut receiver = core(&w, 2);
        let vector = w.enclave.resources().ipi_vectors[0];
        sender.send_ipi(2, vector).unwrap();
        receiver.poll().unwrap();
        assert_eq!(receiver.counters.ipi_irqs, 1);
        // In TrapAll mode the receive cost an exit.
        assert!(receiver.exit_count() >= 1);
    }

    #[test]
    fn posted_mode_delivers_without_receive_exit() {
        let w = world(ExecMode::Covirt(CovirtConfig::MEM_IPI_PIV));
        let mut sender = core(&w, 1);
        let mut receiver = core(&w, 2);
        let vector = w.enclave.resources().ipi_vectors[0];
        let rx_exits_before = receiver.exit_count();
        sender.send_ipi(2, vector).unwrap();
        receiver.poll().unwrap();
        assert_eq!(receiver.counters.ipi_irqs, 1);
        assert_eq!(receiver.counters.posted_harvested, 1);
        assert_eq!(
            receiver.exit_count(),
            rx_exits_before,
            "PIV receive must not exit"
        );
    }

    #[test]
    fn timer_fires_and_exits_per_config() {
        // Tickful kernel: poll after the period elapses.
        for (mode, expect_exit) in [
            (ExecMode::Native, false),
            (ExecMode::Covirt(CovirtConfig::NONE), true),
            (ExecMode::Covirt(CovirtConfig::MEM), true),
            (ExecMode::Covirt(CovirtConfig::MEM_IPI), true),
            (ExecMode::Covirt(CovirtConfig::MEM_IPI_PIV), true), // timer is a hardware intr
        ] {
            let w = world(mode);
            let mut gc = core(&w, 1);
            gc.cpu.apic.arm_timer(100_000, true, TIMER_VECTOR); // 100 µs
            std::thread::sleep(std::time::Duration::from_millis(1));
            gc.poll().unwrap();
            assert!(gc.counters.timer_irqs >= 1, "{mode}: timer must fire");
            if expect_exit {
                assert!(gc.exit_count() >= 1, "{mode}: timer must cost an exit");
            } else {
                assert_eq!(gc.exit_count(), 0);
            }
        }
    }

    /// The timer handler is charged on the node clock: a poll that
    /// delivers one tick moves it by at least the handler's cost. A lower
    /// bound only: a loaded host may deschedule the core past it.
    #[test]
    fn a_timer_delivery_advances_the_node_clock_by_its_handler() {
        let w = world(ExecMode::Native);
        let mut gc = core(&w, 1);
        for tick in 1..=20 {
            gc.cpu.apic.arm_timer(1, false, TIMER_VECTOR); // due at once
            let t0 = gc.clock().rdtsc();
            gc.poll().unwrap();
            let took = gc.clock().rdtsc() - t0;
            assert_eq!(gc.counters.timer_irqs, tick);
            assert!(
                took >= gc.clock().ns_to_cycles(TIMER_HANDLER_NS),
                "{took} cycles"
            );
        }
    }

    /// The data path moves aligned words. A word at a mapped page's last 4
    /// bytes is the guest's own fault in every entry point: no exit, no
    /// byte of the next page touched, and the core reads its memory after.
    #[test]
    fn a_misaligned_word_is_refused_and_touches_nothing() {
        for mode in [ExecMode::Native, ExecMode::Covirt(CovirtConfig::MEM)] {
            let w = world(mode);
            let mut gc = core(&w, 1);
            let end = (data_gva(&w) + PAGE_SIZE_2M) & !(PAGE_SIZE_2M - 1);
            gc.write_u64(end - 8, 1).unwrap();
            gc.write_u64(end, 2).unwrap();
            let exits = gc.exit_count();
            let at = end - 4;
            let refused = [
                gc.write_u64(at, u64::MAX),
                gc.read_u64(at).map(drop),
                gc.with_chunks::<u64>(at, 1, |_, _| ()),
                gc.with_chunks_mut::<u64>(at, 1, |_, c| c[0] = u64::MAX),
            ];
            for (i, r) in refused.into_iter().enumerate() {
                assert!(
                    matches!(r, Err(CovirtError::Invalid(_))),
                    "{mode}: {i}: {r:?}"
                );
            }
            assert_eq!(gc.exit_count(), exits, "{mode}");
            assert!(gc.terminated().is_none(), "{mode}");
            assert_eq!(gc.read_u64(end - 8).unwrap(), 1, "{mode}");
            assert_eq!(gc.read_u64(end).unwrap(), 2, "{mode}");
        }
    }

    /// Steady-state command delivery is exitless: a doorbell-first
    /// shootdown barrier completes with zero VM exits, zero NMI
    /// escalations, and the commands harvested in guest mode.
    #[test]
    fn doorbell_commands_complete_without_vm_exits() {
        let w = world(ExecMode::Covirt(CovirtConfig::MEM));
        let ctl = Arc::clone(w.controller.as_ref().unwrap());
        let mut g1 = core(&w, 1);
        let mut g2 = core(&w, 2);
        let (e1, e2) = (g1.exit_count(), g2.exit_count());
        let enclave = w.kernel.params.enclave_id;

        let c = Arc::clone(&ctl);
        let h = std::thread::spawn(move || c.shootdown_barrier(enclave));
        while !h.is_finished() {
            g1.poll().unwrap();
            g2.poll().unwrap();
            std::hint::spin_loop();
        }
        h.join().unwrap().unwrap();

        assert_eq!(g1.exit_count(), e1, "command path must not exit");
        assert_eq!(g2.exit_count(), e2, "command path must not exit");
        assert!(
            g1.counters.cmd_harvested >= 1,
            "core 1 drained in guest mode"
        );
        assert!(
            g2.counters.cmd_harvested >= 1,
            "core 2 drained in guest mode"
        );
        assert_eq!(ctl.nmi_escalation_count(), 0, "no fallback NMI needed");
    }

    /// A parked core (not polling) forces the bounded fallback: the
    /// controller escalates to an NMI within the configured bound and the
    /// command still completes once the core resumes.
    #[test]
    fn parked_core_escalates_to_nmi_within_bound() {
        let w = world(ExecMode::Covirt(CovirtConfig::MEM));
        let ctl = Arc::clone(w.controller.as_ref().unwrap());
        let mut g1 = core(&w, 1);
        let mut g2 = core(&w, 2);
        let enclave = w.kernel.params.enclave_id;
        // Tiny bound: the parked cores blow it immediately.
        ctl.set_escalation_bound_ns(1_000);

        let c = Arc::clone(&ctl);
        let h = std::thread::spawn(move || c.shootdown_barrier(enclave));
        // Park until the controller has escalated, then resume polling so
        // the NMI-driven drain can run.
        while c_escalations(&ctl) < 1 && !h.is_finished() {
            std::thread::yield_now();
        }
        while !h.is_finished() {
            g1.poll().unwrap();
            g2.poll().unwrap();
            std::hint::spin_loop();
        }
        h.join().unwrap().unwrap();
        assert!(
            ctl.nmi_escalation_count() >= 1,
            "bound must trigger escalation"
        );
        // The drain happened on the NMI exit path, not in guest mode.
        assert!(g1.exit_count() >= 1 || g2.exit_count() >= 1);
    }

    fn c_escalations(ctl: &CovirtController) -> u64 {
        ctl.nmi_escalation_count()
    }

    /// An escalation bound of 0 is the paper's NMI-only protocol: the NMI
    /// goes out with each post, beside the doorbell, so every core drains on
    /// an exit, nothing is harvested in guest mode and no escalation is
    /// counted. The cores first poll once both doorbells rang; a post's NMI
    /// precedes its doorbell, so that poll takes the exit.
    #[test]
    fn a_zero_escalation_bound_drains_every_command_on_an_nmi_exit() {
        let w = world(ExecMode::Covirt(CovirtConfig::MEM));
        let ctl = Arc::clone(w.controller.as_ref().unwrap());
        ctl.set_escalation_bound_ns(0);
        let vctx = vctx_of(&w);
        let mut g1 = core(&w, 1);
        let mut g2 = core(&w, 2);
        let enclave = w.kernel.params.enclave_id;

        let c = Arc::clone(&ctl);
        let h = std::thread::spawn(move || c.shootdown_barrier(enclave));
        let rung = |core| vctx.cmd_doorbell(core).unwrap().notification_outstanding();
        while !(h.is_finished() || rung(1) && rung(2)) {
            std::thread::yield_now();
        }
        while !h.is_finished() {
            g1.poll().unwrap();
            g2.poll().unwrap();
            std::hint::spin_loop();
        }
        h.join().unwrap().unwrap();
        for g in [&g1, &g2] {
            assert!(g.exit_count() >= 1, "NMI delivery costs a VM exit");
            assert_eq!(g.counters.cmd_harvested, 0, "harvested in guest mode");
        }
        assert_eq!(ctl.nmi_escalation_count(), 0, "the NMI went with the post");
    }

    /// At a bound of 0, cores that poll all through the post race its NMI
    /// and its doorbell, and every interleaving converges. A safe point
    /// between its NMI check and its doorbell check harvests the command in
    /// guest mode, and the NMI exits over an empty queue afterwards; an NMI
    /// exit that drains before the doorbell rang leaves the doorbell set
    /// over an empty queue, and the next safe point counts it. Either way
    /// each command is drained once, each NMI costs one exit, and no
    /// escalation is counted.
    #[test]
    fn a_zero_escalation_bound_converges_against_cores_polling_throughout() {
        const ROUNDS: u64 = 20;
        let w = world(ExecMode::Covirt(CovirtConfig::MEM));
        let ctl = Arc::clone(w.controller.as_ref().unwrap());
        ctl.set_escalation_bound_ns(0);
        let vctx = vctx_of(&w);
        let mut gs = [core(&w, 1), core(&w, 2)];
        let before = gs.each_ref().map(|g| {
            let c = &g.counters;
            (g.exit_count(), c.cmd_harvested, c.cmd_doorbells)
        });
        let enclave = w.kernel.params.enclave_id;

        for _ in 0..ROUNDS {
            let c = Arc::clone(&ctl);
            let h = std::thread::spawn(move || c.shootdown_barrier(enclave));
            while !h.is_finished() {
                gs.iter_mut().for_each(|g| g.poll().unwrap());
                std::hint::spin_loop();
            }
            h.join().unwrap().unwrap();
            // Take the NMI of a command harvested ahead of its exit.
            gs.iter_mut().for_each(|g| g.poll().unwrap());
        }
        for (i, (g, (exits, harvested, doorbells))) in gs.iter().zip(before).enumerate() {
            let c = &g.counters;
            assert_eq!(vctx.cmdq(i + 1).unwrap().pending(), 0);
            assert!(g.exit_count() - exits >= ROUNDS, "an NMI not taken");
            assert!(
                c.cmd_harvested - harvested <= ROUNDS,
                "a command drained twice"
            );
            assert!(
                c.cmd_doorbells - doorbells <= ROUNDS,
                "a doorbell counted twice"
            );
        }
        assert_eq!(ctl.nmi_escalation_count(), 0, "the NMI went with the post");
    }

    /// Run `host_op` — which blocks on a shootdown whenever it signals a
    /// live core — while `gc` polls exactly once, after its doorbell rang
    /// (or after `host_op` returned without ringing it).
    fn with_one_poll(w: &World, gc: &mut GuestCore, host_op: impl FnOnce() + Send) {
        let Some(ctl) = &w.controller else {
            host_op();
            return gc.poll().unwrap();
        };
        let vctx = ctl.context(w.enclave.id.0).unwrap();
        let bell = vctx.cmd_doorbell(gc.core).unwrap();
        std::thread::scope(|s| {
            let op = s.spawn(host_op);
            while !bell.notification_outstanding() && !op.is_finished() {
                std::thread::yield_now();
            }
            gc.poll().unwrap();
        });
    }

    /// The refactor oracle: one scripted run per mode, every count pinned.
    /// The numbers were taken at PR 19's commit (EXPERIMENTS.md §"PR 20");
    /// PR 23 and PR 25 moved three columns of the rows with an EPT, as the
    /// assertion says. Since physical memory became a linear map every
    /// resolve counts as a hit: the 7 hits and 4 misses of the region cache
    /// it replaced are 11 hits.
    #[test]
    fn scripted_run_reproduces_the_pinned_counts_in_every_mode() {
        // One row per mode; the columns are in the order of `got` below.
        let piv = ExecMode::Covirt(CovirtConfig::MEM_IPI_PIV);
        let modes = ExecMode::paper_sweep().into_iter().chain([piv]);
        #[rustfmt::skip]
        let pinned: [[u64; 24]; 5] = [
            [16, 3, 11, 33, 2, 0, 1, 0, 0, 0, 4, 0, 0, 11, 0, 8, 11, 0, 0, 0, 0, 0, 0, 0],
            [16, 3, 11, 33, 2, 0, 1, 0, 1, 1, 4, 0, 0, 11, 0, 8, 11, 0, 0, 2, 0, 0, 0, 0],
            [16, 3, 11, 10, 2, 0, 1, 0, 4, 4, 4, 43, 1, 11, 0, 8, 11, 0, 3, 2, 3, 0, 5, 3],
            [16, 3, 11, 10, 2, 0, 1, 0, 4, 4, 4, 43, 1, 11, 0, 8, 11, 0, 3, 4, 3, 0, 5, 3],
            [16, 3, 11, 10, 2, 0, 1, 1, 4, 4, 4, 43, 1, 11, 0, 8, 11, 0, 3, 3, 3, 0, 5, 3],
        ];
        for (mode, want) in modes.zip(pinned) {
            let w = world(mode);
            let ctl = w.controller.as_ref();
            let (host, id) = (w.master.pisces(), w.enclave.id.0);
            let tlb = TlbParams {
                entries_2m: 2,
                ..TlbParams::default()
            };
            let mut gc = core_with(&w, 1, tlb);
            gc.cpu.apic.arm_timer(0, false, TIMER_VECTOR); // no wall-clock ticks
            if let Some(c) = ctl {
                c.set_escalation_bound_ns(u64::MAX >> 1); // nor wall-clock kicks
            }

            // Strided reads, 2 MiB apart over a 2-entry 2 MiB TLB: each
            // page misses, its second word hits.
            let a = w.kernel.alloc_contiguous(8 << 20, &mut 0).unwrap();
            for i in 0..8 {
                gc.read_u64(a + (i % 4) * PAGE_SIZE_2M).unwrap();
                gc.read_u64(a + (i % 4) * PAGE_SIZE_2M + 8).unwrap();
            }
            // Grant → write → reclaim, three times.
            let reclaim = |gc: &mut GuestCore, range: PhysRange| {
                host.request_remove_memory(&w.enclave, range).unwrap();
                w.kernel.poll_ctrl().unwrap();
                with_one_poll(&w, gc, || {
                    host.process_acks(&w.enclave).unwrap();
                });
            };
            let ranges = [grant_2m(&w), grant_2m(&w), grant_2m(&w)];
            for r in ranges {
                gc.write_u64(r.start.raw(), 7).unwrap();
            }
            for r in ranges {
                reclaim(&mut gc, r);
            }
            // One always-exiting instruction, one whitelisted IPI (to this
            // core, so the barrier's poll receives it), one refused, one
            // barrier.
            gc.cpuid(0).unwrap();
            gc.send_ipi(1, w.enclave.resources().ipi_vectors[0])
                .unwrap();
            gc.send_ipi(0, 0x2f).unwrap();
            with_one_poll(&w, &mut gc, || {
                ctl.inspect(|c| c.shootdown_barrier(id).unwrap());
            });

            let (c, t) = (gc.counters(), gc.tlb_stats());
            let ept = ctl.and_then(|c| c.context(id).ok()?.ept.clone());
            let (maps, unmaps) = ept.map_or((0, 0), |e| e.op_counts());
            let (shootdowns, escalations) =
                ctl.map_or((0, 0), |c| (c.shootdown_count(), c.nmi_escalation_count()));
            #[rustfmt::skip]
            let got = [
                c.reads, c.writes, c.walks, c.walk_loads, c.ipis_sent, c.timer_irqs, c.ipi_irqs,
                c.posted_harvested, c.cmd_doorbells, c.cmd_harvested, c.polls, c.walk_cache_hits,
                c.walk_cache_misses, c.resolve_hits, c.resolve_misses,
                t.hits, t.misses, t.full_flushes, t.range_flushes,
                gc.exit_count(), shootdowns, escalations, maps, unmaps,
            ];
            assert_eq!(
                got, want,
                "{mode}: under an EPT the 11 walks make 44 walk-cache lookups (33 before \
                 PR 23, when the data page skipped the cache) and 8 cold leaves — the PT \
                 pages', 4 strided data leaves, 3 grants. Since PR 25 only the first is \
                 walked from the EPT root (3 loads); it caches its GiB's PDPTE, and the \
                 other 7 resume at that PD page (1 load each, a hit): 10 walk loads (was \
                 24), 43 hits (was 36), 1 miss (was 8)"
            );
        }
    }

    #[test]
    fn tlb_flush_protocol_closes_stale_window() {
        let w = world(ExecMode::Covirt(CovirtConfig::MEM));
        let mut gc = core(&w, 1);

        // Grant a region, touch it (fills TLB), then reclaim it.
        let range = w
            .master
            .pisces()
            .add_memory(&w.enclave, ZoneId(0), 2 * 1024 * 1024)
            .unwrap();
        w.kernel.poll_ctrl().unwrap();
        w.master.pisces().process_acks(&w.enclave).unwrap();
        gc.write_u64(range.start.raw(), 0x11).unwrap();
        assert_eq!(gc.read_u64(range.start.raw()).unwrap(), 0x11);

        // Reclaim from a host thread while the guest core polls — the
        // controller blocks until the flush completes on the live core.
        let host = Arc::clone(w.master.pisces());
        let enclave = Arc::clone(&w.enclave);
        let kernel = Arc::clone(&w.kernel);
        let h = std::thread::spawn(move || {
            host.request_remove_memory(&enclave, range).unwrap();
            // Wait for the guest to ack, then complete (hook runs inside).
            for _ in 0..1_000_000 {
                host.process_acks(&enclave).unwrap();
                if !enclave.resources().mem.contains(&range) {
                    return true;
                }
                std::thread::yield_now();
            }
            false
        });
        // Guest side: ack the removal, then keep polling so the NMI-driven
        // flush command gets serviced.
        for _ in 0..1_000_000 {
            kernel.poll_ctrl().unwrap();
            gc.poll().unwrap();
            if h.is_finished() {
                break;
            }
            std::thread::yield_now();
        }
        assert!(h.join().unwrap(), "reclaim must complete");
        // The TLB was flushed and the EPT no longer maps the region: the
        // stale access is now contained (kernel map was cleaned up too, so
        // rebuild the stale state first — the XEMEM-bug scenario).
        let fault = kitten::faults::stale_shared_mapping(&w.kernel, range);
        match gc.execute_fault(fault) {
            FaultOutcome::Contained(r) => assert!(r.contains("EPT violation")),
            o => panic!("stale access must be contained, got {o:?}"),
        }
    }
}
