//! The per-CPU Covirt hypervisor.
//!
//! "Ideally the Covirt hypervisor would only initialize the local CPU
//! virtualization context, jump into the co-kernel initialization routines,
//! and never run again." The structure below is that minimal context: it
//! owns one core, launches the pre-configured VMCS, and afterwards runs
//! only to handle the small set of exits — emulated instructions, trapped
//! MSR/IO/ICR accesses, NMI-signalled command-queue work, and abort-class
//! faults, on which it terminates the enclave and parks the core.
//!
//! The hypervisor deliberately allocates no working memory: everything it
//! works on — the VMCS, the EPT, the command queue, the doorbell — is
//! what the controller built before the core booted, and the queue lives
//! in a node-lifetime frame no EPT maps.

use crate::cmdqueue::{CmdQueue, Command, Drained, SeqCommand};
use crate::controller::CovirtController;
use crate::vctx::VirtContext;
use crate::{CovirtError, CovirtResult};
use covirt_simhw::apic::IcrCommand;
use covirt_simhw::cpu::{Cpu, VmxEvent};
use covirt_simhw::ept::WalkCache;
use covirt_simhw::exit::ExitReason;
use covirt_simhw::node::SimNode;
use covirt_simhw::posted::PostedIntDescriptor;
use covirt_simhw::tlb::Tlb;
use covirt_simhw::vmcs::Vmcs;
use covirt_trace::{pack_str, EventKind, Tracer};
use parking_lot::RwLock;
use std::sync::Arc;

/// Measured VM-entry/exit round-trip on Broadwell-class hardware is on the
/// order of 1,200 guest cycles; the model charges this much wall time per
/// exit so that exit-rate differences between configurations produce the
/// same *shape* of overhead the paper measures.
pub const VM_TRANSITION_NS: u64 = 700;

/// What the exec loop should do after an exit was handled.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExitAction {
    /// Re-enter the guest.
    Resume,
    /// The enclave was terminated; the abort reason, formatted once and
    /// shared by everyone the termination is reported to.
    Terminate(Arc<str>),
}

/// Burn wall-clock time to model a fixed hardware cost: return at the
/// first clock read at or past `ns` after the call began.
///
/// The deadline is computed once, and each iteration is one clock read
/// and one comparison, with no `PAUSE` (`spin_loop`) between reads: the
/// wait ends within one read of its deadline, so a charge costs what it
/// models.
#[inline]
pub fn model_delay_ns(ns: u64) {
    let deadline = std::time::Instant::now() + std::time::Duration::from_nanos(ns);
    while std::time::Instant::now() < deadline {}
}

/// One per-core hypervisor instance. Owned by the thread driving the core
/// (no sharing — "each hypervisor context only supports a single CPU core
/// and is unaware of other hypervisor instances").
pub struct Hypervisor {
    /// The core this instance manages.
    pub core: usize,
    cpu: Arc<Cpu>,
    node: Arc<SimNode>,
    vctx: Arc<VirtContext>,
    /// The controller module, notified when this instance aborts.
    controller: Arc<CovirtController>,
    /// This core's command queue, taken from the context once at launch.
    cmdq: CmdQueue,
    /// This core's slot in the context, looked up once at launch: the
    /// safe-point check indexes its doorbell, it does not search.
    slot: usize,
    /// Flight-recorder handle for this core's lane.
    tracer: Tracer,
}

impl Hypervisor {
    /// CPU boot path: enable VMX, load the pre-configured VMCS, and
    /// "launch" the co-kernel — the simulated equivalent of the VMLAUNCH
    /// performed after the Pisces trampoline hand-off, one
    /// [`VmxEvent::Launch`]. Guest state (entry point, RDI = Pisces boot
    /// parameters) was already written by the controller. A terminated
    /// enclave is not entered again.
    pub fn launch(
        node: Arc<SimNode>,
        controller: Arc<CovirtController>,
        vctx: Arc<VirtContext>,
        core: usize,
    ) -> CovirtResult<Self> {
        let Some(slot) = vctx.slot_index(core) else {
            return Err(CovirtError::Invalid("core has no VMCS"));
        };
        let cmdq = vctx.cmdq(core).cloned();
        let cmdq = cmdq.ok_or(CovirtError::Invalid("core has no command queue"))?;
        if let Some(reason) = vctx.termination() {
            return Err(CovirtError::EnclaveTerminated(reason));
        }
        let s = vctx.slot_at(slot);
        let cpu = Arc::clone(&s.cpu);
        cpu.transition(vctx.enclave_id, VmxEvent::Launch)?;
        // A covirt guest loop checks the descriptor at every safe point, so
        // the physical notification IPI adds nothing while the core runs —
        // suppress it (the SN bit). Parked cores are covered by the
        // controller's bounded NMI fallback, which watches the completion
        // counter, not the interrupt.
        s.cmd_doorbell.set_suppress(true);
        model_delay_ns(VM_TRANSITION_NS); // the VMLAUNCH itself

        // Tag this core's lane with the enclave it runs, so exits, drains
        // and completions attribute to it in the audit engine.
        let tracer = node.tracer(core as u32).with_enclave(vctx.enclave_id);
        Ok(Hypervisor {
            core,
            cpu,
            node,
            vctx,
            controller,
            cmdq,
            slot,
            tracer,
        })
    }

    /// The context this hypervisor enforces.
    pub fn vctx(&self) -> &Arc<VirtContext> {
        &self.vctx
    }

    /// This core's VMCS.
    pub(crate) fn vmcs(&self) -> &RwLock<Vmcs> {
        &self.vctx.slot_at(self.slot).vmcs
    }

    /// This core's command-doorbell descriptor.
    #[inline]
    fn doorbell(&self) -> &PostedIntDescriptor {
        &self.vctx.slot_at(self.slot).cmd_doorbell
    }

    /// Whether the controller rang this core's command doorbell since the
    /// last [`Self::take_commands`]: its outstanding-notification bit. A
    /// poster sets that bit last, after its commands are queued and its
    /// vector posted, so one post is one harvest. The vector alone does not
    /// ring: a harvest between a poster's vector and its bit would take the
    /// commands early and leave the bit set over an empty queue. At an
    /// escalation bound of 0 an NMI exit between the post's NMI and its
    /// doorbell drains the queue, and the ring then finds nothing.
    #[inline]
    pub fn doorbell_rung(&self) -> bool {
        self.doorbell().notification_outstanding()
    }

    /// Acknowledge the doorbell, then drain the queue — in that order, so a
    /// post racing the drain re-raises the doorbell instead of being lost.
    pub fn take_commands(&self) -> Drained {
        self.doorbell().acknowledge();
        self.cmdq.drain()
    }

    /// The last step of an abort, taken by the exec loop once the core is
    /// parked: notify the management layer.
    pub fn report_fault(&self, reason: &Arc<str>) {
        self.controller
            .report_fault(self.vctx.enclave_id, self.core, Arc::clone(reason));
    }

    /// Handle one VM exit: count it in this core's VMCS and, when traced,
    /// bracket it with `ExitEnter` and `ExitLeave`. `tlb` and `walk_cache`
    /// are the core's translation caches (flushed on command). Returns what
    /// the exec loop should do next.
    pub fn handle_exit(
        &mut self,
        reason: ExitReason,
        tlb: &mut Tlb,
        walk_cache: &WalkCache,
    ) -> ExitAction {
        let t0 = self.tracer.enabled().then(std::time::Instant::now);
        // Refused only on a core this instance no longer runs, which takes
        // no exit: the exec loop asks a terminated core for none.
        let _ = self.cpu.transition(self.vctx.enclave_id, VmxEvent::Exit);
        model_delay_ns(VM_TRANSITION_NS);
        self.vmcs().write().record_exit(reason);
        if t0.is_some() {
            let (a, b) = pack_str(reason.name());
            self.tracer.emit(EventKind::ExitEnter, a, b);
        }

        let action = match reason {
            // The always-exiting instruction, executed directly by the VMM.
            ExitReason::Cpuid { leaf: _ } => ExitAction::Resume,
            ExitReason::MsrWrite { index, value } => {
                let msrs = self.vctx.msr_bitmap.as_ref();
                if !msrs.is_some_and(|b| b.write_exits(index)) {
                    self.cpu.msrs.write(index, value);
                }
                ExitAction::Resume
            }
            ExitReason::IoWrite { port, value } => {
                let ports = self.vctx.io_bitmap.as_ref();
                if !ports.is_some_and(|b| b.exits(port)) {
                    self.node.ioports.write(port, value);
                }
                ExitAction::Resume
            }
            // IPI protection: trapped ICR write → whitelist check.
            ExitReason::IcrWrite { value } => {
                let cmd = IcrCommand::decode(value);
                let dest = match cmd.resolve_dest(self.core) {
                    covirt_simhw::interconnect::IpiDest::Core(c) => {
                        if self.vctx.whitelist.check(c, cmd.vector) {
                            Some(c)
                        } else {
                            None
                        }
                    }
                    // Broadcast shorthands can reach other enclaves by
                    // construction; they are never permitted.
                    _ => {
                        self.vctx.whitelist.check(usize::MAX, cmd.vector);
                        None
                    }
                };
                if let Some(dest) = dest {
                    // In posted mode, intra-enclave IPIs are delivered via
                    // the destination's PIR so the receiver needs no exit;
                    // only the doorbell (notification vector) travels as a
                    // physical IPI, and only when none is outstanding.
                    if let Some(desc) = self.vctx.posted(dest) {
                        if desc.post(cmd.vector) {
                            let _ = self.node.interconnect.send(
                                self.core,
                                covirt_simhw::interconnect::IpiDest::Core(dest),
                                covirt_simhw::interconnect::DeliveryMode::Fixed(
                                    desc.notification_vector(),
                                ),
                            );
                        }
                    } else {
                        let _ = self.cpu.apic.icr_write(value);
                    }
                }
                ExitAction::Resume
            }
            // A hardware interrupt (every Covirt configuration exits on
            // one): the hypervisor acknowledges and re-injects it.
            ExitReason::ExternalInterrupt { vector: _ } => ExitAction::Resume,
            // NMI: command-queue synchronization work.
            ExitReason::Nmi => self.process_commands(tlb, walk_cache),
            // Abort-class exits: terminate, notify, park.
            ExitReason::EptViolation(info) => {
                self.vctx
                    .violations
                    .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                self.abort(format!(
                    "EPT violation at {} ({:?}) on {}",
                    info.gpa, info.access, self.cpu.id
                ))
            }
            ExitReason::DoubleFault => self.abort(format!("double fault on {}", self.cpu.id)),
            ExitReason::TripleFault => self.abort(format!("triple fault on {}", self.cpu.id)),
        };

        if matches!(action, ExitAction::Resume) {
            model_delay_ns(VM_TRANSITION_NS); // VM entry
            let _ = self.cpu.transition(self.vctx.enclave_id, VmxEvent::Resume);
        }
        if let Some(t0) = t0 {
            let handled_ns = t0.elapsed().as_nanos() as u64;
            self.tracer.emit(EventKind::ExitLeave, handled_ns, 0);
        }
        action
    }

    /// Take and execute the command queue (invoked on NMI). The doorbell is
    /// acknowledged too: an escalated command was also posted to it, and a
    /// bit left set would ring a later safe point over an empty queue.
    fn process_commands(&mut self, tlb: &mut Tlb, walk_cache: &WalkCache) -> ExitAction {
        let drained = self.take_commands();
        if self.tracer.enabled() && !drained.is_empty() {
            self.tracer
                .emit(EventKind::CmdDrain, drained.len() as u64, 0);
        }
        self.execute_commands(&drained, tlb, walk_cache)
    }

    /// Execute an already-drained command batch against this core. Shared
    /// by the NMI exit path and the guest-mode doorbell harvest (which
    /// pays no VM exit). A flush drops the matching TLB entries and EPT
    /// walk-cache lines alike. On both paths the completion counter
    /// advances only *after* a command's effect has been applied — that
    /// ordering is what lets the controller's completion wait enforce
    /// unmap-before-reclaim.
    pub fn execute_commands(
        &mut self,
        drained: &[SeqCommand],
        tlb: &mut Tlb,
        walk_cache: &WalkCache,
    ) -> ExitAction {
        let mut action = ExitAction::Resume;
        for sc in drained {
            match sc.cmd {
                Command::TlbFlushAll => {
                    tlb.flush_all();
                    walk_cache.flush_all();
                }
                Command::TlbFlushRange { gva, len } => {
                    tlb.flush_range(gva, len);
                    walk_cache.flush_range(gva, len);
                }
                Command::Terminate => {
                    action = self.abort("terminated by controller");
                }
                Command::Sync => {}
            }
            self.cmdq.complete(sc.seq);
            if self.tracer.enabled() {
                // A zero stamp means the poster's recorder was off.
                let ns = if sc.tsc != 0 {
                    self.node
                        .clock
                        .cycles_to_ns(self.node.clock.rdtsc().saturating_sub(sc.tsc))
                } else {
                    0
                };
                self.tracer.emit(EventKind::CmdComplete, sc.seq, ns);
            }
        }
        action
    }

    /// Terminate the enclave: record the reason, notify the management
    /// layer (done by the caller via the fault report), and park the core
    /// back in host mode. The reason is formatted here once; the context,
    /// the core and every report after share it.
    fn abort(&mut self, reason: impl Into<Arc<str>>) -> ExitAction {
        let reason = reason.into();
        self.vctx.terminate(Arc::clone(&reason));
        self.leave_guest();
        ExitAction::Terminate(reason)
    }

    /// Take this core out of VMX operation if it still runs this enclave:
    /// VMCLEAR (the VMCS can be launched again) and VMXOFF, one
    /// [`VmxEvent::Leave`]; the context stops counting the core live.
    /// Idempotent: a core already off, or running the next enclave, refuses
    /// the event and keeps its state.
    fn leave_guest(&mut self) {
        let _ = self.cpu.transition(self.vctx.enclave_id, VmxEvent::Leave);
    }

    /// Clean shutdown of the guest on this core (enclave teardown).
    pub fn shutdown(mut self) {
        self.leave_guest();
    }
}

/// A hypervisor dropped without [`Hypervisor::shutdown`] — its core's
/// thread let go of it after an orderly teardown — still leaves guest
/// mode: a core left in VMX operation refuses the next enclave's VMXON.
impl Drop for Hypervisor {
    fn drop(&mut self) {
        self.leave_guest();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CovirtConfig;
    use crate::vctx::CMD_DOORBELL_VECTOR;
    use covirt_simhw::addr::{GuestPhysAddr, PAGE_SIZE_2M, PAGE_SIZE_4K};
    use covirt_simhw::apic::{ICR_MODE_FIXED, ICR_SH_ALL_EXC, ICR_SH_NONE};
    use covirt_simhw::ept::EptViolationInfo;
    use covirt_simhw::node::{NodeConfig, SimNode};
    use covirt_simhw::paging::{Access, DirectLoad};
    use covirt_simhw::tlb::TlbParams;
    use covirt_simhw::topology::ZoneId;
    use std::time::Duration;

    fn setup(config: CovirtConfig) -> (Arc<SimNode>, Arc<VirtContext>, Hypervisor, Tlb, WalkCache) {
        let node = SimNode::new(NodeConfig::small());
        let pool_window = node
            .mem
            .alloc_window(ZoneId(0), 4 * 1024 * 1024, PAGE_SIZE_4K)
            .unwrap();
        let pool = Arc::new(covirt_simhw::paging::FramePool::over(
            Arc::clone(&node.mem),
            &pool_window,
        ));
        let ept = config
            .memory
            .then(|| Arc::new(covirt_simhw::ept::Ept::new(Arc::clone(&pool)).unwrap()));
        let cpus = node.cpus()[1..3].to_vec();
        let mut vctx = VirtContext::new(7, config, cpus, &[0x40], ept);
        vctx.set_cmdq(1, CmdQueue::create(pool.take_frame().unwrap()).unwrap());
        let vctx = Arc::new(vctx);
        let ctl = CovirtController::new(Arc::clone(&node), config);
        let hv = Hypervisor::launch(Arc::clone(&node), ctl, Arc::clone(&vctx), 1).unwrap();
        let tlb = Tlb::new(TlbParams::default());
        (node, vctx, hv, tlb, WalkCache::new())
    }

    /// A modelled delay is a lower bound: it never returns early.
    #[test]
    fn a_modelled_delay_never_returns_before_its_deadline() {
        for ns in [0, 1, 50, VM_TRANSITION_NS, 5_000] {
            for _ in 0..200 {
                let t = std::time::Instant::now();
                model_delay_ns(ns);
                assert!(t.elapsed() >= std::time::Duration::from_nanos(ns));
            }
        }
    }

    /// CPUID is emulated and resumed, and the exit is counted in the
    /// core's VMCS.
    #[test]
    fn cpuid_emulated_and_counted() {
        let (_n, vctx, mut hv, mut tlb, wc) = setup(CovirtConfig::NONE);
        for leaf in [1, 7] {
            assert_eq!(
                hv.handle_exit(ExitReason::Cpuid { leaf }, &mut tlb, &wc),
                ExitAction::Resume
            );
        }
        assert_eq!(vctx.exit_counts(), [("cpuid", 2)]);
        assert_eq!(vctx.vmcs(2).unwrap().read().exit_total(), 0);
    }

    #[test]
    fn ept_violation_terminates() {
        let (_n, vctx, mut hv, mut tlb, wc) = setup(CovirtConfig::MEM);
        let action = hv.handle_exit(
            ExitReason::EptViolation(EptViolationInfo {
                gpa: GuestPhysAddr::new(0xdead_0000),
                access: Access::Write,
            }),
            &mut tlb,
            &wc,
        );
        assert!(matches!(action, ExitAction::Terminate(_)));
        assert!(vctx.termination().unwrap().contains("EPT violation"));
        assert_eq!(vctx.live_cores(), Vec::<usize>::new());
        assert_eq!(
            vctx.violations.load(std::sync::atomic::Ordering::Relaxed),
            1
        );
    }

    #[test]
    fn double_fault_terminates() {
        let (_n, vctx, mut hv, mut tlb, wc) = setup(CovirtConfig::NONE);
        let action = hv.handle_exit(ExitReason::DoubleFault, &mut tlb, &wc);
        assert!(matches!(action, ExitAction::Terminate(_)));
        assert!(vctx.termination().unwrap().contains("double fault"));
    }

    #[test]
    fn icr_whitelist_enforced() {
        let (node, vctx, mut hv, mut tlb, wc) = setup(CovirtConfig::MEM_IPI);
        // Allowed: own core 2 with allocated vector 0x40.
        let ok = IcrCommand {
            vector: 0x40,
            mode: ICR_MODE_FIXED,
            dest: 2,
            shorthand: ICR_SH_NONE,
        };
        hv.handle_exit(ExitReason::IcrWrite { value: ok.encode() }, &mut tlb, &wc);
        assert!(node.interconnect.mailbox(2).unwrap().irr.test(0x40));
        // Errant: host core 0.
        let bad = IcrCommand {
            vector: 0x40,
            mode: ICR_MODE_FIXED,
            dest: 0,
            shorthand: ICR_SH_NONE,
        };
        hv.handle_exit(
            ExitReason::IcrWrite {
                value: bad.encode(),
            },
            &mut tlb,
            &wc,
        );
        assert!(!node.interconnect.mailbox(0).unwrap().irr.test(0x40));
        // Broadcast shorthand is always dropped.
        let bc = IcrCommand {
            vector: 0x40,
            mode: ICR_MODE_FIXED,
            dest: 0,
            shorthand: ICR_SH_ALL_EXC,
        };
        hv.handle_exit(ExitReason::IcrWrite { value: bc.encode() }, &mut tlb, &wc);
        assert!(!node.interconnect.mailbox(3).unwrap().irr.test(0x40));
        let (permitted, dropped) = vctx.whitelist.counts();
        assert_eq!(permitted, 1);
        assert_eq!(dropped, 2);
    }

    #[test]
    fn msr_protection_blocks_writes() {
        let (node, _vctx, mut hv, mut tlb, wc) = setup(CovirtConfig::FULL);
        let mc0 = covirt_simhw::msr::IA32_MC0_CTL;
        hv.handle_exit(
            ExitReason::MsrWrite {
                index: mc0,
                value: 0xbad,
            },
            &mut tlb,
            &wc,
        );
        let cpu = node.cpu(covirt_simhw::topology::CoreId(1)).unwrap();
        assert_eq!(
            cpu.msrs.read(mc0),
            0,
            "blocked write must not reach the MSR"
        );
        // A benign MSR write passes through.
        hv.handle_exit(
            ExitReason::MsrWrite {
                index: covirt_simhw::msr::IA32_FS_BASE,
                value: 0x1000,
            },
            &mut tlb,
            &wc,
        );
        assert_eq!(cpu.msrs.read(covirt_simhw::msr::IA32_FS_BASE), 0x1000);
    }

    #[test]
    fn io_protection_blocks_sensitive_ports() {
        let (node, _vctx, mut hv, mut tlb, wc) = setup(CovirtConfig::FULL);
        hv.handle_exit(
            ExitReason::IoWrite {
                port: covirt_simhw::ioport::PORT_KBD_RESET,
                value: 0xfe,
            },
            &mut tlb,
            &wc,
        );
        assert_eq!(
            node.ioports
                .write_count(covirt_simhw::ioport::PORT_KBD_RESET),
            0
        );
        hv.handle_exit(
            ExitReason::IoWrite {
                port: covirt_simhw::ioport::PORT_COM1,
                value: b'x' as u32,
            },
            &mut tlb,
            &wc,
        );
        assert_eq!(node.ioports.write_count(covirt_simhw::ioport::PORT_COM1), 1);
    }

    /// EPT loads a read of `gpa` costs through `wc`: 0 while a line covers it.
    fn ept_loads(node: &SimNode, vctx: &VirtContext, wc: &WalkCache, gpa: u64) -> u32 {
        let ept = vctx.ept.as_deref().unwrap();
        let t = wc.translate(
            ept,
            GuestPhysAddr::new(gpa),
            Access::Read,
            &DirectLoad(&node.mem),
        );
        t.unwrap().loads
    }

    /// Two 2 MiB leaves mapped into the context's EPT, each with a TLB entry
    /// and a walk-cache line.
    fn cached_leaves(
        node: &SimNode,
        vctx: &VirtContext,
        tlb: &mut Tlb,
        wc: &WalkCache,
    ) -> [u64; 2] {
        let r = node
            .mem
            .alloc(ZoneId(0), 2 * PAGE_SIZE_2M, PAGE_SIZE_2M)
            .unwrap();
        vctx.ept.as_ref().unwrap().map_identity(r, 2).unwrap();
        let backing = Arc::new(covirt_simhw::backing::Backing::new(2 * 4096).unwrap());
        let leaves = [r.start.raw(), r.start.raw() + PAGE_SIZE_2M];
        for (i, gva) in leaves.into_iter().enumerate() {
            let host = backing.ptr_at(i * 4096);
            tlb.insert(gva, PAGE_SIZE_4K, host, Arc::clone(&backing), true);
            assert!(
                ept_loads(node, vctx, wc, gva) > 0,
                "a cold line walks the EPT"
            );
        }
        leaves
    }

    #[test]
    fn nmi_drains_command_queue_and_flushes() {
        let (node, vctx, mut hv, mut tlb, wc) = setup(CovirtConfig::MEM);
        // Seed the caches, then ask for a flush through the queue.
        let leaves = cached_leaves(&node, &vctx, &mut tlb, &wc);
        let q = vctx.cmdq(1).unwrap().clone();
        let seq = q.post(Command::TlbFlushAll).unwrap();
        assert_eq!(
            hv.handle_exit(ExitReason::Nmi, &mut tlb, &wc),
            ExitAction::Resume
        );
        for gva in leaves {
            assert!(
                tlb.lookup(gva).is_none(),
                "TLB must be flushed by the command"
            );
            assert!(ept_loads(&node, &vctx, &wc, gva) > 0, "and the walk cache");
        }
        assert!(
            q.wait(seq, Duration::ZERO, None, &|| true).is_ok(),
            "completion must be signalled"
        );
        assert_eq!(q.completed(), seq, "one command, executed once");
    }

    #[test]
    fn nmi_executes_range_flush_selectively() {
        let (node, vctx, mut hv, mut tlb, wc) = setup(CovirtConfig::MEM);
        let [inside, outside] = cached_leaves(&node, &vctx, &mut tlb, &wc);
        let q = vctx.cmdq(1).unwrap().clone();
        let seq = q
            .post(Command::TlbFlushRange {
                gva: inside,
                len: PAGE_SIZE_4K,
            })
            .unwrap();
        assert_eq!(
            hv.handle_exit(ExitReason::Nmi, &mut tlb, &wc),
            ExitAction::Resume
        );
        assert!(tlb.lookup(inside).is_none(), "range must be invalidated");
        assert!(
            tlb.lookup(outside).is_some(),
            "unrelated entry must survive"
        );
        assert!(
            ept_loads(&node, &vctx, &wc, inside) > 0,
            "the walk-cache line over the range went too"
        );
        assert_eq!(
            ept_loads(&node, &vctx, &wc, outside),
            0,
            "an unrelated line still hits"
        );
        assert!(q.wait(seq, Duration::ZERO, None, &|| true).is_ok());
        assert_eq!(tlb.stats().range_flushes, 1);
        assert_eq!(tlb.stats().full_flushes, 0);
    }

    /// A command the controller escalated to an NMI was posted to the
    /// doorbell too: the NMI's drain acknowledges it, so no later safe
    /// point harvests the empty queue.
    #[test]
    fn an_nmi_drain_answers_the_doorbell_too() {
        let (_n, vctx, mut hv, mut tlb, wc) = setup(CovirtConfig::MEM);
        let seq = vctx.cmdq(1).unwrap().post(Command::Sync).unwrap();
        vctx.cmd_doorbell(1).unwrap().post(CMD_DOORBELL_VECTOR);
        assert!(hv.doorbell_rung());
        hv.handle_exit(ExitReason::Nmi, &mut tlb, &wc);
        assert_eq!(vctx.cmdq(1).unwrap().completed(), seq);
        assert!(!hv.doorbell_rung(), "the doorbell still rings");
    }

    #[test]
    fn terminate_command_kills_enclave() {
        let (_n, vctx, mut hv, mut tlb, wc) = setup(CovirtConfig::MEM);
        let q = vctx.cmdq(1).unwrap().clone();
        q.post(Command::Terminate).unwrap();
        let action = hv.handle_exit(ExitReason::Nmi, &mut tlb, &wc);
        assert!(matches!(action, ExitAction::Terminate(_)));
        assert!(vctx.termination().unwrap().contains("controller"));
    }

    /// Shutdown leaves guest mode; the exits the core took stay counted in
    /// its VMCS.
    #[test]
    fn shutdown_leaves_no_live_core() {
        let (_n, vctx, mut hv, mut tlb, wc) = setup(CovirtConfig::NONE);
        hv.handle_exit(ExitReason::Cpuid { leaf: 0 }, &mut tlb, &wc);
        hv.shutdown();
        assert!(vctx.live_cores().is_empty());
        assert_eq!(vctx.exit_counts(), [("cpuid", 1)]);
    }
}
