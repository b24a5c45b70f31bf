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
use covirt_simhw::cpu::{Cpu, CpuMode};
use covirt_simhw::ept::WalkCache;
use covirt_simhw::exit::{ExitInfo, ExitReason};
use covirt_simhw::node::SimNode;
use covirt_simhw::posted::PostedIntDescriptor;
use covirt_simhw::tlb::Tlb;
use covirt_simhw::vmcs::VmcsHandle;
use covirt_trace::{EventKind, Tracer};
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
    vmcs: VmcsHandle,
    /// This core's command queue, taken from the context once at launch.
    cmdq: CmdQueue,
    /// This core's slot in the context, looked up once at launch: the
    /// safe-point check indexes its doorbell, it does not search.
    slot: usize,
    /// Exits handled on this core.
    pub exits: u64,
    /// Wall-clock nanoseconds spent in exit handling (including modelled
    /// transition cost).
    pub exit_ns: u64,
    /// Commands executed from the queue.
    pub commands: u64,
    /// Flight-recorder handle for this core's lane.
    tracer: Tracer,
}

impl Hypervisor {
    /// CPU boot path: enable VMX, load the pre-configured VMCS, and
    /// "launch" the co-kernel — the simulated equivalent of the VMLAUNCH
    /// performed after the Pisces trampoline hand-off. Guest state (entry
    /// point, RDI = Pisces boot parameters) was already written by the
    /// controller.
    pub fn launch(
        node: Arc<SimNode>,
        controller: Arc<CovirtController>,
        vctx: Arc<VirtContext>,
        core: usize,
    ) -> CovirtResult<Self> {
        let cpu = Arc::clone(node.cpu(covirt_simhw::topology::CoreId(core))?);
        let (Some(vmcs), Some(slot)) = (vctx.vmcs(core), vctx.slot_index(core)) else {
            return Err(CovirtError::Invalid("core has no VMCS"));
        };
        let cmdq = vctx.cmdq(core).cloned();
        let cmdq = cmdq.ok_or(CovirtError::Invalid("core has no command queue"))?;
        cpu.vmxon()?;
        cpu.vmptrld(Arc::clone(&vmcs))?;
        {
            let mut v = vmcs.write();
            if v.launched {
                cpu.vmxoff()?;
                return Err(CovirtError::Invalid("VMCS already launched"));
            }
            v.launched = true;
        }
        cpu.set_mode(CpuMode::Guest);
        vctx.core_entered_guest(core);
        // A covirt guest loop checks the descriptor at every safe point, so
        // the physical notification IPI adds nothing while the core runs —
        // suppress it (the SN bit). Parked cores are covered by the
        // controller's bounded NMI fallback, which watches the completion
        // counter, not the interrupt.
        vctx.doorbell_at(slot).set_suppress(true);
        model_delay_ns(VM_TRANSITION_NS); // the VMLAUNCH itself

        // Tag this core's lane with the enclave it runs, so exits, drains
        // and completions attribute to it in the audit engine.
        let tracer = node.tracer(core as u32).with_enclave(vctx.enclave_id);
        vmcs.write().tracer = Some(tracer.clone());
        Ok(Hypervisor {
            core,
            cpu,
            node,
            vctx,
            controller,
            vmcs,
            cmdq,
            slot,
            exits: 0,
            exit_ns: 0,
            commands: 0,
            tracer,
        })
    }

    /// The context this hypervisor enforces.
    pub fn vctx(&self) -> &Arc<VirtContext> {
        &self.vctx
    }

    /// This core's command-doorbell descriptor.
    #[inline]
    fn doorbell(&self) -> &PostedIntDescriptor {
        self.vctx.doorbell_at(self.slot)
    }

    /// Whether the controller rang this core's command doorbell since the
    /// last [`Self::take_commands`]: its outstanding-notification bit. A
    /// poster sets that bit last, after its commands are queued and its
    /// vector posted, so one post is one harvest. The vector alone does not
    /// ring: a harvest between a poster's vector and its bit would take the
    /// commands early and leave the bit set over an empty queue.
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

    /// Handle one VM exit. `tlb` and `walk_cache` are the core's translation
    /// caches (flushed on command). Returns what the exec loop should do
    /// next.
    pub fn handle_exit(
        &mut self,
        reason: ExitReason,
        tlb: &mut Tlb,
        walk_cache: &WalkCache,
    ) -> ExitAction {
        let t0 = std::time::Instant::now();
        self.cpu.set_mode(CpuMode::HypervisorRoot);
        model_delay_ns(VM_TRANSITION_NS);
        self.exits += 1;
        self.vmcs.write().record_exit(ExitInfo {
            reason,
            tsc: self.node.clock.rdtsc(),
        });

        let action = match reason {
            // Always-exiting instructions, executed directly by the VMM
            // with no or minor modification.
            ExitReason::Cpuid { leaf: _ } => ExitAction::Resume,
            ExitReason::Xsetbv { xcr0 } => {
                self.vmcs.write().guest.xcr0 = xcr0;
                ExitAction::Resume
            }
            ExitReason::MsrRead { index } => {
                // Reads of intercepted MSRs are answered from the real MSR
                // file (Covirt hides nothing — zero abstraction).
                let _ = self.cpu.msrs.read(index);
                ExitAction::Resume
            }
            ExitReason::MsrWrite { index, value } => {
                let msrs = self.vctx.msr_bitmap.as_ref();
                if !msrs.is_some_and(|b| b.write_exits(index)) {
                    self.cpu.msrs.write(index, value);
                }
                ExitAction::Resume
            }
            ExitReason::IoRead { port } => {
                let _ = self.node.ioports.read(port);
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
            // External interrupts only exit in TrapAll mode: the hypervisor
            // acknowledges and re-injects into the guest.
            ExitReason::ExternalInterrupt { vector: _ } => ExitAction::Resume,
            // NMI: command-queue synchronization work.
            ExitReason::Nmi => self.process_commands(tlb, walk_cache),
            ExitReason::Hlt => ExitAction::Resume,
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
            self.cpu.set_mode(CpuMode::Guest);
        }
        let handled_ns = t0.elapsed().as_nanos() as u64;
        self.exit_ns += handled_ns;
        self.tracer.emit(EventKind::ExitLeave, handled_ns, 0);
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
            self.commands += 1;
            match sc.cmd {
                Command::TlbFlushAll => {
                    tlb.flush_all();
                    walk_cache.flush_all();
                }
                Command::TlbFlushPage { gva } => {
                    tlb.flush_page(gva);
                    walk_cache.flush_page(gva);
                }
                Command::TlbFlushRange { gva, len } => {
                    tlb.flush_range(gva, len);
                    walk_cache.flush_range(gva, len);
                }
                Command::ReloadVmcs => {
                    // Re-serialize the (controller-edited) VMCS onto the
                    // CPU: in the model, re-issue VMPTRLD.
                    let _ = self.cpu.vmptrld(Arc::clone(&self.vmcs));
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

    /// Take this core out of guest mode if this instance put it there: the
    /// context stops counting it live, the VMCS is cleared (VMCLEAR — it
    /// can be launched again) and VMX goes off. Idempotent.
    fn leave_guest(&mut self) {
        if !self.vctx.is_live(self.core) {
            return;
        }
        self.vctx.core_left_guest(self.core);
        self.vmcs.write().launched = false;
        self.cpu.set_mode(CpuMode::Host);
        let _ = self.cpu.vmxoff();
    }

    /// Clean shutdown of the guest on this core (enclave teardown).
    pub fn shutdown(mut self) -> (u64, u64) {
        self.leave_guest();
        (self.exits, std::mem::take(&mut self.exit_ns))
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
        let mut vctx = VirtContext::new(7, config, [1, 2], &[0x40], ept);
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

    #[test]
    fn launch_enters_guest_mode() {
        let (node, vctx, _hv, _tlb, _wc) = setup(CovirtConfig::NONE);
        let cpu = node.cpu(covirt_simhw::topology::CoreId(1)).unwrap();
        assert_eq!(cpu.mode(), CpuMode::Guest);
        assert!(cpu.vmx_enabled());
        assert_eq!(vctx.live_cores(), vec![1]);
        assert!(vctx.vmcs(1).unwrap().read().launched);
    }

    #[test]
    fn double_launch_rejected() {
        let (node, vctx, _hv, _tlb, _wc) = setup(CovirtConfig::NONE);
        let ctl = CovirtController::new(Arc::clone(&node), CovirtConfig::NONE);
        assert!(Hypervisor::launch(node, ctl, vctx, 1).is_err());
    }

    #[test]
    fn cpuid_and_xsetbv_emulated() {
        let (_n, vctx, mut hv, mut tlb, wc) = setup(CovirtConfig::NONE);
        assert_eq!(
            hv.handle_exit(ExitReason::Cpuid { leaf: 1 }, &mut tlb, &wc),
            ExitAction::Resume
        );
        assert_eq!(
            hv.handle_exit(ExitReason::Xsetbv { xcr0: 7 }, &mut tlb, &wc),
            ExitAction::Resume
        );
        assert_eq!(vctx.vmcs(1).unwrap().read().guest.xcr0, 7);
        assert_eq!(hv.exits, 2);
        assert!(hv.exit_ns > 0);
    }

    #[test]
    fn ept_violation_terminates() {
        let (node, vctx, mut hv, mut tlb, wc) = setup(CovirtConfig::MEM);
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
        let cpu = node.cpu(covirt_simhw::topology::CoreId(1)).unwrap();
        assert_eq!(cpu.mode(), CpuMode::Host);
        assert!(!cpu.vmx_enabled());
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
            q.wait(seq, 1, None, &|| true).is_ok(),
            "completion must be signalled"
        );
        assert_eq!(hv.commands, 1);
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
        assert!(q.wait(seq, 1, None, &|| true).is_ok());
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

    #[test]
    fn shutdown_returns_stats() {
        let (node, vctx, mut hv, mut tlb, wc) = setup(CovirtConfig::NONE);
        hv.handle_exit(ExitReason::Cpuid { leaf: 0 }, &mut tlb, &wc);
        let (exits, ns) = hv.shutdown();
        assert_eq!(exits, 1);
        assert!(ns > 0);
        assert!(vctx.live_cores().is_empty());
        assert_eq!(
            node.cpu(covirt_simhw::topology::CoreId(1)).unwrap().mode(),
            CpuMode::Host
        );
    }
}
