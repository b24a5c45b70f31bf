//! The Virtual Machine Control Structure.
//!
//! A [`Vmcs`] bundles the guest register state the hypervisor launches
//! from, the execution controls that decide what exits, and the exit
//! information fields. In Covirt's design the *controller module* writes
//! the whole structure before the enclave CPU boots, and later edits it in
//! place (it "retains access to the data structures of the co-kernel's
//! virtualization context"); the hypervisor merely loads and launches it.
//! The structure is therefore shared: the enclave's virtualization context
//! owns one `RwLock<Vmcs>` per core, which plays the role of the in-memory
//! VMCS region, and the controller and the core's hypervisor both reach it
//! there.
//!
//! Its launch state is not a field: a VMCS is launched exactly while its
//! core's [`VmxState`](crate::cpu::VmxState) names its enclave.

use crate::addr::HostPhysAddr;
use crate::exit::{ExitInfo, ExitReason};
use crate::posted::PostedIntDescriptor;
use covirt_trace::{pack_str, EventKind, Tracer};
use std::sync::Arc;

/// Guest register state at launch (the subset the Pisces trampoline
/// establishes: 64-bit long mode, identity page tables, entry point and
/// boot-parameter pointer in RDI).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GuestState {
    /// Entry instruction pointer (the co-kernel's start address).
    pub rip: u64,
    /// Initial stack pointer.
    pub rsp: u64,
    /// Root of the guest's identity page tables (CR3).
    pub cr3: u64,
    /// Boot-parameter pointer handed to the kernel in RDI.
    pub rdi: u64,
    /// EFER at entry (LME|LMA — launched directly into long mode).
    pub efer: u64,
    /// XCR0 (extended-state enable), set via xsetbv.
    pub xcr0: u64,
}

impl Default for GuestState {
    fn default() -> Self {
        GuestState {
            rip: 0,
            rsp: 0,
            cr3: 0,
            rdi: 0,
            efer: 0x500,
            xcr0: 1,
        }
    }
}

/// How the local APIC is virtualized for this guest.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum ApicVirtMode {
    /// No APIC virtualization: the guest's APIC accesses go straight to
    /// hardware (Covirt disabled / IPI protection off).
    #[default]
    Passthrough,
    /// Full virtualization: every ICR write traps, and *all incoming
    /// interrupts force VM exits* (the VMX requirement the paper notes).
    TrapAll,
    /// Posted-interrupt mode: ICR writes still trap for whitelisting, but
    /// incoming interrupts are posted without exits.
    Posted,
}

/// Execution controls — which events leave the guest.
#[derive(Default)]
pub struct VmcsControls {
    /// Extended page table pointer; `None` disables nested paging.
    pub eptp: Option<HostPhysAddr>,
    /// Exit on external interrupts (required by TrapAll APIC mode).
    pub ext_int_exiting: bool,
    /// Exit on HLT.
    pub hlt_exiting: bool,
    /// APIC virtualization mode.
    pub apic_virt: ApicVirtMode,
    /// Posted-interrupt descriptor (required for `ApicVirtMode::Posted`).
    pub posted_desc: Option<Arc<PostedIntDescriptor>>,
}

/// The virtual-machine control structure for one enclave vCPU.
#[derive(Default)]
pub struct Vmcs {
    /// Guest register state.
    pub guest: GuestState,
    /// Execution controls.
    pub controls: VmcsControls,
    /// Exit-information fields: the most recent exit.
    pub last_exit: Option<ExitInfo>,
    /// Cumulative exit counts, one per reason at [`ExitReason::index`]
    /// (instrumentation register — stands in for the perf counters the
    /// paper reads).
    exit_counts: [u64; ExitReason::COUNT],
    /// Flight-recorder handle; exits emit `ExitEnter` events when set.
    pub tracer: Option<Tracer>,
}

impl Vmcs {
    /// Fresh VMCS.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record an exit in the exit-information fields.
    pub fn record_exit(&mut self, info: ExitInfo) {
        self.exit_counts[info.reason.index()] += 1;
        if let Some(t) = &self.tracer {
            if t.enabled() {
                let (a, b) = pack_str(info.reason.name());
                t.emit_at(EventKind::ExitEnter, info.tsc, a, b);
            }
        }
        self.last_exit = Some(info);
    }

    /// The exits recorded so far, as (reason name, count) pairs of the
    /// reasons that occurred, in [`ExitReason::index`] order.
    pub fn exit_counts(&self) -> impl Iterator<Item = (&'static str, u64)> {
        ExitReason::NAMES
            .into_iter()
            .zip(self.exit_counts)
            .filter(|&(_, n)| n > 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn defaults() {
        let v = Vmcs::new();
        assert!(v.last_exit.is_none());
        assert_eq!(v.guest.efer, 0x500);
        assert_eq!(v.controls.apic_virt, ApicVirtMode::Passthrough);
        assert!(v.controls.eptp.is_none());
    }

    #[test]
    fn record_and_count_exits() {
        let mut v = Vmcs::new();
        v.record_exit(ExitInfo {
            reason: ExitReason::Cpuid { leaf: 0 },
            tsc: 10,
        });
        v.record_exit(ExitInfo {
            reason: ExitReason::Cpuid { leaf: 1 },
            tsc: 20,
        });
        v.record_exit(ExitInfo {
            reason: ExitReason::Hlt,
            tsc: 30,
        });
        let counts: HashMap<_, _> = v.exit_counts().collect();
        assert_eq!(counts["cpuid"], 2);
        assert_eq!(counts["hlt"], 1);
        assert_eq!(counts.len(), 2, "a reason that never exited is not listed");
        assert_eq!(v.last_exit.unwrap().tsc, 30);
    }
}
