//! Per-core CPU state: VMX enablement and the current-VMCS pointer.
//!
//! Covirt replicates its hypervisor context per CPU core ("each hypervisor
//! context only supports a single CPU core and is unaware of other
//! hypervisor instances"); correspondingly each simulated [`Cpu`] carries
//! its own VMX state, APIC and MSR file, and the thread driving the core is
//! the only writer of its mode.

use crate::apic::LocalApic;
use crate::error::{HwError, HwResult};
use crate::msr::MsrFile;
use crate::topology::CoreId;
use crate::vmcs::VmcsHandle;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::Arc;

/// What the core is currently executing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CpuMode {
    /// Host (Linux / Pisces) context, or idle.
    Host = 0,
    /// Covirt hypervisor root mode.
    HypervisorRoot = 1,
    /// Guest (co-kernel) non-root mode.
    Guest = 2,
}

/// One logical CPU core.
pub struct Cpu {
    /// Node-global core id (== APIC id).
    pub id: CoreId,
    /// The core's local APIC.
    pub apic: Arc<LocalApic>,
    /// The core's MSR file.
    pub msrs: MsrFile,
    vmx_on: AtomicBool,
    mode: AtomicU8,
    current_vmcs: Mutex<Option<VmcsHandle>>,
}

impl Cpu {
    /// Build a core with its APIC.
    pub fn new(id: CoreId, apic: Arc<LocalApic>) -> Self {
        Cpu {
            id,
            apic,
            msrs: MsrFile::new(),
            vmx_on: AtomicBool::new(false),
            mode: AtomicU8::new(CpuMode::Host as u8),
            current_vmcs: Mutex::new(None),
        }
    }

    /// VMXON: enable VMX root operation on this core.
    pub fn vmxon(&self) -> HwResult<()> {
        if self.vmx_on.swap(true, Ordering::AcqRel) {
            return Err(HwError::Invalid("VMXON while already in VMX operation"));
        }
        Ok(())
    }

    /// VMXOFF: leave VMX operation, clearing the current VMCS.
    pub fn vmxoff(&self) -> HwResult<()> {
        if !self.vmx_on.swap(false, Ordering::AcqRel) {
            return Err(HwError::VmxNotEnabled(self.id.0));
        }
        *self.current_vmcs.lock() = None;
        self.set_mode(CpuMode::Host);
        Ok(())
    }

    /// True if VMX operation is enabled.
    pub fn vmx_enabled(&self) -> bool {
        self.vmx_on.load(Ordering::Acquire)
    }

    /// VMPTRLD: make `vmcs` current on this core.
    pub fn vmptrld(&self, vmcs: VmcsHandle) -> HwResult<()> {
        if !self.vmx_enabled() {
            return Err(HwError::VmxNotEnabled(self.id.0));
        }
        *self.current_vmcs.lock() = Some(vmcs);
        Ok(())
    }

    /// The current VMCS, if any.
    pub fn current_vmcs(&self) -> Option<VmcsHandle> {
        self.current_vmcs.lock().clone()
    }

    /// Current execution mode.
    pub fn mode(&self) -> CpuMode {
        match self.mode.load(Ordering::Acquire) {
            0 => CpuMode::Host,
            1 => CpuMode::HypervisorRoot,
            _ => CpuMode::Guest,
        }
    }

    /// Transition the core's mode (driven by the owning thread).
    pub fn set_mode(&self, mode: CpuMode) {
        self.mode.store(mode as u8, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::TscClock;
    use crate::interconnect::Interconnect;
    use crate::vmcs::new_vmcs;

    fn cpu() -> Cpu {
        let ic = Arc::new(Interconnect::new(1));
        let clock = Arc::new(TscClock::new(1_000_000_000));
        Cpu::new(CoreId(0), Arc::new(LocalApic::new(0, ic, clock)))
    }

    #[test]
    fn vmx_lifecycle() {
        let c = cpu();
        assert!(!c.vmx_enabled());
        c.vmxon().unwrap();
        assert!(c.vmx_enabled());
        assert!(c.vmxon().is_err(), "double VMXON must fault");
        c.vmxoff().unwrap();
        assert!(!c.vmx_enabled());
        assert!(
            c.vmxoff().is_err(),
            "VMXOFF outside VMX operation must fault"
        );
    }

    #[test]
    fn vmptrld_requires_vmxon() {
        let c = cpu();
        assert!(matches!(
            c.vmptrld(new_vmcs()),
            Err(HwError::VmxNotEnabled(0))
        ));
        c.vmxon().unwrap();
        c.vmptrld(new_vmcs()).unwrap();
        assert!(c.current_vmcs().is_some());
    }

    #[test]
    fn vmxoff_clears_current() {
        let c = cpu();
        c.vmxon().unwrap();
        c.vmptrld(new_vmcs()).unwrap();
        c.vmxoff().unwrap();
        assert!(c.current_vmcs().is_none());
    }

    #[test]
    fn mode_transitions() {
        let c = cpu();
        assert_eq!(c.mode(), CpuMode::Host);
        c.set_mode(CpuMode::Guest);
        assert_eq!(c.mode(), CpuMode::Guest);
        c.set_mode(CpuMode::HypervisorRoot);
        assert_eq!(c.mode(), CpuMode::HypervisorRoot);
    }
}
