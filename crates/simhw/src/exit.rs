//! VM-exit reasons and exit information.
//!
//! The subset modelled is exactly the set Covirt's hypervisor must handle
//! (Section IV-B of the paper): externally generated interrupts and NMIs,
//! the two always-exiting instructions (`cpuid`, `xsetbv`), MSR and I/O
//! accesses selected by the bitmaps, EPT violations, APIC (ICR) writes
//! under APIC virtualization, HLT, and abort-class exceptions such as
//! double/triple faults.

use crate::ept::EptViolationInfo;

/// Why the guest exited to the hypervisor.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExitReason {
    /// A hardware interrupt arrived while external-interrupt exiting is on.
    ExternalInterrupt {
        /// The pending vector.
        vector: u8,
    },
    /// A non-maskable interrupt arrived (always exits under VMX).
    Nmi,
    /// The guest executed CPUID.
    Cpuid {
        /// Requested leaf (EAX).
        leaf: u32,
    },
    /// The guest executed XSETBV.
    Xsetbv {
        /// Requested XCR0 value.
        xcr0: u64,
    },
    /// RDMSR of an intercepted MSR.
    MsrRead {
        /// MSR index.
        index: u32,
    },
    /// WRMSR of an intercepted MSR.
    MsrWrite {
        /// MSR index.
        index: u32,
        /// Value being written.
        value: u64,
    },
    /// IN from an intercepted port.
    IoRead {
        /// Port number.
        port: u16,
    },
    /// OUT to an intercepted port.
    IoWrite {
        /// Port number.
        port: u16,
        /// Value being written.
        value: u32,
    },
    /// The nested walk faulted — the enclave touched memory outside its
    /// assignment (or with disallowed permissions).
    EptViolation(EptViolationInfo),
    /// A write to the virtualized APIC ICR (IPI transmission attempt).
    IcrWrite {
        /// Raw x2APIC ICR value.
        value: u64,
    },
    /// The guest executed HLT while HLT exiting is enabled.
    Hlt,
    /// Abort-class exception: double fault in the guest.
    DoubleFault,
    /// Abort-class: triple fault (would reset a bare-metal machine).
    TripleFault,
}

impl ExitReason {
    /// Short stable name for stats tables.
    pub fn name(&self) -> &'static str {
        match self {
            ExitReason::ExternalInterrupt { .. } => "ext-intr",
            ExitReason::Nmi => "nmi",
            ExitReason::Cpuid { .. } => "cpuid",
            ExitReason::Xsetbv { .. } => "xsetbv",
            ExitReason::MsrRead { .. } => "rdmsr",
            ExitReason::MsrWrite { .. } => "wrmsr",
            ExitReason::IoRead { .. } => "io-in",
            ExitReason::IoWrite { .. } => "io-out",
            ExitReason::EptViolation(_) => "ept-violation",
            ExitReason::IcrWrite { .. } => "icr-write",
            ExitReason::Hlt => "hlt",
            ExitReason::DoubleFault => "double-fault",
            ExitReason::TripleFault => "triple-fault",
        }
    }
}

/// Exit record stored in the VMCS exit-information fields.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExitInfo {
    /// The exit reason.
    pub reason: ExitReason,
    /// TSC at exit time.
    pub tsc: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_stable() {
        assert_eq!(ExitReason::Nmi.name(), "nmi");
        assert_eq!(ExitReason::MsrWrite { index: 1, value: 2 }.name(), "wrmsr");
        assert_eq!(ExitReason::Hlt.name(), "hlt");
    }
}
