//! VM-exit reasons.
//!
//! The set modelled is the exits a co-kernel under Covirt's hypervisor
//! can raise (Section IV-B of the paper): externally generated interrupts
//! and NMIs, the always-exiting `cpuid`, MSR writes and I/O writes the
//! bitmaps select, EPT violations, APIC (ICR) writes under APIC
//! virtualization, and the abort-class double and triple faults. Each has
//! a guest entry point that raises it; the hypervisor keeps a count per
//! reason in the core's VMCS and nothing else about an exit.

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
    /// WRMSR of an intercepted MSR.
    MsrWrite {
        /// MSR index.
        index: u32,
        /// Value being written.
        value: u64,
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
    /// Abort-class exception: double fault in the guest.
    DoubleFault,
    /// Abort-class: triple fault (would reset a bare-metal machine).
    TripleFault,
}

impl ExitReason {
    /// How many reasons there are: the length of a per-reason count array.
    pub const COUNT: usize = 9;

    /// Every reason's [`ExitReason::name`], in [`ExitReason::index`] order.
    pub const NAMES: [&'static str; Self::COUNT] = [
        "ext-intr",
        "nmi",
        "cpuid",
        "wrmsr",
        "io-out",
        "ept-violation",
        "icr-write",
        "double-fault",
        "triple-fault",
    ];

    /// Dense index of the reason, below [`ExitReason::COUNT`]; payloads do
    /// not take part.
    pub fn index(&self) -> usize {
        match self {
            ExitReason::ExternalInterrupt { .. } => 0,
            ExitReason::Nmi => 1,
            ExitReason::Cpuid { .. } => 2,
            ExitReason::MsrWrite { .. } => 3,
            ExitReason::IoWrite { .. } => 4,
            ExitReason::EptViolation(_) => 5,
            ExitReason::IcrWrite { .. } => 6,
            ExitReason::DoubleFault => 7,
            ExitReason::TripleFault => 8,
        }
    }

    /// Short stable name for stats tables.
    pub fn name(&self) -> &'static str {
        Self::NAMES[self.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_stable() {
        assert_eq!(ExitReason::Nmi.name(), "nmi");
        assert_eq!(ExitReason::MsrWrite { index: 1, value: 2 }.name(), "wrmsr");
        assert_eq!(ExitReason::IoWrite { port: 1, value: 2 }.name(), "io-out");
        assert_eq!(
            ExitReason::ExternalInterrupt { vector: 0xec }.name(),
            "ext-intr"
        );
        assert_eq!(ExitReason::TripleFault.name(), "triple-fault");
    }

    /// Every reason has its own index, and together they fill the count
    /// array.
    #[test]
    fn indices_are_dense_and_distinct() {
        let all = [
            ExitReason::ExternalInterrupt { vector: 0 },
            ExitReason::Nmi,
            ExitReason::Cpuid { leaf: 0 },
            ExitReason::MsrWrite { index: 0, value: 0 },
            ExitReason::IoWrite { port: 0, value: 0 },
            ExitReason::EptViolation(EptViolationInfo {
                gpa: crate::addr::GuestPhysAddr::new(0),
                access: crate::paging::Access::Read,
            }),
            ExitReason::IcrWrite { value: 0 },
            ExitReason::DoubleFault,
            ExitReason::TripleFault,
        ];
        let mut seen = [false; ExitReason::COUNT];
        for r in all {
            assert!(!std::mem::replace(&mut seen[r.index()], true), "{r:?}");
        }
        assert!(seen.iter().all(|&s| s));
    }
}
