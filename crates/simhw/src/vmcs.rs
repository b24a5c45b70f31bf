//! The Virtual Machine Control Structure.
//!
//! A [`Vmcs`] holds what the model keeps of a real VMCS: the guest
//! register state the hypervisor launches from, and a count of the exits
//! taken per reason. In Covirt's design the *controller module* writes the
//! guest state before the enclave CPU boots; nothing in it changes after
//! that. The hypervisor counts each exit it handles there. Which events
//! exit is not a VMCS field here: the enclave's virtualization context
//! decides every exit from its feature set, bitmaps, descriptors and EPT.
//! The structure is shared: the enclave's virtualization context owns one
//! `RwLock<Vmcs>` per core, which plays the role of the in-memory VMCS
//! region, and the controller and the core's hypervisor both reach it
//! there.
//!
//! Its launch state is not a field: a VMCS is launched exactly while its
//! core's [`VmxState`](crate::cpu::VmxState) names its enclave.

use crate::exit::ExitReason;

/// Guest register state at launch (the subset the Pisces trampoline
/// establishes: entry point and boot-parameter pointer in RDI).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct GuestState {
    /// Entry instruction pointer (the co-kernel's start address).
    pub rip: u64,
    /// Boot-parameter pointer handed to the kernel in RDI.
    pub rdi: u64,
}

/// The virtual-machine control structure for one enclave vCPU.
#[derive(Default)]
pub struct Vmcs {
    /// Guest register state.
    pub guest: GuestState,
    /// Cumulative exit counts, one per reason at [`ExitReason::index`]
    /// (instrumentation register — stands in for the perf counters the
    /// paper reads).
    exit_counts: [u64; ExitReason::COUNT],
}

impl Vmcs {
    /// Fresh VMCS.
    pub fn new() -> Self {
        Self::default()
    }

    /// Count one exit for `reason`.
    pub fn record_exit(&mut self, reason: ExitReason) {
        self.exit_counts[reason.index()] += 1;
    }

    /// The exits recorded so far, as (reason name, count) pairs of the
    /// reasons that occurred, in [`ExitReason::index`] order.
    pub fn exit_counts(&self) -> impl Iterator<Item = (&'static str, u64)> {
        ExitReason::NAMES
            .into_iter()
            .zip(self.exit_counts)
            .filter(|&(_, n)| n > 0)
    }

    /// Every exit recorded so far, over all reasons.
    pub fn exit_total(&self) -> u64 {
        self.exit_counts.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn record_and_count_exits() {
        let mut v = Vmcs::new();
        assert_eq!(v.exit_total(), 0);
        v.record_exit(ExitReason::Cpuid { leaf: 0 });
        v.record_exit(ExitReason::Cpuid { leaf: 1 });
        v.record_exit(ExitReason::Nmi);
        let counts: HashMap<_, _> = v.exit_counts().collect();
        assert_eq!(counts["cpuid"], 2);
        assert_eq!(counts["nmi"], 1);
        assert_eq!(counts.len(), 2, "a reason that never exited is not listed");
        assert_eq!(v.exit_total(), 3);
    }
}
