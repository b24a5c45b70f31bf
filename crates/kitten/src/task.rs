//! Kitten tasks: minimal process objects pinned to cores.
//!
//! Kitten identity-maps physical memory and uses SMARTMAP-style sharing:
//! there is no per-task page table or address-space object — the kernel's
//! identity tables serve every task, which is exactly what makes
//! cross-enclave sharing cheap (and its stale states dangerous).

use covirt_simhw::topology::CoreId;

/// Task identifier (kernel-local).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct TaskId(pub u64);

impl std::fmt::Display for TaskId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "task{}", self.0)
    }
}

/// A Kitten task. The scheduler is run-to-completion per core; there is
/// no preemption in the model, matching the LWK's noise goals.
#[derive(Clone, Debug)]
pub struct Task {
    /// Identifier.
    pub id: TaskId,
    /// Name (for diagnostics).
    pub name: String,
    /// Core the task is pinned to (Kitten pins by default).
    pub core: CoreId,
}
