//! Enclave objects and their lifecycle state machine.

use crate::ctrlchan::CtrlChannel;
use crate::resources::ResourceSpec;
use covirt_simhw::addr::PhysRange;
use parking_lot::{Mutex, RwLock};
use std::sync::atomic::{AtomicBool, Ordering};

/// Enclave identifier, unique per host.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct EnclaveId(pub u64);

impl std::fmt::Display for EnclaveId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "enclave{}", self.0)
    }
}

/// Lifecycle states.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EnclaveState {
    /// Resources assigned, kernel not yet loaded.
    Created,
    /// Boot structures written; ready to launch.
    Loaded,
    /// Co-kernel running.
    Running,
    /// Orderly shutdown in progress.
    ShuttingDown,
    /// Cleanly shut down; resources reclaimed.
    Terminated,
    /// Killed by a fault (Covirt containment or host decision); the string
    /// records why.
    Failed(String),
}

impl EnclaveState {
    /// True if the enclave's cores may be executing.
    pub fn is_live(&self) -> bool {
        matches!(self, EnclaveState::Running | EnclaveState::ShuttingDown)
    }
}

/// One enclave: a hardware partition plus the management state attached to
/// it.
pub struct Enclave {
    /// The enclave's id.
    pub id: EnclaveId,
    /// Human-readable name.
    pub name: String,
    state: Mutex<EnclaveState>,
    resources: RwLock<ResourceSpec>,
    /// Region holding boot structures and the control channel (owned by
    /// the framework, not part of the co-kernel's general-purpose memory).
    pub mgmt_region: PhysRange,
    ctrl: Mutex<Option<CtrlChannel>>,
    /// Self-healing control flags, orthogonal to the lifecycle state: a
    /// remediation policy throttles an enclave whose SLOs degrade and
    /// quarantines one with a confirmed protection violation. Flags, not
    /// states — the lifecycle machine keeps its invariants.
    throttled: AtomicBool,
    quarantined: AtomicBool,
}

impl Enclave {
    /// Build a new enclave record in `Created` state.
    pub fn new(
        id: EnclaveId,
        name: String,
        resources: ResourceSpec,
        mgmt_region: PhysRange,
    ) -> Self {
        Enclave {
            id,
            name,
            state: Mutex::new(EnclaveState::Created),
            resources: RwLock::new(resources),
            mgmt_region,
            ctrl: Mutex::new(None),
            throttled: AtomicBool::new(false),
            quarantined: AtomicBool::new(false),
        }
    }

    /// Whether a remediation policy is throttling this enclave.
    pub fn is_throttled(&self) -> bool {
        self.throttled.load(Ordering::Acquire)
    }

    /// Set or clear the throttle flag (the enclave's drivers pace resource
    /// requests off it). Returns the previous value.
    pub fn set_throttled(&self, on: bool) -> bool {
        self.throttled.swap(on, Ordering::AcqRel)
    }

    /// Whether this enclave has been quarantined.
    pub fn is_quarantined(&self) -> bool {
        self.quarantined.load(Ordering::Acquire)
    }

    /// Quarantine the enclave: no new resources may be granted to it
    /// (`PiscesHost::add_memory` refuses). One-way; returns `true` only
    /// for the transition, so a policy acts exactly once.
    pub fn quarantine(&self) -> bool {
        !self.quarantined.swap(true, Ordering::AcqRel)
    }

    /// Current state (cloned snapshot).
    pub fn state(&self) -> EnclaveState {
        self.state.lock().clone()
    }

    /// Transition with validation; returns the previous state.
    pub fn set_state(&self, next: EnclaveState) -> EnclaveState {
        let mut s = self.state.lock();
        std::mem::replace(&mut *s, next)
    }

    /// End the enclave's life: under the state lock, move it to `last`
    /// (`Terminated` or `Failed(reason)`) unless it is already dead.
    /// Returns whether this caller made the transition — exactly one of any
    /// number of racing callers does, and that one runs the teardown hooks
    /// and reclaims the partition.
    pub fn retire(&self, last: EnclaveState) -> bool {
        let mut s = self.state.lock();
        if matches!(*s, EnclaveState::Terminated | EnclaveState::Failed(_)) {
            return false;
        }
        *s = last;
        true
    }

    /// Read access to the resource partition.
    pub fn resources(&self) -> ResourceSpec {
        self.resources.read().clone()
    }

    /// Mutate the resource partition.
    pub fn with_resources_mut<R>(&self, f: impl FnOnce(&mut ResourceSpec) -> R) -> R {
        f(&mut self.resources.write())
    }

    /// Install the host-side control channel handle.
    pub fn set_ctrl(&self, ch: CtrlChannel) {
        *self.ctrl.lock() = Some(ch);
    }

    /// The host-side control channel, if the enclave has been loaded.
    pub fn ctrl(&self) -> Option<CtrlChannel> {
        self.ctrl.lock().clone()
    }
}

impl std::fmt::Debug for Enclave {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Enclave({} \"{}\" {:?})",
            self.id,
            self.name,
            self.state()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use covirt_simhw::addr::HostPhysAddr;

    fn enclave() -> Enclave {
        Enclave::new(
            EnclaveId(1),
            "test".into(),
            ResourceSpec::new(),
            PhysRange::new(HostPhysAddr::new(0x1000), 0x1000),
        )
    }

    #[test]
    fn initial_state_created() {
        let e = enclave();
        assert_eq!(e.state(), EnclaveState::Created);
        assert!(!e.state().is_live());
    }

    #[test]
    fn transitions_and_liveness() {
        let e = enclave();
        e.set_state(EnclaveState::Loaded);
        e.set_state(EnclaveState::Running);
        assert!(e.state().is_live());
        let prev = e.set_state(EnclaveState::Failed("ept violation".into()));
        assert_eq!(prev, EnclaveState::Running);
        assert!(!e.state().is_live());
    }

    #[test]
    fn only_the_first_retire_wins() {
        let e = enclave();
        e.set_state(EnclaveState::Running);
        assert!(e.retire(EnclaveState::Failed("first".into())));
        assert!(!e.retire(EnclaveState::Terminated));
        assert_eq!(e.state(), EnclaveState::Failed("first".into()));
    }

    #[test]
    fn remediation_flags() {
        let e = enclave();
        assert!(!e.is_throttled());
        assert!(!e.is_quarantined());
        assert!(!e.set_throttled(true));
        assert!(e.is_throttled());
        assert!(e.set_throttled(false));
        // Quarantine reports the transition exactly once.
        assert!(e.quarantine());
        assert!(!e.quarantine());
        assert!(e.is_quarantined());
        // Flags do not disturb the lifecycle state machine.
        assert_eq!(e.state(), EnclaveState::Created);
    }

    #[test]
    fn resource_mutation() {
        let e = enclave();
        e.with_resources_mut(|r| {
            r.ipi_vectors.push(0x40);
        });
        assert!(e.resources().has_vector(0x40));
    }
}
