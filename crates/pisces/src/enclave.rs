//! Enclave objects and their lifecycle state machine.

use crate::ctrlchan::{CtrlChannel, CtrlMsg};
use crate::resources::ResourceSpec;
use covirt_simhw::addr::{HostPhysAddr, PhysRange};
use covirt_simhw::memory::MemWindow;
use parking_lot::{Mutex, RwLock};
use std::collections::VecDeque;
use std::sync::Arc;

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
    /// Killed by a fault (Covirt containment or host decision); why, as
    /// the fault report that killed it recorded it.
    Failed(Arc<str>),
}

impl EnclaveState {
    /// Every state that is not dead — the from-set of the two transitions
    /// that end an enclave's life.
    pub const NOT_DEAD: [EnclaveState; 4] = [
        EnclaveState::Created,
        EnclaveState::Loaded,
        EnclaveState::Running,
        EnclaveState::ShuttingDown,
    ];

    /// True if the enclave's cores may be executing.
    pub fn is_live(&self) -> bool {
        matches!(self, EnclaveState::Running | EnclaveState::ShuttingDown)
    }

    /// The lifecycle table: `Created → Loaded → Running → ShuttingDown`,
    /// one step at a time, and any state that is not dead may die. Dead
    /// (`Terminated` or `Failed`) is absorbing: no transition leaves it.
    pub fn may_become(&self, next: &EnclaveState) -> bool {
        use EnclaveState::*;
        match (self, next) {
            (Terminated | Failed(_), _) => false,
            (_, Terminated | Failed(_)) => true,
            (Created, Loaded) | (Loaded, Running) | (Running, ShuttingDown) => true,
            _ => false,
        }
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
    /// The window onto `mgmt_region`, resolved once when the region was
    /// allocated; every host-side layer that places a structure in the
    /// region takes a sub-window of it.
    mgmt: MemWindow,
    ctrl: Mutex<Option<CtrlChannel>>,
    /// Host→enclave replies the control ring had no room for, oldest
    /// first; [`crate::host::PiscesHost::process_acks`] sends them on.
    pub(crate) parked_replies: Mutex<VecDeque<CtrlMsg>>,
    /// Ranges the host asked the co-kernel to give back that it has not
    /// acknowledged yet, each once; [`crate::host::PiscesHost::process_acks`]
    /// acts on a `RemoveMemAck` only by taking its range out of here.
    pub(crate) removals: Mutex<Vec<PhysRange>>,
}

impl Enclave {
    /// Build a new enclave record in `Created` state, its management
    /// region being what `mgmt` covers.
    pub fn new(id: EnclaveId, name: String, resources: ResourceSpec, mgmt: MemWindow) -> Self {
        Enclave {
            id,
            name,
            state: Mutex::new(EnclaveState::Created),
            resources: RwLock::new(resources),
            mgmt_region: mgmt.range(),
            mgmt,
            ctrl: Mutex::new(None),
            parked_replies: Mutex::new(VecDeque::new()),
            removals: Mutex::new(Vec::new()),
        }
    }

    /// Whether the host's request for `range` back is still outstanding.
    pub fn removal_pending(&self, range: PhysRange) -> bool {
        self.removals.lock().contains(&range)
    }

    /// Current state (cloned snapshot).
    pub fn state(&self) -> EnclaveState {
        self.state.lock().clone()
    }

    /// The one lifecycle transition: under the state lock, move to `to`
    /// if the current state is one of `allowed_from` and the step is an
    /// edge of [`EnclaveState::may_become`]. `Ok(previous)` tells the
    /// caller it made the transition — of any number of racing callers
    /// exactly one does, and the one that kills the enclave runs the
    /// teardown hooks and reclaims the partition. `Err(current)` leaves
    /// the state as it was.
    pub fn transition(
        &self,
        allowed_from: &[EnclaveState],
        to: EnclaveState,
    ) -> Result<EnclaveState, EnclaveState> {
        let mut s = self.state.lock();
        if allowed_from.contains(&s) && s.may_become(&to) {
            Ok(std::mem::replace(&mut *s, to))
        } else {
            Err(s.clone())
        }
    }

    /// A snapshot of the resource partition.
    pub fn resources(&self) -> ResourceSpec {
        self.resources.read().clone()
    }

    /// Read the resource partition in place, without a snapshot.
    pub fn with_resources<R>(&self, f: impl FnOnce(&ResourceSpec) -> R) -> R {
        f(&self.resources.read())
    }

    /// Mutate the resource partition.
    pub fn with_resources_mut<R>(&self, f: impl FnOnce(&mut ResourceSpec) -> R) -> R {
        f(&mut self.resources.write())
    }

    /// The window onto the management region.
    pub fn mgmt(&self) -> &MemWindow {
        &self.mgmt
    }

    /// Where the co-kernel's boot parameters live — the head of the
    /// management region — and so what the trampoline (or the interposed
    /// hypervisor) hands the kernel in RDI.
    pub fn params_addr(&self) -> HostPhysAddr {
        self.mgmt_region.start
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
    use covirt_simhw::memory::PhysMemory;
    use covirt_simhw::topology::ZoneId;

    fn enclave() -> Enclave {
        let mgmt = PhysMemory::new(&[1 << 20])
            .alloc_window(ZoneId(0), 0x1000, 0x1000)
            .unwrap();
        Enclave::new(EnclaveId(1), "test".into(), ResourceSpec::new(), mgmt)
    }

    #[test]
    fn initial_state_created() {
        let e = enclave();
        assert_eq!(e.state(), EnclaveState::Created);
        assert!(!e.state().is_live());
    }

    #[test]
    fn transitions_and_liveness() {
        use EnclaveState::*;
        let e = enclave();
        assert_eq!(e.transition(&[Created], Loaded), Ok(Created));
        // Skipping a step is refused even when the caller allows it.
        assert_eq!(e.transition(&[Loaded], ShuttingDown), Err(Loaded));
        // A legal edge is refused from a state the caller did not allow.
        assert_eq!(e.transition(&[Created], Running), Err(Loaded));
        assert_eq!(e.transition(&[Loaded], Running), Ok(Loaded));
        assert!(e.state().is_live());
        let failed = Failed("ept violation".into());
        assert_eq!(
            e.transition(&EnclaveState::NOT_DEAD, failed.clone()),
            Ok(Running)
        );
        assert!(!e.state().is_live());
        // Only the first death wins, and nothing revives the enclave.
        assert_eq!(
            e.transition(&EnclaveState::NOT_DEAD, Terminated),
            Err(failed.clone())
        );
        assert_eq!(
            e.transition(std::slice::from_ref(&failed), ShuttingDown),
            Err(failed.clone())
        );
        assert_eq!(e.state(), failed);
    }

    proptest::proptest! {
        /// Random (from-set, target) requests against a fresh enclave:
        /// every accepted step is an edge of the lifecycle table taken
        /// from an allowed state, every refusal leaves the state alone,
        /// and once dead the enclave never changes again.
        #[test]
        fn random_transition_sequences_follow_the_table(
            steps in proptest::collection::vec((0u8..64, 0usize..6), 1..40),
        ) {
            use EnclaveState::*;
            let states = [Created, Loaded, Running, ShuttingDown, Terminated, Failed("f".into())];
            // (from, to) index pairs of the table, written out independently.
            let edges = [(0, 1), (1, 2), (2, 3)];
            let e = enclave();
            let mut at = 0usize;
            for (mask, to) in steps {
                let allowed: Vec<EnclaveState> = (0..6)
                    .filter(|i| mask & (1 << i) != 0)
                    .map(|i| states[i].clone())
                    .collect();
                let legal = at < 4 && (to >= 4 || edges.contains(&(at, to)));
                let expect = legal && allowed.contains(&states[at]);
                match e.transition(&allowed, states[to].clone()) {
                    Ok(prev) => {
                        proptest::prop_assert!(expect, "{:?} -> {:?} accepted", prev, states[to]);
                        proptest::prop_assert_eq!(&prev, &states[at]);
                        at = to;
                    }
                    Err(cur) => {
                        proptest::prop_assert!(!expect, "{:?} -> {:?} refused", cur, states[to]);
                        proptest::prop_assert_eq!(&cur, &states[at]);
                    }
                }
                proptest::prop_assert_eq!(e.state(), states[at].clone());
            }
        }
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
