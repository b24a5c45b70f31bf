//! Per-enclave virtualization contexts.
//!
//! A [`VirtContext`] is the hardware-level state the controller builds for
//! one enclave before its CPUs boot, and then edits in place for the rest
//! of the enclave's life: the EPT, the per-core VMCS replicas, the MSR/IO
//! bitmaps of the features that have one, the IPI whitelist, the
//! posted-interrupt descriptors and the per-core command queues. The
//! hypervisor instances hold references into the same structures — that
//! shared access is what makes asynchronous, controller-side
//! reconfiguration possible.
//!
//! The context is the whole exit policy: the exec loop and the hypervisor
//! decide every exit from its `config`, `msr_bitmap`, `io_bitmap`,
//! [`VirtContext::posted`] descriptors and `ept`, and the VMCS holds no
//! control that repeats them.

use crate::cmdqueue::CmdQueue;
use crate::config::{CovirtConfig, IpiMode};
use crate::whitelist::IpiWhitelist;
use covirt_simhw::cpu::Cpu;
use covirt_simhw::ept::Ept;
use covirt_simhw::ioport::{IoBitmap, PORT_KBD_RESET, PORT_PCI_CONFIG_ADDR, PORT_PCI_CONFIG_DATA};
use covirt_simhw::msr::{MsrBitmap, IA32_MC0_CTL};
use covirt_simhw::posted::PostedIntDescriptor;
use covirt_simhw::vmcs::Vmcs;
use parking_lot::RwLock;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;

/// The notification vector posted-interrupt descriptors use (one below the
/// legacy spurious vector, outside the guest-allocatable pool).
pub const PIV_NOTIFICATION_VECTOR: u8 = 0xf2;

/// The doorbell vector the controller posts to signal pending command-queue
/// work (exitless command delivery). Also outside the guest-allocatable
/// pool; distinct from [`PIV_NOTIFICATION_VECTOR`] so command doorbells and
/// guest-to-guest posted IPIs never alias.
pub const CMD_DOORBELL_VECTOR: u8 = 0xf3;

/// What a context keeps for one enclave core.
pub(crate) struct CoreSlot {
    /// The core, whose VMX state says whether it runs this enclave.
    pub(crate) cpu: Arc<Cpu>,
    /// The core's VMCS replica ("replicating the hypervisor context ... for
    /// each CPU core managed by Covirt"). Boxed: held inline, it made
    /// building a context slower (EXPERIMENTS.md, "One VMX state per core").
    pub(crate) vmcs: Box<RwLock<Vmcs>>,
    /// The core's command queue, once the controller has placed it.
    cmdq: Option<CmdQueue>,
    /// Posted-interrupt descriptor (posted IPI mode only).
    posted: Option<Arc<PostedIntDescriptor>>,
    /// Command-doorbell descriptor. Unlike `posted`, this exists in *every*
    /// Covirt configuration: the exitless command path does not depend on
    /// the enclave opting into posted-IPI protection.
    pub(crate) cmd_doorbell: PostedIntDescriptor,
}

/// Per-enclave virtualization state.
pub struct VirtContext {
    /// The enclave this context protects.
    pub enclave_id: u64,
    /// The feature set this context enforces.
    pub config: CovirtConfig,
    /// Extended page tables (present iff memory protection is on).
    pub ept: Option<Arc<Ept>>,
    /// IPI transmission whitelist (consulted iff IPI protection is on).
    pub whitelist: IpiWhitelist,
    /// MSR intercepts of every core (present iff MSR protection is on;
    /// absent intercepts nothing).
    pub msr_bitmap: Option<Box<MsrBitmap>>,
    /// I/O port intercepts of every core (present iff I/O protection is
    /// on; absent intercepts nothing).
    pub io_bitmap: Option<IoBitmap>,
    /// One slot per enclave core, sorted by core id.
    slots: Vec<CoreSlot>,
    /// Set when the hypervisor terminated the enclave; the reason, shared
    /// with everyone the termination is reported to.
    terminated: RwLock<Option<Arc<str>>>,
    /// EPT violations caught (instrumentation).
    pub violations: AtomicU64,
}

impl VirtContext {
    /// Assemble a context for `enclave_id` covering `cpus`, with `vectors`
    /// initially whitelisted.
    pub fn new(
        enclave_id: u64,
        config: CovirtConfig,
        cpus: impl IntoIterator<Item = Arc<Cpu>>,
        vectors: &[u8],
        ept: Option<Arc<Ept>>,
    ) -> Self {
        assert_eq!(
            config.memory,
            ept.is_some(),
            "EPT presence must match the feature set"
        );
        let msr_bitmap = config.msr.then(|| {
            // Intercept the MSRs an enclave must never write: machine-check
            // bank controls (writing garbage there can wedge the node).
            let mut bitmap = Box::new(MsrBitmap::intercept_none());
            for bank in 0..8u32 {
                bitmap.intercept_write(IA32_MC0_CTL + 4 * bank, true);
            }
            bitmap
        });
        let io_bitmap = config.io.then(|| {
            let mut bitmap = IoBitmap::intercept_none();
            bitmap.set(PORT_KBD_RESET, true);
            bitmap.set_range(PORT_PCI_CONFIG_ADDR, PORT_PCI_CONFIG_DATA + 3, true);
            bitmap
        });

        let mut slots: Vec<CoreSlot> = cpus
            .into_iter()
            .map(|cpu| {
                let posted = matches!(config.ipi, Some(IpiMode::Posted))
                    .then(|| Arc::new(PostedIntDescriptor::new(PIV_NOTIFICATION_VECTOR)));
                CoreSlot {
                    cpu,
                    vmcs: Box::new(RwLock::new(Vmcs::new())),
                    cmdq: None,
                    posted,
                    cmd_doorbell: PostedIntDescriptor::new(CMD_DOORBELL_VECTOR),
                }
            })
            .collect();
        slots.sort_unstable_by_key(|s| s.cpu.id);
        slots.dedup_by_key(|s| s.cpu.id);
        let whitelist = IpiWhitelist::new(
            slots.iter().map(|s| s.cpu.id.0),
            vectors.iter().copied().chain(std::iter::once(TIMER_VECTOR)),
        );

        VirtContext {
            enclave_id,
            config,
            ept,
            whitelist,
            msr_bitmap,
            io_bitmap,
            slots,
            terminated: RwLock::new(None),
            violations: AtomicU64::new(0),
        }
    }

    /// Index of `core`'s slot, if it is one of the enclave's cores.
    pub(crate) fn slot_index(&self, core: usize) -> Option<usize> {
        self.slots.binary_search_by_key(&core, |s| s.cpu.id.0).ok()
    }

    /// `core`'s slot, if it is one of the enclave's cores.
    fn slot(&self, core: usize) -> Option<&CoreSlot> {
        self.slot_index(core).map(|i| &self.slots[i])
    }

    /// The VMCS for a core.
    pub fn vmcs(&self, core: usize) -> Option<&RwLock<Vmcs>> {
        self.slot(core).map(|s| &*s.vmcs)
    }

    /// All cores with a VMCS, in ascending order.
    pub fn cores(&self) -> Vec<usize> {
        self.slots.iter().map(|s| s.cpu.id.0).collect()
    }

    /// Install a core's command queue (controller, before boot). A core
    /// outside the enclave has no slot to install it in.
    pub fn set_cmdq(&mut self, core: usize, q: CmdQueue) {
        if let Some(i) = self.slot_index(core) {
            self.slots[i].cmdq = Some(q);
        }
    }

    /// A core's command queue.
    pub fn cmdq(&self, core: usize) -> Option<&CmdQueue> {
        self.slot(core)?.cmdq.as_ref()
    }

    /// A core's posted-interrupt descriptor (posted mode only).
    pub fn posted(&self, core: usize) -> Option<&Arc<PostedIntDescriptor>> {
        self.slot(core)?.posted.as_ref()
    }

    /// A core's command-doorbell descriptor (present in every config).
    pub fn cmd_doorbell(&self, core: usize) -> Option<&PostedIntDescriptor> {
        self.slot(core).map(|s| &s.cmd_doorbell)
    }

    /// The slot at `index` (see [`Self::slot_index`]; a hypervisor looks
    /// its core up once, at launch).
    #[inline]
    pub(crate) fn slot_at(&self, index: usize) -> &CoreSlot {
        &self.slots[index]
    }

    /// Whether the slot's core runs this enclave: its VMX state, in guest
    /// or root, names this enclave's VMCS. Such a core may cache the
    /// enclave's translations, so flush synchronization waits for it.
    fn runs_here(&self, slot: &CoreSlot) -> bool {
        slot.cpu.vmx_state().enclave() == Some(self.enclave_id)
    }

    /// Whether `core` is live: one of the enclave's cores, running it.
    pub fn is_live(&self, core: usize) -> bool {
        self.slot(core).is_some_and(|s| self.runs_here(s))
    }

    /// The slots of the live cores, ascending.
    fn live(&self) -> impl Iterator<Item = &CoreSlot> {
        self.slots.iter().filter(|s| self.runs_here(s))
    }

    /// The live cores, in ascending order.
    pub fn live_cores(&self) -> Vec<usize> {
        self.live().map(|s| s.cpu.id.0).collect()
    }

    /// What a command round trip needs of each live core, in ascending core
    /// order: its id, its queue and its doorbell.
    pub fn live_slots(&self) -> impl Iterator<Item = (usize, &CmdQueue, &PostedIntDescriptor)> {
        self.live()
            .filter_map(|s| Some((s.cpu.id.0, s.cmdq.as_ref()?, &s.cmd_doorbell)))
    }

    /// Record enclave termination (idempotent; first reason wins, and a
    /// later one is not even converted).
    pub fn terminate(&self, reason: impl Into<Arc<str>>) {
        let mut t = self.terminated.write();
        if t.is_none() {
            *t = Some(reason.into());
        }
    }

    /// Whether (and why) the enclave was terminated.
    pub fn termination(&self) -> Option<Arc<str>> {
        self.terminated.read().clone()
    }

    /// Total exits across every core's VMCS: one (reason name, count)
    /// pair per reason that occurred.
    pub fn exit_counts(&self) -> Vec<(&'static str, u64)> {
        let mut out: Vec<(&'static str, u64)> = Vec::new();
        for slot in &self.slots {
            for (name, n) in slot.vmcs.read().exit_counts() {
                match out.iter_mut().find(|(k, _)| *k == name) {
                    Some((_, total)) => *total += n,
                    None => out.push((name, n)),
                }
            }
        }
        out
    }
}

/// The LAPIC timer vector Kitten programs (always whitelisted for
/// self-IPIs — the timer must keep working under IPI protection).
pub const TIMER_VECTOR: u8 = 0xec;

#[cfg(test)]
mod tests {
    use super::*;
    use covirt_simhw::memory::PhysMemory;
    use covirt_simhw::node::{NodeConfig, SimNode};
    use covirt_simhw::paging::FramePool;
    use covirt_simhw::topology::{CoreId, ZoneId};

    /// Cores `ids` of a small node.
    fn cpus<const N: usize>(ids: [usize; N]) -> [Arc<Cpu>; N] {
        let node = SimNode::new(NodeConfig::small());
        ids.map(|c| Arc::clone(node.cpu(CoreId(c)).unwrap()))
    }

    fn ept() -> Arc<Ept> {
        let mem = Arc::new(PhysMemory::new(&[64 * 1024 * 1024]));
        let pool_region = mem
            .alloc_backed(ZoneId(0), 4 * 1024 * 1024, covirt_simhw::addr::PAGE_SIZE_4K)
            .unwrap();
        Arc::new(Ept::new(Arc::new(FramePool::new(mem, pool_region).unwrap())).unwrap())
    }

    #[test]
    fn vmcs_replicated_per_core() {
        let v = VirtContext::new(1, CovirtConfig::MEM, cpus([2, 3]), &[0x40], Some(ept()));
        assert_eq!(v.cores(), vec![2, 3]);
        let a = v.vmcs(2).unwrap();
        let b = v.vmcs(3).unwrap();
        assert!(
            !std::ptr::eq(a, b),
            "per-core VMCS must be replicas, not shared"
        );
        assert!(v.ept.is_some() && v.posted(2).is_none());
    }

    #[test]
    #[should_panic(expected = "EPT presence must match")]
    fn ept_mismatch_panics() {
        VirtContext::new(1, CovirtConfig::MEM, cpus([1]), &[], None);
    }

    #[test]
    fn vapic_mode_builds_no_descriptor() {
        let v = VirtContext::new(1, CovirtConfig::MEM_IPI, cpus([1]), &[0x40], Some(ept()));
        assert!(v.posted(1).is_none());
    }

    #[test]
    fn posted_mode_builds_descriptors() {
        let v = VirtContext::new(
            1,
            CovirtConfig::MEM_IPI_PIV,
            cpus([1, 2]),
            &[0x40],
            Some(ept()),
        );
        assert!(v.posted(1).is_some());
        assert!(v.posted(2).is_some());
        assert_eq!(
            v.posted(1).unwrap().notification_vector(),
            PIV_NOTIFICATION_VECTOR
        );
    }

    #[test]
    fn cmd_doorbell_built_for_every_config() {
        // The exitless command path must not depend on posted-IPI mode:
        // every config gets a per-core doorbell descriptor.
        let none = VirtContext::new(1, CovirtConfig::NONE, cpus([1, 2]), &[], None);
        let piv = VirtContext::new(
            2,
            CovirtConfig::MEM_IPI_PIV,
            cpus([1]),
            &[0x40],
            Some(ept()),
        );
        for v in [&none, &piv] {
            let d = v.cmd_doorbell(1).expect("doorbell descriptor missing");
            assert_eq!(d.notification_vector(), CMD_DOORBELL_VECTOR);
        }
        assert!(none.cmd_doorbell(2).is_some());
        assert!(none.cmd_doorbell(9).is_none(), "only enclave cores");
        // Distinct from the posted-IPI descriptor and its vector.
        assert_eq!(
            piv.posted(1).unwrap().notification_vector(),
            PIV_NOTIFICATION_VECTOR
        );
        assert_ne!(CMD_DOORBELL_VECTOR, PIV_NOTIFICATION_VECTOR);
    }

    #[test]
    fn whitelist_includes_timer() {
        let v = VirtContext::new(1, CovirtConfig::MEM_IPI, cpus([3]), &[0x44], Some(ept()));
        assert!(v.whitelist.would_allow(3, 0x44));
        assert!(v.whitelist.would_allow(3, TIMER_VECTOR));
        assert!(!v.whitelist.would_allow(0, 0x44));
    }

    #[test]
    fn msr_io_protection_configures_bitmaps() {
        let v = VirtContext::new(1, CovirtConfig::FULL, cpus([1]), &[], Some(ept()));
        let msr = v.msr_bitmap.as_ref().unwrap();
        assert!(msr.write_exits(IA32_MC0_CTL));
        assert!(!msr.write_exits(covirt_simhw::msr::IA32_FS_BASE));
        let io = v.io_bitmap.as_ref().unwrap();
        assert!(io.exits(PORT_KBD_RESET));
        assert!(!io.exits(covirt_simhw::ioport::PORT_COM1));
    }

    /// A feature that is off has no bitmap to consult.
    #[test]
    fn bitmaps_exist_only_for_their_feature() {
        let mem = VirtContext::new(1, CovirtConfig::MEM_IPI, cpus([1]), &[], Some(ept()));
        let none = VirtContext::new(2, CovirtConfig::NONE, cpus([1]), &[], None);
        for v in [&mem, &none] {
            assert!(v.msr_bitmap.is_none() && v.io_bitmap.is_none());
        }
    }

    #[test]
    fn termination_first_reason_wins() {
        let v = VirtContext::new(1, CovirtConfig::NONE, cpus([1]), &[], None);
        assert!(v.termination().is_none());
        v.terminate("ept violation");
        v.terminate("later");
        assert_eq!(&*v.termination().unwrap(), "ept violation");
    }
}
