//! The master control process ("Leviathan"): node-wide coordination of
//! enclaves, shared memory and composite applications.

use crate::events::{FailureNotice, HobbesHooks, NoticeBoard};
use crate::{HobbesError, HobbesResult};
use covirt_simhw::addr::PhysRange;
use covirt_simhw::node::SimNode;
use kitten::KittenKernel;
use parking_lot::RwLock;
use pisces::enclave::{Enclave, EnclaveId};
use pisces::hooks::EnclaveHooks;
use pisces::host::PiscesHost;
use pisces::resources::ResourceRequest;
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Weak};
use xemem::{SegmentId, XememService};

/// The master control process.
pub struct MasterControl {
    host: Arc<PiscesHost>,
    xemem: Arc<XememService>,
    kernels: RwLock<HashMap<u64, Arc<KittenKernel>>>,
    hooks: RwLock<Vec<Arc<dyn HobbesHooks>>>,
    /// Which enclaves share state (segid → attached+owner set), used to
    /// notify dependents on failure.
    dependencies: RwLock<HashMap<SegmentId, HashSet<u64>>>,
    /// Failure notices awaiting delivery.
    pub notices: NoticeBoard,
}

/// The master's teardown hook on its own Pisces host: however an enclave
/// ends — orderly teardown or contained fault — the master lets go of its
/// kernel (page tables, frame pool, the pinned boot region) then, not when
/// the node goes. Holds the master weakly: the host the master owns keeps
/// this hook.
struct ForgetKernel(Weak<MasterControl>);

impl EnclaveHooks for ForgetKernel {
    fn on_teardown(&self, enclave: &Enclave) {
        if let Some(master) = self.0.upgrade() {
            // Taken out under the lock, dropped (frames returned, backing
            // released) after it.
            let kernel = master.kernels.write().remove(&enclave.id.0);
            drop(kernel);
        }
    }
}

impl MasterControl {
    /// Bring up the master control on a node (loads the Pisces framework).
    pub fn new(node: Arc<SimNode>) -> Arc<Self> {
        Arc::new_cyclic(|master| {
            let host = PiscesHost::new(node);
            host.register_hooks(Arc::new(ForgetKernel(Weak::clone(master))));
            MasterControl {
                host,
                xemem: Arc::new(XememService::new()),
                kernels: RwLock::new(HashMap::new()),
                hooks: RwLock::new(Vec::new()),
                dependencies: RwLock::new(HashMap::new()),
                notices: NoticeBoard::new(),
            }
        })
    }

    /// The Pisces framework instance.
    pub fn pisces(&self) -> &Arc<PiscesHost> {
        &self.host
    }

    /// The shared-memory service.
    pub fn xemem(&self) -> &Arc<XememService> {
        &self.xemem
    }

    /// Register Hobbes-level hooks (the Covirt controller does this).
    pub fn register_hooks(&self, hooks: Arc<dyn HobbesHooks>) {
        self.hooks.write().push(hooks);
    }

    /// Create + launch an enclave and boot a Kitten kernel in it. Returns
    /// the enclave and the kernel handle. (With Covirt active, launch
    /// interposition happens inside `PiscesHost::launch` via its hooks; the
    /// returned boot plan's params pointer is what Kitten reads either
    /// way.)
    pub fn bring_up_enclave(
        &self,
        name: &str,
        req: &ResourceRequest,
    ) -> HobbesResult<(Arc<pisces::Enclave>, Arc<KittenKernel>)> {
        let enclave = self.host.create_enclave(name, req)?;
        let plan = self.host.launch(&enclave)?;
        let kernel = Arc::new(KittenKernel::boot(
            &self.host.node().mem,
            plan.pisces_params_addr,
        )?);
        self.kernels
            .write()
            .insert(enclave.id.0, Arc::clone(&kernel));
        Ok((enclave, kernel))
    }

    /// Register an externally booted kernel (used when the caller drives
    /// the boot path itself, e.g. through the Covirt hypervisor).
    pub fn register_kernel(&self, enclave: u64, kernel: Arc<KittenKernel>) {
        self.kernels.write().insert(enclave, kernel);
    }

    /// The kernel for an enclave.
    pub fn kernel(&self, enclave: u64) -> HobbesResult<Arc<KittenKernel>> {
        self.kernels
            .read()
            .get(&enclave)
            .cloned()
            .ok_or(HobbesError::NoKernel(enclave))
    }

    /// Export a segment from an enclave's memory under a well-known name.
    /// The range must lie inside the owner's assignment.
    pub fn export_segment(
        &self,
        owner: u64,
        name: &str,
        range: PhysRange,
    ) -> HobbesResult<SegmentId> {
        if owner != 0 {
            let enclave = self.host.enclave(EnclaveId(owner))?;
            if !enclave.resources().covers(&range) {
                return Err(HobbesError::Invalid(
                    "export range outside owner assignment",
                ));
            }
        }
        let segid = self.xemem.export(name, owner, range)?;
        self.dependencies
            .write()
            .entry(segid)
            .or_default()
            .insert(owner);
        Ok(segid)
    }

    /// Attach enclave `who` to the named segment.
    ///
    /// Ordering (the Covirt contract): XEMEM bookkeeping → **hook** (EPT
    /// map) → guest kernel maps the pages → caller gets the range. The
    /// guest can only reach the pages after the hypervisor mapping exists.
    pub fn attach_segment(&self, who: u64, name: &str) -> HobbesResult<PhysRange> {
        let segid = self.xemem.lookup(name)?;
        let info = self.xemem.attach(segid, who)?;
        for h in self.hooks.read().iter() {
            if let Err(why) = h.on_xemem_attach_prepared(who, info.range) {
                // Roll back the attachment before propagating the veto.
                let _ = self.xemem.detach(segid, who);
                return Err(HobbesError::Vetoed(why));
            }
        }
        let kernel = self.kernel(who)?;
        // The attach transmits a page-frame list (XPMEM semantics); the
        // guest kernel maps it page by page. The Covirt EPT mapping above
        // covered the whole extent in one coalesced operation — which is
        // why the EPT update is invisible next to this linear work.
        let pages = info.page_frame_list();
        kernel.map_shared_pagelist(info.range, &pages)?;
        self.dependencies
            .write()
            .entry(segid)
            .or_default()
            .insert(who);
        Ok(info.range)
    }

    /// Detach enclave `who` from the named segment.
    ///
    /// Ordering: guest kernel unmaps → XEMEM bookkeeping → **hook** (EPT
    /// unmap + TLB flush) → memory may be reused.
    pub fn detach_segment(&self, who: u64, name: &str) -> HobbesResult<()> {
        let segid = self.xemem.lookup(name)?;
        let info = self.xemem.info(segid)?;
        let kernel = self.kernel(who)?;
        kernel.unmap_shared(info.range)?;
        self.xemem.detach(segid, who)?;
        for h in self.hooks.read().iter() {
            h.on_xemem_detach_acked(who, info.range)
                .map_err(HobbesError::Vetoed)?;
        }
        if let Some(deps) = self.dependencies.write().get_mut(&segid) {
            deps.remove(&who);
        }
        Ok(())
    }

    /// Destroy a segment. Returns enclaves that were still attached (the
    /// stale-mapping hazard — their kernels keep the mapping until their
    /// own cleanup runs, which with Covirt enabled is survivable).
    pub fn destroy_segment(&self, name: &str) -> HobbesResult<Vec<u64>> {
        let segid = self.xemem.lookup(name)?;
        let leftover = self.xemem.destroy(segid)?;
        self.dependencies.write().remove(&segid);
        Ok(leftover)
    }

    /// Fault path: an enclave died (Covirt containment calls this via the
    /// Pisces fault report). Notifies every enclave that shared a segment
    /// with it, as the paper's master control process is responsible for.
    pub fn handle_enclave_failure(&self, failed: u64, reason: &str) -> HobbesResult<()> {
        let enclave = self.host.enclave(EnclaveId(failed))?;
        self.host.report_fault(&enclave, reason)?;
        let mut dependents: HashSet<u64> = HashSet::new();
        for (_segid, members) in self.dependencies.read().iter() {
            if members.contains(&failed) {
                dependents.extend(members.iter().filter(|&&m| m != failed && m != 0));
            }
        }
        for d in dependents {
            for h in self.hooks.read().iter() {
                h.on_dependency_failed(d, failed);
            }
            self.notices.post(FailureNotice {
                dependent: d,
                failed,
                reason: reason.to_owned(),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use covirt_simhw::addr::PAGE_SIZE_2M;
    use covirt_simhw::node::NodeConfig;
    use covirt_simhw::topology::{CoreId, ZoneId};
    use kitten::memmap::RegionKind;

    fn master() -> Arc<MasterControl> {
        MasterControl::new(SimNode::new(NodeConfig::small()))
    }

    fn req(core: usize) -> ResourceRequest {
        ResourceRequest::new(vec![CoreId(core)], vec![(ZoneId(0), 48 * 1024 * 1024)])
    }

    #[test]
    fn bring_up_registers_kernel() {
        let m = master();
        let (e, k) = m.bring_up_enclave("e0", &req(1)).unwrap();
        assert_eq!(e.state(), pisces::EnclaveState::Running);
        assert!(Arc::ptr_eq(&m.kernel(e.id.0).unwrap(), &k));
        assert!(m.kernel(99).is_err());
    }

    /// An enclave's kernel holds its page tables, their frame pool and the
    /// pinned boot region: the master must let go of it when the enclave
    /// ends, by either road, not keep it for the life of the node.
    #[test]
    fn a_dead_enclaves_kernel_is_forgotten_on_teardown_and_on_failure() {
        let m = master();
        let (orderly, k1) = m.bring_up_enclave("orderly", &req(1)).unwrap();
        let (faulty, k2) = m.bring_up_enclave("faulty", &req(2)).unwrap();
        assert_eq!(Arc::strong_count(&k1), 2);

        m.pisces().teardown(&orderly).unwrap();
        m.handle_enclave_failure(faulty.id.0, "ept violation")
            .unwrap();
        for (e, k) in [(&orderly, &k1), (&faulty, &k2)] {
            assert!(matches!(m.kernel(e.id.0), Err(HobbesError::NoKernel(id)) if id == e.id.0));
            assert_eq!(Arc::strong_count(k), 1, "{} still holds its kernel", e.name);
        }
        // The hook holds the master weakly: dropping the last handle frees it.
        let weak = Arc::downgrade(&m);
        drop(m);
        assert!(weak.upgrade().is_none());
    }

    /// Carve an exportable range out of an enclave's assignment.
    fn carve(e: &pisces::Enclave) -> PhysRange {
        let r = e.resources().mem[0];
        PhysRange::new(r.start.add(r.len - 2 * PAGE_SIZE_2M), 2 * PAGE_SIZE_2M)
    }

    #[test]
    fn export_attach_detach_flow() {
        let m = master();
        let (e1, _k1) = m.bring_up_enclave("producer", &req(1)).unwrap();
        let (e2, k2) = m.bring_up_enclave("consumer", &req(2)).unwrap();
        let seg_range = carve(&e1);
        m.export_segment(e1.id.0, "exchange", seg_range).unwrap();

        let got = m.attach_segment(e2.id.0, "exchange").unwrap();
        assert_eq!(got, seg_range);
        // Consumer kernel can now translate the shared pages.
        assert!(k2.translate(seg_range.start.raw()).is_ok());
        assert_eq!(k2.memmap().by_kind(RegionKind::Shared).len(), 1);

        m.detach_segment(e2.id.0, "exchange").unwrap();
        assert!(k2.translate(seg_range.start.raw()).is_err());
    }

    #[test]
    fn export_outside_assignment_rejected() {
        let m = master();
        let (e1, _k1) = m.bring_up_enclave("e0", &req(1)).unwrap();
        let bogus = PhysRange::new(
            covirt_simhw::addr::HostPhysAddr::new(0x40_0000_0000),
            0x1000,
        );
        assert!(matches!(
            m.export_segment(e1.id.0, "bogus", bogus),
            Err(HobbesError::Invalid(_))
        ));
    }

    #[test]
    fn attach_veto_rolls_back() {
        struct Veto;
        impl HobbesHooks for Veto {
            fn on_xemem_attach_prepared(&self, _e: u64, _r: PhysRange) -> Result<(), String> {
                Err("no".into())
            }
        }
        let m = master();
        let (e1, _) = m.bring_up_enclave("p", &req(1)).unwrap();
        let (e2, _) = m.bring_up_enclave("c", &req(2)).unwrap();
        let segid = m.export_segment(e1.id.0, "x", carve(&e1)).unwrap();
        m.register_hooks(Arc::new(Veto));
        assert!(matches!(
            m.attach_segment(e2.id.0, "x"),
            Err(HobbesError::Vetoed(_))
        ));
        // Attachment rolled back in XEMEM.
        assert!(m.xemem().attachments(segid).unwrap().is_empty());
    }

    #[test]
    fn destroy_with_live_attachment_reports_hazard() {
        let m = master();
        let (e1, _) = m.bring_up_enclave("p", &req(1)).unwrap();
        let (e2, _) = m.bring_up_enclave("c", &req(2)).unwrap();
        m.export_segment(e1.id.0, "x", carve(&e1)).unwrap();
        m.attach_segment(e2.id.0, "x").unwrap();
        let leftover = m.destroy_segment("x").unwrap();
        assert_eq!(leftover, vec![e2.id.0]);
        assert_eq!(m.xemem().hazardous_destroy_count(), 1);
    }

    #[test]
    fn failure_notifies_dependents() {
        let m = master();
        let (e1, _) = m.bring_up_enclave("p", &req(1)).unwrap();
        let (e2, _) = m.bring_up_enclave("c", &req(2)).unwrap();
        m.export_segment(e1.id.0, "x", carve(&e1)).unwrap();
        m.attach_segment(e2.id.0, "x").unwrap();

        m.handle_enclave_failure(e1.id.0, "ept violation").unwrap();
        assert!(matches!(e1.state(), pisces::EnclaveState::Failed(_)));
        // The consumer is told its producer died.
        let notices = m.notices.drain();
        assert_eq!(notices.len(), 1);
        assert_eq!(notices[0].dependent, e2.id.0);
        assert_eq!(notices[0].failed, e1.id.0);
        // The consumer itself keeps running.
        assert_eq!(e2.state(), pisces::EnclaveState::Running);
    }
}
