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
use std::collections::HashMap;
use std::sync::{Arc, Weak};
use xemem::{SegmentId, XememService};

/// The master control process.
pub struct MasterControl {
    host: Arc<PiscesHost>,
    /// The shared-memory service: the one record of who shares memory
    /// with whom, read to notify dependants and to revoke.
    xemem: XememService,
    kernels: RwLock<HashMap<u64, Arc<KittenKernel>>>,
    hooks: RwLock<Vec<Arc<dyn HobbesHooks>>>,
    /// Failure notices awaiting delivery.
    pub notices: NoticeBoard,
}

/// The master's teardown hook on its own Pisces host: however an enclave
/// ends — orderly teardown or contained fault — the master forgets it
/// then, before its memory returns to the node. Holds the master weakly:
/// the host the master owns keeps this hook.
struct ForgetEnclave(Weak<MasterControl>);

impl EnclaveHooks for ForgetEnclave {
    fn on_teardown(&self, enclave: &Enclave) {
        if let Some(master) = self.0.upgrade() {
            master.forget(enclave.id.0);
        }
    }
}

impl MasterControl {
    /// Bring up the master control on a node (loads the Pisces framework).
    pub fn new(node: Arc<SimNode>) -> Arc<Self> {
        Arc::new_cyclic(|master| {
            let host = PiscesHost::new(node);
            host.register_hooks(Arc::new(ForgetEnclave(Weak::clone(master))));
            let failed = Weak::clone(master);
            host.set_fault_path(move |enclave, reason| {
                if let Some(master) = failed.upgrade() {
                    let _ = master.handle_enclave_failure(enclave, reason);
                }
            });
            MasterControl {
                host,
                xemem: XememService::new(),
                kernels: RwLock::new(HashMap::new()),
                hooks: RwLock::new(Vec::new()),
                notices: NoticeBoard::new(),
            }
        })
    }

    /// The Pisces framework instance.
    pub fn pisces(&self) -> &Arc<PiscesHost> {
        &self.host
    }

    /// Register Hobbes-level hooks (the Covirt controller does this).
    pub fn register_hooks(&self, hooks: Arc<dyn HobbesHooks>) {
        self.hooks.write().push(hooks);
    }

    /// Create + launch an enclave and boot a Kitten kernel in it. Returns
    /// the enclave and the kernel handle. (With Covirt active, launch
    /// interposition happens inside `PiscesHost::launch` via its hooks; the
    /// returned plan's params pointer is what Kitten reads either way.)
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
        Ok(self.xemem.export(name, owner, range)?)
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
        Ok(())
    }

    /// Destroy a segment. Returns the enclaves that were still attached
    /// (the stale-mapping hazard): each is cut off before this returns —
    /// its *kernel* keeps the mapping until its own cleanup runs, which
    /// with Covirt enabled is survivable.
    pub fn destroy_segment(&self, name: &str) -> HobbesResult<Vec<u64>> {
        let segid = self.xemem.lookup(name)?;
        let (segment, leftover) = self.xemem.destroy(segid)?;
        self.cut_off(&leftover, segment.range);
        Ok(leftover)
    }

    /// A segment is gone while `attachers` still map `range`: take it out
    /// of each one's reach through the detach hook (under Covirt, EPT unmap
    /// and a shootdown the attacher's live cores acknowledge) before the
    /// memory can be reused. An attacher that cannot be cut off is ended
    /// instead — never skipped. Blocks like a detach; holds no lock of the
    /// master across the wait.
    fn cut_off(&self, attachers: &[u64], range: PhysRange) {
        let hooks = self.hooks.read().clone();
        for &who in attachers {
            let cut = hooks
                .iter()
                .try_for_each(|h| h.on_xemem_detach_acked(who, range));
            if let Err(why) = cut {
                let reason = format!("kept a revoked segment: {why}");
                let _ = self.handle_enclave_failure(who, reason);
            }
        }
    }

    /// Enclave `id` is ending and its memory is about to return to the
    /// node: let go of its kernel (page tables, frame pool, the pinned boot
    /// region), destroy the segments it owns — cutting off whoever is
    /// still attached to them — and drop it from the ones it attached to.
    fn forget(&self, id: u64) {
        // Taken out under the lock, dropped (frames returned, backing
        // released) after it.
        let kernel = self.kernels.write().remove(&id);
        drop(kernel);
        for (segment, attachers) in self.xemem.revoke(id) {
            self.cut_off(&attachers, segment.range);
        }
    }

    /// Fault path: an enclave died (Covirt containment calls this via the
    /// Pisces fault report, and the host for a fault it finds itself).
    /// Reclaims it and notifies every living enclave that shared a segment
    /// with it, as the paper's master control process is responsible for.
    /// An enclave already reclaimed has left the host and its sharers were
    /// told then: a later report (from another of its cores) is `Ok` and
    /// does nothing.
    pub fn handle_enclave_failure(
        &self,
        failed: u64,
        reason: impl Into<Arc<str>>,
    ) -> HobbesResult<()> {
        let Ok(enclave) = self.host.enclave(EnclaveId(failed)) else {
            return Ok(());
        };
        let reason = reason.into();
        // Read before the reclaim, which revokes what it is read from.
        let dependants = self.xemem.sharers(failed);
        self.host.report_fault(&enclave, Arc::clone(&reason))?;
        for d in dependants {
            // The host OS/R (0) is no enclave, and a dependant the reclaim
            // itself had to end has nobody left to tell.
            if self.host.enclave(EnclaveId(d)).is_err() {
                continue;
            }
            for h in self.hooks.read().iter() {
                h.on_dependency_failed(d, failed);
            }
            self.notices.post(FailureNotice {
                dependent: d,
                failed,
                reason: Arc::clone(&reason),
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
        assert!(m.xemem.sharers(e1.id.0).is_empty());
        assert_eq!(m.xemem.lookup("x").unwrap(), segid);
    }

    /// Records every detach the master runs, and refuses the ones for
    /// `refuse` — a stand-in for an attacher whose cores never acknowledge
    /// the flush.
    #[derive(Default)]
    struct Detaches {
        seen: parking_lot::Mutex<Vec<(u64, PhysRange, u64)>>,
        refuse: Option<u64>,
        mem: Option<Arc<covirt_simhw::memory::PhysMemory>>,
    }

    impl HobbesHooks for Detaches {
        fn on_xemem_detach_acked(&self, enclave: u64, range: PhysRange) -> Result<(), String> {
            // How much of zone 0 is in use when the hook runs: the cut-off
            // must come before the owner's memory goes back.
            let in_use = self.mem.as_ref().map_or(0, |m| zone0(m));
            self.seen.lock().push((enclave, range, in_use));
            match self.refuse == Some(enclave) {
                true => Err("core 2 did not acknowledge".into()),
                false => Ok(()),
            }
        }
    }

    fn zone0(mem: &covirt_simhw::memory::PhysMemory) -> u64 {
        mem.zone_usage(ZoneId(0)).unwrap().1
    }

    #[test]
    fn destroy_with_live_attachment_cuts_the_attacher_off() {
        let m = master();
        let hook = Arc::new(Detaches::default());
        m.register_hooks(Arc::clone(&hook) as Arc<dyn HobbesHooks>);
        let (e1, _) = m.bring_up_enclave("p", &req(1)).unwrap();
        let (e2, k2) = m.bring_up_enclave("c", &req(2)).unwrap();
        let seg = carve(&e1);
        m.export_segment(e1.id.0, "x", seg).unwrap();
        m.attach_segment(e2.id.0, "x").unwrap();
        let leftover = m.destroy_segment("x").unwrap();
        assert_eq!(leftover, vec![e2.id.0]);
        assert_eq!(hook.seen.lock()[..], [(e2.id.0, seg, 0)]);
        // The hazard the paper describes: the attacher's kernel still
        // believes in the mapping.
        assert!(k2.translate(seg.start.raw()).is_ok());
        assert!(matches!(
            m.attach_segment(e2.id.0, "x"),
            Err(HobbesError::Xemem(xemem::XememError::NoSuchName(_)))
        ));
    }

    /// The revocation rule, on both roads an owner can go: its segments
    /// are destroyed, each attacher is cut off while the owner's memory is
    /// still the owner's, and nobody can attach to the dead name.
    #[test]
    fn a_dying_owners_segments_are_revoked_before_its_memory_is_freed() {
        for orderly in [true, false] {
            let m = master();
            let mem = Arc::clone(&m.pisces().node().mem);
            let hook = Arc::new(Detaches {
                mem: Some(Arc::clone(&mem)),
                ..Detaches::default()
            });
            m.register_hooks(Arc::clone(&hook) as Arc<dyn HobbesHooks>);
            let (owner, _) = m.bring_up_enclave("owner", &req(1)).unwrap();
            let (early, _) = m.bring_up_enclave("early", &req(2)).unwrap();
            let (late, _) = m.bring_up_enclave("late", &req(3)).unwrap();
            let seg = carve(&owner);
            m.export_segment(owner.id.0, "x", seg).unwrap();
            m.attach_segment(early.id.0, "x").unwrap();
            let with_owner = zone0(&mem);

            match orderly {
                true => m.pisces().teardown(&owner).unwrap(),
                false => m
                    .handle_enclave_failure(owner.id.0, "ept violation")
                    .unwrap(),
            }
            assert_eq!(hook.seen.lock()[..], [(early.id.0, seg, with_owner)]);
            assert!(zone0(&mem) < with_owner, "the owner's memory went back");
            assert!(matches!(
                m.attach_segment(late.id.0, "x"),
                Err(HobbesError::Xemem(xemem::XememError::NoSuchName(_)))
            ));
            assert_eq!(early.state(), pisces::EnclaveState::Running);
            // Only a failure is news; either way nobody shares with the
            // dead any more, so the next failure tells no one about it.
            let told: Vec<u64> = m.notices.drain().iter().map(|n| n.dependent).collect();
            assert_eq!(told, if orderly { vec![] } else { vec![early.id.0] });
            m.handle_enclave_failure(early.id.0, "later").unwrap();
            assert!(m.notices.drain().is_empty());
        }
    }

    /// An attacher that cannot be cut off is ended, not skipped: it is
    /// reclaimed through the same failure path, gets no notice about the
    /// owner, and the owner's reclaim still completes.
    #[test]
    fn an_attacher_that_does_not_let_go_is_ended_with_the_owner() {
        let m = master();
        let mem = Arc::clone(&m.pisces().node().mem);
        let idle = zone0(&mem);
        let (owner, _) = m.bring_up_enclave("owner", &req(1)).unwrap();
        let (stuck, _) = m.bring_up_enclave("stuck", &req(2)).unwrap();
        let (fine, _) = m.bring_up_enclave("fine", &req(3)).unwrap();
        let hook = Arc::new(Detaches {
            refuse: Some(stuck.id.0),
            ..Detaches::default()
        });
        m.register_hooks(Arc::clone(&hook) as Arc<dyn HobbesHooks>);
        m.export_segment(owner.id.0, "x", carve(&owner)).unwrap();
        m.attach_segment(stuck.id.0, "x").unwrap();
        m.attach_segment(fine.id.0, "x").unwrap();

        m.handle_enclave_failure(owner.id.0, "ept violation")
            .unwrap();
        match stuck.state() {
            pisces::EnclaveState::Failed(why) => {
                assert!(why.contains("kept a revoked segment"), "{why}");
                assert!(why.contains("did not acknowledge"), "{why}");
            }
            s => panic!("the stuck attacher must be ended, is {s:?}"),
        }
        assert_eq!(fine.state(), pisces::EnclaveState::Running);
        let told: Vec<u64> = m.notices.drain().iter().map(|n| n.dependent).collect();
        assert_eq!(told, vec![fine.id.0], "only the living are told");
        let living: Vec<u64> = m.pisces().enclaves().iter().map(|e| e.id.0).collect();
        assert_eq!(living, vec![fine.id.0]);
        m.pisces().teardown(&fine).unwrap();
        assert_eq!(zone0(&mem), idle);
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
        // A second report for the reclaimed enclave is harmless.
        m.handle_enclave_failure(e1.id.0, "again").unwrap();
        // The consumer is told its producer died, once.
        let notices = m.notices.drain();
        assert_eq!(notices.len(), 1);
        assert_eq!(notices[0].dependent, e2.id.0);
        assert_eq!(notices[0].failed, e1.id.0);
        // The consumer itself keeps running.
        assert_eq!(e2.state(), pisces::EnclaveState::Running);
    }
}
