//! The Kitten kernel object: boot, memory management and control-channel
//! servicing.

use crate::memmap::{MemMap, RegionKind};
use crate::task::{Task, TaskId};
use crate::timer::TimerPolicy;
use crate::{KittenError, KittenResult};
use covirt_simhw::addr::{HostPhysAddr, PhysRange, PAGE_SIZE_2M};
use covirt_simhw::memory::PhysMemory;
use covirt_simhw::paging::{DirectLoad, FramePool, GuestPageTables, Perms};
use covirt_simhw::topology::CoreId;
use parking_lot::{Mutex, RwLock};
use pisces::boot::BootParams;
use pisces::ctrlchan::{CtrlBatch, CtrlChannel, CtrlMsg};
use std::sync::Arc;

/// A booted Kitten instance (one per enclave).
pub struct KittenKernel {
    /// The boot parameters the kernel was started with.
    pub params: BootParams,
    mem: Arc<PhysMemory>,
    /// The kernel's identity page tables (CR3 root inside the enclave's
    /// page-table pool).
    pub page_tables: GuestPageTables,
    memmap: RwLock<MemMap>,
    ctrl: CtrlChannel,
    /// Tick policy (LWKs minimize timer interrupts).
    pub timer_policy: TimerPolicy,
    tasks: RwLock<Vec<Task>>,
    next_task: Mutex<u64>,
}

impl KittenKernel {
    /// Boot from the parameter structure at `params_addr` (the address
    /// handed over in RDI by the trampoline — or by the Covirt hypervisor).
    pub fn boot(mem: &Arc<PhysMemory>, params_addr: HostPhysAddr) -> KittenResult<Self> {
        // The one search for the management region: the parameters, and
        // the control channel they place, are read through this window.
        let mgmt = mem
            .window_from(params_addr)
            .map_err(|_| KittenError::BadBootParams)?;
        let params =
            BootParams::read_from(&mgmt, params_addr).map_err(|_| KittenError::BadBootParams)?;
        // Every later "the kernel's boot regions" relies on there being one.
        if params.mem_regions.is_empty() {
            return Err(KittenError::BadBootParams);
        }
        // The page is the enclave's to write: every range in it is checked.
        let decode =
            |(start, len)| PhysRange::checked(start, len).ok_or(KittenError::BadBootParams);
        let chan = mgmt
            .sub(decode((params.ctrlchan_base, params.ctrlchan_len))?)
            .map_err(|_| KittenError::Ctrl("channel outside the management region"))?;

        // Page-table pool lives at the head of the first assigned region
        // (the one search for that region).
        let pool = FramePool::new(Arc::clone(mem), decode(params.pt_pool)?)?;
        let page_tables = GuestPageTables::owning(pool)?;

        // Identity-map every assigned region with large pages (Kitten's
        // contiguous-memory policy makes 2 MiB mappings the norm).
        let mut memmap = MemMap::new();
        for &region in &params.mem_regions {
            let range = decode(region)?;
            page_tables.map(range.start.raw(), range.start, range.len, Perms::RWX, 2)?;
            memmap
                .add(range, RegionKind::Boot)
                .map_err(KittenError::Invalid)?;
        }
        // The management region (boot params + control channel) is also
        // visible to the kernel, up to the end of the channel.
        let mgmt_len = chan.range().end().raw() - params_addr.raw();
        page_tables.map(params_addr.raw(), params_addr, mgmt_len, Perms::RW, 1)?;

        let ctrl =
            CtrlChannel::attach_enclave(&chan).map_err(|_| KittenError::Ctrl("attach failed"))?;

        Ok(KittenKernel {
            params,
            mem: Arc::clone(mem),
            page_tables,
            memmap: RwLock::new(memmap),
            ctrl,
            timer_policy: TimerPolicy::default(),
            tasks: RwLock::new(Vec::new()),
            next_task: Mutex::new(1),
        })
    }

    /// Snapshot of the memory map.
    pub fn memmap(&self) -> MemMap {
        self.memmap.read().clone()
    }

    /// Read the memory map in place, without a snapshot.
    pub fn with_memmap<R>(&self, f: impl FnOnce(&MemMap) -> R) -> R {
        f(&self.memmap.read())
    }

    /// Mutate the memory map (fault injections use this).
    pub fn with_memmap_mut<R>(&self, f: impl FnOnce(&mut MemMap) -> R) -> R {
        f(&mut self.memmap.write())
    }

    /// The enclave-side control channel.
    pub fn ctrl(&self) -> &CtrlChannel {
        &self.ctrl
    }

    /// Cores this kernel runs on.
    pub fn cores(&self) -> Vec<CoreId> {
        self.params
            .cores
            .iter()
            .map(|&c| CoreId(c as usize))
            .collect()
    }

    /// Translate a kernel-virtual address via the kernel's own page tables
    /// (identity, so mostly a map-membership check). This is the *kernel's
    /// belief*; the hypervisor may disagree.
    pub fn translate(&self, va: u64) -> KittenResult<HostPhysAddr> {
        let t = self
            .page_tables
            .walk(va, &DirectLoad(&self.mem))
            .map_err(|_| KittenError::NotMapped(va))?;
        Ok(t.pa)
    }

    /// Service pending host→enclave control messages. Returns the messages
    /// handled, held inline: a poll allocates nothing. This is the kernel's
    /// "management interrupt" bottom half; in a live enclave it runs from
    /// the exec loop's safe points.
    ///
    /// Every handled message owes the host an acknowledgement, so none is
    /// taken while the enclave→host ring is full: it stays queued for the
    /// next poll instead of being applied with its ack lost. The inbound
    /// ring lies in memory the enclave can write, so a range it names is
    /// checked before it is mapped or unmapped: one that wraps the address
    /// space is refused. Inlined: the batch is then built in the caller's
    /// frame instead of copied there, which an idle poll would otherwise
    /// pay for whole.
    #[inline]
    pub fn poll_ctrl(&self) -> KittenResult<CtrlBatch> {
        let mut handled = CtrlBatch::new();
        while self.ctrl.can_send() {
            let Some(msg) = self
                .ctrl
                .try_recv()
                .map_err(|_| KittenError::Ctrl("recv failed"))?
            else {
                break;
            };
            let named = |start, len| {
                PhysRange::checked(start, len)
                    .ok_or(KittenError::Ctrl("range wraps the address space"))
            };
            let ack = match msg {
                CtrlMsg::AddMem { start, len } => {
                    let range = named(start, len)?;
                    self.page_tables
                        .map(start, range.start, len, Perms::RWX, 2)?;
                    self.memmap
                        .write()
                        .add(range, RegionKind::Granted)
                        .map_err(KittenError::Invalid)?;
                    CtrlMsg::AddMemAck { start, len }
                }
                CtrlMsg::RemoveMem { start, len } => {
                    let range = named(start, len)?;
                    self.page_tables.unmap(start, len)?;
                    self.memmap
                        .write()
                        .remove(range)
                        .map_err(KittenError::Invalid)?;
                    CtrlMsg::RemoveMemAck { start, len }
                }
                CtrlMsg::Ping { token } => CtrlMsg::PingAck { token },
                CtrlMsg::Shutdown => CtrlMsg::ShutdownAck,
                _ => return Err(KittenError::Ctrl("unexpected message from host")),
            };
            self.ctrl
                .send(&ack)
                .map_err(|_| KittenError::Ctrl("send failed"))?;
            // The loop stops when the outbound ring is full, so it handles
            // at most a ring's worth: the batch has room.
            let _ = handled.push(msg);
        }
        Ok(handled)
    }

    /// Map an attached shared segment from its transmitted page-frame
    /// list, one 4 KiB page at a time — the faithful XPMEM attach path,
    /// whose cost is linear in the segment size (this linearity dominates
    /// Figure 4). The Hobbes layer calls this after the host-side mapping
    /// is ready.
    pub fn map_shared_pagelist(&self, range: PhysRange, pages: &[u64]) -> KittenResult<()> {
        for &page in pages {
            self.page_tables.map(
                page,
                covirt_simhw::addr::HostPhysAddr::new(page),
                covirt_simhw::addr::PAGE_SIZE_4K,
                Perms::RWX,
                1,
            )?;
        }
        self.memmap
            .write()
            .add(range, RegionKind::Shared)
            .map_err(KittenError::Invalid)?;
        Ok(())
    }

    /// Unmap a shared segment on detach.
    pub fn unmap_shared(&self, range: PhysRange) -> KittenResult<()> {
        self.page_tables.unmap(range.start.raw(), range.len)?;
        self.memmap
            .write()
            .remove(range)
            .map_err(KittenError::Invalid)?;
        Ok(())
    }

    /// Create a task pinned to `core`.
    pub fn spawn_task(&self, name: &str, core: CoreId) -> KittenResult<TaskId> {
        if !self.cores().contains(&core) {
            return Err(KittenError::Invalid("core not assigned to this enclave"));
        }
        let mut next = self.next_task.lock();
        let id = TaskId(*next);
        *next += 1;
        self.tasks.write().push(Task {
            id,
            name: name.to_owned(),
            core,
        });
        Ok(id)
    }

    /// Snapshot of the task table.
    pub fn tasks(&self) -> Vec<Task> {
        self.tasks.read().clone()
    }

    /// A 2 MiB-aligned allocation carved from the top of the kernel's
    /// *first boot region*, for workload arrays. Returns the identity
    /// virtual address. This models Kitten's bump-style contiguous
    /// allocator; there is no free — LWK workloads allocate once.
    pub fn alloc_contiguous(&self, bytes: u64, cursor: &mut u64) -> KittenResult<u64> {
        let boot = self
            .with_memmap(|m| {
                m.regions()
                    .iter()
                    .find(|r| r.kind == RegionKind::Boot)
                    .copied()
            })
            .ok_or(KittenError::Invalid("no boot region"))?;
        // Skip the page-table pool at the head of the region.
        let base =
            (boot.range.start.raw() + self.params.pt_pool.1).div_ceil(PAGE_SIZE_2M) * PAGE_SIZE_2M;
        let aligned = (base + *cursor).div_ceil(PAGE_SIZE_2M) * PAGE_SIZE_2M;
        let len = bytes.div_ceil(PAGE_SIZE_2M) * PAGE_SIZE_2M;
        if aligned + len > boot.range.end().raw() {
            return Err(KittenError::Invalid("enclave memory exhausted"));
        }
        *cursor = aligned + len - base;
        Ok(aligned)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use covirt_simhw::node::{NodeConfig, SimNode};
    use covirt_simhw::topology::ZoneId;
    use pisces::host::PiscesHost;
    use pisces::resources::ResourceRequest;

    fn booted() -> (Arc<PiscesHost>, Arc<pisces::Enclave>, KittenKernel) {
        let node = SimNode::new(NodeConfig::small());
        let host = PiscesHost::new(node);
        let req = ResourceRequest::new(
            vec![CoreId(1), CoreId(2)],
            vec![(ZoneId(0), 64 * 1024 * 1024)],
        );
        let enclave = host.create_enclave("e0", &req).unwrap();
        let plan = host.launch(&enclave).unwrap();
        let kernel = KittenKernel::boot(&host.node().mem, plan.pisces_params_addr).unwrap();
        (host, enclave, kernel)
    }

    #[test]
    fn boot_builds_identity_map() {
        let (_h, e, k) = booted();
        let res = e.resources();
        let first = res.mem[0];
        // An address in the middle of the assignment translates to itself.
        let probe = first.start.raw() + first.len / 2;
        assert_eq!(k.translate(probe).unwrap().raw(), probe);
        // An address outside does not.
        assert!(k.translate(first.end().raw() + 0x10_0000).is_err());
        assert_eq!(k.memmap().total_bytes(), 64 * 1024 * 1024);
    }

    #[test]
    fn grant_roundtrip_updates_map() {
        let (h, e, k) = booted();
        let range = h.add_memory(&e, ZoneId(0), 4 * 1024 * 1024).unwrap();
        // Before the kernel polls, its map is stale (no new region).
        assert!(!k.memmap().contains(range.start, 8));
        let handled = k.poll_ctrl().unwrap();
        assert_eq!(handled.len(), 1);
        assert!(k.memmap().contains(range.start, range.len));
        assert_eq!(k.translate(range.start.raw()).unwrap(), range.start);
        // The host sees the ack.
        let acks = h.process_acks(&e).unwrap();
        assert!(matches!(acks[0], CtrlMsg::AddMemAck { .. }));
    }

    #[test]
    fn remove_roundtrip_shrinks_map() {
        let (h, e, k) = booted();
        let range = h.add_memory(&e, ZoneId(0), 2 * 1024 * 1024).unwrap();
        k.poll_ctrl().unwrap();
        h.process_acks(&e).unwrap();
        h.request_remove_memory(&e, range).unwrap();
        k.poll_ctrl().unwrap();
        assert!(!k.memmap().contains(range.start, 8));
        assert!(k.translate(range.start.raw()).is_err());
        h.process_acks(&e).unwrap();
        assert!(!e.resources().mem.contains(&range));
    }

    /// Fill the host→enclave ring with pings, numbered on from `*token`.
    fn fill_with_pings(host_end: &CtrlChannel, token: &mut u64) {
        while host_end.can_send() {
            host_end.send(&CtrlMsg::Ping { token: *token }).unwrap();
            *token += 1;
        }
    }

    /// A full enclave→host ring must not cost the host an ack: the
    /// message stays queued (its effect unapplied) until the ack fits.
    #[test]
    fn full_ack_ring_defers_the_message_instead_of_losing_its_ack() {
        let (h, e, k) = booted();
        let range = h.add_memory(&e, ZoneId(0), 2 * 1024 * 1024).unwrap();
        k.poll_ctrl().unwrap();
        h.process_acks(&e).unwrap();
        // A ring of pings, answered: the acks fill the enclave→host ring.
        fill_with_pings(&e.ctrl().unwrap(), &mut 0);
        k.poll_ctrl().unwrap();
        assert!(!k.ctrl.can_send());
        h.request_remove_memory(&e, range).unwrap();

        assert_eq!(k.poll_ctrl().unwrap(), []);
        assert!(k.memmap().contains(range.start, range.len));
        assert_eq!(k.ctrl.pending(), 1);

        // The host takes the ping acks off the ring.
        h.process_acks(&e).unwrap();
        let handled = k.poll_ctrl().unwrap();
        assert!(matches!(handled[..], [CtrlMsg::RemoveMem { .. }]));
        assert!(!k.memmap().contains(range.start, 8));
        h.process_acks(&e).unwrap();
        assert!(!e.resources().mem.contains(&range));
    }

    /// Both rings full at once: the kernel takes no ping it cannot
    /// acknowledge, and once the host drains the acks it answers every
    /// ping, in order, losing none.
    #[test]
    fn two_full_rings_lose_no_ack_and_do_not_wait_on_each_other() {
        let (h, e, k) = booted();
        let host_end = e.ctrl().unwrap();
        let mut token = 0;
        fill_with_pings(&host_end, &mut token);
        assert_eq!(k.poll_ctrl().unwrap().len() as u64, token);
        let first = token;
        fill_with_pings(&host_end, &mut token);
        assert_eq!(k.poll_ctrl().unwrap(), [], "no room to acknowledge a ping");
        assert_eq!(k.ctrl.pending(), token - first);

        assert_eq!(h.process_acks(&e).unwrap().len() as u64, first);
        let pings: Vec<CtrlMsg> = (first..token).map(|t| CtrlMsg::Ping { token: t }).collect();
        assert_eq!(*k.poll_ctrl().unwrap(), pings);
        let acks: Vec<CtrlMsg> = (first..token)
            .map(|t| CtrlMsg::PingAck { token: t })
            .collect();
        assert_eq!(*h.process_acks(&e).unwrap(), acks);
    }

    #[test]
    fn ping_is_answered() {
        let (_h, e, k) = booted();
        let ctrl = e.ctrl().unwrap();
        ctrl.send(&CtrlMsg::Ping { token: 31337 }).unwrap();
        k.poll_ctrl().unwrap();
        let reply = ctrl.try_recv().unwrap().unwrap();
        assert_eq!(reply, CtrlMsg::PingAck { token: 31337 });
    }

    #[test]
    fn shared_segment_map_unmap() {
        let (h, _e, k) = booted();
        // A segment somewhere else in host memory (another enclave's
        // export).
        let seg = h
            .node()
            .mem
            .alloc_backed(ZoneId(0), 2 * 1024 * 1024, PAGE_SIZE_2M)
            .unwrap();
        let frames: Vec<u64> = (0..seg.len / 4096)
            .map(|i| seg.start.raw() + i * 4096)
            .collect();
        k.map_shared_pagelist(seg, &frames).unwrap();
        assert_eq!(k.translate(seg.start.raw()).unwrap(), seg.start);
        assert_eq!(
            k.translate(seg.end().raw() - 8).unwrap().raw() + 8,
            seg.end().raw()
        );
        assert_eq!(k.memmap().by_kind(RegionKind::Shared).len(), 1);
        k.unmap_shared(seg).unwrap();
        assert!(k.translate(seg.start.raw()).is_err());
    }

    #[test]
    fn task_spawn_respects_cores() {
        let (_h, _e, k) = booted();
        let t = k.spawn_task("app", CoreId(1)).unwrap();
        assert_eq!(t.0, 1);
        assert!(k.spawn_task("bad", CoreId(3)).is_err());
        let tasks = k.tasks();
        assert_eq!(tasks.len(), 1);
        assert_eq!((tasks[0].id, tasks[0].core), (t, CoreId(1)));
        assert_eq!(format!("{}: {}", tasks[0].id, tasks[0].name), "task1: app");
    }

    #[test]
    fn contiguous_allocator_is_bump_and_aligned() {
        let (_h, _e, k) = booted();
        let mut cursor = 0u64;
        let a = k.alloc_contiguous(1024 * 1024, &mut cursor).unwrap();
        let b = k.alloc_contiguous(1024 * 1024, &mut cursor).unwrap();
        assert_eq!(a % PAGE_SIZE_2M, 0);
        assert_eq!(b % PAGE_SIZE_2M, 0);
        assert!(b >= a + PAGE_SIZE_2M);
        // Both are inside the kernel's map and translate.
        assert!(k.translate(a).is_ok());
        assert!(k.translate(b).is_ok());
        // Exhaustion is detected.
        let mut big_cursor = 0u64;
        assert!(k.alloc_contiguous(1 << 40, &mut big_cursor).is_err());
    }
}
