//! The host-side Pisces framework: enclave creation, dynamic resource
//! assignment, and teardown/fault reclamation.
//!
//! `PiscesHost` models the Pisces Linux kernel module plus the host-side
//! management process. It owns the node's resource bookkeeping (the host
//! Linux "has" everything an enclave was not given), runs the hook chain
//! around every resource event, and drives the control channels.

use crate::boot::{BootParams, BootPlan};
use crate::ctrlchan::{CtrlBatch, CtrlChannel, CtrlMsg, CTRL_SLOTS};
use crate::enclave::{Enclave, EnclaveId, EnclaveState};
use crate::hooks::EnclaveHooks;
use crate::resources::{ResourceRequest, ResourceSpec};
use crate::{PiscesError, PiscesResult};
use covirt_simhw::addr::{PhysRange, PAGE_SIZE_2M, PAGE_SIZE_4K};
use covirt_simhw::node::SimNode;
use covirt_simhw::topology::ZoneId;
use parking_lot::{Mutex, RwLock};
use std::collections::{BTreeMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// First dynamically allocatable IPI vector (below are legacy/exception
/// vectors and fixed OS vectors).
pub const VECTOR_POOL_FIRST: u8 = 0x40;
/// Last dynamically allocatable IPI vector.
pub const VECTOR_POOL_LAST: u8 = 0xbf;

/// The head of the management region: the boot-parameter record, which
/// must fit this page.
const BOOT_PARAMS_LEN: u64 = PAGE_SIZE_4K;
/// Size of an enclave's management region: what it carries, the
/// boot-parameter page and then the control channel.
const MGMT_REGION_LEN: u64 = BOOT_PARAMS_LEN + CtrlChannel::required_bytes();
/// Replies one enclave may have parked (see `PiscesHost::reply`): as many
/// as its ring holds again. The enclave decides how many syscalls it
/// forwards without polling, so the host bounds what it keeps for it.
const MAX_PARKED_REPLIES: usize = CTRL_SLOTS as usize;
/// Why an enclave whose enclave→host ring the host cannot read failed.
const CORRUPT_CHANNEL: &str = "control channel corrupt";
/// Why a request for an IPI vector failed.
const NO_VECTORS: &str = "IPI vector pool exhausted";
/// Of the enclave's first region, how much is designated as page-table pool.
const PT_POOL_LEN: u64 = 16 * 1024 * 1024;

/// The host-side framework instance.
pub struct PiscesHost {
    node: Arc<SimNode>,
    enclaves: RwLock<BTreeMap<u64, Arc<Enclave>>>,
    hooks: RwLock<Vec<Arc<dyn EnclaveHooks>>>,
    next_id: AtomicU64,
    assigned_cores: Mutex<HashSet<usize>>,
    vector_pool: Mutex<VecDeque<u8>>,
    /// Where a fault the host finds itself goes first (see
    /// [`PiscesHost::set_fault_path`]).
    fault_path: RwLock<Option<FaultPath>>,
}

/// The fault path of a layer above the host: called with the failed
/// enclave's id and the reason.
type FaultPath = Arc<dyn Fn(u64, &str) + Send + Sync>;

impl PiscesHost {
    /// Load the framework onto a node. Core 0 is reserved for the host OS.
    pub fn new(node: Arc<SimNode>) -> Arc<Self> {
        Arc::new(PiscesHost {
            node,
            enclaves: RwLock::new(BTreeMap::new()),
            hooks: RwLock::new(Vec::new()),
            next_id: AtomicU64::new(1),
            assigned_cores: Mutex::new(HashSet::from([0])),
            vector_pool: Mutex::new((VECTOR_POOL_FIRST..=VECTOR_POOL_LAST).collect()),
            fault_path: RwLock::new(None),
        })
    }

    /// The node this framework manages.
    pub fn node(&self) -> &Arc<SimNode> {
        &self.node
    }

    /// Register a hook set (Covirt's controller registers here).
    pub fn register_hooks(&self, hooks: Arc<dyn EnclaveHooks>) {
        self.hooks.write().push(hooks);
    }

    /// Send a fault the host finds itself — a control ring it cannot
    /// read — down `path`, the fault path of the layer that owns the
    /// policy, instead of straight to [`PiscesHost::report_fault`]. Hobbes
    /// installs its failure handler, which also tells the enclave's
    /// sharers; Covirt installs its containment report, which logs the
    /// fault and goes on to Hobbes. The last one installed is called.
    pub fn set_fault_path(&self, path: impl Fn(u64, &str) + Send + Sync + 'static) {
        *self.fault_path.write() = Some(Arc::new(path));
    }

    /// Fail `enclave` for a fault the host found: down the fault path,
    /// then here, which does nothing more if the path failed it.
    fn fail(&self, enclave: &Enclave, reason: &str) -> PiscesResult<()> {
        let path = self.fault_path.read().clone();
        if let Some(path) = path {
            path(enclave.id.0, reason);
        }
        self.report_fault(enclave, reason)
    }

    fn run_hooks<T>(&self, f: impl Fn(&dyn EnclaveHooks) -> PiscesResult<T>) -> PiscesResult<()> {
        for h in self.hooks.read().iter() {
            f(h.as_ref())?;
        }
        Ok(())
    }

    /// Look up an enclave that has not been reclaimed.
    pub fn enclave(&self, id: EnclaveId) -> PiscesResult<Arc<Enclave>> {
        self.enclaves
            .read()
            .get(&id.0)
            .cloned()
            .ok_or(PiscesError::NoSuchEnclave(id.0))
    }

    /// Every enclave that has not been reclaimed, by id. A dead enclave
    /// leaves when its partition has gone back to the node; whoever still
    /// holds its handle keeps the record.
    pub fn enclaves(&self) -> Vec<Arc<Enclave>> {
        self.enclaves.read().values().cloned().collect()
    }

    /// Create an enclave: claim cores, allocate (and populate) memory,
    /// allocate IPI vectors, set up the control channel and boot
    /// parameters. The enclave is left in `Loaded` state. A request that
    /// fails part-way hands back everything it had claimed.
    pub fn create_enclave(&self, name: &str, req: &ResourceRequest) -> PiscesResult<Arc<Enclave>> {
        // What has been claimed so far, for `release` on any failure.
        let mut spec = ResourceSpec::new();
        let mut mgmt = None;
        let loaded = self.claim_and_load(name, req, &mut spec, &mut mgmt);
        if loaded.is_err() {
            let _ = self.release(&spec, mgmt);
        }
        loaded
    }

    /// The body of [`PiscesHost::create_enclave`]: every resource is
    /// recorded in `spec`/`mgmt` the moment it is claimed, so the caller
    /// can release exactly that much when this returns early.
    fn claim_and_load(
        &self,
        name: &str,
        req: &ResourceRequest,
        spec: &mut ResourceSpec,
        mgmt: &mut Option<PhysRange>,
    ) -> PiscesResult<Arc<Enclave>> {
        {
            let mut assigned = self.assigned_cores.lock();
            for c in &req.cores {
                if c.0 >= self.node.topology.total_cores() {
                    return Err(PiscesError::Invalid("core does not exist"));
                }
                if assigned.contains(&c.0) {
                    return Err(PiscesError::ResourceBusy("core already assigned".into()));
                }
            }
            assigned.extend(req.cores.iter().map(|c| c.0));
            spec.cores = req.cores.clone();
        }

        // Management region (boot params + control channel) is allocated
        // *before* the enclave's general-purpose memory so that the page
        // after the enclave's last region is never framework-owned — a
        // wild off-by-one access from the co-kernel lands in genuinely
        // foreign memory.
        let mgmt_zone = req
            .mem_per_zone
            .first()
            .map(|&(z, _)| z)
            .unwrap_or(ZoneId(0));
        // The allocation hands back the window every boot structure below
        // (and every hook's, through the enclave) is placed with.
        let mgmt_window = self
            .node
            .mem
            .alloc_window(mgmt_zone, MGMT_REGION_LEN, PAGE_SIZE_4K)?;
        let mgmt = *mgmt.insert(mgmt_window.range());

        // Allocate memory, 2 MiB-aligned so identity maps coalesce.
        for &(zone, bytes) in &req.mem_per_zone {
            let r = self.node.mem.alloc_backed(zone, bytes, PAGE_SIZE_2M)?;
            if let Err(e) = spec.add_mem(r) {
                // Not in `spec`, so not the caller's to release.
                let _ = self.node.mem.free(r);
                return Err(PiscesError::Invalid(e));
            }
        }
        if spec.mem.is_empty() {
            return Err(PiscesError::Invalid(
                "enclave needs at least one memory region",
            ));
        }

        // Allocate IPI vectors.
        {
            let mut pool = self.vector_pool.lock();
            if pool.len() < req.num_ipi_vectors {
                return Err(PiscesError::ResourceBusy(NO_VECTORS.into()));
            }
            spec.ipi_vectors.extend(pool.drain(..req.num_ipi_vectors));
        }

        let id = EnclaveId(self.next_id.fetch_add(1, Ordering::Relaxed));
        let enclave = Arc::new(Enclave::new(
            id,
            name.to_owned(),
            spec.clone(),
            mgmt_window.clone(),
        ));

        // The control channel follows the boot-parameter page.
        let chan_len = CtrlChannel::required_bytes();
        let chan_base = mgmt.start.add(BOOT_PARAMS_LEN);
        let mut chan = mgmt_window
            .sub(PhysRange::new(chan_base, chan_len))
            .ok()
            .and_then(|w| CtrlChannel::create(&w).ok())
            .ok_or(PiscesError::Invalid("control channel setup failed"))?;
        chan.set_tracer(self.node.controller_tracer().with_enclave(id.0));
        enclave.set_ctrl(chan);

        // Boot parameters at the head of the management region.
        let first = spec.mem[0];
        let params = BootParams {
            enclave_id: id.0,
            cores: spec.cores.iter().map(|c| c.0 as u64).collect(),
            mem_regions: spec.mem.iter().map(|r| (r.start.raw(), r.len)).collect(),
            ctrlchan_base: chan_base.raw(),
            ctrlchan_len: chan_len,
            pt_pool: (first.start.raw(), PT_POOL_LEN.min(first.len / 4)),
            tsc_hz: self.node.topology.tsc_hz,
        };
        // A record the page does not hold is refused whole, and with it
        // the request.
        let page = mgmt_window.sub(PhysRange::new(mgmt.start, BOOT_PARAMS_LEN))?;
        params.write_to(&page, enclave.params_addr())?;

        enclave
            .transition(&[EnclaveState::Created], EnclaveState::Loaded)
            .map_err(|_| PiscesError::BadState {
                enclave: id.0,
                op: "load",
            })?;
        self.enclaves.write().insert(id.0, Arc::clone(&enclave));
        Ok(enclave)
    }

    /// Hand a partition and its management region back to the node.
    /// Everything is released even if one range is refused; the first
    /// refusal is reported.
    fn release(&self, res: &ResourceSpec, mgmt: Option<PhysRange>) -> PiscesResult<()> {
        let mut freed = Ok(());
        for r in res.mem.iter().chain(&mgmt) {
            freed = freed.and(self.node.mem.free(*r));
        }
        {
            let mut assigned = self.assigned_cores.lock();
            for c in &res.cores {
                assigned.remove(&c.0);
            }
        }
        self.vector_pool.lock().extend(&res.ipi_vectors);
        freed.map_err(PiscesError::Hw)
    }

    /// Launch: run the hook chain (Covirt builds the enclave's
    /// virtualization context here) and mark the enclave running. The
    /// caller then boots the enclave's cores with the returned plan.
    pub fn launch(&self, enclave: &Enclave) -> PiscesResult<BootPlan> {
        let bad_state = PiscesError::BadState {
            enclave: enclave.id.0,
            op: "launch",
        };
        // Fail fast before the hooks build anything; the transition below
        // is what decides, so a teardown racing the hooks is not undone.
        if enclave.state() != EnclaveState::Loaded {
            return Err(bad_state);
        }
        if enclave.resources().cores.is_empty() {
            return Err(PiscesError::Invalid("enclave has no cores"));
        }
        self.run_hooks(|h| h.on_launch(enclave))?;
        enclave
            .transition(&[EnclaveState::Loaded], EnclaveState::Running)
            .map_err(|_| bad_state)?;
        Ok(BootPlan {
            pisces_params_addr: enclave.params_addr(),
        })
    }

    /// Grant additional memory to a running enclave.
    ///
    /// Ordering (the Covirt contract): allocate → **hook** (EPT map) →
    /// record in the partition → transmit the page list to the co-kernel.
    pub fn add_memory(
        &self,
        enclave: &Enclave,
        zone: ZoneId,
        bytes: u64,
    ) -> PiscesResult<PhysRange> {
        if !enclave.state().is_live() {
            return Err(PiscesError::BadState {
                enclave: enclave.id.0,
                op: "add_memory",
            });
        }
        let range = self.node.mem.alloc_backed(zone, bytes, PAGE_SIZE_2M)?;
        if let Err(e) = self.run_hooks(|h| h.on_mem_add_prepared(enclave, range)) {
            let _ = self.node.mem.free(range);
            return Err(e);
        }
        if let Err(e) = enclave.with_resources_mut(|r| r.add_mem(range)) {
            if self.abort_grant(enclave, range).is_ok() {
                let _ = self.node.mem.free(range);
            }
            return Err(PiscesError::Invalid(e));
        }
        let sent = enclave
            .ctrl()
            .ok_or(PiscesError::Invalid("no control channel"))
            .and_then(|ctrl| {
                ctrl.send(&CtrlMsg::AddMem {
                    start: range.start.raw(),
                    len: range.len,
                })
                .map_err(|_| PiscesError::ResourceBusy("control channel full".into()))
            });
        if let Err(e) = sent {
            // Out of the partition only once no core caches it, else for the
            // teardown to return; whoever takes it out frees it, and a
            // teardown racing this grant may already have.
            if self.abort_grant(enclave, range).is_ok()
                && enclave.with_resources_mut(|r| r.remove_mem(range)).is_ok()
            {
                let _ = self.node.mem.free(range);
            }
            return Err(e);
        }
        Ok(range)
    }

    /// Undo a grant the hooks prepared but the co-kernel was never told
    /// of: the layers drop their mappings — and whatever the enclave's
    /// cores cached of them, since a kernel that strays can reach memory it
    /// never heard of once it is mapped. Every hook runs; an error says a
    /// core may still cache the range, which then goes to no one.
    fn abort_grant(&self, enclave: &Enclave, range: PhysRange) -> PiscesResult<()> {
        let mut aborted = Ok(());
        for h in self.hooks.read().iter() {
            aborted = aborted.and(h.on_mem_add_aborted(enclave, range));
        }
        aborted
    }

    /// Ask the enclave to give a region back. Completion happens when the
    /// co-kernel acks and [`PiscesHost::process_acks`] handles it; the
    /// range is recorded as outstanding first, so that ack is expected.
    pub fn request_remove_memory(&self, enclave: &Enclave, range: PhysRange) -> PiscesResult<()> {
        if !enclave.state().is_live() {
            return Err(PiscesError::BadState {
                enclave: enclave.id.0,
                op: "remove_memory",
            });
        }
        if !enclave.with_resources(|r| r.mem.contains(&range)) {
            return Err(PiscesError::Invalid(
                "region is not assigned to the enclave",
            ));
        }
        let ctrl = enclave
            .ctrl()
            .ok_or(PiscesError::Invalid("no control channel"))?;
        let recorded = {
            let mut removals = enclave.removals.lock();
            let new = !removals.contains(&range);
            if new {
                removals.push(range);
            }
            new
        };
        let sent = ctrl.send(&CtrlMsg::RemoveMem {
            start: range.start.raw(),
            len: range.len,
        });
        if sent.is_err() && recorded {
            enclave.removals.lock().retain(|r| *r != range);
        }
        sent.map_err(|_| PiscesError::ResourceBusy("control channel full".into()))
    }

    /// Handle pending enclave→host control messages, at most one ring's
    /// worth per call. Returns the messages that were processed, held
    /// inline: a call allocates nothing per message.
    ///
    /// The ring is the co-kernel's to write: a `RemoveMemAck` counts only
    /// if it names a range [`PiscesHost::request_remove_memory`] asked for,
    /// and the hooks get the host's record of it; any other is refused
    /// before a hook runs. A ring the host cannot read — a cursor claiming
    /// more than it holds, a slot that is no message — fails the enclave
    /// down the fault path ([`PiscesHost::set_fault_path`]); a dead
    /// enclave's ring, whose memory may be another's by then, is not read
    /// again.
    ///
    /// `RemoveMemAck` ordering (the Covirt contract): ack received →
    /// **hook** (EPT unmap + TLB flush, blocking) → partition shrinks →
    /// memory returns to the host allocator. A failed hook (a core that
    /// never acknowledged the flush) leaves the removal pending and the
    /// range in the partition, for the teardown to return.
    pub fn process_acks(&self, enclave: &Enclave) -> PiscesResult<CtrlBatch> {
        if !EnclaveState::NOT_DEAD.contains(&enclave.state()) {
            return Err(PiscesError::BadState {
                enclave: enclave.id.0,
                op: "process_acks",
            });
        }
        let ctrl = enclave
            .ctrl()
            .ok_or(PiscesError::Invalid("no control channel"))?;
        // Replies an earlier call had no ring slot for go first.
        Self::send_parked(&mut enclave.parked_replies.lock(), &ctrl);
        let mut handled = CtrlBatch::new();
        for _ in 0..CTRL_SLOTS {
            let msg = match ctrl.try_recv() {
                Ok(Some(msg)) => msg,
                Ok(None) => break,
                Err(_) => {
                    self.fail(enclave, CORRUPT_CHANNEL)?;
                    return Err(PiscesError::Invalid(CORRUPT_CHANNEL));
                }
            };
            match &msg {
                CtrlMsg::RemoveMemAck { start, len } => {
                    // A range that wraps was never asked for.
                    let acked = PhysRange::checked(*start, *len);
                    let taken = {
                        let mut removals = enclave.removals.lock();
                        let i = removals.iter().position(|r| Some(*r) == acked);
                        i.map(|i| removals.swap_remove(i))
                    };
                    let range = taken.ok_or(PiscesError::Invalid("removal not asked for"))?;
                    if let Err(e) = self.run_hooks(|h| h.on_mem_remove_acked(enclave, range)) {
                        enclave.removals.lock().push(range);
                        return Err(e);
                    }
                    enclave
                        .with_resources_mut(|r| r.remove_mem(range))
                        .map_err(PiscesError::Invalid)?;
                    self.node.mem.free(range)?;
                }
                CtrlMsg::AddMemAck { .. } | CtrlMsg::PingAck { .. } | CtrlMsg::ShutdownAck => {}
                CtrlMsg::Syscall { nr, arg0, arg1 } => {
                    // Forwarded syscalls are executed "on the host" — the
                    // model simply answers; real work is in the hobbes
                    // layer.
                    let _ = (arg0, arg1);
                    Self::reply(enclave, &ctrl, CtrlMsg::SyscallRet { nr: *nr, ret: 0 })?;
                }
                other => {
                    return Err(PiscesError::Invalid(match other {
                        CtrlMsg::AddMem { .. } => "unexpected AddMem from enclave",
                        CtrlMsg::RemoveMem { .. } => "unexpected RemoveMem from enclave",
                        _ => "unexpected message from enclave",
                    }))
                }
            }
            // At most `CTRL_SLOTS` messages: the batch has room.
            let _ = handled.push(msg);
        }
        Ok(handled)
    }

    /// Send parked replies, oldest first, while the host→enclave ring
    /// takes them.
    fn send_parked(parked: &mut VecDeque<CtrlMsg>, ctrl: &CtrlChannel) {
        while parked.front().is_some_and(|r| ctrl.send(r).is_ok()) {
            parked.pop_front();
        }
    }

    /// Answer a message already taken off the enclave→host ring. The reply
    /// queues behind any the host→enclave ring had no room for and goes
    /// out as soon as the ring takes it — at once, or from a later
    /// [`PiscesHost::process_acks`]: the host keeps draining, so a
    /// co-kernel that defers its polls until it can acknowledge them (it
    /// takes no message while its own ring is full) always gets that room,
    /// and the two full rings never wait on each other. An enclave that
    /// lets [`MAX_PARKED_REPLIES`] pile up is refused further answers.
    fn reply(enclave: &Enclave, ctrl: &CtrlChannel, msg: CtrlMsg) -> PiscesResult<()> {
        let mut parked = enclave.parked_replies.lock();
        if parked.len() >= MAX_PARKED_REPLIES {
            return Err(PiscesError::ResourceBusy(
                "enclave is not draining its control channel".into(),
            ));
        }
        parked.push_back(msg);
        Self::send_parked(&mut parked, ctrl);
        Ok(())
    }

    /// Allocate an IPI vector for the enclave from the global pool.
    pub fn alloc_vector(&self, enclave: &Enclave) -> PiscesResult<u8> {
        let v = self
            .vector_pool
            .lock()
            .pop_front()
            .ok_or(PiscesError::ResourceBusy(NO_VECTORS.into()))?;
        if let Err(e) = self.run_hooks(|h| h.on_vector_alloc(enclave, v)) {
            self.vector_pool.lock().push_front(v);
            return Err(e);
        }
        enclave.with_resources_mut(|r| r.ipi_vectors.push(v));
        Ok(v)
    }

    /// Return a vector to the pool (hook first: the whitelist shrinks
    /// before the vector can be re-assigned).
    pub fn free_vector(&self, enclave: &Enclave, vector: u8) -> PiscesResult<()> {
        if !enclave.resources().has_vector(vector) {
            return Err(PiscesError::Invalid("vector not allocated to enclave"));
        }
        self.run_hooks(|h| h.on_vector_free(enclave, vector))?;
        enclave.with_resources_mut(|r| r.ipi_vectors.retain(|&x| x != vector));
        self.vector_pool.lock().push_back(vector);
        Ok(())
    }

    /// Run the teardown hooks, return everything the enclave holds to the
    /// node, then forget the enclave. Called only by the caller whose
    /// [`Enclave::transition`] killed the enclave; taking the spec under
    /// the resource lock leaves nothing for anyone else to free.
    ///
    /// A teardown hook may block on other enclaves' cores and may end one
    /// of those enclaves through this same path, so the hooks run on a
    /// copy of the chain with no lock of the host held.
    fn reclaim(&self, enclave: &Enclave) -> PiscesResult<()> {
        let hooks = self.hooks.read().clone();
        for h in &hooks {
            h.on_teardown(enclave);
        }
        let res = enclave.with_resources_mut(std::mem::take);
        let freed = self.release(&res, Some(enclave.mgmt_region));
        // Last, so that a hook can still look the enclave up; with the
        // record goes the host's hold on its management window and
        // control channel.
        self.enclaves.write().remove(&enclave.id.0);
        freed
    }

    /// Orderly teardown: `Terminated`, hooks, reclaim.
    pub fn teardown(&self, enclave: &Enclave) -> PiscesResult<()> {
        enclave
            .transition(&EnclaveState::NOT_DEAD, EnclaveState::Terminated)
            .map_err(|_| PiscesError::BadState {
                enclave: enclave.id.0,
                op: "teardown",
            })?;
        self.reclaim(enclave)
    }

    /// Fault path: the hypervisor (or host policy) killed the enclave.
    /// Resources are reclaimed, the state records the reason, and the rest
    /// of the node keeps running — the isolation property Covirt provides.
    /// Of racing reports (and a racing teardown) one does the work; the
    /// others return `Ok` at once, possibly before it has finished — as
    /// does a report for an enclave already reclaimed, through a handle
    /// that outlived it.
    pub fn report_fault(&self, enclave: &Enclave, reason: impl Into<Arc<str>>) -> PiscesResult<()> {
        match enclave.transition(&EnclaveState::NOT_DEAD, EnclaveState::Failed(reason.into())) {
            Ok(_) => self.reclaim(enclave),
            Err(_) => Ok(()), // already dead; double reports are harmless
        }
    }

    /// Begin an orderly shutdown: ask the co-kernel to quiesce over the
    /// control channel. Completion is the `ShutdownAck` handled by
    /// [`PiscesHost::process_acks`]; callers then invoke
    /// [`PiscesHost::teardown`].
    pub fn request_shutdown(&self, enclave: &Enclave) -> PiscesResult<()> {
        match enclave.transition(&[EnclaveState::Running], EnclaveState::ShuttingDown) {
            // A repeated request while the first is pending asks again.
            Ok(_) | Err(EnclaveState::ShuttingDown) => {}
            Err(_) => {
                return Err(PiscesError::BadState {
                    enclave: enclave.id.0,
                    op: "shutdown",
                })
            }
        }
        let ctrl = enclave
            .ctrl()
            .ok_or(PiscesError::Invalid("no control channel"))?;
        ctrl.send(&CtrlMsg::Shutdown)
            .map_err(|_| PiscesError::ResourceBusy("control channel full".into()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use covirt_simhw::node::NodeConfig;
    use covirt_simhw::topology::CoreId;

    fn host() -> Arc<PiscesHost> {
        PiscesHost::new(SimNode::new(NodeConfig::small()))
    }

    impl PiscesHost {
        /// Cores currently assigned (including core 0 = host), ascending.
        fn assigned_cores(&self) -> Vec<usize> {
            let mut v: Vec<usize> = self.assigned_cores.lock().iter().copied().collect();
            v.sort_unstable();
            v
        }

        /// Number of free vectors remaining in the global pool.
        fn free_vector_count(&self) -> usize {
            self.vector_pool.lock().len()
        }
    }

    fn small_req() -> ResourceRequest {
        ResourceRequest::new(
            vec![CoreId(1), CoreId(2)],
            vec![(ZoneId(0), 32 * 1024 * 1024)],
        )
    }

    /// The co-kernel's end of `e`'s control channel, found the way a
    /// kernel finds it: from the boot parameters' address alone.
    fn enclave_end(h: &PiscesHost, e: &Enclave) -> CtrlChannel {
        let mgmt = h.node().mem.window_from(e.mgmt_region.start).unwrap();
        let bp = BootParams::read_from(&mgmt, mgmt.base()).unwrap();
        let chan = PhysRange::checked(bp.ctrlchan_base, bp.ctrlchan_len).unwrap();
        CtrlChannel::attach_enclave(&mgmt.sub(chan).unwrap()).unwrap()
    }

    #[test]
    fn create_assigns_resources() {
        let h = host();
        let e = h.create_enclave("e0", &small_req()).unwrap();
        assert_eq!(e.state(), EnclaveState::Loaded);
        let res = e.resources();
        assert_eq!(res.cores, vec![CoreId(1), CoreId(2)]);
        assert_eq!(res.mem_bytes(), 32 * 1024 * 1024);
        assert_eq!(res.ipi_vectors.len(), 4);
        // Boot params are readable from memory.
        let bp = BootParams::read_from(e.mgmt(), e.params_addr()).unwrap();
        assert_eq!(bp.enclave_id, e.id.0);
        assert_eq!(bp.mem_regions.len(), 1);
    }

    #[test]
    fn core_conflicts_rejected() {
        let h = host();
        let _e = h.create_enclave("e0", &small_req()).unwrap();
        let err = h.create_enclave("e1", &small_req()).unwrap_err();
        assert!(matches!(err, PiscesError::ResourceBusy(_)));
        // Core 0 is the host's.
        let err = h
            .create_enclave(
                "e2",
                &ResourceRequest::new(vec![CoreId(0)], vec![(ZoneId(0), 1024 * 1024)]),
            )
            .unwrap_err();
        assert!(matches!(err, PiscesError::ResourceBusy(_)));
    }

    /// The last resource a request claims is its vectors; refused there,
    /// the cores and memory it already held go back through the one
    /// release path.
    #[test]
    fn create_refused_at_the_vector_pool_changes_nothing() {
        let h = host();
        let state = || {
            (
                h.assigned_cores(),
                h.node().mem.zone_usage(ZoneId(0)).unwrap(),
                h.free_vector_count(),
            )
        };
        let before = state();
        let mut req = small_req();
        req.num_ipi_vectors = before.2 + 1;
        let err = h.create_enclave("greedy", &req).unwrap_err();
        assert!(matches!(err, PiscesError::ResourceBusy(_)), "{err}");
        assert_eq!(state(), before);
        assert!(h.enclaves().is_empty());
        // The same cores and memory are there for a request that fits.
        h.create_enclave("modest", &small_req()).unwrap();
    }

    #[test]
    fn launch_requires_loaded() {
        let h = host();
        let e = h.create_enclave("e0", &small_req()).unwrap();
        let plan = h.launch(&e).unwrap();
        // The kernel finds its parameters where the plan says.
        let mgmt = h.node().mem.window_from(plan.pisces_params_addr).unwrap();
        let bp = BootParams::read_from(&mgmt, plan.pisces_params_addr).unwrap();
        assert_eq!(bp.cores, vec![1, 2]);
        assert_eq!(e.state(), EnclaveState::Running);
        assert!(matches!(h.launch(&e), Err(PiscesError::BadState { .. })));
    }

    #[test]
    fn an_enclave_without_cores_does_not_launch() {
        let h = host();
        let req = ResourceRequest::new(vec![], vec![(ZoneId(0), 4 * 1024 * 1024)]);
        let e = h.create_enclave("coreless", &req).unwrap();
        assert!(matches!(h.launch(&e), Err(PiscesError::Invalid(_))));
        assert_eq!(e.state(), EnclaveState::Loaded);
    }

    #[test]
    fn add_memory_transmits_to_enclave() {
        let h = host();
        let e = h.create_enclave("e0", &small_req()).unwrap();
        h.launch(&e).unwrap();
        let range = h.add_memory(&e, ZoneId(0), 4 * 1024 * 1024).unwrap();
        assert!(e.resources().mem.contains(&range));
        // The grant is visible on the enclave side of the channel.
        let chan = enclave_end(&h, &e);
        let msg = chan.try_recv().unwrap().unwrap();
        assert_eq!(
            msg,
            CtrlMsg::AddMem {
                start: range.start.raw(),
                len: range.len
            }
        );
    }

    #[test]
    fn remove_memory_completes_on_ack() {
        let h = host();
        let e = h.create_enclave("e0", &small_req()).unwrap();
        h.launch(&e).unwrap();
        let range = h.add_memory(&e, ZoneId(0), 2 * 1024 * 1024).unwrap();
        h.request_remove_memory(&e, range).unwrap();
        // Enclave side acks.
        let chan = enclave_end(&h, &e);
        // Drain the AddMem + RemoveMem notifications, then ack removal.
        while chan.try_recv().unwrap().is_some() {}
        chan.send(&CtrlMsg::RemoveMemAck {
            start: range.start.raw(),
            len: range.len,
        })
        .unwrap();
        let handled = h.process_acks(&e).unwrap();
        assert_eq!(handled.len(), 1);
        assert!(!e.resources().mem.contains(&range));
    }

    /// A full host→enclave ring must not cost the co-kernel its syscall
    /// return: the host still takes the `Syscall` (it never stops
    /// draining), keeps the reply on the enclave and sends it, in order,
    /// once the ring has room.
    #[test]
    fn full_command_ring_parks_syscall_replies_instead_of_losing_them() {
        let h = host();
        let e = h.create_enclave("e0", &small_req()).unwrap();
        h.launch(&e).unwrap();
        let guest = enclave_end(&h, &e);
        let host_end = e.ctrl().unwrap();
        while host_end.can_send() {
            host_end.send(&CtrlMsg::Ping { token: 7 }).unwrap();
        }
        for nr in [60, 61] {
            let call = CtrlMsg::Syscall {
                nr,
                arg0: 1,
                arg1: 2,
            };
            guest.send(&call).unwrap();
            assert_eq!(h.process_acks(&e).unwrap(), [call]);
        }
        // Nothing fitted yet, and nothing was dropped.
        assert_eq!(guest.pending(), crate::ctrlchan::CTRL_SLOTS);
        assert_eq!(e.parked_replies.lock().len(), 2);

        while let Some(msg) = guest.try_recv().unwrap() {
            assert_eq!(msg, CtrlMsg::Ping { token: 7 });
        }
        assert_eq!(h.process_acks(&e).unwrap(), []);
        for nr in [60, 61] {
            assert_eq!(
                guest.try_recv().unwrap(),
                Some(CtrlMsg::SyscallRet { nr, ret: 0 })
            );
        }
        assert!(e.parked_replies.lock().is_empty());
    }

    /// How many syscalls go unanswered is the enclave's choice, so what the
    /// host keeps for it is bounded: past one ring's worth of parked
    /// replies the next syscall is refused, and polling clears the refusal.
    #[test]
    fn parked_replies_are_bounded_per_enclave() {
        let h = host();
        let e = h.create_enclave("e0", &small_req()).unwrap();
        h.launch(&e).unwrap();
        let guest = enclave_end(&h, &e);
        let call = CtrlMsg::Syscall {
            nr: 60,
            arg0: 0,
            arg1: 0,
        };
        // One ring of replies sent, one ring's worth parked.
        for _ in 0..2 * crate::ctrlchan::CTRL_SLOTS {
            guest.send(&call).unwrap();
            h.process_acks(&e).unwrap();
        }
        assert_eq!(e.parked_replies.lock().len(), MAX_PARKED_REPLIES);
        guest.send(&call).unwrap();
        let err = h.process_acks(&e).unwrap_err();
        assert!(matches!(err, PiscesError::ResourceBusy(_)), "{err}");

        while guest.try_recv().unwrap().is_some() {}
        guest.send(&call).unwrap();
        assert_eq!(h.process_acks(&e).unwrap(), [call]);
        let mut returns = 0;
        while guest.try_recv().unwrap().is_some() {
            returns += 1;
        }
        assert_eq!(returns, MAX_PARKED_REPLIES);
        assert_eq!(e.parked_replies.lock().len(), 1);
    }

    #[test]
    fn vector_lifecycle() {
        let h = host();
        let e = h.create_enclave("e0", &small_req()).unwrap();
        let before = h.free_vector_count();
        let v = h.alloc_vector(&e).unwrap();
        assert!(e.resources().has_vector(v));
        assert_eq!(h.free_vector_count(), before - 1);
        h.free_vector(&e, v).unwrap();
        assert!(!e.resources().has_vector(v));
        assert_eq!(h.free_vector_count(), before);
        assert!(h.free_vector(&e, 0x3f).is_err());
    }

    #[test]
    fn teardown_releases_everything() {
        let h = host();
        let e = h.create_enclave("e0", &small_req()).unwrap();
        h.launch(&e).unwrap();
        let cores_before = h.assigned_cores().len();
        h.teardown(&e).unwrap();
        assert_eq!(e.state(), EnclaveState::Terminated);
        assert_eq!(h.assigned_cores().len(), cores_before - 2);
        assert!(h.enclaves().is_empty());
        assert!(matches!(
            h.enclave(e.id),
            Err(PiscesError::NoSuchEnclave(_))
        ));
        // Memory is reusable: a same-size enclave can be created.
        let e2 = h.create_enclave("e1", &small_req()).unwrap();
        assert_eq!(e2.state(), EnclaveState::Loaded);
        // Double teardown is an error.
        assert!(h.teardown(&e).is_err());
    }

    #[test]
    fn fault_reclaims_and_records() {
        let h = host();
        let e = h.create_enclave("e0", &small_req()).unwrap();
        h.launch(&e).unwrap();
        h.report_fault(&e, "ept violation at 0xdead0000").unwrap();
        match e.state() {
            EnclaveState::Failed(msg) => assert!(msg.contains("ept violation")),
            s => panic!("expected Failed, got {s:?}"),
        }
        // Idempotent, through the handle that outlived the host's record.
        assert!(h.enclaves().is_empty());
        h.report_fault(&e, "again").unwrap();
        // Other enclaves can be created afterwards — the node survived.
        let e2 = h.create_enclave("e1", &small_req()).unwrap();
        assert_eq!(e2.state(), EnclaveState::Loaded);
    }

    /// A ring the host cannot read fails its enclave down the installed
    /// fault path; with no path, or one that leaves the enclave alive, the
    /// host fails it itself. Either way it is reclaimed once.
    #[test]
    fn a_corrupt_ring_fails_its_enclave_with_or_without_a_fault_path() {
        for installed in [false, true] {
            let h = host();
            let told = Arc::new(Mutex::new(Vec::new()));
            if installed {
                let told = Arc::clone(&told);
                h.set_fault_path(move |id, why| told.lock().push((id, why.to_owned())));
            }
            let in_use = || h.node().mem.zone_usage(ZoneId(0)).unwrap().1;
            let before = in_use();
            let e = h.create_enclave("e0", &small_req()).unwrap();
            h.launch(&e).unwrap();
            // The enclave→host ring is the channel's second half; the tail
            // is its header's fourth word.
            let ring = MGMT_REGION_LEN - CtrlChannel::required_bytes() / 2;
            let tail = e.mgmt_region.start.add(ring + 24);
            let mem = &h.node().mem;
            mem.write_u64(tail, mem.read_u64(tail).unwrap() + (1 << 16))
                .unwrap();
            assert!(h.process_acks(&e).is_err());
            assert_eq!(e.state(), EnclaveState::Failed(CORRUPT_CHANNEL.into()));
            assert_eq!(in_use(), before);
            let expected = match installed {
                true => vec![(e.id.0, CORRUPT_CHANNEL.to_owned())],
                false => vec![],
            };
            assert_eq!(*told.lock(), expected);
        }
    }

    /// Dead is absorbing at the host API too: no lifecycle call moves a
    /// failed enclave, and none reclaims its partition a second time.
    #[test]
    fn shutdown_request_cannot_revive_a_failed_enclave() {
        let h = host();
        let in_use = || h.node().mem.zone_usage(ZoneId(0)).unwrap().1;
        let before = in_use();
        let e = h.create_enclave("e0", &small_req()).unwrap();
        h.launch(&e).unwrap();
        h.report_fault(&e, "ept violation").unwrap();
        assert_eq!(in_use(), before);
        for r in [h.request_shutdown(&e), h.teardown(&e)] {
            assert!(matches!(r, Err(PiscesError::BadState { .. })), "{r:?}");
        }
        assert!(matches!(h.launch(&e), Err(PiscesError::BadState { .. })));
        assert_eq!(e.state(), EnclaveState::Failed("ept violation".into()));
        assert_eq!(in_use(), before, "a dead enclave was reclaimed again");
    }

    /// The host's map was the last thing holding a dead enclave: once the
    /// caller lets go too, the record goes. Its management range is
    /// unpopulated by then and the zone's usage is back where it started —
    /// the window the record held is onto the zone's RAM, so dropping it
    /// frees nothing more.
    #[test]
    fn a_torn_down_enclave_is_freed_when_its_last_handle_drops() {
        let h = host();
        let mem = &h.node().mem;
        let in_use = || mem.zone_usage(ZoneId(0)).unwrap().1;
        let start = in_use();
        for orderly in [true, false] {
            let e = h.create_enclave("e0", &small_req()).unwrap();
            h.launch(&e).unwrap();
            let record = Arc::downgrade(&e);
            let mgmt = e.mgmt_region;
            match orderly {
                true => h.teardown(&e).unwrap(),
                false => h.report_fault(&e, "ept violation").unwrap(),
            }
            assert!(mem.resolve(mgmt.start, 8).is_err(), "orderly={orderly}");
            assert_eq!(in_use(), start, "orderly={orderly}");
            drop(e);
            assert!(record.upgrade().is_none(), "orderly={orderly}");
        }
    }

    /// Two threads end one enclave at the same moment — fault report
    /// against fault report, and fault report against teardown. Exactly one
    /// of them may run the hooks and reclaim; the node must get everything
    /// back exactly once (the allocator asserts on a double free).
    #[test]
    fn racing_fault_reports_and_teardown_reclaim_exactly_once() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Barrier;

        #[derive(Default)]
        struct CountTeardowns(AtomicUsize);
        impl EnclaveHooks for CountTeardowns {
            fn on_teardown(&self, _e: &Enclave) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }

        let h = host();
        let hooks = Arc::new(CountTeardowns::default());
        h.register_hooks(Arc::clone(&hooks) as Arc<dyn EnclaveHooks>);
        let in_use = || h.node().mem.zone_usage(ZoneId(0)).unwrap().1;
        let (in_use_before, vectors_before, cores_before) =
            (in_use(), h.free_vector_count(), h.assigned_cores());

        for round in 0..200 {
            let e = h.create_enclave("victim", &small_req()).unwrap();
            h.launch(&e).unwrap();
            h.add_memory(&e, ZoneId(0), 2 * 1024 * 1024).unwrap();
            let orderly = round % 2 == 1;
            let start = Barrier::new(2);
            let (fault, other) = std::thread::scope(|s| {
                let fault = s.spawn(|| {
                    start.wait();
                    h.report_fault(&e, "raced fault")
                });
                let other = s.spawn(|| {
                    start.wait();
                    if orderly {
                        h.teardown(&e)
                    } else {
                        // The same fault reported again from another core,
                        // as Hobbes' failure handler does.
                        h.report_fault(&e, "raced second report")
                    }
                });
                (fault.join().unwrap(), other.join().unwrap())
            });
            // A fault report never fails; a teardown that lost the race
            // finds the enclave dead.
            fault.unwrap();
            match (other, e.state()) {
                (Ok(()), _) | (Err(PiscesError::BadState { .. }), EnclaveState::Failed(_)) => {}
                (r, state) => panic!("round {round}: {r:?} with the enclave {state:?}"),
            }
            assert_eq!(hooks.0.load(Ordering::Relaxed), round + 1, "one winner");
            assert!(e.resources().mem.is_empty());
            assert_eq!(in_use(), in_use_before, "round {round}: zone usage");
            assert_eq!(h.free_vector_count(), vectors_before);
            assert_eq!(h.assigned_cores(), cores_before);
        }
    }

    #[test]
    fn hook_veto_aborts_grant() {
        struct Veto;
        impl EnclaveHooks for Veto {
            fn on_mem_add_prepared(&self, _e: &Enclave, _r: PhysRange) -> PiscesResult<()> {
                Err(PiscesError::Vetoed("test"))
            }
        }
        let h = host();
        let e = h.create_enclave("e0", &small_req()).unwrap();
        h.launch(&e).unwrap();
        h.register_hooks(Arc::new(Veto));
        let before = e.resources().mem_bytes();
        assert!(matches!(
            h.add_memory(&e, ZoneId(0), 1024 * 1024),
            Err(PiscesError::Vetoed(_))
        ));
        assert_eq!(
            e.resources().mem_bytes(),
            before,
            "vetoed grant must not stick"
        );
    }

    /// The launch hook runs on a loaded enclave before it is marked
    /// running, and a refusal leaves it loaded.
    #[test]
    fn launch_hook_runs_before_the_enclave_runs_and_may_refuse() {
        use std::sync::atomic::AtomicBool;

        struct Interpose(AtomicBool);
        impl EnclaveHooks for Interpose {
            fn on_launch(&self, e: &Enclave) -> PiscesResult<()> {
                assert_eq!(e.state(), EnclaveState::Loaded);
                match self.0.load(Ordering::Relaxed) {
                    true => Ok(()),
                    false => Err(PiscesError::Vetoed("no context")),
                }
            }
        }
        let h = host();
        let hook = Arc::new(Interpose(AtomicBool::new(false)));
        h.register_hooks(Arc::clone(&hook) as Arc<dyn EnclaveHooks>);
        let e = h.create_enclave("e0", &small_req()).unwrap();
        assert!(matches!(h.launch(&e), Err(PiscesError::Vetoed(_))));
        assert_eq!(e.state(), EnclaveState::Loaded);
        hook.0.store(true, Ordering::Relaxed);
        assert_eq!(h.launch(&e).unwrap().pisces_params_addr, e.params_addr());
        assert_eq!(e.state(), EnclaveState::Running);
    }
}
