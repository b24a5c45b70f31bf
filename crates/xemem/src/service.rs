//! The XEMEM service: export, attach and detach of shared segments, and
//! the node's one record of who shares memory with whom.
//!
//! XEMEM "provides a global view of shared memory through the use of XPMEM
//! segment IDs managed across the entire system by a node-local name
//! service"; the name registry and the segment table are one structure
//! under one lock here, so a name resolves to a live segment or not at all.
//!
//! The service allows an owner to destroy a segment while other enclaves
//! remain attached — the stale-mapping hazard of the paper's
//! XEMEM-cleanup-path anecdote — and reports who they were, so the caller
//! can cut them off before the memory is reused. [`XememService::revoke`]
//! does the same for everything a dying enclave owns.

use crate::segment::{SegmentId, SegmentInfo};
use crate::wellknown::DYNAMIC_BASE;
use crate::{XememError, XememResult};
use covirt_simhw::addr::PhysRange;
use parking_lot::RwLock;
use std::collections::{BTreeSet, HashMap};

struct SegmentRecord {
    info: SegmentInfo,
    /// Enclaves currently attached.
    attached: BTreeSet<u64>,
}

/// A destroyed segment and the enclaves that were still attached to it,
/// ascending.
pub type Revoked = (SegmentInfo, Vec<u64>);

/// Name registry and segment table, kept consistent under one lock.
#[derive(Default)]
struct Tables {
    names: HashMap<String, SegmentId>,
    segments: HashMap<SegmentId, SegmentRecord>,
    /// Segids handed out so far.
    exported: u64,
}

impl Tables {
    fn record(&mut self, segid: SegmentId) -> XememResult<&mut SegmentRecord> {
        self.segments
            .get_mut(&segid)
            .ok_or(XememError::NoSuchSegment(segid))
    }

    fn destroy(&mut self, segid: SegmentId) -> XememResult<Revoked> {
        let rec = self
            .segments
            .remove(&segid)
            .ok_or(XememError::NoSuchSegment(segid))?;
        self.names.remove(&rec.info.name);
        Ok((rec.info, rec.attached.into_iter().collect()))
    }
}

/// The node-wide shared-memory service.
#[derive(Default)]
pub struct XememService {
    tables: RwLock<Tables>,
}

impl XememService {
    /// Fresh service.
    pub fn new() -> Self {
        Self::default()
    }

    /// `xpmem_make` + name registration: export `range` owned by enclave
    /// `owner` under `name`.
    pub fn export(&self, name: &str, owner: u64, range: PhysRange) -> XememResult<SegmentId> {
        if range.len == 0 {
            return Err(XememError::Invalid("empty segment"));
        }
        let mut t = self.tables.write();
        if t.names.contains_key(name) {
            return Err(XememError::NameTaken(name.to_owned()));
        }
        let segid = SegmentId(DYNAMIC_BASE + t.exported);
        t.exported += 1;
        t.names.insert(name.to_owned(), segid);
        let info = SegmentInfo {
            segid,
            name: name.to_owned(),
            owner,
            range,
        };
        t.segments.insert(
            segid,
            SegmentRecord {
                info,
                attached: BTreeSet::new(),
            },
        );
        Ok(segid)
    }

    /// `xpmem_search`: resolve a well-known name.
    pub fn lookup(&self, name: &str) -> XememResult<SegmentId> {
        let found = self.tables.read().names.get(name).copied();
        found.ok_or_else(|| XememError::NoSuchName(name.to_owned()))
    }

    /// Segment metadata.
    pub fn info(&self, segid: SegmentId) -> XememResult<SegmentInfo> {
        let t = self.tables.read();
        let rec = t.segments.get(&segid);
        rec.map(|r| r.info.clone())
            .ok_or(XememError::NoSuchSegment(segid))
    }

    /// `xpmem_get` + `xpmem_attach`: record enclave `who` as attached and
    /// return the segment info (whose page-frame list the framework then
    /// transmits).
    pub fn attach(&self, segid: SegmentId, who: u64) -> XememResult<SegmentInfo> {
        let mut t = self.tables.write();
        let rec = t.record(segid)?;
        if rec.info.owner == who {
            return Err(XememError::OwnerAttach);
        }
        if !rec.attached.insert(who) {
            return Err(XememError::AlreadyAttached);
        }
        Ok(rec.info.clone())
    }

    /// `xpmem_detach`.
    pub fn detach(&self, segid: SegmentId, who: u64) -> XememResult<SegmentInfo> {
        let mut t = self.tables.write();
        let rec = t.record(segid)?;
        if !rec.attached.remove(&who) {
            return Err(XememError::NotAttached);
        }
        Ok(rec.info.clone())
    }

    /// `xpmem_remove`: destroy a segment and free its name. The enclaves
    /// returned with it were still attached — each is a stale mapping
    /// until the caller has cut it off.
    pub fn destroy(&self, segid: SegmentId) -> XememResult<Revoked> {
        self.tables.write().destroy(segid)
    }

    /// Enclave `who` is gone: destroy every segment it owns, returning
    /// each with the enclaves still attached to it, and drop `who` from
    /// every segment it is attached to. An enclave the service never
    /// heard of revokes nothing.
    pub fn revoke(&self, who: u64) -> Vec<Revoked> {
        let mut t = self.tables.write();
        let mut owned: Vec<SegmentId> = Vec::new();
        for (segid, rec) in t.segments.iter_mut() {
            rec.attached.remove(&who);
            if rec.info.owner == who {
                owned.push(*segid);
            }
        }
        owned.sort_unstable();
        owned
            .into_iter()
            .filter_map(|segid| t.destroy(segid).ok())
            .collect()
    }

    /// Every enclave that shares a segment with `who` — the owners of what
    /// it is attached to, and everyone attached to what it owns or is
    /// attached to — ascending, without `who` itself.
    pub fn sharers(&self, who: u64) -> Vec<u64> {
        let t = self.tables.read();
        let mut out = BTreeSet::new();
        for rec in t.segments.values() {
            if rec.info.owner == who || rec.attached.contains(&who) {
                out.insert(rec.info.owner);
                out.extend(&rec.attached);
            }
        }
        out.remove(&who);
        out.into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use covirt_simhw::addr::HostPhysAddr;

    fn range(start: u64, len: u64) -> PhysRange {
        PhysRange::new(HostPhysAddr::new(start), len)
    }

    #[test]
    fn export_lookup_attach_detach() {
        let x = XememService::new();
        let segid = x.export("dbuf", 1, range(0x100000, 0x2000)).unwrap();
        assert_eq!(x.lookup("dbuf").unwrap(), segid);
        let info = x.attach(segid, 2).unwrap();
        assert_eq!(info.range.len, 0x2000);
        assert_eq!((x.sharers(1), x.sharers(2)), (vec![2], vec![1]));
        assert!(matches!(
            x.attach(segid, 2),
            Err(XememError::AlreadyAttached)
        ));
        x.detach(segid, 2).unwrap();
        assert!(x.sharers(1).is_empty());
        assert!(matches!(x.detach(segid, 2), Err(XememError::NotAttached)));
    }

    #[test]
    fn owner_cannot_attach() {
        let x = XememService::new();
        let segid = x.export("own", 3, range(0x1000, 0x1000)).unwrap();
        assert!(matches!(x.attach(segid, 3), Err(XememError::OwnerAttach)));
    }

    #[test]
    fn clean_destroy() {
        let x = XememService::new();
        let segid = x.export("tmp", 1, range(0x1000, 0x1000)).unwrap();
        assert_eq!(x.destroy(segid).unwrap().1, Vec::<u64>::new());
        assert!(matches!(x.lookup("tmp"), Err(XememError::NoSuchName(_))));
        assert!(matches!(x.info(segid), Err(XememError::NoSuchSegment(_))));
        // Name is reusable after destroy, under a fresh segid.
        assert_ne!(x.export("tmp", 1, range(0x2000, 0x1000)).unwrap(), segid);
    }

    #[test]
    fn hazardous_destroy_reports_attachments() {
        let x = XememService::new();
        let segid = x.export("shared", 1, range(0x1000, 0x1000)).unwrap();
        x.attach(segid, 3).unwrap();
        x.attach(segid, 2).unwrap();
        let (info, leftover) = x.destroy(segid).unwrap();
        assert_eq!((info.segid, info.range), (segid, range(0x1000, 0x1000)));
        assert_eq!(leftover, vec![2, 3]);
    }

    #[test]
    fn duplicate_names_rejected() {
        let x = XememService::new();
        x.export("a", 1, range(0x1000, 0x1000)).unwrap();
        assert!(matches!(
            x.export("a", 2, range(0x2000, 0x1000)),
            Err(XememError::NameTaken(_))
        ));
    }

    #[test]
    fn segids_unique_and_dynamic() {
        let x = XememService::new();
        let a = x.export("a", 1, range(0x1000, 0x1000)).unwrap();
        let b = x.export("b", 1, range(0x2000, 0x1000)).unwrap();
        assert_ne!(a, b);
        assert!(a.0 >= DYNAMIC_BASE && b.0 >= DYNAMIC_BASE);
    }

    /// A dead owner takes its segments with it: names free, attachers
    /// reported per segment, nobody left sharing with it.
    #[test]
    fn revoke_destroys_what_the_owner_exported_and_names_its_attachers() {
        let x = XememService::new();
        let both = x.export("both", 1, range(0x1000, 0x1000)).unwrap();
        let none = x.export("none", 1, range(0x2000, 0x1000)).unwrap();
        x.attach(both, 3).unwrap();
        x.attach(both, 2).unwrap();
        let revoked = x.revoke(1);
        let ids: Vec<_> = revoked.iter().map(|(i, a)| (i.segid, a.clone())).collect();
        assert_eq!(ids, vec![(both, vec![2, 3]), (none, vec![])]);
        for name in ["both", "none"] {
            assert!(matches!(x.lookup(name), Err(XememError::NoSuchName(_))));
        }
        assert!(matches!(
            x.attach(both, 4),
            Err(XememError::NoSuchSegment(_))
        ));
        assert!(x.sharers(1).is_empty() && x.sharers(2).is_empty());
    }

    /// A dead attacher leaves every segment it was attached to; the
    /// segments and their other attachers stay.
    #[test]
    fn revoke_drops_an_attacher_from_every_segment() {
        let x = XememService::new();
        let a = x.export("a", 1, range(0x1000, 0x1000)).unwrap();
        let b = x.export("b", 2, range(0x2000, 0x1000)).unwrap();
        for seg in [a, b] {
            x.attach(seg, 3).unwrap();
        }
        x.attach(a, 4).unwrap();
        assert_eq!(x.sharers(3), vec![1, 2, 4]);
        assert!(x.revoke(3).is_empty());
        assert_eq!((x.sharers(1), x.sharers(2)), (vec![4], vec![]));
        assert!(matches!(x.detach(a, 3), Err(XememError::NotAttached)));
        assert_eq!(x.lookup("b").unwrap(), b);
    }

    #[test]
    fn revoke_of_an_unknown_enclave_changes_nothing() {
        let x = XememService::new();
        let a = x.export("a", 1, range(0x1000, 0x1000)).unwrap();
        x.attach(a, 2).unwrap();
        assert!(x.revoke(9).is_empty());
        assert_eq!(x.sharers(1), vec![2]);
        assert_eq!(x.lookup("a").unwrap(), a);
    }
}
