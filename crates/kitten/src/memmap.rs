//! The kernel's internal memory map — its *belief* about what it owns.
//!
//! Pisces co-kernels voluntarily restrict themselves to the regions in this
//! map; nothing in hardware enforces it. Covirt's whole premise is that
//! this belief can diverge from the actual assignment (stale shared
//! segments, error-path bugs), so the map supports deliberately
//! inconsistent states via [`MemMap::corrupt_extend`].

use covirt_simhw::addr::{HostPhysAddr, PhysRange};

/// Why a region is in the map (useful for debugging and for the
/// fault-injection scenarios).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RegionKind {
    /// Assigned at boot.
    Boot,
    /// Granted dynamically by the host.
    Granted,
    /// An attached shared-memory (XEMEM) segment.
    Shared,
    /// Injected by a fault scenario — the kernel *believes* it owns this
    /// but was never assigned it.
    Corrupt,
}

/// One mapped region.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MappedRegion {
    /// The physical range (identity-mapped, so also the virtual range).
    pub range: PhysRange,
    /// Provenance.
    pub kind: RegionKind,
}

/// The kernel's memory map.
#[derive(Clone, Debug, Default)]
pub struct MemMap {
    regions: Vec<MappedRegion>,
}

impl MemMap {
    /// Empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert a region; overlapping an existing region is rejected (the
    /// kernel's own bookkeeping is consistent even when its *content* is
    /// stale relative to the host).
    pub fn add(&mut self, range: PhysRange, kind: RegionKind) -> Result<(), &'static str> {
        if range.len == 0 {
            return Err("empty region");
        }
        if self.regions.iter().any(|r| r.range.overlaps(&range)) {
            return Err("overlaps existing region");
        }
        self.insert(MappedRegion { range, kind });
        Ok(())
    }

    /// Insert `region` in start order.
    fn insert(&mut self, region: MappedRegion) {
        let at = self
            .regions
            .partition_point(|r| r.range.start <= region.range.start);
        self.regions.insert(at, region);
    }

    /// Remove a region by exact range.
    pub fn remove(&mut self, range: PhysRange) -> Result<MappedRegion, &'static str> {
        match self.regions.iter().position(|r| r.range == range) {
            Some(i) => Ok(self.regions.remove(i)),
            None => Err("region not in map"),
        }
    }

    /// True if `[addr, addr+len)` is fully inside one mapped region.
    pub fn contains(&self, addr: HostPhysAddr, len: u64) -> bool {
        self.regions
            .iter()
            .any(|r| r.range.covers(&PhysRange::new(addr, len)))
    }

    /// All regions, ordered by start.
    pub fn regions(&self) -> &[MappedRegion] {
        &self.regions
    }

    /// Total mapped bytes.
    pub fn total_bytes(&self) -> u64 {
        self.regions.iter().map(|r| r.range.len).sum()
    }

    /// Fault injection: extend the map with a region the kernel was *not*
    /// assigned. Subsequent accesses look legitimate to the kernel but are
    /// violations to the hypervisor.
    pub fn corrupt_extend(&mut self, range: PhysRange) {
        // Bypass overlap checking deliberately only against corrupt
        // entries; a corrupt region overlapping a real one would be
        // indistinguishable from a real mapping.
        self.insert(MappedRegion {
            range,
            kind: RegionKind::Corrupt,
        });
    }

    /// Regions of a given kind.
    pub fn by_kind(&self, kind: RegionKind) -> Vec<MappedRegion> {
        self.regions
            .iter()
            .filter(|r| r.kind == kind)
            .copied()
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(start: u64, len: u64) -> PhysRange {
        PhysRange::new(HostPhysAddr::new(start), len)
    }

    #[test]
    fn add_contains_remove() {
        let mut m = MemMap::new();
        m.add(r(0x1000, 0x1000), RegionKind::Boot).unwrap();
        m.add(r(0x4000, 0x1000), RegionKind::Granted).unwrap();
        assert!(m.contains(HostPhysAddr::new(0x1800), 8));
        assert!(!m.contains(HostPhysAddr::new(0x3000), 8));
        assert_eq!(m.total_bytes(), 0x2000);
        let removed = m.remove(r(0x1000, 0x1000)).unwrap();
        assert_eq!(removed.kind, RegionKind::Boot);
        assert!(m.remove(r(0x1000, 0x1000)).is_err());
    }

    #[test]
    fn overlap_rejected() {
        let mut m = MemMap::new();
        m.add(r(0x1000, 0x2000), RegionKind::Boot).unwrap();
        assert!(m.add(r(0x2000, 0x2000), RegionKind::Granted).is_err());
        assert!(m.add(r(0, 0), RegionKind::Boot).is_err());
    }

    #[test]
    fn contains_requires_full_coverage() {
        let mut m = MemMap::new();
        m.add(r(0x1000, 0x1000), RegionKind::Boot).unwrap();
        assert!(m.contains(HostPhysAddr::new(0x1800), 0x800));
        assert!(!m.contains(HostPhysAddr::new(0x1800), 0x1000));
    }

    #[test]
    fn corrupt_extend_bypasses_assignment() {
        let mut m = MemMap::new();
        m.add(r(0x1000, 0x1000), RegionKind::Boot).unwrap();
        m.corrupt_extend(r(0x8000, 0x1000));
        assert!(m.contains(HostPhysAddr::new(0x8000), 8));
        assert_eq!(m.by_kind(RegionKind::Corrupt).len(), 1);
    }

    #[test]
    fn regions_sorted() {
        let mut m = MemMap::new();
        m.add(r(0x4000, 0x1000), RegionKind::Boot).unwrap();
        m.add(r(0x1000, 0x1000), RegionKind::Boot).unwrap();
        let starts: Vec<u64> = m.regions().iter().map(|x| x.range.start.raw()).collect();
        assert_eq!(starts, vec![0x1000, 0x4000]);
    }
}
