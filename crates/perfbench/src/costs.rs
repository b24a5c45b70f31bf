//! The deterministic cost model: Σ(program counter × unit cost).
//!
//! Host time in this sandbox swings by tens of percent between runs; the
//! program's own counters repeat exactly. `sim_cycles_per_op` multiplies
//! each counter the layers already keep by a fixed unit cost, giving a
//! modelled time that can be compared at a 1 % bound. The model is
//! **unvalidated against hardware** (the repo holds no reference results),
//! so it orders designs by the work they do, not by a real machine's time.
//!
//! Unit costs are cycles at the paper testbed's 1.7 GHz. Changing one is a
//! change to the benchmark, never part of a change that claims a gain.

use crate::json::Value;
use covirt::controller::CovirtController;
use covirt::GuestCore;
use covirt_simhw::memory::PhysMemory;
use covirt_simhw::topology::ZoneId;

/// A TLB lookup that hits: the probe every access pays in every mode.
pub const TLB_HIT: u64 = 1;
/// A TLB lookup that misses, plus the fill after the walk (miss detection,
/// entry replacement); the walk itself is charged per load below.
pub const TLB_MISS_FILL: u64 = 8;
/// One table-entry load of a guest or EPT walk: an L2-resident load, the
/// usual home of hot paging structures.
pub const WALK_LOAD: u64 = 18;
/// A guest PT-entry load answered by the EPT walk cache (paging-structure
/// cache hit) instead of an EPT walk.
pub const WALK_CACHE_HIT: u64 = 2;
/// A physical resolve answered by the core-local region cache: a
/// generation load and a range compare.
pub const REGION_CACHE_HIT: u64 = 4;
/// A region-cache miss: snapshot pointer load, reader registration, way
/// refill — before any search step.
pub const REGION_CACHE_MISS: u64 = 12;
/// One binary-search probe of the zone snapshot on a region-cache miss.
pub const SEARCH_STEP: u64 = 6;
/// One VM exit plus the re-entry: `covirt::hypervisor::VM_TRANSITION_NS`
/// (700 ns) at 1.7 GHz.
pub const VM_EXIT_ENTRY: u64 = 1200;
/// A command doorbell noticed and acknowledged at a guest safe point.
pub const DOORBELL_HARVEST: u64 = 40;
/// One command drained and executed in guest mode (ring pop, dispatch,
/// completion store).
pub const CMD_EXECUTED: u64 = 60;
/// INVLPG-class single-page TLB invalidation.
pub const TLB_FLUSH_PAGE: u64 = 10;
/// A ranged invalidation: one sweep over the TLB sets.
pub const TLB_FLUSH_RANGE: u64 = 30;
/// A full TLB flush, including the refill pressure it causes.
pub const TLB_FLUSH_ALL: u64 = 200;
/// An IPI sent by guest code (ICR write and delivery).
pub const IPI_SENT: u64 = 100;
/// A controller broadcast shootdown: post, signal, completion wait
/// bookkeeping on the controller side.
pub const SHOOTDOWN: u64 = 150;
/// A doorbell that timed out and was escalated to an NMI kick.
pub const NMI_ESCALATION: u64 = 1500;
/// One EPT map or unmap operation issued by the controller.
pub const EPT_OP: u64 = 50;

/// The counter vector one arm of a workload accumulates: everything the
/// model charges, read from the program's own public counters. Counts the
/// wall clock drives (timer interrupts, idle polls of a spinning guest
/// thread) are left out so the vector repeats between runs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    pub tlb_hits: u64,
    pub tlb_misses: u64,
    pub tlb_page_flushes: u64,
    pub tlb_range_flushes: u64,
    pub tlb_full_flushes: u64,
    pub walks: u64,
    pub walk_loads: u64,
    pub walk_cache_hits: u64,
    pub walk_cache_misses: u64,
    pub resolve_hits: u64,
    pub resolve_misses: u64,
    /// Snapshot searches in zone 0 (every resolve no region cache served).
    pub searches: u64,
    pub search_depth: u64,
    pub snapshot_swaps: u64,
    /// VM exits not caused by the wall-clock timer.
    pub exits: u64,
    /// Timer interrupts (each is one exit under Covirt); recorded, not
    /// charged.
    pub timer_irqs: u64,
    pub doorbells: u64,
    pub harvested: u64,
    pub ipis_sent: u64,
    pub shootdowns: u64,
    pub nmi_escalations: u64,
    pub ept_maps: u64,
    pub ept_unmaps: u64,
}

macro_rules! for_each_count {
    ($m:ident) => {
        $m!(
            tlb_hits,
            tlb_misses,
            tlb_page_flushes,
            tlb_range_flushes,
            tlb_full_flushes,
            walks,
            walk_loads,
            walk_cache_hits,
            walk_cache_misses,
            resolve_hits,
            resolve_misses,
            searches,
            search_depth,
            snapshot_swaps,
            exits,
            timer_irqs,
            doorbells,
            harvested,
            ipis_sent,
            shootdowns,
            nmi_escalations,
            ept_maps,
            ept_unmaps
        )
    };
}

impl Counts {
    /// `self − earlier`, field by field (all counters are cumulative).
    pub fn since(&self, earlier: &Counts) -> Counts {
        macro_rules! sub {
            ($($f:ident),*) => { Counts { $($f: self.$f - earlier.$f),* } };
        }
        for_each_count!(sub)
    }

    /// `self + other`, field by field.
    pub fn plus(&self, other: &Counts) -> Counts {
        macro_rules! add {
            ($($f:ident),*) => { Counts { $($f: self.$f + other.$f),* } };
        }
        for_each_count!(add)
    }

    /// The vector as a JSON object, one key per counter.
    pub fn to_json(&self) -> Value {
        macro_rules! obj {
            ($($f:ident),*) => {
                Value::Object(vec![$((stringify!($f).to_owned(), Value::Number(self.$f as f64))),*])
            };
        }
        for_each_count!(obj)
    }

    /// The part of the vector a guest core owns.
    pub fn of_core(g: &GuestCore) -> Counts {
        let c = g.counters();
        let t = g.tlb_stats();
        Counts {
            tlb_hits: t.hits,
            tlb_misses: t.misses,
            tlb_page_flushes: t.page_flushes,
            tlb_range_flushes: t.range_flushes,
            tlb_full_flushes: t.full_flushes,
            walks: c.walks,
            walk_loads: c.walk_loads,
            walk_cache_hits: c.walk_cache_hits,
            walk_cache_misses: c.walk_cache_misses,
            resolve_hits: c.resolve_hits,
            resolve_misses: c.resolve_misses,
            exits: g.exit_count().saturating_sub(c.timer_irqs),
            timer_irqs: c.timer_irqs,
            doorbells: c.cmd_doorbells,
            harvested: c.cmd_harvested,
            ipis_sent: c.ipis_sent,
            ..Counts::default()
        }
    }

    /// The part the node and the controller own: zone-0 snapshot searches
    /// and swaps, shootdowns, escalations and the enclave's EPT edits.
    pub fn of_node(
        mem: &PhysMemory,
        controller: Option<&CovirtController>,
        enclave: u64,
    ) -> Counts {
        let z = mem.zone_stats(ZoneId(0)).expect("zone 0 exists");
        let mut c = Counts {
            searches: z.resolve_misses,
            search_depth: z.search_depth_total,
            snapshot_swaps: z.snapshot_swaps,
            ..Counts::default()
        };
        if let Some(ctl) = controller {
            c.shootdowns = ctl.shootdown_count();
            c.nmi_escalations = ctl.nmi_escalation_count();
            if let Some(ept) = ctl.context(enclave).ok().and_then(|v| v.ept.clone()) {
                (c.ept_maps, c.ept_unmaps) = ept.op_counts();
            }
        }
        c
    }
}

/// Modelled cycles, split by the layer group that spent them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SimCycles {
    /// TLB lookups, fills and flushes.
    pub tlb: u64,
    /// Guest and EPT walk loads, walk-cache hits.
    pub walk: u64,
    /// Region-cache hits and misses, snapshot search steps.
    pub resolve: u64,
    /// VM exits and NMI escalations.
    pub exit: u64,
    /// Doorbells, harvested commands, IPIs, shootdowns, EPT edits.
    pub control: u64,
}

impl SimCycles {
    /// Apply the unit costs to a counter vector.
    pub fn of(c: &Counts) -> SimCycles {
        SimCycles {
            tlb: c.tlb_hits * TLB_HIT
                + c.tlb_misses * TLB_MISS_FILL
                + c.tlb_page_flushes * TLB_FLUSH_PAGE
                + c.tlb_range_flushes * TLB_FLUSH_RANGE
                + c.tlb_full_flushes * TLB_FLUSH_ALL,
            walk: c.walk_loads * WALK_LOAD + c.walk_cache_hits * WALK_CACHE_HIT,
            resolve: c.resolve_hits * REGION_CACHE_HIT
                + c.resolve_misses * REGION_CACHE_MISS
                + c.search_depth * SEARCH_STEP,
            exit: c.exits * VM_EXIT_ENTRY + c.nmi_escalations * NMI_ESCALATION,
            control: c.doorbells * DOORBELL_HARVEST
                + c.harvested * CMD_EXECUTED
                + c.ipis_sent * IPI_SENT
                + c.shootdowns * SHOOTDOWN
                + (c.ept_maps + c.ept_unmaps) * EPT_OP,
        }
    }

    /// Total modelled cycles.
    pub fn total(&self) -> u64 {
        self.tlb + self.walk + self.resolve + self.exit + self.control
    }

    /// Each group's share of the total, in the order
    /// `[tlb, walk, resolve, exit, control]`; sums to 1 (all 0 when no
    /// cycle was charged).
    pub fn shares(&self) -> [f64; 5] {
        let total = self.total();
        if total == 0 {
            return [0.0; 5];
        }
        [self.tlb, self.walk, self.resolve, self.exit, self.control]
            .map(|g| g as f64 / total as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One GUPS-like update that misses the TLB once, by hand: two lookups
    /// (read misses, write hits), a nested walk of 2 guest loads + 1 EPT
    /// load with both guest entries served by the walk cache, and three
    /// region-cache hits.
    #[test]
    fn hand_computed_update() {
        let c = Counts {
            tlb_hits: 1,
            tlb_misses: 1,
            walks: 1,
            walk_loads: 3,
            walk_cache_hits: 2,
            resolve_hits: 3,
            ..Counts::default()
        };
        let s = SimCycles::of(&c);
        assert_eq!(s.tlb, 1 + 8);
        assert_eq!(s.walk, 3 * 18 + 2 * 2);
        assert_eq!(s.resolve, 3 * 4);
        assert_eq!(s.exit + s.control, 0);
        assert_eq!(s.total(), 79);
    }

    #[test]
    fn control_plane_cycle_by_hand() {
        // One grant/reclaim cycle: map + unmap, one shootdown carrying one
        // range flush, harvested at one doorbell, no exit.
        let c = Counts {
            ept_maps: 1,
            ept_unmaps: 1,
            shootdowns: 1,
            doorbells: 1,
            harvested: 1,
            tlb_range_flushes: 1,
            ..Counts::default()
        };
        let s = SimCycles::of(&c);
        assert_eq!(s.control, 40 + 60 + 150 + 2 * 50);
        assert_eq!(s.tlb, 30);
        assert_eq!(s.total(), 380);
    }

    #[test]
    fn shares_sum_to_one() {
        let c = Counts {
            tlb_hits: 1000,
            tlb_misses: 37,
            walk_loads: 211,
            walk_cache_hits: 5,
            resolve_hits: 17,
            resolve_misses: 3,
            search_depth: 27,
            exits: 2,
            doorbells: 1,
            harvested: 4,
            shootdowns: 1,
            ept_maps: 3,
            ..Counts::default()
        };
        let shares = SimCycles::of(&c).shares();
        assert!((shares.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(shares.iter().all(|&s| s > 0.0));
        assert_eq!(SimCycles::of(&Counts::default()).shares(), [0.0; 5]);
    }

    #[test]
    fn since_and_plus_are_inverse() {
        let a = Counts {
            tlb_hits: 10,
            exits: 3,
            ept_unmaps: 2,
            ..Counts::default()
        };
        let b = Counts {
            tlb_hits: 4,
            exits: 1,
            ..Counts::default()
        };
        assert_eq!(a.since(&b).plus(&b), a);
        assert_eq!(a.since(&b).tlb_hits, 6);
    }
}
