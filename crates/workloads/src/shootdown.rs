//! The coalesced reclaim-epoch shootdown harness (`figures shootdown`,
//! `trace`, `report`, and the bench suite): grant two ranges, cache their
//! translations on every live core, reclaim both inside one epoch so a
//! single broadcast shootdown closes both lifecycles, and return the
//! per-core TLB/walk-cache statistics plus the node (recorder still
//! loaded) for trace/metrics export.

use covirt::exec::CoreCounters;
use covirt_simhw::node::SimNode;
use covirt_simhw::tlb::TlbStats;
use std::sync::Arc;

use crate::scenario;

/// One core's counters after the epoch closed.
pub struct CoreStats {
    /// Simulated core id.
    pub core: usize,
    /// TLB hit/miss/flush statistics.
    pub tlb: TlbStats,
    /// Exit/walk-cache counters.
    pub counters: CoreCounters,
}

/// A finished shootdown run.
pub struct ShootdownRun {
    /// The node whose recorder (if enabled) holds the run's events.
    pub node: Arc<SimNode>,
    /// Broadcast shootdowns the controller issued (the coalescing claim:
    /// one epoch, two reclaims, one broadcast).
    pub shootdowns: u64,
    /// Per-core statistics, core order.
    pub cores: Vec<CoreStats>,
}

/// Run the demo. With `trace` the node's flight recorder runs for the
/// whole workload so callers can export the timeline and metrics.
pub fn run(trace: bool) -> ShootdownRun {
    let world = scenario::world(2);
    if trace {
        world.node.recorder().set_enabled(true);
    }
    let churn = scenario::reclaim_churn(&world, &mut || {});
    let cores = churn
        .cores
        .iter()
        .map(|g| {
            g.publish_metrics();
            CoreStats {
                core: g.core,
                tlb: g.tlb_stats(),
                counters: g.counters(),
            }
        })
        .collect();
    ShootdownRun {
        shootdowns: churn.shootdowns,
        cores,
        node: Arc::clone(&world.node),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_coalesces_to_one_broadcast() {
        let r = run(false);
        assert_eq!(r.shootdowns, 1, "2 reclaims in one epoch -> 1 broadcast");
        assert_eq!(r.cores.len(), 2);
        for c in &r.cores {
            assert!(
                c.tlb.range_flushes + c.tlb.full_flushes + c.tlb.page_flushes > 0,
                "core {} never flushed",
                c.core
            );
        }
    }
}
