//! The per-reclaim shootdown harness (`figures shootdown`, `trace`,
//! `report`, and the bench suite): grant two ranges, cache their
//! translations on every live core, reclaim them one after the other —
//! each with its own broadcast shootdown, complete before its frames go
//! back — and return the stopped cores (their counters are read where
//! they live) plus the node (recorder still loaded) for the trace
//! exporters and the audit engine.

use covirt::GuestCore;
use covirt_simhw::node::SimNode;
use std::sync::Arc;

use crate::scenario;

/// A finished shootdown run.
pub struct ShootdownRun {
    /// The node whose recorder (if enabled) holds the run's events.
    pub node: Arc<SimNode>,
    /// Broadcast shootdowns the controller issued: one per reclaim, 2.
    pub shootdowns: u64,
    /// Doorbells that went unanswered past the escalation bound and were
    /// demoted to an NMI kick (0 when every core harvested in guest mode).
    pub nmi_escalations: u64,
    /// The enclave's cores in rank order, stopped: `counters()`,
    /// `tlb_stats()` and `exit_count()` hold what the run cost each.
    pub cores: Vec<GuestCore>,
}

/// Run the demo. With `trace` the node's flight recorder runs for the
/// whole workload so callers can export the timeline and audit it.
pub fn run(trace: bool) -> ShootdownRun {
    let world = scenario::world(2);
    if trace {
        world.node.recorder().set_enabled(true);
    }
    let churn = scenario::reclaim_churn(&world);
    ShootdownRun {
        shootdowns: churn.shootdowns,
        nmi_escalations: world
            .controller
            .as_ref()
            .expect("covirt world")
            .nmi_escalation_count(),
        cores: churn.cores,
        node: Arc::clone(&world.node),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_reclaim_is_one_broadcast() {
        let r = run(false);
        assert_eq!(r.shootdowns, 2, "2 reclaims -> 2 broadcasts");
        assert_eq!(r.cores.len(), 2);
        for g in &r.cores {
            let tlb = g.tlb_stats();
            assert!(
                tlb.range_flushes + tlb.full_flushes > 0,
                "core {} never flushed",
                g.core
            );
        }
    }

    /// The count vocabulary and the event vocabulary agree: on one traced
    /// run, the counts the components keep and the latencies the audit
    /// engine buckets out of the event stream describe the same facts.
    /// The run's escalation bound is the scripted run's, so only the
    /// completion deadline ends a wait and no wall-clock kick turns a
    /// doorbell into an NMI on a busy host.
    #[test]
    fn component_counts_and_audited_events_agree_on_one_run() {
        use crate::audit::audit_trace;

        let world = scenario::world(2);
        world.node.recorder().set_enabled(true);
        let ctl = world.controller.as_ref().expect("covirt world");
        ctl.set_escalation_bound_ns(u64::MAX >> 1);
        let churn = scenario::reclaim_churn(&world);
        let report = audit_trace(&world.node);
        assert!(report.ok(), "violations: {:?}", report.violations);
        assert!(!report.evidence_incomplete, "notes: {:?}", report.notes);
        assert_eq!(report.regions.len(), 2);
        assert!(report.regions.iter().all(|l| l.state() == "synced"));

        assert_eq!(report.enclaves.len(), 1, "one enclave ran");
        let s = report.enclaves.values().next().expect("enclave row");
        let exits: u64 = churn.cores.iter().map(GuestCore::exit_count).sum();
        let harvested: u64 = churn.cores.iter().map(|g| g.counters().cmd_harvested).sum();
        assert_eq!(s.exit_ns.count, exits);
        assert_eq!(s.shootdown_rtt_ns.count, churn.shootdowns);
        // Every command was delivered by doorbell and drained in guest
        // mode, so the harvest count is the completion count.
        assert_eq!(ctl.nmi_escalation_count(), 0);
        assert_eq!(s.cmd_latency_ns.count, harvested);
        assert!(harvested > 0);

        // That run takes no VM exit, so its exit identity is 0 == 0. Pin
        // it where it is not: three CPUID exits on one core.
        let world = scenario::world(1);
        world.node.recorder().set_enabled(true);
        let mut g = world.guest_core(world.cores[0]).expect("guest core");
        for _ in 0..3 {
            g.cpuid(0).expect("cpuid exit");
        }
        let report = audit_trace(&world.node);
        let s = &report.enclaves[&world.enclave.id.0];
        assert_eq!(g.exit_count(), 3);
        assert_eq!(s.exit_ns.count, 3);
        assert!(s.exit_ns.quantile(0.99) > 0);
    }
}
