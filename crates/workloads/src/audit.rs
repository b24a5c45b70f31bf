//! Drivers for the protection-audit engine (`figures audit` and the
//! `tests/audit_engine.rs` suite): a clean protection-lifecycle run that
//! must audit violation-free, and a fault-injected run that must produce
//! an attributed violation. Both return the node with the flight
//! recorder still loaded so the caller can drain it into the engine.

use covirt_simhw::node::SimNode;
use covirt_trace::audit::{audit_events, AuditReport};
use std::sync::Arc;

use crate::scenario;

/// A finished audit-driver run.
pub struct AuditRun {
    /// The node whose recorder holds the run's events.
    pub node: Arc<SimNode>,
    /// The enclave the run exercised (the faulting one on fault runs).
    pub enclave: u64,
}

/// Clean run: a short STREAM phase (exit/attribution traffic) followed by
/// the full grant → touch-on-every-core → reclaim → per-reclaim
/// shootdown lifecycle, recorder on throughout. Every region chain must
/// complete and no invariant may fire.
pub fn clean_run() -> AuditRun {
    let world = scenario::world(2);
    world.node.recorder().set_enabled(true);
    scenario::stream_phase(&world);
    scenario::reclaim_churn(&world);
    AuditRun {
        enclave: world.enclave.id.0,
        node: Arc::clone(&world.node),
    }
}

/// Fault-injected run: the enclave hits a contained EPT violation, so the
/// recorder carries a `FaultReport` → `Teardown` chain the engine must
/// surface as a violation attributed to this enclave.
pub fn fault_run() -> AuditRun {
    let world = scenario::world(1);
    world.node.recorder().set_enabled(true);
    scenario::contained_fault(&world);
    AuditRun {
        enclave: world.enclave.id.0,
        node: Arc::clone(&world.node),
    }
}

/// Drain a node's flight recorder, with its per-lane drop counters,
/// through the protection-audit engine: the one capture-to-report call.
pub fn audit_trace(node: &SimNode) -> AuditReport {
    let (events, drops) = node.drain_trace();
    audit_events(node.clock.hz(), &events, &drops)
}
