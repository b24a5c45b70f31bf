//! Driver for the self-healing control loop (`figures selfheal`): a
//! [`Tailer`] live-tails the flight recorder with the per-lane cursor API,
//! feeds each batch through [`AuditEngine::ingest_tail`], and hands the
//! verdict to a [`RemediationPolicy`] — while the workload is still
//! running. The clean run must complete with **zero** remediation actions;
//! the fault-injected run must quarantine the faulting enclave *live*
//! (during the pump loop, not from a post-run report) and yields the
//! detection → remediation latency (MTTR).

use covirt_simhw::node::SimNode;
use covirt_trace::audit::{AuditConfig, AuditEngine};
use covirt_trace::{cycles_to_ns, EventKind};
use pisces::{RemediationAction, RemediationConfig, RemediationPolicy};
use std::sync::Arc;

use crate::{scenario, World};

/// How many empty pump rounds after the workload stops before a fault run
/// gives up waiting for a quarantine. The remediation must land long
/// before this: the verdict that carries the fault report is the one that
/// quarantines.
const FAULT_PUMP_BUDGET: u32 = 64;

/// What a selfheal run did.
pub struct SelfhealReport {
    /// The enclave the run exercised (the faulting one on fault runs).
    pub enclave: u64,
    /// Every remediation action taken, in order.
    pub actions: Vec<RemediationAction>,
    /// Non-empty tail batches pumped.
    pub batches: u64,
    /// Events delivered through the cursor API.
    pub events: u64,
    /// Events the rings lapped before delivery.
    pub dropped: u64,
    /// Fault-report → quarantine latency in wall-clock ns (`None` when no
    /// fault was seen, i.e. on clean runs).
    pub mttr_ns: Option<u64>,
    /// Events ingested from the batch carrying the fault report up to and
    /// including the batch whose verdict quarantined the enclave. The
    /// bounded-detection gate: remediation may not trail the evidence.
    pub events_to_remediate: u64,
    /// True when the quarantine fired from a live tail verdict while
    /// pumping (always how this harness remediates; recorded for the
    /// gate's benefit).
    pub quarantined_live: bool,
}

impl SelfhealReport {
    /// Whether the attributed enclave was quarantined.
    pub fn quarantined(&self) -> bool {
        self.actions
            .iter()
            .any(|a| matches!(a, RemediationAction::Quarantine { enclave, .. } if *enclave == self.enclave))
    }
}

/// Live tail pump: recorder cursors → audit engine → remediation policy.
pub struct Tailer {
    node: Arc<SimNode>,
    engine: AuditEngine,
    /// The policy the verdicts go to (the profile harness attaches the
    /// profiler to it).
    pub(crate) policy: RemediationPolicy,
    cursors: Vec<u64>,
    enclave: u64,
    batches: u64,
    events: u64,
    dropped: u64,
    /// TSC of the first fault report attributed to the watched enclave.
    fault_tsc: Option<u64>,
    /// Wall-clock TSC when the policy quarantined it.
    quarantine_tsc: Option<u64>,
    events_to_remediate: u64,
}

impl Tailer {
    /// A tailer watching `world`'s workload enclave, judging by `config`
    /// and remediating through the world's Pisces host. Switches the
    /// flight recorder on: there is nothing to tail otherwise.
    pub fn new(world: &World, config: AuditConfig) -> Tailer {
        let node = Arc::clone(&world.node);
        node.recorder().set_enabled(true);
        Tailer {
            engine: AuditEngine::new(config, node.clock.hz()),
            policy: RemediationPolicy::new(
                Arc::clone(world.master.pisces()),
                RemediationConfig {
                    // The clean gate demands zero actions; shedding on
                    // routine ring pressure would be a false positive.
                    shed_drop_threshold: 1_000_000,
                },
            ),
            node,
            cursors: Vec::new(),
            enclave: world.enclave.id.0,
            batches: 0,
            events: 0,
            dropped: 0,
            fault_tsc: None,
            quarantine_tsc: None,
            events_to_remediate: 0,
        }
    }

    /// Tail one batch from every lane and feed it through the loop.
    /// Returns the actions this batch triggered.
    pub fn pump(&mut self) -> Vec<RemediationAction> {
        let (events, dropped) = self.node.recorder().tail_all(&mut self.cursors);
        if events.is_empty() && dropped == 0 {
            return Vec::new();
        }
        self.batches += 1;
        self.events += events.len() as u64;
        self.dropped += dropped;
        if self.fault_tsc.is_none() {
            self.fault_tsc = events
                .iter()
                .find(|e| e.kind == EventKind::FaultReport && e.enclave == Some(self.enclave))
                .map(|e| e.tsc);
        }
        if self.fault_tsc.is_some() && self.quarantine_tsc.is_none() {
            self.events_to_remediate += events.len() as u64;
        }
        let verdict = self.engine.ingest_tail(&events, dropped);
        let actions = self.policy.apply(&verdict);
        if self.quarantine_tsc.is_none()
            && actions
                .iter()
                .any(|a| matches!(a, RemediationAction::Quarantine { enclave, .. } if *enclave == self.enclave))
        {
            self.quarantine_tsc = Some(self.node.clock.rdtsc());
        }
        actions
    }

    /// Drain the tail until the watched enclave's quarantine lands, giving
    /// up after [`FAULT_PUMP_BUDGET`] rounds that triggered nothing.
    pub(crate) fn pump_until_quarantined(&mut self) {
        let mut idle = 0;
        while idle < FAULT_PUMP_BUDGET {
            if self.pump().is_empty() {
                idle += 1;
            }
            if self.quarantine_tsc.is_some() {
                break;
            }
        }
    }

    /// Close the loop and summarize.
    pub fn into_report(self) -> SelfhealReport {
        let hz = self.node.clock.hz();
        SelfhealReport {
            enclave: self.enclave,
            actions: self.policy.log().to_vec(),
            batches: self.batches,
            events: self.events,
            dropped: self.dropped,
            mttr_ns: match (self.fault_tsc, self.quarantine_tsc) {
                (Some(f), Some(q)) => Some(cycles_to_ns(q.saturating_sub(f), hz)),
                _ => None,
            },
            events_to_remediate: self.events_to_remediate,
            quarantined_live: self.quarantine_tsc.is_some(),
        }
    }
}

/// Clean run: the full STREAM + grant → touch → epoch-reclaim lifecycle of
/// the audit driver, but tailed *live* — the pump interleaves with the
/// workload's own poll loops, between every control-plane step. A healthy
/// run must trigger zero actions.
pub fn clean_run() -> SelfhealReport {
    let world = scenario::world(2);
    let mut tailer = Tailer::new(&world, AuditConfig::default());
    scenario::stream_phase(&world);
    tailer.pump();
    scenario::reclaim_churn(&world, &mut || {
        tailer.pump();
    });
    tailer.into_report()
}

/// Fault-injected run: the guest hits a contained EPT violation on its
/// own thread while the main thread keeps tailing. The fault report must
/// be detected in-flight and the policy must quarantine the enclave
/// within `FAULT_PUMP_BUDGET` further idle pump rounds.
pub fn fault_run() -> SelfhealReport {
    let world = scenario::world(1);
    let mut tailer = Tailer::new(&world, AuditConfig::default());
    scenario::contained_fault(&world, &mut || {
        tailer.pump();
    });
    tailer.pump_until_quarantined();
    tailer.into_report()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_run_takes_no_actions() {
        let r = clean_run();
        assert!(
            r.actions.is_empty(),
            "clean run must not remediate, took: {:?}",
            r.actions
        );
        assert!(r.events > 0, "tailer must have seen the run's events");
        assert!(r.mttr_ns.is_none());
    }

    #[test]
    fn fault_run_quarantines_live_with_finite_mttr() {
        let r = fault_run();
        assert!(r.quarantined(), "faulting enclave must be quarantined");
        assert!(
            r.quarantined_live,
            "remediation must fire from the live tail"
        );
        let mttr = r.mttr_ns.expect("fault run must measure MTTR");
        assert!(mttr > 0);
        assert!(
            r.events_to_remediate <= 512,
            "remediation trailed the fault by {} events",
            r.events_to_remediate
        );
    }

    /// The guest's containment path and the tailer's remediation report the
    /// same fault from two threads; whichever loses must leave the reclaim
    /// to the other (a double free panics in the allocator).
    #[test]
    fn fault_run_survives_its_racing_fault_reports() {
        for run in 0..50 {
            assert!(fault_run().quarantined(), "run {run}");
        }
    }
}
