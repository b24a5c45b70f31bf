//! Driver for the self-healing control loop (`figures selfheal`): a
//! [`Tailer`] live-tails the flight recorder with the per-lane cursor API,
//! feeds each batch through [`AuditEngine::ingest_tail`], and hands the
//! verdict to a [`RemediationPolicy`] — while the workload is still
//! running. The clean run must complete with **zero** remediation actions;
//! the fault-injected run must quarantine the faulting enclave *live*
//! (during the pump loop, not from a post-run report) and yields the
//! detection → remediation latency (MTTR).

use covirt::config::CovirtConfig;
use covirt::exec::FaultOutcome;
use covirt::ExecMode;
use covirt_simhw::node::SimNode;
use covirt_simhw::topology::{HwLayout, ZoneId};
use covirt_trace::audit::{cycles_to_ns, AuditConfig, AuditEngine};
use covirt_trace::EventKind;
use kitten::faults;
use pisces::{PiscesHost, RemediationAction, RemediationConfig, RemediationPolicy};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use crate::{stream, World};

/// How many empty pump rounds after the workload stops before the fault
/// run gives up waiting for a quarantine. The remediation must land long
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
    policy: RemediationPolicy,
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
    /// A tailer watching `enclave` on `node`, remediating through `host`.
    pub fn new(node: Arc<SimNode>, host: Arc<PiscesHost>, enclave: u64) -> Tailer {
        let hz = node.clock.hz();
        Tailer {
            engine: AuditEngine::new(AuditConfig::default(), hz),
            policy: RemediationPolicy::new(
                host,
                RemediationConfig {
                    // The clean gate demands zero actions; shedding on
                    // routine ring pressure would be a false positive.
                    shed_drop_threshold: 1_000_000,
                },
            ),
            node,
            cursors: Vec::new(),
            enclave,
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
/// workload's own poll loops. A healthy run must trigger zero actions.
pub fn clean_run() -> SelfhealReport {
    let world = World::build(
        ExecMode::Covirt(CovirtConfig::MEM),
        HwLayout { cores: 2, zones: 1 },
        96 * 1024 * 1024,
    );
    world.node.recorder().set_enabled(true);
    let ctl = Arc::clone(world.controller.as_ref().unwrap());
    ctl.set_flush_spins(50_000_000);
    let enclave = Arc::clone(&world.enclave);
    let kernel = Arc::clone(&world.kernel);
    let pisces = world.master.pisces();
    let mut tailer = Tailer::new(Arc::clone(&world.node), Arc::clone(pisces), enclave.id.0);

    // Phase 1: STREAM traffic so the loop digests real exit/attribution
    // batches, tailing as it goes.
    {
        let s = stream::Stream::setup(&world, 50_000);
        let mut g = world.guest_core(world.cores[0]).expect("guest core");
        s.init(&mut g).expect("stream init");
        s.run_once(&mut g).expect("stream kernel");
        g.shutdown(); // VMXOFF so phase 2 can relaunch this core
    }
    tailer.pump();

    // Phase 2: grant two ranges, cache them on every core, reclaim both
    // inside one epoch — pumping between every control-plane step.
    let r1 = pisces
        .add_memory(&enclave, ZoneId(0), 2 * 1024 * 1024)
        .unwrap();
    let r2 = pisces
        .add_memory(&enclave, ZoneId(0), 2 * 1024 * 1024)
        .unwrap();
    kernel.poll_ctrl().unwrap();
    pisces.process_acks(&enclave).unwrap();
    tailer.pump();

    let stop = Arc::new(AtomicBool::new(false));
    let ready = Arc::new(std::sync::Barrier::new(world.cores.len() + 1));
    let handles: Vec<_> = world
        .cores
        .iter()
        .map(|&core| {
            let mut g = world.guest_core(core).unwrap();
            let stop = Arc::clone(&stop);
            let ready = Arc::clone(&ready);
            std::thread::spawn(move || {
                g.write_u64(r1.start.raw(), 1).unwrap();
                g.write_u64(r2.start.raw(), 1).unwrap();
                ready.wait();
                while !stop.load(Ordering::Acquire) {
                    g.poll().unwrap();
                    std::hint::spin_loop();
                }
            })
        })
        .collect();
    ready.wait();

    ctl.begin_reclaim_epoch(enclave.id.0);
    for r in [r1, r2] {
        pisces.request_remove_memory(&enclave, r).unwrap();
        while enclave.resources().mem.contains(&r) {
            kernel.poll_ctrl().unwrap();
            pisces.process_acks(&enclave).unwrap();
            tailer.pump();
        }
    }
    ctl.end_reclaim_epoch(enclave.id.0).unwrap();
    stop.store(true, Ordering::Release);
    for h in handles {
        h.join().unwrap();
    }
    tailer.pump();
    tailer.into_report()
}

/// Fault-injected run: the guest hits a contained EPT violation on its
/// own thread while the main thread keeps tailing. The fault report must
/// be detected in-flight and the policy must quarantine the enclave
/// within [`FAULT_PUMP_BUDGET`] further pump rounds.
pub fn fault_run() -> SelfhealReport {
    let world = World::build(
        ExecMode::Covirt(CovirtConfig::MEM),
        HwLayout { cores: 1, zones: 1 },
        96 * 1024 * 1024,
    );
    world.node.recorder().set_enabled(true);
    let mut tailer = Tailer::new(
        Arc::clone(&world.node),
        Arc::clone(world.master.pisces()),
        world.enclave.id.0,
    );
    let kernel = Arc::clone(&world.kernel);
    let mut g = world.guest_core(world.cores[0]).expect("guest core");
    let guest = std::thread::spawn(move || g.execute_fault(faults::off_by_one_region(&kernel)));
    while !guest.is_finished() {
        tailer.pump();
        std::hint::spin_loop();
    }
    match guest.join().expect("guest thread panicked") {
        FaultOutcome::Contained(_) => {}
        o => panic!("covirt must contain the injected fault, got {o:?}"),
    }
    // Drain the tail until the quarantine lands (bounded).
    let mut spare = FAULT_PUMP_BUDGET;
    loop {
        let acted = !tailer.pump().is_empty();
        if tailer.quarantine_tsc.is_some() {
            break;
        }
        if !acted {
            spare -= 1;
            if spare == 0 {
                break;
            }
        }
    }
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
