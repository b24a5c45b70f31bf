//! End-to-end protection-audit proofs: the clean lifecycle workload must
//! stream through the engine violation-free with complete chains, the
//! fault-injected workload must produce a violation attributed to the
//! faulting enclave, and a teardown with no cause of its own is an
//! orphan attributed to the enclave torn down. Mirrors what the
//! `figures audit` CI smoke runs.

use covirt_suite::pisces::resources::ResourceRequest;
use covirt_suite::simhw::topology::{CoreId, ZoneId};
use covirt_suite::trace::audit::{audit_events, ViolationKind};
use covirt_suite::trace::{EventKind, Recorder, Tracer};
use covirt_suite::workloads::audit::{audit_trace, clean_run, fault_run};
use covirt_suite::workloads::scenario;
use std::sync::Arc;

#[test]
fn clean_run_is_violation_free_with_complete_lifecycles() {
    let run = clean_run();
    let (events, drops) = run.node.drain_trace();
    let report = audit_events(run.node.clock.hz(), &events, &drops);

    assert!(
        report.ok(),
        "clean run must audit violation-free, got: {:?}",
        report
            .violations
            .iter()
            .map(|v| (&v.kind, &v.detail))
            .collect::<Vec<_>>()
    );
    assert!(
        !report.evidence_incomplete,
        "clean run must not drop events"
    );

    // Both granted ranges completed the full grant → reclaim →
    // shootdown-synced chain, attributed to the workload enclave.
    assert_eq!(report.regions.len(), 2);
    for r in &report.regions {
        assert!(r.complete(), "incomplete region lifecycle: {r:?}");
        assert_eq!(r.enclave, Some(run.enclave));
    }
    // Every posted command chain completed.
    assert!(!report.commands.is_empty());
    assert!(report.commands.iter().all(|c| c.complete()));

    // The enclave shows up in the attribution rollup with exit and
    // shootdown samples and no faults.
    let stats = report
        .enclaves
        .get(&run.enclave)
        .expect("clean run must attribute events to its enclave");
    assert_eq!(stats.faults, 0);
    assert!(stats.shootdown_rtt_ns.count >= 1);
    assert_eq!(stats.fault_to_teardown_ns, None);

    let text = report.render();
    assert!(text.contains("violations: 0"));
    assert!(text.contains("evidence: complete"));
}

#[test]
fn fault_run_attributes_violation_to_faulting_enclave() {
    let run = fault_run();
    let (events, drops) = run.node.drain_trace();
    let report = audit_events(run.node.clock.hz(), &events, &drops);

    assert!(!report.ok(), "fault run must produce violations");
    let attributed: Vec<_> = report
        .violations
        .iter()
        .filter(|v| v.enclave == Some(run.enclave))
        .collect();
    assert!(
        !attributed.is_empty(),
        "violations must attribute to enclave {}",
        run.enclave
    );
    assert!(attributed
        .iter()
        .any(|v| v.kind == ViolationKind::ProtectionFault));
    // Each violation ships its surrounding event window.
    assert!(attributed.iter().all(|v| !v.window.is_empty()));
    // The fault also lands in the per-enclave rollup, with the time its
    // containment took to tear the enclave down.
    let stats = &report.enclaves[&run.enclave];
    assert!(stats.faults >= 1);
    assert!(stats.fault_to_teardown_ns.is_some_and(|ns| ns > 0));
    // The teardown that followed the fault report is NOT an orphan.
    assert!(!report
        .violations
        .iter()
        .any(|v| v.kind == ViolationKind::OrphanTeardown));
}

/// One enclave's shutdown message excuses its own teardown, not another
/// enclave's: after A shuts down in order, B torn down with neither a
/// shutdown message nor a fault report is an orphan, attributed to B.
#[test]
fn teardown_without_its_own_shutdown_is_an_orphan() {
    let world = scenario::world(1);
    world.node.recorder().set_enabled(true);
    let last_core = world.node.topology.total_cores() - 1;
    let req = ResourceRequest::new(vec![CoreId(last_core)], vec![(ZoneId(0), 16 * 1024 * 1024)]);
    let (b, _) = world.master.bring_up_enclave("b", &req).unwrap();
    let (pisces, a) = (world.master.pisces(), &world.enclave);
    pisces.request_shutdown(a).unwrap();
    pisces.teardown(a).unwrap();
    pisces.teardown(&b).unwrap();

    let report = audit_trace(&world.node);
    let orphans: Vec<_> = report
        .violations
        .iter()
        .filter(|v| v.kind == ViolationKind::OrphanTeardown)
        .map(|v| v.enclave)
        .collect();
    assert_eq!(orphans, [Some(b.id.0)], "{}", report.render());
}

#[test]
fn overflowed_recorder_demotes_absence_checks() {
    // Overflow a tiny ring so the drain is missing its oldest events:
    // the engine must flag evidence-incomplete and demote absence-based
    // findings (the wrapped-away posts look like never-completed
    // commands otherwise).
    let recorder = Recorder::new(1, 16);
    recorder.set_enabled(true);
    let t = Tracer::new(Arc::clone(&recorder), 0, Arc::new(|| 0));
    for seq in 0..40u64 {
        t.emit(EventKind::CmdPost, seq, 0);
    }
    let drops = recorder.drops_per_lane();
    let events = recorder.drain();
    assert_eq!(drops, vec![24]);
    assert_eq!(events.len(), 16);

    let report = audit_events(1_000_000_000, &events, &drops);
    assert!(report.evidence_incomplete);
    assert_eq!(report.dropped_events, 24);
    // The absence-based stalls are notes; the drops themselves are the one
    // violation.
    assert!(report.notes.iter().any(|n| n.contains("demoted")));
    let kinds: Vec<_> = report.violations.iter().map(|v| v.kind).collect();
    assert_eq!(kinds, [ViolationKind::RingDrops]);
    assert!(report.render().contains("INCOMPLETE"));
}
