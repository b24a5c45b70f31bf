//! Self-healing control feedback: turn live audit verdicts into host
//! control actions.
//!
//! The covirt-audit engine tails the flight recorder and produces a
//! [`TailVerdict`] per batch; this module closes the loop by mapping
//! verdicts onto control actions:
//!
//! * **Throttle** — an enclave whose p99 blows a configured SLO budget
//!   (shootdown RTT, exit handle time, command wait) is throttled until
//!   its p99 recovers. The interval is the policy's own record (and the
//!   profiler's `Throttled` overlay); nothing on the host paces off it.
//! * **Quarantine, then teardown** — a confirmed protection violation
//!   (fault report, grant inside a stale-TLB window, orphan teardown
//!   with complete evidence) quarantines the attributed enclave — no
//!   further grants — and drives the fault path to reclaim its
//!   resources. Quarantine is one-way and acted on exactly once; when
//!   Covirt's own containment has already reclaimed the enclave, the
//!   decision is all there is left to record.
//! * **Shed admission** — when cumulative ring drops cross a threshold,
//!   observability is too degraded to vouch for new tenants: enclave
//!   admission is refused. Sticky until an operator calls
//!   [`PiscesHost::set_admission_shed`]`(false)`.
//!
//! Absence-based findings (e.g. an orphan teardown) are only acted on
//! while the evidence is complete — if the capture dropped events, the
//! exonerating record may be among them, and tearing an enclave down on
//! missing evidence would be a protection failure of its own.

use crate::enclave::EnclaveId;
use crate::host::PiscesHost;
use covirt_trace::audit::{TailVerdict, ViolationKind};
use covirt_trace::{Phase, PhaseProfiler};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::Arc;

/// Policy knobs.
#[derive(Clone, Copy, Debug)]
pub struct RemediationConfig {
    /// Cumulative ring drops above which admission is shed.
    pub shed_drop_threshold: u64,
}

impl Default for RemediationConfig {
    fn default() -> RemediationConfig {
        RemediationConfig {
            shed_drop_threshold: 4096, // one default lane's worth
        }
    }
}

/// One control action the policy took.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RemediationAction {
    /// Enclave throttled: an SLO p99 crossed its budget.
    Throttle {
        /// The degraded enclave.
        enclave: u64,
        /// The budgets crossed.
        why: String,
    },
    /// Throttle lifted: the enclave's p99 recovered.
    Unthrottle {
        /// The recovered enclave.
        enclave: u64,
    },
    /// Enclave quarantined on a confirmed protection violation.
    Quarantine {
        /// The violating enclave.
        enclave: u64,
        /// The violation that confirmed it.
        why: String,
    },
    /// Quarantined enclave's resources reclaimed via the fault path.
    Teardown {
        /// The torn-down enclave.
        enclave: u64,
    },
    /// New enclave admission shed: observability degraded.
    ShedAdmission {
        /// Cumulative drops at the moment of shedding.
        dropped: u64,
    },
}

impl fmt::Display for RemediationAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RemediationAction::Throttle { enclave, why } => {
                write!(f, "throttle enclave {enclave} ({why})")
            }
            RemediationAction::Unthrottle { enclave } => {
                write!(f, "unthrottle enclave {enclave} (p99 recovered)")
            }
            RemediationAction::Quarantine { enclave, why } => {
                write!(f, "quarantine enclave {enclave} ({why})")
            }
            RemediationAction::Teardown { enclave } => {
                write!(f, "teardown enclave {enclave} (fault-path reclaim)")
            }
            RemediationAction::ShedAdmission { dropped } => {
                write!(f, "shed admission ({dropped} events dropped)")
            }
        }
    }
}

/// Shared TSC source the policy samples when timing throttle intervals.
pub type TscSource = Arc<dyn Fn() -> u64 + Send + Sync>;

/// Feeds [`TailVerdict`]s back into the host. One policy instance per
/// tailing loop; it remembers what it already did so each condition is
/// acted on exactly once per transition.
pub struct RemediationPolicy {
    host: Arc<PiscesHost>,
    cfg: RemediationConfig,
    /// Enclaves this policy is currently throttling.
    throttled: HashSet<u64>,
    /// Enclaves this policy has quarantined — kept here because a
    /// contained enclave has left the host by the time its fault report
    /// is tailed.
    quarantined: HashSet<u64>,
    /// Cumulative drops across all verdicts seen.
    dropped_total: u64,
    /// Every action taken, in order.
    log: Vec<RemediationAction>,
    /// Optional cycle profiler: time spent throttled is attributed to
    /// the enclave as [`Phase::Throttled`] overlay cycles.
    profiler: Option<(Arc<PhaseProfiler>, TscSource)>,
    /// TSC at which each currently-throttled enclave entered throttle.
    throttle_started: HashMap<u64, u64>,
}

impl RemediationPolicy {
    /// A policy driving `host`.
    pub fn new(host: Arc<PiscesHost>, cfg: RemediationConfig) -> RemediationPolicy {
        RemediationPolicy {
            host,
            cfg,
            throttled: HashSet::new(),
            quarantined: HashSet::new(),
            dropped_total: 0,
            log: Vec::new(),
            profiler: None,
            throttle_started: HashMap::new(),
        }
    }

    /// Attach a cycle profiler. Every throttle interval this policy
    /// imposes is attributed to the throttled enclave as
    /// [`Phase::Throttled`] overlay cycles, stamped with `now` (a TSC
    /// source — the policy runs off-core, so it cannot read a core's
    /// own clock).
    pub fn attach_profiler(&mut self, profiler: Arc<PhaseProfiler>, now: TscSource) {
        self.profiler = Some((profiler, now));
    }

    fn throttle_mark(&mut self, enclave: u64) {
        if let Some((_, now)) = &self.profiler {
            self.throttle_started.insert(enclave, now());
        }
    }

    fn throttle_close(&mut self, enclave: u64) {
        let Some((prof, now)) = &self.profiler else {
            return;
        };
        if let Some(start) = self.throttle_started.remove(&enclave) {
            prof.attribute(enclave, Phase::Throttled, now().saturating_sub(start));
        }
    }

    /// Close every open throttle interval, attributing cycles up to
    /// now. Call before snapshotting the profiler; intervals for
    /// still-throttled enclaves restart from the flush point.
    pub fn flush_throttle_intervals(&mut self) {
        let open: Vec<u64> = self.throttle_started.keys().copied().collect();
        for id in open {
            self.throttle_close(id);
            self.throttle_mark(id);
        }
    }

    /// Apply one verdict; returns the actions it triggered (empty on a
    /// healthy batch).
    pub fn apply(&mut self, verdict: &TailVerdict) -> Vec<RemediationAction> {
        let mut actions = Vec::new();
        self.dropped_total += verdict.dropped_since;

        // Quarantine-then-teardown on confirmed protection violations.
        for v in &verdict.new_violations {
            let protection = matches!(
                v.kind,
                ViolationKind::ProtectionFault
                    | ViolationKind::UseAfterReclaim
                    | ViolationKind::OrphanTeardown
            );
            // Absence-based findings are unconfirmed while events are
            // missing — never destroy an enclave on missing evidence.
            let confirmed = !v.absence_based || !verdict.evidence_incomplete;
            let Some(id) = v.enclave else { continue };
            // Once per enclave, however often the violation is re-reported.
            if !(protection && confirmed && self.quarantined.insert(id)) {
                continue;
            }
            // A quarantined enclave is being torn down; close any open
            // throttle interval so its cycles are not lost.
            self.throttle_close(id);
            actions.push(RemediationAction::Quarantine {
                enclave: id,
                why: format!("{}: {}", v.kind.name(), v.detail),
            });
            // Drive the fault path, unless Covirt's containment got there
            // first and the enclave is already reclaimed and gone.
            let Ok(enclave) = self.host.enclave(EnclaveId(id)) else {
                continue;
            };
            enclave.quarantine();
            if self
                .host
                .report_fault(&enclave, &format!("remediation: {}", v.kind.name()))
                .is_ok()
            {
                actions.push(RemediationAction::Teardown { enclave: id });
            }
        }

        // Throttle on SLO degradation; lift on recovery.
        let degraded: HashSet<u64> = verdict.degraded.iter().map(|(id, _)| *id).collect();
        for (id, budgets) in &verdict.degraded {
            if !self.throttled.contains(id) && self.host.enclave(EnclaveId(*id)).is_ok() {
                self.throttled.insert(*id);
                self.throttle_mark(*id);
                actions.push(RemediationAction::Throttle {
                    enclave: *id,
                    why: budgets.join(", "),
                });
            }
        }
        let recovered: Vec<u64> = self
            .throttled
            .iter()
            .copied()
            .filter(|id| !degraded.contains(id))
            .collect();
        for id in recovered {
            self.throttled.remove(&id);
            self.throttle_close(id);
            actions.push(RemediationAction::Unthrottle { enclave: id });
        }

        // Shed admission when observability degrades.
        if self.dropped_total > self.cfg.shed_drop_threshold && !self.host.admission_shed() {
            self.host.set_admission_shed(true);
            actions.push(RemediationAction::ShedAdmission {
                dropped: self.dropped_total,
            });
        }

        self.log.extend(actions.iter().cloned());
        actions
    }

    /// Every action taken so far, in order.
    pub fn log(&self) -> &[RemediationAction] {
        &self.log
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resources::ResourceRequest;
    use covirt_simhw::node::{NodeConfig, SimNode};
    use covirt_simhw::topology::{CoreId, ZoneId};
    use covirt_trace::audit::Violation;

    fn host_with_enclave() -> (Arc<PiscesHost>, u64) {
        let h = PiscesHost::new(SimNode::new(NodeConfig::small()));
        let e = h
            .create_enclave(
                "victim",
                &ResourceRequest::new(vec![CoreId(1)], vec![(ZoneId(0), 32 * 1024 * 1024)]),
            )
            .unwrap();
        h.launch(&e).unwrap();
        (h, e.id.0)
    }

    fn fault_verdict(enclave: u64, absence_based: bool, incomplete: bool) -> TailVerdict {
        TailVerdict {
            new_violations: vec![Violation {
                kind: if absence_based {
                    ViolationKind::OrphanTeardown
                } else {
                    ViolationKind::ProtectionFault
                },
                enclave: Some(enclave),
                tsc: 100,
                detail: "test violation".into(),
                window: Vec::new(),
                absence_based,
            }],
            evidence_incomplete: incomplete,
            ..TailVerdict::default()
        }
    }

    #[test]
    fn confirmed_violation_quarantines_then_tears_down_once() {
        let (h, id) = host_with_enclave();
        let e = h.enclave(EnclaveId(id)).unwrap();
        let mut p = RemediationPolicy::new(Arc::clone(&h), RemediationConfig::default());
        let actions = p.apply(&fault_verdict(id, false, false));
        assert_eq!(actions.len(), 2);
        assert!(matches!(
            &actions[0],
            RemediationAction::Quarantine { enclave, .. } if *enclave == id
        ));
        assert!(matches!(
            &actions[1],
            RemediationAction::Teardown { enclave } if *enclave == id
        ));
        assert!(e.is_quarantined());
        assert!(matches!(e.state(), crate::EnclaveState::Failed(_)));
        // A re-reported violation must not act twice.
        assert!(p.apply(&fault_verdict(id, false, false)).is_empty());
        assert_eq!(p.log().len(), 2);
    }

    /// Covirt contains a faulting enclave itself; the tailed fault report
    /// arrives after the enclave has left the host. The decision is still
    /// recorded, once, and there is nothing left to tear down.
    #[test]
    fn a_violation_by_an_enclave_already_reclaimed_records_the_quarantine_alone() {
        let (h, id) = host_with_enclave();
        let e = h.enclave(EnclaveId(id)).unwrap();
        h.report_fault(&e, "EPT violation").unwrap();
        assert!(h.enclave(EnclaveId(id)).is_err());
        let mut p = RemediationPolicy::new(Arc::clone(&h), RemediationConfig::default());
        let actions = p.apply(&fault_verdict(id, false, false));
        assert!(
            matches!(&actions[..], [RemediationAction::Quarantine { enclave, .. }] if *enclave == id),
            "{actions:?}"
        );
        assert!(p.apply(&fault_verdict(id, false, false)).is_empty());
    }

    #[test]
    fn unconfirmed_absence_finding_is_not_acted_on() {
        let (h, id) = host_with_enclave();
        let mut p = RemediationPolicy::new(Arc::clone(&h), RemediationConfig::default());
        // Orphan teardown with dropped events: exonerating record may be
        // among the missing ones.
        assert!(p.apply(&fault_verdict(id, true, true)).is_empty());
        assert!(!h.enclave(EnclaveId(id)).unwrap().is_quarantined());
        // Same finding with complete evidence is confirmed.
        assert_eq!(p.apply(&fault_verdict(id, true, false)).len(), 2);
    }

    #[test]
    fn throttle_follows_degradation_and_recovery() {
        let (h, id) = host_with_enclave();
        let mut p = RemediationPolicy::new(Arc::clone(&h), RemediationConfig::default());
        let degraded = TailVerdict {
            degraded: vec![(id, vec!["shootdown p99 5000 > 1000 ns".into()])],
            ..TailVerdict::default()
        };
        let actions = p.apply(&degraded);
        assert_eq!(actions.len(), 1);
        assert!(matches!(&actions[0], RemediationAction::Throttle { .. }));
        // Still degraded: no duplicate action.
        assert!(p.apply(&degraded).is_empty());
        // Recovered: throttle lifts.
        let actions = p.apply(&TailVerdict::default());
        assert_eq!(actions, vec![RemediationAction::Unthrottle { enclave: id }]);
    }

    #[test]
    fn drop_rate_sheds_admission() {
        let (h, _id) = host_with_enclave();
        let mut p = RemediationPolicy::new(
            Arc::clone(&h),
            RemediationConfig {
                shed_drop_threshold: 10,
            },
        );
        assert!(p
            .apply(&TailVerdict {
                dropped_since: 8,
                ..TailVerdict::default()
            })
            .is_empty());
        let actions = p.apply(&TailVerdict {
            dropped_since: 8,
            ..TailVerdict::default()
        });
        assert_eq!(
            actions,
            vec![RemediationAction::ShedAdmission { dropped: 16 }]
        );
        // Admission is actually refused now.
        let err = h
            .create_enclave(
                "late",
                &ResourceRequest::new(vec![CoreId(2)], vec![(ZoneId(0), 16 * 1024 * 1024)]),
            )
            .unwrap_err();
        assert!(matches!(err, crate::PiscesError::ResourceBusy(_)));
        // Sticky: no duplicate shed action.
        assert!(p
            .apply(&TailVerdict {
                dropped_since: 1,
                ..TailVerdict::default()
            })
            .is_empty());
        // Operator re-opens admission.
        h.set_admission_shed(false);
        h.create_enclave(
            "late",
            &ResourceRequest::new(vec![CoreId(2)], vec![(ZoneId(0), 16 * 1024 * 1024)]),
        )
        .unwrap();
    }

    #[test]
    fn quarantined_enclave_is_refused_grants() {
        let (h, id) = host_with_enclave();
        let e = h.enclave(EnclaveId(id)).unwrap();
        h.add_memory(&e, ZoneId(0), 2 * 1024 * 1024).unwrap();
        e.quarantine();
        assert!(matches!(
            h.add_memory(&e, ZoneId(0), 2 * 1024 * 1024),
            Err(crate::PiscesError::Vetoed(_))
        ));
    }
}
