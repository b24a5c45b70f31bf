//! Fault records and the containment log.
//!
//! When the hypervisor terminates an enclave it produces a report; the
//! controller logs it and forwards it to the master control process. The
//! log is the artifact the paper's Section V narrative is about: instead of
//! a node crash, the operator gets a trace of what the enclave did wrong.
//!
//! The log counts every fault and keeps the latest [`FAULT_LOG_KEEP`]
//! reports, as a flight recorder does: a node that contains faults for as
//! long as it runs holds a bounded log, not one that grows by a report,
//! its reason included, for every fault it ever contained.

use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::Arc;

/// Reports the log keeps: the latest, up to this many — a few KiB that a
/// fault finds in cache, where filing into a log a thousand reports long
/// is a cold write (EXPERIMENTS.md, "Covirt's share of a lifecycle").
pub const FAULT_LOG_KEEP: usize = 64;

/// One contained fault.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultReport {
    /// The enclave that faulted.
    pub enclave: u64,
    /// The core the abort exit occurred on; 0 (the host's) for a fault
    /// the host found.
    pub core: usize,
    /// Human-readable abort reason (exit qualification), shared with the
    /// context, the core and the enclave state that hold it too.
    pub reason: Arc<str>,
    /// TSC at containment time.
    pub tsc: u64,
    /// What reclaiming the enclave's resources returned (`Ok` too when a
    /// racing reporter had already won the reclaim); `None` until it has.
    pub reclaim: Option<hobbes::HobbesResult<()>>,
}

/// The fault log: every report counted, the latest kept.
#[derive(Default)]
pub struct FaultLog {
    reports: Mutex<Kept>,
}

/// The reports kept, oldest first, and the index of the oldest among all
/// reports filed.
#[derive(Default)]
struct Kept {
    first: usize,
    reports: VecDeque<FaultReport>,
}

impl FaultLog {
    /// Empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a report, dropping the oldest kept one if the log is full;
    /// returns its index among all reports filed.
    pub fn record(&self, report: FaultReport) -> usize {
        let mut kept = self.reports.lock();
        if kept.reports.len() == FAULT_LOG_KEEP {
            kept.reports.pop_front();
            kept.first += 1;
        }
        kept.reports.push_back(report);
        kept.first + kept.reports.len() - 1
    }

    /// Attach what the reclaim returned to the report filed at `index`, if
    /// the log still keeps it.
    pub(crate) fn set_reclaim(&self, index: usize, reclaim: hobbes::HobbesResult<()>) {
        let mut kept = self.reports.lock();
        let Some(at) = index.checked_sub(kept.first) else {
            return;
        };
        if let Some(report) = kept.reports.get_mut(at) {
            report.reclaim = Some(reclaim);
        }
    }

    /// The reports kept, oldest first.
    pub fn all(&self) -> Vec<FaultReport> {
        self.reports.lock().reports.iter().cloned().collect()
    }

    /// Number of contained faults, every one filed.
    pub fn count(&self) -> usize {
        let kept = self.reports.lock();
        kept.first + kept.reports.len()
    }

    /// The kept reports for one enclave.
    pub fn for_enclave(&self, enclave: u64) -> Vec<FaultReport> {
        let kept = self.reports.lock();
        let of = kept.reports.iter().filter(|r| r.enclave == enclave);
        of.cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_accumulates() {
        let log = FaultLog::new();
        assert_eq!(log.count(), 0);
        log.record(FaultReport {
            enclave: 1,
            core: 2,
            reason: "ept".into(),
            tsc: 10,
            reclaim: None,
        });
        let second = log.record(FaultReport {
            enclave: 2,
            core: 3,
            reason: "df".into(),
            tsc: 20,
            reclaim: None,
        });
        let refused = Err(hobbes::HobbesError::NoKernel(2));
        log.set_reclaim(second, refused.clone());
        assert_eq!(log.count(), 2);
        assert_eq!(log.all()[0].reclaim, None);
        assert_eq!(log.all()[1].reclaim, Some(refused));
        assert_eq!(log.for_enclave(1).len(), 1);
        assert_eq!(log.for_enclave(3).len(), 0);
        assert_eq!(&*log.all()[1].reason, "df");
    }

    /// A full log drops its oldest report for each new one and still
    /// counts every fault; a reclaim that returns after its report was
    /// dropped is not attached to another.
    #[test]
    fn the_log_keeps_the_latest_reports_and_counts_every_one() {
        let log = FaultLog::new();
        let report = |enclave| FaultReport {
            enclave,
            core: 1,
            reason: "ept".into(),
            tsc: 0,
            reclaim: None,
        };
        let first = log.record(report(0));
        for e in 1..FAULT_LOG_KEEP as u64 + 1 {
            log.record(report(e));
        }
        assert_eq!(log.count(), FAULT_LOG_KEEP + 1);
        let all = log.all();
        assert_eq!(all.len(), FAULT_LOG_KEEP);
        assert_eq!(
            (all[0].enclave, all[FAULT_LOG_KEEP - 1].enclave),
            (1, FAULT_LOG_KEEP as u64)
        );
        assert!(log.for_enclave(0).is_empty());

        log.set_reclaim(first, Ok(()));
        assert!(log.all().iter().all(|r| r.reclaim.is_none()));
        let last = log.record(report(7));
        log.set_reclaim(last, Ok(()));
        let sevens = log.for_enclave(7);
        assert_eq!(sevens.len(), 2);
        assert_eq!(
            (sevens[0].reclaim.clone(), sevens[1].reclaim.clone()),
            (None, Some(Ok(())))
        );
    }
}
