//! Fault records and the containment log.
//!
//! When the hypervisor terminates an enclave it produces a report; the
//! controller logs it and forwards it to the master control process. The
//! log is the artifact the paper's Section V narrative is about: instead of
//! a node crash, the operator gets a trace of what the enclave did wrong.

use parking_lot::Mutex;
use std::sync::Arc;

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

/// Append-only fault log.
#[derive(Default)]
pub struct FaultLog {
    reports: Mutex<Vec<FaultReport>>,
}

impl FaultLog {
    /// Empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a report; returns its index in the log.
    pub fn record(&self, report: FaultReport) -> usize {
        let mut reports = self.reports.lock();
        reports.push(report);
        reports.len() - 1
    }

    /// Attach what the reclaim returned to the report filed at `index`.
    pub(crate) fn set_reclaim(&self, index: usize, reclaim: hobbes::HobbesResult<()>) {
        if let Some(report) = self.reports.lock().get_mut(index) {
            report.reclaim = Some(reclaim);
        }
    }

    /// All reports so far.
    pub fn all(&self) -> Vec<FaultReport> {
        self.reports.lock().clone()
    }

    /// Number of contained faults.
    pub fn count(&self) -> usize {
        self.reports.lock().len()
    }

    /// Reports for one enclave.
    pub fn for_enclave(&self, enclave: u64) -> Vec<FaultReport> {
        self.reports
            .lock()
            .iter()
            .filter(|r| r.enclave == enclave)
            .cloned()
            .collect()
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
}
