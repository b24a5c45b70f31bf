//! Hobbes-level resource events and hook points.
//!
//! The Pisces hooks cover plain memory grants; these cover the *sharing*
//! control paths (XEMEM attach/detach) and cross-enclave lifecycle
//! notifications. Between the two hook sets, the Covirt controller sees
//! every event that changes an enclave's reachable hardware.

use covirt_simhw::addr::PhysRange;
use parking_lot::Mutex;
use std::collections::VecDeque;

/// Callbacks around Hobbes-level sharing operations. Veto by returning an
/// error string.
#[allow(unused_variables)]
pub trait HobbesHooks: Send + Sync {
    /// An XEMEM attach is about to become visible to enclave `enclave`.
    /// Covirt maps the segment into the enclave's EPT *here*, before the
    /// guest kernel learns the pages exist.
    fn on_xemem_attach_prepared(&self, enclave: u64, range: PhysRange) -> Result<(), String> {
        Ok(())
    }

    /// Enclave `enclave` no longer holds the segment at `range`: it
    /// detached, or the segment (or its owner) went while it was attached.
    /// Covirt unmaps the EPT entries and flushes the enclave's TLBs here,
    /// returning only once its live cores acknowledge — before the memory
    /// may be reused. An error ends the enclave when the segment is gone.
    fn on_xemem_detach_acked(&self, enclave: u64, range: PhysRange) -> Result<(), String> {
        Ok(())
    }

    /// Enclave `failed` died; `dependent` had shared state with it.
    fn on_dependency_failed(&self, dependent: u64, failed: u64) {}
}

/// Recorded notification (delivered to components whose peer died).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FailureNotice {
    /// The enclave being told.
    pub dependent: u64,
    /// The enclave that failed.
    pub failed: u64,
    /// Reason string from the fault report.
    pub reason: String,
}

/// A simple mailbox of failure notices (per master control instance).
#[derive(Default)]
pub struct NoticeBoard {
    notices: Mutex<VecDeque<FailureNotice>>,
}

impl NoticeBoard {
    /// Empty board.
    pub fn new() -> Self {
        Self::default()
    }

    /// Post a notice.
    pub fn post(&self, notice: FailureNotice) {
        self.notices.lock().push_back(notice);
    }

    /// Drain all notices.
    pub fn drain(&self) -> Vec<FailureNotice> {
        self.notices.lock().drain(..).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn notice_board_fifo() {
        let b = NoticeBoard::new();
        b.post(FailureNotice {
            dependent: 1,
            failed: 2,
            reason: "ept".into(),
        });
        b.post(FailureNotice {
            dependent: 3,
            failed: 2,
            reason: "ept".into(),
        });
        let drained = b.drain();
        assert_eq!(drained.len(), 2);
        assert_eq!(drained[0].dependent, 1);
        assert_eq!(drained[1].dependent, 3);
        assert!(b.drain().is_empty());
    }

    #[test]
    fn default_hooks_are_permissive() {
        struct H;
        impl HobbesHooks for H {}
        let h = H;
        let r = PhysRange::new(covirt_simhw::addr::HostPhysAddr::new(0), 0x1000);
        assert!(h.on_xemem_attach_prepared(1, r).is_ok());
        assert!(h.on_xemem_detach_acked(1, r).is_ok());
        h.on_dependency_failed(1, 2);
    }
}
