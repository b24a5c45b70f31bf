//! The host ⇄ enclave control channel (Pisces' "longcall" interface).
//!
//! Each enclave gets a pair of shared-memory rings: host→enclave for
//! resource-management requests, enclave→host for their acknowledgements.
//! The host answers nothing the co-kernel sends. A message is one ring
//! [`Slot`] — a tag word, then up to two operand words — because that is
//! how the real framework moves them: as fixed C structs in shared
//! physical memory, not as Rust objects.

use crate::ring::{Batch, RingError, SharedRing, Slot};
use covirt_simhw::addr::PhysRange;
use covirt_simhw::memory::MemWindow;
use covirt_trace::{pack_str, EventKind, Tracer};

/// Slots per direction.
pub const CTRL_SLOTS: u64 = 64;

/// What one side handles off its ring in one call: at most `CTRL_SLOTS`
/// messages, held inline.
pub type CtrlBatch = Batch<CtrlMsg, { CTRL_SLOTS as usize }>;

/// A control message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CtrlMsg {
    /// Host → enclave: a memory region has been granted; extend your map.
    AddMem {
        /// Base of the granted region.
        start: u64,
        /// Length in bytes.
        len: u64,
    },
    /// Enclave → host: the granted region is now mapped.
    AddMemAck {
        /// Base of the region.
        start: u64,
        /// Length in bytes.
        len: u64,
    },
    /// Host → enclave: release this region; unmap and acknowledge.
    RemoveMem {
        /// Base of the region being reclaimed.
        start: u64,
        /// Length in bytes.
        len: u64,
    },
    /// Enclave → host: region unmapped from the co-kernel's memory map.
    RemoveMemAck {
        /// Base of the region.
        start: u64,
        /// Length in bytes.
        len: u64,
    },
    /// Host → enclave: orderly shutdown request.
    Shutdown,
    /// Enclave → host: shutdown complete.
    ShutdownAck,
    /// Host → enclave: liveness probe.
    Ping {
        /// Echo token.
        token: u64,
    },
    /// Enclave → host: liveness response.
    PingAck {
        /// Echoed token.
        token: u64,
    },
}

const TAG_ADD_MEM: u64 = 1;
const TAG_ADD_MEM_ACK: u64 = 2;
const TAG_REMOVE_MEM: u64 = 3;
const TAG_REMOVE_MEM_ACK: u64 = 4;
// Tags 5 and 6 are retired: a slot carrying one is no message.
const TAG_SHUTDOWN: u64 = 7;
const TAG_SHUTDOWN_ACK: u64 = 8;
const TAG_PING: u64 = 9;
const TAG_PING_ACK: u64 = 10;

impl CtrlMsg {
    /// Short wire-level name of this message kind (trace labels).
    pub fn tag_name(&self) -> &'static str {
        match self {
            CtrlMsg::AddMem { .. } => "add_mem",
            CtrlMsg::AddMemAck { .. } => "add_mem_ack",
            CtrlMsg::RemoveMem { .. } => "remove_mem",
            CtrlMsg::RemoveMemAck { .. } => "remove_mem_ack",
            CtrlMsg::Shutdown => "shutdown",
            CtrlMsg::ShutdownAck => "shutdown_ack",
            CtrlMsg::Ping { .. } => "ping",
            CtrlMsg::PingAck { .. } => "ping_ack",
        }
    }

    /// The message as a ring slot: its tag, then its operands.
    fn to_slot(self) -> Slot {
        let (tag, a, b) = match self {
            CtrlMsg::AddMem { start, len } => (TAG_ADD_MEM, start, len),
            CtrlMsg::AddMemAck { start, len } => (TAG_ADD_MEM_ACK, start, len),
            CtrlMsg::RemoveMem { start, len } => (TAG_REMOVE_MEM, start, len),
            CtrlMsg::RemoveMemAck { start, len } => (TAG_REMOVE_MEM_ACK, start, len),
            CtrlMsg::Shutdown => (TAG_SHUTDOWN, 0, 0),
            CtrlMsg::ShutdownAck => (TAG_SHUTDOWN_ACK, 0, 0),
            CtrlMsg::Ping { token } => (TAG_PING, token, 0),
            CtrlMsg::PingAck { token } => (TAG_PING_ACK, token, 0),
        };
        [tag, a, b, 0, 0, 0, 0, 0]
    }

    /// The message a slot holds; `None` for an unknown tag.
    fn from_slot(slot: &Slot) -> Option<Self> {
        let [tag, a, b, ..] = *slot;
        Some(match tag {
            TAG_ADD_MEM => CtrlMsg::AddMem { start: a, len: b },
            TAG_ADD_MEM_ACK => CtrlMsg::AddMemAck { start: a, len: b },
            TAG_REMOVE_MEM => CtrlMsg::RemoveMem { start: a, len: b },
            TAG_REMOVE_MEM_ACK => CtrlMsg::RemoveMemAck { start: a, len: b },
            TAG_SHUTDOWN => CtrlMsg::Shutdown,
            TAG_SHUTDOWN_ACK => CtrlMsg::ShutdownAck,
            TAG_PING => CtrlMsg::Ping { token: a },
            TAG_PING_ACK => CtrlMsg::PingAck { token: a },
            _ => return None,
        })
    }
}

/// One endpoint of the control channel.
#[derive(Clone, Copy)]
enum Side {
    /// The host (Linux + Pisces module) end.
    Host,
    /// The enclave (co-kernel) end.
    Enclave,
}

/// The control channel: two SPSC rings over one shared region.
///
/// Layout: ring A (host→enclave) at `base`, ring B (enclave→host) at
/// `base + half`.
#[derive(Clone)]
pub struct CtrlChannel {
    side: Side,
    to_enclave: SharedRing,
    to_host: SharedRing,
    /// Flight-recorder handle; control traffic emits trace events when set.
    tracer: Option<Tracer>,
}

impl CtrlChannel {
    /// Bytes of shared memory a channel needs.
    pub const fn required_bytes() -> u64 {
        2 * SharedRing::required_bytes(CTRL_SLOTS).next_power_of_two()
    }

    /// The two rings' windows: the halves of the channel's.
    fn halves(window: &MemWindow) -> Result<[MemWindow; 2], RingError> {
        let half = window.len() / 2;
        let a = PhysRange::new(window.base(), half);
        let b = PhysRange::new(a.end(), window.len() - half);
        let sub = |r| window.sub(r).map_err(|_| RingError::Corrupt);
        Ok([sub(a)?, sub(b)?])
    }

    /// Format a channel into `window` (host side does this at enclave
    /// creation).
    pub fn create(window: &MemWindow) -> Result<Self, RingError> {
        let [a, b] = Self::halves(window)?;
        Ok(CtrlChannel {
            side: Side::Host,
            to_enclave: SharedRing::create(&a, CTRL_SLOTS)?,
            to_host: SharedRing::create(&b, CTRL_SLOTS)?,
            tracer: None,
        })
    }

    /// Attach from the enclave side to the channel formatted into
    /// `window` — the span the boot parameters give.
    pub fn attach_enclave(window: &MemWindow) -> Result<Self, RingError> {
        let [a, b] = Self::halves(window)?;
        Ok(CtrlChannel {
            side: Side::Enclave,
            to_enclave: SharedRing::attach(&a)?,
            to_host: SharedRing::attach(&b)?,
            tracer: None,
        })
    }

    /// Attach a flight-recorder handle; this clone (and clones made from
    /// it) will trace control traffic.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = Some(tracer);
    }

    fn tx(&self) -> &SharedRing {
        match self.side {
            Side::Host => &self.to_enclave,
            Side::Enclave => &self.to_host,
        }
    }

    fn rx(&self) -> &SharedRing {
        match self.side {
            Side::Host => &self.to_host,
            Side::Enclave => &self.to_enclave,
        }
    }

    /// Send a message toward the peer.
    pub fn send(&self, msg: &CtrlMsg) -> Result<(), RingError> {
        self.tx().push(msg.to_slot())?;
        if let Some(t) = &self.tracer {
            let (a, b) = pack_str(msg.tag_name());
            t.emit(EventKind::CtrlSend, a, b);
        }
        Ok(())
    }

    /// Whether the ring toward the peer has a free slot. This side is that
    /// ring's only producer, so a `true` holds until its next `send`.
    pub fn can_send(&self) -> bool {
        self.tx().len() < self.tx().capacity()
    }

    /// Non-blocking receive from the peer.
    pub fn try_recv(&self) -> Result<Option<CtrlMsg>, RingError> {
        match self.rx().pop() {
            Ok(slot) => {
                let msg = CtrlMsg::from_slot(&slot).ok_or(RingError::Corrupt)?;
                if let Some(t) = &self.tracer {
                    let (a, b) = pack_str(msg.tag_name());
                    t.emit(EventKind::CtrlRecv, a, b);
                }
                Ok(Some(msg))
            }
            Err(RingError::Empty) => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// Messages queued toward this side.
    pub fn pending(&self) -> u64 {
        self.rx().len()
    }

    /// [`pending`](Self::pending), read as a receive reads it: a ring whose
    /// cursors claim more than it holds is [`RingError::Corrupt`].
    pub fn queued(&self) -> Result<u64, RingError> {
        self.rx().queued()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use covirt_simhw::addr::PAGE_SIZE_4K;
    use covirt_simhw::memory::PhysMemory;
    use covirt_simhw::topology::ZoneId;

    fn channel() -> (MemWindow, CtrlChannel) {
        let window = PhysMemory::new(&[16 * 1024 * 1024])
            .alloc_window(ZoneId(0), CtrlChannel::required_bytes(), PAGE_SIZE_4K)
            .unwrap();
        let ch = CtrlChannel::create(&window).unwrap();
        (window, ch)
    }

    /// Every message round-trips under the tag it has always had; 5 and 6
    /// (a forwarded system call and its return) are retired.
    #[test]
    fn encode_decode_all_variants() {
        let msgs = [
            (CtrlMsg::AddMem { start: 1, len: 2 }, 1),
            (CtrlMsg::AddMemAck { start: 1, len: 2 }, 2),
            (CtrlMsg::RemoveMem { start: 3, len: 4 }, 3),
            (CtrlMsg::RemoveMemAck { start: 3, len: 4 }, 4),
            (CtrlMsg::Shutdown, 7),
            (CtrlMsg::ShutdownAck, 8),
            (CtrlMsg::Ping { token: 99 }, 9),
            (CtrlMsg::PingAck { token: 99 }, 10),
        ];
        for (m, tag) in msgs {
            assert_eq!(m.to_slot()[0], tag, "{m:?}");
            assert_eq!(CtrlMsg::from_slot(&m.to_slot()), Some(m));
        }
    }

    /// A slot that is no message decodes to nothing: garbage, and a slot
    /// tagged with a retired tag.
    #[test]
    fn decode_garbage_fails() {
        assert_eq!(CtrlMsg::from_slot(&[u64::MAX; 8]), None);
        assert_eq!(CtrlMsg::from_slot(&[0; 8]), None);
        for tag in [5, 6] {
            assert_eq!(CtrlMsg::from_slot(&[tag, 60, 1, 2, 0, 0, 0, 0]), None);
        }
    }

    #[test]
    fn host_to_enclave_roundtrip() {
        let (window, host) = channel();
        let enclave = CtrlChannel::attach_enclave(&window).unwrap();
        host.send(&CtrlMsg::AddMem {
            start: 0x100000,
            len: 0x2000,
        })
        .unwrap();
        assert_eq!(enclave.pending(), 1);
        let got = enclave.try_recv().unwrap().unwrap();
        assert_eq!(
            got,
            CtrlMsg::AddMem {
                start: 0x100000,
                len: 0x2000
            }
        );
        enclave
            .send(&CtrlMsg::AddMemAck {
                start: 0x100000,
                len: 0x2000,
            })
            .unwrap();
        let ack = host.try_recv().unwrap().unwrap();
        assert_eq!(
            ack,
            CtrlMsg::AddMemAck {
                start: 0x100000,
                len: 0x2000
            }
        );
    }

    #[test]
    fn directions_are_independent() {
        let (window, host) = channel();
        let enclave = CtrlChannel::attach_enclave(&window).unwrap();
        enclave.send(&CtrlMsg::Ping { token: 7 }).unwrap();
        // Host rx has one message; enclave rx none.
        assert_eq!(host.pending(), 1);
        assert_eq!(enclave.pending(), 0);
        assert!(enclave.try_recv().unwrap().is_none());
    }
}
