//! Covirt's boot-parameter structure and management-region layout.
//!
//! "Covirt replaces the standard boot parameter structure with a new,
//! specialized structure used by the hypervisor. The Covirt boot parameters
//! contain the VM configuration information, a minimal communication
//! channel used as a command queue, and a pointer to the unmodified Pisces
//! boot parameter structure used by the co-kernel."
//!
//! Layout of the enclave's 256 KiB management region once Covirt is
//! interposed:
//!
//! ```text
//! +0        Pisces BootParams          (written by Pisces, untouched)
//! +64 KiB   CovirtBootParams           (written by the controller)
//! +96 KiB   per-core command queues    (4 KiB each, boot-core first)
//! +tail     control channel            (written by Pisces, untouched)
//! ```

use crate::cmdqueue::CmdQueue;
use crate::config::{CovirtConfig, IpiMode};
use covirt_simhw::addr::HostPhysAddr;
use covirt_simhw::memory::MemWindow;
use pisces::wire::{read_record, write_record, WireError, WireReader, WireWriter};

/// Magic identifying a Covirt boot-parameter structure.
pub const COVIRT_BOOT_MAGIC: u64 = 0x434f_5649_5254_4250; // "COVIRTBP"

/// Offset of the Covirt parameters inside the management region.
pub const COVIRT_PARAMS_OFFSET: u64 = 64 * 1024;
/// Offset of the first per-core command queue.
pub const CMDQ_BASE_OFFSET: u64 = 96 * 1024;
/// Stride between per-core command queues.
pub const CMDQ_STRIDE: u64 = 4 * 1024;

const CFG_MEM: u64 = 1 << 0;
const CFG_VAPIC: u64 = 1 << 1;
const CFG_PIV: u64 = 1 << 2;
const CFG_MSR: u64 = 1 << 3;
const CFG_IO: u64 = 1 << 4;
const CFG_TRACE: u64 = 1 << 5;

/// Encode a feature set into the boot-parameter word.
pub fn encode_config(c: CovirtConfig) -> u64 {
    let mut bits = 0;
    if c.memory {
        bits |= CFG_MEM;
    }
    match c.ipi {
        Some(IpiMode::Vapic) => bits |= CFG_VAPIC,
        Some(IpiMode::Posted) => bits |= CFG_PIV,
        None => {}
    }
    if c.msr {
        bits |= CFG_MSR;
    }
    if c.io {
        bits |= CFG_IO;
    }
    if c.trace {
        bits |= CFG_TRACE;
    }
    bits
}

/// Decode the boot-parameter feature word.
pub fn decode_config(bits: u64) -> CovirtConfig {
    CovirtConfig {
        memory: bits & CFG_MEM != 0,
        ipi: if bits & CFG_VAPIC != 0 {
            Some(IpiMode::Vapic)
        } else if bits & CFG_PIV != 0 {
            Some(IpiMode::Posted)
        } else {
            None
        },
        msr: bits & CFG_MSR != 0,
        io: bits & CFG_IO != 0,
        trace: bits & CFG_TRACE != 0,
    }
}

/// The structure the Covirt hypervisor reads at CPU boot.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CovirtBootParams {
    /// Structure magic.
    pub magic: u64,
    /// The enclave.
    pub enclave_id: u64,
    /// Enabled protection features.
    pub config: CovirtConfig,
    /// EPT root (EPTP) pre-built by the controller; 0 when memory
    /// protection is off.
    pub eptp: u64,
    /// `(core, command-queue base)` pairs, one per enclave core.
    pub cmd_queues: Vec<(u64, u64)>,
    /// Physical address of the unmodified Pisces boot parameters, handed
    /// to the co-kernel in RDI at VM launch.
    pub pisces_params_addr: u64,
}

impl CovirtBootParams {
    /// Serialize.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = WireWriter::new();
        w.put_u64(self.magic)
            .put_u64(self.enclave_id)
            .put_u64(encode_config(self.config))
            .put_u64(self.eptp);
        w.put_u64(self.cmd_queues.len() as u64);
        for &(core, base) in &self.cmd_queues {
            w.put_u64(core).put_u64(base);
        }
        w.put_u64(self.pisces_params_addr);
        w.finish()
    }

    /// Deserialize.
    pub fn decode(buf: &[u8]) -> Result<Self, WireError> {
        let mut r = WireReader::new(buf);
        let magic = r.get_u64()?;
        if magic != COVIRT_BOOT_MAGIC {
            return Err(WireError);
        }
        let enclave_id = r.get_u64()?;
        let config = decode_config(r.get_u64()?);
        let eptp = r.get_u64()?;
        let n = r.get_u64()? as usize;
        if n > 4096 {
            return Err(WireError);
        }
        let mut cmd_queues = Vec::with_capacity(n);
        for _ in 0..n {
            cmd_queues.push((r.get_u64()?, r.get_u64()?));
        }
        Ok(CovirtBootParams {
            magic,
            enclave_id,
            config,
            eptp,
            cmd_queues,
            pisces_params_addr: r.get_u64()?,
        })
    }

    /// Store at `addr` of a window onto the management region, with a
    /// length prefix.
    pub fn write_to(
        &self,
        window: &MemWindow,
        addr: HostPhysAddr,
    ) -> Result<(), covirt_simhw::HwError> {
        write_record(window, addr, &self.encode())
    }

    /// Load from `addr` of a window.
    pub fn read_from(window: &MemWindow, addr: HostPhysAddr) -> Result<Self, WireError> {
        Self::decode(&read_record(window, addr)?)
    }

    /// The command-queue base for `core`.
    pub fn cmdq_base(&self, core: usize) -> Option<HostPhysAddr> {
        self.cmd_queues
            .iter()
            .find(|&&(c, _)| c == core as u64)
            .map(|&(_, b)| HostPhysAddr::new(b))
    }
}

/// Where the per-core command queue of the `idx`-th enclave core lives in a
/// management region starting at `mgmt_base`.
pub fn cmdq_addr(mgmt_base: HostPhysAddr, idx: usize) -> HostPhysAddr {
    debug_assert!(CMDQ_STRIDE >= CmdQueue::required_bytes());
    mgmt_base.add(CMDQ_BASE_OFFSET + idx as u64 * CMDQ_STRIDE)
}

#[cfg(test)]
mod tests {
    use super::*;
    use covirt_simhw::addr::PAGE_SIZE_4K;
    use covirt_simhw::memory::PhysMemory;
    use covirt_simhw::topology::ZoneId;

    fn params() -> CovirtBootParams {
        CovirtBootParams {
            magic: COVIRT_BOOT_MAGIC,
            enclave_id: 4,
            config: CovirtConfig::MEM_IPI,
            eptp: 0x123000,
            cmd_queues: vec![(3, 0x50000), (4, 0x51000)],
            pisces_params_addr: 0x40000,
        }
    }

    #[test]
    fn config_bits_roundtrip() {
        for c in [
            CovirtConfig::NONE,
            CovirtConfig::MEM,
            CovirtConfig::MEM_IPI,
            CovirtConfig::MEM_IPI_PIV,
            CovirtConfig::FULL,
            CovirtConfig::MEM.with_trace(),
        ] {
            assert_eq!(decode_config(encode_config(c)), c);
        }
    }

    #[test]
    fn encode_decode_roundtrip() {
        let p = params();
        assert_eq!(CovirtBootParams::decode(&p.encode()).unwrap(), p);
    }

    #[test]
    fn bad_magic_rejected() {
        let mut p = params();
        p.magic = 1;
        assert!(CovirtBootParams::decode(&p.encode()).is_err());
    }

    #[test]
    fn memory_roundtrip_and_lookup() {
        let mem = PhysMemory::new(&[16 * 1024 * 1024]);
        let region = mem.alloc_window(ZoneId(0), 4096, PAGE_SIZE_4K).unwrap();
        let p = params();
        p.write_to(&region, region.base()).unwrap();
        let back = CovirtBootParams::read_from(&region, region.base()).unwrap();
        assert_eq!(back, p);
        assert_eq!(back.cmdq_base(4), Some(HostPhysAddr::new(0x51000)));
        assert_eq!(back.cmdq_base(9), None);
    }

    #[test]
    fn cmdq_layout_fits_stride() {
        assert!(CMDQ_STRIDE >= CmdQueue::required_bytes());
        let base = HostPhysAddr::new(0x100000);
        assert_eq!(cmdq_addr(base, 0).raw(), 0x100000 + CMDQ_BASE_OFFSET);
        assert_eq!(
            cmdq_addr(base, 2).raw(),
            0x100000 + CMDQ_BASE_OFFSET + 2 * CMDQ_STRIDE
        );
    }
}
