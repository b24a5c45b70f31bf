//! The enclave boot protocol: trampoline hand-off and boot parameters.
//!
//! Pisces boots a co-kernel by (1) writing a boot-parameter structure into
//! the enclave's memory, (2) pointing the target CPU's trampoline at the
//! kernel entry, and (3) kicking the CPU. The address of the parameter
//! structure is handed to the kernel in a register (RDI here).
//!
//! Covirt interposes on exactly this path: the CPU boots into its
//! hypervisor, which launches the co-kernel with *the unmodified Pisces
//! boot parameters* in the same register, so the co-kernel remains
//! oblivious. In the model the interposition is the hypervisor's
//! virtualization context existing when the cores start
//! ([`crate::hooks::EnclaveHooks::on_launch`] builds it); what the host
//! hands back from a launch is the one thing either entry path needs, the
//! parameters' address ([`BootPlan`]).

use crate::wire::{read_record, write_record, WireError, WireReader, WireWriter};
use covirt_simhw::addr::HostPhysAddr;
use covirt_simhw::memory::MemWindow;

/// Magic number identifying a Pisces boot-parameter structure.
pub const BOOT_MAGIC: u64 = 0x5049_5343_4553_4250; // "PISCESBP"

/// The boot-parameter structure transmitted to a co-kernel.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BootParams {
    /// Identifies the structure ([`BOOT_MAGIC`]).
    pub magic: u64,
    /// The enclave's id.
    pub enclave_id: u64,
    /// Name of the kernel image ("kitten" in the evaluation).
    pub kernel_name: String,
    /// Cores assigned to the enclave (boot core first).
    pub cores: Vec<u64>,
    /// Assigned memory regions as `(start, len)` pairs.
    pub mem_regions: Vec<(u64, u64)>,
    /// IPI vectors allocated to the enclave.
    pub ipi_vectors: Vec<u8>,
    /// Physical base of the control channel shared region.
    pub ctrlchan_base: u64,
    /// Length of the control channel region.
    pub ctrlchan_len: u64,
    /// Region the kernel may carve page-table frames from
    /// (start, len) — inside the enclave's first memory region.
    pub pt_pool: (u64, u64),
    /// Node TSC frequency for the kernel's timekeeping.
    pub tsc_hz: u64,
}

impl BootParams {
    /// Serialize into wire format.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = WireWriter::new();
        w.put_u64(self.magic)
            .put_u64(self.enclave_id)
            .put_str(&self.kernel_name)
            .put_u64_list(&self.cores);
        w.put_u64(self.mem_regions.len() as u64);
        for &(s, l) in &self.mem_regions {
            w.put_u64(s).put_u64(l);
        }
        w.put_u64_list(
            &self
                .ipi_vectors
                .iter()
                .map(|&v| v as u64)
                .collect::<Vec<_>>(),
        )
        .put_u64(self.ctrlchan_base)
        .put_u64(self.ctrlchan_len)
        .put_u64(self.pt_pool.0)
        .put_u64(self.pt_pool.1)
        .put_u64(self.tsc_hz);
        w.finish()
    }

    /// Deserialize from wire format.
    pub fn decode(buf: &[u8]) -> Result<Self, WireError> {
        let mut r = WireReader::new(buf);
        let magic = r.get_u64()?;
        if magic != BOOT_MAGIC {
            return Err(WireError);
        }
        let enclave_id = r.get_u64()?;
        let kernel_name = r.get_str()?;
        let cores = r.get_u64_list()?;
        let nregions = r.get_u64()? as usize;
        if nregions > 4096 {
            return Err(WireError);
        }
        let mut mem_regions = Vec::with_capacity(nregions);
        for _ in 0..nregions {
            mem_regions.push((r.get_u64()?, r.get_u64()?));
        }
        let ipi_vectors = r
            .get_u64_list()?
            .into_iter()
            .map(|v| u8::try_from(v).map_err(|_| WireError))
            .collect::<Result<Vec<u8>, _>>()?;
        Ok(BootParams {
            magic,
            enclave_id,
            kernel_name,
            cores,
            mem_regions,
            ipi_vectors,
            ctrlchan_base: r.get_u64()?,
            ctrlchan_len: r.get_u64()?,
            pt_pool: (r.get_u64()?, r.get_u64()?),
            tsc_hz: r.get_u64()?,
        })
    }

    /// Write the structure at `addr` of a window onto the enclave's
    /// management region (length-prefixed so it can be read back without
    /// out-of-band size knowledge).
    pub fn write_to(
        &self,
        window: &MemWindow,
        addr: HostPhysAddr,
    ) -> Result<(), covirt_simhw::HwError> {
        write_record(window, addr, &self.encode())
    }

    /// Read a structure back from `addr` of a window.
    pub fn read_from(window: &MemWindow, addr: HostPhysAddr) -> Result<Self, WireError> {
        Self::decode(&read_record(window, addr)?)
    }
}

/// What a launch hands the caller that drives the enclave's cores.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BootPlan {
    /// Where the Pisces boot parameters live: what each core's kernel
    /// entry is given in RDI, natively or by an interposed hypervisor.
    pub pisces_params_addr: HostPhysAddr,
}

#[cfg(test)]
mod tests {
    use super::*;
    use covirt_simhw::addr::PAGE_SIZE_4K;
    use covirt_simhw::memory::PhysMemory;
    use covirt_simhw::topology::ZoneId;

    fn params() -> BootParams {
        BootParams {
            magic: BOOT_MAGIC,
            enclave_id: 3,
            kernel_name: "kitten".into(),
            cores: vec![4, 5],
            mem_regions: vec![(0x100_0000, 0x20_0000), (0x200_0000, 0x10_0000)],
            ipi_vectors: vec![0x40, 0x41],
            ctrlchan_base: 0x300_0000,
            ctrlchan_len: 0x1_0000,
            pt_pool: (0x100_0000, 0x10_0000),
            tsc_hz: 1_700_000_000,
        }
    }

    #[test]
    fn encode_decode_roundtrip() {
        let p = params();
        assert_eq!(BootParams::decode(&p.encode()).unwrap(), p);
    }

    #[test]
    fn bad_magic_rejected() {
        let mut p = params();
        p.magic = 0x1234;
        assert!(BootParams::decode(&p.encode()).is_err());
    }

    #[test]
    fn memory_roundtrip() {
        let mem = PhysMemory::new(&[16 * 1024 * 1024]);
        let region = mem.alloc_window(ZoneId(0), 8192, PAGE_SIZE_4K).unwrap();
        let p = params();
        p.write_to(&region, region.base()).unwrap();
        let back = BootParams::read_from(&region, region.base()).unwrap();
        assert_eq!(back, p);
    }

    /// A record that would run past the window writes nothing at all.
    #[test]
    fn write_past_the_window_is_refused_whole() {
        let mem = PhysMemory::new(&[16 * 1024 * 1024]);
        let region = mem.alloc_window(ZoneId(0), 4096, PAGE_SIZE_4K).unwrap();
        let p = params();
        let last_words = region.base().add(4096 - 16);
        assert!(p.write_to(&region, last_words).is_err());
        assert_eq!(region.read_u64(last_words), Ok(0));
        assert!(BootParams::read_from(&region, region.base().add(4096)).is_err());
    }

    #[test]
    fn read_from_unwritten_memory_fails() {
        let mem = PhysMemory::new(&[16 * 1024 * 1024]);
        let region = mem.alloc_window(ZoneId(0), 4096, PAGE_SIZE_4K).unwrap();
        assert!(BootParams::read_from(&region, region.base()).is_err());
    }
}
