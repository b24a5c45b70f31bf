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
//!
//! The parameters are a record of 64-bit words: a length word, then
//! [`BOOT_MAGIC`] and the fields ([`BootParams::encode`]).

use covirt_simhw::addr::{HostPhysAddr, PhysRange};
use covirt_simhw::memory::MemWindow;
use covirt_simhw::HwError;

/// First word of a Pisces boot-parameter record.
pub const BOOT_MAGIC: u64 = 0x5049_5343_4553_4250; // "PISCESBP"

/// Most words [`BootParams::read_from`] accepts: the length word is in
/// memory the co-kernel can write.
const MAX_WORDS: u64 = 1 << 17;

/// The boot-parameter structure transmitted to a co-kernel.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BootParams {
    /// The enclave's id.
    pub enclave_id: u64,
    /// Cores assigned to the enclave (boot core first).
    pub cores: Vec<u64>,
    /// Assigned memory regions as `(start, len)` pairs.
    pub mem_regions: Vec<(u64, u64)>,
    /// Physical base of the control channel shared region.
    pub ctrlchan_base: u64,
    /// Length of the control channel region.
    pub ctrlchan_len: u64,
    /// Region the kernel may carve page-table frames from
    /// (start, len) — inside the enclave's first memory region.
    pub pt_pool: (u64, u64),
}

/// A boot-parameter record that is missing, truncated or malformed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BadParams;

impl BootParams {
    /// The structure as words: [`BOOT_MAGIC`], the id, each list behind
    /// its length, then the fixed fields.
    pub fn encode(&self) -> Vec<u64> {
        let mut w = vec![BOOT_MAGIC, self.enclave_id, self.cores.len() as u64];
        w.extend(&self.cores);
        w.push(self.mem_regions.len() as u64);
        w.extend(self.mem_regions.iter().flat_map(|&(s, l)| [s, l]));
        w.extend([
            self.ctrlchan_base,
            self.ctrlchan_len,
            self.pt_pool.0,
            self.pt_pool.1,
        ]);
        w
    }

    /// Read back what [`BootParams::encode`] produced. A list ends at the
    /// record's end at the latest: a length past it is refused once the
    /// words run out, and nothing is allocated for words that are not
    /// there.
    pub fn decode(words: &[u64]) -> Result<Self, BadParams> {
        let mut words = words.iter().copied();
        let mut next = || words.next().ok_or(BadParams);
        if next()? != BOOT_MAGIC {
            return Err(BadParams);
        }
        let enclave_id = next()?;
        let cores = (0..next()?)
            .map(|_| next())
            .collect::<Result<_, BadParams>>()?;
        let mem_regions = (0..next()?)
            .map(|_| Ok((next()?, next()?)))
            .collect::<Result<_, BadParams>>()?;
        Ok(BootParams {
            enclave_id,
            cores,
            mem_regions,
            ctrlchan_base: next()?,
            ctrlchan_len: next()?,
            pt_pool: (next()?, next()?),
        })
    }

    /// Write the structure at `addr` of a window onto the enclave's
    /// management region: a length word, then [`BootParams::encode`]'s
    /// words. A record the window does not hold entirely writes nothing.
    pub fn write_to(&self, window: &MemWindow, addr: HostPhysAddr) -> Result<(), HwError> {
        let words = self.encode();
        let len = words.len() as u64;
        let record = window.sub(PhysRange::new(addr, 8 * (1 + len)))?;
        for (i, word) in std::iter::once(len).chain(words).enumerate() {
            record.write_u64(addr.add(8 * i as u64), word)?;
        }
        Ok(())
    }

    /// Read a structure back from `addr` of a window.
    pub fn read_from(window: &MemWindow, addr: HostPhysAddr) -> Result<Self, BadParams> {
        let len = window.read_u64(addr).map_err(|_| BadParams)?;
        if len > MAX_WORDS {
            return Err(BadParams);
        }
        let words = (1..=len)
            .map(|i| {
                let at = addr.checked_add(8 * i).ok_or(BadParams)?;
                window.read_u64(at).map_err(|_| BadParams)
            })
            .collect::<Result<Vec<_>, _>>()?;
        Self::decode(&words)
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
            enclave_id: 3,
            cores: vec![4, 5],
            mem_regions: vec![(0x100_0000, 0x20_0000), (0x200_0000, 0x10_0000)],
            ctrlchan_base: 0x300_0000,
            ctrlchan_len: 0x1_0000,
            pt_pool: (0x100_0000, 0x10_0000),
        }
    }

    #[test]
    fn encode_decode_roundtrip() {
        let p = params();
        assert_eq!(BootParams::decode(&p.encode()).unwrap(), p);
    }

    #[test]
    fn bad_magic_rejected() {
        let mut words = params().encode();
        words[0] = 0x1234;
        assert!(BootParams::decode(&words).is_err());
    }

    /// Truncated records and list lengths past the words present are
    /// refused, never allocated for.
    #[test]
    fn truncated_and_absurd_lengths_are_refused() {
        let words = params().encode();
        for cut in 0..words.len() {
            assert_eq!(BootParams::decode(&words[..cut]), Err(BadParams), "{cut}");
        }
        for (at, n) in [(2, u64::MAX), (2, words.len() as u64), (5, u64::MAX)] {
            let mut bad = words.clone();
            bad[at] = n;
            assert_eq!(BootParams::decode(&bad), Err(BadParams), "[{at}] = {n}");
        }
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
        region.write_u64(region.base(), u64::MAX).unwrap();
        assert!(BootParams::read_from(&region, region.base()).is_err());
    }
}
