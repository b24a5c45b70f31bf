//! Fixed-layout binary codec for structures that live in simulated guest
//! memory (boot parameters, ring slots, page-frame lists).
//!
//! Pisces passes its boot parameters and control messages as C structs in
//! physical memory. We reproduce that with a tiny explicit word codec
//! rather than an in-process object graph, so the simulated software really
//! does read its configuration out of enclave RAM.

use covirt_simhw::addr::{HostPhysAddr, PhysRange};
use covirt_simhw::memory::MemWindow;
use covirt_simhw::HwError;

/// Largest record [`read_record`] accepts; the length word is written by
/// the other side.
const MAX_RECORD: u64 = 1 << 20;

/// Store `bytes` at `addr` behind a length word, so the record can be read
/// back without out-of-band size knowledge. `window` must hold all of it.
pub fn write_record(window: &MemWindow, addr: HostPhysAddr, bytes: &[u8]) -> Result<(), HwError> {
    // Check the whole extent first: a record that does not fit writes
    // nothing, not just its length.
    let record = window.sub(PhysRange::new(addr, 8 + bytes.len() as u64))?;
    record.write_u64(addr, bytes.len() as u64)?;
    record.write_bytes(addr.add(8), bytes)
}

/// Read back what [`write_record`] stored at `addr`.
pub fn read_record(window: &MemWindow, addr: HostPhysAddr) -> Result<Vec<u8>, WireError> {
    let len = window.read_u64(addr).map_err(|_| WireError)?;
    if len == 0 || len > MAX_RECORD {
        return Err(WireError);
    }
    let mut buf = vec![0u8; len as usize];
    let body = addr.checked_add(8).ok_or(WireError)?;
    window.read_bytes(body, &mut buf).map_err(|_| WireError)?;
    Ok(buf)
}

/// Append-only little-endian word writer.
#[derive(Default)]
pub struct WireWriter {
    buf: Vec<u8>,
}

impl WireWriter {
    /// Fresh writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a u64.
    pub fn put_u64(&mut self, v: u64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Append a length-prefixed list of u64s.
    pub fn put_u64_list(&mut self, vs: &[u64]) -> &mut Self {
        self.put_u64(vs.len() as u64);
        for &v in vs {
            self.put_u64(v);
        }
        self
    }

    /// Append a length-prefixed UTF-8 string, padded to a word boundary.
    pub fn put_str(&mut self, s: &str) -> &mut Self {
        self.put_u64(s.len() as u64);
        self.buf.extend_from_slice(s.as_bytes());
        while !self.buf.len().is_multiple_of(8) {
            self.buf.push(0);
        }
        self
    }

    /// Finish, returning the encoded bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// Sequential reader over wire-encoded bytes.
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

/// Decoding failure (truncated or malformed buffer).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireError;

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "malformed wire data")
    }
}

impl std::error::Error for WireError {}

impl<'a> WireReader<'a> {
    /// Read from `buf` starting at offset 0.
    pub fn new(buf: &'a [u8]) -> Self {
        WireReader { buf, pos: 0 }
    }

    /// Read a u64.
    pub fn get_u64(&mut self) -> Result<u64, WireError> {
        let end = self.pos.checked_add(8).ok_or(WireError)?;
        let bytes = self.buf.get(self.pos..end).ok_or(WireError)?;
        let word = <[u8; 8]>::try_from(bytes).map_err(|_| WireError)?;
        self.pos = end;
        Ok(u64::from_le_bytes(word))
    }

    /// Read a length-prefixed list of u64s.
    pub fn get_u64_list(&mut self) -> Result<Vec<u64>, WireError> {
        let n = self.get_u64()? as usize;
        // Sanity bound: no legitimate structure has a billion entries.
        if n > self.buf.len() / 8 {
            return Err(WireError);
        }
        (0..n).map(|_| self.get_u64()).collect()
    }

    /// Read a length-prefixed string (with its pad).
    pub fn get_str(&mut self) -> Result<String, WireError> {
        let n = self.get_u64()? as usize;
        let end = self.pos.checked_add(n).ok_or(WireError)?;
        let bytes = self.buf.get(self.pos..end).ok_or(WireError)?;
        let s = std::str::from_utf8(bytes)
            .map_err(|_| WireError)?
            .to_owned();
        self.pos = end.div_ceil(8) * 8;
        if self.pos > self.buf.len() {
            return Err(WireError);
        }
        Ok(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_list_and_str() {
        let mut w = WireWriter::new();
        w.put_u64_list(&[1, 2, 3]).put_str("kitten.bin").put_u64(9);
        let bytes = w.finish();
        let mut r = WireReader::new(&bytes);
        assert_eq!(r.get_u64_list().unwrap(), vec![1, 2, 3]);
        assert_eq!(r.get_str().unwrap(), "kitten.bin");
        assert_eq!(r.get_u64().unwrap(), 9);
    }

    #[test]
    fn truncated_fails() {
        let mut w = WireWriter::new();
        w.put_u64(1);
        let bytes = w.finish();
        let mut r = WireReader::new(&bytes[..4]);
        assert_eq!(r.get_u64(), Err(WireError));
    }

    #[test]
    fn absurd_list_length_rejected() {
        let mut w = WireWriter::new();
        w.put_u64(u64::MAX);
        let bytes = w.finish();
        let mut r = WireReader::new(&bytes);
        assert_eq!(r.get_u64_list(), Err(WireError));
    }

    #[test]
    fn str_padding_keeps_alignment() {
        let mut w = WireWriter::new();
        w.put_str("abc").put_u64(9);
        let bytes = w.finish();
        assert_eq!(bytes.len(), 8 + 8 + 8, "length, padded body, next word");
        let mut r = WireReader::new(&bytes);
        assert_eq!(r.get_str().unwrap(), "abc");
        assert_eq!(r.get_u64().unwrap(), 9);
        assert_eq!(r.get_u64(), Err(WireError), "nothing left over");
    }
}
