//! Small byte-level serialization helpers shared by the codec headers.
//!
//! Codec containers need to store counts, error bounds and chunk-size
//! indices. These helpers keep the header formats explicit and in one
//! place, with checked reads that surface truncation as
//! [`CompressError::Truncated`](crate::traits::CompressError).

use crate::traits::CompressError;

/// A cursor for checked little-endian reads from a byte slice.
#[derive(Debug, Clone)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Create a reader positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> &'a [u8] {
        &self.buf[self.pos..]
    }

    /// Current read offset.
    pub fn position(&self) -> usize {
        self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CompressError> {
        let end = self.pos.checked_add(n).ok_or(CompressError::Truncated)?;
        if end > self.buf.len() {
            return Err(CompressError::Truncated);
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// Read a `u8`.
    pub fn read_u8(&mut self) -> Result<u8, CompressError> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian `u16`.
    pub fn read_u16(&mut self) -> Result<u16, CompressError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Read a little-endian `u32`.
    pub fn read_u32(&mut self) -> Result<u32, CompressError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Read a little-endian `u64`.
    pub fn read_u64(&mut self) -> Result<u64, CompressError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Read a little-endian `f32`.
    pub fn read_f32(&mut self) -> Result<f32, CompressError> {
        Ok(f32::from_bits(self.read_u32()?))
    }

    /// Read `n` raw bytes.
    pub fn read_slice(&mut self, n: usize) -> Result<&'a [u8], CompressError> {
        self.take(n)
    }
}

/// Append a little-endian `u16`.
pub fn put_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Append a little-endian `u32`.
pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Append a little-endian `u64`.
pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Append a little-endian `f32`.
pub fn put_f32(buf: &mut Vec<u8>, v: f32) {
    put_u32(buf, v.to_bits());
}

/// Overwrite a previously reserved little-endian `u32` at `offset`.
///
/// Used by [`PipeSzx`](crate::pipe::PipeSzx) to patch the chunk-size index
/// at the front of the buffer after the chunk payloads have been appended —
/// the paper's "pre-allocate enough memory space at the front of the buffer
/// for storing the compressed data sizes" design (§III-E2).
pub fn patch_u32(buf: &mut [u8], offset: usize, v: u32) {
    buf[offset..offset + 4].copy_from_slice(&v.to_le_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trips() {
        let mut buf = Vec::new();
        put_u16(&mut buf, 0xBEEF);
        put_u32(&mut buf, 0xDEAD_BEEF);
        put_u64(&mut buf, 0x0123_4567_89AB_CDEF);
        put_f32(&mut buf, -1.25);
        let mut r = ByteReader::new(&buf);
        assert_eq!(r.read_u16().unwrap(), 0xBEEF);
        assert_eq!(r.read_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.read_u64().unwrap(), 0x0123_4567_89AB_CDEF);
        assert_eq!(r.read_f32().unwrap(), -1.25);
        assert!(r.remaining().is_empty());
    }

    #[test]
    fn truncation_errors() {
        let buf = [1u8, 2, 3];
        let mut r = ByteReader::new(&buf);
        assert!(r.read_u16().is_ok());
        assert_eq!(r.read_u32().unwrap_err(), CompressError::Truncated);
        // Cursor must not move on failure past the end.
        assert_eq!(r.position(), 2);
        assert_eq!(r.read_u8().unwrap(), 3);
    }

    #[test]
    fn patching() {
        let mut buf = vec![0u8; 8];
        patch_u32(&mut buf, 4, 0xAABB_CCDD);
        let mut r = ByteReader::new(&buf);
        assert_eq!(r.read_u32().unwrap(), 0);
        assert_eq!(r.read_u32().unwrap(), 0xAABB_CCDD);
    }
}
