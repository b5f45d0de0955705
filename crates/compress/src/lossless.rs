//! A lossless baseline codec, standing in for the gzip/zstd class.
//!
//! The paper motivates lossy compression by noting that lossless methods
//! achieve "significantly lower compression ratios … when applied to
//! scientific datasets" (§II). To let the benchmark harness demonstrate
//! that claim without external dependencies, this module implements a
//! compact lossless scheme tailored to floating-point streams:
//!
//! 1. **Byte transposition** — the four byte planes of the f32 stream
//!    are separated (sign/exponent bytes correlate strongly across
//!    neighbouring values; mantissa bytes look random);
//! 2. **XOR-delta** within each plane (neighbouring scientific values
//!    share prefixes, so deltas concentrate near zero);
//! 3. **Run-length + varint entropy packing** of the delta planes (long
//!    zero runs become two bytes).
//!
//! On smooth scientific data this yields ratios of ~1.5–3× — an order of
//! magnitude below error-bounded lossy ratios, which is precisely the
//! paper's point. Round-trips are bit-exact.

use crate::bytecodec::{put_u32, put_u64, ByteReader};
use crate::traits::{CodecKind, CompressError, Compressor};

/// Stream magic: `"LSL1"` little-endian.
pub const LOSSLESS_MAGIC: u32 = 0x314C_534C;

/// Lossless floating-point codec (byte transpose + delta + RLE).
#[derive(Debug, Clone, Copy, Default)]
pub struct LosslessCodec;

impl LosslessCodec {
    /// Create the codec.
    pub fn new() -> Self {
        LosslessCodec
    }
}

/// Encode one byte plane: XOR-delta then RLE of zeros.
///
/// Output grammar: a sequence of ops — `0x00 <varint n>` meaning `n`
/// zero bytes, or `<len u8 != 0> <len literal bytes>` for a literal run
/// (the length byte stores `len`, max 255).
fn encode_plane(plane: &[u8], out: &mut Vec<u8>) {
    // Deltas are computed on the fly while scanning runs, so no
    // intermediate delta buffer is materialized. A zero delta is simply
    // `plane[i] == prev`.
    let mut i = 0;
    let mut prev = 0u8;
    while i < plane.len() {
        if plane[i] == prev {
            let mut n = 0usize;
            while i < plane.len() && plane[i] == prev {
                n += 1;
                i += 1;
            }
            out.push(0x00);
            put_varint(out, n as u64);
        } else {
            let len_at = out.len();
            out.push(0); // literal-run length, patched below
            let mut run = 0usize;
            while i < plane.len() && plane[i] != prev && run < 255 {
                out.push(plane[i] ^ prev);
                prev = plane[i];
                i += 1;
                run += 1;
            }
            out[len_at] = run as u8;
        }
    }
}

fn decode_plane(
    r: &mut ByteReader<'_>,
    len: usize,
    deltas: &mut Vec<u8>,
) -> Result<(), CompressError> {
    deltas.clear();
    deltas.reserve(len);
    while deltas.len() < len {
        let op = r.read_u8()?;
        if op == 0 {
            let n = read_varint(r)? as usize;
            if deltas.len() + n > len {
                return Err(CompressError::CorruptHeader);
            }
            deltas.resize(deltas.len() + n, 0u8);
        } else {
            let lits = r.read_slice(op as usize)?;
            if deltas.len() + lits.len() > len {
                return Err(CompressError::CorruptHeader);
            }
            deltas.extend_from_slice(lits);
        }
    }
    // Undo the XOR-delta.
    let mut prev = 0u8;
    for d in deltas.iter_mut() {
        *d ^= prev;
        prev = *d;
    }
    Ok(())
}

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

fn read_varint(r: &mut ByteReader<'_>) -> Result<u64, CompressError> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let b = r.read_u8()?;
        v |= ((b & 0x7F) as u64) << shift;
        if b & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
        if shift >= 64 {
            return Err(CompressError::CorruptHeader);
        }
    }
}

/// Parse a stream header: the value count and a reader over the planes.
fn open(stream: &[u8]) -> Result<(usize, ByteReader<'_>), CompressError> {
    let mut r = ByteReader::new(stream);
    if r.read_u32()? != LOSSLESS_MAGIC {
        return Err(CompressError::BadMagic);
    }
    Ok((r.read_u64()? as usize, r))
}

/// Decode the four byte planes through one reusable buffer, scattering
/// each plane's bytes into the zeroed values of `out` in place.
fn decode_planes(r: &mut ByteReader<'_>, out: &mut [f32]) -> Result<(), CompressError> {
    let n = out.len();
    let mut plane = Vec::with_capacity(n);
    for p in 0..4 {
        let plen = r.read_u64()? as usize;
        let body = r.read_slice(plen)?;
        let mut pr = ByteReader::new(body);
        plane.clear();
        decode_plane(&mut pr, n, &mut plane)?;
        for (v, &byte) in out.iter_mut().zip(&plane) {
            *v = f32::from_bits(v.to_bits() | (byte as u32) << (8 * p));
        }
    }
    Ok(())
}

impl Compressor for LosslessCodec {
    fn compress(&self, data: &[f32]) -> Result<Vec<u8>, CompressError> {
        let mut out = Vec::with_capacity(12 + data.len());
        self.compress_into(data, &mut out)?;
        Ok(out)
    }

    fn decompress(&self, stream: &[u8]) -> Result<Vec<f32>, CompressError> {
        let mut out = Vec::new();
        self.decompress_into(stream, &mut out)?;
        Ok(out)
    }

    fn compress_into(&self, data: &[f32], out: &mut Vec<u8>) -> Result<(), CompressError> {
        let n = data.len();
        out.clear();
        put_u32(out, LOSSLESS_MAGIC);
        put_u64(out, n as u64);
        // One reusable plane buffer: plane p is gathered by a strided
        // sweep (plane 3 = exponent-heavy MSB), delta+RLE encoded into
        // the output with its length patched afterwards.
        let mut plane = Vec::with_capacity(n);
        for p in 0..4 {
            plane.clear();
            plane.extend(data.iter().map(|v| v.to_le_bytes()[p]));
            let len_at = out.len();
            put_u64(out, 0);
            let body_start = out.len();
            encode_plane(&plane, out);
            let body_len = (out.len() - body_start) as u64;
            out[len_at..len_at + 8].copy_from_slice(&body_len.to_le_bytes());
        }
        Ok(())
    }

    fn decompress_into(&self, stream: &[u8], out: &mut Vec<f32>) -> Result<(), CompressError> {
        let (n, mut r) = open(stream)?;
        out.clear();
        out.resize(n, 0.0);
        decode_planes(&mut r, out)
    }

    fn decompress_to(
        &self,
        stream: &[u8],
        dst: &mut [f32],
        _scratch: &mut Vec<f32>,
    ) -> Result<(), CompressError> {
        let (n, mut r) = open(stream)?;
        if n != dst.len() {
            return Err(CompressError::LengthMismatch);
        }
        dst.fill(0.0);
        decode_planes(&mut r, dst)
    }

    fn kind(&self) -> CodecKind {
        CodecKind::None // lossless: exact; no error bound to report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(data: &[f32]) -> usize {
        let codec = LosslessCodec::new();
        let c = codec.compress(data).expect("compress");
        let d = codec.decompress(&c).expect("decompress");
        assert_eq!(data.len(), d.len());
        for (a, b) in data.iter().zip(&d) {
            assert_eq!(a.to_bits(), b.to_bits(), "lossless must be bit-exact");
        }
        c.len()
    }

    #[test]
    fn exact_on_all_value_classes() {
        round_trip(&[
            0.0,
            -0.0,
            1.5,
            f32::NAN,
            f32::INFINITY,
            f32::MIN_POSITIVE,
            -1e38,
        ]);
    }

    #[test]
    fn empty_input() {
        assert!(round_trip(&[]) > 0);
    }

    #[test]
    fn constant_data_compresses_hugely() {
        let data = vec![3.25f32; 100_000];
        let size = round_trip(&data);
        assert!(size < 1000, "constant data should collapse, got {size}");
    }

    #[test]
    fn smooth_data_compresses_modestly() {
        let data: Vec<f32> = (0..100_000).map(|i| (i as f32 * 1e-4).sin()).collect();
        let size = round_trip(&data);
        let ratio = (data.len() * 4) as f64 / size as f64;
        assert!(
            ratio > 1.1,
            "smooth data should compress some, got {ratio:.2}"
        );
        assert!(
            ratio < 10.0,
            "lossless can't reach lossy ratios on real-valued data, got {ratio:.2}"
        );
    }

    #[test]
    fn noise_does_not_explode() {
        let mut state = 1u32;
        let data: Vec<f32> = (0..50_000)
            .map(|_| {
                state = state.wrapping_mul(1664525).wrapping_add(1013904223);
                f32::from_bits((state >> 1) | 0x3F80_0000) // valid-ish floats
            })
            .collect();
        let size = round_trip(&data);
        // Worst case ~ n*4 + plane/run overhead; must stay below 1.3x.
        assert!(size < data.len() * 4 * 13 / 10, "noise blew up: {size}");
    }

    #[test]
    fn lossy_beats_lossless_on_scientific_data() {
        // The paper's §II claim, as a pinned test.
        use crate::szx::SzxCodec;
        let data: Vec<f32> = (0..200_000)
            .map(|i| (i as f32 * 3e-4).sin() * 2.0 + (i as f32 * 1e-3).cos())
            .collect();
        let lossless = LosslessCodec::new().compress(&data).expect("c").len();
        let lossy = SzxCodec::new(1e-3).compress(&data).expect("c").len();
        assert!(
            lossy * 2 < lossless,
            "error-bounded lossy should beat lossless by >2x: {lossy} vs {lossless}"
        );
    }

    #[test]
    fn truncated_stream_rejected() {
        let data: Vec<f32> = (0..1000).map(|i| i as f32).collect();
        let c = LosslessCodec::new().compress(&data).expect("c");
        assert!(LosslessCodec::new().decompress(&c[..c.len() - 3]).is_err());
    }

    #[test]
    fn varint_round_trip() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            let mut r = ByteReader::new(&buf);
            assert_eq!(read_varint(&mut r).unwrap(), v);
        }
    }
}
