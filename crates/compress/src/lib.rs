//! # ccoll-compress
//!
//! Error-bounded lossy compressors purpose-built for compression-integrated
//! MPI collectives, reproducing the compression layer of the C-Coll paper
//! (*An Optimized Error-controlled MPI Collective Framework Integrated with
//! Lossy Compression*, IPDPS 2024).
//!
//! The crate provides three codecs:
//!
//! * [`szx`] — a from-scratch Rust reimplementation of the SZx design
//!   (Yu et al., HPDC'22): fixed-size blocks, constant-block detection, and
//!   block-floating-point quantization of non-constant blocks with a strict
//!   absolute error guarantee. This is the codec the paper selects for
//!   C-Coll after its compressor characterization (paper §III-C).
//! * [`pipe`] — **PIPE-SZx**, the paper's pipelined redesign of SZx
//!   (paper §III-E2): the input is compressed in independent chunks of 5120
//!   values, chunk sizes are stored in an index *at the front* of the output
//!   buffer, and a user-supplied progress callback is invoked between
//!   chunks so that non-blocking communication can be polled while the
//!   compression kernel runs.
//! * [`zfp`] — a from-scratch 1-D transform codec following the ZFP design
//!   (Lindstrom 2014): blocks of four values, block-floating-point
//!   alignment, a reversible-in-spirit decorrelating lifting transform,
//!   negabinary mapping and embedded group-tested bit-plane coding. Both
//!   the fixed-rate (FXR) and fixed-accuracy (ABS) modes used as baselines
//!   in the paper are implemented.
//!
//! All codecs operate on `f32` slices because the paper's datasets (RTM,
//! Hurricane-ISABEL, CESM-ATM) are single-precision, and operate in 1-D
//! mode because MPI collectives see flat byte streams (paper §III-C: "We
//! adopt the 1D compression mode in that the dimensional information will
//! have to be skipped due to the 1D chunk-wise design in most of the MPI
//! collectives").
//!
//! ## Error-bound contract
//!
//! For every error-bounded mode, decompression reconstructs `x̂` such that
//! `|x − x̂| ≤ eb` for every finite input value `x` — this invariant is
//! enforced by unit tests and property tests, and it is what makes the
//! error-propagation theory of the paper (§III-B) applicable.
//!
//! ```
//! use ccoll_compress::{szx::SzxCodec, Compressor};
//!
//! let data: Vec<f32> = (0..10_000).map(|i| (i as f32 * 0.001).sin()).collect();
//! let codec = SzxCodec::new(1e-3);
//! let compressed = codec.compress(&data).unwrap();
//! let restored = codec.decompress(&compressed).unwrap();
//! for (a, b) in data.iter().zip(&restored) {
//!     assert!((a - b).abs() <= 1e-3 + f32::EPSILON);
//! }
//! assert!(compressed.len() < data.len() * 4);
//! ```
//!
//! ## Performance architecture
//!
//! The codec hot loop is the critical path of the whole system, so it is
//! engineered in three layers (full details and measured GB/s in the
//! repository's `DESIGN.md`):
//!
//! 1. **Word-level bitstream** ([`bitstream`]) — a 64-bit-accumulator
//!    writer and 64-bit-window reader, byte-identical to the seed's
//!    scalar implementation (preserved in `bitstream::reference` as a
//!    differential oracle) but ~5× faster on quantized-block streams.
//! 2. **Zero-allocation API** — [`Compressor::compress_into`] /
//!    [`Compressor::decompress_into`] encode/decode straight into
//!    caller-owned [`CodecScratch`] buffers; once warmed, steady-state
//!    round trips perform zero heap allocations (pinned by a
//!    counting-allocator test). [`Compressor::decompress_to`] decodes
//!    into a caller's slice and
//!    [`Compressor::decompress_reduce_from`] folds a stream onto a
//!    source into a destination (`dst = fold(src, decoded)`), so a
//!    consumer that knows where the values belong never decodes into a
//!    scratch and copies.
//! 3. **Branch-free block analysis** — SZx classifies blocks with
//!    accumulator-style flag passes (no early exits inside loops), and
//!    packs two codes per staging word.
//! 4. **Runtime-dispatched SIMD kernels** ([`dispatch`]) — the block
//!    analysis, dequantize, fused decompress-reduce and reduction-fold
//!    inner loops route through a per-CPU kernel table (AVX2 on x86-64,
//!    NEON folds on aarch64) detected once at startup, with the
//!    scalar loops kept as the always-available fallback and the
//!    differential oracle. Every level emits bitwise-identical streams;
//!    `CCOLL_SIMD=<level>` (`scalar` for the oracle) pins the whole
//!    process, and [`SzxCodec::with_dispatch`] pins one codec instance.
//!
//! ```
//! use ccoll_compress::{CodecScratch, Compressor, SzxCodec};
//!
//! let codec = SzxCodec::new(1e-3);
//! let mut scratch = CodecScratch::new();
//! let data = vec![1.0f32; 4096];
//! // First call warms the buffers; subsequent calls allocate nothing.
//! codec.compress_into(&data, &mut scratch.enc).unwrap();
//! codec.decompress_into(&scratch.enc, &mut scratch.dec).unwrap();
//! assert_eq!(scratch.dec.len(), data.len());
//! ```

#![warn(missing_docs)]

pub mod bitstream;
pub mod bytecodec;
pub mod dispatch;
pub mod lossless;
pub mod pipe;
pub mod szx;
pub mod traits;
pub mod zfp;

pub use dispatch::SimdLevel;
pub use lossless::LosslessCodec;
pub use pipe::PipeSzx;
pub use szx::SzxCodec;
pub use traits::{CodecKind, CodecScratch, CompressError, Compressor, ReduceKind, RoundTripStats};
pub use zfp::{ZfpCodec, ZfpMode};

/// Convert a slice of `f32` values into little-endian bytes.
///
/// Collectives move opaque byte payloads; this helper (together with
/// [`decode_f32s_vec`]) is the canonical boundary between typed data and the
/// wire representation used throughout the workspace.
pub fn f32s_to_bytes(values: &[f32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(values.len() * 4);
    encode_f32s_into(values, &mut out);
    out
}

/// Append the little-endian encoding of `values` to `out` — the
/// reusable-buffer counterpart of [`f32s_to_bytes`] used by the pooled
/// collective payload path (zero allocations on a warmed buffer).
pub fn encode_f32s_into(values: &[f32], out: &mut Vec<u8>) {
    #[cfg(target_endian = "little")]
    {
        // The in-memory representation already is the wire format: one
        // memcpy instead of a per-element encode loop.
        // SAFETY: any &[f32] is readable as bytes; len*4 == size_of_val.
        let raw =
            unsafe { std::slice::from_raw_parts(values.as_ptr().cast::<u8>(), values.len() * 4) };
        out.extend_from_slice(raw);
    }
    #[cfg(target_endian = "big")]
    {
        out.reserve(values.len() * 4);
        for v in values {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }
}

/// Decode little-endian bytes into an existing `f32` slice — the
/// fixed-length counterpart of [`decode_f32s_vec`]. On little-endian
/// targets this is a single memcpy; every `u32` bit pattern is a valid
/// `f32`, so no per-element conversion is needed.
///
/// # Panics
/// Panics if `bytes.len() != dst.len() * 4`.
pub fn decode_f32s_into(bytes: &[u8], dst: &mut [f32]) {
    assert_eq!(bytes.len(), dst.len() * 4, "payload/destination mismatch");
    #[cfg(target_endian = "little")]
    {
        // SAFETY: lengths match exactly (asserted above), the regions
        // cannot overlap (&[u8] vs &mut [f32]), and any bit pattern is a
        // valid f32.
        unsafe {
            std::ptr::copy_nonoverlapping(
                bytes.as_ptr(),
                dst.as_mut_ptr().cast::<u8>(),
                bytes.len(),
            );
        }
    }
    #[cfg(target_endian = "big")]
    for (v, c) in dst.iter_mut().zip(bytes.chunks_exact(4)) {
        *v = f32::from_le_bytes([c[0], c[1], c[2], c[3]]);
    }
}

/// Decode little-endian bytes into a reusable vector, resized to fit.
/// Unlike `resize`-then-decode, the vector's contents are **not**
/// zero-initialized before being overwritten — the decode is a single
/// pass (one memcpy on little-endian targets).
///
/// # Panics
/// Panics if `bytes.len()` is not a multiple of four.
pub fn decode_f32s_vec(bytes: &[u8], out: &mut Vec<f32>) {
    assert!(
        bytes.len().is_multiple_of(4),
        "byte buffer length {} is not a multiple of 4",
        bytes.len()
    );
    let n = bytes.len() / 4;
    out.clear();
    out.reserve(n);
    #[cfg(target_endian = "little")]
    {
        // SAFETY: capacity ≥ n after the reserve; the copy initializes
        // exactly the n elements set_len exposes; any bit pattern is a
        // valid f32.
        unsafe {
            std::ptr::copy_nonoverlapping(
                bytes.as_ptr(),
                out.as_mut_ptr().cast::<u8>(),
                bytes.len(),
            );
            out.set_len(n);
        }
    }
    #[cfg(target_endian = "big")]
    out.extend(
        bytes
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]])),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f32_byte_round_trip() {
        let vals = vec![0.0f32, -1.5, f32::MAX, f32::MIN_POSITIVE, 3.25e-9];
        let bytes = f32s_to_bytes(&vals);
        assert_eq!(bytes.len(), vals.len() * 4);
        let mut back = Vec::new();
        decode_f32s_vec(&bytes, &mut back);
        assert_eq!(vals, back);
    }

    #[test]
    fn empty_round_trip() {
        assert!(f32s_to_bytes(&[]).is_empty());
        let mut back = vec![1.0];
        decode_f32s_vec(&[], &mut back);
        assert!(back.is_empty());
    }

    #[test]
    #[should_panic(expected = "multiple of 4")]
    fn odd_byte_buffer_panics() {
        decode_f32s_vec(&[1, 2, 3], &mut Vec::new());
    }
}
