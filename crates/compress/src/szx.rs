//! SZx-style ultra-fast error-bounded lossy compressor.
//!
//! This is a from-scratch Rust implementation of the SZx design (Yu et al.,
//! *Ultrafast Error-bounded Lossy Compression for Scientific Datasets*,
//! HPDC'22), the compressor the C-Coll paper selects for its collectives
//! after characterizing SZx, ZFP(ABS) and ZFP(FXR) (paper §III-C).
//!
//! ## Algorithm
//!
//! The input is split into fixed-size blocks (128 values by default, as in
//! SZx). Each block is classified:
//!
//! * **Constant block** — if every value lies within the error bound of the
//!   block midpoint, only the midpoint is stored (4 bytes for up to 128
//!   values). Smooth scientific fields are dominated by constant blocks,
//!   which is where SZx gets both its speed and its ratio.
//! * **Quantized block** — otherwise the values are encoded by
//!   block-floating-point quantization: `q = round((x − mid) / eb)` packed
//!   at the block-wide minimal bit width. Reconstruction is
//!   `x̂ = mid + q·eb`, so the pointwise error is at most `eb/2` plus one
//!   `f32` rounding step. (The reference SZx truncates IEEE mantissas to a
//!   block-wide required bit count; midpoint-relative quantization has the
//!   same block-adaptive precision behaviour while being branch-free in
//!   Rust. The deviation is documented in DESIGN.md.)
//! * **Verbatim block** — if the block contains non-finite values, if the
//!   quantization would need more than [`MAX_QUANT_BITS`] bits per value,
//!   or if a paranoid post-check finds a single value whose reconstruction
//!   violates the bound (possible only in extreme exponent ranges), the
//!   raw IEEE bits are stored. Verbatim blocks are lossless.
//!
//! The classification guarantees the contract checked by this module's
//! property tests: **every finite value is reconstructed within `eb`**.
//!
//! ## Stream layout
//!
//! ```text
//! magic  u32  "SZX1"
//! count  u64  number of f32 values
//! bsize  u16  block size in values
//! eb     f32  absolute error bound
//! body   bitstream of blocks (see [`encode_blocks`])
//! ```

use crate::bitstream::{BitReader, BitWriter};
use crate::bytecodec::{put_f32, put_u16, put_u32, put_u64, ByteReader};
use crate::dispatch::{self, Kernels, SimdLevel};
use crate::traits::{CodecKind, CompressError, Compressor, ReduceKind};

/// Stream magic: `"SZX1"` little-endian.
pub const SZX_MAGIC: u32 = 0x3158_5A53;

/// Default block size in values, matching the SZx reference implementation.
pub const DEFAULT_BLOCK: usize = 128;

/// Maximum bit width for quantized blocks; blocks needing more are stored
/// verbatim (they would not compress anyway).
pub const MAX_QUANT_BITS: u32 = 28;

const TAG_CONSTANT: u32 = 0;
const TAG_QUANTIZED: u32 = 1;
const TAG_VERBATIM: u32 = 2;

/// SZx-style codec configured with an absolute error bound.
#[derive(Debug, Clone, Copy)]
pub struct SzxCodec {
    error_bound: f32,
    block_size: usize,
    dispatch: SimdLevel,
}

impl SzxCodec {
    /// Create a codec with the given absolute error bound and the default
    /// block size of 128 values.
    ///
    /// # Panics
    /// Panics if `error_bound` is not finite and positive.
    pub fn new(error_bound: f32) -> Self {
        Self::with_block_size(error_bound, DEFAULT_BLOCK)
    }

    /// Create a codec with an explicit block size (values per block).
    ///
    /// # Panics
    /// Panics if `error_bound` is not finite and positive, or if
    /// `block_size` is zero or exceeds [`MAX_BLOCK`].
    fn with_block_size(error_bound: f32, block_size: usize) -> Self {
        assert!(
            error_bound.is_finite() && error_bound > 0.0,
            "error bound must be finite and positive, got {error_bound}"
        );
        assert!(
            (1..=4096).contains(&block_size),
            "block size must be in 1..=4096, got {block_size}"
        );
        Self {
            error_bound,
            block_size,
            dispatch: SimdLevel::Auto,
        }
    }

    /// Pin the SIMD dispatch level for this codec instance (default
    /// [`SimdLevel::Auto`]). Levels never change stream contents, only
    /// throughput — this exists so benchmarks and differential tests can
    /// exercise both paths in one process.
    pub fn with_dispatch(mut self, level: SimdLevel) -> Self {
        self.dispatch = level;
        self
    }

    /// The configured absolute error bound.
    pub fn error_bound(&self) -> f32 {
        self.error_bound
    }

    /// The configured block size in values.
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// The number of values `stream` holds, read from its header without
    /// decoding it: a fused fold insists on exactly that many, so a
    /// caller that cannot trust the count checks it first.
    pub fn stream_values(stream: &[u8]) -> Result<usize, CompressError> {
        open(stream).map(|(count, ..)| count)
    }

    /// Decode a whole stream into `dst` the way `land` says.
    fn decode_slice(
        &self,
        stream: &[u8],
        land: Land<'_>,
        dst: &mut [f32],
    ) -> Result<(), CompressError> {
        let (count, block_size, eb, mut bits) = open(stream)?;
        land.check_count(count, dst.len())?;
        let k = dispatch::kernels(self.dispatch);
        let mut scratch = BlockScratch::new();
        decode_blocks(&mut bits, land, eb, block_size, k, &mut scratch, dst)
    }
}

/// Header length of an SZx stream in bytes.
pub(crate) const SZX_HEADER_BYTES: usize = 4 + 8 + 2 + 4;

/// Parse and validate a stream header: `(count, block_size, eb)` and a
/// bit reader over the block body.
fn open(stream: &[u8]) -> Result<(usize, usize, f32, BitReader<'_>), CompressError> {
    let mut r = ByteReader::new(stream);
    if r.read_u32()? != SZX_MAGIC {
        return Err(CompressError::BadMagic);
    }
    let count = r.read_u64()? as usize;
    let block_size = r.read_u16()? as usize;
    if !(1..=MAX_BLOCK).contains(&block_size) {
        return Err(CompressError::CorruptHeader);
    }
    let eb = r.read_f32()?;
    if !(eb.is_finite() && eb > 0.0) {
        return Err(CompressError::CorruptHeader);
    }
    Ok((count, block_size, eb, BitReader::new(r.remaining())))
}

/// Worst-case encoded size of `len` values at `block_size`, excluding any
/// container header. Every block is bounded by the larger of its verbatim
/// form (2-bit tag + 32 bits/value) and its widest quantized form (2-bit
/// tag + 32-bit midpoint + 5-bit width + [`MAX_QUANT_BITS`] bits/value).
pub(crate) fn worst_case_body_bytes(len: usize, block_size: usize) -> usize {
    let full = len / block_size;
    let rem = len % block_size;
    let block_bits = |b: usize| -> usize {
        if b == 0 {
            0
        } else {
            (2 + 32 * b).max(2 + 32 + 5 + MAX_QUANT_BITS as usize * b)
        }
    };
    (full * block_bits(block_size) + block_bits(rem)).div_ceil(8)
}

impl Compressor for SzxCodec {
    fn compress(&self, data: &[f32]) -> Result<Vec<u8>, CompressError> {
        // A modest reservation (raw size) rather than the worst case:
        // the returned Vec keeps its capacity, and callers of the
        // allocating path often retain many streams. The zero-allocation
        // path (`compress_into` with a warmed scratch) is unaffected.
        let mut out = Vec::with_capacity(SZX_HEADER_BYTES + data.len());
        self.compress_into(data, &mut out)?;
        Ok(out)
    }

    fn decompress(&self, stream: &[u8]) -> Result<Vec<f32>, CompressError> {
        let mut out = Vec::new();
        self.decompress_into(stream, &mut out)?;
        Ok(out)
    }

    fn compress_into(&self, data: &[f32], out: &mut Vec<u8>) -> Result<(), CompressError> {
        out.clear();
        put_u32(out, SZX_MAGIC);
        put_u64(out, data.len() as u64);
        put_u16(out, self.block_size as u16);
        put_f32(out, self.error_bound);
        // Encode straight into the caller's buffer: no staging vector,
        // no final concatenation copy.
        let mut w = BitWriter::from_vec(std::mem::take(out));
        encode_blocks(
            data,
            self.error_bound,
            self.block_size,
            dispatch::kernels(self.dispatch),
            &mut w,
        );
        *out = w.into_bytes();
        Ok(())
    }

    fn decompress_into(&self, stream: &[u8], out: &mut Vec<f32>) -> Result<(), CompressError> {
        let (count, block_size, eb, mut bits) = open(stream)?;
        out.clear();
        out.reserve(count);
        let mut scratch = BlockScratch::new();
        decode_blocks_into(
            &mut bits,
            count,
            eb,
            block_size,
            dispatch::kernels(self.dispatch),
            &mut scratch,
            out,
        )
    }

    fn decompress_reduce_into(
        &self,
        stream: &[u8],
        op: ReduceKind,
        dst: &mut [f32],
        _scratch: &mut Vec<f32>,
    ) -> Result<(), CompressError> {
        self.decode_slice(stream, Land::Fold(op), dst)
    }

    fn decompress_reduce_from(
        &self,
        stream: &[u8],
        op: ReduceKind,
        src: &[f32],
        dst: &mut [f32],
        _scratch: &mut Vec<f32>,
    ) -> Result<(), CompressError> {
        assert_eq!(src.len(), dst.len(), "decompress-reduce length mismatch");
        self.decode_slice(stream, Land::FoldFrom(op, src), dst)
    }

    fn decompress_to(
        &self,
        stream: &[u8],
        dst: &mut [f32],
        _scratch: &mut Vec<f32>,
    ) -> Result<(), CompressError> {
        self.decode_slice(stream, Land::Store, dst)
    }

    fn max_compressed_bytes(&self, values: usize) -> usize {
        SZX_HEADER_BYTES + worst_case_body_bytes(values, self.block_size)
    }

    fn kind(&self) -> CodecKind {
        CodecKind::Szx {
            error_bound: self.error_bound,
        }
    }
}

/// Hard cap on the block size (values per block). Encoders enforce it in
/// [`SzxCodec::with_block_size`]; decoders reject larger headers so the
/// fixed-size [`BlockScratch`] always fits a whole block.
pub(crate) const MAX_BLOCK: usize = 4096;

/// Per-stream decode scratch: unpacked zigzag codes and reconstructed
/// values for one block at a time. Created once per stream (32 KiB of
/// stack) and reused across every block and chunk, so the dequantize
/// kernels get contiguous slices without any heap traffic.
pub(crate) struct BlockScratch {
    codes: [u32; MAX_BLOCK],
    vals: [f32; MAX_BLOCK],
}

impl BlockScratch {
    pub(crate) fn new() -> Self {
        Self {
            codes: [0; MAX_BLOCK],
            vals: [0.0; MAX_BLOCK],
        }
    }
}

/// Encode `data` as a sequence of blocks into `w`. This is the header-less
/// core shared with [`PipeSzx`](crate::pipe::PipeSzx).
pub(crate) fn encode_blocks(
    data: &[f32],
    eb: f32,
    block_size: usize,
    k: &Kernels,
    w: &mut BitWriter,
) {
    // One stack scratch shared by every block (the MAX_BLOCK cap is
    // enforced by `with_block_size`).
    let mut codes = [0u32; MAX_BLOCK];
    for block in data.chunks(block_size) {
        encode_block(block, eb, k, w, &mut codes[..block.len()]);
    }
}

/// Classify and encode one block. `codes` is caller-provided scratch of
/// exactly `block.len()` entries.
///
/// The analysis passes live in [`crate::dispatch`] (SIMD with a scalar
/// fallback, both branch-free accumulator-style loops); classification
/// decisions happen here, between passes.
fn encode_block(block: &[f32], eb: f32, k: &Kernels, w: &mut BitWriter, codes: &mut [u32]) {
    let eb64 = eb as f64;
    // Pass 1: block min/max + finiteness.
    let (mut min, mut max, finite) = k.minmax_finite(block);
    if !finite {
        write_verbatim(block, w);
        return;
    }
    if min == 0.0 && max == 0.0 {
        // All-zero block. The kernels leave the *sign* of a ±0 min/max
        // unspecified (lane order changes which zero survives a tie), and
        // the sign would leak into the stored midpoint when both extremes
        // are -0.0. Pin it to the first element so every dispatch level
        // emits the same stream.
        min = block[0];
        max = block[0];
    }
    let (min, max) = (min as f64, max as f64);
    // Midpoint as the value actually stored (an f32), so the radius check
    // accounts for the f32 rounding of the midpoint itself.
    let mid = (0.5 * (min + max)) as f32;
    let mid64 = mid as f64;
    let radius = (max - mid64).abs().max((min - mid64).abs());
    if radius <= eb64 {
        w.write_bits(TAG_CONSTANT as u64, 2);
        w.write_bits(mid.to_bits() as u64, 32);
        return;
    }
    // Quantized block: q = round((x - mid)/eb), error ≤ eb/2 (+ f32 cast).
    let needed = radius / eb64 + 1.0;
    let bits_estimate = needed.log2().ceil() as i64 + 2; // sign + headroom
    if bits_estimate > MAX_QUANT_BITS as i64 {
        write_verbatim(block, w);
        return;
    }
    // Pass 2: quantize + zigzag (see `dispatch` for the kernel contract;
    // `ok` clears on code overflow or a reconstruction outside the bound).
    let (z_or, ok) = k.quantize(block, mid, eb, codes);
    if !ok {
        write_verbatim(block, w);
        return;
    }
    let m = (32 - z_or.leading_zeros()).max(1);
    w.write_bits(TAG_QUANTIZED as u64, 2);
    w.write_bits(mid.to_bits() as u64, 32);
    w.write_bits((m - 1) as u64, 5);
    // Pass 3: pack. Pairing halves the `write_bits` calls; 2m ≤ 56 bits
    // always fits one staging word.
    let mut pairs = codes.chunks_exact(2);
    for pair in &mut pairs {
        let packed = pair[0] as u64 | ((pair[1] as u64) << m);
        w.write_bits(packed, 2 * m);
    }
    if let [last] = pairs.remainder() {
        w.write_bits(*last as u64, m);
    }
}

#[inline]
fn write_verbatim(block: &[f32], w: &mut BitWriter) {
    w.write_bits(TAG_VERBATIM as u64, 2);
    // Pack two IEEE words per staging word.
    let mut pairs = block.chunks_exact(2);
    for pair in &mut pairs {
        let packed = pair[0].to_bits() as u64 | ((pair[1].to_bits() as u64) << 32);
        w.write_bits(packed, 64);
    }
    if let [last] = pairs.remainder() {
        w.write_bits(last.to_bits() as u64, 32);
    }
}

/// Unpack the pair-packed zigzag codes of one quantized block into
/// `codes`. Mirror of the paired pack loop: one `read_bits` per two
/// values.
#[inline]
fn read_codes(r: &mut BitReader<'_>, m: u32, codes: &mut [u32]) -> Result<(), CompressError> {
    let mask = (1u64 << m) - 1;
    let mut pairs = codes.chunks_exact_mut(2);
    for pair in &mut pairs {
        let packed = r.read_bits(2 * m).map_err(|_| CompressError::Truncated)?;
        pair[0] = (packed & mask) as u32;
        pair[1] = (packed >> m) as u32;
    }
    if let [last] = pairs.into_remainder() {
        *last = r.read_bits(m).map_err(|_| CompressError::Truncated)? as u32;
    }
    Ok(())
}

/// Decode `count` values written by [`encode_blocks`], appending to `out`.
///
/// Quantized blocks are decoded in two stages — serial bit-unpack into
/// `scratch.codes`, then the dispatched dequantize kernel into
/// `scratch.vals` — so the reconstruction arithmetic runs lane-parallel
/// over a whole block while the bitstream cursor stays sequential.
pub(crate) fn decode_blocks_into(
    r: &mut BitReader<'_>,
    count: usize,
    eb: f32,
    block_size: usize,
    k: &Kernels,
    scratch: &mut BlockScratch,
    out: &mut Vec<f32>,
) -> Result<(), CompressError> {
    debug_assert!(block_size <= MAX_BLOCK);
    let end = out.len() + count;
    while out.len() < end {
        let len = block_size.min(end - out.len());
        let tag = r.read_bits(2).map_err(|_| CompressError::Truncated)? as u32;
        match tag {
            TAG_CONSTANT => {
                let mid = read_f32(r)?;
                // `resize` lowers to a memset-style fill.
                out.resize(out.len() + len, mid);
            }
            TAG_QUANTIZED => {
                let mid = read_f32(r)?;
                let m = (r.read_bits(5).map_err(|_| CompressError::Truncated)? as u32) + 1;
                read_codes(r, m, &mut scratch.codes[..len])?;
                k.dequantize(&scratch.codes[..len], mid, eb, &mut scratch.vals[..len]);
                out.extend_from_slice(&scratch.vals[..len]);
            }
            TAG_VERBATIM => {
                read_verbatim(r, &mut scratch.vals[..len])?;
                out.extend_from_slice(&scratch.vals[..len]);
            }
            _ => return Err(CompressError::CorruptHeader),
        }
    }
    Ok(())
}

/// What a slice decode ([`decode_blocks`]) does with each reconstructed
/// value `v`.
#[derive(Clone, Copy)]
pub(crate) enum Land<'a> {
    /// `dst[i] = v`.
    Store,
    /// `dst[i] = op.fold(dst[i], v)`.
    Fold(ReduceKind),
    /// `dst[i] = op.fold(src[i], v)`: each block of `dst` is seeded from
    /// `src` immediately before the in-place fold of that block runs on
    /// it, so the arithmetic is that of [`Land::Fold`] after a copy.
    FoldFrom(ReduceKind, &'a [f32]),
}

impl Land<'_> {
    /// A stream whose value `count` disagrees with the destination is an
    /// error for a plain store and a caller bug for the folds.
    pub(crate) fn check_count(&self, count: usize, dst_len: usize) -> Result<(), CompressError> {
        match self {
            Land::Store if count != dst_len => Err(CompressError::LengthMismatch),
            _ => {
                assert_eq!(count, dst_len, "decompress-reduce length mismatch");
                Ok(())
            }
        }
    }
}

#[inline]
fn read_f32(r: &mut BitReader<'_>) -> Result<f32, CompressError> {
    let bits = r.read_bits(32).map_err(|_| CompressError::Truncated)?;
    Ok(f32::from_bits(bits as u32))
}

/// Unpack the raw IEEE words of one verbatim block, two per read.
#[inline]
fn read_verbatim(r: &mut BitReader<'_>, vals: &mut [f32]) -> Result<(), CompressError> {
    let mut pairs = vals.chunks_exact_mut(2);
    for pair in &mut pairs {
        let packed = r.read_bits(64).map_err(|_| CompressError::Truncated)?;
        pair[0] = f32::from_bits(packed as u32);
        pair[1] = f32::from_bits((packed >> 32) as u32);
    }
    if let [last] = pairs.into_remainder() {
        *last = read_f32(r)?;
    }
    Ok(())
}

/// Slice variant of [`decode_blocks_into`]: decode `dst.len()` values
/// straight into `dst`, stored or folded as `land` says. In the folds
/// every reconstructed value is folded into `dst` as it is decoded, so
/// the quantized blocks never materialize outside a single-block
/// scratch. The reconstruction arithmetic (`x̂ = (mid + q·eb) as f32`,
/// then [`ReduceKind::fold`]) is identical to decode-then-apply, keeping
/// fused and unfused results bitwise equal.
pub(crate) fn decode_blocks(
    r: &mut BitReader<'_>,
    land: Land<'_>,
    eb: f32,
    block_size: usize,
    k: &Kernels,
    scratch: &mut BlockScratch,
    dst: &mut [f32],
) -> Result<(), CompressError> {
    debug_assert!(block_size <= MAX_BLOCK);
    let fold = match land {
        Land::Store => None,
        Land::Fold(op) | Land::FoldFrom(op, _) => Some(op),
    };
    let mut at = 0usize;
    while at < dst.len() {
        let len = block_size.min(dst.len() - at);
        let block = &mut dst[at..at + len];
        if let Land::FoldFrom(_, src) = land {
            block.copy_from_slice(&src[at..at + len]);
        }
        let tag = r.read_bits(2).map_err(|_| CompressError::Truncated)? as u32;
        match tag {
            TAG_CONSTANT => {
                let mid = read_f32(r)?;
                match fold {
                    Some(op) => k.fold_splat(op, block, mid),
                    None => block.fill(mid),
                }
            }
            TAG_QUANTIZED => {
                let mid = read_f32(r)?;
                let m = (r.read_bits(5).map_err(|_| CompressError::Truncated)? as u32) + 1;
                let codes = &mut scratch.codes[..len];
                read_codes(r, m, codes)?;
                match fold {
                    // Fused kernel: reconstruct and fold straight into
                    // the accumulator slice, no intermediate values.
                    Some(op) => k.dequantize_fold(codes, mid, eb, op, block),
                    None => k.dequantize(codes, mid, eb, block),
                }
            }
            TAG_VERBATIM => match fold {
                // Unpack into scratch, then fold with the same
                // dispatched kernel the unfused path uses.
                Some(op) => {
                    let vals = &mut scratch.vals[..len];
                    read_verbatim(r, vals)?;
                    k.fold_slice(op, block, vals);
                }
                None => read_verbatim(r, block)?,
            },
            _ => return Err(CompressError::CorruptHeader),
        }
        at += len;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::RoundTripStats;

    fn assert_bounded(data: &[f32], eb: f32) -> RoundTripStats {
        let codec = SzxCodec::new(eb);
        let c = codec.compress(data).unwrap();
        let d = codec.decompress(&c).unwrap();
        assert_eq!(d.len(), data.len());
        for (i, (&a, &b)) in data.iter().zip(&d).enumerate() {
            if a.is_finite() {
                assert!(
                    (a as f64 - b as f64).abs() <= eb as f64,
                    "index {i}: |{a} - {b}| > {eb}"
                );
            } else {
                assert_eq!(a.to_bits(), b.to_bits(), "non-finite at {i} must be exact");
            }
        }
        RoundTripStats::measure(data, &d, c.len())
    }

    #[test]
    fn empty_input() {
        let codec = SzxCodec::new(1e-3);
        let c = codec.compress(&[]).unwrap();
        let d = codec.decompress(&c).unwrap();
        assert!(d.is_empty());
    }

    #[test]
    fn single_value() {
        assert_bounded(&[42.125], 1e-4);
    }

    #[test]
    fn smooth_signal_compresses_well() {
        let data: Vec<f32> = (0..100_000).map(|i| (i as f32 * 1e-4).sin()).collect();
        let stats = assert_bounded(&data, 1e-3);
        assert!(
            stats.ratio > 8.0,
            "smooth data should compress >8x, got {:.2}",
            stats.ratio
        );
    }

    #[test]
    fn rough_signal_still_bounded() {
        // Deterministic pseudo-random noise spanning several magnitudes.
        let mut state = 0x1234_5678u32;
        let data: Vec<f32> = (0..10_000)
            .map(|_| {
                state = state.wrapping_mul(1664525).wrapping_add(1013904223);
                (state as f32 / u32::MAX as f32 - 0.5) * 100.0
            })
            .collect();
        assert_bounded(&data, 1e-2);
    }

    #[test]
    fn non_finite_values_preserved_exactly() {
        let mut data = vec![1.0f32; 300];
        data[5] = f32::NAN;
        data[150] = f32::INFINITY;
        data[299] = f32::NEG_INFINITY;
        let codec = SzxCodec::new(1e-3);
        let c = codec.compress(&data).unwrap();
        let d = codec.decompress(&c).unwrap();
        assert!(d[5].is_nan());
        assert_eq!(d[150], f32::INFINITY);
        assert_eq!(d[299], f32::NEG_INFINITY);
    }

    #[test]
    fn constant_block_is_tiny() {
        let data = vec![std::f32::consts::PI; 1280];
        let codec = SzxCodec::new(1e-3);
        let c = codec.compress(&data).unwrap();
        // 10 blocks * (2 bits tag + 32 bits mean) + 18-byte header ≈ 61 B.
        assert!(
            c.len() < 80,
            "constant data should be ~34 bits/block, got {}",
            c.len()
        );
    }

    #[test]
    fn huge_dynamic_range_falls_back_to_verbatim() {
        let data = vec![1e30f32, -1e30, 1e-30, 0.0, 5.0, -7.0];
        assert_bounded(&data, 1e-6);
    }

    #[test]
    fn partial_final_block() {
        let data: Vec<f32> = (0..200).map(|i| i as f32 * 0.5).collect(); // 128 + 72
        assert_bounded(&data, 1e-2);
    }

    #[test]
    fn tighter_bound_means_bigger_stream() {
        let data: Vec<f32> = (0..50_000)
            .map(|i| (i as f32 * 3e-4).sin() * 10.0 + (i as f32 * 7e-3).cos())
            .collect();
        let loose = SzxCodec::new(1e-1).compress(&data).unwrap();
        let tight = SzxCodec::new(1e-5).compress(&data).unwrap();
        assert!(loose.len() < tight.len());
    }

    #[test]
    fn deterministic_output() {
        let data: Vec<f32> = (0..5000).map(|i| (i as f32).sqrt()).collect();
        let codec = SzxCodec::new(1e-3);
        assert_eq!(
            codec.compress(&data).unwrap(),
            codec.compress(&data).unwrap()
        );
    }

    #[test]
    fn bad_magic_rejected() {
        let codec = SzxCodec::new(1e-3);
        let mut c = codec.compress(&[1.0, 2.0]).unwrap();
        c[0] ^= 0xFF;
        assert_eq!(codec.decompress(&c).unwrap_err(), CompressError::BadMagic);
    }

    #[test]
    fn truncated_stream_rejected() {
        let data: Vec<f32> = (0..1000)
            .map(|i| (i as f32).ln_1p() * (i % 17) as f32)
            .collect();
        let codec = SzxCodec::new(1e-4);
        let c = codec.compress(&data).unwrap();
        let cut = &c[..c.len() - 10];
        assert_eq!(codec.decompress(cut).unwrap_err(), CompressError::Truncated);
    }

    #[test]
    fn custom_block_size() {
        let data: Vec<f32> = (0..999).map(|i| (i as f32 * 0.01).cos()).collect();
        for bs in [1usize, 7, 64, 999, 2048] {
            let codec = SzxCodec::with_block_size(1e-3, bs);
            let c = codec.compress(&data).unwrap();
            let d = codec.decompress(&c).unwrap();
            for (&a, &b) in data.iter().zip(&d) {
                assert!((a - b).abs() <= 1e-3);
            }
        }
    }

    #[test]
    fn dispatch_levels_agree_on_stream_bytes() {
        let mut data: Vec<f32> = (0..5000).map(|i| (i as f32 * 3e-3).sin() * 7.0).collect();
        data.extend(std::iter::repeat_n(0.0f32, 200));
        data.extend(std::iter::repeat_n(-0.0f32, 200));
        data.push(f32::NAN);
        let reference = SzxCodec::new(1e-3)
            .with_dispatch(SimdLevel::Scalar)
            .compress(&data)
            .unwrap();
        for level in dispatch::available_levels() {
            let codec = SzxCodec::new(1e-3).with_dispatch(level);
            assert_eq!(
                codec.compress(&data).unwrap(),
                reference,
                "{level:?} encode diverged from scalar"
            );
            let d = codec.decompress(&reference).unwrap();
            let d_ref = SzxCodec::new(1e-3)
                .with_dispatch(SimdLevel::Scalar)
                .decompress(&reference)
                .unwrap();
            assert_eq!(
                d.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                d_ref.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "{level:?} decode diverged from scalar"
            );
        }
    }

    #[test]
    #[should_panic(expected = "error bound must be finite and positive")]
    fn zero_error_bound_panics() {
        SzxCodec::new(0.0);
    }

    #[test]
    fn fused_reduce_matches_decode_then_apply_bitwise() {
        // Mixed block population: constant runs, quantized waves, a
        // verbatim (non-finite) block and a partial tail.
        let mut data: Vec<f32> = (0..1000).map(|i| (i as f32 * 7e-3).sin() * 4.0).collect();
        data.extend(std::iter::repeat_n(2.5f32, 300));
        data.push(f32::NAN);
        data.extend((0..77).map(|i| i as f32 * 1e4));
        let codec = SzxCodec::new(1e-3);
        let stream = codec.compress(&data).unwrap();
        let decoded = codec.decompress(&stream).unwrap();
        for op in [ReduceKind::Sum, ReduceKind::Max, ReduceKind::Min] {
            let acc: Vec<f32> = (0..data.len()).map(|i| (i as f32 * 0.3).cos()).collect();
            let mut expect = acc.clone();
            for (d, &v) in expect.iter_mut().zip(&decoded) {
                *d = op.fold(*d, v);
            }
            let mut fused = acc.clone();
            let mut scratch = Vec::new();
            codec
                .decompress_reduce_into(&stream, op, &mut fused, &mut scratch)
                .unwrap();
            assert!(scratch.is_empty(), "native kernel must not touch scratch");
            for (i, (a, b)) in fused.iter().zip(&expect).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "{op:?} diverged at {i}");
            }
        }
    }

    #[test]
    fn fused_reduce_rejects_corrupt_streams() {
        let codec = SzxCodec::new(1e-3);
        let mut c = codec.compress(&[1.0f32; 64]).unwrap();
        let mut dst = vec![0.0f32; 64];
        let mut scratch = Vec::new();
        assert_eq!(
            codec
                .decompress_reduce_into(&c[..c.len() - 2], ReduceKind::Sum, &mut dst, &mut scratch)
                .unwrap_err(),
            CompressError::Truncated
        );
        c[0] ^= 0xFF;
        assert_eq!(
            codec
                .decompress_reduce_into(&c, ReduceKind::Sum, &mut dst, &mut scratch)
                .unwrap_err(),
            CompressError::BadMagic
        );
    }

    #[test]
    fn stream_values_reads_the_header_count() {
        let c = SzxCodec::new(1e-3).compress(&[1.0f32; 10]).unwrap();
        assert_eq!(SzxCodec::stream_values(&c), Ok(10));
        assert_eq!(
            SzxCodec::stream_values(&c[..5]).unwrap_err(),
            CompressError::Truncated
        );
    }

    #[test]
    #[should_panic(expected = "decompress-reduce length mismatch")]
    fn fused_reduce_rejects_wrong_destination_length() {
        let codec = SzxCodec::new(1e-3);
        let c = codec.compress(&[1.0f32; 10]).unwrap();
        let mut dst = vec![0.0f32; 9];
        let _ = codec.decompress_reduce_into(&c, ReduceKind::Sum, &mut dst, &mut Vec::new());
    }
}
