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
//!   block midpoint, only a base is stored (one base for up to 128 values).
//!   Smooth scientific fields are dominated by constant blocks, which is
//!   where SZx gets both its speed and its ratio.
//! * **Quantized block** — otherwise the values are encoded by
//!   block-floating-point quantization: `q = round((x − base) / eb)`
//!   packed at the block-wide minimal bit width, or, when that is
//!   shorter, delta-coded (see below). Reconstruction is
//!   `x̂ = base + q·eb`, so the pointwise error is at most `eb/2` plus one
//!   `f32` rounding step. (The reference SZx truncates IEEE mantissas to a
//!   block-wide required bit count; base-relative quantization has the
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
//! ## Grid-anchored bases
//!
//! A constant or quantized block's base is, whenever that costs the
//! block nothing, a point of the error-bound grid, `(k as f64 * eb as
//! f64) as f32`, and only `k` is stored: as the zigzag delta from the
//! previous base's `k`, Elias-gamma coded (a block's base sits a few grid
//! steps from its neighbour's on smooth data, so this takes a handful of
//! bits where a raw `f32` takes 32). The encoder tries the grid point
//! that centres the block — for a quantized block, the one that centres
//! its codes in the zigzag range, which can also save a code bit — then
//! the one nearest its midpoint, and keeps the first that keeps the
//! block's class (every value within `eb` of a constant base) and code
//! width; a block of one value only takes a grid point equal to it, so
//! it still round-trips exactly. A 1-bit escape stores an exact `f32` instead: the midpoint
//! when neither grid point qualifies or `|k|` exceeds 2⁵⁰,
//! the grid point's own value when its delta's code would be longer than
//! the escape. So a block never grows by more than that one bit, and its
//! base never depends on the blocks before it: a block reconstructs to
//! the same bits however a vector is cut into streams. Escaped bases
//! move the delta reference too, to the grid point nearest them. The
//! reference restarts at `k = 0` at the start of every stream and every
//! PIPE-SZx chunk, so each still decodes on its own.
//!
//! ## Delta-coded blocks
//!
//! On smooth data neighbouring codes differ by far less than the block's
//! range, so a quantized block may instead store `q_0` at the block's
//! width `m` and then `zigzag(q_i − q_{i−1})`, `i ≥ 1`, at their own
//! block-wide width `md` (cuSZ's dual-quantization, cuSZp's per-block
//! 1-D Lorenzo). The encoder takes this form only when its body is
//! strictly shorter, `5 + (n−1)·md < (n−1)·m` for a block of `n` values,
//! so no block grows. The codes `q_i` are the plain form's, so every
//! value reconstructs to the same bits: the quantize kernel writes both
//! the codes and their differences, and the dequantize kernels
//! prefix-sum the differences back in registers.
//!
//! ## Stream layout
//!
//! ```text
//! magic  u32  "SZX3"
//! count  u64  number of f32 values
//! bsize  u16  block size in values
//! eb     f32  absolute error bound
//! body   bitstream of blocks, LSB first:
//!   constant   tag 0 (2 bits)  base
//!   quantized  tag 1 (2 bits)  base  m−1 (5 bits)  zigzag codes (m bits each)
//!   verbatim   tag 2 (2 bits)  IEEE words (32 bits each)
//!   delta      tag 3 (2 bits)  base  m−1 (5 bits)  md−1 (5 bits)
//!              zigzag(q_0) (m bits)  zigzag(q_i − q_{i−1}) (md bits each)
//! base  0 (1 bit)  Elias-gamma of zigzag(k − previous k) + 1 (at most 31 bits)
//!     | 1 (1 bit)  the exact f32 base (32 bits)
//! ```

use crate::bitstream::{BitReader, BitWriter};
use crate::bytecodec::{put_f32, put_u16, put_u32, put_u64, ByteReader};
use crate::dispatch::{self, Kernels, SimdLevel};
use crate::traits::{CodecKind, CompressError, Compressor, ReduceKind};

/// Stream magic: `"SZX3"` little-endian (delta-coded blocks; `"SZX2"`
/// had grid-anchored bases but only plain quantized blocks, and `"SZX1"`
/// stored every base as a raw `f32`).
pub const SZX_MAGIC: u32 = 0x3358_5A53;

/// Default block size in values, matching the SZx reference implementation.
pub const DEFAULT_BLOCK: usize = 128;

/// Maximum bit width for quantized blocks; blocks needing more are stored
/// verbatim (they would not compress anyway).
pub const MAX_QUANT_BITS: u32 = 28;

const TAG_CONSTANT: u32 = 0;
const TAG_QUANTIZED: u32 = 1;
const TAG_VERBATIM: u32 = 2;
const TAG_DELTA: u32 = 3;

/// Largest grid index `|k|` a base is stored as; a base more than 2⁵⁰
/// error bounds from zero is escaped (`k` stays an exact `f64` integer,
/// and the encoder's rounding of `k` estimates stays exact).
const GRID_LIMIT: i64 = 1 << 50;

/// Bit length of the longest Elias-gamma code a grid base may use: a
/// gamma code of `n < 2¹⁶` is at most 31 bits, so flag plus code never
/// exceed the 33-bit escape.
const GAMMA_MAX_LEN: u32 = 16;

/// Bits of an escaped base: the flag and the raw `f32`.
const ESCAPE_BITS: u32 = 33;

/// A constant or quantized block's base as stored: a grid point or the
/// escaped exact value.
#[derive(Clone, Copy)]
enum Base {
    Grid(i64),
    Exact(f32),
}

#[inline]
fn zigzag64(d: i64) -> u64 {
    ((d << 1) ^ (d >> 63)) as u64
}

#[inline]
fn unzigzag64(z: u64) -> i64 {
    ((z >> 1) as i64) ^ -((z & 1) as i64)
}

/// `x.round_ties_even()` for `|x| < 2⁵¹`, in two additions: the FPU's
/// round-to-nearest-even does the rounding. The `f64` method is a libm
/// call on baseline x86-64, and the encoder rounds a few times per block.
#[inline]
fn round_even(x: f64) -> f64 {
    const SHIFT: f64 = (3u64 << 51) as f64;
    (x + SHIFT) - SHIFT
}

/// `|x|` below which [`round_even`] is exact.
const ROUND_EVEN_LIMIT: f64 = (1u64 << 51) as f64;

/// Bit length of `n ≥ 1`: its Elias-gamma code is `2·len − 1` bits.
#[inline]
fn gamma_len(n: u64) -> u32 {
    64 - n.leading_zeros()
}

/// The grid-anchored bases of one stream (or PIPE-SZx chunk): the
/// error-bound grid and the index of the last base written or read,
/// which the next grid base is delta-coded against.
struct Bases {
    eb: f64,
    /// `1 / eb`, the quantize kernel's own reciprocal.
    inv_eb: f64,
    prev: i64,
}

impl Bases {
    fn new(eb: f32) -> Self {
        let eb = eb as f64;
        Bases {
            eb,
            inv_eb: 1.0 / eb,
            prev: 0,
        }
    }

    /// The value of grid point `k`, computed identically by encoder and
    /// decoder.
    #[inline]
    fn grid(&self, k: i64) -> f32 {
        (k as f64 * self.eb) as f32
    }

    /// The value the decoder reconstructs a block around.
    #[inline]
    fn value(&self, base: Base) -> f32 {
        match base {
            Base::Grid(k) => self.grid(k),
            Base::Exact(v) => v,
        }
    }

    /// The base the encoder stores for a block centred on `mid`: a grid
    /// point whose value `keeps` accepts (the block keeps its class and
    /// width around it), or else the escaped `mid`. Candidates, in
    /// order: the index nearest `centre` (in units of `eb`, the middle of
    /// the indices `keeps` accepts), then the one nearest `mid`. Neither
    /// depends on the previous base, so a block is reconstructed the same
    /// however a stream is cut into sub-streams.
    #[inline]
    fn snap(&self, mid: f32, centre: f64, keeps: impl Fn(f32) -> bool) -> Base {
        let near = mid as f64 * self.inv_eb;
        let limit = GRID_LIMIT as f64;
        // `!(a <= b)` also rejects a NaN.
        if !(near.abs() <= limit && centre.abs() <= limit) {
            return Base::Exact(mid);
        }
        let (centre, near) = (round_even(centre) as i64, round_even(near) as i64);
        if keeps(self.grid(centre)) {
            Base::Grid(centre)
        } else if near != centre && keeps(self.grid(near)) {
            Base::Grid(near)
        } else {
            Base::Exact(mid)
        }
    }

    /// The grid index an escaped base moves the delta reference to.
    #[inline]
    fn anchor(&self, v: f32) -> i64 {
        let k = (v as f64 * self.inv_eb).round_ties_even();
        k.clamp(-(GRID_LIMIT as f64), GRID_LIMIT as f64) as i64
    }

    /// The code of `base` (its bits, LSB first, and their count), and
    /// move the delta reference past it. A grid point whose delta has no
    /// short code is escaped as its own value, which the block was
    /// checked around.
    #[inline]
    fn code(&mut self, base: Base) -> (u64, u32) {
        let v = match base {
            Base::Grid(k) => {
                let n = zigzag64(k - self.prev) + 1;
                let len = gamma_len(n);
                if len <= GAMMA_MAX_LEN {
                    // Flag 0, then gamma(n): `len − 1` zeros, a one, and
                    // the low `len − 1` bits of `n`.
                    let low = n & ((1 << (len - 1)) - 1);
                    self.prev = k;
                    return ((1 << len) | (low << (len + 1)), 2 * len);
                }
                self.grid(k)
            }
            Base::Exact(v) => v,
        };
        self.prev = self.anchor(v);
        (1 | ((v.to_bits() as u64) << 1), ESCAPE_BITS)
    }

    /// Parse a base coded by [`Bases::code`] from the low bits of
    /// `head`, move the delta reference past it, and return its value
    /// and bit length. `None`: a gamma code longer than any encoder
    /// writes.
    #[inline]
    fn read(&mut self, head: u64) -> Option<(f32, u32)> {
        if head & 1 == 1 {
            let v = f32::from_bits((head >> 1) as u32);
            self.prev = self.anchor(v);
            return Some((v, ESCAPE_BITS));
        }
        let gamma = head >> 1;
        let len = gamma.trailing_zeros() + 1;
        if len > GAMMA_MAX_LEN {
            return None;
        }
        let n = (1 << (len - 1)) | ((gamma >> len) & ((1 << (len - 1)) - 1));
        self.prev = self.prev.wrapping_add(unzigzag64(n - 1));
        Some((self.grid(self.prev), 2 * len))
    }

    /// Code width the quantize kernel picks for a block spanning
    /// `[min, max]` around `base`, or `None` if a code would overflow
    /// it. Quantization is monotone in `x`, so the extremes carry the
    /// widest codes; the arithmetic is the kernel's own.
    #[inline]
    fn quant_width(&self, min: f32, max: f32, base: f32) -> Option<u32> {
        let base = base as f64;
        let (lo, hi) = (
            (min as f64 - base) * self.inv_eb,
            (max as f64 - base) * self.inv_eb,
        );
        if !(lo.abs() < ROUND_EVEN_LIMIT && hi.abs() < ROUND_EVEN_LIMIT) {
            return None;
        }
        let (lo, hi) = (round_even(lo), round_even(hi));
        if !(lo.abs() < dispatch::QUANT_LIMIT && hi.abs() < dispatch::QUANT_LIMIT) {
            return None;
        }
        let z = dispatch::zigzag(lo as i32).max(dispatch::zigzag(hi as i32));
        Some((32 - z.leading_zeros()).max(1))
    }
}

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
/// tag + 33-bit base, the escape being the longest base code + 5-bit
/// width + [`MAX_QUANT_BITS`] bits/value).
pub(crate) fn worst_case_body_bytes(len: usize, block_size: usize) -> usize {
    let full = len / block_size;
    let rem = len % block_size;
    let block_bits = |b: usize| -> usize {
        if b == 0 {
            0
        } else {
            (2 + 32 * b).max(2 + ESCAPE_BITS as usize + 5 + MAX_QUANT_BITS as usize * b)
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
/// core shared with [`PipeSzx`](crate::pipe::PipeSzx); the grid bases'
/// delta reference starts at `k = 0` on every call.
pub(crate) fn encode_blocks(
    data: &[f32],
    eb: f32,
    block_size: usize,
    k: &Kernels,
    w: &mut BitWriter,
) {
    encode_blocks_as(data, eb, block_size, k, w, true);
}

/// [`encode_blocks`], with the delta form allowed or not: the plain
/// stream is the tests' oracle for the delta form's reconstruction.
fn encode_blocks_as(
    data: &[f32],
    eb: f32,
    block_size: usize,
    k: &Kernels,
    w: &mut BitWriter,
    delta: bool,
) {
    // One stack scratch of codes and of their differences shared by
    // every block (the MAX_BLOCK cap is enforced by `with_block_size`).
    let mut codes = [0u32; MAX_BLOCK];
    let mut deltas = [0u32; MAX_BLOCK];
    let mut bases = Bases::new(eb);
    for block in data.chunks(block_size) {
        let n = block.len();
        let scratch = (&mut codes[..n], &mut deltas[..n]);
        encode_block(block, eb, k, w, scratch, &mut bases, delta);
    }
}

/// Classify and encode one block. `(codes, deltas)` is caller-provided
/// scratch of exactly `block.len()` entries each; `bases` is the
/// stream's base state (see the module docs); `delta` allows the delta
/// form.
///
/// The analysis passes live in [`crate::dispatch`] (SIMD with a scalar
/// fallback, both branch-free accumulator-style loops); classification
/// decisions happen here, between passes.
fn encode_block(
    block: &[f32],
    eb: f32,
    k: &Kernels,
    w: &mut BitWriter,
    (codes, deltas): (&mut [u32], &mut [u32]),
    bases: &mut Bases,
    delta: bool,
) {
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
        // the sign would leak into an escaped midpoint when both extremes
        // are -0.0. Pin it to the first element so every dispatch level
        // emits the same stream.
        min = block[0];
        max = block[0];
    }
    let (min64, max64) = (min as f64, max as f64);
    // Midpoint as an f32 base, so the radius check accounts for the f32
    // rounding of the midpoint itself.
    let mid = (0.5 * (min64 + max64)) as f32;
    let radius = |base: f32| {
        let b = base as f64;
        (max64 - b).abs().max((min64 - b).abs())
    };
    if radius(mid) <= eb64 {
        // Every base in [max − eb, min + eb] keeps the block constant:
        // that span is centred on the midpoint. A block of one value keeps
        // it exactly, as a raw base did; a grid point holds it only if it
        // is that value (zero always is).
        let centre = mid as f64 * bases.inv_eb;
        let keeps = |b: f32| match min == max {
            true => b.to_bits() == mid.to_bits(),
            false => radius(b) <= eb64,
        };
        let base = bases.snap(mid, centre, keeps);
        // Tag and base in one write: at most 2 + 33 bits.
        let (code, len) = bases.code(base);
        w.write_bits(TAG_CONSTANT as u64 | code << 2, 2 + len);
        return;
    }
    // Quantized block: q = round((x - base)/eb), error ≤ eb/2 (+ f32 cast).
    let needed = radius(mid) / eb64 + 1.0;
    let bits_estimate = needed.log2().ceil() as i64 + 2; // sign + headroom
    if bits_estimate > MAX_QUANT_BITS as i64 {
        write_verbatim(block, w);
        return;
    }
    let Some(width) = bases.quant_width(min, max, mid) else {
        write_verbatim(block, w);
        return;
    };
    // Width-m codes hold q in [−h − 1, h], and q = round(x/eb − k): the
    // width holds for k in (max/eb − h − 0.5, min/eb + h + 1.5). The
    // middle of that span, mid/eb + 0.5, centres the codes in the zigzag
    // range, which can take a code bit off the midpoint's width.
    let centre = mid as f64 * bases.inv_eb + 0.5;
    let keeps = |b: f32| bases.quant_width(min, max, b).is_some_and(|m| m <= width);
    let mut base = bases.snap(mid, centre, keeps);
    // Pass 2: quantize + zigzag, codes and first differences (see
    // `dispatch` for the kernel contract; `ok` clears on code overflow
    // or a reconstruction outside the bound).
    let (mut z_or, mut d_or, mut ok) = k.quantize(block, bases.value(base), eb, codes, deltas);
    if !ok && matches!(base, Base::Grid(_)) {
        base = Base::Exact(mid);
        (z_or, d_or, ok) = k.quantize(block, mid, eb, codes, deltas);
    }
    if !ok {
        write_verbatim(block, w);
        return;
    }
    let m = code_width(z_or);
    debug_assert!(m <= width, "the base widened the block: {m} > {width}");
    let (code, len) = bases.code(base);
    // The delta form stores `q_0` at width m and the n − 1 differences at
    // their own width md, behind a second width field: taken only when
    // that is strictly shorter, so no block grows.
    let (md, rest) = (code_width(d_or), block.len() - 1);
    if delta && 5 + rest * (md as usize) < rest * (m as usize) {
        // Tag, base and both widths in one write: at most 2 + 33 + 10 bits.
        let head = TAG_DELTA as u64
            | code << 2
            | ((m - 1) as u64) << (2 + len)
            | ((md - 1) as u64) << (2 + len + 5);
        w.write_bits(head, 2 + len + 10);
        // `deltas[0]` is `q_0`'s own code.
        w.write_bits(deltas[0] as u64, m);
        write_codes(&deltas[1..], md, w);
        return;
    }
    // Tag, base and width in one write: at most 2 + 33 + 5 bits.
    let head = TAG_QUANTIZED as u64 | code << 2 | ((m - 1) as u64) << (2 + len);
    w.write_bits(head, 2 + len + 5);
    write_codes(codes, m, w);
}

/// Bits of the widest of the codes whose OR is `or`.
#[inline]
fn code_width(or: u32) -> u32 {
    (32 - or.leading_zeros()).max(1)
}

/// Pass 3: pack codes of width `m`, LSB first, as many to a
/// `write_bits` call as one 64-bit staging word holds: four when
/// `m ≤ 16` (the delta form's differences and most smooth blocks), else
/// two (2m ≤ 56).
#[inline]
fn write_codes(codes: &[u32], m: u32, w: &mut BitWriter) {
    match m {
        ..=16 => write_groups::<4>(codes, m, w),
        _ => write_groups::<2>(codes, m, w),
    }
}

#[inline]
fn write_groups<const K: usize>(codes: &[u32], m: u32, w: &mut BitWriter) {
    let mut groups = codes.chunks_exact(K);
    for group in &mut groups {
        let packed = group.iter().rev().fold(0, |acc, &c| acc << m | c as u64);
        w.write_bits(packed, K as u32 * m);
    }
    for &c in groups.remainder() {
        w.write_bits(c as u64, m);
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

/// Unpack the codes of one quantized block into `codes`: the zigzag
/// codes (`md` is `None`), or `q_0`'s code then the first differences at
/// width `md`, which `dequantize*` prefix-sum back.
#[inline]
fn read_block(
    r: &mut BitReader<'_>,
    m: u32,
    md: Option<u32>,
    codes: &mut [u32],
) -> Result<(), CompressError> {
    let Some(md) = md else {
        return read_codes(r, m, codes);
    };
    codes[0] = r.read_bits(m).map_err(|_| CompressError::Truncated)? as u32;
    read_codes(r, md, &mut codes[1..])
}

/// Unpack codes of width `m` into `codes`. Mirror of [`write_codes`]:
/// one `read_bits` per four values when `m ≤ 16`, else per two (a
/// corrupt width reads at most 2·32 bits).
#[inline]
fn read_codes(r: &mut BitReader<'_>, m: u32, codes: &mut [u32]) -> Result<(), CompressError> {
    match m {
        ..=16 => read_groups::<4>(r, m, codes),
        _ => read_groups::<2>(r, m, codes),
    }
}

#[inline]
fn read_groups<const K: usize>(
    r: &mut BitReader<'_>,
    m: u32,
    codes: &mut [u32],
) -> Result<(), CompressError> {
    let mask = (1u64 << m) - 1;
    let mut groups = codes.chunks_exact_mut(K);
    for group in &mut groups {
        let mut packed = r
            .read_bits(K as u32 * m)
            .map_err(|_| CompressError::Truncated)?;
        for c in group {
            *c = (packed & mask) as u32;
            packed >>= m;
        }
    }
    for c in groups.into_remainder() {
        *c = r.read_bits(m).map_err(|_| CompressError::Truncated)? as u32;
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
    let mut bases = Bases::new(eb);
    while out.len() < end {
        let len = block_size.min(end - out.len());
        match read_head(r, &mut bases)? {
            // `resize` lowers to a memset-style fill.
            Head::Constant(base) => out.resize(out.len() + len, base),
            Head::Quantized(base, m, md) => {
                let codes = &mut scratch.codes[..len];
                read_block(r, m, md, codes)?;
                k.dequantize(codes, base, eb, md.is_some(), &mut scratch.vals[..len]);
                out.extend_from_slice(&scratch.vals[..len]);
            }
            Head::Verbatim => {
                read_verbatim(r, &mut scratch.vals[..len])?;
                out.extend_from_slice(&scratch.vals[..len]);
            }
        }
    }
    Ok(())
}

/// A block's tag and base, as [`read_head`] parsed them.
enum Head {
    Constant(f32),
    /// The base, the code width and, in the delta form, the width of the
    /// differences.
    Quantized(f32, u32, Option<u32>),
    Verbatim,
}

/// Parse a block's tag, its base and (quantized) its code widths, all
/// from one peek: at most 2 + 33 + 10 bits.
#[inline]
fn read_head(r: &mut BitReader<'_>, bases: &mut Bases) -> Result<Head, CompressError> {
    let bits = r.peek_bits_padded(2 + ESCAPE_BITS + 10);
    let tag = (bits & 3) as u32;
    let width = |at: u32| ((bits >> at) & 31) as u32 + 1;
    let (head, used) = match tag {
        TAG_VERBATIM => (Head::Verbatim, 2),
        _ => {
            let Some((base, len)) = bases.read(bits >> 2) else {
                // Past the end the peek reads zeros, which look like an
                // overlong code.
                return Err(if r.remaining_bits() < (2 + ESCAPE_BITS) as usize {
                    CompressError::Truncated
                } else {
                    CompressError::CorruptHeader
                });
            };
            match tag {
                TAG_CONSTANT => (Head::Constant(base), 2 + len),
                TAG_QUANTIZED => (Head::Quantized(base, width(2 + len), None), 2 + len + 5),
                _ => (
                    Head::Quantized(base, width(2 + len), Some(width(2 + len + 5))),
                    2 + len + 10,
                ),
            }
        }
    };
    r.skip_bits(used).map_err(|_| CompressError::Truncated)?;
    Ok(head)
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
/// scratch. The reconstruction arithmetic (`x̂ = (base + q·eb) as f32`,
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
    let mut bases = Bases::new(eb);
    while at < dst.len() {
        let len = block_size.min(dst.len() - at);
        let block = &mut dst[at..at + len];
        if let Land::FoldFrom(_, src) = land {
            block.copy_from_slice(&src[at..at + len]);
        }
        match read_head(r, &mut bases)? {
            Head::Constant(base) => match fold {
                Some(op) => k.fold_splat(op, block, base),
                None => block.fill(base),
            },
            Head::Quantized(base, m, md) => {
                let codes = &mut scratch.codes[..len];
                read_block(r, m, md, codes)?;
                let delta = md.is_some();
                match fold {
                    // Fused kernel: reconstruct and fold straight into
                    // the accumulator slice, no intermediate values.
                    Some(op) => k.dequantize_fold(codes, base, eb, delta, op, block),
                    None => k.dequantize(codes, base, eb, delta, block),
                }
            }
            Head::Verbatim => match fold {
                // Unpack into scratch, then fold with the same
                // dispatched kernel the unfused path uses.
                Some(op) => {
                    let vals = &mut scratch.vals[..len];
                    read_verbatim(r, vals)?;
                    k.fold_slice(op, block, vals);
                }
                None => read_verbatim(r, block)?,
            },
        }
        at += len;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::RoundTripStats;
    use proptest::prelude::*;

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
        let codec = SzxCodec::new(1e-3);
        // Ten blocks of zeros: grid point 0 holds the value exactly, so
        // each block is its tag, the grid flag and the 1-bit code of a
        // zero delta: 40 bits.
        let c = codec.compress(&[0.0f32; 1280]).unwrap();
        assert_eq!(c.len(), SZX_HEADER_BYTES + 5);
        // Ten blocks of π: no grid point is exactly π, and a block of
        // one value keeps it exactly, so each base escapes: 35 bits.
        let data = vec![std::f32::consts::PI; 1280];
        let c = codec.compress(&data).unwrap();
        assert_eq!(c.len(), SZX_HEADER_BYTES + (10 * 35usize).div_ceil(8));
        assert_eq!(codec.decompress(&c).unwrap(), data);
        // Within eb of π but not one value: grid point 3142, the one
        // nearest π, codes in tag + flag + a 25-bit gamma code of
        // zigzag(3142) + 1 = 6285; the nine blocks after it repeat it in
        // tag + flag + the 1-bit code of a zero delta. 64 bits in all.
        let near: Vec<f32> = (0..1280)
            .map(|i| std::f32::consts::PI + (i % 3) as f32 * 1e-4)
            .collect();
        let c = codec.compress(&near).unwrap();
        assert_eq!(c.len(), SZX_HEADER_BYTES + 8);
        assert_bounded(&near, 1e-3);
    }

    #[test]
    fn escaped_bases_cost_one_bit_more_than_a_raw_f32() {
        // Constant blocks whose base jumps by 2⁴⁰·eb every block: no delta
        // has a short code, so each escapes: tag + flag + f32 = 35 bits.
        let eb = 1e-3f32;
        let far = (1u64 << 40) as f32 * eb;
        let data: Vec<f32> = (0..16 * 128)
            .map(|i| if (i / 128) % 2 == 0 { far } else { -far })
            .collect();
        let c = SzxCodec::new(eb).compress(&data).unwrap();
        assert_eq!(c.len(), SZX_HEADER_BYTES + (16 * 35usize).div_ceil(8));
        assert_bounded(&data, eb);
    }

    #[test]
    fn an_escape_moves_the_delta_reference() {
        // The first block sits 10¹² grid steps from 0 and escapes; the
        // second repeats it and codes a zero delta from the escaped base's
        // grid point: 35 + 4 bits.
        let data = vec![1e9f32; 256];
        let c = SzxCodec::new(1e-3).compress(&data).unwrap();
        assert_eq!(c.len(), SZX_HEADER_BYTES + (35usize + 4).div_ceil(8));
        assert_bounded(&data, 1e-3);
    }

    #[test]
    fn a_grid_base_never_widens_a_quantized_block() {
        // Blocks spanning just over a power-of-two number of steps: the
        // grid point nearest the midpoint can need one more code bit, so
        // the encoder takes another grid point or escapes.
        let eb = 1e-3f32;
        for span in [1.01f32, 2.99, 3.01, 6.99, 7.49, 15.3] {
            for offset in [0.0f32, 0.25, 0.5, 0.499, 7.77] {
                let data: Vec<f32> = (0..512)
                    .map(|i| (offset + span * (i % 128) as f32 / 127.0 + (i / 128) as f32) * eb)
                    .collect();
                assert_bounded(&data, eb);
                let c = SzxCodec::new(eb).compress(&data).unwrap();
                assert!(c.len() <= SzxCodec::new(eb).max_compressed_bytes(data.len()));
            }
        }
    }

    #[test]
    fn sub_streams_reconstruct_the_monolithic_values() {
        // A block's base never depends on the block before it, only its
        // code does: cut at block boundaries, each sub-stream restarts
        // the delta reference and decodes to the same bits.
        let data: Vec<f32> = (0..5000)
            .map(|i| (i as f32 * 2e-3).sin() * 3.0 + if i % 700 < 200 { 1e3 } else { 0.0 })
            .collect();
        let codec = SzxCodec::new(1e-3);
        let whole = codec.decompress(&codec.compress(&data).unwrap()).unwrap();
        for cut in [128, 384, 1280] {
            let pieces: Vec<f32> = data
                .chunks(cut)
                .flat_map(|c| codec.decompress(&codec.compress(c).unwrap()).unwrap())
                .collect();
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&pieces), bits(&whole), "cut {cut}");
        }
    }

    #[test]
    fn an_overlong_base_code_is_rejected() {
        let codec = SzxCodec::new(1e-3);
        let mut c = codec.compress(&[1.0f32; 128]).unwrap();
        // Constant tag, grid flag, then zeros: a gamma code longer than
        // any encoder writes.
        c.truncate(SZX_HEADER_BYTES);
        c.extend([0u8; 8]);
        assert_eq!(
            codec.decompress(&c).unwrap_err(),
            CompressError::CorruptHeader
        );
        c.truncate(SZX_HEADER_BYTES + 2);
        assert_eq!(codec.decompress(&c).unwrap_err(), CompressError::Truncated);
    }

    /// The stream `codec` writes for `data` without the delta form: the
    /// oracle for what a delta-coded stream must reconstruct.
    fn plain_stream(codec: &SzxCodec, data: &[f32]) -> Vec<u8> {
        let mut out = Vec::new();
        put_u32(&mut out, SZX_MAGIC);
        put_u64(&mut out, data.len() as u64);
        put_u16(&mut out, codec.block_size as u16);
        put_f32(&mut out, codec.error_bound);
        let mut w = BitWriter::from_vec(out);
        let k = dispatch::kernels(SimdLevel::Scalar);
        encode_blocks_as(data, codec.error_bound, codec.block_size, k, &mut w, false);
        w.into_bytes()
    }

    /// At every dispatch level: the stream is the scalar one, no longer
    /// than the plain stream nor than `max_compressed_bytes`, and it
    /// decodes (stored and folded) to the plain stream's bits. Returns
    /// the delta and the plain stream lengths.
    fn assert_reconstructs_plain(codec: SzxCodec, data: &[f32]) -> (usize, usize) {
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let plain = plain_stream(&codec, data);
        let want = codec.decompress(&plain).unwrap();
        let scalar = codec
            .with_dispatch(SimdLevel::Scalar)
            .compress(data)
            .unwrap();
        assert!(scalar.len() <= plain.len());
        assert!(scalar.len() <= codec.max_compressed_bytes(data.len()));
        for level in dispatch::available_levels() {
            let codec = codec.with_dispatch(level);
            assert_eq!(codec.compress(data).unwrap(), scalar, "{level:?} stream");
            assert_eq!(
                bits(&codec.decompress(&scalar).unwrap()),
                bits(&want),
                "{level:?}"
            );
            let (mut got, mut expect) = (vec![1.5f32; data.len()], vec![1.5f32; data.len()]);
            codec
                .decompress_reduce_into(&scalar, ReduceKind::Sum, &mut got, &mut Vec::new())
                .unwrap();
            for (e, &v) in expect.iter_mut().zip(&want) {
                *e = ReduceKind::Sum.fold(*e, v);
            }
            assert_eq!(bits(&got), bits(&expect), "{level:?} fold");
        }
        (scalar.len(), plain.len())
    }

    #[test]
    fn delta_blocks_reconstruct_the_plain_bits() {
        let eb = 1e-3f32;
        // Smooth waves at 1 to 4096 values per block, with tails of one
        // and two values.
        let wave: Vec<f32> = (0..2 * 128 + 2).map(|i| (i as f32 * 0.05).sin()).collect();
        for bs in [1usize, 2, 3, 7, 128, 4096] {
            let (delta, plain) =
                assert_reconstructs_plain(SzxCodec::with_block_size(eb, bs), &wave);
            // A block of one value has no difference to code; two values
            // need 5 + md < m.
            if bs == 1 {
                assert_eq!(delta, plain);
            }
            if bs >= 128 {
                assert!(delta < plain, "block size {bs}: {delta} >= {plain}");
            }
        }
        for tail in [129, 130] {
            assert_reconstructs_plain(SzxCodec::new(eb), &wave[..tail]);
        }
        // NaN/inf blocks stay verbatim beside delta-coded ones.
        let mut mixed = wave.clone();
        mixed[5] = f32::NAN;
        mixed[200] = f32::NEG_INFINITY;
        assert_reconstructs_plain(SzxCodec::new(eb), &mixed);
    }

    #[test]
    fn delta_form_is_taken_only_when_shorter() {
        let codec = SzxCodec::new(1.0);
        // A staircase down one step a value, 0 to −127: around grid point
        // −63 (a 14-bit base code) the codes 63…−64 need 7 bits plain,
        // and every difference is −1, 1 bit. Plain: tag, base, width and
        // 128·7 bits. Delta: tag, base, two widths, q₀'s 7 bits and 127
        // one-bit steps.
        let stair: Vec<f32> = (0..128).map(|i| -(i as f32)).collect();
        let (delta, plain) = assert_reconstructs_plain(codec, &stair);
        let head = 2 + 14 + 5;
        assert_eq!(plain, SZX_HEADER_BYTES + (head + 128 * 7usize).div_ceil(8));
        assert_eq!(
            delta,
            SZX_HEADER_BYTES + (head + 5 + 7 + 127usize).div_ceil(8)
        );
        // Alternating extremes: codes near ±2²⁶, the widest the classifier
        // keeps (27 bits), whose differences need 29 bits. The delta form
        // must lose, so the stream is the plain one.
        let far = ((1 << 26) - 8) as f32;
        let alternating: Vec<f32> = (0..128)
            .map(|i| if i % 2 == 0 { far } else { -far })
            .collect();
        let plain = plain_stream(&codec, &alternating);
        assert_eq!(
            plain.len(),
            SZX_HEADER_BYTES + (2 + 2 + 5 + 128 * 27usize).div_ceil(8)
        );
        assert_eq!(codec.compress(&alternating).unwrap(), plain);
        assert_reconstructs_plain(codec, &alternating);
        // A ramp across that whole range: 27-bit codes, 21-bit steps.
        let ramp: Vec<f32> = (0..128).map(|i| -far + (i * (1 << 20)) as f32).collect();
        let (delta, plain) = assert_reconstructs_plain(codec, &ramp);
        assert!(delta < plain, "{delta} >= {plain}");
    }

    #[test]
    fn older_stream_magics_rejected() {
        // Plain-block ("SZX2") and raw-base ("SZX1") streams are refused
        // by their magic, not misread as delta-coded blocks.
        let codec = SzxCodec::new(1e-3);
        let mut c = codec.compress(&[1.0, 2.0]).unwrap();
        for old in [b"SZX2", b"SZX1"] {
            c[..4].copy_from_slice(old);
            assert_eq!(codec.decompress(&c).unwrap_err(), CompressError::BadMagic);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        // Random walks with jumps: the delta stream decodes to the plain
        // stream's bits at every level and block size.
        #[test]
        fn delta_streams_reconstruct_the_plain_bits(
            steps in prop::collection::vec(-64i32..64, 1..700),
            jumps in prop::collection::vec(0usize..700, 0..4),
            bs in prop_oneof![1usize..9, 120usize..136],
            eb in prop_oneof![
                Just(1e-1f32),
                Just(1e-3f32),
                Just(1e-5f32),
            ],
        ) {
            let mut x = 0.0f64;
            let data: Vec<f32> = steps
                .iter()
                .enumerate()
                .map(|(i, &s)| {
                    x += s as f64 * 0.3 * eb as f64;
                    if jumps.contains(&i) {
                        x = -x * 1e3 - 7.0;
                    }
                    x as f32
                })
                .collect();
            assert_reconstructs_plain(SzxCodec::with_block_size(eb, bs), &data);
        }
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
