//! ZFP-style 1-D transform codec with fixed-rate and fixed-accuracy modes.
//!
//! A from-scratch Rust implementation following the design of ZFP
//! (Lindstrom, *Fixed-Rate Compressed Floating-Point Arrays*, TVCG 2014),
//! which the C-Coll paper uses — in both its fixed-rate (FXR) and
//! fixed-accuracy (ABS) modes — as the baseline compressor for CPR-P2P
//! collectives (paper §II-C, §III-C, §IV).
//!
//! Pipeline per block of four values:
//!
//! 1. **Block floating point** — align all four values to the largest
//!    exponent in the block and convert to 32-bit signed fixed point
//!    (scaled to 2^28 so the transform's ≤2-bit range expansion cannot
//!    overflow).
//! 2. **Decorrelating lifting transform** — ZFP's non-orthogonal 1-D
//!    transform (a lifted approximation of a 4-point DCT).
//! 3. **Negabinary mapping** — signed coefficients to unsigned so that
//!    small magnitudes have many leading zero bits.
//! 4. **Embedded bit-plane coding** — planes are emitted most-significant
//!    first with ZFP's unary run-length group test, so truncating the
//!    stream at any point yields the best rate-distortion prefix.
//!
//! The two paper-relevant behaviours are reproduced faithfully:
//!
//! * **`ZfpMode::FixedRate(r)`** spends *exactly* `4·r` bits per block.
//!   The compressed size is known a priori — convenient, as the paper
//!   notes — but the pointwise error is **unbounded** (paper §III-C:
//!   "the FXR mode cannot control the error bound, which may cause fairly
//!   high compression errors on some data points unexpectedly").
//! * **`ZfpMode::FixedAccuracy(eb)`** encodes bit planes down to a cutoff
//!   derived from `eb`, yielding variable-size blocks with a guaranteed
//!   absolute error bound. An encode-time verification falls back to a
//!   lossless verbatim block in pathological exponent ranges, making the
//!   bound unconditional.

use crate::bitstream::{BitReader, BitWriter};
use crate::bytecodec::{put_f32, put_u32, put_u64, ByteReader};
use crate::traits::{CodecKind, CompressError, Compressor};

/// Stream magic: `"ZFPR"` little-endian.
pub const ZFP_MAGIC: u32 = 0x5250_465A;

/// Values per ZFP block (fixed by the 1-D algorithm).
pub const BLOCK: usize = 4;

/// Fixed-point scaling exponent: block values are scaled to `2^PSCALE`.
/// 28 keeps the ≤2-bit range expansion of the lifting transform inside
/// `i32` while retaining more precision than an `f32` mantissa holds.
const PSCALE: i32 = 28;

/// Number of bit planes coded per coefficient.
const INTPREC: u32 = 32;

/// Extra planes kept below the tolerance cutoff in fixed-accuracy mode to
/// absorb transform error amplification.
const GUARD_PLANES: i32 = 3;

/// Operating mode, mirroring ZFP's `-r` and `-a` command-line modes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ZfpMode {
    /// Spend exactly `rate` bits per value (so `4·rate` per block).
    FixedRate(u32),
    /// Guarantee `|x − x̂| ≤ eb` for every finite value.
    FixedAccuracy(f32),
}

/// ZFP-style codec over `f32` slices.
#[derive(Debug, Clone, Copy)]
pub struct ZfpCodec {
    mode: ZfpMode,
}

impl ZfpCodec {
    /// Create a codec.
    ///
    /// # Panics
    /// Panics if the rate is outside `1..=32` or the error bound is not
    /// finite and positive.
    pub fn new(mode: ZfpMode) -> Self {
        match mode {
            ZfpMode::FixedRate(r) => {
                assert!((1..=32).contains(&r), "rate must be in 1..=32, got {r}");
            }
            ZfpMode::FixedAccuracy(eb) => {
                assert!(
                    eb.is_finite() && eb > 0.0,
                    "error bound must be finite and positive, got {eb}"
                );
            }
        }
        Self { mode }
    }

    /// Convenience constructor for fixed-accuracy mode.
    pub fn fixed_accuracy(eb: f32) -> Self {
        Self::new(ZfpMode::FixedAccuracy(eb))
    }

    /// Convenience constructor for fixed-rate mode.
    pub fn fixed_rate(rate: u32) -> Self {
        Self::new(ZfpMode::FixedRate(rate))
    }

    /// The configured mode.
    pub fn mode(&self) -> ZfpMode {
        self.mode
    }
}

// ---------------------------------------------------------------------------
// Lifting transform (ZFP's non-orthogonal 1-D transform).
// ---------------------------------------------------------------------------

/// Forward decorrelating transform. Arithmetic is done in `i64` so the
/// transient sums cannot overflow; results fit in `i32 + 2` bits.
#[inline]
fn fwd_lift(v: &mut [i64; BLOCK]) {
    let [mut x, mut y, mut z, mut w] = *v;
    x += w;
    x >>= 1;
    w -= x;
    z += y;
    z >>= 1;
    y -= z;
    x += z;
    x >>= 1;
    z -= x;
    w += y;
    w >>= 1;
    y -= w;
    w += y >> 1;
    y -= w >> 1;
    *v = [x, y, z, w];
}

/// Inverse of [`fwd_lift`] (exact up to the transform's designed shifts).
#[inline]
fn inv_lift(v: &mut [i64; BLOCK]) {
    let [mut x, mut y, mut z, mut w] = *v;
    y += w >> 1;
    w -= y >> 1;
    y += w;
    w <<= 1;
    w -= y;
    z += x;
    x <<= 1;
    x -= z;
    y += z;
    z <<= 1;
    z -= y;
    w += x;
    x <<= 1;
    x -= w;
    *v = [x, y, z, w];
}

/// Map a signed coefficient to negabinary so sign information spreads over
/// high bit planes instead of a dedicated sign bit.
#[inline]
fn int2uint(i: i64) -> u32 {
    const NBMASK: u32 = 0xAAAA_AAAA;
    ((i as u32).wrapping_add(NBMASK)) ^ NBMASK
}

/// Inverse of [`int2uint`].
#[inline]
fn uint2int(u: u32) -> i64 {
    const NBMASK: u32 = 0xAAAA_AAAA;
    ((u ^ NBMASK).wrapping_sub(NBMASK)) as i32 as i64
}

// ---------------------------------------------------------------------------
// Embedded bit-plane coding (ZFP's group-tested unary run-length scheme).
// ---------------------------------------------------------------------------

/// Encode the four negabinary coefficients plane by plane, spending at most
/// `budget` bits and not descending below plane `kmin`. Returns bits spent.
///
/// This mirrors the reference ZFP `encode_ints` control flow exactly,
/// including its behaviour when the bit budget runs out mid-plane (both
/// sides then treat the pending coefficient as significant), so fixed-rate
/// truncation decodes consistently.
/// Upper bound on the bits one plane can emit for a 4-value block:
/// ≤ 4 verbatim bits for already-significant coefficients plus ≤ 7 unary
/// group-test bits. Small enough that a whole plane fits one staging
/// word on encode and one peeked window on decode.
const PLANE_MAX_BITS: u32 = 11;

fn encode_planes(coeffs: &[u32; BLOCK], kmin: u32, budget: u64, w: &mut BitWriter) -> u64 {
    let mut bits = budget;
    let mut n: usize = 0; // significance frontier carried across planes
    let mut k = INTPREC;
    while bits > 0 && k > kmin {
        k -= 1;
        // Extract bit plane k: bit i of `x` is coefficient i's bit k.
        let mut x: u64 = 0;
        for (i, &c) in coeffs.iter().enumerate() {
            x |= (((c >> k) & 1) as u64) << i;
        }
        // Stage the whole plane (≤ PLANE_MAX_BITS) in a local word and
        // emit it with a single `write_bits` — the per-bit writer calls
        // were the dominant cost on plane-heavy (noisy) fields.
        let mut out: u64 = 0;
        let mut cnt: u32 = 0;
        // Verbatim bits for the already-significant coefficients 0..n.
        let m = (n as u64).min(bits);
        bits -= m;
        out |= x & ((1u64 << m) - 1);
        cnt += m as u32;
        x >>= m;
        // Unary run-length coding of newly significant coefficients.
        while n < BLOCK {
            if bits == 0 {
                break;
            }
            bits -= 1;
            let any = (x != 0) as u64;
            out |= any << cnt;
            cnt += 1;
            if any == 0 {
                break;
            }
            while n < BLOCK - 1 {
                if bits == 0 {
                    break;
                }
                bits -= 1;
                out |= (x & 1) << cnt;
                cnt += 1;
                if x & 1 != 0 {
                    break;
                }
                x >>= 1;
                n += 1;
            }
            // The coefficient at the frontier is now significant (its set
            // bit was either written above, implied by the `any` flag when
            // n == BLOCK-1, or assumed on budget exhaustion — the decoder
            // makes the identical assumption).
            x >>= 1;
            n += 1;
        }
        debug_assert!(cnt <= PLANE_MAX_BITS);
        w.write_bits(out, cnt);
    }
    budget - bits
}

/// Decode planes written by [`encode_planes`] with identical parameters.
///
/// Each plane is parsed out of a single peeked window with local shifts
/// (no per-bit reader calls); the cursor then commits the exact bit count
/// consumed. The peek zero-pads past the end of the stream, so a
/// truncated stream parses garbage zeros locally and then fails the
/// commit with the same `Truncated` error (and the same bit accounting)
/// as the per-bit reader did.
fn decode_planes(
    r: &mut BitReader<'_>,
    kmin: u32,
    budget: u64,
) -> Result<[u32; BLOCK], CompressError> {
    let mut bits = budget;
    let mut coeffs = [0u32; BLOCK];
    let mut n: usize = 0;
    let mut k = INTPREC;
    while bits > 0 && k > kmin {
        k -= 1;
        let mut rest = r.peek_bits_padded(PLANE_MAX_BITS);
        let mut used: u32 = 0;
        let m = (n as u64).min(bits);
        bits -= m;
        let mut x = rest & ((1u64 << m) - 1);
        rest >>= m as u32;
        used += m as u32;
        while n < BLOCK {
            if bits == 0 {
                break;
            }
            bits -= 1;
            let any = rest & 1;
            rest >>= 1;
            used += 1;
            if any == 0 {
                break;
            }
            while n < BLOCK - 1 {
                if bits == 0 {
                    break;
                }
                bits -= 1;
                let bit = rest & 1;
                rest >>= 1;
                used += 1;
                if bit != 0 {
                    break;
                }
                n += 1;
            }
            x |= 1u64 << n;
            n += 1;
        }
        r.skip_bits(used).map_err(|_| CompressError::Truncated)?;
        for (i, c) in coeffs.iter_mut().enumerate() {
            *c |= (((x >> i) & 1) as u32) << k;
        }
    }
    Ok(coeffs)
}

// ---------------------------------------------------------------------------
// Block encode/decode.
// ---------------------------------------------------------------------------

const TAG_ZERO: u32 = 0;
const TAG_CODED: u32 = 1;
const TAG_VERBATIM: u32 = 2;

/// `floor(log2(x))` for a positive, normal-as-f64 value, by reading the
/// IEEE exponent field directly. Every nonzero finite `f32` magnitude is
/// a normal `f64`, so this is exact — and it replaces a transcendental
/// `log2` call that showed up once per block in profiles.
#[inline]
fn floor_log2(x: f64) -> i32 {
    debug_assert!(x > 0.0 && x.is_finite());
    ((x.to_bits() >> 52) & 0x7FF) as i32 - 1023
}

/// `2^e` as an exact `f64`, built from the exponent field. Valid for
/// `e` in the normal range `-1022..=1023`, which covers every scale this
/// codec uses (`PSCALE ± emax` with `emax` in `-127..=128`). Replaces a
/// per-block `exp2` library call.
#[inline]
fn exp2i(e: i32) -> f64 {
    debug_assert!((-1022..=1023).contains(&e));
    f64::from_bits(((e + 1023) as u64) << 52)
}

fn block_emax(vals: &[f32; BLOCK]) -> i32 {
    let mut max_abs = 0.0f64;
    for &v in vals {
        max_abs = max_abs.max((v as f64).abs());
    }
    debug_assert!(max_abs > 0.0);
    floor_log2(max_abs)
}

fn forward_block(vals: &[f32; BLOCK], emax: i32) -> [u32; BLOCK] {
    let factor = exp2i(PSCALE - emax);
    let mut q = [0i64; BLOCK];
    for (qi, &v) in q.iter_mut().zip(vals) {
        *qi = ((v as f64) * factor).round() as i64;
    }
    fwd_lift(&mut q);
    let mut out = [0u32; BLOCK];
    for (o, &c) in out.iter_mut().zip(&q) {
        *o = int2uint(c);
    }
    out
}

fn inverse_block(coeffs: &[u32; BLOCK], emax: i32) -> [f32; BLOCK] {
    let mut q = [0i64; BLOCK];
    for (qi, &c) in q.iter_mut().zip(coeffs) {
        *qi = uint2int(c);
    }
    inv_lift(&mut q);
    let factor = exp2i(emax - PSCALE);
    let mut out = [0.0f32; BLOCK];
    for (o, &c) in out.iter_mut().zip(&q) {
        *o = ((c as f64) * factor) as f32;
    }
    out
}

/// Plane cutoff for fixed-accuracy mode: planes whose weight falls below
/// the tolerance (with guard planes) are not coded.
fn kmin_for_tolerance(eb: f32, emax: i32) -> u32 {
    let tol_exp = floor_log2(eb as f64);
    let k = tol_exp - (emax - PSCALE) - GUARD_PLANES;
    k.clamp(0, INTPREC as i32) as u32
}

/// The coefficients a round trip through [`encode_planes`] /
/// [`decode_planes`] reconstructs when the bit budget is unbounded:
/// exactly the planes at or above `kmin`, i.e. `c & (!0 << kmin)`. This
/// identity (pinned by `planes_round_trip_is_masked_truncation`) is what
/// lets the ABS encoder verify its error bound directly on the masked
/// coefficients instead of trial-encoding and re-decoding every block
/// through a scratch bitstream — the single biggest cost on plane-heavy
/// fields, since it doubled the plane-coding work.
#[inline]
fn mask_to_kmin(coeffs: &[u32; BLOCK], kmin: u32) -> [u32; BLOCK] {
    let mask = if kmin >= INTPREC { 0 } else { u32::MAX << kmin };
    coeffs.map(|c| c & mask)
}

fn encode_block_abs(vals: &[f32; BLOCK], eb: f32, w: &mut BitWriter) {
    let finite = vals.iter().all(|v| v.is_finite());
    let all_zero = finite && vals.iter().all(|&v| v == 0.0);
    if all_zero {
        w.write_bits(TAG_ZERO as u64, 2);
        return;
    }
    if finite {
        let emax = block_emax(vals);
        if (-126..=127).contains(&emax) {
            let coeffs = forward_block(vals, emax);
            let kmin = kmin_for_tolerance(eb, emax);
            // Verify the error bound on what the decoder will actually
            // reconstruct — the kmin-masked coefficients (see
            // `mask_to_kmin`) — making the bound unconditional without
            // trial-encoding the block through a scratch bitstream.
            let rec = inverse_block(&mask_to_kmin(&coeffs, kmin), emax);
            let ok = vals
                .iter()
                .zip(&rec)
                .all(|(&a, &b)| (a as f64 - b as f64).abs() <= eb as f64);
            if ok {
                w.write_bits(TAG_CODED as u64, 2);
                w.write_bits((emax + 127) as u64, 8);
                w.write_bits(kmin as u64, 6);
                encode_planes(&coeffs, kmin, u64::MAX / 2, w);
                return;
            }
        }
    }
    w.write_bits(TAG_VERBATIM as u64, 2);
    for &v in vals {
        w.write_bits(v.to_bits() as u64, 32);
    }
}

fn decode_block_abs(r: &mut BitReader<'_>) -> Result<[f32; BLOCK], CompressError> {
    let tag = r.read_bits(2).map_err(|_| CompressError::Truncated)? as u32;
    match tag {
        TAG_ZERO => Ok([0.0; BLOCK]),
        TAG_CODED => {
            let emax = r.read_bits(8).map_err(|_| CompressError::Truncated)? as i32 - 127;
            let kmin = r.read_bits(6).map_err(|_| CompressError::Truncated)? as u32;
            if kmin > INTPREC {
                return Err(CompressError::CorruptHeader);
            }
            let coeffs = decode_planes(r, kmin, u64::MAX / 2)?;
            Ok(inverse_block(&coeffs, emax))
        }
        TAG_VERBATIM => {
            let mut out = [0.0f32; BLOCK];
            for o in &mut out {
                *o = f32::from_bits(r.read_bits(32).map_err(|_| CompressError::Truncated)? as u32);
            }
            Ok(out)
        }
        _ => Err(CompressError::CorruptHeader),
    }
}

fn encode_block_fxr(vals: &[f32; BLOCK], rate: u32, w: &mut BitWriter) {
    let block_bits = (BLOCK as u64) * rate as u64;
    let start = w.bit_len() as u64;
    // Map non-finite values to zero: ZFP's fixed-point pipeline cannot
    // represent them, and the fixed budget leaves no room for an escape.
    let mut clean = *vals;
    for v in &mut clean {
        if !v.is_finite() {
            *v = 0.0;
        }
    }
    let all_zero = clean.iter().all(|&v| v == 0.0);
    if !all_zero && block_bits >= 10 {
        w.write_bit(1);
        let emax = block_emax(&clean).clamp(-127, 127);
        w.write_bits((emax + 127) as u64, 8);
        let coeffs = forward_block(&clean, emax);
        let budget = block_bits - 9;
        encode_planes(&coeffs, 0, budget, w);
    } else {
        w.write_bit(0);
    }
    // Pad to the exact fixed-rate boundary (batched: block_bits ≤ 128,
    // so this is at most two `write_bits` calls).
    let end = start + block_bits;
    let mut pad = end - w.bit_len() as u64;
    while pad > 0 {
        let chunk = pad.min(64);
        w.write_bits(0, chunk as u32);
        pad -= chunk;
    }
    debug_assert_eq!(w.bit_len() as u64, end);
}

fn decode_block_fxr(r: &mut BitReader<'_>, rate: u32) -> Result<[f32; BLOCK], CompressError> {
    let block_bits = (BLOCK as u64) * rate as u64;
    let start = r.bit_pos() as u64;
    let nonzero = r.read_bit().map_err(|_| CompressError::Truncated)?;
    let out = if nonzero != 0 && block_bits >= 10 {
        let emax = r.read_bits(8).map_err(|_| CompressError::Truncated)? as i32 - 127;
        let budget = block_bits - 9;
        let coeffs = decode_planes(r, 0, budget)?;
        inverse_block(&coeffs, emax)
    } else {
        [0.0; BLOCK]
    };
    // Skip padding to the block boundary in one cursor jump.
    let end = start + block_bits;
    let pad = end - r.bit_pos() as u64;
    r.skip_bits(pad as u32)
        .map_err(|_| CompressError::Truncated)?;
    Ok(out)
}

// ---------------------------------------------------------------------------
// Container.
// ---------------------------------------------------------------------------

/// Parse and validate a stream header: the value count, the mode the
/// stream was written in, and a bit reader over the block body.
fn open(stream: &[u8]) -> Result<(usize, ZfpMode, BitReader<'_>), CompressError> {
    let mut r = ByteReader::new(stream);
    if r.read_u32()? != ZFP_MAGIC {
        return Err(CompressError::BadMagic);
    }
    let count = r.read_u64()? as usize;
    let mode = match r.read_u8()? {
        0 => ZfpMode::FixedAccuracy(r.read_f32()?),
        1 => ZfpMode::FixedRate(r.read_u32()?),
        _ => return Err(CompressError::CorruptHeader),
    };
    match mode {
        ZfpMode::FixedRate(rate) if !(1..=32).contains(&rate) => {
            return Err(CompressError::CorruptHeader)
        }
        ZfpMode::FixedAccuracy(eb) if !(eb.is_finite() && eb > 0.0) => {
            return Err(CompressError::CorruptHeader)
        }
        _ => {}
    }
    Ok((count, mode, BitReader::new(r.remaining())))
}

fn decode_block(r: &mut BitReader<'_>, mode: ZfpMode) -> Result<[f32; BLOCK], CompressError> {
    match mode {
        ZfpMode::FixedRate(rate) => decode_block_fxr(r, rate),
        ZfpMode::FixedAccuracy(_) => decode_block_abs(r),
    }
}

impl Compressor for ZfpCodec {
    fn compress(&self, data: &[f32]) -> Result<Vec<u8>, CompressError> {
        let mut out = Vec::with_capacity(20 + data.len());
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
        put_u32(out, ZFP_MAGIC);
        put_u64(out, data.len() as u64);
        match self.mode {
            ZfpMode::FixedRate(rate) => {
                out.push(1);
                put_u32(out, rate);
            }
            ZfpMode::FixedAccuracy(eb) => {
                out.push(0);
                put_f32(out, eb);
            }
        }
        // Encode straight into the caller's buffer.
        let mut w = BitWriter::from_vec(std::mem::take(out));
        let mut iter = data.chunks(BLOCK);
        for chunk in &mut iter {
            let mut vals = [0.0f32; BLOCK];
            // Pad partial final blocks by repeating the last value, which
            // keeps the block smooth and costs nothing after transform.
            let last = *chunk.last().expect("chunks are non-empty");
            vals.fill(last);
            vals[..chunk.len()].copy_from_slice(chunk);
            match self.mode {
                ZfpMode::FixedRate(rate) => encode_block_fxr(&vals, rate, &mut w),
                ZfpMode::FixedAccuracy(eb) => encode_block_abs(&vals, eb, &mut w),
            }
        }
        *out = w.into_bytes();
        Ok(())
    }

    fn decompress_into(&self, stream: &[u8], out: &mut Vec<f32>) -> Result<(), CompressError> {
        let (count, mode, mut bits) = open(stream)?;
        out.clear();
        out.reserve(count);
        while out.len() < count {
            let vals = decode_block(&mut bits, mode)?;
            let take = BLOCK.min(count - out.len());
            out.extend_from_slice(&vals[..take]);
        }
        Ok(())
    }

    fn decompress_to(
        &self,
        stream: &[u8],
        dst: &mut [f32],
        _scratch: &mut Vec<f32>,
    ) -> Result<(), CompressError> {
        let (count, mode, mut bits) = open(stream)?;
        if count != dst.len() {
            return Err(CompressError::LengthMismatch);
        }
        for chunk in dst.chunks_mut(BLOCK) {
            let vals = decode_block(&mut bits, mode)?;
            chunk.copy_from_slice(&vals[..chunk.len()]);
        }
        Ok(())
    }

    fn kind(&self) -> CodecKind {
        match self.mode {
            ZfpMode::FixedRate(rate) => CodecKind::ZfpFxr { rate },
            ZfpMode::FixedAccuracy(eb) => CodecKind::ZfpAbs { error_bound: eb },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wave(n: usize) -> Vec<f32> {
        (0..n)
            .map(|i| (i as f32 * 4e-4).sin() * 2.0 + (i as f32 * 2.3e-3).cos() * 0.25)
            .collect()
    }

    #[test]
    fn lift_round_trip_small_values() {
        // The lifting pair is ZFP's; verify it reconstructs within the
        // designed tolerance (the shifts lose at most a few LSBs).
        let cases: [[i64; 4]; 5] = [
            [0, 0, 0, 0],
            [1 << 20, 1 << 20, 1 << 20, 1 << 20],
            [12345, -6789, 424242, -1],
            [1 << 27, -(1 << 27), 1 << 26, -(1 << 25)],
            [7, -3, 2, 9],
        ];
        for c in cases {
            let mut v = c;
            fwd_lift(&mut v);
            inv_lift(&mut v);
            for (a, b) in c.iter().zip(&v) {
                assert!((a - b).abs() <= 4, "{c:?} -> {v:?}");
            }
        }
    }

    #[test]
    fn planes_round_trip_is_masked_truncation() {
        // The identity `encode_block_abs` relies on to skip the trial
        // encode: with an unbounded budget, encoding planes down to kmin
        // and decoding them back yields exactly the kmin-masked
        // coefficients. Exercised over varied bit patterns (dense,
        // sparse, zero, all-ones) and every kmin including ≥ INTPREC.
        let patterns: [[u32; BLOCK]; 6] = [
            [0, 0, 0, 0],
            [u32::MAX; BLOCK],
            [0x8000_0001, 0x7FFF_FFFF, 0x0000_0001, 0xAAAA_AAAA],
            [0x0001_0000, 0x0000_8000, 0x0000_0000, 0xFFFF_0000],
            [1, 2, 4, 8],
            [0xDEAD_BEEF, 0xCAFE_F00D, 0x1234_5678, 0x0F0F_0F0F],
        ];
        for coeffs in &patterns {
            for kmin in 0..=INTPREC + 2 {
                let mut w = BitWriter::new();
                encode_planes(coeffs, kmin, u64::MAX / 2, &mut w);
                let mut r = BitReader::new(w.aligned_bytes());
                let decoded = decode_planes(&mut r, kmin, u64::MAX / 2).unwrap();
                assert_eq!(
                    decoded,
                    mask_to_kmin(coeffs, kmin),
                    "coeffs {coeffs:08x?} kmin {kmin}"
                );
            }
        }
    }

    #[test]
    fn negabinary_round_trip() {
        for i in [
            -5i64,
            -1,
            0,
            1,
            5,
            (1 << 30),
            -(1 << 30),
            i32::MAX as i64,
            i32::MIN as i64,
        ] {
            assert_eq!(uint2int(int2uint(i)), i);
        }
    }

    #[test]
    fn abs_mode_error_bounded() {
        let data = wave(10_000);
        for eb in [1e-2f32, 1e-3, 1e-4] {
            let codec = ZfpCodec::fixed_accuracy(eb);
            let c = codec.compress(&data).unwrap();
            let d = codec.decompress(&c).unwrap();
            assert_eq!(d.len(), data.len());
            for (i, (&a, &b)) in data.iter().zip(&d).enumerate() {
                assert!(
                    (a as f64 - b as f64).abs() <= eb as f64,
                    "eb={eb}: index {i}: |{a} - {b}|"
                );
            }
        }
    }

    #[test]
    fn abs_mode_compresses_smooth_data() {
        let data = wave(100_000);
        let codec = ZfpCodec::fixed_accuracy(1e-3);
        let c = codec.compress(&data).unwrap();
        let ratio = (data.len() * 4) as f64 / c.len() as f64;
        assert!(
            ratio > 2.0,
            "expected >2x ratio on smooth data, got {ratio:.2}"
        );
    }

    #[test]
    fn fxr_mode_exact_rate() {
        let data = wave(4096);
        for rate in [2u32, 4, 8, 16] {
            let codec = ZfpCodec::fixed_rate(rate);
            let c = codec.compress(&data).unwrap();
            let header = 4 + 8 + 1 + 4;
            let expected = header + (data.len() / 4) * (rate as usize * 4) / 8;
            assert_eq!(c.len(), expected, "rate {rate}");
            let d = codec.decompress(&c).unwrap();
            assert_eq!(d.len(), data.len());
        }
    }

    #[test]
    fn fxr_quality_improves_with_rate() {
        let data = wave(20_000);
        let mut prev_err = f64::INFINITY;
        for rate in [4u32, 8, 16, 24] {
            let codec = ZfpCodec::fixed_rate(rate);
            let d = codec.decompress(&codec.compress(&data).unwrap()).unwrap();
            let max_err = data
                .iter()
                .zip(&d)
                .map(|(&a, &b)| (a as f64 - b as f64).abs())
                .fold(0.0f64, f64::max);
            assert!(
                max_err <= prev_err,
                "rate {rate}: error {max_err} should not exceed {prev_err}"
            );
            prev_err = max_err;
        }
        assert!(
            prev_err < 1e-4,
            "rate 24 should be near-lossless, got {prev_err}"
        );
    }

    #[test]
    fn fxr_error_is_unbounded_on_adversarial_data() {
        // A spike next to large values: low-rate ZFP-FXR must show a large
        // pointwise error somewhere — this is the paper's core criticism of
        // fixed-rate mode.
        let mut data = vec![0.0f32; 4096];
        for (i, v) in data.iter_mut().enumerate() {
            *v = if i % 4 == 0 { 1e6 } else { (i as f32).sin() };
        }
        let codec = ZfpCodec::fixed_rate(4);
        let d = codec.decompress(&codec.compress(&data).unwrap()).unwrap();
        let max_err = data
            .iter()
            .zip(&d)
            .map(|(&a, &b)| (a as f64 - b as f64).abs())
            .fold(0.0f64, f64::max);
        assert!(max_err > 1.0, "expected unbounded error, got {max_err}");
    }

    #[test]
    fn zero_data_is_cheap_in_abs_mode() {
        let data = vec![0.0f32; 40_000];
        let codec = ZfpCodec::fixed_accuracy(1e-3);
        let c = codec.compress(&data).unwrap();
        // 10_000 blocks * 2 bits + 17-byte header = 2517 bytes.
        assert!(
            c.len() < 3000,
            "all-zero data should be ~2 bits/block, got {}",
            c.len()
        );
        let d = codec.decompress(&c).unwrap();
        assert!(d.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn partial_final_block() {
        let data = wave(4097);
        let codec = ZfpCodec::fixed_accuracy(1e-3);
        let d = codec.decompress(&codec.compress(&data).unwrap()).unwrap();
        assert_eq!(d.len(), 4097);
        for (&a, &b) in data.iter().zip(&d) {
            assert!((a - b).abs() <= 1e-3);
        }
    }

    #[test]
    fn non_finite_abs_mode_verbatim() {
        let mut data = wave(64);
        data[10] = f32::NAN;
        data[20] = f32::INFINITY;
        let codec = ZfpCodec::fixed_accuracy(1e-3);
        let d = codec.decompress(&codec.compress(&data).unwrap()).unwrap();
        assert!(d[10].is_nan());
        assert_eq!(d[20], f32::INFINITY);
    }

    #[test]
    fn non_finite_fxr_mode_zeroed() {
        let mut data = wave(64);
        data[10] = f32::NAN;
        let codec = ZfpCodec::fixed_rate(8);
        let d = codec.decompress(&codec.compress(&data).unwrap()).unwrap();
        assert!(d[10].is_finite());
    }

    #[test]
    fn extreme_magnitudes_abs_mode() {
        let data = vec![1e37f32, -1e37, 1e-37, 0.0, 1.0, -1.0, 3.5e8, -2.25e-12];
        let codec = ZfpCodec::fixed_accuracy(1e-5);
        let d = codec.decompress(&codec.compress(&data).unwrap()).unwrap();
        for (&a, &b) in data.iter().zip(&d) {
            assert!((a as f64 - b as f64).abs() <= 1e-5, "{a} vs {b}");
        }
    }

    #[test]
    fn bad_magic_and_truncation() {
        let codec = ZfpCodec::fixed_accuracy(1e-3);
        let mut c = codec.compress(&wave(100)).unwrap();
        let mut broken = c.clone();
        broken[0] ^= 0x5A;
        assert_eq!(
            codec.decompress(&broken).unwrap_err(),
            CompressError::BadMagic
        );
        c.truncate(c.len() - 8);
        assert_eq!(codec.decompress(&c).unwrap_err(), CompressError::Truncated);
    }

    #[test]
    #[should_panic(expected = "rate must be in 1..=32")]
    fn bad_rate_panics() {
        ZfpCodec::fixed_rate(0);
    }
}
