//! Common compressor abstractions: the [`Compressor`] trait, codec
//! identifiers, error types and round-trip quality statistics.

use std::fmt;

/// Identifies a codec configuration. Used by the collective layer to pick a
/// cost-model entry and by benchmark harnesses to label output rows.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CodecKind {
    /// SZx-style error-bounded codec with the given absolute error bound.
    Szx {
        /// Absolute error bound.
        error_bound: f32,
    },
    /// Pipelined SZx with the given absolute error bound and chunk size in
    /// values (the paper uses 5120).
    PipeSzx {
        /// Absolute error bound.
        error_bound: f32,
        /// Chunk size in values.
        chunk: usize,
    },
    /// ZFP-style codec in fixed-accuracy mode.
    ZfpAbs {
        /// Absolute error bound.
        error_bound: f32,
    },
    /// ZFP-style codec in fixed-rate mode, `rate` bits per value.
    ZfpFxr {
        /// Bits per value.
        rate: u32,
    },
    /// No compression: payloads are raw little-endian f32 bytes.
    None,
}

impl CodecKind {
    /// Human-readable label matching the paper's terminology.
    pub fn label(&self) -> String {
        match self {
            CodecKind::Szx { error_bound } => format!("SZx(ABS={error_bound:.0e})"),
            CodecKind::PipeSzx { error_bound, .. } => format!("PIPE-SZx(ABS={error_bound:.0e})"),
            CodecKind::ZfpAbs { error_bound } => format!("ZFP(ABS={error_bound:.0e})"),
            CodecKind::ZfpFxr { rate } => format!("ZFP(FXR={rate})"),
            CodecKind::None => "raw".to_string(),
        }
    }

    /// The absolute error bound, if this mode has one.
    pub fn error_bound(&self) -> Option<f32> {
        match self {
            CodecKind::Szx { error_bound }
            | CodecKind::PipeSzx { error_bound, .. }
            | CodecKind::ZfpAbs { error_bound } => Some(*error_bound),
            _ => None,
        }
    }
}

impl fmt::Display for CodecKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

/// Errors surfaced by compression and decompression.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompressError {
    /// The compressed stream ended before decoding finished (corruption or
    /// truncation in transit).
    Truncated,
    /// The stream's magic number or version did not match the codec.
    BadMagic,
    /// A header field was internally inconsistent (e.g. a chunk-size index
    /// whose sum disagrees with the payload length).
    CorruptHeader,
    /// The requested configuration is unusable (e.g. a non-positive or
    /// non-finite error bound).
    BadConfig,
    /// The stream is well formed but holds a different number of values
    /// than the destination slice (see [`Compressor::decompress_to`]).
    LengthMismatch,
}

impl fmt::Display for CompressError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompressError::Truncated => write!(f, "compressed stream is truncated"),
            CompressError::BadMagic => write!(f, "compressed stream has a bad magic number"),
            CompressError::CorruptHeader => write!(f, "compressed stream header is corrupt"),
            CompressError::BadConfig => write!(f, "invalid codec configuration"),
            CompressError::LengthMismatch => {
                write!(f, "compressed stream length disagrees with the destination")
            }
        }
    }
}

impl std::error::Error for CompressError {}

/// The element-wise fold a fused decompress-reduce kernel applies while
/// decoding (see [`Compressor::decompress_reduce_into`]). This is the
/// codec-layer mirror of the collective layer's reduction operators;
/// averaging is a `Sum` followed by a collective-side finalization, so it
/// needs no entry here.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReduceKind {
    /// `dst[i] += decoded[i]`.
    Sum,
    /// Element-wise maximum (see [`ReduceKind::fold`] for the exact rule).
    Max,
    /// Element-wise minimum (see [`ReduceKind::fold`] for the exact rule).
    Min,
}

impl ReduceKind {
    /// Fold one decoded value into a destination slot — the scalar the
    /// fused kernels inline per value. Kept as a method so the fallback
    /// path and every native kernel share identical `f32` arithmetic
    /// (fused and unfused results must match bitwise).
    ///
    /// `Max`/`Min` use a fully-specified rule rather than `f32::max`/`min`
    /// (whose behaviour on a ±0.0 tie is unspecified and differs between
    /// scalar and vector instructions): the incoming value replaces the
    /// accumulator only when it strictly wins the ordered compare or the
    /// accumulator is NaN. Ties — including `0.0` vs `-0.0` — keep the
    /// accumulator; a NaN input never wins; NaN propagates only when both
    /// sides are NaN. This rule has a direct two-instruction vector form
    /// (ordered compare OR unordered-accumulator test, then blend).
    #[inline]
    pub fn fold(&self, dst: f32, v: f32) -> f32 {
        match self {
            ReduceKind::Sum => dst + v,
            ReduceKind::Max => {
                if v > dst || dst.is_nan() {
                    v
                } else {
                    dst
                }
            }
            ReduceKind::Min => {
                if v < dst || dst.is_nan() {
                    v
                } else {
                    dst
                }
            }
        }
    }
}

/// Object-safe compressor interface over `f32` slices.
///
/// Implementations must be deterministic: compressing the same input twice
/// yields identical bytes. The collective data-movement framework relies on
/// this to exchange compressed sizes once and reuse them for the whole
/// schedule.
pub trait Compressor: Send + Sync {
    /// Compress `data` into a fresh buffer.
    fn compress(&self, data: &[f32]) -> Result<Vec<u8>, CompressError>;

    /// Decompress a buffer produced by [`Compressor::compress`].
    fn decompress(&self, stream: &[u8]) -> Result<Vec<f32>, CompressError>;

    /// Compress `data` into a caller-owned buffer, replacing its
    /// contents. On the steady state (a warmed buffer whose capacity
    /// already fits the stream) native implementations perform **zero
    /// heap allocations** — this is the fast path the collective layer
    /// drives with per-collective scratch buffers.
    ///
    /// The default implementation falls back to [`Compressor::compress`]
    /// plus a copy, so third-party codecs keep working unchanged.
    fn compress_into(&self, data: &[f32], out: &mut Vec<u8>) -> Result<(), CompressError> {
        let fresh = self.compress(data)?;
        out.clear();
        out.extend_from_slice(&fresh);
        Ok(())
    }

    /// Decompress into a caller-owned buffer, replacing its contents.
    /// Zero-allocation on a warmed buffer for native implementations;
    /// the default falls back to [`Compressor::decompress`] plus a copy.
    fn decompress_into(&self, stream: &[u8], out: &mut Vec<f32>) -> Result<(), CompressError> {
        let fresh = self.decompress(stream)?;
        out.clear();
        out.extend_from_slice(&fresh);
        Ok(())
    }

    /// Decompress a stream and fold every decoded value straight into
    /// `dst` with `op` — the fused decompress-reduce kernel of the
    /// collective computation framework's hot path. Fusing removes a
    /// full memory pass per received block: the unfused path writes the
    /// decoded values to a scratch buffer and then reads them back for
    /// the reduction, while a native fused kernel accumulates each value
    /// into `dst` the moment it is decoded.
    ///
    /// `dst` must hold exactly the stream's value count. `scratch` is
    /// only touched by the fallback implementation (decompress into
    /// `scratch`, then apply `op`), so native implementations stay
    /// zero-allocation with a cold scratch; results must be **bitwise
    /// identical** between the fused and fallback paths — both fold with
    /// [`ReduceKind::fold`] in stream order.
    ///
    /// # Panics
    /// Panics if the decoded length disagrees with `dst.len()`.
    fn decompress_reduce_into(
        &self,
        stream: &[u8],
        op: ReduceKind,
        dst: &mut [f32],
        scratch: &mut Vec<f32>,
    ) -> Result<(), CompressError> {
        self.decompress_into(stream, scratch)?;
        assert_eq!(
            scratch.len(),
            dst.len(),
            "decompress-reduce length mismatch"
        );
        crate::dispatch::active().fold_slice(op, dst, scratch);
        Ok(())
    }

    /// First-touch form of [`Compressor::decompress_reduce_into`]:
    /// `dst[i] = op.fold(src[i], decoded[i])`, for an accumulator that
    /// does not hold its left operand yet. The collective layer uses it
    /// for the first fold of a range, so the accumulator is *born* from
    /// the fold instead of from a whole-vector copy of the input.
    ///
    /// The result is **bitwise identical** to `dst.copy_from_slice(src)`
    /// followed by `decompress_reduce_into` — that pair is the default,
    /// so third-party codecs keep working; native kernels seed one
    /// block at a time immediately before folding it, which keeps the
    /// block in L1 and saves the copy's separate pass over memory.
    ///
    /// # Panics
    /// Panics if `src`, `dst` and the decoded length disagree.
    fn decompress_reduce_from(
        &self,
        stream: &[u8],
        op: ReduceKind,
        src: &[f32],
        dst: &mut [f32],
        scratch: &mut Vec<f32>,
    ) -> Result<(), CompressError> {
        dst.copy_from_slice(src);
        self.decompress_reduce_into(stream, op, dst, scratch)
    }

    /// Decompress straight into a caller-owned slice — what
    /// [`Compressor::decompress_into`] plus a copy into place does,
    /// without the detour through a `Vec` (native for every codec of
    /// this crate; the default is that detour, through `scratch`).
    ///
    /// Returns [`CompressError::LengthMismatch`] when the stream does
    /// not hold exactly `dst.len()` values. On any error the contents
    /// of `dst` are unspecified.
    fn decompress_to(
        &self,
        stream: &[u8],
        dst: &mut [f32],
        scratch: &mut Vec<f32>,
    ) -> Result<(), CompressError> {
        self.decompress_into(stream, scratch)?;
        if scratch.len() != dst.len() {
            return Err(CompressError::LengthMismatch);
        }
        dst.copy_from_slice(scratch);
        Ok(())
    }

    /// Upper bound on the compressed-stream size for a `values`-element
    /// input. Persistent collective plans use this to pre-size payload
    /// buffers so even the first call avoids growth. The default is a
    /// conservative envelope (raw size plus 25 % and a header allowance);
    /// native codecs override it with their exact worst case.
    fn max_compressed_bytes(&self, values: usize) -> usize {
        values * 5 + 64
    }

    /// The codec configuration identifier.
    fn kind(&self) -> CodecKind;
}

/// Reusable compression/decompression buffers for the zero-allocation
/// fast path.
///
/// Ownership rules (see DESIGN.md "Performance architecture"):
///
/// * A scratch is owned by exactly one call chain — collectives create
///   one per collective invocation and reuse it across every round/hop,
///   so steady-state rounds never touch the allocator in the codec path.
/// * `enc`/`dec` contents are only valid until the next `*_into` call
///   that targets them; callers must copy out (or hand off) before
///   reusing the scratch.
/// * Capacity only grows. After the first round at a given message size
///   the buffers are warmed and subsequent rounds allocate nothing.
#[derive(Debug, Default)]
pub struct CodecScratch {
    /// Compressed-stream buffer (target of `compress_into`).
    pub enc: Vec<u8>,
    /// Decoded-values buffer (target of `decompress_into`).
    pub dec: Vec<f32>,
}

impl CodecScratch {
    /// Create an empty scratch (buffers warm on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Create a scratch pre-sized for `values`-element payloads.
    pub fn with_capacity(values: usize) -> Self {
        CodecScratch {
            enc: Vec::with_capacity(values * 4),
            dec: Vec::with_capacity(values),
        }
    }
}

/// Quality and size statistics for one compression round trip. Produces the
/// numbers reported in the paper's Tables I–III and VI.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoundTripStats {
    /// Original size in bytes.
    pub original_bytes: usize,
    /// Compressed size in bytes.
    pub compressed_bytes: usize,
    /// original / compressed.
    pub ratio: f64,
    /// Maximum pointwise absolute error.
    pub max_abs_error: f64,
    /// Peak signal-to-noise ratio in dB (range-based, as used for
    /// scientific data: `20·log10(range) − 10·log10(mse)`).
    pub psnr: f64,
    /// Root-mean-square error normalized by the value range.
    pub nrmse: f64,
}

impl RoundTripStats {
    /// Compute statistics from an original/reconstructed pair.
    ///
    /// # Panics
    /// Panics if the slices have different lengths.
    pub fn measure(original: &[f32], reconstructed: &[f32], compressed_bytes: usize) -> Self {
        assert_eq!(
            original.len(),
            reconstructed.len(),
            "round-trip length mismatch"
        );
        let n = original.len().max(1) as f64;
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        let mut max_err = 0.0f64;
        let mut sq_sum = 0.0f64;
        for (&a, &b) in original.iter().zip(reconstructed) {
            let a = a as f64;
            let b = b as f64;
            min = min.min(a);
            max = max.max(a);
            let e = (a - b).abs();
            max_err = max_err.max(e);
            sq_sum += e * e;
        }
        let range = if original.is_empty() || max <= min {
            0.0
        } else {
            max - min
        };
        let mse = sq_sum / n;
        let rmse = mse.sqrt();
        let (psnr, nrmse) = if range > 0.0 && mse > 0.0 {
            (20.0 * range.log10() - 10.0 * mse.log10(), rmse / range)
        } else if mse == 0.0 {
            (f64::INFINITY, 0.0)
        } else {
            (0.0, f64::INFINITY)
        };
        let original_bytes = original.len() * 4;
        RoundTripStats {
            original_bytes,
            compressed_bytes,
            ratio: if compressed_bytes > 0 {
                original_bytes as f64 / compressed_bytes as f64
            } else {
                f64::INFINITY
            },
            max_abs_error: max_err,
            psnr,
            nrmse,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels() {
        assert_eq!(
            CodecKind::Szx { error_bound: 1e-3 }.label(),
            "SZx(ABS=1e-3)"
        );
        assert_eq!(CodecKind::ZfpFxr { rate: 4 }.label(), "ZFP(FXR=4)");
        assert_eq!(CodecKind::None.error_bound(), None);
    }

    #[test]
    fn stats_perfect_reconstruction() {
        let d = vec![1.0f32, 2.0, 3.0];
        let s = RoundTripStats::measure(&d, &d, 6);
        assert_eq!(s.max_abs_error, 0.0);
        assert!(s.psnr.is_infinite());
        assert_eq!(s.nrmse, 0.0);
        assert_eq!(s.ratio, 2.0);
    }

    #[test]
    fn stats_known_error() {
        let a = vec![0.0f32, 1.0];
        let b = vec![0.1f32, 1.0];
        let s = RoundTripStats::measure(&a, &b, 8);
        assert!((s.max_abs_error - 0.1).abs() < 1e-6);
        // mse = 0.01/2 = 0.005, range = 1 → psnr = -10*log10(0.005) ≈ 23.01
        assert!((s.psnr - 23.0103).abs() < 1e-3);
        assert!((s.nrmse - (0.005f64).sqrt()).abs() < 1e-6);
    }

    #[test]
    fn stats_constant_signal_zero_range() {
        let a = vec![5.0f32; 4];
        let b = vec![5.0f32; 4];
        let s = RoundTripStats::measure(&a, &b, 4);
        assert!(s.psnr.is_infinite());
    }
}
