//! Codec selection: a constructible description of which compressor a
//! collective should use, and the cost-model kernels it maps to.
//!
//! Specs have a canonical textual form (`"none"`, `"szx:1e-3"`,
//! `"zfp-abs:1e-3"`, `"zfp-fxr:16"`) round-tripped by [`FromStr`] and
//! [`Display`](fmt::Display), so benchmark harnesses and CLI tools share
//! one parser instead of hand-rolled spec lists.

use std::fmt;
use std::str::FromStr;
use std::sync::Arc;

use ccoll_comm::Kernel;
use ccoll_compress::{traits::CodecKind, Compressor, LosslessCodec, SzxCodec, ZfpCodec};

/// Which codec (and configuration) a compression-integrated collective
/// uses. Mirrors the paper's evaluated configurations:
/// SZx and ZFP(ABS) at error bounds 1e-2/1e-3/1e-4, ZFP(FXR) at rates
/// 4/8/16, plus `None` for uncompressed baselines and `Lossless` for
/// the bit-exact gzip-class baseline of §II.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CodecSpec {
    /// No compression (raw f32 bytes).
    None,
    /// Bit-exact lossless codec (byte transpose + delta + RLE): the
    /// gzip/zstd-class baseline. Exact round-trips, modest ratios.
    Lossless,
    /// SZx-style codec with an absolute error bound.
    Szx {
        /// Absolute error bound.
        error_bound: f32,
    },
    /// ZFP-style fixed-accuracy mode.
    ZfpAbs {
        /// Absolute error bound.
        error_bound: f32,
    },
    /// ZFP-style fixed-rate mode.
    ZfpFxr {
        /// Bits per value.
        rate: u32,
    },
}

impl CodecSpec {
    /// Build the codec. Returns `None` for [`CodecSpec::None`].
    pub fn build(&self) -> Option<Arc<dyn Compressor>> {
        match *self {
            CodecSpec::None => None,
            CodecSpec::Lossless => Some(Arc::new(LosslessCodec::new())),
            CodecSpec::Szx { error_bound } => Some(Arc::new(SzxCodec::new(error_bound))),
            CodecSpec::ZfpAbs { error_bound } => {
                Some(Arc::new(ZfpCodec::fixed_accuracy(error_bound)))
            }
            CodecSpec::ZfpFxr { rate } => Some(Arc::new(ZfpCodec::fixed_rate(rate))),
        }
    }

    /// The cost-model kernels `(compress, decompress)` for this codec.
    /// The lossless codec is charged at SZx-class throughput (it is a
    /// comparable single-pass byte scheme; the cost model has no
    /// dedicated lossless entry).
    pub fn kernels(&self) -> (Kernel, Kernel) {
        match self {
            CodecSpec::None | CodecSpec::Lossless | CodecSpec::Szx { .. } => {
                (Kernel::SzxCompress, Kernel::SzxDecompress)
            }
            CodecSpec::ZfpAbs { .. } => (Kernel::ZfpAbsCompress, Kernel::ZfpAbsDecompress),
            CodecSpec::ZfpFxr { .. } => (Kernel::ZfpFxrCompress, Kernel::ZfpFxrDecompress),
        }
    }

    /// The absolute error bound, if this spec has one.
    pub fn error_bound(&self) -> Option<f32> {
        match *self {
            CodecSpec::Szx { error_bound } | CodecSpec::ZfpAbs { error_bound } => Some(error_bound),
            _ => None,
        }
    }

    /// A nominal compression-ratio estimate for schedule selection
    /// (`Algorithm::Auto` shrinks its wire terms by this factor). These
    /// are order-of-magnitude planning figures in the spirit of the
    /// paper's Table II ratios on smooth scientific fields — actual
    /// ratios are data-dependent, but schedule crossovers only need the
    /// right magnitude.
    pub fn nominal_ratio(&self) -> f64 {
        match *self {
            CodecSpec::None => 1.0,
            CodecSpec::Lossless => 1.5,
            CodecSpec::Szx { .. } | CodecSpec::ZfpAbs { .. } => 8.0,
            CodecSpec::ZfpFxr { rate } => 32.0 / rate.max(1) as f64,
        }
    }

    /// Paper-style label.
    pub fn label(&self) -> String {
        match *self {
            CodecSpec::None => "Allreduce".to_string(), // the uncompressed baseline
            CodecSpec::Lossless => "Lossless".to_string(),
            CodecSpec::Szx { error_bound } => CodecKind::Szx { error_bound }.label(),
            CodecSpec::ZfpAbs { error_bound } => CodecKind::ZfpAbs { error_bound }.label(),
            CodecSpec::ZfpFxr { rate } => CodecKind::ZfpFxr { rate }.label(),
        }
    }
}

impl fmt::Display for CodecSpec {
    /// The canonical spec string (parseable back via [`FromStr`]).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            CodecSpec::None => write!(f, "none"),
            CodecSpec::Lossless => write!(f, "lossless"),
            CodecSpec::Szx { error_bound } => write!(f, "szx:{error_bound:e}"),
            CodecSpec::ZfpAbs { error_bound } => write!(f, "zfp-abs:{error_bound:e}"),
            CodecSpec::ZfpFxr { rate } => write!(f, "zfp-fxr:{rate}"),
        }
    }
}

/// Error from parsing a [`CodecSpec`] string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseCodecSpecError {
    input: String,
    reason: &'static str,
}

impl fmt::Display for ParseCodecSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid codec spec {:?}: {} (expected \"none\", \"lossless\", \
             \"szx:<eb>\", \"zfp-abs:<eb>\" or \"zfp-fxr:<bits>\")",
            self.input, self.reason
        )
    }
}

impl std::error::Error for ParseCodecSpecError {}

impl FromStr for CodecSpec {
    type Err = ParseCodecSpecError;

    /// Parse the canonical spec syntax: `none` (or `raw`), `lossless`,
    /// `szx:<eb>`, `zfp-abs:<eb>`, `zfp-fxr:<bits>`. Case-insensitive;
    /// underscores accepted in place of dashes.
    ///
    /// ```
    /// use c_coll::CodecSpec;
    ///
    /// let spec: CodecSpec = "szx:1e-3".parse().unwrap();
    /// assert_eq!(spec, CodecSpec::Szx { error_bound: 1e-3 });
    /// // Display emits the canonical form, so specs round-trip.
    /// assert_eq!(spec.to_string().parse::<CodecSpec>().unwrap(), spec);
    /// // Malformed specs explain what they expected.
    /// assert!("szx:-1".parse::<CodecSpec>().is_err());
    /// ```
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = |reason| ParseCodecSpecError {
            input: s.to_string(),
            reason,
        };
        let norm = s.trim().to_ascii_lowercase().replace('_', "-");
        let (name, arg) = match norm.split_once(':') {
            Some((n, a)) => (n, Some(a)),
            None => (norm.as_str(), None),
        };
        let parse_eb = |a: Option<&str>| -> Result<f32, ParseCodecSpecError> {
            let raw = a.ok_or_else(|| err("missing error bound"))?;
            let eb: f32 = raw.parse().map_err(|_| err("malformed error bound"))?;
            if !(eb.is_finite() && eb > 0.0) {
                return Err(err("error bound must be finite and positive"));
            }
            Ok(eb)
        };
        match name {
            "none" | "raw" => match arg {
                None => Ok(CodecSpec::None),
                Some(_) => Err(err("\"none\" takes no argument")),
            },
            "lossless" => match arg {
                None => Ok(CodecSpec::Lossless),
                Some(_) => Err(err("\"lossless\" takes no argument")),
            },
            "szx" => Ok(CodecSpec::Szx {
                error_bound: parse_eb(arg)?,
            }),
            "zfp-abs" => Ok(CodecSpec::ZfpAbs {
                error_bound: parse_eb(arg)?,
            }),
            "zfp-fxr" => {
                let raw = arg.ok_or_else(|| err("missing rate"))?;
                let rate: u32 = raw.parse().map_err(|_| err("malformed rate"))?;
                if rate == 0 || rate > 32 {
                    return Err(err("rate must be in 1..=32 bits per value"));
                }
                Ok(CodecSpec::ZfpFxr { rate })
            }
            _ => Err(err("unknown codec name")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_matches_spec() {
        assert!(CodecSpec::None.build().is_none());
        let c = CodecSpec::Szx { error_bound: 1e-3 }.build().unwrap();
        assert!(matches!(c.kind(), CodecKind::Szx { .. }));
        let z = CodecSpec::ZfpFxr { rate: 4 }.build().unwrap();
        assert!(matches!(z.kind(), CodecKind::ZfpFxr { rate: 4 }));
    }

    #[test]
    fn display_round_trips_through_from_str() {
        let specs = [
            CodecSpec::None,
            CodecSpec::Lossless,
            CodecSpec::Szx { error_bound: 1e-3 },
            CodecSpec::ZfpAbs { error_bound: 1e-2 },
            CodecSpec::ZfpFxr { rate: 16 },
        ];
        for spec in specs {
            let text = spec.to_string();
            let back: CodecSpec = text.parse().unwrap_or_else(|e| panic!("{text}: {e}"));
            assert_eq!(back, spec, "round trip through {text:?}");
        }
    }

    #[test]
    fn from_str_accepts_paper_notation() {
        assert_eq!("none".parse::<CodecSpec>().unwrap(), CodecSpec::None);
        assert_eq!("raw".parse::<CodecSpec>().unwrap(), CodecSpec::None);
        assert_eq!(
            "szx:1e-3".parse::<CodecSpec>().unwrap(),
            CodecSpec::Szx { error_bound: 1e-3 }
        );
        assert_eq!(
            "ZFP-ABS:0.01".parse::<CodecSpec>().unwrap(),
            CodecSpec::ZfpAbs { error_bound: 0.01 }
        );
        assert_eq!(
            "zfp_fxr:8".parse::<CodecSpec>().unwrap(),
            CodecSpec::ZfpFxr { rate: 8 }
        );
    }

    #[test]
    fn from_str_rejects_malformed_specs() {
        for bad in [
            "",
            "szx",
            "szx:",
            "szx:-1",
            "szx:nan",
            "szx:inf",
            "zfp-fxr:0",
            "zfp-fxr:33",
            "zfp-fxr:1.5",
            "lz4:3",
            "none:1",
        ] {
            assert!(
                bad.parse::<CodecSpec>().is_err(),
                "{bad:?} should be rejected"
            );
        }
    }

    #[test]
    fn kernels_and_bounds() {
        let (c, d) = CodecSpec::ZfpAbs { error_bound: 1e-2 }.kernels();
        assert_eq!(c, Kernel::ZfpAbsCompress);
        assert_eq!(d, Kernel::ZfpAbsDecompress);
        assert_eq!(
            CodecSpec::Szx { error_bound: 1e-4 }.error_bound(),
            Some(1e-4)
        );
        assert_eq!(CodecSpec::ZfpFxr { rate: 8 }.error_bound(), None);
    }
}
