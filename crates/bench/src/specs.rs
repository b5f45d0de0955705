//! Canonical codec-spec and variant lists for the paper's experiments.
//!
//! Every `src/bin/*` harness used to hand-roll these tuples; they live
//! here once so a change to the evaluated configurations (or to the
//! spec syntax) propagates to every figure and table.

use c_coll::{AllreduceVariant, CodecSpec};

/// The paper's headline absolute error bound (used by most figures).
pub const PAPER_EB: f32 = 1e-3;

/// The headline SZx spec, `szx:1e-3`.
pub fn szx_default() -> CodecSpec {
    CodecSpec::Szx {
        error_bound: PAPER_EB,
    }
}

/// The absolute error bounds evaluated in Tables II–III.
pub fn paper_error_bounds() -> [f32; 3] {
    [1e-2, 1e-3, 1e-4]
}

/// The ZFP fixed-rate settings evaluated in Tables II–III.
pub fn paper_fxr_rates() -> [u32; 3] {
    [4, 8, 16]
}

/// All evaluated codec configurations: SZx and ZFP(ABS) at each error
/// bound, ZFP(FXR) at each rate.
pub fn paper_codec_specs() -> Vec<CodecSpec> {
    let mut specs = Vec::new();
    for eb in paper_error_bounds() {
        specs.push(CodecSpec::Szx { error_bound: eb });
    }
    for eb in paper_error_bounds() {
        specs.push(CodecSpec::ZfpAbs { error_bound: eb });
    }
    for rate in paper_fxr_rates() {
        specs.push(CodecSpec::ZfpFxr { rate });
    }
    specs
}

/// The Fig. 11/12 baseline lineup: original Allreduce, CPR-P2P with
/// ZFP(FXR)/ZFP(ABS)/SZx, and C-Allreduce.
pub fn baseline_configs() -> [(CodecSpec, AllreduceVariant); 5] {
    [
        (CodecSpec::None, AllreduceVariant::Original),
        (
            CodecSpec::ZfpFxr { rate: 4 },
            AllreduceVariant::DirectIntegration,
        ),
        (
            CodecSpec::ZfpAbs {
                error_bound: PAPER_EB,
            },
            AllreduceVariant::DirectIntegration,
        ),
        (szx_default(), AllreduceVariant::DirectIntegration),
        (szx_default(), AllreduceVariant::Overlapped),
    ]
}

/// The Table V step-wise optimization lineup (Fig. 10): AD, DI, ND,
/// Overlap, all with the headline SZx bound.
pub fn stepwise_configs() -> [(CodecSpec, AllreduceVariant); 4] {
    [
        (CodecSpec::None, AllreduceVariant::Original),
        (szx_default(), AllreduceVariant::DirectIntegration),
        (szx_default(), AllreduceVariant::NovelDesign),
        (szx_default(), AllreduceVariant::Overlapped),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lineups_are_consistent() {
        assert_eq!(paper_codec_specs().len(), 9);
        assert_eq!(baseline_configs()[0].0, CodecSpec::None);
        assert_eq!(
            stepwise_configs()[3].1,
            AllreduceVariant::Overlapped,
            "the last step must be C-Allreduce"
        );
    }

    #[test]
    fn env_spec_round_trips() {
        // The canonical strings of every paper spec parse back.
        for spec in paper_codec_specs() {
            let text = spec.to_string();
            assert_eq!(text.parse::<CodecSpec>().unwrap(), spec, "{text}");
        }
    }
}
