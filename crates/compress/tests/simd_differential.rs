//! Differential tests: every SIMD dispatch level must be **bitwise
//! identical** to the scalar reference on every kernel and every
//! codec-level entry point.
//!
//! The scalar loops in `dispatch::scalar` are the specification; the
//! vector kernels are only correct if no input — constant runs, ±0
//! mixes, NaN/inf spikes, subnormals, unaligned lengths, tail blocks —
//! can distinguish them. These tests run the same workload through each
//! level reported by [`ccoll_compress::dispatch::available_levels`]:
//! `[Scalar, Avx2]` on an x86-64 with AVX2. On a machine without a
//! vector tier the list collapses to `[Scalar]` and the tests degenerate
//! to self-comparison, which is the intended behavior: the suite is
//! hardware-portable.

use ccoll_compress::dispatch::{self, SimdLevel};
use ccoll_compress::{
    CompressError, Compressor, LosslessCodec, PipeSzx, ReduceKind, SzxCodec, ZfpCodec,
};
use proptest::prelude::*;

/// Finite values spanning many magnitudes, with explicit ±0 weight.
fn finite_f32() -> impl Strategy<Value = f32> {
    prop_oneof![
        -1e6f32..1e6f32,
        -1.0f32..1.0f32,
        -1e-6f32..1e-6f32,
        Just(0.0f32),
        Just(-0.0f32),
        -1e30f32..1e30f32,
    ]
}

/// Any f32 bit pattern, including NaN/inf/subnormals.
fn any_f32() -> impl Strategy<Value = f32> {
    any::<u32>().prop_map(f32::from_bits)
}

/// Special values that historically distinguish scalar from vector
/// min/max/compare sequences.
fn special_f32() -> impl Strategy<Value = f32> {
    prop_oneof![
        Just(0.0f32),
        Just(-0.0f32),
        Just(f32::NAN),
        Just(-f32::NAN),
        Just(f32::INFINITY),
        Just(f32::NEG_INFINITY),
        Just(f32::MIN_POSITIVE),
        Just(f32::MIN_POSITIVE / 2.0), // subnormal
        Just(-f32::MIN_POSITIVE / 2.0),
        Just(1.0f32),
        Just(-1.0f32),
        any::<u32>().prop_map(f32::from_bits),
    ]
}

fn error_bound() -> impl Strategy<Value = f32> {
    prop_oneof![
        Just(1e-1f32),
        Just(1e-2),
        Just(1e-3),
        Just(1e-4),
        Just(1e-6)
    ]
}

/// Block-structured data: stretches of constant, smooth, noisy and
/// special values so one buffer exercises every SZx block tag and
/// every SIMD tail path (segment lengths are deliberately not multiples
/// of the vector width or the block size).
fn block_mix() -> impl Strategy<Value = Vec<f32>> {
    let segment = prop_oneof![
        // Constant run (any value, incl. ±0/NaN via special).
        (special_f32(), 1usize..300).prop_map(|(v, n)| vec![v; n]),
        // Smooth ramp → quantized blocks.
        (finite_f32(), -1e-2f32..1e-2, 1usize..300)
            .prop_map(|(base, step, n)| (0..n).map(|i| base + step * i as f32).collect()),
        // Raw noise → verbatim-leaning blocks.
        prop::collection::vec(any_f32(), 1..150),
    ];
    prop::collection::vec(segment, 0..8).prop_map(|segs| segs.concat())
}

fn ops() -> [ReduceKind; 3] {
    [ReduceKind::Sum, ReduceKind::Max, ReduceKind::Min]
}

fn assert_bits_eq(a: &[f32], b: &[f32], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length mismatch");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}: value {i} diverged ({x} vs {y})"
        );
    }
}

/// Like [`assert_bits_eq`] but op-aware: `Max`/`Min` folds are fully
/// specified (the result is bitwise one of the operands, NaN or not),
/// while `Sum` is IEEE addition, whose NaN *payload* Rust/LLVM leave
/// unspecified (operands of `+` may be commuted, and different
/// compilation sites can propagate different operands' payloads). For
/// `Sum`, two NaNs therefore compare equal regardless of payload; every
/// non-NaN value still must match bitwise.
fn assert_fold_eq(a: &[f32], b: &[f32], op: ReduceKind, what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length mismatch");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        if matches!(op, ReduceKind::Sum) && x.is_nan() && y.is_nan() {
            continue;
        }
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}: value {i} diverged ({x} vs {y})"
        );
    }
}

/// Compress + decompress `data` through `codec_at(level)` for every
/// available level and demand byte-identical streams and bit-identical
/// reconstructions versus the scalar reference.
fn check_levels_agree<C: Compressor>(codec_at: impl Fn(SimdLevel) -> C, data: &[f32]) {
    let reference = codec_at(SimdLevel::Scalar);
    let ref_stream = reference.compress(data).expect("scalar compress");
    let ref_out = reference
        .decompress(&ref_stream)
        .expect("scalar decompress");
    for level in dispatch::available_levels() {
        let codec = codec_at(level);
        let stream = codec.compress(data).expect("compress");
        assert_eq!(stream, ref_stream, "stream diverged at {}", level.label());
        let out = codec.decompress(&stream).expect("decompress");
        assert_bits_eq(&out, &ref_out, level.label());
    }
}

fn check_fused_reduce(data: &[f32], acc: &[f32], eb: f32) {
    let scalar = SzxCodec::new(eb).with_dispatch(SimdLevel::Scalar);
    let stream = scalar.compress(data).expect("compress");
    // Accumulator the same length as the data, cycling the special
    // values so every lane position sees NaN/±0/inf at some point.
    let seed: Vec<f32> = (0..data.len())
        .map(|i| {
            if acc.is_empty() {
                0.0
            } else {
                acc[i % acc.len()]
            }
        })
        .collect();
    let decoded = scalar.decompress(&stream).expect("decompress");
    for op in ops() {
        // Reference: scalar decode, then the fully-specified
        // ReduceKind::fold applied element-wise in plain Rust.
        let mut want = seed.clone();
        for (d, v) in want.iter_mut().zip(&decoded) {
            *d = op.fold(*d, *v);
        }
        for level in dispatch::available_levels() {
            let codec = SzxCodec::new(eb).with_dispatch(level);
            let mut got = seed.clone();
            let mut scratch = Vec::new();
            codec
                .decompress_reduce_into(&stream, op, &mut got, &mut scratch)
                .expect("fused reduce");
            assert_fold_eq(&got, &want, op, &format!("{:?}/{}", op, level.label()));
        }
    }
}

/// Every in-repo codec, the SZx family once per dispatch level.
fn every_codec(eb: f32) -> Vec<(String, Box<dyn Compressor>)> {
    let mut all: Vec<(String, Box<dyn Compressor>)> = vec![
        ("zfp-abs".into(), Box::new(ZfpCodec::fixed_accuracy(eb))),
        ("zfp-fxr".into(), Box::new(ZfpCodec::fixed_rate(12))),
        ("lossless".into(), Box::new(LosslessCodec::new())),
    ];
    for level in dispatch::available_levels() {
        let szx = SzxCodec::new(eb).with_dispatch(level);
        all.push((format!("szx/{}", level.label()), Box::new(szx)));
        let pipe = PipeSzx::with_chunk(eb, 777).with_dispatch(level);
        all.push((format!("pipe/{}", level.label()), Box::new(pipe)));
    }
    all
}

/// The two slice-landing entry points against the pairs they replace:
/// `decompress_to` ≡ `decompress_into`, and `decompress_reduce_from` ≡
/// `copy_from_slice` + `decompress_reduce_into` — bit for bit (the
/// first-touch form runs the in-place fold on a seeded block, so even a
/// `Sum` NaN payload has nowhere to differ). A stream cut short, or one
/// of another length, is an `Err`, never a panic.
fn check_slice_landings(data: &[f32], seed: &[f32], eb: f32) {
    let src: Vec<f32> = (0..data.len())
        .map(|i| seed.get(i % seed.len().max(1)).copied().unwrap_or(0.0))
        .collect();
    for (name, codec) in every_codec(eb) {
        let stream = codec.compress(data).expect("compress");
        let mut scratch = Vec::new();
        // Stale destinations: every slot must be overwritten.
        let stale = vec![f32::from_bits(0x7FC0_BEEF); data.len()];

        let mut want = Vec::new();
        codec.decompress_into(&stream, &mut want).expect("into");
        let mut got = stale.clone();
        codec
            .decompress_to(&stream, &mut got, &mut scratch)
            .expect("to");
        assert_bits_eq(&got, &want, &format!("decompress_to {name}"));

        for op in ops() {
            let mut want = src.clone();
            codec
                .decompress_reduce_into(&stream, op, &mut want, &mut scratch)
                .expect("reduce_into");
            let mut got = stale.clone();
            codec
                .decompress_reduce_from(&stream, op, &src, &mut got, &mut scratch)
                .expect("reduce_from");
            assert_bits_eq(&got, &want, &format!("reduce_from {op:?} {name}"));
        }

        for cut in [stream.len() - 1, stream.len() / 2, 3] {
            let short = &stream[..cut];
            let mut dst = stale.clone();
            assert!(
                codec.decompress_to(short, &mut dst, &mut scratch).is_err(),
                "{name}: decompress_to accepted {cut} of {} bytes",
                stream.len()
            );
            let from =
                codec.decompress_reduce_from(short, ReduceKind::Sum, &src, &mut dst, &mut scratch);
            assert!(from.is_err(), "{name}: reduce_from accepted a cut stream");
        }
        let mut longer = vec![0.0f32; data.len() + 1];
        assert_eq!(
            codec.decompress_to(&stream, &mut longer, &mut scratch),
            Err(CompressError::LengthMismatch),
            "{name}"
        );
    }
}

fn check_fold_kernels(dst: &[f32], src: &[f32], splat: f32) {
    let n = dst.len().min(src.len());
    let (dst, src) = (&dst[..n], &src[..n]);
    for op in ops() {
        let mut want = dst.to_vec();
        for (d, v) in want.iter_mut().zip(src) {
            *d = op.fold(*d, *v);
        }
        let mut want_splat = dst.to_vec();
        for d in want_splat.iter_mut() {
            *d = op.fold(*d, splat);
        }
        for level in dispatch::available_levels() {
            let k = dispatch::kernels(level);
            let mut got = dst.to_vec();
            k.fold_slice(op, &mut got, src);
            assert_fold_eq(
                &got,
                &want,
                op,
                &format!("fold_slice {:?}/{}", op, level.label()),
            );
            let mut got_splat = dst.to_vec();
            k.fold_splat(op, &mut got_splat, splat);
            assert_fold_eq(
                &got_splat,
                &want_splat,
                op,
                &format!("fold_splat {:?}/{}", op, level.label()),
            );
        }
    }
}

fn check_block_kernels(block: &[f32], eb: f32) {
    let scalar = dispatch::kernels(SimdLevel::Scalar);
    let (smin, smax, sfinite) = scalar.minmax_finite(block);
    let mid = ((smin as f64 + smax as f64) / 2.0) as f32;
    let mut scodes = vec![0u32; block.len()];
    let mut sdeltas = vec![0u32; block.len()];
    let (s_zor, s_dor, s_ok) = scalar.quantize(block, mid, eb, &mut scodes, &mut sdeltas);
    let mut sdeq = vec![0.0f32; block.len()];
    scalar.dequantize(&scodes, mid, eb, false, &mut sdeq);
    if s_ok {
        // The differences are those of the codes, `q[−1] = 0`, and the
        // delta dequantize of them rebuilds the same values.
        let q = |z: u32| ((z >> 1) as i32) ^ -((z & 1) as i32);
        let zz = |d: i32| ((d << 1) ^ (d >> 31)) as u32;
        let want: Vec<u32> = (0..block.len())
            .map(|i| zz(q(scodes[i]).wrapping_sub(if i == 0 { 0 } else { q(scodes[i - 1]) })))
            .collect();
        assert_eq!(
            sdeltas, want,
            "scalar deltas are not the codes' differences"
        );
        let dor = want.iter().skip(1).fold(0, |or, &d| or | d);
        assert_eq!(s_dor, dor, "scalar d_or is not the later differences' OR");
        let mut from_deltas = vec![0.0f32; block.len()];
        scalar.dequantize(&sdeltas, mid, eb, true, &mut from_deltas);
        assert_bits_eq(&from_deltas, &sdeq, "scalar delta dequantize");
    }
    for level in dispatch::available_levels() {
        let k = dispatch::kernels(level);
        let (vmin, vmax, vfinite) = k.minmax_finite(block);
        // ±0 sign of min/max is unspecified for mixed-zero blocks (the
        // codec normalizes before use), so compare values, not bits,
        // here — finite inputs exclude NaN so == is exact.
        assert_eq!(vmin, smin, "min diverged at {}", level.label());
        assert_eq!(vmax, smax, "max diverged at {}", level.label());
        assert_eq!(
            vfinite,
            sfinite,
            "finite flag diverged at {}",
            level.label()
        );
        let mut vcodes = vec![0u32; block.len()];
        let mut vdeltas = vec![0u32; block.len()];
        let (v_zor, v_dor, v_ok) = k.quantize(block, mid, eb, &mut vcodes, &mut vdeltas);
        assert_eq!(v_ok, s_ok, "quantize ok diverged at {}", level.label());
        if s_ok {
            assert_eq!(v_zor, s_zor, "z_or diverged at {}", level.label());
            assert_eq!(v_dor, s_dor, "d_or diverged at {}", level.label());
            assert_eq!(vcodes, scodes, "codes diverged at {}", level.label());
            assert_eq!(vdeltas, sdeltas, "deltas diverged at {}", level.label());
        }
        let mut vdeq = vec![0.0f32; block.len()];
        k.dequantize(&scodes, mid, eb, false, &mut vdeq);
        assert_bits_eq(&vdeq, &sdeq, &format!("dequantize {}", level.label()));
    }
}

/// The delta form of the decode kernels on arbitrary codes, wrapping
/// prefix sums included: every level reconstructs and folds the scalar
/// bits.
fn check_delta_dequantize(codes: &[u32], mid: f32, eb: f32, acc: &[f32]) {
    let scalar = dispatch::kernels(SimdLevel::Scalar);
    let acc: Vec<f32> = acc.iter().copied().cycle().take(codes.len()).collect();
    let mut sdeq = vec![0.0f32; codes.len()];
    scalar.dequantize(codes, mid, eb, true, &mut sdeq);
    for level in dispatch::available_levels() {
        let k = dispatch::kernels(level);
        let mut vdeq = vec![0.0f32; codes.len()];
        k.dequantize(codes, mid, eb, true, &mut vdeq);
        assert_bits_eq(&vdeq, &sdeq, &format!("delta dequantize {}", level.label()));
        for op in ops() {
            let mut fused = acc.clone();
            k.dequantize_fold(codes, mid, eb, true, op, &mut fused);
            let mut want = acc.clone();
            scalar.fold_slice(op, &mut want, &sdeq);
            let what = format!("delta dequantize_fold {op:?}/{}", level.label());
            assert_fold_eq(&fused, &want, op, &what);
        }
    }
}

fn check_byte_paths(vals: &[f32]) {
    let bytes = ccoll_compress::f32s_to_bytes(vals);
    assert_eq!(bytes.len(), vals.len() * 4);
    let mut dst = vec![0.0f32; vals.len()];
    ccoll_compress::decode_f32s_into(&bytes, &mut dst);
    assert_bits_eq(&dst, vals, "decode_f32s_into");
    // Reused vector with stale contents of a different length.
    let mut out = vec![f32::NAN; 17];
    ccoll_compress::decode_f32s_vec(&bytes, &mut out);
    assert_bits_eq(&out, vals, "decode_f32s_vec");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // SZx compress → identical stream bytes at every level; decompress
    // of that stream → identical reconstruction bits at every level.
    #[test]
    fn szx_stream_and_decode_bitwise_identical(data in block_mix(), eb in error_bound()) {
        check_levels_agree(|l| SzxCodec::new(eb).with_dispatch(l), &data);
    }

    // PIPE-SZx: same property across its chunked framing, at an
    // unaligned chunk size so chunk tails land mid-vector.
    #[test]
    fn pipe_stream_and_decode_bitwise_identical(data in block_mix(), eb in error_bound()) {
        check_levels_agree(|l| PipeSzx::with_chunk(eb, 777).with_dispatch(l), &data);
    }

    // Fused decompress-reduce must equal decompress-then-fold — bitwise,
    // at every level, for every operator, including NaN/±0 accumulators.
    #[test]
    fn fused_reduce_matches_decode_then_fold(
        data in block_mix(),
        acc in prop::collection::vec(special_f32(), 0..64),
        eb in error_bound(),
    ) {
        check_fused_reduce(&data, &acc, eb);
    }

    // First-touch fused reduce and decode-in-place against the
    // copy-then-fold / decode-then-copy pairs they replace, for every
    // codec, operator and dispatch level.
    #[test]
    fn slice_landings_match_the_pairs_they_replace(
        data in block_mix(),
        seed in prop::collection::vec(special_f32(), 0..64),
        eb in error_bound(),
    ) {
        check_slice_landings(&data, &seed, eb);
    }

    // The fold kernels alone (slice and splat forms) against the
    // element-wise `ReduceKind::fold` oracle over special values.
    #[test]
    fn fold_kernels_match_fold_oracle(
        dst in prop::collection::vec(special_f32(), 0..200),
        src in prop::collection::vec(special_f32(), 0..200),
        splat in special_f32(),
    ) {
        check_fold_kernels(&dst, &src, splat);
    }

    // The SZx per-block kernels compared level-vs-scalar directly:
    // min/max/finite classification and quantization codes (when the
    // block is accepted) must agree on every block shape and length.
    #[test]
    fn block_kernels_match_scalar(
        block in prop::collection::vec(finite_f32(), 1..260),
        eb in error_bound(),
    ) {
        check_block_kernels(&block, eb);
    }

    // The delta decode kernels on small differences (smooth blocks) and
    // on full-range ones (wrapping prefix sums), at every block length.
    #[test]
    fn delta_dequantize_matches_scalar(
        small in prop::collection::vec(0u32..64, 0..300),
        wide in prop::collection::vec(any::<u32>(), 0..300),
        acc in prop::collection::vec(special_f32(), 1..64),
        eb in error_bound(),
    ) {
        check_delta_dequantize(&small, 0.5, eb, &acc);
        check_delta_dequantize(&wide, -3.0, eb, &acc);
    }

    // Wire byte paths: encode→decode is the identity on bits for every
    // pattern (the memcpy fast path must not normalize NaNs), and the
    // single-pass vec decode matches the slice decode.
    #[test]
    fn byte_paths_are_bit_exact(vals in prop::collection::vec(any_f32(), 0..600)) {
        check_byte_paths(&vals);
    }
}

/// Constant runs at exact block-multiple, one-off and vector-tail
/// lengths — the shapes most likely to break tail handling (not
/// randomized: these lengths are the interesting ones).
#[test]
fn constant_runs_all_lengths_bitwise_identical() {
    for n in [
        1usize, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 127, 128, 129, 255, 256, 257, 1023, 1024, 1025,
    ] {
        for v in [0.0f32, -0.0, 1.5, f32::NAN, f32::INFINITY] {
            let data = vec![v; n];
            check_levels_agree(|l| SzxCodec::new(1e-3).with_dispatch(l), &data);
        }
    }
}

/// [`check_slice_landings`] on a buffer built to hold all three SZx
/// block classes (constant runs incl. ±0, quantized waves, a verbatim
/// NaN block), a partial tail block and several PIPE chunks — not left
/// to the random mix.
#[test]
fn slice_landings_cover_every_block_class() {
    let mut data: Vec<f32> = (0..1500).map(|i| (i as f32 * 7e-3).sin() * 4.0).collect();
    data.extend(std::iter::repeat_n(2.5f32, 300));
    data.extend(std::iter::repeat_n(0.0f32, 130));
    data.extend(std::iter::repeat_n(-0.0f32, 130));
    data.push(f32::NAN);
    data.extend((0..77).map(|i| i as f32 * 1e4));
    let seed = [0.0, -0.0, f32::NAN, 1.5, f32::NEG_INFINITY, -3.25, 1e-40];
    check_slice_landings(&data, &seed, 1e-3);
    check_slice_landings(&[], &seed, 1e-3);
}

/// The dispatch table honours explicit level requests (and the label
/// strings the bench harness records are stable).
#[test]
fn requested_levels_resolve() {
    for level in dispatch::available_levels() {
        assert_eq!(dispatch::kernels(level).level(), level);
        assert!(!level.label().is_empty());
    }
    // Unsupported levels fall back to scalar rather than faulting.
    assert_eq!(
        dispatch::kernels(SimdLevel::Neon).level(),
        if SimdLevel::Neon.is_supported() {
            SimdLevel::Neon
        } else {
            SimdLevel::Scalar
        }
    );
}
