//! Property-based tests for the codec invariants.
//!
//! The central contracts:
//! * error-bounded modes reconstruct every finite value within the bound;
//! * non-finite values survive SZx exactly;
//! * fixed-rate mode spends exactly `rate` bits per value;
//! * compression is deterministic;
//! * the bitstream layer is an exact round trip for arbitrary
//!   (width, value) sequences.

use ccoll_compress::bitstream::reference::{ScalarBitReader, ScalarBitWriter};
use ccoll_compress::bitstream::{BitReader, BitWriter};
use ccoll_compress::dispatch;
use ccoll_compress::lossless::LosslessCodec;
use ccoll_compress::{CodecScratch, Compressor, PipeSzx, SzxCodec, ZfpCodec};
use proptest::prelude::*;

/// Arbitrary finite f32 values spanning many magnitudes.
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

fn error_bound() -> impl Strategy<Value = f32> {
    prop_oneof![
        Just(1e-1f32),
        Just(1e-2),
        Just(1e-3),
        Just(1e-4),
        Just(1e-6)
    ]
}

/// One 128-value SZx block of the shapes that stress the grid-anchored
/// bases: `(shape, level, spread)` with `level` and `spread` in units of
/// the error bound.
fn base_block() -> impl Strategy<Value = (u8, i64, f64)> {
    (
        0u8..6,
        prop_oneof![
            -40i64..40,
            -100_000i64..100_000,
            Just(1i64 << 40),
            Just(-(1i64 << 40)),
            Just(1i64 << 60),
        ],
        0.0f64..3.0,
    )
}

/// Build the data of a run of [`base_block`]s at error bound `eb`:
/// 0 constant (RTM-like), 1 a spread in (eb, 2eb], 2 a smooth ramp,
/// 3 a base alternating by ±2⁴⁰·eb with the block index, 4 a NaN/inf
/// block, 5 a block far from zero whatever the block before it.
fn base_blocks(blocks: &[(u8, i64, f64)], eb: f32) -> Vec<f32> {
    let eb64 = eb as f64;
    let mut out = Vec::with_capacity(blocks.len() * 128);
    for (i, &(shape, level, spread)) in blocks.iter().enumerate() {
        let at = level as f64 * eb64;
        let block = (0..128).map(|j| {
            let t = j as f64 / 127.0;
            match shape {
                0 => at + spread.min(1.0) * 0.5 * eb64,
                1 => at + (1.0 + t * spread / 3.0) * eb64 * if j % 2 == 0 { 1.0 } else { 0.0 },
                2 => at + t * spread * 40.0 * eb64,
                3 => (if i % 2 == 0 { 1.0 } else { -1.0 }) * (1u64 << 40) as f64 * eb64 + t * eb64,
                4 => [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, at][j % 4],
                _ => 1e30f64.min(1e7 * eb64 * (1.0 + spread)) + t * eb64,
            }
        });
        out.extend(block.map(|v| v as f32));
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // Every stream fits `max_compressed_bytes`, bounds its error and is
    // the same bytes at every dispatch level, on the inputs where a
    // grid base is hardest to find: escapes (bases far from zero or
    // from the previous one), blocks whose spread leaves little room for
    // a grid point, constant runs, non-finite blocks and partial tails.
    #[test]
    fn szx_grid_bases_fit_the_worst_case_and_the_bound(
        blocks in prop::collection::vec(base_block(), 1..24),
        eb in error_bound(),
        tail in 0usize..128,
    ) {
        let mut data = base_blocks(&blocks, eb);
        data.truncate(data.len() - tail.min(data.len() - 1));
        let reference = SzxCodec::new(eb)
            .with_dispatch(dispatch::SimdLevel::Scalar)
            .compress(&data)
            .expect("compress");
        for level in dispatch::available_levels() {
            let codec = SzxCodec::new(eb).with_dispatch(level);
            let stream = codec.compress(&data).expect("compress");
            prop_assert_eq!(&stream, &reference, "{:?} diverged from scalar", level);
            prop_assert!(stream.len() <= codec.max_compressed_bytes(data.len()),
                "{} B > worst case {} B", stream.len(), codec.max_compressed_bytes(data.len()));
            let restored = codec.decompress(&stream).expect("decompress");
            prop_assert_eq!(restored.len(), data.len());
            for (a, b) in data.iter().zip(&restored) {
                if a.is_finite() {
                    prop_assert!((*a as f64 - *b as f64).abs() <= eb as f64,
                        "|{} - {}| > {}", a, b, eb);
                } else {
                    prop_assert_eq!(a.to_bits(), b.to_bits(), "non-finite must be exact");
                }
            }
        }
        let pipe = PipeSzx::with_chunk(eb, 384);
        let stream = pipe.compress(&data).expect("compress");
        prop_assert!(stream.len() <= pipe.worst_case_stream_bytes(data.len()));
        prop_assert_eq!(pipe.decompress(&stream).expect("decompress").len(), data.len());
    }

    #[test]
    fn corrupted_szx_never_panics(
        blocks in prop::collection::vec(base_block(), 1..6),
        flip_byte in any::<usize>(),
        flip_bits in 1u8..=255,
    ) {
        let codec = SzxCodec::new(1e-3);
        let mut stream = codec.compress(&base_blocks(&blocks, 1e-3)).expect("compress");
        let at = 18 + flip_byte % (stream.len() - 18);
        stream[at] ^= flip_bits;
        let _ = codec.decompress(&stream); // must not panic
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn szx_error_bounded(data in prop::collection::vec(finite_f32(), 0..2000), eb in error_bound()) {
        let codec = SzxCodec::new(eb);
        let stream = codec.compress(&data).expect("compress");
        let restored = codec.decompress(&stream).expect("decompress");
        prop_assert_eq!(restored.len(), data.len());
        for (a, b) in data.iter().zip(&restored) {
            prop_assert!((*a as f64 - *b as f64).abs() <= eb as f64,
                "|{} - {}| > {}", a, b, eb);
        }
    }

    #[test]
    fn szx_handles_any_bit_pattern(data in prop::collection::vec(any_f32(), 0..500)) {
        let codec = SzxCodec::new(1e-3);
        let stream = codec.compress(&data).expect("compress");
        let restored = codec.decompress(&stream).expect("decompress");
        prop_assert_eq!(restored.len(), data.len());
        for (a, b) in data.iter().zip(&restored) {
            if a.is_finite() {
                prop_assert!((*a as f64 - *b as f64).abs() <= 1e-3);
            } else {
                prop_assert_eq!(a.to_bits(), b.to_bits(), "non-finite must be exact");
            }
        }
    }

    #[test]
    fn szx_deterministic(data in prop::collection::vec(finite_f32(), 0..1000)) {
        let codec = SzxCodec::new(1e-3);
        prop_assert_eq!(codec.compress(&data).expect("a"), codec.compress(&data).expect("b"));
    }

    #[test]
    fn pipe_szx_error_bounded(
        data in prop::collection::vec(finite_f32(), 0..3000),
        eb in error_bound(),
        chunk in prop_oneof![Just(64usize), Just(777), Just(5120)],
    ) {
        let codec = PipeSzx::with_chunk(eb, chunk);
        let stream = codec.compress(&data).expect("compress");
        let restored = codec.decompress(&stream).expect("decompress");
        prop_assert_eq!(restored.len(), data.len());
        for (a, b) in data.iter().zip(&restored) {
            prop_assert!((*a as f64 - *b as f64).abs() <= eb as f64);
        }
    }

    #[test]
    fn zfp_abs_error_bounded(data in prop::collection::vec(finite_f32(), 0..1200), eb in error_bound()) {
        let codec = ZfpCodec::fixed_accuracy(eb);
        let stream = codec.compress(&data).expect("compress");
        let restored = codec.decompress(&stream).expect("decompress");
        prop_assert_eq!(restored.len(), data.len());
        for (a, b) in data.iter().zip(&restored) {
            prop_assert!((*a as f64 - *b as f64).abs() <= eb as f64,
                "|{} - {}| > {}", a, b, eb);
        }
    }

    #[test]
    fn zfp_fxr_exact_rate(
        data in prop::collection::vec(finite_f32(), 0..1024),
        rate in 1u32..=32,
    ) {
        let codec = ZfpCodec::fixed_rate(rate);
        let stream = codec.compress(&data).expect("compress");
        let header = 4 + 8 + 1 + 4;
        let blocks = data.len().div_ceil(4);
        let body_bits = blocks * 4 * rate as usize;
        prop_assert_eq!(stream.len(), header + body_bits.div_ceil(8));
        let restored = codec.decompress(&stream).expect("decompress");
        prop_assert_eq!(restored.len(), data.len());
    }

    #[test]
    fn lossless_bit_exact(data in prop::collection::vec(any_f32(), 0..1500)) {
        let codec = LosslessCodec::new();
        let stream = codec.compress(&data).expect("compress");
        let restored = codec.decompress(&stream).expect("decompress");
        prop_assert_eq!(restored.len(), data.len());
        for (a, b) in data.iter().zip(&restored) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn bitstream_round_trip(ops in prop::collection::vec((1u32..=64, any::<u64>()), 0..200)) {
        let mut w = BitWriter::new();
        for &(n, v) in &ops {
            let mask = if n == 64 { u64::MAX } else { (1u64 << n) - 1 };
            w.write_bits(v & mask, n);
        }
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        for &(n, v) in &ops {
            let mask = if n == 64 { u64::MAX } else { (1u64 << n) - 1 };
            prop_assert_eq!(r.read_bits(n).expect("read"), v & mask);
        }
    }

    #[test]
    fn word_writer_is_byte_identical_to_scalar(
        ops in prop::collection::vec((1u32..=64, any::<u64>()), 0..300),
        raw in prop::collection::vec(any::<u8>(), 0..40),
        align_every in 1usize..12,
    ) {
        // The word-level rewrite must produce streams byte-identical to
        // the seed scalar implementation under arbitrary interleavings of
        // bit writes, single bits, alignment and raw-byte appends.
        let mut word = BitWriter::new();
        let mut scalar = ScalarBitWriter::new();
        for (i, &(n, v)) in ops.iter().enumerate() {
            word.write_bits(v, n);
            scalar.write_bits(v, n);
            if i % align_every == align_every - 1 {
                word.align();
                scalar.align();
                word.write_bytes(&raw);
                scalar.write_bytes(&raw);
            }
            if i % 3 == 0 {
                word.write_bit((v >> 7) as u32);
                scalar.write_bit((v >> 7) as u32);
            }
        }
        prop_assert_eq!(word.bit_len(), scalar.bit_len());
        prop_assert_eq!(word.into_bytes(), scalar.into_bytes());
    }

    #[test]
    fn word_reader_matches_scalar_reader(
        ops in prop::collection::vec((1u32..=64, any::<u64>()), 1..300),
    ) {
        let mut w = BitWriter::new();
        for &(n, v) in &ops {
            w.write_bits(v, n);
        }
        let bytes = w.into_bytes();
        let mut word = BitReader::new(&bytes);
        let mut scalar = ScalarBitReader::new(&bytes);
        for &(n, _) in &ops {
            prop_assert_eq!(word.read_bits(n).expect("word"), scalar.read_bits(n).expect("scalar"));
        }
        prop_assert_eq!(word.remaining_bits(), scalar.remaining_bits());
    }

    #[test]
    fn into_apis_match_allocating_apis(
        data in prop::collection::vec(finite_f32(), 0..2500),
        eb in error_bound(),
        codec_idx in 0usize..4,
    ) {
        // `compress_into`/`decompress_into` must produce exactly the same
        // stream and reconstruction as the allocating entry points, and
        // the round trip through them must preserve the error bound.
        let codecs: [Box<dyn Compressor>; 4] = [
            Box::new(SzxCodec::new(eb)),
            Box::new(PipeSzx::with_chunk(eb, 777)),
            Box::new(ZfpCodec::fixed_accuracy(eb)),
            Box::new(LosslessCodec::new()),
        ];
        let codec = &codecs[codec_idx];
        let mut scratch = CodecScratch::new();
        // Pre-dirty the scratch to prove `*_into` replaces contents.
        scratch.enc.extend_from_slice(&[0xAB; 33]);
        scratch.dec.extend_from_slice(&[7.75f32; 9]);
        codec.compress_into(&data, &mut scratch.enc).expect("compress_into");
        let fresh = codec.compress(&data).expect("compress");
        prop_assert_eq!(&scratch.enc, &fresh, "stream mismatch for codec {}", codec_idx);
        codec.decompress_into(&scratch.enc, &mut scratch.dec).expect("decompress_into");
        let restored = codec.decompress(&fresh).expect("decompress");
        prop_assert_eq!(scratch.dec.len(), data.len());
        for (i, (a, b)) in scratch.dec.iter().zip(&restored).enumerate() {
            prop_assert_eq!(a.to_bits(), b.to_bits(), "value {} diverged", i);
        }
        let lossless = codec_idx == 3;
        for (a, b) in data.iter().zip(&scratch.dec) {
            if lossless {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            } else {
                prop_assert!((*a as f64 - *b as f64).abs() <= eb as f64,
                    "|{} - {}| > {}", a, b, eb);
            }
        }
    }

    #[test]
    fn scratch_reuse_is_deterministic(
        data in prop::collection::vec(finite_f32(), 1..1500),
        eb in error_bound(),
    ) {
        // Re-running through a warmed scratch must not perturb results.
        let codec = SzxCodec::new(eb);
        let mut scratch = CodecScratch::new();
        codec.compress_into(&data, &mut scratch.enc).expect("warmup");
        let first = scratch.enc.clone();
        for _ in 0..3 {
            codec.compress_into(&data, &mut scratch.enc).expect("steady");
            prop_assert_eq!(&scratch.enc, &first);
        }
    }

    #[test]
    fn truncated_szx_never_panics(
        data in prop::collection::vec(finite_f32(), 1..500),
        cut_fraction in 0.0f64..1.0,
    ) {
        let codec = SzxCodec::new(1e-3);
        let stream = codec.compress(&data).expect("compress");
        let cut = ((stream.len() as f64) * cut_fraction) as usize;
        // Must return an error or a (possibly shorter) result — no panic.
        let _ = codec.decompress(&stream[..cut]);
    }

    #[test]
    fn corrupted_zfp_never_panics(
        data in prop::collection::vec(finite_f32(), 1..300),
        flip_byte in any::<usize>(),
        flip_bits in any::<u8>(),
    ) {
        let codec = ZfpCodec::fixed_accuracy(1e-3);
        let mut stream = codec.compress(&data).expect("compress");
        if !stream.is_empty() {
            let at = flip_byte % stream.len();
            stream[at] ^= flip_bits;
        }
        let _ = codec.decompress(&stream); // must not panic
    }
}
