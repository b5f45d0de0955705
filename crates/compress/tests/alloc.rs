//! Proof of the zero-allocation fast path: once a [`CodecScratch`] is
//! warmed, steady-state `compress_into`/`decompress_into` on SZx and
//! PIPE-SZx — and the slice-landing `decompress_reduce_from` /
//! `decompress_to` — must never touch the global allocator.
//!
//! This file intentionally contains a single `#[test]` so no concurrent
//! test can perturb the allocation counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use ccoll_compress::{
    CodecScratch, Compressor, PipeSzx, ReduceKind, SimdLevel, SzxCodec, ZfpCodec,
};

struct CountingAllocator;

static ALLOC_CALLS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::SeqCst);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::SeqCst);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn allocations() -> usize {
    ALLOC_CALLS.load(Ordering::SeqCst)
}

/// A mixed workload: smooth regions (constant blocks), oscillating
/// regions (quantized blocks) and a non-finite spike (verbatim block).
fn mixed_field(n: usize) -> Vec<f32> {
    let mut data: Vec<f32> = (0..n)
        .map(|i| {
            if i % 3000 < 1000 {
                4.25 // constant blocks
            } else {
                (i as f32 * 2e-3).sin() * 3.0
            }
        })
        .collect();
    data[n / 2] = f32::NAN; // forces one verbatim block
    data
}

/// The two slice-landing decodes of `stream`: the first-touch fused
/// reduce (seeded from `src`) and the decode in place, both into `dst`.
fn slice_landings(
    codec: &dyn Compressor,
    stream: &[u8],
    src: &[f32],
    dst: &mut [f32],
    scratch: &mut Vec<f32>,
) {
    codec
        .decompress_reduce_from(stream, ReduceKind::Sum, src, dst, scratch)
        .expect("reduce from");
    codec.decompress_to(stream, dst, scratch).expect("to");
}

/// Run the warmed SZx/PIPE-SZx round-trip loop and assert zero
/// allocator traffic. Exercised once per dispatch level so the SIMD
/// kernels are held to the same zero-allocation contract as the scalar
/// loops they replaced.
fn audit_szx_pipe(level: SimdLevel, data: &[f32]) {
    let szx = SzxCodec::new(1e-3).with_dispatch(level);
    let pipe = PipeSzx::new(1e-3).with_dispatch(level);

    let mut szx_scratch = CodecScratch::new();
    let mut pipe_scratch = CodecScratch::new();
    let mut acc = vec![0.0f32; data.len()];
    let mut reduce_scratch = Vec::new();

    // Warmup: buffers grow to their steady-state capacity.
    szx.compress_into(data, &mut szx_scratch.enc)
        .expect("warm szx c");
    szx.decompress_into(&szx_scratch.enc, &mut szx_scratch.dec)
        .expect("warm szx d");
    szx.decompress_reduce_into(
        &szx_scratch.enc,
        ReduceKind::Sum,
        &mut acc,
        &mut reduce_scratch,
    )
    .expect("warm szx r");
    slice_landings(&szx, &szx_scratch.enc, data, &mut acc, &mut reduce_scratch);
    pipe.compress_into(data, &mut pipe_scratch.enc)
        .expect("warm pipe c");
    pipe.decompress_into(&pipe_scratch.enc, &mut pipe_scratch.dec)
        .expect("warm pipe d");
    slice_landings(
        &pipe,
        &pipe_scratch.enc,
        data,
        &mut acc,
        &mut reduce_scratch,
    );

    let szx_expected = szx_scratch.enc.clone();

    // Steady state: zero heap traffic across repeated round trips,
    // including the fused decompress-reduce path.
    let before = allocations();
    for _ in 0..8 {
        szx.compress_into(data, &mut szx_scratch.enc)
            .expect("szx c");
        szx.decompress_into(&szx_scratch.enc, &mut szx_scratch.dec)
            .expect("szx d");
        szx.decompress_reduce_into(
            &szx_scratch.enc,
            ReduceKind::Sum,
            &mut acc,
            &mut reduce_scratch,
        )
        .expect("szx r");
        slice_landings(&szx, &szx_scratch.enc, data, &mut acc, &mut reduce_scratch);
        pipe.compress_into(data, &mut pipe_scratch.enc)
            .expect("pipe c");
        pipe.decompress_into(&pipe_scratch.enc, &mut pipe_scratch.dec)
            .expect("pipe d");
        slice_landings(
            &pipe,
            &pipe_scratch.enc,
            data,
            &mut acc,
            &mut reduce_scratch,
        );
    }
    let delta = allocations() - before;
    assert_eq!(
        delta,
        0,
        "steady-state SZx/PIPE-SZx round trips must not allocate at {:?}, saw {delta} allocator calls",
        level
    );

    // The zero-allocation path still produces the canonical stream and a
    // correct reconstruction.
    assert_eq!(szx_scratch.enc, szx_expected);
    assert_eq!(szx_scratch.dec.len(), data.len());
    for (a, b) in data.iter().zip(&szx_scratch.dec) {
        if a.is_finite() {
            assert!((a - b).abs() <= 1e-3);
        } else {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}

#[test]
fn steady_state_codec_path_allocates_nothing() {
    let data = mixed_field(60_000);

    // Both dispatch modes: the scalar fallback and whatever the CPU's
    // auto-detection picks (on x86-64 CI that is AVX2; on a machine
    // without SIMD the two runs coincide, which is fine).
    audit_szx_pipe(SimdLevel::Scalar, &data);
    audit_szx_pipe(SimdLevel::Auto, &data);

    // ZFP fixed-accuracy verifies its error bound directly against the
    // kmin-masked coefficients (no trial bitstream since the plane-coder
    // rework), so its steady state is allocation-free too.
    let zfp = ZfpCodec::fixed_accuracy(1e-3);
    let mut zfp_scratch = CodecScratch::new();
    zfp.compress_into(&data, &mut zfp_scratch.enc)
        .expect("warm zfp c");
    zfp.decompress_into(&zfp_scratch.enc, &mut zfp_scratch.dec)
        .expect("warm zfp d");
    // ZFP's first-touch reduce is the trait default (copy, then the
    // decode-into-scratch fold): allocation-free once that scratch is
    // warm; its decode in place is native.
    let mut acc = vec![0.0f32; data.len()];
    let mut reduce_scratch = Vec::new();
    slice_landings(&zfp, &zfp_scratch.enc, &data, &mut acc, &mut reduce_scratch);
    let before = allocations();
    for _ in 0..4 {
        zfp.compress_into(&data, &mut zfp_scratch.enc)
            .expect("zfp c");
        zfp.decompress_into(&zfp_scratch.enc, &mut zfp_scratch.dec)
            .expect("zfp d");
        slice_landings(&zfp, &zfp_scratch.enc, &data, &mut acc, &mut reduce_scratch);
    }
    let delta = allocations() - before;
    assert_eq!(
        delta, 0,
        "ZFP steady state must not allocate since trial-writer removal, saw {delta}"
    );
}
