//! What every schedule shares — tag spaces and the charged codec /
//! memcpy helpers — plus the paper's two baselines: uncompressed
//! ([`baseline`]) and CPR-P2P, compress-every-hop ([`cpr_p2p`]).
//!
//! Everything is generic over [`Comm`], so it runs unchanged on the
//! threaded runtime and on the virtual-time simulator. Tag spaces are
//! disjoint per collective family; within a family, rounds use consecutive
//! tags so ring steps cannot cross-match even when a rank races ahead.

pub mod baseline;
pub mod cpr_p2p;

use bytes::Bytes;
use ccoll_comm::{Category, Comm, Kernel, PayloadPool};
use ccoll_compress::{CodecScratch, Compressor};

/// Tag bases per collective family (disjoint 4096-wide spaces).
pub(crate) mod tags {
    use ccoll_comm::Tag;

    pub const ALLGATHER: Tag = 0x1000;
    pub const REDUCE_SCATTER: Tag = 0x2000;
    pub const BCAST: Tag = 0x3000;
    pub const SCATTER: Tag = 0x4000;
    pub const GATHER: Tag = 0x5000;
    pub const RECURSIVE_DOUBLING: Tag = 0x6000;
    pub const ALLTOALL: Tag = 0x7000;
    pub const PIPELINE: Tag = 0x9000;
    pub const RABENSEIFNER: Tag = 0xA000;
    pub const BRUCK: Tag = 0xB000;
    pub const TREE_REDUCE: Tag = 0xC000;
    /// `Auto`'s control plane (`plan::agree_min`): two `0x400`-wide
    /// sub-bands, one per agreement a plan can run, so the one-shot
    /// re-rank and a calibration round never share a tag.
    pub const RERANK: Tag = 0xD000;
    pub const AGREE_RERANK: Tag = RERANK;
    pub const AGREE_CALIB: Tag = RERANK + 0x400;
    /// Round tags reserved per agreement phase: a phase over `g` ranks
    /// numbers its rounds `0..⌈log₂ g⌉`, so 32 covers any group size.
    pub const AGREE_ROUNDS: Tag = 32;
    /// Phase offsets inside an agreement sub-band; each phase numbers
    /// its rounds upwards from its offset.
    pub const AGREE_REDUCE: Tag = 0;
    pub const AGREE_EXCHANGE: Tag = AGREE_ROUNDS;
    pub const AGREE_BCAST: Tag = 2 * AGREE_ROUNDS;
    const _: () = {
        // Three phases of at least ⌈log₂ 1024⌉ rounds fit one sub-band,
        // and the band ends below the recovery control tags
        // (`ccoll_comm::recover`, 0xE000 upwards).
        assert!(AGREE_ROUNDS >= 10);
        assert!(AGREE_BCAST + AGREE_ROUNDS <= 0x400);
        assert!(AGREE_CALIB + 0x400 <= 0xE000);
    };
    const _: () = {
        // A family's placement sub-bands (`Placement::band`) are ordered
        // and disjoint, and the highest tag any of them reaches — the
        // butterfly's `+ 999` unfold on the top band — stays inside the
        // family's 4096-wide space.
        use crate::frameworks::computation::PipelineConfig;
        use crate::placement::Placement;
        let cfg = PipelineConfig {
            error_bound: 0.0,
            chunk_values: 1,
        };
        let (raw, cpr) = (Placement::Raw.band(), Placement::Cpr.band());
        let piped = Placement::Piped(cfg).band();
        assert!(raw < cpr && cpr < piped && piped == Placement::ONCE_BAND);
        assert!(piped + 999 < 0x1000);
    };
    /// Hierarchical glue traffic (root→leader hand-offs); the two-level
    /// phases themselves reuse the per-family spaces above, isolated by
    /// disjoint member sets.
    pub const HIER: Tag = 0xF000;
    const _: () = {
        // The wire-tag layout, whole: schedule tags end with bit 15 (the
        // top family sits above `ccoll_comm`'s recovery control band,
        // 0xE000..0xF000), and every per-operation base stays clear of
        // them and of the shrink-epoch field, at or above the floor
        // `abort_cleanup` purges from. The views OR the three together;
        // disjoint bits are what make that an addition.
        use crate::plan::op_base;
        assert!(HIER >= 0xF000 && HIER + 0xFFF < 1 << 16);
        let (mut bits, mut slot) = (0, 0);
        while slot < 1023 {
            bits |= op_base(slot, 0) | op_base(slot, 1);
            slot += 1;
        }
        assert!(bits & (ccoll_comm::EPOCH_FIELD | 0xFFFF) == 0);
        assert!(op_base(0, 0) >= ccoll_comm::OP_TAG_FLOOR);
    };
}

/// Compress `vals` directly into a recycled [`PayloadPool`] buffer with
/// unified cost accounting (the kernel's time lands in `ComDecom` on
/// both backends) and hand back the zero-copy [`Bytes`] view the
/// transport keeps alive. Once the pool is warmed the whole step — codec
/// plus payload hand-off — touches the allocator zero times (the seed
/// copied the stream into a fresh `Bytes` per send).
///
/// When `pooled` is false, an additional buffer-management charge lands
/// under `Others`: the paper observes that per-call compression buffer
/// allocation/free is a significant cost of naive integration ("the
/// Others part also takes a significant amount, specifically 23% in the
/// 278 MB case. This is because the SZx requires users to free
/// compression-generated buffers", §III-D). C-Coll's frameworks
/// preallocate and reuse buffers (§III-E2's front-index design), so they
/// pass `pooled = true`.
pub(crate) fn compress_in<C: Comm>(
    comm: &mut C,
    codec: &dyn Compressor,
    kernel: Kernel,
    vals: &[f32],
    pooled: bool,
    pool: &mut PayloadPool,
) -> Bytes {
    let out = comm.run_kernel(kernel, vals.len() * 4, Category::ComDecom, || {
        pool.write_with(|buf| codec.compress_into(vals, buf))
            .expect("compression cannot fail on f32 input")
    });
    // Feed the measured-ratio loop: plans drain the pool's accumulated
    // sample after each execution and report it to the session, where
    // `Algorithm::Auto` re-ranks schedules from it (see `session`).
    pool.note_compression(vals.len() * 4, out.len());
    if !pooled {
        comm.charge(Kernel::BufferMgmt, vals.len() * 4, Category::Others);
    }
    out
}

/// Encode raw `f32` values into a recycled payload buffer — the
/// uncompressed-collective counterpart of [`compress_in`] (no cost
/// charge: payload construction was never charged on the baseline
/// paths).
pub(crate) fn values_payload(pool: &mut PayloadPool, vals: &[f32]) -> Bytes {
    match pool.write_with(|buf| {
        ccoll_compress::encode_f32s_into(vals, buf);
        Ok::<(), std::convert::Infallible>(())
    }) {
        Ok(b) => b,
        Err(e) => match e {},
    }
}

/// Decompress `stream` into the reusable `scratch.dec` buffer, charging
/// by the *uncompressed* size produced (matching how the paper's Table I
/// reports decompression throughput) plus the `BufferMgmt` of an
/// unpooled decode (see [`compress_in`]) — only CPR-P2P hops decode
/// through the scratch; compress-once consumers decode in place. Returns
/// the decoded values as a borrow of the scratch — callers copy them
/// into place and the buffer is reused on the next hop.
pub(crate) fn decompress_in<'s, C: Comm>(
    comm: &mut C,
    codec: &dyn Compressor,
    kernel: Kernel,
    stream: &[u8],
    expected_values: usize,
    scratch: &'s mut CodecScratch,
) -> &'s [f32] {
    let dec = &mut scratch.dec;
    comm.run_kernel(kernel, expected_values * 4, Category::ComDecom, || {
        codec
            .decompress_into(stream, dec)
            .expect("decompression of a stream we compressed cannot fail");
    });
    debug_assert_eq!(dec.len(), expected_values, "decompressed length mismatch");
    comm.charge(Kernel::BufferMgmt, expected_values * 4, Category::Others);
    dec
}

/// Fused decompress-reduce with unified cost accounting: decode `stream`
/// and fold every value straight into `dst` with `op` through
/// [`Compressor::decompress_reduce_into`] (native single-pass kernels
/// for SZx/PIPE-SZx, decompress-then-apply for other codecs). With
/// `from = Some(src)` this is the *first touch* of `dst`
/// ([`Compressor::decompress_reduce_from`]): `dst = fold(src, decoded)`,
/// the arithmetic of a copy followed by the in-place fold at the same
/// charges — no `Memcpy`, because no separate copy pass runs. The
/// decompression lands under `ComDecom` (charged per uncompressed byte
/// produced, as in [`decompress_in`]) and the reduction under
/// `Reduction`, so the virtual-time totals match the unfused pair the
/// call replaces — the fusion's win is the eliminated memory pass on
/// real backends. `pooled` as in [`compress_in`].
#[allow(clippy::too_many_arguments)]
pub(crate) fn decompress_reduce_in<C: Comm>(
    comm: &mut C,
    codec: &dyn Compressor,
    kernel: Kernel,
    stream: &[u8],
    op: crate::reduce::ReduceOp,
    from: Option<&[f32]>,
    dst: &mut [f32],
    pooled: bool,
    scratch: &mut CodecScratch,
) {
    let kind = op.fused_kind();
    let dec = &mut scratch.dec;
    comm.run_kernel(kernel, dst.len() * 4, Category::ComDecom, || {
        match from {
            Some(src) => codec.decompress_reduce_from(stream, kind, src, dst, dec),
            None => codec.decompress_reduce_into(stream, kind, dst, dec),
        }
        .expect("decompression of a stream we compressed cannot fail");
    });
    comm.charge(Kernel::Reduce, dst.len() * 4, Category::Reduction);
    if !pooled {
        comm.charge(Kernel::BufferMgmt, dst.len() * 4, Category::Others);
    }
}

/// Copy values with `Memcpy` accounting.
pub(crate) fn memcpy_in<C: Comm>(comm: &mut C, dst: &mut [f32], src: &[f32]) {
    comm.run_kernel(Kernel::Memcpy, src.len() * 4, Category::Memcpy, || {
        dst.copy_from_slice(src);
    });
}

/// Decode a raw little-endian `f32` payload directly into `dst` with
/// `Memcpy` accounting — the uncompressed-collective counterpart of
/// [`decompress_in`], skipping the intermediate `Vec` the seed built for
/// every hop.
///
/// # Panics
/// Panics if the payload length disagrees with `dst`.
pub(crate) fn decode_values_in<C: Comm>(comm: &mut C, dst: &mut [f32], payload: &[u8]) {
    assert_eq!(
        payload.len(),
        dst.len() * 4,
        "payload length disagrees with destination"
    );
    comm.run_kernel(Kernel::Memcpy, payload.len(), Category::Memcpy, || {
        crate::wire::decode_values_into(payload, dst);
    });
}
