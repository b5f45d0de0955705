//! Scratch-reuse verification for the collective codec path.
//!
//! Together with `ccoll-compress`'s counting-allocator test (which
//! proves `*_into` on a warmed buffer performs zero allocations), this
//! pins the end-to-end property: steady-state collectives drive the
//! codec exclusively through the `*_into` fast path, against a small,
//! fixed set of per-collective scratch buffers — not a fresh buffer per
//! hop.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use c_coll::collectives::cpr_p2p::{
    cpr_ring_allgatherv_into, cpr_ring_reduce_scatter_into, CprCodec,
};
use c_coll::frameworks::computation::DEFAULT_PIPE_VALUES;
use c_coll::partition::chunk_lengths;
use c_coll::{CCollSession, CodecSpec, CollWorkspace, ReduceOp};
use ccoll_comm::{Category, Comm, CostModel, Kernel, SimConfig, SimWorld};
use ccoll_compress::{CompressError, Compressor, SzxCodec};

/// Codec-call counters of one test. Each test owns its own set (the
/// tests of this binary run on parallel threads), shared by the ranks
/// of its world through the codec.
#[derive(Default)]
struct Counters {
    legacy_calls: AtomicUsize,
    into_calls: AtomicUsize,
    fresh_buffers: AtomicUsize,
    /// Values handed to `compress_into` / produced by `decompress_into`.
    values_compressed: AtomicUsize,
    values_decompressed: AtomicUsize,
}

/// Wraps SZx and records which API the collective layer drives and
/// whether it hands over warmed (reused) buffers.
struct Auditing {
    codec: SzxCodec,
    counters: Arc<Counters>,
}

impl Auditing {
    fn note_into(&self, capacity: usize) {
        self.counters.into_calls.fetch_add(1, Ordering::SeqCst);
        if capacity == 0 {
            self.counters.fresh_buffers.fetch_add(1, Ordering::SeqCst);
        }
    }
}

impl Compressor for Auditing {
    fn compress(&self, data: &[f32]) -> Result<Vec<u8>, CompressError> {
        self.counters.legacy_calls.fetch_add(1, Ordering::SeqCst);
        self.codec.compress(data)
    }

    fn decompress(&self, stream: &[u8]) -> Result<Vec<f32>, CompressError> {
        self.counters.legacy_calls.fetch_add(1, Ordering::SeqCst);
        self.codec.decompress(stream)
    }

    fn compress_into(&self, data: &[f32], out: &mut Vec<u8>) -> Result<(), CompressError> {
        self.note_into(out.capacity());
        self.counters
            .values_compressed
            .fetch_add(data.len(), Ordering::SeqCst);
        self.codec.compress_into(data, out)
    }

    fn decompress_into(&self, stream: &[u8], out: &mut Vec<f32>) -> Result<(), CompressError> {
        self.note_into(out.capacity());
        self.codec.decompress_into(stream, out)?;
        self.counters
            .values_decompressed
            .fetch_add(out.len(), Ordering::SeqCst);
        Ok(())
    }

    fn kind(&self) -> ccoll_compress::CodecKind {
        self.codec.kind()
    }
}

fn auditing_cpr(eb: f32) -> (CprCodec, Arc<Counters>) {
    let counters = Arc::new(Counters::default());
    let codec = Auditing {
        codec: SzxCodec::new(eb),
        counters: Arc::clone(&counters),
    };
    let cpr = CprCodec::new(Arc::new(codec), Kernel::SzxCompress, Kernel::SzxDecompress);
    (cpr, counters)
}

fn rank_data(rank: usize, len: usize) -> Vec<f32> {
    (0..len)
        .map(|i| ((i * 11 + rank * 211) as f32 * 1e-3).sin() * 2.5)
        .collect()
}

#[test]
fn allreduce_codec_path_reuses_scratch_buffers() {
    let n = 8;
    let len = 40_000;
    let (cpr, counters) = auditing_cpr(1e-3);
    let world = SimWorld::new(SimConfig::new(n));
    world.run(move |c| {
        // The DI allreduce: CPR-P2P in both ring stages.
        let counts = chunk_lengths(len, n);
        let data = rank_data(c.rank(), len);
        let mut mine = vec![0.0f32; counts[c.rank()]];
        let mut out = vec![0.0f32; len];
        let mut ws = CollWorkspace::new();
        cpr_ring_reduce_scatter_into(c, &cpr, &data, ReduceOp::Sum, &mut mine, &mut ws);
        cpr_ring_allgatherv_into(c, &cpr, &mine, &counts, &mut out, &mut ws);
    });

    let legacy = counters.legacy_calls.load(Ordering::SeqCst);
    let into = counters.into_calls.load(Ordering::SeqCst);
    let fresh = counters.fresh_buffers.load(Ordering::SeqCst);

    assert_eq!(
        legacy, 0,
        "collectives must never use the allocating codec API"
    );
    // DI allreduce: per rank, (n-1) compress + (n-1) decompress in each of
    // the two ring stages.
    assert_eq!(into, n * (n - 1) * 4, "unexpected codec call count");
    // Each stage owns one scratch (enc + dec buffer): at most 4 cold
    // buffers per rank, ever — every other call reuses warmed capacity.
    assert!(
        fresh <= n * 4,
        "scratch not reused: {fresh} cold buffers across {into} codec calls"
    );
    assert!(
        fresh * 4 <= into,
        "cold-buffer share too high: {fresh}/{into}"
    );
}

#[test]
fn bcast_codec_path_compresses_once_per_rank_with_scratch() {
    let n = 9;
    let spec = CodecSpec::Szx { error_bound: 1e-3 };
    // One sub-chunk, and a streamed payload of four (5120-value) ones.
    for len in [3_000usize, 20_000] {
        let out = SimWorld::new(SimConfig::new(n)).run(move |c| {
            let data = if c.rank() == 0 {
                rank_data(0, len)
            } else {
                Vec::new()
            };
            let mut plan = CCollSession::new(spec, n).plan_bcast(0, len);
            let _ = plan.execute(c, &data);
        });

        // The plan's codec is the session's own, so the audit reads the
        // simulator's charge sheet instead: every codec call is charged
        // to `ComDecom` at its kernel's model cost for the values it
        // touched. Data-movement framework: every value is compressed
        // exactly once (at the root, one call per sub-chunk) and
        // decompressed exactly once per non-root rank — a relay never
        // re-encodes what it forwards.
        let cost = CostModel::default();
        let (ck, dk) = spec.kernels();
        let once_per_chunk = |kernel: Kernel| {
            (0..len)
                .step_by(DEFAULT_PIPE_VALUES)
                .map(|lo| cost.cost(kernel, (len - lo).min(DEFAULT_PIPE_VALUES) * 4))
                .sum::<std::time::Duration>()
        };
        for (rank, spent) in out.breakdowns.iter().enumerate() {
            let kernel = if rank == 0 { ck } else { dk };
            assert_eq!(
                spent.get(Category::ComDecom),
                once_per_chunk(kernel),
                "len {len} rank {rank}: codec work beyond one pass over the payload"
            );
        }
    }
}
