//! The collective data-movement framework (paper §III-A1).
//!
//! Key ideas, mapped to the paper's description of C-Allgather:
//!
//! 1. *"At the beginning, every process compresses its local data and
//!    stores the compressed data size"* — one compression per rank, ever.
//! 2. *"Every process synchronizes with each other to collect the
//!    compressed data sizes in a local integer array"* — a step this
//!    transport does without: every message carries its own length, and
//!    each block's value count is in the plan's partition on every rank.
//! 3. The ring then relays **opaque compressed bytes**, never
//!    re-compressing them, in the session's pipe sub-chunks: round 0
//!    sends each sub-chunk of the own block as soon as it is encoded, so
//!    its transfer runs under the encode, and every later round forwards
//!    the last one's sub-chunks untouched.
//! 4. *"After all communications end, every process starts to decompress
//!    all the received compressed data … they do not need to decompress
//!    the data that are compressed by themselves"* — except that plans
//!    decode each relayed block while it is on the wire to the next rank,
//!    which leaves only the last block's decode exposed.
//!
//! C-Bcast compresses once at the root, relays compressed bytes down the
//! binomial tree and decompresses once at every non-root — and, since
//! the three stages touch disjoint resources (the root's core, the
//! links, the receivers' cores), it runs them **streamed**: the payload
//! travels as independent PIPE-sized sub-chunk streams along one tree
//! route of the streaming engine (`crate::pipeline`), so the root's
//! encode, the tree's relays and every rank's decode overlap and a
//! broadcast costs about `max(encode, fan-out)` instead of `encode +
//! fan-out + decode`.
//! C-Scatter compresses each destination segment once at the root and
//! forwards framed segment sets down the tree, so each leaf
//! decompresses exactly its own segment; it keeps its whole-segment
//! messages.
//!
//! The schedules themselves are the machines in [`crate::nonblocking`]
//! (`RingAg`, `BruckAg`, `Bcast`, `Scatter`, `Gather`, `Alltoall`,
//! `BruckA2a`) at `Placement::Once`, where every plan of a session with
//! a codec builds them. This module keeps the one shape no plan selects
//! — the ring allgather with its relay/decompress overlap switched off —
//! and the framework's tests.

use ccoll_comm::Comm;

use crate::collectives::cpr_p2p::CprCodec;
use crate::frameworks::computation::DEFAULT_PIPE_VALUES;
use crate::nonblocking::RingAg;
use crate::placement::Placement;
use crate::workspace::CollWorkspace;
use ccoll_comm::Cut;

/// C-Allgather (compress once, relay compressed blocks around the ring)
/// with the relay/decompress overlap disabled: relay every block, then
/// one decompression sweep at the end. Allgather plans decompress the
/// block received in hop `k` while hop `k+1`'s relay is in flight; this
/// is the same machine with that reordering off — the same sub-chunks of
/// the default pipe — so the ablation benches and the equivalence tests
/// can isolate the overlap's contribution. Results are bitwise identical
/// to the plan's (the same sub-chunks are decompressed, in a different
/// interleaving with the relays).
///
/// # Panics
/// Panics if `mine.len() != counts[rank]` or `out.len()` is not the sum
/// of `counts`.
pub fn c_ring_allgatherv_monolithic_into<C: Comm>(
    comm: &mut C,
    cpr: &CprCodec,
    mine: &[f32],
    counts: &[usize],
    out: &mut [f32],
    ws: &mut CollWorkspace,
) {
    ws.set_partition_from_counts(counts);
    let done = RingAg::new(Placement::Once, Cut::pipe(DEFAULT_PIPE_VALUES), false).step(
        comm,
        Some(cpr),
        Some(mine),
        out,
        ws,
        true,
    );
    debug_assert!(done.is_ready());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collectives::cpr_p2p::cpr_ring_allgatherv_into;
    use crate::partition::chunk_range;
    use crate::testing::{
        assert_all_within, assert_blocks_within, assert_chunks_within, on_root, pin, szx,
    };
    use crate::{Algorithm, CCollSession, CodecSpec};
    use ccoll_comm::{Kernel, SimConfig, SimWorld};
    use ccoll_compress::{Compressor, SzxCodec};
    use std::sync::Arc;

    fn session(eb: f32, n: usize) -> CCollSession {
        CCollSession::new(CodecSpec::Szx { error_bound: eb }, n)
    }

    fn rank_data(rank: usize, len: usize) -> Vec<f32> {
        (0..len)
            .map(|i| ((i + 13 * rank) as f32 * 2e-3).sin() * 4.0)
            .collect()
    }

    #[test]
    fn c_allgather_single_compression_error() {
        // THE error property of the framework: every block's error is one
        // single compression error ≤ eb, regardless of hop count — and a
        // rank's own block is exact.
        let n = 8;
        let eb = 1e-3f32;
        let len = 2000;
        let out = SimWorld::new(SimConfig::new(n)).run(move |c| {
            session(eb, n)
                .plan_allgather(len)
                .execute(c, &rank_data(c.rank(), len))
        });
        assert_blocks_within(
            &out.results,
            |src| rank_data(src, len),
            eb + 1e-7,
            true,
            "ring",
        );
    }

    #[test]
    fn c_allgatherv_unequal_counts() {
        let n = 5;
        let counts = [100usize, 0, 333, 17, 250];
        let out = SimWorld::new(SimConfig::new(n)).run(move |c| {
            let mine = rank_data(c.rank(), counts[c.rank()]);
            session(1e-4, n).plan_allgatherv(&counts).execute(c, &mine)
        });
        let block = |src: usize| rank_data(src, counts[src]);
        assert_blocks_within(&out.results, block, 1e-4 + 1e-7, false, "ring");
    }

    #[test]
    fn c_bruck_single_compression_error() {
        // The compress-once property must survive the Bruck schedule:
        // blocks relayed through up to ⌈log₂n⌉ container hops still
        // carry exactly one compression error.
        for n in [2usize, 3, 5, 8, 9] {
            let eb = 1e-3f32;
            let len = 800;
            let out = SimWorld::new(SimConfig::new(n)).run(move |c| {
                session(eb, n)
                    .plan_allgather_with(len, pin(Algorithm::Bruck))
                    .execute(c, &rank_data(c.rank(), len))
            });
            let what = format!("bruck n={n}");
            assert_blocks_within(
                &out.results,
                |src| rank_data(src, len),
                eb + 1e-7,
                true,
                &what,
            );
        }
    }

    #[test]
    fn c_bruck_unequal_counts() {
        let n = 6;
        let counts = [40usize, 0, 333, 17, 250, 5];
        let out = SimWorld::new(SimConfig::new(n)).run(move |c| {
            let mine = rank_data(c.rank(), counts[c.rank()]);
            session(1e-4, n)
                .plan_allgatherv_with(&counts, pin(Algorithm::Bruck))
                .execute(c, &mine)
        });
        let block = |src: usize| rank_data(src, counts[src]);
        assert_blocks_within(&out.results, block, 1e-4 + 1e-7, false, "bruck");
    }

    #[test]
    fn c_bcast_single_bound_all_roots() {
        let n = 9;
        let eb = 1e-3f32;
        for root in [0usize, 4, 8] {
            let out = SimWorld::new(SimConfig::new(n)).run(move |c| {
                let data = on_root(c.rank(), root, rank_data(root, 1500));
                session(eb, n).plan_bcast(root, 1500).execute(c, &data)
            });
            // A looser result means multi-hop error leaked in.
            let what = format!("root {root}");
            assert_all_within(&out.results, &rank_data(root, 1500), eb + 1e-7, &what);
        }
    }

    #[test]
    fn c_scatter_single_bound() {
        let n = 6;
        let total = 999;
        let eb = 1e-3f32;
        let out = SimWorld::new(SimConfig::new(n)).run(move |c| {
            let data = on_root(c.rank(), 1, rank_data(5, total));
            session(eb, n).plan_scatter(1, total).execute(c, &data)
        });
        let full = rank_data(5, total);
        assert_chunks_within(&out.results, &full, eb + 1e-7, "scatter");
        // Root keeps its chunk losslessly.
        assert_eq!(out.results[1], &full[chunk_range(total, n, 1)]);
    }

    #[test]
    fn overlapped_relay_matches_monolithic_bitwise_and_is_faster() {
        // The pipelined relay decompresses the same compress-once blocks
        // in a different interleaving: results must be bitwise identical
        // while the deferred-decompression makespan shrinks.
        let n = 8;
        let len = 120_000;
        let counts = vec![len; n];
        let run = |overlap: bool| {
            let counts = counts.clone();
            let world = SimWorld::new(SimConfig::new(n));
            let cpr = szx(1e-3);
            world.run(move |c| {
                let mine = rank_data(c.rank(), len);
                if overlap {
                    return session(1e-3, n).plan_allgather(len).execute(c, &mine);
                }
                let mut out = vec![0.0f32; n * len];
                let mut ws = CollWorkspace::new();
                c_ring_allgatherv_monolithic_into(c, &cpr, &mine, &counts, &mut out, &mut ws);
                out
            })
        };
        let mono = run(false);
        let piped = run(true);
        for r in 0..n {
            assert_eq!(piped.results[r], mono.results[r], "rank {r} diverged");
        }
        assert!(
            piped.makespan < mono.makespan,
            "overlapped relay {:?} should undercut monolithic {:?}",
            piped.makespan,
            mono.makespan
        );
    }

    #[test]
    fn streamed_relay_is_bit_identical_to_whole_blocks() {
        // Sub-chunks of the default 5120 values are forty whole SZx
        // blocks, so a block streamed in them (here two and a half) is
        // encoded exactly as in one piece: an allgather and an allreduce
        // at the default pipe give the bits of `with_pipeline_values(len)`,
        // whose every block travels as one message.
        let n = 8;
        let block = 12_800;
        let run = |whole: bool| {
            SimWorld::new(SimConfig::new(n))
                .run(move |c| {
                    let mut session = session(1e-3, n);
                    if whole {
                        session = session.with_pipeline_values(n * block);
                    }
                    let gathered = session
                        .plan_allgather(block)
                        .execute(c, &rank_data(c.rank(), block));
                    let reduced = session
                        .plan_allreduce(n * block, crate::ReduceOp::Sum)
                        .execute(c, &rank_data(c.rank(), n * block));
                    let bits = |v: Vec<f32>| v.into_iter().map(f32::to_bits).collect::<Vec<_>>();
                    (
                        bits(gathered),
                        bits(reduced),
                        c.profiler().traffic().messages_sent,
                    )
                })
                .results
        };
        let (streamed, whole) = (run(false), run(true));
        for r in 0..n {
            assert_eq!(streamed[r].0, whole[r].0, "allgather rank {r}");
            assert_eq!(streamed[r].1, whole[r].1, "allreduce rank {r}");
            assert!(
                streamed[r].2 > whole[r].2,
                "rank {r}: sub-chunks are messages"
            );
        }
    }

    #[test]
    fn relay_sub_chunks_never_fall_below_the_default_pipe() {
        // A pipe tuned below the default for the reduce-scatter's codec
        // overlap leaves the relay's sub-chunks at the default: at 1280
        // values an allgather sends what it sends at 5120 — three
        // messages per block per round — and decodes the same bits.
        let n = 8;
        let block = 12_800;
        let run = |pipe: usize| {
            SimWorld::new(SimConfig::new(n))
                .run(move |c| {
                    let gathered = session(1e-3, n)
                        .with_pipeline_values(pipe)
                        .plan_allgather(block)
                        .execute(c, &rank_data(c.rank(), block));
                    let bits: Vec<u32> = gathered.into_iter().map(f32::to_bits).collect();
                    (bits, c.profiler().traffic().messages_sent)
                })
                .results
        };
        let (small, default) = (run(1280), run(DEFAULT_PIPE_VALUES));
        for r in 0..n {
            assert_eq!(small[r], default[r], "rank {r}");
            assert_eq!(default[r].1, 3 * (n as u64 - 1), "rank {r}");
        }
    }

    #[test]
    fn nd_compresses_once_vs_di_many() {
        // Count compression invocations through a counting codec wrapper.
        use std::sync::atomic::{AtomicUsize, Ordering};
        static COUNT: AtomicUsize = AtomicUsize::new(0);

        struct Counting(SzxCodec);
        impl Compressor for Counting {
            fn compress(&self, d: &[f32]) -> Result<Vec<u8>, ccoll_compress::CompressError> {
                COUNT.fetch_add(1, Ordering::SeqCst);
                self.0.compress(d)
            }
            fn decompress(&self, s: &[u8]) -> Result<Vec<f32>, ccoll_compress::CompressError> {
                self.0.decompress(s)
            }
            fn kind(&self) -> ccoll_compress::CodecKind {
                self.0.kind()
            }
        }

        let n = 8;
        COUNT.store(0, Ordering::SeqCst);
        let cpr = CprCodec::new(
            Arc::new(Counting(SzxCodec::new(1e-3))),
            Kernel::SzxCompress,
            Kernel::SzxDecompress,
        );
        let world = SimWorld::new(SimConfig::new(n));
        world.run(move |c| {
            // A session whose codec counts its calls.
            let mut session = session(1e-3, n);
            session.cpr = Some(cpr.clone());
            session
                .plan_allgather(500)
                .execute(c, &rank_data(c.rank(), 500))
        });
        let c_coll_count = COUNT.swap(0, Ordering::SeqCst);
        assert_eq!(
            c_coll_count, n,
            "C-Allgather: exactly one compression per rank"
        );

        let cpr = CprCodec::new(
            Arc::new(Counting(SzxCodec::new(1e-3))),
            Kernel::SzxCompress,
            Kernel::SzxDecompress,
        );
        let world = SimWorld::new(SimConfig::new(n));
        world.run(move |c| {
            let mut out = vec![0.0f32; n * 500];
            let mut ws = CollWorkspace::new();
            let mine = rank_data(c.rank(), 500);
            cpr_ring_allgatherv_into(c, &cpr, &mine, &[500; 8], &mut out, &mut ws);
        });
        let di_count = COUNT.load(Ordering::SeqCst);
        assert_eq!(
            di_count,
            n * (n - 1),
            "CPR-P2P allgather: one compression per rank per round"
        );
    }
}
