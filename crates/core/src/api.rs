//! The user-facing C-Coll interface (`C-Allreduce`, `C-Scatter`,
//! `C-Bcast`, …) plus the step-wise variants of the paper's Table V used
//! by the benchmark harness.

use ccoll_comm::Comm;

use crate::codec::CodecSpec;
use crate::collectives::baseline;
use crate::collectives::cpr_p2p::{self, CprCodec};
use crate::frameworks::computation::{self, PipelineConfig};
use crate::frameworks::data_movement;
use crate::partition::chunk_lengths;
pub use crate::reduce::ReduceOp;

/// The step-wise allreduce variants benchmarked in the paper (Table V).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AllreduceVariant {
    /// "AD" — the original MPI_Allreduce, no compression.
    Original,
    /// "DI" — direct integration: CPR-P2P in both stages.
    DirectIntegration,
    /// "ND" — the collective data-movement framework fixes the allgather
    /// stage; the reduce-scatter stage remains CPR-P2P.
    NovelDesign,
    /// "Overlap" — ND plus the pipelined collective computation
    /// framework in the reduce-scatter stage. This is **C-Allreduce**.
    Overlapped,
}

impl AllreduceVariant {
    /// All variants in the paper's optimization order.
    pub const ALL: [AllreduceVariant; 4] = [
        AllreduceVariant::Original,
        AllreduceVariant::DirectIntegration,
        AllreduceVariant::NovelDesign,
        AllreduceVariant::Overlapped,
    ];

    /// The paper's abbreviation.
    pub fn label(&self) -> &'static str {
        match self {
            AllreduceVariant::Original => "AD",
            AllreduceVariant::DirectIntegration => "DI",
            AllreduceVariant::NovelDesign => "ND",
            AllreduceVariant::Overlapped => "Overlap",
        }
    }
}

/// The compatibility C-Coll facade: a codec choice plus pipeline
/// configuration, with one-shot collective methods.
///
/// All collectives are generic over the communication backend, so the
/// same `CColl` value drives real threads and the virtual-time simulator.
///
/// **Migration note.** `CColl` is now a thin shim over the session +
/// persistent-plan API ([`crate::session::CCollSession`]): the codec is
/// built **once** at construction (it used to be rebuilt per collective
/// call), but each method call still allocates its output buffer and
/// workspace. Repeated-shape workloads should create a session and reuse
/// plans — `plan.execute_into` reaches a zero-allocation steady state
/// the one-shot methods cannot. Differential tests pin the two APIs
/// bitwise-identical.
#[derive(Debug, Clone)]
#[must_use]
pub struct CColl {
    spec: CodecSpec,
    pipe_values: usize,
    cpr: Option<CprCodec>,
}

impl CColl {
    /// Create a context with the paper's default 5120-value pipeline
    /// sub-chunks. The codec is built here, exactly once per `CColl`
    /// (not per collective call).
    pub fn new(spec: CodecSpec) -> Self {
        let cpr = spec.build().map(|codec| {
            let (ck, dk) = spec.kernels();
            CprCodec::new(codec, ck, dk)
        });
        CColl {
            spec,
            pipe_values: computation::DEFAULT_PIPE_VALUES,
            cpr,
        }
    }

    /// Override the pipeline sub-chunk size (values), for ablations.
    pub fn with_pipeline_values(mut self, values: usize) -> Self {
        assert!(values > 0, "pipeline sub-chunk must be positive");
        self.pipe_values = values;
        self
    }

    /// The configured codec.
    pub fn spec(&self) -> CodecSpec {
        self.spec
    }

    fn cpr(&self) -> Option<&CprCodec> {
        self.cpr.as_ref()
    }

    fn pipeline_config(&self) -> Option<PipelineConfig> {
        let eb = self.spec.error_bound()?;
        Some(PipelineConfig::new(eb).with_chunk_values(self.pipe_values))
    }

    // ------------------------------------------------------------------
    // The C-Coll collectives.
    // ------------------------------------------------------------------

    /// **C-Allreduce** (or the plain ring allreduce when the codec is
    /// `None`). Every rank contributes `data`; every rank receives the
    /// reduced buffer.
    #[must_use]
    pub fn allreduce<C: Comm>(&self, comm: &mut C, data: &[f32], op: ReduceOp) -> Vec<f32> {
        self.allreduce_variant(comm, data, op, AllreduceVariant::Overlapped)
    }

    /// Run a specific step-wise variant (Table V) — the benchmark
    /// harness's entry point for Figs. 7–13.
    #[must_use]
    pub fn allreduce_variant<C: Comm>(
        &self,
        comm: &mut C,
        data: &[f32],
        op: ReduceOp,
        variant: AllreduceVariant,
    ) -> Vec<f32> {
        let Some(cpr) = self.cpr() else {
            return baseline::ring_allreduce(comm, data, op);
        };
        match variant {
            AllreduceVariant::Original => baseline::ring_allreduce(comm, data, op),
            AllreduceVariant::DirectIntegration => cpr_p2p::cpr_ring_allreduce(comm, cpr, data, op),
            AllreduceVariant::NovelDesign => {
                let mine = cpr_p2p::cpr_ring_reduce_scatter(comm, cpr, data, op);
                let counts = chunk_lengths(data.len(), comm.size());
                data_movement::c_ring_allgatherv(comm, cpr, &mine, &counts)
            }
            AllreduceVariant::Overlapped => match self.pipeline_config() {
                Some(cfg) => computation::c_ring_allreduce(comm, cfg, cpr, data, op),
                // Codecs without an error bound (ZFP-FXR) cannot drive the
                // SZx pipeline; the best schedule available is ND.
                None => {
                    let mine = cpr_p2p::cpr_ring_reduce_scatter(comm, cpr, data, op);
                    let counts = chunk_lengths(data.len(), comm.size());
                    data_movement::c_ring_allgatherv(comm, cpr, &mine, &counts)
                }
            },
        }
    }

    /// **C-Allgather** (ring; compress-once data-movement framework).
    #[must_use]
    pub fn allgather<C: Comm>(&self, comm: &mut C, mine: &[f32]) -> Vec<f32> {
        match self.cpr() {
            Some(cpr) => data_movement::c_ring_allgather(comm, cpr, mine),
            None => baseline::ring_allgather(comm, mine),
        }
    }

    /// **C-Reduce-scatter** (pipelined computation framework). Rank `r`
    /// returns chunk `r` of the reduced buffer.
    #[must_use]
    pub fn reduce_scatter<C: Comm>(&self, comm: &mut C, data: &[f32], op: ReduceOp) -> Vec<f32> {
        match (self.pipeline_config(), self.cpr()) {
            (Some(cfg), _) => computation::c_ring_reduce_scatter(comm, cfg, data, op),
            (None, Some(cpr)) => cpr_p2p::cpr_ring_reduce_scatter(comm, cpr, data, op),
            (None, None) => baseline::ring_reduce_scatter(comm, data, op),
        }
    }

    /// **C-Bcast** (binomial tree; compress once at the root, streamed
    /// in sub-chunks so encode, relay and decode overlap).
    #[must_use]
    pub fn bcast<C: Comm>(&self, comm: &mut C, root: usize, data: &[f32]) -> Vec<f32> {
        match self.cpr() {
            Some(cpr) => data_movement::c_binomial_bcast(comm, cpr, root, data),
            None => baseline::binomial_bcast(comm, root, data),
        }
    }

    /// **C-Scatter** (binomial tree; per-segment compression at the
    /// root). Rank `r` returns chunk `r` of the balanced partition.
    #[must_use]
    pub fn scatter<C: Comm>(
        &self,
        comm: &mut C,
        root: usize,
        data: &[f32],
        total_len: usize,
    ) -> Vec<f32> {
        match self.cpr() {
            Some(cpr) => data_movement::c_binomial_scatter(comm, cpr, root, data, total_len),
            None => baseline::binomial_scatter(comm, root, data, total_len),
        }
    }

    /// **C-Gather** (binomial tree; every rank compresses its chunk once,
    /// the root performs all decompressions). One of the "more C-Coll
    /// based collectives" from the paper's future-work list.
    #[must_use]
    pub fn gather<C: Comm>(
        &self,
        comm: &mut C,
        root: usize,
        mine: &[f32],
        total_len: usize,
    ) -> Option<Vec<f32>> {
        match self.cpr() {
            Some(cpr) => data_movement::c_binomial_gather(comm, cpr, root, mine, total_len),
            None => baseline::binomial_gather(comm, root, mine, total_len),
        }
    }

    /// **C-Alltoall** (pairwise exchange; each block compressed once with
    /// a size-aware fixed schedule).
    #[must_use]
    pub fn alltoall<C: Comm>(&self, comm: &mut C, send: &[f32]) -> Vec<f32> {
        match self.cpr() {
            Some(cpr) => data_movement::c_pairwise_alltoall(comm, cpr, send),
            None => baseline::pairwise_alltoall(comm, send),
        }
    }

    /// **C-Reduce**: pipelined C-Reduce-scatter followed by C-Gather of
    /// the reduced chunks at the root. Non-roots return `None`.
    #[must_use]
    pub fn reduce<C: Comm>(
        &self,
        comm: &mut C,
        root: usize,
        data: &[f32],
        op: ReduceOp,
    ) -> Option<Vec<f32>> {
        let mine = self.reduce_scatter(comm, data, op);
        self.gather(comm, root, &mine, data.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccoll_comm::{SimConfig, SimWorld};

    fn rank_data(rank: usize, len: usize) -> Vec<f32> {
        (0..len)
            .map(|i| ((i * 3 + rank * 97) as f32 * 1e-3).cos() * 3.0)
            .collect()
    }

    #[test]
    fn all_variants_produce_bounded_results() {
        let n = 6;
        let len = 12_000;
        let eb = 1e-3f32;
        let inputs: Vec<Vec<f32>> = (0..n).map(|r| rank_data(r, len)).collect();
        let expect = ReduceOp::Sum.oracle(&inputs);
        for variant in AllreduceVariant::ALL {
            let ccoll = CColl::new(CodecSpec::Szx { error_bound: eb });
            let world = SimWorld::new(SimConfig::new(n));
            let out = world.run(move |c| {
                ccoll.allreduce_variant(c, &rank_data(c.rank(), len), ReduceOp::Sum, variant)
            });
            // Worst case: one bounded error per rank through the tree plus
            // the allgather hop(s); DI can accumulate a few more.
            let tol = (2 * n) as f32 * eb;
            for r in 0..n {
                for (a, b) in out.results[r].iter().zip(&expect) {
                    assert!(
                        (a - b).abs() <= tol,
                        "{} rank {r}: {a} vs {b}",
                        variant.label()
                    );
                }
            }
        }
    }

    #[test]
    fn none_codec_is_exact() {
        let n = 4;
        let len = 500;
        let ccoll = CColl::new(CodecSpec::None);
        let world = SimWorld::new(SimConfig::new(n));
        let out = world.run(move |c| ccoll.allreduce(c, &rank_data(c.rank(), len), ReduceOp::Sum));
        let inputs: Vec<Vec<f32>> = (0..n).map(|r| rank_data(r, len)).collect();
        let expect = ReduceOp::Sum.oracle(&inputs);
        for r in 0..n {
            for (a, b) in out.results[r].iter().zip(&expect) {
                assert!((a - b).abs() < 1e-3, "rank {r}");
            }
        }
    }

    #[test]
    fn fxr_codec_falls_back_to_nd_schedule() {
        let n = 4;
        let len = 4096;
        let ccoll = CColl::new(CodecSpec::ZfpFxr { rate: 16 });
        let world = SimWorld::new(SimConfig::new(n));
        let out = world.run(move |c| ccoll.allreduce(c, &rank_data(c.rank(), len), ReduceOp::Sum));
        // Rate 16 is near-lossless on smooth data; just check plausibility.
        let inputs: Vec<Vec<f32>> = (0..n).map(|r| rank_data(r, len)).collect();
        let expect = ReduceOp::Sum.oracle(&inputs);
        for (a, b) in out.results[0].iter().zip(&expect) {
            assert!((a - b).abs() < 0.1, "{a} vs {b}");
        }
    }

    #[test]
    fn c_collectives_roundtrip() {
        let n = 5;
        let ccoll = CColl::new(CodecSpec::Szx { error_bound: 1e-4 });
        let world = SimWorld::new(SimConfig::new(n));
        let out = world.run(move |c| {
            let me = c.rank();
            let data = rank_data(me, 1000);
            let gathered = ccoll.allgather(c, &data);
            let b = ccoll.bcast(c, 0, &gathered[..100]);
            let s = ccoll.scatter(c, 0, &gathered, gathered.len());
            (gathered.len(), b.len(), s.len())
        });
        for r in 0..n {
            let (g, b, s) = out.results[r];
            assert_eq!(g, 5000);
            assert_eq!(b, 100);
            assert_eq!(s, 1000);
        }
    }
}
