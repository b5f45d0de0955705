//! The reusable buffer set behind allocation-free steady-state
//! collectives.
//!
//! Every collective needs the same small family of transient buffers: a
//! codec scratch (compressed stream in, decoded values out), a payload
//! pool for the owned message buffers the transport keeps alive, an
//! accumulator for the reductions that cannot accumulate in the
//! caller's output, a staging copy of outgoing values, relay slots for
//! compressed blocks, and request queues. The seed allocated all of
//! these per call; a [`CollWorkspace`] owns them across calls, so a
//! persistent plan (see [`crate::session`]) reaches a steady state in
//! which `execute_into` performs **zero** heap allocations — the
//! collective-level extension of the codec-level guarantee pinned by
//! `ccoll-compress`'s counting-allocator test.
//!
//! Buffers only grow. After one warm-up call at a given shape every
//! subsequent call reuses warmed capacity; the collective allocation
//! audit (`tests/collective_alloc.rs`) enforces this end to end.

use std::collections::VecDeque;
use std::ops::Range;

use bytes::Bytes;
use ccoll_comm::{PayloadPool, RecvReq, SendReq};
use ccoll_compress::CodecScratch;

use crate::pipeline::PipeBufs;

/// Reusable buffers for one collective call chain. See the module docs.
///
/// A workspace is owned by exactly one plan (or one call chain of the
/// ablation baselines); the schedule machines borrow its fields
/// disjointly, so the decoded-values scratch can be reduced into the
/// accumulator without aliasing.
#[derive(Debug, Default)]
pub struct CollWorkspace {
    /// Codec scratch: compressed-stream and decoded-values buffers.
    pub scratch: CodecScratch,
    /// Recycling pool for owned message payload buffers.
    pub pool: PayloadPool,
    /// Full-length accumulator, lent (`mem::take`n and put back) to the
    /// reductions whose caller has no full-length output to accumulate
    /// in: the reduce-scatter plan and the non-root interior ranks of a
    /// tree reduce (the hierarchical group tree's among them, one lane
    /// long). An allreduce, flat or hierarchical, accumulates in the
    /// caller's `out` and leaves this empty. (The raw Bruck schedules also
    /// stage their held / packed blocks here.)
    pub acc: Vec<f32>,
    /// Staging buffer for outgoing value snapshots (pipelined rounds,
    /// scatter/gather subtree spans).
    pub stage: Vec<f32>,
    /// Intermediate buffer for two-level (hierarchical) schedules: the
    /// node-local phase's result, handed to the inter-node leader leg
    /// (one lane of the hierarchical allreduce, on every rank).
    /// Taken with `mem::take` around sub-machine steps so it can be
    /// borrowed alongside the rest of the workspace.
    pub hier: Vec<f32>,
    /// Relay slots: one per sub-chunk of every block in the ring
    /// allgather, block after block; one per rank in the scatter tree.
    pub blobs: Vec<Option<Bytes>>,
    /// Ordered compressed-segment list (scatter/gather containers).
    pub blob_list: Vec<Bytes>,
    /// Cached per-rank chunk lengths for the current shape.
    pub counts: Vec<usize>,
    /// Cached exclusive prefix sums of `counts`.
    pub offsets: Vec<usize>,
    /// Outstanding non-blocking sends (retired FIFO).
    pub sreqs: VecDeque<SendReq>,
    /// Outstanding non-blocking receives (drained FIFO).
    pub rreqs: VecDeque<RecvReq>,
}

impl CollWorkspace {
    /// An empty workspace; buffers warm on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// A workspace whose codec scratch is pre-sized for `values`-element
    /// payloads (plans pre-warm with the worst-case chunk size).
    pub fn with_value_capacity(values: usize) -> Self {
        CollWorkspace {
            scratch: CodecScratch::with_capacity(values),
            ..Self::default()
        }
    }

    /// Cache the balanced partition of `len` values across `n` ranks in
    /// `counts`/`offsets` (no allocation once warmed).
    pub(crate) fn set_partition(&mut self, len: usize, n: usize) {
        crate::partition::chunk_lengths_into(len, n, &mut self.counts);
        crate::partition::chunk_offsets_into(&self.counts, &mut self.offsets);
    }

    /// Cache an explicit per-rank count table in `counts`/`offsets`.
    pub(crate) fn set_partition_from_counts(&mut self, counts: &[usize]) {
        self.counts.clear();
        self.counts.extend_from_slice(counts);
        crate::partition::chunk_offsets_into(&self.counts, &mut self.offsets);
    }

    /// Value range of chunk `i` of the cached partition.
    pub(crate) fn chunk(&self, i: usize) -> Range<usize> {
        self.offsets[i]..self.offsets[i] + self.counts[i]
    }

    /// The buffers a pipeline cursor borrows.
    pub(crate) fn pipe(&mut self) -> PipeBufs<'_> {
        PipeBufs {
            pool: &mut self.pool,
            scratch: &mut self.scratch,
            sreqs: &mut self.sreqs,
            rreqs: &mut self.rreqs,
        }
    }

    /// Scrub all in-flight state after an aborted execution: pending
    /// requests and half-received blobs from the dead operation must
    /// never leak into the plan's next run. Warm capacity (scratch,
    /// pool, partition tables) is kept — only liveness state goes.
    pub(crate) fn abort(&mut self) {
        self.sreqs.clear();
        self.rreqs.clear();
        for slot in &mut self.blobs {
            *slot = None;
        }
        self.blob_list.clear();
    }
}
