//! Compute-kernel cost model for the virtual-time backend.
//!
//! In the simulator, kernels (compression, decompression, reduction,
//! memcpy) execute *for real* — they produce real bytes — but their real
//! CPU time is irrelevant to the virtual clock. Instead the collective
//! code charges a modeled duration obtained from this [`CostModel`]:
//! `bytes / throughput` per kernel class.
//!
//! Default throughputs follow the paper's single-core measurements
//! (Table I: SZx ≈ 0.9–1.7 GB/s compression, 1.7–3.6 GB/s decompression
//! on the Broadwell testbed; ZFP(ABS) 2–4× slower; ZFP(FXR) slower
//! still). `ccoll_bench::calibrate_cost_model` (or its env-gated wrapper
//! `cost_model_from_env`, `CCOLL_CALIBRATE=1`) can overwrite them with
//! throughputs measured from this repository's own Rust kernels so that
//! simulated results track the real implementation — and, through
//! `CCollSession::with_cost_model`, so that `Algorithm::Auto` schedule
//! selection picks algorithms for *this* machine's kernels rather than
//! the paper's testbed.
//!
//! Beyond per-kernel charges, the model also provides **closed-form
//! schedule estimates** ([`CostModel::estimate`] over [`Schedule`]): the
//! classic α–β–γ critical-path formulas for every collective schedule
//! implemented in the `c-coll` crate, extended with compression terms.
//! These are what `Algorithm::Auto` consults to pick a schedule from
//! (payload size, world size, codec throughput) — see the paper's
//! Table I discussion: the optimal schedule flips with message size and
//! codec speed, so a single hard-wired ring is never uniformly best.

use std::time::Duration;

use crate::sim::NetModel;
use crate::taper::Taper;

/// Bytes of one PIPE sub-chunk (5120 `f32` values, the paper's PIPE-SZx
/// granularity): the unit the streamed schedules are priced in, and
/// what `c_coll`'s default sub-chunk size is derived from.
pub const PIPE_CHUNK_BYTES: usize = 5120 * 4;

/// Values per SZx block: the boundary [`CostModel::exchange_values`]
/// cuts an exchange's halves on (`ccoll_compress`'s `DEFAULT_BLOCK`).
const SZX_BLOCK_VALUES: usize = 128;

/// Kernel classes whose cost the simulator models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kernel {
    /// SZx-style compression (cost per *uncompressed* byte).
    SzxCompress,
    /// SZx-style decompression (cost per *uncompressed* byte produced).
    SzxDecompress,
    /// ZFP fixed-accuracy compression.
    ZfpAbsCompress,
    /// ZFP fixed-accuracy decompression.
    ZfpAbsDecompress,
    /// ZFP fixed-rate compression.
    ZfpFxrCompress,
    /// ZFP fixed-rate decompression.
    ZfpFxrDecompress,
    /// Element-wise reduction (sum/max/…) over two buffers.
    Reduce,
    /// Local buffer copy.
    Memcpy,
    /// Per-call compression-buffer management (allocation, zeroing,
    /// free). The paper measures this as the 23 % "Others" share of the
    /// naive SZx integration ("SZx requires users to free
    /// compression-generated buffers", §III-D); C-Coll's preallocated
    /// designs avoid it, so only the CPR-P2P paths charge it.
    BufferMgmt,
}

impl Kernel {
    /// All kernel classes.
    pub const ALL: [Kernel; 9] = [
        Kernel::SzxCompress,
        Kernel::SzxDecompress,
        Kernel::ZfpAbsCompress,
        Kernel::ZfpAbsDecompress,
        Kernel::ZfpFxrCompress,
        Kernel::ZfpFxrDecompress,
        Kernel::Reduce,
        Kernel::Memcpy,
        Kernel::BufferMgmt,
    ];

    fn index(&self) -> usize {
        match self {
            Kernel::SzxCompress => 0,
            Kernel::SzxDecompress => 1,
            Kernel::ZfpAbsCompress => 2,
            Kernel::ZfpAbsDecompress => 3,
            Kernel::ZfpFxrCompress => 4,
            Kernel::ZfpFxrDecompress => 5,
            Kernel::Reduce => 6,
            Kernel::Memcpy => 7,
            Kernel::BufferMgmt => 8,
        }
    }
}

/// Throughput-based kernel cost model (bytes per second per kernel).
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    /// Throughput in bytes/second, indexed by kernel class.
    throughput: [f64; 9],
}

impl Default for CostModel {
    /// Defaults reflecting the paper's Table I measurements on the RTM
    /// dataset at error bound 1e-3 (MB/s → bytes/s): SZx 1479/2723,
    /// ZFP(ABS) 1082/1141, ZFP(FXR, rate 4) 610/601.
    fn default() -> Self {
        let mut m = CostModel {
            throughput: [1.0; 9],
        };
        m.set(Kernel::SzxCompress, 1.5e9);
        m.set(Kernel::SzxDecompress, 2.8e9);
        m.set(Kernel::ZfpAbsCompress, 1.0e9);
        m.set(Kernel::ZfpAbsDecompress, 1.1e9);
        m.set(Kernel::ZfpFxrCompress, 0.55e9);
        m.set(Kernel::ZfpFxrDecompress, 0.55e9);
        m.set(Kernel::Reduce, 3.0e9);
        m.set(Kernel::Memcpy, 8.0e9);
        m.set(Kernel::BufferMgmt, 4.0e9);
        m
    }
}

impl CostModel {
    /// A model where every kernel is free. Useful in correctness tests
    /// that don't care about timing.
    pub fn free() -> Self {
        CostModel {
            throughput: [f64::INFINITY; 9],
        }
    }

    /// A what-if accelerator profile (the paper's future-work direction:
    /// "deploying our design on other hardware, such as GPUs and AI
    /// accelerators"): compression kernels ~20× faster, reductions and
    /// copies at HBM rates. Network unchanged — which shifts the
    /// compute/communication balance decisively toward compression.
    pub fn gpu_profile() -> Self {
        let mut m = CostModel::default();
        m.set(Kernel::SzxCompress, 30.0e9);
        m.set(Kernel::SzxDecompress, 50.0e9);
        m.set(Kernel::ZfpAbsCompress, 20.0e9);
        m.set(Kernel::ZfpAbsDecompress, 25.0e9);
        m.set(Kernel::ZfpFxrCompress, 15.0e9);
        m.set(Kernel::ZfpFxrDecompress, 15.0e9);
        m.set(Kernel::Reduce, 100.0e9);
        m.set(Kernel::Memcpy, 400.0e9);
        m.set(Kernel::BufferMgmt, 50.0e9);
        m
    }

    /// Set a kernel's throughput in bytes/second.
    ///
    /// # Panics
    /// Panics if the throughput is not positive.
    pub fn set(&mut self, kernel: Kernel, bytes_per_sec: f64) {
        assert!(
            bytes_per_sec > 0.0,
            "throughput must be positive, got {bytes_per_sec}"
        );
        self.throughput[kernel.index()] = bytes_per_sec;
    }

    /// The throughput of a kernel in bytes/second.
    pub fn throughput(&self, kernel: Kernel) -> f64 {
        self.throughput[kernel.index()]
    }

    /// The modeled duration for processing `bytes` with `kernel`.
    pub fn cost(&self, kernel: Kernel, bytes: usize) -> Duration {
        let t = self.throughput[kernel.index()];
        if t.is_infinite() || bytes == 0 {
            return Duration::ZERO;
        }
        Duration::from_secs_f64(bytes as f64 / t)
    }

    /// Closed-form critical-path estimate for running `schedule` on an
    /// `α–β` network described by `net` with the workload `p` — the
    /// quantity `Algorithm::Auto` minimizes over candidate schedules.
    ///
    /// The formulas are the textbook per-rank critical paths (Thakur et
    /// al.'s MPICH collective analysis) extended with the codec terms of
    /// this cost model: compression/decompression time is charged per
    /// *uncompressed* byte at the throughput in [`SchedParams`], while
    /// wire terms are shrunk by the expected compression ratio. When
    /// `pipelined`, every reducing hop — ring reduce-scatter rounds,
    /// butterfly rounds and folds — is priced as the PIPE-SZx stream it
    /// runs (`CostModel::piped_hop`): the paper's pipelining credit
    /// (§III-A2), sub-chunk `j + 1` encoding while `j` is on the wire,
    /// and the legs that move finalized data — Rabenseifner's doubling
    /// rounds, the butterflies' unfold — as pooled compress-once hops
    /// that decode straight into place; on a flat network Rabenseifner's
    /// allgather relays each range's one blob instead of re-encoding
    /// (`rabenseifner_allgather`). A leg at CPR-P2P — every leg without
    /// the pipeline — pays `BufferMgmt` on each encode and decode and a
    /// `Memcpy` on each landing. Uncompressed
    /// (`compress_tput` infinite), every reducing hop streams raw
    /// pieces, folding each while the next is on the wire
    /// (`raw_hop`), and the ring allgather relays what it received
    /// (`raw_relay`).
    ///
    /// Estimates are *relative* rankings, not wall-clock predictions —
    /// they share the model's idealizations (full-duplex links, no
    /// congestion, uniform ranks).
    pub fn estimate(&self, schedule: Schedule, net: &NetModel, p: &SchedParams) -> Duration {
        self.estimate_at(schedule, net, p, true)
    }

    /// [`Self::estimate`] of a plan on a flat network (`flat`), whose
    /// link-bound raw streams run a [`Taper`] cut, or of a leg of a plan
    /// on a topology, whose raw streams keep the uniform pipe.
    fn estimate_at(
        &self,
        schedule: Schedule,
        net: &NetModel,
        p: &SchedParams,
        flat: bool,
    ) -> Duration {
        let n = p.world.max(1);
        if n == 1 {
            return Duration::ZERO;
        }
        let nf = n as f64;
        let d = p.payload_bytes as f64; // uncompressed payload, bytes
        let wire = d / p.ratio.max(1.0); // expected on-the-wire bytes
        let alpha = net.latency.as_secs_f64();
        let beta = 1.0 / net.bandwidth; // secs per wire byte
        let comp = |bytes: f64| bytes / p.compress_tput;
        let deco = |bytes: f64| bytes / p.decompress_tput;
        let reduce = |bytes: f64| bytes / self.throughput(Kernel::Reduce);
        let memcpy = |bytes: f64| bytes / self.throughput(Kernel::Memcpy);
        // Uncompressed: every reducing hop streams (`raw_hop`) and the
        // ring allgather relays what it received (`raw_relay`).
        let raw = p.compress_tput.is_infinite();
        let raw_hop = |bytes: f64| self.raw_hop(bytes, net, flat);
        // One monolithic CPR-P2P hop of `bytes`, encode to decode: the
        // naive integration pays `BufferMgmt` on both ends.
        let cpr_hop = |bytes: f64| self.cpr_hop(bytes, net, p);
        // A reducing hop of `bytes` at the session's placement, one way
        // or as an exchange (both ranks send and fold).
        let reducing_hop = |bytes: f64, exchange: bool| match (raw, p.pipelined) {
            (true, _) => raw_hop(bytes),
            (false, true) => self.piped_hop(bytes, PIPE_CHUNK_BYTES as f64, net, p, exchange),
            (false, false) => cpr_hop(bytes) + reduce(bytes),
        };
        // The butterflies run ⌊log₂n⌋ rounds over the largest power of
        // two `2^rounds ≤ n`: the `rem` ranks beyond it first fold into a
        // neighbour, which unfolds the result back at the end (see
        // `baseline.rs`) — compressed, a fold hop at the placement and a
        // monolithic CPR-P2P unfold (pipelined schedules price their
        // pooled unfold themselves).
        let log2n = (usize::BITS - (n - 1).leading_zeros()) as f64;
        let rounds = n.ilog2();
        let rem = n - (1 << rounds);
        let fold = if rem == 0 {
            0.0
        } else if raw {
            raw_hop(d) + alpha + d * beta
        } else {
            reducing_hop(d, false) + cpr_hop(d) + memcpy(d)
        };
        // Per-rank chunk of the balanced partition.
        let m = d / nf;
        // Bytes every rank relays in a bandwidth-optimal stage: all
        // chunks but its own.
        let rest = (nf - 1.0) / nf;

        // The ring reduce-scatter: `n − 1` reducing hops of one chunk,
        // each rank sending to one neighbour while folding what the other
        // sends — an exchange's work on every rank. With the PIPE-SZx
        // pipeline the transfer hides under sub-chunk compression; codecs
        // that cannot drive it pay CPR-P2P hops.
        let ring_rs = (nf - 1.0) * reducing_hop(m, true);
        // Relay-overlap credit of the pipelined allgather stage: blocks
        // received in hop k are decompressed while hop k+1's relay is in
        // flight, so each hop costs `max(transfer, decompress)` and only
        // the final block's decompression lands on the critical path.
        // Pure reordering of compress-once blocks — every codec gets it.
        let ag_hop = |xfer: f64, dec: f64| xfer.max(dec);
        // The compress-once ring allgather of `b`-byte blocks, each in
        // `c = min(b, PIPE_CHUNK_BYTES)` sub-chunks: round 0 sends every
        // sub-chunk of the own block as soon as it is encoded, so only
        // the last one's `α + wβ` follows the encode; each of the `n − 2`
        // relay rounds forwards what the last one received and decodes
        // it while the next block comes in — `max(kα + wβ, decode)`, the
        // receiving port taking its `k` sub-chunks one after another;
        // the last block's decode is exposed. There is no size step:
        // every message carries its own length.
        let once_ag = |b: f64| {
            let c = b.min(PIPE_CHUNK_BYTES as f64);
            let k = (b / c).ceil().max(1.0); // 0/0 when empty
            let last = b - (k - 1.0) * c;
            let wire = |bytes: f64| bytes / p.ratio.max(1.0) * beta;
            let relay = (nf - 2.0) * ag_hop(k * alpha + wire(b), deco(b));
            comp(b) + alpha + wire(last) + relay + deco(b)
        };

        let secs = match schedule {
            // Streamed reduce-scatter rounds, then a relaying allgather.
            Schedule::RingAllreduce if raw => ring_rs + self.raw_relay(m, n, net, flat),
            // Reduce-scatter, then the compress-once allgather of the
            // reduced chunks.
            Schedule::RingAllreduce => ring_rs + once_ag(m),
            Schedule::RecursiveDoublingAllreduce if raw => fold + log2n * raw_hop(d),
            Schedule::RecursiveDoublingAllreduce if p.pipelined => {
                let chunk = self.exchange_values(PIPE_CHUNK_BYTES / 4, net, p);
                self.piped_recursive_doubling((4 * chunk) as f64, net, p)
            }
            Schedule::RecursiveDoublingAllreduce => {
                // Every round exchanges and reduces the FULL payload
                // (latency-optimal, bandwidth-wasteful) in one CPR-P2P
                // message; a round whose partner's payload is already in
                // (see `piped_recursive_doubling`) pays no link.
                let credited = if rem == 0 {
                    0
                } else {
                    rounds - rem.next_power_of_two().ilog2()
                };
                fold + f64::from(rounds) * reducing_hop(d, true)
                    - f64::from(credited) * (alpha + wire * beta)
            }
            Schedule::RabenseifnerAllreduce if raw => {
                // Streamed halving rounds over d/2, d/4, …, then the
                // doubling rounds' whole ranges.
                let rs: f64 = (1..=log2n as i32).map(|i| raw_hop(d / 2f64.powi(i))).sum();
                fold + rs + log2n * alpha + rest * wire * beta
            }
            Schedule::RabenseifnerAllreduce if p.pipelined => {
                // Recursive-halving reduce-scatter + recursive-doubling
                // allgather: ring's bytes at tree latency. The halving
                // rounds are PIPE-SZx exchanges of d/2, d/4, …; the
                // allgather moves the finalized ranges back through the
                // pooled link. A folded rank's lag earns no credit here:
                // the doubling rounds revisit the halving partners in
                // reverse, which by then have waited for it. Nor does its
                // fold run alone: when the first halving partner of
                // position 0 was not folded, that partner's first
                // sub-chunk takes the survivor's port before the fold's,
                // one message after the other.
                let halving = (1..=rounds)
                    .map(|i| reducing_hop(d / f64::from(1u32 << i), true))
                    .sum::<f64>();
                let fold = if rem == 0 {
                    0.0
                } else {
                    let pipe = PIPE_CHUNK_BYTES as f64;
                    let (first, theirs) = (d.min(pipe), (d / 2.0).min(pipe));
                    let link = alpha + theirs / p.ratio.max(1.0) * beta;
                    let shared = if 2 * rem <= 1 << rounds {
                        (comp(theirs) + link - comp(first)).max(0.0)
                    } else {
                        0.0
                    };
                    reducing_hop(d, false) + shared
                };
                fold + halving + self.rabenseifner_allgather(d, n, net, p, flat)
            }
            Schedule::RabenseifnerAllreduce => {
                // The same at CPR-P2P: the doubling rounds are monolithic
                // CPR-P2P exchanges, each landed with a `Memcpy`.
                let round = |s: f64| reducing_hop(s, true) + cpr_hop(s) + memcpy(s);
                fold + (1..=rounds)
                    .map(|i| round(d / f64::from(1u32 << i)))
                    .sum::<f64>()
            }
            // The relay, then the own block's copy into place.
            Schedule::RingAllgather if raw => self.raw_relay(d, n, net, flat) + memcpy(d),
            // The own block's copy into place comes first.
            Schedule::RingAllgather => once_ag(d) + memcpy(d),
            Schedule::BruckAllgather => {
                // Same bytes as the ring in ⌈log₂n⌉ steps; held blocks
                // decompress while the next container is in flight. The
                // blocks received in the LAST step (n − 2^(steps−1) of
                // them, up to ~n/2) have no later transfer to hide
                // under, so their decodes stay exposed, as does the
                // final local rotation.
                let last = nf - 2f64.powi(log2n as i32 - 1);
                comp(d)
                    + log2n * alpha
                    + ((nf - 1.0) * wire * beta).max((nf - 1.0 - last) * deco(d))
                    + last * deco(d)
                    + memcpy(nf * d)
            }
            // Up to log₂n full-payload hops on the root's critical path.
            Schedule::BinomialTreeReduce if raw => log2n * raw_hop(d),
            Schedule::BinomialTreeReduce => {
                // The pipelined tree overlaps each hop three ways: the
                // child's sub-chunk compression hides the transfer, and
                // the parent's fused decompress-reduce drains chunks
                // while later ones are still in flight.
                let hop = if p.pipelined {
                    (wire * beta).max(comp(d)).max(deco(d) + reduce(d))
                } else {
                    wire * beta + comp(d) + deco(d) + reduce(d)
                };
                log2n * (alpha + hop)
            }
            Schedule::ReduceScatterGatherReduce => {
                // Ring reduce-scatter, then a binomial gather of the
                // reduced chunks.
                let gather = comp(m) + log2n * alpha + rest * (wire * beta + deco(d));
                ring_rs + gather
            }
            Schedule::BinomialTreeBcast if raw => {
                // Raw: one whole-payload message per tree level.
                comp(d) + log2n * (alpha + wire * beta) + deco(d)
            }
            Schedule::BinomialTreeBcast => {
                // Compress-once payloads stream in `k` sub-chunks through
                // a three-stage pipeline — root encode, root fan-out to
                // its ⌈log₂n⌉ children, decode — so the first sub-chunk
                // pays every stage plus the tree's hops and each further
                // one only the slowest stage. `k = 1` is the one-message
                // tree above.
                let c = d.min(PIPE_CHUNK_BYTES as f64);
                let wc = c / p.ratio.max(1.0);
                let k = (d / c).ceil().max(1.0); // 0/0 on an empty payload
                let stage = comp(c).max(log2n * wc * beta).max(deco(c));
                comp(c) + log2n * (alpha + wc * beta) + deco(c) + (k - 1.0) * stage
            }
            Schedule::PairwiseAlltoall => {
                // n−1 pairwise rounds of one block each; compressed mode
                // compresses every outgoing block once up front and
                // decodes each arrival after its round completes (no
                // overlap credit — the exchange is strictly sequential).
                let b = d / nf;
                let wb = wire / nf;
                comp(d * rest) + (nf - 1.0) * (alpha + wb * beta + deco(b)) + memcpy(b)
            }
            Schedule::BruckAlltoall => {
                // ⌈log₂n⌉ doubling rounds forwarding ~half the buffer
                // each, between a local rotation and an inverse
                // rotation. Compressed blocks travel as framed
                // compress-once blobs: one encode and one decode of the
                // foreign blocks total, re-forwarded without recoding.
                comp(d * rest)
                    + log2n * (alpha + 0.5 * wire * beta)
                    + deco(d * rest)
                    + 2.0 * memcpy(d)
            }
            // Hierarchical schedules on a *flat* network degenerate to
            // one rank per node: the local phases vanish and the
            // inter-node leg runs over the whole world.
            Schedule::HierarchicalAllreduce
            | Schedule::HierarchicalAllgather
            | Schedule::HierarchicalBcast => {
                return self.estimate_two_level(
                    schedule,
                    n,
                    1,
                    1,
                    &crate::topology::HierNet::flat(*net),
                    p,
                );
            }
        };
        Duration::from_secs_f64(secs)
    }

    /// The cut of a flat plan's link-bound raw reducing hops (`None`:
    /// they stream in pipe sub-chunks): pieces the receiver folds as they
    /// land, one latency against the exposed fold.
    pub fn hop_taper(&self, net: &NetModel) -> Option<Taper> {
        Taper::new(net, self.throughput(Kernel::Reduce), 1)
    }

    /// The cut of a flat plan's raw ring allgather over `world` ranks
    /// (`None`: it relays whole blocks): pieces copied into place as they
    /// land, each piece's latency paid in all `world − 1` rounds against
    /// the last round's exposed copy.
    pub fn relay_taper(&self, net: &NetModel, world: usize) -> Option<Taper> {
        Taper::new(
            net,
            self.throughput(Kernel::Memcpy),
            world.saturating_sub(1),
        )
    }

    /// The `(pieces, tail bytes)` a `d`-byte raw stream of a flat plan
    /// runs in under `taper`, when it cuts one: past one sub-chunk.
    fn tapered(taper: Option<Taper>, d: f64) -> Option<(f64, f64)> {
        let values = (d / 4.0).round() as usize;
        let taper = taper.filter(|_| values > PIPE_CHUNK_BYTES / 4)?;
        let k = taper.pieces(values);
        Some((k as f64, 4.0 * taper.piece(k - 1, values).len() as f64))
    }

    /// One raw reducing hop of `d` bytes over `net`. On a `flat` plan's
    /// link-bound net past one sub-chunk it runs the [`Self::hop_taper`]
    /// cut: every piece's fold hides under the next piece's transfer, so
    /// the hop is its `k` messages and the tail's fold, `kα + dβ +
    /// reduce(tail)`. Otherwise it streams in `c = min(d,
    /// PIPE_CHUNK_BYTES)` sub-chunks the receiver folds as they land:
    /// the first sub-chunk's transfer, then the slower of the fold of
    /// everything and the link carrying the `k − 1 = ⌈d/c⌉ − 1` behind it
    /// (a port is held `α + cβ` per message) plus the last one's fold —
    /// `(α + cβ) + max(reduce(d), (k−1)α + (d−c)β + reduce(c_last))`.
    /// At most one sub-chunk is the one message `α + dβ + reduce(d)`.
    fn raw_hop(&self, d: f64, net: &NetModel, flat: bool) -> f64 {
        let alpha = net.latency.as_secs_f64();
        let beta = 1.0 / net.bandwidth;
        let reduce = |bytes: f64| bytes / self.throughput(Kernel::Reduce);
        let taper = self.hop_taper(net).filter(|_| flat);
        if let Some((k, tail)) = Self::tapered(taper, d) {
            return k * alpha + d * beta + reduce(tail);
        }
        let c = d.min(PIPE_CHUNK_BYTES as f64);
        let k = (d / c).ceil().max(1.0); // 0/0 on an empty payload
        let last = d - (k - 1.0) * c;
        let behind = (k - 1.0) * alpha + (d - c) * beta + reduce(last);
        alpha + c * beta + reduce(d).max(behind)
    }

    /// The raw ring allgather's relay of `m`-byte blocks over `n` ranks:
    /// every round forwards what the last one received and copies it
    /// into place under its onward transfer. On a `flat` plan's
    /// link-bound net past one sub-chunk a block travels in the
    /// [`Self::relay_taper`] cut and the last round copies its pieces
    /// as they land — `(n−1)(kα + mβ) + memcpy(tail)`; else it is one
    /// message a round and the last block's copy is exposed —
    /// `(n−1)(α + max(mβ, memcpy(m))) + memcpy(m)`.
    fn raw_relay(&self, m: f64, n: usize, net: &NetModel, flat: bool) -> f64 {
        let alpha = net.latency.as_secs_f64();
        let beta = 1.0 / net.bandwidth;
        let memcpy = |bytes: f64| bytes / self.throughput(Kernel::Memcpy);
        let rounds = n as f64 - 1.0;
        let taper = self.relay_taper(net, n).filter(|_| flat);
        match Self::tapered(taper, m) {
            Some((k, tail)) => rounds * (k * alpha + m * beta) + memcpy(tail),
            None => rounds * (alpha + (m * beta).max(memcpy(m))) + memcpy(m),
        }
    }

    /// The sub-chunk, in values, recursive doubling's PIPE-SZx rounds
    /// and its fold hop stream in under a `pipe`-value session pipe:
    /// `pipe`, unless the `p.payload_bytes` exchange carries fewer values
    /// than two pipes and two halves cut on SZx block boundaries price
    /// the schedule cheaper (`piped_recursive_doubling`; on a
    /// power-of-two world that is the exchange's own price,
    /// `piped_hop`). The own second half then encodes while the
    /// first is on the wire, and the peer folds the first while that
    /// encode runs; the halves pay a second message, which on the
    /// default models outweighs the overlap below ~1 Ki values, or below
    /// ~1.5 Ki where a fold shares a survivor's port (DESIGN.md,
    /// "Pricing"). Block-aligned halves encode the same SZx blocks as
    /// one piece, so the results are the same bits. Plans call it with
    /// rank-identical inputs (nominal ratio, uncalibrated `net`), as
    /// [`Self::hier_lanes`], on a flat network only: on a cluster the
    /// rounds' messages queue on each node's shared NIC one by one,
    /// which the contended link [`Self::estimate_hier`] prices a
    /// butterfly on does not see, and halves run slower there (16 ranks
    /// on 4 nodes × 4 Ki values: 0.204 → 0.212 ms), so a plan on a
    /// topology keeps the pipe and is priced at it.
    pub fn exchange_values(&self, pipe: usize, net: &NetModel, p: &SchedParams) -> usize {
        let values = p.payload_bytes / 4;
        let half = values.div_ceil(2).next_multiple_of(SZX_BLOCK_VALUES);
        if !p.pipelined || values >= 2 * pipe || half >= values {
            return pipe;
        }
        let price = |c: usize| self.piped_recursive_doubling((4 * c) as f64, net, p);
        if price(half) < price(pipe) {
            half
        } else {
            pipe
        }
    }

    /// One monolithic pooled hop of `d` bytes, encode to decode straight
    /// into place: compress-once's link, with no buffer management and no
    /// copy.
    fn once_hop(&self, d: f64, net: &NetModel, p: &SchedParams) -> f64 {
        let link = net.latency.as_secs_f64() + d / p.ratio.max(1.0) / net.bandwidth;
        d / p.compress_tput + link + d / p.decompress_tput
    }

    /// The pipelined Rabenseifner's allgather of a `d`-byte vector over
    /// `n` ranks, its unfold included, after the halving left each of the
    /// `2^rounds` survivors one `m = d/2^rounds` chunk.
    ///
    /// On a `flat` network it is compress-once: each survivor encodes
    /// its own chunk once, and round `i` sends the `2^(i−1)` blobs it
    /// holds as one container while it decodes the `2^(i−2)` the last
    /// round brought, as the Bruck allgather does — `max(α + wβ,
    /// decode)` a round; the last round's `d/2` decode stays exposed. A
    /// non-power-of-two world's survivor then relays the whole blob set
    /// to its folded partner, which decodes all of it after it lands;
    /// there the fold has left the survivors out of step, and from the
    /// second round on a lagging rank's port takes its early partner's
    /// next container before its late partner's current one, one
    /// container's link more. On
    /// a cluster each round re-encodes the range it sends, a pooled hop
    /// of `d/2, d/4, …` ([`Self::once_hop`]), and so does the unfold,
    /// of `d`: the relayed blobs' headers and frame lengths add bytes to
    /// a leg bound by the bytes through each node's NIC.
    fn rabenseifner_allgather(
        &self,
        d: f64,
        n: usize,
        net: &NetModel,
        p: &SchedParams,
        flat: bool,
    ) -> f64 {
        let rounds = n.ilog2();
        let unfold = n > 1 << rounds;
        if !flat {
            let doubling = (1..=rounds)
                .map(|i| self.once_hop(d / f64::from(1u32 << i), net, p))
                .sum::<f64>();
            return doubling
                + if unfold {
                    self.once_hop(d, net, p)
                } else {
                    0.0
                };
        }
        let alpha = net.latency.as_secs_f64();
        let link = |bytes: f64| alpha + bytes / p.ratio.max(1.0) / net.bandwidth;
        let deco = |bytes: f64| bytes / p.decompress_tput;
        let m = d / f64::from(1u32 << rounds);
        let relay = (1..=rounds)
            .map(|i| {
                let sent = m * f64::from(1u32 << (i - 1));
                let held = if i > 1 { sent / 2.0 } else { 0.0 };
                link(sent).max(deco(held))
            })
            .sum::<f64>();
        let last = if unfold {
            let lag = if rounds > 1 { link(m) } else { 0.0 };
            lag + link(d) + deco(d)
        } else {
            deco(d / 2.0)
        };
        m / p.compress_tput + relay + last
    }

    /// One monolithic CPR-P2P hop of `d` bytes, encode to decode: the
    /// naive integration pays `BufferMgmt` on both ends.
    fn cpr_hop(&self, d: f64, net: &NetModel, p: &SchedParams) -> f64 {
        let bm = d / self.throughput(Kernel::BufferMgmt);
        let link = net.latency.as_secs_f64() + d / p.ratio.max(1.0) / net.bandwidth;
        d / p.compress_tput + link + d / p.decompress_tput + 2.0 * bm
    }

    /// Recursive doubling at the pipelined placement, its fold hop and
    /// its rounds in `chunk`-byte PIPE-SZx sub-chunks: ⌊log₂n⌋ in-place
    /// exchanges of the FULL payload (latency-optimal,
    /// bandwidth-wasteful) and, beyond the largest power of two, the
    /// `rem` folds before them and a pooled unfold after.
    ///
    /// The fold leaves the folded ranks behind: a round whose mask pairs
    /// one with a rank that was not folded (every mask from `rem` up)
    /// finds that partner's payload already in, so what the round
    /// exposes of its last piece's link costs nothing. A survivor's
    /// ingress port bounds the rest. With `rem` odd, the last
    /// survivor's first partner was not folded: its stream shares the
    /// port with the fold's, one message of each in turn, which delays
    /// the fold when two links outlast an encode. And every survivor's
    /// port takes the fold stream and every round's, one message after
    /// another, before the unfold: with short sub-chunks that chain, not
    /// the codec, paces it.
    fn piped_recursive_doubling(&self, chunk: f64, net: &NetModel, p: &SchedParams) -> f64 {
        let n = p.world.max(1);
        let d = p.payload_bytes as f64;
        let rounds = n.ilog2();
        let rem = n - (1 << rounds);
        let exchanges = f64::from(rounds) * self.piped_hop(d, chunk, net, p, true);
        if rem == 0 {
            return exchanges;
        }
        let credited = rounds - rem.next_power_of_two().ilog2();
        let ahead = f64::from(credited) * self.piped_tail(d, chunk, net, p);
        let unfold = self.once_hop(d, net, p);
        let fold = self.piped_hop(d, chunk, net, p, false);
        let link =
            |bytes: f64| net.latency.as_secs_f64() + bytes / p.ratio.max(1.0) / net.bandwidth;
        let c = d.min(chunk);
        let k = (d / c).ceil().max(1.0); // 0/0 on an empty payload
        let last = d - (k - 1.0) * c;
        let stream = (k - 1.0) * link(c) + link(last);
        let fold_last = last / p.decompress_tput + last / self.throughput(Kernel::Reduce);
        let enc = c / p.compress_tput;
        let shared = if rem % 2 == 1 {
            (enc + (k - 1.0) * link(c) + stream + fold_last - fold).max(0.0)
        } else {
            0.0
        };
        let chain = enc + f64::from(rounds + 1) * stream + fold_last;
        (fold + shared + exchanges - ahead + unfold).max(chain + unfold)
    }

    /// One PIPE-SZx reducing hop of `d` bytes over `net`, in `c = min(d,
    /// chunk)` sub-chunks: the sender encodes sub-chunk `j` (`e`), the
    /// link carries it (`x = α + wβ`, `w` its wire bytes) and the
    /// receiver folds it through the fused decompress-reduce (`f`). At
    /// one sub-chunk this is the monolithic `e + x + f`.
    ///
    /// One way, the three are a flow shop of `k − 1` full sub-chunks and
    /// a ragged last one, whose makespan is its slowest path: the first
    /// sub-chunk's encode, the link or the fold of every sub-chunk after
    /// it, and the last one's fold — or every encode, and then the last
    /// link and fold. On an `exchange`, where every rank both encodes its
    /// own stream and folds its peer's, the `k − 1` ahead of the last
    /// pace the stream at `max(e + f, x)`, the last pays its encode and
    /// fold, and of its link only what [`CostModel::piped_tail`] says is
    /// exposed.
    fn piped_hop(
        &self,
        d: f64,
        chunk: f64,
        net: &NetModel,
        p: &SchedParams,
        exchange: bool,
    ) -> f64 {
        let alpha = net.latency.as_secs_f64();
        let beta = 1.0 / net.bandwidth;
        let enc = |bytes: f64| bytes / p.compress_tput;
        let link = |bytes: f64| alpha + bytes / p.ratio.max(1.0) * beta;
        let fold = |bytes: f64| bytes / p.decompress_tput + bytes / self.throughput(Kernel::Reduce);
        let c = d.min(chunk);
        let k = (d / c).ceil().max(1.0); // 0/0 on an empty payload
        let last = d - (k - 1.0) * c;
        if exchange {
            let pace = (enc(c) + fold(c)).max(link(c));
            return enc(last) + self.piped_tail(d, chunk, net, p) + fold(last) + (k - 1.0) * pace;
        }
        if k == 1.0 {
            return enc(d) + link(d) + fold(d);
        }
        let (e, x, f, ahead) = (enc(c), link(c), fold(c), k - 1.0);
        let tail = f.max(link(last));
        let through = (e + x + ahead * f)
            .max((e + ahead * x).max(ahead * e + x) + tail)
            .max(ahead * e + enc(last) + link(last));
        through + fold(last)
    }

    /// What [`CostModel::piped_hop`]'s exchange exposes of its last
    /// sub-chunk's link, and so what recursive doubling credits a round
    /// whose partner's payload is already in: the whole link when the
    /// link paces the stream. A codec-paced exchange folds its peer's
    /// second-to-last sub-chunk after encoding its own last one, while
    /// the peer's last is on the wire: exposed is what that fold does not
    /// cover, or the wait for that second-to-last sub-chunk when the last
    /// encode is the shorter — or, when a link outlasts both an encode
    /// and a fold, what the links in a row add to the first encode and
    /// the last fold. Pinned on the simulator by
    /// `piped_exchange_exposes_only_the_unfolded_last_link` (one exchange;
    /// the whole last link reads 8.5 % high at two full sub-chunks), the
    /// ring reduce-scatter rounds of
    /// `compress_once_ring_tracks_the_simulator` (8 ranks × 64 Ki values:
    /// 5.7 % high), recursive doubling's two halves in
    /// `piped_recursive_doubling_tracks_the_simulator` (1 Ki values: 6.3 %
    /// low without the links in a row) and its credit in
    /// `compressed_fold_and_unfold_track_the_simulator` (5 ranks × 8 Ki:
    /// 7.1 % low).
    fn piped_tail(&self, d: f64, chunk: f64, net: &NetModel, p: &SchedParams) -> f64 {
        let link =
            |bytes: f64| net.latency.as_secs_f64() + bytes / p.ratio.max(1.0) / net.bandwidth;
        let fold = |bytes: f64| bytes / p.decompress_tput + bytes / self.throughput(Kernel::Reduce);
        let enc = |bytes: f64| bytes / p.compress_tput;
        let c = d.min(chunk);
        let k = (d / c).ceil().max(1.0); // 0/0 on an empty payload
        let last = d - (k - 1.0) * c;
        if k > 1.0 && enc(c) + fold(c) > link(c) {
            let in_a_row =
                enc(c) - enc(last) + (k - 1.0) * (link(c) - enc(c) - fold(c)) + link(last);
            (link(c) - enc(last))
                .max(link(last) - fold(c))
                .max(in_a_row)
                .max(0.0)
        } else {
            link(last)
        }
    }

    /// Closed-form critical-path estimate on a **two-level** network:
    /// the hierarchical counterpart of [`CostModel::estimate`], and the
    /// quantity `Algorithm::Auto` minimizes when the session carries a
    /// [`ClusterNet`](crate::topology::ClusterNet). Flat schedules are
    /// priced with the inter-node model (on a ring or butterfly spanning
    /// several nodes, every round's critical hop crosses a node
    /// boundary); hierarchical schedules split into per-level legs —
    /// raw intra-node phases at the intra model, the codec-carrying
    /// inter-node leg at the inter model.
    pub fn estimate_hier(
        &self,
        schedule: Schedule,
        topo: &crate::topology::Topology,
        hier: &crate::topology::HierNet,
        p: &SchedParams,
    ) -> Duration {
        self.estimate_shape(
            schedule,
            topo.nodes(),
            topo.max_node_size(),
            topo.min_node_size(),
            hier,
            p,
        )
    }

    /// [`CostModel::estimate_hier`] for a uniform `nodes` × `node_size`
    /// cluster, for callers that hold the shape rather than a
    /// [`Topology`](crate::topology::Topology).
    pub fn estimate_hier_sized(
        &self,
        schedule: Schedule,
        nodes: usize,
        node_size: usize,
        hier: &crate::topology::HierNet,
        p: &SchedParams,
    ) -> Duration {
        self.estimate_shape(schedule, nodes, node_size, node_size, hier, p)
    }

    /// The shape the laned hierarchical allreduce runs with on `topo`:
    /// its lane count, and whether its two group legs stream as
    /// sub-chunk chains (else they are binomial trees) — the shape whose
    /// price [`CostModel::estimate_hier`] returns. Plans call it with
    /// rank-identical inputs (nominal ratio, uncalibrated `hier`), so
    /// every rank derives the same shape without a message.
    pub fn hier_lanes(
        &self,
        topo: &crate::topology::Topology,
        hier: &crate::topology::HierNet,
        p: &SchedParams,
    ) -> (usize, bool) {
        let (nodes, s, cap) = (topo.nodes(), topo.max_node_size(), topo.min_node_size());
        let best = self.laned_allreduce(nodes, s, cap, hier, p);
        (best.lanes, best.streamed)
    }

    /// Price `schedule` on `nodes` nodes of at most `node_size` and at
    /// least `lane_cap` ranks.
    fn estimate_shape(
        &self,
        schedule: Schedule,
        nodes: usize,
        node_size: usize,
        lane_cap: usize,
        hier: &crate::topology::HierNet,
        p: &SchedParams,
    ) -> Duration {
        match schedule {
            Schedule::HierarchicalAllreduce
            | Schedule::HierarchicalAllgather
            | Schedule::HierarchicalBcast => {
                self.estimate_two_level(schedule, nodes, node_size, lane_cap, hier, p)
            }
            // A ring only ever pushes one flow per node boundary, so
            // its inter hops never contend for the shared NIC.
            Schedule::RingAllreduce | Schedule::RingAllgather => {
                self.estimate_at(schedule, &hier.inter, p, false)
            }
            // Butterfly / tree / alltoall rounds send from every rank
            // at once: the s ranks of a node serialize on one NIC, so
            // the effective inter bandwidth divides by the node size.
            // Recursive doubling on a cluster keeps the pipe (see
            // `CostModel::exchange_values`).
            Schedule::RecursiveDoublingAllreduce if p.pipelined => {
                let net = hier.shared_inter(node_size);
                let pipe = PIPE_CHUNK_BYTES as f64;
                Duration::from_secs_f64(self.piped_recursive_doubling(pipe, &net, p))
            }
            _ => self.estimate_at(schedule, &hier.shared_inter(node_size), p, false),
        }
    }

    /// The laned two-level allreduce at its best shape: the argmin of
    /// [`Self::laned_allreduce_at`]'s price over `L ∈ {1, 2, 4, …} ≤
    /// lane_cap` (every node needs `L` owners, so the smallest node caps
    /// it). Each `L` already carries its cheaper group-leg shape, so the
    /// argmin is joint over `(L, streamed)`. Ties go to the smaller `L`.
    fn laned_allreduce(
        &self,
        nodes: usize,
        node_size: usize,
        lane_cap: usize,
        hier: &crate::topology::HierNet,
        p: &SchedParams,
    ) -> Laned {
        let mut best = self.laned_allreduce_at(1, nodes, node_size, hier, p);
        let mut lanes = 2;
        while lanes <= lane_cap {
            let at = self.laned_allreduce_at(lanes, nodes, node_size, hier, p);
            if at.secs < best.secs {
                best = at;
            }
            lanes *= 2;
        }
        best
    }

    /// The two raw legs inside one `group`-rank group of the laned
    /// allreduce, over a `d`-byte lane, as `(reduce to the owner,
    /// fan-out from it)` seconds — in the binomial shape, or streamed as
    /// a `chain`.
    ///
    /// *Binomial*: ⌈log₂g⌉ whole-lane hops each way — on the way in
    /// streamed raw hops ([`Self::raw_hop`]), on the way out one message
    /// each. *Chain*: the lane moves in `c = min(d, PIPE_CHUNK_BYTES)`
    /// sub-chunks along the group's path, member `i` ↔ `i ± 1`. The first
    /// sub-chunk crosses all `g − 1` hops (folded at every one on the way
    /// in); the `k − 1 = ⌈d/c⌉ − 1` behind it follow at the pace of the
    /// slower of a link (`α + cβ` per message: a port is held until its
    /// message arrives) and a fold — `(g−1)(α + cβ + reduce(c)) +
    /// (k−1)·max(α + cβ, reduce(c))` in and `(g + k − 2)(α + cβ)` out,
    /// with the ragged last sub-chunk priced at its own size.
    fn group_legs(&self, group: usize, d: f64, intra: &NetModel, chain: bool) -> (f64, f64) {
        let ai = intra.latency.as_secs_f64();
        let bi = 1.0 / intra.bandwidth;
        let reduce = |bytes: f64| bytes / self.throughput(Kernel::Reduce);
        if !chain {
            let log2g = (usize::BITS - (group.max(1) - 1).leading_zeros()) as f64;
            return (log2g * self.raw_hop(d, intra, false), log2g * (ai + d * bi));
        }
        let c = d.min(PIPE_CHUNK_BYTES as f64);
        let k = (d / c).ceil().max(1.0); // 0/0 on an empty payload
        let hops = group.max(1) as f64 - 1.0;
        // Everything behind the first sub-chunk, through one link.
        let (behind, link) = (d - c, (k - 1.0) * ai + (d - c) * bi);
        (
            hops * (ai + c * bi + reduce(c)) + link.max(reduce(behind)),
            hops * (ai + c * bi) + link,
        )
    }

    /// The laned two-level allreduce at `lanes` lanes, leg by leg: raw
    /// ring reduce-scatter of the vector over each row (member `r` of
    /// each of the node's `L` groups), raw reduce of the d/L lane inside
    /// each ⌊s/L⌋-rank group, Rabenseifner over the `nodes` same-lane
    /// owners on d/L, raw fan-out of the lane inside the group, raw ring
    /// allgather over the row. When `L` does not divide `s` the partial
    /// last row's members fold their input into the row above first (one
    /// streamed raw hop of d) and get the result back last (one message).
    ///
    /// The two group legs run as binomial trees or as sub-chunk chains
    /// ([`Self::group_legs`]), whichever prices cheaper for the pair: one
    /// shape for both, so the price is that of what runs. A lane of at
    /// most one sub-chunk always keeps the trees — its chain would take
    /// `g − 1` hops where the tree takes ⌈log₂g⌉, never fewer.
    ///
    /// The `L` concurrent inter-node allreduces share each node's NIC,
    /// which the simulator holds for `α + tx` per *message*: together
    /// they move the same wire bytes as one leader would (β/L each),
    /// while encode / decompress-reduce run on d/L per lane. The lanes
    /// pay that serialisation as `L·α` per round, drifted apart or not:
    /// a node NIC's egress no longer waits for a busy far ingress, so a
    /// free-running lane's messages do not hold the others' up (DESIGN.md,
    /// "The per-message NIC term"). That term is what caps `L`; the group
    /// legs shrinking with the group is what raises it.
    fn laned_allreduce_at(
        &self,
        lanes: usize,
        nodes: usize,
        node_size: usize,
        hier: &crate::topology::HierNet,
        p: &SchedParams,
    ) -> Laned {
        let d = p.payload_bytes as f64;
        let ai = hier.intra.latency.as_secs_f64();
        let bi = 1.0 / hier.intra.bandwidth;
        let memcpy = |bytes: f64| bytes / self.throughput(Kernel::Memcpy);
        let lf = lanes as f64;
        let c = d / lf;
        let group = node_size.max(1) / lanes;
        let legs = |chain| {
            let (fold, fan) = self.group_legs(group, c, &hier.intra, chain);
            fold + fan
        };
        let (tree, chain) = (legs(false), legs(true));
        let streamed = c > PIPE_CHUNK_BYTES as f64 && chain < tree;
        // The partial row's fold-in and hand-back.
        let spare = if node_size.is_multiple_of(lanes) {
            0.0
        } else {
            self.raw_hop(d, &hier.intra, false) + ai + d * bi
        };
        // The reduce-scatter's rounds are streamed raw hops; the
        // allgather's relay copies each lane into place under its onward
        // transfer, all but the last one.
        let ring = if lanes > 1 {
            let relay = ai + (c * bi).max(memcpy(c));
            (lf - 1.0) * (self.raw_hop(c, &hier.intra, false) + relay) + memcpy(c)
        } else {
            0.0
        };
        let shared_nic = NetModel {
            latency: hier.inter.latency.mul_f64(lf),
            bandwidth: hier.inter.bandwidth / lf,
        };
        let lane = SchedParams {
            world: nodes,
            payload_bytes: p.payload_bytes / lanes,
            ..*p
        };
        let inter = self.estimate_at(Schedule::RabenseifnerAllreduce, &shared_nic, &lane, false);
        Laned {
            lanes,
            streamed,
            secs: if streamed { chain } else { tree } + spare + ring + inter.as_secs_f64(),
        }
    }

    /// Price a hierarchical schedule's legs: raw intra-node fan-in/out
    /// over the largest node (`node_size` ranks) plus the inter-node leg
    /// (`nodes` peers) carrying the codec terms.
    fn estimate_two_level(
        &self,
        schedule: Schedule,
        nodes: usize,
        node_size: usize,
        lane_cap: usize,
        hier: &crate::topology::HierNet,
        p: &SchedParams,
    ) -> Duration {
        let n = p.world.max(1);
        if n == 1 {
            return Duration::ZERO;
        }
        let d = p.payload_bytes as f64;
        let ai = hier.intra.latency.as_secs_f64();
        let bi = 1.0 / hier.intra.bandwidth;
        let s = node_size.max(1);
        let log2s = (usize::BITS - (s - 1).leading_zeros()) as f64;
        let leaders = SchedParams { world: nodes, ..*p };
        let secs = match schedule {
            Schedule::HierarchicalAllreduce => {
                self.laned_allreduce(nodes, node_size, lane_cap, hier, p)
                    .secs
            }
            Schedule::HierarchicalAllgather => {
                // Node-local binomial gather of member blocks into the
                // leader, ring allgather of node blocks over the
                // leaders, node-local bcast of the assembled buffer.
                let sf = s as f64;
                let total = d * n as f64;
                let local_gather = log2s * ai + (sf - 1.0) * d * bi;
                let local_bcast = log2s * (ai + total * bi);
                let node_block = SchedParams {
                    world: nodes,
                    payload_bytes: (p.payload_bytes * n) / nodes.max(1),
                    ..*p
                };
                let inter =
                    self.estimate_at(Schedule::RingAllgather, &hier.inter, &node_block, false);
                local_gather + inter.as_secs_f64() + local_bcast
            }
            Schedule::HierarchicalBcast => {
                // Root-to-leader hand-off (intra-node, raw), binomial
                // bcast over the leaders (compress-once), node-local
                // binomial fan-out (raw).
                let to_leader = ai + d * bi;
                let local_bcast = log2s * (ai + d * bi);
                let inter =
                    self.estimate_at(Schedule::BinomialTreeBcast, &hier.inter, &leaders, false);
                to_leader + inter.as_secs_f64() + local_bcast
            }
            _ => unreachable!("estimate_two_level prices hierarchical schedules only"),
        };
        Duration::from_secs_f64(secs)
    }
}

/// The laned allreduce's shape at one lane count, with its price.
#[derive(Debug, Clone, Copy)]
struct Laned {
    lanes: usize,
    /// The group legs run as sub-chunk chains (else binomial trees).
    streamed: bool,
    secs: f64,
}

/// The collective schedules the cost model can rank (one entry per
/// `*_into` implementation in the `c-coll` crate). `Algorithm::Auto`
/// maps its candidate algorithms onto these shapes and picks the
/// minimum [`CostModel::estimate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Schedule {
    /// Ring reduce-scatter + ring allgather (bandwidth-optimal;
    /// pipelined compression overlap in the reduce-scatter stage).
    RingAllreduce,
    /// Recursive-doubling butterfly allreduce (latency-optimal; full
    /// payload exchanged and re-compressed every round).
    RecursiveDoublingAllreduce,
    /// Rabenseifner allreduce: recursive-halving reduce-scatter +
    /// recursive-doubling allgather (ring bytes at tree latency).
    RabenseifnerAllreduce,
    /// Ring allgather relaying compress-once blocks.
    RingAllgather,
    /// Bruck allgather: ⌈log₂n⌉ doubling steps + final local rotation.
    BruckAllgather,
    /// Binomial-tree rooted reduce (full payload per hop).
    BinomialTreeReduce,
    /// Rooted reduce as ring reduce-scatter + binomial gather.
    ReduceScatterGatherReduce,
    /// Binomial-tree broadcast (compress once at the root).
    BinomialTreeBcast,
    /// Pairwise-exchange alltoall: n−1 rounds of one block each.
    PairwiseAlltoall,
    /// Bruck alltoall: ⌈log₂n⌉ doubling rounds forwarding ~half the
    /// buffer each, between a local rotation and an inverse rotation.
    BruckAlltoall,
    /// Two-level laned allreduce. Each node's ranks form `L` groups,
    /// and member `r` of every group a row: ring reduce-scatter over the
    /// row, reduce of the d/L lane inside the group, Rabenseifner
    /// allreduce of each lane over that lane's owners on every node,
    /// fan-out of the lane inside the group, ring allgather over the row
    /// (both group legs binomial trees or sub-chunk chains). Priced at
    /// the shape it runs ([`CostModel::hier_lanes`]); `L = 1` is one
    /// leader per node and no ring legs.
    HierarchicalAllreduce,
    /// Two-level allgather: node-local gather into the leader, ring
    /// allgather of node blocks over the leaders, node-local bcast.
    HierarchicalAllgather,
    /// Two-level broadcast: root-to-leader hand-off, binomial bcast
    /// over the leaders, node-local binomial fan-out.
    HierarchicalBcast,
}

/// Workload description for [`CostModel::estimate`].
///
/// `payload_bytes` is the *uncompressed* per-rank buffer: the allreduce
/// / reduce input length for reduction schedules, one rank's contributed
/// block for allgather, the broadcast buffer for bcast.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SchedParams {
    /// Communicator size.
    pub world: usize,
    /// Uncompressed per-rank payload in bytes (see the type docs).
    pub payload_bytes: usize,
    /// Compression throughput in uncompressed bytes/second
    /// (`f64::INFINITY` for uncompressed schedules).
    pub compress_tput: f64,
    /// Decompression throughput in uncompressed bytes/second produced.
    pub decompress_tput: f64,
    /// Expected compression ratio (≥ 1): wire bytes are
    /// `payload / ratio`.
    pub ratio: f64,
    /// Whether the ring reduce-scatter can run the PIPE-SZx overlap
    /// (error-bounded codecs only): grants the per-hop
    /// `max(transfer, compress)` credit instead of their sum, matching
    /// what `execute_into` will actually run.
    pub pipelined: bool,
}

impl SchedParams {
    /// Parameters for an uncompressed schedule: codec terms vanish and
    /// bytes travel at ratio 1.
    pub fn uncompressed(world: usize, payload_bytes: usize) -> Self {
        SchedParams {
            world,
            payload_bytes,
            compress_tput: f64::INFINITY,
            decompress_tput: f64::INFINITY,
            ratio: 1.0,
            pipelined: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::taper::Cut;

    #[test]
    fn default_ordering_matches_paper() {
        // Paper: SZx faster than ZFP(ABS), which is faster than ZFP(FXR).
        let m = CostModel::default();
        assert!(m.throughput(Kernel::SzxCompress) > m.throughput(Kernel::ZfpAbsCompress));
        assert!(m.throughput(Kernel::ZfpAbsCompress) > m.throughput(Kernel::ZfpFxrCompress));
    }

    #[test]
    fn cost_arithmetic() {
        let mut m = CostModel::default();
        m.set(Kernel::Reduce, 1e9);
        assert_eq!(
            m.cost(Kernel::Reduce, 1_000_000_000),
            Duration::from_secs(1)
        );
        assert_eq!(m.cost(Kernel::Reduce, 0), Duration::ZERO);
    }

    #[test]
    fn free_model_charges_nothing() {
        let m = CostModel::free();
        assert_eq!(m.cost(Kernel::SzxCompress, usize::MAX / 2), Duration::ZERO);
    }

    #[test]
    #[should_panic(expected = "throughput must be positive")]
    fn zero_throughput_rejected() {
        CostModel::default().set(Kernel::Memcpy, 0.0);
    }

    fn szx_params(world: usize, payload_bytes: usize) -> SchedParams {
        let m = CostModel::default();
        SchedParams {
            world,
            payload_bytes,
            compress_tput: m.throughput(Kernel::SzxCompress),
            decompress_tput: m.throughput(Kernel::SzxDecompress),
            ratio: 8.0,
            pipelined: true,
        }
    }

    #[test]
    fn allreduce_estimates_cross_over_with_size() {
        // THE selection property: latency-optimal recursive doubling
        // wins small payloads; bandwidth-optimal ring/Rabenseifner win
        // large ones. This is the crossover Algorithm::Auto rides.
        let m = CostModel::default();
        let net = NetModel::default();
        let est = |s, bytes| m.estimate(s, &net, &szx_params(16, bytes)).as_secs_f64();

        let small = 512; // 128 values — latency-dominated regime
        assert!(
            est(Schedule::RecursiveDoublingAllreduce, small) < est(Schedule::RingAllreduce, small),
            "recursive doubling must win small payloads"
        );
        assert!(
            est(Schedule::RecursiveDoublingAllreduce, small)
                < est(Schedule::RabenseifnerAllreduce, small),
            "recursive doubling must beat Rabenseifner on small payloads"
        );

        let large = 64 * 1024 * 1024;
        let rd = est(Schedule::RecursiveDoublingAllreduce, large);
        let best_bw =
            est(Schedule::RingAllreduce, large).min(est(Schedule::RabenseifnerAllreduce, large));
        assert!(
            best_bw < rd,
            "a bandwidth-optimal schedule must win large payloads: {best_bw} vs {rd}"
        );
    }

    #[test]
    fn allgather_estimates_cross_over_with_size() {
        let m = CostModel::default();
        let net = NetModel::default();
        let est = |s, bytes| m.estimate(s, &net, &szx_params(32, bytes)).as_secs_f64();
        assert!(
            est(Schedule::BruckAllgather, 256) < est(Schedule::RingAllgather, 256),
            "Bruck (log n latency terms) must win tiny blocks"
        );
        let large = 16 * 1024 * 1024;
        assert!(
            est(Schedule::RingAllgather, large) < est(Schedule::BruckAllgather, large),
            "the ring (no rotation memcpy) must win large blocks"
        );
    }

    #[test]
    fn reduce_estimates_cross_over_with_size() {
        let m = CostModel::default();
        let net = NetModel::default();
        let est = |s, bytes| m.estimate(s, &net, &szx_params(16, bytes)).as_secs_f64();
        assert!(
            est(Schedule::BinomialTreeReduce, 512) < est(Schedule::ReduceScatterGatherReduce, 512),
            "binomial tree must win small reduces"
        );
        let large = 64 * 1024 * 1024;
        assert!(
            est(Schedule::ReduceScatterGatherReduce, large)
                < est(Schedule::BinomialTreeReduce, large),
            "reduce-scatter + gather must win large reduces"
        );
    }

    #[test]
    fn eight_rank_crossovers_match_measured_argmin() {
        // The BENCH_algo.json crossover sequence at nodes=8 under the
        // default SZx profile: recursive doubling at 64 values (its
        // rounds are PIPE-SZx exchanges, with no `BufferMgmt`),
        // Rabenseifner from 512 to 32 Ki (its allgather relays each
        // range's one blob), ring at 2 Mi (its compress-once allgather
        // streams in sub-chunks, where Rabenseifner's decodes its last
        // round's half of the vector after it lands).
        let m = CostModel::default();
        let net = NetModel::default();
        let candidates = [
            Schedule::RingAllreduce,
            Schedule::RecursiveDoublingAllreduce,
            Schedule::RabenseifnerAllreduce,
        ];
        let argmin = |values: usize| {
            candidates
                .iter()
                .copied()
                .min_by_key(|s| m.estimate(*s, &net, &szx_params(8, values * 4)))
                .unwrap()
        };
        assert_eq!(argmin(64), Schedule::RecursiveDoublingAllreduce);
        assert_eq!(argmin(512), Schedule::RabenseifnerAllreduce);
        assert_eq!(argmin(4096), Schedule::RabenseifnerAllreduce);
        assert_eq!(argmin(32768), Schedule::RabenseifnerAllreduce);
        assert_eq!(argmin(2_097_152), Schedule::RingAllreduce);
    }

    #[test]
    fn pipelined_rabenseifner_and_tree_reduce_gain_credit() {
        // Every schedule that drives the sub-chunk pipeline must rank
        // better with it than without — and the credit is bounded by
        // the full compression (reduce-side) term it can hide.
        let m = CostModel::default();
        let net = NetModel::default();
        for s in [
            Schedule::RabenseifnerAllreduce,
            Schedule::BinomialTreeReduce,
        ] {
            let mut p = szx_params(16, 8 * 1024 * 1024);
            p.pipelined = false;
            let plain = m.estimate(s, &net, &p);
            p.pipelined = true;
            let piped = m.estimate(s, &net, &p);
            assert!(piped < plain, "{s:?}: {piped:?} !< {plain:?}");
        }
    }

    #[test]
    fn allgather_relay_overlap_hides_decompression() {
        // The relay-overlap credit: with a decompression slower than the
        // wire, the ring allgather's critical path is bounded by the
        // max() of the two streams, not their sum.
        let m = CostModel::default();
        let net = NetModel::default();
        let p = szx_params(16, 4 * 1024 * 1024);
        let est = m.estimate(Schedule::RingAllgather, &net, &p).as_secs_f64();
        let nf = 15.0f64;
        let alpha = net.latency.as_secs_f64();
        let wire = p.payload_bytes as f64 / p.ratio / net.bandwidth;
        let deco = p.payload_bytes as f64 / p.decompress_tput;
        let comp = p.payload_bytes as f64 / p.compress_tput;
        let summed = comp + nf * (alpha + wire + deco);
        // Round 0 exposes the last sub-chunk's transfer only, the 14
        // relay rounds the slower stream.
        let (d, c) = (p.payload_bytes, PIPE_CHUNK_BYTES);
        let last = wire * (d - (d.div_ceil(c) - 1) * c) as f64 / d as f64;
        let memcpy = d as f64 / m.throughput(Kernel::Memcpy);
        let overlapped =
            comp + alpha + last + (nf - 1.0) * (alpha + wire).max(deco) + deco + memcpy;
        assert!((est - overlapped).abs() < 1e-9, "{est} vs {overlapped}");
        assert!(est < summed, "overlap credit missing: {est} vs {summed}");
    }

    #[test]
    fn unpipelined_ring_loses_its_overlap_credit() {
        // A codec that cannot drive the pipeline (ZFP-FXR, lossless)
        // pays transfer + compression per hop instead of hiding one
        // under the other, and `BufferMgmt` at both ends of its CPR-P2P
        // hops, so the pipelining credit must be gated on `pipelined` —
        // selection then ranks the schedule that will actually execute.
        let m = CostModel::default();
        let net = NetModel::default();
        let mut p = szx_params(16, 64 * 1024 * 1024);
        p.pipelined = false;
        let ring = m.estimate(Schedule::RingAllreduce, &net, &p);
        p.pipelined = true;
        let ring_piped = m.estimate(Schedule::RingAllreduce, &net, &p);
        assert!(ring_piped < ring, "{ring_piped:?} vs {ring:?}");
        // The credit never exceeds the full compression term plus the
        // buffer management the pooled pipeline does without.
        let gap = ring - ring_piped;
        let d = p.payload_bytes as f64;
        let bound = Duration::from_secs_f64(
            (d / p.ratio / net.bandwidth).min(d / p.compress_tput)
                + 2.0 * d / m.throughput(Kernel::BufferMgmt),
        );
        assert!(gap <= bound, "{gap:?} vs {bound:?}");
    }

    #[test]
    fn single_rank_estimates_are_free() {
        let m = CostModel::default();
        let net = NetModel::default();
        for s in [
            Schedule::RingAllreduce,
            Schedule::RecursiveDoublingAllreduce,
            Schedule::RabenseifnerAllreduce,
            Schedule::BruckAllgather,
        ] {
            assert_eq!(
                m.estimate(s, &net, &SchedParams::uncompressed(1, 1 << 20)),
                Duration::ZERO
            );
        }
    }

    #[test]
    fn non_power_of_two_pays_a_fold_surcharge() {
        let m = CostModel::default();
        let net = NetModel::default();
        let t9 = m.estimate(
            Schedule::RecursiveDoublingAllreduce,
            &net,
            &szx_params(9, 1 << 20),
        );
        let t16 = m.estimate(
            Schedule::RecursiveDoublingAllreduce,
            &net,
            &szx_params(16, 1 << 20),
        );
        // 9 ranks fold to 8 and pay two extra full-payload rounds, so
        // despite the smaller world the estimate must exceed 16 ranks'.
        assert!(t9 > t16, "{t9:?} vs {t16:?}");
    }

    fn cluster(nodes: usize, per_node: usize) -> crate::topology::ClusterNet {
        crate::topology::ClusterNet::new(
            crate::topology::Topology::uniform(nodes, per_node),
            crate::topology::HierNet::cluster_default(),
        )
    }

    #[test]
    fn hierarchical_allreduce_wins_at_scale_on_two_level_net() {
        // At 128+ ranks over a cluster whose intra-node links are ~5×
        // cheaper than inter-node, the flat ring pays (n−1) inter-node
        // latencies twice while the hierarchical schedule pays only
        // (L−1) of them — it must win across the target worlds.
        let m = CostModel::default();
        for (nodes, per_node, bytes) in [
            (8, 16, 64 << 10),
            (32, 16, 64 << 10),
            (64, 16, 64 << 10),
            (128, 8, 128 << 10),
        ] {
            let c = cluster(nodes, per_node);
            let p = szx_params(nodes * per_node, bytes);
            let hier = m.estimate_hier(Schedule::HierarchicalAllreduce, &c.topo, &c.net, &p);
            let flat = [
                Schedule::RingAllreduce,
                Schedule::RecursiveDoublingAllreduce,
                Schedule::RabenseifnerAllreduce,
            ]
            .into_iter()
            .map(|s| m.estimate_hier(s, &c.topo, &c.net, &p))
            .min()
            .unwrap();
            assert!(
                hier < flat,
                "world {}: hier {hier:?} vs best flat {flat:?}",
                nodes * per_node
            );
        }
    }

    #[test]
    fn hierarchical_on_flat_net_degenerates_to_inter_leg() {
        // One rank per node ⇒ the local phases vanish and the estimate
        // must equal the leader-leg schedule priced on the whole world —
        // as a leg of a plan on a topology, whose Rabenseifner allgather
        // re-encodes rather than relays.
        let m = CostModel::default();
        let net = NetModel::default();
        let c = crate::topology::ClusterNet::new(
            crate::topology::Topology::flat(16),
            crate::topology::HierNet::flat(net),
        );
        let p = szx_params(16, 1 << 20);
        let leg = m.estimate_at(Schedule::RabenseifnerAllreduce, &net, &p, false);
        assert_eq!(
            m.estimate_hier(Schedule::HierarchicalAllreduce, &c.topo, &c.net, &p),
            leg
        );
        assert_eq!(m.estimate(Schedule::HierarchicalAllreduce, &net, &p), leg);
        assert_eq!(
            m.estimate_hier(Schedule::HierarchicalBcast, &c.topo, &c.net, &p),
            m.estimate(Schedule::BinomialTreeBcast, &net, &p)
                + Duration::from_secs_f64(
                    net.latency.as_secs_f64() + (p.payload_bytes as f64) / net.bandwidth
                )
        );
    }

    #[test]
    fn lane_count_respects_the_topology() {
        let m = CostModel::default();
        let net = crate::topology::HierNet::cluster_default();
        let lanes = |sizes: &[usize], bytes: usize| {
            let topo = crate::topology::Topology::from_node_sizes(sizes);
            m.hier_lanes(&topo, &net, &szx_params(topo.world(), bytes))
                .0
        };
        // One-rank nodes (a flat net) leave nothing to lane.
        assert_eq!(lanes(&[1; 16], 4 << 20), 1);
        // The smallest node caps the count, however large the payload.
        assert_eq!(lanes(&[16, 16, 3, 16], 64 << 20), 2);
        assert_eq!(lanes(&[8, 1, 8], 64 << 20), 1);
        // More payload never asks for fewer lanes, and the range is used:
        // latency-bound payloads stay on one leader, large ones go wide.
        for sizes in [[16; 16], [8; 16], [5; 16]] {
            let counts: Vec<usize> = (8..=26).map(|k| lanes(&sizes, 1 << k)).collect();
            assert!(counts.windows(2).all(|w| w[0] <= w[1]), "{counts:?}");
            assert_eq!(counts[0], 1, "{counts:?}");
            assert!(counts[counts.len() - 1] * 2 > sizes[0], "{counts:?}");
        }
    }

    /// The shapes the per-message NIC term derives are those the
    /// simulator runs fastest on `fig_scale`'s rows: two lanes on 4×4 at
    /// 4 Ki values, four on 16×16 at 16 Ki (two run 3.6 % slower), two on
    /// 128×8, where four run within 0.5 %, and four streamed lanes at
    /// 64 Ki values on 16×16 and on 64×16 (two run 15 % slower there).
    #[test]
    fn lane_picks_follow_the_drift() {
        let m = CostModel::default();
        let net = crate::topology::HierNet::cluster_default();
        let pick = |nodes: usize, per: usize, values: usize, szx: bool| {
            let topo = crate::topology::Topology::uniform(nodes, per);
            let (world, bytes) = (nodes * per, values * 4);
            let p = if szx {
                szx_params(world, bytes)
            } else {
                SchedParams::uncompressed(world, bytes)
            };
            m.hier_lanes(&topo, &net, &p)
        };
        assert_eq!(pick(4, 4, 4 << 10, true), (2, false));
        assert_eq!(pick(16, 16, 16 << 10, true), (4, false));
        assert_eq!(pick(128, 8, 16 << 10, true), (2, false));
        assert_eq!(pick(16, 16, 64 << 10, true), (4, true));
        assert_eq!(pick(64, 16, 64 << 10, true), (4, true));
        assert_eq!(pick(4, 4, 16 << 10, false), (2, false));
    }

    /// One price: `estimate_hier` reports the price of the shape
    /// `hier_lanes` returns, and no admissible `(L, streamed)` — one lane
    /// in binomial legs among them — prices lower. The last two shapes
    /// are szx 128×8 at 16 Ki values and 64×16 at 64 Ki, where a lane
    /// count picked on another price reported one shape and ran another.
    #[test]
    fn laned_estimate_never_exceeds_its_one_lane_price() {
        let m = CostModel::default();
        let net = crate::topology::HierNet::cluster_default();
        let swept = [(4, 8), (16, 16), (128, 8), (16, 1)]
            .into_iter()
            .flat_map(|shape| (8..=24).map(move |k| (shape, 1usize << k)));
        let shapes = swept.chain([((128, 8), 16 << 12), ((64, 16), 64 << 12)]);
        for ((nodes, per_node), bytes) in shapes {
            let topo = crate::topology::Topology::uniform(nodes, per_node);
            let world = nodes * per_node;
            for p in [
                szx_params(world, bytes),
                SchedParams::uncompressed(world, bytes),
            ] {
                let est = m.estimate_hier(Schedule::HierarchicalAllreduce, &topo, &net, &p);
                // `Duration` holds whole nanoseconds.
                let (est, ns) = (est.as_secs_f64(), 1e-9);
                // The price of `lanes` lanes with the group legs forced
                // into one shape.
                let forced = |lanes: usize, chain: bool| {
                    let at = m.laned_allreduce_at(lanes, nodes, per_node, &net, &p);
                    let legs = |chain| {
                        let lane = bytes as f64 / lanes as f64;
                        let (fold, fan) = m.group_legs(per_node / lanes, lane, &net.intra, chain);
                        fold + fan
                    };
                    at.secs - legs(at.streamed) + legs(chain)
                };
                let (lanes, streamed) = m.hier_lanes(&topo, &net, &p);
                let tag = format!("{nodes}x{per_node} {bytes} B, codec {}", p.ratio);
                let own = forced(lanes, streamed);
                assert!((est - own).abs() <= ns, "{tag}: {est} vs {own}");
                let admissible = (0..)
                    .map(|i| 1usize << i)
                    .take_while(|&l| l <= per_node)
                    .flat_map(|l| [(l, false), (l, true)])
                    .filter(|&(l, chain)| !chain || bytes / l > PIPE_CHUNK_BYTES);
                for (l, chain) in admissible {
                    let other = forced(l, chain);
                    assert!(
                        est <= other + ns,
                        "{tag}: ({lanes}, {streamed}) at {est} vs ({l}, {chain}) at {other}"
                    );
                }
            }
        }
    }

    /// The `PIPE_CHUNK_BYTES` sub-chunk sizes a `d`-byte raw stream moves
    /// in (one empty message for an empty payload).
    fn pieces(d: usize) -> Vec<usize> {
        pieces_of(d, PIPE_CHUNK_BYTES)
    }

    /// The sizes of a `d`-byte stream cut into `c`-byte sub-chunks.
    fn pieces_of(d: usize, c: usize) -> Vec<usize> {
        (0..d.div_ceil(c).max(1))
            .map(|j| c.min(d - j * c))
            .collect()
    }

    /// The byte sizes of the pieces a `d`-byte stream runs in under
    /// `cut`, head first (one empty piece for an empty stream).
    fn cut_pieces(d: usize, cut: Cut) -> Vec<usize> {
        let values = d / 4;
        let piece = |j| 4 * cut.range(j, values).len();
        (0..cut.count(values).max(1)).map(piece).collect()
    }

    /// The pieces of a `d`-byte raw reducing hop: on a flat plan
    /// (`flat`) the default net's hop taper past one sub-chunk, else
    /// pipe sub-chunks.
    fn hop_pieces(d: usize, flat: bool) -> Vec<usize> {
        let taper = CostModel::default().hop_taper(&NetModel::default());
        cut_pieces(
            d,
            Cut::tapered(PIPE_CHUNK_BYTES / 4, taper.filter(|_| flat)),
        )
    }

    fn payload(bytes: usize) -> bytes::Bytes {
        bytes::Bytes::from(vec![0u8; bytes])
    }

    /// A streamed raw hop's send side: every piece posted at once.
    fn send_stream<C: crate::comm::Comm>(
        c: &mut C,
        to: usize,
        pieces: &[usize],
    ) -> Vec<crate::SendReq> {
        pieces
            .iter()
            .map(|&bytes| c.isend(to, 0, payload(bytes)))
            .collect()
    }

    /// A streamed raw hop's receive side: each piece folded as it lands.
    fn fold_stream<C: crate::comm::Comm>(c: &mut C, from: usize, pieces: &[usize]) {
        for &bytes in pieces {
            c.recv(from, 0);
            c.charge(Kernel::Reduce, bytes, crate::profile::Category::Reduction);
        }
    }

    fn retire<C: crate::comm::Comm>(c: &mut C, sends: Vec<crate::SendReq>) {
        for req in sends {
            c.wait_send_in(req, crate::profile::Category::Wait);
        }
    }

    /// One `group`-rank node's raw group legs over `values` values on
    /// the simulator, moving the bytes and charging the `Reduce` kernel
    /// as the schedules do — binomial trees (streamed raw hops in, whole
    /// messages out), or `PIPE_CHUNK_BYTES` sub-chunks along the path
    /// (folded on the way in, relayed on the way out) — as `(reduce,
    /// fan-out)` makespans in seconds.
    fn simulated_group_legs(group: usize, values: usize, chain: bool) -> (f64, f64) {
        use crate::comm::Comm;
        use crate::profile::Category;
        use crate::sim::{SimConfig, SimWorld};
        use crate::topology::{ClusterNet, HierNet, Topology};

        let d = values * 4;
        let run = |fold: bool| {
            let pieces = pieces(d);
            let cluster = ClusterNet::new(Topology::uniform(1, group), HierNet::cluster_default());
            let world = SimWorld::new(SimConfig::new(group).with_cluster(cluster));
            let out = world.run(move |c| {
                let (me, g) = (c.rank(), group);
                let mut sends = Vec::new();
                match (chain, fold) {
                    (true, true) => {
                        for &bytes in &pieces {
                            if me + 1 < g {
                                c.recv(me + 1, 0);
                                c.charge(Kernel::Reduce, bytes, Category::Reduction);
                            }
                            if me > 0 {
                                sends.push(c.isend(me - 1, 0, payload(bytes)));
                            }
                        }
                    }
                    (true, false) => {
                        for &bytes in &pieces {
                            let got = if me == 0 {
                                payload(bytes)
                            } else {
                                c.recv(me - 1, 0)
                            };
                            if me + 1 < g {
                                sends.push(c.isend(me + 1, 0, got));
                            }
                        }
                    }
                    (false, true) => sends = binomial_reduce(c, d, false),
                    (false, false) => {
                        let parent = if me == 0 {
                            g.next_power_of_two()
                        } else {
                            1 << me.trailing_zeros()
                        };
                        if me > 0 {
                            c.recv(me - parent, 0);
                        }
                        let mut mask = parent >> 1;
                        while mask > 0 {
                            if me + mask < g {
                                c.send(me + mask, 0, payload(d));
                            }
                            mask >>= 1;
                        }
                    }
                }
                retire(c, sends);
            });
            out.makespan.as_secs_f64()
        };
        (run(true), run(false))
    }

    /// This rank's part in a raw binomial reduce of `d` bytes to rank 0,
    /// every edge a streamed hop ([`hop_pieces`]); returns its
    /// outstanding sends.
    fn binomial_reduce<C: crate::comm::Comm>(
        c: &mut C,
        d: usize,
        flat: bool,
    ) -> Vec<crate::SendReq> {
        let (me, n) = (c.rank(), c.size());
        let pieces = hop_pieces(d, flat);
        let mut mask = 1;
        while mask < n {
            if me & mask != 0 {
                return send_stream(c, me - mask, &pieces);
            }
            if me + mask < n {
                fold_stream(c, me + mask, &pieces);
            }
            mask <<= 1;
        }
        Vec::new()
    }

    /// This rank's part in a flat plan's raw ring allgather of `m`-byte
    /// blocks that relays what it received, each block in the default
    /// net's relay taper past one sub-chunk (else whole): each received
    /// block is copied into place piece by piece while its onward copy
    /// is on the wire, the last one's pieces as they land (and, when
    /// `own`, the own block after the last round).
    fn ring_relay<C: crate::comm::Comm>(c: &mut C, m: usize, own: bool) {
        let (me, n) = (c.rank(), c.size());
        let (right, left) = ((me + 1) % n, (me + n - 1) % n);
        let memcpy =
            |c: &mut C, bytes| c.charge(Kernel::Memcpy, bytes, crate::profile::Category::Memcpy);
        let pieces = match CostModel::default().relay_taper(&NetModel::default(), n) {
            None => vec![m],
            taper => cut_pieces(m, Cut::tapered(PIPE_CHUNK_BYTES / 4, taper)),
        };
        for k in 0..n - 1 {
            let sends = send_stream(c, right, &pieces);
            for &bytes in pieces.iter().filter(|_| k > 0) {
                memcpy(c, bytes);
            }
            for &bytes in &pieces {
                c.recv(left, 0);
                if k == n - 2 {
                    memcpy(c, bytes);
                }
            }
            retire(c, sends);
        }
        if own {
            memcpy(c, m);
        }
    }

    /// The makespan of `rank` run on every rank of a flat default-net
    /// simulator of `n` ranks, in seconds.
    fn simulated(n: usize, rank: impl Fn(&mut crate::sim::SimComm) + Send + Sync + 'static) -> f64 {
        use crate::sim::{SimConfig, SimWorld};
        SimWorld::new(SimConfig::new(n))
            .run(rank)
            .makespan
            .as_secs_f64()
    }

    #[test]
    fn raw_streamed_prices_track_the_simulator() {
        // The raw ring allreduce (streamed reduce-scatter rounds, then a
        // relaying allgather), the raw ring allgather and the raw
        // binomial reduce (streamed edges), against their message and
        // kernel sequences on the default flat net — every hop and relayed
        // block in its taper past one sub-chunk: within 2 % from one
        // sub-chunk up to 1 Mi values.
        use crate::comm::Comm;
        let m = CostModel::default();
        let net = NetModel::default();
        let n = 8;
        for values in [PIPE_CHUNK_BYTES / 4, 4 << 10, 64 << 10, 1 << 20] {
            let d = values * 4;
            let p = SchedParams::uncompressed(n, d);
            let ring = simulated(n, move |c| {
                let (me, chunk) = (c.rank(), d / n);
                let (right, left) = ((me + 1) % n, (me + n - 1) % n);
                let pieces = hop_pieces(chunk, true);
                for _ in 0..n - 1 {
                    let sends = send_stream(c, right, &pieces);
                    fold_stream(c, left, &pieces);
                    retire(c, sends);
                }
                ring_relay(c, chunk, false);
            });
            let gather = simulated(n, move |c| ring_relay(c, d, true));
            let reduce = simulated(n, move |c| {
                let sends = binomial_reduce(c, d, true);
                retire(c, sends);
            });
            for (schedule, sim) in [
                (Schedule::RingAllreduce, ring),
                (Schedule::RingAllgather, gather),
                (Schedule::BinomialTreeReduce, reduce),
            ] {
                let price = m.estimate(schedule, &net, &p).as_secs_f64();
                assert!(
                    (price - sim).abs() <= 0.02 * sim,
                    "{schedule:?} {values} values: priced {price:e} s, simulated {sim:e} s"
                );
            }
        }
    }

    /// A `bytes`-byte PIPE-SZx sub-chunk (or CPR-P2P message) as it
    /// travels at the ratio of `p`.
    fn squeezed(bytes: usize, p: &SchedParams) -> bytes::Bytes {
        payload((bytes as f64 / p.ratio).round() as usize)
    }

    fn encode<C: crate::comm::Comm>(c: &mut C, bytes: usize) {
        c.charge(
            Kernel::SzxCompress,
            bytes,
            crate::profile::Category::ComDecom,
        );
    }

    /// The fused decompress-reduce of one arrival.
    fn fold_piece<C: crate::comm::Comm>(c: &mut C, bytes: usize) {
        c.charge(
            Kernel::SzxDecompress,
            bytes,
            crate::profile::Category::ComDecom,
        );
        c.charge(Kernel::Reduce, bytes, crate::profile::Category::Reduction);
    }

    /// The send side of a one-way PIPE-SZx hop in `chunk`-byte
    /// sub-chunks: encode and send every sub-chunk in turn.
    fn piped_send<C: crate::comm::Comm>(
        c: &mut C,
        to: usize,
        d: usize,
        chunk: usize,
        p: &SchedParams,
    ) {
        let mut sends = Vec::new();
        for bytes in pieces_of(d, chunk) {
            encode(c, bytes);
            sends.push(c.isend(to, 0, squeezed(bytes, p)));
        }
        retire(c, sends);
    }

    /// The receive side: fold each sub-chunk as it lands.
    fn piped_recv<C: crate::comm::Comm>(c: &mut C, from: usize, d: usize, chunk: usize) {
        for bytes in pieces_of(d, chunk) {
            c.recv(from, 0);
            fold_piece(c, bytes);
        }
    }

    /// This rank's half of a PIPE-SZx exchange of `d` bytes with `peer`
    /// in `chunk`-byte sub-chunks, stepped as the streaming engine blocks
    /// on it: every receive posted up front; per sub-chunk, encode and
    /// send it, then fold the arrivals already in — none this rank has
    /// yet to encode itself — and, after the last one, wait the tail out.
    fn piped_exchange<C: crate::comm::Comm>(
        c: &mut C,
        peer: usize,
        d: usize,
        chunk: usize,
        p: &SchedParams,
    ) {
        use crate::profile::Category;
        let pieces = pieces_of(d, chunk);
        let mut recvs: std::collections::VecDeque<_> =
            pieces.iter().map(|_| c.irecv(peer, 0)).collect();
        let (mut sends, mut landed) = (Vec::new(), 0);
        for (j, &bytes) in pieces.iter().enumerate() {
            encode(c, bytes);
            sends.push(c.isend(peer, 0, squeezed(bytes, p)));
            let tail = j + 1 == pieces.len();
            while landed <= j && (tail || c.test_recv(&recvs[0])) {
                let req = recvs.pop_front().expect("posted");
                c.wait_recv_in(req, Category::Wait);
                fold_piece(c, pieces[landed]);
                landed += 1;
            }
        }
        retire(c, sends);
    }

    /// One relayed doubling round of Rabenseifner's compress-once
    /// allgather with `peer`: send the `sent` bytes of blobs held as one
    /// container and decode the `held` bytes the last round brought while
    /// it is in flight.
    fn relay_exchange<C: crate::comm::Comm>(
        c: &mut C,
        peer: usize,
        (sent, held): (usize, usize),
        p: &SchedParams,
    ) {
        use crate::profile::Category;
        let recv = c.irecv(peer, 0);
        let send = c.isend(peer, 0, squeezed(sent, p));
        c.charge(Kernel::SzxDecompress, held, Category::ComDecom);
        c.wait_recv_in(recv, Category::Wait);
        retire(c, vec![send]);
    }

    /// The sub-chunk, in bytes, a recursive-doubling plan of `p` streams
    /// its exchanges and fold in on the default models.
    fn exchange_chunk(p: &SchedParams) -> usize {
        let values =
            CostModel::default().exchange_values(PIPE_CHUNK_BYTES / 4, &NetModel::default(), p);
        4 * values
    }

    /// This rank's part in an allreduce of `d` bytes by the `Butterfly`
    /// machine at the pipelined placement on a flat network. A
    /// non-power-of-two world folds its first `2·rem` ranks pairwise over
    /// a PIPE-SZx hop and unfolds the result at the end in one pooled
    /// message. In between, recursive doubling exchanges the whole vector
    /// every round; with `halving` (Rabenseifner) the halving rounds
    /// exchange the moved half, then each survivor encodes its own chunk
    /// once and the doubling rounds relay the blobs held, the unfold all
    /// of them. Recursive doubling's fold and rounds stream `chunk`-byte
    /// sub-chunks, Rabenseifner's `PIPE_CHUNK_BYTES`.
    fn butterfly<C: crate::comm::Comm>(
        c: &mut C,
        d: usize,
        chunk: usize,
        p: &SchedParams,
        halving: bool,
    ) {
        use crate::profile::Category;
        let chunk = if halving { PIPE_CHUNK_BYTES } else { chunk };
        let (me, n) = (c.rank(), c.size());
        let pow2 = 1 << n.ilog2();
        let rem = n - pow2;
        let folded = me < 2 * rem;
        if folded && me % 2 == 0 {
            piped_send(c, me + 1, d, chunk, p);
            c.recv(me + 1, 0);
            c.charge(Kernel::SzxDecompress, d, Category::ComDecom);
            return;
        }
        if folded {
            piped_recv(c, me - 1, d, chunk);
        }
        let pos = if folded { me / 2 } else { me - rem };
        let rank = |pos: usize| if pos < rem { 2 * pos + 1 } else { pos + rem };
        let rounds = pow2.trailing_zeros() as usize;
        if halving {
            for i in 1..=rounds {
                piped_exchange(c, rank(pos ^ (pow2 >> i)), d >> i, chunk, p);
            }
            encode(c, d >> rounds);
            for i in (1..=rounds).rev() {
                let held = if i < rounds { d >> (i + 1) } else { 0 };
                relay_exchange(c, rank(pos ^ (pow2 >> i)), (d >> i, held), p);
            }
            let last = d >> 1;
            if folded {
                let send = c.isend(me - 1, 0, squeezed(d, p));
                c.charge(Kernel::SzxDecompress, last, Category::ComDecom);
                retire(c, vec![send]);
            } else {
                c.charge(Kernel::SzxDecompress, last, Category::ComDecom);
            }
            return;
        }
        for i in 0..rounds {
            piped_exchange(c, rank(pos ^ (1 << i)), d, chunk, p);
        }
        if folded {
            encode(c, d);
            c.send(me - 1, 0, squeezed(d, p));
        }
    }

    #[test]
    fn piped_exchange_exposes_only_the_unfolded_last_link() {
        // Two ranks, one PIPE-SZx exchange (recursive doubling's only
        // round), codec-paced: from one sub-chunk to thirteen, ragged
        // tail or not, within 1.5 %. Pricing the whole last link
        // instead reads 4–9 % high when the last sub-chunk is a full one.
        let m = CostModel::default();
        let net = NetModel::default();
        let one = PIPE_CHUNK_BYTES / 4;
        for values in [one, one + 1000, 2 * one, 4 * one, 8 * one + 77, 64 << 10] {
            let d = values * 4;
            let p = szx_params(2, d);
            let chunk = exchange_chunk(&p);
            let sim = simulated(2, move |c| butterfly(c, d, chunk, &p, false));
            let price = m
                .estimate(Schedule::RecursiveDoublingAllreduce, &net, &p)
                .as_secs_f64();
            assert!(
                (price - sim).abs() <= 0.015 * sim,
                "{values} values: priced {price:e} s, simulated {sim:e} s"
            );
            let c = d.min(chunk);
            let last = (d - (d.div_ceil(c) - 1) * c) as f64;
            let link = net.latency.as_secs_f64() + last / p.ratio / net.bandwidth;
            let whole = price - m.piped_tail(d as f64, c as f64, &net, &p) + link;
            if values == 2 * one || values == 4 * one {
                assert!(whole > 1.04 * sim, "{values} values: {whole:e} s");
            }
        }
    }

    /// The payloads recursive doubling's pins sweep: either side of where
    /// two halves start to pay (256 to 3000 values), a pipe and a ragged
    /// tail (6000), and thirteen sub-chunks (64 Ki).
    const RD_VALUES: [usize; 7] = [256, 512, 1 << 10, 2 << 10, 3000, 6000, 64 << 10];

    #[test]
    fn piped_recursive_doubling_tracks_the_simulator() {
        // Every round a PIPE-SZx exchange of the whole vector in the
        // plan's sub-chunk — one piece, where it is the monolithic hop,
        // two block-aligned halves, or up to thirteen pipes — and at
        // five ranks a fold hop and an unfold around them.
        let m = CostModel::default();
        let net = NetModel::default();
        for n in [8, 5] {
            for values in RD_VALUES {
                let p = szx_params(n, values * 4);
                let chunk = exchange_chunk(&p);
                let sim = simulated(n, move |c| butterfly(c, values * 4, chunk, &p, false));
                let price = m
                    .estimate(Schedule::RecursiveDoublingAllreduce, &net, &p)
                    .as_secs_f64();
                assert!(
                    (price - sim).abs() <= 0.02 * sim,
                    "{n} ranks, {values} values in {chunk}-byte sub-chunks: \
                     priced {price:e} s, simulated {sim:e} s"
                );
            }
        }
    }

    #[test]
    fn exchange_halves_only_where_they_simulate_faster() {
        // At every pinned payload the plan's sub-chunk is whichever of
        // the pipe and two block-aligned halves runs faster.
        let pipe = PIPE_CHUNK_BYTES / 4;
        for n in [8, 5] {
            for values in RD_VALUES {
                let p = szx_params(n, values * 4);
                let run = |chunk: usize| {
                    simulated(n, move |c| butterfly(c, values * 4, 4 * chunk, &p, false))
                };
                let half = values.div_ceil(2).next_multiple_of(SZX_BLOCK_VALUES);
                let picked = exchange_chunk(&p) / 4;
                if values >= 2 * pipe {
                    assert_eq!(picked, pipe, "{values} values");
                    continue;
                }
                let (whole, halves) = (run(pipe), run(half));
                let faster = if halves < whole { half } else { pipe };
                assert_eq!(
                    picked, faster,
                    "{n} ranks, {values} values: pipe {whole:e} s, halves {halves:e} s"
                );
            }
        }
    }

    /// This rank's round of a PIPE-SZx ring reduce-scatter over `d`-byte
    /// chunks, stepped as the streaming engine blocks on it: every receive
    /// posted up front; per sub-chunk, encode it and send it right, then
    /// fold the arrivals from the left already in, at most four; after
    /// the last one, wait the tail out.
    fn piped_ring_round<C: crate::comm::Comm>(c: &mut C, d: usize, p: &SchedParams) {
        use crate::profile::Category;
        let (me, n) = (c.rank(), c.size());
        let (right, left) = ((me + 1) % n, (me + n - 1) % n);
        let pieces = pieces(d);
        let mut recvs: std::collections::VecDeque<_> =
            pieces.iter().map(|_| c.irecv(left, 0)).collect();
        let (mut sends, mut landed) = (Vec::new(), 0);
        for (j, &bytes) in pieces.iter().enumerate() {
            encode(c, bytes);
            sends.push(c.isend(right, 0, squeezed(bytes, p)));
            let tail = j + 1 == pieces.len();
            let mut budget = 4;
            while landed < pieces.len() && (tail || budget > 0 && c.test_recv(&recvs[0])) {
                let req = recvs.pop_front().expect("posted");
                c.wait_recv_in(req, Category::Wait);
                fold_piece(c, pieces[landed]);
                (landed, budget) = (landed + 1, budget - usize::from(!tail));
            }
        }
        retire(c, sends);
    }

    /// This rank's part in the compress-once ring allgather of `m`-byte
    /// blocks in PIPE sub-chunks: round 0 encodes the own block's and
    /// sends each at once; every later round forwards what the last one
    /// received and decodes it while it is on the wire; the last block is
    /// decoded after the last round, after the own block's copy into
    /// place when `own`.
    fn once_relay<C: crate::comm::Comm>(c: &mut C, m: usize, p: &SchedParams, own: bool) {
        use crate::profile::Category;
        let (me, n) = (c.rank(), c.size());
        let (right, left) = ((me + 1) % n, (me + n - 1) % n);
        let decode = |c: &mut C, bytes| c.charge(Kernel::SzxDecompress, bytes, Category::ComDecom);
        for k in 0..n - 1 {
            let recvs: Vec<_> = pieces(m).iter().map(|_| c.irecv(left, 0)).collect();
            let mut sends = Vec::new();
            for bytes in pieces(m) {
                if k == 0 {
                    encode(c, bytes);
                }
                sends.push(c.isend(right, 0, squeezed(bytes, p)));
            }
            for bytes in pieces(m).into_iter().filter(|_| k > 0) {
                decode(c, bytes);
            }
            for req in recvs {
                c.wait_recv_in(req, Category::Allgather);
            }
            retire(c, sends);
        }
        if own {
            c.charge(Kernel::Memcpy, m, Category::Memcpy);
        }
        for bytes in pieces(m) {
            decode(c, bytes);
        }
    }

    #[test]
    fn compress_once_ring_tracks_the_simulator() {
        // The compressed ring allreduce (PIPE-SZx reduce-scatter rounds,
        // then the streamed compress-once allgather of the reduced
        // chunks) and the compressed ring allgather, against their
        // message and kernel sequences: within 2 % from one sub-chunk per
        // chunk up to 1 Mi values.
        let m = CostModel::default();
        let net = NetModel::default();
        let n = 8;
        for values in [PIPE_CHUNK_BYTES / 4, 64 << 10, 1 << 20] {
            let d = values * 4;
            let p = szx_params(n, d);
            let ring = simulated(n, move |c| {
                for _ in 0..n - 1 {
                    piped_ring_round(c, d / n, &p);
                }
                once_relay(c, d / n, &p, false);
            });
            let gather = simulated(n, move |c| once_relay(c, d, &p, true));
            for (schedule, sim) in [
                (Schedule::RingAllreduce, ring),
                (Schedule::RingAllgather, gather),
            ] {
                let price = m.estimate(schedule, &net, &p).as_secs_f64();
                assert!(
                    (price - sim).abs() <= 0.02 * sim,
                    "{schedule:?} {values} values: priced {price:e} s, simulated {sim:e} s"
                );
            }
        }
    }

    #[test]
    fn compressed_fold_and_unfold_track_the_simulator() {
        // A non-power-of-two world pays a fold hop and a monolithic
        // unfold, an encode and a decode each.
        let m = CostModel::default();
        let net = NetModel::default();
        for n in [5, 6] {
            for values in [512, 2 << 10, 8 << 10, 64 << 10] {
                for (schedule, halving) in [
                    (Schedule::RecursiveDoublingAllreduce, false),
                    (Schedule::RabenseifnerAllreduce, true),
                ] {
                    let p = szx_params(n, values * 4);
                    let chunk = exchange_chunk(&p);
                    let sim = simulated(n, move |c| butterfly(c, values * 4, chunk, &p, halving));
                    let price = m.estimate(schedule, &net, &p).as_secs_f64();
                    assert!(
                        (price - sim).abs() <= 0.05 * sim,
                        "{schedule:?} on {n} ranks, {values} values: \
                         priced {price:e} s, simulated {sim:e} s"
                    );
                }
            }
        }
    }

    #[test]
    fn group_leg_prices_track_the_simulator() {
        // The closed forms the laned allreduce picks its group legs by,
        // against the legs themselves on the intra-node links of
        // `cluster_default()`: within 5 % everywhere, chains included.
        let m = CostModel::default();
        let intra = crate::topology::HierNet::cluster_default().intra;
        for group in [2, 4, 8, 16] {
            for values in [16 << 10, 64 << 10, 256 << 10] {
                for chain in [false, true] {
                    let (fold, fan) = m.group_legs(group, (values * 4) as f64, &intra, chain);
                    let (sim_fold, sim_fan) = simulated_group_legs(group, values, chain);
                    for (leg, price, sim) in [("reduce", fold, sim_fold), ("fan-out", fan, sim_fan)]
                    {
                        assert!(
                            (price - sim).abs() <= 0.05 * sim,
                            "g={group} {values} values chain={chain} {leg}: \
                             priced {price:e} s, simulated {sim:e} s"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn group_legs_stream_only_past_one_sub_chunk() {
        let m = CostModel::default();
        let net = crate::topology::HierNet::cluster_default();
        let one_chunk = PIPE_CHUNK_BYTES / 4;
        for (nodes, per_node) in [(4, 4), (4, 8), (16, 16), (8, 5), (2, 16)] {
            for values in [1, 64, 4096, one_chunk] {
                for params in [
                    szx_params(nodes * per_node, values * 4),
                    SchedParams::uncompressed(nodes * per_node, values * 4),
                ] {
                    let mut lanes = 1;
                    while lanes <= per_node {
                        let at = m.laned_allreduce_at(lanes, nodes, per_node, &net, &params);
                        assert!(!at.streamed, "{nodes}x{per_node} {values} values L={lanes}");
                        lanes *= 2;
                    }
                }
            }
        }
        // `auto_hier_256`'s shape: the streamed legs leave its lane
        // count where the binomial ones had it.
        let topo = crate::topology::Topology::uniform(16, 16);
        let p = szx_params(topo.world(), (64 << 10) * 4);
        assert_eq!(m.hier_lanes(&topo, &net, &p), (4, true));
    }

    #[test]
    fn bcast_estimate_streams_compressed_and_keeps_raw() {
        let m = CostModel::default();
        let net = NetModel::default();
        let (alpha, beta) = (net.latency.as_secs_f64(), 1.0 / net.bandwidth);
        for n in [2usize, 8, 9, 32] {
            let log2n = (usize::BITS - (n - 1).leading_zeros()) as f64;
            // Raw: bit-equal to the one-message-per-level formula.
            let raw = SchedParams::uncompressed(n, 4 << 20);
            let d = raw.payload_bytes as f64;
            assert_eq!(
                m.estimate(Schedule::BinomialTreeBcast, &net, &raw),
                Duration::from_secs_f64(
                    d / f64::INFINITY + log2n * (alpha + d * beta) + d / f64::INFINITY
                )
            );
            // Compressed, many sub-chunks: bounded below by the slowest
            // whole-payload stage and well under the serial sum.
            let p = szx_params(n, 4 << 20);
            let est = m
                .estimate(Schedule::BinomialTreeBcast, &net, &p)
                .as_secs_f64();
            let (comp, deco) = (d / p.compress_tput, d / p.decompress_tput);
            let fan = log2n * d / p.ratio * beta;
            let serial = comp + log2n * (alpha + d / p.ratio * beta) + deco;
            assert!(est >= comp.max(fan).max(deco), "{n}: {est}");
            assert!(est < 0.8 * serial, "{n}: {est} vs serial {serial}");
            // One sub-chunk or less: exactly the one-message tree.
            let small = szx_params(n, 4096);
            let ds = small.payload_bytes as f64;
            let one = ds / small.compress_tput
                + log2n * (alpha + ds / small.ratio * beta)
                + ds / small.decompress_tput;
            let got = m
                .estimate(Schedule::BinomialTreeBcast, &net, &small)
                .as_secs_f64();
            assert!((got - one).abs() < 1e-9, "{n}: {got} vs {one}");
        }
    }

    #[test]
    fn alltoall_estimates_cross_over_with_size() {
        // Bruck trades ⌈log₂n⌉ rounds against pairwise's n−1, at the
        // price of shipping ~n/2 blocks per round: latency-bound small
        // payloads go Bruck, bandwidth-bound large ones go pairwise.
        let m = CostModel::default();
        let net = NetModel::default();
        let est = |s, bytes| m.estimate(s, &net, &szx_params(64, bytes));
        assert!(est(Schedule::BruckAlltoall, 4 << 10) < est(Schedule::PairwiseAlltoall, 4 << 10));
        assert!(est(Schedule::PairwiseAlltoall, 16 << 20) < est(Schedule::BruckAlltoall, 16 << 20));
    }
}
