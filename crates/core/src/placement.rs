//! The compression-placement seam: *where* compression sits on a hop is
//! decided once per machine ([`Placement`]) and bound once per `step` to
//! the session codec ([`Link`]); every monolithic hop of every machine
//! in [`crate::nonblocking`] then packs, lands and reduces through the
//! link, the only charged codec interface a machine has.
//!
//! The four placements, and which codec runs where:
//!
//! * **raw** — none; values travel as little-endian `f32` bytes;
//! * **CPR** (per hop) — the session codec, unpooled (each call pays the
//!   `BufferMgmt` charge of a naive integration);
//! * **once** (data movement) — the session codec, pooled: `pack` at the
//!   data's origin, `unpack` at each consumer (straight into its place
//!   in the output), opaque relays in between;
//! * **piped** (computation) — SZx at the session's error bound in
//!   `PipelineConfig::chunk_values` sub-chunks, whatever the session
//!   codec is: a `zfp-abs` session streams its reducing hops through
//!   PIPE-SZx and runs ZFP only on its data-movement hops. Its hops are
//!   [`crate::pipeline::Route::hop`]s and recursive doubling's rounds
//!   [`crate::pipeline::Route::exchange`]s, over [`Link::piped`], pooled.
//!
//! A machine that cannot run a placement refuses it in its constructor.
//! The streaming engine reaches the codec through the same `Link`s:
//! [`Placement::stream`] gives every reducing hop its link and
//! sub-chunk size: the session's pipe at raw and piped (recursive
//! doubling's piped config excepted, rule 6), the whole message at CPR.
//!
//! Orderings the machines keep — virtual time is bit-identical only
//! while they hold:
//!
//! 1. The monolithic rounds — the butterflies' unfold, Rabenseifner's
//!    doubling, the CPR-P2P ring allgather, the all-to-all and Bruck
//!    rounds, the scatter and gather edges — pack first, then post the
//!    receive, then send, and wait a full-duplex pair out through
//!    `nonblocking::exchange` (receive, then send) before they land.
//!    Every reducing hop, recursive doubling's rounds included, and every
//!    CPR-P2P bcast edge is a route instead (rule 6).
//! 2. Raw `pack` charges nothing and raw `unpack` charges `Memcpy`; CPR
//!    `unpack` is decompress (`ComDecom` + `BufferMgmt`) + `Memcpy` —
//!    the naive integration the baselines model; once `pack` / `unpack`
//!    charge the codec kernel and nothing else. `try_reduce` never charges
//!    `Memcpy`, first touch (`from`) or not. `land` is `unpack` without
//!    the `Memcpy` charge: the binomial `Bcast` / `Scatter` / `Gather`
//!    receives, which a tree relays onwards, land through it.
//! 3. Piped `RingRs` rounds live in the `tags::PIPELINE` family, not in
//!    `REDUCE_SCATTER + band`.
//! 4. Legs of a piped machine that move finalized data (Rabenseifner
//!    doubling, unfold) stay monolithic CPR: `Piped(..).link(cpr)` is
//!    [`Link::Cpr`].
//! 5. The accumulator is born from the first fold and lives in the
//!    caller's output: a reducing machine never copies its input in.
//!    The first send of a range reads `input`, the first fold of a
//!    range is `try_reduce(.., from = Some(&input[range]), ..)`, later ones
//!    fold in place, and where the caller has a full-length `out` that
//!    is the accumulator, so nothing is copied out either. Only a
//!    schedule with no fold at all (one rank) pays one charged
//!    `input → out` copy.
//! 6. Streams (`crate::pipeline`): a route posts its whole inbound
//!    stream *before* packing; a hop folds an arrival as soon as it
//!    lands, before its own sends retire; a relaying rank forwards a
//!    sub-chunk *before* landing it, and a chain member folds *before*
//!    forwarding the fold; an in-place exchange folds sub-chunk `j` only
//!    *after* encoding its own `j`. Recursive doubling's piped config
//!    carries the plan's exchange sub-chunk (its rounds and fold): the
//!    pipe, or under two pipes two halves cut on SZx block boundaries
//!    when the cost model prices them cheaper
//!    (`CostModel::exchange_values`), so the own second half encodes
//!    while the first is on the wire and the peer folds the first under
//!    that encode. Sends are retired lazily (between
//!    sub-chunks only those that have left, the rest at the end); a
//!    nonblocking step encodes at most one charged sub-chunk — a tree
//!    root suspends after every one — while a raw source end sends its
//!    whole stream at once. A raw hop streams in the session's pipe sub-chunks and folds
//!    arrival `j` while `j + 1` is on the wire; a payload of at most one
//!    sub-chunk is still one message. A whole-message route
//!    (`Placement::stream` of CPR, the raw trees: bcast, fan-out,
//!    hand-off) is one unbounded sub-chunk, sent even when empty — the
//!    one message of the hop it replaces; a PIPE-SZx hop sends nothing
//!    of an empty buffer. Its receive waits are `Wait` time.
//! 7. The raw and compress-once ring allgathers relay the payload they
//!    received, untouched, and `unpack` it while its onward copy is on
//!    the wire (raw `unpack` keeps its `Memcpy` charge); only CPR-P2P
//!    re-packs every round from `out`. Compress-once relays in the
//!    session's pipe sub-chunks, one message each: round 0 sends each
//!    one as it is packed; a later round posts its receives, forwards
//!    all of the last round's sub-chunks, then lands them in order. Raw
//!    relays whole blocks. A round ends when its receives are in and its
//!    sends have left.

use bytes::Bytes;
use ccoll_comm::{Category, Comm, Kernel, PayloadPool, Tag};
use ccoll_compress::{CodecScratch, CompressError, Compressor, SzxCodec};

use crate::collectives::cpr_p2p::CprCodec;
use crate::collectives::memcpy_in;
use crate::frameworks::computation::PipelineConfig;
use crate::pipeline::WHOLE;
use crate::reduce::ReduceOp;
use crate::wire::{decode_values_into, decode_values_vec};

/// Compression placement of a machine.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Placement {
    /// Uncompressed.
    Raw,
    /// Monolithic per-hop compression (CPR-P2P).
    Cpr,
    /// Compress once at the data's origin, relay opaque bytes, decode
    /// once at each consumer (the data-movement framework).
    Once,
    /// Pipelined sub-chunk hops with fused reduction (the computation
    /// framework).
    Piped(PipelineConfig),
}

impl Placement {
    /// Tag sub-band of compress-once traffic: the piped band, which no
    /// family shares between the two.
    pub(crate) const ONCE_BAND: Tag = 0xC00;

    /// This placement's sub-band inside a family's 4096-wide tag space
    /// (disjointness is asserted in `collectives::tags`).
    pub(crate) const fn band(self) -> Tag {
        match self {
            Placement::Raw => 0,
            Placement::Cpr => 0x800,
            Placement::Once | Placement::Piped(_) => Self::ONCE_BAND,
        }
    }

    /// `self`, checked in the constructor of a data-movement machine:
    /// such a machine runs raw and compress-once, and per-hop CPR where
    /// it has that shape.
    ///
    /// # Panics
    /// Panics on a placement `machine` cannot run.
    pub(crate) fn movement(self, per_hop: bool, machine: &str) -> Self {
        let runs = match self {
            Placement::Raw | Placement::Once => true,
            Placement::Cpr => per_hop,
            Placement::Piped(_) => false,
        };
        assert!(runs, "{machine} cannot run {self:?}");
        self
    }

    /// The stream a reducing hop of this placement runs on the streaming
    /// engine, as `(link, values per sub-chunk)`: PIPE-SZx sub-chunks at
    /// `cfg` when piped, raw values in `pipe`-value sub-chunks when raw
    /// (the session's pipe, so a fold overlaps the sub-chunks still on
    /// the wire); a CPR-P2P hop — the paper's naive baseline — is a
    /// stream of one unbounded sub-chunk ([`WHOLE`]).
    ///
    /// # Panics
    /// Panics if a compressed placement is stepped without a codec.
    pub(crate) fn stream(self, cpr: Option<&CprCodec>, pipe: usize) -> (Link<'_>, usize) {
        match self {
            Placement::Raw => (Link::Raw, pipe),
            Placement::Piped(cfg) => (Link::piped(cfg), cfg.chunk_values),
            _ => (self.link(cpr), WHOLE),
        }
    }

    /// Bind the placement to the session codec for one `step`.
    ///
    /// # Panics
    /// Panics if a compressed placement is stepped without a codec.
    pub(crate) fn link(self, cpr: Option<&CprCodec>) -> Link<'_> {
        let codec = || cpr.expect("compressed mode needs a codec");
        match self {
            Placement::Raw => Link::Raw,
            Placement::Once => Link::Once(codec()),
            Placement::Cpr | Placement::Piped(_) => Link::Cpr(codec()),
        }
    }
}

/// A placement bound to the session codec: how one monolithic hop or
/// one streamed sub-chunk encodes, lands and reduces its payload.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Link<'a> {
    /// Raw `f32` payloads.
    Raw,
    /// Session-codec payloads, unpooled.
    Cpr(&'a CprCodec),
    /// Session-codec payloads through preallocated buffers.
    Once(&'a CprCodec),
    /// PIPE-SZx sub-chunks of a piped hop, pooled: [`Link::Once`]'s
    /// charges with SZx's kernels, whatever the session codec is.
    Piped(SzxCodec),
}

impl Link<'static> {
    /// The link of a piped hop's sub-chunks: SZx at `cfg.error_bound`.
    pub(crate) fn piped(cfg: PipelineConfig) -> Self {
        Link::Piped(SzxCodec::new(cfg.error_bound))
    }
}

impl Link<'_> {
    /// The codec, its (compress, decompress) kernels and whether its
    /// buffers are pooled; `None` when raw.
    fn codec(&self) -> Option<(&dyn Compressor, Kernel, Kernel, bool)> {
        match self {
            Link::Raw => None,
            Link::Cpr(c) => Some((c.codec.as_ref(), c.ck, c.dk, false)),
            Link::Once(c) => Some((c.codec.as_ref(), c.ck, c.dk, true)),
            Link::Piped(szx) => Some((szx, Kernel::SzxCompress, Kernel::SzxDecompress, true)),
        }
    }

    /// Whether a received payload can hold `len` values, as far as can
    /// be told before decoding it: a raw payload by its length, a piped
    /// sub-chunk by its SZx header. A pooled decode into place checks
    /// its count as it goes, and nothing streams CPR.
    fn fits(self, got: &[u8], len: usize) -> bool {
        match self {
            Link::Raw => got.len() == 4 * len,
            Link::Piped(_) => SzxCodec::stream_values(got) == Ok(len),
            Link::Cpr(_) | Link::Once(_) => true,
        }
    }

    /// Encode `vals` for the wire, straight into a recycled pool buffer
    /// (zero allocations once the pool is warm). Raw charges nothing; a
    /// codec charges its compression kernel under `ComDecom` and feeds
    /// the pool's measured-ratio sample (which `Algorithm::Auto` re-ranks
    /// from); CPR adds `BufferMgmt` under `Others` — the per-call buffer
    /// allocation and free of a naive integration, which the paper
    /// measures at 23 % of the 278 MB case (§III-D) and C-Coll's
    /// preallocated buffers avoid (§III-E2).
    pub(crate) fn pack<C: Comm>(self, comm: &mut C, vals: &[f32], pool: &mut PayloadPool) -> Bytes {
        let Some((codec, ck, _, pooled)) = self.codec() else {
            let encode = |buf: &mut Vec<u8>| {
                ccoll_compress::encode_f32s_into(vals, buf);
                Ok::<(), std::convert::Infallible>(())
            };
            return match pool.write_with(encode) {
                Ok(b) => b,
                Err(e) => match e {},
            };
        };
        let out = comm.run_kernel(ck, vals.len() * 4, Category::ComDecom, || {
            pool.write_with(|buf| codec.compress_into(vals, buf))
                .expect("compression cannot fail on f32 input")
        });
        pool.note_compression(vals.len() * 4, out.len());
        if !pooled {
            comm.charge(Kernel::BufferMgmt, vals.len() * 4, Category::Others);
        }
        out
    }

    /// Land a received payload of `dst.len()` values in `dst`. Raw
    /// charges `Memcpy`; CPR charges the decompression kernel,
    /// `BufferMgmt` and `Memcpy`; once decodes in place and charges the
    /// kernel alone.
    ///
    /// # Panics
    /// Panics if the payload does not hold `dst.len()` values.
    pub(crate) fn unpack<C: Comm>(
        self,
        comm: &mut C,
        got: &[u8],
        dst: &mut [f32],
        scratch: &mut CodecScratch,
    ) {
        match self {
            Link::Raw => {
                let fits = self.fits(got, dst.len());
                assert!(fits, "payload length disagrees with destination");
                comm.run_kernel(Kernel::Memcpy, got.len(), Category::Memcpy, || {
                    decode_values_into(got, dst);
                });
            }
            Link::Cpr(c) => {
                let vals = decompress(comm, c.codec.as_ref(), c.dk, got, dst.len(), scratch);
                memcpy_in(comm, dst, vals);
            }
            Link::Once(_) | Link::Piped(_) => self.land(comm, got, dst, scratch),
        }
    }

    /// [`Link::unpack`] without the `Memcpy` charge — how a tree rank
    /// takes delivery of what it relays onwards. Raw charges nothing.
    ///
    /// # Panics
    /// Panics if the payload does not hold `dst.len()` values.
    pub(crate) fn land<C: Comm>(
        self,
        comm: &mut C,
        got: &[u8],
        dst: &mut [f32],
        scratch: &mut CodecScratch,
    ) {
        self.try_land(comm, got, dst, scratch)
            .expect("payload does not hold its slot's values");
    }

    /// [`Link::land`], or `Err` when the payload does not hold
    /// `dst.len()` values (`dst` is then unspecified). A pooled decode
    /// lands straight in `dst`: the decompression kernel is the whole
    /// charge, failed or not.
    pub(crate) fn try_land<C: Comm>(
        self,
        comm: &mut C,
        got: &[u8],
        dst: &mut [f32],
        scratch: &mut CodecScratch,
    ) -> Result<(), CompressError> {
        if !self.fits(got, dst.len()) {
            return Err(CompressError::LengthMismatch);
        }
        match self.codec() {
            None => decode_values_into(got, dst),
            Some((codec, _, dk, false)) => {
                dst.copy_from_slice(decompress(comm, codec, dk, got, dst.len(), scratch))
            }
            Some((codec, _, dk, true)) => {
                return comm.run_kernel(dk, dst.len() * 4, Category::ComDecom, || {
                    codec.decompress_to(got, dst, &mut scratch.dec)
                })
            }
        }
        Ok(())
    }

    /// [`Link::unpack`], or `Err` when the payload does not hold
    /// `dst.len()` values: a raw payload is then neither landed nor
    /// charged, a pooled decode is charged as [`Link::try_land`] is.
    pub(crate) fn try_unpack<C: Comm>(
        self,
        comm: &mut C,
        got: &[u8],
        dst: &mut [f32],
        scratch: &mut CodecScratch,
    ) -> Result<(), CompressError> {
        match self {
            Link::Raw if !self.fits(got, dst.len()) => Err(CompressError::LengthMismatch),
            Link::Raw | Link::Cpr(_) => {
                self.unpack(comm, got, dst, scratch);
                Ok(())
            }
            Link::Once(_) | Link::Piped(_) => self.try_land(comm, got, dst, scratch),
        }
    }

    /// Fold a received payload into `dst` with `op`: in place, or — the
    /// first touch of an accumulator range — as `dst = fold(from,
    /// payload)`, which is what copying `from` in and then folding in
    /// place computes. Raw decodes uncharged and charges `Reduce`; a
    /// codec charges the decompression kernel and `Reduce` (fused
    /// decompress-reduce: one pass, native for SZx, decompress-then-apply
    /// for other codecs, at the unfused pair's charges), CPR `BufferMgmt`
    /// on top. No form charges `Memcpy`. `Err` — nothing folded, nothing
    /// charged — when the payload does not hold `dst.len()` values.
    pub(crate) fn try_reduce<C: Comm>(
        self,
        comm: &mut C,
        got: &[u8],
        op: ReduceOp,
        from: Option<&[f32]>,
        dst: &mut [f32],
        scratch: &mut CodecScratch,
    ) -> Result<(), CompressError> {
        if !self.fits(got, dst.len()) {
            return Err(CompressError::LengthMismatch);
        }
        let dec = &mut scratch.dec;
        let Some((codec, _, dk, pooled)) = self.codec() else {
            decode_values_vec(got, dec);
            let vals: &[f32] = dec;
            comm.run_kernel(Kernel::Reduce, vals.len() * 4, Category::Reduction, || {
                if let Some(src) = from {
                    dst.copy_from_slice(src);
                }
                op.apply(dst, vals)
            });
            return Ok(());
        };
        let kind = op.fused_kind();
        comm.run_kernel(dk, dst.len() * 4, Category::ComDecom, || {
            match from {
                Some(src) => codec.decompress_reduce_from(got, kind, src, dst, dec),
                None => codec.decompress_reduce_into(got, kind, dst, dec),
            }
            .expect("decompression of a stream we compressed cannot fail");
        });
        comm.charge(Kernel::Reduce, dst.len() * 4, Category::Reduction);
        if !pooled {
            comm.charge(Kernel::BufferMgmt, dst.len() * 4, Category::Others);
        }
        Ok(())
    }
}

/// Decode an unpooled (CPR-P2P) payload of `len` values into the
/// scratch, charging the decompression kernel by the uncompressed size
/// (as the paper's Table I reports decompression throughput) plus
/// `BufferMgmt`, and lend the values out until the next hop reuses it.
fn decompress<'s, C: Comm>(
    comm: &mut C,
    codec: &dyn Compressor,
    kernel: Kernel,
    got: &[u8],
    len: usize,
    scratch: &'s mut CodecScratch,
) -> &'s [f32] {
    let dec = &mut scratch.dec;
    comm.run_kernel(kernel, len * 4, Category::ComDecom, || {
        codec
            .decompress_into(got, dec)
            .expect("decompression of a stream we compressed cannot fail");
    });
    debug_assert_eq!(dec.len(), len, "decompressed length mismatch");
    comm.charge(Kernel::BufferMgmt, len * 4, Category::Others);
    dec
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use ccoll_comm::{SimConfig, SimWorld};

    use super::*;
    use crate::codec::CodecSpec;
    use crate::testing::assert_within;
    use crate::workspace::CollWorkspace;

    const LEN: usize = 3000;

    fn vals(seed: f32) -> Vec<f32> {
        (0..LEN).map(|i| (i as f32 * 7e-3 + seed).sin()).collect()
    }

    /// Run `call`: the virtual time it took, beside the sum of the
    /// `charged` kernel terms over one payload.
    fn timed<C: Comm>(
        c: &mut C,
        charged: &[Kernel],
        call: impl FnOnce(&mut C),
    ) -> (Duration, Duration) {
        let t0 = c.now();
        call(c);
        let took = c.now() - t0;
        let documented = charged.iter().map(|&k| c.kernel_cost(k, LEN * 4)).sum();
        (took, documented)
    }

    /// Rank 0 packs `vals(0.)` four times and ships them to rank 1,
    /// which unpacks one, lands one, reduces one into `vals(1.)` in place
    /// and one as the first touch of a stale buffer (`from = vals(1.)`):
    /// the data must agree to within `tol` — the two landings and the
    /// two reduce forms bit for bit — and every call must take exactly
    /// the kernel terms its placement documents (`pack`, `unpack`,
    /// `land`, `reduce`), in `Memcpy` no more than `unpack`'s.
    fn exercise(place: Placement, spec: CodecSpec, tol: f32, charges: [&'static [Kernel]; 4]) {
        let [pack, unpack, land, reduce] = charges;
        let out = SimWorld::new(SimConfig::new(2)).run(move |c| {
            let cpr = CprCodec::from_spec(spec);
            // A piped machine's sub-chunks (its monolithic legs are CPR).
            let (link, _) = place.stream(cpr.as_ref(), LEN);
            let mut ws = CollWorkspace::new();
            if c.rank() == 0 {
                return [1, 2, 3, 4].map(|tag| {
                    let mut payload = Bytes::new();
                    let t = timed(c, pack, |c| {
                        payload = link.pack(c, &vals(0.0), &mut ws.pool)
                    });
                    c.send(1, tag, payload);
                    t
                });
            }
            let mut unpacked = vec![0.0f32; LEN];
            let got = c.recv(0, 1);
            let t_unpack = timed(c, unpack, |c| {
                link.unpack(c, &got, &mut unpacked, &mut ws.scratch)
            });
            assert_within(&unpacked, &vals(0.0), tol, "unpack");

            let unpack_memcpy = c.profiler().breakdown().get(Category::Memcpy);

            let mut landed = vec![0.0f32; LEN];
            let got = c.recv(0, 2);
            let t_land = timed(c, land, |c| {
                link.land(c, &got, &mut landed, &mut ws.scratch)
            });
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&landed), bits(&unpacked), "land vs unpack");

            let mut acc = vals(1.0);
            let got = c.recv(0, 3);
            let t_reduce = timed(c, reduce, |c| {
                let scratch = &mut ws.scratch;
                let folded = link.try_reduce(c, &got, ReduceOp::Sum, None, &mut acc, scratch);
                folded.expect("reduce")
            });
            let mut expect = vals(1.0);
            ReduceOp::Sum.apply(&mut expect, &landed);
            assert_within(&acc, &expect, tol, "reduce vs unpack + apply");

            let mut born = vec![f32::NAN; LEN];
            let got = c.recv(0, 4);
            let t_from = timed(c, reduce, |c| {
                let (from, scratch) = (vals(1.0), &mut ws.scratch);
                let folded =
                    link.try_reduce(c, &got, ReduceOp::Sum, Some(&from), &mut born, scratch);
                folded.expect("first-touch reduce")
            });
            assert_eq!(bits(&born), bits(&acc), "first touch vs copy + reduce");
            let memcpy = c.profiler().breakdown().get(Category::Memcpy);
            assert_eq!(memcpy, unpack_memcpy, "land or reduce charged a memcpy");
            [t_unpack, t_land, t_reduce, t_from]
        });
        for (rank, calls) in out.results.iter().enumerate() {
            for (took, charged) in calls {
                assert_eq!(took, charged, "{place:?} / {spec}: rank {rank} charges");
            }
        }
    }

    #[test]
    fn link_round_trips_and_charges_what_its_placement_documents() {
        use Kernel::{BufferMgmt, Memcpy, Reduce, SzxCompress, SzxDecompress};
        exercise(
            Placement::Raw,
            CodecSpec::None,
            0.0,
            [&[], &[Memcpy], &[], &[Reduce]],
        );
        // The lossless codec and SZx share the SZx cost kernels.
        let cpr: [&[Kernel]; 4] = [
            &[SzxCompress, BufferMgmt],
            &[SzxDecompress, BufferMgmt, Memcpy],
            &[SzxDecompress, BufferMgmt],
            &[SzxDecompress, Reduce, BufferMgmt],
        ];
        // Compress-once goes through preallocated buffers and decodes in
        // place: the codec kernel is the whole charge of every call.
        let once: [&[Kernel]; 4] = [
            &[SzxCompress],
            &[SzxDecompress],
            &[SzxDecompress],
            &[SzxDecompress, Reduce],
        ];
        let eb = 1e-3;
        for (spec, tol) in [
            (CodecSpec::Lossless, 0.0),
            (CodecSpec::Szx { error_bound: eb }, eb),
        ] {
            exercise(Placement::Cpr, spec, tol, cpr);
            exercise(Placement::Once, spec, tol, once);
            // Piped sub-chunks are SZx whatever the session codec is, at
            // compress-once's charges.
            let piped = Placement::Piped(PipelineConfig {
                error_bound: eb,
                chunk_values: LEN,
            });
            exercise(piped, spec, eb, once);
        }
    }
}
