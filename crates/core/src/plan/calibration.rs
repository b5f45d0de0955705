//! The feedback loop of an `Auto` plan: the lane-wise minimum agreement,
//! the one-shot re-rank from the measured compression ratio, and the
//! continuous α–β calibration.

use bytes::Bytes;
use ccoll_comm::{Category, Comm, CommView, PayloadPool, Schedule, Tag, Topology};

use super::{select, Kind, PlanCore, Tuning};
use crate::algorithm::Algorithm;
use crate::collectives::tags;

/// Agree on the communicator-wide lane-wise minimum of `L` non-negative
/// measurements (fixed-point scaled by 1024; `None` is "no sample") in
/// `⌈log₂ s⌉ + ⌈log₂ m⌉ + ⌈log₂ s⌉` message latencies for `m` nodes of
/// at most `s` ranks:
///
/// ```text
///   1. node-local binomial min-reduce to the node leader   ⌈log₂ s⌉ intra hops
///   2. dissemination among the m node leaders only         ⌈log₂ m⌉ inter hops
///   3. node-local binomial broadcast from the leader       ⌈log₂ s⌉ intra hops
/// ```
///
/// Only leaders cross node boundaries, so each shared NIC carries one
/// message per round. `min` is idempotent, which is what lets the
/// dissemination rounds (`to = leader((a + 2ᵏ) mod m)`) overlap their
/// coverage on a non-power-of-two `m` with no fold or unfold step.
/// Without a topology every rank is its own leader and only the
/// dissemination phase runs. Peers are computed from the contiguous
/// node ranges of `topo`; nothing is allocated or cached.
///
/// A rank with no sample for a lane abstains from it (it enters the
/// minimum as `u32::MAX`, above every sample): on a laned hierarchical
/// plan only the ranks that own a lane compress, and the others' empty
/// ratio lanes must not veto the owners' measurement. A lane is `None`
/// only if every rank abstained. Every rank returns the identical array.
pub(super) fn agree_min<const L: usize, C: Comm>(
    comm: &mut C,
    topo: Option<&Topology>,
    tag: Tag,
    local: [Option<f64>; L],
    pool: &mut PayloadPool,
) -> [Option<f64>; L] {
    fn payload<const L: usize>(pool: &mut PayloadPool, lanes: [u32; L]) -> Bytes {
        pool.write(lanes.map(u32::to_le_bytes).as_flattened())
    }
    fn fold<const L: usize>(lanes: &mut [u32; L], got: &[u8]) {
        assert_eq!(got.len(), 4 * L, "agreement payload is {L} 4-byte lanes");
        for (lane, peer) in lanes.iter_mut().zip(got.chunks_exact(4)) {
            *lane = (*lane).min(u32::from_le_bytes(peer.try_into().expect("4-byte lane")));
        }
    }
    /// Rounds of a binomial tree or a dissemination over `size` members.
    fn rounds(size: usize) -> u32 {
        size.next_power_of_two().trailing_zeros()
    }

    let me = comm.rank();
    // 4·10⁶ × 1024 < u32::MAX, so no sample collides with an abstention.
    let mut cur =
        local.map(|x| x.map_or(u32::MAX, |x| (x.clamp(0.0, 4.0e6) * 1024.0).round() as u32));
    let (node, nodes) = topo.map_or((me, comm.size()), |t| (t.node_of(me), t.nodes()));
    let members = topo.map_or(me..me + 1, |t| t.members_of(node));
    let leader = |node: usize| topo.map_or(node, |t| t.leader_of(node));
    // This rank's index in its node, and the round in which it hands
    // its running minimum to its binomial parent (the leader never does).
    let i = me - members.start;
    let up = if i == 0 {
        rounds(members.len())
    } else {
        i.trailing_zeros()
    };

    for k in 0..up {
        let child = i + (1 << k);
        if child < members.len() {
            let got = comm.recv(members.start + child, tag + tags::AGREE_REDUCE + k);
            fold(&mut cur, &got);
        }
    }
    if i == 0 {
        for k in 0..rounds(nodes) {
            let d = 1usize << k;
            let (to, from) = (
                leader((node + d) % nodes),
                leader((node + nodes - d) % nodes),
            );
            let t = tag + tags::AGREE_EXCHANGE + k;
            let got = comm.sendrecv(to, from, t, payload(pool, cur), Category::Others);
            fold(&mut cur, &got);
        }
    } else {
        let parent = members.start + i - (1 << up);
        comm.send(parent, tag + tags::AGREE_REDUCE + up, payload(pool, cur));
        // The agreed minimum is at most this rank's partial one, so
        // folding it in is taking it.
        fold(&mut cur, &comm.recv(parent, tag + tags::AGREE_BCAST + up));
    }
    for k in (0..up).rev() {
        let child = i + (1 << k);
        if child < members.len() {
            comm.send(
                members.start + child,
                tag + tags::AGREE_BCAST + k,
                payload(pool, cur),
            );
        }
    }
    cur.map(|v| (v < u32::MAX).then(|| v as f64 / 1024.0))
}

/// Executions between continuous-calibration rounds on an `Auto`
/// plan (see [`calibrate`]). The first round therefore happens
/// well after the one-shot measured-ratio re-rank (execution 1), once
/// the makespan EWMA has a few samples behind it.
const CALIB_PERIOD: u64 = 4;

/// Relative deadband around 1.0 inside which a calibration round leaves
/// the α–β scales untouched (measurement noise, not model error).
const CALIB_DEADBAND: f64 = 0.05;

/// Clamp for the α–β calibration scales: the model is trusted to within
/// a factor of 64 in either direction.
const CALIB_MAX_SCALE: f64 = 64.0;

/// The feedback loop of an `Auto` plan, run by [`Plan::start`](super::Plan::start)
/// once the caller's arguments and the plan's state have been validated
/// and before any per-operation bookkeeping. When the agreed
/// measurements re-resolve the schedule differently the plan switches
/// to it and re-warms its workspace (a single allocation event, after
/// which the steady state is allocation-free again).
///
/// **One-shot re-rank**, at the start of the second execution (i.e.
/// after warm-up): re-resolve the schedule with the *measured*
/// compression ratio in place of the codec's nominal one. Ranks measure
/// different ratios on their own data, and a divergent pick would
/// deadlock the collective — so the re-rank first agrees on the
/// communicator-wide **minimum** measured ratio through a one-lane
/// [`agree_min`] (minimum = the most conservative wire-size estimate;
/// `min` is order-independent, so every rank lands on the identical
/// value and therefore the identical schedule). Ranks with no sample
/// yet abstain; if none has one, the nominal selection stands.
///
/// **Continuous calibration**, every [`CALIB_PERIOD`]-th execution
/// afterwards, for kinds whose [`Kind::TUNING`] asks for it (see
/// [`calibrate`]). Its agreement carries the measured ratio too, so on
/// a cluster its first round is such a kind's re-rank: every blocking
/// agreement there costs a laned hierarchical plan the overlap its
/// free-running lanes build up between back-to-back executions, and the
/// warm-up one would be a second (a flat schedule repeats its first
/// execution exactly and has no overlap to lose).
pub(super) fn retune<K: Kind, C: Comm>(core: &mut PlanCore, kind: &mut K, comm: &mut C) {
    if !core.auto || core.stats.executions == 0 {
        return;
    }
    let calibrates = K::TUNING == Tuning::Calibrate;
    let rerank_in_calibration = calibrates && core.session.cluster().is_some();
    let picked = if !(core.reranked || rerank_in_calibration) {
        core.reranked = true;
        let local = [core.session.feedback.ratio()];
        let view = &mut CommView::stamped(comm, core.op());
        let topo = core.session.cluster().map(|c| &c.topo);
        let [ratio] = agree_min(view, topo, tags::AGREE_RERANK, local, &mut core.ws.pool);
        ratio.map(|ratio| select(kind, core.session.select_ctx_with_ratio(ratio)))
    } else if calibrates && core.stats.executions.is_multiple_of(CALIB_PERIOD) {
        calibrate(core, kind, comm)
    } else {
        None
    };
    if let Some(algorithm) = picked.filter(|&a| a != core.algorithm) {
        core.algorithm = algorithm;
        core.groups = None;
        core.ws = kind.workspace(&core.session, algorithm);
    }
}

/// One continuous-calibration round: regress the measured makespan EWMA
/// against the cost model's prediction for the running schedule and
/// correct the session's α–β scales, then re-rank under the corrected
/// model.
///
/// The regression isolates the *network* share — both sides subtract
/// the schedule's compute-only floor (codec + reduction + memcpy terms
/// priced over a free network), so a codec-throughput mismatch never
/// masquerades as a fabric correction. Ranks measure different
/// makespans, so the ratio is first agreed to the communicator-wide
/// **minimum** (the most conservative "fabric is slower than modeled"
/// evidence; order-independent, hence identical on every rank). The
/// same exchange carries the measured compression ratio the closing
/// re-rank selects with as a second lane — one two-lane [`agree_min`]
/// per round, over a tag band disjoint from the one-shot re-rank's: a
/// round with no network signal (a rank's lane 0 at zero) returns before
/// touching the scales, one where no rank has a ratio sample (lane 1
/// empty) re-ranks at the nominal ratio. The correction splits
/// between α and β by the model's own finite-difference sensitivities
/// and is damped (square root per round) and clamped to `[1/64, 64]`, so
/// one noisy window cannot fling selection across the schedule space; a
/// ±5% deadband leaves a well-calibrated model alone. Every input to the
/// pre-agreement gate is rank-independent, so no rank can enter the
/// exchange alone and deadlock.
fn calibrate<K: Kind, C: Comm>(core: &mut PlanCore, kind: &K, comm: &mut C) -> Option<Algorithm> {
    let (schedule, len) = (scheduled::<K>(core.algorithm), kind.priced_values());
    let ctx = core.session.select_ctx();
    let pred = ctx.predict(schedule, len).as_secs_f64();
    let floor = ctx.compute_floor(schedule, len).as_secs_f64();
    if !(pred.is_finite() && pred > floor) {
        return None;
    }
    let measured = core.stats.ewma_makespan.as_secs_f64();
    let r_local = ((measured - floor) / (pred - floor)).max(0.0);
    let view = &mut CommView::stamped(comm, core.op());
    let topo = core.session.cluster().map(|c| &c.topo);
    let local = [Some(r_local), core.session.feedback.ratio()];
    let [r, ratio] = agree_min(view, topo, tags::AGREE_CALIB, local, &mut core.ws.pool);
    // Zero: some rank's measured makespan sits below its compute floor —
    // no trustworthy network signal this round.
    let r = r.filter(|&r| r > 0.0)?;
    if (r - 1.0).abs() >= CALIB_DEADBAND {
        let share = ctx.alpha_share(schedule, len);
        let clamp = |s: f64| s.clamp(1.0 / CALIB_MAX_SCALE, CALIB_MAX_SCALE);
        // Computed from the pre-round scales (read by every rank
        // before any rank finishes the agreement) and stored, not
        // read-modify-written: ranks sharing one feedback through
        // session clones apply the identical correction idempotently.
        core.session.feedback.store_net_scales(
            clamp(ctx.alpha_scale * r.powf(0.5 * share)),
            clamp(ctx.beta_scale * r.powf(0.5 * (1.0 - share))),
        );
    }
    Some(match ratio {
        Some(ratio) => select(kind, core.session.select_ctx_with_ratio(ratio)),
        None => select(kind, core.session.select_ctx()),
    })
}

/// The cost-model entry the kind's table prices the resolved `algorithm`
/// as.
fn scheduled<K: Kind>(algorithm: Algorithm) -> Schedule {
    K::SCHEDULES
        .iter()
        .find_map(|&(a, schedule)| schedule.filter(|_| a == algorithm))
        .expect("a calibrated plan runs a priced row of its kind's table")
}
