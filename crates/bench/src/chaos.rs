//! Deterministic chaos harness: collectives under seeded fault plans.
//!
//! One [`ChaosCase`] = one seed × world size × collective shape × codec
//! × fault mix. The harness runs the case twice on the virtual-time
//! simulator — once fault-free (the reference), once under the seeded
//! [`FaultPlan`] — and classifies the faulty run against the chaos
//! subsystem's contract: **every rank either completes bitwise-equal to
//! the reference, aborts with a structured error (poisoning its plan),
//! or was killed by the plan — and the world never hangs.** The recover
//! shapes ([`Shape::Recover`], [`Shape::RecoverPair`]) tighten the
//! contract further: after a kill→agree→shrink→resume flow every
//! *survivor* must complete, bitwise-equal to a fault-free reference
//! run on the shrunk world. Because the
//! simulator and the fault plan are both pure functions of their seeds,
//! a case's entire outcome folds into a single [`CaseResult::fingerprint`]
//! that replays byte-identically forever; the checked-in corpus
//! (`chaos_corpus.txt`) pins a spread of those fingerprints and the
//! `chaos_replay` test re-runs them on every CI build.

use std::fmt;
use std::time::Duration;

use c_coll::engine::ProgressEngine;
use c_coll::{Algorithm, CCollSession, CodecSpec, CollectiveError, PlanOptions, ReduceOp};
use ccoll_comm::chaos::splitmix64;
use ccoll_comm::{
    sim::SimComm, Comm, CommError, FaultPlan, FaultPolicy, RankOutcome, SimConfig, SimWorld,
};

/// The collective shape a chaos case exercises (explicit schedules
/// only: `Auto`'s post-warm-up re-rank agreement runs outside any fault
/// policy and is deliberately out of scope for fault sweeps).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// Allreduce with a pinned schedule.
    Allreduce(Algorithm),
    /// Binomial-tree broadcast from rank 0.
    Bcast,
    /// Ring allgather.
    Allgather,
    /// Two ring-allreduce plans in flight at once on one communicator,
    /// driven by a session [`ProgressEngine`]: pins that a fault aborts
    /// *one* operation cleanly (poisoning only its own plan) while the
    /// sibling still completes bitwise-equal or aborts on its own
    /// terms — never hangs, never corrupts.
    ConcurrentPair,
    /// Kill→agree→shrink→resume on a ring allreduce: after phase 1
    /// every live rank joins the survivor agreement, re-plans for the
    /// shrunk world, and re-runs the collective in a new epoch on a
    /// [`CommView::shrunk`](ccoll_comm::CommView::shrunk). Survivors
    /// must complete bitwise-equal to a fault-free reference run *on
    /// the shrunk world* (restart-on-survivors: the dead rank's
    /// contribution is dropped). A crash landing mid-resume is absorbed
    /// by one nested recovery level.
    Recover,
    /// The engine-driven variant of [`Shape::Recover`]: two concurrent
    /// ring allreduces are quiesced after the crash, both plans are
    /// revived through the same [`Recovery`](c_coll::Recovery), and
    /// both re-run on the shrunk communicator.
    RecoverPair,
}

impl Shape {
    /// Shapes whose contract holds under *any* fault mix. The recover
    /// shapes are excluded: they promise every survivor completes,
    /// which only a crash mix can honour — under a loss mix a
    /// permanent message loss can abort the post-shrink re-run too.
    pub const ANY_MIX: [Shape; 6] = [
        Shape::Allreduce(Algorithm::Ring),
        Shape::Allreduce(Algorithm::RecursiveDoubling),
        Shape::Allreduce(Algorithm::Rabenseifner),
        Shape::Bcast,
        Shape::Allgather,
        Shape::ConcurrentPair,
    ];

    /// All shapes the sweep rotates through (the two recover shapes
    /// run only in crash-mix cells — see [`Shape::ANY_MIX`]).
    pub const ALL: [Shape; 8] = [
        Shape::Allreduce(Algorithm::Ring),
        Shape::Allreduce(Algorithm::RecursiveDoubling),
        Shape::Allreduce(Algorithm::Rabenseifner),
        Shape::Bcast,
        Shape::Allgather,
        Shape::ConcurrentPair,
        Shape::Recover,
        Shape::RecoverPair,
    ];

    /// Whether this shape runs the kill→agree→shrink→resume flow (and
    /// is therefore classified against a shrunk-world reference).
    pub fn recovers(&self) -> bool {
        matches!(self, Shape::Recover | Shape::RecoverPair)
    }

    /// Corpus token for this shape.
    pub fn token(&self) -> &'static str {
        match self {
            Shape::Allreduce(Algorithm::Ring) => "ar-ring",
            Shape::Allreduce(Algorithm::RecursiveDoubling) => "ar-rd",
            Shape::Allreduce(Algorithm::Rabenseifner) => "ar-rab",
            Shape::Allreduce(_) => unreachable!("sweep pins explicit allreduce schedules"),
            Shape::Bcast => "bcast",
            Shape::Allgather => "allgather",
            Shape::ConcurrentPair => "ar-pair",
            Shape::Recover => "recover",
            Shape::RecoverPair => "rec-pair",
        }
    }

    /// Parse a corpus token.
    pub fn parse(s: &str) -> Option<Shape> {
        Shape::ALL.into_iter().find(|sh| sh.token() == s)
    }
}

/// The fault mixes a chaos case can run under, each with a matched
/// retry policy: the policy must be generous enough that only the mix's
/// *permanent* faults can abort a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultMix {
    /// Transient-only: drops (retransmitted), delays, duplicates,
    /// stalls. Every run must complete bitwise-equal — an abort here is
    /// a harness failure.
    Transient,
    /// Transient drops plus a low rate of permanent message loss: runs
    /// either complete bitwise-equal or abort cleanly on a timeout.
    Loss,
    /// A seeded rank crash over light transient drops: the killed rank
    /// dies, every other rank completes bitwise-equal or aborts with a
    /// structured error.
    Crash,
}

impl FaultMix {
    /// All mixes the sweep rotates through.
    pub const ALL: [FaultMix; 3] = [FaultMix::Transient, FaultMix::Loss, FaultMix::Crash];

    /// Corpus token for this mix.
    pub fn token(&self) -> &'static str {
        match self {
            FaultMix::Transient => "transient",
            FaultMix::Loss => "loss",
            FaultMix::Crash => "crash",
        }
    }

    /// Parse a corpus token.
    pub fn parse(s: &str) -> Option<FaultMix> {
        FaultMix::ALL.into_iter().find(|m| m.token() == s)
    }

    /// The seeded fault plan for this mix.
    pub fn plan(&self, seed: u64, world: usize) -> FaultPlan {
        match self {
            FaultMix::Transient => FaultPlan::seeded(seed)
                .with_drops(0.25, Duration::from_micros(200), 3)
                .with_delays(0.2, Duration::from_micros(150))
                .with_duplicates(0.1)
                .with_stalls(0.15, Duration::from_micros(80)),
            FaultMix::Loss => FaultPlan::seeded(seed)
                .with_drops(0.2, Duration::from_micros(200), 3)
                .with_loss(0.02),
            FaultMix::Crash => {
                let victim = (splitmix64(seed ^ 0x00C0_FFEE) as usize) % world;
                FaultPlan::seeded(seed)
                    .with_drops(0.1, Duration::from_micros(200), 2)
                    .with_kill(victim, 2 + seed % 6)
            }
        }
    }

    /// The retry policy matched to this mix (see the variant docs).
    pub fn policy(&self) -> FaultPolicy {
        match self {
            // Generous: 32 re-arms of a 2 ms hop timeout absorbs any
            // transient schedule the plan above can produce.
            FaultMix::Transient => FaultPolicy::with_timeout(Duration::from_millis(2), 32),
            FaultMix::Loss => FaultPolicy::with_timeout(Duration::from_micros(600), 4),
            FaultMix::Crash => FaultPolicy::with_timeout(Duration::from_millis(1), 2),
        }
    }
}

/// Codec tokens the sweep rotates through (deterministic codecs only,
/// which is all of them — so completed faulty runs stay bitwise-equal
/// to the reference even for lossy specs).
pub const CODECS: [(&str, CodecSpec); 4] = [
    ("none", CodecSpec::None),
    ("lossless", CodecSpec::Lossless),
    ("szx", CodecSpec::Szx { error_bound: 1e-3 }),
    ("zfpfxr", CodecSpec::ZfpFxr { rate: 8 }),
];

/// Parse a codec corpus token.
pub fn parse_codec(s: &str) -> Option<CodecSpec> {
    CODECS.iter().find(|(t, _)| *t == s).map(|(_, c)| *c)
}

/// Corpus token for a codec spec.
pub fn codec_token(spec: CodecSpec) -> &'static str {
    CODECS
        .iter()
        .find(|(_, c)| *c == spec)
        .map(|(t, _)| *t)
        .expect("codec outside the sweep set")
}

/// One fully-specified chaos run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosCase {
    /// Fault-plan seed (also salts the input data).
    pub seed: u64,
    /// Communicator size.
    pub world: usize,
    /// Values per rank.
    pub len: usize,
    /// Collective shape under test.
    pub shape: Shape,
    /// Codec spec.
    pub codec: CodecSpec,
    /// Fault mix + matched policy.
    pub mix: FaultMix,
}

impl ChaosCase {
    /// Corpus line for this case (without the fingerprint column).
    pub fn corpus_key(&self) -> String {
        format!(
            "{} {} {} {} {} {}",
            self.seed,
            self.world,
            self.len,
            self.shape.token(),
            codec_token(self.codec),
            self.mix.token()
        )
    }

    /// Parse a corpus line: `seed world len shape codec mix [fingerprint]`.
    /// Returns the case and the pinned fingerprint if present.
    pub fn parse_line(line: &str) -> Option<(ChaosCase, Option<u64>)> {
        let mut it = line.split_whitespace();
        let case = ChaosCase {
            seed: it.next()?.parse().ok()?,
            world: it.next()?.parse().ok()?,
            len: it.next()?.parse().ok()?,
            shape: Shape::parse(it.next()?)?,
            codec: parse_codec(it.next()?)?,
            mix: FaultMix::parse(it.next()?)?,
        };
        let fp = match it.next() {
            Some(tok) => Some(u64::from_str_radix(tok.trim_start_matches("0x"), 16).ok()?),
            None => None,
        };
        Some((case, fp))
    }
}

/// How one rank ended a faulty run.
#[derive(Debug, Clone, PartialEq)]
enum RankEnd {
    /// Completed with this output buffer.
    Done(Vec<f32>),
    /// Aborted with a structured error and a poisoned plan.
    Aborted(CollectiveError),
}

/// The classified outcome of one chaos case.
#[derive(Debug, Clone)]
pub struct CaseResult {
    /// Whether the case upheld the chaos contract.
    pub pass: bool,
    /// Human-readable classification ("completed", "clean-abort(2)",
    /// or a failure reason).
    pub outcome: String,
    /// Deterministic digest of the faulty run: rank outcome tags, all
    /// completed output bits, the virtual makespan and the lost-message
    /// count. Same seed ⇒ same fingerprint, forever.
    pub fingerprint: u64,
    /// Ranks that completed / aborted / were killed.
    pub completed: usize,
    /// Ranks that aborted cleanly.
    pub aborted: usize,
    /// Ranks killed by the plan.
    pub killed: usize,
    /// Total wait retries across ranks (from `PlanStats`).
    pub retries: u64,
    /// Total communicator shrinks across ranks (recover shapes only;
    /// each survivor counts every `recover()` it performed).
    pub shrinks: u64,
    /// Total survivor-agreement rounds across ranks.
    pub agreement_rounds: u64,
    /// Total stale pre-shrink messages discarded when survivors
    /// crossed a shrink epoch.
    pub stale_discarded: u64,
}

impl fmt::Display for CaseResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({} done / {} aborted / {} killed, {} retries",
            self.outcome, self.completed, self.aborted, self.killed, self.retries
        )?;
        if self.shrinks > 0 {
            write!(
                f,
                ", {} shrinks / {} agree-rounds / {} stale purged",
                self.shrinks, self.agreement_rounds, self.stale_discarded
            )?;
        }
        f.write_str(")")
    }
}

/// Integer-valued deterministic rank data (exact under f32 summation,
/// so bitwise comparison against the reference is meaningful even
/// across retried reduction schedules).
fn rank_data(rank: usize, len: usize, seed: u64) -> Vec<f32> {
    (0..len)
        .map(|i| {
            let x = (i as u64)
                .wrapping_mul(0x9E37_79B9)
                .wrapping_add(rank as u64 * 2654435761)
                .wrapping_add(seed.wrapping_mul(0x1000_0001));
            ((x % 201) as f32) - 100.0
        })
        .collect()
}

/// Per-rank counters harvested after a run: the plan-level retry count
/// plus the session's recovery counters. Recovered sessions share the
/// original session's feedback (an `Arc`), so reading the pre-shrink
/// session at the end sees the whole recovery chain.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct RankStats {
    retries: u64,
    shrinks: u64,
    agreement_rounds: u64,
    stale_discarded: u64,
}

/// Read a rank's final counters off its (pre-shrink) session.
fn harvest(session: &CCollSession, retries: u64) -> RankStats {
    let s = session.stats();
    RankStats {
        retries,
        shrinks: s.shrinks,
        agreement_rounds: s.agreement_rounds,
        stale_discarded: s.stale_discarded,
    }
}

/// The dead peers named by an abort error: the survivor agreement's
/// suspicion seed. Timeouts are deliberately *not* suspicion — a
/// timeout may be congestion; only `PeerDead` is evidence of death.
fn dead_suspects(e: &CollectiveError) -> Vec<usize> {
    match e {
        CollectiveError::Comm(CommError::PeerDead { peer }) => vec![*peer],
        _ => Vec::new(),
    }
}

/// Run `case`'s collective on one rank; `Ok` carries the output buffer.
/// For the recover shapes this is the full kill→agree→shrink→resume
/// flow; `Err` means the rank aborted with a structured error (and its
/// plan is poisoned — asserted here).
fn run_rank(c: &mut SimComm, case: ChaosCase) -> Result<(Vec<f32>, RankStats), CollectiveError> {
    let session = CCollSession::new(case.codec, case.world);
    let input = rank_data(c.rank(), case.len, case.seed);
    match case.shape {
        Shape::Allreduce(alg) => {
            let mut plan = session.plan_allreduce_with(
                case.len,
                ReduceOp::Sum,
                PlanOptions::new().algorithm(alg),
            );
            let mut out = vec![0.0f32; case.len];
            match plan.try_execute_into(c, &input, &mut out) {
                Ok(()) => Ok((out, harvest(&session, plan.stats().retries))),
                Err(e) => {
                    assert!(plan.is_poisoned(), "an aborted plan must be poisoned");
                    Err(e)
                }
            }
        }
        Shape::Bcast => {
            let mut plan = session.plan_bcast(0, case.len);
            let data = if c.rank() == 0 { input } else { Vec::new() };
            let mut out = vec![0.0f32; case.len];
            match plan.try_execute_into(c, &data, &mut out) {
                Ok(()) => Ok((out, harvest(&session, plan.stats().retries))),
                Err(e) => {
                    assert!(plan.is_poisoned(), "an aborted plan must be poisoned");
                    Err(e)
                }
            }
        }
        Shape::Allgather => {
            let mut plan = session.plan_allgather(case.len);
            let mut out = vec![0.0f32; case.len * case.world];
            match plan.try_execute_into(c, &input, &mut out) {
                Ok(()) => Ok((out, harvest(&session, plan.stats().retries))),
                Err(e) => {
                    assert!(plan.is_poisoned(), "an aborted plan must be poisoned");
                    Err(e)
                }
            }
        }
        Shape::ConcurrentPair => {
            let ring = || PlanOptions::new().algorithm(Algorithm::Ring);
            let len2 = case.len / 2 + 8;
            let mut p1 = session.plan_allreduce_with(case.len, ReduceOp::Sum, ring());
            let mut p2 = session.plan_allreduce_with(len2, ReduceOp::Sum, ring());
            let input2 = rank_data(c.rank(), len2, case.seed ^ 0x5EED);
            let mut out1 = vec![0.0f32; case.len];
            let mut out2 = vec![0.0f32; len2];
            let mut errs = Vec::new();
            let (id1, id2) = {
                let mut engine = ProgressEngine::new();
                let id1 = engine.submit(p1.start(c, &input, &mut out1));
                let id2 = engine.submit(p2.start(c, &input2, &mut out2));
                // A fault retires only the op it hit; keep draining the
                // sibling until nothing is live — the engine must never
                // wedge on a poisoned peer.
                while engine.live_ops() > 0 {
                    if let Err((id, e)) = engine.try_wait_all(c) {
                        errs.push((id, e));
                    }
                }
                (id1, id2)
            };
            // Per-op isolation: a plan is poisoned if and only if its
            // own operation aborted — a sibling's fault never leaks.
            let op1_err = errs.iter().find(|(id, _)| *id == id1).map(|&(_, e)| e);
            let op2_err = errs.iter().find(|(id, _)| *id == id2).map(|&(_, e)| e);
            assert_eq!(
                p1.is_poisoned(),
                op1_err.is_some(),
                "op 1 poisoned-state must track its own abort, not the sibling's"
            );
            assert_eq!(
                p2.is_poisoned(),
                op2_err.is_some(),
                "op 2 poisoned-state must track its own abort, not the sibling's"
            );
            match errs.first() {
                None => {
                    out1.extend_from_slice(&out2);
                    Ok((
                        out1,
                        harvest(&session, p1.stats().retries + p2.stats().retries),
                    ))
                }
                Some(&(_, e)) => Err(e),
            }
        }
        Shape::Recover => {
            let ring = PlanOptions::new().algorithm(Algorithm::Ring);
            let mut plan = session.plan_allreduce_with(case.len, ReduceOp::Sum, ring);
            let mut out = vec![0.0f32; case.len];
            // Phase 1 on the full world: complete or abort with a
            // structured error — either way every live rank joins the
            // agreement that follows. Completion is not exemption: a
            // rank that finished before the crash still has to learn
            // the world shrank and that the op restarts without the
            // dead rank's contribution.
            let (suspects, restart) = match plan.try_execute_into(c, &input, &mut out) {
                Ok(()) => (Vec::new(), false),
                Err(e) => {
                    assert!(plan.is_poisoned(), "an aborted plan must be poisoned");
                    (dead_suspects(&e), true)
                }
            };
            let r1 = session.recover(c, &suspects, restart)?;
            if r1.restart() || !r1.dead().is_empty() {
                plan.recover(&r1)?;
                let mut sc1 = r1.comm(c)?;
                // Phase 2 on the shrunk world (restart-on-survivors:
                // every survivor re-contributes its own input).
                if let Err(e) = plan.try_execute_into(&mut sc1, &input, &mut out) {
                    assert!(plan.is_poisoned(), "an aborted plan must be poisoned");
                    // The crash can land mid-resume (the victim's op
                    // threshold was crossed only after the first
                    // agreement); one nested recovery level finishes
                    // the job — the victim is certainly dead now.
                    let r2 = r1.session().recover(&mut sc1, &dead_suspects(&e), true)?;
                    plan.recover(&r2)?;
                    let mut sc2 = r2.comm(&mut sc1)?;
                    plan.try_execute_into(&mut sc2, &input, &mut out)?;
                }
            }
            Ok((out, harvest(&session, plan.stats().retries)))
        }
        Shape::RecoverPair => {
            let ring = || PlanOptions::new().algorithm(Algorithm::Ring);
            let len2 = case.len / 2 + 8;
            let mut p1 = session.plan_allreduce_with(case.len, ReduceOp::Sum, ring());
            let mut p2 = session.plan_allreduce_with(len2, ReduceOp::Sum, ring());
            let input2 = rank_data(c.rank(), len2, case.seed ^ 0x5EED);
            let mut out1 = vec![0.0f32; case.len];
            let mut out2 = vec![0.0f32; len2];
            // Phase 1: both ops in flight on one engine; quiesce
            // retires everything — completions banked, aborts
            // collected — before the survivor agreement runs.
            let (suspects, restart) = {
                let mut engine = ProgressEngine::new();
                engine.submit(p1.start(c, &input, &mut out1));
                engine.submit(p2.start(c, &input2, &mut out2));
                let (_, failures) = engine.quiesce(c);
                let mut suspects = Vec::new();
                for (_, e) in &failures {
                    suspects.extend(dead_suspects(e));
                }
                (suspects, !failures.is_empty())
            };
            let r1 = session.recover(c, &suspects, restart)?;
            if r1.restart() || !r1.dead().is_empty() {
                p1.recover(&r1)?;
                p2.recover(&r1)?;
                let mut sc1 = r1.comm(c)?;
                // Phase 2: both ops resubmitted on the shrunk world.
                let failures = {
                    let mut engine = ProgressEngine::new();
                    engine.submit(p1.start(&mut sc1, &input, &mut out1));
                    engine.submit(p2.start(&mut sc1, &input2, &mut out2));
                    engine.quiesce(&mut sc1).1
                };
                if !failures.is_empty() {
                    // Mid-resume crash: one nested recovery level.
                    let mut suspects = Vec::new();
                    for (_, e) in &failures {
                        suspects.extend(dead_suspects(e));
                    }
                    let r2 = r1.session().recover(&mut sc1, &suspects, true)?;
                    p1.recover(&r2)?;
                    p2.recover(&r2)?;
                    let mut sc2 = r2.comm(&mut sc1)?;
                    let failures = {
                        let mut engine = ProgressEngine::new();
                        engine.submit(p1.start(&mut sc2, &input, &mut out1));
                        engine.submit(p2.start(&mut sc2, &input2, &mut out2));
                        engine.quiesce(&mut sc2).1
                    };
                    if let Some((_, e)) = failures.into_iter().next() {
                        return Err(e);
                    }
                }
            }
            out1.extend_from_slice(&out2);
            Ok((
                out1,
                harvest(&session, p1.stats().retries + p2.stats().retries),
            ))
        }
    }
}

/// The fault-free reference outputs, indexed by *old* rank.
///
/// For the recover shapes the reference is a fault-free run on the
/// *shrunk* world — the ranks the faulty run actually killed removed,
/// each survivor keeping its original (old-rank) input — which is
/// exactly the restart-on-survivors contract: the dead ranks'
/// contributions are dropped, everything else re-contributes. Killed
/// ranks get an empty slot that is never compared.
fn expected_outputs(case: ChaosCase, killed: &[usize]) -> Vec<Vec<f32>> {
    if !case.shape.recovers() {
        // Same world, same code path, no faults.
        return SimWorld::with_ranks(case.world)
            .run(move |c| {
                run_rank(c, case)
                    .map(|(out, _)| out)
                    .expect("fault-free reference run cannot abort")
            })
            .results;
    }
    let survivors: Vec<usize> = (0..case.world).filter(|r| !killed.contains(r)).collect();
    let n = survivors.len();
    let sv = survivors.clone();
    let shrunk = SimWorld::with_ranks(n).run(move |c| {
        let old = sv[c.rank()];
        let session = CCollSession::new(case.codec, n);
        let input = rank_data(old, case.len, case.seed);
        let mut plan = session.plan_allreduce_with(
            case.len,
            ReduceOp::Sum,
            PlanOptions::new().algorithm(Algorithm::Ring),
        );
        let mut out = vec![0.0f32; case.len];
        plan.try_execute_into(c, &input, &mut out)
            .expect("fault-free shrunk reference cannot abort");
        if case.shape == Shape::RecoverPair {
            let len2 = case.len / 2 + 8;
            let input2 = rank_data(old, len2, case.seed ^ 0x5EED);
            let mut p2 = session.plan_allreduce_with(
                len2,
                ReduceOp::Sum,
                PlanOptions::new().algorithm(Algorithm::Ring),
            );
            let mut out2 = vec![0.0f32; len2];
            p2.try_execute_into(c, &input2, &mut out2)
                .expect("fault-free shrunk reference cannot abort");
            out.extend_from_slice(&out2);
        }
        out
    });
    let mut expected = vec![Vec::new(); case.world];
    for (new, &old) in survivors.iter().enumerate() {
        expected[old] = shrunk.results[new].clone();
    }
    expected
}

/// Run one chaos case: faulty run, reference run, classification.
pub fn run_chaos_case(case: ChaosCase) -> CaseResult {
    let cfg = SimConfig::new(case.world)
        .with_faults(case.mix.plan(case.seed, case.world))
        .with_fault_policy(case.mix.policy());
    let faulty = match SimWorld::new(cfg).try_run(move |c| match run_rank(c, case) {
        Ok((out, stats)) => (RankEnd::Done(out), stats),
        Err(e) => (RankEnd::Aborted(e), RankStats::default()),
    }) {
        Ok(out) => out,
        Err(e) => {
            // A deadlock under faults is exactly what the subsystem
            // exists to prevent: hard failure, fingerprint the report.
            return CaseResult {
                pass: false,
                outcome: format!("DEADLOCK: {e}"),
                fingerprint: fold(case.seed, 0xDEAD),
                completed: 0,
                aborted: 0,
                killed: 0,
                retries: 0,
                shrinks: 0,
                agreement_rounds: 0,
                stale_discarded: 0,
            };
        }
    };

    // The recover shapes are classified against the world the faulty
    // run actually shrank to, so the killed set comes first.
    let killed_ranks: Vec<usize> = faulty
        .results
        .iter()
        .enumerate()
        .filter(|(_, o)| o.is_killed())
        .map(|(r, _)| r)
        .collect();
    let expected = expected_outputs(case, &killed_ranks);

    let (mut completed, mut aborted, mut killed, mut retries) = (0usize, 0usize, 0usize, 0u64);
    let (mut shrinks, mut agreement_rounds, mut stale_discarded) = (0u64, 0u64, 0u64);
    let mut fp = case.seed ^ 0xC4A0_5C4A_05C4_A05C;
    let mut failure: Option<String> = None;
    for (rank, outcome) in faulty.results.iter().enumerate() {
        match outcome {
            RankOutcome::Killed => {
                killed += 1;
                fp = fold(fp, 4);
                if case.mix != FaultMix::Crash {
                    failure = Some(format!("rank {rank} killed outside a crash mix"));
                }
            }
            RankOutcome::Completed((RankEnd::Done(out), st)) => {
                completed += 1;
                retries += st.retries;
                shrinks += st.shrinks;
                agreement_rounds += st.agreement_rounds;
                stale_discarded += st.stale_discarded;
                fp = fold(fp, 1);
                for v in out {
                    fp = fold(fp, u64::from(v.to_bits()));
                }
                // Bcast non-root aborts elsewhere can leave this rank's
                // reference defined; output must still match bitwise.
                if *out != expected[rank] {
                    failure = Some(format!("rank {rank}: silent corruption"));
                }
            }
            RankOutcome::Completed((RankEnd::Aborted(e), _)) => {
                aborted += 1;
                fp = fold(fp, 2);
                if case.mix == FaultMix::Transient {
                    failure = Some(format!(
                        "rank {rank}: spurious abort under transient mix: {e}"
                    ));
                }
                // A recover shape promises every survivor *completes*
                // on the shrunk world — under its crash mix an abort
                // means the recovery flow failed, not the collective.
                if case.shape.recovers() && case.mix == FaultMix::Crash {
                    failure = Some(format!("rank {rank}: abort after recovery: {e}"));
                }
            }
            RankOutcome::Panicked(msg) => {
                fp = fold(fp, 3);
                failure = Some(format!("rank {rank} panicked: {msg}"));
            }
        }
    }
    fp = fold(fp, faulty.makespan.as_nanos() as u64);
    fp = fold(fp, faulty.lost_messages);

    let outcome = match &failure {
        Some(why) => format!("FAIL: {why}"),
        None if case.shape.recovers() && killed > 0 => format!("recovered({killed} dead)"),
        None if aborted > 0 => format!("clean-abort({aborted})"),
        // A crash whose op threshold lies past the end of the schedule
        // never fires: the run is equivalent to fault-free, which is a
        // valid outcome (the sweep-level summary still asserts kills
        // happen across the block).
        None if case.mix == FaultMix::Crash && killed == 0 => "completed(crash-late)".to_string(),
        None => "completed".to_string(),
    };
    CaseResult {
        pass: failure.is_none(),
        outcome,
        fingerprint: fp,
        completed,
        aborted,
        killed,
        retries,
        shrinks,
        agreement_rounds,
        stale_discarded,
    }
}

/// Fold `v` into hash state `h` (splitmix64 chain, same primitive the
/// fault plan itself draws decisions from).
fn fold(h: u64, v: u64) -> u64 {
    splitmix64(h ^ v.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}
