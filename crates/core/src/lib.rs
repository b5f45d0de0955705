//! # c-coll
//!
//! **C-Coll**: an error-controlled, lossy-compression-integrated collective
//! communication framework — a from-scratch Rust reproduction of
//! *An Optimized Error-controlled MPI Collective Framework Integrated with
//! Lossy Compression* (Huang et al., IPDPS 2024).
//!
//! ## What the paper contributes, and where it lives here
//!
//! | Paper contribution | Module |
//! |---|---|
//! | Collective **data-movement** framework: compress once, relay compressed bytes through every round, decompress once (§III-A1) | [`frameworks::data_movement`] (design), [`nonblocking`] (machines) |
//! | Collective **computation** framework: pipeline chunk-wise compression with communication so transfers hide inside the kernel (§III-A2, §III-E2) | [`frameworks::computation`] (design), [`nonblocking`] (machines) |
//! | Session + persistent-plan API (`MPI_Allreduce_init` shape): the `plan_*` constructors of C-Allreduce / C-Scatter / C-Bcast and the rest, with zero steady-state allocations | [`session`] |
//! | The eight collective kinds, one file each: a kind's schedule table, the workspace each schedule needs, its machine and its shape on a shrunk world | `kinds/` (named through [`plan`]) |
//! | One plan lifecycle — build, start, progress, complete, poison, reset, re-tune, recover — that every collective kind plugs into | [`plan`] |
//! | Every schedule, once: resumable state machines, one file per schedule family, that `execute_into` drives to completion and `start`/`progress`/`complete` (`MPI_Iallreduce` shape) suspends | [`nonblocking`] |
//! | Multi-algorithm schedule layer (recursive doubling, Rabenseifner, Bruck, binomial reduce): the `Algorithm` names and the cost-model pricing `Auto` selects with | [`algorithm`] |
//! | CPR-P2P baselines (compress every send, decompress every receive) | [`collectives::cpr_p2p`] |
//! | The uncompressed MPI-style collectives, which are the plans of a [`CodecSpec::None`] session: the tests of the raw placements | [`collectives::baseline`] |
//! | Error-propagation theory: Theorems 1–2 and corollaries (§III-B) | [`theory`] |
//!
//! ## Quick start
//!
//! Create one [`CCollSession`] per rank (the codec is built exactly
//! once), then a *persistent plan* per repeated collective shape.
//! `execute_into` writes into a caller-provided buffer and reaches a
//! **zero-allocation steady state** after its first call — the shape
//! ML training loops and iterative solvers want:
//!
//! ```
//! use c_coll::{CCollSession, CodecSpec, ReduceOp};
//! use ccoll_comm::{SimWorld, SimConfig, Comm};
//!
//! // An 8-node virtual cluster; each node holds a 40k-value buffer.
//! let n = 8;
//! let len = 40_000;
//! let world = SimWorld::new(SimConfig::new(n));
//! let out = world.run(move |comm| {
//!     let session = CCollSession::new(CodecSpec::Szx { error_bound: 1e-3 }, n);
//!     let mut plan = session.plan_allreduce(len, ReduceOp::Sum);
//!     let mut result = vec![0.0f32; len];
//!     for step in 0..3 {
//!         let data: Vec<f32> = (0..len)
//!             .map(|i| ((i + comm.rank() * 7 + step) as f32 * 1e-3).sin())
//!             .collect();
//!         // Same shape every step: every buffer (codec scratch, payload
//!         // pool, accumulator, output) is reused — no allocation.
//!         plan.execute_into(comm, &data, &mut result);
//!     }
//!     result
//! });
//! // Every rank holds the (error-bounded) global sum.
//! assert_eq!(out.results.len(), 8);
//! assert_eq!(out.results[0].len(), 40_000);
//! ```
//!
//! ## Overlapping compute with a collective
//!
//! Every plan also exposes the `MPI_Iallreduce` shape:
//! [`AllreducePlan::start`](session::AllreducePlan::start) returns a
//! handle that borrows the plan exclusively (one outstanding operation
//! per plan, enforced by the borrow checker). `progress` never blocks —
//! it performs a bounded slice of collective work and suspends at the
//! first incomplete transfer — so application compute can run while
//! sub-chunks are on the wire; `complete` drains the residual tail the
//! compute could not hide. Results are bitwise identical to
//! `execute_into`, and the whole cycle stays allocation-free:
//!
//! ```
//! use c_coll::{CCollSession, CodecSpec, Poll, ReduceOp};
//! use ccoll_comm::{Category, Comm, SimConfig, SimWorld};
//! use std::time::Duration;
//!
//! let n = 4;
//! let len = 30_000;
//! let world = SimWorld::new(SimConfig::new(n));
//! let out = world.run(move |comm| {
//!     let session = CCollSession::new(CodecSpec::Szx { error_bound: 1e-3 }, n);
//!     let mut plan = session.plan_allreduce(len, ReduceOp::Sum);
//!     let grad: Vec<f32> = (0..len).map(|i| (i as f32 * 1e-3).sin()).collect();
//!     let mut avg = vec![0.0f32; len];
//!     // Start the allreduce, then interleave slices of "application
//!     // compute" (virtual time on the simulator) with progress polls.
//!     let mut handle = plan.start(comm, &grad, &mut avg);
//!     for _slice in 0..16 {
//!         comm.charge_duration(Duration::from_micros(50), Category::Others);
//!         if let Poll::Ready = handle.progress(comm) {
//!             break; // collective finished under the compute
//!         }
//!     }
//!     handle.complete(comm); // blocking drain of whatever remains
//!     avg[0]
//! });
//! assert_eq!(out.results.len(), n);
//! ```
//!
//! ## Driving many collectives at once
//!
//! A training step rarely has just one collective in flight: gradient
//! buckets become ready one after another, and each wants its
//! allreduce started immediately while later buckets are still being
//! computed. Handles on *different* plans can be live simultaneously
//! (each operation's traffic travels in a context of its own),
//! and the [`engine::ProgressEngine`] drives them all from one place:
//! each [`progress`](engine::ProgressEngine::progress) call is one
//! bounded, fair pass — every live operation gets one nonblocking work
//! slice — so no bucket starves and no call blocks:
//!
//! ```
//! use c_coll::engine::ProgressEngine;
//! use c_coll::{CCollSession, CodecSpec, ReduceOp};
//! use ccoll_comm::{Category, Comm, SimConfig, SimWorld};
//! use std::time::Duration;
//!
//! let n = 4;
//! let bucket = 10_000;
//! let world = SimWorld::new(SimConfig::new(n));
//! let out = world.run(move |comm| {
//!     let session = CCollSession::new(CodecSpec::Szx { error_bound: 1e-3 }, n);
//!     // One plan per gradient bucket, created in the same order on
//!     // every rank (the usual collective-call discipline).
//!     let mut plans: Vec<_> = (0..3)
//!         .map(|_| session.plan_allreduce(bucket, ReduceOp::Sum))
//!         .collect();
//!     let grads: Vec<Vec<f32>> = (0..3)
//!         .map(|b| (0..bucket).map(|i| ((i + b) as f32 * 1e-3).sin()).collect())
//!         .collect();
//!     let mut avgs: Vec<Vec<f32>> = vec![vec![0.0f32; bucket]; 3];
//!     let mut engine = ProgressEngine::new();
//!     for ((plan, grad), avg) in plans.iter_mut().zip(&grads).zip(&mut avgs) {
//!         // Backward pass produces this bucket's gradients…
//!         comm.charge_duration(Duration::from_micros(80), Category::Others);
//!         // …and its allreduce joins the in-flight set immediately,
//!         // progressing alongside every earlier bucket.
//!         engine.submit(plan.start(comm, grad, avg));
//!         engine.progress(comm);
//!     }
//!     engine.wait_all(comm); // drain whatever compute could not hide
//!     assert_eq!(engine.live_ops(), 0);
//!     drop(engine);
//!     avgs.into_iter().map(|a| a[0]).collect::<Vec<_>>()
//! });
//! assert_eq!(out.results.len(), n);
//! ```
//!
//! ## Choosing an algorithm
//!
//! The plain `plan_*` constructors run the paper's schedules (ring
//! allreduce/allgather, binomial tree for the rooted collectives). But
//! no single schedule is uniformly best: a ring pays `n−1` latency
//! terms where a butterfly pays `⌈log₂n⌉`, and compression shifts the
//! crossover further because butterfly schedules re-compress the full
//! payload every round. The `plan_*_with` constructors accept a
//! [`PlanOptions`] selecting an explicit [`Algorithm`] — or
//! [`Algorithm::Auto`] (the default), which ranks every candidate
//! schedule with the closed-form cost model
//! ([`ccoll_comm::CostModel::estimate`]) and picks the minimum:
//!
//! ```
//! use c_coll::{Algorithm, CCollSession, CodecSpec, PlanOptions, ReduceOp};
//!
//! let session = CCollSession::new(CodecSpec::Szx { error_bound: 1e-3 }, 16);
//! // Explicit choice:
//! let rd = session.plan_allreduce_with(
//!     1000,
//!     ReduceOp::Sum,
//!     PlanOptions::new().algorithm(Algorithm::RecursiveDoubling),
//! );
//! assert_eq!(rd.algorithm(), Algorithm::RecursiveDoubling);
//! // Cost-model-driven choice: small payloads resolve to the
//! // latency-optimal butterfly, large ones to a bandwidth-optimal
//! // schedule (ring or Rabenseifner).
//! let auto = session.plan_allreduce_with(128, ReduceOp::Sum, PlanOptions::new());
//! assert_eq!(auto.algorithm(), Algorithm::RecursiveDoubling);
//! let auto = session.plan_allreduce_with(4_000_000, ReduceOp::Sum, PlanOptions::new());
//! assert!(matches!(auto.algorithm(), Algorithm::Ring | Algorithm::Rabenseifner));
//! ```
//!
//! Rules of thumb (see DESIGN.md for the selection-flow details and
//! `BENCH_algo.json` for measured crossovers):
//!
//! * **Allreduce** — `RecursiveDoubling` below a few KB per rank,
//!   `Ring` (the paper's pipelined C-Allreduce) for large payloads,
//!   `Rabenseifner` in between and on slow-codec configurations.
//! * **Allgather** — `Bruck` for small blocks (`⌈log₂n⌉` steps),
//!   `Ring` for large ones; both are compress-once, so the
//!   single-compression error bound holds either way.
//! * **Rooted reduce** — `Binomial` tree for small payloads,
//!   `Rabenseifner` (reduce-scatter + gather) for large ones.
//! * Pass a calibrated model (`ccoll_bench::calibrate_cost_model`) via
//!   [`CCollSession::with_cost_model`] to select for *your* kernels
//!   rather than the paper's Table-I testbed.
//!
//! ## Topology quick start
//!
//! Flat schedules price every hop the same; real clusters don't. Attach
//! a [`ccoll_comm::Topology`] (ranks → node mapping) and a two-level
//! [`ccoll_comm::HierNet`] (intra-node vs inter-node α/β) with
//! [`CCollSession::with_topology`], and two things change. First,
//! `Auto` prices candidates against the *cluster*: flat butterflies pay
//! the contended inter-node bandwidth, and the two-level
//! [`Algorithm::Hierarchical`] schedule — node-local reduce, an exchange
//! across the slow fabric by a few lane owners per node (one leader, at
//! small payloads), local fan-out — joins the candidate set. Second, the session starts a continuous α–β calibration loop:
//! every few executions it compares the plan's measured EWMA makespan
//! against the model's prediction, agrees a correction across all ranks
//! (so no rank ever diverges on a pick), and re-ranks `Auto` plans in
//! place — all without leaving the zero-allocation steady state:
//!
//! ```
//! use c_coll::{Algorithm, CCollSession, CodecSpec, PlanOptions, ReduceOp};
//! use ccoll_comm::{Comm, HierNet, SimConfig, SimWorld, Topology};
//!
//! // Selection is rank-free: on a modeled 8-node × 16-rank cluster, a
//! // large Auto allreduce resolves to the two-level schedule.
//! let session = CCollSession::new(CodecSpec::Szx { error_bound: 1e-3 }, 128)
//!     .with_topology(Topology::uniform(8, 16), HierNet::cluster_default());
//! let plan = session.plan_allreduce_with(16_384, ReduceOp::Sum, PlanOptions::new());
//! assert_eq!(plan.algorithm(), Algorithm::Hierarchical);
//!
//! // Execution: an asymmetric 3-node cluster (2 + 3 + 1 ranks). With a
//! // lossless codec the hierarchical result is bit-identical to the
//! // flat ring's — the reduction just takes the two-level tree.
//! let n = 6;
//! let len = 512;
//! let world = SimWorld::new(SimConfig::new(n));
//! let out = world.run(move |comm| {
//!     let session = CCollSession::new(CodecSpec::None, n)
//!         .with_topology(Topology::from_node_sizes(&[2, 3, 1]), HierNet::cluster_default());
//!     let mut hier = session.plan_allreduce_with(
//!         len,
//!         ReduceOp::Sum,
//!         PlanOptions::new().algorithm(Algorithm::Hierarchical),
//!     );
//!     let mut ring = session.plan_allreduce_with(
//!         len,
//!         ReduceOp::Sum,
//!         PlanOptions::new().algorithm(Algorithm::Ring),
//!     );
//!     // Small integers: cross-rank sums are exact in f32, so every
//!     // reduction order produces the same bits.
//!     let input: Vec<f32> = (0..len).map(|i| ((i + comm.rank()) % 7) as f32).collect();
//!     (hier.execute(comm, &input), ring.execute(comm, &input))
//! });
//! for (hier, ring) in &out.results {
//!     assert_eq!(hier, ring);
//! }
//! ```
//!
//! The online correction is observable through
//! [`CCollSession::net_calibration`] (the current α/β scale factors,
//! `(1.0, 1.0)` until the first correction lands); `BENCH_scale.json`
//! (the `fig_scale` harness) records where the flat→hierarchical
//! crossover sits on worlds of 128–1024 ranks, and DESIGN.md's
//! "Topology & online calibration" section walks the data flow.
//!
//! ## Surviving faults: seeded chaos + fallible collectives
//!
//! The simulator can inject a deterministic fault schedule — transient
//! drops (retransmitted), permanent loss, delays, duplicates, stalls,
//! rank crashes — from a single seed
//! ([`ccoll_comm::FaultPlan`]), and a [`ccoll_comm::FaultPolicy`] on
//! the communicator gives every blocking hop a timeout and a bounded
//! retry budget. Transient faults are absorbed without changing a
//! single output bit (retries change timing, never data);
//! unrecoverable faults abort *cleanly*: the fallible surface
//! ([`AllreducePlan::try_execute_into`](session::AllreducePlan::try_execute_into),
//! [`AllreduceHandle::try_progress`](session::AllreduceHandle::try_progress),
//! `try_complete` — every plan and handle type has them) returns a
//! structured [`CollectiveError`] and *poisons* the plan (no hang, no
//! corrupted-buffer reuse) until [`reset()`](session::AllreducePlan::reset):
//!
//! ```
//! use c_coll::{Algorithm, CCollSession, CodecSpec, PlanOptions, ReduceOp};
//! use ccoll_comm::{Comm, FaultPlan, FaultPolicy, SimConfig, SimWorld};
//! use std::time::Duration;
//!
//! let n = 4;
//! let len = 1000;
//! // Seed 9: every message has a 30% chance of a transient drop; the
//! // policy's timeout + retries absorb them. Same seed, same faults,
//! // same outcome — forever.
//! let cfg = SimConfig::new(n)
//!     .with_faults(FaultPlan::seeded(9).with_drops(0.3, Duration::from_micros(300), 4))
//!     .with_fault_policy(FaultPolicy::with_timeout(Duration::from_millis(2), 16));
//! let out = SimWorld::new(cfg).run(move |comm| {
//!     let session = CCollSession::new(CodecSpec::None, n);
//!     // Chaos runs pin an explicit schedule (Auto's re-rank agreement
//!     // is outside the fault policy's reach).
//!     let mut plan = session.plan_allreduce_with(
//!         len,
//!         ReduceOp::Sum,
//!         PlanOptions::new().algorithm(Algorithm::Ring),
//!     );
//!     let input = vec![comm.rank() as f32; len];
//!     let mut result = vec![0.0f32; len];
//!     plan.try_execute_into(comm, &input, &mut result)
//!         .expect("transient drops are absorbed by retries");
//!     (result[0], plan.stats().retries)
//! });
//! // Bitwise-exact despite the drops: 0+1+2+3.
//! assert!(out.results.iter().all(|r| r.0 == 6.0));
//! ```
//!
//! Fault-free behaviour is untouched: with no policy configured
//! (`FaultPolicy::NONE`, the default) every code path is bit-for-bit
//! what it was before the chaos subsystem existed. The `chaos_sweep`
//! bench harness sweeps seeds × schedules × codecs × fault mixes and
//! replays a pinned regression corpus in CI; see DESIGN.md's "Fault
//! model & deterministic chaos".
//!
//! ## Recover and continue after a rank dies
//!
//! A clean abort is only half the story: when a rank is *permanently*
//! dead, the survivors can agree on who died
//! ([`CCollSession::recover`] runs a coordinator-based survivor
//! agreement), shrink the world (a [`Recovery`] densely re-ranks the
//! survivors and puts every message in a new epoch), re-plan their
//! collectives in place ([`AllreducePlan::recover`](session::AllreducePlan::recover)
//! reuses the plan's buffers), and resume on the shrunk communicator.
//! The dead rank's contribution is gone — survivors re-contribute and
//! complete bitwise-equal to a fault-free run on the smaller world:
//!
//! ```
//! use c_coll::{Algorithm, CCollSession, CodecSpec, CollectiveError, PlanOptions, ReduceOp};
//! use ccoll_comm::{Comm, CommError, FaultPlan, FaultPolicy, RankOutcome, SimConfig, SimWorld};
//! use std::time::Duration;
//!
//! let n = 4;
//! let len = 48;
//! let victim = 2;
//! // Seed a permanent rank death mid-collective; the policy bounds
//! // every hop so survivors abort instead of hanging.
//! let cfg = SimConfig::new(n)
//!     .with_faults(FaultPlan::seeded(7).with_kill(victim, 2))
//!     .with_fault_policy(FaultPolicy::with_timeout(Duration::from_millis(1), 2));
//! let out = SimWorld::new(cfg)
//!     .try_run(move |comm| {
//!         let session = CCollSession::new(CodecSpec::None, n);
//!         let mut plan = session.plan_allreduce_with(
//!             len,
//!             ReduceOp::Sum,
//!             PlanOptions::new().algorithm(Algorithm::Ring),
//!         );
//!         let input = vec![comm.rank() as f32; len];
//!         let mut out = vec![0.0f32; len];
//!         // Phase 1 aborts on the survivors when the victim dies.
//!         let (suspects, restart) = match plan.try_execute_into(comm, &input, &mut out) {
//!             Ok(()) => (Vec::new(), false),
//!             Err(CollectiveError::Comm(CommError::PeerDead { peer })) => (vec![peer], true),
//!             // Timeouts alone are congestion, not proof of death: pass
//!             // no suspects and let the liveness scan name the victim.
//!             Err(_) => (Vec::new(), true),
//!         };
//!         // Survivor agreement: every live rank converges on the SAME
//!         // dead-set (and on whether anyone needs a restart).
//!         let r = session.recover(comm, &suspects, restart).expect("agreement converges");
//!         assert!(r.dead().contains(victim));
//!         plan.recover(&r).expect("re-plan for the shrunk world");
//!         let mut sc = r.comm(comm).expect("survivor side of the shrink");
//!         plan.try_execute_into(&mut sc, &input, &mut out)
//!             .expect("resume on the survivors");
//!         out[0]
//!     })
//!     .expect("no deadlock");
//! // Survivors hold the shrunk-world sum 0 + 1 + 3 — rank 2's data died with it.
//! for (rank, outcome) in out.results.iter().enumerate() {
//!     match outcome {
//!         RankOutcome::Completed(sum) => assert_eq!(*sum, 4.0),
//!         RankOutcome::Killed => assert_eq!(rank, victim),
//!         RankOutcome::Panicked(m) => panic!("rank {rank}: {m}"),
//!     }
//! }
//! ```
//!
//! After recovery the zero-allocation steady state re-establishes
//! itself on the shrunk communicator (the `collective_alloc` audit
//! pins this), and the session's [`SessionStats`] report the shrink
//! and agreement-round counts. See DESIGN.md's "Recovery &
//! communicator shrink" for the protocol and the tag-epoch layout.

#![warn(missing_docs)]

pub mod algorithm;
pub mod codec;
pub mod collectives;
pub mod engine;
pub mod frameworks;
pub(crate) mod kinds;
pub mod nonblocking;
pub mod partition;
pub(crate) mod pipeline;
pub(crate) mod placement;
pub mod plan;
pub mod reduce;
pub mod session;
#[cfg(test)]
pub(crate) mod testing;
pub mod theory;
pub mod wire;
pub mod workspace;

pub use algorithm::{Algorithm, AllreduceVariant, PlanOptions};
pub use codec::{CodecSpec, ParseCodecSpecError};
pub use engine::{AnyHandle, OpId, ProgressEngine};
pub use nonblocking::Poll;
pub use reduce::ReduceOp;
pub use session::{
    AllgatherHandle, AllgatherPlan, AllreduceHandle, AllreducePlan, AlltoallHandle, AlltoallPlan,
    BcastHandle, BcastPlan, CCollSession, CollectiveError, GatherHandle, GatherPlan, PlanStats,
    Recovery, ReduceHandle, ReducePlan, ReduceScatterHandle, ReduceScatterPlan, ScatterHandle,
    ScatterPlan, SessionStats,
};
pub use workspace::CollWorkspace;
