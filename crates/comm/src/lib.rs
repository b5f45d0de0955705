//! # ccoll-comm
//!
//! The message-passing substrate underneath the C-Coll reproduction.
//!
//! The paper runs on MPICH over a 128-node Omni-Path cluster. This crate
//! substitutes that substrate with two interchangeable backends behind one
//! [`Comm`] trait, so every collective algorithm in the `c-coll` crate is
//! written exactly once:
//!
//! * [`threaded::ThreadWorld`] — a *real* multi-threaded runtime: one OS
//!   thread per rank, mailbox-based point-to-point messaging with MPI-style
//!   `(source, context, tag)` matching and non-blocking send/receive
//!   handles. Used
//!   for correctness tests and small-scale wall-clock experiments.
//! * [`sim::SimWorld`] — a *deterministic virtual-time cluster simulator*.
//!   Ranks still run as threads executing the same algorithm code and
//!   moving real bytes, but exactly one rank runs at a time and all timing
//!   comes from a virtual clock driven by (a) an α–β network model and
//!   (b) explicit compute charges from a calibrated [`cost::CostModel`].
//!   This is what lets the paper's 128-node experiments reproduce,
//!   deterministically, on a laptop.
//!
//! The simulator also models the **MPI progress-engine semantics** that
//! the paper's overlap optimization exploits: a large-message transfer
//! only makes progress while its receiver is *inside the library* —
//! blocked in a wait, or executing a kernel that polls between chunks
//! (PIPE-SZx). A monolithic compression call does **not** progress
//! transfers. Without this distinction, the paper's Fig. 9 (ND vs
//! Overlap) would be unreproducible, because a fully autonomous network
//! would overlap everything for free.
//!
//! ## Time-breakdown profiling
//!
//! Every backend keeps a per-rank [`profile::Profiler`] that attributes
//! elapsed time to the categories the paper's breakdown figures use
//! (ComDecom, Allgather, Memcpy, Wait, Reduction, Others — Fig. 7).

#![warn(missing_docs)]

pub mod chaos;
pub mod comm;
pub mod cost;
pub(crate) mod hash;
pub mod pool;
pub mod profile;
pub mod recover;
pub mod sim;
pub mod taper;
pub mod threaded;
pub mod time;
pub mod topology;
pub mod view;

pub use chaos::{CommError, FaultPlan, FaultPolicy, KillSpec, MsgFault};
pub use comm::{Comm, Ctx, RecvReq, SendReq, Tag};
pub use cost::{CostModel, Kernel, SchedParams, Schedule, PIPE_CHUNK_BYTES};
pub use pool::PayloadPool;
pub use profile::{Category, FaultCounters, Profiler, TimeBreakdown, TrafficStats};
pub use recover::{agree_on_failures, Agreement, DeadSet, MAX_RECOVERY_WORLD};
pub use sim::{
    DeadlockReport, NetModel, RankOutcome, SimConfig, SimError, SimRunOutput, SimWorld,
    UndeliveredMsg, WaitEdge,
};
pub use taper::{Cut, Taper};
pub use threaded::ThreadWorld;
pub use time::SimTime;
pub use topology::{ClusterNet, HierNet, Topology};
pub use view::CommView;
