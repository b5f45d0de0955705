//! The eight collective kinds, one file each.
//!
//! A kind's file is the one place its schedules are declared: the
//! `SCHEDULES` table (what exists, and what `Auto` prices each row as),
//! `workspace` (what each row needs warmed), `machine` (what each row
//! runs) and `shrunk` (the shape after a rank died). Everything generic
//! over those — building, re-tuning and recovering a plan, and the whole
//! start → progress → complete lifecycle — is in [`crate::plan`]; adding
//! a schedule is one table row, one `workspace` arm and one `machine`
//! arm in one file.

mod allgather;
mod allreduce;
mod alltoall;
mod bcast;
mod gather;
mod reduce;
mod reduce_scatter;
mod scatter;

pub use allgather::{Allgather, AllgatherHandle, AllgatherPlan};
pub use allreduce::{Allreduce, AllreduceHandle, AllreducePlan};
pub use alltoall::{Alltoall, AlltoallHandle, AlltoallPlan};
pub use bcast::{Bcast, BcastHandle, BcastPlan};
pub use gather::{Gather, GatherHandle, GatherPlan};
pub use reduce::{Reduce, ReduceHandle, ReducePlan};
pub use reduce_scatter::{ReduceScatter, ReduceScatterHandle, ReduceScatterPlan};
pub use scatter::{Scatter, ScatterHandle, ScatterPlan};
