//! Benchmark-harness support library: workload sizing, cost-model
//! calibration from the real Rust kernels, experiment runners and table
//! printing. Every `src/bin/*` harness (one per paper table/figure) is a
//! thin composition of these pieces.

pub mod calibrate;
pub mod chaos;
pub mod characterize;
pub mod check;
pub mod runner;
pub mod specs;
pub mod table;
pub mod workload;

pub use calibrate::calibrate_cost_model;
pub use chaos::{run_chaos_case, CaseResult, ChaosCase, FaultMix, Shape};
pub use runner::{
    run_allreduce, run_allreduce_cluster, run_allreduce_overlap, run_allreduce_steady,
    run_bucketed_allreduce, ConcurrentResult, ExperimentResult, OverlapResult,
};
pub use workload::Scale;
