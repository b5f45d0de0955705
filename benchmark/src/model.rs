//! The model pass: the workload on `SimWorld`, where virtual time, bytes,
//! messages and error repeat exactly from run to run. The pass also
//! clocks the simulator itself — for the simulator-hosted workload that
//! wall time *is* the host time.

use std::sync::Arc;
use std::time::{Duration, Instant};

use c_coll::{Algorithm, CodecSpec};
use ccoll_comm::{Comm, CostModel, NetModel, SchedParams, Schedule, SimWorld};

use crate::alloc::thread_counters;
use crate::oracle::{bits_digest, Inputs, Oracle};
use crate::procfs::thread_voluntary_switches;
use crate::rig::{cluster, sim_config, Rig};
use crate::spec::{Shape, Workload};

/// Which executions are the cold window and how many run in all.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    /// Executions `1..=cold` are the cold window.
    pub cold: usize,
    /// Executions `cold+1..=total` are the steady window.
    pub total: usize,
}

/// What one model pass measured. Everything above `op_wall_ms` is exact.
#[derive(Debug, Clone)]
pub struct ModelResult {
    /// Mean virtual makespan of the steady window's executions, ms.
    pub virt_ms_per_op: f64,
    /// Summed virtual makespan of the cold window, ms.
    pub virt_ms_cold: f64,
    /// Bytes sent by all ranks per steady execution, MB.
    pub wire_mb_per_op: f64,
    /// Messages sent by all ranks per steady execution.
    pub msgs_per_op: f64,
    /// Largest error ÷ bound over every element of every execution.
    pub err_over_bound: f64,
    /// Executions checked and executions that failed the check.
    pub attempted: u64,
    /// See `attempted`.
    pub failed: u64,
    /// Heap allocations per steady execution, summed over ranks.
    pub allocs_per_op: f64,
    /// Schedule the plan ran last, and how often it changed on the way.
    pub pick: Algorithm,
    /// See `pick`.
    pub switches: u32,
    /// Compression ratio rank 0's plan measured on its last execution.
    pub observed_ratio: Option<f64>,
    /// Wall time of every execution as rank 0 saw it complete, ms; the
    /// result check is inside, the hook is not.
    pub op_wall_ms: Vec<f64>,
    /// Voluntary context switches of all rank threads per steady
    /// execution: the clock hand-offs a threadless driver would remove.
    pub ctx_switches_per_op: f64,
}

impl ModelResult {
    /// Turn this pass's exact metrics into their mean over this pass and
    /// `others` (the workload's further input sets); checks are summed.
    /// The simulator's own clocking stays this pass's.
    pub fn average_exact_with(&mut self, others: &[ModelResult]) {
        let n = (1 + others.len()) as f64;
        let mean = |first: f64, f: fn(&ModelResult) -> f64| {
            (first + others.iter().map(f).sum::<f64>()) / n
        };
        self.virt_ms_per_op = mean(self.virt_ms_per_op, |m| m.virt_ms_per_op);
        self.virt_ms_cold = mean(self.virt_ms_cold, |m| m.virt_ms_cold);
        self.wire_mb_per_op = mean(self.wire_mb_per_op, |m| m.wire_mb_per_op);
        self.msgs_per_op = mean(self.msgs_per_op, |m| m.msgs_per_op);
        self.err_over_bound = mean(self.err_over_bound, |m| m.err_over_bound);
        self.allocs_per_op = mean(self.allocs_per_op, |m| m.allocs_per_op);
        self.attempted += others.iter().map(|m| m.attempted).sum::<u64>();
        self.failed += others.iter().map(|m| m.failed).sum::<u64>();
    }

    /// The exact part of the result, for comparing two passes.
    pub fn exact(&self) -> (u64, u64, u64, u64, u64, u64, u64, Algorithm, u32) {
        (
            self.virt_ms_per_op.to_bits(),
            self.virt_ms_cold.to_bits(),
            self.wire_mb_per_op.to_bits(),
            self.msgs_per_op.to_bits(),
            self.err_over_bound.to_bits(),
            self.attempted,
            self.failed,
            self.pick,
            self.switches,
        )
    }
}

/// One rank's record of one execution.
#[derive(Clone, Copy)]
struct Exec {
    end_virt_ns: u64,
    msgs: u64,
    bytes: u64,
    algorithm: Algorithm,
    digest: u64,
    err: f64,
    wall: Duration,
}

struct RankLog {
    execs: Vec<Exec>,
    steady_allocs: u64,
    steady_switches: u64,
    observed_ratio: Option<f64>,
}

/// Called on rank 0 after execution `k` (1-based), outside the timing.
pub type Hook = Arc<dyn Fn(usize) + Send + Sync>;

/// Run `window.total` executions of `w` back to back on its model world
/// and check every one. `pin` replaces the workload's algorithm.
pub fn model_pass(
    w: &Workload,
    inputs: &Arc<Inputs>,
    oracle: &Arc<Oracle>,
    pin: Option<Algorithm>,
    window: Window,
    hook: Option<Hook>,
) -> ModelResult {
    let w = *w;
    let world = w.model_world;
    let (inputs, oracle) = (Arc::clone(inputs), Arc::clone(oracle));
    let out = SimWorld::new(sim_config(&w, world)).run(move |comm| {
        let input = &inputs.per_rank[comm.rank()];
        let mut rig = Rig::build(&w, world, pin);
        let mut execs: Vec<Exec> = Vec::with_capacity(window.total);
        // Counted around the executions only: the hook runs on rank 0's
        // thread and allocates and sleeps on its own account.
        let mut steady_allocs = 0;
        let mut switches_baseline = 0;
        // Identical bits have identical error: only a result whose digest
        // differs from the previous one is compared element by element.
        let mut last = (0u64, f64::NAN);
        let mut resumed = Instant::now();
        for k in 1..=window.total {
            let allocs_before = thread_counters().0;
            rig.exec(comm, input);
            if k > window.cold {
                steady_allocs += thread_counters().0 - allocs_before;
            }
            let traffic = comm.profiler().traffic();
            let digest = bits_digest(rig.out());
            if last.1.is_nan() || digest != last.0 {
                last = (digest, oracle.err_over_bound(rig.out()));
            }
            execs.push(Exec {
                end_virt_ns: comm.now().as_nanos(),
                msgs: traffic.messages_sent,
                bytes: traffic.bytes_sent,
                algorithm: rig.algorithm(),
                digest,
                err: last.1,
                wall: resumed.elapsed(),
            });
            if k == window.cold {
                switches_baseline = thread_voluntary_switches();
            }
            if let (0, Some(hook)) = (comm.rank(), &hook) {
                let before = thread_voluntary_switches();
                hook(k);
                if k >= window.cold {
                    switches_baseline += thread_voluntary_switches() - before;
                }
            }
            resumed = Instant::now();
        }
        RankLog {
            execs,
            steady_allocs,
            steady_switches: thread_voluntary_switches() - switches_baseline,
            observed_ratio: rig.stats().observed_ratio,
        }
    });
    let logs = out.results;
    let steady = (window.total - window.cold) as f64;
    let at = |k: usize| logs.iter().map(move |l| l.execs[k - 1]);
    let makespan_ns = |k: usize| at(k).map(|e| e.end_virt_ns).max().unwrap_or(0);
    let sent = |k: usize| at(k).fold((0u64, 0u64), |(m, b), e| (m + e.msgs, b + e.bytes));
    let (msgs_cold, bytes_cold) = sent(window.cold);
    let (msgs_end, bytes_end) = sent(window.total);
    // The uncompressed allreduce leaves the same bits on every rank. A
    // lossy collective does not: each rank keeps its own block exact and
    // holds everyone else's decompressed, so there only the bound applies.
    let same_bits_everywhere = w.codec == CodecSpec::None;
    let mut failed = 0;
    let mut worst = 0.0f64;
    for k in 1..=window.total {
        let err = at(k).map(|e| e.err).fold(0.0, f64::max);
        let digest = logs[0].execs[k - 1].digest;
        let agree = !same_bits_everywhere || at(k).all(|e| e.digest == digest);
        if err > 1.0 || !agree {
            failed += 1;
        }
        worst = worst.max(err);
    }
    let picks = || logs[0].execs.iter().map(|e| e.algorithm);
    ModelResult {
        virt_ms_per_op: (makespan_ns(window.total) - makespan_ns(window.cold)) as f64
            / 1e6
            / steady,
        virt_ms_cold: makespan_ns(window.cold) as f64 / 1e6,
        wire_mb_per_op: (bytes_end - bytes_cold) as f64 / 1e6 / steady,
        msgs_per_op: (msgs_end - msgs_cold) as f64 / steady,
        err_over_bound: worst,
        attempted: window.total as u64,
        failed,
        allocs_per_op: logs.iter().map(|l| l.steady_allocs).sum::<u64>() as f64 / steady,
        pick: logs[0].execs[window.total - 1].algorithm,
        switches: picks().zip(picks().skip(1)).filter(|(a, b)| a != b).count() as u32,
        observed_ratio: logs[0].observed_ratio,
        op_wall_ms: logs[0]
            .execs
            .iter()
            .map(|e| e.wall.as_secs_f64() * 1e3)
            .collect(),
        ctx_switches_per_op: logs.iter().map(|l| l.steady_switches).sum::<u64>() as f64 / steady,
    }
}

/// The cost-model schedule a resolved allreduce algorithm executes.
fn allreduce_schedule(a: Algorithm) -> Schedule {
    match a {
        Algorithm::RecursiveDoubling => Schedule::RecursiveDoublingAllreduce,
        Algorithm::Rabenseifner => Schedule::RabenseifnerAllreduce,
        Algorithm::Hierarchical => Schedule::HierarchicalAllreduce,
        _ => Schedule::RingAllreduce,
    }
}

/// `CostModel::estimate` (or `estimate_hier_sized` where the workload has
/// a cluster) for one operation of `w` running `algorithm` on its model
/// world, in virtual ms: default models, and `ratio` (the compression
/// ratio the model pass observed) in place of the codec's nominal one.
/// The bucket workload is priced as its plans run one after another.
pub fn predicted_ms(w: &Workload, algorithm: Algorithm, ratio: Option<f64>) -> f64 {
    let cost = CostModel::default();
    let (plans, plan_len, schedule) = match w.shape {
        Shape::Bcast => (1, w.len, Schedule::BinomialTreeBcast),
        Shape::Buckets { buckets } => (buckets, w.len / buckets, Schedule::RingAllreduce),
        _ => (1, w.len, allreduce_schedule(algorithm)),
    };
    let params = match w.codec {
        CodecSpec::None => SchedParams::uncompressed(w.model_world, plan_len * 4),
        spec => {
            let (ck, dk) = spec.kernels();
            SchedParams {
                world: w.model_world,
                payload_bytes: plan_len * 4,
                compress_tput: cost.throughput(ck),
                decompress_tput: cost.throughput(dk),
                ratio: ratio.unwrap_or_else(|| spec.nominal_ratio()),
                pipelined: spec.error_bound().is_some(),
            }
        }
    };
    let one = match cluster(w) {
        Some(c) => cost.estimate_hier_sized(
            schedule,
            c.topo.nodes(),
            c.topo.max_node_size(),
            &c.net,
            &params,
        ),
        None => cost.estimate(schedule, &NetModel::default(), &params),
    };
    one.as_secs_f64() * 1e3 * plans as f64
}
