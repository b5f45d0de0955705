//! The host pass: the workload on `ThreadWorld` with two ranks, wall
//! clock. A closed loop — every rank starts its next operation only
//! after the previous one completed everywhere — in which every sample
//! is timed from a common barrier to the last rank's completion, with a
//! fixed canary kernel (and, in the traced run, whole cold starts) spread
//! through the run.

use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ccoll_comm::threaded::ThreadComm;
use ccoll_comm::{Category, Comm, SimWorld, ThreadWorld, TimeBreakdown};

use crate::alloc::thread_counters;
use crate::oracle::{bits_digest, Inputs, Oracle};
use crate::procfs::ThreadCpuClock;
use crate::rig::{sim_config, spans_per_op, Rig};
use crate::spec::Workload;
use crate::stats::batch_ms_per_op;
use crate::trace::RankTrace;

/// Operations before the first timed sample: the cold window of the
/// model pass, so every timed operation is a steady-state one.
const WARMUP_OPS: usize = crate::spec::COLD_EXECS;
/// Every this many operations each rank checks its result.
const CHECK_EVERY: usize = 64;
/// The canary kernel is sampled this often.
const CANARY_PERIOD: Duration = Duration::from_millis(250);
/// Whole cold starts (fresh world, first execution) a traced run takes.
const COLD_STARTS: usize = 10;
/// A pass that is cut short still takes this many samples.
const MIN_SAMPLES: usize = 32;
/// Most operations a traced pass records (bounds the span buffers).
const TRACED_OPS_CAP: usize = 16_384;

/// A barrier that spins: both ranks leave within nanoseconds of each
/// other, where a condvar barrier's second waker trails by a scheduler
/// wake-up. Only ever waited on by as many threads as the machine has
/// cores; after 20 000 spins a waiter yields so an oversubscribed box
/// still makes progress.
pub struct SpinBarrier {
    ranks: usize,
    arrived: AtomicUsize,
    generation: AtomicUsize,
}

impl SpinBarrier {
    /// A barrier for `ranks` threads.
    pub fn new(ranks: usize) -> Self {
        SpinBarrier {
            ranks,
            arrived: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
        }
    }

    /// Block until all `ranks` threads have called `wait`.
    pub fn wait(&self) {
        let generation = self.generation.load(Ordering::SeqCst);
        if self.arrived.fetch_add(1, Ordering::SeqCst) + 1 == self.ranks {
            // Reset before release: a waiter re-enters only after it has
            // seen the new generation.
            self.arrived.store(0, Ordering::SeqCst);
            self.generation.store(generation + 1, Ordering::SeqCst);
        } else {
            let mut spins = 0u32;
            while self.generation.load(Ordering::SeqCst) == generation {
                spins += 1;
                if spins < 20_000 {
                    std::hint::spin_loop();
                } else {
                    std::thread::yield_now();
                }
            }
        }
    }
}

/// The buffer [`canary_ms`] sums: 2 MiB, L2-resident.
pub fn canary_buffer() -> Vec<u64> {
    (0..(2 << 20) / 8).collect()
}

/// A fixed, benchmark-owned kernel: the wrapping sum of `buffer`, eight
/// times over (wide loads and adds — throughput-bound like the codec
/// kernels, which is what a busy hyperthread sibling slows). Its time
/// only changes when the machine does, so its samples show how contended
/// the box was during the pass. Returns ms.
pub fn canary_ms(buffer: &[u64]) -> f64 {
    let t0 = Instant::now();
    let mut sum = 0u64;
    for _ in 0..8 {
        sum = std::hint::black_box(buffer)
            .iter()
            .fold(sum, |s, v| s.wrapping_add(*v));
    }
    std::hint::black_box(sum);
    t0.elapsed().as_secs_f64() * 1e3
}

/// How the pass drives an operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Drive {
    /// `execute_into` (one engine step for the bucket workload).
    Blocking,
    /// The nonblocking surface with a span around every call.
    Traced,
    /// The bucket workload's plans one after another.
    Sequential,
}

/// One set-up: everything a rank does before it can start its first
/// operation — `CCollSession::new` (+ `with_topology`), plan construction
/// and workspace warming — on the calling thread. Seconds.
pub fn setup_s(w: &Workload) -> f64 {
    let t0 = Instant::now();
    let rig = Rig::build(w, w.host_world(), None);
    let elapsed = t0.elapsed();
    drop(rig);
    elapsed.as_secs_f64()
}

/// One whole cold start: a fresh world, every rank setting up at once,
/// and the first execution.
#[derive(Debug, Clone, Copy)]
pub struct ColdStart {
    /// The set-up inside the ranks, max over ranks, µs.
    pub build_us: f64,
    /// The first `execute_into`, max over ranks, ms.
    pub first_exec_ms: f64,
    /// Bytes the most-allocating rank allocated on the way, MB.
    pub alloc_mb: f64,
    /// World creation, thread spawn and join around the ranks, µs.
    pub spawn_us: f64,
    /// `err_over_bound` of the cold results (max over ranks).
    pub err: f64,
}

/// `(attempted, failed)` of the cold starts' first results.
pub fn cold_start_checks(starts: &[ColdStart]) -> (u64, u64) {
    let failed = starts.iter().filter(|s| s.err > 1.0).count();
    (starts.len() as u64, failed as u64)
}

struct RankStart {
    build: Duration,
    first: Duration,
    /// Barrier exit → the rank's closure returning (check and frees in).
    in_rank: Duration,
    bytes: u64,
    err: f64,
}

fn cold_start_body<C: Comm>(
    w: &Workload,
    world: usize,
    comm: &mut C,
    inputs: &Inputs,
    oracle: &Oracle,
) -> RankStart {
    comm.barrier();
    let bytes0 = thread_counters().1;
    let t0 = Instant::now();
    let mut rig = Rig::build(w, world, None);
    let t1 = Instant::now();
    rig.exec(comm, &inputs.per_rank[comm.rank()]);
    let t2 = Instant::now();
    let bytes = thread_counters().1 - bytes0;
    let err = oracle.err_over_bound(rig.out());
    drop(rig);
    RankStart {
        build: t1 - t0,
        first: t2 - t1,
        in_rank: t0.elapsed(),
        bytes,
        err,
    }
}

/// One cold start of `w` in a freshly spawned world: on the simulator
/// for the sim-hosted workload, on two threads otherwise.
pub fn cold_start(w: &Workload, inputs: &Arc<Inputs>, oracle: &Arc<Oracle>) -> ColdStart {
    let w = *w;
    let world = w.host_world();
    let (i, o) = (Arc::clone(inputs), Arc::clone(oracle));
    let t0 = Instant::now();
    let ranks: Vec<RankStart> = if w.host_is_sim() {
        SimWorld::new(sim_config(&w, world))
            .run(move |comm| cold_start_body(&w, world, comm, &i, &o))
            .results
    } else {
        ThreadWorld::new(world)
            .run(move |comm| cold_start_body(&w, world, comm, &i, &o))
            .results
    };
    let wall = t0.elapsed();
    let max = |f: fn(&RankStart) -> Duration| ranks.iter().map(f).max().unwrap_or_default();
    ColdStart {
        build_us: max(|r| r.build).as_secs_f64() * 1e6,
        first_exec_ms: max(|r| r.first).as_secs_f64() * 1e3,
        alloc_mb: ranks.iter().map(|r| r.bytes).max().unwrap_or(0) as f64 / 1e6,
        spawn_us: wall.saturating_sub(max(|r| r.in_rank)).as_secs_f64() * 1e6,
        err: ranks.iter().map(|r| r.err).fold(0.0, f64::max),
    }
}

/// What a host pass is asked to do.
#[derive(Debug, Clone, Copy)]
pub struct HostPlan {
    /// Wall-clock budget of the pass.
    pub budget: Duration,
    /// How operations are driven.
    pub drive: Drive,
    /// Whether whole cold starts are interleaved and thread on-CPU time
    /// is sampled (every 8th sample): the traced run's untraced pass.
    pub per_layer: bool,
}

/// What a host pass measured.
pub struct HostResult {
    /// Per-operation wall time of every sample, ms.
    pub op_ms: Vec<f64>,
    /// The cold starts, in run order.
    pub cold_starts: Vec<ColdStart>,
    /// Canary samples, ms (both ranks).
    pub canary_ms: Vec<f64>,
    /// The paper's six buckets: mean over ranks, ms per operation.
    pub profile_ms_per_op: [f64; 6],
    /// Thread on-CPU time per operation, mean over ranks, ms.
    pub cpu_ms_per_op: f64,
    /// Results checked, results that failed, and the worst error ÷ bound.
    pub attempted: u64,
    /// See `attempted`.
    pub failed: u64,
    /// See `attempted`.
    pub worst_err: f64,
    /// Spans of a traced pass, one buffer per rank.
    pub traces: Vec<RankTrace>,
}

const RUN: u8 = 0;
const STOP: u8 = 1;
const COLD_START: u8 = 2;
const CANARY: u8 = 3;

struct Shared {
    barrier: SpinBarrier,
    /// Rank 0's decision for iteration `k` sits in slot `k % 2`: it is
    /// written before barrier `k` and read after it, and rank 0 cannot
    /// reach the write for iteration `k + 2` before every rank has passed
    /// barrier `k + 1`, i.e. has read slot `k % 2`.
    command: [AtomicU8; 2],
    epoch: Instant,
}

struct RankReport {
    samples: Vec<(u64, u64)>,
    canary_ms: Vec<f64>,
    cold_starts: Vec<ColdStart>,
    cpu_ns: u64,
    cpu_ops: u64,
    ops: u64,
    checks: Vec<(u64, f64)>,
    trace: Option<RankTrace>,
}

/// Run one host pass of `w` on two threads.
pub fn host_pass(
    w: &Workload,
    inputs: &Arc<Inputs>,
    oracle: &Arc<Oracle>,
    plan: HostPlan,
) -> HostResult {
    let w = *w;
    let world = w.host_world();
    let shared = Arc::new(Shared {
        barrier: SpinBarrier::new(world),
        command: [AtomicU8::new(RUN), AtomicU8::new(RUN)],
        epoch: Instant::now(),
    });
    let (inputs_in, oracle_in) = (Arc::clone(inputs), Arc::clone(oracle));
    let out = ThreadWorld::new(world)
        .run(move |comm| rank_body(&w, comm, &shared, &inputs_in, &oracle_in, plan));
    let mut reports = out.results;
    let ops = reports[0].ops.max(1) as f64;
    let mut profile_ms_per_op = [0.0; 6];
    for (slot, cat) in profile_ms_per_op.iter_mut().zip(Category::ALL) {
        let sum: Duration = out
            .breakdowns
            .iter()
            .map(|b: &TimeBreakdown| b.get(cat))
            .sum();
        *slot = sum.as_secs_f64() * 1e3 / world as f64 / ops;
    }
    // A sample runs from the first rank leaving the barrier to the last
    // rank finishing.
    let op_ms = (0..reports[0].samples.len())
        .map(|i| {
            let start = reports.iter().map(|r| r.samples[i].0).min().unwrap_or(0);
            let end = reports.iter().map(|r| r.samples[i].1).max().unwrap_or(0);
            batch_ms_per_op(start, end, w.batch)
        })
        .collect();
    let mut attempted = 0;
    let mut failed = 0;
    let mut worst_err = 0.0f64;
    // The uncompressed allreduce leaves the same bits on every rank; a
    // lossy one does not (each rank keeps its own block uncompressed).
    let same_bits = w.codec == c_coll::CodecSpec::None;
    for i in 0..reports[0].checks.len() {
        let err = reports.iter().map(|r| r.checks[i].1).fold(0.0, f64::max);
        let agree = !same_bits
            || reports
                .iter()
                .all(|r| r.checks[i].0 == reports[0].checks[i].0);
        attempted += 1;
        if err > 1.0 || !agree {
            failed += 1;
        }
        worst_err = worst_err.max(err);
    }
    let cold_starts = std::mem::take(&mut reports[0].cold_starts);
    let (cold_attempted, cold_failed) = cold_start_checks(&cold_starts);
    attempted += cold_attempted;
    failed += cold_failed;
    worst_err = cold_starts.iter().map(|s| s.err).fold(worst_err, f64::max);
    let cpu_ops: u64 = reports.iter().map(|r| r.cpu_ops).sum();
    HostResult {
        op_ms,
        cold_starts,
        canary_ms: reports
            .iter()
            .flat_map(|r| r.canary_ms.iter().copied())
            .collect(),
        profile_ms_per_op,
        cpu_ms_per_op: reports.iter().map(|r| r.cpu_ns).sum::<u64>() as f64
            / 1e6
            / cpu_ops.max(1) as f64,
        attempted,
        failed,
        worst_err,
        traces: reports.into_iter().filter_map(|r| r.trace).collect(),
    }
}

/// Whether the `n`-th of `target` events spread evenly over `budget` is
/// due at `now`.
fn due(now: Duration, budget: Duration, n: usize, target: usize) -> bool {
    n < target && now >= budget.mul_f64(n as f64 / target as f64)
}

fn rank_body(
    w: &Workload,
    comm: &mut ThreadComm,
    shared: &Shared,
    inputs: &Arc<Inputs>,
    oracle: &Arc<Oracle>,
    plan: HostPlan,
) -> RankReport {
    let rank = comm.rank();
    let input = &inputs.per_rank[rank];
    let mut rig = Rig::build(w, comm.size(), None);
    for _ in 0..WARMUP_OPS {
        rig.exec(comm, input);
    }
    comm.profiler().reset();
    let traced = plan.drive == Drive::Traced;
    let sample_cap = if traced {
        TRACED_OPS_CAP / w.batch
    } else {
        usize::MAX
    };
    let mut report = RankReport {
        samples: Vec::with_capacity(sample_cap.min(1 << 16)),
        canary_ms: Vec::with_capacity(1024),
        cold_starts: Vec::with_capacity(COLD_STARTS),
        cpu_ns: 0,
        cpu_ops: 0,
        ops: 0,
        checks: Vec::with_capacity(4096),
        trace: traced.then(|| {
            RankTrace::with_capacity(shared.epoch, rank as u32, TRACED_OPS_CAP * spans_per_op(w))
        }),
    };
    let cpu_clock = plan.per_layer.then(ThreadCpuClock::for_this_thread);
    let canary = canary_buffer();
    // Rank 0 paces the run.
    let start = Instant::now();
    let mut next_canary = Duration::ZERO;
    for k in 0.. {
        if rank == 0 {
            let now = start.elapsed();
            let enough = report.samples.len() >= MIN_SAMPLES;
            let command = if (now >= plan.budget && enough) || report.samples.len() >= sample_cap {
                STOP
            } else if plan.per_layer && due(now, plan.budget, report.cold_starts.len(), COLD_STARTS)
            {
                COLD_START
            } else if now >= next_canary {
                next_canary = now + CANARY_PERIOD;
                CANARY
            } else {
                RUN
            };
            shared.command[k % 2].store(command, Ordering::SeqCst);
        }
        shared.barrier.wait();
        match shared.command[k % 2].load(Ordering::SeqCst) {
            STOP => break,
            COLD_START => {
                // Rank 0 runs the fresh world; the other rank sleeps in
                // the program's condvar barrier, leaving both cores to it.
                if rank == 0 {
                    report.cold_starts.push(cold_start(w, inputs, oracle));
                }
                comm.barrier();
            }
            CANARY => report.canary_ms.push(canary_ms(&canary)),
            _ => {
                let cpu0 = match &cpu_clock {
                    Some(c) if k % 8 == 0 => Some(c.now_ns()),
                    _ => None,
                };
                let t0 = shared.epoch.elapsed().as_nanos() as u64;
                for b in 0..w.batch {
                    match (plan.drive, &mut report.trace) {
                        (Drive::Traced, Some(tr)) => {
                            rig.exec_traced(comm, input, tr, (report.ops as usize + b) as u32);
                        }
                        (Drive::Sequential, _) => rig.exec_sequential(comm, input),
                        _ => rig.exec(comm, input),
                    }
                }
                let t1 = shared.epoch.elapsed().as_nanos() as u64;
                if let (Some(c), Some(cpu0)) = (&cpu_clock, cpu0) {
                    report.cpu_ns += c.now_ns() - cpu0;
                    report.cpu_ops += w.batch as u64;
                }
                report.samples.push((t0, t1));
                let before = report.ops as usize;
                report.ops += w.batch as u64;
                if before / CHECK_EVERY != report.ops as usize / CHECK_EVERY || before == 0 {
                    report
                        .checks
                        .push((bits_digest(rig.out()), oracle.err_over_bound(rig.out())));
                }
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spin_barrier_releases_all_ranks_every_generation() {
        let barrier = Arc::new(SpinBarrier::new(2));
        let hits = Arc::new(AtomicUsize::new(0));
        let worker = {
            let (barrier, hits) = (Arc::clone(&barrier), Arc::clone(&hits));
            std::thread::spawn(move || {
                for _ in 0..1000 {
                    hits.fetch_add(1, Ordering::SeqCst);
                    barrier.wait();
                    barrier.wait();
                }
            })
        };
        for round in 1..=1000 {
            barrier.wait();
            // Between the two barriers the worker cannot have moved on.
            assert_eq!(hits.load(Ordering::SeqCst), round);
            barrier.wait();
        }
        worker.join().unwrap();
    }

    #[test]
    fn events_are_spread_evenly_over_the_budget() {
        let budget = Duration::from_secs(10);
        // The first is due at once, the n-th after n/target of the budget.
        assert!(due(Duration::ZERO, budget, 0, 60));
        assert!(!due(Duration::from_millis(100), budget, 1, 60));
        assert!(due(Duration::from_millis(167), budget, 1, 60));
        assert!(due(Duration::from_secs(5), budget, 30, 60));
        assert!(!due(Duration::from_secs(20), budget, 60, 60));
    }

    #[test]
    fn canary_takes_measurable_time() {
        assert!(canary_ms(&canary_buffer()) > 0.0);
    }
}
