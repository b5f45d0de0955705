//! The repository benchmark. One command runs one workload and prints
//! every metric by name with its unit; see `README.md` beside this
//! package for the definitions and `BENCHMARK.json` at the repository
//! root for the contract.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload ar_szx_4m --seed 1 --seconds 10 --trace 0
//! ```

mod alloc;
mod host;
mod json;
mod ladder;
mod model;
mod oracle;
mod procfs;
mod rig;
mod spec;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use c_coll::Algorithm;
use ccoll_comm::{Category, SimWorld};

use host::{canary_buffer, canary_ms, cold_start, host_pass, ColdStart, Drive, HostPlan};
use model::{model_pass, predicted_ms, Hook, ModelResult, Window};
use oracle::{Inputs, Oracle};
use spec::{MetricDef, Shape, Workload, COLD_EXECS, END_TO_END, MODEL_EXECS, PER_LAYER};
use stats::{floor, median, percentile};
use trace::RankTrace;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// A canary sample this far above the pass's canary floor counts as
/// contended.
const CONTENDED_OVER_FLOOR: f64 = 1.15;
/// Executions between an `Auto` plan's calibration rounds: the
/// simulator-hosted workload's host time is read per whole period.
const CALIBRATION_PERIOD: usize = 4;
/// A pinned candidate is simulated when the cost model prices it within
/// this factor of the cheapest one.
const CANDIDATE_PRICE_FACTOR: f64 = 3.0;
/// From this world size on the flat ring is not simulated as a pinned
/// candidate: its 2n(n−1) messages (130 560 at 256 ranks) take ~10 s of
/// simulator wall time per execution, and `BENCH_scale.json` has the
/// hierarchical schedule ahead of every flat one at 128–1024 ranks.
const RING_CANDIDATE_MAX_WORLD: usize = 128;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<PathBuf>,
}

enum Mode {
    Run(Args),
    PrintBenchmarkJson,
    SelfTest,
    /// Internal: set the named workload up over and over and print the
    /// seconds each took. A run starts itself this way to time set-ups in
    /// a fresh process.
    SetupProbe(String),
}

fn parse_args() -> Result<Mode, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds) = (None, 1u64, f64::from(spec::RUN_SECONDS));
    let (mut trace, mut trace_out) = (false, None);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--print-benchmark-json" => return Ok(Mode::PrintBenchmarkJson),
            "--self-test" => return Ok(Mode::SelfTest),
            "--setup-probe" => return Ok(Mode::SetupProbe(value()?)),
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--trace-out" => trace_out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Mode::Run(Args {
        workload,
        seed,
        seconds,
        trace,
        trace_out,
    }))
}

/// The metrics of one run, by name.
#[derive(Default)]
struct Report {
    values: Vec<(&'static str, f64)>,
    attempted: u64,
    failed: u64,
    /// `(span name, calls, total ms, self ms)` of a traced run.
    spans: Vec<(&'static str, u64, f64, f64)>,
    context: Vec<(&'static str, String)>,
}

impl Report {
    fn set(&mut self, name: &'static str, value: f64) {
        self.values.push((name, value));
    }

    fn set_some(&mut self, name: &'static str, value: Option<f64>) {
        if let Some(v) = value {
            self.set(name, v);
        }
    }

    fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }

    fn count(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }
}

struct Canary {
    floor_ms: f64,
    p50_ms: f64,
    contended_pct: f64,
}

fn canary_stats(samples: &[f64]) -> Canary {
    let floor_ms = floor(samples);
    let over = samples
        .iter()
        .filter(|&&s| s > CONTENDED_OVER_FLOOR * floor_ms)
        .count();
    Canary {
        floor_ms,
        p50_ms: median(samples),
        contended_pct: 100.0 * over as f64 / samples.len().max(1) as f64,
    }
}

/// Set-ups one probe process times, after `PROBE_WARMUPS` untimed ones,
/// and probe processes per burst; a run makes three bursts.
const PROBE_SETUPS: usize = 17;
const PROBE_WARMUPS: usize = 3;
const PROBES_PER_BURST: usize = 8;

/// Time set-ups of `w` in fresh, single-threaded processes of this very
/// binary (`--setup-probe`), nothing else running; returns each process's
/// floor.
///
/// What a set-up costs depends on what the allocator holds — whether
/// freed blocks sit under a live one or get trimmed off the heap, where
/// glibc's moving mmap threshold stands. Inside the run that state is
/// left by rank threads allocating side by side and differs from run to
/// run: `ar_szx_8k` read 1.4 µs in some runs and 8 µs in others,
/// `bcast_szx_4m` 0.36 ms or 2.3 ms. A fresh process repeats the same
/// allocation history every time. It still lands in one of a few modes
/// 1.3–1.8× apart for its whole life — presumably where address-space
/// randomisation put its heap — so a run takes the floor of each of twenty-four processes
/// and reports their mean: the floor drops what the machine added inside
/// a process, the mean averages over the modes.
fn probe_setups(w: &Workload) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    (0..PROBES_PER_BURST)
        .map(|_| {
            let out = Command::new(&exe)
                .args(["--setup-probe", w.name])
                .output()
                .map_err(|e| format!("{}: {e}", exe.display()))?;
            let text = String::from_utf8_lossy(&out.stdout);
            let samples: Vec<f64> = text.lines().filter_map(|l| l.trim().parse().ok()).collect();
            if out.status.success() && samples.len() == PROBE_SETUPS {
                Ok(floor(&samples))
            } else {
                Err(format!("set-up probe of {} failed: {text}", w.name))
            }
        })
        .collect()
}

/// Mean wall time per execution of each whole calibration period of the
/// steady window.
fn period_means(op_wall_ms: &[f64], cold: usize) -> Vec<f64> {
    op_wall_ms[cold..]
        .chunks_exact(CALIBRATION_PERIOD)
        .map(|p| p.iter().sum::<f64>() / p.len() as f64)
        .collect()
}

/// The inputs of a run and their oracles. The host pass and the ladder
/// use input set 0; the model pass runs on every set.
struct Prepared {
    inputs: Arc<Inputs>,
    model_oracle: Arc<Oracle>,
    host_oracle: Arc<Oracle>,
    more_sets: Vec<(Arc<Inputs>, Arc<Oracle>)>,
    gen_ms: f64,
}

fn prepare(w: &Workload, seed: u64) -> Prepared {
    let world = w.model_world.max(w.host_world());
    // A broadcast reads the root's buffer; rank 1's feeds the ladder.
    let distinct = if w.shape == Shape::Bcast { 2 } else { world };
    let mut sets = (0..w.model_sets).map(|set| {
        let inputs = Arc::new(oracle::generate(w.len, world, distinct, seed, set));
        let oracle = Arc::new(Oracle::new(w, &inputs, w.model_world));
        (inputs, oracle)
    });
    let (inputs, model_oracle) = sets.next().expect("a workload has at least one input set");
    let more_sets: Vec<_> = sets.collect();
    let host_oracle = if w.host_world() == w.model_world {
        Arc::clone(&model_oracle)
    } else {
        Arc::new(Oracle::new(w, &inputs, w.host_world()))
    };
    let gen_ms = inputs.gen_ms + more_sets.iter().map(|s| s.0.gen_ms).sum::<f64>();
    Prepared {
        inputs,
        model_oracle,
        host_oracle,
        more_sets,
        gen_ms,
    }
}

/// What the simulator-hosted workload collects from inside its one
/// simulator run, on rank 0 between executions: a canary sample after
/// every execution and, in the traced run, a whole cold start after
/// every sixth.
#[derive(Default)]
struct SimHosted {
    cold_starts: Vec<ColdStart>,
    canary_ms: Vec<f64>,
}

fn model_with_host_hook(
    w: &Workload,
    p: &Prepared,
    window: Window,
    cold_starts: bool,
) -> (ModelResult, SimHosted) {
    let collected = Arc::new(Mutex::new(SimHosted::default()));
    let hook: Option<Hook> = w.host_is_sim().then(|| {
        let (w, inputs, oracle) = (*w, Arc::clone(&p.inputs), Arc::clone(&p.host_oracle));
        let collected = Arc::clone(&collected);
        let canary = canary_buffer();
        Arc::new(move |k: usize| {
            let mut c = collected.lock().expect("only rank 0 takes this lock");
            c.canary_ms.push(canary_ms(&canary));
            if cold_starts && k % 6 == 1 {
                c.cold_starts.push(cold_start(&w, &inputs, &oracle));
            }
        }) as Hook
    });
    let mut model = model_pass(w, &p.inputs, &p.model_oracle, None, window, hook);
    let collected = std::mem::take(&mut *collected.lock().expect("the ranks have joined"));
    let more: Vec<ModelResult> = p
        .more_sets
        .iter()
        .map(|(inputs, oracle)| model_pass(w, inputs, oracle, None, window, None))
        .collect();
    model.average_exact_with(&more);
    (model, collected)
}

/// The untraced run: every end-to-end metric. The host pass still runs
/// — its results are checked and its numbers are in the context line —
/// but no wall-clock number of a two-thread operation is gated: on a
/// shared two-vCPU box those move by 1.5–2.4× for minutes (`NOISE.md`).
fn run_end_to_end(w: &Workload, args: &Args) -> Result<Report, String> {
    let mut r = Report::default();
    // Three probes: before the model pass, between the passes and at the
    // end of the run.
    let mut setups = probe_setups(w)?;
    let p = prepare(w, args.seed);
    let window = Window {
        cold: COLD_EXECS,
        total: MODEL_EXECS,
    };
    let (model, sim_hosted) = model_with_host_hook(w, &p, window, false);
    r.count(model.attempted, model.failed);
    setups.extend(probe_setups(w)?);
    let (exec_ms, canary);
    if w.host_is_sim() {
        exec_ms = period_means(&model.op_wall_ms, window.cold);
        canary = canary_stats(&sim_hosted.canary_ms);
    } else {
        let host = host_pass(
            w,
            &p.inputs,
            &p.host_oracle,
            HostPlan {
                budget: Duration::from_secs_f64(args.seconds),
                drive: Drive::Blocking,
                per_layer: false,
            },
        );
        r.count(host.attempted, host.failed);
        r.context
            .push(("host_err_over_bound", format!("{:.4}", host.worst_err)));
        r.context
            .push(("host_ops", (host.op_ms.len() * w.batch).to_string()));
        exec_ms = host.op_ms;
        canary = canary_stats(&host.canary_ms);
    }
    setups.extend(probe_setups(w)?);
    r.set("setup_s", setups.iter().sum::<f64>() / setups.len() as f64);
    r.set("virt_ms_per_op", model.virt_ms_per_op);
    r.set("virt_ms_cold8", model.virt_ms_cold);
    r.set("wire_mb_per_op", model.wire_mb_per_op);
    // The model pass checks every element of every execution on the model
    // world; the host pass's checks (two ranks, a different bound) count
    // towards `failed` and are shown in the context line.
    r.set("err_over_bound", model.err_over_bound);
    r.set("peak_rss_mb", procfs::peak_rss_mb());
    r.context
        .push(("setup_probes", format!("{}x{PROBE_SETUPS}", setups.len())));
    r.context
        .push(("exec_ms_floor", format!("{:.4}", floor(&exec_ms))));
    r.context
        .push(("exec_ms_p50", format!("{:.4}", median(&exec_ms))));
    r.context
        .push(("canary_floor_ms", format!("{:.4}", canary.floor_ms)));
    r.context
        .push(("contended_share", format!("{:.1}%", canary.contended_pct)));
    Ok(r)
}

/// The pinned candidates `Auto` is compared against: per candidate, the
/// steady virtual ms per operation of a short pinned model pass.
fn pinned_candidates(
    w: &Workload,
    p: &Prepared,
    auto: &ModelResult,
    r: &mut Report,
) -> Vec<(Algorithm, f64)> {
    let all = [
        Algorithm::Ring,
        Algorithm::RecursiveDoubling,
        Algorithm::Rabenseifner,
        Algorithm::Hierarchical,
    ];
    let priced: Vec<(Algorithm, f64)> = all
        .iter()
        .map(|&a| (a, predicted_ms(w, a, auto.observed_ratio)))
        .collect();
    let cheapest = priced.iter().map(|c| c.1).fold(f64::INFINITY, f64::min);
    priced
        .into_iter()
        .filter(|&(a, price)| {
            let affordable = a != Algorithm::Ring || w.model_world < RING_CANDIDATE_MAX_WORLD;
            a == auto.pick || (affordable && price <= CANDIDATE_PRICE_FACTOR * cheapest)
        })
        .map(|(a, _)| {
            // A pinned plan has no periodic work: one warming execution,
            // one steady one.
            let window = Window { cold: 1, total: 2 };
            let pinned = model_pass(w, &p.inputs, &p.model_oracle, Some(a), window, None);
            r.count(pinned.attempted, pinned.failed);
            (a, pinned.virt_ms_per_op)
        })
        .collect()
}

/// The traced run: every per-layer metric that applies to the workload.
fn run_per_layer(w: &Workload, args: &Args) -> (Report, Vec<RankTrace>) {
    let mut r = Report::default();
    let epoch = Instant::now();
    let p = prepare(w, args.seed);
    r.set("data.fields.gen_ms", p.gen_ms);
    let window = Window {
        cold: COLD_EXECS,
        total: MODEL_EXECS,
    };
    let (model, sim_hosted) = model_with_host_hook(w, &p, window, true);
    r.count(model.attempted, model.failed);

    // Exact, from the model pass.
    r.set("comm.profile.msgs_per_op", model.msgs_per_op);
    r.set("comm.profile.bytes_per_op", model.wire_mb_per_op * 1e6);
    r.set("core.workspace.allocs_per_op", model.allocs_per_op);
    r.set("core.algorithm.pick", spec::algorithm_id(model.pick));
    r.set("core.algorithm.switches", f64::from(model.switches));
    let predicted = predicted_ms(w, model.pick, model.observed_ratio);
    r.set("comm.cost.predicted_ms", predicted);
    r.set("comm.cost.residual", model.virt_ms_per_op / predicted);
    if let Shape::AutoHier { .. } = w.shape {
        let candidates = pinned_candidates(w, &p, &model, &mut r);
        let best = candidates.iter().map(|c| c.1).fold(f64::INFINITY, f64::min);
        let same_pinned = candidates
            .iter()
            .find(|c| c.0 == model.pick)
            .map_or(best, |c| c.1);
        r.set("core.algorithm.best_pinned_virt_ms", best);
        r.set("core.algorithm.auto_over_best", model.virt_ms_per_op / best);
        r.set(
            "core.session.control_virt_ms_per_op",
            model.virt_ms_per_op - same_pinned,
        );
    } else {
        // Zero by construction: the plan is its own best pinned candidate.
        r.set("core.algorithm.best_pinned_virt_ms", model.virt_ms_per_op);
        r.set("core.algorithm.auto_over_best", 1.0);
        r.set("core.session.control_virt_ms_per_op", 0.0);
    }

    // The simulator as a layer, from the same pass.
    let steady_wall = &model.op_wall_ms[window.cold..];
    r.set("comm.sim.wall_ms_per_op_p50", median(steady_wall));
    r.set(
        "comm.sim.msgs_per_wall_s",
        model.msgs_per_op * steady_wall.len() as f64 / (steady_wall.iter().sum::<f64>() / 1e3),
    );
    r.set("comm.sim.ctx_switches_per_op", model.ctx_switches_per_op);
    let spawn_ms: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            SimWorld::new(rig::sim_config(w, w.model_world)).run(|_| ());
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    r.set("comm.sim.spawn_ms", floor(&spawn_ms));

    // The ladder.
    let mut ladder_trace =
        RankTrace::with_capacity(epoch, ladder::LADDER_TID, ladder::LADDER_SPANS);
    let l = ladder::run(
        w,
        &p.inputs.per_rank[0],
        &p.inputs.per_rank[1],
        &mut ladder_trace,
    );
    r.set_some("compress.szx.encode_gbs", l.szx_encode_gbs);
    r.set_some("compress.szx.decode_gbs", l.szx_decode_gbs);
    r.set_some("compress.szx.fused_reduce_gbs", l.szx_fused_gbs);
    r.set_some("compress.pipe.encode_gbs", l.pipe_encode_gbs);
    r.set_some("compress.szx.ratio", l.szx_ratio);
    r.set_some("compress.floor_ms_per_op", l.codec_floor_ms_per_op);
    r.set("core.reduce.apply_gbs", l.reduce_apply_gbs);
    r.set("core.wire.encode_gbs", l.wire_encode_gbs);
    r.set("core.wire.decode_gbs", l.wire_decode_gbs);
    r.set("comm.pool.write_ns", l.pool_write_ns);
    r.set("comm.threaded.pingpong_us", l.pingpong_us);
    r.set("comm.threaded.barrier_us", l.barrier_us);
    r.set("comm.threaded.stream_gbs", l.stream_gbs);

    // The host passes: untraced, then traced through the nonblocking
    // surface, then (buckets) the same plans one after another.
    let mut traces = vec![ladder_trace];
    let (cold_starts, canary_samples);
    if w.host_is_sim() {
        // The model pass above was the host pass.
        set_exec_percentiles(&mut r, steady_wall);
        r.set(
            "core.session.exec_ms_floor",
            floor(&period_means(&model.op_wall_ms, window.cold)),
        );
        let (attempted, failed) = host::cold_start_checks(&sim_hosted.cold_starts);
        r.count(attempted, failed);
        cold_starts = sim_hosted.cold_starts;
        canary_samples = sim_hosted.canary_ms;
    } else {
        let buckets = matches!(w.shape, Shape::Buckets { .. });
        let share = |s: f64| Duration::from_secs_f64(args.seconds * s);
        let (untraced_share, traced_share) = if buckets { (0.45, 0.35) } else { (0.55, 0.45) };
        let pass = |budget: Duration, drive: Drive, first: bool| {
            let plan = HostPlan {
                budget,
                drive,
                per_layer: first,
            };
            host_pass(w, &p.inputs, &p.host_oracle, plan)
        };
        let untraced = pass(share(untraced_share), Drive::Blocking, true);
        let traced = pass(share(traced_share), Drive::Traced, false);
        r.count(
            untraced.attempted + traced.attempted,
            untraced.failed + traced.failed,
        );
        set_exec_percentiles(&mut r, &untraced.op_ms);
        let host_floor = floor(&untraced.op_ms);
        r.set("core.session.exec_ms_floor", host_floor);
        r.set("core.session.cpu_ms_per_op", untraced.cpu_ms_per_op);
        for (cat, ms) in Category::ALL.iter().zip(untraced.profile_ms_per_op) {
            r.set(profile_metric(*cat), ms);
        }
        if let Some(codec_floor) = l.codec_floor_ms_per_op.filter(|f| *f > 0.0) {
            r.set("core.session.over_floor", host_floor / codec_floor);
        }
        let ops = trace::durations_ns(&traced.traces, "op").len().max(1) as f64;
        if buckets {
            let sequential = pass(share(0.2), Drive::Sequential, false);
            r.count(sequential.attempted, sequential.failed);
            r.set("core.engine.step_ms_floor", host_floor);
            r.set(
                "core.engine.passes_per_step",
                trace::durations_ns(&traced.traces, "engine.progress").len() as f64 / ops,
            );
            r.set(
                "core.engine.over_sequential",
                host_floor / floor(&sequential.op_ms),
            );
        } else {
            let progress = trace::durations_ns(&traced.traces, "handle.progress");
            r.set(
                "core.nonblocking.start_us",
                median(&trace::durations_ns(&traced.traces, "plan.start")) / 1e3,
            );
            r.set(
                "core.nonblocking.progress_calls_per_op",
                progress.len() as f64 / ops,
            );
            r.set("core.nonblocking.progress_us_p50", median(&progress) / 1e3);
            r.set("core.nonblocking.handle_ms_floor", floor(&traced.op_ms));
        }
        r.set(
            "trace.overhead_pct",
            100.0 * (median(&traced.op_ms) / median(&untraced.op_ms) - 1.0),
        );
        cold_starts = untraced.cold_starts;
        canary_samples = untraced.canary_ms;
        traces.extend(traced.traces);
    }
    let col = |f: fn(&ColdStart) -> f64| floor(&cold_starts.iter().map(f).collect::<Vec<_>>());
    r.set("core.session.plan_build_us", col(|s| s.build_us));
    r.set("core.session.first_exec_ms", col(|s| s.first_exec_ms));
    r.set("core.workspace.setup_alloc_mb", col(|s| s.alloc_mb));
    if !w.host_is_sim() {
        r.set("comm.threaded.spawn_us", col(|s| s.spawn_us));
    }
    let canary = canary_stats(&canary_samples);
    r.set("harness.canary_ms_floor", canary.floor_ms);
    r.set("harness.canary_ms_p50", canary.p50_ms);
    r.set("harness.contended_share", canary.contended_pct);
    r.set(
        "trace.spans_dropped",
        traces.iter().map(|t| t.dropped).sum::<u64>() as f64,
    );
    r.spans = trace::summarize(&traces)
        .into_iter()
        .map(|(name, calls, total, own)| (name, calls, total as f64 / 1e6, own as f64 / 1e6))
        .collect();
    r.context
        .push(("canary_floor_ms", format!("{:.4}", canary.floor_ms)));
    r.context
        .push(("contended_share", format!("{:.1}%", canary.contended_pct)));
    (r, traces)
}

fn set_exec_percentiles(r: &mut Report, exec_ms: &[f64]) {
    r.set("core.session.exec_ms_p50", median(exec_ms));
    r.set("core.session.exec_ms_p90", percentile(exec_ms, 90.0));
    r.set("core.session.exec_ms_p99", percentile(exec_ms, 99.0));
    r.set("core.session.exec_samples", exec_ms.len() as f64);
}

fn profile_metric(cat: Category) -> &'static str {
    match cat {
        Category::ComDecom => "comm.profile.comdecom_ms_per_op",
        Category::Allgather => "comm.profile.allgather_ms_per_op",
        Category::Memcpy => "comm.profile.memcpy_ms_per_op",
        Category::Wait => "comm.profile.wait_ms_per_op",
        Category::Reduction => "comm.profile.reduction_ms_per_op",
        Category::Others => "comm.profile.others_ms_per_op",
    }
}

/// Print the human-readable tables, the context line and — last — the
/// result line the driver reads.
fn print_report(w: &Workload, args: &Args, defs: &[MetricDef], r: &Report) {
    println!(
        "# {} ({}) seed {} trace {}",
        w.name,
        w.why,
        args.seed,
        u8::from(args.trace)
    );
    for d in defs {
        if let Some(v) = r.get(d.name) {
            println!("{:<42} {:>16.6} {}", d.name, v, d.unit);
        }
    }
    if !r.spans.is_empty() {
        println!("# spans: name calls total_ms self_ms");
        for (name, calls, total, own) in &r.spans {
            println!("{name:<42} {calls:>8} {total:>12.3} {own:>12.3}");
        }
    }
    let mut context = vec![
        ("workload", w.name.to_string()),
        ("seed", args.seed.to_string()),
        (
            "nproc",
            std::thread::available_parallelism()
                .map_or(1, usize::from)
                .to_string(),
        ),
        (
            "simd",
            ccoll_compress::SimdLevel::detect().label().to_string(),
        ),
        ("rustc", env!("BENCH_RUSTC_VERSION").to_string()),
        ("loadavg", procfs::load_average()),
    ];
    context.extend(r.context.iter().cloned());
    let context: Vec<String> = context.iter().map(|(k, v)| format!("{k}={v}")).collect();
    println!("# context: {}", context.join(" "));
    let metrics: Vec<String> = defs
        .iter()
        .map(|d| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                json::escape(d.name),
                // A per-layer metric that does not apply to this workload.
                json::number(r.get(d.name).unwrap_or(0.0)),
                json::escape(d.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.failed == 0,
        r.attempted,
        r.failed,
        metrics.join(", ")
    );
}

fn run(args: &Args) -> Result<bool, String> {
    let w = spec::workload(&args.workload).ok_or_else(|| {
        let names: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
        format!(
            "unknown workload {}; one of {}",
            args.workload,
            names.join(", ")
        )
    })?;
    let report = if args.trace {
        let (report, traces) = run_per_layer(w, args);
        if let Some(path) = &args.trace_out {
            trace::write_chrome(path, &traces).map_err(|e| format!("{}: {e}", path.display()))?;
        }
        print_report(w, args, &PER_LAYER, &report);
        report
    } else {
        let report = run_end_to_end(w, args)?;
        for d in &END_TO_END {
            if report.get(d.name).is_none() {
                return Err(format!("end-to-end metric {} was not measured", d.name));
            }
        }
        print_report(w, args, &END_TO_END, &report);
        report
    };
    Ok(report.failed == 0)
}

/// Every workload at a sixteenth of its payload (and a 4×4 cluster): the
/// model pass twice, which must agree to the last bit, and a short host
/// pass, on which no operation may fail.
fn self_test() -> Result<(), String> {
    for full in &spec::WORKLOADS {
        let mut w = *full;
        w.len = (full.len / 16).max(2048);
        if let Shape::AutoHier { .. } = w.shape {
            w.shape = Shape::AutoHier {
                nodes: 4,
                per_node: 4,
            };
            w.model_world = 16;
        }
        let t0 = Instant::now();
        let p = prepare(&w, 1);
        let window = Window {
            cold: COLD_EXECS,
            total: MODEL_EXECS,
        };
        let pass = || model_pass(&w, &p.inputs, &p.model_oracle, None, window, None);
        let (a, b) = (pass(), pass());
        if a.exact() != b.exact() {
            return Err(format!(
                "{}: two model passes disagree: {:?} vs {:?}",
                w.name,
                a.exact(),
                b.exact()
            ));
        }
        let mut failed = a.failed + b.failed;
        if !w.host_is_sim() {
            let plan = HostPlan {
                budget: Duration::from_millis(300),
                drive: Drive::Traced,
                per_layer: true,
            };
            let h = host_pass(&w, &p.inputs, &p.host_oracle, plan);
            failed += h.failed;
            if h.traces.iter().any(|t| t.dropped > 0) {
                return Err(format!("{}: the traced pass dropped spans", w.name));
            }
        }
        if failed > 0 {
            return Err(format!(
                "{}: {failed} operations failed their check",
                w.name
            ));
        }
        if probe_setups(full)?.iter().any(|s| *s <= 0.0 || s.is_nan()) {
            return Err(format!("{}: a set-up probe read no time", w.name));
        }
        println!(
            "self-test {:<20} ok: virt_ms_per_op {:?} wire_mb_per_op {:?} err_over_bound {:?} ({:.1} s)",
            w.name,
            a.virt_ms_per_op,
            a.wire_mb_per_op,
            a.err_over_bound,
            t0.elapsed().as_secs_f64()
        );
    }
    Ok(())
}

fn main() -> ExitCode {
    let outcome = match parse_args() {
        Ok(Mode::PrintBenchmarkJson) => {
            print!("{}", spec::benchmark_json());
            Ok(true)
        }
        Ok(Mode::SelfTest) => self_test().map(|()| true),
        Ok(Mode::SetupProbe(name)) => match spec::workload(&name) {
            Some(w) => {
                for _ in 0..PROBE_WARMUPS {
                    host::setup_s(w);
                }
                for _ in 0..PROBE_SETUPS {
                    println!("{:?}", host::setup_s(w));
                }
                Ok(true)
            }
            None => Err(format!("unknown workload {name}")),
        },
        Ok(Mode::Run(args)) => run(&args),
        Err(e) => Err(e),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("ccoll-benchmark: operations failed their correctness check");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("ccoll-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
