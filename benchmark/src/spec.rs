//! What the benchmark measures: the six workloads, the end-to-end
//! metrics with their regression bounds, and the per-layer metrics.
//! `BENCHMARK.json` at the repository root is generated from these
//! tables (`--print-benchmark-json`) and a unit test pins the two equal.

use c_coll::{Algorithm, CodecSpec};

use crate::json::escape;

/// Seconds one run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u32 = 10;

/// The command the driver runs from the root of a checkout; it appends
/// `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];

/// The SZx configuration every compressed workload uses (`szx:1e-3`).
pub const SZX: CodecSpec = CodecSpec::Szx { error_bound: 1e-3 };

/// Executions 1..=COLD_EXECS of a model pass are the cold window
/// (plan-time pick, first-execution agreement, re-rank, warm-up).
pub const COLD_EXECS: usize = 8;
/// Executions COLD_EXECS+1..=MODEL_EXECS are the steady window: two whole
/// calibration periods of an `Auto` plan (rounds at executions 9 and 13).
/// A pinned plan's steady executions all cost the same virtual time, so
/// a longer window would buy nothing but simulator wall time — which is
/// ~0.2 s per execution at 8 ranks × 4 MiB and ~0.9 s at 256 ranks.
pub const MODEL_EXECS: usize = 16;

/// What one operation of a workload is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// One allreduce-sum through a plan with the given algorithm pinned.
    Allreduce(Algorithm),
    /// One `plan_bcast(0, len)` broadcast.
    Bcast,
    /// `buckets` allreduce plans over equal slices of the payload,
    /// started back to back and driven by one `ProgressEngine`.
    Buckets {
        /// Number of equal slices.
        buckets: usize,
    },
    /// `Algorithm::Auto` allreduce on a `nodes × per_node` cluster
    /// topology, simulator only.
    AutoHier {
        /// Nodes of the modelled cluster.
        nodes: usize,
        /// Ranks per node.
        per_node: usize,
    },
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// One line on why the workload exists.
    pub why: &'static str,
    /// What one operation is.
    pub shape: Shape,
    /// Values per rank (the whole payload for `Buckets`).
    pub len: usize,
    /// Codec of the session.
    pub codec: CodecSpec,
    /// Ranks of the model pass's `SimWorld`.
    pub model_world: usize,
    /// Operations timed as one sample in the host pass. A tiny operation
    /// is timed in long batches: at 32 operations (0.7 ms) a sample still
    /// says whether the two ranks happened to run in lock-step or slept on
    /// each other's condvar, and the floor of such samples moved by 20 %
    /// between runs; at 1024 (28 ms) that averages out and the floor
    /// repeats within 5 % (see `NOISE.md`).
    pub batch: usize,
    /// Independent input sets the model pass runs on; the exact metrics
    /// are their mean. One set of 8 × 2048 values is a small sample of
    /// the dataset — its compressed size moved by 3 % and its largest
    /// error by 8 % from seed to seed — and a model pass on it takes
    /// 70 ms, so the small workloads afford several.
    pub model_sets: usize,
}

impl Workload {
    /// Ranks of the host pass: two threads, or the simulated world when
    /// the workload's host pass is the simulator itself.
    pub fn host_world(&self) -> usize {
        match self.shape {
            Shape::AutoHier { .. } => self.model_world,
            _ => 2,
        }
    }

    /// Whether the host pass runs on the simulator (one runnable thread
    /// at a time) rather than on `ThreadWorld`.
    pub fn host_is_sim(&self) -> bool {
        matches!(self.shape, Shape::AutoHier { .. })
    }
}

/// The six workloads.
pub static WORKLOADS: [Workload; 6] = [
    Workload {
        name: "ar_szx_4m",
        why: "C-Allreduce headline: pipelined SZx encode, fused decompress-reduce and the ring hop engine do nearly all the work",
        shape: Shape::Allreduce(Algorithm::Ring),
        len: 1 << 20,
        codec: SZX,
        model_world: 8,
        batch: 1,
        model_sets: 1,
    },
    Workload {
        name: "ar_raw_4m",
        why: "same shape with no codec: mailbox, wire and reduce do the work, so a codec change must not move it and a comm change must",
        shape: Shape::Allreduce(Algorithm::Ring),
        len: 1 << 20,
        codec: CodecSpec::None,
        model_world: 8,
        batch: 1,
        model_sets: 1,
    },
    Workload {
        name: "ar_szx_8k",
        why: "latency regime: plan start, tag composition, machine stepping, pool slots and mailbox wake-ups dominate, codec share is small",
        shape: Shape::Allreduce(Algorithm::RecursiveDoubling),
        len: 2048,
        codec: SZX,
        model_world: 8,
        batch: 1024,
        model_sets: 16,
    },
    Workload {
        name: "bcast_szx_4m",
        why: "data-movement framework: one monolithic encode at the root, compressed relay, plain decode; no pipelining, no fused reduce",
        shape: Shape::Bcast,
        len: 1 << 20,
        codec: SZX,
        model_world: 8,
        batch: 1,
        model_sets: 4,
    },
    Workload {
        name: "buckets_szx_8x128k",
        why: "the 4 MiB of ar_szx_4m as 8 plans driven by one ProgressEngine, so engine passes, tag bases and fairness read off directly",
        shape: Shape::Buckets { buckets: 8 },
        len: 1 << 20,
        codec: SZX,
        model_world: 8,
        batch: 1,
        model_sets: 1,
    },
    Workload {
        name: "auto_hier_256",
        why: "Auto selection, ring agreements, online calibration and hierarchical machines on a 16x16 cluster, with the sim kernel as a layer",
        shape: Shape::AutoHier {
            nodes: 16,
            per_node: 16,
        },
        len: 1 << 16,
        codec: SZX,
        model_world: 256,
        batch: 1,
        model_sets: 1,
    },
];

/// Look a workload up by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric's name, unit, direction and (end-to-end only) the share of
/// the parent's median by which it may worsen before it is a regression.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Name printed with every value.
    pub name: &'static str,
    /// Unit printed with every value.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Regression bound; `None` for per-layer metrics.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
        bound: Some(bound),
    }
}

const fn lo(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
        bound: None,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
        bound: None,
    }
}

/// The end-to-end metrics. Every one is `better: lower`.
pub const END_TO_END: [MetricDef; 6] = [
    e2e("setup_s", "s", 0.25),
    e2e("virt_ms_per_op", "virt_ms", 0.02),
    e2e("virt_ms_cold8", "virt_ms", 0.02),
    e2e("wire_mb_per_op", "MB", 0.03),
    e2e("err_over_bound", "x", 0.25),
    e2e("peak_rss_mb", "MB", 0.10),
];

/// The per-layer metrics, layer = crate.module. None is gated. A metric
/// that does not apply to a workload is printed as 0 in the result line
/// (the contract wants every name in every traced run) and left out of
/// the human-readable table.
pub const PER_LAYER: [MetricDef; 57] = [
    hi("compress.szx.encode_gbs", "GB/s"),
    hi("compress.szx.decode_gbs", "GB/s"),
    hi("compress.szx.fused_reduce_gbs", "GB/s"),
    hi("compress.pipe.encode_gbs", "GB/s"),
    lo("compress.floor_ms_per_op", "ms"),
    hi("compress.szx.ratio", "x"),
    lo("comm.pool.write_ns", "ns"),
    lo("comm.threaded.pingpong_us", "us"),
    lo("comm.threaded.barrier_us", "us"),
    hi("comm.threaded.stream_gbs", "GB/s"),
    lo("comm.threaded.spawn_us", "us"),
    lo("comm.profile.comdecom_ms_per_op", "ms"),
    lo("comm.profile.allgather_ms_per_op", "ms"),
    lo("comm.profile.memcpy_ms_per_op", "ms"),
    lo("comm.profile.wait_ms_per_op", "ms"),
    lo("comm.profile.reduction_ms_per_op", "ms"),
    lo("comm.profile.others_ms_per_op", "ms"),
    lo("comm.profile.msgs_per_op", "count"),
    lo("comm.profile.bytes_per_op", "B"),
    lo("comm.sim.wall_ms_per_op_p50", "ms"),
    hi("comm.sim.msgs_per_wall_s", "1/s"),
    lo("comm.sim.ctx_switches_per_op", "count"),
    lo("comm.sim.spawn_ms", "ms"),
    lo("comm.cost.predicted_ms", "virt_ms"),
    lo("comm.cost.residual", "x"),
    hi("core.reduce.apply_gbs", "GB/s"),
    hi("core.wire.encode_gbs", "GB/s"),
    hi("core.wire.decode_gbs", "GB/s"),
    lo("core.session.plan_build_us", "us"),
    lo("core.session.first_exec_ms", "ms"),
    lo("core.workspace.setup_alloc_mb", "MB"),
    lo("core.session.exec_ms_floor", "ms"),
    lo("core.session.exec_ms_p50", "ms"),
    lo("core.session.exec_ms_p90", "ms"),
    lo("core.session.exec_ms_p99", "ms"),
    hi("core.session.exec_samples", "count"),
    lo("core.session.cpu_ms_per_op", "ms"),
    lo("core.session.over_floor", "x"),
    lo("core.nonblocking.start_us", "us"),
    lo("core.nonblocking.progress_calls_per_op", "count"),
    lo("core.nonblocking.progress_us_p50", "us"),
    lo("core.nonblocking.handle_ms_floor", "ms"),
    lo("core.engine.step_ms_floor", "ms"),
    lo("core.engine.passes_per_step", "count"),
    lo("core.engine.over_sequential", "x"),
    lo("core.algorithm.pick", "id"),
    lo("core.algorithm.switches", "count"),
    lo("core.algorithm.best_pinned_virt_ms", "virt_ms"),
    lo("core.algorithm.auto_over_best", "x"),
    lo("core.session.control_virt_ms_per_op", "virt_ms"),
    lo("core.workspace.allocs_per_op", "count"),
    lo("data.fields.gen_ms", "ms"),
    lo("harness.canary_ms_floor", "ms"),
    lo("harness.canary_ms_p50", "ms"),
    lo("harness.contended_share", "%"),
    lo("trace.overhead_pct", "%"),
    lo("trace.spans_dropped", "count"),
];

/// The number `core.algorithm.pick` reports for a resolved algorithm.
pub fn algorithm_id(a: Algorithm) -> f64 {
    match a {
        Algorithm::Auto => 0.0,
        Algorithm::Ring => 1.0,
        Algorithm::RecursiveDoubling => 2.0,
        Algorithm::Rabenseifner => 3.0,
        Algorithm::Hierarchical => 4.0,
        Algorithm::Binomial => 5.0,
        Algorithm::Bruck => 6.0,
        Algorithm::Pairwise => 7.0,
    }
}

fn metric_json(m: &MetricDef) -> String {
    let mut s = format!(
        "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
        escape(m.name),
        escape(m.unit),
        m.better.label()
    );
    if let Some(b) = m.bound {
        s.push_str(&format!(", \"bound\": {b}"));
    }
    s.push('}');
    s
}

/// The exact contents of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let list = |items: Vec<String>| -> String {
        items
            .iter()
            .map(|i| format!("    {i}"))
            .collect::<Vec<_>>()
            .join(",\n")
    };
    let command = COMMAND
        .iter()
        .map(|c| format!("\"{}\"", escape(c)))
        .collect::<Vec<_>>()
        .join(", ");
    let workloads = list(
        WORKLOADS
            .iter()
            .map(|w| {
                format!(
                    "{{\"name\": \"{}\", \"why\": \"{}\"}}",
                    escape(w.name),
                    escape(w.why)
                )
            })
            .collect(),
    );
    let end_to_end = list(END_TO_END.iter().map(metric_json).collect());
    let per_layer = list(PER_LAYER.iter().map(metric_json).collect());
    format!(
        "{{\n  \"command\": [{command}],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \
         \"workloads\": [\n{workloads}\n  ],\n  \"end_to_end\": [\n{end_to_end}\n  ],\n  \
         \"per_layer\": [\n{per_layer}\n  ]\n}}\n"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checked_in_benchmark_json_matches_the_tables() {
        assert_eq!(
            benchmark_json(),
            include_str!("../../BENCHMARK.json"),
            "regenerate with `--print-benchmark-json > BENCHMARK.json`"
        );
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        let ok = |s: &str, extra: &str, max: usize| {
            !s.is_empty()
                && s.len() <= max
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
        };
        for n in &names {
            assert!(ok(n, "_.-", 64), "bad name {n}");
            assert!(n.chars().next().unwrap().is_ascii_alphanumeric());
        }
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "a name is used twice");
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(ok(m.unit, "_/%.-", 16), "bad unit {}", m.unit);
        }
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'));
        }
        assert!(END_TO_END.iter().all(|m| m.bound.unwrap() <= 0.25));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound.unwrap() <= setup.bound.unwrap()));
        assert!(benchmark_json().len() < 64 * 1024);
    }
}
