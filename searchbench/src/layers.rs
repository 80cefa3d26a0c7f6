//! Per-layer metrics of the traced run.
//!
//! Set-up phases and candidate evaluations are timed by the benchmark
//! around public calls. The trainer and kernels have no public call
//! boundary between them, so their times come from the program's own
//! `rt::prof` spans, attached through the public `obs` handle.

use ecad_core::engine::{EngineStats, Evaluated};
use rt::bench::quantile;
use rt::prof::ProfileNode;

use crate::checks;
use crate::workload::{SetupTimings, Timing, Workload};

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Self { name, value, unit }
    }
}

/// Self-time buckets that partition the profile tree by span name.
/// Together with `trace.unattributed_s` they sum to the search time.
const PARTITION: [(&str, &[&str]); 13] = [
    ("tensor.gemm_s", &["gemm"]),
    ("tensor.gemm_bias_s", &["gemm_bias"]),
    ("tensor.gemm_at_b_s", &["gemm_at_b"]),
    ("tensor.gemm_a_bt_s", &["gemm_a_bt"]),
    ("mlp.activation_s", &["activation"]),
    ("mlp.forward_self_s", &["forward"]),
    ("mlp.backward_self_s", &["backward"]),
    ("mlp.epoch_self_s", &["epoch"]),
    (
        "hw.model_s",
        &["hw_model", "fpga_model", "gpu_model", "cpu_model"],
    ),
    ("workers.glue_self_s", &["evaluate", "train"]),
    ("engine.breed_s", &["breed"]),
    ("engine.replace_s", &["replace"]),
    ("engine.dispatch_s", &["dispatch"]),
];

const GEMMS: [&str; 4] = ["gemm", "gemm_bias", "gemm_at_b", "gemm_a_bt"];

/// `(self_ns, calls)` summed over every node named in `names`.
fn sum_named(node: &ProfileNode, names: &[&str]) -> (u64, u64) {
    let own = if names.contains(&node.name.as_str()) {
        (node.self_ns, node.calls)
    } else {
        (0, 0)
    };
    node.children.iter().fold(own, |(s, c), child| {
        let (cs, cc) = sum_named(child, names);
        (s + cs, c + cc)
    })
}

fn self_total(node: &ProfileNode) -> u64 {
    node.self_ns + node.children.iter().map(self_total).sum::<u64>()
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

fn median_of(setups: &[SetupTimings], field: impl Fn(&SetupTimings) -> f64) -> f64 {
    let values: Vec<f64> = setups.iter().map(field).collect();
    quantile(&values, 0.5).unwrap_or(0.0)
}

/// Everything the traced run measured.
pub struct TracedRun<'a> {
    pub workload: &'a Workload,
    pub setups: &'a [SetupTimings],
    pub csv_bytes: u64,
    pub timing: Timing,
    pub untraced_evals_per_s: f64,
    pub trace: &'a [Evaluated],
    pub stats: &'a EngineStats,
    pub profile: &'a ProfileNode,
    /// Per-evaluation seconds: the wrapper's spans on local runs, the
    /// returned `eval_time_s` on cluster runs.
    pub evaluate_s: &'a [f64],
    pub workers_lost: usize,
}

impl TracedRun<'_> {
    /// Evaluation slots running in parallel.
    fn slots(&self) -> f64 {
        self.workload.workers.max(1) as f64
    }

    /// Sum of the partition buckets, per slot.
    pub fn attributed_s(&self) -> f64 {
        PARTITION
            .iter()
            .map(|(_, names)| secs(sum_named(self.profile, names).0))
            .sum::<f64>()
            / self.slots()
    }

    /// Busiest worker's profiled time over the mean, from the subtrees
    /// the cluster grafts under `worker:<addr>`; 1 for a local run.
    fn busy_imbalance(&self) -> f64 {
        let busy: Vec<f64> = self
            .profile
            .children
            .iter()
            .filter(|c| c.name.starts_with("worker:"))
            .map(|c| secs(c.total_ns))
            .collect();
        if busy.is_empty() {
            return 1.0;
        }
        let mean = busy.iter().sum::<f64>() / busy.len() as f64;
        busy.iter().copied().fold(0.0, f64::max) / mean
    }

    pub fn metrics(&self) -> Vec<Metric> {
        let mut out = Vec::new();
        let mut push = |name, value, unit| out.push(Metric::new(name, value, unit));
        let s = self.setups;
        let parse_s = median_of(s, |t| t.csv_parse_s);
        push("dataset.generate_s", median_of(s, |t| t.generate_s), "s");
        push("dataset.csv_parse_s", parse_s, "s");
        let mb_per_s = if parse_s > 0.0 {
            self.csv_bytes as f64 / 1e6 / parse_s
        } else {
            0.0
        };
        push("dataset.csv_mb_per_s", mb_per_s, "MB/s");
        push("dataset.split_s", median_of(s, |t| t.split_s), "s");
        push(
            "dataset.standardize_s",
            median_of(s, |t| t.standardize_s),
            "s",
        );
        push("workers.bind_s", median_of(s, |t| t.bind_s), "s");

        let ev = self.evaluate_s;
        let q = |p| quantile(ev, p).unwrap_or(0.0);
        let evaluate_sum: f64 = ev.iter().sum();
        push("workers.evaluate_calls", ev.len() as f64, "count");
        push("workers.evaluate_p50_s", q(0.5), "s");
        push("workers.evaluate_p90_s", q(0.9), "s");
        push("workers.evaluate_max_s", q(1.0), "s");
        let train: f64 = self.trace.iter().map(|e| e.measurement.train_time_s).sum();
        let hw: f64 = self.trace.iter().map(|e| e.measurement.hw_time_s).sum();
        push("workers.train_s_sum", train, "s");
        push("workers.hw_s_sum", hw, "s");

        for (name, names) in PARTITION {
            push(name, secs(sum_named(self.profile, names).0), "s");
        }
        push(
            "mlp.epochs",
            sum_named(self.profile, &["epoch"]).1 as f64,
            "count",
        );
        push(
            "mlp.minibatches",
            sum_named(self.profile, &["backward"]).1 as f64,
            "count",
        );
        let (gemm_ns, gemm_calls) = sum_named(self.profile, &GEMMS);
        push("tensor.gemm_calls", gemm_calls as f64, "count");
        let profiled = self_total(self.profile);
        push(
            "tensor.gemm_share",
            gemm_ns as f64 / profiled.max(1) as f64,
            "frac",
        );
        let model_calls = sum_named(self.profile, &["fpga_model", "gpu_model", "cpu_model"]).1;
        push("hw.model_calls", model_calls as f64, "count");
        let feasible = self
            .trace
            .iter()
            .filter(|e| e.measurement.hw.is_feasible())
            .count();
        push(
            "hw.feasible_frac",
            feasible as f64 / self.trace.len().max(1) as f64,
            "frac",
        );

        let st = self.stats;
        let overhead = self.timing.wall_s - evaluate_sum / self.slots();
        push("engine.overhead_s", overhead, "s");
        let proposals = st.cache_hits + st.models_evaluated;
        push(
            "engine.cache_hit_frac",
            st.cache_hits as f64 / proposals.max(1) as f64,
            "frac",
        );
        push("engine.retries", st.retry_count as f64, "count");
        push("engine.timeouts", st.timeout_count as f64, "count");

        let eval_time: Vec<f64> = self
            .trace
            .iter()
            .map(|e| e.measurement.eval_time_s)
            .collect();
        let eval_sum: f64 = eval_time.iter().sum();
        push(
            "cluster.slot_busy_frac",
            eval_sum / (self.slots() * self.timing.wall_s),
            "frac",
        );
        push(
            "cluster.overhead_s",
            self.timing.wall_s - eval_sum / self.slots(),
            "s",
        );
        // Remote runs report per-worker latency; a local run is one slot
        // whose latency is its own evaluation time.
        let (imbalance, p50, p95) = if st.worker_latency.is_empty() {
            let q = |p| quantile(&eval_time, p).unwrap_or(0.0);
            (1.0, q(0.5), q(0.95))
        } else {
            let jobs: Vec<f64> = st.worker_latency.iter().map(|w| w.jobs as f64).collect();
            let mean = jobs.iter().sum::<f64>() / jobs.len() as f64;
            let max = |f: fn(&ecad_core::engine::WorkerLatency) -> f64| {
                st.worker_latency.iter().map(f).fold(0.0, f64::max)
            };
            (
                jobs.iter().copied().fold(0.0, f64::max) / mean.max(1.0),
                max(|w| w.p50_s),
                max(|w| w.p95_s),
            )
        };
        push("cluster.jobs_imbalance", imbalance, "ratio");
        push("cluster.busy_imbalance", self.busy_imbalance(), "ratio");
        push("cluster.worker_eval_p50_s", p50, "s");
        push("cluster.worker_eval_p95_s", p95, "s");
        push("cluster.workers_lost", self.workers_lost as f64, "count");

        push("workers.panics", checks::panics(self.trace) as f64, "count");

        let traced_evals_per_s = self.trace.len() as f64 / self.timing.running_s();
        push("trace.search_s", self.timing.wall_s, "s");
        let stolen = self.timing.stolen_s / self.timing.wall_s;
        push("host.stolen_frac", stolen, "frac");
        push(
            "trace.unattributed_s",
            self.timing.wall_s - self.attributed_s(),
            "s",
        );
        push(
            "trace.overhead_frac",
            1.0 - traced_evals_per_s / self.untraced_evals_per_s,
            "frac",
        );
        out
    }
}
