//! The ECAD master process: steady-state evolution over a worker pool.
//!
//! "The Master process orchestrates the evaluation process by
//! distributing the co-design population and by evaluating the results"
//! (§III-A). The engine here is that master:
//!
//! * a **steady-state** population model \[16\]: one child is bred and
//!   one member replaced per step, rather than generational sweeps;
//! * **tournament selection** for parents and worst-of-tournament
//!   replacement for survivors;
//! * a **worker pool** over `rt::sync` channels: every slot runs one
//!   claim → evaluate → report loop over a transport — the shared
//!   [`Evaluator`] in process, or a framed session with one remote
//!   worker ([`crate::cluster`]) — and reports on one result channel;
//! * a **dedup cache**: "potential NNA/HW candidates are first analyzed
//!   for similarities to previous evaluations and duplicates are not
//!   evaluated twice" (Table III note). Cache hits cost no evaluation
//!   budget;
//! * **failure isolation**: a panicking evaluation is caught in the
//!   worker and surfaces as an infeasible measurement, not a crashed
//!   search;
//! * **deadlines and retries**: each dispatch runs under an optional
//!   per-evaluation deadline (`eval_timeout`); failures classified
//!   [`FailureKind::Transient`] (panics, timeouts, explicit transients)
//!   are retried with seeded jittered exponential backoff up to
//!   `max_retries`, while [`FailureKind::Permanent`] verdicts are
//!   cached and scored as-is;
//! * **worker supervision**: workers run in `rt::supervise` slots, so a
//!   slot whose evaluation stalls past its deadline is abandoned and
//!   respawned, and its late result (if any) is dropped as stale;
//! * **checkpoint/resume**: with a [`CheckpointPolicy`] attached, the
//!   full master state is snapshotted every N unique evaluations and on
//!   halt, and [`Engine::resume`] continues a seeded single-thread run
//!   byte-identically (DESIGN.md §12). Work pending at the snapshot
//!   re-enters the ledger's one retry queue, ready immediately.
//!
//! All of the loop's mutable state — RNG, population, trace, cache,
//! unsubmitted seeds, counters, ledger, epoch tracker — lives in one
//! private `Master` value owned by the run; dispatch, retry, finalize,
//! checkpoint, and statistics are its methods.
//!
//! With `threads = 1` the whole search is deterministic for a fixed
//! seed; more threads trade determinism for wall-clock speed (result
//! arrival order feeds back into breeding).

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rt::obs::{Counter, Gauge, HistogramHandle, Obs};
use rt::rand::rngs::StdRng;
use rt::rand::{Rng, RngCore, SeedableRng};
use rt::supervise::{ShutdownFlag, Supervisor};
use rt::sync::channel::{self, Receiver, RecvTimeoutError, Sender};

use crate::analytics::{
    AnalyticsConfig, EpochTracker, OperatorKind, PopulationSnapshot, StatusCell,
};
use crate::checkpoint::{CheckpointError, CheckpointPolicy, CheckpointState, Counters, PendingJob};
use crate::cluster::{ClusterHealth, ClusterPlan, RemoteTransport};
use crate::fitness::ObjectiveSet;
use crate::genome::CandidateGenome;
use crate::measurement::{FailureKind, InfeasibleReason, Measurement};
use crate::protocol::{DispatchLedger, Job, ResultClass};
use crate::space::SearchSpace;
use crate::workers::{evaluate_guarded, Evaluator};

/// How the steady-state loop selects survivors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SelectionMode {
    /// Weighted-sum scalarization of the objective set (the paper's
    /// configuration-file fitness path). Cheap and effective when the
    /// weights express the intended trade.
    WeightedScalar,
    /// NSGA-II style survival: the child joins the population, then the
    /// individual with the worst (non-domination rank, crowding
    /// distance) is evicted. Maintains a diverse Pareto frontier without
    /// hand-tuned weights — an extension of the paper's Pareto analysis
    /// into the selection loop itself.
    Nsga2,
}

/// Steady-state GA hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvolutionConfig {
    /// Population size.
    pub population: usize,
    /// Budget of *unique* model evaluations (cache hits are free),
    /// including the initial population.
    pub evaluations: usize,
    /// Tournament size for selection and replacement.
    pub tournament: usize,
    /// Probability a child is produced by crossover (otherwise a mutated
    /// copy of one parent).
    pub crossover_rate: f64,
    /// RNG seed for the whole search.
    pub seed: u64,
    /// Worker threads. `1` gives a deterministic search.
    pub threads: usize,
    /// Survivor-selection strategy.
    pub selection: SelectionMode,
    /// Per-evaluation deadline. A dispatch that has not reported by
    /// then is abandoned (its slot respawned) and treated as a
    /// transient failure. `None` disables deadlines.
    pub eval_timeout: Option<Duration>,
    /// How many times a transiently failed candidate (panic, timeout,
    /// explicit transient) is re-dispatched before its last verdict is
    /// accepted. Retries cost no unique-evaluation budget.
    pub max_retries: usize,
    /// Base delay before the first retry; doubles per attempt with
    /// ±50% deterministic jitter seeded from the search seed and the
    /// candidate's cache key.
    pub retry_backoff: Duration,
    /// Epoch analytics: snapshot cadence and stall-detector policy
    /// (see [`crate::analytics`]).
    pub analytics: AnalyticsConfig,
}

impl EvolutionConfig {
    /// Small-budget defaults suitable for interactive runs.
    pub fn small() -> Self {
        Self {
            population: 16,
            evaluations: 120,
            tournament: 3,
            crossover_rate: 0.5,
            seed: 0,
            threads: 1,
            selection: SelectionMode::WeightedScalar,
            eval_timeout: None,
            max_retries: 2,
            retry_backoff: Duration::from_millis(5),
            analytics: AnalyticsConfig::default(),
        }
    }
}

impl Default for EvolutionConfig {
    fn default() -> Self {
        Self::small()
    }
}

/// An evaluated candidate as held in the population and trace.
#[derive(Debug, Clone)]
pub struct Evaluated {
    /// The candidate's genes.
    pub genome: CandidateGenome,
    /// Raw worker measurement.
    pub measurement: Measurement,
    /// Scalarized fitness (larger is better).
    pub fitness: f64,
}

/// Coordinator-observed latency estimate for one remote worker — the
/// hook for future speed-aware scheduling. Quantiles come from the
/// engine's per-worker log-histograms, so they cost nothing extra on
/// the hot path.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerLatency {
    /// Worker address (`host:port`).
    pub addr: String,
    /// Successful jobs measured.
    pub jobs: u64,
    /// Median job round-trip, seconds (dispatch → evaluated).
    pub p50_s: f64,
    /// 95th-percentile job round-trip, seconds.
    pub p95_s: f64,
}

/// Run-time statistics in the shape of the paper's Table III.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineStats {
    /// Unique NNA/HW combinations evaluated.
    pub models_evaluated: usize,
    /// Candidates served from the dedup cache instead of re-evaluating.
    pub cache_hits: usize,
    /// Sum of per-evaluation times, seconds (Table III "Total Evaluation
    /// Time").
    pub total_eval_time_s: f64,
    /// Mean per-evaluation time, seconds (Table III "AVG Model
    /// Evaluation Time").
    pub avg_eval_time_s: f64,
    /// Wall-clock time of the whole search, seconds.
    pub wall_time_s: f64,
    /// Unique evaluations that came back infeasible (device-fit,
    /// training failure, target mismatch, or worker panic).
    pub infeasible_count: usize,
    /// Sum of per-evaluation seconds spent in the simulation worker's
    /// training stage.
    pub train_time_s: f64,
    /// Sum of per-evaluation seconds spent in the hardware models.
    pub hw_time_s: f64,
    /// Transient failures (panics, timeouts, explicit transients) that
    /// were scheduled for another attempt.
    pub retry_count: usize,
    /// Dispatches abandoned because they missed their `eval_timeout`
    /// deadline.
    pub timeout_count: usize,
    /// Worker slots abandoned and relaunched after holding a timed-out
    /// claim.
    pub respawn_count: usize,
    /// Per-remote-worker latency estimates (empty on local runs and
    /// when the metrics registry is disabled).
    pub worker_latency: Vec<WorkerLatency>,
}

/// Everything a finished search produces.
#[derive(Debug, Clone)]
pub struct EngineOutcome {
    /// Final population, unsorted.
    pub population: Vec<Evaluated>,
    /// Every unique evaluation, in completion order — the raw material
    /// for the paper's scatter plots and Pareto fronts.
    pub trace: Vec<Evaluated>,
    /// Run-time statistics.
    pub stats: EngineStats,
    /// True when the run stopped early — a shutdown request or
    /// `halt_after` boundary — rather than exhausting its budget. A
    /// halted run with a checkpoint policy attached has written a
    /// resumable checkpoint.
    pub halted: bool,
}

impl EngineOutcome {
    /// The member with the highest scalar fitness.
    pub fn best(&self) -> Option<&Evaluated> {
        self.trace.iter().max_by(|a, b| {
            a.fitness
                .partial_cmp(&b.fitness)
                .unwrap_or(std::cmp::Ordering::Equal)
        })
    }
}

/// The steady-state evolutionary engine.
pub struct Engine {
    evaluator: Arc<dyn Evaluator>,
    space: SearchSpace,
    objectives: ObjectiveSet,
    config: EvolutionConfig,
    obs: Obs,
    checkpoint: Option<CheckpointPolicy>,
    halt_after: Option<usize>,
    shutdown: ShutdownFlag,
    status: StatusCell,
    cluster: Option<Arc<ClusterPlan>>,
    cluster_health: Option<Arc<ClusterHealth>>,
}

/// The ledger payload: what travels with each dispatched evaluation
/// besides the attempt counter the protocol itself tracks.
type JobPayload = (CandidateGenome, OperatorKind);

/// The engine's concrete ledger: wall-clock deadlines over the shared
/// protocol state machine (model checks instantiate the same machine
/// with virtual-time ticks).
type EngineLedger = DispatchLedger<JobPayload, Instant>;

/// Deterministic jittered exponential backoff: base × 2^(attempt−1),
/// scaled by a factor in [0.5, 1.5) drawn from an RNG seeded by the
/// search seed, the candidate's cache key, and the attempt number —
/// never from the master RNG, so retries leave the breeding sequence
/// untouched.
fn backoff_delay(cfg: &EvolutionConfig, key: u64, attempt: usize) -> Duration {
    let exp = attempt.saturating_sub(1).min(10) as u32;
    let base = cfg.retry_backoff.saturating_mul(1u32 << exp);
    let mut rng = StdRng::seed_from_u64(
        cfg.seed ^ key ^ (attempt as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
    );
    let factor = 0.5 + (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
    base.mul_f64(factor)
}

/// Epoch-analytics gauges and the snapshot field each one mirrors.
const EPOCH_GAUGES: [(&str, fn(&PopulationSnapshot) -> f64); 8] = [
    ("search.epoch", |s| s.epoch as f64),
    ("search.best_fitness", |s| s.best_fitness),
    ("search.hypervolume", |s| s.hypervolume),
    ("search.archive_size", |s| s.archive_size as f64),
    ("search.gene_entropy_bits", |s| s.gene_entropy_bits),
    ("search.mean_distance", |s| s.mean_distance),
    ("search.cache_hit_rate", |s| s.cache_hit_rate),
    ("search.fitness_p50", |s| s.fitness.p50),
];

/// The metric handles the master loop updates, resolved once per run.
struct Instruments {
    evaluated: Counter,
    cache_hits: Counter,
    infeasible: Counter,
    retries: Counter,
    timeouts: Counter,
    respawns: Counter,
    migrants: Counter,
    eval_time: HistogramHandle,
    epoch_gauges: Vec<Gauge>,
    /// Per-epoch hypervolume, so the convergence curve's distribution
    /// survives scraping gaps.
    hypervolume_hist: HistogramHandle,
    op_rates: Vec<Gauge>,
}

impl Instruments {
    fn new(obs: &Obs) -> Self {
        Self {
            evaluated: obs.counter("engine.models_evaluated"),
            cache_hits: obs.counter("engine.cache_hits"),
            infeasible: obs.counter("engine.infeasible"),
            retries: obs.counter("engine.retries"),
            timeouts: obs.counter("engine.timeouts"),
            respawns: obs.counter("engine.respawns"),
            migrants: obs.counter("engine.migrants"),
            eval_time: obs.histogram("engine.eval_time_s"),
            epoch_gauges: EPOCH_GAUGES.iter().map(|(name, _)| obs.gauge(name)).collect(),
            hypervolume_hist: obs.histogram("search.epoch_hypervolume"),
            op_rates: OperatorKind::ALL
                .iter()
                .map(|op| obs.gauge(&format!("search.op_{}_rate", op.name())))
                .collect(),
        }
    }

    /// Mirrors an epoch snapshot into the gauges, plus the per-phase
    /// seconds of the attached profiler's top-level spans, so the
    /// `/metrics` exposition carries the time breakdown of a live
    /// search.
    fn publish(&self, snap: &PopulationSnapshot, obs: &Obs) {
        for (gauge, (_, field)) in self.epoch_gauges.iter().zip(EPOCH_GAUGES) {
            gauge.set(field(snap));
        }
        self.hypervolume_hist.record(snap.hypervolume);
        for (gauge, op) in self.op_rates.iter().zip(OperatorKind::ALL) {
            gauge.set(snap.operators.rate(op));
        }
        if let Some(profiler) = obs.profiler() {
            for (phase, secs) in profiler.phase_seconds() {
                obs.gauge(&format!("profile.phase.{phase}_s")).set(secs);
            }
        }
    }
}

/// A job on its way to a slot: dispatch id and candidate.
type SlotJob = (usize, CandidateGenome);

/// A slot's report on one job. Everything the master must observe
/// from its slots — verdicts, migrants, a slot retiring — arrives as
/// one of these on the one result channel.
pub(crate) struct Report {
    /// Supervisor index of the reporting slot. Remote slots are spawned
    /// first, so a remote slot's index is its worker index.
    pub(crate) slot: usize,
    pub(crate) id: usize,
    /// The verdict; a transport failure is a transient-infeasible one.
    pub(crate) measurement: Measurement,
    /// The evaluation panicked (the slot emits the panic warning).
    pub(crate) panicked: bool,
    /// Island elites that came back with the job, folded after its
    /// verdict.
    pub(crate) migrants: Vec<(CandidateGenome, Measurement)>,
    /// The transport is gone for good (a lost remote worker): the slot
    /// exits after this report, and the master routes nothing more to
    /// it.
    pub(crate) retired: bool,
}

/// How a slot reaches its evaluator.
enum Transport {
    /// In-process evaluation under the panic guard.
    Local(Arc<dyn Evaluator>),
    /// A framed session with one remote worker.
    Remote(RemoteTransport),
}

impl Transport {
    fn evaluate(&mut self, slot: usize, id: usize, genome: &CandidateGenome, obs: &Obs) -> Report {
        match self {
            Transport::Local(evaluator) => {
                let (measurement, panicked) = evaluate_guarded(evaluator.as_ref(), genome);
                Report {
                    slot,
                    id,
                    measurement,
                    panicked,
                    migrants: Vec::new(),
                    retired: false,
                }
            }
            Transport::Remote(remote) => remote.evaluate(slot, id, genome, obs),
        }
    }
}

/// Spawns one evaluation slot running the claim → span → evaluate →
/// release → report loop. Each generation of the slot opens its own
/// transport, so a respawned remote slot starts without a session.
/// Every slot of a run is one of these, including the local slots a
/// cluster run spawns when it loses its last remote worker.
fn spawn_slot(
    supervisor: &mut Supervisor,
    jobs: Receiver<SlotJob>,
    results: Sender<Report>,
    open: impl Fn() -> Transport + Send + Sync + 'static,
    obs: Obs,
) {
    supervisor.spawn(move |ctx| {
        let mut transport = open();
        let local = matches!(transport, Transport::Local(_));
        // Kernel-level prof_span! sites (gemm, activation, …) inside a
        // local evaluator record under the engine's tree. A remote slot
        // only waits on the wire: it never consults the profiler, so the
        // worker's own tick domain (grafted via `Stats`) stays the only
        // profile it contributes, and its span close event stays
        // byte-identical to a local slot's.
        let _prof_install = obs.profiler().filter(|_| local).map(|p| p.install());
        let mut retired = false;
        while let Ok((id, genome)) = jobs.recv() {
            ctx.claim(id as u64);
            let mut report = {
                let _span = if local {
                    rt::span!(obs, "evaluate", worker = ctx.slot(), id = id)
                } else {
                    rt::span_detached!(obs, "evaluate", worker = ctx.slot(), id = id)
                };
                let report = transport.evaluate(ctx.slot(), id, &genome, &obs);
                if report.panicked {
                    rt::warn!(
                        obs,
                        "infeasible",
                        stage = "worker",
                        reason = InfeasibleReason::WorkerPanic.kind(),
                    );
                }
                report
            };
            ctx.release(id as u64);
            // With the claim released no deadline can respawn this slot,
            // so the generation check is final. Only the current
            // generation retires the slot; an abandoned one leaves that
            // to its replacement.
            let current = ctx.is_current();
            report.retired &= current;
            retired = report.retired;
            if results.send(report).is_err() || retired || !current {
                break;
            }
        }
        // The loop's single exit. Only the slot's current generation, or
        // a slot that retired, closes a remote transport: `kill_all` plus
        // the one drain acknowledgement the master counts. An abandoned
        // generation just drops its session.
        if retired || ctx.is_current() {
            if let Transport::Remote(remote) = &mut transport {
                remote.close();
            }
        }
    });
}

/// Where dispatched jobs go. Remote jobs go to the surviving slot
/// `alive[id % alive.len()]` — `id % n` until a slot retires — a
/// deterministic assignment, so each worker's job stream (and hence
/// its ticks-clock profile subtree) is reproducible. Local slots share
/// one queue, which takes every job once no remote slot survives. The
/// master holds a receiver of every queue, so it drains a retired
/// slot's queue itself.
struct Routes {
    local: (Sender<SlotJob>, Receiver<SlotJob>),
    remote: Vec<(Sender<SlotJob>, Receiver<SlotJob>)>,
    alive: Vec<usize>,
}

impl Routes {
    fn new(remote_slots: usize) -> Self {
        Self {
            local: channel::unbounded(),
            remote: (0..remote_slots).map(|_| channel::unbounded()).collect(),
            alive: (0..remote_slots).collect(),
        }
    }

    fn route(&self, id: usize, genome: CandidateGenome) {
        let queue = match self.alive.len() {
            0 => &self.local.0,
            n => &self.remote[self.alive[id % n]].0,
        };
        queue
            .send((id, genome))
            .expect("the master holds every receiver");
    }

    /// Marks remote slot `slot` dead and re-routes the jobs still queued
    /// on it. They were never evaluated, so they move on without
    /// spending a retry. Returns whether the last remote slot retired.
    fn retire(&mut self, slot: usize) -> bool {
        let Some(at) = self.alive.iter().position(|&s| s == slot) else {
            return false;
        };
        self.alive.remove(at);
        while let Ok((id, genome)) = self.remote[slot].1.try_recv() {
            self.route(id, genome);
        }
        self.alive.is_empty()
    }
}

impl Engine {
    /// Safety valve: stop generating children after this many multiples
    /// of the evaluation budget, in case mutation keeps producing cached
    /// duplicates.
    const MAX_ATTEMPT_FACTOR: usize = 50;

    /// Creates an engine.
    ///
    /// # Panics
    ///
    /// Panics if the population, evaluations, tournament size, or thread
    /// count is zero.
    pub fn new(
        evaluator: Arc<dyn Evaluator>,
        space: SearchSpace,
        objectives: ObjectiveSet,
        config: EvolutionConfig,
    ) -> Self {
        assert!(config.population > 0, "population must be positive");
        assert!(config.evaluations > 0, "evaluation budget must be positive");
        assert!(config.tournament > 0, "tournament size must be positive");
        assert!(config.threads > 0, "need at least one worker thread");
        Self {
            evaluator,
            space,
            objectives,
            config,
            obs: Obs::disabled(),
            checkpoint: None,
            halt_after: None,
            shutdown: ShutdownFlag::new(),
            status: StatusCell::new(),
            cluster: None,
            cluster_health: None,
        }
    }

    /// Attaches an observability handle. Every master-loop decision
    /// (breeding, cache hits, tournament and replacement picks) and
    /// per-evaluation outcome is narrated through it as structured
    /// events, and the run's counters and timing histograms land in its
    /// metrics registry. Disabled by default.
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// Attaches a checkpoint policy: the full master state is written
    /// (atomically) to the policy's path every `every` unique
    /// evaluations, on any halt, and at natural completion.
    pub fn with_checkpoint(mut self, policy: CheckpointPolicy) -> Self {
        self.checkpoint = Some(policy);
        self
    }

    /// Halts the run once the trace holds `n` unique evaluations —
    /// deterministic interruption for checkpoint/resume tests and
    /// budget slicing.
    pub fn with_halt_after(mut self, n: usize) -> Self {
        self.halt_after = Some(n);
        self
    }

    /// Attaches a cooperative shutdown flag (e.g. one wired to
    /// SIGINT/SIGTERM). When it trips, the run stops at the next safe
    /// boundary, writes a checkpoint if a policy is attached, and
    /// returns with `halted = true`.
    pub fn with_shutdown(mut self, flag: ShutdownFlag) -> Self {
        self.shutdown = flag;
        self
    }

    /// Routes evaluation to remote cluster workers instead of local
    /// threads: one supervised slot per worker address, running the
    /// same slot loop as a local run over a framed TCP session
    /// ([`crate::cluster`]). Network failures are classified transient
    /// (the job retries through the ordinary ledger machinery, possibly
    /// on another worker). A worker whose reconnect budget is exhausted
    /// retires its slot: the master marks it dead and re-routes its
    /// queued jobs to the survivors without spending a retry. When every
    /// remote is lost the engine degrades to `config.threads` local
    /// in-process slots with a warning rather than dying. With an empty
    /// worker list the plan is ignored.
    pub fn with_cluster(mut self, plan: ClusterPlan) -> Self {
        if !plan.options.workers.is_empty() {
            self.cluster = Some(Arc::new(plan));
        }
        self
    }

    /// Attaches a shared status cell the engine keeps current (latest
    /// epoch snapshot, counters, checkpoint age) for the `/status`
    /// endpoint. The engine only writes to it; readers never touch
    /// engine state, so a live observer cannot perturb the search.
    pub fn with_status(mut self, status: StatusCell) -> Self {
        self.status = status;
        self
    }

    /// Attaches a shared per-worker health registry: remote slots
    /// record connect/reconnect/lost transitions and absorbed worker
    /// `Stats` into it, for the `/workers` endpoint. Like the status
    /// cell, the engine only writes; readers never perturb the search.
    pub fn with_cluster_health(mut self, health: Arc<ClusterHealth>) -> Self {
        self.cluster_health = Some(health);
        self
    }

    /// Runs the search to budget exhaustion (or until halted).
    pub fn run(&self) -> EngineOutcome {
        self.run_inner(None)
    }

    /// Continues a run from a checkpoint. For a seeded single-thread
    /// search the continuation is byte-identical to the uninterrupted
    /// run: same candidates, same trace suffix, same final population.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::Mismatch`] when the checkpoint's
    /// seed, budget, or population capacity disagree with this engine's
    /// configuration.
    pub fn resume(&self, state: CheckpointState) -> Result<EngineOutcome, CheckpointError> {
        state.validate(&self.config)?;
        Ok(self.run_inner(Some(state)))
    }

    fn run_inner(&self, restored: Option<CheckpointState>) -> EngineOutcome {
        // Master-side prof_span! sites (dispatch/breed/replace) record
        // under the engine's profile tree when one is attached.
        let _prof_install = self.obs.profiler().map(|p| p.install());
        let cfg = self.config;
        self.status.note_started();
        let mut master = Master::new(self, restored);

        let (res_tx, res_rx) = channel::unbounded::<Report>();
        let (done_tx, done_rx) = channel::unbounded::<()>();

        // Workers live in supervised slots on detached threads: a hung
        // evaluation can be abandoned (scoped threads would force a
        // join that never returns). They exit when the routes drop or
        // when their generation goes stale after a respawn. In cluster
        // mode each slot instead proxies one remote worker.
        let remote_workers = self.cluster.as_ref().map_or(0, |p| p.options.workers.len());
        let mut routes = Routes::new(remote_workers);
        let mut supervisor = Supervisor::new();
        match &self.cluster {
            Some(plan) => {
                for (index, (_, jobs)) in routes.remote.iter().enumerate() {
                    let (plan, health) = (Arc::clone(plan), self.cluster_health.clone());
                    let (done, obs) = (done_tx.clone(), self.obs.clone());
                    let open = move || {
                        let remote =
                            RemoteTransport::new(&plan, index, cfg.seed, &health, &done, &obs);
                        Transport::Remote(remote)
                    };
                    spawn_slot(
                        &mut supervisor,
                        jobs.clone(),
                        res_tx.clone(),
                        open,
                        self.obs.clone(),
                    );
                }
            }
            None => self.spawn_local_slots(&mut supervisor, &routes, &res_tx),
        }
        drop(done_tx); // remote slots hold the clones

        let mut halted = false;
        loop {
            let halt_requested = self.shutdown.is_requested()
                || self.halt_after.is_some_and(|n| master.trace.len() >= n);
            if halt_requested {
                halted = true;
                // Trace level for the same reason as "resume": the
                // halted file must be a byte-prefix of the
                // uninterrupted run's Debug-level JSONL.
                rt::trace!(self.obs, "halt", evaluations_done = master.trace.len());
                master.save_checkpoint();
                break;
            }
            // One job per configured worker while any remote survives
            // (queued jobs wait for a live slot), else one per local slot.
            let pipeline_depth = if routes.alive.is_empty() {
                cfg.threads
            } else {
                remote_workers
            };
            master.fill(&routes, pipeline_depth);
            if master.ledger.quiescent() {
                break;
            }

            // Sleep until a report arrives or the earliest deadline —
            // and, while a slot is free, the earliest retry-ready time.
            // With every slot busy a ready retry cannot be dispatched,
            // so waking for it would only spin. Every event the master
            // must observe from its slots arrives as a report.
            let wake = if master.ledger.in_flight_len() < pipeline_depth {
                master.ledger.next_wake()
            } else {
                master.ledger.next_deadline()
            };
            let received = match wake {
                None => Some(res_rx.recv().expect("worker pool alive")),
                Some(deadline) => match res_rx.recv_deadline(deadline) {
                    Ok(report) => Some(report),
                    Err(RecvTimeoutError::Timeout) => None,
                    Err(RecvTimeoutError::Disconnected) => {
                        unreachable!("supervisor retains worker senders")
                    }
                },
            };
            let Some(report) = received else {
                master.expire_overdue(&mut supervisor);
                continue;
            };
            // A retiring slot is marked dead before anything else, so
            // neither its queued jobs nor the retry its report may
            // schedule can land on it again.
            if report.retired && routes.retire(report.slot) {
                // Graceful degradation: the last remote slot retired;
                // warn and fall back to local in-process evaluation
                // rather than dying with jobs in flight.
                rt::warn!(self.obs, "cluster_degraded", local_slots = cfg.threads);
                if let Some(health) = &self.cluster_health {
                    health.set_degraded();
                }
                self.spawn_local_slots(&mut supervisor, &routes, &res_tx);
            }
            master.on_result(report.id, report.measurement);
            for (genome, measurement) in report.migrants {
                master.fold_migrant(report.slot, genome, measurement);
            }
        }
        // Idle slots drain and exit.
        drop(routes);

        // Remote slots answer the drain by killing their sessions — a
        // best-effort `kill_all` so workers wind down now instead of
        // waiting out their idle timeout. Slots are detached threads,
        // so wait (briefly, bounded) for each one's acknowledgement;
        // without this a coordinator process can exit before the
        // handshake reaches the wire. Slots that retired earlier have
        // already acknowledged.
        let grace = Instant::now() + Duration::from_secs(2);
        for _ in 0..remote_workers {
            if done_rx.recv_deadline(grace).is_err() {
                break;
            }
        }

        if !halted {
            rt::info!(
                self.obs,
                "search_end",
                models_evaluated = master.trace.len(),
                cache_hits = master.counters.cache_hits,
                infeasible = master.counters.infeasible_count,
            );
            master.save_checkpoint();
        }
        self.status
            .note_counters(master.trace.len(), &master.counters);
        self.status.note_done();
        self.obs.flush();
        let stats = master.stats();
        EngineOutcome {
            population: master.population,
            trace: master.trace,
            stats,
            halted,
        }
    }

    /// Spawns `config.threads` local slots on the shared local queue.
    fn spawn_local_slots(
        &self,
        supervisor: &mut Supervisor,
        routes: &Routes,
        results: &Sender<Report>,
    ) {
        for _ in 0..self.config.threads {
            let evaluator = Arc::clone(&self.evaluator);
            let open = move || Transport::Local(Arc::clone(&evaluator));
            spawn_slot(
                supervisor,
                routes.local.1.clone(),
                results.clone(),
                open,
                self.obs.clone(),
            );
        }
    }

    /// Emits the structured `epoch` trace event (and the `stall`
    /// warning on a detector rising edge). Every field is derived from
    /// deterministic engine state — no clocks — so seeded traces stay
    /// byte-reproducible with analytics on.
    fn emit_epoch(&self, snap: &PopulationSnapshot, stall_fired: bool) {
        rt::info!(
            self.obs,
            "epoch",
            epoch = snap.epoch,
            evaluations = snap.evaluations,
            population = snap.population,
            has_best = snap.has_best,
            best_fitness = snap.best_fitness,
            fitness_min = snap.fitness.min,
            fitness_p25 = snap.fitness.p25,
            fitness_p50 = snap.fitness.p50,
            fitness_p75 = snap.fitness.p75,
            fitness_max = snap.fitness.max,
            fitness_mean = snap.fitness.mean,
            hypervolume = snap.hypervolume,
            archive_size = snap.archive_size,
            gene_entropy_bits = snap.gene_entropy_bits,
            mean_distance = snap.mean_distance,
            cache_hit_rate = snap.cache_hit_rate,
            seed_total = snap.operators.total(OperatorKind::Seed),
            seed_entered = snap.operators.entered(OperatorKind::Seed),
            sample_total = snap.operators.total(OperatorKind::Sample),
            sample_entered = snap.operators.entered(OperatorKind::Sample),
            crossover_total = snap.operators.total(OperatorKind::Crossover),
            crossover_entered = snap.operators.entered(OperatorKind::Crossover),
            mutate_total = snap.operators.total(OperatorKind::Mutate),
            mutate_entered = snap.operators.entered(OperatorKind::Mutate),
            stalled = snap.stalled,
        );
        if stall_fired {
            rt::warn!(
                self.obs,
                "stall",
                epoch = snap.epoch,
                window = self.config.analytics.stall_window,
                hypervolume = snap.hypervolume,
                best_fitness = snap.best_fitness,
            );
        }
    }

    /// Scores a measured candidate and inserts it into the population
    /// (steady-state replacement). Returns the evaluated record plus
    /// whether it actually entered the population (filled a slot or
    /// displaced a member) — the per-operator success signal.
    fn admit(
        &self,
        genome: CandidateGenome,
        measurement: Measurement,
        population: &mut Vec<Evaluated>,
        rng: &mut StdRng,
    ) -> (Evaluated, bool) {
        let _prof = rt::prof_span!("replace");
        let fitness = self.objectives.scalar(&measurement);
        let eval = Evaluated {
            genome,
            measurement,
            fitness,
        };
        if population.len() < self.config.population {
            population.push(eval.clone());
            return (eval, true);
        }
        match self.config.selection {
            SelectionMode::WeightedScalar => {
                // Worst-of-tournament replacement: the child replaces
                // the weakest of `tournament` random members if it
                // beats them.
                let worst_idx = (0..self.config.tournament)
                    .map(|_| rng.gen_range(0..population.len()))
                    .min_by(|&a, &b| {
                        population[a]
                            .fitness
                            .partial_cmp(&population[b].fitness)
                            .unwrap_or(std::cmp::Ordering::Equal)
                    })
                    .expect("tournament >= 1");
                let replaced = eval.fitness > population[worst_idx].fitness;
                rt::trace!(
                    self.obs,
                    "replace",
                    victim = worst_idx,
                    victim_fitness = population[worst_idx].fitness,
                    replaced = replaced,
                );
                if replaced {
                    population[worst_idx] = eval.clone();
                }
                (eval, replaced)
            }
            SelectionMode::Nsga2 => {
                // Child joins, then the (rank, crowding)-worst member
                // is evicted. The child "entered" unless it was itself
                // the evicted member (it sat at the last index).
                population.push(eval.clone());
                let evict = Self::nsga2_worst(&self.rank_keys(population));
                rt::trace!(self.obs, "replace", victim = evict, replaced = true);
                let entered = evict != population.len() - 1;
                population.swap_remove(evict);
                (eval, entered)
            }
        }
    }

    /// Oriented objective vectors for ranking; infeasible candidates map
    /// to `-inf` everywhere so they always land in the last front.
    fn rank_keys(&self, population: &[Evaluated]) -> Vec<Vec<f64>> {
        population
            .iter()
            .map(|e| {
                if e.measurement.hw.is_feasible() {
                    self.objectives.oriented_values(&e.measurement)
                } else {
                    vec![f64::NEG_INFINITY; self.objectives.objectives().len()]
                }
            })
            .collect()
    }

    /// Index of the NSGA-II-worst point: last non-domination front,
    /// lowest crowding distance within it.
    fn nsga2_worst(points: &[Vec<f64>]) -> usize {
        let fronts = crate::pareto::non_dominated_sort(points);
        let last = fronts.last().expect("nonempty population");
        let members: Vec<Vec<f64>> = last.iter().map(|&i| points[i].clone()).collect();
        let crowding = crate::pareto::crowding_distance(&members);
        last.iter()
            .copied()
            .zip(crowding)
            .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(i, _)| i)
            .expect("last front nonempty")
    }

    /// Breeds one child from the current population (or samples fresh if
    /// the population is still too small), tagging it with the operator
    /// that produced it for the epoch analytics.
    fn breed(&self, population: &[Evaluated], rng: &mut StdRng) -> (CandidateGenome, OperatorKind) {
        let _prof = rt::prof_span!("breed");
        if population.len() < 2 {
            rt::trace!(self.obs, "breed", method = "sample");
            return (self.space.sample(rng), OperatorKind::Sample);
        }
        let a = self.tournament_select(population, rng);
        let (child, op) = if rng.gen_bool(self.config.crossover_rate) {
            rt::trace!(self.obs, "breed", method = "crossover");
            let b = self.tournament_select(population, rng);
            (
                self.space.crossover(&a.genome, &b.genome, rng),
                OperatorKind::Crossover,
            )
        } else {
            rt::trace!(self.obs, "breed", method = "mutate");
            (a.genome.clone(), OperatorKind::Mutate)
        };
        (self.space.mutate(&child, rng), op)
    }

    fn tournament_select<'a>(
        &self,
        population: &'a [Evaluated],
        rng: &mut StdRng,
    ) -> &'a Evaluated {
        let picks: Vec<&Evaluated> = (0..self.config.tournament)
            .map(|_| &population[rng.gen_range(0..population.len())])
            .collect();
        let winner = match self.config.selection {
            SelectionMode::WeightedScalar => picks
                .into_iter()
                .max_by(|a, b| {
                    a.fitness
                        .partial_cmp(&b.fitness)
                        .unwrap_or(std::cmp::Ordering::Equal)
                })
                .expect("tournament >= 1"),
            SelectionMode::Nsga2 => {
                // Crowded tournament: a non-dominated pick wins.
                let cloned: Vec<Evaluated> = picks.iter().map(|e| (*e).clone()).collect();
                let keys = self.rank_keys(&cloned);
                let fronts = crate::pareto::non_dominated_sort(&keys);
                picks[fronts[0][0]]
            }
        };
        rt::trace!(
            self.obs,
            "tournament",
            size = self.config.tournament,
            winner_fitness = winner.fitness,
        );
        winner
    }
}

/// The master loop's mutable state, owned by one [`Engine::run_inner`]
/// call. The paper's master breeds, dispatches, dedups, and admits;
/// each of those is a method here, and a checkpoint is a snapshot of
/// exactly these fields.
struct Master<'e> {
    engine: &'e Engine,
    rng: StdRng,
    population: Vec<Evaluated>,
    /// Every unique evaluation, in completion order.
    trace: Vec<Evaluated>,
    /// Final verdicts by genome cache key (the dedup cache).
    cache: HashMap<u64, Measurement>,
    /// Initial-population genomes not yet submitted, next one last.
    seeds: Vec<CandidateGenome>,
    counters: Counters,
    /// In-flight dispatches and the one retry queue — which also holds
    /// work restored from a checkpoint.
    ledger: EngineLedger,
    tracker: EpochTracker,
    /// Wall-clock seconds spent before this run started (resumes).
    prior_wall: f64,
    start: Instant,
    metrics: Instruments,
}

impl<'e> Master<'e> {
    /// A fresh master (seeding the initial population) or one restored
    /// from a checkpoint. Restored pending work — in flight or awaiting
    /// retry when the checkpoint was written — re-enters the ledger's
    /// retry queue ready immediately; its unique budget is already
    /// counted.
    fn new(engine: &'e Engine, restored: Option<CheckpointState>) -> Self {
        let cfg = engine.config;
        let mut master = Master {
            engine,
            rng: StdRng::seed_from_u64(cfg.seed),
            population: Vec::with_capacity(cfg.population),
            trace: Vec::new(),
            cache: HashMap::new(),
            seeds: Vec::new(),
            counters: Counters::default(),
            ledger: EngineLedger::new(),
            tracker: EpochTracker::new(cfg.analytics, cfg.population),
            prior_wall: 0.0,
            start: Instant::now(),
            metrics: Instruments::new(&engine.obs),
        };
        match restored {
            Some(state) => {
                let revive = |(genome, measurement): (CandidateGenome, Measurement)| {
                    // Fitness is recomputed rather than serialized:
                    // infeasible candidates carry -inf, which JSON
                    // cannot represent.
                    let fitness = engine.objectives.scalar(&measurement);
                    Evaluated {
                        genome,
                        measurement,
                        fitness,
                    }
                };
                master.rng = StdRng::from_raw_state(state.rng_state, state.rng_inc);
                master.population = state.population.into_iter().map(revive).collect();
                master.trace = state.trace.into_iter().map(revive).collect();
                // Rebuild the epoch tracker by silently replaying the
                // restored trace in epoch-sized chunks: archive, best,
                // and stall history end up exactly as the uninterrupted
                // run's, so the next epoch event is bit-identical.
                master.tracker.set_operator_totals(state.op_counters);
                master.tracker.replay(master.trace.iter().map(|e| {
                    let oriented = if e.fitness.is_finite() {
                        engine.objectives.oriented_values(&e.measurement)
                    } else {
                        Vec::new()
                    };
                    (oriented, e.fitness)
                }));
                master.cache = state.cache.into_iter().collect();
                master.seeds = state.seeds_remaining;
                master.counters = state.counters;
                master.prior_wall = state.wall_time_s;
                for job in state.pending {
                    master
                        .ledger
                        .schedule_retry(master.start, job.attempt, (job.genome, job.op));
                }
                // Trace level on purpose: the resumed run's Debug-level
                // JSONL must continue the interrupted file byte-for-byte,
                // so no extra Debug+ event may appear here (and no second
                // search_start).
                rt::trace!(engine.obs, "resume", evaluations_done = master.trace.len());
            }
            None => {
                rt::info!(
                    engine.obs,
                    "search_start",
                    target = engine.evaluator.target_name(),
                    population = cfg.population,
                    evaluations = cfg.evaluations,
                    tournament = cfg.tournament,
                    seed = cfg.seed,
                    threads = cfg.threads,
                    selection = match cfg.selection {
                        SelectionMode::WeightedScalar => "weighted-scalar",
                        SelectionMode::Nsga2 => "nsga2",
                    },
                );
                master.seeds = (0..cfg.population.min(cfg.evaluations))
                    .map(|_| engine.space.sample(&mut master.rng))
                    .collect();
                master.seeds.reverse(); // pop() takes them in creation order
            }
        }
        master
    }

    fn wall_time_s(&self) -> f64 {
        self.prior_wall + self.start.elapsed().as_secs_f64()
    }

    /// Records a job in the ledger under the next dispatch id and hands
    /// it to a slot.
    fn dispatch(
        &mut self,
        routes: &Routes,
        genome: CandidateGenome,
        attempt: usize,
        op: OperatorKind,
    ) -> usize {
        let id = self.counters.next_id;
        self.counters.next_id += 1;
        let deadline = self.engine.config.eval_timeout.map(|t| Instant::now() + t);
        self.ledger
            .dispatch(id as u64, (genome.clone(), op), attempt, deadline);
        routes.route(id, genome);
        id
    }

    /// Tops the pipeline up to `depth` in-flight jobs: retries whose
    /// backoff has elapsed first, then fresh candidates — remaining
    /// seeds, then bred children. Fresh duplicates are served from the
    /// dedup cache on the spot, at no budget and no worker round-trip.
    fn fill(&mut self, routes: &Routes, depth: usize) {
        let engine = self.engine;
        let cfg = engine.config;
        let now = Instant::now();
        while self.ledger.in_flight_len() < depth {
            let Some((attempt, (genome, op))) = self.ledger.pop_ready_retry(now) else {
                break;
            };
            let key = format!("{:016x}", genome.cache_key());
            let id = self.dispatch(routes, genome, attempt, op);
            // Attempt 0 is restored work that never reported.
            if attempt == 0 {
                rt::debug!(engine.obs, "submit", id = id, key = key);
            } else {
                rt::warn!(engine.obs, "retry", id = id, attempt = attempt, key = key);
            }
        }
        let max_attempts = cfg.evaluations * Engine::MAX_ATTEMPT_FACTOR;
        while self.ledger.in_flight_len() < depth
            && self.counters.submitted_unique < cfg.evaluations
            && self.counters.attempts < max_attempts
        {
            let (genome, op) = {
                // Scoped to candidate selection only: the span must
                // close before the job is handed to the pool, so
                // master-side clock reads never overlap a running
                // worker (which would make ticks-clock profiles depend
                // on thread interleaving).
                let _prof = rt::prof_span!("dispatch");
                match self.seeds.pop() {
                    Some(g) => (g, OperatorKind::Seed),
                    None => engine.breed(&self.population, &mut self.rng),
                }
            };
            self.counters.attempts += 1;
            let key = genome.cache_key();
            if let Some(cached) = self.cache.get(&key) {
                self.counters.cache_hits += 1;
                self.metrics.cache_hits.inc();
                rt::debug!(engine.obs, "cache_hit", key = format!("{key:016x}"));
                let (_, entered) =
                    engine.admit(genome, cached.clone(), &mut self.population, &mut self.rng);
                // A cached duplicate still says something about its
                // operator's usefulness; it is not re-appended to the
                // trace, since Table III counts unique models.
                self.tracker.record_op(op, entered);
                continue;
            }
            // Emit before handing the genome to the pool: with one
            // thread the master then blocks on recv, so the worker's
            // own events always land after this line — the property
            // that makes seeded traces replayable.
            rt::debug!(
                engine.obs,
                "submit",
                id = self.counters.next_id,
                key = format!("{key:016x}"),
            );
            self.counters.submitted_unique += 1;
            self.dispatch(routes, genome, 0, op);
        }
    }

    /// Handles a slot's report for dispatch `id`: a stale report drops,
    /// a transient failure with retry budget left is retried, and
    /// anything else is finalized.
    fn on_result(&mut self, id: usize, measurement: Measurement) {
        let job = match self.ledger.take_result(id as u64) {
            ResultClass::Stale => {
                // A timed-out dispatch finally reported; its verdict
                // was already decided.
                rt::trace!(self.engine.obs, "late_result", id = id);
                return;
            }
            ResultClass::Fresh(job) => job,
            ResultClass::Unknown => unreachable!("result for in-flight id"),
        };
        self.counters.total_eval_time_s += measurement.eval_time_s;
        self.counters.train_time_s += measurement.train_time_s;
        self.counters.hw_time_s += measurement.hw_time_s;
        self.metrics.eval_time.record(measurement.eval_time_s);
        if measurement.failure_kind() == Some(FailureKind::Transient)
            && job.attempt < self.engine.config.max_retries
        {
            self.schedule_retry(job, Instant::now());
        } else {
            let (genome, op) = job.payload;
            self.finalize(id, genome, measurement, op);
        }
    }

    /// Deadline pass: abandons every overdue dispatch (the ledger marks
    /// each id stale so a late result drops on receipt), respawns the
    /// slot wedged inside it, and retries the job or finalizes it as
    /// timed out.
    fn expire_overdue(&mut self, supervisor: &mut Supervisor) {
        let engine = self.engine;
        let now = Instant::now();
        for (id, job) in self.ledger.expire(now) {
            let id = id as usize;
            self.counters.timeout_count += 1;
            self.metrics.timeouts.inc();
            rt::warn!(engine.obs, "eval_timeout", id = id, attempt = job.attempt);
            if let Some(slot) = supervisor.claimed_slot(id as u64) {
                supervisor.record_stall();
                supervisor.respawn(slot);
                self.counters.respawn_count += 1;
                self.metrics.respawns.inc();
                rt::warn!(engine.obs, "worker_respawn", slot = slot, id = id);
            }
            if job.attempt < engine.config.max_retries {
                self.schedule_retry(job, now);
            } else {
                let mut m = Measurement::infeasible(InfeasibleReason::EvalTimeout);
                // The wait itself is wall clock spent on this candidate.
                m.eval_time_s = engine.config.eval_timeout.map_or(0.0, |t| t.as_secs_f64());
                self.counters.total_eval_time_s += m.eval_time_s;
                let (genome, op) = job.payload;
                self.finalize(id, genome, m, op);
            }
        }
    }

    /// Queues the next attempt of a transiently failed job behind its
    /// seeded backoff.
    fn schedule_retry(&mut self, job: Job<JobPayload>, now: Instant) {
        let attempt = job.attempt + 1;
        let delay = backoff_delay(&self.engine.config, job.payload.0.cache_key(), attempt);
        self.counters.retry_count += 1;
        self.metrics.retries.inc();
        self.ledger
            .schedule_retry(now + delay, attempt, job.payload);
    }

    /// Admits a final verdict: counts and caches it (transient verdicts
    /// — an exhausted retry budget — stay out of the cache, so a later
    /// duplicate gets a fresh chance), runs steady-state replacement,
    /// appends it to the trace, and fires whatever the new trace length
    /// makes due: an epoch snapshot, the status update, a periodic
    /// checkpoint.
    fn finalize(
        &mut self,
        id: usize,
        genome: CandidateGenome,
        measurement: Measurement,
        op: OperatorKind,
    ) {
        let engine = self.engine;
        self.metrics.evaluated.inc();
        if !measurement.hw.is_feasible() {
            self.counters.infeasible_count += 1;
            self.metrics.infeasible.inc();
        }
        if measurement.failure_kind() != Some(FailureKind::Transient) {
            self.cache.insert(genome.cache_key(), measurement.clone());
        }
        let (eval, entered) =
            engine.admit(genome, measurement, &mut self.population, &mut self.rng);
        self.tracker.record_op(op, entered);
        if eval.fitness.is_finite() {
            self.tracker.observe(
                &engine.objectives.oriented_values(&eval.measurement),
                eval.fitness,
            );
        }
        rt::info!(
            engine.obs,
            "evaluated",
            id = id,
            accuracy = eval.measurement.accuracy,
            fitness = eval.fitness,
            feasible = eval.measurement.hw.is_feasible(),
        );
        self.trace.push(eval);
        if self.tracker.should_snapshot(self.trace.len()) {
            let (snap, stall_fired) =
                self.tracker
                    .snapshot(self.trace.len(), &self.population, self.counters.cache_hits);
            engine.emit_epoch(&snap, stall_fired);
            self.metrics.publish(&snap, &engine.obs);
            engine.status.note_snapshot(snap);
        }
        engine
            .status
            .note_counters(self.trace.len(), &self.counters);
        if engine
            .checkpoint
            .as_ref()
            .is_some_and(|policy| self.trace.len() % policy.every == 0)
        {
            self.save_checkpoint();
        }
    }

    /// Folds an island migrant from remote slot `slot` into the
    /// population. Deliberately outside the trace/budget/rng streams:
    /// migrants spend worker-side compute only, replace the current
    /// worst member deterministically, and seed the dedup cache so the
    /// coordinator never re-evaluates one.
    fn fold_migrant(&mut self, slot: usize, genome: CandidateGenome, measurement: Measurement) {
        let engine = self.engine;
        let key = genome.cache_key();
        if self.cache.contains_key(&key) {
            return;
        }
        self.cache.insert(key, measurement.clone());
        let fitness = engine.objectives.scalar(&measurement);
        self.metrics.migrants.inc();
        rt::info!(
            engine.obs,
            "migration",
            slot = slot,
            key = format!("{key:016x}"),
            fitness = fitness,
            accuracy = measurement.accuracy,
        );
        if !fitness.is_finite() {
            return;
        }
        let eval = Evaluated {
            genome,
            measurement,
            fitness,
        };
        let population = &mut self.population;
        if population.len() < engine.config.population {
            population.push(eval);
        } else if let Some(worst) = (0..population.len()).min_by(|&a, &b| {
            population[a]
                .fitness
                .partial_cmp(&population[b].fitness)
                .unwrap_or(std::cmp::Ordering::Equal)
        }) {
            if population[worst].fitness < eval.fitness {
                population[worst] = eval;
            }
        }
    }

    /// Snapshots the master state. Pending work — in-flight jobs in id
    /// order, then queued retries in FIFO order — lands in `pending`,
    /// so nothing is lost.
    fn checkpoint(&self) -> CheckpointState {
        let cfg = &self.engine.config;
        let (rng_state, rng_inc) = self.rng.raw_state();
        let pairs = |v: &[Evaluated]| {
            v.iter()
                .map(|e| (e.genome.clone(), e.measurement.clone()))
                .collect()
        };
        let mut cache: Vec<(u64, Measurement)> =
            self.cache.iter().map(|(&k, m)| (k, m.clone())).collect();
        cache.sort_by_key(|&(k, _)| k);
        CheckpointState {
            version: crate::checkpoint::FORMAT_VERSION,
            seed: cfg.seed,
            evaluations: cfg.evaluations,
            population_cap: cfg.population,
            rng_state,
            rng_inc,
            counters: self.counters,
            op_counters: self.tracker.operator_totals(),
            wall_time_s: self.wall_time_s(),
            seeds_remaining: self.seeds.clone(),
            population: pairs(&self.population),
            trace: pairs(&self.trace),
            cache,
            pending: self
                .ledger
                .pending_jobs()
                .into_iter()
                .map(|(attempt, (genome, op))| PendingJob {
                    attempt,
                    genome: genome.clone(),
                    op: *op,
                })
                .collect(),
        }
    }

    /// Writes a checkpoint when a policy is attached, downgrading
    /// failure to a warning event — a full disk must not kill a search
    /// that is otherwise healthy. The status cell learns about
    /// successful writes so `/status` can report checkpoint age.
    fn save_checkpoint(&self) {
        let engine = self.engine;
        let Some(policy) = &engine.checkpoint else {
            return;
        };
        let state = self.checkpoint();
        match state.save(&policy.path) {
            Ok(()) => {
                engine.status.note_checkpoint();
                rt::trace!(
                    engine.obs,
                    "checkpoint",
                    evaluations_done = state.trace.len(),
                    path = policy.path.display().to_string(),
                );
            }
            Err(e) => rt::warn!(engine.obs, "checkpoint_error", error = e.to_string()),
        }
    }

    /// The run's statistics in the shape of the paper's Table III.
    fn stats(&self) -> EngineStats {
        let c = &self.counters;
        let models_evaluated = self.trace.len();
        EngineStats {
            models_evaluated,
            cache_hits: c.cache_hits,
            total_eval_time_s: c.total_eval_time_s,
            avg_eval_time_s: if models_evaluated > 0 {
                c.total_eval_time_s / models_evaluated as f64
            } else {
                0.0
            },
            wall_time_s: self.wall_time_s(),
            infeasible_count: c.infeasible_count,
            train_time_s: c.train_time_s,
            hw_time_s: c.hw_time_s,
            retry_count: c.retry_count,
            timeout_count: c.timeout_count,
            respawn_count: c.respawn_count,
            // Per-remote-worker estimates, read from the histograms
            // the remote slots record (empty on local runs).
            worker_latency: self.engine.cluster.as_ref().map_or_else(Vec::new, |plan| {
                plan.options
                    .workers
                    .iter()
                    .map(|addr| {
                        let h = self.engine.obs.histogram_with(
                            "cluster.worker_eval_s",
                            &[("worker", addr.as_str())],
                        );
                        WorkerLatency {
                            addr: addr.clone(),
                            jobs: h.count(),
                            p50_s: h.quantile(0.5),
                            p95_s: h.quantile(0.95),
                        }
                    })
                    .collect()
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fitness::{Objective, ObjectiveSet};
    use crate::measurement::HwMetrics;

    /// A fast synthetic evaluator: fitness landscape is a function of
    /// the genome alone, no MLP training. Lets engine tests run in
    /// microseconds and be exactly repeatable.
    struct ToyEvaluator {
        /// Panic on genomes whose first layer has exactly this width
        /// (failure-injection hook).
        panic_on_width: Option<usize>,
    }

    impl Evaluator for ToyEvaluator {
        fn evaluate(&self, genome: &CandidateGenome) -> Measurement {
            if let Some(w) = self.panic_on_width {
                if genome.nna.layers.first().map(|l| l.neurons) == Some(w) {
                    panic!("injected failure");
                }
            }
            // "Accuracy" peaks when total neurons approach 256.
            let neurons = genome.nna.total_neurons() as f32;
            let accuracy = 1.0 - ((neurons - 256.0).abs() / 512.0).min(1.0);
            Measurement {
                accuracy,
                train_accuracy: accuracy,
                params: neurons as usize * 10,
                neurons: neurons as usize,
                hw: HwMetrics::Gpu {
                    outputs_per_s: 1e6 / (1.0 + neurons as f64),
                    efficiency: 0.01,
                    latency_s: 1e-4,
                    effective_gflops: 1.0,
                    power_w: 50.0,
                },
                eval_time_s: 1e-6,
                train_time_s: 6e-7,
                hw_time_s: 4e-7,
            }
        }

        fn target_name(&self) -> String {
            "toy".to_string()
        }
    }

    fn engine(evals: usize, seed: u64, threads: usize) -> Engine {
        let cfg = EvolutionConfig {
            population: 12,
            evaluations: evals,
            tournament: 3,
            crossover_rate: 0.5,
            seed,
            threads,
            selection: SelectionMode::WeightedScalar,
            ..EvolutionConfig::small()
        };
        Engine::new(
            Arc::new(ToyEvaluator {
                panic_on_width: None,
            }),
            SearchSpace::gpu_default(),
            ObjectiveSet::accuracy_only(),
            cfg,
        )
    }

    #[test]
    fn respects_evaluation_budget_exactly() {
        let out = engine(50, 1, 1).run();
        assert_eq!(out.stats.models_evaluated, 50);
        assert_eq!(out.trace.len(), 50);
    }

    #[test]
    fn search_improves_over_random_start() {
        let out = engine(150, 2, 1).run();
        let first_quarter_best = out.trace[..30]
            .iter()
            .map(|e| e.fitness)
            .fold(f64::MIN, f64::max);
        let overall_best = out.best().unwrap().fitness;
        assert!(overall_best >= first_quarter_best);
        // The toy optimum (256 neurons -> accuracy 1.0) should be
        // approached.
        assert!(overall_best > 0.9, "best fitness {overall_best}");
    }

    #[test]
    fn deterministic_with_one_thread() {
        let a = engine(60, 7, 1).run();
        let b = engine(60, 7, 1).run();
        let fa: Vec<f64> = a.trace.iter().map(|e| e.fitness).collect();
        let fb: Vec<f64> = b.trace.iter().map(|e| e.fitness).collect();
        assert_eq!(fa, fb);
        assert_eq!(a.best().unwrap().genome, b.best().unwrap().genome);
    }

    #[test]
    fn cache_prevents_duplicate_evaluations() {
        // Tiny space: duplicates are inevitable, so the cache must fire.
        let space = SearchSpace::gpu_default()
            .with_layers(1, 1)
            .with_neurons(4, 6);
        let cfg = EvolutionConfig {
            population: 8,
            evaluations: 40,
            tournament: 3,
            crossover_rate: 0.5,
            seed: 3,
            threads: 1,
            selection: SelectionMode::WeightedScalar,
            ..EvolutionConfig::small()
        };
        let eng = Engine::new(
            Arc::new(ToyEvaluator {
                panic_on_width: None,
            }),
            space,
            ObjectiveSet::accuracy_only(),
            cfg,
        );
        let out = eng.run();
        assert!(
            out.stats.cache_hits > 0,
            "expected cache hits in a tiny space"
        );
        // Unique evaluations cannot exceed the distinct-genome count:
        // 3 widths x 4 activations x 2 bias x 8 batches = 192 (bounded).
        assert!(out.stats.models_evaluated <= 40);
    }

    #[test]
    fn worker_panic_becomes_infeasible_candidate() {
        let space = SearchSpace::gpu_default();
        let cfg = EvolutionConfig {
            population: 8,
            evaluations: 30,
            tournament: 2,
            crossover_rate: 0.5,
            seed: 5,
            threads: 2,
            selection: SelectionMode::WeightedScalar,
            ..EvolutionConfig::small()
        };
        let eng = Engine::new(
            // Panic on a width that random sampling will hit eventually;
            // even if not hit, the search must complete.
            Arc::new(ToyEvaluator {
                panic_on_width: Some(100),
            }),
            space,
            ObjectiveSet::accuracy_only(),
            cfg,
        );
        let out = eng.run();
        assert_eq!(out.stats.models_evaluated, 30);
        // Any panicked candidates appear as infeasible in the trace.
        for e in &out.trace {
            if !e.measurement.hw.is_feasible() {
                assert_eq!(e.fitness, f64::NEG_INFINITY);
            }
        }
    }

    #[test]
    fn multithreaded_run_completes_budget() {
        let out = engine(80, 11, 4).run();
        assert_eq!(out.stats.models_evaluated, 80);
        assert!(out.population.len() <= 12);
        assert!(out.stats.wall_time_s > 0.0);
    }

    #[test]
    fn population_respects_capacity() {
        let out = engine(100, 13, 1).run();
        assert_eq!(out.population.len(), 12);
    }

    #[test]
    fn stats_time_accounting() {
        let out = engine(25, 17, 1).run();
        assert!(out.stats.total_eval_time_s > 0.0);
        assert!((out.stats.avg_eval_time_s - out.stats.total_eval_time_s / 25.0).abs() < 1e-12);
    }

    #[test]
    fn stats_track_stage_times_and_infeasibles() {
        let out = engine(25, 17, 1).run();
        // The toy evaluator reports fixed per-stage times and never
        // fails, so the totals are exact multiples.
        assert_eq!(out.stats.infeasible_count, 0);
        assert!((out.stats.train_time_s - 25.0 * 6e-7).abs() < 1e-12);
        assert!((out.stats.hw_time_s - 25.0 * 4e-7).abs() < 1e-12);
    }

    #[test]
    fn observed_run_emits_lifecycle_events_and_counters() {
        let ring = rt::obs::RingSink::new(rt::obs::Level::Trace, 8192);
        let obs = rt::obs::Obs::builder().sink(Arc::clone(&ring)).build();
        let space = SearchSpace::gpu_default()
            .with_layers(1, 1)
            .with_neurons(4, 6); // tiny space forces cache hits
        let cfg = EvolutionConfig {
            population: 8,
            evaluations: 40,
            tournament: 3,
            crossover_rate: 0.5,
            seed: 3,
            threads: 1,
            selection: SelectionMode::WeightedScalar,
            ..EvolutionConfig::small()
        };
        let out = Engine::new(
            Arc::new(ToyEvaluator {
                panic_on_width: None,
            }),
            space,
            ObjectiveSet::accuracy_only(),
            cfg,
        )
        .with_obs(obs.clone())
        .run();

        let events = ring.snapshot();
        let has = |name: &str| events.iter().any(|e| e.name == name);
        for required in [
            "search_start",
            "submit",
            "evaluated",
            "cache_hit",
            "breed",
            "tournament",
            "replace",
            "search_end",
        ] {
            assert!(has(required), "missing event kind {required:?}");
        }
        let count = |name: &str| events.iter().filter(|e| e.name == name).count();
        assert_eq!(count("submit"), out.stats.models_evaluated);
        assert_eq!(count("evaluated"), out.stats.models_evaluated);
        assert_eq!(count("cache_hit"), out.stats.cache_hits);

        // The acceptance identity: counters sum to models + cache hits.
        let metric = |name: &str| {
            obs.snapshot()
                .iter()
                .find_map(|(n, v)| match (n == name, v) {
                    (true, rt::obs::MetricValue::Counter(c)) => Some(*c),
                    _ => None,
                })
                .unwrap_or_else(|| panic!("no counter {name:?}"))
        };
        assert_eq!(
            metric("engine.models_evaluated") + metric("engine.cache_hits"),
            (out.stats.models_evaluated + out.stats.cache_hits) as u64
        );
        assert_eq!(metric("engine.infeasible"), out.stats.infeasible_count as u64);
    }

    fn numeric_field(e: &rt::obs::Event, key: &str) -> f64 {
        e.fields
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| match v {
                rt::obs::Value::F64(x) => *x,
                rt::obs::Value::U64(x) => *x as f64,
                rt::obs::Value::I64(x) => *x as f64,
                other => panic!("field {key:?} is not numeric: {other:?}"),
            })
            .unwrap_or_else(|| panic!("epoch event missing field {key:?}"))
    }

    #[test]
    fn epoch_events_fire_with_monotone_hypervolume() {
        let ring = rt::obs::RingSink::new(rt::obs::Level::Trace, 8192);
        let obs = rt::obs::Obs::builder().sink(Arc::clone(&ring)).build();
        let out = engine(60, 7, 1).with_obs(obs.clone()).run();

        let events = ring.snapshot();
        let epochs: Vec<_> = events.iter().filter(|e| e.name == "epoch").collect();
        // population 12, 60 evaluations => one epoch per population.
        assert_eq!(epochs.len(), 5);
        let mut prev_hv = 0.0;
        for (i, e) in epochs.iter().enumerate() {
            assert_eq!(numeric_field(e, "epoch") as usize, i + 1);
            assert_eq!(numeric_field(e, "evaluations") as usize, (i + 1) * 12);
            let hv = numeric_field(e, "hypervolume");
            assert!(hv >= prev_hv, "hypervolume fell: {prev_hv} -> {hv}");
            prev_hv = hv;
            assert!(numeric_field(e, "gene_entropy_bits") >= 0.0);
            assert!((0.0..=1.0).contains(&numeric_field(e, "mean_distance")));
        }
        assert!(prev_hv > 0.0, "feasible toy run must accumulate volume");

        // Operator totals account for every admission: unique
        // evaluations plus cache-hit re-admissions.
        let last = epochs.last().unwrap();
        let produced = ["seed_total", "sample_total", "crossover_total", "mutate_total"]
            .iter()
            .map(|k| numeric_field(last, k) as usize)
            .sum::<usize>();
        assert_eq!(produced, out.stats.models_evaluated + out.stats.cache_hits);

        // The metrics registry carries the epoch gauges.
        let gauge = |name: &str| {
            obs.snapshot()
                .iter()
                .find_map(|(n, v)| match (n == name, v) {
                    (true, rt::obs::MetricValue::Gauge(g)) => Some(*g),
                    _ => None,
                })
                .unwrap_or_else(|| panic!("no gauge {name:?}"))
        };
        assert_eq!(gauge("search.epoch"), 5.0);
        assert!((gauge("search.hypervolume") - prev_hv).abs() < 1e-15);
        assert!(gauge("search.best_fitness") > 0.0);
    }

    #[test]
    fn resumed_run_reports_identical_epochs() {
        let epoch_lines = |events: &[rt::obs::Event]| -> Vec<String> {
            events
                .iter()
                .filter(|e| e.name == "epoch")
                .map(|e| e.to_json(0, false).to_string())
                .collect()
        };

        let full_ring = rt::obs::RingSink::new(rt::obs::Level::Trace, 8192);
        let full_obs = rt::obs::Obs::builder().sink(Arc::clone(&full_ring)).build();
        let _ = engine(40, 47, 1).with_obs(full_obs).run();
        let full = epoch_lines(&full_ring.snapshot());
        assert_eq!(full.len(), 3); // epochs at 12, 24, 36

        let path = tmp_path("epoch-resume.json");
        let first_ring = rt::obs::RingSink::new(rt::obs::Level::Trace, 8192);
        let first_obs = rt::obs::Obs::builder().sink(Arc::clone(&first_ring)).build();
        // Halt at 20: mid-epoch, so the tracker state to rebuild is a
        // partial chunk — the hardest restore case.
        let _ = engine(40, 47, 1)
            .with_obs(first_obs)
            .with_checkpoint(CheckpointPolicy::new(&path, 5))
            .with_halt_after(20)
            .run();
        let state = CheckpointState::load(&path).unwrap();
        let resumed_ring = rt::obs::RingSink::new(rt::obs::Level::Trace, 8192);
        let resumed_obs = rt::obs::Obs::builder().sink(Arc::clone(&resumed_ring)).build();
        let _ = engine(40, 47, 1)
            .with_obs(resumed_obs)
            .resume(state)
            .unwrap();

        let mut stitched = epoch_lines(&first_ring.snapshot());
        stitched.extend(epoch_lines(&resumed_ring.snapshot()));
        assert_eq!(stitched, full, "resumed epoch events must be bit-identical");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn status_cell_tracks_run_lifecycle() {
        use rt::json::Json;
        let status = crate::analytics::StatusCell::new();
        let out = engine(24, 9, 1).with_status(status.clone()).run();
        let json = status.to_json();
        assert_eq!(json.get("running"), Some(&Json::Bool(false)));
        assert_eq!(json.get("done"), Some(&Json::Bool(true)));
        assert_eq!(
            json.get("models_evaluated").and_then(Json::as_f64),
            Some(out.stats.models_evaluated as f64)
        );
        let epoch = json.get("epoch").expect("epoch snapshot present");
        assert_eq!(epoch.get("evaluations").and_then(Json::as_f64), Some(24.0));
    }

    #[test]
    fn multiobjective_search_keeps_throughput_pressure() {
        let cfg = EvolutionConfig {
            population: 12,
            evaluations: 150,
            tournament: 3,
            crossover_rate: 0.5,
            seed: 23,
            threads: 1,
            selection: SelectionMode::WeightedScalar,
            ..EvolutionConfig::small()
        };
        let accuracy_only = Engine::new(
            Arc::new(ToyEvaluator {
                panic_on_width: None,
            }),
            SearchSpace::gpu_default(),
            ObjectiveSet::accuracy_only(),
            EvolutionConfig { seed: 23, ..cfg },
        )
        .run();
        let combined = Engine::new(
            Arc::new(ToyEvaluator {
                panic_on_width: None,
            }),
            SearchSpace::gpu_default(),
            ObjectiveSet::new(vec![
                Objective::maximize("accuracy").with_weight(0.2),
                Objective::maximize("log_throughput").with_weight(1.0),
            ]),
            cfg,
        )
        .run();
        // Toy throughput falls with neurons, so the throughput-weighted
        // search should settle on smaller networks.
        let mean_neurons = |o: &EngineOutcome| {
            o.population
                .iter()
                .map(|e| e.measurement.neurons)
                .sum::<usize>() as f64
                / o.population.len() as f64
        };
        assert!(mean_neurons(&combined) < mean_neurons(&accuracy_only));
    }

    #[test]
    fn nsga2_mode_completes_and_keeps_population_size() {
        let cfg = EvolutionConfig {
            population: 10,
            evaluations: 80,
            tournament: 3,
            crossover_rate: 0.5,
            seed: 31,
            threads: 1,
            selection: SelectionMode::Nsga2,
            ..EvolutionConfig::small()
        };
        let out = Engine::new(
            Arc::new(ToyEvaluator {
                panic_on_width: None,
            }),
            SearchSpace::gpu_default(),
            ObjectiveSet::new(vec![
                Objective::maximize("accuracy"),
                Objective::maximize("log_throughput"),
            ]),
            cfg,
        )
        .run();
        assert_eq!(out.stats.models_evaluated, 80);
        assert_eq!(out.population.len(), 10);
    }

    #[test]
    fn nsga2_population_is_more_diverse_on_the_front() {
        // The toy landscape trades accuracy (peak at 256 neurons)
        // against throughput (falls with neurons). NSGA-II should keep
        // a wider spread of neuron counts than scalarization collapses
        // to.
        let run = |selection: SelectionMode, seed: u64| {
            let cfg = EvolutionConfig {
                population: 14,
                evaluations: 200,
                tournament: 3,
                crossover_rate: 0.5,
                seed,
                threads: 1,
                selection,
                ..EvolutionConfig::small()
            };
            let out = Engine::new(
                Arc::new(ToyEvaluator {
                    panic_on_width: None,
                }),
                SearchSpace::gpu_default(),
                ObjectiveSet::new(vec![
                    Objective::maximize("accuracy"),
                    Objective::maximize("log_throughput"),
                ]),
                cfg,
            )
            .run();
            let neurons: Vec<f32> = out
                .population
                .iter()
                .map(|e| e.measurement.neurons as f32)
                .collect();
            ecad_tensor::stats::std_dev(&neurons)
        };
        // Average over a few seeds to damp run-to-run noise.
        let spread = |mode: SelectionMode| (run(mode, 1) + run(mode, 2) + run(mode, 3)) / 3.0;
        let nsga = spread(SelectionMode::Nsga2);
        let scalar = spread(SelectionMode::WeightedScalar);
        assert!(
            nsga > scalar * 0.8,
            "nsga2 spread {nsga} should not collapse below scalar spread {scalar}"
        );
    }

    #[test]
    fn nsga2_deterministic_per_seed() {
        let run = || {
            let cfg = EvolutionConfig {
                population: 8,
                evaluations: 40,
                tournament: 2,
                crossover_rate: 0.5,
                seed: 5,
                threads: 1,
                selection: SelectionMode::Nsga2,
                ..EvolutionConfig::small()
            };
            Engine::new(
                Arc::new(ToyEvaluator {
                    panic_on_width: None,
                }),
                SearchSpace::gpu_default(),
                ObjectiveSet::accuracy_only(),
                cfg,
            )
            .run()
            .trace
            .iter()
            .map(|e| e.genome.describe())
            .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    // ------------------------------------------------------------------
    // Fault tolerance: deadlines, retries, supervision, checkpoints.
    // With `retry_backoff: Duration::ZERO` and one thread, retries are
    // re-dispatched before any fresh candidate, so the FaultyEvaluator's
    // global call indices stay deterministic.
    // ------------------------------------------------------------------

    use crate::checkpoint::{CheckpointPolicy, CheckpointState};
    use crate::faults::{FaultKind, FaultSchedule, FaultyEvaluator};
    use std::time::Duration;

    fn faulty_engine(schedule: FaultSchedule, cfg: EvolutionConfig) -> Engine {
        Engine::new(
            Arc::new(FaultyEvaluator::new(
                Arc::new(ToyEvaluator {
                    panic_on_width: None,
                }),
                schedule,
            )),
            SearchSpace::gpu_default(),
            ObjectiveSet::accuracy_only(),
            cfg,
        )
    }

    fn fault_cfg(evals: usize, seed: u64) -> EvolutionConfig {
        EvolutionConfig {
            population: 4,
            evaluations: evals,
            tournament: 2,
            seed,
            retry_backoff: Duration::ZERO,
            ..EvolutionConfig::small()
        }
    }

    #[test]
    fn transient_failures_are_retried_and_counted() {
        // Calls 1 and 4 fail transiently; with zero backoff each retry
        // is the very next call and succeeds. The budget is unaffected.
        let schedule = FaultSchedule::new()
            .at(1, FaultKind::Transient)
            .at(4, FaultKind::Transient);
        let out = faulty_engine(schedule, fault_cfg(8, 41)).run();
        assert_eq!(out.stats.models_evaluated, 8);
        assert_eq!(out.stats.retry_count, 2);
        assert_eq!(out.stats.timeout_count, 0);
        assert_eq!(out.stats.respawn_count, 0);
        assert!(!out.halted);
        assert!(out.trace.iter().all(|e| e.measurement.hw.is_feasible()));
    }

    #[test]
    fn stalled_evaluation_times_out_and_respawns_the_slot() {
        // Call 2 stalls for 2s against a 50ms deadline: the dispatch is
        // abandoned (timeout + respawn), retried clean, and the stale
        // thread's late result is dropped.
        let schedule = FaultSchedule::new().at(2, FaultKind::Stall(Duration::from_secs(2)));
        let cfg = EvolutionConfig {
            eval_timeout: Some(Duration::from_millis(50)),
            ..fault_cfg(6, 42)
        };
        let out = faulty_engine(schedule, cfg).run();
        assert_eq!(out.stats.models_evaluated, 6);
        assert_eq!(out.stats.timeout_count, 1);
        assert_eq!(out.stats.respawn_count, 1);
        assert_eq!(out.stats.retry_count, 1);
        assert!(out.trace.iter().all(|e| e.measurement.hw.is_feasible()));
    }

    #[test]
    fn injected_panics_are_retried_then_succeed() {
        let schedule = FaultSchedule::new().at(3, FaultKind::Panic);
        let out = faulty_engine(schedule, fault_cfg(8, 43)).run();
        assert_eq!(out.stats.models_evaluated, 8);
        assert_eq!(out.stats.retry_count, 1);
        assert!(out.trace.iter().all(|e| e.measurement.hw.is_feasible()));
    }

    /// CPU seconds (user + system) the calling thread has consumed,
    /// from `/proc/thread-self/stat` (fields 14 and 15, in USER_HZ =
    /// 1/100 s ticks).
    #[cfg(target_os = "linux")]
    fn thread_cpu_s() -> f64 {
        let stat = std::fs::read_to_string("/proc/thread-self/stat").expect("thread stat");
        // Fields after the parenthesised command name start at field 3.
        let fields: Vec<&str> = stat[stat.rfind(')').expect("comm field") + 1..]
            .split_whitespace()
            .collect();
        let ticks: u64 = fields[11].parse::<u64>().unwrap() + fields[12].parse::<u64>().unwrap();
        ticks as f64 / 100.0
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn master_sleeps_while_every_slot_is_busy() {
        // Call 0 fails transiently and its retry becomes ready within
        // milliseconds, but by then the only slot is stalled inside
        // call 1. The master must block until that result arrives
        // instead of spinning on the retry's already-past ready time.
        let stall = Duration::from_millis(500);
        let schedule = FaultSchedule::new()
            .at(0, FaultKind::Transient)
            .at(1, FaultKind::Stall(stall));
        let cfg = EvolutionConfig {
            retry_backoff: Duration::from_millis(20),
            ..fault_cfg(2, 7)
        };
        let engine = faulty_engine(schedule, cfg);
        let before = thread_cpu_s();
        let out = engine.run();
        let burned = thread_cpu_s() - before;
        assert_eq!(out.stats.models_evaluated, 2);
        assert_eq!(out.stats.retry_count, 1);
        assert!(
            burned < stall.as_secs_f64() / 4.0,
            "master thread burned {burned:.3}s of CPU during a {stall:?} stall"
        );
    }

    #[test]
    fn exhausted_retries_accept_the_last_transient_verdict() {
        // The same candidate fails on its first try and both retries
        // (max_retries = 2 ⇒ calls 0, 1, 2 are one candidate), so its
        // transient verdict becomes final — and is NOT cached.
        let schedule = FaultSchedule::new()
            .at(0, FaultKind::Transient)
            .at(1, FaultKind::Transient)
            .at(2, FaultKind::Transient);
        let out = faulty_engine(schedule, fault_cfg(5, 44)).run();
        assert_eq!(out.stats.models_evaluated, 5);
        assert_eq!(out.stats.retry_count, 2);
        assert_eq!(out.stats.infeasible_count, 1);
        let failed: Vec<_> = out
            .trace
            .iter()
            .filter(|e| !e.measurement.hw.is_feasible())
            .collect();
        assert_eq!(failed.len(), 1);
        assert_eq!(
            failed[0].measurement.infeasible_reason().map(|r| r.kind()),
            Some("transient")
        );
    }

    #[test]
    fn panic_wall_clock_lands_in_total_eval_time() {
        // With retries disabled, the panicking attempt's verdict is
        // final; its measurement must still carry the elapsed wall
        // clock (a crashed evaluation is not free).
        let schedule = FaultSchedule::new().at(0, FaultKind::Panic);
        let cfg = EvolutionConfig {
            max_retries: 0,
            ..fault_cfg(4, 45)
        };
        let out = faulty_engine(schedule, cfg).run();
        let panicked: Vec<_> = out
            .trace
            .iter()
            .filter(|e| {
                e.measurement.infeasible_reason().map(|r| r.kind()) == Some("worker-panic")
            })
            .collect();
        assert_eq!(panicked.len(), 1);
        assert!(
            panicked[0].measurement.eval_time_s > 0.0,
            "panicked attempt must record its elapsed time"
        );
    }

    #[test]
    fn shutdown_flag_halts_before_any_work() {
        let flag = rt::supervise::ShutdownFlag::new();
        flag.request();
        let out = engine(50, 46, 1).with_shutdown(flag).run();
        assert!(out.halted);
        assert_eq!(out.stats.models_evaluated, 0);
    }

    fn tmp_path(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("ecad-engine-checkpoint");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn halt_checkpoint_resume_matches_uninterrupted_run() {
        let uninterrupted = engine(40, 47, 1).run();

        let path = tmp_path("halt-resume.json");
        let first = engine(40, 47, 1)
            .with_checkpoint(CheckpointPolicy::new(&path, 5))
            .with_halt_after(20)
            .run();
        assert!(first.halted);
        assert_eq!(first.stats.models_evaluated, 20);

        let state = CheckpointState::load(&path).unwrap();
        let resumed = engine(40, 47, 1).resume(state).unwrap();
        assert!(!resumed.halted);
        assert_eq!(resumed.stats.models_evaluated, 40);

        let describe =
            |o: &EngineOutcome| -> Vec<String> {
                o.trace.iter().map(|e| e.genome.describe()).collect()
            };
        assert_eq!(describe(&resumed), describe(&uninterrupted));
        let fitnesses = |o: &EngineOutcome| -> Vec<f64> {
            o.trace.iter().map(|e| e.fitness).collect()
        };
        assert_eq!(fitnesses(&resumed), fitnesses(&uninterrupted));
        let pop = |o: &EngineOutcome| -> Vec<String> {
            o.population.iter().map(|e| e.genome.describe()).collect()
        };
        assert_eq!(pop(&resumed), pop(&uninterrupted));
        assert_eq!(
            resumed.best().unwrap().genome,
            uninterrupted.best().unwrap().genome
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn resume_rejects_mismatched_seed() {
        let path = tmp_path("mismatch.json");
        let _ = engine(20, 48, 1)
            .with_checkpoint(CheckpointPolicy::new(&path, 5))
            .with_halt_after(10)
            .run();
        let state = CheckpointState::load(&path).unwrap();
        assert!(engine(20, 999, 1).resume(state).is_err());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn periodic_checkpoint_reflects_final_state_after_completion() {
        let path = tmp_path("periodic.json");
        let out = engine(30, 49, 1)
            .with_checkpoint(CheckpointPolicy::new(&path, 7))
            .run();
        let state = CheckpointState::load(&path).unwrap();
        assert_eq!(state.trace.len(), out.stats.models_evaluated);
        assert!(state.pending.is_empty());
        // Resuming a completed run is a no-op that returns the same
        // final population.
        let resumed = engine(30, 49, 1).resume(state).unwrap();
        assert_eq!(resumed.stats.models_evaluated, 30);
        assert_eq!(
            resumed.best().unwrap().genome,
            out.best().unwrap().genome
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn faulted_run_still_resumes_deterministically() {
        // Faults + checkpoint/resume compose: halt mid-run under a
        // transient-fault schedule, resume, and still complete the
        // budget. (Call indices shift across the restore boundary, so
        // only aggregate behavior is asserted here; byte-identity is
        // exercised by the fault-free tests above.)
        let schedule = FaultSchedule::new()
            .at(1, FaultKind::Transient)
            .at(6, FaultKind::Transient);
        let path = tmp_path("faulted-resume.json");
        let first = faulty_engine(schedule, fault_cfg(12, 50))
            .with_checkpoint(CheckpointPolicy::new(&path, 4))
            .with_halt_after(8)
            .run();
        assert!(first.halted);
        let state = CheckpointState::load(&path).unwrap();
        let resumed = faulty_engine(FaultSchedule::new(), fault_cfg(12, 50))
            .resume(state)
            .unwrap();
        assert_eq!(resumed.stats.models_evaluated, 12);
        assert_eq!(resumed.stats.retry_count, 2);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    #[should_panic(expected = "population must be positive")]
    fn zero_population_rejected() {
        let cfg = EvolutionConfig {
            population: 0,
            ..EvolutionConfig::small()
        };
        let _ = Engine::new(
            Arc::new(ToyEvaluator {
                panic_on_width: None,
            }),
            SearchSpace::gpu_default(),
            ObjectiveSet::accuracy_only(),
            cfg,
        );
    }
}
