//! Distributed coordinator/worker evaluation over TCP.
//!
//! The paper's master/worker split (§III-A) crosses machine boundaries
//! here: `ecad cluster worker --listen ADDR` turns a host into a
//! genome-evaluation server, and a coordinator search routes its
//! [`crate::protocol::DispatchLedger`] dispatches to those workers
//! through the engine's one slot loop over a remote transport — the
//! fault-tolerance substrate from the local engine (deadlines, retries,
//! stale fencing, respawn) applies unchanged, because a remote worker
//! is just a slot whose evaluation happens to traverse a socket.
//!
//! ## Wire protocol
//!
//! Messages are length-prefixed [`rt::json`] frames ([`rt::net`]) with
//! a versioned hello handshake. One connection is one *session*:
//!
//! ```text
//! coordinator                         worker
//!   ── hello {version, role} ──────────▶
//!   ◀───────── hello {version, role} ──
//!   ── Setup {datasets, trainer, …} ───▶
//!   ◀───────────────── Ready {stamp} ──
//!   ── Evaluate {id, stamp, genome} ───▶
//!   ◀── Evaluated {id, stamp, m, ev} ──     (repeated)
//!   ── KillAll ────────────────────────▶
//!   ◀──────────────────────────── Bye ──
//! ```
//!
//! [`SetupPayload`] ships everything an evaluation needs — the
//! standardized train/test split, trainer hyperparameters and the
//! catalog device — so the worker process needs no filesystem or
//! configuration of its own. Workers only evaluate: breeding and
//! ranking stay on the coordinator. The
//! `stamp` is a per-session generation nonce: every `Evaluated` echoes
//! it, and the coordinator drops responses whose stamp (or job id)
//! does not match the current session — stale-result fencing one layer
//! below the ledger's own id fencing.
//!
//! ## Determinism
//!
//! The worker runs each evaluation under an [`Obs`] whose only sink is
//! a [`CaptureSink`]; the captured events (training/hardware-model
//! spans, infeasibility warnings) ride back in the `Evaluated`
//! response and are replayed verbatim on the coordinator inside its
//! own `evaluate` span. A seeded single-worker cluster run therefore
//! produces a Debug-level JSONL trace byte-identical to the local
//! engine's (absent an attached profiler).

use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ecad_dataset::Dataset;
use ecad_hw::cpu::CpuDevice;
use ecad_hw::fpga::FpgaDevice;
use ecad_hw::gpu::GpuDevice;
use ecad_mlp::{OptimizerKind, TrainConfig};
use ecad_tensor::Matrix;
use rt::json::{get_array, get_f64, get_hex_u64, get_str, get_usize, Json};
use rt::net::{Conn, Listener, NetError};
use rt::obs::{CaptureSink, Event, Gauge, HistogramHandle, Level, Obs};
use rt::rand::rngs::StdRng;
use rt::rand::{Rng, SeedableRng};
use rt::sync::channel::Sender;

use crate::checkpoint::{genome_from_json, genome_to_json, measurement_from_json, measurement_to_json};
use crate::engine::Report;
use crate::genome::CandidateGenome;
use crate::measurement::{InfeasibleReason, Measurement};
use crate::workers::{evaluate_guarded, CodesignEvaluator, HwTarget};

/// Role string the coordinator announces in its hello.
pub const COORDINATOR_ROLE: &str = "coordinator";
/// Role string a worker announces in its hello.
pub const WORKER_ROLE: &str = "worker";

/// Coordinator-side knobs for a cluster search.
#[derive(Debug, Clone)]
pub struct ClusterOptions {
    /// Worker addresses (`host:port`), one remote slot each.
    pub workers: Vec<String>,
    /// Per-job network deadline: connect timeout, socket read/write
    /// deadline, and the longest the coordinator waits for an
    /// `Evaluated` response before classifying the exchange transient.
    pub net_timeout: Duration,
    /// Consecutive failed (re)connect attempts before a worker is
    /// declared lost and its slot retires.
    pub connect_retries: usize,
    /// Base reconnect backoff; doubles per attempt with seeded jitter.
    pub reconnect_backoff: Duration,
    /// Frame-size ceiling for every connection.
    pub max_frame: usize,
    /// Workers piggyback a `Stats` telemetry frame after every N
    /// `Evaluated` responses (`0` disables periodic stats; a final
    /// frame still precedes `Bye` so profiles survive short runs).
    pub stats_every: usize,
}

impl Default for ClusterOptions {
    fn default() -> Self {
        Self {
            workers: Vec::new(),
            net_timeout: Duration::from_secs(30),
            connect_retries: 3,
            reconnect_backoff: Duration::from_millis(50),
            max_frame: rt::net::DEFAULT_MAX_FRAME,
            stats_every: 4,
        }
    }
}

/// Everything the engine needs to run its slots remotely: the options
/// plus the prebuilt setup payload each session opens with.
#[derive(Debug, Clone)]
pub struct ClusterPlan {
    /// Coordinator-side knobs.
    pub options: ClusterOptions,
    /// The session-opening payload (datasets, trainer, device, seed,
    /// telemetry settings).
    pub setup: SetupPayload,
}

// ---------------------------------------------------------------------------
// Cluster health
// ---------------------------------------------------------------------------

/// Lifecycle state of one remote worker slot, as the coordinator sees
/// it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerState {
    /// Slot spawned, first connection not yet established.
    Connecting,
    /// Session live; jobs flow.
    Connected,
    /// Connection dropped; the slot is retrying with backoff.
    Reconnecting,
    /// Retries exhausted; the slot retired.
    Lost,
}

impl WorkerState {
    /// The lowercase label `/workers` serves.
    pub fn as_str(self) -> &'static str {
        match self {
            WorkerState::Connecting => "connecting",
            WorkerState::Connected => "connected",
            WorkerState::Reconnecting => "reconnecting",
            WorkerState::Lost => "lost",
        }
    }
}

/// A point-in-time view of one worker, as served by `/workers`.
#[derive(Debug, Clone)]
pub struct WorkerHealthSnapshot {
    /// Worker address (`host:port`).
    pub addr: String,
    /// Lifecycle state.
    pub state: WorkerState,
    /// Seconds since the last frame arrived from this worker (`None`
    /// before the first).
    pub last_seen_s: Option<f64>,
    /// Jobs this worker has completed (from its latest `Stats` frame,
    /// so it trails the live count by up to the stats cadence).
    pub jobs: u64,
    /// Cumulative training wall seconds (latest `Stats`).
    pub train_s: f64,
    /// Cumulative hardware-model wall seconds (latest `Stats`).
    pub hw_s: f64,
    /// Worker-side panics (latest `Stats`).
    pub panics: u64,
}

#[derive(Debug)]
struct WorkerHealthCell {
    addr: String,
    state: WorkerState,
    last_seen: Option<Instant>,
    jobs: u64,
    train_s: f64,
    hw_s: f64,
    panics: u64,
}

/// Shared per-worker health registry: the engine's remote slots write
/// state transitions and absorbed `Stats` counters; the `/workers`
/// endpoint reads snapshots. Read-only on the serving side, so `--serve`
/// keeps the byte-identity trace contract.
#[derive(Debug)]
pub struct ClusterHealth {
    cells: std::sync::Mutex<Vec<WorkerHealthCell>>,
    degraded: AtomicBool,
}

impl ClusterHealth {
    /// A registry with one `Connecting` cell per worker address.
    pub fn new(addrs: &[String]) -> Self {
        Self {
            cells: std::sync::Mutex::new(
                addrs
                    .iter()
                    .map(|addr| WorkerHealthCell {
                        addr: addr.clone(),
                        state: WorkerState::Connecting,
                        last_seen: None,
                        jobs: 0,
                        train_s: 0.0,
                        hw_s: 0.0,
                        panics: 0,
                    })
                    .collect(),
            ),
            degraded: AtomicBool::new(false),
        }
    }

    fn with_cell(&self, slot: usize, f: impl FnOnce(&mut WorkerHealthCell)) {
        let mut cells = self
            .cells
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some(cell) = cells.get_mut(slot) {
            f(cell);
        }
    }

    /// Records a state transition for `slot`.
    pub fn set_state(&self, slot: usize, state: WorkerState) {
        self.with_cell(slot, |c| c.state = state);
    }

    /// Marks a frame received from `slot` now.
    pub fn mark_seen(&self, slot: usize) {
        self.with_cell(slot, |c| c.last_seen = Some(Instant::now()));
    }

    /// Folds an absorbed `Stats` frame's counters into `slot`.
    pub fn record_stats(&self, slot: usize, jobs: u64, train_s: f64, hw_s: f64, panics: u64) {
        self.with_cell(slot, |c| {
            c.jobs = jobs;
            c.train_s = train_s;
            c.hw_s = hw_s;
            c.panics = panics;
        });
    }

    /// Flags that every remote is gone and the engine fell back to
    /// local evaluation slots.
    pub fn set_degraded(&self) {
        self.degraded.store(true, Ordering::Release);
    }

    /// Whether the cluster degraded to local slots.
    pub fn degraded(&self) -> bool {
        self.degraded.load(Ordering::Acquire)
    }

    /// Snapshots every worker cell.
    pub fn snapshot(&self) -> Vec<WorkerHealthSnapshot> {
        let cells = self
            .cells
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        cells
            .iter()
            .map(|c| WorkerHealthSnapshot {
                addr: c.addr.clone(),
                state: c.state,
                last_seen_s: c.last_seen.map(|t| t.elapsed().as_secs_f64()),
                jobs: c.jobs,
                train_s: c.train_s,
                hw_s: c.hw_s,
                panics: c.panics,
            })
            .collect()
    }
}

// ---------------------------------------------------------------------------
// Wire codecs
// ---------------------------------------------------------------------------

fn wire_err(msg: impl Into<String>) -> NetError {
    NetError::Protocol(msg.into())
}

fn dataset_to_json(d: &Dataset) -> Json {
    // f32 → f64 widening is exact, and rt::json renders f64 with
    // Rust's shortest round-trip formatting, so features survive the
    // wire bit-exactly.
    let features: Vec<Json> = d
        .features()
        .as_slice()
        .iter()
        .map(|&x| Json::Number(x as f64))
        .collect();
    let labels: Vec<Json> = d.labels().iter().map(|&l| Json::Number(l as f64)).collect();
    Json::object()
        .insert("name", d.name())
        .insert("rows", d.len())
        .insert("cols", d.n_features())
        .insert("n_classes", d.n_classes())
        .insert("features", Json::Array(features))
        .insert("labels", Json::Array(labels))
}

fn dataset_from_json(j: &Json) -> Result<Dataset, NetError> {
    let rows = get_usize(j, "rows")?;
    let cols = get_usize(j, "cols")?;
    let features = get_array(j, "features")?
        .iter()
        .map(|x| {
            x.as_f64()
                .map(|v| v as f32)
                .ok_or_else(|| wire_err("non-numeric feature"))
        })
        .collect::<Result<Vec<f32>, NetError>>()?;
    if features.len() != rows * cols {
        return Err(wire_err(format!(
            "feature count {} does not match {rows}x{cols}",
            features.len()
        )));
    }
    let labels = get_array(j, "labels")?
        .iter()
        .map(|x| {
            x.as_f64()
                .filter(|v| *v >= 0.0 && v.fract() == 0.0)
                .map(|v| v as usize)
                .ok_or_else(|| wire_err("non-integer label"))
        })
        .collect::<Result<Vec<usize>, NetError>>()?;
    let matrix = Matrix::from_vec(rows, cols, features);
    Dataset::new(get_str(j, "name")?.to_string(), matrix, labels, get_usize(j, "n_classes")?)
        .map_err(|e| wire_err(format!("bad dataset payload: {e}")))
}

fn trainer_to_json(t: &TrainConfig) -> Json {
    let optimizer = match t.optimizer {
        OptimizerKind::Sgd { lr, momentum } => Json::object()
            .insert("kind", "sgd")
            .insert("lr", lr as f64)
            .insert("momentum", momentum as f64),
        OptimizerKind::Adam { lr } => {
            Json::object().insert("kind", "adam").insert("lr", lr as f64)
        }
    };
    Json::object()
        .insert("epochs", t.epochs)
        .insert("batch_size", t.batch_size)
        .insert("optimizer", optimizer)
        .insert("patience", t.patience)
        .insert("min_delta", t.min_delta as f64)
        .insert("weight_decay", t.weight_decay as f64)
}

fn trainer_from_json(j: &Json) -> Result<TrainConfig, NetError> {
    let opt = j
        .get("optimizer")
        .ok_or_else(|| wire_err("trainer missing optimizer"))?;
    let optimizer = match get_str(opt, "kind")? {
        "sgd" => OptimizerKind::Sgd {
            lr: get_f64(opt, "lr")? as f32,
            momentum: get_f64(opt, "momentum")? as f32,
        },
        "adam" => OptimizerKind::Adam {
            lr: get_f64(opt, "lr")? as f32,
        },
        other => return Err(wire_err(format!("unknown optimizer kind {other:?}"))),
    };
    Ok(TrainConfig {
        epochs: get_usize(j, "epochs")?,
        batch_size: get_usize(j, "batch_size")?,
        optimizer,
        patience: get_usize(j, "patience")?,
        min_delta: get_f64(j, "min_delta")? as f32,
        weight_decay: get_f64(j, "weight_decay")? as f32,
    })
}

/// Serializes a catalog hardware target as its configuration-file name
/// (`arria10`, `stratix10`, `m5000`, `titanx`, `radeonvii`, `xeon`,
/// `desktop`) plus FPGA DDR bank count.
///
/// # Errors
///
/// [`NetError::Protocol`] for a non-catalog device: the wire format
/// identifies devices by name, so a custom device cannot cross it.
pub fn target_to_json(t: &HwTarget) -> Result<Json, NetError> {
    let (name, banks) = match t {
        HwTarget::Fpga(d) if d.name == "Arria 10 GX 1150" => ("arria10", d.ddr.banks),
        HwTarget::Fpga(d) if d.name == "Stratix 10 2800" => ("stratix10", d.ddr.banks),
        HwTarget::Gpu(d) if d.name == "Quadro M5000" => ("m5000", 0),
        HwTarget::Gpu(d) if d.name == "Titan X" => ("titanx", 0),
        HwTarget::Gpu(d) if d.name == "Radeon VII" => ("radeonvii", 0),
        HwTarget::Cpu(d) if d.name == "Xeon 22-core" => ("xeon", 0),
        HwTarget::Cpu(d) if d.name == "Desktop 8-core" => ("desktop", 0),
        other => {
            return Err(wire_err(format!(
                "cluster mode only ships catalog devices, not {:?}",
                other.device_name()
            )))
        }
    };
    Ok(Json::object().insert("device", name).insert("ddr_banks", banks))
}

/// Reconstructs a catalog hardware target from its wire form.
///
/// # Errors
///
/// [`NetError::Protocol`] for an unknown device name.
pub fn target_from_json(j: &Json) -> Result<HwTarget, NetError> {
    let banks = get_usize(j, "ddr_banks")?.max(1) as u32;
    Ok(match get_str(j, "device")? {
        "arria10" => HwTarget::Fpga(FpgaDevice::arria10_gx1150(banks)),
        "stratix10" => HwTarget::Fpga(FpgaDevice::stratix10_2800(banks)),
        "m5000" => HwTarget::Gpu(GpuDevice::quadro_m5000()),
        "titanx" => HwTarget::Gpu(GpuDevice::titan_x()),
        "radeonvii" => HwTarget::Gpu(GpuDevice::radeon_vii()),
        "xeon" => HwTarget::Cpu(CpuDevice::xeon_22c()),
        "desktop" => HwTarget::Cpu(CpuDevice::desktop_8c()),
        other => return Err(wire_err(format!("unknown device {other:?}"))),
    })
}

/// The session-opening payload: everything a worker needs to evaluate
/// genomes for this search, shipped so the worker process carries no
/// configuration of its own.
#[derive(Debug, Clone)]
pub struct SetupPayload {
    /// Search seed; candidate training seeds derive from it exactly as
    /// in the local engine, so remote measurements match local ones.
    pub seed: u64,
    /// Standardized training split.
    pub train: Dataset,
    /// Standardized test split.
    pub test: Dataset,
    /// Per-candidate training hyperparameters.
    pub trainer: TrainConfig,
    /// The catalog hardware target.
    pub target: HwTarget,
    /// When set (`"wall"` / `"ticks"`), the worker profiles each
    /// evaluation under a session-local `rt::prof` profiler with this
    /// clock and ships its subtree in `Stats` frames. The ticks clock
    /// makes the subtree deterministic for a fixed job stream.
    pub profile_clock: Option<String>,
    /// `Stats` cadence in jobs (`0` = final frame only).
    pub stats_every: usize,
}

impl SetupPayload {
    fn to_json(&self, stamp: u64) -> Result<Json, NetError> {
        let j = Json::object()
            .insert("seed", format!("{:016x}", self.seed))
            .insert("stamp", format!("{stamp:016x}"))
            .insert("train", dataset_to_json(&self.train))
            .insert("test", dataset_to_json(&self.test))
            .insert("trainer", trainer_to_json(&self.trainer))
            .insert("target", target_to_json(&self.target)?)
            .insert("stats_every", self.stats_every);
        Ok(match &self.profile_clock {
            Some(clock) => j.insert("profile_clock", clock.as_str()),
            None => j,
        })
    }

    fn from_json(j: &Json) -> Result<(Self, u64), NetError> {
        let payload = Self {
            seed: get_hex_u64(j, "seed")?,
            train: dataset_from_json(
                j.get("train").ok_or_else(|| wire_err("setup missing train"))?,
            )?,
            test: dataset_from_json(
                j.get("test").ok_or_else(|| wire_err("setup missing test"))?,
            )?,
            trainer: trainer_from_json(
                j.get("trainer").ok_or_else(|| wire_err("setup missing trainer"))?,
            )?,
            target: target_from_json(
                j.get("target").ok_or_else(|| wire_err("setup missing target"))?,
            )?,
            // Optional so a newer worker accepts an older coordinator's
            // setup frame (absent = telemetry off).
            profile_clock: j
                .get("profile_clock")
                .and_then(Json::as_str)
                .map(str::to_string),
            stats_every: if j.get("stats_every").is_some() {
                get_usize(j, "stats_every")?
            } else {
                0
            },
        };
        Ok((payload, get_hex_u64(j, "stamp")?))
    }
}

/// Every message a coordinator sends on an established session.
#[derive(Debug, Clone)]
pub enum CoordinatorRequest {
    /// Opens the session: evaluation context plus the session stamp.
    Setup(Box<SetupPayload>, u64),
    /// Evaluate one genome. `id` is the ledger dispatch id; `stamp`
    /// must echo the session stamp.
    Evaluate {
        /// Ledger dispatch id.
        id: u64,
        /// Session generation stamp.
        stamp: u64,
        /// The candidate to score.
        genome: CandidateGenome,
    },
    /// Stop serving entirely: the worker replies `Bye` and its process
    /// exits the listen loop.
    KillAll,
}

impl CoordinatorRequest {
    /// Serializes for the wire.
    ///
    /// # Errors
    ///
    /// [`NetError::Protocol`] when a setup payload holds a non-catalog
    /// device.
    pub fn to_json(&self) -> Result<Json, NetError> {
        Ok(match self {
            CoordinatorRequest::Setup(payload, stamp) => payload
                .to_json(*stamp)?
                .insert("req", "setup"),
            CoordinatorRequest::Evaluate { id, stamp, genome } => Json::object()
                .insert("req", "evaluate")
                .insert("id", *id)
                .insert("stamp", format!("{stamp:016x}"))
                .insert("genome", genome_to_json(genome)),
            CoordinatorRequest::KillAll => Json::object().insert("req", "kill_all"),
        })
    }

    /// Parses a received request frame.
    ///
    /// # Errors
    ///
    /// [`NetError::Protocol`] on structural problems.
    pub fn from_json(j: &Json) -> Result<Self, NetError> {
        Ok(match get_str(j, "req")? {
            "setup" => {
                let (payload, stamp) = SetupPayload::from_json(j)?;
                CoordinatorRequest::Setup(Box::new(payload), stamp)
            }
            "evaluate" => CoordinatorRequest::Evaluate {
                id: get_usize(j, "id")? as u64,
                stamp: get_hex_u64(j, "stamp")?,
                genome: genome_from_json(
                    j.get("genome").ok_or_else(|| wire_err("evaluate missing genome"))?,
                )
                .map_err(|e| wire_err(format!("bad genome: {e}")))?,
            },
            "kill_all" => CoordinatorRequest::KillAll,
            other => return Err(wire_err(format!("unknown request {other:?}"))),
        })
    }
}

/// Every message a worker sends back.
#[derive(Debug, Clone)]
pub enum WorkerResponse {
    /// Setup accepted; echoes the session stamp.
    Ready {
        /// The session stamp being acknowledged.
        stamp: u64,
    },
    /// One evaluation finished.
    Evaluated {
        /// The dispatch id being answered.
        id: u64,
        /// The session stamp the job carried.
        stamp: u64,
        /// The measurement (worker panics arrive as worker-panic
        /// infeasible measurements, never as dropped connections).
        measurement: Measurement,
        /// Whether the evaluation panicked worker-side (the
        /// coordinator re-emits the local engine's panic warning).
        panicked: bool,
        /// Evaluation-time events captured worker-side, for replay.
        events: Vec<Event>,
    },
    /// Periodic telemetry piggybacked on the session: cumulative
    /// session counters plus an optional `rt::prof` subtree export.
    /// Sent after every `stats_every`-th `Evaluated` and once more
    /// immediately before `Bye`; snapshots are cumulative, so the
    /// coordinator keeps only the latest per worker.
    Stats {
        /// Jobs evaluated this session.
        jobs: u64,
        /// Cumulative candidate-training wall seconds.
        train_s: f64,
        /// Cumulative hardware-model wall seconds.
        hw_s: f64,
        /// Evaluations that panicked worker-side.
        panics: u64,
        /// Profile subtree (`ProfileNode::to_json`) when the setup
        /// requested a profile clock.
        profile: Option<Json>,
    },
    /// Acknowledges `KillAll`; the worker is exiting.
    Bye,
}

impl WorkerResponse {
    /// Serializes for the wire.
    pub fn to_json(&self) -> Json {
        match self {
            WorkerResponse::Ready { stamp } => Json::object()
                .insert("resp", "ready")
                .insert("stamp", format!("{stamp:016x}")),
            WorkerResponse::Evaluated {
                id,
                stamp,
                measurement,
                panicked,
                events,
            } => Json::object()
                .insert("resp", "evaluated")
                .insert("id", *id)
                .insert("stamp", format!("{stamp:016x}"))
                .insert("measurement", measurement_to_json(measurement))
                .insert("panicked", *panicked)
                .insert(
                    "events",
                    Json::Array(events.iter().map(Event::to_wire_json).collect()),
                ),
            WorkerResponse::Stats {
                jobs,
                train_s,
                hw_s,
                panics,
                profile,
            } => {
                let j = Json::object()
                    .insert("resp", "stats")
                    .insert("jobs", *jobs)
                    .insert("train_s", *train_s)
                    .insert("hw_s", *hw_s)
                    .insert("panics", *panics);
                match profile {
                    Some(p) => j.insert("profile", p.clone()),
                    None => j,
                }
            }
            WorkerResponse::Bye => Json::object().insert("resp", "bye"),
        }
    }

    /// Parses a received response frame.
    ///
    /// # Errors
    ///
    /// [`NetError::Protocol`] on structural problems.
    pub fn from_json(j: &Json) -> Result<Self, NetError> {
        Ok(match get_str(j, "resp")? {
            "ready" => WorkerResponse::Ready {
                stamp: get_hex_u64(j, "stamp")?,
            },
            "evaluated" => WorkerResponse::Evaluated {
                id: get_usize(j, "id")? as u64,
                stamp: get_hex_u64(j, "stamp")?,
                measurement: measurement_from_json(
                    j.get("measurement")
                        .ok_or_else(|| wire_err("evaluated missing measurement"))?,
                )
                .map_err(|e| wire_err(format!("bad measurement: {e}")))?,
                panicked: j.get("panicked").and_then(Json::as_bool).unwrap_or(false),
                events: get_array(j, "events")?
                    .iter()
                    .map(|e| Event::from_wire_json(e).map_err(wire_err))
                    .collect::<Result<Vec<_>, NetError>>()?,
            },
            "stats" => WorkerResponse::Stats {
                jobs: get_usize(j, "jobs")? as u64,
                train_s: get_f64(j, "train_s")?,
                hw_s: get_f64(j, "hw_s")?,
                panics: get_usize(j, "panics")? as u64,
                profile: j.get("profile").cloned(),
            },
            "bye" => WorkerResponse::Bye,
            other => return Err(wire_err(format!("unknown response {other:?}"))),
        })
    }
}

// ---------------------------------------------------------------------------
// Coordinator-side transport
// ---------------------------------------------------------------------------

/// An established coordinator-side session with one remote worker.
struct RemoteSession {
    conn: Conn,
    stamp: u64,
}

impl RemoteSession {
    /// Connects, handshakes, and opens a session with a `setup` frame.
    fn open(addr: &str, plan: &ClusterPlan, stamp: u64) -> Result<Self, NetError> {
        let opts = &plan.options;
        let mut conn = Conn::connect(addr, opts.net_timeout, opts.max_frame)?;
        conn.set_io_timeout(Some(opts.net_timeout))?;
        conn.handshake_client(COORDINATOR_ROLE, Some(WORKER_ROLE))?;
        conn.send(&CoordinatorRequest::Setup(Box::new(plan.setup.clone()), stamp).to_json()?)?;
        match WorkerResponse::from_json(&conn.recv()?)? {
            WorkerResponse::Ready { stamp: s } if s == stamp => Ok(Self { conn, stamp }),
            other => Err(NetError::Protocol(format!(
                "expected ready({stamp:016x}), got {other:?}"
            ))),
        }
    }

    /// One evaluate/evaluated exchange. Responses whose id or stamp
    /// does not match the outstanding job are *stale* — fenced here
    /// (below the ledger's own id fencing) and classified transient so
    /// the connection resyncs. A matching response's captured events
    /// are replayed into `obs`, inside the caller's `evaluate` span.
    fn exchange(
        &mut self,
        id: usize,
        genome: &CandidateGenome,
        slot: usize,
        obs: &Obs,
        telemetry: &SlotTelemetry,
    ) -> Result<Report, RemoteFailure> {
        let request = CoordinatorRequest::Evaluate {
            id: id as u64,
            stamp: self.stamp,
            genome: genome.clone(),
        };
        self.conn.send(&request.to_json()?)?;
        // Workers piggyback cumulative `Stats` frames on the session;
        // absorb any that precede the answer (telemetry is out-of-band,
        // so this never changes what the ledger sees).
        let response = loop {
            match WorkerResponse::from_json(&self.conn.recv()?)? {
                stats @ WorkerResponse::Stats { .. } => telemetry.absorb(&stats),
                other => break other,
            }
        };
        match response {
            WorkerResponse::Evaluated {
                id: rid,
                stamp,
                measurement,
                panicked,
                events,
            } if rid == id as u64 && stamp == self.stamp => {
                for event in events {
                    obs.emit_event(event);
                }
                Ok(Report {
                    slot,
                    id,
                    measurement,
                    panicked,
                    retired: false,
                })
            }
            WorkerResponse::Evaluated { id: rid, stamp, .. } => {
                rt::warn!(
                    obs,
                    "stale_remote_result",
                    id = rid as usize,
                    expected = id,
                    stamp = format!("{stamp:016x}"),
                );
                Err(RemoteFailure::Transient(format!(
                    "stale response for job {rid} (wanted {id})"
                )))
            }
            other => Err(RemoteFailure::Transient(format!(
                "expected evaluated, got {other:?}"
            ))),
        }
    }

    /// Best-effort `kill_all` on shutdown: the worker's listen loop
    /// exits once the coordinator is done with it. The worker sends a
    /// final cumulative `Stats` frame (its complete profile subtree)
    /// before `Bye`; absorb it so short runs still graft every
    /// worker's tree into the master profile.
    fn kill(mut self, telemetry: &SlotTelemetry) {
        if let Ok(req) = CoordinatorRequest::KillAll.to_json() {
            if self.conn.send(&req).is_ok() {
                // Bounded drain: Bye, or a dead peer — either way done.
                for _ in 0..8 {
                    let Ok(frame) = self.conn.recv() else { break };
                    match WorkerResponse::from_json(&frame) {
                        Ok(stats @ WorkerResponse::Stats { .. }) => telemetry.absorb(&stats),
                        Ok(WorkerResponse::Bye) | Err(_) => break,
                        Ok(_) => {} // stale frame; keep draining
                    }
                }
            }
        }
    }
}

/// Out-of-band telemetry context for one remote slot: labeled metric
/// handles, the shared health registry, and the coordinator profiler
/// that worker subtrees graft into. Everything absorbed here lands in
/// read-only side channels (metrics registry, health cells, profile
/// grafts) — never the trace, the RNG streams, or the ledger — so the
/// byte-identity contracts are untouched.
struct SlotTelemetry {
    addr: String,
    index: usize,
    health: Option<Arc<ClusterHealth>>,
    profiler: Option<rt::prof::Profiler>,
    jobs: Gauge,
    train_s: Gauge,
    hw_s: Gauge,
    panics: Gauge,
    latency: HistogramHandle,
}

impl SlotTelemetry {
    fn new(addr: String, index: usize, health: Option<Arc<ClusterHealth>>, obs: &Obs) -> Self {
        let labels: &[(&str, &str)] = &[("worker", addr.as_str())];
        Self {
            jobs: obs.gauge_with("cluster.worker_jobs", labels),
            train_s: obs.gauge_with("cluster.worker_train_s", labels),
            hw_s: obs.gauge_with("cluster.worker_hw_s", labels),
            panics: obs.gauge_with("cluster.worker_panics", labels),
            latency: obs.histogram_with("cluster.worker_eval_s", labels),
            profiler: obs.profiler(),
            addr,
            index,
            health,
        }
    }

    fn set_state(&self, state: WorkerState) {
        if let Some(h) = &self.health {
            h.set_state(self.index, state);
        }
    }

    fn mark_seen(&self) {
        if let Some(h) = &self.health {
            h.mark_seen(self.index);
        }
    }

    /// Folds one absorbed `Stats` frame into the telemetry plane:
    /// labeled gauges, the health cell, and (when both sides profile)
    /// a replace-by-name graft of the worker's subtree under
    /// `worker:<addr>` in the master tree.
    fn absorb(&self, resp: &WorkerResponse) {
        let WorkerResponse::Stats {
            jobs,
            train_s,
            hw_s,
            panics,
            profile,
        } = resp
        else {
            return;
        };
        self.jobs.set(*jobs as f64);
        self.train_s.set(*train_s);
        self.hw_s.set(*hw_s);
        self.panics.set(*panics as f64);
        if let Some(h) = &self.health {
            h.record_stats(self.index, *jobs, *train_s, *hw_s, *panics);
        }
        self.mark_seen();
        if let (Some(profiler), Some(p)) = (&self.profiler, profile) {
            if let Some(node) = rt::prof::ProfileNode::from_json(p) {
                profiler.attach_subtree(&format!("worker:{}", self.addr), node);
            }
        }
    }
}

/// How a remote exchange failed, after classification.
enum RemoteFailure {
    /// Environment trouble (disconnect, deadline, stale response): the
    /// job retries through the ledger, the slot reconnects.
    Transient(String),
    /// Protocol/version trouble, or the reconnect budget spent: the
    /// worker is unusable and its slot retires.
    Permanent(String),
}

impl From<NetError> for RemoteFailure {
    fn from(e: NetError) -> Self {
        if e.is_transient() {
            RemoteFailure::Transient(e.to_string())
        } else {
            RemoteFailure::Permanent(e.to_string())
        }
    }
}

/// The remote transport of an evaluation slot: a framed session with
/// one worker, opened on demand and reopened after transient failures
/// with seeded jittered backoff. Network failures come back as
/// transient-infeasible measurements for the ledger's retry machinery;
/// a worker whose reconnect budget is spent is lost, and the slot
/// retires with that report.
pub(crate) struct RemoteTransport {
    plan: Arc<ClusterPlan>,
    telemetry: SlotTelemetry,
    /// Acknowledges the slot's exit to the master's bounded drain wait.
    done: Sender<()>,
    session: Option<RemoteSession>,
    /// Sessions opened so far: the low half of the next session stamp.
    connects: u64,
    /// Seeded jitter so a cluster's reconnect storms de-correlate
    /// deterministically, per worker (same scheme as the engine's retry
    /// backoff).
    jitter: StdRng,
}

impl RemoteTransport {
    /// A transport to worker `index` of `plan`, not yet connected.
    pub(crate) fn new(
        plan: &Arc<ClusterPlan>,
        index: usize,
        seed: u64,
        health: &Option<Arc<ClusterHealth>>,
        done: &Sender<()>,
        obs: &Obs,
    ) -> Self {
        let addr = plan.options.workers[index].clone();
        Self {
            jitter: StdRng::seed_from_u64(seed ^ addr_salt(&addr) ^ 0xBAC_0FF),
            telemetry: SlotTelemetry::new(addr, index, health.clone(), obs),
            plan: Arc::clone(plan),
            done: done.clone(),
            session: None,
            connects: 0,
        }
    }

    /// Evaluates one job on the worker, connecting first when no
    /// session is live.
    pub(crate) fn evaluate(
        &mut self,
        slot: usize,
        id: usize,
        genome: &CandidateGenome,
        obs: &Obs,
    ) -> Report {
        let started = Instant::now();
        let result = self.connect(slot, obs).and_then(|mut session| {
            let report = session.exchange(id, genome, slot, obs, &self.telemetry)?;
            self.session = Some(session);
            Ok(report)
        });
        let t = &self.telemetry;
        let (reason, retired) = match result {
            Ok(report) => {
                t.mark_seen();
                t.latency.record(started.elapsed().as_secs_f64());
                return report;
            }
            Err(RemoteFailure::Transient(reason)) => {
                rt::trace!(
                    obs,
                    "worker_disconnected",
                    addr = t.addr.as_str(),
                    error = reason.as_str(),
                );
                t.set_state(WorkerState::Reconnecting);
                (format!("net: {reason}"), false)
            }
            Err(RemoteFailure::Permanent(reason)) => {
                rt::warn!(
                    obs,
                    "worker_lost",
                    addr = t.addr.as_str(),
                    error = reason.as_str(),
                );
                t.set_state(WorkerState::Lost);
                (format!("worker lost: {reason}"), true)
            }
        };
        let mut measurement = Measurement::infeasible(InfeasibleReason::Transient(reason));
        measurement.eval_time_s = started.elapsed().as_secs_f64();
        Report {
            slot,
            id,
            measurement,
            panicked: false,
            retired,
        }
    }

    /// Takes the live session, or opens one. Transient connect failures
    /// retry with seeded jittered backoff; a spent `connect_retries`
    /// budget, like any non-transient failure, is permanent.
    fn connect(&mut self, slot: usize, obs: &Obs) -> Result<RemoteSession, RemoteFailure> {
        if let Some(session) = self.session.take() {
            return Ok(session);
        }
        let (t, opts) = (&self.telemetry, &self.plan.options);
        let mut attempt = 0usize;
        loop {
            let stamp = ((slot as u64) << 32) | self.connects;
            match RemoteSession::open(&t.addr, &self.plan, stamp) {
                Ok(session) => {
                    self.connects += 1;
                    rt::trace!(
                        obs,
                        "worker_connected",
                        addr = t.addr.as_str(),
                        slot = slot,
                        stamp = format!("{stamp:016x}"),
                    );
                    t.set_state(WorkerState::Connected);
                    t.mark_seen();
                    return Ok(session);
                }
                Err(e) => {
                    attempt += 1;
                    rt::warn!(
                        obs,
                        "worker_connect_failed",
                        addr = t.addr.as_str(),
                        attempt = attempt,
                        error = e.to_string(),
                    );
                    t.set_state(WorkerState::Reconnecting);
                    if !e.is_transient() || attempt >= opts.connect_retries.max(1) {
                        return Err(RemoteFailure::Permanent(e.to_string()));
                    }
                    let base = opts.reconnect_backoff.as_millis() as u64;
                    let ceiling = (base << attempt.min(6)).max(1);
                    std::thread::sleep(Duration::from_millis(
                        self.jitter.gen_range(base..=base + ceiling),
                    ));
                }
            }
        }
    }

    /// The slot's exit: a best-effort `kill_all` on the live session,
    /// then the drain acknowledgement.
    pub(crate) fn close(&mut self) {
        if let Some(session) = self.session.take() {
            session.kill(&self.telemetry);
        }
        let _ = self.done.send(());
    }
}

// ---------------------------------------------------------------------------
// Worker server
// ---------------------------------------------------------------------------

/// Worker-side knobs.
#[derive(Debug, Clone)]
pub struct WorkerOptions {
    /// Frame-size ceiling (must cover the dataset-bearing setup frame).
    pub max_frame: usize,
    /// Socket write deadline and connect-phase read deadline.
    pub io_timeout: Duration,
    /// How long an established session may sit idle between requests
    /// before the worker drops it back to accepting (a coordinator
    /// reconnects transparently on its next job).
    pub idle_timeout: Duration,
}

impl Default for WorkerOptions {
    fn default() -> Self {
        Self {
            max_frame: rt::net::DEFAULT_MAX_FRAME,
            io_timeout: Duration::from_secs(30),
            idle_timeout: Duration::from_secs(600),
        }
    }
}

/// How a worker session ended.
enum SessionEnd {
    /// Connection dropped or errored; go back to accepting.
    Disconnected,
    /// The coordinator sent `kill_all`; stop serving entirely.
    Killed,
}

/// One established session's evaluation context.
struct WorkerSession {
    evaluator: CodesignEvaluator,
    capture: Arc<CaptureSink>,
    stamp: u64,
    /// Session-local profiler (own tick domain, never attached to the
    /// capture `Obs`, so replayed events are unaffected); its subtree
    /// ships in `Stats` frames.
    profiler: Option<rt::prof::Profiler>,
    stats_every: usize,
    jobs_since_stats: usize,
    jobs: u64,
    train_s: f64,
    hw_s: f64,
    panics: u64,
}

impl WorkerSession {
    fn from_setup(setup: &SetupPayload, stamp: u64) -> Self {
        let capture = CaptureSink::new(Level::Trace);
        let capture_obs = Obs::builder().sink(Arc::clone(&capture)).build();
        let evaluator = CodesignEvaluator::new(
            setup.train.clone(),
            setup.test.clone(),
            setup.trainer,
            setup.target.clone(),
            setup.seed,
        )
        .with_obs(capture_obs);
        let profiler = setup
            .profile_clock
            .as_deref()
            .and_then(rt::prof::ClockKind::parse)
            .map(|clock| rt::prof::Profiler::with_root(clock, "worker"));
        Self {
            evaluator,
            capture,
            stamp,
            profiler,
            stats_every: setup.stats_every,
            jobs_since_stats: 0,
            jobs: 0,
            train_s: 0.0,
            hw_s: 0.0,
            panics: 0,
        }
    }

    fn evaluate(&mut self, id: u64, stamp: u64, genome: &CandidateGenome) -> WorkerResponse {
        // Ambient install: kernel/model `prof_span!`s inside the
        // evaluator nest under an `evaluate` phase of the session tree.
        let install = self.profiler.as_ref().map(rt::prof::Profiler::install);
        let eval_span = self.profiler.as_ref().map(|p| p.enter("evaluate"));
        let (measurement, panicked) = evaluate_guarded(&self.evaluator, genome);
        drop(eval_span);
        let events = self.capture.take();
        drop(install);
        self.jobs += 1;
        self.jobs_since_stats += 1;
        self.train_s += measurement.train_time_s;
        self.hw_s += measurement.hw_time_s;
        self.panics += u64::from(panicked);
        WorkerResponse::Evaluated {
            id,
            stamp,
            measurement,
            panicked,
            events,
        }
    }

    /// The cumulative telemetry frame for this session.
    fn stats(&self) -> WorkerResponse {
        WorkerResponse::Stats {
            jobs: self.jobs,
            train_s: self.train_s,
            hw_s: self.hw_s,
            panics: self.panics,
            profile: self
                .profiler
                .as_ref()
                .map(|p| p.report().to_json()),
        }
    }

    /// A `Stats` frame when the periodic cadence is due (resets the
    /// cadence counter).
    fn periodic_stats(&mut self) -> Option<WorkerResponse> {
        if self.stats_every == 0 || self.jobs_since_stats < self.stats_every {
            return None;
        }
        self.jobs_since_stats = 0;
        Some(self.stats())
    }
}

/// A bound cluster worker: accepts one coordinator session at a time
/// and serves evaluation jobs until killed.
pub struct WorkerServer {
    listener: Listener,
    options: WorkerOptions,
    obs: Obs,
    stop: Arc<AtomicBool>,
}

impl WorkerServer {
    /// Binds `addr` (`host:port`; port `0` picks an ephemeral port —
    /// read it back with [`WorkerServer::local_addr`]).
    ///
    /// # Errors
    ///
    /// Any bind failure.
    pub fn bind(addr: &str, options: WorkerOptions, obs: Obs) -> io::Result<Self> {
        Ok(Self {
            listener: Listener::bind(addr)?,
            options,
            obs,
            stop: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The bound address.
    ///
    /// # Errors
    ///
    /// Any socket failure.
    pub fn local_addr(&self) -> io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// A flag that stops [`WorkerServer::run`] at the next accept poll
    /// (for embedding a worker in tests or alongside other work).
    pub fn stop_handle(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.stop)
    }

    /// Serves sessions until a coordinator sends `kill_all` or the
    /// stop handle trips. Connection-level failures (disconnects,
    /// malformed frames, version skew) drop the session and return to
    /// accepting — a worker outlives its coordinators.
    ///
    /// # Errors
    ///
    /// Only accept-loop failures; per-session errors are survived.
    pub fn run(&self) -> io::Result<()> {
        rt::info!(
            self.obs,
            "worker_listen",
            addr = self
                .local_addr()
                .map(|a| a.to_string())
                .unwrap_or_default(),
        );
        loop {
            if self.stop.load(Ordering::Acquire) {
                return Ok(());
            }
            let Some((stream, peer)) = self.listener.accept_timeout(Duration::from_millis(200))?
            else {
                continue;
            };
            rt::info!(self.obs, "session_accept", peer = peer.to_string());
            let end = Conn::from_stream(stream, self.options.max_frame, Some(self.options.io_timeout))
                .map_err(|e| (e, SessionEnd::Disconnected))
                .and_then(|mut conn| match self.serve_session(&mut conn) {
                    Ok(end) => Ok(end),
                    Err(e) => Err((e, SessionEnd::Disconnected)),
                });
            match end {
                Ok(SessionEnd::Killed) => {
                    rt::info!(self.obs, "worker_killed");
                    return Ok(());
                }
                Ok(SessionEnd::Disconnected) => {
                    rt::info!(self.obs, "session_end", reason = "disconnect");
                }
                Err((e, _)) => {
                    rt::warn!(
                        self.obs,
                        "session_error",
                        error = e.to_string(),
                        transient = e.is_transient(),
                    );
                }
            }
        }
    }

    fn serve_session(&self, conn: &mut Conn) -> Result<SessionEnd, NetError> {
        conn.handshake_server(WORKER_ROLE, Some(COORDINATOR_ROLE))?;
        let mut session: Option<WorkerSession> = None;
        loop {
            if self.stop.load(Ordering::Acquire) {
                return Ok(SessionEnd::Disconnected);
            }
            // Idle sessions time out back to the accept loop; the
            // coordinator reconnects on its next dispatch.
            conn.set_io_timeout(Some(self.options.idle_timeout))?;
            let frame = match conn.recv() {
                Ok(f) => f,
                Err(NetError::Closed) => return Ok(SessionEnd::Disconnected),
                Err(e) => return Err(e),
            };
            conn.set_io_timeout(Some(self.options.io_timeout))?;
            match CoordinatorRequest::from_json(&frame)? {
                CoordinatorRequest::Setup(payload, stamp) => {
                    rt::info!(
                        self.obs,
                        "session_setup",
                        stamp = format!("{stamp:016x}"),
                        train_rows = payload.train.len(),
                        test_rows = payload.test.len(),
                        device = payload.target.device_name(),
                    );
                    session = Some(WorkerSession::from_setup(&payload, stamp));
                    conn.send(&WorkerResponse::Ready { stamp }.to_json())?;
                }
                CoordinatorRequest::Evaluate { id, stamp, genome } => {
                    let s = session
                        .as_mut()
                        .ok_or_else(|| wire_err("evaluate before setup"))?;
                    if stamp != s.stamp {
                        return Err(wire_err(format!(
                            "job stamp {stamp:016x} does not match session {:016x}",
                            s.stamp
                        )));
                    }
                    rt::debug!(self.obs, "job", id = id as usize);
                    let response = s.evaluate(id, stamp, &genome);
                    if let WorkerResponse::Evaluated {
                        measurement,
                        panicked,
                        ..
                    } = &response
                    {
                        self.obs.counter("worker.jobs").inc();
                        self.obs.histogram("worker.eval_s").record(measurement.eval_time_s);
                        self.obs.gauge("worker.train_wall_s").set(s.train_s);
                        self.obs.gauge("worker.hw_wall_s").set(s.hw_s);
                        if *panicked {
                            self.obs.counter("worker.panics").inc();
                        }
                    }
                    conn.send(&response.to_json())?;
                    // Piggyback cumulative telemetry every N jobs; the
                    // coordinator absorbs it while draining replies.
                    if let Some(stats) = s.periodic_stats() {
                        conn.send(&stats.to_json())?;
                    }
                }
                CoordinatorRequest::KillAll => {
                    // Final cumulative stats precede the goodbye so the
                    // coordinator's master profile always includes this
                    // worker's full subtree, even on short runs.
                    if let Some(s) = session.as_ref() {
                        conn.send(&s.stats().to_json())?;
                    }
                    conn.send(&WorkerResponse::Bye.to_json())?;
                    return Ok(SessionEnd::Killed);
                }
            }
        }
    }
}

/// Convenience: bind and serve in one call (the CLI worker entry
/// point).
///
/// # Errors
///
/// Bind or accept-loop failures.
pub fn run_worker(addr: &str, options: WorkerOptions, obs: Obs) -> io::Result<()> {
    WorkerServer::bind(addr, options, obs)?.run()
}

/// FNV-1a over an address string — the per-worker salt for seeded
/// reconnect backoff jitter.
fn addr_salt(addr: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in addr.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::SearchSpace;
    use crate::workers::Evaluator;
    use ecad_dataset::synth::SyntheticSpec;

    fn tiny_dataset(seed: u64) -> Dataset {
        SyntheticSpec::new("tiny", 24, 4, 3).with_seed(seed).generate()
    }

    fn setup_payload() -> SetupPayload {
        SetupPayload {
            seed: 7,
            train: tiny_dataset(1),
            test: tiny_dataset(2),
            trainer: TrainConfig::fast(),
            target: HwTarget::Fpga(FpgaDevice::arria10_gx1150(1)),
            profile_clock: None,
            stats_every: 0,
        }
    }

    #[test]
    fn dataset_round_trips_bit_exactly() {
        let d = tiny_dataset(42);
        let wire = dataset_to_json(&d);
        let reparsed = Json::parse(&wire.to_string()).unwrap();
        let back = dataset_from_json(&reparsed).unwrap();
        assert_eq!(back.name(), d.name());
        assert_eq!(back.n_classes(), d.n_classes());
        assert_eq!(back.labels(), d.labels());
        assert_eq!(back.features().as_slice(), d.features().as_slice());
    }

    #[test]
    fn setup_round_trips() {
        let mut setup = setup_payload();
        setup.profile_clock = Some("ticks".to_string());
        setup.stats_every = 5;
        let wire = setup.to_json(0xDEAD_BEEF).unwrap();
        let reparsed = Json::parse(&wire.to_string()).unwrap();
        let (back, stamp) = SetupPayload::from_json(&reparsed).unwrap();
        assert_eq!(stamp, 0xDEAD_BEEF);
        assert_eq!(back.seed, setup.seed);
        assert_eq!(back.trainer, setup.trainer);
        assert_eq!(back.profile_clock.as_deref(), Some("ticks"));
        assert_eq!(back.stats_every, 5);
        assert_eq!(back.target.device_name(), setup.target.device_name());

        // Telemetry fields are optional on the wire: a frame without
        // them (older coordinator) still parses with telemetry off.
        let stripped = setup_payload().to_json(0x1).unwrap();
        let text = stripped.to_string().replace(",\"stats_every\":0", "");
        assert!(!text.contains("stats_every"), "field stripped: {text}");
        let (legacy, _) = SetupPayload::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(legacy.profile_clock, None);
        assert_eq!(legacy.stats_every, 0);
    }

    #[test]
    fn requests_and_responses_round_trip() {
        let genome = SearchSpace::fpga_default().sample(&mut StdRng::seed_from_u64(3));
        let req = CoordinatorRequest::Evaluate {
            id: 12,
            stamp: 0xABC,
            genome: genome.clone(),
        };
        let wire = Json::parse(&req.to_json().unwrap().to_string()).unwrap();
        match CoordinatorRequest::from_json(&wire).unwrap() {
            CoordinatorRequest::Evaluate { id, stamp, genome: g } => {
                assert_eq!(id, 12);
                assert_eq!(stamp, 0xABC);
                assert_eq!(g.cache_key(), genome.cache_key());
            }
            other => panic!("wrong variant {other:?}"),
        }
        let wire = CoordinatorRequest::KillAll.to_json().unwrap();
        assert_eq!(wire.get("req").and_then(Json::as_str), Some("kill_all"));
        assert!(CoordinatorRequest::from_json(&wire).is_ok());

        let m = Measurement::infeasible(InfeasibleReason::Transient("net".into()));
        let resp = WorkerResponse::Evaluated {
            id: 9,
            stamp: 0x1,
            measurement: m,
            panicked: true,
            events: vec![Event {
                level: Level::Warn,
                target: "ecad_core::workers",
                name: "infeasible",
                fields: vec![("stage", rt::obs::Value::Str("train".into()))],
                elapsed_s: None,
            }],
        };
        let wire = Json::parse(&resp.to_json().to_string()).unwrap();
        match WorkerResponse::from_json(&wire).unwrap() {
            WorkerResponse::Evaluated {
                id,
                stamp,
                panicked,
                events,
                measurement,
            } => {
                assert_eq!((id, stamp, panicked), (9, 1, true));
                assert_eq!(events.len(), 1);
                assert_eq!(events[0].name, "infeasible");
                assert!(matches!(
                    measurement.failure_kind(),
                    Some(crate::measurement::FailureKind::Transient)
                ));
            }
            other => panic!("wrong variant {other:?}"),
        }

        let profile = rt::prof::ProfileNode {
            name: "worker".to_string(),
            total_ns: 3000,
            self_ns: 1000,
            calls: 2,
            children: Vec::new(),
        };
        let stats = WorkerResponse::Stats {
            jobs: 8,
            train_s: 1.5,
            hw_s: 0.25,
            panics: 1,
            profile: Some(profile.to_json()),
        };
        let wire = Json::parse(&stats.to_json().to_string()).unwrap();
        match WorkerResponse::from_json(&wire).unwrap() {
            WorkerResponse::Stats {
                jobs,
                train_s,
                hw_s,
                panics,
                profile,
            } => {
                assert_eq!((jobs, panics), (8, 1));
                assert_eq!((train_s, hw_s), (1.5, 0.25));
                let node = rt::prof::ProfileNode::from_json(&profile.expect("profile"))
                    .expect("profile parses");
                assert_eq!((node.name.as_str(), node.total_ns), ("worker", 3000));
            }
            other => panic!("wrong variant {other:?}"),
        }
        // Profile-less stats (no profiler requested) round-trip too.
        let bare = WorkerResponse::Stats {
            jobs: 0,
            train_s: 0.0,
            hw_s: 0.0,
            panics: 0,
            profile: None,
        };
        let wire = Json::parse(&bare.to_json().to_string()).unwrap();
        match WorkerResponse::from_json(&wire).unwrap() {
            WorkerResponse::Stats { profile, .. } => assert!(profile.is_none()),
            other => panic!("wrong variant {other:?}"),
        }
    }

    #[test]
    fn malformed_frames_are_protocol_errors() {
        for bad in [
            Json::object(),
            Json::object().insert("req", "explode"),
            Json::object().insert("req", "evaluate").insert("id", 1),
            Json::object().insert("resp", "nope"),
            Json::object().insert("resp", "evaluated").insert("id", 1),
        ] {
            let req_err = CoordinatorRequest::from_json(&bad).is_err();
            let resp_err = WorkerResponse::from_json(&bad).is_err();
            assert!(req_err && resp_err, "accepted {bad}");
        }
    }

    #[test]
    fn target_codec_covers_the_catalog() {
        for t in [
            HwTarget::Fpga(FpgaDevice::arria10_gx1150(4)),
            HwTarget::Fpga(FpgaDevice::stratix10_2800(2)),
            HwTarget::Gpu(GpuDevice::quadro_m5000()),
            HwTarget::Gpu(GpuDevice::titan_x()),
            HwTarget::Gpu(GpuDevice::radeon_vii()),
            HwTarget::Cpu(CpuDevice::xeon_22c()),
            HwTarget::Cpu(CpuDevice::desktop_8c()),
        ] {
            let wire = target_to_json(&t).unwrap();
            let back = target_from_json(&wire).unwrap();
            assert_eq!(back.device_name(), t.device_name());
            if let (HwTarget::Fpga(a), HwTarget::Fpga(b)) = (&t, &back) {
                assert_eq!(a.ddr.banks, b.ddr.banks);
            }
        }
        let custom = HwTarget::Fpga(FpgaDevice {
            name: "Bespoke".to_string(),
            ..FpgaDevice::arria10_gx1150(1)
        });
        assert!(target_to_json(&custom).is_err());
    }

    #[test]
    fn worker_session_serves_evaluate_loopback() {
        let server = WorkerServer::bind(
            "127.0.0.1:0",
            WorkerOptions::default(),
            Obs::disabled(),
        )
        .unwrap();
        let addr = server.local_addr().unwrap().to_string();
        let handle = std::thread::spawn(move || server.run().unwrap());

        let mut conn = Conn::connect(&addr, Duration::from_secs(10), rt::net::DEFAULT_MAX_FRAME)
            .unwrap();
        conn.handshake_client(COORDINATOR_ROLE, Some(WORKER_ROLE)).unwrap();
        let setup = setup_payload();
        let stamp = 0x77;
        conn.send(
            &CoordinatorRequest::Setup(Box::new(setup.clone()), stamp)
                .to_json()
                .unwrap(),
        )
        .unwrap();
        match WorkerResponse::from_json(&conn.recv().unwrap()).unwrap() {
            WorkerResponse::Ready { stamp: s } => assert_eq!(s, stamp),
            other => panic!("expected ready, got {other:?}"),
        }

        let genome = SearchSpace::fpga_default().sample(&mut StdRng::seed_from_u64(1));
        conn.send(
            &CoordinatorRequest::Evaluate {
                id: 0,
                stamp,
                genome: genome.clone(),
            }
            .to_json()
            .unwrap(),
        )
        .unwrap();
        let (remote_m, events) =
            match WorkerResponse::from_json(&conn.recv().unwrap()).unwrap() {
                WorkerResponse::Evaluated {
                    id,
                    stamp: s,
                    measurement,
                    events,
                    ..
                } => {
                    assert_eq!((id, s), (0, stamp));
                    (measurement, events)
                }
                other => panic!("expected evaluated, got {other:?}"),
            };

        // The remote measurement matches a local evaluation exactly —
        // the property the dedup cache and byte-identity both rest on.
        let local = CodesignEvaluator::new(
            setup.train.clone(),
            setup.test.clone(),
            setup.trainer,
            setup.target.clone(),
            setup.seed,
        )
        .evaluate(&genome);
        assert_eq!(remote_m.accuracy, local.accuracy);
        assert_eq!(remote_m.params, local.params);
        // Evaluation-time span closes (train, hw_model) were captured
        // for replay.
        assert!(
            events.iter().any(|e| e.name == "train"),
            "expected a captured train span close, got {:?}",
            events.iter().map(|e| e.name).collect::<Vec<_>>()
        );

        // A mismatched stamp is fenced with a protocol error (the
        // session drops; the worker keeps serving).
        conn.send(
            &CoordinatorRequest::Evaluate {
                id: 1,
                stamp: stamp + 1,
                genome: genome.clone(),
            }
            .to_json()
            .unwrap(),
        )
        .unwrap();
        assert!(conn.recv().is_err(), "stale-stamp job must not be answered");

        // Reconnect and kill: the worker exits its accept loop.
        let mut conn2 =
            Conn::connect(&addr, Duration::from_secs(10), rt::net::DEFAULT_MAX_FRAME).unwrap();
        conn2.handshake_client(COORDINATOR_ROLE, Some(WORKER_ROLE)).unwrap();
        conn2.send(&CoordinatorRequest::KillAll.to_json().unwrap()).unwrap();
        match WorkerResponse::from_json(&conn2.recv().unwrap()).unwrap() {
            WorkerResponse::Bye => {}
            other => panic!("expected bye, got {other:?}"),
        }
        handle.join().unwrap();
    }

    #[test]
    fn addr_salt_distinguishes_addresses() {
        assert_ne!(addr_salt("127.0.0.1:7001"), addr_salt("127.0.0.1:7002"));
        assert_eq!(addr_salt("a:1"), addr_salt("a:1"));
    }
}
