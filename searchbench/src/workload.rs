//! The workloads: what each one generates from the seed, how it is set
//! up before `Search::run`, and how one search over it is launched.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ecad_core::cluster::{ClusterHealth, ClusterOptions, WorkerOptions, WorkerServer};
use ecad_core::engine::EvolutionConfig;
use ecad_core::fitness::ObjectiveSet;
use ecad_core::search::{Search, SearchResult};
use ecad_core::space::SearchSpace;
use ecad_core::workers::HwTarget;
use ecad_dataset::benchmarks::{self, Benchmark};
use ecad_dataset::{csv, scaler, Dataset};
use ecad_hw::fpga::FpgaDevice;
use ecad_mlp::TrainConfig;
use rt::obs::Obs;
use rt::rand::rngs::StdRng;
use rt::rand::SeedableRng;

use crate::host;
use crate::spans::SpanLog;

/// Where a workload's dataset comes from at set-up time.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Source {
    /// Synthesized in memory from the seed.
    Synthesized,
    /// Synthesized once as input, written as CSV, and parsed back at
    /// every set-up — the `ecad search --data` path.
    Csv,
}

pub struct Workload {
    pub name: &'static str,
    /// Paper benchmark whose feature and class counts the data copies.
    shape: Benchmark,
    samples: usize,
    source: Source,
    layers: (usize, usize),
    neurons: (usize, usize),
    epochs: usize,
    pub population: usize,
    pub evaluations: usize,
    /// In-process loopback cluster workers; 0 evaluates locally at
    /// `threads = 1`.
    pub workers: usize,
}

/// Every workload. Sizes are chosen so one search takes about 7 s on a
/// 2 GHz core, three of them fit a 30 s run, and each averages over
/// enough candidates in a narrow width band that the per-seed genome
/// mix does not dominate the throughput figures (with populations of
/// 16 and widths of 16–192, `evals_per_s` spread by half across seeds).
pub const WORKLOADS: [Workload; 3] = [
    // Steady-state breeding, dedup and selection over a budget larger
    // than the population; training dominated by hidden x hidden GEMMs
    // and per-minibatch trainer overhead. Set-up is trivial, so this is
    // the control for set-up work.
    Workload {
        name: "search-narrow",
        shape: Benchmark::CreditG,
        samples: 1000,
        source: Source::Synthesized,
        layers: (2, 3),
        neurons: (64, 128),
        epochs: 2,
        population: 144,
        evaluations: 224,
        workers: 0,
    },
    // MNIST-shaped (784 features) loaded from CSV: set-up is dominated
    // by CSV parsing and wide standardization, and the first layer's
    // K = 784 gives GEMM shapes the narrow workload never sees.
    Workload {
        name: "search-wide",
        shape: Benchmark::Mnist,
        samples: 1200,
        source: Source::Csv,
        layers: (1, 2),
        neurons: (64, 128),
        epochs: 1,
        population: 40,
        evaluations: 80,
        workers: 0,
    },
    // HAR-shaped (561 features) batch on two loopback workers with
    // budget = population: the work is exactly the seeded initial
    // population whatever order results arrive in, so wall time is set
    // by session set-up, per-job framing and `id % n` routing balance.
    Workload {
        name: "cluster-batch",
        shape: Benchmark::Har,
        samples: 800,
        source: Source::Synthesized,
        layers: (1, 3),
        neurons: (32, 160),
        epochs: 2,
        population: 160,
        evaluations: 160,
        workers: 2,
    },
];

pub fn named(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Inputs generated once per run from the seed.
pub struct Inputs {
    pub seed: u64,
    /// The CSV file and the dataset it was written from, for CSV
    /// workloads. The file is removed when the inputs drop.
    pub csv: Option<CsvInput>,
}

pub struct CsvInput {
    pub path: PathBuf,
    pub bytes: u64,
    pub written_from: Dataset,
}

impl Drop for CsvInput {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// Wall time of a search, and the part of it the hypervisor stole.
#[derive(Clone, Copy)]
pub struct Timing {
    pub wall_s: f64,
    /// CPU time stolen from this machine's vCPUs during the search,
    /// divided by the vCPUs the search keeps busy.
    pub stolen_s: f64,
}

impl Timing {
    /// Wall time minus stolen time: how long the search ran.
    pub fn running_s(&self) -> f64 {
        self.wall_s - self.stolen_s
    }
}

/// Times `f`, reading the steal counter around it. On a shared virtual
/// machine steal is a large part of the run-to-run spread, and it is no
/// property of the program.
pub fn timed_search<T>(busy_vcpus: usize, f: impl FnOnce() -> T) -> (T, Timing) {
    let stolen_before = host::stolen_s();
    let start = Instant::now();
    let out = f();
    let wall_s = start.elapsed().as_secs_f64();
    let stolen_s = match (stolen_before, host::stolen_s()) {
        (Some(before), Some(after)) => (after - before).max(0.0) / busy_vcpus as f64,
        _ => 0.0,
    };
    (out, Timing { wall_s, stolen_s })
}

/// Wall-clock seconds of each set-up phase.
#[derive(Clone, Copy, Default)]
pub struct SetupTimings {
    pub generate_s: f64,
    pub csv_parse_s: f64,
    pub split_s: f64,
    pub standardize_s: f64,
    pub bind_s: f64,
    pub total_s: f64,
}

/// Everything `Search::run` needs, built by [`Workload::setup`].
pub struct Prepared {
    pub train: Dataset,
    pub test: Dataset,
    /// The dataset as materialised (before split), for input checks.
    pub loaded: Dataset,
    /// Bound but not yet serving; see [`Prepared::start_workers`].
    servers: Vec<WorkerServer>,
    pub timings: SetupTimings,
}

/// Loopback workers serving on their own threads.
pub struct Serving {
    pub addrs: Vec<String>,
    stops: Vec<Arc<AtomicBool>>,
    handles: Vec<JoinHandle<io::Result<()>>>,
}

impl Serving {
    /// Stops every worker that the coordinator's `kill_all` did not
    /// already stop, and waits for all of them.
    pub fn shutdown(self) -> Result<(), String> {
        for stop in &self.stops {
            stop.store(true, std::sync::atomic::Ordering::Release);
        }
        for (addr, handle) in self.addrs.iter().zip(self.handles) {
            match handle.join() {
                Ok(Ok(())) => {}
                Ok(Err(e)) => return Err(format!("worker {addr} accept loop failed: {e}")),
                Err(_) => return Err(format!("worker {addr} panicked")),
            }
        }
        Ok(())
    }
}

impl Prepared {
    pub fn start_workers(&mut self) -> Result<Serving, String> {
        let mut serving = Serving {
            addrs: Vec::new(),
            stops: Vec::new(),
            handles: Vec::new(),
        };
        for server in self.servers.drain(..) {
            let addr = server
                .local_addr()
                .map_err(|e| format!("worker address: {e}"))?;
            serving.addrs.push(addr.to_string());
            serving.stops.push(server.stop_handle());
            serving
                .handles
                .push(std::thread::spawn(move || server.run()));
        }
        Ok(serving)
    }
}

fn timed<T>(log: Option<(&SpanLog, u64)>, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
    let span = log.map(|(l, parent)| l.open(name, Some(parent), None));
    let start = Instant::now();
    let out = f();
    let secs = start.elapsed().as_secs_f64();
    if let (Some((l, _)), Some(span)) = (log, span) {
        l.close(span);
    }
    (out, secs)
}

impl Workload {
    /// The search's RNG seed: derived from the run's seed, which seeds
    /// the data directly, but distinct from it so the two streams do
    /// not correlate.
    pub fn search_seed(seed: u64) -> u64 {
        seed ^ 0x9e37_79b9_7f4a_7c15
    }

    fn synthesize(&self, seed: u64) -> Dataset {
        benchmarks::load(self.shape)
            .with_samples(self.samples)
            .with_seed(seed)
            .generate()
    }

    /// Generates the run's inputs. For CSV workloads this writes the
    /// file the set-up parses; the write is input generation, not
    /// set-up, and is not timed.
    pub fn make_inputs(&self, seed: u64, out_dir: &Path) -> Result<Inputs, String> {
        let csv = match self.source {
            Source::Synthesized => None,
            Source::Csv => {
                std::fs::create_dir_all(out_dir)
                    .map_err(|e| format!("create {}: {e}", out_dir.display()))?;
                let ds = self.synthesize(seed);
                let path = out_dir.join(format!(
                    "{}-seed{seed}-{}.csv",
                    self.name,
                    std::process::id()
                ));
                csv::write_dataset_file(&ds, &path)
                    .map_err(|e| format!("write {}: {e}", path.display()))?;
                let bytes = std::fs::metadata(&path)
                    .map_err(|e| format!("stat {}: {e}", path.display()))?
                    .len();
                Some(CsvInput {
                    path,
                    bytes,
                    written_from: ds,
                })
            }
        };
        Ok(Inputs { seed, csv })
    }

    /// Everything before `Search::run`: dataset materialisation
    /// (synthesis or CSV parse), split, standardisation and worker bind.
    /// With a span log, each phase is recorded under a `setup` span.
    pub fn setup(&self, inputs: &Inputs, log: Option<&SpanLog>) -> Result<Prepared, String> {
        let root = log.map(|l| l.open("setup", None, None));
        let parent = log.zip(root.as_ref().map(|r| r.id()));
        let start = Instant::now();
        let mut t = SetupTimings::default();

        let loaded = match &inputs.csv {
            None => {
                let (ds, s) = timed(parent, "dataset.generate", || self.synthesize(inputs.seed));
                t.generate_s = s;
                ds
            }
            Some(input) => {
                let (ds, s) = timed(parent, "dataset.csv_parse", || {
                    csv::read_dataset_file(&input.path)
                });
                t.csv_parse_s = s;
                ds.map_err(|e| format!("parse {}: {e}", input.path.display()))?
            }
        };
        let ((train, test), s) = timed(parent, "dataset.split", || {
            let mut rng = StdRng::seed_from_u64(Self::search_seed(inputs.seed) ^ 0x5eed_0011);
            loaded.split(0.25, &mut rng)
        });
        t.split_s = s;
        let ((train, test), s) = timed(parent, "dataset.standardize", || {
            scaler::standardize_pair(&train, &test)
        });
        t.standardize_s = s;
        let (servers, s) = timed(parent, "workers.bind", || {
            (0..self.workers)
                .map(|_| {
                    WorkerServer::bind("127.0.0.1:0", WorkerOptions::default(), Obs::disabled())
                })
                .collect::<io::Result<Vec<_>>>()
        });
        t.bind_s = s;
        let servers = servers.map_err(|e| format!("bind loopback worker: {e}"))?;
        t.total_s = start.elapsed().as_secs_f64();
        if let (Some(l), Some(root)) = (log, root) {
            l.close(root);
        }
        Ok(Prepared {
            train,
            test,
            loaded,
            servers,
            timings: t,
        })
    }

    pub fn target() -> HwTarget {
        HwTarget::Fpga(FpgaDevice::arria10_gx1150(1))
    }

    pub fn objectives() -> ObjectiveSet {
        ObjectiveSet::accuracy_and_throughput()
    }

    pub fn space(&self) -> SearchSpace {
        SearchSpace::fpga_default()
            .with_layers(self.layers.0, self.layers.1)
            .with_neurons(self.neurons.0, self.neurons.1)
    }

    /// Fixed epochs (no early stopping), so a candidate's training cost
    /// depends on its shape alone.
    pub fn trainer(&self) -> TrainConfig {
        TrainConfig {
            epochs: self.epochs,
            patience: 0,
            ..TrainConfig::fast()
        }
    }

    /// The evolution settings `Search` derives from the builder calls in
    /// [`Workload::search`]; the traced run hands them to `Engine`
    /// directly.
    pub fn evolution(&self, seed: u64) -> EvolutionConfig {
        EvolutionConfig {
            population: self.population,
            evaluations: self.evaluations,
            seed: Self::search_seed(seed),
            threads: 1,
            ..EvolutionConfig::small()
        }
    }

    /// Builds the search over a prepared split. `cluster` routes
    /// evaluation to the given loopback workers.
    fn search(
        &self,
        prepared: &Prepared,
        seed: u64,
        obs: Obs,
        cluster: Option<(&Serving, Arc<ClusterHealth>)>,
    ) -> Search {
        let mut search = Search::with_split(&prepared.train, &prepared.test)
            .without_standardization()
            .target(Self::target())
            .space(self.space())
            .objectives(Self::objectives())
            .population(self.population)
            .evaluations(self.evaluations)
            .seed(Self::search_seed(seed))
            .threads(1)
            .trainer(self.trainer())
            .obs(obs);
        if let Some((serving, health)) = cluster {
            search = search
                .cluster(ClusterOptions {
                    workers: serving.addrs.clone(),
                    // Generous: a slow shared host must not turn a long
                    // evaluation into a retry.
                    net_timeout: Duration::from_secs(120),
                    ..ClusterOptions::default()
                })
                .cluster_health(health);
        }
        search
    }

    /// Runs [`Workload::search`], returning the result and the timing
    /// of `Search::run` alone.
    pub fn run_search(
        &self,
        prepared: &mut Prepared,
        seed: u64,
        obs: Obs,
    ) -> Result<(SearchResult, Timing, Option<Arc<ClusterHealth>>), String> {
        let busy = self.workers.max(1);
        if self.workers == 0 {
            let search = self.search(prepared, seed, obs, None);
            let (result, timing) = timed_search(busy, || search.run());
            return Ok((result, timing, None));
        }
        let serving = prepared.start_workers()?;
        let health = Arc::new(ClusterHealth::new(&serving.addrs));
        let search = self.search(prepared, seed, obs, Some((&serving, Arc::clone(&health))));
        let (result, timing) = timed_search(busy, || search.run());
        serving.shutdown()?;
        Ok((result, timing, Some(health)))
    }
}
