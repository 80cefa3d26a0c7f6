//! searchbench — end-to-end benchmark of the co-design search.
//!
//! ```text
//! cargo run --release --offline --manifest-path searchbench/Cargo.toml -- \
//!     --workload <search-narrow|search-wide|cluster-batch|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload generates its inputs from the seed, then repeats a
//! full set-up (dataset materialisation, split, standardisation, worker
//! bind) and a seeded `Search::run` until `--seconds` are spent, and
//! checks every search's outputs. `--trace 0` prints the end-to-end
//! metrics; `--trace 1` runs the search traced, between two untraced
//! runs of it, and prints the per-layer metrics. The last line of
//! standard output is one JSON object: `correct`, `attempted`,
//! `failed`, `metrics`.
//! `--workload all` runs every workload in its own process.

mod checks;
mod host;
mod layers;
mod probe;
mod spans;
mod workload;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ecad_core::cluster::{ClusterHealth, WorkerState};
use ecad_core::engine::{Engine, EngineStats, Evaluated};
use ecad_core::search::SearchResult;
use ecad_core::workers::CodesignEvaluator;
use ecad_dataset::Dataset;
use rt::bench::quantile;
use rt::json::Json;
use rt::obs::Obs;
use rt::prof::{ClockKind, Profiler};

use checks::Checks;
use layers::{Metric, TracedRun};
use probe::{Probe, EVALUATE_SPAN};
use spans::SpanLog;
use workload::{Inputs, SetupTimings, Timing, Workload, WORKLOADS};

/// Share of a run spent on set-ups with no search after them, so
/// `setup_s` is a median over many more samples than there are
/// searches. They run in a chunk before each search, so they sample the
/// host at the same times the searches do.
const SETUP_SHARE: f64 = 0.1;
/// Searches per untraced run at least; the determinism check compares
/// their digests.
const MIN_REPS: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, got {value:?}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                })
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if workload != "all" && workload::named(&workload).is_none() {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!(
            "unknown workload {workload:?}; one of {names:?} or \"all\""
        ));
    }
    let seconds = seconds.unwrap_or(10);
    if !(1..=3600).contains(&seconds) {
        return Err(format!("--seconds must be 1..=3600, got {seconds}"));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// Pins the knobs the program reads from the environment, so a
/// developer's shell cannot change the numbers. Runs before any thread
/// starts: the GEMM lane count and the shared pool size are read once
/// per process.
fn pin_knobs() -> bool {
    std::env::set_var("ECAD_GEMM_THREADS", "1");
    std::env::set_var("ECAD_POOL_THREADS", "1");
    ecad_tensor::gemm::set_threads(1);
    pin_malloc_arenas()
}

/// Caps glibc at one malloc arena (overriding `MALLOC_ARENA_MAX`);
/// true when the cap took. With the default per-thread arenas, peak RSS
/// depends on which threads happen to allocate concurrently — on the
/// cluster workload it ranged from 104 to 149 MB across identical runs.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn pin_malloc_arenas() -> bool {
    use std::os::raw::c_int;
    /// glibc's `mallopt` parameter for the arena cap.
    const M_ARENA_MAX: c_int = -8;
    extern "C" {
        fn mallopt(param: c_int, value: c_int) -> c_int;
    }
    // SAFETY: `mallopt` only updates allocator tunables and is called
    // before this process starts any thread.
    unsafe { mallopt(M_ARENA_MAX, 1) == 1 }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn pin_malloc_arenas() -> bool {
    false
}

fn knobs_line(one_arena: bool) -> String {
    let var = |k: &str| std::env::var(k).unwrap_or_default();
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "knobs ECAD_GEMM_THREADS={} ECAD_POOL_THREADS={} gemm_threads={} malloc_arena_max={} available_parallelism={cores}",
        var("ECAD_GEMM_THREADS"),
        var("ECAD_POOL_THREADS"),
        ecad_tensor::gemm::threads(),
        if one_arena { "1" } else { "default" },
    )
}

/// Where traced runs write their spans and profile, and CSV workloads
/// their input file: inside the benchmark's own directory.
fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

struct Report {
    checks: Checks,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

impl Report {
    fn correct(&self) -> bool {
        self.checks.failures.is_empty()
    }

    fn to_json(&self) -> Json {
        let metrics = self.metrics.iter().fold(Json::object(), |acc, m| {
            acc.insert(
                m.name,
                Json::object()
                    .insert("value", m.value)
                    .insert("unit", m.unit),
            )
        });
        Json::object()
            .insert("correct", self.correct())
            .insert("attempted", self.attempted)
            .insert("failed", self.failed)
            .insert("metrics", metrics)
    }
}

/// One search's summary.
struct Rep {
    timing: Timing,
    evaluations: usize,
    digest: u64,
    best_accuracy: f32,
    hypervolume: f64,
    attempted: u64,
    failed: u64,
}

impl Rep {
    fn evals_per_s(&self) -> f64 {
        self.evaluations as f64 / self.timing.running_s()
    }
}

fn workers_lost(health: Option<&ClusterHealth>) -> usize {
    health.map_or(0, |h| {
        h.snapshot()
            .iter()
            .filter(|w| w.state == WorkerState::Lost)
            .count()
    })
}

/// Checks one search and counts its attempts and failures. A failure
/// is a retry, timeout, panic or lost worker; failed checks are added
/// by the caller once per run.
#[allow(clippy::too_many_arguments)]
fn summarize(
    checks: &mut Checks,
    w: &Workload,
    seed: u64,
    trace: &[Evaluated],
    stats: &EngineStats,
    front: Option<&[&Evaluated]>,
    test: &Dataset,
    health: Option<&ClusterHealth>,
    timing: Timing,
) -> Rep {
    checks::check_search(checks, w, seed, trace, front, test);
    let failed =
        stats.retry_count + stats.timeout_count + checks::panics(trace) + workers_lost(health);
    Rep {
        timing,
        evaluations: trace.len(),
        digest: checks::digest(trace, w.workers > 0),
        best_accuracy: checks::best_accuracy(trace),
        hypervolume: checks::hypervolume(trace),
        attempted: (trace.len() + stats.retry_count) as u64,
        failed: failed as u64,
    }
}

fn print_rep(index: usize, setup_s: f64, rep: &Rep) {
    println!(
        "rep {index}: setup {setup_s:.4} s, search {:.3} s of which {:.3} s stolen, {} evaluations, {:.3} evals/s, digest {:016x}",
        rep.timing.wall_s,
        rep.timing.stolen_s,
        rep.evaluations,
        rep.evals_per_s(),
        rep.digest
    );
}

fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5).unwrap_or(f64::NAN)
}

/// One chunk of set-ups with no search after them: at least one, and
/// more while the chunk's share of the run lasts.
fn setup_chunk(
    w: &Workload,
    inputs: &Inputs,
    seconds: u64,
    checks: &mut Checks,
    setups: &mut Vec<SetupTimings>,
) -> Result<(), String> {
    let start = Instant::now();
    let budget = Duration::from_secs_f64(seconds as f64 * SETUP_SHARE / MIN_REPS as f64);
    loop {
        let prepared = w.setup(inputs, None)?;
        checks::check_inputs(checks, inputs, &prepared);
        setups.push(prepared.timings);
        if start.elapsed() >= budget {
            return Ok(());
        }
    }
}

/// One untraced set-up and search, checked and summarized.
fn untraced_rep(
    w: &Workload,
    inputs: &Inputs,
    seed: u64,
    checks: &mut Checks,
    setups: &mut Vec<SetupTimings>,
    index: usize,
) -> Result<(SearchResult, Rep), String> {
    let mut prepared = w.setup(inputs, None)?;
    checks::check_inputs(checks, inputs, &prepared);
    setups.push(prepared.timings);
    let (result, timing, health) = w.run_search(&mut prepared, seed, Obs::disabled())?;
    let front = result.pareto_accuracy_throughput();
    let rep = summarize(
        checks,
        w,
        seed,
        result.trace(),
        &result.stats(),
        Some(&front),
        &prepared.test,
        health.as_deref(),
        timing,
    );
    print_rep(index, prepared.timings.total_s, &rep);
    Ok((result, rep))
}

/// Untraced run: repeated set-up + search until the time is spent.
fn measure(w: &Workload, args: &Args) -> Result<Report, String> {
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let inputs = w.make_inputs(args.seed, &out_dir())?;
    let mut checks = Checks::default();
    let mut setups = Vec::new();
    let mut reps: Vec<Rep> = Vec::new();
    loop {
        let started = Instant::now();
        setup_chunk(w, &inputs, args.seconds, &mut checks, &mut setups)?;
        let index = reps.len() + 1;
        let (_, rep) = untraced_rep(w, &inputs, args.seed, &mut checks, &mut setups, index)?;
        reps.push(rep);
        if reps.len() >= MIN_REPS && Instant::now() + started.elapsed() > deadline {
            break;
        }
    }
    let first = &reps[0];
    for (i, rep) in reps.iter().enumerate().skip(1) {
        checks.require(rep.digest == first.digest, || {
            format!(
                "search {} digest {:016x} differs from search 1 digest {:016x}",
                i + 1,
                rep.digest,
                first.digest
            )
        });
    }
    let evals_per_s: Vec<f64> = reps.iter().map(Rep::evals_per_s).collect();
    let setup_s: Vec<f64> = setups.iter().map(|t| t.total_s).collect();
    let rss = host::peak_rss_mb();
    checks.require(rss.is_some(), || {
        "peak RSS unavailable (/proc/self/status)".into()
    });
    println!(
        "setup_s is the median of {} set-ups; evals_per_s the median of {} searches of {} unique evaluations",
        setups.len(),
        reps.len(),
        first.evaluations
    );
    let metrics = vec![
        Metric::new("setup_s", median(&setup_s), "s"),
        Metric::new("evals_per_s", median(&evals_per_s), "1/s"),
        Metric::new("best_accuracy", f64::from(first.best_accuracy), "frac"),
        Metric::new("hypervolume", first.hypervolume, "vol"),
        Metric::new("peak_rss_mb", rss.unwrap_or(f64::NAN), "MB"),
    ];
    Ok(Report {
        attempted: reps.iter().map(|r| r.attempted).sum(),
        failed: reps.iter().map(|r| r.failed).sum(),
        checks,
        metrics,
    })
}

/// Traced run: the search with spans recorded, between two untraced
/// runs of the same search. The traced run must reproduce them. The
/// base of the tracing overhead is the untraced run after it: the
/// first search in a process is the slowest, by up to a seventh.
fn trace_run(w: &Workload, args: &Args) -> Result<Report, String> {
    let seed = args.seed;
    let inputs = w.make_inputs(seed, &out_dir())?;
    let mut checks = Checks::default();
    let mut setups = Vec::new();
    setup_chunk(w, &inputs, args.seconds, &mut checks, &mut setups)?;
    let (reference, before) = untraced_rep(w, &inputs, seed, &mut checks, &mut setups, 1)?;

    setup_chunk(w, &inputs, args.seconds, &mut checks, &mut setups)?;
    let log = Arc::new(SpanLog::new());
    let mut prepared = w.setup(&inputs, Some(&log))?;
    checks::check_inputs(&mut checks, &inputs, &prepared);
    setups.push(prepared.timings);
    let profiler = Profiler::new(ClockKind::Wall);
    let obs = Obs::builder().profiler(profiler.clone()).build();
    let search_span = log.open("search", None, None);
    let (trace, stats, timing, health, evaluate_s) = if w.workers == 0 {
        let evaluator = CodesignEvaluator::new(
            prepared.train.clone(),
            prepared.test.clone(),
            w.trainer(),
            Workload::target(),
            Workload::search_seed(seed),
        )
        .with_obs(obs.clone());
        let probe = Probe::new(evaluator, Arc::clone(&log), search_span.id());
        let engine = Engine::new(
            Arc::new(probe),
            w.space(),
            Workload::objectives(),
            w.evolution(seed),
        )
        .with_obs(obs);
        let (outcome, timing) = workload::timed_search(1, || engine.run());
        let evaluate_s = log.durations(EVALUATE_SPAN);
        (outcome.trace, outcome.stats, timing, None, evaluate_s)
    } else {
        let (result, timing, health) = w.run_search(&mut prepared, seed, obs)?;
        let trace = result.trace().to_vec();
        let evaluate_s = trace.iter().map(|e| e.measurement.eval_time_s).collect();
        (trace, result.stats(), timing, health, evaluate_s)
    };
    log.close(search_span);
    let traced = summarize(
        &mut checks,
        w,
        seed,
        &trace,
        &stats,
        None,
        &prepared.test,
        health.as_deref(),
        timing,
    );
    print_rep(2, prepared.timings.total_s, &traced);
    if w.workers == 0 {
        checks::check_equivalent(&mut checks, &trace, reference.trace());
    } else {
        checks.require(traced.digest == before.digest, || {
            format!(
                "traced cluster digest {:016x} differs from untraced {:016x}",
                traced.digest, before.digest
            )
        });
    }
    drop(prepared);
    setup_chunk(w, &inputs, args.seconds, &mut checks, &mut setups)?;
    let (_, after) = untraced_rep(w, &inputs, seed, &mut checks, &mut setups, 3)?;
    checks.require(after.digest == before.digest, || {
        format!(
            "untraced digests differ: {:016x} then {:016x}",
            before.digest, after.digest
        )
    });

    let profile = profiler.report();
    let run = TracedRun {
        workload: w,
        setups: &setups,
        csv_bytes: inputs.csv.as_ref().map_or(0, |c| c.bytes),
        timing,
        untraced_evals_per_s: after.evals_per_s(),
        trace: &trace,
        stats: &stats,
        profile: &profile,
        evaluate_s: &evaluate_s,
        workers_lost: workers_lost(health.as_deref()),
    };
    let metrics = run.metrics();
    let attributed = run.attributed_s();
    let search_s = timing.wall_s;
    println!(
        "attribution: layer self times {attributed:.4} s + unattributed {:.4} s = search {search_s:.4} s{}",
        search_s - attributed,
        if w.workers > 0 { " (per slot)" } else { "" }
    );
    if w.workers == 0 {
        // Spans nest and a single slot never overlaps the master loop,
        // so attributed time cannot exceed the search's wall time.
        checks.require(attributed <= search_s * 1.001, || {
            format!("layer self times {attributed} s exceed the search time {search_s} s")
        });
    }

    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let stem = format!("{}-seed{seed}", w.name);
    let spans_path = dir.join(format!("{stem}-spans.jsonl"));
    log.write_jsonl(&spans_path)
        .map_err(|e| format!("write {}: {e}", spans_path.display()))?;
    let profile_path = dir.join(format!("{stem}-profile.json"));
    let doc = rt::prof::profile_to_json(ClockKind::Wall, &profile);
    std::fs::write(&profile_path, doc.pretty())
        .map_err(|e| format!("write {}: {e}", profile_path.display()))?;
    println!("spans: {}", spans_path.display());
    println!("profile: {}", profile_path.display());

    Ok(Report {
        attempted: before.attempted + traced.attempted + after.attempted,
        failed: before.failed + traced.failed + after.failed,
        checks,
        metrics,
    })
}

fn run_one(w: &Workload, args: &Args, one_arena: bool) -> Result<ExitCode, String> {
    println!(
        "searchbench workload={} seed={} seconds={} trace={}",
        w.name,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("{}", knobs_line(one_arena));
    let mut report = if args.trace {
        trace_run(w, args)?
    } else {
        measure(w, args)?
    };
    for m in &report.metrics {
        println!("{:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
    if let Some(m) = report.metrics.iter().find(|m| !m.value.is_finite()) {
        let name = m.name;
        report
            .checks
            .require(false, || format!("metric {name} is not finite"));
    }
    for failure in &report.checks.failures {
        println!("CHECK FAILED: {failure}");
    }
    report.failed += report.checks.failures.len() as u64;
    report.attempted = report.attempted.max(1);
    println!(
        "{:<28} {:>16.6} frac ({} failed of {} attempted)",
        "failed_frac",
        report.failed as f64 / report.attempted as f64,
        report.failed,
        report.attempted
    );
    println!("{}", report.to_json());
    Ok(if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Runs every workload in its own process, so peak RSS and the
/// process-wide GEMM setting cannot leak between them, and prints one
/// combined JSON line with workload-prefixed metric names.
fn run_all(args: &Args) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate own executable: {e}"))?;
    let mut correct = true;
    let mut attempted = 0.0;
    let mut failed = 0.0;
    let mut metrics = Json::object();
    for w in &WORKLOADS {
        let out = Command::new(&exe)
            .args(["--workload", w.name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("run {}: {e}", w.name))?;
        let text = String::from_utf8_lossy(&out.stdout);
        let mut lines: Vec<&str> = text.lines().collect();
        let last = lines.pop().unwrap_or_default();
        for line in lines {
            println!("{line}");
        }
        let doc = Json::parse(last).map_err(|e| format!("{}: no result line ({e})", w.name))?;
        correct &= out.status.success() && doc.get("correct").and_then(Json::as_bool) == Some(true);
        attempted += doc.get("attempted").and_then(Json::as_f64).unwrap_or(0.0);
        failed += doc.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
        if let Some(Json::Object(pairs)) = doc.get("metrics") {
            for (name, value) in pairs {
                metrics = metrics.insert(&format!("{}/{name}", w.name), value.clone());
            }
        }
        println!();
    }
    let doc = Json::object()
        .insert("correct", correct)
        .insert("attempted", attempted)
        .insert("failed", failed)
        .insert("metrics", metrics);
    println!("{doc}");
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let one_arena = pin_knobs();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = parse_args(&argv).and_then(|args| match workload::named(&args.workload) {
        Some(w) => run_one(w, &args, one_arena),
        None => run_all(&args),
    });
    result.unwrap_or_else(|e| {
        eprintln!("searchbench: {e}");
        ExitCode::from(2)
    })
}
