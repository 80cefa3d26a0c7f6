//! Pins the checkpoint file format across versions of the engine.
//!
//! `golden/checkpoint_v2.json` is a checkpoint written by an earlier
//! build: a seeded single-thread search with an injected transient
//! fault, halted one evaluation short of its budget while the failed
//! candidate's retry waits out its backoff. The current engine must
//! load that file and resume it to the uninterrupted run's outcome, and
//! the same halt written today must reproduce the file byte for byte
//! (except `wall_time_s`, which is measured wall clock).

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use ecad_core::checkpoint::{CheckpointPolicy, CheckpointState};
use ecad_core::engine::{Engine, EngineOutcome, EvolutionConfig, SelectionMode};
use ecad_core::faults::{FaultKind, FaultSchedule, FaultyEvaluator};
use ecad_core::fitness::ObjectiveSet;
use ecad_core::genome::CandidateGenome;
use ecad_core::measurement::{HwMetrics, InfeasibleReason, Measurement};
use ecad_core::space::SearchSpace;
use ecad_core::workers::Evaluator;

/// Deterministic evaluator with constant timing fields; wide networks
/// come back device-infeasible so the fixture carries both verdicts.
struct ToyEvaluator;

impl Evaluator for ToyEvaluator {
    fn evaluate(&self, genome: &CandidateGenome) -> Measurement {
        let neurons = genome.nna.total_neurons();
        if neurons > 800 {
            return Measurement::infeasible(InfeasibleReason::DeviceFit);
        }
        let accuracy = 1.0 - ((neurons as f32 - 256.0).abs() / 512.0).min(1.0);
        Measurement {
            accuracy,
            train_accuracy: accuracy,
            params: neurons * 10,
            neurons,
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

const EVALS: usize = 12;
/// The halt lands after the last fresh candidate, while the retry of
/// the transient failure at call `EVALS - 2` is still queued: its
/// backoff (at least half of `retry_backoff`) dwarfs a toy evaluation.
const HALT_AFTER: usize = EVALS - 1;

fn engine() -> Engine {
    let cfg = EvolutionConfig {
        population: 6,
        evaluations: EVALS,
        tournament: 2,
        crossover_rate: 0.5,
        seed: 11,
        threads: 1,
        selection: SelectionMode::WeightedScalar,
        retry_backoff: Duration::from_millis(400),
        ..EvolutionConfig::small()
    };
    let schedule = FaultSchedule::new().at(EVALS - 2, FaultKind::Transient);
    Engine::new(
        Arc::new(FaultyEvaluator::new(Arc::new(ToyEvaluator), schedule)),
        SearchSpace::gpu_default(),
        ObjectiveSet::accuracy_only(),
        cfg,
    )
}

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/checkpoint_v2.json")
}

/// The checkpoint text with the measured `wall_time_s` value blanked.
fn without_wall_time(text: &str) -> String {
    text.lines()
        .map(|line| {
            if line.trim_start().starts_with("\"wall_time_s\":") {
                "  \"wall_time_s\": <elapsed>,"
            } else {
                line
            }
        })
        .collect::<Vec<_>>()
        .join("\n")
}

fn outcome_fingerprint(o: &EngineOutcome) -> String {
    let s = &o.stats;
    format!(
        "trace={:?}\npopulation={:?}\nstats=({}, {}, {}, {}, {}, {}, {}, {}, {})",
        o.trace
            .iter()
            .map(|e| (e.genome.describe(), &e.measurement, e.fitness))
            .collect::<Vec<_>>(),
        o.population
            .iter()
            .map(|e| e.genome.describe())
            .collect::<Vec<_>>(),
        s.models_evaluated,
        s.cache_hits,
        s.total_eval_time_s,
        s.infeasible_count,
        s.train_time_s,
        s.hw_time_s,
        s.retry_count,
        s.timeout_count,
        s.respawn_count,
    )
}

#[test]
fn golden_checkpoint_resumes_to_the_uninterrupted_outcome() {
    let state = CheckpointState::load(&fixture_path()).expect("fixture loads");
    assert_eq!(state.trace.len(), HALT_AFTER);
    assert_eq!(state.pending.len(), 1, "the fixture holds one queued retry");
    assert_eq!(state.pending[0].attempt, 1);

    let uninterrupted = engine().run();
    let resumed = engine().resume(state).expect("fixture matches the config");
    assert!(!uninterrupted.halted && !resumed.halted);
    assert_eq!(resumed.stats.retry_count, 1);
    assert_eq!(
        outcome_fingerprint(&resumed),
        outcome_fingerprint(&uninterrupted)
    );
}

#[test]
fn golden_checkpoint_is_rewritten_byte_for_byte() {
    let path = std::env::temp_dir().join(format!(
        "ecad-checkpoint-golden-{}.json",
        std::process::id()
    ));
    let halted = engine()
        .with_checkpoint(CheckpointPolicy::new(&path, EVALS))
        .with_halt_after(HALT_AFTER)
        .run();
    assert!(halted.halted);
    let written = std::fs::read_to_string(&path).expect("halt wrote a checkpoint");
    std::fs::remove_file(&path).ok();
    let golden = std::fs::read_to_string(fixture_path()).expect("fixture readable");
    assert_eq!(without_wall_time(&written), without_wall_time(&golden));
}
