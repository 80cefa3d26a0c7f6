//! Output checks run on every search, and the digests the determinism
//! checks compare.

use std::collections::BTreeSet;

use ecad_core::analytics::ParetoArchive;
use ecad_core::engine::Evaluated;
use ecad_core::measurement::InfeasibleReason;
use ecad_dataset::Dataset;
use rt::rand::rngs::StdRng;
use rt::rand::SeedableRng;

use crate::workload::{Inputs, Prepared, Workload};

/// Failed checks, in the order they were found.
#[derive(Default)]
pub struct Checks {
    pub failures: Vec<String>,
}

impl Checks {
    pub fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }
}

/// The set-up reproduced the generated inputs: a CSV workload parses
/// back exactly the dataset that was written.
pub fn check_inputs(checks: &mut Checks, inputs: &Inputs, prepared: &Prepared) {
    if let Some(csv) = &inputs.csv {
        let same = prepared.loaded.features() == csv.written_from.features()
            && prepared.loaded.labels() == csv.written_from.labels();
        checks.require(same, || {
            "CSV parse does not reproduce the written dataset".into()
        });
    }
}

fn majority_rate(test: &Dataset) -> f32 {
    let top = test.class_counts().into_iter().max().unwrap_or(0);
    top as f32 / test.len().max(1) as f32
}

/// Candidates whose evaluating worker panicked.
pub fn panics(trace: &[Evaluated]) -> usize {
    trace
        .iter()
        .filter(|e| e.measurement.infeasible_reason() == Some(&InfeasibleReason::WorkerPanic))
        .count()
}

/// Highest test accuracy anywhere in the trace.
pub fn best_accuracy(trace: &[Evaluated]) -> f32 {
    trace
        .iter()
        .map(|e| e.measurement.accuracy)
        .fold(0.0, f32::max)
}

/// Hypervolume of the feasible accuracy x throughput front, measured
/// with the engine's own archive over the search's oriented objectives.
pub fn hypervolume(trace: &[Evaluated]) -> f64 {
    let objectives = Workload::objectives();
    let mut archive = ParetoArchive::new();
    for e in trace.iter().filter(|e| e.measurement.hw.is_feasible()) {
        archive.insert(&objectives.oriented_values(&e.measurement));
    }
    archive.hypervolume()
}

/// FNV-1a over each candidate's genome and accuracy bits. `sorted`
/// digests the list in genome order, for runs whose completion order
/// is not deterministic.
pub fn digest(trace: &[Evaluated], sorted: bool) -> u64 {
    let mut items: Vec<(String, u32)> = trace
        .iter()
        .map(|e| (e.genome.describe(), e.measurement.accuracy.to_bits()))
        .collect();
    if sorted {
        items.sort();
    }
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for (genome, bits) in &items {
        for b in genome.bytes().chain(bits.to_le_bytes()) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Checks one search's outputs. `front` is the reported
/// accuracy x outputs/s front when the run produced one.
pub fn check_search(
    checks: &mut Checks,
    workload: &Workload,
    seed: u64,
    trace: &[Evaluated],
    front: Option<&[&Evaluated]>,
    test: &Dataset,
) {
    checks.require(trace.len() == workload.evaluations, || {
        format!(
            "trace holds {} evaluations, budget is {}",
            trace.len(),
            workload.evaluations
        )
    });
    for e in trace {
        let m = &e.measurement;
        checks.require((0.0..=1.0).contains(&m.accuracy), || {
            format!("accuracy {} out of [0,1] for {}", m.accuracy, e.genome)
        });
        if m.hw.is_feasible() {
            let values = [
                m.hw.outputs_per_s(),
                m.hw.efficiency(),
                m.hw.latency_s(),
                m.hw.power_w(),
            ];
            checks.require(values.iter().all(|v| v.is_finite() && *v > 0.0), || {
                format!(
                    "non-positive or non-finite hardware metric {values:?} for {}",
                    e.genome
                )
            });
        }
    }
    if let Some(front) = front {
        for a in front {
            for b in front {
                let (aa, at) = (a.measurement.accuracy, a.measurement.hw.outputs_per_s());
                let (ba, bt) = (b.measurement.accuracy, b.measurement.hw.outputs_per_s());
                let dominates = aa >= ba && at >= bt && (aa > ba || at > bt);
                checks.require(!dominates, || {
                    format!(
                        "front member {} dominates front member {}",
                        a.genome, b.genome
                    )
                });
            }
        }
    }
    let best = best_accuracy(trace);
    let majority = majority_rate(test);
    checks.require(best > majority, || {
        format!("best accuracy {best} does not beat the majority-class rate {majority}")
    });
    if workload.workers > 0 {
        // The engine seeds its initial population with the first
        // `population` samples of a fresh RNG on the search seed.
        let mut rng = StdRng::seed_from_u64(Workload::search_seed(seed));
        let space = workload.space();
        let seeded: BTreeSet<String> = (0..workload.population.min(workload.evaluations))
            .map(|_| space.sample(&mut rng).describe())
            .collect();
        let evaluated: BTreeSet<String> = trace.iter().map(|e| e.genome.describe()).collect();
        checks.require(seeded == evaluated, || {
            format!(
                "evaluated genome set ({} genomes) differs from the seeded initial population ({})",
                evaluated.len(),
                seeded.len()
            )
        });
    }
}

/// The traced composition reproduced the untraced search exactly:
/// same candidates in the same order, same accuracy bits, same
/// hardware metrics.
pub fn check_equivalent(checks: &mut Checks, traced: &[Evaluated], untraced: &[Evaluated]) {
    let same = traced.len() == untraced.len()
        && traced.iter().zip(untraced).all(|(a, b)| {
            a.genome == b.genome
                && a.measurement.accuracy.to_bits() == b.measurement.accuracy.to_bits()
                && a.measurement.hw == b.measurement.hw
        });
    checks.require(same, || {
        "traced Engine + wrapper run does not reproduce the untraced Search trace".into()
    });
}
