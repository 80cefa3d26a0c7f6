//! The traced run's evaluator wrapper: records one span per candidate
//! evaluation around the public `Evaluator::evaluate` call.

use std::sync::Arc;

use ecad_core::genome::CandidateGenome;
use ecad_core::measurement::Measurement;
use ecad_core::workers::Evaluator;

use crate::spans::SpanLog;

pub const EVALUATE_SPAN: &str = "workers.evaluate";

pub struct Probe<E> {
    inner: E,
    log: Arc<SpanLog>,
    parent: u64,
}

impl<E> Probe<E> {
    pub fn new(inner: E, log: Arc<SpanLog>, parent: u64) -> Self {
        Self { inner, log, parent }
    }
}

impl<E: Evaluator> Evaluator for Probe<E> {
    fn evaluate(&self, genome: &CandidateGenome) -> Measurement {
        let span = self
            .log
            .open(EVALUATE_SPAN, Some(self.parent), Some(genome.cache_key()));
        let measurement = self.inner.evaluate(genome);
        self.log.close(span);
        measurement
    }

    fn target_name(&self) -> String {
        self.inner.target_name()
    }
}
