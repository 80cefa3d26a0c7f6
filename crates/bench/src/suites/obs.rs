//! Observability-plane benchmarks: labeled-metric emission (the hot
//! path every remote-slot `Stats` absorption walks), labeled-key
//! construction with escaping, and Prometheus text rendering of a
//! labeled registry — the scrape-side cost of `--serve`.

use rt::bench::{black_box, Criterion};
use rt::obs::{labeled_key, Obs};

/// Registers the suite's benchmarks on `c`.
pub fn register(c: &mut Criterion) {
    bench_labeled_key(c);
    bench_labeled_emission(c);
    bench_prometheus_render(c);
}

fn bench_labeled_key(c: &mut Criterion) {
    c.bench_function("obs/labeled_key", |bench| {
        bench.iter(|| {
            labeled_key(
                black_box("cluster.worker_jobs"),
                black_box(&[("worker", "10.0.0.1:7000"), ("slot", "s0")]),
            )
        })
    });
    c.bench_function("obs/labeled_key_escaped", |bench| {
        bench.iter(|| {
            labeled_key(
                black_box("cluster.worker_jobs"),
                black_box(&[("worker", "host\"with\\weird\nchars:7000")]),
            )
        })
    });
}

fn bench_labeled_emission(c: &mut Criterion) {
    let obs = Obs::builder().build();
    // Handle reuse is the engine's pattern (SlotTelemetry caches its
    // gauges); registry lookup per emission is the naive baseline.
    let gauge = obs.gauge_with("cluster.worker_jobs", &[("worker", "10.0.0.1:7000")]);
    c.bench_function("obs/labeled_gauge_set_cached", |bench| {
        bench.iter(|| gauge.set(black_box(42.0)))
    });
    c.bench_function("obs/labeled_gauge_set_lookup", |bench| {
        bench.iter(|| {
            obs.gauge_with("cluster.worker_jobs", &[("worker", "10.0.0.1:7000")])
                .set(black_box(42.0))
        })
    });
    let hist = obs.histogram_with("cluster.worker_eval_s", &[("worker", "10.0.0.1:7000")]);
    c.bench_function("obs/labeled_histogram_record", |bench| {
        bench.iter(|| hist.record(black_box(0.125)))
    });
}

fn bench_prometheus_render(c: &mut Criterion) {
    let obs = Obs::builder().build();
    // A registry shaped like a mid-size cluster run: 16 workers, the
    // four labeled gauge families plus a latency histogram each.
    for i in 0..16 {
        let addr = format!("10.0.0.{i}:7000");
        let labels: &[(&str, &str)] = &[("worker", addr.as_str())];
        obs.gauge_with("cluster.worker_jobs", labels).set(i as f64);
        obs.gauge_with("cluster.worker_train_s", labels).set(1.5);
        obs.gauge_with("cluster.worker_hw_s", labels).set(0.5);
        obs.gauge_with("cluster.worker_panics", labels).set(0.0);
        let h = obs.histogram_with("cluster.worker_eval_s", labels);
        for k in 0..8 {
            h.record(0.01 * f64::from(k + 1));
        }
    }
    c.bench_function("obs/prometheus_text_labeled", |bench| {
        bench.iter(|| rt::http::prometheus_text(black_box(&obs.snapshot())))
    });
}
