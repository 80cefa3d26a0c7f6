//! Compute-kernel benchmarks: GEMM variants and MLP training steps.
//!
//! These are the hot paths of the simulation worker — per-candidate
//! evaluation time (the paper's Table III column) is dominated by them.
//! This is also the suite CI's `bench-gate` job runs: it is cheap
//! enough to measure on every push.

use ecad_mlp::{Activation, Adam, Mlp, MlpTopology};
use ecad_tensor::{gemm, init, ops, Matrix};
use rt::bench::{black_box, BenchmarkId, Criterion};
use rt::rand::rngs::StdRng;
use rt::rand::SeedableRng;

/// Registers the suite's benchmarks on `c`.
pub fn register(c: &mut Criterion) {
    bench_gemm(c);
    bench_gemm_variants_256(c);
    bench_gemm_mlp_shapes(c);
    bench_backprop_kernels(c);
    bench_softmax_and_loss(c);
    bench_mlp_train_step(c);
    bench_adam_step(c);
    bench_matrix_ops(c);
}

fn bench_gemm(c: &mut Criterion) {
    let mut group = c.benchmark_group("gemm");
    for &n in &[32usize, 64, 128, 256] {
        let mut rng = StdRng::seed_from_u64(0);
        let a = init::uniform(&mut rng, n, n, 1.0);
        let b = init::uniform(&mut rng, n, n, 1.0);
        group.bench_with_input(BenchmarkId::new("blocked", n), &n, |bench, _| {
            bench.iter(|| gemm::matmul(black_box(&a), black_box(&b)))
        });
        if n <= 128 {
            group.bench_with_input(BenchmarkId::new("naive", n), &n, |bench, _| {
                bench.iter(|| gemm::matmul_naive(black_box(&a), black_box(&b)))
            });
        }
    }
    group.finish();
}

/// All four kernel shapes at the gate's reference size, so a
/// regression in any packing path (plain, transposed-A, transposed-B,
/// fused bias) shows up in the same suite as `gemm/blocked/256`.
fn bench_gemm_variants_256(c: &mut Criterion) {
    const N: usize = 256;
    let mut rng = StdRng::seed_from_u64(6);
    let a = init::uniform(&mut rng, N, N, 1.0);
    let b = init::uniform(&mut rng, N, N, 1.0);
    let bias = vec![0.1f32; N];
    c.bench_function("gemm/at_b/256", |bench| {
        bench.iter(|| gemm::matmul_at_b(black_box(&a), black_box(&b)))
    });
    c.bench_function("gemm/a_bt/256", |bench| {
        bench.iter(|| gemm::matmul_a_bt(black_box(&a), black_box(&b)))
    });
    c.bench_function("gemm/bias/256", |bench| {
        bench.iter(|| gemm::matmul_bias(black_box(&a), black_box(&b), black_box(&bias)))
    });
}

fn bench_gemm_mlp_shapes(c: &mut Criterion) {
    // The first-layer GEMM of an MNIST-shaped candidate: 32 x 784 x 128.
    let mut rng = StdRng::seed_from_u64(1);
    let x = init::uniform(&mut rng, 32, 784, 1.0);
    let w = init::uniform(&mut rng, 784, 128, 1.0);
    let bias = vec![0.1f32; 128];
    c.bench_function("gemm/mnist_layer_32x784x128", |b| {
        b.iter(|| gemm::matmul_bias(black_box(&x), black_box(&w), black_box(&bias)))
    });
}

fn bench_backprop_kernels(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(2);
    let x = init::uniform(&mut rng, 32, 256, 1.0);
    let dy = init::uniform(&mut rng, 32, 128, 1.0);
    let w = init::uniform(&mut rng, 256, 128, 1.0);
    c.bench_function("gemm/at_b_weight_grad", |b| {
        b.iter(|| gemm::matmul_at_b(black_box(&x), black_box(&dy)))
    });
    c.bench_function("gemm/a_bt_delta", |b| {
        b.iter(|| gemm::matmul_a_bt(black_box(&dy), black_box(&w)))
    });
}

fn bench_softmax_and_loss(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(3);
    let logits = init::uniform(&mut rng, 256, 10, 5.0);
    let labels: Vec<usize> = (0..256).map(|i| i % 10).collect();
    let targets = ops::one_hot(&labels, 10);
    c.bench_function("ops/softmax_256x10", |b| {
        b.iter(|| ops::softmax_rows(black_box(&logits)))
    });
    let probs = ops::softmax_rows(&logits);
    c.bench_function("ops/cross_entropy_256x10", |b| {
        b.iter(|| ops::cross_entropy(black_box(&probs), black_box(&targets)))
    });
}

fn bench_mlp_train_step(c: &mut Criterion) {
    let topo = MlpTopology::builder(561, 6)
        .hidden(128, Activation::Relu, true)
        .hidden(64, Activation::Relu, true)
        .build();
    let mut rng = StdRng::seed_from_u64(4);
    let net = Mlp::from_topology(&topo, &mut rng);
    let x = init::uniform(&mut rng, 32, 561, 1.0);
    let labels: Vec<usize> = (0..32).map(|i| i % 6).collect();
    let t = ops::one_hot(&labels, 6);
    c.bench_function("mlp/har_forward_batch32", |b| {
        b.iter(|| net.forward(black_box(&x)))
    });
    c.bench_function("mlp/har_backprop_batch32", |b| {
        b.iter(|| net.backprop(black_box(&x), black_box(&t)))
    });
    // The whole minibatch step the trainer takes: backprop, then Adam
    // with `TrainConfig::fast()`'s weight decay.
    let mut train_net = net.clone();
    let mut adam = Adam::new(1e-3, &train_net);
    c.bench_function("mlp/har_train_step_batch32", |b| {
        b.iter(|| {
            let (grads, loss) = train_net.backprop(black_box(&x), black_box(&t));
            adam.step_with_decay(&mut train_net, &grads, 1e-4);
            loss
        })
    });
}

/// The optimizer alone on an MNIST-shaped first layer (784 x 128
/// weights plus bias), with fixed gradients.
fn bench_adam_step(c: &mut Criterion) {
    let topo = MlpTopology::builder(784, 128).build();
    let mut rng = StdRng::seed_from_u64(5);
    let mut net = Mlp::from_topology(&topo, &mut rng);
    let x = init::uniform(&mut rng, 32, 784, 1.0);
    let labels: Vec<usize> = (0..32).map(|i| i % 128).collect();
    let (grads, _) = net.backprop(&x, &ops::one_hot(&labels, 128));
    let mut adam = Adam::new(1e-3, &net);
    c.bench_function("mlp/adam_step_784x128", |b| {
        b.iter(|| adam.step_with_decay(&mut net, black_box(&grads), 1e-4))
    });
}

fn bench_matrix_ops(c: &mut Criterion) {
    let m = Matrix::from_fn(512, 512, |r, c2| (r * 512 + c2) as f32);
    c.bench_function("matrix/transpose_512", |b| {
        b.iter(|| black_box(&m).transposed())
    });
    c.bench_function("matrix/argmax_rows_512", |b| {
        b.iter(|| black_box(&m).argmax_rows())
    });
}
