//! Differential oracle for the fused training step.
//!
//! The optimizers update each parameter in one pass: weight decay, the
//! momentum/Adam state and the subtraction of the step all happen per
//! element. The reference below is the three-pass update that pass
//! replaced, kept verbatim (adapted only to own a `Vec<DenseLayer>`
//! instead of borrowing an `Mlp`'s layers): the trainer's weight-decay
//! `axpy` over the gradients, `Sgd::step` / `Adam::step` building a
//! separate step matrix, and `DenseLayer::apply_update` subtracting it.
//! Its backprop still computes the input layer's `dX` and drops it.
//!
//! The contract is exact: every trained weight, bias and per-epoch loss
//! must equal the reference bit for bit. A failure names the optimizer,
//! the layer, the index and both bit patterns. The reciprocal variant of
//! the reference (`m * (1/bc1)` instead of `m / bc1`) stays within a few
//! ulps of it — invisible to a tolerance — and the bitwise comparison
//! must catch it.
//!
//! The last test counts kernel spans through `rt::prof` to pin that
//! backprop skips the input layer's `dX = dZ Wᵀ` product.

use ecad_dataset::Dataset;
use ecad_mlp::{
    Activation, Adam, DenseLayer, Mlp, MlpTopology, OptimizerKind, Sgd, TrainConfig, Trainer,
};
use ecad_tensor::{init, ops, Matrix};
use rt::prof::{ClockKind, ProfileNode, Profiler};
use rt::rand::rngs::StdRng;
use rt::rand::seq::SliceRandom;
use rt::rand::{Rng, SeedableRng};

const ACTIVATIONS: [Activation; 4] = [
    Activation::Relu,
    Activation::Tanh,
    Activation::Sigmoid,
    Activation::Identity,
];

const WEIGHT_DECAYS: [f32; 3] = [0.0, 1e-4, 0.05];

const OPTIMIZERS: [OptimizerKind; 3] = [
    OptimizerKind::Adam { lr: 0.01 },
    OptimizerKind::Sgd {
        lr: 0.05,
        momentum: 0.0,
    },
    OptimizerKind::Sgd {
        lr: 0.05,
        momentum: 0.9,
    },
];

/// One layer's parameter gradients (the crate's `LayerGrads`, which is
/// not nameable from outside it).
struct Grads {
    weights: Matrix,
    bias: Vec<f32>,
}

// ---------------------------------------------------------------------
// Reference: the three-pass update, verbatim.
// ---------------------------------------------------------------------

struct RefSgd {
    lr: f32,
    momentum: f32,
    vel_w: Vec<Matrix>,
    vel_b: Vec<Vec<f32>>,
}

impl RefSgd {
    fn new(lr: f32, momentum: f32, layers: &[DenseLayer]) -> Self {
        Self {
            lr,
            momentum,
            vel_w: layers
                .iter()
                .map(|l| Matrix::zeros(l.weights().rows(), l.weights().cols()))
                .collect(),
            vel_b: layers.iter().map(|l| vec![0.0; l.bias().len()]).collect(),
        }
    }

    fn step(&mut self, layers: &mut [DenseLayer], grads: &[Grads]) {
        assert_eq!(
            grads.len(),
            self.vel_w.len(),
            "gradient/layer count mismatch"
        );
        for (i, layer) in layers.iter_mut().enumerate() {
            let g = &grads[i];
            let vw = &mut self.vel_w[i];
            vw.scale_inplace(self.momentum);
            vw.axpy_inplace(1.0, &g.weights).expect("gradient shape");
            let step_w = {
                let mut s = vw.clone();
                s.scale_inplace(self.lr);
                s
            };
            let vb = &mut self.vel_b[i];
            for (v, &gb) in vb.iter_mut().zip(&g.bias) {
                *v = self.momentum * *v + gb;
            }
            let step_b: Vec<f32> = vb.iter().map(|&v| self.lr * v).collect();
            layer.apply_update(&step_w, &step_b);
        }
    }
}

struct RefAdam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: u32,
    m_w: Vec<Matrix>,
    v_w: Vec<Matrix>,
    m_b: Vec<Vec<f32>>,
    v_b: Vec<Vec<f32>>,
    /// The sensitivity mutant: bias-correct the first moment by
    /// multiplying with a precomputed `1/bc1`.
    reciprocal: bool,
}

impl RefAdam {
    fn new(lr: f32, layers: &[DenseLayer], reciprocal: bool) -> Self {
        let zero_w = |layers: &[DenseLayer]| -> Vec<Matrix> {
            layers
                .iter()
                .map(|l| Matrix::zeros(l.weights().rows(), l.weights().cols()))
                .collect()
        };
        let zero_b = |layers: &[DenseLayer]| -> Vec<Vec<f32>> {
            layers.iter().map(|l| vec![0.0; l.bias().len()]).collect()
        };
        Self {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            m_w: zero_w(layers),
            v_w: zero_w(layers),
            m_b: zero_b(layers),
            v_b: zero_b(layers),
            reciprocal,
        }
    }

    fn step(&mut self, layers: &mut [DenseLayer], grads: &[Grads]) {
        assert_eq!(grads.len(), self.m_w.len(), "gradient/layer count mismatch");
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        for (i, layer) in layers.iter_mut().enumerate() {
            let g = &grads[i];
            let (m, v) = (&mut self.m_w[i], &mut self.v_w[i]);
            let mut step_w = Matrix::zeros(g.weights.rows(), g.weights.cols());
            for j in 0..g.weights.len() {
                let gw = g.weights.as_slice()[j];
                let mj = self.beta1 * m.as_slice()[j] + (1.0 - self.beta1) * gw;
                let vj = self.beta2 * v.as_slice()[j] + (1.0 - self.beta2) * gw * gw;
                m.as_mut_slice()[j] = mj;
                v.as_mut_slice()[j] = vj;
                let m_hat = if self.reciprocal {
                    mj * (1.0 / bc1)
                } else {
                    mj / bc1
                };
                let v_hat = vj / bc2;
                step_w.as_mut_slice()[j] = self.lr * m_hat / (v_hat.sqrt() + self.eps);
            }
            let (mb, vb) = (&mut self.m_b[i], &mut self.v_b[i]);
            let mut step_b = vec![0.0f32; g.bias.len()];
            for j in 0..g.bias.len() {
                let gb = g.bias[j];
                mb[j] = self.beta1 * mb[j] + (1.0 - self.beta1) * gb;
                vb[j] = self.beta2 * vb[j] + (1.0 - self.beta2) * gb * gb;
                let m_hat = if self.reciprocal {
                    mb[j] * (1.0 / bc1)
                } else {
                    mb[j] / bc1
                };
                let v_hat = vb[j] / bc2;
                step_b[j] = self.lr * m_hat / (v_hat.sqrt() + self.eps);
            }
            layer.apply_update(&step_w, &step_b);
        }
    }
}

enum RefOpt {
    Sgd(RefSgd),
    Adam(RefAdam),
}

impl RefOpt {
    fn new(kind: OptimizerKind, layers: &[DenseLayer], reciprocal: bool) -> Self {
        match kind {
            OptimizerKind::Sgd { lr, momentum } => RefOpt::Sgd(RefSgd::new(lr, momentum, layers)),
            OptimizerKind::Adam { lr } => RefOpt::Adam(RefAdam::new(lr, layers, reciprocal)),
        }
    }

    fn step(&mut self, layers: &mut [DenseLayer], grads: &[Grads]) {
        match self {
            RefOpt::Sgd(s) => s.step(layers, grads),
            RefOpt::Adam(a) => a.step(layers, grads),
        }
    }
}

/// Softmax-cross-entropy backprop through every layer, input layer's
/// `dX` included.
fn ref_backprop(layers: &[DenseLayer], x: &Matrix, targets_one_hot: &Matrix) -> (Vec<Grads>, f32) {
    let mut acts = Vec::with_capacity(layers.len() + 1);
    acts.push(x.clone());
    for l in layers {
        let next = l.forward(acts.last().expect("nonempty"));
        acts.push(next);
    }
    let logits = acts.last().expect("trace nonempty");
    let probs = ops::softmax_rows(logits);
    let loss = ops::cross_entropy(&probs, targets_one_hot);
    let batch = x.rows().max(1) as f32;
    let mut delta = probs
        .sub(targets_one_hot)
        .expect("target shape must match logits");
    delta.scale_inplace(1.0 / batch);
    let mut grads = Vec::with_capacity(layers.len());
    for (i, layer) in layers.iter().enumerate().rev() {
        let (d_in, g) = layer.backward(&acts[i], &acts[i + 1], &delta);
        grads.push(Grads {
            weights: g.weights,
            bias: g.bias,
        });
        delta = d_in;
    }
    grads.reverse();
    (grads, loss)
}

/// The trainer's weight decay, applied to the gradients before the step.
fn ref_weight_decay(grads: &mut [Grads], layers: &[DenseLayer], weight_decay: f32) {
    if weight_decay > 0.0 {
        for (g, layer) in grads.iter_mut().zip(layers) {
            g.weights
                .axpy_inplace(weight_decay, layer.weights())
                .expect("gradient/weight shapes match");
        }
    }
}

/// The trainer loop with the gradient-side weight decay, patience 0.
/// Consumes `rng` exactly as `Trainer::fit_network` does.
fn ref_fit(
    topology: &MlpTopology,
    train: &Dataset,
    config: &TrainConfig,
    reciprocal: bool,
    rng: &mut StdRng,
) -> (Vec<DenseLayer>, Vec<f32>) {
    assert_eq!(config.patience, 0, "the reference trains every epoch");
    let mut layers = Mlp::from_topology(topology, rng).layers().to_vec();
    let mut opt = RefOpt::new(config.optimizer, &layers, reciprocal);
    let n = train.len();
    let batch = config.batch_size.clamp(1, n);
    let targets = ops::one_hot(train.labels(), topology.n_classes());
    let mut order: Vec<usize> = (0..n).collect();
    let mut loss_history = Vec::with_capacity(config.epochs);
    for _ in 0..config.epochs {
        order.shuffle(rng);
        let mut epoch_loss = 0.0f64;
        let mut batches = 0usize;
        for chunk in order.chunks(batch) {
            let xb = train.features().select_rows(chunk);
            let tb = targets.select_rows(chunk);
            let (mut grads, loss) = ref_backprop(&layers, &xb, &tb);
            ref_weight_decay(&mut grads, &layers, config.weight_decay);
            opt.step(&mut layers, &grads);
            epoch_loss += loss as f64;
            batches += 1;
        }
        loss_history.push((epoch_loss / batches.max(1) as f64) as f32);
    }
    (layers, loss_history)
}

// ---------------------------------------------------------------------
// Grid and comparison.
// ---------------------------------------------------------------------

const SAMPLES: usize = 45;
/// 45 = 5·8 + 5: every epoch ends on a ragged minibatch.
const BATCH: usize = 8;
/// 6 minibatches per epoch, so 54 optimizer steps per training run.
const EPOCHS: usize = 9;

/// Five features: three uniform, one of subnormals and one of signed
/// zeros, so the first layer's weight gradients carry both.
fn oracle_dataset() -> Dataset {
    let mut rng = StdRng::seed_from_u64(17);
    let dense = init::uniform(&mut rng, SAMPLES, 3, 2.0);
    let features = Matrix::from_fn(SAMPLES, 5, |r, c| match c {
        0..=2 => dense[(r, c)],
        3 => {
            let tiny = f32::from_bits(1 + (r as u32 * 7919) % 0x007f_ffff);
            if r % 2 == 0 {
                tiny
            } else {
                -tiny
            }
        }
        _ => {
            if r % 3 == 0 {
                -0.0
            } else {
                0.0
            }
        }
    });
    let labels = (0..SAMPLES).map(|r| r % 3).collect();
    Dataset::new("oracle", features, labels, 3).expect("valid dataset")
}

fn topology(input: usize, act: Activation, bias: bool) -> MlpTopology {
    MlpTopology::builder(input, 3)
        .hidden(7, act, bias)
        .hidden(6, act, bias)
        .build()
}

fn optimizer_name(kind: OptimizerKind) -> String {
    match kind {
        OptimizerKind::Adam { lr } => format!("adam(lr={lr})"),
        OptimizerKind::Sgd { lr, momentum } => format!("sgd(lr={lr}, momentum={momentum})"),
    }
}

/// The first parameter whose bits differ, as `layer L weights[j]: fused
/// 0x… reference 0x…`.
fn first_mismatch(fused: &[DenseLayer], reference: &[DenseLayer]) -> Option<String> {
    assert_eq!(fused.len(), reference.len(), "layer count");
    for (l, (f, r)) in fused.iter().zip(reference).enumerate() {
        let pairs = [
            ("weights", f.weights().as_slice(), r.weights().as_slice()),
            ("bias", f.bias(), r.bias()),
        ];
        for (what, fs, rs) in pairs {
            assert_eq!(fs.len(), rs.len(), "layer {l} {what} length");
            for (j, (a, b)) in fs.iter().zip(rs).enumerate() {
                if a.to_bits() != b.to_bits() {
                    return Some(format!(
                        "layer {l} {what}[{j}]: fused {:#010x} ({a:e}) reference {:#010x} ({b:e})",
                        a.to_bits(),
                        b.to_bits()
                    ));
                }
            }
        }
    }
    None
}

/// Trains one grid point with the real trainer and with the reference;
/// returns the first difference, if any.
fn trainer_mismatch(
    kind: OptimizerKind,
    weight_decay: f32,
    act: Activation,
    bias: bool,
    reciprocal: bool,
) -> Option<String> {
    let data = oracle_dataset();
    let topo = topology(data.n_features(), act, bias);
    let config = TrainConfig {
        epochs: EPOCHS,
        batch_size: BATCH,
        optimizer: kind,
        patience: 0,
        min_delta: 0.0,
        weight_decay,
    };
    let (net, report) = Trainer::new(config)
        .fit_network(&topo, &data, &data, &mut StdRng::seed_from_u64(5))
        .expect("oracle grid point trains");
    let (layers, losses) = ref_fit(
        &topo,
        &data,
        &config,
        reciprocal,
        &mut StdRng::seed_from_u64(5),
    );
    let point = format!(
        "{}, weight_decay={weight_decay}, {act}, bias={bias}",
        optimizer_name(kind)
    );
    if let Some(m) = first_mismatch(net.layers(), &layers) {
        return Some(format!("{point}: {m}"));
    }
    assert_eq!(report.loss_history.len(), losses.len(), "{point}: epochs");
    let mut epochs = report.loss_history.iter().zip(&losses).enumerate();
    epochs
        .find(|(_, (a, b))| a.to_bits() != b.to_bits())
        .map(|(epoch, (a, b))| {
            format!(
                "{point}: epoch {epoch} loss fused {:#010x} reference {:#010x}",
                a.to_bits(),
                b.to_bits()
            )
        })
}

/// Every (optimizer, weight decay, activation, bias) combination.
fn grid() -> Vec<(OptimizerKind, f32, Activation, bool)> {
    let mut points = Vec::new();
    for kind in OPTIMIZERS {
        for weight_decay in WEIGHT_DECAYS {
            for act in ACTIVATIONS {
                for bias in [true, false] {
                    points.push((kind, weight_decay, act, bias));
                }
            }
        }
    }
    points
}

#[test]
fn fused_training_matches_three_pass_reference_bitwise() {
    let points = grid();
    assert_eq!(points.len(), 72);
    for (kind, weight_decay, act, bias) in points {
        if let Some(m) = trainer_mismatch(kind, weight_decay, act, bias, false) {
            panic!("fused step diverged from the reference: {m}");
        }
    }
}

/// Overwrites most gradient entries with `+0.0`, `-0.0` and positive and
/// negative subnormals, in a pattern that shifts every step.
fn seed_special_values(slice: &mut [f32], step: usize, layer: usize) {
    for (j, g) in slice.iter_mut().enumerate() {
        *g = match (j + 3 * step + layer) % 6 {
            0 => 0.0,
            1 => -0.0,
            2 => f32::from_bits(1 + (j as u32 % 97)),
            3 => -f32::MIN_POSITIVE / 3.0,
            _ => *g,
        };
    }
}

enum Fused {
    Sgd(Sgd),
    Adam(Adam),
}

#[test]
fn fused_step_matches_reference_on_signed_zero_and_subnormal_gradients() {
    let mut rng = StdRng::seed_from_u64(29);
    let x = init::uniform(&mut rng, 11, 4, 1.5);
    let targets = ops::one_hot(&(0..11).map(|r| r % 3).collect::<Vec<_>>(), 3);
    for (kind, weight_decay, act, bias) in grid() {
        let mut net = Mlp::from_topology(&topology(4, act, bias), &mut rng);
        let mut layers = net.layers().to_vec();
        let mut reference = RefOpt::new(kind, &layers, false);
        let mut fused = match kind {
            OptimizerKind::Sgd { lr, momentum } => Fused::Sgd(Sgd::new(lr, momentum, &net)),
            OptimizerKind::Adam { lr } => Fused::Adam(Adam::new(lr, &net)),
        };
        for step in 0..60 {
            let (mut grads, _) = net.backprop(&x, &targets);
            for (l, g) in grads.iter_mut().enumerate() {
                seed_special_values(g.weights.as_mut_slice(), step, l);
                seed_special_values(&mut g.bias, step, l);
            }
            let mut copies: Vec<Grads> = grads
                .iter()
                .map(|g| Grads {
                    weights: g.weights.clone(),
                    bias: g.bias.clone(),
                })
                .collect();
            // Without decay, the public decay-free `step` is the one under test.
            match (&mut fused, weight_decay > 0.0) {
                (Fused::Sgd(s), true) => s.step_with_decay(&mut net, &grads, weight_decay),
                (Fused::Sgd(s), false) => s.step(&mut net, &grads),
                (Fused::Adam(a), true) => a.step_with_decay(&mut net, &grads, weight_decay),
                (Fused::Adam(a), false) => a.step(&mut net, &grads),
            }
            ref_weight_decay(&mut copies, &layers, weight_decay);
            reference.step(&mut layers, &copies);
            if let Some(m) = first_mismatch(net.layers(), &layers) {
                panic!(
                    "{}, weight_decay={weight_decay}, {act}, bias={bias}, step {step}: {m}",
                    optimizer_name(kind)
                );
            }
        }
    }
}

#[test]
fn reciprocal_bias_correction_is_caught_by_the_oracle() {
    let adam_points: Vec<_> = grid()
        .into_iter()
        .filter(|(kind, ..)| matches!(kind, OptimizerKind::Adam { .. }))
        .collect();
    let caught = adam_points
        .iter()
        .filter(|&&(kind, wd, act, bias)| trainer_mismatch(kind, wd, act, bias, true).is_some())
        .count();
    assert!(
        caught > 0,
        "m * (1/bc1) matched m / bc1 bitwise on all {} Adam grid points",
        adam_points.len()
    );
}

/// Sums the call counts of every node named `name`.
fn calls(node: &ProfileNode, name: &str) -> u64 {
    let own = if node.name == name { node.calls } else { 0 };
    own + node.children.iter().map(|c| calls(c, name)).sum::<u64>()
}

/// An L-layer backprop runs L weight-gradient GEMMs (`gemm_at_b`) and
/// only L−1 input-delta GEMMs (`gemm_a_bt`): the input layer's `dX`
/// is never computed.
#[test]
fn backprop_skips_the_input_layer_delta_gemm() {
    let mut rng = StdRng::seed_from_u64(3);
    for hidden in [0usize, 1, 3] {
        let mut builder = MlpTopology::builder(9, 4);
        for h in 0..hidden {
            builder = builder.hidden(5 + h, Activation::Relu, h % 2 == 0);
        }
        let net = Mlp::from_topology(&builder.build(), &mut rng);
        let x = init::uniform(&mut rng, 6, 9, 1.0);
        let labels: Vec<usize> = (0..6).map(|_| rng.gen_range(0..4)).collect();
        let targets = ops::one_hot(&labels, 4);

        let profiler = Profiler::new(ClockKind::Ticks);
        let installed = profiler.install();
        let _ = net.backprop(&x, &targets);
        drop(installed);
        let tree = profiler.report();

        let layers = net.layers().len() as u64;
        assert_eq!(calls(&tree, "gemm_at_b"), layers, "{layers}-layer net");
        assert_eq!(calls(&tree, "gemm_a_bt"), layers - 1, "{layers}-layer net");
    }
}
