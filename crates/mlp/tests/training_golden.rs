//! Pins training numerics across versions of the crate.
//!
//! `golden/training_v1.txt` was written by an earlier build: for three
//! seeded topologies (saturating activations; no hidden bias; 784
//! inputs) it holds the f32 bit patterns of every `TrainReport` number
//! and an FNV-1a hash of the trained parameters' bits. The current
//! trainer must reproduce it exactly — any change to the forward pass,
//! backprop, the optimizer or the trainer loop that moves a single bit
//! of a trained model fails here. The check runs under the GEMM kernel
//! build this host selects and again under the forced portable build,
//! so a host with AVX2 pins both.
//!
//! On a mismatch the test writes what it computed to
//! `<target>/tmp/training_v1.<build>.actual` so the two files can be
//! diffed.

use std::fmt::Write as _;

use ecad_dataset::synth::SyntheticSpec;
use ecad_mlp::{Activation, Mlp, MlpTopology, OptimizerKind, TrainConfig, Trainer};
use ecad_tensor::gemm;
use rt::rand::rngs::StdRng;
use rt::rand::SeedableRng;

const FIXTURE: &str = include_str!("golden/training_v1.txt");

struct Case {
    name: &'static str,
    spec: SyntheticSpec,
    topology: MlpTopology,
    config: TrainConfig,
    seed: u64,
}

fn config(optimizer: OptimizerKind, weight_decay: f32, epochs: usize) -> TrainConfig {
    TrainConfig {
        epochs,
        batch_size: 32,
        optimizer,
        patience: 0,
        min_delta: 0.0,
        weight_decay,
    }
}

fn cases() -> Vec<Case> {
    vec![
        Case {
            name: "tanh-sigmoid",
            spec: SyntheticSpec::new("golden-tanh-sigmoid", 300, 12, 3).with_seed(21),
            topology: MlpTopology::builder(12, 3)
                .hidden(16, Activation::Tanh, true)
                .hidden(8, Activation::Sigmoid, true)
                .build(),
            config: config(OptimizerKind::Adam { lr: 0.01 }, 1e-4, 6),
            seed: 1,
        },
        Case {
            name: "no-bias",
            spec: SyntheticSpec::new("golden-no-bias", 300, 10, 4).with_seed(22),
            topology: MlpTopology::builder(10, 4)
                .hidden(24, Activation::Relu, false)
                .hidden(12, Activation::Identity, false)
                .build(),
            config: config(
                OptimizerKind::Sgd {
                    lr: 0.05,
                    momentum: 0.9,
                },
                0.05,
                6,
            ),
            seed: 2,
        },
        Case {
            name: "wide-784",
            spec: SyntheticSpec::new("golden-wide", 200, 784, 10).with_seed(23),
            topology: MlpTopology::builder(784, 10)
                .hidden(32, Activation::Relu, true)
                .build(),
            config: config(OptimizerKind::Adam { lr: 1e-3 }, 1e-4, 3),
            seed: 3,
        },
    ]
}

/// FNV-1a over the little-endian bits of every weight then every bias,
/// layer by layer.
fn params_hash(net: &Mlp) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for layer in net.layers() {
        let values = layer.weights().as_slice().iter().chain(layer.bias());
        for v in values {
            for byte in v.to_bits().to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    h
}

fn render() -> String {
    let mut out = String::from(
        "# f32 bit patterns (hex) of TrainReport fields; FNV-1a 64 of the trained parameters\n",
    );
    for case in cases() {
        let mut rng = StdRng::seed_from_u64(case.seed);
        let (train, test) = case.spec.generate().split(0.25, &mut rng);
        let (net, report) = Trainer::new(case.config)
            .fit_network(&case.topology, &train, &test, &mut rng)
            .expect("golden case trains");
        let losses: Vec<String> = report
            .loss_history
            .iter()
            .map(|l| format!("{:08x}", l.to_bits()))
            .collect();
        writeln!(out, "[{}]", case.name).unwrap();
        writeln!(out, "loss_history {}", losses.join(" ")).unwrap();
        writeln!(
            out,
            "train_accuracy {:08x}",
            report.train_accuracy.to_bits()
        )
        .unwrap();
        writeln!(out, "test_accuracy {:08x}", report.test_accuracy.to_bits()).unwrap();
        writeln!(out, "params_fnv1a64 {:016x}", params_hash(&net)).unwrap();
    }
    out
}

/// The only test in this binary, so flipping the process-global build
/// override needs no lock.
#[test]
fn training_reproduces_the_recorded_golden_bit_for_bit() {
    for portable in [false, true] {
        gemm::_force_portable_kernel(portable);
        let build = format!("{:?}", gemm::kernel());
        let actual = render();
        if actual == FIXTURE {
            continue;
        }
        let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
            .join(format!("training_v1.{build}.actual"));
        std::fs::write(&path, &actual).expect("write actual output");
        let first_diff = FIXTURE
            .lines()
            .zip(actual.lines())
            .find(|(want, got)| want != got)
            .map(|(want, got)| format!("\n  golden: {want}\n  actual: {got}"))
            .unwrap_or_else(|| "\n  (line counts differ)".to_string());
        panic!(
            "{build} build: trained numerics differ from golden/training_v1.txt \
             (actual written to {}):{first_diff}",
            path.display()
        );
    }
    gemm::_force_portable_kernel(false);
}
