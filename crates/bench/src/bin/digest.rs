//! The bit-identity probe: prints one FNV-1a digest line per case over
//! the outputs a change that claims "no output bit moved" must leave
//! alone.
//!
//! ```text
//! digest
//! ```
//!
//! It takes no flags. Cases, each run at 1, 2 and 8 compute threads:
//!
//! * **plan** — for 5 architectures × fp32 and int8 plans × 5 inputs
//!   (`batch × H²`: 1×32², 3×32², 8×24², 32×32², 600×16²): the
//!   `run_batch` and `profile_batch` logits, `weight_bytes`,
//!   `activation_bytes`, and every `LayerCost` name, FLOPs and bytes;
//! * **conv** — the training conv's `conv2d` output and
//!   `conv2d_backward` input and weight gradients, at shapes whose GEMMs
//!   take the small path and at shapes whose GEMMs take the packed path,
//!   the miniature trainer's among them;
//! * **gemm** — the packed GEMM itself, at small-k shapes and at a k past
//!   two k blocks, with slice and with prepacked operands and each
//!   epilogue;
//! * **train** — two small models' flat parameters after a few SGD steps,
//!   one at the miniature trainer's shape;
//! * **kfold** — `kfold_cross_validate` with default options on a seeded
//!   set: every fold's epoch losses and validation accuracy.
//!
//! To check a change, build this binary from the change and from its
//! parent on one host (copy this file into the parent's
//! `crates/bench/src/bin/`), run both, and `diff` the outputs. Digests
//! are comparable only between builds on one host: the GEMM microkernel
//! is chosen by CPU detection.

use hydronas_graph::{ArchConfig, CalibrationMethod, PoolConfig};
use hydronas_infer::{ExecutionPlan, Numerics, QuantizationScheme};
use hydronas_nn::{
    kfold_cross_validate, CancelToken, CrossEntropyLoss, Dataset, Optimizer, ParamVisitor, ResNet,
    Sgd, TrainConfig,
};
use hydronas_tensor::{
    conv2d, conv2d_backward, gemm, set_compute_threads, uniform, Epilogue, GemmA, GemmB, PackedA,
    PackedBLayout, TensorRng,
};

const THREADS: [usize; 3] = [1, 2, 8];

/// `(batch, H = W)` of each plan input.
const INPUTS: [(usize, usize); 5] = [(1, 32), (3, 32), (8, 24), (32, 32), (600, 16)];

/// `(batch, in_c, out_c, H = W, kernel, stride, padding)` of each
/// training-conv case. The first three run every GEMM of the forward
/// and backward on the small path, the next three on the packed path
/// (the sixth with `in_c·k²` past one k block). The last four are the
/// miniature trainer's shapes at batch 32 (the stem at 24×24, the 2×2
/// stage, a 1×1 stride-2 projection on the small path) and a batch of 5
/// whose last column tile holds one sample of two.
const CONVS: [(usize, usize, usize, usize, usize, usize, usize); 10] = [
    (1, 2, 3, 5, 3, 1, 1),
    (2, 8, 16, 8, 1, 2, 0),
    (2, 4, 4, 6, 3, 1, 1),
    (4, 16, 32, 16, 3, 1, 1),
    (2, 5, 8, 32, 7, 2, 3),
    (3, 32, 64, 9, 3, 2, 1),
    (32, 5, 8, 24, 3, 1, 1),
    (32, 64, 64, 2, 3, 1, 1),
    (32, 8, 16, 12, 1, 2, 0),
    (5, 8, 16, 16, 3, 1, 1),
];

/// `(m, k, n)` of each direct GEMM case: small-k shapes, where the
/// write-back sets the speed (the input gradient's m45 k8 n576 and m288
/// k32 n288, the 2×2 stage's weight gradient m64 k4 n576, the stem's
/// m8 k576 n45), and m13 k515 n45, whose k spans three 256-deep k blocks
/// and whose rows and columns end in partial register tiles.
const GEMMS: [(usize, usize, usize); 5] = [
    (45, 8, 576),
    (288, 32, 288),
    (64, 4, 576),
    (8, 576, 45),
    (13, 515, 45),
];

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn floats(&mut self, values: &[f32]) {
        self.u64(values.len() as u64);
        for v in values {
            self.bytes(&v.to_bits().to_le_bytes());
        }
    }
}

fn arch(
    in_channels: usize,
    (kernel_size, stride, padding): (usize, usize, usize),
    pool: Option<PoolConfig>,
    initial_features: usize,
    num_classes: usize,
) -> ArchConfig {
    ArchConfig {
        in_channels,
        kernel_size,
        stride,
        padding,
        pool,
        initial_features,
        num_classes,
    }
}

/// The probed architectures, each with a short label.
fn archs() -> Vec<(&'static str, ArchConfig)> {
    let pool = Some(PoolConfig {
        kernel: 3,
        stride: 2,
    });
    vec![
        ("k3s2p1-f32-c5", arch(5, (3, 2, 1), None, 32, 2)),
        ("k3s2p1-f32-c7", arch(7, (3, 2, 1), None, 32, 2)),
        ("k7s2p3-pool-f8-c5-4cls", arch(5, (7, 2, 3), pool, 8, 4)),
        ("k3s2p1-f64-c5", arch(5, (3, 2, 1), None, 64, 2)),
        ("k3s1p1-f4-c5", arch(5, (3, 1, 1), None, 4, 2)),
    ]
}

/// A seeded model whose batch norms hold one training pass's running
/// statistics, so folding them into the plan is not the identity.
fn warmed_model(arch: &ArchConfig, seed: u64) -> ResNet {
    let mut rng = TensorRng::seed_from_u64(seed);
    let mut model = ResNet::new(arch, &mut rng);
    let warm = uniform(&[4, arch.in_channels, 32, 32], -1.0, 1.0, &mut rng);
    let _ = model.forward(&warm, true);
    model
}

fn plans(model: &ResNet, arch: &ArchConfig, seed: u64) -> [(&'static str, ExecutionPlan); 2] {
    let mut rng = TensorRng::seed_from_u64(seed);
    let calibration = uniform(&[4, arch.in_channels, 32, 32], -1.0, 1.0, &mut rng);
    let fp32 = ExecutionPlan::builder(model).build();
    let int8 = ExecutionPlan::builder(model)
        .numerics(Numerics::QuantizedInt8)
        .quantization(
            QuantizationScheme::per_channel().calibrate(CalibrationMethod::MinMax, &calibration),
        )
        .build();
    [
        ("fp32", fp32.expect("fp32 plan builds")),
        ("int8", int8.expect("int8 plan builds")),
    ]
}

fn plan_cases() {
    for (a, (label, arch)) in archs().into_iter().enumerate() {
        let model = warmed_model(&arch, 100 + a as u64);
        for (numerics, plan) in plans(&model, &arch, 200 + a as u64) {
            for (i, &(batch, hw)) in INPUTS.iter().enumerate() {
                let mut rng = TensorRng::seed_from_u64(300 + i as u64);
                let x = uniform(&[batch, arch.in_channels, hw, hw], -1.0, 1.0, &mut rng);
                for threads in THREADS {
                    set_compute_threads(threads);
                    let mut h = Fnv::new();
                    h.u64(plan.weight_bytes());
                    h.u64(plan.activation_bytes(batch, hw));
                    h.floats(plan.run_batch(&x).as_slice());
                    let (logits, profile) = plan.profile_batch(&x);
                    h.floats(logits.as_slice());
                    for layer in &profile.layers {
                        h.bytes(layer.name.as_bytes());
                        h.u64(layer.flops);
                        h.u64(layer.bytes);
                    }
                    let case = format!("{label} {numerics} {batch}x{hw}^2");
                    println!("plan {case} t{threads} {:016x}", h.0);
                }
            }
        }
    }
}

fn conv_cases() {
    for (i, &(batch, in_c, out_c, hw, k, s, p)) in CONVS.iter().enumerate() {
        let mut rng = TensorRng::seed_from_u64(400 + i as u64);
        let input = uniform(&[batch, in_c, hw, hw], -1.0, 1.0, &mut rng);
        let weight = uniform(&[out_c, in_c, k, k], -0.5, 0.5, &mut rng);
        let out_dims = conv2d(&input, &weight, s, p).dims().to_vec();
        let grad_out = uniform(&out_dims, -1.0, 1.0, &mut rng);
        for threads in THREADS {
            set_compute_threads(threads);
            let mut h = Fnv::new();
            h.floats(conv2d(&input, &weight, s, p).as_slice());
            let (grad_input, grad_weight) = conv2d_backward(&input, &weight, &grad_out, s, p);
            h.floats(grad_input.as_slice());
            h.floats(grad_weight.as_slice());
            let case = format!("n{batch} c{in_c} o{out_c} {hw}^2 k{k} s{s} p{p}");
            println!("conv {case} t{threads} {:016x}", h.0);
        }
    }
}

fn gemm_cases() {
    for (i, &(m, k, n)) in GEMMS.iter().enumerate() {
        let mut rng = TensorRng::seed_from_u64(600 + i as u64);
        let a = uniform(&[m, k], -1.0, 1.0, &mut rng);
        let b = uniform(&[k, n], -1.0, 1.0, &mut rng);
        let row_bias = uniform(&[m], -0.5, 0.5, &mut rng);
        let col_bias = uniform(&[n], -0.5, 0.5, &mut rng);
        let (a, b) = (a.as_slice(), b.as_slice());
        let packed_a = PackedA::pack(a, m, k);
        let layout = PackedBLayout::new(k, n);
        let mut packed_b = vec![0.0; layout.len()];
        layout.pack(b, &mut packed_b);
        let operands = [
            ("slice", GemmA::Slice(a), GemmB::Slice(b)),
            (
                "packed",
                GemmA::Packed(&packed_a),
                GemmB::Packed(&layout, &packed_b),
            ),
        ];
        let epilogues = [
            ("none", Epilogue::None),
            ("col-bias", Epilogue::ColBias(col_bias.as_slice())),
            ("row-bias", Epilogue::RowBias(row_bias.as_slice())),
            ("row-bias-relu", Epilogue::RowBiasRelu(row_bias.as_slice())),
        ];
        for &(operand, a_op, b_op) in &operands {
            for &(epilogue, epi) in &epilogues {
                for threads in THREADS {
                    set_compute_threads(threads);
                    let mut c = vec![0.0; m * n];
                    gemm(a_op, b_op, &mut c, m, k, n, epi);
                    let mut h = Fnv::new();
                    h.floats(&c);
                    let case = format!("m{m} k{k} n{n} {operand} {epilogue}");
                    println!("gemm {case} t{threads} {:016x}", h.0);
                }
            }
        }
    }
}

/// `(label, arch, batch, H = W, SGD steps)` of each train case: a small
/// model, then the miniature trainer's (24×24 tiles, 8 features, k3 s1
/// with a 3×3 stride-2 pool, batch 32).
fn train_cases() -> [(&'static str, ArchConfig, usize, usize, usize); 2] {
    let pool = Some(PoolConfig {
        kernel: 3,
        stride: 2,
    });
    let miniature = arch(5, (3, 1, 1), pool, 8, 2);
    [
        ("k3s2p1-f4-c5", arch(5, (3, 2, 1), None, 4, 2), 4, 16, 3),
        ("k3s1p1-pool-f8-c5", miniature, 32, 24, 2),
    ]
}

fn train_case() {
    for (label, arch, batch, hw, steps) in train_cases() {
        let targets: Vec<usize> = (0..batch).map(|i| [0, 1, 1, 0][i % 4]).collect();
        for threads in THREADS {
            set_compute_threads(threads);
            let mut rng = TensorRng::seed_from_u64(500);
            let mut model = ResNet::new(&arch, &mut rng);
            let mut opt = Sgd::new(0.01, 0.9, 1e-4);
            for _ in 0..steps {
                let input = uniform(&[batch, 5, hw, hw], -1.0, 1.0, &mut rng);
                model.zero_grad();
                let logits = model.forward(&input, true);
                let (_, grad) = CrossEntropyLoss.forward_backward(&logits, &targets);
                model.backward(&grad);
                opt.step(&mut model);
            }
            let mut h = Fnv::new();
            h.floats(&model.flat_params());
            println!("train {label} {steps}-sgd-steps t{threads} {:016x}", h.0);
        }
    }
}

/// `train` itself, which the SGD loops above bypass: 2 folds × 4 epochs
/// at batch 4 over 24 seeded 3×12×12 samples, so each epoch's shuffle
/// comes from the trainer's own RNG stream.
fn kfold_case() {
    let arch = arch(3, (3, 2, 1), None, 4, 2);
    let mut rng = TensorRng::seed_from_u64(700);
    let features = uniform(&[24, 3, 12, 12], -1.0, 1.0, &mut rng);
    let labels = (0..24).map(|i| [0, 1, 1, 0][i % 4]).collect();
    let data = Dataset::new(features, labels);
    let config = TrainConfig {
        epochs: 4,
        batch_size: 4,
        ..Default::default()
    };
    for threads in THREADS {
        set_compute_threads(threads);
        let (_, folds) = kfold_cross_validate(&arch, &data, 2, &config, &CancelToken::new());
        let mut h = Fnv::new();
        for fold in &folds {
            h.floats(&fold.result.epoch_losses);
            h.u64(fold.result.report.accuracy_pct.to_bits());
        }
        println!(
            "kfold k3s2p1-f4-c3 2-folds-4-epochs t{threads} {:016x}",
            h.0
        );
    }
}

fn main() {
    plan_cases();
    conv_cases();
    gemm_cases();
    train_case();
    kfold_case();
}
