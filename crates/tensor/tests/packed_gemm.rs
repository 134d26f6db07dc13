//! Property-style validation of the packed GEMM against a naive
//! reference: randomized shapes (including tails smaller than one
//! register block), every operand layout `gemm` accepts (row-major,
//! prepacked A and B), fused epilogues, and the
//! determinism contract (bit-identical output run-to-run, across operand
//! layouts on the packed path, and across concurrent callers on
//! independent threads).

use hydronas_tensor::{
    approx_eq, gemm, uniform, Epilogue, GemmA, GemmB, PackedA, PackedBLayout, TensorRng,
};

fn naive(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    let mut c = vec![0.0; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for kk in 0..k {
                acc += a[i * k + kk] * b[kk * n + j];
            }
            c[i * n + j] = acc;
        }
    }
    c
}

fn random_operands(m: usize, k: usize, n: usize, seed: u64) -> (Vec<f32>, Vec<f32>) {
    let mut rng = TensorRng::seed_from_u64(seed);
    let a = uniform(&[m * k], -1.0, 1.0, &mut rng).as_slice().to_vec();
    let b = uniform(&[k * n], -1.0, 1.0, &mut rng).as_slice().to_vec();
    (a, b)
}

/// Plain `gemm` on two row-major slices.
fn gemm_nn(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    gemm(GemmA::Slice(a), GemmB::Slice(b), c, m, k, n, Epilogue::None);
}

/// Shapes chosen to cross every dispatch boundary: the small-problem
/// path, the packed path, k spanning multiple KC=256 blocks, n spanning
/// multiple NC=512 blocks, m/n tails of 1..7 — narrower than every
/// register tile — and packed-path widths on both sides of the switch
/// between 16- and 32-column tiles.
const SHAPES: &[(usize, usize, usize)] = &[
    (1, 1, 1),
    (3, 5, 7),
    (4, 8, 8),
    (5, 2000, 5),   // packed path, both dims a single partial panel
    (65, 300, 33),  // one-row m tail, one-col n tail, two k blocks
    (64, 256, 64),  // exact multiples everywhere
    (67, 513, 70),  // k tail of 1 across the KC boundary
    (12, 100, 515), // n crosses the NC=512 block boundary
    (130, 31, 140), // wide-ish with odd k
    (96, 96, 96),
    (64, 40, 16),  // one 16-column panel, no padding
    (37, 60, 17),  // 17 columns pad to 32 in either width
    (25, 70, 32),  // one 32-column panel, no padding
    (45, 300, 36), // 36 columns pad to 48 or 64, two k blocks
];

/// Whether two slice operands of this shape take the packed path (the
/// kernel's small-problem threshold is `m * k * n < 32 * 1024`).
fn packed_path(m: usize, k: usize, n: usize) -> bool {
    m * k * n >= 32 * 1024
}

/// The operand layouts `gemm` accepts: conv forward and backward,
/// `matmul` and the linear layer pass two slices; the serving conv a
/// prepacked weight and a packed im2col matrix; and a slice A against a
/// packed B, which no caller passes but the packed path must still get
/// right.
#[derive(Clone, Copy, Debug)]
enum Layout {
    Slices,
    PackedAB,
    PackedB,
}

const LAYOUTS: [Layout; 3] = [Layout::Slices, Layout::PackedAB, Layout::PackedB];

/// One `[m x k] x [k x n]` problem held in every storage a layout reads.
struct Operands {
    m: usize,
    k: usize,
    n: usize,
    a: Vec<f32>,
    b: Vec<f32>,
    packed_a: PackedA,
    b_layout: PackedBLayout,
    b_pack: Vec<f32>,
}

impl Operands {
    fn new(m: usize, k: usize, n: usize, seed: u64) -> Operands {
        let (a, b) = random_operands(m, k, n, seed);
        let packed_a = PackedA::pack(&a, m, k);
        let b_layout = PackedBLayout::new(k, n);
        // Poisoned, so a lane the packing misses would surface as NaN.
        let mut b_pack = vec![f32::NAN; b_layout.len()];
        b_layout.pack(&b, &mut b_pack);
        Operands {
            m,
            k,
            n,
            a,
            b,
            packed_a,
            b_layout,
            b_pack,
        }
    }

    /// Runs `gemm` on this problem in `layout` into a dirty C (the kernel
    /// must fully overwrite it).
    fn run(&self, layout: Layout, epi: Epilogue) -> Vec<f32> {
        let a = match layout {
            Layout::PackedAB => GemmA::Packed(&self.packed_a),
            Layout::Slices | Layout::PackedB => GemmA::Slice(&self.a),
        };
        let b = match layout {
            Layout::Slices => GemmB::Slice(&self.b),
            Layout::PackedAB | Layout::PackedB => GemmB::Packed(&self.b_layout, &self.b_pack),
        };
        let mut c = vec![7.0; self.m * self.n];
        gemm(a, b, &mut c, self.m, self.k, self.n, epi);
        c
    }
}

#[test]
fn randomized_shapes_match_naive_reference() {
    for (case, &(m, k, n)) in SHAPES.iter().enumerate() {
        let ops = Operands::new(m, k, n, 1000 + case as u64);
        let want = naive(&ops.a, &ops.b, m, k, n);
        for layout in LAYOUTS {
            let c = ops.run(layout, Epilogue::None);
            for (i, (x, y)) in c.iter().zip(want.iter()).enumerate() {
                assert!(
                    approx_eq(*x, *y, 1e-3),
                    "{layout:?} shape ({m},{k},{n}) elem {i}: {x} vs {y}"
                );
            }
        }
    }
}

#[test]
fn fused_epilogues_match_unfused_bit_for_bit() {
    for (case, &(m, k, n)) in SHAPES.iter().enumerate() {
        let ops = Operands::new(m, k, n, 3000 + case as u64);
        let mut rng = TensorRng::seed_from_u64(4000 + case as u64);
        let col_bias = uniform(&[n], -0.5, 0.5, &mut rng).as_slice().to_vec();
        let row_bias = uniform(&[m], -0.5, 0.5, &mut rng).as_slice().to_vec();

        for layout in LAYOUTS {
            let plain = ops.run(layout, Epilogue::None);
            let fused = ops.run(layout, Epilogue::ColBias(&col_bias));
            let fused_rows = ops.run(layout, Epilogue::RowBias(&row_bias));
            let fused_rows_relu = ops.run(layout, Epilogue::RowBiasRelu(&row_bias));
            for i in 0..m * n {
                let at = format!("{layout:?} shape ({m},{k},{n}) elem {i}");
                assert_eq!(fused[i], plain[i] + col_bias[i % n], "{at}");
                let want = plain[i] + row_bias[i / n];
                assert_eq!(fused_rows[i], want, "{at}");
                assert_eq!(fused_rows_relu[i], want.max(0.0), "{at}");
            }
        }
    }
}

#[test]
fn results_are_bit_identical_run_to_run() {
    for (case, &(m, k, n)) in SHAPES.iter().enumerate() {
        let ops = Operands::new(m, k, n, 5000 + case as u64);
        let slices = ops.run(Layout::Slices, Epilogue::None);
        let mut c1 = vec![0.0; m * n];
        gemm_nn(&ops.a, &ops.b, &mut c1, m, k, n);
        assert_eq!(c1, slices, "shape ({m},{k},{n})");
        for layout in LAYOUTS {
            let c = ops.run(layout, Epilogue::None);
            assert_eq!(
                c,
                ops.run(layout, Epilogue::None),
                "{layout:?} ({m},{k},{n})"
            );
            // On the packed path, where and when an operand was packed
            // never changes the bits.
            if packed_path(m, k, n) {
                let (c, s) = (bits(&c), bits(&slices));
                assert_eq!(c, s, "{layout:?} ({m},{k},{n}) differs from slices");
            }
        }
    }
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn results_are_bit_identical_across_concurrent_worker_threads() {
    // The NAS worker pool runs GEMMs on many OS threads at once, each
    // with its own scratch arena. Every thread must produce exactly the
    // serial result — the fixed k-accumulation-order contract.
    let (m, k, n) = (67, 513, 129); // packed path, tails in every dimension
    let (a, b) = random_operands(m, k, n, 6000);
    let mut serial = vec![0.0; m * n];
    gemm_nn(&a, &b, &mut serial, m, k, n);

    let results: Vec<Vec<f32>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                s.spawn(|| {
                    let mut c = vec![0.0; m * n];
                    // Twice per thread so the second call runs on a warm
                    // (reused) arena.
                    gemm_nn(&a, &b, &mut c, m, k, n);
                    gemm_nn(&a, &b, &mut c, m, k, n);
                    c
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for (t, c) in results.iter().enumerate() {
        assert_eq!(c, &serial, "thread {t} diverged from the serial result");
    }
}

#[test]
fn inf_propagates_like_nan() {
    let (m, k, n) = (40, 280, 50); // packed path
    let (a, mut b) = random_operands(m, k, n, 7000);
    b[3] = f32::INFINITY;
    let mut c = vec![0.0; m * n];
    gemm_nn(&a, &b, &mut c, m, k, n);
    assert!(
        c.iter().any(|v| !v.is_finite()),
        "Inf in B must reach C even through zero/denormal A entries"
    );
}
