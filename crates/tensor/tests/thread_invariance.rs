//! Thread-count invariance: every kernel that fans out over the compute
//! pool must produce `to_bits`-identical results at 1, 2, and 8 threads.
//!
//! This is the determinism contract of `hydronas_tensor::parallel` made
//! executable: tile ownership (each task writes a disjoint output slice)
//! plus thread-independent accumulation order (each element's k products
//! sum in a fixed ascending order inside its task) means the thread count
//! is purely a scheduling knob. 8 threads on a smaller machine simply
//! oversubscribes — the invariance claim is about task decomposition, not
//! physical cores, so these tests are meaningful on any host.

use hydronas_tensor::{
    conv2d, conv2d_backward, conv2d_bias_act, conv2d_q8, gemm, max_pool2d, max_pool2d_backward,
    pack_conv_weight, qgemm_nt, quantize_slice_i8, set_compute_threads, uniform, Epilogue, GemmA,
    GemmB, PackedA, PackedBLayout, QEpilogue, QuantizedConvWeight, Tensor, TensorRng,
};
use std::sync::{Mutex, MutexGuard};

/// Serializes tests in this binary: the compute-thread count is process
/// state, so concurrent tests would trample each other's configuration.
fn config_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Plain `gemm` on two row-major slices.
fn gemm_nn(a: &Tensor, b: &Tensor, c: &mut [f32], m: usize, k: usize, n: usize) {
    let (a, b) = (GemmA::Slice(a.as_slice()), GemmB::Slice(b.as_slice()));
    gemm(a, b, c, m, k, n, Epilogue::None);
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Runs `f` single-threaded to establish the reference bits, then at 2
/// and 8 threads, asserting bit-identical output every time.
fn assert_thread_invariant(name: &str, f: impl Fn() -> Vec<f32>) {
    set_compute_threads(1);
    let reference = bits(&f());
    for threads in [2usize, 8] {
        set_compute_threads(threads);
        let got = bits(&f());
        assert_eq!(
            got, reference,
            "{name}: output bits diverged at {threads} threads"
        );
    }
    set_compute_threads(1);
}

#[test]
fn packed_gemm_is_thread_count_invariant() {
    let _guard = config_lock();
    // Deliberately awkward extents: partial register tiles on both edges,
    // multiple MC row blocks, and > SMALL_FLOPS so the packed path runs.
    let (m, k, n) = (97, 131, 119);
    let mut rng = TensorRng::seed_from_u64(41);
    let a = uniform(&[m, k], -1.0, 1.0, &mut rng);
    let b = uniform(&[k, n], -1.0, 1.0, &mut rng);
    assert_thread_invariant("gemm packed", || {
        let mut c = vec![0.0f32; m * n];
        gemm_nn(&a, &b, &mut c, m, k, n);
        c
    });
}

#[test]
fn gemm_spanning_multiple_k_and_column_blocks_is_invariant() {
    let _guard = config_lock();
    // k > KC (256) and n > NC (512): the first/last k-block bookkeeping
    // and per-column-block task grids must all stay deterministic.
    let (m, k, n) = (64, 300, 520);
    let mut rng = TensorRng::seed_from_u64(42);
    let a = uniform(&[m, k], -1.0, 1.0, &mut rng);
    let b = uniform(&[k, n], -1.0, 1.0, &mut rng);
    assert_thread_invariant("gemm multi-block", || {
        let mut c = vec![0.0f32; m * n];
        gemm_nn(&a, &b, &mut c, m, k, n);
        c
    });
}

#[test]
fn prepacked_gemm_is_thread_count_invariant() {
    let _guard = config_lock();
    let (m, k, n) = (70, 280, 90);
    let mut rng = TensorRng::seed_from_u64(43);
    let a = uniform(&[m, k], -1.0, 1.0, &mut rng);
    let b = uniform(&[k, n], -1.0, 1.0, &mut rng);
    let bias = uniform(&[m], -0.5, 0.5, &mut rng);
    let col_bias = uniform(&[n], -0.5, 0.5, &mut rng);
    let packed_a = PackedA::pack(a.as_slice(), m, k);
    let layout = PackedBLayout::new(k, n);
    let mut b_pack = vec![0.0f32; layout.len()];
    layout.pack(b.as_slice(), &mut b_pack);
    let b_packed = GemmB::Packed(&layout, &b_pack);
    assert_thread_invariant("gemm prepacked A and B", || {
        let mut c = vec![0.0f32; m * n];
        let epi = Epilogue::RowBiasRelu(bias.as_slice());
        gemm(GemmA::Packed(&packed_a), b_packed, &mut c, m, k, n, epi);
        c
    });
    assert_thread_invariant("gemm prepacked B", || {
        let mut c = vec![0.0f32; m * n];
        let epi = Epilogue::ColBias(col_bias.as_slice());
        gemm(GemmA::Slice(a.as_slice()), b_packed, &mut c, m, k, n, epi);
        c
    });
}

#[test]
fn conv2d_forward_is_thread_count_invariant() {
    let _guard = config_lock();
    let mut rng = TensorRng::seed_from_u64(44);
    let input = uniform(&[5, 3, 17, 17], -1.0, 1.0, &mut rng);
    let weight = uniform(&[8, 3, 3, 3], -0.5, 0.5, &mut rng);
    assert_thread_invariant("conv2d", || {
        conv2d(&input, &weight, 1, 1).as_slice().to_vec()
    });
}

#[test]
fn fused_conv_is_thread_count_invariant() {
    let _guard = config_lock();
    let mut rng = TensorRng::seed_from_u64(45);
    let input = uniform(&[6, 4, 12, 12], -1.0, 1.0, &mut rng);
    let weight = uniform(&[10, 4, 3, 3], -0.5, 0.5, &mut rng);
    let bias = uniform(&[10], -0.5, 0.5, &mut rng);
    let packed = pack_conv_weight(&weight);
    assert_thread_invariant("conv2d_bias_act", || {
        conv2d_bias_act(&input, &packed, bias.as_slice(), true, 1, 1)
            .as_slice()
            .to_vec()
    });
}

#[test]
fn conv2d_backward_is_thread_count_invariant() {
    let _guard = config_lock();
    let mut rng = TensorRng::seed_from_u64(46);
    let input = uniform(&[5, 3, 14, 14], -1.0, 1.0, &mut rng);
    let weight = uniform(&[7, 3, 3, 3], -0.5, 0.5, &mut rng);
    let out = conv2d(&input, &weight, 1, 1);
    let grad_out = uniform(out.dims(), -1.0, 1.0, &mut rng);
    assert_thread_invariant("conv2d_backward", || {
        let (gi, gw) = conv2d_backward(&input, &weight, &grad_out, 1, 1);
        let mut all = gi.as_slice().to_vec();
        all.extend_from_slice(gw.as_slice());
        all
    });
}

#[test]
fn max_pool_is_thread_count_invariant() {
    let _guard = config_lock();
    let mut rng = TensorRng::seed_from_u64(47);
    let input = uniform(&[4, 6, 13, 13], -1.0, 1.0, &mut rng);
    set_compute_threads(1);
    let (ref_out, ref_arg) = max_pool2d(&input, 3, 2, 1);
    let grad_out = uniform(ref_out.dims(), -1.0, 1.0, &mut rng);
    let ref_gi = max_pool2d_backward(input.dims(), &grad_out, &ref_arg, 3, 2, 1);
    for threads in [2usize, 8] {
        set_compute_threads(threads);
        let (out, arg) = max_pool2d(&input, 3, 2, 1);
        assert_eq!(
            bits(out.as_slice()),
            bits(ref_out.as_slice()),
            "max_pool2d output diverged at {threads} threads"
        );
        assert_eq!(arg, ref_arg, "argmax diverged at {threads} threads");
        let gi = max_pool2d_backward(input.dims(), &grad_out, &arg, 3, 2, 1);
        assert_eq!(
            bits(gi.as_slice()),
            bits(ref_gi.as_slice()),
            "max_pool2d_backward diverged at {threads} threads"
        );
    }
    set_compute_threads(1);
}

#[test]
fn small_path_dispatch_ignores_thread_count() {
    let _guard = config_lock();
    // Tiny problems take the sequential small-GEMM path; the dispatch
    // must depend on shape only, so the result cannot move when the pool
    // grows.
    let (m, k, n) = (5, 7, 6);
    let mut rng = TensorRng::seed_from_u64(48);
    let a = uniform(&[m, k], -1.0, 1.0, &mut rng);
    let b = uniform(&[k, n], -1.0, 1.0, &mut rng);
    assert_thread_invariant("gemm small path", || {
        let mut c = vec![0.0f32; m * n];
        gemm_nn(&a, &b, &mut c, m, k, n);
        c
    });
}

#[test]
fn pool_worker_arenas_reach_zero_steady_state_allocations() {
    let _guard = config_lock();
    // The zero-steady-state-allocation property must extend to pool
    // workers: after a bounded warmup, repeated conv forward + backward
    // passes stop missing the per-thread scratch arenas even with the
    // kernels fanned out across 4 threads. (Warmup is loop-until-stable
    // rather than one iteration: task claiming is racy, so which worker
    // first sees each buffer size varies run to run.)
    set_compute_threads(4);
    let mut rng = TensorRng::seed_from_u64(49);
    let input = uniform(&[4, 3, 16, 16], -1.0, 1.0, &mut rng);
    let weight = uniform(&[8, 3, 3, 3], -0.5, 0.5, &mut rng);
    let session = hydronas_telemetry::session();
    let grad_out = {
        let out = conv2d(&input, &weight, 1, 1);
        Tensor::ones(out.dims())
    };
    let misses = |m: &hydronas_telemetry::MetricsSnapshot| {
        m.counters.get("tensor.arena.misses").copied().unwrap_or(0)
    };
    let mut stable_iters = 0;
    let mut last = misses(&session.metrics());
    for _ in 0..50 {
        let _ = conv2d(&input, &weight, 1, 1);
        let _ = conv2d_backward(&input, &weight, &grad_out, 1, 1);
        let now = misses(&session.metrics());
        if now == last {
            stable_iters += 1;
            if stable_iters >= 5 {
                break;
            }
        } else {
            stable_iters = 0;
            last = now;
        }
    }
    drop(session);
    set_compute_threads(1);
    assert!(
        stable_iters >= 5,
        "arena misses never stabilized under the parallel conv loop"
    );
}

#[test]
fn int8_gemm_is_thread_count_invariant() {
    let _guard = config_lock();
    // Awkward extents again: odd m/n so row chunks split unevenly across
    // tasks, k crossing the 32-lane SIMD boundary with a scalar tail. The
    // int8 path is exact integer arithmetic, so this must hold bit-for-bit
    // by construction — the test guards against a future blocked/split-k
    // rewrite silently breaking the contract.
    let (m, k, n) = (37, 97, 53);
    let a: Vec<i8> = (0..m * k)
        .map(|i| (((i as i32) * 31 + 7) % 255 - 127) as i8)
        .collect();
    let bt: Vec<i8> = (0..n * k)
        .map(|i| (((i as i32) * 17 + 3) % 255 - 127) as i8)
        .collect();
    let scales: Vec<f32> = (0..m).map(|i| 1e-3 + i as f32 * 1e-5).collect();
    let bias: Vec<f32> = (0..m).map(|i| i as f32 * 0.01 - 0.1).collect();
    assert_thread_invariant("qgemm row-scaled", || {
        let mut c = vec![0.0f32; m * n];
        let epi = QEpilogue::Rows {
            scales: &scales,
            bias: &bias,
            relu: true,
        };
        qgemm_nt(&a, &bt, &mut c, m, k, n, epi);
        c
    });
}

#[test]
fn int8_conv_is_thread_count_invariant() {
    let _guard = config_lock();
    let mut rng = TensorRng::seed_from_u64(73);
    let input = uniform(&[5, 3, 17, 17], -1.0, 1.0, &mut rng);
    let out_c = 6;
    let per_out = 3 * 3 * 3;
    let weight_f = uniform(&[out_c, 3, 3, 3], -0.5, 0.5, &mut rng);
    let mut values = vec![0i8; out_c * per_out];
    let mut scales = vec![0.0f32; out_c];
    for o in 0..out_c {
        let row = &weight_f.as_slice()[o * per_out..][..per_out];
        let max_abs = row.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
        scales[o] = (max_abs / 127.0).max(f32::MIN_POSITIVE);
        quantize_slice_i8(row, scales[o], &mut values[o * per_out..][..per_out]);
    }
    let weight = QuantizedConvWeight::new(values, scales, out_c, 3, 3);
    let bias: Vec<f32> = (0..out_c).map(|i| i as f32 * 0.1 - 0.2).collect();
    assert_thread_invariant("conv2d_q8", || {
        conv2d_q8(&input, &weight, 1.0 / 127.0, &bias, true, 2, 1)
            .as_slice()
            .to_vec()
    });
}
