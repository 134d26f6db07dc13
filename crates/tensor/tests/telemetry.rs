//! Op-level telemetry accounting for the tensor kernels.
//!
//! Lives in its own integration-test binary (own process) so the exact
//! counter assertions cannot race with other tests; within the process,
//! sessions serialize through the telemetry session lock.

use hydronas_tensor::{
    avg_pool2d_global, conv2d, conv2d_backward, gemm, max_pool2d, uniform, Epilogue, GemmA, GemmB,
    Tensor, TensorRng,
};

#[test]
fn gemm_records_calls_flops_and_bytes() {
    let session = hydronas_telemetry::session();
    let (m, k, n) = (3, 4, 5);
    let a = vec![1.0f32; m * k];
    let b = vec![1.0f32; k * n];
    let mut c = vec![0.0f32; m * n];
    gemm(
        GemmA::Slice(&a),
        GemmB::Slice(&b),
        &mut c,
        m,
        k,
        n,
        Epilogue::None,
    );

    let b_t = vec![1.0f32; n * k];
    let b_op = GemmB::Transposed(&b_t);
    gemm(GemmA::Slice(&a), b_op, &mut c, m, k, n, Epilogue::None);

    let counters = session.metrics().counters;
    assert_eq!(counters["tensor.gemm.calls"], 2);
    assert_eq!(counters["tensor.gemm.flops"], 2 * (2 * m * k * n) as u64);
    assert_eq!(
        counters["tensor.gemm.bytes"],
        2 * (4 * (m * k + k * n + m * n)) as u64
    );
}

#[test]
fn conv_forward_and_backward_record_flops() {
    let session = hydronas_telemetry::session();
    let mut rng = TensorRng::seed_from_u64(1);
    let input = uniform(&[2, 3, 8, 8], -1.0, 1.0, &mut rng);
    let weight = uniform(&[4, 3, 3, 3], -0.5, 0.5, &mut rng);
    let out = conv2d(&input, &weight, 1, 1);
    let grad_out = Tensor::ones(out.dims());
    let _ = conv2d_backward(&input, &weight, &grad_out, 1, 1);

    let counters = session.metrics().counters;
    assert_eq!(counters["tensor.conv2d.calls"], 1);
    assert_eq!(counters["tensor.conv2d_backward.calls"], 1);
    // batch=2, out_c=4, col_rows=3*3*3=27, col_cols=8*8=64.
    let fwd_flops = 2 * 2 * 4 * 27 * 64;
    assert_eq!(counters["tensor.conv2d.flops"], fwd_flops as u64);
    assert_eq!(
        counters["tensor.conv2d_backward.flops"],
        2 * fwd_flops as u64
    );
    // Conv runs one GEMM per sample internally; those are visible too.
    assert!(counters["tensor.gemm.calls"] >= 2);
}

#[test]
fn pooling_records_calls_and_bytes() {
    let session = hydronas_telemetry::session();
    let input = Tensor::ones(&[1, 2, 4, 4]);
    let _ = max_pool2d(&input, 2, 2, 0);
    let _ = avg_pool2d_global(&input);

    let counters = session.metrics().counters;
    assert_eq!(counters["tensor.max_pool2d.calls"], 1);
    // input 32 floats + output 8 floats + argmax 8 u32s, 4 bytes each.
    assert_eq!(counters["tensor.max_pool2d.bytes"], 4 * (32 + 8 + 8));
    assert_eq!(counters["tensor.avg_pool2d_global.calls"], 1);
    assert_eq!(counters["tensor.avg_pool2d_global.bytes"], 4 * (32 + 2));
}

#[test]
fn kernels_record_nothing_without_a_session() {
    // No session anywhere in this test: results must be identical and
    // nothing should panic. (Counter state cannot be inspected without a
    // session, so this is purely the "fast path does not explode" check.)
    let a = vec![1.0f32; 6];
    let b = vec![1.0f32; 6];
    let mut c = vec![0.0f32; 4];
    gemm(
        GemmA::Slice(&a),
        GemmB::Slice(&b),
        &mut c,
        2,
        3,
        2,
        Epilogue::None,
    );
    assert_eq!(c, vec![3.0, 3.0, 3.0, 3.0]);
}
