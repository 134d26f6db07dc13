//! Property tests for the int8 NT GEMM against a naive i32 reference.
//!
//! The kernel dispatches between a 32-lane AVX2 path and a scalar fallback
//! and parallelizes over output rows, so the shapes here deliberately
//! straddle every dispatch boundary: k below / at / above one 32-lane SIMD
//! tile (scalar-tail handling), single-row and single-column outputs, and
//! sizes that split unevenly across compute-pool tasks.

use hydronas_tensor::{qgemm_nt, quantize_slice_i8, QEpilogue};
use proptest::prelude::*;

fn naive_qgemm(a: &[i8], bt: &[i8], m: usize, k: usize, n: usize) -> Vec<i32> {
    let mut c = vec![0i32; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0i32;
            for p in 0..k {
                acc += i32::from(a[i * k + p]) * i32::from(bt[j * k + p]);
            }
            c[i * n + j] = acc;
        }
    }
    c
}

/// Shapes that exercise the dispatch boundaries: `k` values bracket the
/// 32-lane SIMD tile (31/32/33), 64-lane multiples, and ragged tails.
fn shape_strategy() -> impl Strategy<Value = (usize, usize, usize)> {
    (
        1usize..10,
        prop_oneof![
            1usize..9,
            Just(31usize),
            Just(32usize),
            Just(33usize),
            Just(64usize),
            Just(95usize),
            Just(100usize),
        ],
        1usize..10,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn qgemm_matches_naive_i32_reference(
        (m, k, n) in shape_strategy(),
        seed in 0u64..u64::MAX,
    ) {
        // Deterministic pseudo-random i8 fill over the full [-127, 127]
        // range (including +/-127 saturation values).
        let fill = |len: usize, salt: u64| -> Vec<i8> {
            (0..len)
                .map(|i| {
                    let h = (i as u64)
                        .wrapping_mul(0x9E3779B97F4A7C15)
                        .wrapping_add(seed ^ salt);
                    ((h >> 32) % 255) as i32 - 127
                })
                .map(|v| v as i8)
                .collect()
        };
        let a = fill(m * k, 1);
        let bt = fill(n * k, 2);
        // Unit scales and zero bias hand back the raw accumulators as
        // f32, exactly: |acc| <= 127² · 100 < 2^24.
        let (scales, bias) = (vec![1.0f32; m], vec![0.0f32; m]);
        let epi = QEpilogue::Rows { scales: &scales, bias: &bias, relu: false };
        let mut c = vec![0.0f32; m * n];
        qgemm_nt(&a, &bt, &mut c, m, k, n, epi);
        let want: Vec<f32> = naive_qgemm(&a, &bt, m, k, n)
            .into_iter()
            .map(|acc| acc as f32)
            .collect();
        prop_assert_eq!(c, want);
    }

    #[test]
    fn scaled_epilogues_match_reference_exactly(
        (m, k, n) in shape_strategy(),
        seed in 0u64..u64::MAX,
        relu in prop_oneof![Just(true), Just(false)],
    ) {
        let fill = |len: usize, salt: u64| -> Vec<i8> {
            (0..len)
                .map(|i| {
                    let h = (i as u64)
                        .wrapping_mul(0xD1B54A32D192ED03)
                        .wrapping_add(seed ^ salt);
                    (((h >> 32) % 255) as i32 - 127) as i8
                })
                .collect()
        };
        let a = fill(m * k, 3);
        let bt = fill(n * k, 4);
        let acc = naive_qgemm(&a, &bt, m, k, n);
        // Row-scaled: C[i][j] = act(acc * s[i] + b[i]) with exactly one
        // f32 multiply-add — the reference below reproduces it bit-for-bit.
        let row_scales: Vec<f32> = (0..m).map(|i| 1e-4 + i as f32 * 1e-5).collect();
        let row_bias: Vec<f32> = (0..m).map(|i| i as f32 * 0.01 - 0.05).collect();
        let mut c = vec![0.0f32; m * n];
        let epi = QEpilogue::Rows { scales: &row_scales, bias: &row_bias, relu };
        qgemm_nt(&a, &bt, &mut c, m, k, n, epi);
        for i in 0..m {
            for j in 0..n {
                let v = acc[i * n + j] as f32 * row_scales[i] + row_bias[i];
                let expect = if relu { v.max(0.0) } else { v };
                prop_assert_eq!(c[i * n + j].to_bits(), expect.to_bits());
            }
        }
        // Col-scaled: same contract per output column.
        let col_scales: Vec<f32> = (0..n).map(|j| 2e-4 + j as f32 * 1e-5).collect();
        let col_bias: Vec<f32> = (0..n).map(|j| j as f32 * 0.02 - 0.04).collect();
        let epi = QEpilogue::Cols { scales: &col_scales, bias: &col_bias, relu };
        qgemm_nt(&a, &bt, &mut c, m, k, n, epi);
        for i in 0..m {
            for j in 0..n {
                let v = acc[i * n + j] as f32 * col_scales[j] + col_bias[j];
                let expect = if relu { v.max(0.0) } else { v };
                prop_assert_eq!(c[i * n + j].to_bits(), expect.to_bits());
            }
        }
    }

    #[test]
    fn quantize_roundtrip_error_is_half_a_step(
        values in proptest::collection::vec(-10.0f32..10.0, 1..200),
        scale in 1e-3f32..0.5,
    ) {
        let mut q = vec![0i8; values.len()];
        quantize_slice_i8(&values, scale, &mut q);
        for (&v, &qi) in values.iter().zip(&q) {
            let back = f32::from(qi) * scale;
            // Inside the representable range the error is at most half a
            // quantization step; outside it the value clamps to ±127.
            if v.abs() <= 127.0 * scale {
                prop_assert!(
                    (v - back).abs() <= scale * 0.5 + scale * 1e-4,
                    "v={v} back={back} scale={scale}"
                );
            } else {
                prop_assert_eq!(qi, if v > 0.0 { 127 } else { -127 });
            }
        }
    }
}
