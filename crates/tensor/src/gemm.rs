//! Packed, register-blocked single-precision GEMM with fused epilogues.
//!
//! One call, [`gemm`], computes `C = epilogue(A (m x k) * B (k x n))`
//! into row-major C. [`GemmA`] and [`GemmB`] name where each operand
//! lives (row-major, transposed, or packed ahead of time) and
//! [`Epilogue`] names the bias/ReLU fused into the write-back. The kernel
//! is structured the way high-performance BLAS implementations
//! (BLIS/GotoBLAS) are: operands are repacked into cache-resident panels
//! and the innermost computation is an `MR x NR` register tile the
//! compiler keeps entirely in vector registers. An operand packed ahead
//! of time ([`PackedA`], a [`PackedBLayout`] buffer) skips its packing
//! pass.
//!
//! ## Blocking
//!
//! * `NC`-wide column blocks of C/B (outer loop, bounds the B panel),
//! * `KC`-deep k blocks (B panel of `KC x NC` floats stays L2-resident),
//! * `MC`-tall row blocks of C/A (the unit of parallel work),
//! * an `MR x NR` register-tile microkernel: `MR * NR` scalar
//!   accumulators the compiler keeps in vector registers, so the hot
//!   loop performs `MR * NR` multiply-adds per `MR + NR` loads and
//!   touches memory for C only at tile boundaries.
//!
//! The microkernel shape is chosen once per process by CPU detection
//! ([`kernel`]): a 6 x 16 AVX2+FMA instantiation (12 ymm accumulators,
//! `mul_add` lowered to vfmadd) when the host supports it, else a
//! portable 4 x 8 instantiation sized for SSE2's register file. Pack
//! buffers come from the per-thread scratch arena ([`crate::arena`]),
//! so steady-state GEMM calls allocate nothing.
//!
//! ## Determinism contract
//!
//! Every C element accumulates its k products in a fixed order: k blocks
//! ascending, and within a block strictly ascending k (the microkernel
//! holds one scalar accumulator per C element — no horizontal
//! reductions). Row blocks are written by exactly one task each, and the
//! kernel instantiation is fixed for the process lifetime, so results
//! are bit-identical run-to-run and across worker counts on a given
//! machine.
//!
//! Path choice depends only on the shape and on whether an operand is
//! prepacked, never on thread count. Two slice operands with
//! `m * k * n` below the packing break-even take an unpacked path
//! (packing overhead would dominate); every other call, and every call
//! with a prepacked operand, takes the packed path. The packed path fixes
//! each element's float association by its `KC`-deep k blocks alone —
//! never by `m` or `n` — so a prepacked operand buys batch invariance: an
//! output column computed inside a wide, multi-sample call is
//! bit-identical to the same column computed alone, which the shape-based
//! dispatch cannot promise (the small path re-associates k once a problem
//! crosses the size threshold). A packed panel holds the same floats in
//! the same places whether it was packed ahead of time or inside the
//! call, so the operand's storage never changes the bits.
//!
//! ## NaN transparency
//!
//! The kernel performs the full `2mkn` multiply-adds with no
//! "skip zero operand" shortcuts: IEEE `0 * NaN = NaN`, so a NaN or Inf
//! anywhere in the operands propagates to C. Divergence detection in the
//! trainer (`Diverged` trial failures) depends on this.

use crate::arena::scratch;
use crate::parallel;
use crate::tensor::Tensor;
use std::sync::OnceLock;

/// k-block depth: one `KC x NC` B panel plus an `MC x KC` A panel stay
/// cache-resident.
const KC: usize = 256;
/// Column-block width (multiple of every kernel's `NR`).
const NC: usize = 512;
/// `m * k * n` below which two slice operands take the unpacked path.
const SMALL_FLOPS: usize = 32 * 1024;

/// The left operand of [`gemm`], `[m x k]`.
#[derive(Clone, Copy)]
pub enum GemmA<'a> {
    /// Row-major storage, packed inside the call.
    Slice(&'a [f32]),
    /// Packed once ahead of time; always takes the packed path.
    Packed(&'a PackedA),
}

/// The right operand of [`gemm`], `[k x n]`.
#[derive(Clone, Copy)]
pub enum GemmB<'a> {
    /// Row-major `[k x n]`, packed inside the call.
    Slice(&'a [f32]),
    /// Row-major `[n x k]`, i.e. B stored transposed. Callers that would
    /// otherwise materialize a transposed copy — conv2d's weight-gradient
    /// GEMM against the im2col matrix — pack straight from it instead.
    Transposed(&'a [f32]),
    /// A buffer holding B in the panel order of its layout, written by
    /// [`PackedBLayout::pack`] or [`PackedBLayout::write_row`]; always
    /// takes the packed path.
    Packed(&'a PackedBLayout, &'a [f32]),
}

/// Fused operation applied to C while the last k block is written back,
/// so no second pass over C ever runs.
#[derive(Clone, Copy)]
pub enum Epilogue<'a> {
    /// Plain `C = A * B`.
    None,
    /// `C[i][j] = (A * B)[i][j] + bias[j]`, one bias per output column
    /// (`len == n`): the linear layer, `[N, in] x [in, out]`.
    ColBias(&'a [f32]),
    /// `C[i][j] = (A * B)[i][j] + bias[i]`, one bias per output row
    /// (`len == m`): the BN-folded convolution `weight [out_c, cr] x
    /// col [cr, cc]`, whose bias belongs to the output channel, a row
    /// of C.
    RowBias(&'a [f32]),
    /// `C[i][j] = max(0, (A * B)[i][j] + bias[i])`: the fused
    /// conv+BN+ReLU.
    RowBiasRelu(&'a [f32]),
}

impl Epilogue<'_> {
    /// Applies the epilogue to one already-accumulated value at the
    /// given global C coordinates.
    #[inline(always)]
    fn apply(&self, v: f32, row: usize, col: usize) -> f32 {
        match self {
            Epilogue::None => v,
            Epilogue::ColBias(bias) => v + bias[col],
            Epilogue::RowBias(bias) => v + bias[row],
            Epilogue::RowBiasRelu(bias) => (v + bias[row]).max(0.0),
        }
    }
}

/// Op accounting shared by all GEMM paths: one call, `2*m*k*n`
/// multiply-add FLOPs, and the operand + result bytes. A pure telemetry
/// side channel — gone after one branch when no session is active.
#[inline]
fn record_gemm(m: usize, k: usize, n: usize) {
    if hydronas_telemetry::enabled() {
        hydronas_telemetry::add_all(&[
            ("tensor.gemm.calls", 1),
            ("tensor.gemm.flops", (2 * m * k * n) as u64),
            ("tensor.gemm.bytes", (4 * (m * k + k * n + m * n)) as u64),
        ]);
    }
}

/// Geometry of one packed row-block invocation: which slice of the
/// problem this task computes and where it sits in the k schedule.
#[derive(Clone, Copy)]
struct BlockArgs {
    /// Full problem k and n (operand strides).
    k: usize,
    n: usize,
    /// Row-block origin and height.
    ic: usize,
    mc: usize,
    /// k-block origin and depth.
    pc: usize,
    kc: usize,
    /// Column-block origin and width.
    jc: usize,
    nc: usize,
    /// First/last k block: overwrite vs accumulate, fuse epilogue.
    first: bool,
    last: bool,
}

/// One microkernel instantiation: the register-tile shape it was
/// monomorphized for, the row-block height to parallelize over, and the
/// monomorphized row-block driver. Selected once per process
/// ([`kernel`]), so path choice never varies within a run — part of the
/// determinism contract.
#[derive(Clone, Copy)]
struct Kernel {
    /// Register tile width (columns of B per tile).
    nr: usize,
    /// Register tile height (rows of A per panel).
    mr: usize,
    /// Row-block height, the unit of parallel work (multiple of `mr`).
    mc: usize,
    /// Computes one `mc x nc` row block from A and the packed B panels.
    block: for<'a> fn(GemmA<'a>, &[f32], &mut [f32], BlockArgs, Epilogue<'a>),
}

/// Returns the per-process microkernel: AVX2+FMA 6x16 when the CPU
/// supports it (12 ymm accumulators + broadcast + B loads fill the
/// 16-register file), portable 4x8 otherwise (fits SSE2's 8 xmm with
/// room to spare). Detection runs once; every GEMM in the process uses
/// the same kernel, so results are bit-identical run-to-run.
fn kernel() -> Kernel {
    static KERNEL: OnceLock<Kernel> = OnceLock::new();
    *KERNEL.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
        {
            return Kernel {
                nr: 16,
                mr: 6,
                mc: 96,
                block: row_block_avx2,
            };
        }
        Kernel {
            nr: 8,
            mr: 4,
            mc: 64,
            block: row_block_portable,
        }
    })
}

/// Packs `kc` steps of `mc` A rows (starting at `ic`, `pc`) into
/// `ceil(mc/mr)` row panels; panel layout is k-major: step `kk` holds the
/// `mr` row values contiguously. Rows past `mc` pad with zeros.
#[allow(clippy::too_many_arguments)]
fn pack_a(
    a: &[f32],
    out: &mut [f32],
    k: usize,
    ic: usize,
    mc: usize,
    pc: usize,
    kc: usize,
    mr: usize,
) {
    for (pi, panel) in out.chunks_exact_mut(mr * kc).enumerate() {
        let r0 = ic + pi * mr;
        let rows = mr.min(ic + mc - r0);
        for (kk, dst) in panel.chunks_exact_mut(mr).enumerate() {
            let col = pc + kk;
            for (r, d) in dst.iter_mut().enumerate() {
                *d = if r < rows { a[(r0 + r) * k + col] } else { 0.0 };
            }
        }
    }
}

/// Packs `kc` k steps of the `nc` B columns starting at `jc` into
/// `ceil(nc/nr)` column panels, reading B through `at(kk, col)` (k step
/// within the block, global column); panel layout is k-major: step `kk`
/// holds the `nr` column values contiguously. Columns past `nc` pad with
/// zeros.
fn pack_b(
    out: &mut [f32],
    kc: usize,
    jc: usize,
    nc: usize,
    nr: usize,
    at: impl Fn(usize, usize) -> f32,
) {
    for (pj, panel) in out.chunks_exact_mut(nr * kc).enumerate() {
        let c0 = jc + pj * nr;
        let cols = nr.min(jc + nc - c0);
        for (kk, dst) in panel.chunks_exact_mut(nr).enumerate() {
            for (cc, d) in dst.iter_mut().enumerate() {
                *d = if cc < cols { at(kk, c0 + cc) } else { 0.0 };
            }
        }
    }
}

/// The register tile: accumulates `kc` rank-1 updates into `MR x NR`
/// scalar accumulators. Strictly ascending k per element — the
/// determinism contract. With `FMA` the update is `mul_add`, which the
/// enclosing `#[target_feature(fma)]` context lowers to a single
/// hardware vfmadd (without that context it would be a libm call — the
/// portable instantiation uses plain mul+add instead).
#[inline(always)]
fn micro_tile<const MR: usize, const NR: usize, const FMA: bool>(
    a_panel: &[f32],
    b_panel: &[f32],
) -> [[f32; NR]; MR] {
    let mut acc = [[0.0f32; NR]; MR];
    for (a_k, b_k) in a_panel.chunks_exact(MR).zip(b_panel.chunks_exact(NR)) {
        let a_k: &[f32; MR] = a_k.try_into().unwrap();
        let b_k: &[f32; NR] = b_k.try_into().unwrap();
        for r in 0..MR {
            let ar = a_k[r];
            for c in 0..NR {
                acc[r][c] = if FMA {
                    ar.mul_add(b_k[c], acc[r][c])
                } else {
                    ar * b_k[c] + acc[r][c]
                };
            }
        }
    }
    acc
}

/// Writes one microkernel tile into the C row block. `first` overwrites
/// (the first k block needs no prior zeroing of C), later blocks
/// accumulate; the epilogue is fused into the `last` block's store so no
/// separate pass over C ever runs.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn store_tile<const MR: usize, const NR: usize>(
    c_block: &mut [f32],
    n: usize,
    row_base: usize,
    row0: usize,
    col0: usize,
    mr_eff: usize,
    nr_eff: usize,
    acc: &[[f32; NR]; MR],
    first: bool,
    last: bool,
    epi: Epilogue,
) {
    for (r, acc_row) in acc.iter().enumerate().take(mr_eff) {
        let row = &mut c_block[(row0 + r) * n + col0..][..nr_eff];
        for (j, cj) in row.iter_mut().enumerate() {
            let mut v = acc_row[j];
            if !first {
                v += *cj;
            }
            if last {
                // `row0` is block-relative; `row_base` restores the
                // global row index the row-indexed epilogues need.
                v = epi.apply(v, row_base + row0 + r, col0 + j);
            }
            *cj = v;
        }
    }
}

/// Sweeps the `MR x NR` register tiles of one row block from
/// already-packed A and B panels. Monomorphized per kernel so the tile
/// loops have constant bounds and vectorize.
#[inline(always)]
fn tile_sweep<const MR: usize, const NR: usize, const FMA: bool>(
    a_pack: &[f32],
    b_pack: &[f32],
    c_block: &mut [f32],
    g: BlockArgs,
    epi: Epilogue,
) {
    let a_panels = g.mc.div_ceil(MR);
    let b_panels = g.nc.div_ceil(NR);
    for pj in 0..b_panels {
        let b_panel = &b_pack[pj * NR * g.kc..][..NR * g.kc];
        let col0 = g.jc + pj * NR;
        let nr_eff = NR.min(g.jc + g.nc - col0);
        for pi in 0..a_panels {
            let a_panel = &a_pack[pi * MR * g.kc..][..MR * g.kc];
            let row0 = pi * MR;
            let mr_eff = MR.min(g.mc - row0);
            let acc = micro_tile::<MR, NR, FMA>(a_panel, b_panel);
            store_tile::<MR, NR>(
                c_block, g.n, g.ic, row0, col0, mr_eff, nr_eff, &acc, g.first, g.last, epi,
            );
        }
    }
}

/// Computes one `mc x nc` row block: takes its A panels from a
/// [`PackedA`] or packs them from the slice, then sweeps the `MR x NR`
/// register tiles.
#[inline(always)]
fn row_block_body<const MR: usize, const NR: usize, const FMA: bool>(
    a: GemmA,
    b_pack: &[f32],
    c_block: &mut [f32],
    g: BlockArgs,
    epi: Epilogue,
) {
    let a_len = g.mc.div_ceil(MR) * MR * g.kc;
    let mut a_staged;
    let a_pack: &[f32] = match a {
        // A task starts at a multiple of `MR`, so its panels sit at a
        // linear offset inside the k block's panel group.
        GemmA::Packed(packed) => &packed.buf[packed.group * g.pc + g.ic * g.kc..][..a_len],
        GemmA::Slice(a) => {
            a_staged = scratch(a_len);
            pack_a(a, &mut a_staged, g.k, g.ic, g.mc, g.pc, g.kc, MR);
            &a_staged
        }
    };
    tile_sweep::<MR, NR, FMA>(a_pack, b_pack, c_block, g, epi);
}

/// Baseline instantiation: 4x8 tiles, plain mul+add. Correct on every
/// target the workspace builds for.
fn row_block_portable(a: GemmA, b_pack: &[f32], c_block: &mut [f32], g: BlockArgs, epi: Epilogue) {
    row_block_body::<4, 8, false>(a, b_pack, c_block, g, epi);
}

/// AVX2+FMA instantiation: 6x16 tiles, `mul_add` lowered to vfmadd. The
/// `#[target_feature]` context lets the compiler use ymm registers and
/// FMA throughout the inlined body.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn row_block_avx2_impl(
    a: GemmA,
    b_pack: &[f32],
    c_block: &mut [f32],
    g: BlockArgs,
    epi: Epilogue,
) {
    row_block_body::<6, 16, true>(a, b_pack, c_block, g, epi);
}

/// Safe shim around the AVX2 kernel. Only ever installed by [`kernel`]
/// after `is_x86_feature_detected!` confirms avx2+fma, which is exactly
/// the safety contract of the `#[target_feature]` function.
#[cfg(target_arch = "x86_64")]
fn row_block_avx2(a: GemmA, b_pack: &[f32], c_block: &mut [f32], g: BlockArgs, epi: Epilogue) {
    unsafe { row_block_avx2_impl(a, b_pack, c_block, g, epi) }
}

/// Height of one parallel row-block task, always a multiple of `mr` and
/// capped at `kern.mc` (the cache-blocking height).
///
/// The task height is a *scheduling* choice, not a numeric one: every C
/// element accumulates in its own scalar register over a strictly
/// ascending k order fixed by the k-blocking, and row panels are `mr`-row
/// groups whose contents depend only on the global row index (any task
/// start `ic` is a multiple of `mr`, so panel boundaries never move).
/// Outputs are therefore `to_bits`-identical for any height this returns —
/// which lets it adapt to the pool size (~2 tasks per thread for load
/// balance) without violating the determinism contract.
fn par_row_block(m: usize, kern: &Kernel) -> usize {
    let threads = parallel::compute_threads();
    if threads <= 1 {
        return kern.mc;
    }
    let per = m.div_ceil(2 * threads);
    per.next_multiple_of(kern.mr).clamp(kern.mr, kern.mc)
}

/// The packed path: NC/KC/MC blocking around the microkernel, row blocks
/// fanned out as independent compute-pool tasks.
///
/// A slice operand is packed inside the call — B here, once per
/// `(jc, pc)` block on the calling thread, read-shared by every row task;
/// A by each row task for its own rows — and a prepacked operand is read
/// in place. Either way the panels hold the same floats in the same
/// places.
fn gemm_packed(a: GemmA, b: GemmB, c: &mut [f32], m: usize, k: usize, n: usize, epi: Epilogue) {
    let kern = kernel();
    let mc_task = par_row_block(m, &kern);
    for jc in (0..n).step_by(NC) {
        let nc = NC.min(n - jc);
        let nc_padded = nc.div_ceil(kern.nr) * kern.nr;
        for pc in (0..k).step_by(KC) {
            let kc = KC.min(k - pc);
            let first = pc == 0;
            let last = pc + kc == k;
            let mut b_staged;
            let b_pack: &[f32] = match b {
                GemmB::Packed(layout, buf) => &buf[layout.block_offset(jc, pc)..][..nc_padded * kc],
                GemmB::Slice(rows) => {
                    b_staged = scratch(nc_padded * kc);
                    pack_b(&mut b_staged, kc, jc, nc, kern.nr, |kk, col| {
                        rows[(pc + kk) * n + col]
                    });
                    &b_staged
                }
                GemmB::Transposed(bt) => {
                    b_staged = scratch(nc_padded * kc);
                    pack_b(&mut b_staged, kc, jc, nc, kern.nr, |kk, col| {
                        bt[col * k + pc + kk]
                    });
                    &b_staged
                }
            };
            parallel::par_chunks_mut(c, mc_task * n, |bi, c_block| {
                let ic = bi * mc_task;
                let mc = mc_task.min(m - ic);
                let g = BlockArgs {
                    k,
                    n,
                    ic,
                    mc,
                    pc,
                    kc,
                    jc,
                    nc,
                    first,
                    last,
                };
                (kern.block)(a, b_pack, c_block, g, epi);
            });
        }
    }
}

/// Unpacked path for problems too small to amortize packing, B row-major.
/// Same per-element ascending-k accumulation; no zero-operand shortcuts.
fn gemm_small(a: &[f32], b: &[f32], c: &mut [f32], k: usize, n: usize, epi: Epilogue) {
    for (i, c_row) in c.chunks_exact_mut(n).enumerate() {
        c_row.fill(0.0);
        let a_row = &a[i * k..(i + 1) * k];
        for (kk, &aik) in a_row.iter().enumerate() {
            let b_row = &b[kk * n..kk * n + n];
            for (cj, &bj) in c_row.iter_mut().zip(b_row.iter()) {
                *cj += aik * bj;
            }
        }
        for (j, cj) in c_row.iter_mut().enumerate() {
            *cj = epi.apply(*cj, i, j);
        }
    }
}

/// [`gemm_small`] with B stored transposed: one dot product per element.
fn gemm_small_nt(a: &[f32], bt: &[f32], c: &mut [f32], k: usize, n: usize, epi: Epilogue) {
    for (i, c_row) in c.chunks_exact_mut(n).enumerate() {
        let a_row = &a[i * k..(i + 1) * k];
        for (j, cj) in c_row.iter_mut().enumerate() {
            let b_row = &bt[j * k..(j + 1) * k];
            let mut acc = 0.0f32;
            for (&av, &bv) in a_row.iter().zip(b_row.iter()) {
                acc += av * bv;
            }
            *cj = epi.apply(acc, i, j);
        }
    }
}

/// Matrix multiply with a fused epilogue: `c[m x n] = epi(a[m x k] *
/// b[k x n])`. `c` is overwritten, not accumulated into.
///
/// The operands choose the path: a prepacked operand always takes the
/// packed path (batch-invariant numerics, see the module docs), and two
/// slices take the unpacked path below the packing break-even.
///
/// # Panics
/// If an operand, `c` or the bias does not match `m`, `k` and `n`.
pub fn gemm(a: GemmA, b: GemmB, c: &mut [f32], m: usize, k: usize, n: usize, epi: Epilogue) {
    match a {
        GemmA::Slice(a) => assert_eq!(a.len(), m * k, "A size mismatch"),
        GemmA::Packed(a) => assert_eq!((a.m, a.k), (m, k), "PackedA extent mismatch"),
    }
    match b {
        GemmB::Slice(b) => assert_eq!(b.len(), k * n, "B size mismatch"),
        GemmB::Transposed(bt) => assert_eq!(bt.len(), n * k, "B^T size mismatch"),
        GemmB::Packed(layout, buf) => {
            assert_eq!(
                (layout.k, layout.n),
                (k, n),
                "PackedBLayout extent mismatch"
            );
            assert!(buf.len() >= layout.len(), "packed B buffer too small");
        }
    }
    assert_eq!(c.len(), m * n, "C size mismatch");
    match epi {
        Epilogue::None => {}
        Epilogue::ColBias(bias) => assert_eq!(bias.len(), n, "bias length mismatch"),
        Epilogue::RowBias(bias) | Epilogue::RowBiasRelu(bias) => {
            assert_eq!(bias.len(), m, "row bias length mismatch")
        }
    }
    record_gemm(m, k, n);
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        // Empty inner dimension: C is the epilogue of zero.
        for (i, row) in c.chunks_exact_mut(n).enumerate() {
            for (j, cj) in row.iter_mut().enumerate() {
                *cj = epi.apply(0.0, i, j);
            }
        }
        return;
    }
    let small = m * k * n < SMALL_FLOPS;
    match (a, b) {
        (GemmA::Slice(a), GemmB::Slice(b)) if small => gemm_small(a, b, c, k, n, epi),
        (GemmA::Slice(a), GemmB::Transposed(bt)) if small => gemm_small_nt(a, bt, c, k, n, epi),
        _ => gemm_packed(a, b, c, m, k, n, epi),
    }
}

/// An A operand packed once into the kernel's `MR`-row panels, reusable
/// across any number of GEMM calls ([`GemmA::Packed`]).
///
/// Packing A normally runs inside every row-block task — for a weight
/// matrix that never changes (the inference plan's folded conv weights)
/// that work is identical on every call *and* repeated once per column
/// block of B. Packing ahead of time removes it from the serving hot path
/// entirely.
pub struct PackedA {
    m: usize,
    k: usize,
    /// `m` rounded up to whole `mr`-row panels.
    group: usize,
    /// k-block-major: the block starting at k index `pc` holds all
    /// `group / mr` row panels, `kc` steps each, from offset `group * pc`.
    buf: Vec<f32>,
}

impl PackedA {
    /// Packs a row-major `[m x k]` matrix into kernel panels.
    pub fn pack(a: &[f32], m: usize, k: usize) -> PackedA {
        assert_eq!(a.len(), m * k, "A size mismatch");
        assert!(m > 0 && k > 0, "PackedA requires non-degenerate extents");
        let mr = kernel().mr;
        let group = m.div_ceil(mr) * mr;
        let mut buf = vec![0.0f32; group * k];
        for pc in (0..k).step_by(KC) {
            let kc = KC.min(k - pc);
            pack_a(a, &mut buf[group * pc..][..group * kc], k, 0, m, pc, kc, mr);
        }
        PackedA { m, k, group, buf }
    }
}

/// Addressing scheme of a packed B operand ([`GemmB::Packed`]), letting
/// producers write B in packed panel layout directly instead of
/// materializing a row-major matrix that the GEMM would immediately
/// re-copy.
///
/// The fused-im2col convolution is the customer: each unfolded image row
/// lands straight in its panels, which turns three passes over the column
/// matrix (im2col write, packing read + write) into one. A constant
/// operand (the inference plan's FC weight) is packed once with
/// [`PackedBLayout::pack`].
///
/// The buffer holds one block per `(jc, pc)` pair, column blocks outer:
/// `ceil(nc/nr)` column panels of `kc` steps each.
pub struct PackedBLayout {
    k: usize,
    n: usize,
    nr: usize,
    /// `n` rounded up to whole `nr`-column panels.
    n_padded: usize,
}

impl PackedBLayout {
    /// Layout for a `[k x n]` B operand under the process kernel.
    pub fn new(k: usize, n: usize) -> PackedBLayout {
        assert!(
            k > 0 && n > 0,
            "PackedBLayout requires non-degenerate extents"
        );
        let nr = kernel().nr;
        PackedBLayout {
            k,
            n,
            nr,
            n_padded: n.div_ceil(nr) * nr,
        }
    }

    /// Floats a packed buffer must hold (callers allocate, typically from
    /// the scratch arena).
    pub fn len(&self) -> usize {
        self.n_padded * self.k
    }

    /// True only for layouts that hold no floats (never: extents are
    /// non-degenerate by construction).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Inner dimension (`k`).
    pub fn k(&self) -> usize {
        self.k
    }

    /// Output columns (`n`).
    pub fn n(&self) -> usize {
        self.n
    }

    /// Offset of the block for column block `jc` and k block `pc`. Every
    /// column block before `jc` is a full `NC` (a multiple of `nr`) wide,
    /// so only the last block's panels are narrower than `NC`.
    fn block_offset(&self, jc: usize, pc: usize) -> usize {
        jc * self.k + NC.min(self.n_padded - jc) * pc
    }

    /// Scatters the contiguous B-row segment `b[r][col0 .. col0+src.len()]`
    /// into its packed panels. Segments may cross panel and column-block
    /// boundaries; each chunk is one `copy_from_slice`.
    #[inline]
    pub fn write_row(&self, buf: &mut [f32], r: usize, col0: usize, src: &[f32]) {
        let shard = parallel::SharedSlice::new(buf);
        // SAFETY: exclusive borrow of `buf` — no concurrent shards exist.
        unsafe { self.write_row_shared(&shard, r, col0, src) }
    }

    /// [`PackedBLayout::write_row`] through a [`parallel::SharedSlice`],
    /// for producers scattering disjoint column ranges of the panel
    /// buffer from concurrent pool tasks (the panel layout interleaves
    /// columns, so the per-task writes cannot be expressed as contiguous
    /// `&mut` chunks).
    ///
    /// # Safety
    /// Concurrent callers must target disjoint `(r, col0..col0 + src
    /// .len())` element sets of the logical `[k x n]` matrix; the panel
    /// mapping is injective, so logical disjointness implies disjoint
    /// writes into `buf`.
    pub unsafe fn write_row_shared(
        &self,
        buf: &parallel::SharedSlice<'_, f32>,
        r: usize,
        col0: usize,
        src: &[f32],
    ) {
        debug_assert!(r < self.k, "row out of range");
        debug_assert!(col0 + src.len() <= self.n, "segment exceeds columns");
        let pc = r / KC * KC;
        let kk = r - pc;
        let kc = KC.min(self.k - pc);
        let mut j = col0;
        let mut si = 0usize;
        while si < src.len() {
            let jc = j / NC * NC;
            let pj = (j - jc) / self.nr;
            let lane = (j - jc) % self.nr;
            let take = (self.nr - lane).min(src.len() - si).min(jc + NC - j);
            let dst = self.block_offset(jc, pc) + (pj * kc + kk) * self.nr + lane;
            buf.slice_mut(dst, take)
                .copy_from_slice(&src[si..si + take]);
            j += take;
            si += take;
        }
    }

    /// Zeroes the padding lanes past column `n` in the final partial panel
    /// (the layout rounds each column block up to a multiple of `nr`), so
    /// callers may hand in uninitialized scratch and write only real
    /// columns. Keeps stale garbage — subnormals, NaNs — out of the
    /// microkernel's discarded lanes.
    pub fn zero_pad_lanes(&self, buf: &mut [f32]) {
        let last_jc = (self.n - 1) / NC * NC;
        let nc = self.n - last_jc;
        let lane0 = nc % self.nr;
        if lane0 == 0 {
            return;
        }
        let pj = nc / self.nr;
        for pc in (0..self.k).step_by(KC) {
            let kc = KC.min(self.k - pc);
            let block = self.block_offset(last_jc, pc);
            for kk in 0..kc {
                let dst = block + (pj * kc + kk) * self.nr + lane0;
                buf[dst..dst + self.nr - lane0].fill(0.0);
            }
        }
    }

    /// Packs a full row-major `[k x n]` matrix — the offline counterpart
    /// of [`PackedBLayout::write_row`] for callers that already hold B.
    pub fn pack(&self, b: &[f32], buf: &mut [f32]) {
        assert_eq!(b.len(), self.k * self.n, "B size mismatch");
        assert!(buf.len() >= self.len(), "packed buffer too small");
        for r in 0..self.k {
            self.write_row(buf, r, 0, &b[r * self.n..(r + 1) * self.n]);
        }
        self.zero_pad_lanes(buf);
    }
}

impl Tensor {
    /// Matrix product of two 2-d tensors.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.shape().ndim(), 2, "matmul lhs must be 2-d");
        assert_eq!(other.shape().ndim(), 2, "matmul rhs must be 2-d");
        let (m, k) = (self.dims()[0], self.dims()[1]);
        let (k2, n) = (other.dims()[0], other.dims()[1]);
        assert_eq!(k, k2, "inner dimension mismatch: {k} vs {k2}");
        let mut out = Tensor::zeros(&[m, n]);
        gemm(
            GemmA::Slice(self.as_slice()),
            GemmB::Slice(other.as_slice()),
            out.as_mut_slice(),
            m,
            k,
            n,
            Epilogue::None,
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    fn naive(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
        let mut c = vec![0.0; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0;
                for kk in 0..k {
                    acc += a[i * k + kk] * b[kk * n + j];
                }
                c[i * n + j] = acc;
            }
        }
        c
    }

    /// `[k x n]` B packed into a fresh buffer, poisoned first so any lane
    /// the packing misses shows up as NaN.
    fn pack_b_buf(b: &[f32], k: usize, n: usize) -> (PackedBLayout, Vec<f32>) {
        let layout = PackedBLayout::new(k, n);
        let mut buf = vec![f32::NAN; layout.len()];
        layout.pack(b, &mut buf);
        (layout, buf)
    }

    /// A prepacked operand must give bit-identical results for a column
    /// (or row) whether it is computed alone or inside a wider call. The
    /// shape is chosen inside the small/packed divergence zone (`k > KC`,
    /// per-sample `m*k*cc < SMALL_FLOPS`) where two slices would flip
    /// kernels — and therefore bits — as the batch grows.
    #[test]
    fn prepacked_operands_are_batch_size_invariant() {
        let (m, k, cc, samples) = (8usize, 300usize, 4usize, 6usize);
        assert!(k > KC && m * k * cc < SMALL_FLOPS);
        let wide = samples * cc;
        let a: Vec<f32> = (0..m * k)
            .map(|i| ((i * 37 % 101) as f32 - 50.0) * 0.03)
            .collect();
        let b: Vec<f32> = (0..k * wide)
            .map(|i| ((i * 53 % 97) as f32 - 48.0) * 0.02)
            .collect();
        let row_bias: Vec<f32> = (0..m).map(|i| i as f32 * 0.1 - 0.4).collect();
        let packed_a = PackedA::pack(&a, m, k);
        let epi = Epilogue::RowBiasRelu(&row_bias);
        let mut c_wide = vec![0.0f32; m * wide];
        gemm(
            GemmA::Packed(&packed_a),
            GemmB::Slice(&b),
            &mut c_wide,
            m,
            k,
            wide,
            epi,
        );
        for s in 0..samples {
            // Extract sample s's [k, cc] column block and run it alone.
            let mut bs = vec![0.0f32; k * cc];
            for r in 0..k {
                bs[r * cc..(r + 1) * cc]
                    .copy_from_slice(&b[r * wide + s * cc..r * wide + (s + 1) * cc]);
            }
            let mut cs = vec![0.0f32; m * cc];
            gemm(
                GemmA::Packed(&packed_a),
                GemmB::Slice(&bs),
                &mut cs,
                m,
                k,
                cc,
                epi,
            );
            for i in 0..m {
                for j in 0..cc {
                    assert_eq!(
                        c_wide[i * wide + s * cc + j].to_bits(),
                        cs[i * cc + j].to_bits(),
                        "row-bias call diverged at sample {s}, ({i},{j})"
                    );
                }
            }
        }

        // Same contract for the column-bias epilogue over a prepacked B,
        // batching samples as rows (the FC layout: one pooled feature
        // vector per row).
        let (rows, kf, nf) = (6usize, 300usize, 4usize);
        let af: Vec<f32> = (0..rows * kf)
            .map(|i| ((i * 41 % 89) as f32 - 44.0) * 0.025)
            .collect();
        let bf: Vec<f32> = (0..kf * nf)
            .map(|i| ((i * 29 % 83) as f32 - 41.0) * 0.03)
            .collect();
        let col_bias: Vec<f32> = (0..nf).map(|j| j as f32 * 0.2 - 0.3).collect();
        let (layout, bf_pack) = pack_b_buf(&bf, kf, nf);
        let b_packed = GemmB::Packed(&layout, &bf_pack);
        let epi = Epilogue::ColBias(&col_bias);
        let mut c_all = vec![0.0f32; rows * nf];
        gemm(GemmA::Slice(&af), b_packed, &mut c_all, rows, kf, nf, epi);
        for s in 0..rows {
            let mut c_one = vec![0.0f32; nf];
            let a_one = GemmA::Slice(&af[s * kf..(s + 1) * kf]);
            gemm(a_one, b_packed, &mut c_one, 1, kf, nf, epi);
            for j in 0..nf {
                assert_eq!(
                    c_all[s * nf + j].to_bits(),
                    c_one[j].to_bits(),
                    "column-bias call diverged at row {s}, col {j}"
                );
            }
        }
    }

    /// Prepacked operands must reproduce the all-slice packed path bit for
    /// bit: same panels, same blocking, same accumulation order — only
    /// the packing moment moves. The shape spans multiple row blocks
    /// (`m` > both kernels' MC), two k blocks, and two column blocks with
    /// a ragged final panel, so every offset path is exercised.
    #[test]
    fn prepacked_operands_match_slices_bit_for_bit() {
        let (m, k, n) = (150usize, 300usize, NC + 23);
        let a: Vec<f32> = (0..m * k)
            .map(|i| ((i * 37 % 101) as f32 - 50.0) * 0.03)
            .collect();
        let b: Vec<f32> = (0..k * n)
            .map(|i| ((i * 53 % 97) as f32 - 48.0) * 0.02)
            .collect();
        let bias: Vec<f32> = (0..m).map(|i| i as f32 * 0.01 - 0.6).collect();
        let packed_a = PackedA::pack(&a, m, k);
        // The poisoned buffer proves zero_pad_lanes covers every lane the
        // kernel could read beyond column n.
        let (layout, b_pack) = pack_b_buf(&b, k, n);

        for epi in [Epilogue::RowBias(&bias), Epilogue::RowBiasRelu(&bias)] {
            let mut want = vec![0.0f32; m * n];
            gemm(GemmA::Slice(&a), GemmB::Slice(&b), &mut want, m, k, n, epi);
            for (a_op, b_op) in [
                (GemmA::Packed(&packed_a), GemmB::Packed(&layout, &b_pack)),
                (GemmA::Packed(&packed_a), GemmB::Slice(&b)),
                (GemmA::Slice(&a), GemmB::Packed(&layout, &b_pack)),
            ] {
                let mut got = vec![0.0f32; m * n];
                gemm(a_op, b_op, &mut got, m, k, n, epi);
                for (i, (x, y)) in got.iter().zip(want.iter()).enumerate() {
                    assert_eq!(x.to_bits(), y.to_bits(), "prepacked call diverged at {i}");
                }
            }
        }

        // write_row with arbitrary segment splits must land every element
        // where a full-row pack puts it.
        let mut split = vec![f32::NAN; layout.len()];
        for r in 0..k {
            let row = &b[r * n..(r + 1) * n];
            let cut = 1 + (r * 131) % (n - 1);
            layout.write_row(&mut split, r, 0, &row[..cut]);
            layout.write_row(&mut split, r, cut, &row[cut..]);
        }
        layout.zero_pad_lanes(&mut split);
        for (i, (x, y)) in split.iter().zip(b_pack.iter()).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "split write diverged at {i}");
        }
    }

    /// Prepacked operands still have to be *correct*, not just stable —
    /// on a shape two slices would send down the small path.
    #[test]
    fn prepacked_operands_match_naive_reference() {
        let (m, k, n) = (5usize, 300usize, 7usize);
        let a: Vec<f32> = (0..m * k)
            .map(|i| ((i * 31 % 71) as f32 - 35.0) * 0.02)
            .collect();
        let b: Vec<f32> = (0..k * n)
            .map(|i| ((i * 43 % 79) as f32 - 39.0) * 0.02)
            .collect();
        let reference = naive(&a, &b, m, k, n);
        let row_bias: Vec<f32> = (0..m).map(|i| i as f32 * 0.3 - 0.6).collect();
        let col_bias: Vec<f32> = (0..n).map(|j| j as f32 * 0.2 - 0.5).collect();
        let packed_a = PackedA::pack(&a, m, k);
        let (layout, b_pack) = pack_b_buf(&b, k, n);

        let mut c = vec![0.0f32; m * n];
        let (pa, pb) = (GemmA::Packed(&packed_a), GemmB::Packed(&layout, &b_pack));
        gemm(pa, pb, &mut c, m, k, n, Epilogue::RowBias(&row_bias));
        for i in 0..m {
            for j in 0..n {
                assert!(approx_eq(
                    c[i * n + j],
                    reference[i * n + j] + row_bias[i],
                    1e-4
                ));
            }
        }
        gemm(pa, pb, &mut c, m, k, n, Epilogue::RowBiasRelu(&row_bias));
        for i in 0..m {
            for j in 0..n {
                let want = (reference[i * n + j] + row_bias[i]).max(0.0);
                assert!(approx_eq(c[i * n + j], want, 1e-4));
            }
        }
        gemm(
            GemmA::Slice(&a),
            pb,
            &mut c,
            m,
            k,
            n,
            Epilogue::ColBias(&col_bias),
        );
        for i in 0..m {
            for j in 0..n {
                assert!(approx_eq(
                    c[i * n + j],
                    reference[i * n + j] + col_bias[j],
                    1e-4
                ));
            }
        }
    }

    /// Plain row-major `gemm` on slices, the call most tests make.
    fn gemm_nn(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
        gemm(GemmA::Slice(a), GemmB::Slice(b), c, m, k, n, Epilogue::None);
    }

    #[test]
    fn small_exact() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let b = Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], &[2, 2]);
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn identity_is_noop() {
        let a = Tensor::from_vec((0..12).map(|v| v as f32).collect(), &[3, 4]);
        let i = Tensor::eye(4);
        assert_eq!(a.matmul(&i), a);
    }

    #[test]
    fn rectangular_matches_naive() {
        let (m, k, n) = (7, 13, 5);
        let a: Vec<f32> = (0..m * k).map(|v| ((v * 37 % 11) as f32) - 5.0).collect();
        let b: Vec<f32> = (0..k * n).map(|v| ((v * 17 % 7) as f32) - 3.0).collect();
        let mut c = vec![0.0; m * n];
        gemm_nn(&a, &b, &mut c, m, k, n);
        let want = naive(&a, &b, m, k, n);
        for (x, y) in c.iter().zip(want.iter()) {
            assert!(approx_eq(*x, *y, 1e-5), "{x} vs {y}");
        }
    }

    #[test]
    fn large_spans_k_tiles_and_packed_path() {
        let (m, k, n) = (64, KC + 33, 70);
        let a: Vec<f32> = (0..m * k).map(|v| ((v % 13) as f32) * 0.25 - 1.0).collect();
        let b: Vec<f32> = (0..k * n).map(|v| ((v % 7) as f32) * 0.5 - 1.5).collect();
        let mut c = vec![0.0; m * n];
        gemm_nn(&a, &b, &mut c, m, k, n);
        let want = naive(&a, &b, m, k, n);
        for (x, y) in c.iter().zip(want.iter()) {
            assert!(approx_eq(*x, *y, 1e-4), "{x} vs {y}");
        }
    }

    #[test]
    fn packed_path_matches_naive() {
        let (m, k, n) = (130, 20, 140);
        let a: Vec<f32> = (0..m * k).map(|v| ((v % 23) as f32) * 0.1).collect();
        let b: Vec<f32> = (0..k * n).map(|v| ((v % 19) as f32) * 0.2 - 1.0).collect();
        let mut c = vec![0.0; m * n];
        gemm_nn(&a, &b, &mut c, m, k, n);
        let want = naive(&a, &b, m, k, n);
        for (x, y) in c.iter().zip(want.iter()) {
            assert!(approx_eq(*x, *y, 1e-4));
        }
    }

    #[test]
    fn transposed_b_matches_explicit_transpose() {
        let (m, k, n) = (7, 13, 5);
        let a: Vec<f32> = (0..m * k).map(|v| ((v * 37 % 11) as f32) - 5.0).collect();
        let b: Vec<f32> = (0..k * n).map(|v| ((v * 17 % 7) as f32) - 3.0).collect();
        // b_t[n x k] = b[k x n] transposed.
        let mut b_t = vec![0.0; n * k];
        for r in 0..k {
            for c in 0..n {
                b_t[c * k + r] = b[r * n + c];
            }
        }
        let mut via_nt = vec![0.0; m * n];
        let b_op = GemmB::Transposed(&b_t);
        gemm(GemmA::Slice(&a), b_op, &mut via_nt, m, k, n, Epilogue::None);
        let want = naive(&a, &b, m, k, n);
        for (x, y) in via_nt.iter().zip(want.iter()) {
            assert!(approx_eq(*x, *y, 1e-5), "{x} vs {y}");
        }
    }

    #[test]
    fn transposed_b_packed_path_matches_naive() {
        let (m, k, n) = (130, 20, 140);
        let a: Vec<f32> = (0..m * k).map(|v| ((v % 23) as f32) * 0.1).collect();
        let b_t: Vec<f32> = (0..n * k).map(|v| ((v % 19) as f32) * 0.2 - 1.0).collect();
        let mut b = vec![0.0; k * n];
        for j in 0..n {
            for r in 0..k {
                b[r * n + j] = b_t[j * k + r];
            }
        }
        let mut c = vec![0.0; m * n];
        let b_op = GemmB::Transposed(&b_t);
        gemm(GemmA::Slice(&a), b_op, &mut c, m, k, n, Epilogue::None);
        let want = naive(&a, &b, m, k, n);
        for (x, y) in c.iter().zip(want.iter()) {
            assert!(approx_eq(*x, *y, 1e-4));
        }
    }

    /// The 2x2 epilogue cases: `a` is the identity, so C is B plus bias.
    fn epilogue_2x2(b: [f32; 4], epi: Epilogue) -> [f32; 4] {
        let a = [1.0, 0.0, 0.0, 1.0];
        let mut c = [0.0; 4];
        gemm(GemmA::Slice(&a), GemmB::Slice(&b), &mut c, 2, 2, 2, epi);
        c
    }

    #[test]
    fn col_bias_adds_per_column() {
        let c = epilogue_2x2([1.0, 2.0, 3.0, 4.0], Epilogue::ColBias(&[10.0, 20.0]));
        assert_eq!(c, [11.0, 22.0, 13.0, 24.0]);
    }

    #[test]
    fn row_bias_adds_per_row() {
        let c = epilogue_2x2([1.0, 2.0, 3.0, 4.0], Epilogue::RowBias(&[10.0, 20.0]));
        assert_eq!(c, [11.0, 12.0, 23.0, 24.0]);
    }

    #[test]
    fn row_bias_relu_clamps_negatives() {
        let c = epilogue_2x2([1.0, -2.0, 3.0, -4.0], Epilogue::RowBiasRelu(&[0.5, 1.0]));
        assert_eq!(c, [1.5, 0.0, 4.0, 0.0]);
    }

    #[test]
    fn row_bias_epilogue_matches_unfused_on_packed_shapes() {
        // Spans multiple row blocks (m > MC on both kernels), two k
        // blocks, and the packed path — exercises the global-row index
        // reconstruction inside store_tile.
        let (m, k, n) = (150, 300, 40);
        let a: Vec<f32> = (0..m * k).map(|v| ((v % 13) as f32) * 0.1 - 0.5).collect();
        let b: Vec<f32> = (0..k * n).map(|v| ((v % 17) as f32) * 0.1 - 0.8).collect();
        let bias: Vec<f32> = (0..m).map(|v| v as f32 * 0.01 - 0.4).collect();
        let (a_op, b_op) = (GemmA::Slice(&a), GemmB::Slice(&b));
        let mut fused = vec![0.0; m * n];
        gemm(a_op, b_op, &mut fused, m, k, n, Epilogue::RowBias(&bias));
        let mut unfused = vec![0.0; m * n];
        gemm_nn(&a, &b, &mut unfused, m, k, n);
        for (i, (row, want)) in unfused
            .chunks_exact_mut(n)
            .zip(fused.chunks_exact(n))
            .enumerate()
        {
            for (v, &w) in row.iter_mut().zip(want.iter()) {
                *v += bias[i];
                assert_eq!(*v, w, "fused row bias must be bit-identical to unfused");
            }
        }
        // And the ReLU variant is exactly max(0, unfused + bias).
        let mut relu = vec![0.0; m * n];
        gemm(a_op, b_op, &mut relu, m, k, n, Epilogue::RowBiasRelu(&bias));
        for (v, &w) in unfused.iter().zip(relu.iter()) {
            assert_eq!(v.max(0.0), w);
        }
    }

    #[test]
    fn row_bias_zero_inner_dimension_is_epilogue_of_zero() {
        let mut c = [9.0; 4];
        let (a, b) = (GemmA::Slice(&[]), GemmB::Slice(&[]));
        gemm(a, b, &mut c, 2, 0, 2, Epilogue::RowBias(&[1.0, -2.0]));
        assert_eq!(c, [1.0, 1.0, -2.0, -2.0]);
    }

    #[test]
    fn bias_epilogue_matches_unfused_on_packed_shapes() {
        let (m, k, n) = (40, 300, 60); // spans two k blocks, packed path
        let a: Vec<f32> = (0..m * k).map(|v| ((v % 13) as f32) * 0.1 - 0.5).collect();
        let b: Vec<f32> = (0..k * n).map(|v| ((v % 17) as f32) * 0.1 - 0.8).collect();
        let bias: Vec<f32> = (0..n).map(|v| v as f32 * 0.01).collect();
        let mut fused = vec![0.0; m * n];
        let (a_op, b_op) = (GemmA::Slice(&a), GemmB::Slice(&b));
        gemm(a_op, b_op, &mut fused, m, k, n, Epilogue::ColBias(&bias));
        let mut unfused = vec![0.0; m * n];
        gemm_nn(&a, &b, &mut unfused, m, k, n);
        for (row, want) in unfused.chunks_exact_mut(n).zip(fused.chunks_exact(n)) {
            for ((v, &bv), &w) in row.iter_mut().zip(bias.iter()).zip(want.iter()) {
                *v += bv;
                assert_eq!(*v, w, "fused bias must be bit-identical to unfused");
            }
        }
    }

    #[test]
    fn nan_in_b_propagates_through_zero_a_entry() {
        // Regression: the old kernel skipped `a[i][kk] == 0.0` entries,
        // silently masking NaN/Inf in B (IEEE: 0 * NaN = NaN). Divergence
        // detection depends on NaN reaching C.
        let (m, k, n) = (2, 3, 2);
        let a = [0.0, 1.0, 2.0, 0.0, 0.0, 0.0];
        let mut b = vec![1.0f32; k * n];
        b[0] = f32::NAN; // row 0 of B, hit only through a zero A entry in row 1
        let mut c = vec![0.0; m * n];
        gemm_nn(&a, &b, &mut c, m, k, n);
        assert!(
            c[0].is_nan() && c[2].is_nan(),
            "0 * NaN must reach C, got {c:?}"
        );
        assert_eq!(c[3], 0.0, "NaN is confined to the column that holds it");
        // And on the packed path.
        let (m, k, n) = (32, 64, 48);
        let a = vec![0.0f32; m * k];
        let mut b = vec![1.0f32; k * n];
        b[5] = f32::NAN;
        let mut c = vec![0.0; m * n];
        gemm_nn(&a, &b, &mut c, m, k, n);
        assert!(
            c.iter().any(|v| v.is_nan()),
            "packed path must propagate NaN through zero A"
        );
    }

    #[test]
    fn zero_inner_dimension_yields_epilogue_of_zero() {
        let (a, b) = (GemmA::Slice(&[]), GemmB::Slice(&[]));
        let mut c = [9.0; 4];
        gemm(a, b, &mut c, 2, 0, 2, Epilogue::ColBias(&[1.0, -2.0]));
        assert_eq!(c, [1.0, -2.0, 1.0, -2.0]);
        let mut c = [9.0; 4];
        gemm(a, b, &mut c, 2, 0, 2, Epilogue::None);
        assert_eq!(c, [0.0; 4]);
    }

    #[test]
    #[should_panic(expected = "inner dimension mismatch")]
    fn mismatched_inner_dims_panic() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[4, 2]);
        let _ = a.matmul(&b);
    }
}
