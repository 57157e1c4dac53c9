//! Cache-tiled, register-blocked GEMM driver behind [`Matrix::matmul`],
//! [`Matrix::matmul_tn`] and [`Matrix::matmul_nt`].
//!
//! The driver follows the classic BLIS/GotoBLAS decomposition: the output
//! is computed in `MC x NC` tiles, each fed from a packed `KC`-deep panel
//! of `B` (contiguous `NR`-column strips) and a packed block of `A`
//! (contiguous `MR`-row strips), with an `MR x NR` register-blocked
//! micro-kernel at the core. The micro-kernel's inner loop is a pure
//! multiply-add over fixed-size arrays — branch-free and FMA-friendly, so
//! the compiler can keep the `MR x NR` accumulator in vector registers.
//!
//! Both transposed variants (`A^T B`, `A B^T`) reuse the same driver: the
//! transpose is absorbed by the packing routines, which read the source
//! with a stride instead of materialising the transposed matrix. All three
//! entry points therefore accumulate in the same `k`-order, which keeps
//! `matmul_tn(a, b)` bit-identical to `a.transpose().matmul(b)`.
//!
//! The naive loop-nest kernels these replaced live on in
//! [`crate::reference`] for differential testing and benchmarking.

/// Micro-kernel rows: C tile height held in registers.
pub const MR: usize = 8;
/// Micro-kernel columns: C tile width held in registers.
pub const NR: usize = 16;
/// K-blocking: depth of the packed panels (sized for L1-resident strips).
pub(crate) const KC: usize = 256;
/// M-blocking: rows of A packed per inner block (L2-resident).
pub(crate) const MC: usize = 128;
/// N-blocking: columns of B packed per outer panel (L3-resident).
pub(crate) const NC: usize = 512;

/// How a logically `rows x cols` operand is laid out in its backing slice.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// `src[r * cols + c]` — the operand is stored as given.
    RowMajor,
    /// `src[c * rows + r]` — the operand is the transpose of its storage,
    /// i.e. the storage holds a `cols x rows` row-major matrix.
    Transposed,
}

#[inline(always)]
fn load(src: &[f32], layout: Layout, rows: usize, cols: usize, r: usize, c: usize) -> f32 {
    debug_assert!(r < rows && c < cols);
    match layout {
        Layout::RowMajor => src[r * cols + c],
        Layout::Transposed => src[c * rows + r],
    }
}

/// Packs the `mc x kc` block of `A` at `(ic, pc)` into `MR`-row strips:
/// strip `ir/MR` holds `kc` groups of `MR` consecutive logical rows,
/// zero-padded past `mc` so the micro-kernel never reads out of bounds.
pub(crate) fn pack_a(
    a: &[f32],
    layout: Layout,
    (m, k): (usize, usize),
    (ic, pc): (usize, usize),
    (mc, kc): (usize, usize),
    dst: &mut Vec<f32>,
) {
    dst.clear();
    dst.reserve(mc.div_ceil(MR) * MR * kc);
    for ir in (0..mc).step_by(MR) {
        let live = MR.min(mc - ir);
        for kk in 0..kc {
            for ii in 0..live {
                dst.push(load(a, layout, m, k, ic + ir + ii, pc + kk));
            }
            for _ in live..MR {
                dst.push(0.0);
            }
        }
    }
}

/// Packs the `kc x nc` panel of `B` at `(pc, jc)` into `NR`-column strips:
/// strip `jr/NR` holds `kc` groups of `NR` consecutive logical columns,
/// zero-padded past `nc`.
fn pack_b(
    b: &[f32],
    layout: Layout,
    (k, n): (usize, usize),
    (pc, jc): (usize, usize),
    (kc, nc): (usize, usize),
    dst: &mut Vec<f32>,
) {
    dst.clear();
    pack_b_append(b, layout, (k, n), (pc, jc), (kc, nc), dst);
}

/// [`pack_b`] without the clear: appends the packed panel to `dst`, so a
/// whole operand can be packed panel-by-panel into one buffer (see
/// [`pack_b_full`]).
fn pack_b_append(
    b: &[f32],
    layout: Layout,
    (k, n): (usize, usize),
    (pc, jc): (usize, usize),
    (kc, nc): (usize, usize),
    dst: &mut Vec<f32>,
) {
    dst.reserve(nc.div_ceil(NR) * NR * kc);
    for jr in (0..nc).step_by(NR) {
        let live = NR.min(nc - jr);
        for kk in 0..kc {
            if layout == Layout::RowMajor && live == NR {
                let row = (pc + kk) * n + jc + jr;
                dst.extend_from_slice(&b[row..row + NR]);
            } else {
                for jj in 0..live {
                    dst.push(load(b, layout, k, n, pc + kk, jc + jr + jj));
                }
                for _ in live..NR {
                    dst.push(0.0);
                }
            }
        }
    }
}

/// `MR x NR` register-blocked core: `acc += Astrip @ Bstrip` over `kc`.
/// Fixed-size arrays and a branch-free body let the compiler unroll and
/// vectorise (and fuse into FMAs where the target allows).
/// AVX-512 micro-kernel: one `zmm` accumulator per tile row (`NR` = 16 =
/// one 512-bit vector), `vfmaddps` per row per `k` step. The eight
/// independent accumulator chains cover the FMA latency.
///
/// Compiled in only when the build targets a CPU with AVX-512F (e.g. via
/// `-C target-cpu=native`, see `.cargo/config.toml`); other targets use
/// the portable kernel below. The FMA rounds once per multiply-add where
/// the portable kernel rounds twice, so results may differ from the
/// reference kernels by a few ULPs — the differential proptests allow for
/// this.
#[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
#[inline]
fn micro_kernel(kc: usize, a_strip: &[f32], b_strip: &[f32], acc: &mut [[f32; NR]; MR]) {
    use std::arch::x86_64::*;
    const { assert!(NR == 16, "one zmm register holds exactly NR lanes") };
    assert!(a_strip.len() >= kc * MR, "packed A strip too short");
    assert!(b_strip.len() >= kc * NR, "packed B strip too short");
    // SAFETY: AVX-512F is statically enabled by the cfg above, and the
    // asserts guarantee every pointer below stays inside the strips.
    unsafe {
        let mut rows = [_mm512_setzero_ps(); MR];
        for (row, dst) in rows.iter_mut().zip(acc.iter()) {
            *row = _mm512_loadu_ps(dst.as_ptr());
        }
        let mut pa = a_strip.as_ptr();
        let mut pb = b_strip.as_ptr();
        for _ in 0..kc {
            let b = _mm512_loadu_ps(pb);
            for (i, row) in rows.iter_mut().enumerate() {
                let a = _mm512_set1_ps(*pa.add(i));
                *row = _mm512_fmadd_ps(a, b, *row);
            }
            pa = pa.add(MR);
            pb = pb.add(NR);
        }
        for (dst, row) in acc.iter_mut().zip(rows.iter()) {
            _mm512_storeu_ps(dst.as_mut_ptr(), *row);
        }
    }
}

/// Portable micro-kernel for targets without AVX-512F.
#[cfg(not(all(target_arch = "x86_64", target_feature = "avx512f")))]
#[inline(always)]
fn micro_kernel(kc: usize, a_strip: &[f32], b_strip: &[f32], acc: &mut [[f32; NR]; MR]) {
    debug_assert!(a_strip.len() >= kc * MR);
    debug_assert!(b_strip.len() >= kc * NR);
    // `chunks_exact` gives the optimiser compile-time strip widths with no
    // bounds checks or panic edges inside the loop, which is what lets it
    // keep the whole accumulator tile in vector registers.
    let a_chunks = a_strip.chunks_exact(MR).take(kc);
    let b_chunks = b_strip.chunks_exact(NR).take(kc);
    for (a_vals, b_vals) in a_chunks.zip(b_chunks) {
        for (row, &a_val) in acc.iter_mut().zip(a_vals) {
            for (cell, &b_val) in row.iter_mut().zip(b_vals) {
                *cell += a_val * b_val;
            }
        }
    }
}

/// One `rows x NR` output tile computed from row-major `A` in place (row
/// stride `lda`) against a packed `B` strip, for any `rows <= MR`, and
/// written straight into `C` (row stride `ldc`, `cols <= NR` live
/// columns): overwritten, or added to when `accumulate` (a later
/// `k`-panel). Reading `A` in place skips the `pack_a` copy — the
/// broadcast loads are scalar either way.
///
/// The row count is picked once per tile and selects a [`direct_rows`]
/// instance with `rows` as a const generic, so a partial tile (the
/// ragged last tile of a small batch) keeps its accumulators in registers
/// exactly like a full one instead of round-tripping a stack array per
/// `k` step. Every instance runs each element's multiply-add chain from
/// zero in the same `k` order, so a row's bits do not depend on how many
/// rows share its tile.
#[allow(clippy::too_many_arguments)]
#[inline]
pub(crate) fn direct_tile(
    kc: usize,
    a: &[f32],
    lda: usize,
    rows: usize,
    b_strip: &[f32],
    c: &mut [f32],
    ldc: usize,
    cols: usize,
    accumulate: bool,
) {
    assert!((1..=MR).contains(&rows) && (1..=NR).contains(&cols));
    assert!(
        kc > 0 && b_strip.len() >= kc * NR,
        "packed B strip too short"
    );
    assert!(a.len() >= (rows - 1) * lda + kc, "A tile out of bounds");
    assert!(c.len() >= (rows - 1) * ldc + cols, "C tile out of bounds");
    if rows == MR {
        direct_rows::<MR>(kc, a, lda, b_strip, c, ldc, cols, accumulate);
    } else {
        direct_tile_partial(rows, kc, a, lda, b_strip, c, ldc, cols, accumulate);
    }
}

/// The `rows < MR` instances of [`direct_tile`], kept out of line so the
/// full-tile body stays small enough to inline into its drivers.
#[allow(clippy::too_many_arguments)]
#[inline(never)]
fn direct_tile_partial(
    rows: usize,
    kc: usize,
    a: &[f32],
    lda: usize,
    b_strip: &[f32],
    c: &mut [f32],
    ldc: usize,
    cols: usize,
    accumulate: bool,
) {
    match rows {
        7 => direct_rows::<7>(kc, a, lda, b_strip, c, ldc, cols, accumulate),
        6 => direct_rows::<6>(kc, a, lda, b_strip, c, ldc, cols, accumulate),
        5 => direct_rows::<5>(kc, a, lda, b_strip, c, ldc, cols, accumulate),
        4 => direct_rows::<4>(kc, a, lda, b_strip, c, ldc, cols, accumulate),
        3 => direct_rows::<3>(kc, a, lda, b_strip, c, ldc, cols, accumulate),
        2 => direct_rows::<2>(kc, a, lda, b_strip, c, ldc, cols, accumulate),
        _ => direct_rows::<1>(kc, a, lda, b_strip, c, ldc, cols, accumulate),
    }
}

/// AVX-512 body of [`direct_tile`]: `R` `zmm` accumulators (`NR` = 16 =
/// one 512-bit vector), one `vfmaddps` per row per `k` step, then one
/// (masked, when `cols < NR`) store per row. Compiled in only when the
/// build targets a CPU with AVX-512F (e.g. via `-C target-cpu=native`,
/// see `.cargo/config.toml`). The FMA rounds once per multiply-add where
/// the portable body rounds twice, so results may differ from the
/// reference kernels by a few ULPs.
#[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn direct_rows<const R: usize>(
    kc: usize,
    a: &[f32],
    lda: usize,
    b_strip: &[f32],
    c: &mut [f32],
    ldc: usize,
    cols: usize,
    accumulate: bool,
) {
    use std::arch::x86_64::*;
    const { assert!(NR == 16, "one zmm register holds exactly NR lanes") };
    // SAFETY: AVX-512F is statically enabled by the cfg; `direct_tile`
    // asserted that `R` rows of `kc` A values, `kc` B vectors and `R`
    // rows of `cols` C values are in bounds, and the masked load/store
    // touch only the first `cols` lanes of each C row.
    unsafe {
        let mut acc = [_mm512_setzero_ps(); R];
        let pa = a.as_ptr();
        let mut pb = b_strip.as_ptr();
        for p in 0..kc {
            let b = _mm512_loadu_ps(pb);
            for (i, row) in acc.iter_mut().enumerate() {
                let av = _mm512_set1_ps(*pa.add(i * lda + p));
                *row = _mm512_fmadd_ps(av, b, *row);
            }
            pb = pb.add(NR);
        }
        let pc = c.as_mut_ptr();
        let mask: __mmask16 = if cols == NR { !0 } else { (1 << cols) - 1 };
        for (i, &row) in acc.iter().enumerate() {
            let dst = pc.add(i * ldc);
            let v = if accumulate {
                _mm512_add_ps(_mm512_maskz_loadu_ps(mask, dst), row)
            } else {
                row
            };
            if cols == NR {
                _mm512_storeu_ps(dst, v);
            } else {
                _mm512_mask_storeu_ps(dst, mask, v);
            }
        }
    }
}

/// Portable body of [`direct_tile`] for targets without AVX-512F: a stack
/// accumulator with a multiply-then-add per element (two roundings), the
/// same arithmetic as the portable [`micro_kernel`].
#[cfg(not(all(target_arch = "x86_64", target_feature = "avx512f")))]
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn direct_rows<const R: usize>(
    kc: usize,
    a: &[f32],
    lda: usize,
    b_strip: &[f32],
    c: &mut [f32],
    ldc: usize,
    cols: usize,
    accumulate: bool,
) {
    let mut acc = [[0.0f32; NR]; R];
    for (p, b_vals) in b_strip.chunks_exact(NR).take(kc).enumerate() {
        for (i, row) in acc.iter_mut().enumerate() {
            let a_val = a[i * lda + p];
            for (cell, &b_val) in row.iter_mut().zip(b_vals) {
                *cell += a_val * b_val;
            }
        }
    }
    for (i, row) in acc.iter().enumerate() {
        let dst = &mut c[i * ldc..i * ldc + cols];
        if accumulate {
            for (cell, &v) in dst.iter_mut().zip(row) {
                *cell += v;
            }
        } else {
            dst.copy_from_slice(&row[..cols]);
        }
    }
}

/// Packs every `(jc, pc)` panel of a `k x n` operand `B` into `dst` in
/// the exact order the driver consumes them (outer `jc`, inner `pc`), so
/// [`gemm_prepacked`] can run without touching `B` again. Amortises the
/// pack stage when the same `B` (e.g. an LSTM weight) feeds many GEMMs
/// within one step.
pub fn pack_b_full(b: &[f32], layout: Layout, (k, n): (usize, usize), dst: &mut Vec<f32>) {
    crate::telemetry::note_pack();
    dst.clear();
    for jc in (0..n).step_by(NC) {
        let nc = NC.min(n - jc);
        for pc in (0..k).step_by(KC) {
            let kc = KC.min(k - pc);
            pack_b_append(b, layout, (k, n), (pc, jc), (kc, nc), dst);
        }
    }
}

/// [`gemm`] with `B` already packed by [`pack_b_full`]. **Overwrites**
/// `C = A @ B`: the first `k`-panel's tile stores straight into `C`
/// (saving a zero-fill plus a read-modify-write pass over the output) and
/// later panels accumulate. The per-element operation chain is the zeroed
/// accumulator's FMA chain in the unpacked driver's `k`-order, so results
/// are bit-identical to [`gemm`] on zeroed output (up to the sign of
/// all-zero products: a stored `-0.0` where `0.0 + -0.0` would round to
/// `+0.0`, which compares equal and behaves identically downstream).
pub fn gemm_prepacked(
    (m, n, k): (usize, usize, usize),
    a: &[f32],
    a_layout: Layout,
    packed_b: &[f32],
    c: &mut [f32],
) {
    debug_assert_eq!(c.len(), m * n);
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        c.fill(0.0);
        return;
    }
    let _timer = crate::telemetry::KernelTimer::gemm((m, n, k));
    // Row-major `A` feeds the micro-kernel in place (broadcast loads are
    // scalar either way), eliminating the `pack_a` copy — the dominant
    // fixed cost for the skinny inference shapes. Transposed `A` keeps the
    // packed route, which absorbs the stride.
    let direct = a_layout == Layout::RowMajor;
    PACK_SCRATCH.with(|scratch| {
        let (a_pack, _) = &mut *scratch.borrow_mut();
        let mut b_offset = 0;
        for jc in (0..n).step_by(NC) {
            let nc = NC.min(n - jc);
            for pc in (0..k).step_by(KC) {
                let kc = KC.min(k - pc);
                let panel_len = nc.div_ceil(NR) * NR * kc;
                let b_panel = &packed_b[b_offset..b_offset + panel_len];
                b_offset += panel_len;
                for ic in (0..m).step_by(MC) {
                    let mc = MC.min(m - ic);
                    if !direct {
                        pack_a(a, a_layout, (m, k), (ic, pc), (mc, kc), a_pack);
                    }
                    for jr in (0..nc).step_by(NR) {
                        let b_strip = &b_panel[(jr / NR) * NR * kc..];
                        for ir in (0..mc).step_by(MR) {
                            let live_rows = MR.min(mc - ir);
                            let live_cols = NR.min(nc - jr);
                            if direct {
                                let a_tile = &a[(ic + ir) * k + pc..];
                                let c_tile = &mut c[(ic + ir) * n + jc + jr..];
                                direct_tile(
                                    kc,
                                    a_tile,
                                    k,
                                    live_rows,
                                    b_strip,
                                    c_tile,
                                    n,
                                    live_cols,
                                    pc > 0,
                                );
                                continue;
                            }
                            let mut acc = [[0.0f32; NR]; MR];
                            let a_strip = &a_pack[(ir / MR) * MR * kc..];
                            micro_kernel(kc, a_strip, b_strip, &mut acc);
                            for (ii, acc_row) in acc.iter().enumerate().take(live_rows) {
                                let row = (ic + ir + ii) * n + jc + jr;
                                let dst = &mut c[row..row + live_cols];
                                if pc == 0 {
                                    dst.copy_from_slice(&acc_row[..live_cols]);
                                } else {
                                    for (cell, &v) in dst.iter_mut().zip(acc_row) {
                                        *cell += v;
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
    });
}

thread_local! {
    /// Pack-buffer scratch reused across calls: packing is the only
    /// allocation the driver would otherwise perform, and the buffers are
    /// bounded by the block sizes, so keeping them thread-local makes every
    /// GEMM after the first allocation-free.
    static PACK_SCRATCH: std::cell::RefCell<(Vec<f32>, Vec<f32>)> =
        const { std::cell::RefCell::new((Vec::new(), Vec::new())) };
}

/// Computes `C += A @ B` where `A` is logically `m x k`, `B` is logically
/// `k x n` (each with its own storage [`Layout`]) and `C` is `m x n`
/// row-major. `C` is expected to start zeroed by the callers in `ops.rs`.
pub fn gemm(
    (m, n, k): (usize, usize, usize),
    a: &[f32],
    a_layout: Layout,
    b: &[f32],
    b_layout: Layout,
    c: &mut [f32],
) {
    debug_assert_eq!(c.len(), m * n);
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    let _timer = crate::telemetry::KernelTimer::gemm((m, n, k));
    PACK_SCRATCH.with(|scratch| {
        let (a_pack, b_pack) = &mut *scratch.borrow_mut();
        gemm_with_scratch((m, n, k), a, a_layout, b, b_layout, c, a_pack, b_pack);
    });
}

#[allow(clippy::too_many_arguments)]
fn gemm_with_scratch(
    (m, n, k): (usize, usize, usize),
    a: &[f32],
    a_layout: Layout,
    b: &[f32],
    b_layout: Layout,
    c: &mut [f32],
    a_pack: &mut Vec<f32>,
    b_pack: &mut Vec<f32>,
) {
    for jc in (0..n).step_by(NC) {
        let nc = NC.min(n - jc);
        for pc in (0..k).step_by(KC) {
            let kc = KC.min(k - pc);
            pack_b(b, b_layout, (k, n), (pc, jc), (kc, nc), b_pack);
            for ic in (0..m).step_by(MC) {
                let mc = MC.min(m - ic);
                pack_a(a, a_layout, (m, k), (ic, pc), (mc, kc), a_pack);
                for jr in (0..nc).step_by(NR) {
                    let b_strip = &b_pack[(jr / NR) * NR * kc..];
                    for ir in (0..mc).step_by(MR) {
                        let a_strip = &a_pack[(ir / MR) * MR * kc..];
                        let mut acc = [[0.0f32; NR]; MR];
                        micro_kernel(kc, a_strip, b_strip, &mut acc);
                        let live_rows = MR.min(mc - ir);
                        let live_cols = NR.min(nc - jr);
                        for (ii, acc_row) in acc.iter().enumerate().take(live_rows) {
                            let row = (ic + ir + ii) * n + jc + jr;
                            for (cell, &v) in c[row..row + live_cols].iter_mut().zip(acc_row) {
                                *cell += v;
                            }
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::static_gemm::{lookup, STATIC_SHAPES};

    fn det(len: usize, salt: usize) -> Vec<f32> {
        (0..len)
            .map(|i| (((i * 13 + salt * 7) % 19) as f32 - 9.0) * 0.11)
            .collect()
    }

    /// One multiply-add step as the drivers perform it: fused on
    /// AVX-512F, multiply-then-add elsewhere.
    fn step(acc: f32, a: f32, b: f32) -> f32 {
        if cfg!(all(target_arch = "x86_64", target_feature = "avx512f")) {
            a.mul_add(b, acc)
        } else {
            acc + a * b
        }
    }

    /// Scalar `A @ B` with the drivers' arithmetic: each element's chain
    /// starts from zero and runs in `k` order within a `KC` panel, and a
    /// later panel's chain is added to the stored sum.
    fn scalar_reference(a: &[f32], b: &[f32], (m, n, k): (usize, usize, usize)) -> Vec<f32> {
        let mut c = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                for pc in (0..k).step_by(KC) {
                    let chain = (pc..k.min(pc + KC))
                        .fold(0.0f32, |acc, p| step(acc, a[i * k + p], b[p * n + j]));
                    let cell = &mut c[i * n + j];
                    *cell = if pc == 0 { chain } else { *cell + chain };
                }
            }
        }
        c
    }

    fn assert_bits(got: &[f32], expect: &[f32], what: &str) {
        let same = got
            .iter()
            .zip(expect)
            .all(|(g, e)| g.to_bits() == e.to_bits());
        assert!(
            same && got.len() == expect.len(),
            "{what} diverges from the scalar reference"
        );
    }

    /// Every live row count of a partial tile (1–7), one and two full
    /// tiles with every partial tail (8–16), and whole sweeps including a
    /// tail past the `MC` block (64, 129).
    const ROWS: [usize; 18] = [
        1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 64, 129,
    ];

    #[test]
    fn static_driver_matches_scalar_reference_bitwise() {
        for &(k, n) in STATIC_SHAPES {
            let kernel = lookup(k, n).expect("registered shape must resolve");
            let b = det(k * n, k + n);
            let mut panels = Vec::new();
            pack_b_full(&b, Layout::RowMajor, (k, n), &mut panels);
            for m in ROWS {
                let a = det(m * k, m);
                let mut got = vec![f32::NAN; m * n];
                kernel(&a, m, &panels, &mut got);
                let expect = scalar_reference(&a, &b, (m, n, k));
                assert_bits(&got, &expect, &format!("static {m}x{k}x{n}"));
            }
        }
    }

    #[test]
    fn dynamic_driver_matches_scalar_reference_bitwise() {
        // registered shapes plus ragged columns, several `k` panels and
        // several `jc` panels; row-major `A` runs in place, transposed `A`
        // through `pack_a`
        let extra = [(30, 40), (300, 24), (20, 530)];
        for &(k, n) in STATIC_SHAPES.iter().chain(&extra) {
            let b = det(k * n, k + n);
            let mut panels = Vec::new();
            pack_b_full(&b, Layout::RowMajor, (k, n), &mut panels);
            for m in ROWS {
                let a = det(m * k, m);
                let a_t: Vec<f32> = (0..k * m).map(|i| a[(i % m) * k + i / m]).collect();
                let expect = scalar_reference(&a, &b, (m, n, k));
                for (src, layout) in [(&a, Layout::RowMajor), (&a_t, Layout::Transposed)] {
                    let mut got = vec![f32::NAN; m * n];
                    gemm_prepacked((m, n, k), src, layout, &panels, &mut got);
                    assert_bits(&got, &expect, &format!("dynamic {m}x{k}x{n}"));
                }
            }
        }
    }
}
