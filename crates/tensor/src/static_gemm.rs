//! Fixed-shape GEMM kernels monomorphized for the frozen model's layer
//! dimensions (ROADMAP item 5, dfdx lineage).
//!
//! The blocked driver in [`crate::gemm`] is shaped for arbitrary
//! operands: every call walks the `jc`/`pc`/`ic` block loops, re-derives
//! panel offsets, and branches per tile on remainder rows/columns. For
//! the frozen inference engine those decisions are all decided the
//! moment the model is compiled — a surrogate's layer shapes never
//! change after `freeze()` — yet the dynamic driver re-makes them on
//! every one of the thousands of GEMMs per search generation.
//!
//! [`gemm_static`] is the same register-blocked computation with the
//! reduction depth `K` and output width `N` as const generics: the strip
//! count, each strip's live column width and the full-tile trip count
//! are compile-time constants, so the optimiser can unroll the strip
//! loop, fold the column-remainder branch and specialise the full-tile
//! FMA loop per shape. Only the row count `m` stays runtime — the
//! engine's batch width is an env-tunable and the final chunk of a sweep
//! is ragged — and a partial last row tile runs the shared
//! register-resident body for its row count.
//!
//! Monomorphization needs the shapes at compile time, so the kernels are
//! instantiated from a fixed registry ([`STATIC_SHAPES`]) covering the
//! `(k, n)` pairs the repo's model families produce (`ModelConfig::tiny`
//! / `::fast`, the experiments-scale preset, and the fusion head shared
//! by all of them). [`lookup`] resolves a shape to its kernel at
//! `freeze()` time; unlisted shapes (e.g. `ModelConfig::paper`'s wide
//! panels, which are GEMM-bound anyway) simply stay on the dynamic
//! driver. The registry is capped at `K <= KC` and `N <= NC`, which
//! means a packed operand is exactly one driver panel — the
//! [`crate::gemm::pack_b_full`] layout — and the static path accumulates
//! in the same `k`-order through the same micro-kernels, keeping its
//! results bit-identical to the dynamic driver (the differential tests
//! below assert equality, not tolerance, and the tests in
//! [`crate::gemm`] pin both drivers to one scalar reference).

use crate::gemm::{direct_tile, KC, MR, NC, NR};

/// A monomorphized [`gemm_static`] instance: `(a, m, panels, c)` computes
/// the `[m, K] @ [K, N]` product into `c` (overwrite semantics).
pub type StaticKernelFn = fn(&[f32], usize, &[f32], &mut [f32]);

/// `C = A @ B` for a compile-time `[m, K] @ [K, N]` shape against a
/// single prepacked panel of `B` (the [`crate::gemm::pack_b_full`]
/// layout: `NR`-column strips, each `K` deep, zero-padded past `N`).
///
/// Every tile, full or partial in either direction, goes through the
/// same [`crate::gemm::direct_tile`] as [`crate::gemm::gemm_prepacked`]:
/// `R <= MR` accumulator rows held in registers, each element's FMA chain
/// in `k` order, stored straight into `C`. The output is therefore
/// bit-identical to the dynamic driver; the difference is that the strip
/// walk and the column widths are compile-time constants.
pub fn gemm_static<const K: usize, const N: usize>(
    a: &[f32],
    m: usize,
    panels: &[f32],
    c: &mut [f32],
) {
    const {
        assert!(K > 0 && K <= KC, "static shapes are single k-panel");
        assert!(N > 0 && N <= NC, "static shapes are single jc-panel");
    }
    let strips = N.div_ceil(NR);
    assert!(a.len() >= m * K, "A shorter than m x K");
    assert!(c.len() >= m * N, "C shorter than m x N");
    assert!(
        panels.len() >= strips * NR * K,
        "panel shorter than packed B"
    );
    let mut ir = 0;
    while ir < m {
        let live_rows = MR.min(m - ir);
        let a_tile = &a[ir * K..];
        for js in 0..strips {
            // compile-time strip walk and column widths; the row count
            // picks the register-resident tile body once per tile
            let live_cols = NR.min(N - js * NR);
            let b_strip = &panels[js * NR * K..(js + 1) * NR * K];
            let c_tile = &mut c[ir * N + js * NR..];
            direct_tile(
                K, a_tile, K, live_rows, b_strip, c_tile, N, live_cols, false,
            );
        }
        ir += MR;
    }
}

macro_rules! static_shapes {
    ($(($k:literal, $n:literal)),+ $(,)?) => {
        /// Every `(k, n)` shape with a monomorphized kernel. Exposed so
        /// the differential tests (and docs) can enumerate exactly what
        /// the frozen engine specialises.
        pub const STATIC_SHAPES: &[(usize, usize)] = &[$(($k, $n)),+];

        /// The monomorphized kernel for a `k x n` weight, or `None` when
        /// the shape is not in the registry (the caller falls back to
        /// the dynamic driver).
        pub fn lookup(k: usize, n: usize) -> Option<StaticKernelFn> {
            match (k, n) {
                $(($k, $n) => Some(gemm_static::<$k, $n> as StaticKernelFn),)+
                _ => None,
            }
        }
    };
}

// The frozen model's per-layer `(k, n)` GEMM shapes: GCN layers
// (node-features -> hidden, hidden -> hidden), LSTM gate GEMMs
// (embed + hidden -> 4·hidden, 2·hidden -> 4·hidden), MLP regressor
// stacks (encoder output + 8 arch features -> hidden -> ... -> 1) and
// the 2 -> 16 -> 16 -> 1 fusion head, for `ModelConfig::tiny`,
// `ModelConfig::fast` and the experiments-scale preset.
static_shapes! {
    // fusion head (every config)
    (2, 16), (16, 16), (16, 1),
    // ModelConfig::tiny
    (17, 16), (20, 48), (24, 16), (20, 16),
    // ModelConfig::fast (the default)
    (17, 96), (96, 96), (88, 256), (128, 256),
    (104, 64), (72, 64), (64, 32), (32, 1),
    // experiments `Scale::Fast` preset
    (17, 64), (64, 64), (68, 192), (96, 192),
    (72, 48), (56, 48), (48, 1),
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::{gemm_prepacked, pack_b_full, Layout};
    use crate::matrix::Matrix;

    fn det(rows: usize, cols: usize, salt: usize) -> Matrix {
        Matrix::from_vec(
            rows,
            cols,
            (0..rows * cols)
                .map(|i| (((i * 13 + salt * 7) % 19) as f32 - 9.0) * 0.11)
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn every_registered_shape_matches_the_dynamic_driver_bitwise() {
        // remainder-free (multiples of MR) and remainder-heavy row
        // counts, including the ragged final chunks a sweep produces
        for &(k, n) in STATIC_SHAPES {
            let kernel = lookup(k, n).expect("registered shape must resolve");
            let b = det(k, n, k + n);
            let mut panels = Vec::new();
            pack_b_full(b.as_slice(), Layout::RowMajor, (k, n), &mut panels);
            for m in [1usize, 3, 5, 7, 8, 13, 16, 64, 129] {
                let a = det(m, k, m);
                let mut expect = vec![0.0f32; m * n];
                gemm_prepacked(
                    (m, n, k),
                    a.as_slice(),
                    Layout::RowMajor,
                    &panels,
                    &mut expect,
                );
                let mut got = vec![f32::NAN; m * n];
                kernel(a.as_slice(), m, &panels, &mut got);
                assert_eq!(got, expect, "{m}x{k}x{n} diverges from the dynamic driver");
            }
        }
    }

    #[test]
    fn static_kernel_overwrites_dirty_output() {
        let (k, n) = (20, 48);
        let kernel = lookup(k, n).unwrap();
        let b = det(k, n, 2);
        let mut panels = Vec::new();
        pack_b_full(b.as_slice(), Layout::RowMajor, (k, n), &mut panels);
        let a = det(9, k, 1);
        let mut dirty = vec![7.5f32; 9 * n];
        kernel(a.as_slice(), 9, &panels, &mut dirty);
        let expect = a.matmul(&b).unwrap();
        assert_eq!(dirty, expect.as_slice());
    }

    #[test]
    fn unregistered_shapes_fall_back() {
        assert!(lookup(273, 900).is_none(), "paper shapes stay dynamic");
        assert!(lookup(0, 16).is_none());
        assert!(lookup(16, 0).is_none());
    }

    #[test]
    fn registry_is_single_panel_sized() {
        for &(k, n) in STATIC_SHAPES {
            assert!(k <= KC && n <= NC, "({k}, {n}) spans multiple panels");
        }
    }
}
