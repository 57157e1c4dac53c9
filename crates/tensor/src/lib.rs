//! Dense, row-major `f32` matrix substrate for the HW-PR-NAS reproduction.
//!
//! The surrogate models in the paper (MLPs, a 2-layer LSTM with 225 hidden
//! units, a 2-layer GCN with 600 hidden units) are small enough that a
//! cache-friendly, dependency-free matrix library is sufficient to train
//! them on a CPU. This crate provides the storage type ([`Matrix`]), shape
//! checking ([`ShapeError`]), seeded random initialisation and the handful
//! of kernels the autograd tape needs (GEMM, element-wise maps, reductions,
//! row gathers, block-diagonal graph products).
//!
//! # Examples
//!
//! ```
//! use hwpr_tensor::Matrix;
//!
//! let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
//! let b = Matrix::identity(2);
//! let c = a.matmul(&b)?;
//! assert_eq!(c, a);
//! # Ok::<(), hwpr_tensor::ShapeError>(())
//! ```

#![warn(missing_docs)]
mod fastmath;
mod gemm;
mod init;
mod matrix;
mod ops;
mod packed;
mod pool;
pub mod reference;
mod shape;
mod telemetry;

pub use fastmath::{fast_sigmoid, fast_sigmoid_block, fast_tanh, fast_tanh_block};
pub use init::{he_std, xavier_std, Init};
pub use matrix::Matrix;
pub use packed::PackedWeight;
pub use pool::BufferPool;
pub use shape::ShapeError;

/// Convenience alias for fallible matrix operations.
pub type Result<T> = std::result::Result<T, ShapeError>;

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn small_matrix() -> impl Strategy<Value = Matrix> {
        (1usize..6, 1usize..6).prop_flat_map(|(r, c)| {
            proptest::collection::vec(-10.0f32..10.0, r * c)
                .prop_map(move |v| Matrix::from_vec(r, c, v).unwrap())
        })
    }

    proptest! {
        #[test]
        fn transpose_involution(m in small_matrix()) {
            prop_assert_eq!(m.transpose().transpose(), m);
        }

        #[test]
        fn add_commutes(m in small_matrix()) {
            let n = m.map(|x| x * 0.5 + 1.0);
            prop_assert_eq!(m.add(&n).unwrap(), n.add(&m).unwrap());
        }

        #[test]
        fn matmul_identity(m in small_matrix()) {
            let id = Matrix::identity(m.cols());
            let out = m.matmul(&id).unwrap();
            for (a, b) in out.as_slice().iter().zip(m.as_slice()) {
                prop_assert!((a - b).abs() < 1e-5);
            }
        }

        #[test]
        fn sum_matches_mean(m in small_matrix()) {
            let n = (m.rows() * m.cols()) as f32;
            prop_assert!((m.sum() - m.mean() * n).abs() < 1e-3);
        }

        #[test]
        fn matmul_distributes_over_add(a in small_matrix()) {
            let b = a.map(|x| x + 1.0);
            let c = Matrix::filled(a.cols(), 3, 0.5);
            let lhs = a.add(&b).unwrap().matmul(&c).unwrap();
            let rhs = a.matmul(&c).unwrap().add(&b.matmul(&c).unwrap()).unwrap();
            for (x, y) in lhs.as_slice().iter().zip(rhs.as_slice()) {
                prop_assert!((x - y).abs() < 1e-3);
            }
        }
    }

    /// A matrix of the given shape with uniform entries in `[-2, 2)`.
    fn matrix_of(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
        proptest::collection::vec(-2.0f32..2.0, rows * cols)
            .prop_map(move |v| Matrix::from_vec(rows, cols, v).unwrap())
    }

    /// Differential tests: the blocked kernels must match the naive
    /// reference loop nests within tolerance on every shape — including
    /// dimensions that are not multiples of the micro-kernel tile (4x8)
    /// or the cache blocks, and degenerate 1-sized edges.
    fn max_abs_diff(a: &Matrix, b: &Matrix) -> f32 {
        a.as_slice()
            .iter()
            .zip(b.as_slice())
            .map(|(x, y)| (x - y).abs())
            .fold(0.0, f32::max)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn blocked_matmul_matches_reference(
            (a, b) in (1usize..40, 1usize..40, 1usize..40).prop_flat_map(|(m, k, n)| {
                (matrix_of(m, k), matrix_of(k, n))
            }),
        ) {
            let blocked = a.matmul(&b).unwrap();
            let naive = reference::matmul(&a, &b).unwrap();
            prop_assert!(max_abs_diff(&blocked, &naive) < 1e-4);
        }

        #[test]
        fn blocked_matmul_tn_matches_reference(
            (a, b) in (1usize..40, 1usize..40, 1usize..40).prop_flat_map(|(k, m, n)| {
                (matrix_of(k, m), matrix_of(k, n))
            }),
        ) {
            let blocked = a.matmul_tn(&b).unwrap();
            let naive = reference::matmul_tn(&a, &b).unwrap();
            prop_assert!(max_abs_diff(&blocked, &naive) < 1e-4);
        }

        #[test]
        fn blocked_matmul_nt_matches_reference(
            (a, b) in (1usize..40, 1usize..40, 1usize..40).prop_flat_map(|(m, k, n)| {
                (matrix_of(m, k), matrix_of(n, k))
            }),
        ) {
            let blocked = a.matmul_nt(&b).unwrap();
            let naive = reference::matmul_nt(&a, &b).unwrap();
            prop_assert!(max_abs_diff(&blocked, &naive) < 1e-4);
        }
    }

    /// Shapes straddling every blocking boundary (micro-tile 4x8, KC=256,
    /// MC=128, NC=512), deterministic data: the k-split accumulation of the
    /// blocked driver must stay within float tolerance of the reference.
    #[test]
    fn blocked_kernels_cross_block_boundaries() {
        for &(m, k, n) in &[
            (1usize, 1usize, 1usize),
            (4, 8, 8),
            (5, 9, 7),
            (127, 257, 63),
            (129, 300, 513),
            (256, 256, 256),
        ] {
            let a = Matrix::from_vec(
                m,
                k,
                (0..m * k)
                    .map(|i| ((i * 37 % 97) as f32 - 48.0) / 24.0)
                    .collect(),
            )
            .unwrap();
            let b = Matrix::from_vec(
                k,
                n,
                (0..k * n)
                    .map(|i| ((i * 53 % 89) as f32 - 44.0) / 22.0)
                    .collect(),
            )
            .unwrap();
            let blocked = a.matmul(&b).unwrap();
            let naive = reference::matmul(&a, &b).unwrap();
            let worst = max_abs_diff(&blocked, &naive);
            assert!(worst < 1e-3, "({m},{k},{n}): max diff {worst}");
            let tn = a.transpose().matmul_tn(&b).unwrap();
            assert_eq!(tn, blocked, "tn path differs at ({m},{k},{n})");
            let nt = a.matmul_nt(&b.transpose()).unwrap();
            assert_eq!(nt, blocked, "nt path differs at ({m},{k},{n})");
        }
    }
}
