//! Pre-packed GEMM operands.
//!
//! The blocked driver in [`crate::gemm`] packs its `B` operand into
//! cache-friendly panels on every call. When the same `B` feeds several
//! GEMMs before it changes — an LSTM weight multiplied once per sequence
//! step, forward and backward, or a frozen layer weight multiplied on
//! every inference call — that packing is pure repeated work.
//! [`PackedWeight`] materialises the packed panels once; the
//! `matmul_prepacked*` entry points then consume them directly.
//!
//! Packing order matches the driver exactly, so prepacked products are
//! bit-identical to their unpacked counterparts. The backing buffer is
//! reused across [`PackedWeight::pack`] calls (capacity is retained),
//! keeping repacking allocation-free in steady state.

use crate::gemm::{self, Layout};
use crate::matrix::Matrix;
use crate::shape::ShapeError;
use crate::Result;

/// A `k x n` GEMM `B` operand packed into the driver's panel layout.
#[derive(Debug, Default)]
pub struct PackedWeight {
    k: usize,
    n: usize,
    /// Driver-order f32 panels (see [`gemm::pack_b_full`]).
    panels: Vec<f32>,
}

impl PackedWeight {
    /// An empty pack; fill it with [`PackedWeight::pack`] or
    /// [`PackedWeight::pack_transposed`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Packs `b` as the `B` operand of `A @ B`.
    pub fn pack(&mut self, b: &Matrix) {
        let (k, n) = b.shape();
        self.k = k;
        self.n = n;
        gemm::pack_b_full(b.as_slice(), Layout::RowMajor, (k, n), &mut self.panels);
    }

    /// Packs `b`'s transpose as the `B` operand of `A @ B^T` — the
    /// prepacked counterpart of [`Matrix::matmul_nt_into`]'s `rhs`.
    pub fn pack_transposed(&mut self, b: &Matrix) {
        let (n, k) = b.shape();
        self.k = k;
        self.n = n;
        gemm::pack_b_full(b.as_slice(), Layout::Transposed, (k, n), &mut self.panels);
    }

    /// Logical shape `(k, n)` of the packed operand.
    pub fn shape(&self) -> (usize, usize) {
        (self.k, self.n)
    }
}

impl Matrix {
    /// Matrix product `self @ b` against a pre-packed `b`, written into
    /// `out` (overwritten; no zeroing required beforehand). Bit-identical
    /// to [`Matrix::matmul_into`] with the unpacked operand.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] when `self.cols() != b.k` or `out` is not
    /// `self.rows() x b.n`.
    pub fn matmul_prepacked_into(&self, b: &PackedWeight, out: &mut Matrix) -> Result<()> {
        let (m, k) = self.shape();
        let (bk, n) = b.shape();
        if k != bk {
            return Err(ShapeError::new(
                "matmul_prepacked_into",
                self.shape(),
                (bk, n),
            ));
        }
        if out.shape() != (m, n) {
            return Err(ShapeError::new(
                "matmul_prepacked_into",
                (m, n),
                out.shape(),
            ));
        }
        gemm::gemm_prepacked(
            (m, n, k),
            self.as_slice(),
            Layout::RowMajor,
            &b.panels,
            out.as_mut_slice(),
        );
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn prepacked_matches_matmul_bit_identically() {
        // sizes straddle the KC/NC/MC block boundaries
        for &(m, k, n) in &[(3, 5, 7), (128, 273, 900), (64, 300, 520), (1, 257, 513)] {
            let a = det(m, k, 1);
            let b = det(k, n, 2);
            let mut pw = PackedWeight::new();
            pw.pack(&b);
            let mut out = Matrix::zeros(m, n);
            a.matmul_prepacked_into(&pw, &mut out).unwrap();
            let expect = a.matmul(&b).unwrap();
            assert_eq!(out.as_slice(), expect.as_slice(), "{m}x{k}x{n}");
        }
    }

    #[test]
    fn prepacked_overwrites_dirty_output() {
        let a = det(9, 11, 1);
        let b = det(11, 6, 2);
        let mut pw = PackedWeight::new();
        pw.pack(&b);
        let mut dirty = Matrix::from_vec(9, 6, vec![7.5; 54]).unwrap();
        a.matmul_prepacked_into(&pw, &mut dirty).unwrap();
        let expect = a.matmul(&b).unwrap();
        assert_eq!(dirty.as_slice(), expect.as_slice());
    }

    #[test]
    fn prepacked_transposed_matches_matmul_nt() {
        for &(m, k, n) in &[(4, 6, 3), (128, 900, 273), (33, 511, 129)] {
            let a = det(m, k, 3);
            let b = det(n, k, 4); // logical B = b^T
            let mut pw = PackedWeight::new();
            pw.pack_transposed(&b);
            let mut out = Matrix::zeros(m, n);
            a.matmul_prepacked_into(&pw, &mut out).unwrap();
            let mut expect = Matrix::zeros(m, n);
            a.matmul_nt_into(&b, &mut expect).unwrap();
            assert_eq!(out.as_slice(), expect.as_slice(), "{m}x{k}x{n}");
        }
    }

    #[test]
    fn repacking_reuses_capacity() {
        let mut pw = PackedWeight::new();
        pw.pack(&det(300, 600, 5));
        let cap = pw.panels.capacity();
        pw.pack(&det(300, 600, 6));
        assert_eq!(pw.panels.capacity(), cap);
    }

    #[test]
    fn prepacked_rejects_bad_shapes() {
        let a = det(4, 5, 1);
        let mut pw = PackedWeight::new();
        pw.pack(&det(6, 3, 2));
        let mut out = Matrix::zeros(4, 3);
        assert!(a.matmul_prepacked_into(&pw, &mut out).is_err());
    }
}
