//! Graph convolution layer over per-sample constant adjacencies.

use crate::params::{Binder, ParamId, Params};
use crate::Result;
use hwpr_autograd::Var;
use hwpr_tensor::{Init, Matrix};

/// One graph-convolution layer: `H' = act(Â · H · W + b)` applied
/// independently to each sample's node block.
///
/// The batch is packed as `[batch * nodes, features]` with one (constant)
/// normalised adjacency `Â` per sample — in NAS encodings the adjacency is
/// derived from the architecture and never learned. Following BRP-NAS, the
/// encoders add a *global node* connected to every operation node; that is
/// the caller's responsibility when building `Â`.
#[derive(Debug, Clone)]
pub struct GcnLayer {
    weight: ParamId,
    bias: ParamId,
    in_dim: usize,
    out_dim: usize,
}

impl GcnLayer {
    /// Registers a graph-convolution layer mapping `in_dim` to `out_dim`
    /// node features.
    pub fn new(params: &mut Params, name: &str, in_dim: usize, out_dim: usize, seed: u64) -> Self {
        let weight = params.add(&format!("{name}.weight"), in_dim, out_dim, Init::He, seed);
        let bias = params.add(&format!("{name}.bias"), 1, out_dim, Init::Zeros, seed);
        Self {
            weight,
            bias,
            in_dim,
            out_dim,
        }
    }

    /// Input node-feature dimension.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output node-feature dimension.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Applies the layer to `x` (`[batch * nodes, in_dim]`) with one
    /// `nodes x nodes` adjacency per sample, followed by ReLU.
    ///
    /// Adjacencies are accepted via [`std::borrow::Borrow`] so callers can
    /// pass owned matrices or shared references without cloning.
    ///
    /// # Errors
    ///
    /// Returns a shape error when the block structure or feature dimension
    /// is inconsistent.
    pub fn forward(
        &self,
        binder: &mut Binder<'_, '_>,
        x: Var,
        adjacency: &[impl std::borrow::Borrow<Matrix>],
        nodes: usize,
    ) -> Result<Var> {
        let w = binder.param(self.weight);
        let b = binder.param(self.bias);
        let tape = binder.tape();
        // stage the adjacency stack in pooled storage (recycled on reset)
        let mut adj = tape.scratch_mats();
        for m in adjacency {
            adj.push(tape.alloc_copy(m.borrow()));
        }
        let agg = tape.block_graph_matmul(x, adj, nodes)?;
        // fused affine + ReLU over the aggregated node features
        Ok(tape.linear_act(agg, w, Some(b), hwpr_autograd::Act::Relu)?)
    }

    /// Compiles the layer for tape-free inference (prepacked weight plus a
    /// copied bias row).
    pub fn freeze(&self, params: &Params) -> crate::infer::FrozenGcnLayer {
        crate::infer::FrozenGcnLayer::from_parts(
            params.get(self.weight),
            params.get(self.bias),
            self.out_dim,
        )
    }
}

/// Builds the symmetric-normalised adjacency `D^{-1/2}(A + I)D^{-1/2}`
/// used by GCNs, from a directed 0/1 adjacency.
///
/// # Panics
///
/// Panics if `a` is not square.
pub fn normalize_adjacency(a: &Matrix) -> Matrix {
    assert_eq!(a.rows(), a.cols(), "adjacency must be square");
    let n = a.rows();
    // symmetrise + self loops
    let mut sym = Matrix::zeros(n, n);
    for i in 0..n {
        for j in 0..n {
            let v = if i == j {
                1.0
            } else {
                (a[(i, j)] + a[(j, i)]).min(1.0)
            };
            sym.set(i, j, v);
        }
    }
    let mut deg = vec![0.0f32; n];
    for (i, d) in deg.iter_mut().enumerate() {
        *d = sym.row(i).iter().sum::<f32>().max(1e-12);
    }
    let mut out = Matrix::zeros(n, n);
    for i in 0..n {
        for j in 0..n {
            out.set(i, j, sym[(i, j)] / (deg[i].sqrt() * deg[j].sqrt()));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use hwpr_autograd::Tape;

    #[test]
    fn normalized_adjacency_rows_are_bounded() {
        let a = Matrix::from_rows(&[&[0.0, 1.0, 0.0], &[0.0, 0.0, 1.0], &[0.0, 0.0, 0.0]]);
        let norm = normalize_adjacency(&a);
        assert_eq!(norm.shape(), (3, 3));
        // symmetric
        for i in 0..3 {
            for j in 0..3 {
                assert!((norm[(i, j)] - norm[(j, i)]).abs() < 1e-6);
            }
        }
        // spectral norm of D^-1/2 (A+I) D^-1/2 is <= 1; row sums <= sqrt(n)
        for i in 0..3 {
            assert!(norm.row(i).iter().sum::<f32>() <= 3.0_f32.sqrt() + 1e-5);
        }
    }

    #[test]
    fn forward_shapes_and_nonnegativity() {
        let mut params = Params::new();
        let gcn = GcnLayer::new(&mut params, "g", 4, 6, 1);
        assert_eq!(gcn.in_dim(), 4);
        assert_eq!(gcn.out_dim(), 6);
        let adj = normalize_adjacency(&Matrix::from_rows(&[&[0.0, 1.0], &[0.0, 0.0]]));
        let mut tape = Tape::new();
        let mut binder = Binder::new(&mut tape, &params);
        let x = binder.input(Matrix::ones(4, 4)); // batch 2, nodes 2
        let y = gcn.forward(&mut binder, x, &[adj.clone(), adj], 2).unwrap();
        let v = tape.value(y);
        assert_eq!(v.shape(), (4, 6));
        assert!(v.as_slice().iter().all(|&e| e >= 0.0));
    }

    #[test]
    fn mismatched_blocks_error() {
        let mut params = Params::new();
        let gcn = GcnLayer::new(&mut params, "g", 2, 2, 0);
        let adj = Matrix::identity(2);
        let mut tape = Tape::new();
        let mut binder = Binder::new(&mut tape, &params);
        let x = binder.input(Matrix::ones(3, 2)); // 3 rows not divisible into 2-node blocks
        assert!(gcn.forward(&mut binder, x, &[adj], 2).is_err());
    }

    #[test]
    fn gradients_flow_through_gcn() {
        let mut params = Params::new();
        let gcn = GcnLayer::new(&mut params, "g", 3, 2, 5);
        let adj = normalize_adjacency(&Matrix::from_rows(&[
            &[0.0, 1.0, 1.0],
            &[0.0, 0.0, 1.0],
            &[0.0, 0.0, 0.0],
        ]));
        let mut tape = Tape::new();
        let mut binder = Binder::for_training(&mut tape, &params);
        let x = binder.input(Matrix::ones(3, 3));
        let y = gcn.forward(&mut binder, x, &[adj], 3).unwrap();
        let loss = binder.tape().mean_all(y);
        let grads = binder.finish(loss).unwrap();
        assert!(grads[0].is_some() && grads[1].is_some());
    }
}
