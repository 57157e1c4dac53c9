//! Fully-connected layer.

use crate::params::{Binder, ParamId, Params};
use crate::Result;
use hwpr_autograd::{Act, Var};
use hwpr_tensor::Init;

/// Dense affine layer `y = x @ W (+ b)`.
///
/// # Examples
///
/// ```
/// use hwpr_autograd::Tape;
/// use hwpr_nn::layers::Linear;
/// use hwpr_nn::{Binder, Params};
/// use hwpr_tensor::{Init, Matrix};
///
/// let mut params = Params::new();
/// let fc = Linear::new(&mut params, "fc", 3, 2, Init::Xavier, 1, true);
/// let mut tape = Tape::new();
/// let mut binder = Binder::new(&mut tape, &params);
/// let x = binder.input(Matrix::ones(4, 3));
/// let y = fc.forward(&mut binder, x)?;
/// assert_eq!(tape.value(y).shape(), (4, 2));
/// # Ok::<(), hwpr_nn::NnError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Linear {
    weight: ParamId,
    bias: Option<ParamId>,
    in_dim: usize,
    out_dim: usize,
}

impl Linear {
    /// Registers a `in_dim x out_dim` layer in `params`.
    ///
    /// The weight is initialised with `init` (seeded by `seed`); the bias,
    /// when present, starts at zero.
    pub fn new(
        params: &mut Params,
        name: &str,
        in_dim: usize,
        out_dim: usize,
        init: Init,
        seed: u64,
        bias: bool,
    ) -> Self {
        let weight = params.add(&format!("{name}.weight"), in_dim, out_dim, init, seed);
        let bias = bias.then(|| params.add(&format!("{name}.bias"), 1, out_dim, Init::Zeros, seed));
        Self {
            weight,
            bias,
            in_dim,
            out_dim,
        }
    }

    /// Input feature dimension.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output feature dimension.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Applies the layer to a `[batch, in_dim]` node.
    ///
    /// # Errors
    ///
    /// Returns a shape error if `x` does not have `in_dim` columns.
    pub fn forward(&self, binder: &mut Binder<'_, '_>, x: Var) -> Result<Var> {
        self.forward_act(binder, x, Act::Identity)
    }

    /// Applies the layer followed by `act` as one fused tape node
    /// (GEMM + bias + activation in a single pass).
    ///
    /// # Errors
    ///
    /// Returns a shape error if `x` does not have `in_dim` columns.
    pub fn forward_act(&self, binder: &mut Binder<'_, '_>, x: Var, act: Act) -> Result<Var> {
        let w = binder.param(self.weight);
        let b = self.bias.map(|id| binder.param(id));
        Ok(binder.tape().linear_act(x, w, b, act)?)
    }

    /// Compiles the layer for tape-free inference: the weight panel is
    /// packed once and the bias copied out of `params`.
    pub fn freeze(&self, params: &Params) -> crate::infer::FrozenLinear {
        crate::infer::FrozenLinear::from_parts(
            params.get(self.weight),
            self.bias.map(|id| params.get(id)),
            self.in_dim,
            self.out_dim,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::Params;
    use hwpr_autograd::Tape;
    use hwpr_tensor::Matrix;

    #[test]
    fn forward_shape_and_bias() {
        let mut params = Params::new();
        let fc = Linear::new(&mut params, "fc", 2, 3, Init::Zeros, 0, true);
        assert_eq!(fc.in_dim(), 2);
        assert_eq!(fc.out_dim(), 3);
        // zero weights + zero bias => zero output
        let mut tape = Tape::new();
        let mut binder = Binder::new(&mut tape, &params);
        let x = binder.input(Matrix::ones(5, 2));
        let y = fc.forward(&mut binder, x).unwrap();
        assert_eq!(tape.value(y), &Matrix::zeros(5, 3));
    }

    #[test]
    fn forward_without_bias() {
        let mut params = Params::new();
        let fc = Linear::new(&mut params, "fc", 1, 1, Init::Zeros, 0, false);
        assert_eq!(params.len(), 1);
        let mut tape = Tape::new();
        let mut binder = Binder::new(&mut tape, &params);
        let x = binder.input(Matrix::ones(1, 1));
        assert!(fc.forward(&mut binder, x).is_ok());
    }

    #[test]
    fn shape_mismatch_is_error() {
        let mut params = Params::new();
        let fc = Linear::new(&mut params, "fc", 4, 2, Init::Xavier, 0, true);
        let mut tape = Tape::new();
        let mut binder = Binder::new(&mut tape, &params);
        let x = binder.input(Matrix::ones(1, 3));
        assert!(fc.forward(&mut binder, x).is_err());
    }

    #[test]
    fn gradient_flows_to_weight_and_bias() {
        let mut params = Params::new();
        let fc = Linear::new(&mut params, "fc", 2, 1, Init::Normal(0.5), 3, true);
        let mut tape = Tape::new();
        let mut binder = Binder::for_training(&mut tape, &params);
        let x = binder.input(Matrix::ones(4, 2));
        let y = fc.forward(&mut binder, x).unwrap();
        let loss = binder.tape().mean_all(y);
        let grads = binder.finish(loss).unwrap();
        assert_eq!(grads.iter().filter(|g| g.is_some()).count(), 2);
    }
}
