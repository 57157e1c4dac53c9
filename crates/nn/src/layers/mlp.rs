//! Multi-layer perceptron with configurable activation and dropout.

use crate::layers::{Dropout, LayerRng, Linear};
use crate::params::{Binder, Params};
use crate::{NnError, Result};
use hwpr_autograd::{Act, Var};
use hwpr_tensor::Init;

/// Hidden-layer activation function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Activation {
    /// Rectified linear unit (default).
    #[default]
    Relu,
    /// Hyperbolic tangent.
    Tanh,
    /// Logistic sigmoid.
    Sigmoid,
}

/// Configuration for [`Mlp::new`].
#[derive(Debug, Clone, PartialEq)]
pub struct MlpConfig {
    /// Input feature dimension.
    pub input_dim: usize,
    /// Hidden layer widths (may be empty for a single affine map).
    pub hidden: Vec<usize>,
    /// Output dimension.
    pub output_dim: usize,
    /// Hidden activation.
    pub activation: Activation,
    /// Dropout probability applied after each hidden activation.
    pub dropout: f32,
    /// Seed for weight initialisation.
    pub seed: u64,
}

impl MlpConfig {
    /// Convenience constructor with ReLU and no dropout.
    pub fn new(input_dim: usize, hidden: Vec<usize>, output_dim: usize, seed: u64) -> Self {
        Self {
            input_dim,
            hidden,
            output_dim,
            activation: Activation::Relu,
            dropout: 0.0,
            seed,
        }
    }
}

/// Fully-connected feed-forward network; the regressor head used by both
/// HW-PR-NAS predictors and the scalable variant.
#[derive(Debug, Clone)]
pub struct Mlp {
    layers: Vec<Linear>,
    activation: Activation,
    dropout: Dropout,
}

impl Mlp {
    /// Builds an MLP per `config`, registering parameters in `params`.
    ///
    /// # Errors
    ///
    /// Returns a config error when any dimension is zero.
    pub fn new(params: &mut Params, name: &str, config: &MlpConfig) -> Result<Self> {
        if config.input_dim == 0 || config.output_dim == 0 || config.hidden.contains(&0) {
            return Err(NnError::Config(format!(
                "MLP dimensions must be nonzero: {config:?}"
            )));
        }
        let mut dims = vec![config.input_dim];
        dims.extend(&config.hidden);
        dims.push(config.output_dim);
        let layers = dims
            .windows(2)
            .enumerate()
            .map(|(i, w)| {
                let init = match config.activation {
                    Activation::Relu => Init::He,
                    _ => Init::Xavier,
                };
                Linear::new(
                    params,
                    &format!("{name}.fc{i}"),
                    w[0],
                    w[1],
                    init,
                    config.seed.wrapping_add(i as u64),
                    true,
                )
            })
            .collect();
        Ok(Self {
            layers,
            activation: config.activation,
            dropout: Dropout::new(config.dropout),
        })
    }

    /// Number of affine layers.
    pub fn depth(&self) -> usize {
        self.layers.len()
    }

    /// Output dimension.
    pub fn output_dim(&self) -> usize {
        self.layers.last().map_or(0, Linear::out_dim)
    }

    /// Applies the network to `x` (`[batch, input_dim]`). The final layer
    /// is linear (no activation), as appropriate for regression/scoring.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from mismatched inputs.
    pub fn forward(&self, binder: &mut Binder<'_, '_>, x: Var, rng: &mut LayerRng) -> Result<Var> {
        let mut h = x;
        let last = self.layers.len() - 1;
        let act = match self.activation {
            Activation::Relu => Act::Relu,
            Activation::Tanh => Act::Tanh,
            Activation::Sigmoid => Act::Sigmoid,
        };
        for (i, layer) in self.layers.iter().enumerate() {
            if i < last {
                // hidden layers fuse GEMM + bias + activation into one node
                h = layer.forward_act(binder, h, act)?;
                h = self.dropout.forward(binder, h, rng)?;
            } else {
                h = layer.forward(binder, h)?;
            }
        }
        Ok(h)
    }

    /// Compiles the network for tape-free inference: every layer's weight
    /// panel is packed once and dropout is statically elided (it is already
    /// the identity at inference).
    pub fn freeze(&self, params: &Params) -> crate::infer::FrozenMlp {
        let act = match self.activation {
            Activation::Relu => Act::Relu,
            Activation::Tanh => Act::Tanh,
            Activation::Sigmoid => Act::Sigmoid,
        };
        crate::infer::FrozenMlp::from_parts(
            self.layers.iter().map(|l| l.freeze(params)).collect(),
            act,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hwpr_autograd::Tape;
    use hwpr_tensor::Matrix;
    use rand_chacha::rand_core::SeedableRng;

    fn rng() -> LayerRng {
        LayerRng::seed_from_u64(0)
    }

    #[test]
    fn builds_and_runs() {
        let mut params = Params::new();
        let mlp = Mlp::new(&mut params, "m", &MlpConfig::new(4, vec![8, 8], 1, 7)).unwrap();
        assert_eq!(mlp.depth(), 3);
        assert_eq!(mlp.output_dim(), 1);
        let mut tape = Tape::new();
        let mut binder = Binder::new(&mut tape, &params);
        let x = binder.input(Matrix::ones(5, 4));
        let y = mlp.forward(&mut binder, x, &mut rng()).unwrap();
        assert_eq!(tape.value(y).shape(), (5, 1));
    }

    #[test]
    fn rejects_zero_dims() {
        let mut params = Params::new();
        assert!(Mlp::new(&mut params, "m", &MlpConfig::new(0, vec![], 1, 0)).is_err());
        assert!(Mlp::new(&mut params, "m", &MlpConfig::new(2, vec![0], 1, 0)).is_err());
    }

    #[test]
    fn no_hidden_layer_is_affine() {
        let mut params = Params::new();
        let mlp = Mlp::new(&mut params, "m", &MlpConfig::new(2, vec![], 3, 1)).unwrap();
        assert_eq!(mlp.depth(), 1);
    }

    #[test]
    fn activations_differ() {
        let run = |act: Activation| {
            let mut params = Params::new();
            let mut cfg = MlpConfig::new(3, vec![4], 2, 9);
            cfg.activation = act;
            let mlp = Mlp::new(&mut params, "m", &cfg).unwrap();
            let mut tape = Tape::new();
            let mut binder = Binder::new(&mut tape, &params);
            let x = binder.input(Matrix::filled(1, 3, 0.5));
            let y = mlp.forward(&mut binder, x, &mut rng()).unwrap();
            tape.value(y).clone()
        };
        let relu = run(Activation::Relu);
        let tanh = run(Activation::Tanh);
        assert_ne!(relu, tanh);
    }

    #[test]
    fn gradients_reach_all_layers() {
        let mut params = Params::new();
        let mlp = Mlp::new(&mut params, "m", &MlpConfig::new(3, vec![4, 4], 1, 2)).unwrap();
        let mut tape = Tape::new();
        let mut binder = Binder::for_training(&mut tape, &params);
        let x = binder.input(Matrix::ones(6, 3));
        let y = mlp.forward(&mut binder, x, &mut rng()).unwrap();
        let loss = binder.tape().mean_all(y);
        let grads = binder.finish(loss).unwrap();
        // 3 layers x (w, b)
        assert_eq!(grads.iter().filter(|g| g.is_some()).count(), 6);
    }
}
