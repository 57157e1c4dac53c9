//! Multi-layer LSTM encoder.

use crate::params::{Binder, ParamId, Params};
use crate::{NnError, Result};
use hwpr_autograd::Var;
use hwpr_tensor::{Init, Matrix};
use std::mem;

/// One LSTM layer's parameters: input, recurrent and bias weights packed
/// as `[i f g o]` gate blocks.
#[derive(Debug, Clone)]
struct LstmCell {
    w_ih: ParamId,
    w_hh: ParamId,
    bias: ParamId,
}

/// Stacked LSTM used as the paper's latency encoder (2 layers, 225 hidden
/// units over embedded architecture tokens).
///
/// # Examples
///
/// ```
/// use hwpr_autograd::Tape;
/// use hwpr_nn::layers::Lstm;
/// use hwpr_nn::{Binder, Params};
/// use hwpr_tensor::Matrix;
///
/// let mut params = Params::new();
/// let lstm = Lstm::new(&mut params, "enc", 4, 8, 2, 11);
/// let mut tape = Tape::new();
/// let mut binder = Binder::new(&mut tape, &params);
/// let steps: Vec<_> = (0..3).map(|_| binder.input(Matrix::ones(2, 4))).collect();
/// let h = lstm.forward(&mut binder, &steps)?;
/// assert_eq!(tape.value(h).shape(), (2, 8));
/// # Ok::<(), hwpr_nn::NnError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Lstm {
    cells: Vec<LstmCell>,
    input_dim: usize,
    hidden_dim: usize,
}

impl Lstm {
    /// Registers an LSTM with `layers` stacked cells.
    ///
    /// # Panics
    ///
    /// Panics if `layers == 0`.
    pub fn new(
        params: &mut Params,
        name: &str,
        input_dim: usize,
        hidden_dim: usize,
        layers: usize,
        seed: u64,
    ) -> Self {
        assert!(layers > 0, "LSTM needs at least one layer");
        let mut cells = Vec::with_capacity(layers);
        for l in 0..layers {
            let in_dim = if l == 0 { input_dim } else { hidden_dim };
            let w_ih = params.add(
                &format!("{name}.l{l}.w_ih"),
                in_dim,
                4 * hidden_dim,
                Init::Xavier,
                seed.wrapping_add(3 * l as u64),
            );
            let w_hh = params.add(
                &format!("{name}.l{l}.w_hh"),
                hidden_dim,
                4 * hidden_dim,
                Init::Xavier,
                seed.wrapping_add(3 * l as u64 + 1),
            );
            // forget-gate bias starts at 1 to ease gradient flow early on
            let mut b = Matrix::zeros(1, 4 * hidden_dim);
            for c in hidden_dim..2 * hidden_dim {
                b.set(0, c, 1.0);
            }
            let bias = params.add_matrix(&format!("{name}.l{l}.bias"), b);
            cells.push(LstmCell { w_ih, w_hh, bias });
        }
        Self {
            cells,
            input_dim,
            hidden_dim,
        }
    }

    /// Input feature dimension of the first layer.
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// Hidden state dimension.
    pub fn hidden_dim(&self) -> usize {
        self.hidden_dim
    }

    /// Number of stacked layers.
    pub fn layers(&self) -> usize {
        self.cells.len()
    }

    /// Runs the recurrence over `steps` (each `[batch, input_dim]`) and
    /// returns the final hidden state of the top layer (`[batch, hidden]`).
    ///
    /// # Errors
    ///
    /// Returns a config error when `steps` is empty, or a shape error when
    /// step shapes are inconsistent.
    pub fn forward(&self, binder: &mut Binder<'_, '_>, steps: &[Var]) -> Result<Var> {
        let mut out = binder.tape().scratch_vars();
        self.forward_sequence_into(binder, steps, &mut out)?;
        let last = *out
            .last()
            .expect("forward_sequence_into yields one output per step");
        binder.tape().recycle_vars(out);
        Ok(last)
    }

    /// Runs the recurrence and returns the top-layer hidden state after
    /// every step (useful for attention-style pooling).
    ///
    /// Hot loops should prefer [`Lstm::forward_sequence_into`], which reuses
    /// a caller-held buffer instead of returning a fresh `Vec`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Lstm::forward`].
    pub fn forward_sequence(&self, binder: &mut Binder<'_, '_>, steps: &[Var]) -> Result<Vec<Var>> {
        let mut out = Vec::with_capacity(steps.len());
        self.forward_sequence_into(binder, steps, &mut out)?;
        Ok(out)
    }

    /// Runs the recurrence, writing the top-layer hidden state of every step
    /// into `out` (cleared first).
    ///
    /// Each step of each layer is a single fused tape node: the layer's
    /// `W_ih`/`W_hh` weights are stacked once per pass
    /// ([`hwpr_autograd::Tape::concat_rows`]) so all four gates come from
    /// one `[batch, 4*hidden]` GEMM, and the hidden/cell states thread
    /// through the steps as one packed `[h | c]` value. Layer outputs are
    /// double-buffered through `out` and a pooled scratch vector, so no
    /// per-layer step list is cloned.
    ///
    /// # Errors
    ///
    /// Returns a config error when `steps` is empty, or a shape error when
    /// step shapes are inconsistent.
    pub fn forward_sequence_into(
        &self,
        binder: &mut Binder<'_, '_>,
        steps: &[Var],
        out: &mut Vec<Var>,
    ) -> Result<()> {
        if steps.is_empty() {
            return Err(NnError::Config("LSTM received an empty sequence".into()));
        }
        let batch = binder.tape().value(steps[0]).rows();
        let h = self.hidden_dim;
        out.clear();
        let mut scratch = binder.tape().scratch_vars();
        for (li, cell) in self.cells.iter().enumerate() {
            let w_ih = binder.param(cell.w_ih);
            let w_hh = binder.param(cell.w_hh);
            let bias = binder.param(cell.bias);
            let tape = binder.tape();
            let w = tape.concat_rows(&[w_ih, w_hh])?;
            let zero_state = tape.alloc(batch, 2 * h);
            let mut hc = tape.leaf(zero_state);
            scratch.clear();
            for i in 0..steps.len() {
                let x = if li == 0 { steps[i] } else { out[i] };
                hc = tape.lstm_step(x, hc, w, bias)?;
                scratch.push(tape.slice_cols(hc, 0, h)?);
            }
            mem::swap(out, &mut scratch);
        }
        binder.tape().recycle_vars(scratch);
        Ok(())
    }

    /// Compiles the recurrence for tape-free inference: each layer's
    /// `[W_ih; W_hh]` gate weight is stacked and packed once — the same
    /// concatenation the taped forward rebuilds (and repacks) every pass.
    pub fn freeze(&self, params: &Params) -> crate::infer::FrozenLstm {
        let stacked = self
            .cells
            .iter()
            .map(|cell| {
                let w = Matrix::concat_rows(&[params.get(cell.w_ih), params.get(cell.w_hh)])
                    .expect("gate weights share 4*hidden columns");
                (w, params.get(cell.bias).clone())
            })
            .collect();
        crate::infer::FrozenLstm::from_parts(stacked, self.input_dim, self.hidden_dim)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hwpr_autograd::Tape;

    fn run(steps_data: &[Matrix], layers: usize) -> (Tape, Var, Params, Lstm) {
        let mut params = Params::new();
        let lstm = Lstm::new(&mut params, "lstm", steps_data[0].cols(), 5, layers, 3);
        let mut tape = Tape::new();
        let mut binder = Binder::new(&mut tape, &params);
        let steps: Vec<Var> = steps_data.iter().map(|m| binder.input(m.clone())).collect();
        let h = lstm.forward(&mut binder, &steps).unwrap();
        (tape, h, params, lstm)
    }

    #[test]
    fn output_shape() {
        let steps = vec![Matrix::ones(3, 2); 4];
        let (tape, h, _, lstm) = run(&steps, 2);
        assert_eq!(tape.value(h).shape(), (3, 5));
        assert_eq!(lstm.layers(), 2);
        assert_eq!(lstm.input_dim(), 2);
        assert_eq!(lstm.hidden_dim(), 5);
    }

    #[test]
    fn hidden_stays_bounded() {
        // tanh/sigmoid gating keeps |h| < 1
        let steps = vec![Matrix::filled(2, 3, 10.0); 6];
        let (tape, h, _, _) = run(&steps, 1);
        assert!(tape.value(h).as_slice().iter().all(|x| x.abs() < 1.0));
    }

    #[test]
    fn empty_sequence_is_config_error() {
        let mut params = Params::new();
        let lstm = Lstm::new(&mut params, "lstm", 2, 3, 1, 0);
        let mut tape = Tape::new();
        let mut binder = Binder::new(&mut tape, &params);
        assert!(matches!(
            lstm.forward(&mut binder, &[]),
            Err(NnError::Config(_))
        ));
    }

    #[test]
    fn sequence_order_matters() {
        let a = Matrix::filled(1, 2, 1.0);
        let b = Matrix::filled(1, 2, -1.0);
        let (tape1, h1, _, _) = run(&[a.clone(), b.clone()], 1);
        let (tape2, h2, _, _) = run(&[b, a], 1);
        assert_ne!(tape1.value(h1), tape2.value(h2));
    }

    #[test]
    fn gradients_reach_all_parameters() {
        let mut params = Params::new();
        let lstm = Lstm::new(&mut params, "lstm", 2, 4, 2, 3);
        let mut tape = Tape::new();
        let mut binder = Binder::for_training(&mut tape, &params);
        let steps: Vec<Var> = (0..3)
            .map(|i| binder.input(Matrix::filled(2, 2, i as f32 * 0.3 - 0.2)))
            .collect();
        let h = lstm.forward(&mut binder, &steps).unwrap();
        let loss = binder.tape().mean_all(h);
        let grads = binder.finish(loss).unwrap();
        // 2 layers x 3 params each
        assert_eq!(grads.iter().filter(|g| g.is_some()).count(), 6);
        for g in grads.into_iter().flatten() {
            assert!(g.norm() > 0.0, "a parameter received a zero gradient");
        }
    }

    /// The pre-fusion per-gate graph, kept verbatim as a reference for the
    /// differential test below.
    fn unfused_forward_sequence(
        lstm: &Lstm,
        binder: &mut Binder<'_, '_>,
        steps: &[Var],
    ) -> Vec<Var> {
        let batch = binder.tape().value(steps[0]).rows();
        let h = lstm.hidden_dim();
        let mut layer_inputs: Vec<Var> = steps.to_vec();
        let mut outputs = Vec::new();
        for (li, cell) in lstm.cells.iter().enumerate() {
            let w_ih = binder.param(cell.w_ih);
            let w_hh = binder.param(cell.w_hh);
            let bias = binder.param(cell.bias);
            let mut hidden = binder.input(Matrix::zeros(batch, h));
            let mut carry = binder.input(Matrix::zeros(batch, h));
            let mut next_inputs = Vec::with_capacity(layer_inputs.len());
            for &x in &layer_inputs {
                let tape = binder.tape();
                let xi = tape.matmul(x, w_ih).unwrap();
                let hh = tape.matmul(hidden, w_hh).unwrap();
                let pre = tape.add(xi, hh).unwrap();
                let gates = tape.add_bias(pre, bias).unwrap();
                let i_gate = tape.slice_cols(gates, 0, h).unwrap();
                let f_gate = tape.slice_cols(gates, h, 2 * h).unwrap();
                let g_gate = tape.slice_cols(gates, 2 * h, 3 * h).unwrap();
                let o_gate = tape.slice_cols(gates, 3 * h, 4 * h).unwrap();
                let i_act = tape.sigmoid(i_gate);
                let f_act = tape.sigmoid(f_gate);
                let g_act = tape.tanh(g_gate);
                let o_act = tape.sigmoid(o_gate);
                let keep = tape.mul(f_act, carry).unwrap();
                let write = tape.mul(i_act, g_act).unwrap();
                carry = tape.add(keep, write).unwrap();
                let c_act = tape.tanh(carry);
                hidden = tape.mul(o_act, c_act).unwrap();
                next_inputs.push(hidden);
            }
            if li == lstm.cells.len() - 1 {
                outputs = next_inputs.clone();
            }
            layer_inputs = next_inputs;
        }
        outputs
    }

    #[test]
    fn fused_sequence_matches_unfused_reference() {
        let mut params = Params::new();
        let lstm = Lstm::new(&mut params, "lstm", 3, 4, 2, 9);
        let steps_data: Vec<Matrix> = (0..4)
            .map(|i| {
                Matrix::from_vec(
                    2,
                    3,
                    (0..6)
                        .map(|j| (((i * 6 + j) * 23 % 17) as f32 - 8.0) * 0.11)
                        .collect(),
                )
                .unwrap()
            })
            .collect();

        // run each graph on its own tape; finish() aligns the gradients
        let run = |fused: bool| -> (Vec<Matrix>, Vec<Option<Matrix>>) {
            let mut tape = Tape::new();
            let mut binder = Binder::for_training(&mut tape, &params);
            let steps: Vec<Var> = steps_data.iter().map(|m| binder.input(m.clone())).collect();
            let outs = if fused {
                lstm.forward_sequence(&mut binder, &steps).unwrap()
            } else {
                unfused_forward_sequence(&lstm, &mut binder, &steps)
            };
            // loss over every step output so all steps receive gradients
            let mut acc = outs[0];
            for &o in &outs[1..] {
                acc = binder.tape().add(acc, o).unwrap();
            }
            let loss = binder.tape().mean_all(acc);
            let values: Vec<Matrix> = outs
                .iter()
                .map(|&o| binder.tape().value(o).clone())
                .collect();
            let grads = binder.finish(loss).unwrap();
            (values, grads)
        };

        let (fused_vals, fused_grads) = run(true);
        let (plain_vals, plain_grads) = run(false);
        assert_eq!(fused_vals.len(), plain_vals.len());
        for (step, (f, p)) in fused_vals.iter().zip(&plain_vals).enumerate() {
            for (a, b) in f.as_slice().iter().zip(p.as_slice()) {
                assert!(
                    (a - b).abs() < 1e-5,
                    "step {step}: fused {a} vs unfused {b}"
                );
            }
        }
        for (idx, (f, p)) in fused_grads.iter().zip(&plain_grads).enumerate() {
            let (f, p) = (f.as_ref().unwrap(), p.as_ref().unwrap());
            for (a, b) in f.as_slice().iter().zip(p.as_slice()) {
                assert!(
                    (a - b).abs() < 1e-4,
                    "param {idx} ({}): fused grad {a} vs unfused {b}",
                    params.name(params.id_at(idx))
                );
            }
        }
    }

    #[test]
    fn forward_sequence_into_reuses_buffer() {
        let mut params = Params::new();
        let lstm = Lstm::new(&mut params, "lstm", 2, 3, 2, 0);
        let mut tape = Tape::new();
        let mut out = Vec::new();
        for _ in 0..3 {
            tape.reset();
            let mut binder = Binder::new(&mut tape, &params);
            let steps: Vec<Var> = (0..4).map(|_| binder.input(Matrix::ones(1, 2))).collect();
            lstm.forward_sequence_into(&mut binder, &steps, &mut out)
                .unwrap();
            assert_eq!(out.len(), 4);
        }
    }

    #[test]
    fn forward_sequence_len_matches_steps() {
        let mut params = Params::new();
        let lstm = Lstm::new(&mut params, "lstm", 2, 3, 1, 0);
        let mut tape = Tape::new();
        let mut binder = Binder::new(&mut tape, &params);
        let steps: Vec<Var> = (0..5).map(|_| binder.input(Matrix::ones(1, 2))).collect();
        let outs = lstm.forward_sequence(&mut binder, &steps).unwrap();
        assert_eq!(outs.len(), 5);
    }
}
