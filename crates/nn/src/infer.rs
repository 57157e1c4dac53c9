//! Tape-free frozen forms of the layers, compiled once from trained
//! parameters for the inference hot path.
//!
//! Each `Frozen*` type is built by its layer's `freeze(&params)` method: it
//! copies the trained values out of [`crate::Params`], packs every GEMM
//! weight into a persistent [`PackedWeight`] panel, and runs the forward
//! pass as direct fused-kernel calls ([`hwpr_autograd::apply_bias_act`],
//! [`hwpr_autograd::lstm_step_frozen`], pooled GCN propagation) — no tape,
//! no op recording, no gradient buffers, and dropout statically elided
//! (dropout is already the identity at inference).
//!
//! # Error budget
//!
//! The frozen-vs-tape contract is a documented error budget, not
//! bit-identity: a frozen forward must stay within **max-abs ≤ 1e-5** of
//! the taped layer with **Kendall τ = 1.0** on the differential fixtures.
//! Budget rather than bits keeps the freeze path free to specialise —
//! division-free activations, fused kernels — without renegotiating the
//! tests each time. In the current implementation the frozen path happens
//! to land on exact bit-equality anyway (the frozen layers reuse the
//! tape's fused pointwise kernels, and the prepacked GEMM is
//! bit-identical to the unpacked driver), but only the budget is
//! contractual. The tape stays the reference implementation, anchored by
//! differential tests in `hwpr-core`; the rational-divide activations the
//! fast kernels replaced live on in `hwpr_tensor::reference` as ground
//! truth.
//!
//! All scratch storage comes from a caller-held [`BufferPool`], so a warmed
//! forward pass performs no heap allocation.

use crate::{NnError, Result};
use hwpr_autograd::{apply_bias_act, lstm_step_frozen, Act, AutogradError};
use hwpr_tensor::{BufferPool, Matrix, PackedWeight};

/// A [`crate::layers::Linear`] compiled for tape-free inference: prepacked
/// weight panel plus a copied bias row.
#[derive(Debug)]
pub struct FrozenLinear {
    weight: PackedWeight,
    bias: Option<Matrix>,
    in_dim: usize,
    out_dim: usize,
}

impl FrozenLinear {
    /// Packs `weight` and copies `bias` out of the parameter store.
    pub(crate) fn from_parts(
        weight: &Matrix,
        bias: Option<&Matrix>,
        in_dim: usize,
        out_dim: usize,
    ) -> Self {
        let mut packed = PackedWeight::new();
        packed.pack(weight);
        Self {
            weight: packed,
            bias: bias.cloned(),
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

    /// `act(x @ W + b)` into `out` (`[batch, out_dim]`): the frozen form of
    /// the fused `linear_act` tape node, sharing its pointwise tail.
    ///
    /// # Errors
    ///
    /// Returns a shape error when `x` or `out` mismatch the layer shape.
    pub fn forward_act_into(&self, x: &Matrix, act: Act, out: &mut Matrix) -> Result<()> {
        x.matmul_prepacked_into(&self.weight, out)
            .map_err(AutogradError::from)?;
        apply_bias_act(out, self.bias.as_ref(), act)?;
        Ok(())
    }
}

/// A [`crate::layers::Mlp`] compiled for tape-free inference. Hidden
/// layers run the fused affine + activation kernel; the final layer stays
/// linear and dropout is statically elided.
#[derive(Debug)]
pub struct FrozenMlp {
    layers: Vec<FrozenLinear>,
    act: Act,
}

impl FrozenMlp {
    /// Assembles a frozen MLP from prepacked layers.
    pub(crate) fn from_parts(layers: Vec<FrozenLinear>, act: Act) -> Self {
        Self { layers, act }
    }

    /// Output dimension of the final layer.
    pub fn output_dim(&self) -> usize {
        self.layers.last().map_or(0, FrozenLinear::out_dim)
    }

    /// Number of affine layers (one GEMM each per forward pass).
    pub fn depth(&self) -> usize {
        self.layers.len()
    }

    /// Applies the network to a pooled `x` (`[batch, input_dim]`),
    /// consuming it and returning a pooled `[batch, output_dim]` result.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from mismatched inputs.
    pub fn forward(&self, pool: &mut BufferPool, x: Matrix) -> Result<Matrix> {
        let _span = hwpr_obs::span("infer.mlp");
        let mut h = x;
        let last = self.layers.len() - 1;
        for (i, layer) in self.layers.iter().enumerate() {
            let act = if i < last { self.act } else { Act::Identity };
            // fully overwritten by the prepacked GEMM: no zero-fill needed
            let mut out = pool.take_uninit(h.rows(), layer.out_dim());
            layer.forward_act_into(&h, act, &mut out)?;
            pool.put(h);
            h = out;
        }
        Ok(h)
    }
}

/// One frozen LSTM layer: the stacked `[W_ih; W_hh]` gate weight packed
/// once (the tape packs the same concatenation per pass) plus its bias.
#[derive(Debug)]
struct FrozenLstmCell {
    weight: PackedWeight,
    bias: Matrix,
    in_dim: usize,
}

/// A [`crate::layers::Lstm`] compiled for tape-free inference.
#[derive(Debug)]
pub struct FrozenLstm {
    cells: Vec<FrozenLstmCell>,
    input_dim: usize,
    hidden_dim: usize,
}

impl FrozenLstm {
    /// Assembles a frozen LSTM; `stacked` holds one `[W_ih; W_hh]` matrix
    /// and one bias row per layer.
    pub(crate) fn from_parts(
        stacked: Vec<(Matrix, Matrix)>,
        input_dim: usize,
        hidden_dim: usize,
    ) -> Self {
        let cells = stacked
            .into_iter()
            .enumerate()
            .map(|(l, (w, bias))| {
                let mut packed = PackedWeight::new();
                packed.pack(&w);
                FrozenLstmCell {
                    weight: packed,
                    bias,
                    in_dim: if l == 0 { input_dim } else { hidden_dim },
                }
            })
            .collect();
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
    /// returns the pooled final hidden state of the top layer
    /// (`[batch, hidden]`).
    ///
    /// The loop is step-major where the taped path is layer-major, but the
    /// dataflow (and therefore every scalar operation's inputs) is
    /// identical, so the result is bit-identical to
    /// [`crate::layers::Lstm::forward`]. Layer states thread through as
    /// packed `[h | c]` matrices; a deeper layer reads the first `hidden`
    /// columns of the layer below's state directly, eliding the tape path's
    /// per-step column slice. All working buffers are checked out of
    /// `pool` **once per layer** and ping-ponged across steps (rather
    /// than cycled through the pool per step — at small recurrence shapes
    /// the per-step pool traffic was measurable); `scratch` is caller-held
    /// and keeps its `Vec` capacities across calls.
    ///
    /// # Errors
    ///
    /// Returns a config error when `steps` is empty, or a shape error when
    /// step shapes are inconsistent.
    pub fn forward(
        &self,
        pool: &mut BufferPool,
        steps: &[Matrix],
        scratch: &mut LstmScratch,
    ) -> Result<Matrix> {
        if steps.is_empty() {
            return Err(NnError::Config("LSTM received an empty sequence".into()));
        }
        let _span = hwpr_obs::span("infer.lstm");
        let batch = steps[0].rows();
        let h = self.hidden_dim;
        let LstmScratch {
            states,
            next,
            xh,
            gates,
        } = scratch;
        // recycle anything a previous erroring call left behind
        for buf in states.drain(..).chain(next.drain(..)) {
            pool.put(buf);
        }
        for buf in xh.drain(..).chain(gates.drain(..)) {
            pool.put(buf);
        }
        for cell in &self.cells {
            // pool.take zero-fills, matching the taped zero initial [h | c];
            // the rest are fully overwritten by every lstm_step_frozen
            states.push(pool.take(batch, 2 * h));
            next.push(pool.take_uninit(batch, 2 * h));
            xh.push(pool.take_uninit(batch, cell.in_dim + h));
            gates.push(pool.take_uninit(batch, 4 * h));
        }
        for step in steps {
            for (l, cell) in self.cells.iter().enumerate() {
                {
                    // layer l > 0 reads the h-part of the layer below's
                    // state, already updated for this step
                    let x = if l == 0 { step } else { &states[l - 1] };
                    lstm_step_frozen(
                        x,
                        cell.in_dim,
                        &states[l],
                        &cell.weight,
                        &cell.bias,
                        &mut xh[l],
                        &mut gates[l],
                        &mut next[l],
                    )?;
                }
                // ping-pong: the freshly-written state becomes current;
                // the old buffer is next step's (fully overwritten) target
                std::mem::swap(&mut states[l], &mut next[l]);
            }
        }
        let mut out = pool.take_uninit(batch, h);
        let top = states.last().expect("at least one layer");
        for r in 0..batch {
            out.row_mut(r).copy_from_slice(&top.row(r)[..h]);
        }
        for buf in states.drain(..).chain(next.drain(..)) {
            pool.put(buf);
        }
        for buf in xh.drain(..).chain(gates.drain(..)) {
            pool.put(buf);
        }
        Ok(out)
    }
}

/// Caller-held working set for [`FrozenLstm::forward`]: per-layer state,
/// next-state, `[x | h]` staging and gate buffers. The `Vec`s keep their
/// capacity across calls; the matrices inside are pooled per call.
#[derive(Debug, Default)]
pub struct LstmScratch {
    states: Vec<Matrix>,
    next: Vec<Matrix>,
    xh: Vec<Matrix>,
    gates: Vec<Matrix>,
}

/// A [`crate::layers::GcnLayer`] compiled for tape-free inference.
#[derive(Debug)]
pub struct FrozenGcnLayer {
    weight: PackedWeight,
    bias: Matrix,
    out_dim: usize,
}

impl FrozenGcnLayer {
    /// Packs the layer weight and copies the bias.
    pub(crate) fn from_parts(weight: &Matrix, bias: &Matrix, out_dim: usize) -> Self {
        let mut packed = PackedWeight::new();
        packed.pack(weight);
        Self {
            weight: packed,
            bias: bias.clone(),
            out_dim,
        }
    }

    /// Output node-feature dimension.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// `relu(Â · x · W + b)` per node block: consumes the pooled
    /// `[batch * nodes, in_dim]` input and returns the pooled output.
    /// Adjacencies are borrowed per sample, exactly as in the taped
    /// [`crate::layers::GcnLayer::forward`].
    ///
    /// # Errors
    ///
    /// Returns a shape error when the block structure or feature dimension
    /// is inconsistent.
    pub fn forward(
        &self,
        pool: &mut BufferPool,
        x: Matrix,
        adjacency: &[impl std::borrow::Borrow<Matrix>],
        nodes: usize,
    ) -> Result<Matrix> {
        self.forward_each(pool, x, adjacency.len(), |b| adjacency[b].borrow(), nodes)
    }

    /// [`FrozenGcnLayer::forward`] with lazily fetched adjacency: block `b`
    /// of the batch is aggregated against `adj_of(b)` via the direct
    /// row-axpy kernel (no per-sample GEMM dispatch, no staging copies),
    /// then the whole `[batch * nodes, out_dim]` product runs as one
    /// prepacked GEMM. Bit-identical to the taped layer modulo the sign of
    /// zero (see `block_left_matmul_each_into`).
    ///
    /// # Errors
    ///
    /// Returns a shape error when the block structure or feature dimension
    /// is inconsistent.
    pub fn forward_each<'a>(
        &self,
        pool: &mut BufferPool,
        x: Matrix,
        blocks: usize,
        adj_of: impl Fn(usize) -> &'a Matrix,
        nodes: usize,
    ) -> Result<Matrix> {
        let _span = hwpr_obs::span("infer.gcn");
        let mut agg = pool.take_uninit(x.rows(), x.cols());
        x.block_left_matmul_each_into(blocks, nodes, adj_of, &mut agg)
            .map_err(AutogradError::from)?;
        pool.put(x);
        let mut out = pool.take_uninit(agg.rows(), self.out_dim);
        agg.matmul_prepacked_into(&self.weight, &mut out)
            .map_err(AutogradError::from)?;
        apply_bias_act(&mut out, Some(&self.bias), Act::Relu)?;
        pool.put(agg);
        Ok(out)
    }

    /// [`FrozenGcnLayer::forward_each`] restricted to one output node per
    /// sample: aggregates only adjacency row `adj_row_of(b)` (the global
    /// readout node's row) per block and returns `[blocks, out_dim]` —
    /// the rows the encoder readout actually consumes. Only valid for the
    /// **last** layer of a stack, where the other node rows are dead; the
    /// produced rows are bit-identical to the corresponding rows of
    /// [`FrozenGcnLayer::forward_each`] (see
    /// `block_left_matmul_row_each_into`).
    ///
    /// # Errors
    ///
    /// Returns a shape error when the block structure or feature dimension
    /// is inconsistent.
    pub fn forward_global_each<'a>(
        &self,
        pool: &mut BufferPool,
        x: Matrix,
        blocks: usize,
        adj_row_of: impl Fn(usize) -> &'a [f32],
        nodes: usize,
    ) -> Result<Matrix> {
        let _span = hwpr_obs::span("infer.gcn");
        let mut agg = pool.take_uninit(blocks, x.cols());
        x.block_left_matmul_row_each_into(blocks, nodes, adj_row_of, &mut agg)
            .map_err(AutogradError::from)?;
        pool.put(x);
        let mut out = pool.take_uninit(blocks, self.out_dim);
        agg.matmul_prepacked_into(&self.weight, &mut out)
            .map_err(AutogradError::from)?;
        apply_bias_act(&mut out, Some(&self.bias), Act::Relu)?;
        pool.put(agg);
        Ok(out)
    }

    /// The GEMM + bias + ReLU half of [`FrozenGcnLayer::forward_each`]
    /// against a borrowed, already-aggregated input: callers that share
    /// one `blockdiag(A) @ X` staging across several layer stacks (the
    /// aggregation is weight-independent) run each stack's first layer
    /// through this entry point.
    ///
    /// # Errors
    ///
    /// Returns a shape error when `agg`'s width does not match the layer.
    pub fn forward_from_agg(&self, pool: &mut BufferPool, agg: &Matrix) -> Result<Matrix> {
        let _span = hwpr_obs::span("infer.gcn");
        let mut out = pool.take_uninit(agg.rows(), self.out_dim);
        agg.matmul_prepacked_into(&self.weight, &mut out)
            .map_err(AutogradError::from)?;
        apply_bias_act(&mut out, Some(&self.bias), Act::Relu)?;
        Ok(out)
    }
}

/// An [`crate::layers::Embedding`] compiled for tape-free inference (a
/// copied table; lookup is a row gather).
#[derive(Debug)]
pub struct FrozenEmbedding {
    table: Matrix,
    vocab: usize,
    dim: usize,
}

impl FrozenEmbedding {
    /// Copies the trained table out of the parameter store.
    pub(crate) fn from_parts(table: Matrix, vocab: usize, dim: usize) -> Self {
        Self { table, vocab, dim }
    }

    /// Embedding dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Embeds `ids` into the caller's `[ids.len(), dim]` output rows.
    ///
    /// # Errors
    ///
    /// Returns an index error if any id is `>= vocab` (mirroring the taped
    /// `gather_rows`).
    pub fn forward_into(&self, ids: &[usize], out: &mut Matrix) -> Result<()> {
        for (r, &id) in ids.iter().enumerate() {
            if id >= self.vocab {
                return Err(NnError::Autograd(AutogradError::IndexOutOfRange {
                    index: id,
                    rows: self.vocab,
                }));
            }
            out.row_mut(r).copy_from_slice(self.table.row(id));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Embedding, GcnLayer, LayerRng, Linear, Lstm, Mlp, MlpConfig};
    use crate::{Binder, Params};
    use hwpr_autograd::{Tape, Var};
    use hwpr_tensor::Init;
    use rand_chacha::rand_core::SeedableRng;

    fn det_matrix(rows: usize, cols: usize, salt: usize) -> Matrix {
        Matrix::from_vec(
            rows,
            cols,
            (0..rows * cols)
                .map(|i| (((i * 31 + salt * 17) % 23) as f32 - 11.0) * 0.09)
                .collect(),
        )
        .unwrap()
    }

    /// The frozen-vs-tape error budget (see the module docs): max-abs
    /// difference at or below `1e-5`. The two paths currently agree
    /// bitwise, but only the budget is contractual.
    fn assert_within_budget(got: &[f32], want: &[f32]) {
        assert_eq!(got.len(), want.len());
        let worst = got
            .iter()
            .zip(want)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        assert!(worst <= 1e-5, "frozen-vs-tape max-abs {worst} > 1e-5");
    }

    #[test]
    fn frozen_linear_matches_tape_within_budget() {
        let mut params = Params::new();
        let fc = Linear::new(&mut params, "fc", 3, 2, Init::Xavier, 5, true);
        let x = det_matrix(4, 3, 1);
        let mut tape = Tape::new();
        let mut binder = Binder::new(&mut tape, &params);
        let xv = binder.input(x.clone());
        let y = fc.forward_act(&mut binder, xv, Act::Tanh).unwrap();
        let expected = tape.value(y).clone();

        let frozen = fc.freeze(&params);
        let mut out = Matrix::zeros(4, 2);
        frozen.forward_act_into(&x, Act::Tanh, &mut out).unwrap();
        assert_within_budget(out.as_slice(), expected.as_slice());
    }

    #[test]
    fn frozen_mlp_matches_tape_within_budget() {
        let mut params = Params::new();
        let mut cfg = MlpConfig::new(3, vec![5, 4], 2, 11);
        cfg.dropout = 0.3; // elided at inference on both paths
        let mlp = Mlp::new(&mut params, "m", &cfg).unwrap();
        let x = det_matrix(6, 3, 2);
        let mut tape = Tape::new();
        let mut binder = Binder::new(&mut tape, &params);
        let xv = binder.input(x.clone());
        let mut rng = LayerRng::seed_from_u64(0);
        let y = mlp.forward(&mut binder, xv, &mut rng).unwrap();
        let expected = tape.value(y).clone();

        let frozen = mlp.freeze(&params);
        assert_eq!(frozen.depth(), 3);
        assert_eq!(frozen.output_dim(), 2);
        let mut pool = BufferPool::new();
        let input = pool.take_copy(&x);
        let out = frozen.forward(&mut pool, input).unwrap();
        assert_within_budget(out.as_slice(), expected.as_slice());
    }

    #[test]
    fn frozen_lstm_matches_tape_within_budget() {
        let mut params = Params::new();
        let lstm = Lstm::new(&mut params, "lstm", 3, 4, 2, 9);
        let steps_data: Vec<Matrix> = (0..4).map(|i| det_matrix(2, 3, i + 3)).collect();
        let mut tape = Tape::new();
        let mut binder = Binder::new(&mut tape, &params);
        let steps: Vec<Var> = steps_data.iter().map(|m| binder.input(m.clone())).collect();
        let h = lstm.forward(&mut binder, &steps).unwrap();
        let expected = tape.value(h).clone();

        let frozen = lstm.freeze(&params);
        assert_eq!(frozen.layers(), 2);
        assert_eq!(frozen.hidden_dim(), 4);
        let mut pool = BufferPool::new();
        let mut scratch = LstmScratch::default();
        let out = frozen
            .forward(&mut pool, &steps_data, &mut scratch)
            .unwrap();
        assert_within_budget(out.as_slice(), expected.as_slice());
        assert!(frozen.forward(&mut pool, &[], &mut scratch).is_err());
    }

    #[test]
    fn frozen_gcn_matches_tape_within_budget() {
        let mut params = Params::new();
        let gcn = GcnLayer::new(&mut params, "g", 4, 6, 1);
        let adj0 =
            crate::layers::normalize_adjacency(&Matrix::from_rows(&[&[0.0, 1.0], &[0.0, 0.0]]));
        let adj1 = Matrix::identity(2);
        let x = det_matrix(4, 4, 7); // batch 2, nodes 2
        let mut tape = Tape::new();
        let mut binder = Binder::new(&mut tape, &params);
        let xv = binder.input(x.clone());
        let y = gcn
            .forward(&mut binder, xv, &[adj0.clone(), adj1.clone()], 2)
            .unwrap();
        let expected = tape.value(y).clone();

        let frozen = gcn.freeze(&params);
        assert_eq!(frozen.out_dim(), 6);
        let mut pool = BufferPool::new();
        let input = pool.take_copy(&x);
        let out = frozen
            .forward(&mut pool, input, &[&adj0, &adj1], 2)
            .unwrap();
        assert_within_budget(out.as_slice(), expected.as_slice());
    }

    #[test]
    fn frozen_embedding_matches_tape_and_validates() {
        let mut params = Params::new();
        let emb = Embedding::new(&mut params, "emb", 5, 3, 9);
        let ids = [0usize, 4, 2, 4];
        let mut tape = Tape::new();
        let mut binder = Binder::new(&mut tape, &params);
        let y = emb.forward(&mut binder, &ids).unwrap();
        let expected = tape.value(y).clone();

        let frozen = emb.freeze(&params);
        assert_eq!(frozen.dim(), 3);
        let mut out = Matrix::zeros(4, 3);
        frozen.forward_into(&ids, &mut out).unwrap();
        assert_eq!(out.as_slice(), expected.as_slice());
        assert!(frozen.forward_into(&[5], &mut out).is_err());
    }
}
