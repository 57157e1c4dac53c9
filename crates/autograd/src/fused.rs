//! Fused kernels for the training hot path.
//!
//! Two multi-op fusions that dominate the surrogate's step time:
//!
//! * [`Tape::linear_act`] — `act(x @ w [+ bias])` as one GEMM plus one
//!   pointwise pass (replaces `matmul` + `add_bias` + activation, three
//!   nodes and three full-size temporaries, with a single node);
//! * [`Tape::lstm_step`] — a whole LSTM cell step as one node: a single
//!   `[batch, 4·hidden]` gate GEMM against the concatenated
//!   `[W_ih; W_hh]` weight, one fused bias+sigmoid/tanh gate pass, and the
//!   state update, producing a packed `[h | c]` output. The unfused
//!   equivalent records ~14 nodes per step.
//!
//! Both store exactly what their backward rule needs (the fused LSTM saves
//! the packed input and post-activation gates) and draw all storage from
//! the tape pool, so they are allocation-free in steady state.

use crate::error::AutogradError;
use crate::tape::{Act, Op, Tape, Var};
use crate::Result;
use hwpr_tensor::{
    fast_sigmoid_block, fast_tanh, fast_tanh_block, Matrix, PackedWeight, ShapeError,
};

/// Applies an optional row-broadcast `bias` and activation `act` in place:
/// the exact pointwise tail of [`Tape::linear_act`], factored out so the
/// tape-free frozen inference path runs the same loop and cannot drift.
///
/// # Errors
///
/// Returns a shape error when `bias` is not `[1, value.cols()]`.
pub fn apply_bias_act(value: &mut Matrix, bias: Option<&Matrix>, act: Act) -> Result<()> {
    let n = value.cols();
    if let Some(bv) = bias {
        if bv.shape() != (1, n) {
            return Err(AutogradError::Shape(ShapeError::new(
                "apply_bias_act",
                (1, n),
                bv.shape(),
            )));
        }
        let bias_row = bv.as_slice();
        for row in value.as_mut_slice().chunks_exact_mut(n) {
            for (v, &bias_v) in row.iter_mut().zip(bias_row) {
                *v = act.apply(*v + bias_v);
            }
        }
    } else {
        // Whole-panel block kernels for the saturating activations: same
        // scalar arithmetic lane for lane (`fast_*_block` is bit-identical
        // to `Act::apply`), but the slice form hands the vectoriser one
        // long branch-free loop over the `[batch, n]` panel.
        match act {
            Act::Identity => {}
            Act::Tanh => fast_tanh_block(value.as_mut_slice()),
            Act::Sigmoid => fast_sigmoid_block(value.as_mut_slice()),
            _ => value.map_inplace(|v| act.apply(v)),
        }
    }
    Ok(())
}

/// Packs `[x | h_prev]` rows into `xh`: the forward staging step shared by
/// [`Tape::lstm_step`] and the frozen path. Only the first `input` columns
/// of each `x` row are read, so a packed `[h | c]` layer state can feed the
/// next layer without a column slice.
pub fn lstm_pack_xh(x: &Matrix, input: usize, hc: &Matrix, hidden: usize, xh: &mut Matrix) {
    for r in 0..x.rows() {
        let row = xh.row_mut(r);
        row[..input].copy_from_slice(&x.row(r)[..input]);
        row[input..].copy_from_slice(&hc.row(r)[..hidden]);
    }
}

/// Fused bias + gate activations in place: i, f, o sigmoid and g tanh on
/// the `[batch, 4·hidden]` pre-activation `gates` (gate order `[i f g o]`).
/// Each gate block is a contiguous slice processed by a branch-free
/// `fast_sigmoid`/`fast_tanh` loop the auto-vectoriser handles.
pub fn lstm_bias_gates(gates: &mut Matrix, bias: &Matrix, hidden: usize) {
    let width = 4 * hidden;
    let bv = bias.as_slice();
    // One uniform pass over each full `[i f g o]` row instead of three
    // narrow per-gate loops: at practical hidden sizes a single gate
    // block is shorter than a vector register, which forces the split
    // form onto the scalar epilogue. `fast_sigmoid` is exactly
    // `0.5 + 0.5·fast_tanh(0.5·x)`, and both selector constants are
    // powers of two (the pre-scale is exact), so evaluating every lane
    // through `fast_tanh` with a per-lane affine select is bit-identical
    // to the per-gate branch.
    if width <= MAX_GATE_WIDTH {
        // Every row shares the same lane classification, so stage the
        // selector constants per column once and split the work into a
        // prescale sweep, one [`fast_tanh_block`] over the **whole**
        // `[batch, 4·hidden]` panel (a single long contiguous loop with
        // no per-row epilogue), and an affine output sweep. Each lane
        // sees exactly the arithmetic of the fallback loop below.
        let mut scale = [0.0f32; MAX_GATE_WIDTH];
        let mut base = [0.0f32; MAX_GATE_WIDTH];
        let mut gain = [0.0f32; MAX_GATE_WIDTH];
        for j in 0..width {
            let is_tanh_lane = j >= 2 * hidden && j < 3 * hidden;
            (scale[j], base[j], gain[j]) = if is_tanh_lane {
                (1.0, 0.0, 1.0)
            } else {
                (0.5, 0.5, 0.5)
            };
        }
        let (sc, ba, ga) = (&scale[..width], &base[..width], &gain[..width]);
        for row in gates.as_mut_slice().chunks_exact_mut(width) {
            for (g, (&b, &s)) in row.iter_mut().zip(bv.iter().zip(sc)) {
                *g = s * (*g + b);
            }
        }
        fast_tanh_block(gates.as_mut_slice());
        for row in gates.as_mut_slice().chunks_exact_mut(width) {
            for (g, (&a, &m)) in row.iter_mut().zip(ba.iter().zip(ga)) {
                *g = a + m * *g;
            }
        }
        return;
    }
    for row in gates.as_mut_slice().chunks_exact_mut(width) {
        for (j, (g, &b)) in row.iter_mut().zip(bv).enumerate() {
            let is_tanh_lane = j >= 2 * hidden && j < 3 * hidden;
            let (scale, base, gain) = if is_tanh_lane {
                (1.0, 0.0, 1.0)
            } else {
                (0.5, 0.5, 0.5)
            };
            let t = fast_tanh(scale * (*g + b));
            *g = base + gain * t;
        }
    }
}

/// Widest `4·hidden` gate row the staged [`lstm_bias_gates`] fast path
/// covers from stack-resident selector arrays (hidden sizes ≤ 64).
const MAX_GATE_WIDTH: usize = 256;

/// LSTM state update from post-activation gates: `c_new = f·c_prev + i·g`,
/// `h_new = o·fast_tanh(c_new)`, written into the packed `[h_new | c_new]`
/// output.
///
/// One staged path for every hidden size. Blocks of rows write `c_new`
/// **contiguously** (no pad lanes) into a `STAGE`-lane stack buffer, one
/// [`fast_tanh_block`] pass runs over the whole block, and a second sweep
/// forms `h_new`. A per-row loop with `fast_tanh` inlined ran at scalar
/// speed at hidden 64 (too few iterations per row for the vectorised
/// body); the staged tanh pass is one long branch-free loop over several
/// rows that compiles to full-width FMA chains. A row wider than the
/// buffer is staged in buffer-sized column pieces. Every lane sees
/// exactly the scalar arithmetic `f·c + i·g` and `o·fast_tanh(c)`, so
/// the bits do not depend on the hidden size or the batch width.
pub fn lstm_state_update(gates: &Matrix, hc_prev: &Matrix, hidden: usize, out: &mut Matrix) {
    const STAGE: usize = 256;
    if hidden == 0 {
        return;
    }
    let piece = hidden.min(STAGE);
    let block_rows = STAGE / piece;
    let (w4, w2) = (4 * hidden, 2 * hidden);
    let rows = gates.rows();
    let gs_all = gates.as_slice();
    let ps_all = hc_prev.as_slice();
    let os_all = out.as_mut_slice();
    let mut stage = [0.0f32; STAGE];
    for r in (0..rows).step_by(block_rows) {
        let blk = block_rows.min(rows - r);
        let gs = &gs_all[r * w4..(r + blk) * w4];
        let ps = &ps_all[r * w2..(r + blk) * w2];
        let os = &mut os_all[r * w2..(r + blk) * w2];
        for j0 in (0..hidden).step_by(piece) {
            let wj = piece.min(hidden - j0);
            let lanes_all = &mut stage[..blk * wj];
            for ((gr, pr), (or_, lanes)) in gs
                .chunks_exact(w4)
                .zip(ps.chunks_exact(w2))
                .zip(os.chunks_exact_mut(w2).zip(lanes_all.chunks_exact_mut(wj)))
            {
                let i_g = &gr[j0..j0 + wj];
                let f_g = &gr[hidden + j0..hidden + j0 + wj];
                let g_g = &gr[2 * hidden + j0..2 * hidden + j0 + wj];
                let c_prev = &pr[hidden + j0..hidden + j0 + wj];
                let c_out = &mut or_[hidden + j0..hidden + j0 + wj];
                for ((c_o, lane), ((&i, &f), (&g, &cp))) in c_out
                    .iter_mut()
                    .zip(lanes.iter_mut())
                    .zip(i_g.iter().zip(f_g).zip(g_g.iter().zip(c_prev)))
                {
                    let c_new = f * cp + i * g;
                    *c_o = c_new;
                    *lane = c_new;
                }
            }
            fast_tanh_block(lanes_all);
            for (gr, (or_, lanes)) in gs
                .chunks_exact(w4)
                .zip(os.chunks_exact_mut(w2).zip(lanes_all.chunks_exact(wj)))
            {
                let o_g = &gr[3 * hidden + j0..3 * hidden + j0 + wj];
                let h_out = &mut or_[j0..j0 + wj];
                for ((h, &o), &t) in h_out.iter_mut().zip(o_g).zip(lanes) {
                    *h = o * t;
                }
            }
        }
    }
}

/// Tape-free fused LSTM cell step against a prepacked gate weight: the
/// frozen-inference form of [`Tape::lstm_step`], built from the same three
/// stages (pack, bias+gates, state update) so the two are bit-identical.
///
/// `x` may be wider than `input` (only its first `input` columns are read),
/// letting a previous layer's packed `[h | c]` state feed the next layer
/// directly. `xh` (`[batch, input + hidden]`) and `gates`
/// (`[batch, 4·hidden]`) are caller-provided scratch; `out` receives the
/// packed `[h_new | c_new]` next state.
///
/// # Errors
///
/// Returns a shape error when the prepacked weight does not match the
/// staged `xh`/`gates` shapes.
#[allow(clippy::too_many_arguments)]
pub fn lstm_step_frozen(
    x: &Matrix,
    input: usize,
    hc: &Matrix,
    w: &PackedWeight,
    bias: &Matrix,
    xh: &mut Matrix,
    gates: &mut Matrix,
    out: &mut Matrix,
) -> Result<()> {
    let hidden = hc.cols() / 2;
    lstm_pack_xh(x, input, hc, hidden, xh);
    xh.matmul_prepacked_into(w, gates)?;
    lstm_bias_gates(gates, bias, hidden);
    lstm_state_update(gates, hc, hidden, out);
    Ok(())
}

impl Tape {
    /// Fused affine + activation: `act(x @ w + bias)` in one node.
    ///
    /// `x` is `[batch, in]`, `w` is `[in, out]` and `bias`, when given, is
    /// `[1, out]`. Pass [`Act::Identity`] for a plain (optionally biased)
    /// matmul that still skips the intermediate nodes.
    ///
    /// # Errors
    ///
    /// Returns a shape error when the operand shapes are inconsistent.
    pub fn linear_act(&mut self, x: Var, w: Var, bias: Option<Var>, act: Act) -> Result<Var> {
        let (m, _) = self.nodes[x.0].value.shape();
        let n = self.nodes[w.0].value.cols();
        let mut value = self.pool.take(m, n);
        self.nodes[x.0]
            .value
            .matmul_into(&self.nodes[w.0].value, &mut value)?;
        if let Err(e) = apply_bias_act(&mut value, bias.map(|b| &self.nodes[b.0].value), act) {
            self.pool.put(value);
            return Err(e);
        }
        Ok(self.push(value, Op::LinearAct { x, w, bias, act }))
    }

    /// Fused LSTM cell step.
    ///
    /// `x` is the step input `[batch, in]`, `hc` the packed previous state
    /// `[h_prev | c_prev]` of shape `[batch, 2·hidden]`, `w` the stacked
    /// weight `[W_ih; W_hh]` of shape `[in + hidden, 4·hidden]` and `bias`
    /// the gate bias `[1, 4·hidden]`. Gate order is `[i f g o]`. Returns
    /// the packed next state `[h_new | c_new]`, ready to feed the next
    /// step's `hc` without slicing; take `slice_cols(out, 0, hidden)` for
    /// the hidden output only.
    ///
    /// # Errors
    ///
    /// Returns a shape error when the operand shapes are inconsistent.
    pub fn lstm_step(&mut self, x: Var, hc: Var, w: Var, bias: Var) -> Result<Var> {
        let (batch, input) = self.nodes[x.0].value.shape();
        let hc_shape = self.nodes[hc.0].value.shape();
        let w_shape = self.nodes[w.0].value.shape();
        let bias_shape = self.nodes[bias.0].value.shape();
        let hidden = hc_shape.1 / 2;
        if hidden == 0 || hc_shape != (batch, 2 * hidden) || !hc_shape.1.is_multiple_of(2) {
            return Err(AutogradError::Shape(ShapeError::new(
                "lstm_step",
                (batch, 2 * hidden.max(1)),
                hc_shape,
            )));
        }
        if w_shape != (input + hidden, 4 * hidden) {
            return Err(AutogradError::Shape(ShapeError::new(
                "lstm_step",
                (input + hidden, 4 * hidden),
                w_shape,
            )));
        }
        if bias_shape != (1, 4 * hidden) {
            return Err(AutogradError::Shape(ShapeError::new(
                "lstm_step",
                (1, 4 * hidden),
                bias_shape,
            )));
        }

        // pack [x | h_prev] once; it feeds the gate GEMM forward and the
        // weight-gradient GEMM backward
        let mut xh = self.pool.take(batch, input + hidden);
        lstm_pack_xh(
            &self.nodes[x.0].value,
            input,
            &self.nodes[hc.0].value,
            hidden,
            &mut xh,
        );

        // one [batch, 4·hidden] GEMM for all four gates, against weight
        // panels packed once per pass and shared by every sequence step
        let mut gates = self.pool.take(batch, 4 * hidden);
        let pack = match self.packs.take(w.0, false) {
            Some(pack) => pack,
            None => {
                let mut pack = self.packs.spare();
                pack.pack(&self.nodes[w.0].value);
                pack
            }
        };
        xh.matmul_prepacked_into(&pack, &mut gates)?;
        self.packs.put(w.0, false, pack);

        // fused bias + gate activations (i, f, o sigmoid; g tanh) followed
        // by the state update — the same shared stages the frozen path
        // runs, so taped and tape-free inference stay bit-identical. libm
        // `exp`/`tanh` here used to cost more than the gate GEMM.
        lstm_bias_gates(&mut gates, &self.nodes[bias.0].value, hidden);
        let mut value = self.pool.take(batch, 2 * hidden);
        lstm_state_update(&gates, &self.nodes[hc.0].value, hidden, &mut value);

        Ok(self.push(
            value,
            Op::LstmStep {
                x,
                hc,
                w,
                bias,
                xh,
                gates,
            },
        ))
    }

    pub(crate) fn backprop_linear_act(
        &mut self,
        i: usize,
        x: Var,
        w: Var,
        bias: Option<Var>,
        act: Act,
        grad: &Matrix,
    ) -> Result<()> {
        let (m, n) = grad.shape();
        // gradient at the pre-activation, via the stored output y
        let mut dpre = self.pool.take(m, n);
        {
            let y = self.nodes[i].value.as_slice();
            for ((d, &g), &yv) in dpre.as_mut_slice().iter_mut().zip(grad.as_slice()).zip(y) {
                *d = g * act.dapply(yv);
            }
        }
        let k = self.nodes[x.0].value.cols();
        let mut dx = self.pool.take(m, k);
        dpre.matmul_nt_into(&self.nodes[w.0].value, &mut dx)?;
        // dw and db accumulate straight into the gradient slots (GEMM is
        // natively `C +=`), skipping a zeroed temporary per contribution
        self.ensure_grad(w);
        let mut dw = self.nodes[w.0].grad.take().expect("ensured above");
        self.nodes[x.0].value.matmul_tn_acc(&dpre, &mut dw)?;
        self.nodes[w.0].grad = Some(dw);
        if let Some(b) = bias {
            self.ensure_grad(b);
            let mut db = self.nodes[b.0].grad.take().expect("ensured above");
            dpre.sum_rows_acc(&mut db);
            self.nodes[b.0].grad = Some(db);
        }
        self.accumulate(x, dx);
        self.pool.put(dpre);
        Ok(())
    }

    #[allow(clippy::too_many_arguments)]
    pub(crate) fn backprop_lstm_step(
        &mut self,
        i: usize,
        x: Var,
        hc: Var,
        w: Var,
        bias: Var,
        xh: &Matrix,
        gates: &Matrix,
        grad: &Matrix,
    ) -> Result<()> {
        let (batch, two_h) = grad.shape();
        let hidden = two_h / 2;
        let input = self.nodes[x.0].value.cols();

        let mut dpre = self.pool.take(batch, 4 * hidden);
        let mut dhc = self.pool.take(batch, 2 * hidden);
        {
            let value = &self.nodes[i].value; // [h_new | c_new]
            let hcv = &self.nodes[hc.0].value; // [h_prev | c_prev]
            for r in 0..batch {
                let gr = gates.row(r);
                let (i_g, rest) = gr.split_at(hidden);
                let (f_g, rest) = rest.split_at(hidden);
                let (g_g, o_g) = rest.split_at(hidden);
                let c_new = &value.row(r)[hidden..];
                let c_prev = &hcv.row(r)[hidden..];
                let (dh, dc_up) = grad.row(r).split_at(hidden);
                let (d_i, rest) = dpre.row_mut(r).split_at_mut(hidden);
                let (d_f, rest) = rest.split_at_mut(hidden);
                let (d_g, d_o) = rest.split_at_mut(hidden);
                let dc_out = &mut dhc.row_mut(r)[hidden..];
                for j in 0..hidden {
                    // must match the forward's fast_tanh so the stored
                    // h = o·tanh(c) and its derivative stay consistent
                    let tanh_c = fast_tanh(c_new[j]);
                    let dc_tot = dc_up[j] + dh[j] * o_g[j] * (1.0 - tanh_c * tanh_c);
                    d_i[j] = dc_tot * g_g[j] * i_g[j] * (1.0 - i_g[j]);
                    d_f[j] = dc_tot * c_prev[j] * f_g[j] * (1.0 - f_g[j]);
                    d_g[j] = dc_tot * i_g[j] * (1.0 - g_g[j] * g_g[j]);
                    d_o[j] = dh[j] * tanh_c * o_g[j] * (1.0 - o_g[j]);
                    dc_out[j] = dc_tot * f_g[j];
                }
            }
        }

        // dxh = dpre @ w^T splits into dx and dh_prev; w^T is packed once
        // per backward pass and shared by every step's backprop
        let mut dxh = self.pool.take(batch, input + hidden);
        let pack = match self.packs.take(w.0, true) {
            Some(pack) => pack,
            None => {
                let mut pack = self.packs.spare();
                pack.pack_transposed(&self.nodes[w.0].value);
                pack
            }
        };
        dpre.matmul_prepacked_into(&pack, &mut dxh)?;
        self.packs.put(w.0, true, pack);
        let mut dx = self.pool.take(batch, input);
        for r in 0..batch {
            let src = dxh.row(r);
            dx.row_mut(r).copy_from_slice(&src[..input]);
        }
        for r in 0..batch {
            let (head, _) = dhc.row_mut(r).split_at_mut(hidden);
            head.copy_from_slice(&dxh.row(r)[input..]);
        }

        // the weight and bias gradients accumulate across all sequence
        // steps; sum each step's contribution straight into the gradient
        // slot (GEMM is natively `C +=`) instead of filling and adding a
        // per-step temporary
        self.ensure_grad(w);
        let mut dw = self.nodes[w.0].grad.take().expect("ensured above");
        xh.matmul_tn_acc(&dpre, &mut dw)?;
        self.nodes[w.0].grad = Some(dw);
        self.ensure_grad(bias);
        let mut db = self.nodes[bias.0].grad.take().expect("ensured above");
        dpre.sum_rows_acc(&mut db);
        self.nodes[bias.0].grad = Some(db);

        self.accumulate(x, dx);
        self.accumulate(hc, dhc);
        self.pool.put(dpre);
        self.pool.put(dxh);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::finite_difference_check;
    use hwpr_tensor::reference;

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

    #[test]
    fn linear_act_gradients_all_activations() {
        for act in [Act::Identity, Act::Tanh, Act::Sigmoid] {
            // non-square with bias
            finite_difference_check(&[(2, 3), (3, 4), (1, 4)], move |tape, vars| {
                let y = tape.linear_act(vars[0], vars[1], Some(vars[2]), act)?;
                Ok(tape.mean_all(y))
            });
            // batch = 1, no bias
            finite_difference_check(&[(1, 3), (3, 2)], move |tape, vars| {
                let y = tape.linear_act(vars[0], vars[1], None, act)?;
                Ok(tape.mean_all(y))
            });
        }
    }

    #[test]
    fn linear_act_relu_gradient_away_from_kink() {
        finite_difference_check(&[(2, 3), (3, 2)], |tape, vars| {
            // bias shifts pre-activations away from the ReLU kink
            let bias = tape.leaf(Matrix::filled(1, 2, 0.4));
            let y = tape.linear_act(vars[0], vars[1], Some(bias), Act::Relu)?;
            Ok(tape.mean_all(y))
        });
    }

    #[test]
    fn linear_act_matches_unfused_graph_and_reference() {
        let x = det_matrix(3, 5, 1);
        let w = det_matrix(5, 4, 2);
        let b = det_matrix(1, 4, 3);

        // fused pass
        let mut fused = Tape::new();
        let (fx, fw, fb) = (
            fused.leaf(x.clone()),
            fused.leaf(w.clone()),
            fused.leaf(b.clone()),
        );
        let fy = fused.linear_act(fx, fw, Some(fb), Act::Tanh).unwrap();
        let floss = fused.mean_all(fy);
        fused.backward(floss).unwrap();

        // unfused tape graph
        let mut plain = Tape::new();
        let (px, pw, pb) = (
            plain.leaf(x.clone()),
            plain.leaf(w.clone()),
            plain.leaf(b.clone()),
        );
        let mm = plain.matmul(px, pw).unwrap();
        let aff = plain.add_bias(mm, pb).unwrap();
        let py = plain.tanh(aff);
        let ploss = plain.mean_all(py);
        plain.backward(ploss).unwrap();

        // value vs the naive reference kernel
        let mut expect = reference::matmul(&x, &w).unwrap();
        for r in 0..expect.rows() {
            for (v, &bias_v) in expect.row_mut(r).iter_mut().zip(b.as_slice()) {
                *v = (*v + bias_v).tanh();
            }
        }
        for (f, e) in fused.value(fy).as_slice().iter().zip(expect.as_slice()) {
            assert!((f - e).abs() < 1e-5, "fused value {f} vs reference {e}");
        }

        // gradients vs the unfused graph
        for (fv, pv) in [(fx, px), (fw, pw), (fb, pb)] {
            let fg = fused.grad(fv).unwrap();
            let pg = plain.grad(pv).unwrap();
            for (a, b) in fg.as_slice().iter().zip(pg.as_slice()) {
                assert!((a - b).abs() < 1e-5, "grad mismatch: fused {a} unfused {b}");
            }
        }
    }

    #[test]
    fn linear_act_rejects_bad_bias() {
        let mut tape = Tape::new();
        let x = tape.leaf(Matrix::zeros(2, 3));
        let w = tape.leaf(Matrix::zeros(3, 4));
        let b = tape.leaf(Matrix::zeros(1, 3));
        assert!(tape.linear_act(x, w, Some(b), Act::Identity).is_err());
    }

    #[test]
    fn lstm_step_gradients() {
        // batch 2, input 3, hidden 2 — non-square everywhere
        finite_difference_check(&[(2, 3), (2, 4), (5, 8), (1, 8)], |tape, vars| {
            let out = tape.lstm_step(vars[0], vars[1], vars[2], vars[3])?;
            Ok(tape.mean_all(out))
        });
        // batch = 1 edge shape
        finite_difference_check(&[(1, 2), (1, 6), (5, 12), (1, 12)], |tape, vars| {
            let out = tape.lstm_step(vars[0], vars[1], vars[2], vars[3])?;
            Ok(tape.mean_all(out))
        });
    }

    #[test]
    fn lstm_step_gradients_through_two_chained_steps() {
        // state threading: the second step's gradient must flow through the
        // packed hc output of the first
        finite_difference_check(&[(2, 3), (2, 4), (5, 8), (1, 8), (2, 3)], |tape, vars| {
            let s1 = tape.lstm_step(vars[0], vars[1], vars[2], vars[3])?;
            let s2 = tape.lstm_step(vars[4], s1, vars[2], vars[3])?;
            Ok(tape.mean_all(s2))
        });
    }

    #[test]
    fn lstm_step_matches_unfused_graph() {
        let batch = 3;
        let input = 4;
        let hidden = 2;
        let x = det_matrix(batch, input, 1);
        let h0 = det_matrix(batch, hidden, 2);
        let c0 = det_matrix(batch, hidden, 3);
        let w_ih = det_matrix(input, 4 * hidden, 4);
        let w_hh = det_matrix(hidden, 4 * hidden, 5);
        let bias = det_matrix(1, 4 * hidden, 6);

        // fused: packed hc and stacked weight
        let mut fused = Tape::new();
        let fx = fused.leaf(x.clone());
        let f_wih = fused.leaf(w_ih.clone());
        let f_whh = fused.leaf(w_hh.clone());
        let fw = fused.concat_rows(&[f_wih, f_whh]).unwrap();
        let fb = fused.leaf(bias.clone());
        let fhc = fused.leaf(Matrix::concat_cols(&[&h0, &c0]).unwrap());
        let fout = fused.lstm_step(fx, fhc, fw, fb).unwrap();
        let fh = fused.slice_cols(fout, 0, hidden).unwrap();
        let floss = fused.mean_all(fh);
        fused.backward(floss).unwrap();

        // unfused: the pre-fusion per-gate graph
        let mut plain = Tape::new();
        let px = plain.leaf(x.clone());
        let p_wih = plain.leaf(w_ih.clone());
        let p_whh = plain.leaf(w_hh.clone());
        let pb = plain.leaf(bias.clone());
        let ph = plain.leaf(h0.clone());
        let pc = plain.leaf(c0.clone());
        let gi = plain.matmul(px, p_wih).unwrap();
        let gh = plain.matmul(ph, p_whh).unwrap();
        let gsum = plain.add(gi, gh).unwrap();
        let gates = plain.add_bias(gsum, pb).unwrap();
        let i_pre = plain.slice_cols(gates, 0, hidden).unwrap();
        let f_pre = plain.slice_cols(gates, hidden, 2 * hidden).unwrap();
        let g_pre = plain.slice_cols(gates, 2 * hidden, 3 * hidden).unwrap();
        let o_pre = plain.slice_cols(gates, 3 * hidden, 4 * hidden).unwrap();
        let i_g = plain.sigmoid(i_pre);
        let f_g = plain.sigmoid(f_pre);
        let g_g = plain.tanh(g_pre);
        let o_g = plain.sigmoid(o_pre);
        let fc = plain.mul(f_g, pc).unwrap();
        let ig = plain.mul(i_g, g_g).unwrap();
        let c_new = plain.add(fc, ig).unwrap();
        let c_act = plain.tanh(c_new);
        let h_new = plain.mul(o_g, c_act).unwrap();
        let ploss = plain.mean_all(h_new);
        plain.backward(ploss).unwrap();

        // hidden output matches
        for r in 0..batch {
            for j in 0..hidden {
                let f = fused.value(fout)[(r, j)];
                let p = plain.value(h_new)[(r, j)];
                assert!((f - p).abs() < 1e-5, "h mismatch at ({r},{j}): {f} vs {p}");
            }
        }
        // cell state matches
        for r in 0..batch {
            for j in 0..hidden {
                let f = fused.value(fout)[(r, hidden + j)];
                let p = plain.value(c_new)[(r, j)];
                assert!((f - p).abs() < 1e-5, "c mismatch at ({r},{j}): {f} vs {p}");
            }
        }
        // every leaf gradient matches
        let pairs = [(fx, px), (f_wih, p_wih), (f_whh, p_whh), (fb, pb)];
        for (fv, pv) in pairs {
            let fg = fused.grad(fv).unwrap();
            let pg = plain.grad(pv).unwrap();
            assert_eq!(fg.shape(), pg.shape());
            for (a, b) in fg.as_slice().iter().zip(pg.as_slice()) {
                assert!(
                    (a - b).abs() < 1e-5,
                    "leaf grad mismatch: fused {a} unfused {b}"
                );
            }
        }
        // packed dhc matches [dh | dc]
        let fg_hc = fused.grad(fhc).unwrap();
        let pg_h = plain.grad(ph).unwrap();
        let pg_c = plain.grad(pc).unwrap();
        for r in 0..batch {
            for j in 0..hidden {
                assert!((fg_hc[(r, j)] - pg_h[(r, j)]).abs() < 1e-5, "dh mismatch");
                assert!(
                    (fg_hc[(r, hidden + j)] - pg_c[(r, j)]).abs() < 1e-5,
                    "dc mismatch"
                );
            }
        }
    }

    #[test]
    fn lstm_step_rejects_bad_shapes() {
        let mut tape = Tape::new();
        let x = tape.leaf(Matrix::zeros(2, 3));
        let hc = tape.leaf(Matrix::zeros(2, 4));
        let w = tape.leaf(Matrix::zeros(5, 8));
        let bias = tape.leaf(Matrix::zeros(1, 8));
        let bad_w = tape.leaf(Matrix::zeros(4, 8));
        let bad_bias = tape.leaf(Matrix::zeros(1, 4));
        let bad_hc = tape.leaf(Matrix::zeros(2, 3));
        assert!(tape.lstm_step(x, hc, bad_w, bias).is_err());
        assert!(tape.lstm_step(x, hc, w, bad_bias).is_err());
        assert!(tape.lstm_step(x, bad_hc, w, bias).is_err());
        assert!(tape.lstm_step(x, hc, w, bias).is_ok());
    }

    #[test]
    fn reset_reuses_fused_buffers_deterministically() {
        let run = |tape: &mut Tape| -> f32 {
            let x = tape.leaf_copy(&det_matrix(2, 3, 7));
            let hc = tape.leaf_copy(&det_matrix(2, 4, 8));
            let w = tape.leaf_copy(&det_matrix(5, 8, 9));
            let b = tape.leaf_copy(&det_matrix(1, 8, 10));
            let s = tape.lstm_step(x, hc, w, b).unwrap();
            let y = tape.linear_act(s, w, None, Act::Identity);
            // s is [2,4], w is [5,8]: shape error exercises the error path
            assert!(y.is_err());
            let loss = tape.mean_all(s);
            tape.backward(loss).unwrap();
            tape.value(loss)[(0, 0)]
        };
        let mut tape = Tape::new();
        let l1 = run(&mut tape);
        tape.reset();
        let l2 = run(&mut tape);
        assert_eq!(l1, l2);
    }

    #[test]
    fn state_update_matches_scalar_reference_bitwise() {
        // hidden sizes of every config family (tiny 12, experiments 48,
        // fast 64, paper 225) plus one wider than the staging buffer;
        // row counts that leave a partial last block for each of them
        for hidden in [12usize, 48, 64, 225, 300] {
            for rows in [1usize, 3, 7, 11, 22, 43] {
                let gates = det_matrix(rows, 4 * hidden, hidden + rows);
                let hc = det_matrix(rows, 2 * hidden, hidden * rows);
                let mut out =
                    Matrix::from_vec(rows, 2 * hidden, vec![f32::NAN; rows * 2 * hidden]).unwrap();
                lstm_state_update(&gates, &hc, hidden, &mut out);
                for r in 0..rows {
                    let (g, p, o) = (gates.row(r), hc.row(r), out.row(r));
                    for j in 0..hidden {
                        let (i, f, gg, og) =
                            (g[j], g[hidden + j], g[2 * hidden + j], g[3 * hidden + j]);
                        let c = f * p[hidden + j] + i * gg;
                        let h = og * fast_tanh(c);
                        let at = format!("hidden {hidden}, rows {rows}, ({r}, {j})");
                        assert_eq!(o[hidden + j].to_bits(), c.to_bits(), "c at {at}");
                        assert_eq!(o[j].to_bits(), h.to_bits(), "h at {at}");
                    }
                }
            }
        }
    }
}
