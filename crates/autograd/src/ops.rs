//! Forward op builders and their backward rules.
//!
//! Every builder takes its output storage from the tape's buffer pool and
//! every backward rule writes its deltas into pooled buffers, so a
//! reset-reuse training loop stays allocation-free in steady state. The
//! ranking/regression losses are fused: value and gradient are computed in
//! one forward pass and the gradient is stored on the op, which makes the
//! backward rule a single scale-and-accumulate.

use crate::error::AutogradError;
use crate::tape::{Op, Tape, Var};
use crate::Result;
use hwpr_tensor::{Matrix, ShapeError};

impl Tape {
    /// Matrix product `a @ b`.
    ///
    /// # Errors
    ///
    /// Returns a shape error when inner dimensions disagree.
    pub fn matmul(&mut self, a: Var, b: Var) -> Result<Var> {
        let m = self.nodes[a.0].value.rows();
        let n = self.nodes[b.0].value.cols();
        let mut value = self.pool.take(m, n);
        self.nodes[a.0]
            .value
            .matmul_into(&self.nodes[b.0].value, &mut value)?;
        Ok(self.push(value, Op::MatMul(a, b)))
    }

    /// Element-wise sum `a + b`.
    ///
    /// # Errors
    ///
    /// Returns a shape error when shapes differ.
    pub fn add(&mut self, a: Var, b: Var) -> Result<Var> {
        self.zip_op("add", a, b, |x, y| x + y, Op::Add(a, b))
    }

    /// Element-wise difference `a - b`.
    ///
    /// # Errors
    ///
    /// Returns a shape error when shapes differ.
    pub fn sub(&mut self, a: Var, b: Var) -> Result<Var> {
        self.zip_op("sub", a, b, |x, y| x - y, Op::Sub(a, b))
    }

    /// Element-wise product `a * b`.
    ///
    /// # Errors
    ///
    /// Returns a shape error when shapes differ.
    pub fn mul(&mut self, a: Var, b: Var) -> Result<Var> {
        self.zip_op("mul", a, b, |x, y| x * y, Op::Mul(a, b))
    }

    /// Pooled element-wise combination of two nodes.
    fn zip_op<F: Fn(f32, f32) -> f32>(
        &mut self,
        name: &'static str,
        a: Var,
        b: Var,
        f: F,
        op: Op,
    ) -> Result<Var> {
        if self.nodes[a.0].value.shape() != self.nodes[b.0].value.shape() {
            return Err(AutogradError::Shape(ShapeError::new(
                name,
                self.nodes[a.0].value.shape(),
                self.nodes[b.0].value.shape(),
            )));
        }
        let mut value = self.pool.take_copy(&self.nodes[a.0].value);
        value.zip_apply(&self.nodes[b.0].value, f);
        Ok(self.push(value, op))
    }

    /// Adds the `1 x cols` row vector `bias` to every row of `a`.
    ///
    /// # Errors
    ///
    /// Returns a shape error if `bias` is not `1 x a.cols()`.
    pub fn add_bias(&mut self, a: Var, bias: Var) -> Result<Var> {
        let shape = self.nodes[a.0].value.shape();
        let bshape = self.nodes[bias.0].value.shape();
        if bshape != (1, shape.1) {
            return Err(AutogradError::Shape(ShapeError::new(
                "add_bias", shape, bshape,
            )));
        }
        let mut value = self.pool.take_copy(&self.nodes[a.0].value);
        let b = &self.nodes[bias.0].value;
        for r in 0..shape.0 {
            for (v, &bv) in value.row_mut(r).iter_mut().zip(b.as_slice()) {
                *v += bv;
            }
        }
        Ok(self.push(value, Op::AddBias(a, bias)))
    }

    /// Scalar product `a * scalar`.
    pub fn scale(&mut self, a: Var, scalar: f32) -> Var {
        let mut value = self.pool.take_copy(&self.nodes[a.0].value);
        value.map_inplace(|x| x * scalar);
        self.push(value, Op::Scale(a, scalar))
    }

    /// Element-wise `a + scalar`.
    pub fn add_scalar(&mut self, a: Var, scalar: f32) -> Var {
        let mut value = self.pool.take_copy(&self.nodes[a.0].value);
        value.map_inplace(|x| x + scalar);
        self.push(value, Op::AddScalar(a, scalar))
    }

    /// Rectified linear unit `max(a, 0)`.
    pub fn relu(&mut self, a: Var) -> Var {
        let mut value = self.pool.take_copy(&self.nodes[a.0].value);
        value.map_inplace(|x| x.max(0.0));
        self.push(value, Op::Relu(a))
    }

    /// Hyperbolic tangent.
    pub fn tanh(&mut self, a: Var) -> Var {
        let mut value = self.pool.take_copy(&self.nodes[a.0].value);
        value.map_inplace(f32::tanh);
        self.push(value, Op::Tanh(a))
    }

    /// Logistic sigmoid `1 / (1 + exp(-a))`.
    pub fn sigmoid(&mut self, a: Var) -> Var {
        let mut value = self.pool.take_copy(&self.nodes[a.0].value);
        value.map_inplace(|x| 1.0 / (1.0 + (-x).exp()));
        self.push(value, Op::Sigmoid(a))
    }

    /// Element-wise exponential.
    pub fn exp(&mut self, a: Var) -> Var {
        let mut value = self.pool.take_copy(&self.nodes[a.0].value);
        value.map_inplace(f32::exp);
        self.push(value, Op::Exp(a))
    }

    /// Element-wise `sqrt(a + eps)`; `eps` keeps the derivative finite at 0.
    pub fn sqrt(&mut self, a: Var, eps: f32) -> Var {
        let mut value = self.pool.take_copy(&self.nodes[a.0].value);
        value.map_inplace(|x| (x + eps).sqrt());
        self.push(value, Op::Sqrt(a, eps))
    }

    /// Horizontal concatenation of `parts` (equal row counts).
    ///
    /// # Errors
    ///
    /// Returns a shape error if `parts` is empty or row counts differ.
    pub fn concat_cols(&mut self, parts: &[Var]) -> Result<Var> {
        let first = parts
            .first()
            .ok_or_else(|| AutogradError::Shape(ShapeError::new("concat_cols", (0, 0), (0, 0))))?;
        let rows = self.nodes[first.0].value.rows();
        let mut total = 0;
        for &p in parts {
            let shape = self.nodes[p.0].value.shape();
            if shape.0 != rows {
                return Err(AutogradError::Shape(ShapeError::new(
                    "concat_cols",
                    (rows, total),
                    shape,
                )));
            }
            total += shape.1;
        }
        let mut value = self.pool.take(rows, total);
        for r in 0..rows {
            let mut offset = 0;
            for &p in parts {
                let src = &self.nodes[p.0].value;
                value.row_mut(r)[offset..offset + src.cols()].copy_from_slice(src.row(r));
                offset += src.cols();
            }
        }
        let mut vars = self.take_vars();
        vars.extend_from_slice(parts);
        Ok(self.push(value, Op::ConcatCols(vars)))
    }

    /// Vertical concatenation of `parts` (equal column counts). Used by the
    /// fused LSTM step to stack `W_ih` on top of `W_hh` once per layer.
    ///
    /// # Errors
    ///
    /// Returns a shape error if `parts` is empty or column counts differ.
    pub fn concat_rows(&mut self, parts: &[Var]) -> Result<Var> {
        let first = parts
            .first()
            .ok_or_else(|| AutogradError::Shape(ShapeError::new("concat_rows", (0, 0), (0, 0))))?;
        let cols = self.nodes[first.0].value.cols();
        let mut total = 0;
        for &p in parts {
            let shape = self.nodes[p.0].value.shape();
            if shape.1 != cols {
                return Err(AutogradError::Shape(ShapeError::new(
                    "concat_rows",
                    (total, cols),
                    shape,
                )));
            }
            total += shape.0;
        }
        let mut value = self.pool.take(total, cols);
        let mut offset = 0;
        for &p in parts {
            let src = &self.nodes[p.0].value;
            value.as_mut_slice()[offset..offset + src.len()].copy_from_slice(src.as_slice());
            offset += src.len();
        }
        let mut vars = self.take_vars();
        vars.extend_from_slice(parts);
        Ok(self.push(value, Op::ConcatRows(vars)))
    }

    /// Columns `start..end` of `a` as a new node.
    ///
    /// # Errors
    ///
    /// Returns a shape error if the range is out of bounds or empty.
    pub fn slice_cols(&mut self, a: Var, start: usize, end: usize) -> Result<Var> {
        let (rows, cols) = self.nodes[a.0].value.shape();
        if start >= end || end > cols {
            return Err(AutogradError::Shape(ShapeError::new(
                "slice_cols",
                (rows, cols),
                (start, end),
            )));
        }
        let mut value = self.pool.take(rows, end - start);
        let src = &self.nodes[a.0].value;
        for r in 0..rows {
            value.row_mut(r).copy_from_slice(&src.row(r)[start..end]);
        }
        Ok(self.push(value, Op::SliceCols(a, start, end)))
    }

    /// Gathers rows of `a` by index (embedding lookup); duplicate indices
    /// are allowed and their gradients accumulate.
    ///
    /// # Errors
    ///
    /// Returns [`AutogradError::IndexOutOfRange`] for invalid indices.
    pub fn gather_rows(&mut self, a: Var, indices: &[usize]) -> Result<Var> {
        let rows = self.nodes[a.0].value.rows();
        if let Some(&bad) = indices.iter().find(|&&i| i >= rows) {
            return Err(AutogradError::IndexOutOfRange { index: bad, rows });
        }
        let cols = self.nodes[a.0].value.cols();
        let mut value = self.pool.take(indices.len(), cols);
        let src = &self.nodes[a.0].value;
        for (out_row, &src_row) in indices.iter().enumerate() {
            value.row_mut(out_row).copy_from_slice(src.row(src_row));
        }
        let mut idx = self.take_idx();
        idx.extend_from_slice(indices);
        Ok(self.push(value, Op::GatherRows(a, idx)))
    }

    /// Per-sample constant graph convolution: interprets `x` as
    /// `adjacency.len()` stacked blocks of `n` rows and left-multiplies
    /// block `b` by `adjacency[b]`. The adjacencies are constants (they are
    /// derived from the architecture, not learned), so only `x` receives
    /// gradients.
    ///
    /// # Errors
    ///
    /// Returns a shape error when the block structure is inconsistent.
    pub fn block_graph_matmul(&mut self, x: Var, adjacency: Vec<Matrix>, n: usize) -> Result<Var> {
        let src = &self.nodes[x.0].value;
        let mut value = self.pool.take(src.rows(), src.cols());
        src.block_left_matmul_into(&adjacency, n, &mut self.pool, &mut value)?;
        Ok(self.push(value, Op::BlockGraphMatmul(x, adjacency, n)))
    }

    /// Element-wise product with a fixed dropout `mask` (entries are `0` or
    /// `1/(1-p)`; the caller generates the mask so the tape stays
    /// deterministic). Build the mask with [`Tape::alloc`] so its storage
    /// is recycled on [`Tape::reset`].
    ///
    /// # Errors
    ///
    /// Returns a shape error when the mask shape differs from `a`.
    pub fn dropout(&mut self, a: Var, mask: Matrix) -> Result<Var> {
        if self.nodes[a.0].value.shape() != mask.shape() {
            return Err(AutogradError::Shape(ShapeError::new(
                "dropout",
                self.nodes[a.0].value.shape(),
                mask.shape(),
            )));
        }
        let mut value = self.pool.take_copy(&self.nodes[a.0].value);
        value.zip_apply(&mask, |x, m| x * m);
        Ok(self.push(value, Op::Dropout(a, mask)))
    }

    /// Mean over all elements of `a`, producing a `1 x 1` node.
    pub fn mean_all(&mut self, a: Var) -> Var {
        let mean = self.nodes[a.0].value.mean();
        let mut value = self.pool.take(1, 1);
        value.as_mut_slice()[0] = mean;
        self.push(value, Op::MeanAll(a))
    }

    /// Sum over all elements of `a`, producing a `1 x 1` node.
    pub fn sum_all(&mut self, a: Var) -> Var {
        let sum = self.nodes[a.0].value.sum();
        let mut value = self.pool.take(1, 1);
        value.as_mut_slice()[0] = sum;
        self.push(value, Op::SumAll(a))
    }

    /// Mean squared error between `pred` and the constant `target`.
    ///
    /// Fused: the gradient `2 (pred - target) / n` is computed alongside
    /// the value and stored on the op.
    ///
    /// # Errors
    ///
    /// Returns a shape error when shapes differ.
    pub fn mse_loss(&mut self, pred: Var, target: &Matrix) -> Result<Var> {
        let shape = self.nodes[pred.0].value.shape();
        if shape != target.shape() {
            return Err(AutogradError::Shape(ShapeError::new(
                "mse_loss",
                shape,
                target.shape(),
            )));
        }
        let mut g = self.pool.take(shape.0, shape.1);
        let mut value = self.pool.take(1, 1);
        let src = &self.nodes[pred.0].value;
        let inv_n = 1.0 / src.len().max(1) as f32;
        let mut loss = 0.0;
        for ((gv, &p), &t) in g
            .as_mut_slice()
            .iter_mut()
            .zip(src.as_slice())
            .zip(target.as_slice())
        {
            let d = p - t;
            loss += d * d * inv_n;
            *gv = 2.0 * d * inv_n;
        }
        value.as_mut_slice()[0] = loss;
        Ok(self.push(value, Op::MseLoss(pred, g)))
    }

    /// ListMLE listwise ranking loss (Eq. 4 of the paper).
    ///
    /// `scores` must be an `n x 1` column of model scores and `order` a
    /// permutation of `0..n` listing rows from most-dominant to
    /// least-dominant. The loss is
    /// `Σ_i [-s_{π(i)} + log Σ_{j≥i} exp(s_{π(j)})]`, computed with
    /// suffix log-sum-exp stabilisation.
    ///
    /// Fused: the gradient is produced in the same pass via a running
    /// prefix of `exp(logZ_k - logZ_i)` terms (each `≤ 1`, so the pass is
    /// as stable as the quadratic reference), making the whole loss `O(n)`
    /// instead of the reference `O(n²)` backward.
    ///
    /// # Errors
    ///
    /// Returns [`AutogradError::InvalidRanking`] if `order` is not a
    /// permutation of the score rows, or a shape error if `scores` is not a
    /// column vector.
    pub fn list_mle(&mut self, scores: Var, order: &[usize]) -> Result<Var> {
        let (n, cols) = self.nodes[scores.0].value.shape();
        if cols != 1 {
            return Err(AutogradError::Shape(ShapeError::new(
                "list_mle",
                (n, cols),
                (n, 1),
            )));
        }
        self.validate_permutation(order, n)?;
        let mut log_z = self.pool.take_raw(n);
        log_z.clear();
        log_z.resize(n, 0.0);
        let mut g = self.pool.take(n, 1);
        let mut value = self.pool.take(1, 1);
        {
            let s = self.nodes[scores.0].value.as_slice();
            // suffix log-sum-exp, streamed from the tail
            let mut max = f32::NEG_INFINITY;
            let mut sum = 0.0f32;
            for i in (0..n).rev() {
                let sv = s[order[i]];
                if sv > max {
                    sum = sum * (max - sv).exp() + 1.0;
                    max = sv;
                } else {
                    sum += (sv - max).exp();
                }
                log_z[i] = max + sum.ln();
            }
            // loss and gradient in one forward sweep:
            //   dL/ds_{π(k)} = exp(s_{π(k)} - logZ_k) · sm_k - 1
            // with sm_k = Σ_{i≤k} exp(logZ_k - logZ_i), maintained by the
            // recurrence sm_k = 1 + sm_{k-1} · exp(logZ_k - logZ_{k-1})
            // (logZ is non-increasing, so every factor is ≤ 1).
            let mut loss = 0.0f32;
            let mut sm = 0.0f32;
            let mut prev_log_z = 0.0f32;
            for (k, &idx) in order.iter().enumerate() {
                let lz = log_z[k];
                loss += lz - s[idx];
                sm = if k == 0 {
                    1.0
                } else {
                    1.0 + sm * (lz - prev_log_z).exp()
                };
                prev_log_z = lz;
                g.as_mut_slice()[idx] = (s[idx] - lz).exp() * sm - 1.0;
            }
            value.as_mut_slice()[0] = loss;
        }
        self.pool.put_raw(log_z);
        Ok(self.push(value, Op::ListMle(scores, g)))
    }

    /// Pairwise hinge ranking loss with a margin (GATES-style).
    ///
    /// For each `(hi, lo)` pair the model should score row `hi` at least
    /// `margin` above row `lo`; violations contribute
    /// `margin - (s_hi - s_lo)` and the loss is the mean over pairs.
    ///
    /// Fused: the subgradient is accumulated in the same pass as the value.
    ///
    /// # Errors
    ///
    /// Returns [`AutogradError::InvalidRanking`] when `pairs` is empty or
    /// holds out-of-range indices, or a shape error if `scores` is not a
    /// column vector.
    pub fn pairwise_hinge(
        &mut self,
        scores: Var,
        pairs: &[(usize, usize)],
        margin: f32,
    ) -> Result<Var> {
        let (n, cols) = self.nodes[scores.0].value.shape();
        if cols != 1 {
            return Err(AutogradError::Shape(ShapeError::new(
                "pairwise_hinge",
                (n, cols),
                (n, 1),
            )));
        }
        if pairs.is_empty() {
            return Err(AutogradError::InvalidRanking("empty pair list".into()));
        }
        if let Some(&(a, b)) = pairs.iter().find(|&&(a, b)| a >= n || b >= n) {
            return Err(AutogradError::InvalidRanking(format!(
                "pair ({a}, {b}) out of range for {n} scores"
            )));
        }
        let mut g = self.pool.take(n, 1);
        let mut value = self.pool.take(1, 1);
        {
            let s = self.nodes[scores.0].value.as_slice();
            let w = 1.0 / pairs.len() as f32;
            let mut loss = 0.0f32;
            let gs = g.as_mut_slice();
            for &(hi, lo) in pairs {
                let violation = margin - (s[hi] - s[lo]);
                if violation > 0.0 {
                    loss += violation * w;
                    gs[hi] -= w;
                    gs[lo] += w;
                }
            }
            value.as_mut_slice()[0] = loss;
        }
        Ok(self.push(value, Op::PairwiseHinge(scores, g)))
    }

    fn validate_permutation(&mut self, order: &[usize], n: usize) -> Result<()> {
        if order.len() != n {
            return Err(AutogradError::InvalidRanking(format!(
                "order has {} entries for {} scores",
                order.len(),
                n
            )));
        }
        self.mark_scratch.clear();
        self.mark_scratch.resize(n, false);
        for &i in order {
            if i >= n || self.mark_scratch[i] {
                return Err(AutogradError::InvalidRanking(format!(
                    "order is not a permutation (offending index {i})"
                )));
            }
            self.mark_scratch[i] = true;
        }
        Ok(())
    }

    pub(crate) fn backprop_node(&mut self, i: usize) -> Result<()> {
        // Move the gradient and op out of the node (restored below) so the
        // backward rules can borrow the tape freely without cloning either.
        let grad = self.nodes[i]
            .grad
            .take()
            .expect("backprop_node called on node without gradient");
        let op = std::mem::replace(&mut self.nodes[i].op, Op::Leaf);
        let result = self.backprop_op(i, &op, &grad);
        self.nodes[i].op = op;
        self.nodes[i].grad = Some(grad);
        result
    }

    fn backprop_op(&mut self, i: usize, op: &Op, grad: &Matrix) -> Result<()> {
        match op {
            Op::Leaf => {}
            Op::MatMul(a, b) => {
                let (a, b) = (*a, *b);
                let (m, n) = grad.shape();
                let k = self.nodes[a.0].value.cols();
                let mut da = self.pool.take(m, k);
                grad.matmul_nt_into(&self.nodes[b.0].value, &mut da)?;
                let mut db = self.pool.take(k, n);
                self.nodes[a.0].value.matmul_tn_into(grad, &mut db)?;
                self.accumulate(a, da);
                self.accumulate(b, db);
            }
            Op::Add(a, b) => {
                self.accumulate_copy(*a, grad);
                self.accumulate_copy(*b, grad);
            }
            Op::Sub(a, b) => {
                self.accumulate_copy(*a, grad);
                let mut db = self.pool.take_copy(grad);
                db.map_inplace(|x| -x);
                self.accumulate(*b, db);
            }
            Op::Mul(a, b) => {
                let mut da = self.pool.take_copy(grad);
                da.zip_apply(&self.nodes[b.0].value, |g, y| g * y);
                let mut db = self.pool.take_copy(grad);
                db.zip_apply(&self.nodes[a.0].value, |g, x| g * x);
                self.accumulate(*a, da);
                self.accumulate(*b, db);
            }
            Op::AddBias(a, bias) => {
                self.accumulate_copy(*a, grad);
                let mut db = self.pool.take(1, grad.cols());
                grad.sum_rows_into(&mut db);
                self.accumulate(*bias, db);
            }
            Op::Scale(a, s) => {
                let s = *s;
                let mut da = self.pool.take_copy(grad);
                da.map_inplace(|x| x * s);
                self.accumulate(*a, da);
            }
            Op::AddScalar(a, _) => {
                self.accumulate_copy(*a, grad);
            }
            Op::Relu(a) => {
                let mut da = self.pool.take_copy(grad);
                da.zip_apply(&self.nodes[a.0].value, |g, x| if x > 0.0 { g } else { 0.0 });
                self.accumulate(*a, da);
            }
            Op::Tanh(a) => {
                let mut da = self.pool.take_copy(grad);
                da.zip_apply(&self.nodes[i].value, |g, y| g * (1.0 - y * y));
                self.accumulate(*a, da);
            }
            Op::Sigmoid(a) => {
                let mut da = self.pool.take_copy(grad);
                da.zip_apply(&self.nodes[i].value, |g, y| g * y * (1.0 - y));
                self.accumulate(*a, da);
            }
            Op::Exp(a) => {
                let mut da = self.pool.take_copy(grad);
                da.zip_apply(&self.nodes[i].value, |g, y| g * y);
                self.accumulate(*a, da);
            }
            Op::Sqrt(a, _) => {
                let mut da = self.pool.take_copy(grad);
                da.zip_apply(&self.nodes[i].value, |g, y| g * 0.5 / y.max(1e-12));
                self.accumulate(*a, da);
            }
            Op::ConcatCols(parts) => {
                let mut offset = 0;
                let rows = grad.rows();
                for &p in parts {
                    let w = self.nodes[p.0].value.cols();
                    let mut dp = self.pool.take(rows, w);
                    for r in 0..rows {
                        dp.row_mut(r)
                            .copy_from_slice(&grad.row(r)[offset..offset + w]);
                    }
                    self.accumulate(p, dp);
                    offset += w;
                }
            }
            Op::ConcatRows(parts) => {
                let mut offset = 0;
                for &p in parts {
                    let (rows, cols) = self.nodes[p.0].value.shape();
                    let mut dp = self.pool.take(rows, cols);
                    let len = rows * cols;
                    dp.as_mut_slice()
                        .copy_from_slice(&grad.as_slice()[offset..offset + len]);
                    self.accumulate(p, dp);
                    offset += len;
                }
            }
            Op::SliceCols(a, start, end) => {
                let (start, end) = (*start, *end);
                let (rows, cols) = self.nodes[a.0].value.shape();
                let mut da = self.pool.take(rows, cols);
                for r in 0..grad.rows() {
                    da.row_mut(r)[start..end].copy_from_slice(grad.row(r));
                }
                self.accumulate(*a, da);
            }
            Op::GatherRows(a, indices) => {
                let (rows, cols) = self.nodes[a.0].value.shape();
                let mut da = self.pool.take(rows, cols);
                for (out_row, &src_row) in indices.iter().enumerate() {
                    for (dst, &g) in da.row_mut(src_row).iter_mut().zip(grad.row(out_row)) {
                        *dst += g;
                    }
                }
                self.accumulate(*a, da);
            }
            Op::BlockGraphMatmul(x, adjacency, n) => {
                let n = *n;
                let cols = grad.cols();
                let mut dx = self.pool.take(grad.rows(), cols);
                let mut block = self.pool.take(n, cols);
                let mut prod = self.pool.take(n, cols);
                for (b, adj) in adjacency.iter().enumerate() {
                    for r in 0..n {
                        block.row_mut(r).copy_from_slice(grad.row(b * n + r));
                    }
                    // d(adj @ x_b) / dx_b pulls the gradient through adj^T
                    adj.matmul_tn_into(&block, &mut prod)?;
                    for r in 0..n {
                        dx.row_mut(b * n + r).copy_from_slice(prod.row(r));
                    }
                }
                self.pool.put(block);
                self.pool.put(prod);
                self.accumulate(*x, dx);
            }
            Op::Dropout(a, mask) => {
                let mut da = self.pool.take_copy(grad);
                da.zip_apply(mask, |g, m| g * m);
                self.accumulate(*a, da);
            }
            Op::MeanAll(a) => {
                let (rows, cols) = self.nodes[a.0].value.shape();
                let g = grad[(0, 0)] / (rows * cols).max(1) as f32;
                let mut da = self.pool.take(rows, cols);
                da.as_mut_slice().fill(g);
                self.accumulate(*a, da);
            }
            Op::SumAll(a) => {
                let (rows, cols) = self.nodes[a.0].value.shape();
                let mut da = self.pool.take(rows, cols);
                da.as_mut_slice().fill(grad[(0, 0)]);
                self.accumulate(*a, da);
            }
            Op::LinearAct { x, w, bias, act } => {
                self.backprop_linear_act(i, *x, *w, *bias, *act, grad)?;
            }
            Op::LstmStep {
                x,
                hc,
                w,
                bias,
                xh,
                gates,
            } => {
                self.backprop_lstm_step(i, *x, *hc, *w, *bias, xh, gates, grad)?;
            }
            Op::MseLoss(pred, g0) => {
                let mut da = self.pool.take_copy(g0);
                let scale = grad[(0, 0)];
                da.map_inplace(|x| x * scale);
                self.accumulate(*pred, da);
            }
            Op::ListMle(scores, g0) | Op::PairwiseHinge(scores, g0) => {
                let mut da = self.pool.take_copy(g0);
                let scale = grad[(0, 0)];
                da.map_inplace(|x| x * scale);
                self.accumulate(*scores, da);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
pub(crate) mod reference_loss {
    //! Naive O(n²) ListMLE kept as ground truth for the fused kernel.

    /// Forward ListMLE loss with suffix log-sum-exp stabilisation.
    pub(crate) fn list_mle_forward(scores: &[f32], order: &[usize]) -> f32 {
        let log_z = suffix_log_sum_exp(scores, order);
        order
            .iter()
            .enumerate()
            .map(|(i, &idx)| log_z[i] - scores[idx])
            .sum()
    }

    /// Gradient of the ListMLE loss with respect to each score.
    pub(crate) fn list_mle_backward(scores: &[f32], order: &[usize]) -> Vec<f32> {
        let log_z = suffix_log_sum_exp(scores, order);
        let mut grad = vec![0.0f32; scores.len()];
        // dL/ds_{π(k)} = -1 + Σ_{i≤k} exp(s_{π(k)} - logZ_i)
        for (k, &idx) in order.iter().enumerate() {
            let mut acc = 0.0;
            for lz in log_z.iter().take(k + 1) {
                acc += (scores[idx] - lz).exp();
            }
            grad[idx] = -1.0 + acc;
        }
        grad
    }

    /// `log Σ_{j≥i} exp(s_{π(j)})` for every suffix start `i`.
    pub(crate) fn suffix_log_sum_exp(scores: &[f32], order: &[usize]) -> Vec<f32> {
        let n = order.len();
        let mut out = vec![0.0f32; n];
        // running (max, sum of exp(s - max)) maintained from the tail
        let mut max = f32::NEG_INFINITY;
        let mut sum = 0.0f32;
        for i in (0..n).rev() {
            let s = scores[order[i]];
            if s > max {
                sum = sum * (max - s).exp() + 1.0;
                max = s;
            } else {
                sum += (s - max).exp();
            }
            out[i] = max + sum.ln();
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::reference_loss::*;
    use super::*;
    use crate::check::finite_difference_check;

    #[test]
    fn matmul_gradients() {
        finite_difference_check(&[(2, 3), (3, 2)], |tape, vars| {
            let y = tape.matmul(vars[0], vars[1])?;
            Ok(tape.mean_all(y))
        });
    }

    #[test]
    fn add_sub_mul_gradients() {
        finite_difference_check(&[(2, 2), (2, 2)], |tape, vars| {
            let s = tape.add(vars[0], vars[1])?;
            let d = tape.sub(s, vars[1])?;
            let m = tape.mul(d, vars[0])?;
            Ok(tape.mean_all(m))
        });
    }

    #[test]
    fn bias_and_scale_gradients() {
        finite_difference_check(&[(3, 4), (1, 4)], |tape, vars| {
            let b = tape.add_bias(vars[0], vars[1])?;
            let s = tape.scale(b, 0.5);
            let t = tape.add_scalar(s, 1.0);
            Ok(tape.mean_all(t))
        });
    }

    #[test]
    fn nonlinearity_gradients() {
        finite_difference_check(&[(2, 3)], |tape, vars| {
            let t = tape.tanh(vars[0]);
            let s = tape.sigmoid(t);
            let e = tape.exp(s);
            let q = tape.sqrt(e, 1e-6);
            Ok(tape.mean_all(q))
        });
    }

    #[test]
    fn relu_gradient_away_from_kink() {
        // offset inputs so no element sits exactly at the ReLU kink
        finite_difference_check(&[(2, 3)], |tape, vars| {
            let shifted = tape.add_scalar(vars[0], 0.37);
            let r = tape.relu(shifted);
            Ok(tape.mean_all(r))
        });
    }

    #[test]
    fn concat_and_slice_gradients() {
        finite_difference_check(&[(2, 2), (2, 3)], |tape, vars| {
            let c = tape.concat_cols(&[vars[0], vars[1]])?;
            let s = tape.slice_cols(c, 1, 4)?;
            Ok(tape.mean_all(s))
        });
    }

    #[test]
    fn concat_rows_gradients() {
        finite_difference_check(&[(2, 3), (4, 3)], |tape, vars| {
            let c = tape.concat_rows(&[vars[0], vars[1]])?;
            Ok(tape.mean_all(c))
        });
    }

    #[test]
    fn concat_rows_value_matches_tensor_concat() {
        let mut tape = Tape::new();
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0]]);
        let va = tape.leaf(a.clone());
        let vb = tape.leaf(b.clone());
        let c = tape.concat_rows(&[va, vb]).unwrap();
        assert_eq!(tape.value(c), &Matrix::concat_rows(&[&a, &b]).unwrap());
        assert!(tape.concat_rows(&[]).is_err());
    }

    #[test]
    fn gather_rows_gradients_accumulate_duplicates() {
        finite_difference_check(&[(4, 3)], |tape, vars| {
            let g = tape.gather_rows(vars[0], &[0, 2, 2, 3])?;
            Ok(tape.mean_all(g))
        });
    }

    #[test]
    fn block_graph_matmul_gradients() {
        let adj0 = Matrix::from_rows(&[&[0.5, 1.0], &[0.0, 0.5]]);
        let adj1 = Matrix::from_rows(&[&[1.0, 0.0], &[1.0, 1.0]]);
        finite_difference_check(&[(4, 3)], move |tape, vars| {
            let y = tape.block_graph_matmul(vars[0], vec![adj0.clone(), adj1.clone()], 2)?;
            Ok(tape.mean_all(y))
        });
    }

    #[test]
    fn dropout_gradient_uses_mask() {
        let mask = Matrix::from_rows(&[&[2.0, 0.0], &[0.0, 2.0]]);
        finite_difference_check(&[(2, 2)], move |tape, vars| {
            let d = tape.dropout(vars[0], mask.clone())?;
            Ok(tape.mean_all(d))
        });
    }

    #[test]
    fn sum_and_mse_gradients() {
        let target = Matrix::from_rows(&[&[0.3, -0.2], &[0.1, 0.9]]);
        finite_difference_check(&[(2, 2)], move |tape, vars| {
            let l = tape.mse_loss(vars[0], &target)?;
            Ok(l)
        });
        finite_difference_check(&[(2, 2)], |tape, vars| Ok(tape.sum_all(vars[0])));
    }

    #[test]
    fn list_mle_gradients() {
        finite_difference_check(&[(5, 1)], |tape, vars| {
            tape.list_mle(vars[0], &[3, 1, 4, 0, 2])
        });
    }

    #[test]
    fn list_mle_batch_of_one() {
        // n = 1 degenerate list: loss is exactly 0 and so is the gradient
        let mut tape = Tape::new();
        let s = tape.leaf(Matrix::col_vector(&[0.7]));
        let l = tape.list_mle(s, &[0]).unwrap();
        assert!(tape.value(l)[(0, 0)].abs() < 1e-6);
        tape.backward(l).unwrap();
        assert!(tape.grad(s).unwrap()[(0, 0)].abs() < 1e-6);
    }

    #[test]
    fn fused_list_mle_matches_quadratic_reference() {
        // the fused O(n) forward+gradient must agree with the O(n²)
        // reference on value and gradient for assorted sizes
        for n in [1usize, 2, 3, 8, 33] {
            let scores: Vec<f32> = (0..n)
                .map(|i| ((i * 37 % 19) as f32 - 9.0) * 0.37)
                .collect();
            let order: Vec<usize> = {
                let mut o: Vec<usize> = (0..n).collect();
                o.reverse();
                if n > 2 {
                    o.swap(0, n / 2);
                }
                o
            };
            let ref_loss = list_mle_forward(&scores, &order);
            let ref_grad = list_mle_backward(&scores, &order);
            let mut tape = Tape::new();
            let s = tape.leaf(Matrix::col_vector(&scores));
            let l = tape.list_mle(s, &order).unwrap();
            assert!(
                (tape.value(l)[(0, 0)] - ref_loss).abs() < 1e-4 * (1.0 + ref_loss.abs()),
                "loss mismatch at n={n}"
            );
            tape.backward(l).unwrap();
            let fused_grad = tape.grad(s).unwrap();
            for (j, (&f, &r)) in fused_grad.as_slice().iter().zip(&ref_grad).enumerate() {
                assert!(
                    (f - r).abs() < 1e-4,
                    "grad mismatch at n={n} elem {j}: fused {f}, reference {r}"
                );
            }
        }
    }

    #[test]
    fn pairwise_hinge_gradients() {
        // margin large enough that all pairs are active (nonsmooth boundary avoided)
        finite_difference_check(&[(4, 1)], |tape, vars| {
            tape.pairwise_hinge(vars[0], &[(0, 1), (1, 2), (0, 3)], 10.0)
        });
    }

    #[test]
    fn list_mle_perfect_order_is_low() {
        // scores already sorted best-first: loss should be lower than reversed
        let mut tape = Tape::new();
        let good = tape.leaf(Matrix::col_vector(&[3.0, 2.0, 1.0, 0.0]));
        let l_good = tape.list_mle(good, &[0, 1, 2, 3]).unwrap();
        let l_bad = tape.list_mle(good, &[3, 2, 1, 0]).unwrap();
        assert!(tape.value(l_good)[(0, 0)] < tape.value(l_bad)[(0, 0)]);
    }

    #[test]
    fn list_mle_rejects_bad_permutation() {
        let mut tape = Tape::new();
        let s = tape.leaf(Matrix::col_vector(&[1.0, 2.0]));
        assert!(tape.list_mle(s, &[0, 0]).is_err());
        assert!(tape.list_mle(s, &[0]).is_err());
        assert!(tape.list_mle(s, &[0, 2]).is_err());
    }

    #[test]
    fn pairwise_hinge_rejects_bad_pairs() {
        let mut tape = Tape::new();
        let s = tape.leaf(Matrix::col_vector(&[1.0, 2.0]));
        assert!(tape.pairwise_hinge(s, &[], 0.1).is_err());
        assert!(tape.pairwise_hinge(s, &[(0, 5)], 0.1).is_err());
    }

    #[test]
    fn hinge_zero_when_margin_satisfied() {
        let mut tape = Tape::new();
        let s = tape.leaf(Matrix::col_vector(&[5.0, 0.0]));
        let l = tape.pairwise_hinge(s, &[(0, 1)], 0.1).unwrap();
        assert_eq!(tape.value(l)[(0, 0)], 0.0);
    }

    #[test]
    fn suffix_lse_matches_naive() {
        let scores = [0.3f32, -1.2, 2.5, 0.0];
        let order = [2usize, 0, 3, 1];
        let fast = suffix_log_sum_exp(&scores, &order);
        for i in 0..order.len() {
            let naive: f32 = order[i..].iter().map(|&j| scores[j].exp()).sum();
            assert!((fast[i] - naive.ln()).abs() < 1e-5, "suffix {i}");
        }
    }

    #[test]
    fn gradients_accumulate_across_reuse() {
        // y = x + x means dy/dx = 2
        let mut tape = Tape::new();
        let x = tape.leaf(Matrix::filled(1, 1, 3.0));
        let y = tape.add(x, x).unwrap();
        tape.backward(y).unwrap();
        assert_eq!(tape.grad(x).unwrap()[(0, 0)], 2.0);
    }
}
