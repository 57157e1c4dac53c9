//! The gradient tape: node arena, handles and the backward pass.
//!
//! The tape doubles as an arena: [`Tape::reset`] recycles every value and
//! gradient matrix (and the heap payloads of ops that carry them) into an
//! internal [`BufferPool`], so a fixed-shape training loop that resets the
//! tape between steps performs zero heap allocations in steady state.

use crate::error::AutogradError;
use crate::Result;
use hwpr_tensor::{BufferPool, Matrix, PackedWeight, ShapeError};

/// Handle to a node on a [`Tape`].
///
/// `Var` is a plain index: copying it is free and it is only meaningful for
/// the tape that created it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Var(pub(crate) usize);

/// Activation applied by the fused linear kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Act {
    /// No activation (plain affine output).
    Identity,
    /// `max(x, 0)`.
    Relu,
    /// Hyperbolic tangent.
    Tanh,
    /// Logistic sigmoid.
    Sigmoid,
}

impl Act {
    /// Applies the activation to a pre-activation value. The saturating
    /// activations use the division-free `fast_tanh`/`fast_sigmoid`
    /// kernels (≤ 1e-6 abs error vs libm) so the fused `linear_act` pass
    /// vectorises; the standalone [`Tape::tanh`]/[`Tape::sigmoid`] ops
    /// keep exact libm as the accuracy anchor.
    #[inline]
    pub(crate) fn apply(self, x: f32) -> f32 {
        match self {
            Act::Identity => x,
            Act::Relu => x.max(0.0),
            Act::Tanh => hwpr_tensor::fast_tanh(x),
            Act::Sigmoid => hwpr_tensor::fast_sigmoid(x),
        }
    }

    /// Derivative expressed through the activation *output* `y`.
    #[inline]
    pub(crate) fn dapply(self, y: f32) -> f32 {
        match self {
            Act::Identity => 1.0,
            Act::Relu => {
                if y > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Act::Tanh => 1.0 - y * y,
            Act::Sigmoid => y * (1.0 - y),
        }
    }
}

/// Operation recorded on the tape; parents are stored as [`Var`] handles.
#[derive(Debug, Clone)]
pub(crate) enum Op {
    /// Input node (parameter or data); gradients accumulate here.
    Leaf,
    /// `a @ b`.
    MatMul(Var, Var),
    /// `a + b` (same shape).
    Add(Var, Var),
    /// `a - b` (same shape).
    Sub(Var, Var),
    /// Element-wise `a * b` (same shape).
    Mul(Var, Var),
    /// `a + broadcast_rows(bias)` where `bias` is `1 x cols`.
    AddBias(Var, Var),
    /// `a * scalar`.
    Scale(Var, f32),
    /// `a + scalar` element-wise (scalar kept for Debug output).
    AddScalar(Var, #[allow(dead_code)] f32),
    /// `max(a, 0)`.
    Relu(Var),
    /// `tanh(a)`.
    Tanh(Var),
    /// Logistic sigmoid of `a`.
    Sigmoid(Var),
    /// `exp(a)`.
    Exp(Var),
    /// `sqrt(a + eps)` (epsilon kept for Debug output).
    Sqrt(Var, #[allow(dead_code)] f32),
    /// Horizontal concatenation of the parents.
    ConcatCols(Vec<Var>),
    /// Vertical concatenation of the parents.
    ConcatRows(Vec<Var>),
    /// Columns `start..end` of the parent.
    SliceCols(Var, usize, usize),
    /// Rows gathered by index (embedding lookup); duplicates allowed.
    GatherRows(Var, Vec<usize>),
    /// Per-sample constant-adjacency product: block `b` of the parent
    /// (shape `n x f`) is left-multiplied by `adjacency[b]`.
    BlockGraphMatmul(Var, Vec<Matrix>, usize),
    /// Element-wise product with a fixed dropout mask.
    Dropout(Var, Matrix),
    /// Mean over all elements, producing `1 x 1`.
    MeanAll(Var),
    /// Sum over all elements, producing `1 x 1`.
    SumAll(Var),
    /// Fused `act(x @ w [+ bias])`: one GEMM plus one pointwise pass.
    LinearAct {
        /// Input activations `[batch, in]`.
        x: Var,
        /// Weight `[in, out]`.
        w: Var,
        /// Optional bias `[1, out]`.
        bias: Option<Var>,
        /// Pointwise activation applied to the affine output.
        act: Act,
    },
    /// Fused LSTM step: value is `[batch, 2*hidden]` holding `[h | c]`.
    /// Stores the packed input `[x | h_prev]` and post-activation gates
    /// needed by the backward pass.
    LstmStep {
        /// Step input `[batch, in]`.
        x: Var,
        /// Previous `[h | c]` state `[batch, 2*hidden]`.
        hc: Var,
        /// Concatenated `[W_ih; W_hh]` weight `[in+hidden, 4*hidden]`.
        w: Var,
        /// Gate bias `[1, 4*hidden]`.
        bias: Var,
        /// Packed `[x | h_prev]` input saved from the forward pass.
        xh: Matrix,
        /// Post-activation gates `[i f g o]`, `[batch, 4*hidden]`.
        gates: Matrix,
    },
    /// Mean squared error (fused): payload is `dL/dpred` computed forward.
    MseLoss(Var, Matrix),
    /// ListMLE ranking loss (fused): payload is `dL/dscores` computed
    /// forward in the same stabilised pass as the value.
    ListMle(Var, Matrix),
    /// Pairwise hinge ranking loss (fused): payload is `dL/dscores`.
    PairwiseHinge(Var, Matrix),
}

#[derive(Debug)]
pub(crate) struct Node {
    pub(crate) value: Matrix,
    pub(crate) grad: Option<Matrix>,
    pub(crate) op: Op,
}

/// Records a computation graph and runs reverse-mode differentiation.
///
/// See the [crate-level documentation](crate) for an end-to-end example.
///
/// # Arena reuse
///
/// A tape can be reused across training steps: [`Tape::reset`] clears the
/// recorded graph while keeping every buffer (node storage, matrix values,
/// gradients, index lists) pooled for the next pass. Steady-state steps of
/// a fixed-shape model therefore allocate nothing.
#[derive(Debug, Default)]
pub struct Tape {
    pub(crate) nodes: Vec<Node>,
    pub(crate) pool: BufferPool,
    idx_pool: Vec<Vec<usize>>,
    var_pool: Vec<Vec<Var>>,
    mat_vec_pool: Vec<Vec<Matrix>>,
    pub(crate) mark_scratch: Vec<bool>,
    pub(crate) packs: PackCache,
}

/// Per-pass cache of GEMM-packed weight panels, keyed by weight node and
/// orientation. An LSTM weight feeds one GEMM per sequence step, forward
/// and backward; packing it once per pass and reusing the panels removes
/// the driver's per-call pack stage for every step after the first.
/// Entries are invalidated wholesale by [`Tape::reset`] (node values never
/// change within a pass, so entries cannot go stale earlier); the packed
/// buffers are recycled through `spare`, keeping repacking allocation-free
/// in steady state.
#[derive(Debug, Default)]
pub(crate) struct PackCache {
    entries: Vec<(usize, bool, PackedWeight)>,
    spare: Vec<PackedWeight>,
}

impl PackCache {
    /// Removes and returns the pack for `(var, transposed)` if cached;
    /// callers put it back after the GEMM.
    pub(crate) fn take(&mut self, var: usize, transposed: bool) -> Option<PackedWeight> {
        let pos = self
            .entries
            .iter()
            .position(|&(v, t, _)| v == var && t == transposed)?;
        Some(self.entries.swap_remove(pos).2)
    }

    /// A recycled (or fresh) pack buffer to fill on a cache miss.
    pub(crate) fn spare(&mut self) -> PackedWeight {
        self.spare.pop().unwrap_or_default()
    }

    pub(crate) fn put(&mut self, var: usize, transposed: bool, pack: PackedWeight) {
        self.entries.push((var, transposed, pack));
    }

    fn clear(&mut self) {
        for (_, _, pack) in self.entries.drain(..) {
            self.spare.push(pack);
        }
    }
}

impl Tape {
    /// Creates an empty tape.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty tape with capacity for `n` nodes.
    pub fn with_capacity(n: usize) -> Self {
        Self {
            nodes: Vec::with_capacity(n),
            ..Self::default()
        }
    }

    /// Number of nodes recorded so far.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tape is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Clears the recorded graph while keeping all storage for reuse.
    ///
    /// Every node's value and gradient matrix — and the matrix/index
    /// payloads carried by ops — are recycled into the tape's buffer pool,
    /// so the next pass over the same shapes runs without heap traffic.
    pub fn reset(&mut self) {
        self.packs.clear();
        while let Some(node) = self.nodes.pop() {
            let Node { value, grad, op } = node;
            self.pool.put(value);
            if let Some(g) = grad {
                self.pool.put(g);
            }
            match op {
                Op::ConcatCols(vars) | Op::ConcatRows(vars) => self.put_vars(vars),
                Op::GatherRows(_, idx) => self.put_idx(idx),
                Op::BlockGraphMatmul(_, adjacency, _) => {
                    let mut adjacency = adjacency;
                    for m in adjacency.drain(..) {
                        self.pool.put(m);
                    }
                    self.mat_vec_pool.push(adjacency);
                }
                Op::Dropout(_, mask) => self.pool.put(mask),
                Op::LstmStep { xh, gates, .. } => {
                    self.pool.put(xh);
                    self.pool.put(gates);
                }
                Op::MseLoss(_, g) | Op::ListMle(_, g) | Op::PairwiseHinge(_, g) => {
                    self.pool.put(g);
                }
                _ => {}
            }
        }
    }

    /// Takes a zero-filled pooled matrix; pair with [`Tape::recycle`] (or
    /// hand it to an op builder, which recycles it on [`Tape::reset`]).
    pub fn alloc(&mut self, rows: usize, cols: usize) -> Matrix {
        self.pool.take(rows, cols)
    }

    /// Takes a pooled copy of `src`.
    pub fn alloc_copy(&mut self, src: &Matrix) -> Matrix {
        self.pool.take_copy(src)
    }

    /// Returns a matrix's storage to the tape's pool.
    pub fn recycle(&mut self, m: Matrix) {
        self.pool.put(m);
    }

    /// Takes a cleared pooled `Vec<Var>` scratch buffer (for callers that
    /// stage per-step handles, e.g. recurrent layers).
    pub fn scratch_vars(&mut self) -> Vec<Var> {
        self.var_pool.pop().unwrap_or_default()
    }

    /// Returns a `Vec<Var>` scratch buffer to the pool.
    pub fn recycle_vars(&mut self, mut vars: Vec<Var>) {
        vars.clear();
        self.var_pool.push(vars);
    }

    pub(crate) fn take_idx(&mut self) -> Vec<usize> {
        self.idx_pool.pop().unwrap_or_default()
    }

    fn put_idx(&mut self, mut idx: Vec<usize>) {
        idx.clear();
        self.idx_pool.push(idx);
    }

    pub(crate) fn take_vars(&mut self) -> Vec<Var> {
        self.var_pool.pop().unwrap_or_default()
    }

    fn put_vars(&mut self, mut vars: Vec<Var>) {
        vars.clear();
        self.var_pool.push(vars);
    }

    /// Takes a cleared pooled `Vec<Matrix>` scratch buffer (for callers
    /// that stage per-sample constants, e.g. GCN adjacency stacks; hand the
    /// vector to [`Tape::block_graph_matmul`] and `reset` recycles it).
    pub fn scratch_mats(&mut self) -> Vec<Matrix> {
        self.mat_vec_pool.pop().unwrap_or_default()
    }

    /// Inserts an input node holding `value` and returns its handle.
    ///
    /// Leaves are where gradients are read back after [`Tape::backward`];
    /// both trainable parameters and constant inputs are leaves (gradients
    /// of constants are simply ignored by the caller).
    pub fn leaf(&mut self, value: Matrix) -> Var {
        self.push(value, Op::Leaf)
    }

    /// Inserts an input node holding a pooled copy of `value`.
    ///
    /// The allocation-free form of [`Tape::leaf`]: the copy's storage comes
    /// from (and returns to) the tape's buffer pool.
    pub fn leaf_copy(&mut self, value: &Matrix) -> Var {
        let copy = self.pool.take_copy(value);
        self.push(copy, Op::Leaf)
    }

    /// The value held by `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` does not belong to this tape.
    pub fn value(&self, v: Var) -> &Matrix {
        &self.nodes[v.0].value
    }

    /// The gradient accumulated into `v`, if [`Tape::backward`] has run and
    /// `v` participated in the loss.
    ///
    /// # Panics
    ///
    /// Panics if `v` does not belong to this tape.
    pub fn grad(&self, v: Var) -> Option<&Matrix> {
        self.nodes[v.0].grad.as_ref()
    }

    pub(crate) fn push(&mut self, value: Matrix, op: Op) -> Var {
        self.nodes.push(Node {
            value,
            grad: None,
            op,
        });
        Var(self.nodes.len() - 1)
    }

    /// Runs the backward pass from `loss`, accumulating gradients into every
    /// node that contributed to it.
    ///
    /// # Errors
    ///
    /// Returns [`AutogradError::NonScalarLoss`] if `loss` is not `1 x 1`.
    pub fn backward(&mut self, loss: Var) -> Result<()> {
        let shape = self.nodes[loss.0].value.shape();
        if shape != (1, 1) {
            return Err(AutogradError::NonScalarLoss { shape });
        }
        // The unit seed comes from the pool (it is recycled by `reset`), so
        // repeated backward passes never allocate it fresh.
        let mut seed = self.pool.take(1, 1);
        seed.as_mut_slice()[0] = 1.0;
        self.backward_from(loss, seed)
    }

    /// Runs the backward pass from `out` with `seed` as its incoming
    /// gradient `dL/d out`: the second half of a graph cut at `out`.
    ///
    /// A graph whose sub-graph below `out` is recorded on its own tape
    /// copies `out`'s value into a leaf of the downstream tape, runs that
    /// tape's backward first and seeds this one with the leaf's gradient.
    /// Every node below `out` then receives the same contributions in the
    /// same order as on one tape, so the gradients match one tape's bit
    /// for bit: the leaf sums its consumers' contributions exactly as
    /// `out` would have.
    ///
    /// # Errors
    ///
    /// Returns [`AutogradError::Shape`] if `seed` is not shaped like `out`.
    pub fn backward_seeded(&mut self, out: Var, seed: &Matrix) -> Result<()> {
        let shape = self.nodes[out.0].value.shape();
        if seed.shape() != shape {
            return Err(ShapeError::new("backward_seeded", shape, seed.shape()).into());
        }
        let seed = self.pool.take_copy(seed);
        self.backward_from(out, seed)
    }

    /// The reverse sweep shared by both entry points: `seed` becomes
    /// `out`'s gradient, then every earlier node that holds a gradient
    /// back-propagates it, latest first.
    fn backward_from(&mut self, out: Var, seed: Matrix) -> Result<()> {
        let started = crate::telemetry::backward_start();
        self.nodes[out.0].grad = Some(seed);
        for i in (0..=out.0).rev() {
            if self.nodes[i].grad.is_some() {
                self.backprop_node(i)?;
            }
        }
        if let Some(start) = started {
            crate::telemetry::backward_done(start, self.nodes.len(), self.pool.reuse_ratio());
        }
        Ok(())
    }

    /// Adds an owned delta into `v`'s gradient slot: the first contribution
    /// is moved in (no copy), later ones are added and the delta's storage
    /// recycled.
    pub(crate) fn accumulate(&mut self, v: Var, delta: Matrix) {
        match &mut self.nodes[v.0].grad {
            Some(g) => {
                g.add_assign(&delta);
                self.pool.put(delta);
            }
            slot @ None => *slot = Some(delta),
        }
    }

    /// Makes sure `v` has a gradient buffer (zeroed, pooled, shaped like
    /// its value), so fused backward rules can accumulate GEMM results
    /// straight into the slot via the driver's native `C += A @ B`
    /// semantics instead of filling a per-contribution temporary.
    /// Callers `take()` the buffer out of the slot around the GEMM to
    /// satisfy the borrow checker and put it back — a pointer move.
    pub(crate) fn ensure_grad(&mut self, v: Var) {
        if self.nodes[v.0].grad.is_none() {
            let (r, c) = self.nodes[v.0].value.shape();
            let buf = self.pool.take(r, c);
            self.nodes[v.0].grad = Some(buf);
        }
    }

    /// Accumulates a borrowed delta by taking a pooled copy first.
    pub(crate) fn accumulate_copy(&mut self, v: Var, delta: &Matrix) {
        if let Some(g) = &mut self.nodes[v.0].grad {
            g.add_assign(delta);
        } else {
            let copy = self.pool.take_copy(delta);
            self.nodes[v.0].grad = Some(copy);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leaf_round_trip() {
        let mut t = Tape::new();
        let m = Matrix::from_rows(&[&[1.0, 2.0]]);
        let v = t.leaf(m.clone());
        assert_eq!(t.value(v), &m);
        assert!(t.grad(v).is_none());
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
    }

    #[test]
    fn backward_rejects_non_scalar() {
        let mut t = Tape::new();
        let v = t.leaf(Matrix::zeros(2, 2));
        let err = t.backward(v).unwrap_err();
        assert_eq!(err, AutogradError::NonScalarLoss { shape: (2, 2) });
    }

    #[test]
    fn backward_on_scalar_leaf_sets_unit_grad() {
        let mut t = Tape::new();
        let v = t.leaf(Matrix::ones(1, 1));
        t.backward(v).unwrap();
        assert_eq!(t.grad(v).unwrap(), &Matrix::ones(1, 1));
    }

    #[test]
    fn with_capacity_starts_empty() {
        let t = Tape::with_capacity(64);
        assert!(t.is_empty());
    }

    #[test]
    fn reset_clears_graph_and_pools_buffers() {
        let mut t = Tape::new();
        let a = t.leaf(Matrix::filled(2, 2, 1.0));
        let b = t.leaf(Matrix::filled(2, 2, 2.0));
        let y = t.add(a, b).unwrap();
        let loss = t.mean_all(y);
        t.backward(loss).unwrap();
        t.reset();
        assert!(t.is_empty());
        // a fresh pass over the same shapes reuses the pooled storage
        let a = t.leaf_copy(&Matrix::filled(2, 2, 3.0));
        let loss = t.mean_all(a);
        t.backward(loss).unwrap();
        assert_eq!(t.grad(a).unwrap(), &Matrix::filled(2, 2, 0.25));
    }

    #[test]
    fn leaf_copy_matches_leaf() {
        let mut t = Tape::new();
        let m = Matrix::from_rows(&[&[1.5, -2.0]]);
        let v = t.leaf_copy(&m);
        assert_eq!(t.value(v), &m);
    }

    #[test]
    fn reset_then_repeat_pass_is_deterministic() {
        let run = |t: &mut Tape| -> (f32, Matrix) {
            let x = t.leaf_copy(&Matrix::from_rows(&[&[0.5, -1.0], &[2.0, 0.25]]));
            let w = t.leaf_copy(&Matrix::from_rows(&[&[1.0, 0.5], &[-0.5, 1.5]]));
            let y = t.matmul(x, w).unwrap();
            let z = t.tanh(y);
            let loss = t.mean_all(z);
            t.backward(loss).unwrap();
            (t.value(loss)[(0, 0)], t.grad(w).unwrap().clone())
        };
        let mut t = Tape::new();
        let (l1, g1) = run(&mut t);
        t.reset();
        let (l2, g2) = run(&mut t);
        assert_eq!(l1, l2);
        assert_eq!(g1, g2);
    }

    #[test]
    fn a_graph_cut_at_a_shared_node_matches_one_tape_bit_for_bit() {
        let x = Matrix::from_rows(&[&[0.5, -1.25, 2.0], &[0.75, 0.1, -0.3]]);
        let w = Matrix::from_rows(&[&[0.3, -0.7], &[1.1, 0.2], &[-0.4, 0.9]]);
        let v = Matrix::from_rows(&[&[0.6], &[-1.3]]);
        // below the cut: y = tanh(x @ w)
        let below = |t: &mut Tape| {
            let (x, w) = (t.leaf_copy(&x), t.leaf_copy(&w));
            let xw = t.matmul(x, w).unwrap();
            (x, w, t.tanh(xw))
        };
        // above it, y has two consumers: mean(y * y) + sum(y @ v)
        let above = |t: &mut Tape, y: Var| {
            let v = t.leaf_copy(&v);
            let sq = t.mul(y, y).unwrap();
            let yv = t.matmul(y, v).unwrap();
            let (a, b) = (t.mean_all(sq), t.sum_all(yv));
            (v, t.add(a, b).unwrap())
        };
        let mut one = Tape::new();
        let (x1, w1, y1) = below(&mut one);
        let (v1, loss1) = above(&mut one, y1);
        one.backward(loss1).unwrap();

        let mut lower = Tape::new();
        let (x2, w2, y2) = below(&mut lower);
        let mut upper = Tape::new();
        let cut = upper.leaf_copy(lower.value(y2));
        let (v2, loss2) = above(&mut upper, cut);
        upper.backward(loss2).unwrap();
        lower.backward_seeded(y2, upper.grad(cut).unwrap()).unwrap();

        let bits = |m: Option<&Matrix>| -> Vec<u32> {
            m.unwrap().as_slice().iter().map(|v| v.to_bits()).collect()
        };
        assert_eq!(bits(Some(one.value(loss1))), bits(Some(upper.value(loss2))));
        assert_eq!(bits(one.grad(y1)), bits(upper.grad(cut)));
        assert_eq!(bits(one.grad(v1)), bits(upper.grad(v2)));
        assert_eq!(bits(one.grad(w1)), bits(lower.grad(w2)));
        assert_eq!(bits(one.grad(x1)), bits(lower.grad(x2)));
    }

    #[test]
    fn backward_seeded_rejects_a_misshapen_seed() {
        let mut t = Tape::new();
        let v = t.leaf(Matrix::zeros(2, 3));
        let err = t.backward_seeded(v, &Matrix::zeros(3, 2)).unwrap_err();
        assert!(matches!(err, AutogradError::Shape(_)), "{err:?}");
        assert!(t.grad(v).is_none());
    }

    #[test]
    fn scratch_vars_round_trip() {
        let mut t = Tape::new();
        let mut v = t.scratch_vars();
        v.push(Var(0));
        t.recycle_vars(v);
        let v2 = t.scratch_vars();
        assert!(v2.is_empty());
        assert!(v2.capacity() >= 1);
    }
}
