//! Central parameter store and per-pass tape binding.

use crate::Result;
use hwpr_autograd::{Tape, Var};
use hwpr_tensor::{Init, Matrix};

/// Identifier of a parameter inside a [`Params`] store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ParamId(usize);

/// Owns every trainable matrix of a model.
///
/// Layers are constructed against a `&mut Params` and keep only
/// [`ParamId`]s; optimizers mutate the store in place between passes.
#[derive(Debug, Default, Clone)]
pub struct Params {
    values: Vec<Matrix>,
    names: Vec<String>,
    /// While restoring (see [`Params::restoring`]): the saved values
    /// registrations take in order, and the first registration that found
    /// no saved value of its shape.
    restore: Option<Box<(std::vec::IntoIter<Matrix>, Option<String>)>>,
}

impl Params {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// A store that rebuilds a saved model: each registration takes the
    /// next of `values`, in order, instead of initialising a new matrix,
    /// so building layers against it allocates no weights beyond what
    /// `values` holds. [`Params::finish_restore`] reports any mismatch.
    pub fn restoring(values: Vec<Matrix>) -> Self {
        Self {
            restore: Some(Box::new((values.into_iter(), None))),
            ..Self::default()
        }
    }

    /// Ends a [`Params::restoring`] build (a no-op on any other store).
    ///
    /// # Errors
    ///
    /// Names the first registration that found no saved value of its
    /// shape, or counts the saved values no registration took.
    pub fn finish_restore(&mut self) -> std::result::Result<(), String> {
        match self.restore.take().map(|r| *r) {
            Some((_, Some(mismatch))) => Err(mismatch),
            Some((left, None)) if left.len() > 0 => {
                Err(format!("{} saved parameters left over", left.len()))
            }
            _ => Ok(()),
        }
    }

    /// In a restoring store, the next saved value if it is `rows x cols`,
    /// else an empty placeholder (and the mismatch is recorded); `None` in
    /// any other store.
    fn restored(&mut self, name: &str, rows: usize, cols: usize) -> Option<Matrix> {
        let (saved, mismatch) = self.restore.as_deref_mut()?;
        Some(match saved.next() {
            Some(value) if value.shape() == (rows, cols) => value,
            _ => {
                mismatch.get_or_insert_with(|| {
                    format!("parameter `{name}` has no saved {rows}x{cols} value")
                });
                Matrix::default()
            }
        })
    }

    /// Registers a parameter initialised by `init` with the given `seed`.
    pub fn add(&mut self, name: &str, rows: usize, cols: usize, init: Init, seed: u64) -> ParamId {
        let value = self
            .restored(name, rows, cols)
            .unwrap_or_else(|| init.matrix(rows, cols, seed));
        self.push(name, value)
    }

    /// Registers a parameter with an explicit initial value.
    pub fn add_matrix(&mut self, name: &str, value: Matrix) -> ParamId {
        let value = self
            .restored(name, value.rows(), value.cols())
            .unwrap_or(value);
        self.push(name, value)
    }

    fn push(&mut self, name: &str, value: Matrix) -> ParamId {
        self.values.push(value);
        self.names.push(name.to_string());
        ParamId(self.values.len() - 1)
    }

    /// Number of registered parameters (matrices, not scalars).
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Total number of scalar weights across all parameters.
    pub fn scalar_count(&self) -> usize {
        self.values.iter().map(Matrix::len).sum()
    }

    /// The current value of a parameter.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this store.
    pub fn get(&self, id: ParamId) -> &Matrix {
        &self.values[id.0]
    }

    /// Mutable access to a parameter (used by optimizers).
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this store.
    pub fn get_mut(&mut self, id: ParamId) -> &mut Matrix {
        &mut self.values[id.0]
    }

    /// The registered name of a parameter.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this store.
    pub fn name(&self, id: ParamId) -> &str {
        &self.names[id.0]
    }

    /// The ids of all registered parameters, in registration order.
    pub fn ids(&self) -> Vec<ParamId> {
        (0..self.values.len()).map(ParamId).collect()
    }

    /// The id at position `idx` in registration order (the allocation-free
    /// alternative to [`Params::ids`] for optimizer loops).
    ///
    /// # Panics
    ///
    /// Panics if `idx >= self.len()`.
    pub fn id_at(&self, idx: usize) -> ParamId {
        assert!(idx < self.values.len(), "parameter index out of range");
        ParamId(idx)
    }

    /// Iterator over `(id, name, value)` triples.
    pub fn iter(&self) -> impl Iterator<Item = (ParamId, &str, &Matrix)> {
        self.values
            .iter()
            .zip(&self.names)
            .enumerate()
            .map(|(i, (v, n))| (ParamId(i), n.as_str(), v))
    }

    pub(crate) fn index(id: ParamId) -> usize {
        id.0
    }
}

/// Binds parameters from a [`Params`] store onto a [`Tape`] for one
/// forward/backward pass, then routes gradients back.
///
/// Layers call [`Binder::param`] during `forward`; the binder inserts each
/// parameter as a tape leaf at most once per pass. [`Binder::finish`] runs
/// the backward pass and returns gradients aligned with the store.
#[derive(Debug)]
pub struct Binder<'t, 'p> {
    tape: &'t mut Tape,
    params: &'p Params,
    bound: Vec<Option<Var>>,
    /// Whether stochastic layers (dropout) should be active.
    pub train: bool,
}

impl<'t, 'p> Binder<'t, 'p> {
    /// Creates a binder in inference mode (dropout disabled).
    pub fn new(tape: &'t mut Tape, params: &'p Params) -> Self {
        Self {
            tape,
            params,
            bound: vec![None; params.len()],
            train: false,
        }
    }

    /// Creates a binder in training mode (dropout enabled).
    pub fn for_training(tape: &'t mut Tape, params: &'p Params) -> Self {
        let mut b = Self::new(tape, params);
        b.train = true;
        b
    }

    /// Creates a binder that reuses a binding buffer returned by
    /// [`Binder::finish_into`], avoiding the per-pass `Vec` allocation of
    /// [`Binder::new`]. The buffer is cleared and resized to the store.
    pub fn rebind(
        tape: &'t mut Tape,
        params: &'p Params,
        mut bound: Vec<Option<Var>>,
        train: bool,
    ) -> Self {
        bound.clear();
        bound.resize(params.len(), None);
        Self {
            tape,
            params,
            bound,
            train,
        }
    }

    /// The tape being recorded onto.
    pub fn tape(&mut self) -> &mut Tape {
        self.tape
    }

    /// Inserts an input (non-parameter) leaf.
    pub fn input(&mut self, value: Matrix) -> Var {
        self.tape.leaf(value)
    }

    /// Inserts an input leaf holding a pooled copy of `value` — the
    /// allocation-free form of [`Binder::input`] for reused tapes.
    pub fn input_copy(&mut self, value: &Matrix) -> Var {
        self.tape.leaf_copy(value)
    }

    /// The tape variable for parameter `id`, binding it on first use.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to the bound store.
    pub fn param(&mut self, id: ParamId) -> Var {
        let idx = Params::index(id);
        if let Some(v) = self.bound[idx] {
            return v;
        }
        let v = self.tape.leaf_copy(self.params.get(id));
        self.bound[idx] = Some(v);
        v
    }

    /// Runs the backward pass from `loss` and returns per-parameter
    /// gradients aligned with the store (`None` for parameters that did not
    /// participate in this pass).
    ///
    /// # Errors
    ///
    /// Propagates [`hwpr_autograd::AutogradError`] from the backward pass.
    pub fn finish(self, loss: Var) -> Result<Vec<Option<Matrix>>> {
        self.tape.backward(loss)?;
        let grads = self
            .bound
            .iter()
            .map(|slot| slot.and_then(|v| self.tape.grad(v).cloned()))
            .collect();
        Ok(grads)
    }

    /// Runs the backward pass from `loss` and copies per-parameter
    /// gradients into `grads` (resized to the store), reusing each entry's
    /// storage when its shape already matches. Returns the binding buffer
    /// for reuse via [`Binder::rebind`].
    ///
    /// Together with [`Tape::reset`] this keeps a fixed-shape training loop
    /// free of per-step allocations: both the binding `Vec` and every
    /// gradient matrix persist across steps.
    ///
    /// # Errors
    ///
    /// Propagates [`hwpr_autograd::AutogradError`] from the backward pass.
    pub fn finish_into(
        mut self,
        loss: Var,
        grads: &mut Vec<Option<Matrix>>,
    ) -> Result<Vec<Option<Var>>> {
        grads.resize_with(self.params.len(), || None);
        self.finish_range_into(loss, None, grads, 0)?;
        Ok(self.bound)
    }

    /// Runs the backward pass from `out` and writes the gradients of
    /// parameters `first..first + grads.len()` into `grads`: a bound one
    /// gets its gradient (reusing the entry's storage when its shape
    /// matches), an unbound one `None`. Parameters bound outside that
    /// range are not written, so tapes whose parameters occupy disjoint
    /// ranges of one store can finish concurrently into disjoint
    /// `split_at_mut` halves of one gradient buffer.
    ///
    /// `seed` is `out`'s incoming gradient when `out` is the cut point of
    /// a graph recorded over several tapes (see [`Tape::backward_seeded`]);
    /// `None` back-propagates a scalar loss.
    ///
    /// # Errors
    ///
    /// Propagates [`hwpr_autograd::AutogradError`] from the backward pass.
    ///
    /// # Panics
    ///
    /// Panics if the range runs past the end of the store.
    pub fn finish_range_into(
        &mut self,
        out: Var,
        seed: Option<&Matrix>,
        grads: &mut [Option<Matrix>],
        first: usize,
    ) -> Result<()> {
        match seed {
            Some(seed) => self.tape.backward_seeded(out, seed)?,
            None => self.tape.backward(out)?,
        }
        let range = first..first + grads.len();
        for (slot, dst) in self.bound[range].iter().zip(grads.iter_mut()) {
            let src = slot.and_then(|v| self.tape.grad(v));
            match (src, dst) {
                (Some(g), Some(existing)) if existing.shape() == g.shape() => {
                    existing.as_mut_slice().copy_from_slice(g.as_slice());
                }
                (Some(g), dst) => *dst = Some(g.clone()),
                (None, dst) => *dst = None,
            }
        }
        Ok(())
    }

    /// Releases the tape borrow and returns the binding buffer for reuse
    /// via [`Binder::rebind`] — the inference-path counterpart of
    /// [`Binder::finish_into`] (no backward pass, no gradients).
    pub fn into_bound(self) -> Vec<Option<Var>> {
        self.bound
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn store_registration_and_access() {
        let mut p = Params::new();
        assert!(p.is_empty());
        let w = p.add("w", 2, 3, Init::Zeros, 0);
        let b = p.add_matrix("b", Matrix::ones(1, 3));
        assert_eq!(p.len(), 2);
        assert_eq!(p.scalar_count(), 9);
        assert_eq!(p.name(w), "w");
        assert_eq!(p.get(b), &Matrix::ones(1, 3));
        p.get_mut(w).set(0, 0, 5.0);
        assert_eq!(p.get(w)[(0, 0)], 5.0);
        let collected: Vec<_> = p.iter().map(|(_, n, _)| n.to_string()).collect();
        assert_eq!(collected, vec!["w", "b"]);
    }

    #[test]
    fn binder_binds_each_param_once() {
        let mut p = Params::new();
        let w = p.add_matrix("w", Matrix::filled(1, 1, 2.0));
        let mut tape = Tape::new();
        let mut binder = Binder::new(&mut tape, &p);
        let v1 = binder.param(w);
        let v2 = binder.param(w);
        assert_eq!(v1, v2);
        assert_eq!(tape.len(), 1);
    }

    #[test]
    fn finish_routes_gradients_to_store_order() {
        let mut p = Params::new();
        let w = p.add_matrix("w", Matrix::filled(1, 1, 2.0));
        let unused = p.add_matrix("unused", Matrix::filled(1, 1, 1.0));
        let mut tape = Tape::new();
        let mut binder = Binder::new(&mut tape, &p);
        let x = binder.input(Matrix::filled(1, 1, 3.0));
        let wv = binder.param(w);
        let y = binder.tape().mul(x, wv).unwrap();
        let grads = binder.finish(y).unwrap();
        assert_eq!(grads.len(), 2);
        assert_eq!(grads[Params::index(w)].as_ref().unwrap()[(0, 0)], 3.0);
        assert!(grads[Params::index(unused)].is_none());
    }

    #[test]
    fn finish_range_into_writes_only_its_range() {
        let mut p = Params::new();
        let a = p.add_matrix("a", Matrix::filled(1, 1, 2.0));
        let b = p.add_matrix("b", Matrix::filled(1, 1, 5.0));
        let unused = p.add_matrix("unused", Matrix::filled(1, 1, 1.0));
        let mut tape = Tape::new();
        let mut binder = Binder::new(&mut tape, &p);
        let (av, bv) = (binder.param(a), binder.param(b));
        let y = binder.tape().mul(av, bv).unwrap();
        // the caller's buffer covers all three; the finish owns b..=unused
        let stale = Some(Matrix::filled(1, 1, -9.0));
        let mut grads = [stale.clone(), stale.clone(), stale.clone()];
        binder
            .finish_range_into(y, None, &mut grads[1..], Params::index(b))
            .unwrap();
        assert_eq!(grads[0], stale, "a lies outside the range");
        assert_eq!(grads[1].as_ref().unwrap()[(0, 0)], 2.0);
        assert!(grads[Params::index(unused)].is_none());
    }

    #[test]
    fn training_mode_flag() {
        let p = Params::new();
        let mut tape = Tape::new();
        let b = Binder::for_training(&mut tape, &p);
        assert!(b.train);
        let mut tape = Tape::new();
        let b = Binder::new(&mut tape, &p);
        assert!(!b.train);
    }
}
