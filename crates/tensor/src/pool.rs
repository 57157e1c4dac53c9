//! Recycled matrix storage for allocation-free hot loops.
//!
//! Training builds and tears down the same set of intermediate matrices on
//! every step. [`BufferPool`] keeps the backing `Vec<f32>` buffers alive
//! between steps, bucketed by power-of-two capacity class, so that after a
//! warm-up pass the tape and optimizer stop touching the heap entirely.

use crate::matrix::Matrix;

/// Number of power-of-two capacity classes tracked (up to 2^39 elements,
/// far beyond any matrix this workload builds).
const CLASSES: usize = 40;

/// A recycler for the `Vec<f32>` buffers behind [`Matrix`].
///
/// Buffers are bucketed by the power-of-two class of their element count:
/// [`BufferPool::take`] pops a buffer whose class matches the requested
/// size (resizing within the class as needed) and [`BufferPool::put`]
/// returns it. After one warm-up iteration of a fixed-shape workload every
/// `take` is serviced from the pool without heap traffic.
///
/// # Examples
///
/// ```
/// use hwpr_tensor::{BufferPool, Matrix};
///
/// let mut pool = BufferPool::new();
/// let m = pool.take(2, 3);
/// assert_eq!(m.shape(), (2, 3));
/// assert_eq!(m.sum(), 0.0);
/// pool.put(m);
/// let again = pool.take(3, 2); // same class, same backing buffer
/// assert_eq!(again.len(), 6);
/// ```
#[derive(Debug, Default)]
pub struct BufferPool {
    buckets: Vec<Vec<Vec<f32>>>,
    /// Takes serviced from a pooled buffer (no heap traffic).
    hits: u64,
    /// Takes that had to allocate fresh storage.
    misses: u64,
}

/// Capacity class of a buffer length: index of the smallest power of two
/// that holds `len` elements.
#[inline]
fn class_of(len: usize) -> usize {
    len.next_power_of_two().trailing_zeros() as usize
}

/// The class a buffer of capacity `cap > 0` is filed under: the largest
/// class it fully holds (floor of log2), so every take from that class
/// fits without reallocating. The pool's own buffers have power-of-two
/// capacities, for which this equals [`class_of`].
#[inline]
fn class_held(cap: usize) -> usize {
    cap.ilog2() as usize
}

impl BufferPool {
    /// Creates an empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Takes a zero-filled `rows x cols` matrix, reusing pooled storage
    /// when a buffer of the right capacity class is available.
    pub fn take(&mut self, rows: usize, cols: usize) -> Matrix {
        let len = rows * cols;
        let mut data = self.take_raw(len);
        data.clear();
        data.resize(len, 0.0);
        Matrix::from_vec(rows, cols, data).expect("pool buffer sized to shape")
    }

    /// Takes a `rows x cols` matrix with **unspecified contents**, for
    /// outputs that every kernel in the consuming path fully overwrites
    /// (e.g. `matmul_prepacked_into`). Skips the zero-fill of
    /// [`BufferPool::take`].
    pub fn take_uninit(&mut self, rows: usize, cols: usize) -> Matrix {
        let len = rows * cols;
        let mut data = self.take_raw(len);
        data.resize(len, 0.0);
        Matrix::from_vec(rows, cols, data).expect("pool buffer sized to shape")
    }

    /// Takes a pooled copy of `src` (same shape, same contents).
    pub fn take_copy(&mut self, src: &Matrix) -> Matrix {
        let len = src.len();
        let mut data = self.take_raw(len);
        data.clear();
        data.extend_from_slice(src.as_slice());
        Matrix::from_vec(src.rows(), src.cols(), data).expect("pool buffer sized to shape")
    }

    /// Returns a matrix's backing buffer to the pool for reuse.
    pub fn put(&mut self, m: Matrix) {
        self.put_raw(m.into_vec());
    }

    /// Takes a raw buffer with at least class capacity for `len` elements.
    /// Contents are unspecified; callers clear or overwrite.
    pub fn take_raw(&mut self, len: usize) -> Vec<f32> {
        if len == 0 {
            return Vec::new();
        }
        let class = class_of(len);
        match self.buckets.get_mut(class).and_then(Vec::pop) {
            Some(buf) => {
                self.hits += 1;
                buf
            }
            // Round fresh allocations up to the class size so the buffer
            // re-enters the same bucket whatever shape it is reused for.
            None => {
                self.misses += 1;
                Vec::with_capacity(len.next_power_of_two())
            }
        }
    }

    /// Returns a raw buffer to the bucket of the largest capacity class it
    /// fully holds. A buffer built outside the pool (any capacity) is
    /// filed below its length's class rather than above it, so a later
    /// take never pops a buffer too small for it.
    pub fn put_raw(&mut self, buf: Vec<f32>) {
        let cap = buf.capacity();
        if cap == 0 {
            return;
        }
        let class = class_held(cap).min(CLASSES - 1);
        if self.buckets.len() <= class {
            self.buckets.resize_with(class + 1, Vec::new);
        }
        self.buckets[class].push(buf);
    }

    /// Total number of buffers currently parked in the pool.
    pub fn parked(&self) -> usize {
        self.buckets.iter().map(Vec::len).sum()
    }

    /// Non-empty takes serviced from pooled storage since creation.
    pub fn reuse_hits(&self) -> u64 {
        self.hits
    }

    /// Non-empty takes that allocated fresh storage since creation.
    pub fn reuse_misses(&self) -> u64 {
        self.misses
    }

    /// Fraction of non-empty takes serviced without allocating; 0 before
    /// the first take. Approaches 1 once a fixed-shape workload warms up.
    pub fn reuse_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_is_zeroed_even_after_dirty_put() {
        let mut pool = BufferPool::new();
        let mut m = pool.take(2, 2);
        m.as_mut_slice().fill(7.0);
        pool.put(m);
        let fresh = pool.take(2, 2);
        assert_eq!(fresh.sum(), 0.0);
    }

    #[test]
    fn same_class_reuses_buffer() {
        let mut pool = BufferPool::new();
        let m = pool.take(3, 2); // len 6 → class 3 (cap 8)
        pool.put(m);
        assert_eq!(pool.parked(), 1);
        let _again = pool.take(2, 4); // len 8 → same class
        assert_eq!(pool.parked(), 0);
    }

    #[test]
    fn take_uninit_has_shape_and_reuses_class() {
        let mut pool = BufferPool::new();
        let mut m = pool.take(4, 4);
        m.as_mut_slice().fill(3.0);
        pool.put(m);
        let dirty = pool.take_uninit(4, 4);
        assert_eq!(dirty.shape(), (4, 4));
        assert_eq!(pool.reuse_hits(), 1);
    }

    #[test]
    fn take_copy_matches_source() {
        let mut pool = BufferPool::new();
        let src = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let copy = pool.take_copy(&src);
        assert_eq!(copy, src);
    }

    #[test]
    fn zero_sized_buffers_are_ignored() {
        let mut pool = BufferPool::new();
        let m = pool.take(0, 5);
        assert!(m.is_empty());
        pool.put(m);
        assert_eq!(pool.parked(), 0);
    }

    #[test]
    fn reuse_stats_track_hits_and_misses() {
        let mut pool = BufferPool::new();
        assert_eq!(pool.reuse_ratio(), 0.0);
        let m = pool.take(2, 2); // miss
        pool.put(m);
        let _again = pool.take(2, 2); // hit
        assert_eq!(pool.reuse_hits(), 1);
        assert_eq!(pool.reuse_misses(), 1);
        assert_eq!(pool.reuse_ratio(), 0.5);
        let empty = pool.take(0, 3); // zero-sized: not counted
        pool.put(empty);
        assert_eq!(pool.reuse_hits() + pool.reuse_misses(), 2);
    }

    #[test]
    fn a_foreign_buffer_is_filed_under_the_class_it_holds() {
        let mut pool = BufferPool::new();
        pool.put_raw(Vec::with_capacity(100));
        // 120 elements need class 7 (128): the 100-slot buffer must not
        // serve it
        assert!(pool.take_raw(120).capacity() >= 120);
        assert_eq!(pool.reuse_hits(), 0);
        // 64 elements (class 6) fit in it
        let m = pool.take(8, 8);
        assert_eq!(m.len(), 64);
        assert_eq!(pool.reuse_hits(), 1);
        assert_eq!(pool.parked(), 0);
    }

    #[test]
    fn class_held_matches_class_of_on_powers_of_two() {
        for class in 0..CLASSES {
            assert_eq!(class_held(1 << class), class);
            assert_eq!(class_of(1 << class), class);
        }
        assert_eq!(class_held(100), 6);
        assert_eq!(class_held(127), 6);
        assert_eq!(class_held(129), 7);
    }

    #[test]
    fn class_of_boundaries() {
        assert_eq!(class_of(1), 0);
        assert_eq!(class_of(2), 1);
        assert_eq!(class_of(3), 2);
        assert_eq!(class_of(4), 2);
        assert_eq!(class_of(5), 3);
    }
}
