//! Dense 2-D `f64` tensors (row-major).
//!
//! Everything in the NN stack is a matrix; vectors are `1 x n` or `n x 1`
//! matrices. Shapes are validated eagerly with panics — shape bugs are
//! programming errors, not runtime conditions.

use rand::Rng;
use serde::{Deserialize, Serialize};

/// A row-major matrix of `f64`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tensor {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Tensor {
    /// `rows x cols` of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Tensor {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// `rows x cols` filled with `v`.
    pub fn full(rows: usize, cols: usize, v: f64) -> Self {
        Tensor {
            rows,
            cols,
            data: vec![v; rows * cols],
        }
    }

    /// Build from a closure over `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Tensor { rows, cols, data }
    }

    /// Build from a flat row-major vector. Panics if the length mismatches.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "flat data length != rows*cols");
        Tensor { rows, cols, data }
    }

    /// Build a zeroed `rows x cols` tensor reusing `buf`'s capacity.
    ///
    /// The arena primitive: a buffer recycled through `Tape::reset` re-enters
    /// the graph here without a fresh heap allocation (as long as its
    /// capacity suffices). Contents are cleared to exact `+0.0`.
    pub fn from_buffer(rows: usize, cols: usize, mut buf: Vec<f64>) -> Self {
        buf.clear();
        buf.resize(rows * cols, 0.0);
        Tensor {
            rows,
            cols,
            data: buf,
        }
    }

    /// Consume the tensor, yielding its backing buffer for reuse.
    pub fn into_data(self) -> Vec<f64> {
        self.data
    }

    /// Copy of the half-open row range `[lo, hi)` as a new `hi-lo x cols`
    /// tensor. Used by segment-aware backward passes to slice one sample's
    /// row block out of a batched activation.
    pub fn rows_copy(&self, lo: usize, hi: usize) -> Tensor {
        assert!(lo <= hi && hi <= self.rows, "rows_copy range out of bounds");
        let mut data = Vec::with_capacity((hi - lo) * self.cols);
        data.extend_from_slice(&self.data[lo * self.cols..hi * self.cols]);
        Tensor {
            rows: hi - lo,
            cols: self.cols,
            data,
        }
    }

    /// A `1 x n` row vector.
    pub fn row_vector(data: Vec<f64>) -> Self {
        let n = data.len();
        Tensor {
            rows: 1,
            cols: n,
            data,
        }
    }

    /// Xavier/Glorot uniform initialization for a `rows x cols` weight.
    pub fn xavier<R: Rng>(rows: usize, cols: usize, rng: &mut R) -> Self {
        let limit = (6.0 / (rows + cols) as f64).sqrt();
        Tensor::from_fn(rows, cols, |_, _| rng.gen_range(-limit..limit))
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if the tensor has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Element setter.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Flat row-major data.
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutable flat data.
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Borrow row `r` as a slice.
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Borrow row `r` mutably.
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copy `src`'s elements into `self` without reallocating. Shapes must
    /// match — this is the buffer-reuse primitive for epoch-boundary state
    /// snapshots (see `ParamStore::copy_from`).
    pub fn copy_from(&mut self, src: &Tensor) {
        assert_eq!(
            (self.rows, self.cols),
            (src.rows, src.cols),
            "copy_from shape mismatch"
        );
        self.data.copy_from_slice(&src.data);
    }

    /// Copy row `r` of `src` into row `dst_r` of `self`.
    pub fn copy_row_from(&mut self, dst_r: usize, src: &Tensor, src_r: usize) {
        assert_eq!(self.cols, src.cols, "row width mismatch");
        let d = dst_r * self.cols;
        let s = src_r * src.cols;
        self.data[d..d + self.cols].copy_from_slice(&src.data[s..s + src.cols]);
    }

    /// Matrix product `self * rhs`.
    pub fn matmul(&self, rhs: &Tensor) -> Tensor {
        let mut out = Tensor::zeros(self.rows, rhs.cols);
        self.matmul_into(rhs, &mut out);
        out
    }

    /// Matrix product `self * rhs` written into `out` (which must already be
    /// a zeroed `self.rows x rhs.cols` tensor). Single implementation shared
    /// with `matmul` so pooled and non-pooled paths are bitwise identical.
    pub fn matmul_into(&self, rhs: &Tensor, out: &mut Tensor) {
        assert_eq!(
            self.cols,
            rhs.rows,
            "matmul shape mismatch: {:?} x {:?}",
            self.shape(),
            rhs.shape()
        );
        assert_eq!(
            (out.rows, out.cols),
            (self.rows, rhs.cols),
            "matmul_into output shape mismatch"
        );
        // i-k-j loop order: contiguous access on rhs and out rows.
        for i in 0..self.rows {
            let out_row = &mut out.data[i * rhs.cols..(i + 1) * rhs.cols];
            for k in 0..self.cols {
                let a = self.data[i * self.cols + k];
                if a == 0.0 {
                    continue;
                }
                let rhs_row = &rhs.data[k * rhs.cols..(k + 1) * rhs.cols];
                for (o, &b) in out_row.iter_mut().zip(rhs_row) {
                    *o += a * b;
                }
            }
        }
    }

    /// Row-sliced transposed product: `self[lo..hi]^T * rhs[lo..hi]`,
    /// bitwise identical to
    /// `self.rows_copy(lo, hi).transpose().matmul(&rhs.rows_copy(lo, hi))`
    /// without materializing the slices or the transpose. This is the
    /// per-segment weight-gradient kernel of the batched backward pass
    /// (`Op::SegMatMul`), where the copies would dominate.
    pub fn matmul_t_rows(&self, rhs: &Tensor, lo: usize, hi: usize) -> Tensor {
        assert_eq!(self.rows, rhs.rows, "matmul_t_rows row count mismatch");
        assert!(
            lo <= hi && hi <= self.rows,
            "matmul_t_rows range out of bounds"
        );
        let mut out = Tensor::zeros(self.cols, rhs.cols);
        // i-k-j order over the *transposed* slice: k walks rows lo..hi
        // ascending — the same accumulation order (and the same exact-zero
        // sparsity skip) as the copy/transpose/matmul chain, so the result
        // is bitwise identical to the per-sample path.
        for i in 0..self.cols {
            let out_row = &mut out.data[i * rhs.cols..(i + 1) * rhs.cols];
            for k in lo..hi {
                let a = self.data[k * self.cols + i];
                if a == 0.0 {
                    continue;
                }
                let rhs_row = &rhs.data[k * rhs.cols..(k + 1) * rhs.cols];
                for (o, &b) in out_row.iter_mut().zip(rhs_row) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Tensor {
        let mut out = Tensor::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Elementwise map into a new tensor.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Tensor {
        Tensor {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Elementwise combine with another same-shaped tensor.
    pub fn zip(&self, other: &Tensor, f: impl Fn(f64, f64) -> f64) -> Tensor {
        assert_eq!(self.shape(), other.shape(), "zip shape mismatch");
        Tensor {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        }
    }

    /// In-place `self += alpha * other`.
    pub fn add_scaled(&mut self, other: &Tensor, alpha: f64) {
        assert_eq!(self.shape(), other.shape(), "add_scaled shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// Maximum absolute element (0 for empty tensors).
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0, |m, &x| m.max(x.abs()))
    }

    /// True if all elements are finite.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn constructors_and_shape() {
        let t = Tensor::zeros(2, 3);
        assert_eq!(t.shape(), (2, 3));
        assert_eq!(t.len(), 6);
        assert!(!t.is_empty());
        let t = Tensor::full(1, 2, 7.0);
        assert_eq!(t.data(), &[7.0, 7.0]);
        let t = Tensor::from_fn(2, 2, |r, c| (r * 10 + c) as f64);
        assert_eq!(t.data(), &[0.0, 1.0, 10.0, 11.0]);
        let t = Tensor::row_vector(vec![1.0, 2.0]);
        assert_eq!(t.shape(), (1, 2));
    }

    #[test]
    #[should_panic(expected = "flat data length")]
    fn from_vec_checks_len() {
        Tensor::from_vec(2, 2, vec![1.0]);
    }

    #[test]
    fn get_set_row() {
        let mut t = Tensor::zeros(2, 3);
        t.set(1, 2, 5.0);
        assert_eq!(t.get(1, 2), 5.0);
        assert_eq!(t.row(1), &[0.0, 0.0, 5.0]);
    }

    #[test]
    fn matmul_known_product() {
        let a = Tensor::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let b = Tensor::from_vec(3, 2, vec![7., 8., 9., 10., 11., 12.]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), (2, 2));
        assert_eq!(c.data(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn matmul_identity() {
        let a = Tensor::from_fn(3, 3, |r, c| (r * 3 + c) as f64);
        let i = Tensor::from_fn(3, 3, |r, c| if r == c { 1.0 } else { 0.0 });
        assert_eq!(a.matmul(&i), a);
        assert_eq!(i.matmul(&a), a);
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_shape_checked() {
        let a = Tensor::zeros(2, 3);
        let b = Tensor::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn matmul_t_rows_matches_copy_transpose_matmul() {
        let a = Tensor::from_fn(7, 4, |r, c| ((r * 13 + c * 5) % 11) as f64 - 3.7);
        let g = Tensor::from_fn(7, 3, |r, c| ((r * 7 + c * 17) % 9) as f64 * 0.31);
        for (lo, hi) in [(0, 7), (2, 5), (3, 3), (0, 1)] {
            let fast = a.matmul_t_rows(&g, lo, hi);
            let slow = a.rows_copy(lo, hi).transpose().matmul(&g.rows_copy(lo, hi));
            assert_eq!(fast.shape(), slow.shape());
            for (x, y) in fast.data().iter().zip(slow.data()) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn transpose_involution() {
        let a = Tensor::from_fn(2, 4, |r, c| (r * 7 + c * 3) as f64);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().get(3, 1), a.get(1, 3));
    }

    #[test]
    fn map_zip_add_scaled() {
        let a = Tensor::from_vec(1, 3, vec![1., 2., 3.]);
        let b = Tensor::from_vec(1, 3, vec![4., 5., 6.]);
        assert_eq!(a.map(|x| x * 2.0).data(), &[2., 4., 6.]);
        assert_eq!(a.zip(&b, |x, y| x + y).data(), &[5., 7., 9.]);
        let mut c = a.clone();
        c.add_scaled(&b, 0.5);
        assert_eq!(c.data(), &[3.0, 4.5, 6.0]);
    }

    #[test]
    fn reductions() {
        let a = Tensor::from_vec(1, 4, vec![3.0, -4.0, 0.0, 1.0]);
        assert_eq!(a.sum(), 0.0);
        assert_eq!(a.norm(), (9.0f64 + 16.0 + 1.0).sqrt());
        assert_eq!(a.max_abs(), 4.0);
        assert!(a.all_finite());
        let b = Tensor::from_vec(1, 1, vec![f64::NAN]);
        assert!(!b.all_finite());
    }

    #[test]
    fn xavier_in_limits_and_seeded() {
        let mut rng = StdRng::seed_from_u64(1);
        let t = Tensor::xavier(16, 16, &mut rng);
        let limit = (6.0 / 32.0f64).sqrt();
        assert!(t.data().iter().all(|&x| x.abs() <= limit));
        let t2 = Tensor::xavier(16, 16, &mut StdRng::seed_from_u64(1));
        assert_eq!(t, t2);
        // not all identical
        assert!(t.data().iter().any(|&x| x != t.data()[0]));
    }

    #[test]
    fn copy_row_from_moves_one_row() {
        let src = Tensor::from_fn(3, 2, |r, c| (r * 2 + c) as f64);
        let mut dst = Tensor::zeros(2, 2);
        dst.copy_row_from(1, &src, 2);
        assert_eq!(dst.row(0), &[0.0, 0.0]);
        assert_eq!(dst.row(1), &[4.0, 5.0]);
    }

    #[test]
    fn from_buffer_reuses_capacity_and_zeroes() {
        let buf = vec![5.0; 12];
        let cap = buf.capacity();
        let ptr = buf.as_ptr();
        let t = Tensor::from_buffer(2, 3, buf);
        assert_eq!(t.shape(), (2, 3));
        assert!(t.data().iter().all(|&x| x == 0.0 && x.is_sign_positive()));
        let back = t.into_data();
        assert_eq!(back.capacity(), cap);
        assert_eq!(back.as_ptr(), ptr);
    }

    #[test]
    fn rows_copy_slices_row_block() {
        let t = Tensor::from_fn(4, 2, |r, c| (r * 2 + c) as f64);
        let mid = t.rows_copy(1, 3);
        assert_eq!(mid.shape(), (2, 2));
        assert_eq!(mid.data(), &[2.0, 3.0, 4.0, 5.0]);
        assert_eq!(t.rows_copy(2, 2).shape(), (0, 2));
    }

    #[test]
    fn matmul_into_matches_matmul() {
        let a = Tensor::from_fn(3, 4, |r, c| (r as f64 - c as f64) * 0.37);
        let b = Tensor::from_fn(4, 2, |r, c| (r * 2 + c) as f64 * 0.11);
        let via_alloc = a.matmul(&b);
        let mut out = Tensor::zeros(3, 2);
        a.matmul_into(&b, &mut out);
        assert_eq!(via_alloc, out);
    }

    #[test]
    fn serde_roundtrip() {
        let a = Tensor::from_fn(2, 2, |r, c| (r + c) as f64);
        let s = serde_json::to_string(&a).unwrap();
        let b: Tensor = serde_json::from_str(&s).unwrap();
        assert_eq!(a, b);
    }
}
