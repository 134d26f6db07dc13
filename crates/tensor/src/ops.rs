//! Elementwise arithmetic, broadcasting, and reductions.

use crate::shape::Shape;
use crate::tensor::Tensor;

macro_rules! binop {
    ($name:ident, $op:tt) => {
        /// Elementwise broadcasting binary operation.
        pub fn $name(&self, other: &Tensor) -> Tensor {
            self.zip_broadcast(other, |a, b| a $op b)
        }
    };
}

impl Tensor {
    binop!(add, +);
    binop!(sub, -);
    binop!(mul, *);
    binop!(div, /);

    /// Elementwise map.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        let mut out = self.clone();
        out.map_in_place(f);
        out
    }

    /// In-place elementwise map.
    pub fn map_in_place(&mut self, f: impl Fn(f32) -> f32) {
        self.as_mut_slice().iter_mut().for_each(|v| *v = f(*v));
    }

    /// Adds `alpha * other` into `self` (axpy); shapes must match exactly.
    pub fn axpy(&mut self, alpha: f32, other: &Tensor) {
        assert_eq!(self.dims(), other.dims(), "axpy shape mismatch");
        for (d, &s) in self.as_mut_slice().iter_mut().zip(other.as_slice()) {
            *d += alpha * s;
        }
    }

    /// Multiplies every element by a scalar.
    pub fn scale(&self, alpha: f32) -> Tensor {
        self.map(|v| v * alpha)
    }

    /// Elementwise broadcasting combine with an arbitrary function.
    pub fn zip_broadcast(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        if self.dims() == other.dims() {
            // Fast path: identical shapes, flat zip.
            let mut out = self.clone();
            for (d, &s) in out.as_mut_slice().iter_mut().zip(other.as_slice()) {
                *d = f(*d, s);
            }
            return out;
        }
        let out_shape = self
            .shape()
            .broadcast(other.shape())
            .unwrap_or_else(|| panic!("incompatible shapes {} vs {}", self.shape(), other.shape()));
        let mut out = Tensor::zeros(&out_shape.0);
        let n = out_shape.ndim();
        let out_strides = out_shape.strides();
        let a_strides = broadcast_strides(self.shape(), &out_shape);
        let b_strides = broadcast_strides(other.shape(), &out_shape);
        let a = self.as_slice();
        let b = other.as_slice();
        for (flat, slot) in out.as_mut_slice().iter_mut().enumerate() {
            let mut rem = flat;
            let mut ai = 0usize;
            let mut bi = 0usize;
            for d in 0..n {
                let idx = rem / out_strides[d];
                rem %= out_strides[d];
                ai += idx * a_strides[d];
                bi += idx * b_strides[d];
            }
            *slot = f(a[ai], b[bi]);
        }
        out
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.as_slice().iter().sum()
    }

    /// Mean of all elements (0 for an empty tensor).
    pub fn mean(&self) -> f32 {
        if self.numel() == 0 {
            0.0
        } else {
            self.sum() / self.numel() as f32
        }
    }

    /// Maximum element; panics on empty tensors.
    pub fn max(&self) -> f32 {
        assert!(self.numel() > 0, "max of empty tensor");
        self.as_slice()
            .iter()
            .copied()
            .fold(f32::NEG_INFINITY, f32::max)
    }

    /// Minimum element; panics on empty tensors.
    pub fn min(&self) -> f32 {
        assert!(self.numel() > 0, "min of empty tensor");
        self.as_slice()
            .iter()
            .copied()
            .fold(f32::INFINITY, f32::min)
    }

    /// Index of the maximum element in a 1-d tensor (ties -> first).
    pub fn argmax1(&self) -> usize {
        assert!(self.numel() > 0, "argmax of empty tensor");
        let mut best = 0usize;
        let mut best_v = self.as_slice()[0];
        for (i, &v) in self.as_slice().iter().enumerate().skip(1) {
            if v > best_v {
                best = i;
                best_v = v;
            }
        }
        best
    }

    /// Row-wise argmax of a 2-d tensor (e.g. logits -> predicted class).
    pub fn argmax_rows(&self) -> Vec<usize> {
        assert_eq!(self.shape().ndim(), 2, "argmax_rows requires a matrix");
        let (r, c) = (self.dims()[0], self.dims()[1]);
        (0..r)
            .map(|i| {
                let row = &self.as_slice()[i * c..(i + 1) * c];
                let mut best = 0usize;
                for j in 1..c {
                    if row[j] > row[best] {
                        best = j;
                    }
                }
                best
            })
            .collect()
    }

    /// Sum over axis 0 of a 2-d tensor, yielding a length-`cols` vector.
    pub fn sum_axis0(&self) -> Tensor {
        assert_eq!(self.shape().ndim(), 2, "sum_axis0 requires a matrix");
        let (r, c) = (self.dims()[0], self.dims()[1]);
        let mut out = vec![0.0f32; c];
        for i in 0..r {
            let row = &self.as_slice()[i * c..(i + 1) * c];
            for (o, &v) in out.iter_mut().zip(row) {
                *o += v;
            }
        }
        Tensor::from_vec(out, &[c])
    }

    /// Squared L2 norm.
    pub fn sq_norm(&self) -> f32 {
        self.as_slice().iter().map(|v| v * v).sum()
    }
}

/// Strides to read a (possibly lower-rank) tensor as if broadcast to
/// `out`: size-1 dims get stride 0, missing leading dims get stride 0.
fn broadcast_strides(shape: &Shape, out: &Shape) -> Vec<usize> {
    let offset = out.ndim() - shape.ndim();
    let own = shape.strides();
    (0..out.ndim())
        .map(|d| {
            if d < offset || shape.0[d - offset] == 1 {
                0
            } else {
                own[d - offset]
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn elementwise_same_shape() {
        let a = Tensor::from_slice(&[1.0, 2.0, 3.0]);
        let b = Tensor::from_slice(&[4.0, 5.0, 6.0]);
        assert_eq!(a.add(&b).as_slice(), &[5.0, 7.0, 9.0]);
        assert_eq!(b.sub(&a).as_slice(), &[3.0, 3.0, 3.0]);
        assert_eq!(a.mul(&b).as_slice(), &[4.0, 10.0, 18.0]);
        assert_eq!(b.div(&a).as_slice(), &[4.0, 2.5, 2.0]);
    }

    #[test]
    fn broadcast_row_vector() {
        let m = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let v = Tensor::from_vec(vec![10.0, 20.0, 30.0], &[3]);
        let r = m.add(&v);
        assert_eq!(r.dims(), &[2, 3]);
        assert_eq!(r.as_slice(), &[11.0, 22.0, 33.0, 14.0, 25.0, 36.0]);
    }

    #[test]
    fn broadcast_column_vector() {
        let m = Tensor::ones(&[2, 3]);
        let v = Tensor::from_vec(vec![1.0, 2.0], &[2, 1]);
        let r = m.mul(&v);
        assert_eq!(r.as_slice(), &[1.0, 1.0, 1.0, 2.0, 2.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "incompatible shapes")]
    fn broadcast_incompatible_panics() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[4]);
        let _ = a.add(&b);
    }

    #[test]
    fn reductions() {
        let t = Tensor::from_slice(&[1.0, -2.0, 3.5]);
        assert_eq!(t.sum(), 2.5);
        assert!((t.mean() - 2.5 / 3.0).abs() < 1e-6);
        assert_eq!(t.max(), 3.5);
        assert_eq!(t.min(), -2.0);
        assert_eq!(t.argmax1(), 2);
        assert_eq!(t.sq_norm(), 1.0 + 4.0 + 12.25);
    }

    #[test]
    fn argmax_rows_picks_first_on_tie() {
        let t = Tensor::from_vec(vec![1.0, 1.0, 0.0, 2.0], &[2, 2]);
        assert_eq!(t.argmax_rows(), vec![0, 1]);
    }

    #[test]
    fn sum_axis0_matches_manual() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        assert_eq!(t.sum_axis0().as_slice(), &[5.0, 7.0, 9.0]);
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = Tensor::from_slice(&[1.0, 1.0]);
        let g = Tensor::from_slice(&[2.0, -4.0]);
        a.axpy(0.5, &g);
        assert_eq!(a.as_slice(), &[2.0, -1.0]);
    }

    #[test]
    fn map_scale() {
        let t = Tensor::from_slice(&[1.0, -1.0]);
        assert_eq!(t.map(|v| v.max(0.0)).as_slice(), &[1.0, 0.0]);
        assert_eq!(t.scale(3.0).as_slice(), &[3.0, -3.0]);
    }
}
