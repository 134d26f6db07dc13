//! The core `Tensor` type: contiguous row-major `f32` storage plus a shape.

use crate::shape::Shape;
use serde::{Deserialize, Serialize};

/// A dense, row-major, contiguous `f32` tensor.
///
/// Invariant: `data.len() == shape.numel()`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Tensor {
    data: Vec<f32>,
    shape: Shape,
}

impl Tensor {
    /// Zero-filled tensor of the given shape.
    pub fn zeros(dims: &[usize]) -> Self {
        let shape = Shape::from(dims);
        Tensor {
            data: vec![0.0; shape.numel()],
            shape,
        }
    }

    /// One-filled tensor.
    pub fn ones(dims: &[usize]) -> Self {
        Self::full(dims, 1.0)
    }

    /// Constant-filled tensor.
    pub fn full(dims: &[usize], value: f32) -> Self {
        let shape = Shape::from(dims);
        Tensor {
            data: vec![value; shape.numel()],
            shape,
        }
    }

    /// Identity matrix of size `n`.
    pub fn eye(n: usize) -> Self {
        let mut t = Self::zeros(&[n, n]);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// Builds a tensor from raw data; panics if lengths disagree.
    pub fn from_vec(data: Vec<f32>, dims: &[usize]) -> Self {
        let shape = Shape::from(dims);
        assert_eq!(
            data.len(),
            shape.numel(),
            "data length {} does not match shape {shape}",
            data.len()
        );
        Tensor { data, shape }
    }

    /// 1-d tensor from a slice.
    pub fn from_slice(data: &[f32]) -> Self {
        Tensor::from_vec(data.to_vec(), &[data.len()])
    }

    /// The shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Dimension extents as a slice.
    pub fn dims(&self) -> &[usize] {
        &self.shape.0
    }

    /// Number of elements.
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// Immutable raw data.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable raw data.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor, returning its storage.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Reinterprets the data with a new shape of equal element count.
    pub fn reshape(&self, dims: &[usize]) -> Tensor {
        let shape = Shape::from(dims);
        assert_eq!(
            shape.numel(),
            self.numel(),
            "cannot reshape {} elements into {shape}",
            self.numel()
        );
        Tensor {
            data: self.data.clone(),
            shape,
        }
    }

    /// Element at a multi-dimensional index.
    pub fn at(&self, index: &[usize]) -> f32 {
        self.data[self.flat_index(index)]
    }

    /// Mutable element access at a multi-dimensional index.
    pub fn at_mut(&mut self, index: &[usize]) -> &mut f32 {
        let i = self.flat_index(index);
        &mut self.data[i]
    }

    fn flat_index(&self, index: &[usize]) -> usize {
        assert_eq!(index.len(), self.shape.ndim(), "index rank mismatch");
        let strides = self.shape.strides();
        index
            .iter()
            .zip(strides.iter())
            .zip(self.shape.0.iter())
            .map(|((&i, &s), &d)| {
                assert!(i < d, "index {i} out of bounds for dim {d}");
                i * s
            })
            .sum()
    }

    /// 2-d transpose.
    pub fn transpose2(&self) -> Tensor {
        assert_eq!(self.shape.ndim(), 2, "transpose2 requires a matrix");
        let (r, c) = (self.dims()[0], self.dims()[1]);
        let mut out = Tensor::zeros(&[c, r]);
        for i in 0..r {
            for j in 0..c {
                out.data[j * r + i] = self.data[i * c + j];
            }
        }
        out
    }

    /// Extracts the `n`-th slice along axis 0 (e.g. one sample of a batch).
    pub fn index_axis0(&self, n: usize) -> Tensor {
        assert!(self.shape.ndim() >= 1 && n < self.dims()[0]);
        let inner: usize = self.dims()[1..].iter().product();
        let data = self.data[n * inner..(n + 1) * inner].to_vec();
        Tensor::from_vec(data, &self.dims()[1..])
    }

    /// Stacks equal-shaped tensors along a new leading axis.
    pub fn stack(parts: &[Tensor]) -> Tensor {
        assert!(!parts.is_empty(), "cannot stack zero tensors");
        let inner = parts[0].dims().to_vec();
        let mut data = Vec::with_capacity(parts.len() * parts[0].numel());
        for p in parts {
            assert_eq!(p.dims(), &inner[..], "stack shape mismatch");
            data.extend_from_slice(p.as_slice());
        }
        let mut dims = vec![parts.len()];
        dims.extend_from_slice(&inner);
        Tensor::from_vec(data, &dims)
    }

    /// True when any element is NaN or infinite.
    pub fn has_non_finite(&self) -> bool {
        self.data.iter().any(|v| !v.is_finite())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        let z = Tensor::zeros(&[2, 3]);
        assert_eq!(z.numel(), 6);
        assert!(z.as_slice().iter().all(|&v| v == 0.0));

        let o = Tensor::ones(&[4]);
        assert!(o.as_slice().iter().all(|&v| v == 1.0));

        let e = Tensor::eye(3);
        assert_eq!(e.at(&[0, 0]), 1.0);
        assert_eq!(e.at(&[0, 1]), 0.0);
        assert_eq!(e.at(&[2, 2]), 1.0);
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn from_vec_length_mismatch_panics() {
        let _ = Tensor::from_vec(vec![1.0, 2.0], &[3]);
    }

    #[test]
    fn indexing_and_reshape() {
        let t = Tensor::from_vec((0..24).map(|v| v as f32).collect(), &[2, 3, 4]);
        assert_eq!(t.at(&[1, 2, 3]), 23.0);
        assert_eq!(t.at(&[0, 1, 2]), 6.0);
        let r = t.reshape(&[6, 4]);
        assert_eq!(r.at(&[5, 3]), 23.0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_panics() {
        let t = Tensor::zeros(&[2, 2]);
        let _ = t.at(&[2, 0]);
    }

    #[test]
    fn transpose_roundtrip() {
        let t = Tensor::from_vec((0..6).map(|v| v as f32).collect(), &[2, 3]);
        let tt = t.transpose2();
        assert_eq!(tt.dims(), &[3, 2]);
        assert_eq!(tt.at(&[2, 1]), t.at(&[1, 2]));
        assert_eq!(tt.transpose2(), t);
    }

    #[test]
    fn stack_and_index_axis0() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]);
        let b = Tensor::from_vec(vec![3.0, 4.0], &[2]);
        let s = Tensor::stack(&[a.clone(), b.clone()]);
        assert_eq!(s.dims(), &[2, 2]);
        assert_eq!(s.index_axis0(0), a);
        assert_eq!(s.index_axis0(1), b);
    }

    #[test]
    fn non_finite_detection() {
        let mut t = Tensor::zeros(&[3]);
        assert!(!t.has_non_finite());
        t.as_mut_slice()[1] = f32::NAN;
        assert!(t.has_non_finite());
    }
}
