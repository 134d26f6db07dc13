//! Shape bookkeeping: dimension lists, strides, and convolution output-size
//! arithmetic shared by the conv/pool kernels and the graph IR.

use serde::{Deserialize, Serialize};

/// A tensor shape: an ordered list of dimension extents (row-major layout).
#[derive(Clone, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Shape(pub Vec<usize>);

impl Shape {
    /// Number of dimensions.
    pub fn ndim(&self) -> usize {
        self.0.len()
    }

    /// Total number of elements (product of dims; 1 for a scalar shape).
    pub fn numel(&self) -> usize {
        self.0.iter().product()
    }

    /// Row-major (C) strides for this shape.
    pub fn strides(&self) -> Vec<usize> {
        let mut strides = vec![1usize; self.0.len()];
        for i in (0..self.0.len().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * self.0[i + 1];
        }
        strides
    }

    /// Dimension extent at `i`.
    pub fn dim(&self, i: usize) -> usize {
        self.0[i]
    }

    /// True when two shapes are broadcast-compatible under NumPy rules.
    pub fn broadcastable(&self, other: &Shape) -> bool {
        let a = &self.0;
        let b = &other.0;
        a.iter()
            .rev()
            .zip(b.iter().rev())
            .all(|(&x, &y)| x == y || x == 1 || y == 1)
    }

    /// The broadcast result shape, if compatible.
    pub fn broadcast(&self, other: &Shape) -> Option<Shape> {
        if !self.broadcastable(other) {
            return None;
        }
        let n = self.0.len().max(other.0.len());
        let mut out = vec![0usize; n];
        for i in 0..n {
            let x = if i < self.0.len() {
                self.0[self.0.len() - 1 - i]
            } else {
                1
            };
            let y = if i < other.0.len() {
                other.0[other.0.len() - 1 - i]
            } else {
                1
            };
            out[n - 1 - i] = x.max(y);
        }
        Some(Shape(out))
    }
}

impl From<&[usize]> for Shape {
    fn from(dims: &[usize]) -> Self {
        Shape(dims.to_vec())
    }
}

impl From<Vec<usize>> for Shape {
    fn from(dims: Vec<usize>) -> Self {
        Shape(dims)
    }
}

impl std::fmt::Display for Shape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[")?;
        for (i, d) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, "x")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, "]")
    }
}

/// Output spatial extent of a convolution/pooling window.
///
/// Returns `None` when the window does not fit (the paper's NNI trials with
/// collapsed feature maps are exactly this failure mode) or the input is
/// empty, where padding alone would leave the window nothing to read.
pub fn conv_out_dim(input: usize, kernel: usize, stride: usize, padding: usize) -> Option<usize> {
    debug_assert!(stride > 0, "stride must be positive");
    let padded = input + 2 * padding;
    if input == 0 || padded < kernel {
        return None;
    }
    Some((padded - kernel) / stride + 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strides_row_major() {
        let s = Shape(vec![2, 3, 4]);
        assert_eq!(s.strides(), vec![12, 4, 1]);
        assert_eq!(s.numel(), 24);
    }

    #[test]
    fn scalar_shape() {
        let s = Shape(vec![]);
        assert_eq!(s.numel(), 1);
        assert_eq!(s.strides(), Vec::<usize>::new());
    }

    #[test]
    fn broadcast_rules() {
        let a = Shape(vec![4, 1, 3]);
        let b = Shape(vec![2, 3]);
        assert!(a.broadcastable(&b));
        assert_eq!(a.broadcast(&b), Some(Shape(vec![4, 2, 3])));

        // The size-1 middle dim broadcasts against any extent.
        assert_eq!(a.broadcast(&Shape(vec![5, 3])), Some(Shape(vec![4, 5, 3])));

        let c = Shape(vec![5, 2]);
        assert!(!a.broadcastable(&c));
        assert_eq!(a.broadcast(&c), None);
    }

    #[test]
    fn conv_out_dims_match_torch_conventions() {
        // ResNet-18 stem: 224 -> conv7/2/3 -> 112 -> pool3/2/1 -> 56
        assert_eq!(conv_out_dim(224, 7, 2, 3), Some(112));
        assert_eq!(conv_out_dim(112, 3, 2, 1), Some(56));
        // Collapse: 2x2 input, kernel 7, no padding.
        assert_eq!(conv_out_dim(2, 7, 1, 0), None);
        // Exactly fitting window.
        assert_eq!(conv_out_dim(7, 7, 2, 0), Some(1));
        // An empty input fits no window, however wide its padding.
        assert_eq!(conv_out_dim(0, 3, 2, 3), None);
    }

    #[test]
    fn display_format() {
        assert_eq!(Shape(vec![1, 5, 32, 32]).to_string(), "[1x5x32x32]");
    }
}
