//! Dense row-major `f32` tensors.
//!
//! The layers in this crate only need a small, predictable surface:
//! construction, shape queries, flat access for the hot loops, and 2-D /
//! 4-D index helpers for the readable (non-hot) paths.

/// A dense row-major tensor of `f32` values.
///
/// # Example
///
/// ```
/// use dnnlife_nn::Tensor;
///
/// let t = Tensor::zeros(&[2, 3]);
/// assert_eq!(t.shape(), &[2, 3]);
/// assert_eq!(t.len(), 6);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a zero-filled tensor with the given shape.
    ///
    /// # Panics
    ///
    /// Panics if the shape is empty or any dimension is zero.
    pub fn zeros(shape: &[usize]) -> Self {
        let len = checked_len(shape);
        Self {
            shape: shape.to_vec(),
            data: vec![0.0; len],
        }
    }

    /// Creates a tensor from a flat data vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not match the product of `shape`.
    pub fn from_vec(shape: &[usize], data: Vec<f32>) -> Self {
        let len = checked_len(shape);
        assert_eq!(
            len,
            data.len(),
            "Tensor::from_vec: shape {:?} needs {} elements, got {}",
            shape,
            len,
            data.len()
        );
        Self {
            shape: shape.to_vec(),
            data,
        }
    }

    /// Creates a tensor by evaluating `f` at each flat index.
    pub fn from_fn(shape: &[usize], mut f: impl FnMut(usize) -> f32) -> Self {
        let len = checked_len(shape);
        Self {
            shape: shape.to_vec(),
            data: (0..len).map(&mut f).collect(),
        }
    }

    /// The tensor shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor holds zero elements (unreachable for valid
    /// shapes, kept for the conventional pairing with [`Tensor::len`]).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Flat immutable view of the data.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Flat mutable view of the data.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor, returning its flat data.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Returns a tensor with the same data and a new shape.
    ///
    /// # Panics
    ///
    /// Panics if the element counts differ.
    pub fn reshape(mut self, shape: &[usize]) -> Self {
        let len = checked_len(shape);
        assert_eq!(
            len,
            self.data.len(),
            "Tensor::reshape: cannot reshape {:?} ({} elems) to {:?} ({} elems)",
            self.shape,
            self.data.len(),
            shape,
            len
        );
        self.shape = shape.to_vec();
        self
    }

    /// Flat offset of a 4-D index `[n, c, h, w]`.
    #[inline]
    pub fn idx4(&self, n: usize, c: usize, h: usize, w: usize) -> usize {
        debug_assert_eq!(self.shape.len(), 4);
        debug_assert!(
            n < self.shape[0] && c < self.shape[1] && h < self.shape[2] && w < self.shape[3]
        );
        ((n * self.shape[1] + c) * self.shape[2] + h) * self.shape[3] + w
    }

    /// Value at a 4-D index.
    #[inline]
    pub fn at4(&self, n: usize, c: usize, h: usize, w: usize) -> f32 {
        self.data[self.idx4(n, c, h, w)]
    }

    /// Elementwise in-place addition.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn add_assign(&mut self, other: &Tensor) {
        assert_eq!(
            self.shape, other.shape,
            "Tensor::add_assign: shape mismatch"
        );
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// Multiplies every element by `k`.
    pub fn scale(&mut self, k: f32) {
        for a in &mut self.data {
            *a *= k;
        }
    }

    /// Maximum absolute value (0 for empty data).
    pub fn abs_max(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, &x| m.max(x.abs()))
    }

    /// `(min, max)` over the elements.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is empty.
    pub fn min_max(&self) -> (f32, f32) {
        assert!(!self.data.is_empty(), "Tensor::min_max on empty tensor");
        let mut lo = f32::INFINITY;
        let mut hi = f32::NEG_INFINITY;
        for &x in &self.data {
            lo = lo.min(x);
            hi = hi.max(x);
        }
        (lo, hi)
    }
}

fn checked_len(shape: &[usize]) -> usize {
    assert!(!shape.is_empty(), "Tensor: shape must not be empty");
    let mut len = 1usize;
    for &d in shape {
        assert!(d > 0, "Tensor: zero-sized dimension in {shape:?}");
        len = len
            .checked_mul(d)
            .unwrap_or_else(|| panic!("Tensor: shape {shape:?} overflows usize"));
    }
    len
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_shape() {
        let t = Tensor::zeros(&[2, 3, 4, 5]);
        assert_eq!(t.len(), 120);
        assert_eq!(t.shape(), &[2, 3, 4, 5]);
        assert!(!t.is_empty());
    }

    #[test]
    fn from_vec_roundtrip() {
        let t = Tensor::from_vec(&[2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(t.into_vec(), vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "needs 4 elements")]
    fn from_vec_rejects_bad_len() {
        Tensor::from_vec(&[2, 2], vec![1.0]);
    }

    #[test]
    fn idx4_row_major_order() {
        let t = Tensor::from_fn(&[2, 3, 4, 5], |i| i as f32);
        assert_eq!(t.at4(0, 0, 0, 0), 0.0);
        assert_eq!(t.at4(0, 0, 0, 4), 4.0);
        assert_eq!(t.at4(0, 0, 1, 0), 5.0);
        assert_eq!(t.at4(0, 1, 0, 0), 20.0);
        assert_eq!(t.at4(1, 0, 0, 0), 60.0);
        assert_eq!(t.at4(1, 2, 3, 4), 119.0);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_fn(&[4, 3], |i| i as f32).reshape(&[2, 6]);
        assert_eq!(t.shape(), &[2, 6]);
        assert_eq!(t.data()[6], 6.0);
    }

    #[test]
    #[should_panic(expected = "cannot reshape")]
    fn reshape_rejects_size_change() {
        let _ = Tensor::zeros(&[2, 3]).reshape(&[7]);
    }

    #[test]
    fn arithmetic_helpers() {
        let mut a = Tensor::from_vec(&[3], vec![1.0, -2.0, 3.0]);
        let b = Tensor::from_vec(&[3], vec![0.5, 0.5, 0.5]);
        a.add_assign(&b);
        assert_eq!(a.data(), &[1.5, -1.5, 3.5]);
        a.scale(2.0);
        assert_eq!(a.data(), &[3.0, -3.0, 7.0]);
        assert_eq!(a.abs_max(), 7.0);
        assert_eq!(a.min_max(), (-3.0, 7.0));
    }

    #[test]
    #[should_panic(expected = "zero-sized dimension")]
    fn zero_dim_rejected() {
        Tensor::zeros(&[3, 0]);
    }
}
