//! The dense row-major `f32` tensor type and its core operations.

use crate::shape::{Shape, MAX_RANK};
use crate::strided::{self, broadcast_strides};
use crate::{Result, TensorError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::mem::MaybeUninit;

/// A dense, row-major, `f32` tensor.
///
/// All AlphaFold-side math in this reproduction runs through this type.
/// Storage is always contiguous, and layout ops (`permute`, `slice_axis`,
/// `broadcast_to`, ...) materialize their result. The shape is held inline
/// (a [`Shape`] of at most [`MAX_RANK`] dims), so a tensor's one heap
/// allocation is its data buffer: on the overhead-bound CPU training
/// path, where an autograd tape records about a thousand small tensors a
/// step, shape and stride bookkeeping costs no allocation at all.
///
/// # Example
///
/// ```
/// use sf_tensor::Tensor;
///
/// # fn main() -> Result<(), sf_tensor::TensorError> {
/// let x = Tensor::zeros(&[2, 3]);
/// let y = x.add_scalar(1.0);
/// assert_eq!(y.sum_all(), 6.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

// Every autograd tape node holds a tensor, so a field added here grows the
// whole tape: the data buffer (24 B) plus the inline shape (48 B).
#[cfg(target_pointer_width = "64")]
const _: () = assert!(std::mem::size_of::<Tensor>() == 72);

/// Bits of the NaN a debug build pre-fills a [`WriteOnce`] buffer with:
/// one that survives the kernel marks an element it never wrote.
const UNWRITTEN: u32 = 0x7FC0_DEAD;

/// A tensor under construction by [`Tensor::write_once`]: its elements are
/// uninitialized until the kernel writes them.
#[derive(Debug)]
pub struct WriteOnce {
    shape: Shape,
    /// Empty; the elements live in the spare capacity until written.
    data: Vec<f32>,
    op: &'static str,
}

impl WriteOnce {
    /// The elements to write, row-major.
    pub fn uninit(&mut self) -> &mut [MaybeUninit<f32>] {
        let len = self.shape.num_elements();
        &mut self.data.spare_capacity_mut()[..len]
    }

    /// The finished tensor.
    ///
    /// # Safety
    ///
    /// Every element of [`WriteOnce::uninit`] must have been written.
    ///
    /// # Panics
    ///
    /// In debug builds, if an element still holds the pre-fill sentinel;
    /// the message names the kernel.
    pub unsafe fn assume_written(self) -> Tensor {
        let WriteOnce {
            shape,
            mut data,
            op,
        } = self;
        // SAFETY: the caller guarantees the first `len` elements, which
        // `write_once` reserved, are initialized.
        unsafe { data.set_len(shape.num_elements()) };
        if cfg!(debug_assertions) {
            if let Some(i) = data.iter().position(|x| x.to_bits() == UNWRITTEN) {
                panic!(
                    "{op} left element {i} of its {:?} output unwritten",
                    shape.dims()
                );
            }
        }
        Tensor { shape, data }
    }
}

impl Tensor {
    // ------------------------------------------------------------------
    // Constructors
    // ------------------------------------------------------------------

    /// All-zeros tensor of the given shape.
    ///
    /// # Panics
    ///
    /// Panics if `dims` has more than [`MAX_RANK`] entries.
    pub fn zeros(dims: &[usize]) -> Self {
        Self::full_shaped(Shape::new(dims), 0.0)
    }

    /// Tensor of `shape` filled with `value`.
    fn full_shaped(shape: Shape, value: f32) -> Self {
        Tensor {
            shape,
            data: vec![value; shape.num_elements()],
        }
    }

    /// A tensor of shape `dims` whose buffer is allocated without a zero
    /// fill, for a kernel `op` that assigns every element exactly once: the
    /// kernel writes [`WriteOnce::uninit`] and [`WriteOnce::assume_written`]
    /// returns the tensor. Use [`Tensor::zeros`] wherever a kernel
    /// accumulates or leaves elements untouched.
    ///
    /// Debug builds pre-fill the buffer with a NaN sentinel and panic,
    /// naming `op`, if any element still holds it at the end.
    ///
    /// # Panics
    ///
    /// Panics if `dims` has more than [`MAX_RANK`] entries.
    pub fn write_once(dims: &[usize], op: &'static str) -> WriteOnce {
        Self::write_once_shaped(Shape::new(dims), op)
    }

    /// [`Tensor::write_once`] for a shape already built.
    pub(crate) fn write_once_shaped(shape: Shape, op: &'static str) -> WriteOnce {
        let len = shape.num_elements();
        let mut data = Vec::with_capacity(len);
        if cfg!(debug_assertions) {
            data.spare_capacity_mut()[..len].fill(MaybeUninit::new(f32::from_bits(UNWRITTEN)));
        }
        WriteOnce { shape, data, op }
    }

    /// A tensor of `shape` over `data`, whose length the caller has
    /// checked.
    pub(crate) fn from_shaped(shape: Shape, data: Vec<f32>) -> Self {
        debug_assert_eq!(data.len(), shape.num_elements());
        Tensor { shape, data }
    }

    /// All-ones tensor of the given shape.
    ///
    /// # Panics
    ///
    /// Panics if `dims` has more than [`MAX_RANK`] entries.
    pub fn ones(dims: &[usize]) -> Self {
        Self::full(dims, 1.0)
    }

    /// Tensor filled with `value`.
    ///
    /// # Panics
    ///
    /// Panics if `dims` has more than [`MAX_RANK`] entries.
    pub fn full(dims: &[usize], value: f32) -> Self {
        Self::full_shaped(Shape::new(dims), value)
    }

    /// Rank-0 scalar tensor.
    pub fn scalar(value: f32) -> Self {
        Tensor {
            shape: Shape::new(&[]),
            data: vec![value],
        }
    }

    /// Identity matrix of size `n × n`.
    pub fn eye(n: usize) -> Self {
        let mut t = Self::zeros(&[n, n]);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// `[0, 1, ..., n-1]` as a 1-D tensor.
    pub fn arange(n: usize) -> Self {
        Tensor {
            shape: Shape::new(&[n]),
            data: (0..n).map(|i| i as f32).collect(),
        }
    }

    /// Builds a tensor from a flat row-major buffer.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankTooHigh`] if `dims` has more than
    /// [`MAX_RANK`] entries, or [`TensorError::LengthMismatch`] if
    /// `data.len()` does not equal the product of `dims`.
    pub fn from_vec(data: Vec<f32>, dims: &[usize]) -> Result<Self> {
        let shape = Shape::try_new(dims)?;
        let expected = shape.num_elements();
        if data.len() != expected {
            return Err(TensorError::LengthMismatch {
                expected,
                actual: data.len(),
            });
        }
        Ok(Tensor { shape, data })
    }

    /// Standard-normal random tensor (Box–Muller), deterministic in `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `dims` has more than [`MAX_RANK`] entries.
    pub fn randn(dims: &[usize], seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let n: usize = dims.iter().product();
        let mut data = Vec::with_capacity(n);
        while data.len() < n {
            let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
            let u2: f32 = rng.gen_range(0.0..1.0);
            let r = (-2.0 * u1.ln()).sqrt();
            let theta = 2.0 * std::f32::consts::PI * u2;
            data.push(r * theta.cos());
            if data.len() < n {
                data.push(r * theta.sin());
            }
        }
        Tensor {
            shape: Shape::new(dims),
            data,
        }
    }

    /// Uniform random tensor on `[lo, hi)`, deterministic in `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `dims` has more than [`MAX_RANK`] entries.
    pub fn rand_uniform(dims: &[usize], lo: f32, hi: f32, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let n: usize = dims.iter().product();
        Tensor {
            shape: Shape::new(dims),
            data: (0..n).map(|_| rng.gen_range(lo..hi)).collect(),
        }
    }

    /// LeCun-normal initialization (`std = 1/sqrt(fan_in)`), the AlphaFold
    /// default for linear layers.
    ///
    /// # Panics
    ///
    /// Panics if `dims` has more than [`MAX_RANK`] entries.
    pub fn lecun_normal(dims: &[usize], fan_in: usize, seed: u64) -> Self {
        let std = 1.0 / (fan_in.max(1) as f32).sqrt();
        Self::randn(dims, seed).mul_scalar(std)
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Dimension sizes, outermost first.
    pub fn dims(&self) -> &[usize] {
        self.shape.dims()
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.shape.rank()
    }

    /// Total element count.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if the tensor holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Flat row-major view of the data.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable flat row-major view of the data.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor, returning its flat buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Element at a multi-index.
    ///
    /// # Errors
    ///
    /// Returns an error if the index rank or bounds are invalid.
    pub fn at(&self, index: &[usize]) -> Result<f32> {
        Ok(self.data[self.shape.flat_index(index)?])
    }

    /// Sets the element at a multi-index.
    ///
    /// # Errors
    ///
    /// Returns an error if the index rank or bounds are invalid.
    pub fn set(&mut self, index: &[usize], value: f32) -> Result<()> {
        let flat = self.shape.flat_index(index)?;
        self.data[flat] = value;
        Ok(())
    }

    /// The single value of a scalar or one-element tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor has more than one element.
    pub fn item(&self) -> f32 {
        assert_eq!(
            self.len(),
            1,
            "item() on tensor with {} elements",
            self.len()
        );
        self.data[0]
    }

    // ------------------------------------------------------------------
    // Elementwise maps
    // ------------------------------------------------------------------

    /// Applies `f` to every element, returning a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Self {
        Tensor {
            shape: self.shape,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// Elementwise negation.
    pub fn neg(&self) -> Self {
        self.map(|x| -x)
    }

    /// Adds a scalar to every element.
    pub fn add_scalar(&self, s: f32) -> Self {
        self.map(|x| x + s)
    }

    /// Multiplies every element by a scalar.
    pub fn mul_scalar(&self, s: f32) -> Self {
        self.map(|x| x * s)
    }

    /// Elementwise exponential (vectorized polynomial kernel,
    /// [`crate::ops::vexp`]).
    pub fn exp(&self) -> Self {
        self.map(crate::ops::vexp::vexp)
    }

    /// Elementwise natural logarithm.
    pub fn ln(&self) -> Self {
        self.map(f32::ln)
    }

    /// Elementwise square root.
    pub fn sqrt(&self) -> Self {
        self.map(f32::sqrt)
    }

    /// Elementwise square.
    pub fn square(&self) -> Self {
        self.map(|x| x * x)
    }

    /// Elementwise absolute value.
    pub fn abs(&self) -> Self {
        self.map(f32::abs)
    }

    /// Rectified linear unit.
    pub fn relu(&self) -> Self {
        self.map(|x| x.max(0.0))
    }

    /// Logistic sigmoid (vectorized exp; same formula as the fused
    /// attention gate epilogue, so composed and fused paths agree).
    pub fn sigmoid(&self) -> Self {
        self.map(|x| 1.0 / (1.0 + crate::ops::vexp::vexp(-x)))
    }

    /// Hyperbolic tangent.
    pub fn tanh(&self) -> Self {
        self.map(f32::tanh)
    }

    /// Exact Gaussian error linear unit (as used by AlphaFold transitions).
    pub fn gelu(&self) -> Self {
        self.map(gelu_scalar)
    }

    /// Derivative of [`Tensor::gelu`] with respect to its input:
    /// `Φ(x) + x·φ(x)` where `Φ`/`φ` are the standard normal CDF/PDF.
    pub fn gelu_derivative(&self) -> Self {
        self.map(|x| {
            let cdf = 0.5 * (1.0 + erf(x as f64 / std::f64::consts::SQRT_2) as f32);
            let pdf = crate::ops::vexp::vexp(-0.5 * x * x) / (2.0 * std::f32::consts::PI).sqrt();
            cdf + x * pdf
        })
    }

    // ------------------------------------------------------------------
    // Broadcasting binary ops
    // ------------------------------------------------------------------

    /// Elementwise addition with numpy-style broadcasting.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes do not broadcast.
    pub fn add(&self, other: &Tensor) -> Result<Self> {
        self.binary(other, "add", |a, b| a + b)
    }

    /// Elementwise subtraction with broadcasting.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes do not broadcast.
    pub fn sub(&self, other: &Tensor) -> Result<Self> {
        self.binary(other, "sub", |a, b| a - b)
    }

    /// Elementwise multiplication with broadcasting.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes do not broadcast.
    pub fn mul(&self, other: &Tensor) -> Result<Self> {
        self.binary(other, "mul", |a, b| a * b)
    }

    /// Elementwise division with broadcasting.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes do not broadcast.
    pub fn div(&self, other: &Tensor) -> Result<Self> {
        self.binary(other, "div", |a, b| a / b)
    }

    /// Elementwise maximum with broadcasting.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes do not broadcast.
    pub fn maximum(&self, other: &Tensor) -> Result<Self> {
        self.binary(other, "maximum", f32::max)
    }

    /// Elementwise minimum with broadcasting.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes do not broadcast.
    pub fn minimum(&self, other: &Tensor) -> Result<Self> {
        self.binary(other, "minimum", f32::min)
    }

    /// Clamps every element into `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn clamp(&self, lo: f32, hi: f32) -> Self {
        assert!(lo <= hi, "clamp bounds inverted: {lo} > {hi}");
        self.map(|x| x.clamp(lo, hi))
    }

    /// General broadcasting binary elementwise op.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes do not broadcast.
    pub fn binary(
        &self,
        other: &Tensor,
        op: &'static str,
        f: impl Fn(f32, f32) -> f32,
    ) -> Result<Self> {
        if self.shape == other.shape {
            // Fast path: identical shapes.
            let data = self
                .data
                .iter()
                .zip(other.data.iter())
                .map(|(&a, &b)| f(a, b))
                .collect();
            return Ok(Tensor {
                shape: self.shape,
                data,
            });
        }
        let out_shape =
            self.shape
                .broadcast(&other.shape)
                .map_err(|_| TensorError::ShapeMismatch {
                    op,
                    lhs: self.dims().to_vec(),
                    rhs: other.dims().to_vec(),
                })?;
        let mut out = Tensor::write_once_shaped(out_shape, op);
        let rank = out_shape.rank();
        let a_str = broadcast_strides(&self.shape, &out_shape);
        let b_str = broadcast_strides(&other.shape, &out_shape);
        strided::zip_map(
            out.uninit(),
            out_shape.dims(),
            (&self.data, &a_str[..rank]),
            (&other.data, &b_str[..rank]),
            f,
        );
        // SAFETY: `zip_map` assigns every element of its iteration shape.
        Ok(unsafe { out.assume_written() })
    }

    /// Materializes this tensor broadcast to `dims`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankTooHigh`] if `dims` has more than
    /// [`MAX_RANK`] entries, or [`TensorError::ShapeMismatch`] if not
    /// broadcastable.
    pub fn broadcast_to(&self, dims: &[usize]) -> Result<Self> {
        let target = Shape::try_new(dims)?;
        if !self.shape.broadcastable_to(&target) {
            return Err(TensorError::ShapeMismatch {
                op: "broadcast_to",
                lhs: self.dims().to_vec(),
                rhs: dims.to_vec(),
            });
        }
        let strides = broadcast_strides(&self.shape, &target);
        let mut out = Tensor::write_once_shaped(target, "broadcast_to");
        strided::gather(out.uninit(), dims, &self.data, &strides[..dims.len()]);
        // SAFETY: `gather` assigns every element of its iteration shape.
        Ok(unsafe { out.assume_written() })
    }

    /// Reduces (sums) this tensor down to `dims`, the adjoint of
    /// [`Tensor::broadcast_to`]. Used by autograd to accumulate gradients of
    /// broadcast operands.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `dims` is not broadcastable
    /// to this tensor's shape.
    pub fn reduce_to(&self, dims: &[usize]) -> Result<Self> {
        let target = Shape::try_new(dims)?;
        if !target.broadcastable_to(&self.shape) {
            return Err(TensorError::ShapeMismatch {
                op: "reduce_to",
                lhs: self.dims().to_vec(),
                rhs: dims.to_vec(),
            });
        }
        if dims == self.dims() {
            // Nothing to reduce. `0.0 + x` is the sum the general path
            // computes for a single term: it maps -0.0 to +0.0.
            return Ok(self.map(|x| 0.0 + x));
        }
        let strides = broadcast_strides(&target, &self.shape);
        let mut out = Tensor::full_shaped(target, 0.0);
        strided::scatter_add(
            &mut out.data,
            &strides[..self.rank()],
            &self.data,
            self.dims(),
        );
        Ok(out)
    }

    // ------------------------------------------------------------------
    // Shape manipulation
    // ------------------------------------------------------------------

    /// Reinterprets the tensor with a new shape of equal element count.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankTooHigh`] if `dims` has more than
    /// [`MAX_RANK`] entries, or [`TensorError::LengthMismatch`] if element
    /// counts differ.
    pub fn reshape(&self, dims: &[usize]) -> Result<Self> {
        self.reshaped(Shape::try_new(dims)?)
    }

    /// [`Tensor::reshape`] to a shape already built.
    fn reshaped(&self, shape: Shape) -> Result<Self> {
        let expected = shape.num_elements();
        if expected != self.len() {
            return Err(TensorError::LengthMismatch {
                expected,
                actual: self.len(),
            });
        }
        Ok(Tensor {
            shape,
            data: self.data.clone(),
        })
    }

    /// Permutes axes; `perm` must be a permutation of `0..rank`.
    ///
    /// # Errors
    ///
    /// Returns an error if `perm` is not a valid permutation.
    pub fn permute(&self, perm: &[usize]) -> Result<Self> {
        let rank = self.rank();
        if perm.len() != rank {
            return Err(TensorError::ShapeMismatch {
                op: "permute",
                lhs: self.dims().to_vec(),
                rhs: perm.to_vec(),
            });
        }
        let mut seen = [false; MAX_RANK];
        let mut out_shape = self.shape;
        let in_strides = self.shape.strides();
        let mut src_strides = [0usize; MAX_RANK];
        for (o, &p) in perm.iter().enumerate() {
            if p >= rank || seen[p] {
                return Err(TensorError::AxisOutOfRange { axis: p, rank });
            }
            seen[p] = true;
            out_shape.dims_mut()[o] = self.dims()[p];
            src_strides[o] = in_strides[p];
        }
        let mut out = Tensor::write_once_shaped(out_shape, "permute");
        strided::gather(
            out.uninit(),
            out_shape.dims(),
            &self.data,
            &src_strides[..rank],
        );
        // SAFETY: `gather` assigns every element of its iteration shape.
        Ok(unsafe { out.assume_written() })
    }

    /// Swaps the last two axes (matrix transpose over batched matrices).
    ///
    /// # Errors
    ///
    /// Returns an error for tensors of rank < 2.
    pub fn transpose(&self) -> Result<Self> {
        let rank = self.rank();
        if rank < 2 {
            return Err(TensorError::AxisOutOfRange { axis: 1, rank });
        }
        let mut perm: [usize; MAX_RANK] = std::array::from_fn(|i| i);
        perm.swap(rank - 1, rank - 2);
        self.permute(&perm[..rank])
    }

    /// Extracts `[start, end)` along `axis`.
    ///
    /// # Errors
    ///
    /// Returns an error for invalid axis or range.
    pub fn slice_axis(&self, axis: usize, start: usize, end: usize) -> Result<Self> {
        let dim = self.shape.dim(axis)?;
        if start > end || end > dim {
            return Err(TensorError::IndexOutOfBounds {
                index: end,
                bound: dim,
            });
        }
        let mut shape = self.shape;
        shape.dims_mut()[axis] = end - start;
        let outer: usize = self.dims()[..axis].iter().product();
        let inner: usize = self.dims()[axis + 1..].iter().product();
        let mut data = Vec::with_capacity(shape.num_elements());
        for o in 0..outer {
            let base = o * dim * inner;
            data.extend_from_slice(&self.data[base + start * inner..base + end * inner]);
        }
        Ok(Tensor::from_shaped(shape, data))
    }

    /// Concatenates tensors along `axis`. All other dimensions must match.
    ///
    /// # Errors
    ///
    /// Returns an error if the input list is empty or shapes disagree.
    pub fn concat(tensors: &[&Tensor], axis: usize) -> Result<Self> {
        let first = tensors.first().ok_or(TensorError::EmptyInput("concat"))?;
        let rank = first.rank();
        if axis >= rank {
            return Err(TensorError::AxisOutOfRange { axis, rank });
        }
        let mut axis_total = 0usize;
        for t in tensors {
            if t.rank() != rank {
                return Err(TensorError::ShapeMismatch {
                    op: "concat",
                    lhs: first.dims().to_vec(),
                    rhs: t.dims().to_vec(),
                });
            }
            for d in 0..rank {
                if d != axis && t.dims()[d] != first.dims()[d] {
                    return Err(TensorError::ShapeMismatch {
                        op: "concat",
                        lhs: first.dims().to_vec(),
                        rhs: t.dims().to_vec(),
                    });
                }
            }
            axis_total += t.dims()[axis];
        }
        let mut shape = first.shape;
        shape.dims_mut()[axis] = axis_total;
        let outer: usize = first.dims()[..axis].iter().product();
        let inner: usize = first.dims()[axis + 1..].iter().product();
        let mut data = Vec::with_capacity(shape.num_elements());
        for o in 0..outer {
            for t in tensors {
                let ax = t.dims()[axis];
                let base = o * ax * inner;
                data.extend_from_slice(&t.data[base..base + ax * inner]);
            }
        }
        Ok(Tensor::from_shaped(shape, data))
    }

    /// Stacks tensors of identical shape along a new leading axis.
    ///
    /// # Errors
    ///
    /// Returns an error if the list is empty or shapes disagree, and
    /// [`TensorError::RankTooHigh`] if the tensors are already of rank
    /// [`MAX_RANK`].
    pub fn stack(tensors: &[&Tensor]) -> Result<Self> {
        let first = tensors.first().ok_or(TensorError::EmptyInput("stack"))?;
        let mut shape = first.shape;
        shape.try_insert(0, tensors.len())?;
        let mut data = Vec::with_capacity(first.len() * tensors.len());
        for t in tensors {
            if t.shape != first.shape {
                return Err(TensorError::ShapeMismatch {
                    op: "stack",
                    lhs: first.dims().to_vec(),
                    rhs: t.dims().to_vec(),
                });
            }
            data.extend_from_slice(&t.data);
        }
        Ok(Tensor::from_shaped(shape, data))
    }

    /// Inserts a size-1 axis at `axis`.
    ///
    /// # Errors
    ///
    /// Returns an error if `axis > rank`, and [`TensorError::RankTooHigh`]
    /// if the tensor is already of rank [`MAX_RANK`].
    pub fn unsqueeze(&self, axis: usize) -> Result<Self> {
        if axis > self.rank() {
            return Err(TensorError::AxisOutOfRange {
                axis,
                rank: self.rank(),
            });
        }
        let mut shape = self.shape;
        shape.try_insert(axis, 1)?;
        self.reshaped(shape)
    }

    /// Removes a size-1 axis at `axis`.
    ///
    /// # Errors
    ///
    /// Returns an error if `axis` is out of range or not of size 1.
    pub fn squeeze(&self, axis: usize) -> Result<Self> {
        if self.shape.dim(axis)? != 1 {
            return Err(TensorError::ShapeMismatch {
                op: "squeeze",
                lhs: self.dims().to_vec(),
                rhs: vec![axis],
            });
        }
        let mut shape = self.shape;
        shape.remove(axis);
        self.reshaped(shape)
    }

    // ------------------------------------------------------------------
    // Reductions
    // ------------------------------------------------------------------

    /// Sum of all elements.
    pub fn sum_all(&self) -> f32 {
        // Kahan summation keeps long reductions stable in f32.
        let mut sum = 0.0f32;
        let mut c = 0.0f32;
        for &x in &self.data {
            let y = x - c;
            let t = sum + y;
            c = (t - sum) - y;
            sum = t;
        }
        sum
    }

    /// Mean of all elements (0 for empty tensors).
    pub fn mean_all(&self) -> f32 {
        if self.is_empty() {
            0.0
        } else {
            self.sum_all() / self.len() as f32
        }
    }

    /// Maximum element.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::EmptyInput`] on an empty tensor.
    pub fn max_all(&self) -> Result<f32> {
        self.data
            .iter()
            .copied()
            .fold(None, |m: Option<f32>, x| Some(m.map_or(x, |m| m.max(x))))
            .ok_or(TensorError::EmptyInput("max_all"))
    }

    /// Minimum element.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::EmptyInput`] on an empty tensor.
    pub fn min_all(&self) -> Result<f32> {
        self.data
            .iter()
            .copied()
            .fold(None, |m: Option<f32>, x| Some(m.map_or(x, |m| m.min(x))))
            .ok_or(TensorError::EmptyInput("min_all"))
    }

    /// Euclidean (L2) norm of the flattened tensor.
    pub fn norm(&self) -> f32 {
        self.data
            .iter()
            .map(|&x| (x as f64) * (x as f64))
            .sum::<f64>()
            .sqrt() as f32
    }

    /// Sums along `axis`, dropping that axis.
    ///
    /// # Errors
    ///
    /// Returns an error for an invalid axis.
    pub fn sum_axis(&self, axis: usize) -> Result<Self> {
        let dim = self.shape.dim(axis)?;
        let mut shape = self.shape;
        shape.remove(axis);
        let outer: usize = self.dims()[..axis].iter().product();
        let inner: usize = self.dims()[axis + 1..].iter().product();
        let mut out = Tensor::full_shaped(shape, 0.0);
        for o in 0..outer {
            for a in 0..dim {
                let base = (o * dim + a) * inner;
                let obase = o * inner;
                for i in 0..inner {
                    out.data[obase + i] += self.data[base + i];
                }
            }
        }
        Ok(out)
    }

    /// Means along `axis`, dropping that axis.
    ///
    /// # Errors
    ///
    /// Returns an error for an invalid axis.
    pub fn mean_axis(&self, axis: usize) -> Result<Self> {
        let dim = self.shape.dim(axis)?.max(1);
        Ok(self.sum_axis(axis)?.mul_scalar(1.0 / dim as f32))
    }

    /// Maximum along `axis`, dropping that axis.
    ///
    /// # Errors
    ///
    /// Returns an error for an invalid axis or zero-size axis.
    pub fn max_axis(&self, axis: usize) -> Result<Self> {
        let dim = self.shape.dim(axis)?;
        if dim == 0 {
            return Err(TensorError::EmptyInput("max_axis"));
        }
        let mut shape = self.shape;
        shape.remove(axis);
        let outer: usize = self.dims()[..axis].iter().product();
        let inner: usize = self.dims()[axis + 1..].iter().product();
        let mut out = Tensor::full_shaped(shape, f32::NEG_INFINITY);
        for o in 0..outer {
            for a in 0..dim {
                let base = (o * dim + a) * inner;
                let obase = o * inner;
                for i in 0..inner {
                    let v = self.data[base + i];
                    if v > out.data[obase + i] {
                        out.data[obase + i] = v;
                    }
                }
            }
        }
        Ok(out)
    }

    /// Index of the maximum along the **last** axis, dropping that axis.
    /// Ties resolve to the first maximum.
    ///
    /// # Errors
    ///
    /// Returns an error for rank-0 tensors or a zero-size last axis.
    pub fn argmax_last_axis(&self) -> Result<Vec<usize>> {
        let rank = self.rank();
        if rank == 0 {
            return Err(TensorError::AxisOutOfRange { axis: 0, rank: 0 });
        }
        let inner = *self.dims().last().expect("rank >= 1");
        if inner == 0 {
            return Err(TensorError::EmptyInput("argmax_last_axis"));
        }
        Ok(self
            .data
            .chunks(inner)
            .map(|row| {
                row.iter()
                    .enumerate()
                    .fold((0usize, f32::NEG_INFINITY), |(bi, bv), (i, &v)| {
                        if v > bv {
                            (i, v)
                        } else {
                            (bi, bv)
                        }
                    })
                    .0
            })
            .collect())
    }

    // ------------------------------------------------------------------
    // Linear algebra (delegates to ops::matmul)
    // ------------------------------------------------------------------

    /// Batched matrix multiplication with leading-dimension broadcasting.
    ///
    /// See [`crate::ops::matmul::matmul`] for the exact semantics.
    ///
    /// # Errors
    ///
    /// Returns an error on contraction-dimension or batch mismatch.
    pub fn matmul(&self, other: &Tensor) -> Result<Self> {
        crate::ops::matmul::matmul(self, other)
    }

    /// `self @ other^T` without materializing the transpose.
    ///
    /// See [`crate::ops::matmul::matmul_bt`].
    ///
    /// # Errors
    ///
    /// Returns an error on contraction-dimension or batch mismatch.
    pub fn matmul_bt(&self, other: &Tensor) -> Result<Self> {
        crate::ops::matmul::matmul_bt(self, other)
    }

    /// `self^T @ other` without materializing the transpose.
    ///
    /// See [`crate::ops::matmul::matmul_at`].
    ///
    /// # Errors
    ///
    /// Returns an error on contraction-dimension or batch mismatch.
    pub fn matmul_at(&self, other: &Tensor) -> Result<Self> {
        crate::ops::matmul::matmul_at(self, other)
    }

    // ------------------------------------------------------------------
    // Comparison helpers
    // ------------------------------------------------------------------

    /// True if shapes match and every element pair differs by at most `tol`
    /// absolutely or `tol` relatively.
    pub fn allclose(&self, other: &Tensor, tol: f32) -> bool {
        self.shape == other.shape
            && self.data.iter().zip(other.data.iter()).all(|(&a, &b)| {
                let diff = (a - b).abs();
                diff <= tol || diff <= tol * a.abs().max(b.abs())
            })
    }

    /// True if any element is NaN or infinite.
    pub fn has_non_finite(&self) -> bool {
        self.data.iter().any(|x| !x.is_finite())
    }
}

/// Exact GELU using the error function via `tanh`-free formulation.
///
/// `erf` is not in `std`, so we use the Abramowitz–Stegun rational
/// approximation (max abs error ~1.5e-7, well below f32 resolution needs).
fn gelu_scalar(x: f32) -> f32 {
    0.5 * x * (1.0 + erf(x as f64 / std::f64::consts::SQRT_2) as f32)
}

fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.3275911 * x);
    let y = 1.0
        - (((((1.061405429 * t - 1.453152027) * t) + 1.421413741) * t - 0.284496736) * t
            + 0.254829592)
            * t
            * (-x * x).exp();
    sign * y
}

impl std::fmt::Display for Tensor {
    /// Compact display: shape plus the first few elements.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        const PREVIEW: usize = 8;
        write!(f, "Tensor{}[", self.shape)?;
        for (i, v) in self.data.iter().take(PREVIEW).enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v:.4}")?;
        }
        if self.len() > PREVIEW {
            write!(f, ", … ({} total)", self.len())?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        assert_eq!(Tensor::zeros(&[2, 3]).len(), 6);
        assert_eq!(Tensor::ones(&[4]).sum_all(), 4.0);
        assert_eq!(Tensor::full(&[2], 2.5).data(), &[2.5, 2.5]);
        assert_eq!(Tensor::scalar(7.0).item(), 7.0);
        assert_eq!(Tensor::arange(4).data(), &[0.0, 1.0, 2.0, 3.0]);
        let i = Tensor::eye(3);
        assert_eq!(i.at(&[1, 1]).unwrap(), 1.0);
        assert_eq!(i.at(&[1, 2]).unwrap(), 0.0);
    }

    #[test]
    fn from_vec_length_check() {
        assert!(Tensor::from_vec(vec![1.0; 5], &[2, 3]).is_err());
        assert!(Tensor::from_vec(vec![1.0; 6], &[2, 3]).is_ok());
    }

    #[test]
    fn randn_statistics() {
        let t = Tensor::randn(&[10_000], 42);
        assert!(t.mean_all().abs() < 0.05, "mean {}", t.mean_all());
        let var = t.square().mean_all();
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn randn_deterministic() {
        assert_eq!(Tensor::randn(&[16], 7), Tensor::randn(&[16], 7));
        assert_ne!(Tensor::randn(&[16], 7), Tensor::randn(&[16], 8));
    }

    #[test]
    fn broadcasting_add() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        let b = Tensor::from_vec(vec![10.0, 20.0, 30.0], &[3]).unwrap();
        let c = a.add(&b).unwrap();
        assert_eq!(c.data(), &[11.0, 22.0, 33.0, 14.0, 25.0, 36.0]);
    }

    #[test]
    fn broadcasting_column() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        let col = Tensor::from_vec(vec![10.0, 100.0], &[2, 1]).unwrap();
        let c = a.mul(&col).unwrap();
        assert_eq!(c.data(), &[10.0, 20.0, 300.0, 400.0]);
    }

    #[test]
    fn broadcast_incompatible() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[4]);
        assert!(matches!(a.add(&b), Err(TensorError::ShapeMismatch { .. })));
    }

    #[test]
    fn reduce_to_is_adjoint_of_broadcast() {
        let g = Tensor::ones(&[2, 3]);
        let r = g.reduce_to(&[3]).unwrap();
        assert_eq!(r.data(), &[2.0, 2.0, 2.0]);
        let r2 = g.reduce_to(&[2, 1]).unwrap();
        assert_eq!(r2.data(), &[3.0, 3.0]);
        let r3 = g.reduce_to(&[]).unwrap();
        assert_eq!(r3.item(), 6.0);
    }

    #[test]
    fn permute_and_transpose() {
        let t = Tensor::from_vec((0..24).map(|x| x as f32).collect(), &[2, 3, 4]).unwrap();
        let p = t.permute(&[2, 0, 1]).unwrap();
        assert_eq!(p.dims(), &[4, 2, 3]);
        assert_eq!(p.at(&[3, 1, 2]).unwrap(), t.at(&[1, 2, 3]).unwrap());
        let tt = t.transpose().unwrap();
        assert_eq!(tt.dims(), &[2, 4, 3]);
        assert_eq!(tt.at(&[1, 3, 2]).unwrap(), t.at(&[1, 2, 3]).unwrap());
    }

    #[test]
    fn permute_rejects_bad_perm() {
        let t = Tensor::zeros(&[2, 3]);
        assert!(t.permute(&[0, 0]).is_err());
        assert!(t.permute(&[0]).is_err());
        assert!(t.permute(&[0, 2]).is_err());
    }

    #[test]
    fn slice_and_concat_round_trip() {
        let t = Tensor::from_vec((0..12).map(|x| x as f32).collect(), &[3, 4]).unwrap();
        let a = t.slice_axis(0, 0, 1).unwrap();
        let b = t.slice_axis(0, 1, 3).unwrap();
        let back = Tensor::concat(&[&a, &b], 0).unwrap();
        assert_eq!(back, t);

        let c = t.slice_axis(1, 1, 3).unwrap();
        assert_eq!(c.dims(), &[3, 2]);
        assert_eq!(c.data(), &[1.0, 2.0, 5.0, 6.0, 9.0, 10.0]);
    }

    #[test]
    fn stack_tensors() {
        let a = Tensor::ones(&[2]);
        let b = Tensor::zeros(&[2]);
        let s = Tensor::stack(&[&a, &b]).unwrap();
        assert_eq!(s.dims(), &[2, 2]);
        assert_eq!(s.data(), &[1.0, 1.0, 0.0, 0.0]);
        assert!(Tensor::stack(&[]).is_err());
    }

    #[test]
    fn axis_reductions() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        assert_eq!(t.sum_axis(0).unwrap().data(), &[5.0, 7.0, 9.0]);
        assert_eq!(t.sum_axis(1).unwrap().data(), &[6.0, 15.0]);
        assert_eq!(t.mean_axis(1).unwrap().data(), &[2.0, 5.0]);
        assert_eq!(t.max_axis(0).unwrap().data(), &[4.0, 5.0, 6.0]);
    }

    #[test]
    fn squeeze_unsqueeze() {
        let t = Tensor::zeros(&[2, 3]);
        let u = t.unsqueeze(1).unwrap();
        assert_eq!(u.dims(), &[2, 1, 3]);
        assert_eq!(u.squeeze(1).unwrap().dims(), &[2, 3]);
        assert!(u.squeeze(0).is_err());
    }

    #[test]
    fn argmax_last_axis_picks_maxima() {
        let t = Tensor::from_vec(vec![1.0, 5.0, 2.0, 7.0, 0.0, -1.0], &[2, 3]).unwrap();
        assert_eq!(t.argmax_last_axis().unwrap(), vec![1, 0]);
        // Ties resolve to the first index.
        let tie = Tensor::from_vec(vec![3.0, 3.0], &[1, 2]).unwrap();
        assert_eq!(tie.argmax_last_axis().unwrap(), vec![0]);
        assert!(Tensor::scalar(1.0).argmax_last_axis().is_err());
    }

    #[test]
    fn norm_matches_manual() {
        let t = Tensor::from_vec(vec![3.0, 4.0], &[2]).unwrap();
        assert!((t.norm() - 5.0).abs() < 1e-6);
    }

    #[test]
    fn gelu_reference_points() {
        let t = Tensor::from_vec(vec![0.0, 1.0, -1.0, 3.0], &[4]).unwrap();
        let g = t.gelu();
        assert!((g.data()[0]).abs() < 1e-6);
        assert!((g.data()[1] - 0.841345).abs() < 1e-3);
        assert!((g.data()[2] + 0.158655).abs() < 1e-3);
        assert!((g.data()[3] - 2.99595).abs() < 1e-3);
    }

    #[test]
    fn kahan_sum_is_stable() {
        let mut data = vec![1.0e8f32];
        data.extend(std::iter::repeat_n(1.0f32, 1000));
        let t = Tensor::from_vec(data, &[1001]).unwrap();
        // Naive f32 summation would lose all the 1.0s.
        assert_eq!(t.sum_all(), 1.0e8 + 1000.0);
    }

    #[test]
    fn minimum_and_clamp() {
        let a = Tensor::from_vec(vec![1.0, 5.0, -2.0], &[3]).unwrap();
        let b = Tensor::from_vec(vec![2.0, 3.0, 0.0], &[3]).unwrap();
        assert_eq!(a.minimum(&b).unwrap().data(), &[1.0, 3.0, -2.0]);
        assert_eq!(a.clamp(0.0, 2.0).data(), &[1.0, 2.0, 0.0]);
    }

    #[test]
    fn display_is_compact_and_nonempty() {
        let t = Tensor::arange(20);
        let s = format!("{t}");
        assert!(s.contains("(20 total)"), "{s}");
        assert!(s.starts_with("Tensor[20]["));
    }

    #[test]
    fn non_finite_detection() {
        let mut t = Tensor::zeros(&[3]);
        assert!(!t.has_non_finite());
        t.data_mut()[1] = f32::NAN;
        assert!(t.has_non_finite());
    }
}
