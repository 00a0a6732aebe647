//! Stride-collapsed iteration for the layout ops: `permute`, broadcasting
//! `binary`, `broadcast_to` and `reduce_to`.
//!
//! Each op walks an iteration shape with one stride list per operand
//! (stride 0 on a broadcast axis). [`Runs`] first simplifies that layout:
//! size-1 axes are dropped and adjacent axes that are contiguous in every
//! operand are merged, so e.g. `[S, R, C] + [R, C]` becomes `S` runs of
//! `R·C` elements. The outer axes are then walked by updating offsets
//! incrementally, and each innermost run goes to a tight loop specialised
//! for its stride pattern ({1,1}, {1,0}, {0,1}), which the compiler
//! vectorises.
//!
//! Merging never reorders the walk: elements are still visited in
//! row-major order of the iteration shape, so every output element
//! receives the same floating-point operations in the same order as a
//! per-element walk, and results are bitwise unchanged.
//!
//! Every layout list here is an inline array of [`MAX_RANK`] entries, so
//! walking a layout allocates nothing.

use crate::shape::{row_major_strides, Shape, MAX_RANK};
use std::mem::MaybeUninit;

/// An iteration shape over `N` strided operands, collapsed into equal-length
/// innermost runs.
#[cfg_attr(test, derive(Debug, PartialEq, Eq))]
pub(crate) struct Runs<const N: usize> {
    /// Number of collapsed axes (at least 1).
    rank: usize,
    /// Collapsed extents, outermost first; the last one is the run length.
    /// Entries past `rank` are zero.
    dims: [usize; MAX_RANK],
    /// Stride of every operand along each collapsed axis.
    strides: [[usize; N]; MAX_RANK],
}

impl<const N: usize> Runs<N> {
    /// Collapses the iteration shape `dims`, read by operand `k` through
    /// `strides[k]` (each aligned to `dims`).
    pub(crate) fn new(dims: &[usize], strides: [&[usize]; N]) -> Self {
        if dims.contains(&0) {
            return Runs::single(0);
        }
        // Innermost first, so each axis is tested against the (already
        // merged) axis just inside it.
        let mut runs = Runs {
            rank: 0,
            dims: [0; MAX_RANK],
            strides: [[0; N]; MAX_RANK],
        };
        for axis in (0..dims.len()).rev() {
            let d = dims[axis];
            if d == 1 {
                continue;
            }
            let s: [usize; N] = std::array::from_fn(|k| strides[k][axis]);
            if let Some(inner) = runs.rank.checked_sub(1) {
                if (0..N).all(|k| s[k] == runs.strides[inner][k] * runs.dims[inner]) {
                    runs.dims[inner] *= d;
                    continue;
                }
            }
            runs.dims[runs.rank] = d;
            runs.strides[runs.rank] = s;
            runs.rank += 1;
        }
        if runs.rank == 0 {
            // One element: a single run of length 1, where strides are moot.
            return Runs::single(1);
        }
        runs.dims[..runs.rank].reverse();
        runs.strides[..runs.rank].reverse();
        runs
    }

    /// One run of `len` elements at stride 1 in every operand.
    fn single(len: usize) -> Self {
        let mut runs = Runs {
            rank: 1,
            dims: [0; MAX_RANK],
            strides: [[0; N]; MAX_RANK],
        };
        runs.dims[0] = len;
        runs.strides[0] = [1; N];
        runs
    }

    /// Length of every innermost run.
    pub(crate) fn run_len(&self) -> usize {
        self.dims[self.rank - 1]
    }

    /// Per-operand element stride inside a run.
    pub(crate) fn run_strides(&self) -> [usize; N] {
        self.strides[self.rank - 1]
    }

    /// Calls `f` with the operands' start offsets of each run, in row-major
    /// order of the iteration shape.
    pub(crate) fn for_each_run(&self, mut f: impl FnMut([usize; N])) {
        if self.run_len() == 0 {
            return;
        }
        let outer = &self.dims[..self.rank - 1];
        let mut idx = [0usize; MAX_RANK];
        let mut off = [0usize; N];
        loop {
            f(off);
            let mut axis = outer.len();
            loop {
                if axis == 0 {
                    return;
                }
                axis -= 1;
                let s = &self.strides[axis];
                idx[axis] += 1;
                if idx[axis] < outer[axis] {
                    for k in 0..N {
                        off[k] += s[k];
                    }
                    break;
                }
                idx[axis] = 0;
                for k in 0..N {
                    off[k] -= s[k] * (outer[axis] - 1);
                }
            }
        }
    }
}

/// Strides for reading a tensor of shape `src` as if broadcast to `dst`
/// (stride 0 on broadcast axes), aligned to `dst`'s rank: the first
/// `dst.rank()` entries; the rest are zero.
pub(crate) fn broadcast_strides(src: &Shape, dst: &Shape) -> [usize; MAX_RANK] {
    let src_strides = src.strides();
    let offset = dst.rank() - src.rank();
    let mut out = [0usize; MAX_RANK];
    for i in 0..src.rank() {
        let d = src.dims()[i];
        out[offset + i] = if d == 1 { 0 } else { src_strides[i] };
    }
    out
}

/// `out[i] = src[layout(i)]` for every multi-index `i` of `dims`: assigns
/// every element of the contiguous `out` from `src` read through
/// `src_strides` (permute, broadcast_to).
pub(crate) fn gather(
    out: &mut [MaybeUninit<f32>],
    dims: &[usize],
    src: &[f32],
    src_strides: &[usize],
) {
    let out_strides = row_major_strides(dims);
    let runs = Runs::new(dims, [&out_strides[..dims.len()], src_strides]);
    let n = runs.run_len();
    match runs.run_strides() {
        [_, 1] => runs.for_each_run(|[o, s]| {
            out[o..o + n].write_copy_of_slice(&src[s..s + n]);
        }),
        [_, 0] => runs.for_each_run(|[o, s]| out[o..o + n].fill(MaybeUninit::new(src[s]))),
        [_, st] => runs.for_each_run(|[o, s]| {
            for (j, y) in out[o..o + n].iter_mut().enumerate() {
                y.write(src[s + j * st]);
            }
        }),
    }
}

/// `out[i] = f(a[layout_a(i)], b[layout_b(i)])` for every multi-index `i`
/// of `dims`, assigning every element of the contiguous `out`
/// (broadcasting `binary`).
///
/// `a` and `b` are contiguous tensors read through broadcast strides, so
/// inside a run each has stride 1, or 0 where it is broadcast, and at most
/// one of them is broadcast (a run spans an axis of size > 1).
pub(crate) fn zip_map(
    out: &mut [MaybeUninit<f32>],
    dims: &[usize],
    (a, a_strides): (&[f32], &[usize]),
    (b, b_strides): (&[f32], &[usize]),
    f: impl Fn(f32, f32) -> f32,
) {
    let out_strides = row_major_strides(dims);
    let runs = Runs::new(dims, [&out_strides[..dims.len()], a_strides, b_strides]);
    let n = runs.run_len();
    match runs.run_strides() {
        [_, 1, 1] => runs.for_each_run(|[o, i, j]| {
            for ((y, &x), &z) in out[o..o + n].iter_mut().zip(&a[i..i + n]).zip(&b[j..j + n]) {
                y.write(f(x, z));
            }
        }),
        [_, 1, 0] => runs.for_each_run(|[o, i, j]| {
            let z = b[j];
            for (y, &x) in out[o..o + n].iter_mut().zip(&a[i..i + n]) {
                y.write(f(x, z));
            }
        }),
        [_, 0, 1] => runs.for_each_run(|[o, i, j]| {
            let x = a[i];
            for (y, &z) in out[o..o + n].iter_mut().zip(&b[j..j + n]) {
                y.write(f(x, z));
            }
        }),
        s => unreachable!("broadcast operands have run strides 0 or 1, got {s:?}"),
    }
}

/// `out[layout(i)] += src[i]` for every multi-index `i` of `dims`, visiting
/// the contiguous `src` in row-major order (`reduce_to`, the adjoint of
/// [`gather`] with broadcast strides).
///
/// `out_strides` are the broadcast strides of a contiguous tensor, so a run
/// either walks `out` contiguously or sums into one element.
pub(crate) fn scatter_add(out: &mut [f32], out_strides: &[usize], src: &[f32], dims: &[usize]) {
    let src_strides = row_major_strides(dims);
    let runs = Runs::new(dims, [out_strides, &src_strides[..dims.len()]]);
    let n = runs.run_len();
    match runs.run_strides() {
        [1, _] => runs.for_each_run(|[o, s]| {
            for (y, &x) in out[o..o + n].iter_mut().zip(&src[s..s + n]) {
                *y += x;
            }
        }),
        [0, _] => runs.for_each_run(|[o, s]| {
            // Same left-to-right sum as adding into `out[o]` one at a time.
            let mut acc = out[o];
            for &x in &src[s..s + n] {
                acc += x;
            }
            out[o] = acc;
        }),
        s => unreachable!("broadcast targets have run stride 0 or 1, got {s:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tensor;
    use proptest::prelude::*;

    /// The per-element odometer implementations these kernels replaced,
    /// kept as the bitwise reference.
    mod reference {
        use super::super::broadcast_strides;
        use crate::{Shape, Tensor};

        /// Calls `f` with every multi-index of `dims` in row-major order.
        fn for_each_index(dims: &[usize], mut f: impl FnMut(&[usize])) {
            if dims.contains(&0) {
                return;
            }
            let mut idx = vec![0usize; dims.len()];
            loop {
                f(&idx);
                let mut axis = dims.len();
                loop {
                    if axis == 0 {
                        return;
                    }
                    axis -= 1;
                    idx[axis] += 1;
                    if idx[axis] < dims[axis] {
                        break;
                    }
                    idx[axis] = 0;
                }
            }
        }

        fn dot(idx: &[usize], strides: &[usize]) -> usize {
            idx.iter().zip(strides).map(|(&i, &s)| i * s).sum()
        }

        pub fn binary(a: &Tensor, b: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
            let out_shape = a.shape().broadcast(b.shape()).expect("broadcastable");
            let a_str = broadcast_strides(a.shape(), &out_shape);
            let b_str = broadcast_strides(b.shape(), &out_shape);
            let mut out = Vec::with_capacity(out_shape.num_elements());
            for_each_index(out_shape.dims(), |idx| {
                out.push(f(a.data()[dot(idx, &a_str)], b.data()[dot(idx, &b_str)]));
            });
            Tensor::from_vec(out, out_shape.dims()).expect("sized")
        }

        pub fn broadcast_to(t: &Tensor, dims: &[usize]) -> Tensor {
            let strides = broadcast_strides(t.shape(), &Shape::new(dims));
            let mut out = Vec::with_capacity(dims.iter().product());
            for_each_index(dims, |idx| out.push(t.data()[dot(idx, &strides)]));
            Tensor::from_vec(out, dims).expect("sized")
        }

        pub fn reduce_to(t: &Tensor, dims: &[usize]) -> Tensor {
            let strides = broadcast_strides(&Shape::new(dims), t.shape());
            let mut out = Tensor::zeros(dims);
            let mut flat = 0usize;
            for_each_index(t.dims(), |idx| {
                out.data_mut()[dot(idx, &strides)] += t.data()[flat];
                flat += 1;
            });
            out
        }

        pub fn permute(t: &Tensor, perm: &[usize]) -> Tensor {
            let out_dims: Vec<usize> = perm.iter().map(|&p| t.dims()[p]).collect();
            let in_strides = t.shape().strides();
            let strides: Vec<usize> = perm.iter().map(|&p| in_strides[p]).collect();
            let mut out = Vec::with_capacity(out_dims.iter().product());
            for_each_index(&out_dims, |idx| out.push(t.data()[dot(idx, &strides)]));
            Tensor::from_vec(out, &out_dims).expect("sized")
        }
    }

    impl<const N: usize> Runs<N> {
        /// The runs with these collapsed extents and strides.
        fn of(dims: &[usize], strides: &[[usize; N]]) -> Self {
            let mut runs = Runs {
                rank: dims.len(),
                dims: [0; MAX_RANK],
                strides: [[0; N]; MAX_RANK],
            };
            runs.dims[..dims.len()].copy_from_slice(dims);
            runs.strides[..dims.len()].copy_from_slice(strides);
            runs
        }
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|x| x.to_bits()).collect()
    }

    fn assert_bitwise(got: &Tensor, want: &Tensor, what: &str) {
        assert_eq!(got.dims(), want.dims(), "{what}: dims");
        assert_eq!(bits(got), bits(want), "{what}: bits");
    }

    /// Values with mixed magnitudes and signs (including -0.0), so any change
    /// in summation order or operand pairing shows up in the bits.
    fn values(dims: &[usize], seed: u64) -> Tensor {
        let t = Tensor::randn(dims, seed);
        let mut data = t.data().to_vec();
        for (i, x) in data.iter_mut().enumerate() {
            *x *= [1.0, 1e-3, 1e4, -0.0][i % 4];
        }
        Tensor::from_vec(data, dims).expect("sized")
    }

    /// All permutations of `0..n`, in lexicographic order.
    fn permutations(n: usize) -> Vec<Vec<usize>> {
        if n == 0 {
            return vec![vec![]];
        }
        let mut out = Vec::new();
        for p in permutations(n - 1) {
            for pos in 0..=p.len() {
                let mut q = p.clone();
                q.insert(pos, n - 1);
                out.push(q);
            }
        }
        out.sort();
        out
    }

    /// A shape of rank 0..=5 with extents in 0..=4, size-1 and zero-size axes
    /// included.
    fn shape() -> impl Strategy<Value = Vec<usize>> {
        proptest::collection::vec(
            prop_oneof![Just(1usize), Just(0usize), 1usize..5, 2usize..4],
            0..6,
        )
    }

    /// Turns each axis of `dims` into a broadcast axis (size 1) when the
    /// matching bit of `mask` is set, and drops `drop` leading axes.
    fn broadcast_operand(dims: &[usize], mask: u32, drop: usize) -> Vec<usize> {
        dims.iter()
            .enumerate()
            .skip(drop.min(dims.len()))
            .map(|(i, &d)| if (mask >> i) & 1 == 1 { 1 } else { d })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn binary_matches_odometer_bitwise(
            (dims, ma, mb, da, db, seed) in
                (shape(), any::<u32>(), any::<u32>(), 0usize..3, 0usize..3, any::<u64>())
        ) {
            // Broadcasting on either side, or both, at any rank offset.
            let a = values(&broadcast_operand(&dims, ma, da), seed);
            let b = values(&broadcast_operand(&dims, mb, db), seed ^ 0x9e37);
            for (name, f) in [
                ("add", (|x, y| x + y) as fn(f32, f32) -> f32),
                ("sub", |x, y| x - y),
                ("mul", |x, y| x * y),
                ("div", |x, y| x / y),
            ] {
                let got = a.binary(&b, name, f).unwrap();
                assert_bitwise(&got, &reference::binary(&a, &b, f), name);
                let got = b.binary(&a, name, f).unwrap();
                assert_bitwise(&got, &reference::binary(&b, &a, f), name);
            }
        }

        #[test]
        fn broadcast_and_reduce_match_odometer_bitwise(
            (dims, mask, drop, seed) in (shape(), any::<u32>(), 0usize..3, any::<u64>())
        ) {
            let small = broadcast_operand(&dims, mask, drop);
            let s = values(&small, seed);
            assert_bitwise(
                &s.broadcast_to(&dims).unwrap(),
                &reference::broadcast_to(&s, &dims),
                "broadcast_to",
            );
            let big = values(&dims, seed ^ 0x51);
            assert_bitwise(
                &big.reduce_to(&small).unwrap(),
                &reference::reduce_to(&big, &small),
                "reduce_to",
            );
        }

        #[test]
        fn permute_matches_odometer_bitwise((dims, seed) in (shape(), any::<u64>())) {
            let t = values(&dims, seed);
            let perms = permutations(dims.len());
            // Ranks above 4 sample a few permutations; lower ranks are covered
            // exhaustively by `permute_every_permutation_up_to_rank_4`.
            for perm in perms.iter().step_by(perms.len().div_ceil(8)) {
                assert_bitwise(&t.permute(perm).unwrap(), &reference::permute(&t, perm), "permute");
            }
        }
    }

    #[test]
    fn permute_every_permutation_up_to_rank_4() {
        let shapes: &[&[usize]] = &[
            &[],
            &[5],
            &[0],
            &[3, 4],
            &[1, 4],
            &[2, 3, 4],
            &[3, 1, 5],
            &[2, 0, 3],
            &[2, 3, 4, 5],
            &[1, 3, 1, 2],
            &[4, 4, 4, 4],
        ];
        for (seed, dims) in shapes.iter().enumerate() {
            let t = values(dims, seed as u64);
            for perm in permutations(dims.len()) {
                let what = format!("permute {dims:?} by {perm:?}");
                assert_bitwise(
                    &t.permute(&perm).unwrap(),
                    &reference::permute(&t, &perm),
                    &what,
                );
            }
        }
    }

    #[test]
    fn contiguous_axes_merge_into_one_run() {
        let dims = [2, 3, 4];
        let s = row_major_strides(&dims);
        let runs = Runs::new(&dims, [&s, &s]);
        assert_eq!(runs, Runs::of(&[24], &[[1, 1]]));
    }

    #[test]
    fn broadcast_axis_merges_only_with_broadcast_axes() {
        // [S, R, C] + [R, C]: S runs of R·C contiguous elements.
        let dims = [5, 3, 4];
        let out = row_major_strides(&dims);
        let b = broadcast_strides(&Shape::new(&[3, 4]), &Shape::new(&dims));
        let runs = Runs::new(&dims, [&out, &out, &b]);
        assert_eq!(runs, Runs::of(&[5, 12], &[[12, 12, 0], [1, 1, 1]]));
        assert_eq!((runs.run_len(), runs.run_strides()), (12, [1, 1, 1]));
        // [R, C] * [R, 1]: a column broadcast cannot merge with its row.
        let col = broadcast_strides(&Shape::new(&[3, 1]), &Shape::new(&[3, 4]));
        let rm = row_major_strides(&[3, 4]);
        let runs = Runs::new(&[3, 4], [&rm, &col]);
        assert_eq!(runs, Runs::of(&[3, 4], &[[4, 1], [1, 0]]));
    }

    #[test]
    fn size_one_axes_drop() {
        let dims = [1, 3, 1, 4, 1];
        let s = row_major_strides(&dims);
        // A permuted layout: the 3-axis is innermost in the source.
        let src = [0, 1, 0, 3, 0];
        let runs = Runs::new(&dims, [&s, &src]);
        assert_eq!(runs, Runs::of(&[3, 4], &[[4, 1], [1, 3]]));
    }

    #[test]
    fn all_broadcast_shape_is_a_single_run() {
        let dims = [2, 3, 4];
        let out = row_major_strides(&dims);
        let scalar = broadcast_strides(&Shape::new(&[]), &Shape::new(&dims));
        let runs = Runs::new(&dims, [&out, &scalar]);
        assert_eq!(runs, Runs::of(&[24], &[[1, 0]]));
        let mut starts = Vec::new();
        runs.for_each_run(|off| starts.push(off));
        assert_eq!(starts, vec![[0, 0]]);
    }

    #[test]
    fn degenerate_shapes() {
        // A scalar and an all-ones shape are one run of one element.
        assert_eq!(Runs::<2>::new(&[], [&[], &[]]), Runs::of(&[1], &[[1, 1]]));
        assert_eq!(Runs::<1>::new(&[1, 1], [&[1, 1]]), Runs::of(&[1], &[[1]]));
        // A zero-size axis yields no runs at all.
        let runs = Runs::<1>::new(&[3, 0, 2], [&[0, 2, 1]]);
        let mut calls = 0;
        runs.for_each_run(|_| calls += 1);
        assert_eq!(calls, 0);
    }

    #[test]
    fn runs_visit_outer_axes_in_row_major_order() {
        // Transposing a 3x2: source stride 2 inside the run, 1 across runs.
        let runs = Runs::new(&[2, 3], [&[3, 1], &[1, 2]]);
        let mut starts = Vec::new();
        runs.for_each_run(|off| starts.push(off));
        assert_eq!(starts, vec![[0, 0], [3, 1]]);
        let runs = Runs::<1>::new(&[2, 3, 2, 5], [&[1, 10, 100, 0]]);
        let mut starts = Vec::new();
        runs.for_each_run(|[o]| starts.push(o));
        let want: Vec<usize> = (0..2)
            .flat_map(|i| (0..3).flat_map(move |j| (0..2).map(move |k| i + 10 * j + 100 * k)))
            .collect();
        assert_eq!(starts, want);
    }
}
