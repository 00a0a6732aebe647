//! `Shape` holds its dims inline, in an array of `MAX_RANK` entries. These
//! tests pin it to the `Vec<usize>` it replaced: strides, broadcasting,
//! flat indexing, the `Debug`/`Display` text and `Eq`/`Hash` must read
//! exactly as for the dims as a vector, including for shapes that tensor
//! ops built by inserting and removing axes. Above the bound, every
//! fallible entry point returns [`TensorError::RankTooHigh`].

use proptest::prelude::*;
use sf_tensor::{Shape, Tensor, TensorError, MAX_RANK};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// The reference: the shape as a plain vector of dims.
mod reference {
    pub fn strides(dims: &[usize]) -> Vec<usize> {
        let mut strides = vec![1usize; dims.len()];
        for i in (0..dims.len().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * dims[i + 1];
        }
        strides
    }

    fn from_end(dims: &[usize], i: usize) -> usize {
        if i < dims.len() {
            dims[dims.len() - 1 - i]
        } else {
            1
        }
    }

    pub fn broadcast(a: &[usize], b: &[usize]) -> Option<Vec<usize>> {
        let rank = a.len().max(b.len());
        let mut out = vec![0; rank];
        for i in 0..rank {
            out[rank - 1 - i] = match (from_end(a, i), from_end(b, i)) {
                (x, y) if x == y => x,
                (1, y) => y,
                (x, 1) => x,
                _ => return None,
            };
        }
        Some(out)
    }

    pub fn broadcastable_to(a: &[usize], target: &[usize]) -> bool {
        let fits = |i| from_end(a, i) == from_end(target, i) || from_end(a, i) == 1;
        a.len() <= target.len() && (0..a.len()).all(fits)
    }

    pub fn flat_index(dims: &[usize], index: &[usize]) -> Option<usize> {
        if index.len() != dims.len() || index.iter().zip(dims).any(|(&i, &d)| i >= d) {
            return None;
        }
        Some(index.iter().zip(strides(dims)).map(|(&i, s)| i * s).sum())
    }
}

fn hash_of(x: &impl Hash) -> u64 {
    let mut h = DefaultHasher::new();
    x.hash(&mut h);
    h.finish()
}

/// Checks every observable of `shape` against the vector `dims`.
fn assert_reads_as(shape: &Shape, dims: &[usize]) {
    assert_eq!(shape.dims(), dims);
    assert_eq!(shape.rank(), dims.len());
    assert_eq!(shape.num_elements(), dims.iter().product::<usize>());
    let strides = shape.strides();
    assert_eq!(&strides[..dims.len()], &reference::strides(dims)[..]);
    assert!(
        strides[dims.len()..].iter().all(|&s| s == 0),
        "strides past the rank"
    );
    assert_eq!(format!("{shape:?}"), format!("Shape({dims:?})"));
    assert_eq!(format!("{shape}"), format!("{dims:?}"));
    assert_eq!(hash_of(shape), hash_of(&dims.to_vec()), "hash of {dims:?}");
    assert_eq!(*shape, Shape::new(dims));
}

/// Dims of rank `0..=MAX_RANK` with extents in `0..5`, ones and zeros
/// included.
fn dims() -> impl Strategy<Value = Vec<usize>> {
    let extent = prop_oneof![Just(1usize), Just(0usize), 1usize..5, 2usize..4];
    proptest::collection::vec(extent, 0..MAX_RANK + 1)
}

/// Dims without zeros, for tensors built from them.
fn nonzero_dims() -> impl Strategy<Value = Vec<usize>> {
    proptest::collection::vec(prop_oneof![Just(1usize), 1usize..4], 0..MAX_RANK + 1)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn shape_reads_as_its_dims_vector(d in dims()) {
        assert_reads_as(&Shape::new(&d), &d);
        assert_reads_as(&Shape::try_new(&d).unwrap(), &d);
    }

    #[test]
    fn broadcast_matches_reference((a, b, drop) in (dims(), dims(), 0usize..3)) {
        // Half the pairs are made compatible: `b` becomes a suffix of `a`
        // with some axes turned into broadcast axes.
        let b = if drop == 0 {
            b
        } else {
            a.iter().skip(drop.min(a.len())).enumerate()
                .map(|(i, &x)| if b.get(i) == Some(&1) { 1 } else { x }).collect()
        };
        let (sa, sb) = (Shape::new(&a), Shape::new(&b));
        match (sa.broadcast(&sb), reference::broadcast(&a, &b)) {
            (Ok(got), Some(want)) => assert_reads_as(&got, &want),
            (Err(TensorError::ShapeMismatch { .. }), None) => {}
            (got, want) => panic!("{a:?} vs {b:?}: {got:?} vs {want:?}"),
        }
        prop_assert_eq!(sb.broadcastable_to(&sa), reference::broadcastable_to(&b, &a));
        prop_assert_eq!(sa.broadcastable_to(&sb), reference::broadcastable_to(&a, &b));
    }

    #[test]
    fn flat_index_matches_reference((d, seed) in (dims(), any::<u64>())) {
        let shape = Shape::new(&d);
        // Coordinates in and past their bounds, and a wrong-rank index.
        let index: Vec<usize> = d.iter().enumerate()
            .map(|(i, &x)| (seed >> (i * 7)) as usize % (x + 2)).collect();
        prop_assert_eq!(shape.flat_index(&index).ok(), reference::flat_index(&d, &index));
        let short = &index[..index.len().saturating_sub(1)];
        prop_assert_eq!(shape.flat_index(short).ok(), reference::flat_index(&d, short));
    }

    #[test]
    fn eq_and_hash_follow_the_dims((a, b) in (dims(), dims())) {
        let (sa, sb) = (Shape::new(&a), Shape::new(&b));
        prop_assert_eq!(sa == sb, a == b);
        prop_assert_eq!(hash_of(&sa) == hash_of(&sb), hash_of(&a) == hash_of(&b));
    }

    #[test]
    fn shapes_built_by_tensor_ops_read_as_their_dims(
        (d, axis) in (nonzero_dims(), 0usize..MAX_RANK + 1)
    ) {
        let t = Tensor::zeros(&d);
        // Removing an axis (sum_axis, squeeze) and inserting one
        // (unsqueeze) leave no trace beyond the rank.
        if axis < d.len() {
            let mut fewer = d.clone();
            fewer.remove(axis);
            assert_reads_as(t.sum_axis(axis).unwrap().shape(), &fewer);
        }
        if axis <= d.len() && d.len() < MAX_RANK {
            let mut more = d.clone();
            more.insert(axis, 1);
            let u = t.unsqueeze(axis).unwrap();
            assert_reads_as(u.shape(), &more);
            assert_reads_as(u.squeeze(axis).unwrap().shape(), &d);
        }
        if d.len() >= 2 {
            let mut swapped = d.clone();
            swapped.swap(d.len() - 1, d.len() - 2);
            assert_reads_as(t.transpose().unwrap().shape(), &swapped);
        }
    }
}

fn rank_too_high() -> TensorError {
    TensorError::RankTooHigh {
        rank: MAX_RANK + 1,
        max: MAX_RANK,
    }
}

/// `MAX_RANK + 1` unit axes.
const OVER: [usize; MAX_RANK + 1] = [1; MAX_RANK + 1];

#[test]
fn shape_try_new_rejects_rank_above_the_bound() {
    assert_eq!(Shape::try_new(&OVER), Err(rank_too_high()));
}

#[test]
fn from_vec_rejects_rank_above_the_bound() {
    assert_eq!(Tensor::from_vec(vec![1.0], &OVER), Err(rank_too_high()));
}

#[test]
fn reshape_rejects_rank_above_the_bound() {
    assert_eq!(Tensor::ones(&[1]).reshape(&OVER), Err(rank_too_high()));
}

#[test]
fn broadcast_to_rejects_rank_above_the_bound() {
    assert_eq!(Tensor::ones(&[1]).broadcast_to(&OVER), Err(rank_too_high()));
}

#[test]
fn unsqueeze_rejects_rank_above_the_bound() {
    let full = Tensor::ones(&OVER[..MAX_RANK]);
    assert_eq!(full.unsqueeze(0), Err(rank_too_high()));
    assert_eq!(full.unsqueeze(MAX_RANK), Err(rank_too_high()));
}

#[test]
fn stack_rejects_rank_above_the_bound() {
    let full = Tensor::ones(&OVER[..MAX_RANK]);
    assert_eq!(Tensor::stack(&[&full, &full]), Err(rank_too_high()));
}

#[test]
fn rank_error_names_the_bound() {
    assert_eq!(
        rank_too_high().to_string(),
        format!(
            "rank {} exceeds the maximum tensor rank {MAX_RANK}",
            MAX_RANK + 1
        )
    );
}
