//! Property tests for the autodiff tape: numeric gradient checks over
//! randomly-composed op chains, linearity of the backward map, and
//! checkpointing transparency under arbitrary segment contents.

use proptest::prelude::*;
use sf_autograd::{Graph, Var};
use sf_tensor::Tensor;

/// Smooth unary ops that are safe on any input.
#[derive(Debug, Clone, Copy)]
enum UnaryOp {
    Sigmoid,
    Tanh,
    Gelu,
    Scale(i8),
    AddScalar(i8),
    Square,
    Neg,
}

fn arb_unary() -> impl Strategy<Value = UnaryOp> {
    prop_oneof![
        Just(UnaryOp::Sigmoid),
        Just(UnaryOp::Tanh),
        Just(UnaryOp::Gelu),
        (-3i8..4).prop_map(UnaryOp::Scale),
        (-3i8..4).prop_map(UnaryOp::AddScalar),
        Just(UnaryOp::Square),
        Just(UnaryOp::Neg),
    ]
}

fn apply(g: &mut Graph, op: UnaryOp, x: Var) -> Var {
    match op {
        UnaryOp::Sigmoid => g.sigmoid(x).expect("valid var"),
        UnaryOp::Tanh => g.tanh(x).expect("valid var"),
        UnaryOp::Gelu => g.gelu(x).expect("valid var"),
        UnaryOp::Scale(s) => g.scale(x, s as f32 * 0.3 + 0.1).expect("valid var"),
        UnaryOp::AddScalar(s) => g.add_scalar(x, s as f32 * 0.5).expect("valid var"),
        UnaryOp::Square => g.square(x).expect("valid var"),
        UnaryOp::Neg => g.neg(x).expect("valid var"),
    }
}

/// Loss of the chain applied to `input`: sum of the final tensor.
fn chain_loss(input: &Tensor, ops: &[UnaryOp]) -> (f32, Tensor) {
    let mut g = Graph::new();
    let x = g.param(input.clone());
    let mut h = x;
    for &op in ops {
        h = apply(&mut g, op, h);
    }
    let loss = g.sum_all(h).expect("scalar");
    let value = g.value(loss).item();
    g.backward(loss).expect("backward");
    (
        value,
        g.grad(x)
            .cloned()
            .unwrap_or_else(|| Tensor::zeros(input.dims())),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Analytic gradients of arbitrary unary chains match central
    /// differences.
    #[test]
    fn random_chain_gradcheck(
        ops in proptest::collection::vec(arb_unary(), 1..6),
        seed in any::<u64>(),
    ) {
        let input = Tensor::randn(&[5], seed).mul_scalar(0.8);
        let (_, grad) = chain_loss(&input, &ops);
        let eps = 1e-2f32;
        for i in 0..input.len() {
            let mut plus = input.clone();
            plus.data_mut()[i] += eps;
            let mut minus = input.clone();
            minus.data_mut()[i] -= eps;
            let numeric = (chain_loss(&plus, &ops).0 - chain_loss(&minus, &ops).0) / (2.0 * eps);
            let analytic = grad.data()[i];
            prop_assert!(
                (numeric - analytic).abs() <= 5e-2 * (1.0 + numeric.abs().max(analytic.abs())),
                "elem {i}: numeric {numeric} vs analytic {analytic} (ops {ops:?})"
            );
        }
    }

    /// Backward is linear: grad of (a·f + b·f) equals (a+b)·grad f.
    #[test]
    fn backward_linearity(a in -3.0f32..3.0, b in -3.0f32..3.0, seed in any::<u64>()) {
        let input = Tensor::randn(&[4], seed);
        let run = |ca: f32, cb: f32| -> Tensor {
            let mut g = Graph::new();
            let x = g.param(input.clone());
            let f = g.gelu(x).expect("var");
            let fa = g.scale(f, ca).expect("var");
            let fb = g.scale(f, cb).expect("var");
            let s = g.add(fa, fb).expect("var");
            let loss = g.sum_all(s).expect("scalar");
            g.backward(loss).expect("bwd");
            g.grad(x).expect("grad").clone()
        };
        let combined = run(a, b);
        let base = run(1.0, 0.0);
        let expect = base.mul_scalar(a + b);
        prop_assert!(combined.allclose(&expect, 1e-4));
    }

    /// Checkpointing any unary chain is gradient-transparent.
    #[test]
    fn checkpoint_transparent_for_random_chains(
        ops in proptest::collection::vec(arb_unary(), 1..5),
        seed in any::<u64>(),
    ) {
        let input = Tensor::randn(&[3, 3], seed).mul_scalar(0.5);

        let mut direct = Graph::new();
        let xd = direct.param(input.clone());
        let mut h = xd;
        for &op in &ops {
            h = apply(&mut direct, op, h);
        }
        let ld = direct.sum_all(h).expect("scalar");
        direct.backward(ld).expect("bwd");

        let mut ck = Graph::new();
        let xc = ck.param(input);
        let ops2 = ops.clone();
        let out = ck
            .checkpoint(&[xc], move |sub, ins| {
                let mut h = ins[0];
                for &op in &ops2 {
                    h = apply(sub, op, h);
                }
                Ok(h)
            })
            .expect("checkpoint");
        let lc = ck.sum_all(out).expect("scalar");
        ck.backward(lc).expect("bwd");

        prop_assert!(direct
            .grad(xd)
            .expect("grad")
            .allclose(ck.grad(xc).expect("grad"), 1e-4));
        // Values agree too.
        prop_assert!((direct.value(ld).item() - ck.value(lc).item()).abs() < 1e-4);
    }

    /// zero_grads really clears; re-running backward restores identical
    /// gradients (determinism of the tape).
    #[test]
    fn backward_is_deterministic(seed in any::<u64>()) {
        let input = Tensor::randn(&[6], seed);
        let mut g = Graph::new();
        let x = g.param(input);
        let y = g.gelu(x).expect("var");
        let loss = g.sum_all(y).expect("scalar");
        g.backward(loss).expect("bwd");
        let first = g.grad(x).expect("grad").clone();
        g.zero_grads();
        prop_assert!(g.grad(x).is_none());
        g.backward(loss).expect("bwd");
        prop_assert_eq!(g.grad(x).expect("grad"), &first);
    }
}

/// Checkpoint-robustness properties: arbitrary corruption must surface as
/// a typed `CheckpointError` — never a panic — and directory recovery must
/// step over it.
mod checkpoint_corruption {
    use super::*;
    use proptest::collection::vec;
    use sf_autograd::ParamStore;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// A store with 1–4 parameters of arbitrary small payloads.
    fn arb_store() -> impl Strategy<Value = ParamStore> {
        vec(vec(-1000i32..1000, 1..12), 1..5).prop_map(|tensors| {
            let mut s = ParamStore::new();
            for (i, ints) in tensors.into_iter().enumerate() {
                let data: Vec<f32> = ints.into_iter().map(|x| x as f32 * 0.125).collect();
                let n = data.len();
                s.insert(
                    format!("p{i}"),
                    Tensor::from_vec(data, &[n]).expect("shape"),
                );
            }
            s
        })
    }

    fn unique_dir(tag: &str) -> std::path::PathBuf {
        static COUNTER: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "sf_ckpt_prop_{tag}_{}_{}",
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Flipping any single bit past the header yields a typed error,
        /// never a panic and never a silently-wrong load.
        #[test]
        fn bit_flips_are_detected(
            store in arb_store(),
            pos in any::<u64>(),
            bit in 0u8..8,
        ) {
            let mut bytes = Vec::new();
            store.save_to(&mut bytes).expect("serialize");
            // Skip the 16-byte header: count/version flips can legally
            // decode as a shorter file; everything after it is CRC-covered.
            let idx = 16 + (pos as usize) % (bytes.len() - 16);
            bytes[idx] ^= 1 << bit;
            let result = ParamStore::load_from(bytes.as_slice());
            prop_assert!(
                result.is_err(),
                "flip at byte {idx} bit {bit} went undetected"
            );
        }

        /// Truncation at any point yields a typed error, never a panic.
        #[test]
        fn truncation_is_detected(store in arb_store(), cut in any::<u64>()) {
            let mut bytes = Vec::new();
            store.save_to(&mut bytes).expect("serialize");
            let keep = (cut as usize) % bytes.len();
            bytes.truncate(keep);
            prop_assert!(ParamStore::load_from(bytes.as_slice()).is_err());
        }

        /// Directory recovery always lands on the older valid file when
        /// the newest is corrupted at an arbitrary position.
        #[test]
        fn latest_valid_skips_arbitrary_corruption(
            store in arb_store(),
            pos in any::<u64>(),
            bit in 0u8..8,
        ) {
            let dir = unique_dir("skip");
            store.save_file(dir.join("ckpt-000005.sfck")).expect("save old");
            let newest = dir.join("ckpt-000009.sfck");
            store.save_file(&newest).expect("save new");
            let mut bytes = std::fs::read(&newest).expect("read");
            let idx = 16 + (pos as usize) % (bytes.len() - 16);
            bytes[idx] ^= 1 << bit;
            std::fs::write(&newest, bytes).expect("rewrite");

            let latest = ParamStore::load_latest_valid(&dir)
                .expect("scan must not error while a valid file exists")
                .expect("found");
            prop_assert_eq!(latest.step, Some(5));
            prop_assert_eq!(latest.skipped.len(), 1);
            for (name, t) in store.iter() {
                prop_assert_eq!(latest.store.get(name).expect("present"), t);
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}
