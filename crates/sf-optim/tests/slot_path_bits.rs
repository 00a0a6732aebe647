//! Pins the slot-keyed training-step path bit for bit to the name-keyed
//! one: `Graph::take_param_grads` against `Graph::grads_by_name`,
//! `clip_slots_by_global_norm` against `clip_by_global_norm`, and
//! `FusedAdamSwa::step_slots` against `FusedAdamSwa::step`, over several
//! steps. The store creates its slots out of name order, binds one
//! parameter three times and one not at all, and gains a parameter after the
//! first step (so SWA's first touch happens on two different steps).

use sf_autograd::{Graph, ParamStore, Result, SlotGrads};
use sf_optim::{clip_by_global_norm, clip_slots_by_global_norm, AdamConfig, FusedAdamSwa, Grads};
use sf_tensor::Tensor;

/// A small clip threshold, so every step scales the gradients.
const MAX_NORM: f32 = 0.05;

/// Parameters in creation order (not name order).
fn store() -> ParamStore {
    let mut store = ParamStore::new();
    store.insert("d.weight", Tensor::randn(&[2, 2], 4));
    store.insert("b.bias", Tensor::randn(&[4], 2));
    store.insert("a.weight", Tensor::randn(&[2, 4], 1));
    store.insert("c.unused", Tensor::randn(&[3], 3));
    store
}

/// One forward and backward: `a` is bound three times (so the order its
/// gradients sum in shows in the bits), `c` never, and `e` is created on
/// first use at `step >= 1`.
fn backward(store: &mut ParamStore, step: u64) -> Result<Graph> {
    let mut g = Graph::new();
    let x = g.constant(Tensor::randn(&[3, 2], 100 + step));
    let absent = || -> Tensor { panic!("`store` holds a, b and d") };
    let a1 = g.use_param_or_init(store, "a.weight", absent);
    let a2 = g.use_param_or_init(store, "a.weight", absent);
    let a3 = g.use_param_or_init(store, "a.weight", absent);
    let b = g.use_param_or_init(store, "b.bias", absent);
    let d = g.use_param_or_init(store, "d.weight", absent);
    let xd = g.matmul(x, d)?;
    let h = g.matmul(xd, a1)?;
    let h = g.add(h, b)?;
    let h = g.square(h)?;
    let s = g.matmul(xd, a2)?;
    let t = g.matmul(x, a3)?;
    let t = g.tanh(t)?;
    let mut loss = g.add(h, s)?;
    loss = g.add(loss, t)?;
    if step >= 1 {
        let e = g.use_param_or_init(store, "e.late", || Tensor::randn(&[4], 5));
        loss = g.mul(loss, e)?;
    }
    let loss = g.sum_all(loss)?;
    g.backward(loss)?;
    Ok(g)
}

fn assert_bits(what: &str, a: &Tensor, b: &Tensor) {
    assert_eq!(a.dims(), b.dims(), "{what}: dims");
    let bits = |t: &Tensor| t.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(a), bits(b), "{what}: bits");
}

#[test]
fn slot_path_is_bitwise_the_name_path() {
    let (mut by_name, mut by_slot) = (store(), store());
    let cfg = AdamConfig::default();
    let (mut opt_name, mut opt_slot) = (FusedAdamSwa::new(cfg, 0.9), FusedAdamSwa::new(cfg, 0.9));
    for step in 0..4 {
        let lr = 0.01 * (step + 1) as f32;
        let mut named: Grads = backward(&mut by_name, step)
            .unwrap()
            .grads_by_name()
            .unwrap();
        let mut g = backward(&mut by_slot, step).unwrap();
        let copied = g.grads_by_name().unwrap();
        let mut slots: SlotGrads = g.take_param_grads(&by_slot).unwrap();
        assert_eq!(slots.len(), by_slot.len());
        assert!(
            g.grads_by_name().unwrap().is_empty(),
            "taking moves the gradients off the tape"
        );
        let c = by_slot.slot("c.unused").unwrap();
        assert!(slots[c].is_none(), "an unbound parameter has no gradient");
        assert_eq!(named.len(), slots.iter().flatten().count());
        for (name, grad) in &named {
            let slot = by_slot.slot(name).unwrap();
            let taken = slots[slot].as_ref().unwrap();
            assert_bits(&format!("step {step} grad {name}"), grad, taken);
            assert_bits(
                &format!("step {step} copied grad {name}"),
                &copied[name],
                taken,
            );
        }

        let norm_name = clip_by_global_norm(&mut named, MAX_NORM);
        let norm_slot = clip_slots_by_global_norm(&mut slots, by_slot.sorted_slots(), MAX_NORM);
        assert_eq!(norm_name.to_bits(), norm_slot.to_bits(), "step {step} norm");
        assert!(norm_name > MAX_NORM, "the clip scales");

        opt_name.step(&mut by_name, &named, lr);
        opt_slot.step_slots(&mut by_slot, &slots, lr);
        assert_eq!(by_name.names(), by_slot.names());
        for (name, p) in by_name.iter() {
            assert_bits(
                &format!("step {step} param {name}"),
                p,
                by_slot.get(name).unwrap(),
            );
            let (a, b) = (
                opt_name.averaged(name).unwrap(),
                opt_slot.averaged(name).unwrap(),
            );
            assert_bits(&format!("step {step} SWA {name}"), &a, &b);
        }
    }
    // First touch copies: an unbound parameter's average is its value.
    assert_bits(
        "c average",
        &opt_slot.averaged("c.unused").unwrap(),
        by_slot.get("c.unused").unwrap(),
    );
}

#[test]
fn replacing_the_store_carries_state_by_name() {
    let cfg = AdamConfig::default();
    let mut steady = store();
    let mut opt_steady = FusedAdamSwa::new(cfg, 0.9);
    let mut swapped = store();
    let mut opt_swapped = FusedAdamSwa::new(cfg, 0.9);
    for step in 0..4 {
        if step == 2 {
            // A reloaded store assigns slots in another order (name order,
            // as a checkpoint load does).
            let mut reloaded = ParamStore::new();
            for (name, t) in swapped.iter() {
                reloaded.insert(name, t.clone());
            }
            assert_ne!(reloaded.slot("a.weight"), swapped.slot("a.weight"));
            swapped = reloaded;
        }
        for (store, opt) in [
            (&mut steady, &mut opt_steady),
            (&mut swapped, &mut opt_swapped),
        ] {
            let mut g = backward(store, step).unwrap();
            let grads = g.take_param_grads(store).unwrap();
            opt.step_slots(store, &grads, 0.01);
        }
    }
    for (name, p) in steady.iter() {
        assert_bits(&format!("param {name}"), p, swapped.get(name).unwrap());
        let (a, b) = (
            opt_steady.averaged(name).unwrap(),
            opt_swapped.averaged(name).unwrap(),
        );
        assert_bits(&format!("SWA {name}"), &a, &b);
    }
}

#[test]
fn take_param_grads_rejects_another_store() {
    let mut store = store();
    let mut g = backward(&mut store, 0).unwrap();
    let mut other = ParamStore::new();
    for (name, t) in store.iter() {
        other.insert(name, t.clone());
    }
    assert!(g.take_param_grads(&other).is_err());
}
