//! The fused Adam + SWA kernel (§3.3.1 "Adam and SWA Optimization").
//!
//! The paper's kernel: pack all parameter / gradient / optimizer-state
//! pointers into one buffer, hand it to a single CUDA kernel whose thread
//! blocks each own a contiguous element range, keep the intermediate values
//! between the Adam math and the SWA math in registers, and write each
//! output once. This module reproduces the algorithm on the CPU. The
//! optimizer state (both Adam moments and the SWA average) lives in three
//! flat buffers, every parameter's elements back to back at a per-slot
//! offset (`sf_autograd::ParamStore` slots); parameters and gradients
//! arrive as slot vectors. One step is one pass over the slots in order,
//! each slot's elements updated in one loop with the Adam intermediates in
//! locals ("registers") and SWA folded in — no name is looked up. Tests
//! prove it numerically identical to running [`crate::Adam`] followed by
//! [`crate::Swa`], and the name-keyed [`FusedAdamSwa::step`] bitwise
//! identical to the slot path.

use crate::adam::AdamConfig;
use crate::Grads;
use sf_autograd::ParamStore;
use sf_tensor::Tensor;
use std::sync::Arc;

/// Fused Adam + SWA optimizer: single pass per step over all elements.
#[derive(Debug, Clone)]
pub struct FusedAdamSwa {
    cfg: AdamConfig,
    swa_decay: f32,
    /// The store name of each slot the state covers.
    names: Vec<Arc<str>>,
    /// The parameter dims of each slot.
    dims: Vec<Vec<usize>>,
    /// Slot `s` owns elements `offsets[s]..offsets[s + 1]` of the buffers.
    offsets: Vec<usize>,
    /// Whether slot `s`'s SWA average holds a value yet (its first step
    /// copies the parameter instead of folding).
    seeded: Vec<bool>,
    /// Adam first moments, all slots packed.
    m: Vec<f32>,
    /// Adam second moments, all slots packed.
    v: Vec<f32>,
    /// SWA averages, all slots packed.
    avg: Vec<f32>,
    step: u64,
}

impl FusedAdamSwa {
    /// Creates the fused optimizer.
    ///
    /// # Panics
    ///
    /// Panics if `swa_decay` is outside `(0, 1)`.
    pub fn new(cfg: AdamConfig, swa_decay: f32) -> Self {
        assert!(
            swa_decay > 0.0 && swa_decay < 1.0,
            "SWA decay must be in (0, 1), got {swa_decay}"
        );
        FusedAdamSwa {
            cfg,
            swa_decay,
            names: Vec::new(),
            dims: Vec::new(),
            offsets: vec![0],
            seeded: Vec::new(),
            m: Vec::new(),
            v: Vec::new(),
            avg: Vec::new(),
            step: 0,
        }
    }

    /// Steps taken so far.
    pub fn step_count(&self) -> u64 {
        self.step
    }

    /// One fused update from gradients keyed by name: resolves each name to
    /// its slot once, then runs [`FusedAdamSwa::step_slots`]'s pass.
    /// Gradients whose name is not in `store` are ignored.
    ///
    /// # Panics
    ///
    /// Panics if a gradient's dims differ from its parameter's.
    pub fn step(&mut self, store: &mut ParamStore, grads: &Grads, lr: f32) {
        let mut by_slot: Vec<Option<&Tensor>> = vec![None; store.len()];
        for (name, grad) in grads {
            if let Some(slot) = store.slot(name) {
                by_slot[slot] = Some(grad);
            }
        }
        self.update(store, lr, |slot| by_slot[slot]);
    }

    /// One fused update from a slot vector (`grads[s]` is slot `s`'s
    /// gradient, `None` or absent for a parameter without one): for every
    /// element, Adam moments, bias-corrected update, parameter write, and
    /// SWA fold happen in a single loop iteration with intermediates in
    /// locals. Parameters without a gradient still fold into SWA.
    ///
    /// # Panics
    ///
    /// Panics if a gradient's dims differ from its parameter's.
    pub fn step_slots(&mut self, store: &mut ParamStore, grads: &[Option<Tensor>], lr: f32) {
        self.update(store, lr, |slot| grads.get(slot).and_then(Option::as_ref));
    }

    fn update<'g>(
        &mut self,
        store: &mut ParamStore,
        lr: f32,
        grad_of: impl Fn(usize) -> Option<&'g Tensor>,
    ) {
        self.sync(store);
        self.step += 1;
        let t = self.step as i32;
        let bc1 = 1.0 - self.cfg.beta1.powi(t);
        let bc2 = 1.0 - self.cfg.beta2.powi(t);
        let (b1, b2, eps) = (self.cfg.beta1, self.cfg.beta2, self.cfg.eps);
        let decay = self.swa_decay;
        for slot in 0..store.len() {
            let span = self.offsets[slot]..self.offsets[slot + 1];
            let (m, v) = (&mut self.m[span.clone()], &mut self.v[span.clone()]);
            let avg = &mut self.avg[span];
            let first_touch = !self.seeded[slot];
            let param = store.value_mut(slot);
            let Some(grad) = grad_of(slot) else {
                // No gradient this step: the parameter did not move, but
                // the average must still track it.
                for (a, &p) in avg.iter_mut().zip(param.data()) {
                    *a = if first_touch {
                        p
                    } else {
                        decay * *a + (1.0 - decay) * p
                    };
                }
                continue;
            };
            assert_eq!(
                grad.dims(),
                param.dims(),
                "gradient of parameter {:?} has the wrong shape",
                &*self.names[slot]
            );
            // The single fused pass. On the GPU this is one kernel whose
            // blocks each own a contiguous sub-range; here, one zipped loop
            // with every intermediate in registers.
            let iter = param
                .data_mut()
                .iter_mut()
                .zip(grad.data())
                .zip(m.iter_mut().zip(v.iter_mut()))
                .zip(avg.iter_mut());
            for (((p, &g), (mi, vi)), a) in iter {
                *mi = b1 * *mi + (1.0 - b1) * g;
                *vi = b2 * *vi + (1.0 - b2) * g * g;
                let update = lr * (*mi / bc1) / ((*vi / bc2).sqrt() + eps);
                let p_new = *p - update;
                *p = p_new;
                // SWA folded in the same pass; first touch copies (matching
                // the standalone Swa semantics).
                *a = if first_touch {
                    p_new
                } else {
                    decay * *a + (1.0 - decay) * p_new
                };
            }
        }
        self.seeded.fill(true);
    }

    /// Lines the state up with `store`'s slots: appends zeroed, unseeded
    /// state for slots created since the last step, and re-keys by name if
    /// the store was replaced (e.g. by a checkpoint load, which assigns
    /// slots in file order). The common case compares one pointer and one
    /// length per slot.
    fn sync(&mut self, store: &ParamStore) {
        let mut same = self.names.len() <= store.len();
        for slot in 0..self.names.len().min(store.len()) {
            let name = store.name(slot);
            if !Arc::ptr_eq(&self.names[slot], name) {
                if self.names[slot] != *name {
                    same = false;
                    break;
                }
                self.names[slot] = Arc::clone(name);
            }
            same &= self.dims[slot] == store.value(slot).dims();
        }
        if !same {
            self.rekey(store);
        }
        for slot in self.names.len()..store.len() {
            let param = store.value(slot);
            self.names.push(Arc::clone(store.name(slot)));
            self.dims.push(param.dims().to_vec());
            self.seeded.push(false);
            self.offsets.push(self.offsets[slot] + param.len());
        }
        let end = self.offsets[store.len()];
        for buf in [&mut self.m, &mut self.v, &mut self.avg] {
            buf.resize(end, 0.0);
        }
    }

    /// Rebuilds the state in `store`'s slot order, carrying each name's
    /// state over when its dims still match. State of names `store` lacks
    /// is dropped.
    fn rekey(&mut self, store: &ParamStore) {
        let old = std::mem::replace(self, FusedAdamSwa::new(self.cfg, self.swa_decay));
        self.step = old.step;
        self.sync(store);
        for (slot, name) in old.names.iter().enumerate() {
            let Some(new) = store.slot(name).filter(|&s| self.dims[s] == old.dims[slot]) else {
                continue;
            };
            let (from, to) = (old.offsets[slot]..old.offsets[slot + 1], self.offsets[new]);
            self.m[to..to + from.len()].copy_from_slice(&old.m[from.clone()]);
            self.v[to..to + from.len()].copy_from_slice(&old.v[from.clone()]);
            self.avg[to..to + from.len()].copy_from_slice(&old.avg[from]);
            self.seeded[new] = old.seeded[slot];
        }
    }

    /// Slot `slot`'s SWA average as a tensor.
    fn average(&self, slot: usize) -> Tensor {
        let data = self.avg[self.offsets[slot]..self.offsets[slot + 1]].to_vec();
        Tensor::from_vec(data, &self.dims[slot]).expect("offsets follow the dims")
    }

    /// The SWA-averaged value of one parameter.
    pub fn averaged(&self, name: &str) -> Option<Tensor> {
        let slot = self.names.iter().position(|n| **n == *name)?;
        Some(self.average(slot))
    }

    /// Materializes the averaged weights (what evaluation runs on).
    pub fn swa_store(&self) -> ParamStore {
        let mut s = ParamStore::new();
        for (slot, name) in self.names.iter().enumerate() {
            s.insert(name.to_string(), self.average(slot));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Adam, Swa};

    fn random_grads(store: &ParamStore, seed: u64) -> Grads {
        let mut g = Grads::new();
        for (i, (name, p)) in store.iter().enumerate() {
            g.insert(
                name.to_string(),
                Tensor::randn(p.dims(), seed.wrapping_add(i as u64)),
            );
        }
        g
    }

    #[test]
    fn fused_matches_unfused_over_many_steps() {
        let mut fused_store = ParamStore::new();
        fused_store.insert("w1", Tensor::randn(&[4, 3], 1));
        fused_store.insert("w2", Tensor::randn(&[7], 2));
        fused_store.insert("b", Tensor::zeros(&[3]));
        let mut plain_store = fused_store.clone();

        let cfg = AdamConfig::default();
        let mut fused = FusedAdamSwa::new(cfg, 0.99);
        let mut adam = Adam::new(cfg);
        let mut swa = Swa::new(0.99);

        for step in 0..50u64 {
            let grads = random_grads(&fused_store, 1000 + step);
            fused.step(&mut fused_store, &grads, 0.01);
            adam.step(&mut plain_store, &grads, 0.01);
            swa.update(&plain_store);
        }
        for (name, p) in plain_store.iter() {
            assert!(
                fused_store.get(name).unwrap().allclose(p, 1e-5),
                "param {name} diverged"
            );
            assert!(
                fused
                    .averaged(name)
                    .unwrap()
                    .allclose(swa.averaged(name).unwrap(), 1e-5),
                "SWA average {name} diverged"
            );
        }
    }

    #[test]
    fn fused_minimizes_quadratic() {
        let mut store = ParamStore::new();
        store.insert("x", Tensor::from_vec(vec![-4.0], &[1]).unwrap());
        let mut opt = FusedAdamSwa::new(AdamConfig::default(), 0.9);
        for _ in 0..3000 {
            let x = store.get("x").unwrap().data()[0];
            let mut grads = Grads::new();
            grads.insert(
                "x".into(),
                Tensor::from_vec(vec![2.0 * (x - 1.0)], &[1]).unwrap(),
            );
            opt.step(&mut store, &grads, 0.01);
        }
        let x = store.get("x").unwrap().data()[0];
        assert!((x - 1.0).abs() < 0.05, "x = {x}");
        // SWA average trails the converged value.
        let avg = opt.averaged("x").unwrap().data()[0];
        assert!((avg - 1.0).abs() < 0.2, "avg = {avg}");
    }

    #[test]
    fn params_without_grads_still_average() {
        let mut store = ParamStore::new();
        store.insert("frozen", Tensor::from_vec(vec![2.0], &[1]).unwrap());
        let mut opt = FusedAdamSwa::new(AdamConfig::default(), 0.5);
        opt.step(&mut store, &Grads::new(), 0.1);
        assert_eq!(opt.averaged("frozen").unwrap().data(), &[2.0]);
        assert_eq!(store.get("frozen").unwrap().data(), &[2.0]);
    }

    #[test]
    #[should_panic(expected = "wrong shape")]
    fn gradient_dims_must_match_the_parameter() {
        let mut store = ParamStore::new();
        store.insert("w", Tensor::ones(&[2, 3]));
        let mut grads = Grads::new();
        // Same element count, other shape: a silent zip would accept it.
        grads.insert("w".into(), Tensor::ones(&[3, 2]));
        FusedAdamSwa::new(AdamConfig::default(), 0.9).step(&mut store, &grads, 0.01);
    }

    #[test]
    fn swa_store_contains_all_params() {
        let mut store = ParamStore::new();
        store.insert("a", Tensor::ones(&[2]));
        let mut opt = FusedAdamSwa::new(AdamConfig::default(), 0.9);
        let grads = random_grads(&store, 7);
        opt.step(&mut store, &grads, 0.01);
        let s = opt.swa_store();
        assert_eq!(s.len(), 1);
        assert!(s.get("a").is_some());
    }
}
