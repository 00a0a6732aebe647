//! Parameter storage shared across training steps, addressed by slot.
//!
//! The tape is rebuilt every step, but parameters persist. A [`ParamStore`]
//! owns the master `f32` copies. Each parameter gets a **slot** — a dense
//! index assigned once, when the name is first inserted — so the training
//! step resolves a name once per binding and then carries parameters,
//! gradients and optimizer state as slot vectors.
//! [`Graph::use_param_or_init`] binds a parameter into the current tape;
//! [`Graph::take_param_grads`] moves the summed gradients off the tape into
//! a slot vector, and [`Graph::grads_by_name`] is the same sum keyed by
//! name (multiple uses of the same parameter — e.g. AlphaFold recycling
//! iterations — accumulate in binding order either way).

use crate::graph::{Graph, Var};
use crate::{AutogradError, Result};
use sf_tensor::{Tensor, TensorError};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// Gradients indexed by [`ParamStore`] slot: `None` where no gradient
/// reached the parameter.
pub type SlotGrads = Vec<Option<Tensor>>;

/// Master storage of named trainable parameters.
///
/// Values live in a `Vec` indexed by slot (creation order). A hash index
/// resolves a name to its slot, and `sorted` lists the slots in name order,
/// which every order-sensitive reduction (norms, the gradient all-reduce,
/// checkpoints) follows so that training stays bitwise reproducible.
#[derive(Debug, Clone, Default)]
pub struct ParamStore {
    values: Vec<Tensor>,
    /// Name of each slot, shared with tape bindings and optimizer state.
    names: Vec<Arc<str>>,
    index: HashMap<Arc<str>, usize>,
    /// Slots in name order.
    sorted: Vec<usize>,
}

impl ParamStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        ParamStore::default()
    }

    /// The slot of `name`, if present.
    pub fn slot(&self, name: &str) -> Option<usize> {
        self.index.get(name).copied()
    }

    /// The slot of `name`, inserting `init()` under a new slot on first
    /// access. A hit allocates nothing.
    pub fn slot_or_init(&mut self, name: &str, init: impl FnOnce() -> Tensor) -> usize {
        match self.slot(name) {
            Some(slot) => slot,
            None => self.push(Arc::from(name), init()),
        }
    }

    fn push(&mut self, name: Arc<str>, value: Tensor) -> usize {
        let slot = self.values.len();
        let pos = self.sorted.partition_point(|&s| self.names[s] < name);
        self.sorted.insert(pos, slot);
        self.index.insert(Arc::clone(&name), slot);
        self.names.push(name);
        self.values.push(value);
        slot
    }

    /// Looks up an existing parameter.
    pub fn get(&self, name: &str) -> Option<&Tensor> {
        self.slot(name).map(|s| &self.values[s])
    }

    /// Mutable access to an existing parameter (used by optimizers).
    pub fn get_mut(&mut self, name: &str) -> Option<&mut Tensor> {
        self.slot(name).map(|s| &mut self.values[s])
    }

    /// Overwrites (keeping its slot) or inserts a parameter tensor.
    pub fn insert(&mut self, name: impl Into<String>, value: Tensor) {
        let name = name.into();
        match self.slot(&name) {
            Some(slot) => self.values[slot] = value,
            None => {
                self.push(Arc::from(name), value);
            }
        }
    }

    /// The parameter in `slot`.
    ///
    /// # Panics
    ///
    /// Panics if `slot >= self.len()`.
    pub fn value(&self, slot: usize) -> &Tensor {
        &self.values[slot]
    }

    /// Mutable access to the parameter in `slot`.
    ///
    /// # Panics
    ///
    /// Panics if `slot >= self.len()`.
    pub fn value_mut(&mut self, slot: usize) -> &mut Tensor {
        &mut self.values[slot]
    }

    /// The name of `slot`, shared: clones of the store, tape bindings and
    /// optimizer state hold the same allocation, so two names can be
    /// compared by pointer first.
    ///
    /// # Panics
    ///
    /// Panics if `slot >= self.len()`.
    pub fn name(&self, slot: usize) -> &Arc<str> {
        &self.names[slot]
    }

    /// Slots in name order.
    pub fn sorted_slots(&self) -> &[usize] {
        &self.sorted
    }

    /// Number of parameters (tensors, not scalars).
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True if no parameters are registered.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Total scalar element count across all parameters.
    pub fn num_elements(&self) -> usize {
        self.values.iter().map(Tensor::len).sum()
    }

    /// Iterates `(name, tensor)` pairs in deterministic (sorted) order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Tensor)> {
        self.sorted
            .iter()
            .map(|&s| (&*self.names[s], &self.values[s]))
    }

    /// Sorted parameter names.
    pub fn names(&self) -> Vec<String> {
        self.iter().map(|(name, _)| name.to_string()).collect()
    }

    /// Global L2 norm over all parameters (diagnostic).
    pub fn global_norm(&self) -> f32 {
        self.iter()
            .map(|(_, t)| {
                let n = t.norm() as f64;
                n * n
            })
            .sum::<f64>()
            .sqrt() as f32
    }
}

/// One parameter bound into a tape: its store slot and name, and its leaf.
pub(crate) struct Binding {
    slot: usize,
    name: Arc<str>,
    var: Var,
}

/// Adds `g` into `acc`: the rule by which a parameter bound more than once
/// sums its gradients, in binding order.
fn accumulate(acc: &mut Tensor, g: &Tensor) -> Result<()> {
    if acc.dims() != g.dims() {
        return Err(AutogradError::Tensor(TensorError::ShapeMismatch {
            op: "parameter gradient sum",
            lhs: acc.dims().to_vec(),
            rhs: g.dims().to_vec(),
        }));
    }
    for (a, &b) in acc.data_mut().iter_mut().zip(g.data()) {
        *a += b;
    }
    Ok(())
}

impl Graph {
    /// Binds the parameter `name` into this tape as a trainable leaf,
    /// creating it with `init` on first use, and records its slot so
    /// gradients can be read back. Binding an existing name allocates
    /// nothing beyond the leaf's copy of the tensor (and the tape's
    /// amortized growth).
    pub fn use_param_or_init(
        &mut self,
        store: &mut ParamStore,
        name: &str,
        init: impl FnOnce() -> Tensor,
    ) -> Var {
        let slot = store.slot_or_init(name, init);
        let var = self.param(store.value(slot).clone());
        let name = Arc::clone(store.name(slot));
        self.bindings.push(Binding { slot, name, var });
        var
    }

    /// Moves the gradients of the parameters bound from `store` off the
    /// tape into a slot vector of `store.len()` entries, without copying.
    /// A parameter bound more than once sums its gradients in binding
    /// order; a parameter no gradient reached stays `None`. Afterwards the
    /// bound leaves read no gradient ([`Graph::grad`] returns `None`).
    ///
    /// # Errors
    ///
    /// Returns [`AutogradError::UnknownParam`] if a parameter was bound
    /// from a store whose slots differ from `store`'s, or an error if
    /// gradient shapes for the same parameter disagree.
    pub fn take_param_grads(&mut self, store: &ParamStore) -> Result<SlotGrads> {
        let mut out: SlotGrads = vec![None; store.len()];
        for b in &self.bindings {
            let same = b.slot < store.len() && {
                let name = store.name(b.slot);
                Arc::ptr_eq(&b.name, name) || b.name == *name
            };
            if !same {
                return Err(AutogradError::UnknownParam(b.name.to_string()));
            }
            let Some(g) = self.grads[b.var.0].take() else {
                continue;
            };
            match &mut out[b.slot] {
                Some(acc) => accumulate(acc, &g)?,
                empty => *empty = Some(g),
            }
        }
        Ok(out)
    }

    /// Gradients summed per bound parameter name, as
    /// [`Graph::take_param_grads`] sums them, but copied and keyed by name.
    ///
    /// # Errors
    ///
    /// Returns an error only if gradient shapes for the same name disagree
    /// (which would indicate tape corruption).
    pub fn grads_by_name(&self) -> Result<BTreeMap<String, Tensor>> {
        let mut out: BTreeMap<String, Tensor> = BTreeMap::new();
        for b in &self.bindings {
            let Some(g) = self.grad(b.var) else { continue };
            match out.get_mut(&*b.name) {
                Some(acc) => accumulate(acc, g)?,
                None => {
                    out.insert(b.name.to_string(), g.clone());
                }
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The init of a parameter the test has already inserted.
    fn absent() -> Tensor {
        panic!("the parameter exists; init must not run")
    }

    #[test]
    fn store_init_and_lookup() {
        let mut store = ParamStore::new();
        let slot = store.slot_or_init("w", || Tensor::ones(&[2, 2]));
        assert_eq!(store.value(slot).sum_all(), 4.0);
        // Second init closure must not run.
        let again = store.slot_or_init("w", || panic!("should not init twice"));
        assert_eq!(again, slot);
        assert_eq!(store.len(), 1);
        assert_eq!(store.num_elements(), 4);
    }

    #[test]
    fn grads_by_name_single_use() {
        let mut store = ParamStore::new();
        store.insert("w", Tensor::from_vec(vec![3.0], &[1]).unwrap());
        let mut g = Graph::new();
        let w = g.use_param_or_init(&mut store, "w", absent);
        let y = g.square(w).unwrap();
        let loss = g.sum_all(y).unwrap();
        g.backward(loss).unwrap();
        let grads = g.grads_by_name().unwrap();
        assert_eq!(grads["w"].data(), &[6.0]);
    }

    #[test]
    fn shared_weight_grads_accumulate() {
        // loss = w*x1 + w*x2 -> dL/dw = x1 + x2 via two separate bindings.
        let mut store = ParamStore::new();
        store.insert("w", Tensor::from_vec(vec![1.0], &[1]).unwrap());
        let mut g = Graph::new();
        let w1 = g.use_param_or_init(&mut store, "w", absent);
        let w2 = g.use_param_or_init(&mut store, "w", absent);
        let x1 = g.constant(Tensor::from_vec(vec![2.0], &[1]).unwrap());
        let x2 = g.constant(Tensor::from_vec(vec![5.0], &[1]).unwrap());
        let t1 = g.mul(w1, x1).unwrap();
        let t2 = g.mul(w2, x2).unwrap();
        let s = g.add(t1, t2).unwrap();
        let loss = g.sum_all(s).unwrap();
        g.backward(loss).unwrap();
        let grads = g.grads_by_name().unwrap();
        assert_eq!(grads["w"].data(), &[7.0]);
    }

    #[test]
    fn global_norm() {
        let mut store = ParamStore::new();
        store.insert("a", Tensor::from_vec(vec![3.0], &[1]).unwrap());
        store.insert("b", Tensor::from_vec(vec![4.0], &[1]).unwrap());
        assert!((store.global_norm() - 5.0).abs() < 1e-6);
    }
}
