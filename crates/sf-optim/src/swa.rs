//! Stochastic weight averaging (exponential moving average of parameters),
//! used by the OpenFold/MLPerf training recipe to stabilize convergence —
//! evaluation runs on the averaged weights.

use sf_autograd::ParamStore;
use sf_tensor::Tensor;
use std::collections::BTreeMap;

/// EMA-based stochastic weight averaging (the unfused baseline: one pass per
/// parameter tensor, on top of Adam's passes).
#[derive(Debug, Clone)]
pub struct Swa {
    decay: f32,
    average: BTreeMap<String, Tensor>,
}

impl Swa {
    /// Creates an averager with the given EMA decay (MLPerf OpenFold uses
    /// 0.999).
    ///
    /// # Panics
    ///
    /// Panics if `decay` is outside `(0, 1)`.
    pub fn new(decay: f32) -> Self {
        assert!(
            decay > 0.0 && decay < 1.0,
            "SWA decay must be in (0, 1), got {decay}"
        );
        Swa {
            decay,
            average: BTreeMap::new(),
        }
    }

    /// The EMA decay.
    pub fn decay(&self) -> f32 {
        self.decay
    }

    /// Folds the current parameters into the running average
    /// (`avg = decay * avg + (1 - decay) * param`; first call copies).
    pub fn update(&mut self, store: &ParamStore) {
        for (name, param) in store.iter() {
            match self.average.get_mut(name) {
                Some(avg) => {
                    for (a, p) in avg.data_mut().iter_mut().zip(param.data().iter()) {
                        *a = self.decay * *a + (1.0 - self.decay) * p;
                    }
                }
                None => {
                    self.average.insert(name.to_string(), param.clone());
                }
            }
        }
    }

    /// The averaged value of one parameter.
    pub fn averaged(&self, name: &str) -> Option<&Tensor> {
        self.average.get(name)
    }

    /// Materializes a [`ParamStore`] holding the averaged weights (what
    /// evaluation runs on).
    pub fn to_store(&self) -> ParamStore {
        let mut s = ParamStore::new();
        for (name, avg) in &self.average {
            s.insert(name.clone(), avg.clone());
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_update_copies() {
        let mut store = ParamStore::new();
        store.insert("w", Tensor::from_vec(vec![4.0], &[1]).unwrap());
        let mut swa = Swa::new(0.9);
        swa.update(&store);
        assert_eq!(swa.averaged("w").unwrap().data(), &[4.0]);
    }

    #[test]
    fn ema_tracks_with_lag() {
        let mut store = ParamStore::new();
        store.insert("w", Tensor::from_vec(vec![0.0], &[1]).unwrap());
        let mut swa = Swa::new(0.5);
        swa.update(&store);
        store.insert("w", Tensor::from_vec(vec![10.0], &[1]).unwrap());
        swa.update(&store);
        // 0.5 * 0 + 0.5 * 10 = 5.
        assert_eq!(swa.averaged("w").unwrap().data(), &[5.0]);
    }

    #[test]
    fn average_smooths_oscillation() {
        let mut store = ParamStore::new();
        let mut swa = Swa::new(0.99);
        for i in 0..500 {
            let v = if i % 2 == 0 { 1.0 } else { -1.0 };
            store.insert("w", Tensor::from_vec(vec![v], &[1]).unwrap());
            swa.update(&store);
        }
        // The EMA of an alternating series stays near 0.
        assert!(swa.averaged("w").unwrap().data()[0].abs() < 0.1);
    }

    #[test]
    fn to_store_round_trip() {
        let mut store = ParamStore::new();
        store.insert("a", Tensor::ones(&[3]));
        store.insert("b", Tensor::zeros(&[2]));
        let mut swa = Swa::new(0.9);
        swa.update(&store);
        let avg_store = swa.to_store();
        assert_eq!(avg_store.len(), 2);
        assert_eq!(avg_store.get("a").unwrap().sum_all(), 3.0);
    }

    #[test]
    #[should_panic(expected = "SWA decay")]
    fn rejects_bad_decay() {
        let _ = Swa::new(1.5);
    }
}
