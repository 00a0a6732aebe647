//! Property tests for the data pipeline: exactly-once delivery under
//! arbitrary delay patterns, order preservation for the blocking loader,
//! prep-time model monotonicity, and featurization invariants.

use proptest::prelude::*;
use sf_data::featurize::featurize;
use sf_data::loader::{Dataset, Loader, LoaderConfig, LoaderKind};
use sf_data::{PrepTimeModel, SyntheticDataset};
use sf_model::config::NUM_AA_TYPES;
use sf_model::ModelConfig;
use std::sync::Arc;
use std::time::Duration;

struct DelayDataset {
    delays_ms: Vec<u8>,
}

impl Dataset for DelayDataset {
    type Item = usize;

    fn len(&self) -> usize {
        self.delays_ms.len()
    }

    fn prepare(&self, index: usize) -> usize {
        std::thread::sleep(Duration::from_millis(self.delays_ms[index] as u64));
        index
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Under any delay pattern and worker count, either loader kind
    /// delivers every batch exactly once.
    #[test]
    fn loader_exactly_once(
        delays in proptest::collection::vec(0u8..12, 1..16),
        workers in 1usize..5,
        kind in prop_oneof![Just(LoaderKind::Blocking), Just(LoaderKind::NonBlocking)],
    ) {
        let n = delays.len();
        let ds = Arc::new(DelayDataset { delays_ms: delays });
        let got: Vec<usize> =
            Loader::new(ds, (0..n).collect(), LoaderConfig::with_workers(workers), kind)
                .map(|item| item.expect("no faults").0)
                .collect();
        let mut sorted = got.clone();
        sorted.sort_unstable();
        prop_assert_eq!(sorted, (0..n).collect::<Vec<_>>());
    }

    /// The blocking loader preserves sampler order exactly, regardless of
    /// delays and workers.
    #[test]
    fn blocking_preserves_order(
        delays in proptest::collection::vec(0u8..10, 1..12),
        workers in 1usize..5,
    ) {
        let n = delays.len();
        let ds = Arc::new(DelayDataset { delays_ms: delays });
        // A nontrivial permutation as the sampler order.
        let order: Vec<usize> = (0..n).rev().collect();
        let got: Vec<usize> =
            Loader::new(ds, order.clone(), LoaderConfig::with_workers(workers), LoaderKind::Blocking)
                .map(|item| item.expect("no faults").0)
                .collect();
        prop_assert_eq!(got, order);
    }

    /// Prep time is monotone in both sequence length and MSA depth.
    #[test]
    fn prep_time_monotone(
        len in 40usize..2000,
        depth in 8usize..50_000,
        dlen in 1usize..500,
        ddepth in 1usize..10_000,
    ) {
        let m = PrepTimeModel::default();
        prop_assert!(m.prep_seconds_for(len, depth) <= m.prep_seconds_for(len + dlen, depth));
        prop_assert!(m.prep_seconds_for(len, depth) <= m.prep_seconds_for(len, depth + ddepth));
        prop_assert!(m.prep_seconds_for(len, depth) > 0.0);
    }

    /// Featurization always yields a batch that validates against its
    /// config, with sane one-hot structure, for arbitrary records/seeds.
    #[test]
    fn featurize_always_validates(record_idx in 0usize..40, seed in any::<u64>()) {
        let ds = SyntheticDataset::new(3, 40);
        let cfg = ModelConfig::tiny();
        let b = featurize(&ds.record(record_idx), &cfg, seed);
        prop_assert!(b.validate(&cfg).is_ok());
        // Target one-hot rows each sum to exactly 1.
        for i in 0..cfg.n_res {
            let row: f32 = (0..NUM_AA_TYPES)
                .map(|a| b.target_feat.at(&[i, a]).expect("in range"))
                .sum();
            prop_assert!((row - 1.0).abs() < 1e-6);
        }
        // Mask values are 0/1 and true coords are finite.
        prop_assert!(b.residue_mask.data().iter().all(|&m| m == 0.0 || m == 1.0));
        prop_assert!(!b.true_coords.has_non_finite());
    }

    /// Epoch orders are permutations for any epoch number.
    #[test]
    fn epoch_order_is_permutation(len in 1usize..200, epoch in any::<u64>()) {
        let ds = SyntheticDataset::new(9, len);
        let mut order = ds.epoch_order(epoch);
        order.sort_unstable();
        prop_assert_eq!(order, (0..len).collect::<Vec<_>>());
    }
}
