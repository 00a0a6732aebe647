//! Pins the parameters one tiny forward creates: their count, their names
//! in slot order, and the bits of their initial values.
//!
//! Slot order is the order of checkpoints and optimizer state, and every
//! name seeds its parameter's initializer (and, per module, dropout). A
//! change to how layers are named or bound must leave all three hashes
//! unchanged, or old checkpoints stop loading into the same slots and a
//! step is no longer bitwise the previous one.

use sf_autograd::{Graph, ParamStore};
use sf_model::{AlphaFold, FeatureBatch, ModelConfig};

/// Parameters of the tiny model, its loss heads included.
const COUNT: usize = 411;
/// FNV-1a over the names in slot order, each followed by a `\n`.
const NAMES_HASH: u64 = 0xee1b_f2e6_92b1_9b8a;
/// FNV-1a over each parameter's dims and its values' bits, in slot order.
const VALUES_HASH: u64 = 0x331b_47b6_fe4c_1382;

fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(h, |h, &b| (h ^ b as u64).wrapping_mul(0x100000001b3))
}

const FNV_OFFSET: u64 = 0xcbf29ce484222325;

#[test]
fn tiny_forward_creates_the_same_parameters_in_the_same_slots() {
    let cfg = ModelConfig::tiny();
    let batch = FeatureBatch::synthetic(&cfg, 0);
    let mut store = ParamStore::new();
    let mut g = Graph::new();
    AlphaFold::new(cfg)
        .forward(&mut g, &mut store, &batch)
        .expect("forward");

    let slots = 0..store.len();
    let names = slots.clone().fold(FNV_OFFSET, |h, slot| {
        fnv1a(fnv1a(h, store.name(slot).as_bytes()), b"\n")
    });
    let values = slots.fold(FNV_OFFSET, |h, slot| {
        let value = store.value(slot);
        let h = value
            .dims()
            .iter()
            .fold(h, |h, &d| fnv1a(h, &(d as u64).to_le_bytes()));
        value
            .data()
            .iter()
            .fold(h, |h, x| fnv1a(h, &x.to_bits().to_le_bytes()))
    });
    assert_eq!(
        (store.len(), names, values),
        (COUNT, NAMES_HASH, VALUES_HASH),
        "parameter count, name hash (slot order), initial-value hash"
    );
}
