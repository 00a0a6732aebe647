//! Synthetic protein records standing in for the OpenFold dataset.
//!
//! What matters for this reproduction is (a) plausible geometry for the
//! model's structural losses and (b) realistic *distributions* of sequence
//! length and MSA depth, because those drive batch-preparation time (the
//! paper's Figure 4). Both follow log-normal-like laws in the PDB; we sample
//! accordingly.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sf_model::config::NUM_AA_TYPES;
use sf_tensor::Tensor;

/// One synthetic protein: sequence, alignments metadata, and Cα geometry.
#[derive(Debug, Clone)]
pub struct ProteinRecord {
    /// Stable sample id.
    pub id: u64,
    /// Residue types, values in `0..NUM_AA_TYPES`.
    pub sequence: Vec<u8>,
    /// Number of sequences in this sample's MSA (drives prep cost).
    pub msa_depth: usize,
    /// Cα coordinates in Å, `[len, 3]`.
    pub coords: Tensor,
}

impl ProteinRecord {
    /// Sequence length.
    pub fn len(&self) -> usize {
        self.sequence.len()
    }

    /// True if the record has no residues.
    pub fn is_empty(&self) -> bool {
        self.sequence.is_empty()
    }
}

/// Deterministic synthetic dataset: record `i` is a pure function of
/// `(seed, i)`.
#[derive(Debug, Clone)]
pub struct SyntheticDataset {
    seed: u64,
    len: usize,
}

impl SyntheticDataset {
    /// A dataset of `len` samples derived from `seed`.
    pub fn new(seed: u64, len: usize) -> Self {
        SyntheticDataset { seed, len }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Generates record `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len`.
    pub fn record(&self, index: usize) -> ProteinRecord {
        assert!(index < self.len, "index {index} out of {}", self.len);
        let mut rng =
            StdRng::seed_from_u64(self.seed ^ (index as u64).wrapping_mul(0x9E3779B97F4A7C15));

        // Length: log-normal around ~250 residues, clamped to [40, 2000].
        let ln_len: f32 = 5.4 + 0.6 * normal(&mut rng);
        let len = (ln_len.exp() as usize).clamp(40, 2000);

        // MSA depth: log-normal spanning ~1e1..1e4 (the long tail is what
        // makes some batches slow to prepare).
        let ln_depth: f32 = 5.0 + 1.6 * normal(&mut rng);
        let msa_depth = (ln_depth.exp() as usize).clamp(8, 50_000);

        let sequence: Vec<u8> = (0..len)
            .map(|_| rng.gen_range(0..NUM_AA_TYPES as u8))
            .collect();

        // Geometry: a self-avoiding-ish random walk of ~3.8 Å steps with
        // slowly-drifting direction (helix/coil flavor), giving realistic
        // local distances for lDDT and distance losses.
        let mut coords = Tensor::zeros(&[len, 3]);
        let (mut x, mut y, mut z) = (0.0f32, 0.0f32, 0.0f32);
        let mut theta: f32 = rng.gen_range(0.0..std::f32::consts::TAU);
        let mut phi: f32 = rng.gen_range(-0.5..0.5);
        for i in 0..len {
            coords.data_mut()[i * 3] = x;
            coords.data_mut()[i * 3 + 1] = y;
            coords.data_mut()[i * 3 + 2] = z;
            theta += rng.gen_range(-0.6..0.6);
            phi += rng.gen_range(-0.3..0.3);
            phi = phi.clamp(-1.2, 1.2);
            let step = 3.8f32;
            x += step * theta.cos() * phi.cos();
            y += step * theta.sin() * phi.cos();
            z += step * phi.sin();
        }

        ProteinRecord {
            id: (self.seed << 20) ^ index as u64,
            sequence,
            msa_depth,
            coords,
        }
    }

    /// A shuffled epoch order (Fisher–Yates, deterministic in `epoch`).
    pub fn epoch_order(&self, epoch: u64) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.len).collect();
        let mut rng = StdRng::seed_from_u64(
            self.seed
                .wrapping_add(epoch.wrapping_mul(0x2545F4914F6CDD1D)),
        );
        for i in (1..order.len()).rev() {
            let j = rng.gen_range(0..=i);
            order.swap(i, j);
        }
        order
    }
}

fn normal(rng: &mut StdRng) -> f32 {
    let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
    let u2: f32 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (std::f32::consts::TAU * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_are_deterministic() {
        let d = SyntheticDataset::new(7, 100);
        let a = d.record(42);
        let b = d.record(42);
        assert_eq!(a.sequence, b.sequence);
        assert_eq!(a.coords, b.coords);
        assert_eq!(a.msa_depth, b.msa_depth);
    }

    #[test]
    fn records_differ_by_index() {
        let d = SyntheticDataset::new(7, 100);
        assert_ne!(d.record(0).sequence, d.record(1).sequence);
    }

    #[test]
    fn lengths_are_plausible_and_spread() {
        let d = SyntheticDataset::new(3, 300);
        let lens: Vec<usize> = (0..300).map(|i| d.record(i).len()).collect();
        let min = *lens.iter().min().unwrap();
        let max = *lens.iter().max().unwrap();
        assert!(min >= 40);
        assert!(max <= 2000);
        assert!(max > 3 * min, "length spread too small: {min}..{max}");
        let mean = lens.iter().sum::<usize>() as f32 / lens.len() as f32;
        assert!((100.0..600.0).contains(&mean), "mean length {mean}");
    }

    #[test]
    fn msa_depth_heavy_tail() {
        let d = SyntheticDataset::new(4, 500);
        let mut depths: Vec<usize> = (0..500).map(|i| d.record(i).msa_depth).collect();
        depths.sort_unstable();
        // Spread of at least two orders of magnitude between p5 and p95.
        let p5 = depths[25];
        let p95 = depths[475];
        assert!(p95 >= 100 * p5.max(1) / 2, "p5 {p5} p95 {p95}");
    }

    #[test]
    fn successive_residues_are_bonded_distance() {
        let d = SyntheticDataset::new(5, 10);
        let r = d.record(0);
        for i in 0..r.len() - 1 {
            let dx = r.coords.at(&[i, 0]).unwrap() - r.coords.at(&[i + 1, 0]).unwrap();
            let dy = r.coords.at(&[i, 1]).unwrap() - r.coords.at(&[i + 1, 1]).unwrap();
            let dz = r.coords.at(&[i, 2]).unwrap() - r.coords.at(&[i + 1, 2]).unwrap();
            let dist = (dx * dx + dy * dy + dz * dz).sqrt();
            assert!((dist - 3.8).abs() < 0.1, "step {i}: {dist}");
        }
    }

    #[test]
    fn epoch_order_is_permutation_and_varies() {
        let d = SyntheticDataset::new(6, 50);
        let o1 = d.epoch_order(0);
        let o2 = d.epoch_order(1);
        let mut s1 = o1.clone();
        s1.sort_unstable();
        assert_eq!(s1, (0..50).collect::<Vec<_>>());
        assert_ne!(o1, o2);
        assert_eq!(d.epoch_order(0), o1); // deterministic
    }
}
