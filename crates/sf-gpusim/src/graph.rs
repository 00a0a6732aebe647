//! CUDA Graph capture/replay with a shape-keyed cache.
//!
//! The paper (§3.2): "if the CUDA kernels within this scope are modified due
//! to dynamic computation graph, such as in the case of recycling in the
//! AlphaFold training, CUDA Graph needs to be recaptured. To address this,
//! we designed a CUDA Graph cache that can capture multiple graphs for
//! different recycling scenarios."

use crate::kernel::Kernel;
use crate::stream::{Stream, StreamStats};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// A captured graph: a frozen kernel sequence.
#[derive(Debug, Clone)]
pub struct CudaGraph {
    kernels: Vec<Kernel>,
    /// One-time capture cost in seconds (running the sequence once in
    /// capture mode plus instantiation).
    capture_cost_s: f64,
}

impl CudaGraph {
    /// Captures a kernel sequence on `stream`. Capture executes the work
    /// eagerly once and pays an instantiation surcharge.
    pub fn capture(stream: &Stream, kernels: &[Kernel]) -> Self {
        let eager = stream.run_eager(kernels);
        // Instantiation: roughly proportional to kernel count (node
        // creation), ~1 µs per node on real drivers.
        let instantiate = kernels.len() as f64 * 1e-6;
        CudaGraph {
            kernels: kernels.to_vec(),
            capture_cost_s: eager.total_s + instantiate,
        }
    }

    /// Capture cost paid when this graph was created.
    pub fn capture_cost_s(&self) -> f64 {
        self.capture_cost_s
    }

    /// Replays the graph: single launch, back-to-back kernels.
    pub fn replay(&self, stream: &Stream) -> StreamStats {
        stream.run_graph(&self.kernels)
    }
}

/// Statistics of a [`GraphCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Replays served from cache.
    pub hits: usize,
    /// Captures performed.
    pub misses: usize,
}

/// A cache of captured graphs keyed by shape signature (e.g. the recycling
/// iteration count, crop size, and DAP degree that determine the step's
/// kernel sequence).
#[derive(Debug, Default)]
pub struct GraphCache {
    graphs: HashMap<String, CudaGraph>,
    stats: CacheStats,
}

impl GraphCache {
    /// An empty cache.
    pub fn new() -> Self {
        GraphCache::default()
    }

    /// Executes `kernels` under the cache: first sighting of `key` captures
    /// (paying the capture cost), subsequent sightings replay.
    /// Returns the stats of this execution including any capture surcharge
    /// in `total_s`.
    pub fn run(&mut self, stream: &Stream, key: &str, kernels: &[Kernel]) -> StreamStats {
        if let Some(g) = self.graphs.get(key) {
            self.stats.hits += 1;
            return g.replay(stream);
        }
        self.stats.misses += 1;
        let g = CudaGraph::capture(stream, kernels);
        let mut stats = g.replay(stream);
        // First execution pays capture instead of replay.
        stats.total_s = g.capture_cost_s();
        self.graphs.insert(key.to_string(), g);
        stats
    }

    /// Cache hit/miss counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Number of distinct captured graphs.
    pub fn len(&self) -> usize {
        self.graphs.len()
    }

    /// True if nothing has been captured.
    pub fn is_empty(&self) -> bool {
        self.graphs.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceSpec;
    use crate::stream::CpuModel;

    fn kernels() -> Vec<Kernel> {
        (0..200)
            .map(|i| Kernel::memory(format!("k{i}"), 1e5, 64))
            .collect()
    }

    #[test]
    fn capture_then_replay_amortizes() {
        let s = Stream::new(DeviceSpec::h100(), CpuModel::healthy());
        let ks = kernels();
        let mut cache = GraphCache::new();
        let first = cache.run(&s, "recycle=3", &ks);
        let second = cache.run(&s, "recycle=3", &ks);
        assert!(second.total_s < first.total_s, "replay must beat capture");
        assert_eq!(cache.stats(), CacheStats { hits: 1, misses: 1 });
    }

    #[test]
    fn different_keys_capture_separately() {
        let s = Stream::new(DeviceSpec::h100(), CpuModel::healthy());
        let ks = kernels();
        let mut cache = GraphCache::new();
        for key in ["recycle=1", "recycle=2", "recycle=3", "recycle=2"] {
            cache.run(&s, key, &ks);
        }
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.stats(), CacheStats { hits: 1, misses: 3 });
    }

    #[test]
    fn replay_beats_eager_under_contention() {
        let contended = Stream::new(DeviceSpec::h100(), CpuModel::contended(5.0));
        let ks = kernels();
        let g = CudaGraph::capture(&contended, &ks);
        let eager = contended.run_eager(&ks);
        let replay = g.replay(&contended);
        assert!(replay.total_s < 0.5 * eager.total_s);
    }
}
