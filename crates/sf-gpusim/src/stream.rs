//! CUDA-stream timeline: the interaction of a CPU launch cursor with the GPU
//! execution cursor.
//!
//! This is where the paper's "CPU overhead" factor lives: AlphaFold
//! launches over 150,000 kernels per step, so when kernels are short (DAP
//! shrinks them) or the CPU is slow (background processes, Python GC), the
//! GPU starves waiting for launches.

use crate::device::DeviceSpec;
use crate::kernel::Kernel;
use serde::{Deserialize, Serialize};

/// CPU-side condition of the launching process.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CpuModel {
    /// Multiplier on per-kernel launch cost (1.0 = healthy host). Background
    /// CPU peaks and GC pauses raise it.
    pub launch_slowdown: f64,
    /// Extra CPU time per step from Python garbage collection, seconds
    /// (eliminated by `gc.disable()` in the paper).
    pub gc_pause_s: f64,
}

impl Default for CpuModel {
    fn default() -> Self {
        CpuModel {
            launch_slowdown: 1.0,
            gc_pause_s: 0.0,
        }
    }
}

impl CpuModel {
    /// A healthy host.
    pub fn healthy() -> Self {
        CpuModel::default()
    }

    /// A host with background processes stealing cycles (the paper's
    /// "cluster machine CPU peaks"): launches take `slowdown`× longer.
    pub fn contended(slowdown: f64) -> Self {
        CpuModel {
            launch_slowdown: slowdown,
            gc_pause_s: 0.0,
        }
    }
}

/// Result of executing a kernel sequence on a stream.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct StreamStats {
    /// Wall-clock time of the whole sequence, seconds.
    pub total_s: f64,
    /// Pure GPU busy time, seconds.
    pub gpu_busy_s: f64,
    /// Time the GPU sat idle waiting for launches (+ GC pauses), seconds —
    /// the exposed CPU overhead.
    pub cpu_exposed_s: f64,
    /// Number of kernels executed.
    pub kernels: usize,
}

/// A single in-order execution stream.
#[derive(Debug, Clone)]
pub struct Stream {
    device: DeviceSpec,
    cpu: CpuModel,
}

impl Stream {
    /// Creates a stream on `device` with host condition `cpu`.
    pub fn new(device: DeviceSpec, cpu: CpuModel) -> Self {
        Stream { device, cpu }
    }

    /// The device spec.
    pub fn device(&self) -> &DeviceSpec {
        &self.device
    }

    /// The host condition.
    pub fn cpu(&self) -> &CpuModel {
        &self.cpu
    }

    /// CPU cost of one eager kernel launch on this host, seconds.
    pub(crate) fn kernel_launch_s(&self) -> f64 {
        self.device.kernel_launch_us * 1e-6 * self.cpu.launch_slowdown
    }

    /// CPU cost of one CUDA-graph replay launch on this host, seconds.
    pub(crate) fn graph_launch_s(&self) -> f64 {
        self.device.graph_launch_us * 1e-6 * self.cpu.launch_slowdown
    }

    /// Executes kernels in **eager mode**: each kernel costs a CPU launch;
    /// the GPU starts a kernel only after both (a) the previous kernel
    /// finished and (b) its launch was issued.
    pub fn run_eager(&self, kernels: &[Kernel]) -> StreamStats {
        self.run_eager_with_syncs(kernels, &[])
    }

    /// Like [`Stream::run_eager`], but with host **synchronization points**:
    /// at each index in `syncs`, the CPU waits for the GPU to drain before
    /// issuing further launches (data-dependent control flow, `.item()`
    /// reads, gradient-norm checks). Sync points prevent the CPU from
    /// building up run-ahead slack, which is what exposes launch overhead on
    /// stretches of tiny kernels.
    pub fn run_eager_with_syncs(&self, kernels: &[Kernel], syncs: &[usize]) -> StreamStats {
        self.eager(kernels, syncs, |_, _, _, _| {})
    }

    /// The eager cursor recurrence. `on_kernel(i, launch_at, start, d)`
    /// sees kernel `i`'s launch issued at `launch_at` and its execution
    /// from `start` for `d` seconds.
    pub(crate) fn eager(
        &self,
        kernels: &[Kernel],
        syncs: &[usize],
        mut on_kernel: impl FnMut(usize, f64, f64, f64),
    ) -> StreamStats {
        let launch = self.kernel_launch_s();
        let mut cpu_t = self.cpu.gc_pause_s; // GC pause delays the first launch
        let mut gpu_t = 0.0f64;
        let mut busy = 0.0f64;
        let mut sync_iter = syncs.iter().peekable();
        for (i, k) in kernels.iter().enumerate() {
            while sync_iter.peek().is_some_and(|&&s| s <= i) {
                sync_iter.next();
                cpu_t = cpu_t.max(gpu_t);
            }
            let launch_at = cpu_t;
            cpu_t += launch;
            let start = gpu_t.max(cpu_t);
            let d = k.duration_s(&self.device);
            on_kernel(i, launch_at, start, d);
            gpu_t = start + d;
            busy += d;
        }
        StreamStats {
            total_s: gpu_t,
            gpu_busy_s: busy,
            cpu_exposed_s: gpu_t - busy,
            kernels: kernels.len(),
        }
    }

    /// Executes kernels as a **captured CUDA graph replay**: one launch for
    /// the whole sequence, kernels back-to-back. CPU condition no longer
    /// matters beyond the single launch — the robustness the paper wants.
    pub fn run_graph(&self, kernels: &[Kernel]) -> StreamStats {
        self.graph(kernels, |_, _, _| {})
    }

    /// The graph-replay recurrence. `on_kernel(k, start, d)` sees kernel
    /// `k` execute from `start` for `d` seconds.
    pub(crate) fn graph(
        &self,
        kernels: &[Kernel],
        mut on_kernel: impl FnMut(&Kernel, f64, f64),
    ) -> StreamStats {
        let launch = self.graph_launch_s();
        let mut t = launch;
        let mut busy = 0.0f64;
        for k in kernels {
            let d = k.duration_s(&self.device);
            on_kernel(k, t, d);
            t += d;
            busy += d;
        }
        StreamStats {
            total_s: launch + busy,
            gpu_busy_s: busy,
            cpu_exposed_s: launch,
            kernels: kernels.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_kernels(n: usize) -> Vec<Kernel> {
        (0..n)
            .map(|i| Kernel::memory(format!("k{i}"), 1e5, 64))
            .collect()
    }

    #[test]
    fn eager_large_kernels_hide_launches() {
        let s = Stream::new(DeviceSpec::a100(), CpuModel::healthy());
        let big: Vec<Kernel> = (0..10)
            .map(|i| Kernel::memory(format!("k{i}"), 1e9, 4096))
            .collect();
        let stats = s.run_eager(&big);
        // Launch cost is tiny relative to ms-scale kernels.
        assert!(stats.cpu_exposed_s < 0.05 * stats.total_s);
    }

    #[test]
    fn eager_tiny_kernels_expose_cpu() {
        let s = Stream::new(DeviceSpec::a100(), CpuModel::healthy());
        let stats = s.run_eager(&tiny_kernels(1000));
        // Tiny kernels: launch-bound.
        assert!(
            stats.cpu_exposed_s > 0.2 * stats.total_s,
            "exposed {} total {}",
            stats.cpu_exposed_s,
            stats.total_s
        );
    }

    #[test]
    fn graph_removes_launch_overhead() {
        let s = Stream::new(DeviceSpec::a100(), CpuModel::healthy());
        let ks = tiny_kernels(1000);
        let eager = s.run_eager(&ks);
        let graph = s.run_graph(&ks);
        assert!(graph.total_s < eager.total_s);
        assert!(graph.cpu_exposed_s < 1e-4);
        // GPU busy time identical (same kernels).
        assert!((graph.gpu_busy_s - eager.gpu_busy_s).abs() < 1e-9);
    }

    #[test]
    fn cpu_contention_hurts_eager_not_graph() {
        let ks = tiny_kernels(500);
        let healthy = Stream::new(DeviceSpec::h100(), CpuModel::healthy());
        let contended = Stream::new(DeviceSpec::h100(), CpuModel::contended(4.0));
        let e_h = healthy.run_eager(&ks).total_s;
        let e_c = contended.run_eager(&ks).total_s;
        assert!(e_c > 1.5 * e_h, "contended eager {e_c} vs healthy {e_h}");
        let g_h = healthy.run_graph(&ks).total_s;
        let g_c = contended.run_graph(&ks).total_s;
        // Graph replay: contention affects only one launch — negligible.
        assert!((g_c - g_h) / g_h < 0.05);
    }

    #[test]
    fn gc_pause_adds_to_eager_time() {
        let ks = tiny_kernels(10);
        let no_gc = Stream::new(DeviceSpec::h100(), CpuModel::healthy());
        let with_gc = Stream::new(
            DeviceSpec::h100(),
            CpuModel {
                launch_slowdown: 1.0,
                gc_pause_s: 0.1,
            },
        );
        let d = with_gc.run_eager(&ks).total_s - no_gc.run_eager(&ks).total_s;
        assert!((d - 0.1).abs() < 1e-6);
    }

    #[test]
    fn empty_sequence_is_free() {
        let s = Stream::new(DeviceSpec::a100(), CpuModel::healthy());
        let stats = s.run_eager(&[]);
        assert_eq!(stats.total_s, 0.0);
        assert_eq!(stats.kernels, 0);
    }
}
