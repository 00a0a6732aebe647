//! The roofline kernel cost model.

use crate::device::DeviceSpec;
use serde::{Deserialize, Serialize};

/// Classification used by the paper's Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum KernelClass {
    /// GEMM-like: bound by math throughput.
    MathBound,
    /// Elementwise / reduction / attention-softmax: bound by HBM traffic.
    MemoryBound,
    /// Pure copies / memsets.
    MemoryOp,
}

/// One GPU kernel invocation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Kernel {
    /// Kernel name for profiling breakdowns.
    pub name: String,
    /// Floating-point operations performed.
    pub flops: f64,
    /// Bytes read + written from HBM.
    pub bytes: f64,
    /// Achieved fraction of the relevant peak (kernel implementation
    /// quality; e.g. the paper measured naive MHA at 26% and naive LN at
    /// 10% of theoretical).
    pub efficiency: f64,
    /// Independent thread blocks in the launch — governs occupancy when the
    /// problem shrinks under DAP.
    pub parallelism: usize,
    /// Tensor-core precision selector for math-bound work ("fp32" / "tf32"
    /// / "bf16").
    pub precision: String,
}

impl Kernel {
    /// A math-bound kernel (GEMM-like).
    pub fn math(name: impl Into<String>, flops: f64, bytes: f64, parallelism: usize) -> Self {
        Kernel {
            name: name.into(),
            flops,
            bytes,
            efficiency: 0.5,
            parallelism,
            precision: "tf32".to_string(),
        }
    }

    /// A memory-bound kernel (elementwise / reduction / softmax).
    pub fn memory(name: impl Into<String>, bytes: f64, parallelism: usize) -> Self {
        Kernel {
            name: name.into(),
            flops: 0.0,
            bytes,
            efficiency: 0.5,
            parallelism,
            precision: "fp32".to_string(),
        }
    }

    /// A pure memory operation (copy / set).
    pub fn memop(name: impl Into<String>, bytes: f64) -> Self {
        Kernel {
            name: name.into(),
            flops: 0.0,
            bytes,
            efficiency: 0.8,
            parallelism: 1024,
            precision: "fp32".to_string(),
        }
    }

    /// Builder: sets the achieved-efficiency factor.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < eff <= 1`.
    pub fn with_efficiency(mut self, eff: f64) -> Self {
        assert!(
            eff > 0.0 && eff <= 1.0,
            "efficiency must be in (0,1], got {eff}"
        );
        self.efficiency = eff;
        self
    }

    /// Classifies per the paper's Table 1 taxonomy: a kernel is math-bound
    /// when its roofline-critical side is FLOPs, a memory-op when it moves
    /// bytes with (almost) no math, else memory-bound.
    pub fn class(&self, device: &DeviceSpec) -> KernelClass {
        if self.flops == 0.0 {
            return if self.name.contains("copy")
                || self.name.contains("memset")
                || self.name.contains("cast")
            {
                KernelClass::MemoryOp
            } else {
                KernelClass::MemoryBound
            };
        }
        let t_math = self.flops / device.peak_flops(&self.precision);
        let t_mem = self.bytes / device.mem_bw_bytes();
        if t_math >= t_mem {
            KernelClass::MathBound
        } else {
            KernelClass::MemoryBound
        }
    }

    /// Occupancy factor in `(0, 1]`: launches with fewer blocks than the
    /// device needs to hide memory latency cannot reach full bandwidth.
    /// We require ~4 resident blocks per SM for full throughput (a standard
    /// rule of thumb); below that, throughput scales linearly with a floor.
    pub fn occupancy(&self, device: &DeviceSpec) -> f64 {
        let full = (device.sm_count * 4) as f64;
        (self.parallelism as f64 / full).clamp(0.05, 1.0)
    }

    /// Execution duration on `device`, in seconds, by the roofline model.
    pub fn duration_s(&self, device: &DeviceSpec) -> f64 {
        let occ = self.occupancy(device);
        let t_math = if self.flops > 0.0 {
            self.flops / (device.peak_flops(&self.precision) * self.efficiency * occ)
        } else {
            0.0
        };
        let t_mem = self.bytes / (device.mem_bw_bytes() * self.efficiency * occ);
        t_math.max(t_mem) + device.kernel_tail_us * 1e-6
    }

    /// Scales the kernel's problem size by `1/n` (what DAP-n does to most
    /// kernels): FLOPs, bytes, and launch parallelism all shrink.
    pub fn shard(&self, n: usize) -> Kernel {
        let n = n.max(1);
        Kernel {
            name: self.name.clone(),
            flops: self.flops / n as f64,
            bytes: self.bytes / n as f64,
            efficiency: self.efficiency,
            // Ceiling division: the shards cover the original work, so the
            // per-shard launch never has *less* relative parallelism.
            parallelism: self.parallelism.div_ceil(n),
            precision: self.precision.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_matches_intuition() {
        let dev = DeviceSpec::a100();
        // Big square GEMM: heavily math-bound.
        let gemm = Kernel::math(
            "gemm",
            2.0 * 4096f64.powi(3),
            3.0 * 4096.0 * 4096.0 * 4.0,
            4096,
        );
        assert_eq!(gemm.class(&dev), KernelClass::MathBound);
        // LayerNorm: pure traffic.
        let ln = Kernel::memory("layernorm", 3.0 * 1e6 * 4.0, 1024);
        assert_eq!(ln.class(&dev), KernelClass::MemoryBound);
        let cp = Kernel::memop("copy_h2d", 1e6);
        assert_eq!(cp.class(&dev), KernelClass::MemoryOp);
    }

    #[test]
    fn duration_scales_with_problem_size() {
        let dev = DeviceSpec::h100();
        let k1 = Kernel::memory("ew", 1e9, 4096);
        let k2 = Kernel::memory("ew", 2e9, 4096);
        assert!(k2.duration_s(&dev) > 1.9 * k1.duration_s(&dev) * 0.9);
    }

    #[test]
    fn small_launches_lose_occupancy() {
        let dev = DeviceSpec::h100();
        let big = Kernel::memory("ln", 1e8, 4096);
        let small = big.shard(64); // DAP-style shrink
        let t_big = big.duration_s(&dev);
        let t_small = small.duration_s(&dev);
        // Perfect scaling would be 64x faster; occupancy loss makes it
        // noticeably worse than 64x.
        assert!(
            t_small > t_big / 64.0 * 1.5,
            "small {t_small} vs ideal {}",
            t_big / 64.0
        );
    }

    #[test]
    fn bf16_halves_memory_time() {
        let dev = DeviceSpec::a100();
        let f32k = Kernel::memory("ew", 4e9, 4096);
        let bf16k = Kernel::memory("ew", 2e9, 4096);
        let r = f32k.duration_s(&dev) / bf16k.duration_s(&dev);
        assert!(r > 1.8 && r < 2.1, "ratio {r}");
    }

    #[test]
    fn higher_efficiency_is_faster() {
        let dev = DeviceSpec::a100();
        let naive = Kernel::memory("mha", 1e9, 2048).with_efficiency(0.26);
        let fused = Kernel::memory("mha_fused", 1e9, 2048).with_efficiency(0.65);
        assert!(fused.duration_s(&dev) < naive.duration_s(&dev));
    }

    #[test]
    fn shard_reduces_all_dimensions() {
        let k = Kernel::math("gemm", 8e9, 4e6, 512);
        let s = k.shard(4);
        assert_eq!(s.flops, 2e9);
        assert_eq!(s.bytes, 1e6);
        assert_eq!(s.parallelism, 128);
        // Sharding by 0 or 1 is identity-ish.
        assert_eq!(k.shard(1).flops, k.flops);
        assert_eq!(k.shard(0).flops, k.flops);
    }

    #[test]
    #[should_panic(expected = "efficiency")]
    fn rejects_invalid_efficiency() {
        let _ = Kernel::memory("x", 1.0, 1).with_efficiency(1.5);
    }
}
