//! Expands a [`ModelConfig`] into the full kernel sequence of one training
//! step (forward with recycling, backward, optimizer), with per-kernel
//! FLOP/byte sizing derived from the tensor shapes.
//!
//! Naive-implementation efficiencies are calibrated to the paper's §2.2
//! profile: stock MHA reaches ~26% of theoretical, stock LayerNorm ~10%,
//! the optimizer subroutines <10%.

use crate::ops::{ModuleTag, OpKind, OpNode};
use serde::{Deserialize, Serialize};
use sf_gpusim::Kernel;
use sf_model::ModelConfig;

/// Bytes per element in full precision.
const F32: f64 = 4.0;

/// Achieved-efficiency calibration for naive (unfused) kernels, from the
/// paper's profiling: LN 10%, MHA 26%, optimizer ≈10%, SWA <5%, clip <1%.
pub mod eff {
    /// Stock cuBLAS GEMM.
    pub const GEMM: f64 = 0.60;
    /// Naive LayerNorm sub-kernels.
    pub const LN_NAIVE: f64 = 0.50;
    /// Fused (Triton) LayerNorm.
    pub const LN_FUSED: f64 = 0.80;
    /// Naive attention softmax/glue sub-kernels.
    pub const MHA_NAIVE: f64 = 0.65;
    /// Fused (FlashAttention-style) MHA kernel.
    pub const MHA_FUSED: f64 = 0.80;
    /// Generic eager elementwise.
    pub const ELEMENTWISE: f64 = 0.70;
    /// torch.compile-fused elementwise.
    pub const ELEMENTWISE_FUSED: f64 = 0.80;
    /// Copies / transposes.
    pub const MEMOP: f64 = 0.60;
    /// Naive per-tensor Adam.
    pub const ADAM_NAIVE: f64 = 0.15;
    /// Naive per-tensor SWA.
    pub const SWA_NAIVE: f64 = 0.05;
    /// Naive per-tensor grad clip.
    pub const CLIP_NAIVE: f64 = 0.08;
    /// Fused optimizer kernels.
    pub const OPTIMIZER_FUSED: f64 = 0.70;
}

/// The kernel sequence of one training step plus workload metadata.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StepGraph {
    /// Kernels in issue order.
    pub ops: Vec<OpNode>,
    /// Number of distinct parameter/gradient tensors (drives optimizer
    /// kernel counts; >4000 in AlphaFold).
    pub param_tensors: usize,
    /// Total trainable elements.
    pub param_elements: f64,
    /// Activation bytes per Evoformer block (for DAP comm-volume modeling).
    pub block_activation_bytes: f64,
    /// Host synchronization points (op indices): the CPU drains the GPU
    /// queue here (recycling control flow, grad-norm checks, data waits).
    pub syncs: Vec<usize>,
    next_group: u64,
}

impl StepGraph {
    /// Builds the **reference** (unfused, fp32, eager) step graph:
    /// `recycle_fwd` forward-only recycling iterations plus one forward +
    /// backward iteration, then optimizer/SWA/clip kernels.
    pub fn reference(cfg: &ModelConfig, recycle_fwd: usize) -> Self {
        Self::build(cfg, recycle_fwd, false)
    }

    /// Like [`StepGraph::reference`] but with **gradient checkpointing**:
    /// the backward pass re-executes the forward kernels (recompute) before
    /// differentiating — OpenFold's memory workaround, which ScaleFold
    /// disables once DAP frees enough memory (§4.1).
    pub fn reference_checkpointed(cfg: &ModelConfig, recycle_fwd: usize) -> Self {
        Self::build(cfg, recycle_fwd, true)
    }

    fn build(cfg: &ModelConfig, recycle_fwd: usize, grad_checkpointing: bool) -> Self {
        let mut g = StepGraph {
            ops: Vec::new(),
            param_tensors: estimate_param_tensors(cfg),
            param_elements: cfg.approx_param_count() as f64,
            block_activation_bytes: block_activation_bytes(cfg),
            syncs: Vec::new(),
            next_group: 0,
        };
        // Warm recycling iterations: forward only. Each iteration boundary
        // is a host sync (the recycling decision is data-dependent).
        for _ in 0..recycle_fwd {
            g.forward(cfg);
            g.syncs.push(g.ops.len());
        }
        // Final iteration: forward + backward.
        let fwd_start = g.ops.len();
        g.forward(cfg);
        let fwd_ops: Vec<OpNode> = g.ops[fwd_start..].to_vec();
        if grad_checkpointing {
            // Checkpointing re-runs the forward inside the backward.
            g.ops.extend(fwd_ops.iter().cloned());
        }
        g.append_backward(&fwd_ops);
        // Optimizer waits on the gradient-norm check.
        g.syncs.push(g.ops.len());
        g.optimizer(cfg);
        g
    }

    fn group(&mut self) -> u64 {
        self.next_group += 1;
        self.next_group
    }

    // ------------------------------------------------------------------
    // Forward expansion
    // ------------------------------------------------------------------

    fn forward(&mut self, cfg: &ModelConfig) {
        let (s, r) = (cfg.n_seq as f64, cfg.n_res as f64);
        self.embedding(cfg);
        // Template pair stack: pair-only blocks per template.
        for _ in 0..cfg.n_templates * cfg.template_blocks {
            self.pair_track(cfg, ModuleTag::Template, r, cfg.c_t as f64, cfg.c_t as f64);
        }
        // Extra-MSA stack.
        for _ in 0..cfg.extra_msa_blocks {
            self.msa_track(
                cfg,
                ModuleTag::ExtraMsa,
                cfg.n_extra_seq as f64,
                r,
                cfg.c_e as f64,
            );
            self.pair_track(
                cfg,
                ModuleTag::ExtraMsa,
                r,
                cfg.c_z as f64,
                cfg.c_hidden_mul as f64,
            );
        }
        // Main Evoformer stack.
        for _ in 0..cfg.evoformer_blocks {
            self.msa_track(cfg, ModuleTag::Evoformer, s, r, cfg.c_m as f64);
            self.pair_track(
                cfg,
                ModuleTag::Evoformer,
                r,
                cfg.c_z as f64,
                cfg.c_hidden_mul as f64,
            );
        }
        self.structure(cfg);
        self.heads(cfg);
    }

    /// MSA-side modules of one Evoformer block: row attention w/ pair bias,
    /// column attention, MSA transition, outer product mean.
    fn msa_track(&mut self, cfg: &ModelConfig, module: ModuleTag, s: f64, r: f64, c_m: f64) {
        let h = cfg.msa_heads as f64;
        let d = cfg.c_hidden_msa as f64;
        let c_z = cfg.c_z as f64;

        // --- MSA row attention with pair bias ---
        self.layer_norm_group(module, s * r, c_m);
        self.layer_norm_group(module, r * r, c_z);
        // Pair-bias projection + permute.
        self.gemm(module, OpKind::Gemm, r * r, c_z, h, 0);
        self.memop(module, r * r * h * F32);
        self.attention(module, cfg, s, r, r, c_m, h, d, true);
        // --- MSA column attention ---
        self.layer_norm_group(module, s * r, c_m);
        self.attention(module, cfg, r, s, s, c_m, h, d, false);
        // --- MSA transition ---
        self.transition(module, s * r, c_m, cfg.transition_factor as f64);
        // --- Outer product mean ---
        let c_opm = cfg.c_opm as f64;
        self.layer_norm_group(module, s * r, c_m);
        let opm_group = self.group();
        self.gemm(module, OpKind::ProjectionGemm, s * r, c_m, c_opm, opm_group);
        self.gemm(module, OpKind::ProjectionGemm, s * r, c_m, c_opm, opm_group);
        // einsum('sic,sjd->ijcd'): one big GEMM [r*c, s] x [s, r*c].
        self.gemm(module, OpKind::Gemm, r * c_opm, s, r * c_opm, 0);
        self.memop(module, r * r * c_opm * c_opm * F32); // permute
        self.elementwise(module, r * r * c_opm * c_opm, 1); // mean scale
        self.gemm(module, OpKind::Gemm, r * r, c_opm * c_opm, c_z, 0);
        self.elementwise(module, r * r * c_z, 2); // bias + residual
    }

    /// Pair-side modules: two triangle multiplications, two triangle
    /// attentions, pair transition.
    fn pair_track(&mut self, cfg: &ModelConfig, module: ModuleTag, r: f64, c_z: f64, c_mul: f64) {
        let h = cfg.pair_heads as f64;
        let d = cfg.c_hidden_pair as f64;
        // --- Triangle multiplications (outgoing + incoming) ---
        for _ in 0..2 {
            self.layer_norm_group(module, r * r, c_z);
            let proj_group = self.group();
            for _ in 0..4 {
                // a/b projections and gates.
                self.gemm(
                    module,
                    OpKind::ProjectionGemm,
                    r * r,
                    c_z,
                    c_mul,
                    proj_group,
                );
            }
            self.elementwise(module, r * r * c_mul, 4); // sigmoid x2, mul x2
            self.memop(module, r * r * c_mul * F32 * 2.0); // channel-major permutes
                                                           // Batched per-channel GEMM: c_mul matrices of [r, r] x [r, r].
            self.gemm_batched(module, c_mul, r, r, r);
            self.memop(module, r * r * c_mul * F32); // permute back
            self.layer_norm_group(module, r * r, c_mul);
            self.gemm(module, OpKind::Gemm, r * r, c_mul, c_z, 0);
            self.gemm(module, OpKind::Gemm, r * r, c_z, c_z, 0); // out gate
            self.elementwise(module, r * r * c_z, 3); // sigmoid, mul, residual
        }
        // --- Triangle attentions (starting + ending node) ---
        for ending in [false, true] {
            self.layer_norm_group(module, r * r, c_z);
            if ending {
                self.memop(module, r * r * c_z * F32); // transpose in
            }
            self.gemm(module, OpKind::Gemm, r * r, c_z, h, 0); // triangle bias
            self.memop(module, r * r * h * F32);
            self.attention(module, cfg, r, r, r, c_z, h, d, true);
            if ending {
                self.memop(module, r * r * c_z * F32); // transpose out
            }
        }
        // --- Pair transition ---
        self.transition(module, r * r, c_z, cfg.transition_factor as f64);
    }

    /// Gated MHA: 4 bundleable projections, QK^T, bias add, softmax (3
    /// sub-kernels), PV, gating, output projection, residual.
    #[allow(clippy::too_many_arguments)]
    fn attention(
        &mut self,
        module: ModuleTag,
        _cfg: &ModelConfig,
        batch: f64,
        s_q: f64,
        s_k: f64,
        c_in: f64,
        h: f64,
        d: f64,
        bias: bool,
    ) {
        let hd = h * d;
        let proj_group = self.group();
        for _ in 0..4 {
            // Q, K, V, gate — the GEMM-batching candidates.
            self.gemm(
                module,
                OpKind::ProjectionGemm,
                batch * s_q,
                c_in,
                hd,
                proj_group,
            );
        }
        for _ in 0..4 {
            self.memop(module, batch * s_q * hd * F32); // head reshapes
        }
        let att_group = self.group();
        let logits = batch * h * s_q * s_k;
        // QK^T.
        self.push(
            Kernel::math(
                "attn_qk",
                2.0 * logits * d,
                (batch * h * (s_q + s_k) * d + logits) * F32,
                (batch * h * s_q) as usize,
            )
            .with_efficiency(eff::GEMM),
            module,
            OpKind::AttentionGemm,
            att_group,
        );
        if bias {
            self.push(
                Kernel::memory("attn_bias_add", 2.0 * logits * F32, (batch * h) as usize)
                    .with_efficiency(eff::MHA_NAIVE),
                module,
                OpKind::AttentionElementwise,
                att_group,
            );
        }
        // Softmax: max, exp+sum, normalize — each a full pass over logits.
        for name in ["softmax_stats", "softmax_norm"] {
            self.push(
                Kernel::memory(name, 2.0 * logits * F32, (batch * h * s_q) as usize)
                    .with_efficiency(eff::MHA_NAIVE),
                module,
                OpKind::Softmax,
                att_group,
            );
        }
        // PV.
        self.push(
            Kernel::math(
                "attn_pv",
                2.0 * logits * d,
                (logits + batch * h * (s_q + s_k) * d) * F32,
                (batch * h * s_q) as usize,
            )
            .with_efficiency(eff::GEMM),
            module,
            OpKind::AttentionGemm,
            att_group,
        );
        // Gating: sigmoid + mul.
        self.push(
            Kernel::memory(
                "attn_gate",
                3.0 * batch * s_q * hd * F32,
                (batch * s_q) as usize,
            )
            .with_efficiency(eff::MHA_NAIVE),
            module,
            OpKind::AttentionElementwise,
            att_group,
        );
        self.memop(module, batch * s_q * hd * F32); // heads merge
        self.gemm(module, OpKind::Gemm, batch * s_q, hd, c_in, 0); // output proj
        self.elementwise(module, batch * s_q * c_in, 2); // bias + residual
    }

    /// Transition (2-layer MLP): LN, two GEMMs, activation, residual.
    fn transition(&mut self, module: ModuleTag, rows: f64, c: f64, factor: f64) {
        self.layer_norm_group(module, rows, c);
        self.gemm(module, OpKind::Gemm, rows, c, c * factor, 0);
        self.elementwise(module, rows * c * factor, 2); // bias + relu
        self.gemm(module, OpKind::Gemm, rows, c * factor, c, 0);
        self.elementwise(module, rows * c, 2); // bias + residual
    }

    /// Naive LayerNorm: 4 memory-bound sub-kernels (mean, variance,
    /// normalize, affine), each a full pass over the input.
    fn layer_norm_group(&mut self, module: ModuleTag, rows: f64, cols: f64) {
        let group = self.group();
        let bytes = rows * cols * F32;
        // Framework glue: shape/stride bookkeeping copies around each LN.
        self.push(
            sf_gpusim::Kernel::memop("cast_glue", 4096.0),
            module,
            OpKind::MemOp,
            0,
        );
        // PyTorch's eager LN runs as a statistics pass plus an apply pass;
        // at 2 passes x 40% achieved bandwidth it lands near the paper's
        // "10% of theoretical" for the whole normalization.
        for name in ["ln_stats", "ln_apply"] {
            self.push(
                Kernel::memory(name, 2.0 * bytes, rows as usize).with_efficiency(eff::LN_NAIVE),
                module,
                OpKind::LayerNorm,
                group,
            );
        }
    }

    fn embedding(&mut self, cfg: &ModelConfig) {
        let (s, r) = (cfg.n_seq as f64, cfg.n_res as f64);
        let (c_m, c_z) = (cfg.c_m as f64, cfg.c_z as f64);
        self.gemm(
            ModuleTag::Embedding,
            OpKind::Gemm,
            s * r,
            cfg.msa_feat_dim() as f64,
            c_m,
            0,
        );
        self.gemm(ModuleTag::Embedding, OpKind::Gemm, r, 21.0, c_m, 0);
        self.gemm(ModuleTag::Embedding, OpKind::Gemm, r, 21.0, c_z, 0);
        self.gemm(ModuleTag::Embedding, OpKind::Gemm, r, 21.0, c_z, 0);
        self.gemm(ModuleTag::Embedding, OpKind::Gemm, r * r, 65.0, c_z, 0);
        self.elementwise(ModuleTag::Embedding, s * r * c_m, 2);
        self.elementwise(ModuleTag::Embedding, r * r * c_z, 3);
        // Recycling embedder: two LNs + distogram embed.
        self.layer_norm_group(ModuleTag::Embedding, r, c_m);
        self.layer_norm_group(ModuleTag::Embedding, r * r, c_z);
        self.gemm(ModuleTag::Embedding, OpKind::Gemm, r * r, 15.0, c_z, 0);
        self.elementwise(ModuleTag::Embedding, r * r * c_z, 2);
        // Extra-MSA embed.
        self.gemm(
            ModuleTag::Embedding,
            OpKind::Gemm,
            cfg.n_extra_seq as f64 * r,
            cfg.extra_msa_feat_dim() as f64,
            cfg.c_e as f64,
            0,
        );
        // Host-to-device feature copies.
        self.memop(
            ModuleTag::Embedding,
            (s * cfg.msa_feat_dim() as f64
                + cfg.n_extra_seq as f64 * cfg.extra_msa_feat_dim() as f64)
                * r
                * F32,
        );
    }

    /// The structure module — the paper's *serial module* (plus the data
    /// pipeline): attention over residues + coordinate updates per layer.
    fn structure(&mut self, cfg: &ModelConfig) {
        let r = cfg.n_res as f64;
        let c_s = cfg.c_s as f64;
        let h = cfg.pair_heads.max(1) as f64;
        self.layer_norm_group(ModuleTag::Structure, r, cfg.c_m as f64);
        self.gemm(
            ModuleTag::Structure,
            OpKind::Gemm,
            r,
            cfg.c_m as f64,
            c_s,
            0,
        );
        self.layer_norm_group(ModuleTag::Structure, r * r, cfg.c_z as f64);
        self.gemm(
            ModuleTag::Structure,
            OpKind::Gemm,
            r * r,
            cfg.c_z as f64,
            h,
            0,
        );
        for _ in 0..cfg.structure_layers {
            // Distance bias computation.
            self.elementwise(ModuleTag::Structure, r * r * 3.0, 3);
            self.layer_norm_group(ModuleTag::Structure, r, c_s);
            // IPA-style attention: small problem — this is why the module
            // does not scale (s_q = r only, tiny parallelism).
            self.attention(ModuleTag::Structure, cfg, 1.0, r, r, c_s, h, c_s / h, true);
            self.transition(ModuleTag::Structure, r, c_s, 2.0);
            self.gemm(ModuleTag::Structure, OpKind::Gemm, r, c_s, 3.0, 0);
            self.elementwise(ModuleTag::Structure, r * 3.0, 1);
        }
    }

    fn heads(&mut self, cfg: &ModelConfig) {
        let r = cfg.n_res as f64;
        self.gemm(
            ModuleTag::Heads,
            OpKind::Gemm,
            r * r,
            cfg.c_z as f64,
            15.0,
            0,
        );
        self.gemm(
            ModuleTag::Heads,
            OpKind::Gemm,
            cfg.n_seq as f64 * r,
            cfg.c_m as f64,
            21.0,
            0,
        );
        self.elementwise(ModuleTag::Heads, r * r * 15.0, 4); // softmax-ish + loss glue
        self.elementwise(ModuleTag::Heads, r * r, 4); // distance loss chain
    }

    // ------------------------------------------------------------------
    // Backward expansion
    // ------------------------------------------------------------------

    /// Appends the backward pass for `fwd_ops`: each GEMM spawns two
    /// backward GEMMs (dX and dW); LN groups get a 4-kernel backward with
    /// ~1.5× traffic; softmax/elementwise get one same-size kernel each;
    /// memops replay.
    fn append_backward(&mut self, fwd_ops: &[OpNode]) {
        let mut bwd: Vec<OpNode> = Vec::new();
        for op in fwd_ops.iter().rev() {
            match op.kind {
                OpKind::Gemm | OpKind::ProjectionGemm | OpKind::AttentionGemm => {
                    for suffix in ["_dgrad", "_wgrad"] {
                        let mut k = op.kernel.clone();
                        k.name = format!("{}{suffix}", op.kernel.name);
                        bwd.push(OpNode::new(k, op.module, op.kind, op.fuse_group));
                    }
                }
                OpKind::LayerNorm => {
                    let mut k = op.kernel.clone();
                    k.name = format!("{}_bwd", op.kernel.name);
                    k.bytes *= 1.5;
                    bwd.push(OpNode::new(k, op.module, op.kind, op.fuse_group));
                }
                OpKind::Softmax
                | OpKind::AttentionElementwise
                | OpKind::Elementwise
                | OpKind::Reduction => {
                    let mut k = op.kernel.clone();
                    k.name = format!("{}_bwd", op.kernel.name);
                    bwd.push(OpNode::new(k, op.module, op.kind, op.fuse_group));
                }
                OpKind::MemOp => {
                    bwd.push(op.clone());
                }
                OpKind::AdamUpdate | OpKind::SwaUpdate | OpKind::GradClip | OpKind::Fused => {}
            }
        }
        self.ops.extend(bwd);
    }

    // ------------------------------------------------------------------
    // Optimizer expansion
    // ------------------------------------------------------------------

    /// Per-tensor optimizer kernel storm: Adam (4 kernels/tensor), SWA (2),
    /// gradient clipping (2: partial norm + scale) — the paper's 15% of
    /// step time at <10% efficiency.
    fn optimizer(&mut self, _cfg: &ModelConfig) {
        let tensors = self.param_tensors;
        let avg_elems = self.param_elements / tensors as f64;
        let group_adam = self.group();
        let group_swa = self.group();
        let group_clip = self.group();
        for _ in 0..tensors {
            // Gradient zeroing and the clip concat copy (the paper: "The
            // concatenation and scaling operation each launches numerous
            // CUDA kernels for every gradient tensors").
            self.push(
                Kernel::memop("memset_zero_grad", avg_elems * F32),
                ModuleTag::Optimizer,
                OpKind::MemOp,
                0,
            );
            self.push(
                Kernel::memop("copy_clip_concat", 2.0 * avg_elems * F32),
                ModuleTag::Optimizer,
                OpKind::MemOp,
                group_clip,
            );
            // Gradient clipping: per-tensor norm, then per-tensor scale.
            for name in ["clip_norm", "clip_scale"] {
                self.push(
                    Kernel::memory(name, 2.0 * avg_elems * F32, 8).with_efficiency(eff::CLIP_NAIVE),
                    ModuleTag::Optimizer,
                    OpKind::GradClip,
                    group_clip,
                );
            }
            // Adam: m update, v update, bias-corrected update, apply.
            for name in ["adam_m", "adam_v", "adam_update", "adam_apply"] {
                self.push(
                    Kernel::memory(name, 3.0 * avg_elems * F32, 8).with_efficiency(eff::ADAM_NAIVE),
                    ModuleTag::Optimizer,
                    OpKind::AdamUpdate,
                    group_adam,
                );
            }
            // SWA: read param + average, write average.
            for name in ["swa_read_mul", "swa_write"] {
                self.push(
                    Kernel::memory(name, 3.0 * avg_elems * F32, 8).with_efficiency(eff::SWA_NAIVE),
                    ModuleTag::Optimizer,
                    OpKind::SwaUpdate,
                    group_swa,
                );
            }
        }
    }

    // ------------------------------------------------------------------
    // Small push helpers
    // ------------------------------------------------------------------

    fn push(&mut self, kernel: Kernel, module: ModuleTag, kind: OpKind, group: u64) {
        self.ops.push(OpNode::new(kernel, module, kind, group));
    }

    /// `[rows, k] @ [k, n]` GEMM with bias-free sizing.
    fn gemm(&mut self, module: ModuleTag, kind: OpKind, rows: f64, k: f64, n: f64, group: u64) {
        let flops = 2.0 * rows * k * n;
        let bytes = (rows * k + k * n + rows * n) * F32;
        let par = (rows / 32.0).max(1.0) as usize;
        self.push(
            Kernel::math("gemm", flops, bytes, par).with_efficiency(eff::GEMM),
            module,
            kind,
            group,
        );
    }

    /// Batched GEMM: `batch` × `[m, k] @ [k, n]`.
    fn gemm_batched(&mut self, module: ModuleTag, batch: f64, m: f64, k: f64, n: f64) {
        let flops = 2.0 * batch * m * k * n;
        let bytes = batch * (m * k + k * n + m * n) * F32;
        self.push(
            Kernel::math(
                "gemm_batched",
                flops,
                bytes,
                (batch * m / 32.0).max(1.0) as usize,
            )
            .with_efficiency(eff::GEMM),
            module,
            OpKind::Gemm,
            0,
        );
    }

    /// A run of `count` eager elementwise kernels over `elems` elements
    /// (bias adds, activations, residuals...). Consecutive ones share a
    /// fuse group for the torch.compile pass.
    fn elementwise(&mut self, module: ModuleTag, elems: f64, count: usize) {
        let group = self.group();
        // Framework glue: one broadcast/cast copy accompanies each run.
        self.push(
            sf_gpusim::Kernel::memop("cast_glue", 4096.0),
            module,
            OpKind::MemOp,
            0,
        );
        for _ in 0..count {
            self.push(
                Kernel::memory(
                    "elementwise",
                    2.0 * elems * F32,
                    (elems / 1024.0).max(1.0) as usize,
                )
                .with_efficiency(eff::ELEMENTWISE),
                module,
                OpKind::Elementwise,
                group,
            );
        }
    }

    fn memop(&mut self, module: ModuleTag, bytes: f64) {
        self.push(
            Kernel::memop("permute_copy", 2.0 * bytes),
            module,
            OpKind::MemOp,
            0,
        );
    }
}

/// Estimates the number of distinct parameter tensors ("over four thousand
/// gradient tensors" in the paper).
pub fn estimate_param_tensors(cfg: &ModelConfig) -> usize {
    // ~70 tensors per Evoformer block (weights, biases, LN affines across 9
    // modules), plus embedders/structure/heads.
    let blocks =
        cfg.evoformer_blocks + cfg.extra_msa_blocks + cfg.template_blocks * cfg.n_templates;
    blocks * 70 + cfg.structure_layers * 20 + 60
}

/// Bytes of m + z activations for one Evoformer block at full precision
/// (drives DAP all-gather volume).
pub fn block_activation_bytes(cfg: &ModelConfig) -> f64 {
    let m = cfg.n_seq as f64 * cfg.n_res as f64 * cfg.c_m as f64;
    let z = cfg.n_res as f64 * cfg.n_res as f64 * cfg.c_z as f64;
    (m + z) * F32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_graph_kernel_count_matches_table1_scale() {
        // The paper: "Each step of the AlphaFold training launches over
        // 150,000 operators" (Table 1 total: 150,887).
        let g = StepGraph::reference(&ModelConfig::paper(), 3);
        let n = g.ops.len();
        assert!(
            (100_000..220_000).contains(&n),
            "kernel count {n} not in Table-1 scale"
        );
    }

    #[test]
    fn param_tensor_count_over_four_thousand() {
        let t = estimate_param_tensors(&ModelConfig::paper());
        assert!((4000..7000).contains(&t), "param tensors {t}");
    }

    #[test]
    fn tiny_config_builds_fast_and_small() {
        let g = StepGraph::reference(&ModelConfig::tiny(), 0);
        assert!(g.ops.len() < 20_000);
        assert!(!g.ops.is_empty());
    }

    #[test]
    fn recycling_multiplies_forward_work() {
        let cfg = ModelConfig::paper();
        let g0 = StepGraph::reference(&cfg, 0);
        let g3 = StepGraph::reference(&cfg, 3);
        // Optimizer tail is fixed; three extra forwards add substantially.
        assert!(g3.ops.len() > g0.ops.len() + 30_000);
    }

    #[test]
    fn backward_contains_two_gemms_per_forward_gemm() {
        let cfg = ModelConfig::tiny();
        let g = StepGraph::reference(&cfg, 0);
        let fwd_gemms = g
            .ops
            .iter()
            .filter(|o| {
                matches!(
                    o.kind,
                    OpKind::Gemm | OpKind::ProjectionGemm | OpKind::AttentionGemm
                ) && !o.kernel.name.ends_with("grad")
            })
            .count();
        let bwd_gemms = g
            .ops
            .iter()
            .filter(|o| {
                matches!(
                    o.kind,
                    OpKind::Gemm | OpKind::ProjectionGemm | OpKind::AttentionGemm
                ) && o.kernel.name.ends_with("grad")
            })
            .count();
        assert_eq!(bwd_gemms, 2 * fwd_gemms);
    }

    #[test]
    fn checkpointing_adds_recompute_work() {
        let cfg = ModelConfig::paper();
        let plain = StepGraph::reference(&cfg, 1);
        let ckpt = StepGraph::reference_checkpointed(&cfg, 1);
        assert!(ckpt.ops.len() > plain.ops.len() + 10_000);
        let bytes = |g: &StepGraph| g.ops.iter().map(|o| o.kernel.bytes).sum::<f64>();
        assert!(bytes(&ckpt) > 1.15 * bytes(&plain));
    }

    #[test]
    fn block_activation_bytes_paper_scale() {
        // m: 128x256x256 f32 = 33.5 MB, z: 256x256x128 f32 = 33.5 MB.
        let b = block_activation_bytes(&ModelConfig::paper());
        assert!((60e6..80e6).contains(&b), "bytes {b}");
    }
}
