//! Simulated-timeline export: turns a [`Stream`] execution into an
//! `sf_trace::Trace`, so the *modeled* GPU timelines and the *real* CPU
//! training traces load in the same Chrome trace viewer.
//!
//! Lanes: `tid` [`TID_CPU`] is the CPU launch cursor, `tid` [`TID_GPU`] is
//! the GPU execution cursor — the two cursors whose interaction defines
//! the paper's "CPU overhead" factor. Gaps on the GPU lane while the CPU
//! lane is busy *are* the exposed launch overhead, now visible instead of
//! only aggregated in [`StreamStats::cpu_exposed_s`].

use crate::kernel::Kernel;
use crate::stream::{Stream, StreamStats};
use sf_trace::{SimTraceBuilder, Trace};

/// Thread lane of CPU launch spans in exported simulated traces.
pub const TID_CPU: u32 = 0;
/// Thread lane of GPU execution spans in exported simulated traces.
pub const TID_GPU: u32 = 1;

/// Process lane simulated timelines export under (`pid` 0 is the real
/// process).
pub const SIM_PID: u32 = 1;

/// Executes `kernels` eagerly on `stream` (the recurrence of
/// [`Stream::run_eager`]) while recording every launch and execution
/// interval. Returns the aggregate stats together with the timeline.
pub fn trace_eager(stream: &Stream, kernels: &[Kernel]) -> (StreamStats, Trace) {
    let gc_pause_s = stream.cpu().gc_pause_s;
    let launch = stream.kernel_launch_s();
    let mut b = SimTraceBuilder::new(SIM_PID);
    if gc_pause_s > 0.0 {
        b.span_s(TID_CPU, "gc_pause", 0.0, gc_pause_s);
    }
    let stats = stream.eager(kernels, &[], |i, launch_at, start, d| {
        b.span_s(TID_CPU, format!("launch[{i}]"), launch_at, launch);
        b.span_s(TID_GPU, kernels[i].name.clone(), start, d);
    });
    (stats, b.finish())
}

/// Executes `kernels` as a captured CUDA-graph replay (one launch, kernels
/// back-to-back — the recurrence of [`Stream::run_graph`]) while recording
/// the timeline.
pub fn trace_graph(stream: &Stream, kernels: &[Kernel]) -> (StreamStats, Trace) {
    let mut b = SimTraceBuilder::new(SIM_PID);
    b.span_s(TID_CPU, "graph_launch", 0.0, stream.graph_launch_s());
    let stats = stream.graph(kernels, |k, start, d| {
        b.span_s(TID_GPU, k.name.clone(), start, d);
    });
    (stats, b.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceSpec;
    use crate::stream::CpuModel;
    use sf_trace::EventKind;

    fn tiny_kernels(n: usize) -> Vec<Kernel> {
        (0..n)
            .map(|i| Kernel::memory(format!("k{i}"), 1e5, 64))
            .collect()
    }

    #[test]
    fn traced_eager_matches_run_eager_stats() {
        let s = Stream::new(DeviceSpec::a100(), CpuModel::contended(2.0));
        let ks = tiny_kernels(50);
        let (stats, trace) = trace_eager(&s, &ks);
        let reference = s.run_eager(&ks);
        assert!((stats.total_s - reference.total_s).abs() < 1e-12);
        assert!((stats.cpu_exposed_s - reference.cpu_exposed_s).abs() < 1e-12);
        // One launch span per kernel on the CPU lane, one exec span per
        // kernel on the GPU lane.
        let cpu_spans = trace.events.iter().filter(|e| e.tid == TID_CPU).count();
        let gpu_spans = trace.events.iter().filter(|e| e.tid == TID_GPU).count();
        assert_eq!(cpu_spans, 50);
        assert_eq!(gpu_spans, 50);
        assert!(trace.events.iter().all(|e| e.pid == SIM_PID));
    }

    #[test]
    fn traced_graph_matches_run_graph_stats() {
        let s = Stream::new(DeviceSpec::h100(), CpuModel::healthy());
        let ks = tiny_kernels(20);
        let (stats, trace) = trace_graph(&s, &ks);
        let reference = s.run_graph(&ks);
        assert!((stats.total_s - reference.total_s).abs() < 1e-12);
        // GPU spans are back-to-back: each starts where the previous ended.
        let gpu: Vec<_> = trace.events.iter().filter(|e| e.tid == TID_GPU).collect();
        for pair in gpu.windows(2) {
            assert!(pair[1].ts_us >= pair[0].ts_us, "sorted by start");
        }
    }

    #[test]
    fn gpu_lane_gaps_equal_exposed_cpu_time() {
        // On tiny kernels, eager execution starves the GPU: the sum of
        // gaps between consecutive GPU spans (plus the lead-in before the
        // first) must equal StreamStats::cpu_exposed_s.
        let s = Stream::new(DeviceSpec::a100(), CpuModel::healthy());
        let ks = tiny_kernels(100);
        let (stats, trace) = trace_eager(&s, &ks);
        let gpu: Vec<_> = trace.events.iter().filter(|e| e.tid == TID_GPU).collect();
        let mut gap_us = gpu[0].ts_us;
        for pair in gpu.windows(2) {
            gap_us += pair[1].ts_us.saturating_sub(pair[0].end_us());
        }
        let gap_s = gap_us as f64 * 1e-6;
        assert!(
            (gap_s - stats.cpu_exposed_s).abs()
                < 5e-5 * stats.total_s.max(1e-9) + 2e-6 * ks.len() as f64,
            "gaps {gap_s} vs exposed {}",
            stats.cpu_exposed_s
        );
    }

    #[test]
    fn simulated_trace_exports_and_reimports() {
        let s = Stream::new(DeviceSpec::h100(), CpuModel::healthy());
        let (_, trace) = trace_eager(&s, &tiny_kernels(10));
        let json = trace.to_chrome_json();
        let back = Trace::from_chrome_json(&json).expect("round trip");
        assert_eq!(back.events.len(), trace.events.len());
        assert!(back
            .events
            .iter()
            .all(|e| matches!(e.kind, EventKind::Complete { .. })));
    }
}
