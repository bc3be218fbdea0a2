//! Per-layer figures of a traced run. Two sources feed them: the
//! benchmark's own timings around public calls into each layer, and the
//! spans and counters the program records when telemetry is on. No
//! quantile is taken from the program's histograms, whose log2 buckets
//! bound a quantile only within 2x.

use crate::phases::{seconds_since, Checks};
use crate::report::Values;
use std::fmt::Write;
use std::time::Instant;
use stsm_core::{
    pseudo_weights_for, DtwContext, InferAssets, MaskingContext, ProblemInstance, StsmConfig,
};
use stsm_graph::{normalize_gcn, CsrLinMap};
use stsm_tensor::telemetry::TelemetryReport;

/// Every kernel span the program records; their sum is the window time
/// attributed to kernels.
const KERNEL_SPANS: [&str; 7] = [
    "kernel.conv1d",
    "kernel.conv1d_bwd",
    "kernel.matmul",
    "kernel.bmm",
    "kernel.addmm",
    "kernel.softmax",
    "kernel.log_softmax",
];

fn span_ms(r: &TelemetryReport, name: &str) -> f64 {
    r.spans.get(name).map_or(0.0, |s| s.total_nanos as f64 / 1e6)
}

fn span_calls(r: &TelemetryReport, name: &str) -> u64 {
    r.spans.get(name).map_or(0, |s| s.calls)
}

fn counter(r: &TelemetryReport, name: &str) -> f64 {
    r.counters.get(name).copied().unwrap_or(0) as f64
}

fn kernel_ms(r: &TelemetryReport) -> f64 {
    KERNEL_SPANS.iter().map(|k| span_ms(r, k)).sum()
}

/// Floating-point operations of one forward pass's dilated convolutions
/// over `nodes` nodes: per block, two kernel-2 causal convolutions of
/// `hidden → hidden` channels with dilations `2^(2l)` and `2^(2l+1)`
/// (capped at `t_in / 2`). A tap shifted by `s` touches `t_in - s` steps,
/// and each touch is a multiply and an add.
pub fn conv1d_flops_per_forward(cfg: &StsmConfig, nodes: usize) -> f64 {
    let (t, h) = (cfg.t_in, cfg.hidden);
    let cap = (t.max(2) / 2).max(1);
    let mut flops = 0.0;
    for l in 0..cfg.blocks {
        for d in [(1usize << (2 * l)).min(cap), (1usize << (2 * l + 1)).min(cap)] {
            let touched = t + t.saturating_sub(d);
            flops += 2.0 * (nodes * h * h * touched) as f64;
        }
    }
    flops
}

/// GFLOP/s of the `kernel.conv1d` span, counting forward passes from its
/// calls (two convolutions per block per forward).
fn conv1d_gflops(r: &TelemetryReport, cfg: &StsmConfig, nodes: usize) -> f64 {
    let forwards = span_calls(r, "kernel.conv1d") as f64 / (2 * cfg.blocks) as f64;
    forwards * conv1d_flops_per_forward(cfg, nodes) / (span_ms(r, "kernel.conv1d") * 1e6)
}

/// Training-phase figures, per training window (the optimizer step per
/// batch). `expected_windows` is what the benchmark counted from the
/// configuration; the `train.gather` span must agree.
pub fn train_layers(
    r: &TelemetryReport,
    cfg: &StsmConfig,
    n_observed: usize,
    expected_windows: usize,
    v: &mut Values,
    checks: &mut Checks,
    text: &mut String,
) {
    let windows = span_calls(r, "train.gather") as f64;
    checks.require(windows as usize == expected_windows, || {
        format!("train.gather counted {windows} windows, the benchmark {expected_windows}")
    });
    let per = |ms: f64| ms / windows;
    let (gather, fwd, bwd) =
        (span_ms(r, "train.gather"), span_ms(r, "train.forward"), span_ms(r, "train.backward"));
    let kernels = kernel_ms(r);
    let unattributed = fwd + bwd - kernels;
    v.set("train.gather_ms", per(gather));
    v.set("train.forward_ms", per(fwd));
    v.set("train.backward_ms", per(bwd));
    v.set("train.step_ms", span_ms(r, "train.step") / span_calls(r, "train.step") as f64);
    v.set("train.unattributed_ms", per(unattributed));
    v.set("train.unattributed_pct", 100.0 * unattributed / (fwd + bwd));
    v.set("kernel.conv1d_ms.train", per(span_ms(r, "kernel.conv1d")));
    v.set("kernel.conv1d_bwd_ms", per(span_ms(r, "kernel.conv1d_bwd")));
    v.set("kernel.matmul_ms.train", per(span_ms(r, "kernel.matmul")));
    v.set("kernel.addmm_ms.train", per(span_ms(r, "kernel.addmm")));
    v.set("tape.backward_ms", per(span_ms(r, "tape.backward")));
    v.set("kernel.conv1d_gflops.train", conv1d_gflops(r, cfg, n_observed));
    v.set("alloc.fresh_per_window.train", per(counter(r, "alloc.fresh")));
    v.set("alloc.reused_per_window.train", per(counter(r, "alloc.reused")));
    v.set("pool.parallel_per_window.train", per(counter(r, "pool.region.parallel")));
    v.set("pool.inline_per_window.train", per(counter(r, "pool.region.inline")));
    let ms = |name: &str| per(span_ms(r, name));
    let tape = ms("tape.backward");
    let fwd_kernels =
        ["kernel.conv1d", "kernel.addmm", "kernel.bmm", "kernel.softmax", "kernel.log_softmax"];
    let bwd_kernels = ["kernel.conv1d_bwd", "kernel.matmul"];
    let sum = |names: &[&str]| names.iter().map(|k| ms(k)).sum::<f64>();
    let _ = writeln!(text, "training, per window over {windows} windows (ms):");
    line(text, 1, "train.gather", per(gather));
    line(text, 1, "train.forward", per(fwd));
    kernel_lines(r, &fwd_kernels, windows, 2, text);
    line(text, 2, "self", per(fwd) - sum(&fwd_kernels));
    line(text, 1, "train.backward", per(bwd));
    line(text, 2, "tape.backward", tape);
    kernel_lines(r, &bwd_kernels, windows, 3, text);
    line(text, 3, "self", tape - sum(&bwd_kernels));
    line(text, 2, "self", per(bwd) - tape);
    let pct = 100.0 * unattributed / (fwd + bwd);
    let _ = writeln!(
        text,
        "  {:<28}{:>9.3}  ({pct:.1}% of forward + backward)",
        "unattributed",
        per(unattributed)
    );
    let step = span_ms(r, "train.step") / span_calls(r, "train.step") as f64;
    line(text, 1, "train.step (per batch)", step);
    let _ = writeln!(
        text,
        "  (kernel.matmul sits under backward: forward calls it only for the contrastive \
         similarity, one small product per batch)"
    );
}

/// One aligned line of the report tree.
fn line(text: &mut String, depth: usize, name: &str, ms: f64) {
    let indent = "  ".repeat(depth);
    let _ = writeln!(text, "{indent}{name:<w$}{ms:>9.3}", w = 30 - indent.len());
}

/// Forecast-phase figures, per traced forecast window. `window_ms` holds
/// the benchmark's wall time of each traced window; the unattributed
/// remainder is that time not covered by any kernel span.
pub fn infer_layers(
    r: &TelemetryReport,
    cfg: &StsmConfig,
    nodes: usize,
    traced_ms: &[f64],
    untraced_ms: &[f64],
    v: &mut Values,
    text: &mut String,
) {
    let windows = traced_ms.len() as f64;
    let per = |ms: f64| ms / windows;
    let wall: f64 = traced_ms.iter().sum();
    let unattributed = wall - kernel_ms(r);
    let (traced, untraced) = (crate::stats::median(traced_ms), crate::stats::median(untraced_ms));
    v.set("kernel.conv1d_ms.infer", per(span_ms(r, "kernel.conv1d")));
    v.set("kernel.matmul_ms.infer", per(span_ms(r, "kernel.matmul")));
    v.set("kernel.addmm_ms.infer", per(span_ms(r, "kernel.addmm")));
    v.set("kernel.conv1d_gflops.infer", conv1d_gflops(r, cfg, nodes));
    v.set("alloc.fresh_per_window.infer", per(counter(r, "alloc.fresh")));
    v.set("alloc.reused_per_window.infer", per(counter(r, "alloc.reused")));
    v.set("pool.parallel_per_window.infer", per(counter(r, "pool.region.parallel")));
    v.set("pool.inline_per_window.infer", per(counter(r, "pool.region.inline")));
    v.set("infer.unattributed_ms", per(unattributed));
    v.set("infer.unattributed_pct", 100.0 * unattributed / wall);
    v.set("forecast_ms.traced_p50", traced);
    v.set("forecast_ms.untraced_p50", untraced);
    v.set("trace.overhead_pct", 100.0 * (traced / untraced - 1.0));
    let forward = r.histograms.get("infer.window").map_or(0.0, |h| h.total_nanos as f64 / 1e6);
    let _ = writeln!(text, "forecast, per traced window over {windows} windows (ms):");
    line(text, 1, "window (benchmark)", per(wall));
    line(text, 2, "input assembly", per(wall - forward));
    line(text, 2, "infer.window", per(forward));
    kernel_lines(r, &KERNEL_SPANS, windows, 3, text);
    line(text, 3, "self", per(forward - kernel_ms(r)));
    let pct = 100.0 * unattributed / wall;
    let _ = writeln!(
        text,
        "  {:<28}{:>9.3}  ({pct:.1}% of the window)",
        "unattributed",
        per(unattributed)
    );
    let _ = writeln!(
        text,
        "  tracing overhead: window p50 {traced:.3} ms traced vs {untraced:.3} ms untraced \
         ({:+.1}%), alternate windows of the same passes",
        100.0 * (traced / untraced - 1.0)
    );
}

fn kernel_lines(
    r: &TelemetryReport,
    names: &[&str],
    windows: f64,
    depth: usize,
    text: &mut String,
) {
    for &k in names {
        if span_calls(r, k) > 0 {
            line(text, depth, k, span_ms(r, k) / windows);
        }
    }
}

/// Times the benchmark's own calls into each set-up layer on `problem`:
/// the spatial adjacency, the DTW neighbour search, the pseudo-observation
/// weights, the masking context and the inference assets. Returns the
/// density of the thresholded spatial adjacency, before self-loops.
pub fn probe_layers(problem: &ProblemInstance, cfg: &StsmConfig, v: &mut Values) -> f64 {
    let n = problem.n();
    let all: Vec<usize> = (0..n).collect();
    let t = Instant::now();
    let raw = problem.spatial_adjacency(&all, cfg.epsilon_s);
    let a_s = CsrLinMap::new(normalize_gcn(&raw));
    v.set("graph.spatial_adj_s", seconds_since(t));
    v.set("graph.a_s_nnz", a_s.matrix().nnz() as f64);
    let t = Instant::now();
    let q = cfg.q_kk.max(cfg.q_ku);
    let dtw =
        DtwContext::with_options(problem, cfg.dtw_band, cfg.dtw_downsample, cfg.dtw_candidates, q);
    v.set("dtw.search_s", seconds_since(t));
    let stats = dtw.prune_stats();
    let (kim, keogh, full) =
        (stats.lb_kim_pruned as f64, stats.lb_keogh_pruned as f64, stats.full_dtw as f64);
    v.set("dtw.full_dtw", full);
    v.set("dtw.lb_keogh_pruned", keogh);
    v.set("dtw.lb_kim_pruned", kim);
    v.set("dtw.prune_rate", (kim + keogh) / (kim + keogh + full));
    let t = Instant::now();
    let pw = pseudo_weights_for(problem, &problem.unobserved, &problem.observed);
    v.set("pseudo.weights_s", seconds_since(t));
    let a_dtw = normalize_gcn(&dtw.test_adjacency(
        n,
        &problem.observed,
        &problem.unobserved,
        &pw,
        cfg.q_kk,
        cfg.q_ku,
    ));
    v.set("graph.a_dtw_nnz", a_dtw.nnz() as f64);
    let t = Instant::now();
    let masking = MaskingContext::new(problem, cfg.epsilon_sg, cfg.mask_ratio, cfg.top_k);
    v.set("masking.context_s", seconds_since(t));
    drop(masking);
    let t = Instant::now();
    let assets = InferAssets::new(cfg, problem);
    v.set("predictor.assets_s", seconds_since(t));
    drop(assets);
    raw.density()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conv1d_flops_by_hand() {
        // T = 12, hidden 16, two blocks: dilations 1, 2 then 4, 8 capped to
        // 6. Kernel 2 touches T + (T - d) steps: 23 + 22 + 20 + 18 = 83.
        let cfg = StsmConfig { t_in: 12, t_out: 12, hidden: 16, blocks: 2, ..Default::default() };
        assert_eq!(conv1d_flops_per_forward(&cfg, 1), 2.0 * 256.0 * 83.0);
        assert_eq!(conv1d_flops_per_forward(&cfg, 10), 10.0 * 2.0 * 256.0 * 83.0);
    }
}
