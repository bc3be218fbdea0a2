//! The metric tables and the output lines. `BENCHMARK.json` at the
//! repository root lists the same names and units; a test keeps the two in
//! step.

use std::collections::BTreeMap;
use std::fmt::Write;

/// Metrics a user of the system sees, measured with telemetry off. The
/// median forecast and request times are no end-to-end metrics: on a host
/// whose speed flips between two modes a median lands on whichever mode
/// held most of the run. On a 2-vCPU Xeon host their quartiles over ten
/// runs lay up to 26% and 32% apart where the p90s' lay 9% and 13% apart.
/// The run record still reports both medians.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("train_windows_per_s", "windows/s"),
    ("forecast_ms.p90", "ms"),
    ("request_ms.p90", "ms"),
    ("requests_per_s", "req/s"),
    ("test_rmse", "mph"),
    ("peak_rss_mb", "MiB"),
];

/// Metrics of single layers, from the traced run. `.train` and `.infer`
/// name the phase a tensor-layer figure was taken in; per-window figures
/// divide by the windows of that phase.
pub const PER_LAYER: [(&str, &str); 49] = [
    ("synth.generate_s", "s"),
    ("problem.build_s", "s"),
    ("graph.spatial_adj_s", "s"),
    ("graph.a_s_nnz", "count"),
    ("graph.a_dtw_nnz", "count"),
    ("dtw.search_s", "s"),
    ("dtw.full_dtw", "count"),
    ("dtw.lb_keogh_pruned", "count"),
    ("dtw.lb_kim_pruned", "count"),
    ("dtw.prune_rate", "ratio"),
    ("pseudo.weights_s", "s"),
    ("masking.context_s", "s"),
    ("predictor.assets_s", "s"),
    ("train.gather_ms", "ms"),
    ("train.forward_ms", "ms"),
    ("train.backward_ms", "ms"),
    ("train.step_ms", "ms"),
    ("train.unattributed_ms", "ms"),
    ("train.unattributed_pct", "%"),
    ("kernel.conv1d_ms.train", "ms"),
    ("kernel.conv1d_bwd_ms", "ms"),
    ("kernel.matmul_ms.train", "ms"),
    ("kernel.addmm_ms.train", "ms"),
    ("tape.backward_ms", "ms"),
    ("kernel.conv1d_gflops.train", "GFLOP/s"),
    ("alloc.fresh_per_window.train", "count"),
    ("alloc.reused_per_window.train", "count"),
    ("pool.parallel_per_window.train", "count"),
    ("pool.inline_per_window.train", "count"),
    ("kernel.conv1d_ms.infer", "ms"),
    ("kernel.matmul_ms.infer", "ms"),
    ("kernel.addmm_ms.infer", "ms"),
    ("kernel.conv1d_gflops.infer", "GFLOP/s"),
    ("alloc.fresh_per_window.infer", "count"),
    ("alloc.reused_per_window.infer", "count"),
    ("pool.parallel_per_window.infer", "count"),
    ("pool.inline_per_window.infer", "count"),
    ("infer.unattributed_ms", "ms"),
    ("infer.unattributed_pct", "%"),
    ("trace.overhead_pct", "%"),
    ("serve.start_s", "s"),
    ("serve.queue_wait_ms.p50", "ms"),
    ("serve.compute_ms.p50", "ms"),
    ("serve.submit_us.p50", "us"),
    ("serve.ingest_us.p50", "us"),
    ("serve.imputed_per_request", "count"),
    ("serve.breaker_trips", "count"),
    ("forecast_ms.traced_p50", "ms"),
    ("forecast_ms.untraced_p50", "ms"),
];

/// Measured values by metric name.
#[derive(Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(&PER_LAYER).any(|(n, _)| *n == name),
            "{name} is in no metric table"
        );
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// The last line of a run — `correct`, `attempted`, `failed`, and every
/// metric of `table` with its unit — and whether the run was correct. A
/// metric that is missing or not finite makes the run incorrect and prints
/// as `null`.
pub fn result_line(
    mut correct: bool,
    attempted: u64,
    failed: u64,
    values: &Values,
    table: &[(&str, &str)],
) -> (bool, String) {
    let mut metrics = String::new();
    for (i, (name, unit)) in table.iter().enumerate() {
        let value = match values.get(name) {
            Some(v) if v.is_finite() => format!("{v:?}"),
            _ => {
                eprintln!("metric {name} was not measured");
                correct = false;
                "null".to_string()
            }
        };
        let sep = if i == 0 { "" } else { ", " };
        write!(metrics, "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            .expect("writing to a String");
    }
    let line = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{metrics}}}}}"
    );
    (correct, line)
}

/// A flat JSON object of already-formatted values.
pub fn object(fields: &[(&str, String)]) -> String {
    let body: Vec<String> = fields.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
    format!("{{{}}}", body.join(", "))
}

/// A JSON string literal.
pub fn quoted(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("String"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_match_benchmark_json() {
        let text = include_str!("../../BENCHMARK.json");
        let json: serde_json::Value = serde_json::from_str(text).expect("BENCHMARK.json parses");
        for (key, table) in [("end_to_end", &END_TO_END[..]), ("per_layer", &PER_LAYER[..])] {
            let listed: Vec<(String, String)> = json[key]
                .as_array()
                .expect("metric list")
                .iter()
                .map(|m| (m["name"].as_str().unwrap().into(), m["unit"].as_str().unwrap().into()))
                .collect();
            let ours: Vec<(String, String)> =
                table.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect();
            assert_eq!(listed, ours, "{key} differs from BENCHMARK.json");
        }
    }

    #[test]
    fn result_line_shape() {
        let mut v = Values::default();
        v.set("setup_s", 0.8125);
        let (correct, line) = result_line(true, 3, 0, &v, &[("setup_s", "s")]);
        assert!(correct);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {\"setup_s\": {\"value\": 0.8125, \"unit\": \"s\"}}}"
        );
        let (correct, missing) =
            result_line(true, 3, 0, &v, &[("setup_s", "s"), ("test_rmse", "mph")]);
        assert!(!correct && missing.starts_with("{\"correct\": false"));
        assert!(missing.contains("\"test_rmse\": {\"value\": null"));
    }

    #[test]
    fn quoting() {
        assert_eq!(quoted("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
