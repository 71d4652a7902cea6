//! The metric catalogue and the result line.
//!
//! `BENCHMARK.json` at the repository root lists the same names and
//! units; the `catalogue_matches_benchmark_json` test keeps the two in
//! step.

use std::collections::BTreeMap;

/// End-to-end metrics, printed by every untraced run (`--trace 0`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("device_ms", "model_ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by every traced run (`--trace 1`). A
/// layer a workload never enters reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("serve.submit_us", "us"),
    ("serve.queue_wait_us", "us"),
    ("serve.service_us", "us"),
    ("serve.wake_us", "us"),
    ("serve.completed", "count"),
    ("serve.failed", "count"),
    ("serve.rejected", "count"),
    ("serve.retried", "count"),
    ("serve.queue_high_water", "count"),
    ("registry.check_us", "us"),
    ("registry.register_us", "us"),
    ("registry.rejected", "count"),
    ("registry.evicted", "count"),
    ("cache.links_per_op", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.evictions", "count"),
    ("context.build_us", "us"),
    ("context.upload_us", "us"),
    ("context.dispatch_us", "us"),
    ("context.readback_us", "us"),
    ("context.unattributed_us", "us"),
    ("context.links_per_op", "count"),
    ("context.textures_created_per_op", "count"),
    ("context.pool_hit_ratio", "ratio"),
    ("context.f32_transfers_per_op", "count"),
    ("context.quant_transfers_per_op", "count"),
    ("resident.hit_ratio", "ratio"),
    ("codec.encode_ns_per_texel", "ns"),
    ("codec.decode_ns_per_texel", "ns"),
    ("shade.fragments_per_op", "count"),
    ("shade.ops_per_op", "count"),
    ("shade.ns_per_op", "ns"),
    ("shade.spmd_batches_per_op", "count"),
    ("shade.scalar_fallbacks_per_op", "count"),
    ("raster.band_speedup", "x"),
    ("perf.compile_ms", "model_ms"),
    ("perf.upload_ms", "model_ms"),
    ("perf.exec_ms", "model_ms"),
    ("perf.readback_ms", "model_ms"),
    ("perf.overhead_ms", "model_ms"),
    ("client.latency_p99_ms", "ms"),
    ("client.first_setup_s", "s"),
    ("client.samples", "count"),
    ("trace.overhead_pct", "%"),
];

/// Metric values of one run, by name.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    /// Sets `name`; the name must be in one of the catalogues.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(unit_of(name).is_some(), "metric `{name}` is not catalogued");
        self.0.insert(name, value);
    }

    /// The value of `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
}

/// The result line: `correct`, `attempted`, `failed` and the metrics of
/// the chosen catalogue, each with its unit.
///
/// # Errors
///
/// A catalogued metric that was never set, or one that is not finite.
pub fn result_line(
    metrics: &Metrics,
    catalogue: &[(&'static str, &'static str)],
    attempted: u64,
    failed: u64,
) -> Result<String, String> {
    let mut fields = Vec::with_capacity(catalogue.len());
    for (name, unit) in catalogue {
        let value = metrics
            .get(name)
            .ok_or_else(|| format!("metric `{name}` was not measured"))?;
        if !value.is_finite() {
            return Err(format!("metric `{name}` is {value}"));
        }
        fields.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        fields.join(", ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_every_metric_with_its_unit() {
        let mut m = Metrics::default();
        for (i, (name, _)) in END_TO_END.iter().enumerate() {
            m.set(name, i as f64 + 0.5);
        }
        let line = result_line(&m, END_TO_END, 10, 0).expect("complete");
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0, "));
        assert!(line.contains("\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}"));
        assert!(line.contains("\"peak_rss_mb\": {\"value\": 5.5, \"unit\": \"MB\"}"));
        let failing = result_line(&m, END_TO_END, 10, 2).expect("complete");
        assert!(failing.starts_with("{\"correct\": false,"));
    }

    #[test]
    fn missing_or_non_finite_metric_is_an_error() {
        let mut m = Metrics::default();
        assert!(result_line(&m, END_TO_END, 1, 0).is_err());
        for (name, _) in END_TO_END {
            m.set(name, 1.0);
        }
        m.set("device_ms", f64::NAN);
        assert!(result_line(&m, END_TO_END, 1, 0).is_err());
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = json.matches("\"unit\":").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len());
    }
}
