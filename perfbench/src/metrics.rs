//! The metric catalogue and the result line.
//!
//! `END_TO_END` and `PER_LAYER` mirror `BENCHMARK.json` (a test keeps
//! them equal). A timed run (`--trace 0`) prints exactly the end-to-end
//! metrics; the traced run (`--trace 1`) prints exactly the per-layer
//! ones, with 0 for a layer the workload does not exercise.

use std::collections::BTreeMap;

/// `(name, unit)` of every end-to-end metric.
pub const END_TO_END: [(&str, &str); 3] =
    [("setup_s", "s"), ("call_s", "s"), ("peak_rss_mib", "MiB")];

/// `(name, unit, better)` of every per-layer metric. Facts and
/// diagnostics (CPU count, kernel id) carry a nominal direction.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    // Host and build facts.
    ("host.cpus", "count", "higher"),
    ("runtime.workers", "count", "higher"),
    ("tensor.avx_available", "bool", "higher"),
    ("tensor.kernel.3-10", "kernel-id", "lower"),
    ("tensor.kernel.3-10.margin", "ratio", "higher"),
    ("bench.calls", "count", "higher"),
    ("bench.setups", "count", "higher"),
    // Set-up layers.
    ("runtime.pool_s", "s", "lower"),
    ("tensor.calibrate_s", "s", "lower"),
    ("mra.build_s", "s", "lower"),
    ("cluster.population_s", "s", "lower"),
    ("core.apply_cold_s", "s", "lower"),
    ("mra.h_cache_misses.cold", "count", "lower"),
    ("mra.h_cache_misses.steady", "count", "lower"),
    // Real Apply (apply-k10).
    ("core.apply_s", "s", "lower"),
    ("core.tasks", "count", "lower"),
    ("core.batches", "count", "lower"),
    ("core.gpu_tasks", "count", "lower"),
    ("gpusim.device_cache_hits", "count", "higher"),
    ("tensor.mtxmq_dispatches", "count", "lower"),
    ("tensor.gflop", "GFLOP-computed", "lower"),
    ("tensor.gflops_per_s", "GFLOP/s", "higher"),
    ("runtime.parked_s", "s", "lower"),
    ("runtime.steals", "count", "lower"),
    ("runtime.tasks", "count", "lower"),
    ("core.reference_s", "s", "lower"),
    ("core.serial_s", "s", "lower"),
    ("runtime.speedup", "x", "higher"),
    ("core.max_abs_err", "abs", "lower"),
    // Node pipeline walk (sim-table6).
    ("cluster.run_gpu_s", "s", "lower"),
    ("cluster.run_hybrid_s", "s", "lower"),
    ("cluster.run_faulty_s", "s", "lower"),
    ("cluster.sim_tasks", "count", "lower"),
    ("gpusim.batches", "count", "lower"),
    ("cluster.walk_ns_per_task", "ns", "lower"),
    ("faults.gpu_task_failures", "count", "lower"),
    ("cluster.makespan_s.hybrid", "sim-s", "lower"),
    // Event loops (sim-des).
    ("cluster.calibrate_s", "s", "lower"),
    ("cluster.calibrate_share", "ratio", "lower"),
    ("cluster.serve_s", "s", "lower"),
    ("cluster.serve_requests", "count", "higher"),
    ("cluster.serve_req_per_s", "1/s", "higher"),
    ("cluster.serve_steals", "count", "lower"),
    ("cluster.serve_hedges", "count", "lower"),
    ("cluster.serve_recovered", "count", "higher"),
    ("cluster.serve_p99_s", "sim-s", "lower"),
    ("cluster.dag_s", "s", "lower"),
    ("cluster.dag_tasks", "count", "higher"),
    ("cluster.dag_tasks_per_s", "1/s", "higher"),
    ("cluster.dag_attempts", "count", "lower"),
    ("cluster.dag_spec_copies", "count", "lower"),
    ("cluster.dag_makespan_s", "sim-s", "lower"),
    // Journal cost.
    ("trace.records", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
    // Span attribution of the steady call.
    ("core.self_s", "s", "lower"),
    ("cluster.self_s", "s", "lower"),
    ("bench.unattributed_s", "s", "lower"),
    // Span attribution of set-up.
    ("mra.setup_self_s", "s", "lower"),
    ("tensor.setup_self_s", "s", "lower"),
    ("runtime.setup_self_s", "s", "lower"),
    ("core.setup_self_s", "s", "lower"),
    ("cluster.setup_self_s", "s", "lower"),
    ("bench.setup_unattributed_s", "s", "lower"),
    // Tracing cost of the traced run itself.
    ("bench.call_s.traced", "s", "lower"),
    ("bench.call_s.untraced", "s", "lower"),
    ("bench.trace_overhead_s", "s", "lower"),
];

/// Named metric samples collected by a run; a metric's value is the
/// median of its samples.
#[derive(Default)]
pub struct Values(BTreeMap<String, Vec<f64>>);

impl Values {
    /// Replaces `name`'s samples with `value`.
    pub fn set(&mut self, name: &str, value: f64) {
        check_name(name);
        self.0.insert(name.to_string(), vec![value]);
    }

    /// Adds one sample of `name`.
    pub fn add(&mut self, name: &str, sample: f64) {
        check_name(name);
        self.0.entry(name.to_string()).or_default().push(sample);
    }

    /// The median of `name`'s samples, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).map(|xs| median(xs))
    }
}

fn check_name(name: &str) {
    debug_assert!(
        END_TO_END.iter().any(|(n, _)| *n == name) || PER_LAYER.iter().any(|(n, _, _)| *n == name),
        "{name} is not in the catalogue"
    );
}

/// The last line of standard output: outcome counts plus every metric
/// of the chosen catalogue (unset per-layer metrics read 0).
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    traced: bool,
    values: &Values,
) -> String {
    let catalogue: Vec<(&str, &str)> = if traced {
        PER_LAYER.iter().map(|(n, u, _)| (*n, *u)).collect()
    } else {
        END_TO_END.to_vec()
    };
    let body: Vec<String> = catalogue
        .iter()
        .map(|(name, unit)| {
            let v = values.get(name).unwrap_or(0.0);
            let v = if v.is_finite() { v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Median of `xs` (mean of the middle two for an even count); 0 if empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        let per_layer = PER_LAYER.iter().map(|(n, u, _)| (*n, *u));
        for (name, unit) in END_TO_END.iter().copied().chain(per_layer) {
            assert!(seen.insert(name), "duplicate {name}");
            assert!(name.len() <= 64 && unit.len() <= 16, "{name} {unit}");
            assert!(name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(PER_LAYER.len() <= 128);
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
        for (name, unit, better) in PER_LAYER {
            let entry =
                format!("\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}");
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for (name, unit) in END_TO_END {
            let entry = format!(
                "\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"lower\", \"bound\": "
            );
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = text.matches("\"unit\":").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len());
    }
}
