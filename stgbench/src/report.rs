//! The metric registry and the result line.
//!
//! `END_TO_END` and `PER_LAYER` are the single list of metric names and
//! units; `BENCHMARK.json` at the repository root mirrors them, and a
//! test keeps the two in step.

use std::collections::BTreeMap;

/// A metric's name and unit.
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// Metrics a user of the system sees, printed by every untraced run.
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s"),
    m("cells_per_s", "cells/s"),
    m("req_ms_p50", "ms"),
    m("peak_rss_mb", "MB"),
    m("speedup_vs_nonstreaming", "x"),
    m("utilization_mean", "fraction"),
    m("sslr_geomean", "x"),
    m("buffer_elements_mean", "elements"),
];

/// Metrics of single layers, printed by every traced run; a layer a
/// workload does not reach reports 0.
pub const PER_LAYER: &[MetricDef] = &[
    m("workloads.instantiate_us_per_graph", "us"),
    m("workloads.build_ns_per_task", "ns"),
    m("workloads.graphs_built", "count"),
    m("workloads.cache_hits", "count"),
    m("sched.schedule_us_per_cell", "us"),
    m("sched.schedule_ns_per_task", "ns"),
    m("sched.blocks_per_plan", "count"),
    m("sched.cells_below_depth", "count"),
    m("des.validate_us_per_cell", "us"),
    m("des.beats_per_s", "beats/s"),
    m("des.beats", "count"),
    m("des.leaps", "count"),
    m("des.leaped_cycle_share", "fraction"),
    m("store.open_ms", "ms"),
    m("store.lookup_us_per_cell", "us"),
    m("store.repair_lookup_us", "us"),
    m("store.insert_us_per_cell", "us"),
    m("store.flush_ms", "ms"),
    m("store.flushes", "count"),
    m("store.hits", "count"),
    m("store.misses", "count"),
    m("store.repaired", "count"),
    m("store.evicted", "count"),
    m("store.bytes_per_cell", "bytes"),
    m("store.segment_files", "count"),
    m("engine.key_us_per_cell", "us"),
    m("engine.emit_us_per_cell", "us"),
    m("engine.self_us_per_cell", "us"),
    m("service.handle_us_p50", "us"),
    m("service.handle_us_p99", "us"),
    m("service.wire_us_p50", "us"),
    m("service.eval_ms", "ms"),
    m("service.threads_peak", "count"),
    m("service.cache_hits", "count"),
    m("service.cache_repaired", "count"),
    m("service.req_ms_p99", "ms"),
    m("service.rss_growth_mb", "MB"),
    m("fabric.row_bytes_per_cell", "bytes"),
    m("fabric.encode_us_per_cell", "us"),
    m("fabric.decode_us_per_cell", "us"),
    m("fabric.merge_us_per_cell", "us"),
    m("fabric.leases_issued", "count"),
    m("fabric.leases_stolen", "count"),
    m("fabric.rows_duplicate", "count"),
    m("fabric.peak_buffered", "count"),
    m("fabric.lease_cells_final", "count"),
    m("trace.overhead_pct", "%"),
    m("trace.spans_per_pass", "count"),
];

/// What one workload run measured and checked.
#[derive(Default)]
pub struct Outcome {
    /// Operations (cells or requests) the timed passes attempted.
    pub attempted: u64,
    /// Attempted operations that failed (scheduling errors, error frames,
    /// rejections).
    pub failed: u64,
    /// Output-check failures; the run is correct when this is empty.
    pub problems: Vec<String>,
    /// Measured values by metric name.
    pub values: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Records a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Records an output-check failure unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    /// The result line: `correct`, `attempted`, `failed` and every metric
    /// of `defs` by name with its unit. Missing per-layer metrics read 0;
    /// a missing end-to-end metric is a bug in the workload.
    pub fn line(&self, defs: &[MetricDef], require_all: bool) -> String {
        let mut metrics = Vec::with_capacity(defs.len());
        for d in defs {
            let v = match self.values.get(d.name) {
                Some(v) => *v,
                None if require_all => panic!("workload did not measure {}", d.name),
                None => 0.0,
            };
            let v = if v.is_finite() { v } else { 0.0 };
            // `{:?}` prints the shortest form that reads back exactly,
            // e.g. `1e-7`, which is valid JSON.
            metrics.push(format!(
                "\"{}\":{{\"value\":{v:?},\"unit\":\"{}\"}}",
                d.name, d.unit
            ));
        }
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.problems.is_empty(),
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stg_service::json::{self, Json};

    fn listed(doc: &Json, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_array)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |f: &str| {
                    m.get(f)
                        .and_then(Json::as_str)
                        .expect("metric field")
                        .to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).expect("read BENCHMARK.json"))
            .expect("valid JSON");
        let registry = |defs: &[MetricDef]| -> Vec<(String, String)> {
            defs.iter()
                .map(|d| (d.name.to_string(), d.unit.to_string()))
                .collect()
        };
        assert_eq!(listed(&doc, "end_to_end"), registry(END_TO_END));
        assert_eq!(listed(&doc, "per_layer"), registry(PER_LAYER));
    }

    #[test]
    fn result_line_has_every_metric_with_its_unit() {
        let mut out = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        out.set("store.hits", 2.0);
        let line = out.line(PER_LAYER, false);
        let doc = json::parse(&line).expect("valid JSON");
        assert_eq!(doc.get("correct").and_then(Json::as_bool), Some(true));
        let metrics = doc
            .get("metrics")
            .and_then(Json::as_object)
            .expect("metrics");
        assert_eq!(metrics.len(), PER_LAYER.len());
        let hits = doc
            .get("metrics")
            .and_then(|m| m.get("store.hits"))
            .expect("store.hits");
        assert_eq!(hits.get("unit").and_then(Json::as_str), Some("count"));
    }
}
