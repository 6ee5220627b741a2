//! Statistics of the modelled design: what the schedules promise, as the
//! paper reports it. They are computed from the program's outputs (the
//! sweep CSV or service responses), so they repeat exactly for a seed.

use std::collections::HashMap;

use stg_core::SchedulerKind;

use crate::report::Outcome;
use crate::stats::{geomean, mean};

/// One scheduled cell, as read from an output row.
pub struct Row {
    /// The graph and machine: workload, seed and PE count.
    pub graph: (String, u64, u64),
    /// False for the buffered (non-streaming) baseline.
    pub streaming: bool,
    pub makespan: u64,
    pub sslr: f64,
    pub utilization: f64,
    pub buffer_elements: u64,
}

/// Parses the successfully scheduled rows of a sweep CSV.
pub fn rows_from_csv(csv: &str) -> Vec<Row> {
    let baseline = SchedulerKind::NonStreaming.to_string();
    csv.lines()
        .skip(1)
        .filter_map(|line| {
            let f: Vec<&str> = line.split(',').collect();
            if f.len() < 13 || f[5] != "ok" {
                return None;
            }
            Some(Row {
                graph: (f[0].to_string(), f[3].parse().ok()?, f[2].parse().ok()?),
                streaming: f[4] != baseline,
                makespan: f[6].parse().ok()?,
                sslr: f[8].parse().ok()?,
                utilization: f[10].parse().ok()?,
                buffer_elements: f[12].parse().ok()?,
            })
        })
        .collect()
}

/// Records the four design metrics of `rows`:
/// - `speedup_vs_nonstreaming`: geometric mean, over streaming cells, of
///   the buffered makespan divided by the streaming makespan for the same
///   graph and PEs;
/// - `utilization_mean`, `sslr_geomean` and `buffer_elements_mean` over
///   the streaming plans.
pub fn record(out: &mut Outcome, rows: &[Row]) {
    let baseline: HashMap<&(String, u64, u64), u64> = rows
        .iter()
        .filter(|r| !r.streaming)
        .map(|r| (&r.graph, r.makespan))
        .collect();
    let streaming: Vec<&Row> = rows.iter().filter(|r| r.streaming).collect();
    let speedups: Vec<f64> = streaming
        .iter()
        .filter_map(|r| Some(*baseline.get(&r.graph)? as f64 / r.makespan as f64))
        .collect();
    out.check(!speedups.is_empty(), || {
        "no streaming cell has a buffered baseline to compare with".into()
    });
    out.set("speedup_vs_nonstreaming", geomean(&speedups));
    out.set(
        "utilization_mean",
        mean(&streaming.iter().map(|r| r.utilization).collect::<Vec<_>>()),
    );
    out.set(
        "sslr_geomean",
        geomean(&streaming.iter().map(|r| r.sslr).collect::<Vec<_>>()),
    );
    out.set(
        "buffer_elements_mean",
        mean(
            &streaming
                .iter()
                .map(|r| r.buffer_elements as f64)
                .collect::<Vec<_>>(),
        ),
    );
}
