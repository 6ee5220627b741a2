//! `fabric_warm`: the paper grid swept through an in-process coordinator
//! and one worker over loopback, every cell a store hit.

use std::path::Path;
use std::time::Duration;

use stg_experiments::{ResultStore, SweepSpec};
use stg_fabric::{run_worker, Coordinator, FabricConfig, FabricRunReport, WorkerConfig};
use stg_workloads::cache;

use crate::common::{peak_rss_mb, rate, remove_dir, time, timed_passes, RunArgs, Scratch, SETUPS};
use crate::design;
use crate::layers::{self, Counts, SharedBuf, Spans};
use crate::report::Outcome;
use crate::stats::median;
use crate::sweeps::paper_spec;
use crate::trace::Tracer;

/// Graphs per cell of the fabric's paper grid.
pub const FABRIC_GRAPHS: u64 = 80;

/// Fills an empty store at `dir` with every cell of `spec` (which is
/// single-threaded: with two threads, how many plans were alive at once
/// varied, and peak memory with it), then empties the graph cache.
fn fill(spec: &SweepSpec, dir: &Path) {
    cache::clear();
    let store = ResultStore::at_dir(dir).expect("open result store");
    spec.run_with(Some(&store));
    cache::clear();
}

/// One distributed sweep: bind a coordinator, start one worker thread
/// against it, merge every row, join the worker.
fn pass(spec: &SweepSpec, dir: &Path) -> Result<(FabricRunReport, String, Duration), String> {
    let (result, d) = time(|| {
        let config = FabricConfig {
            cache_dir: Some(dir.to_path_buf()),
            ..FabricConfig::default()
        };
        let coordinator = Coordinator::bind(spec.clone(), config)?;
        let worker_config = WorkerConfig {
            addr: coordinator.addr().to_string(),
            threads: Some(1),
            name: "stgbench".into(),
            ..WorkerConfig::default()
        };
        let worker = std::thread::spawn(move || run_worker(worker_config));
        let out = SharedBuf::default();
        let report = coordinator.run(out.clone());
        let worker = worker
            .join()
            .map_err(|_| "worker thread panicked".to_string())?;
        let report = report?;
        worker?;
        Ok::<_, String>((report, out.text()))
    });
    result.map(|(r, csv)| (r, csv, d))
}

pub fn run(args: &RunArgs) -> Outcome {
    let mut out = Outcome::default();
    let spec = paper_spec(args.seed, FABRIC_GRAPHS, args.quick, 1);
    let cells = spec.total_cases() as u64;
    let mut scratch = Scratch::new(&args.workload).expect("create scratch directory");

    // Set-up: fill a store, then one distributed pass through a
    // coordinator and a loopback worker, checked here.
    let setups = if args.trace { 1 } else { SETUPS };
    let mut setup_s = Vec::new();
    let mut dir = scratch.fresh_dir("store");
    let mut last: Option<FabricRunReport> = None;
    let mut csv = String::new();
    for i in 0..setups {
        if i > 0 {
            remove_dir(&dir);
            dir = scratch.fresh_dir("store");
        }
        let (result, t) = time(|| {
            fill(&spec, &dir);
            pass(&spec, &dir)
        });
        let (report, distributed_csv, _) = match result {
            Ok(r) => r,
            Err(e) => {
                out.check(false, || format!("distributed pass failed: {e}"));
                return out;
            }
        };
        setup_s.push(t.as_secs_f64());
        let c = report.counters;
        out.check(
            report.merge.tallies.errors == 0 && c.cache_misses == 0 && c.cache_hits == cells,
            || {
                format!(
                    "fabric store traffic: {} hits, {} misses, {} errors for {cells} cells",
                    c.cache_hits, c.cache_misses, report.merge.tallies.errors
                )
            },
        );
        csv = distributed_csv;
        last = Some(report);
    }

    // Timed passes: the fabric's per-cell pipeline in process, in the
    // order a lease goes through it — the worker's key, store lookup and
    // `rows` frame encode, the coordinator's decode and `StreamMerger`
    // push. Passes through the coordinator and a loopback worker spread
    // 31% between identical runs here (threads, sockets and per-pass
    // store open waiting on the host), against the bound of 25%.
    let mut attempted = 0;
    let secs = timed_passes(args.budget(), 3, || {
        let (pass_csv, t) = time(|| {
            layers::fabric_pass(&spec, &dir, &mut Tracer::disabled(), &mut Counts::default())
        });
        attempted += cells;
        out.check(pass_csv == csv, || {
            "an in-process pass's merged CSV differs from the distributed pass's".into()
        });
        t
    });
    out.attempted = attempted;

    if args.trace {
        let mut spans = Spans::default();
        let mut counts = Counts::default();
        let mut tr_last = Tracer::new();
        // The sockets have no span boundary to cut, so the overhead is
        // measured against the same in-process pipeline with spans off,
        // alternating the two.
        let mut untraced = Vec::new();
        let traced = timed_passes(args.budget() / 2, 2, || {
            let mut off = Tracer::disabled();
            let (_, t_off) =
                time(|| layers::fabric_pass(&spec, &dir, &mut off, &mut Counts::default()));
            untraced.push(t_off.as_secs_f64());
            let mut tr = Tracer::new();
            let (traced_csv, t) = time(|| layers::fabric_pass(&spec, &dir, &mut tr, &mut counts));
            out.check(traced_csv == csv, || {
                "the traced pass's merged CSV differs from the fabric's".into()
            });
            spans.absorb(&tr);
            tr_last = tr;
            t
        });
        layers::record(&mut out, &spans, &counts);
        if let Some(r) = last {
            let c = r.counters;
            out.set("fabric.leases_issued", c.leases_issued as f64);
            out.set("fabric.leases_stolen", c.leases_stolen as f64);
            out.set("fabric.rows_duplicate", c.rows_duplicate as f64);
            out.set("fabric.peak_buffered", r.merge.peak_buffered as f64);
            out.set("fabric.lease_cells_final", c.lease_cells_current as f64);
        }
        out.set(
            "trace.overhead_pct",
            100.0 * (median(&traced) / median(&untraced) - 1.0),
        );
        if let Err(e) = tr_last.write_jsonl(&args.trace_out) {
            eprintln!(
                "stgbench: writing spans to {}: {e}",
                args.trace_out.display()
            );
        }
    } else {
        out.set("setup_s", median(&setup_s));
        out.set("cells_per_s", rate(cells, &secs));
        out.set("req_ms_p50", 1e3 * median(&secs));
        out.set("peak_rss_mb", peak_rss_mb());
        design::record(&mut out, &design::rows_from_csv(&csv));
    }

    // The merged CSV equals an in-process storeless sweep.
    cache::clear();
    let mut reference = spec.clone();
    reference.threads = Some(args.threads());
    let expected = reference.run().to_csv();
    out.check(expected == csv, || {
        "merged CSV differs from the in-process storeless sweep".into()
    });
    out
}
