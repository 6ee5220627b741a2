//! The traced run of the sweep workloads.
//!
//! A traced pass calls the per-cell stages itself, through the layers'
//! public functions and in the engine's order (key, lookup, instantiate,
//! semantic probe, schedule, validate, insert, flush, emit), and wraps
//! each call in a span. Its CSV must equal the untraced pass's CSV, which
//! checks that the traced pass does the work the engine does.

use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::path::Path;
use std::sync::{Arc, Mutex};

use stg_core::{Scheduler, SchedulerKind};
use stg_des::{relative_error, take_leap_telemetry, SimKind};
use stg_experiments::engine::{csv_header, csv_row, Record, SimChoice, SimMicros, SimRecord};
use stg_experiments::store::Outcome as CellOutcome;
use stg_experiments::{CellKey, ResultStore, StoreStats, SweepSpec, SCHEMA_VERSION};
use stg_fabric::{FabricRequest, OutputKind, StreamMerger};
use stg_workloads::WorkloadFamily;

use crate::common::dir_usage;
use crate::report::Outcome;
use crate::trace::{Total, Tracer};

/// Work counts of traced passes, summed over passes.
#[derive(Default)]
pub struct Counts {
    pub passes: u64,
    pub cells: u64,
    pub graphs_built: u64,
    pub cache_hits: u64,
    pub build_ns: u64,
    pub tasks_built: u64,
    pub plans: u64,
    pub tasks_scheduled: u64,
    pub blocks: u64,
    pub beats: u64,
    pub leaps: u64,
    pub leaped_cycles: u64,
    pub simulated_cycles: u64,
    pub store: StoreStats,
    pub flushes: u64,
    pub segment_files: u64,
    pub segment_bytes: u64,
    pub entries_written: u64,
    pub row_bytes: u64,
}

/// A key no grid cell has: probing it is the first store read after
/// opening, which is when the store builds its segment index.
fn probe_key() -> CellKey {
    CellKey::new(SCHEMA_VERSION, "stgbench-probe", 0, 0, "none", "off")
}

/// Opens the store at `dir` and probes it once, inside `store.open`.
fn open_store(dir: &Path, tr: &mut Tracer) -> (ResultStore, StoreStats) {
    tr.span("store.open", 0, |_| {
        let store = ResultStore::at_dir(dir).expect("open result store");
        let _ = store.lookup(&probe_key());
        let after_probe = store.stats();
        (store, after_probe)
    })
}

fn add_stats(total: &mut StoreStats, d: StoreStats) {
    total.hits += d.hits;
    total.misses += d.misses;
    total.invalidations += d.invalidations;
    total.evicted += d.evicted;
    total.repaired += d.repaired;
}

/// One traced sweep pass over `spec`, through a store at `store_dir`
/// when given. Returns the CSV.
pub fn sweep_pass(
    spec: &SweepSpec,
    store_dir: Option<&Path>,
    tr: &mut Tracer,
    n: &mut Counts,
) -> String {
    assert!(
        !spec.validate || spec.sim == SimChoice::Batched,
        "the traced pass validates with the batched simulator"
    );
    let _ = take_leap_telemetry();
    n.passes += 1;
    tr.span("pass", 0, |tr| {
        let store = store_dir.map(|d| open_store(d, tr));
        let cases = spec.cases();
        n.cells += cases.len() as u64;
        let sim_mode = spec.sim_mode();
        // Stage key: one spec rendering per run of cases sharing a
        // workload, as the engine does.
        let mut keys: Vec<Option<CellKey>> = Vec::with_capacity(cases.len());
        let mut spec_str = String::new();
        let mut spec_for = None;
        for c in &cases {
            if store.is_none() {
                keys.push(None);
                continue;
            }
            let key = tr.span("engine.key", c.index as u64, |_| {
                if spec_for != Some(&c.workload) {
                    spec_str = c.workload.spec();
                    spec_for = Some(&c.workload);
                }
                CellKey::new(
                    SCHEMA_VERSION,
                    &spec_str,
                    c.seed,
                    c.pes,
                    c.scheduler.alias(),
                    &sim_mode,
                )
            });
            keys.push(Some(key));
        }
        // Stage lookup.
        let mut slots: Vec<Option<CellOutcome>> = Vec::with_capacity(cases.len());
        for (c, key) in cases.iter().zip(&keys) {
            slots.push(match (&store, key) {
                (Some((s, _)), Some(k)) => tr.span("store.lookup", c.index as u64, |_| s.lookup(k)),
                _ => None,
            });
        }
        // Stage evaluate: only misses touch a graph or a scheduler.
        let mut schedulers: HashMap<(SchedulerKind, usize), Box<dyn Scheduler>> = HashMap::new();
        let mut persist: Vec<(usize, Option<CellKey>)> = Vec::new();
        for (i, c) in cases.iter().enumerate() {
            if slots[i].is_some() {
                continue;
            }
            let id = c.index as u64;
            let (g, hit) = tr.span("workloads.instantiate", id, |_| {
                c.workload.instantiate_traced(c.seed)
            });
            if hit {
                n.cache_hits += 1;
            } else {
                n.graphs_built += 1;
                n.tasks_built += g.compute_count() as u64;
                n.build_ns += tr.spans().last().map_or(0, |s| s.ns());
            }
            let semantic = store.as_ref().map(|_| {
                tr.span("engine.key", id, |_| {
                    CellKey::semantic(
                        SCHEMA_VERSION,
                        g.fingerprint(),
                        c.pes,
                        c.scheduler.alias(),
                        &sim_mode,
                    )
                })
            });
            if let (Some((s, _)), Some(sem)) = (&store, &semantic) {
                if let Some(o) = tr.span("store.repair_lookup", id, |_| s.lookup_repaired(sem)) {
                    slots[i] = Some(o);
                    persist.push((i, None));
                    continue;
                }
            }
            let scheduler = schedulers
                .entry((c.scheduler, c.pes))
                .or_insert_with(|| c.build_scheduler());
            let plan = tr.span("sched.schedule", id, |_| scheduler.schedule(&g));
            let outcome = plan.map(|plan| {
                n.plans += 1;
                n.tasks_scheduled += g.compute_count() as u64;
                n.blocks += plan.metrics().blocks as u64;
                let sim = spec.validate.then(|| {
                    let r = tr.span("des.validate", id, |_| {
                        plan.validate_with(&g, SimKind::Batched)
                    });
                    let leap = take_leap_telemetry();
                    n.leaps += leap.leaps;
                    n.leaped_cycles += leap.leaped_cycles;
                    n.beats += r.beats;
                    n.simulated_cycles += r.makespan;
                    SimRecord {
                        completed: r.completed(),
                        makespan: r.makespan,
                        rel_err_pct: if r.completed() {
                            100.0 * relative_error(plan.makespan(), r.makespan)
                        } else {
                            0.0
                        },
                        beats: r.beats,
                        diverged: false,
                        micros: SimMicros::default(),
                    }
                });
                Record {
                    metrics: *plan.metrics(),
                    buffer_elements: plan.buffers().map_or(0, |b| b.total_elements),
                    sim,
                }
            });
            slots[i] = Some(outcome);
            persist.push((i, semantic));
        }
        // Stage persist: nominal and semantic keys, then one flush.
        if let Some((s, after_probe)) = &store {
            for (i, semantic) in &persist {
                let key = keys[*i].as_ref().expect("stored cells have keys");
                let outcome = slots[*i].as_ref().expect("evaluated");
                tr.span("store.insert", *i as u64, |_| {
                    s.insert_batched(key, outcome);
                    if let Some(sem) = semantic {
                        s.insert_batched(sem, outcome);
                    }
                });
                n.entries_written += 1 + u64::from(semantic.is_some());
            }
            tr.span("store.flush", 0, |_| s.flush());
            add_stats(&mut n.store, s.stats().since(after_probe));
        }
        // Stage emit.
        let csv = tr.span("engine.emit", 0, |_| {
            let mut out = csv_header(false);
            for (c, o) in cases.iter().zip(&slots) {
                out.push_str(&csv_row(c, o.as_ref().expect("every slot filled"), false));
            }
            out
        });
        if let Some(dir) = store_dir {
            // Each traced pass starts from an empty directory, so every
            // file in it is a segment this pass flushed.
            let (files, bytes) = dir_usage(dir);
            n.flushes += files;
            n.segment_files += files;
            n.segment_bytes += bytes;
        }
        csv
    })
}

/// A `Write` sink that several owners can read back.
#[derive(Clone, Default)]
pub struct SharedBuf(pub Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().expect("buffer lock").extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

impl SharedBuf {
    /// The bytes written so far, as text.
    pub fn text(&self) -> String {
        String::from_utf8(self.0.lock().expect("buffer lock").clone()).expect("CSV is UTF-8")
    }
}

/// Cells per `rows` frame, as the fabric worker sends them.
const CHUNK_CELLS: usize = 32;

/// One traced fabric pass without sockets: the worker's store open, key
/// and lookup per cell, the `rows` frame encode, the coordinator's frame
/// decode and the stream merge that emits the CSV — lease by lease, in
/// the coordinator's lease size. Returns the merged CSV.
pub fn fabric_pass(spec: &SweepSpec, store_dir: &Path, tr: &mut Tracer, n: &mut Counts) -> String {
    n.passes += 1;
    let out = SharedBuf::default();
    tr.span("pass", 0, |tr| {
        let (store, after_probe) = open_store(store_dir, tr);
        let total = spec.total_cases();
        n.cells += total as u64;
        let lease_cells = (total / 32).clamp(1, 256);
        let sim_mode = spec.sim_mode();
        let mut merger =
            StreamMerger::new(spec.clone(), OutputKind::Csv, out.clone()).expect("open merger");
        let mut pos = 0;
        while pos < total {
            let lease_end = (pos + lease_cells).min(total);
            while pos < lease_end {
                let end = (pos + CHUNK_CELLS).min(lease_end);
                let mut rows = Vec::with_capacity(end - pos);
                for c in spec.cases_slice(pos..end) {
                    let id = c.index as u64;
                    let key = tr.span("engine.key", id, |_| {
                        CellKey::new(
                            SCHEMA_VERSION,
                            &c.workload.spec(),
                            c.seed,
                            c.pes,
                            c.scheduler.alias(),
                            &sim_mode,
                        )
                    });
                    let outcome = match tr.span("store.lookup", id, |_| store.lookup(&key)) {
                        Some(o) => o,
                        // A miss is reported by the store counters; the
                        // engine answers it so the merge can finish.
                        None => {
                            spec.run_cases(vec![c.clone()], Some(&store))
                                .runs
                                .remove(0)
                                .outcome
                        }
                    };
                    rows.push((c.index, outcome));
                }
                let frame = tr.span("fabric.encode", pos as u64, |_| {
                    FabricRequest::Rows {
                        lease: 0,
                        rows,
                        hits: 0,
                        misses: 0,
                        leap: Default::default(),
                    }
                    .frame()
                });
                n.row_bytes += frame.len() as u64 + 1;
                let rows = match tr.span("fabric.decode", pos as u64, |_| {
                    FabricRequest::parse(&frame)
                }) {
                    Ok(FabricRequest::Rows { rows, .. }) => rows,
                    other => panic!("rows frame did not round-trip: {other:?}"),
                };
                tr.span("fabric.merge", pos as u64, |_| {
                    for (index, outcome) in rows {
                        merger
                            .push(index, outcome)
                            .expect("rows merge exactly once");
                    }
                });
                pos = end;
            }
        }
        tr.span("fabric.merge", total as u64, |_| {
            merger.finish().expect("merge complete")
        });
        add_stats(&mut n.store, store.stats().since(&after_probe));
    });
    n.segment_files += dir_usage(store_dir).0;
    out.text()
}

/// Span totals summed over traced passes.
#[derive(Default)]
pub struct Spans {
    totals: BTreeMap<&'static str, Total>,
    pass_self_ns: u64,
    count: u64,
}

impl Spans {
    /// Adds one pass's tracer.
    pub fn absorb(&mut self, tr: &Tracer) {
        for (name, t) in tr.totals() {
            let e = self.totals.entry(name).or_default();
            e.ns += t.ns;
            e.calls += t.calls;
        }
        self.pass_self_ns += tr.self_ns("pass");
        self.count += tr.spans().len() as u64;
    }

    /// Summed total of one span name.
    pub fn get(&self, name: &str) -> Total {
        self.totals.get(name).copied().unwrap_or_default()
    }
}

/// Records the per-layer metrics of traced passes. Counts are per pass;
/// times are per cell, graph, call or task as their names say.
pub fn record(out: &mut Outcome, spans: &Spans, n: &Counts) {
    let t = |name: &str| spans.get(name);
    let passes = n.passes.max(1) as f64;
    let cells = n.cells.max(1) as f64;
    let per_pass = |v: u64| v as f64 / passes;
    let ratio = |a: f64, b: u64| if b == 0 { 0.0 } else { a / b as f64 };

    out.set(
        "workloads.instantiate_us_per_graph",
        ratio(n.build_ns as f64 / 1e3, n.graphs_built),
    );
    out.set(
        "workloads.build_ns_per_task",
        ratio(n.build_ns as f64, n.tasks_built),
    );
    out.set("workloads.graphs_built", per_pass(n.graphs_built));
    out.set("workloads.cache_hits", per_pass(n.cache_hits));

    let sched = t("sched.schedule");
    out.set("sched.schedule_us_per_cell", sched.us_per_call());
    out.set(
        "sched.schedule_ns_per_task",
        ratio(sched.ns as f64, n.tasks_scheduled),
    );
    out.set("sched.blocks_per_plan", ratio(n.blocks as f64, n.plans));

    let des = t("des.validate");
    out.set("des.validate_us_per_cell", des.us_per_call());
    out.set("des.beats_per_s", ratio(n.beats as f64 * 1e9, des.ns));
    out.set("des.beats", per_pass(n.beats));
    out.set("des.leaps", per_pass(n.leaps));
    out.set(
        "des.leaped_cycle_share",
        ratio(n.leaped_cycles as f64, n.simulated_cycles),
    );

    out.set("store.open_ms", t("store.open").us_per_call() / 1e3);
    out.set("store.lookup_us_per_cell", t("store.lookup").us_per_call());
    out.set(
        "store.repair_lookup_us",
        t("store.repair_lookup").us_per_call(),
    );
    out.set("store.insert_us_per_cell", t("store.insert").us_per_call());
    out.set("store.flush_ms", t("store.flush").us_per_call() / 1e3);
    out.set("store.flushes", per_pass(n.flushes));
    out.set("store.hits", per_pass(n.store.hits));
    out.set("store.misses", per_pass(n.store.misses));
    out.set("store.repaired", per_pass(n.store.repaired));
    out.set("store.evicted", per_pass(n.store.evicted));
    out.set(
        "store.bytes_per_cell",
        ratio(n.segment_bytes as f64, n.entries_written),
    );
    out.set("store.segment_files", per_pass(n.segment_files));

    out.set(
        "engine.key_us_per_cell",
        t("engine.key").ns as f64 / 1e3 / cells,
    );
    out.set(
        "engine.emit_us_per_cell",
        t("engine.emit").ns as f64 / 1e3 / cells,
    );
    out.set(
        "engine.self_us_per_cell",
        spans.pass_self_ns as f64 / 1e3 / cells,
    );

    out.set("fabric.row_bytes_per_cell", n.row_bytes as f64 / cells);
    out.set(
        "fabric.encode_us_per_cell",
        t("fabric.encode").ns as f64 / 1e3 / cells,
    );
    out.set(
        "fabric.decode_us_per_cell",
        t("fabric.decode").ns as f64 / 1e3 / cells,
    );
    out.set(
        "fabric.merge_us_per_cell",
        t("fabric.merge").ns as f64 / 1e3 / cells,
    );
    out.set("trace.spans_per_pass", spans.count as f64 / passes);
}
