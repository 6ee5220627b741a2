//! `service_mix`: four closed-loop clients against an in-process daemon
//! restarted over the store its first lifetime left, sending a seeded mix
//! of exact repeats (warm hits), seed deltas of stored graphs (plan
//! repairs) and fresh cells (cold, validated).

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use stg_experiments::store::{decode_outcome, encode_outcome};
use stg_experiments::{ResultStore, StoreStats};
use stg_service::protocol::{parse_response, PlanResponse, Response};
use stg_service::{Daemon, PlanRequest, Service, ServiceConfig};
use stg_workloads::{cache, WorkloadFamily};

use crate::common::{dir_usage, peak_rss_mb, rss_mb, threads_now, time, RunArgs, Scratch, SETUPS};
use crate::design::{self, Row};
use crate::report::Outcome;
use crate::stats::{median, percentile_sorted};
use crate::trace::Tracer;

/// Closed-loop clients, twice the daemon's workers. A request hops
/// through four threads (client, connection reader, worker, connection
/// writer); with one client per worker the two vCPUs idled about 45% of
/// the window and the rate followed the host's thread wake-up latency
/// (10.5k–22.6k requests/s in runs interleaved with 23.3k–34.0k for four
/// clients).
const CLIENTS: usize = 4;
/// Daemon worker threads: one per vCPU of the machine this was tuned on.
const WORKERS: usize = 2;
/// Requests each client sends in the discarded warm-up.
const WARMUP_REQUESTS: usize = 300;
/// Share of the mix, in requests per 10 000, of plan repairs and of cold
/// cells; the rest are exact repeats.
const REPAIR_PER_10K: u32 = 4;
const COLD_PER_10K: u32 = 6;
/// One request in this many is checked against a direct engine run.
const CHECK_EVERY: u64 = 1000;

/// Validated synthetic cells of the repeat set: (workload, PEs).
const SYNTHETIC: &[(&str, usize)] = &[
    ("chain:8", 4),
    ("chain:8", 8),
    ("fft:32", 32),
    ("gauss:16", 32),
    ("chol:8", 32),
];
/// Families of the cold cells. `chain:8` is left out: its 8-task graphs
/// repeat across seeds (most fresh seeds rebuild an already stored
/// fingerprint), so a fresh chain seed is a repair, not a cold cell.
const COLD: &[(&str, usize)] = &[("fft:32", 32), ("gauss:16", 32), ("chol:8", 32)];
/// Seed-invariant cells (scheduled without simulation) whose seed deltas
/// are repaired from the stored graph fingerprint.
const REPAIRABLE: &[(&str, usize)] = &[("transformer", 256), ("transformer", 512)];
/// Seeds per synthetic cell in the repeat set.
const BASE_SEEDS: u64 = 4;
const SCHEDULERS: &[&str] = &["sb-lts", "sb-rlx", "nonstreaming"];

/// What the generator drew for a request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Repeat,
    Repair,
    Cold,
}

fn request(
    id: u64,
    workload: &str,
    seed: u64,
    pes: usize,
    scheduler: &str,
    validate: bool,
) -> PlanRequest {
    PlanRequest {
        id,
        workload: workload.parse().expect("registered workload"),
        seed,
        pes,
        scheduler: scheduler.parse().expect("registered scheduler"),
        sim: (if validate { "batched" } else { "off" })
            .parse()
            .expect("sim mode"),
        tenant: String::new(),
    }
}

/// The cells the daemon's first lifetime evaluates: every synthetic cell
/// at seeds `0..BASE_SEEDS` and every repairable cell at seed 0, under
/// every scheduler. Exact repeats draw from this set. It is the same for
/// every run seed, so the design metrics of its answers repeat exactly;
/// the run seed draws the request sequence.
pub fn base_set() -> Vec<PlanRequest> {
    let mut out = Vec::new();
    for &(w, pes) in SYNTHETIC {
        for s in 0..BASE_SEEDS {
            for sched in SCHEDULERS {
                out.push(request(out.len() as u64, w, s, pes, sched, true));
            }
        }
    }
    for &(w, pes) in REPAIRABLE {
        for sched in SCHEDULERS {
            out.push(request(out.len() as u64, w, 0, pes, sched, false));
        }
    }
    out
}

/// One client's seeded request generator.
pub struct Mix {
    base: Arc<Vec<PlanRequest>>,
    rng: StdRng,
    client: u64,
    run_seed: u64,
    fresh: u64,
    next_id: u64,
}

impl Mix {
    pub fn new(base: Arc<Vec<PlanRequest>>, run_seed: u64, client: u64) -> Mix {
        Mix {
            base,
            rng: StdRng::seed_from_u64(run_seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (client + 1)),
            client,
            run_seed,
            fresh: 0,
            next_id: 0,
        }
    }

    /// A seed no earlier request of this run used: the clients draw from
    /// disjoint sequences far above the repeat set's seeds.
    fn fresh_seed(&mut self) -> u64 {
        self.fresh += 1;
        (1 << 40) + (self.run_seed << 20) + self.fresh * CLIENTS as u64 + self.client
    }

    /// The next request and what it should do to the store.
    pub fn next(&mut self) -> (Kind, PlanRequest) {
        self.next_id += 1;
        let id = (self.client + 1) * 1_000_000_000 + self.next_id;
        let roll = self.rng.gen_range(0..10_000u32);
        if roll < REPAIR_PER_10K {
            let (w, pes) = REPAIRABLE[self.rng.gen_range(0..REPAIRABLE.len())];
            let sched = SCHEDULERS[self.rng.gen_range(0..SCHEDULERS.len())];
            let seed = self.fresh_seed();
            (Kind::Repair, request(id, w, seed, pes, sched, false))
        } else if roll < REPAIR_PER_10K + COLD_PER_10K {
            let (w, pes) = COLD[self.rng.gen_range(0..COLD.len())];
            let sched = SCHEDULERS[self.rng.gen_range(0..SCHEDULERS.len())];
            let seed = self.fresh_seed();
            (Kind::Cold, request(id, w, seed, pes, sched, true))
        } else {
            let mut r = self.base[self.rng.gen_range(0..self.base.len())].clone();
            r.id = id;
            (Kind::Repeat, r)
        }
    }
}

/// One client's record of the timed window, in send order. The requests
/// themselves are not kept — the generator re-draws them from the seed —
/// so the benchmark's own memory stays small next to the daemon's.
#[derive(Default)]
struct Log {
    /// Send time of each request since the window opened, in µs.
    sent_us: Vec<u32>,
    /// Latency of each request, in ns.
    latency_ns: Vec<u32>,
    /// Requests without an `ok` answer: (request line, response frame).
    errors: Vec<(String, String)>,
    /// Sampled requests: (request line, response frame).
    samples: Vec<(String, String)>,
    threads_peak: u64,
}

impl Log {
    fn len(&self) -> usize {
        self.latency_ns.len()
    }
}

/// A closed-loop client connection.
struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    line: String,
}

impl Client {
    fn connect(addr: &str) -> Result<Client, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("TCP_NODELAY: {e}"))?;
        let reader = BufReader::new(
            stream
                .try_clone()
                .map_err(|e| format!("clone stream: {e}"))?,
        );
        Ok(Client {
            stream,
            reader,
            line: String::new(),
        })
    }

    /// Sends one frame and waits for its one response frame.
    fn call(&mut self, frame: &str) -> Result<&str, String> {
        let mut buf = String::with_capacity(frame.len() + 1);
        buf.push_str(frame);
        buf.push('\n');
        self.stream
            .write_all(buf.as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        self.line.clear();
        match self.reader.read_line(&mut self.line) {
            Ok(0) => Err("daemon closed the connection".into()),
            Ok(_) => Ok(self.line.trim_end()),
            Err(e) => Err(format!("receive: {e}")),
        }
    }
}

fn is_ok(frame: &str) -> bool {
    matches!(parse_response(frame), Ok(Response::Ok(_)))
}

/// Sends `requests` from one client, returning each response.
fn send_all(addr: &str, requests: &[PlanRequest]) -> Result<Vec<String>, String> {
    let mut c = Client::connect(addr)?;
    requests
        .iter()
        .map(|r| c.call(&r.encode()).map(str::to_string))
        .collect()
}

/// Runs one closed-loop client until `until`.
fn drive(addr: &str, mix: &mut Mix, t0: Instant, until: Instant) -> Result<Log, String> {
    let mut c = Client::connect(addr)?;
    let mut log = Log::default();
    while Instant::now() < until {
        let n = log.len();
        let (_, req) = mix.next();
        let line = req.encode();
        let start = Instant::now();
        let frame = c.call(&line)?;
        let latency = start.elapsed();
        if !is_ok(frame) {
            log.errors.push((line, frame.to_string()));
        } else if req.id % CHECK_EVERY == 0 {
            log.samples.push((line, frame.to_string()));
        }
        if n % 512 == 0 {
            log.threads_peak = log.threads_peak.max(threads_now());
        }
        log.sent_us.push((start - t0).as_micros() as u32);
        log.latency_ns
            .push(u32::try_from(latency.as_nanos()).unwrap_or(u32::MAX));
    }
    Ok(log)
}

/// Runs every client's generator in its own thread against `addr`.
fn drive_all(addr: &str, mixes: &mut [Mix], until: Instant) -> Vec<Result<Log, String>> {
    let t0 = Instant::now();
    std::thread::scope(|s| {
        let handles: Vec<_> = mixes
            .iter_mut()
            .map(|m| s.spawn(move || drive(addr, m, t0, until)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    })
}

/// The generators of a run, drawn from its seed.
fn mixes(base: &Arc<Vec<PlanRequest>>, seed: u64) -> Vec<Mix> {
    (0..CLIENTS as u64)
        .map(|c| Mix::new(Arc::clone(base), seed, c))
        .collect()
}

/// The discarded warm-up: each client sends `WARMUP_REQUESTS` repeats of
/// the repeat set, starting at its own offset. Only repeats, so that
/// what the daemon holds when the window opens does not depend on the
/// seed: a drawn repair or cold cell would add its graph to the
/// never-evicting graph cache.
fn warm_up(addr: &str, base: &[PlanRequest]) -> Result<(), String> {
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                s.spawn(move || {
                    let mut client = Client::connect(addr)?;
                    for i in 0..WARMUP_REQUESTS {
                        let line = base[(c * base.len() / CLIENTS + i) % base.len()].encode();
                        let frame = client.call(&line)?;
                        if !is_ok(frame) {
                            return Err(format!("warm-up request {line} got {frame}"));
                        }
                    }
                    Ok(())
                })
            })
            .collect();
        handles
            .into_iter()
            .try_for_each(|h| h.join().expect("warm-up client"))
    })
}

/// The window's requests re-drawn in send order: the clients' draws
/// merged by send time. Yields (client, index in its log, kind, request).
struct Window<'a> {
    mixes: Vec<Mix>,
    logs: &'a [Log],
    next: Vec<usize>,
}

impl<'a> Window<'a> {
    fn new(mixes: Vec<Mix>, logs: &'a [Log]) -> Window<'a> {
        Window {
            next: vec![0; mixes.len()],
            mixes,
            logs,
        }
    }
}

impl Iterator for Window<'_> {
    type Item = (usize, usize, Kind, PlanRequest);

    fn next(&mut self) -> Option<Self::Item> {
        let c = (0..self.logs.len())
            .filter(|&c| self.next[c] < self.logs[c].len())
            .min_by_key(|&c| (self.logs[c].sent_us[self.next[c]], c))?;
        let i = self.next[c];
        self.next[c] += 1;
        let (kind, req) = self.mixes[c].next();
        Some((c, i, kind, req))
    }
}

/// A running daemon over its store directory.
struct Running {
    daemon: Daemon,
    addr: String,
}

fn start(dir: &Path, workers: usize) -> Running {
    let config = ServiceConfig {
        cache_dir: Some(dir.to_path_buf()),
        ..ServiceConfig::default()
    };
    let service = Arc::new(Service::new(config).expect("open service store"));
    let daemon = Daemon::bind("127.0.0.1:0", service, workers, 64).expect("bind daemon");
    let addr = daemon.addr().to_string();
    Running { daemon, addr }
}

fn stop(r: Running) {
    r.daemon.shutdown();
    r.daemon.wait();
}

/// Set-up: the first daemon lifetime serves the repeat set cold, the
/// daemon restarts over the store it left, then a discarded warm-up.
/// Returns the running daemon and the first-touch answers. The first
/// touch is one client's, one request at a time, on a one-worker
/// daemon: with two in flight or two workers, whether the largest cells
/// were scheduled at once, and on which thread's heap, varied, and peak
/// memory with it.
fn setup(dir: &Path, base: &[PlanRequest]) -> Result<(Running, Vec<String>), String> {
    cache::clear();
    let first = start(dir, 1);
    let answers = send_all(&first.addr, base);
    stop(first);
    let answers = answers?;
    let running = start(dir, WORKERS);
    if let Err(e) = warm_up(&running.addr, base) {
        stop(running);
        return Err(e);
    }
    Ok((running, answers))
}

/// The design rows of the repeat set's responses.
fn design_rows(base: &[PlanRequest], answers: &[String]) -> Vec<Row> {
    let baseline = stg_core::SchedulerKind::NonStreaming;
    base.iter()
        .zip(answers)
        .filter_map(|(req, frame)| {
            let Ok(Response::Ok(resp)) = parse_response(frame) else {
                return None;
            };
            let Some(Ok(rec)) = decode_outcome(&resp.outcome) else {
                return None;
            };
            Some(Row {
                graph: (req.workload.spec(), req.seed, req.pes as u64),
                streaming: req.scheduler != baseline,
                makespan: rec.metrics.makespan,
                sslr: rec.metrics.sslr,
                utilization: rec.metrics.utilization,
                buffer_elements: rec.buffer_elements,
            })
        })
        .collect()
}

/// The response frame a direct engine run gives for `line` (the
/// comparison `loadgen --check` makes).
fn engine_frame(line: &str) -> Option<String> {
    let Ok(stg_service::Request::Plan(req)) = stg_service::protocol::parse_request(line) else {
        return None;
    };
    let direct = req.spec().run();
    Some(
        PlanResponse {
            id: req.id,
            workload: req.workload.spec(),
            seed: req.seed,
            pes: req.pes,
            scheduler: req.scheduler.alias().to_string(),
            sim: req.sim.to_string(),
            outcome: encode_outcome(&direct.runs[0].outcome),
        }
        .frame(),
    )
}

fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for e in std::fs::read_dir(from)? {
        let e = e?;
        if e.file_type()?.is_file() {
            std::fs::copy(e.path(), to.join(e.file_name()))?;
        }
    }
    Ok(())
}

pub fn run(args: &RunArgs) -> Outcome {
    let mut out = Outcome::default();
    let mut scratch = Scratch::new(&args.workload).expect("create scratch directory");
    let base = Arc::new(base_set());
    let setups = if args.trace { 1 } else { SETUPS };

    let mut setup_s = Vec::new();
    // The last set-up's daemon, first-touch answers, generators and store
    // directory.
    let mut state: Option<(Running, Vec<String>, PathBuf)> = None;
    for _ in 0..setups {
        if let Some((r, ..)) = state.take() {
            stop(r);
        }
        let dir = scratch.fresh_dir("store");
        let (result, t) = time(|| setup(&dir, &base));
        match result {
            Ok((running, answers)) => {
                setup_s.push(t.as_secs_f64());
                state = Some((running, answers, dir));
            }
            Err(e) => {
                out.check(false, || format!("set-up failed: {e}"));
                return out;
            }
        }
    }
    let (running, answers, dir) = state.expect("at least one set-up");
    let mut mixes = mixes(&base, args.seed);
    for (req, frame) in base.iter().zip(&answers) {
        out.check(is_ok(frame), || {
            format!("first-touch request {} failed: {frame}", req.encode())
        });
    }

    // Starting store copies for the two replays of the traced run.
    let copies = args.trace.then(|| {
        let a = scratch.fresh_dir("replay-untraced");
        let b = scratch.fresh_dir("replay-traced");
        copy_dir(&dir, &a)
            .and_then(|()| copy_dir(&dir, &b))
            .expect("copy starting store");
        (a, b)
    });

    // The timed window: four closed-loop clients. Peak memory is taken
    // when it opens: the daemon keeps every cold request's graph, so
    // what it holds later grows with however many cold requests a run
    // gets through (reported as `service.rss_growth_mb`).
    let peak_rss = peak_rss_mb();
    let rss0 = rss_mb();
    let service = running.daemon.service();
    let stats0 = service.store_stats();
    let eval0 = service.counters().snapshot().eval_micros;
    let t0 = Instant::now();
    let results = drive_all(&running.addr, &mut mixes, t0 + args.budget());
    let window = t0.elapsed();
    let rss_growth = rss_mb() - rss0;
    let stats = service.store_stats().since(&stats0);
    let eval_ms = (service.counters().snapshot().eval_micros - eval0) as f64 / 1e3;
    let rejected = service.counters().snapshot().rejected;
    let (segment_files, segment_bytes) = dir_usage(&dir);
    let entries = service.store().len() as f64;
    stop(running);

    let mut logs = Vec::new();
    for r in results {
        match r {
            Ok(log) => logs.push(log),
            Err(e) => out.check(false, || format!("client failed: {e}")),
        }
    }
    if logs.len() < CLIENTS {
        return out;
    }
    let requests: usize = logs.iter().map(Log::len).sum();
    out.attempted = requests as u64;
    // A rejection reaches its client as an error frame, so it is counted
    // among the requests that did not get an answer.
    out.failed = logs.iter().map(|l| l.errors.len() as u64).sum();
    out.check(rejected == 0, || {
        format!("{rejected} requests were rejected")
    });
    for (line, frame) in logs.iter().flat_map(|l| &l.errors).take(3) {
        out.check(false, || format!("request {line} got {frame}"));
    }
    let traffic = check_traffic(&mut out, &base, args.seed, &logs, stats);
    // Sampled responses equal a direct engine evaluation.
    for (line, frame) in logs.iter().flat_map(|l| &l.samples) {
        out.check(engine_frame(line).as_deref() == Some(frame), || {
            format!("response to {line} differs from the direct engine evaluation")
        });
    }

    let mut lat: Vec<f64> = logs
        .iter()
        .flat_map(|l| &l.latency_ns)
        .map(|&ns| ns as f64 / 1e6)
        .collect();
    lat.sort_by(f64::total_cmp);
    if args.trace {
        out.set("service.req_ms_p99", percentile_sorted(&lat, 0.99));
        out.set("service.rss_growth_mb", rss_growth);
        out.set(
            "service.threads_peak",
            logs.iter().map(|l| l.threads_peak).max().unwrap_or(0) as f64,
        );
        out.set("service.cache_hits", stats.hits as f64);
        out.set("service.cache_repaired", stats.repaired as f64);
        out.set("service.eval_ms", eval_ms / traffic.evaluated.max(1) as f64);
        out.set("store.hits", stats.hits as f64);
        out.set("store.misses", stats.misses as f64);
        out.set("store.repaired", stats.repaired as f64);
        out.set("store.evicted", stats.evicted as f64);
        out.set("store.segment_files", segment_files as f64);
        out.set(
            "store.bytes_per_cell",
            if entries > 0.0 {
                segment_bytes as f64 / entries
            } else {
                0.0
            },
        );
        let (a, b) = copies.expect("copies made for the traced run");
        replay(&mut out, args, &base, &logs, &a, &b);
    } else {
        out.set("setup_s", median(&setup_s));
        out.set("cells_per_s", requests as f64 / window.as_secs_f64());
        out.set("req_ms_p50", percentile_sorted(&lat, 0.5));
        out.set("peak_rss_mb", peak_rss);
        design::record(&mut out, &design_rows(&base, &answers));
        let ms = |k: usize, p: f64| {
            let mut v = traffic.latency_ms[k].clone();
            v.sort_by(f64::total_cmp);
            percentile_sorted(&v, p)
        };
        eprintln!(
            "stgbench: service_mix: {requests} requests ({} repeats, {} repairs, {} cold), p99 {:.3} ms, \
             p50/p90 ms: repeat {:.3}/{:.3} repair {:.3}/{:.3} cold {:.3}/{:.3}, {segment_files} segment files",
            traffic.drawn[0],
            traffic.drawn[1],
            traffic.drawn[2],
            percentile_sorted(&lat, 0.99),
            ms(0, 0.5),
            ms(0, 0.9),
            ms(1, 0.5),
            ms(1, 0.9),
            ms(2, 0.5),
            ms(2, 0.9),
        );
    }
    out
}

/// The parts of a request's nominal cell key: workload, seed, PEs,
/// scheduler and simulation mode.
type NominalKey = (String, u64, usize, String, String);

fn nominal_key(req: &PlanRequest) -> NominalKey {
    (
        req.workload.spec(),
        req.seed,
        req.pes,
        req.scheduler.alias().to_string(),
        req.sim.to_string(),
    )
}

/// What the window's requests did, as the generator re-draws them.
struct Traffic {
    /// Drawn repeats, repairs and cold cells.
    drawn: [u64; 3],
    /// Requests the store should have evaluated.
    evaluated: u64,
    /// Latencies in ms by drawn kind (repeat, repair, cold).
    latency_ms: [Vec<f64>; 3],
}

/// Checks the store traffic of the timed window against the generator's
/// draw. Walking every request in send order from the repeat set, a
/// request is a hit when its exact cell was stored before, a repair when
/// a stored cell has the same graph fingerprint
/// (`CanonicalGraph::fingerprint`), PEs, scheduler and simulation mode,
/// and evaluated otherwise. Every drawn repeat must classify as a hit,
/// every drawn seed delta as a repair and every drawn cold cell as
/// evaluated (or as a repair, when its fresh seed happens to rebuild a
/// stored graph), and the store's counters must match the totals.
fn check_traffic(
    out: &mut Outcome,
    base: &Arc<Vec<PlanRequest>>,
    seed: u64,
    logs: &[Log],
    stats: StoreStats,
) -> Traffic {
    use std::collections::HashSet;
    let mut nominal: HashSet<NominalKey> = base.iter().map(nominal_key).collect();
    let mut semantic = HashSet::new();
    let mut fingerprints: HashMap<(String, u64), u64> = HashMap::new();
    let mut semantic_key = |req: &PlanRequest| {
        let fp = *fingerprints
            .entry((req.workload.spec(), req.seed))
            .or_insert_with(|| req.workload.instantiate(req.seed).fingerprint());
        (fp, req.pes, req.scheduler.alias(), req.sim.to_string())
    };
    for req in base.iter() {
        semantic.insert(semantic_key(req));
    }
    let mut classify = |req: &PlanRequest| -> Kind {
        if !nominal.insert(nominal_key(req)) {
            return Kind::Repeat;
        }
        if semantic.insert(semantic_key(req)) {
            Kind::Cold
        } else {
            Kind::Repair
        }
    };
    let mixes = mixes(base, seed);
    let mut t = Traffic {
        drawn: [0; 3],
        evaluated: 0,
        latency_ms: Default::default(),
    };
    let (mut hits, mut repaired, mut mismatched) = (0u64, 0u64, 0u64);
    for (c, i, kind, req) in Window::new(mixes, logs) {
        let k = kind as usize;
        t.drawn[k] += 1;
        t.latency_ms[k].push(logs[c].latency_ns[i] as f64 / 1e6);
        let got = classify(&req);
        match got {
            Kind::Repeat => hits += 1,
            Kind::Repair => repaired += 1,
            Kind::Cold => t.evaluated += 1,
        }
        // A fresh seed of a cold family may rebuild a graph that is
        // already stored; the service then repairs it, as it should.
        if got != kind && !(kind == Kind::Cold && got == Kind::Repair) {
            mismatched += 1;
        }
    }
    out.check(mismatched == 0, || {
        format!("{mismatched} requests did not do what the generator drew")
    });
    out.check(stats.hits == hits, || {
        format!("store hits {} != expected {hits}", stats.hits)
    });
    out.check(stats.repaired == repaired, || {
        format!("store repairs {} != expected {repaired}", stats.repaired)
    });
    out.check(stats.misses == repaired + t.evaluated, || {
        format!(
            "store misses {} != expected repairs + evaluations {}",
            stats.misses,
            repaired + t.evaluated
        )
    });
    t
}

/// The traced run of `service_mix`: the window's request sequence, in
/// send order, replayed through `Service::handle` over copies of the
/// starting store, once with spans and once without, for at most half
/// the window each.
fn replay(
    out: &mut Outcome,
    args: &RunArgs,
    base: &Arc<Vec<PlanRequest>>,
    logs: &[Log],
    untraced_dir: &Path,
    traced_dir: &Path,
) {
    let open = |dir: &Path| {
        let config = ServiceConfig {
            cache_dir: Some(dir.to_path_buf()),
            ..ServiceConfig::default()
        };
        Service::new(config).expect("open replay service")
    };
    // store.open_ms: open the starting store and probe it once.
    let probe = stg_experiments::CellKey::new(
        stg_experiments::SCHEMA_VERSION,
        "stgbench-probe",
        0,
        0,
        "none",
        "off",
    );
    let (_, open_t) = time(|| ResultStore::at_dir(untraced_dir).map(|s| s.lookup(&probe)));
    out.set("store.open_ms", open_t.as_secs_f64() * 1e3);

    cache::clear();
    let traced = open(traced_dir);
    let mut tr = Tracer::new();
    let budget = args.budget() / 2;
    let mut handle_us = Vec::new();
    let mut wire_us = Vec::new();
    let mut traced_ns = 0u128;
    let mut n = 0;
    let t0 = Instant::now();
    for (c, i, _, req) in Window::new(mixes(base, args.seed), logs) {
        if t0.elapsed() >= budget {
            break;
        }
        let line = req.encode();
        let (_, d) = time(|| {
            tr.span("service.handle", n as u64, |_| {
                traced.handle(c as u64 + 1, &line)
            })
        });
        traced_ns += d.as_nanos();
        let us = tr.spans().last().expect("span recorded").ns() as f64 / 1e3;
        handle_us.push(us);
        wire_us.push(logs[c].latency_ns[i] as f64 / 1e3 - us);
        n += 1;
    }
    cache::clear();
    let untraced = open(untraced_dir);
    let mut off = Tracer::disabled();
    let mut untraced_ns = 0u128;
    for (k, (c, _, _, req)) in Window::new(mixes(base, args.seed), logs)
        .take(n)
        .enumerate()
    {
        let line = req.encode();
        let (_, d) = time(|| {
            off.span("service.handle", k as u64, |_| {
                untraced.handle(c as u64 + 1, &line)
            })
        });
        untraced_ns += d.as_nanos();
    }
    handle_us.sort_by(f64::total_cmp);
    out.set("service.handle_us_p50", percentile_sorted(&handle_us, 0.5));
    out.set("service.handle_us_p99", percentile_sorted(&handle_us, 0.99));
    out.set("service.wire_us_p50", median(&wire_us));
    out.set(
        "trace.overhead_pct",
        100.0 * (traced_ns as f64 / untraced_ns.max(1) as f64 - 1.0),
    );
    out.set("trace.spans_per_pass", tr.spans().len() as f64);
    if let Err(e) = tr.write_jsonl(&args.trace_out) {
        eprintln!(
            "stgbench: writing spans to {}: {e}",
            args.trace_out.display()
        );
    }
}
