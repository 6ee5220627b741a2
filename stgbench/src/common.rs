//! What every workload shares: its arguments, its scratch directory, the
//! timed-pass loop, and process measurements.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// The arguments of one workload run.
#[derive(Clone, Debug)]
pub struct RunArgs {
    /// Workload name.
    pub workload: String,
    /// Input seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Measured time of the timed passes.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the untraced one.
    pub trace: bool,
    /// Tiny inputs, for the benchmark's own tests.
    pub quick: bool,
    /// Where the traced run writes its spans.
    pub trace_out: PathBuf,
}

impl RunArgs {
    /// Busy threads an untraced run may use: the machine's parallelism,
    /// at most two. Traced runs are single-threaded.
    pub fn threads(&self) -> usize {
        if self.trace {
            return 1;
        }
        std::thread::available_parallelism()
            .map_or(1, usize::from)
            .min(2)
    }

    /// The time budget of the timed passes. A traced run spends half on
    /// untraced single-threaded passes (the overhead baseline) and half
    /// on traced ones.
    pub fn budget(&self) -> Duration {
        let s = if self.trace {
            self.seconds / 2.0
        } else {
            self.seconds
        };
        Duration::from_secs_f64(s)
    }
}

/// A scratch directory under the working directory, removed on drop.
pub struct Scratch {
    root: PathBuf,
    next: u64,
}

impl Scratch {
    /// Creates `.stgbench/run-<workload>-<pid>` under the working
    /// directory.
    pub fn new(workload: &str) -> std::io::Result<Scratch> {
        let root =
            PathBuf::from(".stgbench").join(format!("run-{workload}-{}", std::process::id()));
        if root.exists() {
            std::fs::remove_dir_all(&root)?;
        }
        std::fs::create_dir_all(&root)?;
        Ok(Scratch { root, next: 0 })
    }

    /// A fresh, empty directory inside the scratch root.
    pub fn fresh_dir(&mut self, label: &str) -> PathBuf {
        self.next += 1;
        let dir = self.root.join(format!("{label}-{}", self.next));
        std::fs::create_dir_all(&dir).expect("create scratch directory");
        dir
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// Removes a scratch directory, ignoring errors (it is removed with the
/// scratch root anyway).
pub fn remove_dir(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
}

/// Runs `pass` until `budget` has been spent on it, and at least
/// `min_passes` times; returns each pass's measured seconds. `pass`
/// returns the duration it timed itself, so work done between the timed
/// parts (checks, clean-up) is not counted.
pub fn timed_passes(
    budget: Duration,
    min_passes: usize,
    mut pass: impl FnMut() -> Duration,
) -> Vec<f64> {
    let mut spent = Duration::ZERO;
    let mut out = Vec::new();
    while spent < budget || out.len() < min_passes {
        let d = pass();
        spent += d;
        out.push(d.as_secs_f64());
    }
    let mut sorted = out.clone();
    sorted.sort_by(f64::total_cmp);
    eprintln!(
        "stgbench: {} passes, ms min {:.3} median {:.3} max {:.3}",
        out.len(),
        1e3 * sorted[0],
        1e3 * crate::stats::median(&sorted),
        1e3 * sorted[sorted.len() - 1]
    );
    out
}

/// Throughput over a whole timed window: `units` per pass times the
/// passes, over the passes' summed seconds. A mean, not a median of
/// per-pass rates: this host's speed drifts in spells of several
/// seconds, and a median over a few long passes lands on whichever
/// spell covers most of them, while the mean moves only with the share
/// of the window each spell takes.
pub fn rate(units: u64, secs: &[f64]) -> f64 {
    (units * secs.len() as u64) as f64 / secs.iter().sum::<f64>()
}

/// Times `f` once.
pub fn time<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed())
}

/// A field of `/proc/self/status` in its own unit (kB for memory).
fn proc_status(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status.lines().find_map(|l| {
        l.strip_prefix(field)?
            .trim_start_matches(':')
            .split_whitespace()
            .next()?
            .parse()
            .ok()
    })
}

/// Peak resident set size of this process so far, in MB.
pub fn peak_rss_mb() -> f64 {
    proc_status("VmHWM").map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// Resident set size of this process right now, in MB.
pub fn rss_mb() -> f64 {
    proc_status("VmRSS").map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// Threads of this process right now.
pub fn threads_now() -> u64 {
    proc_status("Threads").unwrap_or(0)
}

/// Number of files and their total bytes in `dir` (not recursive).
pub fn dir_usage(dir: &Path) -> (u64, u64) {
    let mut files = 0;
    let mut bytes = 0;
    if let Ok(entries) = std::fs::read_dir(dir) {
        for e in entries.flatten() {
            if let Ok(meta) = e.metadata() {
                if meta.is_file() {
                    files += 1;
                    bytes += meta.len();
                }
            }
        }
    }
    (files, bytes)
}
