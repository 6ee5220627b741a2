//! The steadiness command and the one-process-per-workload runner.
//!
//! `stgbench steady` runs each workload N times untraced, each run in its
//! own process with its own seed, and prints the median and quartiles of
//! every metric. An end-to-end metric whose spread (interquartile range
//! over median) exceeds its bound in `BENCHMARK.json` is flagged, as is
//! a failed-operation share that differs between runs.

use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};

use stg_service::json::{self, Json};

use crate::stats::{median, quartiles};
use crate::WORKLOADS;

/// One child run's result line.
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(String, f64)>,
}

/// Runs one workload in a child process of this executable and parses
/// the last line of its standard output. Its standard error passes
/// through.
pub fn spawn_run(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args([
        "--workload",
        workload,
        "--seed",
        &seed.to_string(),
        "--seconds",
        &seconds.to_string(),
    ])
    .args(["--trace", if trace { "1" } else { "0" }]);
    if quick {
        cmd.arg("--quick");
    }
    let output = cmd
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("start {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().unwrap_or_default();
    let parsed =
        parse_result(line).map_err(|e| format!("{workload}: {e} (exit {})", output.status))?;
    if !output.status.success() && parsed.correct {
        return Err(format!("{workload}: exit {}", output.status));
    }
    Ok(parsed)
}

/// Parses a result line.
pub fn parse_result(line: &str) -> Result<RunResult, String> {
    let v = json::parse(line).map_err(|e| format!("result line is not JSON: {e}"))?;
    let correct = v
        .get("correct")
        .and_then(Json::as_bool)
        .ok_or("no \"correct\"")?;
    let attempted = v
        .get("attempted")
        .and_then(Json::as_u64)
        .ok_or("no \"attempted\"")?;
    let failed = v
        .get("failed")
        .and_then(Json::as_u64)
        .ok_or("no \"failed\"")?;
    let metrics = v
        .get("metrics")
        .and_then(Json::as_object)
        .ok_or("no \"metrics\"")?
        .iter()
        .map(|(name, m)| {
            let value = m.get("value").map(|x| x.to_string()).unwrap_or_default();
            value
                .parse::<f64>()
                .map(|x| (name.clone(), x))
                .map_err(|_| format!("metric {name} has no numeric value"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(RunResult {
        correct,
        attempted,
        failed,
        metrics,
    })
}

/// End-to-end bounds from `BENCHMARK.json` in the working directory.
fn bounds() -> BTreeMap<String, f64> {
    let Ok(text) = std::fs::read_to_string("BENCHMARK.json") else {
        return BTreeMap::new();
    };
    let Ok(v) = json::parse(&text) else {
        return BTreeMap::new();
    };
    v.get("end_to_end")
        .and_then(Json::as_array)
        .unwrap_or_default()
        .iter()
        .filter_map(|m| {
            let name = m.get("name")?.as_str()?.to_string();
            let bound = m.get("bound")?.to_string().parse().ok()?;
            Some((name, bound))
        })
        .collect()
}

pub fn main(argv: &[String]) -> ExitCode {
    let mut runs = 5u64;
    let mut seconds = 10.0;
    let mut quick = false;
    let mut seed_base = 1u64;
    let mut workloads: Vec<String> = WORKLOADS.iter().map(|w| w.to_string()).collect();
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].as_str();
        let value = argv.get(i + 1);
        i += 2;
        let ok = match (flag, value) {
            ("--quick", _) => {
                quick = true;
                i -= 1;
                true
            }
            ("--runs", Some(v)) => v.parse().map(|n| runs = n).is_ok(),
            ("--seconds", Some(v)) => v.parse().map(|s| seconds = s).is_ok(),
            ("--seed", Some(v)) => v.parse().map(|s| seed_base = s).is_ok(),
            ("--workloads", Some(v)) => {
                workloads = v.split(',').map(str::to_string).collect();
                workloads.iter().all(|w| WORKLOADS.contains(&w.as_str()))
            }
            _ => false,
        };
        if !ok || runs == 0 {
            eprintln!(
                "stgbench steady: bad argument {flag:?}\n\
                 usage: stgbench steady [--runs N] [--workloads a,b] [--seconds S] [--seed K] [--quick]"
            );
            return ExitCode::from(2);
        }
    }
    let bounds = bounds();
    let mut flagged = 0;
    for w in &workloads {
        let mut values: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        let mut shares = Vec::new();
        for i in 0..runs {
            match spawn_run(w, seed_base + i, seconds, false, quick) {
                Ok(r) => {
                    if !r.correct {
                        println!(
                            "{w}: run {i} (seed {}) failed its output checks",
                            seed_base + i
                        );
                        flagged += 1;
                    }
                    shares.push((r.failed, r.attempted));
                    for (name, v) in r.metrics {
                        values.entry(name).or_default().push(v);
                    }
                }
                Err(e) => {
                    println!("{w}: run {i} failed: {e}");
                    flagged += 1;
                }
            }
        }
        println!(
            "== {w}: {runs} runs, seeds {seed_base}..{}",
            seed_base + runs - 1
        );
        println!(
            "{:<36} {:>14} {:>14} {:>14} {:>8} {:>7}",
            "metric", "median", "q1", "q3", "spread", "bound"
        );
        for (name, v) in &values {
            let med = median(v);
            let (q1, q3) = quartiles(v);
            let spread = if med == 0.0 {
                0.0
            } else {
                (q3 - q1) / med.abs()
            };
            let bound = bounds.get(name);
            let over = bound.is_some_and(|b| spread > *b);
            if over {
                flagged += 1;
            }
            println!(
                "{name:<36} {med:>14.6} {q1:>14.6} {q3:>14.6} {:>7.2}% {:>7} {}",
                100.0 * spread,
                bound.map_or("-".to_string(), |b| format!("{:.0}%", 100.0 * b)),
                if over { "SPREAD ABOVE BOUND" } else { "" }
            );
        }
        // The failed share must be identical in every run: compare the
        // fractions exactly by cross-multiplying.
        let uneven = shares
            .windows(2)
            .any(|p| p[0].0 as u128 * p[1].1 as u128 != p[1].0 as u128 * p[0].1 as u128);
        if uneven {
            flagged += 1;
            println!("{w}: the failed share differs between runs: {shares:?}");
        }
    }
    if flagged == 0 {
        ExitCode::SUCCESS
    } else {
        println!("{flagged} problem(s)");
        ExitCode::FAILURE
    }
}
