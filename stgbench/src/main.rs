//! The repository's benchmark: four workloads that each stress other
//! layers of the scheduler stack, timed over repeated passes, with their
//! outputs checked and an opt-in traced run for per-layer metrics.
//!
//! ```sh
//! cargo run --release --manifest-path stgbench/Cargo.toml -- \
//!     --workload paper_cold --seed 1 --seconds 10 --trace 0
//! cargo run --release --manifest-path stgbench/Cargo.toml -- --quick --workload all
//! cargo run --release --manifest-path stgbench/Cargo.toml -- steady --runs 5
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`; see `README.md` for every metric.

mod common;
mod design;
mod fabric;
mod layers;
mod report;
mod service;
mod stats;
mod steady;
mod sweeps;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use common::RunArgs;
use report::{Outcome, END_TO_END, PER_LAYER};

/// The workloads, in the order `--workload all` runs them.
pub const WORKLOADS: &[&str] = &["paper_cold", "ml_table2", "fabric_warm", "service_mix"];

fn usage(msg: &str) -> ExitCode {
    eprintln!(
        "stgbench: {msg}\n\
         usage: stgbench --workload <{}|all> [--seed N] [--seconds S] [--trace 0|1] [--quick]\n\
         \x20      stgbench steady [--runs N] [--workloads a,b] [--seconds S] [--seed K] [--quick]",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

/// Runs one workload in this process.
fn run_workload(args: &RunArgs) -> Outcome {
    let threads = args.threads();
    match args.workload.as_str() {
        "paper_cold" => sweeps::run(
            args,
            sweeps::paper_spec(args.seed, sweeps::PAPER_GRAPHS, args.quick, threads),
            true,
        ),
        // Single-threaded: with two threads, how many large plans were
        // alive at once varied, and peak memory with it (quartiles 84 and
        // 101 MB over ten identical runs, against 40.2 and 40.3 MB).
        "ml_table2" => sweeps::run(args, sweeps::ml_spec(args.quick, 1), false),
        "fabric_warm" => fabric::run(args),
        "service_mix" => service::run(args),
        other => unreachable!("unknown workload {other} passed validation"),
    }
}

/// Prints a run's problems on stderr and its result line on stdout.
fn emit(args: &RunArgs, out: &Outcome) {
    for p in &out.problems {
        eprintln!("stgbench: {}: check failed: {p}", args.workload);
    }
    let line = if args.trace {
        out.line(PER_LAYER, false)
    } else {
        out.line(END_TO_END, true)
    };
    println!("{line}");
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("steady") {
        return steady::main(&argv[1..]);
    }
    let mut args = RunArgs {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        quick: false,
        trace_out: PathBuf::new(),
    };
    let mut it = argv.into_iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} expects a value"));
        let parsed: Result<(), String> = match flag.as_str() {
            "--workload" => value("--workload").map(|v| args.workload = v),
            "--seed" => value("--seed").and_then(|v| {
                v.parse()
                    .map(|s| args.seed = s)
                    .map_err(|_| format!("bad --seed {v:?}"))
            }),
            "--seconds" => value("--seconds").and_then(|v| match v.parse::<f64>() {
                Ok(s) if s > 0.0 && s.is_finite() => {
                    args.seconds = s;
                    Ok(())
                }
                _ => Err(format!("bad --seconds {v:?}")),
            }),
            "--trace" => value("--trace").and_then(|v| match v.as_str() {
                "0" | "1" => {
                    args.trace = v == "1";
                    Ok(())
                }
                _ => Err(format!("--trace takes 0 or 1, not {v:?}")),
            }),
            "--quick" => {
                args.quick = true;
                Ok(())
            }
            other => Err(format!("unknown flag {other:?}")),
        };
        if let Err(msg) = parsed {
            return usage(&msg);
        }
    }
    if args.quick {
        args.seconds = args.seconds.min(0.5);
    }
    match args.workload.as_str() {
        "" => usage("--workload is required"),
        "all" => run_all(&args),
        w if WORKLOADS.contains(&w) => {
            args.trace_out = PathBuf::from(".stgbench").join(format!("trace-{w}.jsonl"));
            let out = run_workload(&args);
            emit(&args, &out);
            if out.problems.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        w => usage(&format!("unknown workload {w:?}")),
    }
}

/// `--workload all`: every workload in its own process, so that graph
/// caches start empty and peak memory belongs to one workload. Prints
/// each workload's result line, prefixed with its name.
fn run_all(args: &RunArgs) -> ExitCode {
    let mut ok = true;
    for w in WORKLOADS {
        match steady::spawn_run(w, args.seed, args.seconds, args.trace, args.quick) {
            Ok(r) => {
                ok &= r.correct;
                let metrics: Vec<String> =
                    r.metrics.iter().map(|(n, v)| format!("{n}={v}")).collect();
                println!(
                    "{w}: correct={} attempted={} failed={} {}",
                    r.correct,
                    r.attempted,
                    r.failed,
                    metrics.join(" ")
                );
            }
            Err(e) => {
                ok = false;
                println!("{w}: {e}");
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
