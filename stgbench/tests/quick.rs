//! Every workload, with all its output checks, at the quick size.

use std::process::Command;

fn run(args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_stgbench"))
        .args(args)
        .output()
        .expect("start stgbench");
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    (out.status.success(), stdout)
}

/// The value of `key=` in a `--workload all` summary line.
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    line.split_whitespace()
        .find_map(|kv| kv.strip_prefix(key)?.strip_prefix('='))
}

fn check_all(trace: &str, metric: &str) {
    let (ok, stdout) = run(&[
        "--workload",
        "all",
        "--quick",
        "--seed",
        "7",
        "--trace",
        trace,
    ]);
    let lines: Vec<&str> = stdout.lines().collect();
    assert!(ok, "quick run failed:\n{stdout}");
    for w in ["paper_cold", "ml_table2", "fabric_warm", "service_mix"] {
        let line = lines
            .iter()
            .find(|l| l.starts_with(&format!("{w}:")))
            .unwrap_or_else(|| panic!("no result for {w}:\n{stdout}"));
        assert_eq!(field(line, "correct"), Some("true"), "{line}");
        assert_eq!(field(line, "failed"), Some("0"), "{line}");
        assert!(field(line, "attempted").is_some_and(|a| a != "0"), "{line}");
        assert!(field(line, metric).is_some(), "{w} lacks {metric}: {line}");
    }
}

#[test]
fn quick_untraced_runs_pass_their_checks() {
    check_all("0", "cells_per_s");
}

#[test]
fn quick_traced_runs_pass_their_checks() {
    check_all("1", "trace.overhead_pct");
}

#[test]
fn one_workload_prints_one_json_result_line() {
    let (ok, stdout) = run(&["--workload", "paper_cold", "--quick", "--seed", "3"]);
    assert!(ok, "{stdout}");
    let last = stdout.lines().last().expect("a result line");
    assert!(
        last.starts_with("{\"correct\":true,\"attempted\":"),
        "{last}"
    );
    assert!(last.contains("\"setup_s\":{\"value\":"), "{last}");
}

#[test]
fn bad_arguments_exit_2() {
    for args in [
        &["--workload", "nope"][..],
        &["--seed", "x", "--workload", "paper_cold"],
        &["--workload"],
        &[],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_stgbench"))
            .args(args)
            .output()
            .expect("start");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
