//! Runs every workload of `BENCHMARK.json` briefly, untraced and traced,
//! and checks that each metric it lists is printed with its unit and a
//! finite value.

use std::path::PathBuf;
use std::process::Command;

use serde::Value;

fn benchmark() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    serde_json::from_str(&text).expect("BENCHMARK.json is JSON")
}

fn list<'a>(v: &'a Value, key: &str) -> &'a [Value] {
    match v.get(key) {
        Some(Value::Seq(items)) => items,
        other => panic!("{key}: expected a list, got {other:?}"),
    }
}

fn text<'a>(v: &'a Value, key: &str) -> &'a str {
    match v.get(key) {
        Some(Value::Str(s)) => s,
        other => panic!("{key}: expected a string, got {other:?}"),
    }
}

/// Runs the benchmark in a scratch directory; returns (exit code,
/// standard output).
fn run(args: &[&str]) -> (Option<i32>, String) {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("smoke");
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let out = Command::new(env!("CARGO_BIN_EXE_mps-perf"))
        .current_dir(&dir)
        .args(args)
        .output()
        .expect("spawn mps-perf");
    if !out.status.success() {
        eprintln!("{}", String::from_utf8_lossy(&out.stderr));
    }
    (
        out.status.code(),
        String::from_utf8(out.stdout).expect("UTF-8 output"),
    )
}

fn check(workload: &str, trace: &str, specs: &[Value]) {
    let (code, stdout) = run(&[
        "--workload",
        workload,
        "--seed",
        "7",
        "--seconds",
        "0.2",
        "--trace",
        trace,
    ]);
    assert_eq!(code, Some(0), "{workload} --trace {trace} failed");
    let last = stdout.lines().last().expect("a result line");
    let result: Value = serde_json::from_str(last).expect("result line is JSON");
    assert_eq!(result.get("correct"), Some(&Value::Bool(true)));
    for spec in specs {
        let name = text(spec, "name");
        let m = result
            .get("metrics")
            .and_then(|m| m.get(name))
            .unwrap_or_else(|| panic!("{workload} --trace {trace}: no metric {name}"));
        assert_eq!(
            m.get("unit"),
            spec.get("unit"),
            "{workload}: unit of {name}"
        );
        let finite = match m.get("value") {
            Some(Value::Float(f)) => f.is_finite(),
            Some(Value::UInt(_) | Value::Int(_)) => true,
            _ => false,
        };
        assert!(finite, "{workload}: {name} = {:?}", m.get("value"));
    }
}

#[test]
fn every_workload_prints_every_metric() {
    let bench = benchmark();
    for w in list(&bench, "workloads") {
        let name = text(w, "name");
        check(name, "0", list(&bench, "end_to_end"));
        check(name, "1", list(&bench, "per_layer"));
    }
}

#[test]
fn a_bad_invocation_prints_no_result() {
    for args in [
        &["--workload", "nope"][..],
        &["--workload", "grid", "--trace", "2"],
    ] {
        let (code, stdout) = run(args);
        assert_ne!(code, Some(0), "{args:?} succeeded");
        assert!(stdout.is_empty(), "{args:?} printed {stdout:?}");
    }
}
