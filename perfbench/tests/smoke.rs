//! Smoke runs of every workload at tiny size: each must pass its checks
//! and emit every manifest metric of its mode with the manifest's unit.

#[path = "../src/manifest.rs"]
#[allow(dead_code)]
mod manifest;

use std::process::Command;

/// Runs the benchmark; returns whether it succeeded and its stdout lines.
fn run(workload: &str, trace: &str) -> (bool, Vec<String>) {
    let out = Command::new(env!("CARGO_BIN_EXE_polsec-perfbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "0.2"])
        .args(["--trace", trace, "--size", "tiny"])
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    (
        out.status.success(),
        stdout.lines().map(str::to_string).collect(),
    )
}

/// The number following `"name": {"value": ` in `line`, if the metric is
/// there with `unit`.
fn metric(line: &str, name: &str, unit: &str) -> Option<f64> {
    let key = format!("\"{name}\": {{\"value\": ");
    let rest = &line[line.find(&key)? + key.len()..];
    let (value, rest) = rest.split_once(", \"unit\": ")?;
    rest.starts_with(&format!("\"{unit}\"}}")).then_some(())?;
    value.parse().ok()
}

fn check_workload(workload: &str) {
    let (ok, lines) = run(workload, "0");
    let line = lines.last().cloned().unwrap_or_default();
    assert!(ok, "{workload} untraced run failed: {line}");
    assert!(
        line.starts_with("{\"correct\": true, \"attempted\": "),
        "{line}"
    );
    assert!(line.contains("\"failed\": 0,"), "{line}");
    for (name, unit, _, _) in manifest::END_TO_END {
        let v = metric(&line, name, unit)
            .unwrap_or_else(|| panic!("{workload}: {name} [{unit}] missing: {line}"));
        assert!(v > 0.0, "{workload}: end-to-end metric {name} is {v}");
    }
    let (ok, lines) = run(workload, "1");
    let line = lines.last().cloned().unwrap_or_default();
    assert!(ok, "{workload} traced run failed: {line}");
    let sources = lines
        .iter()
        .find(|l| l.starts_with("{\"layer_sources\": "))
        .unwrap_or_else(|| panic!("{workload}: no layer_sources line"));
    for (name, unit, _) in manifest::PER_LAYER {
        let v = metric(&line, name, unit)
            .unwrap_or_else(|| panic!("{workload}: {name} [{unit}] missing: {line}"));
        assert!(v.is_finite(), "{workload}: {name} is {v}");
        let off_path = sources.contains(&format!("\"{name}\": \"off-path\""));
        if off_path {
            assert_eq!(v, 0.0, "{workload}: off-path {name} is {v}");
        } else if ["ns", "us", "ms"].contains(unit) {
            assert!(v > 0.0, "{workload}: time {name} is {v}");
        }
    }
}

#[test]
fn fleet_emits_every_metric() {
    check_workload("fleet");
}

#[test]
fn platoon_emits_every_metric() {
    check_workload("platoon");
}

#[test]
fn decide_emits_every_metric() {
    check_workload("decide");
}

#[test]
fn bad_arguments_exit_non_zero_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_polsec-perfbench"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("benchmark runs");
    assert!(!out.status.success());
    assert!(!String::from_utf8_lossy(&out.stdout).contains("\"correct\""));
}
