//! The repository benchmark: `fleet`, `platoon` and `decide` workloads.
//!
//! One run:
//!
//! ```text
//! cargo run --release --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload fleet --seed 1 --seconds 20 --trace 0
//! ```
//!
//! prints a host fingerprint line, the workload's own report, its checks,
//! and as the last line `{"correct", "attempted", "failed", "metrics"}`
//! with every end-to-end metric (`--trace 0`) or every per-layer metric
//! (`--trace 1`) of `BENCHMARK.json`. It exits non-zero if a check fails.
//!
//! `--all [--seed N] [--holdout-seed M] [--seconds S]` runs every workload
//! untraced and traced (and again on the held-out seed), prints every
//! result and rewrites `BENCHMARK.json`. `--size tiny` shrinks every
//! workload for the smoke tests.

mod common;
mod decide;
mod fleet;
mod host;
mod manifest;
mod platoon;
mod probes;
mod stats;
mod trace;

use common::{Args, Outcome, Size};
use polsec_sim::json_quote;
use std::process::{Command, ExitCode, Stdio};

#[global_allocator]
static ALLOCATOR: host::CountingAlloc = host::CountingAlloc;

/// Worker threads (and decide clients) unless `--threads` says otherwise.
const DEFAULT_THREADS: usize = 2;

const WORKLOAD_NAMES: [&str; 3] = ["fleet", "platoon", "decide"];

/// Writes the traced run's spans next to the benchmark sources.
pub fn write_spans(tracer: &trace::Tracer, workload: &str, seed: u64) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("{workload}-seed{seed}.spans.jsonl"));
    if let Err(e) = tracer.write_jsonl(&path) {
        eprintln!("note: could not write {}: {e}", path.display());
    }
}

fn manifest_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json")
}

/// A metric value as JSON: finite numbers only, with all their digits.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn metrics_json<'a>(items: impl IntoIterator<Item = (&'a str, f64, &'a str)>) -> String {
    let parts: Vec<String> = items
        .into_iter()
        .map(|(name, value, unit)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_quote(name),
                number(value),
                json_quote(unit)
            )
        })
        .collect();
    format!("{{{}}}", parts.join(", "))
}

fn unit(name: &str) -> &'static str {
    manifest::unit_of(name).expect("every reported contract metric is in the manifest")
}

/// Prints a workload's lines; the last is the result object.
fn print_outcome(workload: &str, args: &Args, out: &Outcome, stolen_s: f64) -> bool {
    println!(
        "{{\"host\": {}, \"stolen_per_cpu_s\": {}}}",
        host::fingerprint_json(args.threads, args.seed),
        number(stolen_s)
    );
    println!(
        "{{\"workload\": {}, \"report\": {}}}",
        json_quote(workload),
        metrics_json(out.report.iter().map(|&(n, v, u)| (n, v, u)))
    );
    println!(
        "{{\"deterministic\": {{\"bytes\": {}, \"fnv64\": \"{:016x}\"}}}}",
        out.det_digest.0, out.det_digest.1
    );
    let checks: Vec<String> = out
        .checks
        .0
        .iter()
        .map(|(name, ok)| format!("{{\"check\": {}, \"pass\": {ok}}}", json_quote(name)))
        .collect();
    println!("{{\"checks\": [{}]}}", checks.join(", "));
    let metrics = if args.trace {
        let sources: Vec<String> = out
            .layers
            .iter()
            .map(|(n, _, s)| format!("{}: {}", json_quote(n), json_quote(s.label())))
            .collect();
        println!("{{\"layer_sources\": {{{}}}}}", sources.join(", "));
        metrics_json(manifest::PER_LAYER.iter().map(|&(name, u, _)| {
            let value = out
                .layers
                .iter()
                .find(|l| l.0 == name)
                .map_or(f64::NAN, |l| l.1);
            (name, value, u)
        }))
    } else {
        metrics_json(out.e2e.iter().map(|&(n, v)| (n, v, unit(n))))
    };
    let missing: Vec<&str> = if args.trace {
        manifest::PER_LAYER
            .iter()
            .map(|m| m.0)
            .filter(|n| !out.layers.iter().any(|l| l.0 == *n))
            .collect()
    } else {
        manifest::END_TO_END
            .iter()
            .map(|m| m.0)
            .filter(|n| !out.e2e.iter().any(|l| l.0 == *n))
            .collect()
    };
    if !missing.is_empty() {
        eprintln!("FAIL: metrics not measured: {missing:?}");
    }
    let correct = out.checks.all_pass() && missing.is_empty();
    for (name, ok) in &out.checks.0 {
        if !ok {
            eprintln!("FAIL: {name}");
        }
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        out.attempted.max(1),
        out.failed
    );
    correct
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: perfbench --workload <fleet|platoon|decide> --seed N --seconds S --trace 0|1 \
         [--size full|tiny] [--threads T]\n       perfbench --all [--seed N] [--holdout-seed M] \
         [--seconds S] [--size full|tiny]"
    );
    ExitCode::from(2)
}

struct Cli {
    workload: Option<String>,
    all: bool,
    holdout_seed: Option<u64>,
    args: Args,
}

fn parse(argv: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        all: false,
        holdout_seed: None,
        args: Args {
            seed: 1,
            seconds: manifest::RUN_SECONDS as f64,
            trace: false,
            size: Size::Full,
            threads: DEFAULT_THREADS,
        },
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let bad = |v: &str| format!("bad value {v:?} for {flag}");
        match flag.as_str() {
            "--workload" => cli.workload = Some(value()?.clone()),
            "--seed" => cli.args.seed = value()?.parse().map_err(|_| bad(flag))?,
            "--holdout-seed" => cli.holdout_seed = Some(value()?.parse().map_err(|_| bad(flag))?),
            "--seconds" => {
                let v = value()?;
                cli.args.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s >= 0.0)
                    .ok_or_else(|| bad(v))?;
            }
            "--trace" => {
                cli.args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(bad(v)),
                }
            }
            "--size" => {
                cli.args.size = match value()?.as_str() {
                    "full" => Size::Full,
                    "tiny" => Size::Tiny,
                    v => return Err(bad(v)),
                }
            }
            "--threads" => {
                let v = value()?;
                cli.args.threads = v.parse().ok().filter(|t| *t >= 1).ok_or_else(|| bad(v))?;
            }
            "--all" => cli.all = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(cli)
}

/// Runs every workload untraced and traced as child processes (so each
/// starts with a fresh heap and its own peak), forwarding their output.
/// Returns whether all passed.
fn run_all(cli: &Cli) -> bool {
    let exe = std::env::current_exe().expect("the benchmark knows its own path");
    let seeds: Vec<u64> = std::iter::once(cli.args.seed)
        .chain(cli.holdout_seed)
        .collect();
    let size = match cli.args.size {
        Size::Full => "full",
        Size::Tiny => "tiny",
    };
    let mut all_ok = true;
    for &seed in &seeds {
        for workload in WORKLOAD_NAMES {
            for trace in ["0", "1"] {
                let output = Command::new(&exe)
                    .args(["--workload", workload, "--seed", &seed.to_string()])
                    .args(["--seconds", &cli.args.seconds.to_string(), "--trace", trace])
                    .args(["--size", size, "--threads", &cli.args.threads.to_string()])
                    .stderr(Stdio::inherit())
                    .output()
                    .expect("the benchmark can run itself");
                let stdout = String::from_utf8_lossy(&output.stdout);
                println!("# {workload} seed {seed} trace {trace}");
                print!("{stdout}");
                let ok = output.status.success()
                    && stdout
                        .lines()
                        .last()
                        .is_some_and(|l| l.starts_with("{\"correct\": true"));
                all_ok &= ok;
            }
        }
    }
    all_ok
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse(&argv) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("error: {e}");
            return usage();
        }
    };
    if cli.all {
        let ok = run_all(&cli);
        if let Err(e) = std::fs::write(manifest_path(), manifest::render()) {
            eprintln!("error: could not write BENCHMARK.json: {e}");
            return ExitCode::FAILURE;
        }
        println!("{{\"all_correct\": {ok}, \"manifest\": \"BENCHMARK.json\"}}");
        return if ok {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    let Some(workload) = cli.workload.as_deref() else {
        return usage();
    };
    let steal_before = host::stolen_per_cpu_s();
    let out = match workload {
        "fleet" => fleet::run(&cli.args),
        "platoon" => platoon::run(&cli.args),
        "decide" => decide::run(&cli.args),
        other => {
            eprintln!("error: unknown workload {other:?}");
            return usage();
        }
    };
    if print_outcome(
        workload,
        &cli.args,
        &out,
        host::stolen_per_cpu_s() - steal_before,
    ) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
