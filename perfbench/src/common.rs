//! What every workload shares: arguments, the round loop, checks and the
//! shape of a workload's outcome.

use crate::host::{process_cpu_s, stolen_per_cpu_s, thread_cpu_s};
use crate::stats::{fnv, median, FNV_OFFSET};
use std::time::Instant;

/// Workload size: `Full` is the benchmark; `Tiny` is for the smoke tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

/// The arguments of one workload run.
#[derive(Debug, Clone)]
pub struct Args {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub size: Size,
    pub threads: usize,
}

/// Named pass/fail checks of a run.
#[derive(Debug, Default)]
pub struct Checks(pub Vec<(String, bool)>);

impl Checks {
    pub fn check(&mut self, name: impl Into<String>, ok: bool) {
        self.0.push((name.into(), ok));
    }

    pub fn all_pass(&self) -> bool {
        self.0.iter().all(|(_, ok)| *ok)
    }
}

/// How a per-layer figure was obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// Spans around the benchmark's own calls into the layer.
    Span,
    /// The run's own metric set or `EngineStats`.
    Count,
    /// A probe of the layer's public function on this workload's inputs.
    Probe,
    /// The workload never enters the layer: the figure reads 0.
    OffPath,
}

impl Source {
    pub fn label(self) -> &'static str {
        match self {
            Source::Span => "span",
            Source::Count => "count",
            Source::Probe => "probe",
            Source::OffPath => "off-path",
        }
    }
}

/// Everything a workload run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Contract end-to-end metrics (tracing off).
    pub e2e: Vec<(&'static str, f64)>,
    /// Contract per-layer metrics with their source (traced run only).
    pub layers: Vec<(&'static str, f64, Source)>,
    /// The workload's metrics under their own names, with units.
    pub report: Vec<(&'static str, f64, &'static str)>,
    pub attempted: u64,
    pub failed: u64,
    pub checks: Checks,
    /// Size and FNV-1a digest of the deterministic section, so runs of
    /// one seed can be compared across commits.
    pub det_digest: (usize, u64),
}

impl Outcome {
    pub fn layer(&mut self, name: &'static str, value: f64, source: Source) {
        self.layers.push((name, value, source));
    }

    /// Reports 0 for metrics of layers the workload never enters.
    pub fn off_path(&mut self, names: &[&'static str]) {
        for &name in names {
            self.layer(name, 0.0, Source::OffPath);
        }
    }
}

/// The cost of one timed stretch of work: operations done, wall seconds,
/// seconds the hypervisor stole from an average CPU meanwhile, and CPU
/// seconds (all threads) it took.
#[derive(Debug, Clone, Copy, Default)]
pub struct Cost {
    pub ops: u64,
    pub wall_s: f64,
    pub stolen_s: f64,
    pub cpu_s: f64,
}

impl Cost {
    /// Measures `work`, which returns the operations it did.
    pub fn measure<R>(work: impl FnOnce() -> (R, u64)) -> (R, Cost) {
        let cpu = process_cpu_s();
        let stolen = stolen_per_cpu_s();
        let started = Instant::now();
        let (out, ops) = work();
        let wall_s = started.elapsed().as_secs_f64();
        let cost = Cost {
            ops,
            wall_s,
            stolen_s: stolen_per_cpu_s() - stolen,
            cpu_s: process_cpu_s() - cpu,
        };
        (out, cost)
    }

    pub fn add(&mut self, other: Cost) {
        self.ops += other.ops;
        self.wall_s += other.wall_s;
        self.stolen_s += other.stolen_s;
        self.cpu_s += other.cpu_s;
    }

    /// Host seconds: wall time less what the hypervisor stole. Unlike CPU
    /// time, this still counts time the program spends parked on a lock
    /// or a barrier, or idle because its work did not spread over its
    /// threads.
    pub fn host_s(&self) -> f64 {
        (self.wall_s - self.stolen_s).max(self.wall_s * 0.01)
    }
}

/// Operations per second, `seconds` measuring each round; the median over
/// rounds.
pub fn rate(costs: &[Cost], seconds: fn(&Cost) -> f64) -> f64 {
    median(
        &costs
            .iter()
            .map(|c| c.ops as f64 / seconds(c))
            .collect::<Vec<_>>(),
    )
}

/// The traced round's host time over the median untraced round's, minus
/// one.
pub fn trace_overhead(traced: &Cost, untraced: &[Cost]) -> f64 {
    traced.host_s() / median(&untraced.iter().map(Cost::host_s).collect::<Vec<_>>()) - 1.0
}

/// Set-up runs at least this many times a run; `setup_s` is the median.
pub const MIN_SETUPS: usize = 11;

/// One warm-up round (checked, not timed), then timed rounds until
/// `seconds` have passed, with at least two timed rounds. The
/// single-threaded `setup` runs before every round, and after the last
/// until it has run [`MIN_SETUPS`] times; the first value returned is the
/// median CPU seconds it took on this thread.
///
/// Set-ups are spread over the run, as the rounds are, because this host's
/// speed drifts within seconds (one set-up took 75 to 135 ms of CPU time
/// within one run), so the median of back-to-back set-ups rests on
/// whichever second they fell in. CPU time, not wall time, so time the
/// hypervisor steals does not land in set-up.
pub fn run_rounds<R>(
    seconds: f64,
    mut setup: impl FnMut(),
    mut round: impl FnMut(usize) -> R,
) -> (f64, R, Vec<R>) {
    let mut setups = Vec::new();
    let mut timed_setup = |setups: &mut Vec<f64>| {
        let before = thread_cpu_s();
        setup();
        setups.push(thread_cpu_s() - before);
    };
    timed_setup(&mut setups);
    let warm = round(0);
    let started = Instant::now();
    let mut timed = Vec::new();
    while timed.len() < 2 || started.elapsed().as_secs_f64() < seconds {
        timed_setup(&mut setups);
        timed.push(round(timed.len() + 1));
    }
    while setups.len() < MIN_SETUPS {
        timed_setup(&mut setups);
    }
    (median(&setups), warm, timed)
}

/// Checks that every round reproduced the warm-up round's deterministic
/// section byte for byte, and records its digest.
pub fn check_identical<'a>(
    out: &mut Outcome,
    what: &str,
    reference: &str,
    rounds: impl IntoIterator<Item = &'a str>,
) {
    let mut n = 0;
    let mut same = 0;
    for det in rounds {
        n += 1;
        if det == reference {
            same += 1;
        }
    }
    out.checks.check(
        format!("{what}: deterministic section identical in {same}/{n} rounds"),
        same == n,
    );
    out.det_digest = (reference.len(), fnv(FNV_OFFSET, reference.as_bytes()));
}
