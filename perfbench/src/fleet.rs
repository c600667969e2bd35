//! The `fleet` workload: 100 vehicles under the shipped ladder, no message
//! plane, 10M frames a round. Untraced rounds call `run_fleet`; the traced
//! round drives `run_sharded` with the per-vehicle closure `run_fleet` uses
//! (build, run to quota, finish), with spans around each call.

use crate::common::{
    check_identical, rate, run_rounds, trace_overhead, Args, Cost, Outcome, Size, Source,
};
use crate::probes;
use crate::stats::{histogram_samples, median, ratio};
use crate::trace::{Tracer, ROOT};
use polsec_car::car_policy;
use polsec_car::fleet::{run_fleet, FleetConfig, FleetEnforcement, Vehicle};
use polsec_core::{AccessRequest, EngineStats, EvalContext, PolicyEngine};
use polsec_sim::{resolve_threads, run_sharded, MetricSet};
use std::sync::Arc;

/// The workload's fleet configuration.
fn config(size: Size, seed: u64, threads: usize) -> FleetConfig {
    let (vehicles, frames_per_vehicle) = match size {
        Size::Full => (100, 100_000),
        Size::Tiny => (4, 2_000),
    };
    let mut cfg = FleetConfig::new(vehicles, frames_per_vehicle);
    cfg.seed = seed;
    cfg.threads = threads;
    cfg.enforcement = FleetEnforcement::shipped();
    cfg
}

/// The shared-engine context every vehicle decides gateway crossings in.
pub fn vehicle_context() -> EvalContext {
    EvalContext::new()
        .with_mode("normal")
        .with_state("vehicle.moving", "true")
        .with_state("crash", "false")
        .with_state("stolen", "false")
}

/// Set-up: compile the shared engine and build every vehicle.
fn setup(cfg: &FleetConfig, tracer: Option<&Tracer>) {
    let engine = match tracer {
        Some(t) => t.span("core.engine_new", ROOT, || {
            PolicyEngine::from_policy(car_policy())
        }),
        None => PolicyEngine::from_policy(car_policy()),
    };
    let engine = Arc::new(engine);
    let vehicles: Vec<Vehicle> = (0..cfg.vehicles)
        .map(|i| Vehicle::build(cfg, i, Arc::clone(&engine)))
        .collect();
    std::hint::black_box(vehicles);
}

struct Round {
    cost: Cost,
    det: String,
    failed: u64,
}

fn untraced_round(cfg: &FleetConfig) -> Round {
    let (mut report, cost) = Cost::measure(|| {
        let report = run_fleet(cfg);
        let frames = report.frames();
        (report, frames)
    });
    Round {
        cost,
        failed: report.metrics.counter("attack.leaked_frames"),
        det: report.metrics.to_json(),
    }
}

/// What the traced fleet run measured.
struct TracedFleet {
    pub metrics: MetricSet,
    pub wall: MetricSet,
    pub stats: EngineStats,
    /// Requests the shared engine decided (its audit ring).
    pub mix: Vec<AccessRequest>,
    pub build_ms: f64,
    pub run_ns_per_frame: f64,
    pub finish_ms: f64,
    pub busy_ratio: f64,
    pub merge_ms: f64,
}

/// Runs the fleet as `run_fleet` does, but from the benchmark: the shared
/// engine, `run_sharded`, and per vehicle `Vehicle::build`,
/// `Vehicle::run_until` to the quota and `Vehicle::finish` — exactly
/// `Vehicle::run` — each inside a span.
fn traced_fleet(cfg: &FleetConfig, tracer: &Tracer) -> TracedFleet {
    let t0 = tracer.now();
    let engine = Arc::new(tracer.span("core.engine_new", ROOT, || {
        PolicyEngine::from_policy(car_policy())
    }));
    let run_start = tracer.now();
    let mut metrics = run_sharded(cfg.vehicles, cfg.threads, |i| {
        let mut local = tracer.local();
        let task = local.reserve();
        let start = local.now();
        let mut vehicle = local.span("car.vehicle_build", task, || {
            Vehicle::build(cfg, i, Arc::clone(&engine))
        });
        local.span("car.vehicle_run_until", task, || {
            vehicle.run_until(cfg, cfg.frames_per_vehicle)
        });
        let set = local.span("car.vehicle_finish", task, || vehicle.finish());
        let end = local.now();
        local.record_as(task, "sim.shard_task", ROOT, start, end);
        set
    });
    let run_end = tracer.now();
    let mut local = tracer.local();
    local.record("sim.run_sharded", ROOT, run_start, run_end);
    drop(local);

    let wall = metrics.split_off_prefix("wall.");
    let frames = metrics.counter("frames.transmitted");
    let durations = |name| -> Vec<f64> {
        tracer
            .within(name, t0, run_end)
            .iter()
            .map(|s| s.dur_ns() as f64)
            .collect()
    };
    let tasks = tracer.within("sim.shard_task", t0, run_end);
    let last_task_end = tasks.iter().map(|s| s.end_ns).max().unwrap_or(run_end);
    let busy_ns: f64 = tasks.iter().map(|s| s.dur_ns() as f64).sum();
    let threads = resolve_threads(cfg.threads).min(cfg.vehicles.max(1));
    let run_ns: f64 = durations("car.vehicle_run_until").iter().sum();
    TracedFleet {
        stats: engine.stats(),
        mix: engine.with_audit(|log| log.records().map(|r| r.request).collect()),
        build_ms: median(&durations("car.vehicle_build")) / 1e6,
        run_ns_per_frame: run_ns / frames.max(1) as f64,
        finish_ms: median(&durations("car.vehicle_finish")) / 1e6,
        busy_ratio: busy_ns / ((run_end - run_start) as f64 * threads as f64),
        // run_sharded merges after its last shard task; the tail is the merge.
        merge_ms: run_end.saturating_sub(last_task_end) as f64 / 1e6,
        metrics,
        wall,
    }
}

/// The in-vehicle per-frame ledger read from a run's deterministic metrics.
pub fn frame_counts(out: &mut Outcome, m: &MetricSet) {
    let frames = m.counter("frames.transmitted");
    let checks =
        m.counter("hpe.granted") + m.counter("hpe.read_blocked") + m.counter("hpe.write_blocked");
    out.layer(
        "can.deliveries_per_frame",
        ratio(m.counter("frames.delivered"), frames),
        Source::Count,
    );
    out.layer(
        "can.gateway_crossings_per_frame",
        ratio(m.counter("gateway.crossed"), frames),
        Source::Count,
    );
    out.layer("hpe.checks_per_frame", ratio(checks, frames), Source::Count);
    out.layer(
        "hpe.grant_ratio",
        ratio(m.counter("hpe.granted"), checks),
        Source::Count,
    );
    out.layer(
        "hpe.cycles_per_check",
        ratio(m.counter("hpe.cycles"), checks),
        Source::Count,
    );
    out.layer(
        "car.anomaly_checks_per_frame",
        ratio(m.counter("anomaly.checked"), frames),
        Source::Count,
    );
}

/// Shared-engine work per frame and per decision.
pub fn engine_counts(out: &mut Outcome, stats: &EngineStats, frames: u64) {
    out.layer(
        "core.decisions_per_frame",
        ratio(stats.decisions, frames),
        Source::Count,
    );
    out.layer(
        "core.cache_hit_ratio",
        ratio(stats.cache_hits, stats.decisions),
        Source::Count,
    );
    out.layer(
        "core.rules_per_decision",
        ratio(stats.rules_examined, stats.decisions),
        Source::Count,
    );
}

/// At most this many audited requests feed the decide probe.
pub const MIX_CAP: usize = 20_000;

pub fn run(args: &Args) -> Outcome {
    let cfg = config(args.size, args.seed, args.threads);
    let tracer = args.trace.then(Tracer::new);
    let mut out = Outcome::default();

    let (setup_s, warm, timed) = run_rounds(
        args.seconds,
        || setup(&cfg, tracer.as_ref()),
        |_| untraced_round(&cfg),
    );
    let heap = crate::host::peak_heap_mb();
    check_identical(
        &mut out,
        "fleet",
        &warm.det,
        timed.iter().map(|r| r.det.as_str()),
    );
    out.attempted = timed.iter().map(|r| r.cost.ops).sum();
    out.failed = timed.iter().map(|r| r.failed).sum();
    out.checks.check(
        "fleet: no attack frame leaked",
        warm.failed == 0 && out.failed == 0,
    );
    let costs: Vec<Cost> = timed.iter().map(|r| r.cost).collect();
    let fps = rate(&costs, Cost::host_s);
    let fps_wall = rate(&costs, |c| c.wall_s);
    let fps_cpu = rate(&costs, |c| c.cpu_s);

    out.e2e = vec![
        ("setup_s", setup_s),
        ("ops_per_s", fps),
        ("peak_heap_mb", heap),
    ];
    out.report = vec![
        ("setup_s", setup_s, "s"),
        ("frames_per_s", fps, "frames/s"),
        ("frames_per_wall_s", fps_wall, "frames/s"),
        ("frames_per_cpu_s", fps_cpu, "frames/s"),
        ("peak_heap_mb", heap, "MB"),
        ("peak_rss_mb", crate::host::peak_rss_mb(), "MB"),
        ("fail_ratio", ratio(out.failed, out.attempted), "ratio"),
        ("rounds", timed.len() as f64, "count"),
        ("frames_per_round", warm.cost.ops as f64, "frames"),
    ];

    let Some(tracer) = tracer else {
        return out;
    };
    let (mut driven, traced_cost) = Cost::measure(|| (traced_fleet(&cfg, &tracer), 0));
    let det = driven.metrics.to_json();
    out.checks.check(
        "fleet: run_sharded with run_fleet's per-vehicle closure reproduces run_fleet's deterministic metrics",
        det == warm.det,
    );
    let frames = driven.metrics.counter("frames.transmitted");
    out.layer("car.vehicle_build_ms", driven.build_ms, Source::Span);
    out.layer(
        "car.vehicle_run_ns_per_frame",
        driven.run_ns_per_frame,
        Source::Span,
    );
    out.layer("car.vehicle_finish_ms", driven.finish_ms, Source::Span);
    out.layer("sim.shard_busy_ratio", driven.busy_ratio, Source::Span);
    out.layer("sim.merge_ms", driven.merge_ms, Source::Span);
    let samples = histogram_samples(&mut driven.metrics) + histogram_samples(&mut driven.wall);
    out.layer("sim.histogram_samples", samples as f64, Source::Count);
    out.off_path(&["sim.plane_deliveries_per_epoch"]);
    frame_counts(&mut out, &driven.metrics);
    engine_counts(&mut out, &driven.stats, frames);

    let engine_new: Vec<f64> = tracer
        .within("core.engine_new", 0, u64::MAX)
        .iter()
        .map(|s| s.dur_ns() as f64 / 1e6)
        .collect();
    out.layer("core.engine_new_ms", median(&engine_new), Source::Span);

    let set = polsec_core::PolicySet::from_policy(car_policy());
    let mix: Vec<AccessRequest> = driven.mix.iter().take(MIX_CAP).copied().collect();
    let (hit, miss) = probes::decide_split(&set, &mix, &vehicle_context(), 3, &tracer, ROOT);
    out.layer("core.decide_hit_ns", hit, Source::Probe);
    out.layer("core.decide_miss_ns", miss, Source::Probe);
    let engine = PolicyEngine::new(set.clone());
    out.layer(
        "core.rate_observe_ns",
        probes::rate_observe_ns(&engine, "door-lock-cmd"),
        Source::Probe,
    );
    let (verify, reload) = probes::bundle_update(&set, vec![car_policy()], &tracer, ROOT);
    out.layer("core.bundle_verify_ms", verify, Source::Probe);
    out.layer("core.reload_ms", reload, Source::Probe);
    out.layer("hpe.check_ns", probes::hpe_check_ns(&cfg), Source::Probe);

    out.off_path(&[
        "sim.plane_route_ns",
        "sim.plane_epoch_us",
        "car.v2x_accept_ratio",
        "car.v2x_auth_ns",
    ]);
    out.layer(
        "bench.trace_overhead",
        trace_overhead(&traced_cost, &costs),
        Source::Span,
    );
    crate::write_spans(&tracer, "fleet", args.seed);
    out
}
