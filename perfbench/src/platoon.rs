//! The `platoon` workload: `run_v2x` with 100 vehicles, full V2X defences,
//! attacks on, no faults, and 1000 short epochs of about one component tick
//! per vehicle. The program enters the plane, the V2X ladder and the shared
//! engine from inside `run_v2x`, so the traced run spans `run_v2x` whole and
//! measures those layers by the run's counters plus probes on its inputs.

use crate::common::{
    check_identical, rate, run_rounds, trace_overhead, Args, Cost, Outcome, Size, Source,
};
use crate::fleet::{engine_counts, frame_counts, vehicle_context, MIX_CAP};
use crate::probes::{self, MailShape};
use crate::stats::{histogram_samples, median, ratio};
use crate::trace::{Tracer, ROOT};
use polsec_car::fleet::{FleetEnforcement, Vehicle};
use polsec_car::v2x::{
    rollout_bundle, run_v2x, v2x_shared_policy_set, V2xConfig, V2xMsg, OEM_KEY, PLATOON_GROUP,
};
use polsec_core::{AccessRequest, PolicyEngine};
use polsec_sim::{resolve_threads, run_epochs, MessagePlane, MetricSet};
use std::sync::Arc;

/// The workload's V2X configuration.
pub fn config(size: Size, seed: u64, threads: usize) -> V2xConfig {
    let (vehicles, epochs, frames_per_epoch) = match size {
        Size::Full => (100, 1000, 12),
        Size::Tiny => (5, 12, 60),
    };
    let mut cfg = V2xConfig::new(vehicles, epochs, frames_per_epoch);
    cfg.fleet.seed = seed;
    cfg.fleet.threads = threads;
    cfg.fleet.enforcement = FleetEnforcement::shipped();
    cfg
}

/// Set-up: compile the shared engine, sign the rollout and build every
/// vehicle's in-vehicle network.
fn setup(cfg: &V2xConfig, tracer: Option<&Tracer>) {
    let engine = match tracer {
        Some(t) => t.span("core.engine_new", ROOT, || {
            PolicyEngine::new(v2x_shared_policy_set())
        }),
        None => PolicyEngine::new(v2x_shared_policy_set()),
    };
    let engine = Arc::new(engine);
    let rollout = rollout_bundle().sign(OEM_KEY);
    let vehicles: Vec<Vehicle> = (0..cfg.fleet.vehicles)
        .map(|i| Vehicle::build(&cfg.fleet, i, Arc::clone(&engine)))
        .collect();
    std::hint::black_box((vehicles, rollout));
}

struct Round {
    cost: Cost,
    det: String,
    failed: u64,
    ota_applied: u64,
}

fn round(cfg: &V2xConfig) -> Round {
    round_with_report(cfg).0
}

/// A round that also hands back the run's metric sets (deterministic and
/// wall); untraced rounds drop them at once, as they hold raw samples.
fn round_with_report(cfg: &V2xConfig) -> (Round, MetricSet, MetricSet) {
    let (mut report, cost) = Cost::measure(|| {
        let report = run_v2x(cfg);
        let frames = report.frames();
        (report, frames)
    });
    let m = &report.metrics;
    let round = Round {
        cost,
        failed: m.counter("attack.leaked_frames")
            + m.counter("v2x.leaked")
            + m.counter("ota.gave_up"),
        ota_applied: m.counter("ota.applied"),
        det: report.metrics.to_json(),
    };
    (round, report.metrics, report.wall)
}

/// How far the epoch probe's frame and delivery counts may stray from the
/// run it stands for, as a share of the run's.
const STAND_IN_TOLERANCE: f64 = 0.05;

/// What the epoch probe measured.
struct EpochProbe {
    build_ms: f64,
    run_ns_per_frame: f64,
    finish_ms: f64,
    busy_ratio: f64,
    merge_ms: f64,
    mix: Vec<AccessRequest>,
    frames: u64,
    delivered: u64,
}

/// The platoon's in-vehicle path through the epoch runner: `run_epochs`
/// over the platoon group, each step one `Vehicle::run_until` slice plus,
/// on followers, one relayed lead message, and the run's mail shape.
/// Spans around `Vehicle::build`, each step and `Vehicle::finish`.
fn epoch_probe(cfg: &V2xConfig, shape: MailShape, tracer: &Tracer) -> EpochProbe {
    let engine = Arc::new(PolicyEngine::new(v2x_shared_policy_set()));
    let mut plane = MessagePlane::new();
    plane.group(PLATOON_GROUP, 0..cfg.fleet.vehicles);
    let msg = V2xMsg::Platoon(polsec_car::v2x::PlatoonMsg::signed(
        polsec_car::v2x::FLEET_V2X_KEY,
        0,
        1,
        60,
        false,
        polsec_car::v2x::CLAIM_V2X_LEAD,
    ));
    let t0 = tracer.now();
    let merged = run_epochs(
        cfg.fleet.vehicles,
        cfg.fleet.threads,
        cfg.epochs,
        &plane,
        |i| {
            tracer.span("car.vehicle_build", ROOT, || {
                Vehicle::build(&cfg.fleet, i, Arc::clone(&engine))
            })
        },
        |vehicle, ctx| {
            let mut local = tracer.local();
            let step = local.reserve();
            let start = local.now();
            if ctx.shard > 0 {
                vehicle.relay_v2x(60, false, ctx.epoch as u16);
            }
            local.span("car.vehicle_run_until", step, || {
                vehicle.run_until(&cfg.fleet, (ctx.epoch + 1) * cfg.frames_per_epoch)
            });
            shape.post(ctx.shard, ctx.outbox, &msg);
            let end = local.now();
            local.record_as(step, "sim.epoch_step", ROOT, start, end);
        },
        |vehicle, metrics| {
            let set = tracer.span("car.vehicle_finish", ROOT, || vehicle.finish());
            metrics.merge(&set);
        },
    );
    let t1 = tracer.now();
    let ns = |name| -> Vec<f64> {
        tracer
            .within(name, t0, t1)
            .iter()
            .map(|s| s.dur_ns() as f64)
            .collect()
    };
    let frames = merged.counter("frames.transmitted");
    let last_finish = tracer
        .within("car.vehicle_finish", t0, t1)
        .iter()
        .map(|s| s.end_ns)
        .max()
        .unwrap_or(t1);
    let threads = resolve_threads(cfg.fleet.threads).min(cfg.fleet.vehicles.max(1));
    EpochProbe {
        build_ms: median(&ns("car.vehicle_build")) / 1e6,
        run_ns_per_frame: ns("car.vehicle_run_until").iter().sum::<f64>() / frames.max(1) as f64,
        finish_ms: median(&ns("car.vehicle_finish")) / 1e6,
        busy_ratio: ns("sim.epoch_step").iter().sum::<f64>() / ((t1 - t0) as f64 * threads as f64),
        merge_ms: t1.saturating_sub(last_finish) as f64 / 1e6,
        mix: engine.with_audit(|log| log.records().map(|r| r.request).take(MIX_CAP).collect()),
        frames,
        delivered: merged.counter("plane.delivered"),
    }
}

pub fn run(args: &Args) -> Outcome {
    let cfg = config(args.size, args.seed, args.threads);
    let tracer = args.trace.then(Tracer::new);
    let mut out = Outcome::default();
    let vehicles = cfg.fleet.vehicles as u64;

    let (setup_s, warm, timed) = run_rounds(
        args.seconds,
        || setup(&cfg, tracer.as_ref()),
        |_| round(&cfg),
    );
    let heap = crate::host::peak_heap_mb();
    check_identical(
        &mut out,
        "platoon",
        &warm.det,
        timed.iter().map(|r| r.det.as_str()),
    );
    out.attempted = timed.iter().map(|r| r.cost.ops).sum();
    out.failed = timed.iter().map(|r| r.failed).sum();
    out.checks.check(
        "platoon: no leaked attack frame, accepted attacker message or abandoned OTA delivery",
        warm.failed == 0 && out.failed == 0,
    );
    out.checks.check(
        "platoon: ota.applied == vehicles",
        std::iter::once(&warm)
            .chain(&timed)
            .all(|r| r.ota_applied == vehicles),
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
    let (traced, mut metrics, mut wall) =
        tracer.span("car.run_v2x", ROOT, || round_with_report(&cfg));
    out.checks.check(
        "platoon: traced run reproduces the deterministic metrics",
        traced.det == warm.det,
    );
    let m = &metrics;
    let frames = m.counter("frames.transmitted");
    let epochs = m.counter("plane.epochs");
    let delivered = m.counter("plane.delivered");
    let received = m.counter("v2x.received");
    let forged_share = ratio(m.counter("v2x.rejected_auth"), received);
    let shape = MailShape::of_run(cfg.fleet.vehicles, cfg.epochs, delivered);
    frame_counts(&mut out, m);
    out.layer(
        "sim.plane_deliveries_per_epoch",
        ratio(delivered, epochs),
        Source::Count,
    );
    out.layer(
        "car.v2x_accept_ratio",
        ratio(m.counter("v2x.accepted"), received),
        Source::Count,
    );
    let stats = polsec_core::EngineStats {
        decisions: wall.counter("engine.decisions"),
        cache_hits: wall.counter("engine.cache_hits"),
        rules_examined: wall.counter("engine.rules_examined"),
        ..Default::default()
    };
    engine_counts(&mut out, &stats, frames);
    let samples = histogram_samples(&mut metrics) + histogram_samples(&mut wall);
    out.layer("sim.histogram_samples", samples as f64, Source::Count);

    // The probe's step stands in for run_v2x's own per-vehicle epoch, which
    // is private: its figures count only if it does about the same work.
    let probe = epoch_probe(&cfg, shape, &tracer);
    let near =
        |got: u64, want: u64| (got as f64 - want as f64).abs() <= STAND_IN_TOLERANCE * want as f64;
    out.checks.check(
        format!(
            "platoon: epoch probe within {}% of run_v2x in frames ({} vs {frames}) and plane deliveries ({} vs {delivered})",
            STAND_IN_TOLERANCE * 100.0,
            probe.frames,
            probe.delivered
        ),
        near(probe.frames, frames) && near(probe.delivered, delivered),
    );
    out.layer("car.vehicle_build_ms", probe.build_ms, Source::Probe);
    out.layer(
        "car.vehicle_run_ns_per_frame",
        probe.run_ns_per_frame,
        Source::Probe,
    );
    out.layer("car.vehicle_finish_ms", probe.finish_ms, Source::Probe);
    out.layer("sim.shard_busy_ratio", probe.busy_ratio, Source::Probe);
    out.layer("sim.merge_ms", probe.merge_ms, Source::Probe);
    let (route_ns, epoch_us) = probes::plane_route(shape, args.threads);
    out.layer("sim.plane_route_ns", route_ns, Source::Probe);
    out.layer("sim.plane_epoch_us", epoch_us, Source::Probe);
    let (auth_ns, auth_ok) = probes::v2x_auth_ns(forged_share, args.seed);
    out.checks
        .check("platoon: v2x auth probe verdicts", auth_ok);
    out.layer("car.v2x_auth_ns", auth_ns, Source::Probe);
    out.layer(
        "hpe.check_ns",
        probes::hpe_check_ns(&cfg.fleet),
        Source::Probe,
    );

    let set = v2x_shared_policy_set();
    let (hit, miss) = probes::decide_split(&set, &probe.mix, &vehicle_context(), 3, &tracer, ROOT);
    out.layer("core.decide_hit_ns", hit, Source::Probe);
    out.layer("core.decide_miss_ns", miss, Source::Probe);
    let engine = PolicyEngine::new(set.clone());
    out.layer(
        "core.rate_observe_ns",
        probes::rate_observe_ns(&engine, "door-lock-cmd"),
        Source::Probe,
    );
    let (verify, reload) = probes::bundle_update(&set, rollout_bundle().policies, &tracer, ROOT);
    out.layer("core.bundle_verify_ms", verify, Source::Probe);
    out.layer("core.reload_ms", reload, Source::Probe);
    let engine_new: Vec<f64> = tracer
        .within("core.engine_new", 0, u64::MAX)
        .iter()
        .map(|s| s.dur_ns() as f64 / 1e6)
        .collect();
    out.layer("core.engine_new_ms", median(&engine_new), Source::Span);
    out.layer(
        "bench.trace_overhead",
        trace_overhead(&traced.cost, &costs),
        Source::Span,
    );
    crate::write_spans(&tracer, "platoon", args.seed);
    out
}
