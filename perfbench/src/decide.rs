//! The `decide` workload: `PolicyEngine` as a decision service. Two client
//! threads share one engine over a 1000-rule policy. The request working
//! set is about four times the 8192-slot decision cache, and one subject in
//! eight carries a rate condition, so its requests bypass the cache.
//! `observe_rate_event` writes sit beside the decisions. Before each of the
//! fixed-size phases a signed update goes through `SignedBundle::verify`
//! and `load_bundle`, which invalidates the cache.
//!
//! Every client owns the rate keys of the rate-conditioned subjects it asks
//! about, so its decisions are a pure function of its own operation list.
//! That makes them checkable: sampled decisions are compared with an
//! uncached reference engine replaying the client's operations, and a
//! digest of every decision must repeat in every round.

use crate::common::{
    check_identical, rate, run_rounds, trace_overhead, Args, Cost, Outcome, Size, Source,
};
use crate::probes;
use crate::stats::{fnv, median, ratio, LatencyHistogram, FNV_OFFSET};
use crate::trace::{LocalSpans, Tracer, ROOT};
use polsec_core::{
    AccessRequest, Action, ActionSet, Condition, Decision, Effect, EntityId, EntityMatcher,
    EvalContext, LoadMode, Pattern, Policy, PolicyBundle, PolicyEngine, PolicySet, Rule,
    SignedBundle,
};
use polsec_sim::DetRng;
use std::hint::black_box;
use std::time::Instant;

const RULES: usize = 1000;
const SUBJECTS: usize = 250;
const OBJECTS: usize = 64;
const ACTIONS: [Action; 2] = [Action::Read, Action::Write];
/// Distinct request keys: 32000, about 3.9 times the decision cache.
const REQUESTS: usize = SUBJECTS * OBJECTS * ACTIONS.len();
/// One subject in this many carries a rate-conditioned rule.
const RATE_EVERY: usize = 8;
/// Rate limits (events per second) cycled over the rate-conditioned rules.
const RATE_LIMITS: [u32; 3] = [5_000, 20_000, 80_000];
/// Share of operations that are `observe_rate_event` writes.
const OBSERVE_SHARE: f64 = 0.25;
const PHASES: usize = 4;
/// Every this many decisions of a client is timed from outside.
const TIME_EVERY: u64 = 8;
/// Every this many decisions of a client is checked against the reference.
const CHECK_EVERY: u64 = 64;
/// Every this many rate writes of a client gets a span in the traced round.
const OBSERVE_SPAN_EVERY: u64 = 8;
/// Top bit of an encoded operation: a rate write, not a decision.
const OBSERVE: u32 = 1 << 31;
/// Simulated time between rounds, a whole number of rate-window buckets
/// and longer than the window, so no round sees another round's writes.
const ROUND_SPACING_US: u64 = 100_000_000;
const UPDATE_KEY: &[u8] = b"decide-service-oem-key";

fn phase_ops(size: Size) -> usize {
    match size {
        Size::Full => 250_000,
        Size::Tiny => 4_000,
    }
}

fn subject(s: usize) -> String {
    format!("svc-client-{s}")
}

fn rate_key(s: usize) -> String {
    format!("svc-rate-{s}")
}

/// The service policy at `version`: 1000 exact rules, four per subject,
/// whose effects rotate with the version so every update changes answers.
pub fn policy(version: u64) -> Policy {
    let mut p = Policy::new("decide-service", version);
    for i in 0..RULES {
        let s = i % SUBJECTS;
        let o = (s * 5 + (i / SUBJECTS) * 17) % OBJECTS;
        let effect = if (i as u64 + version).is_multiple_of(5) {
            Effect::Deny
        } else {
            Effect::Allow
        };
        let actions = match i % 3 {
            0 => ActionSet::of(&[Action::Read]),
            1 => ActionSet::of(&[Action::Write]),
            _ => ActionSet::of(&ACTIONS),
        };
        let mut rule = Rule::new(
            format!("r{i}"),
            effect,
            actions,
            EntityMatcher::new("entry", Pattern::Exact(subject(s))),
            EntityMatcher::new("asset", Pattern::Exact(format!("svc-asset-{o}"))),
        );
        if i < SUBJECTS && s.is_multiple_of(RATE_EVERY) {
            rule = rule.when(Condition::RateAtMost {
                key: rate_key(s),
                max_per_sec: RATE_LIMITS[(s / RATE_EVERY) % RATE_LIMITS.len()],
            });
        }
        p = p.add_rule(rule).expect("rule ids are unique");
    }
    p
}

fn request(idx: usize) -> AccessRequest {
    let s = idx / (OBJECTS * ACTIONS.len());
    let o = (idx / ACTIONS.len()) % OBJECTS;
    AccessRequest::new(
        EntityId::new("entry", subject(s)),
        EntityId::new("asset", format!("svc-asset-{o}")),
        ACTIONS[idx % ACTIONS.len()],
    )
}

fn request_index(s: usize, rest: usize) -> usize {
    s * OBJECTS * ACTIONS.len() + rest
}

/// The client that owns rate-conditioned subject `s`.
fn owner(s: usize, clients: usize) -> usize {
    (s / RATE_EVERY) % clients
}

/// Everything set-up produces: the engine, the request table, every
/// client's operations and the signed updates.
struct Plan {
    requests: Vec<AccessRequest>,
    keys: Vec<String>,
    /// `ops[client][phase]`: encoded operations.
    ops: Vec<Vec<Vec<u32>>>,
    updates: Vec<SignedBundle>,
    /// The verified policy set of each update, for the reference engine.
    sets: Vec<PolicySet>,
}

fn plan(seed: u64, clients: usize, size: Size) -> Plan {
    let requests: Vec<AccessRequest> = (0..REQUESTS).map(request).collect();
    let keys: Vec<String> = (0..SUBJECTS).map(rate_key).collect();
    // One popularity order shared by all clients, so hot keys collide in
    // the shared cache as they would for a real service.
    let mut order: Vec<usize> = (0..REQUESTS).collect();
    DetRng::stream(seed, u64::MAX).shuffle(&mut order);
    let per_subject = OBJECTS * ACTIONS.len();
    let ops = (0..clients)
        .map(|c| {
            let own_keys: Vec<usize> = (0..SUBJECTS)
                .filter(|s| s % RATE_EVERY == 0 && owner(*s, clients) == c)
                .collect();
            (0..PHASES)
                .map(|p| {
                    let mut rng = DetRng::stream(seed, (c * PHASES + p) as u64);
                    (0..phase_ops(size))
                        .map(|_| {
                            let u = rng.next_f64();
                            if rng.chance(OBSERVE_SHARE) && !own_keys.is_empty() {
                                let k = own_keys[((u * u) * own_keys.len() as f64) as usize];
                                return OBSERVE | k as u32;
                            }
                            let idx = order[((u * u) * REQUESTS as f64) as usize];
                            let (mut s, rest) = (idx / per_subject, idx % per_subject);
                            // Ask only about rate subjects whose keys this
                            // client writes: step to the neighbour it owns.
                            while s % RATE_EVERY == 0 && owner(s, clients) != c {
                                s = if s + RATE_EVERY < SUBJECTS {
                                    s + RATE_EVERY
                                } else {
                                    c * RATE_EVERY
                                };
                            }
                            request_index(s, rest) as u32
                        })
                        .collect()
                })
                .collect()
        })
        .collect();
    let updates: Vec<SignedBundle> = (1..=PHASES as u64)
        .map(|v| PolicyBundle::new(v, "decide service rotation", vec![policy(v)]).sign(UPDATE_KEY))
        .collect();
    let sets = updates
        .iter()
        .map(|u| {
            let bundle = u
                .verify(UPDATE_KEY)
                .expect("freshly signed bundle verifies");
            bundle.policies.into_iter().collect()
        })
        .collect();
    Plan {
        requests,
        keys,
        ops,
        updates,
        sets,
    }
}

fn context() -> EvalContext {
    EvalContext::new().with_mode("normal")
}

/// One client's running state across phases and rounds. Everything it
/// needs is allocated here, once, so rounds allocate nothing and peak RSS
/// does not depend on which allocator arena a client thread lands in.
struct Client {
    latency: LatencyHistogram,
    /// `(phase, op index, decision)` of every checked decision this round.
    samples: Vec<(usize, u32, Decision)>,
    /// The uncached engine the samples are checked against.
    reference: PolicyEngine,
    decisions: u64,
    allows: u64,
    digest: u64,
    observes: u64,
}

impl Client {
    fn new(plan: &Plan, size: Size) -> Self {
        Client {
            latency: LatencyHistogram::new(),
            samples: Vec::with_capacity(PHASES * (phase_ops(size) / CHECK_EVERY as usize + 1)),
            reference: PolicyEngine::new(plan.sets[0].clone()).with_caching(false),
            decisions: 0,
            allows: 0,
            digest: FNV_OFFSET,
            observes: 0,
        }
    }

    fn reset_round(&mut self) {
        self.samples.clear();
        self.decisions = 0;
        self.allows = 0;
        self.digest = FNV_OFFSET;
        self.observes = 0;
    }
}

/// Runs one client's operations of one phase against the shared engine.
/// `clock` reads nanoseconds; `spans` records sampled calls when traced.
#[allow(clippy::too_many_arguments)]
fn client_phase(
    engine: &PolicyEngine,
    plan: &Plan,
    ops: &[u32],
    phase: usize,
    t_base: u64,
    client: &mut Client,
    mut spans: Option<&mut LocalSpans<'_>>,
    parent: u64,
) {
    let ctx = context();
    let origin = Instant::now();
    let clock = |spans: &Option<&mut LocalSpans<'_>>| match spans {
        Some(s) => s.now(),
        None => origin.elapsed().as_nanos() as u64,
    };
    for (j, &op) in ops.iter().enumerate() {
        let t = t_base + j as u64;
        if op & OBSERVE != 0 {
            let key = plan.keys[(op & !OBSERVE) as usize].as_str();
            if spans.is_some() && client.observes.is_multiple_of(OBSERVE_SPAN_EVERY) {
                let start = clock(&spans);
                engine.observe_rate_event(key, t);
                let end = clock(&spans);
                if let Some(s) = spans.as_deref_mut() {
                    s.record("core.observe_rate_event", parent, start, end);
                }
            } else {
                engine.observe_rate_event(key, t);
            }
            client.observes += 1;
            continue;
        }
        let req = &plan.requests[op as usize];
        let decision = if client.decisions.is_multiple_of(TIME_EVERY) {
            let start = clock(&spans);
            let d = engine.decide_at(black_box(req), &ctx, t);
            let end = clock(&spans);
            client.latency.record(end - start);
            if let Some(s) = spans.as_deref_mut() {
                s.record("core.decide", parent, start, end);
            }
            d
        } else {
            engine.decide_at(black_box(req), &ctx, t)
        };
        client.digest = fnv(client.digest, &[u8::from(decision.is_allow())]);
        client.allows += u64::from(decision.is_allow());
        if client.decisions.is_multiple_of(CHECK_EVERY) {
            client.samples.push((phase, j as u32, decision));
        }
        client.decisions += 1;
    }
}

/// Replays each client's operations on an uncached reference engine and
/// compares every sampled decision. Returns the number that differ.
///
/// Rate writes of earlier rounds lie outside the window (rounds are
/// [`ROUND_SPACING_US`] apart), so a reused reference starts each round
/// as a fresh engine would.
fn reference_mismatches(plan: &Plan, clients: &mut [Client], round_base: u64, size: Size) -> u64 {
    let ctx = context();
    let mut mismatches = 0;
    for (c, client) in clients.iter_mut().enumerate() {
        let reference = &mut client.reference;
        let mut samples = client.samples.iter().peekable();
        for phase in 0..PHASES {
            reference.reload(plan.sets[phase].clone());
            let t_base = round_base + (phase * phase_ops(size)) as u64;
            for (j, &op) in plan.ops[c][phase].iter().enumerate() {
                let t = t_base + j as u64;
                if op & OBSERVE != 0 {
                    reference.observe_rate_event(&plan.keys[(op & !OBSERVE) as usize], t);
                } else if let Some(&&(p, sj, got)) = samples.peek() {
                    if p == phase && sj as usize == j {
                        samples.next();
                        let want = reference.decide_at(&plan.requests[op as usize], &ctx, t);
                        if want.effect() != got.effect() || want.rule() != got.rule() {
                            mismatches += 1;
                        }
                    }
                }
            }
        }
    }
    mismatches
}

struct Round {
    /// Decisions, and the wall and CPU time of the decision phases
    /// (updates and checks excluded).
    cost: Cost,
    update_ms: Vec<f64>,
    mismatches: u64,
    det: String,
}

fn round(
    engine: &mut PolicyEngine,
    plan: &Plan,
    clients: &mut [Client],
    index: u64,
    size: Size,
    tracer: Option<&Tracer>,
) -> Round {
    let round_base = index * ROUND_SPACING_US;
    let mut cost = Cost::default();
    let mut update_ms = Vec::with_capacity(PHASES);
    for c in clients.iter_mut() {
        c.reset_round();
    }
    for phase in 0..PHASES {
        let signed = &plan.updates[phase];
        let started = Instant::now();
        let mut local = tracer.map(Tracer::local);
        let t0 = local.as_ref().map_or(0, |l| l.now());
        let bundle = signed.verify(UPDATE_KEY).expect("update verifies");
        let t1 = local.as_ref().map_or(0, |l| l.now());
        let version = engine
            .load_bundle(signed, UPDATE_KEY, LoadMode::Permissive)
            .expect("update loads");
        update_ms.push(started.elapsed().as_secs_f64() * 1e3);
        if let Some(l) = local.as_mut() {
            let t2 = l.now();
            l.record("core.bundle_verify", ROOT, t0, t1);
            l.record("core.load_bundle", ROOT, t1, t2);
        }
        drop(local);
        assert_eq!(
            version, bundle.version,
            "the applied version is the verified one"
        );

        let t_base = round_base + (phase * phase_ops(size)) as u64;
        let engine: &PolicyEngine = engine;
        let ((), phase) = Cost::measure(|| {
            std::thread::scope(|scope| {
                for (c, client) in clients.iter_mut().enumerate() {
                    let ops = &plan.ops[c][phase];
                    scope.spawn(move || {
                        crate::host::pin_to_cpu(c);
                        match tracer {
                            Some(tracer) => {
                                let mut local = tracer.local();
                                let id = local.reserve();
                                let start = local.now();
                                client_phase(
                                    engine,
                                    plan,
                                    ops,
                                    phase,
                                    t_base,
                                    client,
                                    Some(&mut local),
                                    id,
                                );
                                let end = local.now();
                                local.record_as(id, "decide.client_phase", ROOT, start, end);
                            }
                            None => {
                                client_phase(engine, plan, ops, phase, t_base, client, None, ROOT)
                            }
                        }
                    });
                }
            });
            ((), 0)
        });
        cost.add(phase);
    }
    cost.ops = clients.iter().map(|c| c.decisions).sum();
    let mismatches = reference_mismatches(plan, clients, round_base, size);
    let det: Vec<String> = clients
        .iter()
        .enumerate()
        .map(|(c, cl)| {
            format!(
                "\"client{c}\":{{\"decisions\":{},\"allows\":{},\"observes\":{},\"digest\":\"{:016x}\"}}",
                cl.decisions, cl.allows, cl.observes, cl.digest
            )
        })
        .collect();
    Round {
        cost,
        update_ms,
        mismatches,
        det: format!("{{{}}}", det.join(",")),
    }
}

pub fn run(args: &Args) -> Outcome {
    let tracer = args.trace.then(Tracer::new);
    let mut out = Outcome::default();
    let clients_n = args.threads.max(1);

    // Set-up: compile the engine and generate every client's operations
    // and the signed updates.
    let setup = || {
        let set = PolicySet::from_policy(policy(0));
        let engine = match &tracer {
            Some(t) => t.span("core.engine_new", ROOT, || PolicyEngine::new(set)),
            None => PolicyEngine::new(set),
        };
        (engine, plan(args.seed, clients_n, args.size))
    };
    let (mut engine, plan) = setup();
    let mut clients: Vec<Client> = (0..clients_n)
        .map(|_| Client::new(&plan, args.size))
        .collect();

    let (setup_s, warm, timed) = run_rounds(
        args.seconds,
        || {
            black_box(setup());
        },
        |i| {
            if i == 1 {
                // Latency counts only timed rounds.
                for c in clients.iter_mut() {
                    c.latency = LatencyHistogram::new();
                }
            }
            round(&mut engine, &plan, &mut clients, i as u64, args.size, None)
        },
    );
    let heap = crate::host::peak_heap_mb();
    check_identical(
        &mut out,
        "decide",
        &warm.det,
        timed.iter().map(|r| r.det.as_str()),
    );
    out.attempted = timed.iter().map(|r| r.cost.ops).sum();
    out.failed = timed.iter().map(|r| r.mismatches).sum();
    out.checks.check(
        "decide: sampled decisions match an uncached reference engine",
        warm.mismatches == 0 && out.failed == 0,
    );
    let costs: Vec<Cost> = timed.iter().map(|r| r.cost).collect();
    let dps = rate(&costs, Cost::host_s);
    let dps_wall = rate(&costs, |c| c.wall_s);
    let dps_cpu = rate(&costs, |c| c.cpu_s);
    let mut latency = LatencyHistogram::new();
    for c in &clients {
        latency.absorb(&c.latency);
    }
    let updates: Vec<f64> = timed
        .iter()
        .flat_map(|r| r.update_ms.iter().copied())
        .collect();
    out.e2e = vec![
        ("setup_s", setup_s),
        ("ops_per_s", dps),
        ("peak_heap_mb", heap),
    ];
    out.report = vec![
        ("setup_s", setup_s, "s"),
        ("decisions_per_s", dps, "decisions/s"),
        ("decisions_per_wall_s", dps_wall, "decisions/s"),
        ("decisions_per_cpu_s", dps_cpu, "decisions/s"),
        ("decide_ns_p50", latency.quantile(0.50), "ns"),
        ("decide_ns_p99", latency.quantile(0.99), "ns"),
        ("decide_timed_calls", latency.count() as f64, "count"),
        ("update_ms", median(&updates), "ms"),
        ("updates", updates.len() as f64, "count"),
        ("peak_heap_mb", heap, "MB"),
        ("peak_rss_mb", crate::host::peak_rss_mb(), "MB"),
        ("fail_ratio", ratio(out.failed, out.attempted), "ratio"),
        ("rounds", timed.len() as f64, "count"),
        ("decisions_per_round", warm.cost.ops as f64, "decisions"),
    ];

    let Some(tracer) = tracer else {
        return out;
    };
    let before = engine.stats();
    let start = tracer.now();
    let traced = round(
        &mut engine,
        &plan,
        &mut clients,
        timed.len() as u64 + 1,
        args.size,
        Some(&tracer),
    );
    let end = tracer.now();
    let after = engine.stats();
    out.checks.check(
        "decide: traced round reproduces the deterministic section",
        traced.det == warm.det,
    );
    out.checks.check(
        "decide: traced round matches the reference engine",
        traced.mismatches == 0,
    );

    let ms = |name| -> Vec<f64> {
        tracer
            .within(name, start, end)
            .iter()
            .map(|s| s.dur_ns() as f64 / 1e6)
            .collect()
    };
    let decisions = after.decisions - before.decisions;
    out.layer(
        "core.cache_hit_ratio",
        ratio(after.cache_hits - before.cache_hits, decisions),
        Source::Count,
    );
    out.layer(
        "core.rules_per_decision",
        ratio(after.rules_examined - before.rules_examined, decisions),
        Source::Count,
    );
    out.layer(
        "core.rate_observe_ns",
        median(&ms("core.observe_rate_event")) * 1e6,
        Source::Span,
    );
    out.layer(
        "core.bundle_verify_ms",
        median(&ms("core.bundle_verify")),
        Source::Span,
    );
    out.layer(
        "core.reload_ms",
        median(&ms("core.load_bundle")),
        Source::Span,
    );
    out.layer(
        "bench.trace_overhead",
        trace_overhead(&traced.cost, &costs),
        Source::Span,
    );
    let engine_new: Vec<f64> = tracer
        .within("core.engine_new", 0, u64::MAX)
        .iter()
        .map(|s| s.dur_ns() as f64 / 1e6)
        .collect();
    out.layer("core.engine_new_ms", median(&engine_new), Source::Span);

    // The two clients race on one engine, so an EngineStats delta around a
    // call also counts the other client's calls; the hit/miss split comes
    // from a single-client pass over client 0's first phase instead.
    let mix: Vec<AccessRequest> = plan.ops[0][0]
        .iter()
        .filter(|op| *op & OBSERVE == 0)
        .take(crate::fleet::MIX_CAP)
        .map(|&op| plan.requests[op as usize])
        .collect();
    let (hit, miss) = probes::decide_split(&plan.sets[0], &mix, &context(), 2, &tracer, ROOT);
    out.layer("core.decide_hit_ns", hit, Source::Probe);
    out.layer("core.decide_miss_ns", miss, Source::Probe);

    // Layers this workload never enters.
    out.off_path(&[
        "core.decisions_per_frame",
        "car.vehicle_build_ms",
        "car.vehicle_run_ns_per_frame",
        "car.vehicle_finish_ms",
        "car.v2x_accept_ratio",
        "car.v2x_auth_ns",
        "car.anomaly_checks_per_frame",
        "sim.shard_busy_ratio",
        "sim.merge_ms",
        "sim.histogram_samples",
        "sim.plane_deliveries_per_epoch",
        "sim.plane_route_ns",
        "sim.plane_epoch_us",
        "can.deliveries_per_frame",
        "can.gateway_crossings_per_frame",
        "hpe.checks_per_frame",
        "hpe.grant_ratio",
        "hpe.check_ns",
        "hpe.cycles_per_check",
    ]);
    crate::write_spans(&tracer, "decide", args.seed);
    out
}
