//! Probes: timed calls of one layer's public function, for layers a workload
//! enters only from inside the program. Each probe runs on the
//! input mix the caller passes in, so a workload can probe a layer on its
//! own inputs.

use crate::stats::median;
use crate::trace::Tracer;
use polsec_can::CanId;
use polsec_car::fleet::{ladder_description, FleetConfig};
use polsec_car::v2x::{PlatoonMsg, V2xMsg, CLAIM_V2X_LEAD, FLEET_V2X_KEY, PLATOON_GROUP};
use polsec_core::{
    AccessRequest, EvalContext, LoadMode, Policy, PolicyBundle, PolicyEngine, PolicySet,
};
use polsec_hpe::HardwarePolicyEngine;
use polsec_sim::{run_epochs, DetRng, MessagePlane, Outbox};
use std::hint::black_box;
use std::time::Instant;

/// Batches per probe; a probe reports the median batch.
const BATCHES: usize = 7;

/// Median over [`BATCHES`] of `batch()`'s wall time divided by `per_batch`.
fn per_call_ns(per_batch: u64, mut batch: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t = Instant::now();
            batch();
            t.elapsed().as_nanos() as f64 / per_batch.max(1) as f64
        })
        .collect();
    median(&times)
}

/// ns per HPE check: `probe_read` and `probe_write` over every id of the
/// vehicle ladder on every node and segment HPE the ladder programs.
pub fn hpe_check_ns(cfg: &FleetConfig) -> f64 {
    let ladder = ladder_description(cfg);
    let mut hpes: Vec<HardwarePolicyEngine> = ladder
        .node_lists
        .iter()
        .map(|(name, lists)| HardwarePolicyEngine::new(*name, lists.clone()))
        .collect();
    hpes.push(HardwarePolicyEngine::new(
        "segment-a",
        ladder.segment_lists_a.clone(),
    ));
    hpes.push(HardwarePolicyEngine::new(
        "segment-b",
        ladder.segment_lists_b.clone(),
    ));
    let mut ids: Vec<u16> = ladder
        .cross_a_to_b
        .iter()
        .chain(&ladder.cross_b_to_a)
        .chain(&ladder.attack_ids)
        .copied()
        .collect();
    for (_, lists) in &ladder.node_lists {
        ids.extend(lists.read().covered_standard_ids());
        ids.extend(lists.write().covered_standard_ids());
    }
    ids.sort_unstable();
    ids.dedup();
    let ids: Vec<CanId> = ids.into_iter().map(CanId::Standard).collect();
    const REPS: u64 = 200;
    let checks = REPS * 2 * (ids.len() * hpes.len()) as u64;
    per_call_ns(checks, || {
        for _ in 0..REPS {
            for hpe in &hpes {
                for &id in &ids {
                    black_box(hpe.probe_read(black_box(id)));
                    black_box(hpe.probe_write(black_box(id)));
                }
            }
        }
    })
}

/// The mail shape of a platoon epoch: how many shards broadcast one
/// platoon message to the whole group, and how many send one more to a
/// single neighbour (the OTA offers and acknowledgements of a real run).
#[derive(Debug, Clone, Copy)]
pub struct MailShape {
    pub shards: usize,
    pub epochs: u64,
    pub broadcasters: usize,
    pub unicasts: usize,
}

impl MailShape {
    /// The shape that delivers a run's `plane.delivered` over its epochs:
    /// whole group broadcasts (a broadcast skips its sender), the rest as
    /// unicasts.
    pub fn of_run(shards: usize, epochs: u64, delivered: u64) -> Self {
        let per_epoch = (delivered as f64 / epochs.max(1) as f64).round() as usize;
        let fan_out = shards.saturating_sub(1).max(1);
        MailShape {
            shards,
            epochs,
            broadcasters: (per_epoch / fan_out).min(shards),
            unicasts: (per_epoch % fan_out).min(shards),
        }
    }

    /// Posts shard `shard`'s mail of one epoch.
    pub fn post(&self, shard: usize, outbox: &mut Outbox<V2xMsg>, msg: &V2xMsg) {
        if shard < self.broadcasters {
            outbox.broadcast(PLATOON_GROUP, msg.clone());
        }
        if shard < self.unicasts {
            outbox.unicast((shard + 1) % self.shards, msg.clone());
        }
    }
}

/// Routing cost of the message plane: `run_epochs` with the platoon group,
/// the given mail shape and a step that only posts it. Returns `(ns per delivery,
/// us per epoch)`.
pub fn plane_route(shape: MailShape, threads: usize) -> (f64, f64) {
    let mut plane = MessagePlane::new();
    plane.group(PLATOON_GROUP, 0..shape.shards);
    let msg = V2xMsg::Platoon(PlatoonMsg::signed(
        FLEET_V2X_KEY,
        0,
        1,
        60,
        false,
        CLAIM_V2X_LEAD,
    ));
    let mut per_delivery = Vec::new();
    let mut per_epoch = Vec::new();
    for _ in 0..3 {
        let started = Instant::now();
        let merged = run_epochs(
            shape.shards,
            threads,
            shape.epochs,
            &plane,
            |_| (),
            |_, ctx| shape.post(ctx.shard, ctx.outbox, &msg),
            |_, _| {},
        );
        let ns = started.elapsed().as_nanos() as f64;
        per_delivery.push(ns / merged.counter("plane.delivered").max(1) as f64);
        per_epoch.push(ns / 1000.0 / shape.epochs.max(1) as f64);
    }
    (median(&per_delivery), median(&per_epoch))
}

/// ns per `PlatoonMsg::verify` on a received mix in which `forged_share`
/// of the messages carry a tag under the wrong key. Checks every verdict.
pub fn v2x_auth_ns(forged_share: f64, seed: u64) -> (f64, bool) {
    let mut rng = DetRng::seed_from(seed);
    let msgs: Vec<(PlatoonMsg, bool)> = (0..4096u32)
        .map(|seq| {
            let forged = rng.chance(forged_share);
            let key: &[u8] = if forged {
                b"not-the-fleet-key"
            } else {
                FLEET_V2X_KEY
            };
            let speed = rng.range_inclusive(40, 90) as u8;
            (
                PlatoonMsg::signed(key, 0, seq, speed, false, CLAIM_V2X_LEAD),
                !forged,
            )
        })
        .collect();
    let correct = msgs
        .iter()
        .all(|(m, authentic)| m.verify(FLEET_V2X_KEY) == *authentic);
    let ns = per_call_ns(msgs.len() as u64, || {
        for (m, _) in &msgs {
            black_box(black_box(m).verify(FLEET_V2X_KEY));
        }
    });
    (ns, correct)
}

/// Splits `decide` latency into cache hits and rule walks, single-threaded
/// on a fresh engine over `set`, so an `EngineStats` delta around one call
/// belongs to that call alone. Each pass reloads the engine first, so the
/// first sight of every key in a pass is a miss. Spans go to `tracer`.
/// Returns `(hit ns, miss ns)` medians.
pub fn decide_split(
    set: &PolicySet,
    mix: &[AccessRequest],
    ctx: &EvalContext,
    passes: usize,
    tracer: &Tracer,
    parent: u64,
) -> (f64, f64) {
    let mut engine = PolicyEngine::new(set.clone());
    let mut local = tracer.local();
    let mut hits = Vec::new();
    let mut misses = Vec::new();
    for _ in 0..passes {
        engine.reload(set.clone());
        for req in mix {
            let before = engine.stats().cache_hits;
            let start = local.now();
            black_box(engine.decide(black_box(req), ctx));
            let end = local.now();
            let hit = engine.stats().cache_hits > before;
            let name = if hit {
                "core.decide_hit"
            } else {
                "core.decide_miss"
            };
            local.record(name, parent, start, end);
            if hit {
                hits.push((end - start) as f64);
            } else {
                misses.push((end - start) as f64);
            }
        }
    }
    (median(&hits), median(&misses))
}

/// ns per `observe_rate_event` on `key`, advancing time 1 us per event.
pub fn rate_observe_ns(engine: &PolicyEngine, key: &str) -> f64 {
    const EVENTS: u64 = 20_000;
    let mut t = 0u64;
    per_call_ns(EVENTS, || {
        for _ in 0..EVENTS {
            engine.observe_rate_event(black_box(key), t);
            t += 1;
        }
    })
}

/// A signed update of `policies` applied to an engine over `set`: spans per
/// `SignedBundle::verify` and per `load_bundle`. Returns `(verify ms,
/// load_bundle ms)` medians.
pub fn bundle_update(
    set: &PolicySet,
    policies: Vec<Policy>,
    tracer: &Tracer,
    parent: u64,
) -> (f64, f64) {
    const KEY: &[u8] = b"perfbench-update-key";
    let signed = PolicyBundle::new(1, "probe update", policies).sign(KEY);
    let mut engine = PolicyEngine::new(set.clone());
    let mut local = tracer.local();
    let mut verify = Vec::new();
    let mut load = Vec::new();
    for _ in 0..BATCHES {
        let start = local.now();
        let bundle = signed.verify(KEY).expect("probe bundle verifies");
        let mid = local.now();
        let version = engine
            .load_bundle(&signed, KEY, LoadMode::Permissive)
            .expect("probe bundle loads");
        let end = local.now();
        assert_eq!(version, bundle.version);
        local.record("core.bundle_verify", parent, start, mid);
        local.record("core.load_bundle", parent, mid, end);
        verify.push((mid - start) as f64 / 1e6);
        load.push((end - mid) as f64 / 1e6);
    }
    (median(&verify), median(&load))
}
