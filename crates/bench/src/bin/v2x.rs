//! V2X message-plane harness: platooning + fleet-wide OTA rollout
//! (DESIGN.md §9).
//!
//! Runs the full V2X scenario — N vehicles on the epoch-barriered message
//! plane, the lead broadcasting authenticated platoon messages, a staged
//! `SignedBundle` rollout, and the compromised member mounting the
//! spoof/replay/tamper platoon variants plus the tampered and stale OTA
//! replays. One warm-up pass primes the allocator and page cache, then the
//! scenario runs **three timed passes with the same seed** (throughput is
//! the median, so one scheduler hiccup cannot gate CI) plus once more
//! single-threaded, and asserts:
//!
//! * the deterministic metric sections (which include every vehicle's
//!   per-epoch inbox digest) are byte-identical across all five runs —
//!   replay- and thread-count-invariance in one check,
//! * no attacker-originated platoon message was accepted
//!   (`v2x.leaked == 0`) and no in-vehicle attack frame leaked,
//! * the legitimate rollout wave completed on every vehicle
//!   (`ota.applied == vehicles`),
//! * the tampered and stale bundles were rejected by **every** vehicle, and
//! * undelivered-mail accounting is exact: `plane.undelivered` equals
//!   `plane.undelivered_inbox + plane.undelivered_parked`, and with no
//!   fault plan nothing is ever parked, and
//! * the follower's auth rung allocates nothing: after a warm-up pass, a
//!   verify pass over authentic and forged platoon messages under the
//!   prepared fleet key, plus a `sha256`, makes zero heap allocations
//!   (`"auth_zero_alloc"`, counted by a counting global allocator).
//!
//! Writes `BENCH_v2x.json` (including the resolved `"threads"` count the
//! timed runs actually used) and exits non-zero on any violation.
//!
//! Usage: `v2x [vehicles] [epochs] [frames_per_epoch] [threads] [seed]`
//! (defaults 100, 10, 1000, auto, 42).

use polsec_car::v2x::{run_v2x, PlatoonMsg, V2xConfig, V2xReport, CLAIM_V2X_LEAD, FLEET_V2X_KEY};
use polsec_core::sign::{sha256, HmacKey};
use polsec_sim::resolve_threads;
use std::hint::black_box;

polsec_bench::counting_allocator!();

/// Heap allocations made by one pass of the auth rung: `verify_with` under
/// the prepared fleet key over authentic and forged messages, plus a
/// `sha256` of a multi-block buffer. A warm-up pass runs uncounted first.
fn auth_pass_allocations() -> u64 {
    let key = HmacKey::new(FLEET_V2X_KEY);
    let msgs: Vec<PlatoonMsg> = (0..64u32)
        .map(|seq| {
            let signer: &[u8] = if seq % 2 == 0 { FLEET_V2X_KEY } else { b"forged-key" };
            PlatoonMsg::signed(signer, 0, seq, 60, false, CLAIM_V2X_LEAD)
        })
        .collect();
    let buf = [0xA5u8; 200];
    let pass = || {
        let accepted = msgs.iter().filter(|m| black_box(*m).verify_with(&key)).count();
        assert_eq!(accepted, msgs.len() / 2, "exactly the authentic half verifies");
        black_box(sha256(black_box(&buf)));
    };
    pass();
    let before = polsec_bench::allocations();
    pass();
    polsec_bench::allocations() - before
}

fn run(cfg: &V2xConfig) -> (V2xReport, String) {
    let report = run_v2x(cfg);
    let json = report.metrics.to_json();
    (report, json)
}

fn main() {
    let mut args = std::env::args().skip(1);
    let vehicles: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(100);
    let epochs: u64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(10);
    let frames_per_epoch: u64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(1_000);
    let threads: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(0);
    let seed: u64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(42);
    let resolved_threads = resolve_threads(threads);

    let mut cfg = V2xConfig::new(vehicles, epochs, frames_per_epoch);
    cfg.fleet.threads = threads;
    cfg.fleet.seed = seed;

    polsec_bench::banner(&format!(
        "v2x: {vehicles} vehicles x {epochs} epochs x {frames_per_epoch} frames, \
         {resolved_threads} threads, defences {}",
        cfg.defenses.label()
    ));

    let (warmup, reference_json) = run(&cfg);
    eprintln!(
        "warm-up: {} frames, {} plane messages in {:.2}s",
        warmup.frames(),
        warmup.metrics.counter("plane.sent"),
        warmup.elapsed_sec
    );
    let mut timed = Vec::with_capacity(3);
    for pass in 1..=3u32 {
        let (report, json) = run(&cfg);
        eprintln!("timed run {pass}: {} frames in {:.2}s", report.frames(), report.elapsed_sec);
        timed.push((report, json));
    }
    let mut serial_cfg = cfg.clone();
    serial_cfg.fleet.threads = 1;
    let (serial, serial_json) = run(&serial_cfg);
    eprintln!("run (1 thread): {} frames in {:.2}s", serial.frames(), serial.elapsed_sec);
    let mut gate = polsec_bench::Gate::new();
    let deterministic = gate.identical(
        "replay or thread-count variance in the deterministic metrics",
        &reference_json,
        timed.iter().map(|(_, json)| json.as_str()).chain([serial_json.as_str()]),
    );

    let m = &serial.metrics;
    let v2x_leaked = m.counter("v2x.leaked");
    let fleet_leaked = m.counter("attack.leaked");
    let applied = m.counter("ota.applied");
    let tamper_rejected = m.counter("ota.rejected_signature");
    let tamper_sent = m.counter("ota.attack.tampered");
    let stale_rejected = m.counter("ota.rejected_stale");
    let stale_sent = m.counter("ota.attack.stale");
    let accepted = m.counter("v2x.accepted");
    let ecu_msgs = m.counter("v2x.ecu_platoon_msgs");
    let undelivered = m.counter("plane.undelivered");
    let undelivered_inbox = m.counter("plane.undelivered_inbox");
    let undelivered_parked = m.counter("plane.undelivered_parked");
    let frames = serial.frames();
    let elapsed_sec = polsec_bench::median(timed.iter().map(|(report, _)| report.elapsed_sec));
    let frames_per_sec = frames as f64 / elapsed_sec.max(1e-9);

    let auth_allocs = auth_pass_allocations();
    let auth_zero_alloc = auth_allocs == 0;

    let wall_json = serial.wall.to_json();
    let summary = format!(
        concat!(
            "{{\"bench\":\"v2x\",\"vehicles\":{},\"epochs\":{},\"frames_per_epoch\":{},",
            "\"threads\":{},\"seed\":{},\"defenses\":\"{}\",\"deterministic_replay\":{},",
            "\"frames\":{},\"frames_per_sec\":{:.0},\"elapsed_sec\":{:.3},",
            "\"v2x_accepted\":{},\"v2x_leaked\":{},\"ecu_platoon_msgs\":{},",
            "\"ota_applied\":{},\"ota_tamper_rejected\":{},\"ota_stale_rejected\":{},",
            "\"auth_zero_alloc\":{},",
            "\"metrics\":{},\"wall\":{}}}"
        ),
        vehicles,
        epochs,
        frames_per_epoch,
        resolved_threads,
        seed,
        cfg.defenses.label(),
        deterministic,
        frames,
        frames_per_sec,
        elapsed_sec,
        accepted,
        v2x_leaked,
        ecu_msgs,
        applied,
        tamper_rejected,
        stale_rejected,
        auth_zero_alloc,
        serial_json,
        wall_json,
    );
    polsec_bench::write_summary("v2x", &summary);

    gate.check(
        v2x_leaked == 0,
        format_args!("{v2x_leaked} attacker platoon messages were accepted"),
    );
    gate.check(
        fleet_leaked == 0,
        format_args!("{fleet_leaked} in-vehicle attack frame deliveries leaked"),
    );
    gate.check(
        applied == vehicles as u64,
        format_args!("rollout applied on {applied}/{vehicles} vehicles"),
    );
    gate.check(
        tamper_sent == 0 || tamper_rejected == vehicles as u64,
        format_args!("tampered bundle rejected by {tamper_rejected}/{vehicles} vehicles"),
    );
    gate.check(
        stale_sent == 0 || stale_rejected == vehicles as u64,
        format_args!("stale bundle rejected by {stale_rejected}/{vehicles} vehicles"),
    );
    gate.check(
        accepted > 0 && ecu_msgs > 0,
        "platooning never reached the followers' ECUs",
    );
    gate.check(
        undelivered == undelivered_inbox + undelivered_parked,
        format_args!(
            "undelivered accounting split ({undelivered} != \
             {undelivered_inbox} inbox + {undelivered_parked} parked)"
        ),
    );
    gate.check(
        undelivered_parked == 0,
        format_args!(
            "{undelivered_parked} deliveries parked past the run end \
             without a fault plan"
        ),
    );
    gate.check(
        auth_zero_alloc,
        format_args!("the auth rung's verify pass made {auth_allocs} heap allocations"),
    );
    gate.finish();
}
