//! The benchmark's manifest: workloads, metrics, units and bounds. This is
//! the one source of `BENCHMARK.json` (`--all` renders it, and a test
//! checks the committed file matches).

/// How the benchmark is invoked, from the repository root.
pub const COMMAND: &[&str] = &[
    "cargo",
    "run",
    "--release",
    "--quiet",
    "--manifest-path",
    "perfbench/Cargo.toml",
    "--",
];

/// The directories that hold the benchmark.
pub const PATHS: &[&str] = &["perfbench"];

/// Seconds one run measures.
pub const RUN_SECONDS: u64 = 20;

/// `(name, why)`: why each workload exists and which layers it stresses or
/// bypasses.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "fleet",
        "100 vehicles, shipped ladder, 10M frames a round: stresses CAN arbitration, gateway, node and segment HPE checks, metric writes; engine answers from cache; plane idle",
    ),
    (
        "platoon",
        "run_v2x, 100 vehicles, 1000 one-tick epochs, attacks on: stresses epoch barrier, broadcast routing, V2X ladder and uncached engine rule walks; in-vehicle traffic is light",
    ),
    (
        "decide",
        "PolicyEngine as a 2-client service: 1000 rules, working set 4x the cache, rate rules bypass it, signed reloads between phases; bypasses sim, can, hpe and car",
    ),
];

/// An end-to-end metric: `(name, unit, better, bound)`.
pub type EndToEnd = (&'static str, &'static str, &'static str, f64);

/// Measured with tracing off, on every workload. `ops_per_s` is frames
/// (fleet, platoon) or decisions (decide) per host second: wall time less
/// the CPU time the hypervisor stole from an average CPU meanwhile, since on
/// a shared virtual machine it steals in bursts. Host time, unlike CPU time,
/// still sees waits on barriers and locks and lost parallelism. Set-up is
/// single-threaded and measured in CPU seconds.
pub const END_TO_END: &[EndToEnd] = &[
    ("setup_s", "s", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("peak_heap_mb", "MB", "lower", 0.1),
];

/// A per-layer metric: `(name, unit, better)`.
pub type PerLayer = (&'static str, &'static str, &'static str);

/// Measured in the traced run, on every workload. Every metric of a layer a
/// workload never enters reads 0 there.
pub const PER_LAYER: &[PerLayer] = &[
    ("car.vehicle_build_ms", "ms", "lower"),
    ("car.vehicle_run_ns_per_frame", "ns", "lower"),
    ("car.vehicle_finish_ms", "ms", "lower"),
    ("car.v2x_accept_ratio", "ratio", "higher"),
    ("car.v2x_auth_ns", "ns", "lower"),
    ("car.anomaly_checks_per_frame", "count/frame", "lower"),
    ("sim.shard_busy_ratio", "ratio", "higher"),
    ("sim.merge_ms", "ms", "lower"),
    ("sim.histogram_samples", "count", "lower"),
    ("sim.plane_deliveries_per_epoch", "count/epoch", "lower"),
    ("sim.plane_route_ns", "ns", "lower"),
    ("sim.plane_epoch_us", "us", "lower"),
    ("can.deliveries_per_frame", "count/frame", "lower"),
    ("can.gateway_crossings_per_frame", "count/frame", "lower"),
    ("hpe.checks_per_frame", "count/frame", "lower"),
    ("hpe.grant_ratio", "ratio", "higher"),
    ("hpe.check_ns", "ns", "lower"),
    ("hpe.cycles_per_check", "cycles/check", "lower"),
    ("core.decisions_per_frame", "count/frame", "lower"),
    ("core.cache_hit_ratio", "ratio", "higher"),
    ("core.rules_per_decision", "rules/decision", "lower"),
    ("core.decide_hit_ns", "ns", "lower"),
    ("core.decide_miss_ns", "ns", "lower"),
    ("core.rate_observe_ns", "ns", "lower"),
    ("core.engine_new_ms", "ms", "lower"),
    ("core.bundle_verify_ms", "ms", "lower"),
    ("core.reload_ms", "ms", "lower"),
    ("bench.trace_overhead", "ratio", "lower"),
];

/// The unit of a metric named in the manifest.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .map(|&(n, u, _, _)| (n, u))
        .chain(PER_LAYER.iter().map(|&(n, u, _)| (n, u)))
        .find(|&(n, _)| n == name)
        .map(|(_, u)| u)
}

fn quoted_list(items: &[&str]) -> String {
    let parts: Vec<String> = items.iter().map(|s| polsec_sim::json_quote(s)).collect();
    format!("[{}]", parts.join(", "))
}

/// Renders `BENCHMARK.json`.
pub fn render() -> String {
    let q = polsec_sim::json_quote;
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|(name, why)| format!("    {{\"name\": {}, \"why\": {}}}", q(name), q(why)))
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|(name, unit, better, bound)| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {bound}}}",
                q(name),
                q(unit),
                q(better)
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|(name, unit, better)| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                q(name),
                q(unit),
                q(better)
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": {},\n  \"paths\": {},\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        quoted_list(COMMAND),
        quoted_list(PATHS),
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn committed_manifest_matches_the_source() {
        let committed =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        assert_eq!(
            committed,
            render(),
            "rewrite it with --all --size tiny --seconds 0"
        );
    }

    #[test]
    fn manifest_respects_its_limits() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!(COMMAND.len() <= 32);
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
        names.extend(END_TO_END.iter().map(|m| m.0));
        names.extend(PER_LAYER.iter().map(|m| m.0));
        for n in &names {
            assert!(valid_name(n), "{n}");
        }
        let count = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), count, "names are unique");
        for (_, why) in WORKLOADS {
            assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
        }
        for (_, unit, better, bound) in END_TO_END {
            assert!(valid_unit(unit) && ["higher", "lower"].contains(better));
            assert!(*bound > 0.0 && *bound <= 0.25);
        }
        for (_, unit, better) in PER_LAYER {
            assert!(
                valid_unit(unit) && ["higher", "lower"].contains(better),
                "{unit}"
            );
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.0 == "setup_s")
            .expect("setup_s");
        assert_eq!((setup.1, setup.2), ("s", "lower"));
        let largest = END_TO_END.iter().map(|m| m.3).fold(0.0, f64::max);
        assert_eq!(setup.3, largest, "setup_s carries the largest bound");
    }
}
