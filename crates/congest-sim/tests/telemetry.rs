//! Integration tests of the telemetry layer: tracer equivalence (tracing
//! must never change what the simulator computes or charges, and the
//! `SimMetrics` sink counts exactly what it charges) and the JSONL
//! interchange format.

mod common;

use common::SharedBuf;
use congest_graph::{generators, WeightedGraph};
use congest_sim::telemetry::{JsonlTracer, Tracer};
use congest_sim::{primitives, FaultPlan, SimConfig, SimError, SimMetrics, Telemetry};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;
use wdr_metrics::MetricsRegistry;

fn arb_graph() -> impl Strategy<Value = WeightedGraph> {
    (4usize..20, any::<u64>()).prop_map(|(n, seed)| {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        generators::erdos_renyi_connected(n, 0.25, 4, &mut rng)
    })
}

fn cfg(g: &WeightedGraph) -> SimConfig {
    SimConfig::standard(g.n(), g.max_weight()).with_max_rounds(1_000_000)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Attaching a `SimMetrics` bundle changes neither outputs nor
    /// `RoundStats`, with or without a fault plan (drops, one throttled
    /// link, one crash window), and the bundle's counters agree with the
    /// stats the simulator reports.
    #[test]
    fn sim_metrics_is_an_observer_under_faults(
        g in arb_graph(),
        leader_pick in any::<usize>(),
        faulted in any::<bool>(),
        fault_seed in any::<u64>(),
        drop_rate in 0.0f64..0.3,
        throttle_bits in 0u32..2,
        crash in (any::<usize>(), 1usize..6, 1usize..8),
    ) {
        let leader = leader_pick % g.n();
        let mut config = cfg(&g).with_max_rounds(4 * g.n() + 32);
        if faulted {
            let (crash_pick, crash_from, crash_len) = crash;
            let (first_hop, _) = g.neighbors(leader).next().expect("connected graph");
            config = config.with_faults(
                FaultPlan::new(fault_seed)
                    .with_drop_rate(drop_rate)
                    .with_throttle(leader, first_hop, throttle_bits)
                    .with_crash(crash_pick % g.n(), crash_from, Some(crash_from + crash_len)),
            );
        }
        let plain = primitives::bfs_tree(&g, leader, &config);

        let registry = MetricsRegistry::new();
        let metrics = Arc::new(SimMetrics::register(&registry, "sim"));
        let traced_cfg = config.with_telemetry(Telemetry::new(metrics.clone()));
        let traced = primitives::bfs_tree(&g, leader, &traced_cfg);
        prop_assert_eq!(&plain, &traced);

        match traced {
            Ok((_, stats)) => {
                let m = registry.snapshot().flatten();
                let dropped: f64 =
                    m.iter().filter(|(k, _)| k.starts_with("sim.dropped.")).map(|(_, v)| v).sum();
                prop_assert_eq!(m["sim.rounds"] + m["sim.padded_rounds"], stats.rounds as f64);
                prop_assert_eq!(m["sim.messages"], stats.messages as f64);
                prop_assert_eq!(m["sim.bits"], stats.bits as f64);
                prop_assert_eq!(dropped, stats.resilience.dropped_messages as f64);
                prop_assert_eq!(
                    m["sim.dropped.throttled"],
                    stats.resilience.throttled_messages as f64
                );
            }
            // A node cut off by the faults never joins: the round cap fires
            // after every executed round was observed.
            Err(SimError::RoundLimitExceeded { rounds_executed, .. }) => {
                prop_assert!(faulted);
                prop_assert_eq!(metrics.rounds.get(), rounds_executed as u64);
            }
            Err(other) => prop_assert!(false, "unexpected error {other:?}"),
        }
    }

    /// Enabling the streaming channel profile changes neither outputs nor
    /// charged statistics.
    #[test]
    fn channel_profile_is_an_observer(g in arb_graph(), leader_pick in any::<usize>()) {
        let leader = leader_pick % g.n();
        let (tree_plain, stats_plain) = primitives::bfs_tree(&g, leader, &cfg(&g)).unwrap();
        let (tree_prof, stats_prof) =
            primitives::bfs_tree(&g, leader, &cfg(&g).with_channel_profile()).unwrap();
        prop_assert_eq!(tree_plain, tree_prof);
        prop_assert_eq!(&stats_plain, &stats_prof);
    }
}

/// The JSONL interchange format is pinned against a golden file: a change
/// to the serialized shape breaks `wdr-trace` compatibility and must be
/// deliberate (update `tests/golden/trace.jsonl` alongside the shared
/// fixture in `tests/common/mod.rs`).
#[test]
fn jsonl_format_matches_golden_file() {
    let buf = SharedBuf::default();
    let tracer = JsonlTracer::new(Box::new(buf.clone()));
    for event in common::golden_events() {
        tracer.record(&event);
    }
    tracer.flush();
    assert_eq!(buf.contents(), include_str!("golden/trace.jsonl"));
}

/// A real simulated phase written through `JsonlTracer` stays parseable
/// line-by-line and internally consistent with the reported stats.
#[test]
fn jsonl_trace_of_real_run_is_line_consistent() {
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    let g = generators::erdos_renyi_connected(12, 0.3, 4, &mut rng);
    let buf = SharedBuf::default();
    let telemetry = Telemetry::new(Arc::new(JsonlTracer::new(Box::new(buf.clone()))));
    let (_, stats) =
        primitives::bfs_tree(&g, 0, &cfg(&g).with_telemetry(telemetry.clone())).unwrap();
    telemetry.flush();
    let written = buf.contents();
    let lines: Vec<&str> = written.lines().collect();
    assert_eq!(
        lines.first(),
        Some(&r#"{"PhaseStart":{"name":"bfs_tree"}}"#)
    );
    assert_eq!(lines.last(), Some(&r#"{"PhaseEnd":{"name":"bfs_tree"}}"#));
    let rounds = lines
        .iter()
        .filter(|l| l.starts_with(r#"{"RoundCompleted""#))
        .count();
    assert_eq!(rounds, stats.rounds);
}
