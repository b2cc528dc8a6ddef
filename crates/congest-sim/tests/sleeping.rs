//! The sleeping round engine's load-bearing property, tested: a program
//! that returns [`Status::Sleep`] is observably identical to its twin that
//! reports `Running` instead and is stepped in every round — node outputs,
//! the full [`RoundStats`] (resilience budget and message log included),
//! the exact trace-event sequence, and the error.
//! Skipped nodes and jumped rounds change only how fast the run goes.
//!
//! CI's test lanes grep for these tests by name; renaming them breaks the
//! "equivalence tests actually ran" check in `.github/workflows/ci.yml`.

mod common;

use common::{Dense, Napper};
use congest_graph::{generators, WeightedGraph};
use congest_sim::telemetry::CollectingTracer;
use congest_sim::{
    Bandwidth, FaultPlan, Network, NodeProgram, RoundStats, SimConfig, SimError, Telemetry,
    TraceEvent,
};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

/// Everything one run observably produces.
#[derive(Debug, PartialEq)]
struct Observed {
    result: Result<(), SimError>,
    outputs: Vec<u64>,
    stats: RoundStats,
    events: Vec<TraceEvent>,
    profile: Option<TraceEvent>,
}

fn observe<P: NodeProgram<Output = u64>>(
    g: &WeightedGraph,
    base: &SimConfig,
    make: impl Fn() -> P,
) -> Observed {
    let tracer = Arc::new(CollectingTracer::default());
    let config = base.clone().with_telemetry(Telemetry::new(tracer.clone()));
    let mut net = Network::new(g, 0, config, |_, _| make());
    let result = net.run_to_quiescence();
    let stats = net.stats().clone();
    let profile = net.bandwidth_profile().map(|p| p.summary(8));
    Observed {
        result,
        outputs: net.into_outputs(),
        stats,
        events: tracer.events(),
        profile,
    }
}

/// A random fault plan mixing every knob: crash windows (some from round
/// 1, some never closing), background and burst drops, and throttles.
fn arb_plan(n: usize, rng: &mut ChaCha8Rng) -> FaultPlan {
    let mut plan = FaultPlan::new(rng.gen());
    if rng.gen_bool(0.5) {
        plan = plan.with_drop_rate(rng.gen_range(0.0..0.3));
    }
    for _ in 0..rng.gen_range(0..4) {
        let node = rng.gen_range(0..n);
        let from = if rng.gen_bool(0.3) {
            1
        } else {
            rng.gen_range(1..60)
        };
        let until = rng.gen_bool(0.7).then(|| from + rng.gen_range(1..40usize));
        plan = plan.with_crash(node, from, until);
    }
    if rng.gen_bool(0.3) {
        let from = rng.gen_range(1..50);
        plan = plan.with_burst(
            from,
            from + rng.gen_range(1..20usize),
            rng.gen_range(0.3..1.0),
        );
    }
    for _ in 0..rng.gen_range(0..3) {
        let (a, b) = (rng.gen_range(0..n), rng.gen_range(0..n));
        plan = plan.with_throttle(a, b, rng.gen_range(32..140));
    }
    plan
}

/// Graph, per-node program parameters and config of one case.
fn arb_case() -> impl Strategy<Value = (WeightedGraph, usize, u64, SimConfig)> {
    (
        2usize..24,
        any::<u64>(),
        2usize..90,
        1u64..24,
        10usize..160,
        0usize..3,
    )
        .prop_map(|(n, seed, deadline, max_nap, max_rounds, faultiness)| {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let g = generators::erdos_renyi_connected(n, 0.3, 4, &mut rng);
            let mut cfg = SimConfig {
                bandwidth: Bandwidth::bits(160),
                ..SimConfig::standard(n, g.max_weight())
            }
            .with_max_rounds(max_rounds)
            .with_message_log()
            .with_channel_profile();
            if faultiness > 0 {
                cfg = cfg.with_faults(arb_plan(n, &mut rng));
            }
            (g, deadline, max_nap, cfg)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Sleeping and stepping every round agree bit-for-bit, including runs
    /// that end in `RoundLimitExceeded`.
    #[test]
    fn sleeping_engine_matches_dense_stepping(case in arb_case()) {
        let (g, deadline, max_nap, cfg) = case;
        let sleeping = observe(&g, &cfg, || Napper::new(deadline, max_nap));
        let dense = observe(&g, &cfg, || Dense(Napper::new(deadline, max_nap)));
        prop_assert_eq!(sleeping, dense);
    }
}

/// Fixed cases: a jump across a crash window that opens in round 1 and one
/// that never closes, and a jump that runs into the round cap. A second
/// fresh network over the same config reproduces every observable: a run
/// depends on nothing but its graph, programs and config.
#[test]
fn sleeping_engine_matches_on_fixed_cases() {
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    let g = generators::erdos_renyi_connected(12, 0.3, 4, &mut rng);
    let plan = FaultPlan::new(3)
        .with_crash(2, 1, Some(40))
        .with_crash(7, 25, None)
        .with_drop_rate(0.1);
    let base = SimConfig {
        bandwidth: Bandwidth::bits(160),
        ..SimConfig::standard(12, g.max_weight())
    }
    .with_message_log();
    for cfg in [
        base.clone().with_faults(plan),
        base.clone().with_max_rounds(30),
    ] {
        let sleeping = observe(&g, &cfg, || Napper::new(80, 23));
        let dense = observe(&g, &cfg, || Dense(Napper::new(80, 23)));
        assert_eq!(sleeping, dense);
        assert_eq!(sleeping, observe(&g, &cfg, || Napper::new(80, 23)));
        assert_eq!(dense, observe(&g, &cfg, || Dense(Napper::new(80, 23))));
    }
    let capped = observe(&g, &base.with_max_rounds(30), || Napper::new(80, 23));
    assert_eq!(
        capped.result,
        Err(SimError::RoundLimitExceeded {
            max_rounds: 30,
            rounds_executed: 30,
        })
    );
}
