//! Algorithm 5 simulates the first overlay round with no announcer once
//! per call and replays it for every later one. This suite pins that
//! `overlay_sssp` is bit-identical to the loop that simulates every
//! overlay round: the distances, the `RoundStats` (message log and
//! resilience budget included), the exact trace-event sequence, and the
//! error when a simulation fails — under random fault plans too.

#![allow(clippy::needless_range_loop)] // the reference keeps the algorithm's index loops

use congest_algos::overlay_net::{embed_overlay, overlay_sssp, EmbeddedOverlay};
use congest_graph::rounding::{ApproxDist, RoundingScheme};
use congest_graph::{generators, NodeId, WeightedGraph};
use congest_sim::telemetry::{build_phase_tree, CollectingTracer, PhaseNode};
use congest_sim::{primitives, FaultPlan, RoundStats, SimConfig, SimError, Telemetry, TraceEvent};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Arc;

/// Algorithm 5 with every overlay round simulated: two fresh networks per
/// round, announcers or not.
fn simulate_every_round(
    g: &WeightedGraph,
    leader: NodeId,
    emb: &EmbeddedOverlay,
    source: NodeId,
    config: &SimConfig,
) -> Result<(Vec<ApproxDist>, RoundStats), SimError> {
    let src = emb.shortcut.index_of(source).unwrap();
    let s = emb.skeleton.len();
    let eps = emb.scheme.eps;
    let ell2 = emb.overlay_ell;
    let threshold = (1.0 + 2.0 / eps) * ell2 as f64;
    let max_w = (0..s)
        .flat_map(|i| (0..s).map(move |j| (i, j)))
        .filter(|&(i, j)| i != j)
        .map(|(i, j)| emb.shortcut.weight(i, j))
        .filter(|x| x.is_finite())
        .fold(1.0f64, f64::max);
    let imax = ((2.0 * s as f64 * max_w / eps).log2().ceil()).max(0.0) as u32;
    let limit = threshold.floor() as u64;

    let _algo_span = config.telemetry.span("overlay_sssp");
    let (tree, tree_stats) = primitives::bfs_tree(g, leader, config)?;
    let mut stats = RoundStats::default();
    stats.absorb(&tree_stats);
    let wide = SimConfig {
        bandwidth: congest_sim::Bandwidth::bits(160),
        ..config.clone()
    };
    let mut best = vec![f64::INFINITY; s];
    best[src] = 0.0;
    for scale in 0..=imax {
        let denom = eps * (2f64).powi(scale as i32);
        let unscale = denom / (2.0 * ell2 as f64);
        let rw = |i: usize, j: usize| -> u64 {
            ((2.0 * ell2 as f64 * emb.shortcut.weight(i, j)) / denom)
                .ceil()
                .max(1.0) as u64
        };
        let mut dist: Vec<Option<u64>> = vec![None; s];
        let mut broadcasted = vec![false; s];
        dist[src] = Some(0);
        for rho in 0..=limit {
            let announcers: Vec<usize> = (0..s)
                .filter(|&u| !broadcasted[u] && dist[u] == Some(rho))
                .collect();
            let mut items: Vec<Vec<(u64, u128)>> = vec![Vec::new(); g.n()];
            for &u in &announcers {
                let packed: u128 = ((u as u128) << 64) | dist[u].unwrap() as u128;
                items[emb.skeleton[u]].push((u as u64, packed));
            }
            let (gathered, up) = primitives::collect_at_leader(g, leader, &wide, &tree, &items)?;
            stats.absorb(&up);
            let payload: Vec<u128> = gathered.iter().map(|&(_, v)| v).collect();
            let (_, down) = primitives::pipelined_broadcast(g, leader, &wide, &tree, &payload)?;
            stats.absorb(&down);
            for &u in &announcers {
                broadcasted[u] = true;
                let du = dist[u].unwrap();
                for x in 0..s {
                    if x != u {
                        let nd = du + rw(u, x);
                        if dist[x].is_none_or(|d| nd < d) {
                            dist[x] = Some(nd);
                        }
                    }
                }
            }
        }
        for u in 0..s {
            if let Some(d) = dist[u] {
                if d as f64 <= threshold {
                    best[u] = best[u].min(d as f64 * unscale);
                }
            }
        }
    }
    Ok((best, stats))
}

/// What one run produced: distances as bits and stats, the simulator's
/// error, or a panic's message. A fault plan can leave a child out of its
/// parent's `children` list (its `Adopt` was lost), and `collect_at_leader`
/// then counts one end marker too many, which panics on the subtraction
/// overflow in debug builds; both implementations must agree on that too.
type Outcome = Result<Result<(Vec<u64>, RoundStats), SimError>, String>;

/// Runs `algo` under `config` with a fresh collecting tracer attached;
/// returns the outcome and every event it emitted.
fn traced(
    config: &SimConfig,
    algo: impl FnOnce(&SimConfig) -> Result<(Vec<ApproxDist>, RoundStats), SimError>,
) -> (Outcome, Vec<TraceEvent>) {
    let tracer = Arc::new(CollectingTracer::default());
    let config = config
        .clone()
        .with_telemetry(Telemetry::new(tracer.clone()));
    let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
        algo(&config).map(|(dist, stats)| (dist.iter().map(|d| d.to_bits()).collect(), stats))
    }))
    .map_err(|payload| {
        payload
            .downcast_ref::<&str>()
            .map(|m| m.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default()
    });
    (outcome, tracer.events())
}

/// Both implementations on one instance, traced.
fn both(
    g: &WeightedGraph,
    emb: &EmbeddedOverlay,
    source: NodeId,
    config: &SimConfig,
) -> [(Outcome, Vec<TraceEvent>); 2] {
    [
        traced(config, |c| overlay_sssp(g, 0, emb, source, c)),
        traced(config, |c| simulate_every_round(g, 0, emb, source, c)),
    ]
}

fn clean_cfg(g: &WeightedGraph) -> SimConfig {
    SimConfig::standard(g.n(), g.max_weight()).with_max_rounds(1_000_000)
}

fn count_spans(node: &PhaseNode, name: &str) -> usize {
    node.walk().iter().filter(|(_, n)| n.name == name).count()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random connected graphs (a path in a quarter of the cases, so the
    /// tree is deep), skeletons, sources and fault plans with drops,
    /// throttles and crash windows from round 1: replaying empty rounds is
    /// indistinguishable from simulating them.
    #[test]
    fn overlay_sssp_matches_simulating_every_round(
        n in 4usize..16,
        path in 0u8..4,
        seed in any::<u64>(),
        faults in 0u8..16,
        ell in 2usize..7,
        k in 1usize..4,
        coarse in any::<bool>(),
        small_log_cap in any::<bool>(),
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let g = if path == 0 {
            generators::path(n + 8, 3)
        } else {
            generators::erdos_renyi_connected(n, 0.3, 6, &mut rng)
        };
        let mut nodes: Vec<NodeId> = g.nodes().collect();
        for i in (1..nodes.len()).rev() {
            nodes.swap(i, rng.gen_range(0..=i));
        }
        let skeleton = &nodes[..rng.gen_range(1..=g.n().min(5))];
        let source = skeleton[rng.gen_range(0..skeleton.len())];
        let scheme = RoundingScheme::new(ell, if coarse { 1.0 } else { 0.5 });
        let emb = embed_overlay(&g, 0, skeleton, scheme, k, &clean_cfg(&g), &mut rng).unwrap();

        let mut plan = FaultPlan::new(rng.gen());
        if faults & 1 != 0 {
            plan = plan.with_drop_rate(rng.gen_range(0.0..0.02));
        }
        if faults & 2 != 0 {
            let from = rng.gen_range(0..g.n());
            let to = g.neighbors(from).next().unwrap().0;
            plan = plan.with_throttle(from, to, rng.gen_range(1..40));
        }
        if faults & 4 != 0 {
            let until: usize = rng.gen_range(2..7);
            plan = plan.with_crash(rng.gen_range(1..g.n()), 1, Some(until));
        }
        if faults & 8 != 0 {
            let from = rng.gen_range(0..g.n());
            let to = g.neighbors(from).next().unwrap().0;
            plan = plan.with_link_drop(from, to, 0.3);
        }
        let mut config = SimConfig::standard(g.n(), g.max_weight())
            .with_max_rounds(400)
            .with_message_log()
            .with_faults(plan);
        if small_log_cap {
            config = config.with_message_log_cap(8);
        }

        let [(got, got_events), (want, want_events)] = both(&g, &emb, source, &config);
        prop_assert_eq!(got, want);
        prop_assert!(got_events == want_events, "trace events differ");
    }
}

/// A path with the source at the far end from the leader, and node 6
/// crashed in round 2 only. The source's round-1 item to node 6 is lost,
/// but its end marker follows in round 2, so the first (non-empty) round
/// completes. In the first empty round the end marker itself goes out in
/// round 1 and is lost, so that collect waits until `max_rounds`: the
/// error must surface exactly as when every round is simulated.
#[test]
fn first_empty_round_failure_matches_simulating_every_round() {
    let g = generators::path(8, 2);
    let scheme = RoundingScheme::new(4, 0.5);
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    let emb = embed_overlay(&g, 0, &[3, 7], scheme, 1, &clean_cfg(&g), &mut rng).unwrap();
    let config = SimConfig::standard(g.n(), g.max_weight())
        .with_max_rounds(200)
        .with_message_log()
        .with_faults(FaultPlan::new(9).with_crash(6, 2, Some(3)));

    let [(got, got_events), (want, want_events)] = both(&g, &emb, 7, &config);
    let err = SimError::RoundLimitExceeded {
        max_rounds: 200,
        rounds_executed: 200,
    };
    assert_eq!(want, Ok(Err(err.clone())));
    assert_eq!(got, Ok(Err(err)));
    assert_eq!(got_events, want_events);
    // The failure is the first empty round's collect: exactly one round
    // (the source's) was rebroadcast before it.
    let phases = build_phase_tree(&got_events);
    let algo = &phases.children[0];
    assert_eq!(algo.name, "overlay_sssp");
    assert_eq!(count_spans(algo, "pipelined_broadcast"), 1);
    assert_eq!(count_spans(algo, "pipelined_collect"), 2);
    assert!(matches!(
        got_events[got_events.len() - 3],
        TraceEvent::SimFailed { .. }
    ));
}

/// A leaf crashed for rounds 1–2 of every network delays its end marker
/// but loses nothing, so every round succeeds and each replayed empty
/// round carries a non-zero resilience budget.
#[test]
fn replayed_empty_rounds_carry_their_fault_budget() {
    let g = generators::path(8, 2);
    let scheme = RoundingScheme::new(4, 0.5);
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    let emb = embed_overlay(&g, 0, &[3, 7], scheme, 1, &clean_cfg(&g), &mut rng).unwrap();
    let config = SimConfig::standard(g.n(), g.max_weight())
        .with_max_rounds(200)
        .with_message_log()
        .with_faults(FaultPlan::new(9).with_crash(7, 1, Some(3)));

    let [(got, got_events), (want, want_events)] = both(&g, &emb, 3, &config);
    assert_eq!(got, want);
    assert_eq!(got_events, want_events);
    let (_, stats) = got.unwrap().unwrap();
    let pairs = count_spans(&build_phase_tree(&got_events), "pipelined_collect");
    assert!(pairs > 10, "only {pairs} overlay rounds");
    assert_eq!(
        stats.resilience.crashed_node_rounds,
        2 * (2 * pairs + 1) as u64
    );
}
