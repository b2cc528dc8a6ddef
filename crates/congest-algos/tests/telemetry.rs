//! End-to-end phase-accounting tests: for every composed algorithm, the
//! phase tree reconstructed from its trace must account for *exactly* the
//! rounds the algorithm reports — simulated rounds via `RoundCompleted`,
//! schedule padding via `PadRounds`.

use congest_algos::bounded_sssp::bounded_hop_sssp;
use congest_algos::multi_source::multi_source_bounded_hop;
use congest_algos::skeleton::SkeletonState;
use congest_algos::three_halves::three_halves_diameter;
use congest_graph::rounding::RoundingScheme;
use congest_graph::{generators, WeightedGraph};
use congest_sim::telemetry::{build_phase_tree, CollectingTracer, PhaseNode};
use congest_sim::{SimConfig, Telemetry};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

fn traced_cfg(g: &WeightedGraph) -> (SimConfig, Arc<CollectingTracer>) {
    let tracer = Arc::new(CollectingTracer::default());
    let cfg = SimConfig::standard(g.n(), g.max_weight())
        .with_max_rounds(10_000_000)
        .with_telemetry(Telemetry::new(tracer.clone()));
    (cfg, tracer)
}

fn named_phases(node: &PhaseNode) -> Vec<String> {
    node.walk()
        .iter()
        .skip(1)
        .map(|(_, n)| n.name.clone())
        .collect()
}

#[test]
fn three_halves_phases_sum_to_reported_rounds() {
    let mut rng = ChaCha8Rng::seed_from_u64(11);
    let g = generators::erdos_renyi_connected(24, 0.12, 3, &mut rng);
    let (cfg, tracer) = traced_cfg(&g);
    let res = three_halves_diameter(&g, 0, &cfg, &mut rng).unwrap();

    let tree = build_phase_tree(&tracer.events());
    // Exactly one top-level algorithm span, with the documented sub-phases.
    assert_eq!(tree.children.len(), 1);
    let algo = &tree.children[0];
    assert_eq!(algo.name, "three_halves");
    let children: Vec<&str> = algo.children.iter().map(|c| c.name.as_str()).collect();
    assert!(
        children.len() >= 3,
        "expected at least 3 named phases, got {children:?}"
    );
    for phase in [
        "leader_tree",
        "sample_bfs",
        "witness_select",
        "witness_bfs",
        "near_set_bfs",
    ] {
        assert!(
            children.contains(&phase),
            "missing phase {phase} in {children:?}"
        );
    }

    // The per-phase rounds sum to exactly what the algorithm reports: no
    // round is simulated outside a span, none is double-counted.
    assert_eq!(algo.subtree().rounds, res.stats.rounds);
    assert_eq!(algo.subtree().messages, res.stats.messages);
    assert_eq!(algo.subtree().bits, res.stats.bits);
    // And nothing accrued to the synthetic root directly.
    assert_eq!(tree.own.rounds, 0);
}

#[test]
fn bounded_hop_sssp_pads_are_accounted() {
    let mut rng = ChaCha8Rng::seed_from_u64(12);
    let g = generators::erdos_renyi_connected(14, 0.2, 5, &mut rng);
    let (cfg, tracer) = traced_cfg(&g);
    let scheme = RoundingScheme::new(g.n(), 0.5);
    let (_, stats) = bounded_hop_sssp(&g, 0, 0, scheme, &cfg).unwrap();

    let tree = build_phase_tree(&tracer.events());
    assert_eq!(tree.children.len(), 1);
    let algo = &tree.children[0];
    assert_eq!(algo.name, "bounded_hop_sssp");
    // One child per scale, each padded to the fixed L+1 schedule.
    assert!(algo
        .children
        .iter()
        .all(|c| c.name == "bounded_distance_sssp"));
    assert!(!algo.children.is_empty());
    assert_eq!(algo.subtree().rounds, stats.rounds);
}

#[test]
fn multi_source_schedule_is_accounted() {
    let mut rng = ChaCha8Rng::seed_from_u64(13);
    let g = generators::erdos_renyi_connected(12, 0.25, 4, &mut rng);
    let (cfg, tracer) = traced_cfg(&g);
    let scheme = RoundingScheme::new(g.n(), 0.5);
    let res = multi_source_bounded_hop(&g, 0, &[0, 5, 9], scheme, &cfg, &mut rng).unwrap();

    let tree = build_phase_tree(&tracer.events());
    assert_eq!(tree.children.len(), 1);
    let algo = &tree.children[0];
    assert_eq!(algo.name, "multi_source");
    let phases = named_phases(algo);
    assert!(phases.iter().any(|p| p == "delay_broadcast"));
    assert!(phases.iter().any(|p| p == "stretched_execution"));
    assert_eq!(algo.subtree().rounds, res.stats.rounds);
}

#[test]
fn skeleton_setup_phases_sum_to_reported_rounds() {
    let mut rng = ChaCha8Rng::seed_from_u64(14);
    let g = generators::erdos_renyi_connected(16, 0.2, 5, &mut rng);
    let scheme = RoundingScheme::new(4, 0.5);
    let plain = SimConfig::standard(g.n(), g.max_weight()).with_max_rounds(10_000_000);
    let state =
        SkeletonState::initialize(&g, 0, &[2, 5, 9, 13], scheme, 2, &plain, &mut rng).unwrap();
    let (cfg, tracer) = traced_cfg(&g);
    let (_, stats) = state.setup_data(&g, 5, &cfg).unwrap();

    let tree = build_phase_tree(&tracer.events());
    assert_eq!(tree.children.len(), 1);
    let setup = &tree.children[0];
    assert_eq!(setup.name, "skeleton_setup");
    assert_eq!(setup.subtree().rounds, stats.rounds);
    assert_eq!(setup.subtree().messages, stats.messages);
    assert_eq!(setup.subtree().bits, stats.bits);
    assert_eq!(tree.own.rounds, 0);

    // One collect and one broadcast per overlay round, (imax+1)·(limit+1)
    // of each, whether the round was simulated or replayed.
    let emb = &state.overlay;
    let s = emb.skeleton.len();
    let eps = emb.scheme.eps;
    let max_w = (0..s)
        .flat_map(|i| (0..s).map(move |j| (i, j)))
        .filter(|&(i, j)| i != j)
        .map(|(i, j)| emb.shortcut.weight(i, j))
        .filter(|x| x.is_finite())
        .fold(1.0f64, f64::max);
    let imax = ((2.0 * s as f64 * max_w / eps).log2().ceil()).max(0.0) as usize;
    let limit = ((1.0 + 2.0 / eps) * emb.overlay_ell as f64).floor() as usize;
    let phases = named_phases(setup);
    for primitive in ["pipelined_collect", "pipelined_broadcast"] {
        let count = phases.iter().filter(|p| *p == primitive).count();
        assert_eq!(count, (imax + 1) * (limit + 1), "{primitive} spans");
    }
}
