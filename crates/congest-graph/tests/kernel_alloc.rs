//! The SSSP and sweep workspaces' zero-allocation claim, measured: once one
//! call per kernel has grown every scratch buffer (distance rows, heaps,
//! Dial buckets, BFS frontiers, sweep bound tables) to its steady-state
//! capacity, repeated sweeps over the same graph must not touch the heap
//! at all. A counting global
//! allocator turns any regression — a rebuilt `Vec`, a per-scale graph
//! clone, a stray `collect` — into an immediate failure, mirroring the
//! round engine's `zero_alloc` harness in `congest-sim`.
//!
//! The library itself is `#![deny(unsafe_code)]` (the only allowed
//! exceptions are the documented mmap shim and slice reinterpretation in
//! `io`); the `GlobalAlloc` shim comes from `wdr_metrics::heap`, which
//! carries the only `unsafe` in the metrics stack. This file holds exactly
//! one `#[test]` so no sibling test can allocate concurrently and pollute
//! the counters.

use std::alloc::System;

use congest_graph::rounding::{approx_hop_bounded_into, RoundingScheme};
use congest_graph::{generators, Dist, EdgeMetric, SsspWorkspace, SweepWorkspace, WeightedGraph};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use wdr_metrics::heap::{heap_ops, track_current_thread, CountingAlloc};

#[global_allocator]
static GLOBAL: CountingAlloc<System> = CountingAlloc::new(System);

/// One full pass over every workspace kernel, cycling sources so each
/// iteration exercises genuinely different sweeps. `light` has small
/// weights (the Dial bucket-queue path), `heavy` forces the binary heap.
fn exercise(
    ws: &mut SsspWorkspace,
    sweep: &mut SweepWorkspace,
    light: &WeightedGraph,
    heavy: &WeightedGraph,
    approx_out: &mut [f64],
    scheme: RoundingScheme,
    round: usize,
) -> Dist {
    let n = light.n();
    let s = round % n;
    let mut acc = Dist::ZERO;
    acc = acc + ws.dijkstra_into(light, s)[n - 1 - s];
    acc = acc + ws.dijkstra_into(heavy, s)[n - 1 - s];
    acc = acc + ws.bfs_into(light, s)[n - 1 - s];
    acc = acc + ws.hop_bounded_into(light, s, 3)[(s + 1) % n];
    acc = acc + ws.bounded_distance_into(light, s, Dist::from(6u64))[(s + 1) % n];
    let (dist, hops) = ws.dijkstra_with_hops_into(light, s);
    acc = acc + dist[n - 1 - s] + Dist::from(hops[n - 1 - s] as u64);
    acc = acc + ws.eccentricity(light, s) + ws.unweighted_eccentricity(light, s);
    approx_hop_bounded_into(light, s, scheme, ws, approx_out);
    if approx_out[(s + 1) % n].is_finite() {
        acc = acc + Dist::from(approx_out[(s + 1) % n] as u64);
    }
    for g in [light, heavy] {
        let r = sweep.extremes_into(g, EdgeMetric::Weighted);
        acc = acc + r.diameter + r.radius;
        acc = acc + sweep.extremes_into(g, EdgeMetric::Unweighted).diameter;
    }
    acc
}

#[test]
fn warmed_up_kernels_do_not_allocate() {
    track_current_thread();
    let mut rng = ChaCha8Rng::seed_from_u64(17);
    let light = generators::erdos_renyi_connected(48, 0.12, 5, &mut rng);
    let heavy = generators::erdos_renyi_connected(48, 0.12, 100_000, &mut rng);
    assert!(heavy.max_weight() > congest_graph::DIAL_MAX_WEIGHT);
    let scheme = RoundingScheme::new(4, 0.5);
    let mut ws = SsspWorkspace::new();
    let mut sweep = SweepWorkspace::new();
    let mut approx_out = vec![0.0f64; light.n()];

    // Warm-up: one pass from every source grows each buffer, heap and Dial
    // bucket to its worst-case steady-state capacity.
    let mut sink = Dist::ZERO;
    for round in 0..light.n() {
        sink = sink
            + exercise(
                &mut ws,
                &mut sweep,
                &light,
                &heavy,
                &mut approx_out,
                scheme,
                round,
            );
    }

    let before = heap_ops();
    for round in 0..32 {
        sink = sink
            + exercise(
                &mut ws,
                &mut sweep,
                &light,
                &heavy,
                &mut approx_out,
                scheme,
                round,
            );
    }
    let delta = heap_ops() - before;
    assert_eq!(
        delta, 0,
        "warmed-up SSSP kernels must be allocation-free, saw {delta} heap ops over 32 passes"
    );
    assert!(sink >= Dist::ZERO, "keep the sweeps observable");
    // The kernel counters ride along for free: plain integer increments,
    // covered by the zero-heap-ops assertion above.
    let counters = ws.counters();
    assert!(counters.dial_runs > 0 && counters.heap_runs > 0);
    assert!(counters.bfs_runs > 0 && counters.relaxations > 0);
}
