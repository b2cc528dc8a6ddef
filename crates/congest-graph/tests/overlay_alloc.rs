//! The overlay layer's zero-allocation claims, measured in two phases:
//!
//! 1. A [`RowCache`] reserves its rows and pre-sizes its SSSP workspace in
//!    [`RowCache::new`], so filling new bounded-hop rows and re-reading
//!    cached ones — what every set of a Theorem 1.1 run does — must not
//!    touch the heap at all, not even for the first row.
//! 2. Once one broadcast-subgraph build and one k-nearest query have grown
//!    an [`OverlayScratch`]'s flat CSR and Dijkstra buffers, repeated
//!    skeleton queries — the inner loop of every skeleton-sampling
//!    experiment — must not touch the heap. The seed implementation
//!    rebuilt a `Vec<Vec<(usize, f64)>>` plus a pair `HashSet` per call;
//!    this pin keeps that garbage from coming back.
//!
//! This file holds exactly one `#[test]` so no sibling test can allocate
//! concurrently and pollute the counters (same harness as
//! `kernel_alloc.rs`).

use std::alloc::System;

use congest_graph::generators;
use congest_graph::overlay::{Overlay, OverlayScratch, RowCache};
use congest_graph::rounding::RoundingScheme;
use wdr_metrics::heap::{heap_ops, track_current_thread, CountingAlloc};

#[global_allocator]
static GLOBAL: CountingAlloc<System> = CountingAlloc::new(System);

/// One pass of the repeated-query loop: rebuild the broadcast subgraph and
/// ask for a k-neighborhood, cycling the source and `k`.
fn exercise(ov: &Overlay, scratch: &mut OverlayScratch, out: &mut Vec<usize>, round: usize) -> f64 {
    let k = 2 + round % 4;
    let v = round % ov.len();
    ov.broadcast_subgraph_into(k, scratch);
    let mut acc = scratch.edge_count() as f64;
    ov.k_nearest_into(v, k, scratch, out);
    for &u in out.iter() {
        acc += scratch.distances()[u];
    }
    acc
}

#[test]
fn warm_overlay_queries_do_not_allocate() {
    track_current_thread();
    let g = generators::grid(6, 7, 4);
    let skeleton: Vec<usize> = (0..g.n()).step_by(2).collect();

    // Phase 1: rows. Fill half the skeleton, then all of it (half new, half
    // cached), then read every row back.
    let mut rows = RowCache::new(&g, RoundingScheme::new(g.n(), 0.25), g.n());
    let before = heap_ops();
    rows.fill(&skeleton[..skeleton.len() / 2]);
    rows.fill(&skeleton);
    let mut sink = 0.0f64;
    for &u in &skeleton {
        sink += rows.row(u)[g.n() - 1 - u];
    }
    let delta = heap_ops() - before;
    assert_eq!(
        delta, 0,
        "filling and re-reading cached rows must be allocation-free, saw {delta} heap ops"
    );
    assert_eq!(rows.len(), skeleton.len(), "each source filled once");

    // Phase 2: skeleton queries on the overlay built from those rows.
    let ov = Overlay::from_rows(&mut rows, &skeleton);
    let mut scratch = OverlayScratch::new();
    let mut out = Vec::new();

    // Warm-up: grow the selection row, picked list, CSR arrays, and
    // Dijkstra labels across every (source, k) combination the loop uses.
    for round in 0..2 * ov.len() {
        sink += exercise(&ov, &mut scratch, &mut out, round);
    }

    let before = heap_ops();
    for round in 0..32 {
        sink += exercise(&ov, &mut scratch, &mut out, round);
    }
    let delta = heap_ops() - before;
    assert_eq!(
        delta, 0,
        "warm overlay skeleton queries must be allocation-free, \
         saw {delta} heap ops over 32 passes"
    );
    assert!(sink.is_finite(), "keep the queries observable");
}
