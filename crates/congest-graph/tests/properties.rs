//! Property-based tests of the graph substrate.

#![allow(clippy::needless_range_loop)] // index loops mirror the paper's matrix notation
use congest_graph::overlay::{Overlay, RowCache, SkeletonDistances};
use congest_graph::rounding::{approx_hop_bounded_into, RoundingScheme};
use congest_graph::{
    generators, metrics, shortest_path, Dist, GraphBuilder, SsspWorkspace, WeightedGraph,
};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

fn arb_graph() -> impl Strategy<Value = WeightedGraph> {
    (4usize..20, any::<u64>(), 1u64..16).prop_map(|(n, seed, w)| {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        generators::erdos_renyi_connected(n, 0.25, w, &mut rng)
    })
}

/// The row `d̃^ℓ(u, ·)` computed without the limited search: one full
/// Dijkstra per scale on the materialized rounded graph `(G, w_i)`, then
/// Lemma 3.2's threshold filter.
fn unlimited_row(g: &WeightedGraph, u: usize, scheme: RoundingScheme) -> Vec<f64> {
    let mut best = vec![f64::INFINITY; g.n()];
    for i in 0..=scheme.max_scale(g.n(), g.max_weight()) {
        let di = shortest_path::dijkstra(&scheme.rounded_graph(g, i), u);
        for v in g.nodes() {
            if let Some(d) = di[v].finite() {
                if (d as f64) <= scheme.threshold() {
                    best[v] = best[v].min(d as f64 * scheme.unscale(i));
                }
            }
        }
    }
    best
}

/// `Overlay::approx_hop_bounded` with no early stop: every scale
/// `0..=imax` runs, each on fresh label buffers.
fn overlay_all_scales(ov: &Overlay, src: usize, ell: usize, eps: f64) -> Vec<f64> {
    let s = ov.len();
    let max_w = (0..s)
        .flat_map(|i| (0..s).map(move |j| (i, j)))
        .map(|(i, j)| ov.weight(i, j))
        .filter(|x| x.is_finite())
        .fold(1.0f64, f64::max);
    let imax = ((2.0 * s as f64 * max_w / eps).log2().ceil()).max(0.0) as u32;
    let threshold = (1.0 + 2.0 / eps) * ell as f64;
    let mut best = vec![f64::INFINITY; s];
    best[src] = 0.0;
    for i in 0..=imax {
        let denom = eps * (2f64).powi(i as i32);
        let unscale = denom / (2.0 * ell as f64);
        let mut dist = vec![f64::INFINITY; s];
        let mut done = vec![false; s];
        dist[src] = 0.0;
        for _ in 0..s {
            let mut pick = None;
            for x in 0..s {
                if !done[x] && dist[x].is_finite() {
                    match pick {
                        None => pick = Some(x),
                        Some(p) if dist[x] < dist[p] => pick = Some(x),
                        _ => {}
                    }
                }
            }
            let Some(v) = pick else { break };
            done[v] = true;
            if dist[v] > threshold {
                continue;
            }
            for u in 0..s {
                if u != v && ov.weight(v, u).is_finite() {
                    let rw = ((2.0 * ell as f64 * ov.weight(v, u)) / denom)
                        .ceil()
                        .max(1.0);
                    let nd = dist[v] + rw;
                    if nd < dist[u] {
                        dist[u] = nd;
                    }
                }
            }
        }
        for v in 0..s {
            if dist[v] <= threshold {
                let approx = dist[v] * unscale;
                if approx < best[v] {
                    best[v] = approx;
                }
            }
        }
    }
    best
}

/// Scales one `approx_hop_bounded_into` call runs, read off
/// `KernelCounters::heap_runs` (one limited search per scale).
fn scales_run(g: &WeightedGraph, u: usize, scheme: RoundingScheme, out: &mut [f64]) -> u64 {
    let mut ws = SsspWorkspace::new();
    approx_hop_bounded_into(g, u, scheme, &mut ws, out);
    ws.counters().heap_runs
}

/// The early stop on two fixed paths, one per stopping rule. On the
/// weight-5 path with `ℓ = 8`, `ε = 1/4` (limit `72`), scale `i` rounds
/// 5 to `⌈320/2^i⌉`, so scale 5 (weight 10, 7 hops = 70) is the first to
/// accept all 8 nodes: 6 of the 10 scales run. On the unit path with
/// `ℓ = 1`, `ε = 1/2` (limit 5), scale 2 rounds every weight to 1 and no
/// scale reaches node 19: 3 of the 8 scales run. Both rows equal the
/// all-scales row.
#[test]
fn early_stop_runs_pinned_scale_counts() {
    for (g, scheme, want_runs, all_scales) in [
        (generators::path(8, 5), RoundingScheme::new(8, 0.25), 6, 10),
        (generators::path(20, 1), RoundingScheme::new(1, 0.5), 3, 8),
    ] {
        assert_eq!(scheme.max_scale(g.n(), g.max_weight()) + 1, all_scales);
        let mut out = vec![0.0; g.n()];
        assert_eq!(scales_run(&g, 0, scheme, &mut out), want_runs);
        let want = unlimited_row(&g, 0, scheme);
        assert_eq!(
            out.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            want.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        );
    }
}

/// `SkeletonDistances` for one set, composed the per-set way: every
/// member's row from [`unlimited_row`], once for the overlay and once for
/// the bounded-hop table, and the overlay symmetrized by `min` as the rows
/// arrive.
fn per_set_reference(
    g: &WeightedGraph,
    set: &[usize],
    scheme: RoundingScheme,
    k: usize,
) -> SkeletonDistances {
    let mut nodes = set.to_vec();
    nodes.sort_unstable();
    let s = nodes.len();
    let mut w = vec![0.0; s * s];
    for (i, &u) in nodes.iter().enumerate() {
        let d = unlimited_row(g, u, scheme);
        for (j, &v) in nodes.iter().enumerate() {
            if i != j {
                let val = d[v];
                let cur = w[j * s + i];
                let best = if cur > 0.0 { val.min(cur) } else { val };
                w[i * s + j] = best;
                w[j * s + i] = best;
            }
        }
    }
    let overlay = Overlay::from_matrix(nodes.clone(), w);
    SkeletonDistances {
        bounded_hop: nodes.iter().map(|&u| unlimited_row(g, u, scheme)).collect(),
        skeleton: nodes,
        shortcut: overlay.shortcut(k),
        overlay_ell: ((4 * s) as f64 / k as f64).ceil().max(1.0) as usize,
        eps: scheme.eps,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// One row cache shared by overlapping sets reproduces the per-set
    /// reference bit for bit: every bounded-hop entry, every shortcut
    /// weight, the overlay hop budget and every approximate eccentricity.
    /// A small `ℓ` leaves pairs at `INFINITY`: on the 60-node path every
    /// row has some node farther than the `⌊(1+2/ε)ℓ⌋ ≤ 27` hops any scale
    /// accepts.
    #[test]
    fn cached_reference_matches_per_set_reference(
        g in arb_graph(),
        set_seed in any::<u64>(),
        ell in 1usize..4,
        eps_pick in 0usize..3,
        k in 1usize..4,
    ) {
        let scheme = RoundingScheme::new(ell, [0.25, 0.5, 1.0][eps_pick]);
        let mut rng = ChaCha8Rng::seed_from_u64(set_seed);
        let path = generators::path(60, 1 + set_seed % 7);
        for (graph, rate, must_cut) in [(&g, 0.4, false), (&path, 0.15, true)] {
            let n = graph.n();
            let mut sets: Vec<Vec<usize>> = (0..4)
                .map(|_| {
                    let mut set: Vec<usize> =
                        (0..n).filter(|_| rng.gen_bool(rate)).collect();
                    if set.is_empty() {
                        set.push(rng.gen_range(0..n));
                    }
                    set
                })
                .collect();
            sets.push(sets[0].clone()); // a repeated set reads only cached rows
            let mut rows = RowCache::new(graph, scheme, n);
            let mut saw_infinite = false;
            for set in &sets {
                let want = per_set_reference(graph, set, scheme, k);
                let got = SkeletonDistances::from_rows(&mut rows, set, k);
                prop_assert_eq!(&got.skeleton, &want.skeleton);
                prop_assert_eq!(got.overlay_ell, want.overlay_ell);
                prop_assert_eq!(got.eps.to_bits(), want.eps.to_bits());
                for (a, b) in got.bounded_hop.iter().zip(&want.bounded_hop) {
                    prop_assert_eq!(a.len(), b.len());
                    for (x, y) in a.iter().zip(b) {
                        prop_assert_eq!(x.to_bits(), y.to_bits());
                        saw_infinite |= x.is_infinite();
                    }
                }
                let s = want.skeleton.len();
                for i in 0..s {
                    for j in 0..s {
                        prop_assert_eq!(
                            got.shortcut.weight(i, j).to_bits(),
                            want.shortcut.weight(i, j).to_bits()
                        );
                    }
                }
                for &u in &want.skeleton {
                    prop_assert_eq!(
                        got.approx_eccentricity(u).to_bits(),
                        want.approx_eccentricity(u).to_bits()
                    );
                }
            }
            let distinct: std::collections::BTreeSet<usize> =
                sets.iter().flatten().copied().collect();
            prop_assert_eq!(rows.len(), distinct.len(), "one row per distinct member");
            prop_assert!(saw_infinite || !must_cut, "the path must leave pairs at INFINITY");
        }
    }

    /// Every early-stopped row equals the all-scales row bit for bit: on
    /// ER graphs with weights up to 16 (mostly read from the weight table)
    /// and up to 2^40 (mostly past its `2m` end, rounded in place), and on
    /// a 60-node path with `ℓ ≤ 3`, where no scale accepts the far end (it
    /// accepts at most `⌊(1+2/ε)ℓ⌋ ≤ 27` hops, every eccentricity is ≥ 30), so
    /// the unit-weight stop is what ends the loop.
    #[test]
    fn early_stopped_rows_match_all_scales(
        n in 4usize..20,
        seed in any::<u64>(),
        small_w in 1u64..=16,
        big_w in 17u64..=(1u64 << 40),
        ell in 1usize..24,
        eps_pick in 0usize..3,
        path_w in 1u64..8,
    ) {
        let eps = [0.25, 0.5, 1.0][eps_pick];
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let light = generators::erdos_renyi_connected(n, 0.25, small_w, &mut rng);
        let heavy = generators::erdos_renyi_connected(n, 0.25, big_w, &mut rng);
        let path = generators::path(60, path_w);
        for (g, ell, is_path) in [(&light, ell, false), (&heavy, ell, false), (&path, 1 + ell % 3, true)] {
            let scheme = RoundingScheme::new(ell, eps);
            let all_scales = u64::from(scheme.max_scale(g.n(), g.max_weight())) + 1;
            let mut out = vec![0.0; g.n()];
            for u in g.nodes().step_by(if is_path { 7 } else { 1 }) {
                let runs = scales_run(g, u, scheme, &mut out);
                let want = unlimited_row(g, u, scheme);
                for (x, y) in out.iter().zip(&want) {
                    prop_assert_eq!(x.to_bits(), y.to_bits());
                }
                prop_assert!(runs <= all_scales);
                if is_path {
                    prop_assert!(out.iter().any(|x| x.is_infinite()), "no scale accepts all");
                    prop_assert!(runs < all_scales, "the unit-weight stop ends the row");
                }
            }
        }
    }

    /// The overlay's early-stopped `d̃^{ℓ'}` equals the all-scales copy bit
    /// for bit, on `G'_S` and on its shortcut graph. A small `ℓ` leaves
    /// overlay weights at `INFINITY`; a small `ℓ'` keeps some scales from
    /// accepting every skeleton node.
    #[test]
    fn overlay_stop_matches_all_scales(
        g in arb_graph(),
        set_seed in any::<u64>(),
        ell in 1usize..6,
        overlay_ell in 1usize..8,
        eps_pick in 0usize..3,
        k in 1usize..4,
    ) {
        let eps = [0.25, 0.5, 1.0][eps_pick];
        let scheme = RoundingScheme::new(ell, eps);
        let mut rng = ChaCha8Rng::seed_from_u64(set_seed);
        let mut set: Vec<usize> = g.nodes().filter(|_| rng.gen_bool(0.5)).collect();
        if set.is_empty() {
            set.push(0);
        }
        let mut rows = RowCache::new(&g, scheme, g.n());
        let overlay = Overlay::from_rows(&mut rows, &set);
        for ov in [overlay.shortcut(k), overlay] {
            for src in 0..ov.len() {
                let got = ov.approx_hop_bounded(src, overlay_ell, eps);
                let want = overlay_all_scales(&ov, src, overlay_ell, eps);
                prop_assert_eq!(got.len(), want.len());
                for (x, y) in got.iter().zip(&want) {
                    prop_assert_eq!(x.to_bits(), y.to_bits());
                }
            }
        }
    }

    /// Builder canonicalization: edge count, symmetry, weight positivity.
    #[test]
    fn builder_invariants(edges in proptest::collection::vec((0usize..10, 0usize..10, 1u64..100), 1..40)) {
        let valid: Vec<_> = edges.into_iter().filter(|&(u, v, _)| u != v).collect();
        prop_assume!(!valid.is_empty());
        let mut b = GraphBuilder::new(10);
        for &(u, v, w) in &valid {
            b.add_edge(u, v, w);
        }
        let g = b.build().unwrap();
        for e in g.edges() {
            prop_assert!(e.u < e.v, "canonical orientation");
            prop_assert!(e.w >= 1);
            prop_assert_eq!(g.edge_weight(e.u, e.v), Some(e.w));
            prop_assert_eq!(g.edge_weight(e.v, e.u), Some(e.w));
            // Minimum over parallel edges.
            let min_w = valid.iter()
                .filter(|&&(a, b2, _)| (a.min(b2), a.max(b2)) == (e.u, e.v))
                .map(|&(_, _, w)| w)
                .min()
                .unwrap();
            prop_assert_eq!(e.w, min_w);
        }
    }

    /// Distances are symmetric on undirected graphs.
    #[test]
    fn distance_symmetry(g in arb_graph()) {
        let apsp = shortest_path::apsp(&g);
        for u in g.nodes() {
            for v in g.nodes() {
                prop_assert_eq!(apsp[u][v], apsp[v][u]);
            }
        }
    }

    /// Eccentricity bounds: R ≤ e(v) ≤ D = max ecc, D ≤ 2R.
    #[test]
    fn eccentricity_bounds(g in arb_graph()) {
        let d = metrics::diameter(&g);
        let r = metrics::radius(&g);
        prop_assert!(r <= d);
        prop_assert!(d <= r.saturating_mul(2));
        for v in g.nodes() {
            let e = metrics::eccentricity(&g, v);
            prop_assert!(e >= r && e <= d);
        }
    }

    /// Unweighted diameter never exceeds weighted diameter (weights ≥ 1),
    /// and hop diameter ≥ unweighted diameter.
    #[test]
    fn diameter_orderings(g in arb_graph()) {
        let du = metrics::unweighted_diameter(&g) as u64;
        let dw = metrics::diameter(&g).expect_finite();
        prop_assert!(du <= dw);
        let h = metrics::hop_diameter(&g);
        prop_assert!(h >= du as usize);
    }

    /// The k-shortcut graph never increases weights and keeps them above
    /// true overlay distances; its hop diameter obeys Theorem 3.10's bound.
    #[test]
    fn shortcut_invariants(g in arb_graph(), k in 1usize..5) {
        prop_assume!(g.n() >= 8);
        let skeleton: Vec<_> = (0..g.n()).step_by(2).collect();
        let scheme = RoundingScheme::new(g.n(), 0.5);
        let ov = Overlay::from_skeleton(&g, &skeleton, scheme);
        let sc = ov.shortcut(k);
        for i in 0..ov.len() {
            let d = ov.dijkstra(i);
            for j in 0..ov.len() {
                if i != j {
                    prop_assert!(sc.weight(i, j) <= ov.weight(i, j) + 1e-9);
                    prop_assert!(sc.weight(i, j) >= d[j] - 1e-9);
                }
            }
        }
        let bound = (4 * ov.len()) as f64 / k as f64;
        prop_assert!((sc.hop_diameter() as f64) < bound);
    }

    /// The full Lemma 3.3 sandwich for the composed approximate distance.
    #[test]
    fn skeleton_distance_sandwich(g in arb_graph(), k in 1usize..4) {
        prop_assume!(g.n() >= 6);
        let skeleton: Vec<_> = (0..g.n()).step_by(3).collect();
        prop_assume!(skeleton.len() >= 2);
        let eps = 0.5;
        let scheme = RoundingScheme::new(g.n(), eps);
        let sd = SkeletonDistances::compute(&g, &skeleton, scheme, k);
        for &s in &sd.skeleton {
            let exact = shortest_path::dijkstra(&g, s);
            let approx = sd.approx_distances_from(s);
            for v in g.nodes() {
                prop_assert!(approx[v] >= exact[v].as_f64() - 1e-6);
                prop_assert!(approx[v] <= (1.0 + eps) * (1.0 + eps) * exact[v].as_f64() + 1e-6);
            }
        }
    }

    /// Digest stability: any insertion order of the same edge multiset —
    /// including flipped endpoints and duplicated edges — builds a graph
    /// with the identical content digest, while dropping an edge or
    /// changing one weight changes it.
    #[test]
    fn digest_is_insertion_order_invariant(
        edges in proptest::collection::vec((0usize..12, 0usize..12, 1u64..50), 1..40),
        perm_seed in any::<u64>(),
    ) {
        let valid: Vec<_> = edges.into_iter().filter(|&(u, v, _)| u != v).collect();
        prop_assume!(!valid.is_empty());
        let n = 12;
        let base = WeightedGraph::from_edges(n, valid.iter().copied()).unwrap();

        // Deterministic Fisher–Yates shuffle + endpoint flips + a duplicate.
        let mut shuffled = valid.clone();
        let mut state = perm_seed | 1;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for i in (1..shuffled.len()).rev() {
            let j = (next() % (i as u64 + 1)) as usize;
            shuffled.swap(i, j);
        }
        let mut b = GraphBuilder::new(n);
        for &(u, v, w) in &shuffled {
            if next() % 2 == 0 {
                b.add_edge(v, u, w);
            } else {
                b.add_edge(u, v, w);
            }
        }
        let &(du, dv, dw) = &shuffled[0];
        b.add_edge(du, dv, dw); // a parallel duplicate must not change the hash
        let reordered = b.build().unwrap();
        prop_assert_eq!(base.digest(), reordered.digest());

        // Sensitivity: a different multiset hashes differently.
        if base.m() > 1 {
            let dropped =
                WeightedGraph::from_edges(n, base.edges().skip(1).map(|e| (e.u, e.v, e.w)))
                    .unwrap();
            prop_assert_ne!(base.digest(), dropped.digest());
        }
        let bumped = WeightedGraph::from_edges(
            n,
            base.edges()
                .enumerate()
                .map(|(i, e)| (e.u, e.v, if i == 0 { e.w + 1 } else { e.w })),
        )
        .unwrap();
        prop_assert_ne!(base.digest(), bumped.digest());
    }

    /// Bounded-distance truncation: values ≤ L are exact, others infinite.
    #[test]
    fn bounded_distance_truncation(g in arb_graph(), limit in 1u64..60) {
        let d = shortest_path::dijkstra(&g, 0);
        let t = shortest_path::bounded_distance(&g, 0, Dist::from(limit));
        for v in g.nodes() {
            if d[v] <= Dist::from(limit) {
                prop_assert_eq!(t[v], d[v]);
            } else {
                prop_assert_eq!(t[v], Dist::INFINITY);
            }
        }
    }
}
