//! Property-based tests of the graph substrate.

#![allow(clippy::needless_range_loop)] // index loops mirror the paper's matrix notation
use congest_graph::overlay::{Overlay, RowCache, SkeletonDistances};
use congest_graph::rounding::RoundingScheme;
use congest_graph::{generators, metrics, shortest_path, Dist, GraphBuilder, WeightedGraph};
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
