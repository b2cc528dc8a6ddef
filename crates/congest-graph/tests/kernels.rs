//! Ground-truth kernel equivalence, property-tested.
//!
//! The pruned sweep computer ([`congest_graph::sweep`]) and the flat
//! [`DistMatrix`] APSP kernels must be *exactly* interchangeable with the
//! seed's brute-force formulations — same distances, same extremes, same
//! witnesses, bit for bit. These proptests pin that contract on random
//! connected AND disconnected graphs, so any future tweak to source
//! selection, bound maintenance or reduction order that drifts from the
//! reference fails loudly here.

use congest_graph::sweep::{self, EdgeMetric};
use congest_graph::{generators, metrics, shortest_path, Dist, WeightedGraph};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn arb_connected() -> impl Strategy<Value = WeightedGraph> {
    (2usize..28, any::<u64>(), 1u64..200).prop_map(|(n, seed, w)| {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        generators::erdos_renyi_connected(n, 0.15, w, &mut rng)
    })
}

/// Two connected components glued into one node set — every distance across
/// the cut is infinite, so the extremes must report disconnection.
fn arb_disconnected() -> impl Strategy<Value = WeightedGraph> {
    (2usize..12, 2usize..12, any::<u64>(), 1u64..50).prop_map(|(n1, n2, seed, w)| {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let a = generators::erdos_renyi_connected(n1, 0.3, w, &mut rng);
        let b = generators::erdos_renyi_connected(n2, 0.3, w, &mut rng);
        let mut edges: Vec<(usize, usize, u64)> = a.edges().map(|e| (e.u, e.v, e.w)).collect();
        edges.extend(b.edges().map(|e| (e.u + n1, e.v + n1, e.w)));
        WeightedGraph::from_edges(n1 + n2, edges).expect("valid disjoint union")
    })
}

/// Pins the full [`sweep::SweepResult`] contract against brute force:
/// identical diameter/radius, witnesses whose eccentricities realize them,
/// and a sweep count within the graceful-degradation budget.
fn assert_sweep_matches_brute(g: &WeightedGraph, metric: EdgeMetric) -> Result<(), TestCaseError> {
    let pruned = sweep::extremes_with(g, metric);
    let brute = sweep::brute_force_extremes(g, metric);
    prop_assert_eq!(pruned.diameter, brute.diameter);
    prop_assert_eq!(pruned.radius, brute.radius);
    prop_assert_eq!(pruned.is_connected(), brute.is_connected());
    prop_assert!(pruned.sweeps <= g.n().max(1), "sweep budget exceeded");
    let eccs = sweep::all_eccentricities(g, metric);
    if pruned.is_connected() {
        prop_assert_eq!(eccs[pruned.diameter_witness], pruned.diameter);
        prop_assert_eq!(eccs[pruned.radius_witness], pruned.radius);
    } else {
        // Disconnected graphs use the seed fold's witness convention.
        prop_assert_eq!(pruned.diameter_witness, brute.diameter_witness);
        prop_assert_eq!(pruned.radius_witness, brute.radius_witness);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Pruned sweeps equal brute force on connected graphs, both metrics.
    #[test]
    fn sweep_matches_brute_on_connected(g in arb_connected()) {
        assert_sweep_matches_brute(&g, EdgeMetric::Weighted)?;
        assert_sweep_matches_brute(&g, EdgeMetric::Unweighted)?;
    }

    /// Pruned sweeps equal brute force on disconnected graphs too — the
    /// early-exit path must preserve the seed's infinity-and-witness fold.
    #[test]
    fn sweep_matches_brute_on_disconnected(g in arb_disconnected()) {
        assert_sweep_matches_brute(&g, EdgeMetric::Weighted)?;
        assert_sweep_matches_brute(&g, EdgeMetric::Unweighted)?;
        let r = sweep::extremes(&g);
        prop_assert_eq!(r.diameter, Dist::INFINITY);
        prop_assert_eq!(r.radius, Dist::INFINITY);
    }

    /// The metrics facade answers every extremal query identically to the
    /// per-query seed semantics (witness values realize the extremes).
    #[test]
    fn metrics_facade_is_consistent(g in arb_connected()) {
        let ex = metrics::extremes(&g);
        prop_assert_eq!(metrics::diameter(&g), ex.diameter);
        prop_assert_eq!(metrics::radius(&g), ex.radius);
        let (dw, dv) = metrics::diameter_witness(&g);
        let (rw, rv) = metrics::radius_witness(&g);
        prop_assert_eq!(dv, ex.diameter);
        prop_assert_eq!(rv, ex.radius);
        prop_assert_eq!(metrics::eccentricity(&g, dw), ex.diameter);
        prop_assert_eq!(metrics::eccentricity(&g, rw), ex.radius);
    }

    /// The flat APSP matrix agrees entry-for-entry with per-source Dijkstra
    /// and flat Floyd–Warshall, through every access path it offers.
    #[test]
    fn dist_matrix_matches_reference(g in arb_connected()) {
        let apsp = shortest_path::apsp(&g);
        let fw = shortest_path::floyd_warshall(&g);
        prop_assert_eq!(apsp.n(), g.n());
        prop_assert_eq!(apsp.as_flat().len(), g.n() * g.n());
        for s in g.nodes() {
            let dj = shortest_path::dijkstra(&g, s);
            prop_assert_eq!(&dj, &apsp[s]);
            prop_assert_eq!(&dj, &fw[s]);
            prop_assert_eq!(apsp.row(s), fw.row(s));
            for v in g.nodes() {
                prop_assert_eq!(apsp[(s, v)], dj[v]);
                prop_assert_eq!(apsp.as_flat()[s * g.n() + v], dj[v]);
            }
        }
        for (u, row) in apsp.rows() {
            prop_assert_eq!(row, &apsp[u]);
        }
    }

    /// Disconnected pairs are infinite in the matrix kernels as well.
    #[test]
    fn dist_matrix_handles_disconnection(g in arb_disconnected()) {
        let apsp = shortest_path::apsp(&g);
        let fw = shortest_path::floyd_warshall(&g);
        prop_assert_eq!(apsp.as_flat(), fw.as_flat());
        prop_assert!(apsp.as_flat().iter().any(|d| !d.is_finite()));
    }
}
