//! Graph metrics: eccentricity, diameter, radius, hop diameter.
//!
//! These are the quantities the paper computes distributedly; here they are
//! computed exactly and centrally, as ground truth for the approximation
//! guarantees of Theorems 1.1 and for the gadget analyses of Section 4.
//!
//! Since the kernel rework, every diameter/radius/witness query is answered
//! by the pruned [`crate::sweep`] computer (a handful of bound-certified
//! sweeps instead of `n`), and all multi-source loops reuse one
//! [`crate::SsspWorkspace`]. Call [`extremes`] when you need more than one
//! of diameter/radius/witnesses — it answers all four from one shared
//! computation.

use crate::dist::Dist;
use crate::graph::{NodeId, WeightedGraph};
use crate::shortest_path::dijkstra_with_hops;
use crate::sweep::{self, EdgeMetric, SweepResult};
use crate::workspace::SsspWorkspace;

/// The eccentricity `e_{G,w}(v) = max_u d(v, u)` of a single node.
///
/// Returns [`Dist::INFINITY`] when the graph is disconnected.
///
/// # Panics
///
/// Panics if `v >= g.n()`.
pub fn eccentricity(g: &WeightedGraph, v: NodeId) -> Dist {
    SsspWorkspace::new().eccentricity(g, v)
}

/// All eccentricities (`n` workspace-reused Dijkstra sweeps).
pub fn eccentricities(g: &WeightedGraph) -> Vec<Dist> {
    sweep::all_eccentricities(g, EdgeMetric::Weighted)
}

/// Diameter, radius, and both witnesses from one shared pruned sweep.
///
/// This is the cheapest way to get any two or more of the four extremal
/// quantities; the individual accessors below each rerun the sweep.
///
/// # Examples
///
/// ```
/// use congest_graph::{metrics, generators, Dist};
/// let g = generators::path(5, 3);
/// let r = metrics::extremes(&g);
/// assert_eq!(r.diameter, Dist::from(12u64));
/// assert_eq!(r.radius, Dist::from(6u64));
/// assert!(r.sweeps <= g.n());
/// ```
pub fn extremes(g: &WeightedGraph) -> SweepResult {
    sweep::extremes(g)
}

/// Unweighted (topology) extremes from one shared pruned BFS sweep.
pub fn unweighted_extremes(g: &WeightedGraph) -> SweepResult {
    sweep::extremes_unweighted(g)
}

/// The weighted diameter `D_{G,w} = max_v e(v)`.
///
/// # Examples
///
/// ```
/// use congest_graph::{metrics, generators, Dist};
/// let g = generators::path(5, 3);
/// assert_eq!(metrics::diameter(&g), Dist::from(12u64));
/// ```
pub fn diameter(g: &WeightedGraph) -> Dist {
    sweep::extremes(g).diameter
}

/// The weighted radius `R_{G,w} = min_v e(v)`.
///
/// # Examples
///
/// ```
/// use congest_graph::{metrics, generators, Dist};
/// let g = generators::path(5, 3);
/// assert_eq!(metrics::radius(&g), Dist::from(6u64));
/// ```
pub fn radius(g: &WeightedGraph) -> Dist {
    sweep::extremes(g).radius
}

/// The *unweighted* diameter `D_G` — the diameter of the topology with all
/// weights set to 1, computed by pruned BFS sweeps (no intermediate
/// unweighted graph is materialized). This is the network parameter `D` in
/// all of the paper's round bounds.
///
/// Returns `usize::MAX` for disconnected graphs.
pub fn unweighted_diameter(g: &WeightedGraph) -> usize {
    match sweep::extremes_unweighted(g).diameter.finite() {
        Some(d) => d as usize,
        None => usize::MAX,
    }
}

/// A node of maximum eccentricity (`v*` in Section 3.1) together with its
/// eccentricity. Returns node 0 with eccentricity 0 for single-node graphs.
pub fn diameter_witness(g: &WeightedGraph) -> (NodeId, Dist) {
    let r = sweep::extremes(g);
    (r.diameter_witness, r.diameter)
}

/// A node of minimum eccentricity (a *center*) with its eccentricity.
pub fn radius_witness(g: &WeightedGraph) -> (NodeId, Dist) {
    let r = sweep::extremes(g);
    (r.radius_witness, r.radius)
}

/// The hop distance `h_{G,w}(u, v)`: the minimum number of edges over all
/// *shortest* (by weight) paths between `u` and `v` (Section 3.1).
///
/// Returns `usize::MAX` if `v` is unreachable from `u`.
///
/// # Panics
///
/// Panics if `u >= g.n()`.
pub fn hop_distance(g: &WeightedGraph, u: NodeId, v: NodeId) -> usize {
    let (_, hops) = dijkstra_with_hops(g, u);
    hops[v]
}

/// The hop diameter `H_{G,w} = max_{u,v} h(u, v)` (Section 3.1), by `n`
/// workspace-reused hop-annotated Dijkstra sweeps.
///
/// Returns `usize::MAX` for disconnected graphs.
pub fn hop_diameter(g: &WeightedGraph) -> usize {
    let mut ws = SsspWorkspace::new();
    let mut best = 0usize;
    for u in g.nodes() {
        let (_, hops) = ws.dijkstra_with_hops_into(g, u);
        for &h in hops {
            if h == usize::MAX {
                return usize::MAX;
            }
            best = best.max(h);
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn path_metrics() {
        let g = generators::path(6, 2);
        assert_eq!(diameter(&g), Dist::from(10u64));
        assert_eq!(radius(&g), Dist::from(6u64)); // center at node 2 or 3
        assert_eq!(unweighted_diameter(&g), 5);
        assert_eq!(hop_diameter(&g), 5);
    }

    #[test]
    fn star_metrics() {
        let g = generators::star(7, 4);
        assert_eq!(diameter(&g), Dist::from(8u64));
        assert_eq!(radius(&g), Dist::from(4u64)); // the hub
        assert_eq!(radius_witness(&g).0, 0);
        assert_eq!(unweighted_diameter(&g), 2);
    }

    #[test]
    fn cycle_metrics() {
        let g = generators::cycle(8, 1);
        assert_eq!(diameter(&g), Dist::from(4u64));
        assert_eq!(radius(&g), Dist::from(4u64)); // vertex-transitive
    }

    #[test]
    fn diameter_at_least_radius() {
        let mut rng = {
            use rand::SeedableRng;
            rand_chacha::ChaCha8Rng::seed_from_u64(3)
        };
        for _ in 0..10 {
            let g = generators::erdos_renyi_connected(20, 0.15, 8, &mut rng);
            let d = diameter(&g);
            let r = radius(&g);
            assert!(r <= d);
            // Classic fact for metric spaces: D ≤ 2R.
            assert!(d <= r.saturating_mul(2));
        }
    }

    #[test]
    fn witness_achieves_diameter() {
        let mut rng = {
            use rand::SeedableRng;
            rand_chacha::ChaCha8Rng::seed_from_u64(9)
        };
        let g = generators::erdos_renyi_connected(18, 0.2, 5, &mut rng);
        let (v, e) = diameter_witness(&g);
        assert_eq!(eccentricity(&g, v), e);
        assert_eq!(e, diameter(&g));
    }

    #[test]
    fn extremes_bundles_all_four_queries() {
        let mut rng = {
            use rand::SeedableRng;
            rand_chacha::ChaCha8Rng::seed_from_u64(14)
        };
        let g = generators::erdos_renyi_connected(25, 0.15, 6, &mut rng);
        let r = extremes(&g);
        assert_eq!(r.diameter, diameter(&g));
        assert_eq!(r.radius, radius(&g));
        assert_eq!(eccentricity(&g, r.diameter_witness), r.diameter);
        assert_eq!(eccentricity(&g, r.radius_witness), r.radius);
        let eccs = eccentricities(&g);
        assert_eq!(r.diameter, eccs.iter().copied().max().unwrap());
        assert_eq!(r.radius, eccs.iter().copied().min().unwrap());
    }

    #[test]
    fn unweighted_extremes_match_unweighted_view() {
        let g = generators::star(9, 7);
        let u = g.unweighted_view();
        let r = unweighted_extremes(&g);
        assert_eq!(r.diameter, diameter(&u));
        assert_eq!(r.radius, radius(&u));
    }

    #[test]
    fn hop_distance_prefers_fewest_edges_among_shortest() {
        // Shortest 0->3 distance is 4 via either 0-1-2-3 (hops 3) or 0-3 (w=4, hops 1).
        let g = WeightedGraph::from_edges(4, [(0, 1, 1), (1, 2, 1), (2, 3, 2), (0, 3, 4)]).unwrap();
        assert_eq!(hop_distance(&g, 0, 3), 1);
        // But with the direct edge heavier, the 3-hop path is the only shortest one.
        let g = WeightedGraph::from_edges(4, [(0, 1, 1), (1, 2, 1), (2, 3, 2), (0, 3, 5)]).unwrap();
        assert_eq!(hop_distance(&g, 0, 3), 3);
    }

    #[test]
    fn disconnected_graph_metrics() {
        let g = WeightedGraph::from_edges(4, [(0, 1, 1), (2, 3, 1)]).unwrap();
        assert_eq!(diameter(&g), Dist::INFINITY);
        assert_eq!(unweighted_diameter(&g), usize::MAX);
        assert_eq!(hop_diameter(&g), usize::MAX);
    }

    use crate::graph::WeightedGraph;
}
