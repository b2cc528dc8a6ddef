//! Graph generators for tests, examples, and the benchmark workloads.
//!
//! Deterministic generators take shape parameters; randomized ones take an
//! explicit [`rand::Rng`] so every experiment is reproducible from a seed.

use crate::graph::{GraphBuilder, Weight, WeightedGraph};
use rand::Rng;

pub mod stream;

/// A path `0 - 1 - … - (n-1)` with uniform edge weight `w`.
///
/// # Panics
///
/// Panics if `n == 0` or `w == 0`.
pub fn path(n: usize, w: Weight) -> WeightedGraph {
    assert!(n > 0 && w > 0);
    WeightedGraph::from_edges(n, (1..n).map(|v| (v - 1, v, w))).expect("valid path")
}

/// A cycle on `n ≥ 3` nodes with uniform edge weight `w`.
///
/// # Panics
///
/// Panics if `n < 3` or `w == 0`.
pub fn cycle(n: usize, w: Weight) -> WeightedGraph {
    assert!(n >= 3 && w > 0);
    WeightedGraph::from_edges(n, (0..n).map(|v| (v, (v + 1) % n, w))).expect("valid cycle")
}

/// A star: node 0 is the hub, connected to `1..n` with weight `w`.
///
/// # Panics
///
/// Panics if `n < 2` or `w == 0`.
pub fn star(n: usize, w: Weight) -> WeightedGraph {
    assert!(n >= 2 && w > 0);
    WeightedGraph::from_edges(n, (1..n).map(|v| (0, v, w))).expect("valid star")
}

/// The complete graph `K_n` with uniform edge weight `w`.
///
/// # Panics
///
/// Panics if `n == 0` or `w == 0`.
pub fn complete(n: usize, w: Weight) -> WeightedGraph {
    assert!(n > 0 && w > 0);
    let mut b = GraphBuilder::new(n);
    for u in 0..n {
        for v in (u + 1)..n {
            b.add_edge(u, v, w);
        }
    }
    b.build().expect("valid complete graph")
}

/// A complete binary tree of height `h` (`2^{h+1} − 1` nodes, root 0),
/// children of `v` at `2v+1` and `2v+2`, uniform edge weight `w`.
///
/// # Panics
///
/// Panics if `w == 0`.
pub fn binary_tree(h: u32, w: Weight) -> WeightedGraph {
    assert!(w > 0);
    let n = (1usize << (h + 1)) - 1;
    WeightedGraph::from_edges(n, (1..n).map(|v| ((v - 1) / 2, v, w))).expect("valid tree")
}

/// A `rows × cols` grid with uniform edge weight `w`.
///
/// # Panics
///
/// Panics if `rows * cols == 0` or `w == 0`.
pub fn grid(rows: usize, cols: usize, w: Weight) -> WeightedGraph {
    assert!(rows > 0 && cols > 0 && w > 0);
    let id = |r: usize, c: usize| r * cols + c;
    let mut b = GraphBuilder::new(rows * cols);
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                b.add_edge(id(r, c), id(r, c + 1), w);
            }
            if r + 1 < rows {
                b.add_edge(id(r, c), id(r + 1, c), w);
            }
        }
    }
    b.build().expect("valid grid")
}

/// A "barbell": two cliques of size `k` joined by a path of `bridge` edges.
/// A classic high-diameter, high-congestion workload.
///
/// # Panics
///
/// Panics if `k < 2` or `w == 0`.
pub fn barbell(k: usize, bridge: usize, w: Weight) -> WeightedGraph {
    assert!(k >= 2 && w > 0);
    let n = 2 * k + bridge.saturating_sub(1);
    let mut b = GraphBuilder::new(n.max(2 * k));
    for u in 0..k {
        for v in (u + 1)..k {
            b.add_edge(u, v, w);
        }
    }
    let right = k + bridge.saturating_sub(1);
    for u in right..right + k {
        for v in (u + 1)..right + k {
            b.add_edge(u, v, w);
        }
    }
    // Path from node k-1 (in left clique) through bridge nodes to node `right`.
    let mut prev = k - 1;
    for i in 0..bridge {
        let next = if i + 1 == bridge { right } else { k + i };
        b.add_edge(prev, next, w);
        prev = next;
    }
    // Recompute n as max node + 1 is already handled by builder size.
    b.build().expect("valid barbell")
}

/// A uniformly random spanning tree (random Prüfer-like attachment): node `v`
/// attaches to a uniformly random earlier node. Weights uniform in
/// `[1, max_w]`.
///
/// # Panics
///
/// Panics if `n == 0` or `max_w == 0`.
pub fn random_tree<R: Rng + ?Sized>(n: usize, max_w: Weight, rng: &mut R) -> WeightedGraph {
    assert!(n > 0 && max_w > 0);
    let mut b = GraphBuilder::new(n);
    for v in 1..n {
        let parent = rng.gen_range(0..v);
        b.add_edge(parent, v, rng.gen_range(1..=max_w));
    }
    b.build().expect("valid random tree")
}

/// Erdős–Rényi `G(n, p)` conditioned on connectivity: a random spanning tree
/// is laid down first, then every remaining pair is added independently with
/// probability `p`. Weights uniform in `[1, max_w]`.
///
/// This is the main random workload of the benchmarks: connected, with
/// tunable density.
///
/// # Panics
///
/// Panics if `n == 0`, `max_w == 0`, or `p` is not in `[0, 1]`.
pub fn erdos_renyi_connected<R: Rng + ?Sized>(
    n: usize,
    p: f64,
    max_w: Weight,
    rng: &mut R,
) -> WeightedGraph {
    assert!(n > 0 && max_w > 0 && (0.0..=1.0).contains(&p));
    let mut b = GraphBuilder::new(n);
    for v in 1..n {
        let parent = rng.gen_range(0..v);
        b.add_edge(parent, v, rng.gen_range(1..=max_w));
    }
    for u in 0..n {
        for v in (u + 1)..n {
            if rng.gen_bool(p) {
                b.add_edge(u, v, rng.gen_range(1..=max_w));
            }
        }
    }
    b.build().expect("valid G(n,p)")
}

/// A connected graph with *controlled unweighted diameter*: a ring of
/// `hub_count` densely connected clusters. Used for the `D`-sweep experiments
/// (E3): the unweighted diameter grows with `hub_count` while `n` stays
/// fixed.
///
/// Each cluster is a clique of `n / hub_count` nodes; consecutive clusters
/// are joined by a single edge. Weights uniform in `[1, max_w]`.
///
/// # Panics
///
/// Panics if `hub_count == 0`, `n < 2 * hub_count`, or `max_w == 0`.
pub fn cluster_ring<R: Rng + ?Sized>(
    n: usize,
    hub_count: usize,
    max_w: Weight,
    rng: &mut R,
) -> WeightedGraph {
    assert!(hub_count > 0 && n >= 2 * hub_count && max_w > 0);
    let base = n / hub_count;
    let mut b = GraphBuilder::new(n);
    let cluster_of = |i: usize| (i / base).min(hub_count - 1);
    // Cliques within clusters.
    let mut starts = Vec::new();
    let mut i = 0;
    while i < n {
        let c = cluster_of(i);
        let end = if c == hub_count - 1 { n } else { i + base };
        starts.push(i);
        for u in i..end {
            for v in (u + 1)..end {
                b.add_edge(u, v, rng.gen_range(1..=max_w));
            }
        }
        i = end;
    }
    // Ring (or path for 2 clusters) between consecutive cluster heads.
    for c in 0..hub_count {
        let next = (c + 1) % hub_count;
        if hub_count == 2 && c == 1 {
            break;
        }
        if hub_count > 1 {
            b.add_edge(starts[c], starts[next], rng.gen_range(1..=max_w));
        }
    }
    b.build().expect("valid cluster ring")
}

/// Replaces every weight of `g` with a fresh uniform draw from `[1, max_w]`,
/// drawn in [`WeightedGraph::edges`] order on `g`'s own CSR arrays.
pub fn randomize_weights<R: Rng + ?Sized>(
    g: &WeightedGraph,
    max_w: Weight,
    rng: &mut R,
) -> WeightedGraph {
    assert!(max_w > 0);
    g.reweight_edges(|| rng.gen_range(1..=max_w))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn path_shape() {
        let g = path(5, 2);
        assert_eq!((g.n(), g.m()), (5, 4));
        assert!(g.is_connected());
    }

    #[test]
    fn cycle_shape() {
        let g = cycle(6, 1);
        assert_eq!((g.n(), g.m()), (6, 6));
        for v in g.nodes() {
            assert_eq!(g.degree(v), 2);
        }
    }

    #[test]
    fn complete_shape() {
        let g = complete(5, 1);
        assert_eq!(g.m(), 10);
        assert_eq!(metrics::unweighted_diameter(&g), 1);
    }

    #[test]
    fn binary_tree_shape() {
        let g = binary_tree(3, 1);
        assert_eq!(g.n(), 15);
        assert_eq!(g.m(), 14);
        assert!(g.is_connected());
        assert_eq!(metrics::unweighted_diameter(&g), 6);
    }

    #[test]
    fn grid_shape() {
        let g = grid(3, 4, 1);
        assert_eq!(g.n(), 12);
        assert_eq!(g.m(), 3 * 3 + 2 * 4);
        assert_eq!(metrics::unweighted_diameter(&g), 5);
    }

    #[test]
    fn barbell_shape() {
        let g = barbell(4, 3, 1);
        assert!(g.is_connected());
        // Two K4s plus 2 internal bridge nodes.
        assert_eq!(g.n(), 10);
        assert_eq!(metrics::unweighted_diameter(&g), 5);
    }

    #[test]
    fn random_tree_is_tree() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let g = random_tree(40, 10, &mut rng);
        assert_eq!(g.m(), 39);
        assert!(g.is_connected());
        assert!(g.max_weight() <= 10);
    }

    #[test]
    fn er_connected_is_connected() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        for p in [0.0, 0.05, 0.3] {
            let g = erdos_renyi_connected(30, p, 6, &mut rng);
            assert!(g.is_connected(), "p={p}");
            assert!(g.m() >= 29);
        }
    }

    #[test]
    fn cluster_ring_diameter_grows_with_hubs() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let d2 = metrics::unweighted_diameter(&cluster_ring(48, 2, 1, &mut rng));
        let d8 = metrics::unweighted_diameter(&cluster_ring(48, 8, 1, &mut rng));
        assert!(
            d8 > d2,
            "more clusters should stretch the topology: {d2} vs {d8}"
        );
    }

    #[test]
    fn randomize_weights_keeps_topology() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let g = grid(3, 3, 5);
        let h = randomize_weights(&g, 9, &mut rng);
        assert_eq!(g.n(), h.n());
        assert_eq!(g.m(), h.m());
        for e in g.edges() {
            assert!(h.has_edge(e.u, e.v));
        }
        assert!(h.max_weight() <= 9);
    }

    /// Reweighting in place draws the same weights in the same order as
    /// rebuilding the graph from its reweighted edge list.
    #[test]
    fn randomize_weights_matches_edge_list_rebuild() {
        let rebuild = |g: &WeightedGraph, max_w: Weight, rng: &mut ChaCha8Rng| {
            let edges: Vec<_> = g
                .edges()
                .map(|e| (e.u, e.v, rng.gen_range(1..=max_w)))
                .collect();
            WeightedGraph::from_edges(g.n(), edges).unwrap()
        };
        for seed in 0..6u64 {
            let mut topo_rng = ChaCha8Rng::seed_from_u64(100 + seed);
            let graphs = [
                grid(16, 16, 1),
                grid(3, 7, 2),
                cluster_ring(160, 4, 1, &mut topo_rng),
                erdos_renyi_connected(64, 3.0 / 64.0, 1, &mut topo_rng),
                erdos_renyi_connected(30, 0.4, 5, &mut topo_rng),
            ];
            for (k, g) in graphs.iter().enumerate() {
                for max_w in [1, 64, 1 << 40] {
                    let want = rebuild(g, max_w, &mut ChaCha8Rng::seed_from_u64(seed));
                    let got = randomize_weights(g, max_w, &mut ChaCha8Rng::seed_from_u64(seed));
                    assert_eq!(got, want, "seed {seed} graph {k} W {max_w}");
                    assert_eq!(got.max_weight(), want.max_weight());
                }
            }
        }
    }

    #[test]
    fn generators_deterministic_under_seed() {
        let g1 = erdos_renyi_connected(20, 0.2, 5, &mut ChaCha8Rng::seed_from_u64(9));
        let g2 = erdos_renyi_connected(20, 0.2, 5, &mut ChaCha8Rng::seed_from_u64(9));
        assert_eq!(g1, g2);
    }
}
