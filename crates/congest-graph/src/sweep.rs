//! Pruned diameter/radius computation by eccentricity-bound sweeps.
//!
//! The seed implementation of [`crate::metrics`] answered every
//! diameter/radius/witness query with `n` full shortest-path sweeps. This
//! module implements the SumSweep/ExactSumSweep strategy instead: maintain
//! per-node eccentricity *bounds*, sweep from adaptively chosen sources, and
//! stop as soon as the bounds certify the answer — typically after a handful
//! of sweeps on the Erdős–Rényi workloads the experiments use (E9 charts the
//! sweep counts).
//!
//! # The bound-pruning invariant
//!
//! For an undirected graph, one sweep from `s` with eccentricity
//! `ecc(s) = max_v d(s, v)` tightens every node's bounds:
//!
//! ```text
//! lo[v] = max(lo[v], d(s, v), ecc(s) − d(s, v))   ≤ ecc(v)
//! hi[v] = min(hi[v], ecc(s) + d(s, v))            ≥ ecc(v)
//! ```
//!
//! (both sides of the triangle inequality through `s`). The diameter is
//! settled once every unswept node has `hi[v] ≤ D_lo`, the best eccentricity
//! seen among swept sources; the radius once every unswept node has
//! `lo[v] ≥ R_hi`, the smallest swept eccentricity. Swept sources know their
//! eccentricity exactly, so in the worst case (e.g. a cycle, where all
//! eccentricities are equal and no bound can separate nodes) the loop
//! degrades gracefully into the brute-force `n`-sweep computation — never
//! more.
//!
//! # Determinism contract
//!
//! Source selection is fully deterministic: first the maximum-degree node
//! (smallest index on ties), then alternately the unswept node of maximum
//! upper bound (diameter step) or minimum lower bound (radius step),
//! tie-broken by the accumulated distance sum and then the smallest index.
//! Every strategy runs its sweeps one after another on the calling thread,
//! so equal inputs give bit-identical results, witnesses and sweep counts
//! (the pruned path is pinned against brute force in `tests/kernels.rs`).

use crate::dist::Dist;
use crate::graph::{NodeId, WeightedGraph};
use crate::workspace::SsspWorkspace;
use std::cmp::Reverse;

/// Which edge metric a sweep measures distances under.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum EdgeMetric {
    /// True edge weights (Dijkstra sweeps) — the paper's `d_{G,w}`.
    Weighted,
    /// Every edge counts 1 (BFS sweeps) — the paper's `d_{G,w*}`.
    Unweighted,
}

/// The four extremal quantities of one graph, from one shared computation.
///
/// Collapses what used to be four independent `n`-sweep passes
/// (`diameter`, `radius`, `diameter_witness`, `radius_witness`) into a
/// single result, plus the number of sweeps it took to certify it.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct SweepResult {
    /// `D = max_v ecc(v)`; [`Dist::INFINITY`] when disconnected.
    pub diameter: Dist,
    /// `R = min_v ecc(v)`; [`Dist::INFINITY`] when disconnected.
    pub radius: Dist,
    /// A node with `ecc(v) = D` (`v*` of Section 3.1).
    pub diameter_witness: NodeId,
    /// A node with `ecc(v) = R` (a center).
    pub radius_witness: NodeId,
    /// Shortest-path sweeps performed before both answers were certified.
    pub sweeps: usize,
    /// Number of nodes, for reporting sweep fractions.
    pub n: usize,
}

impl SweepResult {
    /// `true` if every node can reach every other.
    pub fn is_connected(&self) -> bool {
        self.diameter.is_finite() || self.n <= 1
    }
}

/// Runs one sweep under the requested metric into the workspace.
fn sweep_dist<'a>(
    ws: &'a mut SsspWorkspace,
    g: &WeightedGraph,
    s: NodeId,
    metric: EdgeMetric,
) -> &'a [Dist] {
    match metric {
        EdgeMetric::Weighted => ws.dijkstra_into(g, s),
        EdgeMetric::Unweighted => ws.bfs_into(g, s),
    }
}

/// The result every strategy returns for trivial (`n ≤ 1`) graphs.
fn trivial(n: usize) -> SweepResult {
    SweepResult {
        diameter: Dist::ZERO,
        radius: Dist::ZERO,
        diameter_witness: 0,
        radius_witness: 0,
        sweeps: 0,
        n,
    }
}

/// The result for a graph discovered to be disconnected. Witness indices
/// match the brute-force fold (all eccentricities are infinite, so the
/// diameter fold keeps the last node and the radius fold the first).
fn disconnected(n: usize, sweeps: usize) -> SweepResult {
    SweepResult {
        diameter: Dist::INFINITY,
        radius: Dist::INFINITY,
        diameter_witness: n - 1,
        radius_witness: 0,
        sweeps,
        n,
    }
}

/// Weighted diameter/radius/witnesses by pruned sweeps.
///
/// # Examples
///
/// ```
/// use congest_graph::{generators, sweep, Dist};
/// let g = generators::path(6, 2);
/// let r = sweep::extremes(&g);
/// assert_eq!(r.diameter, Dist::from(10u64));
/// assert_eq!(r.radius, Dist::from(6u64));
/// assert!(r.sweeps <= g.n());
/// ```
pub fn extremes(g: &WeightedGraph) -> SweepResult {
    extremes_with(g, EdgeMetric::Weighted)
}

/// Unweighted (topology) diameter/radius/witnesses by pruned BFS sweeps.
pub fn extremes_unweighted(g: &WeightedGraph) -> SweepResult {
    extremes_with(g, EdgeMetric::Unweighted)
}

/// Pruned extremes under an explicit [`EdgeMetric`].
///
/// Allocates a fresh [`SweepWorkspace`] per call; loops that query many
/// graphs (or the same graph repeatedly) should hold a workspace and call
/// [`SweepWorkspace::extremes_into`] instead.
pub fn extremes_with(g: &WeightedGraph, metric: EdgeMetric) -> SweepResult {
    SweepWorkspace::new().extremes_into(g, metric)
}

/// Reusable scratch for pruned-sweep extremes queries.
///
/// Owns an [`SsspWorkspace`] plus the four per-node bound tables the sweep
/// maintains, so a long-lived holder (a benchmark loop, a batch lane)
/// computes diameter/radius/witnesses with **zero steady-state heap
/// operations** once the buffers have grown to the largest graph seen
/// (pinned by `tests/kernel_alloc.rs`). Results are
/// bit-identical to [`extremes_with`].
///
/// # Examples
///
/// ```
/// use congest_graph::{generators, sweep, SweepWorkspace};
/// let mut ws = SweepWorkspace::new();
/// let g = generators::path(6, 2);
/// let r = ws.extremes_into(&g, sweep::EdgeMetric::Weighted);
/// assert_eq!(r, sweep::extremes(&g));
/// ```
#[derive(Clone, Debug, Default)]
pub struct SweepWorkspace {
    ws: SsspWorkspace,
    lo: Vec<u64>,
    hi: Vec<u64>,
    tot: Vec<u64>,
    swept: Vec<bool>,
}

impl SweepWorkspace {
    /// Creates an empty workspace; buffers grow on first use.
    pub fn new() -> SweepWorkspace {
        SweepWorkspace::default()
    }

    /// The inner single-source workspace, for plain SSSP/eccentricity
    /// queries that want to share this workspace's scratch.
    pub fn sssp_mut(&mut self) -> &mut SsspWorkspace {
        &mut self.ws
    }

    /// Resets the per-node bound tables for an `n`-node graph.
    fn reset(&mut self, n: usize) {
        self.lo.clear();
        self.lo.resize(n, 0u64);
        self.hi.clear();
        self.hi.resize(n, u64::MAX);
        self.tot.clear();
        self.tot.resize(n, 0u64);
        self.swept.clear();
        self.swept.resize(n, false);
    }

    /// Pruned extremes under `metric`, reusing this workspace's buffers.
    pub fn extremes_into(&mut self, g: &WeightedGraph, metric: EdgeMetric) -> SweepResult {
        let n = g.n();
        if n <= 1 {
            return trivial(n);
        }
        self.reset(n);
        let (lo, hi, tot, swept) = (&mut self.lo, &mut self.hi, &mut self.tot, &mut self.swept);
        let mut sweeps = 0usize;
        // Best certified values among swept sources.
        let mut d_lo = 0u64;
        let mut d_arg = 0usize;
        let mut r_hi = u64::MAX;
        let mut r_arg = 0usize;

        // First source: maximum degree, smallest index on ties — a hub
        // settles the radius side quickly and its sweep seeds tight bounds
        // everywhere. (The `else` arm keeps this total even if the
        // trivial-graph guard above ever moves; an empty node set has
        // nothing to sweep.)
        let Some(mut source) = (0..n).max_by_key(|&v| (g.degree(v), Reverse(v))) else {
            return trivial(n);
        };
        let mut diameter_turn = true;
        loop {
            let dist = sweep_dist(&mut self.ws, g, source, metric);
            let mut ecc = 0u64;
            for &d in dist {
                match d.finite() {
                    Some(x) => ecc = ecc.max(x),
                    None => return disconnected(n, sweeps + 1),
                }
            }
            sweeps += 1;
            swept[source] = true;
            for v in 0..n {
                let dv = dist[v].expect_finite();
                tot[v] = tot[v].saturating_add(dv);
                lo[v] = lo[v].max(dv).max(ecc - dv);
                hi[v] = hi[v].min(ecc.saturating_add(dv));
            }
            if ecc > d_lo || sweeps == 1 {
                d_lo = ecc;
                d_arg = source;
            }
            if ecc < r_hi {
                r_hi = ecc;
                r_arg = source;
            }

            // Certification: swept nodes are exact, so only unswept ones can
            // still beat the best swept eccentricities.
            let mut diameter_settled = true;
            let mut radius_settled = true;
            for v in 0..n {
                if swept[v] {
                    continue;
                }
                if hi[v] > d_lo {
                    diameter_settled = false;
                }
                if lo[v] < r_hi {
                    radius_settled = false;
                }
            }
            if diameter_settled && radius_settled {
                break;
            }

            // Next source: alternate between the max-upper-bound node (a far
            // node whose sweep can raise `D_lo` and whose large eccentricity
            // raises `lo` around it) and the min-lower-bound node (a central
            // node whose small eccentricity shrinks `hi` around it). Both
            // picks tighten both objectives — a peripheral sweep certifies
            // radius bounds near itself, a central sweep certifies diameter
            // bounds near itself — so the alternation continues even after
            // one objective settles: on near-regular graphs (all
            // eccentricities within 1–2 of each other) certification is a
            // covering process, and feeding it only peripheral sources
            // degrades to Θ(n) sweeps.
            let pick_diameter = diameter_turn;
            diameter_turn = !diameter_turn;
            let next = if pick_diameter {
                (0..n)
                    .filter(|&v| !swept[v])
                    .max_by_key(|&v| (hi[v], tot[v], Reverse(v)))
            } else {
                (0..n)
                    .filter(|&v| !swept[v])
                    .min_by_key(|&v| (lo[v], tot[v], v))
            };
            match next {
                Some(v) => source = v,
                None => break, // everything swept: bounds are all exact
            }
        }

        SweepResult {
            diameter: Dist::new(d_lo),
            radius: Dist::new(r_hi),
            diameter_witness: d_arg,
            radius_witness: r_arg,
            sweeps,
            n,
        }
    }
}

/// All `n` eccentricities under `metric`, sequentially, reusing one
/// workspace across sources (no per-source allocation after warm-up).
pub fn all_eccentricities(g: &WeightedGraph, metric: EdgeMetric) -> Vec<Dist> {
    let mut ws = SsspWorkspace::new();
    let mut out = Vec::with_capacity(g.n());
    for v in 0..g.n() {
        let ecc = sweep_dist(&mut ws, g, v, metric)
            .iter()
            .copied()
            .max()
            .unwrap_or(Dist::ZERO);
        out.push(ecc);
    }
    out
}

/// Folds an eccentricity table into a [`SweepResult`] with the seed
/// tie-breaks: the diameter keeps the *last* maximum (matching
/// `Iterator::max_by_key`) and the radius the *first* minimum (matching
/// `Iterator::min_by_key`).
fn fold_eccentricities(eccs: &[Dist]) -> SweepResult {
    let n = eccs.len();
    if n == 0 {
        return trivial(0);
    }
    let (d_arg, diameter) = eccs
        .iter()
        .copied()
        .enumerate()
        .max_by_key(|&(_, e)| e)
        .expect("non-empty");
    let (r_arg, radius) = eccs
        .iter()
        .copied()
        .enumerate()
        .min_by_key(|&(_, e)| e)
        .expect("non-empty");
    SweepResult {
        diameter,
        radius,
        diameter_witness: d_arg,
        radius_witness: r_arg,
        sweeps: n,
        n,
    }
}

/// Exhaustive `n`-sweep extremes — the reference the pruned path is tested
/// against, and the fallback strategy E9 benchmarks as "brute".
pub fn brute_force_extremes(g: &WeightedGraph, metric: EdgeMetric) -> SweepResult {
    fold_eccentricities(&all_eccentricities(g, metric))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::WeightedGraph;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn assert_matches_brute(g: &WeightedGraph, metric: EdgeMetric) {
        let pruned = extremes_with(g, metric);
        let brute = brute_force_extremes(g, metric);
        assert_eq!(pruned.diameter, brute.diameter, "diameter on {g}");
        assert_eq!(pruned.radius, brute.radius, "radius on {g}");
        assert!(pruned.sweeps <= g.n().max(1), "sweep budget on {g}");
        if g.n() > 0 {
            let eccs = all_eccentricities(g, metric);
            assert_eq!(eccs[pruned.diameter_witness], pruned.diameter);
            assert_eq!(eccs[pruned.radius_witness], pruned.radius);
        }
    }

    #[test]
    fn named_families_match_brute_force() {
        let graphs = [
            generators::path(6, 2),
            generators::star(9, 4),
            generators::cycle(8, 1),
            generators::cycle(9, 3),
            generators::complete(7, 5),
            generators::grid(4, 5, 2),
            generators::barbell(5, 3, 2),
            generators::binary_tree(4, 3),
        ];
        for g in &graphs {
            assert_matches_brute(g, EdgeMetric::Weighted);
            assert_matches_brute(g, EdgeMetric::Unweighted);
        }
    }

    #[test]
    fn random_graphs_match_brute_force() {
        let mut rng = ChaCha8Rng::seed_from_u64(31);
        for trial in 0..15 {
            let n = 12 + 3 * trial;
            let g = generators::erdos_renyi_connected(n, 0.12, 9, &mut rng);
            assert_matches_brute(&g, EdgeMetric::Weighted);
            assert_matches_brute(&g, EdgeMetric::Unweighted);
        }
    }

    #[test]
    fn pruning_beats_brute_on_star_like_graphs() {
        let g = generators::star(257, 4);
        let r = extremes(&g);
        assert_eq!(r.diameter, Dist::from(8u64));
        assert_eq!(r.radius, Dist::from(4u64));
        assert_eq!(r.radius_witness, 0, "the hub is the unique center");
        assert!(
            r.sweeps <= 4,
            "a star settles in a few sweeps, took {}",
            r.sweeps
        );
    }

    #[test]
    fn disconnected_graphs_report_infinity_with_seed_witnesses() {
        let g = WeightedGraph::from_edges(5, [(0, 1, 2), (2, 3, 7)]).unwrap();
        for metric in [EdgeMetric::Weighted, EdgeMetric::Unweighted] {
            let r = extremes_with(&g, metric);
            let b = brute_force_extremes(&g, metric);
            assert_eq!(r.diameter, Dist::INFINITY);
            assert_eq!(r.radius, Dist::INFINITY);
            assert_eq!(r.diameter_witness, b.diameter_witness);
            assert_eq!(r.radius_witness, b.radius_witness);
            assert_eq!(r.sweeps, 1, "disconnection is detected on sweep one");
            assert!(!r.is_connected());
        }
    }

    /// `n = 0`: every entry point returns the zero-sweep trivial result
    /// instead of panicking on an empty node set.
    #[test]
    fn empty_graph_is_trivial() {
        let empty = WeightedGraph::from_edges(0, []).unwrap();
        for metric in [EdgeMetric::Weighted, EdgeMetric::Unweighted] {
            let r = extremes_with(&empty, metric);
            assert_eq!(r, trivial(0));
            assert_eq!(r.sweeps, 0, "no SSSP sweep runs on an empty graph");
            assert_eq!(brute_force_extremes(&empty, metric), trivial(0));
        }
        assert!(all_eccentricities(&empty, EdgeMetric::Weighted).is_empty());
    }

    /// `n = 1`: a lone node has diameter = radius = 0, is connected, and
    /// is its own (only possible) witness.
    #[test]
    fn single_node_graph_is_trivial() {
        let one = WeightedGraph::from_edges(1, []).unwrap();
        for metric in [EdgeMetric::Weighted, EdgeMetric::Unweighted] {
            let r = extremes_with(&one, metric);
            assert_eq!(r.diameter, Dist::ZERO);
            assert_eq!(r.radius, Dist::ZERO);
            assert_eq!(r.diameter_witness, 0);
            assert_eq!(r.radius_witness, 0);
            assert!(r.is_connected());
            let b = brute_force_extremes(&one, metric);
            assert_eq!((r.diameter, r.radius), (b.diameter, b.radius));
        }
    }

    /// `n = 2` with one edge: the smallest graph the pruned sweep actually
    /// sweeps. Diameter and radius both equal the edge weight (1 hop
    /// unweighted), and pruned/brute-force agree.
    #[test]
    fn single_edge_graph() {
        let g = WeightedGraph::from_edges(2, [(0, 1, 7)]).unwrap();

        let w = extremes(&g);
        assert_eq!(w.diameter, Dist::from(7u64));
        assert_eq!(w.radius, Dist::from(7u64));
        assert!(w.is_connected());
        assert!(w.sweeps >= 1);
        let wb = brute_force_extremes(&g, EdgeMetric::Weighted);
        assert_eq!((w.diameter, w.radius), (wb.diameter, wb.radius));

        let u = extremes_unweighted(&g);
        assert_eq!(u.diameter, Dist::from(1u64));
        assert_eq!(u.radius, Dist::from(1u64));
        let ub = brute_force_extremes(&g, EdgeMetric::Unweighted);
        assert_eq!((u.diameter, u.radius), (ub.diameter, ub.radius));
    }

    /// One workspace reused across graphs of different sizes reproduces the
    /// per-call results bit-for-bit (stale bounds from a larger graph must
    /// never leak into a smaller one).
    #[test]
    fn reused_workspace_matches_fresh_calls() {
        let mut ws = SweepWorkspace::new();
        let graphs = [
            generators::grid(5, 6, 3),
            generators::path(4, 7),
            generators::star(33, 2),
            generators::cycle(9, 3),
            generators::path(4, 7),
        ];
        for g in &graphs {
            for metric in [EdgeMetric::Weighted, EdgeMetric::Unweighted] {
                assert_eq!(ws.extremes_into(g, metric), extremes_with(g, metric));
            }
        }
        let disconnected = WeightedGraph::from_edges(5, [(0, 1, 2), (2, 3, 7)]).unwrap();
        assert_eq!(
            ws.extremes_into(&disconnected, EdgeMetric::Weighted),
            extremes_with(&disconnected, EdgeMetric::Weighted)
        );
    }

    #[test]
    fn unweighted_metric_ignores_weights() {
        let g = generators::path(5, 1000);
        let r = extremes_unweighted(&g);
        assert_eq!(r.diameter, Dist::from(4u64));
        assert_eq!(r.radius, Dist::from(2u64));
    }
}
