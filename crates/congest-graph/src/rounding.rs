//! Weight rounding and the approximate bounded-hop distance `d̃^ℓ`
//! (paper Lemma 3.2 / Nanongkai's Theorem 3.3).
//!
//! For an integer `i ≥ 0` the rounded weights are
//! `w_i(e) = ⌈2ℓ·w(e) / (ε·2^i)⌉`, and
//!
//! ```text
//! d̃^ℓ(u,v) = min_i { d_{G,w_i}(u,v)·ε·2^i/(2ℓ)  :  d_{G,w_i}(u,v) ≤ (1+2/ε)ℓ }
//! ```
//!
//! Lemma 3.2 guarantees `d(u,v) ≤ d̃^ℓ(u,v) ≤ (1+ε)·d^ℓ(u,v)`.
//!
//! Each scale's search only needs the labels the filter keeps, so it runs
//! as a limited search ([`SsspWorkspace::dijkstra_mapped_into`] with limit
//! `⌊(1+2/ε)ℓ⌋`): it settles the threshold ball around the source and
//! leaves the rest of the graph untouched. Rounded distances are integers,
//! so `d ≤ ⌊(1+2/ε)ℓ⌋` accepts exactly the labels `d ≤ (1+2/ε)ℓ` does, and
//! `d̃^ℓ` is bit-identical to filtering an unlimited search.
//!
//! A row also stops early. `2·w_{i+1}(e) ≥ w_i(e)` for every edge
//! (`2⌈x/2⌉ ≥ ⌈x⌉`, and in `f64` `2ℓw/(ε·2^{i+1})` is exactly half of
//! `2ℓw/(ε·2^i)`), and `unscale(i+1) = 2·unscale(i)` exactly, so a node's
//! `d_i·unscale(i)` never decreases with `i` and its first accepting scale
//! fixes its entry. No scale after one that accepts every node, or after
//! one whose rounded `W` is 1, can change the row, so
//! [`approx_hop_bounded_into`] stops there. Each scale reads `w_i(w)` from a
//! table of `w_i(1..=min(W, 2m))` instead of dividing on every scanned edge,
//! because that per-edge float work, not the heap, dominates a scale. The
//! distributed Algorithms 1 and 3 still run every scale, because the paper
//! charges their rounds.
//!
//! Approximate distances are real-valued (the scaling by `ε·2^i/(2ℓ)` leaves
//! the integers); we carry them as `f64`, which is exact for the integer
//! numerators involved (all `< 2^53`) and introduces only machine-epsilon
//! noise, far below the `ε ≥ 1/log n` the guarantees are stated for.

use crate::dist::Dist;
use crate::graph::{NodeId, Weight, WeightedGraph};
use crate::workspace::SsspWorkspace;

/// A real-valued approximate distance (`f64::INFINITY` = unreachable).
pub type ApproxDist = f64;

/// Parameters of the rounding scheme: the hop budget `ℓ` and the accuracy
/// `ε` (the paper sets `ε = 1/log n`, Eq. (1)).
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct RoundingScheme {
    /// Hop budget `ℓ ≥ 1`.
    pub ell: usize,
    /// Accuracy parameter `ε ∈ (0, 1]`.
    pub eps: f64,
}

impl RoundingScheme {
    /// Creates a scheme.
    ///
    /// # Panics
    ///
    /// Panics unless `ell ≥ 1` and `0 < eps ≤ 1`.
    pub fn new(ell: usize, eps: f64) -> RoundingScheme {
        assert!(ell >= 1, "hop budget ℓ must be ≥ 1");
        assert!(eps > 0.0 && eps <= 1.0, "ε must be in (0, 1]");
        RoundingScheme { ell, eps }
    }

    /// The paper's choice `ε = 1/log₂ n` (Eq. (1)), clamped to `(0, 1]`.
    pub fn paper_eps(n: usize) -> f64 {
        let lg = (n.max(4) as f64).log2();
        (1.0 / lg).min(1.0)
    }

    /// The rounded weight `w_i(e) = ⌈2ℓ·w(e)/(ε·2^i)⌉` for scale `i`.
    ///
    /// Returned as `u64` (it is a positive integer by construction).
    pub fn rounded_weight(&self, i: u32, w: u64) -> u64 {
        let denom = self.eps * (2f64).powi(i as i32);
        let val = (2.0 * self.ell as f64 * w as f64) / denom;
        (val.ceil() as u64).max(1)
    }

    /// Overwrites `table` with scale `i`'s rounded weights
    /// `w_i(1..=min(W, 2m))` of `g`, for [`RoundingScheme::table_weight`].
    /// The length cap means filling it never costs more divisions than
    /// rounding every directed edge once.
    pub fn fill_weight_table(&self, g: &WeightedGraph, i: u32, table: &mut Vec<Weight>) {
        table.clear();
        let len = weight_table_len(g) as Weight;
        table.extend((1..=len).map(|w| self.rounded_weight(i, w)));
    }

    /// `w_i(w)`, read from a `table` that [`RoundingScheme::fill_weight_table`]
    /// filled for scale `i`; a weight past its end is rounded in place.
    #[inline]
    pub fn table_weight(&self, table: &[Weight], i: u32, w: Weight) -> Weight {
        match table.get(w.wrapping_sub(1) as usize) {
            Some(&wi) => wi,
            None => self.rounded_weight(i, w),
        }
    }

    /// The graph `(G, w_i)` for scale `i`.
    pub fn rounded_graph(&self, g: &WeightedGraph, i: u32) -> WeightedGraph {
        g.map_weights(|w| self.rounded_weight(i, w))
    }

    /// The scale factor mapping a `w_i`-distance back to original units:
    /// `ε·2^i / (2ℓ)`.
    pub fn unscale(&self, i: u32) -> f64 {
        self.eps * (2f64).powi(i as i32) / (2.0 * self.ell as f64)
    }

    /// The distance threshold `(1 + 2/ε)·ℓ` below which a scale is accepted.
    pub fn threshold(&self) -> f64 {
        (1.0 + 2.0 / self.eps) * self.ell as f64
    }

    /// The largest scale index used by Algorithm 1: `⌈log₂(2nW/ε)⌉`.
    pub fn max_scale(&self, n: usize, max_weight: u64) -> u32 {
        let v = 2.0 * n as f64 * max_weight as f64 / self.eps;
        v.log2().ceil().max(0.0) as u32
    }
}

/// Computes `d̃^ℓ_{G,w}(s, ·)` for every node (centralized reference for the
/// distributed Algorithm 1 / Algorithm 3).
///
/// Returns `f64::INFINITY` for nodes whose every scale exceeds the threshold
/// (in particular nodes farther than `ℓ` hops contribute nothing here — the
/// skeleton machinery of Lemma 3.3 covers them).
///
/// # Panics
///
/// Panics if `s >= g.n()`.
///
/// # Examples
///
/// ```
/// use congest_graph::{rounding::{approx_hop_bounded, RoundingScheme}, generators};
/// let g = generators::path(8, 5);
/// let scheme = RoundingScheme::new(8, 0.25);
/// let d = approx_hop_bounded(&g, 0, scheme);
/// // d̃ is a (1+ε)-approximation from above of the true distance 35.
/// assert!(d[7] >= 35.0 && d[7] <= 35.0 * 1.25 + 1e-9);
/// ```
pub fn approx_hop_bounded(g: &WeightedGraph, s: NodeId, scheme: RoundingScheme) -> Vec<ApproxDist> {
    let mut ws = SsspWorkspace::new();
    let mut best = vec![f64::INFINITY; g.n()];
    approx_hop_bounded_into(g, s, scheme, &mut ws, &mut best);
    best
}

/// Workspace-backed version of [`approx_hop_bounded`], for callers that run
/// many sources (the row cache of [`crate::overlay`]): the per-scale
/// Dijkstra runs through `ws` with the rounded weights `w_i` applied
/// on the fly and stops at the threshold, so no intermediate graph is
/// materialized and nothing is allocated after warm-up.
///
/// `out` is overwritten with `d̃^ℓ(s, ·)`.
///
/// Only the scales that can still change the row run. For every edge,
/// `2·w_{i+1}(e) ≥ w_i(e)`, because `2⌈x/2⌉ ≥ ⌈x⌉` and in `f64`
/// `2ℓw/(ε·2^{i+1})` is exactly half of `2ℓw/(ε·2^i)` (the `max(1)`
/// keeps it). So `2·d_{i+1}(s,v) ≥ d_i(s,v)`, and since `unscale(i+1)` is
/// exactly `2·unscale(i)`, `d_i·unscale(i)` never decreases as `i` grows:
/// the first scale that accepts `v` sets its entry for good. The loop
/// therefore stops after a scale that accepts all `n` nodes, or whose
/// rounded `W` is 1 (every later scale is then the same hop search with a
/// doubled unscale). The row is bit-identical to running all `imax + 1`
/// scales.
///
/// Each scale reads `w_i(w)` from a table of `w_i(1..=min(W, 2m))` kept in
/// `ws` ([`RoundingScheme::fill_weight_table`]), so a relaxation indexes
/// instead of dividing.
///
/// # Panics
///
/// Panics if `s >= g.n()` or `out.len() != g.n()`.
pub fn approx_hop_bounded_into(
    g: &WeightedGraph,
    s: NodeId,
    scheme: RoundingScheme,
    ws: &mut SsspWorkspace,
    out: &mut [ApproxDist],
) {
    let n = g.n();
    assert!(s < n, "source {s} out of range");
    assert_eq!(out.len(), n, "output buffer must cover every node");
    out.fill(f64::INFINITY);
    // Rounded distances are integers, so this accepts exactly `d ≤ (1+2/ε)ℓ`.
    let limit = Dist::from(scheme.threshold().floor() as u64);
    let max_w = g.max_weight();
    let imax = scheme.max_scale(n, max_w);
    // Moved out so the search below can borrow `ws`; moving a `Vec` in and
    // out never allocates.
    let mut table = std::mem::take(&mut ws.weight_table);
    for i in 0..=imax {
        scheme.fill_weight_table(g, i, &mut table);
        let rounded = |w: Weight| scheme.table_weight(&table, i, w);
        // Rounded weights are applied during relaxation, and labels above
        // the threshold are never settled: every finite label is accepted.
        let di = ws.dijkstra_mapped_into(g, s, limit, rounded);
        let unscale = scheme.unscale(i);
        let mut accepted = 0;
        for (v, d) in di.iter().enumerate() {
            if let Some(d) = d.finite() {
                accepted += 1;
                let approx = d as f64 * unscale;
                if approx < out[v] {
                    out[v] = approx;
                }
            }
        }
        if accepted == n || scheme.rounded_weight(i, max_w) == 1 {
            break;
        }
    }
    ws.weight_table = table;
}

/// Length of a table filled by [`RoundingScheme::fill_weight_table`]:
/// `min(W, 2m)`.
pub(crate) fn weight_table_len(g: &WeightedGraph) -> usize {
    usize::try_from(g.max_weight()).map_or(2 * g.m(), |w| w.min(2 * g.m()))
}

/// Converts an exact [`Dist`] to the `f64` domain of approximate distances.
pub fn dist_to_f64(d: Dist) -> ApproxDist {
    d.as_f64()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::shortest_path::{dijkstra, hop_bounded};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn rounded_weight_positive_and_monotone_in_scale() {
        let s = RoundingScheme::new(10, 0.5);
        let w0 = s.rounded_weight(0, 7);
        let w3 = s.rounded_weight(3, 7);
        assert!(
            w0 >= w3,
            "larger scale means coarser (smaller) rounded weights"
        );
        assert!(w3 >= 1);
    }

    #[test]
    fn unscale_inverts_rounding_up_to_eps() {
        let s = RoundingScheme::new(16, 0.25);
        for i in 0..8 {
            for w in [1u64, 3, 17, 1000] {
                let approx = s.rounded_weight(i, w) as f64 * s.unscale(i);
                assert!(approx >= w as f64 - 1e-9, "rounding never underestimates");
            }
        }
    }

    /// Lemma 3.2: `d ≤ d̃^ℓ ≤ (1+ε)·d^ℓ` on random weighted graphs.
    #[test]
    fn lemma_3_2_sandwich() {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        for trial in 0..8 {
            let g = generators::erdos_renyi_connected(18, 0.18, 20, &mut rng);
            let eps = 0.3;
            let ell = 6;
            let scheme = RoundingScheme::new(ell, eps);
            for s in [0usize, 7] {
                let exact = dijkstra(&g, s);
                let hop = hop_bounded(&g, s, ell);
                let approx = approx_hop_bounded(&g, s, scheme);
                for v in g.nodes() {
                    let d = exact[v].as_f64();
                    let dl = hop[v].as_f64();
                    let a = approx[v];
                    assert!(a >= d - 1e-6, "trial {trial} s={s} v={v}: d̃={a} < d={d}");
                    if dl.is_finite() {
                        assert!(
                            a <= (1.0 + eps) * dl + 1e-6,
                            "trial {trial} s={s} v={v}: d̃={a} > (1+ε)d^ℓ={}",
                            (1.0 + eps) * dl
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn far_nodes_may_be_infinite_but_close_ones_are_finite() {
        let g = generators::path(20, 1);
        let scheme = RoundingScheme::new(3, 0.5);
        let a = approx_hop_bounded(&g, 0, scheme);
        assert!(a[1].is_finite());
        assert!(a[3].is_finite());
        // Node 19 is 19 hops away; with ℓ=3 and threshold (1+2/ε)ℓ = 15 rounded
        // hops it is unreachable at every accepted scale... except coarse scales
        // can still admit it; the guarantee is only the sandwich, so just check
        // the lower bound holds.
        if a[19].is_finite() {
            assert!(a[19] >= 19.0 - 1e-6);
        }
    }

    /// The workspace-backed path (on-the-fly weight mapping) must agree with
    /// the seed strategy of materializing `(G, w_i)` per scale.
    #[test]
    fn into_variant_matches_materialized_rounding() {
        let mut rng = ChaCha8Rng::seed_from_u64(12);
        let g = generators::erdos_renyi_connected(16, 0.2, 15, &mut rng);
        let scheme = RoundingScheme::new(5, 0.5);
        let threshold = scheme.threshold();
        let imax = scheme.max_scale(g.n(), g.max_weight());
        for s in [0usize, 8, 15] {
            let mut seed_best = vec![f64::INFINITY; g.n()];
            for i in 0..=imax {
                let gi = scheme.rounded_graph(&g, i);
                let di = dijkstra(&gi, s);
                for v in g.nodes() {
                    if let Some(d) = di[v].finite() {
                        if (d as f64) <= threshold {
                            seed_best[v] = seed_best[v].min(d as f64 * scheme.unscale(i));
                        }
                    }
                }
            }
            assert_eq!(approx_hop_bounded(&g, s, scheme), seed_best, "source {s}");
        }
    }

    #[test]
    fn paper_eps_shrinks_with_n() {
        assert!(RoundingScheme::paper_eps(1 << 20) < RoundingScheme::paper_eps(16));
        assert!(RoundingScheme::paper_eps(4) <= 1.0);
    }

    #[test]
    fn max_scale_covers_heaviest_path() {
        let s = RoundingScheme::new(4, 0.5);
        let imax = s.max_scale(100, 1000);
        // At the max scale, even n·W fits under the threshold after rounding.
        let total = 100u64 * 1000;
        let rounded = s.rounded_weight(imax, total);
        assert!((rounded as f64) <= s.threshold() + 2.0 * s.ell as f64);
    }
}
