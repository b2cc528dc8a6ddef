//! Skeleton overlays and the approximate distance `d̃_{G,w,S}`
//! (paper Lemma 3.3 / Nanongkai's Theorem 4.2).
//!
//! Given a skeleton `S ⊆ V`:
//!
//! * `(G'_S, w'_S)` is the complete graph on `S` with
//!   `w'({u,v}) = d̃^ℓ(u,v)` — the rounded bounded-hop distances of
//!   [`crate::rounding`];
//! * `N^k_S(v)` are the `k` nodes of `S` nearest to `v` *on `G'_S`*;
//! * `(G''_S, w''_S)` is the **k-shortcut graph**: pairs within each other's
//!   `k`-neighborhood get their exact `G'_S` distance, everything else keeps
//!   `w'`. Its hop diameter is `< 4|S|/k` (Nanongkai's Theorem 3.10);
//! * the approximate distance from `s ∈ S` to any `v ∈ V` is
//!   `d̃_{G,w,S}(s,v) = min_{u∈S} { d̃^{4|S|/k}_{G'',w''}(s,u) + d̃^ℓ(u,v) }`.
//!
//! With `ℓ = n·log n / r` and `S` sampled at rate `r/n`, Lemma 3.3 gives
//! `d ≤ d̃_{G,w,S} ≤ (1+ε)²·d` with overwhelming probability.
//!
//! Everything here is the centralized *reference*; the distributed versions
//! live in the `congest-algos` crate and are tested against these.
//!
//! The row `d̃^ℓ(u, ·)` depends only on `(G, u, ℓ, ε)`, not on the skeleton
//! it serves, so both the overlay `G'_S` and the bounded-hop table of
//! [`SkeletonDistances`] read it from a [`RowCache`]: a caller evaluating
//! many skeletons on one graph (Theorem 1.1 evaluates `n` sets whose
//! members recur) keeps one cache and computes each source's row once.
//! [`Overlay::from_skeleton`] and [`SkeletonDistances::compute`] build a
//! private cache for their one skeleton.

#![allow(clippy::needless_range_loop)] // index loops mirror the paper's matrix notation
use crate::graph::{NodeId, WeightedGraph};
use crate::rounding::{approx_hop_bounded_into, ApproxDist, RoundingScheme};
use crate::workspace::SsspWorkspace;
use rand::Rng;

/// Samples a skeleton: each node joins independently with probability
/// `rate = r/n` (Section 3's construction of the sets `S_i`).
pub fn sample_skeleton<R: Rng + ?Sized>(n: usize, rate: f64, rng: &mut R) -> Vec<NodeId> {
    assert!(
        (0.0..=1.0).contains(&rate),
        "sampling rate must be in [0,1]"
    );
    (0..n).filter(|_| rng.gen_bool(rate)).collect()
}

/// The bounded-hop rows `d̃^ℓ(u, ·)` of one graph and rounding scheme, each
/// computed at most once, the first time `u` is asked for.
///
/// Rows live in one flat buffer whose capacity is reserved up front for the
/// caller's worst case, so filling a row never copies earlier ones; pages
/// of the reservation that no row fills are never touched. The SSSP
/// workspace behind the rows is pre-sized too: after
/// [`RowCache::new`], filling rows and reading them back makes no heap
/// operation (pinned by `tests/overlay_alloc.rs`). A cache borrows its
/// graph, so it cannot outlive the graph it describes.
#[derive(Debug)]
pub struct RowCache<'g> {
    g: &'g WeightedGraph,
    scheme: RoundingScheme,
    /// `slot[u]` is the index of `u`'s row in `rows`, or [`RowCache::EMPTY`].
    slot: Vec<u32>,
    /// Filled rows, `n` entries each, in fill order.
    rows: Vec<ApproxDist>,
    ws: SsspWorkspace,
}

impl<'g> RowCache<'g> {
    /// Marks a source whose row is not filled yet.
    const EMPTY: u32 = u32::MAX;

    /// Creates an empty cache with room for `max_rows` rows (clamped to
    /// `n`, the most distinct sources there are).
    pub fn new(g: &'g WeightedGraph, scheme: RoundingScheme, max_rows: usize) -> RowCache<'g> {
        let n = g.n();
        let mut ws = SsspWorkspace::new();
        ws.reserve_row_search(g);
        RowCache {
            g,
            scheme,
            slot: vec![Self::EMPTY; n],
            rows: Vec::with_capacity(max_rows.min(n) * n),
            ws,
        }
    }

    /// Number of rows filled so far.
    pub fn len(&self) -> usize {
        self.rows.len() / self.g.n().max(1)
    }

    /// `true` until a row has been filled.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Fills the row of every source in `sources` that is not cached yet.
    ///
    /// # Panics
    ///
    /// Panics if a source is out of range.
    pub fn fill(&mut self, sources: &[NodeId]) {
        let n = self.g.n();
        for &u in sources {
            if self.slot[u] != Self::EMPTY {
                continue;
            }
            let start = self.rows.len();
            self.slot[u] = u32::try_from(start / n).expect("row index fits u32");
            self.rows.resize(start + n, f64::INFINITY);
            approx_hop_bounded_into(
                self.g,
                u,
                self.scheme,
                &mut self.ws,
                &mut self.rows[start..],
            );
        }
    }

    /// The cached row `d̃^ℓ(u, ·)`.
    ///
    /// # Panics
    ///
    /// Panics if `u`'s row has not been [filled](RowCache::fill).
    pub fn row(&self, u: NodeId) -> &[ApproxDist] {
        let slot = self.slot[u];
        assert_ne!(slot, Self::EMPTY, "row of source {u} was never filled");
        let n = self.g.n();
        &self.rows[slot as usize * n..][..n]
    }
}

/// A complete weighted graph on a skeleton `S`, with real-valued weights.
///
/// Represents both `(G'_S, w'_S)` and `(G''_S, w''_S)` of Lemma 3.3.
#[derive(Clone, Debug)]
pub struct Overlay {
    nodes: Vec<NodeId>,
    /// Flattened symmetric `|S| × |S|` weight matrix; `w[i*s+j]` is the edge
    /// weight between skeleton indices `i` and `j` (`0.0` on the diagonal).
    w: Vec<ApproxDist>,
}

impl Overlay {
    /// Builds `(G'_S, w'_S)`: for every `u ∈ S`, runs the bounded-hop
    /// approximation from `u` and records `w'({u,v}) = d̃^ℓ(u,v)`.
    ///
    /// # Panics
    ///
    /// Panics if `skeleton` contains an out-of-range or duplicate node.
    pub fn from_skeleton(
        g: &WeightedGraph,
        skeleton: &[NodeId],
        scheme: RoundingScheme,
    ) -> Overlay {
        Overlay::from_rows(&mut RowCache::new(g, scheme, skeleton.len()), skeleton)
    }

    /// Builds `(G'_S, w'_S)` from the rows of `cache`, filling the rows of
    /// skeleton members it does not hold yet.
    ///
    /// # Panics
    ///
    /// Panics if `skeleton` contains an out-of-range or duplicate node.
    pub fn from_rows(cache: &mut RowCache<'_>, skeleton: &[NodeId]) -> Overlay {
        let mut nodes = skeleton.to_vec();
        nodes.sort_unstable();
        let before = nodes.len();
        nodes.dedup();
        assert_eq!(nodes.len(), before, "skeleton contains duplicates");
        if let Some(&max) = nodes.last() {
            assert!(max < cache.g.n(), "skeleton node {max} out of range");
        }
        cache.fill(&nodes);
        let s = nodes.len();
        let mut w = vec![0.0; s * s];
        for (i, &u) in nodes.iter().enumerate() {
            let du = cache.row(u);
            for (j, &v) in nodes.iter().enumerate().skip(i + 1) {
                // Keep the matrix symmetric: d̃ is symmetric analytically,
                // min() guards against float noise.
                let best = cache.row(v)[u].min(du[v]);
                w[i * s + j] = best;
                w[j * s + i] = best;
            }
        }
        Overlay { nodes, w }
    }

    /// Builds an overlay directly from a weight matrix (used by tests and by
    /// the distributed implementation to compare states).
    ///
    /// # Panics
    ///
    /// Panics if `w.len() != nodes.len()²` or the matrix is asymmetric.
    pub fn from_matrix(nodes: Vec<NodeId>, w: Vec<ApproxDist>) -> Overlay {
        let s = nodes.len();
        assert_eq!(w.len(), s * s, "matrix size mismatch");
        for i in 0..s {
            for j in 0..s {
                assert!(
                    (w[i * s + j] - w[j * s + i]).abs() < 1e-9
                        || (w[i * s + j].is_infinite() && w[j * s + i].is_infinite()),
                    "matrix must be symmetric"
                );
            }
        }
        Overlay { nodes, w }
    }

    /// The skeleton nodes (sorted original graph ids).
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// Number of skeleton nodes `|S|`.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` if the skeleton is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The overlay index of an original node, if it is in the skeleton.
    pub fn index_of(&self, v: NodeId) -> Option<usize> {
        self.nodes.binary_search(&v).ok()
    }

    /// The edge weight between skeleton indices `i` and `j`.
    pub fn weight(&self, i: usize, j: usize) -> ApproxDist {
        self.w[i * self.len() + j]
    }

    /// Dijkstra on the overlay from skeleton index `src`; returns distances
    /// indexed by skeleton index.
    ///
    /// # Panics
    ///
    /// Panics if `src >= self.len()`.
    pub fn dijkstra(&self, src: usize) -> Vec<ApproxDist> {
        let s = self.len();
        assert!(src < s);
        let mut dist = vec![f64::INFINITY; s];
        let mut done = vec![false; s];
        dist[src] = 0.0;
        for _ in 0..s {
            let mut best = None;
            for i in 0..s {
                if !done[i] && dist[i].is_finite() {
                    match best {
                        None => best = Some(i),
                        Some(b) if dist[i] < dist[b] => best = Some(i),
                        _ => {}
                    }
                }
            }
            let Some(v) = best else { break };
            done[v] = true;
            for u in 0..s {
                if u != v {
                    let nd = dist[v] + self.weight(v, u);
                    if nd < dist[u] {
                        dist[u] = nd;
                    }
                }
            }
        }
        dist
    }

    /// The `k` shortest edges incident to skeleton index `v`, as
    /// `(other endpoint, weight)` pairs, ties broken by index.
    ///
    /// This is exactly what each skeleton node broadcasts in the paper's
    /// Algorithm 4, so the distributed implementation can reproduce the
    /// shortcut graph bit-for-bit.
    ///
    /// # Panics
    ///
    /// Panics if `v >= self.len()`.
    pub fn k_shortest_edges(&self, v: usize, k: usize) -> Vec<(usize, ApproxDist)> {
        let mut edges = Vec::new();
        self.k_shortest_into(v, k, &mut edges);
        edges
    }

    /// [`k_shortest_edges`](Overlay::k_shortest_edges) into a reusable
    /// buffer (cleared first); no allocation once `row` has grown.
    fn k_shortest_into(&self, v: usize, k: usize, row: &mut Vec<(usize, ApproxDist)>) {
        row.clear();
        row.extend(
            (0..self.len())
                .filter(|&u| u != v)
                .map(|u| (u, self.weight(v, u)))
                .filter(|&(_, w)| w.is_finite()),
        );
        row.sort_unstable_by(|a, b| a.1.partial_cmp(&b.1).unwrap().then(a.0.cmp(&b.0)));
        row.truncate(k);
    }

    /// Builds the *broadcast subgraph* `H` — the union over all skeleton
    /// nodes of their `k` shortest incident edges (what is globally known
    /// after the Algorithm 4 broadcast; Nanongkai's Observation 3.12) —
    /// into `scratch`'s flat CSR arrays.
    ///
    /// Repeated queries against one long-lived [`OverlayScratch`] are
    /// allocation-free once its buffers are warm (pinned by
    /// `tests/overlay_alloc.rs`); the nested-`Vec` convenience wrapper
    /// [`broadcast_subgraph`](Overlay::broadcast_subgraph) costs `s + 1`
    /// fresh vectors per call.
    pub fn broadcast_subgraph_into(&self, k: usize, scratch: &mut OverlayScratch) {
        let s = self.len();
        // Select every node's k shortest edges, normalized to (lo, hi, w);
        // sorting + dedup replaces the HashSet the seed version hashed every
        // candidate pair through.
        scratch.picked.clear();
        for v in 0..s {
            self.k_shortest_into(v, k, &mut scratch.row);
            for &(u, w) in &scratch.row {
                scratch.picked.push((v.min(u), v.max(u), w));
            }
        }
        scratch.picked.sort_unstable_by_key(|a| (a.0, a.1));
        scratch
            .picked
            .dedup_by(|next, prev| (prev.0, prev.1) == (next.0, next.1));

        // Two-pass CSR fill, offsets doubling as write cursors (same scheme
        // as GraphBuilder::build).
        scratch.offsets.clear();
        scratch.offsets.resize(s + 1, 0);
        for &(a, b, _) in &scratch.picked {
            scratch.offsets[a + 1] += 1;
            scratch.offsets[b + 1] += 1;
        }
        for i in 1..=s {
            scratch.offsets[i] += scratch.offsets[i - 1];
        }
        let total = scratch.offsets[s];
        scratch.to.clear();
        scratch.to.resize(total, 0);
        scratch.wt.clear();
        scratch.wt.resize(total, 0.0);
        for &(a, b, w) in &scratch.picked {
            let ca = scratch.offsets[a];
            scratch.to[ca] = b;
            scratch.wt[ca] = w;
            scratch.offsets[a] += 1;
            let cb = scratch.offsets[b];
            scratch.to[cb] = a;
            scratch.wt[cb] = w;
            scratch.offsets[b] += 1;
        }
        for i in (1..=s).rev() {
            scratch.offsets[i] = scratch.offsets[i - 1];
        }
        scratch.offsets[0] = 0;
    }

    /// The broadcast subgraph as a nested adjacency list over skeleton
    /// indices — a convenience wrapper over
    /// [`broadcast_subgraph_into`](Overlay::broadcast_subgraph_into) for
    /// callers that want an owned structure. Rows list lower-indexed
    /// neighbors first, each side ascending.
    pub fn broadcast_subgraph(&self, k: usize) -> Vec<Vec<(usize, ApproxDist)>> {
        let mut scratch = OverlayScratch::new();
        self.broadcast_subgraph_into(k, &mut scratch);
        (0..self.len())
            .map(|v| scratch.neighbors(v).collect())
            .collect()
    }

    /// `N^k_S(v)`: the `k` skeleton indices (excluding `v` itself) with least
    /// shortest-path distance from `v` **on the broadcast subgraph** (ties
    /// broken by index), written into `out`.
    ///
    /// Allocation-free once `scratch` and `out` are warm.
    ///
    /// # Panics
    ///
    /// Panics if `v >= self.len()`.
    pub fn k_nearest_into(
        &self,
        v: usize,
        k: usize,
        scratch: &mut OverlayScratch,
        out: &mut Vec<usize>,
    ) {
        assert!(v < self.len());
        self.broadcast_subgraph_into(k, scratch);
        scratch.dijkstra_from(v);
        out.clear();
        out.extend((0..self.len()).filter(|&i| i != v));
        let d = &scratch.dist;
        out.sort_unstable_by(|&a, &b| d[a].partial_cmp(&d[b]).unwrap().then(a.cmp(&b)));
        out.truncate(k);
    }

    /// Owning wrapper over [`k_nearest_into`](Overlay::k_nearest_into).
    ///
    /// # Panics
    ///
    /// Panics if `v >= self.len()`.
    pub fn k_nearest(&self, v: usize, k: usize) -> Vec<usize> {
        let mut scratch = OverlayScratch::new();
        let mut out = Vec::new();
        self.k_nearest_into(v, k, &mut scratch, &mut out);
        out
    }

    /// Builds the k-shortcut graph `(G''_S, w''_S)`: for pairs `{u,v}` with
    /// `u ∈ N^k(v)` or `v ∈ N^k(u)`, the weight becomes
    /// `min(w'({u,v}), d_H(u,v))` where `H` is the broadcast subgraph;
    /// other pairs keep `w'`.
    ///
    /// This is the construction each node can perform locally after
    /// Algorithm 4's broadcast. The invariants Lemma 3.3 needs —
    /// `d_{G'} ≤ w'' ≤ w'` and a hop diameter `< 4|S|/k` — are verified by
    /// the tests in this module.
    pub fn shortcut(&self, k: usize) -> Overlay {
        let s = self.len();
        let mut w = self.w.clone();
        let mut scratch = OverlayScratch::new();
        self.broadcast_subgraph_into(k, &mut scratch);
        // Per source: H-distances, then its k-neighborhood under them. The
        // weight updates only read `self` and H, so applying them per source
        // (instead of materializing an s × s distance matrix first) changes
        // nothing about the result.
        let mut order: Vec<usize> = Vec::with_capacity(s.saturating_sub(1));
        for v in 0..s {
            scratch.dijkstra_from(v);
            order.clear();
            order.extend((0..s).filter(|&i| i != v));
            let d = &scratch.dist;
            order.sort_unstable_by(|&a, &b| d[a].partial_cmp(&d[b]).unwrap().then(a.cmp(&b)));
            order.truncate(k);
            for &u in &order {
                let d = scratch.dist[u].min(self.weight(v, u));
                if d < w[v * s + u] {
                    w[v * s + u] = d;
                    w[u * s + v] = d;
                }
            }
        }
        Overlay {
            nodes: self.nodes.clone(),
            w,
        }
    }

    /// The hop diameter of the overlay (max over pairs of the minimum edge
    /// count among weight-shortest paths). `usize::MAX` if disconnected.
    ///
    /// Used to verify Nanongkai's Theorem 3.10: the k-shortcut graph has hop
    /// diameter `< 4|S|/k`.
    pub fn hop_diameter(&self) -> usize {
        let s = self.len();
        let mut best = 0;
        for src in 0..s {
            // Dijkstra with (dist, hops) lexicographic keys.
            let mut dist = vec![(f64::INFINITY, usize::MAX); s];
            let mut done = vec![false; s];
            dist[src] = (0.0, 0);
            for _ in 0..s {
                let mut pick = None;
                for i in 0..s {
                    if !done[i] && dist[i].0.is_finite() {
                        match pick {
                            None => pick = Some(i),
                            Some(p) if (dist[i].0, dist[i].1) < (dist[p].0, dist[p].1) => {
                                pick = Some(i)
                            }
                            _ => {}
                        }
                    }
                }
                let Some(v) = pick else { break };
                done[v] = true;
                for u in 0..s {
                    if u != v {
                        let cand = (dist[v].0 + self.weight(v, u), dist[v].1 + 1);
                        if cand.0 < dist[u].0 || (cand.0 == dist[u].0 && cand.1 < dist[u].1) {
                            dist[u] = cand;
                        }
                    }
                }
            }
            for i in 0..s {
                if dist[i].1 == usize::MAX {
                    return usize::MAX;
                }
                best = best.max(dist[i].1);
            }
        }
        best
    }

    /// The rounded bounded-hop approximation `d̃^{ℓ'}` **on the overlay
    /// itself** from skeleton index `src` (Lemma 3.2 applied to `(G'', w'')`,
    /// as used in the definition of `d̃_{G,w,S}`).
    ///
    /// Weights here are real; the rounding `⌈2ℓ'w/(ε2^i)⌉` still produces
    /// integers and the same sandwich `d ≤ d̃^{ℓ'} ≤ (1+ε)d^{ℓ'}` holds.
    ///
    /// The scale loop stops as [`approx_hop_bounded_into`] does, with the
    /// same proof: `2·⌈x/2⌉ ≥ ⌈x⌉` and exact halving in `f64` give
    /// `2·d_{i+1} ≥ d_i`, and the unscale doubles exactly, so a node's
    /// value never decreases after its first accepting scale. After a
    /// scale that accepts all `|S|` nodes, or whose rounded heaviest
    /// finite weight is 1, no later scale changes the result.
    pub fn approx_hop_bounded(&self, src: usize, ell: usize, eps: f64) -> Vec<ApproxDist> {
        let s = self.len();
        assert!(src < s);
        assert!(ell >= 1 && eps > 0.0 && eps <= 1.0);
        let max_w = self
            .w
            .iter()
            .copied()
            .filter(|x| x.is_finite())
            .fold(1.0f64, f64::max);
        let imax = ((2.0 * s as f64 * max_w / eps).log2().ceil()).max(0.0) as u32;
        let threshold = (1.0 + 2.0 / eps) * ell as f64;
        let mut best = vec![f64::INFINITY; s];
        best[src] = 0.0;
        let mut dist = vec![f64::INFINITY; s];
        let mut done = vec![false; s];
        for i in 0..=imax {
            let denom = eps * (2f64).powi(i as i32);
            let unscale = denom / (2.0 * ell as f64);
            let round = |w: f64| ((2.0 * ell as f64 * w) / denom).ceil().max(1.0);
            // Dijkstra under rounded weights ⌈2ℓw/denom⌉.
            dist.fill(f64::INFINITY);
            done.fill(false);
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
                    if u != v && self.weight(v, u).is_finite() {
                        let nd = dist[v] + round(self.weight(v, u));
                        if nd < dist[u] {
                            dist[u] = nd;
                        }
                    }
                }
            }
            let mut accepted = 0;
            for v in 0..s {
                if dist[v] <= threshold {
                    accepted += 1;
                    let approx = dist[v] * unscale;
                    if approx < best[v] {
                        best[v] = approx;
                    }
                }
            }
            if accepted == s || round(max_w) == 1.0 {
                break;
            }
        }
        best
    }
}

/// Reusable flat scratch for broadcast-subgraph queries.
///
/// The seed implementation of [`Overlay::broadcast_subgraph`] allocated a
/// fresh `Vec<Vec<(usize, ApproxDist)>>` (one inner vector per skeleton
/// node) plus a `HashSet` of seen pairs on every call — per-query garbage
/// that dominated repeated skeleton queries. This scratch holds the
/// subgraph as three flat CSR arrays plus the selection and Dijkstra
/// buffers, so a warm holder runs
/// [`broadcast_subgraph_into`](Overlay::broadcast_subgraph_into) /
/// [`k_nearest_into`](Overlay::k_nearest_into) with **zero heap
/// operations** (pinned by `tests/overlay_alloc.rs`).
#[derive(Clone, Debug, Default)]
pub struct OverlayScratch {
    /// One node's k-shortest-edge selection row.
    row: Vec<(usize, ApproxDist)>,
    /// Selected edges as `(lo, hi, w)`, sorted and deduplicated.
    picked: Vec<(usize, usize, ApproxDist)>,
    /// CSR row starts over skeleton indices (`len s + 1`).
    offsets: Vec<usize>,
    /// Flat CSR neighbor indices.
    to: Vec<usize>,
    /// Flat CSR edge weights, parallel to `to`.
    wt: Vec<ApproxDist>,
    /// Dijkstra distance labels of the latest
    /// [`dijkstra_from`](OverlayScratch::dijkstra_from) run.
    dist: Vec<ApproxDist>,
    /// Dijkstra settled flags.
    done: Vec<bool>,
}

impl OverlayScratch {
    /// Creates an empty scratch; buffers grow on first use.
    pub fn new() -> OverlayScratch {
        OverlayScratch::default()
    }

    /// Number of skeleton nodes in the currently built subgraph.
    pub fn len(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// `true` until a subgraph has been built into this scratch.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Undirected edge count of the currently built subgraph.
    pub fn edge_count(&self) -> usize {
        self.to.len() / 2
    }

    /// `(neighbor, weight)` pairs of skeleton index `v` in the built
    /// subgraph: lower-indexed neighbors first, each side ascending.
    pub fn neighbors(&self, v: usize) -> impl Iterator<Item = (usize, ApproxDist)> + '_ {
        let range = self.offsets[v]..self.offsets[v + 1];
        self.to[range.clone()]
            .iter()
            .copied()
            .zip(self.wt[range].iter().copied())
    }

    /// Shortest-path distances on the built subgraph from `src`, into the
    /// reusable label buffers; read them back via
    /// [`distances`](OverlayScratch::distances).
    fn dijkstra_from(&mut self, src: usize) {
        let s = self.len();
        self.dist.clear();
        self.dist.resize(s, f64::INFINITY);
        self.done.clear();
        self.done.resize(s, false);
        self.dist[src] = 0.0;
        for _ in 0..s {
            let mut best = None;
            for i in 0..s {
                if !self.done[i] && self.dist[i].is_finite() {
                    match best {
                        None => best = Some(i),
                        Some(b) if self.dist[i] < self.dist[b] => best = Some(i),
                        _ => {}
                    }
                }
            }
            let Some(v) = best else { break };
            self.done[v] = true;
            for e in self.offsets[v]..self.offsets[v + 1] {
                let u = self.to[e];
                let nd = self.dist[v] + self.wt[e];
                if nd < self.dist[u] {
                    self.dist[u] = nd;
                }
            }
        }
    }

    /// Distance labels of the latest Dijkstra run, indexed by skeleton
    /// index.
    pub fn distances(&self) -> &[ApproxDist] {
        &self.dist
    }
}

/// All the per-skeleton state needed to evaluate `d̃_{G,w,S}` and the
/// approximate eccentricity `ẽ` — the content of `|init_i⟩` and `|data_i(s)⟩`
/// in Lemma 3.5, computed centrally.
#[derive(Clone, Debug)]
pub struct SkeletonDistances {
    /// The skeleton `S` (sorted).
    pub skeleton: Vec<NodeId>,
    /// `bh[j][v] = d̃^ℓ(S[j], v)` for every node `v` of the original graph.
    pub bounded_hop: Vec<Vec<ApproxDist>>,
    /// The k-shortcut overlay `(G''_S, w''_S)`.
    pub shortcut: Overlay,
    /// The hop budget used on the overlay: `⌈4|S|/k⌉`.
    pub overlay_ell: usize,
    /// The accuracy parameter `ε`.
    pub eps: f64,
}

impl SkeletonDistances {
    /// Precomputes everything for a skeleton: bounded-hop distances from each
    /// skeleton node, the overlay `G'`, and the k-shortcut graph `G''`.
    ///
    /// # Panics
    ///
    /// Panics if the skeleton is empty or `k == 0`.
    pub fn compute(
        g: &WeightedGraph,
        skeleton: &[NodeId],
        scheme: RoundingScheme,
        k: usize,
    ) -> SkeletonDistances {
        SkeletonDistances::from_rows(&mut RowCache::new(g, scheme, skeleton.len()), skeleton, k)
    }

    /// [`compute`](SkeletonDistances::compute) from the rows of `cache`,
    /// filling the rows of skeleton members it does not hold yet. Callers
    /// that evaluate many skeletons on one graph share one cache, so a
    /// source that recurs across skeletons costs one row.
    ///
    /// # Panics
    ///
    /// Panics if the skeleton is empty or `k == 0`.
    pub fn from_rows(cache: &mut RowCache<'_>, skeleton: &[NodeId], k: usize) -> SkeletonDistances {
        assert!(!skeleton.is_empty(), "skeleton must be non-empty");
        assert!(k >= 1, "k must be ≥ 1");
        let overlay = Overlay::from_rows(cache, skeleton);
        let bounded_hop = overlay
            .nodes()
            .iter()
            .map(|&u| cache.row(u).to_vec())
            .collect();
        let shortcut = overlay.shortcut(k);
        let overlay_ell = ((4 * overlay.len()) as f64 / k as f64).ceil().max(1.0) as usize;
        SkeletonDistances {
            skeleton: overlay.nodes().to_vec(),
            bounded_hop,
            shortcut,
            overlay_ell,
            eps: cache.scheme.eps,
        }
    }

    /// `d̃_{G,w,S}(s, ·)` for a skeleton member `s` (Lemma 3.3):
    /// `min_{u∈S} { d̃^{4|S|/k}_{G'',w''}(s,u) + d̃^ℓ(u,v) }`.
    ///
    /// # Panics
    ///
    /// Panics if `s` is not in the skeleton.
    pub fn approx_distances_from(&self, s: NodeId) -> Vec<ApproxDist> {
        let si = self
            .shortcut
            .index_of(s)
            .expect("source must be a skeleton node");
        let over = self
            .shortcut
            .approx_hop_bounded(si, self.overlay_ell, self.eps);
        let n = self.bounded_hop[0].len();
        let mut out = vec![f64::INFINITY; n];
        for (j, bh) in self.bounded_hop.iter().enumerate() {
            if over[j].is_finite() {
                for v in 0..n {
                    let cand = over[j] + bh[v];
                    if cand < out[v] {
                        out[v] = cand;
                    }
                }
            }
        }
        out[s] = 0.0;
        out
    }

    /// The approximate eccentricity `ẽ_{G,w,S}(s) = max_v d̃_{G,w,S}(s, v)`.
    ///
    /// # Panics
    ///
    /// Panics if `s` is not in the skeleton.
    pub fn approx_eccentricity(&self, s: NodeId) -> ApproxDist {
        self.approx_distances_from(s)
            .into_iter()
            .fold(0.0f64, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::shortest_path::dijkstra;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn scheme_for(n: usize, r: f64) -> RoundingScheme {
        // ℓ = n log n / r as in Lemma 3.3, eps modest for tests.
        let ell = ((n as f64) * (n as f64).log2() / r).ceil() as usize;
        RoundingScheme::new(ell.max(1), 0.25)
    }

    #[test]
    fn overlay_weights_dominate_true_distance() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let g = generators::erdos_renyi_connected(24, 0.15, 9, &mut rng);
        let skeleton = sample_skeleton(g.n(), 0.4, &mut rng);
        if skeleton.len() < 2 {
            return;
        }
        let ov = Overlay::from_skeleton(&g, &skeleton, scheme_for(g.n(), 8.0));
        for i in 0..ov.len() {
            let exact = dijkstra(&g, ov.nodes()[i]);
            for j in 0..ov.len() {
                if i != j {
                    assert!(
                        ov.weight(i, j) >= exact[ov.nodes()[j]].as_f64() - 1e-6,
                        "w' must be ≥ true distance"
                    );
                }
            }
        }
    }

    #[test]
    fn shortcut_weights_never_increase_and_stay_above_distance() {
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let g = generators::erdos_renyi_connected(20, 0.2, 5, &mut rng);
        let skeleton: Vec<_> = (0..g.n()).step_by(2).collect();
        let ov = Overlay::from_skeleton(&g, &skeleton, scheme_for(g.n(), 10.0));
        let sc = ov.shortcut(3);
        for i in 0..ov.len() {
            let exact = dijkstra(&g, ov.nodes()[i]);
            for j in 0..ov.len() {
                if i != j {
                    assert!(sc.weight(i, j) <= ov.weight(i, j) + 1e-9);
                    assert!(sc.weight(i, j) >= exact[ov.nodes()[j]].as_f64() - 1e-6);
                }
            }
        }
    }

    /// Nanongkai Theorem 3.10: hop diameter of the k-shortcut graph < 4|S|/k.
    #[test]
    fn theorem_3_10_shortcut_hop_diameter() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        for trial in 0..5 {
            let g = generators::erdos_renyi_connected(30, 0.12, 7, &mut rng);
            let skeleton: Vec<_> = (0..g.n()).step_by(2).collect();
            // Use a large ℓ so the overlay is fully finite.
            let scheme = RoundingScheme::new(g.n(), 0.25);
            let ov = Overlay::from_skeleton(&g, &skeleton, scheme);
            for k in [2usize, 4, 8] {
                let sc = ov.shortcut(k);
                let bound = (4 * ov.len()) as f64 / k as f64;
                let h = sc.hop_diameter();
                assert!(
                    (h as f64) < bound,
                    "trial {trial} k={k}: hop diameter {h} ≥ 4|S|/k = {bound}"
                );
            }
        }
    }

    #[test]
    fn k_nearest_sorted_by_distance() {
        let nodes = vec![0, 1, 2, 3];
        #[rustfmt::skip]
        let w = vec![
            0.0, 1.0, 5.0, 9.0,
            1.0, 0.0, 2.0, 9.0,
            5.0, 2.0, 0.0, 9.0,
            9.0, 9.0, 9.0, 0.0,
        ];
        let ov = Overlay::from_matrix(nodes, w);
        // From 0: dist 1 to 1, 3 (via 1) to 2, 9 to 3.
        assert_eq!(ov.k_nearest(0, 2), vec![1, 2]);
        assert_eq!(ov.dijkstra(0)[2], 3.0);
    }

    /// Lemma 3.3: with ℓ = n log n / r and a rate-r/n skeleton,
    /// d ≤ d̃_{G,w,S} ≤ (1+ε)² d for all skeleton sources.
    #[test]
    fn lemma_3_3_sandwich() {
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        for trial in 0..4 {
            let n = 26;
            let g = generators::erdos_renyi_connected(n, 0.15, 12, &mut rng);
            let r = 8.0;
            let skeleton = sample_skeleton(n, r / n as f64, &mut rng);
            if skeleton.is_empty() {
                continue;
            }
            let scheme = scheme_for(n, r);
            let sd = SkeletonDistances::compute(&g, &skeleton, scheme, 3);
            let eps = scheme.eps;
            for &s in &sd.skeleton {
                let exact = dijkstra(&g, s);
                let approx = sd.approx_distances_from(s);
                for v in g.nodes() {
                    let d = exact[v].as_f64();
                    assert!(
                        approx[v] >= d - 1e-6,
                        "trial {trial}: d̃({s},{v})={} < d={d}",
                        approx[v]
                    );
                    assert!(
                        approx[v] <= (1.0 + eps) * (1.0 + eps) * d + 1e-6,
                        "trial {trial}: d̃({s},{v})={} > (1+ε)²d={}",
                        approx[v],
                        (1.0 + eps) * (1.0 + eps) * d
                    );
                }
                // Eccentricity inherits the sandwich.
                let e = crate::metrics::eccentricity(&g, s).as_f64();
                let ea = sd.approx_eccentricity(s);
                assert!(ea >= e - 1e-6 && ea <= (1.0 + eps).powi(2) * e + 1e-6);
            }
        }
    }

    #[test]
    fn sample_skeleton_rate_extremes() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        assert!(sample_skeleton(50, 0.0, &mut rng).is_empty());
        assert_eq!(sample_skeleton(50, 1.0, &mut rng).len(), 50);
    }

    #[test]
    #[should_panic(expected = "duplicates")]
    fn duplicate_skeleton_rejected() {
        let g = generators::path(4, 1);
        let _ = Overlay::from_skeleton(&g, &[1, 1], RoundingScheme::new(2, 0.5));
    }
}
