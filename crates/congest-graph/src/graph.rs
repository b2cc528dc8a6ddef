//! The weighted-graph type used throughout the workspace.
//!
//! [`WeightedGraph`] is an undirected graph with positive integer edge
//! weights (`w : E → ℕ⁺`, as in the paper's preliminaries), stored in
//! compressed-sparse-row form for cache-friendly traversal. Graphs are built
//! through [`GraphBuilder`], which validates weights and node indices, or
//! streamed edge by edge through [`crate::generators::stream::GraphWriter`].

use std::fmt;

use serde::{Deserialize, Serialize};

/// Index of a node in a graph. Nodes of an `n`-node graph are `0..n`.
pub type NodeId = usize;

/// A positive integer edge weight (`w : E → ℕ⁺`).
pub type Weight = u64;

/// An undirected edge `{u, v}` with weight `w`, as fed to [`GraphBuilder`].
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub struct Edge {
    /// One endpoint.
    pub u: NodeId,
    /// The other endpoint.
    pub v: NodeId,
    /// The positive weight.
    pub w: Weight,
}

impl Edge {
    /// Creates an edge `{u, v}` of weight `w`.
    ///
    /// # Examples
    ///
    /// ```
    /// use congest_graph::Edge;
    /// let e = Edge::new(0, 1, 5);
    /// assert_eq!((e.u, e.v, e.w), (0, 1, 5));
    /// ```
    pub fn new(u: NodeId, v: NodeId, w: Weight) -> Edge {
        Edge { u, v, w }
    }

    /// The endpoints in sorted order, for canonical comparison of
    /// undirected edges.
    pub fn key(&self) -> (NodeId, NodeId) {
        (self.u.min(self.v), self.u.max(self.v))
    }
}

/// Errors produced while building a graph.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum BuildGraphError {
    /// An edge referenced a node `>= n`.
    NodeOutOfRange {
        /// The offending node index.
        node: NodeId,
        /// The number of nodes in the graph.
        n: usize,
    },
    /// An edge had weight `0`; weights must be positive.
    ZeroWeight {
        /// The offending edge endpoints.
        edge: (NodeId, NodeId),
    },
    /// A self-loop `{v, v}` was supplied.
    SelfLoop {
        /// The node with the loop.
        node: NodeId,
    },
}

impl fmt::Display for BuildGraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildGraphError::NodeOutOfRange { node, n } => {
                write!(f, "edge references node {node} but the graph has {n} nodes")
            }
            BuildGraphError::ZeroWeight { edge } => {
                write!(
                    f,
                    "edge {{{}, {}}} has weight 0; weights must be positive",
                    edge.0, edge.1
                )
            }
            BuildGraphError::SelfLoop { node } => {
                write!(f, "self-loop at node {node} is not allowed")
            }
        }
    }
}

impl std::error::Error for BuildGraphError {}

/// Incrementally builds a [`WeightedGraph`].
///
/// Parallel edges are merged, keeping the minimum weight (the convention used
/// by the paper's contraction argument in Lemma 4.3).
///
/// # Examples
///
/// ```
/// use congest_graph::GraphBuilder;
///
/// let mut b = GraphBuilder::new(3);
/// b.add_edge(0, 1, 2).add_edge(1, 2, 3);
/// let g = b.build()?;
/// assert_eq!(g.n(), 3);
/// assert_eq!(g.m(), 2);
/// # Ok::<(), congest_graph::BuildGraphError>(())
/// ```
#[derive(Clone, Debug)]
pub struct GraphBuilder {
    n: usize,
    edges: Vec<Edge>,
}

impl GraphBuilder {
    /// Starts a builder for a graph on `n` nodes (`0..n`).
    pub fn new(n: usize) -> GraphBuilder {
        GraphBuilder {
            n,
            edges: Vec::new(),
        }
    }

    /// Adds the undirected edge `{u, v}` of weight `w`.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId, w: Weight) -> &mut GraphBuilder {
        self.edges.push(Edge::new(u, v, w));
        self
    }

    /// Adds an unweighted (weight-1) edge.
    pub fn add_unit_edge(&mut self, u: NodeId, v: NodeId) -> &mut GraphBuilder {
        self.add_edge(u, v, 1)
    }

    /// Adds every edge from an iterator.
    pub fn extend_edges<I: IntoIterator<Item = Edge>>(&mut self, iter: I) -> &mut GraphBuilder {
        self.edges.extend(iter);
        self
    }

    /// Number of edges added so far (before merging parallels).
    pub fn pending_edges(&self) -> usize {
        self.edges.len()
    }

    /// Validates and produces the graph.
    ///
    /// # Errors
    ///
    /// Returns an error if any edge references a node `>= n`, has weight 0,
    /// or is a self-loop.
    pub fn build(&self) -> Result<WeightedGraph, BuildGraphError> {
        for e in &self.edges {
            if e.u >= self.n {
                return Err(BuildGraphError::NodeOutOfRange {
                    node: e.u,
                    n: self.n,
                });
            }
            if e.v >= self.n {
                return Err(BuildGraphError::NodeOutOfRange {
                    node: e.v,
                    n: self.n,
                });
            }
            if e.w == 0 {
                return Err(BuildGraphError::ZeroWeight { edge: (e.u, e.v) });
            }
            if e.u == e.v {
                return Err(BuildGraphError::SelfLoop { node: e.u });
            }
        }
        // Merge parallel edges, keeping the minimum weight.
        let mut canon: Vec<Edge> = self
            .edges
            .iter()
            .map(|e| Edge::new(e.u.min(e.v), e.u.max(e.v), e.w))
            .collect();
        canon.sort_by_key(|e| (e.u, e.v, e.w));
        canon.dedup_by(|next, prev| prev.u == next.u && prev.v == next.v);

        let mut offsets = vec![0usize; self.n + 1];
        for e in &canon {
            offsets[e.u + 1] += 1;
            offsets[e.v + 1] += 1;
        }
        for i in 1..=self.n {
            offsets[i] += offsets[i - 1];
        }
        let total = offsets[self.n];
        let mut targets = vec![0 as NodeId; total];
        let mut weights = vec![0 as Weight; total];
        // `offsets[v]` doubles as the write cursor of row `v`; the final
        // shift restores the row starts, so no second cursor array exists.
        for e in &canon {
            targets[offsets[e.u]] = e.v;
            weights[offsets[e.u]] = e.w;
            offsets[e.u] += 1;
            targets[offsets[e.v]] = e.u;
            weights[offsets[e.v]] = e.w;
            offsets[e.v] += 1;
        }
        for i in (1..=self.n).rev() {
            offsets[i] = offsets[i - 1];
        }
        offsets[0] = 0;
        Ok(WeightedGraph::from_owned_csr(offsets, targets, weights))
    }
}

/// An undirected graph with positive integer weights, in CSR form.
///
/// This is the `(G, w)` of the paper: `G = (V, E)`, `w : E → ℕ⁺`. The
/// *unweighted* view (`w* ≡ 1`) used for the network's hop structure is
/// available via [`WeightedGraph::unweighted_view`].
///
/// Equality is content equality: the same CSR arrays (`max_weight` is
/// derived from the weights, so it never decides a comparison).
///
/// # Examples
///
/// ```
/// use congest_graph::{generators, Dist};
///
/// let g = generators::path(4, 10); // 0-1-2-3, each edge weight 10
/// assert_eq!(g.n(), 4);
/// assert_eq!(g.m(), 3);
/// let d = congest_graph::shortest_path::dijkstra(&g, 0);
/// assert_eq!(d[3], Dist::from(30u64));
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct WeightedGraph {
    /// Row offsets (`n + 1` entries; row `v` is `offsets[v]..offsets[v + 1]`).
    offsets: Vec<usize>,
    /// Neighbor of each directed CSR entry (each undirected edge twice).
    targets: Vec<NodeId>,
    /// Weight of each directed CSR entry, parallel to `targets`.
    weights: Vec<Weight>,
    /// Cached `max_e w(e)` so the Dial/heap dispatch is `O(1)` per search.
    max_weight: Weight,
}

impl WeightedGraph {
    /// Wraps already-canonical owned CSR arrays (crate-internal: callers
    /// guarantee rows are sorted, mirrored, and deduplicated).
    pub(crate) fn from_owned_csr(
        offsets: Vec<usize>,
        targets: Vec<NodeId>,
        weights: Vec<Weight>,
    ) -> WeightedGraph {
        debug_assert_eq!(targets.len(), weights.len());
        debug_assert_eq!(*offsets.last().expect("offsets non-empty"), targets.len());
        let max_weight = weights.iter().copied().max().unwrap_or(1);
        WeightedGraph {
            offsets,
            targets,
            weights,
            max_weight,
        }
    }

    /// Builds a graph directly from an edge list.
    ///
    /// Convenience wrapper over [`GraphBuilder`].
    ///
    /// # Errors
    ///
    /// Same as [`GraphBuilder::build`].
    pub fn from_edges(
        n: usize,
        edges: impl IntoIterator<Item = (NodeId, NodeId, Weight)>,
    ) -> Result<WeightedGraph, BuildGraphError> {
        let mut b = GraphBuilder::new(n);
        for (u, v, w) in edges {
            b.add_edge(u, v, w);
        }
        b.build()
    }

    /// Builds an unweighted graph (all weights 1) from an edge list.
    ///
    /// # Errors
    ///
    /// Same as [`GraphBuilder::build`].
    pub fn from_unit_edges(
        n: usize,
        edges: impl IntoIterator<Item = (NodeId, NodeId)>,
    ) -> Result<WeightedGraph, BuildGraphError> {
        WeightedGraph::from_edges(n, edges.into_iter().map(|(u, v)| (u, v, 1)))
    }

    /// Number of nodes.
    #[inline]
    pub fn n(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of (undirected, merged) edges.
    #[inline]
    pub fn m(&self) -> usize {
        self.targets.len() / 2
    }

    /// Iterator over all nodes `0..n`.
    pub fn nodes(&self) -> std::ops::Range<NodeId> {
        0..self.n()
    }

    /// The canonical edge list: deduplicated, `u < v`, sorted by `(u, v)`.
    ///
    /// Streamed straight out of the CSR rows (each edge is kept twice in
    /// CSR form; this yields the `u < v` copy), so no edge list is stored.
    pub fn edges(&self) -> impl Iterator<Item = Edge> + '_ {
        self.nodes().flat_map(move |u| {
            self.neighbors(u)
                .filter(move |&(v, _)| v > u)
                .map(move |(v, w)| Edge::new(u, v, w))
        })
    }

    /// Neighbors of `v` with edge weights.
    ///
    /// # Panics
    ///
    /// Panics if `v >= n`.
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> impl Iterator<Item = (NodeId, Weight)> + '_ {
        let range = self.offsets[v]..self.offsets[v + 1];
        self.targets[range.clone()]
            .iter()
            .copied()
            .zip(self.weights[range].iter().copied())
    }

    /// Calls `f(u, w)` for every neighbor of `v`, in ascending order.
    ///
    /// The hot-kernel form of [`WeightedGraph::neighbors`]: a direct slice
    /// loop over the row, which every per-edge inner loop in
    /// [`crate::SsspWorkspace`] goes through.
    ///
    /// # Panics
    ///
    /// Panics if `v >= n`.
    #[inline]
    pub fn for_each_neighbor(&self, v: NodeId, f: &mut impl FnMut(NodeId, Weight)) {
        let (lo, hi) = (self.offsets[v], self.offsets[v + 1]);
        let targets = &self.targets[lo..hi];
        let weights = &self.weights[lo..hi];
        for i in 0..targets.len() {
            f(targets[i], weights[i]);
        }
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        self.offsets[v + 1] - self.offsets[v]
    }

    /// The weight of edge `{u, v}`, or `None` if absent.
    pub fn edge_weight(&self, u: NodeId, v: NodeId) -> Option<Weight> {
        self.neighbors(u).find(|&(t, _)| t == v).map(|(_, w)| w)
    }

    /// `true` if `{u, v}` is an edge.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.edge_weight(u, v).is_some()
    }

    /// Maximum edge weight `W = max_e w(e)` (1 for edgeless graphs).
    ///
    /// The paper's Appendix A assumes every node knows `W`; it is cached at
    /// construction so per-search kernel dispatch stays `O(1)`.
    #[inline]
    pub fn max_weight(&self) -> Weight {
        self.max_weight
    }

    /// The same topology with all weights replaced by 1 (`w*` in the paper).
    pub fn unweighted_view(&self) -> WeightedGraph {
        WeightedGraph::from_owned_csr(
            self.offsets.clone(),
            self.targets.clone(),
            vec![1; self.targets.len()],
        )
    }

    /// Applies `f` to every edge weight, producing a new graph with the same
    /// topology. Used for the paper's weight rounding `w_i` (Lemma 3.2).
    ///
    /// `f` is applied to both stored directions of each undirected edge, so
    /// it must be a pure function of the weight.
    ///
    /// # Panics
    ///
    /// Panics if `f` produces a zero weight.
    pub fn map_weights(&self, mut f: impl FnMut(Weight) -> Weight) -> WeightedGraph {
        let weights: Vec<Weight> = self
            .weights
            .iter()
            .map(|&w| {
                let w = f(w);
                assert!(w > 0, "map_weights produced a zero weight");
                w
            })
            .collect();
        WeightedGraph::from_owned_csr(self.offsets.clone(), self.targets.clone(), weights)
    }

    /// The same topology with each undirected edge's weight replaced by the
    /// next `draw()`, called once per edge in [`edges`](WeightedGraph::edges)
    /// order and written to both CSR slots of the edge. Reuses the CSR
    /// arrays instead of sorting and merging an edge list again.
    ///
    /// # Panics
    ///
    /// Panics if `draw` produces a zero weight.
    pub(crate) fn reweight_edges(&self, mut draw: impl FnMut() -> Weight) -> WeightedGraph {
        let n = self.n();
        let mut weights = vec![0 as Weight; self.targets.len()];
        // Rows are sorted, so row `v` lists its lower neighbors first in
        // ascending order, the order edges `{u, v}` with `u < v` arrive in;
        // `mirror[v]` walks those slots.
        let mut mirror = self.offsets[..n].to_vec();
        for u in 0..n {
            for slot in self.offsets[u]..self.offsets[u + 1] {
                let v = self.targets[slot];
                if v > u {
                    let w = draw();
                    assert!(w > 0, "reweight_edges produced a zero weight");
                    debug_assert_eq!(self.targets[mirror[v]], u, "rows must be sorted");
                    weights[slot] = w;
                    weights[mirror[v]] = w;
                    mirror[v] += 1;
                }
            }
        }
        WeightedGraph::from_owned_csr(self.offsets.clone(), self.targets.clone(), weights)
    }

    /// `true` if the graph is connected (or has at most one node).
    pub fn is_connected(&self) -> bool {
        let n = self.n();
        if n <= 1 {
            return true;
        }
        let mut seen = vec![false; n];
        let mut stack = vec![0 as NodeId];
        seen[0] = true;
        let mut count = 1;
        while let Some(v) = stack.pop() {
            for (u, _) in self.neighbors(v) {
                if !seen[u] {
                    seen[u] = true;
                    count += 1;
                    stack.push(u);
                }
            }
        }
        count == n
    }

    /// Sum of all edge weights.
    pub fn total_weight(&self) -> u64 {
        self.edges().map(|e| e.w).sum()
    }

    /// The subgraph induced by `keep` (same node ids; nodes outside `keep`
    /// become isolated). Used by the figure-regeneration harness to carve
    /// `G[V_S]` out of a gadget.
    ///
    /// # Panics
    ///
    /// Panics if `keep.len() != self.n()`.
    pub fn induced_subgraph(&self, keep: &[bool]) -> WeightedGraph {
        assert_eq!(keep.len(), self.n(), "keep mask must cover every node");
        let edges = self
            .edges()
            .filter(|e| keep[e.u] && keep[e.v])
            .map(|e| (e.u, e.v, e.w));
        WeightedGraph::from_edges(self.n(), edges).expect("induced subgraph is valid")
    }
}

impl fmt::Debug for WeightedGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WeightedGraph")
            .field("n", &self.n())
            .field("m", &self.m())
            .field("edges", &self.edges().collect::<Vec<_>>())
            .finish()
    }
}

impl Serialize for WeightedGraph {
    /// Serializes as `{"n": .., "edges": [[u, v, w], ..]}` — the canonical
    /// edge list.
    fn serialize_json(&self, out: &mut String) {
        out.push_str("{\"n\":");
        out.push_str(&self.n().to_string());
        out.push_str(",\"edges\":[");
        for (i, e) in self.edges().enumerate() {
            if i > 0 {
                out.push(',');
            }
            (e.u, e.v, e.w).serialize_json(out);
        }
        out.push_str("]}");
    }
}

impl<'de> Deserialize<'de> for WeightedGraph {}

impl fmt::Display for WeightedGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "WeightedGraph(n={}, m={}, W={})",
            self.n(),
            self.m(),
            self.max_weight()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_query() {
        let g =
            WeightedGraph::from_edges(4, [(0, 1, 2), (1, 2, 3), (2, 3, 4), (0, 3, 10)]).unwrap();
        assert_eq!(g.n(), 4);
        assert_eq!(g.m(), 4);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.edge_weight(1, 2), Some(3));
        assert_eq!(g.edge_weight(2, 1), Some(3));
        assert_eq!(g.edge_weight(0, 2), None);
        assert!(g.has_edge(0, 3));
        assert_eq!(g.max_weight(), 10);
    }

    #[test]
    fn parallel_edges_keep_minimum() {
        let g = WeightedGraph::from_edges(2, [(0, 1, 7), (1, 0, 3), (0, 1, 9)]).unwrap();
        assert_eq!(g.m(), 1);
        assert_eq!(g.edge_weight(0, 1), Some(3));
    }

    #[test]
    fn rejects_zero_weight() {
        let err = WeightedGraph::from_edges(2, [(0, 1, 0)]).unwrap_err();
        assert!(matches!(err, BuildGraphError::ZeroWeight { .. }));
    }

    #[test]
    fn rejects_out_of_range() {
        let err = WeightedGraph::from_edges(2, [(0, 2, 1)]).unwrap_err();
        assert!(matches!(
            err,
            BuildGraphError::NodeOutOfRange { node: 2, n: 2 }
        ));
    }

    #[test]
    fn rejects_self_loop() {
        let err = WeightedGraph::from_edges(2, [(1, 1, 1)]).unwrap_err();
        assert!(matches!(err, BuildGraphError::SelfLoop { node: 1 }));
    }

    #[test]
    fn edges_iterates_canonical_sorted_triples() {
        let g = WeightedGraph::from_edges(4, [(3, 2, 4), (1, 0, 2), (2, 1, 3)]).unwrap();
        let edges: Vec<(NodeId, NodeId, Weight)> = g.edges().map(|e| (e.u, e.v, e.w)).collect();
        assert_eq!(edges, vec![(0, 1, 2), (1, 2, 3), (2, 3, 4)]);
        assert_eq!(g.edges().count(), g.m());
    }

    #[test]
    fn unweighted_view_resets_weights() {
        let g = WeightedGraph::from_edges(3, [(0, 1, 5), (1, 2, 9)]).unwrap();
        let u = g.unweighted_view();
        assert_eq!(u.edge_weight(0, 1), Some(1));
        assert_eq!(u.edge_weight(1, 2), Some(1));
        assert_eq!(u.n(), 3);
        assert_eq!(u.max_weight(), 1);
    }

    #[test]
    fn map_weights_applies_function() {
        let g = WeightedGraph::from_edges(3, [(0, 1, 4), (1, 2, 6)]).unwrap();
        let h = g.map_weights(|w| w / 2 + 1);
        assert_eq!(h.edge_weight(0, 1), Some(3));
        assert_eq!(h.edge_weight(1, 2), Some(4));
        assert_eq!(h.max_weight(), 4);
    }

    #[test]
    fn connectivity() {
        let g = WeightedGraph::from_edges(4, [(0, 1, 1), (1, 2, 1)]).unwrap();
        assert!(!g.is_connected());
        let g = WeightedGraph::from_edges(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1)]).unwrap();
        assert!(g.is_connected());
        let g = WeightedGraph::from_edges(1, []).unwrap();
        assert!(g.is_connected());
    }

    #[test]
    fn neighbors_sorted_consistent_with_edges() {
        let g = WeightedGraph::from_edges(5, [(0, 4, 2), (0, 2, 3), (0, 1, 1)]).unwrap();
        let ns: Vec<_> = g.neighbors(0).collect();
        assert_eq!(ns, vec![(1, 1), (2, 3), (4, 2)]);
    }

    #[test]
    fn display_is_nonempty() {
        let g = WeightedGraph::from_edges(2, [(0, 1, 1)]).unwrap();
        assert!(!g.to_string().is_empty());
    }

    #[test]
    fn serialize_json_uses_canonical_edge_list() {
        let g = WeightedGraph::from_edges(3, [(2, 1, 3), (1, 0, 2)]).unwrap();
        assert_eq!(g.to_json(), r#"{"n":3,"edges":[[0,1,2],[1,2,3]]}"#);
    }

    #[test]
    fn induced_subgraph_filters_edges() {
        let g = WeightedGraph::from_edges(5, [(0, 1, 2), (1, 2, 3), (2, 3, 4), (3, 4, 5)]).unwrap();
        let keep = vec![true, true, true, false, false];
        let h = g.induced_subgraph(&keep);
        assert_eq!(h.n(), 5);
        assert_eq!(h.m(), 2);
        assert!(h.has_edge(0, 1) && h.has_edge(1, 2));
        assert!(!h.has_edge(2, 3));
        assert_eq!(h.degree(4), 0);
    }
}
