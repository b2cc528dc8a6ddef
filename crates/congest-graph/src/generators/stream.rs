//! Streaming synthetic graph families for giant-scale experiments.
//!
//! The generators in the parent module collect a `Vec<Edge>` and hand it to
//! [`GraphBuilder`](crate::GraphBuilder) — fine at 10³ nodes, a second copy
//! of the whole graph at 10⁶. The families here instead *emit* edges,
//! deterministically from a seed, straight into the two-pass
//! [`GraphWriter`]: the only allocations are the final
//! CSR arrays themselves, so a 10⁷-edge instance streams into memory without
//! ever materializing an edge list.
//!
//! Three families cover the degree-distribution regimes the giant-scale
//! experiment (E11) sweeps:
//!
//! * [`StreamSpec::PowerLaw`] — preferential-attachment-style skew: each new
//!   node attaches to earlier nodes with probability biased toward low
//!   indices (hubs), giving a heavy-tailed degree distribution like
//!   Barabási–Albert without keeping the repeated-endpoint urn in memory;
//! * [`StreamSpec::RoadGrid`] — near-planar road-network shape: a
//!   row-major grid plus a sprinkling of random long-range shortcuts;
//! * [`StreamSpec::WebLayered`] — a layered crawl frontier: a chain spine
//!   in layer 0, every deeper node linking back into the previous layer.
//!
//! Every family is connected by construction and replayable: the emitter is
//! a pure function of the spec, which is exactly the contract
//! [`build_streamed`]'s two-pass protocol needs.

use std::fmt;

use crate::graph::{BuildGraphError, NodeId, Weight, WeightedGraph};
use wdr_metrics::util::splitmix64;

/// SplitMix64: the tiny, seedable, fully deterministic PRNG the emitters
/// replay from. (Chosen over the workspace's ChaCha generator because an
/// emitter is re-run from scratch for the fill pass — cheap reseeding
/// matters more than cryptographic quality here.)
#[derive(Copy, Clone, Debug)]
struct SplitMix64(u64);

impl SplitMix64 {
    fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    fn next_u64(&mut self) -> u64 {
        splitmix64(&mut self.0)
    }

    /// Uniform draw in `[0, bound)` (`bound > 0`) by 128-bit multiply.
    fn below(&mut self, bound: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
    }

    /// Uniform weight in `[1, max_w]`.
    fn weight(&mut self, max_w: Weight) -> Weight {
        1 + self.below(max_w)
    }
}

/// A replayable streaming graph family: shape parameters plus a seed fully
/// determine the emitted edge sequence (and therefore the built graph and
/// its [`digest`](crate::WeightedGraph::digest)).
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum StreamSpec {
    /// Preferential-attachment-style skew: node `v` attaches to
    /// `min(attach, v)` distinct earlier nodes, drawn with probability
    /// density rising toward index 0 (the squared-uniform bias
    /// `t = ⌊r² · v⌋` — an urn-free approximation of Barabási–Albert that
    /// needs O(1) generator state). `m ≈ attach · n`.
    PowerLaw {
        /// Node count.
        n: usize,
        /// Edges each arriving node adds (clamped to its index).
        attach: usize,
        /// Weights are uniform in `[1, max_w]`.
        max_w: Weight,
        /// PRNG seed.
        seed: u64,
    },
    /// A `⌈n/c⌉ × c` row-major grid (`c = ⌊√n⌋`) with right/down edges,
    /// plus `n / 20` random long-range shortcut chords. `m ≈ 2n`.
    RoadGrid {
        /// Node count.
        n: usize,
        /// Weights are uniform in `[1, max_w]`.
        max_w: Weight,
        /// PRNG seed.
        seed: u64,
    },
    /// `layers` layers of width `⌈n/layers⌉`; layer 0 is a chain spine and
    /// every deeper node draws `fanout` links into the previous layer (at
    /// least one, guaranteeing connectivity). `m ≈ fanout · n`.
    WebLayered {
        /// Node count.
        n: usize,
        /// Layer count (clamped to `[1, n]`).
        layers: usize,
        /// Back-links per node (minimum 1).
        fanout: usize,
        /// Weights are uniform in `[1, max_w]`.
        max_w: Weight,
        /// PRNG seed.
        seed: u64,
    },
}

impl StreamSpec {
    /// Node count of the generated graph.
    pub fn n(&self) -> usize {
        match *self {
            StreamSpec::PowerLaw { n, .. }
            | StreamSpec::RoadGrid { n, .. }
            | StreamSpec::WebLayered { n, .. } => n,
        }
    }

    /// Short stable family name for reports and benchmark rows.
    pub fn label(&self) -> &'static str {
        match self {
            StreamSpec::PowerLaw { .. } => "power_law",
            StreamSpec::RoadGrid { .. } => "road_grid",
            StreamSpec::WebLayered { .. } => "web_layered",
        }
    }

    /// Replays the family's edge sequence into `sink`, identically on every
    /// call. Emitted duplicates (e.g. a shortcut chord that coincides with a
    /// grid edge) are legal — the writer merges them to the minimum weight.
    pub fn for_each_edge(&self, sink: &mut dyn FnMut(NodeId, NodeId, Weight)) {
        match *self {
            StreamSpec::PowerLaw {
                n,
                attach,
                max_w,
                seed,
            } => power_law(n, attach, max_w, seed, sink),
            StreamSpec::RoadGrid { n, max_w, seed } => road_grid(n, max_w, seed, sink),
            StreamSpec::WebLayered {
                n,
                layers,
                fanout,
                max_w,
                seed,
            } => web_layered(n, layers, fanout, max_w, seed, sink),
        }
    }

    /// Streams the family through a [`GraphWriter`] —
    /// the whole point: no intermediate edge list at any size.
    ///
    /// # Errors
    ///
    /// Propagates [`StreamBuildError`]; the shipped families never produce
    /// one (their edges are valid by construction).
    ///
    /// # Examples
    ///
    /// ```
    /// use congest_graph::generators::stream::StreamSpec;
    /// let spec = StreamSpec::RoadGrid { n: 100, max_w: 9, seed: 7 };
    /// let g = spec.build().unwrap();
    /// assert_eq!(g.n(), 100);
    /// assert_eq!(g.digest(), spec.build().unwrap().digest()); // replayable
    /// ```
    pub fn build(&self) -> Result<WeightedGraph, StreamBuildError> {
        build_streamed(self.n(), |sink| self.for_each_edge(sink))
    }
}

/// Squared-uniform preferential bias: maps a uniform `r` to `⌊(r²) · v⌋`,
/// concentrating picks near index 0 so early nodes become hubs.
fn biased_pick(rng: &mut SplitMix64, v: usize) -> usize {
    let r = rng.next_u64();
    let r2 = ((u128::from(r) * u128::from(r)) >> 64) as u64;
    ((u128::from(r2) * (v as u128)) >> 64) as usize
}

fn power_law(
    n: usize,
    attach: usize,
    max_w: Weight,
    seed: u64,
    sink: &mut dyn FnMut(NodeId, NodeId, Weight),
) {
    let mut rng = SplitMix64::new(seed);
    // Small fixed-capacity dedup buffer: `attach` is tiny (≤ 64 in every
    // workload), so a linear scan beats any hash set.
    let mut picks: Vec<usize> = Vec::with_capacity(attach.min(64));
    for v in 1..n {
        let k = attach.min(v);
        picks.clear();
        while picks.len() < k {
            let mut t = biased_pick(&mut rng, v);
            // Deterministic probe: the draw landed on an already-picked
            // target; walk forward until a fresh one appears (k ≤ v
            // guarantees one exists).
            while picks.contains(&t) {
                t = (t + 1) % v;
            }
            picks.push(t);
            sink(t, v, rng.weight(max_w));
        }
    }
}

/// Largest `c` with `c² ≤ n` (integer square root; `n` fits f64 exactly for
/// every n ≤ 2⁵³, far past giant scale, but stay integral anyway).
fn isqrt(n: usize) -> usize {
    if n < 2 {
        return n;
    }
    let mut c = (n as f64).sqrt() as usize;
    while c.saturating_mul(c) > n {
        c -= 1;
    }
    while (c + 1).saturating_mul(c + 1) <= n {
        c += 1;
    }
    c
}

fn road_grid(n: usize, max_w: Weight, seed: u64, sink: &mut dyn FnMut(NodeId, NodeId, Weight)) {
    let mut rng = SplitMix64::new(seed);
    let c = isqrt(n).max(1);
    for v in 0..n {
        // Right neighbor, unless v ends its row.
        if (v + 1) % c != 0 && v + 1 < n {
            sink(v, v + 1, rng.weight(max_w));
        }
        // Down neighbor.
        if v + c < n {
            sink(v, v + c, rng.weight(max_w));
        }
    }
    // Shortcut chords — the "highways" that shrink the diameter below the
    // Θ(√n) grid distance. Self-pairs are skipped (the draw is replayed
    // identically on both passes, so the skip is too).
    if n > 1 {
        for _ in 0..n / 20 {
            let u = rng.below(n as u64) as usize;
            let v = rng.below(n as u64) as usize;
            let w = rng.weight(max_w);
            if u != v {
                sink(u, v, w);
            }
        }
    }
}

fn web_layered(
    n: usize,
    layers: usize,
    fanout: usize,
    max_w: Weight,
    seed: u64,
    sink: &mut dyn FnMut(NodeId, NodeId, Weight),
) {
    let mut rng = SplitMix64::new(seed);
    let layers = layers.clamp(1, n.max(1));
    let width = n.div_ceil(layers);
    let fanout = fanout.max(1);
    for v in 0..n {
        let layer = v / width;
        if layer == 0 {
            // Spine: a chain across the root layer.
            if v + 1 < width.min(n) {
                sink(v, v + 1, rng.weight(max_w));
            }
            continue;
        }
        // Every deeper node tethers to the previous layer: one guaranteed
        // link plus fanout−1 extra draws (duplicates merged by the writer).
        let prev_start = (layer - 1) * width;
        let prev_len = width as u64;
        for _ in 0..fanout {
            let t = prev_start + rng.below(prev_len) as usize;
            sink(t, v, rng.weight(max_w));
        }
    }
}

/// Errors from the streaming [`GraphWriter`] pipeline.
#[derive(Debug)]
pub enum StreamBuildError {
    /// An emitted edge failed [`GraphBuilder`](crate::GraphBuilder)-style
    /// validation (out-of-range node, zero weight, self-loop).
    Graph(BuildGraphError),
    /// The emitter did not replay the same edge count across the counting
    /// and filling passes (it must be deterministic).
    ReplayMismatch {
        /// Edges seen in the counting pass.
        counted: u64,
        /// Edges seen in the filling pass.
        filled: u64,
    },
}

impl fmt::Display for StreamBuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamBuildError::Graph(e) => write!(f, "{e}"),
            StreamBuildError::ReplayMismatch { counted, filled } => write!(
                f,
                "edge emitter is not replayable: counted {counted} edges, refilled {filled}"
            ),
        }
    }
}

impl std::error::Error for StreamBuildError {}

impl From<BuildGraphError> for StreamBuildError {
    fn from(e: BuildGraphError) -> StreamBuildError {
        StreamBuildError::Graph(e)
    }
}

/// Streaming CSR assembler: edges flow in twice (count pass, fill pass) and
/// come out as a finished [`WeightedGraph`] — no intermediate `Vec<Edge>`.
///
/// Peak memory is the final CSR plus one reusable row-sort scratch, roughly
/// a third of what [`GraphBuilder`](crate::GraphBuilder) needs at the same
/// size (which keeps the canonical edge list alive alongside the CSR while
/// building). Parallel edges are merged to the minimum weight, exactly like
/// the builder.
///
/// Most callers want [`build_streamed`], which drives the two passes from a
/// replayable emitter closure; [`StreamSpec::build`] is built on it.
pub struct GraphWriter {
    n: usize,
    filling: bool,
    offsets: Vec<usize>,
    targets: Vec<NodeId>,
    weights: Vec<Weight>,
    counted: u64,
    filled: u64,
    error: Option<BuildGraphError>,
}

impl GraphWriter {
    /// Starts the counting pass for an `n`-node graph.
    pub fn new(n: usize) -> GraphWriter {
        GraphWriter {
            n,
            filling: false,
            offsets: vec![0; n + 1],
            targets: Vec::new(),
            weights: Vec::new(),
            counted: 0,
            filled: 0,
            error: None,
        }
    }

    /// Feeds one undirected edge to the current pass.
    ///
    /// Invalid edges are recorded and surface as an error from
    /// [`start_fill`](GraphWriter::start_fill) / [`finish`](GraphWriter::finish);
    /// this method never panics on bad input.
    pub fn edge(&mut self, u: NodeId, v: NodeId, w: Weight) {
        if self.error.is_some() {
            return;
        }
        if u >= self.n || v >= self.n {
            self.error = Some(BuildGraphError::NodeOutOfRange {
                node: u.max(v),
                n: self.n,
            });
            return;
        }
        if w == 0 {
            self.error = Some(BuildGraphError::ZeroWeight { edge: (u, v) });
            return;
        }
        if u == v {
            self.error = Some(BuildGraphError::SelfLoop { node: u });
            return;
        }
        if self.filling {
            self.filled += 1;
            if self.filled > self.counted {
                // Over-emission: drop on the floor; finish() reports the
                // replay mismatch. Writing would run past the arrays.
                return;
            }
            let cu = self.offsets[u];
            self.targets[cu] = v;
            self.weights[cu] = w;
            self.offsets[u] += 1;
            let cv = self.offsets[v];
            self.targets[cv] = u;
            self.weights[cv] = w;
            self.offsets[v] += 1;
        } else {
            self.counted += 1;
            self.offsets[u + 1] += 1;
            self.offsets[v + 1] += 1;
        }
    }

    /// Ends the counting pass: allocates the CSR arrays and switches to the
    /// filling pass. The emitter must now replay the identical edges.
    ///
    /// # Errors
    ///
    /// The first validation error recorded during counting.
    pub fn start_fill(&mut self) -> Result<(), StreamBuildError> {
        if let Some(e) = self.error.take() {
            return Err(e.into());
        }
        for i in 1..=self.n {
            self.offsets[i] += self.offsets[i - 1];
        }
        let total = self.offsets[self.n];
        self.targets = vec![0; total];
        self.weights = vec![0; total];
        // After the prefix sum, offsets[v] is already row v's start and
        // doubles as its write cursor; filling advances it to row v's end
        // == row (v+1)'s start, which finish() undoes with a right shift.
        self.filling = true;
        Ok(())
    }

    /// Ends the filling pass: sorts each row, merges parallel edges to the
    /// minimum weight, and produces the graph.
    ///
    /// # Errors
    ///
    /// Validation errors from either pass, or
    /// [`StreamBuildError::ReplayMismatch`] if the two passes disagreed.
    pub fn finish(mut self) -> Result<WeightedGraph, StreamBuildError> {
        if let Some(e) = self.error.take() {
            return Err(e.into());
        }
        if !self.filling || self.filled != self.counted {
            return Err(StreamBuildError::ReplayMismatch {
                counted: self.counted,
                filled: self.filled,
            });
        }
        // Restore row starts (each offsets[v] advanced to its row end).
        for i in (1..=self.n).rev() {
            self.offsets[i] = self.offsets[i - 1];
        }
        self.offsets[0] = 0;

        // Per-row sort + parallel-edge merge, compacting in place. Rows are
        // processed in order with a single write cursor, so only one scratch
        // buffer (reused across rows) is needed.
        let mut scratch: Vec<(NodeId, Weight)> = Vec::new();
        let mut write = 0usize;
        let mut row_start = 0usize;
        for v in 0..self.n {
            let row_end = self.offsets[v + 1];
            scratch.clear();
            scratch.extend(
                self.targets[row_start..row_end]
                    .iter()
                    .copied()
                    .zip(self.weights[row_start..row_end].iter().copied()),
            );
            scratch.sort_unstable();
            self.offsets[v] = write;
            let mut last: Option<NodeId> = None;
            for &(t, w) in &scratch {
                if last == Some(t) {
                    continue; // parallel edge; first (t, w) pair is minimal
                }
                self.targets[write] = t;
                self.weights[write] = w;
                write += 1;
                last = Some(t);
            }
            row_start = row_end;
        }
        self.offsets[self.n] = write;
        self.targets.truncate(write);
        self.weights.truncate(write);
        Ok(WeightedGraph::from_owned_csr(
            self.offsets,
            self.targets,
            self.weights,
        ))
    }
}

/// Builds a graph by replaying a deterministic edge emitter twice through a
/// [`GraphWriter`] — the streaming analogue of
/// [`WeightedGraph::from_edges`], with no `Vec<Edge>` ever materialized.
///
/// `emit` is called twice with an edge sink and must produce the identical
/// edge sequence both times (e.g. by reseeding a PRNG from a fixed seed).
///
/// # Errors
///
/// Same as [`GraphWriter::finish`].
///
/// # Examples
///
/// ```
/// use congest_graph::generators::stream::build_streamed;
/// let g = build_streamed(4, |sink| {
///     for v in 1..4usize {
///         sink(v - 1, v, 2);
///     }
/// })
/// .unwrap();
/// assert_eq!((g.n(), g.m()), (4, 3));
/// ```
pub fn build_streamed(
    n: usize,
    mut emit: impl FnMut(&mut dyn FnMut(NodeId, NodeId, Weight)),
) -> Result<WeightedGraph, StreamBuildError> {
    let mut writer = GraphWriter::new(n);
    emit(&mut |u, v, w| writer.edge(u, v, w));
    writer.start_fill()?;
    emit(&mut |u, v, w| writer.edge(u, v, w));
    writer.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;
    use crate::sweep;

    fn specs() -> Vec<StreamSpec> {
        vec![
            StreamSpec::PowerLaw {
                n: 300,
                attach: 4,
                max_w: 9,
                seed: 11,
            },
            StreamSpec::RoadGrid {
                n: 300,
                max_w: 9,
                seed: 12,
            },
            StreamSpec::WebLayered {
                n: 300,
                layers: 10,
                fanout: 3,
                max_w: 9,
                seed: 13,
            },
        ]
    }

    #[test]
    fn families_are_deterministic_from_seed() {
        for spec in specs() {
            let a = spec.build().unwrap();
            let b = spec.build().unwrap();
            assert_eq!(a, b, "{}", spec.label());
            assert_eq!(a.digest(), b.digest());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = StreamSpec::RoadGrid {
            n: 200,
            max_w: 9,
            seed: 1,
        }
        .build()
        .unwrap();
        let b = StreamSpec::RoadGrid {
            n: 200,
            max_w: 9,
            seed: 2,
        }
        .build()
        .unwrap();
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn families_are_connected() {
        for spec in specs() {
            let g = spec.build().unwrap();
            let r = sweep::extremes(&g);
            assert!(r.is_connected(), "{} must be connected", spec.label());
        }
    }

    #[test]
    fn streamed_build_matches_collected_builder() {
        // The writer path must agree edge-for-edge with GraphBuilder fed the
        // same emission — the two canonicalizations are interchangeable.
        for spec in specs() {
            let streamed = spec.build().unwrap();
            let mut b = GraphBuilder::new(spec.n());
            spec.for_each_edge(&mut |u, v, w| {
                b.add_edge(u, v, w);
            });
            let collected = b.build().unwrap();
            assert_eq!(streamed, collected, "{}", spec.label());
            assert_eq!(streamed.digest(), collected.digest());
        }
    }

    #[test]
    fn power_law_is_skewed() {
        let g = StreamSpec::PowerLaw {
            n: 2000,
            attach: 5,
            max_w: 9,
            seed: 3,
        }
        .build()
        .unwrap();
        let avg = 2.0 * g.m() as f64 / g.n() as f64;
        let hub = (0..g.n()).map(|v| g.degree(v)).max().unwrap();
        assert!(
            hub as f64 > 4.0 * avg,
            "expected a heavy tail: hub degree {hub}, average {avg:.1}"
        );
        // Skew lives at the low indices by construction.
        let low_max = (0..20).map(|v| g.degree(v)).max().unwrap();
        assert!(low_max as f64 > 2.0 * avg);
    }

    #[test]
    fn road_grid_has_near_grid_edge_count() {
        let n = 900usize;
        let g = StreamSpec::RoadGrid {
            n,
            max_w: 9,
            seed: 4,
        }
        .build()
        .unwrap();
        // 2n − 2√n grid edges plus at most n/20 chords (minus merges).
        assert!(g.m() >= 2 * n - 2 * isqrt(n) - 2 * (n / 20));
        assert!(g.m() <= 2 * n + n / 20);
    }

    #[test]
    fn isqrt_is_exact() {
        for n in 0..200usize {
            let c = isqrt(n);
            assert!(c * c <= n);
            assert!((c + 1) * (c + 1) > n);
        }
        assert_eq!(isqrt(1_000_000), 1000);
    }

    #[test]
    fn tiny_sizes_build() {
        for n in 1..6usize {
            for spec in [
                StreamSpec::PowerLaw {
                    n,
                    attach: 3,
                    max_w: 4,
                    seed: 5,
                },
                StreamSpec::RoadGrid {
                    n,
                    max_w: 4,
                    seed: 5,
                },
                StreamSpec::WebLayered {
                    n,
                    layers: 3,
                    fanout: 2,
                    max_w: 4,
                    seed: 5,
                },
            ] {
                let g = spec.build().unwrap();
                assert_eq!(g.n(), n);
                assert!(sweep::extremes(&g).is_connected());
            }
        }
    }

    #[test]
    fn writer_merges_parallel_edges_like_builder() {
        let g = build_streamed(3, |sink| {
            sink(0, 1, 9);
            sink(1, 0, 4);
            sink(1, 2, 2);
            sink(0, 1, 7);
        })
        .unwrap();
        let reference =
            WeightedGraph::from_edges(3, [(0, 1, 9), (1, 0, 4), (1, 2, 2), (0, 1, 7)]).unwrap();
        assert_eq!(g, reference);
        assert_eq!(g.edge_weight(0, 1), Some(4));
    }

    #[test]
    fn writer_reports_validation_errors() {
        let bad = build_streamed(3, |sink| sink(0, 3, 1));
        assert!(matches!(
            bad,
            Err(StreamBuildError::Graph(
                BuildGraphError::NodeOutOfRange { .. }
            ))
        ));
        let bad = build_streamed(3, |sink| sink(0, 1, 0));
        assert!(matches!(
            bad,
            Err(StreamBuildError::Graph(BuildGraphError::ZeroWeight { .. }))
        ));
        let bad = build_streamed(3, |sink| sink(2, 2, 1));
        assert!(matches!(
            bad,
            Err(StreamBuildError::Graph(BuildGraphError::SelfLoop { .. }))
        ));
    }

    #[test]
    fn writer_detects_non_replayable_emitters() {
        let mut calls = 0;
        let bad = build_streamed(4, |sink| {
            calls += 1;
            for v in 1..(if calls == 1 { 4 } else { 3 }) {
                sink(v - 1, v, 1);
            }
        });
        assert!(matches!(bad, Err(StreamBuildError::ReplayMismatch { .. })));

        let mut calls = 0;
        let bad = build_streamed(4, |sink| {
            calls += 1;
            for v in 1..(if calls == 1 { 3 } else { 4 }) {
                sink(v - 1, v, 1);
            }
        });
        assert!(matches!(bad, Err(StreamBuildError::ReplayMismatch { .. })));
    }
}
