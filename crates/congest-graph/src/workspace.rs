//! Reusable single-source shortest-path scratch space.
//!
//! Every multi-source loop in the workspace — eccentricity sweeps, skeleton
//! overlay construction, hop-bounded reference tables — used to allocate a
//! fresh distance vector, heap, and frontier per source. [`SsspWorkspace`]
//! owns all of that scratch once: the `*_into` methods reset it in `O(n)`
//! (no heap traffic after warm-up) and run the search in place, so an
//! `n`-source sweep performs zero steady-state allocations. The
//! `kernel_alloc` integration test pins that claim with a counting global
//! allocator.
//!
//! Two priority-queue strategies sit behind [`SsspWorkspace::dijkstra_into`]:
//! a binary heap (general weights) and a Dial-style circular bucket queue
//! used automatically when the maximum edge weight is small
//! ([`DIAL_MAX_WEIGHT`]). Both produce exactly the same distances — Dijkstra
//! settles exact values regardless of queue discipline — which the unit
//! tests here pin.

use crate::dist::Dist;
use crate::graph::{NodeId, Weight, WeightedGraph};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Largest maximum edge weight for which [`SsspWorkspace::dijkstra_into`]
/// uses the Dial bucket queue instead of a binary heap.
///
/// With maximum weight `C`, Dial needs `C + 1` circular buckets and pays
/// `O(m + n·C)` total; for the small integer weights the experiments use
/// (`W ≤ 8` on most workloads) that handily beats the heap's `O(m log n)`.
pub const DIAL_MAX_WEIGHT: Weight = 128;

/// Zero-cost run counters of an [`SsspWorkspace`]: which kernel each search
/// dispatched to and how much queue work it did.
///
/// Updated with plain integer increments inside the kernels (no atomics, no
/// heap — the `kernel_alloc` pin covers the instrumented paths), read back
/// with [`SsspWorkspace::counters`], and flushed into a metrics registry
/// with [`KernelCounters::record`]. Counters accumulate across searches for
/// the lifetime of the workspace; [`SsspWorkspace::reset_counters`] zeroes
/// them between measured sections.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct KernelCounters {
    /// Searches the [`SsspWorkspace::dijkstra_into`] dispatcher (or a direct
    /// call) ran on the Dial bucket queue.
    pub dial_runs: u64,
    /// Searches run on the binary heap (including mapped-weight searches).
    pub heap_runs: u64,
    /// BFS (topology) searches.
    pub bfs_runs: u64,
    /// Hop-tracking Dijkstra searches.
    pub hop_dijkstra_runs: u64,
    /// Hop-bounded Bellman–Ford searches (one per `hop_bounded_into` call,
    /// however many sweeps it converged in).
    pub bellman_runs: u64,
    /// Nodes popped from a binary heap (both plain and hop-tracking,
    /// including stale lazy-deletion entries).
    pub heap_pops: u64,
    /// Nodes popped from Dial buckets (including stale entries).
    pub bucket_pops: u64,
    /// Successful edge relaxations (a distance label improved) across every
    /// kernel.
    pub relaxations: u64,
}

impl KernelCounters {
    /// Total searches run, over every kernel.
    pub fn total_runs(&self) -> u64 {
        self.dial_runs + self.heap_runs + self.bfs_runs + self.hop_dijkstra_runs + self.bellman_runs
    }

    /// Adds this snapshot to `{prefix}.{counter}` metrics in `registry`
    /// (registering them on first use) — typically called once after a
    /// measured section, so per-search paths stay free of atomics.
    pub fn record(&self, registry: &wdr_metrics::MetricsRegistry, prefix: &str) {
        for (name, value) in [
            ("dial_runs", self.dial_runs),
            ("heap_runs", self.heap_runs),
            ("bfs_runs", self.bfs_runs),
            ("hop_dijkstra_runs", self.hop_dijkstra_runs),
            ("bellman_runs", self.bellman_runs),
            ("heap_pops", self.heap_pops),
            ("bucket_pops", self.bucket_pops),
            ("relaxations", self.relaxations),
        ] {
            registry.counter(&format!("{prefix}.{name}")).add(value);
        }
    }
}

/// Reusable scratch buffers for single-source shortest-path runs.
///
/// Create one per long-lived loop and feed it to the `*_into` methods; all
/// buffers are grown on first use and reused afterwards. Results are
/// returned as borrows of the workspace, so copy them out (or fold them
/// down, as the eccentricity sweeps do) before the next call.
///
/// # Examples
///
/// ```
/// use congest_graph::{generators, Dist, SsspWorkspace};
/// let g = generators::cycle(6, 2);
/// let mut ws = SsspWorkspace::new();
/// let mut ecc = Dist::ZERO;
/// for v in g.nodes() {
///     let d = ws.dijkstra_into(&g, v);
///     ecc = ecc.max(d.iter().copied().max().unwrap());
/// }
/// assert_eq!(ecc, Dist::from(6u64)); // cycle diameter 3 · weight 2
/// ```
#[derive(Clone, Debug, Default)]
pub struct SsspWorkspace {
    dist: Vec<Dist>,
    hops: Vec<usize>,
    prev: Vec<Dist>,
    heap: BinaryHeap<Reverse<(Dist, NodeId)>>,
    hop_heap: BinaryHeap<Reverse<(Dist, usize, NodeId)>>,
    /// u64-word bitset BFS frontiers (current level / next level). A dense
    /// level touches one bit per node instead of a `Vec<NodeId>` push, and
    /// swapping levels is a pointer swap + word fill.
    cur_bits: Vec<u64>,
    next_bits: Vec<u64>,
    buckets: Vec<Vec<NodeId>>,
    /// The rounded weights `w_i(1..=len)` of the scale
    /// [`crate::rounding::approx_hop_bounded_into`] is searching, so its
    /// relaxations index a table instead of dividing per edge.
    pub(crate) weight_table: Vec<Weight>,
    counters: KernelCounters,
}

/// Grows `bits` to at least `words` u64 words and zeroes the live prefix.
fn reset_bits(bits: &mut Vec<u64>, words: usize) {
    if bits.len() < words {
        bits.resize(words, 0);
    }
    bits[..words].fill(0);
}

impl SsspWorkspace {
    /// Creates an empty workspace; buffers grow on first use.
    pub fn new() -> SsspWorkspace {
        SsspWorkspace::default()
    }

    /// The accumulated [`KernelCounters`] of every search run so far.
    pub fn counters(&self) -> KernelCounters {
        self.counters
    }

    /// Zeroes the [`KernelCounters`] (scratch buffers keep their capacity).
    pub fn reset_counters(&mut self) {
        self.counters = KernelCounters::default();
    }

    /// Grows the distance buffer, the binary heap and the weight table to
    /// their worst case for bounded-hop rows of `g`, so no later
    /// [`crate::rounding::approx_hop_bounded_into`] on `g` allocates. A
    /// search pushes at most once per source plus once per directed edge
    /// (a label only improves when its tail is settled, and a node settles
    /// once).
    pub(crate) fn reserve_row_search(&mut self, g: &WeightedGraph) {
        if self.dist.len() < g.n() {
            self.dist.resize(g.n(), Dist::INFINITY);
        }
        self.heap.reserve(1 + 2 * g.m());
        self.weight_table
            .reserve(crate::rounding::weight_table_len(g));
    }

    /// Resets the distance buffer for an `n`-node run.
    fn reset_dist(&mut self, n: usize) {
        if self.dist.len() < n {
            self.dist.resize(n, Dist::INFINITY);
        }
        self.dist[..n].fill(Dist::INFINITY);
    }

    /// Dijkstra from `s`, writing into the reusable distance buffer.
    ///
    /// Picks the Dial bucket queue when `g.max_weight() <= DIAL_MAX_WEIGHT`,
    /// the binary heap otherwise; the produced distances are identical.
    ///
    /// # Panics
    ///
    /// Panics if `s >= g.n()`.
    pub fn dijkstra_into(&mut self, g: &WeightedGraph, s: NodeId) -> &[Dist] {
        if g.max_weight() <= DIAL_MAX_WEIGHT {
            self.dial_into(g, s)
        } else {
            self.dijkstra_heap_into(g, s)
        }
    }

    /// Heap-based Dijkstra from `s` (always available; used directly by the
    /// mapped-weight variant where the effective maximum weight is unknown).
    ///
    /// # Panics
    ///
    /// Panics if `s >= g.n()`.
    pub fn dijkstra_heap_into(&mut self, g: &WeightedGraph, s: NodeId) -> &[Dist] {
        self.dijkstra_mapped_into(g, s, Dist::INFINITY, |w| w)
    }

    /// Dijkstra from `s` under on-the-fly re-weighted edges, limited to
    /// labels `≤ limit`: edge weight `w` is replaced by `f(w)` during
    /// relaxation, with no intermediate graph materialized. This is what
    /// lets the rounding scheme of Lemma 3.2 run one search per scale
    /// without cloning the graph per scale.
    ///
    /// A label above `limit` is never written or queued, so the search
    /// stops once every node within `limit` is settled. Every label
    /// `≤ limit` is exact (all prefixes of a shortest path are shorter, so
    /// none of its relaxations is cut), and every other node reads
    /// [`Dist::INFINITY`]. `limit = Dist::INFINITY` is the plain search.
    ///
    /// # Panics
    ///
    /// Panics if `s >= g.n()` or `f` produces a zero weight.
    pub fn dijkstra_mapped_into(
        &mut self,
        g: &WeightedGraph,
        s: NodeId,
        limit: Dist,
        mut f: impl FnMut(Weight) -> Weight,
    ) -> &[Dist] {
        let n = g.n();
        assert!(s < n, "source {s} out of range");
        self.counters.heap_runs += 1;
        self.reset_dist(n);
        self.heap.clear();
        // Split borrows so the relaxation closure can write dist/heap while
        // `g` is borrowed by `for_each_neighbor`.
        let dist = &mut self.dist;
        let heap = &mut self.heap;
        let counters = &mut self.counters;
        dist[s] = Dist::ZERO;
        heap.push(Reverse((Dist::ZERO, s)));
        while let Some(Reverse((d, v))) = heap.pop() {
            counters.heap_pops += 1;
            if d > dist[v] {
                continue;
            }
            g.for_each_neighbor(v, &mut |u, w| {
                let w = f(w);
                debug_assert!(w > 0, "mapped weight must stay positive");
                let nd = d + Dist::from(w);
                if nd < dist[u] && nd <= limit {
                    dist[u] = nd;
                    counters.relaxations += 1;
                    heap.push(Reverse((nd, u)));
                }
            });
        }
        &self.dist[..n]
    }

    /// Dial's algorithm: Dijkstra with a circular bucket queue of
    /// `max_weight + 1` buckets. Exact for positive integer weights; used
    /// automatically by [`SsspWorkspace::dijkstra_into`] for small weights.
    ///
    /// # Panics
    ///
    /// Panics if `s >= g.n()`.
    pub fn dial_into(&mut self, g: &WeightedGraph, s: NodeId) -> &[Dist] {
        let n = g.n();
        assert!(s < n, "source {s} out of range");
        self.counters.dial_runs += 1;
        self.reset_dist(n);
        let nb = g.max_weight() as usize + 1;
        if self.buckets.len() < nb {
            self.buckets.resize_with(nb, Vec::new);
        }
        for b in &mut self.buckets {
            b.clear();
        }
        // Split borrows so the relaxation closure can write dist/buckets
        // while `g` is borrowed by `for_each_neighbor`.
        let dist = &mut self.dist;
        let buckets = &mut self.buckets;
        let counters = &mut self.counters;
        dist[s] = Dist::ZERO;
        buckets[0].push(s);
        let mut pending = 1usize;
        let mut d = 0u64; // distance represented by bucket `d % nb`
        while pending > 0 {
            while buckets[(d as usize) % nb].is_empty() {
                d += 1;
            }
            // Drain one node; stale entries (lazy deletion) are skipped.
            let v = buckets[(d as usize) % nb].pop().expect("non-empty");
            counters.bucket_pops += 1;
            pending -= 1;
            if dist[v] != Dist::from(d) {
                continue;
            }
            g.for_each_neighbor(v, &mut |u, w| {
                let nd = Dist::from(d + w);
                if nd < dist[u] {
                    dist[u] = nd;
                    counters.relaxations += 1;
                    // All pending labels lie in [d, d + C], so the circular
                    // index is unambiguous.
                    buckets[((d + w) as usize) % nb].push(u);
                    pending += 1;
                }
            });
        }
        &self.dist[..n]
    }

    /// BFS distances on the *topology* of `g` (every edge counts 1), without
    /// materializing an unweighted view.
    ///
    /// Levels are u64-word bitsets: visiting a dense frontier walks set bits
    /// (one word per 64 nodes) instead of pushing every node into a
    /// `Vec<NodeId>`, and advancing a level is a buffer swap plus a word
    /// fill. Distances are identical to the queue-based formulation — BFS
    /// levels do not depend on intra-level visit order.
    ///
    /// # Panics
    ///
    /// Panics if `s >= g.n()`.
    pub fn bfs_into(&mut self, g: &WeightedGraph, s: NodeId) -> &[Dist] {
        let n = g.n();
        assert!(s < n, "source {s} out of range");
        self.counters.bfs_runs += 1;
        self.reset_dist(n);
        let words = n.div_ceil(64);
        reset_bits(&mut self.cur_bits, words);
        reset_bits(&mut self.next_bits, words);
        // Split borrows so the visit closure can write dist/next_bits while
        // `g` is borrowed by `for_each_neighbor`.
        let dist = &mut self.dist;
        let cur_bits = &mut self.cur_bits;
        let next_bits = &mut self.next_bits;
        let counters = &mut self.counters;
        dist[s] = Dist::ZERO;
        cur_bits[s / 64] |= 1 << (s % 64);
        let mut level = 0u64;
        let mut live = true;
        while live {
            level += 1;
            live = false;
            for (wi, &word) in cur_bits[..words].iter().enumerate() {
                let mut wbits = word;
                while wbits != 0 {
                    let v = wi * 64 + wbits.trailing_zeros() as usize;
                    wbits &= wbits - 1;
                    g.for_each_neighbor(v, &mut |u, _| {
                        if dist[u] == Dist::INFINITY {
                            dist[u] = Dist::from(level);
                            counters.relaxations += 1;
                            next_bits[u / 64] |= 1 << (u % 64);
                            live = true;
                        }
                    });
                }
            }
            std::mem::swap(cur_bits, next_bits);
            next_bits[..words].fill(0);
        }
        &self.dist[..n]
    }

    /// Dijkstra with hop counts (minimum edges over weight-shortest paths),
    /// the workspace-backed version of
    /// [`crate::shortest_path::dijkstra_with_hops`].
    ///
    /// # Panics
    ///
    /// Panics if `s >= g.n()`.
    pub fn dijkstra_with_hops_into(&mut self, g: &WeightedGraph, s: NodeId) -> (&[Dist], &[usize]) {
        let n = g.n();
        assert!(s < n, "source {s} out of range");
        self.counters.hop_dijkstra_runs += 1;
        self.reset_dist(n);
        if self.hops.len() < n {
            self.hops.resize(n, usize::MAX);
        }
        self.hops[..n].fill(usize::MAX);
        self.hop_heap.clear();
        // Split borrows so the relaxation closure can write dist/hops/heap
        // while `g` is borrowed by `for_each_neighbor`.
        let dist = &mut self.dist;
        let hops = &mut self.hops;
        let hop_heap = &mut self.hop_heap;
        let counters = &mut self.counters;
        dist[s] = Dist::ZERO;
        hops[s] = 0;
        hop_heap.push(Reverse((Dist::ZERO, 0usize, s)));
        while let Some(Reverse((d, h, v))) = hop_heap.pop() {
            counters.heap_pops += 1;
            if (d, h) > (dist[v], hops[v]) {
                continue;
            }
            g.for_each_neighbor(v, &mut |u, w| {
                let nd = d + Dist::from(w);
                let nh = h + 1;
                if (nd, nh) < (dist[u], hops[u]) {
                    dist[u] = nd;
                    hops[u] = nh;
                    counters.relaxations += 1;
                    hop_heap.push(Reverse((nd, nh, u)));
                }
            });
        }
        (&self.dist[..n], &self.hops[..n])
    }

    /// The `ℓ`-hop-bounded distance `d^ℓ(s, ·)` (Section 3.1), computed by
    /// `ℓ` synchronous Bellman–Ford sweeps into reusable buffers.
    ///
    /// # Panics
    ///
    /// Panics if `s >= g.n()`.
    pub fn hop_bounded_into(&mut self, g: &WeightedGraph, s: NodeId, ell: usize) -> &[Dist] {
        let n = g.n();
        assert!(s < n, "source {s} out of range");
        self.counters.bellman_runs += 1;
        self.reset_dist(n);
        if self.prev.len() < n {
            self.prev.resize(n, Dist::INFINITY);
        }
        // Split borrows so the relaxation closure can write dist while `g`
        // is borrowed by `for_each_neighbor`.
        let dist = &mut self.dist;
        let prev = &mut self.prev;
        let counters = &mut self.counters;
        dist[s] = Dist::ZERO;
        for _ in 0..ell {
            prev[..n].copy_from_slice(&dist[..n]);
            let mut changed = false;
            for (v, &dv) in prev[..n].iter().enumerate() {
                if dv == Dist::INFINITY {
                    continue;
                }
                g.for_each_neighbor(v, &mut |u, w| {
                    let nd = dv + Dist::from(w);
                    if nd < dist[u] {
                        dist[u] = nd;
                        counters.relaxations += 1;
                        changed = true;
                    }
                });
            }
            if !changed {
                break;
            }
        }
        &self.dist[..n]
    }

    /// Distance from `s` truncated at `limit` (the Algorithm 2 output
    /// contract), workspace-backed.
    ///
    /// # Panics
    ///
    /// Panics if `s >= g.n()`.
    pub fn bounded_distance_into(&mut self, g: &WeightedGraph, s: NodeId, limit: Dist) -> &[Dist] {
        let n = g.n();
        self.dijkstra_into(g, s);
        for d in &mut self.dist[..n] {
            if *d > limit {
                *d = Dist::INFINITY;
            }
        }
        &self.dist[..n]
    }

    /// The eccentricity of `s` under true weights: `max_v d(s, v)`.
    ///
    /// # Panics
    ///
    /// Panics if `s >= g.n()`.
    pub fn eccentricity(&mut self, g: &WeightedGraph, s: NodeId) -> Dist {
        self.dijkstra_into(g, s)
            .iter()
            .copied()
            .max()
            .unwrap_or(Dist::ZERO)
    }

    /// The eccentricity of `s` on the topology (unit weights).
    ///
    /// # Panics
    ///
    /// Panics if `s >= g.n()`.
    pub fn unweighted_eccentricity(&mut self, g: &WeightedGraph, s: NodeId) -> Dist {
        self.bfs_into(g, s)
            .iter()
            .copied()
            .max()
            .unwrap_or(Dist::ZERO)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::shortest_path;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn dial_matches_heap_and_reference_dijkstra() {
        let mut rng = ChaCha8Rng::seed_from_u64(21);
        for trial in 0..12 {
            let n = 24 + trial;
            let g = generators::erdos_renyi_connected(n, 0.15, 9, &mut rng);
            let mut ws = SsspWorkspace::new();
            for s in [0, n / 2, n - 1] {
                let reference = shortest_path::dijkstra(&g, s);
                assert_eq!(ws.dial_into(&g, s), &reference[..], "dial s={s}");
                assert_eq!(ws.dijkstra_heap_into(&g, s), &reference[..], "heap s={s}");
                assert_eq!(ws.dijkstra_into(&g, s), &reference[..], "auto s={s}");
            }
        }
    }

    #[test]
    fn heavy_weights_take_heap_path_and_agree() {
        let mut rng = ChaCha8Rng::seed_from_u64(22);
        let g = generators::erdos_renyi_connected(20, 0.2, 10_000, &mut rng);
        assert!(g.max_weight() > DIAL_MAX_WEIGHT);
        let mut ws = SsspWorkspace::new();
        for s in g.nodes() {
            assert_eq!(ws.dijkstra_into(&g, s), &shortest_path::dijkstra(&g, s)[..]);
        }
    }

    #[test]
    fn bfs_into_matches_unweighted_dijkstra() {
        let mut rng = ChaCha8Rng::seed_from_u64(23);
        let g = generators::erdos_renyi_connected(30, 0.12, 7, &mut rng);
        let u = g.unweighted_view();
        let mut ws = SsspWorkspace::new();
        for s in [0usize, 11, 29] {
            assert_eq!(ws.bfs_into(&g, s), &shortest_path::dijkstra(&u, s)[..]);
        }
    }

    #[test]
    fn disconnected_sources_leave_infinities() {
        let g = crate::WeightedGraph::from_edges(5, [(0, 1, 2), (2, 3, 200)]).unwrap();
        let mut ws = SsspWorkspace::new();
        let d = ws.dijkstra_into(&g, 0);
        assert_eq!(d[1], Dist::from(2u64));
        assert_eq!(d[2], Dist::INFINITY);
        assert_eq!(d[4], Dist::INFINITY);
        let b = ws.bfs_into(&g, 2);
        assert_eq!(b[3], Dist::from(1u64));
        assert_eq!(b[0], Dist::INFINITY);
    }

    #[test]
    fn hops_and_bounds_match_allocating_reference() {
        let mut rng = ChaCha8Rng::seed_from_u64(24);
        let g = generators::erdos_renyi_connected(22, 0.18, 6, &mut rng);
        let mut ws = SsspWorkspace::new();
        for s in [0usize, 9, 21] {
            let (rd, rh) = shortest_path::dijkstra_with_hops(&g, s);
            let (d, h) = ws.dijkstra_with_hops_into(&g, s);
            assert_eq!(d, &rd[..]);
            assert_eq!(h, &rh[..]);
            for ell in [0usize, 1, 3, 21] {
                let reference = shortest_path::hop_bounded(&g, s, ell);
                assert_eq!(ws.hop_bounded_into(&g, s, ell), &reference[..]);
            }
            let limit = Dist::from(7u64);
            let reference = shortest_path::bounded_distance(&g, s, limit);
            assert_eq!(ws.bounded_distance_into(&g, s, limit), &reference[..]);
        }
    }

    #[test]
    fn workspace_shrinks_gracefully_across_graph_sizes() {
        let mut ws = SsspWorkspace::new();
        let big = generators::path(30, 2);
        assert_eq!(ws.dijkstra_into(&big, 0).len(), 30);
        let small = generators::path(4, 2);
        let d = ws.dijkstra_into(&small, 0);
        assert_eq!(d.len(), 4);
        assert_eq!(d[3], Dist::from(6u64));
    }

    #[test]
    fn kernel_counters_track_dispatch_and_queue_work() {
        let mut rng = ChaCha8Rng::seed_from_u64(26);
        let g = generators::erdos_renyi_connected(24, 0.2, 9, &mut rng);
        let heavy = g.map_weights(|w| w * 1_000);
        assert!(heavy.max_weight() > DIAL_MAX_WEIGHT);
        let mut ws = SsspWorkspace::new();

        ws.dijkstra_into(&g, 0); // small weights → Dial
        ws.dijkstra_into(&heavy, 0); // heavy weights → heap
        ws.bfs_into(&g, 0);
        ws.dijkstra_with_hops_into(&g, 0);
        ws.hop_bounded_into(&g, 0, 3);

        let c = ws.counters();
        assert_eq!(c.dial_runs, 1);
        assert_eq!(c.heap_runs, 1);
        assert_eq!(c.bfs_runs, 1);
        assert_eq!(c.hop_dijkstra_runs, 1);
        assert_eq!(c.bellman_runs, 1);
        assert_eq!(c.total_runs(), 5);
        // Every search settles all 24 nodes, so each kernel did real work.
        assert!(c.heap_pops >= 2 * 24, "plain + hop heap searches");
        assert!(c.bucket_pops >= 24);
        assert!(c.relaxations >= 5 * 23, "≥ n−1 label improvements per run");

        let registry = wdr_metrics::MetricsRegistry::new();
        c.record(&registry, "kernels");
        let flat = registry.snapshot().flatten();
        assert_eq!(flat["kernels.dial_runs"], 1.0);
        assert_eq!(flat["kernels.relaxations"], c.relaxations as f64);

        ws.reset_counters();
        assert_eq!(ws.counters(), KernelCounters::default());
    }

    #[test]
    fn mapped_dijkstra_equals_mapped_graph() {
        let mut rng = ChaCha8Rng::seed_from_u64(25);
        let g = generators::erdos_renyi_connected(18, 0.2, 9, &mut rng);
        let doubled = g.map_weights(|w| 2 * w + 1);
        let mut ws = SsspWorkspace::new();
        for s in [0usize, 17] {
            let got = ws
                .dijkstra_mapped_into(&g, s, Dist::INFINITY, |w| 2 * w + 1)
                .to_vec();
            assert_eq!(got, shortest_path::dijkstra(&doubled, s));
        }
    }

    #[test]
    fn limited_mapped_search_is_exact_below_limit_and_infinite_above() {
        let mut rng = ChaCha8Rng::seed_from_u64(27);
        let mut ws = SsspWorkspace::new();
        for trial in 0..8 {
            let g = generators::erdos_renyi_connected(20 + trial, 0.2, 9, &mut rng);
            for s in [0usize, g.n() / 2] {
                let full = ws
                    .dijkstra_mapped_into(&g, s, Dist::INFINITY, |w| 3 * w)
                    .to_vec();
                let far = full.iter().copied().max().unwrap().expect_finite();
                for limit in [0, 1, far / 3, far / 2, far - 1, far, far + 7] {
                    let limit = Dist::from(limit);
                    let cut = ws.dijkstra_mapped_into(&g, s, limit, |w| 3 * w);
                    for v in g.nodes() {
                        let want = if full[v] <= limit {
                            full[v]
                        } else {
                            Dist::INFINITY
                        };
                        assert_eq!(cut[v], want, "trial {trial} s={s} v={v} limit={limit:?}");
                    }
                }
            }
        }
    }
}
