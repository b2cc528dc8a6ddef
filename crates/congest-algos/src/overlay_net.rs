//! Algorithms 4 and 5 of the paper's Appendix A: overlay-network embedding
//! and SSSP on the embedded overlay.
//!
//! * **Algorithm 4** (Lemma A.3): after the multi-source phase each skeleton
//!   node knows its incident `(G'_S, w'_S)` weights; it broadcasts its `k`
//!   shortest incident edges to the whole network (`O(D + |S|k)` rounds).
//!   Every node can then construct the k-shortcut graph `(G''_S, w''_S)`
//!   (Nanongkai's Observation 3.12).
//! * **Algorithm 5** (Lemma A.4): bounded-hop SSSP (`ℓ' = 4|S|/k`) on
//!   `(G''_S, w''_S)` from a given source, where every overlay round is
//!   realized by a global collect-and-rebroadcast over the physical network
//!   (`Õ(|S|/(εk)·D + |S|)` rounds). Most overlay rounds have no announcer
//!   and still pay the `O(D)` count cost. One such round always does the
//!   same thing, so each call simulates the first and replays its
//!   statistics and trace events for the rest.

#![allow(clippy::needless_range_loop)] // index loops mirror the paper's matrix notation
use crate::multi_source::{multi_source_bounded_hop, MultiSourceResult};
use congest_graph::overlay::Overlay;
use congest_graph::rounding::{ApproxDist, RoundingScheme};
use congest_graph::{NodeId, WeightedGraph};
use congest_sim::primitives::TreeInfo;
use congest_sim::{primitives, RoundStats, SimConfig, SimError, Telemetry, TraceEvent, Tracer};
use rand::Rng;
use std::sync::{Arc, Mutex};

/// Everything the network knows after Algorithms 3 + 4 ran for one skeleton:
/// the content of `|init_i⟩` in Lemma 3.5.
#[derive(Clone, Debug)]
pub struct EmbeddedOverlay {
    /// The skeleton `S` (sorted node ids).
    pub skeleton: Vec<NodeId>,
    /// `bounded_hop[v][j] = d̃^ℓ(S[j], v)` — known at node `v`.
    pub bounded_hop: Vec<Vec<ApproxDist>>,
    /// The overlay `(G'_S, w'_S)`.
    pub prime: Overlay,
    /// The k-shortcut overlay `(G''_S, w''_S)` (globally reconstructible
    /// from the Algorithm 4 broadcast).
    pub shortcut: Overlay,
    /// The `k` of the k-shortcut construction.
    pub k: usize,
    /// Hop budget on the overlay: `⌈4|S|/k⌉`.
    pub overlay_ell: usize,
    /// The rounding scheme used by the bounded-hop phase.
    pub scheme: RoundingScheme,
    /// Accumulated round statistics of Algorithms 3 + 4.
    pub stats: RoundStats,
    /// Whether any multi-source attempt hit the low-probability congestion
    /// failure and had to be retried.
    pub retried: bool,
}

/// How many times [`embed_overlay`] runs Algorithm 3 before giving up on
/// its congestion failure.
pub const MULTI_SOURCE_ATTEMPTS: usize = 5;

/// Runs Algorithms 3 + 4: multi-source bounded-hop SSSP from the skeleton,
/// then the `k`-shortest-edges broadcast embedding `(G''_S, w''_S)`.
///
/// The multi-source phase is retried (fresh random delays) on its
/// low-probability congestion failure, as the paper's "with high
/// probability" statements allow; each attempt's rounds are charged.
///
/// # Errors
///
/// Propagates simulator errors, and returns
/// [`SimError::CongestionPersisted`] if the congestion failure persists
/// through all [`MULTI_SOURCE_ATTEMPTS`] attempts.
///
/// # Panics
///
/// Panics if the skeleton is empty or `k == 0`.
pub fn embed_overlay<R: Rng + ?Sized>(
    g: &WeightedGraph,
    leader: NodeId,
    skeleton: &[NodeId],
    scheme: RoundingScheme,
    k: usize,
    config: &SimConfig,
    rng: &mut R,
) -> Result<EmbeddedOverlay, SimError> {
    assert!(!skeleton.is_empty(), "skeleton must be non-empty");
    assert!(k >= 1, "k must be ≥ 1");
    let mut sorted = skeleton.to_vec();
    sorted.sort_unstable();
    sorted.dedup();

    let telemetry = config.telemetry.clone();
    let _algo_span = telemetry.span("embed_overlay");
    let mut stats = RoundStats::default();
    let mut retried = false;
    let mut ms: Option<MultiSourceResult> = None;
    for _attempt in 0..MULTI_SOURCE_ATTEMPTS {
        let res = multi_source_bounded_hop(g, leader, &sorted, scheme, config, rng)?;
        stats.absorb(&res.stats);
        if res.failed {
            retried = true;
            continue;
        }
        ms = Some(res);
        break;
    }
    let ms = ms.ok_or(SimError::CongestionPersisted {
        phase: "multi_source",
        attempts: MULTI_SOURCE_ATTEMPTS,
    })?;

    // Each skeleton node S[i] holds row i of w'. In a fault-free network
    // d̃^ℓ is exactly symmetric; under injected message drops the two
    // endpoints of a pair can hold different estimates, so take the
    // tighter one — the same symmetry guard the centralized builder
    // (`Overlay::from_skeleton`) applies. Clean runs are untouched.
    let s = sorted.len();
    let mut w = vec![0.0f64; s * s];
    for i in 0..s {
        let row = &ms.approx[sorted[i]];
        for j in 0..s {
            if i != j {
                w[i * s + j] = row[j];
            }
        }
    }
    for i in 0..s {
        for j in (i + 1)..s {
            let best = w[i * s + j].min(w[j * s + i]);
            w[i * s + j] = best;
            w[j * s + i] = best;
        }
    }
    let prime = Overlay::from_matrix(sorted.clone(), w);

    // Algorithm 4's broadcast: every skeleton node ships its k shortest
    // incident edges (as exact (scale, raw) pairs — O(log n) bits each) to
    // the leader, which rebroadcasts the union: O(D + |S|k) rounds.
    let _bc_span = telemetry.span("shortcut_broadcast");
    let (tree, tree_stats) = primitives::bfs_tree(g, leader, config)?;
    stats.absorb(&tree_stats);
    let mut items: Vec<Vec<(u64, u128)>> = vec![Vec::new(); g.n()];
    for i in 0..s {
        let owner = sorted[i];
        for (j, _) in prime.k_shortest_edges(i, k) {
            let (scale, raw) = ms.repr[owner][j].expect("finite edge has a representation");
            let tag = (i as u64) << 32 | j as u64;
            let packed: u128 =
                ((i as u128) << 108) | ((j as u128) << 88) | ((scale as u128) << 72) | raw as u128;
            items[owner].push((tag, packed));
        }
    }
    // The per-channel payload here is four O(log n)-bit fields; the packing
    // into u128 is an encoding artifact, so budget the phase accordingly.
    let wide = SimConfig {
        bandwidth: congest_sim::Bandwidth::bits(160),
        ..config.clone()
    };
    let (collected, up_stats) = primitives::collect_at_leader(g, leader, &wide, &tree, &items)?;
    stats.absorb(&up_stats);
    let payload: Vec<u128> = collected.iter().map(|&(_, v)| v).collect();
    let (_, down_stats) = primitives::pipelined_broadcast(g, leader, &wide, &tree, &payload)?;
    stats.absorb(&down_stats);

    // All nodes now share the k-shortest-edge sets and construct G''
    // locally (Observation 3.12). The construction is the same code the
    // centralized reference uses, so the two agree bit-for-bit.
    let shortcut = prime.shortcut(k);
    let overlay_ell = ((4 * s) as f64 / k as f64).ceil().max(1.0) as usize;

    Ok(EmbeddedOverlay {
        skeleton: sorted,
        bounded_hop: ms.approx,
        prime,
        shortcut,
        k,
        overlay_ell,
        scheme,
        stats,
        retried,
    })
}

/// Runs Algorithm 5: bounded-hop SSSP on the embedded overlay `(G'', w'')`
/// from skeleton node `source`, realized on the physical network.
///
/// Every overlay round is one global collect-and-rebroadcast (the paper's
/// "count a and make every node know it … broadcast to all nodes",
/// `O(D + a)` rounds). Returns `d̃^{4|S|/k}_{G'',w''}(source, u)` for every
/// skeleton index `u` — known to **all** nodes — plus statistics.
///
/// Rounds with no announcer still pay the `O(D)` count cost in full, but
/// only the first of them in a call is simulated. Each is two fresh
/// networks running the same empty collect and broadcast, and fault
/// decisions key on network-local rounds, so every later one absorbs the
/// first one's statistics and re-emits its trace events. The result,
/// statistics, events and errors equal those of simulating every round.
///
/// # Errors
///
/// Propagates simulator errors.
///
/// # Panics
///
/// Panics if `source` is not a skeleton node.
pub fn overlay_sssp(
    g: &WeightedGraph,
    leader: NodeId,
    emb: &EmbeddedOverlay,
    source: NodeId,
    config: &SimConfig,
) -> Result<(Vec<ApproxDist>, RoundStats), SimError> {
    let src = emb
        .shortcut
        .index_of(source)
        .expect("source must be a skeleton node");
    let s = emb.skeleton.len();
    let eps = emb.scheme.eps;
    let ell2 = emb.overlay_ell;
    let threshold = (1.0 + 2.0 / eps) * ell2 as f64;
    let max_w = (0..s)
        .flat_map(|i| (0..s).map(move |j| (i, j)))
        .filter(|&(i, j)| i != j)
        .map(|(i, j)| emb.shortcut.weight(i, j))
        .filter(|x| x.is_finite())
        .fold(1.0f64, f64::max);
    let imax = ((2.0 * s as f64 * max_w / eps).log2().ceil()).max(0.0) as u32;
    let limit = threshold.floor() as u64;

    let _algo_span = config.telemetry.span("overlay_sssp");
    let (tree, tree_stats) = primitives::bfs_tree(g, leader, config)?;
    let mut stats = RoundStats::default();
    stats.absorb(&tree_stats);
    let wide = SimConfig {
        bandwidth: congest_sim::Bandwidth::bits(160),
        ..config.clone()
    };

    let mut best = vec![f64::INFINITY; s];
    best[src] = 0.0;
    let mut empty_round: Option<EmptyRound> = None;
    // Per-round buffers, reused across rounds and scales. Between rounds
    // every list in `items` is empty: only announcers' owners fill theirs.
    let mut announcers: Vec<usize> = Vec::new();
    let mut items: Vec<Vec<(u64, u128)>> = vec![Vec::new(); g.n()];
    let mut payload: Vec<u128> = Vec::new();
    // Ownership: skeleton node S[u] simulates overlay node u.
    for scale in 0..=imax {
        let denom = eps * (2f64).powi(scale as i32);
        let unscale = denom / (2.0 * ell2 as f64);
        let rw = |i: usize, j: usize| -> u64 {
            ((2.0 * ell2 as f64 * emb.shortcut.weight(i, j)) / denom)
                .ceil()
                .max(1.0) as u64
        };
        let mut dist: Vec<Option<u64>> = vec![None; s];
        let mut broadcasted = vec![false; s];
        dist[src] = Some(0);
        for rho in 0..=limit {
            // Who announces this overlay round? (settled distance == rho)
            announcers.clear();
            announcers.extend((0..s).filter(|&u| !broadcasted[u] && dist[u] == Some(rho)));
            // Empty rounds still pay the O(D) "count" cost: the first one
            // is simulated, every later one replays it.
            if announcers.is_empty() {
                match &empty_round {
                    Some(empty) => empty.replay(&mut stats, &config.telemetry),
                    None => {
                        let empty = EmptyRound::simulate(g, leader, &wide, &tree, &items)?;
                        stats.absorb(&empty.stats);
                        empty_round = Some(empty);
                    }
                }
                continue;
            }
            // Physical realization: collect the a announcements at the
            // leader and rebroadcast them to everyone (O(D + a) rounds).
            for &u in &announcers {
                let packed: u128 = ((u as u128) << 64) | dist[u].unwrap() as u128;
                items[emb.skeleton[u]].push((u as u64, packed));
            }
            let (gathered, up) = primitives::collect_at_leader(g, leader, &wide, &tree, &items)?;
            for &u in &announcers {
                items[emb.skeleton[u]].clear();
            }
            stats.absorb(&up);
            payload.clear();
            payload.extend(gathered.iter().map(|&(_, v)| v));
            let (_, down) = primitives::pipelined_broadcast(g, leader, &wide, &tree, &payload)?;
            stats.absorb(&down);
            // Every skeleton node relaxes against the announcements (the
            // complete overlay: every pair is adjacent).
            for &u in &announcers {
                broadcasted[u] = true;
                let du = dist[u].unwrap();
                for x in 0..s {
                    if x != u {
                        let nd = du + rw(u, x);
                        if dist[x].is_none_or(|d| nd < d) {
                            dist[x] = Some(nd);
                        }
                    }
                }
            }
        }
        for u in 0..s {
            if let Some(d) = dist[u] {
                if d as f64 <= threshold {
                    let approx = d as f64 * unscale;
                    if approx < best[u] {
                        best[u] = approx;
                    }
                }
            }
        }
    }
    Ok((best, stats))
}

/// One overlay round with no announcer, simulated once per
/// [`overlay_sssp`] call. Every empty round of the call produces these
/// same statistics (message log and resilience budget included) and these
/// same trace events.
struct EmptyRound {
    /// The collect's and the broadcast's statistics, summed.
    stats: RoundStats,
    /// The events both networks emitted, in order (empty when telemetry
    /// is off).
    events: Vec<TraceEvent>,
}

impl EmptyRound {
    /// Simulates the round; its events reach `wide`'s telemetry as they
    /// happen, and are kept for [`EmptyRound::replay`].
    fn simulate(
        g: &WeightedGraph,
        leader: NodeId,
        wide: &SimConfig,
        tree: &[TreeInfo],
        empty_items: &[Vec<(u64, u128)>],
    ) -> Result<EmptyRound, SimError> {
        let recorder = Arc::new(Recorder {
            inner: wide.telemetry.clone(),
            kept: Mutex::default(),
        });
        let recording = SimConfig {
            telemetry: Telemetry::new(recorder.clone()),
            ..wide.clone()
        };
        let (_, mut stats) =
            primitives::collect_at_leader(g, leader, &recording, tree, empty_items)?;
        let (_, down) = primitives::pipelined_broadcast(g, leader, &recording, tree, &[])?;
        stats.absorb(&down);
        let events = std::mem::take(&mut *recorder.kept.lock().expect("recorder poisoned"));
        Ok(EmptyRound { stats, events })
    }

    /// Charges the round again: absorbs its statistics into `stats` and
    /// re-emits its events, in order, to `telemetry`.
    fn replay(&self, stats: &mut RoundStats, telemetry: &Telemetry) {
        stats.absorb(&self.stats);
        for event in &self.events {
            telemetry.emit_with(|| event.clone());
        }
    }
}

/// Passes every event on to the caller's telemetry and keeps a copy.
/// `emit_with` runs its closure only when a tracer is attached, so with
/// telemetry off nothing is kept.
struct Recorder {
    inner: Telemetry,
    kept: Mutex<Vec<TraceEvent>>,
}

impl Tracer for Recorder {
    fn record(&self, event: &TraceEvent) {
        self.inner.emit_with(|| {
            self.kept
                .lock()
                .expect("recorder poisoned")
                .push(event.clone());
            event.clone()
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest_graph::generators;
    use congest_graph::overlay::SkeletonDistances;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn cfg(g: &WeightedGraph) -> SimConfig {
        SimConfig::standard(g.n(), g.max_weight()).with_max_rounds(50_000_000)
    }

    /// A generator stuck at zero: every random delay Algorithm 3 draws is 0.
    struct Zeros;

    impl rand::RngCore for Zeros {
        fn next_u32(&mut self) -> u32 {
            0
        }
        fn next_u64(&mut self) -> u64 {
            0
        }
    }

    #[test]
    fn persistent_congestion_is_a_typed_error() {
        // Fifteen leaf sources with zero delays and equal weights: the hub
        // settles all fifteen copies in one logical round, far more than
        // its ⌈log₂ 16⌉ + 1 = 5 slots, on every attempt.
        let g = generators::star(16, 3);
        let skeleton: Vec<NodeId> = (1..16).collect();
        let scheme = RoundingScheme::new(4, 0.5);
        let err = embed_overlay(&g, 0, &skeleton, scheme, 2, &cfg(&g), &mut Zeros).unwrap_err();
        assert_eq!(
            err,
            SimError::CongestionPersisted {
                phase: "multi_source",
                attempts: MULTI_SOURCE_ATTEMPTS,
            }
        );
        assert!(err.to_string().contains("all 5 attempts"));
    }

    #[test]
    fn embedded_overlay_matches_reference() {
        let mut rng = ChaCha8Rng::seed_from_u64(21);
        let g = generators::erdos_renyi_connected(12, 0.3, 4, &mut rng);
        let skeleton = vec![0, 2, 5, 8, 11];
        let scheme = RoundingScheme::new(6, 0.5);
        let emb = embed_overlay(&g, 0, &skeleton, scheme, 2, &cfg(&g), &mut rng).unwrap();
        let reference = Overlay::from_skeleton(&g, &skeleton, scheme);
        for i in 0..skeleton.len() {
            for j in 0..skeleton.len() {
                let (a, b) = (emb.prime.weight(i, j), reference.weight(i, j));
                assert!(
                    (a.is_infinite() && b.is_infinite()) || (a - b).abs() < 1e-9,
                    "w'({i},{j}): {a} vs {b}"
                );
            }
        }
        let ref_short = reference.shortcut(2);
        for i in 0..skeleton.len() {
            for j in 0..skeleton.len() {
                let (a, b) = (emb.shortcut.weight(i, j), ref_short.weight(i, j));
                assert!(
                    (a.is_infinite() && b.is_infinite()) || (a - b).abs() < 1e-9,
                    "w''({i},{j}): {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn overlay_sssp_matches_reference() {
        let mut rng = ChaCha8Rng::seed_from_u64(22);
        let g = generators::erdos_renyi_connected(10, 0.35, 3, &mut rng);
        let skeleton = vec![1, 3, 6, 9];
        let scheme = RoundingScheme::new(5, 0.5);
        let emb = embed_overlay(&g, 0, &skeleton, scheme, 2, &cfg(&g), &mut rng).unwrap();
        for &src in &skeleton {
            let (got, _) = overlay_sssp(&g, 0, &emb, src, &cfg(&g)).unwrap();
            let si = emb.shortcut.index_of(src).unwrap();
            let want = emb
                .shortcut
                .approx_hop_bounded(si, emb.overlay_ell, scheme.eps);
            for u in 0..skeleton.len() {
                let (a, b) = (got[u], want[u]);
                assert!(
                    (a.is_infinite() && b.is_infinite()) || (a - b).abs() < 1e-9,
                    "src={src} u={u}: distributed {a} vs reference {b}"
                );
            }
        }
    }

    #[test]
    fn skeleton_distances_reference_consistency() {
        // The EmbeddedOverlay pieces assemble into the same SkeletonDistances
        // the centralized reference computes.
        let mut rng = ChaCha8Rng::seed_from_u64(23);
        let g = generators::erdos_renyi_connected(11, 0.3, 5, &mut rng);
        let skeleton = vec![0, 4, 7, 10];
        let scheme = RoundingScheme::new(8, 0.5);
        let k = 2;
        let emb = embed_overlay(&g, 0, &skeleton, scheme, k, &cfg(&g), &mut rng).unwrap();
        let sd = SkeletonDistances::compute(&g, &skeleton, scheme, k);
        for (j, &s) in emb.skeleton.iter().enumerate() {
            for v in g.nodes() {
                let (a, b) = (emb.bounded_hop[v][j], sd.bounded_hop[j][v]);
                assert!(
                    (a.is_infinite() && b.is_infinite()) || (a - b).abs() < 1e-9,
                    "bounded hop s={s} v={v}: {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn alg4_round_cost_scales_with_sk() {
        let mut rng = ChaCha8Rng::seed_from_u64(24);
        let g = generators::cycle(12, 2);
        let scheme = RoundingScheme::new(4, 0.5);
        let small = embed_overlay(&g, 0, &[0, 4, 8], scheme, 1, &cfg(&g), &mut rng)
            .unwrap()
            .stats
            .rounds;
        let large = embed_overlay(&g, 0, &[0, 2, 4, 6, 8, 10], scheme, 3, &cfg(&g), &mut rng)
            .unwrap()
            .stats
            .rounds;
        assert!(large > small, "more skeleton × k should cost more rounds");
    }
}
