//! The composed skeleton pipeline of Section 3.1: `Initialization_i`
//! (Algorithms 3 + 4) and the evaluation of approximate distances and
//! eccentricities `ẽ_{G,w,i}(s)` (Algorithm 5 + local combination +
//! convergecast), exactly as used by the quantum procedures of Lemma 3.5.

use crate::overlay_net::{embed_overlay, overlay_sssp, EmbeddedOverlay};
use congest_graph::rounding::{ApproxDist, RoundingScheme};
use congest_graph::{NodeId, WeightedGraph};
use congest_sim::{primitives, RoundStats, SimConfig, SimError};
use rand::Rng;

/// Order-preserving `u64` encoding of a non-negative float (including
/// `+∞`; NaN is tolerated), by the IEEE-754 ordering trick: distances and
/// eccentricities ride the integer convergecast and the bit-ordered
/// quantum search this way.
pub fn ordered_bits(x: f64) -> u64 {
    debug_assert!(x >= 0.0 || x.is_nan());
    x.to_bits()
}

/// Inverse of [`ordered_bits`].
pub fn from_ordered_bits(b: u64) -> f64 {
    f64::from_bits(b)
}

/// The per-skeleton state of Lemma 3.5's `Initialization_i`, plus cost.
///
/// Wraps [`EmbeddedOverlay`] and adds the evaluation entry points.
#[derive(Clone, Debug)]
pub struct SkeletonState {
    /// The embedded overlay (Algorithms 3 + 4 output).
    pub overlay: EmbeddedOverlay,
    leader: NodeId,
}

impl SkeletonState {
    /// Runs `Initialization_i` for one skeleton: Algorithm 3 (bounded-hop
    /// multi-source) then Algorithm 4 (overlay embedding).
    /// `T₀ = Õ(D + ℓ/ε + rk)` rounds (Lemma 3.5's analysis).
    ///
    /// # Errors
    ///
    /// Propagates simulator errors.
    ///
    /// # Panics
    ///
    /// Panics if the skeleton is empty or `k == 0`.
    pub fn initialize<R: Rng + ?Sized>(
        g: &WeightedGraph,
        leader: NodeId,
        skeleton: &[NodeId],
        scheme: RoundingScheme,
        k: usize,
        config: &SimConfig,
        rng: &mut R,
    ) -> Result<SkeletonState, SimError> {
        // `T₀` in the paper's accounting.
        let _span = config.telemetry.span("skeleton_init");
        let overlay = embed_overlay(g, leader, skeleton, scheme, k, config, rng)?;
        Ok(SkeletonState { overlay, leader })
    }

    /// Round cost already incurred by initialization.
    pub fn init_stats(&self) -> &RoundStats {
        &self.overlay.stats
    }

    /// The Setup part of Lemma 3.5 for a specific `s ∈ S_i`: Algorithm 5
    /// from `s`, after which every node `v` knows
    /// `d̃^{4|S|/k}_{G'',w''}(s, u)` for each `u ∈ S` (the `|data_i(s)⟩`
    /// registers). `T₁ = Õ(r/(εk)·D + r)` rounds.
    ///
    /// Returns the overlay distances (indexed by skeleton index) and the
    /// phase statistics.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors.
    ///
    /// # Panics
    ///
    /// Panics if `s` is not in the skeleton.
    pub fn setup_data(
        &self,
        g: &WeightedGraph,
        s: NodeId,
        config: &SimConfig,
    ) -> Result<(Vec<ApproxDist>, RoundStats), SimError> {
        // `T₁` in the paper's accounting.
        let _span = config.telemetry.span("skeleton_setup");
        overlay_sssp(g, self.leader, &self.overlay, s, config)
    }

    /// The approximate distances `d̃_{G,w,S}(s, v)` each node `v` computes
    /// locally from `|init_i⟩` and `|data_i(s)⟩` (free local computation):
    /// `min_{u∈S} { d̃^{4|S|/k}_{G'',w''}(s,u) + d̃^ℓ(u,v) }`.
    pub fn combine_local(&self, s: NodeId, overlay_dist: &[ApproxDist]) -> Vec<ApproxDist> {
        let n = self.overlay.bounded_hop.len();
        let mut out = vec![f64::INFINITY; n];
        for (j, &over) in overlay_dist.iter().enumerate() {
            if over.is_finite() {
                for (v, bh) in self.overlay.bounded_hop.iter().enumerate() {
                    let cand = over + bh[j];
                    if cand < out[v] {
                        out[v] = cand;
                    }
                }
            }
        }
        out[s] = 0.0;
        out
    }

    /// The Evaluation part of Lemma 3.5 for a specific `s`: every node
    /// computes `d̃_{G,w,S}(s, v)` locally, and the leader convergecasts the
    /// maximum — the approximate eccentricity `ẽ(s)`. `T₂ = O(D)` rounds.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors.
    pub fn evaluate_eccentricity(
        &self,
        g: &WeightedGraph,
        s: NodeId,
        overlay_dist: &[ApproxDist],
        config: &SimConfig,
    ) -> Result<(ApproxDist, RoundStats), SimError> {
        // `T₂` in the paper's accounting.
        let _span = config.telemetry.span("skeleton_evaluate");
        let local = self.combine_local(s, overlay_dist);
        let (tree, tree_stats) = primitives::bfs_tree(g, self.leader, config)?;
        let values: Vec<u128> = local.iter().map(|&x| u128::from(ordered_bits(x))).collect();
        let wide = SimConfig {
            bandwidth: congest_sim::Bandwidth::bits(160),
            ..config.clone()
        };
        let (bits, mut stats) = primitives::converge_cast(
            g,
            self.leader,
            &wide,
            &tree,
            &values,
            primitives::Aggregate::Max,
        )?;
        stats.absorb(&tree_stats);
        Ok((from_ordered_bits(bits as u64), stats))
    }

    /// Full evaluation of `ẽ(s)` — Setup then Evaluation — returning the
    /// eccentricity and the combined statistics. This is one classical
    /// execution of the pair the quantum procedure applies in superposition.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors.
    pub fn eccentricity(
        &self,
        g: &WeightedGraph,
        s: NodeId,
        config: &SimConfig,
    ) -> Result<(ApproxDist, RoundStats), SimError> {
        let (overlay_dist, mut stats) = self.setup_data(g, s, config)?;
        let (ecc, eval_stats) = self.evaluate_eccentricity(g, s, &overlay_dist, config)?;
        stats.absorb(&eval_stats);
        Ok((ecc, stats))
    }

    /// `f_i = max_{s ∈ S_i} ẽ(s)` evaluated classically over the whole
    /// skeleton (used by baselines and tests; the quantum procedure of
    /// Lemma 3.5 searches instead of enumerating).
    ///
    /// # Errors
    ///
    /// Propagates simulator errors.
    pub fn max_eccentricity(
        &self,
        g: &WeightedGraph,
        config: &SimConfig,
    ) -> Result<(ApproxDist, RoundStats), SimError> {
        let mut best = 0.0f64;
        let mut stats = RoundStats::default();
        let skeleton = self.overlay.skeleton.clone();
        for s in skeleton {
            let (e, st) = self.eccentricity(g, s, config)?;
            stats.absorb(&st);
            if e > best {
                best = e;
            }
        }
        Ok((best, stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest_graph::generators;
    use congest_graph::overlay::SkeletonDistances;
    use congest_graph::shortest_path::dijkstra;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn cfg(g: &WeightedGraph) -> SimConfig {
        SimConfig::standard(g.n(), g.max_weight()).with_max_rounds(50_000_000)
    }

    #[test]
    fn ordered_bits_roundtrip_and_order() {
        let xs = [0.0f64, 0.5, 1.0, 1.5, 2.5, 1e9, 1e300, f64::INFINITY];
        for w in xs.windows(2) {
            assert!(ordered_bits(w[0]) < ordered_bits(w[1]));
        }
        for x in xs {
            assert_eq!(from_ordered_bits(ordered_bits(x)), x);
        }
    }

    #[test]
    fn distributed_eccentricity_matches_reference() {
        let mut rng = ChaCha8Rng::seed_from_u64(31);
        let g = generators::erdos_renyi_connected(11, 0.3, 4, &mut rng);
        let skeleton = vec![0, 3, 6, 9];
        let scheme = RoundingScheme::new(6, 0.5);
        let k = 2;
        let st =
            SkeletonState::initialize(&g, 0, &skeleton, scheme, k, &cfg(&g), &mut rng).unwrap();
        let sd = SkeletonDistances::compute(&g, &skeleton, scheme, k);
        for &s in &skeleton {
            let (got, _) = st.eccentricity(&g, s, &cfg(&g)).unwrap();
            let want = sd.approx_eccentricity(s);
            assert!(
                (got - want).abs() < 1e-9,
                "ẽ({s}): distributed {got} vs reference {want}"
            );
        }
    }

    #[test]
    fn eccentricity_is_sandwiched() {
        // d ≤ d̃ and ẽ ≥ e; with the test's generous ℓ the upper side holds too.
        let mut rng = ChaCha8Rng::seed_from_u64(32);
        let g = generators::erdos_renyi_connected(12, 0.35, 6, &mut rng);
        let skeleton = vec![1, 5, 9];
        let scheme = RoundingScheme::new(g.n(), 0.5);
        let st =
            SkeletonState::initialize(&g, 0, &skeleton, scheme, 2, &cfg(&g), &mut rng).unwrap();
        for &s in &skeleton {
            let exact = congest_graph::metrics::eccentricity(&g, s).as_f64();
            let (got, _) = st.eccentricity(&g, s, &cfg(&g)).unwrap();
            assert!(got >= exact - 1e-6, "ẽ({s}) = {got} < e = {exact}");
            assert!(got <= exact * 2.25 + 1e-6, "ẽ({s}) = {got} ≫ e = {exact}");
        }
    }

    #[test]
    fn combine_local_matches_reference_distances() {
        let mut rng = ChaCha8Rng::seed_from_u64(33);
        let g = generators::erdos_renyi_connected(10, 0.4, 3, &mut rng);
        let skeleton = vec![0, 2, 4, 6, 8];
        let scheme = RoundingScheme::new(5, 0.5);
        let k = 2;
        let st =
            SkeletonState::initialize(&g, 0, &skeleton, scheme, k, &cfg(&g), &mut rng).unwrap();
        let sd = SkeletonDistances::compute(&g, &skeleton, scheme, k);
        for &s in &skeleton {
            let (od, _) = st.setup_data(&g, s, &cfg(&g)).unwrap();
            let local = st.combine_local(s, &od);
            let want = sd.approx_distances_from(s);
            for v in g.nodes() {
                let (a, b) = (local[v], want[v]);
                assert!(
                    (a.is_infinite() && b.is_infinite()) || (a - b).abs() < 1e-9,
                    "d̃({s},{v}): {a} vs {b}"
                );
            }
            // And the lower-bound side of Lemma 3.3 directly.
            let exact = dijkstra(&g, s);
            for v in g.nodes() {
                assert!(local[v] >= exact[v].as_f64() - 1e-6);
            }
        }
    }

    #[test]
    fn max_eccentricity_upper_bounds_all() {
        let mut rng = ChaCha8Rng::seed_from_u64(34);
        let g = generators::erdos_renyi_connected(10, 0.3, 4, &mut rng);
        let skeleton = vec![0, 4, 8];
        let scheme = RoundingScheme::new(g.n(), 0.5);
        let st =
            SkeletonState::initialize(&g, 0, &skeleton, scheme, 2, &cfg(&g), &mut rng).unwrap();
        let (fx, _) = st.max_eccentricity(&g, &cfg(&g)).unwrap();
        for &s in &skeleton {
            let (e, _) = st.eccentricity(&g, s, &cfg(&g)).unwrap();
            assert!(fx >= e - 1e-12);
        }
    }
}
