//! Algorithms 1 and 2 of the paper's Appendix A as real message-passing
//! CONGEST programs.
//!
//! * **Algorithm 2** (Bounded-Distance SSSP): on `(G, w)` with source `s`
//!   and limit `L`, after `L + 1` rounds every node `v` knows `d(s, v)`
//!   whenever `d(s, v) ≤ L`. The schedule is the paper's: a node broadcasts
//!   `(v, d(s, v))` in the round whose index equals its (settled) distance.
//! * **Algorithm 1** (Bounded-Hop SSSP): runs Algorithm 2 once per weight
//!   scale `w_i(e) = ⌈2ℓ·w(e)/(ε·2^i)⌉`, producing the approximate
//!   bounded-hop distance `d̃^ℓ(s, ·)` of Lemma 3.2 in `Õ(ℓ/ε)` rounds
//!   (Lemma A.1).

use congest_graph::rounding::{ApproxDist, RoundingScheme};
use congest_graph::{Dist, NodeId, WeightedGraph};
use congest_sim::{Mailbox, NodeCtx, NodeProgram, RoundStats, SimConfig, SimError, Status};

/// Algorithm 2 as a [`NodeProgram`].
///
/// Runs on the weights of the network graph it is launched on (launch it on
/// the rounded graph `(G, w_i)` to get scale `i`).
#[derive(Debug)]
pub struct BoundedDistanceSssp {
    source: NodeId,
    limit: u64,
    dist: Option<u64>,
    broadcasted: bool,
}

impl BoundedDistanceSssp {
    /// Creates the per-node program for source `s` and distance limit `L`.
    pub fn new(source: NodeId, limit: u64) -> BoundedDistanceSssp {
        BoundedDistanceSssp {
            source,
            limit,
            dist: None,
            broadcasted: false,
        }
    }
}

impl NodeProgram for BoundedDistanceSssp {
    type Msg = u64; // the sender's settled distance
    type Output = Dist;

    fn start(&mut self, ctx: &NodeCtx, mb: &mut Mailbox<u64>) {
        if ctx.id == self.source {
            self.dist = Some(0);
            self.broadcasted = true;
            mb.broadcast(ctx, 0);
        }
    }

    fn round(
        &mut self,
        ctx: &NodeCtx,
        round: usize,
        inbox: &[(NodeId, u64)],
        mb: &mut Mailbox<u64>,
    ) -> Status {
        for &(from, d_u) in inbox {
            let w = ctx.weight_to(from).expect("message from neighbor");
            let nd = d_u + w;
            if nd <= self.limit && self.dist.is_none_or(|d| nd < d) {
                self.dist = Some(nd);
            }
        }
        if !self.broadcasted {
            if let Some(d) = self.dist {
                // The paper's schedule: broadcast in the round equal to the
                // settled distance. With positive integer weights the value
                // is final by then.
                if d == round as u64 {
                    self.broadcasted = true;
                    mb.broadcast(ctx, d);
                }
            }
        }
        // Nodes holding an unsent scheduled broadcast must keep the network
        // alive; everyone else is passive (messages re-awaken them).
        if self.dist.is_some() && !self.broadcasted {
            Status::Running
        } else {
            Status::Done
        }
    }

    fn finish(self, _ctx: &NodeCtx) -> Dist {
        match self.dist {
            Some(d) => Dist::from(d),
            None => Dist::INFINITY,
        }
    }
}

/// Runs Algorithm 2 on `(g, w)` (the weights of `g` itself) and returns
/// `d(s, ·)` truncated at `limit`, plus statistics.
///
/// The network quiesces once no node holds an unsent broadcast and no
/// message is in flight, which can be before round `L + 1`. Those unsimulated tail rounds are charged as
/// padding (a [`congest_sim::TraceEvent::PadRounds`] event), so the
/// reported round count is the algorithm's specified `L + 1` and measured
/// costs match the paper's schedule.
///
/// # Errors
///
/// Propagates simulator errors.
pub fn bounded_distance_sssp(
    g: &WeightedGraph,
    leader: NodeId,
    source: NodeId,
    limit: u64,
    config: &SimConfig,
) -> Result<(Vec<Dist>, RoundStats), SimError> {
    let telemetry = config.telemetry.clone();
    let span = telemetry.span("bounded_distance_sssp");
    let (out, mut stats) = congest_sim::run_phase(g, leader, config, "alg2_execution", |_, _| {
        BoundedDistanceSssp::new(source, limit)
    })?;
    let padded = (limit as usize + 1).saturating_sub(stats.rounds);
    if padded > 0 {
        telemetry.emit_with(|| congest_sim::TraceEvent::PadRounds {
            rounds: padded,
            reason: format!("Algorithm 2 schedule occupies L + 1 = {} rounds", limit + 1),
        });
    }
    stats.rounds = stats.rounds.max(limit as usize + 1);
    span.end();
    Ok((out, stats))
}

/// Runs Algorithm 1: Algorithm 2 once per scale `i ∈ [0, ⌈log(2nW/ε)⌉]` on
/// the rounded graphs `(G, w_i)`, combining scales into `d̃^ℓ(s, ·)`.
///
/// Returns per-node approximate distances (`f64::INFINITY` where no scale
/// accepted) and the accumulated statistics (`Õ(ℓ/ε)` rounds, Lemma A.1).
///
/// # Errors
///
/// Propagates simulator errors.
///
/// # Examples
///
/// ```
/// use congest_algos::bounded_sssp::bounded_hop_sssp;
/// use congest_graph::{generators, rounding::RoundingScheme};
/// use congest_sim::SimConfig;
///
/// let g = generators::path(6, 4);
/// let scheme = RoundingScheme::new(6, 0.5);
/// let (d, stats) = bounded_hop_sssp(&g, 0, 0, scheme, &SimConfig::standard(6, 4))?;
/// assert!(d[5] >= 20.0 - 1e-9 && d[5] <= 20.0 * 1.5);
/// assert!(stats.rounds > 0);
/// # Ok::<(), congest_sim::SimError>(())
/// ```
pub fn bounded_hop_sssp(
    g: &WeightedGraph,
    leader: NodeId,
    source: NodeId,
    scheme: RoundingScheme,
    config: &SimConfig,
) -> Result<(Vec<ApproxDist>, RoundStats), SimError> {
    let _span = config.telemetry.span("bounded_hop_sssp");
    let mut best = vec![f64::INFINITY; g.n()];
    let mut stats = RoundStats::default();
    let limit = scheme.threshold().floor() as u64;
    let imax = scheme.max_scale(g.n(), g.max_weight());
    for i in 0..=imax {
        let gi = scheme.rounded_graph(g, i);
        let cfg = SimConfig {
            bandwidth: congest_sim::Bandwidth::standard(g.n(), gi.max_weight()),
            ..config.clone()
        };
        let (d, phase_stats) = bounded_distance_sssp(&gi, leader, source, limit, &cfg)?;
        stats.absorb(&phase_stats);
        let unscale = scheme.unscale(i);
        for v in g.nodes() {
            if let Some(x) = d[v].finite() {
                let approx = x as f64 * unscale;
                if approx < best[v] {
                    best[v] = approx;
                }
            }
        }
    }
    Ok((best, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest_graph::rounding::approx_hop_bounded;
    use congest_graph::{generators, shortest_path};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn cfg(g: &WeightedGraph) -> SimConfig {
        SimConfig::standard(g.n(), g.max_weight())
    }

    #[test]
    fn alg2_matches_truncated_dijkstra() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        for _ in 0..6 {
            let g = generators::erdos_renyi_connected(14, 0.2, 5, &mut rng);
            for (s, limit) in [(0usize, 10u64), (3, 25), (7, 4)] {
                let (got, _) = bounded_distance_sssp(&g, 0, s, limit, &cfg(&g)).unwrap();
                let want = shortest_path::bounded_distance(&g, s, Dist::from(limit));
                assert_eq!(got, want, "s={s} L={limit}");
            }
        }
    }

    #[test]
    fn alg2_round_count_is_limit_plus_one() {
        let g = generators::path(5, 2);
        let (_, stats) = bounded_distance_sssp(&g, 0, 0, 12, &cfg(&g)).unwrap();
        assert_eq!(stats.rounds, 13);
    }

    #[test]
    fn alg2_broadcast_schedule_means_one_message_per_node() {
        // Every reachable node broadcasts exactly once: deg-weighted count.
        let g = generators::cycle(8, 1);
        let (_, stats) = bounded_distance_sssp(&g, 0, 0, 8, &cfg(&g)).unwrap();
        // All 8 nodes settle (cycle of unit weights, ecc 4 ≤ 8): 8 broadcasts
        // to 2 neighbors each.
        assert_eq!(stats.messages, 16);
    }

    #[test]
    fn alg1_matches_centralized_reference() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        for trial in 0..4 {
            let g = generators::erdos_renyi_connected(12, 0.25, 6, &mut rng);
            let scheme = RoundingScheme::new(5, 0.4);
            for s in [0usize, 5] {
                let (got, _) = bounded_hop_sssp(&g, 0, s, scheme, &cfg(&g)).unwrap();
                let want = approx_hop_bounded(&g, s, scheme);
                for v in g.nodes() {
                    let (a, b) = (got[v], want[v]);
                    assert!(
                        (a.is_infinite() && b.is_infinite()) || (a - b).abs() < 1e-9,
                        "trial {trial} s={s} v={v}: distributed {a} vs reference {b}"
                    );
                }
            }
        }
    }

    #[test]
    fn alg1_round_cost_scales_with_ell_over_eps() {
        let g = generators::path(10, 3);
        let small = bounded_hop_sssp(&g, 0, 0, RoundingScheme::new(4, 0.5), &cfg(&g))
            .unwrap()
            .1
            .rounds;
        let large = bounded_hop_sssp(&g, 0, 0, RoundingScheme::new(16, 0.5), &cfg(&g))
            .unwrap()
            .1
            .rounds;
        assert!(large > 2 * small, "ℓ/ε scaling: {small} vs {large}");
    }

    #[test]
    fn alg1_sandwich_property() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let g = generators::erdos_renyi_connected(16, 0.2, 8, &mut rng);
        let scheme = RoundingScheme::new(6, 0.3);
        let (got, _) = bounded_hop_sssp(&g, 0, 2, scheme, &cfg(&g)).unwrap();
        let exact = shortest_path::dijkstra(&g, 2);
        let hop = shortest_path::hop_bounded(&g, 2, 6);
        for v in g.nodes() {
            assert!(got[v] >= exact[v].as_f64() - 1e-6);
            if hop[v].is_finite() {
                assert!(got[v] <= 1.3 * hop[v].as_f64() + 1e-6);
            }
        }
    }
}
