//! Algorithm 3 of the paper's Appendix A: Bounded-Hop **Multi-Source**
//! Shortest Paths with random delays (Lemma A.2).
//!
//! `b = |S|` copies of Algorithm 1 run concurrently. The leader samples
//! delays `Δ_1, …, Δ_b ∈ [0, b·⌈log n⌉]` and broadcasts them (pipelined,
//! `O(D + b)` rounds). Each *logical* round is stretched into
//! `⌈log₂ n⌉ + 1` physical rounds so that a node can forward the up to
//! `⌈log n⌉` messages the random delays leave it per logical round; if a
//! node ever has more, the algorithm reports failure (probability
//! `n^{-c}`, Lemma A.2).
//!
//! After `O(D + b) + stretch · (maxΔ + (#scales)(L+1) + 1)` physical rounds
//! — `Õ(D + ℓ/ε + |S|)` — every node `v` knows `d̃^ℓ(s, v)` for every
//! `s ∈ S`.
//!
//! # Wake schedule
//!
//! A node has work in few of those physical rounds, so the stretched
//! program tells the round engine when to step it
//! ([`congest_sim::Status::Sleep`]). It returns `Running` while its send
//! queue is non-empty. Otherwise it sleeps until the boundary (first
//! physical round) of the earliest logical round that can change its state:
//!
//! * the next logical round, if messages wait in its buffer;
//! * each copy's next scale boundary (`rr = 0`: reset, and the source's
//!   start). These stay eager: a reset the node sleeps through inside a
//!   crash window would be observable;
//! * its next scheduled broadcast, logical round `Δ_j + scale·(L+1) + d`
//!   for a copy whose settled distance `d` it has not yet announced;
//! * the final boundary, `maxΔ + (#scales)(L+1) + 1`, where it returns
//!   `Done`.
//!
//! A delivery wakes it early. Every wake is strictly in the future, so a
//! broadcast slot missed while crashed stays missed, exactly as when the
//! node is stepped every round.
//!
//! # Per-step work
//!
//! Nearly all of the run is bookkeeping, so a step does little of it. A
//! boundary computes each copy's `(scale, rr)` once, and the wake schedule
//! reuses them. A relaxation reads `w_i(w)` from a table of
//! `w_i(1..=min(W, 2m))` per scale, shared by every node and filled by
//! [`RoundingScheme::fill_weight_table`], instead of dividing; heavier
//! weights are rounded in place.

use congest_graph::rounding::{ApproxDist, RoundingScheme};
use congest_graph::{NodeId, Weight, WeightedGraph};
use congest_sim::{
    primitives, Mailbox, NodeCtx, NodeProgram, RoundStats, SimConfig, SimError, Status,
};
use rand::Rng;
use std::collections::VecDeque;
use std::sync::Arc;

/// Result of the multi-source run.
#[derive(Clone, Debug)]
pub struct MultiSourceResult {
    /// `approx[v][j] = d̃^ℓ(sources[j], v)`.
    pub approx: Vec<Vec<ApproxDist>>,
    /// Exact wire representation of each entry: `(scale, raw)` with
    /// `value = raw · ε·2^scale/(2ℓ)`; `None` where infinite. This is what
    /// later phases put on the wire (`O(log n)` bits) instead of raw floats.
    pub repr: Vec<Vec<Option<(u32, u64)>>>,
    /// Accumulated statistics of all phases (delay broadcast + main run).
    pub stats: RoundStats,
    /// `true` if some node exceeded its per-logical-round message budget
    /// (the paper's low-probability failure event).
    pub failed: bool,
}

#[derive(Clone)]
struct CopyState {
    dist: Option<u64>,
    broadcasted: bool,
}

#[derive(Clone)]
struct MultiSourceProgram {
    sources: Vec<NodeId>,
    delays: Vec<u64>,
    scheme: RoundingScheme,
    stretch: usize,
    limit: u64,
    num_scales: u32,
    total_logical: u64,
    /// Per-copy state for the *current* scale of that copy.
    copies: Vec<CopyState>,
    /// Each scale's rounded weights `w_i(1..=min(W, 2m))`, shared by every
    /// node, so a relaxation indexes instead of dividing.
    weight_tables: Arc<[Vec<Weight>]>,
    /// Each copy's `(scale, rr)` in logical round `phases_at` (`rr` the
    /// round within the scale), or `None` outside the copy's window.
    phases: Vec<Option<(u32, u64)>>,
    phases_at: u64,
    best: Vec<ApproxDist>,
    best_repr: Vec<Option<(u32, u64)>>,
    queue: VecDeque<(u64, u64)>, // (copy index, distance value)
    buffer: Vec<(NodeId, (u64, u64))>,
    failed: bool,
}

impl MultiSourceProgram {
    /// The program of one node of `g`, before any round, for the
    /// `(source, delay)` schedule: every copy unreached.
    fn new(
        g: &WeightedGraph,
        schedule: &[(NodeId, u64)],
        scheme: RoundingScheme,
    ) -> MultiSourceProgram {
        let b = schedule.len();
        let limit = scheme.threshold().floor() as u64;
        let num_scales = scheme.max_scale(g.n(), g.max_weight()) + 1;
        let max_delay = schedule.iter().map(|&(_, d)| d).max().unwrap_or(0);
        let weight_tables = (0..num_scales)
            .map(|i| {
                let mut table = Vec::new();
                scheme.fill_weight_table(g, i, &mut table);
                table
            })
            .collect();
        MultiSourceProgram {
            sources: schedule.iter().map(|&(s, _)| s).collect(),
            delays: schedule.iter().map(|&(_, d)| d).collect(),
            scheme,
            stretch: log2_ceil(g.n()) + 1,
            limit,
            num_scales,
            total_logical: max_delay + u64::from(num_scales) * (limit + 1) + 1,
            copies: (0..b)
                .map(|_| CopyState {
                    dist: None,
                    broadcasted: false,
                })
                .collect(),
            weight_tables,
            phases: Vec::with_capacity(b),
            phases_at: u64::MAX,
            best: vec![f64::INFINITY; b],
            best_repr: vec![None; b],
            queue: VecDeque::new(),
            buffer: Vec::new(),
            failed: false,
        }
    }

    /// The first logical round after `logical` whose boundary can change
    /// this node's state (see the module docs' wake schedule). Boundaries
    /// in between would find an empty buffer, no copy at `rr = 0` and no
    /// broadcast due: no-ops.
    fn next_event(&mut self, logical: u64) -> u64 {
        if !self.buffer.is_empty() {
            return logical + 1;
        }
        self.set_phases(logical);
        let scale_len = self.limit + 1;
        let mut wake = self.total_logical;
        for (j, st) in self.copies.iter().enumerate() {
            let start = self.delays[j];
            let Some((scale, rr)) = self.phases[j] else {
                if logical < start {
                    wake = wake.min(start);
                }
                continue;
            };
            // The next scale's reset, unless this is the last scale.
            let scale_start = start + u64::from(scale) * scale_len;
            if scale + 1 < self.num_scales {
                wake = wake.min(scale_start + scale_len);
            }
            // An unannounced distance `d` is broadcast at `rr = d`, still
            // ahead only if `d > rr`.
            if let (false, Some(d)) = (st.broadcasted, st.dist) {
                if d > rr {
                    wake = wake.min(scale_start + d);
                }
            }
        }
        wake
    }

    /// Sets `phases` to logical round `logical`'s, unless they already are.
    fn set_phases(&mut self, logical: u64) {
        if self.phases_at == logical {
            return;
        }
        self.phases_at = logical;
        let scale_len = self.limit + 1;
        let t_copy = u64::from(self.num_scales) * scale_len;
        self.phases.clear();
        self.phases.extend(self.delays.iter().map(|&start| {
            let rho = logical.checked_sub(start).filter(|&rho| rho < t_copy)?;
            Some(((rho / scale_len) as u32, rho % scale_len))
        }));
    }

    fn commit(&mut self, j: usize, scale: u32, value: u64) {
        let approx = value as f64 * self.scheme.unscale(scale);
        if approx < self.best[j] {
            self.best[j] = approx;
            self.best_repr[j] = Some((scale, value));
        }
    }

    /// Processes the logical-round boundary for logical round `logical`.
    fn boundary(&mut self, ctx: &NodeCtx, logical: u64) {
        self.set_phases(logical);
        let mut enqueued = 0usize;
        // 1. Scale resets / source starts (copies whose relative round is 0).
        for j in 0..self.copies.len() {
            if let Some((scale, 0)) = self.phases[j] {
                self.copies[j] = CopyState {
                    dist: None,
                    broadcasted: false,
                };
                if ctx.id == self.sources[j] {
                    self.copies[j].dist = Some(0);
                    self.copies[j].broadcasted = true;
                    self.commit(j, scale, 0);
                    self.queue.push_back((j as u64, 0));
                    enqueued += 1;
                }
            }
        }
        // 2. Relax buffered messages (sent during the previous logical round).
        //    A message broadcast in a scale's final round (distance L) arrives
        //    after the scale window closed (rr wrapped to 0) and is dropped,
        //    exactly as in Algorithm 2's bounded window.
        for i in 0..self.buffer.len() {
            let (from, (j, d_u)) = self.buffer[i];
            let j = j as usize;
            let Some((scale, rr)) = self.phases[j] else {
                continue;
            };
            if rr == 0 {
                continue;
            }
            let w = ctx.weight_to(from).expect("neighbor");
            let wi = self
                .scheme
                .table_weight(&self.weight_tables[scale as usize], scale, w);
            let nd = d_u + wi;
            if nd <= self.limit && self.copies[j].dist.is_none_or(|d| nd < d) {
                self.copies[j].dist = Some(nd);
                self.commit(j, scale, nd);
            }
        }
        self.buffer.clear();
        // 3. Scheduled broadcasts: a node whose settled distance equals the
        //    relative round announces it (once per scale).
        for j in 0..self.copies.len() {
            let Some((_, rr)) = self.phases[j] else {
                continue;
            };
            if rr == 0 {
                continue;
            }
            let st = &mut self.copies[j];
            if !st.broadcasted {
                if let Some(d) = st.dist {
                    if d == rr {
                        st.broadcasted = true;
                        self.queue.push_back((j as u64, d));
                        enqueued += 1;
                    }
                }
            }
        }
        // The paper's failure condition: more messages than fit in the
        // stretched logical round.
        if enqueued > self.stretch || self.queue.len() > self.stretch {
            self.failed = true;
        }
    }
}

impl NodeProgram for MultiSourceProgram {
    type Msg = (u64, u64);
    type Output = (Vec<ApproxDist>, Vec<Option<(u32, u64)>>, bool);

    fn start(&mut self, _ctx: &NodeCtx, _mb: &mut Mailbox<(u64, u64)>) {}

    fn round(
        &mut self,
        ctx: &NodeCtx,
        round: usize,
        inbox: &[(NodeId, (u64, u64))],
        mb: &mut Mailbox<(u64, u64)>,
    ) -> Status {
        self.buffer.extend_from_slice(inbox);
        let p = (round - 1) as u64;
        let logical = p / self.stretch as u64;
        let subround = p % self.stretch as u64;
        if logical >= self.total_logical {
            return Status::Done;
        }
        if subround == 0 {
            self.boundary(ctx, logical);
        }
        if let Some(msg) = self.queue.pop_front() {
            mb.broadcast(ctx, msg);
        }
        if self.queue.is_empty() {
            Status::Sleep(self.next_event(logical) as usize * self.stretch + 1)
        } else {
            Status::Running
        }
    }

    fn finish(self, _ctx: &NodeCtx) -> (Vec<ApproxDist>, Vec<Option<(u32, u64)>>, bool) {
        (self.best, self.best_repr, self.failed)
    }
}

/// `⌈log₂ n⌉`, at least 1: the delay range is `b` times it, and a logical
/// round is stretched to one more physical round than it.
fn log2_ceil(n: usize) -> usize {
    ((n.max(2) as f64).log2().ceil() as usize).max(1)
}

/// Runs Algorithm 3: every node learns `d̃^ℓ(s, ·)` for every `s ∈ sources`.
///
/// The leader samples the random delays from `rng` and broadcasts them
/// (pipelined) before the stretched concurrent execution; both phases are
/// charged to the returned statistics.
///
/// # Errors
///
/// Propagates simulator errors.
///
/// # Panics
///
/// Panics if `sources` is empty or contains an out-of-range node.
pub fn multi_source_bounded_hop<R: Rng + ?Sized>(
    g: &WeightedGraph,
    leader: NodeId,
    sources: &[NodeId],
    scheme: RoundingScheme,
    config: &SimConfig,
    rng: &mut R,
) -> Result<MultiSourceResult, SimError> {
    assert!(!sources.is_empty(), "sources must be non-empty");
    assert!(sources.iter().all(|&s| s < g.n()), "source out of range");
    let n = g.n();
    let b = sources.len();
    let log_n = log2_ceil(n);
    let mut stats = RoundStats::default();
    let telemetry = config.telemetry.clone();
    let _algo_span = telemetry.span("multi_source");

    // Phase 0: BFS tree (needed for the delay broadcast).
    let (tree, tree_stats) = primitives::bfs_tree(g, leader, config)?;
    stats.absorb(&tree_stats);

    // Phase 1: the leader samples and broadcasts (source, delay) pairs.
    let delay_cap = (b * log_n) as u64;
    let delays: Vec<u64> = (0..b).map(|_| rng.gen_range(0..=delay_cap)).collect();
    let items: Vec<u128> = sources
        .iter()
        .zip(&delays)
        .map(|(&s, &d)| ((s as u128) << 64) | d as u128)
        .collect();
    // The schedule entries are (node id, delay) — two O(log n)-bit fields
    // packed into a u128; budget the phase for the packing artifact.
    let wide = SimConfig {
        bandwidth: congest_sim::Bandwidth::bits(160),
        ..config.clone()
    };
    let bc_span = telemetry.span("delay_broadcast");
    let (received, bc_stats) = primitives::pipelined_broadcast(g, leader, &wide, &tree, &items)?;
    bc_span.end();
    stats.absorb(&bc_stats);
    // Every node now knows the schedule; unpack (all copies identical).
    let schedule: Vec<(NodeId, u64)> = received[0]
        .iter()
        .map(|&x| ((x >> 64) as NodeId, (x & u64::MAX as u128) as u64))
        .collect();
    debug_assert_eq!(schedule.len(), b);

    // Phase 2: the stretched concurrent execution.
    let program = MultiSourceProgram::new(g, &schedule, scheme);
    let (stretch, total_logical) = (program.stretch, program.total_logical);
    let cfg = SimConfig {
        bandwidth: congest_sim::Bandwidth::standard(n, scheme.rounded_weight(0, g.max_weight())),
        ..config.clone()
    };
    let exec_span = telemetry.span("stretched_execution");
    let (out, mut main_stats) =
        congest_sim::run_phase(g, leader, &cfg, "multi_source_sssp", |_, _| program.clone())?;
    let schedule_rounds = total_logical as usize * stretch;
    let padded = schedule_rounds.saturating_sub(main_stats.rounds);
    if padded > 0 {
        telemetry.emit_with(|| congest_sim::TraceEvent::PadRounds {
            rounds: padded,
            reason: format!(
                "Algorithm 3 stretched schedule occupies {total_logical} x {stretch} rounds"
            ),
        });
    }
    main_stats.rounds = main_stats.rounds.max(schedule_rounds);
    exec_span.end();
    stats.absorb(&main_stats);

    let failed = out.iter().any(|(_, _, f)| *f);
    let mut approx = Vec::with_capacity(out.len());
    let mut repr = Vec::with_capacity(out.len());
    for (best, best_repr, _) in out {
        approx.push(best);
        repr.push(best_repr);
    }
    Ok(MultiSourceResult {
        approx,
        repr,
        stats,
        failed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest_graph::generators;
    use congest_graph::rounding::approx_hop_bounded;
    use congest_sim::telemetry::CollectingTracer;
    use congest_sim::{FaultPlan, Network, Telemetry, TraceEvent};
    use proptest::prelude::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use std::sync::Arc;

    fn cfg(g: &WeightedGraph) -> SimConfig {
        SimConfig::standard(g.n(), g.max_weight()).with_max_rounds(10_000_000)
    }

    #[test]
    fn matches_reference_for_each_source() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        for trial in 0..3 {
            let g = generators::erdos_renyi_connected(12, 0.25, 4, &mut rng);
            let sources = vec![0, 3, 7, 11];
            let scheme = RoundingScheme::new(4, 0.5);
            let res =
                multi_source_bounded_hop(&g, 0, &sources, scheme, &cfg(&g), &mut rng).unwrap();
            assert!(!res.failed, "trial {trial} failed");
            for (j, &s) in sources.iter().enumerate() {
                let want = approx_hop_bounded(&g, s, scheme);
                for v in g.nodes() {
                    let (a, b) = (res.approx[v][j], want[v]);
                    assert!(
                        (a.is_infinite() && b.is_infinite()) || (a - b).abs() < 1e-9,
                        "trial {trial} s={s} v={v}: {a} vs {b}"
                    );
                }
            }
        }
    }

    /// With `W > 2m` the rounded-weight tables stop short of `W`, so the
    /// heavier weights take the in-place rounding fallback.
    #[test]
    fn heavy_weights_match_reference_for_each_source() {
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let g = generators::erdos_renyi_connected(10, 0.3, 1_000_000, &mut rng);
        assert!(
            g.max_weight() > 2 * g.m() as u64,
            "weights exceed the tables"
        );
        let sources: Vec<NodeId> = g.nodes().collect();
        let scheme = RoundingScheme::new(4, 0.5);
        let res = multi_source_bounded_hop(&g, 0, &sources, scheme, &cfg(&g), &mut rng).unwrap();
        assert!(!res.failed);
        for (j, &s) in sources.iter().enumerate() {
            let want = approx_hop_bounded(&g, s, scheme);
            for v in g.nodes() {
                assert_eq!(res.approx[v][j].to_bits(), want[v].to_bits(), "s={s} v={v}");
            }
        }
    }

    #[test]
    fn single_source_degenerates_to_algorithm_1() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let g = generators::path(8, 3);
        let scheme = RoundingScheme::new(8, 0.5);
        let res = multi_source_bounded_hop(&g, 0, &[2], scheme, &cfg(&g), &mut rng).unwrap();
        let want = approx_hop_bounded(&g, 2, scheme);
        for v in g.nodes() {
            assert!((res.approx[v][0] - want[v]).abs() < 1e-9 || want[v].is_infinite());
        }
    }

    #[test]
    fn round_cost_matches_lemma_a2_shape() {
        // Õ(D + ℓ/ε + b): doubling b at fixed ℓ should not double the rounds
        // (sources run concurrently, not sequentially).
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let g = generators::cycle(16, 2);
        let scheme = RoundingScheme::new(6, 0.5);
        let r1 = multi_source_bounded_hop(&g, 0, &[1], scheme, &cfg(&g), &mut rng).unwrap();
        let r4 =
            multi_source_bounded_hop(&g, 0, &[1, 5, 9, 13], scheme, &cfg(&g), &mut rng).unwrap();
        assert!(
            (r4.stats.rounds as f64) < 2.0 * r1.stats.rounds as f64,
            "concurrency lost: {} vs {}",
            r1.stats.rounds,
            r4.stats.rounds
        );
    }

    #[test]
    fn all_nodes_as_sources_works() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let g = generators::star(6, 2);
        let sources: Vec<NodeId> = (0..6).collect();
        let scheme = RoundingScheme::new(3, 0.5);
        let res = multi_source_bounded_hop(&g, 0, &sources, scheme, &cfg(&g), &mut rng).unwrap();
        assert!(!res.failed);
        // d̃(v, v) = 0 for every v.
        for v in 0..6 {
            assert_eq!(res.approx[v][v], 0.0);
        }
    }

    /// [`MultiSourceProgram`] with every `Sleep` reported as `Running`, so
    /// the engine steps it in every round.
    struct Dense(MultiSourceProgram);

    impl NodeProgram for Dense {
        type Msg = (u64, u64);
        type Output = <MultiSourceProgram as NodeProgram>::Output;

        fn start(&mut self, ctx: &NodeCtx, mb: &mut Mailbox<(u64, u64)>) {
            self.0.start(ctx, mb);
        }

        fn round(
            &mut self,
            ctx: &NodeCtx,
            round: usize,
            inbox: &[(NodeId, (u64, u64))],
            mb: &mut Mailbox<(u64, u64)>,
        ) -> Status {
            match self.0.round(ctx, round, inbox, mb) {
                Status::Sleep(_) => Status::Running,
                status => status,
            }
        }

        fn finish(self, ctx: &NodeCtx) -> Self::Output {
            self.0.finish(ctx)
        }
    }

    /// What one stretched execution observably produces: `approx` as bits,
    /// `repr` and `failed` per node, then the run's statistics and its
    /// trace-event sequence (every drop, crash and recovery included).
    type Observed = (
        Vec<(Vec<u64>, Vec<Option<(u32, u64)>>, bool)>,
        RoundStats,
        Vec<TraceEvent>,
    );

    fn observe<P>(g: &WeightedGraph, cfg: &SimConfig, make: impl Fn() -> P) -> Observed
    where
        P: NodeProgram<Output = (Vec<ApproxDist>, Vec<Option<(u32, u64)>>, bool)>,
    {
        let tracer = Arc::new(CollectingTracer::default());
        let cfg = cfg.clone().with_telemetry(Telemetry::new(tracer.clone()));
        let mut net = Network::new(g, 0, cfg, |_, _| make());
        let out = net.run().expect("stretched execution succeeds");
        let out = out
            .into_iter()
            .map(|(best, repr, failed)| (best.iter().map(|d| d.to_bits()).collect(), repr, failed))
            .collect();
        (out, net.stats().clone(), tracer.events())
    }

    /// A stretched execution's inputs: graph, `(source, delay)` schedule,
    /// rounding scheme and fault plan. One graph in four has weights up to
    /// `10⁶`, past the end of the rounded-weight tables.
    fn arb_stretched() -> impl Strategy<
        Value = (
            WeightedGraph,
            Vec<(NodeId, u64)>,
            RoundingScheme,
            Option<FaultPlan>,
        ),
    > {
        (
            4usize..20,
            any::<u64>(),
            1usize..6,
            2usize..6,
            0usize..5,
            any::<u64>(),
        )
            .prop_map(|(n, seed, b, ell, faultiness, fseed)| {
                let mut rng = ChaCha8Rng::seed_from_u64(seed);
                let max_w = if rng.gen_bool(0.25) { 1_000_000 } else { 6 };
                let g = generators::erdos_renyi_connected(n, 0.3, max_w, &mut rng);
                let delay_cap = (b * log2_ceil(n)) as u64;
                let schedule = (0..b.min(n))
                    .map(|_| (rng.gen_range(0..n), rng.gen_range(0..=delay_cap)))
                    .collect();
                let scheme = RoundingScheme::new(ell, 0.5);
                let node = rng.gen_range(0..n);
                // FaultSpec::Crash windows open in rounds 1..=6 for 1..=8
                // rounds; the wide and permanent ones cross many wakes.
                let plan = match faultiness {
                    0 => None,
                    1 => {
                        let from: usize = rng.gen_range(1..=6);
                        Some(FaultPlan::new(fseed).with_crash(
                            node,
                            from,
                            Some(from + rng.gen_range(1..=8usize)),
                        ))
                    }
                    2 => {
                        let from: usize = rng.gen_range(1..400);
                        Some(FaultPlan::new(fseed).with_crash(
                            node,
                            from,
                            Some(from + rng.gen_range(1..300usize)),
                        ))
                    }
                    3 => Some(FaultPlan::new(fseed).with_crash(node, rng.gen_range(1..600), None)),
                    _ => Some(FaultPlan::new(fseed).with_drop_rate(0.2)),
                };
                (g, schedule, scheme, plan)
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]

        /// Sleeping between events changes nothing observable: the same
        /// estimates, wire representations, failure flags, statistics and
        /// trace events as stepping every node every round.
        #[test]
        fn sleeping_multi_source_matches_dense(case in arb_stretched()) {
            let (g, schedule, scheme, plan) = case;
            let w = scheme.rounded_weight(0, g.max_weight());
            let mut cfg = SimConfig::standard(g.n(), w).with_message_log();
            if let Some(plan) = plan {
                cfg = cfg.with_faults(plan);
            }
            let program = MultiSourceProgram::new(&g, &schedule, scheme);
            let sleeping = observe(&g, &cfg, || program.clone());
            let dense = observe(&g, &cfg, || Dense(program.clone()));
            prop_assert_eq!(sleeping, dense);
        }
    }
}
