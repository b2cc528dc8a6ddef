//! The parallel round engine's load-bearing property, tested: under the
//! `parallel` feature, [`Parallelism::Parallel`] produces **bit-identical**
//! observable behavior to the sequential engine — node outputs, the full
//! [`RoundStats`] (including the [`ResilienceBudget`] and message log),
//! per-node [`Quality`], and the exact trace-event sequence — across random
//! graphs, payload seeds, fault plans, and thread-pool sizes.
//!
//! CI's parallel lane greps for these tests by name; renaming them breaks
//! the "equivalence tests actually ran" check in `.github/workflows/ci.yml`.

#![cfg(feature = "parallel")]

use std::sync::Arc;

use congest_graph::{generators, NodeId, WeightedGraph};
use congest_sim::telemetry::CollectingTracer;
use congest_sim::{
    FaultPlan, Mailbox, Network, NodeCtx, NodeProgram, Parallelism, Quality, RoundStats, SimConfig,
    Status, Telemetry, TraceEvent,
};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use wdr_metrics::util::mix64;

/// Gossip workload: each node folds its inbox into a digest and rebroadcasts
/// for a fixed number of rounds. The digest is sensitive to message *order*,
/// so any merge-order divergence between the engines shows up in the output.
struct Gossip {
    digest: u64,
    rounds: usize,
}

impl NodeProgram for Gossip {
    type Msg = u64;
    type Output = u64;

    fn start(&mut self, ctx: &NodeCtx, mb: &mut Mailbox<u64>) {
        self.digest = mix64(ctx.id as u64 + 1);
        mb.broadcast(ctx, self.digest);
    }

    fn round(
        &mut self,
        ctx: &NodeCtx,
        round: usize,
        inbox: &[(NodeId, u64)],
        mb: &mut Mailbox<u64>,
    ) -> Status {
        // Deliberately order-sensitive fold (not commutative).
        for &(from, d) in inbox {
            self.digest = mix64(self.digest.rotate_left(7) ^ d ^ from as u64);
        }
        if round < self.rounds {
            mb.broadcast(ctx, self.digest);
            Status::Running
        } else {
            Status::Done
        }
    }

    fn finish(self, _ctx: &NodeCtx) -> u64 {
        self.digest
    }
}

/// Everything an engine run observably produces.
#[derive(Debug, PartialEq)]
struct Observed {
    outputs: Vec<(u64, Quality)>,
    stats: RoundStats,
    events: Vec<TraceEvent>,
}

fn run_engine(g: &WeightedGraph, base: &SimConfig, mode: Parallelism, rounds: usize) -> Observed {
    let tracer = Arc::new(CollectingTracer::default());
    let config = base
        .clone()
        .with_telemetry(Telemetry::new(tracer.clone()))
        .with_parallelism(mode);
    let mut net = Network::new(g, 0, config, |_, _| Gossip { digest: 0, rounds });
    let outputs = net.run_with_quality().expect("run succeeds");
    let stats = net.stats().clone();
    Observed {
        outputs,
        stats,
        events: tracer.events(),
    }
}

fn arb_case() -> impl Strategy<Value = (WeightedGraph, usize, Option<FaultPlan>)> {
    (
        4usize..20,
        any::<u64>(),
        3usize..10,
        any::<u64>(),
        0usize..4,
    )
        .prop_map(|(n, gseed, rounds, fseed, faultiness)| {
            let mut rng = ChaCha8Rng::seed_from_u64(gseed);
            let g = generators::erdos_renyi_connected(n, 0.25, 4, &mut rng);
            // faultiness 0 = lossless run; 1..=3 = drops plus that many
            // transient non-leader crashes (so the run still quiesces).
            let plan = (faultiness > 0 && n > 4).then(|| {
                let mut plan = FaultPlan::new(fseed).with_drop_rate(0.15);
                for c in 0..faultiness - 1 {
                    plan = plan.with_crash(1 + c, 1 + c, Some(3 + c));
                }
                plan
            });
            (g, rounds, plan)
        })
}

fn base_cfg(g: &WeightedGraph, plan: Option<FaultPlan>) -> SimConfig {
    let mut cfg = SimConfig {
        bandwidth: congest_sim::Bandwidth::bits(160),
        ..SimConfig::standard(g.n(), g.max_weight())
    }
    .with_message_log()
    .with_channel_profile();
    if let Some(plan) = plan {
        cfg = cfg.with_faults(plan);
    }
    cfg
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Sequential and parallel engines agree bit-for-bit on outputs, stats
    /// (rounds, messages, bits, message log, resilience budget), per-node
    /// quality, and the complete trace-event sequence.
    #[test]
    fn parallel_engine_is_bit_identical(case in arb_case()) {
        let (g, rounds, plan) = case;
        let cfg = base_cfg(&g, plan);
        let seq = run_engine(&g, &cfg, Parallelism::Sequential, rounds);
        let par = run_engine(&g, &cfg, Parallelism::Parallel, rounds);
        prop_assert_eq!(&seq.outputs, &par.outputs);
        prop_assert_eq!(&seq.stats, &par.stats);
        prop_assert_eq!(&seq.events, &par.events);
    }

    /// The agreement is independent of the thread-pool size.
    #[test]
    fn parallel_engine_is_pool_size_invariant(case in arb_case(), threads in 1usize..9) {
        let (g, rounds, plan) = case;
        let cfg = base_cfg(&g, plan);
        let seq = run_engine(&g, &cfg, Parallelism::Sequential, rounds);
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("thread pool builds");
        let par = pool.install(|| run_engine(&g, &cfg, Parallelism::Parallel, rounds));
        prop_assert_eq!(&seq.outputs, &par.outputs);
        prop_assert_eq!(&seq.stats, &par.stats);
        prop_assert_eq!(&seq.events, &par.events);
    }
}

/// Fixed-seed smoke version so `cargo test parallel_engine` always has a
/// deterministic, fast member even under `--test-threads=1`.
#[test]
fn parallel_engine_matches_on_fixed_case() {
    let mut rng = ChaCha8Rng::seed_from_u64(42);
    let g = generators::erdos_renyi_connected(16, 0.3, 4, &mut rng);
    let plan = FaultPlan::new(7)
        .with_drop_rate(0.2)
        .with_crash(3, 2, Some(5));
    let cfg = base_cfg(&g, Some(plan));
    let seq = run_engine(&g, &cfg, Parallelism::Sequential, 8);
    let par = run_engine(&g, &cfg, Parallelism::Parallel, 8);
    assert_eq!(seq, par);
}
