//! Integration properties of the fault-injection subsystem: trace
//! determinism (the same `FaultPlan` seed replays bit-for-bit) and
//! zero-fault transparency (an all-zero plan is indistinguishable from no
//! plan at all).

mod common;

use common::SharedBuf;
use congest_graph::{generators, NodeId, WeightedGraph};
use congest_sim::telemetry::JsonlTracer;
use congest_sim::{
    primitives, FaultPlan, Mailbox, Network, NodeCtx, NodeProgram, SimConfig, SimError, Status,
    Telemetry,
};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

/// Leader-rooted flood with a fixed deadline: every node forwards the token
/// once and halts at `deadline` regardless of what the fault model did, so
/// runs terminate under arbitrary loss and crash schedules.
struct Flood {
    deadline: usize,
    heard: bool,
}

impl NodeProgram for Flood {
    type Msg = u32;
    type Output = bool;

    fn start(&mut self, ctx: &NodeCtx, mb: &mut Mailbox<u32>) {
        if ctx.is_leader() {
            self.heard = true;
            mb.broadcast(ctx, 1);
        }
    }

    fn round(
        &mut self,
        ctx: &NodeCtx,
        round: usize,
        inbox: &[(NodeId, u32)],
        mb: &mut Mailbox<u32>,
    ) -> Status {
        if !self.heard && !inbox.is_empty() {
            self.heard = true;
            mb.broadcast(ctx, 1);
        }
        if round >= self.deadline {
            Status::Done
        } else {
            Status::Running
        }
    }

    fn finish(self, _ctx: &NodeCtx) -> bool {
        self.heard
    }
}

fn arb_graph() -> impl Strategy<Value = WeightedGraph> {
    (4usize..20, any::<u64>()).prop_map(|(n, seed)| {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        generators::erdos_renyi_connected(n, 0.3, 4, &mut rng)
    })
}

fn cfg(g: &WeightedGraph) -> SimConfig {
    SimConfig::standard(g.n(), g.max_weight()).with_max_rounds(10_000)
}

/// One traced flood under `plan`, returning the raw JSONL bytes, the
/// per-node outputs, and the stats.
fn traced_flood(
    g: &WeightedGraph,
    plan: FaultPlan,
) -> (String, Vec<bool>, congest_sim::RoundStats) {
    let buf = SharedBuf::default();
    let telemetry = Telemetry::new(Arc::new(JsonlTracer::new(Box::new(buf.clone()))));
    let config = cfg(g).with_telemetry(telemetry.clone()).with_faults(plan);
    let deadline = 3 * g.n();
    let mut net = Network::new(g, 0, config, |_, _| Flood {
        deadline,
        heard: false,
    });
    let out = net.run().expect("deadline flood always terminates");
    let stats = net.stats().clone();
    telemetry.flush();
    (buf.contents(), out, stats)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Replaying the same `FaultPlan` (same seed, same knobs) on the same
    /// graph produces a bit-identical JSONL trace, identical outputs, and
    /// identical stats: fault decisions are pure functions of the plan.
    #[test]
    fn same_plan_replays_bit_identically(
        g in arb_graph(),
        seed in any::<u64>(),
        rate in 0.0f64..0.45,
        with_crash in any::<bool>(),
        pick in any::<u64>(),
        from in 1usize..6,
        len in 1usize..5,
    ) {
        let mut plan = FaultPlan::new(seed).with_drop_rate(rate);
        if with_crash {
            // A transient crash of a non-leader node.
            let node = 1 + (pick as usize) % (g.n() - 1);
            plan = plan.with_crash(node, from, Some(from + len));
        }
        let (trace_a, out_a, stats_a) = traced_flood(&g, plan.clone());
        let (trace_b, out_b, stats_b) = traced_flood(&g, plan);
        prop_assert_eq!(trace_a, trace_b);
        prop_assert_eq!(out_a, out_b);
        prop_assert_eq!(stats_a, stats_b);
    }

    /// An all-zero plan is pay-as-you-go: outputs and the full `RoundStats`
    /// (rounds included) are identical to a plain network with no fault
    /// oracle installed at all.
    #[test]
    fn zero_plan_is_indistinguishable_from_no_plan(
        g in arb_graph(),
        seed in any::<u64>(),
    ) {
        let deadline = 3 * g.n();
        let make = |_: usize, _: &NodeCtx| Flood { deadline, heard: false };

        let mut plain = Network::new(&g, 0, cfg(&g), make);
        let out_plain = plain.run().unwrap();

        let zero_cfg = cfg(&g).with_faults(FaultPlan::new(seed));
        let mut zeroed = Network::new(&g, 0, zero_cfg, make);
        let out_zeroed = zeroed.run().unwrap();

        prop_assert_eq!(out_plain, out_zeroed);
        prop_assert_eq!(plain.stats(), zeroed.stats());
        prop_assert!(zeroed.stats().resilience.is_zero());
    }
}

/// Regression tests for the convergecast primitives under crash-window
/// fault plans. These used to `expect("convergecast completed")` /
/// `expect("vector cast completed")` inside `finish`, panicking whenever a
/// crash left a node without its result at quiescence; they must now either
/// succeed (the leader got its answer) or surface a typed
/// [`SimError::PhaseIncomplete`].
mod phase_incomplete {
    use super::*;
    use primitives::Aggregate;

    /// Path `0-1-2-3`, leader 0, with the clean BFS tree computed up front
    /// so the cast itself is the only faulted phase.
    fn path_tree() -> (WeightedGraph, Vec<primitives::TreeInfo>) {
        let g = generators::path(4, 1);
        let clean = SimConfig::standard(g.n(), g.max_weight()).with_max_rounds(10_000);
        let (tree, _) = primitives::bfs_tree(&g, 0, &clean).unwrap();
        (g, tree)
    }

    /// Every node crashed from round 1 onward: the network quiesces
    /// immediately with the leader result-less. Previously a panic; now a
    /// typed error naming the phase and the missing node.
    #[test]
    fn converge_cast_under_total_crash_is_a_typed_error() {
        let (g, tree) = path_tree();
        let mut plan = FaultPlan::new(7);
        for v in 0..g.n() {
            plan = plan.with_crash(v, 1, None);
        }
        let config = cfg(&g).with_faults(plan);
        let err = primitives::converge_cast(&g, 0, &config, &tree, &[3, 1, 4, 1], Aggregate::Sum)
            .unwrap_err();
        assert!(
            matches!(
                err,
                SimError::PhaseIncomplete {
                    phase: "converge_cast",
                    node: 0,
                }
            ),
            "expected PhaseIncomplete for the leader, got: {err}"
        );
    }

    /// Same total-crash schedule over the pipelined vector cast.
    #[test]
    fn converge_cast_vec_under_total_crash_is_a_typed_error() {
        let (g, tree) = path_tree();
        let mut plan = FaultPlan::new(7);
        for v in 0..g.n() {
            plan = plan.with_crash(v, 1, None);
        }
        let config = cfg(&g).with_faults(plan);
        let values: Vec<Vec<u128>> = (0..g.n() as u128).map(|v| vec![v, 10 + v]).collect();
        let err = primitives::converge_cast_vec(&g, 0, &config, &tree, &values, Aggregate::Max)
            .unwrap_err();
        assert!(
            matches!(
                err,
                SimError::PhaseIncomplete {
                    phase: "vector_cast",
                    node: 0,
                }
            ),
            "expected PhaseIncomplete for the leader, got: {err}"
        );
    }

    /// The deepest leaf crashes *after* its contribution flowed up but
    /// before the downcast reaches it. The leader still aggregates the full
    /// sum, so the call must return `Ok` — under the old `finish` this
    /// exact schedule panicked with "convergecast completed".
    #[test]
    fn crashed_leaf_during_downcast_no_longer_panics() {
        let (g, tree) = path_tree();
        // Node 3's `Up` is sent in `start` and delivered in round 1; crash
        // it from round 2 so only the downcast to it is lost.
        let plan = FaultPlan::new(7).with_crash(3, 2, None);
        let config = cfg(&g).with_faults(plan);
        let (sum, _) =
            primitives::converge_cast(&g, 0, &config, &tree, &[3, 1, 4, 1], Aggregate::Sum)
                .expect("leader aggregated the full sum before the leaf crashed");
        assert_eq!(sum, 9);
    }

    /// Vector-cast analogue: the leaf has forwarded both elements by round
    /// 2 (one per round, pipelined), so crashing it from round 3 loses only
    /// its copy of the downcast. Previously panicked with "vector cast
    /// completed".
    #[test]
    fn crashed_leaf_during_vector_downcast_no_longer_panics() {
        let (g, tree) = path_tree();
        let plan = FaultPlan::new(7).with_crash(3, 3, None);
        let config = cfg(&g).with_faults(plan);
        let values: Vec<Vec<u128>> = (0..g.n() as u128).map(|v| vec![v, 10 + v]).collect();
        let (maxes, _) =
            primitives::converge_cast_vec(&g, 0, &config, &tree, &values, Aggregate::Max)
                .expect("leader aggregated both elements before the leaf crashed");
        assert_eq!(maxes, vec![3, 13]);
    }
}
