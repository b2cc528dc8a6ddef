//! The round engine's zero-allocation claim, measured: once the arenas have
//! warmed up (a handful of rounds grows every inbox, outbox, and scratch
//! buffer to its steady-state capacity), `Network::step` must not touch the
//! heap at all — **including with a [`SimMetrics`] tracer attached**,
//! whose per-round updates are relaxed atomic adds on pre-registered
//! handles. A counting global allocator makes any regression — a stray
//! `clone`, a rebuilt `Vec`, a formatted string — an immediate test failure
//! rather than a slow perf drift.
//!
//! The library itself is `#![forbid(unsafe_code)]`; the `GlobalAlloc` shim
//! comes from `wdr_metrics::heap`, which carries the only `unsafe` in the
//! metrics stack. This file holds exactly one `#[test]` so no sibling test
//! can allocate concurrently and pollute the counters.

use std::alloc::System;

use congest_graph::{generators, NodeId};
use congest_sim::{
    Bandwidth, Mailbox, Network, NodeCtx, NodeProgram, SimConfig, SimMetrics, Status, Telemetry,
};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;
use wdr_metrics::heap::{heap_ops, track_current_thread, CountingAlloc};
use wdr_metrics::util::mix64;
use wdr_metrics::MetricsRegistry;

#[global_allocator]
static GLOBAL: CountingAlloc<System> = CountingAlloc::new(System);

/// Endless gossip: every node rebroadcasts a mixed digest every round, so
/// each steady-state round moves `2m` messages through the full pipeline
/// (dispatch, bandwidth accounting, arena merge).
struct EndlessGossip {
    digest: u64,
}

impl NodeProgram for EndlessGossip {
    type Msg = u64;
    type Output = u64;

    fn start(&mut self, ctx: &NodeCtx, mb: &mut Mailbox<u64>) {
        self.digest = mix64(ctx.id as u64 + 1);
        mb.broadcast(ctx, self.digest);
    }

    fn round(
        &mut self,
        ctx: &NodeCtx,
        _round: usize,
        inbox: &[(NodeId, u64)],
        mb: &mut Mailbox<u64>,
    ) -> Status {
        for &(_, d) in inbox {
            self.digest = mix64(self.digest ^ d);
        }
        mb.broadcast(ctx, self.digest);
        Status::Running
    }

    fn finish(self, _ctx: &NodeCtx) -> u64 {
        self.digest
    }
}

#[test]
fn steady_state_rounds_do_not_allocate() {
    track_current_thread();
    let mut rng = ChaCha8Rng::seed_from_u64(11);
    let g = generators::erdos_renyi_connected(40, 0.15, 1, &mut rng);
    let registry = MetricsRegistry::new();
    let metrics = Arc::new(SimMetrics::register(&registry, "sim"));
    let config = SimConfig {
        bandwidth: Bandwidth::bits(160),
        ..SimConfig::standard(g.n(), 1)
    }
    .with_telemetry(Telemetry::new(metrics.clone()));
    let mut net = Network::new(&g, 0, config, |_, _| EndlessGossip { digest: 0 });

    // Warm-up: the first steps grow every arena (inboxes, pending, outboxes,
    // channel scratch) to steady-state capacity.
    for _ in 0..8 {
        net.step().expect("warm-up step succeeds");
    }

    let rounds_before = metrics.rounds.get();
    let before = heap_ops();
    for _ in 0..32 {
        net.step().expect("steady-state step succeeds");
    }
    let delta = heap_ops() - before;
    assert_eq!(
        delta, 0,
        "steady-state rounds (metrics attached) must be allocation-free, \
         saw {delta} heap ops over 32 rounds"
    );
    assert_eq!(
        metrics.rounds.get() - rounds_before,
        32,
        "the metrics bundle observed every steady-state round"
    );
    assert_eq!(metrics.messages.get(), net.stats().messages);
    assert_eq!(metrics.bits.get(), net.stats().bits);
}
