//! Criterion benchmark of the round engine (E8): wall-clock cost of
//! `Network::step` on dense gossip workloads.
//!
//! ```sh
//! cargo bench -p wdr-bench --bench step_engine
//! ```
//!
//! This bench times the raw engine; the tables binary's E8 experiment
//! (`--exp e8`) additionally times it with a `SimMetrics` bundle attached
//! and emits `BENCH_step_engine.json`.

use congest_graph::{generators, NodeId, WeightedGraph};
use congest_sim::{run_phase, Bandwidth, Mailbox, NodeCtx, NodeProgram, SimConfig, Status};
use criterion::{criterion_group, criterion_main, Criterion};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use wdr_metrics::util::mix64;

const ROUNDS: usize = 40;
const WORK: u32 = 64;

struct GossipMix {
    digest: u64,
}

impl NodeProgram for GossipMix {
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
        for &(_, d) in inbox {
            self.digest = mix64(self.digest ^ d);
        }
        for _ in 0..WORK {
            self.digest = mix64(self.digest);
        }
        if round < ROUNDS {
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

fn dense(n: usize) -> WeightedGraph {
    let mut rng = ChaCha8Rng::seed_from_u64(8800 + n as u64);
    generators::erdos_renyi_connected(n, 0.3, 1, &mut rng)
}

fn run_gossip(g: &WeightedGraph, config: &SimConfig) -> u64 {
    let (out, _) = run_phase(g, 0, config, "e8_gossip", |_, _| GossipMix { digest: 0 })
        .expect("gossip run succeeds");
    out.iter().fold(0, |acc, &d| mix64(acc ^ d))
}

fn bench_sequential(c: &mut Criterion) {
    for n in [48usize, 96, 192] {
        let g = dense(n);
        let config = SimConfig {
            bandwidth: Bandwidth::bits(160),
            ..SimConfig::standard(g.n(), 1)
        };
        c.bench_function(&format!("step_engine/sequential/n={n}"), |b| {
            b.iter(|| run_gossip(&g, &config))
        });
    }
}

criterion_group!(step_engine, bench_sequential);
criterion_main!(step_engine);
