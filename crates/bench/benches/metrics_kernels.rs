//! Criterion benchmark of the ground-truth metric kernels (ISSUE E9):
//! wall-clock cost of the seed's brute-force `n`-sweep extremes vs the
//! pruned SumSweep computer, plus the raw SSSP workspace kernels on both
//! sides of the Dial/heap switchover.
//!
//! ```sh
//! cargo bench -p wdr-bench --bench metrics_kernels
//! ```
//!
//! This bench times the raw kernels; the tables binary's E9 experiment
//! (`--exp e9`) additionally cross-checks every kernel's answers against
//! brute force and emits `BENCH_metrics_kernels.json`.

use congest_graph::sweep::{self, EdgeMetric};
use congest_graph::{generators, SsspWorkspace, WeightedGraph, DIAL_MAX_WEIGHT};
use criterion::{criterion_group, criterion_main, Criterion};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn er(n: usize, w: u64) -> WeightedGraph {
    let mut rng = ChaCha8Rng::seed_from_u64(9900 + 17 * n as u64 + w);
    let p = (2.0 * (n as f64).ln() / n as f64).min(1.0);
    generators::erdos_renyi_connected(n, p, w, &mut rng)
}

fn bench_extremes(c: &mut Criterion) {
    for n in [128usize, 256, 512] {
        let g = er(n, 8);
        c.bench_function(&format!("metrics_kernels/brute/n={n}"), |b| {
            b.iter(|| sweep::brute_force_extremes(&g, EdgeMetric::Weighted))
        });
        c.bench_function(&format!("metrics_kernels/sumsweep/n={n}"), |b| {
            b.iter(|| sweep::extremes(&g))
        });
    }
}

fn bench_sssp_workspace(c: &mut Criterion) {
    // One graph per regime: W = 8 stays on the Dial bucket queue, a heavy
    // weight forces the binary heap; identical topology otherwise.
    let n = 512;
    for (name, w) in [("dial", 8), ("heap", 100 * DIAL_MAX_WEIGHT)] {
        let g = er(n, w);
        let mut ws = SsspWorkspace::new();
        ws.dijkstra_into(&g, 0); // warm the scratch buffers once
        let mut src = 0;
        c.bench_function(&format!("metrics_kernels/sssp/{name}/n={n}"), |b| {
            b.iter(|| {
                src = (src + 1) % g.n();
                ws.dijkstra_into(&g, src).last().copied()
            })
        });
    }
    let g = er(n, 1);
    let mut ws = SsspWorkspace::new();
    let mut src = 0;
    c.bench_function(&format!("metrics_kernels/bfs/n={n}"), |b| {
        b.iter(|| {
            src = (src + 1) % g.n();
            ws.bfs_into(&g, src).last().copied()
        })
    });
}

criterion_group!(metrics_kernels, bench_extremes, bench_sssp_workspace);
criterion_main!(metrics_kernels);
