//! Criterion micro-benchmarks of the conformance batch engine: the same
//! corpus slice driven through the graph-grouped executor at several lane
//! counts. The E12 experiment gates the end-to-end fan-out speedup; these
//! benches keep the per-layer costs visible — one lane is the default
//! (`lanes: None`), and the lane sweep localizes scheduling overhead when
//! the gate regresses.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use wdr_conformance::runner::{self, SuiteOptions};
use wdr_conformance::scenario::ScenarioSpec;

/// A small corpus prefix: big enough to contain shareable graph groups
/// (deterministic families repeat across seeds), small enough that a
/// criterion iteration stays in the tens of milliseconds.
fn corpus() -> Vec<ScenarioSpec> {
    runner::generate_corpus(12)
}

fn run(specs: &[ScenarioSpec], lanes: Option<usize>) -> usize {
    let options = SuiteOptions {
        lanes,
        ..SuiteOptions::default()
    };
    let report = runner::run_suite(black_box(specs), &options);
    assert!(report.passed(), "bench corpus must stay green");
    report.outcomes.len()
}

/// The batch engine across lane counts. One lane is grouping + shared
/// setups alone; higher lane counts add parallel fan-out on top (a wash
/// on few-core hosts, the E12 gate elsewhere).
fn batched(c: &mut Criterion) {
    let specs = corpus();
    for lanes in [1usize, 2, 4] {
        c.bench_function(&format!("batch_lanes{lanes}_12"), |b| {
            b.iter(|| run(&specs, Some(lanes)))
        });
    }
}

/// Grouping alone: the spec → graph-key partition the engine fans over.
/// Pure CPU, no scenario execution — a canary for key-derivation cost.
fn grouping(c: &mut Criterion) {
    let specs = runner::generate_corpus(48);
    c.bench_function("batch_group_by_graph_48", |b| {
        b.iter(|| wdr_conformance::batch::group_by_graph(black_box(&specs)).len())
    });
}

criterion_group!(benches, batched, grouping);
criterion_main!(benches);
