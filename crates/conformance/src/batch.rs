//! Many-seed batch execution engine: one graph-grouped executor shared by
//! the conformance runner and the ablation harness.
//!
//! The engine splits a corpus run into the two halves the algorithm's own
//! structure suggests (the paper fixes the skeleton and distance-scale
//! schedule per graph while only the Grover randomness varies per run):
//!
//! * **shared-immutable, once per graph group** — specs are grouped by
//!   [`graph_key`] (specs with equal keys build byte-identical graphs), and
//!   each group gets one [`SharedSetup`]: the [`WeightedGraph`] plus its
//!   lazily-cached derived metrics (`D`, weighted/unweighted extremes);
//! * **per-seed mutable, one result per scenario** — RNG streams, Grover
//!   measurement tallies, oracle verdicts, and timings are returned per
//!   spec, in corpus order.
//!
//! [`run_grouped`] fans the groups across a dedicated vendored-rayon pool
//! (`lanes: None` is one lane, not a separate code path). Each group task
//! installs its *own* mutation and search-metrics guards (both are
//! thread-local scope guards), so mutation self-checks and live counters
//! behave identically at every lane count; the counters are shared
//! atomics, so corpus-wide totals are independent of lane scheduling.
//! Results are written back into their original corpus slots, so the
//! returned order, and every value in it, is identical at every lane count
//! and equal to running each spec alone. The `tests/batch_equiv.rs`
//! proptests pin exactly that.
//!
//! [`WeightedGraph`]: congest_graph::WeightedGraph
//! [`SharedSetup`]: crate::oracle::SharedSetup

use crate::oracle::{self, ScenarioOutcome, SharedSetup};
use crate::scenario::{Family, ScenarioSpec};
use quantum_sim::mutation::Mutation;
use quantum_sim::SearchMetrics;
use std::collections::HashMap;
use std::hash::Hash;
use std::panic::AssertUnwindSafe;
use std::time::Instant;

/// Per-scenario wall-time breakdown: what was spent building the shared
/// setup (graph + topology metrics) vs executing the oracles.
///
/// Timings are observational only — they are *excluded* from the
/// batch-equivalence fingerprint ([`crate::runner::fingerprint`]).
#[derive(Copy, Clone, Debug)]
pub struct ScenarioTiming {
    /// The scenario's seed (corpus identity).
    pub seed: u64,
    /// Seconds spent building graph + `D` for this scenario. Zero when the
    /// scenario reused a setup built by an earlier group-mate.
    pub setup_secs: f64,
    /// Seconds spent running the oracles (both replays).
    pub execute_secs: f64,
    /// `true` when this scenario ran against a setup shared from an
    /// earlier member of its graph group.
    pub shared_setup: bool,
}

impl ScenarioTiming {
    /// Total wall time attributed to this scenario.
    pub fn total_secs(&self) -> f64 {
        self.setup_secs + self.execute_secs
    }
}

/// The spec's *graph identity*: two specs with equal keys build
/// byte-identical graphs, so one [`SharedSetup`] serves both.
///
/// Deterministic families ([`Family::Path`], `Cycle`, `Star`, `Grid`,
/// `BinaryTree`) depend only on `(family, n, max_weight)`; the
/// seeded-random families (`ErdosRenyi`, `ClusterRing`) additionally fold
/// in the seed that drives their ChaCha stream. Fault plan, parallelism
/// mode, and workload never touch graph construction and are deliberately
/// absent.
pub fn graph_key(spec: &ScenarioSpec) -> String {
    match spec.family {
        Family::ErdosRenyi { .. } | Family::ClusterRing { .. } => format!(
            "{:?}|n{}|w{}|seed{}",
            spec.family, spec.n, spec.max_weight, spec.seed
        ),
        _ => format!("{:?}|n{}|w{}", spec.family, spec.n, spec.max_weight),
    }
}

/// Groups corpus indices by [`graph_key`], groups in first-appearance
/// order, indices ascending within each group.
pub fn group_by_graph(specs: &[ScenarioSpec]) -> Vec<Vec<usize>> {
    group_by_key(specs, graph_key)
}

/// Groups item indices by `key`: groups in first-appearance order,
/// indices ascending within each group.
fn group_by_key<T, K: Eq + Hash>(items: &[T], key: impl Fn(&T) -> K) -> Vec<Vec<usize>> {
    let mut group_of: HashMap<K, usize> = HashMap::new();
    let mut groups: Vec<Vec<usize>> = Vec::new();
    for (idx, item) in items.iter().enumerate() {
        let g = *group_of.entry(key(item)).or_insert_with(|| {
            groups.push(Vec::new());
            groups.len() - 1
        });
        groups[g].push(idx);
    }
    groups
}

/// The batch executor shared by the conformance runner and the ablation
/// harness: groups `items` by `key`, fans the groups across a dedicated
/// `lanes.unwrap_or(1)`-thread pool, and returns one result per item in
/// item order.
///
/// `run_group` receives a group's indices (ascending) and returns one
/// result per member, in the same order. Each call runs as its own pool
/// task (on a pool worker, or on the calling thread while it helps drain
/// the queue) and writes its own bucket (disjoint `&mut`, no locks on the result
/// path); thread-local guards a group needs must therefore be installed
/// inside `run_group`. The index-ordered reduction — the discipline of
/// `parallel_equiv.rs` — makes the output order, and every value a
/// schedule-independent `run_group` produces, identical at every lane
/// count.
///
/// # Panics
///
/// Panics if `run_group` panics or returns the wrong number of results.
pub fn run_grouped<T, K, R, F>(
    items: &[T],
    key: impl Fn(&T) -> K,
    lanes: Option<usize>,
    run_group: F,
) -> Vec<R>
where
    K: Eq + Hash,
    R: Send,
    F: Fn(&[usize]) -> Vec<R> + Sync,
{
    let groups = group_by_key(items, key);
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(lanes.unwrap_or(1).max(1))
        .build()
        .expect("build batch lane pool");
    let mut buckets: Vec<Vec<R>> = groups.iter().map(|_| Vec::new()).collect();
    pool.install(|| {
        rayon::scope(|s| {
            for (group, bucket) in groups.iter().zip(buckets.iter_mut()) {
                let run_group = &run_group;
                s.spawn(move || *bucket = run_group(group));
            }
        })
    });
    let mut slots: Vec<Option<R>> = items.iter().map(|_| None).collect();
    for (group, bucket) in groups.iter().zip(buckets) {
        assert_eq!(group.len(), bucket.len(), "one result per group member");
        for (&idx, result) in group.iter().zip(bucket) {
            slots[idx] = Some(result);
        }
    }
    slots
        .into_iter()
        .map(|slot| slot.expect("every index filled exactly once"))
        .collect()
}

/// Runs `specs` through the oracles on [`run_grouped`]: one
/// [`SharedSetup`] per graph group, `lanes` threads (`None` = one lane).
/// Results come back in corpus order, identical at every lane count.
pub fn run_specs(
    specs: &[ScenarioSpec],
    lanes: Option<usize>,
    mutate: Option<Mutation>,
    metrics: &SearchMetrics,
) -> (Vec<ScenarioOutcome>, Vec<ScenarioTiming>) {
    run_grouped(specs, graph_key, lanes, |group| {
        // The mutation hook and metrics sink are thread-local scope
        // guards, so every group task installs its own.
        let _mutation_guard = mutate.map(quantum_sim::mutation::arm);
        let _metrics_guard = quantum_sim::instrument::install(metrics.clone());
        run_group(specs, group)
    })
    .into_iter()
    .unzip()
}

/// Builds the shared setup with `D` pre-warmed (the one derived metric
/// every workload reads before evaluating); `None` if construction panics.
fn build_setup(spec: &ScenarioSpec) -> Option<SharedSetup> {
    std::panic::catch_unwind(AssertUnwindSafe(|| {
        let setup = SharedSetup::build(spec);
        setup.d();
        setup
    }))
    .ok()
}

/// Runs one graph group against a single shared setup, attributing the
/// setup cost to the group's first member.
fn run_group(specs: &[ScenarioSpec], group: &[usize]) -> Vec<(ScenarioOutcome, ScenarioTiming)> {
    let t0 = Instant::now();
    let setup = build_setup(&specs[group[0]]);
    let setup_secs = t0.elapsed().as_secs_f64();
    group
        .iter()
        .enumerate()
        .map(|(k, &idx)| {
            let spec = &specs[idx];
            let t1 = Instant::now();
            let outcome = match &setup {
                Some(setup) => oracle::run_scenario_shared(spec, setup),
                // The setup panicked: `run_scenario` rebuilds (and
                // re-panics) internally, yielding the canonical failed
                // `no-panic` outcome.
                None => oracle::run_scenario(spec),
            };
            let timing = ScenarioTiming {
                seed: spec.seed,
                setup_secs: if k == 0 { setup_secs } else { 0.0 },
                execute_secs: t1.elapsed().as_secs_f64(),
                shared_setup: k > 0 && setup.is_some(),
            };
            (outcome, timing)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{FaultSpec, ParMode, Workload};

    fn spec(seed: u64, family: Family, n: usize, w: u64) -> ScenarioSpec {
        ScenarioSpec {
            seed,
            family,
            n,
            max_weight: w,
            faults: FaultSpec::NoFaults,
            parallelism: ParMode::Sequential,
            workload: Workload::BaselineExact,
        }
        .normalized()
    }

    #[test]
    fn deterministic_families_group_across_seeds() {
        let specs = vec![
            spec(0, Family::Path, 12, 8),
            spec(1, Family::Star, 9, 1),
            spec(2, Family::Path, 12, 8),
            spec(3, Family::Path, 12, 4096),
        ];
        let groups = group_by_graph(&specs);
        assert_eq!(groups, vec![vec![0, 2], vec![1], vec![3]]);
        assert_eq!(graph_key(&specs[0]), graph_key(&specs[2]));
        assert_ne!(graph_key(&specs[0]), graph_key(&specs[3]));
    }

    #[test]
    fn random_families_stay_singleton_per_seed() {
        let f = Family::ErdosRenyi { p: 0.25 };
        let specs = vec![spec(5, f, 16, 8), spec(6, f, 16, 8), spec(5, f, 16, 8)];
        let groups = group_by_graph(&specs);
        // Same seed groups; different seed does not.
        assert_eq!(groups, vec![vec![0, 2], vec![1]]);
    }

    #[test]
    fn grouped_members_build_identical_graphs() {
        // The graph_key contract: equal keys ⇒ byte-identical graphs, even
        // though the seeds differ (deterministic families ignore the seed).
        let a = spec(11, Family::Grid, 20, 8);
        let b = spec(99, Family::Grid, 20, 8);
        assert_eq!(graph_key(&a), graph_key(&b));
        assert_eq!(a.build_graph().digest(), b.build_graph().digest());
    }

    #[test]
    fn batched_results_keep_corpus_order() {
        let specs: Vec<ScenarioSpec> = vec![
            spec(0, Family::Path, 10, 1),
            spec(1, Family::Star, 8, 8),
            spec(2, Family::Path, 10, 1),
            spec(3, Family::Cycle, 9, 1),
        ];
        let registry = wdr_metrics::MetricsRegistry::new();
        let metrics = SearchMetrics::register(&registry, "test.batch");
        let (outcomes, timings) = run_specs(&specs, Some(2), None, &metrics);
        assert_eq!(outcomes.len(), specs.len());
        assert_eq!(timings.len(), specs.len());
        for (i, outcome) in outcomes.iter().enumerate() {
            assert_eq!(outcome.spec.seed, specs[i].seed);
            assert_eq!(timings[i].seed, specs[i].seed);
        }
        // Seed 2 shares seed 0's Path graph: no setup cost, flagged shared.
        assert!(timings[2].shared_setup);
        assert_eq!(timings[2].setup_secs, 0.0);
        assert!(!timings[0].shared_setup);
    }
}
