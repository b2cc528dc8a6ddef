//! Batch == isolated-run bit-identity, pinned by proptest (the same
//! discipline as `parallel_equiv.rs` in the simulator): for random
//! families × lane counts × fault plans, every scenario of a batched run
//! must reproduce what the same spec yields when run alone — a singleton
//! group with its own private setup — down to oracle verdicts and details,
//! round measurements and soft-side flags. Across lane counts the whole
//! report (envelope fits and the embedded metric snapshot included) must
//! be identical. Timings are the only permitted difference.

use proptest::prelude::*;
use quantum_sim::mutation::Mutation;
use wdr_conformance::runner::{self, fingerprint, SuiteOptions, SuiteReport};
use wdr_conformance::scenario::{ScenarioSpec, Workload};

/// Seed → spec, with quantum node counts clamped so debug-mode test runs
/// stay fast. The clamp preserves the seed-derived variety (family, fault
/// plan, parallelism) that the equivalence property must range over.
fn spec_for(seed: u64) -> ScenarioSpec {
    let mut spec = ScenarioSpec::from_seed(seed);
    if matches!(
        spec.workload,
        Workload::QuantumDiameter | Workload::QuantumRadius
    ) && spec.n > 12
    {
        spec.n = 8 + (seed % 5) as usize;
    }
    spec.normalized()
}

/// Runs the suite and returns its semantic fingerprint plus the live
/// registry snapshot (the counters the lanes incremented).
fn run_path(
    specs: &[ScenarioSpec],
    lanes: Option<usize>,
    mutate: Option<Mutation>,
) -> (bool, String, std::collections::BTreeMap<String, f64>) {
    let registry = wdr_metrics::MetricsRegistry::new();
    let options = SuiteOptions {
        lanes,
        mutate,
        registry: Some(registry.clone()),
        ..SuiteOptions::default()
    };
    let report = runner::run_suite(specs, &options);
    let snapshot = registry.snapshot().flatten().into_iter().collect();
    (report.passed(), fingerprint(&report), snapshot)
}

/// The fingerprint's per-scenario blocks: each `outcome` line with the
/// `check` lines under it, corpus order.
fn scenario_blocks(report: &SuiteReport) -> Vec<String> {
    let mut blocks: Vec<String> = Vec::new();
    for line in fingerprint(report).lines() {
        if line.starts_with("outcome ") {
            blocks.push(format!("{line}\n"));
        } else if line.starts_with("  check ") {
            let block = blocks.last_mut().expect("check lines follow an outcome");
            block.push_str(line);
            block.push('\n');
        }
    }
    blocks
}

/// Each spec run alone: its own suite, one singleton group.
fn isolated_blocks(specs: &[ScenarioSpec]) -> Vec<String> {
    specs
        .iter()
        .flat_map(|spec| {
            scenario_blocks(&runner::run_suite(
                std::slice::from_ref(spec),
                &SuiteOptions::default(),
            ))
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// The core pin: any spec mix, any lane count — every batched
    /// scenario equals the same spec run alone (verdicts, details,
    /// measurements, soft-side flags).
    #[test]
    fn batch_matches_isolated_runs_across_families(
        seeds in proptest::collection::vec(any::<u64>(), 2..6),
        lanes in 1usize..=4,
    ) {
        let specs: Vec<ScenarioSpec> = seeds.iter().copied().map(spec_for).collect();
        let batched = runner::run_suite(
            &specs,
            &SuiteOptions { lanes: Some(lanes), ..SuiteOptions::default() },
        );
        prop_assert_eq!(
            scenario_blocks(&batched),
            isolated_blocks(&specs),
            "scenarios diverged at {} lanes",
            lanes
        );
    }

    /// Lane-count invariance: the whole report agrees with itself across
    /// lane counts (scheduling never leaks into results).
    #[test]
    fn batch_is_lane_count_invariant(seed in any::<u64>()) {
        let specs: Vec<ScenarioSpec> = (0..4).map(|i| spec_for(seed.wrapping_add(i))).collect();
        let (_, fp1, snap1) = run_path(&specs, Some(1), None);
        let (_, fp3, snap3) = run_path(&specs, Some(3), None);
        prop_assert_eq!(fp1, fp3);
        prop_assert_eq!(snap1, snap3);
    }
}

/// A real corpus prefix runs identically batched and isolated, and the
/// batch actually shares setups. The 16-seed CI smoke slice has no two
/// specs with one graph (seed 16 is the first to share, with seed 0's
/// cycle), so the prefix runs to 24 seeds.
#[test]
fn batch_corpus_prefix_matches_isolated_runs() {
    let specs = runner::generate_corpus(24);
    let batched = runner::run_suite(
        &specs,
        &SuiteOptions {
            lanes: Some(4),
            ..SuiteOptions::default()
        },
    );
    assert_eq!(scenario_blocks(&batched), isolated_blocks(&specs));
    assert_eq!(batched.timings.len(), specs.len());
    // Timing satellite: every scenario carries a breakdown, corpus order.
    for (t, s) in batched.timings.iter().zip(&specs) {
        assert_eq!(t.seed, s.seed);
        assert!(t.execute_secs >= 0.0 && t.setup_secs >= 0.0);
    }
    assert!(
        batched.timings.iter().any(|t| t.shared_setup),
        "no scenario of the prefix reused a group-mate's setup"
    );
}

/// The mutation self-check keeps its teeth under batching: an armed
/// `SkipGroverPhase` makes the run fail at every lane count, with
/// identical evidence (per-task guard installation works).
#[test]
fn batch_mutation_self_check_equivalence() {
    // Enough clean quantum scenarios for the soft-side aggregate to fire.
    let specs: Vec<ScenarioSpec> = (0..200)
        .map(spec_for)
        .filter(|s| {
            s.is_clean()
                && matches!(
                    s.workload,
                    Workload::QuantumDiameter | Workload::QuantumRadius
                )
        })
        .take(6)
        .collect();
    assert!(specs.len() >= 4, "need enough clean quantum specs");
    let mutate = Some(Mutation::SkipGroverPhase);
    let (one_pass, one_fp, _) = run_path(&specs, Some(1), mutate);
    let (three_pass, three_fp, _) = run_path(&specs, Some(3), mutate);
    assert!(!one_pass, "mutated 1-lane run must fail");
    assert!(!three_pass, "mutated 3-lane run must fail");
    assert_eq!(one_fp, three_fp);
}
