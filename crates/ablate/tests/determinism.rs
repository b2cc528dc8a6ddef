//! Snippet-3 discipline: ablation runs are deterministic — same plan +
//! seed ⇒ `assert_eq!` on the whole report AND byte-identical canonical
//! JSON, across the one-lane default and 1/2/4 lanes, in both grid and
//! LHS modes; LHS job counts honor `samples`.
//!
//! The property runs on the `Sweep` substrate (pure graph kernels) so
//! the proptest cases stay fast; the lane discipline under test is
//! substrate-independent (`exec::run_jobs`).

use proptest::prelude::*;
use serde_json::Value;
use std::collections::BTreeMap;
use wdr_ablate::{
    run_ablation, run_ablation_with, to_canonical_json_bytes, AblationMode, AblationPlan,
    RunOptions, Substrate, ToleranceSpec,
};

/// A small, fast Sweep-substrate plan over the given factor levels.
fn sweep_plan(
    mode: AblationMode,
    samples: Option<usize>,
    ns: &[u64],
    weights: &[u64],
    family: &str,
) -> AblationPlan {
    let mut factors = BTreeMap::new();
    factors.insert(
        "n".to_string(),
        ns.iter().map(|&n| Value::Number(n as f64)).collect(),
    );
    factors.insert(
        "max_weight".to_string(),
        weights.iter().map(|&w| Value::Number(w as f64)).collect(),
    );
    let mut fixed = BTreeMap::new();
    fixed.insert("family".to_string(), Value::String(family.to_string()));
    let mut tolerances = BTreeMap::new();
    tolerances.insert(
        "failed".to_string(),
        ToleranceSpec {
            max: Some(0.0),
            ..ToleranceSpec::default()
        },
    );
    AblationPlan {
        name: format!("determinism-{}", mode.name()),
        substrate: Substrate::Sweep,
        mode,
        samples,
        factors,
        fixed,
        tolerances,
    }
}

fn run_at(plan: &AblationPlan, seed: u64, lanes: Option<usize>) -> wdr_ablate::RunbookReport {
    run_ablation_with(
        plan,
        seed,
        &RunOptions {
            lanes,
            // Pin the provenance header so the cross-run byte comparison
            // exercises the payload, not just a shared capture.
            meta: Some(wdr_ablate::RunbookMeta {
                schema_version: 1,
                plan_name: plan.name.clone(),
                plan_hash: wdr_ablate::plan_hash(plan),
                commit: "determinism-test".to_string(),
                host_threads: 1,
                seeds: vec![seed],
            }),
        },
    )
    .expect("ablation runs")
}

#[test]
fn reports_and_bytes_identical_across_lane_counts() {
    for mode in [AblationMode::Grid, AblationMode::Lhs] {
        let samples = (mode == AblationMode::Lhs).then_some(5);
        let plan = sweep_plan(mode, samples, &[6, 9, 12], &[1, 7], "path");
        let reference = run_at(&plan, 42, None);
        let reference_bytes = to_canonical_json_bytes(&reference).unwrap();
        for lanes in [1usize, 2, 4] {
            let run = run_at(&plan, 42, Some(lanes));
            assert_eq!(run, reference, "mode {:?}, lanes {lanes}", mode.name());
            assert_eq!(
                to_canonical_json_bytes(&run).unwrap(),
                reference_bytes,
                "mode {:?}, lanes {lanes}",
                mode.name()
            );
        }
    }
}

#[test]
fn grid_and_lhs_modes_differ_but_each_is_stable() {
    let grid = sweep_plan(AblationMode::Grid, None, &[6, 9], &[1, 7], "cycle");
    let lhs = sweep_plan(AblationMode::Lhs, Some(3), &[6, 9], &[1, 7], "cycle");
    let g1 = run_ablation(&grid, 7).unwrap();
    let g2 = run_ablation(&grid, 7).unwrap();
    assert_eq!(g1.jobs.len(), 4);
    assert_eq!(
        to_canonical_json_bytes(&g1).unwrap(),
        to_canonical_json_bytes(&g2).unwrap()
    );
    let l1 = run_ablation(&lhs, 7).unwrap();
    let l2 = run_ablation(&lhs, 7).unwrap();
    assert_eq!(l1.jobs.len(), 3, "LHS honors samples");
    assert_eq!(
        to_canonical_json_bytes(&l1).unwrap(),
        to_canonical_json_bytes(&l2).unwrap()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn ablation_is_byte_deterministic(
        seed in any::<u64>(),
        lanes in 1usize..=4,
        use_lhs in any::<bool>(),
        samples in 1usize..=6,
        n_a in 6u64..=10,
        n_b in 6u64..=10,
        w in 1u64..=9,
        family_idx in 0usize..3,
    ) {
        let family = ["path", "cycle", "star"][family_idx];
        let mode = if use_lhs { AblationMode::Lhs } else { AblationMode::Grid };
        let plan = sweep_plan(
            mode,
            use_lhs.then_some(samples),
            &[n_a, n_b.max(n_a + 1)],
            &[w],
            family,
        );

        // Rerun determinism: two sequential runs agree exactly.
        let first = run_at(&plan, seed, None);
        let second = run_at(&plan, seed, None);
        prop_assert_eq!(&first, &second);
        prop_assert_eq!(
            to_canonical_json_bytes(&first).unwrap(),
            to_canonical_json_bytes(&second).unwrap()
        );

        // Lane invariance: the batched path produces the same bytes.
        let batched = run_at(&plan, seed, Some(lanes));
        prop_assert_eq!(&first, &batched);
        prop_assert_eq!(
            to_canonical_json_bytes(&first).unwrap(),
            to_canonical_json_bytes(&batched).unwrap()
        );

        // LHS job count honors `samples`; grids are full products.
        if use_lhs {
            prop_assert_eq!(first.jobs.len(), samples);
        } else {
            prop_assert_eq!(first.jobs.len(), 2);
        }
    }
}
