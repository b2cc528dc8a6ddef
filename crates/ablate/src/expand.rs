//! Plan → job expansion: full cartesian grids, or seeded SplitMix64
//! Latin-hypercube samples.
//!
//! Expansion is a pure function of `(plan, root_seed)`: job order, job
//! ids, parameter assignments, and per-job seeds are all deterministic,
//! which is what makes the downstream runbook byte-identical across
//! reruns and lane counts.

use crate::plan::{AblationMode, AblationPlan};
use serde_json::Value;
use std::collections::BTreeMap;
use wdr_metrics::util::{fnv1a_64, splitmix64, GOLDEN_GAMMA};

/// One expanded job: a full parameter assignment plus a derived seed.
#[derive(Clone, Debug, PartialEq)]
pub struct Job {
    /// Position in expansion order (0-based, contiguous).
    pub index: usize,
    /// Stable id (`job-0007`), fixed-width so lexicographic order equals
    /// expansion order.
    pub id: String,
    /// Derived per-job seed (SplitMix64 of the root seed and index).
    pub seed: u64,
    /// Fixed params plus this job's factor levels.
    pub params: BTreeMap<String, Value>,
}

fn job_seed(root_seed: u64, index: usize) -> u64 {
    let mut state = root_seed.wrapping_add((index as u64).wrapping_mul(GOLDEN_GAMMA));
    splitmix64(&mut state)
}

fn make_job(
    plan: &AblationPlan,
    root_seed: u64,
    index: usize,
    assignment: &[(String, Value)],
) -> Job {
    let mut params = plan.fixed.clone();
    for (name, value) in assignment {
        params.insert(name.clone(), value.clone());
    }
    Job {
        index,
        id: format!("job-{index:04}"),
        seed: job_seed(root_seed, index),
        params,
    }
}

/// Seeded Fisher–Yates permutation of `0..len`.
fn permutation(len: usize, seed: u64) -> Vec<usize> {
    let mut perm: Vec<usize> = (0..len).collect();
    let mut state = seed;
    for i in (1..len).rev() {
        let j = (splitmix64(&mut state) % (i as u64 + 1)) as usize;
        perm.swap(i, j);
    }
    perm
}

/// Expands a plan into its job list.
///
/// * `Grid` — the full cartesian product of every factor's levels, in
///   sorted factor-name order with the **last** factor varying fastest.
/// * `Lhs` — exactly `samples` jobs; each factor's `samples` strata are
///   visited once across the sample (a seeded Latin hypercube), and a
///   stratum maps onto level `⌊stratum · levels / samples⌋`.
///
/// # Errors
///
/// Rejects factors with no levels, factor names that shadow fixed
/// params, and `Lhs` plans without a (positive) `samples` count.
pub fn expand(plan: &AblationPlan, root_seed: u64) -> Result<Vec<Job>, String> {
    for (name, levels) in &plan.factors {
        if levels.is_empty() {
            return Err(format!("factor '{name}' has no levels"));
        }
        if plan.fixed.contains_key(name) {
            return Err(format!("factor '{name}' shadows a fixed param"));
        }
    }
    let names: Vec<&String> = plan.factors.keys().collect();
    match plan.mode {
        AblationMode::Grid => {
            let counts: Vec<usize> = names.iter().map(|n| plan.factors[*n].len()).collect();
            let total: usize = counts.iter().product();
            let mut jobs = Vec::with_capacity(total);
            for index in 0..total {
                let mut rem = index;
                let mut assignment = vec![(String::new(), Value::Null); names.len()];
                for k in (0..names.len()).rev() {
                    let level = rem % counts[k];
                    rem /= counts[k];
                    assignment[k] = (names[k].clone(), plan.factors[names[k]][level].clone());
                }
                jobs.push(make_job(plan, root_seed, index, &assignment));
            }
            Ok(jobs)
        }
        AblationMode::Lhs => {
            let samples = plan
                .samples
                .ok_or("Lhs mode requires samples: Some(k)".to_string())?;
            if samples == 0 {
                return Err("Lhs mode requires samples > 0".to_string());
            }
            // One stratum permutation per factor, seeded independently of
            // factor insertion order (name-hashed), so adding a factor
            // never reshuffles the others.
            let perms: Vec<Vec<usize>> = names
                .iter()
                .map(|n| permutation(samples, root_seed ^ fnv1a_64(n.as_bytes())))
                .collect();
            let mut jobs = Vec::with_capacity(samples);
            for index in 0..samples {
                let assignment: Vec<(String, Value)> = names
                    .iter()
                    .zip(&perms)
                    .map(|(name, perm)| {
                        let levels = &plan.factors[*name];
                        let level = perm[index] * levels.len() / samples;
                        ((*name).clone(), levels[level.min(levels.len() - 1)].clone())
                    })
                    .collect();
                jobs.push(make_job(plan, root_seed, index, &assignment));
            }
            Ok(jobs)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::Substrate;

    fn base_plan(mode: AblationMode, samples: Option<usize>) -> AblationPlan {
        let mut factors = BTreeMap::new();
        factors.insert(
            "a".to_string(),
            vec![Value::Number(1.0), Value::Number(2.0)],
        );
        factors.insert(
            "b".to_string(),
            vec![
                Value::String("x".into()),
                Value::String("y".into()),
                Value::String("z".into()),
            ],
        );
        let mut fixed = BTreeMap::new();
        fixed.insert("n".to_string(), Value::Number(8.0));
        AblationPlan {
            name: "expand-test".into(),
            substrate: Substrate::Sweep,
            mode,
            samples,
            factors,
            fixed,
            tolerances: BTreeMap::new(),
        }
    }

    #[test]
    fn grid_is_full_cartesian_product() {
        let jobs = expand(&base_plan(AblationMode::Grid, None), 7).unwrap();
        assert_eq!(jobs.len(), 6);
        // Last factor (b) varies fastest.
        assert_eq!(jobs[0].params["a"], Value::Number(1.0));
        assert_eq!(jobs[0].params["b"], Value::String("x".into()));
        assert_eq!(jobs[1].params["b"], Value::String("y".into()));
        assert_eq!(jobs[3].params["a"], Value::Number(2.0));
        // Every job carries the fixed params and a unique seed.
        let mut seeds: Vec<u64> = jobs.iter().map(|j| j.seed).collect();
        seeds.dedup();
        assert_eq!(seeds.len(), 6);
        assert!(jobs.iter().all(|j| j.params["n"] == Value::Number(8.0)));
        assert_eq!(jobs[5].id, "job-0005");
    }

    #[test]
    fn lhs_honors_samples_and_covers_strata() {
        for samples in 1..=9 {
            let jobs = expand(&base_plan(AblationMode::Lhs, Some(samples)), 3).unwrap();
            assert_eq!(jobs.len(), samples);
            // Each factor's level sequence is a stratified cover: every
            // level appears ⌊samples/levels⌋ or ⌈samples/levels⌉ times.
            for (name, levels) in &base_plan(AblationMode::Lhs, Some(samples)).factors {
                let mut counts = vec![0usize; levels.len()];
                for job in &jobs {
                    let pos = levels.iter().position(|l| l == &job.params[name]).unwrap();
                    counts[pos] += 1;
                }
                let lo = samples / levels.len();
                let hi = samples.div_ceil(levels.len());
                assert!(
                    counts.iter().all(|&c| c >= lo && c <= hi),
                    "samples {samples}, factor {name}: {counts:?}"
                );
            }
        }
    }

    #[test]
    fn expansion_is_deterministic() {
        let plan = base_plan(AblationMode::Lhs, Some(5));
        assert_eq!(expand(&plan, 11).unwrap(), expand(&plan, 11).unwrap());
        assert_ne!(
            expand(&plan, 11).unwrap()[0].seed,
            expand(&plan, 12).unwrap()[0].seed
        );
    }

    #[test]
    fn expansion_rejects_bad_plans() {
        let mut plan = base_plan(AblationMode::Grid, None);
        plan.factors.insert("empty".into(), Vec::new());
        assert!(expand(&plan, 1).unwrap_err().contains("no levels"));

        let mut plan = base_plan(AblationMode::Grid, None);
        plan.factors.insert("n".into(), vec![Value::Number(1.0)]);
        assert!(expand(&plan, 1).unwrap_err().contains("shadows"));

        let plan = base_plan(AblationMode::Lhs, None);
        assert!(expand(&plan, 1).unwrap_err().contains("samples"));
    }
}
