//! Job execution: maps each expanded [`Job`] onto one of the existing
//! substrates and fans graph-sharing groups across batch lanes.
//!
//! The lane discipline replicates `wdr_conformance::batch`: jobs are
//! grouped by derived *graph identity* (so group-mates amortize one
//! [`SharedSetup`] build, including its cached
//! `congest_graph::context::GraphContext` sweeps), groups are spawned across a
//! dedicated rayon pool with one disjoint result bucket per group, and
//! results are reduced back into job-index order. Only deterministic
//! quantities enter the outcome (no timings), so the reduced result — and
//! therefore the runbook bytes — is identical across lane counts,
//! including the sequential `lanes = None` path.

use crate::expand::Job;
use crate::plan::Substrate;
use congest_sim::primitives::{self, Aggregate};
use congest_wdr::algorithm::{quantum_weighted, Objective};
use congest_wdr::params::WdrParams;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde_json::Value;
use std::collections::BTreeMap;
use wdr_conformance::oracle::SharedSetup;
use wdr_conformance::runner::{self, SuiteOptions};
use wdr_conformance::scenario::{Family, FaultSpec, ParMode, ScenarioSpec, Workload};

/// The deterministic result of one job: a flat metric map, or an error.
#[derive(Clone, Debug, PartialEq)]
pub struct JobOutcome {
    /// The job's expansion index.
    pub index: usize,
    /// Measured metrics (every job also reports `failed` ∈ {0, 1} so
    /// tolerances can bound error counts).
    pub metrics: BTreeMap<String, f64>,
    /// The failure message, when the substrate returned an error.
    pub error: Option<String>,
}

fn get_f64(job: &Job, key: &str, default: f64) -> Result<f64, String> {
    match job.params.get(key) {
        None => Ok(default),
        Some(Value::Number(v)) => Ok(*v),
        Some(other) => Err(format!("param '{key}' must be a number, got {other:?}")),
    }
}

fn get_usize(job: &Job, key: &str, default: usize) -> Result<usize, String> {
    let v = get_f64(job, key, default as f64)?;
    if v < 0.0 || v.fract() != 0.0 {
        return Err(format!("param '{key}' must be a non-negative integer"));
    }
    Ok(v as usize)
}

fn get_str<'a>(job: &'a Job, key: &str, default: &'a str) -> Result<&'a str, String> {
    match job.params.get(key) {
        None => Ok(default),
        Some(Value::String(s)) => Ok(s),
        Some(other) => Err(format!("param '{key}' must be a string, got {other:?}")),
    }
}

fn family_from(job: &Job) -> Result<Family, String> {
    Ok(match get_str(job, "family", "grid")? {
        "path" => Family::Path,
        "cycle" => Family::Cycle,
        "star" => Family::Star,
        "grid" => Family::Grid,
        "binary_tree" => Family::BinaryTree,
        "erdos_renyi" => Family::ErdosRenyi {
            p: get_f64(job, "er_p", 0.3)?,
        },
        "cluster_ring" => Family::ClusterRing {
            hubs: get_usize(job, "hubs", 4)?,
        },
        other => return Err(format!("unknown family '{other}'")),
    })
}

/// The scenario a graph-substrate job (Quantum / Sweep / RoundEngine)
/// describes. The *graph* half (family, n, max_weight, seed) is shared
/// across group-mates; faults and workload vary per job.
fn scenario_from(job: &Job, workload: Workload) -> Result<ScenarioSpec, String> {
    let fault_rate = get_f64(job, "fault_rate", 0.0)?;
    let faults = if fault_rate > 0.0 {
        FaultSpec::Drops { rate: fault_rate }
    } else {
        FaultSpec::NoFaults
    };
    Ok(ScenarioSpec {
        // The spec seed drives graph construction (for seeded families)
        // and the fault plan — NOT the per-job RNG, which comes from
        // `job.seed` — so group-mates keep byte-identical graphs.
        seed: get_usize(job, "graph_seed", 5)? as u64,
        family: family_from(job)?,
        n: get_usize(job, "n", 16)?,
        max_weight: get_usize(job, "max_weight", 8)? as u64,
        faults,
        parallelism: ParMode::Sequential,
        workload,
    }
    .normalized())
}

/// Group key: jobs with equal keys build byte-identical graphs and share
/// one setup. Substrates without shared setup — and jobs whose graph
/// params don't even parse (they must still reach `run_group` to fail
/// individually) — get per-job groups.
fn group_key(substrate: Substrate, job: &Job) -> String {
    match substrate {
        Substrate::Quantum | Substrate::Sweep | Substrate::RoundEngine => {
            match scenario_from(job, Workload::BaselineExact) {
                Ok(spec) => wdr_conformance::batch::graph_key(&spec),
                Err(_) => job.id.clone(),
            }
        }
        Substrate::Conformance => job.id.clone(),
    }
}

fn objective_from(job: &Job) -> Result<(Objective, Workload), String> {
    match get_str(job, "objective", "diameter")? {
        "diameter" => Ok((Objective::Diameter, Workload::QuantumDiameter)),
        "radius" => Ok((Objective::Radius, Workload::QuantumRadius)),
        other => Err(format!("unknown objective '{other}' (diameter|radius)")),
    }
}

/// One quantum weighted-diameter/radius run with the oracle's small-graph
/// calibration, but the accuracy ε taken from the job params instead of
/// the suite's `o1_tolerance(n)` schedule.
fn run_quantum(job: &Job, setup: &SharedSetup) -> Result<BTreeMap<String, f64>, String> {
    let (objective, workload) = objective_from(job)?;
    let spec = scenario_from(job, workload)?;
    let g = setup.graph();
    let eps = get_f64(job, "eps", 0.25)?;
    if !(eps > 0.0 && eps <= 1.0) {
        return Err(format!("eps {eps} outside (0, 1]"));
    }
    let mut params = WdrParams::for_benchmarks(g.n(), setup.d(), eps);
    // The workspace-wide small-graph calibration (see conformance
    // `oracle::evaluate_quantum`): a generous hop budget and Θ(n)-sized
    // sets keep the Lemma 3.4 marked mass non-degenerate at these sizes.
    params.ell = g.n();
    params.r = (g.n() as f64 * 0.35).max(2.0);
    let cfg = spec.build_config(g);
    let mut rng = ChaCha8Rng::seed_from_u64(job.seed);
    let report = quantum_weighted(g, 0, objective, &params, &cfg, &mut rng)
        .map_err(|e| format!("quantum run failed: {e}"))?;
    let cap = (1.0 + eps) * (1.0 + eps) * report.exact + 1e-6;
    let floor = report.exact - 1e-6;
    let (hard_ok, soft_ok) = match objective {
        Objective::Diameter => (report.estimate <= cap, report.estimate >= floor),
        Objective::Radius => (report.estimate >= floor, report.estimate <= cap),
    };
    let mut m = BTreeMap::new();
    m.insert("estimate".to_string(), report.estimate);
    m.insert("exact".to_string(), report.exact);
    m.insert(
        "ratio".to_string(),
        if report.exact > 0.0 {
            report.estimate / report.exact
        } else {
            1.0
        },
    );
    m.insert("budgeted_rounds".to_string(), report.budgeted_rounds as f64);
    m.insert("hard_ok".to_string(), f64::from(u8::from(hard_ok)));
    m.insert("soft_ok".to_string(), f64::from(u8::from(soft_ok)));
    m.insert(
        "guaranteed".to_string(),
        f64::from(u8::from(report.confidence.is_guaranteed())),
    );
    Ok(m)
}

/// Pruned sweep extremes on the job's graph (cached in the shared setup).
fn run_sweep(_job: &Job, setup: &SharedSetup) -> Result<BTreeMap<String, f64>, String> {
    let extremes = setup.extremes();
    let g = setup.graph();
    let mut m = BTreeMap::new();
    m.insert("diameter".to_string(), extremes.diameter.as_f64());
    m.insert("radius".to_string(), extremes.radius.as_f64());
    m.insert("sweeps".to_string(), extremes.sweeps as f64);
    m.insert(
        "sweep_fraction".to_string(),
        extremes.sweeps as f64 / g.n() as f64,
    );
    m.insert("n".to_string(), g.n() as f64);
    m.insert("m".to_string(), g.m() as f64);
    m.insert(
        "connected".to_string(),
        f64::from(u8::from(extremes.is_connected())),
    );
    Ok(m)
}

/// E8-style round-engine run: a BFS spanning tree on the lossless
/// network, then a converge-cast sum under the job's fault plan (the
/// conformance `evaluate_primitive` discipline — the faulted phase under
/// test is exactly the cast).
fn run_round_engine(job: &Job, setup: &SharedSetup) -> Result<BTreeMap<String, f64>, String> {
    let spec = scenario_from(job, Workload::PrimitiveAggregate)?;
    let g = setup.graph();
    let clean = congest_sim::SimConfig::standard(g.n(), g.max_weight()).with_max_rounds(1_000_000);
    let cfg = spec.build_config(g);
    let (tree, bfs_stats) =
        primitives::bfs_tree(g, 0, &clean).map_err(|e| format!("bfs_tree failed: {e}"))?;
    let values: Vec<u128> = (0..g.n() as u128).collect();
    let (sum, cast_stats) = primitives::converge_cast(g, 0, &cfg, &tree, &values, Aggregate::Sum)
        .map_err(|e| format!("converge_cast failed: {e}"))?;
    let mut m = BTreeMap::new();
    m.insert(
        "rounds".to_string(),
        (bfs_stats.rounds + cast_stats.rounds) as f64,
    );
    m.insert(
        "messages".to_string(),
        (bfs_stats.messages + cast_stats.messages) as f64,
    );
    m.insert(
        "bits".to_string(),
        (bfs_stats.bits + cast_stats.bits) as f64,
    );
    m.insert("sum".to_string(), sum as f64);
    Ok(m)
}

/// A conformance-suite slice: the first `count` corpus scenarios through
/// `runner::run_suite` (optionally on its own inner batch lanes).
fn run_conformance(job: &Job) -> Result<BTreeMap<String, f64>, String> {
    let count = get_usize(job, "count", 16)? as u64;
    let inner_lanes = get_usize(job, "lanes", 0)?;
    let specs = runner::generate_corpus(count);
    let options = SuiteOptions {
        lanes: (inner_lanes > 0).then_some(inner_lanes),
        ..SuiteOptions::default()
    };
    let report = runner::run_suite(&specs, &options);
    let mut m = BTreeMap::new();
    m.insert("scenarios".to_string(), report.outcomes.len() as f64);
    m.insert("failures".to_string(), report.failures.len() as f64);
    m.insert("soft_rate".to_string(), report.soft_rate.unwrap_or(-1.0));
    m.insert(
        "envelope_passed".to_string(),
        f64::from(u8::from(report.envelope.passed)),
    );
    m.insert(
        "envelope_c_max".to_string(),
        report
            .envelope
            .regimes
            .iter()
            .map(|r| r.c_max)
            .fold(0.0, f64::max),
    );
    m.insert(
        "envelope_samples".to_string(),
        report.envelope.samples as f64,
    );
    Ok(m)
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    let text = payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string());
    format!("substrate panicked: {text}")
}

/// Runs one job against an optional pre-built shared setup. Substrate
/// panics are contained into deterministic job errors (the conformance
/// no-panic discipline), so one bad job never kills a lane pool.
fn run_job(substrate: Substrate, job: &Job, setup: Option<&SharedSetup>) -> JobOutcome {
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| match substrate {
        Substrate::Quantum => setup
            .ok_or("missing shared setup".to_string())
            .and_then(|s| run_quantum(job, s)),
        Substrate::Sweep => setup
            .ok_or("missing shared setup".to_string())
            .and_then(|s| run_sweep(job, s)),
        Substrate::RoundEngine => setup
            .ok_or("missing shared setup".to_string())
            .and_then(|s| run_round_engine(job, s)),
        Substrate::Conformance => run_conformance(job),
    }))
    .unwrap_or_else(|payload| Err(panic_message(payload)));
    match result {
        Ok(mut metrics) => {
            metrics.insert("failed".to_string(), 0.0);
            JobOutcome {
                index: job.index,
                metrics,
                error: None,
            }
        }
        Err(error) => {
            let mut metrics = BTreeMap::new();
            metrics.insert("failed".to_string(), 1.0);
            JobOutcome {
                index: job.index,
                metrics,
                error: Some(error),
            }
        }
    }
}

/// Runs a whole graph-identity group, building the shared setup once.
fn run_group(substrate: Substrate, jobs: &[&Job]) -> Vec<JobOutcome> {
    let setup = match substrate {
        Substrate::Quantum | Substrate::Sweep | Substrate::RoundEngine => {
            match scenario_from(jobs[0], Workload::BaselineExact) {
                Ok(spec) => Some(SharedSetup::build(&spec)),
                Err(e) => {
                    // Malformed graph params fail every group member the
                    // same way; report per job for a readable runbook.
                    return jobs
                        .iter()
                        .map(|job| {
                            let mut metrics = BTreeMap::new();
                            metrics.insert("failed".to_string(), 1.0);
                            JobOutcome {
                                index: job.index,
                                metrics,
                                error: Some(e.clone()),
                            }
                        })
                        .collect();
                }
            }
        }
        Substrate::Conformance => None,
    };
    jobs.iter()
        .map(|job| run_job(substrate, job, setup.as_ref()))
        .collect()
}

/// Groups job indices by [`group_key`], groups in first-appearance order
/// (the `batch::group_by_graph` discipline).
fn group_jobs(substrate: Substrate, jobs: &[Job]) -> Vec<Vec<usize>> {
    let mut order: Vec<String> = Vec::new();
    let mut groups: std::collections::HashMap<String, Vec<usize>> =
        std::collections::HashMap::new();
    for (idx, job) in jobs.iter().enumerate() {
        let key = group_key(substrate, job);
        let bucket = groups.entry(key.clone()).or_insert_with(|| {
            order.push(key);
            Vec::new()
        });
        bucket.push(idx);
    }
    order
        .into_iter()
        .map(|key| groups.remove(&key).expect("group recorded in order"))
        .collect()
}

/// Runs every job, sequentially (`lanes = None`) or with graph-identity
/// groups fanned across a dedicated `l`-lane rayon pool. Outcomes come
/// back in job-index order and are bit-identical across both paths and
/// every lane count (nothing time- or schedule-dependent enters them).
pub fn run_jobs(
    substrate: Substrate,
    jobs: &[Job],
    lanes: Option<usize>,
) -> Result<Vec<JobOutcome>, String> {
    let groups = group_jobs(substrate, jobs);
    let mut slots: Vec<Option<JobOutcome>> = (0..jobs.len()).map(|_| None).collect();
    match lanes {
        None => {
            for group in &groups {
                let members: Vec<&Job> = group.iter().map(|&i| &jobs[i]).collect();
                for outcome in run_group(substrate, &members) {
                    let idx = outcome.index;
                    slots[idx] = Some(outcome);
                }
            }
        }
        Some(l) => {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(l.max(1))
                .build()
                .map_err(|e| format!("build lane pool: {e}"))?;
            let mut buckets: Vec<Vec<JobOutcome>> =
                groups.iter().map(|g| Vec::with_capacity(g.len())).collect();
            pool.install(|| {
                rayon::scope(|s| {
                    for (group, bucket) in groups.iter().zip(buckets.iter_mut()) {
                        s.spawn(move || {
                            let members: Vec<&Job> = group.iter().map(|&i| &jobs[i]).collect();
                            *bucket = run_group(substrate, &members);
                        });
                    }
                });
            });
            // Index-ordered reduction: lane scheduling never touches the
            // output order.
            for outcome in buckets.into_iter().flatten() {
                let idx = outcome.index;
                slots[idx] = Some(outcome);
            }
        }
    }
    slots
        .into_iter()
        .enumerate()
        .map(|(i, slot)| slot.ok_or(format!("job {i} produced no outcome")))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expand::expand;
    use crate::plan::{AblationMode, AblationPlan};

    fn sweep_plan() -> AblationPlan {
        let mut factors = BTreeMap::new();
        factors.insert(
            "n".to_string(),
            vec![Value::Number(8.0), Value::Number(12.0)],
        );
        factors.insert(
            "max_weight".to_string(),
            vec![Value::Number(1.0), Value::Number(7.0)],
        );
        let mut fixed = BTreeMap::new();
        fixed.insert("family".to_string(), Value::String("path".into()));
        AblationPlan {
            name: "exec-test".into(),
            substrate: Substrate::Sweep,
            mode: AblationMode::Grid,
            samples: None,
            factors,
            fixed,
            tolerances: BTreeMap::new(),
        }
    }

    #[test]
    fn sweep_jobs_measure_path_extremes() {
        let jobs = expand(&sweep_plan(), 1).unwrap();
        let outcomes = run_jobs(Substrate::Sweep, &jobs, None).unwrap();
        assert_eq!(outcomes.len(), 4);
        for (job, out) in jobs.iter().zip(&outcomes) {
            assert_eq!(out.error, None);
            let n = job.params["n"].as_f64().unwrap();
            let w = job.params["max_weight"].as_f64().unwrap();
            // A uniform-weight path has diameter (n−1)·w exactly.
            assert_eq!(out.metrics["diameter"], (n - 1.0) * w);
            assert_eq!(out.metrics["failed"], 0.0);
        }
    }

    #[test]
    fn lanes_match_sequential() {
        let jobs = expand(&sweep_plan(), 9).unwrap();
        let seq = run_jobs(Substrate::Sweep, &jobs, None).unwrap();
        for lanes in [1, 2, 4] {
            assert_eq!(run_jobs(Substrate::Sweep, &jobs, Some(lanes)).unwrap(), seq);
        }
    }

    #[test]
    fn bad_params_become_job_errors() {
        let mut plan = sweep_plan();
        plan.fixed
            .insert("family".to_string(), Value::String("banana".into()));
        let jobs = expand(&plan, 1).unwrap();
        let outcomes = run_jobs(Substrate::Sweep, &jobs, Some(2)).unwrap();
        assert!(outcomes
            .iter()
            .all(|o| o.error.as_deref().is_some_and(|e| e.contains("banana"))));
        assert!(outcomes.iter().all(|o| o.metrics["failed"] == 1.0));
    }

    #[test]
    fn round_engine_runs_clean_and_faulted() {
        let mut plan = sweep_plan();
        plan.substrate = Substrate::RoundEngine;
        plan.factors.insert(
            "fault_rate".to_string(),
            vec![Value::Number(0.0), Value::Number(0.05)],
        );
        let jobs = expand(&plan, 2).unwrap();
        let outcomes = run_jobs(Substrate::RoundEngine, &jobs, Some(2)).unwrap();
        let clean: Vec<&JobOutcome> = outcomes.iter().filter(|o| o.error.is_none()).collect();
        assert!(!clean.is_empty());
        for out in clean {
            // Sum of node ids 0..n.
            let n = out.metrics["sum"];
            assert!(n > 0.0);
            assert!(out.metrics["rounds"] > 0.0);
        }
    }
}
