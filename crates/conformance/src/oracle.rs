//! Paper-guarantee oracles: run one [`ScenarioSpec`] and check the
//! distributed result against the centralized kernels and the guarantees
//! the paper (and this reproduction's own contracts) state.
//!
//! | oracle | workloads | checks |
//! |---|---|---|
//! | `exact-agreement` | `BaselineExact` | distributed APSP diameter/radius == centralized sweep, weighted and unweighted |
//! | `approx-ratio-hard` | quantum, clean | the always-true side of the `(1+ε)²` sandwich (`ε =` [`o1_tolerance`]) |
//! | `approx-ratio-soft` | quantum, clean | the w.h.p. side, aggregated over the corpus by the runner |
//! | `confidence-consistency` | quantum | `Guaranteed` ⇔ zero fault overhead; `UnderFaults` carries non-zero resilience |
//! | `quality-consistency` | `PrimitiveAggregate` | convergecast under faults: `Ok` ⇒ the exact aggregate, else a *typed* error |
//! | `determinism` | all | the same seed replays to the identical outcome |
//! | `no-panic` | all | the whole scenario runs without panicking |

use crate::envelope::{ModelKind, RoundMeasurement};
use crate::scenario::{ScenarioSpec, Workload};
use congest_algos::baselines::{diameter_radius_exact, WeightMode};
use congest_graph::sweep::{self, SweepResult};
use congest_graph::WeightedGraph;
use congest_sim::primitives::{self, Aggregate};
use congest_wdr::algorithm::{quantum_weighted, Confidence, Objective};
use congest_wdr::params::WdrParams;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::panic::AssertUnwindSafe;
use std::sync::OnceLock;

/// The explicit `o(1)` term of Theorem 1.1's `(1+o(1))` guarantee, as a
/// per-`n` tolerance: the paper instantiates `ε = 1/log n` (Section 2),
/// so the approximation factor at size `n` is `(1 + 1/log₂ n)²`.
pub fn o1_tolerance(n: usize) -> f64 {
    1.0 / (n.max(4) as f64).log2()
}

/// Which oracle produced a check result.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Oracle {
    /// Distributed baselines agree exactly with the centralized sweep.
    ExactAgreement,
    /// The deterministic side of the `(1+ε)²` sandwich.
    ApproxRatioHard,
    /// The w.h.p. side of the sandwich (aggregated corpus-wide).
    ApproxRatioSoft,
    /// `Confidence` classification is consistent with the fault plan.
    ConfidenceConsistency,
    /// Primitive results under faults are exact-or-typed-error.
    QualityConsistency,
    /// Same seed ⇒ identical outcome.
    Determinism,
    /// No panic anywhere in the scenario.
    NoPanic,
    /// Fitted round constants stay inside the regime envelope (emitted by
    /// the runner, not per scenario).
    RoundEnvelope,
}

impl Oracle {
    /// Stable kebab-case name (used in reports and grepped by CI).
    pub fn name(self) -> &'static str {
        match self {
            Oracle::ExactAgreement => "exact-agreement",
            Oracle::ApproxRatioHard => "approx-ratio-hard",
            Oracle::ApproxRatioSoft => "approx-ratio-soft",
            Oracle::ConfidenceConsistency => "confidence-consistency",
            Oracle::QualityConsistency => "quality-consistency",
            Oracle::Determinism => "determinism",
            Oracle::NoPanic => "no-panic",
            Oracle::RoundEnvelope => "round-envelope",
        }
    }
}

/// One oracle verdict for one scenario.
#[derive(Clone, Debug)]
pub struct CheckResult {
    /// Which oracle.
    pub oracle: Oracle,
    /// Verdict.
    pub passed: bool,
    /// Human-readable evidence (expected/actual on failure).
    pub detail: String,
}

impl CheckResult {
    fn pass(oracle: Oracle, detail: impl Into<String>) -> CheckResult {
        CheckResult {
            oracle,
            passed: true,
            detail: detail.into(),
        }
    }

    fn fail(oracle: Oracle, detail: impl Into<String>) -> CheckResult {
        CheckResult {
            oracle,
            passed: false,
            detail: detail.into(),
        }
    }
}

/// Everything one scenario run produced.
#[derive(Clone, Debug)]
pub struct ScenarioOutcome {
    /// The spec that ran.
    pub spec: ScenarioSpec,
    /// Effective node count (families may round the requested `n`).
    pub n: usize,
    /// Unweighted diameter of the built graph.
    pub d: usize,
    /// Per-oracle verdicts.
    pub checks: Vec<CheckResult>,
    /// Clean quantum runs only: did the w.h.p. side of the sandwich hold?
    /// (Aggregated by the runner into the `approx-ratio-soft` verdict.)
    pub soft_side: Option<bool>,
    /// Round measurement feeding the envelope fit (clean runs only).
    pub measurement: Option<RoundMeasurement>,
}

impl ScenarioOutcome {
    /// The failed checks.
    pub fn failures(&self) -> Vec<&CheckResult> {
        self.checks.iter().filter(|c| !c.passed).collect()
    }
}

/// Compact summary of one evaluation — the unit the determinism oracle
/// compares. Floats are rendered with full roundtrip precision, so
/// "identical summary" means "identical result".
fn summarize_eval(r: &Result<EvalResult, String>) -> String {
    match r {
        Ok(e) => format!(
            "ok: value={:?} aux={:?} rounds={}",
            e.value, e.aux, e.rounds
        ),
        Err(e) => format!("err: {e}"),
    }
}

/// The primary computation's result, workload-independent.
struct EvalResult {
    /// Main output (diameter estimate / sum / …).
    value: f64,
    /// Secondary output (radius for baselines, exact value for quantum).
    aux: f64,
    /// Rounds charged (budgeted rounds for quantum).
    rounds: usize,
    /// Checks derived from this single evaluation.
    checks: Vec<CheckResult>,
    /// See [`ScenarioOutcome::soft_side`].
    soft_side: Option<bool>,
    /// See [`ScenarioOutcome::measurement`].
    measurement: Option<RoundMeasurement>,
}

/// The shared-immutable half of a scenario run: the built graph plus its
/// lazily-cached derived metrics (weighted and unweighted extremes).
///
/// Everything in here is a deterministic function of the spec's *graph
/// identity* (family, `n`, `max_weight`, and — for seeded-random families —
/// the seed), never of the fault plan or workload. The batch engine
/// ([`crate::batch`]) therefore builds one `SharedSetup` per graph group and
/// runs every group member against it. The caches are [`OnceLock`]s, so
/// whichever reader asks first computes and everyone else reads the same
/// value the direct kernel would return.
pub struct SharedSetup {
    graph: WeightedGraph,
    extremes: OnceLock<SweepResult>,
    unweighted: OnceLock<SweepResult>,
}

impl SharedSetup {
    /// Build the graph for `spec`. Derived metrics stay lazy: whichever
    /// oracle asks first computes them, later group members reuse.
    pub fn build(spec: &ScenarioSpec) -> SharedSetup {
        SharedSetup {
            graph: spec.build_graph(),
            extremes: OnceLock::new(),
            unweighted: OnceLock::new(),
        }
    }

    /// The shared graph.
    pub fn graph(&self) -> &WeightedGraph {
        &self.graph
    }

    /// The network parameter `D` as every oracle uses it: the unweighted
    /// diameter clamped to at least 1 (`usize::MAX` when disconnected),
    /// exactly `metrics::unweighted_diameter(g).max(1)`.
    pub fn d(&self) -> usize {
        self.unweighted_extremes()
            .diameter
            .finite()
            .map_or(usize::MAX, |d| d as usize)
            .max(1)
    }

    /// Cached weighted extremes (`metrics::extremes`).
    pub fn extremes(&self) -> &SweepResult {
        self.extremes.get_or_init(|| sweep::extremes(&self.graph))
    }

    /// Cached unweighted extremes (`metrics::unweighted_extremes`).
    pub fn unweighted_extremes(&self) -> &SweepResult {
        self.unweighted
            .get_or_init(|| sweep::extremes_unweighted(&self.graph))
    }
}

/// Runs one scenario through every applicable oracle. Never panics: the
/// evaluation is wrapped, and a panic becomes a failed `no-panic` check.
pub fn run_scenario(spec: &ScenarioSpec) -> ScenarioOutcome {
    run_scenario_impl(spec, None)
}

/// [`run_scenario`] against a prebuilt [`SharedSetup`] (the batch-engine
/// entry point). The outcome is bit-identical to `run_scenario(spec)` —
/// the setup only memoizes deterministic functions of the same graph.
pub fn run_scenario_shared(spec: &ScenarioSpec, setup: &SharedSetup) -> ScenarioOutcome {
    run_scenario_impl(spec, Some(setup))
}

fn run_scenario_impl(spec: &ScenarioSpec, shared: Option<&SharedSetup>) -> ScenarioOutcome {
    let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
        let owned;
        let setup = match shared {
            Some(s) => s,
            None => {
                owned = SharedSetup::build(spec);
                &owned
            }
        };
        let n = setup.graph().n();
        let d = setup.d();
        let first = evaluate(spec, setup);
        let second = evaluate(spec, setup);
        let (s1, s2) = (summarize_eval(&first), summarize_eval(&second));
        let mut checks;
        let (soft_side, measurement);
        match first {
            Ok(e) => {
                checks = e.checks;
                soft_side = e.soft_side;
                measurement = e.measurement;
            }
            Err(msg) => {
                // A failed evaluation is only acceptable as a *typed*
                // simulator error on a faulted scenario; `evaluate`
                // encodes that in its checks, so an Err here means the
                // scenario-level contract broke.
                checks = vec![CheckResult::fail(Oracle::QualityConsistency, msg)];
                soft_side = None;
                measurement = None;
            }
        }
        if s1 == s2 {
            checks.push(CheckResult::pass(Oracle::Determinism, "replay identical"));
        } else {
            checks.push(CheckResult::fail(
                Oracle::Determinism,
                format!("replay diverged:\n  first:  {s1}\n  second: {s2}"),
            ));
        }
        (n, d, checks, soft_side, measurement)
    }));
    match caught {
        Ok((n, d, mut checks, soft_side, measurement)) => {
            checks.push(CheckResult::pass(Oracle::NoPanic, "no panic"));
            ScenarioOutcome {
                spec: *spec,
                n,
                d,
                checks,
                soft_side,
                measurement,
            }
        }
        Err(payload) => {
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "non-string panic payload".to_string());
            ScenarioOutcome {
                spec: *spec,
                n: spec.n,
                d: 0,
                checks: vec![CheckResult::fail(
                    Oracle::NoPanic,
                    format!("scenario panicked: {msg}"),
                )],
                soft_side: None,
                measurement: None,
            }
        }
    }
}

fn evaluate(spec: &ScenarioSpec, setup: &SharedSetup) -> Result<EvalResult, String> {
    match spec.workload {
        Workload::BaselineExact => evaluate_baseline(spec, setup),
        Workload::QuantumDiameter => {
            evaluate_quantum(spec, setup.graph(), setup.d(), Objective::Diameter)
        }
        Workload::QuantumRadius => {
            evaluate_quantum(spec, setup.graph(), setup.d(), Objective::Radius)
        }
        Workload::PrimitiveAggregate => evaluate_primitive(spec, setup.graph()),
    }
}

fn evaluate_baseline(spec: &ScenarioSpec, setup: &SharedSetup) -> Result<EvalResult, String> {
    let g = setup.graph();
    let cfg = spec.build_config(g);
    let reference = setup.extremes();
    let (diam, rad, stats) = diameter_radius_exact(g, 0, &cfg, WeightMode::Weighted)
        .map_err(|e| format!("weighted baseline failed on a clean network: {e}"))?;
    let mut checks = Vec::new();
    let weighted_ok = diam == reference.diameter && rad == reference.radius;
    checks.push(if weighted_ok {
        CheckResult::pass(
            Oracle::ExactAgreement,
            format!("weighted D={diam:?} R={rad:?} match sweep"),
        )
    } else {
        CheckResult::fail(
            Oracle::ExactAgreement,
            format!(
                "weighted mismatch: distributed (D={diam:?}, R={rad:?}) vs centralized (D={:?}, R={:?})",
                reference.diameter, reference.radius
            ),
        )
    });
    let unweighted_ref = setup.unweighted_extremes();
    let (ud, ur, _) = diameter_radius_exact(g, 0, &cfg, WeightMode::Unweighted)
        .map_err(|e| format!("unweighted baseline failed on a clean network: {e}"))?;
    let unweighted_ok = ud == unweighted_ref.diameter && ur == unweighted_ref.radius;
    checks.push(if unweighted_ok {
        CheckResult::pass(Oracle::ExactAgreement, "unweighted D/R match sweep")
    } else {
        CheckResult::fail(
            Oracle::ExactAgreement,
            format!(
                "unweighted mismatch: distributed (D={ud:?}, R={ur:?}) vs centralized (D={:?}, R={:?})",
                unweighted_ref.diameter, unweighted_ref.radius
            ),
        )
    });
    Ok(EvalResult {
        value: reference.diameter.as_f64(),
        aux: reference.radius.as_f64(),
        rounds: stats.rounds,
        checks,
        soft_side: None,
        measurement: Some(RoundMeasurement {
            kind: ModelKind::ClassicalApsp,
            n: g.n(),
            d: setup.d(),
            max_weight: spec.max_weight,
            rounds: stats.rounds,
        }),
    })
}

fn evaluate_quantum(
    spec: &ScenarioSpec,
    g: &WeightedGraph,
    d: usize,
    objective: Objective,
) -> Result<EvalResult, String> {
    let eps = o1_tolerance(g.n());
    let mut params = WdrParams::for_benchmarks(g.n(), d, eps);
    // Small-graph calibration used throughout the workspace tests: a
    // generous hop budget and Θ(n)-sized sets keep Lemma 3.4's marked
    // mass non-degenerate at corpus sizes.
    params.ell = g.n();
    params.r = (g.n() as f64 * 0.35).max(2.0);
    let cfg = spec.build_config(g);
    let mut rng = ChaCha8Rng::seed_from_u64(spec.seed ^ 0x616c_676f_5f76_3101); // "algo_v1"
    match quantum_weighted(g, 0, objective, &params, &cfg, &mut rng) {
        Ok(report) => {
            let mut checks = Vec::new();
            let cap = (1.0 + eps) * (1.0 + eps) * report.exact + 1e-6;
            let floor = report.exact - 1e-6;
            // The deterministic side of the sandwich and the w.h.p. side
            // swap between objectives (Section 3): diameter estimates
            // never exceed (1+ε)²·D; radius estimates never undershoot R.
            let (hard_ok, hard_desc, soft_ok) = match objective {
                Objective::Diameter => (
                    report.estimate <= cap,
                    format!("estimate {} ≤ (1+ε)²·exact {cap}", report.estimate),
                    report.estimate >= floor,
                ),
                Objective::Radius => (
                    report.estimate >= floor,
                    format!("estimate {} ≥ exact {floor}", report.estimate),
                    report.estimate <= cap,
                ),
            };
            if report.confidence.is_guaranteed() {
                checks.push(if hard_ok {
                    CheckResult::pass(Oracle::ApproxRatioHard, hard_desc)
                } else {
                    CheckResult::fail(
                        Oracle::ApproxRatioHard,
                        format!(
                            "{hard_desc} VIOLATED (ε = {eps:.4}, exact {})",
                            report.exact
                        ),
                    )
                });
            }
            let conf_check = match (&report.confidence, spec.is_clean()) {
                (Confidence::Guaranteed, _) => {
                    // Guaranteed under a fault plan is fine (zero-overhead
                    // plan); guaranteed on a clean network is required.
                    CheckResult::pass(Oracle::ConfidenceConsistency, "guaranteed")
                }
                (Confidence::UnderFaults { resilience }, false) => {
                    if resilience.is_zero() {
                        CheckResult::fail(
                            Oracle::ConfidenceConsistency,
                            "UnderFaults with a zero resilience budget",
                        )
                    } else {
                        CheckResult::pass(
                            Oracle::ConfidenceConsistency,
                            "under-faults with non-zero overhead",
                        )
                    }
                }
                (Confidence::UnderFaults { .. }, true) => CheckResult::fail(
                    Oracle::ConfidenceConsistency,
                    "clean scenario reported UnderFaults",
                ),
            };
            checks.push(conf_check);
            let clean = spec.is_clean();
            Ok(EvalResult {
                value: report.estimate,
                aux: report.exact,
                rounds: report.budgeted_rounds,
                checks,
                soft_side: if clean && report.confidence.is_guaranteed() {
                    Some(soft_ok)
                } else {
                    None
                },
                measurement: if clean {
                    Some(RoundMeasurement {
                        kind: ModelKind::QuantumWeighted,
                        n: g.n(),
                        d,
                        max_weight: spec.max_weight,
                        rounds: report.budgeted_rounds,
                    })
                } else {
                    None
                },
            })
        }
        Err(e) if !spec.is_clean() => {
            // Typed simulator errors are an acceptable outcome of an
            // injected fault plan; the contract is "typed error or honest
            // confidence", never a panic or a silently-wrong Guaranteed.
            Ok(EvalResult {
                value: f64::NAN,
                aux: f64::NAN,
                rounds: 0,
                checks: vec![CheckResult::pass(
                    Oracle::ConfidenceConsistency,
                    format!("faulted run surfaced a typed error: {e}"),
                )],
                soft_side: None,
                measurement: None,
            })
        }
        Err(e) => Err(format!("quantum run failed on a clean network: {e}")),
    }
}

fn evaluate_primitive(spec: &ScenarioSpec, g: &WeightedGraph) -> Result<EvalResult, String> {
    let n = g.n();
    // The tree is built on the lossless network so the faulted phase under
    // test is exactly the convergecast.
    let clean = congest_sim::SimConfig::standard(n, g.max_weight()).with_max_rounds(1_000_000);
    let (tree, _) =
        primitives::bfs_tree(g, 0, &clean).map_err(|e| format!("clean bfs_tree failed: {e}"))?;
    let values: Vec<u128> = (0..n as u128).map(|v| v + 1).collect();
    let expected: u128 = values.iter().sum();
    let cfg = spec.build_config(g);
    let check = match primitives::converge_cast(g, 0, &cfg, &tree, &values, Aggregate::Sum) {
        Ok((sum, _)) if sum == expected => CheckResult::pass(
            Oracle::QualityConsistency,
            format!("aggregate exact ({sum})"),
        ),
        Ok((sum, _)) => CheckResult::fail(
            Oracle::QualityConsistency,
            format!("silent wrong aggregate: got {sum}, expected {expected}"),
        ),
        Err(e) if !spec.is_clean() => CheckResult::pass(
            Oracle::QualityConsistency,
            format!("faulted cast surfaced a typed error: {e}"),
        ),
        Err(e) => CheckResult::fail(
            Oracle::QualityConsistency,
            format!("clean cast errored: {e}"),
        ),
    };
    Ok(EvalResult {
        value: expected as f64,
        aux: 0.0,
        rounds: 0,
        checks: vec![check],
        soft_side: None,
        measurement: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tolerance_shrinks_with_n() {
        assert!(o1_tolerance(1 << 20) < o1_tolerance(1 << 10));
        assert!(o1_tolerance(16) > 0.0 && o1_tolerance(16) <= 0.25);
    }

    #[test]
    fn shared_setup_caches_match_direct_kernels() {
        use crate::scenario::{Family, FaultSpec, ParMode};
        use congest_graph::metrics;
        for seed in 0..5 {
            let spec = ScenarioSpec {
                seed,
                family: Family::ErdosRenyi { p: 0.2 },
                n: 20,
                max_weight: 9,
                faults: FaultSpec::NoFaults,
                parallelism: ParMode::Sequential,
                workload: Workload::BaselineExact,
            }
            .normalized();
            let setup = SharedSetup::build(&spec);
            let g = spec.build_graph();
            assert_eq!(*setup.extremes(), metrics::extremes(&g));
            assert_eq!(
                *setup.unweighted_extremes(),
                metrics::unweighted_extremes(&g)
            );
            assert_eq!(setup.d(), metrics::unweighted_diameter(&g).max(1));
        }
        let disconnected = SharedSetup {
            graph: WeightedGraph::from_edges(4, [(0, 1, 1), (2, 3, 1)]).unwrap(),
            extremes: OnceLock::new(),
            unweighted: OnceLock::new(),
        };
        assert_eq!(disconnected.d(), usize::MAX);
        assert!(!disconnected.extremes().is_connected());
    }

    #[test]
    fn oracle_names_are_stable() {
        assert_eq!(Oracle::ApproxRatioSoft.name(), "approx-ratio-soft");
        assert_eq!(Oracle::RoundEnvelope.name(), "round-envelope");
    }
}
