//! Corpus execution: runs every scenario through the oracles, aggregates
//! the statistical (soft-side) checks, fits and gates the round envelope,
//! and powers the `wdr-conform` mutation self-check and failing-seed
//! shrinker.

use crate::batch::{self, ScenarioTiming};
use crate::envelope::{self, EnvelopeReport};
use crate::oracle::{self, Oracle, ScenarioOutcome};
use crate::scenario::ScenarioSpec;
use quantum_sim::mutation::Mutation;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Minimum corpus-wide success rate of the w.h.p. sandwich side over
/// clean quantum runs. Clean corpora measure ≈ 0.95+; arming
/// [`Mutation::SkipGroverPhase`] collapses the searches to single uniform
/// measurements and drags the rate far below this floor — which is
/// exactly how the mutation self-check proves the suite has teeth.
pub const SOFT_SIDE_FLOOR: f64 = 0.75;

/// Below this many clean quantum samples the soft-side aggregate is not
/// statistically meaningful and is skipped (single-scenario replays).
pub const SOFT_SIDE_MIN_SAMPLES: usize = 4;

/// One suite-level failure.
#[derive(Clone, Debug)]
pub struct Failure {
    /// The offending seed (`None` for corpus-aggregate failures).
    pub seed: Option<u64>,
    /// The oracle that failed.
    pub oracle: Oracle,
    /// Evidence.
    pub detail: String,
}

/// Options for one suite run.
#[derive(Clone, Debug, Default)]
pub struct SuiteOptions {
    /// Arm a known bug in the quantum layer for the whole run (the
    /// self-check: the suite must then FAIL).
    pub mutate: Option<Mutation>,
    /// Run only the first `n` scenarios (seed order) — the CI smoke lane.
    pub slice: Option<usize>,
    /// Where to write `BENCH_conformance.json` (`None` = skip).
    pub bench_out: Option<PathBuf>,
    /// Metrics registry the run publishes into: the envelope's fitted
    /// constants as `conformance.{regime}.…` gauges plus the quantum
    /// search counters under `conformance.quantum.…`. `None` uses a fresh
    /// private registry — the report's embedded snapshot is produced
    /// either way; pass one to also read the metrics live.
    pub registry: Option<wdr_metrics::MetricsRegistry>,
    /// Batch lanes: graph-grouped scenarios fan across `l` lanes via
    /// [`crate::batch`]; `None` means one lane. Results are bit-identical
    /// at every lane count (proptest-pinned); only the timings differ.
    pub lanes: Option<usize>,
}

/// The suite verdict.
#[derive(Debug)]
pub struct SuiteReport {
    /// Per-scenario outcomes, corpus order.
    pub outcomes: Vec<ScenarioOutcome>,
    /// Every failure, scenario-level and aggregate.
    pub failures: Vec<Failure>,
    /// Soft-side success rate over clean quantum runs (`None` if too few).
    pub soft_rate: Option<f64>,
    /// The fitted round envelope.
    pub envelope: EnvelopeReport,
    /// Where the bench artifact landed, if written.
    pub bench_path: Option<PathBuf>,
    /// Per-scenario setup-vs-execute breakdown, corpus order. Timings are
    /// observational: they are excluded from [`fingerprint`].
    pub timings: Vec<ScenarioTiming>,
    /// Wall-clock seconds for the whole scenario loop (excludes envelope
    /// fitting and artifact writes).
    pub wall_secs: f64,
    /// Lanes the run used (`None` = one lane).
    pub lanes: Option<usize>,
}

impl SuiteReport {
    /// `true` when no oracle failed anywhere.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }

    /// Total seconds spent building shared setups (graph + topology
    /// metrics), summed over scenarios.
    pub fn setup_secs(&self) -> f64 {
        self.timings.iter().map(|t| t.setup_secs).sum()
    }

    /// Total seconds spent executing oracles, summed over scenarios.
    pub fn execute_secs(&self) -> f64 {
        self.timings.iter().map(|t| t.execute_secs).sum()
    }
}

/// A stable fingerprint of everything semantically produced by a suite run:
/// per-scenario oracle verdicts (with details), soft-side flags, round
/// measurements, failures, the soft rate, and the envelope's regime fits
/// and embedded metric snapshot. Floats are rendered with full roundtrip
/// precision, so equal fingerprints mean bit-identical results.
///
/// Deliberately excluded: timings, wall clock, lane count, bench path, and
/// the envelope's host/timestamp provenance — everything observational.
/// This is the equality the batch-equivalence proptests and the E12 gate
/// check across lane counts and against isolated single-spec runs.
pub fn fingerprint(report: &SuiteReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for o in &report.outcomes {
        writeln!(
            out,
            "outcome seed={} spec={:?} n={} d={} soft={:?} meas={:?}",
            o.spec.seed, o.spec, o.n, o.d, o.soft_side, o.measurement
        )
        .unwrap();
        for c in &o.checks {
            writeln!(
                out,
                "  check {} passed={} {}",
                c.oracle.name(),
                c.passed,
                c.detail
            )
            .unwrap();
        }
    }
    for f in &report.failures {
        writeln!(
            out,
            "failure seed={:?} {} {}",
            f.seed,
            f.oracle.name(),
            f.detail
        )
        .unwrap();
    }
    writeln!(out, "soft_rate={:?}", report.soft_rate).unwrap();
    writeln!(
        out,
        "envelope passed={} samples={}",
        report.envelope.passed, report.envelope.samples
    )
    .unwrap();
    for r in &report.envelope.regimes {
        writeln!(out, "regime {:?}", r).unwrap();
    }
    for (name, value) in &report.envelope.metrics {
        writeln!(out, "metric {name}={value:?}").unwrap();
    }
    writeln!(out, "seeds={:?}", report.envelope.meta.seeds).unwrap();
    out
}

/// Runs the suite over `specs` through the [`crate::batch`] engine on
/// [`SuiteOptions::lanes`] lanes. Every lane count produces a
/// bit-identical report (see [`fingerprint`]).
pub fn run_suite(specs: &[ScenarioSpec], options: &SuiteOptions) -> SuiteReport {
    let registry = options.registry.clone().unwrap_or_default();
    // The mutation hook and metrics sink are thread-local scope guards;
    // `batch::run_specs` installs them inside every group task.
    let search_metrics = quantum_sim::SearchMetrics::register(&registry, "conformance.quantum");
    let take = options.slice.unwrap_or(specs.len()).min(specs.len());
    let started = Instant::now();
    let (outcomes, timings) = batch::run_specs(
        &specs[..take],
        options.lanes,
        options.mutate,
        &search_metrics,
    );
    let wall_secs = started.elapsed().as_secs_f64();
    let mut failures = Vec::new();
    for outcome in &outcomes {
        for check in outcome.failures() {
            failures.push(Failure {
                seed: Some(outcome.spec.seed),
                oracle: check.oracle,
                detail: check.detail.clone(),
            });
        }
    }

    let soft: Vec<bool> = outcomes.iter().filter_map(|o| o.soft_side).collect();
    let soft_rate = if soft.len() >= SOFT_SIDE_MIN_SAMPLES {
        let rate = soft.iter().filter(|&&ok| ok).count() as f64 / soft.len() as f64;
        if rate < SOFT_SIDE_FLOOR {
            failures.push(Failure {
                seed: None,
                oracle: Oracle::ApproxRatioSoft,
                detail: format!(
                    "w.h.p. sandwich side held in only {:.0}% of {} clean quantum runs \
                     (floor {:.0}%) — the approximation guarantee is statistically broken",
                    rate * 100.0,
                    soft.len(),
                    SOFT_SIDE_FLOOR * 100.0
                ),
            });
        }
        Some(rate)
    } else {
        None
    };

    let measurements: Vec<_> = outcomes.iter().filter_map(|o| o.measurement).collect();
    let mut envelope = envelope::fit(&measurements);
    let seeds: Vec<u64> = specs[..take].iter().map(|s| s.seed).collect();
    envelope.publish(&seeds, &registry);
    for regime in envelope.regimes.iter().filter(|r| !r.passed) {
        failures.push(Failure {
            seed: None,
            oracle: Oracle::RoundEnvelope,
            detail: format!(
                "regime {}: fitted constant c_max = {:.1} exceeds ceiling {:.1}",
                regime.regime, regime.c_max, regime.ceiling
            ),
        });
    }
    let bench_path = options
        .bench_out
        .as_deref()
        .map(|dir| envelope::write_bench_json(&envelope, dir).expect("write BENCH_conformance"));

    SuiteReport {
        outcomes,
        failures,
        soft_rate,
        envelope,
        bench_path,
        timings,
        wall_secs,
        lanes: options.lanes,
    }
}

/// Runs one scenario and returns the first per-scenario oracle failure
/// (`None` = the scenario passes). The shrinker's fitness function.
pub fn first_failure(spec: &ScenarioSpec) -> Option<String> {
    let outcome = oracle::run_scenario(spec);
    outcome
        .failures()
        .first()
        .map(|c| format!("{}: {}", c.oracle.name(), c.detail))
}

/// Result of shrinking a failing seed.
#[derive(Clone, Debug)]
pub struct ShrinkOutcome {
    /// The spec the shrink started from.
    pub original: ScenarioSpec,
    /// The smallest still-failing spec found.
    pub shrunk: ScenarioSpec,
    /// Accepted shrink steps.
    pub steps: usize,
    /// The failure the shrunk spec reproduces.
    pub failure: String,
}

/// Greedy shrink: while any candidate (halve `n` / drop faults / collapse
/// weights) still fails, descend into it. Returns
/// `None` when `spec` does not fail in the first place. Terminates because
/// every candidate strictly decreases
/// [`ScenarioSpec::size_measure`].
pub fn shrink(spec: &ScenarioSpec) -> Option<ShrinkOutcome> {
    shrink_with(spec, first_failure)
}

/// [`shrink`] with an injectable fitness function (the real one replays
/// the oracles; tests substitute synthetic failure predicates).
pub fn shrink_with(
    spec: &ScenarioSpec,
    fails: impl Fn(&ScenarioSpec) -> Option<String>,
) -> Option<ShrinkOutcome> {
    let mut failure = fails(spec)?;
    let mut current = *spec;
    let mut steps = 0usize;
    loop {
        let mut advanced = false;
        for candidate in current.shrink_candidates() {
            if let Some(f) = fails(&candidate) {
                current = candidate;
                failure = f;
                steps += 1;
                advanced = true;
                break;
            }
        }
        if !advanced {
            break;
        }
    }
    Some(ShrinkOutcome {
        original: *spec,
        shrunk: current,
        steps,
        failure,
    })
}

/// Renders the suite verdict for the CLI (stable text: CI greps oracle
/// names out of it).
pub fn render_report(report: &SuiteReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    writeln!(out, "scenarios run: {}", report.outcomes.len()).unwrap();
    let shared = report.timings.iter().filter(|t| t.shared_setup).count();
    writeln!(
        out,
        "timing: setup {:.3}s + execute {:.3}s, wall {:.3}s ({}, {} shared setups)",
        report.setup_secs(),
        report.execute_secs(),
        report.wall_secs,
        match report.lanes.unwrap_or(1).max(1) {
            1 => "1 lane".to_string(),
            l => format!("{l} lanes"),
        },
        shared
    )
    .unwrap();
    if let Some(rate) = report.soft_rate {
        writeln!(
            out,
            "soft-side rate: {:.0}% (floor {:.0}%)",
            rate * 100.0,
            SOFT_SIDE_FLOOR * 100.0
        )
        .unwrap();
    }
    for regime in &report.envelope.regimes {
        writeln!(
            out,
            "envelope {}: {} samples, c in [{:.1}, {:.1}], ceiling {:.1} — {}",
            regime.regime,
            regime.samples,
            regime.c_min,
            regime.c_max,
            regime.ceiling,
            if regime.passed { "ok" } else { "FAIL" }
        )
        .unwrap();
    }
    if let Some(path) = &report.bench_path {
        writeln!(out, "bench artifact: {}", path.display()).unwrap();
    }
    if report.passed() {
        writeln!(out, "PASS: every oracle satisfied").unwrap();
    } else {
        writeln!(out, "FAIL: {} oracle failure(s)", report.failures.len()).unwrap();
        for f in &report.failures {
            match f.seed {
                Some(seed) => writeln!(out, "  [{}] seed {seed}: {}", f.oracle.name(), f.detail),
                None => writeln!(out, "  [{}] corpus-wide: {}", f.oracle.name(), f.detail),
            }
            .unwrap();
        }
    }
    out
}

/// Generates the canonical corpus: the specs of seeds `0..count`.
pub fn generate_corpus(count: u64) -> Vec<ScenarioSpec> {
    (0..count).map(ScenarioSpec::from_seed).collect()
}

/// Loads the corpus from `dir` and runs the suite.
pub fn run_corpus_dir(dir: &Path, options: &SuiteOptions) -> Result<SuiteReport, String> {
    let specs = crate::corpus::load_corpus(dir)?;
    if specs.is_empty() {
        return Err(format!("no scenarios in {}", dir.display()));
    }
    Ok(run_suite(&specs, options))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shrink_returns_none_for_passing_predicate() {
        let spec = ScenarioSpec::from_seed(7);
        assert!(shrink_with(&spec, |_| None).is_none());
    }

    #[test]
    fn shrink_descends_to_the_predicate_boundary() {
        // Synthetic bug: "fails whenever n ≥ 8". The greedy shrinker must
        // land on a still-failing spec none of whose candidates fail —
        // i.e. halving n once more would cross below 8.
        let spec = generate_corpus(48)
            .into_iter()
            .find(|s| s.n >= 16)
            .expect("corpus has a spec with n ≥ 16");
        let fails = |s: &ScenarioSpec| (s.n >= 8).then(|| format!("n = {} too big", s.n));
        let out = shrink_with(&spec, fails).expect("spec fails the predicate");
        assert!(out.steps >= 1, "at least one halving step must be accepted");
        assert!(out.shrunk.n >= 8, "shrunk spec must still fail");
        assert!(
            out.shrunk.shrink_candidates().iter().all(|c| c.n < 8),
            "shrunk spec must be a local minimum of the predicate"
        );
        assert!(out.shrunk.size_measure() < out.original.size_measure());
    }

    #[test]
    fn suite_publishes_metrics_and_provenance() {
        let specs = generate_corpus(2);
        let registry = wdr_metrics::MetricsRegistry::new();
        let options = SuiteOptions {
            registry: Some(registry.clone()),
            ..SuiteOptions::default()
        };
        let report = run_suite(&specs, &options);
        assert_eq!(report.envelope.meta.seeds, vec![0, 1]);
        assert!(!report.envelope.metrics.is_empty());
        // The caller's registry holds exactly what the report embedded
        // (the search counters are registered even if no quantum scenario
        // ran, so the key is always present).
        let flat = registry.snapshot().flatten();
        assert!(flat.contains_key("conformance.quantum.searches"));
        for (name, value) in &report.envelope.metrics {
            assert_eq!(flat.get(name), Some(value), "metric {name} drifted");
        }
    }

    #[test]
    fn corpus_seeds_are_sequential() {
        let specs = generate_corpus(5);
        assert_eq!(specs.len(), 5);
        for (i, s) in specs.iter().enumerate() {
            assert_eq!(s.seed, i as u64);
        }
    }
}
