//! Order statistics, per-run seed derivation, and the metric catalogue the
//! binary prints (which must match `BENCHMARK.json`).

use wdr_metrics::trajectory::fnv1a_64;

/// A tail percentile is reported only when at least this many samples rank
/// beyond it; fewer would make it a reading of one or two outliers.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// Nearest-rank percentile of an ascending, non-empty slice: the smallest
/// sample with at least `p`% of the samples at or below it.
///
/// # Panics
///
/// Panics if `sorted` is empty or `p ∉ (0, 100]`.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    assert!(p > 0.0 && p <= 100.0, "percentile {p} out of (0, 100]");
    sorted[nearest_rank(sorted.len(), p) - 1]
}

/// 1-based nearest rank of the `p`th percentile among `n` samples.
fn nearest_rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// The `p`th percentile, or `None` when fewer than [`MIN_TAIL_SAMPLES`]
/// samples rank beyond it.
pub fn tail_percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() || sorted.len() - nearest_rank(sorted.len(), p) < MIN_TAIL_SAMPLES {
        return None;
    }
    Some(percentile(sorted, p))
}

/// Nearest-rank median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, 50.0)
}

/// `num / den`, or 0 when nothing was measured.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The seed of one input stream (`"graph"` or `"algo"`) of run `run` of a
/// workload: a pure function of its arguments, distinct across workloads,
/// runs and streams.
pub fn run_seed(seed: u64, workload: &str, run: usize, stream: &str) -> u64 {
    fnv1a_64(format!("{workload}/{stream}/{seed}/{run}").as_bytes())
}

/// Name, unit and direction of one printed metric.
#[derive(Debug, PartialEq, Eq)]
pub struct MetricSpec {
    /// Name as printed and as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

const fn spec(name: &'static str, unit: &'static str, better: &'static str) -> MetricSpec {
    MetricSpec { name, unit, better }
}

/// End-to-end metrics, printed by the untraced pass.
pub const END_TO_END: &[MetricSpec] = &[
    spec("run_ms_p50", "ms", "lower"),
    spec("runs_per_s", "1/s", "higher"),
    spec("setup_s", "s", "lower"),
    spec("peak_rss_mb", "MB", "lower"),
];

/// Per-layer metrics, printed by the traced pass. Each prefix names the
/// crate whose calls the spans wrap; `harness` is whatever drives the runs
/// (the benchmark loop, or the conformance runner on `corpus-500`), and
/// `trace` describes the traced pass itself.
pub const PER_LAYER: &[MetricSpec] = &[
    spec("graph.evaluate_sets_s", "s", "lower"),
    spec("graph.extremes_s", "s", "lower"),
    spec("graph.members", "count", "lower"),
    spec("graph.distinct_members_frac", "ratio", "lower"),
    spec("graph.us_per_member", "us", "lower"),
    spec("algos.t0_s", "s", "lower"),
    spec("algos.t1_s", "s", "lower"),
    spec("algos.t2_s", "s", "lower"),
    spec("algos.t0_rounds", "count", "lower"),
    spec("algos.t1_rounds", "count", "lower"),
    spec("algos.t2_rounds", "count", "lower"),
    spec("algos.t0_retries", "count", "lower"),
    spec("sim.bfs_tree_s", "s", "lower"),
    spec("sim.rounds_per_s", "1/s", "higher"),
    spec("sim.msgs_per_round", "ratio", "lower"),
    spec("sim.messages", "count", "lower"),
    spec("sim.bits", "count", "lower"),
    spec("quantum.inner_search_s", "s", "lower"),
    spec("quantum.outer_search_s", "s", "lower"),
    spec("quantum.grover_iterations", "count", "lower"),
    spec("quantum.oracle_queries", "count", "lower"),
    spec("core.sample_sets_s", "s", "lower"),
    spec("core.charged_rounds", "count", "lower"),
    spec("core.budgeted_rounds", "count", "lower"),
    spec("core.approx_ratio_max", "ratio", "lower"),
    spec("harness.setup_s", "s", "lower"),
    spec("harness.execute_s", "s", "lower"),
    spec("harness.shared_setup_frac", "ratio", "higher"),
    spec("harness.runs", "count", "higher"),
    spec("trace.total_s", "s", "lower"),
    spec("trace.coverage", "ratio", "higher"),
    spec("trace.overhead_frac", "ratio", "lower"),
];

/// Pairs `values` (name → value) with their specs in catalogue order.
///
/// # Errors
///
/// Names a metric that is missing from `values`, unknown to the catalogue,
/// or not a finite number.
pub fn attach_specs(
    catalogue: &'static [MetricSpec],
    values: &[(&'static str, f64)],
) -> Result<Vec<(&'static MetricSpec, f64)>, String> {
    if let Some((name, _)) = values
        .iter()
        .find(|(name, _)| !catalogue.iter().any(|s| s.name == *name))
    {
        return Err(format!("metric `{name}` is not in the catalogue"));
    }
    catalogue
        .iter()
        .map(|s| {
            let value = values
                .iter()
                .find(|(name, _)| *name == s.name)
                .map(|&(_, v)| v)
                .ok_or_else(|| format!("metric `{}` was not measured", s.name))?;
            if value.is_finite() {
                Ok((s, value))
            } else {
                Err(format!("metric `{}` is not finite: {value}", s.name))
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 5.0);
        assert_eq!(percentile(&xs, 90.0), 9.0);
        assert_eq!(percentile(&xs, 91.0), 10.0);
        assert_eq!(percentile(&xs, 100.0), 10.0);
        assert_eq!(percentile(&xs, 0.1), 1.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        let sorted = |n: usize| (0..n).map(|i| i as f64).collect::<Vec<_>>();
        // 999 samples: rank 990, only 9 beyond.
        assert_eq!(tail_percentile(&sorted(999), 99.0), None);
        // 1000 samples: rank 990, exactly 10 beyond.
        assert_eq!(tail_percentile(&sorted(1000), 99.0), Some(989.0));
        // The corpus workload's full run list.
        let p99 = tail_percentile(&sorted(2000), 99.0).expect("2000 samples carry a p99");
        assert_eq!(p99, 1979.0);
        // A Theorem 1.1 workload's 8 runs carry no tail at all.
        assert_eq!(tail_percentile(&sorted(8), 99.0), None);
        assert_eq!(tail_percentile(&[], 99.0), None);
    }

    #[test]
    fn run_seeds_are_pure_and_distinct() {
        assert_eq!(
            run_seed(1, "t11-er-radius", 3, "graph"),
            run_seed(1, "t11-er-radius", 3, "graph")
        );
        let mut seen = std::collections::HashSet::new();
        for workload in crate::workloads::Workload::ALL {
            for seed in 1..4 {
                for run in 0..64 {
                    for stream in ["graph", "algo"] {
                        assert!(
                            seen.insert(run_seed(seed, workload.name(), run, stream)),
                            "seed collision at {workload:?}/{seed}/{run}/{stream}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn attach_specs_rejects_gaps_strays_and_non_finite_values() {
        let all: Vec<(&'static str, f64)> = END_TO_END.iter().map(|s| (s.name, 1.0)).collect();
        assert_eq!(
            attach_specs(END_TO_END, &all).unwrap().len(),
            END_TO_END.len()
        );
        assert!(attach_specs(END_TO_END, &all[1..])
            .unwrap_err()
            .contains("run_ms_p50"));
        let mut stray = all.clone();
        stray.push(("wall_s", 1.0));
        assert!(attach_specs(END_TO_END, &stray)
            .unwrap_err()
            .contains("wall_s"));
        let mut nan = all;
        nan[0].1 = f64::NAN;
        assert!(attach_specs(END_TO_END, &nan)
            .unwrap_err()
            .contains("not finite"));
    }

    /// The catalogue is the single source of the printed names; it must
    /// agree with `BENCHMARK.json` entry for entry.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
        let json = serde_json::from_str(&text).expect("parse BENCHMARK.json");
        for (key, catalogue) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<(String, String, String)> = json
                .get(key)
                .and_then(serde_json::Value::as_array)
                .unwrap_or_else(|| panic!("BENCHMARK.json lacks `{key}`"))
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(|v| v.as_str()).unwrap().to_string();
                    (field("name"), field("unit"), field("better"))
                })
                .collect();
            let printed: Vec<(String, String, String)> = catalogue
                .iter()
                .map(|s| (s.name.into(), s.unit.into(), s.better.into()))
                .collect();
            assert_eq!(listed, printed, "`{key}` differs from the catalogue");
        }
        let workloads: Vec<&str> = json
            .get("workloads")
            .and_then(serde_json::Value::as_array)
            .expect("BENCHMARK.json lists workloads")
            .iter()
            .map(|w| w.get("name").and_then(|v| v.as_str()).unwrap())
            .collect();
        let known: Vec<&str> = crate::workloads::Workload::ALL
            .iter()
            .map(|w| w.name())
            .collect();
        assert_eq!(workloads, known);
    }
}
