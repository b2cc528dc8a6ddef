//! Checked-in perf trajectory: canonical-JSON rows, artifact hashing, and
//! the regression gate behind `wdr-perf record` / `compare`.
//!
//! A **trajectory row** summarizes one benchmark run: the [`RunMeta`]
//! provenance header, an FNV-1a hash per `BENCH_*.json` artifact, and a
//! flat name → value map of the registry pairs every artifact embeds in
//! its `metrics` field (the trajectory knows no artifact schema). Rows are
//! appended to `perf/trajectory.jsonl` (one canonical-JSON object per
//! line); rows recorded with `--pin` become the baseline that
//! `wdr-perf compare` gates later runs against.
//!
//! Gating is deliberately conservative: only *machine-independent* metrics
//! (envelope constants `.c_max`, SumSweep `.sweep_fraction`, `.speedup`
//! ratios) fail the gate; raw timings and
//! throughputs are machine-dependent and appear in the delta table as
//! informational rows. Metrics present in the baseline but absent from the
//! candidate are *skipped with a warning* rather than failed: a pinned row
//! unions every experiment ever recorded, while any given run regenerates
//! only a subset of the artifacts (CI's perf lane runs E8/E9/conformance
//! but not the giant-scale E11, for example).

use crate::provenance::RunMeta;
use crate::snapshot::write_f64;
use serde_json::Value;
use std::collections::{BTreeMap, BTreeSet};
use std::io::Write as _;
use std::path::Path;

/// Default relative regression threshold (15%), per-metric, on gated
/// metrics only.
pub const DEFAULT_THRESHOLD: f64 = 0.15;

// The artifact fingerprint; kept at this path for the standalone
// `benchmark/` package, which imports it from here.
pub use crate::util::{fnv1a_64, fnv1a_hex};

/// One line of `perf/trajectory.jsonl`.
#[derive(Clone, Debug, PartialEq)]
pub struct TrajectoryRow {
    /// Provenance of the run.
    pub meta: RunMeta,
    /// Whether this row is a comparison baseline.
    pub pinned: bool,
    /// Artifact file name → FNV-1a hex fingerprint.
    pub artifacts: BTreeMap<String, String>,
    /// Flat metric name → value map extracted from the artifacts.
    pub metrics: BTreeMap<String, f64>,
}

impl TrajectoryRow {
    /// Canonical JSON: top-level keys in sorted order (`artifacts`, `meta`,
    /// `metrics`, `pinned`), map keys in `BTreeMap` order, no whitespace.
    /// Equal rows serialize to identical bytes.
    pub fn to_canonical_json(&self) -> String {
        use serde::Serialize as _;
        let mut out = String::from("{\"artifacts\":{");
        for (i, (name, hash)) in self.artifacts.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            serde::write_json_string(name, &mut out);
            out.push(':');
            serde::write_json_string(hash, &mut out);
        }
        out.push_str("},\"meta\":");
        self.meta.serialize_json(&mut out);
        out.push_str(",\"metrics\":{");
        for (i, (name, value)) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            serde::write_json_string(name, &mut out);
            out.push(':');
            write_f64(*value, &mut out);
        }
        out.push_str("},\"pinned\":");
        out.push_str(if self.pinned { "true" } else { "false" });
        out.push('}');
        out
    }

    /// Parses one trajectory line back into a row.
    ///
    /// # Errors
    ///
    /// Describes the first malformed field.
    pub fn from_json(line: &str) -> Result<TrajectoryRow, String> {
        let v = serde_json::from_str(line).map_err(|e| format!("trajectory row: {e}"))?;
        let meta_v = v.get("meta").ok_or("trajectory row: missing `meta`")?;
        let str_field = |obj: &Value, key: &str| -> Result<String, String> {
            obj.get(key)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("trajectory row: missing string `{key}`"))
        };
        let meta = RunMeta {
            schema_version: meta_v
                .get("schema_version")
                .and_then(Value::as_u64)
                .ok_or("trajectory row: missing `schema_version`")?
                as u32,
            commit: str_field(meta_v, "commit")?,
            recorded_at_utc: str_field(meta_v, "recorded_at_utc")?,
            host_threads: meta_v
                .get("host_threads")
                .and_then(Value::as_u64)
                .ok_or("trajectory row: missing `host_threads`")?
                as usize,
            seeds: meta_v
                .get("seeds")
                .and_then(Value::as_array)
                .ok_or("trajectory row: missing `seeds`")?
                .iter()
                .map(|s| s.as_u64().ok_or("trajectory row: non-integer seed"))
                .collect::<Result<Vec<u64>, _>>()?,
        };
        let artifacts = v
            .get("artifacts")
            .and_then(Value::as_object)
            .ok_or("trajectory row: missing `artifacts`")?
            .iter()
            .map(|(k, h)| {
                h.as_str()
                    .map(|h| (k.clone(), h.to_string()))
                    .ok_or("trajectory row: non-string artifact hash")
            })
            .collect::<Result<BTreeMap<_, _>, _>>()?;
        let metrics = v
            .get("metrics")
            .and_then(Value::as_object)
            .ok_or("trajectory row: missing `metrics`")?
            .iter()
            .map(|(k, n)| {
                n.as_f64()
                    .map(|n| (k.clone(), n))
                    .ok_or("trajectory row: non-numeric metric")
            })
            .collect::<Result<BTreeMap<_, _>, _>>()?;
        let pinned = v.get("pinned").and_then(Value::as_bool).unwrap_or(false);
        Ok(TrajectoryRow {
            meta,
            pinned,
            artifacts,
            metrics,
        })
    }
}

/// Which way "better" points for a metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    /// Smaller values are better (constants, fractions, timings).
    LowerIsBetter,
    /// Larger values are better (speedups, throughputs, sample counts).
    HigherIsBetter,
}

/// Direction of `name`, by suffix convention.
pub fn direction(name: &str) -> Direction {
    const HIGHER: [&str; 8] = [
        ".speedup",
        ".batch_speedup",
        ".rounds_per_sec",
        ".nodes_per_sec",
        ".edges_per_sec",
        ".scenarios_per_sec",
        ".samples",
        ".count",
    ];
    if HIGHER.iter().any(|s| name.ends_with(s)) {
        Direction::HigherIsBetter
    } else {
        Direction::LowerIsBetter
    }
}

/// Whether `name` participates in the regression gate. Only
/// machine-independent metrics do: fitted envelope constants, SumSweep
/// sweep fractions, and speedup ratios (including the batch
/// engine's corpus speedup, `.batch_speedup` — note the `_` keeps it out of
/// the plain `.speedup` suffix).
pub fn gated(name: &str) -> bool {
    name.ends_with(".c_max")
        || name.ends_with(".sweep_fraction")
        || name.ends_with(".speedup")
        || name.ends_with(".batch_speedup")
}

/// One metric's baseline/current pair in a comparison.
#[derive(Clone, Debug)]
pub struct Delta {
    /// Metric name.
    pub name: String,
    /// Baseline value.
    pub baseline: f64,
    /// Current value.
    pub current: f64,
    /// Relative change, oriented so **positive = worse** (regression
    /// fraction); `+0.20` means 20% worse than baseline.
    pub worse_by: f64,
    /// Whether this metric participates in the gate.
    pub gated: bool,
    /// `gated && worse_by > threshold`.
    pub regressed: bool,
}

/// The outcome of `compare`: per-metric deltas plus structural findings.
#[derive(Clone, Debug)]
pub struct CompareReport {
    /// Threshold the gate used.
    pub threshold: f64,
    /// Baseline commit (for rendering).
    pub baseline_commit: String,
    /// Baseline timestamp (for rendering).
    pub baseline_recorded_at: String,
    /// Every metric present in both rows.
    pub deltas: Vec<Delta>,
    /// Metrics present in the baseline but absent now — skipped with a
    /// warning, not failed: the pinned row unions every experiment ever
    /// recorded while a given run regenerates only a subset of artifacts.
    pub missing: Vec<String>,
    /// Metrics present now but not in the baseline (informational).
    pub added: Vec<String>,
    /// Artifacts whose fingerprint changed (informational; timings differ
    /// run to run by construction).
    pub changed_artifacts: Vec<String>,
    /// Set when the rows carry different schema versions (gate failure).
    pub schema_mismatch: Option<String>,
}

impl CompareReport {
    /// The regressions that fail the gate.
    pub fn regressions(&self) -> Vec<&Delta> {
        self.deltas.iter().filter(|d| d.regressed).collect()
    }

    /// `true` when the gate passes. Missing metrics only warn (see
    /// [`CompareReport::missing`]); they never fail the gate.
    pub fn passed(&self) -> bool {
        self.schema_mismatch.is_none() && self.deltas.iter().all(|d| !d.regressed)
    }

    /// Renders the delta table (and any structural findings) as markdown.
    pub fn to_markdown(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        writeln!(
            out,
            "## Perf delta vs `{}` ({})\n",
            short_commit(&self.baseline_commit),
            self.baseline_recorded_at
        )
        .unwrap();
        if let Some(mismatch) = &self.schema_mismatch {
            writeln!(out, "**SCHEMA MISMATCH**: {mismatch}\n").unwrap();
        }
        writeln!(out, "| metric | baseline | current | worse by | status |").unwrap();
        writeln!(out, "|---|---:|---:|---:|---|").unwrap();
        for d in &self.deltas {
            let status = if d.regressed {
                "**REGRESSED**"
            } else if d.gated {
                "ok"
            } else {
                "info"
            };
            writeln!(
                out,
                "| {} | {} | {} | {} | {} |",
                d.name,
                fmt_value(d.baseline),
                fmt_value(d.current),
                fmt_percent(d.worse_by),
                status
            )
            .unwrap();
        }
        for name in &self.missing {
            writeln!(
                out,
                "\nWARNING: metric `{name}` present in baseline but absent from \
                 this run — skipped"
            )
            .unwrap();
        }
        if !self.added.is_empty() {
            writeln!(
                out,
                "\nnew metrics (not in baseline): {}",
                self.added.join(", ")
            )
            .unwrap();
        }
        if !self.changed_artifacts.is_empty() {
            writeln!(
                out,
                "\nartifacts with changed fingerprints: {}",
                self.changed_artifacts.join(", ")
            )
            .unwrap();
        }
        let regressions = self.regressions();
        if self.passed() {
            writeln!(
                out,
                "\nGATE PASS: no gated metric regressed beyond {:.0}%",
                self.threshold * 100.0
            )
            .unwrap();
        } else {
            writeln!(
                out,
                "\nGATE FAIL: {} gated metric(s) regressed beyond {:.0}%{}",
                regressions.len(),
                self.threshold * 100.0,
                if self.schema_mismatch.is_none() {
                    ""
                } else {
                    " (or structural failure above)"
                }
            )
            .unwrap();
        }
        out
    }
}

fn short_commit(commit: &str) -> &str {
    if commit.len() >= 12 && commit.bytes().all(|b| b.is_ascii_hexdigit()) {
        &commit[..12]
    } else {
        commit
    }
}

fn fmt_value(v: f64) -> String {
    if v == 0.0 {
        return "0".to_string();
    }
    let abs = v.abs();
    if (0.001..1e7).contains(&abs) {
        let s = format!("{v:.4}");
        let s = s.trim_end_matches('0').trim_end_matches('.');
        s.to_string()
    } else {
        format!("{v:.3e}")
    }
}

fn fmt_percent(worse_by: f64) -> String {
    if worse_by.is_infinite() {
        return "∞".to_string();
    }
    format!("{:+.1}%", worse_by * 100.0)
}

/// Compares `current` against the pinned `baseline` with a per-metric
/// relative `threshold` on gated metrics.
pub fn compare(baseline: &TrajectoryRow, current: &TrajectoryRow, threshold: f64) -> CompareReport {
    let schema_mismatch =
        (baseline.meta.schema_version != current.meta.schema_version).then(|| {
            format!(
                "baseline schema v{} vs current v{} — re-pin the trajectory before gating",
                baseline.meta.schema_version, current.meta.schema_version
            )
        });
    let mut deltas = Vec::new();
    let mut missing = Vec::new();
    for (name, &base) in &baseline.metrics {
        match current.metrics.get(name) {
            Some(&cur) => {
                let dir = direction(name);
                let worse_by = if base == 0.0 {
                    if cur == base {
                        0.0
                    } else {
                        match dir {
                            Direction::LowerIsBetter => f64::INFINITY,
                            Direction::HigherIsBetter => -1.0,
                        }
                    }
                } else {
                    match dir {
                        Direction::LowerIsBetter => (cur - base) / base.abs(),
                        Direction::HigherIsBetter => (base - cur) / base.abs(),
                    }
                };
                let is_gated = gated(name);
                deltas.push(Delta {
                    name: name.clone(),
                    baseline: base,
                    current: cur,
                    worse_by,
                    gated: is_gated,
                    regressed: is_gated && worse_by > threshold,
                });
            }
            None => missing.push(name.clone()),
        }
    }
    let added = current
        .metrics
        .keys()
        .filter(|k| !baseline.metrics.contains_key(*k))
        .cloned()
        .collect();
    let changed_artifacts = baseline
        .artifacts
        .iter()
        .filter(|(name, hash)| current.artifacts.get(*name).is_some_and(|h| h != *hash))
        .map(|(name, _)| name.clone())
        .collect();
    CompareReport {
        threshold,
        baseline_commit: baseline.meta.commit.clone(),
        baseline_recorded_at: baseline.meta.recorded_at_utc.clone(),
        deltas,
        missing,
        added,
        changed_artifacts,
        schema_mismatch,
    }
}

/// Extracts trajectory metrics from one parsed `BENCH_*.json` artifact:
/// its embedded registry snapshot, `"metrics": [["name", value], ...]`.
/// Names are already fully qualified by the emitter, and nothing else in
/// the artifact (its `rows`, for instance) is read.
pub fn extract_metrics(v: &Value, out: &mut BTreeMap<String, f64>) {
    for pair in v
        .get("metrics")
        .and_then(Value::as_array)
        .into_iter()
        .flatten()
    {
        if let Some([name, value]) = pair.as_array().map(Vec::as_slice) {
            if let (Some(name), Some(value)) = (name.as_str(), value.as_f64()) {
                out.insert(name.to_string(), value);
            }
        }
    }
}

/// Builds an (unpinned) trajectory row from every `BENCH_*.json` under
/// `dir`: hashes each artifact, extracts its metrics, and unions the seed
/// sets from the embedded `meta` headers.
///
/// # Errors
///
/// When `dir` holds no artifacts or one fails to parse.
pub fn collect_dir(dir: &Path) -> Result<TrajectoryRow, String> {
    let mut artifacts = BTreeMap::new();
    let mut metrics = BTreeMap::new();
    let mut seeds = BTreeSet::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("read dir {}: {e}", dir.display()))?;
    let mut names: Vec<String> = entries
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|name| name.starts_with("BENCH_") && name.ends_with(".json"))
        .collect();
    names.sort_unstable();
    for name in &names {
        let path = dir.join(name);
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
        artifacts.insert(name.clone(), fnv1a_hex(text.as_bytes()));
        let v = serde_json::from_str(&text).map_err(|e| format!("parse {name}: {e}"))?;
        extract_metrics(&v, &mut metrics);
        for seed in v
            .get("meta")
            .and_then(|m| m.get("seeds"))
            .and_then(Value::as_array)
            .into_iter()
            .flatten()
        {
            if let Some(seed) = seed.as_u64() {
                seeds.insert(seed);
            }
        }
    }
    if artifacts.is_empty() {
        return Err(format!(
            "no BENCH_*.json artifacts under {} — run the experiments first \
             (e.g. `cargo run --release -p wdr-bench --bin tables -- --quick --exp e8`)",
            dir.display()
        ));
    }
    let seeds: Vec<u64> = seeds.into_iter().collect();
    Ok(TrajectoryRow {
        meta: RunMeta::capture(&seeds),
        pinned: false,
        artifacts,
        metrics,
    })
}

/// Loads every row of a trajectory file (empty when the file is absent).
///
/// # Errors
///
/// When a present file fails to read or a line fails to parse.
pub fn load_rows(path: &Path) -> Result<Vec<TrajectoryRow>, String> {
    if !path.exists() {
        return Ok(Vec::new());
    }
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    text.lines()
        .enumerate()
        .filter(|(_, line)| !line.trim().is_empty())
        .map(|(i, line)| {
            TrajectoryRow::from_json(line)
                .map_err(|e| format!("{} line {}: {e}", path.display(), i + 1))
        })
        .collect()
}

/// The most recent pinned row — the comparison baseline.
pub fn last_pinned(rows: &[TrajectoryRow]) -> Option<&TrajectoryRow> {
    rows.iter().rev().find(|r| r.pinned)
}

/// Appends `row` as one canonical-JSON line, creating parents as needed.
///
/// # Errors
///
/// Propagates filesystem errors as strings.
pub fn append_row(path: &Path, row: &TrajectoryRow) -> Result<(), String> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)
                .map_err(|e| format!("create {}: {e}", parent.display()))?;
        }
    }
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("open {}: {e}", path.display()))?;
    writeln!(file, "{}", row.to_canonical_json())
        .map_err(|e| format!("write {}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(metrics: &[(&str, f64)], pinned: bool) -> TrajectoryRow {
        TrajectoryRow {
            meta: RunMeta {
                schema_version: crate::provenance::SCHEMA_VERSION,
                commit: "0123456789abcdef0123456789abcdef01234567".into(),
                recorded_at_utc: "2026-08-07T00:00:00Z".into(),
                host_threads: 8,
                seeds: vec![1, 2],
            },
            pinned,
            artifacts: BTreeMap::from([(
                "BENCH_conformance.json".to_string(),
                "deadbeefdeadbeef".to_string(),
            )]),
            metrics: metrics.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
        }
    }

    #[test]
    fn canonical_json_round_trips() {
        let r = row(
            &[
                ("conformance.x.c_max", 3.5),
                ("e8.n48.seq.t1.rounds_per_sec", 123.0),
            ],
            true,
        );
        let json = r.to_canonical_json();
        let back = TrajectoryRow::from_json(&json).unwrap();
        assert_eq!(back, r);
        assert_eq!(back.to_canonical_json(), json);
    }

    #[test]
    fn identical_rows_pass_the_gate() {
        let base = row(
            &[
                ("a.c_max", 3.0),
                ("b.speedup", 4.0),
                ("t.secs_per_run", 0.5),
            ],
            true,
        );
        let report = compare(&base, &base, DEFAULT_THRESHOLD);
        assert!(report.passed());
        assert!(report.regressions().is_empty());
        assert!(report.to_markdown().contains("GATE PASS"));
    }

    #[test]
    fn injected_regression_fails_the_gate() {
        let base = row(&[("a.c_max", 3.0), ("b.speedup", 4.0)], true);
        // c_max grows 20% (> 15% threshold, lower-is-better).
        let cur = row(&[("a.c_max", 3.6), ("b.speedup", 4.0)], false);
        let report = compare(&base, &cur, DEFAULT_THRESHOLD);
        assert!(!report.passed());
        let regs = report.regressions();
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].name, "a.c_max");
        assert!((regs[0].worse_by - 0.2).abs() < 1e-12);
        assert!(report.to_markdown().contains("REGRESSED"));
    }

    #[test]
    fn speedup_drop_is_a_regression_but_timing_noise_is_not() {
        let base = row(&[("b.speedup", 4.0), ("t.secs_per_run", 0.5)], true);
        // Speedup collapses 50%; timing doubles (machine-dependent: info only).
        let cur = row(&[("b.speedup", 2.0), ("t.secs_per_run", 1.0)], false);
        let report = compare(&base, &cur, DEFAULT_THRESHOLD);
        assert_eq!(report.regressions().len(), 1);
        assert_eq!(report.regressions()[0].name, "b.speedup");
        let timing = report
            .deltas
            .iter()
            .find(|d| d.name == "t.secs_per_run")
            .unwrap();
        assert!(!timing.gated && !timing.regressed);
    }

    #[test]
    fn improvements_never_fail() {
        let base = row(&[("a.c_max", 3.0), ("b.speedup", 4.0)], true);
        let cur = row(&[("a.c_max", 1.0), ("b.speedup", 9.0)], false);
        assert!(compare(&base, &cur, DEFAULT_THRESHOLD).passed());
    }

    /// Metrics the candidate run did not regenerate (a pinned row unions
    /// every experiment; CI lanes run subsets) warn but never fail the gate.
    #[test]
    fn missing_baseline_metric_warns_but_passes() {
        let base = row(&[("a.c_max", 3.0), ("e12.batch_speedup", 1.2)], true);
        let cur = row(&[("a.c_max", 3.0)], false);
        let report = compare(&base, &cur, DEFAULT_THRESHOLD);
        assert!(report.passed(), "missing metrics must not fail the gate");
        assert_eq!(report.missing, vec!["e12.batch_speedup".to_string()]);
        let md = report.to_markdown();
        assert!(md.contains("WARNING"), "{md}");
        assert!(md.contains("skipped"), "{md}");
        assert!(md.contains("GATE PASS"), "{md}");
    }

    #[test]
    fn extractor_reads_embedded_pairs_only() {
        let mut out = BTreeMap::new();
        let artifact = serde_json::from_str(
            r#"{"rows":[{"n":48,"mode":"sequential+metrics","speedup_vs_sequential":0.98}],
                "regimes":[{"regime":"q","c_max":9.0}],
                "metrics":[["e9.x.sweep_fraction",0.023],["conformance.q.c_max",2.0],
                    ["e13.x.failed",1],["bad"],[3,4],["nan",null]]}"#,
        )
        .unwrap();
        extract_metrics(&artifact, &mut out);
        let want = [
            ("conformance.q.c_max", 2.0),
            ("e13.x.failed", 1.0),
            ("e9.x.sweep_fraction", 0.023),
        ];
        let want: BTreeMap<String, f64> = want.map(|(k, v)| (k.to_string(), v)).into();
        assert_eq!(
            out, want,
            "rows and regimes are ignored; malformed pairs are skipped"
        );

        // Gate membership and direction follow from the name suffix alone.
        use Direction::{HigherIsBetter as Higher, LowerIsBetter as Lower};
        for (name, is_gated, dir) in [
            ("e9.n512.sparse.w128.sumsweep.sweep_fraction", true, Lower),
            ("conformance.q.c_max", true, Lower),
            ("conformance.q.samples", false, Higher),
            ("e8.n48.sequential+metrics.t1.speedup", true, Higher),
            ("e11.power_law.n1000000.sumsweep.solve_secs", false, Lower),
            (
                "e11.power_law.n1000000.sumsweep.sweep_fraction",
                true,
                Lower,
            ),
            (
                "e11.power_law.n1000000.sumsweep.nodes_per_sec",
                false,
                Higher,
            ),
            ("e12.batch_speedup", true, Higher),
            ("e12.seq.wall_secs", false, Lower),
            ("e12.lanes8.scenarios_per_sec", false, Higher),
            ("e12.lane_count", false, Lower),
            ("e12.gate_skipped", false, Lower),
            ("e13.eps0.08.f0.0.w1.ratio", false, Lower),
            ("e13.worst_ratio", false, Lower),
        ] {
            assert_eq!((gated(name), direction(name)), (is_gated, dir), "{name}");
        }
    }

    #[test]
    fn trajectory_file_round_trips_and_finds_last_pin() {
        let dir = std::env::temp_dir().join(format!("wdr-metrics-test-{}", std::process::id()));
        let path = dir.join("trajectory.jsonl");
        let _ = std::fs::remove_file(&path);
        append_row(&path, &row(&[("a.c_max", 1.0)], true)).unwrap();
        append_row(&path, &row(&[("a.c_max", 2.0)], false)).unwrap();
        append_row(&path, &row(&[("a.c_max", 3.0)], true)).unwrap();
        append_row(&path, &row(&[("a.c_max", 4.0)], false)).unwrap();
        let rows = load_rows(&path).unwrap();
        assert_eq!(rows.len(), 4);
        assert_eq!(last_pinned(&rows).unwrap().metrics["a.c_max"], 3.0);
        std::fs::remove_dir_all(&dir).ok();
    }
}
