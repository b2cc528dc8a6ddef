//! The [`RunbookReport`]: full provenance, per-job metrics and
//! fingerprints, tolerance verdicts — emitted as *canonical JSON* whose
//! bytes are identical across reruns and lane counts.
//!
//! Canonicalization rules (the contract the determinism proptests and the
//! golden fixture pin):
//!
//! * object keys are emitted in sorted (alphabetical) order at every
//!   nesting level;
//! * no whitespace;
//! * strings use `serde::write_json_string` escaping;
//! * numbers use `wdr_metrics::snapshot::write_f64` — shortest-roundtrip
//!   for finite values, `null` for non-finite;
//! * nothing volatile enters the report: [`RunbookMeta`] carries commit,
//!   host threads, and seeds but — unlike `wdr_metrics::RunMeta` — **no
//!   wall-clock timestamp**, and job outcomes carry no timings.

use crate::exec::JobOutcome;
use crate::expand::Job;
use crate::plan::{plan_hash, AblationPlan};
use serde::write_json_string;
use serde_json::Value;
use std::collections::BTreeMap;
use wdr_metrics::provenance;
use wdr_metrics::snapshot::write_f64;
use wdr_metrics::util::fnv1a_hex;

/// Provenance header of a runbook. Deliberately timestamp-free so rerun
/// bytes are identical (the schema version covers format evolution).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunbookMeta {
    /// Report format version.
    pub schema_version: u32,
    /// The plan's `name` field.
    pub plan_name: String,
    /// FNV-1a of the plan's canonical RON bytes ([`plan_hash`]).
    pub plan_hash: String,
    /// Git commit (`WDR_COMMIT` env → `git rev-parse` → `"unknown"`).
    pub commit: String,
    /// Available parallelism on the recording host.
    pub host_threads: usize,
    /// Root seeds the run used (sorted, deduplicated).
    pub seeds: Vec<u64>,
}

impl RunbookMeta {
    /// Captures provenance for a run of `plan` under `root_seed`.
    pub fn capture(plan: &AblationPlan, root_seed: u64) -> RunbookMeta {
        RunbookMeta {
            schema_version: 1,
            plan_name: plan.name.clone(),
            plan_hash: plan_hash(plan),
            commit: provenance::git_commit(),
            host_threads: provenance::host_threads(),
            seeds: vec![root_seed],
        }
    }
}

/// One job's row in the runbook.
#[derive(Clone, Debug, PartialEq)]
pub struct JobReport {
    /// Expansion index.
    pub index: usize,
    /// Stable job id (`job-0007`).
    pub id: String,
    /// The job's full parameter assignment.
    pub params: BTreeMap<String, Value>,
    /// Measured metrics (includes the synthetic `failed` ∈ {0, 1}).
    pub metrics: BTreeMap<String, f64>,
    /// Substrate failure message, if any.
    pub error: Option<String>,
    /// FNV-1a of this job's canonical fragment (id, index, params,
    /// metrics, error — not the fingerprint itself).
    pub fingerprint: String,
}

/// One tolerance evaluation.
#[derive(Clone, Debug, PartialEq)]
pub struct Verdict {
    /// The job evaluated (`"(none)"` for plan-level failures such as a
    /// metric no job produced).
    pub job_id: String,
    /// The metric the tolerance names.
    pub metric: String,
    /// The measured value (0 when the metric is missing).
    pub value: f64,
    /// Whether the tolerance held.
    pub ok: bool,
    /// Human-readable evidence; names the metric on violation.
    pub detail: String,
}

/// The full runbook: provenance, jobs, verdicts, and the embedded
/// registry snapshot.
#[derive(Clone, Debug, PartialEq)]
pub struct RunbookReport {
    /// Provenance header.
    pub meta: RunbookMeta,
    /// Substrate name (`Substrate::name`).
    pub substrate: String,
    /// Mode name (`AblationMode::name`).
    pub mode: String,
    /// One row per job, expansion order.
    pub jobs: Vec<JobReport>,
    /// Tolerance verdicts: per `(metric, job)` in tolerance-name order.
    pub verdicts: Vec<Verdict>,
    /// Embedded `wdr-metrics` snapshot as sorted `(name, value)` pairs.
    pub metrics: Vec<(String, f64)>,
    /// `true` when every verdict holds.
    pub passed: bool,
}

fn write_value_json(v: &Value, out: &mut String) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Number(x) => write_f64(*x, out),
        Value::String(s) => write_json_string(s, out),
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value_json(item, out);
            }
            out.push(']');
        }
        Value::Object(map) => {
            out.push('{');
            for (i, (k, v)) in map.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_json_string(k, out);
                out.push(':');
                write_value_json(v, out);
            }
            out.push('}');
        }
    }
}

/// The job fragment *without* the fingerprint field — what the
/// fingerprint is computed over.
fn write_job_core(job: &JobReport, out: &mut String) {
    out.push_str("\"error\":");
    match &job.error {
        None => out.push_str("null"),
        Some(e) => write_json_string(e, out),
    }
    out.push_str(",\"id\":");
    write_json_string(&job.id, out);
    out.push_str(&format!(",\"index\":{}", job.index));
    out.push_str(",\"metrics\":{");
    for (i, (k, v)) in job.metrics.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_json_string(k, out);
        out.push(':');
        write_f64(*v, out);
    }
    out.push_str("},\"params\":{");
    for (i, (k, v)) in job.params.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_json_string(k, out);
        out.push(':');
        write_value_json(v, out);
    }
    out.push('}');
}

/// FNV-1a fingerprint of a job row (over its canonical fragment).
pub fn job_fingerprint(job: &JobReport) -> String {
    let mut s = String::new();
    write_job_core(job, &mut s);
    fnv1a_hex(s.as_bytes())
}

/// Builds the job rows from expansion + execution results (stamping each
/// row's artifact fingerprint).
pub fn job_reports(jobs: &[Job], outcomes: &[JobOutcome]) -> Vec<JobReport> {
    jobs.iter()
        .zip(outcomes)
        .map(|(job, out)| {
            debug_assert_eq!(job.index, out.index);
            let mut row = JobReport {
                index: job.index,
                id: job.id.clone(),
                params: job.params.clone(),
                metrics: out.metrics.clone(),
                error: out.error.clone(),
                fingerprint: String::new(),
            };
            row.fingerprint = job_fingerprint(&row);
            row
        })
        .collect()
}

/// Evaluates every plan tolerance against every job, in tolerance-name
/// then job order. A metric no job produced yields a single failing
/// verdict naming it. Returns the verdicts and the overall pass flag.
pub fn check_tolerances(plan: &AblationPlan, jobs: &[JobReport]) -> (Vec<Verdict>, bool) {
    let mut verdicts = Vec::new();
    let mut passed = true;
    for (metric, tol) in &plan.tolerances {
        let mut produced = false;
        for job in jobs {
            let Some(&value) = job.metrics.get(metric) else {
                continue;
            };
            produced = true;
            match tol.evaluate(value) {
                Ok(()) => verdicts.push(Verdict {
                    job_id: job.id.clone(),
                    metric: metric.clone(),
                    value,
                    ok: true,
                    detail: "within tolerance".to_string(),
                }),
                Err(why) => {
                    passed = false;
                    verdicts.push(Verdict {
                        job_id: job.id.clone(),
                        metric: metric.clone(),
                        value,
                        ok: false,
                        detail: format!("metric '{metric}': {why}"),
                    });
                }
            }
        }
        if !produced {
            passed = false;
            verdicts.push(Verdict {
                job_id: "(none)".to_string(),
                metric: metric.clone(),
                value: 0.0,
                ok: false,
                detail: format!("metric '{metric}' was not produced by any job"),
            });
        }
    }
    (verdicts, passed)
}

/// Serializes the report into its canonical JSON form (see the module
/// docs for the exact rules). Infallible in practice; the `Result`
/// mirrors the runbook-producer convention so call sites stay uniform if
/// serialization ever gains failure modes.
pub fn to_canonical_json_bytes(report: &RunbookReport) -> Result<Vec<u8>, String> {
    let mut out = String::new();
    out.push_str("{\"jobs\":[");
    for (i, job) in report.jobs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('{');
        write_job_core(job, &mut out);
        out.push_str(",\"fingerprint\":");
        write_json_string(&job.fingerprint, &mut out);
        out.push('}');
    }
    out.push_str("],\"meta\":{");
    let meta = &report.meta;
    out.push_str("\"commit\":");
    write_json_string(&meta.commit, &mut out);
    out.push_str(&format!(",\"host_threads\":{}", meta.host_threads));
    out.push_str(",\"plan_hash\":");
    write_json_string(&meta.plan_hash, &mut out);
    out.push_str(",\"plan_name\":");
    write_json_string(&meta.plan_name, &mut out);
    out.push_str(&format!(",\"schema_version\":{}", meta.schema_version));
    out.push_str(",\"seeds\":[");
    for (i, seed) in meta.seeds.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&seed.to_string());
    }
    out.push_str("]},\"metrics\":[");
    for (i, (name, value)) in report.metrics.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('[');
        write_json_string(name, &mut out);
        out.push(',');
        write_f64(*value, &mut out);
        out.push(']');
    }
    out.push_str("],\"mode\":");
    write_json_string(&report.mode, &mut out);
    out.push_str(&format!(
        ",\"passed\":{}",
        if report.passed { "true" } else { "false" }
    ));
    out.push_str(",\"substrate\":");
    write_json_string(&report.substrate, &mut out);
    out.push_str(",\"verdicts\":[");
    for (i, v) in report.verdicts.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"detail\":");
        write_json_string(&v.detail, &mut out);
        out.push_str(",\"job_id\":");
        write_json_string(&v.job_id, &mut out);
        out.push_str(",\"metric\":");
        write_json_string(&v.metric, &mut out);
        out.push_str(&format!(",\"ok\":{}", if v.ok { "true" } else { "false" }));
        out.push_str(",\"value\":");
        write_f64(v.value, &mut out);
        out.push('}');
    }
    out.push_str("]}");
    Ok(out.into_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::ToleranceSpec;

    fn sample_report() -> RunbookReport {
        let mut params = BTreeMap::new();
        params.insert("n".to_string(), Value::Number(8.0));
        params.insert("family".to_string(), Value::String("path".into()));
        let mut metrics = BTreeMap::new();
        metrics.insert("diameter".to_string(), 7.0);
        metrics.insert("failed".to_string(), 0.0);
        let mut job = JobReport {
            index: 0,
            id: "job-0000".to_string(),
            params,
            metrics,
            error: None,
            fingerprint: String::new(),
        };
        job.fingerprint = job_fingerprint(&job);
        RunbookReport {
            meta: RunbookMeta {
                schema_version: 1,
                plan_name: "report-test".to_string(),
                plan_hash: "deadbeefdeadbeef".to_string(),
                commit: "testcommit".to_string(),
                host_threads: 4,
                seeds: vec![7],
            },
            substrate: "Sweep".to_string(),
            mode: "Grid".to_string(),
            jobs: vec![job],
            verdicts: vec![Verdict {
                job_id: "job-0000".to_string(),
                metric: "diameter".to_string(),
                value: 7.0,
                ok: true,
                detail: "within tolerance".to_string(),
            }],
            metrics: vec![("ablate.jobs".to_string(), 1.0)],
            passed: true,
        }
    }

    #[test]
    fn canonical_json_is_stable_and_parses() {
        let report = sample_report();
        let a = to_canonical_json_bytes(&report).unwrap();
        let b = to_canonical_json_bytes(&report).unwrap();
        assert_eq!(a, b);
        let text = String::from_utf8(a).unwrap();
        // No structural whitespace; sorted top-level keys.
        assert!(text.starts_with("{\"jobs\":[{"));
        assert!(!text.contains('\n') && !text.contains(": ") && !text.contains(", "));
        let jobs_pos = text.find("\"jobs\"").unwrap();
        let meta_pos = text.find("\"meta\"").unwrap();
        let verdicts_pos = text.find("\"verdicts\"").unwrap();
        assert!(jobs_pos < meta_pos && meta_pos < verdicts_pos);
        let v = serde_json::from_str(&text).expect("canonical JSON parses");
        assert_eq!(
            v.get("substrate").and_then(Value::as_str),
            Some("Sweep"),
            "{text}"
        );
        assert_eq!(v.get("passed").and_then(Value::as_bool), Some(true));
    }

    #[test]
    fn fingerprint_tracks_job_content() {
        let report = sample_report();
        let mut job = report.jobs[0].clone();
        let original = job.fingerprint.clone();
        assert_eq!(job_fingerprint(&job), original);
        job.metrics.insert("diameter".to_string(), 8.0);
        assert_ne!(job_fingerprint(&job), original);
    }

    #[test]
    fn missing_metric_fails_with_named_verdict() {
        let report = sample_report();
        let mut plan_tolerances = BTreeMap::new();
        plan_tolerances.insert("nonexistent".to_string(), ToleranceSpec::default());
        let plan = AblationPlan {
            name: "t".into(),
            substrate: crate::plan::Substrate::Sweep,
            mode: crate::plan::AblationMode::Grid,
            samples: None,
            factors: BTreeMap::new(),
            fixed: BTreeMap::new(),
            tolerances: plan_tolerances,
        };
        let (verdicts, passed) = check_tolerances(&plan, &report.jobs);
        assert!(!passed);
        assert_eq!(verdicts.len(), 1);
        assert!(verdicts[0].detail.contains("nonexistent"));
    }

    #[test]
    fn violated_tolerance_names_metric() {
        let report = sample_report();
        let mut tolerances = BTreeMap::new();
        tolerances.insert(
            "diameter".to_string(),
            ToleranceSpec {
                max: Some(5.0),
                ..ToleranceSpec::default()
            },
        );
        let plan = AblationPlan {
            name: "t".into(),
            substrate: crate::plan::Substrate::Sweep,
            mode: crate::plan::AblationMode::Grid,
            samples: None,
            factors: BTreeMap::new(),
            fixed: BTreeMap::new(),
            tolerances,
        };
        let (verdicts, passed) = check_tolerances(&plan, &report.jobs);
        assert!(!passed);
        let bad = verdicts.iter().find(|v| !v.ok).unwrap();
        assert!(bad.detail.contains("'diameter'"));
        assert_eq!(bad.value, 7.0);
    }
}
