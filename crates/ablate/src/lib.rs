//! # wdr-ablate
//!
//! Declarative ablation/sweep harness: a [`AblationPlan`] (factors ×
//! fixed params × tolerances, parsed from the workspace's hand-rolled RON
//! subset) expands into a deterministic job list (full grid or seeded
//! Latin-hypercube sample), each job runs on one of the existing
//! substrates (conformance slices, quantum runs, sweep kernels, the round
//! engine), and the results land in a [`RunbookReport`]
//! with full provenance whose canonical JSON bytes are identical across
//! reruns and lane counts.
//!
//! Tolerances turn every report into a gate: `wdr ablate run`/`check`
//! exit nonzero *naming the violated metric* when a measured value
//! escapes its [`ToleranceSpec`].
//!
//! # Examples
//!
//! ```
//! use wdr_ablate::{run_ablation, to_canonical_json_bytes, plan};
//!
//! let plan = plan::parse(r#"Ablation(
//!     name: "doc",
//!     substrate: Sweep,
//!     mode: Grid,
//!     samples: None,
//!     factors: { "n": [6, 8], },
//!     fixed: { "family": "cycle", },
//!     tolerances: { "failed": Tol(min: None, max: Some(0.0), abs: None, rel: None), },
//! )"#).unwrap();
//! let report = run_ablation(&plan, 101).unwrap();
//! assert_eq!(report.jobs.len(), 2);
//! assert!(report.passed);
//! // Byte-deterministic: same plan + seed ⇒ same bytes.
//! assert_eq!(
//!     to_canonical_json_bytes(&report).unwrap(),
//!     to_canonical_json_bytes(&run_ablation(&plan, 101).unwrap()).unwrap(),
//! );
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod exec;
pub mod expand;
pub mod plan;
pub mod render;
pub mod report;

pub use expand::{expand, Job};
pub use plan::{plan_hash, AblationMode, AblationPlan, Substrate, ToleranceSpec};
pub use report::{to_canonical_json_bytes, RunbookMeta, RunbookReport, Verdict};

use std::process::ExitCode;

/// Execution options for [`run_ablation_with`].
#[derive(Clone, Debug, Default)]
pub struct RunOptions {
    /// Graph-identity groups fan across `l` lanes; `None` means one lane.
    /// The report bytes are identical at every lane count.
    pub lanes: Option<usize>,
    /// Override the captured provenance header (used by the golden
    /// fixture, which must not depend on the recording host).
    pub meta: Option<RunbookMeta>,
}

/// Expands, executes, and checks a plan with default options
/// (one lane, captured provenance).
///
/// # Errors
///
/// Fails on malformed plans (empty factors, missing LHS sample count);
/// per-job substrate failures do *not* error — they land in the job rows
/// with `failed = 1`.
pub fn run_ablation(plan: &AblationPlan, root_seed: u64) -> Result<RunbookReport, String> {
    run_ablation_with(plan, root_seed, &RunOptions::default())
}

/// [`run_ablation`] with explicit lane count / provenance options.
///
/// # Errors
///
/// Same contract as [`run_ablation`].
pub fn run_ablation_with(
    plan: &AblationPlan,
    root_seed: u64,
    options: &RunOptions,
) -> Result<RunbookReport, String> {
    let jobs = expand::expand(plan, root_seed)?;
    let outcomes = exec::run_jobs(plan.substrate, &jobs, options.lanes);
    let job_rows = report::job_reports(&jobs, &outcomes);
    let (verdicts, passed) = report::check_tolerances(plan, &job_rows);

    // The embedded snapshot: deterministic counters only (no timings).
    let registry = wdr_metrics::MetricsRegistry::new();
    let jobs_c = registry.counter("ablate.jobs");
    let errors_c = registry.counter("ablate.job_errors");
    let violations_c = registry.counter("ablate.violations");
    jobs_c.add(job_rows.len() as u64);
    errors_c.add(job_rows.iter().filter(|j| j.error.is_some()).count() as u64);
    violations_c.add(verdicts.iter().filter(|v| !v.ok).count() as u64);
    let metrics = registry.snapshot().to_pairs();

    let meta = options
        .meta
        .clone()
        .unwrap_or_else(|| RunbookMeta::capture(plan, root_seed));
    Ok(RunbookReport {
        meta,
        substrate: plan.substrate.name().to_string(),
        mode: plan.mode.name().to_string(),
        jobs: job_rows,
        verdicts,
        metrics,
        passed,
    })
}

const USAGE: &str = "\
wdr ablate — declarative ablation/sweep harness

USAGE:
    wdr ablate run    --plan FILE [--seed N] [--lanes N] [--out FILE]
    wdr ablate check  --plan FILE [--seed N] [--lanes N] [--against FILE]
    wdr ablate render --report FILE [--format md|csv]

run     expands and executes the plan, writes the canonical-JSON runbook
        to --out (default: stdout), prints the verdict table to stderr;
        exits 1 naming the violated metric on a tolerance failure.
check   re-runs the plan and gates on its tolerances (exit 1 names the
        first violated metric); with --against, additionally requires the
        produced bytes to equal the given report file (exit 1 on drift).
render  formats an existing report as markdown (default) or CSV tables.

Default seed: 101.";

fn next_value(it: &mut std::slice::Iter<'_, String>, flag: &str) -> Result<String, String> {
    it.next()
        .cloned()
        .ok_or_else(|| format!("{flag} needs a value"))
}

struct CliRun {
    plan_path: Option<String>,
    seed: u64,
    lanes: Option<usize>,
    out: Option<String>,
    against: Option<String>,
    report_path: Option<String>,
    format: String,
}

fn parse_cli(args: &[String]) -> Result<CliRun, String> {
    let mut cli = CliRun {
        plan_path: None,
        seed: 101,
        lanes: None,
        out: None,
        against: None,
        report_path: None,
        format: "md".to_string(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--plan" => cli.plan_path = Some(next_value(&mut it, "--plan")?),
            "--seed" => {
                cli.seed = next_value(&mut it, "--seed")?
                    .parse()
                    .map_err(|e| format!("bad --seed: {e}"))?;
            }
            "--lanes" => {
                cli.lanes = Some(
                    next_value(&mut it, "--lanes")?
                        .parse()
                        .map_err(|e| format!("bad --lanes: {e}"))?,
                );
            }
            "--out" => cli.out = Some(next_value(&mut it, "--out")?),
            "--against" => cli.against = Some(next_value(&mut it, "--against")?),
            "--report" => cli.report_path = Some(next_value(&mut it, "--report")?),
            "--format" => cli.format = next_value(&mut it, "--format")?,
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(cli)
}

fn load_plan(cli: &CliRun) -> Result<AblationPlan, String> {
    let path = cli.plan_path.as_ref().ok_or("missing --plan FILE")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    plan::parse(&text).map_err(|e| format!("parse {path}: {e}"))
}

fn first_violation(report: &RunbookReport) -> Option<&Verdict> {
    report.verdicts.iter().find(|v| !v.ok)
}

fn run_and_report(cli: &CliRun) -> Result<(RunbookReport, Vec<u8>), String> {
    let plan = load_plan(cli)?;
    let options = RunOptions {
        lanes: cli.lanes,
        meta: None,
    };
    let report = run_ablation_with(&plan, cli.seed, &options)?;
    let bytes = to_canonical_json_bytes(&report)?;
    Ok((report, bytes))
}

fn print_verdicts(report: &RunbookReport) {
    let bytes = to_canonical_json_bytes(report).expect("canonical serialization");
    let value =
        serde_json::from_str(&String::from_utf8(bytes).expect("utf8")).expect("canonical parses");
    if let Ok(table) = render::verdicts_table(&value) {
        eprint!("{}", table.to_markdown());
    }
}

fn cmd_run(cli: &CliRun) -> Result<ExitCode, String> {
    let (report, bytes) = run_and_report(cli)?;
    match &cli.out {
        Some(path) => {
            std::fs::write(path, &bytes).map_err(|e| format!("write {path}: {e}"))?;
            eprintln!(
                "[ablate] wrote {} ({} jobs, {} verdicts)",
                path,
                report.jobs.len(),
                report.verdicts.len()
            );
        }
        None => {
            use std::io::Write as _;
            std::io::stdout()
                .write_all(&bytes)
                .map_err(|e| format!("write stdout: {e}"))?;
            println!();
        }
    }
    print_verdicts(&report);
    if let Some(bad) = first_violation(&report) {
        eprintln!(
            "[ablate] FAIL tolerance violation: metric '{}' ({})",
            bad.metric, bad.detail
        );
        return Ok(ExitCode::FAILURE);
    }
    eprintln!("[ablate] PASS all tolerances held");
    Ok(ExitCode::SUCCESS)
}

fn cmd_check(cli: &CliRun) -> Result<ExitCode, String> {
    let (report, bytes) = run_and_report(cli)?;
    if let Some(path) = &cli.against {
        let expected = std::fs::read(path).map_err(|e| format!("read {path}: {e}"))?;
        if expected != bytes {
            eprintln!(
                "[ablate] FAIL report drift: produced bytes differ from {path} \
                 ({} vs {} bytes)",
                bytes.len(),
                expected.len()
            );
            return Ok(ExitCode::FAILURE);
        }
        eprintln!("[ablate] report bytes match {path}");
    }
    print_verdicts(&report);
    if let Some(bad) = first_violation(&report) {
        eprintln!(
            "[ablate] FAIL tolerance violation: metric '{}' ({})",
            bad.metric, bad.detail
        );
        return Ok(ExitCode::FAILURE);
    }
    eprintln!("[ablate] PASS all tolerances held");
    Ok(ExitCode::SUCCESS)
}

fn cmd_render(cli: &CliRun) -> Result<ExitCode, String> {
    let path = cli.report_path.as_ref().ok_or("missing --report FILE")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let value = serde_json::from_str(&text).map_err(|e| format!("parse {path}: {e:?}"))?;
    let jobs = render::jobs_table(&value)?;
    let verdicts = render::verdicts_table(&value)?;
    match cli.format.as_str() {
        "md" => {
            print!("{}", jobs.to_markdown());
            print!("{}", verdicts.to_markdown());
        }
        "csv" => {
            print!("{}", jobs.to_csv());
            print!("{}", verdicts.to_csv());
        }
        other => return Err(format!("unknown --format '{other}' (md|csv)")),
    }
    Ok(ExitCode::SUCCESS)
}

/// The `wdr ablate` / `wdr-ablate` CLI entry point. Exit codes: 0 on
/// success, 1 on tolerance violation or report drift, 2 on usage or I/O
/// errors.
pub fn cli_main(args: &[String]) -> ExitCode {
    let (cmd, rest) = match args.split_first() {
        Some((cmd, rest)) => (cmd.as_str(), rest),
        None => {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let cli = match parse_cli(rest) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match cmd {
        "run" => cmd_run(&cli),
        "check" => cmd_check(&cli),
        "render" => cmd_render(&cli),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        other => Err(format!("unknown subcommand '{other}'")),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;
    use std::collections::BTreeMap;

    fn tiny_plan() -> AblationPlan {
        let mut factors = BTreeMap::new();
        factors.insert(
            "n".to_string(),
            vec![Value::Number(6.0), Value::Number(9.0)],
        );
        let mut fixed = BTreeMap::new();
        fixed.insert("family".to_string(), Value::String("star".into()));
        let mut tolerances = BTreeMap::new();
        tolerances.insert(
            "radius".to_string(),
            ToleranceSpec {
                min: Some(0.5),
                max: None,
                abs: None,
                rel: None,
            },
        );
        AblationPlan {
            name: "lib-test".into(),
            substrate: Substrate::Sweep,
            mode: AblationMode::Grid,
            samples: None,
            factors,
            fixed,
            tolerances,
        }
    }

    #[test]
    fn run_ablation_produces_passing_runbook() {
        let report = run_ablation(&tiny_plan(), 5).unwrap();
        assert_eq!(report.jobs.len(), 2);
        assert!(report.passed);
        assert_eq!(report.substrate, "Sweep");
        // Snapshot pairs present and deterministic.
        assert!(report
            .metrics
            .iter()
            .any(|(k, v)| k == "ablate.jobs" && *v == 2.0));
        assert!(report.jobs.iter().all(|j| !j.fingerprint.is_empty()));
    }

    #[test]
    fn tightened_tolerance_fails_naming_metric() {
        let mut plan = tiny_plan();
        plan.tolerances.insert(
            "radius".to_string(),
            ToleranceSpec {
                min: None,
                max: Some(0.0),
                abs: None,
                rel: None,
            },
        );
        let report = run_ablation(&plan, 5).unwrap();
        assert!(!report.passed);
        let bad = report.verdicts.iter().find(|v| !v.ok).unwrap();
        assert_eq!(bad.metric, "radius");
        assert!(bad.detail.contains("'radius'"));
        assert!(report
            .metrics
            .iter()
            .any(|(k, v)| k == "ablate.violations" && *v > 0.0));
    }

    #[test]
    fn injected_meta_is_verbatim() {
        let plan = tiny_plan();
        let meta = RunbookMeta {
            schema_version: 1,
            plan_name: plan.name.clone(),
            plan_hash: plan_hash(&plan),
            commit: "golden".to_string(),
            host_threads: 1,
            seeds: vec![5],
        };
        let report = run_ablation_with(
            &plan,
            5,
            &RunOptions {
                lanes: Some(2),
                meta: Some(meta.clone()),
            },
        )
        .unwrap();
        assert_eq!(report.meta, meta);
    }
}
