//! `wdr-perf` — record and gate the checked-in perf trajectory.
//!
//! ```text
//! wdr-perf record  [--dir DIR] [--trajectory FILE] [--pin] [--dry-run]
//! wdr-perf compare [--dir DIR] [--trajectory FILE] [--threshold PCT] [--out FILE]
//! wdr-perf report  [--trajectory FILE] [--last N]
//! ```
//!
//! `record` scans `--dir` (default `target/experiments`) for `BENCH_*.json`
//! artifacts, builds one canonical-JSON trajectory row (provenance header,
//! FNV artifact fingerprints, each artifact's embedded registry pairs), and
//! appends it to `--trajectory` (default `perf/trajectory.jsonl`). `--pin`
//! marks the row as a comparison baseline; `--dry-run` prints the row
//! without writing.
//!
//! `compare` rebuilds the current row the same way, gates it against the
//! last pinned row with per-metric relative thresholds (default 15%, gated
//! metrics only — see `wdr_metrics::trajectory::gated`), prints the
//! markdown delta table (also to `--out`), and exits non-zero on any
//! regression. Baseline metrics the current run did not regenerate are
//! skipped with a warning rather than failed, so a pinned row that unions
//! many experiments still gates runs that produce only a subset.

use std::path::PathBuf;
use std::process::ExitCode;
use wdr_metrics::trajectory::{self, DEFAULT_THRESHOLD};

fn usage() -> String {
    "usage:\n  wdr-perf record  [--dir DIR] [--trajectory FILE] [--pin] [--dry-run]\n  \
     wdr-perf compare [--dir DIR] [--trajectory FILE] [--threshold PCT] [--out FILE]\n  \
     wdr-perf report  [--trajectory FILE] [--last N]"
        .to_string()
}

fn next_value(args: &mut std::slice::Iter<'_, String>, flag: &str) -> Result<String, String> {
    args.next()
        .cloned()
        .ok_or_else(|| format!("{flag} needs a value"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("error: {msg}\n{}", usage());
            ExitCode::from(2)
        }
    }
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let mut it = args.iter();
    let mut dir = PathBuf::from("target/experiments");
    let mut trajectory_path = PathBuf::from("perf/trajectory.jsonl");
    match it.next().map(String::as_str) {
        Some("record") => {
            let (mut pin, mut dry_run) = (false, false);
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--dir" => dir = PathBuf::from(next_value(&mut it, flag)?),
                    "--trajectory" => trajectory_path = PathBuf::from(next_value(&mut it, flag)?),
                    "--pin" => pin = true,
                    "--dry-run" => dry_run = true,
                    other => return Err(format!("unknown flag '{other}'")),
                }
            }
            let mut row = trajectory::collect_dir(&dir)?;
            row.pinned = pin;
            if dry_run {
                println!("{}", row.to_canonical_json());
                eprintln!(
                    "dry run: row with {} metric(s) from {} artifact(s) not written",
                    row.metrics.len(),
                    row.artifacts.len()
                );
            } else {
                trajectory::append_row(&trajectory_path, &row)?;
                println!(
                    "recorded {}row with {} metric(s) from {} artifact(s) to {}",
                    if pin { "pinned " } else { "" },
                    row.metrics.len(),
                    row.artifacts.len(),
                    trajectory_path.display()
                );
            }
            Ok(ExitCode::SUCCESS)
        }
        Some("compare") => {
            let mut threshold = DEFAULT_THRESHOLD;
            let mut out_path: Option<PathBuf> = None;
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--dir" => dir = PathBuf::from(next_value(&mut it, flag)?),
                    "--trajectory" => trajectory_path = PathBuf::from(next_value(&mut it, flag)?),
                    "--threshold" => {
                        let pct: f64 = next_value(&mut it, flag)?
                            .parse()
                            .map_err(|e| format!("--threshold: {e}"))?;
                        if !(0.0..100.0).contains(&pct) {
                            return Err("--threshold: expected a percentage in [0, 100)".into());
                        }
                        threshold = pct / 100.0;
                    }
                    "--out" => out_path = Some(PathBuf::from(next_value(&mut it, flag)?)),
                    other => return Err(format!("unknown flag '{other}'")),
                }
            }
            let rows = trajectory::load_rows(&trajectory_path)?;
            let baseline = trajectory::last_pinned(&rows).ok_or_else(|| {
                format!(
                    "no pinned row in {} — record one with `wdr-perf record --pin`",
                    trajectory_path.display()
                )
            })?;
            let current = trajectory::collect_dir(&dir)?;
            let report = trajectory::compare(baseline, &current, threshold);
            let markdown = report.to_markdown();
            print!("{markdown}");
            if let Some(path) = out_path {
                if let Some(parent) = path.parent() {
                    if !parent.as_os_str().is_empty() {
                        std::fs::create_dir_all(parent)
                            .map_err(|e| format!("create {}: {e}", parent.display()))?;
                    }
                }
                std::fs::write(&path, &markdown)
                    .map_err(|e| format!("write {}: {e}", path.display()))?;
            }
            Ok(if report.passed() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            })
        }
        Some("report") => {
            let mut last: Option<usize> = None;
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--trajectory" => trajectory_path = PathBuf::from(next_value(&mut it, flag)?),
                    "--last" => {
                        last = Some(
                            next_value(&mut it, flag)?
                                .parse()
                                .map_err(|e| format!("--last: {e}"))?,
                        );
                    }
                    other => return Err(format!("unknown flag '{other}'")),
                }
            }
            let rows = trajectory::load_rows(&trajectory_path)?;
            if rows.is_empty() {
                println!("trajectory {} is empty", trajectory_path.display());
                return Ok(ExitCode::SUCCESS);
            }
            let skip = last.map_or(0, |n| rows.len().saturating_sub(n));
            println!("| recorded (UTC) | commit | pinned | artifacts | metrics | host threads |");
            println!("|---|---|---|---:|---:|---:|");
            for row in &rows[skip..] {
                let commit = &row.meta.commit;
                let commit_short = if commit.len() > 12 {
                    &commit[..12]
                } else {
                    commit
                };
                println!(
                    "| {} | {} | {} | {} | {} | {} |",
                    row.meta.recorded_at_utc,
                    commit_short,
                    if row.pinned { "yes" } else { "" },
                    row.artifacts.len(),
                    row.metrics.len(),
                    row.meta.host_threads
                );
            }
            Ok(ExitCode::SUCCESS)
        }
        _ => Err(usage()),
    }
}
