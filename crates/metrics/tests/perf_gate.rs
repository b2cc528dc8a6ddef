//! End-to-end self-check of the `wdr-perf` gate (ISSUE 6 acceptance):
//! `compare` must exit **zero** on an identical re-run and **non-zero**
//! once a gated metric regresses by ≥ 15% — exercised through the real
//! binary (`CARGO_BIN_EXE_wdr-perf`), not just the library.

use std::path::Path;
use std::process::Command;
use wdr_metrics::trajectory;

fn write_conformance_artifact(dir: &Path, c_max: f64) {
    std::fs::create_dir_all(dir).unwrap();
    let json = format!(
        concat!(
            r#"{{"experiment":"conformance_envelope","samples":8,"passed":true,"#,
            r#""meta":{{"schema_version":1,"commit":"selfcheck","#,
            r#""recorded_at_utc":"2026-08-07T00:00:00Z","host_threads":4,"seeds":[0,1,2,3]}},"#,
            r#""regimes":[{{"regime":"QuantumWeighted|sqrt-nD|small-w","kind":"QuantumWeighted","#,
            r#""samples":8,"c_min":0.4,"c_mean":1.1,"c_max":{c_max},"ceiling":1000000000.0,"#,
            r#""passed":true}}],"#,
            r#""metrics":[["conformance.QuantumWeighted|sqrt-nD|small-w.c_max",{c_max}]]}}"#
        ),
        c_max = c_max
    );
    std::fs::write(dir.join("BENCH_conformance.json"), json).unwrap();
}

fn wdr_perf(args: &[&str], cwd: &Path) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_wdr-perf"))
        .args(args)
        .current_dir(cwd)
        .output()
        .expect("spawn wdr-perf")
}

#[test]
fn compare_gates_a_synthetic_regression_and_passes_identical_reruns() {
    let root = std::env::temp_dir().join(format!("wdr-perf-gate-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let bench_dir = root.join("experiments");
    let trajectory_path = root.join("trajectory.jsonl");
    let traj = trajectory_path.to_str().unwrap().to_string();
    let dir = bench_dir.to_str().unwrap().to_string();

    // Record a pinned baseline with c_max = 3.0.
    write_conformance_artifact(&bench_dir, 3.0);
    let out = wdr_perf(
        &["record", "--dir", &dir, "--trajectory", &traj, "--pin"],
        &root,
    );
    assert!(out.status.success(), "record failed: {out:?}");
    let rows = trajectory::load_rows(&trajectory_path).unwrap();
    assert_eq!(rows.len(), 1);
    assert!(rows[0].pinned);
    assert_eq!(
        rows[0].metrics["conformance.QuantumWeighted|sqrt-nD|small-w.c_max"],
        3.0
    );

    // Identical artifacts → the gate passes (exit 0).
    let out = wdr_perf(&["compare", "--dir", &dir, "--trajectory", &traj], &root);
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        out.status.success(),
        "identical re-run must pass the gate:\n{stdout}"
    );
    assert!(stdout.contains("GATE PASS"), "{stdout}");

    // `record --dry-run` prints a parseable row without appending.
    let out = wdr_perf(
        &["record", "--dir", &dir, "--trajectory", &traj, "--dry-run"],
        &root,
    );
    assert!(out.status.success());
    let printed = String::from_utf8_lossy(&out.stdout);
    trajectory::TrajectoryRow::from_json(printed.trim()).expect("dry-run row parses");
    assert_eq!(trajectory::load_rows(&trajectory_path).unwrap().len(), 1);

    // Inject a 20% regression on the gated envelope constant → exit nonzero.
    write_conformance_artifact(&bench_dir, 3.6);
    let out = wdr_perf(&["compare", "--dir", &dir, "--trajectory", &traj], &root);
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        !out.status.success(),
        "20% c_max regression must fail the 15% gate:\n{stdout}"
    );
    assert!(stdout.contains("REGRESSED"), "{stdout}");
    assert!(stdout.contains("GATE FAIL"), "{stdout}");

    // A regression below the threshold (10% < 15%) still passes.
    write_conformance_artifact(&bench_dir, 3.3);
    let out = wdr_perf(&["compare", "--dir", &dir, "--trajectory", &traj], &root);
    assert!(
        out.status.success(),
        "10% drift must stay within the 15% gate"
    );

    // Widening the threshold un-gates the 20% regression.
    write_conformance_artifact(&bench_dir, 3.6);
    let out = wdr_perf(
        &[
            "compare",
            "--dir",
            &dir,
            "--trajectory",
            &traj,
            "--threshold",
            "25",
        ],
        &root,
    );
    assert!(
        out.status.success(),
        "25% threshold must tolerate a 20% drift"
    );

    let _ = std::fs::remove_dir_all(&root);
}

fn write_batch_artifact(dir: &Path, batch_speedup: f64) {
    std::fs::create_dir_all(dir).unwrap();
    let json = format!(
        concat!(
            r#"{{"experiment":"batch_throughput","#,
            r#""meta":{{"schema_version":1,"commit":"selfcheck","#,
            r#""recorded_at_utc":"2026-08-07T00:00:00Z","host_threads":4,"seeds":[9]}},"#,
            r#""rows":[{{"lanes":4,"wall_secs":2.0,"scenarios_per_sec":250.0}}],"#,
            r#""metrics":[["e12.batch_speedup",{batch_speedup}]]}}"#
        ),
        batch_speedup = batch_speedup
    );
    std::fs::write(dir.join("BENCH_batch.json"), json).unwrap();
}

fn temp_root(tag: &str) -> std::path::PathBuf {
    let root = std::env::temp_dir().join(format!("wdr-perf-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    root
}

/// A pinned row unions every experiment ever recorded; a later run that
/// regenerates only a subset must *warn* about the missing metrics, not
/// fail the gate.
#[test]
fn baseline_metric_missing_from_rerun_warns_but_passes() {
    let root = temp_root("missing");
    let bench_dir = root.join("experiments");
    let traj = root.join("trajectory.jsonl");
    let traj = traj.to_str().unwrap().to_string();
    let dir = bench_dir.to_str().unwrap().to_string();

    // Baseline carries both the conformance envelope and the batch speedup.
    write_conformance_artifact(&bench_dir, 3.0);
    write_batch_artifact(&bench_dir, 1.25);
    let out = wdr_perf(
        &["record", "--dir", &dir, "--trajectory", &traj, "--pin"],
        &root,
    );
    assert!(out.status.success(), "record failed: {out:?}");

    // The re-run only regenerated the conformance artifact.
    std::fs::remove_file(bench_dir.join("BENCH_batch.json")).unwrap();
    let out = wdr_perf(&["compare", "--dir", &dir, "--trajectory", &traj], &root);
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        out.status.success(),
        "missing baseline metric must not fail the gate:\n{stdout}"
    );
    assert!(stdout.contains("WARNING"), "{stdout}");
    assert!(stdout.contains("skipped"), "{stdout}");
    assert!(stdout.contains("e12.batch_speedup"), "{stdout}");
    assert!(stdout.contains("GATE PASS"), "{stdout}");

    let _ = std::fs::remove_dir_all(&root);
}

/// An artifact of a kind the trajectory has never seen contributes its
/// embedded `metrics` pairs (and its fingerprint) like any other — the
/// extractor reads no artifact schema, so it is forward-compatible.
#[test]
fn unknown_bench_artifact_contributes_embedded_metrics_only() {
    let root = temp_root("unknown");
    let bench_dir = root.join("experiments");
    std::fs::create_dir_all(&bench_dir).unwrap();
    let traj_path = root.join("trajectory.jsonl");
    let traj = traj_path.to_str().unwrap().to_string();
    let dir = bench_dir.to_str().unwrap().to_string();

    std::fs::write(
        bench_dir.join("BENCH_bogus.json"),
        concat!(
            r#"{"experiment":"from_the_future","rows":[{"alpha":1.0,"beta":2.0}],"#,
            r#""meta":{"schema_version":1,"commit":"selfcheck","#,
            r#""recorded_at_utc":"2026-08-07T00:00:00Z","host_threads":1,"seeds":[3]},"#,
            r#""metrics":[["bogus.widget.count",5.0],["bogus.secs_per_run",0.25]]}"#
        ),
    )
    .unwrap();
    let out = wdr_perf(
        &["record", "--dir", &dir, "--trajectory", &traj, "--pin"],
        &root,
    );
    assert!(out.status.success(), "record failed: {out:?}");
    let rows = trajectory::load_rows(&traj_path).unwrap();
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0].metrics["bogus.widget.count"], 5.0);
    assert_eq!(rows[0].metrics["bogus.secs_per_run"], 0.25);
    assert!(
        !rows[0].metrics.contains_key("alpha"),
        "unknown row fields are not guessed into metrics"
    );
    assert!(rows[0].artifacts.contains_key("BENCH_bogus.json"));

    // And the gate still runs end-to-end over it.
    let out = wdr_perf(&["compare", "--dir", &dir, "--trajectory", &traj], &root);
    assert!(
        out.status.success(),
        "compare over unknown artifact: {out:?}"
    );

    let _ = std::fs::remove_dir_all(&root);
}

/// `compare` against an empty (or absent) trajectory is a usage error:
/// exit 2 with a message telling the user to pin a baseline first.
#[test]
fn compare_with_empty_trajectory_is_a_usage_error() {
    let root = temp_root("empty");
    let bench_dir = root.join("experiments");
    write_conformance_artifact(&bench_dir, 3.0);
    let traj_path = root.join("trajectory.jsonl");
    std::fs::write(&traj_path, "").unwrap();
    let traj = traj_path.to_str().unwrap().to_string();
    let dir = bench_dir.to_str().unwrap().to_string();

    let out = wdr_perf(&["compare", "--dir", &dir, "--trajectory", &traj], &root);
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(
        out.status.code(),
        Some(2),
        "empty trajectory must be a usage error (exit 2):\n{stderr}"
    );
    assert!(stderr.contains("no pinned row"), "{stderr}");
    assert!(stderr.contains("--pin"), "{stderr}");

    let _ = std::fs::remove_dir_all(&root);
}

/// The gate is direction-aware: a *drop* in a higher-is-better metric
/// (the batch engine's corpus speedup) regresses, while a *rise* of the same magnitude is an
/// improvement and passes.
#[test]
fn gate_is_direction_aware_for_higher_is_better_metrics() {
    let root = temp_root("direction");
    let bench_dir = root.join("experiments");
    let traj = root.join("trajectory.jsonl");
    let traj = traj.to_str().unwrap().to_string();
    let dir = bench_dir.to_str().unwrap().to_string();

    write_batch_artifact(&bench_dir, 1.25);
    let out = wdr_perf(
        &["record", "--dir", &dir, "--trajectory", &traj, "--pin"],
        &root,
    );
    assert!(out.status.success(), "record failed: {out:?}");

    // batch_speedup 1.25 → 1.0 is a 20% drop in a higher-is-better gated
    // metric: regression.
    write_batch_artifact(&bench_dir, 1.0);
    let out = wdr_perf(&["compare", "--dir", &dir, "--trajectory", &traj], &root);
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        !out.status.success(),
        "20% batch-speedup drop must fail the gate:\n{stdout}"
    );
    assert!(stdout.contains("REGRESSED"), "{stdout}");
    assert!(stdout.contains("e12.batch_speedup"), "{stdout}");

    // The symmetric *improvement* must pass — higher is better.
    write_batch_artifact(&bench_dir, 1.5);
    let out = wdr_perf(&["compare", "--dir", &dir, "--trajectory", &traj], &root);
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        out.status.success(),
        "a batch-speedup improvement must never fail the gate:\n{stdout}"
    );
    assert!(stdout.contains("GATE PASS"), "{stdout}");

    let _ = std::fs::remove_dir_all(&root);
}
