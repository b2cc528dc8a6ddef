//! `wdr-benchmark`: the end-to-end benchmark of a Theorem 1.1 run.
//!
//! ```text
//! wdr-benchmark --workload <name> [--seed S] [--seconds T] [--trace 0|1]
//! wdr-benchmark --write-golden
//! ```
//!
//! One workload per process. The untraced pass (`--trace 0`, the default)
//! runs the workload's closed loop for `--seconds` and prints the
//! end-to-end metrics; the traced pass (`--trace 1`) rebuilds the runs from
//! their public calls with a span around each and prints the per-layer
//! metrics. Every metric is printed as `workload metric value unit`, and the
//! last line of standard output is one JSON object with the verdict and the
//! metrics. See README.md for the workloads and metrics.

mod golden;
mod stats;
mod traced;
mod workloads;

use congest_wdr::algorithm::{quantum_weighted, WdrReport};
use golden::{first_difference, hard_side_holds, record, Golden, Record, GOLDEN_SEED};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use stats::{attach_specs, median, ratio, tail_percentile, MetricSpec, END_TO_END, PER_LAYER};
use std::panic::AssertUnwindSafe;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use traced::{quantum_weighted_traced, Counts, Spans, RUN_SPAN};
use wdr_conformance::runner::{fingerprint, run_suite, SuiteOptions, SuiteReport};
use wdr_conformance::scenario::ScenarioSpec;
use wdr_metrics::trajectory::fnv1a_hex;
use workloads::{corpus_quantum_input, t11_input, RunInput, Workload};

const USAGE: &str = "usage: wdr-benchmark --workload <t11-cluster-dense|t11-grid-sparse|\
t11-er-radius|corpus-500> [--seed S] [--seconds T] [--trace 0|1]
       wdr-benchmark --write-golden";

/// Every Theorem 1.1 run uses node 0 as its leader.
const LEADER: usize = 0;
/// Set-up is repeated this many times per process; `setup_s` is the median.
/// Set-up takes milliseconds, so one busy moment on the host would
/// otherwise move it.
const SETUP_REPS: usize = 21;
/// Runs of each Theorem 1.1 workload the traced pass decomposes.
const TRACE_RUNS: usize = 3;
/// Batch lanes of a corpus pass: one pool worker plus the calling thread.
const CORPUS_LANES: usize = 1;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

enum Command {
    Measure(Args),
    WriteGolden,
}

fn parse_args(args: &[String]) -> Result<Command, String> {
    if args == ["--write-golden"] {
        return Ok(Command::WriteGolden);
    }
    let mut workload = None;
    let mut seed = GOLDEN_SEED;
    let mut seconds: f64 = 10.0;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::parse(name).ok_or(format!("unknown workload `{name}`"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|_| "--seed takes a u64")?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(seconds > 0.0 && seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Command::Measure(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    }))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = match parse_args(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("wdr-benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match command {
        Command::WriteGolden => write_golden(),
        Command::Measure(args) => measure(&args),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("wdr-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

fn manifest_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn golden_path() -> PathBuf {
    manifest_dir().join("golden/seed1.json")
}

fn corpus_dir() -> PathBuf {
    manifest_dir().join("../tests/corpus")
}

/// Where trace files go: `$CARGO_TARGET_DIR` when set, else
/// `target/benchmark`.
fn trace_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| manifest_dir().join("../target/benchmark"))
}

/// The commit under test. Outside a git checkout (and without
/// `WDR_COMMIT`) this is `unknown`; git is not asked, so it cannot pick up
/// a repository enclosing the checkout.
fn commit() -> String {
    let repo_root = manifest_dir().join("..");
    if std::env::var_os("WDR_COMMIT").is_some() || repo_root.join(".git").exists() {
        wdr_metrics::provenance::git_commit()
    } else {
        "unknown".to_string()
    }
}

/// What one pass produced.
struct Outcome {
    attempted: usize,
    failed: usize,
    metrics: Vec<(&'static MetricSpec, f64)>,
    lanes: Option<usize>,
}

fn measure(args: &Args) -> Result<(), String> {
    let golden = if args.seed == GOLDEN_SEED || args.workload == Workload::Corpus500 {
        Some(Golden::load(&golden_path())?)
    } else {
        None
    };
    let outcome = match (args.workload, args.trace) {
        (Workload::Corpus500, false) => measure_corpus(args.seconds, golden.as_ref())?,
        (Workload::Corpus500, true) => trace_corpus(golden.as_ref())?,
        (w, false) => measure_t11(w, args.seed, args.seconds, golden.as_ref())?,
        (w, true) => trace_t11(w, args.seed, golden.as_ref())?,
    };
    let name = args.workload.name();
    println!(
        "# workload={name} seed={} trace={} host_threads={} lanes={} commit={}",
        args.seed,
        u8::from(args.trace),
        wdr_metrics::provenance::host_threads(),
        outcome
            .lanes
            .map_or_else(|| "sequential".to_string(), |l| l.to_string()),
        commit()
    );
    println!(
        "# attempted={} failed={}",
        outcome.attempted, outcome.failed
    );
    for (spec, value) in &outcome.metrics {
        println!("{name} {} {value} {}", spec.name, spec.unit);
    }
    println!("{}", result_json(&outcome));
    Ok(())
}

fn result_json(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|(spec, value)| {
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                spec.name, spec.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

/// Builds a Theorem 1.1 workload's run list [`SETUP_REPS`] times. Returns
/// the last build, the seconds each of its inputs took, and the median
/// total.
fn setup_t11(workload: Workload, seed: u64) -> (Vec<RunInput>, Vec<f64>, f64) {
    let mut totals = Vec::with_capacity(SETUP_REPS);
    let mut last = (Vec::new(), Vec::new());
    for _ in 0..SETUP_REPS {
        let mut inputs = Vec::new();
        let mut secs = Vec::new();
        for run in 0..workload.run_list_len() {
            let t = Instant::now();
            inputs.push(t11_input(workload, seed, run));
            secs.push(t.elapsed().as_secs_f64());
        }
        totals.push(secs.iter().sum());
        last = (inputs, secs);
    }
    (last.0, last.1, median(&totals))
}

/// Loads the corpus [`SETUP_REPS`] times; returns it and the median load
/// time.
fn setup_corpus() -> Result<(Vec<ScenarioSpec>, f64), String> {
    let mut totals = Vec::with_capacity(SETUP_REPS);
    let mut specs = Vec::new();
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        specs = wdr_conformance::corpus::load_corpus(&corpus_dir())?;
        totals.push(t.elapsed().as_secs_f64());
    }
    if specs.is_empty() {
        return Err(format!("no scenarios in {}", corpus_dir().display()));
    }
    Ok((specs, median(&totals)))
}

/// One `quantum_weighted` call on `input`; a panic or `Err` is a failure.
fn run_plain(input: &RunInput) -> Result<WdrReport, String> {
    let mut rng = ChaCha8Rng::seed_from_u64(input.algo_seed);
    std::panic::catch_unwind(AssertUnwindSafe(|| {
        quantum_weighted(
            &input.graph,
            LEADER,
            input.objective,
            &input.params,
            &input.config,
            &mut rng,
        )
    }))
    .map_err(|_| "panicked".to_string())?
    .map_err(|e| format!("returned Err: {e}"))
}

/// Checks each run's report: the hard side of the sandwich, the golden
/// record (seed 1), and agreement with the first report of the same input.
struct Checker<'a> {
    golden: Option<&'a [Record]>,
    first: Vec<Option<Record>>,
}

impl<'a> Checker<'a> {
    fn new(golden: Option<&'a [Record]>, inputs: usize) -> Checker<'a> {
        Checker {
            golden,
            first: vec![None; inputs],
        }
    }

    fn check(
        &mut self,
        idx: usize,
        input: &RunInput,
        result: &Result<WdrReport, String>,
    ) -> Result<(), String> {
        let report = result.as_ref().map_err(Clone::clone)?;
        if !hard_side_holds(report, input.objective, input.params.eps) {
            return Err(format!(
                "estimate {} breaks the hard side of the sandwich (exact {})",
                report.estimate, report.exact
            ));
        }
        let rec = record(report);
        if let Some(golden) = self.golden {
            let want = golden
                .get(idx)
                .ok_or_else(|| format!("golden file has no run {idx}"))?;
            if let Some(field) = first_difference(want, &rec) {
                return Err(format!("differs from the golden record in `{field}`"));
            }
        }
        match &self.first[idx] {
            Some(first) => match first_difference(first, &rec) {
                Some(field) => Err(format!("repeat run differs in `{field}`")),
                None => Ok(()),
            },
            None => {
                self.first[idx] = Some(rec);
                Ok(())
            }
        }
    }
}

fn golden_runs(golden: Option<&Golden>, workload: Workload) -> Result<Option<&[Record]>, String> {
    golden
        .map(|g| {
            g.runs
                .get(workload.name())
                .map(Vec::as_slice)
                .ok_or_else(|| format!("golden file has no runs for {}", workload.name()))
        })
        .transpose()
}

/// Whether a closed loop that has finished `units` runs (or corpus passes)
/// in `elapsed` seconds starts another: it stops at the unit boundary
/// nearest to `seconds`, after at least one unit.
fn another_unit(units: usize, elapsed: f64, seconds: f64) -> bool {
    units == 0 || elapsed + elapsed / units as f64 / 2.0 < seconds
}

/// The closed loop: runs the list's inputs back to back, cycling, for
/// about `seconds`.
fn measure_t11(
    workload: Workload,
    seed: u64,
    seconds: f64,
    golden: Option<&Golden>,
) -> Result<Outcome, String> {
    let (inputs, _, setup_s) = setup_t11(workload, seed);
    let mut checker = Checker::new(golden_runs(golden, workload)?, inputs.len());
    let mut samples_ms = Vec::new();
    let mut failed = 0;
    let start = Instant::now();
    while another_unit(samples_ms.len(), start.elapsed().as_secs_f64(), seconds) {
        let idx = samples_ms.len() % inputs.len();
        let t = Instant::now();
        let result = run_plain(&inputs[idx]);
        samples_ms.push(t.elapsed().as_secs_f64() * 1e3);
        if let Err(why) = checker.check(idx, &inputs[idx], &result) {
            failed += 1;
            eprintln!("FAIL {} run {idx}: {why}", workload.name());
        }
    }
    let wall = start.elapsed().as_secs_f64();
    Ok(Outcome {
        attempted: samples_ms.len(),
        failed,
        metrics: end_to_end(&samples_ms, wall, setup_s)?,
        lanes: None,
    })
}

/// Failed runs of one corpus pass: scenarios with a failed oracle, or the
/// whole pass when a corpus-wide oracle failed or its fingerprint differs
/// from the golden one or from the first pass.
fn corpus_pass_failures(
    report: &SuiteReport,
    golden: Option<&Golden>,
    first: &mut Option<String>,
) -> usize {
    let fp = fnv1a_hex(fingerprint(report).as_bytes());
    let expected = golden.map(|g| g.corpus_fingerprint.clone());
    let mismatch =
        expected.as_ref().is_some_and(|e| *e != fp) || first.as_ref().is_some_and(|f| *f != fp);
    first.get_or_insert(fp.clone());
    let corpus_wide = report.failures.iter().any(|f| f.seed.is_none());
    if mismatch || corpus_wide {
        eprintln!(
            "FAIL corpus pass: fingerprint {fp} (expected {expected:?}), \
             corpus-wide failure: {corpus_wide}"
        );
        return report.outcomes.len();
    }
    let failed = report
        .outcomes
        .iter()
        .filter(|o| !o.failures().is_empty())
        .count();
    if failed > 0 {
        eprintln!("FAIL corpus pass: {failed} scenario(s) failed an oracle");
    }
    failed
}

fn corpus_pass(specs: &[ScenarioSpec]) -> Result<SuiteReport, String> {
    let options = SuiteOptions {
        lanes: Some(CORPUS_LANES),
        ..SuiteOptions::default()
    };
    std::panic::catch_unwind(AssertUnwindSafe(|| run_suite(specs, &options)))
        .map_err(|_| "corpus pass panicked".to_string())
}

fn measure_corpus(seconds: f64, golden: Option<&Golden>) -> Result<Outcome, String> {
    let (specs, setup_s) = setup_corpus()?;
    let mut samples_ms = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    let mut first = None;
    let start = Instant::now();
    while another_unit(
        attempted / specs.len(),
        start.elapsed().as_secs_f64(),
        seconds,
    ) {
        let report = corpus_pass(&specs)?;
        samples_ms.extend(report.timings.iter().map(|t| t.total_secs() * 1e3));
        attempted += specs.len();
        failed += corpus_pass_failures(&report, golden, &mut first);
    }
    let wall = start.elapsed().as_secs_f64();
    Ok(Outcome {
        attempted,
        failed,
        metrics: end_to_end(&samples_ms, wall, setup_s)?,
        lanes: Some(CORPUS_LANES),
    })
}

fn end_to_end(
    samples_ms: &[f64],
    wall: f64,
    setup_s: f64,
) -> Result<Vec<(&'static MetricSpec, f64)>, String> {
    let mut sorted = samples_ms.to_vec();
    sorted.sort_by(f64::total_cmp);
    // Printed for information only: a tail needs ten samples beyond it,
    // which only the corpus workload collects.
    if let Some(p99) = tail_percentile(&sorted, 99.0) {
        println!("# run_ms_p99={p99} over {} runs", sorted.len());
    }
    let rss = wdr_metrics::heap::peak_rss_bytes()
        .ok_or("peak RSS is unavailable (needs /proc/self/status)")?;
    attach_specs(
        END_TO_END,
        &[
            ("run_ms_p50", median(samples_ms)),
            ("runs_per_s", samples_ms.len() as f64 / wall),
            ("setup_s", setup_s),
            ("peak_rss_mb", rss as f64 / 1e6),
        ],
    )
}

/// What a traced pass measured.
#[derive(Default)]
struct TracePass {
    spans: Spans,
    counts: Counts,
    untraced_s: f64,
    attempted: usize,
    failed: usize,
}

/// Runs each input untraced, then traced on the same RNG stream, and
/// insists the two reports agree field by field.
fn trace_runs<'a>(
    inputs: impl IntoIterator<Item = &'a RunInput>,
    checker: &mut Checker,
) -> Result<TracePass, String> {
    let mut pass = TracePass::default();
    for (idx, input) in inputs.into_iter().enumerate() {
        let t = Instant::now();
        let plain = run_plain(input);
        pass.untraced_s += t.elapsed().as_secs_f64();
        let traced = quantum_weighted_traced(
            &input.graph,
            LEADER,
            input.objective,
            &input.params,
            &input.config,
            &mut ChaCha8Rng::seed_from_u64(input.algo_seed),
            idx,
            &mut pass.spans,
            &mut pass.counts,
        );
        pass.attempted += 1;
        match (&plain, &traced) {
            (Ok(plain), Ok(traced)) => {
                if let Some(field) = first_difference(&record(plain), &record(traced)) {
                    return Err(format!(
                        "run {idx}: the traced composition drifted from quantum_weighted in `{field}`"
                    ));
                }
            }
            (Err(_), Err(_)) => {}
            _ => {
                return Err(format!(
                    "run {idx}: quantum_weighted and the traced composition disagree on success"
                ))
            }
        }
        if let Err(why) = checker.check(idx, input, &plain) {
            pass.failed += 1;
            eprintln!("FAIL traced run {idx}: {why}");
        }
    }
    Ok(pass)
}

/// The setup-vs-execute split of whatever drove the runs.
struct Harness {
    setup_s: f64,
    execute_s: f64,
    shared_setup_frac: f64,
    runs: usize,
}

fn trace_t11(workload: Workload, seed: u64, golden: Option<&Golden>) -> Result<Outcome, String> {
    let (mut inputs, build_secs, _) = setup_t11(workload, seed);
    inputs.truncate(TRACE_RUNS);
    let mut checker = Checker::new(golden_runs(golden, workload)?, inputs.len());
    let pass = trace_runs(&inputs, &mut checker)?;
    let harness = Harness {
        setup_s: build_secs[..inputs.len()].iter().sum(),
        execute_s: pass.untraced_s,
        shared_setup_frac: 0.0,
        runs: inputs.len(),
    };
    finish_trace(workload, pass, &harness, None)
}

/// One corpus pass for the harness split, then every fault-free quantum
/// scenario decomposed for the layers below it.
fn trace_corpus(golden: Option<&Golden>) -> Result<Outcome, String> {
    let (specs, _) = setup_corpus()?;
    let report = corpus_pass(&specs)?;
    let suite_failed = corpus_pass_failures(&report, golden, &mut None);
    let shared = report.timings.iter().filter(|t| t.shared_setup).count();
    let harness = Harness {
        setup_s: report.setup_secs(),
        execute_s: report.execute_secs(),
        shared_setup_frac: ratio(shared as f64, specs.len() as f64),
        runs: specs.len(),
    };
    let inputs: Vec<RunInput> = specs.iter().filter_map(corpus_quantum_input).collect();
    let mut checker = Checker::new(None, inputs.len());
    let mut pass = trace_runs(&inputs, &mut checker)?;
    pass.attempted += specs.len();
    pass.failed += suite_failed;
    finish_trace(Workload::Corpus500, pass, &harness, Some(CORPUS_LANES))
}

fn finish_trace(
    workload: Workload,
    pass: TracePass,
    harness: &Harness,
    lanes: Option<usize>,
) -> Result<Outcome, String> {
    let path = trace_dir().join(format!("trace-{}.jsonl", workload.name()));
    pass.spans
        .write_jsonl(&path)
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("# trace written to {}", path.display());
    Ok(Outcome {
        attempted: pass.attempted,
        failed: pass.failed,
        metrics: per_layer(&pass, harness)?,
        lanes,
    })
}

fn per_layer(
    pass: &TracePass,
    harness: &Harness,
) -> Result<Vec<(&'static MetricSpec, f64)>, String> {
    let s = |name: &str| pass.spans.total_secs(name);
    let c = &pass.counts;
    let (t0_s, t1_s, t2_s, bfs_s) = (
        s("algos.t0"),
        s("algos.t1"),
        s("algos.t2"),
        s("sim.bfs_tree"),
    );
    let evaluate_sets_s = s("graph.evaluate_sets");
    let total_s = s(RUN_SPAN);
    attach_specs(
        PER_LAYER,
        &[
            ("graph.evaluate_sets_s", evaluate_sets_s),
            ("graph.extremes_s", s("graph.extremes")),
            ("graph.members", c.members as f64),
            (
                "graph.distinct_members_frac",
                ratio(c.distinct_members as f64, c.members as f64),
            ),
            (
                "graph.us_per_member",
                ratio(evaluate_sets_s * 1e6, c.members as f64),
            ),
            ("algos.t0_s", t0_s),
            ("algos.t1_s", t1_s),
            ("algos.t2_s", t2_s),
            ("algos.t0_rounds", c.t0_rounds as f64),
            ("algos.t1_rounds", c.t1_rounds as f64),
            ("algos.t2_rounds", c.t2_rounds as f64),
            ("algos.t0_retries", c.t0_retries as f64),
            ("sim.bfs_tree_s", bfs_s),
            (
                "sim.rounds_per_s",
                ratio(c.sim_rounds as f64, t0_s + t1_s + t2_s + bfs_s),
            ),
            (
                "sim.msgs_per_round",
                ratio(c.t0_messages as f64, c.t0_rounds as f64),
            ),
            ("sim.messages", c.messages as f64),
            ("sim.bits", c.bits as f64),
            ("quantum.inner_search_s", s("quantum.inner_search")),
            ("quantum.outer_search_s", s("quantum.outer_search")),
            ("quantum.grover_iterations", c.grover_iterations as f64),
            ("quantum.oracle_queries", c.oracle_queries as f64),
            ("core.sample_sets_s", s("core.sample_sets")),
            ("core.charged_rounds", c.charged_rounds as f64),
            ("core.budgeted_rounds", c.budgeted_rounds as f64),
            ("core.approx_ratio_max", c.approx_ratio_max),
            ("harness.setup_s", harness.setup_s),
            ("harness.execute_s", harness.execute_s),
            ("harness.shared_setup_frac", harness.shared_setup_frac),
            ("harness.runs", harness.runs as f64),
            ("trace.total_s", total_s),
            ("trace.coverage", ratio(pass.spans.child_secs(), total_s)),
            ("trace.overhead_frac", ratio(total_s, pass.untraced_s) - 1.0),
        ],
    )
}

/// Regenerates `golden/seed1.json`: every run of each Theorem 1.1 run list
/// at seed 1, and the fingerprint of one corpus pass.
fn write_golden() -> Result<(), String> {
    let mut golden = Golden::default();
    for workload in Workload::ALL
        .into_iter()
        .filter(|&w| w != Workload::Corpus500)
    {
        let mut checker = Checker::new(None, workload.run_list_len());
        let mut records = Vec::new();
        for run in 0..workload.run_list_len() {
            let input = t11_input(workload, GOLDEN_SEED, run);
            let result = run_plain(&input);
            checker
                .check(run, &input, &result)
                .map_err(|e| format!("{} run {run}: {e}", workload.name()))?;
            let report = result?;
            eprintln!(
                "{} run {run}: estimate {} exact {}",
                workload.name(),
                report.estimate,
                report.exact
            );
            records.push(record(&report));
        }
        golden.runs.insert(workload.name().to_string(), records);
    }
    let (specs, _) = setup_corpus()?;
    let report = corpus_pass(&specs)?;
    if !report.passed() {
        return Err("the corpus fails its oracles; not recording it".into());
    }
    golden.corpus_fingerprint = fnv1a_hex(fingerprint(&report).as_bytes());
    let path = golden_path();
    std::fs::write(&path, golden.render()).map_err(|e| format!("write {}: {e}", path.display()))?;
    eprintln!("wrote {}", path.display());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_a_full_command_line() {
        let cmd = parse_args(&strings(&[
            "--workload",
            "t11-er-radius",
            "--seed",
            "7",
            "--seconds",
            "15",
            "--trace",
            "1",
        ]))
        .unwrap();
        let Command::Measure(args) = cmd else {
            panic!("expected a measurement")
        };
        assert_eq!(args.workload, Workload::ErRadius);
        assert_eq!((args.seed, args.seconds, args.trace), (7, 15.0, true));
        let Command::Measure(args) = parse_args(&strings(&["--workload", "corpus-500"])).unwrap()
        else {
            panic!("expected a measurement")
        };
        assert_eq!((args.seed, args.trace), (GOLDEN_SEED, false));
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            &["--seed", "1"][..],
            &["--workload", "nope"],
            &["--workload", "corpus-500", "--trace", "yes"],
            &["--workload", "corpus-500", "--seconds", "0"],
            &["--workload", "corpus-500", "--seconds"],
            &["--workload", "corpus-500", "--extra"],
        ] {
            assert!(parse_args(&strings(bad)).is_err(), "{bad:?} accepted");
        }
    }

    #[test]
    fn loop_stops_at_the_boundary_nearest_the_budget() {
        assert!(another_unit(0, 100.0, 1.0), "at least one unit");
        // 3 s units, 20 s budget: the 7th unit would end at 21 s, nearer
        // than stopping at 18 s.
        assert!(another_unit(6, 18.0, 20.0));
        // 4.5 s units: stop at 18 s rather than run to 22.5 s.
        assert!(!another_unit(4, 18.0, 20.0));
        assert!(!another_unit(3, 20.0, 20.0));
    }

    /// Both passes print exactly the catalogue's metrics, in a JSON line of
    /// the expected shape.
    #[test]
    fn passes_print_exactly_the_catalogued_metrics() {
        let e2e = end_to_end(&[3.0, 1.0, 2.0], 1.5, 0.01).unwrap();
        let names: Vec<&str> = e2e.iter().map(|(s, _)| s.name).collect();
        assert_eq!(names, END_TO_END.iter().map(|s| s.name).collect::<Vec<_>>());
        assert_eq!(e2e[0].1, 2.0);
        assert_eq!(e2e[1].1, 2.0);

        let harness = Harness {
            setup_s: 0.1,
            execute_s: 0.2,
            shared_setup_frac: 0.0,
            runs: 1,
        };
        let layers = per_layer(&TracePass::default(), &harness).unwrap();
        assert_eq!(layers.len(), PER_LAYER.len());

        let json = result_json(&Outcome {
            attempted: 3,
            failed: 0,
            metrics: e2e,
            lanes: None,
        });
        let parsed = serde_json::from_str(&json).unwrap();
        assert_eq!(parsed.get("correct").and_then(|v| v.as_bool()), Some(true));
        assert_eq!(parsed.get("attempted").and_then(|v| v.as_u64()), Some(3));
        let metrics = parsed.get("metrics").and_then(|m| m.as_object()).unwrap();
        assert_eq!(metrics.len(), END_TO_END.len());
        assert_eq!(
            metrics["run_ms_p50"].get("unit").and_then(|u| u.as_str()),
            Some("ms")
        );
    }
}
