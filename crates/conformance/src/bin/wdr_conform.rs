//! `wdr-conform` — the conformance suite driver.
//!
//! ```text
//! wdr-conform gen    --count 500 --out tests/corpus
//! wdr-conform run    --corpus tests/corpus [--slice 16] [--lanes 8]
//!                    [--timings] [--mutate skip-grover-phase]
//!                    [--bench-out DIR]
//! wdr-conform replay --seed 17 | --spec file.ron
//! ```
//!
//! `run` exits non-zero when any oracle fails (which is the *expected*
//! outcome under `--mutate`: the self-check that the suite catches a
//! seeded approximation bug). `replay` re-runs one seed and, if it fails,
//! greedily shrinks it (halve `n`, drop faults, collapse weights) and
//! prints the smallest still-failing spec.

use quantum_sim::mutation::Mutation;
use std::path::PathBuf;
use std::process::ExitCode;
use wdr_conformance::runner::{self, SuiteOptions};
use wdr_conformance::scenario::ScenarioSpec;
use wdr_conformance::{corpus, oracle};

fn usage() -> String {
    "usage:\n  wdr-conform gen --count N --out DIR\n  wdr-conform run --corpus DIR \
     [--slice N] [--lanes L] [--timings] [--mutate skip-grover-phase] [--bench-out DIR]\n  \
     wdr-conform replay (--seed S | --spec FILE) [--mutate skip-grover-phase]"
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
    match it.next().map(String::as_str) {
        Some("gen") => {
            let mut count = 48u64;
            let mut out = PathBuf::from("tests/corpus");
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--count" => {
                        count = next_value(&mut it, flag)?
                            .parse()
                            .map_err(|e| format!("--count: {e}"))?;
                    }
                    "--out" => out = PathBuf::from(next_value(&mut it, flag)?),
                    other => return Err(format!("unknown flag '{other}'")),
                }
            }
            let specs = runner::generate_corpus(count);
            let paths = corpus::write_corpus(&out, &specs).map_err(|e| e.to_string())?;
            println!("wrote {} scenarios to {}", paths.len(), out.display());
            Ok(ExitCode::SUCCESS)
        }
        Some("run") => {
            let mut dir = PathBuf::from("tests/corpus");
            let mut timings = false;
            let mut options = SuiteOptions {
                bench_out: Some(PathBuf::from("target/experiments")),
                ..SuiteOptions::default()
            };
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--corpus" => dir = PathBuf::from(next_value(&mut it, flag)?),
                    "--slice" => {
                        options.slice = Some(
                            next_value(&mut it, flag)?
                                .parse()
                                .map_err(|e| format!("--slice: {e}"))?,
                        );
                    }
                    "--lanes" => {
                        options.lanes = Some(
                            next_value(&mut it, flag)?
                                .parse()
                                .map_err(|e| format!("--lanes: {e}"))?,
                        );
                    }
                    "--timings" => timings = true,
                    "--mutate" => {
                        let which = next_value(&mut it, flag)?;
                        options.mutate = Some(match which.as_str() {
                            "skip-grover-phase" => Mutation::SkipGroverPhase,
                            other => return Err(format!("unknown mutation '{other}'")),
                        });
                    }
                    "--bench-out" => {
                        options.bench_out = Some(PathBuf::from(next_value(&mut it, flag)?));
                    }
                    other => return Err(format!("unknown flag '{other}'")),
                }
            }
            let report = runner::run_corpus_dir(&dir, &options)?;
            print!("{}", runner::render_report(&report));
            if timings {
                for t in &report.timings {
                    println!(
                        "  seed {:>6}: setup {:>8.3}ms + execute {:>9.3}ms{}",
                        t.seed,
                        t.setup_secs * 1e3,
                        t.execute_secs * 1e3,
                        if t.shared_setup {
                            " (shared setup)"
                        } else {
                            ""
                        }
                    );
                }
            }
            if options.mutate.is_some() {
                // Self-check semantics: the suite is *supposed* to fail.
                // Exit non-zero either way (a mutated run is never a clean
                // gate), but say loudly whether the bug was caught.
                if report.passed() {
                    println!("MUTATION ESCAPED: the armed bug was not detected by any oracle");
                } else {
                    let oracles: Vec<&str> = {
                        let mut names: Vec<&str> =
                            report.failures.iter().map(|f| f.oracle.name()).collect();
                        names.sort_unstable();
                        names.dedup();
                        names
                    };
                    println!("mutation caught by: {}", oracles.join(", "));
                }
                return Ok(ExitCode::FAILURE);
            }
            Ok(if report.passed() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            })
        }
        Some("replay") => {
            let mut spec: Option<ScenarioSpec> = None;
            let mut mutate: Option<Mutation> = None;
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--mutate" => {
                        let which = next_value(&mut it, flag)?;
                        mutate = Some(match which.as_str() {
                            "skip-grover-phase" => Mutation::SkipGroverPhase,
                            other => return Err(format!("unknown mutation '{other}'")),
                        });
                    }
                    "--seed" => {
                        let seed: u64 = next_value(&mut it, flag)?
                            .parse()
                            .map_err(|e| format!("--seed: {e}"))?;
                        spec = Some(ScenarioSpec::from_seed(seed));
                    }
                    "--spec" => {
                        let path = next_value(&mut it, flag)?;
                        let text = std::fs::read_to_string(&path)
                            .map_err(|e| format!("read {path}: {e}"))?;
                        spec = Some(corpus::parse(&text).map_err(|e| e.to_string())?);
                    }
                    other => return Err(format!("unknown flag '{other}'")),
                }
            }
            let spec = spec.ok_or("replay needs --seed or --spec")?;
            let _guard = mutate.map(quantum_sim::mutation::arm);
            println!("replaying:\n{}", corpus::to_ron(&spec));
            let outcome = oracle::run_scenario(&spec);
            for check in &outcome.checks {
                println!(
                    "  [{}] {} — {}",
                    check.oracle.name(),
                    if check.passed { "ok" } else { "FAIL" },
                    check.detail
                );
            }
            if outcome.failures().is_empty() {
                println!("seed {} passes every oracle", spec.seed);
                return Ok(ExitCode::SUCCESS);
            }
            match runner::shrink(&spec) {
                Some(shrunk) => {
                    println!(
                        "shrunk in {} step(s); smallest failing spec:\n{}\nstill failing: {}",
                        shrunk.steps,
                        corpus::to_ron(&shrunk.shrunk),
                        shrunk.failure
                    );
                }
                None => println!("failure did not reproduce during shrinking"),
            }
            Ok(ExitCode::FAILURE)
        }
        _ => Err(usage()),
    }
}
