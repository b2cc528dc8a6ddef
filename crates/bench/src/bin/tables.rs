//! Regenerates every table and figure of the paper's evaluation.
//!
//! ```sh
//! cargo run --release -p wdr-bench --bin tables            # full sweep
//! cargo run --release -p wdr-bench --bin tables -- --quick # trimmed sweep
//! cargo run --release -p wdr-bench --bin tables -- --exp e1,e6
//! ```
//!
//! Markdown goes to stdout; CSVs and DOT artifacts land in
//! `target/experiments/`.

use std::path::PathBuf;
use wdr_bench::{experiments, write_csv};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let only: Option<Vec<String>> = args
        .iter()
        .position(|a| a == "--exp")
        .and_then(|i| args.get(i + 1))
        .map(|s| s.split(',').map(|x| x.trim().to_lowercase()).collect());
    let out_dir = PathBuf::from("target/experiments");
    std::fs::create_dir_all(&out_dir).expect("create output dir");

    let run = |name: &str| only.as_ref().is_none_or(|xs| xs.iter().any(|x| x == name));
    let mut outputs = Vec::new();
    let t0 = std::time::Instant::now();
    if run("t1") {
        eprintln!("[tables] running T1…");
        outputs.push(experiments::t1());
    }
    if run("e1") {
        eprintln!("[tables] running E1…");
        outputs.push(experiments::e1(quick));
    }
    if run("e2") {
        eprintln!("[tables] running E2…");
        outputs.push(experiments::e2(quick));
    }
    if run("e3") {
        eprintln!("[tables] running E3…");
        outputs.push(experiments::e3(quick));
    }
    if run("e4") {
        eprintln!("[tables] running E4…");
        outputs.push(experiments::e4(quick));
    }
    if run("e5") {
        eprintln!("[tables] running E5…");
        outputs.push(experiments::e5(quick));
    }
    if run("e6") {
        eprintln!("[tables] running E6…");
        outputs.push(experiments::e6(quick));
    }
    if run("e8") {
        eprintln!("[tables] running E8…");
        outputs.push(experiments::e8(quick, &out_dir));
    }
    if run("e9") {
        eprintln!("[tables] running E9…");
        outputs.push(experiments::e9(quick, &out_dir));
    }
    if run("e11") {
        eprintln!("[tables] running E11…");
        outputs.push(experiments::e11(quick, &out_dir));
    }
    if run("e12") {
        eprintln!("[tables] running E12…");
        outputs.push(experiments::e12(quick, &out_dir));
    }
    if run("e13") {
        eprintln!("[tables] running E13…");
        outputs.push(experiments::e13(quick, &out_dir));
    }
    if run("f") || run("figures") {
        eprintln!("[tables] running F1–F4…");
        outputs.push(experiments::figures(&out_dir.join("figures")));
    }
    if run("a1") {
        eprintln!("[tables] running A1…");
        outputs.push(experiments::a1());
    }
    if run("a2") {
        eprintln!("[tables] running A2…");
        outputs.push(experiments::a2(quick));
    }
    if run("a3") {
        eprintln!("[tables] running A3…");
        outputs.push(experiments::a3(quick));
    }
    if run("a4") {
        eprintln!("[tables] running A4…");
        outputs.push(experiments::a4());
    }

    println!(
        "# Wu–Yao PODC 2022 — regenerated evaluation ({} mode)\n",
        if quick { "quick" } else { "full" }
    );
    for out in &outputs {
        for t in &out.tables {
            println!("{}", t.to_markdown());
        }
        for a in &out.artifacts {
            println!("_artifact: {a}_\n");
        }
        write_csv(out, &out_dir).expect("write CSVs");
    }
    eprintln!(
        "[tables] done in {:.1}s; CSVs in {}",
        t0.elapsed().as_secs_f64(),
        out_dir.display()
    );
}
