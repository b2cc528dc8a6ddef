//! The on-disk corpus format: one scenario per `*.ron` file under
//! `tests/corpus/`, in the hand-rolled RON subset of [`crate::ron`]. The
//! grammar uses exactly what [`ScenarioSpec`] needs — named structs,
//! tuple-ish variants with named fields, unit variants, unsigned integers,
//! and floats:
//!
//! ```text
//! Scenario(
//!     seed: 42,
//!     family: ErdosRenyi(p: 0.3),
//!     n: 16,
//!     max_weight: 8,
//!     faults: Drops(rate: 0.04),
//!     parallelism: Sequential,
//!     workload: QuantumDiameter,
//! )
//! ```
//!
//! Floats are written with Rust's shortest-roundtrip formatting, so
//! `parse(to_ron(spec)) == spec` exactly (property-tested).

pub use crate::ron::ParseError;
use crate::ron::{Lexer, Tok};
use crate::scenario::{Family, FaultSpec, ParMode, ScenarioSpec, Workload};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Serializes a spec into the corpus format.
pub fn to_ron(spec: &ScenarioSpec) -> String {
    let mut s = String::new();
    writeln!(s, "Scenario(").unwrap();
    writeln!(s, "    seed: {},", spec.seed).unwrap();
    let family = match spec.family {
        Family::Path => "Path".to_string(),
        Family::Cycle => "Cycle".to_string(),
        Family::Star => "Star".to_string(),
        Family::Grid => "Grid".to_string(),
        Family::BinaryTree => "BinaryTree".to_string(),
        Family::ErdosRenyi { p } => format!("ErdosRenyi(p: {p:?})"),
        Family::ClusterRing { hubs } => format!("ClusterRing(hubs: {hubs})"),
    };
    writeln!(s, "    family: {family},").unwrap();
    writeln!(s, "    n: {},", spec.n).unwrap();
    writeln!(s, "    max_weight: {},", spec.max_weight).unwrap();
    let faults = match spec.faults {
        FaultSpec::NoFaults => "NoFaults".to_string(),
        FaultSpec::Drops { rate } => format!("Drops(rate: {rate:?})"),
        FaultSpec::Crash { node, from, len } => {
            format!("Crash(node: {node}, from: {from}, len: {len})")
        }
    };
    writeln!(s, "    faults: {faults},").unwrap();
    let par = match spec.parallelism {
        ParMode::Sequential => "Sequential",
        ParMode::Parallel => "Parallel",
    };
    writeln!(s, "    parallelism: {par},").unwrap();
    let wl = match spec.workload {
        Workload::BaselineExact => "BaselineExact",
        Workload::QuantumDiameter => "QuantumDiameter",
        Workload::QuantumRadius => "QuantumRadius",
        Workload::PrimitiveAggregate => "PrimitiveAggregate",
    };
    writeln!(s, "    workload: {wl},").unwrap();
    s.push_str(")\n");
    s
}

/// Parses one scenario from the corpus format. Fields must appear in the
/// canonical [`to_ron`] order (the corpus is machine-written; a fixed
/// order keeps the parser and diffs simple).
pub fn parse(text: &str) -> Result<ScenarioSpec, ParseError> {
    let mut lx = Lexer::new(text);
    match lx.next_tok()? {
        Tok::Ident(id) if id == "Scenario" => {}
        other => return Err(lx.err(format!("expected 'Scenario', found {other:?}"))),
    }
    lx.expect(&Tok::LParen)?;
    lx.expect_field("seed")?;
    let seed = lx.uint()?;
    lx.expect(&Tok::Comma)?;
    lx.expect_field("family")?;
    let family = match lx.ident()?.as_str() {
        "Path" => Family::Path,
        "Cycle" => Family::Cycle,
        "Star" => Family::Star,
        "Grid" => Family::Grid,
        "BinaryTree" => Family::BinaryTree,
        "ErdosRenyi" => {
            lx.expect(&Tok::LParen)?;
            lx.expect_field("p")?;
            let p = lx.float()?;
            lx.expect(&Tok::RParen)?;
            Family::ErdosRenyi { p }
        }
        "ClusterRing" => {
            lx.expect(&Tok::LParen)?;
            lx.expect_field("hubs")?;
            let hubs = lx.uint()? as usize;
            lx.expect(&Tok::RParen)?;
            Family::ClusterRing { hubs }
        }
        other => return Err(lx.err(format!("unknown family '{other}'"))),
    };
    lx.expect(&Tok::Comma)?;
    lx.expect_field("n")?;
    let n = lx.uint()? as usize;
    lx.expect(&Tok::Comma)?;
    lx.expect_field("max_weight")?;
    let max_weight = lx.uint()?;
    lx.expect(&Tok::Comma)?;
    lx.expect_field("faults")?;
    let faults = match lx.ident()?.as_str() {
        "NoFaults" => FaultSpec::NoFaults,
        "Drops" => {
            lx.expect(&Tok::LParen)?;
            lx.expect_field("rate")?;
            let rate = lx.float()?;
            lx.expect(&Tok::RParen)?;
            FaultSpec::Drops { rate }
        }
        "Crash" => {
            lx.expect(&Tok::LParen)?;
            lx.expect_field("node")?;
            let node = lx.uint()? as usize;
            lx.expect(&Tok::Comma)?;
            lx.expect_field("from")?;
            let from = lx.uint()? as usize;
            lx.expect(&Tok::Comma)?;
            lx.expect_field("len")?;
            let len = lx.uint()? as usize;
            lx.expect(&Tok::RParen)?;
            FaultSpec::Crash { node, from, len }
        }
        other => return Err(lx.err(format!("unknown fault spec '{other}'"))),
    };
    lx.expect(&Tok::Comma)?;
    lx.expect_field("parallelism")?;
    let parallelism = match lx.ident()?.as_str() {
        "Sequential" => ParMode::Sequential,
        "Parallel" => ParMode::Parallel,
        other => return Err(lx.err(format!("unknown parallelism '{other}'"))),
    };
    lx.expect(&Tok::Comma)?;
    lx.expect_field("workload")?;
    let workload = match lx.ident()?.as_str() {
        "BaselineExact" => Workload::BaselineExact,
        "QuantumDiameter" => Workload::QuantumDiameter,
        "QuantumRadius" => Workload::QuantumRadius,
        "PrimitiveAggregate" => Workload::PrimitiveAggregate,
        other => return Err(lx.err(format!("unknown workload '{other}'"))),
    };
    lx.expect(&Tok::Comma)?;
    lx.expect(&Tok::RParen)?;
    match lx.next_tok()? {
        Tok::Eof => Ok(ScenarioSpec {
            seed,
            family,
            n,
            max_weight,
            faults,
            parallelism,
            workload,
        }),
        other => Err(lx.err(format!("trailing input: {other:?}"))),
    }
}

/// The canonical corpus file name for a seed: fixed-width so lexicographic
/// directory order equals numeric seed order (the CI smoke lane replays
/// "the first N" and must mean the same N everywhere).
pub fn file_name(seed: u64) -> String {
    format!("scenario-{seed:08}.ron")
}

/// Writes `specs` into `dir` (created if missing), one file per spec.
pub fn write_corpus(dir: &Path, specs: &[ScenarioSpec]) -> std::io::Result<Vec<PathBuf>> {
    std::fs::create_dir_all(dir)?;
    let mut paths = Vec::with_capacity(specs.len());
    for spec in specs {
        let path = dir.join(file_name(spec.seed));
        std::fs::write(&path, to_ron(spec))?;
        paths.push(path);
    }
    Ok(paths)
}

/// Loads every `*.ron` scenario in `dir`, in file-name (= seed) order.
pub fn load_corpus(dir: &Path) -> Result<Vec<ScenarioSpec>, String> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("read corpus dir {}: {e}", dir.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|ext| ext == "ron"))
        .collect();
    files.sort();
    let mut specs = Vec::with_capacity(files.len());
    for path in files {
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
        let spec = parse(&text).map_err(|e| format!("parse {}: {e}", path.display()))?;
        specs.push(spec);
    }
    Ok(specs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_sample_seeds() {
        for seed in 0..128 {
            let spec = ScenarioSpec::from_seed(seed);
            let text = to_ron(&spec);
            assert_eq!(parse(&text).unwrap(), spec, "seed {seed}:\n{text}");
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse("").is_err());
        assert!(parse("Scenario(").is_err());
        assert!(parse("Banana(seed: 1)").is_err());
        let good = to_ron(&ScenarioSpec::from_seed(3));
        assert!(parse(&format!("{good} trailing")).is_err());
        // Lexable since the lexer learned negatives and strings, but still
        // invalid here: each is a typed error at the offending token.
        let negative = "Scenario(seed: -3, family: Path,";
        let err = parse(negative).unwrap_err();
        assert!(err.message.contains("expected integer"), "{err}");
        assert_eq!(err.offset, negative.find("-3").unwrap() + 2);
        let quoted = "Scenario(seed: 3, family: \"Path\", n: 4,";
        let err = parse(quoted).unwrap_err();
        assert!(err.message.contains("expected identifier"), "{err}");
        assert_eq!(err.offset, quoted.find("\"Path\"").unwrap() + 6);
    }

    #[test]
    fn parse_reports_offsets() {
        let err = parse("Scenario(seed: nope,").unwrap_err();
        assert!(err.offset > 0);
        assert!(err.to_string().contains("at byte"));
    }

    #[test]
    fn file_names_sort_numerically() {
        assert!(file_name(9) < file_name(10));
        assert!(file_name(99) < file_name(100));
    }

    #[test]
    fn corpus_write_then_load() {
        let dir = std::env::temp_dir().join(format!("wdr-corpus-test-{}", std::process::id()));
        let specs: Vec<ScenarioSpec> = (0..6).map(ScenarioSpec::from_seed).collect();
        write_corpus(&dir, &specs).unwrap();
        let loaded = load_corpus(&dir).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(loaded, specs);
    }
}
