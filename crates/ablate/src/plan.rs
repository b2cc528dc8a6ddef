//! The declarative [`AblationPlan`] and its on-disk format: the
//! hand-rolled RON subset of `wdr_conformance::ron`, using more of it than
//! the corpus does — strings, lists, maps, negative numbers, and `Option`
//! values:
//!
//! ```text
//! Ablation(
//!     name: "e13-quantum-sweep",
//!     substrate: Quantum,
//!     mode: Grid,
//!     samples: None,
//!     factors: {
//!         "eps": [0.08, 0.2, 0.45],
//!         "max_weight": [1, 8, 4096],
//!     },
//!     fixed: {
//!         "family": "grid",
//!         "n": 18,
//!     },
//!     tolerances: {
//!         "ratio": Tol(min: Some(0.5), max: Some(3.0), abs: None, rel: None),
//!     },
//! )
//! ```
//!
//! Floats are written with Rust's shortest-roundtrip formatting and maps
//! are [`BTreeMap`]s, so `parse(to_ron(plan)) == plan` exactly
//! (property-tested) and [`to_ron`] is a canonical form: the
//! [`plan_hash`] stamped into every runbook is the FNV-1a of these bytes.

use serde_json::Value;
use std::collections::BTreeMap;
use std::fmt::Write as _;
pub use wdr_conformance::ron::ParseError;
use wdr_conformance::ron::{Lexer, Tok};
use wdr_metrics::util::fnv1a_hex;

/// How the factor space is explored.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum AblationMode {
    /// Full cartesian product of every factor's levels.
    Grid,
    /// Seeded Latin-hypercube sample of `samples` jobs (each factor's
    /// strata are covered exactly once across the sample).
    Lhs,
}

impl AblationMode {
    /// The stable identifier used in plans and reports.
    pub fn name(self) -> &'static str {
        match self {
            AblationMode::Grid => "Grid",
            AblationMode::Lhs => "Lhs",
        }
    }
}

/// Which existing execution substrate each job maps onto.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Substrate {
    /// A slice of the conformance suite (`runner::run_suite` over
    /// `generate_corpus`).
    Conformance,
    /// One quantum weighted-diameter/radius run per job
    /// (`congest_wdr::algorithm::quantum_weighted`, oracle calibration).
    Quantum,
    /// Pruned sweep extremes on a generated family
    /// (`congest_graph::sweep` via `GraphContext`).
    Sweep,
    /// An E8-style round-engine run (BFS tree + converge-cast under an
    /// optional fault plan).
    RoundEngine,
}

impl Substrate {
    /// The stable identifier used in plans and reports.
    pub fn name(self) -> &'static str {
        match self {
            Substrate::Conformance => "Conformance",
            Substrate::Quantum => "Quantum",
            Substrate::Sweep => "Sweep",
            Substrate::RoundEngine => "RoundEngine",
        }
    }
}

/// Acceptance bounds for one report metric.
///
/// A measured value `v` passes when
/// `min − slack ≤ v ≤ max + slack` with `slack = abs + rel·|v|`
/// (absent bounds are `−∞`/`+∞`; absent slacks are `0`).
#[derive(Copy, Clone, Debug, PartialEq, Default)]
pub struct ToleranceSpec {
    /// Lower bound (inclusive, before slack widening).
    pub min: Option<f64>,
    /// Upper bound (inclusive, before slack widening).
    pub max: Option<f64>,
    /// Absolute slack added on both sides.
    pub abs: Option<f64>,
    /// Relative slack (× |value|) added on both sides.
    pub rel: Option<f64>,
}

impl ToleranceSpec {
    /// Evaluates the spec against a measured value. Returns
    /// `Err(detail)` naming the violated bound on failure.
    pub fn evaluate(&self, value: f64) -> Result<(), String> {
        let slack = self.abs.unwrap_or(0.0) + self.rel.unwrap_or(0.0) * value.abs();
        if !value.is_finite() {
            return Err(format!("value {value} is not finite"));
        }
        if let Some(min) = self.min {
            if value < min - slack {
                return Err(format!("value {value} < min {min} (slack {slack})"));
            }
        }
        if let Some(max) = self.max {
            if value > max + slack {
                return Err(format!("value {value} > max {max} (slack {slack})"));
            }
        }
        Ok(())
    }
}

/// A declarative ablation: factor lists to explore, fixed parameters, and
/// per-metric acceptance tolerances. See the module docs for the on-disk
/// grammar and [`mod@crate::expand`] for job semantics.
#[derive(Clone, Debug, PartialEq)]
pub struct AblationPlan {
    /// Human-readable plan name (stamped into the runbook).
    pub name: String,
    /// Which substrate the jobs run on.
    pub substrate: Substrate,
    /// Grid or Latin-hypercube exploration.
    pub mode: AblationMode,
    /// LHS sample count (`None` for grid plans).
    pub samples: Option<usize>,
    /// Factor name → list of levels to explore.
    pub factors: BTreeMap<String, Vec<Value>>,
    /// Parameters shared by every job.
    pub fixed: BTreeMap<String, Value>,
    /// Metric name → acceptance bounds.
    pub tolerances: BTreeMap<String, ToleranceSpec>,
}

/// The FNV-1a 64 hash of the plan's canonical [`to_ron`] bytes — the
/// provenance identifier stamped into every runbook report.
pub fn plan_hash(plan: &AblationPlan) -> String {
    fnv1a_hex(to_ron(plan).as_bytes())
}

fn write_ron_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            other => out.push(other),
        }
    }
    out.push('"');
}

fn write_ron_value(v: &Value, out: &mut String) {
    match v {
        Value::Null => out.push_str("None"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Number(x) => {
            let _ = write!(out, "{x:?}");
        }
        Value::String(s) => write_ron_string(s, out),
        Value::Array(_) | Value::Object(_) => {
            unreachable!("plan values are scalars (enforced by the parser)")
        }
    }
}

fn write_ron_opt(v: Option<f64>, out: &mut String) {
    match v {
        None => out.push_str("None"),
        Some(x) => {
            let _ = write!(out, "Some({x:?})");
        }
    }
}

/// Serializes a plan into its canonical on-disk form (fixed field order,
/// sorted maps, shortest-roundtrip floats).
pub fn to_ron(plan: &AblationPlan) -> String {
    let mut s = String::new();
    s.push_str("Ablation(\n");
    s.push_str("    name: ");
    write_ron_string(&plan.name, &mut s);
    s.push_str(",\n");
    writeln!(s, "    substrate: {},", plan.substrate.name()).unwrap();
    writeln!(s, "    mode: {},", plan.mode.name()).unwrap();
    match plan.samples {
        None => s.push_str("    samples: None,\n"),
        Some(k) => {
            writeln!(s, "    samples: Some({k}),").unwrap();
        }
    }
    s.push_str("    factors: {\n");
    for (name, levels) in &plan.factors {
        s.push_str("        ");
        write_ron_string(name, &mut s);
        s.push_str(": [");
        for (i, level) in levels.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            write_ron_value(level, &mut s);
        }
        s.push_str("],\n");
    }
    s.push_str("    },\n");
    s.push_str("    fixed: {\n");
    for (name, value) in &plan.fixed {
        s.push_str("        ");
        write_ron_string(name, &mut s);
        s.push_str(": ");
        write_ron_value(value, &mut s);
        s.push_str(",\n");
    }
    s.push_str("    },\n");
    s.push_str("    tolerances: {\n");
    for (name, tol) in &plan.tolerances {
        s.push_str("        ");
        write_ron_string(name, &mut s);
        s.push_str(": Tol(min: ");
        write_ron_opt(tol.min, &mut s);
        s.push_str(", max: ");
        write_ron_opt(tol.max, &mut s);
        s.push_str(", abs: ");
        write_ron_opt(tol.abs, &mut s);
        s.push_str(", rel: ");
        write_ron_opt(tol.rel, &mut s);
        s.push_str("),\n");
    }
    s.push_str("    },\n");
    s.push_str(")\n");
    s
}

/// A scalar plan value: number, string, or bool.
fn value(lx: &mut Lexer<'_>) -> Result<Value, ParseError> {
    match lx.next_tok()? {
        Tok::UInt(v) => Ok(Value::Number(v as f64)),
        Tok::Float(v) => Ok(Value::Number(v)),
        Tok::Str(s) => Ok(Value::String(s)),
        Tok::Ident(id) if id == "true" => Ok(Value::Bool(true)),
        Tok::Ident(id) if id == "false" => Ok(Value::Bool(false)),
        other => Err(lx.err(format!("expected scalar value, found {other:?}"))),
    }
}

fn parse_factor_map(lx: &mut Lexer<'_>) -> Result<BTreeMap<String, Vec<Value>>, ParseError> {
    lx.expect(&Tok::LBrace)?;
    let mut map = BTreeMap::new();
    loop {
        if lx.peek()? == Tok::RBrace {
            lx.expect(&Tok::RBrace)?;
            return Ok(map);
        }
        let key = lx.string_lit()?;
        lx.expect(&Tok::Colon)?;
        lx.expect(&Tok::LBracket)?;
        let mut levels = Vec::new();
        loop {
            if lx.peek()? == Tok::RBracket {
                lx.expect(&Tok::RBracket)?;
                break;
            }
            levels.push(value(lx)?);
            if lx.peek()? == Tok::Comma {
                lx.expect(&Tok::Comma)?;
            }
        }
        if map.insert(key.clone(), levels).is_some() {
            return Err(lx.err(format!("duplicate factor '{key}'")));
        }
        lx.expect(&Tok::Comma)?;
    }
}

fn parse_fixed_map(lx: &mut Lexer<'_>) -> Result<BTreeMap<String, Value>, ParseError> {
    lx.expect(&Tok::LBrace)?;
    let mut map = BTreeMap::new();
    loop {
        if lx.peek()? == Tok::RBrace {
            lx.expect(&Tok::RBrace)?;
            return Ok(map);
        }
        let key = lx.string_lit()?;
        lx.expect(&Tok::Colon)?;
        if map.insert(key.clone(), value(lx)?).is_some() {
            return Err(lx.err(format!("duplicate fixed param '{key}'")));
        }
        lx.expect(&Tok::Comma)?;
    }
}

fn parse_tolerance_map(lx: &mut Lexer<'_>) -> Result<BTreeMap<String, ToleranceSpec>, ParseError> {
    lx.expect(&Tok::LBrace)?;
    let mut map = BTreeMap::new();
    loop {
        if lx.peek()? == Tok::RBrace {
            lx.expect(&Tok::RBrace)?;
            return Ok(map);
        }
        let key = lx.string_lit()?;
        lx.expect(&Tok::Colon)?;
        match lx.ident()?.as_str() {
            "Tol" => {}
            other => return Err(lx.err(format!("expected 'Tol', found '{other}'"))),
        }
        lx.expect(&Tok::LParen)?;
        lx.expect_field("min")?;
        let min = lx.opt(Lexer::float)?;
        lx.expect(&Tok::Comma)?;
        lx.expect_field("max")?;
        let max = lx.opt(Lexer::float)?;
        lx.expect(&Tok::Comma)?;
        lx.expect_field("abs")?;
        let abs = lx.opt(Lexer::float)?;
        lx.expect(&Tok::Comma)?;
        lx.expect_field("rel")?;
        let rel = lx.opt(Lexer::float)?;
        lx.expect(&Tok::RParen)?;
        if map
            .insert(key.clone(), ToleranceSpec { min, max, abs, rel })
            .is_some()
        {
            return Err(lx.err(format!("duplicate tolerance '{key}'")));
        }
        lx.expect(&Tok::Comma)?;
    }
}

/// Parses one plan from the on-disk format. Top-level fields must appear
/// in the canonical [`to_ron`] order (plans are short and machine-diffed;
/// a fixed order keeps the parser and review diffs simple).
pub fn parse(text: &str) -> Result<AblationPlan, ParseError> {
    let mut lx = Lexer::new(text);
    match lx.next_tok()? {
        Tok::Ident(id) if id == "Ablation" => {}
        other => return Err(lx.err(format!("expected 'Ablation', found {other:?}"))),
    }
    lx.expect(&Tok::LParen)?;
    lx.expect_field("name")?;
    let name = lx.string_lit()?;
    lx.expect(&Tok::Comma)?;
    lx.expect_field("substrate")?;
    let substrate = match lx.ident()?.as_str() {
        "Conformance" => Substrate::Conformance,
        "Quantum" => Substrate::Quantum,
        "Sweep" => Substrate::Sweep,
        "RoundEngine" => Substrate::RoundEngine,
        other => return Err(lx.err(format!("unknown substrate '{other}'"))),
    };
    lx.expect(&Tok::Comma)?;
    lx.expect_field("mode")?;
    let mode = match lx.ident()?.as_str() {
        "Grid" => AblationMode::Grid,
        "Lhs" => AblationMode::Lhs,
        other => return Err(lx.err(format!("unknown mode '{other}'"))),
    };
    lx.expect(&Tok::Comma)?;
    lx.expect_field("samples")?;
    let samples = lx.opt(|lx| lx.uint().map(|v| v as usize))?;
    lx.expect(&Tok::Comma)?;
    lx.expect_field("factors")?;
    let factors = parse_factor_map(&mut lx)?;
    lx.expect(&Tok::Comma)?;
    lx.expect_field("fixed")?;
    let fixed = parse_fixed_map(&mut lx)?;
    lx.expect(&Tok::Comma)?;
    lx.expect_field("tolerances")?;
    let tolerances = parse_tolerance_map(&mut lx)?;
    lx.expect(&Tok::Comma)?;
    lx.expect(&Tok::RParen)?;
    match lx.next_tok()? {
        Tok::Eof => Ok(AblationPlan {
            name,
            substrate,
            mode,
            samples,
            factors,
            fixed,
            tolerances,
        }),
        other => Err(lx.err(format!("trailing input: {other:?}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_plan() -> AblationPlan {
        let mut factors = BTreeMap::new();
        factors.insert(
            "eps".to_string(),
            vec![Value::Number(0.08), Value::Number(0.45)],
        );
        factors.insert(
            "family".to_string(),
            vec![
                Value::String("grid".to_string()),
                Value::String("cluster_ring".to_string()),
            ],
        );
        let mut fixed = BTreeMap::new();
        fixed.insert("n".to_string(), Value::Number(18.0));
        fixed.insert("quoted \"name\"".to_string(), Value::Bool(true));
        let mut tolerances = BTreeMap::new();
        tolerances.insert(
            "ratio".to_string(),
            ToleranceSpec {
                min: Some(0.5),
                max: Some(3.0),
                abs: Some(1e-6),
                rel: None,
            },
        );
        AblationPlan {
            name: "unit-test".to_string(),
            substrate: Substrate::Quantum,
            mode: AblationMode::Lhs,
            samples: Some(4),
            factors,
            fixed,
            tolerances,
        }
    }

    #[test]
    fn roundtrip_sample_plan() {
        let plan = sample_plan();
        let text = to_ron(&plan);
        assert_eq!(parse(&text).unwrap(), plan, "{text}");
    }

    #[test]
    fn roundtrip_empty_maps() {
        let plan = AblationPlan {
            name: String::new(),
            substrate: Substrate::Sweep,
            mode: AblationMode::Grid,
            samples: None,
            factors: BTreeMap::new(),
            fixed: BTreeMap::new(),
            tolerances: BTreeMap::new(),
        };
        assert_eq!(parse(&to_ron(&plan)).unwrap(), plan);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse("").is_err());
        assert!(parse("Ablation(").is_err());
        assert!(parse("Scenario(seed: 1)").is_err());
        let good = to_ron(&sample_plan());
        assert!(parse(&format!("{good} trailing")).is_err());
        assert!(parse(&good.replace("Quantum", "Banana")).is_err());
    }

    #[test]
    fn parse_reports_offsets() {
        let err = parse("Ablation(name: nope,").unwrap_err();
        assert!(err.offset > 0);
        assert!(err.to_string().contains("at byte"));
    }

    #[test]
    fn negative_numbers_and_comments() {
        let text = to_ron(&sample_plan())
            .replace("0.08", "-0.08")
            .replace("Ablation(", "// leading comment\nAblation(");
        let plan = parse(&text).unwrap();
        assert_eq!(plan.factors["eps"][0], Value::Number(-0.08));
    }

    #[test]
    fn plan_hash_tracks_content() {
        let a = sample_plan();
        let mut b = a.clone();
        assert_eq!(plan_hash(&a), plan_hash(&b));
        b.fixed.insert("extra".to_string(), Value::Number(1.0));
        assert_ne!(plan_hash(&a), plan_hash(&b));
    }

    #[test]
    fn tolerance_semantics() {
        let tol = ToleranceSpec {
            min: Some(1.0),
            max: Some(2.0),
            abs: Some(0.1),
            rel: None,
        };
        assert!(tol.evaluate(0.95).is_ok());
        assert!(tol.evaluate(2.05).is_ok());
        assert!(tol.evaluate(0.85).is_err());
        assert!(tol.evaluate(2.15).is_err());
        assert!(tol.evaluate(f64::NAN).is_err());
        let rel = ToleranceSpec {
            max: Some(100.0),
            rel: Some(0.1),
            ..ToleranceSpec::default()
        };
        assert!(rel.evaluate(109.0).is_ok());
        assert!(rel.evaluate(115.0).is_err());
    }
}
