//! The correctness gate: per-run report records, the hard side of the
//! `(1+ε)²` sandwich, and the checked-in seed-1 golden file.

use congest_wdr::algorithm::{Objective, WdrReport};
use serde_json::Value;
use std::collections::BTreeMap;
use std::path::Path;

/// The seed whose outputs the golden file pins.
pub const GOLDEN_SEED: u64 = 1;

/// Every `WdrReport` field by name, as canonical text. Floats are recorded
/// by their bits, so equal records mean bit-identical reports.
pub type Record = BTreeMap<String, String>;

/// The record of one report.
pub fn record(r: &WdrReport) -> Record {
    [
        ("estimate_bits", format!("{:016x}", r.estimate.to_bits())),
        ("exact_bits", format!("{:016x}", r.exact.to_bits())),
        ("t0", r.t0.to_string()),
        ("t1", r.t1.to_string()),
        ("t2", r.t2.to_string()),
        ("t_setup_outer", r.t_setup_outer.to_string()),
        ("total_rounds", r.total_rounds.to_string()),
        ("budgeted_rounds", r.budgeted_rounds.to_string()),
        ("inner_budget", r.inner_budget.to_string()),
        (
            "outer_grover_iterations",
            r.outer_trace.grover_iterations.to_string(),
        ),
        ("outer_measurements", r.outer_trace.measurements.to_string()),
        ("chosen_set", r.chosen_set.to_string()),
        ("chosen_node", r.chosen_node.to_string()),
        ("marked_sets", r.marked_sets.to_string()),
        ("nonempty_sets", r.nonempty_sets.to_string()),
        ("confidence", format!("{:?}", r.confidence)),
    ]
    .into_iter()
    .map(|(name, value)| (name.to_string(), value))
    .collect()
}

/// The first field (by name) in which `got` differs from `want`, counting
/// a field present in only one of them.
pub fn first_difference(want: &Record, got: &Record) -> Option<String> {
    want.keys()
        .chain(got.keys())
        .filter(|name| want.get(*name) != got.get(*name))
        .min()
        .cloned()
}

/// The hard side of the `(1+ε)²` sandwich, which holds on every run:
/// `estimate ≤ (1+ε)²·exact` for the diameter, `estimate ≥ exact` for the
/// radius.
pub fn hard_side_holds(r: &WdrReport, objective: Objective, eps: f64) -> bool {
    match objective {
        Objective::Diameter => r.estimate <= (1.0 + eps) * (1.0 + eps) * r.exact + 1e-6,
        Objective::Radius => r.estimate >= r.exact - 1e-6,
    }
}

/// The seed-1 golden outputs.
#[derive(Debug, Default, PartialEq)]
pub struct Golden {
    /// Per Theorem 1.1 workload, the record of each run in its run list.
    pub runs: BTreeMap<String, Vec<Record>>,
    /// FNV-1a of the conformance `fingerprint` of one corpus pass.
    pub corpus_fingerprint: String,
}

impl Golden {
    /// Loads the golden file.
    ///
    /// # Errors
    ///
    /// Describes a missing or malformed file.
    pub fn load(path: &Path) -> Result<Golden, String> {
        let text = std::fs::read_to_string(path).map_err(|e| {
            format!(
                "read {}: {e} (regenerate it with --write-golden)",
                path.display()
            )
        })?;
        Golden::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    }

    fn parse(text: &str) -> Result<Golden, String> {
        let json = serde_json::from_str(text).map_err(|e| e.to_string())?;
        let corpus_fingerprint = json
            .get("corpus_fingerprint")
            .and_then(Value::as_str)
            .ok_or("missing corpus_fingerprint")?
            .to_string();
        let mut runs = BTreeMap::new();
        for (workload, list) in json
            .get("runs")
            .and_then(Value::as_object)
            .ok_or("missing runs")?
        {
            let records = list
                .as_array()
                .ok_or("runs entries must be arrays")?
                .iter()
                .map(|rec| {
                    rec.as_object()
                        .ok_or("a run record must be an object")?
                        .iter()
                        .map(|(name, value)| {
                            let value = value.as_str().ok_or("record values are strings")?;
                            Ok((name.clone(), value.to_string()))
                        })
                        .collect::<Result<Record, String>>()
                })
                .collect::<Result<Vec<Record>, String>>()?;
            runs.insert(workload.clone(), records);
        }
        Ok(Golden {
            runs,
            corpus_fingerprint,
        })
    }

    /// Renders the golden file (stable bytes: everything sorted by name).
    pub fn render(&self) -> String {
        let mut out = format!(
            "{{\n  \"seed\": {GOLDEN_SEED},\n  \"corpus_fingerprint\": \"{}\",\n  \"runs\": {{",
            self.corpus_fingerprint
        );
        for (i, (workload, records)) in self.runs.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str(&format!("    \"{workload}\": ["));
            for (j, rec) in records.iter().enumerate() {
                out.push_str(if j == 0 { "\n      {" } else { ",\n      {" });
                let fields: Vec<String> = rec
                    .iter()
                    .map(|(name, value)| format!("\"{name}\": \"{value}\""))
                    .collect();
                out.push_str(&fields.join(", "));
                out.push('}');
            }
            out.push_str("\n    ]");
        }
        out.push_str("\n  }\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest_wdr::algorithm::Confidence;
    use quantum_sim::SearchTrace;

    fn report(estimate: f64, exact: f64) -> WdrReport {
        WdrReport {
            estimate,
            exact,
            total_rounds: 10,
            budgeted_rounds: 20,
            t0: 1,
            t1: 2,
            t2: 3,
            t_setup_outer: 4,
            inner_budget: 5,
            outer_trace: SearchTrace {
                grover_iterations: 6,
                measurements: 7,
            },
            chosen_set: 8,
            chosen_node: 9,
            marked_sets: 11,
            nonempty_sets: 12,
            confidence: Confidence::Guaranteed,
        }
    }

    #[test]
    fn difference_names_the_drifted_field() {
        let a = record(&report(81.25, 81.0));
        let mut other = report(81.25, 81.0);
        other.t1 += 1;
        other.chosen_node += 1;
        assert_eq!(first_difference(&a, &a.clone()), None);
        assert_eq!(
            first_difference(&a, &record(&other)).as_deref(),
            Some("chosen_node")
        );
        assert_eq!(
            first_difference(&a, &record(&report(81.5, 81.0))).as_deref(),
            Some("estimate_bits")
        );
        let mut missing = a.clone();
        missing.remove("t2");
        assert_eq!(first_difference(&a, &missing).as_deref(), Some("t2"));
    }

    #[test]
    fn sandwich_hard_side() {
        let eps = 0.25;
        assert!(hard_side_holds(&report(1.5, 1.0), Objective::Diameter, eps));
        assert!(!hard_side_holds(
            &report(1.6, 1.0),
            Objective::Diameter,
            eps
        ));
        assert!(hard_side_holds(&report(1.0, 1.0), Objective::Radius, eps));
        assert!(!hard_side_holds(&report(0.9, 1.0), Objective::Radius, eps));
    }

    #[test]
    fn golden_roundtrips_through_its_rendering() {
        let mut golden = Golden {
            corpus_fingerprint: "00112233aabbccdd".into(),
            ..Golden::default()
        };
        golden.runs.insert(
            "t11-er-radius".into(),
            vec![record(&report(2.0, 2.0)), record(&report(3.0, 2.5))],
        );
        golden
            .runs
            .insert("t11-grid-sparse".into(), vec![record(&report(1.0, 1.0))]);
        let text = golden.render();
        assert_eq!(Golden::parse(&text).unwrap(), golden);
        assert!(Golden::parse(&text.replace("\"t0\": \"1\"", "\"t0\": 1"))
            .unwrap_err()
            .contains("strings"));
    }

    /// The checked-in file parses and covers each Theorem 1.1 run list.
    #[test]
    fn checked_in_golden_covers_every_run_list() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("golden/seed1.json");
        let golden = Golden::load(&path).unwrap();
        assert_eq!(golden.corpus_fingerprint.len(), 16);
        for w in crate::workloads::Workload::ALL {
            if w != crate::workloads::Workload::Corpus500 {
                assert_eq!(golden.runs[w.name()].len(), w.run_list_len(), "{w:?}");
            }
        }
    }
}
