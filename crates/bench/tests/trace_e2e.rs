//! The ISSUE acceptance path, end to end: a `three_halves` run traced
//! through `JsonlTracer` produces a file with at least three named phases
//! whose per-phase rounds sum to the reported `RoundStats.rounds`, and
//! `wdr-trace`'s renderer turns it into markdown.

use congest_algos::three_halves::three_halves_diameter;
use congest_graph::generators;
use congest_sim::telemetry::{build_phase_tree, JsonlTracer};
use congest_sim::{SimConfig, Telemetry};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;
use wdr_bench::trace::{parse_trace, render_csv, render_json, render_markdown};

#[test]
fn three_halves_jsonl_trace_renders_to_markdown() {
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let g = generators::erdos_renyi_connected(20, 0.15, 3, &mut rng);

    let dir = std::env::temp_dir().join("wdr-trace-e2e");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("three_halves.jsonl");
    let tracer = JsonlTracer::create(&path).unwrap();
    let telemetry = Telemetry::new(Arc::new(tracer));
    let cfg = SimConfig::standard(g.n(), g.max_weight())
        .with_max_rounds(10_000_000)
        .with_telemetry(telemetry.clone())
        .with_channel_profile();

    let res = three_halves_diameter(&g, 0, &cfg, &mut rng).unwrap();
    telemetry.flush();

    // Parse the file back exactly as the wdr-trace binary does.
    let text = std::fs::read_to_string(&path).unwrap();
    let events = parse_trace(&text).unwrap();
    let tree = build_phase_tree(&events);
    let algo = &tree.children[0];
    assert_eq!(algo.name, "three_halves");
    assert!(
        algo.children.len() >= 3,
        "want ≥3 named phases, got {}",
        algo.children.len()
    );
    assert_eq!(algo.subtree().rounds, res.stats.rounds);

    let md = render_markdown(&events);
    assert!(md.contains("| phase | rounds |"));
    assert!(md.contains("three_halves"));
    assert!(md.contains("sample_bfs"));
    assert!(md.contains("Hottest directed channels"));

    let csv = render_csv(&events);
    assert!(csv.lines().count() > algo.children.len());

    // The --json output mode: one parseable array of table objects.
    let json = render_json(&events);
    let tables = serde_json::from_str(&json).unwrap();
    let tables = tables.as_array().expect("JSON report is an array");
    assert_eq!(
        tables[0].get("id").and_then(serde_json::Value::as_str),
        Some("TRACE")
    );
    assert!(json.contains("three_halves"));
}

/// The fault-injection acceptance path: a faulty `bfs_tree` run traced to a
/// JSONL file shows its drop and crash events and its failure in the
/// `wdr-trace` rendering. A node that never hears a `Token` never joins the
/// tree, so the run itself waits out the round cap; its trace is still
/// complete, and reads back as exactly the events the run emitted.
#[test]
fn faulty_run_shows_fault_events_in_wdr_trace_output() {
    use congest_sim::telemetry::{CollectingTracer, Tracer};
    use congest_sim::{primitives, FaultPlan, SimError, TraceEvent};

    /// Records every event in memory and in the JSONL file.
    struct Fanout(Arc<CollectingTracer>, JsonlTracer);
    impl Tracer for Fanout {
        fn record(&self, event: &TraceEvent) {
            self.0.record(event);
            self.1.record(event);
        }
        fn flush(&self) {
            self.1.flush();
        }
    }

    let g = generators::grid(4, 4, 1);
    let dir = std::env::temp_dir().join("wdr-trace-e2e");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("faulty_bfs.jsonl");
    let collector = Arc::new(CollectingTracer::default());
    let tracer = Fanout(collector.clone(), JsonlTracer::create(&path).unwrap());
    let telemetry = Telemetry::new(Arc::new(tracer));
    let cfg = SimConfig::standard(g.n(), 1)
        .with_max_rounds(10_000)
        .with_telemetry(telemetry.clone())
        .with_faults(
            FaultPlan::new(99)
                .with_drop_rate(0.2)
                .with_crash(5, 2, Some(4)),
        );
    let run = primitives::bfs_tree(&g, 0, &cfg);
    assert!(
        matches!(run, Err(SimError::RoundLimitExceeded { .. })),
        "{run:?}"
    );
    telemetry.flush();

    let text = std::fs::read_to_string(&path).unwrap();
    let events = parse_trace(&text).unwrap();
    assert_eq!(events, collector.events());
    assert!(events
        .iter()
        .any(|e| matches!(e, TraceEvent::MessageDropped { .. })));
    assert!(events
        .iter()
        .any(|e| matches!(e, TraceEvent::NodeCrashed { .. })));
    let failures: Vec<&TraceEvent> = events
        .iter()
        .filter(|e| matches!(e, TraceEvent::SimFailed { .. }))
        .collect();
    assert_eq!(
        failures,
        [&TraceEvent::SimFailed {
            error: run.unwrap_err()
        }]
    );

    let md = render_markdown(&events);
    assert!(md.contains("bfs_tree"));
    assert!(md.contains("Injected faults observed in the trace"));
    assert!(md.contains("dropped (random)"));
    assert!(md.contains("node crashes"));
    assert!(md.contains("| simulation failures | 1 |"));
}
