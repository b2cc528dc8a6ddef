//! Reading JSONL telemetry traces back in and rendering them as tables.
//!
//! [`congest_sim::telemetry::JsonlTracer`] writes one externally tagged
//! [`TraceEvent`] per line; this module parses that format (via the untyped
//! [`serde_json::Value`] tree), rebuilds the phase tree, and renders:
//!
//! * a **phase table** — one row per span, indented by nesting depth, with
//!   subtree and own rounds/messages/bits;
//! * a **hot-edge table** — the heaviest directed channels aggregated over
//!   every [`TraceEvent::ChannelProfile`] in the trace;
//! * a **search table** — one row per [`TraceEvent::GroverIteration`];
//! * a **fault table** — every injected-fault event (drops by reason,
//!   throttle firings, crash/recovery transitions) aggregated, plus the
//!   simulation failures ([`TraceEvent::SimFailed`]) the faults caused.
//!
//! The `wdr-trace` binary is a thin CLI over these functions.

use crate::harness::Table;
use congest_sim::faults::DropReason;
use congest_sim::telemetry::{build_phase_tree, HotEdge, PhaseNode};
use congest_sim::{SimError, TraceEvent};
use serde_json::Value;
use std::collections::HashMap;

/// A parse failure, with the 1-based line it occurred on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceParseError {
    /// 1-based line number in the JSONL input.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for TraceParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "trace line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for TraceParseError {}

fn field<'v>(v: &'v Value, key: &str) -> Result<&'v Value, String> {
    v.get(key).ok_or_else(|| format!("missing field `{key}`"))
}

fn u64_field(v: &Value, key: &str) -> Result<u64, String> {
    field(v, key)?
        .as_u64()
        .ok_or_else(|| format!("field `{key}` is not an integer"))
}

fn usize_field(v: &Value, key: &str) -> Result<usize, String> {
    Ok(u64_field(v, key)? as usize)
}

fn u32_field(v: &Value, key: &str) -> Result<u32, String> {
    u64_field(v, key)?
        .try_into()
        .map_err(|_| format!("field `{key}` exceeds u32"))
}

fn string_field(v: &Value, key: &str) -> Result<String, String> {
    Ok(field(v, key)?
        .as_str()
        .ok_or_else(|| format!("field `{key}` is not a string"))?
        .to_string())
}

fn drop_reason_field(v: &Value, key: &str) -> Result<DropReason, String> {
    let s = field(v, key)?
        .as_str()
        .ok_or_else(|| format!("field `{key}` is not a string"))?;
    match s {
        "Random" => Ok(DropReason::Random),
        "Burst" => Ok(DropReason::Burst),
        "Throttled" => Ok(DropReason::Throttled),
        "ReceiverCrashed" => Ok(DropReason::ReceiverCrashed),
        other => Err(format!("unknown drop reason `{other}`")),
    }
}

/// The tag and body of an externally tagged enum value.
fn tagged<'v>(v: &'v Value, what: &str) -> Result<(&'v str, &'v Value), String> {
    let obj = v
        .as_object()
        .ok_or(format!("{what} is not a JSON object"))?;
    let (tag, body) = obj.iter().next().ok_or(format!("empty {what}"))?;
    if obj.len() != 1 {
        return Err(format!("expected exactly one tag, got {}", obj.len()));
    }
    Ok((tag.as_str(), body))
}

/// Decodes a [`SimError`] payload. Its phase names are `&'static str`, so
/// each decoded one is leaked: a trace holds one failure per failed run.
fn sim_error_from_value(v: &Value) -> Result<SimError, String> {
    let phase = |body: &Value| string_field(body, "phase").map(|p| &*p.leak());
    let (tag, body) = tagged(v, "`error`")?;
    Ok(match tag {
        "NotAdjacent" => SimError::NotAdjacent {
            from: usize_field(body, "from")?,
            to: usize_field(body, "to")?,
        },
        "BandwidthExceeded" => SimError::BandwidthExceeded {
            from: usize_field(body, "from")?,
            to: usize_field(body, "to")?,
            round: usize_field(body, "round")?,
            attempted_bits: u32_field(body, "attempted_bits")?,
            budget_bits: u32_field(body, "budget_bits")?,
        },
        "RoundLimitExceeded" => SimError::RoundLimitExceeded {
            max_rounds: usize_field(body, "max_rounds")?,
            rounds_executed: usize_field(body, "rounds_executed")?,
        },
        "PhaseIncomplete" => SimError::PhaseIncomplete {
            phase: phase(body)?,
            node: usize_field(body, "node")?,
        },
        "CongestionPersisted" => SimError::CongestionPersisted {
            phase: phase(body)?,
            attempts: usize_field(body, "attempts")?,
        },
        other => return Err(format!("unknown simulation error `{other}`")),
    })
}

/// Decodes one externally tagged event object.
fn event_from_value(v: &Value) -> Result<TraceEvent, String> {
    let (tag, body) = tagged(v, "event line")?;
    Ok(match tag {
        "PhaseStart" => TraceEvent::PhaseStart {
            name: string_field(body, "name")?,
        },
        "PhaseEnd" => TraceEvent::PhaseEnd {
            name: string_field(body, "name")?,
        },
        "RoundCompleted" => TraceEvent::RoundCompleted {
            round: usize_field(body, "round")?,
            messages: u64_field(body, "messages")?,
            bits: u64_field(body, "bits")?,
            max_channel_bits: u32_field(body, "max_channel_bits")?,
        },
        "PadRounds" => TraceEvent::PadRounds {
            rounds: usize_field(body, "rounds")?,
            reason: string_field(body, "reason")?,
        },
        "ChannelSaturation" => TraceEvent::ChannelSaturation {
            round: usize_field(body, "round")?,
            from: usize_field(body, "from")?,
            to: usize_field(body, "to")?,
            bits: u32_field(body, "bits")?,
            budget_bits: u32_field(body, "budget_bits")?,
        },
        "ChannelProfile" => {
            let edges = field(body, "hot_edges")?
                .as_array()
                .ok_or("`hot_edges` is not an array")?
                .iter()
                .map(|e| {
                    Ok(HotEdge {
                        from: usize_field(e, "from")?,
                        to: usize_field(e, "to")?,
                        bits: u64_field(e, "bits")?,
                    })
                })
                .collect::<Result<Vec<HotEdge>, String>>()?;
            TraceEvent::ChannelProfile {
                channel_rounds: u64_field(body, "channel_rounds")?,
                p50_bits: u32_field(body, "p50_bits")?,
                p95_bits: u32_field(body, "p95_bits")?,
                max_bits: u32_field(body, "max_bits")?,
                hot_edges: edges,
            }
        }
        "MessageDropped" => TraceEvent::MessageDropped {
            round: usize_field(body, "round")?,
            from: usize_field(body, "from")?,
            to: usize_field(body, "to")?,
            bits: u32_field(body, "bits")?,
            reason: drop_reason_field(body, "reason")?,
        },
        "NodeCrashed" => TraceEvent::NodeCrashed {
            node: usize_field(body, "node")?,
            round: usize_field(body, "round")?,
        },
        "NodeRecovered" => TraceEvent::NodeRecovered {
            node: usize_field(body, "node")?,
            round: usize_field(body, "round")?,
        },
        "LinkThrottled" => TraceEvent::LinkThrottled {
            round: usize_field(body, "round")?,
            from: usize_field(body, "from")?,
            to: usize_field(body, "to")?,
            budget_bits: u32_field(body, "budget_bits")?,
        },
        "MessageLogTruncated" => TraceEvent::MessageLogTruncated {
            round: usize_field(body, "round")?,
            cap: usize_field(body, "cap")?,
        },
        "GroverIteration" => TraceEvent::GroverIteration {
            label: string_field(body, "label")?,
            iterations: u64_field(body, "iterations")?,
            oracle_queries: u64_field(body, "oracle_queries")?,
        },
        "SimFailed" => TraceEvent::SimFailed {
            error: sim_error_from_value(field(body, "error")?)?,
        },
        other => return Err(format!("unknown event tag `{other}`")),
    })
}

/// Parses a full JSONL trace. Blank lines are skipped; any malformed line is
/// an error (truncated final lines from an unflushed writer included — a
/// trace must be [`congest_sim::Tracer::flush`]ed).
///
/// # Errors
///
/// Returns the first malformed line.
pub fn parse_trace(input: &str) -> Result<Vec<TraceEvent>, TraceParseError> {
    let mut events = Vec::new();
    for (idx, line) in input.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let value = serde_json::from_str(line).map_err(|e| TraceParseError {
            line: idx + 1,
            message: e.to_string(),
        })?;
        events.push(event_from_value(&value).map_err(|message| TraceParseError {
            line: idx + 1,
            message,
        })?);
    }
    Ok(events)
}

/// Renders the phase tree as a table: one row per span, names indented two
/// spaces per nesting level, subtree totals first (what the paper's `T₀`,
/// `T₁`, `T₂` accounting reads off) and own (exclusive) rounds alongside.
pub fn phase_table(root: &PhaseNode) -> Table {
    let mut t = Table::new(
        "TRACE",
        "Per-phase round/message/bit breakdown",
        &[
            "phase",
            "rounds",
            "own rounds",
            "messages",
            "bits",
            "max chan bits",
        ],
    );
    for (depth, node) in root.walk() {
        let sub = node.subtree();
        t.push(vec![
            format!("{}{}", "  ".repeat(depth), node.name),
            sub.rounds.to_string(),
            node.own.rounds.to_string(),
            sub.messages.to_string(),
            sub.bits.to_string(),
            sub.max_channel_bits.to_string(),
        ]);
    }
    t
}

/// Aggregates every [`TraceEvent::ChannelProfile`] in the trace into one
/// hot-edge table (per-edge bits summed across profiles, `top_k` heaviest).
pub fn hot_edge_table(events: &[TraceEvent], top_k: usize) -> Table {
    let mut t = Table::new(
        "HOTEDGES",
        "Hottest directed channels (total bits, all profiled phases)",
        &["from", "to", "bits"],
    );
    let mut merged: HashMap<(usize, usize), u64> = HashMap::new();
    for event in events {
        if let TraceEvent::ChannelProfile { hot_edges, .. } = event {
            for e in hot_edges {
                *merged.entry((e.from, e.to)).or_insert(0) += e.bits;
            }
        }
    }
    let mut edges: Vec<((usize, usize), u64)> = merged.into_iter().collect();
    edges.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    edges.truncate(top_k);
    for ((from, to), bits) in edges {
        t.push(vec![from.to_string(), to.to_string(), bits.to_string()]);
    }
    t
}

/// Aggregates every fault event in the trace into one table: dropped
/// messages grouped by [`DropReason`] (with total lost bits), throttle
/// firings, crash/recovery transitions, message-log truncations, and the
/// simulation failures they led to.
pub fn fault_table(events: &[TraceEvent]) -> Table {
    let mut t = Table::new(
        "FAULTS",
        "Injected faults observed in the trace",
        &["fault", "count", "bits lost"],
    );
    let mut dropped: HashMap<&'static str, (u64, u64)> = HashMap::new();
    let (mut throttled, mut crashes, mut recoveries, mut truncations, mut failures) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    for event in events {
        match event {
            TraceEvent::MessageDropped { bits, reason, .. } => {
                let label = match reason {
                    DropReason::Random => "dropped (random)",
                    DropReason::Burst => "dropped (burst)",
                    DropReason::Throttled => "dropped (throttled)",
                    DropReason::ReceiverCrashed => "dropped (receiver crashed)",
                };
                let e = dropped.entry(label).or_insert((0, 0));
                e.0 += 1;
                e.1 += u64::from(*bits);
            }
            TraceEvent::LinkThrottled { .. } => throttled += 1,
            TraceEvent::NodeCrashed { .. } => crashes += 1,
            TraceEvent::NodeRecovered { .. } => recoveries += 1,
            TraceEvent::MessageLogTruncated { .. } => truncations += 1,
            TraceEvent::SimFailed { .. } => failures += 1,
            _ => {}
        }
    }
    let mut rows: Vec<(&'static str, u64, Option<u64>)> = dropped
        .into_iter()
        .map(|(label, (count, bits))| (label, count, Some(bits)))
        .collect();
    rows.sort_unstable();
    for (label, count, bits) in [
        ("link throttle firings", throttled, None),
        ("node crashes", crashes, None),
        ("node recoveries", recoveries, None),
        ("message-log truncations", truncations, None),
        ("simulation failures", failures, None),
    ] {
        if count > 0 {
            rows.push((label, count, bits));
        }
    }
    for (label, count, bits) in rows {
        t.push(vec![
            label.to_string(),
            count.to_string(),
            bits.map_or_else(|| "-".to_string(), |b| b.to_string()),
        ]);
    }
    t
}

/// One row per [`TraceEvent::GroverIteration`] in the trace.
pub fn search_table(events: &[TraceEvent]) -> Table {
    let mut t = Table::new(
        "SEARCH",
        "Quantum search invocations",
        &["label", "grover iterations", "oracle queries"],
    );
    for event in events {
        if let TraceEvent::GroverIteration {
            label,
            iterations,
            oracle_queries,
        } = event
        {
            t.push(vec![
                label.clone(),
                iterations.to_string(),
                oracle_queries.to_string(),
            ]);
        }
    }
    t
}

/// The full report for a parsed trace, rendered as markdown.
pub fn render_markdown(events: &[TraceEvent]) -> String {
    let tree = build_phase_tree(events);
    let mut out = phase_table(&tree).to_markdown();
    let hot = hot_edge_table(events, 10);
    if !hot.rows.is_empty() {
        out.push('\n');
        out.push_str(&hot.to_markdown());
    }
    let search = search_table(events);
    if !search.rows.is_empty() {
        out.push('\n');
        out.push_str(&search.to_markdown());
    }
    let faults = fault_table(events);
    if !faults.rows.is_empty() {
        out.push('\n');
        out.push_str(&faults.to_markdown());
    }
    out
}

/// The full report for a parsed trace as one JSON array of table objects
/// (the same tables as [`render_markdown`], machine-readable; empty
/// sections are omitted, the phase table always present).
pub fn render_json(events: &[TraceEvent]) -> String {
    let tree = build_phase_tree(events);
    let mut tables = vec![phase_table(&tree)];
    for t in [
        hot_edge_table(events, 10),
        search_table(events),
        fault_table(events),
    ] {
        if !t.rows.is_empty() {
            tables.push(t);
        }
    }
    serde::Serialize::to_json(&tables)
}

/// The full report for a parsed trace, rendered as concatenated CSV blocks.
pub fn render_csv(events: &[TraceEvent]) -> String {
    let tree = build_phase_tree(events);
    let mut out = phase_table(&tree).to_csv();
    let hot = hot_edge_table(events, 10);
    if !hot.rows.is_empty() {
        out.push('\n');
        out.push_str(&hot.to_csv());
    }
    let search = search_table(events);
    if !search.rows.is_empty() {
        out.push('\n');
        out.push_str(&search.to_csv());
    }
    let faults = fault_table(events);
    if !faults.rows.is_empty() {
        out.push('\n');
        out.push_str(&faults.to_csv());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest_sim::telemetry::{CollectingTracer, JsonlTracer, Tracer};
    use congest_sim::{primitives, SimConfig, Telemetry};
    use std::sync::Arc;

    #[test]
    fn round_trips_a_real_trace() {
        // Produce a trace by running real primitives, serialize it through
        // the JsonlTracer, and parse it back: must be identical event-wise.
        let g = congest_graph::generators::grid(3, 3, 2);
        let collector = Arc::new(CollectingTracer::default());

        let buf: Arc<std::sync::Mutex<Vec<u8>>> = Arc::new(std::sync::Mutex::new(Vec::new()));
        struct SharedBuf(Arc<std::sync::Mutex<Vec<u8>>>);
        impl std::io::Write for SharedBuf {
            fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(data);
                Ok(data.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        struct Fanout(Arc<CollectingTracer>, JsonlTracer);
        impl Tracer for Fanout {
            fn record(&self, event: &congest_sim::TraceEvent) {
                self.0.record(event);
                self.1.record(event);
            }
            fn flush(&self) {
                self.1.flush();
            }
        }
        let jsonl = JsonlTracer::new(Box::new(SharedBuf(buf.clone())));
        let telemetry = Telemetry::new(Arc::new(Fanout(collector.clone(), jsonl)));
        let cfg = SimConfig::standard(9, 2)
            .with_telemetry(telemetry.clone())
            .with_channel_profile();

        let (tree, stats) = primitives::bfs_tree(&g, 0, &cfg).unwrap();
        let values: Vec<u128> = (0..9).collect();
        let (_, cast_stats) =
            primitives::converge_cast(&g, 0, &cfg, &tree, &values, primitives::Aggregate::Max)
                .unwrap();
        telemetry.flush();

        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        let parsed = parse_trace(&text).unwrap();
        assert_eq!(parsed, collector.events());

        let root = build_phase_tree(&parsed);
        assert_eq!(root.children.len(), 2);
        assert_eq!(root.subtree().rounds, stats.rounds + cast_stats.rounds);

        let md = render_markdown(&parsed);
        assert!(md.contains("bfs_tree"));
        assert!(md.contains("converge_cast"));
        assert!(md.contains("Hottest directed channels"));
        let csv = render_csv(&parsed);
        assert!(csv.starts_with("phase,rounds,own rounds,messages,bits,max chan bits"));

        let json = render_json(&parsed);
        let tables = serde_json::from_str(&json).unwrap();
        let tables = tables.as_array().expect("render_json emits an array");
        assert_eq!(
            tables[0].get("id").and_then(serde_json::Value::as_str),
            Some("TRACE")
        );
        assert!(tables
            .iter()
            .any(|t| t.get("id").and_then(serde_json::Value::as_str) == Some("HOTEDGES")));
        let trace_rows = tables[0]
            .get("rows")
            .and_then(serde_json::Value::as_array)
            .unwrap();
        assert!(trace_rows
            .iter()
            .filter_map(|r| r.as_array())
            .any(|r| r[0].as_str().is_some_and(|s| s.contains("bfs_tree"))));
    }

    #[test]
    fn rejects_malformed_lines() {
        let err = parse_trace("{\"PhaseStart\":{\"name\":\"a\"}}\nnot json\n").unwrap_err();
        assert_eq!(err.line, 2);
        let err = parse_trace("{\"Mystery\":{}}\n").unwrap_err();
        assert!(err.message.contains("unknown event tag"));
        let err = parse_trace("{\"RoundCompleted\":{\"round\":1}}\n").unwrap_err();
        assert!(err.message.contains("missing field"));
        let line = "{\"MessageDropped\":{\"round\":1,\"from\":0,\"to\":1,\"bits\":8,\
                     \"reason\":\"Gremlins\"}}\n";
        let err = parse_trace(line).unwrap_err();
        assert!(err.message.contains("unknown drop reason"));
    }

    #[test]
    fn round_trips_a_faulty_trace_and_reports_the_faults() {
        use congest_sim::{FaultPlan, SimError};

        let g = congest_graph::generators::grid(4, 4, 1);
        let collector = Arc::new(CollectingTracer::default());
        let buf: Arc<std::sync::Mutex<Vec<u8>>> = Arc::new(std::sync::Mutex::new(Vec::new()));
        struct SharedBuf(Arc<std::sync::Mutex<Vec<u8>>>);
        impl std::io::Write for SharedBuf {
            fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(data);
                Ok(data.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        struct Fanout(Arc<CollectingTracer>, JsonlTracer);
        impl Tracer for Fanout {
            fn record(&self, event: &congest_sim::TraceEvent) {
                self.0.record(event);
                self.1.record(event);
            }
            fn flush(&self) {
                self.1.flush();
            }
        }
        let jsonl = JsonlTracer::new(Box::new(SharedBuf(buf.clone())));
        let telemetry = Telemetry::new(Arc::new(Fanout(collector.clone(), jsonl)));
        let cfg = SimConfig::standard(g.n(), 1)
            .with_max_rounds(10_000)
            .with_telemetry(telemetry.clone())
            .with_faults(
                FaultPlan::new(99)
                    .with_drop_rate(0.2)
                    .with_crash(5, 2, Some(4)),
            );
        // A node that never hears a `Token` never joins: the run hits the cap.
        let run = primitives::bfs_tree(&g, 0, &cfg);
        assert!(
            matches!(run, Err(SimError::RoundLimitExceeded { .. })),
            "{run:?}"
        );
        telemetry.flush();

        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        let parsed = parse_trace(&text).unwrap();
        assert_eq!(parsed, collector.events());
        assert!(parsed
            .iter()
            .any(|e| matches!(e, TraceEvent::MessageDropped { .. })));

        let faults = fault_table(&parsed);
        assert!(faults
            .rows
            .iter()
            .any(|r| r[0] == "dropped (random)" && r[2] != "-"));
        assert!(faults.rows.iter().any(|r| r[0] == "node crashes"));
        assert!(faults.rows.iter().any(|r| r[0] == "node recoveries"));
        assert!(faults
            .rows
            .iter()
            .any(|r| r[..] == ["simulation failures", "1", "-"]));
        let md = render_markdown(&parsed);
        assert!(md.contains("Injected faults observed in the trace"));
        assert!(md.contains("| simulation failures | 1 |"));
        let csv = render_csv(&parsed);
        assert!(csv.contains("dropped (random)") && csv.contains("simulation failures"));
        let json = render_json(&parsed);
        assert!(json.contains("\"FAULTS\"") && json.contains("dropped (random)"));
        assert!(json.contains("simulation failures"));
    }

    #[test]
    fn hot_edges_merge_across_profiles() {
        let profile = |bits| TraceEvent::ChannelProfile {
            channel_rounds: 1,
            p50_bits: 1,
            p95_bits: 1,
            max_bits: 1,
            hot_edges: vec![HotEdge {
                from: 0,
                to: 1,
                bits,
            }],
        };
        let t = hot_edge_table(&[profile(10), profile(5)], 10);
        assert_eq!(
            t.rows,
            vec![vec!["0".to_string(), "1".to_string(), "15".to_string()]]
        );
    }
}
