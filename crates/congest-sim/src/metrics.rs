//! Aggregate metrics for the round engine and the fault oracle.
//!
//! [`SimMetrics`] is a bundle of pre-registered [`wdr_metrics`] handles
//! that is itself a [`Tracer`]: attach it like any other sink, with
//! `SimConfig::with_telemetry(Telemetry::new(Arc::new(metrics)))`.
//! Registration happens once, up front; every per-round update is a
//! relaxed atomic operation with zero heap traffic (pinned by
//! `tests/zero_alloc.rs`), so the bundle stays cheap in benchmark runs.
//!
//! Counters are exact and order-independent, and the per-round histograms
//! merge with index-ordered integer adds, so the final metric values are
//! as deterministic as every other observable of a run.

use crate::faults::DropReason;
use crate::telemetry::{TraceEvent, Tracer};
use wdr_metrics::{Counter, Histogram, MetricsRegistry};

/// Pre-registered handles for every simulator-level metric, fed by the
/// [`TraceEvent`] stream.
///
/// Names are `{prefix}.{metric}` (prefix conventionally `"sim"`):
///
/// | metric | kind | event |
/// |---|---|---|
/// | `rounds` | counter | `RoundCompleted` |
/// | `padded_rounds` | counter | `PadRounds` (charged, not simulated) |
/// | `messages` | counter | `RoundCompleted` messages |
/// | `bits` | counter | `RoundCompleted` bits |
/// | `messages_per_round` | histogram | `RoundCompleted` messages |
/// | `bits_per_round` | histogram | `RoundCompleted` bits |
/// | `saturated_channels` | counter | `ChannelSaturation` (≥ 90% of budget) |
/// | `dropped.random` … | counter | `MessageDropped` by [`DropReason`], `LinkThrottled` |
///
/// `rounds + padded_rounds` equals the `RoundStats::rounds` of the runs
/// the bundle observed.
#[derive(Clone, Debug)]
pub struct SimMetrics {
    /// Rounds executed across every attached run.
    pub rounds: Counter,
    /// Rounds charged to a schedule without being simulated.
    pub padded_rounds: Counter,
    /// Messages sent.
    pub messages: Counter,
    /// Bits sent.
    pub bits: Counter,
    /// Distribution of messages sent per round.
    pub messages_per_round: Histogram,
    /// Distribution of bits sent per round.
    pub bits_per_round: Histogram,
    /// Channel-rounds whose load reached ≥ 90% of the bit budget.
    pub saturated_channels: Counter,
    /// Messages dropped by the background loss process.
    pub dropped_random: Counter,
    /// Messages dropped inside burst windows.
    pub dropped_burst: Counter,
    /// Messages dropped by link throttles.
    pub dropped_throttled: Counter,
    /// Messages dropped because the receiver was crashed.
    pub dropped_receiver_crashed: Counter,
}

impl SimMetrics {
    /// Registers the full simulator bundle under `{prefix}.…` in `registry`
    /// (idempotent: registering the same prefix twice shares the metrics).
    pub fn register(registry: &MetricsRegistry, prefix: &str) -> SimMetrics {
        let name = |metric: &str| format!("{prefix}.{metric}");
        SimMetrics {
            rounds: registry.counter(&name("rounds")),
            padded_rounds: registry.counter(&name("padded_rounds")),
            messages: registry.counter(&name("messages")),
            bits: registry.counter(&name("bits")),
            messages_per_round: registry.histogram(&name("messages_per_round")),
            bits_per_round: registry.histogram(&name("bits_per_round")),
            saturated_channels: registry.counter(&name("saturated_channels")),
            dropped_random: registry.counter(&name("dropped.random")),
            dropped_burst: registry.counter(&name("dropped.burst")),
            dropped_throttled: registry.counter(&name("dropped.throttled")),
            dropped_receiver_crashed: registry.counter(&name("dropped.receiver_crashed")),
        }
    }
}

impl Tracer for SimMetrics {
    fn record(&self, event: &TraceEvent) {
        match event {
            TraceEvent::RoundCompleted { messages, bits, .. } => {
                self.rounds.inc();
                self.messages.add(*messages);
                self.bits.add(*bits);
                self.messages_per_round.observe(*messages);
                self.bits_per_round.observe(*bits);
            }
            TraceEvent::PadRounds { rounds, .. } => self.padded_rounds.add(*rounds as u64),
            TraceEvent::MessageDropped { reason, .. } => match reason {
                DropReason::Random => self.dropped_random.inc(),
                DropReason::Burst => self.dropped_burst.inc(),
                DropReason::Throttled => self.dropped_throttled.inc(),
                DropReason::ReceiverCrashed => self.dropped_receiver_crashed.inc(),
            },
            TraceEvent::LinkThrottled { .. } => self.dropped_throttled.inc(),
            TraceEvent::ChannelSaturation { .. } => self.saturated_channels.inc(),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use DropReason::{Burst, Random, ReceiverCrashed};

    fn round(messages: u64, bits: u64) -> TraceEvent {
        TraceEvent::RoundCompleted {
            round: 1,
            messages,
            bits,
            max_channel_bits: 0,
        }
    }

    #[test]
    fn register_is_idempotent_across_bundles() {
        let registry = MetricsRegistry::new();
        let a = SimMetrics::register(&registry, "sim");
        let b = SimMetrics::register(&registry, "sim");
        a.record(&round(0, 0));
        b.record(&round(0, 0));
        assert_eq!(a.rounds.get(), 2);
        assert_eq!(registry.snapshot().flatten()["sim.rounds"], 2.0);
    }

    #[test]
    fn events_feed_their_instruments() {
        let registry = MetricsRegistry::new();
        let m = SimMetrics::register(&registry, "sim");
        for reason in [Random, Burst, Burst, ReceiverCrashed] {
            m.record(&TraceEvent::MessageDropped {
                round: 1,
                from: 0,
                to: 1,
                bits: 8,
                reason,
            });
        }
        m.record(&TraceEvent::LinkThrottled {
            round: 1,
            from: 0,
            to: 1,
            budget_bits: 4,
        });
        m.record(&TraceEvent::PhaseStart { name: "p".into() });
        m.record(&round(10, 300));
        m.record(&round(2, 40));
        m.record(&TraceEvent::PadRounds {
            rounds: 4,
            reason: "pad".into(),
        });
        m.record(&TraceEvent::ChannelSaturation {
            round: 1,
            from: 0,
            to: 1,
            bits: 30,
            budget_bits: 32,
        });
        let drops = [&m.dropped_random, &m.dropped_burst, &m.dropped_throttled];
        assert_eq!(drops.map(Counter::get), [1, 2, 1]);
        assert_eq!(m.dropped_receiver_crashed.get(), 1);
        assert_eq!((m.rounds.get(), m.padded_rounds.get()), (2, 4));
        assert_eq!((m.messages.get(), m.bits.get()), (12, 340));
        assert_eq!(m.saturated_channels.get(), 1);
        assert_eq!(m.bits_per_round.count(), 2);
        assert_eq!(m.bits_per_round.max(), 300);
    }
}
