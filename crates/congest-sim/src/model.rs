//! The CONGEST model: node context, message payloads, bandwidth, statistics.
//!
//! A network is a weighted graph `(G, w)`; each node is a processor with
//! unlimited local computation, each edge a channel of `B = O(log n)` bits
//! per round (Section 2.2 of the paper). Every node initially knows its own
//! identifier, its incident edges with weights, `n = |V|`, the maximum
//! weight `W`, and the identity of a pre-defined `leader` node (the paper's
//! Appendix A assumptions).

use crate::faults::FaultPlan;
use crate::telemetry::Telemetry;
use congest_graph::{NodeId, Weight};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// Data a message payload must expose so the simulator can charge bandwidth.
///
/// `size_bits` should be the length of a reasonable binary encoding of the
/// message — e.g. a node id costs `⌈log₂ n⌉` bits, a distance value costs its
/// bit length. The simulator enforces the per-channel per-round budget
/// against these sizes, which keeps algorithm implementations honest about
/// what fits in one CONGEST round.
pub trait Payload: Clone + fmt::Debug {
    /// Size of this message in bits.
    fn size_bits(&self) -> u32;
}

/// Bit length of an integer value (at least 1).
pub fn bit_len(v: u64) -> u32 {
    (64 - v.leading_zeros()).max(1)
}

impl Payload for u64 {
    fn size_bits(&self) -> u32 {
        bit_len(*self)
    }
}

impl Payload for u32 {
    fn size_bits(&self) -> u32 {
        bit_len(u64::from(*self))
    }
}

impl Payload for usize {
    fn size_bits(&self) -> u32 {
        bit_len(*self as u64)
    }
}

impl Payload for bool {
    fn size_bits(&self) -> u32 {
        1
    }
}

impl Payload for () {
    fn size_bits(&self) -> u32 {
        1
    }
}

impl<A: Payload, B: Payload> Payload for (A, B) {
    fn size_bits(&self) -> u32 {
        self.0.size_bits() + self.1.size_bits()
    }
}

impl<A: Payload, B: Payload, C: Payload> Payload for (A, B, C) {
    fn size_bits(&self) -> u32 {
        self.0.size_bits() + self.1.size_bits() + self.2.size_bits()
    }
}

impl<T: Payload> Payload for Option<T> {
    fn size_bits(&self) -> u32 {
        1 + self.as_ref().map_or(0, Payload::size_bits)
    }
}

/// Static knowledge available to a node at the start of an algorithm.
#[derive(Clone, Debug)]
pub struct NodeCtx {
    /// This node's identifier (`0..n`).
    pub id: NodeId,
    /// Number of nodes in the network.
    pub n: usize,
    /// Incident edges: `(neighbor id, edge weight)`, sorted by neighbor id.
    pub neighbors: Vec<(NodeId, Weight)>,
    /// The pre-defined leader node (Appendix A assumes one exists).
    pub leader: NodeId,
    /// The maximum edge weight `W` (known to all nodes, Appendix A).
    pub max_weight: Weight,
}

impl NodeCtx {
    /// `true` if this node is the leader.
    pub fn is_leader(&self) -> bool {
        self.id == self.leader
    }

    /// This node's degree.
    pub fn degree(&self) -> usize {
        self.neighbors.len()
    }

    /// The weight of the edge to `v`, if `v` is adjacent.
    pub fn weight_to(&self, v: NodeId) -> Option<Weight> {
        self.neighbor_pos(v).map(|i| self.neighbors[i].1)
    }

    /// The position of `v` in this node's sorted neighbor list, if adjacent.
    ///
    /// Positions index a contiguous `0..degree()` range, which lets the
    /// round engine keep O(1)-reset per-neighbor scratch tables instead of
    /// searching a per-destination list for every message.
    pub fn neighbor_pos(&self, v: NodeId) -> Option<usize> {
        self.neighbors.binary_search_by_key(&v, |&(u, _)| u).ok()
    }
}

/// Per-channel bandwidth in bits per round.
///
/// The CONGEST model allows `B = O(log n)`-bit messages; distances on graphs
/// with weights `≤ W` need `O(log(nW))` bits, which is still `O(log n)` for
/// polynomially bounded weights. [`Bandwidth::standard`] budgets one
/// `(node id, distance)` pair plus constant framing per round.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct Bandwidth {
    bits: u32,
}

impl Bandwidth {
    /// A custom budget of `bits` per channel per round.
    ///
    /// # Panics
    ///
    /// Panics if `bits == 0`.
    pub fn bits(bits: u32) -> Bandwidth {
        assert!(bits > 0, "bandwidth must be positive");
        Bandwidth { bits }
    }

    /// The standard CONGEST budget for an `n`-node network with maximum
    /// weight `w`: room for one node id, one distance value on the graph
    /// (`≤ n·w`), and 16 bits of framing.
    pub fn standard(n: usize, max_weight: Weight) -> Bandwidth {
        let id_bits = bit_len(n as u64);
        let dist_bits = bit_len((n as u64).saturating_mul(max_weight.max(1)));
        Bandwidth {
            bits: id_bits + dist_bits + 16,
        }
    }

    /// The budget in bits.
    pub fn get(self) -> u32 {
        self.bits
    }
}

/// What a node does at the end of a round.
///
/// [`Status::Running`] and [`Status::Done`] nodes are stepped in every
/// round; only [`Status::Sleep`] lets the round engine skip a node. See
/// DESIGN.md §"Sleeping nodes and jumped rounds".
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Status {
    /// Keep participating in subsequent rounds.
    Running,
    /// This node has finished the algorithm (it still relays nothing).
    Done,
    /// Skip this node until round `until` (1-based), or until a message is
    /// delivered to it, whichever comes first. The node counts as not done.
    ///
    /// A program may return this only when the rounds it skips would have
    /// been no-ops: being stepped in them, with an empty inbox, must neither
    /// change its state nor send. The run is then bit-identical to one that
    /// reports [`Status::Running`] instead. A wake at or before the next
    /// round means "step me next round", exactly like `Running`.
    Sleep(usize),
}

/// Default cap on [`RoundStats::message_log`] entries; see
/// [`SimConfig::message_log_cap`].
pub const DEFAULT_MESSAGE_LOG_CAP: usize = 4_000_000;

/// Simulator configuration.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Per-channel per-round bit budget.
    pub bandwidth: Bandwidth,
    /// If `true`, record every message in [`RoundStats::message_log`]
    /// (needed by the Server-model simulation of Lemma 4.1).
    pub log_messages: bool,
    /// Hard cap on executed rounds; exceeding it is an error.
    pub max_rounds: usize,
    /// Upper bound on entries recorded in [`RoundStats::message_log`]:
    /// once the log holds this many records, further messages are counted
    /// in the aggregate statistics but dropped from the log (detectable as
    /// `message_log.len() == message_log_cap`; the network also emits a
    /// one-time [`crate::telemetry::TraceEvent::MessageLogTruncated`] when
    /// the first record is lost). Keeps a forgotten `with_message_log` from
    /// ballooning memory on long runs.
    pub message_log_cap: usize,
    /// If `true`, the network maintains a streaming per-channel load
    /// histogram ([`crate::telemetry::BandwidthProfile`]) and emits a
    /// [`crate::telemetry::TraceEvent::ChannelProfile`] summary at the end
    /// of each run. Needs no message log.
    pub profile_channels: bool,
    /// Telemetry sink; disabled ([`Telemetry::off`]) by default, in which
    /// case no events are constructed at all. Registry counters come from
    /// attaching a [`crate::SimMetrics`] bundle here.
    pub telemetry: Telemetry,
    /// Fault-injection plan (see [`crate::faults`]); `None` (the default)
    /// runs the ideal lossless network. A plan with all knobs at zero is
    /// behaviorally identical to `None`. Shared behind an [`Arc`] so that
    /// cloning a config between algorithm phases never copies the plan's
    /// link/crash/burst tables.
    pub faults: Option<Arc<FaultPlan>>,
}

impl SimConfig {
    /// Standard configuration for a network of `n` nodes with max weight `w`.
    pub fn standard(n: usize, max_weight: Weight) -> SimConfig {
        SimConfig {
            bandwidth: Bandwidth::standard(n, max_weight),
            log_messages: false,
            max_rounds: 10_000_000,
            message_log_cap: DEFAULT_MESSAGE_LOG_CAP,
            profile_channels: false,
            telemetry: Telemetry::off(),
            faults: None,
        }
    }

    /// Enables message logging (builder style).
    pub fn with_message_log(mut self) -> SimConfig {
        self.log_messages = true;
        self
    }

    /// Sets the round cap (builder style).
    pub fn with_max_rounds(mut self, max_rounds: usize) -> SimConfig {
        self.max_rounds = max_rounds;
        self
    }

    /// Sets the message-log entry cap (builder style); see
    /// [`SimConfig::message_log_cap`].
    pub fn with_message_log_cap(mut self, cap: usize) -> SimConfig {
        self.message_log_cap = cap;
        self
    }

    /// Enables the streaming per-channel bandwidth profile (builder style).
    pub fn with_channel_profile(mut self) -> SimConfig {
        self.profile_channels = true;
        self
    }

    /// Attaches a telemetry sink (builder style).
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> SimConfig {
        self.telemetry = telemetry;
        self
    }

    /// Attaches a fault-injection plan (builder style); see [`crate::faults`].
    pub fn with_faults(mut self, plan: FaultPlan) -> SimConfig {
        self.faults = Some(Arc::new(plan));
        self
    }
}

/// One logged message (when [`SimConfig::log_messages`] is set).
#[derive(Copy, Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct MessageRecord {
    /// Round in which the message was delivered (1-based).
    pub round: usize,
    /// Sender.
    pub from: NodeId,
    /// Receiver.
    pub to: NodeId,
    /// Charged size in bits.
    pub bits: u32,
}

/// Fault overhead, accounted separately from the algorithmic counters of
/// [`RoundStats`].
///
/// The paper's round counts (e.g. Theorem 1.1's
/// `Õ(min{n^{9/10} D^{3/10}, n})`) assume a lossless network; this budget
/// keeps those headline numbers comparable under faults by tracking what
/// the fault model cost *on top*: messages the network discarded and
/// rounds nodes spent crashed. All fields are zero for a fault-free run,
/// so `RoundStats` equality with the ideal path is preserved exactly.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default, Serialize, Deserialize)]
pub struct ResilienceBudget {
    /// Messages the fault model discarded (any [`crate::faults::DropReason`]).
    pub dropped_messages: u64,
    /// Bits of discarded messages.
    pub dropped_bits: u64,
    /// Messages discarded specifically by link throttles.
    pub throttled_messages: u64,
    /// Total `(node, round)` pairs in which a node was crashed.
    pub crashed_node_rounds: u64,
}

impl ResilienceBudget {
    /// `true` if no fault overhead was recorded.
    pub fn is_zero(&self) -> bool {
        *self == ResilienceBudget::default()
    }

    /// Accumulates another phase's overhead into this one.
    pub fn absorb(&mut self, other: &ResilienceBudget) {
        self.dropped_messages += other.dropped_messages;
        self.dropped_bits += other.dropped_bits;
        self.throttled_messages += other.throttled_messages;
        self.crashed_node_rounds += other.crashed_node_rounds;
    }
}

/// Execution statistics of a simulation (or of several, accumulated).
#[derive(Clone, PartialEq, Eq, Debug, Default, Serialize, Deserialize)]
pub struct RoundStats {
    /// Rounds executed.
    pub rounds: usize,
    /// Total messages delivered.
    pub messages: u64,
    /// Total bits delivered.
    pub bits: u64,
    /// The largest per-channel bit load observed in any single round.
    pub max_channel_bits: u32,
    /// Fault overhead (all zero without faults); see
    /// [`ResilienceBudget`].
    pub resilience: ResilienceBudget,
    /// Individual messages (empty unless logging was enabled).
    ///
    /// Truncated at [`SimConfig::message_log_cap`] entries: the aggregate
    /// counters above keep counting, but no further records are appended.
    /// A log whose length equals the cap should be assumed incomplete.
    pub message_log: Vec<MessageRecord>,
}

impl RoundStats {
    /// Accumulates another phase's statistics into this one (rounds add up,
    /// as when algorithm phases run back to back).
    pub fn absorb(&mut self, other: &RoundStats) {
        self.rounds += other.rounds;
        self.messages += other.messages;
        self.bits += other.bits;
        self.max_channel_bits = self.max_channel_bits.max(other.max_channel_bits);
        self.resilience.absorb(&other.resilience);
        self.message_log.extend(other.message_log.iter().copied());
    }
}

impl fmt::Display for RoundStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} rounds, {} messages, {} bits (peak {} bits/channel/round)",
            self.rounds, self.messages, self.bits, self.max_channel_bits
        )?;
        if !self.resilience.is_zero() {
            write!(
                f,
                "; faults: {} dropped ({} bits), {} crashed node-rounds",
                self.resilience.dropped_messages,
                self.resilience.dropped_bits,
                self.resilience.crashed_node_rounds
            )?;
        }
        Ok(())
    }
}

/// Errors raised by the simulator.
///
/// Serializes to externally tagged JSON (e.g. for
/// [`crate::telemetry::TraceEvent::SimFailed`] trace lines).
#[derive(Clone, PartialEq, Eq, Debug, Serialize)]
pub enum SimError {
    /// A node sent to a non-neighbor.
    NotAdjacent {
        /// Sender.
        from: NodeId,
        /// Intended receiver.
        to: NodeId,
    },
    /// The per-channel bit budget was exceeded in one round.
    BandwidthExceeded {
        /// Sender.
        from: NodeId,
        /// Receiver.
        to: NodeId,
        /// Round (1-based).
        round: usize,
        /// Bits the sender tried to push through the channel this round.
        attempted_bits: u32,
        /// The budget.
        budget_bits: u32,
    },
    /// `max_rounds` elapsed without quiescence.
    ///
    /// [`crate::Network::stats`] still reflects every round that executed
    /// before the cap fired, so partial statistics survive the failure.
    RoundLimitExceeded {
        /// The cap that was hit.
        max_rounds: usize,
        /// Rounds that actually executed before the cap fired.
        rounds_executed: usize,
    },
    /// The network quiesced, but a node whose output the phase needs never
    /// reached its final state — e.g. the aggregation root of a
    /// [`crate::primitives::converge_cast`] was inside a
    /// [`crate::faults::CrashWindow`] when the run ended, so it holds no
    /// result to return. Only fault plans can produce this: on a lossless
    /// network every phase either completes or hits another error.
    PhaseIncomplete {
        /// The phase name (as passed to [`crate::run_phase`]).
        phase: &'static str,
        /// The node whose output was required but missing.
        node: NodeId,
    },
    /// A randomized phase hit its low-probability failure on every attempt
    /// it was allowed — e.g. Algorithm 3's per-logical-round congestion
    /// bound, retried with fresh random delays.
    CongestionPersisted {
        /// The phase that kept failing.
        phase: &'static str,
        /// How many attempts were made (each one's rounds are charged).
        attempts: usize,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::NotAdjacent { from, to } => {
                write!(f, "node {from} attempted to send to non-neighbor {to}")
            }
            SimError::BandwidthExceeded { from, to, round, attempted_bits, budget_bits } => write!(
                f,
                "channel {from}->{to} overloaded in round {round}: {attempted_bits} bits > budget {budget_bits}"
            ),
            SimError::RoundLimitExceeded {
                max_rounds,
                rounds_executed,
            } => {
                write!(
                    f,
                    "simulation did not finish within {max_rounds} rounds ({rounds_executed} executed)"
                )
            }
            SimError::PhaseIncomplete { phase, node } => {
                write!(
                    f,
                    "phase '{phase}' quiesced without node {node} reaching its result (crashed under faults?)"
                )
            }
            SimError::CongestionPersisted { phase, attempts } => {
                write!(
                    f,
                    "phase '{phase}' exceeded its congestion bound on all {attempts} attempts"
                )
            }
        }
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bit_len_values() {
        assert_eq!(bit_len(0), 1);
        assert_eq!(bit_len(1), 1);
        assert_eq!(bit_len(2), 2);
        assert_eq!(bit_len(255), 8);
        assert_eq!(bit_len(256), 9);
    }

    #[test]
    fn payload_sizes() {
        assert_eq!(7u64.size_bits(), 3);
        assert_eq!((3u64, 5u64).size_bits(), 2 + 3);
        assert_eq!(Some(1u64).size_bits(), 2);
        assert_eq!(None::<u64>.size_bits(), 1);
        assert_eq!(true.size_bits(), 1);
    }

    #[test]
    fn standard_bandwidth_is_logarithmic() {
        let b1 = Bandwidth::standard(1 << 10, 1);
        let b2 = Bandwidth::standard(1 << 20, 1);
        assert!(b2.get() > b1.get());
        assert!(b2.get() < 100, "still O(log n)");
    }

    #[test]
    fn stats_absorb_accumulates() {
        let mut a = RoundStats {
            rounds: 5,
            messages: 10,
            bits: 100,
            max_channel_bits: 8,
            resilience: ResilienceBudget::default(),
            message_log: vec![],
        };
        let b = RoundStats {
            rounds: 3,
            messages: 1,
            bits: 9,
            max_channel_bits: 12,
            resilience: ResilienceBudget {
                dropped_messages: 2,
                dropped_bits: 16,
                ..ResilienceBudget::default()
            },
            message_log: vec![],
        };
        a.absorb(&b);
        assert_eq!(a.rounds, 8);
        assert_eq!(a.messages, 11);
        assert_eq!(a.bits, 109);
        assert_eq!(a.max_channel_bits, 12);
        assert_eq!(a.resilience.dropped_messages, 2);
        assert_eq!(a.resilience.dropped_bits, 16);
        assert!(!a.resilience.is_zero());
    }

    #[test]
    fn ctx_weight_lookup() {
        let ctx = NodeCtx {
            id: 0,
            n: 3,
            neighbors: vec![(1, 4), (2, 9)],
            leader: 0,
            max_weight: 9,
        };
        assert!(ctx.is_leader());
        assert_eq!(ctx.degree(), 2);
        assert_eq!(ctx.weight_to(2), Some(9));
        assert_eq!(ctx.weight_to(0), None);
    }

    #[test]
    fn errors_display() {
        let e = SimError::NotAdjacent { from: 1, to: 2 };
        assert!(e.to_string().contains("non-neighbor"));
        let e = SimError::RoundLimitExceeded {
            max_rounds: 10,
            rounds_executed: 10,
        };
        assert!(e.to_string().contains("within 10 rounds"));
        assert!(e.to_string().contains("10 executed"));
        let e = SimError::CongestionPersisted {
            phase: "multi_source",
            attempts: 5,
        };
        assert_eq!(
            e.to_string(),
            "phase 'multi_source' exceeded its congestion bound on all 5 attempts"
        );
    }

    #[test]
    fn stats_display_mentions_faults_only_when_present() {
        let mut stats = RoundStats {
            rounds: 2,
            messages: 3,
            bits: 12,
            ..RoundStats::default()
        };
        assert!(!stats.to_string().contains("faults"));
        stats.resilience.dropped_messages = 1;
        assert!(stats.to_string().contains("faults: 1 dropped"));
    }
}
