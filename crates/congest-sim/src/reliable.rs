//! Reliable-delivery primitives: ack/retransmit wrappers over lossy links.
//!
//! The [`crate::faults`] module makes links lossy; this module masks the
//! losses. [`Reliable`] wraps any [`NodeProgram`], framing each of its
//! messages as a sequence-numbered data frame that is acknowledged by the
//! receiver and retransmitted by the sender — bounded retries with
//! exponential backoff in rounds — while duplicates are filtered out, so
//! the inner program observes at-most-once delivery that is exactly-once
//! unless the retry budget is exhausted.
//!
//! # Accounting
//!
//! Retransmissions and acks are *recovery* traffic, not algorithm traffic.
//! [`run_reliable_phase`] folds each node's [`ReliableStats`] into the
//! run's [`RoundStats::resilience`](crate::RoundStats) budget so the
//! headline `rounds`/`messages` numbers remain comparable to the paper's
//! lossless accounting (the extra rounds a lossy run takes are visible by
//! comparing against a fault-free run of the same phase).
//!
//! # Flow control and bandwidth
//!
//! The wrapper sends at most **one data frame per neighbor per round**
//! (new or retransmitted; further frames queue), and a receiver acks at
//! most what it received, so a channel carries at most one data frame plus
//! one ack per round. Budget that with [`reliable_bandwidth`], which pads
//! the inner budget for framing (tag + sequence number) and the reverse
//! ack traffic.
//!
//! # Caveat: round-schedule-driven programs
//!
//! The inner program still sees real network round numbers. Programs that
//! hard-code a round schedule (e.g. pipelined convergecasts that expect
//! hop `i` to fire in round `i`) will observe *later* rounds under
//! retransmission delays; the wrapper suits event-driven programs that
//! react to message arrival, like flooding and iterative relaxation.

use crate::model::{bit_len, Bandwidth, NodeCtx, Payload, RoundStats, SimConfig, SimError, Status};
use crate::network::{Mailbox, Network, NodeProgram, Quality};
use crate::telemetry::TraceEvent;
use congest_graph::{NodeId, WeightedGraph};
use serde::Serialize;
use std::collections::HashSet;

/// Retry policy of the reliable layer.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Serialize)]
pub struct ReliablePolicy {
    /// Retransmissions allowed per frame after the initial send; a frame
    /// still unacknowledged after the last retry is abandoned (counted in
    /// [`ReliableStats::gave_up`]).
    pub max_retries: u32,
    /// Base of the exponential backoff: after the `a`-th send of a frame in
    /// round `r`, the next retry waits until round
    /// `r + 1 + base_backoff · 2^(a-1)` (an ack needs two rounds to come
    /// back, so `base_backoff = 1` retries at the earliest useful round).
    pub base_backoff: usize,
}

impl Default for ReliablePolicy {
    fn default() -> ReliablePolicy {
        ReliablePolicy {
            max_retries: 4,
            base_backoff: 1,
        }
    }
}

/// Per-node counters of the reliable layer's recovery traffic.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default, Serialize)]
pub struct ReliableStats {
    /// Data frames sent for the first time.
    pub data_sent: u64,
    /// Data frames re-sent after an ack timeout.
    pub retransmissions: u64,
    /// Acknowledgement frames sent.
    pub acks_sent: u64,
    /// Frames abandoned after exhausting the retry budget.
    pub gave_up: u64,
    /// Duplicate data frames the dedup filter discarded (a duplicate means
    /// the frame got through but its ack was lost, so the sender re-sent).
    pub duplicates_filtered: u64,
    /// Rounds this node actually waited in exponential backoff before its
    /// retransmissions (the realized delay, not the scheduled one: frames
    /// acked before their retry fires contribute nothing).
    pub backoff_rounds: u64,
}

/// Wire frame of the reliable layer.
#[derive(Clone, Debug)]
pub enum ReliableMsg<M> {
    /// An application message with its per-sender sequence number.
    Data {
        /// Sender-assigned sequence number (deduplication key).
        seq: u64,
        /// The wrapped application message.
        msg: M,
    },
    /// Acknowledges receipt of the sender's frame `seq`.
    Ack {
        /// The acknowledged sequence number.
        seq: u64,
    },
}

impl<M: Payload> Payload for ReliableMsg<M> {
    fn size_bits(&self) -> u32 {
        match self {
            ReliableMsg::Data { seq, msg } => 2 + bit_len(*seq) + msg.size_bits(),
            ReliableMsg::Ack { seq } => 2 + bit_len(*seq),
        }
    }
}

/// One unacknowledged outbound frame.
#[derive(Clone, Debug)]
struct Frame<M> {
    to: NodeId,
    seq: u64,
    msg: M,
    /// Sends so far (0 = not yet sent).
    attempts: u32,
    /// Round from which the frame is eligible to (re)send.
    ready_at: usize,
}

/// Wraps an inner [`NodeProgram`] with ack/retransmit delivery (see the
/// module docs). Output is the inner output paired with this node's
/// [`ReliableStats`].
#[derive(Debug)]
pub struct Reliable<P: NodeProgram> {
    inner: P,
    policy: ReliablePolicy,
    next_seq: u64,
    frames: Vec<Frame<P::Msg>>,
    /// `(sender, seq)` pairs already delivered to the inner program.
    seen: HashSet<(NodeId, u64)>,
    /// Acks owed, queued for the next send opportunity.
    acks: Vec<(NodeId, u64)>,
    inner_status: Status,
    stats: ReliableStats,
    /// The inner program's persistent outbox, drained in place each round.
    inner_mb: Mailbox<P::Msg>,
    /// Scratch for moving inner sends into frames (reused across rounds).
    inner_out: Vec<(NodeId, P::Msg)>,
    /// Scratch inbox of deduplicated inner messages (reused across rounds).
    inner_inbox: Vec<(NodeId, P::Msg)>,
    /// Neighbors already sent a data frame this round (reused scratch).
    sent_to: Vec<NodeId>,
}

impl<P: NodeProgram> Reliable<P> {
    /// Wraps `inner` under the given retry `policy`.
    pub fn new(inner: P, policy: ReliablePolicy) -> Reliable<P> {
        Reliable {
            inner,
            policy,
            next_seq: 0,
            frames: Vec::new(),
            seen: HashSet::new(),
            acks: Vec::new(),
            inner_status: Status::Running,
            stats: ReliableStats::default(),
            inner_mb: Mailbox::new(),
            inner_out: Vec::new(),
            inner_inbox: Vec::new(),
            sent_to: Vec::new(),
        }
    }

    /// Queues `msg` for guaranteed-effort delivery to `to`: it will be
    /// framed, acknowledged, and retransmitted per the policy.
    pub fn reliable_send(&mut self, to: NodeId, msg: P::Msg) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.frames.push(Frame {
            to,
            seq,
            msg,
            attempts: 0,
            ready_at: 0,
        });
    }

    /// Queues `msg` for guaranteed-effort delivery to every neighbor.
    pub fn reliable_broadcast(&mut self, ctx: &NodeCtx, msg: P::Msg) {
        if let Some((&(last, _), rest)) = ctx.neighbors.split_last() {
            for &(v, _) in rest {
                self.reliable_send(v, msg.clone());
            }
            self.reliable_send(last, msg);
        }
    }

    /// This node's recovery-traffic counters so far.
    pub fn reliable_stats(&self) -> ReliableStats {
        self.stats
    }

    /// Moves the inner program's outgoing messages (drained from its
    /// persistent outbox) into reliable frames.
    fn enqueue_inner(&mut self) {
        // Borrow dance: `reliable_send` needs `&mut self`, so the scratch
        // buffer is taken out (keeping its capacity) and put back after.
        let mut out = std::mem::take(&mut self.inner_out);
        self.inner_mb.drain_into(&mut out);
        for (to, msg) in out.drain(..) {
            self.reliable_send(to, msg);
        }
        self.inner_out = out;
    }

    /// Sends queued acks plus at most one due data frame per neighbor;
    /// `round` is the current round (0 during `start`).
    fn pump(&mut self, round: usize, mb: &mut Mailbox<ReliableMsg<P::Msg>>) {
        for (to, seq) in self.acks.drain(..) {
            self.stats.acks_sent += 1;
            mb.send(to, ReliableMsg::Ack { seq });
        }
        self.sent_to.clear();
        let mut i = 0;
        while i < self.frames.len() {
            let due =
                self.frames[i].ready_at <= round && !self.sent_to.contains(&self.frames[i].to);
            if !due {
                i += 1;
                continue;
            }
            if self.frames[i].attempts > self.policy.max_retries {
                self.stats.gave_up += 1;
                self.frames.swap_remove(i);
                continue;
            }
            let frame = &mut self.frames[i];
            if frame.attempts == 0 {
                self.stats.data_sent += 1;
            } else {
                self.stats.retransmissions += 1;
                // The backoff scheduled at the previous send has now fully
                // elapsed — that's realized waiting, so count it.
                self.stats.backoff_rounds +=
                    (self.policy.base_backoff << (frame.attempts - 1)) as u64;
            }
            frame.attempts += 1;
            // Ack round-trip takes two rounds; back off exponentially past it.
            frame.ready_at = round + 1 + (self.policy.base_backoff << (frame.attempts - 1));
            self.sent_to.push(frame.to);
            mb.send(
                frame.to,
                ReliableMsg::Data {
                    seq: frame.seq,
                    msg: frame.msg.clone(),
                },
            );
            i += 1;
        }
    }
}

impl<P: NodeProgram> NodeProgram for Reliable<P> {
    type Msg = ReliableMsg<P::Msg>;
    type Output = (P::Output, ReliableStats);

    fn start(&mut self, ctx: &NodeCtx, mb: &mut Mailbox<Self::Msg>) {
        self.inner.start(ctx, &mut self.inner_mb);
        self.enqueue_inner();
        self.pump(0, mb);
    }

    fn round(
        &mut self,
        ctx: &NodeCtx,
        round: usize,
        inbox: &[(NodeId, Self::Msg)],
        mb: &mut Mailbox<Self::Msg>,
    ) -> Status {
        self.inner_inbox.clear();
        for (from, frame) in inbox {
            match frame {
                ReliableMsg::Ack { seq } => {
                    self.frames.retain(|f| !(f.to == *from && f.seq == *seq));
                }
                ReliableMsg::Data { seq, msg } => {
                    // Always (re-)ack — the previous ack may have been lost —
                    // but deliver to the inner program only once.
                    self.acks.push((*from, *seq));
                    if self.seen.insert((*from, *seq)) {
                        self.inner_inbox.push((*from, msg.clone()));
                    } else {
                        self.stats.duplicates_filtered += 1;
                    }
                }
            }
        }
        self.inner_status = self
            .inner
            .round(ctx, round, &self.inner_inbox, &mut self.inner_mb);
        self.enqueue_inner();
        self.pump(round, mb);
        if self.inner_status == Status::Done && self.frames.is_empty() && self.acks.is_empty() {
            Status::Done
        } else {
            Status::Running
        }
    }

    fn finish(self, ctx: &NodeCtx) -> Self::Output {
        (self.inner.finish(ctx), self.stats)
    }
}

/// A per-channel budget that fits the reliable layer's framing on top of an
/// inner budget: one data frame (tag + sequence number + inner message)
/// plus one returning ack per round.
pub fn reliable_bandwidth(inner: Bandwidth) -> Bandwidth {
    // 2 tag bits and up to 64 sequence bits per frame, twice (data + ack).
    Bandwidth::bits(inner.get() + 2 * (2 + 64))
}

/// What [`run_reliable_phase`] returns: each node's quality-tagged output,
/// plus the run's statistics.
pub type ReliableRun<O> = (Vec<(O, Quality)>, RoundStats);

/// Runs `make`'s program on every node under the reliable layer, inside a
/// telemetry phase span, and returns quality-tagged outputs plus the run's
/// statistics with every node's recovery traffic folded into
/// [`RoundStats::resilience`](crate::RoundStats).
///
/// The configured bandwidth is widened with [`reliable_bandwidth`] to make
/// room for framing and acks.
///
/// # Errors
///
/// Same as [`Network::run`].
pub fn run_reliable_phase<P: NodeProgram>(
    graph: &WeightedGraph,
    leader: NodeId,
    config: &SimConfig,
    name: &str,
    policy: ReliablePolicy,
    mut make: impl FnMut(NodeId, &NodeCtx) -> P,
) -> Result<ReliableRun<P::Output>, SimError> {
    let telemetry = config.telemetry.clone();
    let span = telemetry.span(name);
    let mut config = config.clone();
    config.bandwidth = reliable_bandwidth(config.bandwidth);
    let mut net = Network::new(graph, leader, config, |v, c| {
        Reliable::new(make(v, c), policy)
    });
    let tagged = match net.run_with_quality() {
        Ok(tagged) => tagged,
        Err(err) => {
            telemetry.emit_with(|| TraceEvent::SimFailed { error: err.clone() });
            span.end();
            return Err(err);
        }
    };
    let mut stats = net.stats().clone();
    let mut outputs = Vec::with_capacity(tagged.len());
    for ((out, node_stats), quality) in tagged {
        stats.resilience.retransmissions += node_stats.retransmissions;
        stats.resilience.ack_messages += node_stats.acks_sent;
        stats.resilience.gave_up += node_stats.gave_up;
        outputs.push((out, quality));
    }
    span.end();
    Ok((outputs, stats))
}

/// Convenience: a zero-fault [`SimConfig`] clone of `config` for measuring
/// the fault-free baseline of the same phase (used by degradation
/// experiments to compute rounds overhead).
pub fn without_faults(mut config: SimConfig) -> SimConfig {
    config.faults = None;
    config
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultPlan;
    use congest_graph::generators;

    /// Leader floods a hop counter; every node records the first value it
    /// hears. Event-driven (tolerates delays), with a deadline so nodes a
    /// fault permanently cut off still halt.
    struct Flood {
        heard: Option<u64>,
        deadline: usize,
    }

    impl Flood {
        fn fresh() -> Flood {
            Flood {
                heard: None,
                deadline: 500,
            }
        }
    }

    impl NodeProgram for Flood {
        type Msg = u64;
        type Output = Option<u64>;

        fn start(&mut self, ctx: &NodeCtx, mb: &mut Mailbox<u64>) {
            if ctx.is_leader() {
                self.heard = Some(0);
                mb.broadcast(ctx, 1);
            }
        }

        fn round(
            &mut self,
            ctx: &NodeCtx,
            round: usize,
            inbox: &[(NodeId, u64)],
            mb: &mut Mailbox<u64>,
        ) -> Status {
            for &(_, hops) in inbox {
                if self.heard.is_none() {
                    self.heard = Some(hops);
                    mb.broadcast(ctx, hops + 1);
                }
            }
            if self.heard.is_some() || round >= self.deadline {
                Status::Done
            } else {
                Status::Running
            }
        }

        fn finish(self, _ctx: &NodeCtx) -> Option<u64> {
            self.heard
        }
    }

    #[test]
    fn lossless_reliable_flood_delivers_everything() {
        let g = generators::grid(3, 3, 1);
        let cfg = SimConfig::standard(9, 1).with_max_rounds(2_000);
        let (out, stats) =
            run_reliable_phase(&g, 0, &cfg, "flood", ReliablePolicy::default(), |_, _| {
                Flood::fresh()
            })
            .unwrap();
        assert!(out.iter().all(|(h, q)| h.is_some() && q.is_exact()));
        assert_eq!(stats.resilience.retransmissions, 0, "nothing to recover");
        assert!(stats.resilience.ack_messages > 0, "acks still flow");
        assert_eq!(stats.resilience.gave_up, 0);
    }

    #[test]
    fn reliable_flood_masks_heavy_loss() {
        // 30% loss on every link: plain flooding would strand nodes, the
        // reliable layer retransmits until the token gets through.
        let g = generators::grid(3, 3, 1);
        let cfg = SimConfig::standard(9, 1)
            .with_max_rounds(2_000)
            .with_faults(FaultPlan::new(20_240_805).with_drop_rate(0.3));
        let (out, stats) =
            run_reliable_phase(&g, 0, &cfg, "flood", ReliablePolicy::default(), |_, _| {
                Flood::fresh()
            })
            .unwrap();
        assert!(
            out.iter().all(|(h, _)| h.is_some()),
            "every node heard the token despite 30% loss: {out:?}"
        );
        assert!(
            stats.resilience.retransmissions > 0,
            "losses were recovered"
        );
        assert!(stats.resilience.dropped_messages > 0);
    }

    #[test]
    fn retry_budget_gives_up_on_a_dead_link() {
        // The 1→2 link drops everything: node 1's frames to 2 are abandoned
        // after max_retries, and the run still terminates.
        let g = generators::path(3, 1);
        let cfg = SimConfig::standard(3, 1)
            .with_max_rounds(2_000)
            .with_faults(FaultPlan::new(7).with_link_drop(1, 2, 1.0));
        let (out, stats) =
            run_reliable_phase(&g, 0, &cfg, "flood", ReliablePolicy::default(), |_, _| {
                Flood::fresh()
            })
            .unwrap();
        assert_eq!(out[2].0, None, "node 2 is unreachable");
        assert!(!out[2].1.is_exact());
        assert!(stats.resilience.gave_up > 0);
        assert!(
            stats.resilience.retransmissions >= u64::from(ReliablePolicy::default().max_retries)
        );
    }

    #[test]
    fn metrics_bundle_sees_drops_and_recovery_traffic() {
        use crate::metrics::SimMetrics;
        use crate::telemetry::Telemetry;
        use std::sync::Arc;
        use wdr_metrics::MetricsRegistry;

        let registry = MetricsRegistry::new();
        let metrics = Arc::new(SimMetrics::register(&registry, "sim"));
        let g = generators::grid(3, 3, 1);
        let cfg = SimConfig::standard(9, 1)
            .with_max_rounds(2_000)
            .with_faults(FaultPlan::new(20_240_805).with_drop_rate(0.3))
            .with_telemetry(Telemetry::new(metrics.clone()));
        let (_, stats) =
            run_reliable_phase(&g, 0, &cfg, "flood", ReliablePolicy::default(), |_, _| {
                Flood::fresh()
            })
            .unwrap();

        // The bundle agrees with the per-run statistics exactly.
        assert_eq!(metrics.rounds.get(), stats.rounds as u64);
        assert_eq!(metrics.messages.get(), stats.messages);
        assert_eq!(metrics.bits.get(), stats.bits);
        assert_eq!(
            metrics.dropped_random.get(),
            stats.resilience.dropped_messages,
            "every loss here comes from the background drop process"
        );
        // Recovery traffic is accounted in the run's resilience budget.
        assert!(
            stats.resilience.retransmissions > 0,
            "losses were recovered"
        );
        assert!(stats.resilience.ack_messages > 0);
        assert_eq!(metrics.bits_per_round.count(), stats.rounds as u64);
        assert!(metrics.bits_per_round.max() <= stats.bits);

        // The per-node counters no event carries stay on each node's output.
        let bandwidth = reliable_bandwidth(cfg.bandwidth);
        let raw = SimConfig { bandwidth, ..cfg };
        let policy = ReliablePolicy::default();
        let mut net = Network::new(&g, 0, raw, |_, _| Reliable::new(Flood::fresh(), policy));
        let per_node: Vec<ReliableStats> = net.run().unwrap().into_iter().map(|o| o.1).collect();
        let total = |f: fn(&ReliableStats) -> u64| per_node.iter().map(f).sum::<u64>();
        assert_eq!(
            total(|s| s.retransmissions),
            stats.resilience.retransmissions
        );
        assert!(
            total(|s| s.backoff_rounds) >= total(|s| s.retransmissions),
            "each retransmission waited at least one backoff round"
        );
    }

    #[test]
    fn backoff_schedule_is_exponential() {
        let policy = ReliablePolicy {
            max_retries: 3,
            base_backoff: 1,
        };
        // After the a-th send in round r: ready at r + 1 + 2^(a-1).
        let mut frame = Frame {
            to: 1,
            seq: 0,
            msg: 0u64,
            attempts: 0,
            ready_at: 0,
        };
        let mut schedule = Vec::new();
        let mut round = 0;
        for _ in 0..3 {
            frame.attempts += 1;
            frame.ready_at = round + 1 + (policy.base_backoff << (frame.attempts - 1));
            schedule.push(frame.ready_at);
            round = frame.ready_at;
        }
        assert_eq!(schedule, vec![2, 5, 10]);
    }
}
