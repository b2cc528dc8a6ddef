//! The synchronous round-by-round network runner.

use crate::faults::{DropReason, FaultOracle, FaultPlan};
use crate::model::{MessageRecord, NodeCtx, Payload, RoundStats, SimConfig, SimError, Status};
use crate::telemetry::{BandwidthProfile, TraceEvent};
use congest_graph::{NodeId, WeightedGraph};

/// A per-node algorithm.
///
/// One instance runs at every node. In each round the simulator delivers the
/// messages sent to this node in the previous round, and the program replies
/// with messages for the next round via [`Mailbox`].
///
/// Local computation is free (the CONGEST model only counts communication).
pub trait NodeProgram {
    /// Message type exchanged by this program.
    type Msg: Payload;
    /// Per-node result extracted when the run finishes.
    type Output;

    /// Called once before round 1; may already send messages.
    fn start(&mut self, ctx: &NodeCtx, mailbox: &mut Mailbox<Self::Msg>);

    /// Called with the messages received this round (`(sender, message)`
    /// pairs) in every round the node is stepped: every round, unless it
    /// last returned [`Status::Sleep`]. Returns the node's status.
    fn round(
        &mut self,
        ctx: &NodeCtx,
        round: usize,
        inbox: &[(NodeId, Self::Msg)],
        mailbox: &mut Mailbox<Self::Msg>,
    ) -> Status;

    /// Extracts the node's output after the network has quiesced.
    fn finish(self, ctx: &NodeCtx) -> Self::Output;
}

/// Collects the messages a node sends in one round.
///
/// The network owns one mailbox per node for the whole run and drains it in
/// place every round, so a steady-state round performs no allocation — see
/// DESIGN.md §"Round engine".
#[derive(Debug)]
pub struct Mailbox<M> {
    /// Queued sends `(to, pos, msg)`: `pos` is `to`'s position in the
    /// sender's neighbor list, or [`UNKNOWN_POS`] for a [`Mailbox::send`],
    /// whose receiver the merge looks up (and rejects if not adjacent).
    out: Vec<(NodeId, u32, M)>,
}

/// The position of a [`Mailbox::send`] receiver, not yet looked up.
const UNKNOWN_POS: u32 = u32::MAX;

impl<M: Payload> Mailbox<M> {
    pub(crate) fn with_capacity(capacity: usize) -> Mailbox<M> {
        Mailbox {
            out: Vec::with_capacity(capacity),
        }
    }

    /// Queues `msg` for neighbor `to` (delivered next round).
    pub fn send(&mut self, to: NodeId, msg: M) {
        self.out.push((to, UNKNOWN_POS, msg));
    }

    /// Queues `msg` for every neighbor (cloning once per neighbor except
    /// the last, which receives the original). Each copy carries its
    /// receiver's neighbor position, so the merge need not search for it.
    pub fn broadcast(&mut self, ctx: &NodeCtx, msg: M) {
        if let Some((&(last, _), rest)) = ctx.neighbors.split_last() {
            for (pos, &(v, _)) in rest.iter().enumerate() {
                self.out.push((v, pos as u32, msg.clone()));
            }
            self.out.push((last, rest.len() as u32, msg));
        }
    }
}

/// A synchronous CONGEST network executing one [`NodeProgram`] per node.
///
/// # Examples
///
/// Flood a token from the leader and count rounds:
///
/// ```
/// use congest_sim::{Mailbox, Network, NodeCtx, NodeProgram, SimConfig, Status};
/// use congest_graph::{generators, NodeId};
///
/// struct Flood { seen: bool }
/// impl NodeProgram for Flood {
///     type Msg = ();
///     type Output = bool;
///     fn start(&mut self, ctx: &NodeCtx, mb: &mut Mailbox<()>) {
///         if ctx.is_leader() {
///             self.seen = true;
///             mb.broadcast(ctx, ());
///         }
///     }
///     fn round(&mut self, ctx: &NodeCtx, _r: usize, inbox: &[(NodeId, ())], mb: &mut Mailbox<()>) -> Status {
///         if !inbox.is_empty() && !self.seen {
///             self.seen = true;
///             mb.broadcast(ctx, ());
///         }
///         if self.seen { Status::Done } else { Status::Running }
///     }
///     fn finish(self, _ctx: &NodeCtx) -> bool { self.seen }
/// }
///
/// let g = generators::path(5, 1);
/// let mut net = Network::new(&g, 0, SimConfig::standard(5, 1), |_, _| Flood { seen: false });
/// let out = net.run()?;
/// assert!(out.iter().all(|&b| b));
/// assert_eq!(net.stats().rounds, 5); // token reaches node 4 in round 4, node halts detecting quiescence next round
/// # Ok::<(), congest_sim::SimError>(())
/// ```
pub struct Network<P: NodeProgram> {
    ctxs: Vec<NodeCtx>,
    programs: Vec<P>,
    status: Vec<Status>,
    /// Nodes whose last status is [`Status::Done`], one bit per node.
    done: Vec<u64>,
    /// Nodes stepped next round, one bit per node: [`Status::Running`] and
    /// [`Status::Done`] keep their bit, [`Status::Sleep`] clears it until
    /// the wake comes due or a message is delivered.
    awake: Vec<u64>,
    /// Each node's timed wake: the `until` of the [`Status::Sleep`] that
    /// cleared its `awake` bit, or `usize::MAX` while it is awake. A wake,
    /// timed or by delivery, resets it, so a node has at most one.
    wake_at: Vec<usize>,
    /// No `wake_at` entry is below this round: the scan for due wakes
    /// starts only here. It may trail a wake that a delivery cancelled.
    next_wake: usize,
    /// Messages to deliver next round: `pending[v] = (from, msg)*`.
    /// Double-buffered with `inboxes`: the two arenas swap every round and
    /// are recycled via `clear()`, so a steady-state round allocates nothing.
    pending: Vec<Vec<(NodeId, P::Msg)>>,
    /// The receivers whose `pending` arena is non-empty, in first-use order.
    pending_to: Vec<NodeId>,
    /// Messages being delivered this round (the other arena half).
    inboxes: Vec<Vec<(NodeId, P::Msg)>>,
    /// The receivers whose `inboxes` arena is non-empty.
    inbox_to: Vec<NodeId>,
    /// One pre-owned outbox per node, drained in place by the merge phase.
    mailboxes: Vec<Mailbox<P::Msg>>,
    /// Per-destination accounting for the sender currently merging.
    per_channel: Vec<ChannelLoad>,
    /// Maps a neighbor position of the current sender to `index + 1` in
    /// `per_channel` (0 = untouched), giving O(1) per-message lookup while
    /// preserving first-use order; only touched slots are re-zeroed.
    chan_slot: Vec<u32>,
    config: SimConfig,
    stats: RoundStats,
    started: bool,
    /// Peak per-channel bit load of the round currently executing.
    round_peak: u32,
    /// Streaming per-channel load histogram (when profiling is enabled).
    profile: Option<BandwidthProfile>,
    /// Compiled fault plan (when [`SimConfig::with_faults`] is set).
    faults: Option<FaultOracle>,
    /// Crash state of each node in the round most recently executed.
    crashed_now: Vec<bool>,
    /// How many entries of `crashed_now` are set.
    crashed: usize,
    /// The next round whose crash state may differ from the last one's (a
    /// crash-window boundary); `usize::MAX` if none, or without faults.
    crash_check: usize,
    /// Whether the one-time message-log truncation warning fired.
    log_truncated: bool,
}

/// The set bits of one bitset word, ascending, numbered from `base`.
struct Bits {
    rest: u64,
    base: usize,
}

impl Iterator for Bits {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.rest == 0 {
            return None;
        }
        let bit = self.rest.trailing_zeros() as usize;
        self.rest &= self.rest - 1;
        Some(self.base + bit)
    }
}

/// The set bits of a bitset, ascending.
fn ones(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
    words
        .iter()
        .enumerate()
        .flat_map(|(i, &rest)| Bits { rest, base: i * 64 })
}

/// Bits and message count one sender put on one channel this round; the
/// running count keys the fault oracle's per-message drop decisions.
#[derive(Clone, Copy, Debug)]
struct ChannelLoad {
    to: NodeId,
    bits: u32,
    count: u64,
    /// `to`'s position in the sender's neighbor list (the `chan_slot` key).
    pos: u32,
}

impl<P: NodeProgram> Network<P> {
    /// Builds a network over `graph` with the given `leader`, constructing a
    /// program per node via `make`.
    ///
    /// # Panics
    ///
    /// Panics if `leader >= graph.n()`.
    pub fn new(
        graph: &WeightedGraph,
        leader: NodeId,
        config: SimConfig,
        mut make: impl FnMut(NodeId, &NodeCtx) -> P,
    ) -> Network<P> {
        assert!(leader < graph.n(), "leader out of range");
        let n = graph.n();
        let max_weight = graph.max_weight();
        let ctxs: Vec<NodeCtx> = (0..n)
            .map(|v| NodeCtx {
                id: v,
                n,
                neighbors: graph.neighbors(v).collect(),
                leader,
                max_weight,
            })
            .collect();
        let programs = ctxs.iter().map(|c| make(c.id, c)).collect();
        let profile = config
            .profile_channels
            .then(|| BandwidthProfile::new(config.bandwidth.get()));
        let faults = config.faults.as_deref().map(FaultPlan::compile);
        // Round 1 computes the crash state of a faulted run.
        let crash_check = if faults.is_some() { 1 } else { usize::MAX };
        let max_degree = ctxs.iter().map(NodeCtx::degree).max().unwrap_or(0);
        // Outboxes start sized for one broadcast; inbox arenas grow to their
        // high-water mark during warm-up and are then recycled in place.
        let mailboxes = ctxs
            .iter()
            .map(|c| Mailbox::with_capacity(c.degree()))
            .collect();
        let mut awake = vec![0u64; n.div_ceil(64)];
        for v in 0..n {
            awake[v / 64] |= 1 << (v % 64);
        }
        Network {
            ctxs,
            programs,
            status: vec![Status::Running; n],
            done: vec![0; awake.len()],
            awake,
            wake_at: vec![usize::MAX; n],
            next_wake: usize::MAX,
            pending: (0..n).map(|_| Vec::new()).collect(),
            pending_to: Vec::with_capacity(n),
            inboxes: (0..n).map(|_| Vec::new()).collect(),
            inbox_to: Vec::with_capacity(n),
            mailboxes,
            per_channel: Vec::with_capacity(max_degree),
            chan_slot: vec![0; max_degree],
            config,
            stats: RoundStats::default(),
            started: false,
            round_peak: 0,
            profile,
            faults,
            crashed_now: vec![false; n],
            crashed: 0,
            crash_check,
            log_truncated: false,
        }
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.ctxs.len()
    }

    /// The accumulated statistics so far.
    pub fn stats(&self) -> &RoundStats {
        &self.stats
    }

    /// The per-channel load histogram, if
    /// [`SimConfig::with_channel_profile`] was set.
    pub fn bandwidth_profile(&self) -> Option<&BandwidthProfile> {
        self.profile.as_ref()
    }

    /// Merges node `from`'s outbox into the per-destination inbox arenas,
    /// charging bandwidth and consulting the fault oracle.
    ///
    /// The caller invokes this for senders in ascending id order, and a
    /// sender's messages are processed in send order, so inbox contents are
    /// fully determined by what the programs sent — never by how the compute
    /// phase was scheduled.
    fn dispatch(&mut self, from: NodeId, round: usize) -> Result<(), SimError> {
        if self.mailboxes[from].out.is_empty() {
            return Ok(());
        }
        let result = self.deliver_outbox(from, round);
        if result.is_ok() {
            // On a violation the sim aborts mid-sender: skip the channel
            // roll-up, exactly as the pre-engine dispatch did.
            self.finalize_channels(from, round);
        }
        // Reset the scratch, re-zeroing only the slots this sender touched.
        for i in 0..self.per_channel.len() {
            self.chan_slot[self.per_channel[i].pos as usize] = 0;
        }
        self.per_channel.clear();
        result
    }

    fn deliver_outbox(&mut self, from: NodeId, round: usize) -> Result<(), SimError> {
        let budget = self.config.bandwidth.get();
        for (to, pos, msg) in self.mailboxes[from].out.drain(..) {
            let pos = if pos == UNKNOWN_POS {
                match self.ctxs[from].neighbor_pos(to) {
                    Some(pos) => pos,
                    None => return Err(SimError::NotAdjacent { from, to }),
                }
            } else {
                pos as usize
            };
            let bits = msg.size_bits();
            let slot = self.chan_slot[pos];
            let (total, index) = if slot == 0 {
                self.per_channel.push(ChannelLoad {
                    to,
                    bits,
                    count: 1,
                    pos: pos as u32,
                });
                self.chan_slot[pos] = self.per_channel.len() as u32;
                (bits, 0)
            } else {
                let entry = &mut self.per_channel[slot as usize - 1];
                entry.bits += bits;
                entry.count += 1;
                (entry.bits, entry.count - 1)
            };
            if total > budget {
                return Err(SimError::BandwidthExceeded {
                    from,
                    to,
                    round,
                    attempted_bits: total,
                    budget_bits: budget,
                });
            }
            // The sender used the channel whether or not the fault model
            // loses the message: attempted sends are charged to the
            // aggregate counters (and the log), and losses are accounted
            // separately in `stats.resilience`.
            self.stats.messages += 1;
            self.stats.bits += u64::from(bits);
            if self.config.log_messages {
                if self.stats.message_log.len() < self.config.message_log_cap {
                    self.stats.message_log.push(MessageRecord {
                        round,
                        from,
                        to,
                        bits,
                    });
                } else if !self.log_truncated {
                    self.log_truncated = true;
                    let cap = self.config.message_log_cap;
                    self.config
                        .telemetry
                        .emit_with(|| TraceEvent::MessageLogTruncated { round, cap });
                }
            }
            if let Some(oracle) = &self.faults {
                if let Some(throttle) = oracle.throttle(from, to) {
                    if total > throttle {
                        self.stats.resilience.dropped_messages += 1;
                        self.stats.resilience.dropped_bits += u64::from(bits);
                        self.stats.resilience.throttled_messages += 1;
                        self.config
                            .telemetry
                            .emit_with(|| TraceEvent::LinkThrottled {
                                round,
                                from,
                                to,
                                budget_bits: throttle,
                            });
                        continue;
                    }
                }
                if let Some(reason) = oracle.drops(round, from, to, index) {
                    self.stats.resilience.dropped_messages += 1;
                    self.stats.resilience.dropped_bits += u64::from(bits);
                    self.config
                        .telemetry
                        .emit_with(|| TraceEvent::MessageDropped {
                            round,
                            from,
                            to,
                            bits,
                            reason,
                        });
                    continue;
                }
                if !oracle.node_alive(to, round) {
                    self.stats.resilience.dropped_messages += 1;
                    self.stats.resilience.dropped_bits += u64::from(bits);
                    self.config
                        .telemetry
                        .emit_with(|| TraceEvent::MessageDropped {
                            round,
                            from,
                            to,
                            bits,
                            reason: DropReason::ReceiverCrashed,
                        });
                    continue;
                }
            }
            if self.pending[to].is_empty() {
                self.pending_to.push(to);
            }
            self.pending[to].push((from, msg));
        }
        Ok(())
    }

    /// Rolls this sender's per-channel totals into the round statistics, in
    /// first-use order (the order `per_channel` accumulated in).
    fn finalize_channels(&mut self, from: NodeId, round: usize) {
        let budget = self.config.bandwidth.get();
        for i in 0..self.per_channel.len() {
            let ChannelLoad { to, bits: b, .. } = self.per_channel[i];
            self.stats.max_channel_bits = self.stats.max_channel_bits.max(b);
            self.round_peak = self.round_peak.max(b);
            if let Some(profile) = &mut self.profile {
                profile.record(from, to, b);
            }
            // Announce channels at ≥90% of budget: the congestion frontier
            // an algorithm designer actually tunes against.
            if u64::from(b) * 10 >= u64::from(budget) * 9 {
                self.config
                    .telemetry
                    .emit_with(|| TraceEvent::ChannelSaturation {
                        round,
                        from,
                        to,
                        bits: b,
                        budget_bits: budget,
                    });
            }
        }
    }

    /// Executes the next round that has work; returns `true` if the network
    /// is quiescent afterwards (all programs [`Status::Done`] and no
    /// messages in flight).
    ///
    /// Each round runs in two phases. **Compute**: every live node that is
    /// awake — not [`Status::Sleep`]ing, or woken by its wake round or by a
    /// delivery — runs [`NodeProgram::round`] against its own inbox and its
    /// own pre-owned outbox, in ascending id order; no node can observe
    /// another's round-`r` activity. **Merge**: outboxes drain into the
    /// per-destination inbox arenas in ascending sender order, where
    /// bandwidth accounting, telemetry, and fault decisions happen. Fault
    /// decisions are pure hashes of `(seed, round, edge, message index)`,
    /// so the merge — and with it every output, statistic, and trace event
    /// — is a deterministic function of the graph, the programs and the
    /// config.
    ///
    /// When no live node is awake and no message is in flight, the rounds
    /// up to the earliest wake are **jumped**: they count in
    /// [`RoundStats::rounds`] (and, with telemetry on, each still emits an
    /// empty [`TraceEvent::RoundCompleted`]) but step nobody. A jump never
    /// crosses a crash-window boundary or `max_rounds`. See DESIGN.md
    /// §"Sleeping nodes and jumped rounds".
    ///
    /// # Errors
    ///
    /// Propagates adjacency and bandwidth violations, and
    /// [`SimError::RoundLimitExceeded`] once `max_rounds` have executed.
    pub fn step(&mut self) -> Result<bool, SimError> {
        let messages_before = self.stats.messages;
        let bits_before = self.stats.bits;
        self.round_peak = 0;
        if !self.started {
            self.started = true;
            // `start` sends arrive in round 1; charge them to round 1.
            for v in 0..self.n() {
                self.programs[v].start(&self.ctxs[v], &mut self.mailboxes[v]);
            }
            for v in 0..self.n() {
                self.dispatch(v, 1)?;
            }
        } else if self.pending_to.is_empty() && ones(&self.awake).all(|v| self.crashed_now[v]) {
            self.jump();
        }
        let round = self.stats.rounds + 1;
        if round > self.config.max_rounds {
            return Err(SimError::RoundLimitExceeded {
                max_rounds: self.config.max_rounds,
                rounds_executed: self.stats.rounds,
            });
        }
        // Crash state changes only at crash-window boundaries: recompute
        // it there, and in the rounds between charge the same crashed set.
        if round >= self.crash_check {
            if let Some(oracle) = &self.faults {
                self.crash_check = oracle.next_crash_change(round).unwrap_or(usize::MAX);
                self.crashed = 0;
                for v in 0..self.ctxs.len() {
                    let crashed = !oracle.node_alive(v, round);
                    if crashed != self.crashed_now[v] {
                        self.config.telemetry.emit_with(|| {
                            if crashed {
                                TraceEvent::NodeCrashed { node: v, round }
                            } else {
                                TraceEvent::NodeRecovered { node: v, round }
                            }
                        });
                    }
                    self.crashed_now[v] = crashed;
                    if crashed {
                        self.crashed += 1;
                    }
                }
            }
        }
        self.stats.resilience.crashed_node_rounds += self.crashed as u64;
        // Wakes that came due, then every receiver of a delivery.
        if round >= self.next_wake {
            let mut next = usize::MAX;
            for v in 0..self.wake_at.len() {
                let at = self.wake_at[v];
                if at <= round {
                    self.wake(v);
                } else {
                    next = next.min(at);
                }
            }
            self.next_wake = next;
        }
        // Flip the double buffer: last round's accumulation arena becomes
        // this round's inboxes, and the cleared former inboxes take over as
        // the accumulation arena. Capacities persist across the swap.
        std::mem::swap(&mut self.inboxes, &mut self.pending);
        std::mem::swap(&mut self.inbox_to, &mut self.pending_to);
        for i in 0..self.inbox_to.len() {
            self.wake(self.inbox_to[i]);
        }
        self.stats.rounds = round;
        // A crashed node executes nothing (its outbox stays empty; messages
        // addressed to it were already discarded at dispatch time) and its
        // program state is preserved for when (if) the crash window closes.
        // An awake crashed node keeps its bit and is stepped in its first
        // live round.
        self.compute(round);
        // Drain the stepped nodes' outboxes, and fold their statuses into
        // the done and awake bitsets (a word at a time, in registers).
        let mut merged = Ok(());
        'merge: for i in 0..self.awake.len() {
            let (mut awake, mut done) = (self.awake[i], self.done[i]);
            for v in (Bits {
                rest: awake,
                base: i * 64,
            }) {
                if self.crashed_now[v] {
                    continue;
                }
                let bit = 1 << (v % 64);
                match self.status[v] {
                    Status::Done => done |= bit,
                    status => {
                        done &= !bit;
                        if let Status::Sleep(until) = status {
                            if until > round + 1 {
                                awake &= !bit;
                                self.wake_at[v] = until;
                                self.next_wake = self.next_wake.min(until);
                            }
                        }
                    }
                }
                // Most stepped nodes send nothing; skip the call for them.
                if !self.mailboxes[v].out.is_empty() {
                    if let Err(err) = self.dispatch(v, round + 1) {
                        merged = Err(err);
                        break 'merge;
                    }
                }
            }
            (self.awake[i], self.done[i]) = (awake, done);
        }
        // Recycle the delivery arena even when the merge aborted, so the
        // network's buffers stay consistent for post-mortem inspection.
        for &v in &self.inbox_to {
            self.inboxes[v].clear();
        }
        self.inbox_to.clear();
        merged?;
        // Attribute everything sent while executing this round (including
        // `start` sends on the first step) to this round's event, so the
        // events sum to the aggregate counters exactly.
        let messages = self.stats.messages - messages_before;
        let bits = self.stats.bits - bits_before;
        let max_channel_bits = self.round_peak;
        self.config
            .telemetry
            .emit_with(|| TraceEvent::RoundCompleted {
                round,
                messages,
                bits,
                max_channel_bits,
            });
        // A crashed node cannot act, so it does not hold up quiescence; if
        // the network settles while it is down, its output is whatever state
        // it held when it went down.
        let quiescent = self.pending_to.is_empty() && {
            let done: usize = self.done.iter().map(|w| w.count_ones() as usize).sum();
            let not_done = self.n() - done;
            not_done == 0
                || not_done <= self.crashed
                    && self
                        .status
                        .iter()
                        .zip(&self.crashed_now)
                        .all(|(&s, &crashed)| s == Status::Done || crashed)
        };
        Ok(quiescent)
    }

    /// Marks `v` awake (stepped this round if live) and cancels its timed
    /// wake.
    fn wake(&mut self, v: NodeId) {
        self.awake[v / 64] |= 1 << (v % 64);
        self.wake_at[v] = usize::MAX;
    }

    /// Counts the idle rounds before the next one with work: the earliest
    /// timed wake, the next crash-window boundary, or the round cap,
    /// whichever comes first. Nothing runs in them, so each contributes
    /// only its round, its crashed node-rounds and (with telemetry on) an
    /// empty [`TraceEvent::RoundCompleted`].
    fn jump(&mut self) {
        let last = self.stats.rounds;
        self.next_wake = self.wake_at.iter().copied().min().unwrap_or(usize::MAX);
        let target = self
            .config
            .max_rounds
            .saturating_add(1)
            .min(self.crash_check)
            .min(self.next_wake);
        if target <= last + 1 {
            return;
        }
        self.stats.resilience.crashed_node_rounds += (self.crashed * (target - 1 - last)) as u64;
        if self.config.telemetry.is_enabled() {
            for round in last + 1..target {
                self.config
                    .telemetry
                    .emit_with(|| TraceEvent::RoundCompleted {
                        round,
                        messages: 0,
                        bits: 0,
                        max_channel_bits: 0,
                    });
            }
        }
        self.stats.rounds = target - 1;
    }

    /// The compute phase: runs every live awake node's
    /// [`NodeProgram::round`], each reading only its own inbox and writing
    /// only its own outbox.
    fn compute(&mut self, round: usize) {
        for i in 0..self.awake.len() {
            for v in (Bits {
                rest: self.awake[i],
                base: i * 64,
            }) {
                if !self.crashed_now[v] {
                    self.status[v] = self.programs[v].round(
                        &self.ctxs[v],
                        round,
                        &self.inboxes[v],
                        &mut self.mailboxes[v],
                    );
                }
            }
        }
    }

    /// Runs until quiescence and returns every node's output.
    ///
    /// # Errors
    ///
    /// Returns an error on adjacency/bandwidth violations or if
    /// `max_rounds` elapse first.
    pub fn run(&mut self) -> Result<Vec<P::Output>, SimError> {
        self.run_to_quiescence()?;
        let programs = std::mem::take(&mut self.programs);
        Ok(programs
            .into_iter()
            .zip(&self.ctxs)
            .map(|(p, c)| p.finish(c))
            .collect())
    }

    /// Runs until quiescence, keeping the programs in place (use
    /// [`Network::into_outputs`] to extract results).
    ///
    /// # Errors
    ///
    /// Same as [`Network::run`].
    pub fn run_to_quiescence(&mut self) -> Result<(), SimError> {
        loop {
            if self.step()? {
                return Ok(());
            }
        }
    }

    /// Consumes the network, extracting each node's output.
    pub fn into_outputs(self) -> Vec<P::Output> {
        self.programs
            .into_iter()
            .zip(&self.ctxs)
            .map(|(p, c)| p.finish(c))
            .collect()
    }
}

/// Runs a fresh network to quiescence and returns `(outputs, stats)` — the
/// common single-phase pattern.
///
/// The run executes inside a telemetry phase span called `name` (a no-op
/// when the config's [`crate::telemetry::Telemetry`] is disabled, the
/// default). When channel profiling is enabled, the per-channel load
/// summary is emitted just before the span closes; on failure, a
/// [`TraceEvent::SimFailed`] records the error in the trace.
///
/// # Errors
///
/// Same as [`Network::run`].
pub fn run_phase<P: NodeProgram>(
    graph: &WeightedGraph,
    leader: NodeId,
    config: &SimConfig,
    name: &str,
    make: impl FnMut(NodeId, &NodeCtx) -> P,
) -> Result<(Vec<P::Output>, RoundStats), SimError> {
    let telemetry = config.telemetry.clone();
    let span = telemetry.span(name);
    let mut net = Network::new(graph, leader, config.clone(), make);
    if let Err(err) = net.run_to_quiescence() {
        telemetry.emit_with(|| TraceEvent::SimFailed { error: err.clone() });
        span.end();
        return Err(err);
    }
    if let Some(profile) = net.bandwidth_profile() {
        telemetry.emit_with(|| profile.summary(HOT_EDGE_TOP_K));
    }
    let stats = net.stats().clone();
    span.end();
    Ok((net.into_outputs(), stats))
}

/// Hot edges reported in each end-of-run [`TraceEvent::ChannelProfile`].
const HOT_EDGE_TOP_K: usize = 8;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Bandwidth;
    use congest_graph::generators;

    /// Every node forwards a counter along the path; checks delivery order
    /// and round accounting.
    struct Relay {
        value: Option<u64>,
    }

    impl NodeProgram for Relay {
        type Msg = u64;
        type Output = Option<u64>;

        fn start(&mut self, ctx: &NodeCtx, mb: &mut Mailbox<u64>) {
            if ctx.id == 0 {
                self.value = Some(0);
                mb.send(1, 1);
            }
        }

        fn round(
            &mut self,
            ctx: &NodeCtx,
            _round: usize,
            inbox: &[(NodeId, u64)],
            mb: &mut Mailbox<u64>,
        ) -> Status {
            for &(_, v) in inbox {
                if self.value.is_none() {
                    self.value = Some(v);
                    if ctx.id + 1 < ctx.n {
                        mb.send(ctx.id + 1, v + 1);
                    }
                }
            }
            if self.value.is_some() {
                Status::Done
            } else {
                Status::Running
            }
        }

        fn finish(self, _ctx: &NodeCtx) -> Option<u64> {
            self.value
        }
    }

    #[test]
    fn relay_along_path() {
        let g = generators::path(6, 1);
        let (out, stats) = run_phase(&g, 0, &SimConfig::standard(6, 1), "relay", |_, _| Relay {
            value: None,
        })
        .unwrap();
        assert_eq!(
            out,
            vec![Some(0), Some(1), Some(2), Some(3), Some(4), Some(5)]
        );
        // Value reaches node 5 in round 5 and nothing remains in flight.
        assert_eq!(stats.rounds, 5);
        assert_eq!(stats.messages, 5);
    }

    /// A program that sends to a non-neighbor: must error.
    struct BadSender;

    impl NodeProgram for BadSender {
        type Msg = ();
        type Output = ();
        fn start(&mut self, ctx: &NodeCtx, mb: &mut Mailbox<()>) {
            if ctx.id == 0 {
                mb.send(2, ()); // 0 and 2 are not adjacent on a path
            }
        }
        fn round(
            &mut self,
            _: &NodeCtx,
            _: usize,
            _: &[(NodeId, ())],
            _: &mut Mailbox<()>,
        ) -> Status {
            Status::Done
        }
        fn finish(self, _: &NodeCtx) {}
    }

    #[test]
    fn non_adjacent_send_is_error() {
        let g = generators::path(3, 1);
        let err = run_phase(&g, 0, &SimConfig::standard(3, 1), "bad_sender", |_, _| {
            BadSender
        })
        .unwrap_err();
        assert!(matches!(err, SimError::NotAdjacent { from: 0, to: 2 }));
    }

    /// A program that overloads a channel: must error.
    struct Hog;

    impl NodeProgram for Hog {
        type Msg = u64;
        type Output = ();
        fn start(&mut self, ctx: &NodeCtx, mb: &mut Mailbox<u64>) {
            if ctx.id == 0 {
                for _ in 0..100 {
                    mb.send(1, u64::MAX);
                }
            }
        }
        fn round(
            &mut self,
            _: &NodeCtx,
            _: usize,
            _: &[(NodeId, u64)],
            _: &mut Mailbox<u64>,
        ) -> Status {
            Status::Done
        }
        fn finish(self, _: &NodeCtx) {}
    }

    #[test]
    fn bandwidth_violation_is_error() {
        let g = generators::path(2, 1);
        let cfg = SimConfig {
            bandwidth: Bandwidth::bits(128),
            ..SimConfig::standard(2, 1).with_max_rounds(10)
        };
        let err = run_phase(&g, 0, &cfg, "hog", |_, _| Hog).unwrap_err();
        assert!(matches!(
            err,
            SimError::BandwidthExceeded { from: 0, to: 1, .. }
        ));
    }

    /// A program that never halts: the round cap fires.
    struct Forever;

    impl NodeProgram for Forever {
        type Msg = ();
        type Output = ();
        fn start(&mut self, _: &NodeCtx, _: &mut Mailbox<()>) {}
        fn round(
            &mut self,
            _: &NodeCtx,
            _: usize,
            _: &[(NodeId, ())],
            _: &mut Mailbox<()>,
        ) -> Status {
            Status::Running
        }
        fn finish(self, _: &NodeCtx) {}
    }

    #[test]
    fn round_cap_fires() {
        let g = generators::path(2, 1);
        let cfg = SimConfig::standard(2, 1).with_max_rounds(7);
        let err = run_phase(&g, 0, &cfg, "forever", |_, _| Forever).unwrap_err();
        assert!(matches!(
            err,
            SimError::RoundLimitExceeded {
                max_rounds: 7,
                rounds_executed: 7,
            }
        ));
    }

    /// Regression (PR 2): hitting the round cap must leave the partial
    /// statistics readable, and the error must name the executed count.
    #[test]
    fn round_cap_preserves_partial_stats() {
        let g = generators::path(2, 1);
        let cfg = SimConfig::standard(2, 1).with_max_rounds(7);
        let mut net = Network::new(&g, 0, cfg, |_, _| Forever);
        let err = net.run_to_quiescence().unwrap_err();
        assert_eq!(net.stats().rounds, 7, "executed rounds survive the error");
        assert_eq!(
            err,
            SimError::RoundLimitExceeded {
                max_rounds: 7,
                rounds_executed: 7,
            }
        );
        assert!(err.to_string().contains("7 executed"));
    }

    /// Satellite (PR 2): the first record lost to the message-log cap emits
    /// a one-time warning event instead of truncating silently.
    #[test]
    fn message_log_cap_warns_once() {
        use crate::telemetry::{CollectingTracer, Telemetry};
        use std::sync::Arc;

        let tracer = Arc::new(CollectingTracer::default());
        let g = generators::path(6, 1);
        let cfg = SimConfig::standard(6, 1)
            .with_message_log()
            .with_message_log_cap(2)
            .with_telemetry(Telemetry::new(tracer.clone()));
        let (_, stats) = run_phase(&g, 0, &cfg, "relay", |_, _| Relay { value: None }).unwrap();
        assert_eq!(stats.message_log.len(), 2, "log stops at the cap");
        assert_eq!(stats.messages, 5, "aggregate counters keep counting");
        let truncations: Vec<_> = tracer
            .events()
            .into_iter()
            .filter(|e| matches!(e, TraceEvent::MessageLogTruncated { .. }))
            .collect();
        assert_eq!(
            truncations,
            vec![TraceEvent::MessageLogTruncated { round: 3, cap: 2 }],
            "exactly one warning, at the first lost record"
        );
    }

    /// Relay-style forwarding that gives up (and halts) at a fixed round,
    /// so runs terminate even when every message is lost.
    struct Deadline {
        value: Option<u64>,
        deadline: usize,
    }

    impl NodeProgram for Deadline {
        type Msg = u64;
        type Output = Option<u64>;

        fn start(&mut self, ctx: &NodeCtx, mb: &mut Mailbox<u64>) {
            if ctx.id == 0 {
                self.value = Some(0);
                mb.send(1, 1);
            }
        }

        fn round(
            &mut self,
            ctx: &NodeCtx,
            round: usize,
            inbox: &[(NodeId, u64)],
            mb: &mut Mailbox<u64>,
        ) -> Status {
            for &(_, v) in inbox {
                if self.value.is_none() {
                    self.value = Some(v);
                    if ctx.id + 1 < ctx.n {
                        mb.send(ctx.id + 1, v + 1);
                    }
                }
            }
            if round >= self.deadline {
                Status::Done
            } else {
                Status::Running
            }
        }

        fn finish(self, _ctx: &NodeCtx) -> Option<u64> {
            self.value
        }
    }

    #[test]
    fn dropped_messages_degrade_receivers() {
        use crate::faults::FaultPlan;

        // Forwarding on a path with every message dropped: only the leader
        // knows its value.
        let g = generators::path(3, 1);
        let cfg = SimConfig::standard(3, 1)
            .with_max_rounds(50)
            .with_faults(FaultPlan::new(1).with_drop_rate(1.0));
        let mut net = Network::new(&g, 0, cfg, |_, _| Deadline {
            value: None,
            deadline: 5,
        });
        let out = net.run().unwrap();
        assert_eq!(out[0], Some(0));
        assert_eq!(out[1], None);
        assert!(net.stats().resilience.dropped_messages > 0);
    }

    #[test]
    fn crashed_node_is_failed_and_does_not_block_quiescence() {
        use crate::faults::FaultPlan;

        let g = generators::path(3, 1);
        let cfg = SimConfig::standard(3, 1)
            .with_max_rounds(50)
            .with_faults(FaultPlan::new(1).with_crash(2, 1, None));
        let mut net = Network::new(&g, 0, cfg, |_, _| Deadline {
            value: None,
            deadline: 5,
        });
        let out = net.run().unwrap();
        assert_eq!(out[1], Some(1), "the healthy hop still hears the leader");
        assert_eq!(out[2], None, "the crashed node heard nothing");
        assert!(net.stats().resilience.crashed_node_rounds > 0);
    }

    #[test]
    fn crash_window_recovery_resumes_with_state_intact() {
        use crate::faults::FaultPlan;

        // Node 1 is down for rounds 1–3; the leader's message is lost, but
        // a (cheating, test-only) re-send in round 5 reaches it after
        // recovery and it still forwards correctly.
        struct Resend {
            inner: Deadline,
        }
        impl NodeProgram for Resend {
            type Msg = u64;
            type Output = Option<u64>;
            fn start(&mut self, ctx: &NodeCtx, mb: &mut Mailbox<u64>) {
                self.inner.start(ctx, mb);
            }
            fn round(
                &mut self,
                ctx: &NodeCtx,
                round: usize,
                inbox: &[(NodeId, u64)],
                mb: &mut Mailbox<u64>,
            ) -> Status {
                if ctx.id == 0 && round == 5 {
                    mb.send(1, 1);
                }
                self.inner.round(ctx, round, inbox, mb)
            }
            fn finish(self, ctx: &NodeCtx) -> Option<u64> {
                self.inner.finish(ctx)
            }
        }

        let g = generators::path(3, 1);
        let cfg = SimConfig::standard(3, 1)
            .with_max_rounds(50)
            .with_faults(FaultPlan::new(1).with_crash(1, 1, Some(4)));
        let mut net = Network::new(&g, 0, cfg, |_, _| Resend {
            inner: Deadline {
                value: None,
                deadline: 10,
            },
        });
        let out = net.run().unwrap();
        assert_eq!(out[1], Some(1), "recovered node processed the re-send");
        assert_eq!(out[2], Some(2), "and forwarded onward after recovery");
    }

    /// Node 0 runs its script in `start`; every node is then `Done`.
    struct Script(fn(&NodeCtx, &mut Mailbox<u64>));

    impl NodeProgram for Script {
        type Msg = u64;
        type Output = ();
        fn start(&mut self, ctx: &NodeCtx, mb: &mut Mailbox<u64>) {
            if ctx.id == 0 {
                (self.0)(ctx, mb);
            }
        }
        fn round(
            &mut self,
            _: &NodeCtx,
            _: usize,
            _: &[(NodeId, u64)],
            _: &mut Mailbox<u64>,
        ) -> Status {
            Status::Done
        }
        fn finish(self, _: &NodeCtx) {}
    }

    /// A broadcast copy carries its receiver's neighbor position and a send
    /// is looked up at the merge; both land on the same channel, which is
    /// charged and checked exactly as if every message had been a send.
    #[test]
    fn broadcast_and_send_share_channel_accounting() {
        let g = generators::star(4, 1);
        let send_first: fn(&NodeCtx, &mut Mailbox<u64>) = |ctx, mb| {
            mb.send(2, 255);
            mb.broadcast(ctx, 6);
        };
        let broadcast_first: fn(&NodeCtx, &mut Mailbox<u64>) = |ctx, mb| {
            mb.broadcast(ctx, 6);
            mb.send(2, 255);
        };
        for script in [send_first, broadcast_first] {
            let cfg = SimConfig {
                bandwidth: Bandwidth::bits(64),
                ..SimConfig::standard(4, 1)
            };
            let (_, stats) = run_phase(&g, 0, &cfg, "script", |_, _| Script(script)).unwrap();
            assert_eq!((stats.messages, stats.bits), (4, 17));
            assert_eq!(stats.max_channel_bits, 11, "0→2 carries both messages");
            let tight = SimConfig {
                bandwidth: Bandwidth::bits(10),
                ..cfg
            };
            let err = run_phase(&g, 0, &tight, "script", |_, _| Script(script)).unwrap_err();
            assert_eq!(
                err,
                SimError::BandwidthExceeded {
                    from: 0,
                    to: 2,
                    round: 1,
                    attempted_bits: 11,
                    budget_bits: 10,
                }
            );
        }
        let g = generators::path(3, 1);
        let err = run_phase(&g, 0, &SimConfig::standard(3, 1), "script", |_, _| {
            Script(|ctx, mb| {
                mb.broadcast(ctx, 6);
                mb.send(2, 5);
            })
        })
        .unwrap_err();
        assert_eq!(err, SimError::NotAdjacent { from: 0, to: 2 });
    }

    #[test]
    fn message_log_records_everything() {
        let g = generators::path(3, 1);
        let cfg = SimConfig::standard(3, 1).with_message_log();
        let (_, stats) = run_phase(&g, 0, &cfg, "relay", |_, _| Relay { value: None }).unwrap();
        assert_eq!(stats.message_log.len(), 2);
        assert_eq!(stats.message_log[0].from, 0);
        assert_eq!(stats.message_log[0].to, 1);
        assert_eq!(stats.message_log[1].from, 1);
        assert_eq!(stats.message_log[1].to, 2);
        assert!(stats.message_log[1].round > stats.message_log[0].round);
    }

    #[test]
    fn stats_track_peak_channel_load() {
        let g = generators::path(6, 1);
        let (_, stats) = run_phase(&g, 0, &SimConfig::standard(6, 1), "relay", |_, _| Relay {
            value: None,
        })
        .unwrap();
        assert!(stats.max_channel_bits >= 1);
        assert!(u64::from(stats.max_channel_bits) <= stats.bits);
    }
}
