//! Reusable CONGEST building blocks: BFS-tree construction, convergecast
//! aggregation, pipelined broadcast, and pipelined collection.
//!
//! These are the `O(D)`- and `O(D + k)`-round primitives the paper's
//! algorithms lean on ("the node leader can collect S_i in O(D + r) rounds",
//! "broadcasts them by pipelining in O(D + b) rounds", "convergecasting in
//! O(D) rounds", …).

#![allow(clippy::needless_range_loop)] // index loops mirror the paper's matrix notation
use crate::model::{NodeCtx, Payload, RoundStats, SimConfig, SimError, Status};
use crate::network::{run_phase, Mailbox, NodeProgram};
use congest_graph::{NodeId, WeightedGraph};

/// A node's view of a rooted BFS tree.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TreeInfo {
    /// Parent in the tree (`None` at the root).
    pub parent: Option<NodeId>,
    /// Children in the tree.
    pub children: Vec<NodeId>,
    /// Depth (root is 0).
    pub depth: usize,
}

enum TreeMsg {
    Token,
    Adopt,
}

impl Clone for TreeMsg {
    fn clone(&self) -> TreeMsg {
        match self {
            TreeMsg::Token => TreeMsg::Token,
            TreeMsg::Adopt => TreeMsg::Adopt,
        }
    }
}

impl std::fmt::Debug for TreeMsg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TreeMsg::Token => write!(f, "Token"),
            TreeMsg::Adopt => write!(f, "Adopt"),
        }
    }
}

impl Payload for TreeMsg {
    fn size_bits(&self) -> u32 {
        1
    }
}

struct BfsTreeProgram {
    joined: bool,
    depth: usize,
    parent: Option<NodeId>,
    children: Vec<NodeId>,
    joined_round: Option<usize>,
}

impl BfsTreeProgram {
    fn new() -> BfsTreeProgram {
        BfsTreeProgram {
            joined: false,
            depth: 0,
            parent: None,
            children: Vec::new(),
            joined_round: None,
        }
    }
}

impl NodeProgram for BfsTreeProgram {
    type Msg = TreeMsg;
    type Output = TreeInfo;

    fn start(&mut self, ctx: &NodeCtx, mb: &mut Mailbox<TreeMsg>) {
        if ctx.is_leader() {
            self.joined = true;
            self.joined_round = Some(0);
            mb.broadcast(ctx, TreeMsg::Token);
        }
    }

    fn round(
        &mut self,
        ctx: &NodeCtx,
        round: usize,
        inbox: &[(NodeId, TreeMsg)],
        mb: &mut Mailbox<TreeMsg>,
    ) -> Status {
        for (from, msg) in inbox {
            match msg {
                TreeMsg::Token => {
                    if !self.joined {
                        self.joined = true;
                        self.joined_round = Some(round);
                        self.depth = round;
                        self.parent = Some(*from);
                        mb.send(*from, TreeMsg::Adopt);
                        mb.broadcast(ctx, TreeMsg::Token);
                    }
                }
                TreeMsg::Adopt => self.children.push(*from),
            }
        }
        // A node that joined in round t hears every Adopt by round t + 2.
        match self.joined_round {
            Some(t) if round >= t + 2 => Status::Done,
            Some(_) if ctx.degree() == 0 => Status::Done,
            _ => Status::Running,
        }
    }

    fn finish(mut self, _ctx: &NodeCtx) -> TreeInfo {
        self.children.sort_unstable();
        TreeInfo {
            parent: self.parent,
            children: self.children,
            depth: self.depth,
        }
    }
}

/// Builds a BFS tree rooted at `leader` in `O(D)` rounds; returns each
/// node's [`TreeInfo`] and the phase statistics.
///
/// # Errors
///
/// Propagates simulator errors (a disconnected graph hits the round cap).
///
/// # Examples
///
/// ```
/// use congest_sim::{primitives, SimConfig};
/// use congest_graph::generators;
/// let g = generators::path(4, 1);
/// let (tree, stats) = primitives::bfs_tree(&g, 0, &SimConfig::standard(4, 1))?;
/// assert_eq!(tree[3].depth, 3);
/// assert_eq!(tree[0].children, vec![1]);
/// assert!(stats.rounds <= 3 + 2);
/// # Ok::<(), congest_sim::SimError>(())
/// ```
pub fn bfs_tree(
    graph: &WeightedGraph,
    leader: NodeId,
    config: &SimConfig,
) -> Result<(Vec<TreeInfo>, RoundStats), SimError> {
    run_phase(graph, leader, config, "bfs_tree", |_, _| {
        BfsTreeProgram::new()
    })
}

/// Associative aggregation used by [`converge_cast`].
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Aggregate {
    /// Maximum of the values.
    Max,
    /// Minimum of the values.
    Min,
    /// Sum of the values (saturating).
    Sum,
}

impl Aggregate {
    fn combine(self, a: u128, b: u128) -> u128 {
        match self {
            Aggregate::Max => a.max(b),
            Aggregate::Min => a.min(b),
            Aggregate::Sum => a.saturating_add(b),
        }
    }
}

impl Payload for u128 {
    fn size_bits(&self) -> u32 {
        (128 - self.leading_zeros()).max(1)
    }
}

enum CastMsg {
    Up(u128),
    Down(u128),
}

impl Clone for CastMsg {
    fn clone(&self) -> CastMsg {
        match self {
            CastMsg::Up(v) => CastMsg::Up(*v),
            CastMsg::Down(v) => CastMsg::Down(*v),
        }
    }
}

impl std::fmt::Debug for CastMsg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CastMsg::Up(v) => write!(f, "Up({v})"),
            CastMsg::Down(v) => write!(f, "Down({v})"),
        }
    }
}

impl Payload for CastMsg {
    fn size_bits(&self) -> u32 {
        1 + match self {
            CastMsg::Up(v) | CastMsg::Down(v) => v.size_bits(),
        }
    }
}

struct ConvergeCastProgram {
    tree: TreeInfo,
    op: Aggregate,
    acc: u128,
    waiting: usize,
    sent_up: bool,
    result: Option<u128>,
}

impl NodeProgram for ConvergeCastProgram {
    type Msg = CastMsg;
    // `None` when the node never learned the aggregate — possible only when
    // a fault plan crashed it past the downcast; the wrapper turns a missing
    // *leader* result into `SimError::PhaseIncomplete` instead of panicking.
    type Output = Option<u128>;

    fn start(&mut self, _ctx: &NodeCtx, mb: &mut Mailbox<CastMsg>) {
        if self.waiting == 0 {
            if let Some(p) = self.tree.parent {
                mb.send(p, CastMsg::Up(self.acc));
                self.sent_up = true;
            } else {
                self.result = Some(self.acc);
            }
        }
    }

    fn round(
        &mut self,
        _ctx: &NodeCtx,
        _round: usize,
        inbox: &[(NodeId, CastMsg)],
        mb: &mut Mailbox<CastMsg>,
    ) -> Status {
        for (from, msg) in inbox {
            match msg {
                CastMsg::Up(v) => {
                    self.acc = self.op.combine(self.acc, *v);
                    // Only a listed child's `Up` is awaited: a faulted
                    // `bfs_tree` can lose the `Adopt` that would have listed
                    // the sender, and counting it would underflow `waiting`.
                    if self.tree.children.binary_search(from).is_ok() {
                        self.waiting -= 1;
                    }
                }
                CastMsg::Down(v) => {
                    self.result = Some(*v);
                    for &c in &self.tree.children {
                        mb.send(c, CastMsg::Down(*v));
                    }
                }
            }
        }
        if self.waiting == 0 && !self.sent_up {
            match self.tree.parent {
                Some(p) => {
                    mb.send(p, CastMsg::Up(self.acc));
                    self.sent_up = true;
                }
                None => {
                    // Root: aggregation finished, start the downcast.
                    self.sent_up = true;
                    self.result = Some(self.acc);
                    for &c in &self.tree.children {
                        mb.send(c, CastMsg::Down(self.acc));
                    }
                }
            }
        }
        if self.result.is_some() {
            Status::Done
        } else {
            Status::Running
        }
    }

    fn finish(self, _ctx: &NodeCtx) -> Option<u128> {
        self.result
    }
}

/// Aggregates `values[v]` over all nodes with `op` along `tree`, then
/// broadcasts the result back down; every node ends up knowing it.
/// `O(depth)` rounds each way.
///
/// # Errors
///
/// Propagates simulator errors; returns [`SimError::PhaseIncomplete`] when
/// an injected fault plan left the leader without a result at quiescence
/// (e.g. a [`crate::faults::CrashWindow`] covering the whole cast).
///
/// # Panics
///
/// Panics if `values.len() != graph.n()` or `tree.len() != graph.n()`.
pub fn converge_cast(
    graph: &WeightedGraph,
    leader: NodeId,
    config: &SimConfig,
    tree: &[TreeInfo],
    values: &[u128],
    op: Aggregate,
) -> Result<(u128, RoundStats), SimError> {
    assert_eq!(values.len(), graph.n());
    assert_eq!(tree.len(), graph.n());
    let (out, stats) = run_phase(graph, leader, config, "converge_cast", |v, _| {
        ConvergeCastProgram {
            tree: tree[v].clone(),
            op,
            acc: values[v],
            waiting: tree[v].children.len(),
            sent_up: false,
            result: None,
        }
    })?;
    let result = out[leader].ok_or(SimError::PhaseIncomplete {
        phase: "converge_cast",
        node: leader,
    })?;
    // Every node that did learn a result learned the same one (the value
    // originates at the root; faults can only drop it, not alter it).
    debug_assert!(out.iter().flatten().all(|&x| x == result));
    Ok((result, stats))
}

struct VecCastProgram {
    tree: TreeInfo,
    op: Aggregate,
    /// acc[j] = elementwise aggregate over own value and children seen so far.
    acc: Vec<u128>,
    /// how many children have contributed element j.
    seen: Vec<usize>,
    next_send: usize,
    result: Vec<Option<u128>>,
}

enum VecCastMsg {
    Up(u64, u128),
    Down(u64, u128),
}

impl Clone for VecCastMsg {
    fn clone(&self) -> VecCastMsg {
        match self {
            VecCastMsg::Up(j, v) => VecCastMsg::Up(*j, *v),
            VecCastMsg::Down(j, v) => VecCastMsg::Down(*j, *v),
        }
    }
}

impl std::fmt::Debug for VecCastMsg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VecCastMsg::Up(j, v) => write!(f, "Up({j},{v})"),
            VecCastMsg::Down(j, v) => write!(f, "Down({j},{v})"),
        }
    }
}

impl Payload for VecCastMsg {
    fn size_bits(&self) -> u32 {
        match self {
            VecCastMsg::Up(j, v) | VecCastMsg::Down(j, v) => 1 + j.size_bits() + v.size_bits(),
        }
    }
}

impl NodeProgram for VecCastProgram {
    type Msg = VecCastMsg;
    // Per-element `None` marks entries the node never learned (crash-window
    // fault plans only); see [`ConvergeCastProgram`].
    type Output = Vec<Option<u128>>;

    fn start(&mut self, _ctx: &NodeCtx, _mb: &mut Mailbox<VecCastMsg>) {}

    fn round(
        &mut self,
        _ctx: &NodeCtx,
        _round: usize,
        inbox: &[(NodeId, VecCastMsg)],
        mb: &mut Mailbox<VecCastMsg>,
    ) -> Status {
        for (_, msg) in inbox {
            match msg {
                VecCastMsg::Up(j, v) => {
                    let j = *j as usize;
                    self.acc[j] = self.op.combine(self.acc[j], *v);
                    self.seen[j] += 1;
                }
                VecCastMsg::Down(j, v) => {
                    self.result[*j as usize] = Some(*v);
                    for &c in &self.tree.children {
                        mb.send(c, VecCastMsg::Down(*j, *v));
                    }
                }
            }
        }
        // Elements become ready in index order (children drain in order
        // too), so a single cursor suffices: forward element j upward once
        // every child contributed it.
        if self.next_send < self.acc.len() && self.seen[self.next_send] == self.tree.children.len()
        {
            let j = self.next_send;
            self.next_send += 1;
            match self.tree.parent {
                Some(p) => mb.send(p, VecCastMsg::Up(j as u64, self.acc[j])),
                None => {
                    self.result[j] = Some(self.acc[j]);
                    for &c in &self.tree.children {
                        mb.send(c, VecCastMsg::Down(j as u64, self.acc[j]));
                    }
                }
            }
        }
        if self.result.iter().all(Option::is_some) {
            Status::Done
        } else {
            Status::Running
        }
    }

    fn finish(self, _ctx: &NodeCtx) -> Vec<Option<u128>> {
        self.result
    }
}

/// Elementwise aggregation of per-node **vectors** along `tree`, pipelined
/// (`O(depth + k)` rounds for `k`-element vectors), with the result
/// broadcast back down. Every node ends up knowing the aggregated vector.
///
/// # Errors
///
/// Propagates simulator errors; returns [`SimError::PhaseIncomplete`] when
/// an injected fault plan left the leader without some element of the
/// aggregated vector at quiescence.
///
/// # Panics
///
/// Panics if vector lengths are inconsistent or `tree.len() != graph.n()`.
pub fn converge_cast_vec(
    graph: &WeightedGraph,
    leader: NodeId,
    config: &SimConfig,
    tree: &[TreeInfo],
    values: &[Vec<u128>],
    op: Aggregate,
) -> Result<(Vec<u128>, RoundStats), SimError> {
    assert_eq!(values.len(), graph.n());
    assert_eq!(tree.len(), graph.n());
    let k = values[0].len();
    assert!(
        values.iter().all(|v| v.len() == k),
        "vector length mismatch"
    );
    if k == 0 {
        return Ok((Vec::new(), RoundStats::default()));
    }
    let (mut out, stats) = run_phase(graph, leader, config, "vector_cast", |v, _| {
        VecCastProgram {
            tree: tree[v].clone(),
            op,
            acc: values[v].clone(),
            seen: vec![0; k],
            next_send: 0,
            result: vec![None; k],
        }
    })?;
    let result = std::mem::take(&mut out[leader])
        .into_iter()
        .collect::<Option<Vec<u128>>>()
        .ok_or(SimError::PhaseIncomplete {
            phase: "vector_cast",
            node: leader,
        })?;
    Ok((result, stats))
}

type SeqItem = (u64, u128); // (sequence number, value)

enum PipeMsg {
    Count(u64),
    Item(SeqItem),
}

impl Clone for PipeMsg {
    fn clone(&self) -> PipeMsg {
        match self {
            PipeMsg::Count(c) => PipeMsg::Count(*c),
            PipeMsg::Item(it) => PipeMsg::Item(*it),
        }
    }
}

impl std::fmt::Debug for PipeMsg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipeMsg::Count(c) => write!(f, "Count({c})"),
            PipeMsg::Item((s, v)) => write!(f, "Item({s},{v})"),
        }
    }
}

impl Payload for PipeMsg {
    fn size_bits(&self) -> u32 {
        match self {
            PipeMsg::Count(c) => 1 + c.size_bits(),
            PipeMsg::Item((s, v)) => 1 + s.size_bits() + v.size_bits(),
        }
    }
}

struct PipelinedBroadcastProgram {
    tree: TreeInfo,
    items: Vec<u128>,       // leader's payload; empty elsewhere initially
    expected: Option<u64>,  // how many items to expect
    received: Vec<SeqItem>, // items received so far (in order of arrival)
    send_cursor: usize,     // next item index to forward down
    announced: bool,
}

impl NodeProgram for PipelinedBroadcastProgram {
    type Msg = PipeMsg;
    type Output = Vec<u128>;

    fn start(&mut self, ctx: &NodeCtx, mb: &mut Mailbox<PipeMsg>) {
        if ctx.is_leader() {
            self.expected = Some(self.items.len() as u64);
            for (i, &v) in self.items.iter().enumerate() {
                self.received.push((i as u64, v));
            }
            for &c in &self.tree.children {
                mb.send(c, PipeMsg::Count(self.items.len() as u64));
            }
            self.announced = true;
        }
    }

    fn round(
        &mut self,
        _ctx: &NodeCtx,
        _round: usize,
        inbox: &[(NodeId, PipeMsg)],
        mb: &mut Mailbox<PipeMsg>,
    ) -> Status {
        for (_, msg) in inbox {
            match msg {
                PipeMsg::Count(c) => {
                    self.expected = Some(*c);
                    if !self.announced {
                        for &ch in &self.tree.children {
                            mb.send(ch, PipeMsg::Count(*c));
                        }
                        self.announced = true;
                    }
                }
                PipeMsg::Item(it) => self.received.push(*it),
            }
        }
        // Forward one item per child per round (pipelining).
        if self.send_cursor < self.received.len() {
            let it = self.received[self.send_cursor];
            for &c in &self.tree.children {
                mb.send(c, PipeMsg::Item(it));
            }
            self.send_cursor += 1;
        }
        match self.expected {
            Some(c)
                if self.received.len() as u64 == c && self.send_cursor == self.received.len() =>
            {
                Status::Done
            }
            _ => Status::Running,
        }
    }

    fn finish(self, _ctx: &NodeCtx) -> Vec<u128> {
        let mut items = self.received;
        items.sort_unstable_by_key(|&(s, _)| s);
        items.into_iter().map(|(_, v)| v).collect()
    }
}

/// The leader broadcasts a list of `k` values to every node, pipelined along
/// `tree`: `O(depth + k)` rounds.
///
/// Returns the list as received at every node (all equal) plus statistics.
///
/// # Errors
///
/// Propagates simulator errors.
///
/// # Panics
///
/// Panics if `tree.len() != graph.n()`.
pub fn pipelined_broadcast(
    graph: &WeightedGraph,
    leader: NodeId,
    config: &SimConfig,
    tree: &[TreeInfo],
    items: &[u128],
) -> Result<(Vec<Vec<u128>>, RoundStats), SimError> {
    assert_eq!(tree.len(), graph.n());
    run_phase(graph, leader, config, "pipelined_broadcast", |v, _| {
        PipelinedBroadcastProgram {
            tree: tree[v].clone(),
            items: if v == leader {
                items.to_vec()
            } else {
                Vec::new()
            },
            expected: None,
            received: Vec::new(),
            send_cursor: 0,
            announced: false,
        }
    })
}

struct CollectProgram {
    tree: TreeInfo,
    /// Items this node contributes: (tag, value).
    own: Vec<SeqItem>,
    /// Items buffered for upward forwarding.
    queue: Vec<SeqItem>,
    cursor: usize,
    /// How many descendants' "end" markers are still missing.
    open_children: usize,
    finished_self: bool,
    collected: Vec<SeqItem>,
}

enum CollectMsg {
    Item(SeqItem),
    EndOfStream,
}

impl Clone for CollectMsg {
    fn clone(&self) -> CollectMsg {
        match self {
            CollectMsg::Item(it) => CollectMsg::Item(*it),
            CollectMsg::EndOfStream => CollectMsg::EndOfStream,
        }
    }
}

impl std::fmt::Debug for CollectMsg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CollectMsg::Item((t, v)) => write!(f, "Item({t},{v})"),
            CollectMsg::EndOfStream => write!(f, "End"),
        }
    }
}

impl Payload for CollectMsg {
    fn size_bits(&self) -> u32 {
        match self {
            CollectMsg::Item((t, v)) => 1 + t.size_bits() + v.size_bits(),
            CollectMsg::EndOfStream => 1,
        }
    }
}

impl NodeProgram for CollectProgram {
    type Msg = CollectMsg;
    type Output = Vec<SeqItem>;

    fn start(&mut self, _ctx: &NodeCtx, _mb: &mut Mailbox<CollectMsg>) {
        self.queue = self.own.clone();
        if self.tree.parent.is_none() {
            self.collected = self.own.clone();
        }
    }

    fn round(
        &mut self,
        _ctx: &NodeCtx,
        _round: usize,
        inbox: &[(NodeId, CollectMsg)],
        mb: &mut Mailbox<CollectMsg>,
    ) -> Status {
        for (from, msg) in inbox {
            match msg {
                CollectMsg::Item(it) => {
                    if self.tree.parent.is_none() {
                        self.collected.push(*it);
                    } else {
                        self.queue.push(*it);
                    }
                }
                // Only a listed child closes a stream: a faulted `bfs_tree`
                // can lose the `Adopt` that would have listed the sender, and
                // counting its marker would underflow `open_children`.
                CollectMsg::EndOfStream => {
                    if self.tree.children.binary_search(from).is_ok() {
                        self.open_children -= 1;
                    }
                }
            }
        }
        if let Some(p) = self.tree.parent {
            if self.cursor < self.queue.len() {
                mb.send(p, CollectMsg::Item(self.queue[self.cursor]));
                self.cursor += 1;
            } else if self.open_children == 0 && !self.finished_self {
                mb.send(p, CollectMsg::EndOfStream);
                self.finished_self = true;
            }
            if self.finished_self && self.cursor == self.queue.len() {
                Status::Done
            } else {
                Status::Running
            }
        } else {
            // Root is done once every child closed its stream.
            if self.open_children == 0 {
                Status::Done
            } else {
                Status::Running
            }
        }
    }

    fn finish(mut self, _ctx: &NodeCtx) -> Vec<SeqItem> {
        self.collected.sort_unstable();
        self.collected
    }
}

/// Pipelined upcast: every node contributes tagged values, the leader
/// collects them all. `O(depth + total items)` rounds.
///
/// Returns the `(tag, value)` pairs gathered at the leader (sorted), plus
/// statistics.
///
/// # Errors
///
/// Propagates simulator errors.
///
/// # Panics
///
/// Panics if `tree.len() != graph.n()` or `items.len() != graph.n()`.
pub fn collect_at_leader(
    graph: &WeightedGraph,
    leader: NodeId,
    config: &SimConfig,
    tree: &[TreeInfo],
    items: &[Vec<(u64, u128)>],
) -> Result<(Vec<(u64, u128)>, RoundStats), SimError> {
    assert_eq!(tree.len(), graph.n());
    assert_eq!(items.len(), graph.n());
    let (out, stats) = run_phase(graph, leader, config, "pipelined_collect", |v, _| {
        CollectProgram {
            tree: tree[v].clone(),
            own: items[v].clone(),
            queue: Vec::new(),
            cursor: 0,
            open_children: tree[v].children.len(),
            finished_self: false,
            collected: Vec::new(),
        }
    })?;
    Ok((out[leader].clone(), stats))
}

/// There is a subtlety in [`collect_at_leader`]'s round bound: one item per
/// round per tree edge gives `O(depth + total)` only because streams merge.
/// This helper exposes the measured bound for tests.
pub fn collect_round_bound(depth: usize, total_items: usize) -> usize {
    // depth to drain the deepest stream, +1 end-marker per level, + items.
    2 * depth + total_items + 4
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest_graph::generators;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn std_cfg(g: &WeightedGraph) -> SimConfig {
        SimConfig::standard(g.n(), g.max_weight())
    }

    #[test]
    fn bfs_tree_on_star() {
        let g = generators::star(6, 1);
        let (tree, stats) = bfs_tree(&g, 0, &std_cfg(&g)).unwrap();
        assert_eq!(tree[0].children.len(), 5);
        for v in 1..6 {
            assert_eq!(tree[v].parent, Some(0));
            assert_eq!(tree[v].depth, 1);
        }
        assert!(stats.rounds <= 4);
    }

    #[test]
    fn bfs_tree_depths_match_bfs() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let g = generators::erdos_renyi_connected(30, 0.1, 4, &mut rng);
        let (tree, _) = bfs_tree(&g, 3, &std_cfg(&g)).unwrap();
        let d = congest_graph::shortest_path::bfs(&g.unweighted_view(), 3);
        for v in g.nodes() {
            assert_eq!(tree[v].depth as u64, d[v].expect_finite(), "node {v}");
        }
    }

    #[test]
    fn bfs_tree_children_are_consistent() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let g = generators::erdos_renyi_connected(25, 0.15, 2, &mut rng);
        let (tree, _) = bfs_tree(&g, 0, &std_cfg(&g)).unwrap();
        for v in g.nodes() {
            for &c in &tree[v].children {
                assert_eq!(tree[c].parent, Some(v));
                assert_eq!(tree[c].depth, tree[v].depth + 1);
            }
        }
        let child_count: usize = tree.iter().map(|t| t.children.len()).sum();
        assert_eq!(child_count, g.n() - 1, "spanning tree has n-1 edges");
    }

    #[test]
    fn converge_cast_all_ops() {
        let g = generators::path(7, 1);
        let (tree, _) = bfs_tree(&g, 2, &std_cfg(&g)).unwrap();
        let values: Vec<u128> = (0..7).map(|v| (v as u128) * 10 + 1).collect();
        let (mx, _) = converge_cast(&g, 2, &std_cfg(&g), &tree, &values, Aggregate::Max).unwrap();
        assert_eq!(mx, 61);
        let (mn, _) = converge_cast(&g, 2, &std_cfg(&g), &tree, &values, Aggregate::Min).unwrap();
        assert_eq!(mn, 1);
        let (sm, _) = converge_cast(&g, 2, &std_cfg(&g), &tree, &values, Aggregate::Sum).unwrap();
        assert_eq!(sm, values.iter().sum::<u128>());
    }

    #[test]
    fn converge_cast_rounds_linear_in_depth() {
        let g = generators::path(20, 1);
        let (tree, _) = bfs_tree(&g, 0, &std_cfg(&g)).unwrap();
        let values = vec![1u128; 20];
        let (_, stats) =
            converge_cast(&g, 0, &std_cfg(&g), &tree, &values, Aggregate::Sum).unwrap();
        // Up 19 rounds + down 19 rounds + O(1).
        assert!(stats.rounds <= 2 * 19 + 3, "rounds = {}", stats.rounds);
    }

    #[test]
    fn pipelined_broadcast_delivers_in_order() {
        let g = generators::path(8, 1);
        let (tree, _) = bfs_tree(&g, 0, &std_cfg(&g)).unwrap();
        let items: Vec<u128> = (0..10u128).map(|x| x * x).collect();
        let (out, stats) = pipelined_broadcast(&g, 0, &std_cfg(&g), &tree, &items).unwrap();
        for v in 0..8 {
            assert_eq!(out[v], items, "node {v}");
        }
        // O(depth + k): depth 7, k 10.
        assert!(stats.rounds <= 7 + 10 + 4, "rounds = {}", stats.rounds);
    }

    #[test]
    fn pipelined_broadcast_empty_list() {
        let g = generators::star(4, 1);
        let (tree, _) = bfs_tree(&g, 0, &std_cfg(&g)).unwrap();
        let (out, _) = pipelined_broadcast(&g, 0, &std_cfg(&g), &tree, &[]).unwrap();
        assert!(out.iter().all(Vec::is_empty));
    }

    #[test]
    fn collect_gathers_everything() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let g = generators::erdos_renyi_connected(16, 0.2, 3, &mut rng);
        let (tree, _) = bfs_tree(&g, 0, &std_cfg(&g)).unwrap();
        let items: Vec<Vec<(u64, u128)>> = (0..16)
            .map(|v| {
                if v % 3 == 0 {
                    vec![(v as u64, (v * v) as u128)]
                } else {
                    vec![]
                }
            })
            .collect();
        let (got, stats) = collect_at_leader(&g, 0, &std_cfg(&g), &tree, &items).unwrap();
        let mut want: Vec<(u64, u128)> = items.iter().flatten().copied().collect();
        want.sort_unstable();
        assert_eq!(got, want);
        let depth = tree.iter().map(|t| t.depth).max().unwrap();
        assert!(stats.rounds <= collect_round_bound(depth, want.len()));
    }

    #[test]
    fn collect_pipelines_rather_than_serializes() {
        // 40 items over a depth-10 path must take ≈ depth + items rounds,
        // far below items × depth.
        let g = generators::path(11, 1);
        let (tree, _) = bfs_tree(&g, 0, &std_cfg(&g)).unwrap();
        let items: Vec<Vec<(u64, u128)>> = (0..11)
            .map(|v| (0..4).map(|j| ((v * 4 + j) as u64, 1u128)).collect())
            .collect();
        let (got, stats) = collect_at_leader(&g, 0, &std_cfg(&g), &tree, &items).unwrap();
        assert_eq!(got.len(), 44);
        assert!(
            stats.rounds <= collect_round_bound(10, 44),
            "rounds = {} not pipelined",
            stats.rounds
        );
    }

    #[test]
    fn collect_ignores_end_markers_from_non_children() {
        // Path 0–1–2 with node 2's `Adopt` lost: 2 names 1 as its parent,
        // but 1 lists no children.
        let g = generators::path(3, 1);
        let tree = vec![
            TreeInfo {
                parent: None,
                children: vec![1],
                depth: 0,
            },
            TreeInfo {
                parent: Some(0),
                children: vec![],
                depth: 1,
            },
            TreeInfo {
                parent: Some(1),
                children: vec![],
                depth: 2,
            },
        ];
        let items = vec![vec![(0, 10)], vec![(1, 11)], vec![(2, 12)]];
        let (got, stats) = collect_at_leader(&g, 0, &std_cfg(&g), &tree, &items).unwrap();
        // Round 1: node 1 sends its own item, node 2 its item. Round 2: node
        // 1 forwards node 2's item (items from a non-child are still
        // forwarded) while node 2 sends its end marker. Round 3: node 1
        // ignores that marker, having no open children, and closes its own
        // stream. Round 4: that marker reaches the leader, which is done.
        // Every item reaches the leader.
        assert_eq!(got, vec![(0, 10), (1, 11), (2, 12)]);
        assert_eq!(stats.rounds, 4);
    }

    #[test]
    fn converge_cast_ignores_ups_from_non_children() {
        // Path 0–1–2 with node 2's `Adopt` lost: 2 names 1 as its parent,
        // but 1 lists no children.
        let g = generators::path(3, 1);
        let tree = vec![
            TreeInfo {
                parent: None,
                children: vec![1],
                depth: 0,
            },
            TreeInfo {
                parent: Some(0),
                children: vec![],
                depth: 1,
            },
            TreeInfo {
                parent: Some(1),
                children: vec![],
                depth: 2,
            },
        ];
        let cfg = std_cfg(&g).with_max_rounds(100);
        let err = converge_cast(&g, 0, &cfg, &tree, &[1, 2, 3], Aggregate::Max).unwrap_err();
        // Nodes 1 and 2 send `Up` at the start. Round 1: the leader hears
        // node 1, finishes and sends `Down` to it; node 1 folds node 2's
        // `Up` in without waiting on it. Round 2: node 1 learns the result
        // and, listing no children, forwards it to nobody. So node 2 never
        // hears a `Down` and the cast waits out the cap instead of
        // underflowing.
        assert_eq!(
            err,
            SimError::RoundLimitExceeded {
                max_rounds: 100,
                rounds_executed: 100,
            }
        );
    }

    use congest_graph::WeightedGraph;

    #[test]
    fn vector_converge_cast_elementwise() {
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let g = generators::erdos_renyi_connected(14, 0.2, 2, &mut rng);
        let (tree, _) = bfs_tree(&g, 0, &std_cfg(&g)).unwrap();
        let k = 6;
        let values: Vec<Vec<u128>> = (0..14)
            .map(|v| (0..k).map(|j| ((v * 7 + j * 13) % 50) as u128).collect())
            .collect();
        let (got, stats) =
            converge_cast_vec(&g, 0, &std_cfg(&g), &tree, &values, Aggregate::Max).unwrap();
        for j in 0..k {
            let want = (0..14).map(|v| values[v][j]).max().unwrap();
            assert_eq!(got[j], want, "element {j}");
        }
        let depth = tree.iter().map(|t| t.depth).max().unwrap();
        assert!(
            stats.rounds <= 2 * (depth + k) + 8,
            "pipelined: {}",
            stats.rounds
        );
    }

    #[test]
    fn vector_converge_cast_pipelines() {
        // k = 30 elements over a depth-12 path: O(depth + k), not O(depth·k).
        let g = generators::path(13, 1);
        let (tree, _) = bfs_tree(&g, 0, &std_cfg(&g)).unwrap();
        let values: Vec<Vec<u128>> = (0..13)
            .map(|v| (0..30).map(|j| (v + j) as u128).collect())
            .collect();
        let (got, stats) =
            converge_cast_vec(&g, 0, &std_cfg(&g), &tree, &values, Aggregate::Min).unwrap();
        assert_eq!(got.len(), 30);
        for (j, &x) in got.iter().enumerate() {
            assert_eq!(x, j as u128);
        }
        assert!(
            stats.rounds <= 2 * (12 + 30) + 8,
            "rounds = {}",
            stats.rounds
        );
    }

    #[test]
    fn vector_converge_cast_empty() {
        let g = generators::path(3, 1);
        let (tree, _) = bfs_tree(&g, 0, &std_cfg(&g)).unwrap();
        let values = vec![Vec::new(); 3];
        let (got, _) =
            converge_cast_vec(&g, 0, &std_cfg(&g), &tree, &values, Aggregate::Sum).unwrap();
        assert!(got.is_empty());
    }
}
