//! Shared fixtures for the congest-sim integration tests: the in-memory
//! trace sink, the canonical golden-trace event sequence (one instance,
//! used by every test that pins the JSONL interchange format — keep it in
//! sync with `tests/golden/trace.jsonl`), and a sleeping node program with
//! its every-round twin.

#![allow(dead_code)] // each integration-test binary uses a subset

use congest_graph::NodeId;
use congest_sim::{Mailbox, NodeCtx, NodeProgram, Status, TraceEvent};
use std::sync::{Arc, Mutex};
use wdr_metrics::util::mix64;

/// Gossip that sleeps for hashed intervals. At each wake it broadcasts its
/// digest and draws the next wake, `0..max_nap` rounds on, from the digest
/// (a draw at or before the next round means "step me next round"). A
/// delivery in between folds the messages in and sometimes answers the
/// first sender. From `deadline` on it is `Done` and sends nothing.
///
/// It keeps the [`Status::Sleep`] contract: stepped before its wake with an
/// empty inbox, it changes nothing and sends nothing. The fold is
/// order-sensitive, so any change in delivery order shows in the output.
pub struct Napper {
    pub digest: u64,
    pub wake: usize,
    pub deadline: usize,
    pub max_nap: u64,
}

impl Napper {
    pub fn new(deadline: usize, max_nap: u64) -> Napper {
        Napper {
            digest: 0,
            wake: 0,
            deadline,
            max_nap: max_nap.max(1),
        }
    }
}

impl NodeProgram for Napper {
    type Msg = u64;
    type Output = u64;

    fn start(&mut self, ctx: &NodeCtx, mb: &mut Mailbox<u64>) {
        self.digest = mix64(ctx.id as u64 + 1);
        self.wake = 1 + (self.digest % self.max_nap) as usize;
        if self.digest.is_multiple_of(2) {
            mb.broadcast(ctx, self.digest);
        }
    }

    fn round(
        &mut self,
        ctx: &NodeCtx,
        round: usize,
        inbox: &[(NodeId, u64)],
        mb: &mut Mailbox<u64>,
    ) -> Status {
        for &(from, d) in inbox {
            self.digest = mix64(self.digest.rotate_left(7) ^ d ^ from as u64);
        }
        if round >= self.deadline {
            return Status::Done;
        }
        if round >= self.wake {
            mb.broadcast(ctx, self.digest);
            self.wake = round + (self.digest % self.max_nap) as usize;
        } else if let Some(&(from, _)) = inbox.first() {
            if self.digest.is_multiple_of(3) {
                mb.send(from, self.digest);
            }
        }
        Status::Sleep(self.wake.min(self.deadline))
    }

    fn finish(self, _ctx: &NodeCtx) -> u64 {
        mix64(self.digest ^ self.wake as u64)
    }
}

/// `P` with every [`Status::Sleep`] reported as [`Status::Running`]: the
/// engine steps it in every round.
pub struct Dense<P>(pub P);

impl<P: NodeProgram> NodeProgram for Dense<P> {
    type Msg = P::Msg;
    type Output = P::Output;

    fn start(&mut self, ctx: &NodeCtx, mb: &mut Mailbox<P::Msg>) {
        self.0.start(ctx, mb);
    }

    fn round(
        &mut self,
        ctx: &NodeCtx,
        round: usize,
        inbox: &[(NodeId, P::Msg)],
        mb: &mut Mailbox<P::Msg>,
    ) -> Status {
        match self.0.round(ctx, round, inbox, mb) {
            Status::Sleep(_) => Status::Running,
            status => status,
        }
    }

    fn finish(self, ctx: &NodeCtx) -> P::Output {
        self.0.finish(ctx)
    }
}

/// An `io::Write` that appends into a shared buffer, for capturing
/// `JsonlTracer` output inside a test.
#[derive(Clone, Default)]
pub struct SharedBuf(pub Arc<Mutex<Vec<u8>>>);

impl SharedBuf {
    /// The captured bytes as a UTF-8 string.
    pub fn contents(&self) -> String {
        String::from_utf8(self.0.lock().unwrap().clone()).unwrap()
    }
}

impl std::io::Write for SharedBuf {
    fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(data);
        Ok(data.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// The canonical event sequence behind `tests/golden/trace.jsonl`: one of
/// every `TraceEvent` variant, in a realistic nesting. Any change to the
/// serialized shape must update the golden file *and* this fixture together.
pub fn golden_events() -> Vec<TraceEvent> {
    vec![
        TraceEvent::PhaseStart {
            name: "outer".to_string(),
        },
        TraceEvent::PhaseStart {
            name: "inner".to_string(),
        },
        TraceEvent::RoundCompleted {
            round: 1,
            messages: 4,
            bits: 32,
            max_channel_bits: 8,
        },
        TraceEvent::ChannelSaturation {
            round: 1,
            from: 0,
            to: 1,
            bits: 30,
            budget_bits: 32,
        },
        TraceEvent::PhaseEnd {
            name: "inner".to_string(),
        },
        TraceEvent::PadRounds {
            rounds: 3,
            reason: "fixed schedule".to_string(),
        },
        TraceEvent::ChannelProfile {
            channel_rounds: 2,
            p50_bits: 8,
            p95_bits: 30,
            max_bits: 30,
            hot_edges: vec![congest_sim::telemetry::HotEdge {
                from: 0,
                to: 1,
                bits: 62,
            }],
        },
        TraceEvent::GroverIteration {
            label: "outer_search".to_string(),
            iterations: 17,
            oracle_queries: 19,
        },
        TraceEvent::MessageDropped {
            round: 2,
            from: 0,
            to: 1,
            bits: 8,
            reason: congest_sim::faults::DropReason::Random,
        },
        TraceEvent::NodeCrashed { node: 3, round: 2 },
        TraceEvent::NodeRecovered { node: 3, round: 5 },
        TraceEvent::LinkThrottled {
            round: 2,
            from: 1,
            to: 2,
            budget_bits: 16,
        },
        TraceEvent::MessageLogTruncated { round: 4, cap: 100 },
        TraceEvent::PhaseEnd {
            name: "outer".to_string(),
        },
    ]
}
