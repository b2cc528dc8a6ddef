//! Deterministic, seed-driven network fault injection.
//!
//! The CONGEST model (and the paper's Theorem 1.1 pipeline) assumes an
//! ideal, lossless synchronous network. This module models the ways a real
//! deployment deviates from that ideal — message loss, per-link bit
//! throttling, node crashes, and adversarial loss bursts — so the
//! degradation of an algorithm can be *measured* instead of assumed.
//!
//! # Fault taxonomy
//!
//! A [`FaultPlan`] describes, declaratively:
//!
//! * a global per-message **drop probability** ([`FaultPlan::with_drop_rate`]);
//! * per-directed-link drop-rate **overrides** ([`FaultPlan::with_link_drop`]);
//! * per-directed-link **bit throttles** tighter than the configured
//!   bandwidth ([`FaultPlan::with_throttle`]) — excess messages on a
//!   throttled link are discarded, emitting
//!   [`TraceEvent::LinkThrottled`](crate::TraceEvent::LinkThrottled);
//! * node **crash/recover windows** ([`FaultPlan::with_crash`]) — a crashed
//!   node executes no rounds and loses every message addressed to it, but
//!   keeps its local state and resumes where it left off when the window
//!   closes (crash-recovery with stable memory);
//! * adversarial **burst windows** ([`FaultPlan::with_burst`]) — round
//!   intervals during which the drop probability is elevated network-wide.
//!
//! # Determinism guarantee
//!
//! Every fault decision is a pure function of `(plan seed, round, sender,
//! receiver, per-link message index)` — no shared RNG stream, no dependence
//! on delivery order. Two runs with the same plan, graph, and program are
//! bit-identical: same outputs, same [`RoundStats`](crate::RoundStats),
//! same telemetry trace. A plan with no knobs set (all-zero) makes the
//! faulty delivery path behave *exactly* like the plain one; both
//! properties are enforced by proptests in `tests/faults.rs`.
//!
//! # Example
//!
//! ```
//! use congest_sim::faults::FaultPlan;
//! use congest_sim::SimConfig;
//!
//! let plan = FaultPlan::new(42)
//!     .with_drop_rate(0.05)
//!     .with_link_drop(0, 1, 0.5)
//!     .with_throttle(2, 3, 8)
//!     .with_crash(4, 10, Some(20))
//!     .with_burst(30, 40, 0.8);
//! let config = SimConfig::standard(16, 1).with_faults(plan);
//! assert!(config.faults.is_some());
//! ```

use congest_graph::NodeId;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use wdr_metrics::util::mix64;

/// A per-directed-link drop-rate override.
#[derive(Clone, Copy, PartialEq, Debug, Serialize, Deserialize)]
pub struct LinkFault {
    /// Sender side of the directed link.
    pub from: NodeId,
    /// Receiver side of the directed link.
    pub to: NodeId,
    /// Drop probability on this link (overrides the global rate).
    pub drop_rate: f64,
}

/// A per-directed-link bit throttle.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct LinkThrottle {
    /// Sender side of the directed link.
    pub from: NodeId,
    /// Receiver side of the directed link.
    pub to: NodeId,
    /// Bits this link actually carries per round; messages that would push
    /// the per-round total beyond this are dropped (the configured
    /// [`Bandwidth`](crate::Bandwidth) is still enforced first, as an
    /// error — the throttle models a *degraded* link, not a cheating one).
    pub budget_bits: u32,
}

/// A node crash window: the node is down for rounds
/// `from_round..until_round` (1-based, half-open); `until_round = None`
/// means it never recovers.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct CrashWindow {
    /// The crashing node.
    pub node: NodeId,
    /// First round (1-based) the node is down.
    pub from_round: usize,
    /// First round the node is back up (`None` = crashed forever).
    pub until_round: Option<usize>,
}

/// An adversarial burst window: rounds `from_round..until_round` during
/// which every link drops with probability at least `drop_rate`.
#[derive(Clone, Copy, PartialEq, Debug, Serialize, Deserialize)]
pub struct BurstWindow {
    /// First round (1-based) of the burst.
    pub from_round: usize,
    /// First round after the burst.
    pub until_round: usize,
    /// Elevated drop probability during the window.
    pub drop_rate: f64,
}

/// Why a message was dropped (attached to
/// [`TraceEvent::MessageDropped`](crate::TraceEvent::MessageDropped)).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum DropReason {
    /// Lost to the link's steady-state drop rate.
    Random,
    /// Lost during an adversarial burst window.
    Burst,
    /// Discarded because the link's throttle budget was exhausted.
    Throttled,
    /// The receiver was crashed in the delivery round.
    ReceiverCrashed,
}

/// A declarative, seed-driven description of the faults to inject into a
/// simulation. Attach with [`SimConfig::with_faults`](crate::SimConfig::with_faults).
///
/// All knobs default to "no fault"; [`FaultPlan::new`] with no further
/// builder calls is behaviorally identical to running without a plan.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Seed for the per-message drop decisions (see the module docs for the
    /// determinism guarantee).
    pub seed: u64,
    /// Global per-message drop probability (`0.0` = lossless).
    pub drop_rate: f64,
    /// Per-directed-link drop-rate overrides.
    pub link_faults: Vec<LinkFault>,
    /// Per-directed-link bit throttles.
    pub link_throttles: Vec<LinkThrottle>,
    /// Node crash/recover schedules.
    pub crashes: Vec<CrashWindow>,
    /// Adversarial burst windows.
    pub bursts: Vec<BurstWindow>,
}

impl FaultPlan {
    /// An all-zero plan (no faults) with the given decision seed.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            drop_rate: 0.0,
            link_faults: Vec::new(),
            link_throttles: Vec::new(),
            crashes: Vec::new(),
            bursts: Vec::new(),
        }
    }

    /// Sets the global drop probability (builder style).
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    pub fn with_drop_rate(mut self, p: f64) -> FaultPlan {
        assert!((0.0..=1.0).contains(&p), "drop rate must be in [0, 1]");
        self.drop_rate = p;
        self
    }

    /// Overrides the drop probability on the directed link `from → to`
    /// (builder style).
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    pub fn with_link_drop(mut self, from: NodeId, to: NodeId, p: f64) -> FaultPlan {
        assert!((0.0..=1.0).contains(&p), "drop rate must be in [0, 1]");
        self.link_faults.push(LinkFault {
            from,
            to,
            drop_rate: p,
        });
        self
    }

    /// Throttles the directed link `from → to` to `budget_bits` bits per
    /// round (builder style); messages beyond the budget are discarded.
    pub fn with_throttle(mut self, from: NodeId, to: NodeId, budget_bits: u32) -> FaultPlan {
        self.link_throttles.push(LinkThrottle {
            from,
            to,
            budget_bits,
        });
        self
    }

    /// Crashes `node` for rounds `from_round..until_round` (builder style);
    /// `None` means the node never recovers.
    pub fn with_crash(
        mut self,
        node: NodeId,
        from_round: usize,
        until_round: Option<usize>,
    ) -> FaultPlan {
        self.crashes.push(CrashWindow {
            node,
            from_round,
            until_round,
        });
        self
    }

    /// Adds an adversarial burst window (builder style).
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    pub fn with_burst(mut self, from_round: usize, until_round: usize, p: f64) -> FaultPlan {
        assert!((0.0..=1.0).contains(&p), "drop rate must be in [0, 1]");
        self.bursts.push(BurstWindow {
            from_round,
            until_round,
            drop_rate: p,
        });
        self
    }

    /// `true` if this plan can never inject a fault (behaviorally identical
    /// to running without one).
    pub fn is_zero(&self) -> bool {
        self.drop_rate == 0.0
            && self.link_faults.iter().all(|l| l.drop_rate == 0.0)
            && self.link_throttles.is_empty()
            && self.crashes.is_empty()
            && self.bursts.iter().all(|b| b.drop_rate == 0.0)
    }

    /// Compiles the plan into the per-round oracle the network consults.
    pub fn compile(&self) -> FaultOracle {
        FaultOracle {
            seed: self.seed,
            drop_rate: self.drop_rate,
            link_rates: self
                .link_faults
                .iter()
                .map(|l| ((l.from, l.to), l.drop_rate))
                .collect(),
            throttles: self
                .link_throttles
                .iter()
                .map(|t| ((t.from, t.to), t.budget_bits))
                .collect(),
            crashes: self.crashes.clone(),
            bursts: self.bursts.clone(),
        }
    }
}

/// The compiled form of a [`FaultPlan`]: O(1) per-message decisions,
/// consulted by the network's delivery path.
#[derive(Clone, Debug)]
pub struct FaultOracle {
    seed: u64,
    drop_rate: f64,
    link_rates: HashMap<(NodeId, NodeId), f64>,
    throttles: HashMap<(NodeId, NodeId), u32>,
    crashes: Vec<CrashWindow>,
    bursts: Vec<BurstWindow>,
}

impl FaultOracle {
    /// A uniform draw in `[0, 1)`, keyed purely on the decision coordinates
    /// (see the module docs: this is what makes traces replayable).
    fn unit(&self, round: usize, from: NodeId, to: NodeId, k: u64) -> f64 {
        let h = mix64(
            self.seed
                .wrapping_add(mix64(round as u64))
                .wrapping_add(mix64((from as u64).wrapping_mul(0x517c_c1b7_2722_0a95)))
                .wrapping_add(mix64((to as u64).wrapping_mul(0x2545_f491_4f6c_dd1d)))
                .wrapping_add(mix64(k)),
        );
        (h >> 11) as f64 / (1u64 << 53) as f64
    }

    /// The burst drop rate active in `round`, if any.
    fn burst_rate(&self, round: usize) -> Option<f64> {
        self.bursts
            .iter()
            .filter(|b| round >= b.from_round && round < b.until_round)
            .map(|b| b.drop_rate)
            .fold(None, |acc, p| Some(acc.map_or(p, |a: f64| a.max(p))))
    }

    /// Decides whether the `k`-th message on link `from → to` in delivery
    /// round `round` is lost; returns the cause if so.
    pub fn drops(&self, round: usize, from: NodeId, to: NodeId, k: u64) -> Option<DropReason> {
        let link = *self.link_rates.get(&(from, to)).unwrap_or(&self.drop_rate);
        let burst = self.burst_rate(round);
        let (p, reason) = match burst {
            Some(b) if b > link => (b, DropReason::Burst),
            _ => (link, DropReason::Random),
        };
        (p > 0.0 && self.unit(round, from, to, k) < p).then_some(reason)
    }

    /// The throttle budget of link `from → to`, if throttled.
    pub fn throttle(&self, from: NodeId, to: NodeId) -> Option<u32> {
        self.throttles.get(&(from, to)).copied()
    }

    /// `true` if `node` is up in `round` (1-based).
    pub fn node_alive(&self, node: NodeId, round: usize) -> bool {
        !self.crashes.iter().any(|c| {
            c.node == node && round >= c.from_round && c.until_round.is_none_or(|u| round < u)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_plan_never_faults() {
        let oracle = FaultPlan::new(7).compile();
        assert!(FaultPlan::new(7).is_zero());
        for round in 1..50 {
            for k in 0..4 {
                assert_eq!(oracle.drops(round, 0, 1, k), None);
            }
            assert!(oracle.node_alive(0, round));
        }
        assert_eq!(oracle.throttle(0, 1), None);
    }

    #[test]
    fn decisions_are_reproducible_and_order_free() {
        let oracle = FaultPlan::new(99).with_drop_rate(0.5).compile();
        let again = FaultPlan::new(99).with_drop_rate(0.5).compile();
        for round in 1..20 {
            for k in 0..8 {
                assert_eq!(
                    oracle.drops(round, 3, 4, k),
                    again.drops(round, 3, 4, k),
                    "decision must be a pure function of its coordinates"
                );
            }
        }
    }

    #[test]
    fn drop_rate_is_roughly_respected() {
        let oracle = FaultPlan::new(1).with_drop_rate(0.25).compile();
        let mut dropped = 0u32;
        let trials = 10_000usize;
        for i in 0..trials {
            if oracle
                .drops(1 + i % 100, i % 7, (i + 1) % 7, (i / 100) as u64)
                .is_some()
            {
                dropped += 1;
            }
        }
        let rate = f64::from(dropped) / trials as f64;
        assert!((rate - 0.25).abs() < 0.03, "empirical rate {rate}");
    }

    #[test]
    fn link_override_beats_global_rate() {
        let oracle = FaultPlan::new(5)
            .with_drop_rate(1.0)
            .with_link_drop(0, 1, 0.0)
            .compile();
        for k in 0..20 {
            assert_eq!(oracle.drops(1, 0, 1, k), None, "overridden link lossless");
            assert_eq!(oracle.drops(1, 1, 0, k), Some(DropReason::Random));
        }
    }

    #[test]
    fn burst_window_elevates_and_labels() {
        let oracle = FaultPlan::new(3).with_burst(5, 8, 1.0).compile();
        assert_eq!(oracle.drops(4, 0, 1, 0), None);
        assert_eq!(oracle.drops(5, 0, 1, 0), Some(DropReason::Burst));
        assert_eq!(oracle.drops(7, 0, 1, 0), Some(DropReason::Burst));
        assert_eq!(oracle.drops(8, 0, 1, 0), None);
    }

    #[test]
    fn crash_windows_cover_rounds() {
        let oracle = FaultPlan::new(0)
            .with_crash(2, 3, Some(6))
            .with_crash(4, 10, None)
            .compile();
        assert!(oracle.node_alive(2, 2));
        assert!(!oracle.node_alive(2, 3));
        assert!(!oracle.node_alive(2, 5));
        assert!(oracle.node_alive(2, 6));
        assert!(oracle.node_alive(4, 9));
        assert!(!oracle.node_alive(4, 1_000_000));
        assert!(oracle.node_alive(0, 1));
    }

    #[test]
    fn plan_serializes_to_inspectable_json() {
        let plan = FaultPlan::new(11)
            .with_drop_rate(0.1)
            .with_throttle(1, 2, 8)
            .with_crash(0, 5, Some(9))
            .with_burst(2, 4, 0.9);
        let json = serde_json::to_string(&plan).unwrap();
        let v = serde_json::from_str(&json).unwrap();
        assert_eq!(v.get("seed").and_then(|s| s.as_u64()), Some(11));
        assert_eq!(v.get("drop_rate").and_then(|d| d.as_f64()), Some(0.1));
        let crashes = v.get("crashes").and_then(|c| c.as_array()).unwrap();
        assert_eq!(
            crashes[0].get("until_round").and_then(|u| u.as_u64()),
            Some(9)
        );
    }
}
