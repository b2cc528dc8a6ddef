//! # congest-sim
//!
//! A synchronous CONGEST-model network simulator (paper Section 2.2) for the
//! reproduction of *Wu & Yao, "Quantum Complexity of Weighted Diameter and
//! Radius in CONGEST Networks"* (PODC 2022).
//!
//! A network is a weighted graph; each node runs a [`NodeProgram`] with free
//! local computation, and in every synchronous round exchanges messages of
//! at most `B = O(log n)` bits with each neighbor. The simulator:
//!
//! * counts **rounds** — the complexity measure all of the paper's results
//!   are about;
//! * enforces the per-channel **bandwidth** budget ([`Bandwidth`]), so an
//!   algorithm cannot accidentally cheat by shipping big payloads;
//! * optionally records a full **message log** ([`SimConfig::with_message_log`]),
//!   which the Lemma 4.1 Server-model simulation consumes;
//! * emits structured **[`telemetry`]**: named phase spans, one
//!   [`TraceEvent::RoundCompleted`] per simulated round, channel-saturation
//!   warnings, and (with [`SimConfig::with_channel_profile`]) a streaming
//!   per-channel bandwidth histogram — all through a pluggable [`Tracer`]
//!   sink that costs nothing when disabled (the default);
//! * provides the standard `O(D)` / `O(D + k)` [`primitives`]:
//!   BFS-tree construction, scalar and vector convergecasts, pipelined
//!   broadcast and pipelined collection — plus flood-max [`election`]
//!   for networks without a pre-defined leader;
//! * injects deterministic, seed-driven **[`faults`]** (message drops,
//!   link throttles, node crashes, adversarial bursts) when a
//!   [`FaultPlan`] is attached, counting what they cost in a separate
//!   [`ResilienceBudget`] so headline round counts stay comparable to
//!   the lossless model;
//! * counts into a metrics registry through the **[`metrics`]** bundle
//!   [`SimMetrics`], a [`Tracer`] attached with
//!   [`SimConfig::with_telemetry`]: cross-run counters and per-round
//!   histograms updated with a few relaxed atomic adds per round.
//!
//! # Examples
//!
//! Build a BFS tree and aggregate a maximum at the leader:
//!
//! ```
//! use congest_sim::{primitives, SimConfig};
//! use congest_graph::generators;
//!
//! let g = generators::grid(4, 4, 1);
//! let cfg = SimConfig::standard(g.n(), 1);
//! let (tree, _) = primitives::bfs_tree(&g, 0, &cfg)?;
//! let values: Vec<u128> = (0..16).map(|v| v as u128).collect();
//! let (max, stats) =
//!     primitives::converge_cast(&g, 0, &cfg, &tree, &values, primitives::Aggregate::Max)?;
//! assert_eq!(max, 15);
//! assert!(stats.rounds <= 2 * 6 + 3); // up + down the depth-6 tree
//! # Ok::<(), congest_sim::SimError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod election;
pub mod faults;
pub mod metrics;
mod model;
mod network;
pub mod primitives;
pub mod telemetry;

pub use faults::FaultPlan;
pub use metrics::SimMetrics;
pub use model::{
    bit_len, Bandwidth, MessageRecord, NodeCtx, Payload, ResilienceBudget, RoundStats, SimConfig,
    SimError, Status, DEFAULT_MESSAGE_LOG_CAP,
};
pub use network::{run_phase, Mailbox, Network, NodeProgram};
pub use telemetry::{Telemetry, TraceEvent, Tracer};
