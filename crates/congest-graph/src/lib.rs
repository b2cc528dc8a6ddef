//! # congest-graph
//!
//! Weighted-graph substrate for the reproduction of *Wu & Yao, "Quantum
//! Complexity of Weighted Diameter and Radius in CONGEST Networks"*
//! (PODC 2022).
//!
//! This crate provides everything the paper's Section 2.1 and Section 3.1
//! assume about graphs, implemented centrally (no network):
//!
//! * [`WeightedGraph`] — undirected graphs with positive integer weights in
//!   CSR form, built through [`GraphBuilder`];
//! * [`shortest_path`] — Dijkstra, Bellman–Ford, BFS, Floyd–Warshall, and
//!   the hop-bounded distance `d^ℓ`;
//! * [`metrics`] — eccentricity, diameter `D_{G,w}`, radius `R_{G,w}`,
//!   unweighted diameter `D_G`, hop distance and hop diameter `H_{G,w}`;
//! * [`sweep`] — pruned SumSweep-style diameter/radius computation with
//!   eccentricity bounds, the ground-truth kernel behind [`metrics`];
//! * [`SsspWorkspace`] — reusable scratch so multi-source shortest-path
//!   loops run allocation-free, with a Dial bucket queue for small weights;
//! * [`SweepWorkspace`] — the same reuse for whole extremes queries, plus
//!   [`GraphDigest`], the stable FNV-1a content hash that batch grouping
//!   and ablation provenance key on;
//! * [`DistMatrix`] — flat single-allocation all-pairs distance tables;
//! * [`rounding`] — the weight-rounding scheme `w_i` and approximate
//!   bounded-hop distance `d̃^ℓ` (Lemma 3.2);
//! * [`overlay`] — skeleton overlays `(G'_S, w'_S)`, k-shortcut graphs
//!   `(G''_S, w''_S)`, and the approximate distance `d̃_{G,w,S}`
//!   (Lemma 3.3);
//! * [`contract`] — contraction of weight-1 edges (Lemma 4.3);
//! * [`generators`] — deterministic and seeded-random workloads, including
//!   the streaming million-node families of [`generators::stream`] and
//!   their two-pass [`generators::stream::GraphWriter`];
//! * [`dot`] — Graphviz emission for the figure-regeneration harness.
//!
//! # Examples
//!
//! Compute the exact weighted diameter of a random connected graph and
//! compare it with the skeleton-based approximation of Lemma 3.3:
//!
//! ```
//! use congest_graph::{generators, metrics, overlay, rounding::RoundingScheme};
//! use rand::SeedableRng;
//!
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
//! let g = generators::erdos_renyi_connected(24, 0.2, 10, &mut rng);
//! let exact = metrics::diameter(&g).as_f64();
//!
//! let skeleton: Vec<_> = (0..g.n()).step_by(3).collect();
//! let scheme = RoundingScheme::new(g.n(), 0.25);
//! let sd = overlay::SkeletonDistances::compute(&g, &skeleton, scheme, 3);
//! let approx = sd
//!     .skeleton
//!     .iter()
//!     .map(|&s| sd.approx_eccentricity(s))
//!     .fold(0.0f64, f64::max);
//! assert!(approx <= 1.6 * exact); // (1+ε)² with ε = 0.25
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod contract;
mod digest;
mod dist;
pub mod dot;
pub mod generators;
mod graph;
mod matrix;
pub mod metrics;
pub mod overlay;
pub mod rounding;
pub mod shortest_path;
pub mod sweep;
mod workspace;

pub use digest::GraphDigest;
pub use dist::Dist;
pub use graph::{BuildGraphError, Edge, GraphBuilder, NodeId, Weight, WeightedGraph};
pub use matrix::DistMatrix;
pub use sweep::{EdgeMetric, SweepResult, SweepWorkspace};
pub use workspace::{KernelCounters, SsspWorkspace, DIAL_MAX_WEIGHT};
