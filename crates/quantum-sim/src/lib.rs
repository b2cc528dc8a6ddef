//! # quantum-sim
//!
//! The quantum substrate for the reproduction of *Wu & Yao, "Quantum
//! Complexity of Weighted Diameter and Radius in CONGEST Networks"*
//! (PODC 2022).
//!
//! The paper's algorithms run Grover-type searches inside a quantum CONGEST
//! network. A full statevector of a distributed network is infeasible (and
//! irrelevant to the paper's observable — the *round count*), so this crate
//! provides two coordinated levels:
//!
//! * [`statevector`] — an honest dense simulator (gates, oracles, Grover)
//!   for up to ~20 qubits, used to **validate** the analytic model;
//! * [`grover`] — the exact two-dimensional Grover dynamics
//!   (`sin²((2j+1)θ)`), cross-checked against the statevector in tests;
//! * [`search`] — BBHT unknown-marked-count search, Dürr–Høyer max/min
//!   finding, and the Lemma 3.1 primitive [`search::find_above_threshold`],
//!   all sampling from the exact measurement distribution and reporting
//!   iteration traces that the CONGEST layer converts into rounds.
//!
//! # Examples
//!
//! ```
//! use quantum_sim::{grover, search};
//! use rand::SeedableRng;
//!
//! // Analytic model: 1 marked in 64, 6 iterations is near-optimal.
//! assert!(grover::success_probability(1.0 / 64.0, 6) > 0.99);
//!
//! // Search with faithful iteration accounting.
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(42);
//! let out = search::bbht(64, &[13], &mut rng, 1_000);
//! assert_eq!(out.found, Some(13));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod complex;
pub mod grover;
pub mod instrument;
pub mod mutation;
pub mod search;
pub mod statevector;

pub use complex::Complex;
pub use instrument::SearchMetrics;
pub use search::{OptimizeOutcome, SearchOutcome, SearchTrace};
pub use statevector::StateVector;
