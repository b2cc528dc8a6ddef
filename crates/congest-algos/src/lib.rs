//! # congest-algos
//!
//! Distributed shortest-path algorithms for the reproduction of *Wu & Yao,
//! "Quantum Complexity of Weighted Diameter and Radius in CONGEST Networks"*
//! (PODC 2022): the complete toolkit of the paper's Appendix A (from
//! Nanongkai, STOC 2014), implemented as genuine message-passing programs on
//! the [`congest_sim`] simulator, plus the classical baselines of Table 1.
//!
//! * [`bounded_sssp`] — Algorithm 2 (Bounded-Distance SSSP) and Algorithm 1
//!   (Bounded-Hop SSSP via weight rounding, Lemma 3.2/A.1);
//! * [`multi_source`] — Algorithm 3 (random-delay concurrent multi-source,
//!   Lemma A.2);
//! * [`overlay_net`] — Algorithm 4 (overlay embedding, Lemma A.3) and
//!   Algorithm 5 (SSSP on the overlay, Lemma A.4);
//! * [`skeleton`] — the composed `Initialization_i` / `Evaluation` pipeline
//!   of Lemma 3.5, producing approximate eccentricities `ẽ_{G,w,i}(s)`;
//! * [`baselines`] — exact classical APSP (pipelined BFS / Bellman–Ford),
//!   exact diameter/radius (`Θ̃(n)`), and the cheap 2-approximation;
//! * [`multi_bfs`] — concurrent pipelined BFS from a source set
//!   (`O(|S| + D)` rounds);
//! * [`three_halves`] — the classical `Õ(√n + D)` 3/2-approximation of the
//!   unweighted diameter (Table 1's [3, 15] rows);
//! * [`sssp`] — `(1+o(1))`-approximate weighted SSSP as a public API.
//!
//! Every distributed procedure is tested for *exact agreement* with the
//! centralized reference implementations in [`congest_graph`].
//!
//! # Examples
//!
//! Approximate an eccentricity through the full skeleton pipeline:
//!
//! ```
//! use congest_algos::skeleton::SkeletonState;
//! use congest_graph::{generators, metrics, rounding::RoundingScheme};
//! use congest_sim::SimConfig;
//! use rand::SeedableRng;
//!
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
//! let g = generators::erdos_renyi_connected(10, 0.3, 4, &mut rng);
//! let cfg = SimConfig::standard(g.n(), g.max_weight()).with_max_rounds(10_000_000);
//! let scheme = RoundingScheme::new(g.n(), 0.5);
//! let st = SkeletonState::initialize(&g, 0, &[0, 4, 8], scheme, 2, &cfg, &mut rng)?;
//! let (ecc, _) = st.eccentricity(&g, 4, &cfg)?;
//! assert!(ecc >= metrics::eccentricity(&g, 4).as_f64() - 1e-9);
//! # Ok::<(), congest_sim::SimError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baselines;
pub mod bounded_sssp;
pub mod multi_bfs;
pub mod multi_source;
pub mod overlay_net;
pub mod skeleton;
pub mod sssp;
pub mod three_halves;
