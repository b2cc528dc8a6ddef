//! The four workloads and the inputs each run receives.
//!
//! The three Theorem 1.1 workloads each stress a different layer (see
//! README.md): the dense cluster ring is dominated by the centralized
//! `evaluate_sets` reference, the sparse grid by the T₀ simulation, and the
//! sparse Erdős–Rényi radius run splits between the two and takes the
//! minimizing search path. `corpus-500` runs the checked-in conformance
//! corpus, whose small graphs make fixed per-call costs dominate.

use crate::stats::run_seed;
use congest_graph::{generators, metrics, WeightedGraph};
use congest_sim::SimConfig;
use congest_wdr::algorithm::Objective;
use congest_wdr::params::WdrParams;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use wdr_conformance::oracle::o1_tolerance;
use wdr_conformance::scenario::{ScenarioSpec, Workload as ScenarioKind};

/// Maximum edge weight `W` of the Theorem 1.1 workloads.
pub const MAX_WEIGHT: u64 = 64;
/// Accuracy `ε` of the Theorem 1.1 workloads.
pub const EPS: f64 = 0.25;
/// Round cap of the Theorem 1.1 workloads (never reached; `wdr estimate`'s).
const MAX_ROUNDS: usize = 2_000_000_000;
/// Seed of the Theorem 1.1 workloads' graphs (see [`t11_input`]).
const GRAPH_SEED: u64 = 1;
/// Passes over the corpus in the corpus workload's run list.
pub const CORPUS_PASSES: usize = 4;
/// The conformance oracle's algorithm-RNG salt (`"algo_v1"`), so the traced
/// corpus runs replay exactly the quantum runs the oracle makes.
const CORPUS_ALGO_SALT: u64 = 0x616c_676f_5f76_3101;

/// One benchmark workload.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Workload {
    /// `cluster_ring(160, 4)`, diameter.
    ClusterDense,
    /// 16×16 grid, diameter.
    GridSparse,
    /// `erdos_renyi_connected(256, 3/n)`, radius.
    ErRadius,
    /// The checked-in 500-scenario conformance corpus.
    Corpus500,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::ClusterDense,
        Workload::GridSparse,
        Workload::ErRadius,
        Workload::Corpus500,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ClusterDense => "t11-cluster-dense",
            Workload::GridSparse => "t11-grid-sparse",
            Workload::ErRadius => "t11-er-radius",
            Workload::Corpus500 => "corpus-500",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Runs in the workload's fixed run list: the inputs a measurement
    /// cycles through, and what `--write-golden` records.
    pub fn run_list_len(self) -> usize {
        match self {
            Workload::ClusterDense | Workload::GridSparse => 8,
            Workload::ErRadius => 7,
            Workload::Corpus500 => 500 * CORPUS_PASSES,
        }
    }

    fn objective(self) -> Objective {
        match self {
            Workload::ErRadius => Objective::Radius,
            _ => Objective::Diameter,
        }
    }

    fn graph(self, rng: &mut ChaCha8Rng) -> WeightedGraph {
        match self {
            Workload::ClusterDense => generators::cluster_ring(160, 4, MAX_WEIGHT, rng),
            Workload::GridSparse => {
                generators::randomize_weights(&generators::grid(16, 16, 1), MAX_WEIGHT, rng)
            }
            Workload::ErRadius => {
                generators::erdos_renyi_connected(256, 3.0 / 256.0, MAX_WEIGHT, rng)
            }
            Workload::Corpus500 => unreachable!("the corpus is loaded, not generated"),
        }
    }
}

/// Everything one `quantum_weighted` call takes, built before timing starts.
pub struct RunInput {
    /// The network.
    pub graph: WeightedGraph,
    /// Which extreme is estimated.
    pub objective: Objective,
    /// Algorithm parameters (derived from `graph.n()` and its `D`).
    pub params: WdrParams,
    /// Simulator configuration.
    pub config: SimConfig,
    /// Seed of the algorithm's RNG stream.
    pub algo_seed: u64,
}

/// Builds run `run` of a Theorem 1.1 workload: fresh graph, unweighted `D`,
/// and `WdrParams::for_benchmarks` at `W = 64`, `ε = 0.25`.
///
/// The graphs of a run list are part of the workload's definition, like the
/// corpus: they come from [`GRAPH_SEED`]. `seed` drives the algorithm's own
/// randomness (set sampling, T₀'s random delays, the searches). Drawing
/// fresh graphs per seed as well roughly doubled how far a pass's median
/// run time spread across seeds: one list of sparse random graphs cost 18%
/// more than another, which would hide regressions of that size.
pub fn t11_input(workload: Workload, seed: u64, run: usize) -> RunInput {
    let mut rng = ChaCha8Rng::seed_from_u64(run_seed(GRAPH_SEED, workload.name(), run, "graph"));
    let graph = workload.graph(&mut rng);
    t11_input_for(
        graph,
        workload.objective(),
        run_seed(seed, workload.name(), run, "algo"),
    )
}

/// The Theorem 1.1 workloads' parameters for an arbitrary graph. They come
/// from `graph.n()`, never from a requested size: generators may round it.
pub fn t11_input_for(graph: WeightedGraph, objective: Objective, algo_seed: u64) -> RunInput {
    let d = metrics::unweighted_diameter(&graph).max(1);
    let params = WdrParams::for_benchmarks(graph.n(), d, EPS);
    let config = SimConfig::standard(graph.n(), graph.max_weight()).with_max_rounds(MAX_ROUNDS);
    RunInput {
        graph,
        objective,
        params,
        config,
        algo_seed,
    }
}

/// The quantum run a fault-free quantum corpus scenario makes, with the
/// conformance oracle's parameters, configuration and RNG stream; `None`
/// for every other scenario.
pub fn corpus_quantum_input(spec: &ScenarioSpec) -> Option<RunInput> {
    let objective = match spec.workload {
        ScenarioKind::QuantumDiameter => Objective::Diameter,
        ScenarioKind::QuantumRadius => Objective::Radius,
        _ => return None,
    };
    if !spec.is_clean() {
        return None;
    }
    let graph = spec.build_graph();
    let n = graph.n();
    let d = metrics::unweighted_diameter(&graph).max(1);
    let mut params = WdrParams::for_benchmarks(n, d, o1_tolerance(n));
    params.ell = n;
    params.r = (n as f64 * 0.35).max(2.0);
    let config = spec.build_config(&graph);
    Some(RunInput {
        graph,
        objective,
        params,
        config,
        algo_seed: spec.seed ^ CORPUS_ALGO_SALT,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_roundtrip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("t11"), None);
    }

    #[test]
    fn t11_inputs_have_the_stated_shapes() {
        let cluster = t11_input(Workload::ClusterDense, 1, 0);
        assert_eq!(cluster.graph.n(), 160);
        assert!(cluster.graph.m() > 3000, "dense: m = {}", cluster.graph.m());
        let grid = t11_input(Workload::GridSparse, 1, 0);
        assert_eq!((grid.graph.n(), grid.graph.m()), (256, 480));
        let er = t11_input(Workload::ErRadius, 1, 0);
        assert_eq!(er.graph.n(), 256);
        assert_eq!(er.objective, Objective::Radius);
        for input in [&cluster, &grid, &er] {
            assert!(input.graph.is_connected());
            assert!(input.graph.max_weight() <= MAX_WEIGHT);
            assert_eq!(input.params.eps, EPS);
        }
    }

    #[test]
    fn the_seed_drives_the_algorithm_and_the_run_index_the_graph() {
        let a = t11_input(Workload::ErRadius, 5, 2);
        let b = t11_input(Workload::ErRadius, 5, 2);
        let other_seed = t11_input(Workload::ErRadius, 6, 2);
        let other_run = t11_input(Workload::ErRadius, 5, 3);
        assert_eq!((&a.graph, a.algo_seed), (&b.graph, b.algo_seed));
        assert_eq!(a.graph, other_seed.graph);
        assert_ne!(a.algo_seed, other_seed.algo_seed);
        assert_ne!(a.graph, other_run.graph);
        assert_ne!(a.algo_seed, other_run.algo_seed);
    }
}
