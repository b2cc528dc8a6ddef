//! The traced pass: `quantum_weighted` rebuilt from its public calls, each
//! call wrapped in a span, with the counts each layer reports.
//!
//! The composition consumes the RNG stream in exactly the order
//! `congest_wdr::algorithm::quantum_weighted` does, so on the same seed it
//! returns the same [`WdrReport`]; [`crate::golden::record`] compares the
//! two field by field on every traced run.

use congest_algos::skeleton::SkeletonState;
use congest_graph::{metrics, NodeId, WeightedGraph};
use congest_sim::{primitives, SimConfig, SimError};
use congest_wdr::algorithm::{
    evaluate_sets, marked_set_count, sample_sets, Confidence, Objective, WdrReport,
};
use congest_wdr::framework::{from_ordered_bits, optimize, ordered_bits, PhaseCosts};
use congest_wdr::params::WdrParams;
use quantum_sim::search::{find_above_threshold, lemma_3_1_budget, SearchTrace};
use rand::Rng;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// Name of the span that covers one whole run; every other span is its
/// child.
pub const RUN_SPAN: &str = "run";

/// One timed call.
#[derive(Debug)]
pub struct Span {
    /// Run the span belongs to.
    pub run: usize,
    /// Layer-prefixed call name, or [`RUN_SPAN`].
    pub name: &'static str,
    /// Nanoseconds since the pass started.
    pub start_ns: u64,
    /// Nanoseconds since the pass started.
    pub end_ns: u64,
}

impl Span {
    fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Spans kept in memory until the pass ends.
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Spans {
    fn default() -> Spans {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Spans {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `call` inside a span named `name`.
    pub fn time<T>(&mut self, run: usize, name: &'static str, call: impl FnOnce() -> T) -> T {
        let start_ns = self.now_ns();
        let out = call();
        let end_ns = self.now_ns();
        self.spans.push(Span {
            run,
            name,
            start_ns,
            end_ns,
        });
        out
    }

    /// Total seconds of every span named `name`.
    pub fn total_secs(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .sum()
    }

    /// Total seconds of every span below a run span.
    pub fn child_secs(&self) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name != RUN_SPAN)
            .map(Span::secs)
            .sum()
    }

    /// Writes one JSON object per span, in completion order.
    ///
    /// # Errors
    ///
    /// Returns the I/O error of creating or writing `path`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = if s.name == RUN_SPAN {
                "null".to_string()
            } else {
                format!("\"{RUN_SPAN}\"")
            };
            writeln!(
                out,
                "{{\"run\":{},\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.run, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Work counts of the traced runs, summed over runs.
#[derive(Debug, Default)]
pub struct Counts {
    /// Σ|Sᵢ| over every sampled set.
    pub members: u64,
    /// Distinct nodes across each run's sets, summed over runs.
    pub distinct_members: u64,
    /// Measured `T₀` rounds.
    pub t0_rounds: u64,
    /// Measured `T₁` rounds.
    pub t1_rounds: u64,
    /// Measured `T₂` rounds.
    pub t2_rounds: u64,
    /// Runs whose `T₀` multi-source phase had to be retried.
    pub t0_retries: u64,
    /// `T₀` messages.
    pub t0_messages: u64,
    /// Simulated rounds of every measured phase (`T₀`, `T₁`, `T₂`, BFS tree).
    pub sim_rounds: u64,
    /// Messages of every measured phase.
    pub messages: u64,
    /// Bits of every measured phase.
    pub bits: u64,
    /// Grover iterations of the inner and outer searches.
    pub grover_iterations: u64,
    /// Oracle queries of the inner and outer searches.
    pub oracle_queries: u64,
    /// Σ charged rounds of the adaptive outer search.
    pub charged_rounds: u64,
    /// Σ budgeted rounds.
    pub budgeted_rounds: u64,
    /// Worst `estimate / exact`.
    pub approx_ratio_max: f64,
}

impl Counts {
    fn add_phase(&mut self, stats: &congest_sim::RoundStats) {
        self.sim_rounds += stats.rounds as u64;
        self.messages += stats.messages;
        self.bits += stats.bits;
    }

    fn add_search(&mut self, trace: SearchTrace) {
        self.grover_iterations += trace.grover_iterations;
        self.oracle_queries += trace.oracle_queries();
    }
}

/// `quantum_weighted`, call by call, with one span per call under a run
/// span. Same arguments and same result as
/// [`congest_wdr::algorithm::quantum_weighted`].
///
/// # Errors
///
/// Propagates simulator errors from the measured distributed phases.
///
/// # Panics
///
/// Panics if every sampled set is empty.
#[allow(clippy::too_many_arguments)]
pub fn quantum_weighted_traced<R: Rng + ?Sized>(
    g: &WeightedGraph,
    leader: NodeId,
    objective: Objective,
    params: &WdrParams,
    config: &SimConfig,
    rng: &mut R,
    run: usize,
    spans: &mut Spans,
    counts: &mut Counts,
) -> Result<WdrReport, SimError> {
    let run_start = spans.now_ns();
    let n = g.n();
    let minimize = objective == Objective::Radius;

    let rate = params.sample_rate(n);
    let sets = spans.time(run, "core.sample_sets", || sample_sets(n, rate, rng));
    let evals = spans.time(run, "graph.evaluate_sets", || {
        evaluate_sets(g, &sets, params, objective)
    });
    let mut member_seen = vec![false; n];
    for &v in sets.iter().flatten() {
        counts.members += 1;
        member_seen[v] = true;
    }
    counts.distinct_members += member_seen.iter().filter(|&&s| s).count() as u64;
    let nonempty = evals.iter().flatten().count();

    let mut sizes: Vec<(usize, usize)> = evals
        .iter()
        .enumerate()
        .filter_map(|(i, e)| e.as_ref().map(|e| (e.skeleton.len(), i)))
        .collect();
    assert!(!sizes.is_empty(), "all sampled sets empty; increase r");
    sizes.sort_unstable();
    let rep_eval = evals[sizes[sizes.len() / 2].1]
        .as_ref()
        .expect("representative is non-empty");

    let scheme = params.scheme();
    let state = spans.time(run, "algos.t0", || {
        SkeletonState::initialize(g, leader, &rep_eval.skeleton, scheme, params.k, config, rng)
    })?;
    let t0 = state.init_stats().rounds;
    let mut resilience = state.init_stats().resilience;
    counts.t0_rounds += t0 as u64;
    counts.t0_messages += state.init_stats().messages;
    counts.t0_retries += u64::from(state.overlay.retried);
    counts.add_phase(state.init_stats());

    let rep_s = rep_eval.skeleton[rep_eval.skeleton.len() / 2];
    let (overlay_dist, setup_stats) =
        spans.time(run, "algos.t1", || state.setup_data(g, rep_s, config))?;
    let t1 = setup_stats.rounds;
    resilience.absorb(&setup_stats.resilience);
    counts.t1_rounds += t1 as u64;
    counts.add_phase(&setup_stats);

    let (_, eval_stats) = spans.time(run, "algos.t2", || {
        state.evaluate_eccentricity(g, rep_s, &overlay_dist, config)
    })?;
    let t2 = eval_stats.rounds;
    resilience.absorb(&eval_stats.resilience);
    counts.t2_rounds += t2 as u64;
    counts.add_phase(&eval_stats);

    let (tree, tree_stats) = spans.time(run, "sim.bfs_tree", || {
        primitives::bfs_tree(g, leader, config)
    })?;
    resilience.absorb(&tree_stats.resilience);
    counts.add_phase(&tree_stats);
    let t_setup_outer = tree.iter().map(|t| t.depth).max().unwrap_or(0) + 1;

    let max_size = sizes.last().expect("sizes is non-empty").0;
    let rho_inner = 1.0 / max_size as f64;
    let mut inner_trace = SearchTrace::default();
    let (inner_budget, f_hat) = spans.time(run, "quantum.inner_search", || {
        let budget = lemma_3_1_budget(rho_inner, params.delta);
        let f_hat: Vec<u64> = evals
            .iter()
            .map(|e| match e {
                None => ordered_bits(if minimize { f64::INFINITY } else { 0.0 }),
                Some(e) if e.eccs.len() == 1 => ordered_bits(e.eccs[0]),
                Some(e) => {
                    let bits: Vec<u64> = e.eccs.iter().map(|&x| ordered_bits(x)).collect();
                    let out = find_above_threshold(&bits, rho_inner, params.delta, minimize, rng);
                    inner_trace.absorb(out.trace);
                    bits[out.best]
                }
            })
            .collect();
        (budget, f_hat)
    });
    counts.add_search(inner_trace);

    let rho_outer = (params.r / (2.0 * n as f64)).clamp(1.0 / n as f64, 1.0);
    let inner_cost = PhaseCosts {
        t0,
        t_setup: t1,
        t_eval: t2,
    };
    let outer_cost = PhaseCosts {
        t0: 0,
        t_setup: t_setup_outer,
        t_eval: inner_cost.charge_oblivious(inner_budget),
    };
    let outcome = spans.time(run, "quantum.outer_search", || {
        optimize(&f_hat, rho_outer, params.delta, minimize, outer_cost, rng)
    });
    counts.add_search(outcome.trace);
    let budgeted_rounds = outer_cost.charge_oblivious(outcome.budget);

    let chosen_set = outcome.best;
    let estimate = from_ordered_bits(f_hat[chosen_set]);
    let chosen_node = match &evals[chosen_set] {
        Some(e) => {
            let pos = e
                .eccs
                .iter()
                .position(|&x| ordered_bits(x) == f_hat[chosen_set])
                .unwrap_or(0);
            e.skeleton[pos]
        }
        None => leader,
    };

    let extremes = spans.time(run, "graph.extremes", || metrics::extremes(g));
    let exact = match objective {
        Objective::Diameter => extremes.diameter.as_f64(),
        Objective::Radius => extremes.radius.as_f64(),
    };
    let marked_sets = marked_set_count(&evals, exact, objective, params.eps);
    counts.charged_rounds += outcome.rounds as u64;
    counts.budgeted_rounds += budgeted_rounds as u64;
    counts.approx_ratio_max = counts.approx_ratio_max.max(estimate / exact);
    let run_end = spans.now_ns();
    spans.spans.push(Span {
        run,
        name: RUN_SPAN,
        start_ns: run_start,
        end_ns: run_end,
    });

    Ok(WdrReport {
        estimate,
        exact,
        total_rounds: outcome.rounds,
        budgeted_rounds,
        t0,
        t1,
        t2,
        t_setup_outer,
        inner_budget,
        outer_trace: outcome.trace,
        chosen_set,
        chosen_node,
        marked_sets,
        nonempty_sets: nonempty,
        confidence: Confidence::from_resilience(resilience),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::golden::{first_difference, record};
    use crate::workloads::t11_input_for;
    use congest_graph::generators;
    use congest_wdr::algorithm::quantum_weighted;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn assert_composition_matches(g: WeightedGraph, objective: Objective, algo_seed: u64) {
        let input = t11_input_for(g, objective, algo_seed);
        let plain = quantum_weighted(
            &input.graph,
            0,
            objective,
            &input.params,
            &input.config,
            &mut ChaCha8Rng::seed_from_u64(algo_seed),
        )
        .expect("fault-free run");
        let mut spans = Spans::default();
        let mut counts = Counts::default();
        let traced = quantum_weighted_traced(
            &input.graph,
            0,
            objective,
            &input.params,
            &input.config,
            &mut ChaCha8Rng::seed_from_u64(algo_seed),
            0,
            &mut spans,
            &mut counts,
        )
        .expect("fault-free run");
        assert_eq!(
            first_difference(&record(&plain), &record(&traced)),
            None,
            "{objective:?} on n = {}",
            input.graph.n()
        );
        assert!(counts.members > 0 && counts.t0_rounds > 0);
        assert!(spans.child_secs() <= spans.total_secs(RUN_SPAN));
    }

    #[test]
    fn composition_reproduces_quantum_weighted_for_both_objectives() {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        for (objective, seed) in [(Objective::Diameter, 3), (Objective::Radius, 4)] {
            let g = generators::erdos_renyi_connected(40, 0.1, 64, &mut rng);
            assert_composition_matches(g, objective, seed);
            let g = generators::cluster_ring(32, 4, 64, &mut rng);
            assert_composition_matches(g, objective, seed + 10);
        }
    }

    /// A requested grid size that is not a square: the generator rounds it
    /// up (40 → 7×7 = 49 nodes), and everything must follow `g.n()`.
    #[test]
    fn composition_follows_the_built_size_of_a_non_square_grid() {
        let requested = 40;
        let side = (requested as f64).sqrt().ceil() as usize;
        let mut rng = ChaCha8Rng::seed_from_u64(12);
        let g = generators::randomize_weights(&generators::grid(side, side, 1), 64, &mut rng);
        assert_eq!(g.n(), 49);
        for (objective, seed) in [(Objective::Diameter, 5), (Objective::Radius, 6)] {
            assert_composition_matches(g.clone(), objective, seed);
        }
    }

    #[test]
    fn spans_write_one_line_each() {
        let mut spans = Spans::default();
        spans.time(0, "core.sample_sets", || ());
        spans.spans.push(Span {
            run: 0,
            name: RUN_SPAN,
            start_ns: 0,
            end_ns: spans.now_ns(),
        });
        let dir = std::env::temp_dir().join(format!("wdr-benchmark-spans-{}", std::process::id()));
        let path = dir.join("trace.jsonl");
        spans.write_jsonl(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let lines: Vec<_> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let child = serde_json::from_str(lines[0]).unwrap();
        assert_eq!(child.get("parent").and_then(|p| p.as_str()), Some(RUN_SPAN));
        let root = serde_json::from_str(lines[1]).unwrap();
        assert_eq!(root.get("parent"), Some(&serde_json::Value::Null));
    }
}
