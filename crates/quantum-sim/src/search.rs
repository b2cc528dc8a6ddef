//! Quantum search procedures with exact statistics and faithful iteration
//! accounting.
//!
//! * [`bbht`] — Boyer–Brassard–Høyer–Tapp search with an unknown number of
//!   marked items (the exponential schedule);
//! * [`durr_hoyer_max`] / [`durr_hoyer_min`] — threshold-walking
//!   maximum/minimum finding;
//! * [`find_above_threshold`] — the Lemma 3.1 primitive: given that the
//!   marked mass is at least `ρ`, find an element above the (unknown)
//!   threshold with probability `1 − δ` using `O(√(log(1/δ)/ρ))`
//!   amplification iterations.
//!
//! All outcomes are sampled from the *exact* Grover measurement
//! distribution (`sin²((2j+1)θ)` — see [`crate::grover`]); the returned
//! [`SearchTrace`] carries the iteration and measurement counts that the
//! CONGEST layer converts into communication rounds.

use crate::grover::success_probability;
use rand::Rng;

/// The accounting record of a quantum search.
///
/// One *Grover iteration* costs one application of the (Setup ∘ Evaluation)
/// pair and its inverse in the distributed-optimization framework; one
/// *measurement* additionally costs a classical verification evaluation.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub struct SearchTrace {
    /// Total Grover iterations performed.
    pub grover_iterations: u64,
    /// Number of measurements (each followed by one verification).
    pub measurements: u64,
}

impl SearchTrace {
    /// Accumulates another trace.
    pub fn absorb(&mut self, other: SearchTrace) {
        self.grover_iterations += other.grover_iterations;
        self.measurements += other.measurements;
    }

    /// Total oracle queries this trace represents
    /// ([`crate::grover::oracle_queries`]).
    pub fn oracle_queries(&self) -> u64 {
        crate::grover::oracle_queries(self.grover_iterations, self.measurements)
    }
}

/// The result of a search: the found item (if any) and the trace.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct SearchOutcome {
    /// Index of a marked item, or `None` if the budget ran out.
    pub found: Option<usize>,
    /// Iteration accounting.
    pub trace: SearchTrace,
}

/// BBHT search over `total` items of which `marked` (sorted or not) are
/// marked, with the iteration budget `max_iterations`.
///
/// Measurement outcomes follow the exact Grover distribution for the number
/// of iterations actually applied; a measured item is verified (one
/// classical evaluation) before being returned, so the returned item is
/// always genuinely marked.
///
/// # Panics
///
/// Panics if `total == 0` or any marked index is `≥ total`.
///
/// # Examples
///
/// ```
/// use quantum_sim::search::bbht;
/// use rand::SeedableRng;
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
/// let out = bbht(1024, &[77], &mut rng, 10_000);
/// assert_eq!(out.found, Some(77));
/// // Expected O(√N) iterations:
/// assert!(out.trace.grover_iterations < 600);
/// ```
pub fn bbht<R: Rng + ?Sized>(
    total: usize,
    marked: &[usize],
    rng: &mut R,
    max_iterations: u64,
) -> SearchOutcome {
    assert!(total > 0, "empty search space");
    assert!(
        marked.iter().all(|&i| i < total),
        "marked index out of range"
    );
    let t = marked.len();
    let mut trace = SearchTrace::default();
    if t == 0 {
        // Nothing to find: a real run would exhaust the schedule; charge the
        // full budget (this is what the algorithm would pay before giving up).
        trace.grover_iterations = max_iterations;
        trace.measurements = schedule_measurements(total, max_iterations);
        crate::instrument::record_trace(trace);
        return SearchOutcome { found: None, trace };
    }
    let rho = t as f64 / total as f64;
    let lambda = 6.0 / 5.0;
    let mut m = 1.0f64;
    let sqrt_n = (total as f64).sqrt();
    loop {
        let j = rng.gen_range(0..=(m as u64));
        if trace.grover_iterations + j > max_iterations {
            trace.grover_iterations = max_iterations;
            crate::instrument::record_trace(trace);
            return SearchOutcome { found: None, trace };
        }
        trace.grover_iterations += j;
        trace.measurements += 1;
        let p = success_probability(rho, j);
        if rng.gen_bool(p.clamp(0.0, 1.0)) {
            // Measured a marked item: uniform over the marked set.
            let pick = marked[rng.gen_range(0..t)];
            crate::instrument::record_trace(trace);
            return SearchOutcome {
                found: Some(pick),
                trace,
            };
        }
        m = (lambda * m).min(sqrt_n);
    }
}

/// How many measurements the BBHT schedule makes while spending
/// `iterations` Grover iterations on an empty marked set (expectation of the
/// randomized schedule, used to charge the unsuccessful-search cost).
fn schedule_measurements(total: usize, iterations: u64) -> u64 {
    // The schedule measures once per phase; phase p costs ~ m_p/2 = λ^p/2
    // iterations, capped at √N. Count phases until the budget is spent.
    let lambda = 6.0f64 / 5.0;
    let sqrt_n = (total as f64).sqrt();
    let mut m = 1.0f64;
    let mut spent = 0.0;
    let mut phases = 0u64;
    while spent < iterations as f64 {
        spent += m / 2.0;
        phases += 1;
        m = (lambda * m).min(sqrt_n);
        if phases > 10_000 {
            break;
        }
    }
    phases
}

/// BBHT executed against a **real statevector** (for small instances): the
/// same exponential schedule as [`bbht`], but each attempt evolves the
/// `2^qubits`-dimensional state with true Grover iterations and measures it.
///
/// This is the bridge experiment between the analytic search used at
/// CONGEST scale and the honest low level (DESIGN.md §1 / experiment A1):
/// the two must be statistically indistinguishable, which the crate's tests
/// check.
///
/// # Panics
///
/// Panics if `qubits` is outside `1..=20`.
pub fn bbht_on_statevector<R: Rng + ?Sized>(
    qubits: u32,
    marked: impl Fn(usize) -> bool,
    rng: &mut R,
    max_iterations: u64,
) -> SearchOutcome {
    assert!((1..=20).contains(&qubits));
    let total = 1usize << qubits;
    let lambda = 6.0 / 5.0;
    let mut m = 1.0f64;
    let sqrt_n = (total as f64).sqrt();
    let mut trace = SearchTrace::default();
    loop {
        let j = rng.gen_range(0..=(m as u64));
        if trace.grover_iterations + j > max_iterations {
            trace.grover_iterations = max_iterations;
            crate::instrument::record_trace(trace);
            return SearchOutcome { found: None, trace };
        }
        trace.grover_iterations += j;
        trace.measurements += 1;
        let state = crate::statevector::grover_state(qubits, &marked, j as u32);
        let outcome = state.measure(rng);
        if marked(outcome) {
            crate::instrument::record_trace(trace);
            return SearchOutcome {
                found: Some(outcome),
                trace,
            };
        }
        m = (lambda * m).min(sqrt_n);
    }
}

/// The result of a maximum/minimum-finding run.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct OptimizeOutcome {
    /// Index of the best element found.
    pub best: usize,
    /// Number of threshold improvements performed.
    pub threshold_updates: u64,
    /// Iteration accounting (all phases combined).
    pub trace: SearchTrace,
}

/// Dürr–Høyer maximum finding over `values`, with a total Grover-iteration
/// budget.
///
/// Starts from a uniformly measured element and repeatedly BBHT-searches for
/// a strictly better one until the budget is exhausted or no better element
/// exists. With budget `Ω(√N)` the result is the true maximum with
/// probability at least 1/2 (boost by repetition).
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn durr_hoyer_max<R, V>(values: &[V], rng: &mut R, budget: u64) -> OptimizeOutcome
where
    R: Rng + ?Sized,
    V: Ord,
{
    durr_hoyer_by(values, rng, budget, |a, b| a > b)
}

/// Dürr–Høyer minimum finding (see [`durr_hoyer_max`]).
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn durr_hoyer_min<R, V>(values: &[V], rng: &mut R, budget: u64) -> OptimizeOutcome
where
    R: Rng + ?Sized,
    V: Ord,
{
    durr_hoyer_by(values, rng, budget, |a, b| a < b)
}

fn durr_hoyer_by<R, V>(
    values: &[V],
    rng: &mut R,
    budget: u64,
    better: impl Fn(&V, &V) -> bool,
) -> OptimizeOutcome
where
    R: Rng + ?Sized,
    V: Ord,
{
    assert!(!values.is_empty(), "empty value set");
    let n = values.len();
    // Initial threshold: measure the uniform superposition (one measurement).
    let mut best = rng.gen_range(0..n);
    crate::instrument::record_initial_measurement();
    let mut trace = SearchTrace {
        grover_iterations: 0,
        measurements: 1,
    };
    let mut threshold_updates = 0u64;
    loop {
        let marked: Vec<usize> = (0..n)
            .filter(|&i| better(&values[i], &values[best]))
            .collect();
        if marked.is_empty() {
            break;
        }
        let remaining = budget.saturating_sub(trace.grover_iterations);
        if remaining == 0 {
            break;
        }
        let out = bbht(n, &marked, rng, remaining);
        trace.absorb(out.trace);
        match out.found {
            Some(x) => {
                best = x;
                threshold_updates += 1;
            }
            None => break,
        }
    }
    OptimizeOutcome {
        best,
        threshold_updates,
        trace,
    }
}

/// The Lemma 3.1 primitive: given oracle access to `values` whose top mass
/// is at least `rho` (i.e. `|{x : values[x] ≥ M}| / N ≥ ρ` for the unknown
/// threshold `M`), returns an element of the top set with probability at
/// least `1 − δ`.
///
/// Runs the Dürr–Høyer walk with the `O(√(log(1/δ)/ρ))` iteration budget of
/// the lemma and returns the best element seen. If `minimize` is set, finds
/// the *bottom* mass instead (used for the radius).
///
/// # Panics
///
/// Panics if `values` is empty, `rho ∉ (0, 1]`, or `delta ∉ (0, 1)`.
pub fn find_above_threshold<R, V>(
    values: &[V],
    rho: f64,
    delta: f64,
    minimize: bool,
    rng: &mut R,
) -> OptimizeOutcome
where
    R: Rng + ?Sized,
    V: Ord,
{
    assert!(!values.is_empty(), "empty value set");
    assert!(rho > 0.0 && rho <= 1.0, "ρ must be in (0,1]");
    assert!(delta > 0.0 && delta < 1.0, "δ must be in (0,1)");
    let budget = match crate::mutation::armed() {
        // Mutation self-check (see `crate::mutation`): skipping the Grover
        // amplification phase leaves only the initial uniform measurement.
        Some(crate::mutation::Mutation::SkipGroverPhase) => 0,
        None => lemma_3_1_budget(rho, delta),
    };
    if minimize {
        durr_hoyer_min(values, rng, budget)
    } else {
        durr_hoyer_max(values, rng, budget)
    }
}

/// The iteration budget `O(√(log(1/δ)/ρ))` of Lemma 3.1, with the constant
/// used throughout this reproduction.
pub fn lemma_3_1_budget(rho: f64, delta: f64) -> u64 {
    let reps = (1.0 / delta).ln().max(1.0);
    (18.0 * (reps / rho).sqrt()).ceil() as u64 + 12
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn bbht_finds_unique_item() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut total_iters = 0u64;
        for _ in 0..50 {
            let out = bbht(256, &[100], &mut rng, 100_000);
            assert_eq!(out.found, Some(100));
            total_iters += out.trace.grover_iterations;
        }
        let avg = total_iters as f64 / 50.0;
        // E[iterations] ≈ 4.5·√(N/t) ≈ 72 for N=256; allow generous slack.
        assert!(avg < 160.0, "avg iterations {avg}");
        assert!(avg > 4.0, "suspiciously cheap: {avg}");
    }

    #[test]
    fn bbht_scales_with_marked_count() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let avg = |marked: &[usize], rng: &mut ChaCha8Rng| {
            let mut sum = 0u64;
            for _ in 0..60 {
                sum += bbht(4096, marked, rng, 1_000_000).trace.grover_iterations;
            }
            sum as f64 / 60.0
        };
        let one = avg(&[7], &mut rng);
        let many: Vec<usize> = (0..64).map(|i| i * 64).collect();
        let sixty_four = avg(&many, &mut rng);
        // √(N/1) vs √(N/64): factor ≈ 8.
        assert!(
            one / sixty_four > 3.0,
            "expected ≈8× separation, got {one} vs {sixty_four}"
        );
    }

    #[test]
    fn bbht_empty_marked_charges_budget() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let out = bbht(128, &[], &mut rng, 500);
        assert_eq!(out.found, None);
        assert_eq!(out.trace.grover_iterations, 500);
        assert!(out.trace.measurements > 0);
    }

    #[test]
    fn bbht_respects_budget() {
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        for _ in 0..20 {
            let out = bbht(1 << 16, &[1], &mut rng, 10);
            assert!(out.trace.grover_iterations <= 10);
        }
    }

    #[test]
    fn durr_hoyer_finds_max() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let values: Vec<u64> = (0..300).map(|i| (i * 7919) % 1000).collect();
        let want = values.iter().copied().max().unwrap();
        let mut hits = 0;
        for _ in 0..40 {
            let out = durr_hoyer_max(&values, &mut rng, 4000);
            if values[out.best] == want {
                hits += 1;
            }
        }
        assert!(hits >= 38, "max found {hits}/40 times");
    }

    #[test]
    fn durr_hoyer_finds_min() {
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let values: Vec<u64> = (0..200).map(|i| 5000 - ((i * 13) % 999)).collect();
        let want = values.iter().copied().min().unwrap();
        let out = durr_hoyer_min(&values, &mut rng, 4000);
        assert_eq!(values[out.best], want);
    }

    #[test]
    fn durr_hoyer_iterations_scale_sublinearly() {
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let avg_iters = |n: usize, rng: &mut ChaCha8Rng| {
            let values: Vec<u64> = (0..n)
                .map(|i| ((i * 2654435761) % 100_000) as u64)
                .collect();
            let mut sum = 0u64;
            for _ in 0..25 {
                sum += durr_hoyer_max(&values, rng, u64::MAX)
                    .trace
                    .grover_iterations;
            }
            sum as f64 / 25.0
        };
        let small = avg_iters(100, &mut rng);
        let large = avg_iters(10_000, &mut rng);
        let ratio = large / small.max(1.0);
        // √(10000/100) = 10; linear would be 100.
        assert!(ratio < 40.0, "ratio {ratio} too large for O(√N)");
    }

    /// Lemma 3.1 semantics: with top mass ρ, the returned element is in the
    /// top set with probability ≥ 1 − δ.
    #[test]
    fn find_above_threshold_succeeds_whp() {
        let mut rng = ChaCha8Rng::seed_from_u64(10);
        let n = 1000;
        // 20 elements of value ≥ 900 (ρ = 0.02), the rest below.
        let values: Vec<u64> = (0..n)
            .map(|i| {
                if i % 50 == 0 {
                    900 + (i % 90) as u64
                } else {
                    (i % 800) as u64
                }
            })
            .collect();
        let rho = 0.02;
        let delta = 0.1;
        let mut successes = 0;
        let trials = 100;
        for _ in 0..trials {
            let out = find_above_threshold(&values, rho, delta, false, &mut rng);
            if values[out.best] >= 900 {
                successes += 1;
            }
        }
        assert!(
            successes as f64 >= (1.0 - delta) * trials as f64,
            "successes {successes}/{trials}"
        );
    }

    #[test]
    fn find_below_threshold_minimize() {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let values: Vec<u64> = (0..500)
            .map(|i| {
                if i % 25 == 0 {
                    (i % 10) as u64
                } else {
                    100 + (i % 400) as u64
                }
            })
            .collect();
        let mut successes = 0;
        for _ in 0..60 {
            let out = find_above_threshold(&values, 0.04, 0.1, true, &mut rng);
            if values[out.best] < 100 {
                successes += 1;
            }
        }
        assert!(successes >= 54, "successes {successes}/60");
    }

    #[test]
    fn budget_formula_scales() {
        assert!(lemma_3_1_budget(0.01, 0.1) > lemma_3_1_budget(0.04, 0.1));
        assert!(lemma_3_1_budget(0.01, 0.001) > lemma_3_1_budget(0.01, 0.1));
    }

    /// An installed [`crate::instrument::SearchMetrics`] bundle sees exactly
    /// the iteration accounting the outcome traces report — including the
    /// threshold walk's initial uniform measurement, recorded separately.
    #[test]
    fn installed_metrics_match_outcome_traces() {
        use crate::instrument::{install, SearchMetrics};
        use wdr_metrics::MetricsRegistry;

        let registry = MetricsRegistry::new();
        let metrics = SearchMetrics::register(&registry, "quantum");
        let mut rng = ChaCha8Rng::seed_from_u64(13);
        let values: Vec<u64> = (0..200).map(|i| (i * 7919) % 1000).collect();

        let _guard = install(metrics.clone());
        let search = bbht(256, &[100], &mut rng, 100_000);
        let walk = durr_hoyer_max(&values, &mut rng, 4000);

        let iterations = search.trace.grover_iterations + walk.trace.grover_iterations;
        let measurements = search.trace.measurements + walk.trace.measurements;
        assert_eq!(metrics.grover_iterations.get(), iterations);
        assert_eq!(metrics.measurements.get(), measurements);
        assert_eq!(
            metrics.oracle_queries.get(),
            search.trace.oracle_queries() + walk.trace.oracle_queries(),
            "oracle accounting is linear, so piecewise recording sums exactly"
        );
        // One BBHT call plus one inner BBHT phase per threshold update (the
        // walk's final unsuccessful phase, if any, also counts).
        assert!(metrics.searches.get() > walk.threshold_updates);
    }

    /// The analytic BBHT and the statevector BBHT are statistically
    /// indistinguishable: same success behaviour, matching mean iteration
    /// counts (this is what licenses the analytic model at CONGEST scale).
    #[test]
    fn statevector_bbht_matches_analytic() {
        let mut rng = ChaCha8Rng::seed_from_u64(12);
        let qubits = 7; // N = 128
        let marked_set = [5usize, 77, 100];
        let marked = |i: usize| marked_set.contains(&i);
        let trials = 120;
        let mut sv_iters = 0u64;
        let mut an_iters = 0u64;
        for _ in 0..trials {
            let sv = bbht_on_statevector(qubits, marked, &mut rng, 100_000);
            assert!(matches!(sv.found, Some(x) if marked(x)));
            sv_iters += sv.trace.grover_iterations;
            let an = bbht(1 << qubits, &marked_set, &mut rng, 100_000);
            assert!(an.found.is_some());
            an_iters += an.trace.grover_iterations;
        }
        let (sv_mean, an_mean) = (
            sv_iters as f64 / trials as f64,
            an_iters as f64 / trials as f64,
        );
        let ratio = sv_mean / an_mean;
        assert!(
            (0.7..1.4).contains(&ratio),
            "statevector mean {sv_mean} vs analytic mean {an_mean}"
        );
    }
}
