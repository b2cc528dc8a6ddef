//! The distributed quantum optimization framework (paper Lemma 3.1 /
//! Le Gall–Magniez Theorem 2.4), as an executable harness.
//!
//! Given black-box **Initialization** (cost `T₀`), **Setup** and
//! **Evaluation** (cost `T` together, invertible), and a guarantee that the
//! amplitude mass on `{x : f(x) ≥ M}` is at least `ρ`, the leader finds some
//! `x` with `f(x) ≥ M` with probability `1 − δ` in
//! `T₀ + O(√(log(1/δ)/ρ))·T` rounds.
//!
//! The harness runs the search at the exact-amplitude level
//! ([`quantum_sim::search`]) and converts the iteration trace into rounds:
//! each amplification iteration applies Setup∘Evaluation **and its inverse**
//! (`2·(T_setup + T_eval)` rounds); each measurement is followed by one
//! classical verification evaluation (`T_setup + T_eval` rounds).

pub use congest_algos::skeleton::{from_ordered_bits, ordered_bits};
use quantum_sim::search::{find_above_threshold, OptimizeOutcome, SearchTrace};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Round costs of the three framework procedures.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default, Serialize, Deserialize)]
pub struct PhaseCosts {
    /// Initialization rounds (paid once).
    pub t0: usize,
    /// Setup rounds (per application).
    pub t_setup: usize,
    /// Evaluation rounds (per application).
    pub t_eval: usize,
}

impl PhaseCosts {
    /// Rounds charged for a given search trace:
    /// `T₀ + (2·iterations + measurements)·(T_setup + T_eval)`.
    pub fn charge(&self, trace: SearchTrace) -> usize {
        let apps = 2 * trace.grover_iterations + trace.measurements;
        self.t0 + apps as usize * (self.t_setup + self.t_eval)
    }

    /// Rounds charged for a **fixed-budget oblivious schedule** of `budget`
    /// iterations (used when the search itself runs inside a superposition
    /// and its control flow must not depend on the branch, as in Lemma 3.5's
    /// inner search): `T₀ + 3·budget·(T_setup + T_eval)` — `2·budget` for
    /// amplification plus up to `budget` verification applications.
    pub fn charge_oblivious(&self, budget: u64) -> usize {
        self.t0 + 3 * budget as usize * (self.t_setup + self.t_eval)
    }
}

/// Result of one framework search.
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct FrameworkOutcome {
    /// Index of the element the leader ends up holding.
    pub best: usize,
    /// Rounds charged for the whole search.
    pub rounds: usize,
    /// The underlying iteration trace.
    pub trace: SearchTrace,
    /// The iteration budget `O(√(log(1/δ)/ρ))` that was allotted.
    pub budget: u64,
}

/// Runs the framework search for a maximal (or minimal) element over `values`
/// with promised mass `rho` above (below) the unknown threshold.
///
/// `values` are compared by total order of their bits, so callers pass
/// order-preserving encodings (e.g. [`ordered_bits`] for non-negative
/// floats).
///
/// # Panics
///
/// Panics if `values` is empty, `rho ∉ (0, 1]`, or `delta ∉ (0, 1)`.
pub fn optimize<R: Rng + ?Sized>(
    values: &[u64],
    rho: f64,
    delta: f64,
    minimize: bool,
    costs: PhaseCosts,
    rng: &mut R,
) -> FrameworkOutcome {
    let out: OptimizeOutcome = find_above_threshold(values, rho, delta, minimize, rng);
    let budget = quantum_sim::search::lemma_3_1_budget(rho, delta);
    FrameworkOutcome {
        best: out.best,
        rounds: costs.charge(out.trace),
        trace: out.trace,
        budget,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn charge_formula() {
        let c = PhaseCosts {
            t0: 100,
            t_setup: 3,
            t_eval: 7,
        };
        let t = SearchTrace {
            grover_iterations: 10,
            measurements: 4,
        };
        assert_eq!(c.charge(t), 100 + (20 + 4) * 10);
        assert_eq!(c.charge_oblivious(5), 100 + 15 * 10);
    }

    #[test]
    fn optimize_finds_top_mass_whp() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let n = 400;
        let values: Vec<u64> = (0..n)
            .map(|i| {
                ordered_bits(if i % 40 == 0 {
                    1000.0 + i as f64
                } else {
                    i as f64 % 500.0
                })
            })
            .collect();
        let costs = PhaseCosts {
            t0: 50,
            t_setup: 2,
            t_eval: 11,
        };
        let mut ok = 0;
        for _ in 0..50 {
            let out = optimize(&values, 10.0 / 400.0, 0.1, false, costs, &mut rng);
            if from_ordered_bits(values[out.best]) >= 1000.0 {
                ok += 1;
            }
            assert!(out.rounds >= costs.t0);
            assert_eq!(out.rounds, costs.charge(out.trace));
        }
        assert!(ok >= 45, "succeeded {ok}/50");
    }

    #[test]
    fn optimize_minimizes() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let values: Vec<u64> = (0..300)
            .map(|i| {
                ordered_bits(if i % 30 == 0 {
                    i as f64 / 100.0
                } else {
                    50.0 + i as f64
                })
            })
            .collect();
        let out = optimize(&values, 0.03, 0.05, true, PhaseCosts::default(), &mut rng);
        assert!(from_ordered_bits(values[out.best]) < 50.0);
    }

    #[test]
    fn rounds_scale_with_one_over_sqrt_rho() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let costs = PhaseCosts {
            t0: 0,
            t_setup: 1,
            t_eval: 1,
        };
        let mk = |top: usize, n: usize| -> Vec<u64> {
            (0..n)
                .map(|i| ordered_bits(if i % (n / top) == 0 { 900.0 } else { 1.0 }))
                .collect()
        };
        let avg = |values: &[u64], rho: f64, rng: &mut ChaCha8Rng| {
            (0..30)
                .map(|_| optimize(values, rho, 0.1, false, costs, rng).rounds)
                .sum::<usize>() as f64
                / 30.0
        };
        let dense = avg(&mk(64, 4096), 64.0 / 4096.0, &mut rng);
        let sparse = avg(&mk(4, 4096), 4.0 / 4096.0, &mut rng);
        assert!(
            sparse > 1.5 * dense,
            "√(1/ρ) scaling violated: dense {dense}, sparse {sparse}"
        );
    }
}
