//! Property coverage for the log₂ histogram (ISSUE 6 satellite): the
//! quantile sandwich against an exact sort, merge associativity and
//! commutativity, and bit-identical parallel vs sequential reduction
//! on rayon workers.

use proptest::prelude::*;
use wdr_metrics::Histogram;

/// The complete observable state of a histogram — if two histograms agree
/// here, every derived statistic (quantiles, summaries) agrees too.
fn state(h: &Histogram) -> (Vec<u64>, u64, u64, u64) {
    (h.bucket_counts(), h.count(), h.sum(), h.max())
}

fn observe_all(values: &[u64]) -> Histogram {
    let h = Histogram::new();
    for &v in values {
        h.observe(v);
    }
    h
}

/// Exact rank-`q` value by sorting, mirroring `Histogram::quantile`'s rank
/// convention (`ceil(q·n)` clamped to `[1, n]`).
fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
    let n = sorted.len() as u64;
    let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
    sorted[(rank - 1) as usize]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `v ≤ quantile(q) ≤ 2·v` for the true rank value `v`, at every
    /// quantile the snapshots report — over the full `u64` domain.
    #[test]
    fn quantile_sandwiches_the_exact_rank_value(
        values in proptest::collection::vec(any::<u64>(), 1..=256),
        q in 0.0f64..=1.0,
    ) {
        let h = observe_all(&values);
        let mut sorted = values;
        sorted.sort_unstable();
        for q in [q, 0.5, 0.9, 0.99] {
            let exact = exact_quantile(&sorted, q);
            let est = h.quantile(q);
            prop_assert!(est >= exact, "q={q}: estimate {est} below exact {exact}");
            prop_assert!(
                est <= exact.saturating_mul(2),
                "q={q}: estimate {est} above 2×exact ({exact})"
            );
            prop_assert!(est <= h.max());
        }
    }

    /// Merging is associative and commutative on the complete state, so any
    /// reduction tree over disjoint partials is equivalent.
    #[test]
    fn merge_is_associative_and_commutative(
        a in proptest::collection::vec(any::<u64>(), 0..=64),
        b in proptest::collection::vec(any::<u64>(), 0..=64),
        c in proptest::collection::vec(any::<u64>(), 0..=64),
    ) {
        let (ha, hb, hc) = (observe_all(&a), observe_all(&b), observe_all(&c));

        // (a ⊕ b) ⊕ c
        let left = Histogram::new();
        left.merge_from(&ha);
        left.merge_from(&hb);
        left.merge_from(&hc);
        // a ⊕ (b ⊕ c)
        let bc = Histogram::new();
        bc.merge_from(&hb);
        bc.merge_from(&hc);
        let right = Histogram::new();
        right.merge_from(&ha);
        right.merge_from(&bc);
        prop_assert_eq!(state(&left), state(&right));

        // b ⊕ a  ==  a ⊕ b
        let ab = Histogram::new();
        ab.merge_from(&ha);
        ab.merge_from(&hb);
        let ba = Histogram::new();
        ba.merge_from(&hb);
        ba.merge_from(&ha);
        prop_assert_eq!(state(&ab), state(&ba));

        // And both equal observing everything into one histogram.
        let joint: Vec<u64> = a.iter().chain(&b).chain(&c).copied().collect();
        prop_assert_eq!(state(&left), state(&observe_all(&joint)));
    }

    /// Per-thread partials reduced in index order are bit-identical to the
    /// sequential single-histogram run, so histograms filled on several
    /// threads reduce deterministically.
    #[test]
    fn parallel_reduction_is_bit_identical(
        values in proptest::collection::vec(any::<u64>(), 1..=512),
        threads in 1usize..=8,
    ) {
        let sequential = observe_all(&values);

        let chunk = values.len().div_ceil(threads);
        let parts: Vec<Histogram> = (0..threads).map(|_| Histogram::new()).collect();
        rayon::scope(|s| {
            for (part, chunk) in parts.iter().zip(values.chunks(chunk)) {
                s.spawn(move || {
                    for &v in chunk {
                        part.observe(v);
                    }
                });
            }
        });
        // Index-ordered reduction of the per-thread partials.
        let parallel = Histogram::merged(&parts);
        prop_assert_eq!(state(&parallel), state(&sequential));
        prop_assert_eq!(parallel.summary(), sequential.summary());
    }
}
