//! Cross-crate pins on the workspace's shared deterministic primitives:
//! the SplitMix64 mixer and stream, 64-bit FNV-1a, and the RON-subset
//! lexer. Each crate reaches them through `wdr_metrics::util` and
//! `wdr_conformance::ron`; these tests check the values they produce at
//! the crate boundaries that persist them — graph digests, streamed
//! generator output, fault-oracle draws, ablation plan hashes and job
//! seeds. The reference values were recorded from the implementation
//! before the primitives were merged, so a change to any of them shows up
//! here as a changed constant.

use congest_graph::generators::stream::StreamSpec;
use congest_graph::{generators, WeightedGraph};
use congest_sim::FaultPlan;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use wdr_ablate::plan::{parse, plan_hash, to_ron};

const E13_PLAN: &str = include_str!("../crates/ablate/plans/e13.ron");

fn stream_specs() -> [StreamSpec; 3] {
    [
        StreamSpec::PowerLaw {
            n: 200,
            attach: 3,
            max_w: 50,
            seed: 11,
        },
        StreamSpec::RoadGrid {
            n: 200,
            max_w: 9,
            seed: 7,
        },
        StreamSpec::WebLayered {
            n: 200,
            layers: 5,
            fanout: 2,
            max_w: 100,
            seed: 3,
        },
    ]
}

/// `k`-indexed drop bitmask of one link over rounds `1..=4`.
fn drop_masks(plan: &FaultPlan) -> Vec<u64> {
    let oracle = plan.compile();
    (1..=4)
        .map(|round| {
            (0..64u64).fold(0u64, |mask, k| {
                mask | (u64::from(oracle.drops(round, 2, 5, k).is_some()) << k)
            })
        })
        .collect()
}

#[test]
fn graph_digests_match_reference_values() {
    let mut rng = ChaCha8Rng::seed_from_u64(9);
    let digests = [
        generators::cycle(8, 3).digest().to_hex(),
        generators::grid(4, 5, 7).digest().to_hex(),
        generators::erdos_renyi_connected(24, 0.2, 1000, &mut rng)
            .digest()
            .to_hex(),
        WeightedGraph::from_edges(3, [(0, 2, u64::MAX / 4)])
            .unwrap()
            .digest()
            .to_hex(),
    ];
    assert_eq!(
        digests,
        [
            "c46a43a965021b6d",
            "ea88efabee9a2ead",
            "b929f3e161136128",
            "e62bdbc800c408dc",
        ]
    );
}

#[test]
fn streamed_families_match_reference_digests() {
    let digests = stream_specs().map(|spec| spec.build().unwrap().digest().to_hex());
    assert_eq!(
        digests,
        ["6451f09ef4ca204c", "661d8df58eaacccc", "99f896b73b0e2b2d"]
    );
}

#[test]
fn streamed_families_replay_and_depend_on_seed() {
    for spec in stream_specs() {
        let a = spec.build().unwrap();
        assert_eq!(a.digest(), spec.build().unwrap().digest(), "{spec:?}");
        let reseeded = match spec {
            StreamSpec::PowerLaw {
                n,
                attach,
                max_w,
                seed,
            } => StreamSpec::PowerLaw {
                n,
                attach,
                max_w,
                seed: seed + 1,
            },
            StreamSpec::RoadGrid { n, max_w, seed } => StreamSpec::RoadGrid {
                n,
                max_w,
                seed: seed + 1,
            },
            StreamSpec::WebLayered {
                n,
                layers,
                fanout,
                max_w,
                seed,
            } => StreamSpec::WebLayered {
                n,
                layers,
                fanout,
                max_w,
                seed: seed + 1,
            },
        };
        assert_ne!(a.digest(), reseeded.build().unwrap().digest(), "{spec:?}");
    }
}

#[test]
fn streamed_graph_matches_in_memory_rebuild() {
    for spec in stream_specs() {
        let streamed = spec.build().unwrap();
        let mut edges = Vec::new();
        spec.for_each_edge(&mut |u, v, w| edges.push((u, v, w)));
        let rebuilt = WeightedGraph::from_edges(spec.n(), edges).unwrap();
        assert_eq!(streamed.digest(), rebuilt.digest(), "{spec:?}");
        assert_eq!(streamed.m(), rebuilt.m(), "{spec:?}");
    }
}

#[test]
fn fault_oracle_drops_match_reference_pattern() {
    let masks = drop_masks(&FaultPlan::new(42).with_drop_rate(0.5));
    assert_eq!(
        masks,
        [
            0x3abe_54e5_a804_94b9,
            0xfe1b_601c_cc7d_c3b9,
            0xc7d1_abac_1003_67af,
            0xea6b_e2fb_83fc_bf37,
        ]
    );
}

#[test]
fn fault_oracle_drop_rate_is_calibrated() {
    let oracle = FaultPlan::new(1234).with_drop_rate(0.3).compile();
    let mut dropped = 0u32;
    let mut total = 0u32;
    for round in 1..=50 {
        for from in 0..10 {
            for k in 0..40 {
                total += 1;
                dropped += u32::from(oracle.drops(round, from, from + 1, k).is_some());
            }
        }
    }
    let rate = f64::from(dropped) / f64::from(total);
    assert!((rate - 0.3).abs() < 0.02, "empirical drop rate {rate}");
}

#[test]
fn fault_oracle_is_keyed_on_coordinates_and_seed() {
    let plan = FaultPlan::new(42).with_drop_rate(0.5);
    assert_eq!(drop_masks(&plan), drop_masks(&plan.clone()));
    assert_ne!(
        drop_masks(&plan),
        drop_masks(&FaultPlan::new(43).with_drop_rate(0.5))
    );
    let masks = drop_masks(&plan);
    assert!(masks.windows(2).all(|w| w[0] != w[1]), "{masks:x?}");
}

#[test]
fn ablation_plan_hash_matches_reference_value() {
    let plan = parse(E13_PLAN).unwrap();
    assert_eq!(parse(&to_ron(&plan)).unwrap(), plan);
    assert_eq!(plan_hash(&plan), "c11d28f21fcd028b");
}

#[test]
fn ablation_job_seeds_match_reference_values() {
    let plan = parse(E13_PLAN).unwrap();
    let jobs = wdr_ablate::expand(&plan, 0).unwrap();
    assert_eq!(jobs.len(), 18);
    let seeds: Vec<u64> = jobs.iter().take(3).map(|j| j.seed).collect();
    assert_eq!(
        seeds,
        [
            0xe220_a839_7b1d_cdaf,
            0x6e78_9e6a_a1b9_65f4,
            0x06c4_5d18_8009_454f
        ]
    );
}

#[test]
fn ablation_plan_errors_carry_offsets() {
    let bad = [
        E13_PLAN.replace("Quantum", "Banana"),
        E13_PLAN.replace("mode: Grid", "mode: \"Grid\""),
        E13_PLAN.replace("samples: None", "samples: Some(-3)"),
        format!("{E13_PLAN} trailing"),
    ];
    for text in &bad {
        let err = parse(text).unwrap_err();
        assert!(err.offset > 0 && err.offset <= text.len(), "{err}");
        assert!(err.to_string().contains("at byte"), "{err}");
    }
}
