//! The experiments E1–E6, E8, E9, E11–E13, F1–F4 and ablations A1–A4 of
//! DESIGN.md §4.
//!
//! Every function is deterministic given its internal seeds; `quick = true`
//! trims the sweep sizes (the default for `cargo bench`), `quick = false`
//! is the full sweep used for EXPERIMENTS.md.

use crate::harness::{loglog_slope, ExperimentOutput, Table};
use congest_algos::baselines::{diameter_radius_exact, two_approx_diameter_radius, WeightMode};
use congest_algos::bounded_sssp::{bounded_distance_sssp, bounded_hop_sssp};
use congest_algos::multi_source::multi_source_bounded_hop;
use congest_algos::overlay_net::{embed_overlay, overlay_sssp};
use congest_graph::overlay::SkeletonDistances;
use congest_graph::rounding::RoundingScheme;
use congest_graph::{contract, generators, metrics, WeightedGraph};
use congest_lb::formulas::{f_diameter, f_radius, GadgetDims};
use congest_lb::gadget::{diameter_gadget, node_count, paper_weights, radius_gadget, GadgetNode};
use congest_lb::reduction::{measured_bound, reduction_point};
use congest_lb::server::simulate_transcript;
use congest_sim::telemetry::{build_phase_tree, CollectingTracer, PhaseNode};
use congest_sim::{SimConfig, SimMetrics, Telemetry};
use congest_wdr::algorithm::{quantum_weighted, Objective};
use congest_wdr::cost::{self, Polylog};
use congest_wdr::params::WdrParams;
use congest_wdr::unweighted::quantum_unweighted;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;
use wdr_metrics::util::mix64;
use wdr_metrics::MetricsRegistry;

const MAX_W: u64 = 8;
const EPS: f64 = 0.25;

fn family(n: usize, hubs: usize, seed: u64) -> WeightedGraph {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    generators::cluster_ring(n, hubs, MAX_W, &mut rng)
}

fn cfg(g: &WeightedGraph) -> SimConfig {
    SimConfig::standard(g.n(), g.max_weight()).with_max_rounds(2_000_000_000)
}

fn sizes(quick: bool) -> Vec<usize> {
    if quick {
        vec![32, 48, 64, 96]
    } else {
        vec![32, 48, 64, 96, 128, 160]
    }
}

/// Total subtree rounds of every phase named `name` in the tree.
fn phase_rounds(tree: &PhaseNode, name: &str) -> usize {
    tree.walk()
        .iter()
        .filter(|(_, node)| node.name == name)
        .map(|(_, node)| node.subtree().rounds)
        .sum()
}

/// Re-runs one representative instance with a collecting tracer and reads
/// the measured `T₀ / T₁ / T₂` off the phase tree (Lemma 3.5's accounting).
fn phase_breakdown(
    g: &WeightedGraph,
    objective: Objective,
    params: &WdrParams,
    seed: u64,
) -> String {
    let tracer = Arc::new(CollectingTracer::default());
    let config = cfg(g).with_telemetry(Telemetry::new(tracer.clone()));
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    if quantum_weighted(g, 0, objective, params, &config, &mut rng).is_err() {
        return "-".to_string();
    }
    let tree = build_phase_tree(&tracer.events());
    format!(
        "{}/{}/{}",
        phase_rounds(&tree, "skeleton_init"),
        phase_rounds(&tree, "skeleton_setup"),
        phase_rounds(&tree, "skeleton_evaluate")
    )
}

fn weighted_scaling(objective: Objective, id: &str, title: &str, quick: bool) -> ExperimentOutput {
    let seeds: u64 = if quick { 6 } else { 10 };
    let mut table = Table::new(
        id,
        title,
        &[
            "n",
            "D",
            "budgeted rounds",
            "adaptive rounds (mean)",
            "ratio (max)",
            "composed model",
            "headline n^0.9·D^0.3",
            "phase rounds T0/T1/T2",
        ],
    );
    let mut points = Vec::new();
    let mut adaptive_points = Vec::new();
    let mut model_points = Vec::new();
    for n in sizes(quick) {
        let mut rounds_sum = 0.0;
        let mut budgeted_sum = 0.0;
        let mut ratio_max: f64 = 0.0;
        let mut d_used = 0;
        for seed in 0..seeds {
            let g = family(n, 4, 1000 + seed % 2);
            let d = metrics::unweighted_diameter(&g);
            d_used = d;
            let params = WdrParams::for_benchmarks(n, d, EPS);
            let mut rng = ChaCha8Rng::seed_from_u64(77 * n as u64 + seed);
            let rep = quantum_weighted(&g, 0, objective, &params, &cfg(&g), &mut rng)
                .expect("simulation succeeds");
            rounds_sum += rep.total_rounds as f64;
            budgeted_sum += rep.budgeted_rounds as f64;
            let ratio = if rep.exact > 0.0 {
                rep.estimate / rep.exact
            } else {
                1.0
            };
            ratio_max = ratio_max.max(ratio);
            assert!(
                ratio <= (1.0 + EPS) * (1.0 + EPS) + 1e-6,
                "approximation guarantee violated at n={n}"
            );
        }
        let mean = rounds_sum / seeds as f64;
        let budgeted = (budgeted_sum / seeds as f64) as usize;
        let params = WdrParams::for_benchmarks(n, d_used.max(1), EPS);
        let composed = cost::composed_cost(n, d_used.max(1), params.eps, params.r, params.k as f64);
        points.push((n as f64, budgeted as f64));
        adaptive_points.push((n as f64, mean));
        model_points.push((n as f64, composed));
        let breakdown = {
            let g = family(n, 4, 1000);
            phase_breakdown(&g, objective, &params, 77 * n as u64)
        };
        table.push(vec![
            n.to_string(),
            d_used.to_string(),
            budgeted.to_string(),
            format!("{mean:.0}"),
            format!("{ratio_max:.4}"),
            format!("{composed:.0}"),
            format!(
                "{:.0}",
                cost::quantum_weighted_upper(n, d_used, Polylog::Drop)
            ),
            breakdown,
        ]);
    }
    let slope = loglog_slope(&points);
    let slope_adaptive = loglog_slope(&adaptive_points);
    let slope_model = loglog_slope(&model_points);
    table.commentary = format!(
        "Paper (Theorem 1.1): Õ(min{{n^0.9·D^0.3, n}}) — asymptotic log-log slope 0.9 in n \
         at fixed D. At simulatable sizes the composition's lower-order terms matter, so \
         the fair model is the paper's explicit Lemma 3.5 composition evaluated at the \
         same sizes (slope **{slope_model:.2}** here). Measured slope of the executed \
         Lemma 3.1 schedule: **{slope:.2}** (adaptive-search mean: {slope_adaptive:.2}). \
         Approximation guarantee (1+ε)² = {:.3} never violated.",
        (1.0 + EPS) * (1.0 + EPS)
    );
    ExperimentOutput {
        tables: vec![table],
        artifacts: vec![],
    }
}

/// E1: Table 1 row — quantum weighted diameter upper bound, measured.
pub fn e1(quick: bool) -> ExperimentOutput {
    weighted_scaling(
        Objective::Diameter,
        "E1",
        "Quantum weighted diameter: measured rounds vs n (Theorem 1.1 row of Table 1)",
        quick,
    )
}

/// E2: Table 1 row — quantum weighted radius upper bound, measured.
pub fn e2(quick: bool) -> ExperimentOutput {
    weighted_scaling(
        Objective::Radius,
        "E2",
        "Quantum weighted radius: measured rounds vs n (Theorem 1.1 row of Table 1)",
        quick,
    )
}

/// E3: the `min{n^{9/10}D^{3/10}, n}` crossover — sweep `D` at fixed `n`.
pub fn e3(quick: bool) -> ExperimentOutput {
    let n = if quick { 64 } else { 96 };
    let mut table = Table::new(
        "E3",
        "D-sweep at fixed n: the min{n^0.9·D^0.3, n} branches",
        &[
            "n",
            "hubs",
            "D",
            "rounds",
            "model min-branch",
            "crossover D = n^⅓",
        ],
    );
    let mut points = Vec::new();
    for hubs in [2usize, 4, 8, 12] {
        let g = family(n, hubs, 3000 + hubs as u64);
        let d = metrics::unweighted_diameter(&g);
        let params = WdrParams::for_benchmarks(n, d, EPS);
        let mut rng = ChaCha8Rng::seed_from_u64(500 + hubs as u64);
        let rep = quantum_weighted(&g, 0, Objective::Diameter, &params, &cfg(&g), &mut rng)
            .expect("simulation succeeds");
        points.push((d as f64, rep.budgeted_rounds as f64));
        table.push(vec![
            n.to_string(),
            hubs.to_string(),
            d.to_string(),
            rep.budgeted_rounds.to_string(),
            format!("{:.0}", cost::quantum_weighted_upper(n, d, Polylog::Drop)),
            format!("{:.1}", cost::crossover_d(n)),
        ]);
    }
    let slope = loglog_slope(&points);
    table.commentary = format!(
        "Paper: rounds grow like D^0.3 below the crossover D = n^(1/3) ≈ {:.1}, then the \
         trivial-n branch takes over. Measured D-slope: **{slope:.2}** \
         (the D^0.3 regime, inflated by the D-dependent phases of Lemma 3.5).",
        cost::crossover_d(n)
    );
    ExperimentOutput {
        tables: vec![table],
        artifacts: vec![],
    }
}

/// E4: the classical `Θ̃(n)` rows, measured (exact APSP baselines).
pub fn e4(quick: bool) -> ExperimentOutput {
    let mut table = Table::new(
        "E4",
        "Classical exact diameter/radius: measured rounds vs n (classical rows of Table 1)",
        &[
            "n",
            "D",
            "rounds (weighted)",
            "rounds (unweighted)",
            "rounds (2-approx)",
            "model n",
        ],
    );
    let mut pts_w = Vec::new();
    for n in sizes(quick) {
        let g = family(n, 4, 2000);
        let d = metrics::unweighted_diameter(&g);
        let (dw, rw, st_w) = diameter_radius_exact(&g, 0, &cfg(&g), WeightMode::Weighted)
            .expect("simulation succeeds");
        let (du, ru, st_u) = diameter_radius_exact(&g, 0, &cfg(&g), WeightMode::Unweighted)
            .expect("simulation succeeds");
        let exact_w = metrics::extremes(&g);
        let exact_u = metrics::unweighted_extremes(&g);
        assert_eq!(dw, exact_w.diameter);
        assert_eq!(rw, exact_w.radius);
        assert_eq!(du, exact_u.diameter);
        assert_eq!(ru, exact_u.radius);
        let (d2, r2, st_2) =
            two_approx_diameter_radius(&g, 0, &cfg(&g)).expect("simulation succeeds");
        assert!(d2 >= dw && d2 <= dw.saturating_mul(2));
        assert!(r2 >= rw && r2 <= rw.saturating_mul(2));
        pts_w.push((n as f64, st_w.rounds as f64));
        table.push(vec![
            n.to_string(),
            d.to_string(),
            st_w.rounds.to_string(),
            st_u.rounds.to_string(),
            st_2.rounds.to_string(),
            n.to_string(),
        ]);
    }
    let slope = loglog_slope(&pts_w);
    table.commentary = format!(
        "Paper: exact APSP (hence diameter/radius) takes Θ̃(n) rounds classically \
         [6, 17, 22] and this is tight [2, 11]; a mere 2-approximation is far cheaper \
         (Table 1's √n·D^(1/4)+D row [8] — here a single SSSP + convergecast). \
         Measured weighted-APSP slope: **{slope:.2}** (≈ 1 expected)."
    );
    ExperimentOutput {
        tables: vec![table],
        artifacts: vec![],
    }
}

/// E5: the quantum **unweighted** rows, measured (`√n·D` execution) plus
/// the `√(nD)` LGM model.
pub fn e5(quick: bool) -> ExperimentOutput {
    let mut table = Table::new(
        "E5",
        "Quantum unweighted diameter: measured rounds vs n (LGM row of Table 1)",
        &[
            "n",
            "D",
            "budgeted rounds",
            "adaptive (mean)",
            "found exact",
            "model √n·D",
            "LGM model √(nD)",
        ],
    );
    let seeds: u64 = if quick { 4 } else { 8 };
    let mut points = Vec::new();
    for n in sizes(quick) {
        let mut sum = 0.0;
        let mut budgeted_sum = 0.0;
        let mut exact_hits = 0;
        let mut d_used = 0;
        for seed in 0..seeds {
            // Sparse random graphs: the maximum eccentricity is attained by
            // few nodes, so the search genuinely has to hunt (on the
            // cluster-ring family nearly every node is a diameter witness
            // and the search ends immediately).
            let mut grng = ChaCha8Rng::seed_from_u64(4000 + 13 * n as u64 + seed);
            let g = generators::erdos_renyi_connected(n, 1.5 / n as f64, 1, &mut grng);
            let d = metrics::unweighted_diameter(&g);
            d_used = d;
            let mut rng = ChaCha8Rng::seed_from_u64(900 + 31 * n as u64 + seed);
            let rep = quantum_unweighted(&g, 0, Objective::Diameter, 0.05, &cfg(&g), &mut rng)
                .expect("simulation succeeds");
            sum += rep.total_rounds as f64;
            budgeted_sum += rep.budgeted_rounds as f64;
            exact_hits += usize::from(rep.estimate == rep.exact);
        }
        let mean = sum / seeds as f64;
        let budgeted = budgeted_sum / seeds as f64;
        points.push((n as f64, budgeted / d_used.max(1) as f64));
        table.push(vec![
            n.to_string(),
            d_used.to_string(),
            format!("{budgeted:.0}"),
            format!("{mean:.0}"),
            format!("{exact_hits}/{seeds}"),
            format!(
                "{:.0}",
                cost::grover_bfs_unweighted_upper(n, d_used, Polylog::Drop)
            ),
            format!(
                "{:.0}",
                cost::lgm_unweighted_upper(n, d_used, Polylog::Drop)
            ),
        ]);
    }
    let slope = loglog_slope(&points);
    table.commentary = format!(
        "Paper [12]: Õ(√(nD)). Our executable variant evaluates eccentricities by BFS \
         (Õ(√n·D); same √n shape — see DESIGN.md §1). Measured slope of rounds/D vs n: \
         **{slope:.2}** (0.5 expected). The ordering of Table 1 at small D — \
         unweighted-quantum < weighted-quantum < classical — is visible against E1/E4."
    );

    // E5b: the *classical* 3/2-approximation rows ([3, 15]): Õ(√n + D).
    let mut t2 = Table::new(
        "E5b",
        "Classical 3/2-approx unweighted diameter (Õ(√n + D) rows of Table 1)",
        &[
            "n",
            "D",
            "rounds",
            "estimate ∈ [⌊2D/3⌋, D]",
            "radius est ∈ [R, 2R]",
            "model √n + D",
        ],
    );
    let mut pts2 = Vec::new();
    for n in sizes(quick) {
        let mut grng = ChaCha8Rng::seed_from_u64(8800 + n as u64);
        let g = generators::erdos_renyi_connected(n, 1.5 / n as f64, 1, &mut grng);
        let exact = metrics::unweighted_extremes(&g);
        let d = exact.diameter.expect_finite();
        let r = exact.radius.expect_finite();
        let res = congest_algos::three_halves::three_halves_diameter(&g, 0, &cfg(&g), &mut grng)
            .expect("simulation succeeds");
        let d_ok = res.diameter_estimate <= d && 3 * res.diameter_estimate + 3 >= 2 * d;
        let r_ok = res.radius_estimate >= r && res.radius_estimate <= 2 * r;
        assert!(d_ok && r_ok, "3/2-approx guarantee failed at n={n}");
        pts2.push((n as f64, res.stats.rounds as f64));
        t2.push(vec![
            n.to_string(),
            d.to_string(),
            res.stats.rounds.to_string(),
            format!("{} ✓", res.diameter_estimate),
            format!("{} ✓", res.radius_estimate),
            format!("{:.0}", (n as f64).sqrt() + d as f64),
        ]);
    }
    let slope2 = loglog_slope(&pts2);
    t2.commentary = format!(
        "Paper [3, 15]: Õ(√n + D) for a 3/2-approximation — the cheap side of the \
         classical approximation/round trade-off. Measured slope: **{slope2:.2}** \
         (≈ 0.5 + the log-factor sample size; linear exact APSP is E4)."
    );
    ExperimentOutput {
        tables: vec![table, t2],
        artifacts: vec![],
    }
}

/// E6: the lower-bound chain of Theorem 1.2, measured link by link.
pub fn e6(quick: bool) -> ExperimentOutput {
    let mut out = ExperimentOutput::default();

    // (a) The Lemma 4.4 / 4.9 gaps on the real gadgets.
    let dims = GadgetDims::new(2);
    let (alpha, beta) = paper_weights(&dims);
    let mut gap = Table::new(
        "E6a",
        "Gadget gap (Lemmas 4.4 & 4.9): diameter/radius decide F/F′ on every tried input",
        &[
            "inputs tried",
            "F=1 cases",
            "F=0 cases",
            "diameter gap holds",
            "radius gap holds",
        ],
    );
    let trials = if quick { 12 } else { 40 };
    let mut rng = ChaCha8Rng::seed_from_u64(60);
    let (mut ones, mut zeros, mut d_ok, mut r_ok) = (0, 0, 0, 0);
    for t in 0..trials {
        let density = [0.95, 0.5, 0.15][t % 3];
        let x: Vec<bool> = (0..dims.input_len())
            .map(|_| rng.gen_bool(density))
            .collect();
        let y: Vec<bool> = (0..dims.input_len())
            .map(|_| rng.gen_bool(density))
            .collect();
        let fd = f_diameter(&dims, &x, &y);
        if fd {
            ones += 1
        } else {
            zeros += 1
        }
        let g = diameter_gadget(&dims, &x, &y, alpha, beta);
        let d = metrics::diameter(&g.graph).expect_finite();
        let n = g.graph.n() as u64;
        let holds = if fd {
            d <= 2 * alpha + n
        } else {
            d >= (alpha + beta).min(3 * alpha)
        };
        d_ok += usize::from(holds);
        let rg = radius_gadget(&dims, &x, &y, alpha, beta);
        let r = metrics::radius(&rg.graph).expect_finite();
        let fr = f_radius(&dims, &x, &y);
        let rn = rg.graph.n() as u64;
        let holds_r = if fr {
            r <= (2 * alpha).max(beta) + rn
        } else {
            r >= (alpha + beta).min(3 * alpha)
        };
        r_ok += usize::from(holds_r);
    }
    gap.push(vec![
        trials.to_string(),
        ones.to_string(),
        zeros.to_string(),
        format!("{d_ok}/{trials}"),
        format!("{r_ok}/{trials}"),
    ]);
    gap.commentary =
        "Both directions of both gap lemmas verified exactly on every sampled input pair.".into();
    assert_eq!(d_ok, trials);
    assert_eq!(r_ok, trials);
    out.tables.push(gap);

    // (b) Lemma 4.1, measured on real protocols.
    let mut sim = Table::new(
        "E6b",
        "Simulation Lemma 4.1: charged Alice/Bob communication of real CONGEST runs",
        &[
            "h",
            "n",
            "rounds T",
            "total msgs",
            "charged msgs",
            "max/round (cap 2h)",
            "charged bits ≤ 2ThB",
        ],
    );
    let heights: &[u32] = if quick { &[4] } else { &[4, 6] };
    for &h in heights {
        let dims = GadgetDims::new(h);
        let (alpha, beta) = paper_weights(&dims);
        let ones_in = vec![true; dims.input_len()];
        let g = diameter_gadget(&dims, &ones_in, &ones_in, alpha, beta);
        let u = g.graph.unweighted_view();
        // Start the flood inside Alice's part so the players actually have
        // to speak to the server as the frontier crosses into its region.
        let src = g.layout.id(GadgetNode::A(1));
        let limit = ((1u64 << h) / 2).saturating_sub(2).max(1); // rounds = limit + 1 < 2^h/2
        let c = SimConfig::standard(u.n(), 1).with_message_log();
        let (_, stats) = bounded_distance_sssp(&u, src, src, limit, &c).expect("sim ok");
        let report = simulate_transcript(&g.layout, &stats.message_log);
        let maxr = report.per_round.iter().copied().max().unwrap_or(0);
        assert!(maxr <= report.per_round_cap);
        let bound = report.bound_bits(h, 64);
        assert!(report.cost.bits <= bound);
        sim.push(vec![
            h.to_string(),
            g.graph.n().to_string(),
            report.rounds.to_string(),
            stats.messages.to_string(),
            report.cost.messages.to_string(),
            format!("{maxr} ≤ {}", report.per_round_cap),
            format!("{} ≤ {bound}", report.cost.bits),
        ]);
    }
    sim.commentary = "The ownership schedule charges only the O(h) frontier messages per \
        round; every run stays under the 2·T·h·B budget."
        .into();
    out.tables.push(sim);

    // (c) Approximate degree, measured by the exact LP.
    let mut deg = Table::new(
        "E6c",
        "deg_{1/3} of AND_k / OR_k (Lemma 4.6's Θ(√k)), computed exactly by LP",
        &["k", "deg(AND_k)", "deg(OR_k)", "√k"],
    );
    let ks: &[usize] = if quick {
        &[1, 4, 9, 16, 25]
    } else {
        &[1, 4, 9, 16, 25, 36, 49]
    };
    let mut fit_pts = Vec::new();
    for &k in ks {
        let da =
            congest_lb::degree::approx_degree(&congest_lb::degree::SymmetricFn::and(k), 1.0 / 3.0);
        let do_ =
            congest_lb::degree::approx_degree(&congest_lb::degree::SymmetricFn::or(k), 1.0 / 3.0);
        assert_eq!(da, do_, "AND/OR duality");
        fit_pts.push((k, da));
        deg.push(vec![
            k.to_string(),
            da.to_string(),
            do_.to_string(),
            format!("{:.2}", (k as f64).sqrt()),
        ]);
    }
    let (c_fit, resid) = congest_lb::degree::sqrt_fit(&fit_pts);
    deg.commentary = format!(
        "Fit: deg_{{1/3}}(AND_k) ≈ {c_fit:.2}·√k (max relative residual {resid:.2}) — \
         Lemma 4.6's Θ(√k), measured."
    );
    out.tables.push(deg);

    // (d) The composed bound vs the upper bound.
    let mut comp = Table::new(
        "E6d",
        "Composed Theorem 4.2 bound vs Theorem 1.1 upper bound (the Table 1 gap)",
        &[
            "h",
            "n",
            "lower Ω: 2^h/(h·log n)",
            "≈ n^⅔/log²n",
            "upper Õ: n^0.9·D^0.3 (D=log n)",
            "measured Q^sv via deg fit",
        ],
    );
    for h in [2u32, 4, 6, 8, 10, 12] {
        let p = reduction_point(h);
        let d = (p.n as f64).log2().ceil() as usize;
        let (_, mb) = measured_bound(&GadgetDims::new(h), &[4, 9, 16, 25]);
        comp.push(vec![
            h.to_string(),
            p.n.to_string(),
            format!("{:.1}", p.rounds),
            format!("{:.1}", p.n_two_thirds_over_log2),
            format!("{:.0}", cost::quantum_weighted_upper(p.n, d, Polylog::Drop)),
            format!("{mb:.0}"),
        ]);
    }
    comp.commentary = "The n^⅔ lower bound and the n^0.9 upper bound bracket the open \
        territory of Table 1's weighted rows; both grow polynomially and the gap \
        widens as n^{0.9−0.667}."
        .into();
    out.tables.push(comp);
    out
}

/// The E8 gossip workload: every node broadcasts a running digest each
/// round and burns `work` iterations of a splitmix-style mixer per round,
/// so the compute phase has enough local work for a thread sweep to bite.
/// Deterministic: the final digests depend only on the graph and `rounds`.
struct GossipMix {
    digest: u64,
    rounds: usize,
    work: u32,
}

impl congest_sim::NodeProgram for GossipMix {
    type Msg = u64;
    type Output = u64;

    fn start(&mut self, ctx: &congest_sim::NodeCtx, mb: &mut congest_sim::Mailbox<u64>) {
        self.digest = mix64(ctx.id as u64 + 1);
        mb.broadcast(ctx, self.digest);
    }

    fn round(
        &mut self,
        ctx: &congest_sim::NodeCtx,
        round: usize,
        inbox: &[(congest_graph::NodeId, u64)],
        mb: &mut congest_sim::Mailbox<u64>,
    ) -> congest_sim::Status {
        for &(_, d) in inbox {
            self.digest = mix64(self.digest ^ d);
        }
        for _ in 0..self.work {
            self.digest = mix64(self.digest);
        }
        if round < self.rounds {
            mb.broadcast(ctx, self.digest);
            congest_sim::Status::Running
        } else {
            congest_sim::Status::Done
        }
    }

    fn finish(self, _ctx: &congest_sim::NodeCtx) -> u64 {
        self.digest
    }
}

/// Sets the gauge `{prefix}.{metric}` for every pair: how each `BENCH_*`
/// emitter publishes its row figures, which the perf trajectory reads back
/// from the artifact's embedded registry snapshot.
fn publish(registry: &MetricsRegistry, prefix: &str, pairs: &[(&str, f64)]) {
    for (metric, value) in pairs {
        registry.gauge(&format!("{prefix}.{metric}")).set(*value);
    }
}

/// One timed E8 configuration, serialized into `BENCH_step_engine.json`.
#[derive(Clone, Debug, serde::Serialize)]
struct E8Row {
    n: usize,
    edges: usize,
    rounds: usize,
    mode: String,
    secs_per_run: f64,
    rounds_per_sec: f64,
    speedup_vs_sequential: f64,
}

/// The machine-readable E8 report (`BENCH_step_engine.json`).
#[derive(Clone, Debug, serde::Serialize)]
struct E8Report {
    experiment: String,
    meta: wdr_metrics::RunMeta,
    host_threads: usize,
    rows: Vec<E8Row>,
    /// Registry snapshot: the row figures (`e8.n{n}.{mode}.t1.…`)
    /// and the `e8.n{n}.sim.…` counters, summed over every timing iteration.
    metrics: Vec<(String, f64)>,
}

/// Runs one E8 workload under the criterion timing loop and returns
/// (mean seconds per run, simulated rounds, final digests).
fn e8_time_run(
    g: &WeightedGraph,
    config: &SimConfig,
    rounds: usize,
    work: u32,
    measurement: std::time::Duration,
) -> (f64, usize, Vec<u64>) {
    use congest_sim::run_phase;
    let mut crit = criterion::Criterion::default().measurement_time(measurement);
    let mut sim_rounds = 0;
    let mut outputs = Vec::new();
    crit.bench_function("e8", |b| {
        b.iter(|| {
            let (out, stats) = run_phase(g, 0, config, "e8_gossip", |_, _| GossipMix {
                digest: 0,
                rounds,
                work,
            })
            .expect("gossip run succeeds");
            sim_rounds = stats.rounds;
            outputs = out;
        });
    });
    let secs = crit
        .last_measurement()
        .expect("bench_function records a measurement")
        .as_secs_f64();
    (secs, sim_rounds, outputs)
}

/// E8: round-engine throughput — rounds/sec of the engine, bare and with
/// a `SimMetrics` bundle attached, on dense gossip workloads.
/// Writes `BENCH_step_engine.json` under `out_dir`.
pub fn e8(quick: bool, out_dir: &std::path::Path) -> ExperimentOutput {
    let host_threads = std::thread::available_parallelism().map_or(1, |t| t.get());
    let (ns, rounds, work, measurement) = if quick {
        (vec![48, 96], 60, 64, std::time::Duration::from_millis(60))
    } else {
        (
            vec![64, 128, 256],
            150,
            256,
            std::time::Duration::from_millis(400),
        )
    };
    let mut table = Table::new(
        "E8",
        "Round-engine throughput: bare vs metrics-on",
        &[
            "n",
            "edges",
            "rounds",
            "mode",
            "time/run",
            "rounds/sec",
            "speedup",
        ],
    );
    let mut rows: Vec<E8Row> = Vec::new();
    let registry = MetricsRegistry::new();
    for &n in &ns {
        let mut rng = ChaCha8Rng::seed_from_u64(8800 + n as u64);
        let g = generators::erdos_renyi_connected(n, 0.3, 1, &mut rng);
        let edges = g.m();
        let config = SimConfig {
            bandwidth: congest_sim::Bandwidth::bits(160),
            ..SimConfig::standard(g.n(), 1)
        };
        let (seq_secs, sim_rounds, seq_out) = e8_time_run(&g, &config, rounds, work, measurement);
        rows.push(E8Row {
            n,
            edges,
            rounds: sim_rounds,
            mode: "sequential".into(),
            secs_per_run: seq_secs,
            rounds_per_sec: sim_rounds as f64 / seq_secs,
            speedup_vs_sequential: 1.0,
        });
        // Metrics-on row: the same workload with a SimMetrics bundle
        // attached as the tracer. The handful of relaxed atomic adds per
        // round must land within noise of the bare engine — gated here,
        // not just plotted.
        let sim_metrics = Arc::new(SimMetrics::register(&registry, &format!("e8.n{n}.sim")));
        let metrics_cfg = config
            .clone()
            .with_telemetry(Telemetry::new(sim_metrics.clone()));
        let (met_secs, met_rounds, met_out) =
            e8_time_run(&g, &metrics_cfg, rounds, work, measurement);
        assert_eq!(met_rounds, sim_rounds, "metrics-on round count diverged");
        assert_eq!(met_out, seq_out, "metrics-on outputs diverged at n={n}");
        assert!(
            met_secs <= seq_secs * 1.5 + 1e-3,
            "metrics overhead at n={n}: {met_secs:.4}s vs {seq_secs:.4}s bare"
        );
        assert_eq!(
            sim_metrics.rounds.get() % sim_rounds as u64,
            0,
            "every timing iteration records exactly {sim_rounds} rounds"
        );
        rows.push(E8Row {
            n,
            edges,
            rounds: sim_rounds,
            mode: "sequential+metrics".into(),
            secs_per_run: met_secs,
            rounds_per_sec: sim_rounds as f64 / met_secs,
            speedup_vs_sequential: seq_secs / met_secs,
        });
    }
    for r in &rows {
        // `.t1` names the one thread every row runs on; the pinned
        // trajectory rows carry it.
        publish(
            &registry,
            &format!("e8.n{}.{}.t1", r.n, r.mode),
            &[
                ("rounds_per_sec", r.rounds_per_sec),
                ("secs_per_run", r.secs_per_run),
                ("speedup", r.speedup_vs_sequential),
            ],
        );
        table.push(vec![
            r.n.to_string(),
            r.edges.to_string(),
            r.rounds.to_string(),
            r.mode.clone(),
            format!("{:.2?}", std::time::Duration::from_secs_f64(r.secs_per_run)),
            format!("{:.0}", r.rounds_per_sec),
            format!("{:.2}", r.speedup_vs_sequential),
        ]);
    }
    let seed_list: Vec<u64> = ns.iter().map(|&n| 8800 + n as u64).collect();
    let report = E8Report {
        experiment: "E8".into(),
        meta: wdr_metrics::RunMeta::capture(&seed_list),
        host_threads,
        rows,
        metrics: registry.snapshot().to_pairs(),
    };
    std::fs::create_dir_all(out_dir).expect("create E8 output dir");
    let path = out_dir.join("BENCH_step_engine.json");
    std::fs::write(
        &path,
        serde_json::to_string(&report).expect("E8 report serializes"),
    )
    .expect("write BENCH_step_engine.json");
    table.commentary = format!(
        "Wall-clock throughput of `Network::step` on dense gossip (every node \
         broadcasts a 64-bit digest each round and burns {work} mixer iterations \
         locally). The `sequential+metrics` row re-times the engine with a \
         `SimMetrics` bundle as its tracer and is asserted within noise (≤1.5×) of the \
         bare row and its outputs asserted bit-identical; its registry snapshot is \
         embedded in the JSON. This host reports {host_threads} hardware threads \
         (recorded as `host_threads` in BENCH_step_engine.json).",
    );
    ExperimentOutput {
        tables: vec![table],
        artifacts: vec![path.display().to_string()],
    }
}

/// One timed E9 configuration, serialized into `BENCH_metrics_kernels.json`.
#[derive(Clone, Debug, serde::Serialize)]
struct E9Row {
    n: usize,
    edges: usize,
    density: String,
    max_weight: u64,
    kernel: String,
    sweeps: usize,
    sweep_fraction: f64,
    secs_per_run: f64,
    speedup_vs_brute: f64,
}

/// The machine-readable E9 report (`BENCH_metrics_kernels.json`).
#[derive(Clone, Debug, serde::Serialize)]
struct E9Report {
    experiment: String,
    meta: wdr_metrics::RunMeta,
    host_threads: usize,
    rows: Vec<E9Row>,
    /// Registry snapshot of the row figures, `e9.n{n}.{density}.w{W}.{kernel}.…`.
    metrics: Vec<(String, f64)>,
}

/// Times one ground-truth kernel under the criterion loop and returns
/// (mean seconds per run, the kernel's result).
fn e9_time(
    measurement: std::time::Duration,
    mut kernel: impl FnMut() -> congest_graph::SweepResult,
) -> (f64, congest_graph::SweepResult) {
    let mut crit = criterion::Criterion::default().measurement_time(measurement);
    let mut last = None;
    crit.bench_function("e9", |b| b.iter(|| last = Some(kernel())));
    let secs = crit
        .last_measurement()
        .expect("bench_function records a measurement")
        .as_secs_f64();
    (secs, last.expect("kernel ran at least once"))
}

/// E9: ground-truth kernel throughput — the seed's brute-force `n`-sweep
/// extremes vs the pruned SumSweep computer across size/density/weight
/// regimes.
/// Writes `BENCH_metrics_kernels.json` under `out_dir`.
pub fn e9(quick: bool, out_dir: &std::path::Path) -> ExperimentOutput {
    use congest_graph::sweep::{self, EdgeMetric};
    let host_threads = std::thread::available_parallelism().map_or(1, |t| t.get());
    let (ns, measurement) = if quick {
        (vec![128, 256, 512], std::time::Duration::from_millis(40))
    } else {
        (
            vec![128, 256, 512, 1024],
            std::time::Duration::from_millis(250),
        )
    };
    let n_max = *ns.last().expect("non-empty size sweep");
    // Densities are average-degree multiples of ln n (connectivity scale);
    // weights straddle the workspace's Dial/heap switchover at W = 128
    // (deep buckets, the boundary, and the binary-heap regime). Uniform
    // weights (W = 1) are deliberately absent: they make sparse ER graphs
    // near-regular — every eccentricity within 1–2 of the rest — which is
    // the documented worst case where bound pruning degrades toward the
    // brute-force fallback (see `congest_graph::sweep`); the unweighted
    // metric is covered by the equivalence proptests instead.
    let densities = [("sparse", 2.0f64), ("dense", 6.0f64)];
    let weights = [32u64, 128, 1024];
    let mut table = Table::new(
        "E9",
        "Ground-truth kernel throughput: brute-force n sweeps vs pruned SumSweep",
        &[
            "n",
            "edges",
            "density",
            "W",
            "kernel",
            "sweeps",
            "sweep frac",
            "time/run",
            "speedup",
        ],
    );
    let mut rows: Vec<E9Row> = Vec::new();
    let mut seed_list: Vec<u64> = Vec::new();
    for &n in &ns {
        for &(dname, mult) in &densities {
            for &w in &weights {
                let p = (mult * (n as f64).ln() / n as f64).min(1.0);
                let seed = 9900 + 17 * n as u64 + 3 * w + mult as u64;
                seed_list.push(seed);
                let mut rng = ChaCha8Rng::seed_from_u64(seed);
                let g = generators::erdos_renyi_connected(n, p, w, &mut rng);
                let edges = g.m();
                let (brute_secs, brute) = e9_time(measurement, || {
                    sweep::brute_force_extremes(&g, EdgeMetric::Weighted)
                });
                let (ss_secs, ss) = e9_time(measurement, || sweep::extremes(&g));
                assert_eq!(ss.diameter, brute.diameter, "diameter diverged at n={n}");
                assert_eq!(ss.radius, brute.radius, "radius diverged at n={n}");
                assert!(
                    n < 512 || 4 * ss.sweeps <= n,
                    "SumSweep needed {}/{n} sweeps on {dname} W={w} — pruning regressed",
                    ss.sweeps
                );
                let speedup = brute_secs / ss_secs;
                assert!(
                    n < n_max || speedup >= 3.0,
                    "SumSweep speedup {speedup:.1}× < 3× at n={n} {dname} W={w}"
                );
                rows.push(E9Row {
                    n,
                    edges,
                    density: dname.into(),
                    max_weight: w,
                    kernel: "brute".into(),
                    sweeps: brute.sweeps,
                    sweep_fraction: 1.0,
                    secs_per_run: brute_secs,
                    speedup_vs_brute: 1.0,
                });
                rows.push(E9Row {
                    n,
                    edges,
                    density: dname.into(),
                    max_weight: w,
                    kernel: "sumsweep".into(),
                    sweeps: ss.sweeps,
                    sweep_fraction: ss.sweeps as f64 / n as f64,
                    secs_per_run: ss_secs,
                    speedup_vs_brute: speedup,
                });
            }
        }
    }
    let registry = MetricsRegistry::new();
    for r in &rows {
        let (n, density, w, kernel) = (r.n, &r.density, r.max_weight, &r.kernel);
        publish(
            &registry,
            &format!("e9.n{n}.{density}.w{w}.{kernel}"),
            &[
                ("sweep_fraction", r.sweep_fraction),
                ("secs_per_run", r.secs_per_run),
                ("speedup", r.speedup_vs_brute),
            ],
        );
        table.push(vec![
            r.n.to_string(),
            r.edges.to_string(),
            r.density.clone(),
            r.max_weight.to_string(),
            r.kernel.clone(),
            r.sweeps.to_string(),
            format!("{:.3}", r.sweep_fraction),
            format!("{:.2?}", std::time::Duration::from_secs_f64(r.secs_per_run)),
            format!("{:.1}", r.speedup_vs_brute),
        ]);
    }
    let report = E9Report {
        experiment: "E9".into(),
        meta: wdr_metrics::RunMeta::capture(&seed_list),
        host_threads,
        rows,
        metrics: registry.snapshot().to_pairs(),
    };
    std::fs::create_dir_all(out_dir).expect("create E9 output dir");
    let path = out_dir.join("BENCH_metrics_kernels.json");
    std::fs::write(
        &path,
        serde_json::to_string(&report).expect("E9 report serializes"),
    )
    .expect("write BENCH_metrics_kernels.json");
    table.commentary = format!(
        "The ground-truth layer every experiment leans on. `brute` is the seed \
         semantics (one Dijkstra per node, n sweeps); `sumsweep` answers the same \
         four queries (D, R, both witnesses) from eccentricity bounds, certifying \
         exactness after the listed sweep count — asserted equal to brute on every \
         configuration, ≤ n/4 sweeps at n ≥ 512, and ≥ 3× faster at n = {n_max}. \
         Weights straddle the Dial bucket-queue cutoff (W ≤ {}) so both SSSP inner \
         kernels are exercised.",
        congest_graph::DIAL_MAX_WEIGHT,
    );
    ExperimentOutput {
        tables: vec![table],
        artifacts: vec![path.display().to_string()],
    }
}

/// One E11 giant-scale pipeline measurement, serialized into
/// `BENCH_giant.json`.
#[derive(Clone, Debug, serde::Serialize)]
struct E11Row {
    family: String,
    n: usize,
    edges: usize,
    gen_ms: f64,
    kernel: String,
    sweeps: usize,
    sweep_fraction: f64,
    solve_secs: f64,
    /// Settled nodes per second across all sweeps of the run.
    nodes_per_sec: f64,
    diameter: u64,
    radius: u64,
}

/// The machine-readable E11 report (`BENCH_giant.json`).
#[derive(Clone, Debug, serde::Serialize)]
struct E11Report {
    experiment: String,
    meta: wdr_metrics::RunMeta,
    host_threads: usize,
    rows: Vec<E11Row>,
    /// Registry snapshot of the row figures, `e11.{family}.n{n}.{kernel}.…`.
    metrics: Vec<(String, f64)>,
}

/// E11: million-node graph scale — the full giant-graph pipeline. Each
/// family is generated edge-by-edge through the streaming `GraphWriter`
/// (never a materialized edge list) and solved by SumSweep. Gate: pruned
/// SumSweep certifies within n/4 sweeps.
/// Writes `BENCH_giant.json` under `out_dir`.
pub fn e11(quick: bool, out_dir: &std::path::Path) -> ExperimentOutput {
    use congest_graph::generators::stream::StreamSpec;
    use congest_graph::sweep;
    use std::time::Instant;
    let host_threads = std::thread::available_parallelism().map_or(1, |t| t.get());
    // Small weights keep every sweep on the Dial bucket-queue fast path —
    // the regime the bitset frontiers were built for.
    let max_w = 16u64;
    let sizes_for = |family: &str| -> Vec<usize> {
        if quick {
            vec![100_000]
        } else if family == "road_grid" {
            // Radius certification on grid-like families needs Θ(√n)
            // sweeps (near-tied central eccentricities — the documented
            // pruning worst case, see `congest_graph::sweep`), so the grid
            // stops at 2·10⁵ to keep the full sweep tractable; the
            // streaming pipeline runs at 10⁶ on the other families.
            vec![100_000, 200_000]
        } else {
            vec![100_000, 1_000_000]
        }
    };
    let spec_for = |family: &str, n: usize| -> StreamSpec {
        let seed = 11_000 + n as u64;
        match family {
            "power_law" => StreamSpec::PowerLaw {
                n,
                attach: 10,
                max_w,
                seed,
            },
            "road_grid" => StreamSpec::RoadGrid { n, max_w, seed },
            _ => StreamSpec::WebLayered {
                n,
                layers: 32,
                fanout: 3,
                max_w,
                seed,
            },
        }
    };
    let mut table = Table::new(
        "E11",
        "Giant-graph pipeline: streamed generation and SumSweep at n up to 10^6",
        &[
            "family",
            "n",
            "edges",
            "gen",
            "kernel",
            "sweeps",
            "sweep frac",
            "solve",
            "Mnodes/s",
        ],
    );
    let mut rows: Vec<E11Row> = Vec::new();
    let mut seed_list: Vec<u64> = Vec::new();
    for family in ["power_law", "road_grid", "web_layered"] {
        for n in sizes_for(family) {
            let spec = spec_for(family, n);
            seed_list.push(11_000 + n as u64);
            let t0 = Instant::now();
            let g = spec.build().expect("streamed family builds");
            let gen_secs = t0.elapsed().as_secs_f64();
            let edges = g.m();

            let t1 = Instant::now();
            let ss = sweep::extremes(&g);
            let solve_secs = t1.elapsed().as_secs_f64().max(1e-9);
            assert!(
                4 * ss.sweeps <= n,
                "SumSweep needed {}/{n} sweeps on {family} — pruning regressed",
                ss.sweeps
            );
            rows.push(E11Row {
                family: family.to_string(),
                n,
                edges,
                gen_ms: gen_secs * 1e3,
                kernel: "sumsweep".to_string(),
                sweeps: ss.sweeps,
                sweep_fraction: ss.sweeps as f64 / n as f64,
                solve_secs,
                nodes_per_sec: ss.sweeps as f64 * n as f64 / solve_secs,
                diameter: ss.diameter.expect_finite(),
                radius: ss.radius.expect_finite(),
            });
        }
    }
    let registry = MetricsRegistry::new();
    for r in &rows {
        publish(
            &registry,
            &format!("e11.{}.n{}.{}", r.family, r.n, r.kernel),
            &[
                ("sweep_fraction", r.sweep_fraction),
                ("solve_secs", r.solve_secs),
                ("nodes_per_sec", r.nodes_per_sec),
            ],
        );
        table.push(vec![
            r.family.clone(),
            r.n.to_string(),
            r.edges.to_string(),
            format!("{:.0}ms", r.gen_ms),
            r.kernel.clone(),
            r.sweeps.to_string(),
            format!("{:.5}", r.sweep_fraction),
            format!("{:.2?}", std::time::Duration::from_secs_f64(r.solve_secs)),
            format!("{:.2}", r.nodes_per_sec / 1e6),
        ]);
    }
    let report = E11Report {
        experiment: "E11".into(),
        meta: wdr_metrics::RunMeta::capture(&seed_list),
        host_threads,
        rows,
        metrics: registry.snapshot().to_pairs(),
    };
    std::fs::create_dir_all(out_dir).expect("create E11 output dir");
    let path = out_dir.join("BENCH_giant.json");
    std::fs::write(
        &path,
        serde_json::to_string(&report).expect("E11 report serializes"),
    )
    .expect("write BENCH_giant.json");
    table.commentary = format!(
        "The scale ceiling, measured end to end. Each family streams its edges \
         through the two-pass `GraphWriter` (no intermediate edge list) into \
         memory, and pruning must certify D and R within n/4 sweeps at every \
         size. Weights stay ≤ \
         {max_w} so every sweep runs the Dial bucket queue with bitset \
         frontiers. The grid family is capped at 2·10⁵ nodes: certifying the \
         radius of a grid takes Θ(√n) sweeps (near-tied central \
         eccentricities, the documented pruning worst case), which is a \
         property of the family, not the pipeline."
    );
    ExperimentOutput {
        tables: vec![table],
        artifacts: vec![path.display().to_string()],
    }
}

/// One E12 lane-count measurement, serialized into `BENCH_batch.json`.
#[derive(Clone, Debug, serde::Serialize)]
struct E12Row {
    /// Lane count; 0 marks the reference row, the default `lanes: None`
    /// run (one lane).
    lanes: usize,
    wall_secs: f64,
    setup_secs: f64,
    execute_secs: f64,
    scenarios_per_sec: f64,
    /// Reference wall time over this row's wall time.
    speedup: f64,
    /// Scenarios that reused a setup built by an earlier group-mate.
    shared_setups: usize,
}

/// The machine-readable E12 report (`BENCH_batch.json`).
#[derive(Clone, Debug, serde::Serialize)]
struct E12Report {
    experiment: String,
    meta: wdr_metrics::RunMeta,
    host_threads: usize,
    rows: Vec<E12Row>,
    /// Registry snapshot: the row figures (`e12.{seq|lanes{L}}.…`) and the
    /// headline `e12.batch_speedup` (speedup at the widest lane count, the
    /// gated trajectory ratio), `e12.lane_count`, `e12.scenarios`,
    /// `e12.groups` and `e12.gate_skipped`.
    metrics: Vec<(String, f64)>,
}

/// E12: batch-engine fan-out — the many-seed conformance corpus run
/// through `wdr_conformance::batch`'s graph-grouped executor. The whole
/// corpus runs once with the default `lanes: None` (one lane, the
/// reference), then at 1/2/4/8 lanes; every run must be bit-identical to
/// the reference (`runner::fingerprint` equality — verdicts, measurements,
/// envelope fits, metric snapshot values), and on hosts with ≥ 8 threads
/// the 8-lane run must be ≥ 5× faster. Writes `BENCH_batch.json`.
pub fn e12(quick: bool, out_dir: &std::path::Path) -> ExperimentOutput {
    use std::time::Instant;
    use wdr_conformance::runner::{self, SuiteOptions};
    let host_threads = std::thread::available_parallelism().map_or(1, |t| t.get());
    let count: u64 = if quick { 48 } else { 500 };
    let specs = runner::generate_corpus(count);
    let groups = wdr_conformance::batch::group_by_graph(&specs).len();
    let run = |lanes: Option<usize>| {
        let options = SuiteOptions {
            lanes,
            ..SuiteOptions::default()
        };
        let t0 = Instant::now();
        let report = runner::run_suite(&specs, &options);
        (report, t0.elapsed().as_secs_f64())
    };

    let (ref_report, ref_secs) = run(None);
    assert!(
        ref_report.passed(),
        "E12 reference corpus run failed: {:?}",
        ref_report.failures
    );
    let reference = runner::fingerprint(&ref_report);

    let mut table = Table::new(
        "E12",
        "Batch-engine fan-out: graph-grouped corpus execution across lanes vs the one-lane default",
        &[
            "lanes",
            "wall",
            "setup",
            "execute",
            "scen/s",
            "speedup",
            "shared setups",
        ],
    );
    let mut rows: Vec<E12Row> = Vec::new();
    let push_row = |lanes: usize,
                    wall: f64,
                    setup: f64,
                    execute: f64,
                    shared: usize,
                    rows: &mut Vec<E12Row>| {
        rows.push(E12Row {
            lanes,
            wall_secs: wall,
            setup_secs: setup,
            execute_secs: execute,
            scenarios_per_sec: specs.len() as f64 / wall.max(1e-9),
            speedup: ref_secs / wall.max(1e-9),
            shared_setups: shared,
        });
    };
    let ref_shared = ref_report.timings.iter().filter(|t| t.shared_setup).count();
    push_row(
        0,
        ref_secs,
        ref_report.setup_secs(),
        ref_report.execute_secs(),
        ref_shared,
        &mut rows,
    );
    let mut batch_speedup = 0.0f64;
    let mut lane_count = 0usize;
    for lanes in [1usize, 2, 4, 8] {
        let (report, wall) = run(Some(lanes));
        assert_eq!(
            runner::fingerprint(&report),
            reference,
            "E12: corpus run at {lanes} lanes diverged from the one-lane reference"
        );
        let shared = report.timings.iter().filter(|t| t.shared_setup).count();
        push_row(
            lanes,
            wall,
            report.setup_secs(),
            report.execute_secs(),
            shared,
            &mut rows,
        );
        batch_speedup = ref_secs / wall.max(1e-9);
        lane_count = lanes;
    }
    // The throughput gate, host-conditional like E8: ≥ 5× at 8 lanes
    // (target ~10×) only means something with ≥ 8 hardware threads. The
    // outcome, skipped or passed, goes to stderr, the table and the metrics.
    let gate_skipped = host_threads < 8;
    assert!(
        gate_skipped || batch_speedup >= 5.0,
        "E12: corpus run at {lane_count} lanes is only {batch_speedup:.2}× \
         faster than the one-lane default on a {host_threads}-thread host (gate ≥ 5×)"
    );
    let gate = if gate_skipped { "SKIPPED" } else { "passed" };
    let gate_note = format!("E12 gate {gate} (host_threads={host_threads})");
    eprintln!("{gate_note}");

    let registry = MetricsRegistry::new();
    for r in &rows {
        let (label, prefix) = match r.lanes {
            // The reference keeps the `e12.seq` metric prefix the
            // trajectory history records.
            0 => ("default (1)".to_string(), "e12.seq".to_string()),
            lanes => (lanes.to_string(), format!("e12.lanes{lanes}")),
        };
        let figures = [
            ("wall_secs", r.wall_secs),
            ("scenarios_per_sec", r.scenarios_per_sec),
        ];
        publish(&registry, &prefix, &figures);
        table.push(vec![
            label,
            format!("{:.2}s", r.wall_secs),
            format!("{:.2}s", r.setup_secs),
            format!("{:.2}s", r.execute_secs),
            format!("{:.1}", r.scenarios_per_sec),
            format!("{:.2}×", r.speedup),
            r.shared_setups.to_string(),
        ]);
    }
    let seeds: Vec<u64> = specs.iter().map(|s| s.seed).collect();
    publish(
        &registry,
        "e12",
        &[
            ("batch_speedup", batch_speedup),
            ("lane_count", lane_count as f64),
            ("scenarios", specs.len() as f64),
            ("groups", groups as f64),
            ("gate_skipped", f64::from(u8::from(gate_skipped))),
        ],
    );
    let report = E12Report {
        experiment: "E12".into(),
        meta: wdr_metrics::RunMeta::capture(&seeds),
        host_threads,
        rows,
        metrics: registry.snapshot().to_pairs(),
    };
    std::fs::create_dir_all(out_dir).expect("create E12 output dir");
    let path = out_dir.join("BENCH_batch.json");
    std::fs::write(
        &path,
        serde_json::to_string(&report).expect("E12 report serializes"),
    )
    .expect("write BENCH_batch.json");
    table.commentary = format!(
        "The {count}-seed conformance corpus collapses into {groups} graph groups \
         (deterministic families share one graph + cached metrics across seeds; \
         seeded-random families stay singleton but still amortize D/extremes \
         across the two oracle replays). Every row runs the same graph-grouped \
         executor, and every run is asserted bit-identical to the one-lane \
         default (`lanes: None`) — same verdicts, round measurements, envelope \
         fits, and metric snapshot values — so the only thing lanes can change \
         is wall time. Grouping is in every row, so the 8-lane speedup \
         {batch_speedup:.2}× measures only the fan-out gain; it is recorded as \
         e12.batch_speedup (gated ≥ 5× only on hosts with ≥ 8 threads; \
         {gate_note}, recorded as e12.gate_skipped).",
    );
    ExperimentOutput {
        tables: vec![table],
        artifacts: vec![path.display().to_string()],
    }
}

/// One E13 ablation-job row, serialized into `BENCH_ablate.json`.
/// `ratio`/`hard_ok`/`soft_ok` are absent (`null`) on jobs that surfaced
/// the typed round-budget error — the expected outcome under faults.
#[derive(Clone, Debug, serde::Serialize)]
struct E13Row {
    job: String,
    eps: f64,
    fault_rate: f64,
    max_weight: u64,
    ratio: Option<f64>,
    hard_ok: Option<f64>,
    soft_ok: Option<f64>,
    failed: f64,
    error: Option<String>,
}

/// The machine-readable E13 report (`BENCH_ablate.json`).
#[derive(Clone, Debug, serde::Serialize)]
struct E13Report {
    experiment: String,
    meta: wdr_metrics::RunMeta,
    plan: String,
    plan_hash: String,
    substrate: String,
    mode: String,
    passed: bool,
    rows: Vec<E13Row>,
    metrics: Vec<(String, f64)>,
}

/// E13: declarative ablation of the quantum estimator — ε × weight-class ×
/// fault-rate over the checked-in `crates/ablate/plans/e13.ron` plan, run
/// through the `wdr-ablate` harness. The canonical runbook must be
/// byte-identical across lane counts (the harness's core contract), every
/// tolerance must hold, and the per-job sandwich evidence lands in
/// `BENCH_ablate.json` for the perf trajectory.
pub fn e13(quick: bool, out_dir: &std::path::Path) -> ExperimentOutput {
    use wdr_ablate::{plan_hash, to_canonical_json_bytes, RunOptions};
    const SEED: u64 = 101;
    let plan_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../ablate/plans/e13.ron");
    let text = std::fs::read_to_string(plan_path).expect("read crates/ablate/plans/e13.ron");
    let plan = wdr_ablate::plan::parse(&text).expect("parse E13 ablation plan");

    let run = |lanes: Option<usize>| {
        wdr_ablate::run_ablation_with(&plan, SEED, &RunOptions { lanes, meta: None })
            .expect("E13 ablation run")
    };
    let reference = run(None);
    let reference_bytes = to_canonical_json_bytes(&reference).expect("canonicalize E13 runbook");
    let lane_counts: &[usize] = if quick { &[4] } else { &[1, 2, 4] };
    for &lanes in lane_counts {
        let batched = run(Some(lanes));
        assert_eq!(
            to_canonical_json_bytes(&batched).expect("canonicalize E13 runbook"),
            reference_bytes,
            "E13: runbook at {lanes} lanes diverged from the one-lane reference"
        );
    }
    let violations: Vec<String> = reference
        .verdicts
        .iter()
        .filter(|v| !v.ok)
        .map(|v| format!("{} on {}: {}", v.metric, v.job_id, v.detail))
        .collect();
    assert!(
        reference.passed,
        "E13: checked-in plan tolerances violated: {violations:?}"
    );

    let p_f64 = |j: &wdr_ablate::report::JobReport, key: &str| {
        j.params
            .get(key)
            .and_then(serde_json::Value::as_f64)
            .unwrap_or(f64::NAN)
    };
    let rows: Vec<E13Row> = reference
        .jobs
        .iter()
        .map(|j| E13Row {
            job: j.id.clone(),
            eps: p_f64(j, "eps"),
            fault_rate: p_f64(j, "fault_rate"),
            max_weight: p_f64(j, "max_weight") as u64,
            ratio: j.metrics.get("ratio").copied(),
            hard_ok: j.metrics.get("hard_ok").copied(),
            soft_ok: j.metrics.get("soft_ok").copied(),
            failed: j.metrics.get("failed").copied().unwrap_or(1.0),
            error: j.error.clone(),
        })
        .collect();
    let job_errors = rows.iter().filter(|r| r.error.is_some()).count();
    let worst_ratio = rows.iter().filter_map(|r| r.ratio).fold(0.0f64, f64::max);
    // Per-job sandwich evidence (errored jobs carry no ratio or flags) plus
    // the headline aggregates.
    let registry = MetricsRegistry::new();
    for r in &rows {
        let prefix = format!("e13.eps{:?}.f{:?}.w{}", r.eps, r.fault_rate, r.max_weight);
        let job = [
            ("ratio", r.ratio),
            ("hard_ok", r.hard_ok),
            ("soft_ok", r.soft_ok),
            ("failed", Some(r.failed)),
        ];
        let present: Vec<(&str, f64)> = job.iter().filter_map(|&(m, v)| Some((m, v?))).collect();
        publish(&registry, &prefix, &present);
    }
    publish(
        &registry,
        "e13",
        &[
            ("jobs", rows.len() as f64),
            ("job_errors", job_errors as f64),
            ("violations", violations.len() as f64),
            ("worst_ratio", worst_ratio),
        ],
    );

    let mut table = Table::new(
        "E13",
        "Ablation harness: ε × weight-class × fault-rate sweep of the quantum estimator \
         (byte-deterministic runbook, tolerance-gated)",
        &[
            "job", "eps", "fault", "W", "ratio", "hard", "soft", "status",
        ],
    );
    let flag = |v: Option<f64>| match v {
        Some(x) if x >= 1.0 => "yes".to_string(),
        Some(_) => "NO".to_string(),
        None => "—".to_string(),
    };
    for r in &rows {
        table.push(vec![
            r.job.clone(),
            format!("{}", r.eps),
            format!("{}", r.fault_rate),
            r.max_weight.to_string(),
            r.ratio.map_or("—".to_string(), |x| format!("{x:.4}")),
            flag(r.hard_ok),
            flag(r.soft_ok),
            if r.error.is_some() {
                "round budget".to_string()
            } else {
                "ok".to_string()
            },
        ]);
    }
    table.commentary = format!(
        "The checked-in plan (`crates/ablate/plans/e13.ron`, hash {hash}) expands to \
         {jobs} grid jobs over ε ∈ {{0.08, 0.2, 0.45}} × W ∈ {{1, 8, 4096}} × fault \
         rate ∈ {{0, 0.04}} on the shared 18-node calibration grid. The runbook is \
         asserted byte-identical between the one-lane default and every other lane \
         count — provenance, fingerprints, metric snapshots and all — so the report \
         itself is the regression artifact. Clean jobs must land in the Theorem 1.1 \
         sandwich (hard/soft flags gated at 1.0; worst ratio {worst:.4} against the \
         (1+ε)² ≤ 2.10 theoretical cap); the {errs} faulted jobs surface the typed \
         round-budget error, the conformance oracle's acceptable-under-faults \
         outcome, and are excluded from the ratio gates by construction.",
        hash = plan_hash(&plan),
        jobs = rows.len(),
        worst = worst_ratio,
        errs = job_errors,
    );

    let report = E13Report {
        experiment: "E13".into(),
        meta: wdr_metrics::RunMeta::capture(&[SEED]),
        plan: plan.name.clone(),
        plan_hash: plan_hash(&plan),
        substrate: reference.substrate.clone(),
        mode: reference.mode.clone(),
        passed: reference.passed,
        rows,
        metrics: registry.snapshot().to_pairs(),
    };
    std::fs::create_dir_all(out_dir).expect("create E13 output dir");
    let path = out_dir.join("BENCH_ablate.json");
    std::fs::write(
        &path,
        serde_json::to_string(&report).expect("E13 report serializes"),
    )
    .expect("write BENCH_ablate.json");
    let runbook_path = out_dir.join("e13_runbook.json");
    std::fs::write(&runbook_path, &reference_bytes).expect("write e13_runbook.json");
    ExperimentOutput {
        tables: vec![table],
        artifacts: vec![
            path.display().to_string(),
            runbook_path.display().to_string(),
        ],
    }
}

/// F1–F4: regenerate the paper's figures (structural tables + DOT files).
pub fn figures(out_dir: &std::path::Path) -> ExperimentOutput {
    use congest_graph::dot;
    std::fs::create_dir_all(out_dir).expect("create figure dir");
    let mut out = ExperimentOutput::default();
    let dims = GadgetDims::new(2);
    let (alpha, beta) = paper_weights(&dims);
    let x = vec![true; dims.input_len()];
    let y = vec![true; dims.input_len()];

    let mut t = Table::new(
        "F1-F4",
        "Figures 1–4 regenerated: structural invariants + DOT artifacts",
        &["figure", "construction", "nodes", "check"],
    );
    // F1 + F2.
    let g = diameter_gadget(&dims, &x, &y, alpha, beta);
    let d_g = metrics::unweighted_diameter(&g.graph);
    t.push(vec![
        "Fig 1".into(),
        format!(
            "tree h={} + {} paths × {} nodes",
            dims.h,
            2 * dims.s + dims.ell,
            1 << dims.h
        ),
        format!(
            "{}",
            (1 << (dims.h + 1)) - 1 + ((2 * dims.s + dims.ell) as usize) * (1 << dims.h)
        ),
        "leaf-path wiring verified by construction tests".into(),
    ]);
    t.push(vec![
        "Fig 2".into(),
        format!("diameter gadget, α={alpha}, β={beta}"),
        format!("{} (formula {})", g.graph.n(), node_count(&dims, false)),
        format!("D_G = {d_g} = Θ(log n) ✓"),
    ]);
    assert_eq!(g.graph.n(), node_count(&dims, false));
    let dot_path = out_dir.join("figure2.dot");
    std::fs::write(
        &dot_path,
        dot::to_dot(&g.graph, &dot::DotOptions::named("figure2")),
    )
    .unwrap();
    out.artifacts.push(dot_path.display().to_string());

    // F3.
    let c = contract::contract_unit_edges(&g.graph);
    let expect = 1 + (2 * dims.s + dims.ell) as usize + 2 * dims.blocks();
    assert_eq!(c.graph.n(), expect);
    t.push(vec![
        "Fig 3".into(),
        "weight-1 contraction G′".into(),
        format!("{} (expected {expect})", c.graph.n()),
        "tree→t, path+endpoints→router, Table 2 bounds verified in tests ✓".into(),
    ]);
    let dot_path = out_dir.join("figure3.dot");
    std::fs::write(
        &dot_path,
        dot::to_dot(&c.graph, &dot::DotOptions::named("figure3")),
    )
    .unwrap();
    out.artifacts.push(dot_path.display().to_string());

    // F4.
    let r = radius_gadget(&dims, &x, &y, alpha, beta);
    let cr = contract::contract_unit_edges(&r.graph);
    // Caption check: e(v) ≥ 3α for every contracted node except the a_i.
    let apsp = congest_graph::shortest_path::apsp(&cr.graph);
    let mut non_center_min = u64::MAX;
    for v in 0..r.graph.n() {
        let kind = r.layout.kind(v);
        let img = cr.image(v);
        let ecc = apsp[img].iter().copied().max().unwrap().expect_finite();
        if !matches!(kind, GadgetNode::A(_)) {
            non_center_min = non_center_min.min(ecc);
        }
    }
    assert!(
        non_center_min >= 3 * alpha,
        "Figure 4 caption: e(v) ≥ 3α off the a_i"
    );
    t.push(vec![
        "Fig 4".into(),
        "radius gadget (a₀ of weight 2α to every a_i)".into(),
        format!("{}", r.graph.n()),
        format!(
            "min eccentricity off {{a_i}} = {non_center_min} ≥ 3α = {} ✓",
            3 * alpha
        ),
    ]);
    let dot_path = out_dir.join("figure4.dot");
    std::fs::write(
        &dot_path,
        dot::to_dot(&r.graph, &dot::DotOptions::named("figure4")),
    )
    .unwrap();
    out.artifacts.push(dot_path.display().to_string());

    out.tables.push(t);
    out
}

/// A1: the Grover substitution, validated — analytic `sin²((2j+1)θ)` vs the
/// statevector simulator.
pub fn a1() -> ExperimentOutput {
    let mut t = Table::new(
        "A1",
        "Grover model validation: analytic success probability vs 6-qubit statevector",
        &["iterations j", "analytic", "statevector", "|Δ|"],
    );
    let marked = |i: usize| i == 17;
    let rho = 1.0 / 64.0;
    let mut max_err = 0.0f64;
    for j in 0..=8u32 {
        let analytic = quantum_sim::grover::success_probability(rho, u64::from(j));
        let s = quantum_sim::statevector::grover_state(6, marked, j);
        let measured = s.success_probability(marked);
        let err = (analytic - measured).abs();
        max_err = max_err.max(err);
        t.push(vec![
            j.to_string(),
            format!("{analytic:.6}"),
            format!("{measured:.6}"),
            format!("{err:.2e}"),
        ]);
    }
    assert!(max_err < 1e-9);
    t.commentary = format!(
        "Max deviation {max_err:.1e}: the analytic model used at CONGEST scale is the \
         exact amplitude dynamics (DESIGN.md §1)."
    );
    ExperimentOutput {
        tables: vec![t],
        artifacts: vec![],
    }
}

/// A2: the toolkit's measured rounds against the Appendix A lemma bounds.
pub fn a2(quick: bool) -> ExperimentOutput {
    let n = if quick { 32 } else { 64 };
    let g = family(n, 4, 5000);
    let d = metrics::unweighted_diameter(&g);
    let scheme = RoundingScheme::new(n / 2, 0.5);
    let mut rng = ChaCha8Rng::seed_from_u64(42);
    let skeleton: Vec<usize> = (0..n).step_by(n / 6).collect();
    let b = skeleton.len();
    let mut t = Table::new(
        "A2",
        "Toolkit fidelity: measured rounds vs the Appendix A bounds (unit constants)",
        &[
            "algorithm",
            "lemma",
            "measured rounds",
            "bound expression",
            "bound value",
        ],
    );
    let limit = scheme.threshold().floor() as u64;
    let scales = scheme.max_scale(n, g.max_weight()) + 1;

    let (_, s1) = bounded_hop_sssp(&g, 0, 0, scheme, &cfg(&g)).expect("alg1");
    let bound1 = (limit as usize + 1) * scales as usize;
    t.push(vec![
        "Alg 1 (bounded-hop SSSP)".into(),
        "A.1: Õ(ℓ/ε)".into(),
        s1.rounds.to_string(),
        "(L+1)·#scales".into(),
        bound1.to_string(),
    ]);
    assert!(s1.rounds <= bound1 + 10);

    let ms = multi_source_bounded_hop(&g, 0, &skeleton, scheme, &cfg(&g), &mut rng).expect("alg3");
    let logn = (n as f64).log2().ceil() as usize;
    let bound3 = (d + bound1 + b * logn + b + 4) * (logn + 1) + 3 * d + 2 * b + 20;
    t.push(vec![
        format!("Alg 3 (multi-source, b={b})"),
        "A.2: Õ(D + ℓ/ε + b)".into(),
        ms.stats.rounds.to_string(),
        "(D + (L+1)·#scales + b·log n)·(log n+1) + O(D+b)".into(),
        bound3.to_string(),
    ]);
    assert!(ms.stats.rounds <= bound3, "{} > {bound3}", ms.stats.rounds);

    let k = 3;
    let emb = embed_overlay(&g, 0, &skeleton, scheme, k, &cfg(&g), &mut rng).expect("alg4");
    let alg4_rounds = emb.stats.rounds.saturating_sub(ms.stats.rounds);
    t.push(vec![
        format!("Alg 4 (embedding, k={k})"),
        "A.3: Õ(D + |S|k)".into(),
        format!("{alg4_rounds} (incl. repeated Alg 3)"),
        "O(D + |S|·k) after Alg 3".into(),
        format!("{}", 8 * (d + b * k) + 60),
    ]);

    let (_, s5) = overlay_sssp(&g, 0, &emb, skeleton[0], &cfg(&g)).expect("alg5");
    let ell2 = emb.overlay_ell;
    let l5 = ((1.0 + 2.0 / scheme.eps) * ell2 as f64) as usize;
    let bound5 = (l5 + 1) * 20 * (3 * d + b + 12);
    t.push(vec![
        "Alg 5 (overlay SSSP)".into(),
        "A.4: Õ(|S|/(εk)·D + |S|)".into(),
        s5.rounds.to_string(),
        "(L'+1)·#scales'·O(D + a)".into(),
        bound5.to_string(),
    ]);

    t.commentary = "Every toolkit phase lands within its lemma's bound with small \
        constants; the measured numbers are what E1/E2 charge per quantum oracle \
        application."
        .into();
    ExperimentOutput {
        tables: vec![t],
        artifacts: vec![],
    }
}

/// A3: accuracy ablation — the eccentricity approximation error as a
/// function of the skeleton rate and hop budget (motivates Eq. (1)).
pub fn a3(quick: bool) -> ExperimentOutput {
    let n = if quick { 40 } else { 64 };
    // A long-hop topology (weighted cycle): shortest paths have Θ(n) hops,
    // so an undersized ℓ visibly breaks the Lemma 3.3 decomposition.
    let g = {
        let mut rng = ChaCha8Rng::seed_from_u64(6000);
        generators::randomize_weights(&generators::cycle(n, 1), MAX_W, &mut rng)
    };
    let mut t = Table::new(
        "A3",
        "Ablation: max ẽ/e over skeleton vs (r, ℓ) — why Eq. (1) picks ℓ = n·log n/r",
        &["r (|S|)", "ℓ", "max ratio ẽ/e", "within (1+ε)²"],
    );
    let mut rng = ChaCha8Rng::seed_from_u64(61);
    for &r in &[4usize, 8, 16] {
        for &ell_factor in &[0.02f64, 0.25, 1.0] {
            let ell = (((n as f64) * (n as f64).log2() / r as f64) * ell_factor).ceil() as usize;
            let scheme = RoundingScheme::new(ell.max(1), EPS);
            let skeleton =
                congest_graph::overlay::sample_skeleton(n, r as f64 / n as f64, &mut rng);
            if skeleton.len() < 2 {
                continue;
            }
            let sd = SkeletonDistances::compute(&g, &skeleton, scheme, 3);
            let mut worst = 0.0f64;
            for &s in &sd.skeleton {
                let e = metrics::eccentricity(&g, s).as_f64();
                let a = sd.approx_eccentricity(s);
                if e > 0.0 {
                    worst = worst.max(a / e);
                }
            }
            let ok = worst <= (1.0 + EPS) * (1.0 + EPS) + 1e-9;
            t.push(vec![
                format!("{r} ({})", skeleton.len()),
                ell.to_string(),
                if worst.is_finite() {
                    format!("{worst:.4}")
                } else {
                    "∞ (coverage lost)".into()
                },
                if ok {
                    "✓".into()
                } else {
                    "✗ (ℓ too small)".into()
                },
            ]);
        }
    }
    t.commentary = "Small ℓ relative to n·log n/r can push ẽ outside the guarantee \
        (the skeleton decomposition of Lemma 3.3 fails); the paper's choice restores it."
        .into();
    ExperimentOutput {
        tables: vec![t],
        artifacts: vec![],
    }
}

/// A4: §1.1's motivating claim — the naive single-level quantum search
/// costs `Θ̃(n)`; the paper's two-level scheme beats it.
pub fn a4() -> ExperimentOutput {
    let mut t = Table::new(
        "A4",
        "Naive single-level search (√n evaluations × √n-round eccentricity) vs Theorem 1.1",
        &[
            "n",
            "D",
            "naive √n·√n = n",
            "two-level n^0.9·D^0.3",
            "speedup",
        ],
    );
    for &(n, d) in &[
        (1usize << 12, 12usize),
        (1 << 16, 16),
        (1 << 20, 20),
        (1 << 26, 26),
        (1 << 32, 32),
    ] {
        let naive = n as f64;
        let two = cost::quantum_weighted_upper(n, d, Polylog::Drop);
        t.push(vec![
            n.to_string(),
            d.to_string(),
            format!("{naive:.0}"),
            format!("{two:.0}"),
            format!("{:.1}×", naive / two),
        ]);
    }
    t.commentary = "Evaluating one eccentricity takes Θ̃(√n) rounds (lower bound of [10]) \
        and the search needs Θ̃(√n) evaluations, so the naive approach is Θ̃(n); \
        the two-level set-sampling scheme is what makes Theorem 1.1 sublinear."
        .into();
    ExperimentOutput {
        tables: vec![t],
        artifacts: vec![],
    }
}

/// T1: the literal Table 1, evaluated at a representative `(n, D)`.
pub fn t1() -> ExperimentOutput {
    let (n, d) = (1usize << 20, 20usize);
    let mut table = Table::new(
        "T1",
        "Table 1 of the paper, evaluated at n = 2^20, D = 20 (★ = this work)",
        &[
            "problem",
            "variant",
            "approx",
            "classical Õ",
            "quantum Õ",
            "classical Ω̃",
            "quantum Ω̃",
        ],
    );
    let fmt_opt = |o: &Option<(&'static str, f64)>| match o {
        Some((e, v)) => format!("{e} = {v:.0}"),
        None => "open".into(),
    };
    for r in congest_wdr::table_one::rows(n, d) {
        table.push(vec![
            format!("{:?}{}", r.problem, if r.this_work { " ★" } else { "" }),
            format!("{:?}", r.variant),
            r.approx.to_string(),
            format!("{} = {:.0}", r.classical_upper.0, r.classical_upper.1),
            format!("{} = {:.0}", r.quantum_upper.0, r.quantum_upper.1),
            fmt_opt(&r.classical_lower),
            fmt_opt(&r.quantum_lower),
        ]);
    }
    table.commentary = "Row consistency (every lower bound below its upper bound, quantum \
        never above classical) is enforced by `congest-wdr`'s table_one tests."
        .into();
    ExperimentOutput {
        tables: vec![table],
        artifacts: vec![],
    }
}

/// Runs the whole suite in order; `quick` trims sweeps.
pub fn run_all(quick: bool, out_dir: &std::path::Path) -> Vec<ExperimentOutput> {
    vec![
        t1(),
        e1(quick),
        e2(quick),
        e3(quick),
        e4(quick),
        e5(quick),
        e6(quick),
        e8(quick, out_dir),
        e9(quick, out_dir),
        e11(quick, out_dir),
        e12(quick, out_dir),
        figures(out_dir),
        a1(),
        a2(quick),
        a3(quick),
        a4(),
    ]
}
