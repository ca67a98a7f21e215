//! Columnar block-kernel conformance suite.
//!
//! Every VG family overrides [`spq_mcdb::VgFunction::realize_block`] with a
//! hoisted columnar kernel; the per-cell `realize` path driven by
//! [`spq_mcdb::seed::cell_rng`] stays the conformance oracle. This suite
//! pins the contract the scenario engine is built on: for **every** family,
//! at **every** tile split and thread count, the block path is bit-identical
//! to the per-cell path — same seeds, same draws, same `f64` bits.
//!
//! The corpus deliberately includes the families' degenerate edges: zero
//! sigma tuples (no RNG consumed), inverted uniform bounds, single-candidate
//! discrete sources (one draw still consumed), shared GBM driver groups
//! (interleaved, and in the Portfolio layout's consecutive runs that take
//! the kernel's shared-path branch), small and large Poisson rates (the sampler switches algorithms around
//! `lambda = 30`).

use proptest::prelude::*;
use spq_mcdb::seed::{column_prefix, Stream};
use spq_mcdb::vg::{
    Degenerate, DiscreteSources, ExponentialNoise, GeometricBrownianMotion, NormalNoise,
    ParetoNoise, PoissonNoise, SourceDispersion, StudentTNoise, UniformNoise,
};
use spq_mcdb::{Relation, RelationBuilder, ScenarioGenerator};

const N: usize = 13;

fn base() -> Vec<f64> {
    (0..N).map(|i| (i as f64) * 1.5 - 3.0).collect()
}

/// One relation per VG family, edge cases included.
fn family_corpus() -> Vec<(&'static str, Relation)> {
    let mut sigma: Vec<f64> = (0..N).map(|i| 0.25 * i as f64).collect();
    sigma[0] = 0.0; // zero-sigma tuple: must not consume RNG
    sigma[7] = 0.0;
    let gbm_n = N;
    let price: Vec<f64> = (0..gbm_n).map(|i| 50.0 + 5.0 * i as f64).collect();
    let mu: Vec<f64> = (0..gbm_n).map(|i| 0.0005 * (i % 4) as f64).collect();
    let gbm_sigma: Vec<f64> = (0..gbm_n).map(|i| 0.01 + 0.002 * (i % 4) as f64).collect();
    let horizon: Vec<u32> = (0..gbm_n).map(|i| 1 + (i % 5) as u32).collect();
    // Shared driver groups: tuples of one stock share a path.
    let group: Vec<u64> = (0..gbm_n).map(|i| (i % 4) as u64).collect();
    // The Portfolio layout: each stock's trades sit next to each other, one
    // per sell-in horizon ({1..5} or {1, 2} days), so the kernel's shared
    // per-group path is taken. Prices differ within a group.
    let runs: [(u64, &[u32]); 4] = [
        (0, &[1, 2, 3, 4, 5]),
        (1, &[1, 2]),
        (2, &[1, 2, 3, 4, 5]),
        (3, &[1]),
    ];
    let (run_group, run_horizon): (Vec<u64>, Vec<u32>) = runs
        .iter()
        .flat_map(|&(g, days)| days.iter().map(move |&d| (g, d)))
        .unzip();
    assert_eq!(run_group.len(), N);
    let run_mu: Vec<f64> = run_group.iter().map(|&g| 0.0004 * g as f64).collect();
    let run_sigma: Vec<f64> = run_group.iter().map(|&g| 0.01 + 0.003 * g as f64).collect();
    let mut candidates: Vec<Vec<f64>> = (0..N)
        .map(|i| {
            (0..(1 + i % 4))
                .map(|d| i as f64 + 0.1 * d as f64)
                .collect()
        })
        .collect();
    candidates[3] = vec![42.0]; // single candidate: one draw still consumed

    vec![
        (
            "degenerate",
            RelationBuilder::new("deg")
                .stochastic("x", Degenerate::new(base()))
                .build()
                .unwrap(),
        ),
        (
            "normal",
            RelationBuilder::new("nrm")
                .stochastic("x", NormalNoise::around(base(), sigma))
                .build()
                .unwrap(),
        ),
        (
            "pareto",
            RelationBuilder::new("par")
                .stochastic("x", ParetoNoise::around(base(), 1.5, 2.5))
                .build()
                .unwrap(),
        ),
        (
            "uniform",
            RelationBuilder::new("uni")
                .stochastic("x", UniformNoise::around(base(), -0.5, 1.25))
                .build()
                .unwrap(),
        ),
        (
            "uniform-degenerate",
            RelationBuilder::new("unid")
                .stochastic("x", UniformNoise::around(base(), 2.0, 2.0))
                .build()
                .unwrap(),
        ),
        (
            "exponential",
            RelationBuilder::new("exp")
                .stochastic("x", ExponentialNoise::around(base(), 1.75))
                .build()
                .unwrap(),
        ),
        (
            "poisson-small",
            RelationBuilder::new("poi")
                .stochastic("x", PoissonNoise::around(base(), 3.0))
                .build()
                .unwrap(),
        ),
        (
            "poisson-large",
            RelationBuilder::new("poib")
                .stochastic("x", PoissonNoise::around(base(), 40.0))
                .build()
                .unwrap(),
        ),
        (
            "student-t",
            RelationBuilder::new("stu")
                .stochastic("x", StudentTNoise::around(base(), 4.0, 0.8))
                .build()
                .unwrap(),
        ),
        (
            "gbm",
            RelationBuilder::new("gbm")
                .stochastic(
                    "x",
                    GeometricBrownianMotion::new(price.clone(), mu, gbm_sigma, horizon, group),
                )
                .build()
                .unwrap(),
        ),
        (
            "gbm-portfolio-runs",
            RelationBuilder::new("gbmr")
                .stochastic(
                    "x",
                    GeometricBrownianMotion::new(price, run_mu, run_sigma, run_horizon, run_group),
                )
                .build()
                .unwrap(),
        ),
        (
            "discrete-sources",
            RelationBuilder::new("dsc")
                .stochastic("x", DiscreteSources::from_candidates(candidates).unwrap())
                .build()
                .unwrap(),
        ),
        (
            "discrete-sampled",
            RelationBuilder::new("dss")
                .stochastic(
                    "x",
                    DiscreteSources::sample_around(
                        base(),
                        3,
                        SourceDispersion::Uniform { lo: -1.0, hi: 1.0 },
                        77,
                    )
                    .unwrap(),
                )
                .build()
                .unwrap(),
        ),
    ]
}

/// The per-cell oracle: tuple-major realization via `realize_cell`, which
/// seeds every cell with the full five-word counter-based mix.
fn oracle(
    gen: &ScenarioGenerator,
    relation: &Relation,
    tuples: &[usize],
    scenarios: std::ops::Range<usize>,
) -> Vec<f64> {
    let mut out = Vec::with_capacity(tuples.len() * scenarios.len());
    for &t in tuples {
        for j in scenarios.clone() {
            out.push(gen.realize_cell(relation, "x", t, j).unwrap());
        }
    }
    out
}

fn assert_bits_eq(a: &[f64], b: &[f64], context: &str) {
    assert_eq!(a.len(), b.len(), "{context}: length");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{context}: cell {i} differs ({x} vs {y})"
        );
    }
}

#[test]
fn every_family_matches_the_per_cell_oracle_at_every_thread_count() {
    let tuples: Vec<usize> = (0..N).rev().collect(); // non-monotone order too
    for (name, relation) in family_corpus() {
        for gen in [
            ScenarioGenerator::new(11),
            ScenarioGenerator::validation(11),
        ] {
            let expected = oracle(&gen, &relation, &tuples, 2..18);
            for threads in [1usize, 2, 3, 8] {
                let matrix = gen
                    .realize_sparse_matrix_range(&relation, "x", &tuples, 2..18, threads)
                    .unwrap();
                let mut got = Vec::with_capacity(expected.len());
                for (i, _) in tuples.iter().enumerate() {
                    for j in 0..16 {
                        got.push(matrix.value(j, i));
                    }
                }
                assert_bits_eq(&expected, &got, &format!("{name} threads={threads}"));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Arbitrary scenario windows, tuple subsets, thread counts, and seeds:
    /// the generator path equals the per-cell oracle for every family.
    #[test]
    fn generator_path_is_bit_identical_for_arbitrary_windows(
        seed in 0u64..1_000,
        start in 0usize..64,
        m in 1usize..24,
        threads in 1usize..9,
        picks in proptest::collection::vec(0usize..N, 1..10),
    ) {
        for (name, relation) in family_corpus() {
            let gen = ScenarioGenerator::new(seed);
            let expected = oracle(&gen, &relation, &picks, start..start + m);
            let matrix = gen
                .realize_sparse_matrix_range(&relation, "x", &picks, start..start + m, threads)
                .unwrap();
            let mut got = Vec::with_capacity(expected.len());
            for (i, _) in picks.iter().enumerate() {
                for j in 0..m {
                    got.push(matrix.value(j, i));
                }
            }
            assert_bits_eq(&expected, &got, &format!("{name} seed={seed} threads={threads}"));
        }
    }

    /// Direct `realize_block` calls at arbitrary tile splits: slicing the
    /// tuple set anywhere and realizing each slice independently yields the
    /// same bits as one whole-block call and as the per-cell oracle.
    #[test]
    fn realize_block_is_split_invariant(
        seed in 0u64..1_000,
        start in 0usize..32,
        m in 1usize..16,
        split_a in 1usize..N,
        split_b in 1usize..N,
    ) {
        let (lo, hi) = (split_a.min(split_b), split_a.max(split_b));
        let tuples: Vec<usize> = (0..N).collect();
        for (name, relation) in family_corpus() {
            let sc = relation.stochastic_column("x").unwrap();
            let prefix = column_prefix(seed, Stream::Optimization, sc.tag);
            let gen = ScenarioGenerator::new(seed);
            let expected = oracle(&gen, &relation, &tuples, start..start + m);

            let mut whole = vec![0.0f64; N * m];
            sc.vg.realize_block(prefix, &tuples, start..start + m, &mut whole);
            assert_bits_eq(&expected, &whole, &format!("{name} whole-block"));

            let mut split = vec![0.0f64; N * m];
            {
                let (first, rest) = split.split_at_mut(lo * m);
                let (second, third) = rest.split_at_mut((hi - lo) * m);
                sc.vg.realize_block(prefix, &tuples[..lo], start..start + m, first);
                if hi > lo {
                    sc.vg.realize_block(prefix, &tuples[lo..hi], start..start + m, second);
                }
                if hi < N {
                    sc.vg.realize_block(prefix, &tuples[hi..], start..start + m, third);
                }
            }
            assert_bits_eq(&expected, &split, &format!("{name} split at {lo}/{hi}"));
        }
    }
}
