//! The experiment harness: runs the paper's experiments E1–E9 (each
//! function's doc names the figure or section it reproduces) and prints one
//! table per experiment. The latency reports are the `smoke` binary's.
//!
//! Run with: `cargo run -p atlas-bench --release --bin experiments`
//! A subset can be selected by id: `… --bin experiments e1 e4 e7`.
//!
//! A run of all nine writes the tables' scores (every cell but the timings)
//! to `QUALITY_CI.json`. The committed copy is `QUALITY.json`, and the unit
//! test below, in every run of the test suite, fails naming each JSON path
//! where a fresh run differs from it. Every experiment runs on fixed seeds
//! and a fixed schedule, so the scores repeat bit for bit under any thread
//! count, segment layout or kernel path; a change that moves them on
//! purpose commits a run's `QUALITY_CI.json` as `QUALITY.json`.

use atlas_bench::report::{self, best_of_ms, Cell, Experiment, Row};
use atlas_bench::{census, mixture, wide_numeric};
use atlas_core::baselines::{
    FullProductBaseline, GridCliqueBaseline, RandomMapBaseline, SingleAttributeBaseline,
};
use atlas_core::cut::{cut_attribute, CutConfig, NumericCutStrategy};
use atlas_core::{
    cluster_maps, distance_matrix, generate_candidates, Atlas, AtlasConfig, ClusteringConfig,
    DataMap, ExploreOptions, Linkage, MapDistanceMetric, MergeStrategy,
};
use atlas_datagen::{CensusGenerator, SdssGenerator};
use atlas_explorer::{MapQuality, ReadabilityReport};
use atlas_query::ConjunctiveQuery;
use std::sync::Arc;

/// What runs an experiment and returns its table.
type Run = fn() -> Experiment;

/// The experiments by id, in the order they run.
const EXPERIMENTS: [(&str, Run); 9] = [
    ("e1", e1_alternative_maps),
    ("e2", e2_cut_strategies),
    ("e3", e3_dependency_recovery),
    ("e4", e4_product_vs_composition),
    ("e5", e5_ranking),
    ("e6", e6_scalability),
    ("e7", e7_anytime),
    ("e8", e8_baselines),
    ("e9", e9_splits_ablation),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).map(|a| a.to_lowercase()).collect();
    if let Some(unknown) = args
        .iter()
        .find(|a| EXPERIMENTS.iter().all(|(id, _)| id != a))
    {
        eprintln!("unknown experiment `{unknown}`: the ids are e1..e9");
        eprintln!("(the latency reports are subcommands of the `smoke` binary)");
        std::process::exit(2);
    }
    println!("# Atlas experiment harness");
    println!("# (one section per experiment, E1–E9)\n");
    let mut done = Vec::new();
    for (id, run) in EXPERIMENTS {
        if args.is_empty() || args.iter().any(|a| a == id) {
            let experiment = run();
            println!("{}", experiment.render(id));
            done.push((id, experiment));
        }
    }
    if args.is_empty() {
        report::write("QUALITY_CI.json", &report::quality_report(&done).pretty());
        println!("wrote QUALITY_CI.json");
    }
}

/// `names` sorted, so a group compares whatever order it was listed in.
fn sorted(names: impl IntoIterator<Item = impl Into<String>>) -> Vec<String> {
    let mut names: Vec<String> = names.into_iter().map(Into::into).collect();
    names.sort();
    names
}

/// Whether every planted census dependency group is one of `recovered`.
fn dependency_groups_exact(recovered: &[Vec<String>]) -> bool {
    CensusGenerator::dependency_groups()
        .into_iter()
        .all(|group| recovered.contains(&sorted(group)))
}

/// E1 — Figures 1 & 2: several alternative maps of the same census data, with
/// dependent attributes grouped together.
fn e1_alternative_maps() -> Experiment {
    let rows = [1u64, 2, 3, 4, 5].map(|seed| {
        let table = Arc::new(CensusGenerator::with_rows(20_000, seed).generate());
        let atlas = Atlas::with_defaults(Arc::clone(&table)).expect("valid config");
        let result = atlas
            .explore(&ConjunctiveQuery::all("census"))
            .expect("exploration succeeds");
        let education_map = result
            .maps
            .iter()
            .find(|m| m.map.source_attributes.iter().any(|a| a == "education"));
        let edu_with_salary =
            education_map.is_some_and(|m| m.map.source_attributes.iter().any(|a| a == "salary"));
        let eye_isolated = result
            .maps
            .iter()
            .filter(|m| m.map.source_attributes.iter().any(|a| a == "eye_color"))
            .all(|m| m.map.source_attributes.len() == 1);
        let best = result.best().expect("at least one map");
        vec![
            ("seed", Cell::from(seed)),
            ("maps", result.num_maps().into()),
            (
                "top_map_attributes",
                best.map.source_attributes.join("+").into(),
            ),
            ("top_map_regions", best.map.num_regions().into()),
            ("edu_and_salary_together", edu_with_salary.into()),
            ("eye_color_isolated", eye_isolated.into()),
        ]
    });
    Experiment {
        title: "alternative maps of the census working set (Figures 1–2)",
        rows: rows.into(),
    }
}

/// E2 — Figure 3 / Section 3.1: cost and quality of the cutting strategies,
/// on the census's `height_cm` and on every float of the sky survey: the
/// balance of the two-way cut (entropy bits) and the share of the column's
/// variance it explains.
fn e2_cut_strategies() -> Experiment {
    let strategies: [(&str, NumericCutStrategy); 3] = [
        ("equi_width", NumericCutStrategy::EquiWidth),
        ("median", NumericCutStrategy::Median),
        ("kmeans", NumericCutStrategy::KMeans { max_iterations: 30 }),
    ];
    let census = census(100_000);
    let sky = SdssGenerator::with_rows(20_000, 42).generate();
    let floats = [
        "ra", "dec", "mag_u", "mag_g", "mag_r", "mag_i", "mag_z", "redshift",
    ];
    let columns = [(&*census, "height_cm")]
        .into_iter()
        .chain(floats.map(|float| (&sky, float)));
    let mut rows = Vec::new();
    for (table, attribute) in columns {
        let working = table.full_selection();
        let query = ConjunctiveQuery::all(table.name());
        let column = table.column(attribute).expect("column exists");
        let values = column.numeric_values_where(&working);
        let total_variance = variance(&values);
        for (name, strategy) in strategies {
            let config = CutConfig {
                numeric: strategy,
                ..CutConfig::default()
            };
            let (elapsed, map) = best_of_ms(1, || {
                cut_attribute(table, &working, &query, attribute, &config).expect("cut succeeds")
            });
            let map = map.expect("map produced");
            let within: f64 = map
                .regions
                .iter()
                .map(|r| {
                    let vs = column.numeric_values_where(&r.selection);
                    variance(&vs) * vs.len() as f64
                })
                .sum::<f64>()
                / values.len() as f64;
            rows.push(vec![
                ("column", format!("{}.{attribute}", table.name()).into()),
                ("strategy", name.into()),
                ("time_ms", Cell::Ms(elapsed, 2)),
                ("balance_bits", Cell::Score(map.entropy(), 3)),
                (
                    "variance_reduction",
                    Cell::Score(1.0 - within / total_variance, 3),
                ),
            ]);
        }
    }
    Experiment {
        title: "CUT strategies: cost and within-partition homogeneity (Figure 3)",
        rows,
    }
}

/// E3 — Figure 4 / Section 3.2: recovery of the planted attribute dependency
/// groups, per distance metric and linkage.
fn e3_dependency_recovery() -> Experiment {
    let table = Arc::new(CensusGenerator::with_rows(30_000, 7).generate());
    let working = table.full_selection();
    let query = ConjunctiveQuery::all("census");
    let candidates = generate_candidates(&table, &working, &query, None, &CutConfig::default())
        .expect("candidates");
    let attribute_of = |idx: usize| candidates.maps[idx].source_attributes[0].clone();
    let expected = CensusGenerator::dependency_groups().len();
    let mut rows = Vec::new();
    for metric in [
        MapDistanceMetric::NormalizedVI,
        MapDistanceMetric::OneMinusNmi,
        MapDistanceMetric::VariationOfInformation,
    ] {
        let matrix = distance_matrix(&candidates.maps, table.num_rows(), metric);
        for linkage in [Linkage::Single, Linkage::Complete, Linkage::Average] {
            // The raw VI is unbounded, so it needs a larger threshold.
            let threshold = match metric {
                MapDistanceMetric::VariationOfInformation => 1.6,
                _ => 0.95,
            };
            let clusters = cluster_maps(
                &matrix,
                &ClusteringConfig {
                    linkage,
                    distance_threshold: Some(threshold),
                    max_cluster_size: 3,
                },
            )
            .expect("clustering succeeds");
            let recovered: Vec<Vec<String>> = clusters
                .iter()
                .map(|c| sorted(c.iter().map(|&i| attribute_of(i))))
                .collect();
            rows.push(vec![
                ("distance", format!("{metric:?}").into()),
                ("linkage", format!("{linkage:?}").into()),
                ("recovered_groups", recovered.len().into()),
                ("expected_groups", expected.into()),
                ("exact_match", dependency_groups_exact(&recovered).into()),
            ]);
        }
    }
    Experiment {
        title: "dependency-group recovery by map clustering (Figure 4)",
        rows,
    }
}

/// E4 — Figure 5 / Section 3.3: product vs composition on planted mixtures.
fn e4_product_vs_composition() -> Experiment {
    let mut rows = Vec::new();
    for clusters in [2usize, 4, 6] {
        let (table, labels) = mixture(20_000, clusters);
        let attrs: Vec<String> = vec!["sig_0".to_string(), "sig_1".to_string()];
        for merge in [MergeStrategy::Product, MergeStrategy::Composition] {
            let config = AtlasConfig {
                merge,
                attributes: Some(attrs.clone()),
                cut: CutConfig {
                    numeric: NumericCutStrategy::KMeans { max_iterations: 40 },
                    ..CutConfig::default()
                },
                max_regions_per_map: 16,
                ..AtlasConfig::default()
            };
            let atlas = Atlas::new(Arc::clone(&table), config).expect("valid config");
            let result = atlas
                .explore(&ConjunctiveQuery::all("mixture"))
                .expect("exploration succeeds");
            let (_, quality) =
                MapQuality::best_of(&result.maps, &labels).expect("at least one map");
            let best = result.best().expect("at least one map");
            rows.push(vec![
                ("clusters", Cell::from(clusters)),
                ("merge", format!("{merge:?}").into()),
                ("regions", best.map.num_regions().into()),
                ("ari", Cell::Score(quality.ari, 3)),
                // The engine's own span-derived timing; no second stopwatch.
                ("time_ms", Cell::Ms(result.timings.total_ms, 1)),
            ]);
        }
    }
    Experiment {
        title: "product vs composition: planted-cluster recovery (Figure 5)",
        rows,
    }
}

/// E5 — Section 3.4: ranking behaviour (the entropy column never rises).
fn e5_ranking() -> Experiment {
    let atlas = Atlas::with_defaults(census(30_000)).expect("valid config");
    let result = atlas
        .explore(&ConjunctiveQuery::all("census"))
        .expect("exploration succeeds");
    let rows = result.maps.iter().enumerate().map(|(rank, ranked)| {
        let covers = ranked.map.covers(result.working_set_size);
        let min_cover = covers.iter().cloned().fold(f64::INFINITY, f64::min);
        vec![
            ("rank", Cell::from(rank)),
            ("attributes", ranked.map.source_attributes.join("+").into()),
            ("regions", ranked.map.num_regions().into()),
            ("entropy", Cell::Score(ranked.score, 3)),
            ("smallest_cover", Cell::Score(min_cover, 3)),
        ]
    });
    Experiment {
        title: "entropy ranking: balanced multi-region maps first, outlier maps last",
        rows: rows.collect(),
    }
}

/// E6 — Sections 1–2: end-to-end latency vs rows and attributes, with the
/// per-phase breakdown.
fn e6_scalability() -> Experiment {
    let census = [10_000usize, 100_000, 1_000_000].map(census);
    let wide = [8usize, 16, 32].map(|columns| wide_numeric(100_000, columns));
    let rows = census.into_iter().chain(wide).map(|table| {
        let atlas = Atlas::with_defaults(Arc::clone(&table)).expect("valid config");
        let result = atlas
            .explore(&ConjunctiveQuery::all(table.name()))
            .expect("exploration succeeds");
        let t = &result.timings;
        vec![
            ("dataset", Cell::from(table.name())),
            ("rows", table.num_rows().into()),
            ("attrs", table.num_columns().into()),
            ("total_ms", Cell::Ms(t.total_ms, 1)),
            ("cut_ms", Cell::Ms(t.candidates_ms, 1)),
            ("cluster_ms", Cell::Ms(t.clustering_ms, 1)),
            ("merge_ms", Cell::Ms(t.merge_ms, 1)),
            ("rank_ms", Cell::Ms(t.rank_ms, 1)),
        ]
    });
    Experiment {
        title: "end-to-end latency (quasi-real-time claim)",
        rows: rows.collect(),
    }
}

/// E7 — Section 5.1: anytime quality vs sample size, on a fixed sample
/// schedule (no wall-clock budget, so every run takes the same samples; the
/// last one is the whole working set).
fn e7_anytime() -> Experiment {
    let table = census(500_000);
    let query = ConjunctiveQuery::all("census");
    let atlas = Atlas::with_defaults(table).expect("valid config");
    let exact = atlas.explore(&query).expect("exact exploration");
    let exact_best = exact.best().expect("exact map");
    let exact_covers = exact_best.map.covers(exact.working_set_size);
    let options = ExploreOptions {
        initial_sample: 1_000,
        growth_factor: 4.0,
        ..ExploreOptions::exhaustive()
    };
    let outcome = atlas
        .explore_anytime(&query, options)
        .expect("anytime run succeeds");
    let rows = outcome.iterations.iter().enumerate().map(|(i, iteration)| {
        let best = iteration.result.best().expect("a map per iteration");
        let covers = best.map.covers(iteration.result.working_set_size);
        let max_error = covers
            .iter()
            .zip(exact_covers.iter())
            .map(|(a, e)| (a - e).abs())
            .fold(0.0f64, f64::max);
        let same_grouping = sorted(best.map.source_attributes.clone())
            == sorted(exact_best.map.source_attributes.clone());
        vec![
            ("iteration", Cell::from(i)),
            ("sample", iteration.sample_size.into()),
            (
                "elapsed_ms",
                Cell::Ms(iteration.elapsed.as_secs_f64() * 1000.0, 1),
            ),
            ("max_cover_error_vs_exact", Cell::Score(max_error, 4)),
            ("same_attribute_grouping", same_grouping.into()),
        ]
    });
    Experiment {
        title: "anytime engine: approximation quality vs sample size",
        rows: rows.collect(),
    }
}

/// E8 — Sections 2 & 6: Atlas vs baselines on readability and interest.
fn e8_baselines() -> Experiment {
    let table = census(50_000);
    let (working, query) = (table.full_selection(), ConjunctiveQuery::all("census"));
    let row = |name: &str, (elapsed_ms, maps): (f64, Vec<DataMap>)| -> Row {
        let report = ReadabilityReport::compute(&maps, 8, 3);
        vec![
            ("system", name.into()),
            ("maps", report.num_maps.into()),
            ("max_regions", report.max_regions.into()),
            ("mean_regions", Cell::Score(report.mean_regions, 1)),
            ("max_predicates", report.max_predicates.into()),
            ("mean_entropy", Cell::Score(report.mean_entropy, 3)),
            ("within_constraints", report.within_constraints.into()),
            ("time_ms", Cell::Ms(elapsed_ms, 1)),
        ]
    };
    let atlas_result = Atlas::new(Arc::clone(&table), AtlasConfig::default())
        .expect("valid config")
        .explore(&query)
        .expect("exploration succeeds");
    let atlas_maps = atlas_result.maps.iter().map(|m| m.map.clone()).collect();
    let generated = "baseline succeeds";
    let rows = vec![
        // The engine's own span-derived timing; no second stopwatch.
        row("atlas", (atlas_result.timings.total_ms, atlas_maps)),
        row(
            "single_attribute",
            best_of_ms(1, || {
                let maps = SingleAttributeBaseline::default().generate(&table, &working, &query);
                maps.expect(generated).into_iter().map(|m| m.map).collect()
            }),
        ),
        row(
            "full_product",
            best_of_ms(1, || {
                let map = FullProductBaseline::default().generate(&table, &working, &query);
                vec![map.expect(generated)]
            }),
        ),
        row(
            "random_maps",
            best_of_ms(1, || {
                let maps = RandomMapBaseline::default().generate(&table, &working, &query);
                maps.expect(generated)
            }),
        ),
        row(
            "grid_clique",
            best_of_ms(1, || {
                let maps = GridCliqueBaseline::default().generate(&table, &working, &query);
                maps.expect(generated)
            }),
        ),
    ];
    Experiment {
        title: "Atlas vs baselines: readability constraints and interest",
        rows,
    }
}

/// E9 — Section 3.1: the two-way-split design decision.
fn e9_splits_ablation() -> Experiment {
    let table = Arc::new(CensusGenerator::with_rows(50_000, 19).generate());
    let working = table.full_selection();
    let query = ConjunctiveQuery::all("census");
    let rows = [2usize, 3, 4, 8].map(|splits| {
        let cut = CutConfig {
            num_splits: splits,
            ..CutConfig::default()
        };
        let (candidate_ms, candidates) = best_of_ms(1, || {
            generate_candidates(&table, &working, &query, None, &cut).expect("candidates")
        });
        let matrix = distance_matrix(
            &candidates.maps,
            table.num_rows(),
            MapDistanceMetric::NormalizedVI,
        );
        let clusters = cluster_maps(&matrix, &ClusteringConfig::default()).expect("clustering");
        let recovered: Vec<Vec<String>> = clusters
            .iter()
            .map(|c| {
                sorted(
                    c.iter()
                        .map(|&i| candidates.maps[i].source_attributes[0].clone()),
                )
            })
            .collect();
        let config = AtlasConfig {
            cut,
            max_regions_per_map: 64,
            ..AtlasConfig::default()
        };
        let atlas = Atlas::new(Arc::clone(&table), config).expect("valid config");
        let result = atlas.explore(&query).expect("exploration succeeds");
        let max_regions = result.maps.iter().map(|m| m.map.num_regions()).max();
        vec![
            ("splits", Cell::from(splits)),
            (
                "dependency_groups_exact",
                dependency_groups_exact(&recovered).into(),
            ),
            ("candidate_time_ms", Cell::Ms(candidate_ms, 1)),
            // The engine's own span-derived timing; no second stopwatch.
            ("end_to_end_ms", Cell::Ms(result.timings.total_ms, 1)),
            ("max_regions", max_regions.unwrap_or(0).into()),
        ]
    });
    Experiment {
        title: "partitions per attribute: accuracy vs cost (two-way split ablation)",
        rows: rows.into(),
    }
}

fn variance(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mean = values.iter().sum::<f64>() / values.len() as f64;
    values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / values.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use atlas_serve::wire;

    /// The quality check: all nine experiments score exactly what the
    /// committed `QUALITY.json` holds, bit for bit, under whatever thread
    /// count, segment layout and kernel path the suite runs with.
    #[test]
    fn every_score_is_the_committed_one() {
        let done: Vec<_> = EXPERIMENTS.iter().map(|(id, run)| (*id, run())).collect();
        let committed = wire::parse(include_str!("../../../../QUALITY.json")).expect("valid JSON");
        let moved = report::quality_differences(&committed, &report::quality_report(&done));
        assert!(
            moved.is_empty(),
            "the scores moved (commit a run's QUALITY_CI.json as QUALITY.json only for a \
             change that moves them on purpose):\n{}",
            moved.join("\n")
        );
    }
}
