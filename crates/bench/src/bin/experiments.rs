//! The experiment harness: runs the paper's experiments E1–E9 (each
//! function's doc names the figure or section it reproduces) and prints one
//! table per experiment. The latency reports are the `smoke` binary's.
//!
//! Run with: `cargo run -p atlas-bench --release --bin experiments`
//! A subset can be selected by id: `… --bin experiments e1 e4 e7`.

use atlas_bench::{census, mixture, wide_numeric};
use atlas_core::baselines::{
    FullProductBaseline, GridCliqueBaseline, RandomMapBaseline, SingleAttributeBaseline,
};
use atlas_core::cut::{cut_attribute, CutConfig, NumericCutStrategy};
use atlas_core::{
    cluster_maps, distance_matrix, generate_candidates, Atlas, AtlasConfig, ClusteringConfig,
    DataMap, ExploreOptions, Linkage, MapDistanceMetric, MergeStrategy,
};
use atlas_datagen::CensusGenerator;
use atlas_explorer::{MapQuality, ReadabilityReport};
use atlas_query::ConjunctiveQuery;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The experiments by id, in the order they run.
const EXPERIMENTS: [(&str, fn()); 9] = [
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
    for (id, run) in EXPERIMENTS {
        if args.is_empty() || args.iter().any(|a| a == id) {
            run();
        }
    }
}

/// E1 — Figures 1 & 2: several alternative maps of the same census data, with
/// dependent attributes grouped together.
fn e1_alternative_maps() {
    println!("## E1 — alternative maps of the census working set (Figures 1–2)");
    println!("| seed | maps | top map attributes | top-map regions | edu&salary together | eye_color isolated |");
    println!("|------|------|--------------------|-----------------|---------------------|--------------------|");
    let mut grouped = 0usize;
    let mut isolated = 0usize;
    let seeds = [1u64, 2, 3, 4, 5];
    for &seed in &seeds {
        let table = Arc::new(CensusGenerator::with_rows(20_000, seed).generate());
        let atlas = Atlas::with_defaults(Arc::clone(&table)).expect("valid config");
        let result = atlas
            .explore(&ConjunctiveQuery::all("census"))
            .expect("exploration succeeds");
        let education_map = result
            .maps
            .iter()
            .find(|m| m.map.source_attributes.iter().any(|a| a == "education"));
        let edu_with_salary = education_map
            .map(|m| m.map.source_attributes.iter().any(|a| a == "salary"))
            .unwrap_or(false);
        let eye_isolated = result
            .maps
            .iter()
            .filter(|m| m.map.source_attributes.iter().any(|a| a == "eye_color"))
            .all(|m| m.map.source_attributes.len() == 1);
        grouped += usize::from(edu_with_salary);
        isolated += usize::from(eye_isolated);
        let best = result.best().expect("at least one map");
        println!(
            "| {seed} | {} | {} | {} | {} | {} |",
            result.num_maps(),
            best.map.source_attributes.join("+"),
            best.map.num_regions(),
            edu_with_salary,
            eye_isolated
        );
    }
    println!(
        "-> dependency grouping rate: {grouped}/{} seeds, distractor isolation rate: {isolated}/{}\n",
        seeds.len(),
        seeds.len()
    );
}

/// E2 — Figure 3 / Section 3.1: cost and quality of the cutting strategies.
fn e2_cut_strategies() {
    println!("## E2 — CUT strategies: cost and within-partition homogeneity (Figure 3)");
    println!("| strategy | time (ms) | balance (entropy bits) | variance reduction |");
    println!("|----------|-----------|------------------------|--------------------|");
    let table = census(100_000);
    let working = table.full_selection();
    let query = ConjunctiveQuery::all("census");
    let column = table.column("height_cm").expect("column exists");
    let values = column.numeric_values_where(&working);
    let total_variance = variance(&values);
    let strategies: [(&str, NumericCutStrategy); 3] = [
        ("equi_width", NumericCutStrategy::EquiWidth),
        ("median", NumericCutStrategy::Median),
        ("kmeans", NumericCutStrategy::KMeans { max_iterations: 30 }),
    ];
    for (name, strategy) in strategies {
        let config = CutConfig {
            numeric: strategy,
            ..CutConfig::default()
        };
        let start = Instant::now();
        let map = cut_attribute(&table, &working, &query, "height_cm", &config)
            .expect("cut succeeds")
            .expect("map produced");
        let elapsed = start.elapsed().as_secs_f64() * 1000.0;
        let within: f64 = map
            .regions
            .iter()
            .map(|r| {
                let vs = column.numeric_values_where(&r.selection);
                variance(&vs) * vs.len() as f64
            })
            .sum::<f64>()
            / values.len() as f64;
        let reduction = 1.0 - within / total_variance;
        println!(
            "| {name} | {elapsed:.2} | {:.3} | {reduction:.3} |",
            map.entropy()
        );
    }
    println!();
}

/// E3 — Figure 4 / Section 3.2: recovery of the planted attribute dependency
/// groups, per distance metric and linkage.
fn e3_dependency_recovery() {
    println!("## E3 — dependency-group recovery by map clustering (Figure 4)");
    println!("| distance | linkage | recovered groups | expected groups | exact match |");
    println!("|----------|---------|------------------|-----------------|-------------|");
    let table = Arc::new(CensusGenerator::with_rows(30_000, 7).generate());
    let working = table.full_selection();
    let query = ConjunctiveQuery::all("census");
    let candidates = generate_candidates(&table, &working, &query, None, &CutConfig::default())
        .expect("candidates");
    let attribute_of = |idx: usize| candidates.maps[idx].source_attributes[0].clone();
    let expected = CensusGenerator::dependency_groups();
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
                .map(|c| {
                    let mut names: Vec<String> = c.iter().map(|&i| attribute_of(i)).collect();
                    names.sort();
                    names
                })
                .collect();
            let exact = expected.iter().all(|group| {
                let mut g: Vec<String> = group.iter().map(|s| s.to_string()).collect();
                g.sort();
                recovered.contains(&g)
            });
            println!(
                "| {metric:?} | {linkage:?} | {} | {} | {exact} |",
                recovered.len(),
                expected.len()
            );
        }
    }
    println!();
}

/// E4 — Figure 5 / Section 3.3: product vs composition on planted mixtures.
fn e4_product_vs_composition() {
    println!("## E4 — product vs composition: planted-cluster recovery (Figure 5)");
    println!("| clusters | merge | regions | ARI vs ground truth | time (ms) |");
    println!("|----------|-------|---------|---------------------|-----------|");
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
            // The engine's own span-derived timing; no second stopwatch.
            let elapsed = result.timings.total_ms;
            let (_, quality) =
                MapQuality::best_of(&result.maps, &labels).expect("at least one map");
            let best = result.best().expect("at least one map");
            println!(
                "| {clusters} | {merge:?} | {} | {:.3} | {elapsed:.1} |",
                best.map.num_regions(),
                quality.ari
            );
        }
    }
    println!();
}

/// E5 — Section 3.4: ranking behaviour.
fn e5_ranking() {
    println!("## E5 — entropy ranking: balanced multi-region maps first, outlier maps last");
    println!("| rank | attributes | regions | entropy | smallest region cover |");
    println!("|------|------------|---------|---------|------------------------|");
    let table = census(30_000);
    let atlas = Atlas::with_defaults(Arc::clone(&table)).expect("valid config");
    let result = atlas
        .explore(&ConjunctiveQuery::all("census"))
        .expect("exploration succeeds");
    for (rank, ranked) in result.maps.iter().enumerate() {
        let covers = ranked.map.covers(result.working_set_size);
        let min_cover = covers.iter().cloned().fold(f64::INFINITY, f64::min);
        println!(
            "| {rank} | {} | {} | {:.3} | {:.3} |",
            ranked.map.source_attributes.join("+"),
            ranked.map.num_regions(),
            ranked.score,
            min_cover
        );
    }
    // Monotonicity check.
    let monotone = result
        .maps
        .windows(2)
        .all(|w| w[0].score >= w[1].score - 1e-12);
    println!("-> scores non-increasing: {monotone}\n");
}

/// E6 — Sections 1–2: end-to-end latency vs rows and attributes, with the
/// per-phase breakdown.
fn e6_scalability() {
    println!("## E6 — end-to-end latency (quasi-real-time claim)");
    println!("| dataset | rows | attrs | total (ms) | cut (ms) | cluster (ms) | merge (ms) | rank (ms) |");
    println!("|---------|------|-------|------------|----------|--------------|------------|-----------|");
    for rows in [10_000usize, 100_000, 1_000_000] {
        let table = census(rows);
        let atlas = Atlas::with_defaults(Arc::clone(&table)).expect("valid config");
        let result = atlas
            .explore(&ConjunctiveQuery::all("census"))
            .expect("exploration succeeds");
        let t = &result.timings;
        println!(
            "| census | {rows} | 7 | {:.1} | {:.1} | {:.1} | {:.1} | {:.1} |",
            t.total_ms, t.candidates_ms, t.clustering_ms, t.merge_ms, t.rank_ms
        );
    }
    for columns in [8usize, 16, 32] {
        let table = wide_numeric(100_000, columns);
        let atlas = Atlas::with_defaults(Arc::clone(&table)).expect("valid config");
        let result = atlas
            .explore(&ConjunctiveQuery::all("wide"))
            .expect("exploration succeeds");
        let t = &result.timings;
        println!(
            "| wide | 100000 | {columns} | {:.1} | {:.1} | {:.1} | {:.1} | {:.1} |",
            t.total_ms, t.candidates_ms, t.clustering_ms, t.merge_ms, t.rank_ms
        );
    }
    println!();
}

/// E7 — Section 5.1: anytime quality vs time budget.
fn e7_anytime() {
    println!("## E7 — anytime engine: approximation quality vs sample size");
    println!("| iteration | sample | elapsed (ms) | max cover error vs exact | same attribute grouping |");
    println!("|-----------|--------|--------------|--------------------------|-------------------------|");
    let table = census(500_000);
    let query = ConjunctiveQuery::all("census");
    let atlas = Atlas::with_defaults(table).expect("valid config");
    let exact = atlas.explore(&query).expect("exact exploration");
    let exact_best = exact.best().expect("exact map");
    let exact_covers = exact_best.map.covers(exact.working_set_size);
    let options = ExploreOptions {
        initial_sample: 1_000,
        growth_factor: 4.0,
        ..ExploreOptions::budgeted(Duration::from_secs(120))
    };
    let outcome = atlas
        .explore_anytime(&query, options)
        .expect("anytime run succeeds");
    for (i, iteration) in outcome.iterations.iter().enumerate() {
        let best = iteration.result.best().expect("a map per iteration");
        let covers = best.map.covers(iteration.result.working_set_size);
        let max_error = covers
            .iter()
            .zip(exact_covers.iter())
            .map(|(a, e)| (a - e).abs())
            .fold(0.0f64, f64::max);
        let same_grouping = {
            let mut a = best.map.source_attributes.clone();
            let mut e = exact_best.map.source_attributes.clone();
            a.sort();
            e.sort();
            a == e
        };
        println!(
            "| {i} | {} | {:.1} | {:.4} | {} |",
            iteration.sample_size,
            iteration.elapsed.as_secs_f64() * 1000.0,
            max_error,
            same_grouping
        );
    }
    println!(
        "-> reached full data: {}, exact end-to-end: {:.1} ms\n",
        outcome.reached_full_data, exact.timings.total_ms
    );
}

/// E8 — Sections 2 & 6: Atlas vs baselines on readability and interest.
fn e8_baselines() {
    println!("## E8 — Atlas vs baselines: readability constraints and interest");
    println!("| system | maps | max regions | mean regions | max predicates | mean entropy | within constraints | time (ms) |");
    println!("|--------|------|-------------|--------------|----------------|--------------|--------------------|-----------|");
    let table = census(50_000);
    let working = table.full_selection();
    let query = ConjunctiveQuery::all("census");
    let region_limit = 8;
    let predicate_limit = 3;

    let report_row = |name: &str, maps: &[DataMap], elapsed_ms: f64| {
        let report = ReadabilityReport::compute(maps, region_limit, predicate_limit);
        println!(
            "| {name} | {} | {} | {:.1} | {} | {:.3} | {} | {elapsed_ms:.1} |",
            report.num_maps,
            report.max_regions,
            report.mean_regions,
            report.max_predicates,
            report.mean_entropy,
            report.within_constraints
        );
    };

    let atlas_result = Atlas::new(Arc::clone(&table), AtlasConfig::default())
        .expect("valid config")
        .explore(&query)
        .expect("exploration succeeds");
    // The engine's own span-derived timing; no second stopwatch.
    let atlas_ms = atlas_result.timings.total_ms;
    let atlas_maps: Vec<DataMap> = atlas_result.maps.iter().map(|m| m.map.clone()).collect();
    report_row("atlas", &atlas_maps, atlas_ms);

    let start = Instant::now();
    let single_maps: Vec<DataMap> = SingleAttributeBaseline::default()
        .generate(&table, &working, &query)
        .expect("baseline succeeds")
        .into_iter()
        .map(|m| m.map)
        .collect();
    report_row(
        "single_attribute",
        &single_maps,
        start.elapsed().as_secs_f64() * 1000.0,
    );

    let start = Instant::now();
    let product_map = FullProductBaseline::default()
        .generate(&table, &working, &query)
        .expect("baseline succeeds");
    report_row(
        "full_product",
        std::slice::from_ref(&product_map),
        start.elapsed().as_secs_f64() * 1000.0,
    );

    let start = Instant::now();
    let random_maps = RandomMapBaseline::default()
        .generate(&table, &working, &query)
        .expect("baseline succeeds");
    report_row(
        "random_maps",
        &random_maps,
        start.elapsed().as_secs_f64() * 1000.0,
    );

    let start = Instant::now();
    let clique_maps = GridCliqueBaseline::default()
        .generate(&table, &working, &query)
        .expect("baseline succeeds");
    report_row(
        "grid_clique",
        &clique_maps,
        start.elapsed().as_secs_f64() * 1000.0,
    );
    println!();
}

/// E9 — Section 3.1: the two-way-split design decision.
fn e9_splits_ablation() {
    println!("## E9 — partitions per attribute: accuracy vs cost (two-way split ablation)");
    println!("| splits | dependency groups exact | candidate time (ms) | end-to-end (ms) | max regions |");
    println!("|--------|-------------------------|---------------------|-----------------|-------------|");
    let table = Arc::new(CensusGenerator::with_rows(50_000, 19).generate());
    let expected = CensusGenerator::dependency_groups();
    for splits in [2usize, 3, 4, 8] {
        let cut = CutConfig {
            num_splits: splits,
            ..CutConfig::default()
        };
        let working = table.full_selection();
        let query = ConjunctiveQuery::all("census");
        let start = Instant::now();
        let candidates =
            generate_candidates(&table, &working, &query, None, &cut).expect("candidates");
        let candidate_ms = start.elapsed().as_secs_f64() * 1000.0;
        let matrix = distance_matrix(
            &candidates.maps,
            table.num_rows(),
            MapDistanceMetric::NormalizedVI,
        );
        let clusters = cluster_maps(&matrix, &ClusteringConfig::default()).expect("clustering");
        let recovered: Vec<Vec<String>> = clusters
            .iter()
            .map(|c| {
                let mut names: Vec<String> = c
                    .iter()
                    .map(|&i| candidates.maps[i].source_attributes[0].clone())
                    .collect();
                names.sort();
                names
            })
            .collect();
        let exact = expected.iter().all(|group| {
            let mut g: Vec<String> = group.iter().map(|s| s.to_string()).collect();
            g.sort();
            recovered.contains(&g)
        });
        let config = AtlasConfig {
            cut: cut.clone(),
            max_regions_per_map: 64,
            ..AtlasConfig::default()
        };
        let atlas = Atlas::new(Arc::clone(&table), config).expect("valid config");
        let result = atlas.explore(&query).expect("exploration succeeds");
        // The engine's own span-derived timing; no second stopwatch.
        let end_to_end_ms = result.timings.total_ms;
        let max_regions = result
            .maps
            .iter()
            .map(|m| m.map.num_regions())
            .max()
            .unwrap_or(0);
        println!("| {splits} | {exact} | {candidate_ms:.1} | {end_to_end_ms:.1} | {max_regions} |");
    }
    println!();
}

fn variance(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mean = values.iter().sum::<f64>() / values.len() as f64;
    values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / values.len() as f64
}
