//! The experiment harness: runs the paper's experiments E1–E9 (each
//! function's doc names the figure or section it reproduces) and prints one
//! table per experiment.
//!
//! Run with: `cargo run -p atlas-bench --release --bin experiments`
//! A subset can be selected by id: `… --bin experiments e1 e4 e7`.

use atlas_bench::{census, mixture, wide_numeric};
use atlas_columnar::{with_kernel_path, Bitmap, Column, ColumnView, KernelPath};
use atlas_core::baselines::{
    FullProductBaseline, GridCliqueBaseline, RandomMapBaseline, SingleAttributeBaseline,
};
use atlas_core::cut::{cut_attribute, CutConfig, NumericCutStrategy};
use atlas_core::{
    cluster_maps, distance_matrix, generate_candidates, Atlas, AtlasConfig, ClusteringConfig,
    DataMap, ExploreOptions, Linkage, MapDistanceMetric, MergeStrategy, PhaseTimings,
};
use atlas_datagen::CensusGenerator;
use atlas_explorer::{MapQuality, ReadabilityReport};
use atlas_query::ConjunctiveQuery;
use atlas_serve::wire::Json;
use atlas_serve::{Coordinator, DatasetOptions, Registry, ServeConfig, Server};
use atlas_stats::quantile::quantile;
use atlas_stats::ContingencyTable;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn main() {
    let raw_args: Vec<String> = std::env::args().skip(1).collect();
    // `bench-smoke [path] [--gate <pct>] [--served <runs>]` — the CI
    // perf-trajectory mode — writes a small JSON report instead of printing
    // the experiment tables. With `--gate`, the run fails (exit 1) if any
    // phase regressed by more than `<pct>` percent against the most recent
    // committed bench-smoke report. With `--served`, the report gains a
    // `served` section summarising the named file of `BENCHMARK.json`
    // harness runs (see `served_section`).
    if raw_args.first().map(String::as_str) == Some("bench-smoke") {
        let mut path = None;
        let mut gate = None;
        let mut served = None;
        let mut rest = raw_args[1..].iter();
        while let Some(arg) = rest.next() {
            if arg == "--gate" {
                let pct = rest.next().expect("--gate takes a percentage");
                gate = Some(pct.parse::<f64>().expect("--gate takes a number"));
            } else if arg == "--served" {
                served = Some(rest.next().expect("--served takes a file").as_str());
            } else {
                path = Some(arg.as_str());
            }
        }
        bench_smoke(path.unwrap_or("BENCH_CI.json"), gate, served);
        return;
    }
    // `trace-smoke [path]` — enable tracing, run a two-shard distributed
    // explore, validate the reassembled span tree (every pipeline phase, at
    // least one kernel-path event, proper nesting, nothing unclosed), and
    // write the spans as Chrome trace-event JSON loadable in Perfetto.
    if raw_args.first().map(String::as_str) == Some("trace-smoke") {
        let path = raw_args.get(1).map_or("TRACE_SMOKE.json", String::as_str);
        trace_smoke(path);
        return;
    }
    let args: Vec<String> = raw_args.iter().map(|a| a.to_lowercase()).collect();
    let wants = |id: &str| args.is_empty() || args.iter().any(|a| a == id);

    println!("# Atlas experiment harness");
    println!("# (one section per experiment, E1–E9)\n");
    if wants("e1") {
        e1_alternative_maps();
    }
    if wants("e2") {
        e2_cut_strategies();
    }
    if wants("e3") {
        e3_dependency_recovery();
    }
    if wants("e4") {
        e4_product_vs_composition();
    }
    if wants("e5") {
        e5_ranking();
    }
    if wants("e6") {
        e6_scalability();
    }
    if wants("e7") {
        e7_anytime();
    }
    if wants("e8") {
        e8_baselines();
    }
    if wants("e9") {
        e9_splits_ablation();
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

/// Round to 3 decimals so the JSON reports stay diff-friendly.
fn ms(x: f64) -> Json {
    Json::Num((x * 1000.0).round() / 1000.0)
}

/// A run's phase timings as report fields, every key prefixed with `prefix`.
fn timings_fields(prefix: &str, t: &PhaseTimings) -> Vec<(String, Json)> {
    [
        ("query_ms", t.query_ms),
        ("candidates_ms", t.candidates_ms),
        ("clustering_ms", t.clustering_ms),
        ("merge_ms", t.merge_ms),
        ("rank_ms", t.rank_ms),
        ("total_ms", t.total_ms),
    ]
    .into_iter()
    .map(|(phase, x)| (format!("{prefix}{phase}"), ms(x)))
    .collect()
}

fn timings_value(t: &PhaseTimings) -> Json {
    Json::object(timings_fields("", t))
}

/// The fastest (by total time) of `repeats` explorations of `query` — the
/// steady-state figure CI cares about.
fn best_explore(engine: &Atlas, query: &ConjunctiveQuery, repeats: usize) -> atlas_core::MapResult {
    let mut best: Option<atlas_core::MapResult> = None;
    for _ in 0..repeats {
        let result = engine.explore(query).expect("exploration succeeds");
        if best
            .as_ref()
            .is_none_or(|b| result.timings.total_ms < b.timings.total_ms)
        {
            best = Some(result);
        }
    }
    best.expect("at least one exploration ran")
}

/// One bench-smoke scale point: explore the census at `rows` with the fast
/// configuration, sequentially and with the default parallelism, and take the
/// best of `repeats` runs (the steady-state figure CI cares about).
fn smoke_scale_point(rows: usize, repeats: usize) -> Json {
    let table = census(rows);
    let query = ConjunctiveQuery::all("census");

    // Best-of-N like the explore phases below: a single cold build jitters
    // far too much for the CI regression gate to compare meaningfully.
    let mut atlas = None;
    let mut build_ms = f64::INFINITY;
    for _ in 0..repeats {
        let build_start = Instant::now();
        let engine = Atlas::builder(Arc::clone(&table))
            .config(AtlasConfig::fast())
            .build()
            .expect("valid config");
        build_ms = build_ms.min(build_start.elapsed().as_secs_f64() * 1000.0);
        atlas = Some(engine);
    }
    let atlas = atlas.expect("at least one build ran");

    let sequential = Atlas::builder(Arc::clone(&table))
        .config(AtlasConfig::fast().with_parallelism(1))
        .build()
        .expect("valid config");

    let parallel_result = best_explore(&atlas, &query, repeats);
    let sequential_result = best_explore(&sequential, &query, repeats);

    // The parallelism knob must not change the answer: same maps, same
    // attribute groups, same region populations, bit-identical scores.
    assert_eq!(parallel_result.num_maps(), sequential_result.num_maps());
    for (p, s) in parallel_result
        .maps
        .iter()
        .zip(sequential_result.maps.iter())
    {
        assert_eq!(p.map.source_attributes, s.map.source_attributes);
        assert_eq!(p.map.region_counts(), s.map.region_counts());
        assert_eq!(p.score.to_bits(), s.score.to_bits());
    }

    let profile = atlas.profile_stats();
    assert_eq!(
        profile.misses, 0,
        "whole-table smoke explorations must be pure profile hits"
    );

    Json::object(vec![
        ("rows", Json::from(rows)),
        ("build_ms", ms(build_ms)),
        ("explore", timings_value(&parallel_result.timings)),
        ("explore_seq", timings_value(&sequential_result.timings)),
        ("maps", Json::from(parallel_result.num_maps())),
    ])
}

/// The default-configuration scale point: `AtlasConfig::default()` is the
/// paper's own setting (two-way median cuts, composition merge), so this is
/// the point that times order-statistic selection, composed regions and —
/// through the filtered explore, whose working set misses the profile —
/// subset summaries. Phase keys carry a `default_full_` / `default_filter_`
/// prefix so the gate's by-name lookup cannot confuse them with the fast
/// points'.
fn smoke_default_point(rows: usize, repeats: usize) -> Json {
    let table = census(rows);
    let atlas = Atlas::builder(table)
        .config(AtlasConfig::default())
        .build()
        .expect("valid config");
    let filter_sql = "SELECT * FROM census WHERE age BETWEEN 30 AND 50";
    let filter = atlas_query::parse_query(filter_sql).expect("filter parses");
    let full = best_explore(&atlas, &ConjunctiveQuery::all("census"), repeats);
    let filtered = best_explore(&atlas, &filter, repeats);

    let mut pairs = vec![
        ("rows".to_string(), Json::from(rows)),
        ("config".to_string(), Json::from("default")),
        ("filter".to_string(), Json::from(filter_sql)),
        (
            "filter_rows".to_string(),
            Json::from(filtered.working_set_size),
        ),
    ];
    pairs.extend(timings_fields("default_full_", &full.timings));
    pairs.extend(timings_fields("default_filter_", &filtered.timings));
    Json::object(pairs)
}

/// Minor page faults this process has taken so far: `minflt`, field 10 of
/// `/proc/self/stat` (every thread's). `None` where there is no procfs.
fn minor_faults() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Field 2, the command name, may hold spaces; no field after it does.
    let after_name = stat.get(stat.rfind(')')? + 1..)?;
    after_name.split_whitespace().nth(7)?.parse().ok()
}

/// Minor page faults per warmed whole-table explore of the census at `rows`,
/// under the default and the fast configuration: the pages an explore's
/// full-length selections fault in. Reported, not gated; `null` off Linux.
fn smoke_minor_faults(rows: usize, explores: usize) -> Json {
    let table = census(rows);
    let query = ConjunctiveQuery::all("census");
    let mut fields = Vec::new();
    for (name, config) in [
        ("default", AtlasConfig::default()),
        ("fast", AtlasConfig::fast()),
    ] {
        let atlas = Atlas::builder(Arc::clone(&table))
            .config(config)
            .build()
            .expect("valid config");
        let explore = || drop(atlas.explore(&query).expect("exploration succeeds"));
        explore();
        explore();
        let before = minor_faults();
        (0..explores).for_each(|_| explore());
        let per_explore = match (before, minor_faults()) {
            (Some(before), Some(after)) => Json::Num((after - before) as f64 / explores as f64),
            _ => Json::Null,
        };
        fields.push((name, per_explore));
    }
    Json::object(fields)
}

/// The sky-survey scale point (ROADMAP item 1a): eight near-unique `Float`
/// columns, the class of table no census point reaches. Both configurations,
/// whole table and one filter, phases split like [`smoke_default_point`];
/// every key carries an `sdss_<config>_` prefix so the gate's by-name lookup
/// cannot confuse it with a census point.
fn smoke_sdss_point(rows: usize, repeats: usize) -> Json {
    let table = Arc::new(atlas_datagen::SdssGenerator::with_rows(rows, 2013).generate());
    let filter_sql = "SELECT * FROM photo_obj WHERE mag_r BETWEEN 15 AND 20";
    let filter = atlas_query::parse_query(filter_sql).expect("filter parses");
    let mut pairs = vec![
        ("rows".to_string(), Json::from(rows)),
        ("dataset".to_string(), Json::from("sdss")),
        ("filter".to_string(), Json::from(filter_sql)),
        (
            "filter_rows".to_string(),
            Json::from(
                atlas_query::evaluate(&filter, &table)
                    .expect("filter evaluates")
                    .count(),
            ),
        ),
    ];
    // Building profiles the table and reads no configuration: one figure.
    let mut build_ms = f64::INFINITY;
    for (name, config) in [
        ("fast", AtlasConfig::fast()),
        ("default", AtlasConfig::default()),
    ] {
        let (config_build_ms, atlas) = best_of_ms(repeats, || {
            Atlas::builder(Arc::clone(&table))
                .config(config.clone())
                .build()
                .expect("valid config")
        });
        build_ms = build_ms.min(config_build_ms);
        let full = best_explore(&atlas, &ConjunctiveQuery::all("photo_obj"), repeats);
        let filtered = best_explore(&atlas, &filter, repeats);
        pairs.extend(timings_fields(&format!("sdss_{name}_full_"), &full.timings));
        pairs.extend(timings_fields(
            &format!("sdss_{name}_filter_"),
            &filtered.timings,
        ));
    }
    pairs.push(("sdss_build_ms".to_string(), ms(build_ms)));
    Json::object(pairs)
}

/// The best wall-clock of `repeats` runs of `f`, in milliseconds, together
/// with the last value `f` produced (every run computes the same answer).
fn best_of_ms<T>(repeats: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..repeats {
        let start = Instant::now();
        let value = f();
        best = best.min(start.elapsed().as_secs_f64() * 1000.0);
        out = Some(value);
    }
    (best, out.expect("at least one run"))
}

/// Per-kernel timings for the word-parallel partition kernels (PR 9) against
/// the one-row-at-a-time scalar reference that `ATLAS_FORCE_SCALAR=1`
/// selects: `select_ranges` over the integer `age` column, `select_in_groups`
/// over the string `education` column (4 values on `u8` lanes since PR 23),
/// and the contingency word fold over their region bitmaps. Each figure is the best of `repeats` runs, and the
/// two paths' outputs are asserted bit-identical before anything is reported.
///
/// The summary scan under every cut is timed beside them: whole-column
/// `column_stats` of `age` and `height_cm` (few distinct values: counted
/// summaries) and of a near-unique float (a plain distinct set), plus one
/// `Median` `cut_attribute` of `age` over a scattered half of the rows — the
/// re-cut a filtered or composed explore repeats per region.
///
/// Since PR 22 a sealed numeric column with few distinct values holds
/// dictionary codes, so every numeric point above measures **coded** lanes
/// (`age`: `u8`, `height_cm`: `u16`). Each gets a `_plain_` twin over the same
/// rows in an unsealed lone column — what the kernel cost before, and still
/// costs on columns that stay plain — plus: the two-way partition at a 23 %
/// selection (`select_ranges_23pct_*`) and the statistics walk of `education`
/// and `sex` at the same selection (`column_stats_*_23pct_ms`: few-valued
/// parts, counted by entry masks), the span compare alone at both code
/// widths (`span_mask_*`), `select_ranges` over a plain near-unique float at
/// 6 / 12 / 23 / 50 % density (the measurement behind `RANGE_DENSE_LANES`),
/// the seal pass per column (`seal_*_ms`), and what each census column weighs
/// per row plain and sealed (`bytes_per_row`). The wire frames of a
/// distributed explore ride along (`frame_*`, see [`smoke_frames`]).
fn smoke_kernels(rows: usize, repeats: usize) -> Json {
    let table = census(rows);
    let sel = table.full_selection();
    let age = table.column("age").expect("census has age");
    let education = table.column("education").expect("census has education");

    // Four equal-width age bins, widened at the top so the maximum lands in
    // the last bin, and the education categories split into two groups.
    let (lo, hi) = age.numeric_min_max(&sel).expect("age is numeric");
    let width = (hi - lo).max(1.0) / 4.0;
    let bounds: Vec<(f64, f64)> = (0..4)
        .map(|k| {
            let upper = if k == 3 {
                hi + 1.0
            } else {
                lo + (k + 1) as f64 * width
            };
            (lo + k as f64 * width, upper)
        })
        .collect();
    let mut groups: Vec<Vec<String>> = vec![Vec::new(), Vec::new()];
    for (i, (name, _)) in education
        .categories_by_frequency(&sel)
        .into_iter()
        .enumerate()
    {
        groups[i % 2].push(name);
    }

    let (ranges_ms, ranges) = best_of_ms(repeats, || {
        with_kernel_path(KernelPath::WordParallel, || {
            age.select_ranges(&sel, &bounds)
        })
    });
    let (ranges_scalar_ms, ranges_ref) = best_of_ms(repeats, || {
        with_kernel_path(KernelPath::Scalar, || age.select_ranges(&sel, &bounds))
    });
    assert_eq!(ranges, ranges_ref, "select_ranges must be bit-identical");

    let (groups_ms, grouped) = best_of_ms(repeats, || {
        with_kernel_path(KernelPath::WordParallel, || {
            education.select_in_groups(&sel, &groups)
        })
    });
    let (groups_scalar_ms, grouped_ref) = best_of_ms(repeats, || {
        with_kernel_path(KernelPath::Scalar, || {
            education.select_in_groups(&sel, &groups)
        })
    });
    assert_eq!(
        grouped, grouped_ref,
        "select_in_groups must be bit-identical"
    );

    // A two-value column: each group is one code, so a code span.
    let sex = table.column("sex").expect("census has sex");
    let sexes: Vec<Vec<String>> = sex.dictionary().into_iter().map(|v| vec![v]).collect();
    let span_groups_ms = best_of_ms(repeats, || sex.select_in_groups(&sel, &sexes)).0;

    // The same partition over a dictionary of 200 codes, its two groups
    // interleaved: no group is a run of codes, so the kernel gathers a region
    // slot per lane (as it does for `education`; a two-value column's groups
    // are code spans).
    let wide = wide_dictionary(rows, WIDE_DICTIONARY_CODES);
    let wide_column = wide.column("c").expect("one column");
    let wide_groups: Vec<Vec<String>> = (0..2)
        .map(|g| {
            let codes = (g..WIDE_DICTIONARY_CODES).step_by(2);
            codes.map(|code| format!("v{code}")).collect()
        })
        .collect();
    let (wide_ms, wide_grouped) = best_of_ms(repeats, || {
        with_kernel_path(KernelPath::WordParallel, || {
            wide_column.select_in_groups(&sel, &wide_groups)
        })
    });
    let (wide_scalar_ms, wide_ref) = best_of_ms(repeats, || {
        with_kernel_path(KernelPath::Scalar, || {
            wide_column.select_in_groups(&sel, &wide_groups)
        })
    });
    assert_eq!(
        wide_grouped, wide_ref,
        "select_in_groups must be bit-identical over 200 codes"
    );

    let ra: Vec<&Bitmap> = ranges.iter().collect();
    let rb: Vec<&Bitmap> = grouped.iter().collect();
    let (contingency_ms, fold) = best_of_ms(repeats, || {
        with_kernel_path(KernelPath::WordParallel, || {
            ContingencyTable::from_selections(&ra, &rb)
        })
    });
    let (contingency_scalar_ms, fold_ref) = best_of_ms(repeats, || {
        with_kernel_path(KernelPath::Scalar, || {
            ContingencyTable::from_selections(&ra, &rb)
        })
    });
    assert_eq!(fold, fold_ref, "contingency fold must be bit-identical");

    let stats_ms = |table: &atlas_columnar::Table, column: &str| {
        let all = table.full_selection();
        best_of_ms(repeats, || {
            table.column_stats(column, &all).expect("column")
        })
        .0
    };
    let near_unique = wide_numeric(rows, 1);
    let half = Bitmap::from_fn(rows, |row| {
        (row as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 63 == 0
    });
    let (median_cut_ms, cut) = best_of_ms(repeats, || {
        let all = ConjunctiveQuery::all("census");
        cut_attribute(&table, &half, &all, "age", &CutConfig::default()).expect("age is a column")
    });
    assert_eq!(cut.map(|map| map.num_regions()), Some(2));
    // The walk that cut starts with: what a composition saves per region it
    // derives instead.
    let stats_half_ms = best_of_ms(repeats, || {
        table.column_stats("age", &half).expect("age is a column")
    })
    .0;

    // The same rows in unsealed lone columns: plain lanes.
    let height = table.column("height_cm").expect("census has height_cm");
    let (age_plain, height_plain) = (plain_copy(&age), plain_copy(&height));
    let age_plain_view = ColumnView::of_column("age", &age_plain);
    let height_plain_view = ColumnView::of_column("height_cm", &height_plain);
    let view_stats_ms = |view: &ColumnView<'_>| best_of_ms(repeats, || view.stats(&sel)).0;
    let (ranges_plain_ms, ranges_plain) =
        best_of_ms(repeats, || age_plain_view.select_ranges(&sel, &bounds));
    assert_eq!(ranges, ranges_plain, "coded and plain lanes must agree");

    // The paper's two-way cut at the 23 % the filtered explore selects, and
    // the span compare by itself: two spans over every word of the table.
    let two_way = |view: &ColumnView<'_>, sel: &Bitmap| {
        let (lo, hi) = view.numeric_min_max(sel).expect("numeric column");
        let mid = (lo + hi) / 2.0;
        vec![(lo, mid), (mid + 1e-9, hi)]
    };
    let at_23pct = scattered(rows, 23);
    let age_halves = two_way(&age, &sel);
    let height_halves = two_way(&height, &sel);
    let (ranges_23_ms, coded_23) =
        best_of_ms(repeats, || age.select_ranges(&at_23pct, &age_halves));
    let (ranges_23_plain_ms, plain_23) = best_of_ms(repeats, || {
        age_plain_view.select_ranges(&at_23pct, &age_halves)
    });
    assert_eq!(
        coded_23, plain_23,
        "coded and plain lanes must agree at 23 %"
    );
    // The statistics walk a filtered explore repeats per column, over two
    // few-valued string columns (2 and 4 entries: counted by entry masks).
    let stats_23pct_ms = |column: &str| {
        best_of_ms(repeats, || {
            table.column_stats(column, &at_23pct).expect("column")
        })
        .0
    };
    let span_u8_ms = best_of_ms(repeats, || age.select_ranges(&sel, &age_halves)).0;
    let span_u16_ms = best_of_ms(repeats, || height.select_ranges(&sel, &height_halves)).0;
    let span_plain_ms = best_of_ms(repeats, || {
        height_plain_view.select_ranges(&sel, &height_halves)
    })
    .0;

    // Plain lanes are what near-unique columns keep: the dense/sparse choice
    // of `ranges_word` (RANGE_DENSE_LANES) at four selection densities.
    let near_unique_view = near_unique.column("a0").expect("one column");
    let near_unique_halves = vec![(0.0, 499.999_999), (500.0, 1000.0)];
    let near_unique_points = [6u64, 12, 23, 50].map(|pct| {
        let sel = scattered(rows, pct);
        let point = best_of_ms(repeats, || {
            near_unique_view.select_ranges(&sel, &near_unique_halves)
        });
        (
            format!("select_ranges_near_unique_{pct}pct_ms"),
            ms(point.0),
        )
    });

    let speedup =
        |word: f64, scalar: f64| Json::Num((scalar / word.max(1e-9) * 10.0).round() / 10.0);
    let fields = vec![
        ("rows", Json::from(rows)),
        ("column_stats_age_ms", ms(stats_ms(&table, "age"))),
        (
            "column_stats_age_plain_ms",
            ms(view_stats_ms(&age_plain_view)),
        ),
        (
            "column_stats_height_cm_ms",
            ms(stats_ms(&table, "height_cm")),
        ),
        (
            "column_stats_height_cm_plain_ms",
            ms(view_stats_ms(&height_plain_view)),
        ),
        (
            "column_stats_near_unique_ms",
            ms(stats_ms(&near_unique, "a0")),
        ),
        ("median_cut_age_half_rows", Json::from(half.count())),
        ("column_stats_age_half_ms", ms(stats_half_ms)),
        ("median_cut_age_half_ms", ms(median_cut_ms)),
        ("select_ranges_ms", ms(ranges_ms)),
        ("select_ranges_plain_ms", ms(ranges_plain_ms)),
        ("select_ranges_scalar_ms", ms(ranges_scalar_ms)),
        (
            "select_ranges_speedup",
            speedup(ranges_ms, ranges_scalar_ms),
        ),
        ("select_in_groups_ms", ms(groups_ms)),
        ("select_in_groups_scalar_ms", ms(groups_scalar_ms)),
        (
            "select_in_groups_speedup",
            speedup(groups_ms, groups_scalar_ms),
        ),
        ("select_in_groups_span_ms", ms(span_groups_ms)),
        (
            "select_in_groups_wide_codes",
            Json::from(WIDE_DICTIONARY_CODES),
        ),
        ("select_in_groups_wide_ms", ms(wide_ms)),
        ("select_in_groups_wide_scalar_ms", ms(wide_scalar_ms)),
        (
            "select_in_groups_wide_speedup",
            speedup(wide_ms, wide_scalar_ms),
        ),
        ("contingency_ms", ms(contingency_ms)),
        ("contingency_scalar_ms", ms(contingency_scalar_ms)),
        (
            "contingency_speedup",
            speedup(contingency_ms, contingency_scalar_ms),
        ),
        ("select_ranges_23pct_rows", Json::from(at_23pct.count())),
        ("select_ranges_23pct_ms", ms(ranges_23_ms)),
        ("select_ranges_23pct_plain_ms", ms(ranges_23_plain_ms)),
        (
            "column_stats_education_23pct_ms",
            ms(stats_23pct_ms("education")),
        ),
        ("column_stats_sex_23pct_ms", ms(stats_23pct_ms("sex"))),
        ("span_mask_u8_ms", ms(span_u8_ms)),
        ("span_mask_u16_ms", ms(span_u16_ms)),
        ("span_mask_plain_ms", ms(span_plain_ms)),
    ];
    let mut fields: Vec<(String, Json)> = fields
        .into_iter()
        .map(|(key, value)| (key.to_string(), value))
        .collect();
    fields.extend(near_unique_points);
    let near_unique_values = near_unique_view.numeric_values_where(&sel);
    let age_regions = age.select_ranges(&sel, &age_halves);
    fields.extend(smoke_frames(
        &sel,
        &near_unique_values,
        &age_regions,
        repeats,
    ));
    fields.extend(smoke_seal(&table, &near_unique, repeats));
    fields.push(("bytes_per_row".to_string(), bytes_per_row(&table)));
    Json::object(fields)
}

/// The wire frames a distributed explore moves most of, out and back: the
/// whole-table bitmap (`bitmap_to_json(..).encode()`; `wire::parse` +
/// `bitmap_from_json`), the `/shard/select` partial of a two-way partition of
/// the working set `sel` (one region shipped, the other rebuilt from `sel`:
/// `select_partial_to_json(..).encode()`; `wire::parse` +
/// `select_partial_from_json`), and the numeric value run a `/shard/values`
/// reply carries (`wire::parse` + `parse_hex_f64s`). The decoded frames are
/// asserted equal to what was sent.
fn smoke_frames(
    sel: &Bitmap,
    values: &[f64],
    two_way: &[Bitmap],
    repeats: usize,
) -> Vec<(String, Json)> {
    use atlas_serve::wire::{self, frames};
    let (encode_ms, frame) = best_of_ms(repeats, || frames::bitmap_to_json(sel).encode());
    let (decode_ms, decoded) = best_of_ms(repeats, || {
        let json = wire::parse(&frame).expect("the frame parses");
        frames::bitmap_from_json(&json).expect("the frame decodes")
    });
    assert_eq!(&decoded, sel, "the bitmap frame round-trips");
    let (select_encode_ms, select) = best_of_ms(repeats, || {
        frames::select_partial_to_json(0, sel, two_way).encode()
    });
    let (select_decode_ms, regions) = best_of_ms(repeats, || {
        let json = wire::parse(&select).expect("the frame parses");
        frames::select_partial_from_json(&json, sel, two_way.len()).expect("the frame decodes")
    });
    assert_eq!(regions, two_way, "the select frame round-trips");
    let run = Json::object(vec![("values", Json::from(frames::hex_f64s(values)))]).encode();
    let (run_ms, decoded) = best_of_ms(repeats, || {
        let json = wire::parse(&run).expect("the frame parses");
        let hex = frames::get_str(&json, "values").expect("a value run");
        frames::parse_hex_f64s(hex).expect("the run decodes")
    });
    let bits = |values: &[f64]| values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&decoded), bits(values), "the value run round-trips");
    vec![
        ("frame_bitmap_bytes".to_string(), Json::from(frame.len())),
        ("frame_bitmap_encode_ms".to_string(), ms(encode_ms)),
        ("frame_bitmap_decode_ms".to_string(), ms(decode_ms)),
        ("frame_select_bytes".to_string(), Json::from(select.len())),
        ("frame_select_encode_ms".to_string(), ms(select_encode_ms)),
        ("frame_select_decode_ms".to_string(), ms(select_decode_ms)),
        ("frame_f64_run_values".to_string(), Json::from(values.len())),
        ("frame_f64_run_decode_ms".to_string(), ms(run_ms)),
    ]
}

/// A pseudo-random selection of about `pct` percent of `rows` rows.
fn scattered(rows: usize, pct: u64) -> Bitmap {
    Bitmap::from_fn(rows, |row| {
        ((row as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) % 100 < pct
    })
}

/// The rows of a table column in one unsealed column: plain lanes for a
/// numeric column, whatever its sealed parts hold.
fn plain_copy(view: &ColumnView<'_>) -> Column {
    let mut column = Column::new_empty(view.data_type());
    for (_, part) in view.parts() {
        for row in 0..part.len() {
            column.push(&part.value(row)).expect("same type");
        }
    }
    column
}

/// What sealing costs per column of `rows` values: one `Segment::new` over one
/// whole plain column of the census — `age` (`seal_encode_ms`, coded as `u8`),
/// `height_cm` (`seal_encode_u16_ms`) — and over a near-unique float
/// (`seal_bailout_ms`), which leaves the pass at its 1 025th distinct value.
fn smoke_seal(
    census: &atlas_columnar::Table,
    near_unique: &atlas_columnar::Table,
    repeats: usize,
) -> Vec<(String, Json)> {
    use atlas_columnar::{Field, Schema, Segment};
    let seal_ms = |view: ColumnView<'_>| {
        let schema =
            Schema::new(vec![Field::nullable(view.name(), view.data_type())]).expect("one field");
        let plain = plain_copy(&view);
        // The copies are made outside the timing; sealing consumes one each.
        let mut copies: Vec<Column> = (0..repeats).map(|_| plain.clone()).collect();
        let seal = || Segment::new(&schema, vec![copies.pop().expect("a copy per run")]);
        let (best, segment) = best_of_ms(repeats, seal);
        let sealed = segment.expect("the column matches its schema");
        (best, sealed.column(0).encoding().name())
    };
    let mut fields = Vec::new();
    for (key, encoding, view) in [
        ("seal_encode_ms", "u8", census.column("age")),
        ("seal_encode_u16_ms", "u16", census.column("height_cm")),
        ("seal_bailout_ms", "plain", near_unique.column("a0")),
    ] {
        let (best, sealed_as) = seal_ms(view.expect("a column of the fixture"));
        assert_eq!(sealed_as, encoding, "{key}");
        fields.push((key.to_string(), ms(best)));
    }
    fields
}

/// Per column of `table`: how many parts the seal stored under each encoding,
/// and the heap bytes per row of the plain (unsealed) column against the
/// sealed parts.
fn bytes_per_row(table: &atlas_columnar::Table) -> Json {
    let per_row = |bytes: usize| ms(bytes as f64 / table.num_rows().max(1) as f64);
    let columns = table.columns().into_iter().map(|view| {
        let mut parts: Vec<(String, usize)> = Vec::new();
        let mut sealed_bytes = 0;
        let mut plain_bytes = 0;
        for (_, part) in view.parts() {
            let name = part.encoding().name();
            match parts.iter_mut().find(|(seen, _)| seen == name) {
                Some((_, n)) => *n += 1,
                None => parts.push((name.to_string(), 1)),
            }
            sealed_bytes += part.heap_bytes();
            plain_bytes += plain_copy(&ColumnView::of_column(view.name(), part)).heap_bytes();
        }
        let fields = vec![
            (
                "parts".to_string(),
                Json::object(parts.into_iter().map(|(k, n)| (k, Json::from(n))).collect()),
            ),
            ("plain".to_string(), per_row(plain_bytes)),
            ("sealed".to_string(), per_row(sealed_bytes)),
        ];
        (view.name().to_string(), Json::object(fields))
    });
    Json::object(columns.collect())
}

const WIDE_DICTIONARY_CODES: usize = 200;

/// One string column of `rows` pseudo-random draws from `codes` values.
fn wide_dictionary(rows: usize, codes: usize) -> atlas_columnar::Table {
    use atlas_columnar::{DataType, Field, Schema, TableBuilder, Value};
    let schema = Schema::new(vec![Field::new("c", DataType::Str)]).expect("valid schema");
    let mut builder = TableBuilder::new("wide", schema);
    for row in 0..rows as u64 {
        let draw = row.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 32;
        let value = Value::Str(format!("v{}", draw % codes as u64));
        builder.push_row(&[value]).expect("row matches schema");
    }
    builder.build().expect("generated table is valid")
}

/// Segmented-storage smoke: streaming CSV ingest throughput. A census CSV is
/// rendered once in memory, then parsed through the streaming reader (rows
/// flow straight into the segment-sealing builder, so peak parser memory is
/// one segment + the inference prefix, not the file).
fn smoke_ingest(rows: usize) -> Json {
    let table = census(rows);
    let mut csv = Vec::new();
    atlas_columnar::csv::write_csv(&table, &mut csv).expect("csv renders");
    let opts = atlas_columnar::csv::CsvOptions::default();

    let start = Instant::now();
    let streamed =
        atlas_columnar::csv::read_csv("census", csv.as_slice(), None, &opts).expect("csv parses");
    let read_ms = start.elapsed().as_secs_f64() * 1000.0;
    assert_eq!(streamed.num_rows(), rows);

    let rows_per_s = rows as f64 / (read_ms / 1000.0);
    Json::object(vec![
        ("rows", Json::from(rows)),
        ("csv_bytes", Json::from(csv.len())),
        (
            "segment_rows",
            Json::from(atlas_columnar::default_segment_rows()),
        ),
        ("segments", Json::from(streamed.num_segments())),
        ("read_ms", ms(read_ms)),
        ("rows_per_s", Json::Num(rows_per_s.round())),
    ])
}

/// Segmented-storage smoke: preparing the engine for newly arrived data by
/// `Atlas::append` (profile only the new segment, merge) vs a from-scratch
/// rebuild over the extended table — the incremental-ingest acceptance
/// number. The two engines' answers are asserted identical at runtime.
fn smoke_append(rows: usize) -> Json {
    let table = census(rows);
    let query = ConjunctiveQuery::all("census");
    assert!(
        table.num_segments() >= 2,
        "append smoke needs a multi-segment table (segment_rows {} >= rows {rows}?)",
        atlas_columnar::default_segment_rows(),
    );
    let (head, tail) = table.segments().split_at(table.num_segments() - 1);
    let prefix = Arc::new(
        atlas_columnar::Table::from_segments("census", table.schema().clone(), head.to_vec())
            .expect("prefix table"),
    );
    let prepared = Atlas::builder(prefix)
        .config(AtlasConfig::fast())
        .build()
        .expect("valid config");

    let start = Instant::now();
    let appended = prepared
        .append(Arc::clone(&tail[0]))
        .expect("append succeeds");
    let append_ms = start.elapsed().as_secs_f64() * 1000.0;

    let start = Instant::now();
    let rebuilt = Atlas::builder(Arc::clone(&table))
        .config(AtlasConfig::fast())
        .build()
        .expect("valid config");
    let rebuild_ms = start.elapsed().as_secs_f64() * 1000.0;

    // Incremental preparation must not change the answer.
    let a = appended.explore(&query).expect("exploration succeeds");
    let b = rebuilt.explore(&query).expect("exploration succeeds");
    assert_eq!(a.num_maps(), b.num_maps());
    for (ra, rb) in a.maps.iter().zip(b.maps.iter()) {
        assert_eq!(ra.map.source_attributes, rb.map.source_attributes);
        assert_eq!(ra.map.region_counts(), rb.map.region_counts());
        assert_eq!(ra.score.to_bits(), rb.score.to_bits());
    }

    Json::object(vec![
        ("rows", Json::from(rows)),
        ("segments", Json::from(table.num_segments())),
        ("appended_rows", Json::from(tail[0].num_rows())),
        ("append_prepare_ms", ms(append_ms)),
        ("rebuild_prepare_ms", ms(rebuild_ms)),
        (
            "speedup",
            Json::Num((rebuild_ms / append_ms.max(1e-9) * 10.0).round() / 10.0),
        ),
    ])
}

/// Pull the first `"key": <number>` out of a parsed JSON report, walking
/// values depth-first in document order (the reports put the headline
/// 20k-row figure first).
fn find_number(value: &Json, key: &str) -> Option<f64> {
    match value {
        Json::Obj(pairs) => {
            for (k, v) in pairs {
                if k == key {
                    if let Some(x) = v.num() {
                        return Some(x);
                    }
                }
                if let Some(x) = find_number(v, key) {
                    return Some(x);
                }
            }
            None
        }
        Json::Arr(items) => items.iter().find_map(|v| find_number(v, key)),
        _ => None,
    }
}

/// Print a phase-by-phase delta table against the most recent previous
/// `BENCH_*.json`, so CI logs show the perf trajectory at a glance.
fn print_phase_deltas(previous_path: &str, previous: &Json, current: &Json) {
    println!("\nphase deltas vs {previous_path} (headline point of each phase):");
    println!("| phase | previous ms | current ms | delta |");
    println!("|-------|-------------|------------|-------|");
    for phase in GATED_PHASES {
        match (find_number(previous, phase), find_number(current, phase)) {
            (Some(before), Some(after)) if before > 0.0 => {
                let delta = (after - before) / before * 100.0;
                println!("| {phase} | {before:.3} | {after:.3} | {delta:+.1}% |");
            }
            (Some(before), Some(after)) => {
                println!("| {phase} | {before:.3} | {after:.3} | — |");
            }
            _ => println!("| {phase} | — | — | — |"),
        }
    }
}

/// The CI perf-trajectory smoke run: the prepared-engine census workload at
/// three scales (20k, 100k and 1M rows) under the fast configuration, each
/// explored both sequentially (`parallelism = 1`) and with the default
/// parallelism, plus one 1M-row point under the default configuration
/// (whole table and one filter), plus a 1M-row sky-survey point under both
/// configurations, plus the segmented-storage numbers — streaming CSV ingest throughput and
/// append-vs-rebuild preparation — plus per-kernel partition timings
/// (word-parallel vs the `ATLAS_FORCE_SCALAR` reference, 1M-row point
/// first so the gate reads it) — reported as JSON. When an earlier
/// `BENCH_*.json` is present, a phase-by-phase delta table is printed so CI
/// logs show the trajectory. With `gate`, any phase above the 1 ms noise
/// floor that regressed by more than the given percentage fails the run.
fn bench_smoke(path: &str, gate: Option<f64>, served: Option<&str>) {
    let scale_points = [(20_000usize, 5usize), (100_000, 5), (1_000_000, 2)];
    let scales: Vec<Json> = scale_points
        .iter()
        .map(|&(rows, repeats)| smoke_scale_point(rows, repeats))
        .collect();
    let default_config = smoke_default_point(1_000_000, 3);
    let core = Json::object(vec![(
        "explore_minor_faults",
        smoke_minor_faults(1_000_000, 10),
    )]);
    let sdss = smoke_sdss_point(1_000_000, 3);
    let ingest = smoke_ingest(200_000);
    let append = smoke_append(1_000_000);
    // 1M-row point first: `find_number` takes the first occurrence, so the
    // delta table and the gate track the large-scale kernel figures.
    let kernels = Json::array(vec![smoke_kernels(1_000_000, 5), smoke_kernels(100_000, 7)]);

    let mut sections = vec![
        ("experiment", Json::from("bench_smoke")),
        ("pr", pr_of(path).map_or(Json::Null, Json::from)),
        ("dataset", Json::from("census")),
        ("config", Json::from("fast")),
        (
            "parallelism",
            Json::from(AtlasConfig::default().parallelism),
        ),
        (
            "segment_rows",
            Json::from(atlas_columnar::default_segment_rows()),
        ),
        ("scale", Json::array(scales)),
        ("default_config", default_config),
        ("core", core),
        ("sdss", sdss),
        ("kernels", kernels),
        ("ingest", ingest),
        ("append", append),
    ];
    if let Some(runs) = served {
        sections.push(("served", served_section(runs)));
    }
    let report = Json::object(sections);
    let previous = write_report_with_deltas(path, &report);
    if let (Some(limit_pct), Some((previous_path, previous_report))) = (gate, previous) {
        let regressions = phase_regressions(&previous_report, &report, limit_pct);
        if !regressions.is_empty() {
            eprintln!("\nbench gate FAILED vs {previous_path} (limit {limit_pct:+.0}%):");
            for line in &regressions {
                eprintln!("  {line}");
            }
            std::process::exit(1);
        }
        println!("\nbench gate passed vs {previous_path} (limit {limit_pct:+.0}%)");
    }
}

/// The `served` section of a report: what a client of the server saw, parent
/// commit against this one. `path` names a file of JSON lines, one per run of
/// the `BENCHMARK.json` harness: `{"workload", "seed", "side": "parent" |
/// "change", "traced": bool, "record": <the run's last output line>}`. Per
/// workload, and per end-to-end metric `BENCHMARK.json` declares, the
/// untraced runs of the seeds both sides ran give each side's quartiles and
/// median and the number of pairs the change won; a traced pair, if there is
/// one, lists every per-layer metric side by side.
fn served_section(path: &str) -> Json {
    let read = |file: &str| std::fs::read_to_string(file).unwrap_or_else(|e| panic!("{file}: {e}"));
    let declared =
        atlas_serve::wire::parse(&read("BENCHMARK.json")).expect("BENCHMARK.json parses");
    let runs: Vec<Json> = read(path)
        .lines()
        .filter(|line| !line.trim().is_empty())
        .map(|line| atlas_serve::wire::parse(line).expect("one JSON run per line"))
        .collect();
    let text = |run: &Json, key: &str| run.get(key).and_then(Json::str).map(str::to_string);
    let traced = |run: &Json| run.get("traced").and_then(Json::bool) == Some(true);
    let seed = |run: &Json| {
        run.get("seed")
            .and_then(Json::num)
            .expect("a run has a seed")
    };
    let metric = |run: &Json, name: &str| {
        let metrics = run.get("record").and_then(|record| record.get("metrics"));
        metrics?.get(name)?.get("value")?.num()
    };

    let mut workloads: Vec<String> = Vec::new();
    for run in &runs {
        let workload = text(run, "workload").expect("a run names its workload");
        if !workloads.contains(&workload) {
            workloads.push(workload);
        }
    }
    let sections = workloads.iter().map(|workload| {
        let side = |name: &str, with_trace: bool| -> Vec<&Json> {
            let mut of_side: Vec<&Json> = runs
                .iter()
                .filter(|run| text(run, "workload").as_deref() == Some(workload))
                .filter(|run| text(run, "side").as_deref() == Some(name))
                .filter(|run| traced(run) == with_trace)
                .collect();
            of_side.sort_by(|a, b| seed(a).total_cmp(&seed(b)));
            of_side
        };
        let (parent, change) = (side("parent", false), side("change", false));
        let pairs: Vec<(&Json, &Json)> = parent
            .iter()
            .filter_map(|p| Some((*p, *change.iter().find(|c| seed(c) == seed(p))?)))
            .collect();
        let summary = |values: &[f64]| {
            let q = |p: f64| quantile(values, p).map_or(Json::Null, ms);
            Json::object(vec![("q1", q(0.25)), ("median", q(0.5)), ("q3", q(0.75))])
        };
        let failed = |of_side: Vec<&Json>| {
            let steps = of_side.into_iter().map(|run| {
                let record = run.get("record").expect("a run has a record");
                assert_eq!(record.get("correct").and_then(Json::bool), Some(true));
                record.get("failed").and_then(Json::num).expect("failed")
            });
            Json::Num(steps.sum())
        };
        let metrics = declared
            .get("end_to_end")
            .and_then(Json::items)
            .expect("end_to_end");
        let metrics = metrics.iter().map(|decl| {
            let name = decl.get("name").and_then(Json::str).expect("metric name");
            let lower = decl.get("better").and_then(Json::str) == Some("lower");
            let values: Vec<(f64, f64)> = pairs
                .iter()
                .filter_map(|(p, c)| Some((metric(p, name)?, metric(c, name)?)))
                .collect();
            let wins = values
                .iter()
                .filter(|&&(p, c)| if lower { c < p } else { c > p })
                .count();
            let (p, c): (Vec<f64>, Vec<f64>) = values.into_iter().unzip();
            let fields = vec![
                ("unit", decl.get("unit").cloned().unwrap_or(Json::Null)),
                ("better", decl.get("better").cloned().unwrap_or(Json::Null)),
                ("parent", summary(&p)),
                ("change", summary(&c)),
                ("change_better_pairs", Json::from(wins)),
            ];
            (name.to_string(), Json::object(fields))
        });
        let mut fields = vec![
            ("workload", Json::from(workload.as_str())),
            ("pairs", Json::from(pairs.len())),
            (
                "seeds",
                Json::array(pairs.iter().map(|(p, _)| Json::Num(seed(p))).collect()),
            ),
            (
                "failed_steps",
                Json::object(vec![
                    ("parent", failed(pairs.iter().map(|pair| pair.0).collect())),
                    ("change", failed(pairs.iter().map(|pair| pair.1).collect())),
                ]),
            ),
            ("metrics", Json::object(metrics.collect())),
        ];
        if let (Some(p), Some(c)) = (side("parent", true).first(), side("change", true).first()) {
            let layers = declared
                .get("per_layer")
                .and_then(Json::items)
                .expect("per_layer");
            let layers = layers.iter().filter_map(|decl| {
                let name = decl.get("name").and_then(Json::str)?;
                let both = vec![
                    ("parent", ms(metric(p, name)?)),
                    ("change", ms(metric(c, name)?)),
                ];
                Some((name.to_string(), Json::object(both)))
            });
            fields.push(("traced_seed", Json::Num(seed(p))));
            fields.push(("traced", Json::object(layers.collect())));
        }
        Json::object(fields)
    });
    Json::object(vec![
        (
            "source",
            Json::from(
                "BENCHMARK.json harness, --seconds 30, one process per run, sides alternating",
            ),
        ),
        ("workloads", Json::array(sections.collect())),
    ])
}

/// The PR number a report file is named after (`BENCH_PR15.json` → 15);
/// `None` for any other name (CI writes `BENCH_CI.json`).
fn pr_of(path: &str) -> Option<usize> {
    std::path::Path::new(path)
        .file_name()?
        .to_str()?
        .strip_prefix("BENCH_PR")?
        .strip_suffix(".json")?
        .parse()
        .ok()
}

/// The phases the delta table and the regression gate look at — the headline
/// (first-found) figure for each: the 20k-row point for the fast-config
/// explore phases, the 1M-row default-config point for the `default_*`
/// phases, the 1M-row sky-survey point for the `sdss_*` ones, the 1M-row
/// point for the per-kernel partition and summary-scan timings and the wire
/// frames (their report section lists 1M first). A phase one of the two
/// reports lacks is skipped, so a report gates cleanly against one written
/// before a phase existed.
const GATED_PHASES: [&str; 34] = [
    "query_ms",
    "candidates_ms",
    "clustering_ms",
    "merge_ms",
    "rank_ms",
    "total_ms",
    "build_ms",
    "default_full_candidates_ms",
    "default_full_merge_ms",
    "default_full_total_ms",
    "default_filter_candidates_ms",
    "default_filter_merge_ms",
    "default_filter_total_ms",
    "select_ranges_ms",
    "select_ranges_plain_ms",
    "seal_encode_ms",
    "select_in_groups_ms",
    "select_in_groups_wide_ms",
    "sdss_build_ms",
    "sdss_fast_full_total_ms",
    "sdss_fast_filter_total_ms",
    "sdss_default_full_total_ms",
    "sdss_default_filter_total_ms",
    "contingency_ms",
    "column_stats_age_ms",
    "column_stats_height_cm_ms",
    "column_stats_near_unique_ms",
    "column_stats_age_half_ms",
    "median_cut_age_half_ms",
    "frame_bitmap_encode_ms",
    "frame_bitmap_decode_ms",
    "frame_select_encode_ms",
    "frame_select_decode_ms",
    "frame_f64_run_decode_ms",
];

/// Noise floor for the regression gate: phases faster than this in the
/// previous report are too jittery for a percentage comparison to mean
/// anything on shared CI hardware.
const GATE_NOISE_FLOOR_MS: f64 = 1.0;

/// Phases that regressed by more than `limit_pct` percent, as printable
/// lines. Sub-floor phases are skipped.
fn phase_regressions(previous: &Json, current: &Json, limit_pct: f64) -> Vec<String> {
    let mut failures = Vec::new();
    for phase in GATED_PHASES {
        if let (Some(before), Some(after)) =
            (find_number(previous, phase), find_number(current, phase))
        {
            if before < GATE_NOISE_FLOOR_MS {
                continue;
            }
            let delta = (after - before) / before * 100.0;
            if delta > limit_pct {
                failures.push(format!(
                    "{phase}: {before:.3} ms -> {after:.3} ms ({delta:+.1}%)"
                ));
            }
        }
    }
    failures
}

/// The most recent committed `BENCH_*.json` whose `"experiment"` field
/// matches — so a bench-smoke report only ever deltas (and gates) against an
/// earlier bench-smoke report, never a load- or dist-smoke one. The report's
/// own basename is excluded so a run never compares against its own output.
fn previous_report(own_name: &str, experiment: &str) -> Option<(String, Json)> {
    let mut names: Vec<String> = std::fs::read_dir(".")
        .ok()
        .into_iter()
        .flatten()
        .filter_map(|entry| entry.ok())
        .map(|entry| entry.file_name().to_string_lossy().into_owned())
        .filter(|name| name.starts_with("BENCH_") && name.ends_with(".json") && *name != own_name)
        .collect();
    // Newest first: length-before-lexicographic so BENCH_PR10.json outranks
    // BENCH_PR9.json once PR numbers reach double digits.
    names.sort_by_key(|name| std::cmp::Reverse((name.len(), name.clone())));
    names.into_iter().find_map(|name| {
        let parsed = std::fs::read_to_string(&name)
            .ok()
            .and_then(|text| atlas_serve::wire::parse(&text).ok())?;
        (parsed.get("experiment").and_then(Json::str) == Some(experiment)).then_some((name, parsed))
    })
}

/// Write a report, print it, and print the phase-delta table against the
/// most recent previous same-experiment `BENCH_*.json`. Returns the previous
/// report used (if any) so callers can gate against it.
fn write_report_with_deltas(path: &str, report: &Json) -> Option<(String, Json)> {
    let own_name = std::path::Path::new(path)
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| path.to_string());
    let experiment = report.get("experiment").and_then(Json::str).unwrap_or("");
    let previous = previous_report(&own_name, experiment);

    let text = report.pretty();
    std::fs::write(path, &text).expect("bench report is writable");
    println!("wrote {path}:");
    print!("{text}");
    if let Some((previous_path, previous_report)) = &previous {
        print_phase_deltas(previous_path, previous_report, report);
    }
    previous
}

/// The trace-smoke harness: a two-shard distributed explore with tracing on,
/// the reassembled span tree validated, and the spans exported as Chrome
/// trace-event JSON (open in Perfetto or `chrome://tracing`).
fn trace_smoke(path: &str) {
    // Four default segments, so both shards hold work.
    const ROWS: usize = 200_000;
    atlas_obs::set_enabled(true);
    let config = AtlasConfig::fast().with_parallelism(2);
    let table = census(ROWS);
    let query = ConjunctiveQuery::all("census");

    let mut handles = Vec::new();
    let mut addrs = Vec::new();
    for _ in 0..2 {
        let mut registry = Registry::new();
        registry
            .add_table(
                "census",
                Arc::clone(&table),
                DatasetOptions {
                    config: config.clone(),
                    cache_capacity: 0,
                },
            )
            .expect("census registers");
        let handle = Server::start(registry, ServeConfig::default().with_threads(2))
            .expect("server binds an ephemeral port");
        addrs.push(handle.addr().to_string());
        handles.push(handle);
    }
    let coordinator = Coordinator::connect(&addrs, "census", config, Duration::from_secs(60))
        .expect("coordinator connects");

    // Everything before this root (server boot, the metadata probes) is
    // noise; clear the ring so the explore surely fits.
    atlas_obs::tracer().clear();
    let root = atlas_obs::span_root("trace-smoke");
    let trace_id = root
        .context()
        .map(|ctx| ctx.trace_id)
        .expect("tracing is enabled");
    let result = coordinator.explore(&query).expect("distributed explore");
    drop(root);
    assert!(!result.maps.is_empty(), "the explore must produce maps");
    for handle in handles {
        handle.shutdown();
    }

    let spans = atlas_obs::tracer().trace(trace_id);
    assert!(!spans.is_empty(), "the trace must hold spans");

    // Every pipeline phase must appear exactly where the issue pins it.
    for phase in [
        "phase.query",
        "phase.candidates",
        "phase.clustering",
        "phase.merge",
        "phase.rank",
    ] {
        assert!(
            spans.iter().any(|s| s.name == phase),
            "span {phase} missing from the reassembled trace"
        );
    }
    let kernel_events = spans.iter().filter(|s| s.name == "kernel.dispatch").count();
    assert!(
        kernel_events > 0,
        "no kernel-path event made it into the trace"
    );
    for shard in ["0", "1"] {
        assert!(
            spans
                .iter()
                .any(|s| s.name == "shard.call" && s.attr("shard") == Some(shard)),
            "no shard.call span for shard {shard}"
        );
    }

    // Structural validation: one root, every parent present and enclosing
    // its children (no unclosed spans can exist — spans record on close).
    let by_id: std::collections::HashMap<u64, &atlas_obs::SpanRecord> =
        spans.iter().map(|s| (s.span_id, s)).collect();
    let mut roots = 0usize;
    for span in &spans {
        match by_id.get(&span.parent_id) {
            None => roots += 1,
            Some(parent) => {
                assert!(
                    parent.start_us <= span.start_us && span.end_us() <= parent.end_us(),
                    "span {} [{}..{}] escapes its parent {} [{}..{}]",
                    span.name,
                    span.start_us,
                    span.end_us(),
                    parent.name,
                    parent.start_us,
                    parent.end_us()
                );
            }
        }
    }
    assert_eq!(roots, 1, "the trace must reassemble into a single tree");

    // The Chrome export must be well-formed JSON with one complete ("ph":
    // "X") event per span.
    let chrome = atlas_obs::chrome_trace_json(&spans);
    let parsed = atlas_serve::wire::parse(&chrome).expect("chrome trace JSON parses");
    let events = parsed
        .get("traceEvents")
        .and_then(Json::items)
        .expect("traceEvents array");
    assert_eq!(events.len(), spans.len(), "one trace event per span");
    for event in events {
        assert_eq!(event.get("ph").and_then(Json::str), Some("X"));
        assert!(event.get("name").and_then(Json::str).is_some());
        assert!(event.get("ts").is_some() && event.get("dur").is_some());
    }
    std::fs::write(path, &chrome).expect("trace file writes");
    println!(
        "trace-smoke: {} spans ({} kernel events) in one tree; chrome trace written to {path}",
        spans.len(),
        kernel_events
    );
}
