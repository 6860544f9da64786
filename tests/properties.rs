//! Property-based tests (proptest) on the core invariants of the system.
//!
//! Each property encodes something the paper states or the design relies on:
//!
//! * the CUT primitive always produces disjoint regions that cover every
//!   non-NULL tuple of the working set, for every strategy and split count;
//! * the Variation of Information is a metric on maps (symmetry, identity,
//!   triangle inequality);
//! * the distance matrix that derives contingency cells from region counts
//!   equals the one that counts every cell, bit for bit;
//! * the product operator's regions are exactly the non-empty pairwise
//!   intersections, so the covered count never changes;
//! * every region an explore returns is its query: its rows are the query
//!   evaluated over the table (the capped remainder aside, whose rows are the
//!   working set minus the kept regions, less the rows NULL in a cut
//!   attribute) — what lets a served answer drop its rows and a drill
//!   re-evaluate them;
//! * conjunctive queries round-trip through the SQL printer and parser;
//! * bitmap algebra behaves like set algebra.

use atlas::prelude::*;
use proptest::prelude::*;
use std::sync::Arc;

/// Build a small table from generated numeric and categorical values.
fn build_table(numeric: &[f64], categories: &[u8]) -> Table {
    let schema = Schema::new(vec![
        Field::new("x", DataType::Float),
        Field::new("c", DataType::Str),
    ])
    .unwrap();
    let mut builder = TableBuilder::new("t", schema);
    for (i, &x) in numeric.iter().enumerate() {
        let c = categories[i % categories.len()] % 4;
        builder
            .push_row(&[Value::Float(x), Value::Str(format!("cat{c}"))])
            .unwrap();
    }
    builder.build().unwrap()
}

/// A table whose `x` and `c` columns hold NULLs where `None`, beside a
/// NULL-free integer column `y`.
fn build_nullable_table(rows: &[(Option<f64>, i64, Option<u8>)]) -> Table {
    let schema = Schema::new(vec![
        Field::new("x", DataType::Float),
        Field::new("y", DataType::Int),
        Field::new("c", DataType::Str),
    ])
    .unwrap();
    let mut builder = TableBuilder::new("t", schema);
    for &(x, y, c) in rows {
        builder
            .push_row(&[
                x.map_or(Value::Null, Value::Float),
                Value::Int(y),
                c.map_or(Value::Null, |c| Value::Str(format!("cat{c}"))),
            ])
            .unwrap();
    }
    builder.build().unwrap()
}

fn numeric_strategy() -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(-1000.0..1000.0f64, 8..200)
}

fn category_strategy() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(0u8..4, 4..32)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn cut_always_partitions_the_working_set(
        numeric in numeric_strategy(),
        categories in category_strategy(),
        splits in 2usize..5,
        strategy_idx in 0usize..3,
    ) {
        let table = build_table(&numeric, &categories);
        let working = table.full_selection();
        let strategy = [
            NumericCutStrategy::EquiWidth,
            NumericCutStrategy::Median,
            NumericCutStrategy::KMeans { max_iterations: 20 },
        ][strategy_idx];
        let config = CutConfig {
            num_splits: splits,
            numeric: strategy,
            skip_identifiers: false,
            ..CutConfig::default()
        };
        for attribute in ["x", "c"] {
            let map = atlas::core::cut::cut_attribute(
                &table,
                &working,
                &ConjunctiveQuery::all("t"),
                attribute,
                &config,
            )
            .unwrap();
            if let Some(map) = map {
                prop_assert!(map.regions_are_disjoint());
                prop_assert!(map.num_regions() >= 2);
                prop_assert!(map.num_regions() <= splits);
                // Every row is covered (no NULLs in this table).
                prop_assert_eq!(map.covered_count(), table.num_rows());
                // Region queries and extents agree.
                for region in &map.regions {
                    let evaluated = atlas::query::evaluate(&region.query, &table).unwrap();
                    prop_assert_eq!(evaluated.to_indices(), region.selection.to_indices());
                }
            }
        }
    }

    #[test]
    fn product_preserves_coverage_and_disjointness(
        numeric in numeric_strategy(),
        categories in category_strategy(),
    ) {
        let table = build_table(&numeric, &categories);
        let working = table.full_selection();
        let config = CutConfig { skip_identifiers: false, ..CutConfig::default() };
        let q = ConjunctiveQuery::all("t");
        let mx = atlas::core::cut::cut_attribute(&table, &working, &q, "x", &config).unwrap();
        let mc = atlas::core::cut::cut_attribute(&table, &working, &q, "c", &config).unwrap();
        if let (Some(mx), Some(mc)) = (mx, mc) {
            let covered_before = table.num_rows();
            let product = atlas::core::product_maps(&[mx, mc], true).unwrap();
            prop_assert!(product.regions_are_disjoint());
            prop_assert_eq!(product.covered_count(), covered_before);
            prop_assert!(product.num_regions() <= 4);
            for region in &product.regions {
                prop_assert!(!region.is_empty());
            }
        }
    }

    #[test]
    fn composition_preserves_coverage(
        numeric in numeric_strategy(),
        categories in category_strategy(),
    ) {
        let table = build_table(&numeric, &categories);
        let working = table.full_selection();
        let config = CutConfig { skip_identifiers: false, ..CutConfig::default() };
        let q = ConjunctiveQuery::all("t");
        let mx = atlas::core::cut::cut_attribute(&table, &working, &q, "x", &config).unwrap();
        let mc = atlas::core::cut::cut_attribute(&table, &working, &q, "c", &config).unwrap();
        if let (Some(mx), Some(mc)) = (mx, mc) {
            // No profile and no pool: every region's statistics are walked.
            let profile = TableProfile::empty(table.num_rows());
            let ctx = PipelineContext {
                table: &table,
                profile: &profile,
                cut_config: &config,
                cut_strategy: &atlas::core::PaperCut,
                drop_empty_regions: true,
                pool: atlas::core::ThreadPool::sequential(),
            };
            let composed = atlas::core::CompositionMerge
                .merge(&ctx, &[mx, mc], &working)
                .unwrap()
                .unwrap();
            prop_assert!(composed.regions_are_disjoint());
            prop_assert_eq!(composed.covered_count(), table.num_rows());
        }
    }

    #[test]
    fn every_explored_region_is_its_query(
        rows in proptest::collection::vec(
            (
                proptest::option::weighted(0.85, -100.0..100.0f64),
                0i64..4,
                proptest::option::weighted(0.9, 0u8..5),
            ),
            16..160,
        ),
        nulls in any::<bool>(),
        negative_infinities in any::<bool>(),
        fast in any::<bool>(),
        composition in any::<bool>(),
        filtered in any::<bool>(),
        max_regions_per_map in 2usize..6,
        num_splits in 2usize..4,
    ) {
        // `y` and most of `c` follow `x`, so the candidate maps are alike
        // enough to cluster and merge. With `negative_infinities`, three in
        // four `x` cells are `-inf` (CSV ingest reads `-inf` into a Float
        // column), so a cut has a bound at `-inf`.
        let rows: Vec<_> = rows
            .into_iter()
            .enumerate()
            .map(|(i, (x, noise, c))| {
                let (x, c) = if nulls { (x, c) } else { (x.or(Some(0.5)), c.or(Some(0))) };
                let bucket = x.map_or(noise, |x| ((x + 100.0) / 17.0) as i64 + noise % 2);
                let c = c.map(|c| if c < 3 { (bucket / 4) as u8 } else { c });
                let x = x.map(|x| if negative_infinities && i % 4 != 0 { f64::NEG_INFINITY } else { x });
                (x, bucket, c)
            })
            .collect();
        let table = Arc::new(build_nullable_table(&rows));
        let base = if fast { AtlasConfig::fast() } else { AtlasConfig::default() };
        let config = AtlasConfig {
            merge: if composition { MergeStrategy::Composition } else { MergeStrategy::Product },
            cut: CutConfig { num_splits, skip_identifiers: false, ..base.cut.clone() },
            max_regions_per_map,
            max_maps: 16,
            ..base
        };
        let engine = Atlas::new(Arc::clone(&table), config).unwrap();
        let user_query = if filtered {
            ConjunctiveQuery::all("t").and(Predicate::range("y", 1.0, 9.0))
        } else {
            ConjunctiveQuery::all("t")
        };
        // A table with nothing cuttable in the working set has no maps.
        if let Ok(result) = engine.explore(&user_query) {
            let working = atlas::query::evaluate(&user_query, &table).unwrap();
            prop_assert_eq!(&result.working_set, &working);
            for ranked in &result.maps {
                let map = &ranked.map;
                for region in &map.regions {
                    prop_assert!(region.holds_rows());
                    if region.query != user_query {
                        // The query as a client posts it back: printed, parsed.
                        let sql = to_sql(&region.query);
                        for query in [region.query.clone(), parse_query(&sql).unwrap()] {
                            let evaluated = atlas::query::evaluate(&query, &table).unwrap();
                            prop_assert_eq!(
                                evaluated.to_indices(),
                                region.selection.to_indices(),
                                "region {}",
                                sql
                            );
                        }
                        continue;
                    }
                    // The capped remainder: the rest of the working set, less the
                    // rows the map leaves out because a cut attribute is NULL.
                    let rest = map
                        .regions
                        .iter()
                        .filter(|other| other.query != user_query)
                        .fold(working.clone(), |rest, kept| rest.and(&kept.selection.not()));
                    prop_assert_eq!(region.selection.and(&rest.not()).count(), 0);
                    let mut non_null = working.clone();
                    for attribute in &map.source_attributes {
                        let column = table.column(attribute).unwrap();
                        non_null.intersect_with(&Bitmap::from_fn(table.num_rows(), |row| {
                            !column.is_null(row)
                        }));
                    }
                    if non_null == working {
                        prop_assert_eq!(&region.selection, &rest);
                    }
                }
            }
        }
    }

    #[test]
    fn map_distance_is_a_metric(
        labels_a in proptest::collection::vec(0u32..4, 60),
        labels_b in proptest::collection::vec(0u32..4, 60),
        labels_c in proptest::collection::vec(0u32..4, 60),
    ) {
        use atlas::core::distance::metric_of;
        use atlas::stats::ContingencyTable;
        let metric = MapDistanceMetric::VariationOfInformation;
        let d = |a: &[u32], b: &[u32]| metric_of(&ContingencyTable::from_labels(a, b, 4, 4), metric);
        let d_ab = d(&labels_a, &labels_b);
        let d_ba = d(&labels_b, &labels_a);
        let d_ac = d(&labels_a, &labels_c);
        let d_bc = d(&labels_b, &labels_c);
        // Symmetry, non-negativity, identity, triangle inequality.
        prop_assert!((d_ab - d_ba).abs() < 1e-9);
        prop_assert!(d_ab >= 0.0);
        prop_assert!(d(&labels_a, &labels_a) < 1e-9);
        prop_assert!(d_ac <= d_ab + d_bc + 1e-9);
    }

    #[test]
    fn derived_distance_matrix_equals_the_every_cell_matrix(
        rows in proptest::collection::vec(
            (
                -1000.0..1000.0f64,
                0u8..6,
                proptest::option::weighted(0.8, -50i64..50),
            ),
            8..300,
        ),
        working_bits in proptest::collection::vec(any::<bool>(), 1..64),
        whole_table in any::<bool>(),
        splits in 2usize..5,
        median in any::<bool>(),
    ) {
        use atlas::columnar::{with_kernel_path, KernelPath};
        use atlas::core::{contingency_within, distance_matrix_from, distance_matrix_with_pool, ThreadPool};
        // `n` holds NULLs, so its map misses rows of the working set and
        // every pair it is in counts every cell.
        let schema = Schema::new(vec![
            Field::new("x", DataType::Float),
            Field::new("c", DataType::Str),
            Field::new("n", DataType::Int),
        ])
        .unwrap();
        let mut builder = TableBuilder::new("t", schema);
        for &(x, c, n) in &rows {
            let n = n.map_or(Value::Null, Value::Int);
            builder.push_row(&[Value::Float(x), Value::Str(format!("cat{c}")), n]).unwrap();
        }
        let table = builder.build().unwrap();
        let working = if whole_table {
            table.full_selection()
        } else {
            Bitmap::from_fn(rows.len(), |i| working_bits[i % working_bits.len()])
        };
        let config = CutConfig {
            num_splits: splits,
            numeric: if median { NumericCutStrategy::Median } else { NumericCutStrategy::EquiWidth },
            skip_identifiers: false,
            ..CutConfig::default()
        };
        let q = ConjunctiveQuery::all("t");
        let maps: Vec<DataMap> = ["x", "c", "n", "x", "c"]
            .iter()
            .filter_map(|attribute| {
                atlas::core::cut::cut_attribute(&table, &working, &q, attribute, &config).unwrap()
            })
            .collect();
        let working_rows = working.count();
        let (num_rows, metric) = (table.num_rows(), MapDistanceMetric::NormalizedVI);
        // The kernel path is pinned per thread, so the one-thread pool is the
        // run that holds the software popcount feeding the derived cells to
        // the per-row every-cell reference.
        for threads in [1usize, 2, 4] {
            let pool = ThreadPool::new(threads);
            for path in [KernelPath::WordParallel, KernelPath::Scalar] {
                let (derived, every_cell) = with_kernel_path(path, || {
                    (
                        distance_matrix_from(maps.len(), metric, &pool, |i, j| {
                            Ok::<_, std::convert::Infallible>(contingency_within(&maps[i], &maps[j], working_rows))
                        })
                        .unwrap(),
                        distance_matrix_with_pool(&maps, num_rows, metric, &pool),
                    )
                });
                for i in 0..maps.len() {
                    for j in 0..maps.len() {
                        prop_assert_eq!(
                            derived.get(i, j).to_bits(),
                            every_cell.get(i, j).to_bits(),
                            "cell ({i}, {j}), {threads} threads, {path:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn queries_round_trip_through_sql(
        lo in -100i64..100,
        width in 1i64..100,
        values in proptest::collection::btree_set("[a-z]{1,6}", 1..4),
    ) {
        let query = ConjunctiveQuery::all("t")
            .and(Predicate::range("x", lo as f64, (lo + width) as f64))
            .and(Predicate::values("c", values.iter().cloned()));
        let sql = to_sql(&query);
        let reparsed = parse_query(&sql).unwrap();
        prop_assert_eq!(reparsed, query);
    }

    #[test]
    fn bitmap_algebra_matches_set_algebra(
        a in proptest::collection::btree_set(0usize..300, 0..100),
        b in proptest::collection::btree_set(0usize..300, 0..100),
    ) {
        let bm_a = Bitmap::from_indices(300, a.iter().copied());
        let bm_b = Bitmap::from_indices(300, b.iter().copied());
        let expected_and: Vec<usize> = a.intersection(&b).copied().collect();
        let expected_or: Vec<usize> = a.union(&b).copied().collect();
        let expected_diff: Vec<usize> = a.difference(&b).copied().collect();
        prop_assert_eq!(bm_a.and(&bm_b).to_indices(), expected_and);
        prop_assert_eq!(bm_a.or(&bm_b).to_indices(), expected_or);
        prop_assert_eq!(bm_a.and(&bm_b.not()).to_indices(), expected_diff);
        prop_assert_eq!(bm_a.intersection_count(&bm_b), a.intersection(&b).count());
        prop_assert_eq!(bm_a.not().count(), 300 - a.len());
    }

    #[test]
    fn entropy_ranking_is_invariant_to_input_order(
        counts in proptest::collection::vec(1u64..500, 2..8),
    ) {
        // Entropy of a count vector does not depend on the order of counts,
        // and is maximised by the balanced distribution of the same size.
        let entropy = atlas::stats::entropy_of_counts(&counts);
        let mut reversed = counts.clone();
        reversed.reverse();
        prop_assert!((entropy - atlas::stats::entropy_of_counts(&reversed)).abs() < 1e-9);
        let balanced = vec![counts.iter().sum::<u64>() / counts.len() as u64 + 1; counts.len()];
        prop_assert!(entropy <= atlas::stats::entropy_of_counts(&balanced) + 1e-9);
    }
}

/// Non-proptest invariant: the engine end-to-end never returns overlapping
/// regions or empty maps, across a sweep of configurations.
#[test]
fn engine_invariants_across_configurations() {
    let table = Arc::new(CensusGenerator::with_rows(3_000, 1).generate());
    for merge in [MergeStrategy::Product, MergeStrategy::Composition] {
        for numeric in [
            NumericCutStrategy::EquiWidth,
            NumericCutStrategy::Median,
            NumericCutStrategy::KMeans { max_iterations: 25 },
        ] {
            for linkage in [
                atlas::core::Linkage::Single,
                atlas::core::Linkage::Complete,
                atlas::core::Linkage::Average,
            ] {
                let config = AtlasConfig {
                    merge,
                    cut: CutConfig {
                        numeric,
                        ..CutConfig::default()
                    },
                    clustering: atlas::core::ClusteringConfig {
                        linkage,
                        ..atlas::core::ClusteringConfig::default()
                    },
                    ..AtlasConfig::default()
                };
                let atlas_engine = Atlas::new(Arc::clone(&table), config).unwrap();
                let result = atlas_engine
                    .explore(&ConjunctiveQuery::all("census"))
                    .unwrap();
                assert!(result.num_maps() >= 1);
                for ranked in &result.maps {
                    assert!(ranked.map.num_regions() >= 2);
                    assert!(ranked.map.num_regions() <= 8);
                    assert!(ranked.map.regions_are_disjoint());
                    assert!(ranked.score.is_finite());
                }
            }
        }
    }
}
