//! The merge algebra behind distributed scatter-gather: the coordinator
//! folds per-shard partials — [`ColumnSummary`]s, profile segments — and
//! the fold must not care how the data was chunked or in which order the
//! pieces arrive.
//!
//! * `ColumnSummary::merge_from` is associative and order-invariant under
//!   arbitrary fold trees: the counting fields (non-NULL, NULL, exact
//!   distinct) and the extremes are *exactly* invariant.
//! * `TableProfile::build` on the whole table equals any prefix build
//!   extended segment-by-segment with `merge_segment` — stats bit-equal.
//! * The subtraction the other way: a composition that derives its largest
//!   region's statistics as the working set's minus the other regions'
//!   answers bit for bit what walking every region answers, and it derives
//!   exactly where the regions partition the working set.
//! * Folding runs of consecutive segments, then the runs in order — what a
//!   shard and the coordinator split between them — is folding the
//!   segments, summary parts and all.
//! * Every merge returns a cluster of one map unchanged, which lets the
//!   post-cut body move such a cluster through unmerged.

use atlas::columnar::{
    Bitmap, ColumnStats, ColumnSummary, DataType, Field, Schema, TableBuilder, Value,
};
use atlas::core::{
    generate_candidates, product_maps, CompositionMerge, CutConfig, CutStrategy, DataMap,
    MergePolicy, PaperCut, PipelineContext, ProductMerge, ProfileStats, Region, TableProfile,
    ThreadPool,
};
use atlas::datagen::CensusConfig;
use atlas::prelude::*;
use proptest::prelude::*;
use std::borrow::Cow;
use std::sync::Arc;

/// Summarise one chunk of optional floats (NULLs included) through the
/// public kernel path: a single-column table, full selection.
fn chunk_summary(chunk: &[Option<f64>]) -> ColumnSummary {
    let schema = Schema::new(vec![Field::new("x", DataType::Float)]).unwrap();
    let mut builder = TableBuilder::new("chunk", schema);
    for value in chunk {
        let value = match value {
            Some(v) => Value::Float(*v),
            None => Value::Null,
        };
        builder.push_row(&[value]).unwrap();
    }
    let table = builder.build().unwrap();
    let full = Bitmap::new_full(table.num_rows());
    table.column("x").unwrap().summary(&full)
}

/// Fold `parts` pairwise in the order dictated by `picks`: each step merges
/// two worklist entries into one, so the sequence of picks walks one
/// arbitrary binary fold tree.
fn fold_tree(parts: Vec<ColumnSummary>, picks: &[usize]) -> ColumnSummary {
    let mut worklist = parts;
    let mut step = 0;
    while worklist.len() > 1 {
        let a = picks.get(step).copied().unwrap_or(0) % worklist.len();
        let mut left = worklist.swap_remove(a);
        let b = picks.get(step + 1).copied().unwrap_or(0) % worklist.len();
        let right = worklist.swap_remove(b);
        left.merge_from(&right);
        worklist.push(left);
        step += 2;
    }
    worklist.pop().expect("at least one part")
}

/// Every field is an exact fold and must match exactly.
fn assert_stats_close(a: &ColumnStats, b: &ColumnStats) {
    assert_eq!(a.dtype, b.dtype);
    assert_eq!(a.non_null_count, b.non_null_count);
    assert_eq!(a.null_count, b.null_count);
    assert_eq!(a.distinct_count, b.distinct_count);
    assert_eq!(a.min, b.min, "min is an exact fold");
    assert_eq!(a.max, b.max, "max is an exact fold");
}

/// Split `values` at the (deduplicated, sorted) cut points.
fn chunks_of<T: Clone>(values: &[T], cuts: &[usize]) -> Vec<Vec<T>> {
    let mut bounds: Vec<usize> = cuts.iter().map(|c| c % (values.len() + 1)).collect();
    bounds.push(0);
    bounds.push(values.len());
    bounds.sort_unstable();
    bounds.dedup();
    bounds
        .windows(2)
        .map(|w| values[w[0]..w[1]].to_vec())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Any chunking, any fold tree: the merged summary describes the
    /// concatenated column. Values are drawn from a small lattice so
    /// duplicates (and thus a non-trivial exact distinct set) are common;
    /// code 40 stands for NULL.
    #[test]
    fn column_summary_merge_is_order_invariant(
        codes in proptest::collection::vec(0u8..41, 1..120),
        cuts in proptest::collection::vec(0usize..120, 0..8),
        picks in proptest::collection::vec(0usize..64, 32),
    ) {
        let values: Vec<Option<f64>> = codes
            .iter()
            .map(|&code| (code < 40).then(|| (f64::from(code) - 20.0) / 4.0))
            .collect();
        let whole = chunk_summary(&values);
        let parts: Vec<ColumnSummary> =
            chunks_of(&values, &cuts).iter().map(|c| chunk_summary(c)).collect();

        // Reference: the coordinator's canonical ascending fold from empty.
        let mut ascending = ColumnSummary::empty(DataType::Float);
        for part in &parts {
            ascending.merge_from(part);
        }
        // The ascending fold reproduces the unchunked summary's stats.
        assert_stats_close(&whole.to_stats(), &ascending.to_stats());

        // An arbitrary fold tree agrees with the ascending fold.
        let shuffled = fold_tree(parts, &picks);
        assert_stats_close(&ascending.to_stats(), &shuffled.to_stats());
    }

    /// `TableProfile::build` over the whole table is bit-identical to
    /// building over a prefix of segments and folding the rest in with
    /// `merge_segment` — the invariant `Atlas::append` (and the distributed
    /// coordinator's summary gather) stands on.
    #[test]
    fn profile_build_equals_segmentwise_merge(
        numeric in proptest::collection::vec(-1000.0..1000.0f64, 12..160),
        labels in proptest::collection::vec(0u8..5, 4..16),
        segment_rows in 4usize..40,
        prefix_len in 1usize..6,
    ) {
        let schema = Schema::new(vec![
            Field::new("x", DataType::Float),
            Field::new("c", DataType::Str),
        ])
        .unwrap();
        let mut builder = TableBuilder::new("t", schema.clone()).with_segment_rows(segment_rows);
        for (i, &x) in numeric.iter().enumerate() {
            let label = labels[i % labels.len()];
            builder
                .push_row(&[Value::Float(x), Value::Str(format!("l{label}"))])
                .unwrap();
        }
        let table = Arc::new(builder.build().unwrap());
        let segments = table.segments();
        let prefix_len = 1 + (prefix_len - 1) % segments.len();

        let full = TableProfile::build(&table);
        let prefix_table = Arc::new(atlas::columnar::Table::from_segments(
            "t",
            schema,
            segments[..prefix_len].to_vec(),
        ).unwrap());
        let mut folded = TableProfile::build(&prefix_table);
        for segment in &segments[prefix_len..] {
            folded = folded.merge_segment(segment);
        }

        prop_assert_eq!(full.num_rows(), folded.num_rows());
        for column in ["x", "c"] {
            let a = full.column(column).expect("profiled column");
            let b = folded.column(column).expect("profiled column");
            prop_assert_eq!(&a.stats, &b.stats, "stats of '{}' must be bit-equal", column);
        }
    }

    /// What a shard and the coordinator fold between them: each run of
    /// consecutive segments folded at the shard — a segment's own summary
    /// merged in, or the segment summarised straight into the run's, as a
    /// shard does for a segment selected whole or in part — shipped as
    /// parts, and the runs folded in order, is the left fold of the
    /// segments' own summaries, parts for parts. The tables mix NULLs into
    /// every column, strings from per-segment dictionaries under a
    /// selection (so dictionary values no selected row holds count zero),
    /// booleans, and numbers and strings drawn from up to 2 500 values, so
    /// some folds cross the 1 024 values a summary counts (on a segment, in
    /// a run, or only across runs) and some do not.
    #[test]
    fn folding_runs_of_segments_folds_the_segments(
        rows in 1usize..3_000,
        segment_rows in 64usize..1_400,
        spread in 1u64..2_500,
        null_pct in 0u64..30,
        keep_pct in 1u64..101,
        cuts in proptest::collection::vec(0usize..48, 0..6),
        seed in any::<u64>(),
    ) {
        let table = spread_table(rows, segment_rows, spread, null_pct, seed);
        let selected = |row: usize| mix(row as u64, seed ^ 7) % 100 < keep_pct;
        // One single-segment table per segment, and its selected rows.
        let segments: Vec<(Table, Bitmap)> = table
            .segments()
            .iter()
            .scan(0, |offset, segment| {
                let one = Table::from_segments("t", table.schema().clone(), vec![Arc::clone(segment)])
                    .unwrap();
                let start = *offset;
                *offset += one.num_rows();
                let sel = Bitmap::from_fn(one.num_rows(), |row| selected(start + row));
                Some((one, sel))
            })
            .collect();
        let summaries = |(one, sel): &(Table, Bitmap)| -> Vec<ColumnSummary> {
            one.columns().iter().map(|column| column.summary(sel)).collect()
        };
        let empty = || -> Vec<ColumnSummary> {
            table.columns().iter().map(|c| ColumnSummary::empty(c.data_type())).collect()
        };
        let fold = |acc: &mut Vec<ColumnSummary>, next: &[ColumnSummary]| {
            acc.iter_mut().zip(next).for_each(|(acc, next)| acc.merge_from(next));
        };
        // The reference: every segment's summary, merged in segment order.
        let mut by_segment = empty();
        for segment in &segments {
            fold(&mut by_segment, &summaries(segment));
        }
        // The runs: consecutive segments between sorted cut points.
        let indices: Vec<usize> = (0..segments.len()).collect();
        let mut by_run = empty();
        for run in chunks_of(&indices, &cuts) {
            let mut folded = empty();
            for &at in &run {
                if at % 2 == 0 {
                    fold(&mut folded, &summaries(&segments[at]));
                } else {
                    let (one, sel) = &segments[at];
                    for (acc, column) in folded.iter_mut().zip(one.columns()) {
                        for (offset, part) in column.parts() {
                            acc.accumulate(part, sel, offset);
                        }
                    }
                }
            }
            let shipped: Vec<ColumnSummary> = folded
                .iter()
                .map(|summary| ColumnSummary::from_parts(summary.to_parts()))
                .collect();
            fold(&mut by_run, &shipped);
        }
        for (a, b) in by_run.iter().zip(&by_segment) {
            prop_assert_eq!(a.to_parts(), b.to_parts());
        }
    }
}

/// A 64-bit mix of `x` under `salt` (splitmix64's finaliser).
fn mix(x: u64, salt: u64) -> u64 {
    let mut z = x ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `rows` rows in `segment_rows`-row segments of a float, an integer and a
/// string drawn from `spread` values each and a boolean, every column NULL
/// on about `null_pct` % of the rows; `seed` picks the draws.
fn spread_table(
    rows: usize,
    segment_rows: usize,
    spread: u64,
    null_pct: u64,
    seed: u64,
) -> Arc<Table> {
    let schema = Schema::new(vec![
        Field::nullable("x", DataType::Float),
        Field::nullable("n", DataType::Int),
        Field::nullable("s", DataType::Str),
        Field::nullable("b", DataType::Bool),
    ])
    .unwrap();
    let mut builder = TableBuilder::new("t", schema).with_segment_rows(segment_rows);
    for row in 0..rows as u64 {
        let draw = |column: u64| mix(row, seed ^ column) % spread;
        let null = |column: u64| mix(row, seed ^ (column << 32)) % 100 < null_pct;
        let value = |column: u64, value: Value| if null(column) { Value::Null } else { value };
        builder
            .push_row(&[
                value(1, Value::Float(draw(1) as f64 / 4.0 - 100.0)),
                value(2, Value::Int(draw(2) as i64 - 50)),
                value(3, Value::Str(format!("v{}", draw(3)))),
                value(4, Value::Bool(draw(4) % 2 == 0)),
            ])
            .unwrap();
    }
    Arc::new(builder.build().unwrap())
}

/// `PaperCut` without its statistics-reading half: it ignores what a
/// composition holds and calls `PaperCut` with `&mut None`, which walks every
/// region.
#[derive(Debug)]
struct WalkEveryRegion;

impl CutStrategy for WalkEveryRegion {
    fn name(&self) -> &str {
        "walk-every-region"
    }

    fn cut<'a>(
        &self,
        ctx: &PipelineContext<'a>,
        working: &Bitmap,
        parent_query: &ConjunctiveQuery,
        attribute: &str,
        _stats: &mut Option<Cow<'a, ColumnStats>>,
    ) -> atlas::core::Result<Option<DataMap>> {
        PaperCut.cut(ctx, working, parent_query, attribute, &mut None)
    }
}

/// Four attributes that depend on `x` and one that does not. With `nulls`,
/// each of the four dependent ones is NULL on its own eleventh of the rows.
fn dependent_table(rows: usize, nulls: bool) -> Arc<Table> {
    let schema = Schema::new(vec![
        Field::nullable("x", DataType::Int),
        Field::nullable("y", DataType::Float),
        Field::nullable("z", DataType::Str),
        Field::nullable("v", DataType::Int),
        Field::new("e", DataType::Str),
    ])
    .unwrap();
    let mut builder = TableBuilder::new("t", schema).with_segment_rows(1_000);
    for i in 0..rows {
        let x = (i * 37 % 101) as i64;
        let null = |k: usize| nulls && (i + k).is_multiple_of(11);
        let or_null = |k: usize, value: Value| if null(k) { Value::Null } else { value };
        builder
            .push_row(&[
                or_null(0, Value::Int(x)),
                or_null(1, Value::Float(x as f64 * 2.0 + (i * 13 % 7) as f64 / 10.0)),
                or_null(
                    2,
                    Value::Str(
                        if x + ((i % 5) as i64) < 52 {
                            "lo"
                        } else {
                            "hi"
                        }
                        .into(),
                    ),
                ),
                or_null(3, Value::Int(x / 10 + (i % 3) as i64)),
                Value::Str(["a", "b", "c"][i / 7 % 3].into()),
            ])
            .unwrap();
    }
    Arc::new(builder.build().unwrap())
}

/// Explore `sql` on `table` with the paper's cut and with
/// [`WalkEveryRegion`]: the answers must be bit-identical. Returns what each
/// engine's profile counted.
fn derive_and_walk(
    table: &Arc<Table>,
    config: &AtlasConfig,
    sql: &str,
) -> (ProfileStats, ProfileStats) {
    let query = parse_query(sql).unwrap();
    let deriving = Atlas::new(Arc::clone(table), config.clone()).unwrap();
    let walking = Atlas::builder(Arc::clone(table))
        .config(config.clone())
        .cut_strategy(WalkEveryRegion)
        .build()
        .unwrap();
    let (a, b) = (
        deriving.explore(&query).unwrap(),
        walking.explore(&query).unwrap(),
    );
    assert_eq!(a.num_maps(), b.num_maps(), "{sql}");
    for (ra, rb) in a.maps.iter().zip(&b.maps) {
        assert_eq!(ra.score.to_bits(), rb.score.to_bits(), "{sql}");
        assert_eq!(ra.map.source_attributes, rb.map.source_attributes);
        assert_eq!(ra.map.num_regions(), rb.map.num_regions());
        for (qa, qb) in ra.map.regions.iter().zip(&rb.map.regions) {
            assert_eq!(to_sql(&qa.query), to_sql(&qb.query), "{sql}");
            assert_eq!(qa.selection, qb.selection, "{sql}");
        }
    }
    let walked = walking.profile_stats();
    assert_eq!(
        walked.derived, 0,
        "a strategy that reads no statistics derives none"
    );
    (deriving.profile_stats(), walked)
}

/// Clusters of two, three and four maps, 1 / 2 / 8 threads, whole table and
/// a filter: deriving the largest region's statistics answers what walking
/// every region answers, for one walk fewer per composition. With NULLs in
/// every attribute a composition could start from, no first map partitions
/// the whole table, and every region is walked.
#[test]
fn composition_derives_what_walking_every_region_finds() {
    for nulls in [false, true] {
        let table = dependent_table(3_000, nulls);
        for members in [2usize, 3, 4] {
            let mut config = AtlasConfig {
                max_regions_per_map: 16,
                ..AtlasConfig::default()
            };
            config.clustering.max_cluster_size = members;
            for threads in [1, 2, 8] {
                let config = config.clone().with_parallelism(threads);
                let (derived, walked) = derive_and_walk(&table, &config, "SELECT * FROM t");
                let case = format!("nulls {nulls}, {members} members, {threads} threads");
                assert_eq!(derived.hits, walked.hits, "{case}");
                // Each derivation is one walk fewer, nothing else moves.
                assert_eq!(derived.misses + derived.derived, walked.misses, "{case}");
                assert_eq!(derived.derived > 0, !nulls, "{case}");
                derive_and_walk(&table, &config, "SELECT * FROM t WHERE e IN ('a', 'b')");
            }
        }
    }
}

/// The counts the composition's saving is made of, on the paper's own
/// configuration: a whole-table census explore walks the statistics of three
/// regions and derives three (walking all six before), and a filtered one
/// walks two and derives two (four before) beside the candidate cuts' seven.
/// With NULLs in the census, the compositions that start from a column with
/// NULLs walk every region.
#[test]
fn a_census_explore_derives_one_region_per_composition() {
    let census = |null_fraction| {
        Arc::new(
            CensusGenerator::new(CensusConfig {
                rows: 20_000,
                seed: 42,
                null_fraction,
                ..CensusConfig::default()
            })
            .generate(),
        )
    };
    let table = census(0.0);
    let config = AtlasConfig::default().with_parallelism(1);
    let (full, walked) = derive_and_walk(&table, &config, "SELECT * FROM census");
    assert_eq!(
        full,
        ProfileStats {
            hits: 7,
            misses: 3,
            derived: 3
        }
    );
    assert_eq!(walked.misses, 6);
    let filter = "SELECT * FROM census WHERE age BETWEEN 30 AND 50";
    let (filtered, walked) = derive_and_walk(&table, &config, filter);
    assert_eq!(
        filtered,
        ProfileStats {
            hits: 0,
            misses: 7 + 2,
            derived: 2
        }
    );
    assert_eq!(walked.misses, 7 + 4);

    // A cluster's first map is its first attribute in candidate order: listed
    // first, the two columns with NULLs start their compositions, and only
    // `education` ∘ `salary` derives.
    let nulls_first = AtlasConfig {
        attributes: Some(NULLS_FIRST.map(String::from).to_vec()),
        ..config
    };
    let (with_nulls, walked) = derive_and_walk(&census(0.05), &nulls_first, "SELECT * FROM census");
    assert_eq!(with_nulls.misses + with_nulls.derived, walked.misses);
    assert_eq!((with_nulls.misses, with_nulls.derived), (5, 1));
}

/// The census columns, the two with NULLs first.
const NULLS_FIRST: [&str; 7] = [
    "hours_per_week",
    "height_cm",
    "age",
    "sex",
    "education",
    "salary",
    "eye_color",
];

/// `cluster_merge_rank` moves a cluster of one map through unmerged, which
/// is sound because every merge returns a one-map cluster unchanged: the
/// product as a policy and in its standalone form, and the composition with
/// and without a profile, with and without dropping empty regions, on a map
/// that holds an empty region too.
#[test]
fn every_merge_returns_a_one_map_cluster_unchanged() {
    let cut_config = CutConfig::default();
    for nulls in [false, true] {
        let table = dependent_table(3_000, nulls);
        let working = table.full_selection();
        let query = parse_query("SELECT * FROM t").unwrap();
        let mut maps = generate_candidates(&table, &working, &query, None, &cut_config)
            .unwrap()
            .maps;
        assert!(maps.len() >= 4, "nulls {nulls}");
        let mut with_empty = maps[0].clone();
        with_empty.regions.push(Region::new(
            query.clone(),
            Bitmap::new_empty(table.num_rows()),
        ));
        maps.push(with_empty);
        let (no_profile, profile) = (
            TableProfile::empty(table.num_rows()),
            TableProfile::build(&table),
        );
        for drop_empty in [false, true] {
            let context = |profile| PipelineContext {
                table: &table,
                profile,
                cut_config: &cut_config,
                cut_strategy: &PaperCut,
                drop_empty_regions: drop_empty,
                pool: ThreadPool::sequential(),
            };
            let (ctx, walked) = (context(&profile), context(&no_profile));
            for map in &maps {
                let one = std::slice::from_ref(map);
                let merged = [
                    ("product_maps", product_maps(one, drop_empty)),
                    (
                        "CompositionMerge, no profile",
                        CompositionMerge.merge(&walked, one, &working).unwrap(),
                    ),
                    (
                        "ProductMerge",
                        ProductMerge.merge(&ctx, one, &working).unwrap(),
                    ),
                    (
                        "CompositionMerge",
                        CompositionMerge.merge(&ctx, one, &working).unwrap(),
                    ),
                ];
                for (merge, merged) in merged {
                    let case = format!("{merge}, nulls {nulls}, drop_empty {drop_empty}");
                    let merged = merged.unwrap_or_else(|| panic!("{case}: no map"));
                    assert_eq!(merged.source_attributes, map.source_attributes, "{case}");
                    assert_eq!(merged.num_regions(), map.num_regions(), "{case}");
                    for (a, b) in merged.regions.iter().zip(&map.regions) {
                        assert_eq!(to_sql(&a.query), to_sql(&b.query), "{case}");
                        assert_eq!(a.selection, b.selection, "{case}");
                        assert_eq!(a.count(), b.count(), "{case}");
                    }
                }
            }
        }
    }
}
