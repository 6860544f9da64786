//! Bit-identity of the gathered explore: an explore of a working set of at
//! most an eighth of the table runs over a compact copy of its rows
//! ([`atlas_columnar::Table::gather`]), and must answer exactly what the
//! same explore over the table answers — score bits, region SQL, counts and
//! selection words. `TABLE_PATH` forces the table path on this thread.
//! The released form — a composition's last level counted, not partitioned
//! — must answer what the expanded one does, released, on both paths.

use crate::config::{AtlasConfig, ExploreOptions, MergeStrategy};
use crate::engine::{Atlas, MapResult, TABLE_PATH};
use atlas_columnar::{Bitmap, DataType, Field, Schema, Table, TableBuilder, Value};
use atlas_query::{ConjunctiveQuery, Predicate};
use std::sync::Arc;

/// `f` with every explore on this thread run over the table.
fn on_the_table<R>(f: impl FnOnce() -> R) -> R {
    TABLE_PATH.with(|forced| forced.set(true));
    let out = f();
    TABLE_PATH.with(|forced| forced.set(false));
    out
}

/// Two answers are the same, field for field, timings aside.
fn assert_same(a: &MapResult, b: &MapResult, what: &str) {
    assert_eq!(a.working_set_size, b.working_set_size, "{what}");
    assert_eq!(a.working_set, b.working_set, "{what}");
    assert_eq!(a.skipped_attributes, b.skipped_attributes, "{what}");
    assert_eq!(a.num_maps(), b.num_maps(), "{what}");
    for (ra, rb) in a.maps.iter().zip(&b.maps) {
        assert_eq!(ra.score.to_bits(), rb.score.to_bits(), "{what}");
        assert_eq!(ra.map.source_attributes, rb.map.source_attributes, "{what}");
        assert_eq!(ra.map.num_regions(), rb.map.num_regions(), "{what}");
        for (qa, qb) in ra.map.regions.iter().zip(&rb.map.regions) {
            let sql = atlas_query::to_sql(&qa.query);
            assert_eq!(sql, atlas_query::to_sql(&qb.query), "{what}");
            assert_eq!(qa.count(), qb.count(), "{what}: {sql}");
            assert_eq!(qa.holds_rows(), qb.holds_rows(), "{what}: {sql}");
            assert_eq!(qa.selection.len(), qb.selection.len(), "{what}: {sql}");
            assert_eq!(qa.selection.words(), qb.selection.words(), "{what}: {sql}");
        }
    }
}

/// The configurations every case runs under: both merges, one and two
/// threads.
fn configs() -> Vec<AtlasConfig> {
    let mut out = Vec::new();
    for merge in [MergeStrategy::Composition, MergeStrategy::Product] {
        for threads in [1, 2] {
            let config = AtlasConfig {
                merge,
                ..AtlasConfig::default()
            };
            out.push(config.with_parallelism(threads));
        }
    }
    out
}

/// An explore of `query` gathered and over the table, the same.
fn check_query(atlas: &Atlas, query: &ConjunctiveQuery, what: &str) -> MapResult {
    let gathered = atlas.explore(query).unwrap();
    let table = on_the_table(|| atlas.explore(query)).unwrap();
    assert_same(&gathered, &table, what);
    gathered
}

/// The same for an explicit working set.
fn check_selection(atlas: &Atlas, working: &Bitmap, what: &str) -> MapResult {
    let query = ConjunctiveQuery::all(atlas.table().name());
    let gathered = atlas.explore_selection(&query, working.clone()).unwrap();
    let table = on_the_table(|| atlas.explore_selection(&query, working.clone())).unwrap();
    assert_same(&gathered, &table, what);
    gathered
}

/// A table of `rows` rows in segments of `segment_rows`: an identifier, a
/// scattering bucket, a coded numeric column, a plain float column with
/// NULLs, and two string columns — one with NULLs, one whose first segment
/// lists `violet` before `blue` while every later segment meets `blue`
/// first.
fn table(rows: usize, segment_rows: usize) -> Table {
    let schema = Schema::new(vec![
        Field::new("id", DataType::Int),
        Field::new("bucket", DataType::Int),
        Field::new("level", DataType::Int),
        Field::new("size", DataType::Float),
        Field::new("color", DataType::Str),
        Field::new("tag", DataType::Str),
    ])
    .unwrap();
    let mut builder = TableBuilder::new("t", schema).with_segment_rows(segment_rows);
    for i in 0..rows {
        let color = if i < segment_rows {
            ["violet", "blue"][i % 2]
        } else {
            ["blue", "violet", "green"][(i / 3) % 3]
        };
        let size = (i % 7 != 0).then(|| ((i * 37) % 1013) as f64 / 3.0 + (i % 3) as f64);
        let tag = (i % 5 != 0).then(|| ["p", "q"][(i * 13 / 7) % 2]);
        builder
            .push_row(&[
                Value::Int(i as i64),
                Value::Int(((i * 7919) % 97) as i64),
                Value::Int((i % 5 + (i / 700) % 3) as i64),
                size.map_or(Value::Null, Value::Float),
                Value::Str(color.into()),
                tag.map_or(Value::Null, |t| Value::Str(t.into())),
            ])
            .unwrap();
    }
    builder.build().unwrap()
}

#[test]
fn gathered_drills_answer_what_the_table_answers() {
    // 1000-row segments put part edges inside a 64-row word.
    let table = Arc::new(table(8_000, 1_000));
    let queries = [
        // Scattered over every segment but the first.
        ConjunctiveQuery::all("t")
            .and(Predicate::range("bucket", 0.0, 11.0))
            .and(Predicate::range("id", 1_000.0, 8_000.0)),
        // A few rows of two segments, with NULL-bearing columns.
        ConjunctiveQuery::all("t").and(Predicate::range("id", 1_010.0, 2_005.0)),
        // A categorical drill.
        ConjunctiveQuery::all("t")
            .and(Predicate::values("color", ["green"]))
            .and(Predicate::range("bucket", 0.0, 30.0)),
    ];
    for config in configs() {
        let atlas = Atlas::new(Arc::clone(&table), config.clone()).unwrap();
        for query in &queries {
            let what = format!("{} under {config:?}", atlas_query::to_sql(query));
            let result = check_query(&atlas, query, &what);
            assert!(result.working_set_size * 8 <= 8_000, "{what} is gathered");
        }
    }
}

#[test]
fn a_category_first_met_in_a_missed_segment_keeps_its_place() {
    // Rows 1000.. cycle blue, violet, green in runs of three, so a run of
    // violet and one of blue tie; the first segment, which lists violet
    // first, holds no row of the working set.
    let table = Arc::new(table(8_000, 1_000));
    let working = Bitmap::from_indices(8_000, (1_002..1_011).filter(|i| (i / 3) % 3 != 2));
    let wider = Bitmap::from_indices(8_000, (1_000..1_900).filter(|i| (i / 3) % 3 != 2));
    for config in configs() {
        let atlas = Atlas::new(Arc::clone(&table), config.clone()).unwrap();
        let color = atlas.table().column("color").unwrap();
        let counts = color.category_counts(&working);
        assert_eq!(
            counts[0],
            ("violet".to_string(), 3),
            "global first appearance"
        );
        assert_eq!(counts[1], ("blue".to_string(), 3), "tied");
        check_selection(&atlas, &working, &format!("tie under {config:?}"));
        check_selection(&atlas, &wider, &format!("wider under {config:?}"));
    }
}

#[test]
fn the_distinct_value_counter_degrades_only_through_a_missed_segment() {
    // The first segment's dictionary alone holds 1 100 values, so the
    // statistics of `code` over any working set stop counting, though the
    // working set's own rows hold three.
    let schema = Schema::new(vec![
        Field::new("code", DataType::Str),
        Field::new("x", DataType::Int),
        Field::new("y", DataType::Int),
    ])
    .unwrap();
    let mut builder = TableBuilder::new("u", schema).with_segment_rows(1_200);
    for i in 0..9_600 {
        let code = if i < 1_100 {
            format!("c{i}")
        } else {
            ["a", "b", "c"][i % 3].to_string()
        };
        builder
            .push_row(&[
                Value::Str(code),
                Value::Int((i % 11) as i64),
                Value::Int((i % 13) as i64),
            ])
            .unwrap();
    }
    let table = Arc::new(builder.build().unwrap());
    let query = ConjunctiveQuery::all("u").and(Predicate::range("x", 0.0, 0.0));
    let working = Bitmap::from_fn(9_600, |i| i >= 1_200 && i % 11 == 0);
    for config in configs() {
        let atlas = Atlas::new(Arc::clone(&table), config.clone()).unwrap();
        let stats = atlas.table().column_stats("code", &working).unwrap();
        assert!(stats.category_counts.is_none(), "the counter degraded");
        check_selection(&atlas, &working, &format!("{config:?}"));
        check_query(&atlas, &query, &format!("query under {config:?}"));
    }
}

#[test]
fn working_sets_at_and_past_an_eighth_answer_alike() {
    let table = Arc::new(table(8_000, 1_000));
    for config in configs() {
        let atlas = Atlas::new(Arc::clone(&table), config.clone()).unwrap();
        for size in [1_000, 1_001] {
            let working = Bitmap::from_fn(8_000, |i| i % 8 == 3 || i == 4_004);
            let working = Bitmap::from_indices(8_000, working.iter_ones().take(size));
            assert_eq!(working.count(), size);
            check_selection(&atlas, &working, &format!("{size} rows under {config:?}"));
        }
    }
}

#[test]
fn an_appended_table_gathers_its_new_segment_too() {
    // The prefix's segments are 1000 rows, the appended one 640 rows of
    // plain floats; the working set reaches into the appended rows.
    let whole = table(8_640, 1_000);
    let (head, tail) = whole.segments().split_at(whole.num_segments() - 1);
    let prefix = Table::from_segments("t", whole.schema().clone(), head.to_vec()).unwrap();
    for config in configs() {
        let atlas = Atlas::new(Arc::new(prefix.clone()), config.clone())
            .unwrap()
            .append(Arc::clone(&tail[0]))
            .unwrap();
        assert_eq!(atlas.table().num_rows(), 8_640);
        let query = ConjunctiveQuery::all("t").and(Predicate::range("bucket", 40.0, 50.0));
        check_query(&atlas, &query, &format!("appended under {config:?}"));
    }
}

#[test]
fn anytime_iterations_answer_as_they_did_over_the_table() {
    let table = Arc::new(table(8_000, 1_000));
    let options = ExploreOptions {
        budget: None,
        initial_sample: 200,
        growth_factor: 3.0,
        seed: 11,
    };
    let query = ConjunctiveQuery::all("t").and(Predicate::range("id", 0.0, 5_000.0));
    for config in configs() {
        let atlas = Atlas::new(Arc::clone(&table), config.clone()).unwrap();
        let gathered = atlas.explore_anytime(&query, options.clone()).unwrap();
        let table = on_the_table(|| atlas.explore_anytime(&query, options.clone())).unwrap();
        assert_eq!(gathered.iterations.len(), table.iterations.len());
        assert!(gathered.iterations.len() >= 3);
        for (a, b) in gathered.iterations.iter().zip(&table.iterations) {
            assert_eq!(a.sample_size, b.sample_size);
            assert_same(&a.result, &b.result, &format!("{} rows", a.sample_size));
        }
    }
}

#[test]
fn the_released_form_is_explore_then_release_field_for_field() {
    let table = Arc::new(table(8_000, 1_000));
    let queries = [
        ConjunctiveQuery::all("t"),
        ConjunctiveQuery::all("t").and(Predicate::range("id", 0.0, 5_000.0)),
        ConjunctiveQuery::all("t").and(Predicate::range("id", 1_010.0, 2_005.0)),
    ];
    for config in configs() {
        let atlas = Atlas::new(Arc::clone(&table), config.clone()).unwrap();
        for query in &queries {
            let what = format!("{} under {config:?}", atlas_query::to_sql(query));
            check_released(&atlas, query, &what);
        }
    }
}

/// `explore_released` is `explore` + `release_rows`, field for field, over
/// the table and (for a working set of at most an eighth) gathered.
fn check_released(atlas: &Atlas, query: &ConjunctiveQuery, what: &str) {
    for table_path in [false, true] {
        let on = |f: &dyn Fn() -> MapResult| if table_path { on_the_table(f) } else { f() };
        let released = on(&|| atlas.explore_released(query).unwrap());
        let mut explored = on(&|| atlas.explore(query).unwrap());
        explored.release_rows();
        let what = format!("{what}, table path forced: {table_path}");
        assert_same(&released, &explored, &what);
    }
}

/// The compositions the released form counts the last level of: clusters
/// of two members (the last level is the first re-cut, with its derived
/// largest region) and of three (the middle level partitioned), capped maps
/// (the remainder counted), three-way cuts, and clusters formed at any
/// distance (so categorical attributes end compositions too, in groups of
/// several values), at one and two threads.
fn composition_configs() -> Vec<AtlasConfig> {
    let mut out = Vec::new();
    for threads in [1, 2] {
        let base = AtlasConfig::default().with_parallelism(threads);
        let mut pairs = base.clone();
        pairs.clustering.max_cluster_size = 2;
        let mut three_way = base.clone();
        three_way.cut.num_splits = 3;
        let mut any_distance = three_way.clone();
        any_distance.clustering.distance_threshold = None;
        out.push(base.clone());
        out.push(pairs);
        out.push(three_way);
        out.push(any_distance);
        for cap in [2, 3] {
            out.push(AtlasConfig {
                max_regions_per_map: cap,
                ..base.clone()
            });
        }
    }
    out
}

#[test]
fn a_served_composition_counts_what_the_expanded_one_selects() {
    use atlas_datagen::{CensusConfig, CensusGenerator};
    let census = |null_fraction| {
        let config = CensusConfig {
            rows: 16_000,
            seed: 5,
            null_fraction,
            segment_rows: Some(1_000),
            ..CensusConfig::default()
        };
        Arc::new(CensusGenerator::new(config).generate())
    };
    let census_queries = [
        ConjunctiveQuery::all("census"),
        ConjunctiveQuery::all("census").and(Predicate::range("age", 25.0, 45.0)),
        ConjunctiveQuery::all("census").and(Predicate::range("age", 30.0, 32.0)),
    ];
    // `size` holds ~3 000 distinct floats, too many to count: its re-cuts
    // are partitioned on the released path too.
    let floats = [
        ConjunctiveQuery::all("t"),
        ConjunctiveQuery::all("t").and(Predicate::range("id", 1_010.0, 2_005.0)),
    ];
    let tables = [
        (census(0.0), &census_queries[..]),
        (census(0.05), &census_queries[..]),
        (Arc::new(table(8_000, 1_000)), &floats[..]),
    ];
    for (table, queries) in tables {
        for config in composition_configs() {
            let atlas = Atlas::new(Arc::clone(&table), config.clone()).unwrap();
            for query in queries {
                let what = format!("{} under {config:?}", atlas_query::to_sql(query));
                check_released(&atlas, query, &what);
            }
        }
    }
}

#[test]
fn a_gathered_explore_counts_its_walks_on_the_engine_profile() {
    let table = Arc::new(table(8_000, 1_000));
    let query = ConjunctiveQuery::all("t").and(Predicate::range("id", 1_010.0, 2_005.0));
    let atlas = Atlas::with_defaults(Arc::clone(&table)).unwrap();
    atlas.explore(&query).unwrap();
    let gathered = atlas.profile_stats();
    let fresh = Atlas::with_defaults(Arc::clone(&table)).unwrap();
    on_the_table(|| fresh.explore(&query)).unwrap();
    assert_eq!(gathered, fresh.profile_stats());
    assert!(gathered.misses > 0 && gathered.hits == 0);
}

#[test]
fn sparse_sampling_draws_what_a_shuffled_copy_drew() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    // The body the sparse draw replaced for small samples, kept as the
    // oracle for both of `sample_rows`' bodies.
    fn copied(rows: &[usize], k: usize, table_rows: usize, rng: &mut StdRng) -> Bitmap {
        let k = k.min(rows.len());
        let mut pool: Vec<usize> = rows.to_vec();
        for i in 0..k {
            let j = rng.gen_range(i..pool.len());
            pool.swap(i, j);
        }
        Bitmap::from_indices(table_rows, pool[..k].iter().copied())
    }
    // 3 333 rows: the sparse draw takes up to 26 of them, a copy more.
    let rows: Vec<usize> = (0..5_000).filter(|i| i % 3 != 1).collect();
    for (seed, k) in [
        (1, 0),
        (2, 1),
        (7, 20),
        (8, 26),
        (9, 27),
        (3, 100),
        (4, 3_000),
        (5, rows.len()),
        (6, 9_999),
    ] {
        let (mut a, mut b) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
        let sparse = crate::engine::sample_rows(&rows, k, 5_000, &mut a);
        assert_eq!(
            sparse,
            copied(&rows, k, 5_000, &mut b),
            "seed {seed}, k {k}"
        );
        assert_eq!(a.gen_range(0..u64::MAX), b.gen_range(0..u64::MAX));
    }
}
