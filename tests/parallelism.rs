//! The determinism contract of `AtlasConfig::parallelism`: a pool-backed
//! engine must return **bit-for-bit** the same ranked maps as the sequential
//! one, on arbitrary tables and for both merge operators.
//!
//! This is the acceptance test of the parallel-pipeline redesign — the knob
//! may only change *when* the answer arrives, never *what* it is.

use atlas::prelude::*;
use proptest::prelude::*;
use std::sync::Arc;

/// A random survey-shaped table: two numeric and two categorical attributes
/// with a planted numeric↔categorical dependency so clustering and merging
/// both have real work to do.
fn build_table(numeric: &[f64], categories: &[u8]) -> Arc<Table> {
    let schema = Schema::new(vec![
        Field::new("x", DataType::Float),
        Field::new("y", DataType::Float),
        Field::new("c", DataType::Str),
        Field::new("d", DataType::Str),
    ])
    .unwrap();
    let mut builder = TableBuilder::new("t", schema);
    for (i, &x) in numeric.iter().enumerate() {
        let c = categories[i % categories.len()] % 4;
        // y depends on c, d depends on x's sign: dependencies to discover.
        let y = f64::from(c) * 100.0 + x / 10.0;
        let d = if x >= 0.0 { "pos" } else { "neg" };
        builder
            .push_row(&[
                Value::Float(x),
                Value::Float(y),
                Value::Str(format!("cat{c}")),
                Value::Str(d.to_string()),
            ])
            .unwrap();
    }
    Arc::new(builder.build().unwrap())
}

/// Assert two explorations are bit-for-bit identical: same map order, same
/// attribute groups, same region queries and extents, same score bits.
fn assert_identical(a: &atlas::core::MapResult, b: &atlas::core::MapResult) {
    assert_eq!(a.num_maps(), b.num_maps());
    assert_eq!(a.working_set_size, b.working_set_size);
    assert_eq!(a.skipped_attributes, b.skipped_attributes);
    for (ra, rb) in a.maps.iter().zip(b.maps.iter()) {
        assert_eq!(ra.map.source_attributes, rb.map.source_attributes);
        assert_eq!(
            ra.score.to_bits(),
            rb.score.to_bits(),
            "scores must be bit-identical"
        );
        assert_eq!(ra.map.num_regions(), rb.map.num_regions());
        for (qa, qb) in ra.map.regions.iter().zip(rb.map.regions.iter()) {
            assert_eq!(to_sql(&qa.query), to_sql(&qb.query));
            assert_eq!(qa.selection, qb.selection);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn parallel_and_sequential_explores_are_bit_identical(
        numeric in proptest::collection::vec(-1000.0..1000.0f64, 16..300),
        categories in proptest::collection::vec(0u8..4, 4..32),
        merge_idx in 0usize..2,
        threads in 2usize..6,
    ) {
        let table = build_table(&numeric, &categories);
        let merge = [MergeStrategy::Product, MergeStrategy::Composition][merge_idx];
        let config = AtlasConfig { merge, ..AtlasConfig::default() };
        let sequential = Atlas::new(Arc::clone(&table), config.clone().with_parallelism(1))
            .unwrap();
        let parallel = Atlas::new(Arc::clone(&table), config.with_parallelism(threads))
            .unwrap();
        let query = ConjunctiveQuery::all("t");
        let a = sequential.explore(&query).unwrap();
        let b = parallel.explore(&query).unwrap();
        assert_identical(&a, &b);

        // Drill-down queries exercise the profile-miss path under the pool.
        let drill = ConjunctiveQuery::all("t").and(Predicate::range("x", -500.0, 500.0));
        let (a, b) = (sequential.explore(&drill), parallel.explore(&drill));
        assert_eq!(
            a.is_ok(),
            b.is_ok(),
            "one engine erred where the other succeeded: {a:?} vs {b:?}"
        );
        if let (Ok(a), Ok(b)) = (a, b) {
            assert_identical(&a, &b);
        }
    }
}

/// The same contract on a realistic generated dataset, across thread counts.
#[test]
fn census_explore_is_identical_across_thread_counts() {
    let table = Arc::new(CensusGenerator::with_rows(5_000, 11).generate());
    let query = ConjunctiveQuery::all("census");
    let reference = Atlas::new(
        Arc::clone(&table),
        AtlasConfig::default().with_parallelism(1),
    )
    .unwrap()
    .explore(&query)
    .unwrap();
    assert!(reference.num_maps() >= 1);
    for threads in [2usize, 3, 8] {
        let result = Atlas::new(
            Arc::clone(&table),
            AtlasConfig::default().with_parallelism(threads),
        )
        .unwrap()
        .explore(&query)
        .unwrap();
        assert_identical(&reference, &result);
    }
}

/// Composition re-cuts the regions of a cluster as pool tasks; which thread
/// cut which region must never show. The table has a three-attribute cluster
/// (`x`, `y` and `c` move together, so regions re-cut twice, and `c` is
/// constant inside most of them) and a two-attribute one whose first cut
/// isolates a single row — a region too small to re-cut, kept whole beside a
/// sibling whose local cut fails for another reason.
#[test]
fn composed_regions_are_identical_across_thread_counts() {
    let schema = Schema::new(vec![
        Field::new("x", DataType::Float),
        Field::new("y", DataType::Float),
        Field::new("c", DataType::Str),
        Field::new("p", DataType::Int),
        Field::new("q", DataType::Int),
    ])
    .unwrap();
    let mut builder = TableBuilder::new("t", schema);
    let rows = 600u64;
    for i in 0..rows {
        let x = (i.wrapping_mul(2_654_435_761) % 2000) as f64 - 1000.0;
        let p = if i == 17 { 9 } else { 5 };
        builder
            .push_row(&[
                Value::Float(x),
                Value::Float(2.0 * x + (i % 5) as f64),
                Value::Str(if x < 0.0 { "neg" } else { "pos" }.to_string()),
                Value::Int(p),
                Value::Int(p + 10),
            ])
            .unwrap();
    }
    let table = Arc::new(builder.build().unwrap());
    let explore = |threads: usize, query: &ConjunctiveQuery| {
        Atlas::new(
            Arc::clone(&table),
            AtlasConfig::default().with_parallelism(threads),
        )
        .unwrap()
        .explore(query)
        .unwrap()
    };

    let whole = ConjunctiveQuery::all("t");
    let reference = explore(1, &whole);
    let attributes_of = |result: &MapResult| -> Vec<Vec<String>> {
        let maps = result.maps.iter();
        maps.map(|ranked| ranked.map.source_attributes.clone())
            .collect()
    };
    assert!(
        attributes_of(&reference).contains(&vec!["x".to_string(), "y".into(), "c".into()]),
        "{:?}",
        attributes_of(&reference)
    );
    let lonely = reference
        .maps
        .iter()
        .find(|ranked| ranked.map.source_attributes == ["p", "q"])
        .expect("p and q cluster");
    assert_eq!(lonely.map.region_counts(), vec![rows - 1, 1]);

    let drill = whole.clone().and(Predicate::range("x", -400.0, 900.0));
    let drilled = explore(1, &drill);
    for threads in [2usize, 3, 8] {
        assert_identical(&reference, &explore(threads, &whole));
        assert_identical(&drilled, &explore(threads, &drill));
    }
}
