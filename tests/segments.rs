//! The segmentation contract of the storage engine: the segment layout is a
//! physical detail that must never change an answer, under any cut strategy
//! (every median is exact, so there is no exception).
//!
//! * Random tables split at **random segment boundaries** explore bit-for-bit
//!   identically to the single-segment table, at parallelism 1 and N — the
//!   acceptance property of the segmented-storage refactor.
//! * `Atlas::append` + incremental profile merge answers exactly like a
//!   from-scratch rebuild over the extended table.

use atlas::prelude::*;
use proptest::prelude::*;
use std::sync::Arc;

/// Build a survey-shaped table, sealing a segment after every row index
/// listed in `seals` (plus wherever `segment_rows` forces one).
fn build_table(
    numeric: &[f64],
    categories: &[u8],
    seals: &[usize],
    segment_rows: usize,
) -> Arc<Table> {
    build_tagged_table(numeric, categories, seals, segment_rows, None)
}

/// [`build_table`] with, if `tag` is given, a fifth string column `e` holding
/// `tag(row)`.
fn build_tagged_table(
    numeric: &[f64],
    categories: &[u8],
    seals: &[usize],
    segment_rows: usize,
    tag: Option<fn(usize) -> String>,
) -> Arc<Table> {
    let mut fields = vec![
        Field::new("x", DataType::Float),
        Field::new("y", DataType::Float),
        Field::new("c", DataType::Str),
        Field::new("d", DataType::Str),
    ];
    fields.extend(tag.map(|_| Field::new("e", DataType::Str)));
    let schema = Schema::new(fields).unwrap();
    let mut builder = TableBuilder::new("t", schema).with_segment_rows(segment_rows);
    for (i, &x) in numeric.iter().enumerate() {
        let c = categories[i % categories.len()] % 4;
        // y depends on c, d depends on x's sign: dependencies to discover.
        let y = f64::from(c) * 100.0 + x / 10.0;
        let d = if x >= 0.0 { "pos" } else { "neg" };
        let mut row = vec![
            Value::Float(x),
            Value::Float(y),
            Value::Str(format!("cat{c}")),
            Value::Str(d.to_string()),
        ];
        row.extend(tag.map(|tag| Value::Str(tag(i))));
        builder.push_row(&row).unwrap();
        if seals.contains(&i) {
            builder.seal_segment().unwrap();
        }
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
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// Random data, random segment boundaries, random segment sizes: explore
    /// output is identical to the single-segment table, sequentially and on
    /// a thread pool, for both merge operators — and drill-down queries (the
    /// profile-miss path, whose statistics fold across segments) agree too.
    #[test]
    fn explore_is_bit_identical_across_segment_layouts(
        numeric in proptest::collection::vec(-1000.0..1000.0f64, 16..260),
        categories in proptest::collection::vec(0u8..4, 4..32),
        seals in proptest::collection::vec(0usize..260, 0..6),
        segment_rows in 5usize..200,
        merge_idx in 0usize..2,
        threads in 2usize..5,
    ) {
        let reference = build_table(&numeric, &categories, &[], usize::MAX);
        let segmented = build_table(&numeric, &categories, &seals, segment_rows);
        prop_assert_eq!(reference.num_rows(), segmented.num_rows());

        let merge = [MergeStrategy::Product, MergeStrategy::Composition][merge_idx];
        let config = AtlasConfig { merge, ..AtlasConfig::default() };
        let query = ConjunctiveQuery::all("t");
        let single = Atlas::new(Arc::clone(&reference), config.clone().with_parallelism(1))
            .unwrap()
            .explore(&query)
            .unwrap();
        for parallelism in [1usize, threads] {
            let result = Atlas::new(
                Arc::clone(&segmented),
                config.clone().with_parallelism(parallelism),
            )
            .unwrap()
            .explore(&query)
            .unwrap();
            assert_identical(&single, &result);
        }

        // Subset working sets compute their statistics per segment and fold:
        // still identical (or they fail identically on a degenerate subset).
        let drill = ConjunctiveQuery::all("t").and(Predicate::range("x", -500.0, 500.0));
        let a = Atlas::new(Arc::clone(&reference), config.clone().with_parallelism(1))
            .unwrap()
            .explore(&drill);
        let b = Atlas::new(Arc::clone(&segmented), config.with_parallelism(threads))
            .unwrap()
            .explore(&drill);
        prop_assert_eq!(a.is_ok(), b.is_ok());
        if let (Ok(a), Ok(b)) = (a, b) {
            assert_identical(&a, &b);
        }
    }
}

/// Appending segments to a prepared engine answers exactly like rebuilding
/// from scratch — at the facade level, across several successive appends.
#[test]
fn successive_appends_equal_rebuilds() {
    let full = Arc::new(
        CensusGenerator::new(atlas::datagen::CensusConfig {
            rows: 3_000,
            seed: 23,
            segment_rows: Some(700),
            ..atlas::datagen::CensusConfig::default()
        })
        .generate(),
    );
    assert_eq!(full.num_segments(), 5);
    let query = ConjunctiveQuery::all("census");

    // Start from the first two segments, append the remaining three one by one.
    let prefix = Arc::new(
        Table::from_segments(
            "census",
            full.schema().clone(),
            full.segments()[..2].to_vec(),
        )
        .unwrap(),
    );
    let mut engine = Atlas::with_defaults(prefix).unwrap();
    let mut expected_rows = 1400;
    for segment in &full.segments()[2..] {
        engine = engine.append(Arc::clone(segment)).unwrap();
        expected_rows += segment.num_rows();
        assert_eq!(engine.table().num_rows(), expected_rows);
    }
    assert_eq!(expected_rows, 3_000);
    let rebuilt = Atlas::with_defaults(Arc::clone(&full)).unwrap();

    let a = engine.explore(&query).unwrap();
    let b = rebuilt.explore(&query).unwrap();
    assert_identical(&a, &b);

    // The anytime path rides the same profile: identical too.
    let options = ExploreOptions {
        budget: None,
        initial_sample: 400,
        growth_factor: 4.0,
        seed: 3,
    };
    let ia = engine.explore_anytime(&query, options.clone()).unwrap();
    let ib = rebuilt.explore_anytime(&query, options).unwrap();
    assert_eq!(ia.iterations.len(), ib.iterations.len());
    assert_identical(&ia.best().unwrap().result, &ib.best().unwrap().result);
}

/// The CSV streaming reader produces the same table (and the same maps) as
/// parsing in one gulp, whatever the segment size.
#[test]
fn streamed_csv_explores_identically() {
    let table = Arc::new(CensusGenerator::with_rows(2_000, 77).generate());
    let mut csv = Vec::new();
    atlas::columnar::csv::write_csv(&table, &mut csv).unwrap();
    let text = String::from_utf8(csv).unwrap();

    let opts = atlas::columnar::csv::CsvOptions::default();
    let one_gulp = atlas::columnar::csv::read_csv("census", text.as_bytes(), None, &opts).unwrap();
    let streamed = atlas::columnar::csv::read_csv(
        "census",
        text.as_bytes(),
        None,
        &atlas::columnar::csv::CsvOptions {
            segment_rows: Some(301),
            ..atlas::columnar::csv::CsvOptions::default()
        },
    )
    .unwrap();
    assert!(streamed.num_segments() >= 7);

    let query = ConjunctiveQuery::all("census");
    let a = Atlas::with_defaults(Arc::new(one_gulp))
        .unwrap()
        .explore(&query)
        .unwrap();
    let b = Atlas::with_defaults(Arc::new(streamed))
        .unwrap()
        .explore(&query)
        .unwrap();
    assert_identical(&a, &b);
}

/// One table whose segments hold the same columns under different encodings
/// — the first half of `x` and `y` draws from a dozen values (coded when
/// sealed on its own), the second half is near-unique (plain), and the
/// single-segment reference holds too many distinct values to code at all;
/// the string column `e` holds three values in the first half (byte codes)
/// and three hundred in the second (`u16` codes, as in the reference) —
/// explores bit-for-bit like that reference, whole table and drill-downs,
/// one of which narrows `e` to values whose codes differ in every part.
#[test]
fn explore_is_bit_identical_over_segments_that_mix_encodings() {
    use atlas::columnar::Encoding;
    let numeric: Vec<f64> = (0..1_200u64)
        .map(|i| {
            let draw = i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40;
            if i < 600 {
                (draw % 12) as f64 * 50.0 - 300.0
            } else {
                (draw % 2_000_000) as f64 / 1_000.0 - 1_000.0
            }
        })
        .collect();
    let categories = [0u8, 1, 2, 3, 1, 0, 2];
    let tag: fn(usize) -> String = |i| format!("tag{}", if i < 600 { i % 3 } else { i % 300 });
    let reference = build_tagged_table(&numeric, &categories, &[], usize::MAX, Some(tag));
    let mixed = build_tagged_table(&numeric, &categories, &[599], usize::MAX, Some(tag));
    let encodings = |table: &Table, column: &str| -> Vec<Encoding> {
        let view = table.column(column).unwrap();
        view.parts().map(|(_, part)| part.encoding()).collect()
    };
    assert_eq!(encodings(&reference, "x"), [Encoding::Plain]);
    assert_eq!(encodings(&mixed, "x"), [Encoding::CodedU8, Encoding::Plain]);
    assert_eq!(encodings(&reference, "e"), [Encoding::CodedU16]);
    assert_eq!(
        encodings(&mixed, "e"),
        [Encoding::CodedU8, Encoding::CodedU16]
    );

    let drill = ConjunctiveQuery::all("t").and(Predicate::range("x", -250.0, 400.0));
    let tags = ["tag2", "tag0", "tag299", "tag57", "tag1"];
    let tagged = ConjunctiveQuery::all("t").and(Predicate::values("e", tags));
    for merge in [MergeStrategy::Product, MergeStrategy::Composition] {
        let config = AtlasConfig {
            merge,
            ..AtlasConfig::default()
        };
        for query in [ConjunctiveQuery::all("t"), drill.clone(), tagged.clone()] {
            let single = Atlas::new(Arc::clone(&reference), config.clone().with_parallelism(1))
                .unwrap()
                .explore(&query)
                .unwrap();
            if query.predicate_on("e").is_some() {
                let cut_on_e = |ranked: &atlas::core::RankedMap| {
                    ranked.map.source_attributes.iter().any(|a| a == "e")
                };
                assert!(single.maps.iter().any(cut_on_e), "the narrowed `e` is cut");
            }
            for parallelism in [1usize, 3] {
                let engine = Atlas::new(
                    Arc::clone(&mixed),
                    config.clone().with_parallelism(parallelism),
                );
                assert_identical(&single, &engine.unwrap().explore(&query).unwrap());
            }
        }
    }
}
