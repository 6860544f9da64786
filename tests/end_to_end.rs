//! Cross-crate integration tests: the full pipeline from synthetic data
//! through the query language, the engine, and the explorer.

use atlas::prelude::*;
use std::sync::Arc;

#[test]
fn census_exploration_reproduces_the_figure_2_behaviour() {
    // The paper's running example: a survey with dependent attribute pairs.
    // Atlas must return several alternative maps of the same working set,
    // grouping dependent attributes together and respecting the readability
    // constraints of Section 2.
    let table = Arc::new(CensusGenerator::with_rows(8_000, 42).generate());
    let atlas = Atlas::with_defaults(Arc::clone(&table)).unwrap();
    let query = parse_query("SELECT * FROM census WHERE age BETWEEN 17 AND 90").unwrap();
    let result = atlas.explore(&query).unwrap();

    assert!(result.num_maps() >= 2, "several alternative maps expected");
    assert!(result.num_maps() <= 10, "less than a dozen maps");
    for ranked in &result.maps {
        assert!(ranked.map.num_regions() >= 2);
        assert!(ranked.map.num_regions() <= 8, "readability: ≤ 8 regions");
        assert!(
            ranked.map.max_predicates() <= 4,
            "user predicate + ≤ 3 new ones"
        );
        assert!(ranked.map.regions_are_disjoint());
    }

    // The planted dependency (education ↔ salary) must surface: whichever map
    // involves education also involves salary, and not the independent
    // distractor (eye colour).
    let education_map = result
        .maps
        .iter()
        .find(|m| m.map.source_attributes.iter().any(|a| a == "education"))
        .expect("a map about education");
    assert!(education_map
        .map
        .source_attributes
        .iter()
        .any(|a| a == "salary"));
    assert!(!education_map
        .map
        .source_attributes
        .iter()
        .any(|a| a == "eye_color"));
}

/// The region cap folds the smallest regions of a map into one remainder,
/// "the working set minus the kept regions": its SQL is the user's query, so
/// drilling into it explores the filtered rows, not the whole table. Every
/// other region's SQL selects exactly its rows.
#[test]
fn the_remainder_region_keeps_the_users_filter() {
    let table = Arc::new(CensusGenerator::with_rows(20_000, 7).generate());
    let config = AtlasConfig {
        cut: CutConfig {
            num_splits: 4,
            numeric: NumericCutStrategy::Median,
            ..CutConfig::default()
        },
        merge: MergeStrategy::Product,
        max_regions_per_map: 6,
        ..AtlasConfig::default()
    };
    let atlas = Atlas::new(Arc::clone(&table), config).unwrap();
    let query = parse_query("SELECT * FROM census WHERE age BETWEEN 30 AND 50").unwrap();
    let result = atlas.explore(&query).unwrap();
    assert_eq!(result.working_set_size, 6_948);
    let mut remainders = 0;
    for ranked in &result.maps {
        for region in &ranked.map.regions {
            let sql = to_sql(&region.query);
            let selected = atlas::query::evaluate(&parse_query(&sql).unwrap(), &table).unwrap();
            if region.query == query {
                remainders += 1;
                assert_eq!(selected, result.working_set, "{sql}");
                assert!(region.selection.and(&selected.not()).is_all_clear());
            } else {
                assert_eq!(selected, region.selection, "{sql}");
            }
        }
    }
    assert!(remainders > 0, "the cap folds at least one map");
}

#[test]
fn sql_round_trip_drill_down_matches_programmatic_drill_down() {
    // Every region of a result can be rendered to SQL, parsed back, and
    // re-submitted: the re-evaluated working set matches the region extent.
    let table = Arc::new(CensusGenerator::with_rows(4_000, 11).generate());
    let atlas = Atlas::with_defaults(Arc::clone(&table)).unwrap();
    let result = atlas.explore(&ConjunctiveQuery::all("census")).unwrap();
    let best = result.best().unwrap();
    for region in &best.map.regions {
        let sql = to_sql(&region.query);
        let reparsed = parse_query(&sql).unwrap();
        let selection = atlas::query::evaluate(&reparsed, &table).unwrap();
        assert_eq!(
            selection.to_indices(),
            region.selection.to_indices(),
            "query {sql} does not reproduce its region"
        );
    }
}

#[test]
fn exploration_session_narrows_until_small() {
    let table = Arc::new(CensusGenerator::with_rows(20_000, 5).generate());
    let mut session = Session::with_defaults(Arc::clone(&table)).unwrap();
    session.submit(ConjunctiveQuery::all("census")).unwrap();
    let mut sizes = vec![session.current().unwrap().working_set_size()];
    // Drill down three times into the largest region of the best map.
    for _ in 0..3 {
        let (map_idx, region_idx) = {
            let step = session.current().unwrap();
            let best = 0;
            let region = step.result.maps[best]
                .map
                .regions
                .iter()
                .enumerate()
                .max_by_key(|(_, r)| r.count())
                .map(|(i, _)| i)
                .unwrap();
            (best, region)
        };
        match session.drill_down(map_idx, region_idx) {
            Ok(step) => sizes.push(step.working_set_size()),
            Err(_) => break,
        }
    }
    assert!(sizes.len() >= 3, "at least two successful drill-downs");
    for pair in sizes.windows(2) {
        assert!(
            pair[1] < pair[0],
            "drilling down must narrow the working set"
        );
        assert!(pair[1] > 0);
    }
}

#[test]
fn orders_table_identifier_columns_are_skipped() {
    let table = Arc::new(OrdersGenerator::with_rows(5_000, 3).generate());
    let atlas = Atlas::with_defaults(Arc::clone(&table)).unwrap();
    let result = atlas.explore(&ConjunctiveQuery::all("orders")).unwrap();
    assert!(result.skipped_attributes.iter().any(|a| a == "order_key"));
    assert!(result
        .skipped_attributes
        .iter()
        .any(|a| a == "comment_code"));
    for ranked in &result.maps {
        assert!(!ranked
            .map
            .source_attributes
            .iter()
            .any(|a| a == "order_key"));
        assert!(!ranked
            .map
            .source_attributes
            .iter()
            .any(|a| a == "comment_code"));
    }
}

#[test]
fn sky_survey_maps_align_with_hidden_classes() {
    let table = Arc::new(SdssGenerator::with_rows(12_000, 8).generate());
    let attributes: Vec<String> = table
        .schema()
        .names()
        .into_iter()
        .filter(|n| *n != "class" && *n != "ra" && *n != "dec")
        .map(|s| s.to_string())
        .collect();
    let config = AtlasConfig {
        attributes: Some(attributes),
        ..AtlasConfig::quality()
    };
    let atlas = Atlas::new(Arc::clone(&table), config).unwrap();
    let result = atlas.explore(&ConjunctiveQuery::all("photo_obj")).unwrap();
    let dict_codes: Vec<u32> = table.column("class").unwrap().category_codes();
    let (_, quality) = MapQuality::best_of(&result.maps, &dict_codes).unwrap();
    assert!(
        quality.nmi > 0.3,
        "photometric maps should carry class information, got {quality:?}"
    );
}

#[test]
fn csv_ingestion_feeds_the_engine() {
    // A tiny end-to-end path through the CSV reader (the route a real user
    // with a file on disk would take).
    let csv = "\
age,sex,salary\n\
25,M,low\n29,F,low\n31,F,high\n45,M,high\n52,F,high\n61,M,low\n\
23,F,low\n36,M,high\n41,F,high\n58,M,low\n33,F,high\n27,M,low\n";
    let table = atlas::columnar::csv::read_csv(
        "people",
        csv.as_bytes(),
        None,
        &atlas::columnar::csv::CsvOptions::default(),
    )
    .unwrap();
    let atlas_engine = Atlas::with_defaults(Arc::new(table)).unwrap();
    let result = atlas_engine
        .explore(&ConjunctiveQuery::all("people"))
        .unwrap();
    assert!(result.num_maps() >= 1);
    assert_eq!(result.working_set_size, 12);
}

#[test]
fn anytime_engine_converges_to_the_exact_result() {
    let table = Arc::new(CensusGenerator::with_rows(30_000, 77).generate());
    let options = ExploreOptions {
        initial_sample: 500,
        growth_factor: 8.0,
        budget: Some(std::time::Duration::from_secs(60)),
        ..ExploreOptions::default()
    };
    let outcome = Atlas::with_defaults(Arc::clone(&table))
        .unwrap()
        .explore_anytime(&ConjunctiveQuery::all("census"), options)
        .unwrap();
    assert!(outcome.reached_full_data);
    assert!(outcome.iterations.len() >= 2);
    // The final iteration equals what the plain engine computes.
    let exact = Atlas::with_defaults(Arc::clone(&table))
        .unwrap()
        .explore(&ConjunctiveQuery::all("census"))
        .unwrap();
    let last = &outcome.iterations.last().unwrap().result;
    assert_eq!(last.working_set_size, exact.working_set_size);
    assert_eq!(last.num_maps(), exact.num_maps());
    let exact_attrs: Vec<_> = exact
        .maps
        .iter()
        .map(|m| m.map.source_attributes.clone())
        .collect();
    let last_attrs: Vec<_> = last
        .maps
        .iter()
        .map(|m| m.map.source_attributes.clone())
        .collect();
    assert_eq!(exact_attrs, last_attrs);
}

#[test]
fn baselines_violate_constraints_that_atlas_respects() {
    use atlas::core::baselines::FullProductBaseline;
    let table = Arc::new(CensusGenerator::with_rows(6_000, 13).generate());
    let working = table.full_selection();
    let query = ConjunctiveQuery::all("census");

    let atlas_result = Atlas::with_defaults(Arc::clone(&table))
        .unwrap()
        .explore(&query)
        .unwrap();
    let atlas_maps: Vec<DataMap> = atlas_result.maps.iter().map(|m| m.map.clone()).collect();
    let atlas_report = ReadabilityReport::compute(&atlas_maps, 8, 4);
    assert!(atlas_report.within_constraints);

    let exhaustive = FullProductBaseline::default()
        .generate(&table, &working, &query)
        .unwrap();
    let exhaustive_report = ReadabilityReport::compute(std::slice::from_ref(&exhaustive), 8, 4);
    assert!(!exhaustive_report.within_constraints);
    assert!(exhaustive.num_regions() > 8);
    assert!(exhaustive.max_predicates() > 4);
}
