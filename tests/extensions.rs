//! Integration tests for the Section-5 extensions: exploring a denormalised
//! join, anticipative caching, and region explanations, used together the way
//! a real exploration front-end would.

use atlas::core::CachedAtlas;
use atlas::explorer::{explain_region, InsightKind};
use atlas::prelude::*;
use std::sync::Arc;

/// Section 5.2's "materialize the join into one large temporary table",
/// done before Atlas sees the data: a fact table of orders joined with its
/// customer dimension on `customer_id`, one row per order, with the planted
/// rule that corporate customers place large orders.
fn denormalised_orders() -> Table {
    let schema = Schema::new(vec![
        Field::new("order_id", DataType::Int),
        Field::new("customer_id", DataType::Int),
        Field::new("quantity", DataType::Int),
        Field::new("segment", DataType::Str),
        Field::new("region", DataType::Str),
    ])
    .unwrap();
    let mut orders = TableBuilder::new("orders_denorm", schema);
    for i in 0..600i64 {
        let customer_id = i % 30;
        let corporate = customer_id < 10;
        let quantity = if corporate { 40 + i % 10 } else { 1 + i % 10 };
        let segment = if corporate { "corporate" } else { "retail" };
        let region = ["north", "south", "east"][(customer_id % 3) as usize];
        orders
            .push_row(&[
                Value::Int(i),
                Value::Int(customer_id),
                Value::Int(quantity),
                Value::Str(segment.into()),
                Value::Str(region.into()),
            ])
            .unwrap();
    }
    orders.build().unwrap()
}

#[test]
fn join_then_map_then_explain() {
    // The normal Atlas pipeline on the denormalised view.
    let denormalised = denormalised_orders();
    assert_eq!(denormalised.num_rows(), 600);
    assert!(denormalised.schema().contains("segment"));

    let table = Arc::new(denormalised);
    let atlas = Atlas::with_defaults(Arc::clone(&table)).unwrap();
    let result = atlas
        .explore(&ConjunctiveQuery::all("orders_denorm"))
        .unwrap();
    assert!(result.num_maps() >= 1);
    // The planted dependency quantity ↔ segment must end up in one map.
    let quantity_map = result
        .maps
        .iter()
        .find(|m| m.map.source_attributes.iter().any(|a| a == "quantity"))
        .expect("a map about quantity");
    assert!(
        quantity_map
            .map
            .source_attributes
            .iter()
            .any(|a| a == "segment"),
        "quantity and segment should be grouped, got {:?}",
        quantity_map.map.source_attributes
    );

    // Explain the large-quantity region: the segment distribution should be
    // the stand-out difference.
    let large_region = quantity_map
        .map
        .regions
        .iter()
        .find(|r| {
            r.query
                .predicate_on("quantity")
                .map(|p| p.set.contains_number(45.0))
                .unwrap_or(false)
        })
        .expect("a region of large quantities");
    let insights = explain_region(&table, large_region, &result.working_set);
    let segment_insight = insights
        .iter()
        .find(|i| i.attribute == "segment")
        .expect("segment insight");
    match &segment_insight.kind {
        InsightKind::CategoricalShift {
            most_over_represented,
            ..
        } => assert_eq!(most_over_represented, "corporate"),
        other => panic!("expected a categorical shift, got {other:?}"),
    }
}

#[test]
fn cached_engine_serves_drill_downs_after_prefetch() {
    let table = Arc::new(CensusGenerator::with_rows(5_000, 23).generate());
    let mut cached = CachedAtlas::new(Arc::clone(&table), AtlasConfig::default(), 16).unwrap();
    // Warm up before the first query, as Section 5.1 suggests.
    cached.warm_up().unwrap();
    let result = cached.explore(&ConjunctiveQuery::all("census")).unwrap();
    assert_eq!(
        cached.stats().hits,
        1,
        "warm-up should serve the first query"
    );

    // Idle time: prefetch every region the user can click next.
    let total_regions: usize = result.maps.iter().map(|m| m.map.num_regions()).sum();
    let prefetched = cached.prefetch(&result, total_regions);
    assert!(prefetched >= 3);

    // Whatever region the user drills into is now answered from the cache.
    let best = result.best().unwrap();
    let misses_before = cached.stats().misses;
    for region in best.map.regions.iter().take(2) {
        let drill = cached.explore(&region.query).unwrap();
        assert!(drill.working_set_size <= result.working_set_size);
    }
    assert_eq!(
        cached.stats().misses,
        misses_before,
        "prefetched drill-downs must not recompute"
    );
}

#[test]
fn explanations_are_consistent_with_the_region_queries() {
    // For a region defined by a predicate on an attribute, that attribute's
    // own insight must show a shift in the direction of the predicate.
    let table = Arc::new(CensusGenerator::with_rows(4_000, 3).generate());
    let atlas = Atlas::with_defaults(Arc::clone(&table)).unwrap();
    let result = atlas.explore(&ConjunctiveQuery::all("census")).unwrap();
    let age_map = result
        .maps
        .iter()
        .find(|m| m.map.source_attributes.iter().any(|a| a == "age"));
    let Some(age_map) = age_map else {
        // Age may have been grouped differently on this seed; nothing to check.
        return;
    };
    for region in &age_map.map.regions {
        let Some(predicate) = region.query.predicate_on("age") else {
            continue;
        };
        let insights = explain_region(&table, region, &result.working_set);
        let age_insight = insights.iter().find(|i| i.attribute == "age").unwrap();
        if let InsightKind::NumericShift { region_mean, .. } = &age_insight.kind {
            assert!(
                predicate.set.contains_number(*region_mean),
                "the region's own mean age {region_mean} must satisfy its predicate {predicate}"
            );
        }
    }
}
