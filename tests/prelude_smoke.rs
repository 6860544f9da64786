//! Smoke test: the facade `prelude` re-exports the documented public API.
//!
//! The README and the crate docs promise that `use atlas::prelude::*` is
//! enough to run the whole pipeline. This test uses each promised name
//! directly from the prelude, so any future re-export regression fails to
//! compile rather than surfacing as a broken doc example. That every facade
//! export is documented is a source fact, held in `tests/structure.rs`.

use atlas::prelude::*;
use std::borrow::Cow;
use std::sync::Arc;

#[test]
fn prelude_exports_the_documented_api() {
    // CensusGenerator + the builder API: Atlas::builder -> AtlasBuilder -> Atlas.
    let table: Arc<Table> = Arc::new(CensusGenerator::with_rows(500, 7).generate());
    let builder: AtlasBuilder = Atlas::builder(Arc::clone(&table)).config(AtlasConfig::default());
    let atlas: Atlas = builder.build().expect("default config is valid");

    // parse_query produces a ConjunctiveQuery usable by the engine.
    let query: ConjunctiveQuery =
        parse_query("SELECT * FROM census WHERE age BETWEEN 17 AND 90").expect("query parses");

    let result = atlas.explore(&query).expect("exploration succeeds");
    assert!(result.num_maps() >= 1);

    // The build-time statistics profile is reachable through the prelude.
    let stats: ProfileStats = atlas.profile_stats();
    assert!(stats.hits + stats.misses > 0);

    // DataMap is reachable by name, and render_result works on the result.
    let best: &DataMap = &result.best().expect("at least one map").map;
    assert!(best.num_regions() >= 2);
    let rendered = render_result(&result);
    assert!(!rendered.is_empty());
}

#[test]
fn prelude_exports_the_anytime_surface() {
    let table: Arc<Table> = Arc::new(CensusGenerator::with_rows(2_000, 7).generate());
    let atlas = Atlas::builder(Arc::clone(&table))
        .build()
        .expect("default config is valid");
    let query = parse_query("SELECT * FROM census").expect("query parses");

    // ExploreOptions + explore_iter stream AnytimeIterations.
    let options = ExploreOptions {
        initial_sample: 200,
        ..ExploreOptions::exhaustive()
    };
    let mut last: Option<AnytimeIteration> = None;
    for step in atlas
        .explore_iter(&query, options.clone())
        .expect("iterator starts")
    {
        last = Some(step.expect("iteration succeeds"));
    }
    assert_eq!(last.expect("at least one iteration").sample_size, 2_000);

    // The blocking form returns an AnytimeResult.
    let outcome: AnytimeResult = atlas
        .explore_anytime(&query, options)
        .expect("anytime run succeeds");
    assert!(outcome.reached_full_data);
}

#[test]
fn prelude_exports_the_pipeline_traits() {
    // The cut stage is nameable from the prelude, so user code can write a
    // custom strategy against `use atlas::prelude::*` alone.
    #[derive(Debug)]
    struct AgeOnly;
    impl CutStrategy for AgeOnly {
        fn name(&self) -> &str {
            "age-only"
        }
        fn cut<'a>(
            &self,
            ctx: &PipelineContext<'a>,
            working: &Bitmap,
            parent_query: &ConjunctiveQuery,
            attribute: &str,
            stats: &mut Option<Cow<'a, ColumnStats>>,
        ) -> atlas::core::Result<Option<DataMap>> {
            if attribute != "age" {
                return Ok(None);
            }
            atlas::core::PaperCut.cut(ctx, working, parent_query, attribute, stats)
        }
    }

    let table: Arc<Table> = Arc::new(CensusGenerator::with_rows(500, 7).generate());
    let atlas = Atlas::builder(Arc::clone(&table))
        .cut_strategy(AgeOnly)
        .build()
        .expect("custom cut builds");
    let result = atlas
        .explore(&parse_query("SELECT * FROM census").expect("query parses"))
        .expect("exploration succeeds");
    assert_eq!(result.num_maps(), 1);
    let best = &result.best().expect("one map").map;
    assert_eq!(best.source_attributes, vec!["age".to_string()]);
}

#[test]
fn prelude_exports_support_types() {
    // Columnar building blocks.
    let schema = Schema::new(vec![Field::new("x", DataType::Float)]).expect("valid schema");
    let mut builder = TableBuilder::new("t", schema);
    builder
        .push_row(&[Value::Float(1.0)])
        .expect("row matches schema");
    let table: Table = builder.build().expect("non-empty table");
    let bitmap: Bitmap = table.full_selection();
    assert_eq!(bitmap.count(), 1);

    // Query pretty-printers round-trip through the parser.
    let query = ConjunctiveQuery::all("t").and(Predicate::range("x", 0.0, 2.0));
    let reparsed = parse_query(&to_sql(&query)).expect("printed SQL parses");
    assert_eq!(reparsed, query);
    assert!(!to_compact(&query).is_empty());
}

#[test]
fn prelude_exports_the_serving_surface() {
    // Registry + DatasetOptions + Server/ServeConfig/ServerHandle: boot on
    // an ephemeral port, check liveness over a real socket, shut down.
    let table = Arc::new(CensusGenerator::with_rows(300, 7).generate());
    let mut registry: Registry = Registry::new();
    registry
        .add_table("census", table, DatasetOptions::default())
        .expect("dataset registers");
    let handle: ServerHandle =
        Server::start(registry, ServeConfig::default().with_threads(2)).expect("server boots");
    let client = atlas::serve::Client::new(handle.addr());
    assert_eq!(client.get("/healthz").expect("healthz answers").status, 200);
    handle.shutdown();
}
