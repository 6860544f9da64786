//! # Atlas — Fast Cartography for Data Explorers
//!
//! A from-scratch Rust reproduction of **"Fast Cartography for Data
//! Explorers"** (Thibault Sellam & Martin Kersten, PVLDB 6(12), VLDB 2013).
//!
//! Atlas answers queries with queries: instead of returning a long list of
//! tuples, it summarises the result of a user query with a handful of **data
//! maps** — small sets of conjunctive queries, each describing one region of
//! the data — which the user can drill into interactively.
//!
//! This crate is a thin facade that re-exports the public API of the
//! workspace crates:
//!
//! | module | crate | contents |
//! |--------|-------|----------|
//! | [`obs`] | `atlas-obs` | span tracing, counters, Chrome trace export (zero-dependency) |
//! | [`columnar`] | `atlas-columnar` | in-memory column store (tables, bitmaps, CSV, statistics) |
//! | [`stats`] | `atlas-stats` | entropy / MI / VI, exact quantiles, 1-D clustering, agreement scores |
//! | [`query`] | `atlas-query` | the conjunctive query language (AST, parser, printer, evaluation) |
//! | [`core`] | `atlas-core` | the map-generation engine: CUT, clustering, merging, ranking, anytime, baselines |
//! | [`datagen`] | `atlas-datagen` | seeded synthetic datasets (census, mixtures, sky survey, orders) |
//! | [`explorer`] | `atlas-explorer` | exploration sessions, rendering, quality metrics |
//! | [`serve`] | `atlas-serve` | the concurrent exploration server: HTTP/JSON wire protocol, multi-tenant sessions, shared engines |
//!
//! # Quickstart
//!
//! ```
//! use atlas::prelude::*;
//! use std::sync::Arc;
//!
//! // 1. Get a table (here: the synthetic census of the paper's intro).
//! let table = Arc::new(CensusGenerator::with_rows(5_000, 42).generate());
//!
//! // 2. Build a *prepared* engine: per-column statistics (distinct
//! //    counts, null counts, value counts) are computed once, here,
//! //    and shared by every subsequent exploration. The engine is
//! //    `Send + Sync`, so one `Arc<Atlas>` can serve many threads.
//! let atlas = Atlas::builder(Arc::clone(&table)).build().unwrap();
//!
//! // 3. Ask a question — Atlas answers with ranked data maps.
//! let query = parse_query("SELECT * FROM census WHERE age BETWEEN 17 AND 90").unwrap();
//! let result = atlas.explore(&query).unwrap();
//!
//! assert!(result.num_maps() >= 1);
//! assert!(result.best().unwrap().map.num_regions() <= 8);
//! println!("{}", render_result(&result));
//!
//! // 4. In a hurry? Stream the anytime refinement of Section 5.1: growing
//! //    samples under a time budget, through the very same engine.
//! let options = ExploreOptions {
//!     budget: Some(std::time::Duration::from_millis(200)),
//!     ..ExploreOptions::default()
//! };
//! for step in atlas.explore_iter(&query, options).unwrap() {
//!     let iteration = step.unwrap();
//!     println!("{} rows sampled -> {} maps",
//!              iteration.sample_size, iteration.result.num_maps());
//! }
//! ```
//!
//! # Incremental ingest
//!
//! Storage is segmented: a [`columnar::Table`] is an ordered list of
//! immutable `Segment`s, so appending data extends state instead of
//! invalidating it. [`Atlas::append`](core::engine::Atlas::append)
//! re-prepares the engine by profiling **only the new segment** and merging
//! its statistics into the build-time profile — the answers are bit-for-bit
//! what a from-scratch rebuild would produce, at a cost proportional to the
//! new rows:
//!
//! ```
//! use atlas::prelude::*;
//! use std::sync::Arc;
//!
//! // A 3-segment census: two "historical" segments plus today's batch.
//! let full = CensusGenerator::new(atlas::datagen::CensusConfig {
//!     rows: 3_000,
//!     seed: 7,
//!     segment_rows: Some(1_000),
//!     ..atlas::datagen::CensusConfig::default()
//! })
//! .generate();
//! let prefix = Arc::new(
//!     Table::from_segments("census", full.schema().clone(), full.segments()[..2].to_vec())
//!         .unwrap(),
//! );
//!
//! let engine = Atlas::with_defaults(prefix).unwrap();
//! let query = parse_query("SELECT * FROM census").unwrap();
//! assert_eq!(engine.explore(&query).unwrap().working_set_size, 2_000);
//!
//! // New data arrives: append the segment and explore again — no rebuild,
//! // no copy of the existing rows.
//! let engine = engine.append(Arc::clone(&full.segments()[2])).unwrap();
//! assert_eq!(engine.explore(&query).unwrap().working_set_size, 3_000);
//! ```
//!
//! The same path serves the server's append endpoint (one re-preparation per
//! batch; every session's next step runs on the new engine), an in-process
//! session following a growing table
//! ([`Session::adopt_engine`](explorer::Session::adopt_engine)), and the
//! streaming CSV reader ([`columnar::csv::read_csv`]), whose parser working
//! state (buffered text, open segment) is bounded by the segment size, not
//! the file size.
//!
//! # Extending the pipeline
//!
//! Step 1 of the paper's framework, the cut, is the `CutStrategy` trait of
//! [`core::pipeline`], and [`Atlas::builder`](core::engine::AtlasBuilder)
//! accepts a custom one. Steps 2–4 — cluster, merge, rank — follow the
//! configuration (`AtlasConfig::distance`, `AtlasConfig::merge`), and a
//! composition re-cuts its regions through the same strategy:
//!
//! ```
//! use atlas::prelude::*;
//! use std::borrow::Cow;
//! use std::sync::Arc;
//!
//! /// The paper's cut, but a person's sex is never a region.
//! #[derive(Debug)]
//! struct NotBySex;
//!
//! impl CutStrategy for NotBySex {
//!     fn name(&self) -> &str { "not-by-sex" }
//!     fn cut<'a>(
//!         &self,
//!         ctx: &PipelineContext<'a>,
//!         working: &Bitmap,
//!         parent_query: &ConjunctiveQuery,
//!         attribute: &str,
//!         stats: &mut Option<Cow<'a, ColumnStats>>,
//!     ) -> atlas::core::Result<Option<DataMap>> {
//!         if attribute == "sex" {
//!             return Ok(None);
//!         }
//!         atlas::core::PaperCut.cut(ctx, working, parent_query, attribute, stats)
//!     }
//! }
//!
//! let table = Arc::new(CensusGenerator::with_rows(2_000, 42).generate());
//! let atlas = Atlas::builder(table).cut_strategy(NotBySex).build().unwrap();
//! let result = atlas.explore(&parse_query("SELECT * FROM census").unwrap()).unwrap();
//! assert!(result.skipped_attributes.contains(&"sex".to_string()));
//! for ranked in &result.maps {
//!     assert!(!ranked.map.source_attributes.contains(&"sex".to_string()));
//! }
//! ```

#![warn(missing_docs)]

/// Columnar storage: tables, segments, bitmaps, per-column statistics.
pub use atlas_columnar as columnar;
/// The exploration engine: cut → cluster → merge → rank, plus caching and
/// the anytime driver.
pub use atlas_core as core;
/// Deterministic synthetic dataset generators used by tests and benchmarks.
pub use atlas_datagen as datagen;
/// Interactive exploration sessions: history, drill-down, map rendering.
pub use atlas_explorer as explorer;
/// Observability: span tracing, counters, and the Chrome trace export.
pub use atlas_obs as obs;
/// The conjunctive SQL dialect: parser, printer and predicate model.
pub use atlas_query as query;
/// The HTTP/JSON exploration server and the distributed scatter-gather path.
pub use atlas_serve as serve;
/// Statistical kernels: exact quantiles, dependence metrics.
pub use atlas_stats as stats;

/// The most commonly used types, re-exported flat for convenience.
pub mod prelude {
    pub use atlas_columnar::{
        default_segment_rows, Bitmap, Column, ColumnStats, ColumnSummary, ColumnView, DataType,
        Field, Schema, Segment, Table, TableBuilder, Value,
    };
    pub use atlas_core::{
        AnytimeIteration, AnytimeResult, Atlas, AtlasBuilder, AtlasConfig, CachedAtlas, CutConfig,
        CutStrategy, DataMap, ExploreOptions, MapDistanceMetric, MapResult, MergePolicy,
        MergeStrategy, NumericCutStrategy, PhaseTimings, PipelineContext, ProfileStats, RankedMap,
        Region, TableProfile,
    };
    pub use atlas_datagen::{CensusGenerator, MixtureGenerator, OrdersGenerator, SdssGenerator};
    pub use atlas_explorer::{render_map, render_result, MapQuality, ReadabilityReport, Session};
    pub use atlas_query::{
        parse_query, to_compact, to_sql, ConjunctiveQuery, Predicate, PredicateSet,
    };
    pub use atlas_serve::{DatasetOptions, Registry, ServeConfig, Server, ServerHandle};
}
