//! The dataset registry: one prepared engine per served dataset.
//!
//! Datasets are loaded once at boot — from CSV files or from the seeded
//! generators of `atlas-datagen` — and each is prepared into an
//! `Arc<Atlas>` engine whose build-time statistics profile is shared by
//! every session and every worker thread. Each dataset also carries:
//!
//! * a bounded **shared result cache** ([`atlas_core::CachedAtlas`], LRU):
//!   identical queries from different sessions are answered from memory, and
//!   the hit/miss/eviction counters feed `/metrics`;
//! * **incremental appends**: `POST /datasets/:name/rows` re-prepares the
//!   engine once ([`Atlas::append`], profiling only the new rows), swaps it
//!   in and bumps the dataset generation. Sessions hold no engine, so there
//!   is nothing to catch up: their next step runs on the new snapshot, and
//!   the steps they already showed stay as answered.

use crate::wire::Json;
use atlas_columnar::{csv::CsvOptions, Schema, Table};
use atlas_core::{Atlas, AtlasConfig, CacheStats, CachedAtlas, MapResult, Result};
use atlas_datagen::{CensusGenerator, OrdersGenerator, SdssGenerator};
use atlas_query::ConjunctiveQuery;
use std::sync::{Arc, Mutex};

/// Per-dataset serving options.
#[derive(Debug, Clone)]
pub struct DatasetOptions {
    /// Engine configuration used to prepare the dataset.
    pub config: AtlasConfig,
    /// Capacity of the shared result cache; `0` disables caching entirely
    /// (every exploration runs the engine — the honest setting for load
    /// benchmarks).
    pub cache_capacity: usize,
}

impl Default for DatasetOptions {
    fn default() -> Self {
        DatasetOptions {
            config: AtlasConfig::default(),
            cache_capacity: 64,
        }
    }
}

/// The outcome of appending rows to a served dataset.
#[derive(Debug, Clone)]
pub struct AppendOutcome {
    /// Rows appended by this call.
    pub appended_rows: usize,
    /// Segments appended by this call.
    pub appended_segments: usize,
    /// Total rows of the dataset afterwards.
    pub total_rows: usize,
    /// The dataset generation afterwards (total segments appended since boot).
    pub generation: usize,
}

struct DatasetState {
    engine: Arc<Atlas>,
    cache: Option<CachedAtlas>,
    /// Segments appended since boot: what `/datasets` and append replies
    /// report, and what tells a cached distributed coordinator it is stale.
    generation: usize,
    /// Cache counters accumulated from cache generations retired by appends
    /// (an append invalidates the cache: its results describe the old
    /// snapshot).
    retired: CacheStats,
}

/// One served dataset: a name, a prepared engine, a shared result cache, and
/// a generation counter.
pub struct Dataset {
    name: String,
    options: DatasetOptions,
    state: Mutex<DatasetState>,
    /// Serialises appenders so the expensive incremental re-preparation runs
    /// **outside** the state lock: with appends serialised, the engine
    /// snapshot an appender re-prepares from cannot be swapped out before
    /// its own swap, while explores keep probing the state lock freely.
    append_lock: Mutex<()>,
}

impl DatasetState {
    /// The live cache's counters plus every retired generation's.
    fn cache_stats(&self) -> CacheStats {
        let mut total = self.retired.clone();
        if let Some(cache) = &self.cache {
            add_stats(&mut total, cache.stats());
        }
        total
    }
}

fn add_stats(into: &mut CacheStats, from: &CacheStats) {
    into.hits += from.hits;
    into.misses += from.misses;
    into.prefetched += from.prefetched;
    into.evicted += from.evicted;
}

impl Dataset {
    fn new(name: String, table: Arc<Table>, options: DatasetOptions) -> Result<Dataset> {
        let engine = Arc::new(Atlas::new(table, options.config.clone())?);
        let cache = (options.cache_capacity > 0)
            .then(|| CachedAtlas::from_engine((*engine).clone(), options.cache_capacity));
        Ok(Dataset {
            name,
            options,
            state: Mutex::new(DatasetState {
                engine,
                cache,
                generation: 0,
                retired: CacheStats::default(),
            }),
            append_lock: Mutex::new(()),
        })
    }

    /// The dataset name (also its URL segment).
    pub fn name(&self) -> &str {
        &self.name
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, DatasetState> {
        // The state mutex only guards short critical sections (probes,
        // pointer swaps); a poisoned lock means a panic mid-section, and
        // continuing with the inner state is the serving-friendly choice.
        match self.state.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// The current engine and generation (number of segments appended since
    /// boot). The engine is a cheap `Arc` clone; explorations on it never
    /// hold the dataset lock.
    pub fn snapshot(&self) -> (Arc<Atlas>, usize) {
        let state = self.lock();
        (Arc::clone(&state.engine), state.generation)
    }

    /// Answer a query on the current snapshot through the shared result
    /// cache: probe under the lock, compute a miss outside it, store the
    /// outcome. Returns the shared, immutable answer — the cache's own
    /// allocation on a hit, the one the cache keeps on a miss — and whether
    /// it was served from the cache.
    ///
    /// A served answer carries queries and counts, not rows: a miss is
    /// answered by [`Atlas::explore_released`], so every region's
    /// `selection` and the `working_set` the cache or a session history
    /// keeps range over zero rows, and an explore of a gathered working set
    /// never builds a table-length region. A drill re-evaluates its region's
    /// query.
    pub fn explore_shared(&self, query: &ConjunctiveQuery) -> (Result<Arc<MapResult>>, bool) {
        let engine = {
            let mut state = self.lock();
            if let Some(cache) = state.cache.as_mut() {
                if let Some(result) = cache.lookup(query) {
                    return (Ok(result), true);
                }
            }
            Arc::clone(&state.engine)
        };
        let result = engine.explore_released(query).map(Arc::new);
        if let Ok(result) = &result {
            let mut state = self.lock();
            // An append may have swapped the engine while this miss computed;
            // caching the stale result would poison later hits.
            if Arc::ptr_eq(&state.engine, &engine) {
                if let Some(cache) = state.cache.as_mut() {
                    cache.insert_result(query, Arc::clone(result));
                }
            }
        }
        (result, false)
    }

    /// [`Dataset::explore_shared`], answered by value: a copy of the shared
    /// answer, for in-process callers that want to own one. Like every served
    /// answer it carries queries and counts, not rows.
    pub fn explore(&self, query: &ConjunctiveQuery) -> (Result<MapResult>, bool) {
        let (result, cache_hit) = self.explore_shared(query);
        (result.map(Arc::unwrap_or_clone), cache_hit)
    }

    /// Append rows sent as CSV (no header line; columns and types must match
    /// the dataset schema). The engine re-prepares incrementally per segment;
    /// the shared result cache is retired because its entries describe the
    /// old snapshot.
    pub fn append_csv(&self, body: &[u8]) -> Result<AppendOutcome> {
        // One appender at a time; concurrent explores are not blocked — the
        // CSV parse and the per-segment re-preparation below run without the
        // state lock, which is only taken for the snapshot and the swap.
        let _appending = match self.append_lock.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        let base = Arc::clone(&self.lock().engine);
        let batch = parse_csv_batch(&self.name, body, base.table().schema().clone())?;
        let segments = batch.segments();
        let appended_rows = batch.num_rows();

        // Re-prepare incrementally off the snapshot (the append lock
        // guarantees it is still the current engine).
        let mut engine = (*base).clone();
        for segment in segments {
            engine = engine.append(Arc::clone(segment))?;
        }
        let engine = Arc::new(engine);

        let mut state = self.lock();
        debug_assert!(Arc::ptr_eq(&state.engine, &base));
        state.engine = Arc::clone(&engine);
        state.generation += segments.len();
        if let Some(old) = state.cache.take() {
            add_stats(&mut state.retired, old.stats());
            state.cache = Some(CachedAtlas::from_engine(
                (*engine).clone(),
                self.options.cache_capacity,
            ));
        }
        Ok(AppendOutcome {
            appended_rows,
            appended_segments: segments.len(),
            total_rows: engine.table().num_rows(),
            generation: state.generation,
        })
    }

    /// Cumulative cache counters: the live cache plus every generation
    /// retired by appends.
    pub fn cache_stats(&self) -> CacheStats {
        self.lock().cache_stats()
    }

    /// A JSON summary of the dataset (for `GET /datasets`).
    pub fn summary(&self) -> Json {
        let state = self.lock();
        let table = state.engine.table();
        let stats = state.cache_stats();
        Json::object(vec![
            ("name", Json::from(self.name.as_str())),
            ("rows", Json::from(table.num_rows())),
            ("columns", Json::from(table.num_columns())),
            ("segments", Json::from(table.num_segments())),
            ("generation", Json::from(state.generation)),
            (
                "attributes",
                Json::array(
                    table
                        .schema()
                        .fields()
                        .iter()
                        .map(|f| Json::from(f.name.as_str()))
                        .collect(),
                ),
            ),
            (
                "cache",
                Json::object(vec![
                    ("capacity", Json::from(self.options.cache_capacity)),
                    ("hits", Json::from(stats.hits)),
                    ("misses", Json::from(stats.misses)),
                    ("evicted", Json::from(stats.evicted)),
                    ("prefetched", Json::from(stats.prefetched)),
                ]),
            ),
        ])
    }
}

/// Parse a headerless CSV batch against a known schema, sized so each served
/// append becomes one segment per `ATLAS_SEGMENT_ROWS` (same default as the
/// storage layer).
fn parse_csv_batch(name: &str, body: &[u8], schema: Schema) -> Result<Table> {
    let opts = CsvOptions {
        has_header: false,
        ..CsvOptions::default()
    };
    atlas_columnar::csv::read_csv(name, body, Some(schema), &opts)
        .map_err(atlas_core::AtlasError::from)
}

/// The boot-time set of served datasets.
#[derive(Default)]
pub struct Registry {
    datasets: Vec<Dataset>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Serve an in-memory table under `name`.
    pub fn add_table(
        &mut self,
        name: impl Into<String>,
        table: Arc<Table>,
        options: DatasetOptions,
    ) -> Result<&mut Self> {
        let name = name.into();
        if self.get(&name).is_some() {
            return Err(atlas_core::AtlasError::InvalidConfig(format!(
                "dataset '{name}' is already registered"
            )));
        }
        self.datasets.push(Dataset::new(name, table, options)?);
        Ok(self)
    }

    /// Serve a dataset described by a boot spec:
    ///
    /// * `census:ROWS[:SEED]`, `sdss:ROWS[:SEED]`, `orders:ROWS[:SEED]` —
    ///   the seeded generators (seed defaults to 42);
    /// * `csv:NAME=PATH` — a CSV file with a header line, loaded from disk.
    pub fn add_spec(&mut self, spec: &str, options: DatasetOptions) -> Result<&mut Self> {
        let invalid = |msg: String| atlas_core::AtlasError::InvalidConfig(msg);
        let (kind, rest) = spec
            .split_once(':')
            .ok_or_else(|| invalid(format!("dataset spec '{spec}' is missing ':'")))?;
        match kind {
            "census" | "sdss" | "orders" => {
                let mut parts = rest.split(':');
                let rows: usize = parts
                    .next()
                    .unwrap_or("")
                    .parse()
                    .map_err(|_| invalid(format!("bad row count in spec '{spec}'")))?;
                let seed: u64 = match parts.next() {
                    None => 42,
                    Some(s) => s
                        .parse()
                        .map_err(|_| invalid(format!("bad seed in spec '{spec}'")))?,
                };
                let table = match kind {
                    "census" => CensusGenerator::with_rows(rows, seed).generate(),
                    "sdss" => SdssGenerator::with_rows(rows, seed).generate(),
                    _ => OrdersGenerator::with_rows(rows, seed).generate(),
                };
                let name = table.name().to_string();
                self.add_table(name, Arc::new(table), options)
            }
            "csv" => {
                let (name, path) = rest
                    .split_once('=')
                    .ok_or_else(|| invalid(format!("csv spec '{spec}' needs NAME=PATH")))?;
                let table =
                    atlas_columnar::csv::read_csv_path(name, path, None, &CsvOptions::default())
                        .map_err(atlas_core::AtlasError::from)?;
                self.add_table(name.to_string(), Arc::new(table), options)
            }
            other => Err(invalid(format!(
                "unknown dataset kind '{other}' in '{spec}'"
            ))),
        }
    }

    /// The dataset named `name`.
    pub fn get(&self, name: &str) -> Option<&Dataset> {
        self.datasets.iter().find(|d| d.name == name)
    }

    /// All datasets, in registration order.
    pub fn datasets(&self) -> &[Dataset] {
        &self.datasets
    }

    /// True if no dataset is registered.
    pub fn is_empty(&self) -> bool {
        self.datasets.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atlas_columnar::csv::write_csv;

    fn census_registry(rows: usize, cache: usize) -> Registry {
        let mut registry = Registry::new();
        registry
            .add_table(
                "census",
                Arc::new(CensusGenerator::with_rows(rows, 3).generate()),
                DatasetOptions {
                    config: AtlasConfig::fast(),
                    cache_capacity: cache,
                },
            )
            .unwrap();
        registry
    }

    #[test]
    fn explore_uses_the_shared_cache() {
        let registry = census_registry(2_000, 8);
        let dataset = registry.get("census").unwrap();
        let query = ConjunctiveQuery::all("census");
        let (first, hit_first) = dataset.explore(&query);
        let (second, hit_second) = dataset.explore(&query);
        assert!(!hit_first);
        assert!(hit_second);
        let (a, b) = (first.unwrap(), second.unwrap());
        assert_eq!(a.num_maps(), b.num_maps());
        let stats = dataset.cache_stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        // What the server records is the cache's own answer, not a copy.
        let (hit_a, _) = dataset.explore_shared(&query);
        let (hit_b, _) = dataset.explore_shared(&query);
        assert!(Arc::ptr_eq(&hit_a.unwrap(), &hit_b.unwrap()));
    }

    #[test]
    fn served_answers_hold_no_rows_and_reply_as_before() {
        let registry = census_registry(2_000, 8);
        let dataset = registry.get("census").unwrap();
        let query = ConjunctiveQuery::all("census");
        let (served, _) = dataset.explore_shared(&query);
        let served = served.unwrap();
        let mut history = atlas_explorer::History::new();
        history.record(query.clone(), Arc::clone(&served));
        let (cached, hit) = dataset.explore_shared(&query);
        assert!(hit);
        let recorded = &history.steps()[0].result;
        for answer in [&cached.unwrap(), recorded] {
            assert!(Arc::ptr_eq(answer, &served));
            assert!(answer.num_maps() > 0);
            assert_eq!(answer.working_set.len(), 0);
            let mut regions = answer.maps.iter().flat_map(|m| &m.map.regions);
            assert!(regions.all(|r| !r.holds_rows() && r.selection.is_empty()));
        }

        // The unreleased answer (the engine's own, timed differently)
        // replies with the same bytes.
        let mut unreleased = dataset.snapshot().0.explore(&query).unwrap();
        assert!(unreleased.maps[0].map.regions[0].holds_rows());
        unreleased.timings = served.timings.clone();
        let reply =
            |answer: &MapResult| crate::server::map_result_json("census", answer, true, 1).encode();
        assert_eq!(reply(&served), reply(&unreleased));
    }

    #[test]
    fn cache_capacity_zero_disables_caching() {
        let registry = census_registry(2_000, 0);
        let dataset = registry.get("census").unwrap();
        let query = ConjunctiveQuery::all("census");
        let (_, hit1) = dataset.explore(&query);
        let (_, hit2) = dataset.explore(&query);
        assert!(!hit1 && !hit2);
        assert_eq!(dataset.cache_stats(), CacheStats::default());
    }

    #[test]
    fn append_csv_re_prepares_and_retires_the_cache() {
        let registry = census_registry(2_000, 8);
        let dataset = registry.get("census").unwrap();
        let query = ConjunctiveQuery::all("census");
        let (result, _) = dataset.explore(&query);
        assert_eq!(result.unwrap().working_set_size, 2_000);

        // Render a fresh batch as headerless CSV.
        let batch = CensusGenerator::with_rows(500, 9).generate();
        let mut csv = Vec::new();
        write_csv(&batch, &mut csv).unwrap();
        let body: Vec<u8> = {
            let text = String::from_utf8(csv).unwrap();
            text.split_once('\n').unwrap().1.as_bytes().to_vec()
        };

        let outcome = dataset.append_csv(&body).unwrap();
        assert_eq!(outcome.appended_rows, 500);
        assert_eq!(outcome.total_rows, 2_500);
        assert_eq!(outcome.generation, outcome.appended_segments);
        assert!(outcome.generation >= 1);
        assert_eq!(dataset.snapshot().1, outcome.generation);

        // The swap retired the old cache but kept its counters.
        let (result, hit) = dataset.explore(&query);
        assert!(!hit, "old cache entries must not survive an append");
        assert_eq!(result.unwrap().working_set_size, 2_500);
        assert!(dataset.cache_stats().misses >= 2);
    }

    #[test]
    fn append_csv_rejects_malformed_bodies_and_keeps_serving() {
        let registry = census_registry(1_000, 4);
        let dataset = registry.get("census").unwrap();
        assert!(dataset.append_csv(b"not,enough,columns\n").is_err());
        let (result, _) = dataset.explore(&ConjunctiveQuery::all("census"));
        assert_eq!(result.unwrap().working_set_size, 1_000);
        assert_eq!(
            dataset.snapshot().1,
            0,
            "failed append must not bump the generation"
        );
    }

    #[test]
    fn specs_cover_generators_and_reject_nonsense() {
        let mut registry = Registry::new();
        registry
            .add_spec("census:500:7", DatasetOptions::default())
            .unwrap();
        registry
            .add_spec("orders:300", DatasetOptions::default())
            .unwrap();
        assert!(registry.get("census").is_some());
        assert!(registry.get("orders").is_some());
        assert_eq!(registry.datasets().len(), 2);

        for bad in [
            "census",
            "census:x",
            "census:10:y",
            "csv:nopath",
            "laser:10",
        ] {
            assert!(
                Registry::new()
                    .add_spec(bad, DatasetOptions::default())
                    .is_err(),
                "{bad} should be rejected"
            );
        }
        // Duplicate names are rejected.
        assert!(registry
            .add_spec("census:100", DatasetOptions::default())
            .is_err());
    }
}
