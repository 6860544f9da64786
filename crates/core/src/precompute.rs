//! Anticipative computation (Section 5.1, "Anticipative computations").
//!
//! "The idea of this approach is to perform calculations offline, by
//! anticipating what the user will ask. There are two periods during which
//! this is possible: before the first query, and during the idle time between
//! each query."
//!
//! [`CachedAtlas`] implements both periods:
//!
//! * **before the first query** — [`CachedAtlas::warm_up`] pre-computes and
//!   caches the map result of the whole-table query, so the very first
//!   interaction is served from memory;
//! * **between queries** — [`CachedAtlas::prefetch`] takes the result the user
//!   is currently looking at and pre-computes the exploration of every region
//!   query (the only queries the GUI lets the user submit next), so whichever
//!   region the user drills into is already answered.
//!
//! The cache is a bounded LRU keyed by the canonical SQL text of the
//! query — predicates are sorted by attribute before printing, so two
//! conjunctions that differ only in predicate order share one cache entry —
//! and a hit refreshes the entry's recency, so the queries a user keeps
//! coming back to survive eviction. The scheme stays deliberately
//! unsophisticated otherwise, as the paper leaves "deciding what to compute"
//! open; keying and the eviction policy are the two obvious extension points.
//!
//! Cached answers are immutable and shared: the cache holds each result as an
//! `Arc<MapResult>` and hands out the `Arc`, so a hit costs a reference count,
//! not a copy of every region bitmap, and whoever keeps the answer (an
//! exploration history) shares the cache's allocation.
//!
//! The raw [`CachedAtlas::lookup`] / [`CachedAtlas::insert_result`] pair
//! exists for front-ends (such as `atlas-serve`) that hold the cache behind a
//! lock and must not keep it locked while the engine computes a miss.

use crate::config::AtlasConfig;
use crate::engine::{Atlas, MapResult};
use crate::error::Result;
use atlas_columnar::Table;
use atlas_query::{to_sql, ConjunctiveQuery};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// Statistics of the cache behaviour (useful in tests and benchmarks).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Queries answered from the cache.
    pub hits: usize,
    /// Queries that had to be computed on demand.
    pub misses: usize,
    /// Results inserted by prefetching or warm-up.
    pub prefetched: usize,
    /// Entries evicted because the cache was full.
    pub evicted: usize,
}

/// An [`Atlas`] engine wrapped with an anticipative result cache.
#[derive(Debug, Clone)]
pub struct CachedAtlas {
    engine: Atlas,
    capacity: usize,
    cache: HashMap<String, Arc<MapResult>>,
    insertion_order: VecDeque<String>,
    stats: CacheStats,
}

impl CachedAtlas {
    /// Wrap an engine with a cache holding at most `capacity` results.
    pub fn new(table: Arc<Table>, config: AtlasConfig, capacity: usize) -> Result<Self> {
        Ok(CachedAtlas::from_engine(
            Atlas::new(table, config)?,
            capacity,
        ))
    }

    /// Wrap an already prepared engine (built via
    /// [`crate::engine::AtlasBuilder`], possibly with another cut strategy)
    /// with a cache holding at most `capacity` results.
    pub fn from_engine(engine: Atlas, capacity: usize) -> Self {
        CachedAtlas {
            engine,
            capacity: capacity.max(1),
            cache: HashMap::new(),
            insertion_order: VecDeque::new(),
            stats: CacheStats::default(),
        }
    }

    /// The wrapped engine.
    pub fn engine(&self) -> &Atlas {
        &self.engine
    }

    /// Cache behaviour so far: hit, miss, prefetch and eviction counters
    /// (consumed by tests, benchmarks, and the `atlas-serve` `/metrics`
    /// endpoint).
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// The configured capacity (number of results the cache can hold).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of cached results.
    pub fn len(&self) -> usize {
        self.cache.len()
    }

    /// True if nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.cache.is_empty()
    }

    /// The cache key of a query: its SQL text with the predicates sorted by
    /// attribute (ties broken by the rendered set, for queries constructed
    /// with duplicate same-attribute predicates), so conjunctions that differ
    /// only in predicate order (the conjunction is commutative) key
    /// identically instead of causing spurious misses. Value sets need no
    /// extra handling: they are `BTreeSet`s, already canonically ordered.
    fn key(query: &ConjunctiveQuery) -> String {
        let mut canonical = query.clone();
        canonical.predicates.sort_by(|a, b| {
            a.attribute
                .cmp(&b.attribute)
                .then_with(|| a.set.to_string().cmp(&b.set.to_string()))
        });
        to_sql(&canonical)
    }

    /// Move `key` to the most-recently-used end of the order queue.
    fn touch(&mut self, key: &str) {
        if let Some(pos) = self.insertion_order.iter().position(|k| k == key) {
            let key = self
                .insertion_order
                .remove(pos)
                .expect("position was just found");
            self.insertion_order.push_back(key);
        }
    }

    fn insert(&mut self, key: String, result: Arc<MapResult>) {
        if let Some(slot) = self.cache.get_mut(&key) {
            *slot = result;
            self.touch(&key);
            return;
        }
        if self.cache.len() >= self.capacity {
            if let Some(oldest) = self.insertion_order.pop_front() {
                self.cache.remove(&oldest);
                self.stats.evicted += 1;
            }
        }
        self.insertion_order.push_back(key.clone());
        self.cache.insert(key, result);
    }

    /// Pre-compute the whole-table exploration ("before the first query").
    pub fn warm_up(&mut self) -> Result<()> {
        let query = ConjunctiveQuery::all(self.engine.table().name());
        let key = Self::key(&query);
        if !self.cache.contains_key(&key) {
            let result = self.engine.explore(&query)?;
            self.insert(key, Arc::new(result));
            self.stats.prefetched += 1;
        }
        Ok(())
    }

    /// The raw cache probe: a hit returns the cached result (and refreshes
    /// its recency), a miss returns `None`. Both update the counters. Callers
    /// that hold the cache behind a lock use this to release the lock while
    /// the engine computes, then store the outcome with
    /// [`CachedAtlas::insert_result`].
    pub fn lookup(&mut self, query: &ConjunctiveQuery) -> Option<Arc<MapResult>> {
        self.lookup_key(&Self::key(query))
    }

    fn lookup_key(&mut self, key: &str) -> Option<Arc<MapResult>> {
        if let Some(result) = self.cache.get(key) {
            let result = Arc::clone(result);
            self.stats.hits += 1;
            self.touch(key);
            return Some(result);
        }
        self.stats.misses += 1;
        None
    }

    /// Store an externally computed result for `query` (the write half of
    /// [`CachedAtlas::lookup`]). The result must come from an engine
    /// answering over the same table snapshot as [`CachedAtlas::engine`],
    /// otherwise later hits would disagree with fresh explorations.
    pub fn insert_result(&mut self, query: &ConjunctiveQuery, result: impl Into<Arc<MapResult>>) {
        self.insert(Self::key(query), result.into());
    }

    /// Answer a query, from the cache when possible.
    pub fn explore(&mut self, query: &ConjunctiveQuery) -> Result<Arc<MapResult>> {
        let key = Self::key(query);
        if let Some(result) = self.lookup_key(&key) {
            return Ok(result);
        }
        let result = Arc::new(self.engine.explore(query)?);
        self.insert(key, Arc::clone(&result));
        Ok(result)
    }

    /// Idle-time prefetch: pre-compute the exploration of every region query
    /// of the given result (at most `limit` of them, largest regions first).
    ///
    /// Regions whose exploration fails (for example a region too small to cut)
    /// are skipped silently — prefetching is best-effort by design.
    pub fn prefetch(&mut self, result: &MapResult, limit: usize) -> usize {
        let mut regions: Vec<&crate::region::Region> = result
            .maps
            .iter()
            .flat_map(|m| m.map.regions.iter())
            .collect();
        regions.sort_by_key(|r| std::cmp::Reverse(r.count()));
        let mut computed = 0usize;
        for region in regions.into_iter().take(limit) {
            let key = Self::key(&region.query);
            if self.cache.contains_key(&key) {
                continue;
            }
            if let Ok(region_result) = self.engine.explore(&region.query) {
                self.insert(key, Arc::new(region_result));
                self.stats.prefetched += 1;
                computed += 1;
            }
        }
        computed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atlas_columnar::{DataType, Field, Schema, TableBuilder, Value};

    fn table(rows: usize) -> Arc<Table> {
        let schema = Schema::new(vec![
            Field::new("x", DataType::Float),
            Field::new("group", DataType::Str),
            Field::new("y", DataType::Float),
        ])
        .unwrap();
        let mut b = TableBuilder::new("t", schema);
        for i in 0..rows {
            let group = ["a", "b", "c"][i % 3];
            let x = (i % 100) as f64 + if group == "a" { 0.0 } else { 200.0 };
            b.push_row(&[
                Value::Float(x),
                Value::Str(group.into()),
                Value::Float((i % 17) as f64),
            ])
            .unwrap();
        }
        Arc::new(b.build().unwrap())
    }

    #[test]
    fn warm_up_makes_the_first_query_a_hit() {
        let mut cached = CachedAtlas::new(table(3_000), AtlasConfig::default(), 8).unwrap();
        assert!(cached.is_empty());
        cached.warm_up().unwrap();
        assert_eq!(cached.len(), 1);
        let result = cached.explore(&ConjunctiveQuery::all("t")).unwrap();
        assert!(result.num_maps() >= 1);
        assert_eq!(cached.stats().hits, 1);
        assert_eq!(cached.stats().misses, 0);
        // Warming up twice does not recompute.
        cached.warm_up().unwrap();
        assert_eq!(cached.stats().prefetched, 1);
    }

    #[test]
    fn cached_results_equal_fresh_results() {
        let t = table(2_000);
        let mut cached = CachedAtlas::new(Arc::clone(&t), AtlasConfig::default(), 8).unwrap();
        let query = ConjunctiveQuery::all("t");
        let first = cached.explore(&query).unwrap();
        let second = cached.explore(&query).unwrap();
        assert_eq!(cached.stats().misses, 1);
        assert_eq!(cached.stats().hits, 1);
        assert_eq!(first.num_maps(), second.num_maps());
        assert_eq!(first.working_set_size, second.working_set_size);
        let fresh = Atlas::new(t, AtlasConfig::default())
            .unwrap()
            .explore(&query)
            .unwrap();
        assert_eq!(fresh.num_maps(), first.num_maps());
    }

    #[test]
    fn prefetch_turns_drill_downs_into_hits() {
        let mut cached = CachedAtlas::new(table(4_000), AtlasConfig::default(), 16).unwrap();
        let result = cached.explore(&ConjunctiveQuery::all("t")).unwrap();
        let computed = cached.prefetch(&result, 4);
        assert!(computed >= 1);
        assert_eq!(cached.stats().prefetched, computed);
        // Drilling into the largest region of the best map is now a hit.
        let best = result.best().unwrap();
        let largest = best.map.regions.iter().max_by_key(|r| r.count()).unwrap();
        let hits_before = cached.stats().hits;
        let drill = cached.explore(&largest.query).unwrap();
        assert!(drill.working_set_size < result.working_set_size);
        assert_eq!(cached.stats().hits, hits_before + 1);
    }

    #[test]
    fn capacity_is_enforced_with_least_recently_used_eviction() {
        let mut cached = CachedAtlas::new(table(2_000), AtlasConfig::default(), 2).unwrap();
        let q1 = ConjunctiveQuery::all("t");
        let q2 = q1
            .clone()
            .and(atlas_query::Predicate::values("group", ["a"]));
        let q3 = q1
            .clone()
            .and(atlas_query::Predicate::values("group", ["b"]));
        assert_eq!(cached.capacity(), 2);
        cached.explore(&q1).unwrap();
        cached.explore(&q2).unwrap();
        cached.explore(&q3).unwrap();
        assert_eq!(cached.len(), 2);
        assert_eq!(cached.stats().evicted, 1);
        // q1 was the least recently used entry, so it is a miss again.
        let misses_before = cached.stats().misses;
        cached.explore(&q1).unwrap();
        assert_eq!(cached.stats().misses, misses_before + 1);
    }

    #[test]
    fn eviction_order_is_lru_not_fifo() {
        // Regression test for the eviction policy the server's shared result
        // cache relies on: capacity 2, three distinct queries, but the oldest
        // *inserted* entry is touched before the third insert — so the LRU
        // victim must be the second entry, not the first.
        let mut cached = CachedAtlas::new(table(2_000), AtlasConfig::default(), 2).unwrap();
        let q1 = ConjunctiveQuery::all("t");
        let q2 = q1
            .clone()
            .and(atlas_query::Predicate::values("group", ["a"]));
        let q3 = q1
            .clone()
            .and(atlas_query::Predicate::values("group", ["b"]));
        cached.explore(&q1).unwrap(); // miss, cache = [q1]
        cached.explore(&q2).unwrap(); // miss, cache = [q1, q2]
        cached.explore(&q1).unwrap(); // hit: q1 becomes most recently used
        cached.explore(&q3).unwrap(); // miss: evicts q2 (the LRU), not q1
        assert_eq!(cached.len(), 2);
        assert_eq!(cached.stats().evicted, 1);

        // q1 must still be cached (a FIFO would have evicted it) …
        let hits_before = cached.stats().hits;
        cached.explore(&q1).unwrap();
        assert_eq!(cached.stats().hits, hits_before + 1, "q1 survived");
        // … and q2 must be gone.
        let misses_before = cached.stats().misses;
        cached.explore(&q2).unwrap();
        assert_eq!(
            cached.stats().misses,
            misses_before + 1,
            "q2 was the victim"
        );
    }

    #[test]
    fn lookup_and_insert_result_split_the_explore_path() {
        // The server-side protocol: probe under a lock, compute outside it,
        // store the outcome. Counters must behave exactly like `explore`.
        let t = table(1_500);
        let engine = Atlas::builder(Arc::clone(&t)).build().unwrap();
        let mut cached = CachedAtlas::from_engine(engine.clone(), 4);
        let query = ConjunctiveQuery::all("t");
        assert!(cached.lookup(&query).is_none());
        assert_eq!(cached.stats().misses, 1);
        let result = engine.explore(&query).unwrap();
        cached.insert_result(&query, result.clone());
        let hit = cached.lookup(&query).expect("inserted result is found");
        assert_eq!(hit.working_set_size, result.working_set_size);
        assert_eq!(hit.num_maps(), result.num_maps());
        assert_eq!(
            cached.stats(),
            &CacheStats {
                hits: 1,
                misses: 1,
                ..CacheStats::default()
            }
        );
    }

    #[test]
    fn lookups_of_one_key_share_one_answer() {
        let mut cached = CachedAtlas::new(table(1_500), AtlasConfig::default(), 4).unwrap();
        let query = ConjunctiveQuery::all("t");
        let answered = cached.explore(&query).unwrap();
        let first = cached.lookup(&query).expect("a hit");
        let second = cached.lookup(&query).expect("a hit");
        assert!(Arc::ptr_eq(&first, &second), "two hits share one answer");
        assert!(
            Arc::ptr_eq(&first, &answered),
            "… with the miss that stored it"
        );
        // A shared answer stored from outside is the one handed out.
        let shared = Arc::new(cached.engine().explore(&query).unwrap());
        cached.insert_result(&query, Arc::clone(&shared));
        assert!(Arc::ptr_eq(&cached.lookup(&query).unwrap(), &shared));
    }

    #[test]
    fn reordered_predicates_share_one_cache_entry() {
        // Regression test: `a AND b` and `b AND a` are the same conjunction
        // and must key to the same cache slot.
        let mut cached = CachedAtlas::new(table(2_000), AtlasConfig::default(), 8).unwrap();
        let x_pred = atlas_query::Predicate::range("x", 0.0, 250.0);
        let group_pred = atlas_query::Predicate::values("group", ["a", "b"]);
        let forward = ConjunctiveQuery {
            table: "t".to_string(),
            predicates: vec![x_pred.clone(), group_pred.clone()],
        };
        let reversed = ConjunctiveQuery {
            table: "t".to_string(),
            predicates: vec![group_pred, x_pred],
        };
        let first = cached.explore(&forward).unwrap();
        assert_eq!(cached.stats().misses, 1);
        let second = cached.explore(&reversed).unwrap();
        assert_eq!(
            cached.stats(),
            &CacheStats {
                hits: 1,
                misses: 1,
                ..CacheStats::default()
            },
            "semantically identical queries must not miss"
        );
        assert_eq!(cached.len(), 1);
        assert_eq!(first.working_set_size, second.working_set_size);
        assert_eq!(first.num_maps(), second.num_maps());
    }

    #[test]
    fn from_engine_wraps_a_prepared_engine() {
        let t = table(1_000);
        let engine = Atlas::builder(Arc::clone(&t)).build().unwrap();
        let mut cached = CachedAtlas::from_engine(engine, 4);
        let result = cached.explore(&ConjunctiveQuery::all("t")).unwrap();
        assert!(result.num_maps() >= 1);
        assert_eq!(cached.stats().misses, 1);
    }

    #[test]
    fn prefetch_limit_zero_does_nothing() {
        let mut cached = CachedAtlas::new(table(1_000), AtlasConfig::default(), 4).unwrap();
        let result = cached.explore(&ConjunctiveQuery::all("t")).unwrap();
        assert_eq!(cached.prefetch(&result, 0), 0);
    }
}
