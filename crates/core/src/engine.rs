//! The end-to-end Atlas engine.
//!
//! [`Atlas::builder`] assembles a **prepared** engine: per-column statistics
//! (distinct counts, null counts, value counts) are computed once at
//! build time and shared — behind `Arc`s — across every subsequent
//! exploration. The engine is `Send + Sync`, so one `Arc<Atlas>` can serve
//! concurrent explorations.
//!
//! An explore runs the four steps of Section 3. Once the working set is
//! evaluated they are one function, [`explore_from_source`]: step 1 cuts
//! every attribute of the working set through the engine's [`CutStrategy`],
//! and steps 2–4 — cluster, merge, rank — follow, with the merge
//! [`AtlasConfig::merge`] names. It reads rows through an [`ExploreSource`],
//! which holds the working set: the engine's pairs its [`PipelineContext`]
//! with the working bitmap, and the distributed coordinator runs the same
//! function over a working set at its shards, of which it holds only counts.
//!
//! [`Atlas::explore`] runs the pipeline exactly; [`Atlas::explore_iter`]
//! streams the anytime refinement of Section 5.1 (growing samples under a
//! time budget) as an iterator of improving [`AnytimeIteration`]s. Both
//! return per-phase timings (the paper's "quasi-real time" requirement is a
//! first-class concern, so the engine measures itself).
//!
//! ## A sparse explore runs over its own rows
//!
//! Every statistics walk, partition, composition re-cut and distance
//! popcount reads bitmaps one bit per **table** row, so over the table an
//! explore of a small working set costs about what a whole-table one does.
//! A working set of at most one row in `GATHER_SHARE` (8) of the table's
//! is therefore copied once, under `phase.query`, into a compact table
//! ([`Table::gather`]: the same schema, one part per source part, each in
//! its own encoding and dictionary), and the unchanged body — cut,
//! cluster, merge, rank — runs over every row of it with an empty profile
//! (a partial working set never hits the profile anyway; its walks and
//! derivations are added to the engine's profile counters). The answers are
//! the same, bit for bit: only the rows they are stated over differ, and
//! only the answer is mapped back. [`Atlas::explore`] expands each final
//! region to the table's rows ([`Bitmap::expand`]), so in-process callers
//! get table-length selections; [`Atlas::explore_released`], the served
//! form, hands back queries, counts and scores only and never builds a
//! table-length region. The `explore` span's `gathered_rows` attribute says
//! which path an explore took (0: over the table).
//!
//! ## A served composition counts its last level
//!
//! Definition 4's composition re-cuts every region of a cluster's first map
//! on the other maps' attributes, and each re-cut first reads that
//! attribute's statistics over the region. The sub-regions of the **last**
//! re-cut are final: ranking, the region cap and a served reply read only
//! their counts, and the statistics the re-cut was planned from already
//! give them exactly ([`crate::CutPlan::counts_from_stats`]). So under
//! [`Atlas::explore_released`] a composition's last re-cut
//! ([`ExploreSource::recut`], `counted`) builds its
//! sub-regions without rows ([`Region::released`]) instead of partitioning
//! them, and a capped map folds such regions into a counted remainder
//! ([`enforce_region_cap_within`]). Every earlier re-cut is partitioned —
//! the next walks its sub-regions — and so is a plan cut from statistics
//! that carry no counts. A whole-table `default` explore of the 1M-row
//! census runs 7 partition plans instead of 13. [`Atlas::explore`] keeps
//! every region's rows, so its answer is unchanged; the product merge has no
//! re-cut to count. The `explore` span's `counted_regions` attribute is the
//! number of regions of the answer built without rows (0 when expanded).

use crate::candidates::{generate_candidates_in_context, CandidateSet};
use crate::cluster::cluster_maps_with_pool;
use crate::config::{AtlasConfig, ExploreOptions, MergeStrategy};
use crate::distance::distance_matrix_from;
use crate::error::{AtlasError, Result};
use crate::map::DataMap;
use crate::pipeline::{
    CompositionMerge, CutStrategy, ExploreSource, PaperCut, PipelineContext, TableExploreSource,
};
use crate::profile::{ProfileStats, TableProfile};
use crate::rank::{rank_maps, RankedMap};
use crate::region::Region;
use atlas_columnar::{Bitmap, PoolBypass, Segment, Table};
use atlas_query::ConjunctiveQuery;
use minirayon::ThreadPool;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Wall-clock time spent in each phase of the pipeline, in milliseconds.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PhaseTimings {
    /// Evaluating the user query.
    pub query_ms: f64,
    /// Candidate generation (`CUT` on every attribute).
    pub candidates_ms: f64,
    /// Distance matrix + agglomerative clustering.
    pub clustering_ms: f64,
    /// Merging each cluster into a result map.
    pub merge_ms: f64,
    /// Ranking.
    pub rank_ms: f64,
    /// End-to-end total.
    pub total_ms: f64,
}

/// The result of one exploration step.
#[derive(Debug, Clone)]
pub struct MapResult {
    /// The ranked data maps (best first), at most `max_maps` of them.
    pub maps: Vec<RankedMap>,
    /// Number of tuples selected by the user query (the working set size).
    pub working_set_size: usize,
    /// The working set itself, for callers that want to drill further without
    /// re-evaluating the query. A bitmap over zero rows once the answer is
    /// released ([`MapResult::release_rows`]).
    pub working_set: Bitmap,
    /// Attributes that were skipped during candidate generation.
    pub skipped_attributes: Vec<String>,
    /// Per-phase timings.
    pub timings: PhaseTimings,
}

impl MapResult {
    /// The best map, if any.
    pub fn best(&self) -> Option<&RankedMap> {
        self.maps.first()
    }

    /// Number of maps returned.
    pub fn num_maps(&self) -> usize {
        self.maps.len()
    }

    /// Drop the rows the answer holds — every region's selection
    /// ([`Region::release_rows`]) and the working set — keeping the queries,
    /// counts, scores and timings: the answer a client is shown, at a few
    /// hundred bytes instead of one table-length bitmap per region.
    pub fn release_rows(&mut self) {
        for ranked in &mut self.maps {
            ranked.map.regions.iter_mut().for_each(Region::release_rows);
        }
        self.working_set = Bitmap::new_empty(0);
    }
}

/// Assembles a prepared [`Atlas`] engine: a table, a configuration, and a
/// cut strategy.
///
/// The cut defaults to the paper's [`PaperCut`]. Everything else follows the
/// configuration: distances are [`AtlasConfig::distance`], the merge is
/// [`crate::ProductMerge`] or [`CompositionMerge`] as [`AtlasConfig::merge`] says,
/// and ranking is the paper's entropy order ([`rank_maps`]).
///
/// ```
/// # use atlas_core::{Atlas, AtlasConfig};
/// # use atlas_columnar::{DataType, Field, Schema, TableBuilder, Value};
/// # use std::sync::Arc;
/// # let schema = Schema::new(vec![Field::new("x", DataType::Int)]).unwrap();
/// # let mut b = TableBuilder::new("t", schema);
/// # for i in 0..50 { b.push_row(&[Value::Int(i % 7)]).unwrap(); }
/// # let table = Arc::new(b.build().unwrap());
/// let atlas = Atlas::builder(table)
///     .config(AtlasConfig::fast())
///     .build()
///     .unwrap();
/// ```
#[derive(Debug)]
pub struct AtlasBuilder {
    table: Arc<Table>,
    config: AtlasConfig,
    cut_strategy: Option<Arc<dyn CutStrategy>>,
}

impl AtlasBuilder {
    /// Start building an engine over a shared table.
    pub fn new(table: Arc<Table>) -> Self {
        AtlasBuilder {
            table,
            config: AtlasConfig::default(),
            cut_strategy: None,
        }
    }

    /// Use the given configuration (defaults to [`AtlasConfig::default`]).
    pub fn config(mut self, config: AtlasConfig) -> Self {
        self.config = config;
        self
    }

    /// Replace the candidate-generation stage (step 1).
    pub fn cut_strategy(mut self, strategy: impl CutStrategy + 'static) -> Self {
        self.cut_strategy = Some(Arc::new(strategy));
        self
    }

    /// Validate the configuration, profile the table (the build-once cost
    /// every later `explore` amortises; columns are profiled in parallel per
    /// [`AtlasConfig::parallelism`]), and assemble the engine.
    pub fn build(self) -> Result<Atlas> {
        self.config.validate()?;
        let pool = Arc::new(ThreadPool::new(self.config.parallelism));
        let profile = Arc::new(TableProfile::build_with_pool(&self.table, &pool));
        Ok(Atlas {
            cut_strategy: self.cut_strategy.unwrap_or_else(|| Arc::new(PaperCut)),
            table: self.table,
            config: self.config,
            profile,
            pool,
        })
    }
}

/// The prepared Atlas engine: a table, its build-time statistics profile, and
/// its cut strategy. `Send + Sync`; clone it or wrap it in an `Arc` to share
/// the (already computed) profile across threads.
#[derive(Debug, Clone)]
pub struct Atlas {
    table: Arc<Table>,
    config: AtlasConfig,
    profile: Arc<TableProfile>,
    cut_strategy: Arc<dyn CutStrategy>,
    /// Worker threads shared by every exploration of this engine (and its
    /// clones), sized by [`AtlasConfig::parallelism`].
    pool: Arc<ThreadPool>,
}

impl Atlas {
    /// Start building a prepared engine over a shared table.
    pub fn builder(table: Arc<Table>) -> AtlasBuilder {
        AtlasBuilder::new(table)
    }

    /// Create an engine over a shared table with the given configuration and
    /// the paper's cut.
    pub fn new(table: Arc<Table>, config: AtlasConfig) -> Result<Self> {
        Atlas::builder(table).config(config).build()
    }

    /// Create an engine with the default (paper) configuration.
    pub fn with_defaults(table: Arc<Table>) -> Result<Self> {
        Atlas::new(table, AtlasConfig::default())
    }

    /// The table the engine explores.
    pub fn table(&self) -> &Arc<Table> {
        &self.table
    }

    /// The active configuration.
    pub fn config(&self) -> &AtlasConfig {
        &self.config
    }

    /// The per-column statistics computed when the engine was built.
    pub fn profile(&self) -> &TableProfile {
        &self.profile
    }

    /// Hit/miss/derived counters of the statistics profile. Whole-table
    /// candidate generation is served from the build-time profile (hits);
    /// statistics over proper subsets — drill-down queries, anytime samples,
    /// and the per-region re-cuts of composition merging — are computed on
    /// the fly (misses), except that a composition's first re-cut derives
    /// its largest region's statistics from the working set's, which the
    /// candidate cuts read (derived). With a merge policy that never re-cuts
    /// (e.g. [`MergeStrategy::Product`]), repeated whole-table explorations
    /// recompute no statistics at all.
    pub fn profile_stats(&self) -> ProfileStats {
        self.profile.counters()
    }

    /// The thread pool sized by [`AtlasConfig::parallelism`].
    pub fn pool(&self) -> &ThreadPool {
        &self.pool
    }

    /// A new prepared engine over this engine's table extended by `segment` —
    /// the incremental-ingest path.
    ///
    /// The segment (which must match the table's schema) is appended to the
    /// segment list **without copying existing data**, and the engine
    /// re-prepares by profiling only the new rows and merging their summaries
    /// into the existing profile
    /// ([`TableProfile::merge_segment`]) — never by rebuilding from scratch.
    /// The resulting engine is bit-for-bit identical to
    /// `Atlas::builder(extended_table)` with the same configuration.
    ///
    /// Cost: the new segment is scanned once, and the retained profile state
    /// is carried over — which clones each column's exact distinct-value set,
    /// so an append is `O(segment rows + distinct values)` per column.
    /// That is far below a rebuild's full rescan on ordinary columns (the
    /// 1M-row census benchmark prepares ~60× faster), but the distinct-set
    /// clone means identifier-like columns (almost every value unique) keep
    /// append cost proportional to their cardinality.
    ///
    /// The original engine is untouched (it keeps answering queries over the
    /// old snapshot), and both engines share every pre-existing segment and
    /// the thread pool.
    pub fn append(&self, segment: impl Into<Arc<Segment>>) -> Result<Atlas> {
        let segment = segment.into();
        let table = Arc::new(self.table.append_segment(Arc::clone(&segment))?);
        let profile = Arc::new(self.profile.merge_segment(&segment));
        Ok(Atlas {
            table,
            config: self.config.clone(),
            profile,
            cut_strategy: Arc::clone(&self.cut_strategy),
            pool: Arc::clone(&self.pool),
        })
    }

    /// The stage context handed to the pipeline traits.
    fn context(&self) -> PipelineContext<'_> {
        PipelineContext {
            table: &self.table,
            profile: &self.profile,
            cut_config: &self.config.cut,
            cut_strategy: self.cut_strategy.as_ref(),
            drop_empty_regions: self.config.drop_empty_regions,
            pool: &self.pool,
        }
    }

    /// Open the root span one exploration reports into. Joins a surrounding
    /// trace (a served request, a coordinator shard call) when one is open on
    /// this thread, else roots a fresh one.
    fn explore_span(&self) -> atlas_obs::SpanGuard {
        let mut span = atlas_obs::span("explore");
        span.attr("dataset", self.table.name());
        span
    }

    /// Answer a user query with a ranked list of data maps.
    ///
    /// Every region's `selection` and the `working_set` range over the
    /// table's rows, whichever rows the explore ran over (see the module
    /// docs): an explore of a gathered working set expands each final region
    /// back to table coordinates, in parallel over regions.
    pub fn explore(&self, user_query: &ConjunctiveQuery) -> Result<MapResult> {
        self.explore_query(user_query, Output::Expanded)
    }

    /// [`Atlas::explore`] as a served answer: the same queries, counts,
    /// scores and timings, with no rows — every region released
    /// (`holds_rows() == false`) and the working set over zero rows, as
    /// [`MapResult::release_rows`] leaves them: the answer of
    /// [`Atlas::explore`] followed by [`MapResult::release_rows`], for less
    /// work. An explore of a gathered working set never builds a
    /// table-length region, and a composition's last re-cut counts its
    /// sub-regions instead of selecting them (see the module docs).
    pub fn explore_released(&self, user_query: &ConjunctiveQuery) -> Result<MapResult> {
        self.explore_query(user_query, Output::Released)
    }

    /// Evaluate the user query under `phase.query` and explore its rows.
    fn explore_query(&self, user_query: &ConjunctiveQuery, output: Output) -> Result<MapResult> {
        let total_span = self.explore_span();
        let query_span = atlas_obs::span("phase.query");
        let working = atlas_query::evaluate(user_query, &self.table)?;
        self.explore_working_set(user_query, working, query_span, total_span, output)
    }

    /// Same as [`Atlas::explore`] but over an externally supplied working set
    /// (used by the anytime engine, which works on samples). A sample of at
    /// most an eighth of the table is gathered like any other working set,
    /// so an iteration costs in proportion to its sample.
    pub fn explore_selection(
        &self,
        user_query: &ConjunctiveQuery,
        working: Bitmap,
    ) -> Result<MapResult> {
        let total_span = self.explore_span();
        let query_span = atlas_obs::span("phase.query");
        self.explore_working_set(
            user_query,
            working,
            query_span,
            total_span,
            Output::Expanded,
        )
    }

    /// Runs steps 1–4 under `total_span`, over the gathered rows of a working
    /// set of at most one row in [`GATHER_SHARE`] of the table's (the gather
    /// finishes `query_span`'s phase), over the table otherwise. Phase
    /// timings are derived from the phase spans themselves (one source of
    /// truth, recorded to the trace ring when tracing is enabled; the spans
    /// still measure when it isn't).
    fn explore_working_set(
        &self,
        user_query: &ConjunctiveQuery,
        working: Bitmap,
        query_span: atlas_obs::SpanGuard,
        mut total_span: atlas_obs::SpanGuard,
        output: Output,
    ) -> Result<MapResult> {
        let working_set_size = working.count();
        if working_set_size == 0 {
            return Err(AtlasError::EmptyWorkingSet);
        }
        let gather = gathers(working_set_size, working.len());
        // Bitmaps over the gathered rows never displace the pool's
        // table-length buffers, until the answer is built and the gathered
        // table dropped.
        let _bypass = gather.then(|| PoolBypass::new(working_set_size));
        let gathered = gather.then(|| self.table.gather(&working, &self.pool));
        let mut timings = PhaseTimings {
            query_ms: query_span.finish_ms(),
            ..PhaseTimings::default()
        };
        total_span.attr(
            "gathered_rows",
            gathered.as_ref().map_or(0, Table::num_rows),
        );
        let released = output == Output::Released;
        let explore = |ctx: &PipelineContext<'_>, working: &Bitmap, timings: &mut PhaseTimings| {
            let source = TableExploreSource::new(ctx, working);
            let (config, pool) = (&self.config, &*self.pool);
            explore_from_source(config, pool, &source, user_query, released, timings)
        };
        let (maps, skipped_attributes) = match &gathered {
            Some(compact) => {
                // A partial working set never hits the profile, so the
                // compact table runs with an empty one, whose counts the
                // engine's profile then takes.
                let profile = TableProfile::empty(compact.num_rows());
                let ctx = PipelineContext {
                    table: compact,
                    profile: &profile,
                    ..self.context()
                };
                let every_row = compact.full_selection();
                let outcome = explore(&ctx, &every_row, &mut timings);
                self.profile.add_counters(profile.counters());
                outcome?
            }
            None => explore(&self.context(), &working, &mut timings)?,
        };
        let regions = maps.iter().flat_map(|ranked| &ranked.map.regions);
        let counted = regions.filter(|region| !region.holds_rows()).count();
        total_span.attr("counted_regions", counted);
        let mut result = MapResult {
            maps,
            working_set_size,
            working_set: working,
            skipped_attributes,
            timings,
        };
        if gathered.is_some() && output == Output::Expanded {
            self.expand_regions(&mut result);
        }
        result.timings.total_ms = total_span.finish_ms();
        if output == Output::Released {
            result.release_rows();
        }
        Ok(result)
    }

    /// Map every region of an explore over gathered rows back to the
    /// table's rows ([`Bitmap::expand`] by the working set), one pool task
    /// per region.
    fn expand_regions(&self, result: &mut MapResult) {
        let working = &result.working_set;
        let regions: Vec<&Region> = result.maps.iter().flat_map(|m| &m.map.regions).collect();
        let parent = atlas_obs::current();
        let expanded = self.pool.par_map(&regions, |region| {
            let _trace = atlas_obs::with_context(parent);
            region.selection.expand(working)
        });
        let regions = result.maps.iter_mut().flat_map(|m| &mut m.map.regions);
        for (region, selection) in regions.zip(expanded) {
            region.selection = selection;
        }
    }

    /// Step 1 as a standalone operation (used by baselines and benchmarks).
    pub fn candidates(
        &self,
        user_query: &ConjunctiveQuery,
        working: &Bitmap,
    ) -> Result<CandidateSet> {
        generate_candidates_in_context(
            &self.context(),
            working,
            user_query,
            self.config.attributes.as_deref(),
        )
    }

    /// Stream the anytime refinement of Section 5.1 for a user query: an
    /// iterator of improving [`AnytimeIteration`]s computed on growing
    /// samples of the working set, stopping once the time budget of
    /// `options` is exhausted or the full working set has been explored.
    ///
    /// The first iteration is available after one pass over a small sample
    /// ("the user \[gets\] instant results"); callers that want only the final
    /// outcome can use [`Atlas::explore_anytime`].
    pub fn explore_iter(
        &self,
        user_query: &ConjunctiveQuery,
        options: ExploreOptions,
    ) -> Result<ExploreIter<'_>> {
        options.validate()?;
        let working = atlas_query::evaluate(user_query, &self.table)?;
        let working_size = working.count();
        if working_size == 0 {
            return Err(AtlasError::EmptyWorkingSet);
        }
        let rows = working.to_indices();
        let sample_size = options.initial_sample.min(working_size);
        Ok(ExploreIter {
            engine: self,
            query: user_query.clone(),
            working,
            rows,
            rng: StdRng::seed_from_u64(options.seed),
            options,
            start: Instant::now(),
            sample_size,
            done: false,
        })
    }

    /// Run the anytime loop to completion and collect every iteration (the
    /// blocking form of [`Atlas::explore_iter`]).
    pub fn explore_anytime(
        &self,
        user_query: &ConjunctiveQuery,
        options: ExploreOptions,
    ) -> Result<AnytimeResult> {
        let mut iter = self.explore_iter(user_query, options)?;
        let working_set_size = iter.working_set_size();
        let mut iterations = Vec::new();
        for step in &mut iter {
            iterations.push(step?);
        }
        let reached_full_data = iterations
            .last()
            .is_some_and(|it| it.sample_size == working_set_size);
        Ok(AnytimeResult {
            iterations,
            reached_full_data,
            working_set_size,
        })
    }
}

/// An explore runs over a gathered copy of its working set's rows
/// ([`Table::gather`]) when the working set holds at most one row in this
/// many of the table's. Measured on the 1M-row census (`default`, two
/// threads, random working sets, median of 21, ms); the first row since a
/// served composition counts its last level, the other two before:
///
/// | share of the rows | 1 % | 3 % | 6 % | 12.5 % | 17 % | 25 % | 35 % |
/// |---|---|---|---|---|---|---|---|
/// | over the table, released | 2.96 | 3.29 | 3.37 | 3.62 | 3.94 | 4.10 | 4.46 |
/// | gathered, released | 0.81 | 0.99 | 1.30 | 1.87 | 2.26 | 2.97 | 4.91 |
/// | gathered, expanded | 1.40 | 1.61 | 1.85 | 2.40 | 2.71 | 3.82 | 5.34 |
///
/// Gathering wins on time past an eighth too; what bounds it is memory. The
/// compact table costs about 8 bytes per census row — 1 MB at an eighth of
/// 1M rows, some 3.5 % of a served process's 28.6 MB peak — and grows with
/// the share while the time it saves shrinks, so the line sits where the
/// copy stays inside a few percent of the peak.
const GATHER_SHARE: usize = 8;

#[cfg(test)]
thread_local! {
    /// Set by the bit-identity tests to explore every working set over the
    /// table, so a gathered explore can be compared with the table path.
    pub(crate) static TABLE_PATH: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Whether a working set of `count` rows out of `rows` is gathered.
fn gathers(count: usize, rows: usize) -> bool {
    #[cfg(test)]
    if TABLE_PATH.with(std::cell::Cell::get) {
        return false;
    }
    count * GATHER_SHARE <= rows
}

/// Which answer an explore hands back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Output {
    /// Regions and working set over the table's rows ([`Atlas::explore`]).
    Expanded,
    /// No rows at all ([`Atlas::explore_released`]).
    Released,
}

/// The explore body once the working set is known, over any
/// [`ExploreSource`]: step 1 is the source's candidates (under
/// `phase.candidates`); step 2 clusters them by [`AtlasConfig::distance`]
/// over the contingency table the source counts for each pair; step 3
/// merges each cluster as [`AtlasConfig::merge`] names — the source's
/// product of its maps, or their composition, re-cut through the source —
/// one `pool` task per cluster, with results and the first error taken in
/// cluster order (a cluster of one map is that map, unmerged), and caps
/// every merged map against `user_query` ([`enforce_region_cap_within`]);
/// step 4 ranks the maps ([`rank_maps`]) and truncates them to
/// [`AtlasConfig::max_maps`]. Each phase runs under its `phase.*` span and
/// its time lands in `timings`. The ranked maps and the attributes the cuts
/// skipped.
///
/// The working set is the source's. [`Atlas::explore`] runs it over a
/// [`PipelineContext`] paired with a working set of its table, and the
/// distributed coordinator over its remote source, which holds no rows, so
/// the two differ only in where the rows are read. With
/// `released`, the caller keeps no rows of the answer, so a composition's
/// last level may be counted instead of partitioned
/// ([`ExploreSource::recut`]).
pub fn explore_from_source<'a>(
    config: &AtlasConfig,
    pool: &ThreadPool,
    source: &impl ExploreSource<'a>,
    user_query: &ConjunctiveQuery,
    released: bool,
    timings: &mut PhaseTimings,
) -> Result<(Vec<RankedMap>, Vec<String>)> {
    // Step 1: candidate maps, and the working set's statistics the cuts
    // read, which the merge phase re-reads and which die with the explore.
    let phase_span = atlas_obs::span("phase.candidates");
    let (candidates, stats) = source.candidates(user_query, config.attributes.as_deref())?;
    timings.candidates_ms = phase_span.finish_ms();
    if candidates.is_empty() {
        return Err(AtlasError::NoCuttableAttributes);
    }
    let drop_empty = config.drop_empty_regions;
    let merge = |members: &[DataMap]| match config.merge {
        MergeStrategy::Product => source.product(members, drop_empty),
        MergeStrategy::Composition => {
            let held = |attribute: &str| {
                let held = stats.iter().find(|(name, _)| name == attribute);
                held.map(|(_, stats)| &**stats)
            };
            CompositionMerge::compose(source, members, held, drop_empty, released)
        }
    };

    let phase_span = atlas_obs::span("phase.clustering");
    let matrix = distance_matrix_from(candidates.len(), config.distance, pool, |i, j| {
        source.contingency(&candidates.maps[i], &candidates.maps[j])
    })?;
    let clusters = cluster_maps_with_pool(&matrix, &config.clustering, pool)?;
    timings.clustering_ms = phase_span.finish_ms();

    // Pool workers inherit the dispatching thread's span context, so kernel
    // events of a merge attach under `phase.merge`.
    let phase_span = atlas_obs::span("phase.merge");
    let parent = atlas_obs::current();
    let mut maps: Vec<Option<DataMap>> = candidates.maps.into_iter().map(Some).collect();
    // A cluster of one map is that map: every merge returns it unchanged
    // (`tests/merge_algebra.rs` pins that), so it moves through as `Ok`
    // instead of being copied, and only the clusters of two or more
    // (`Err`) are merged.
    let grouped: Vec<std::result::Result<DataMap, Vec<DataMap>>> = clusters
        .iter()
        .map(|cluster| {
            let members: Vec<DataMap> = cluster.iter().filter_map(|&at| maps[at].take()).collect();
            <[DataMap; 1]>::try_from(members).map(|[only]| only)
        })
        .collect();
    debug_assert!(
        maps.iter().all(Option::is_none)
            && clusters.iter().map(Vec::len).sum::<usize>() == maps.len(),
        "every candidate belongs to exactly one cluster"
    );
    let to_merge: Vec<&Vec<DataMap>> = grouped.iter().filter_map(|c| c.as_ref().err()).collect();
    let mut merged = pool
        .par_map(&to_merge, |members| {
            let _trace = atlas_obs::with_context(parent);
            merge(members)
        })
        .into_iter();
    let mut maps = Vec::with_capacity(grouped.len());
    for cluster in grouped {
        let map = match cluster {
            Ok(only) => Some(only),
            Err(_) => merged.next().transpose()?.flatten(),
        };
        if let Some(map) = map {
            maps.push(enforce_region_cap_within(
                map,
                user_query,
                config.max_regions_per_map,
            ));
        }
    }
    timings.merge_ms = phase_span.finish_ms();

    let phase_span = atlas_obs::span("phase.rank");
    let mut ranked = rank_maps(maps);
    ranked.truncate(config.max_maps);
    timings.rank_ms = phase_span.finish_ms();
    Ok((ranked, candidates.skipped))
}

/// The readability constraint of Section 2 as a standalone transform: if the
/// map has more than `max_regions_per_map` regions, keep the largest ones and
/// fold the rest into a single remainder region — "other tuples" — whose
/// query is `user_query`, the query the map breaks down: the remainder is the
/// working set minus the kept regions, so its query keeps the user's
/// predicates and adds none. (It holds the folded regions' rows, so a row the
/// map leaves out — NULL in a cut attribute — is not among them.)
///
/// When every folded region holds its rows, the remainder's are their union,
/// over the rows the folded regions range over. When one was built without
/// rows ([`Region::released`], a served composition, every region at a
/// distributed coordinator), the remainder is too, counted: its count is the
/// sum of the folded counts, exact because a map's regions are disjoint.
///
/// This is the post-merge step [`explore_from_source`] applies to every
/// cluster's merged map.
pub fn enforce_region_cap_within(
    mut map: DataMap,
    user_query: &ConjunctiveQuery,
    max_regions_per_map: usize,
) -> DataMap {
    if map.num_regions() <= max_regions_per_map {
        return map;
    }
    // Keep the largest (max_regions - 1) regions, merge the tail.
    map.regions.sort_by_key(|r| std::cmp::Reverse(r.count()));
    let keep = max_regions_per_map.saturating_sub(1).max(1);
    let tail = map.regions.split_off(keep);
    if tail.is_empty() {
        return map;
    }
    let query = user_query.clone();
    map.regions.push(if tail.iter().all(Region::holds_rows) {
        let mut selection = Bitmap::new_empty(tail[0].selection.len());
        tail.iter()
            .for_each(|region| selection.union_with(&region.selection));
        Region::new(query, selection)
    } else {
        Region::released(query, tail.iter().map(Region::count).sum())
    });
    map
}

/// [`enforce_region_cap_within`] for a map of the whole table: the
/// remainder's query is the table's, with no predicate. `num_rows`, the
/// table's rows, is what the regions range over: the remainder takes its
/// row space from the regions it folds.
pub fn enforce_region_cap(map: DataMap, max_regions_per_map: usize, num_rows: usize) -> DataMap {
    let table = map.regions.first().map(|r| r.query.table.clone());
    let whole_table = ConjunctiveQuery::all(table.unwrap_or_default());
    let capped = enforce_region_cap_within(map, &whole_table, max_regions_per_map);
    debug_assert!(capped
        .regions
        .iter()
        .all(|r| !r.holds_rows() || r.selection.len() == num_rows));
    capped
}

/// One iteration of the anytime loop.
#[derive(Debug, Clone)]
pub struct AnytimeIteration {
    /// Number of sampled rows this iteration ran on.
    pub sample_size: usize,
    /// Wall-clock time elapsed since the start of the loop when this
    /// iteration finished.
    pub elapsed: Duration,
    /// The (approximate) result computed from the sample.
    pub result: MapResult,
}

/// The outcome of an anytime run.
#[derive(Debug, Clone)]
pub struct AnytimeResult {
    /// All iterations, in order of increasing sample size.
    pub iterations: Vec<AnytimeIteration>,
    /// True if the final iteration ran on the full working set (the result is
    /// then exact, not approximate).
    pub reached_full_data: bool,
    /// Size of the full working set.
    pub working_set_size: usize,
}

impl AnytimeResult {
    /// The most refined result available.
    pub fn best(&self) -> Option<&AnytimeIteration> {
        self.iterations.last()
    }
}

/// The streaming anytime exploration returned by [`Atlas::explore_iter`].
///
/// Each `next()` runs the full pipeline on a sample of the working set and
/// yields the resulting [`AnytimeIteration`]; samples grow geometrically
/// until the time budget is exhausted or the whole working set is covered.
#[derive(Debug)]
pub struct ExploreIter<'a> {
    engine: &'a Atlas,
    query: ConjunctiveQuery,
    working: Bitmap,
    rows: Vec<usize>,
    rng: StdRng,
    options: ExploreOptions,
    start: Instant,
    sample_size: usize,
    done: bool,
}

impl ExploreIter<'_> {
    /// Size of the full working set the samples are drawn from.
    pub fn working_set_size(&self) -> usize {
        self.rows.len()
    }

    /// Wall-clock time elapsed since the iterator was created.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }
}

impl Iterator for ExploreIter<'_> {
    type Item = Result<AnytimeIteration>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        let working_size = self.rows.len();
        let is_full = self.sample_size >= working_size;
        let sample = if is_full {
            self.working.clone()
        } else {
            sample_rows(
                &self.rows,
                self.sample_size,
                self.engine.table.num_rows(),
                &mut self.rng,
            )
        };
        let result = match self.engine.explore_selection(&self.query, sample) {
            Ok(result) => result,
            Err(err) => {
                self.done = true;
                return Some(Err(err));
            }
        };
        let iteration = AnytimeIteration {
            sample_size: self.sample_size.min(working_size),
            elapsed: self.start.elapsed(),
            result,
        };
        if is_full
            || self
                .options
                .budget
                .is_some_and(|b| self.start.elapsed() >= b)
        {
            self.done = true;
        } else {
            let next = (self.sample_size as f64 * self.options.growth_factor).ceil() as usize;
            self.sample_size = next.min(working_size);
        }
        Some(Ok(iteration))
    }
}

/// A sample of at most one in this many of the working set's rows is drawn
/// without copying the row ids; a larger one shuffles a copy. Measured on a
/// 1M-row working set (x86-64, 2 vCPUs, median of 9): the copy takes
/// 0.7 ms at any sample up to 1 % of the rows and 6.4 ms at 90 %; the map of
/// displaced positions draws 1 000 rows in 0.09 ms, 10 000 in 0.86 ms,
/// 125 000 in 21 ms and 900 000 in 197 ms (and 24 MB, against the copy's
/// 8 MB). The two cross near one row in 128, at 125 000 rows as at 1M.
const SPARSE_DRAW_SHARE: usize = 128;

/// Draw a uniform sample (without replacement) of `k` of the given row ids,
/// returned as a bitmap over `table_rows`.
///
/// A partial Fisher–Yates shuffle. For a sample of at most one row in
/// [`SPARSE_DRAW_SHARE`] it copies nothing: position `p` of the shuffled ids
/// holds `displaced[p]` once a swap moved something there, and `rows[p]`
/// until then. Step `i` swaps positions `i` and `j` and never reads position
/// `i` again, so only `j` is remembered — at most `k` entries. A larger
/// sample shuffles a copy of `rows`. Both make the same `gen_range` calls in
/// the same order, so they draw the same sample.
pub(crate) fn sample_rows(rows: &[usize], k: usize, table_rows: usize, rng: &mut StdRng) -> Bitmap {
    let k = k.min(rows.len());
    if k * SPARSE_DRAW_SHARE > rows.len() {
        let mut shuffled = rows.to_vec();
        for i in 0..k {
            let j = rng.gen_range(i..shuffled.len());
            shuffled.swap(i, j);
        }
        return Bitmap::from_indices(table_rows, shuffled[..k].iter().copied());
    }
    let mut displaced: HashMap<usize, usize> = HashMap::with_capacity(k);
    let mut sample = Vec::with_capacity(k);
    for i in 0..k {
        let j = rng.gen_range(i..rows.len());
        let at = |p: usize| displaced.get(&p).copied().unwrap_or(rows[p]);
        let (at_i, at_j) = (at(i), at(j));
        displaced.insert(j, at_i);
        sample.push(at_j);
    }
    Bitmap::from_indices(table_rows, sample)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cut::{CutConfig, NumericCutStrategy};
    use atlas_columnar::{DataType, Field, Schema, TableBuilder, Value};
    use atlas_query::Predicate;

    /// A survey-like table with two planted dependency groups:
    /// (education, salary) and (age, hours), plus an independent eye colour.
    fn survey(rows: usize) -> Arc<Table> {
        let schema = Schema::new(vec![
            Field::new("age", DataType::Int),
            Field::new("hours", DataType::Int),
            Field::new("education", DataType::Str),
            Field::new("salary", DataType::Str),
            Field::new("eye_color", DataType::Str),
        ])
        .unwrap();
        let mut b = TableBuilder::new("survey", schema);
        for i in 0..rows {
            let age = 17 + (i * 13) % 74;
            let hours = if age >= 65 {
                5 + (i % 8)
            } else {
                30 + (i % 20)
            };
            let education = if i % 3 == 0 { "HS" } else { "MSc" };
            let salary = if education == "MSc" && i % 10 < 8 {
                ">50k"
            } else {
                "<50k"
            };
            // Use i/3 so the eye colour is statistically independent of the
            // education group (which is a function of i % 3).
            let eye = ["Blue", "Green", "Brown"][(i / 3) % 3];
            b.push_row(&[
                Value::Int(age as i64),
                Value::Int(hours as i64),
                Value::Str(education.into()),
                Value::Str(salary.into()),
                Value::Str(eye.into()),
            ])
            .unwrap();
        }
        Arc::new(b.build().unwrap())
    }

    #[test]
    fn explore_returns_ranked_maps_within_constraints() {
        let table = survey(600);
        let atlas = Atlas::with_defaults(Arc::clone(&table)).unwrap();
        let result = atlas.explore(&ConjunctiveQuery::all("survey")).unwrap();
        assert!(result.num_maps() >= 2, "expected several maps");
        assert_eq!(result.working_set_size, 600);
        assert!(result.maps.len() <= atlas.config().max_maps);
        for ranked in &result.maps {
            assert!(ranked.map.num_regions() <= atlas.config().max_regions_per_map);
            assert!(ranked.map.regions_are_disjoint());
            assert!(
                ranked.map.max_predicates()
                    <= atlas.config().clustering.max_cluster_size
                        + ConjunctiveQuery::all("survey").num_predicates()
            );
            assert!(ranked.score >= 0.0);
        }
        // Scores are non-increasing.
        for pair in result.maps.windows(2) {
            assert!(pair[0].score >= pair[1].score - 1e-12);
        }
        assert!(result.timings.total_ms >= 0.0);
        assert!(result.best().is_some());
    }

    #[test]
    fn dependent_attributes_are_grouped_into_the_same_map() {
        let table = survey(900);
        let atlas = Atlas::with_defaults(Arc::clone(&table)).unwrap();
        let result = atlas.explore(&ConjunctiveQuery::all("survey")).unwrap();
        // Find the map containing education; it should also involve salary
        // (planted dependency), and never eye_color (independent).
        let education_map = result
            .maps
            .iter()
            .find(|m| m.map.source_attributes.iter().any(|a| a == "education"))
            .expect("some map should involve education");
        assert!(
            education_map
                .map
                .source_attributes
                .iter()
                .any(|a| a == "salary"),
            "education and salary should be merged, got {:?}",
            education_map.map.source_attributes
        );
        assert!(
            !education_map
                .map
                .source_attributes
                .iter()
                .any(|a| a == "eye_color"),
            "independent eye_color should not join the education map"
        );
    }

    #[test]
    fn explore_respects_the_user_query() {
        let table = survey(600);
        let atlas = Atlas::with_defaults(Arc::clone(&table)).unwrap();
        let query = ConjunctiveQuery::all("survey").and(Predicate::range("age", 17.0, 40.0));
        let result = atlas.explore(&query).unwrap();
        assert!(result.working_set_size < 600);
        for ranked in &result.maps {
            for region in &ranked.map.regions {
                // Every region query must still contain the user's predicate.
                assert!(region.query.predicate_on("age").is_some());
                // And select only rows inside the working set.
                assert!(region.selection.is_disjoint(&result.working_set.not()));
            }
        }
    }

    #[test]
    fn empty_working_set_is_an_error() {
        let table = survey(100);
        let atlas = Atlas::with_defaults(Arc::clone(&table)).unwrap();
        let query = ConjunctiveQuery::all("survey").and(Predicate::range("age", 500.0, 600.0));
        assert!(matches!(
            atlas.explore(&query),
            Err(AtlasError::EmptyWorkingSet)
        ));
    }

    #[test]
    fn unknown_table_attribute_in_query_is_an_error() {
        let table = survey(100);
        let atlas = Atlas::with_defaults(Arc::clone(&table)).unwrap();
        let query = ConjunctiveQuery::all("survey").and(Predicate::range("height", 0.0, 1.0));
        assert!(matches!(atlas.explore(&query), Err(AtlasError::Query(_))));
    }

    #[test]
    fn product_and_composition_strategies_both_work() {
        let table = survey(400);
        for merge in [MergeStrategy::Product, MergeStrategy::Composition] {
            let config = AtlasConfig {
                merge,
                ..AtlasConfig::default()
            };
            let atlas = Atlas::new(Arc::clone(&table), config).unwrap();
            let result = atlas.explore(&ConjunctiveQuery::all("survey")).unwrap();
            assert!(result.num_maps() >= 1, "{merge:?}");
            for ranked in &result.maps {
                assert!(ranked.map.regions_are_disjoint(), "{merge:?}");
            }
        }
    }

    #[test]
    fn attribute_restriction_limits_candidates() {
        let table = survey(300);
        let config = AtlasConfig {
            attributes: Some(vec!["age".to_string(), "hours".to_string()]),
            ..AtlasConfig::default()
        };
        let atlas = Atlas::new(Arc::clone(&table), config).unwrap();
        let result = atlas.explore(&ConjunctiveQuery::all("survey")).unwrap();
        for ranked in &result.maps {
            for attr in &ranked.map.source_attributes {
                assert!(attr == "age" || attr == "hours");
            }
        }
    }

    #[test]
    fn region_cap_folds_excess_regions_into_a_remainder() {
        let table = survey(500);
        // Force many regions: 4-way cuts, up to 3 attributes per cluster, but
        // cap the result at 6 regions.
        let config = AtlasConfig {
            cut: CutConfig {
                num_splits: 4,
                numeric: NumericCutStrategy::Median,
                ..CutConfig::default()
            },
            max_regions_per_map: 6,
            merge: MergeStrategy::Product,
            ..AtlasConfig::default()
        };
        let atlas = Atlas::new(Arc::clone(&table), config).unwrap();
        let result = atlas.explore(&ConjunctiveQuery::all("survey")).unwrap();
        for ranked in &result.maps {
            assert!(ranked.map.num_regions() <= 6);
        }
    }

    #[test]
    fn explore_selection_skips_query_evaluation() {
        let table = survey(200);
        let atlas = Atlas::with_defaults(Arc::clone(&table)).unwrap();
        let working = Bitmap::from_indices(200, 0..100);
        let result = atlas
            .explore_selection(&ConjunctiveQuery::all("survey"), working)
            .unwrap();
        assert_eq!(result.working_set_size, 100);
        for ranked in &result.maps {
            for region in &ranked.map.regions {
                for row in region.selection.iter_ones() {
                    assert!(row < 100);
                }
            }
        }
    }

    #[test]
    fn invalid_config_is_rejected_at_construction() {
        let table = survey(50);
        let config = AtlasConfig {
            max_maps: 0,
            ..AtlasConfig::default()
        };
        assert!(Atlas::new(table, config).is_err());
        assert!(Atlas::builder(survey(50))
            .config(AtlasConfig {
                max_maps: 0,
                ..AtlasConfig::default()
            })
            .build()
            .is_err());
    }

    #[test]
    fn builder_defaults_equal_the_new_constructor() {
        let table = survey(600);
        let via_builder = Atlas::builder(Arc::clone(&table)).build().unwrap();
        let via_new = Atlas::with_defaults(Arc::clone(&table)).unwrap();
        let query = ConjunctiveQuery::all("survey");
        let a = via_builder.explore(&query).unwrap();
        let b = via_new.explore(&query).unwrap();
        assert_eq!(a.num_maps(), b.num_maps());
        for (ra, rb) in a.maps.iter().zip(b.maps.iter()) {
            assert_eq!(ra.map.source_attributes, rb.map.source_attributes);
            assert_eq!(ra.map.region_counts(), rb.map.region_counts());
            assert!((ra.score - rb.score).abs() < 1e-12);
        }
    }

    #[test]
    fn second_explore_on_a_prepared_engine_recomputes_no_statistics() {
        // The acceptance criterion of the prepared-engine redesign: column
        // statistics are computed once at build time, so whole-table
        // explorations are pure profile hits — the second `explore` call does
        // no per-column statistics recomputation at all.
        let table = survey(600);
        let config = AtlasConfig {
            merge: MergeStrategy::Product,
            ..AtlasConfig::default()
        };
        let atlas = Atlas::new(Arc::clone(&table), config).unwrap();
        let query = ConjunctiveQuery::all("survey");

        let first = atlas.explore(&query).unwrap();
        let after_first = atlas.profile_stats();
        assert_eq!(
            after_first.misses, 0,
            "whole-table stats come from the profile"
        );
        assert!(after_first.hits >= table.num_columns());

        let second = atlas.explore(&query).unwrap();
        let after_second = atlas.profile_stats();
        assert_eq!(
            after_second.misses, 0,
            "the second explore must not recompute any column statistics"
        );
        assert!(after_second.hits > after_first.hits);
        assert_eq!(first.num_maps(), second.num_maps());
    }

    #[test]
    fn subset_explorations_fall_back_to_fresh_statistics() {
        let table = survey(600);
        let atlas = Atlas::with_defaults(Arc::clone(&table)).unwrap();
        let query = ConjunctiveQuery::all("survey").and(Predicate::range("age", 17.0, 40.0));
        atlas.explore(&query).unwrap();
        assert!(
            atlas.profile_stats().misses > 0,
            "subset working sets need fresh statistics"
        );
    }

    #[test]
    fn explore_iter_streams_improving_iterations() {
        let table = survey(4_000);
        let atlas = Atlas::with_defaults(Arc::clone(&table)).unwrap();
        let options = ExploreOptions {
            budget: None,
            initial_sample: 200,
            growth_factor: 4.0,
            seed: 7,
        };
        let mut sizes = Vec::new();
        for step in atlas
            .explore_iter(&ConjunctiveQuery::all("survey"), options)
            .unwrap()
        {
            let iteration = step.unwrap();
            assert!(iteration.result.num_maps() >= 1);
            sizes.push(iteration.sample_size);
        }
        assert!(sizes.len() >= 2, "several iterations expected: {sizes:?}");
        for pair in sizes.windows(2) {
            assert!(pair[1] > pair[0], "samples must grow: {sizes:?}");
        }
        assert_eq!(*sizes.last().unwrap(), 4_000, "ends on the full data");
    }

    #[test]
    fn explore_anytime_final_iteration_matches_plain_explore() {
        let table = survey(1_500);
        let atlas = Atlas::with_defaults(Arc::clone(&table)).unwrap();
        let query = ConjunctiveQuery::all("survey");
        let outcome = atlas
            .explore_anytime(&query, ExploreOptions::exhaustive())
            .unwrap();
        assert!(outcome.reached_full_data);
        let exact = atlas.explore(&query).unwrap();
        let last = &outcome.best().unwrap().result;
        assert_eq!(last.num_maps(), exact.num_maps());
        for (a, b) in last.maps.iter().zip(exact.maps.iter()) {
            assert_eq!(a.map.source_attributes, b.map.source_attributes);
            assert_eq!(a.map.region_counts(), b.map.region_counts());
        }
    }

    #[test]
    fn zero_budget_still_produces_one_iteration() {
        let atlas = Atlas::with_defaults(survey(2_000)).unwrap();
        let options = ExploreOptions {
            budget: Some(Duration::ZERO),
            initial_sample: 64,
            ..ExploreOptions::default()
        };
        let outcome = atlas
            .explore_anytime(&ConjunctiveQuery::all("survey"), options)
            .unwrap();
        assert_eq!(outcome.iterations.len(), 1);
        assert!(!outcome.reached_full_data);
        assert_eq!(outcome.iterations[0].sample_size, 64);
        assert_eq!(outcome.iterations[0].result.working_set_size, 64);
        assert_eq!(outcome.working_set_size, 2_000);
    }

    #[test]
    fn small_working_set_is_used_in_full_immediately() {
        let atlas = Atlas::with_defaults(survey(50)).unwrap();
        let outcome = atlas
            .explore_anytime(&ConjunctiveQuery::all("survey"), ExploreOptions::default())
            .unwrap();
        assert_eq!(outcome.iterations.len(), 1);
        assert!(outcome.reached_full_data);
        assert_eq!(outcome.best().unwrap().sample_size, 50);
    }

    #[test]
    fn approximate_maps_converge_to_the_exact_ones() {
        let atlas = Atlas::with_defaults(survey(6_000)).unwrap();
        let options = ExploreOptions {
            initial_sample: 200,
            growth_factor: 3.0,
            ..ExploreOptions::exhaustive()
        };
        let outcome = atlas
            .explore_anytime(&ConjunctiveQuery::all("survey"), options)
            .unwrap();
        assert!(outcome.reached_full_data);
        let first = &outcome.iterations[0].result;
        let exact = &outcome.best().unwrap().result;
        // The first 200-row sample already finds the top grouping attributes
        // of the full data …
        let attributes = |result: &MapResult| {
            let mut attributes = result.best().unwrap().map.source_attributes.clone();
            attributes.sort();
            attributes
        };
        assert_eq!(attributes(first), attributes(exact));
        // … and covers within sampling noise of the exact ones. A 200-row
        // sample cannot promise the exact region structure (the clustering
        // may split one region the full data merges), so the counts may
        // differ by one and covers are compared only when they agree.
        let approx_covers = first.best().unwrap().map.covers(first.working_set_size);
        let exact_covers = exact.best().unwrap().map.covers(exact.working_set_size);
        assert!(approx_covers.len().abs_diff(exact_covers.len()) <= 1);
        if approx_covers.len() == exact_covers.len() {
            for (a, e) in approx_covers.iter().zip(&exact_covers) {
                assert!((a - e).abs() < 0.15, "approx {a} vs exact {e}");
            }
        }
    }

    #[test]
    fn explore_iter_validates_options_and_working_sets() {
        let table = survey(100);
        let atlas = Atlas::with_defaults(Arc::clone(&table)).unwrap();
        let bad = ExploreOptions {
            growth_factor: 0.5,
            ..ExploreOptions::default()
        };
        assert!(atlas
            .explore_iter(&ConjunctiveQuery::all("survey"), bad)
            .is_err());
        let nan = ExploreOptions {
            budget: None,
            growth_factor: f64::NAN,
            ..ExploreOptions::default()
        };
        assert!(matches!(
            atlas.explore_anytime(&ConjunctiveQuery::all("survey"), nan),
            Err(AtlasError::InvalidConfig(_))
        ));
        let empty = ConjunctiveQuery::all("survey").and(Predicate::range("age", 500.0, 600.0));
        assert!(matches!(
            atlas.explore_iter(&empty, ExploreOptions::default()),
            Err(AtlasError::EmptyWorkingSet)
        ));
    }

    #[test]
    fn parallel_explore_is_bit_identical_to_sequential() {
        let table = survey(2_000);
        let query = ConjunctiveQuery::all("survey");
        for merge in [MergeStrategy::Product, MergeStrategy::Composition] {
            let base = AtlasConfig {
                merge,
                ..AtlasConfig::default()
            };
            let sequential =
                Atlas::new(Arc::clone(&table), base.clone().with_parallelism(1)).unwrap();
            let parallel =
                Atlas::new(Arc::clone(&table), base.clone().with_parallelism(4)).unwrap();
            assert_eq!(parallel.pool().threads(), 4);
            let a = sequential.explore(&query).unwrap();
            let b = parallel.explore(&query).unwrap();
            assert_eq!(a.num_maps(), b.num_maps(), "{merge:?}");
            assert_eq!(a.working_set_size, b.working_set_size);
            assert_eq!(a.skipped_attributes, b.skipped_attributes);
            for (ra, rb) in a.maps.iter().zip(b.maps.iter()) {
                assert_eq!(
                    ra.map.source_attributes, rb.map.source_attributes,
                    "{merge:?}"
                );
                assert_eq!(ra.map.region_counts(), rb.map.region_counts(), "{merge:?}");
                assert_eq!(ra.score.to_bits(), rb.score.to_bits(), "{merge:?}");
                for (qa, qb) in ra.map.regions.iter().zip(rb.map.regions.iter()) {
                    assert_eq!(
                        atlas_query::to_sql(&qa.query),
                        atlas_query::to_sql(&qb.query),
                        "{merge:?}"
                    );
                    assert_eq!(qa.selection, qb.selection, "{merge:?}");
                }
            }
        }
    }

    #[test]
    fn append_re_prepares_identically_to_a_rebuild() {
        // Split the survey into a prefix table and a tail segment; appending
        // the tail to a prefix engine must answer exactly like an engine
        // built from scratch over the whole table.
        let whole = survey(900);
        let query = ConjunctiveQuery::all("survey");
        for merge in [MergeStrategy::Product, MergeStrategy::Composition] {
            let config = AtlasConfig {
                merge,
                ..AtlasConfig::default()
            };
            // Rebuild the survey with small segments so there is a real tail.
            let mut b = {
                let schema = whole.schema().clone();
                atlas_columnar::TableBuilder::new("survey", schema).with_segment_rows(256)
            };
            for row in 0..whole.num_rows() {
                b.push_row(&whole.row(row).unwrap()).unwrap();
            }
            let table = b.build().unwrap();
            assert!(table.num_segments() >= 3);
            let (head, tail) = table.segments().split_at(table.num_segments() - 1);
            let prefix =
                Table::from_segments("survey", table.schema().clone(), head.to_vec()).unwrap();

            let appended = Atlas::new(Arc::new(prefix), config.clone())
                .unwrap()
                .append(Arc::clone(&tail[0]))
                .unwrap();
            let rebuilt = Atlas::new(Arc::new(table.clone()), config).unwrap();
            assert_eq!(appended.table().num_rows(), 900);

            let a = appended.explore(&query).unwrap();
            let b = rebuilt.explore(&query).unwrap();
            assert_eq!(a.num_maps(), b.num_maps(), "{merge:?}");
            assert_eq!(a.working_set_size, b.working_set_size);
            assert_eq!(a.skipped_attributes, b.skipped_attributes);
            for (ra, rb) in a.maps.iter().zip(b.maps.iter()) {
                assert_eq!(ra.map.source_attributes, rb.map.source_attributes);
                assert_eq!(ra.map.region_counts(), rb.map.region_counts());
                assert_eq!(ra.score.to_bits(), rb.score.to_bits(), "{merge:?}");
                for (qa, qb) in ra.map.regions.iter().zip(rb.map.regions.iter()) {
                    assert_eq!(
                        atlas_query::to_sql(&qa.query),
                        atlas_query::to_sql(&qb.query)
                    );
                    assert_eq!(qa.selection, qb.selection);
                }
            }
            // With a merge policy that never re-cuts, the appended engine's
            // whole-table exploration is served purely from the merged
            // profile — the acceptance criterion of incremental preparation.
            if merge == MergeStrategy::Product {
                assert_eq!(appended.profile_stats().misses, 0);
                assert!(appended.profile_stats().hits > 0);
            }
        }
    }

    #[test]
    fn append_rejects_mismatched_segments_and_keeps_the_old_engine() {
        let table = survey(300);
        let atlas = Atlas::with_defaults(Arc::clone(&table)).unwrap();
        let bad_schema =
            atlas_columnar::Schema::new(vec![atlas_columnar::Field::new("zzz", DataType::Int)])
                .unwrap();
        let bad = Segment::new(
            &bad_schema,
            vec![atlas_columnar::Column::Int(vec![Some(1)].into())],
        )
        .unwrap();
        assert!(atlas.append(bad).is_err());
        // The engine still answers over its original snapshot.
        let result = atlas.explore(&ConjunctiveQuery::all("survey")).unwrap();
        assert_eq!(result.working_set_size, 300);
    }

    #[test]
    fn the_prepared_engine_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Atlas>();
        assert_send_sync::<AtlasBuilder>();
        assert_send_sync::<crate::profile::TableProfile>();
    }
}
