//! Exploration sessions: the interaction loop of Figure 1.
//!
//! The user submits a query; Atlas answers with a handful of maps; the user
//! either drills down into one region (its query becomes the new user query)
//! or asks for a new map. A [`History`] records what each step showed, so the
//! user can drill into it or go back; a [`Session`] is a history beside the
//! engine that answers its steps.

use atlas_columnar::Table;
use atlas_core::{Atlas, AtlasConfig, AtlasError, MapResult, Result};
use atlas_query::ConjunctiveQuery;
use std::sync::Arc;

/// One step of an exploration: the query that was submitted and the maps that
/// came back.
#[derive(Debug, Clone)]
pub struct ExplorationStep {
    /// The query submitted at this step.
    pub query: ConjunctiveQuery,
    /// The result Atlas returned. Answers are immutable and shared: a step
    /// holds the same allocation as the result cache that served it. A
    /// served answer carries queries and counts, not rows (its rows were
    /// released, [`MapResult::release_rows`]); a [`Session`]'s own steps keep
    /// theirs.
    pub result: Arc<MapResult>,
}

impl ExplorationStep {
    /// Number of tuples in this step's working set.
    pub fn working_set_size(&self) -> usize {
        self.result.working_set_size
    }
}

/// The steps of an exploration, oldest first: what was asked and what was
/// shown. A step keeps the result it was answered with, so a drill always
/// addresses a region of a reply the user saw. Answering is the caller's
/// business — a [`Session`] asks its engine, a serving front-end its
/// dataset's current snapshot through a shared result cache.
#[derive(Debug, Clone, Default)]
pub struct History {
    steps: Vec<ExplorationStep>,
}

impl History {
    /// An empty history.
    pub fn new() -> Self {
        History::default()
    }

    /// Every retained step, oldest first.
    pub fn steps(&self) -> &[ExplorationStep] {
        &self.steps
    }

    /// The current (latest) step, if any.
    pub fn current(&self) -> Option<&ExplorationStep> {
        self.steps.last()
    }

    /// Exploration depth (number of retained steps).
    pub fn depth(&self) -> usize {
        self.steps.len()
    }

    /// Append a step: `result` is what answering `query` showed. The caller
    /// is responsible for the result actually answering `query`.
    pub fn record(
        &mut self,
        query: ConjunctiveQuery,
        result: impl Into<Arc<MapResult>>,
    ) -> &ExplorationStep {
        self.steps.push(ExplorationStep {
            query,
            result: result.into(),
        });
        self.steps.last().expect("step was just pushed")
    }

    /// The query a drill-down on (`map_idx`, `region_idx`) of the current
    /// step submits: that region's query. Errors name the missing index and
    /// leave the history untouched.
    pub fn drill_query(&self, map_idx: usize, region_idx: usize) -> Result<ConjunctiveQuery> {
        let step = self.current().ok_or_else(|| {
            AtlasError::InvalidConfig("cannot drill down before submitting a query".to_string())
        })?;
        let map = step.result.maps.get(map_idx).ok_or_else(|| {
            AtlasError::InvalidConfig(format!("no map #{map_idx} in current step"))
        })?;
        let region = map.map.regions.get(region_idx).ok_or_else(|| {
            AtlasError::InvalidConfig(format!("no region #{region_idx} in map #{map_idx}"))
        })?;
        Ok(region.query.clone())
    }

    /// Bound the history to its `max_depth` most recent steps, discarding
    /// the oldest ones (long-lived front-end sessions would otherwise grow
    /// without limit). The current step is never discarded; `back`
    /// afterwards walks only the retained steps. Returns how many steps
    /// were discarded.
    pub fn trim(&mut self, max_depth: usize) -> usize {
        let excess = self.steps.len().saturating_sub(max_depth.max(1));
        self.steps.drain(..excess);
        excess
    }

    /// Go back one step, returning the step that was abandoned.
    pub fn back(&mut self) -> Option<ExplorationStep> {
        self.steps.pop()
    }

    /// Clear the history.
    pub fn reset(&mut self) {
        self.steps.clear();
    }
}

/// An interactive exploration session over a single table: a [`History`]
/// whose steps the session's own engine answers.
#[derive(Debug, Clone)]
pub struct Session {
    engine: Atlas,
    history: History,
}

impl Session {
    /// Start a session over a table with the given engine configuration.
    pub fn new(table: Arc<Table>, config: AtlasConfig) -> Result<Self> {
        Ok(Session::with_engine(Atlas::new(table, config)?))
    }

    /// Start a session over an already prepared engine (built with
    /// [`Atlas::builder`], possibly with custom pipeline stages). The
    /// engine's build-time statistics profile is shared by every step of the
    /// session — and, since cloning an engine is cheap, by other sessions or
    /// threads exploring the same table.
    pub fn with_engine(engine: Atlas) -> Self {
        Session {
            engine,
            history: History::new(),
        }
    }

    /// Start a session with the default configuration.
    pub fn with_defaults(table: Arc<Table>) -> Result<Self> {
        Session::new(table, AtlasConfig::default())
    }

    /// The underlying engine.
    pub fn engine(&self) -> &Atlas {
        &self.engine
    }

    /// The exploration history.
    pub fn history(&self) -> &History {
        &self.history
    }

    /// The current (latest) step, if any.
    pub fn current(&self) -> Option<&ExplorationStep> {
        self.history.current()
    }

    /// Exploration depth (number of steps taken).
    pub fn depth(&self) -> usize {
        self.history.depth()
    }

    /// Submit a query: Atlas answers it with maps and the step is recorded.
    pub fn submit(&mut self, query: ConjunctiveQuery) -> Result<&ExplorationStep> {
        let result = self.engine.explore(&query)?;
        Ok(self.history.record(query, result))
    }

    /// Record a step whose result was computed elsewhere (a shared result
    /// cache such as `atlas_core::CachedAtlas`, a remote worker); see
    /// [`History::record`].
    pub fn record(
        &mut self,
        query: ConjunctiveQuery,
        result: impl Into<Arc<MapResult>>,
    ) -> &ExplorationStep {
        self.history.record(query, result)
    }

    /// See [`History::drill_query`].
    pub fn drill_query(&self, map_idx: usize, region_idx: usize) -> Result<ConjunctiveQuery> {
        self.history.drill_query(map_idx, region_idx)
    }

    /// Drill down: take region `region_idx` of map `map_idx` of the current
    /// step and submit its query as the next exploration step (the refine
    /// action of Figure 1).
    pub fn drill_down(&mut self, map_idx: usize, region_idx: usize) -> Result<&ExplorationStep> {
        let query = self.drill_query(map_idx, region_idx)?;
        self.submit(query)
    }

    /// Switch the session onto an already prepared engine over a newer
    /// snapshot of the same logical table (e.g. one [`Atlas::append`]
    /// re-prepared incrementally) and re-answer the step on screen with it:
    /// the refreshed result **replaces** the current step (depth is
    /// unchanged), earlier steps keep the results their snapshots produced.
    /// An error (e.g. the current query not evaluating on the new engine's
    /// table) leaves engine and history untouched.
    ///
    /// This is the in-process way to follow a growing table. No serving
    /// front-end calls it: a wire session holds only a [`History`], and each
    /// new step runs on the dataset's current snapshot, so the steps a
    /// client was shown never change under it.
    pub fn adopt_engine(&mut self, engine: Atlas) -> Result<Option<&ExplorationStep>> {
        let refreshed = match self.history.current() {
            Some(current) => Some(engine.explore(&current.query)?),
            None => None,
        };
        self.engine = engine;
        Ok(match (refreshed, self.history.back()) {
            (Some(result), Some(current)) => Some(self.history.record(current.query, result)),
            _ => None,
        })
    }

    /// Go back one step, returning the step that was abandoned.
    pub fn back(&mut self) -> Option<ExplorationStep> {
        self.history.back()
    }

    /// Reset the session, clearing the history.
    pub fn reset(&mut self) {
        self.history.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atlas_datagen::CensusGenerator;

    fn census_session() -> Session {
        let table = Arc::new(CensusGenerator::with_rows(2000, 3).generate());
        Session::with_defaults(table).unwrap()
    }

    /// One census batch with a different seed, as one segment of the
    /// session's table schema, appended to the session's engine.
    fn grown_engine(session: &Session, rows: usize, seed: u64) -> Atlas {
        let batch = CensusGenerator::with_rows(rows, seed).generate();
        let mut b = atlas_columnar::TableBuilder::new("census", batch.schema().clone())
            .with_segment_rows(usize::MAX);
        for row in 0..batch.num_rows() {
            b.push_row(&batch.row(row).unwrap()).unwrap();
        }
        let built = b.build().unwrap();
        assert_eq!(built.num_segments(), 1);
        session
            .engine()
            .append(Arc::clone(&built.segments()[0]))
            .unwrap()
    }

    #[test]
    fn submit_and_history() {
        let mut session = census_session();
        assert_eq!(session.depth(), 0);
        assert!(session.current().is_none());
        let step = session.submit(ConjunctiveQuery::all("census")).unwrap();
        assert_eq!(step.working_set_size(), 2000);
        assert!(step.result.num_maps() >= 1);
        assert_eq!(session.depth(), 1);
        assert!(session.current().is_some());
        assert_eq!(session.history().steps().len(), 1);
    }

    #[test]
    fn drill_down_narrows_the_working_set() {
        let mut session = census_session();
        session.submit(ConjunctiveQuery::all("census")).unwrap();
        let before = session.current().unwrap().working_set_size();
        let step = session.drill_down(0, 0).unwrap();
        assert!(step.working_set_size() < before);
        assert!(step.working_set_size() > 0);
        assert_eq!(session.depth(), 2);
        // The drill-down query is the region query, so it has at least one predicate.
        assert!(session.current().unwrap().query.num_predicates() >= 1);
    }

    #[test]
    fn back_pops_history() {
        let mut session = census_session();
        session.submit(ConjunctiveQuery::all("census")).unwrap();
        session.drill_down(0, 0).unwrap();
        assert_eq!(session.depth(), 2);
        let popped = session.back().unwrap();
        assert!(popped.query.num_predicates() >= 1);
        assert_eq!(session.depth(), 1);
        session.reset();
        assert_eq!(session.depth(), 0);
        assert!(session.back().is_none());
    }

    #[test]
    fn drill_down_without_a_step_or_with_bad_indices_fails() {
        let mut session = census_session();
        assert!(session.drill_down(0, 0).is_err());
        session.submit(ConjunctiveQuery::all("census")).unwrap();
        assert!(session.drill_down(99, 0).is_err());
        assert!(session.drill_down(0, 99).is_err());
        // The failed drill-downs must not have altered the history.
        assert_eq!(session.depth(), 1);
    }

    #[test]
    fn out_of_range_drill_errors_name_the_missing_index_and_keep_history_intact() {
        let mut session = census_session();
        session.submit(ConjunctiveQuery::all("census")).unwrap();
        let sqls = |session: &Session| -> Vec<String> {
            let steps = session.history().steps();
            steps
                .iter()
                .map(|s| atlas_query::to_sql(&s.query))
                .collect()
        };
        let before = sqls(&session);

        let err = session.drill_down(42, 0).unwrap_err();
        assert!(err.to_string().contains("map #42"), "{err}");
        let num_maps = session.current().unwrap().result.num_maps();
        let err = session.drill_down(0, 1_000).unwrap_err();
        assert!(err.to_string().contains("region #1000"), "{err}");
        // An index one past the end fails exactly like a huge one.
        assert!(session.drill_down(num_maps, 0).is_err());

        assert_eq!(
            before,
            sqls(&session),
            "failed drills must not rewrite history"
        );
        // The session is still usable: a valid drill works afterwards.
        assert!(session.drill_down(0, 0).is_ok());
        assert_eq!(session.depth(), 2);
    }

    #[test]
    fn back_past_the_root_is_a_clean_no_op() {
        let mut session = census_session();
        session.submit(ConjunctiveQuery::all("census")).unwrap();
        session.drill_down(0, 0).unwrap();
        assert!(session.back().is_some());
        assert!(session.back().is_some());
        assert_eq!(session.depth(), 0);
        // Going back past the root neither panics nor fabricates steps, no
        // matter how often it is repeated.
        for _ in 0..3 {
            assert!(session.back().is_none());
            assert_eq!(session.depth(), 0);
            assert!(session.current().is_none());
        }
        // Drilling now fails (there is no current step) but the session still
        // accepts fresh queries.
        assert!(session.drill_down(0, 0).is_err());
        assert!(session.submit(ConjunctiveQuery::all("census")).is_ok());
    }

    #[test]
    fn reset_clears_history_but_keeps_the_engine_usable() {
        let mut session = census_session();
        session.submit(ConjunctiveQuery::all("census")).unwrap();
        session.drill_down(0, 0).unwrap();
        session.reset();
        assert_eq!(session.depth(), 0);
        assert!(session.current().is_none());
        assert!(session.back().is_none());
        assert!(session.drill_down(0, 0).is_err());
        let step = session.submit(ConjunctiveQuery::all("census")).unwrap();
        assert_eq!(step.working_set_size(), 2000);
        assert_eq!(session.depth(), 1);
    }

    #[test]
    fn trim_history_bounds_the_session_but_keeps_the_current_step() {
        let mut session = census_session();
        session.submit(ConjunctiveQuery::all("census")).unwrap();
        for _ in 0..3 {
            session.drill_down(0, 0).ok();
            session
                .submit(ConjunctiveQuery::all("census"))
                .expect("whole-table query always works");
        }
        // Cloning a history copies pointers to the answers, not the answers.
        let mut history = session.history().clone();
        let depth = history.depth();
        assert!(depth >= 4);
        assert!(Arc::ptr_eq(
            &history.current().unwrap().result,
            &session.current().unwrap().result
        ));
        let current_sql = atlas_query::to_sql(&history.current().unwrap().query);

        assert_eq!(history.trim(depth + 1), 0, "under the cap: no-op");
        let discarded = history.trim(2);
        assert_eq!(discarded, depth - 2);
        assert_eq!(history.depth(), 2);
        assert_eq!(
            atlas_query::to_sql(&history.current().unwrap().query),
            current_sql,
            "the step on screen survives trimming"
        );
        // A zero cap still keeps the current step.
        assert_eq!(history.trim(0), 1);
        assert_eq!(history.depth(), 1);
        assert!(history.current().is_some());
        assert_eq!(
            session.depth(),
            depth,
            "the session's own history is untouched"
        );
    }

    #[test]
    fn record_joins_the_history_like_submit() {
        let mut session = census_session();
        let query = ConjunctiveQuery::all("census");
        // Compute the result outside the session (as a shared server-side
        // cache would) and record it.
        let result = Arc::new(session.engine().explore(&query).unwrap());
        let expected_maps = result.num_maps();
        session.record(query.clone(), Arc::clone(&result));
        assert_eq!(session.depth(), 1);
        assert_eq!(session.current().unwrap().query, query);
        assert!(
            Arc::ptr_eq(&session.current().unwrap().result, &result),
            "recording a shared answer shares it"
        );

        // drill_query mirrors drill_down's lookups without touching history.
        let drill = session.drill_query(0, 0).unwrap();
        assert!(drill.num_predicates() >= 1);
        assert_eq!(session.depth(), 1);
        assert!(session.drill_query(expected_maps, 0).is_err());

        // And the recorded step drills exactly like a submitted one.
        let step = session.drill_down(0, 0).unwrap();
        assert!(step.working_set_size() < 2000);
        assert_eq!(session.depth(), 2);
    }

    #[test]
    fn a_history_needs_no_engine() {
        let session = census_session();
        let query = ConjunctiveQuery::all("census");
        let mut history = History::new();
        assert!(history.drill_query(0, 0).is_err());
        history.record(query.clone(), session.engine().explore(&query).unwrap());
        let region = &history.current().unwrap().result.maps[0].map.regions[0];
        assert_eq!(history.drill_query(0, 0).unwrap(), region.query);
        assert!(history.drill_query(0, 1_000).is_err());
        assert_eq!(history.depth(), 1);
        assert_eq!(history.back().unwrap().query, query);
        history.record(query.clone(), session.engine().explore(&query).unwrap());
        history.reset();
        assert_eq!(history.depth(), 0);
    }

    #[test]
    fn bad_sql_is_reported() {
        let mut session = census_session();
        // A query over a column the table does not have.
        let query = atlas_query::parse_query("SELECT * FROM census WHERE agee BETWEEN 1 AND 2");
        assert!(session.submit(query.unwrap()).is_err());
        assert_eq!(session.depth(), 0);
    }

    #[test]
    fn adopt_engine_refreshes_the_current_step_without_re_profiling() {
        let mut session = census_session();
        session.submit(ConjunctiveQuery::all("census")).unwrap();
        session.drill_down(0, 0).unwrap();
        let first = Arc::clone(&session.history().steps()[0].result);
        let drilled = session.current().unwrap().clone();

        // The engine was re-prepared once, outside the session (append
        // path); the session adopts it instead of re-profiling the segment.
        let grown = grown_engine(&session, 400, 13);
        let refreshed = session
            .adopt_engine(grown)
            .unwrap()
            .expect("a step was on screen");
        assert_eq!(refreshed.query, drilled.query);
        assert!(refreshed.working_set_size() > drilled.working_set_size());
        assert_eq!(session.depth(), 2, "refresh replaces, never stacks");
        assert_eq!(session.engine().table().num_rows(), 2400);
        // Earlier steps keep the results their snapshot produced.
        assert!(Arc::ptr_eq(&session.history().steps()[0].result, &first));
        assert_eq!(first.working_set_size, 2000);
        // Going back shows the whole-table step as answered, and the next
        // step runs on the adopted engine.
        session.back();
        assert_eq!(session.current().unwrap().working_set_size(), 2000);
        let step = session.submit(ConjunctiveQuery::all("census")).unwrap();
        assert_eq!(step.working_set_size(), 2400);
    }

    #[test]
    fn adopt_engine_before_any_step_only_swaps_the_engine() {
        let mut session = census_session();
        let grown = grown_engine(&session, 100, 5);
        assert!(session.adopt_engine(grown).unwrap().is_none());
        assert_eq!(session.engine().table().num_rows(), 2100);
        assert_eq!(session.depth(), 0);
    }

    #[test]
    fn with_engine_accepts_a_prepared_engine() {
        let table = Arc::new(CensusGenerator::with_rows(2000, 3).generate());
        // Product merge never re-cuts inside regions, so a whole-table step
        // is answered purely from the engine's build-time statistics profile.
        let engine = Atlas::builder(Arc::clone(&table))
            .config(AtlasConfig::fast())
            .build()
            .unwrap();
        let mut session = Session::with_engine(engine);
        let step = session.submit(ConjunctiveQuery::all("census")).unwrap();
        assert!(step.result.num_maps() >= 1);
        assert_eq!(session.engine().profile_stats().misses, 0);
    }
}
