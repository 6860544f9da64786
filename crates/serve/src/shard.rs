//! The shard role of distributed exploration: push-down work over a segment
//! subset.
//!
//! A shard server is an ordinary `atlas-serve` process; every server answers
//! the `POST /shard/*` endpoints. The coordinator assigns each shard a set of
//! **global segment indices** and pushes the row-touching work of an explore
//! down to them: working-set evaluation, answered in one `/shard/working`
//! call together with the per-column summaries of the working rows (value
//! and category counts included), region partitioning and the counts the
//! rest of the explore reads, and — for the columns with more values than a
//! summary counts — numeric value runs and category counts.
//! (Map distances are counted here: a pair of cuts' contingency cells are
//! counts like any other, taken where the rows are, and the coordinator
//! scores them.) A `/shard/working`, `/shard/values` or `/shard/categories`
//! answer is **per run**: one partial per run of consecutive global
//! segments among those requested, folded here in ascending segment order —
//! the summaries merged, the values concatenated, the category counts
//! folded — so the coordinator folds one partial per run where it folded
//! one per segment, in the same order. A shard never folds segments that
//! are not adjacent (an interleaved assignment such as `[0, 2, 4]` answers
//! three runs of one segment): only over adjacent segments does folding the
//! runs give the fold of the segments. A `/shard/select` answer is integer
//! counts summed over the shard's segments, which the coordinator sums over
//! the shards in any order. Either way the results are bit-identical no
//! matter how segments were assigned to shards.
//!
//! `POST /shard/select` partitions the working set for every cut of an
//! explore at once and counts what the explore reads. Its body is
//! `{"dataset", "sql", "segments", "partitions": [{"attribute", "kind":
//! "ranges", "bounds"} | {"attribute", "kind": "groups", "groups"}, …],
//! "products": [[0], [1], [0, 1], …]}` (bounds as one hex run of `(lo, hi)`
//! bit-pattern pairs, groups as arrays of values, each product a list of
//! indices into `partitions`). The reply is one `{"segments": […], "cells":
//! […]}` document: per product, its cells summed over the segments — a cut's
//! region counts, a pair of cuts' contingency table, a longer product's cells
//! row-major — and no region's rows.
//!
//! Shards are stateless with respect to the partitioning: requests carry the
//! segment indices and the (restricted SQL) queries, and the shard evaluates
//! them against cached single-segment views of its registry datasets. The
//! cache is keyed by dataset generation, so appends invalidate it naturally.
//! Each cached view also remembers two answers, once asked:
//!
//! * the column summaries under the all-rows selection — the one answer that
//!   does not depend on the query whenever the working set covers the whole
//!   segment (it holds the category counts too) — so a whole-table explore
//!   scans a segment once per generation instead of once per request;
//! * the **last working set**: the SQL text as it was sent, and the segment's
//!   rows it selects. A coordinator prints the SQL of an explore once and
//!   sends those bytes with every call, so the first call (`/shard/working`)
//!   evaluates and every later one — `/shard/select`, a `/shard/values` or
//!   `/shard/categories` round, and any retry, hedge or repeat of a
//!   truncated answer — finds the rows already there, without parsing the
//!   query or counting the bitmap again ([`working_sets`], the one function
//!   every data handler gets its rows from).
//!
//! There is no capacity and no knob: the answers live and die with the
//! generation's views, and a segment a working set cuts through is
//! summarised straight into its run's summaries on every call. The working
//! set is one entry per view on purpose and not a cache: it exists to stop
//! one explore from asking a segment the same question on every round, it
//! is replaced by the next different SQL, and explores that interleave with
//! different SQL simply evaluate as often as they did before it existed —
//! correctly, since an entry is only ever returned for the text it was
//! evaluated from. Nothing remembers an assignment or a run: a run is read
//! off each request's segment list.
//!
//! A shard answers only this protocol: the integration suites inject their
//! faults — delays, refusals, error statuses, cut, corrupt or garbled
//! replies, dead shards — in a proxy between the coordinator and the shard
//! (`tests/common/mod.rs`), where a real network would.
//!
//! A `/shard/working` partial answers its run's per-segment counts and
//! folded summaries; the working rows stay here, for the explore's later
//! rounds. A traced request's `shard.request` span opens before its body is
//! parsed, which is its `shard.parse` child. What a partial
//! and a count reply are held to is decided in [`crate::wire::frames`],
//! next to the decoders.

use crate::http::{self, Request, Response};
use crate::metrics::Endpoint;
use crate::registry::{Dataset, Registry};
use crate::wire::frames::{
    count_reply_to_json, get_items, get_str, hex_f64s, meta_to_json, partition_from_json,
    products_from_json, working_run_to_json,
};
use crate::wire::{self, Json};
use atlas_columnar::{merge_category_counts, Bitmap, ColumnSummary, Table};
use atlas_core::{AtlasError, CutSource, TableCutSource};
use atlas_query::parse_query;
use atlas_stats::ContingencyTable;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

/// Per-server shard state: the single-segment view cache, and how often a
/// working set was evaluated or found.
#[derive(Default)]
pub(crate) struct ShardState {
    /// dataset name → (generation, one view per global segment, in segment
    /// order).
    tables: Mutex<HashMap<String, SegmentViews>>,
    /// Segment-local working sets evaluated from their SQL …
    working_evaluated: AtomicU64,
    /// … and answered from the one a view remembered.
    working_reused: AtomicU64,
}

/// One dataset's cached push-down view: the generation it was built from
/// and one [`SegmentView`] per global segment, in segment order.
type SegmentViews = (usize, Arc<Vec<SegmentView>>);

/// One global segment as the data endpoints see it: a single-segment table
/// (named after the dataset so shipped queries parse against it) plus the two
/// answers it remembers (see the module docs). Neither is filled under the
/// cache mutex, so a concurrent worker on another segment is not serialised
/// behind a scan.
struct SegmentView {
    table: Table,
    /// [`summarize`] under the all-rows selection.
    summaries: OnceLock<Vec<ColumnSummary>>,
    /// The SQL text last evaluated on this segment, and its answer.
    working: Mutex<Option<(String, Working)>>,
}

/// A segment-local working set: the rows a query selects, in the segment's
/// own row indices, and how many they are.
#[derive(Clone)]
struct Working {
    rows: Arc<Bitmap>,
    count: usize,
}

impl SegmentView {
    /// Whether a working set selects every row of the segment, i.e. whether
    /// the whole-segment summaries are the summaries for it.
    fn covered_by(&self, working: &Working) -> bool {
        working.count == self.table.num_rows()
    }

    fn working_slot(&self) -> MutexGuard<'_, Option<(String, Working)>> {
        // An entry is replaced whole, so a poisoned lock still guards a valid
        // one.
        match self.working.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// The remembered working set, if it is the one `sql` selects.
    fn remembered(&self, sql: &str) -> Option<Working> {
        match &*self.working_slot() {
            Some((text, working)) if text == sql => Some(working.clone()),
            _ => None,
        }
    }

    /// Remember `working` as what `sql` selects, in place of whatever was
    /// remembered before.
    fn remember(&self, sql: &str, working: &Working) {
        *self.working_slot() = Some((sql.to_string(), working.clone()));
    }
}

impl ShardState {
    /// How many segment-local working sets this server `(evaluated, reused)`
    /// so far — what `/metrics` reports.
    pub(crate) fn working_set_counts(&self) -> (u64, u64) {
        (
            self.working_evaluated.load(Ordering::Relaxed),
            self.working_reused.load(Ordering::Relaxed),
        )
    }

    /// The dataset's segments as cached views (one per global segment),
    /// rebuilt — remembered answers included — when the dataset generation
    /// moves.
    fn segment_views(&self, dataset: &Dataset) -> Result<Arc<Vec<SegmentView>>, AtlasError> {
        let (engine, generation) = dataset.snapshot();
        let mut cache = match self.tables.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        if let Some((cached_generation, views)) = cache.get(dataset.name()) {
            if *cached_generation == generation {
                return Ok(Arc::clone(views));
            }
        }
        let table = engine.table();
        let views: Vec<SegmentView> = table
            .segments()
            .iter()
            .map(|segment| {
                let table = Table::from_segments(
                    dataset.name(),
                    table.schema().clone(),
                    vec![Arc::clone(segment)],
                )?;
                Ok(SegmentView {
                    summaries: OnceLock::new(),
                    working: Mutex::new(None),
                    table,
                })
            })
            .collect::<Result<_, AtlasError>>()?;
        let views = Arc::new(views);
        cache.insert(dataset.name().to_string(), (generation, Arc::clone(&views)));
        Ok(views)
    }
}

/// The `Endpoint` of a `/shard/<action>` path segment.
pub(crate) fn endpoint_of(action: &str) -> Option<Endpoint> {
    Some(match action {
        "meta" => Endpoint::ShardMeta,
        "working" => Endpoint::ShardWorking,
        "values" => Endpoint::ShardValues,
        "categories" => Endpoint::ShardCategories,
        "select" => Endpoint::ShardSelect,
        _ => return None,
    })
}

/// Serve one shard endpoint.
pub(crate) fn handle(
    registry: &Registry,
    state: &ShardState,
    endpoint: Endpoint,
    request: &Request,
) -> Response {
    // The request's root span opens first, so parsing the body is its own
    // child.
    let mut shard_span = shard_span(endpoint, request);
    let body = match request.body_text() {
        Some(text) if !text.trim().is_empty() => {
            let parse = shard_span.as_ref().map(|_| atlas_obs::span("shard.parse"));
            let parsed = wire::parse(text);
            drop(parse);
            match parsed {
                Ok(json) => json,
                Err(error) => return Response::error(400, error.to_string()),
            }
        }
        _ => Json::object(Vec::<(String, Json)>::new()),
    };
    match answer(registry, state, endpoint, &body, shard_span.as_mut()) {
        Ok(mut reply) => {
            // Close the request's root span before snapshotting so it is in
            // the ring.
            let trace_id = shard_span.and_then(|span| span.context().map(|ctx| ctx.trace_id));
            if let Some(trace_id) = trace_id {
                append_shard_spans(&mut reply, trace_id);
            }
            // The one place a data reply is encoded, spans or not.
            Response::json(200, &reply)
        }
        Err(response) => response,
    }
}

/// When the coordinator sent an `x-atlas-trace-id` header and tracing is on,
/// open a **fresh local** root span for this shard request. The local trace
/// id is never the coordinator's: in-process shard servers share one process
/// tracer, and reusing the remote id would interleave several shards' spans
/// into one trace. The remote id rides along as an attribute instead, and
/// the coordinator re-parents the returned spans under its own call span.
fn shard_span(endpoint: Endpoint, request: &Request) -> Option<atlas_obs::SpanGuard> {
    let remote = request.header(http::TRACE_HEADER)?;
    if !atlas_obs::enabled() {
        return None;
    }
    let mut span = atlas_obs::span_root("shard.request");
    span.attr("endpoint", endpoint.label());
    span.attr("remote_trace", remote);
    Some(span)
}

/// Append this shard request's recorded spans to a successful reply as a
/// top-level `"spans"` member, for the coordinator to reassemble. Error
/// answers travel unchanged.
fn append_shard_spans(reply: &mut Json, trace_id: u64) {
    let spans = atlas_obs::tracer().trace(trace_id);
    if spans.is_empty() {
        return;
    }
    if let Json::Obj(members) = reply {
        members.push(("spans".to_string(), crate::trace::spans_to_json(&spans)));
    }
}

/// Compute the real answer of one shard data endpoint, or the error
/// response. `span` is the request's `shard.request` span when it is traced;
/// an endpoint that works on a working set tags it with how the rows were
/// come by.
fn answer(
    registry: &Registry,
    state: &ShardState,
    endpoint: Endpoint,
    body: &Json,
    span: Option<&mut atlas_obs::SpanGuard>,
) -> Result<Json, Response> {
    let dataset =
        crate::server::resolve_dataset(registry, body.get("dataset").and_then(Json::str))?;
    if endpoint == Endpoint::ShardMeta {
        return Ok(meta(dataset));
    }
    let views = state
        .segment_views(dataset)
        .map_err(|error| crate::server::error_response(&error))?;
    // Every handler of a working set gets it from the one function.
    let sets = || working_sets(state, &views, body, span);
    let run = match endpoint {
        Endpoint::ShardWorking => sets().map(|sets| working(&sets)),
        Endpoint::ShardValues => sets().and_then(|sets| values(&sets, body)),
        Endpoint::ShardCategories => sets().and_then(|sets| categories(&sets, body)),
        Endpoint::ShardSelect => sets().and_then(|sets| select(&sets, body)),
        _ => return Err(Response::error(404, "unknown shard endpoint")),
    };
    run.map_err(|fail| match fail {
        Fail::Frame(message) => Response::error(400, message),
        Fail::Engine(error) => crate::server::error_response(&error),
    })
}

/// Why a shard request failed: a malformed frame (the coordinator's fault,
/// `400`) or an engine error while computing the answer.
enum Fail {
    Frame(String),
    Engine(AtlasError),
}

impl From<String> for Fail {
    fn from(message: String) -> Fail {
        Fail::Frame(message)
    }
}

impl From<AtlasError> for Fail {
    fn from(error: AtlasError) -> Fail {
        Fail::Engine(error)
    }
}

fn meta(dataset: &Dataset) -> Json {
    let (engine, generation) = dataset.snapshot();
    let table = engine.table();
    let segments = table.segments().iter().map(|s| s.num_rows()).collect();
    let fields = table
        .schema()
        .fields()
        .iter()
        .map(|f| (f.name.clone(), f.dtype))
        .collect();
    meta_to_json(dataset.name(), &(generation, segments, fields))
}

/// The requested global segment indices, each resolved to its view (an index
/// past the dataset's segments is the coordinator's mistake).
fn segment_list<'v>(
    views: &'v [SegmentView],
    body: &Json,
) -> Result<Vec<(usize, &'v SegmentView)>, Fail> {
    let items = get_items(body, "segments")?;
    items
        .iter()
        .map(|item| {
            let idx = item
                .index()
                .ok_or_else(|| "non-integral segment index".to_string())?;
            match views.get(idx) {
                Some(view) => Ok((idx, view)),
                None => Err(Fail::Frame(format!(
                    "segment {idx} out of range (dataset has {})",
                    views.len()
                ))),
            }
        })
        .collect()
}

/// One requested segment of a data request: its global index, its view, and
/// the rows of it the shipped query selects.
type SegmentWorking<'v> = (usize, &'v SegmentView, Working);

/// The common preamble of the endpoints that work on a working set, and the
/// only place one is evaluated: per requested segment, the rows the shipped
/// query selects — the remembered ones when the SQL is, byte for byte, what
/// the view evaluated last, freshly evaluated (and remembered in their place)
/// otherwise. The query is parsed when the first segment needs evaluating, so
/// a request that finds every segment's rows parses nothing.
fn working_sets<'v>(
    state: &ShardState,
    views: &'v [SegmentView],
    body: &Json,
    span: Option<&mut atlas_obs::SpanGuard>,
) -> Result<Vec<SegmentWorking<'v>>, Fail> {
    let sql = get_str(body, "sql")?;
    let segments = segment_list(views, body)?;
    let mut query = None;
    let (mut evaluated, mut reused) = (0u64, 0u64);
    let mut sets = Vec::with_capacity(segments.len());
    for (seg, view) in segments {
        let working = match view.remembered(sql) {
            Some(working) => {
                reused += 1;
                working
            }
            None => {
                let query = match &query {
                    Some(parsed) => parsed,
                    None => query.insert(parse_query(sql).map_err(AtlasError::from)?),
                };
                let rows = atlas_query::evaluate(query, &view.table).map_err(AtlasError::from)?;
                let working = Working {
                    count: rows.count(),
                    rows: Arc::new(rows),
                };
                view.remember(sql, &working);
                evaluated += 1;
                working
            }
        };
        sets.push((seg, view, working));
    }
    state
        .working_evaluated
        .fetch_add(evaluated, Ordering::Relaxed);
    state.working_reused.fetch_add(reused, Ordering::Relaxed);
    if let Some(span) = span {
        span.attr(
            "working",
            if evaluated > 0 { "evaluated" } else { "reused" },
        );
    }
    Ok(sets)
}

fn partials_reply(partials: Vec<Json>) -> Json {
    Json::object(vec![("partials", Json::array(partials))])
}

/// The requested segments split into runs of consecutive global segments,
/// in request order: one partial answers one run. Segments that are not
/// adjacent never share a run, so a fold over a run's segments is the fold
/// the coordinator would have made of them (see [`crate::wire::frames`]).
fn runs<'s, 'v>(sets: &'s [SegmentWorking<'v>]) -> impl Iterator<Item = &'s [SegmentWorking<'v>]> {
    sets.chunk_by(|(a, _, _), (b, _, _)| a.checked_add(1) == Some(*b))
}

/// The global segment indices of a run.
fn segments_of(run: &[SegmentWorking]) -> Vec<usize> {
    run.iter().map(|(segment, _, _)| *segment).collect()
}

/// A run's partial of a per-attribute endpoint: its segments and `member`.
fn run_partial(run: &[SegmentWorking], member: &str, value: Json) -> Json {
    let segments = segments_of(run).into_iter().map(Json::from).collect();
    Json::object(vec![("segments", Json::array(segments)), (member, value)])
}

/// Per run of consecutive segments, each segment's working-row count and
/// the summaries of every column over the run's working rows, folded in
/// ascending segment order: a segment the working set covers merges its
/// remembered whole-segment summaries, and one it selects in part is
/// summarised straight into the run's.
fn working(sets: &[SegmentWorking]) -> Json {
    let partials = runs(sets).map(|run| {
        let mut folded: Option<Vec<ColumnSummary>> = None;
        for (_, view, working) in run {
            let views = view.table.columns();
            let columns = folded.get_or_insert_with(|| {
                let empty = views.iter().map(|c| ColumnSummary::empty(c.data_type()));
                empty.collect()
            });
            if view.covered_by(working) {
                let whole = view
                    .summaries
                    .get_or_init(|| summarize(&view.table, &working.rows));
                for (acc, summary) in columns.iter_mut().zip(whole) {
                    acc.merge_from(summary);
                }
            } else {
                for (acc, column) in columns.iter_mut().zip(&views) {
                    for (offset, part) in column.parts() {
                        acc.accumulate(part, &working.rows, offset);
                    }
                }
            }
        }
        let counts: Vec<usize> = run.iter().map(|(_, _, working)| working.count).collect();
        let parts: Vec<_> = folded
            .iter()
            .flatten()
            .map(ColumnSummary::to_parts)
            .collect();
        working_run_to_json(&segments_of(run), &counts, &parts)
    });
    partials_reply(partials.collect())
}

/// The summary of every column (schema order) over the selected rows of a
/// single-segment table.
fn summarize(table: &Table, sel: &Bitmap) -> Vec<ColumnSummary> {
    table
        .columns()
        .iter()
        .map(|view| view.summary(sel))
        .collect()
}

/// Per run, the working rows' values of one numeric column, in row order.
fn values(sets: &[SegmentWorking], body: &Json) -> Result<Json, Fail> {
    let attribute = get_str(body, "attribute")?;
    let mut partials = Vec::new();
    for run in runs(sets) {
        let mut values = Vec::new();
        for (_, view, working) in run {
            let column = view.table.column(attribute).map_err(AtlasError::from)?;
            values.extend(column.numeric_values_where(&working.rows));
        }
        partials.push(run_partial(run, "values", Json::from(hex_f64s(&values))));
    }
    Ok(partials_reply(partials))
}

/// Per run, the zero-inclusive category counts of one column, in
/// first-appearance order (so they list the dictionary too), for the
/// columns whose summaries hold no counts (more values than a summary
/// counts): every other categorical cut reads them off the `/shard/working`
/// summaries.
fn categories(sets: &[SegmentWorking], body: &Json) -> Result<Json, Fail> {
    let attribute = get_str(body, "attribute")?;
    let mut partials = Vec::new();
    for run in runs(sets) {
        let mut counts = Vec::new();
        for (_, view, working) in run {
            let column = view.table.column(attribute).map_err(AtlasError::from)?;
            merge_category_counts(&mut counts, &column.category_counts(&working.rows));
        }
        let counts = counts
            .into_iter()
            .map(|(value, count)| Json::array(vec![Json::from(value), Json::from(count)]))
            .collect();
        partials.push(run_partial(run, "counts", Json::array(counts)));
    }
    Ok(partials_reply(partials))
}

/// The answer of a `/shard/select` request: `"partitions"`, one
/// `{attribute, kind, bounds | groups}` per cut, and `"products"`, the
/// combinations of them to count. Each requested segment's working rows are
/// partitioned once per cut by the cut's kernel, and each product's cells
/// are counted there and summed over the segments: a one-cut product is its
/// region counts; a pair is its contingency table — the head cells only when
/// both cuts partition the segment's working rows
/// ([`ContingencyTable::from_partitions`]); a longer product intersects its
/// cuts' regions in turn. No region's rows leave the shard.
fn select(sets: &[SegmentWorking], body: &Json) -> Result<Json, Fail> {
    let plans = get_items(body, "partitions")?
        .iter()
        .map(partition_from_json)
        .collect::<Result<Vec<_>, String>>()?;
    let products = products_from_json(body, &plans)?;
    let widths: Vec<usize> = plans.iter().map(|p| p.partition.region_count()).collect();
    let mut cells: Vec<Vec<u64>> = products
        .iter()
        .map(|plans| vec![0; plans.iter().filter_map(|&p| widths.get(p)).product()])
        .collect();
    // A segment whose working set is empty adds no row to any cell.
    for (_, view, working) in sets.iter().filter(|(_, _, working)| working.count > 0) {
        let regions = TableCutSource::new(&view.table, &working.rows).partition(&plans)?;
        let counts: Vec<Vec<u64>> = regions
            .iter()
            .map(|regions| regions.iter().map(|r| r.count() as u64).collect())
            .collect();
        let of = |plan: &usize| regions.get(*plan).zip(counts.get(*plan));
        for (plans, sums) in products.iter().zip(&mut cells) {
            let cut: Vec<(&Vec<Bitmap>, &Vec<u64>)> = plans.iter().filter_map(of).collect();
            let segment = product_cells(&cut, working.count as u64);
            for (sum, n) in sums.iter_mut().zip(segment) {
                *sum += n;
            }
        }
    }
    let segments: Vec<usize> = sets.iter().map(|(segment, _, _)| *segment).collect();
    Ok(count_reply_to_json(&segments, &cells))
}

/// One segment's cells of the product of `cuts` — each a cut's region
/// bitmaps over the segment and their counts — row-major, the first cut's
/// region index most significant; `working` is the segment's working rows.
fn product_cells(cuts: &[(&Vec<Bitmap>, &Vec<u64>)], working: u64) -> Vec<u64> {
    match cuts {
        [] => Vec::new(),
        [(_, counts)] => counts.to_vec(),
        [(rows, row_counts), (cols, col_counts)] => {
            let (rows, cols): (Vec<&Bitmap>, Vec<&Bitmap>) =
                (rows.iter().collect(), cols.iter().collect());
            let partitions = |counts: &[u64]| counts.iter().sum::<u64>() == working;
            let table = if partitions(row_counts) && partitions(col_counts) {
                ContingencyTable::from_partitions(&rows, row_counts, &cols, col_counts)
            } else {
                ContingencyTable::from_selections(&rows, &cols)
            };
            table.counts().to_vec()
        }
        [(first, _), middle @ .., (last, _)] => {
            let mut level: Vec<Bitmap> = first.to_vec();
            for (regions, _) in middle {
                level = level
                    .iter()
                    .flat_map(|left| regions.iter().map(move |right| left.and(right)))
                    .collect();
            }
            level
                .iter()
                .flat_map(|left| {
                    last.iter()
                        .map(move |right| left.intersection_count(right) as u64)
                })
                .collect()
        }
    }
}
