//! The shard role of distributed exploration: push-down work over a segment
//! subset.
//!
//! A shard server is an ordinary `atlas-serve` process; every server answers
//! the `POST /shard/*` endpoints. The coordinator assigns each shard a set of
//! **global segment indices** and pushes the row-touching work of an explore
//! down to them: working-set evaluation, per-column summaries, quantile
//! sketches, numeric value runs, category counts and region partitioning.
//! (Map distances are *not* pushed down: the coordinator already holds every
//! candidate region as a folded bitmap and counts contingency tables itself.)
//! Every answer is **per segment**, so the coordinator can fold partials in
//! ascending global segment order and obtain bit-identical results no matter
//! how segments were assigned to shards.
//!
//! Shards are stateless with respect to the partitioning: requests carry the
//! segment indices and the (restricted SQL) queries, and the shard evaluates
//! them against cached single-segment views of its registry datasets. The
//! cache is keyed by dataset generation, so appends invalidate it naturally.
//! Each cached view also remembers, once asked, the answers that do not
//! depend on the query whenever the working set covers the whole segment —
//! the column summaries and the category counts — so a whole-table explore
//! scans them once per generation instead of once per request. There is no
//! capacity and no knob: the answers live and die with the generation's
//! views, and a working set that cuts through a segment is computed as
//! before, segment by segment.
//!
//! `POST /shard/inject` is a fault-injection hook for tests. The legacy form
//! `{"delay_ms": N, "times": M}` delays the next M shard answers; the plan
//! form `{"plan": [{"fault": …}, …]}` arms a deterministic fault plan where
//! each subsequent shard request (the inject endpoint excepted) consumes the
//! next entry: `delay`, `refuse` (hang up unanswered), `error` (a synthetic
//! non-200), `truncate` (a prefix of the real answer), `garbage` (bytes that
//! are not HTTP), `kill` (hang up on everything until the next inject), or
//! `none` (answer normally). This is how the chaos suite drives every
//! coordinator failure path without real packet loss — deterministically,
//! from a seeded plan.

use crate::http::{self, Request, Response};
use crate::metrics::Endpoint;
use crate::registry::{Dataset, Registry};
use crate::wire::frames::{
    bitmap_to_json, get_items, get_str, hex_f64s, parse_hex_f64, parse_hex_f64s, sketch_to_json,
    summary_to_json,
};
use crate::wire::{self, Json};
use atlas_columnar::{Bitmap, DataType, SummaryParts, Table};
use atlas_core::AtlasError;
use atlas_query::{parse_query, ConjunctiveQuery};
use atlas_stats::GkSketch;
use std::borrow::Cow;
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

/// How a shard endpoint answers: a normal HTTP response, raw bytes written
/// verbatim (truncated or garbled answers), or a silent hangup. Anything but
/// `Normal` closes the connection afterwards.
pub(crate) enum Reply {
    /// An ordinary HTTP response.
    Normal(Response),
    /// Write exactly these bytes, then close.
    Raw(Vec<u8>),
    /// Close the connection without writing a byte.
    Hangup,
}

impl From<Response> for Reply {
    fn from(response: Response) -> Reply {
        Reply::Normal(response)
    }
}

/// One entry of an armed fault plan, consumed by one shard request.
enum Fault {
    /// Answer normally (an explicit pass-through slot in a plan).
    None,
    /// Sleep this long, then answer normally.
    Delay(u64),
    /// Hang up without answering.
    Refuse,
    /// Answer a synthetic error with this status.
    Error(u16),
    /// Compute the real answer but send only `keep_per_mille`/1000 of its
    /// bytes, then close mid-body.
    Truncate(u16),
    /// Send bytes that are not HTTP.
    Garbage,
    /// Hang up now and on every later request until the next inject.
    Kill,
}

/// Per-server shard state: the single-segment view cache plus the
/// fault-injection knobs.
#[derive(Default)]
pub(crate) struct ShardState {
    /// dataset name → (generation, one view per global segment, in segment
    /// order).
    tables: Mutex<HashMap<String, SegmentViews>>,
    inject: Mutex<InjectState>,
}

/// One dataset's cached push-down view: the generation it was built from
/// and one [`SegmentView`] per global segment, in segment order.
type SegmentViews = (usize, Arc<Vec<SegmentView>>);

/// One global segment as the data endpoints see it: a single-segment table
/// (named after the dataset so shipped queries parse against it) plus the
/// whole-segment answers computed so far. Each answer sits in its own
/// `OnceLock`, so the first request to need one fills it without holding the
/// cache mutex and a concurrent worker on another segment is not serialised
/// behind the scan.
struct SegmentView {
    table: Table,
    /// [`summarize`] under the all-rows selection.
    summaries: OnceLock<Vec<SummaryParts>>,
    /// `category_counts` under the all-rows selection, one slot per schema
    /// column, filled for the columns that were asked about.
    categories: Vec<OnceLock<Vec<(String, usize)>>>,
}

impl SegmentView {
    /// Whether a segment-local working set selects every row, i.e. whether
    /// the whole-segment answers are the answers for it.
    fn covered_by(&self, local: &Bitmap) -> bool {
        local.count() == self.table.num_rows()
    }
}

#[derive(Default)]
struct InjectState {
    /// Legacy knob: delay the next `times` answers by `delay_ms`.
    delay_ms: u64,
    times: u64,
    /// Armed fault plan; each request pops the front entry.
    plan: VecDeque<Fault>,
    /// Kill switch — a consumed [`Fault::Kill`] sets it; only the next
    /// inject clears it.
    dead: bool,
}

/// What the fault machinery decided before any real work: pass through
/// (possibly after a delay), or preempt with a raw outcome.
enum Preamble {
    Proceed,
    Preempt(Reply),
    /// Send a truncated prefix of the real answer (computed later).
    TruncateAnswer(u16),
}

impl ShardState {
    /// Consume one fault-plan entry (or the legacy delay) for a shard
    /// request. Called once per request before any real work.
    fn consume_fault(&self) -> Preamble {
        let decision = {
            let mut inject = match self.inject.lock() {
                Ok(guard) => guard,
                Err(poisoned) => poisoned.into_inner(),
            };
            if inject.dead {
                return Preamble::Preempt(Reply::Hangup);
            }
            match inject.plan.pop_front() {
                Some(fault) => fault,
                None => {
                    // Legacy path: each armed "time" delays one answer.
                    if inject.times > 0 {
                        inject.times -= 1;
                        Fault::Delay(inject.delay_ms)
                    } else {
                        Fault::None
                    }
                }
            }
        };
        match decision {
            Fault::None => Preamble::Proceed,
            Fault::Delay(ms) => {
                if ms > 0 {
                    std::thread::sleep(Duration::from_millis(ms));
                }
                Preamble::Proceed
            }
            Fault::Refuse => Preamble::Preempt(Reply::Hangup),
            Fault::Error(status) => Preamble::Preempt(Reply::Normal(Response::error(
                status,
                "injected fault: synthetic shard error",
            ))),
            Fault::Truncate(keep_per_mille) => Preamble::TruncateAnswer(keep_per_mille),
            Fault::Garbage => {
                // Not an HTTP status line; the coordinator's parser must
                // reject it with a typed error, never hang.
                Preamble::Preempt(Reply::Raw(
                    b"\x00\x7fatlas-chaos garbage bytes\r\n\r\n".to_vec(),
                ))
            }
            Fault::Kill => {
                let mut inject = match self.inject.lock() {
                    Ok(guard) => guard,
                    Err(poisoned) => poisoned.into_inner(),
                };
                inject.dead = true;
                Preamble::Preempt(Reply::Hangup)
            }
        }
    }

    /// The dataset's segments as cached views (one per global segment),
    /// rebuilt — whole-segment answers included — when the dataset generation
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
                    categories: (0..table.num_columns()).map(|_| OnceLock::new()).collect(),
                    summaries: OnceLock::new(),
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
        "summaries" => Endpoint::ShardSummaries,
        "sketches" => Endpoint::ShardSketches,
        "values" => Endpoint::ShardValues,
        "categories" => Endpoint::ShardCategories,
        "select" => Endpoint::ShardSelect,
        "inject" => Endpoint::ShardInject,
        _ => return None,
    })
}

/// Serve one shard endpoint, applying any armed fault first (the inject
/// endpoint itself is never faulted, so a test can always re-arm or revive
/// a killed shard).
pub(crate) fn handle(
    registry: &Registry,
    state: &ShardState,
    endpoint: Endpoint,
    request: &Request,
) -> Reply {
    let body = match request.body_text() {
        Some(text) if !text.trim().is_empty() => match wire::parse(text) {
            Ok(json) => json,
            Err(error) => return Response::error(400, error.to_string()).into(),
        },
        _ => Json::object(Vec::<(String, Json)>::new()),
    };
    if endpoint == Endpoint::ShardInject {
        return inject(state, &body).into();
    }
    let truncate = match state.consume_fault() {
        Preamble::Preempt(reply) => return reply,
        Preamble::TruncateAnswer(keep_per_mille) => Some(keep_per_mille),
        Preamble::Proceed => None,
    };
    let shard_span = shard_span(endpoint, request);
    let outcome = answer(registry, state, endpoint, &body);
    // Close the request's root span before snapshotting so it is in the ring.
    let trace_id = shard_span.and_then(|span| span.context().map(|ctx| ctx.trace_id));
    let response = match outcome {
        Ok(mut reply) => {
            if let Some(trace_id) = trace_id {
                append_shard_spans(&mut reply, trace_id);
            }
            // The one place a data reply is encoded, spans or not.
            Response::json(200, &reply)
        }
        Err(response) => response,
    };
    match truncate {
        None => Reply::Normal(response),
        Some(keep_per_mille) => {
            let mut bytes = Vec::new();
            // Writing to a Vec cannot fail.
            let _ = http::write_response(&mut bytes, &response, false);
            let keep = bytes
                .len()
                .saturating_mul(usize::from(keep_per_mille.min(1000)))
                / 1000;
            bytes.truncate(keep);
            Reply::Raw(bytes)
        }
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

/// Compute the real answer of one shard data endpoint: the reply object of
/// a `200`, or the error response.
fn answer(
    registry: &Registry,
    state: &ShardState,
    endpoint: Endpoint,
    body: &Json,
) -> Result<Json, Response> {
    let dataset = resolve_dataset(registry, body)?;
    if endpoint == Endpoint::ShardMeta {
        return Ok(meta(dataset));
    }
    let views = state
        .segment_views(dataset)
        .map_err(|error| crate::server::error_response(&error))?;
    let run = match endpoint {
        Endpoint::ShardWorking => working(&views, body),
        Endpoint::ShardSummaries => summaries(&views, body),
        Endpoint::ShardSketches => sketches(&views, body),
        Endpoint::ShardValues => values(&views, body),
        Endpoint::ShardCategories => categories(&views, body),
        Endpoint::ShardSelect => select(&views, body),
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

fn resolve_dataset<'a>(registry: &'a Registry, body: &Json) -> Result<&'a Dataset, Response> {
    match body.get("dataset").and_then(Json::str) {
        Some(name) => registry
            .get(name)
            .ok_or_else(|| Response::error(404, format!("no dataset named '{name}'"))),
        None => match registry.datasets() {
            [only] => Ok(only),
            _ => Err(Response::error(
                400,
                "several datasets are served; pass {\"dataset\": name}",
            )),
        },
    }
}

/// Arm the fault machinery. Any inject call — either form — revives a
/// killed shard and replaces whatever was armed before.
fn inject(state: &ShardState, body: &Json) -> Response {
    if let Some(items) = body.get("plan").and_then(Json::items) {
        let mut plan = VecDeque::with_capacity(items.len());
        for entry in items {
            match parse_fault(entry) {
                Ok(fault) => plan.push_back(fault),
                Err(message) => return Response::error(400, message),
            }
        }
        let armed = plan.len();
        let mut inject = match state.inject.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        inject.dead = false;
        inject.delay_ms = 0;
        inject.times = 0;
        inject.plan = plan;
        return Response::json(
            200,
            &Json::object(vec![
                ("armed", Json::from(armed)),
                ("dead", Json::from(false)),
            ]),
        );
    }
    let delay_ms = body.get("delay_ms").and_then(Json::index).unwrap_or(0) as u64;
    let times = body.get("times").and_then(Json::index).unwrap_or(0) as u64;
    let mut inject = match state.inject.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    };
    inject.dead = false;
    inject.plan.clear();
    inject.delay_ms = delay_ms;
    inject.times = times;
    Response::json(
        200,
        &Json::object(vec![
            ("delay_ms", Json::from(delay_ms)),
            ("times", Json::from(times)),
        ]),
    )
}

/// Parse one fault-plan entry.
fn parse_fault(entry: &Json) -> Result<Fault, String> {
    let kind = entry
        .get("fault")
        .and_then(Json::str)
        .ok_or_else(|| "plan entry without a \"fault\" member".to_string())?;
    Ok(match kind {
        "none" => Fault::None,
        "delay" => Fault::Delay(entry.get("ms").and_then(Json::index).unwrap_or(0) as u64),
        "refuse" => Fault::Refuse,
        "error" => {
            let status = entry.get("status").and_then(Json::index).unwrap_or(500);
            if !(400..=599).contains(&status) {
                return Err(format!(
                    "error fault status {status} out of range (400..=599)"
                ));
            }
            Fault::Error(status as u16)
        }
        "truncate" => {
            let keep = entry
                .get("keep_per_mille")
                .and_then(Json::index)
                .unwrap_or(500);
            if keep > 1000 {
                return Err(format!(
                    "truncate keep_per_mille {keep} out of range (0..=1000)"
                ));
            }
            Fault::Truncate(keep as u16)
        }
        "garbage" => Fault::Garbage,
        "kill" => Fault::Kill,
        other => return Err(format!("unknown fault kind '{other}'")),
    })
}

fn meta(dataset: &Dataset) -> Json {
    let (engine, generation) = dataset.snapshot();
    let table = engine.table();
    Json::object(vec![
        ("dataset", Json::from(dataset.name())),
        ("generation", Json::from(generation)),
        ("num_rows", Json::from(table.num_rows())),
        (
            "segments",
            Json::array(
                table
                    .segments()
                    .iter()
                    .map(|s| Json::from(s.num_rows()))
                    .collect(),
            ),
        ),
        (
            "fields",
            Json::array(
                table
                    .schema()
                    .fields()
                    .iter()
                    .map(|f| {
                        Json::object(vec![
                            ("name", Json::from(f.name.as_str())),
                            ("dtype", Json::from(f.dtype.name())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// The common preamble of the data endpoints: the parsed query plus the
/// requested global segment indices, validated against the segment count.
fn query_and_segments(
    views: &[SegmentView],
    body: &Json,
) -> Result<(ConjunctiveQuery, Vec<usize>), Fail> {
    let sql = get_str(body, "sql")?;
    let query = parse_query(sql).map_err(AtlasError::from)?;
    let segments = segment_list(views, body)?;
    Ok((query, segments))
}

fn segment_list(views: &[SegmentView], body: &Json) -> Result<Vec<usize>, Fail> {
    let items = get_items(body, "segments")?;
    items
        .iter()
        .map(|item| {
            let idx = item
                .index()
                .ok_or_else(|| "non-integral segment index".to_string())?;
            if idx >= views.len() {
                return Err(Fail::Frame(format!(
                    "segment {idx} out of range (dataset has {})",
                    views.len()
                )));
            }
            Ok(idx)
        })
        .collect()
}

/// Evaluate the shipped query on one single-segment table: the bitmap of the
/// working set's rows restricted to that segment, in segment-local indices.
fn local_working(query: &ConjunctiveQuery, table: &Table) -> Result<Bitmap, AtlasError> {
    Ok(atlas_query::evaluate(query, table)?)
}

fn partials_reply(partials: Vec<Json>) -> Json {
    Json::object(vec![("partials", Json::array(partials))])
}

fn working(views: &[SegmentView], body: &Json) -> Result<Json, Fail> {
    let (query, segments) = query_and_segments(views, body)?;
    let mut partials = Vec::with_capacity(segments.len());
    for seg in segments {
        // lint: slice-index-ok (segment_list rejected indices >= views.len())
        let local = local_working(&query, &views[seg].table)?;
        partials.push(Json::object(vec![
            ("segment", Json::from(seg)),
            ("count", Json::from(local.count())),
            ("bitmap", bitmap_to_json(&local)),
        ]));
    }
    Ok(partials_reply(partials))
}

/// The mergeable summary parts of every column (schema order) over the
/// selected rows of a single-segment table.
fn summarize(table: &Table, sel: &Bitmap) -> Vec<SummaryParts> {
    table
        .columns()
        .iter()
        .map(|view| view.summary(sel).to_parts())
        .collect()
}

fn summaries(views: &[SegmentView], body: &Json) -> Result<Json, Fail> {
    let (query, segments) = query_and_segments(views, body)?;
    let mut partials = Vec::with_capacity(segments.len());
    for seg in segments {
        // lint: slice-index-ok (segment_list rejected indices >= views.len())
        let view = &views[seg];
        let local = local_working(&query, &view.table)?;
        let parts = if view.covered_by(&local) {
            Cow::Borrowed(
                view.summaries
                    .get_or_init(|| summarize(&view.table, &local))
                    .as_slice(),
            )
        } else {
            Cow::Owned(summarize(&view.table, &local))
        };
        partials.push(Json::object(vec![
            ("segment", Json::from(seg)),
            (
                "columns",
                Json::array(parts.iter().map(summary_to_json).collect()),
            ),
        ]));
    }
    Ok(partials_reply(partials))
}

fn sketches(views: &[SegmentView], body: &Json) -> Result<Json, Fail> {
    let epsilon = parse_hex_f64(get_str(body, "epsilon")?)?;
    if !(epsilon > 0.0 && epsilon < 0.5) {
        return Err(Fail::Frame(format!(
            "sketch epsilon must be a finite value in (0, 0.5), got {epsilon}"
        )));
    }
    let attributes: Vec<&str> = get_items(body, "attributes")?
        .iter()
        .map(|a| a.str().ok_or_else(|| "non-string attribute".to_string()))
        .collect::<Result<_, _>>()?;
    let segments = segment_list(views, body)?;
    let mut partials = Vec::with_capacity(segments.len());
    for seg in segments {
        // lint: slice-index-ok (segment_list rejected indices >= views.len())
        let table = &views[seg].table;
        // Profile sketches cover the **whole** segment (they are only ever
        // consulted for working sets that cover the table).
        let full = Bitmap::new_full(table.num_rows());
        let sketches = attributes
            .iter()
            .map(|attribute| {
                let view = table.column(attribute).map_err(AtlasError::from)?;
                if !matches!(view.data_type(), DataType::Int | DataType::Float) {
                    return Err(Fail::Frame(format!(
                        "attribute '{attribute}' is not numeric"
                    )));
                }
                let mut sketch = GkSketch::new(epsilon);
                sketch.extend(&view.numeric_values_where(&full));
                Ok(sketch_to_json(&sketch))
            })
            .collect::<Result<Vec<_>, Fail>>()?;
        partials.push(Json::object(vec![
            ("segment", Json::from(seg)),
            ("sketches", Json::array(sketches)),
        ]));
    }
    Ok(partials_reply(partials))
}

fn values(views: &[SegmentView], body: &Json) -> Result<Json, Fail> {
    let (query, segments) = query_and_segments(views, body)?;
    let attribute = get_str(body, "attribute")?;
    let mut partials = Vec::with_capacity(segments.len());
    for seg in segments {
        // lint: slice-index-ok (segment_list rejected indices >= views.len())
        let table = &views[seg].table;
        let local = local_working(&query, table)?;
        let view = table.column(attribute).map_err(AtlasError::from)?;
        partials.push(Json::object(vec![
            ("segment", Json::from(seg)),
            (
                "values",
                Json::from(hex_f64s(&view.numeric_values_where(&local))),
            ),
        ]));
    }
    Ok(partials_reply(partials))
}

fn categories(views: &[SegmentView], body: &Json) -> Result<Json, Fail> {
    let (query, segments) = query_and_segments(views, body)?;
    let attribute = get_str(body, "attribute")?;
    let mut partials = Vec::with_capacity(segments.len());
    for seg in segments {
        // lint: slice-index-ok (segment_list rejected indices >= views.len())
        let view = &views[seg];
        let local = local_working(&query, &view.table)?;
        let column = view.table.column(attribute).map_err(AtlasError::from)?;
        let slot = view
            .table
            .schema()
            .index_of(attribute)
            .ok()
            .and_then(|idx| view.categories.get(idx));
        let counts = match slot {
            Some(slot) if view.covered_by(&local) => Cow::Borrowed(
                slot.get_or_init(|| column.category_counts(&local))
                    .as_slice(),
            ),
            _ => Cow::Owned(column.category_counts(&local)),
        };
        let counts = counts
            .iter()
            .map(|(value, count)| Json::array(vec![Json::from(value.as_str()), Json::from(*count)]))
            .collect();
        let dictionary = column
            .dictionary()
            .into_iter()
            .map(Json::from)
            .collect::<Vec<_>>();
        partials.push(Json::object(vec![
            ("segment", Json::from(seg)),
            ("counts", Json::array(counts)),
            ("dictionary", Json::array(dictionary)),
        ]));
    }
    Ok(partials_reply(partials))
}

fn select(views: &[SegmentView], body: &Json) -> Result<Json, Fail> {
    let (query, segments) = query_and_segments(views, body)?;
    let attribute = get_str(body, "attribute")?;
    enum Partition {
        Ranges(Vec<(f64, f64)>),
        Groups(Vec<Vec<String>>),
    }
    let partition = match get_str(body, "kind")? {
        "ranges" => {
            // Bounds travel as one hex run of (lo, hi) bit-pattern pairs.
            let flat = parse_hex_f64s(get_str(body, "bounds")?)?;
            if flat.len() % 2 != 0 {
                return Err(Fail::Frame("odd number of range bounds".to_string()));
            }
            // lint: slice-index-ok (chunks_exact(2) yields exactly two elements per chunk)
            Partition::Ranges(flat.chunks_exact(2).map(|c| (c[0], c[1])).collect())
        }
        "groups" => {
            let groups = get_items(body, "groups")?
                .iter()
                .map(|group| {
                    group
                        .items()
                        .ok_or_else(|| "non-array value group".to_string())?
                        .iter()
                        .map(|v| {
                            v.str()
                                .map(String::from)
                                .ok_or_else(|| "non-string group value".to_string())
                        })
                        .collect::<Result<Vec<_>, _>>()
                })
                .collect::<Result<Vec<_>, _>>()?;
            Partition::Groups(groups)
        }
        other => return Err(Fail::Frame(format!("unknown partition kind '{other}'"))),
    };
    let mut partials = Vec::with_capacity(segments.len());
    for seg in segments {
        // lint: slice-index-ok (segment_list rejected indices >= views.len())
        let table = &views[seg].table;
        let local = local_working(&query, table)?;
        let view = table.column(attribute).map_err(AtlasError::from)?;
        let regions = match &partition {
            Partition::Ranges(bounds) => view.select_ranges(&local, bounds),
            Partition::Groups(groups) => view.select_in_groups(&local, groups),
        };
        partials.push(Json::object(vec![
            ("segment", Json::from(seg)),
            (
                "regions",
                Json::array(regions.iter().map(bitmap_to_json).collect()),
            ),
        ]));
    }
    Ok(partials_reply(partials))
}
