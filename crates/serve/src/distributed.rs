//! Distributed scatter-gather exploration: a merging coordinator over shard
//! servers.
//!
//! A [`Coordinator`] partitions a dataset's segments across N shard servers
//! (ordinary `atlas-serve` processes answering the `POST /shard/*` endpoints)
//! and runs the Atlas pipeline with every row-touching kernel pushed down:
//!
//! 1. **working set and summaries** — one `/shard/working` round: the user
//!    query is evaluated per shard segment, which keeps the rows for its
//!    later rounds and answers how many it selected — the coordinator holds
//!    those counts, never a row — and the per-column statistics as
//!    mergeable [`atlas_columnar::ColumnSummary`] parts. A shard folds them
//!    over each run of consecutive segments it answers for (one run under
//!    the default contiguous assignment) and the coordinator folds the runs,
//!    both in ascending segment order;
//! 2. **candidates** — the single shared `CUT` body
//!    ([`atlas_core::cuts_from_source`]) runs locally over a
//!    [`atlas_core::CutSource`] whose kernels scatter to the shards. The
//!    folded summaries hold the value counts a median cut reads and the
//!    category counts a categorical cut reads, so every counted column's
//!    cut is planned from them alone, and **all** the planned cuts are one
//!    `/shard/select` round: an explore of counted columns makes 2 round
//!    trips (1 when nothing is cut), and a column too wide to count adds its
//!    `/shard/values` or `/shard/categories` round. That round ships counts,
//!    not rows: each shard partitions its segments with the engine's kernels
//!    and answers each cut's region counts and each pair of cuts' contingency
//!    cells, summed over its segments;
//! 3. **distances, clustering, merging, ranking** — the engine's own body,
//!    [`atlas_core::explore_from_source`], runs over a remote source that
//!    answers from those counts: a pair's distance from its cells, a product
//!    merge of two maps from the same cells (each cell a region, its query
//!    the conjunction), and the ranking, the region cap and the answer from
//!    region counts. A cluster of three or more maps asks one more
//!    `/shard/select` round for its own cells. A composition (Definition 4,
//!    the paper's configuration) re-cuts each region of a level from the
//!    region's query, which costs one `/shard/working` round on the region's
//!    SQL: its folded summaries are the region's statistics, and they count
//!    the sub-regions ([`atlas_core::CutPlan::counts_from_stats`]) — only a
//!    column too wide to count adds a `/shard/select` round. The next level
//!    re-cuts from the sub-regions' SQL, so every level is counted.
//!
//! ## Replies are decoded where they land
//!
//! The fold starts at the shards: a `/shard/working` partial answers a run
//! of consecutive segments with one summary per column, folded there in
//! ascending segment order, so a whole-table round moves one summary of
//! each column per run, not per segment. Only adjacent segments share a
//! run — an interleaved assignment such as `[0, 2, 4]` answers three runs —
//! because only then is folding the runs in order the fold of their
//! segments. Each scatter round runs one thread per shard, and that thread
//! does more than wait. Every reply is read whole, checked to cover exactly
//! the shard's segments and decoded there — a working partial's counts held
//! to their segments' rows and its summaries into [`ColumnSummary`]s, each
//! counting as many rows as the counts sum to; a count reply held to every
//! invariant the coordinator can check (each product's arity, no cut
//! counting more rows than the shard's working rows, a pair's sums within
//! its cuts' counts) — so decoding runs in parallel across shards and
//! overlaps the slower shard's wire wait, and what is left after the
//! barrier is the fold: `merge_from` of the runs' summaries in ascending
//! global segment order, and integer sums of the counts, whose order cannot
//! matter.
//! A retried or hedged request's reply is whichever arrives first; a count
//! reply is a deterministic function of (generation, SQL, segments, cuts),
//! so either is the same.
//!
//! A reply that fails to decode or breaks an invariant is that shard's
//! failure — it counts against the shard's circuit breaker, names the shard
//! and endpoint, is not retried, and in degraded mode drops the shard like
//! any other failure.
//!
//! The frames themselves (`crate::wire::frames`) ship no rows at all: no
//! working bitmap and no region's rows.
//!
//! Every fold is deterministic and every pushed-down kernel reproduces its
//! local counterpart exactly, so the ranked maps are **bit-identical** —
//! score bits, region SQL, region counts, working-set size — to a
//! single-process [`atlas_core::Atlas::explore_released`] over the same
//! table and configuration, for *any* assignment of segments to shards. The
//! `tests/distributed.rs` property suite pins this. Like that answer, the
//! coordinator's holds no rows: every region is built from its count
//! ([`atlas_core::Region::holds_rows`] is false).
//!
//! ## Fault model
//!
//! Shard calls run under a [`RetryPolicy`] — bounded attempts with
//! exponential backoff whose jitter comes from a **seeded** generator, so a
//! fault plan replays to the same schedule — an optional [`HedgePolicy`]
//! that duplicates straggling reads (idempotent shard kernels make the
//! duplicate safe; first success wins), and a per-shard [`CircuitBreaker`]
//! that stops hammering a shard that keeps failing. A request-scoped
//! [`Deadline`] caps every wait: per-shard budgets are derived from the
//! remaining time, the remainder is forwarded in the `X-Atlas-Deadline-Ms`
//! header, and a blown deadline surfaces as [`AtlasError::Deadline`] with
//! the phase that was running. It is checked before every scatter — a
//! composition's re-cut rounds in the merge phase included — and once more
//! before the distances. A shard that fails a merge-phase round fails the
//! pass like one that fails a cut round: strict mode names it, and degraded
//! mode drops it and re-runs the pass.
//!
//! Each shard slot keeps at most one idle keep-alive connection, and an
//! inline call (no hedging) sends on it, so an explore's rounds pay no
//! connect, accept or worker hand-off at the shard. A call takes the idle
//! connection only when a non-blocking peek finds it alive
//! ([`Connection::is_reusable`]: nothing to read yet — EOF, an error or
//! unread bytes close it and the call opens a new one), and a connection
//! goes back to the slot only after a whole `200` JSON reply that keeps it
//! alive, and only into an empty slot: concurrent calls to one shard open
//! connections of their own and close the extras. A failed attempt — a
//! timeout, a truncated or garbled reply, an error status — closes its
//! connection, so a late reply is never read as the next request's; past
//! the peek, a failure on a reused connection is an ordinary attempt failure
//! under the retry policy and the breaker. One idle connection per slot
//! stays below the two or more workers of every default server, and a
//! server hangs up an idle keep-alive connection as soon as another waits,
//! so a one-worker shard still serves other clients. Hedged attempts, whose
//! loser outlives the call, open their own connections and close them.
//! `connects` in the coordinator's `/metrics` counts the connections opened
//! per shard, and each `shard.call` span says `connection=reused|fresh`.
//! Inside a traced call, `shard.exchange` covers writing the request and
//! reading the whole reply, `shard.decode` the reply's JSON parse and the
//! frame decode with its checks, and `shard.adopt`, after them, the
//! adoption of the shard's spans. The shard's `shard.request` (its body
//! parse a `shard.parse` child) is adopted under the call, ending where the
//! exchange ends; the shard's reply encode and the wire cannot appear in
//! the reply that carries those spans, so they read as `shard.exchange` −
//! `shard.request`.
//!
//! In [`ExploreMode::Strict`] (the default and the historical contract) any
//! shard failing past its retries fails the whole explore with a typed
//! [`AtlasError::Distributed`] naming the shard and endpoint — never a hang,
//! never a silent partial answer. [`ExploreMode::Degraded`] instead drops up
//! to `max_failed_shards` failed shards, folds the surviving segments, and
//! tags the answer with exact [`Coverage`] metadata; the surviving-segment
//! answer is bit-identical to a local explore over just those segments.

use crate::client::{Client, Connection};
use crate::http::{ClientResponse, DEADLINE_HEADER, TRACE_HEADER};
use crate::metrics::CoordinatorMetrics;
use crate::resilience::{
    CircuitBreaker, CircuitConfig, CircuitState, Coverage, Deadline, ExploreMode, HedgePolicy,
    RetryPolicy,
};
use crate::wire::frames::{
    count_reply_from_json, get_items, get_str, meta_from_json, parse_hex_f64s, partition_to_json,
    products_to_json, run_segments, working_run_from_json, CountAsk, MetaView,
};
use crate::wire::Json;
use atlas_columnar::{merge_category_counts, Bitmap, ColumnStats, ColumnSummary, DataType};
use atlas_core::{
    cut_counted_from_source, cuts_from_source, explore_from_source, product_of_counts, AtlasConfig,
    AtlasError, AttributeStats, CandidateSet, CutPlan, CutSource, DataMap, ExploreSource,
    MapResult, PhaseTimings, Region, ThreadPool,
};
use atlas_query::{to_sql, ConjunctiveQuery};
use atlas_stats::ContingencyTable;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::borrow::Cow;
use std::collections::{BTreeSet, HashMap};
use std::io;
use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc, Mutex, OnceLock, PoisonError};
use std::time::{Duration, Instant};

/// Fault-policy knobs of a [`Coordinator`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoordinatorOptions {
    /// Per-attempt read/write budget of one shard call (further capped by
    /// the request deadline when one is set).
    pub shard_timeout: Duration,
    /// TCP connect budget, split from `shard_timeout` so an unreachable
    /// host fails fast.
    pub connect_timeout: Duration,
    /// Retry schedule of one shard call.
    pub retry: RetryPolicy,
    /// When to duplicate a straggling read.
    pub hedge: HedgePolicy,
    /// Per-shard circuit-breaker tuning.
    pub circuit: CircuitConfig,
    /// Seed of the jitter generator — fixed by default so retry schedules
    /// replay deterministically.
    pub jitter_seed: u64,
}

impl Default for CoordinatorOptions {
    fn default() -> CoordinatorOptions {
        CoordinatorOptions {
            shard_timeout: Duration::from_secs(10),
            connect_timeout: Duration::from_secs(2),
            retry: RetryPolicy::default(),
            hedge: HedgePolicy::Off,
            circuit: CircuitConfig::default(),
            jitter_seed: 0x41_54_4c_41_53, // "ATLAS"
        }
    }
}

/// A distributed answer: the ranked maps plus exactly what they cover.
#[derive(Debug, Clone)]
pub struct DistributedResult {
    /// The ranked maps, holding no rows. Complete coverage means
    /// bit-identical to the local engine's released answer over the whole
    /// table; degraded coverage means bit-identical to it over the
    /// surviving segments.
    pub result: MapResult,
    /// Exactly which segments and rows the answer covers.
    pub coverage: Coverage,
}

/// The position of one shard in its coordinator's list. Only
/// [`ShardIndex::all`] makes them — the coordinator, once per shard at
/// connect, and the per-shard metrics, which are laid out the same way — so
/// an index is always in range of both.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct ShardIndex(usize);

impl ShardIndex {
    /// The indices of a list of `count` shards, in order.
    pub(crate) fn all(count: usize) -> impl Iterator<Item = ShardIndex> {
        (0..count).map(ShardIndex)
    }

    /// The position this index stands for.
    pub(crate) fn get(self) -> usize {
        self.0
    }
}

#[derive(Debug)]
struct ShardSlot {
    index: ShardIndex,
    addr: String,
    client: Client,
    /// Global segment indices this shard answers for, ascending. May be
    /// empty, in which case the shard is skipped by every scatter.
    segments: Vec<usize>,
    breaker: CircuitBreaker,
    /// At most one idle keep-alive connection, which the next inline call
    /// takes while it is still reusable.
    idle: Mutex<Option<Connection>>,
}

impl ShardSlot {
    /// The slot's idle connection if it can carry another request (see
    /// [`Connection::is_reusable`]); a dead one is closed.
    fn take_idle(&self) -> Option<Connection> {
        let idle = self
            .idle
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take();
        idle.filter(Connection::is_reusable)
    }

    /// Keep `connection` as the slot's idle one, or close it when the slot
    /// already holds one.
    fn park(&self, connection: Connection) {
        let mut idle = self.idle.lock().unwrap_or_else(PoisonError::into_inner);
        if idle.is_none() {
            *idle = Some(connection);
        }
    }

    /// The failure of a call to this shard on `path` whose reply does not
    /// decode or breaks an invariant: it names the shard and the endpoint,
    /// is not retried, and counts against the shard's circuit breaker.
    fn misbehaved(&self, path: &str, message: String) -> CallFail {
        self.breaker.record_failure();
        CallFail::Shard {
            message: format!("shard {} misbehaved on {path}: {message}", self.addr),
        }
    }

    /// What a failed call to this shard on `path` is reported as; every
    /// message names the shard.
    fn render_fail(&self, path: &str, fail: CallFail) -> String {
        let addr = &self.addr;
        match fail {
            CallFail::Shard { message } => message,
            CallFail::CircuitOpen => format!("shard {addr} refused on {path}: circuit open"),
            CallFail::Deadline => format!("deadline expired while calling shard {addr} on {path}"),
        }
    }
}

/// How one shard call failed, before rendering into an [`AtlasError`].
enum CallFail {
    /// The shard failed past its retries; the message already names the
    /// shard and endpoint.
    Shard { message: String },
    /// The call was refused locally — the shard's circuit is open.
    CircuitOpen,
    /// The request deadline expired before (or between) attempts.
    Deadline,
}

/// One attempt's verdict: retry or give up.
enum AttemptFail {
    /// Transient-looking failure (transport error, 5xx, garbled body).
    Retryable(String),
    /// Definitive failure (4xx — retrying cannot change the answer).
    NoRetry(String),
}

/// A shard's `200` JSON reply to one attempt, the instant it was read
/// whole, and the `shard.decode` span opened before its JSON parse (for a
/// hedged attempt, once the winner arrives: its parse ran on the hedge's
/// thread).
struct Answered {
    json: Json,
    exchanged: Instant,
    decoding: atlas_obs::SpanGuard,
}

/// Why one explore pass failed — shard-attributable failures carry the
/// shard index so degraded mode can drop it and re-run.
enum ExploreFail {
    /// One shard failed past its retries, or sent a frame that does not
    /// decode.
    Shard {
        shard: ShardIndex,
        error: AtlasError,
    },
    /// A failure no shard-drop can fix (deadline, merge validation, local
    /// pipeline error).
    Fatal(AtlasError),
}

/// Per-explore scatter context: the dropped shards, the live segment list
/// (ascending global indices), and the first shard-attributable failure
/// (stashed here because [`CutSource`] signatures only carry `AtlasError`).
struct ExploreCtx<'a> {
    dead: &'a BTreeSet<ShardIndex>,
    live: Vec<usize>,
    deadline: Option<&'a Deadline>,
    failed: Mutex<Option<ExploreFail>>,
}

/// The merging coordinator of a distributed exploration (see the module
/// docs for the protocol, the determinism guarantee, and the fault model).
#[derive(Debug)]
pub struct Coordinator {
    dataset: String,
    config: AtlasConfig,
    options: CoordinatorOptions,
    shards: Vec<ShardSlot>,
    generation: usize,
    segment_rows: Vec<usize>,
    fields: Vec<(String, DataType)>,
    pool: ThreadPool,
    metrics: CoordinatorMetrics,
    jitter: Mutex<StdRng>,
}

fn dist_err(message: impl Into<String>) -> AtlasError {
    AtlasError::Distributed(message.into())
}

fn resolve_addr(addr: &str) -> Result<SocketAddr, AtlasError> {
    addr.to_socket_addrs()
        .map_err(|e| dist_err(format!("cannot resolve shard address '{addr}': {e}")))?
        .next()
        .ok_or_else(|| dist_err(format!("shard address '{addr}' resolves to nothing")))
}

/// Judge one attempt's outcome, its reply read whole: a `200` JSON reply
/// wins; transport errors, garbled bytes and 5xx (except 501/504) are
/// retryable; 4xx and the deadline statuses are definitive.
fn judge(addr: &str, path: &str, outcome: io::Result<ClientResponse>) -> Result<Json, AttemptFail> {
    let response = match outcome {
        Ok(response) => response,
        Err(e) => {
            return Err(AttemptFail::Retryable(format!(
                "shard {addr} failed on {path}: {e}"
            )));
        }
    };
    if response.status == 200 {
        return response.json().ok_or_else(|| {
            AttemptFail::Retryable(format!("shard {addr} sent non-JSON on {path}"))
        });
    }
    let detail = response
        .json()
        .and_then(|j| j.get("error").and_then(Json::str).map(String::from))
        .unwrap_or_else(|| "no error body".to_string());
    let message = format!(
        "shard {addr} answered {} on {path}: {detail}",
        response.status
    );
    // 504 means the shard's own deadline fired — retrying cannot beat an
    // already-blown global budget. 501 means the endpoint does not exist.
    if response.status >= 500 && response.status != 501 && response.status != 504 {
        Err(AttemptFail::Retryable(message))
    } else {
        Err(AttemptFail::NoRetry(message))
    }
}

/// Take a shard reply's `"spans"` member out of it, so frame parsing sees
/// exactly the documented reply.
fn take_spans(reply: &mut Json) -> Option<Json> {
    let Json::Obj(members) = reply else {
        return None;
    };
    let position = members.iter().position(|(key, _)| key == "spans")?;
    Some(members.remove(position).1)
}

/// Fold a shard reply's `"spans"` member (recorded under the shard's own
/// local trace, taken out by [`take_spans`]) into this process's trace:
/// allocate fresh local span ids, re-parent the shard's trace roots under
/// the enclosing `shard.call` span, and rebase the shard's monotonic
/// timestamps into the call interval (the two processes share no clock
/// epoch, so shard times are anchored to end when the reply was read whole,
/// `exchanged`, and clamped to never precede the call).
fn adopt_shard_spans(
    spans_json: &Json,
    parent: atlas_obs::SpanContext,
    call_started: Instant,
    exchanged: Instant,
) {
    if !atlas_obs::enabled() {
        return;
    }
    let records = crate::trace::spans_from_json(spans_json);
    if records.is_empty() {
        return;
    }
    let tracer = atlas_obs::tracer();
    let fresh: HashMap<u64, u64> = records
        .iter()
        .map(|record| (record.span_id, tracer.alloc_id()))
        .collect();
    let lo = records.iter().map(|r| r.start_us).min().unwrap_or(0);
    let hi = records.iter().map(|r| r.end_us()).max().unwrap_or(lo);
    // Anchor on the tracer clock the call span itself is recorded on, so the
    // adopted spans sit inside it to the microsecond.
    let anchor = tracer
        .instant_us(exchanged)
        .saturating_sub(hi.saturating_sub(lo))
        .max(tracer.instant_us(call_started));
    for mut record in records {
        record.trace_id = parent.trace_id;
        record.parent_id = match fresh.get(&record.parent_id) {
            Some(&mapped) => mapped,
            None => parent.span_id,
        };
        record.span_id = fresh
            .get(&record.span_id)
            .copied()
            .unwrap_or(record.span_id);
        record.start_us = anchor.saturating_add(record.start_us.saturating_sub(lo));
        tracer.record(record);
    }
}

impl Coordinator {
    /// Connect to the shard servers, fetch and cross-check their view of
    /// `dataset`, and assign segments contiguously (balanced within one
    /// segment) across the shards. `timeout` becomes the per-attempt shard
    /// budget; everything else uses [`CoordinatorOptions::default`].
    ///
    /// Fails with [`AtlasError::InvalidConfig`] when the configuration does
    /// not validate, and with [`AtlasError::Distributed`] when a shard is
    /// unreachable or the shards disagree about the dataset (row count,
    /// segmentation, schema, or generation).
    pub fn connect(
        addrs: &[String],
        dataset: &str,
        config: AtlasConfig,
        timeout: Duration,
    ) -> Result<Coordinator, AtlasError> {
        let options = CoordinatorOptions {
            shard_timeout: timeout,
            connect_timeout: timeout.min(Duration::from_secs(2)),
            ..CoordinatorOptions::default()
        };
        Coordinator::connect_with(addrs, dataset, config, options)
    }

    /// [`Coordinator::connect`] with explicit fault-policy knobs.
    pub fn connect_with(
        addrs: &[String],
        dataset: &str,
        config: AtlasConfig,
        options: CoordinatorOptions,
    ) -> Result<Coordinator, AtlasError> {
        config.validate()?;
        if addrs.is_empty() {
            return Err(dist_err("no shard addresses"));
        }
        let shards: Vec<ShardSlot> = addrs
            .iter()
            .zip(ShardIndex::all(addrs.len()))
            .map(|(addr, index)| {
                Ok(ShardSlot {
                    index,
                    addr: addr.clone(),
                    client: Client::new(resolve_addr(addr)?)
                        .with_timeout(options.shard_timeout)
                        .with_connect_timeout(options.connect_timeout),
                    segments: Vec::new(),
                    breaker: CircuitBreaker::new(options.circuit),
                    idle: Mutex::new(None),
                })
            })
            .collect::<Result<_, AtlasError>>()?;
        let mut coordinator = Coordinator {
            dataset: dataset.to_string(),
            pool: ThreadPool::new(config.parallelism),
            config,
            options,
            shards,
            generation: 0,
            segment_rows: Vec::new(),
            fields: Vec::new(),
            metrics: CoordinatorMetrics::new(addrs),
            jitter: Mutex::new(StdRng::seed_from_u64(options.jitter_seed)),
        };
        coordinator.fetch_meta()?;
        let num_segments = coordinator.segment_rows.len();
        let num_shards = coordinator.shards.len();
        // Contiguous balanced default: shard i takes ⌈n/N⌉ or ⌊n/N⌋ segments.
        let base = num_segments / num_shards;
        let extra = num_segments % num_shards;
        let mut next = 0usize;
        for (i, slot) in coordinator.shards.iter_mut().enumerate() {
            let take = base + usize::from(i < extra);
            slot.segments = (next..next + take).collect();
            next += take;
        }
        Ok(coordinator)
    }

    /// Replace the segment assignment. `assignment[i]` lists the global
    /// segment indices shard `i` answers for; the lists must form an exact
    /// partition of `0..num_segments` (empty lists are fine — those shards
    /// simply idle).
    pub fn with_assignment(
        mut self,
        assignment: Vec<Vec<usize>>,
    ) -> Result<Coordinator, AtlasError> {
        if assignment.len() != self.shards.len() {
            return Err(dist_err(format!(
                "assignment covers {} shards, the coordinator has {}",
                assignment.len(),
                self.shards.len()
            )));
        }
        let mut all: Vec<usize> = assignment.iter().flatten().copied().collect();
        all.sort_unstable();
        let expected: Vec<usize> = (0..self.segment_rows.len()).collect();
        if all != expected {
            return Err(dist_err(format!(
                "assignment is not a partition of the {} segments",
                self.segment_rows.len()
            )));
        }
        for (slot, mut segments) in self.shards.iter_mut().zip(assignment) {
            segments.sort_unstable();
            slot.segments = segments;
        }
        Ok(self)
    }

    /// The dataset this coordinator explores.
    pub fn dataset(&self) -> &str {
        &self.dataset
    }

    /// The dataset generation the shards agreed on at connect time.
    pub fn generation(&self) -> usize {
        self.generation
    }

    /// Number of segments of the distributed table.
    pub fn num_segments(&self) -> usize {
        self.segment_rows.len()
    }

    /// Total rows of the distributed table.
    pub fn num_rows(&self) -> usize {
        self.segment_rows.iter().sum()
    }

    /// The current segment assignment, one list of global segment indices
    /// per shard.
    pub fn assignment(&self) -> Vec<Vec<usize>> {
        self.shards.iter().map(|s| s.segments.clone()).collect()
    }

    /// The scatter counters.
    pub fn metrics(&self) -> &CoordinatorMetrics {
        &self.metrics
    }

    /// The fault-policy knobs this coordinator runs under.
    pub fn options(&self) -> &CoordinatorOptions {
        &self.options
    }

    /// Every shard's `(addr, circuit state, times opened)` — what `/metrics`
    /// and `/healthz` report circuits from.
    pub fn circuit_states(&self) -> Vec<(String, CircuitState, u64)> {
        self.shards
            .iter()
            .map(|slot| {
                (
                    slot.addr.clone(),
                    slot.breaker.state(),
                    slot.breaker.opened_total(),
                )
            })
            .collect()
    }

    /// Fetch `/shard/meta` from every shard and adopt their (unanimous) view
    /// of the dataset. A reply that does not decode — its `num_rows` not the
    /// sum of its segments' rows included — fails the connect, naming the
    /// shard.
    fn fetch_meta(&mut self) -> Result<(), AtlasError> {
        let body = Json::object(vec![("dataset", Json::from(self.dataset.as_str()))]);
        let mut agreed: Option<MetaView> = None;
        for slot in &self.shards {
            let reply = self
                .call_with(slot, "/shard/meta", &body, None, Ok)
                .map_err(|fail| dist_err(slot.render_fail("/shard/meta", fail)))?;
            let view = meta_from_json(&reply).map_err(|e| {
                dist_err(format!(
                    "shard {} misbehaved on /shard/meta: {e}",
                    slot.addr
                ))
            })?;
            match &agreed {
                None => agreed = Some(view),
                Some(first) if *first == view => {}
                Some(_) => {
                    return Err(dist_err(format!(
                        "shard {} disagrees about dataset '{}' (generation, rows, \
                         segmentation or schema)",
                        slot.addr, self.dataset
                    )));
                }
            }
        }
        let (generation, segment_rows, fields) = agreed
            .ok_or_else(|| dist_err("no shard answered the metadata probe; none are connected"))?;
        self.generation = generation;
        self.segment_rows = segment_rows;
        self.fields = fields;
        Ok(())
    }

    /// One uniform draw in `[0, 1)` from the seeded jitter generator.
    fn jitter_draw(&self) -> f64 {
        let mut rng = match self.jitter.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        rng.gen::<f64>()
    }

    /// The hedge delay of one attempt with budget `budget`, `None` when
    /// hedging is off or could not fire before the attempt deadline anyway.
    fn hedge_delay(&self, budget: Duration) -> Option<Duration> {
        let delay = match self.options.hedge {
            HedgePolicy::Off => return None,
            HedgePolicy::After(delay) => delay,
        };
        (delay < budget).then_some(delay)
    }

    /// One shard call under the full fault policy: circuit-breaker
    /// admission, bounded retries with seeded-jitter backoff, optional
    /// hedging, and the request deadline capping every attempt and sleep.
    /// The answered reply goes to `decode` once the call is timed and judged,
    /// inside the call's `shard.call` span: its `shard.decode` child holds
    /// the reply's JSON parse and the frame decode, as its `shard.exchange`
    /// child holds writing the request and reading the reply. A traced
    /// reply's spans are adopted after the decode, in a `shard.adopt` child
    /// of their own.
    fn call_with<T>(
        &self,
        slot: &ShardSlot,
        path: &str,
        body: &Json,
        deadline: Option<&Deadline>,
        decode: impl FnOnce(Json) -> Result<T, CallFail>,
    ) -> Result<T, CallFail> {
        let shard = slot.index.get();
        if !slot.breaker.admit() {
            self.metrics
                .skipped_open_circuit
                .fetch_add(1, Ordering::Relaxed);
            if atlas_obs::enabled() {
                atlas_obs::event(
                    "shard.skip",
                    &[
                        ("shard", &shard.to_string()),
                        ("path", path),
                        ("reason", "circuit-open"),
                    ],
                );
            }
            return Err(CallFail::CircuitOpen);
        }
        self.metrics.fan_out.fetch_add(1, Ordering::Relaxed);
        let payload = Arc::new(body.encode());
        let started = Instant::now();
        let mut failures = 0u32;
        let result = loop {
            let budget = match deadline {
                None => self.options.shard_timeout,
                Some(d) => match d.remaining() {
                    None => break Err(CallFail::Deadline),
                    Some(left) => left.min(self.options.shard_timeout),
                },
            };
            let mut call_span = atlas_obs::span("shard.call");
            call_span.attr("shard", shard);
            call_span.attr("path", path);
            call_span.attr("attempt", failures + 1);
            call_span.attr("mode", if failures == 0 { "primary" } else { "retry" });
            // Taken inside the span: adopted shard spans are clamped to it.
            let call_started = Instant::now();
            match self.attempt(slot, path, &payload, budget, deadline, &mut call_span) {
                Ok(answered) => break Ok((answered, call_span, call_started)),
                Err(AttemptFail::NoRetry(message)) => break Err(CallFail::Shard { message }),
                Err(AttemptFail::Retryable(message)) => {
                    // Close the attempt span before any backoff sleep.
                    drop(call_span);
                    failures += 1;
                    if failures >= self.options.retry.max_attempts.max(1) {
                        break Err(CallFail::Shard { message });
                    }
                    self.metrics.retries.fetch_add(1, Ordering::Relaxed);
                    let backoff = self.options.retry.backoff(failures, self.jitter_draw());
                    if !backoff.is_zero() {
                        match deadline {
                            None => std::thread::sleep(backoff),
                            Some(d) => match d.remaining() {
                                None => break Err(CallFail::Deadline),
                                Some(left) => std::thread::sleep(backoff.min(left)),
                            },
                        }
                    }
                }
            }
        };
        self.metrics.record(slot.index, started.elapsed());
        match &result {
            Ok(_) => slot.breaker.record_success(),
            Err(CallFail::Shard { .. }) => slot.breaker.record_failure(),
            Err(CallFail::CircuitOpen | CallFail::Deadline) => {}
        }
        let (answered, call_span, call_started) = result?;
        let Answered {
            mut json,
            exchanged,
            decoding,
        } = answered;
        let mut spans = None;
        if let Some(ctx) = call_span.context() {
            spans = take_spans(&mut json).map(|spans| (ctx, spans));
        }
        let decoded = decode(json);
        drop(decoding);
        if let Some((ctx, spans)) = spans {
            let _adopt = atlas_obs::span("shard.adopt");
            adopt_shard_spans(&spans, ctx, call_started, exchanged);
        }
        drop(call_span);
        decoded
    }

    /// One attempt of one shard call. Without hedging the request runs
    /// inline, on the slot's idle connection when it is still reusable; with
    /// hedging it and a second identical request, launched once the hedge
    /// delay passes unanswered, each open their own connection, and the
    /// first success wins. `call_span` is told which connection the request
    /// went on.
    fn attempt(
        &self,
        slot: &ShardSlot,
        path: &str,
        payload: &Arc<String>,
        budget: Duration,
        deadline: Option<&Deadline>,
        call_span: &mut atlas_obs::SpanGuard,
    ) -> Result<Answered, AttemptFail> {
        let mut client = slot.client.clone().with_timeout(budget);
        if let Some(d) = deadline {
            let left = d.remaining().unwrap_or(Duration::ZERO).as_millis();
            client = client.with_header(DEADLINE_HEADER, left.to_string());
        }
        // Propagate the coordinator trace id; the shard answers its child
        // spans in the reply's "spans" member for reassembly.
        if let Some(ctx) = atlas_obs::current() {
            client = client.with_header(TRACE_HEADER, ctx.trace_id.to_string());
        }
        let body = Some(("application/json", payload.as_bytes()));
        let Some(hedge_after) = self.hedge_delay(budget) else {
            let idle = slot.take_idle();
            call_span.attr(
                "connection",
                if idle.is_some() { "reused" } else { "fresh" },
            );
            let connection = match idle {
                Some(connection) => Ok(connection),
                None => {
                    self.metrics.record_connect(slot.index);
                    client.connect()
                }
            };
            // A connection goes back to the slot only after a whole `200`
            // JSON reply that keeps it alive; any failure closes it, so an
            // unread reply is never taken for the next request's.
            let mut reusable = None;
            let exchange = atlas_obs::span("shard.exchange");
            let outcome = connection.and_then(|mut connection| {
                let response = client.send(&mut connection, "POST", path, body, true)?;
                reusable = response.keeps_alive().then_some(connection);
                Ok(response)
            });
            drop(exchange);
            let exchanged = Instant::now();
            let decoding = atlas_obs::span("shard.decode");
            let json = judge(&slot.addr, path, outcome)?;
            if let Some(connection) = reusable {
                slot.park(connection);
            }
            return Ok(Answered {
                json,
                exchanged,
                decoding,
            });
        };
        call_span.attr("connection", "fresh");

        let started = Instant::now();
        let attempt_deadline = started + budget;
        let (tx, rx) = mpsc::channel::<(bool, Result<Json, AttemptFail>)>();
        let parent = atlas_obs::current();
        let launch = |is_hedge: bool| {
            self.metrics.record_connect(slot.index);
            let client = client.clone();
            let addr = slot.addr.clone();
            let path = path.to_string();
            let payload = Arc::clone(payload);
            let tx = tx.clone();
            // Detached: a loser may outlive the call, so it owns what it
            // sends.
            std::thread::spawn(move || {
                // The primary's timing is the enclosing shard.call span; a
                // hedge gets its own child span so the duplicate shows up
                // labeled in the reassembled tree.
                let hedge_span = is_hedge.then(|| {
                    let mut span = atlas_obs::span_in(parent, "shard.call");
                    span.attr("path", path.as_str());
                    span.attr("mode", "hedge");
                    span.attr("connection", "fresh");
                    span
                });
                let body = Some(("application/json", payload.as_bytes()));
                let outcome = judge(&addr, &path, client.request("POST", &path, body));
                drop(hedge_span);
                let _ = tx.send((is_hedge, outcome));
            });
        };
        launch(false);
        let mut outstanding = 1u32;
        let mut hedged = false;
        let mut last_failure: Option<String> = None;
        while outstanding > 0 {
            let now = Instant::now();
            let wake = if hedged {
                attempt_deadline
            } else {
                (started + hedge_after).min(attempt_deadline)
            };
            if now >= wake {
                if !hedged && now >= started + hedge_after {
                    hedged = true;
                    self.metrics.hedges_launched.fetch_add(1, Ordering::Relaxed);
                    launch(true);
                    outstanding += 1;
                    continue;
                }
                break; // attempt deadline passed with requests still out
            }
            match rx.recv_timeout(wake.duration_since(now)) {
                Ok((is_hedge, outcome)) => {
                    outstanding -= 1;
                    match outcome {
                        Ok(json) => {
                            if is_hedge {
                                self.metrics.hedges_won.fetch_add(1, Ordering::Relaxed);
                            }
                            return Ok(Answered {
                                json,
                                exchanged: Instant::now(),
                                decoding: atlas_obs::span("shard.decode"),
                            });
                        }
                        Err(AttemptFail::NoRetry(message)) => {
                            return Err(AttemptFail::NoRetry(message));
                        }
                        Err(AttemptFail::Retryable(message)) => last_failure = Some(message),
                    }
                }
                Err(mpsc::RecvTimeoutError::Timeout) => {}
                Err(mpsc::RecvTimeoutError::Disconnected) => break,
            }
        }
        Err(AttemptFail::Retryable(last_failure.unwrap_or_else(|| {
            format!(
                "shard {} timed out on {path} after {} ms",
                slot.addr,
                budget.as_millis()
            )
        })))
    }

    /// Stash the first shard-attributable failure of this explore pass and
    /// return its rendered error (the [`CutSource`] signatures only carry
    /// `AtlasError`, so attribution travels through the context).
    fn stash(&self, ctx: &ExploreCtx, fail: ExploreFail) -> AtlasError {
        let error = match &fail {
            ExploreFail::Shard { error, .. } | ExploreFail::Fatal(error) => error.clone(),
        };
        let mut stashed = match ctx.failed.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        if stashed.is_none() {
            *stashed = Some(fail);
        }
        error
    }

    /// Fail fast when the request deadline has passed between phases.
    fn check_deadline(&self, ctx: &ExploreCtx, phase: &str) -> Result<(), AtlasError> {
        match ctx.deadline {
            Some(d) if d.expired() => Err(self.stash(ctx, ExploreFail::Fatal(d.error(phase)))),
            _ => Ok(()),
        }
    }

    /// Run `call` once for every live shard with assigned segments, in
    /// parallel (one thread per shard), and return the answers in shard
    /// order — or the pass's failure: a blown deadline first, then the
    /// lowest-numbered failed shard's.
    fn fan_out<T: Send>(
        &self,
        ctx: &ExploreCtx,
        path: &str,
        call: impl Fn(&ShardSlot) -> Result<T, CallFail> + Sync,
    ) -> Result<Vec<T>, AtlasError> {
        if let Some(d) = ctx.deadline {
            if d.expired() {
                return Err(self.stash(ctx, ExploreFail::Fatal(d.error(path))));
            }
        }
        let live: Vec<&ShardSlot> = self
            .shards
            .iter()
            .filter(|slot| !ctx.dead.contains(&slot.index) && !slot.segments.is_empty())
            .collect();
        // Scatter threads inherit the dispatching phase span, so shard.call
        // spans parent under the phase that issued them.
        let parent = atlas_obs::current();
        // One answer per entry of `live`, in its order.
        let answers: Vec<Result<T, CallFail>> = std::thread::scope(|scope| {
            let handles: Vec<_> = live
                .iter()
                .map(|&slot| {
                    let call = &call;
                    scope.spawn(move || {
                        let _trace = atlas_obs::with_context(parent);
                        call(slot)
                    })
                })
                .collect();
            handles
                .into_iter()
                .zip(&live)
                .map(|(handle, slot)| {
                    handle.join().unwrap_or_else(|_| {
                        Err(CallFail::Shard {
                            message: format!("scatter thread for shard {} panicked", slot.addr),
                        })
                    })
                })
                .collect()
        });
        let mut gathered = Vec::with_capacity(live.len());
        // `live` is in shard order, so the first failure met is the
        // lowest-numbered shard's.
        let mut first_fail: Option<(ShardIndex, String)> = None;
        let mut deadline_hit = false;
        for (slot, answer) in live.iter().zip(answers) {
            match answer {
                Ok(answer) => gathered.push(answer),
                Err(CallFail::Deadline) => deadline_hit = true,
                Err(fail) => {
                    if first_fail.is_none() {
                        first_fail = Some((slot.index, slot.render_fail(path, fail)));
                    }
                }
            }
        }
        if deadline_hit {
            let error = match ctx.deadline {
                Some(d) => d.error(path),
                None => dist_err(format!("deadline expired during {path}")),
            };
            return Err(self.stash(ctx, ExploreFail::Fatal(error)));
        }
        if let Some((shard, message)) = first_fail {
            let fail = ExploreFail::Shard {
                shard,
                error: dist_err(message),
            };
            return Err(self.stash(ctx, fail));
        }
        Ok(gathered)
    }

    /// Scatter one endpoint whose reply is read whole, decode each of a
    /// shard's partials — one per run of consecutive segments — with
    /// `decode`, which answers the run's segments beside what it decoded, on
    /// the thread that received the reply, and gather the decoded runs in
    /// ascending global segment order: together exactly `ctx.live`. A
    /// partial that does not decode fails its shard, as a failed call does.
    fn scatter<T: Send>(
        &self,
        ctx: &ExploreCtx,
        path: &str,
        body_of: impl Fn(&[usize]) -> Json + Sync,
        decode: impl Fn(&Json) -> Result<(Vec<usize>, T), String> + Sync,
    ) -> Result<Vec<T>, AtlasError> {
        let answers = self.fan_out(ctx, path, |slot| {
            let body = body_of(&slot.segments);
            self.call_with(slot, path, &body, ctx.deadline, |reply| {
                Self::shard_partials(slot, path, reply, &decode)
            })
        })?;
        let mut gathered: Vec<(Vec<usize>, T)> = answers.into_iter().flatten().collect();
        gathered.sort_by_key(|(segments, _)| segments.first().copied());
        if !gathered.iter().flat_map(|(run, _)| run).eq(&ctx.live) {
            let segments: Vec<&usize> = gathered.iter().flat_map(|(run, _)| run).collect();
            let fail = ExploreFail::Fatal(dist_err(format!(
                "scatter on {path} gathered segments {segments:?}, expected {:?}",
                ctx.live
            )));
            return Err(self.stash(ctx, fail));
        }
        Ok(gathered.into_iter().map(|(_, partial)| partial).collect())
    }

    /// Validate and decode one shard's reply: each of its `partials` must
    /// decode, and their runs, in the order answered, must be exactly the
    /// segments assigned to it. Either failure is the shard's, names it and
    /// the endpoint, and counts against its circuit breaker.
    fn shard_partials<T>(
        slot: &ShardSlot,
        path: &str,
        reply: Json,
        decode: impl Fn(&Json) -> Result<(Vec<usize>, T), String>,
    ) -> Result<Vec<(Vec<usize>, T)>, CallFail> {
        let semantic = |message: String| slot.misbehaved(path, message);
        let items = get_items(&reply, "partials").map_err(semantic)?;
        let runs = items
            .iter()
            .map(&decode)
            .collect::<Result<Vec<_>, String>>()
            .map_err(semantic)?;
        if !runs.iter().flat_map(|(run, _)| run).eq(&slot.segments) {
            let answered: Vec<&usize> = runs.iter().flat_map(|(run, _)| run).collect();
            return Err(semantic(format!(
                "answered for segments {answered:?}, assigned {:?}",
                slot.segments
            )));
        }
        Ok(runs)
    }

    /// The request body shared by the per-working-set endpoints.
    fn data_body(&self, sql: &str, segments: &[usize], rest: Vec<(&str, Json)>) -> Json {
        let mut members = vec![
            ("dataset", Json::from(self.dataset.as_str())),
            ("sql", Json::from(sql)),
            (
                "segments",
                Json::array(segments.iter().map(|&s| Json::from(s)).collect()),
            ),
        ];
        members.extend(rest);
        Json::object(members)
    }

    /// The working set `sql` selects at the shards: one `/shard/working`
    /// round, whose partials — one per run of consecutive segments, folded
    /// at the shard — carry how many rows each segment holds and the run's
    /// column summaries. Keeps the counts of the live segments — the working
    /// set's size, and what a shard's count reply is held to — and merges
    /// the runs' summaries in ascending segment order — the order a local
    /// scan walks the segments in, so the collapsed [`ColumnStats`] (value
    /// counts and category counts included, which is what lets a median cut
    /// skip the `/shard/values` round and a categorical cut the
    /// `/shard/categories` one) match what
    /// [`atlas_columnar::ColumnView::summary`] and the engine's table
    /// profile compute locally bit for bit.
    fn remote<'a>(
        &'a self,
        ctx: &'a ExploreCtx<'a>,
        sql: String,
    ) -> Result<RemoteSource<'a>, AtlasError> {
        let runs = self.scatter(
            ctx,
            "/shard/working",
            |segments| self.data_body(&sql, segments, Vec::new()),
            |partial| {
                let run = working_run_from_json(partial, &self.segment_rows, &self.fields)?;
                let columns: Vec<ColumnSummary> = run
                    .columns
                    .into_iter()
                    .map(ColumnSummary::from_parts)
                    .collect();
                Ok((run.segments, (run.counts, columns)))
            },
        )?;
        let mut summaries: Vec<ColumnSummary> = self
            .fields
            .iter()
            .map(|(_, dtype)| ColumnSummary::empty(*dtype))
            .collect();
        let mut counts = Vec::with_capacity(ctx.live.len());
        for (run_counts, columns) in runs {
            for (acc, summary) in summaries.iter_mut().zip(&columns) {
                acc.merge_from(summary);
            }
            counts.extend(run_counts.into_iter().map(|count| count as u64));
        }
        Ok(RemoteSource {
            coordinator: self,
            ctx,
            sql,
            counts,
            summaries,
            counted: OnceLock::new(),
        })
    }

    /// The live segment list (ascending global indices) once `dead` shards
    /// are dropped.
    fn live_segments(&self, dead: &BTreeSet<ShardIndex>) -> Vec<usize> {
        let mut live: Vec<usize> = self
            .shards
            .iter()
            .filter(|slot| !dead.contains(&slot.index))
            .flat_map(|slot| slot.segments.iter().copied())
            .collect();
        live.sort_unstable();
        live
    }

    /// Exact coverage of an answer that dropped the `dead` shards.
    fn coverage(&self, dead: &BTreeSet<ShardIndex>) -> Coverage {
        let dead_slots = || self.shards.iter().filter(|slot| dead.contains(&slot.index));
        let mut missing: Vec<usize> = dead_slots()
            .flat_map(|slot| slot.segments.iter().copied())
            .collect();
        missing.sort_unstable();
        let missing_rows: usize = missing
            .iter()
            .filter_map(|&s| self.segment_rows.get(s))
            .sum();
        let rows_total = self.num_rows();
        let rows_answered = rows_total.saturating_sub(missing_rows);
        let segments_answered = self.segment_rows.len().saturating_sub(missing.len());
        Coverage {
            segments_total: self.segment_rows.len(),
            segments_answered,
            missing_segments: missing,
            rows_total,
            rows_answered,
            failed_shards: dead_slots().map(|slot| slot.addr.clone()).collect(),
            columns: self
                .fields
                .iter()
                .map(|(name, _)| (name.clone(), rows_answered))
                .collect(),
        }
    }

    /// Run one distributed exploration step under the strict contract.
    ///
    /// Bit-identical to [`atlas_core::Atlas::explore_released`] with the
    /// same table and configuration — the same queries, counts and scores,
    /// no rows (see the module docs); errors exactly like it on an
    /// empty working set ([`AtlasError::EmptyWorkingSet`]) or when nothing
    /// can be cut ([`AtlasError::NoCuttableAttributes`]), and with
    /// [`AtlasError::Distributed`] when a shard misbehaves.
    pub fn explore(&self, query: &ConjunctiveQuery) -> Result<MapResult, AtlasError> {
        self.explore_resilient(query, ExploreMode::Strict, None)
            .map(|distributed| distributed.result)
    }

    /// Run one distributed exploration step under an explicit failure mode
    /// and optional request deadline.
    ///
    /// [`ExploreMode::Strict`] keeps the bit-identity-or-typed-error
    /// contract of [`Coordinator::explore`]. [`ExploreMode::Degraded`]
    /// drops up to `max_failed_shards` shards that fail past their retries
    /// (restarting the pass without them), folds the surviving segments,
    /// and reports exact [`Coverage`]; shards whose circuit is already open
    /// are dropped up front without waiting for them to fail again.
    pub fn explore_resilient(
        &self,
        query: &ConjunctiveQuery,
        mode: ExploreMode,
        deadline: Option<Deadline>,
    ) -> Result<DistributedResult, AtlasError> {
        let max_failed = match mode {
            ExploreMode::Strict => 0,
            ExploreMode::Degraded { max_failed_shards } => {
                max_failed_shards.min(self.shards.len().saturating_sub(1))
            }
        };
        let mut dead: BTreeSet<ShardIndex> = BTreeSet::new();
        if max_failed > 0 {
            for slot in &self.shards {
                if dead.len() >= max_failed {
                    break;
                }
                if !slot.segments.is_empty() && slot.breaker.is_refusing() {
                    dead.insert(slot.index);
                }
            }
        }
        let outcome = loop {
            match self.explore_once(query, &dead, deadline.as_ref()) {
                Ok(result) => break Ok(result),
                Err(ExploreFail::Shard { shard, error }) => {
                    if dead.len() < max_failed && !dead.contains(&shard) {
                        dead.insert(shard);
                        continue;
                    }
                    break Err(error);
                }
                Err(ExploreFail::Fatal(error)) => break Err(error),
            }
        };
        match outcome {
            Ok(result) => {
                if !dead.is_empty() {
                    self.metrics
                        .degraded_explores
                        .fetch_add(1, Ordering::Relaxed);
                }
                Ok(DistributedResult {
                    coverage: self.coverage(&dead),
                    result,
                })
            }
            Err(error) => {
                if matches!(error, AtlasError::Deadline { .. }) {
                    self.metrics
                        .deadline_exceeded
                        .fetch_add(1, Ordering::Relaxed);
                }
                Err(error)
            }
        }
    }

    /// One explore pass over the live shards, classifying any failure as
    /// shard-attributable (degraded mode may drop the shard and re-run) or
    /// fatal.
    fn explore_once(
        &self,
        query: &ConjunctiveQuery,
        dead: &BTreeSet<ShardIndex>,
        deadline: Option<&Deadline>,
    ) -> Result<MapResult, ExploreFail> {
        let live = self.live_segments(dead);
        if live.is_empty() {
            return Err(ExploreFail::Fatal(dist_err(
                "no live shard holds any segment (every shard failed or is refusing)",
            )));
        }
        let ctx = ExploreCtx {
            dead,
            live,
            deadline,
            failed: Mutex::new(None),
        };
        self.explore_live(query, &ctx).map_err(|error| {
            let stashed = ctx.failed.into_inner();
            let stashed = stashed.unwrap_or_else(PoisonError::into_inner);
            stashed.unwrap_or(ExploreFail::Fatal(error))
        })
    }

    /// The explore over the context's live segments: one `/shard/working`
    /// round evaluates the working set, and the engine's own body,
    /// [`explore_from_source`], runs over it at the shards.
    fn explore_live(
        &self,
        query: &ConjunctiveQuery,
        ctx: &ExploreCtx,
    ) -> Result<MapResult, AtlasError> {
        let mut total_span = atlas_obs::span("explore");
        total_span.attr("dataset", self.dataset.as_str());
        total_span.attr("distributed", true);
        let mut query = query.clone();
        if query.table.is_empty() {
            query.table = self.dataset.clone();
        }
        let query_span = atlas_obs::span("phase.query");
        let source = self.remote(ctx, to_sql(&query))?;
        let mut timings = PhaseTimings {
            query_ms: query_span.finish_ms(),
            ..PhaseTimings::default()
        };
        let working_set_size = source.counts.iter().sum::<u64>() as usize;
        if working_set_size == 0 {
            return Err(AtlasError::EmptyWorkingSet);
        }
        let (config, pool) = (&self.config, &self.pool);
        let (maps, skipped_attributes) =
            explore_from_source(config, pool, &source, &query, true, &mut timings)?;
        timings.total_ms = total_span.finish_ms();
        Ok(MapResult {
            maps,
            working_set_size,
            working_set: Bitmap::new_empty(0),
            skipped_attributes,
            timings,
        })
    }
}

/// A working set at the shards, addressed by its SQL: the explore's, or a
/// region's that a composition re-cuts. As a [`CutSource`], every kernel of
/// the shared `CUT` body ([`atlas_core::cuts_from_source`]) becomes one
/// scatter round whose per-run answers fold into exactly what the
/// in-process [`atlas_core::TableCutSource`] computes — except that a
/// partition comes back as counts, not rows: the cuts of a working set are
/// one `/shard/select` round that counts each cut's regions and each pair of
/// cuts' cells. As an [`ExploreSource`], it cuts the candidates from the
/// folded summaries, answers their distances and their products from those
/// cells, and re-cuts each region of a composition level through a source
/// of its own. Every region it makes is built without rows.
struct RemoteSource<'a> {
    coordinator: &'a Coordinator,
    /// The live-set and failure context of the running explore pass.
    ctx: &'a ExploreCtx<'a>,
    /// The working-set SQL, printed once: every round carries these very
    /// bytes, which is what lets a shard evaluate them on the first round
    /// and recognise them on the others.
    sql: String,
    /// How many working rows each live segment holds, in `ExploreCtx::live`
    /// order …
    counts: Vec<u64>,
    /// … the working set's column summaries, one per schema column …
    summaries: Vec<ColumnSummary>,
    /// … and what the count round of its cuts answered, once it has run.
    counted: OnceLock<Counted>,
}

/// What the count round of a working set's cuts answered, summed over the
/// shards: the plans, in request order, and the cells of each product the
/// round asked for — each plan alone, then every pair.
struct Counted {
    plans: Vec<CutPlan>,
    products: Vec<Vec<usize>>,
    cells: Vec<Vec<u64>>,
}

impl Counted {
    /// The counted cells of the product of `plans`, in that order.
    fn cells(&self, plans: &[usize]) -> Option<&[u64]> {
        let at = self.products.iter().position(|p| p == plans)?;
        self.cells.get(at).map(Vec::as_slice)
    }

    /// How many regions plan `plan` makes.
    fn width(&self, plan: usize) -> usize {
        self.plans
            .get(plan)
            .map_or(0, |plan| plan.partition.region_count())
    }
}

impl RemoteSource<'_> {
    /// Scatter one per-attribute round over the working set and decode each
    /// run's partial on arrival.
    fn scatter<T: Send>(
        &self,
        path: &str,
        attribute: &str,
        decode: impl Fn(&Json) -> Result<T, String> + Sync,
    ) -> Result<Vec<T>, AtlasError> {
        let body_of = |segments: &[usize]| {
            let attribute = vec![("attribute", Json::from(attribute))];
            self.coordinator.data_body(&self.sql, segments, attribute)
        };
        let decode = |partial: &Json| {
            let segments = run_segments(partial)?;
            let decoded = decode(partial).map_err(|e| format!("segments {segments:?}: {e}"))?;
            Ok((segments, decoded))
        };
        self.coordinator.scatter(self.ctx, path, body_of, decode)
    }

    /// The folded [`ColumnStats`] of one attribute over the working set
    /// (errors on attributes the schema does not know, like the local path
    /// does).
    fn stats_of(&self, attribute: &str) -> Result<ColumnStats, AtlasError> {
        let fields = &self.coordinator.fields;
        fields
            .iter()
            .zip(&self.summaries)
            .find(|((name, _), _)| name == attribute)
            .map(|(_, summary)| summary.to_stats())
            .ok_or_else(|| dist_err(format!("unknown attribute '{attribute}'")))
    }

    /// How many working rows `segments` — one shard's, all live — hold.
    fn working_rows(&self, segments: &[usize]) -> u64 {
        let live = &self.ctx.live;
        let at = |segment: &usize| live.binary_search(segment).ok();
        let count = |at: usize| self.counts.get(at).copied().unwrap_or(0);
        segments.iter().filter_map(at).map(count).sum()
    }

    /// One `/shard/select` round: each shard partitions its segments'
    /// working rows by `plans` and counts the cells of each of `products`
    /// over them. Each reply is decoded and held to its invariants on the
    /// thread that received it — a reply that breaks one is that shard's
    /// failure — and the cells are summed over the shards, which is exact.
    fn count(
        &self,
        plans: &[CutPlan],
        products: &[Vec<usize>],
    ) -> Result<Vec<Vec<u64>>, AtlasError> {
        let coordinator = self.coordinator;
        let regions: Vec<usize> = plans.iter().map(|p| p.partition.region_count()).collect();
        let members = vec![
            (
                "partitions",
                Json::array(plans.iter().map(partition_to_json).collect()),
            ),
            ("products", products_to_json(products)),
        ];
        let path = "/shard/select";
        let replies = coordinator.fan_out(self.ctx, path, |slot| {
            let body = coordinator.data_body(&self.sql, &slot.segments, members.clone());
            coordinator.call_with(slot, path, &body, self.ctx.deadline, |reply| {
                let ask = CountAsk {
                    segments: &slot.segments,
                    regions: &regions,
                    products,
                    working_rows: self.working_rows(&slot.segments),
                };
                count_reply_from_json(&reply, &ask).map_err(|e| slot.misbehaved(path, e))
            })
        })?;
        let mut sums: Vec<Vec<u64>> = products
            .iter()
            .map(|plans| vec![0; plans.iter().filter_map(|&p| regions.get(p)).product()])
            .collect();
        for reply in replies {
            for (sum, cells) in sums.iter_mut().zip(reply) {
                sum.iter_mut().zip(cells).for_each(|(sum, n)| *sum += n);
            }
        }
        Ok(sums)
    }

    /// The cells of the product of `maps` — candidates cut from this working
    /// set, in order — row-major over their regions. A map is its cut's
    /// plan with the regions no row fell in left out, so its cells are the
    /// plan's cells at the regions it kept: read from the candidates' round
    /// for one map or two (a pair asked the other way round is transposed),
    /// counted by one more round for three or more.
    fn map_cells(&self, maps: &[&DataMap]) -> Result<Vec<u64>, AtlasError> {
        let counted = self
            .counted
            .get()
            .ok_or_else(|| dist_err("the candidates' cells were never counted"))?;
        let plans = maps
            .iter()
            .map(|map| {
                let attribute = map.source_attributes.first();
                let plan = counted
                    .plans
                    .iter()
                    .position(|p| Some(&p.attribute) == attribute);
                plan.ok_or_else(|| dist_err(format!("no cut counted {attribute:?}")))
            })
            .collect::<Result<Vec<usize>, AtlasError>>()?;
        let cells = match (counted.cells(&plans), plans.as_slice()) {
            (Some(cells), _) => cells.to_vec(),
            (None, &[p, q]) => {
                let cells = counted.cells(&[q, p]).unwrap_or_default();
                transposed(cells, counted.width(q))
            }
            (None, _) => {
                let cluster: Vec<CutPlan> = plans
                    .iter()
                    .filter_map(|&p| counted.plans.get(p).cloned())
                    .collect();
                let product = vec![(0..cluster.len()).collect()];
                self.count(&cluster, &product)?.pop().unwrap_or_default()
            }
        };
        let mut kept = vec![0usize];
        for (map, &plan) in maps.iter().zip(&plans) {
            let counts = counted.cells(&[plan]).unwrap_or_default();
            let held = counts.iter().enumerate().filter(|&(_, &count)| count > 0);
            let regions: Vec<usize> = held.map(|(region, _)| region).collect();
            if regions.len() != map.num_regions() {
                return Err(dist_err(format!(
                    "the cut of {:?} counted {} regions with rows, its map has {}",
                    map.source_attributes,
                    regions.len(),
                    map.num_regions()
                )));
            }
            let width = counted.width(plan);
            kept = kept
                .iter()
                .flat_map(|&at| regions.iter().map(move |&r| at * width + r))
                .collect();
        }
        kept.iter()
            .map(|&at| cells.get(at).copied())
            .collect::<Option<Vec<u64>>>()
            .ok_or_else(|| dist_err("a product's cells do not cover its plans' regions"))
    }
}

/// The `cols × rows` table, row-major, of the `rows`-row table `cells`,
/// row-major: cell `(i, j)` of one is cell `(j, i)` of the other.
fn transposed(cells: &[u64], rows: usize) -> Vec<u64> {
    let rows = rows.max(1);
    let cols = cells.len() / rows;
    let at = |cell: usize| cells.get(cell % rows * cols + cell / rows);
    (0..cells.len()).filter_map(at).copied().collect()
}

impl<'s> ExploreSource<'s> for RemoteSource<'_> {
    /// Every attribute's cut is planned from the folded summaries, and all
    /// of them are counted in one `/shard/select` round, pairs included. The
    /// deadline is checked once more before the distances. No statistics are
    /// held: a re-cut reads each region's from its own round.
    fn candidates(
        &self,
        user_query: &ConjunctiveQuery,
        attributes: Option<&[String]>,
    ) -> Result<(CandidateSet, Vec<AttributeStats<'s>>), AtlasError> {
        let coordinator = self.coordinator;
        let names: Vec<String> = match attributes {
            Some(list) => list.to_vec(),
            None => coordinator
                .fields
                .iter()
                .map(|(name, _)| name.clone())
                .collect(),
        };
        let stats = names
            .iter()
            .map(|name| self.stats_of(name))
            .collect::<Result<Vec<_>, AtlasError>>()?;
        let attributes: Vec<(&str, &ColumnStats)> =
            names.iter().map(String::as_str).zip(&stats).collect();
        let cuts = cuts_from_source(self, user_query, &attributes, &coordinator.config.cut)?;
        let mut candidates = CandidateSet::default();
        for (name, cut) in names.into_iter().zip(cuts) {
            match cut {
                Some(map) => candidates.maps.push(map),
                None => candidates.skipped.push(name),
            }
        }
        coordinator.check_deadline(self.ctx, "distances")?;
        Ok((candidates, Vec::new()))
    }

    /// The pair's cells from the candidates' round.
    fn contingency(&self, a: &DataMap, b: &DataMap) -> Result<ContingencyTable, AtlasError> {
        let cells = self.map_cells(&[a, b])?;
        Ok(ContingencyTable::from_counts(
            a.num_regions(),
            b.num_regions(),
            cells,
        ))
    }

    /// The cluster's cells — from the candidates' round for two maps, from
    /// one more round for three or more — with each cell's conjunction.
    fn product(
        &self,
        members: &[DataMap],
        drop_empty: bool,
    ) -> Result<Option<DataMap>, AtlasError> {
        let cells = self.map_cells(&members.iter().collect::<Vec<_>>())?;
        match product_of_counts(members, &cells, drop_empty) {
            Some(map) => Ok(Some(map)),
            None => Err(dist_err("a product's cells do not match its maps")),
        }
    }

    /// Each region is one `/shard/working` round on its query, whose folded
    /// summaries are its statistics; its cut's regions are counted off them
    /// ([`cut_counted_from_source`]), or — for a column with more values than
    /// a summary counts — by one `/shard/select` round. One coordinator pool
    /// task per region. Every level is counted: the next re-cuts from SQL.
    fn recut(
        &self,
        regions: &[Cow<'_, Region>],
        attribute: &str,
        _whole: Option<&ColumnStats>,
        _counted: bool,
    ) -> Result<Vec<Option<DataMap>>, AtlasError> {
        let coordinator = self.coordinator;
        let parent = atlas_obs::current();
        let cuts = coordinator.pool.par_map(regions, |region| {
            let _trace = atlas_obs::with_context(parent);
            let query = &region.query;
            let region = coordinator.remote(self.ctx, to_sql(query))?;
            let stats = region.stats_of(attribute)?;
            let config = &coordinator.config.cut;
            cut_counted_from_source(&region, query, attribute, config, &stats)
        });
        cuts.into_iter().collect()
    }
}

impl CutSource for RemoteSource<'_> {
    type Extent = usize;

    fn data_type(&self, attribute: &str) -> Result<DataType, AtlasError> {
        let fields = &self.coordinator.fields;
        let field = fields.iter().find(|(name, _)| name == attribute);
        field
            .map(|(_, dtype)| *dtype)
            .ok_or_else(|| dist_err(format!("unknown attribute '{attribute}'")))
    }

    fn numeric_values(&self, attribute: &str) -> Result<Vec<f64>, AtlasError> {
        let partials = self.scatter("/shard/values", attribute, |partial| {
            parse_hex_f64s(get_str(partial, "values")?)
        })?;
        Ok(partials.concat())
    }

    /// Scatter `/shard/categories` and fold the per-run zero-inclusive
    /// counts in segment order, which is global first-appearance order. Only
    /// a column with more values than a summary counts is asked about here;
    /// for every other the folded summaries already hold the vector.
    fn category_counts(&self, attribute: &str) -> Result<Vec<(String, usize)>, AtlasError> {
        let partials = self.scatter("/shard/categories", attribute, |partial| {
            get_items(partial, "counts")?
                .iter()
                .map(|pair| {
                    let Some([value, count]) = pair.items() else {
                        return Err("category count is not a pair".to_string());
                    };
                    let value = value
                        .str()
                        .ok_or_else(|| "category value is not a string".to_string())?;
                    let count = count
                        .index()
                        .ok_or_else(|| "category count is not integral".to_string())?;
                    Ok((value.to_string(), count))
                })
                .collect::<Result<Vec<_>, String>>()
        })?;
        let mut folded: Vec<(String, usize)> = Vec::new();
        for counts in &partials {
            merge_category_counts(&mut folded, counts);
        }
        Ok(folded)
    }

    /// One count round for every plan: each plan's region counts and — for
    /// the distances of the candidates — every pair's cells, which the
    /// source keeps ([`Counted`]).
    fn partition(&self, plans: &[CutPlan]) -> Result<Vec<Vec<usize>>, AtlasError> {
        let n = plans.len();
        let singles = (0..n).map(|p| vec![p]);
        let pairs = (0..n).flat_map(|p| (p + 1..n).map(move |q| vec![p, q]));
        let products: Vec<Vec<usize>> = singles.chain(pairs).collect();
        let cells = self.count(plans, &products)?;
        let counts = cells
            .iter()
            .take(n)
            .map(|cells| cells.iter().map(|&count| count as usize).collect())
            .collect();
        let counted = Counted {
            plans: plans.to_vec(),
            products,
            cells,
        };
        self.counted
            .set(counted)
            .map_err(|_| dist_err("a working set's cuts are counted once"))?;
        Ok(counts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::{read_request, write_response, Response};
    use std::io::BufReader;
    use std::net::TcpListener;

    /// A pair's cells counted the other way round: the 2 × 3 table of rows
    /// (0, 1) and columns (0, 1, 2) read as the 3 × 2 one.
    #[test]
    fn a_pair_counted_the_other_way_round_is_transposed() {
        assert_eq!(transposed(&[1, 2, 3, 4, 5, 6], 2), vec![1, 4, 2, 5, 3, 6]);
        assert_eq!(transposed(&[1, 4, 2, 5, 3, 6], 3), vec![1, 2, 3, 4, 5, 6]);
        assert_eq!(transposed(&[], 2), Vec::<u64>::new());
    }

    /// A shard whose `/shard/meta` reply claims 100 rows over segments of 60
    /// and 60: connecting to it fails, naming the shard, instead of adopting
    /// a row count no fold agrees with.
    #[test]
    fn a_meta_reply_whose_rows_are_not_its_segments_sum_is_refused() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let shard = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let request = read_request(&mut reader, 1 << 16, None).unwrap();
            assert_eq!(request.path, "/shard/meta");
            let reply = crate::wire::parse(
                r#"{"dataset": "t", "generation": 0, "num_rows": 100,
                    "segments": [60, 60], "fields": [{"name": "x", "dtype": "int"}]}"#,
            )
            .unwrap();
            write_response(&mut &stream, &Response::json(200, &reply), false).unwrap();
        });
        let error = Coordinator::connect(
            std::slice::from_ref(&addr),
            "t",
            AtlasConfig::default(),
            Duration::from_secs(5),
        )
        .unwrap_err();
        shard.join().unwrap();
        let AtlasError::Distributed(message) = error else {
            panic!("expected a Distributed error, got {error:?}");
        };
        assert!(message.contains(&addr), "{message}");
        assert!(message.contains("num_rows 100"), "{message}");
    }

    /// A shard whose `/shard/working` reply is a valid run of other segments
    /// than it was assigned — `[1]` of its `[0, 1]` — fails the explore,
    /// naming the shard, instead of folding a working set that lacks a
    /// segment.
    #[test]
    fn a_reply_for_other_segments_than_assigned_is_refused() {
        use crate::wire::frames::working_run_to_json;
        use atlas_columnar::{DistinctValues, SummaryParts};
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let shard = std::thread::spawn(move || {
            let meta = crate::wire::parse(
                r#"{"dataset": "t", "generation": 0, "num_rows": 100,
                    "segments": [50, 50], "fields": [{"name": "x", "dtype": "int"}]}"#,
            )
            .unwrap();
            let summary = SummaryParts {
                dtype: DataType::Int,
                non_null: 50,
                nulls: 0,
                distinct: DistinctValues::Numbers(vec![7]),
                counts: Some(vec![50]),
            };
            let run = working_run_to_json(&[1], &[50], &[summary]);
            let working = Json::object(vec![("partials", Json::array(vec![run]))]);
            for reply in [meta, working] {
                let (stream, _) = listener.accept().unwrap();
                let mut reader = BufReader::new(stream.try_clone().unwrap());
                read_request(&mut reader, 1 << 16, None).unwrap();
                write_response(&mut &stream, &Response::json(200, &reply), false).unwrap();
            }
        });
        let coordinator = Coordinator::connect(
            std::slice::from_ref(&addr),
            "t",
            AtlasConfig::fast(),
            Duration::from_secs(5),
        )
        .unwrap();
        let error = coordinator
            .explore(&ConjunctiveQuery::all("t"))
            .unwrap_err();
        shard.join().unwrap();
        let AtlasError::Distributed(message) = error else {
            panic!("expected a Distributed error, got {error:?}");
        };
        assert!(message.contains(&addr), "{message}");
        let refusal = "misbehaved on /shard/working: answered for segments [1], assigned [0, 1]";
        assert!(message.contains(refusal), "{message}");
    }
}
