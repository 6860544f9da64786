//! How the coordinator calls a shard: one exchange body, and the one home of
//! the fault policy around it.
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
//! Every attempt runs one exchange body, [`exchange`]: write the request on
//! a connection and read the whole reply. Each shard slot keeps at most one
//! idle keep-alive connection, and an attempt's request sends on it, so an
//! explore's rounds pay no connect, accept or worker hand-off at the shard.
//! An attempt takes the idle connection only when a non-blocking peek finds
//! it alive ([`Connection::is_reusable`]: nothing to read yet — EOF, an
//! error or unread bytes close it and the attempt opens a new one), and a
//! connection goes back to the slot only after a whole `200` JSON reply that
//! keeps it alive, and only into an empty slot: concurrent calls to one
//! shard open connections of their own and close the extras. A failed
//! attempt — a timeout, a truncated or garbled reply, an error status —
//! closes its connection, so a late reply is never read as the next
//! request's; past the peek, a failure on a reused connection is an ordinary
//! attempt failure under the retry policy and the breaker. One idle
//! connection per slot stays below the two or more workers of every default
//! server, and a server hangs up an idle keep-alive connection as soon as
//! another waits, so a one-worker shard still serves other clients.
//!
//! Hedging adds only the race: with [`HedgePolicy::After`] set, the primary
//! runs the exchange on a thread of its own over the slot's idle connection,
//! and a hedge launched once the delay passes unanswered runs it over a
//! fresh one. The first reply judged a success wins, and the calling thread
//! parks its connection; a loser's connection closes with its thread.
//! An exchange's spans are recorded when the calling thread judges it, so a
//! loser still out when the race returns records nothing: no span of it can
//! outlast the `shard.call` it would hang under.
//! `connects` in the coordinator's `/metrics` counts the connections opened
//! per shard, and each `shard.call` span says `connection=reused|fresh`.
//!
//! Inside a traced call, `shard.exchange` covers writing the request and
//! reading the whole reply, `shard.decode` the reply's JSON parse and the
//! caller's decode with its checks, and `shard.adopt`, after them, the
//! adoption of the shard's spans. The shard's `shard.request` (its body
//! parse a `shard.parse` child) is adopted under the call, ending where the
//! exchange ends; the shard's reply encode and the wire cannot appear in
//! the reply that carries those spans, so they read as `shard.exchange` −
//! `shard.request`.

use super::{dist_err, Coordinator, ExploreCtx, ExploreFail, ShardIndex};
use crate::client::{Client, Connection};
use crate::http::{ClientResponse, DEADLINE_HEADER, TRACE_HEADER};
use crate::resilience::{CircuitBreaker, CircuitConfig, Deadline, HedgePolicy, RetryPolicy};
use crate::wire::Json;
use atlas_core::AtlasError;
use rand::Rng;
use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Seed of the jitter generator, fixed so retry schedules replay
/// deterministically ("ATLAS").
pub(super) const JITTER_SEED: u64 = 0x41_54_4c_41_53;

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
}

impl Default for CoordinatorOptions {
    fn default() -> CoordinatorOptions {
        CoordinatorOptions {
            shard_timeout: Duration::from_secs(10),
            connect_timeout: Duration::from_secs(2),
            retry: RetryPolicy::default(),
            hedge: HedgePolicy::Off,
            circuit: CircuitConfig::default(),
        }
    }
}

#[derive(Debug)]
pub(super) struct ShardSlot {
    pub(super) index: ShardIndex,
    pub(super) addr: String,
    client: Client,
    /// Global segment indices this shard answers for, ascending. May be
    /// empty, in which case the shard is skipped by every scatter.
    pub(super) segments: Vec<usize>,
    pub(super) breaker: CircuitBreaker,
    /// At most one idle keep-alive connection, which the next attempt takes
    /// while it is still reusable.
    idle: Mutex<Option<Connection>>,
}

impl ShardSlot {
    /// The slot of the shard at `addr`, with no segments and no connection
    /// yet.
    pub(super) fn new(
        index: ShardIndex,
        addr: &str,
        options: &CoordinatorOptions,
    ) -> Result<ShardSlot, AtlasError> {
        Ok(ShardSlot {
            index,
            addr: addr.to_string(),
            client: Client::new(resolve_addr(addr)?)
                .with_timeout(options.shard_timeout)
                .with_connect_timeout(options.connect_timeout),
            segments: Vec::new(),
            breaker: CircuitBreaker::new(options.circuit),
            idle: Mutex::new(None),
        })
    }

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
    pub(super) fn misbehaved(&self, path: &str, message: String) -> CallFail {
        self.breaker.record_failure();
        CallFail::Shard {
            message: format!("shard {} misbehaved on {path}: {message}", self.addr),
        }
    }

    /// What a failed call to this shard on `path` is reported as; every
    /// message names the shard.
    pub(super) fn render_fail(&self, path: &str, fail: CallFail) -> String {
        let addr = &self.addr;
        match fail {
            CallFail::Shard { message } => message,
            CallFail::CircuitOpen => format!("shard {addr} refused on {path}: circuit open"),
            CallFail::Deadline => format!("deadline expired while calling shard {addr} on {path}"),
        }
    }
}

/// How one shard call failed, before rendering into an [`AtlasError`].
pub(super) enum CallFail {
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

/// What one [`exchange`] read: the reply, or why there is none; the instant
/// the exchange ended; the connection when the reply keeps it alive; and the
/// exchange's closed spans, which [`answer`] records.
struct Exchanged {
    outcome: io::Result<ClientResponse>,
    at: Instant,
    reusable: Option<Connection>,
    spans: Vec<atlas_obs::SpanRecord>,
}

/// A shard's `200` JSON reply to one attempt, the instant it was read
/// whole, and the `shard.decode` span opened before its JSON parse.
struct Answered {
    json: Json,
    exchanged: Instant,
    decoding: atlas_obs::SpanGuard,
}

fn resolve_addr(addr: &str) -> Result<SocketAddr, AtlasError> {
    addr.to_socket_addrs()
        .map_err(|e| dist_err(format!("cannot resolve shard address '{addr}': {e}")))?
        .next()
        .ok_or_else(|| dist_err(format!("shard address '{addr}' resolves to nothing")))
}

/// The one exchange body every attempt runs, inline or on either side of a
/// hedge race: open a connection when `connection` is `None`, then write
/// the request and read the whole reply inside a `shard.exchange` span.
fn exchange(
    client: &Client,
    connection: Option<Connection>,
    path: &str,
    payload: &str,
) -> Exchanged {
    let connection = connection.map_or_else(|| client.connect(), Ok);
    let mut reusable = None;
    let span = atlas_obs::span("shard.exchange");
    let outcome = connection.and_then(|mut connection| {
        let body = Some(("application/json", payload.as_bytes()));
        let response = client.send(&mut connection, "POST", path, body, true)?;
        reusable = response.keeps_alive().then_some(connection);
        Ok(response)
    });
    let spans = span.into_record().into_iter().collect();
    Exchanged {
        outcome,
        at: Instant::now(),
        reusable,
        spans,
    }
}

/// Judge one exchange on the calling thread, inside a `shard.decode` span
/// that the answer carries on: a `200` JSON reply wins and its connection,
/// when the reply keeps it alive, goes back to the slot; any other outcome
/// closes the connection, so an unread reply is never taken for the next
/// request's. The exchange's spans are recorded here, inside the call.
fn answer(slot: &ShardSlot, path: &str, exchanged: Exchanged) -> Result<Answered, AttemptFail> {
    for span in exchanged.spans {
        atlas_obs::tracer().record(span);
    }
    let decoding = atlas_obs::span("shard.decode");
    let json = judge(&slot.addr, path, exchanged.outcome)?;
    if let Some(connection) = exchanged.reusable {
        slot.park(connection);
    }
    Ok(Answered {
        json,
        exchanged: exchanged.at,
        decoding,
    })
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

/// Take a shard reply's `"spans"` member out of it, so the caller's decode
/// sees exactly the documented reply.
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
    /// One uniform draw in `[0, 1)` from the seeded jitter generator.
    fn jitter_draw(&self) -> f64 {
        let mut rng = match self.jitter.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        rng.gen::<f64>()
    }

    /// One shard call under the full fault policy: circuit-breaker
    /// admission, bounded retries with seeded-jitter backoff, optional
    /// hedging, and the request deadline capping every attempt and sleep.
    /// The answered reply goes to `decode` once the call is timed and judged,
    /// inside the call's `shard.call` span: its `shard.decode` child holds
    /// the reply's JSON parse and the caller's decode, as its
    /// `shard.exchange` child holds writing the request and reading the
    /// reply. A traced reply's spans are adopted after the decode, in a
    /// `shard.adopt` child of their own.
    pub(super) fn call_with<T>(
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

    /// One attempt of one shard call: its request goes on the slot's idle
    /// connection when it is still reusable (`call_span` says which), runs
    /// [`exchange`] inline or, with hedging on, in [`Coordinator::race`],
    /// and is judged by [`answer`].
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
        let idle = slot.take_idle();
        call_span.attr(
            "connection",
            if idle.is_some() { "reused" } else { "fresh" },
        );
        if idle.is_none() {
            self.metrics.record_connect(slot.index);
        }
        let (owned_path, payload) = (path.to_string(), Arc::clone(payload));
        let request = move |connection| exchange(&client, connection, &owned_path, &payload);
        match self.options.hedge {
            // A hedge that could not fire before the attempt deadline is none.
            HedgePolicy::After(delay) if delay < budget => {
                self.race(slot, path, request, idle, budget, delay)
            }
            _ => answer(slot, path, request(idle)),
        }
    }

    /// The hedge race of one attempt: the primary runs `request` — the
    /// attempt's [`exchange`] — over `idle` on a thread of its own, and once
    /// `hedge_after` passes unanswered a hedge runs it over a fresh
    /// connection. The first reply [`answer`] judges a success wins. A loser
    /// may outlive the call: its thread owns what it sends, and its
    /// connection and spans go when nothing receives its reply.
    fn race(
        &self,
        slot: &ShardSlot,
        path: &str,
        request: impl Fn(Option<Connection>) -> Exchanged + Clone + Send + 'static,
        idle: Option<Connection>,
        budget: Duration,
        hedge_after: Duration,
    ) -> Result<Answered, AttemptFail> {
        let started = Instant::now();
        let attempt_deadline = started + budget;
        let (tx, rx) = mpsc::channel::<(bool, Exchanged)>();
        let parent = atlas_obs::current();
        let launch = |is_hedge: bool, connection: Option<Connection>| {
            let request = request.clone();
            let path = path.to_string();
            let tx = tx.clone();
            std::thread::spawn(move || {
                let _trace = atlas_obs::with_context(parent);
                // The primary's timing is the enclosing shard.call span; a
                // hedge gets its own child span so the duplicate shows up
                // labeled in the reassembled tree.
                let hedge_span = is_hedge.then(|| {
                    let mut span = atlas_obs::span("shard.call");
                    span.attr("path", path.as_str());
                    span.attr("mode", "hedge");
                    span.attr("connection", "fresh");
                    span
                });
                let mut exchanged = request(connection);
                exchanged
                    .spans
                    .extend(hedge_span.and_then(atlas_obs::SpanGuard::into_record));
                let _ = tx.send((is_hedge, exchanged));
            });
        };
        launch(false, idle);
        let mut hedge_at = Some(started + hedge_after);
        let mut outstanding = 1u32;
        let mut last_failure: Option<String> = None;
        while outstanding > 0 {
            let wake = hedge_at.unwrap_or(attempt_deadline);
            match rx.recv_timeout(wake.saturating_duration_since(Instant::now())) {
                Ok((is_hedge, exchanged)) => {
                    outstanding -= 1;
                    match answer(slot, path, exchanged) {
                        Ok(answered) => {
                            if is_hedge {
                                self.metrics.hedges_won.fetch_add(1, Ordering::Relaxed);
                            }
                            return Ok(answered);
                        }
                        Err(AttemptFail::NoRetry(message)) => {
                            return Err(AttemptFail::NoRetry(message));
                        }
                        Err(AttemptFail::Retryable(message)) => last_failure = Some(message),
                    }
                }
                // The hedge is due: launch it, then wait for either request
                // until the attempt deadline.
                Err(mpsc::RecvTimeoutError::Timeout) if hedge_at.is_some() => {
                    hedge_at = None;
                    self.metrics.hedges_launched.fetch_add(1, Ordering::Relaxed);
                    self.metrics.record_connect(slot.index);
                    launch(true, None);
                    outstanding += 1;
                }
                // The attempt deadline passed with requests still out.
                Err(_) => break,
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

    /// Run `call` once for every live shard with assigned segments, in
    /// parallel (one thread per shard), and return the answers in shard
    /// order — or the pass's failure: a blown deadline first, then the
    /// lowest-numbered failed shard's.
    pub(super) fn fan_out<T: Send>(
        &self,
        ctx: &ExploreCtx,
        path: &str,
        call: impl Fn(&ShardSlot) -> Result<T, CallFail> + Sync,
    ) -> Result<Vec<T>, AtlasError> {
        if let Some(d) = ctx.deadline {
            if d.expired() {
                return Err(ctx.stash(ExploreFail::Fatal(d.error(path))));
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
            return Err(ctx.stash(ExploreFail::Fatal(error)));
        }
        if let Some((shard, message)) = first_fail {
            let fail = ExploreFail::Shard {
                shard,
                error: dist_err(message),
            };
            return Err(ctx.stash(fail));
        }
        Ok(gathered)
    }
}
