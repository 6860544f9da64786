//! The concurrent exploration server.
//!
//! A `std::net::TcpListener` accept loop feeds a bounded connection queue
//! drained by a fixed pool of worker threads (sized by
//! [`ServeConfig::threads`], overridable with `ATLAS_SERVE_THREADS` — the
//! serving analogue of `AtlasConfig::parallelism`). When the queue is full
//! the accept loop answers `503 Service Unavailable` immediately instead of
//! letting latency collapse — admission control, not buffering. Shutdown is
//! graceful: in-flight requests finish, idle keep-alive connections close,
//! worker threads drain and join.
//!
//! ## Endpoints
//!
//! | method & path | body | effect |
//! |---------------|------|--------|
//! | `POST /sessions` | `{"dataset": name}` | create an exploration session |
//! | `POST /sessions/:id/explore` | conjunctive SQL (or `{"sql": …}`) | ranked maps |
//! | `POST /sessions/:id/drill` | `{"map": i, "region": j}` | drill into a region |
//! | `POST /sessions/:id/back` | — | pop one exploration step |
//! | `GET /sessions/:id/history` | — | the exploration history |
//! | `DELETE /sessions/:id` | — | end the session |
//! | `GET /datasets` | — | served datasets + cache stats |
//! | `POST /datasets/:name/rows` | header-less CSV rows | incremental append |
//! | `GET /healthz` | — | liveness |
//! | `GET /metrics` | — | the server's self-report ([`crate::metrics`]): JSON, or Prometheus text by `Accept` |
//!
//! Errors use `{"error": message}` bodies; `atlas_core::AtlasError` maps to
//! `4xx` when [`atlas_core::AtlasError::is_user_error`] holds and `5xx`
//! otherwise.

use crate::distributed::{Coordinator, CoordinatorOptions};
use crate::http::{self, HttpError, Request, Response};
use crate::metrics::{self, Endpoint, ServerMetrics};
use crate::registry::{Dataset, Registry};
use crate::resilience::{Deadline, ExploreMode};
use crate::sessions::{SessionManager, WireSession};
use crate::wire::{self, Json};
use atlas_core::{AtlasError, MapResult};
use atlas_query::{parse_query, to_compact, to_sql, ConjunctiveQuery};
use std::collections::{BTreeMap, VecDeque};
use std::io::{BufReader, BufWriter};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a blocking read waits before the connection loop re-checks the
/// shutdown flag and the keep-alive deadline.
const READ_SLICE: Duration = Duration::from_millis(150);

/// How long a slow client may take to deliver one complete request once its
/// first byte has arrived (socket read timeouts within this window are
/// ridden out, not treated as a dead connection).
const REQUEST_READ_TIMEOUT: Duration = Duration::from_secs(10);

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port `0` picks an ephemeral port (tests, benchmarks).
    pub bind: String,
    /// Worker threads serving connections. Defaults to `ATLAS_SERVE_THREADS`
    /// when set, otherwise at least 2 and at most the hardware threads.
    pub threads: usize,
    /// Bound on connections waiting for a worker; beyond it the accept loop
    /// answers `503`.
    pub queue_depth: usize,
    /// How long an idle keep-alive connection is kept open.
    pub keep_alive: Duration,
    /// Largest accepted request body, in bytes.
    pub max_body_bytes: usize,
    /// Idle time after which a session is evicted.
    pub session_ttl: Duration,
    /// Most sessions alive at once (the least recently used one is evicted
    /// beyond this).
    pub max_sessions: usize,
    /// Most exploration steps a session's history retains (oldest steps are
    /// discarded beyond this, so one long-lived session cannot grow server
    /// memory without bound).
    pub max_history_depth: usize,
    /// Shard servers (`host:port`) this server coordinates over for
    /// `POST /distributed/explore`. Empty means the endpoint answers `400`.
    pub shards: Vec<String>,
    /// The fault policy of the coordinator over [`ServeConfig::shards`]:
    /// per-attempt and connect timeouts, retries, hedging and circuit
    /// breakers.
    pub coordinator: CoordinatorOptions,
    /// Degraded partial answers: `Some(k)` lets a request that opts in with
    /// `{"mode": "degraded"}` fold the surviving segments when at most `k`
    /// shards are down (the answer carries exact coverage); `None` answers
    /// such requests with `400`.
    pub degraded_max_failed: Option<usize>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            bind: "127.0.0.1:0".to_string(),
            threads: ServeConfig::default_threads(),
            queue_depth: 128,
            keep_alive: Duration::from_secs(5),
            max_body_bytes: 16 * 1024 * 1024,
            session_ttl: Duration::from_secs(15 * 60),
            max_sessions: 1024,
            max_history_depth: 256,
            shards: Vec::new(),
            coordinator: CoordinatorOptions::default(),
            degraded_max_failed: None,
        }
    }
}

impl ServeConfig {
    /// The default worker count: the `ATLAS_SERVE_THREADS` environment
    /// variable if set to a positive integer, otherwise the hardware
    /// threads, floored at 2 (workers block on sockets, so even a single
    /// core benefits from a second worker).
    pub fn default_threads() -> usize {
        match std::env::var("ATLAS_SERVE_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
        {
            Some(n) if n >= 1 => n,
            _ => minirayon::available_threads().max(2),
        }
    }

    /// This configuration with the given worker-thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// The fault-policy knobs this configuration hands the distributed
    /// coordinator.
    pub fn coordinator_options(&self) -> CoordinatorOptions {
        self.coordinator
    }
}

/// Accepted connections waiting for a worker, each stamped with its
/// admission time so request deadlines can be anchored where queueing
/// started rather than where parsing did.
struct ConnectionQueue {
    queue: Mutex<VecDeque<(TcpStream, Instant)>>,
    ready: Condvar,
}

struct Shared {
    registry: Registry,
    sessions: SessionManager,
    metrics: ServerMetrics,
    config: ServeConfig,
    shutdown: AtomicBool,
    connections: ConnectionQueue,
    in_flight: AtomicUsize,
    shard: crate::shard::ShardState,
    /// Per-dataset scatter-gather coordinators, connected lazily on the
    /// first `/distributed/explore` request and re-connected when the
    /// dataset generation moves (always empty when `config.shards` is).
    coordinators: Mutex<BTreeMap<String, (usize, Arc<Coordinator>)>>,
}

impl Shared {
    fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }

    /// True if accepted connections are waiting for a free worker.
    fn has_queued_connections(&self) -> bool {
        let queue = match self.connections.queue.lock() {
            Ok(q) => q,
            Err(poisoned) => poisoned.into_inner(),
        };
        !queue.is_empty()
    }
}

/// The running server: its address plus the handles needed to stop it.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

/// Namespace for [`Server::start`].
pub struct Server;

impl Server {
    /// Bind, spawn the accept loop and the worker pool, and return a handle.
    /// The registry must serve at least one dataset.
    pub fn start(registry: Registry, config: ServeConfig) -> std::io::Result<ServerHandle> {
        if registry.is_empty() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "the registry serves no dataset",
            ));
        }
        let listener = TcpListener::bind(&config.bind)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            sessions: SessionManager::new(config.session_ttl, config.max_sessions),
            metrics: ServerMetrics::new(),
            shutdown: AtomicBool::new(false),
            connections: ConnectionQueue {
                queue: Mutex::new(VecDeque::new()),
                ready: Condvar::new(),
            },
            in_flight: AtomicUsize::new(0),
            registry,
            config: config.clone(),
            shard: crate::shard::ShardState::default(),
            coordinators: Mutex::new(BTreeMap::new()),
        });

        let workers = (0..config.threads.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("atlas-serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
            })
            .collect::<std::io::Result<Vec<_>>>()?;
        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("atlas-serve-accept".to_string())
                .spawn(move || accept_loop(&listener, &shared))?
        };
        Ok(ServerHandle {
            addr,
            shared,
            accept: Some(accept),
            workers,
        })
    }
}

impl ServerHandle {
    /// The bound address (useful with an ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The server's metrics (live view).
    pub fn metrics(&self) -> &ServerMetrics {
        &self.shared.metrics
    }

    /// The served datasets.
    pub fn registry(&self) -> &Registry {
        &self.shared.registry
    }

    /// Requests currently being processed (in-flight, queue excluded).
    pub fn in_flight(&self) -> usize {
        self.shared.in_flight.load(Ordering::Relaxed)
    }

    /// Stop accepting, drain in-flight requests, join every thread.
    pub fn shutdown(mut self) {
        self.shutdown_in_place();
    }

    /// Block until the server stops (for the `atlas-serve` binary, which
    /// runs until killed).
    pub fn join(mut self) {
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }

    fn shutdown_in_place(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(500));
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        self.shared.connections.ready.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        if self.accept.is_some() || !self.workers.is_empty() {
            self.shutdown_in_place();
        }
    }
}

fn accept_loop(listener: &TcpListener, shared: &Shared) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if shared.shutting_down() {
                    return;
                }
                // A persistent accept error (e.g. fd exhaustion) must not
                // become a busy-spin that starves the workers.
                std::thread::sleep(Duration::from_millis(20));
                continue;
            }
        };
        if shared.shutting_down() {
            return;
        }
        let mut queue = match shared.connections.queue.lock() {
            Ok(q) => q,
            Err(poisoned) => poisoned.into_inner(),
        };
        if queue.len() >= shared.config.queue_depth {
            drop(queue);
            // Admission control: refuse now, cheaply, on the accept thread.
            shared.metrics.record_overload();
            refuse_overloaded(stream, retry_after_secs(shared));
            continue;
        }
        queue.push_back((stream, Instant::now()));
        drop(queue);
        shared.connections.ready.notify_one();
    }
}

/// Seconds a refused client should wait before retrying: the time to drain
/// a full connection queue at the recent median request latency across the
/// worker pool, clamped to 1..=30. Before any request has been served the
/// estimate falls back to one second.
fn retry_after_secs(shared: &Shared) -> u64 {
    let Some(p50_ms) = shared.metrics.p50_latency_ms() else {
        return 1;
    };
    let backlog = shared.config.queue_depth as f64;
    let workers = shared.config.threads.max(1) as f64;
    let secs = (backlog * p50_ms / workers / 1000.0).ceil();
    if secs.is_finite() && secs >= 1.0 {
        (secs as u64).min(30)
    } else {
        1
    }
}

/// Answer `503` on a connection whose request will never be read. The
/// response carries a `Retry-After` estimate derived from the queue depth
/// and the recent latency window. Dropping the socket with unread request
/// bytes pending would make the kernel send a reset that destroys the
/// response before the client reads it, so after writing we half-close and
/// briefly drain what the client already sent.
fn refuse_overloaded(stream: TcpStream, retry_after: u64) {
    let mut writer = BufWriter::new(&stream);
    if http::write_response(
        &mut writer,
        &Response::error(503, "server overloaded; retry later")
            .with_header("Retry-After", retry_after.to_string()),
        false,
    )
    .is_err()
    {
        return;
    }
    drop(writer);
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(50)));
    let mut scratch = [0u8; 4096];
    let mut reader = &stream;
    // Bounded drain: a handful of reads covers any reasonable request head
    // without letting an overload turn the accept thread into a read loop.
    for _ in 0..16 {
        match std::io::Read::read(&mut reader, &mut scratch) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let (stream, admitted) = {
            let mut queue = match shared.connections.queue.lock() {
                Ok(q) => q,
                Err(poisoned) => poisoned.into_inner(),
            };
            loop {
                if let Some(entry) = queue.pop_front() {
                    break entry;
                }
                if shared.shutting_down() {
                    return;
                }
                queue = match shared
                    .connections
                    .ready
                    .wait_timeout(queue, Duration::from_millis(100))
                {
                    Ok((guard, _)) => guard,
                    Err(poisoned) => poisoned.into_inner().0,
                };
            }
        };
        shared.in_flight.fetch_add(1, Ordering::Relaxed);
        handle_connection(shared, stream, admitted);
        shared.in_flight.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Synthesize a child span of `parent` covering the already-elapsed interval
/// `[earlier, later]` — the admission-queue wait and the response write,
/// which cannot be measured by an open guard because they start before the
/// request span exists or end after the handler returns. No-op when the
/// parent is not recording.
fn record_past_interval(
    parent: &atlas_obs::SpanGuard,
    name: &str,
    earlier: Instant,
    later: Instant,
) {
    let Some(ctx) = parent.context() else {
        return;
    };
    // Both ends go through the tracer clock, so the interval nests under
    // (or abuts) the spans around it exactly as the instants did.
    let tracer = atlas_obs::tracer();
    let start_us = tracer.instant_us(earlier);
    tracer.record(atlas_obs::SpanRecord {
        trace_id: ctx.trace_id,
        span_id: tracer.alloc_id(),
        parent_id: ctx.span_id,
        name: name.to_string(),
        start_us,
        duration_us: tracer.instant_us(later).saturating_sub(start_us),
        attrs: Vec::new(),
    });
}

fn handle_connection(shared: &Shared, stream: TcpStream, admitted: Instant) {
    let picked_up = Instant::now();
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(READ_SLICE));
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = BufWriter::new(stream);
    let mut idle_deadline = Instant::now() + shared.config.keep_alive;
    // The deadline anchor of the first request is the connection's admission
    // time, so the budget covers time spent waiting for a worker; later
    // keep-alive requests re-anchor when their first byte arrives (idle time
    // between requests is the client's, not the server's).
    let mut anchor = admitted;
    let mut first_request = true;
    loop {
        // Wait for the next request without consuming anything, so idle
        // timeouts and shutdown are observed between requests, not inside
        // them.
        match http::wait_for_data(&mut reader) {
            Ok(()) => {
                if !first_request {
                    anchor = Instant::now();
                }
            }
            Err(HttpError::Idle) => {
                // Hang up on an idle keep-alive connection when shutdown or
                // the idle deadline says so — or when other connections are
                // queued while this one sends nothing: a worker pinned to a
                // silent connection must not starve waiting clients.
                if shared.shutting_down()
                    || Instant::now() >= idle_deadline
                    || shared.has_queued_connections()
                {
                    return;
                }
                continue;
            }
            Err(_) => return,
        }
        let parse_started = Instant::now();
        let request = match http::read_request(
            &mut reader,
            shared.config.max_body_bytes,
            Some(Instant::now() + REQUEST_READ_TIMEOUT),
        ) {
            Ok(request) => request,
            Err(HttpError::Closed | HttpError::Idle | HttpError::Io(_)) => return,
            Err(refused @ (HttpError::Malformed(_) | HttpError::BodyTooLarge { .. })) => {
                // The request never parsed, so there is no `request` span:
                // it counts under `other` with the time spent reading it.
                let response = match refused {
                    HttpError::Malformed(message) => Response::error(400, message),
                    too_large => Response::error(413, too_large.to_string()),
                };
                shared.metrics.record(
                    Endpoint::Other,
                    response.status,
                    parse_started.elapsed().as_secs_f64() * 1000.0,
                );
                let _ = http::write_response(&mut writer, &response, false);
                return;
            }
        };
        let parsed = Instant::now();
        // The request's trace root: every span the handlers open below
        // (session locks, the engine's pipeline phases, kernel events on the
        // worker's context) nests under it, and the queue wait, parse time
        // and response write are synthesized as child intervals.
        let mut request_span = atlas_obs::span_root("request");
        request_span.attr("method", &request.method);
        request_span.attr("path", &request.path);
        if first_request {
            record_past_interval(&request_span, "queue.wait", admitted, picked_up);
        }
        record_past_interval(&request_span, "request.parse", parse_started, parsed);
        first_request = false;
        let keep_alive = request.wants_keep_alive() && !shared.shutting_down();
        // A non-numeric deadline header is ignored rather than rejected: the
        // header is advisory, and a client that mangles it still deserves an
        // answer.
        let deadline = request
            .header(http::DEADLINE_HEADER)
            .and_then(|v| v.trim().parse::<u64>().ok())
            .filter(|&ms| ms > 0)
            .map(|ms| Deadline::anchored(Duration::from_millis(ms), anchor));
        if let Some(d) = deadline.as_ref().filter(|d| d.expired()) {
            // The budget burned out before any work started (most likely in
            // the admission queue): answer 504 with the work-done metadata
            // instead of starting work that cannot finish in time.
            let response = error_response(&d.error("admission queue"));
            shared
                .metrics
                .record(Endpoint::Other, response.status, request_span.elapsed_ms());
            if http::write_response(&mut writer, &response, keep_alive).is_err() || !keep_alive {
                return;
            }
            idle_deadline = Instant::now() + shared.config.keep_alive;
            continue;
        }
        let (endpoint, response) = route(shared, &request, deadline);
        request_span.attr("endpoint", endpoint.label());
        request_span.attr("status", response.status);
        shared
            .metrics
            .record(endpoint, response.status, request_span.elapsed_ms());
        let write_started = Instant::now();
        let write_result = http::write_response(&mut writer, &response, keep_alive);
        record_past_interval(
            &request_span,
            "response.write",
            write_started,
            Instant::now(),
        );
        drop(request_span);
        if write_result.is_err() || !keep_alive {
            return;
        }
        idle_deadline = Instant::now() + shared.config.keep_alive;
    }
}

/// Map an engine error onto the wire: `4xx` for the caller's mistakes, `5xx`
/// for the engine's.
pub(crate) fn error_response(error: &AtlasError) -> Response {
    let status = match error {
        AtlasError::Query(_) | AtlasError::InvalidConfig(_) => 400,
        AtlasError::EmptyWorkingSet | AtlasError::NoCuttableAttributes => 422,
        AtlasError::Columnar(_) | AtlasError::Distributed(_) => 500,
        AtlasError::Deadline { .. } => 504,
    };
    debug_assert_eq!(status < 500, error.is_user_error());
    if let AtlasError::Deadline {
        budget_ms,
        elapsed_ms,
        phase,
    } = error
    {
        // 504 answers carry work-done-so-far metadata instead of silently
        // overrunning: how much budget was spent and where it went.
        return Response::json(
            504,
            &Json::object(vec![
                ("error", Json::from(error.to_string())),
                (
                    "work_done",
                    Json::object(vec![
                        ("budget_ms", Json::from(*budget_ms)),
                        ("elapsed_ms", Json::from(*elapsed_ms)),
                        ("phase", Json::from(phase.as_str())),
                    ]),
                ),
            ]),
        );
    }
    Response::error(status, error.to_string())
}

fn route(shared: &Shared, request: &Request, deadline: Option<Deadline>) -> (Endpoint, Response) {
    let segments = request.path_segments();
    let method = request.method.as_str();
    match (method, segments.as_slice()) {
        ("GET", ["healthz"]) => (Endpoint::Healthz, metrics::healthz(&components(shared))),
        ("GET", ["metrics"]) => (
            Endpoint::Metrics,
            metrics::metrics(&components(shared), request),
        ),
        ("GET", ["debug", "traces"]) => (Endpoint::DebugTraces, debug_traces()),
        ("GET", ["debug", "traces", id]) => (Endpoint::DebugTrace, debug_trace(id)),
        ("GET", ["datasets"]) => (Endpoint::Datasets, datasets(shared)),
        ("POST", ["datasets", name, "rows"]) => {
            (Endpoint::AppendRows, append_rows(shared, name, request))
        }
        ("POST", ["sessions"]) => (Endpoint::CreateSession, create_session(shared, request)),
        ("POST", ["sessions", token, "explore"]) => {
            (Endpoint::Explore, explore(shared, token, request))
        }
        ("POST", ["sessions", token, "drill"]) => (Endpoint::Drill, drill(shared, token, request)),
        ("POST", ["sessions", token, "back"]) => (Endpoint::Back, back(shared, token)),
        ("GET", ["sessions", token, "history"]) => (Endpoint::History, history(shared, token)),
        ("DELETE", ["sessions", token]) => (Endpoint::DeleteSession, delete_session(shared, token)),
        ("POST", ["shard", action]) => match crate::shard::endpoint_of(action) {
            Some(endpoint) => (
                endpoint,
                crate::shard::handle(&shared.registry, &shared.shard, endpoint, request),
            ),
            None => (
                Endpoint::Other,
                Response::error(404, format!("no shard endpoint '{action}'")),
            ),
        },
        ("POST", ["distributed", "explore"]) => (
            Endpoint::DistExplore,
            distributed_explore(shared, request, deadline),
        ),
        (_, ["healthz" | "metrics" | "datasets"])
        | (_, ["sessions", ..])
        | (_, ["debug", "traces", ..])
        | (_, ["shard", ..] | ["distributed", ..]) => (
            Endpoint::Other,
            Response::error(405, format!("method {method} not allowed here")),
        ),
        _ => (
            Endpoint::Other,
            Response::error(404, format!("no route for {method} {}", request.path)),
        ),
    }
}

/// What `GET /healthz` and `GET /metrics` report on, for [`crate::metrics`]
/// to render. The coordinators are cloned out of their lock (sorted by
/// dataset name), so rendering holds no server lock.
fn components(shared: &Shared) -> metrics::Components<'_> {
    let coordinators: Vec<(String, Arc<Coordinator>)> = {
        let connected = match shared.coordinators.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        connected
            .iter()
            .map(|(dataset, (_, coordinator))| (dataset.clone(), Arc::clone(coordinator)))
            .collect()
    };
    metrics::Components {
        metrics: &shared.metrics,
        sessions: &shared.sessions,
        registry: &shared.registry,
        shard: &shared.shard,
        coordinators,
        threads: shared.config.threads,
    }
}

/// Cap on the roots listed by `GET /debug/traces` (newest first).
const DEBUG_TRACE_LIST_CAP: usize = 64;

/// `GET /debug/traces`: the trace roots currently in the ring, newest first —
/// id, root span name, timing, and span count, enough to pick an id for
/// `GET /debug/traces/:id`.
fn debug_traces() -> Response {
    let records = atlas_obs::tracer().snapshot();
    let mut roots: Vec<Json> = atlas_obs::assemble_forest(records)
        .iter()
        .map(|tree| {
            Json::object(vec![
                ("trace_id", Json::from(tree.record.trace_id)),
                ("root", Json::from(tree.record.name.as_str())),
                ("start_us", Json::from(tree.record.start_us)),
                ("duration_us", Json::from(tree.record.duration_us)),
                ("spans", Json::from(tree.size())),
            ])
        })
        .collect();
    roots.reverse(); // snapshot order is oldest-first by construction
    roots.truncate(DEBUG_TRACE_LIST_CAP);
    Response::json(
        200,
        &Json::object(vec![
            ("enabled", Json::from(atlas_obs::enabled())),
            ("count", Json::from(roots.len())),
            ("traces", Json::array(roots)),
        ]),
    )
}

/// `GET /debug/traces/:id`: every span of one trace, assembled into trees.
fn debug_trace(id: &str) -> Response {
    let Ok(trace_id) = id.parse::<u64>() else {
        return Response::error(400, format!("trace id '{id}' is not an integer"));
    };
    let records = atlas_obs::tracer().trace(trace_id);
    if records.is_empty() {
        return Response::error(
            404,
            format!("no spans for trace {trace_id} (expired from the ring or never recorded)"),
        );
    }
    Response::json(
        200,
        &Json::object(vec![
            ("trace_id", Json::from(trace_id)),
            ("spans", Json::from(records.len())),
            ("tree", crate::trace::forest_to_json(records)),
        ]),
    )
}

fn datasets(shared: &Shared) -> Response {
    Response::json(
        200,
        &Json::object(vec![(
            "datasets",
            Json::array(
                shared
                    .registry
                    .datasets()
                    .iter()
                    .map(Dataset::summary)
                    .collect(),
            ),
        )]),
    )
}

fn append_rows(shared: &Shared, name: &str, request: &Request) -> Response {
    let Some(dataset) = shared.registry.get(name) else {
        return Response::error(404, format!("no dataset named '{name}'"));
    };
    if request.body.is_empty() {
        return Response::error(400, "empty body; send header-less CSV rows");
    }
    match dataset.append_csv(&request.body) {
        // Append failures stem from the request body (malformed CSV, schema
        // mismatch), so they map to 400 regardless of the error variant.
        Err(error) => Response::error(400, error.to_string()),
        Ok(outcome) => Response::json(
            200,
            &Json::object(vec![
                ("dataset", Json::from(name)),
                ("appended_rows", Json::from(outcome.appended_rows)),
                ("appended_segments", Json::from(outcome.appended_segments)),
                ("total_rows", Json::from(outcome.total_rows)),
                ("generation", Json::from(outcome.generation)),
            ]),
        ),
    }
}

/// `POST /distributed/explore`: run one scatter-gather exploration over the
/// configured shard servers. The body is conjunctive SQL, or a JSON envelope
/// `{"sql": …, "dataset": …, "mode": "strict"|"degraded"}`; the local
/// dataset entry supplies the engine configuration (the shards hold the
/// rows). Degraded mode must be enabled server-side
/// ([`ServeConfig::degraded_max_failed`]); the answer then carries a
/// `coverage` member stating exactly which segments and rows it folds.
/// Coordinators are cached per dataset and re-connected when the dataset
/// generation moves. A request deadline is forwarded to the shards.
fn distributed_explore(shared: &Shared, request: &Request, deadline: Option<Deadline>) -> Response {
    if shared.config.shards.is_empty() {
        return Response::error(
            400,
            "this server coordinates no shards; start it with --shards host:port,…",
        );
    }
    let (sql, envelope) = match explore_body(request) {
        Ok(body) => body,
        Err(response) => return response,
    };
    let member = |key| envelope.as_ref()?.get(key)?.str();
    let mode = match member("mode") {
        None | Some("strict") => ExploreMode::Strict,
        Some("degraded") => match shared.config.degraded_max_failed {
            Some(max_failed_shards) => ExploreMode::Degraded { max_failed_shards },
            None => {
                return Response::error(
                    400,
                    "degraded mode is disabled on this server; \
                     start it with --degraded-max-failed K",
                );
            }
        },
        Some(other) => {
            return Response::error(
                400,
                format!("unknown mode '{other}' (use \"strict\" or \"degraded\")"),
            );
        }
    };
    let dataset = match resolve_dataset(&shared.registry, member("dataset")) {
        Ok(dataset) => dataset,
        Err(response) => return response,
    };
    let (engine, generation) = dataset.snapshot();
    let coordinator = {
        let mut coordinators = match shared.coordinators.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        match coordinators.get(dataset.name()) {
            Some((cached_generation, coordinator)) if *cached_generation == generation => {
                Arc::clone(coordinator)
            }
            _ => {
                let connected = Coordinator::connect_with(
                    &shared.config.shards,
                    dataset.name(),
                    engine.config().clone(),
                    shared.config.coordinator_options(),
                );
                match connected {
                    Ok(coordinator) => {
                        let coordinator = Arc::new(coordinator);
                        coordinators.insert(
                            dataset.name().to_string(),
                            (generation, Arc::clone(&coordinator)),
                        );
                        coordinator
                    }
                    Err(error) => return error_response(&error),
                }
            }
        }
    };
    let mut query = match parse_query(&sql) {
        Ok(query) => query,
        Err(error) => return Response::error(400, format!("query error: {error}")),
    };
    if query.table.is_empty() {
        query.table = dataset.name().to_string();
    }
    match coordinator.explore_resilient(&query, mode, deadline) {
        Ok(answer) => {
            let mut body = map_result_json(dataset.name(), &answer.result, false, 1);
            if let Json::Obj(members) = &mut body {
                members.push(("coverage".to_string(), answer.coverage.to_json()));
            }
            if wants_trace(request) {
                attach_trace(&mut body);
            }
            Response::json(200, &body)
        }
        Err(error) => error_response(&error),
    }
}

/// The dataset a request names, or `404`; with no name, the only one served,
/// or `400` when there are several. Every endpoint that takes an optional
/// `"dataset"` member resolves it here.
pub(crate) fn resolve_dataset<'a>(
    registry: &'a Registry,
    requested: Option<&str>,
) -> Result<&'a Dataset, Response> {
    match requested {
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

fn create_session(shared: &Shared, request: &Request) -> Response {
    let body = request.body_text().unwrap_or("");
    let requested = if body.trim().is_empty() {
        None
    } else {
        match wire::parse(body) {
            Ok(json) => json.get("dataset").and_then(|d| d.str()).map(String::from),
            Err(e) => return Response::error(400, e.to_string()),
        }
    };
    let dataset = match resolve_dataset(&shared.registry, requested.as_deref()) {
        Ok(dataset) => dataset,
        Err(response) => return response,
    };
    let (engine, generation) = dataset.snapshot();
    let table = engine.table();
    let (rows, columns) = (table.num_rows(), table.num_columns());
    let token = shared.sessions.create(dataset.name());
    Response::json(
        201,
        &Json::object(vec![
            ("token", Json::from(token)),
            ("dataset", Json::from(dataset.name())),
            ("rows", Json::from(rows)),
            ("columns", Json::from(columns)),
            ("generation", Json::from(generation)),
        ]),
    )
}

/// Shared preamble of the session endpoints: resolve the token, lock the
/// session and find its dataset; then run the action.
fn with_session(
    shared: &Shared,
    token: &str,
    action: impl FnOnce(&mut WireSession, &Dataset) -> Response,
) -> Response {
    let Some(slot) = shared.sessions.get(token) else {
        return Response::error(
            404,
            format!("no session '{token}' (expired or never created)"),
        );
    };
    // The lock span covers contention on the session (another request of the
    // same token in flight), one of the request-lifecycle stations.
    let lock_span = atlas_obs::span("session.lock");
    let mut wire_session = match slot.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    };
    drop(lock_span);
    let Some(dataset) = shared.registry.get(&wire_session.dataset) else {
        return Response::error(500, "session references an unknown dataset");
    };
    action(&mut wire_session, dataset)
}

/// One explore or drill step: answer `query` on the dataset's current
/// snapshot (through its shared result cache), record the shared answer in
/// the session's history, and render the reply. The reply's depth is the
/// history's after the cap trimmed it — the depth `/history` reports.
fn answer_step(
    shared: &Shared,
    wire_session: &mut WireSession,
    dataset: &Dataset,
    query: ConjunctiveQuery,
) -> Result<Json, AtlasError> {
    let (result, cache_hit) = dataset.explore_shared(&query);
    let result = result?;
    let history = &mut wire_session.history;
    history.record(query, Arc::clone(&result));
    history.trim(shared.config.max_history_depth);
    Ok(map_result_json(
        dataset.name(),
        &result,
        cache_hit,
        history.depth(),
    ))
}

/// Whether the request opted into an inline span tree (`?trace=1`).
fn wants_trace(request: &Request) -> bool {
    matches!(request.query_param("trace"), Some(v) if !v.is_empty() && v != "0")
}

/// Inline the current request's span tree (so far) into a response body,
/// plus the trace id for a later `GET /debug/traces/:id`. The request root
/// span is still open at this point, so the inline tree roots at the spans
/// already closed under it — the engine's `explore` span and its phases.
/// Purely additive: every pre-existing member (`maps` above all) is
/// untouched, which is what keeps `?trace=1` off the bit-identity surface.
fn attach_trace(body: &mut Json) {
    let Json::Obj(members) = body else {
        return;
    };
    match atlas_obs::current() {
        Some(ctx) => {
            let records = atlas_obs::tracer().trace(ctx.trace_id);
            members.push(("trace_id".to_string(), Json::from(ctx.trace_id)));
            members.push(("trace".to_string(), crate::trace::forest_to_json(records)));
        }
        None => {
            // Tracing disabled: the flag still answers, with an empty tree.
            members.push(("trace_id".to_string(), Json::Null));
            members.push(("trace".to_string(), Json::array(Vec::new())));
        }
    }
}

/// The query of an explore body: the conjunctive SQL itself, or a JSON
/// envelope `{"sql": …}` for clients that prefer uniform bodies — returned
/// too, for the other members it carries. A body that is not UTF-8, an
/// envelope without `sql` and an empty query are each a `400`.
fn explore_body(request: &Request) -> Result<(String, Option<Json>), Response> {
    let Some(body) = request.body_text() else {
        return Err(Response::error(400, "body must be UTF-8 text"));
    };
    let (sql, envelope) = match wire::parse(body) {
        Ok(json) => match json.get("sql").and_then(Json::str) {
            Some(sql) => (sql.to_string(), Some(json)),
            None => {
                return Err(Response::error(
                    400,
                    "JSON body must carry a \"sql\" member",
                ))
            }
        },
        Err(_) => (body.to_string(), None),
    };
    if sql.trim().is_empty() {
        return Err(Response::error(400, "empty query; send conjunctive SQL"));
    }
    Ok((sql, envelope))
}

fn explore(shared: &Shared, token: &str, request: &Request) -> Response {
    let sql = match explore_body(request) {
        Ok((sql, _)) => sql,
        Err(response) => return response,
    };
    let trace_requested = wants_trace(request);
    with_session(shared, token, |wire_session, dataset| {
        let mut query = match parse_query(&sql) {
            Ok(query) => query,
            Err(error) => return Response::error(400, format!("query error: {error}")),
        };
        if query.table.is_empty() {
            query.table = dataset.name().to_string();
        }
        match answer_step(shared, wire_session, dataset, query) {
            Err(error) => error_response(&error),
            Ok(mut response) => {
                if trace_requested {
                    attach_trace(&mut response);
                }
                Response::json(200, &response)
            }
        }
    })
}

fn drill(shared: &Shared, token: &str, request: &Request) -> Response {
    let body = request.body_text().unwrap_or("").trim().to_string();
    let (map_idx, region_idx) = if body.is_empty() {
        (0, 0)
    } else {
        match wire::parse(&body) {
            Err(e) => return Response::error(400, e.to_string()),
            Ok(json) => {
                let index_of = |key: &str| match json.get(key) {
                    None => Ok(0),
                    Some(v) => v
                        .index()
                        .ok_or_else(|| format!("\"{key}\" must be a non-negative integer")),
                };
                match (index_of("map"), index_of("region")) {
                    (Ok(m), Ok(r)) => (m, r),
                    (Err(e), _) | (_, Err(e)) => return Response::error(400, e),
                }
            }
        }
    };
    with_session(shared, token, |wire_session, dataset| {
        let query = match wire_session.history.drill_query(map_idx, region_idx) {
            Ok(query) => query,
            Err(error) => return Response::error(400, error.to_string()),
        };
        match answer_step(shared, wire_session, dataset, query) {
            Err(error) => error_response(&error),
            Ok(response) => Response::json(200, &response),
        }
    })
}

fn back(shared: &Shared, token: &str) -> Response {
    with_session(shared, token, |wire_session, _| {
        let popped = wire_session.history.back();
        let current = wire_session
            .history
            .current()
            .map(|step| Json::from(to_sql(&step.query)))
            .unwrap_or(Json::Null);
        Response::json(
            200,
            &Json::object(vec![
                ("popped", Json::from(popped.is_some())),
                ("depth", Json::from(wire_session.history.depth())),
                ("current", current),
            ]),
        )
    })
}

fn history(shared: &Shared, token: &str) -> Response {
    with_session(shared, token, |wire_session, dataset| {
        let steps: Vec<Json> = wire_session
            .history
            .steps()
            .iter()
            .map(|step| {
                Json::object(vec![
                    ("sql", Json::from(to_sql(&step.query))),
                    ("working_set_size", Json::from(step.working_set_size())),
                    ("num_maps", Json::from(step.result.num_maps())),
                    (
                        "best_score",
                        step.result
                            .best()
                            .map(|m| Json::Num(m.score))
                            .unwrap_or(Json::Null),
                    ),
                ])
            })
            .collect();
        Response::json(
            200,
            &Json::object(vec![
                ("dataset", Json::from(dataset.name())),
                ("depth", Json::from(wire_session.history.depth())),
                ("steps", Json::array(steps)),
            ]),
        )
    })
}

fn delete_session(shared: &Shared, token: &str) -> Response {
    if shared.sessions.remove(token) {
        Response::json(200, &Json::object(vec![("deleted", Json::from(true))]))
    } else {
        Response::error(404, format!("no session '{token}'"))
    }
}

/// Render one exploration result for the wire. Scores are encoded with
/// shortest-round-trip formatting, so a client parsing the JSON recovers the
/// exact `f64` the engine ranked with; region predicates are rendered by the
/// query printer, whose print/parse round-trip is property-tested.
pub(crate) fn map_result_json(
    dataset: &str,
    result: &MapResult,
    cache_hit: bool,
    depth: usize,
) -> Json {
    let maps: Vec<Json> = result
        .maps
        .iter()
        .map(|ranked| {
            let regions: Vec<Json> = ranked
                .map
                .regions
                .iter()
                .map(|region| {
                    Json::object(vec![
                        ("sql", Json::from(to_sql(&region.query))),
                        ("compact", Json::from(to_compact(&region.query))),
                        ("count", Json::from(region.count())),
                        ("cover", Json::Num(region.cover(result.working_set_size))),
                    ])
                })
                .collect();
            Json::object(vec![
                ("score", Json::Num(ranked.score)),
                (
                    "source_attributes",
                    Json::array(
                        ranked
                            .map
                            .source_attributes
                            .iter()
                            .map(|a| Json::from(a.as_str()))
                            .collect(),
                    ),
                ),
                ("regions", Json::array(regions)),
            ])
        })
        .collect();
    Json::object(vec![
        ("dataset", Json::from(dataset)),
        ("depth", Json::from(depth)),
        ("working_set_size", Json::from(result.working_set_size)),
        ("num_maps", Json::from(result.num_maps())),
        ("cache_hit", Json::from(cache_hit)),
        (
            "skipped_attributes",
            Json::array(
                result
                    .skipped_attributes
                    .iter()
                    .map(|a| Json::from(a.as_str()))
                    .collect(),
            ),
        ),
        (
            "timings_ms",
            Json::object(vec![
                ("query", Json::Num(result.timings.query_ms)),
                ("candidates", Json::Num(result.timings.candidates_ms)),
                ("clustering", Json::Num(result.timings.clustering_ms)),
                ("merge", Json::Num(result.timings.merge_ms)),
                ("rank", Json::Num(result.timings.rank_ms)),
                ("total", Json::Num(result.timings.total_ms)),
            ]),
        ),
        ("maps", Json::array(maps)),
    ])
}
