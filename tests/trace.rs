//! Trace propagation and the observability surface, end to end:
//!
//! * A distributed explore over two live shard servers reassembles into a
//!   **single** trace tree containing every pipeline phase, kernel-path
//!   events, and per-shard child spans — while the answer stays
//!   bit-identical to the in-process engine.
//! * Under seeded faults, retried / hedged shard calls and circuit-breaker
//!   skips appear as correctly labeled children of the same tree.
//! * `?trace=1` is purely additive on the wire: the `maps` member is
//!   byte-identical with and without it.
//! * `GET /debug/traces[/:id]`, `GET /healthz`, and the Prometheus
//!   negotiation of `GET /metrics` answer with the documented shapes.
//!
//! Every test flips the process-global tracer (the enabled flag and the
//! span ring), so the whole file serializes on one gate mutex.

use atlas::core::MapResult;
use atlas::datagen::CensusConfig;
use atlas::obs;
use atlas::prelude::*;
use atlas::serve::wire::Json;
use atlas::serve::{
    CircuitConfig, CircuitState, Client, Coordinator, CoordinatorOptions, HedgePolicy, RetryPolicy,
};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Duration;

mod common;
use common::{Fault, FaultProxy};

/// The whole file shares one process tracer; hold this for any test body.
fn gate() -> MutexGuard<'static, ()> {
    static GATE: OnceLock<Mutex<()>> = OnceLock::new();
    match GATE.get_or_init(|| Mutex::new(())).lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Turn tracing on with an empty ring; restore "off" on drop (panics
/// included) so the next gate holder starts from the disabled default.
struct Traced;

impl Traced {
    fn begin() -> Traced {
        obs::set_enabled(true);
        obs::tracer().clear();
        Traced
    }
}

impl Drop for Traced {
    fn drop(&mut self) {
        obs::set_enabled(false);
        obs::tracer().clear();
    }
}

/// A multi-segment census table with a pinned layout.
fn census_table(rows: usize, segment_rows: usize) -> Arc<Table> {
    Arc::new(
        CensusGenerator::new(CensusConfig {
            rows,
            seed: 42,
            segment_rows: Some(segment_rows),
            ..CensusConfig::default()
        })
        .generate(),
    )
}

/// The product merge, which these tests count the spans and rounds of a
/// distributed explore under (a composition adds rounds per region).
fn product_config() -> AtlasConfig {
    AtlasConfig {
        merge: MergeStrategy::Product,
        ..AtlasConfig::default()
    }
    .with_parallelism(2)
}

/// Generous timeouts, one retry, no hedge, breakers off: faults only bite
/// where a test arms them.
fn calm_options() -> CoordinatorOptions {
    CoordinatorOptions {
        shard_timeout: Duration::from_secs(10),
        connect_timeout: Duration::from_secs(2),
        retry: RetryPolicy {
            max_attempts: 2,
            base_backoff: Duration::from_millis(5),
            multiplier: 2.0,
            jitter: 0.5,
        },
        hedge: HedgePolicy::Off,
        circuit: CircuitConfig {
            failure_threshold: 0,
            cool_down: Duration::ZERO,
        },
    }
}

/// Two live shard servers over one census table, a fault proxy in front of
/// each (`addrs` are the proxies'), plus the in-process reference engine.
struct Rig {
    config: AtlasConfig,
    reference: Atlas,
    handles: Vec<ServerHandle>,
    proxies: Vec<FaultProxy>,
    addrs: Vec<String>,
}

fn rig() -> Rig {
    let table = census_table(3_000, 300);
    let config = product_config();
    let reference = Atlas::new(Arc::clone(&table), config.clone()).unwrap();
    let mut handles = Vec::new();
    for _ in 0..2 {
        let mut registry = Registry::new();
        registry
            .add_table(
                "census",
                Arc::clone(&table),
                DatasetOptions {
                    config: config.clone(),
                    cache_capacity: 0,
                },
            )
            .unwrap();
        handles.push(Server::start(registry, ServeConfig::default().with_threads(2)).unwrap());
    }
    let (proxies, addrs) = common::proxies(&handles);
    Rig {
        config,
        reference,
        handles,
        proxies,
        addrs,
    }
}

impl Rig {
    fn coordinator(&self, options: CoordinatorOptions) -> Coordinator {
        Coordinator::connect_with(&self.addrs, "census", self.config.clone(), options).unwrap()
    }

    /// Arm a fault plan on the proxy in front of one shard.
    fn arm(&self, shard: usize, faults: Vec<Fault>) {
        self.proxies[shard].arm(faults);
    }

    fn shutdown(self) {
        for handle in self.handles {
            handle.shutdown();
        }
    }
}

/// Bit-for-bit equality of two explorations: same map order, attribute
/// groups, region SQL, extents and counts, score *bits*.
fn assert_identical(a: &MapResult, b: &MapResult) {
    assert_eq!(a.num_maps(), b.num_maps());
    assert_eq!(a.working_set_size, b.working_set_size);
    for (ra, rb) in a.maps.iter().zip(b.maps.iter()) {
        assert_eq!(ra.map.source_attributes, rb.map.source_attributes);
        assert_eq!(ra.score.to_bits(), rb.score.to_bits());
        for (qa, qb) in ra.map.regions.iter().zip(rb.map.regions.iter()) {
            assert_eq!(to_sql(&qa.query), to_sql(&qb.query));
            assert_eq!(qa.selection, qb.selection);
            assert_eq!(qa.count(), qb.count());
        }
    }
}

/// The reassembly contract: exactly one root, every other span's parent is
/// present, and children nest inside their parents' intervals — across
/// machines (adopted shard spans) and threads (scatter, hedges).
fn assert_single_tree(spans: &[obs::SpanRecord]) {
    let by_id: HashMap<u64, &obs::SpanRecord> = spans.iter().map(|s| (s.span_id, s)).collect();
    let mut roots = 0;
    for span in spans {
        match by_id.get(&span.parent_id) {
            None => {
                assert_eq!(
                    span.parent_id, 0,
                    "span '{}' points at a parent missing from its trace",
                    span.name
                );
                roots += 1;
            }
            Some(parent) => {
                assert!(
                    parent.start_us <= span.start_us && span.end_us() <= parent.end_us(),
                    "span '{}' [{}..{}] escapes parent '{}' [{}..{}]",
                    span.name,
                    span.start_us,
                    span.end_us(),
                    parent.name,
                    parent.start_us,
                    parent.end_us()
                );
            }
        }
    }
    assert_eq!(roots, 1, "a reassembled trace has exactly one root");
}

fn names_present(spans: &[obs::SpanRecord], names: &[&str]) {
    for name in names {
        assert!(
            spans.iter().any(|s| s.name == *name),
            "no '{name}' span in {:?}",
            spans.iter().map(|s| s.name.as_str()).collect::<Vec<_>>()
        );
    }
}

/// The PR's acceptance shape: a traced distributed explore over two shards
/// yields one tree holding all five pipeline phases, kernel-path events,
/// and a labeled `shard.call` child per shard, each holding its exchange and
/// its decode, and the shard's body parse under its request — and the answer
/// is still bit-identical to the in-process engine.
#[test]
fn distributed_explore_reassembles_one_trace_tree() {
    let _gate = gate();
    let rig = rig();
    let query = ConjunctiveQuery::all("census");
    let expected = rig.reference.explore_released(&query).unwrap();

    let _traced = Traced::begin();
    let coordinator = rig.coordinator(calm_options());
    // Drop the handshake's request spans; only the explore matters.
    obs::tracer().clear();
    let root = obs::span_root("test.explore");
    let trace_id = root.context().expect("tracing is enabled").trace_id;
    let result = coordinator.explore(&query).unwrap();
    drop(root);

    assert_identical(&expected, &result);
    let spans = obs::tracer().trace(trace_id);
    names_present(
        &spans,
        &[
            "explore",
            "phase.query",
            "phase.candidates",
            "phase.clustering",
            "phase.merge",
            "phase.rank",
            "shard.request",
            "shard.parse",
            "shard.exchange",
            "shard.decode",
            "shard.adopt",
        ],
    );
    // A shard call is named end to end: the coordinator's exchange, decode
    // and adoption of the shard's spans under each call, the shard's body
    // parse under its request.
    let by_id: HashMap<u64, &obs::SpanRecord> = spans.iter().map(|s| (s.span_id, s)).collect();
    for span in &spans {
        let parent = match span.name.as_str() {
            "shard.exchange" | "shard.decode" | "shard.adopt" => "shard.call",
            "shard.parse" => "shard.request",
            _ => continue,
        };
        assert_eq!(by_id[&span.parent_id].name, parent, "{}", span.name);
    }
    let calls = spans.iter().filter(|s| s.name == "shard.call").count();
    for child in ["shard.exchange", "shard.decode"] {
        assert_eq!(spans.iter().filter(|s| s.name == child).count(), calls);
    }
    // Every reply carries its shard's spans, and they are adopted once, after
    // the decode, not inside it.
    for call in spans.iter().filter(|s| s.name == "shard.call") {
        let children = |name: &str| -> Vec<&obs::SpanRecord> {
            spans
                .iter()
                .filter(|s| s.parent_id == call.span_id && s.name == name)
                .collect()
        };
        let (requests, decodes, adopts) = (
            children("shard.request"),
            children("shard.decode"),
            children("shard.adopt"),
        );
        assert_eq!((requests.len(), adopts.len()), (1, 1), "{call:?}");
        assert!(adopts[0].start_us >= decodes[0].end_us(), "{call:?}");
    }
    assert!(
        spans.iter().any(|s| s.name == "kernel.dispatch"),
        "no kernel-path event crossed the wire"
    );
    for shard in ["0", "1"] {
        assert!(
            spans
                .iter()
                .any(|s| s.name == "shard.call" && s.attr("shard") == Some(shard)),
            "no shard.call span for shard {shard}"
        );
    }
    assert_single_tree(&spans);
    rig.shutdown();
}

/// Map distances are scored at the coordinator from the pair cells the
/// candidates' count round returned: the push-down endpoint that used to
/// count contingency tables on a round of its own is gone, and the
/// clustering phase of a distributed explore issues no shard call at all
/// (every `shard.call` hangs under the query or candidates phase).
#[test]
fn the_clustering_phase_calls_no_shard() {
    let _gate = gate();
    let rig = rig();
    let gone = Client::new(rig.handles[0].addr())
        .post_json(
            "/shard/contingency",
            &Json::object(vec![("dataset", Json::from("census"))]),
        )
        .unwrap();
    assert_eq!(gone.status, 404, "{:?}", gone.body_text());
    let _traced = Traced::begin();
    let coordinator = rig.coordinator(calm_options());
    obs::tracer().clear();
    let root = obs::span_root("test.explore");
    let trace_id = root.context().expect("tracing is enabled").trace_id;
    coordinator
        .explore(&ConjunctiveQuery::all("census"))
        .unwrap();
    drop(root);

    let spans = obs::tracer().trace(trace_id);
    let by_id: HashMap<u64, &obs::SpanRecord> = spans.iter().map(|s| (s.span_id, s)).collect();
    let clustering = spans
        .iter()
        .find(|s| s.name == "phase.clustering")
        .expect("the clustering phase is traced");
    let calls: Vec<_> = spans.iter().filter(|s| s.name == "shard.call").collect();
    assert!(!calls.is_empty());
    for call in calls {
        let parent = by_id[&call.parent_id];
        assert!(
            matches!(parent.name.as_str(), "phase.query" | "phase.candidates"),
            "shard.call on {:?} hangs under '{}'",
            call.attr("path"),
            parent.name
        );
        assert_ne!(call.parent_id, clustering.span_id);
        assert_ne!(call.attr("path"), Some("/shard/contingency"));
    }
    rig.shutdown();
}

/// Seeded faults on both shards — one transient 500 (retried), one
/// straggler (hedged) — still reassemble into a single tree whose extra
/// children are labeled `mode=retry` / `mode=hedge`, with the answer
/// bit-identical.
#[test]
fn retried_and_hedged_calls_stay_one_labeled_tree() {
    let _gate = gate();
    let rig = rig();
    let query = ConjunctiveQuery::all("census");
    let expected = rig.reference.explore_released(&query).unwrap();

    let _traced = Traced::begin();
    let mut options = calm_options();
    options.hedge = HedgePolicy::After(Duration::from_millis(100));
    let coordinator = rig.coordinator(options);
    // Shard 0's proxy answers 500 once (consumed by the first attempt);
    // shard 1's stalls its first answer long enough for the hedge to win.
    rig.arm(0, vec![Fault::Error(500)]);
    rig.arm(1, vec![Fault::Delay(1_500)]);

    obs::tracer().clear();
    let root = obs::span_root("test.faulted");
    let trace_id = root.context().expect("tracing is enabled").trace_id;
    let result = coordinator.explore(&query).unwrap();
    drop(root);

    assert_identical(&expected, &result);
    assert_eq!(coordinator.metrics().retries(), 1);
    assert_eq!(coordinator.metrics().hedges_launched(), 1);

    let spans = obs::tracer().trace(trace_id);
    let retry = spans
        .iter()
        .find(|s| s.name == "shard.call" && s.attr("mode") == Some("retry"))
        .expect("the second attempt is labeled mode=retry");
    assert_eq!(retry.attr("shard"), Some("0"));
    assert_eq!(retry.attr("attempt"), Some("2"));
    assert!(
        spans
            .iter()
            .any(|s| s.name == "shard.call" && s.attr("mode") == Some("hedge")),
        "the hedge launch is labeled mode=hedge"
    );
    // The faulted attempts are still part of the one tree.
    assert_single_tree(&spans);
    rig.shutdown();
}

/// A hedged call runs the exchange an inline call runs: its primary goes on
/// the slot's idle keep-alive connection (`connection=reused`), and only the
/// hedge opens a fresh one. The hedge wins and its connection is parked, so
/// the next round reuses it: the explore opens one connection more than the
/// two the metadata probe left idle, the hedge's. The losing primary's
/// exchange, still out when the race returned, records nothing, so the
/// trace read after the straggler's reply is still one tree.
#[test]
fn a_hedged_primary_reuses_the_idle_connection_and_only_the_hedge_opens_one() {
    let _gate = gate();
    let rig = rig();
    let query = ConjunctiveQuery::all("census");
    let expected = rig.reference.explore_released(&query).unwrap();

    let _traced = Traced::begin();
    let mut options = calm_options();
    options.hedge = HedgePolicy::After(Duration::from_millis(300));
    let coordinator = rig.coordinator(options);
    assert_eq!(coordinator.metrics().connects(), 2);
    let accepted: Vec<usize> = rig.proxies.iter().map(FaultProxy::accepted).collect();
    // Shard 1's proxy stalls its next answer, the primary of its
    // `/shard/working` call, until long after the hedge has won.
    let straggle = Duration::from_millis(1_500);
    rig.arm(1, vec![Fault::Delay(straggle.as_millis() as u64)]);

    obs::tracer().clear();
    let root = obs::span_root("test.hedged");
    let trace_id = root.context().expect("tracing is enabled").trace_id;
    let result = coordinator.explore(&query).unwrap();
    drop(root);

    assert_identical(&expected, &result);
    assert_eq!(coordinator.metrics().hedges_launched(), 1);
    assert_eq!(coordinator.metrics().hedges_won(), 1);
    assert_eq!(
        coordinator.metrics().connects(),
        3,
        "only the hedge connects"
    );
    assert_eq!(rig.proxies[0].accepted(), accepted[0]);
    assert_eq!(rig.proxies[1].accepted(), accepted[1] + 1);

    // The losing primary's exchange ends with the straggler's reply.
    std::thread::sleep(straggle);
    let spans = obs::tracer().trace(trace_id);
    assert_single_tree(&spans);
    let calls: Vec<&obs::SpanRecord> = spans.iter().filter(|s| s.name == "shard.call").collect();
    let hedge = calls
        .iter()
        .find(|s| s.attr("mode") == Some("hedge"))
        .expect("the hedge is labeled mode=hedge");
    assert_eq!(hedge.attr("connection"), Some("fresh"));
    let primary = calls
        .iter()
        .find(|s| s.span_id == hedge.parent_id)
        .expect("the hedge is a child of its primary");
    assert_eq!(primary.attr("shard"), Some("1"));
    assert_eq!(primary.attr("path"), Some("/shard/working"));
    for call in &calls {
        let expected = if call.attr("mode") == Some("hedge") {
            "fresh"
        } else {
            "reused"
        };
        assert_eq!(call.attr("connection"), Some(expected), "{call:?}");
        let exchanges = spans
            .iter()
            .filter(|s| s.name == "shard.exchange" && s.parent_id == call.span_id);
        let judged = usize::from(call.span_id != primary.span_id);
        assert_eq!(exchanges.count(), judged, "{call:?}");
    }
    rig.shutdown();
}

/// A shard skipped by an open circuit leaves a `shard.skip` event (with the
/// reason) in the trace instead of a `shard.call` span.
#[test]
fn an_open_circuit_leaves_a_skip_event_in_the_trace() {
    let _gate = gate();
    let rig = rig();
    let query = ConjunctiveQuery::all("census");

    let _traced = Traced::begin();
    let mut options = calm_options();
    options.shard_timeout = Duration::from_millis(250);
    options.retry = options.retry.with_max_attempts(1);
    options.circuit = CircuitConfig {
        failure_threshold: 1,
        cool_down: Duration::from_secs(60),
    };
    let coordinator = rig.coordinator(options);
    rig.arm(0, vec![Fault::Kill]);

    // First explore: the killed shard fails and opens its circuit.
    coordinator.explore(&query).unwrap_err();
    assert_eq!(coordinator.circuit_states()[0].1, CircuitState::Open);

    // Second explore: the shard is refused up front, and the refusal is in
    // the trace.
    obs::tracer().clear();
    let root = obs::span_root("test.circuit");
    let trace_id = root.context().expect("tracing is enabled").trace_id;
    coordinator.explore(&query).unwrap_err();
    drop(root);

    let spans = obs::tracer().trace(trace_id);
    let skip = spans
        .iter()
        .find(|s| s.name == "shard.skip")
        .expect("the refused shard leaves a shard.skip event");
    assert_eq!(skip.attr("shard"), Some("0"));
    assert_eq!(skip.attr("reason"), Some("circuit-open"));
    assert_eq!(skip.duration_us, 0, "events are zero-duration");
    rig.shutdown();
}

fn boot_server() -> (ServerHandle, Client) {
    let mut registry = Registry::new();
    registry
        .add_table(
            "census",
            census_table(2_000, 500),
            DatasetOptions {
                config: AtlasConfig::default().with_parallelism(2),
                cache_capacity: 0,
            },
        )
        .unwrap();
    let handle = Server::start(registry, ServeConfig::default().with_threads(2)).unwrap();
    let client = Client::new(handle.addr());
    (handle, client)
}

/// `?trace=1` only *adds* members: the `maps` member is byte-identical with
/// and without it (the bit-identity surface), and the flagged reply carries
/// the inline tree plus the id for `GET /debug/traces/:id`.
#[test]
fn the_trace_flag_is_purely_additive_on_the_wire() {
    let _gate = gate();
    let _traced = Traced::begin();
    let (handle, client) = boot_server();
    let token = client.create_session("census").unwrap();
    let sql = "SELECT * FROM census WHERE age BETWEEN 17 AND 60";

    let plain = client
        .post_text(&format!("/sessions/{token}/explore"), sql)
        .unwrap();
    assert_eq!(plain.status, 200, "{:?}", plain.body_text());
    let plain = plain.json().unwrap();
    let traced = client
        .post_text(&format!("/sessions/{token}/explore?trace=1"), sql)
        .unwrap();
    assert_eq!(traced.status, 200, "{:?}", traced.body_text());
    let traced = traced.json().unwrap();

    assert_eq!(
        plain.get("maps").unwrap().encode(),
        traced.get("maps").unwrap().encode(),
        "?trace=1 must not perturb the answer"
    );
    assert!(plain.get("trace").is_none());
    let trace_id = traced.get("trace_id").unwrap().num().unwrap() as u64;
    let tree = traced.get("trace").unwrap().items().unwrap();
    assert!(!tree.is_empty(), "the inline tree holds the engine's spans");
    // The inline id keys the same trace on the debug endpoint.
    let debug = client.get(&format!("/debug/traces/{trace_id}")).unwrap();
    assert_eq!(debug.status, 200, "{:?}", debug.body_text());
    handle.shutdown();
}

/// `GET /debug/traces` lists the ring's roots newest-first and
/// `GET /debug/traces/:id` serves one assembled tree; bad ids answer 400,
/// unknown ids 404.
#[test]
fn debug_trace_endpoints_serve_the_ring() {
    let _gate = gate();
    let _traced = Traced::begin();
    let (handle, client) = boot_server();
    let token = client.create_session("census").unwrap();
    let reply = client
        .post_text(
            &format!("/sessions/{token}/explore"),
            "SELECT * FROM census",
        )
        .unwrap();
    assert_eq!(reply.status, 200);

    let listing = client.get("/debug/traces").unwrap();
    assert_eq!(listing.status, 200);
    let listing = listing.json().unwrap();
    let traces = listing.get("traces").unwrap().items().unwrap();
    assert!(!traces.is_empty(), "the explore's request root is listed");
    let newest = &traces[0];
    let trace_id = newest.get("trace_id").unwrap().num().unwrap() as u64;

    let detail = client.get(&format!("/debug/traces/{trace_id}")).unwrap();
    assert_eq!(detail.status, 200);
    let detail = detail.json().unwrap();
    assert_eq!(
        detail.get("trace_id").unwrap().num().unwrap() as u64,
        trace_id
    );
    assert!(detail.get("tree").unwrap().items().is_some());

    assert_eq!(
        client.get("/debug/traces/not-a-number").unwrap().status,
        400
    );
    let unused = obs::tracer().alloc_id();
    assert_eq!(
        client
            .get(&format!("/debug/traces/{unused}"))
            .unwrap()
            .status,
        404
    );
    handle.shutdown();
}

/// `/healthz` reports uptime, build info, and the tracer ring occupancy.
#[test]
fn healthz_reports_uptime_build_and_ring() {
    let _gate = gate();
    let (handle, client) = boot_server();
    let reply = client.get("/healthz").unwrap();
    assert_eq!(reply.status, 200);
    let body = reply.json().unwrap();
    assert_eq!(body.get("status").unwrap().str(), Some("ok"));
    assert!(body.get("uptime_seconds").unwrap().num().unwrap() >= 0.0);
    let build = body.get("build").unwrap();
    assert!(!build.get("version").unwrap().str().unwrap().is_empty());
    let profile = build.get("profile").unwrap().str().unwrap();
    assert!(profile == "debug" || profile == "release");
    let trace = body.get("trace").unwrap();
    assert_eq!(trace.get("enabled").unwrap().bool(), Some(false));
    assert!(trace.get("ring_spans").unwrap().num().is_some());
    assert!(trace.get("ring_capacity").unwrap().num().unwrap() > 0.0);
    handle.shutdown();
}

/// `/metrics` speaks Prometheus text to scrapers (`Accept: text/plain`) and
/// keeps the JSON report for everyone else.
#[test]
fn metrics_negotiates_prometheus_text() {
    let _gate = gate();
    let (handle, client) = boot_server();
    // One request so the endpoint counters are non-trivial.
    assert_eq!(client.get("/healthz").unwrap().status, 200);

    let json = client.get("/metrics").unwrap();
    assert_eq!(json.status, 200);
    let body = json.json().expect("default /metrics is still JSON");
    assert!(body.get("trace").is_some());
    assert!(body.get("counters").is_some());
    assert!(body.get("profile_cache").is_some());

    let text = Client::new(handle.addr())
        .with_header("Accept", "text/plain")
        .get("/metrics")
        .unwrap();
    assert_eq!(text.status, 200);
    let text = text.body_text().unwrap().to_string();
    assert!(
        text.contains("# TYPE atlas_requests_total counter"),
        "{text}"
    );
    assert!(
        text.contains("atlas_requests_total{endpoint=\"healthz\"}"),
        "{text}"
    );
    assert!(text.contains("# TYPE atlas_uptime_seconds gauge"), "{text}");
    assert!(text.contains("atlas_trace_ring_capacity"), "{text}");
    handle.shutdown();
}

/// The `explore` span says which rows an explore ran over: `gathered_rows`
/// is the row count of a working set of at most an eighth of the table,
/// which the engine gathers, and 0 for one explored over the table; only
/// the gathered explore dispatches the gather kernel.
#[test]
fn the_explore_span_says_whether_the_working_set_was_gathered() {
    let _gate = gate();
    let _traced = Traced::begin();
    let table = census_table(20_000, 1_024);
    let atlas = Atlas::new(Arc::clone(&table), product_config()).unwrap();
    let gathers = || -> u64 {
        obs::counters()
            .into_iter()
            .filter(|(name, _)| name.starts_with("kernel.gather."))
            .map(|(_, count)| count)
            .sum()
    };
    let sparse = ConjunctiveQuery::all("census").and(Predicate::range("age", 30.0, 32.0));
    for (query, gathered) in [(ConjunctiveQuery::all("census"), false), (sparse, true)] {
        let before = gathers();
        let root = obs::span_root("test.explore");
        let trace_id = root.context().expect("tracing is enabled").trace_id;
        let result = atlas.explore(&query).unwrap();
        drop(root);
        let spans = obs::tracer().trace(trace_id);
        let explore = spans
            .iter()
            .find(|s| s.name == "explore")
            .expect("the explore is traced");
        assert_eq!(result.working_set_size * 8 <= table.num_rows(), gathered);
        let rows = if gathered { result.working_set_size } else { 0 };
        assert_eq!(
            explore.attr("gathered_rows"),
            Some(rows.to_string().as_str())
        );
        // One dispatch per column of every segment the gather copied.
        assert_eq!(gathers() > before, gathered, "{}", to_sql(&query));
    }
}

/// A served whole-table `default` explore counts the last level of its
/// compositions off the statistics: its `explore` span reports the regions
/// built without rows (`counted_regions`, 0 when expanded), and its trace
/// holds 6 fewer partition plans than `Atlas::explore`'s — 7 instead of 13,
/// as at 1M census rows. A plan dispatches one partition kernel per segment.
#[test]
fn a_served_composition_counts_its_last_level() {
    let _gate = gate();
    let _traced = Traced::begin();
    let table = census_table(20_000, 1_024);
    let atlas = Atlas::new(Arc::clone(&table), AtlasConfig::default()).unwrap();
    let query = ConjunctiveQuery::all("census");
    let traced = |released: bool| {
        let root = obs::span_root("test.explore");
        let trace_id = root.context().expect("tracing is enabled").trace_id;
        let result = if released {
            atlas.explore_released(&query)
        } else {
            atlas.explore(&query)
        };
        result.unwrap();
        drop(root);
        let spans = obs::tracer().trace(trace_id);
        let explore = spans.iter().find(|s| s.name == "explore").unwrap();
        let counted: usize = explore.attr("counted_regions").unwrap().parse().unwrap();
        let dispatches = spans
            .iter()
            .filter(|s| s.name == "kernel.dispatch")
            .filter(|s| matches!(s.attr("op"), Some("select_ranges" | "select_in_groups")))
            .count();
        assert_eq!(dispatches % table.num_segments(), 0, "whole plans");
        (counted, dispatches / table.num_segments())
    };
    let (expanded_counted, expanded_plans) = traced(false);
    let (served_counted, served_plans) = traced(true);
    assert_eq!(expanded_counted, 0);
    assert!(served_counted > 0);
    assert_eq!((expanded_plans, served_plans), (13, 7));
}

/// A trace says which call of an explore paid for the working set: the
/// `shard.request` span of `/shard/working` is tagged `working=evaluated`,
/// and those of every later round — and of the repeat of a call whose first
/// answer was an injected `503` — `working=reused`. Each `shard.call` says
/// which connection it went on: `connection=reused` or `fresh`.
#[test]
fn shard_request_spans_say_whether_the_working_set_was_evaluated_or_reused() {
    let _gate = gate();
    let rig = rig();
    let query = parse_query("SELECT * FROM census WHERE age BETWEEN 25 AND 60").unwrap();
    let expected = rig.reference.explore_released(&query).unwrap();

    let _traced = Traced::begin();
    let coordinator = rig.coordinator(calm_options());
    // Shard 1's proxy answers its second data call — `/shard/select` — with
    // a synthetic 503 once; the coordinator asks again.
    rig.arm(1, vec![Fault::None, Fault::Error(503)]);
    obs::tracer().clear();
    let root = obs::span_root("test.explore");
    let trace_id = root.context().expect("tracing is enabled").trace_id;
    let result = coordinator.explore(&query).unwrap();
    drop(root);
    assert_identical(&expected, &result);
    assert_eq!(coordinator.metrics().retries(), 1);

    let spans = obs::tracer().trace(trace_id);
    let requests: Vec<_> = spans.iter().filter(|s| s.name == "shard.request").collect();
    assert_eq!(requests.len(), 2 * 2, "two shards, two rounds");
    for request in requests {
        let expected = match request.attr("endpoint") {
            Some("shard_working") => "evaluated",
            Some("shard_select") => "reused",
            other => panic!("unexpected shard endpoint {other:?}"),
        };
        assert_eq!(request.attr("working"), Some(expected));
    }
    // Every call goes on the connection the shard's `/shard/meta` call left
    // open, except the repeat: the `503` closed the one it was sent on.
    let calls: Vec<_> = spans.iter().filter(|s| s.name == "shard.call").collect();
    assert_eq!(calls.len(), 2 * 2 + 1);
    for call in calls {
        let expected = match call.attr("mode") {
            Some("retry") => "fresh",
            _ => "reused",
        };
        assert_eq!(call.attr("connection"), Some(expected), "{:?}", call.attrs);
    }
    assert_single_tree(&spans);
    rig.shutdown();
}
