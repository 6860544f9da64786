//! The server's self-report: everything `GET /metrics` and `GET /healthz`
//! say, recorded and rendered here and nowhere else.
//!
//! This file is the **recording** half — [`ServerMetrics`] (per-endpoint
//! request counters, response classes, the one bounded window of recent
//! request latencies) and [`CoordinatorMetrics`] (scatter counters and
//! per-shard call latency of one distributed coordinator). Counters are
//! lock-free atomics; a request's latency is the `request` span's own
//! interval, so the report and a trace of the same request agree.
//!
//! `report.rs` is the **rendering** half: it walks the server's components
//! once into a flat list of [`Sample`]s, and both formats — the JSON report
//! and the Prometheus text exposition — are renderings of that one list, so
//! they cannot disagree about what exists.

mod report;

pub(crate) use report::{healthz, metrics, Components};
pub use report::{Sample, Value};

use crate::distributed::ShardIndex;
use crate::wire::Json;
use atlas_stats::quantile::quantile;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// How many recent latency samples the window keeps.
const LATENCY_WINDOW: usize = 4096;

/// The endpoints the server distinguishes in its counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Endpoint {
    /// `POST /sessions`
    CreateSession,
    /// `POST /sessions/:id/explore`
    Explore,
    /// `POST /sessions/:id/drill`
    Drill,
    /// `POST /sessions/:id/back`
    Back,
    /// `GET /sessions/:id/history`
    History,
    /// `DELETE /sessions/:id`
    DeleteSession,
    /// `GET /datasets`
    Datasets,
    /// `POST /datasets/:name/rows`
    AppendRows,
    /// `GET /healthz`
    Healthz,
    /// `GET /metrics`
    Metrics,
    /// `POST /shard/meta`
    ShardMeta,
    /// `POST /shard/working` (the working set and its column summaries)
    ShardWorking,
    /// `POST /shard/values`
    ShardValues,
    /// `POST /shard/categories`
    ShardCategories,
    /// `POST /shard/select`
    ShardSelect,
    /// `POST /distributed/explore`
    DistExplore,
    /// `GET /debug/traces`
    DebugTraces,
    /// `GET /debug/traces/:id`
    DebugTrace,
    /// Anything else (404s, bad paths, requests that never parsed).
    Other,
}

/// Every endpoint with the label it reports under, in declaration order: an
/// endpoint's position here is its discriminant, which is what lets
/// [`Endpoint::slot`] index any table of this length (a test pins it).
const ENDPOINTS: [(Endpoint, &str); 19] = [
    (Endpoint::CreateSession, "create_session"),
    (Endpoint::Explore, "explore"),
    (Endpoint::Drill, "drill"),
    (Endpoint::Back, "back"),
    (Endpoint::History, "history"),
    (Endpoint::DeleteSession, "delete_session"),
    (Endpoint::Datasets, "datasets"),
    (Endpoint::AppendRows, "append_rows"),
    (Endpoint::Healthz, "healthz"),
    (Endpoint::Metrics, "metrics"),
    (Endpoint::ShardMeta, "shard_meta"),
    (Endpoint::ShardWorking, "shard_working"),
    (Endpoint::ShardValues, "shard_values"),
    (Endpoint::ShardCategories, "shard_categories"),
    (Endpoint::ShardSelect, "shard_select"),
    (Endpoint::DistExplore, "dist_explore"),
    (Endpoint::DebugTraces, "debug_traces"),
    (Endpoint::DebugTrace, "debug_trace"),
    (Endpoint::Other, "other"),
];

impl Endpoint {
    /// The label under which the endpoint reports.
    pub fn label(self) -> &'static str {
        self.slot(&ENDPOINTS).1
    }

    /// This endpoint's entry in a table laid out like [`ENDPOINTS`].
    #[expect(
        clippy::indexing_slicing,
        reason = "a discriminant is below the variant count, which is ENDPOINTS.len(): the table lists every variant once, in declaration order"
    )]
    fn slot<T>(self, table: &[T; ENDPOINTS.len()]) -> &T {
        &table[self as usize]
    }
}

/// The bounded window of recent request latencies, in milliseconds.
#[derive(Default)]
struct LatencyRing {
    samples: Vec<f64>,
    next: usize,
}

impl LatencyRing {
    fn push(&mut self, latency_ms: f64) {
        match self.samples.get_mut(self.next) {
            // Full: `next` walks the window, overwriting the oldest sample.
            Some(slot) => *slot = latency_ms,
            // Still filling: `next == samples.len()`.
            None => self.samples.push(latency_ms),
        }
        self.next = (self.next + 1) % LATENCY_WINDOW;
    }
}

/// Request counters plus the recent-latency window.
pub struct ServerMetrics {
    started: Instant,
    by_endpoint: [AtomicU64; ENDPOINTS.len()],
    responses_2xx: AtomicU64,
    responses_4xx: AtomicU64,
    responses_5xx: AtomicU64,
    /// Connections refused with `503` by admission control.
    rejected_overload: AtomicU64,
    latencies: Mutex<LatencyRing>,
}

impl Default for ServerMetrics {
    fn default() -> Self {
        ServerMetrics::new()
    }
}

impl ServerMetrics {
    /// Fresh counters; `started` is now (drives the uptime report).
    pub fn new() -> ServerMetrics {
        ServerMetrics {
            started: Instant::now(),
            by_endpoint: std::array::from_fn(|_| AtomicU64::new(0)),
            responses_2xx: AtomicU64::new(0),
            responses_4xx: AtomicU64::new(0),
            responses_5xx: AtomicU64::new(0),
            rejected_overload: AtomicU64::new(0),
            latencies: Mutex::new(LatencyRing::default()),
        }
    }

    fn window(&self) -> MutexGuard<'_, LatencyRing> {
        // A push leaves the ring valid at every step, so a poisoned lock is
        // still good to read and write.
        match self.latencies.lock() {
            Ok(ring) => ring,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Record one answered request; `latency_ms` is its `request` span's
    /// interval (requests refused before they parsed have no span and pass
    /// the time spent reading them).
    pub fn record(&self, endpoint: Endpoint, status: u16, latency_ms: f64) {
        endpoint
            .slot(&self.by_endpoint)
            .fetch_add(1, Ordering::Relaxed);
        let bucket = match status {
            200..=299 => &self.responses_2xx,
            400..=499 => &self.responses_4xx,
            _ => &self.responses_5xx,
        };
        bucket.fetch_add(1, Ordering::Relaxed);
        self.window().push(latency_ms);
    }

    /// Seconds since the server started.
    pub fn uptime_seconds(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// Record one connection refused by admission control.
    pub fn record_overload(&self) {
        self.rejected_overload.fetch_add(1, Ordering::Relaxed);
    }

    /// Total requests served (all endpoints).
    pub fn total_requests(&self) -> u64 {
        self.by_endpoint
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .sum()
    }

    /// Connections refused with `503` so far.
    pub fn rejected(&self) -> u64 {
        self.rejected_overload.load(Ordering::Relaxed)
    }

    /// The median of the recent-latency window, in milliseconds — `None`
    /// until a first request has been served. Drives the `Retry-After`
    /// estimate on overload refusals.
    pub fn p50_latency_ms(&self) -> Option<f64> {
        quantile(&self.window().samples, 0.5)
    }

    /// The whole report as samples: this server's own facts — uptime, request
    /// counters, response classes, the latency window — followed by `extra`
    /// (what the walk in `report.rs` found in the other components).
    fn samples(&self, extra: Vec<Sample>) -> Vec<Sample> {
        let mut out = vec![
            Sample::new(
                &["uptime_s"],
                "atlas_uptime_seconds",
                &[],
                Value::Gauge(round3(self.uptime_seconds())),
            ),
            Sample::new(
                &["requests_total"],
                "atlas_requests_served_total",
                &[],
                Value::Counter(self.total_requests()),
            ),
        ];
        for ((_, label), counter) in ENDPOINTS.iter().zip(&self.by_endpoint) {
            out.push(Sample::new(
                &["requests_by_endpoint", label],
                "atlas_requests_total",
                &[("endpoint", label)],
                Value::Counter(counter.load(Ordering::Relaxed)),
            ));
        }
        for (key, class, counter) in [
            ("ok_2xx", "2xx", &self.responses_2xx),
            ("client_error_4xx", "4xx", &self.responses_4xx),
            ("server_error_5xx", "5xx", &self.responses_5xx),
        ] {
            out.push(Sample::new(
                &["responses", key],
                "atlas_responses_total",
                &[("class", class)],
                Value::Counter(counter.load(Ordering::Relaxed)),
            ));
        }
        out.push(Sample::new(
            &["responses", "rejected_overload_503"],
            "atlas_rejected_overload_total",
            &[],
            Value::Counter(self.rejected()),
        ));
        let window = self.window().samples.clone();
        out.push(Sample::new(
            &["latency", "window"],
            "atlas_request_latency_window",
            &[],
            Value::Gauge(window.len() as f64),
        ));
        for (key, q) in [("p50_ms", 0.5), ("p95_ms", 0.95), ("p99_ms", 0.99)] {
            if let Some(value) = quantile(&window, q) {
                out.push(Sample::new(
                    &["latency", key],
                    "atlas_request_latency_ms",
                    &[("quantile", &q.to_string())],
                    Value::Gauge(round3(value)),
                ));
            }
        }
        if let Some(max) = window.iter().copied().reduce(f64::max) {
            out.push(Sample::new(
                &["latency", "max_ms"],
                "atlas_request_latency_max_ms",
                &[],
                Value::Gauge(round3(max)),
            ));
        }
        out.extend(extra);
        out
    }

    /// The report as JSON, nested by each sample's path.
    pub fn snapshot(&self, extra: Vec<Sample>) -> Json {
        Json::Obj(report::json_members(&self.samples(extra), &[]))
    }
}

fn round3(x: f64) -> f64 {
    (x * 1000.0).round() / 1000.0
}

/// Scatter counters of one [`crate::Coordinator`].
///
/// `fan_out` counts shard calls issued (one per shard with assigned
/// segments per scatter round), `retries` counts repeat attempts after a
/// retryable failure; all counters are monotone over the coordinator's
/// lifetime.
#[derive(Debug)]
pub struct CoordinatorMetrics {
    pub(crate) fan_out: AtomicU64,
    pub(crate) retries: AtomicU64,
    pub(crate) hedges_launched: AtomicU64,
    pub(crate) hedges_won: AtomicU64,
    pub(crate) skipped_open_circuit: AtomicU64,
    pub(crate) deadline_exceeded: AtomicU64,
    pub(crate) degraded_explores: AtomicU64,
    per_shard: Vec<ShardLatency>,
}

#[derive(Debug)]
struct ShardLatency {
    addr: String,
    requests: AtomicU64,
    total_micros: AtomicU64,
    max_micros: AtomicU64,
}

impl CoordinatorMetrics {
    /// Zeroed counters with one latency slot per shard address.
    pub(crate) fn new(addrs: &[String]) -> CoordinatorMetrics {
        CoordinatorMetrics {
            fan_out: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            hedges_launched: AtomicU64::new(0),
            hedges_won: AtomicU64::new(0),
            skipped_open_circuit: AtomicU64::new(0),
            deadline_exceeded: AtomicU64::new(0),
            degraded_explores: AtomicU64::new(0),
            per_shard: addrs
                .iter()
                .map(|addr| ShardLatency {
                    addr: addr.clone(),
                    requests: AtomicU64::new(0),
                    total_micros: AtomicU64::new(0),
                    max_micros: AtomicU64::new(0),
                })
                .collect(),
        }
    }

    /// Total shard calls issued across all scatter rounds.
    pub fn fan_out(&self) -> u64 {
        self.fan_out.load(Ordering::Relaxed)
    }

    /// Total repeat attempts after a retryable failure.
    pub fn retries(&self) -> u64 {
        self.retries.load(Ordering::Relaxed)
    }

    /// Total hedged (duplicated) reads launched at straggling shards.
    pub fn hedges_launched(&self) -> u64 {
        self.hedges_launched.load(Ordering::Relaxed)
    }

    /// Hedged reads that answered before the primary attempt.
    pub fn hedges_won(&self) -> u64 {
        self.hedges_won.load(Ordering::Relaxed)
    }

    /// Shard calls refused locally because the shard's circuit was open.
    pub fn skipped_open_circuit(&self) -> u64 {
        self.skipped_open_circuit.load(Ordering::Relaxed)
    }

    /// Explores that failed with [`atlas_core::AtlasError::Deadline`].
    pub fn deadline_exceeded(&self) -> u64 {
        self.deadline_exceeded.load(Ordering::Relaxed)
    }

    /// Explores answered degraded (at least one shard dropped).
    pub fn degraded_explores(&self) -> u64 {
        self.degraded_explores.load(Ordering::Relaxed)
    }

    /// Record one finished call to `shard` (retries included). The per-shard
    /// slots are laid out like the coordinator's shards, so every index it
    /// hands out has one.
    pub(crate) fn record(&self, shard: ShardIndex, elapsed: Duration) {
        let Some(lat) = self.per_shard.get(shard.get()) else {
            return;
        };
        let micros = elapsed.as_micros() as u64;
        lat.requests.fetch_add(1, Ordering::Relaxed);
        lat.total_micros.fetch_add(micros, Ordering::Relaxed);
        lat.max_micros.fetch_max(micros, Ordering::Relaxed);
    }

    /// The scatter counters and per-shard call latency as report samples,
    /// under `distributed.<dataset>`; a text family is named after its JSON
    /// key.
    fn samples(&self, dataset: &str) -> Vec<Sample> {
        let mut out = Vec::new();
        for (key, counter) in [
            ("fan_out", &self.fan_out),
            ("retries", &self.retries),
            ("hedges_launched", &self.hedges_launched),
            ("hedges_won", &self.hedges_won),
            ("skipped_open_circuit", &self.skipped_open_circuit),
            ("deadline_exceeded", &self.deadline_exceeded),
            ("degraded_explores", &self.degraded_explores),
        ] {
            out.push(Sample::new(
                &["distributed", dataset, key],
                &format!("atlas_distributed_{key}_total"),
                &[("dataset", dataset)],
                Value::Counter(counter.load(Ordering::Relaxed)),
            ));
        }
        for lat in &self.per_shard {
            let requests = lat.requests.load(Ordering::Relaxed);
            let total = lat.total_micros.load(Ordering::Relaxed);
            let mean_ms = if requests == 0 {
                0.0
            } else {
                total as f64 / requests as f64 / 1000.0
            };
            let max_ms = lat.max_micros.load(Ordering::Relaxed) as f64 / 1000.0;
            for (key, family, value) in [
                ("requests", "requests_total", Value::Counter(requests)),
                ("mean_ms", "mean_ms", Value::Gauge(mean_ms)),
                ("max_ms", "max_ms", Value::Gauge(max_ms)),
            ] {
                out.push(Sample::new(
                    &["distributed", dataset, "shards", &lat.addr, key],
                    &format!("atlas_distributed_shard_{family}"),
                    &[("dataset", dataset), ("shard", &lat.addr)],
                    value,
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoint_index_round_trips_through_endpoints() {
        // `slot` indexes by discriminant; this pins the table to the enum's
        // declaration order so the two can never drift apart.
        for (i, (endpoint, label)) in ENDPOINTS.iter().enumerate() {
            assert_eq!(*endpoint as usize, i, "{endpoint:?}");
            assert_eq!(endpoint.label(), *label);
        }
    }

    #[test]
    fn counters_and_latency_percentiles_report() {
        let metrics = ServerMetrics::new();
        for i in 0..100 {
            metrics.record(Endpoint::Explore, 200, 1.0 + i as f64);
        }
        metrics.record(Endpoint::Drill, 400, 0.5);
        metrics.record(Endpoint::Other, 500, 2.0);
        metrics.record_overload();
        assert_eq!(metrics.total_requests(), 102);
        assert_eq!(metrics.rejected(), 1);

        let snapshot = metrics.snapshot(vec![Sample::new(
            &["extra"],
            "atlas_extra",
            &[],
            Value::Counter(7),
        )]);
        assert_eq!(snapshot.get("requests_total").unwrap().num(), Some(102.0));
        let by = snapshot.get("requests_by_endpoint").unwrap();
        assert_eq!(by.get("explore").unwrap().num(), Some(100.0));
        assert_eq!(by.get("drill").unwrap().num(), Some(1.0));
        let responses = snapshot.get("responses").unwrap();
        assert_eq!(responses.get("ok_2xx").unwrap().num(), Some(100.0));
        assert_eq!(responses.get("client_error_4xx").unwrap().num(), Some(1.0));
        assert_eq!(responses.get("server_error_5xx").unwrap().num(), Some(1.0));
        assert_eq!(
            responses.get("rejected_overload_503").unwrap().num(),
            Some(1.0)
        );
        let latency = snapshot.get("latency").unwrap();
        assert_eq!(latency.get("window").unwrap().num(), Some(102.0));
        let p50 = latency.get("p50_ms").unwrap().num().unwrap();
        let p99 = latency.get("p99_ms").unwrap().num().unwrap();
        assert!(p50 > 40.0 && p50 < 60.0, "{p50}");
        assert!(p99 > p50);
        assert_eq!(latency.get("max_ms").unwrap().num(), Some(100.0));
        assert_eq!(snapshot.get("extra").unwrap().num(), Some(7.0));
    }

    #[test]
    fn an_empty_latency_window_reports_no_quantiles() {
        let metrics = ServerMetrics::new();
        let snapshot = metrics.snapshot(Vec::new());
        let latency = snapshot.get("latency").unwrap();
        assert_eq!(latency.get("window").unwrap().num(), Some(0.0));
        assert_eq!(latency.get("p50_ms"), None);
        assert_eq!(latency.get("max_ms"), None);
        assert_eq!(snapshot.get("requests_total").unwrap().num(), Some(0.0));
        assert_eq!(metrics.p50_latency_ms(), None);
    }

    #[test]
    fn prometheus_exposition_renders_each_family_once() {
        let metrics = ServerMetrics::new();
        metrics.record(Endpoint::Explore, 200, 1.5);
        metrics.record(Endpoint::Explore, 200, 2.5);
        let extra = vec![Sample::new(
            &["profile_cache", "census", "hits"],
            "atlas_profile_cache_total",
            &[("dataset", "census"), ("outcome", "hit")],
            Value::Counter(42),
        )];
        let json = metrics.snapshot(extra.clone());
        let text = report::to_prometheus(&metrics.samples(extra));
        assert_eq!(
            text.matches("# TYPE atlas_requests_total counter").count(),
            1,
            "{text}"
        );
        assert!(text.contains("atlas_requests_total{endpoint=\"explore\"} 2\n"));
        assert!(text.contains("atlas_responses_total{class=\"2xx\"} 2\n"));
        assert!(text.contains("atlas_request_latency_ms{quantile=\"0.5\"} 2\n"));
        assert!(text.contains("atlas_request_latency_max_ms 2.5\n"));
        assert!(text.contains("atlas_profile_cache_total{dataset=\"census\",outcome=\"hit\"} 42\n"));
        assert!(text.contains("# TYPE atlas_uptime_seconds gauge"));
        let cache = json.get("profile_cache").unwrap().get("census").unwrap();
        assert_eq!(cache.get("hits").unwrap().num(), Some(42.0));
        // One text line per JSON leaf: the two are renderings of one list.
        fn leaves(json: &Json) -> usize {
            match json.entries() {
                Some(members) => members.iter().map(|(_, inner)| leaves(inner)).sum(),
                None => 1,
            }
        }
        let lines = text.lines().filter(|line| !line.starts_with('#')).count();
        assert_eq!(lines, leaves(&json));
    }

    #[test]
    fn prometheus_label_values_are_escaped() {
        let metrics = ServerMetrics::new();
        let text = report::to_prometheus(&metrics.samples(vec![Sample::new(
            &["test"],
            "atlas_test_gauge",
            &[("dataset", "we\"ird\\name\n")],
            Value::Gauge(1.0),
        )]));
        assert!(text.contains("dataset=\"we\\\"ird\\\\name\\n\""), "{text}");
    }

    #[test]
    fn the_ring_is_bounded() {
        let metrics = ServerMetrics::new();
        for i in 0..(LATENCY_WINDOW + 500) {
            metrics.record(Endpoint::Explore, 200, i as f64);
        }
        let window = metrics.window().samples.clone();
        assert_eq!(window.len(), LATENCY_WINDOW);
        let oldest = window.iter().copied().fold(f64::INFINITY, f64::min);
        assert_eq!(oldest, 500.0, "the 500 oldest samples were overwritten");
    }

    #[test]
    fn shard_calls_accumulate_per_shard() {
        let metrics = CoordinatorMetrics::new(&["a:1".to_string(), "b:2".to_string()]);
        let second = ShardIndex::all(2).nth(1).unwrap();
        metrics.record(second, Duration::from_millis(4));
        metrics.record(second, Duration::from_millis(2));
        let b = &metrics.per_shard[1];
        assert_eq!(b.requests.load(Ordering::Relaxed), 2);
        assert_eq!(b.total_micros.load(Ordering::Relaxed), 6_000);
        assert_eq!(b.max_micros.load(Ordering::Relaxed), 4_000);
        assert_eq!(metrics.per_shard[0].requests.load(Ordering::Relaxed), 0);
    }
}
