//! Server observability: request counters and a latency histogram.
//!
//! Counters are lock-free atomics bumped on every response; latencies go
//! into a bounded ring of recent samples from which `/metrics` derives
//! p50/p95/p99 (via `atlas_stats::quantile`) and an equi-width histogram
//! (via [`atlas_stats::histogram::EquiWidthHistogram`]) on demand. Keeping
//! raw samples instead of fixed buckets means the histogram's range always
//! matches the workload actually observed.

use crate::wire::Json;
use atlas_stats::histogram::EquiWidthHistogram;
use atlas_stats::quantile::quantile;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// How many recent latency samples the ring keeps.
const LATENCY_WINDOW: usize = 4096;
/// Histogram resolution of the `/metrics` latency report.
const HISTOGRAM_BINS: usize = 12;

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
    /// `POST /shard/working`
    ShardWorking,
    /// `POST /shard/summaries`
    ShardSummaries,
    /// `POST /shard/sketches`
    ShardSketches,
    /// `POST /shard/values`
    ShardValues,
    /// `POST /shard/categories`
    ShardCategories,
    /// `POST /shard/select`
    ShardSelect,
    /// `POST /shard/inject`
    ShardInject,
    /// `POST /distributed/explore`
    DistExplore,
    /// `GET /debug/traces`
    DebugTraces,
    /// `GET /debug/traces/:id`
    DebugTrace,
    /// Anything else (404s, bad paths).
    Other,
}

/// All endpoints, in reporting order.
pub const ENDPOINTS: [Endpoint; 22] = [
    Endpoint::CreateSession,
    Endpoint::Explore,
    Endpoint::Drill,
    Endpoint::Back,
    Endpoint::History,
    Endpoint::DeleteSession,
    Endpoint::Datasets,
    Endpoint::AppendRows,
    Endpoint::Healthz,
    Endpoint::Metrics,
    Endpoint::ShardMeta,
    Endpoint::ShardWorking,
    Endpoint::ShardSummaries,
    Endpoint::ShardSketches,
    Endpoint::ShardValues,
    Endpoint::ShardCategories,
    Endpoint::ShardSelect,
    Endpoint::ShardInject,
    Endpoint::DistExplore,
    Endpoint::DebugTraces,
    Endpoint::DebugTrace,
    Endpoint::Other,
];

impl Endpoint {
    /// The label under which the endpoint reports.
    pub fn label(self) -> &'static str {
        match self {
            Endpoint::CreateSession => "create_session",
            Endpoint::Explore => "explore",
            Endpoint::Drill => "drill",
            Endpoint::Back => "back",
            Endpoint::History => "history",
            Endpoint::DeleteSession => "delete_session",
            Endpoint::Datasets => "datasets",
            Endpoint::AppendRows => "append_rows",
            Endpoint::Healthz => "healthz",
            Endpoint::Metrics => "metrics",
            Endpoint::ShardMeta => "shard_meta",
            Endpoint::ShardWorking => "shard_working",
            Endpoint::ShardSummaries => "shard_summaries",
            Endpoint::ShardSketches => "shard_sketches",
            Endpoint::ShardValues => "shard_values",
            Endpoint::ShardCategories => "shard_categories",
            Endpoint::ShardSelect => "shard_select",
            Endpoint::ShardInject => "shard_inject",
            Endpoint::DistExplore => "dist_explore",
            Endpoint::DebugTraces => "debug_traces",
            Endpoint::DebugTrace => "debug_trace",
            Endpoint::Other => "other",
        }
    }

    /// Position in [`ENDPOINTS`]. A total match instead of a scan-and-
    /// `expect`: forgetting to list a new variant is a compile error here,
    /// not a panic at record time (the round trip is pinned by a test).
    fn index(self) -> usize {
        match self {
            Endpoint::CreateSession => 0,
            Endpoint::Explore => 1,
            Endpoint::Drill => 2,
            Endpoint::Back => 3,
            Endpoint::History => 4,
            Endpoint::DeleteSession => 5,
            Endpoint::Datasets => 6,
            Endpoint::AppendRows => 7,
            Endpoint::Healthz => 8,
            Endpoint::Metrics => 9,
            Endpoint::ShardMeta => 10,
            Endpoint::ShardWorking => 11,
            Endpoint::ShardSummaries => 12,
            Endpoint::ShardSketches => 13,
            Endpoint::ShardValues => 14,
            Endpoint::ShardCategories => 15,
            Endpoint::ShardSelect => 16,
            Endpoint::ShardInject => 17,
            Endpoint::DistExplore => 18,
            Endpoint::DebugTraces => 19,
            Endpoint::DebugTrace => 20,
            Endpoint::Other => 21,
        }
    }
}

#[derive(Default)]
struct LatencyRing {
    samples: Vec<f64>,
    next: usize,
}

impl LatencyRing {
    fn push(&mut self, latency_ms: f64) {
        if self.samples.len() < LATENCY_WINDOW {
            self.samples.push(latency_ms);
        } else {
            // lint: slice-index-ok (next < LATENCY_WINDOW == samples.len() in this branch)
            self.samples[self.next] = latency_ms;
            self.next = (self.next + 1) % LATENCY_WINDOW;
        }
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

    /// Record one served request.
    pub fn record(&self, endpoint: Endpoint, status: u16, latency_ms: f64) {
        // lint: slice-index-ok (Endpoint::index is a total match onto 0..ENDPOINTS.len())
        self.by_endpoint[endpoint.index()].fetch_add(1, Ordering::Relaxed);
        let bucket = match status {
            200..=299 => &self.responses_2xx,
            400..=499 => &self.responses_4xx,
            _ => &self.responses_5xx,
        };
        bucket.fetch_add(1, Ordering::Relaxed);
        match self.latencies.lock() {
            Ok(mut ring) => ring.push(latency_ms),
            Err(poisoned) => poisoned.into_inner().push(latency_ms),
        }
    }

    /// Seconds since the server started (drives `/healthz` and `/metrics`).
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
        let ring = match self.latencies.lock() {
            Ok(ring) => ring,
            Err(poisoned) => poisoned.into_inner(),
        };
        quantile(&ring.samples, 0.5)
    }

    /// The `/metrics` report. `extra` members (cache stats, session
    /// counters) are appended by the server so this module stays ignorant of
    /// the registry.
    pub fn snapshot(&self, extra: Vec<(String, Json)>) -> Json {
        let samples: Vec<f64> = match self.latencies.lock() {
            Ok(ring) => ring.samples.clone(),
            Err(poisoned) => poisoned.into_inner().samples.clone(),
        };
        let latency = if samples.is_empty() {
            Json::Null
        } else {
            let p = |q: f64| {
                quantile(&samples, q)
                    .map(|x| Json::Num(round3(x)))
                    .unwrap_or(Json::Null)
            };
            let histogram = EquiWidthHistogram::build(&samples, HISTOGRAM_BINS)
                .map(|h| {
                    Json::object(vec![
                        (
                            "edges_ms",
                            Json::array(h.edges.iter().map(|&e| Json::Num(round3(e))).collect()),
                        ),
                        (
                            "counts",
                            Json::array(h.counts.iter().map(|&c| Json::from(c)).collect()),
                        ),
                    ])
                })
                .unwrap_or(Json::Null);
            Json::object(vec![
                ("window", Json::from(samples.len())),
                ("p50_ms", p(0.5)),
                ("p95_ms", p(0.95)),
                ("p99_ms", p(0.99)),
                (
                    "max_ms",
                    Json::Num(round3(samples.iter().cloned().fold(0.0, f64::max))),
                ),
                ("histogram", histogram),
            ])
        };
        let mut members = vec![
            (
                "uptime_s".to_string(),
                Json::Num(round3(self.started.elapsed().as_secs_f64())),
            ),
            (
                "requests_total".to_string(),
                Json::from(self.total_requests()),
            ),
            (
                "requests_by_endpoint".to_string(),
                Json::object(
                    ENDPOINTS
                        .iter()
                        .map(|e| {
                            (
                                e.label(),
                                // lint: slice-index-ok (Endpoint::index is a total match onto 0..ENDPOINTS.len())
                                Json::from(self.by_endpoint[e.index()].load(Ordering::Relaxed)),
                            )
                        })
                        .collect(),
                ),
            ),
            (
                "responses".to_string(),
                Json::object(vec![
                    (
                        "ok_2xx",
                        Json::from(self.responses_2xx.load(Ordering::Relaxed)),
                    ),
                    (
                        "client_error_4xx",
                        Json::from(self.responses_4xx.load(Ordering::Relaxed)),
                    ),
                    (
                        "server_error_5xx",
                        Json::from(self.responses_5xx.load(Ordering::Relaxed)),
                    ),
                    ("rejected_overload_503", Json::from(self.rejected())),
                ]),
            ),
            ("latency".to_string(), latency),
        ];
        members.extend(extra);
        Json::Obj(members)
    }
}

fn round3(x: f64) -> f64 {
    (x * 1000.0).round() / 1000.0
}

/// One sample appended to the Prometheus exposition by the server (cache
/// stats, kernel-path counters, tracer occupancy): `name{labels} value`.
#[derive(Debug, Clone)]
pub struct PromSample {
    /// Metric family name (`atlas_...`).
    pub name: &'static str,
    /// `counter` or `gauge` — emitted once per family as a `# TYPE` line.
    pub kind: &'static str,
    /// `key="value"` label pairs, already in exposition order.
    pub labels: Vec<(&'static str, String)>,
    /// Sample value.
    pub value: f64,
}

impl PromSample {
    /// A counter sample.
    pub fn counter(name: &'static str, labels: Vec<(&'static str, String)>, value: u64) -> Self {
        PromSample {
            name,
            kind: "counter",
            labels,
            value: value as f64,
        }
    }

    /// A gauge sample.
    pub fn gauge(name: &'static str, labels: Vec<(&'static str, String)>, value: f64) -> Self {
        PromSample {
            name,
            kind: "gauge",
            labels,
            value,
        }
    }
}

/// Escape a label value per the Prometheus text format (`\\`, `\"`, `\n`).
fn escape_label(value: &str, out: &mut String) {
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
}

fn push_sample(out: &mut String, seen: &mut Vec<&'static str>, sample: &PromSample) {
    if !seen.contains(&sample.name) {
        seen.push(sample.name);
        out.push_str("# TYPE ");
        out.push_str(sample.name);
        out.push(' ');
        out.push_str(sample.kind);
        out.push('\n');
    }
    out.push_str(sample.name);
    if !sample.labels.is_empty() {
        out.push('{');
        for (i, (key, value)) in sample.labels.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(key);
            out.push_str("=\"");
            escape_label(value, out);
            out.push('"');
        }
        out.push('}');
    }
    out.push(' ');
    // `{}` on f64 is the shortest round-trip rendering, the same contract the
    // wire codecs guarantee; integral values print with no fraction.
    let value = sample.value;
    out.push_str(&format!("{value}\n"));
}

impl ServerMetrics {
    /// The `/metrics` report in the Prometheus text exposition format
    /// (version 0.0.4): the same counters as [`ServerMetrics::snapshot`] as
    /// `atlas_*` families — requests labelled by endpoint, response classes,
    /// latency quantiles over the recent window — followed by the server's
    /// `extra` samples (dataset caches, kernel paths, tracer ring).
    pub fn prometheus(&self, extra: Vec<PromSample>) -> String {
        let mut samples: Vec<PromSample> = vec![PromSample::gauge(
            "atlas_uptime_seconds",
            Vec::new(),
            round3(self.started.elapsed().as_secs_f64()),
        )];
        for endpoint in ENDPOINTS.iter() {
            samples.push(PromSample::counter(
                "atlas_requests_total",
                vec![("endpoint", endpoint.label().to_string())],
                // lint: slice-index-ok (Endpoint::index is a total match onto 0..ENDPOINTS.len())
                self.by_endpoint[endpoint.index()].load(Ordering::Relaxed),
            ));
        }
        for (class, counter) in [
            ("2xx", &self.responses_2xx),
            ("4xx", &self.responses_4xx),
            ("5xx", &self.responses_5xx),
        ] {
            samples.push(PromSample::counter(
                "atlas_responses_total",
                vec![("class", class.to_string())],
                counter.load(Ordering::Relaxed),
            ));
        }
        samples.push(PromSample::counter(
            "atlas_rejected_overload_total",
            Vec::new(),
            self.rejected(),
        ));
        let window: Vec<f64> = match self.latencies.lock() {
            Ok(ring) => ring.samples.clone(),
            Err(poisoned) => poisoned.into_inner().samples.clone(),
        };
        samples.push(PromSample::gauge(
            "atlas_request_latency_window",
            Vec::new(),
            window.len() as f64,
        ));
        for (label, q) in [("0.5", 0.5), ("0.95", 0.95), ("0.99", 0.99)] {
            if let Some(value) = quantile(&window, q) {
                samples.push(PromSample::gauge(
                    "atlas_request_latency_ms",
                    vec![("quantile", label.to_string())],
                    round3(value),
                ));
            }
        }
        samples.extend(extra);

        let mut out = String::new();
        let mut seen: Vec<&'static str> = Vec::new();
        for sample in &samples {
            push_sample(&mut out, &mut seen, sample);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoint_index_round_trips_through_endpoints() {
        // `index()` is a hand-maintained match; this pins it to the
        // reporting order so the two can never drift apart.
        for (i, e) in ENDPOINTS.iter().enumerate() {
            assert_eq!(e.index(), i, "{:?}", e);
            assert_eq!(ENDPOINTS[e.index()], *e);
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

        let snapshot = metrics.snapshot(vec![("extra".to_string(), Json::from(7u64))]);
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
        let p50 = latency.get("p50_ms").unwrap().num().unwrap();
        let p99 = latency.get("p99_ms").unwrap().num().unwrap();
        assert!(p50 > 40.0 && p50 < 60.0, "{p50}");
        assert!(p99 > p50);
        let histogram = latency.get("histogram").unwrap();
        let counts = histogram.get("counts").unwrap().items().unwrap();
        let total: f64 = counts.iter().map(|c| c.num().unwrap()).sum();
        assert_eq!(total as usize, 102);
        assert_eq!(snapshot.get("extra").unwrap().num(), Some(7.0));
    }

    #[test]
    fn empty_latency_window_reports_null() {
        let metrics = ServerMetrics::new();
        let snapshot = metrics.snapshot(Vec::new());
        assert_eq!(snapshot.get("latency"), Some(&Json::Null));
        assert_eq!(snapshot.get("requests_total").unwrap().num(), Some(0.0));
    }

    #[test]
    fn prometheus_exposition_renders_each_family_once() {
        let metrics = ServerMetrics::new();
        metrics.record(Endpoint::Explore, 200, 1.5);
        metrics.record(Endpoint::Explore, 200, 2.5);
        let text = metrics.prometheus(vec![PromSample::counter(
            "atlas_profile_cache_total",
            vec![
                ("dataset", "census".to_string()),
                ("outcome", "hit".to_string()),
            ],
            42,
        )]);
        assert_eq!(
            text.matches("# TYPE atlas_requests_total counter").count(),
            1,
            "{text}"
        );
        assert!(text.contains("atlas_requests_total{endpoint=\"explore\"} 2\n"));
        assert!(text.contains("atlas_responses_total{class=\"2xx\"} 2\n"));
        assert!(text.contains("atlas_profile_cache_total{dataset=\"census\",outcome=\"hit\"} 42\n"));
        assert!(text.contains("atlas_request_latency_ms{quantile=\"0.5\"}"));
        assert!(text.contains("# TYPE atlas_uptime_seconds gauge"));
    }

    #[test]
    fn prometheus_label_values_are_escaped() {
        let metrics = ServerMetrics::new();
        let text = metrics.prometheus(vec![PromSample::gauge(
            "atlas_test_gauge",
            vec![("dataset", "we\"ird\\name\n".to_string())],
            1.0,
        )]);
        assert!(text.contains("dataset=\"we\\\"ird\\\\name\\n\""), "{text}");
    }

    #[test]
    fn the_ring_is_bounded() {
        let metrics = ServerMetrics::new();
        for i in 0..(LATENCY_WINDOW + 500) {
            metrics.record(Endpoint::Explore, 200, i as f64);
        }
        let snapshot = metrics.snapshot(Vec::new());
        let window = snapshot
            .get("latency")
            .unwrap()
            .get("window")
            .unwrap()
            .num()
            .unwrap() as usize;
        assert_eq!(window, LATENCY_WINDOW);
    }
}
