//! The rendering half of the self-report: the [`Sample`] list, its two
//! renderers, and the one walk over the server's components that fills it.
//!
//! A [`Sample`] is one fact named once for each format — its member path in
//! the JSON report and its family and labels in the Prometheus text
//! exposition. `GET /metrics` walks the components once ([`walk`]) and
//! renders the list as whichever format the client negotiated;
//! `GET /healthz` renders a short list of its own through the same JSON
//! renderer, sharing the tracer-ring and circuit-state samples with
//! `/metrics`.

use super::ServerMetrics;
use crate::distributed::Coordinator;
use crate::http::{Request, Response};
use crate::registry::Registry;
use crate::resilience::CircuitState;
use crate::sessions::SessionManager;
use crate::shard::ShardState;
use crate::wire::Json;
use atlas_columnar::Encoding;
use std::sync::Arc;

/// What a [`Sample`] measured.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// A monotone count (Prometheus `counter`).
    Counter(u64),
    /// A point-in-time number (Prometheus `gauge`).
    Gauge(f64),
    /// On or off: a JSON boolean, a `0`/`1` gauge in text.
    Flag(bool),
    /// One of a fixed set of states: a JSON string; in text a gauge of `1`
    /// carrying the state as a `state` label.
    State(&'static str),
}

/// One fact of the server's self-report, named for both formats.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Member names from the root of the JSON report down to the leaf.
    path: Vec<String>,
    /// Prometheus family name (`atlas_…`).
    family: String,
    /// `key="value"` label pairs, in exposition order.
    labels: Vec<(&'static str, String)>,
    value: Value,
}

impl Sample {
    /// A sample at `path` in the JSON report and at `family{labels}` in the
    /// text exposition.
    pub fn new(
        path: &[&str],
        family: &str,
        labels: &[(&'static str, &str)],
        value: Value,
    ) -> Sample {
        Sample {
            path: path.iter().map(|key| key.to_string()).collect(),
            family: family.to_string(),
            labels: labels
                .iter()
                .map(|(key, value)| (*key, value.to_string()))
                .collect(),
            value,
        }
    }
}

/// Put `value` at `path` under `members`, creating the objects on the way.
fn insert(members: &mut Vec<(String, Json)>, path: &[String], value: Json) {
    let Some((key, rest)) = path.split_first() else {
        return;
    };
    if rest.is_empty() {
        members.push((key.clone(), value));
        return;
    }
    let position = match members.iter().position(|(k, _)| k == key) {
        Some(position) => position,
        None => {
            members.push((key.clone(), Json::Obj(Vec::new())));
            members.len() - 1
        }
    };
    if let Some((_, Json::Obj(inner))) = members.get_mut(position) {
        insert(inner, rest, value);
    }
}

/// The samples as the members of a JSON object nested by path, in first-seen
/// order; every name in `groups` is a member even when no sample lands in it.
pub(super) fn json_members(samples: &[Sample], groups: &[&str]) -> Vec<(String, Json)> {
    let mut members = Vec::new();
    for sample in samples {
        let value = match sample.value {
            Value::Counter(n) => Json::from(n),
            Value::Gauge(x) => Json::Num(x),
            Value::Flag(on) => Json::Bool(on),
            Value::State(label) => Json::from(label),
        };
        insert(&mut members, &sample.path, value);
    }
    for group in groups {
        if !members.iter().any(|(key, _)| key == group) {
            members.push((group.to_string(), Json::Obj(Vec::new())));
        }
    }
    members
}

/// A label value escaped per the Prometheus text format (`\\`, `\"`, `\n`).
fn escape_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// The samples in the Prometheus text exposition format: families in
/// first-seen order, each one contiguous under a single `# TYPE` line (the
/// walk visits datasets in turn, so a family's samples are not adjacent in
/// the list).
pub(super) fn to_prometheus(samples: &[Sample]) -> String {
    let mut families: Vec<&str> = Vec::new();
    for sample in samples {
        if !families.contains(&sample.family.as_str()) {
            families.push(&sample.family);
        }
    }
    let mut out = String::new();
    for family in families {
        let mut typed = false;
        for sample in samples.iter().filter(|s| s.family == family) {
            let (kind, value, state) = match sample.value {
                Value::Counter(n) => ("counter", n.to_string(), None),
                // `{}` on f64 is the shortest round-trip rendering, the same
                // contract the wire codecs guarantee.
                Value::Gauge(x) => ("gauge", x.to_string(), None),
                Value::Flag(on) => ("gauge", u8::from(on).to_string(), None),
                Value::State(label) => ("gauge", "1".to_string(), Some(("state", label))),
            };
            if !typed {
                typed = true;
                out.push_str(&format!("# TYPE {family} {kind}\n"));
            }
            out.push_str(family);
            let labels: Vec<String> = sample
                .labels
                .iter()
                .map(|(key, value)| (*key, value.as_str()))
                .chain(state)
                .map(|(key, value)| format!("{key}=\"{}\"", escape_label(value)))
                .collect();
            if !labels.is_empty() {
                out.push_str(&format!("{{{}}}", labels.join(",")));
            }
            out.push(' ');
            out.push_str(&value);
            out.push('\n');
        }
    }
    out
}

/// The server components the report is about, gathered for one request.
pub(crate) struct Components<'a> {
    pub metrics: &'a ServerMetrics,
    pub sessions: &'a SessionManager,
    pub registry: &'a Registry,
    /// The server's shard role.
    pub shard: &'a ShardState,
    /// The connected coordinators, sorted by dataset name.
    pub coordinators: Vec<(String, Arc<Coordinator>)>,
    /// Worker threads serving connections.
    pub threads: usize,
}

/// The tracer switch and ring occupancy (`/metrics` and `/healthz`).
fn trace_samples(out: &mut Vec<Sample>) {
    let (ring_spans, ring_capacity) = atlas_obs::tracer().occupancy();
    for (key, value) in [
        ("enabled", Value::Flag(atlas_obs::enabled())),
        ("ring_spans", Value::Gauge(ring_spans as f64)),
        ("ring_capacity", Value::Gauge(ring_capacity as f64)),
    ] {
        let family = format!("atlas_trace_{key}");
        out.push(Sample::new(&["trace", key], &family, &[], value));
    }
}

/// The circuit state of every shard one coordinator scatters to
/// ([`Coordinator::circuit_states`]), as one JSON object per shard address
/// under `at` — the one rendering `/metrics` and `/healthz` share.
fn circuit_samples(
    out: &mut Vec<Sample>,
    at: &[&str],
    dataset: &str,
    circuits: &[(String, CircuitState, u64)],
) {
    for (shard, state, opened_total) in circuits {
        let labels = [("dataset", dataset), ("shard", shard.as_str())];
        let path = |leaf: &'static str| -> Vec<&str> {
            at.iter().copied().chain([shard.as_str(), leaf]).collect()
        };
        out.push(Sample::new(
            &path("state"),
            "atlas_distributed_circuit_state",
            &labels,
            Value::State(state.label()),
        ));
        out.push(Sample::new(
            &path("opened_total"),
            "atlas_distributed_circuit_opened_total",
            &labels,
            Value::Counter(*opened_total),
        ));
    }
}

/// Everything `/metrics` reports beyond the request counters: one visit to
/// the sessions, each dataset's caches and storage, the shard role, each
/// coordinator, the process-wide `atlas_obs` counters and the tracer ring.
fn walk(parts: &Components) -> Vec<Sample> {
    let mut out = Vec::new();
    let sessions = parts.sessions.counters();
    out.push(Sample::new(
        &["sessions", "live"],
        "atlas_sessions_live",
        &[],
        Value::Gauge(sessions.live as f64),
    ));
    for (key, count) in [("created", sessions.created), ("evicted", sessions.evicted)] {
        let family = format!("atlas_sessions_{key}_total");
        out.push(Sample::new(
            &["sessions", key],
            &family,
            &[],
            Value::Counter(count),
        ));
    }
    for dataset in parts.registry.datasets() {
        let name = dataset.name();
        let engine = dataset.snapshot().0;
        let (result, profile) = (dataset.cache_stats(), engine.profile_stats());
        for (section, key, outcome, count) in [
            ("result_cache", "hits", "hit", result.hits),
            ("result_cache", "misses", "miss", result.misses),
            ("result_cache", "evicted", "evicted", result.evicted),
            ("profile_cache", "hits", "hit", profile.hits),
            ("profile_cache", "misses", "miss", profile.misses),
            ("profile_cache", "derived", "derived", profile.derived),
        ] {
            out.push(Sample::new(
                &[section, name, key],
                &format!("atlas_{section}_total"),
                &[("dataset", name), ("outcome", outcome)],
                Value::Counter(count as u64),
            ));
        }
        // How the dataset is stored: per column, its segment-local parts by
        // encoding — dictionary codes at the width the part's dictionary
        // allows (every string part; a numeric part with few distinct
        // values) or plain lanes, decided per segment — and the heap bytes
        // held.
        for column in engine.table().columns() {
            for encoding in Encoding::ALL {
                let count = column
                    .parts()
                    .filter(|(_, part)| part.encoding() == encoding);
                out.push(Sample::new(
                    &["storage", name, column.name(), "parts", encoding.name()],
                    "atlas_storage_parts",
                    &[
                        ("dataset", name),
                        ("column", column.name()),
                        ("encoding", encoding.name()),
                    ],
                    Value::Gauge(count.count() as f64),
                ));
            }
            let bytes: usize = column.parts().map(|(_, part)| part.heap_bytes()).sum();
            out.push(Sample::new(
                &["storage", name, column.name(), "resident_bytes"],
                "atlas_storage_resident_bytes",
                &[("dataset", name), ("column", column.name())],
                Value::Gauge(bytes as f64),
            ));
        }
    }
    // Segment-local working sets the shard endpoints evaluated from their SQL
    // and found remembered: an explore costs each of its segments one
    // evaluation and a reuse per further call.
    let (evaluated, reused) = parts.shard.working_set_counts();
    for (key, count) in [("evaluated", evaluated), ("reused", reused)] {
        out.push(Sample::new(
            &["shard", "working_sets", key],
            "atlas_shard_working_sets_total",
            &[("outcome", key)],
            Value::Counter(count),
        ));
    }
    for (dataset, coordinator) in &parts.coordinators {
        out.extend(coordinator.metrics().samples(dataset));
        let circuits = coordinator.circuit_states();
        out.push(Sample::new(
            &["distributed", dataset, "circuit_open_total"],
            "atlas_distributed_circuit_open_total",
            &[("dataset", dataset)],
            Value::Counter(circuits.iter().map(|(_, _, opened)| opened).sum()),
        ));
        let at = ["distributed", dataset, "circuits"];
        circuit_samples(&mut out, &at, dataset, &circuits);
    }
    // Counter names follow the workspace convention `family.label.label`:
    // `kernel.count.<body>_words` (the 64-row words the per-code counts read
    // through entry masks or walked) and `kernel.<op>.<path>` map onto
    // labelled families, anything else falls back to a generic
    // `atlas_counter_total{name=…}`.
    for (name, value) in atlas_obs::counters() {
        let segments: Vec<&str> = name.split('.').collect();
        let (family, labels) = match segments.as_slice() {
            ["kernel", "count", words] => (
                "atlas_kernel_count_words_total",
                vec![("body", words.trim_end_matches("_words"))],
            ),
            ["kernel", op, path] => (
                "atlas_kernel_dispatch_total",
                vec![("op", *op), ("path", *path)],
            ),
            _ => ("atlas_counter_total", vec![("name", name)]),
        };
        out.push(Sample::new(
            &["counters", name],
            family,
            &labels,
            Value::Counter(value),
        ));
    }
    trace_samples(&mut out);
    out
}

/// `GET /metrics`. Content negotiation: Prometheus scrapers ask for text;
/// everything that spoke the JSON report before keeps getting it (no
/// `Accept`, `*/*`, or an explicit `application/json`).
pub(crate) fn metrics(parts: &Components, request: &Request) -> Response {
    let wants_text = request
        .header("accept")
        .is_some_and(|accept| accept.contains("text/plain") || accept.contains("openmetrics"));
    let samples = parts.metrics.samples(walk(parts));
    if wants_text {
        Response::text(200, to_prometheus(&samples))
    } else {
        // `counters` is a member even while it is empty (no kernel has
        // dispatched yet): clients test for the member.
        Response::json(200, &Json::Obj(json_members(&samples, &["counters"])))
    }
}

/// `GET /healthz`: liveness, build, the served datasets, the tracer ring and
/// — on a coordinating server — the circuit state of every shard.
pub(crate) fn healthz(parts: &Components) -> Response {
    let mut members = vec![
        ("status".to_string(), Json::from("ok")),
        (
            "uptime_seconds".to_string(),
            Json::Num(parts.metrics.uptime_seconds()),
        ),
        (
            "build".to_string(),
            Json::object(vec![
                ("version", Json::from(env!("CARGO_PKG_VERSION"))),
                (
                    "profile",
                    Json::from(if cfg!(debug_assertions) {
                        "debug"
                    } else {
                        "release"
                    }),
                ),
            ]),
        ),
        (
            "datasets".to_string(),
            Json::array(
                parts
                    .registry
                    .datasets()
                    .iter()
                    .map(|d| Json::from(d.name()))
                    .collect(),
            ),
        ),
        ("threads".to_string(), Json::from(parts.threads)),
    ];
    let mut samples = Vec::new();
    trace_samples(&mut samples);
    for (dataset, coordinator) in &parts.coordinators {
        let circuits = coordinator.circuit_states();
        circuit_samples(&mut samples, &["circuits", dataset], dataset, &circuits);
    }
    members.extend(json_members(&samples, &[]));
    Response::json(200, &Json::Obj(members))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(path: &[&str], family: &str, labels: &[(&'static str, &str)]) -> Sample {
        Sample::new(path, family, labels, Value::Counter(1))
    }

    #[test]
    fn json_nests_by_path_in_first_seen_order() {
        let samples = [
            sample(&["b", "x", "hits"], "atlas_b_total", &[]),
            sample(&["a"], "atlas_a_total", &[]),
            sample(&["b", "y", "hits"], "atlas_b_total", &[]),
            sample(&["b", "x", "misses"], "atlas_b_total", &[]),
        ];
        assert_eq!(
            Json::Obj(json_members(&samples, &["a", "empty"])).encode(),
            r#"{"b":{"x":{"hits":1,"misses":1},"y":{"hits":1}},"a":1,"empty":{}}"#
        );
    }

    #[test]
    fn every_value_kind_renders_in_both_formats() {
        let samples = [
            Sample::new(&["n"], "atlas_n_total", &[], Value::Counter(3)),
            Sample::new(&["x"], "atlas_x", &[("k", "v")], Value::Gauge(1.5)),
            Sample::new(&["on"], "atlas_on", &[], Value::Flag(true)),
            Sample::new(&["s"], "atlas_s", &[("k", "v")], Value::State("open")),
            Sample::new(&["t"], "atlas_t", &[], Value::State("closed")),
        ];
        assert_eq!(
            Json::Obj(json_members(&samples, &[])).encode(),
            r#"{"n":3,"x":1.5,"on":true,"s":"open","t":"closed"}"#
        );
        assert_eq!(
            to_prometheus(&samples),
            "# TYPE atlas_n_total counter\natlas_n_total 3\n\
             # TYPE atlas_x gauge\natlas_x{k=\"v\"} 1.5\n\
             # TYPE atlas_on gauge\natlas_on 1\n\
             # TYPE atlas_s gauge\natlas_s{k=\"v\",state=\"open\"} 1\n\
             # TYPE atlas_t gauge\natlas_t{state=\"closed\"} 1\n"
        );
    }

    #[test]
    fn a_family_is_contiguous_under_one_type_line() {
        let samples = [
            sample(&["a", "one"], "atlas_a_total", &[("dataset", "one")]),
            sample(&["b", "one"], "atlas_b_total", &[("dataset", "one")]),
            sample(&["a", "two"], "atlas_a_total", &[("dataset", "two")]),
        ];
        assert_eq!(
            to_prometheus(&samples),
            "# TYPE atlas_a_total counter\n\
             atlas_a_total{dataset=\"one\"} 1\n\
             atlas_a_total{dataset=\"two\"} 1\n\
             # TYPE atlas_b_total counter\n\
             atlas_b_total{dataset=\"one\"} 1\n"
        );
    }
}
