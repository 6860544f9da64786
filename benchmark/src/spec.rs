//! `BENCHMARK.json`, embedded at build time: the one place workloads,
//! metrics, units and bounds are declared. The harness reads its own
//! description from here and refuses to print a result that does not match.

use atlas_serve::wire::{self, Json};

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// One declared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    /// `"lower"` or `"higher"`.
    pub better: String,
    /// Relative worsening that counts as a regression (end-to-end only).
    pub bound: Option<f64>,
}

impl Metric {
    /// How much worse `second` is than `first`, as a share of `first`
    /// (negative when it improved).
    pub fn worsening(&self, first: f64, second: f64) -> f64 {
        if self.better == "higher" {
            (first - second) / first
        } else {
            (second - first) / first
        }
    }
}

/// The parsed declaration.
#[derive(Debug, Clone)]
pub struct Spec {
    pub run_seconds: u64,
    /// `(name, why)` per workload.
    pub workloads: Vec<(String, String)>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

fn text(value: &Json, key: &str) -> String {
    value
        .get(key)
        .and_then(Json::str)
        .unwrap_or_else(|| panic!("BENCHMARK.json: missing string \"{key}\""))
        .to_string()
}

fn items<'a>(value: &'a Json, key: &str) -> &'a [Json] {
    value
        .get(key)
        .and_then(Json::items)
        .unwrap_or_else(|| panic!("BENCHMARK.json: missing array \"{key}\""))
}

fn metrics(root: &Json, key: &str) -> Vec<Metric> {
    items(root, key)
        .iter()
        .map(|m| Metric {
            name: text(m, "name"),
            unit: text(m, "unit"),
            better: text(m, "better"),
            bound: m.get("bound").and_then(Json::num),
        })
        .collect()
}

impl Spec {
    /// Parse the embedded file (a malformed file is a build defect, so this
    /// panics rather than returning an error).
    pub fn load() -> Spec {
        let root = wire::parse(BENCHMARK_JSON).expect("BENCHMARK.json is valid JSON");
        Spec {
            run_seconds: root
                .get("run_seconds")
                .and_then(Json::index)
                .expect("BENCHMARK.json: run_seconds") as u64,
            workloads: items(&root, "workloads")
                .iter()
                .map(|w| (text(w, "name"), text(w, "why")))
                .collect(),
            end_to_end: metrics(&root, "end_to_end"),
            per_layer: metrics(&root, "per_layer"),
        }
    }

    /// `--describe`: everything a reader needs to pick a metric and a
    /// workload, straight from the file.
    pub fn describe(&self) -> String {
        let mut out = format!(
            "nominal run length: {} s (--seconds scales the fixed script)\n\nworkloads\n",
            self.run_seconds
        );
        for (name, why) in &self.workloads {
            out.push_str(&format!("  {name:<16} {why}\n"));
        }
        out.push_str("\nend-to-end metrics (--trace 0)\n");
        for m in &self.end_to_end {
            out.push_str(&format!(
                "  {:<24} {:<6} better {:<7} bound {}\n",
                m.name,
                m.unit,
                m.better,
                m.bound.map_or("-".to_string(), |b| b.to_string()),
            ));
        }
        out.push_str("\nper-layer metrics (--trace 1, never gated)\n");
        for m in &self.per_layer {
            out.push_str(&format!(
                "  {:<36} {:<8} better {}\n",
                m.name, m.unit, m.better
            ));
        }
        out
    }
}
