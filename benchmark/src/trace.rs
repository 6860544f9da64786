//! The harness's own spans: name, start, end, parent, and one id per step.
//!
//! Spans are recorded from the benchmark's files only, around its calls into
//! each layer's public functions; they stay in memory until the epoch ends
//! and are then written as Chrome-trace JSON (open in `ui.perfetto.dev` or
//! `chrome://tracing`) and summarised as medians. End-to-end numbers never
//! come from a traced epoch.

use crate::conn::Timing;
use crate::stats;
use atlas_serve::wire::Json;
use std::time::Instant;

/// Index of a span in its tracer.
pub type SpanId = usize;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start_us: f64,
    pub end_us: f64,
    pub parent: Option<SpanId>,
    /// Shared by every span of one explore/drill step; 0 outside steps.
    pub step: u64,
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    steps: u64,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            steps: 0,
        }
    }

    fn us(&self, at: Instant) -> f64 {
        (at - self.origin).as_secs_f64() * 1e6
    }

    /// A finished span over a past interval.
    pub fn record(
        &mut self,
        name: impl Into<String>,
        parent: Option<SpanId>,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        let step = parent.map_or(0, |p| self.spans[p].step);
        self.spans.push(Span {
            name: name.into(),
            start_us: self.us(start),
            end_us: self.us(end),
            parent,
            step,
        });
        self.spans.len() - 1
    }

    /// Open a span; [`Tracer::end`] closes it.
    pub fn begin(&mut self, name: impl Into<String>, parent: Option<SpanId>) -> SpanId {
        let now = Instant::now();
        self.record(name, parent, now, now)
    }

    /// Open the root span of one explore/drill step (`step.full`, …) under a
    /// fresh step id.
    pub fn begin_step(&mut self, class: &str) -> SpanId {
        self.steps += 1;
        let id = self.begin(format!("step.{class}"), None);
        self.spans[id].step = self.steps;
        id
    }

    pub fn end(&mut self, id: SpanId) {
        self.spans[id].end_us = self.us(Instant::now());
    }

    /// Time one call into a layer as a span; returns the call's result.
    pub fn time<T>(
        &mut self,
        name: impl Into<String>,
        parent: Option<SpanId>,
        call: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let result = call();
        self.record(name, parent, start, Instant::now());
        result
    }

    /// The wire exchange of a step: the request as the client saw it, split
    /// into the client's own send and receive work and the socket wait.
    pub fn wire(&mut self, step: SpanId, timing: &Timing) {
        let request = self.record("wire.request", Some(step), timing.start, timing.end);
        self.record("loadgen.send", Some(request), timing.start, timing.sent);
        self.record("wire.wait", Some(request), timing.sent, timing.first_byte);
        self.record("loadgen.recv", Some(request), timing.first_byte, timing.end);
    }

    /// Durations (ms) of every span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_us - s.start_us) / 1e3)
            .collect()
    }

    /// Median duration (ms) of the spans called `name`; NaN if there is none.
    pub fn median_ms(&self, name: &str) -> f64 {
        stats::median(&self.durations_ms(name))
    }

    /// The share of step time no child span covers: how much of a traced
    /// step the trace cannot name.
    pub fn unaccounted_share(&self) -> f64 {
        let mut total = 0.0;
        let mut covered = 0.0;
        for span in &self.spans {
            match span.parent {
                None if span.step != 0 => total += span.end_us - span.start_us,
                Some(parent) if self.spans[parent].parent.is_none() && span.step != 0 => {
                    covered += span.end_us - span.start_us;
                }
                _ => {}
            }
        }
        (total - covered) / total
    }

    /// Chrome trace-event JSON (complete events on one track; nesting is by
    /// time, `args` carry the parent and the step id).
    pub fn chrome_json(&self) -> String {
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, span)| {
                Json::object(vec![
                    ("name", Json::from(span.name.as_str())),
                    ("ph", Json::from("X")),
                    ("ts", Json::Num(span.start_us)),
                    ("dur", Json::Num(span.end_us - span.start_us)),
                    ("pid", Json::from(1usize)),
                    ("tid", Json::from(1usize)),
                    (
                        "args",
                        Json::object(vec![
                            ("id", Json::from(id)),
                            ("parent", span.parent.map_or(Json::Null, Json::from)),
                            ("step", Json::from(span.step)),
                        ]),
                    ),
                ])
            })
            .collect();
        Json::object(vec![("traceEvents", Json::array(events))]).encode()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn spans_of_a_step_share_its_id_and_account_for_its_time() {
        let mut tracer = Tracer::new();
        let t0 = Instant::now();
        let ms = |n: u64| t0 + Duration::from_millis(n);
        let outside = tracer.record("probe", None, ms(0), ms(5));
        let step = tracer.begin_step("full");
        tracer.spans[step].start_us = tracer.us(ms(10));
        tracer.spans[step].end_us = tracer.us(ms(20));
        let wire = tracer.record("wire.request", Some(step), ms(10), ms(16));
        tracer.record("wire.wait", Some(wire), ms(11), ms(15));
        tracer.record("core.explore_full", Some(step), ms(16), ms(19));

        assert_eq!(tracer.spans[outside].step, 0);
        assert!(tracer.spans[step..].iter().all(|s| s.step == 1));
        // 10 ms of step, 6 + 3 covered by direct children; the grandchild
        // and the probe outside any step do not count.
        assert!((tracer.unaccounted_share() - 0.1).abs() < 1e-9);
        assert!((tracer.median_ms("core.explore_full") - 3.0).abs() < 1e-9);
        assert!(tracer.median_ms("absent").is_nan());

        let json = atlas_serve::wire::parse(&tracer.chrome_json()).unwrap();
        let events = json.get("traceEvents").unwrap().items().unwrap();
        assert_eq!(events.len(), 5);
        assert_eq!(
            events[3]
                .get("args")
                .unwrap()
                .get("parent")
                .unwrap()
                .index(),
            Some(wire)
        );
    }
}
