//! Resilience primitives of the distributed serving path: deadlines, retry
//! policies with deterministic jitter, hedged-read configuration, per-shard
//! circuit breakers, and the coverage metadata of degraded answers.
//!
//! These types are deliberately engine-agnostic — the
//! [`Coordinator`](crate::distributed::Coordinator) composes them into its
//! fault policy, and `atlas-serve` exposes them as configuration knobs. The
//! design constraints are the repo's usual ones: **deterministic** (jitter
//! comes from a seeded vendored-`rand` generator, never the clock),
//! **panic-free** on request paths, and **typed** — every failure mode ends
//! in an [`AtlasError`] variant, never a hang or a silent partial answer.

use crate::wire::Json;
use atlas_core::AtlasError;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Longest backoff one retry may sleep, whatever the policy computes.
const MAX_BACKOFF: Duration = Duration::from_secs(30);

/// An absolute deadline with the budget it was derived from.
///
/// Requests carry their budget in the `X-Atlas-Deadline-Ms` header; the
/// server anchors it at the moment the connection was admitted, so queue
/// waits count against the budget too. The coordinator derives per-shard
/// budgets from the remaining time (replacing a flat per-request timeout)
/// and forwards the remainder down to the shards.
#[derive(Debug, Clone, Copy)]
pub struct Deadline {
    started: Instant,
    at: Instant,
    budget: Duration,
}

impl Deadline {
    /// A deadline `budget` from now.
    pub fn after(budget: Duration) -> Deadline {
        Deadline::anchored(budget, Instant::now())
    }

    /// A deadline `budget` from `started` (the admission instant, so time
    /// already spent queueing is charged against the budget).
    pub fn anchored(budget: Duration, started: Instant) -> Deadline {
        Deadline {
            started,
            at: started + budget,
            budget,
        }
    }

    /// The absolute instant the deadline fires.
    pub fn at(&self) -> Instant {
        self.at
    }

    /// The total budget, in milliseconds.
    pub fn budget_ms(&self) -> u64 {
        self.budget.as_millis() as u64
    }

    /// Milliseconds spent since the deadline was anchored.
    pub fn elapsed_ms(&self) -> u64 {
        self.started.elapsed().as_millis() as u64
    }

    /// Time left before the deadline, `None` once it has passed.
    pub fn remaining(&self) -> Option<Duration> {
        self.at.checked_duration_since(Instant::now())
    }

    /// Whether the deadline has passed.
    pub fn expired(&self) -> bool {
        self.remaining().is_none()
    }

    /// The typed error for this deadline firing during `phase`.
    pub fn error(&self, phase: &str) -> AtlasError {
        AtlasError::Deadline {
            budget_ms: self.budget_ms(),
            elapsed_ms: self.elapsed_ms(),
            phase: phase.to_string(),
        }
    }
}

/// The retry policy of one shard call, as a value.
///
/// `max_attempts` bounds the total attempts (so `2` means the original call
/// plus one retry — the historical coordinator behavior and the default).
/// Between attempts the caller sleeps an exponential backoff:
///
/// ```text
/// backoff(n) = base_backoff · multiplier^(n−1) · uniform(1−jitter, 1+jitter)
/// ```
///
/// where `n` counts failures so far and the uniform draw comes from the
/// coordinator's **seeded** generator (vendored `rand`), so a fault plan
/// replays to the exact same schedule. Backoffs are capped at 30 s and
/// always at the request deadline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts allowed per shard call (≥ 1).
    pub max_attempts: u32,
    /// Backoff before the first retry; `0` retries immediately.
    pub base_backoff: Duration,
    /// Exponential growth factor of successive backoffs.
    pub multiplier: f64,
    /// Jitter fraction in `[0, 1]`: each backoff is scaled by a uniform
    /// draw from `[1−jitter, 1+jitter]`.
    pub jitter: f64,
}

impl Default for RetryPolicy {
    /// One retry, no backoff, no jitter — exactly the pre-resilience
    /// coordinator fault policy.
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 2,
            base_backoff: Duration::ZERO,
            multiplier: 2.0,
            jitter: 0.0,
        }
    }
}

impl RetryPolicy {
    /// This policy with the given attempt bound (floored at 1).
    pub fn with_max_attempts(mut self, max_attempts: u32) -> RetryPolicy {
        self.max_attempts = max_attempts.max(1);
        self
    }

    /// This policy with the given base backoff.
    pub fn with_base_backoff(mut self, base: Duration) -> RetryPolicy {
        self.base_backoff = base;
        self
    }

    /// The backoff before the retry that follows failure number `failures`
    /// (1-based), given a uniform `draw` in `[0, 1)` from the seeded jitter
    /// generator.
    pub fn backoff(&self, failures: u32, draw: f64) -> Duration {
        if self.base_backoff.is_zero() || failures == 0 {
            return Duration::ZERO;
        }
        let growth = self
            .multiplier
            .max(1.0)
            .powi(failures.saturating_sub(1) as i32);
        let jitter = self.jitter.clamp(0.0, 1.0);
        let factor = (1.0 - jitter) + 2.0 * jitter * draw.clamp(0.0, 1.0);
        let secs = self.base_backoff.as_secs_f64() * growth * factor;
        if !secs.is_finite() || secs <= 0.0 {
            return Duration::ZERO;
        }
        // Clamp before converting: from_secs_f64 panics on overflow.
        Duration::from_secs_f64(secs.min(MAX_BACKOFF.as_secs_f64()))
    }
}

/// When a hedged (duplicated) read is launched at a straggling shard.
///
/// Shard endpoints are idempotent reads, so duplicating a slow request is
/// safe: the first success wins and the loser's answer is discarded
/// (`hedges_launched` / `hedges_won` in `/metrics` say whether it pays).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum HedgePolicy {
    /// Never hedge (the default).
    #[default]
    Off,
    /// Hedge any attempt still unanswered after a fixed delay.
    After(Duration),
}

/// Circuit-breaker tuning of one shard slot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CircuitConfig {
    /// Consecutive failed calls that open the circuit; `0` disables the
    /// breaker entirely.
    pub failure_threshold: u32,
    /// How long an open circuit refuses calls before letting one probe
    /// through (half-open).
    pub cool_down: Duration,
}

impl Default for CircuitConfig {
    fn default() -> CircuitConfig {
        CircuitConfig {
            failure_threshold: 5,
            cool_down: Duration::from_secs(5),
        }
    }
}

/// The observable state of a [`CircuitBreaker`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CircuitState {
    /// Calls flow normally.
    Closed,
    /// Calls are refused without touching the shard.
    Open,
    /// One probe call is in flight; its outcome closes or re-opens.
    HalfOpen,
}

impl CircuitState {
    /// The label `/metrics` and `/healthz` report.
    pub fn label(self) -> &'static str {
        match self {
            CircuitState::Closed => "closed",
            CircuitState::Open => "open",
            CircuitState::HalfOpen => "half_open",
        }
    }
}

#[derive(Debug)]
struct BreakerInner {
    state: CircuitState,
    consecutive_failures: u32,
    opened_at: Option<Instant>,
    opened_total: u64,
}

/// A per-shard circuit breaker: `failure_threshold` consecutive failed
/// calls open the circuit; after `cool_down` one probe call is admitted
/// (half-open) and its outcome closes or re-opens the circuit.
///
/// Failures are counted per *call* (a call may retry internally), so the
/// threshold reads as "this many scatter rounds in a row saw the shard
/// fail".
#[derive(Debug)]
pub struct CircuitBreaker {
    config: CircuitConfig,
    inner: Mutex<BreakerInner>,
}

impl CircuitBreaker {
    /// A closed breaker with the given tuning.
    pub fn new(config: CircuitConfig) -> CircuitBreaker {
        CircuitBreaker {
            config,
            inner: Mutex::new(BreakerInner {
                state: CircuitState::Closed,
                consecutive_failures: 0,
                opened_at: None,
                opened_total: 0,
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, BreakerInner> {
        match self.inner.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Whether a call may proceed right now. An open circuit past its
    /// cool-down transitions to half-open and admits the caller as the
    /// probe; a half-open circuit refuses everyone but its probe.
    pub fn admit(&self) -> bool {
        if self.config.failure_threshold == 0 {
            return true;
        }
        let mut inner = self.lock();
        match inner.state {
            CircuitState::Closed => true,
            CircuitState::HalfOpen => false,
            CircuitState::Open => {
                let cooled = inner
                    .opened_at
                    .is_none_or(|at| at.elapsed() >= self.config.cool_down);
                if cooled {
                    inner.state = CircuitState::HalfOpen;
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Whether the breaker would refuse a call right now, without mutating
    /// it (no half-open transition). Degraded-mode scatter uses this to
    /// skip open-circuit shards up front.
    pub fn is_refusing(&self) -> bool {
        if self.config.failure_threshold == 0 {
            return false;
        }
        let inner = self.lock();
        match inner.state {
            CircuitState::Closed => false,
            CircuitState::HalfOpen => true,
            CircuitState::Open => inner
                .opened_at
                .is_some_and(|at| at.elapsed() < self.config.cool_down),
        }
    }

    /// Record a successful call: closes the circuit and resets the failure
    /// run.
    pub fn record_success(&self) {
        let mut inner = self.lock();
        inner.state = CircuitState::Closed;
        inner.consecutive_failures = 0;
        inner.opened_at = None;
    }

    /// Record a failed call: extends the failure run and opens the circuit
    /// at the threshold (or re-opens it from half-open).
    pub fn record_failure(&self) {
        if self.config.failure_threshold == 0 {
            return;
        }
        let mut inner = self.lock();
        inner.consecutive_failures = inner.consecutive_failures.saturating_add(1);
        let reopen = inner.state == CircuitState::HalfOpen;
        if reopen || inner.consecutive_failures >= self.config.failure_threshold {
            if inner.state != CircuitState::Open {
                inner.opened_total += 1;
            }
            inner.state = CircuitState::Open;
            inner.opened_at = Some(Instant::now());
        }
    }

    /// The current state (an open circuit reports `Open` until a probe
    /// actually transitions it).
    pub fn state(&self) -> CircuitState {
        self.lock().state
    }

    /// How many times the circuit has opened over its lifetime.
    pub fn opened_total(&self) -> u64 {
        self.lock().opened_total
    }
}

/// How a distributed explore treats shard failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExploreMode {
    /// Bit-identity or typed error: any shard failing past its retries
    /// fails the whole explore with [`AtlasError::Distributed`] (the
    /// default, and the historical contract).
    #[default]
    Strict,
    /// Fold the surviving segments when at most `max_failed_shards` shards
    /// are down after retries, and tag the answer with exact [`Coverage`].
    Degraded {
        /// Most shards the explore may lose before failing anyway.
        max_failed_shards: usize,
    },
}

/// Exactly which part of the table a (possibly degraded) distributed answer
/// covers.
///
/// Segment loss is atomic — a failed shard takes all of its assigned
/// segments with it and nothing else — so coverage is exact: `missing_segments`
/// lists the global segment indices that went unanswered, `rows_answered`
/// sums the surviving segments' rows, and `columns` carries the per-column
/// row coverage (identical across columns under segment-atomic loss, but
/// reported per column so clients need not know that invariant).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Coverage {
    /// Total segments of the table.
    pub segments_total: usize,
    /// Segments whose shards answered.
    pub segments_answered: usize,
    /// Global indices of the unanswered segments, ascending.
    pub missing_segments: Vec<usize>,
    /// Total rows of the table.
    pub rows_total: usize,
    /// Rows in the answered segments.
    pub rows_answered: usize,
    /// Addresses of the shards that were dropped.
    pub failed_shards: Vec<String>,
    /// Per-column `(name, rows answered)` coverage.
    pub columns: Vec<(String, usize)>,
}

impl Coverage {
    /// Whether the answer covers the whole table (a strict answer, or a
    /// degraded one where every shard survived after all).
    pub fn complete(&self) -> bool {
        self.missing_segments.is_empty() && self.segments_answered == self.segments_total
    }

    /// The wire rendering `/distributed/explore` attaches to its answers.
    pub fn to_json(&self) -> Json {
        Json::object(vec![
            ("complete", Json::from(self.complete())),
            ("segments_total", Json::from(self.segments_total)),
            ("segments_answered", Json::from(self.segments_answered)),
            (
                "missing_segments",
                Json::array(
                    self.missing_segments
                        .iter()
                        .map(|&s| Json::from(s))
                        .collect(),
                ),
            ),
            ("rows_total", Json::from(self.rows_total)),
            ("rows_answered", Json::from(self.rows_answered)),
            (
                "failed_shards",
                Json::array(
                    self.failed_shards
                        .iter()
                        .map(|s| Json::from(s.as_str()))
                        .collect(),
                ),
            ),
            (
                "columns",
                Json::object(
                    self.columns
                        .iter()
                        .map(|(name, rows)| (name.clone(), Json::from(*rows)))
                        .collect::<Vec<_>>(),
                ),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_retry_policy_is_the_historical_retry_once() {
        let policy = RetryPolicy::default();
        assert_eq!(policy.max_attempts, 2);
        assert_eq!(policy.backoff(1, 0.5), Duration::ZERO);
    }

    #[test]
    fn backoff_grows_exponentially_and_jitters_deterministically() {
        let policy = RetryPolicy {
            max_attempts: 5,
            base_backoff: Duration::from_millis(100),
            multiplier: 2.0,
            jitter: 0.0,
        };
        assert_eq!(policy.backoff(1, 0.9), Duration::from_millis(100));
        assert_eq!(policy.backoff(2, 0.1), Duration::from_millis(200));
        assert_eq!(policy.backoff(3, 0.5), Duration::from_millis(400));

        let jittered = RetryPolicy {
            jitter: 0.5,
            ..policy
        };
        // draw 0 → factor 0.5; draw 1 → factor 1.5; draw 0.5 → factor 1.
        assert_eq!(jittered.backoff(1, 0.0), Duration::from_millis(50));
        assert_eq!(jittered.backoff(1, 1.0), Duration::from_millis(150));
        assert_eq!(jittered.backoff(1, 0.5), Duration::from_millis(100));
        // Same draw, same backoff — determinism is the whole point.
        assert_eq!(jittered.backoff(2, 0.25), jittered.backoff(2, 0.25));
    }

    #[test]
    fn backoff_is_capped() {
        let policy = RetryPolicy {
            max_attempts: 64,
            base_backoff: Duration::from_secs(10),
            multiplier: 10.0,
            jitter: 0.0,
        };
        assert_eq!(policy.backoff(30, 0.5), MAX_BACKOFF);
    }

    #[test]
    fn deadlines_expire_and_report_budget() {
        let deadline = Deadline::after(Duration::from_secs(60));
        assert!(!deadline.expired());
        assert!(deadline.remaining().is_some());
        assert_eq!(deadline.budget_ms(), 60_000);

        let past = Deadline::anchored(
            Duration::from_millis(5),
            Instant::now() - Duration::from_millis(50),
        );
        assert!(past.expired());
        assert_eq!(past.remaining(), None);
        match past.error("working") {
            AtlasError::Deadline {
                budget_ms, phase, ..
            } => {
                assert_eq!(budget_ms, 5);
                assert_eq!(phase, "working");
            }
            other => panic!("wrong error: {other}"),
        }
    }

    #[test]
    fn breaker_opens_after_threshold_and_half_opens_after_cool_down() {
        let breaker = CircuitBreaker::new(CircuitConfig {
            failure_threshold: 2,
            cool_down: Duration::from_millis(20),
        });
        assert!(breaker.admit());
        assert_eq!(breaker.state(), CircuitState::Closed);
        breaker.record_failure();
        assert!(breaker.admit());
        assert!(!breaker.is_refusing());
        breaker.record_failure();
        assert_eq!(breaker.state(), CircuitState::Open);
        assert_eq!(breaker.opened_total(), 1);
        assert!(!breaker.admit());
        assert!(breaker.is_refusing());

        std::thread::sleep(Duration::from_millis(25));
        assert!(!breaker.is_refusing() || breaker.state() == CircuitState::Open);
        // Cooled down: the next caller is the probe.
        assert!(breaker.admit());
        assert_eq!(breaker.state(), CircuitState::HalfOpen);
        // Concurrent callers are refused while the probe is out.
        assert!(!breaker.admit());
        breaker.record_success();
        assert_eq!(breaker.state(), CircuitState::Closed);
        assert!(breaker.admit());
    }

    #[test]
    fn half_open_probe_failure_reopens() {
        let breaker = CircuitBreaker::new(CircuitConfig {
            failure_threshold: 1,
            cool_down: Duration::from_millis(5),
        });
        breaker.record_failure();
        assert_eq!(breaker.state(), CircuitState::Open);
        std::thread::sleep(Duration::from_millis(10));
        assert!(breaker.admit());
        breaker.record_failure();
        assert_eq!(breaker.state(), CircuitState::Open);
        assert_eq!(breaker.opened_total(), 2);
    }

    #[test]
    fn disabled_breaker_always_admits() {
        let breaker = CircuitBreaker::new(CircuitConfig {
            failure_threshold: 0,
            cool_down: Duration::ZERO,
        });
        for _ in 0..10 {
            breaker.record_failure();
        }
        assert!(breaker.admit());
        assert!(!breaker.is_refusing());
        assert_eq!(breaker.opened_total(), 0);
    }

    #[test]
    fn coverage_reports_completeness_and_serializes() {
        let full = Coverage {
            segments_total: 4,
            segments_answered: 4,
            missing_segments: vec![],
            rows_total: 100,
            rows_answered: 100,
            failed_shards: vec![],
            columns: vec![("age".to_string(), 100)],
        };
        assert!(full.complete());
        let degraded = Coverage {
            segments_total: 4,
            segments_answered: 3,
            missing_segments: vec![2],
            rows_total: 100,
            rows_answered: 75,
            failed_shards: vec!["127.0.0.1:9".to_string()],
            columns: vec![("age".to_string(), 75)],
        };
        assert!(!degraded.complete());
        let json = degraded.to_json();
        assert_eq!(json.get("segments_answered").and_then(Json::index), Some(3));
        assert_eq!(json.get("rows_answered").and_then(Json::index), Some(75));
        assert_eq!(
            json.get("missing_segments")
                .and_then(Json::items)
                .map(|v| v.len()),
            Some(1)
        );
        assert_eq!(
            json.get("columns")
                .and_then(|c| c.get("age"))
                .and_then(Json::index),
            Some(75)
        );
    }
}
