//! One run: several epochs in fresh child processes, and the estimators
//! over them — for the medians every request's latency is the median of its
//! measurements across the epochs, the p90 is over the raw samples of all
//! epochs pooled, and every per-epoch scalar is the median over epochs.

use crate::deploy::{census, Scale, Workload};
use crate::epoch::{self, EpochLine, Plan};
use crate::script::POOL;
use crate::spec::Spec;
use crate::stats;
use crate::Args;
use atlas_serve::wire::Json;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Untraced epochs of a run; a `--trace 1` run adds the traced one.
const EPOCHS: usize = 5;

/// The command line of a run.
#[derive(Debug, Clone, Copy)]
pub struct Request {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub traced: bool,
}

/// Where the harness writes (the CSV input of `ingest-1m`, traces).
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Measured cycles per epoch: the nominal count scaled by `--seconds`,
/// rounded to whole passes over the pool, at least one.
pub fn cycles(workload: Workload, seconds: u64, nominal_seconds: u64) -> usize {
    let passes = workload.nominal_cycles() as f64 / POOL as f64 * seconds as f64
        / nominal_seconds.max(1) as f64;
    (passes.round() as usize).max(1) * POOL
}

/// `--epoch I`: run one epoch in this process and print its line.
pub fn child(spec: &Spec, request: &Request, args: &Args) -> Result<bool, String> {
    let remaining_ms: u64 = args
        .number("--deadline-ms")?
        .ok_or("--epoch needs --deadline-ms")?;
    let traced_epoch = args.has("--traced-epoch");
    let plan = Plan {
        workload: request.workload,
        seed: request.seed,
        scale: Scale::FULL,
        // The traced epoch replays one pass: its spans are summarised as
        // medians per step class, and the shadow calls make it slow.
        cycles: if traced_epoch {
            POOL
        } else {
            cycles(request.workload, request.seconds, spec.run_seconds)
        },
        deadline: Instant::now() + Duration::from_millis(remaining_ms),
        csv: args.value("--csv").map(PathBuf::from),
        verify: args.has("--verify"),
        trace_to: traced_epoch.then(|| {
            out_dir().join(format!(
                "trace-{}-{}.json",
                request.workload.name(),
                request.seed
            ))
        }),
    };
    println!("{}", epoch::run(&plan)?.encode());
    Ok(true)
}

/// The epochs of one run and what they add up to.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every metric of the run by name.
    pub values: BTreeMap<String, f64>,
    pub attempted: usize,
    pub failed: usize,
    pub correct: bool,
}

fn spawn_epoch(
    request: &Request,
    index: usize,
    deadline: Instant,
    csv: Option<&Path>,
    traced_epoch: bool,
) -> Result<Option<EpochLine>, String> {
    let remaining = deadline.saturating_duration_since(Instant::now());
    if remaining.is_zero() {
        return Ok(None);
    }
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", request.workload.name()])
        .args(["--seed", &request.seed.to_string()])
        .args(["--seconds", &request.seconds.to_string()])
        .args(["--epoch", &index.to_string()])
        .args(["--deadline-ms", &remaining.as_millis().to_string()])
        .stdin(Stdio::null());
    if let Some(csv) = csv {
        command.arg("--csv").arg(csv);
    }
    if traced_epoch {
        command.arg("--traced-epoch");
    }
    if index == 0 {
        command.arg("--verify");
    }
    // Host defaults must not change the workload: every ATLAS_* knob is
    // pinned in `deploy`, and none reaches the child.
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("ATLAS_") {
            command.env_remove(key);
        }
    }
    // Blocks until the child has exited; its stderr is this process's.
    let output = command
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("epoch {index}: {e}"))?;
    let (status, text) = (output.status, String::from_utf8_lossy(&output.stdout));
    if !status.success() {
        eprintln!("benchmark: epoch {index} exited with {status}");
        return Ok(None);
    }
    let line = text.lines().last().and_then(EpochLine::decode);
    if let Some(line) = &line {
        // One line per epoch on stderr: which epoch a disturbance hit.
        let value = |key: &str| line.values.get(key).copied().unwrap_or(f64::NAN);
        eprintln!(
            "benchmark: epoch {index}: setup {:.3} s, step p50 {:.3} ms, cpu {:.3} ms/step, \
             host slowdown {:.3}, spin {:.1} ms, failed {}, correct {}",
            value("setup_s"),
            stats::median(&steps(line)),
            value("cpu_ms_per_step"),
            value("bench.host_slowdown"),
            value("bench.machine_spin_ms"),
            line.failed,
            line.correct,
        );
    }
    Ok(line)
}

/// Run every epoch of `request` and aggregate.
pub fn run(spec: &Spec, request: &Request) -> Result<Outcome, String> {
    let deadline = Instant::now() + Duration::from_secs(3 * request.seconds);
    // ingest-1m boots from a CSV file; writing it is the parent's job and is
    // not timed.
    let csv = if request.workload == Workload::Ingest {
        let dir = out_dir();
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let path = dir.join(format!(
            "ingest-{}-{}.csv",
            request.seed,
            std::process::id()
        ));
        let in_file = |e: &dyn std::fmt::Display| format!("{}: {e}", path.display());
        let mut writer =
            std::io::BufWriter::new(std::fs::File::create(&path).map_err(|e| in_file(&e))?);
        atlas_columnar::csv::write_csv(&census(Scale::FULL, request.seed), &mut writer)
            .map_err(|e| in_file(&e))?;
        std::io::Write::flush(&mut writer).map_err(|e| in_file(&e))?;
        Some(path)
    } else {
        None
    };
    let outcome = run_epochs(spec, request, deadline, csv.as_deref());
    if let Some(path) = &csv {
        let _ = std::fs::remove_file(path);
    }
    outcome
}

fn run_epochs(
    spec: &Spec,
    request: &Request,
    deadline: Instant,
    csv: Option<&Path>,
) -> Result<Outcome, String> {
    let workload = request.workload;
    let planned = cycles(workload, request.seconds, spec.run_seconds);
    let mut epochs = Vec::new();
    for index in 0..EPOCHS {
        let line = spawn_epoch(request, index, deadline, csv, false)?;
        epochs.push(line.unwrap_or_else(|| EpochLine::lost(workload, planned)));
    }
    let traced = if request.traced {
        let line = spawn_epoch(request, EPOCHS, deadline, csv, true)?;
        Some(line.unwrap_or_else(|| EpochLine::lost(workload, POOL)))
    } else {
        None
    };
    Ok(aggregate(&epochs, traced.as_ref()))
}

/// The position-wise median of one series over the epochs that completed
/// it. The script is fixed work, so position `i` is the same request against
/// the same server state in every epoch: each request is measured once per
/// epoch and its latency is the median of those measurements, which a
/// disturbance has to hit in most epochs *at the same request* to move.
pub fn consensus(epochs: &[EpochLine], key: &str) -> Vec<f64> {
    let series: Vec<&Vec<f64>> = epochs.iter().filter_map(|e| e.series.get(key)).collect();
    let len = series.iter().map(|s| s.len()).max().unwrap_or(0);
    let complete: Vec<&Vec<f64>> = series.into_iter().filter(|s| s.len() == len).collect();
    (0..len)
        .map(|i| stats::median(&complete.iter().map(|s| s[i]).collect::<Vec<f64>>()))
        .collect()
}

/// The step classes and the end-to-end median each reports under.
const CLASS_P50S: [(&str, &str); 3] = [
    ("full", "explore_full_p50_ms"),
    ("filter", "explore_filter_p50_ms"),
    ("drill", "drill_p50_ms"),
];

/// Every explore and drill latency of one epoch.
fn steps(epoch: &EpochLine) -> Vec<f64> {
    CLASS_P50S
        .iter()
        .filter_map(|(class, _)| epoch.series.get(*class))
        .flatten()
        .copied()
        .collect()
}

/// The estimators of a run. Median latencies and rates come from the
/// per-request consensus of the untraced epochs, the p90 from their pooled
/// raw samples; per-epoch scalars (set-up, CPU, memory, the probes) are
/// medians over those epochs; values only the traced epoch has come from it.
pub fn aggregate(epochs: &[EpochLine], traced: Option<&EpochLine>) -> Outcome {
    let mut values: BTreeMap<String, f64> = traced.map(|t| t.values.clone()).unwrap_or_default();
    let mut per_key: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for epoch in epochs {
        for (key, value) in &epoch.values {
            per_key.entry(key).or_default().push(*value);
        }
    }
    for (key, samples) in &per_key {
        values.insert(key.to_string(), stats::median(samples));
    }
    for (class, metric) in CLASS_P50S {
        values.insert(metric.to_string(), stats::median(&consensus(epochs, class)));
        // The same estimator over the samples as measured, before they were
        // held against the yardstick: what the host made of them that hour.
        let raw = stats::median(&consensus(epochs, &format!("raw_{class}")));
        if raw.is_finite() {
            values.insert(format!("bench.raw_{metric}"), raw);
        }
    }
    // The tail is not filtered: a stall that hits one request in one epoch
    // is what it is there to catch, so it is taken over every raw sample.
    let pooled: Vec<f64> = epochs.iter().flat_map(steps).collect();
    values.insert(
        "serve.step_p90_ms".to_string(),
        stats::percentile(&pooled, 0.9),
    );
    values.insert(
        "steps_per_s".to_string(),
        stats::median(&consensus(epochs, "cycle_rate")),
    );

    // How far apart the epochs landed, and what the spans cost.
    let step_p50s: Vec<f64> = epochs
        .iter()
        .map(steps)
        .filter(|s| !s.is_empty())
        .map(|s| stats::median(&s))
        .collect();
    values.insert(
        "bench.epoch_spread_pct".to_string(),
        stats::relative_range(&step_p50s) * 100.0,
    );
    if let Some(traced_steps) = traced.map(steps).filter(|s| !s.is_empty()) {
        let untraced_p50 = stats::median(&step_p50s);
        values.insert(
            "bench.trace_overhead_pct".to_string(),
            (stats::median(&traced_steps) - untraced_p50) / untraced_p50 * 100.0,
        );
    }

    // The served latency no engine time explains: the engine runs on the
    // share of steps the cache missed. The traced epoch timed the engine as
    // measured, minutes after some of the served steps (its own served
    // steps are no substitute: the shadow calls between them cost them up
    // to a fifth), so its time is held against that epoch's own slowdown
    // before the two are subtracted.
    let traced_slowdown = traced
        .and_then(|t| t.values.get("bench.host_slowdown").copied())
        .filter(|s| s.is_finite() && *s > 0.0)
        .unwrap_or(1.0);
    for (class, served) in CLASS_P50S {
        let get = |key: &str| values.get(key).copied();
        if let (Some(served), Some(explore), Some(hits)) = (
            get(served),
            get(&format!("core.explore_{class}_ms")),
            get("core.cache_hit_share"),
        ) {
            values.insert(
                format!("serve.residual_{class}_ms"),
                served - (1.0 - hits) * explore / traced_slowdown,
            );
        }
    }

    let all = || epochs.iter().chain(traced);
    let repeats = epochs.windows(2).all(|w| w[0].digests == w[1].digests);
    Outcome {
        values,
        attempted: all().map(|e| e.attempted).sum(),
        failed: all().map(|e| e.failed).sum(),
        correct: all().all(|e| e.correct) && repeats,
    }
}

impl Outcome {
    /// The last line of a run: `correct`, `attempted`, `failed`, and the
    /// end-to-end metrics (`--trace 0`) or the per-layer ones (`--trace 1`),
    /// each by name with its unit, in the order `BENCHMARK.json` lists them.
    pub fn final_line(&self, spec: &Spec, traced: bool) -> Result<String, String> {
        let listed = if traced {
            &spec.per_layer
        } else {
            &spec.end_to_end
        };
        let metrics = listed
            .iter()
            .map(|metric| {
                let value = self
                    .values
                    .get(&metric.name)
                    .copied()
                    .filter(|v| v.is_finite())
                    .ok_or_else(|| format!("no measurement for {}", metric.name))?;
                Ok((
                    metric.name.clone(),
                    Json::object(vec![
                        ("value", Json::Num(value)),
                        ("unit", Json::from(metric.unit.as_str())),
                    ]),
                ))
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(Json::object(vec![
            ("correct", Json::from(self.correct)),
            ("attempted", Json::from(self.attempted.max(1))),
            ("failed", Json::from(self.failed)),
            ("metrics", Json::Obj(metrics)),
        ])
        .encode())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// Small enough for a debug build, segmented so both shards own rows.
    const SMALL: Scale = Scale {
        rows: 8_192,
        segment_rows: Some(1_024),
    };

    /// One in-process epoch of `workload` over the small table.
    fn small_epoch(workload: Workload, seed: u64, traced: bool) -> EpochLine {
        let out = out_dir();
        std::fs::create_dir_all(&out).unwrap();
        let csv = (workload == Workload::Ingest).then(|| {
            let path = out.join(format!("test-{seed}-{traced}.csv"));
            let mut file = std::fs::File::create(&path).unwrap();
            atlas_columnar::csv::write_csv(&census(SMALL, seed), &mut file).unwrap();
            path
        });
        let line = epoch::run(&Plan {
            workload,
            seed,
            scale: SMALL,
            cycles: POOL,
            deadline: Instant::now() + Duration::from_secs(120),
            csv: csv.clone(),
            verify: true,
            trace_to: traced.then(|| out.join(format!("test-trace-{}.json", workload.name()))),
        })
        .unwrap_or_else(|error| panic!("{}: {error}", workload.name()));
        if let Some(path) = csv {
            let _ = std::fs::remove_file(path);
        }
        line
    }

    #[test]
    fn the_harness_emits_exactly_the_metrics_the_file_lists() {
        let spec = Spec::load();
        assert_eq!(
            spec.workloads
                .iter()
                .map(|(n, _)| n.as_str())
                .collect::<Vec<_>>(),
            Workload::ALL.map(Workload::name),
            "BENCHMARK.json and the harness name the same workloads"
        );
        let listed: BTreeSet<&str> = spec
            .end_to_end
            .iter()
            .chain(&spec.per_layer)
            .map(|m| m.name.as_str())
            .collect();
        for workload in Workload::ALL {
            let epochs = [
                small_epoch(workload, 5, false),
                small_epoch(workload, 5, false),
            ];
            let traced = small_epoch(workload, 5, true);
            for epoch in epochs.iter().chain([&traced]) {
                assert!(
                    epoch.correct,
                    "{}: replies match the reference",
                    workload.name()
                );
                assert_eq!(epoch.failed, 0);
            }
            // Same (workload, seed): the same requests, the same replies.
            assert_eq!(epochs[0].digests, epochs[1].digests, "{}", workload.name());

            let outcome = aggregate(&epochs, Some(&traced));
            assert!(outcome.correct);
            // Every listed metric is printed, by both kinds of run ...
            outcome.final_line(&spec, false).unwrap();
            outcome.final_line(&spec, true).unwrap();
            // ... and nothing is measured that the file does not list.
            let emitted: BTreeSet<&str> = outcome.values.keys().map(String::as_str).collect();
            let unlisted: Vec<&&str> = emitted.difference(&listed).collect();
            assert!(
                unlisted.is_empty(),
                "{}: unlisted {unlisted:?}",
                workload.name()
            );
        }
    }

    #[test]
    fn another_seed_sends_other_requests() {
        let a = small_epoch(Workload::Engine, 5, false);
        let b = small_epoch(Workload::Engine, 6, false);
        assert_ne!(a.digests.0, b.digests.0);
        assert_ne!(a.digests.1, b.digests.1);
    }

    #[test]
    fn the_script_scales_with_seconds_in_whole_passes() {
        for workload in Workload::ALL {
            let nominal = cycles(workload, 20, 20);
            assert_eq!(nominal, workload.nominal_cycles());
            assert_eq!(nominal % POOL, 0);
            assert_eq!(cycles(workload, 40, 20), 2 * nominal);
            assert_eq!(cycles(workload, 1, 20) % POOL, 0);
            assert!(cycles(workload, 1, 20) >= POOL);
        }
    }

    fn epoch(cpu: f64, full: &[f64], drill: &[f64]) -> EpochLine {
        EpochLine {
            values: BTreeMap::from([("cpu_ms_per_step".to_string(), cpu)]),
            series: BTreeMap::from([
                ("full".to_string(), full.to_vec()),
                ("drill".to_string(), drill.to_vec()),
            ]),
            attempted: 56,
            correct: true,
            ..EpochLine::default()
        }
    }

    #[test]
    fn each_request_is_the_median_of_its_measurements_across_epochs() {
        // Three epochs of the same two whole-table explores and two drills;
        // every epoch is disturbed at another request.
        let epochs = [
            epoch(40.0, &[90.0, 140.0], &[20.0, 21.0]),
            epoch(41.0, &[131.0, 92.0], &[20.5, 20.0]),
            epoch(70.0, &[91.0, 93.0], &[35.0, 22.0]),
        ];
        assert_eq!(consensus(&epochs, "full"), vec![91.0, 93.0]);
        assert_eq!(consensus(&epochs, "drill"), vec![20.5, 21.0]);
        let outcome = aggregate(&epochs, None);
        assert_eq!(outcome.values["explore_full_p50_ms"], 92.0);
        assert_eq!(outcome.values["drill_p50_ms"], 20.75);
        // The p90 is over all twelve raw samples pooled, disturbed ones
        // included: ascending ..., 92, 93, 131, 140 -> rank 9.9.
        assert!((outcome.values["serve.step_p90_ms"] - 127.2).abs() < 1e-9);
        // Per-epoch scalars are medians over epochs.
        assert_eq!(outcome.values["cpu_ms_per_step"], 41.0);
        // No epoch carried samples as measured, so none are reported.
        assert!(!outcome.values.contains_key("bench.raw_explore_full_p50_ms"));
    }

    #[test]
    fn the_residual_holds_both_sides_against_their_own_slowdown() {
        // The served epochs ran on a host 1.25 times slower than the
        // reference (100 ms as measured reads 80 ms); the traced epoch timed
        // the engine at 114 ms on a host 1.5 times slower (76 ms).
        let mut line = epoch(40.0, &[80.0, 80.0], &[16.0, 16.0]);
        line.series
            .insert("raw_full".to_string(), vec![100.0, 100.0]);
        line.values.insert("bench.host_slowdown".to_string(), 1.25);
        line.values.insert("core.cache_hit_share".to_string(), 0.0);
        let mut traced = line.clone();
        traced
            .values
            .insert("core.explore_full_ms".to_string(), 114.0);
        traced.values.insert("bench.host_slowdown".to_string(), 1.5);
        let outcome = aggregate(&[line.clone(), line], Some(&traced));
        assert_eq!(outcome.values["explore_full_p50_ms"], 80.0);
        assert_eq!(outcome.values["bench.raw_explore_full_p50_ms"], 100.0);
        assert_eq!(outcome.values["bench.host_slowdown"], 1.25);
        assert_eq!(outcome.values["serve.residual_full_ms"], 4.0);
    }

    #[test]
    fn a_lost_epoch_fails_all_of_its_steps_and_the_run_is_built_from_the_rest() {
        let outcome = aggregate(
            &[
                epoch(40.0, &[90.0, 94.0], &[20.0, 21.0]),
                epoch(42.0, &[92.0, 96.0], &[22.0, 23.0]),
                // Cut short by the deadline: its series do not line up.
                epoch(44.0, &[500.0], &[]),
                EpochLine::lost(Workload::Engine, 8),
            ],
            None,
        );
        assert_eq!(outcome.values["explore_full_p50_ms"], 93.0);
        assert_eq!((outcome.attempted, outcome.failed), (3 * 56 + 56, 56));
        assert!(!outcome.correct, "a lost epoch is not a correct one");
    }
}
