//! One epoch: a fresh process that sets up a deployment, warms up, replays
//! the fixed script, and verifies every distinct reply against an
//! in-process reference engine.
//!
//! Slow and fast modes are sticky per process on the sizing machine (one
//! 25 s run sat at ~1850 steps/s from start to end, the next two at ~1550),
//! so a run is several short epochs in fresh processes and reports medians
//! over them.

use crate::calib::{Calibrator, Yardstick};
use crate::deploy::{census, Deployment, Scale, Source, Workload, DATASET};
use crate::layers;
use crate::script::{
    append_batch, fingerprint, two_largest, walk_pool, Flavor, Replay, Seen, Slot, Walk,
    BATCH_ROWS, POOL,
};
use crate::stats;
use crate::trace::Tracer;
use atlas_core::{Atlas, MapResult};
use atlas_query::{parse_query, to_sql, ConjunctiveQuery};
use atlas_serve::wire::{self, Json};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// What one epoch is asked to do.
#[derive(Debug, Clone)]
pub struct Plan {
    pub workload: Workload,
    pub seed: u64,
    pub scale: Scale,
    /// Measured cycles (the warm-up comes on top).
    pub cycles: usize,
    /// No cycle starts after this; the steps left count as failed.
    pub deadline: Instant,
    /// `ingest-1m`: the CSV file the parent wrote.
    pub csv: Option<PathBuf>,
    /// Compare every distinct reply with a reference engine built from
    /// scratch. The first epoch of a run does; the others must reproduce its
    /// reply digests exactly (the parent checks), which proves the same at
    /// a fifth of the cost.
    pub verify: bool,
    /// Replay one pass with spans and run the layer probes; write the trace
    /// to this file.
    pub trace_to: Option<PathBuf>,
}

/// What one epoch measured: the line its process prints.
#[derive(Debug, Clone, Default)]
pub struct EpochLine {
    /// Metric values by name (end-to-end and per-layer alike).
    pub values: BTreeMap<String, f64>,
    /// The samples of the measured cycles in request order: `full`,
    /// `filter` and `drill` latencies (ms) and `cycle_rate` (requests per
    /// second of each cycle). The script is fixed, so position `i` of a
    /// series is the same request in every epoch of a run.
    pub series: BTreeMap<String, Vec<f64>>,
    pub attempted: usize,
    pub failed: usize,
    /// Replies equal the reference engine's, cache flags as the workload
    /// demands, replies repeated across passes.
    pub correct: bool,
    /// Fingerprints of the request list and of the distinct replies.
    pub digests: (String, String),
}

impl EpochLine {
    pub fn encode(&self) -> String {
        let numbers = |values: &[f64]| Json::Arr(values.iter().map(|&v| Json::Num(v)).collect());
        Json::object(vec![
            (
                "values",
                Json::Obj(
                    self.values
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Num(*v)))
                        .collect(),
                ),
            ),
            (
                "series",
                Json::Obj(
                    self.series
                        .iter()
                        .map(|(k, v)| (k.clone(), numbers(v)))
                        .collect(),
                ),
            ),
            ("attempted", Json::from(self.attempted)),
            ("failed", Json::from(self.failed)),
            ("correct", Json::from(self.correct)),
            ("requests_digest", Json::from(self.digests.0.as_str())),
            ("replies_digest", Json::from(self.digests.1.as_str())),
        ])
        .encode()
    }

    pub fn decode(line: &str) -> Option<EpochLine> {
        let json = wire::parse(line).ok()?;
        let text = |key: &str| Some(json.get(key)?.str()?.to_string());
        Some(EpochLine {
            values: json
                .get("values")?
                .entries()?
                .iter()
                .filter_map(|(k, v)| Some((k.clone(), v.num()?)))
                .collect(),
            series: json
                .get("series")?
                .entries()?
                .iter()
                .filter_map(|(k, v)| {
                    Some((k.clone(), v.items()?.iter().filter_map(Json::num).collect()))
                })
                .collect(),
            attempted: json.get("attempted")?.index()?,
            failed: json.get("failed")?.index()?,
            correct: json.get("correct")?.bool()?,
            digests: (text("requests_digest")?, text("replies_digest")?),
        })
    }

    /// An epoch that never ran (the run was over time, or the child died):
    /// all of its steps failed.
    pub fn lost(workload: Workload, cycles: usize) -> EpochLine {
        let steps = cycles * workload.flavor().requests_per_cycle();
        EpochLine {
            attempted: steps,
            failed: steps,
            ..EpochLine::default()
        }
    }
}

/// A fixed calibration loop on two threads at once, as many as every
/// deployment keeps busy; the slower thread's time. The same arithmetic on
/// every epoch of every run, so a host that is not giving the process two
/// whole cores shows up as a number (one loop alone takes the same time as
/// two on two free cores, and half the time of two that share one).
fn machine_spin_ms() -> f64 {
    fn spin() -> f64 {
        let started = Instant::now();
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..40_000_000u32 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
        }
        std::hint::black_box(x);
        started.elapsed().as_secs_f64() * 1e3
    }
    let other = std::thread::spawn(spin);
    let here = spin();
    here.max(other.join().unwrap_or(f64::NAN))
}

/// utime + stime of this process in milliseconds, from `/proc/self/stat`
/// (clock ticks; Linux fixes `USER_HZ` at 100).
fn cpu_ms() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name may contain spaces; fields are counted after it.
    let fields: Vec<&str> = stat
        .rsplit_once(')')
        .map_or("", |(_, rest)| rest)
        .split_whitespace()
        .collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(f64::NAN)
    };
    (ticks(11) + ticks(12)) * 10.0
}

/// The peak resident set of this process so far (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .unwrap_or_default()
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Whether a served reply carries exactly the reference result: working-set
/// size, and per map the score bits and each region's SQL and count.
pub fn reply_matches(reply: &Json, reference: &MapResult) -> bool {
    let same = |maps: &[Json]| {
        maps.len() == reference.maps.len()
            && maps.iter().zip(&reference.maps).all(|(served, ranked)| {
                let regions = served.get("regions").and_then(Json::items).unwrap_or(&[]);
                served.get("score").and_then(Json::num).map(f64::to_bits)
                    == Some(ranked.score.to_bits())
                    && regions.len() == ranked.map.regions.len()
                    && regions.iter().zip(&ranked.map.regions).all(|(r, region)| {
                        r.get("sql").and_then(Json::str) == Some(&to_sql(&region.query))
                            && r.get("count").and_then(Json::index) == Some(region.count())
                    })
            })
    };
    reply.get("working_set_size").and_then(Json::index) == Some(reference.working_set_size)
        && reply.get("maps").and_then(Json::items).is_some_and(same)
}

/// The reference answers of one walk: explore, explore filtered, drill into
/// the picked region and its sibling, all in-process.
fn reference_walk(
    engine: &Atlas,
    walk: &Walk,
    full: &MapResult,
) -> Option<BTreeMap<Slot, MapResult>> {
    let mut query = parse_query(&walk.filter_sql).ok()?;
    query.table = DATASET.to_string();
    let filter = engine.explore(&query).ok()?;
    let regions = &filter.maps.first()?.map.regions;
    let counts: Vec<usize> = regions.iter().map(|r| r.count()).collect();
    let (region, sibling) = two_largest(&counts)?;
    let drill = engine.explore(&regions[region].query).ok()?;
    let sibling = engine.explore(&regions[sibling].query).ok()?;
    Some(BTreeMap::from([
        (Slot::Full, full.clone()),
        (Slot::Filter, filter),
        (Slot::Drill, drill),
        (Slot::Sibling, sibling),
    ]))
}

/// Compare the distinct replies the replay kept with the reference engine.
/// `only` restricts the check to one walk's post-append slots (`ingest-1m`:
/// the last cycle is the only one answered over the final table).
fn verify(
    engine: &Atlas,
    walks: &[Walk],
    seen: &BTreeMap<(usize, Slot), Seen>,
    only: Option<usize>,
) -> bool {
    let Ok(full) = engine.explore(&ConjunctiveQuery::all(DATASET)) else {
        return false;
    };
    let mut checked = 0usize;
    let mut all_match = true;
    for (index, walk) in walks.iter().enumerate() {
        if only.is_some_and(|w| w != index) || !seen.keys().any(|(w, _)| *w == index) {
            continue;
        }
        let Some(reference) = reference_walk(engine, walk, &full) else {
            return false;
        };
        for (slot, result) in &reference {
            if only.is_some() && *slot == Slot::Full {
                continue;
            }
            let matches = seen
                .get(&(index, *slot))
                .and_then(|s| std::str::from_utf8(&s.body).ok())
                .and_then(|text| wire::parse(text).ok())
                .is_some_and(|reply| reply_matches(&reply, result));
            if !matches {
                eprintln!("benchmark: reply of walk {index} {slot:?} differs from the reference");
            }
            all_match &= matches;
            checked += 1;
        }
    }
    all_match && checked > 0
}

/// One digest over a set of strings/hashes, order included.
fn digest_of(parts: impl Iterator<Item = u64>) -> u64 {
    let bytes: Vec<u8> = parts.flat_map(u64::to_le_bytes).collect();
    fingerprint(&bytes)
}

/// The slowdown each of `cycles` cycles is held against: the mean of the
/// readings before and after the `per_reading` cycles it ran among.
pub fn cycle_slowdowns(readings: &[f64], per_reading: usize, cycles: usize) -> Vec<f64> {
    (0..cycles)
        .map(|cycle| {
            let before = cycle / per_reading.max(1);
            let after = (before + 1).min(readings.len().saturating_sub(1));
            match (readings.get(before), readings.get(after)) {
                (Some(a), Some(b)) => (a + b) / 2.0,
                _ => f64::NAN,
            }
        })
        .collect()
}

/// `raw` with every sample held against its cycle's slowdown by `hold`.
/// `marks[c][which]` is how many samples of the series had been recorded
/// when cycle `c` ended, which is what assigns a sample to its cycle.
pub fn calibrate(
    raw: &[f64],
    marks: &[[usize; 4]],
    which: usize,
    slowdown: &[f64],
    hold: impl Fn(f64, f64) -> f64,
) -> Vec<f64> {
    let mut cycle = 0;
    raw.iter()
        .enumerate()
        .map(|(index, &sample)| {
            while cycle + 1 < marks.len() && marks[cycle][which] <= index {
                cycle += 1;
            }
            hold(sample, slowdown.get(cycle).copied().unwrap_or(f64::NAN))
        })
        .collect()
}

/// Run one epoch in this process.
pub fn run(plan: &Plan) -> Result<EpochLine, String> {
    let workload = plan.workload;
    let flavor = workload.flavor();
    let spin_ms = machine_spin_ms();
    let mut tracer = plan.trace_to.as_ref().map(|_| Tracer::new());
    let mut calibrator = Calibrator::start().map_err(|e| format!("calibrator: {e}"))?;

    // Set-up: table bytes or spec -> registry and engine build -> servers up
    // -> first explore answered. It is generation, parsing and profiling,
    // so it is held against the pipeline kernel on every workload.
    let slowdown_before_setup = calibrator.slowdown(Yardstick::Pipeline);
    let setup_started = Instant::now();
    let table = match &plan.csv {
        Some(_) => None,
        None => Some(census(plan.scale, plan.seed)),
    };
    let source = match (&table, &plan.csv) {
        (Some(table), _) => Source::Table(table.clone()),
        (None, Some(path)) => Source::Csv(path),
        (None, None) => unreachable!("a plan has a table seed or a CSV file"),
    };
    let deployment = Deployment::start(workload, source)?;
    let walks = walk_pool(plan.seed);
    let no_batches = Vec::new();
    if !Replay::connect(
        deployment.front.addr(),
        flavor,
        &walks,
        &no_batches,
        plan.deadline,
    )
    .map_err(|e| format!("connect: {e}"))?
    .first_explore()
    {
        return Err("the first explore failed".to_string());
    }
    let setup_s = setup_started.elapsed().as_secs_f64();
    if let Some(tracer) = tracer.as_mut() {
        tracer.record("setup", None, setup_started, Instant::now());
    }
    let setup_slowdown = (slowdown_before_setup + calibrator.slowdown(Yardstick::Pipeline)) / 2.0;

    let warmup = workload.warmup_cycles();
    let batches: Vec<Vec<u8>> = if flavor == Flavor::Ingest {
        (0..warmup + plan.cycles)
            .map(|cycle| append_batch(plan.seed, cycle))
            .collect()
    } else {
        Vec::new()
    };

    let mut replay = Replay::connect(
        deployment.front.addr(),
        flavor,
        &walks,
        &batches,
        plan.deadline,
    )
    .map_err(|e| format!("connect: {e}"))?;
    for cycle in 0..warmup {
        replay.cycle(cycle, None);
    }
    replay.start_measuring();

    let dataset = deployment
        .front
        .registry()
        .get(DATASET)
        .ok_or("the deployment lost its dataset")?;
    let mut shadow = tracer.as_ref().map(|_| layers::Shadow::new(dataset));
    replay.tracer = tracer.take();
    // The measured phase: a calibration reading at every boundary between
    // readings' worth of cycles, and how many samples each cycle added, so
    // that every sample can be held against the readings around its cycle.
    let yardstick = workload.yardstick();
    let per_reading = workload.cycles_per_reading();
    let mut readings = Vec::with_capacity(plan.cycles / per_reading + 1);
    let mut marks = Vec::with_capacity(plan.cycles);
    let cpu_before = cpu_ms() - calibrator.cpu_ms();
    for done in 0..plan.cycles {
        if done % per_reading == 0 {
            readings.push(calibrator.slowdown(yardstick));
        }
        let ran = match shadow.as_mut() {
            Some(shadow) => replay.cycle(warmup + done, Some(&mut |t, step| shadow.step(t, step))),
            None => replay.cycle(warmup + done, None),
        };
        if !ran {
            replay.fail_remaining(plan.cycles - done);
            break;
        }
        marks.push(replay.samples.recorded());
    }
    readings.push(calibrator.slowdown(yardstick));
    let cpu_ms = cpu_ms() - calibrator.cpu_ms() - cpu_before;
    drop(calibrator);
    let peak_rss_mb = peak_rss_mb();
    let mut tracer = replay.tracer.take();

    // Counters of the measured phase, read before anything else touches the
    // deployment.
    let (engine_now, _) = dataset.snapshot();
    let profile = engine_now.profile_stats();
    let profile_hit_share = profile.hits as f64 / (profile.hits + profile.misses).max(1) as f64;
    let segments_final = engine_now.table().num_segments();
    let rejected_503 = deployment.rejected();

    // Verification, outside the timed phase.
    let samples = replay.samples.clone();
    let mut correct = samples.failed == 0 && replay.replies_repeat;
    let hit_share = samples.cache_hits as f64 / samples.explores.max(1) as f64;
    correct &= match workload {
        Workload::Hot => samples.cache_hits == samples.explores,
        _ => samples.cache_hits == 0,
    };
    let final_table = engine_now.table().clone();
    let appended = if flavor == Flavor::Ingest {
        warmup + plan.cycles
    } else {
        0
    };
    correct &= final_table.num_rows() == plan.scale.rows + appended * BATCH_ROWS;
    // The reference engine is built from scratch over the table as it is
    // now (on ingest-1m: the final table, which Atlas::append must have
    // prepared to the same engine incrementally), after the peak-memory
    // reading so that it is not part of it.
    let mut profile_build_ms = f64::NAN;
    let reference = if plan.verify || plan.trace_to.is_some() {
        let build_started = Instant::now();
        let engine = Atlas::new(final_table, workload.config()).map_err(|e| e.to_string())?;
        profile_build_ms = build_started.elapsed().as_secs_f64() * 1e3;
        // On ingest-1m only the last cycle was answered over the final table.
        let only = (flavor == Flavor::Ingest).then(|| (warmup + plan.cycles - 1) % POOL);
        correct &= verify(&engine, &walks, &replay.seen, only);
        Some(engine)
    } else {
        None
    };

    let per_cycle = flavor.requests_per_cycle() as f64;
    let cycle_rate: Vec<f64> = samples
        .cycle
        .iter()
        .map(|ms| per_cycle / ms * 1e3)
        .collect();
    let slowdown = cycle_slowdowns(&readings, per_reading, marks.len());
    let phase_slowdown = stats::median(&slowdown);
    // Position `i` of a series is the same request in every epoch of a run;
    // `raw_*` is as measured, the others are held against the yardstick.
    let mut series = BTreeMap::new();
    for (class, raw, which) in [
        ("full", &samples.full, 0),
        ("filter", &samples.filter, 1),
        ("drill", &samples.drill, 2),
    ] {
        let calibrated = calibrate(raw, &marks, which, &slowdown, |ms, s| ms / s);
        series.insert(class.to_string(), calibrated);
        series.insert(format!("raw_{class}"), raw.clone());
    }
    // A rate is the inverse of a time: a slow host lowers it.
    series.insert(
        "cycle_rate".to_string(),
        calibrate(&cycle_rate, &marks, 3, &slowdown, |rate, s| rate * s),
    );
    let completed = (samples.attempted - samples.failed).max(1) as f64;
    let mut values = BTreeMap::new();
    let mut put = |name: &str, value: f64| {
        // A sample set the workload never fills (no appends, no sessions)
        // has no median; the traced epoch's probes supply those.
        if value.is_finite() {
            values.insert(name.to_string(), value);
        }
    };
    put("setup_s", setup_s / setup_slowdown);
    put("cpu_ms_per_step", cpu_ms / completed / phase_slowdown);
    put("bench.host_slowdown", phase_slowdown);
    put("peak_rss_mb", peak_rss_mb);
    put("serve.append_p50_ms", stats::median(&samples.append));
    put(
        "serve.session_create_us",
        stats::median(&samples.create) * 1e3,
    );
    put(
        "serve.session_delete_us",
        stats::median(&samples.delete) * 1e3,
    );
    put("serve.rejected_503", rejected_503 as f64);
    put("core.cache_hit_share", hit_share);
    put("core.profile_build_ms", profile_build_ms);
    put("core.profile_hit_share", profile_hit_share);
    put("columnar.segments_final", segments_final as f64);
    put(
        "bench.loadgen_self_us",
        stats::median(&samples.self_per_request) * 1e3,
    );
    put("bench.machine_spin_ms", spin_ms);
    let digests = (
        format!(
            "{:016x}",
            digest_of(replay.requests.iter().map(|r| fingerprint(r.as_bytes())))
        ),
        format!("{:016x}", digest_of(replay.seen.values().map(|s| s.digest))),
    );
    drop(replay);

    if let (Some(tracer), Some(path), Some(reference)) =
        (tracer.as_mut(), &plan.trace_to, &reference)
    {
        if let Some(shadow) = shadow {
            shadow.finish(tracer, &mut values)?;
        }
        layers::probe(tracer, plan, &deployment, reference, &walks, &mut values)?;
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        std::fs::write(path, tracer.chrome_json())
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(EpochLine {
        values,
        series,
        attempted: samples.attempted,
        failed: samples.failed,
        correct,
        digests,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_cycle_is_held_against_the_readings_around_it() {
        // One reading per cycle: cycle i sits between readings i and i + 1.
        assert_eq!(cycle_slowdowns(&[1.0, 1.5, 2.0], 1, 2), vec![1.25, 1.75]);
        // One reading per pass of four: the whole pass shares its two.
        assert_eq!(
            cycle_slowdowns(&[1.0, 1.5, 1.25], 4, 8),
            vec![1.25, 1.25, 1.25, 1.25, 1.375, 1.375, 1.375, 1.375]
        );
        // A phase the deadline cut short before its closing reading.
        assert_eq!(cycle_slowdowns(&[1.5], 1, 1), vec![1.5]);
        assert!(cycle_slowdowns(&[], 1, 1)[0].is_nan());
    }

    #[test]
    fn every_sample_is_held_against_its_own_cycle() {
        // Two drills per cycle; the second cycle failed before its drills,
        // so the third cycle's drills come right after the first's.
        let marks = [[1, 1, 2, 1], [2, 1, 2, 1], [3, 2, 4, 2]];
        let slowdown = [2.0, 1.0, 4.0];
        let drills = [10.0, 12.0, 40.0, 44.0];
        assert_eq!(
            calibrate(&drills, &marks, 2, &slowdown, |ms, s| ms / s),
            vec![5.0, 6.0, 10.0, 11.0]
        );
        // Rates are multiplied: a host twice as slow halves them.
        assert_eq!(
            calibrate(&[50.0, 30.0], &marks, 3, &slowdown, |rate, s| rate * s),
            vec![100.0, 120.0]
        );
    }
}
