//! What a bench report is: its figures (milliseconds rounded to three
//! decimals, a run's phase timings, the best of a few timed runs), the file
//! it is written to, the committed report it is compared with, and the
//! regression gate over that comparison.
//!
//! A report is one JSON object whose `"experiment"` member names the program
//! that wrote it (`"bench_smoke"`). Committed reports are `BENCH_PR<N>.json`
//! files at the repo root; [`publish`] writes a run's report, compares it with
//! the newest earlier one of the same experiment, prints a delta table of the
//! figures at `GATED_PATHS` and, with a gate, fails on a regression beyond it.
//!
//! The quality report is the scores of the paper's experiments E1–E9 (an
//! [`Experiment`] per table, its timings left out); the committed one is
//! `QUALITY.json`, and [`quality_differences`] names the JSON path of every
//! score that moved.

use atlas_core::PhaseTimings;
use atlas_serve::wire::{self, Json};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// A figure in milliseconds, rounded to 3 decimals so the JSON reports stay
/// diff-friendly.
pub fn ms(x: f64) -> Json {
    Json::Num((x * 1000.0).round() / 1000.0)
}

/// A run's phase timings as report fields, every key prefixed with `prefix`.
pub fn timings_fields(prefix: &str, t: &PhaseTimings) -> Vec<(String, Json)> {
    [
        ("query_ms", t.query_ms),
        ("candidates_ms", t.candidates_ms),
        ("clustering_ms", t.clustering_ms),
        ("merge_ms", t.merge_ms),
        ("rank_ms", t.rank_ms),
        ("total_ms", t.total_ms),
    ]
    .into_iter()
    .map(|(phase, x)| (format!("{prefix}{phase}"), ms(x)))
    .collect()
}

/// The fastest wall-clock of `repeats` runs of `run`, in milliseconds, and
/// the value that run produced: the steady-state figure a report keeps, since
/// a single cold run jitters far too much to compare.
pub fn best_of_ms<T>(repeats: usize, mut run: impl FnMut() -> T) -> (f64, T) {
    let mut best: Option<(f64, T)> = None;
    for _ in 0..repeats {
        let start = Instant::now();
        let value = run();
        let elapsed = start.elapsed().as_secs_f64() * 1000.0;
        if best.as_ref().is_none_or(|(fastest, _)| elapsed < *fastest) {
            best = Some((elapsed, value));
        }
    }
    best.expect("at least one run")
}

/// The figures the delta table and the regression gate compare, as paths
/// into a bench-smoke report (`.member`, `[index]`): the 20k-row fast-config
/// explore (`scale[0]`), the 1M-row default-config point, the 1M-row sky
/// survey, and the 1M-row kernel, summary-scan and wire-frame timings
/// (`kernels[0]`). A figure one of the two reports lacks is skipped, so a
/// report gates cleanly against one written before the figure existed.
const GATED_PATHS: [&str; 32] = [
    "scale[0].explore.query_ms",
    "scale[0].explore.candidates_ms",
    "scale[0].explore.clustering_ms",
    "scale[0].explore.merge_ms",
    "scale[0].explore.rank_ms",
    "scale[0].explore.total_ms",
    "scale[0].build_ms",
    "default_config.default_full_candidates_ms",
    "default_config.default_full_merge_ms",
    "default_config.default_full_total_ms",
    "default_config.default_filter_candidates_ms",
    "default_config.default_filter_merge_ms",
    "default_config.default_filter_total_ms",
    "kernels[0].select_ranges_ms",
    "kernels[0].select_ranges_plain_ms",
    "kernels[0].seal_encode_ms",
    "kernels[0].select_in_groups_ms",
    "kernels[0].select_in_groups_wide_ms",
    "sdss.sdss_build_ms",
    "sdss.sdss_fast_full_total_ms",
    "sdss.sdss_fast_filter_total_ms",
    "sdss.sdss_default_full_total_ms",
    "sdss.sdss_default_filter_total_ms",
    "kernels[0].contingency_ms",
    "kernels[0].column_stats_age_ms",
    "kernels[0].column_stats_height_cm_ms",
    "kernels[0].column_stats_near_unique_ms",
    "kernels[0].column_stats_age_half_ms",
    "kernels[0].median_cut_age_half_ms",
    "kernels[0].frame_bitmap_encode_ms",
    "kernels[0].frame_bitmap_decode_ms",
    "kernels[0].frame_f64_run_decode_ms",
];

/// Noise floor for the regression gate: figures faster than this in the
/// previous report are too jittery for a percentage comparison to mean
/// anything on shared CI hardware.
const GATE_NOISE_FLOOR_MS: f64 = 1.0;

/// The number at `path` (`a.b[0].c`) in `report`, if every step exists.
fn figure(report: &Json, path: &str) -> Option<f64> {
    let value = path.split('.').try_fold(report, |value, step| {
        match step.strip_suffix(']').and_then(|step| step.split_once('[')) {
            Some((key, index)) => value.get(key)?.items()?.get(index.parse::<usize>().ok()?),
            None => value.get(step),
        }
    })?;
    value.num()
}

/// The gated figures that regressed by more than `limit_pct` percent, as
/// printable lines. Figures under `GATE_NOISE_FLOOR_MS` in `previous`, and
/// figures either report lacks, are skipped.
fn phase_regressions(previous: &Json, current: &Json, limit_pct: f64) -> Vec<String> {
    let mut failures = Vec::new();
    for path in GATED_PATHS {
        if let (Some(before), Some(after)) = (figure(previous, path), figure(current, path)) {
            if before < GATE_NOISE_FLOOR_MS {
                continue;
            }
            let delta = (after - before) / before * 100.0;
            if delta > limit_pct {
                failures.push(format!(
                    "{path}: {before:.3} ms -> {after:.3} ms ({delta:+.1}%)"
                ));
            }
        }
    }
    failures
}

/// Print the delta table of the gated figures against `previous`, so CI logs
/// show the perf trajectory at a glance.
fn print_deltas(previous_path: &str, previous: &Json, current: &Json) {
    println!("\nphase deltas vs {previous_path}:");
    println!("| figure | previous ms | current ms | delta |");
    println!("|--------|-------------|------------|-------|");
    for path in GATED_PATHS {
        match (figure(previous, path), figure(current, path)) {
            (Some(before), Some(after)) if before > 0.0 => {
                let delta = (after - before) / before * 100.0;
                println!("| {path} | {before:.3} | {after:.3} | {delta:+.1}% |");
            }
            (Some(before), Some(after)) => {
                println!("| {path} | {before:.3} | {after:.3} | — |");
            }
            _ => println!("| {path} | — | — | — |"),
        }
    }
}

/// The newest `BENCH_*.json` in `dir` whose `"experiment"` member is
/// `experiment`, with its file name — so a report only ever compares with an
/// earlier report of the same program. `own_name`, the file the run writes,
/// is skipped so a run never compares with its own output.
fn previous_report(dir: &Path, own_name: &str, experiment: &str) -> Option<(String, Json)> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .ok()
        .into_iter()
        .flatten()
        .filter_map(|entry| entry.ok())
        .map(|entry| entry.file_name().to_string_lossy().into_owned())
        .filter(|name| name.starts_with("BENCH_") && name.ends_with(".json") && *name != own_name)
        .collect();
    // Newest first: length-before-lexicographic so BENCH_PR10.json outranks
    // BENCH_PR9.json once PR numbers reach double digits.
    names.sort_by_key(|name| std::cmp::Reverse((name.len(), name.clone())));
    names.into_iter().find_map(|name| {
        let parsed = std::fs::read_to_string(dir.join(&name))
            .ok()
            .and_then(|text| wire::parse(&text).ok())?;
        (parsed.get("experiment").and_then(Json::str) == Some(experiment)).then_some((name, parsed))
    })
}

/// The PR number a report file is named after (`BENCH_PR15.json` → 15);
/// `None` for any other name (CI writes `BENCH_CI.json`).
pub fn pr_of(path: &str) -> Option<usize> {
    Path::new(path)
        .file_name()?
        .to_str()?
        .strip_prefix("BENCH_PR")?
        .strip_suffix(".json")?
        .parse()
        .ok()
}

/// Write `text` to `path`: the one place a report or trace file is written.
pub fn write(path: &str, text: &str) {
    std::fs::write(path, text).unwrap_or_else(|e| panic!("{path} is not writable: {e}"));
}

/// Write `report` to `path` and print it, then print its delta table against
/// the previous same-experiment report in `dir` and, with `gate`, check it:
/// an error when a gated figure regressed by more than `gate` percent, or when
/// `dir` holds no previous report to gate against.
pub fn publish(dir: &Path, path: &str, report: &Json, gate: Option<f64>) -> Result<(), String> {
    let own_name = Path::new(path)
        .file_name()
        .map_or_else(|| path.to_string(), |n| n.to_string_lossy().into_owned());
    let experiment = report.get("experiment").and_then(Json::str).unwrap_or("");
    let previous = previous_report(dir, &own_name, experiment);

    let text = report.pretty();
    write(path, &text);
    println!("wrote {path}:");
    print!("{text}");
    if let Some((previous_path, previous_report)) = &previous {
        print_deltas(previous_path, previous_report, report);
    }
    let Some(limit_pct) = gate else {
        return Ok(());
    };
    let Some((previous_path, previous_report)) = previous else {
        let searched = std::fs::canonicalize(dir).unwrap_or_else(|_| dir.to_path_buf());
        return Err(format!(
            "bench gate: no earlier {experiment} report (BENCH_*.json) in {} to gate against",
            searched.display()
        ));
    };
    let regressions = phase_regressions(&previous_report, report, limit_pct);
    if !regressions.is_empty() {
        let lines: Vec<String> = regressions.iter().map(|line| format!("  {line}")).collect();
        return Err(format!(
            "\nbench gate FAILED vs {previous_path} (limit {limit_pct:+.0}%):\n{}",
            lines.join("\n")
        ));
    }
    println!("\nbench gate passed vs {previous_path} (limit {limit_pct:+.0}%)");
    Ok(())
}

/// One cell of an experiment's table. Every cell but a timing is part of the
/// quality report.
pub enum Cell {
    /// A label, a count or a flag.
    Value(Json),
    /// A score, printed with the given number of decimals.
    Score(f64, usize),
    /// Wall-clock milliseconds, printed with the given number of decimals
    /// and left out of the quality report.
    Ms(f64, usize),
}

impl<T> From<T> for Cell
where
    Json: From<T>,
{
    fn from(value: T) -> Cell {
        Cell::Value(Json::from(value))
    }
}

impl Cell {
    fn render(&self) -> String {
        match self {
            Cell::Value(Json::Str(text)) => text.clone(),
            Cell::Value(value) => value.encode(),
            Cell::Score(x, decimals) | Cell::Ms(x, decimals) => format!("{x:.decimals$}"),
        }
    }

    /// The cell's value in the quality report; `None` for a timing.
    fn score(&self) -> Option<Json> {
        match self {
            Cell::Value(value) => Some(value.clone()),
            Cell::Score(x, _) => Some(Json::Num(*x)),
            Cell::Ms(..) => None,
        }
    }
}

/// A table row: its cells in column order, each with its column's name.
pub type Row = Vec<(&'static str, Cell)>;

/// What one experiment found: its table, built once, then printed and
/// reported from the same cells.
pub struct Experiment {
    /// The table's heading.
    pub title: &'static str,
    /// The rows; the first one's names head the table.
    pub rows: Vec<Row>,
}

impl Experiment {
    /// The table in Markdown, headed `## <ID> — <title>`.
    pub fn render(&self, id: &str) -> String {
        let line = |cells: Vec<String>| format!("| {} |\n", cells.join(" | "));
        let names: Vec<&str> = self.rows.first().map_or(Vec::new(), |row| {
            row.iter().map(|(name, _)| *name).collect()
        });
        let mut out = format!("## {} — {}\n", id.to_uppercase(), self.title);
        out += &line(names.iter().map(|name| name.to_string()).collect());
        out += &line(names.iter().map(|name| "-".repeat(name.len())).collect());
        for row in &self.rows {
            out += &line(row.iter().map(|(_, cell)| cell.render()).collect());
        }
        out
    }
}

/// The quality report of `experiments`, one member per id, in order: each
/// experiment's rows, timings left out.
pub fn quality_report(experiments: &[(&str, Experiment)]) -> Json {
    let scores = |row: &Row| {
        let scores = row
            .iter()
            .filter_map(|(name, cell)| Some((*name, cell.score()?)));
        Json::object(scores.collect())
    };
    let mut members = vec![("experiment", Json::from("quality"))];
    members.extend(experiments.iter().map(|(id, experiment)| {
        let rows = Json::array(experiment.rows.iter().map(scores).collect());
        (*id, Json::object(vec![("rows", rows)]))
    }));
    Json::object(members)
}

/// Every difference between the `committed` quality report and the
/// `current` one, as `<JSON path>: …` lines: a value that moved, or a value
/// only one side has (a row or an experiment shows as each of its values).
/// Values compare as encoded, so numbers compare bit for bit.
pub fn quality_differences(committed: &Json, current: &Json) -> Vec<String> {
    let (committed, current) = (leaves(committed), leaves(current));
    let mut out = Vec::new();
    for (path, before) in &committed {
        match current.get(path) {
            Some(now) if now == before => {}
            Some(now) => out.push(format!("{path}: committed {before}, now {now}")),
            None => out.push(format!("{path}: only in the committed report")),
        }
    }
    let added = current.keys().filter(|path| !committed.contains_key(*path));
    out.extend(added.map(|path| format!("{path}: only in the current report")));
    out
}

/// Every value of `json` that holds no other (numbers, strings, booleans,
/// nulls, empty arrays and objects), encoded, by its path (`a.b[0].c`).
fn leaves(json: &Json) -> BTreeMap<String, String> {
    fn walk(path: String, json: &Json, out: &mut BTreeMap<String, String>) {
        match json {
            Json::Obj(members) if !members.is_empty() => {
                for (key, value) in members {
                    let at = if path.is_empty() {
                        key.clone()
                    } else {
                        format!("{path}.{key}")
                    };
                    walk(at, value, out);
                }
            }
            Json::Arr(items) if !items.is_empty() => {
                for (i, item) in items.iter().enumerate() {
                    walk(format!("{path}[{i}]"), item, out);
                }
            }
            _ => {
                out.insert(path, json.encode());
            }
        }
    }
    let mut out = BTreeMap::new();
    walk(String::new(), json, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A report holding `default_config.default_full_total_ms = ms`, or
    /// nothing gated when `ms` is `None`.
    fn report(ms: Option<f64>) -> Json {
        let point = ms.map_or(Vec::new(), |ms| {
            vec![("default_full_total_ms", Json::Num(ms))]
        });
        Json::object(vec![
            ("experiment", Json::from("bench_smoke")),
            ("default_config", Json::object(point)),
        ])
    }

    #[test]
    fn a_figure_is_read_by_path() {
        let report = wire::parse(r#"{"a": [{"b": 1}, {"b": 2, "c": {"d": 3.5}}], "e": "x"}"#)
            .expect("valid JSON");
        assert_eq!(figure(&report, "a[0].b"), Some(1.0));
        assert_eq!(figure(&report, "a[1].c.d"), Some(3.5));
        assert_eq!(figure(&report, "a[2].b"), None);
        assert_eq!(figure(&report, "a.b"), None);
        assert_eq!(figure(&report, "e"), None, "not a number");
        assert_eq!(figure(&report, "a[x].b"), None);
    }

    #[test]
    fn the_gate_starts_at_the_noise_floor() {
        let doubled = |before: f64| {
            phase_regressions(&report(Some(before)), &report(Some(before * 2.0)), 20.0)
        };
        assert_eq!(
            doubled(GATE_NOISE_FLOOR_MS).len(),
            1,
            "the floor itself is gated"
        );
        assert!(doubled(0.999).is_empty(), "under the floor is skipped");
    }

    #[test]
    fn the_gate_fails_only_beyond_its_limit() {
        let gate = |after: f64| phase_regressions(&report(Some(10.0)), &report(Some(after)), 20.0);
        assert!(gate(12.0).is_empty(), "exactly +20 % passes a 20 % gate");
        let failures = gate(12.01);
        assert_eq!(failures.len(), 1);
        assert!(
            failures[0].starts_with("default_config.default_full_total_ms: 10.000 ms -> 12.010 ms")
        );
        assert!(gate(5.0).is_empty(), "getting faster never fails");
    }

    #[test]
    fn a_figure_missing_from_either_report_is_skipped() {
        assert!(phase_regressions(&report(None), &report(Some(100.0)), 20.0).is_empty());
        assert!(phase_regressions(&report(Some(10.0)), &report(None), 20.0).is_empty());
    }

    #[test]
    fn the_previous_report_is_the_newest_of_its_experiment() {
        let dir = std::env::temp_dir().join(format!("atlas-bench-previous-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("a scratch directory");
        let put = |name: &str, experiment: &str| {
            let text = format!(r#"{{"experiment": "{experiment}", "name": "{name}"}}"#);
            std::fs::write(dir.join(name), text).expect("writable");
        };
        put("BENCH_PR9.json", "bench_smoke");
        put("BENCH_PR10.json", "bench_smoke");
        put("BENCH_PR11.json", "load_smoke");
        put("BENCH_CI.json", "bench_smoke");
        std::fs::write(dir.join("BENCH_PR12.json"), "not JSON").expect("writable");
        let found = |own: &str| previous_report(&dir, own, "bench_smoke").map(|(name, _)| name);
        // BENCH_PR12 does not parse and BENCH_PR11 is another experiment;
        // BENCH_PR10 outranks BENCH_PR9 and the shorter BENCH_CI.
        assert_eq!(found("BENCH_NEW.json").as_deref(), Some("BENCH_PR10.json"));
        assert_eq!(found("BENCH_PR10.json").as_deref(), Some("BENCH_PR9.json"));
        assert_eq!(previous_report(&dir, "x", "trace_smoke"), None);
        std::fs::remove_dir_all(&dir).expect("removable");
        assert_eq!(
            previous_report(&dir, "x", "bench_smoke"),
            None,
            "no directory"
        );
    }

    #[test]
    fn a_report_file_names_its_pr() {
        assert_eq!(pr_of("BENCH_PR15.json"), Some(15));
        assert_eq!(pr_of("some/dir/BENCH_PR31.json"), Some(31));
        assert_eq!(pr_of("BENCH_CI.json"), None);
        assert_eq!(pr_of("BENCH_PR15.txt"), None);
        assert_eq!(pr_of("BENCH_PRx.json"), None);
    }

    #[test]
    fn publishing_with_a_gate_and_no_previous_report_fails_naming_the_directory() {
        let dir = std::env::temp_dir().join(format!("atlas-bench-publish-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("a scratch directory");
        let path = dir.join("BENCH_CI.json");
        let path = path.to_str().expect("a UTF-8 path");
        let error = publish(&dir, path, &report(Some(1.0)), Some(20.0))
            .expect_err("nothing to gate against");
        assert!(
            error.contains(&*dir.canonicalize().expect("exists").to_string_lossy()),
            "{error}"
        );
        assert!(
            std::fs::read_to_string(path).is_ok(),
            "the report is written first"
        );
        assert_eq!(
            publish(&dir, path, &report(Some(1.0)), None),
            Ok(()),
            "ungated, nothing to fail"
        );
        std::fs::remove_dir_all(&dir).expect("removable");
    }

    /// An experiment whose row `i` scores `scores[i]` and took `i` ms.
    fn experiment(scores: &[f64]) -> Experiment {
        let rows = scores.iter().enumerate().map(|(i, &score)| {
            vec![
                ("strategy", Cell::from(format!("s{i}"))),
                ("balance", Cell::Score(score, 3)),
                ("time_ms", Cell::Ms(i as f64, 1)),
                ("best", Cell::from(i == 0)),
            ]
        });
        Experiment {
            title: "strategies",
            rows: rows.collect(),
        }
    }

    #[test]
    fn an_experiment_prints_its_timings_and_reports_only_its_scores() {
        let e2 = experiment(&[0.5, 0.25]);
        assert_eq!(
            e2.render("e2"),
            "## E2 — strategies\n| strategy | balance | time_ms | best |\n\
             | -------- | ------- | ------- | ---- |\n\
             | s0 | 0.500 | 0.0 | true |\n| s1 | 0.250 | 1.0 | false |\n"
        );
        assert_eq!(
            quality_report(&[("e2", e2)]).encode(),
            r#"{"experiment":"quality","e2":{"rows":[{"strategy":"s0","balance":0.5,"best":true},{"strategy":"s1","balance":0.25,"best":false}]}}"#
        );
    }

    #[test]
    fn an_unchanged_quality_report_passes() {
        // Scores that need all 17 digits survive the file bit for bit.
        let report = quality_report(&[("e2", experiment(&[0.1 + 0.2, 1.0 / 3.0, -0.0]))]);
        let committed = wire::parse(&report.pretty()).expect("valid JSON");
        assert_eq!(
            quality_differences(&committed, &report),
            Vec::<String>::new()
        );
    }

    #[test]
    fn a_moved_score_fails_naming_its_path() {
        let committed = quality_report(&[("e2", experiment(&[0.5, 0.25]))]);
        let moved = quality_report(&[("e2", experiment(&[0.5, 0.25 + f64::EPSILON]))]);
        assert_eq!(
            quality_differences(&committed, &moved),
            ["e2.rows[1].balance: committed 0.25, now 0.2500000000000002"]
        );
        let zero = quality_report(&[("e2", experiment(&[0.0]))]);
        let negative_zero = quality_report(&[("e2", experiment(&[-0.0]))]);
        assert_eq!(
            quality_differences(&zero, &negative_zero),
            ["e2.rows[0].balance: committed 0, now -0"]
        );
    }

    #[test]
    fn a_row_or_experiment_only_one_side_has_fails() {
        let two = quality_report(&[("e2", experiment(&[0.5, 0.25]))]);
        let one = quality_report(&[("e2", experiment(&[0.5]))]);
        let side = |side: &str| {
            ["balance", "best", "strategy"]
                .map(|name| format!("e2.rows[1].{name}: only in the {side} report"))
        };
        assert_eq!(quality_differences(&two, &one), side("committed"));
        assert_eq!(quality_differences(&one, &two), side("current"));
        let more = quality_report(&[("e2", experiment(&[0.5])), ("e3", experiment(&[]))]);
        assert_eq!(
            quality_differences(&one, &more),
            ["e3.rows: only in the current report"]
        );
        assert_eq!(
            quality_differences(&more, &one),
            ["e3.rows: only in the committed report"]
        );
    }

    #[test]
    fn the_committed_quality_report_has_all_nine_experiments() {
        let committed = wire::parse(include_str!("../../../QUALITY.json")).expect("valid JSON");
        assert_eq!(
            committed.get("experiment").and_then(Json::str),
            Some("quality")
        );
        for id in ["e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9"] {
            let rows = committed.get(id).and_then(|e| e.get("rows"));
            assert!(
                rows.and_then(Json::items)
                    .is_some_and(|rows| !rows.is_empty()),
                "{id}"
            );
        }
    }

    /// The committed reference: every gated path resolves, and exactly these
    /// figures clear the noise floor.
    #[test]
    fn every_gated_path_resolves_in_the_committed_reference() {
        let reference = wire::parse(include_str!("../../../BENCH_PR31.json")).expect("valid JSON");
        for path in GATED_PATHS {
            assert!(figure(&reference, path).is_some(), "{path}");
        }
        let gated: Vec<&str> = GATED_PATHS
            .into_iter()
            .filter(|path| figure(&reference, path).is_some_and(|ms| ms >= GATE_NOISE_FLOOR_MS))
            .collect();
        assert_eq!(
            gated,
            [
                "default_config.default_full_merge_ms",
                "default_config.default_full_total_ms",
                "default_config.default_filter_candidates_ms",
                "default_config.default_filter_merge_ms",
                "default_config.default_filter_total_ms",
                "kernels[0].seal_encode_ms",
                "sdss.sdss_build_ms",
                "sdss.sdss_fast_full_total_ms",
                "sdss.sdss_fast_filter_total_ms",
                "sdss.sdss_default_full_total_ms",
                "sdss.sdss_default_filter_total_ms",
                "kernels[0].column_stats_near_unique_ms",
                "kernels[0].frame_f64_run_decode_ms",
            ]
        );
    }
}
