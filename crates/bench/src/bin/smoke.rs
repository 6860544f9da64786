//! The smoke programs, run from the repo root:
//!
//! * `smoke bench-smoke [path] [--gate <pct>] [--served <runs>]` — the
//!   in-process perf report (the committed `BENCH_*.json` files): explore
//!   phases of the census and the sky survey, kernel, wire-frame, seal,
//!   ingest and append timings, written as JSON. With `--gate`, the run fails
//!   (exit 1) if a gated figure regressed by more than `<pct>` percent against
//!   the most recent committed bench-smoke report, or if there is none. With
//!   `--served`, the report gains a `served` section summarising the named
//!   file of `BENCHMARK.json` harness runs (see `served_section`).
//! * `smoke trace-smoke [path]` — enable tracing, run a two-shard distributed
//!   explore, validate the reassembled span tree (every pipeline phase, at
//!   least one kernel-path event, proper nesting, nothing unclosed), and
//!   write the spans as Chrome trace-event JSON loadable in Perfetto.
//!
//! What a report is — its figures, file, predecessor and gate — is
//! [`atlas_bench::report`].

use atlas_bench::report::{self, best_of_ms, ms, timings_fields};
use atlas_bench::{census, wide_numeric};
use atlas_columnar::{
    with_kernel_path, Bitmap, Column, ColumnView, DataType, KernelPath, SummaryParts, Table,
};
use atlas_core::cut::{cut_attribute, CutConfig};
use atlas_core::{Atlas, AtlasConfig, MapResult};
use atlas_query::ConjunctiveQuery;
use atlas_serve::wire::Json;
use atlas_serve::{Coordinator, DatasetOptions, Registry, ServeConfig, Server};
use atlas_stats::quantile::quantile;
use atlas_stats::ContingencyTable;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

const USAGE: &str = "usage: smoke bench-smoke [path] [--gate <pct>] [--served <runs>]
       smoke trace-smoke [path]";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("bench-smoke") => {
            let mut path = None;
            let mut gate = None;
            let mut served = None;
            let mut rest = args[1..].iter();
            while let Some(arg) = rest.next() {
                if arg == "--gate" {
                    let pct = rest.next().expect("--gate takes a percentage");
                    gate = Some(pct.parse::<f64>().expect("--gate takes a number"));
                } else if arg == "--served" {
                    served = Some(rest.next().expect("--served takes a file").as_str());
                } else {
                    path = Some(arg.as_str());
                }
            }
            let path = path.unwrap_or("BENCH_CI.json");
            let report = bench_smoke(path, served);
            if let Err(failure) = report::publish(Path::new("."), path, &report, gate) {
                eprintln!("{failure}");
                std::process::exit(1);
            }
        }
        Some("trace-smoke") => trace_smoke(args.get(1).map_or("TRACE_SMOKE.json", String::as_str)),
        _ => {
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    }
}

/// The bench-smoke report: the prepared-engine census workload at three
/// scales (20k, 100k and 1M rows) under the fast configuration, each explored
/// both sequentially (`parallelism = 1`) and with the default parallelism;
/// one 1M-row census point under the default configuration and a 1M-row
/// sky-survey point under both, each explored whole and under one filter;
/// minor page faults per explore; per-kernel partition timings (word-parallel
/// against the `ATLAS_FORCE_SCALAR` reference) at 1M and 100k rows; and the
/// segmented-storage numbers — streaming CSV ingest throughput and
/// append-vs-rebuild preparation. `path` names the file, for the `pr` member.
fn bench_smoke(path: &str, served: Option<&str>) -> Json {
    let scales = [(20_000usize, 5usize), (100_000, 5), (1_000_000, 2)]
        .map(|(rows, repeats)| scale_point(rows, repeats));
    // `AtlasConfig::default()` is the paper's own setting (two-way median
    // cuts, composition merge): the point that times order-statistic
    // selection, composed regions and — through the filtered explore, whose
    // working set misses the profile — subset summaries.
    let (default_config, _) = filtered_point(
        census(1_000_000),
        ("config", "default"),
        "SELECT * FROM census WHERE age BETWEEN 30 AND 50",
        &[("default_", AtlasConfig::default())],
        3,
    );
    // Eight near-unique `Float` columns, the class of table no census point
    // reaches. Building profiles the table and reads no configuration: one
    // build figure.
    let sdss = Arc::new(atlas_datagen::SdssGenerator::with_rows(1_000_000, 2013).generate());
    let (mut sdss, sdss_build_ms) = filtered_point(
        sdss,
        ("dataset", "sdss"),
        "SELECT * FROM photo_obj WHERE mag_r BETWEEN 15 AND 20",
        &[
            ("sdss_fast_", AtlasConfig::fast()),
            ("sdss_default_", AtlasConfig::default()),
        ],
        3,
    );
    sdss.push(("sdss_build_ms".to_string(), ms(sdss_build_ms)));
    let mut sections = vec![
        ("experiment", Json::from("bench_smoke")),
        ("pr", report::pr_of(path).map_or(Json::Null, Json::from)),
        ("dataset", Json::from("census")),
        ("config", Json::from("fast")),
        (
            "parallelism",
            Json::from(AtlasConfig::default().parallelism),
        ),
        (
            "segment_rows",
            Json::from(atlas_columnar::default_segment_rows()),
        ),
        ("scale", Json::array(scales.into())),
        ("default_config", Json::object(default_config)),
        (
            "core",
            Json::object(vec![(
                "explore_minor_faults",
                smoke_minor_faults(1_000_000, 10),
            )]),
        ),
        ("sdss", Json::object(sdss)),
        (
            "kernels",
            Json::array(vec![smoke_kernels(1_000_000, 5), smoke_kernels(100_000, 7)]),
        ),
        ("ingest", smoke_ingest(200_000)),
        ("append", smoke_append(1_000_000)),
    ];
    if let Some(runs) = served {
        sections.push(("served", served_section(runs)));
    }
    Json::object(sections)
}

/// An engine over `table` under `config` — the best of `repeats` builds, in
/// milliseconds — and the best of `repeats` explores of each of `queries`.
fn explore_point(
    table: &Arc<Table>,
    config: &AtlasConfig,
    queries: &[&ConjunctiveQuery],
    repeats: usize,
) -> (f64, Atlas, Vec<MapResult>) {
    let (build_ms, atlas) = best_of_ms(repeats, || {
        Atlas::builder(Arc::clone(table))
            .config(config.clone())
            .build()
            .expect("valid config")
    });
    let results = queries
        .iter()
        .map(|query| {
            best_of_ms(repeats, || {
                atlas.explore(query).expect("exploration succeeds")
            })
            .1
        })
        .collect();
    (build_ms, atlas, results)
}

/// One census scale point: the whole table explored under the fast
/// configuration, with the default parallelism and sequentially.
fn scale_point(rows: usize, repeats: usize) -> Json {
    let table = census(rows);
    let all = ConjunctiveQuery::all("census");
    let (build_ms, atlas, parallel) = explore_point(&table, &AtlasConfig::fast(), &[&all], repeats);
    let sequential = AtlasConfig::fast().with_parallelism(1);
    let (_, _, sequential) = explore_point(&table, &sequential, &[&all], repeats);
    let (parallel, sequential) = (&parallel[0], &sequential[0]);

    // The parallelism knob must not change the answer: same maps, same
    // attribute groups, same region populations, bit-identical scores.
    assert_eq!(parallel.num_maps(), sequential.num_maps());
    for (p, s) in parallel.maps.iter().zip(sequential.maps.iter()) {
        assert_eq!(p.map.source_attributes, s.map.source_attributes);
        assert_eq!(p.map.region_counts(), s.map.region_counts());
        assert_eq!(p.score.to_bits(), s.score.to_bits());
    }
    assert_eq!(
        atlas.profile_stats().misses,
        0,
        "whole-table smoke explorations must be pure profile hits"
    );

    Json::object(vec![
        ("rows", Json::from(rows)),
        ("build_ms", ms(build_ms)),
        (
            "explore",
            Json::object(timings_fields("", &parallel.timings)),
        ),
        (
            "explore_seq",
            Json::object(timings_fields("", &sequential.timings)),
        ),
        ("maps", Json::from(parallel.num_maps())),
    ])
}

/// A point explored whole and under `filter_sql` by one engine per
/// `(prefix, config)`: `rows`, the `label` member, `filter`, `filter_rows`,
/// then each engine's `{prefix}full_*` and `{prefix}filter_*` phase timings.
/// Returns the fields and the fastest build.
fn filtered_point(
    table: Arc<Table>,
    label: (&str, &str),
    filter_sql: &str,
    configs: &[(&str, AtlasConfig)],
    repeats: usize,
) -> (Vec<(String, Json)>, f64) {
    let filter = atlas_query::parse_query(filter_sql).expect("filter parses");
    let all = ConjunctiveQuery::all(table.name());
    let mut build_ms = f64::INFINITY;
    let mut timings = Vec::new();
    let mut filter_rows = 0;
    for (prefix, config) in configs {
        let (config_build_ms, _, results) =
            explore_point(&table, config, &[&all, &filter], repeats);
        build_ms = build_ms.min(config_build_ms);
        filter_rows = results[1].working_set_size;
        timings.extend(timings_fields(
            &format!("{prefix}full_"),
            &results[0].timings,
        ));
        timings.extend(timings_fields(
            &format!("{prefix}filter_"),
            &results[1].timings,
        ));
    }
    let mut fields = vec![
        ("rows".to_string(), Json::from(table.num_rows())),
        (label.0.to_string(), Json::from(label.1)),
        ("filter".to_string(), Json::from(filter_sql)),
        ("filter_rows".to_string(), Json::from(filter_rows)),
    ];
    fields.extend(timings);
    (fields, build_ms)
}

/// Minor page faults this process has taken so far: `minflt`, field 10 of
/// `/proc/self/stat` (every thread's). `None` where there is no procfs.
fn minor_faults() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Field 2, the command name, may hold spaces; no field after it does.
    let after_name = stat.get(stat.rfind(')')? + 1..)?;
    after_name.split_whitespace().nth(7)?.parse().ok()
}

/// Minor page faults per warmed whole-table explore of the census at `rows`,
/// under the default and the fast configuration: the pages an explore's
/// full-length selections fault in. Reported, not gated; `null` off Linux.
fn smoke_minor_faults(rows: usize, explores: usize) -> Json {
    let table = census(rows);
    let query = ConjunctiveQuery::all("census");
    let mut fields = Vec::new();
    for (name, config) in [
        ("default", AtlasConfig::default()),
        ("fast", AtlasConfig::fast()),
    ] {
        let atlas = Atlas::builder(Arc::clone(&table))
            .config(config)
            .build()
            .expect("valid config");
        let explore = || drop(atlas.explore(&query).expect("exploration succeeds"));
        explore();
        explore();
        let before = minor_faults();
        (0..explores).for_each(|_| explore());
        let per_explore = match (before, minor_faults()) {
            (Some(before), Some(after)) => Json::Num((after - before) as f64 / explores as f64),
            _ => Json::Null,
        };
        fields.push((name, per_explore));
    }
    Json::object(fields)
}

/// Per-kernel timings for the word-parallel partition kernels against the
/// one-row-at-a-time scalar reference that `ATLAS_FORCE_SCALAR=1` selects:
/// `select_ranges` over the integer `age` column, `select_in_groups` over the
/// string `education` column (4 values on `u8` lanes), and the contingency
/// word fold over their region bitmaps. Each figure is the best of `repeats`
/// runs, and the two paths' outputs are asserted bit-identical before
/// anything is reported.
///
/// The summary scan under every cut is timed beside them: whole-column
/// `column_stats` of `age` and `height_cm` (few distinct values: counted
/// summaries) and of a near-unique float (a plain distinct set), plus one
/// `Median` `cut_attribute` of `age` over a scattered half of the rows — the
/// re-cut a filtered or composed explore repeats per region.
///
/// A sealed numeric column with few distinct values holds dictionary codes,
/// so every numeric point above measures **coded** lanes (`age`: `u8`,
/// `height_cm`: `u16`). Each gets a `_plain_` twin over the same rows in an
/// unsealed lone column — what the kernel costs on columns that stay plain —
/// plus: the two-way partition at a 23 %
/// selection (`select_ranges_23pct_*`) and the statistics walk of `education`
/// and `sex` at the same selection (`column_stats_*_23pct_ms`: few-valued
/// parts, counted by entry masks), the span compare alone at both code
/// widths (`span_mask_*`), `select_ranges` over a plain near-unique float at
/// 6 / 12 / 23 / 50 % density (the measurement behind `RANGE_DENSE_LANES`),
/// the seal pass per column (`seal_*_ms`), and what each census column weighs
/// per row plain and sealed (`bytes_per_row`). The wire frames of a
/// distributed explore ride along (`frame_*`, see [`smoke_frames`]).
fn smoke_kernels(rows: usize, repeats: usize) -> Json {
    let table = census(rows);
    let sel = table.full_selection();
    let age = table.column("age").expect("census has age");
    let education = table.column("education").expect("census has education");

    // Four equal-width age bins, widened at the top so the maximum lands in
    // the last bin, and the education categories split into two groups.
    let (lo, hi) = age.numeric_min_max(&sel).expect("age is numeric");
    let width = (hi - lo).max(1.0) / 4.0;
    let bounds: Vec<(f64, f64)> = (0..4)
        .map(|k| {
            let upper = if k == 3 {
                hi + 1.0
            } else {
                lo + (k + 1) as f64 * width
            };
            (lo + k as f64 * width, upper)
        })
        .collect();
    let mut groups: Vec<Vec<String>> = vec![Vec::new(), Vec::new()];
    for (i, (name, _)) in education
        .categories_by_frequency(&sel)
        .into_iter()
        .enumerate()
    {
        groups[i % 2].push(name);
    }

    let (ranges_ms, ranges_scalar_ms, ranges) = both_paths(repeats, "select_ranges", || {
        age.select_ranges(&sel, &bounds)
    });
    let (groups_ms, groups_scalar_ms, grouped) = both_paths(repeats, "select_in_groups", || {
        education.select_in_groups(&sel, &groups)
    });

    // A two-value column: each group is one code, so a code span.
    let sex = table.column("sex").expect("census has sex");
    let sexes: Vec<Vec<String>> = sex.dictionary().into_iter().map(|v| vec![v]).collect();
    let span_groups_ms = best_of_ms(repeats, || sex.select_in_groups(&sel, &sexes)).0;

    // The same partition over a dictionary of 200 codes, its two groups
    // interleaved: no group is a run of codes, so the kernel gathers a region
    // slot per lane (as it does for `education`; a two-value column's groups
    // are code spans).
    let wide = wide_dictionary(rows, WIDE_DICTIONARY_CODES);
    let wide_column = wide.column("c").expect("one column");
    let wide_groups: Vec<Vec<String>> = (0..2)
        .map(|g| {
            let codes = (g..WIDE_DICTIONARY_CODES).step_by(2);
            codes.map(|code| format!("v{code}")).collect()
        })
        .collect();
    let (wide_ms, wide_scalar_ms, _) =
        both_paths(repeats, "select_in_groups over 200 codes", || {
            wide_column.select_in_groups(&sel, &wide_groups)
        });

    let ra: Vec<&Bitmap> = ranges.iter().collect();
    let rb: Vec<&Bitmap> = grouped.iter().collect();
    let (contingency_ms, contingency_scalar_ms, _) =
        both_paths(repeats, "contingency fold", || {
            ContingencyTable::from_selections(&ra, &rb)
        });

    let stats_ms = |table: &Table, column: &str, sel: &Bitmap| {
        best_of_ms(repeats, || table.column_stats(column, sel).expect("column")).0
    };
    let near_unique = wide_numeric(rows, 1);
    let half = Bitmap::from_fn(rows, |row| {
        (row as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 63 == 0
    });
    let (median_cut_ms, cut) = best_of_ms(repeats, || {
        let all = ConjunctiveQuery::all("census");
        cut_attribute(&table, &half, &all, "age", &CutConfig::default()).expect("age is a column")
    });
    assert_eq!(cut.map(|map| map.num_regions()), Some(2));
    // The walk that cut starts with: what a composition saves per region it
    // derives instead.
    let stats_half_ms = stats_ms(&table, "age", &half);

    // The same rows in unsealed lone columns: plain lanes.
    let height = table.column("height_cm").expect("census has height_cm");
    let (age_plain, height_plain) = (plain_copy(&age), plain_copy(&height));
    let age_plain_view = ColumnView::of_column("age", &age_plain);
    let height_plain_view = ColumnView::of_column("height_cm", &height_plain);
    let view_stats_ms = |view: &ColumnView<'_>| best_of_ms(repeats, || view.stats(&sel)).0;
    let (ranges_plain_ms, ranges_plain) =
        best_of_ms(repeats, || age_plain_view.select_ranges(&sel, &bounds));
    assert_eq!(ranges, ranges_plain, "coded and plain lanes must agree");

    // The paper's two-way cut at the 23 % the filtered explore selects, and
    // the span compare by itself: two spans over every word of the table.
    let two_way = |view: &ColumnView<'_>, sel: &Bitmap| {
        let (lo, hi) = view.numeric_min_max(sel).expect("numeric column");
        let mid = (lo + hi) / 2.0;
        vec![(lo, mid), (mid + 1e-9, hi)]
    };
    let at_23pct = scattered(rows, 23);
    let age_halves = two_way(&age, &sel);
    let height_halves = two_way(&height, &sel);
    let (ranges_23_ms, coded_23) =
        best_of_ms(repeats, || age.select_ranges(&at_23pct, &age_halves));
    let (ranges_23_plain_ms, plain_23) = best_of_ms(repeats, || {
        age_plain_view.select_ranges(&at_23pct, &age_halves)
    });
    assert_eq!(
        coded_23, plain_23,
        "coded and plain lanes must agree at 23 %"
    );
    // The statistics walk a filtered explore repeats per column, over two
    // few-valued string columns (2 and 4 entries: counted by entry masks).
    let stats_23pct_ms = |column: &str| stats_ms(&table, column, &at_23pct);
    let span_u8_ms = best_of_ms(repeats, || age.select_ranges(&sel, &age_halves)).0;
    let span_u16_ms = best_of_ms(repeats, || height.select_ranges(&sel, &height_halves)).0;
    let span_plain_ms = best_of_ms(repeats, || {
        height_plain_view.select_ranges(&sel, &height_halves)
    })
    .0;

    // Plain lanes are what near-unique columns keep: the dense/sparse choice
    // of `ranges_word` (RANGE_DENSE_LANES) at four selection densities.
    let near_unique_view = near_unique.column("a0").expect("one column");
    let near_unique_halves = vec![(0.0, 499.999_999), (500.0, 1000.0)];
    let near_unique_points = [6u64, 12, 23, 50].map(|pct| {
        let sel = scattered(rows, pct);
        let point = best_of_ms(repeats, || {
            near_unique_view.select_ranges(&sel, &near_unique_halves)
        });
        (
            format!("select_ranges_near_unique_{pct}pct_ms"),
            ms(point.0),
        )
    });

    let speedup =
        |word: f64, scalar: f64| Json::Num((scalar / word.max(1e-9) * 10.0).round() / 10.0);
    let fields = vec![
        ("rows", Json::from(rows)),
        ("column_stats_age_ms", ms(stats_ms(&table, "age", &sel))),
        (
            "column_stats_age_plain_ms",
            ms(view_stats_ms(&age_plain_view)),
        ),
        (
            "column_stats_height_cm_ms",
            ms(stats_ms(&table, "height_cm", &sel)),
        ),
        (
            "column_stats_height_cm_plain_ms",
            ms(view_stats_ms(&height_plain_view)),
        ),
        (
            "column_stats_near_unique_ms",
            ms(stats_ms(&near_unique, "a0", &sel)),
        ),
        ("median_cut_age_half_rows", Json::from(half.count())),
        ("column_stats_age_half_ms", ms(stats_half_ms)),
        ("median_cut_age_half_ms", ms(median_cut_ms)),
        ("select_ranges_ms", ms(ranges_ms)),
        ("select_ranges_plain_ms", ms(ranges_plain_ms)),
        ("select_ranges_scalar_ms", ms(ranges_scalar_ms)),
        (
            "select_ranges_speedup",
            speedup(ranges_ms, ranges_scalar_ms),
        ),
        ("select_in_groups_ms", ms(groups_ms)),
        ("select_in_groups_scalar_ms", ms(groups_scalar_ms)),
        (
            "select_in_groups_speedup",
            speedup(groups_ms, groups_scalar_ms),
        ),
        ("select_in_groups_span_ms", ms(span_groups_ms)),
        (
            "select_in_groups_wide_codes",
            Json::from(WIDE_DICTIONARY_CODES),
        ),
        ("select_in_groups_wide_ms", ms(wide_ms)),
        ("select_in_groups_wide_scalar_ms", ms(wide_scalar_ms)),
        (
            "select_in_groups_wide_speedup",
            speedup(wide_ms, wide_scalar_ms),
        ),
        ("contingency_ms", ms(contingency_ms)),
        ("contingency_scalar_ms", ms(contingency_scalar_ms)),
        (
            "contingency_speedup",
            speedup(contingency_ms, contingency_scalar_ms),
        ),
        ("select_ranges_23pct_rows", Json::from(at_23pct.count())),
        ("select_ranges_23pct_ms", ms(ranges_23_ms)),
        ("select_ranges_23pct_plain_ms", ms(ranges_23_plain_ms)),
        (
            "column_stats_education_23pct_ms",
            ms(stats_23pct_ms("education")),
        ),
        ("column_stats_sex_23pct_ms", ms(stats_23pct_ms("sex"))),
        ("span_mask_u8_ms", ms(span_u8_ms)),
        ("span_mask_u16_ms", ms(span_u16_ms)),
        ("span_mask_plain_ms", ms(span_plain_ms)),
    ];
    let mut fields: Vec<(String, Json)> = fields
        .into_iter()
        .map(|(key, value)| (key.to_string(), value))
        .collect();
    fields.extend(near_unique_points);
    let near_unique_values = near_unique_view.numeric_values_where(&sel);
    fields.extend(smoke_frames(&table, &near_unique_values, repeats));
    fields.extend(smoke_seal(&table, &near_unique, repeats));
    fields.push(("bytes_per_row".to_string(), bytes_per_row(&table)));
    Json::object(fields)
}

/// The best of `repeats` runs of `kernel` on the word-parallel and on the
/// scalar path, in milliseconds, and its output, asserted bit-identical.
fn both_paths<T: PartialEq + std::fmt::Debug>(
    repeats: usize,
    kernel_name: &str,
    kernel: impl Fn() -> T,
) -> (f64, f64, T) {
    let on = |path| best_of_ms(repeats, || with_kernel_path(path, &kernel));
    let ((word_ms, word), (scalar_ms, scalar)) =
        (on(KernelPath::WordParallel), on(KernelPath::Scalar));
    assert_eq!(word, scalar, "{kernel_name} must be bit-identical");
    (word_ms, scalar_ms, word)
}

/// The wire frames a distributed explore moves most of, out and back: the
/// whole-table `/shard/working` reply over every segment of `table` (one
/// `working_partial_to_json` partial per segment, each summarising every
/// column over all its rows; `wire::parse` + `working_partial_from_json`),
/// and the numeric value run a `/shard/values` reply carries (`wire::parse`,
/// then `parse_hex_f64s`). The decoded frames are asserted equal to what was
/// sent.
fn smoke_frames(table: &Table, values: &[f64], repeats: usize) -> Vec<(String, Json)> {
    use atlas_serve::wire::{self, frames};
    let segment_rows: Vec<usize> = table.segments().iter().map(|s| s.num_rows()).collect();
    let fields: Vec<(String, DataType)> = table
        .schema()
        .fields()
        .iter()
        .map(|field| (field.name.clone(), field.dtype))
        .collect();
    let sent: Vec<(usize, Vec<SummaryParts>)> = table
        .segments()
        .iter()
        .map(|segment| {
            let one = Table::from_segments(
                table.name(),
                table.schema().clone(),
                vec![Arc::clone(segment)],
            )
            .expect("one segment of the table");
            let all = one.full_selection();
            let columns = one.columns();
            let parts = columns.iter().map(|view| view.summary(&all).to_parts());
            (segment.num_rows(), parts.collect())
        })
        .collect();
    let (encode_ms, frame) = best_of_ms(repeats, || {
        let partials = sent.iter().enumerate().map(|(segment, (count, columns))| {
            frames::working_partial_to_json(segment, *count, columns)
        });
        Json::object(vec![("partials", Json::array(partials.collect()))]).encode()
    });
    let (decode_ms, decoded) = best_of_ms(repeats, || {
        let json = wire::parse(&frame).expect("the frame parses");
        frames::get_items(&json, "partials")
            .expect("a working reply")
            .iter()
            .map(|partial| frames::working_partial_from_json(partial, &segment_rows, &fields))
            .collect::<Result<Vec<_>, _>>()
            .expect("the partials decode")
    });
    assert_eq!(decoded, sent, "the working reply round-trips");
    let run = Json::object(vec![("values", Json::from(frames::hex_f64s(values)))]).encode();
    let (run_ms, decoded) = best_of_ms(repeats, || {
        let json = wire::parse(&run).expect("the frame parses");
        let hex = frames::get_str(&json, "values").expect("a value run");
        frames::parse_hex_f64s(hex).expect("the run decodes")
    });
    let bits = |values: &[f64]| values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&decoded), bits(values), "the value run round-trips");
    vec![
        ("frame_working_bytes".to_string(), Json::from(frame.len())),
        ("frame_working_encode_ms".to_string(), ms(encode_ms)),
        ("frame_working_decode_ms".to_string(), ms(decode_ms)),
        ("frame_f64_run_values".to_string(), Json::from(values.len())),
        ("frame_f64_run_decode_ms".to_string(), ms(run_ms)),
    ]
}

/// A pseudo-random selection of about `pct` percent of `rows` rows.
fn scattered(rows: usize, pct: u64) -> Bitmap {
    Bitmap::from_fn(rows, |row| {
        ((row as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) % 100 < pct
    })
}

/// The rows of a table column in one unsealed column: plain lanes for a
/// numeric column, whatever its sealed parts hold.
fn plain_copy(view: &ColumnView<'_>) -> Column {
    let mut column = Column::new_empty(view.data_type());
    for (_, part) in view.parts() {
        for row in 0..part.len() {
            column.push(&part.value(row)).expect("same type");
        }
    }
    column
}

/// What sealing costs per column of `rows` values: one `Segment::new` over one
/// whole plain column of the census — `age` (`seal_encode_ms`, coded as `u8`),
/// `height_cm` (`seal_encode_u16_ms`) — and over a near-unique float
/// (`seal_bailout_ms`), which leaves the pass at its 1 025th distinct value.
fn smoke_seal(census: &Table, near_unique: &Table, repeats: usize) -> Vec<(String, Json)> {
    use atlas_columnar::{Field, Schema, Segment};
    let seal_ms = |view: ColumnView<'_>| {
        let schema =
            Schema::new(vec![Field::nullable(view.name(), view.data_type())]).expect("one field");
        let plain = plain_copy(&view);
        // The copies are made outside the timing; sealing consumes one each.
        let mut copies: Vec<Column> = (0..repeats).map(|_| plain.clone()).collect();
        let seal = || Segment::new(&schema, vec![copies.pop().expect("a copy per run")]);
        let (best, segment) = best_of_ms(repeats, seal);
        let sealed = segment.expect("the column matches its schema");
        (best, sealed.column(0).encoding().name())
    };
    let mut fields = Vec::new();
    for (key, encoding, view) in [
        ("seal_encode_ms", "u8", census.column("age")),
        ("seal_encode_u16_ms", "u16", census.column("height_cm")),
        ("seal_bailout_ms", "plain", near_unique.column("a0")),
    ] {
        let (best, sealed_as) = seal_ms(view.expect("a column of the fixture"));
        assert_eq!(sealed_as, encoding, "{key}");
        fields.push((key.to_string(), ms(best)));
    }
    fields
}

/// Per column of `table`: how many parts the seal stored under each encoding,
/// and the heap bytes per row of the plain (unsealed) column against the
/// sealed parts.
fn bytes_per_row(table: &Table) -> Json {
    let per_row = |bytes: usize| ms(bytes as f64 / table.num_rows().max(1) as f64);
    let columns = table.columns().into_iter().map(|view| {
        let mut parts: Vec<(String, usize)> = Vec::new();
        let mut sealed_bytes = 0;
        let mut plain_bytes = 0;
        for (_, part) in view.parts() {
            let name = part.encoding().name();
            match parts.iter_mut().find(|(seen, _)| seen == name) {
                Some((_, n)) => *n += 1,
                None => parts.push((name.to_string(), 1)),
            }
            sealed_bytes += part.heap_bytes();
            plain_bytes += plain_copy(&ColumnView::of_column(view.name(), part)).heap_bytes();
        }
        let fields = vec![
            (
                "parts".to_string(),
                Json::object(parts.into_iter().map(|(k, n)| (k, Json::from(n))).collect()),
            ),
            ("plain".to_string(), per_row(plain_bytes)),
            ("sealed".to_string(), per_row(sealed_bytes)),
        ];
        (view.name().to_string(), Json::object(fields))
    });
    Json::object(columns.collect())
}

const WIDE_DICTIONARY_CODES: usize = 200;

/// One string column of `rows` pseudo-random draws from `codes` values.
fn wide_dictionary(rows: usize, codes: usize) -> Table {
    use atlas_columnar::{DataType, Field, Schema, TableBuilder, Value};
    let schema = Schema::new(vec![Field::new("c", DataType::Str)]).expect("valid schema");
    let mut builder = TableBuilder::new("wide", schema);
    for row in 0..rows as u64 {
        let draw = row.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 32;
        let value = Value::Str(format!("v{}", draw % codes as u64));
        builder.push_row(&[value]).expect("row matches schema");
    }
    builder.build().expect("generated table is valid")
}

/// Segmented-storage smoke: streaming CSV ingest throughput. A census CSV is
/// rendered once in memory, then parsed through the streaming reader (rows
/// flow straight into the segment-sealing builder, so peak parser memory is
/// one segment + the inference prefix, not the file).
fn smoke_ingest(rows: usize) -> Json {
    let table = census(rows);
    let mut csv = Vec::new();
    atlas_columnar::csv::write_csv(&table, &mut csv).expect("csv renders");
    let opts = atlas_columnar::csv::CsvOptions::default();

    let (read_ms, streamed) = best_of_ms(1, || {
        atlas_columnar::csv::read_csv("census", csv.as_slice(), None, &opts).expect("csv parses")
    });
    assert_eq!(streamed.num_rows(), rows);

    let rows_per_s = rows as f64 / (read_ms / 1000.0);
    Json::object(vec![
        ("rows", Json::from(rows)),
        ("csv_bytes", Json::from(csv.len())),
        (
            "segment_rows",
            Json::from(atlas_columnar::default_segment_rows()),
        ),
        ("segments", Json::from(streamed.num_segments())),
        ("read_ms", ms(read_ms)),
        ("rows_per_s", Json::Num(rows_per_s.round())),
    ])
}

/// Segmented-storage smoke: preparing the engine for newly arrived data by
/// `Atlas::append` (profile only the new segment, merge) vs a from-scratch
/// rebuild over the extended table — the incremental-ingest acceptance
/// number. The two engines' answers are asserted identical at runtime.
fn smoke_append(rows: usize) -> Json {
    let table = census(rows);
    let query = ConjunctiveQuery::all("census");
    assert!(
        table.num_segments() >= 2,
        "append smoke needs a multi-segment table (segment_rows {} >= rows {rows}?)",
        atlas_columnar::default_segment_rows(),
    );
    let (head, tail) = table.segments().split_at(table.num_segments() - 1);
    let prefix = Arc::new(
        Table::from_segments("census", table.schema().clone(), head.to_vec())
            .expect("prefix table"),
    );
    let prepared = Atlas::builder(prefix)
        .config(AtlasConfig::fast())
        .build()
        .expect("valid config");

    let (append_ms, appended) = best_of_ms(1, || {
        prepared
            .append(Arc::clone(&tail[0]))
            .expect("append succeeds")
    });
    let (rebuild_ms, rebuilt) = best_of_ms(1, || {
        Atlas::builder(Arc::clone(&table))
            .config(AtlasConfig::fast())
            .build()
            .expect("valid config")
    });

    // Incremental preparation must not change the answer.
    let a = appended.explore(&query).expect("exploration succeeds");
    let b = rebuilt.explore(&query).expect("exploration succeeds");
    assert_eq!(a.num_maps(), b.num_maps());
    for (ra, rb) in a.maps.iter().zip(b.maps.iter()) {
        assert_eq!(ra.map.source_attributes, rb.map.source_attributes);
        assert_eq!(ra.map.region_counts(), rb.map.region_counts());
        assert_eq!(ra.score.to_bits(), rb.score.to_bits());
    }

    Json::object(vec![
        ("rows", Json::from(rows)),
        ("segments", Json::from(table.num_segments())),
        ("appended_rows", Json::from(tail[0].num_rows())),
        ("append_prepare_ms", ms(append_ms)),
        ("rebuild_prepare_ms", ms(rebuild_ms)),
        (
            "speedup",
            Json::Num((rebuild_ms / append_ms.max(1e-9) * 10.0).round() / 10.0),
        ),
    ])
}

/// The `served` section of a report: what a client of the server saw, parent
/// commit against this one. `path` names a file of JSON lines, one per run of
/// the `BENCHMARK.json` harness: `{"workload", "seed", "side": "parent" |
/// "change", "traced": bool, "record": <the run's last output line>}`. Per
/// workload, and per end-to-end metric `BENCHMARK.json` declares, the
/// untraced runs of the seeds both sides ran give each side's quartiles and
/// median and the number of pairs the change won; a traced pair, if there is
/// one, lists every per-layer metric side by side.
fn served_section(path: &str) -> Json {
    let read = |file: &str| std::fs::read_to_string(file).unwrap_or_else(|e| panic!("{file}: {e}"));
    let declared =
        atlas_serve::wire::parse(&read("BENCHMARK.json")).expect("BENCHMARK.json parses");
    let runs: Vec<Json> = read(path)
        .lines()
        .filter(|line| !line.trim().is_empty())
        .map(|line| atlas_serve::wire::parse(line).expect("one JSON run per line"))
        .collect();
    let text = |run: &Json, key: &str| run.get(key).and_then(Json::str).map(str::to_string);
    let traced = |run: &Json| run.get("traced").and_then(Json::bool) == Some(true);
    let seed = |run: &Json| {
        run.get("seed")
            .and_then(Json::num)
            .expect("a run has a seed")
    };
    let metric = |run: &Json, name: &str| {
        let metrics = run.get("record").and_then(|record| record.get("metrics"));
        metrics?.get(name)?.get("value")?.num()
    };

    let mut workloads: Vec<String> = Vec::new();
    for run in &runs {
        let workload = text(run, "workload").expect("a run names its workload");
        if !workloads.contains(&workload) {
            workloads.push(workload);
        }
    }
    let sections = workloads.iter().map(|workload| {
        let side = |name: &str, with_trace: bool| -> Vec<&Json> {
            let mut of_side: Vec<&Json> = runs
                .iter()
                .filter(|run| text(run, "workload").as_deref() == Some(workload))
                .filter(|run| text(run, "side").as_deref() == Some(name))
                .filter(|run| traced(run) == with_trace)
                .collect();
            of_side.sort_by(|a, b| seed(a).total_cmp(&seed(b)));
            of_side
        };
        let (parent, change) = (side("parent", false), side("change", false));
        let pairs: Vec<(&Json, &Json)> = parent
            .iter()
            .filter_map(|p| Some((*p, *change.iter().find(|c| seed(c) == seed(p))?)))
            .collect();
        let summary = |values: &[f64]| {
            let q = |p: f64| quantile(values, p).map_or(Json::Null, ms);
            Json::object(vec![("q1", q(0.25)), ("median", q(0.5)), ("q3", q(0.75))])
        };
        let failed = |of_side: Vec<&Json>| {
            let steps = of_side.into_iter().map(|run| {
                let record = run.get("record").expect("a run has a record");
                assert_eq!(record.get("correct").and_then(Json::bool), Some(true));
                record.get("failed").and_then(Json::num).expect("failed")
            });
            Json::Num(steps.sum())
        };
        let metrics = declared
            .get("end_to_end")
            .and_then(Json::items)
            .expect("end_to_end");
        let metrics = metrics.iter().map(|decl| {
            let name = decl.get("name").and_then(Json::str).expect("metric name");
            let lower = decl.get("better").and_then(Json::str) == Some("lower");
            let values: Vec<(f64, f64)> = pairs
                .iter()
                .filter_map(|(p, c)| Some((metric(p, name)?, metric(c, name)?)))
                .collect();
            let wins = values
                .iter()
                .filter(|&&(p, c)| if lower { c < p } else { c > p })
                .count();
            let (p, c): (Vec<f64>, Vec<f64>) = values.into_iter().unzip();
            let fields = vec![
                ("unit", decl.get("unit").cloned().unwrap_or(Json::Null)),
                ("better", decl.get("better").cloned().unwrap_or(Json::Null)),
                ("parent", summary(&p)),
                ("change", summary(&c)),
                ("change_better_pairs", Json::from(wins)),
            ];
            (name.to_string(), Json::object(fields))
        });
        let mut fields = vec![
            ("workload", Json::from(workload.as_str())),
            ("pairs", Json::from(pairs.len())),
            (
                "seeds",
                Json::array(pairs.iter().map(|(p, _)| Json::Num(seed(p))).collect()),
            ),
            (
                "failed_steps",
                Json::object(vec![
                    ("parent", failed(pairs.iter().map(|pair| pair.0).collect())),
                    ("change", failed(pairs.iter().map(|pair| pair.1).collect())),
                ]),
            ),
            ("metrics", Json::object(metrics.collect())),
        ];
        if let (Some(p), Some(c)) = (side("parent", true).first(), side("change", true).first()) {
            let layers = declared
                .get("per_layer")
                .and_then(Json::items)
                .expect("per_layer");
            let layers = layers.iter().filter_map(|decl| {
                let name = decl.get("name").and_then(Json::str)?;
                let both = vec![
                    ("parent", ms(metric(p, name)?)),
                    ("change", ms(metric(c, name)?)),
                ];
                Some((name.to_string(), Json::object(both)))
            });
            fields.push(("traced_seed", Json::Num(seed(p))));
            fields.push(("traced", Json::object(layers.collect())));
        }
        Json::object(fields)
    });
    Json::object(vec![
        (
            "source",
            Json::from(
                "BENCHMARK.json harness, --seconds 30, one process per run, sides alternating",
            ),
        ),
        ("workloads", Json::array(sections.collect())),
    ])
}

/// The trace-smoke harness: a two-shard distributed explore with tracing on,
/// the reassembled span tree validated, and the spans exported as Chrome
/// trace-event JSON (open in Perfetto or `chrome://tracing`).
fn trace_smoke(path: &str) {
    // Four default segments, so both shards hold work.
    const ROWS: usize = 200_000;
    atlas_obs::set_enabled(true);
    let config = AtlasConfig::fast().with_parallelism(2);
    let table = census(ROWS);
    let query = ConjunctiveQuery::all("census");

    let mut handles = Vec::new();
    let mut addrs = Vec::new();
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
            .expect("census registers");
        let handle = Server::start(registry, ServeConfig::default().with_threads(2))
            .expect("server binds an ephemeral port");
        addrs.push(handle.addr().to_string());
        handles.push(handle);
    }
    let coordinator = Coordinator::connect(&addrs, "census", config, Duration::from_secs(60))
        .expect("coordinator connects");

    // Everything before this root (server boot, the metadata probes) is
    // noise; clear the ring so the explore surely fits.
    atlas_obs::tracer().clear();
    let root = atlas_obs::span_root("trace-smoke");
    let trace_id = root
        .context()
        .map(|ctx| ctx.trace_id)
        .expect("tracing is enabled");
    let result = coordinator.explore(&query).expect("distributed explore");
    drop(root);
    assert!(!result.maps.is_empty(), "the explore must produce maps");
    for handle in handles {
        handle.shutdown();
    }

    let spans = atlas_obs::tracer().trace(trace_id);
    assert!(!spans.is_empty(), "the trace must hold spans");

    // Every pipeline phase must appear in the trace.
    for phase in [
        "phase.query",
        "phase.candidates",
        "phase.clustering",
        "phase.merge",
        "phase.rank",
    ] {
        assert!(
            spans.iter().any(|s| s.name == phase),
            "span {phase} missing from the reassembled trace"
        );
    }
    let kernel_events = spans.iter().filter(|s| s.name == "kernel.dispatch").count();
    assert!(
        kernel_events > 0,
        "no kernel-path event made it into the trace"
    );
    for shard in ["0", "1"] {
        assert!(
            spans
                .iter()
                .any(|s| s.name == "shard.call" && s.attr("shard") == Some(shard)),
            "no shard.call span for shard {shard}"
        );
    }

    // Structural validation: one root, every parent present and enclosing
    // its children (no unclosed spans can exist — spans record on close).
    let by_id: std::collections::HashMap<u64, &atlas_obs::SpanRecord> =
        spans.iter().map(|s| (s.span_id, s)).collect();
    let mut roots = 0usize;
    for span in &spans {
        match by_id.get(&span.parent_id) {
            None => roots += 1,
            Some(parent) => {
                assert!(
                    parent.start_us <= span.start_us && span.end_us() <= parent.end_us(),
                    "span {} [{}..{}] escapes its parent {} [{}..{}]",
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
    assert_eq!(roots, 1, "the trace must reassemble into a single tree");

    // The Chrome export must be well-formed JSON with one complete ("ph":
    // "X") event per span.
    let chrome = atlas_obs::chrome_trace_json(&spans);
    let parsed = atlas_serve::wire::parse(&chrome).expect("chrome trace JSON parses");
    let events = parsed
        .get("traceEvents")
        .and_then(Json::items)
        .expect("traceEvents array");
    assert_eq!(events.len(), spans.len(), "one trace event per span");
    for event in events {
        assert_eq!(event.get("ph").and_then(Json::str), Some("X"));
        assert!(event.get("name").and_then(Json::str).is_some());
        assert!(event.get("ts").is_some() && event.get("dur").is_some());
    }
    report::write(path, &chrome);
    println!(
        "trace-smoke: {} spans ({} kernel events) in one tree; chrome trace written to {path}",
        spans.len(),
        kernel_events
    );
}
