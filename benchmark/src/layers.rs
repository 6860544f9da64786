//! The per-layer run: every layer measured from outside, by timing calls
//! into its public functions under the harness's own spans.
//!
//! Two parts. [`Shadow`] runs inside each traced explore/drill step and
//! repeats, in-process and on the step's own inputs, what the server did to
//! answer it — parse, explore (or the cache lookup on a hit), record, print,
//! encode, HTTP read and write. [`probe`] then times the calls no step
//! isolates: the scan kernels on the 1M-row working sets, append and
//! catch-up, the connection tax, the coordinator without its front hop.
//! All of it is summarised as medians; none of it feeds an end-to-end
//! number.

use crate::conn::Conn;
use crate::deploy::{Deployment, Source, Workload, DATASET};
use crate::epoch::Plan;
use crate::script::{
    append_batch, pick_targets, reply_json, session_token, StepView, Walk, BATCH_ROWS, FULL_SQL,
};
use crate::stats;
use crate::trace::{SpanId, Tracer};
use atlas_columnar::csv::{read_csv_path, write_csv, CsvOptions};
use atlas_columnar::Bitmap;
use atlas_core::{
    cluster_maps_with_pool, distance_matrix_with_pool, enforce_region_cap, rank_maps, Atlas,
    AtlasConfig, CachedAtlas, CompositionMerge, DataMap, MapResult, MergePolicy, MergeStrategy,
    PaperCut, PipelineContext, ProductMerge,
};
use atlas_datagen::CensusGenerator;
use atlas_explorer::Session;
use atlas_query::{evaluate, parse_query, to_compact, to_sql, ConjunctiveQuery};
use atlas_serve::http::{self, Response};
use atlas_serve::registry::Dataset;
use atlas_serve::wire::{self, frames};
use atlas_serve::{Coordinator, ServeConfig};
use atlas_stats::ContingencyTable;
use std::collections::BTreeMap;
use std::io::BufReader;
use std::time::Instant;

const CLASSES: [&str; 3] = ["full", "filter", "drill"];

fn parse(sql: &str) -> Result<ConjunctiveQuery, String> {
    let mut query = parse_query(sql).map_err(|e| format!("{sql}: {e}"))?;
    query.table = DATASET.to_string();
    Ok(query)
}

/// `Atlas::explore`, then the same exploration stage by stage through the
/// public stage functions, each under its own span. Returns the result and
/// how long the staged replay took (ms).
fn explore_staged(
    tracer: &mut Tracer,
    parent: Option<SpanId>,
    class: &str,
    engine: &Atlas,
    query: &ConjunctiveQuery,
) -> Result<(MapResult, f64), String> {
    let result = tracer
        .time(format!("core.explore_{class}"), parent, || {
            engine.explore(query)
        })
        .map_err(|e| e.to_string())?;

    let staged_started = Instant::now();
    let staged = tracer.begin(format!("core.staged_{class}"), parent);
    let config = engine.config();
    let table = engine.table();
    let pool = engine.pool();
    let working = tracer
        .time(format!("query.evaluate_{class}"), Some(staged), || {
            evaluate(query, table)
        })
        .map_err(|e| e.to_string())?;
    let candidates = tracer
        .time(format!("core.candidates_{class}"), Some(staged), || {
            engine.candidates(query, &working)
        })
        .map_err(|e| e.to_string())?;
    let clusters = tracer
        .time(format!("core.cluster_{class}"), Some(staged), || {
            let matrix = distance_matrix_with_pool(
                &candidates.maps,
                table.num_rows(),
                config.distance,
                pool,
            );
            cluster_maps_with_pool(&matrix, &config.clustering, pool)
        })
        .map_err(|e| e.to_string())?;
    let context = PipelineContext {
        table,
        profile: engine.profile(),
        cut_config: &config.cut,
        cut_strategy: &PaperCut,
        drop_empty_regions: config.drop_empty_regions,
        pool,
    };
    let policy: &dyn MergePolicy = match config.merge {
        MergeStrategy::Product => &ProductMerge,
        MergeStrategy::Composition => &CompositionMerge,
    };
    let merged: Vec<DataMap> = tracer
        .time(format!("core.merge_{class}"), Some(staged), || {
            pool.par_map(&clusters, |cluster| {
                let members: Vec<DataMap> = cluster
                    .iter()
                    .map(|&i| candidates.maps[i].clone())
                    .collect();
                policy.merge(&context, &members, &working)
            })
            .into_iter()
            .filter_map(|merged| merged.transpose())
            .map(|map| {
                map.map(|m| enforce_region_cap(m, config.max_regions_per_map, table.num_rows()))
            })
            .collect::<Result<_, _>>()
        })
        .map_err(|e| e.to_string())?;
    let ranked = tracer.time(format!("core.rank_{class}"), Some(staged), || {
        let mut ranked = rank_maps(merged);
        ranked.truncate(config.max_maps);
        ranked
    });
    tracer.end(staged);
    let staged_ms = staged_started.elapsed().as_secs_f64() * 1e3;
    // The staged replay must be the same computation, or its split of the
    // explore time means nothing.
    if ranked.len() != result.maps.len()
        || ranked
            .iter()
            .zip(&result.maps)
            .any(|(a, b)| a.score.to_bits() != b.score.to_bits())
    {
        return Err(format!(
            "staged replay of {} diverged from Atlas::explore",
            to_sql(query)
        ));
    }
    Ok((result, staged_ms))
}

/// The in-step shadow calls of the traced epoch.
pub struct Shadow<'d> {
    dataset: &'d Dataset,
    session: Option<Session>,
    /// Explores owed to steps the server answered from its cache: run after
    /// the replay, outside any step, so that `core.explore_*` is measured on
    /// every workload without appearing in a cache-hit step.
    deferred: Vec<(&'static str, ConjunctiveQuery)>,
    /// Staged total against `MapResult::timings.total_ms`, per explore (%).
    staged_gaps: Vec<f64>,
    reply_bytes: Vec<f64>,
    error: Option<String>,
}

impl<'d> Shadow<'d> {
    pub fn new(dataset: &'d Dataset) -> Shadow<'d> {
        Shadow {
            dataset,
            session: None,
            deferred: Vec::new(),
            staged_gaps: Vec::new(),
            reply_bytes: Vec::new(),
            error: None,
        }
    }

    fn explore(
        &mut self,
        tracer: &mut Tracer,
        parent: Option<SpanId>,
        class: &str,
        engine: &Atlas,
        query: &ConjunctiveQuery,
    ) -> Option<MapResult> {
        match explore_staged(tracer, parent, class, engine, query) {
            Ok((result, staged_ms)) => {
                let total = result.timings.total_ms;
                self.staged_gaps.push((staged_ms - total) / total * 100.0);
                Some(result)
            }
            Err(error) => {
                self.error = Some(error);
                None
            }
        }
    }

    /// Inside the span of one finished step: what the server did, again.
    pub fn step(&mut self, tracer: &mut Tracer, view: &StepView<'_>) {
        let span = Some(view.span);
        let class = view.slot.class();
        let (engine, _) = self.dataset.snapshot();
        self.reply_bytes.push(view.reply.len() as f64);

        // Request side: HTTP parse, body sniffing, SQL parse.
        tracer
            .time("serve.http_read", span, || {
                http::read_request(&mut BufReader::new(view.request), 1 << 20, None).map(|r| r.body)
            })
            .ok();
        let body_at = view
            .request
            .windows(4)
            .position(|w| w == b"\r\n\r\n")
            .map_or(0, |i| i + 4);
        let body = std::str::from_utf8(&view.request[body_at..]).unwrap_or("");
        let _ = tracer.time("serve.json_parse", span, || wire::parse(body));
        let Ok(query) = tracer.time("query.parse", span, || parse(view.sql)) else {
            self.error = Some(format!("{} does not parse", view.sql));
            return;
        };

        // The answer: the engine on a miss; on a hit the server's own cache,
        // through the same `Dataset::explore` its handler calls (lock,
        // `CachedAtlas::lookup`, clone).
        let result = if view.cache_hit {
            self.deferred.push((class, query.clone()));
            let (result, hit) =
                tracer.time("core.cache_lookup", span, || self.dataset.explore(&query));
            if !hit {
                self.error = Some(format!(
                    "{} hit the server's cache but not the shadow's",
                    view.sql
                ));
            }
            result.ok()
        } else {
            self.explore(tracer, span, class, &engine, &query)
        };
        let Some(result) = result else { return };

        // Reply side: region SQL, JSON encode, HTTP write.
        tracer.time("query.print", span, || {
            for ranked in &result.maps {
                for region in &ranked.map.regions {
                    std::hint::black_box((to_sql(&region.query), to_compact(&region.query)));
                }
            }
        });
        // (The harness's own preparation gets spans too, so that what a step
        // span does not cover stays a measure of the trace, not of this file.)
        let (reply, response, mut sink) = tracer.time("loadgen.shadow_prep", span, || {
            (
                std::str::from_utf8(view.reply)
                    .ok()
                    .and_then(|t| wire::parse(t).ok()),
                Response {
                    status: 200,
                    content_type: "application/json",
                    headers: Vec::new(),
                    body: view.reply.to_vec(),
                },
                Vec::with_capacity(view.reply.len() + 256),
            )
        });
        if let Some(reply) = reply {
            tracer.time("serve.json_encode", span, || {
                std::hint::black_box(reply.encode())
            });
        }
        let _ = tracer.time("serve.http_write", span, || {
            http::write_response(&mut sink, &response, true)
        });

        // Session side: the step joins a history, and a drill reads it.
        let session = self
            .session
            .get_or_insert_with(|| Session::with_engine((*engine).clone()));
        tracer.time("explorer.record", span, || {
            session.record(query, result);
        });
        let _ = tracer.time("explorer.drill_query", span, || session.drill_query(0, 0));
        tracer.time("loadgen.shadow_drop", span, || session.reset());
    }

    /// After the replay: the deferred explores, then the medians.
    pub fn finish(
        mut self,
        tracer: &mut Tracer,
        into: &mut BTreeMap<String, f64>,
    ) -> Result<(), String> {
        let (engine, _) = self.dataset.snapshot();
        let root = tracer.begin("probe.deferred_explores", None);
        for (class, query) in std::mem::take(&mut self.deferred) {
            self.explore(tracer, Some(root), class, &engine, &query);
        }
        tracer.end(root);
        if let Some(error) = self.error {
            return Err(error);
        }
        for class in CLASSES {
            for stem in [
                "core.explore",
                "core.candidates",
                "core.cluster",
                "core.merge",
                "core.rank",
            ] {
                into.insert(
                    format!("{stem}_{class}_ms"),
                    tracer.median_ms(&format!("{stem}_{class}")),
                );
            }
        }
        for class in ["filter", "drill"] {
            into.insert(
                format!("query.evaluate_{class}_ms"),
                tracer.median_ms(&format!("query.evaluate_{class}")),
            );
        }
        for (metric, span) in [
            ("query.parse_us", "query.parse"),
            ("query.print_us", "query.print"),
            ("explorer.record_us", "explorer.record"),
            ("explorer.drill_query_us", "explorer.drill_query"),
            ("serve.http_read_us", "serve.http_read"),
            ("serve.http_write_us", "serve.http_write"),
            ("serve.json_encode_us", "serve.json_encode"),
            ("serve.json_parse_us", "serve.json_parse"),
        ] {
            into.insert(metric.to_string(), tracer.median_ms(span) * 1e3);
        }
        into.insert(
            "core.staged_gap_pct".to_string(),
            stats::median(&self.staged_gaps),
        );
        into.insert(
            "serve.reply_bytes".to_string(),
            stats::median(&self.reply_bytes),
        );
        into.insert(
            "bench.trace_unaccounted_pct".to_string(),
            tracer.unaccounted_share() * 100.0,
        );
        Ok(())
    }
}

/// Record a probe's value unless the replay already measured that metric on
/// the workload itself.
fn put(into: &mut BTreeMap<String, f64>, name: &str, value: f64) {
    into.entry(name.to_string()).or_insert(value);
}

/// Time `call` `times` times under `parent`, one span each; the median (ms).
fn repeat<T>(
    tracer: &mut Tracer,
    name: &str,
    parent: SpanId,
    times: usize,
    mut call: impl FnMut() -> T,
) -> f64 {
    let samples: Vec<f64> = (0..times)
        .map(|_| {
            let started = Instant::now();
            std::hint::black_box(call());
            let ended = Instant::now();
            tracer.record(name, Some(parent), started, ended);
            (ended - started).as_secs_f64() * 1e3
        })
        .collect();
    stats::median(&samples)
}

/// Client-observed median latency (ms) of `times` requests on `conn`.
fn request_ms(
    conn: &mut Conn,
    method: &str,
    path: &str,
    body: &[u8],
    times: usize,
) -> Result<f64, String> {
    let mut samples = Vec::with_capacity(times);
    for _ in 0..times {
        let (status, timing) = conn
            .request(method, path, body, true)
            .map_err(|e| format!("{method} {path}: {e}"))?;
        if !(200..300).contains(&status) {
            return Err(format!("{method} {path} answered {status}"));
        }
        samples.push(timing.latency_ms());
    }
    Ok(stats::median(&samples))
}

/// One session walk over the wire up to the filtered explore, with or
/// without an append before it; returns (append ms, filtered explore ms).
fn filtered_after(
    conn: &mut Conn,
    filter_sql: &str,
    batch: Option<&[u8]>,
) -> Result<(Option<f64>, f64), String> {
    request_ms(conn, "POST", "/sessions", b"", 1)?;
    let token = session_token(conn.body()).ok_or("POST /sessions answered without a token")?;
    let explore = format!("/sessions/{token}/explore");
    request_ms(conn, "POST", &explore, FULL_SQL.as_bytes(), 1)?;
    let append = match batch {
        Some(batch) => Some(request_ms(conn, "POST", "/datasets/census/rows", batch, 1)?),
        None => None,
    };
    let filtered = request_ms(conn, "POST", &explore, filter_sql.as_bytes(), 1)?;
    request_ms(conn, "DELETE", &format!("/sessions/{token}"), b"", 1)?;
    Ok((append, filtered))
}

/// The calls no step isolates. `reference` is a fresh engine over the
/// deployment's table; everything that changes the deployment comes last.
pub fn probe(
    tracer: &mut Tracer,
    plan: &Plan,
    deployment: &Deployment,
    reference: &Atlas,
    walks: &[Walk],
    into: &mut BTreeMap<String, f64>,
) -> Result<(), String> {
    let root = tracer.begin("probes", None);
    let table = reference.table().clone();
    let full = table.full_selection();
    let all = ConjunctiveQuery::all(DATASET);

    // datagen and the streaming CSV reader, one segment's worth of rows.
    let segment_rows = 65_536usize;
    let mut generated = None;
    let ms = repeat(tracer, "datagen.census", root, 3, || {
        generated = Some(CensusGenerator::with_rows(segment_rows, plan.seed).generate());
    });
    put(
        into,
        "datagen.census_mrows_per_s",
        segment_rows as f64 / 1e3 / ms,
    );
    let generated = generated.expect("generated above");
    let csv_path = crate::run::out_dir().join(format!("probe-{}.csv", std::process::id()));
    let mut csv = Vec::new();
    write_csv(&generated, &mut csv).map_err(|e| e.to_string())?;
    std::fs::create_dir_all(crate::run::out_dir()).map_err(|e| e.to_string())?;
    std::fs::write(&csv_path, &csv).map_err(|e| format!("{}: {e}", csv_path.display()))?;
    let ms = repeat(tracer, "columnar.csv_read", root, 3, || {
        read_csv_path(DATASET, &csv_path, None, &CsvOptions::default()).map(|t| t.num_rows())
    });
    let _ = std::fs::remove_file(&csv_path);
    put(
        into,
        "columnar.csv_read_mrows_per_s",
        segment_rows as f64 / 1e3 / ms,
    );

    // The scan kernels on the whole table and on a drill's selection.
    let filter0 = reference
        .explore(&parse(&walks[0].filter_sql)?)
        .map_err(|e| e.to_string())?;
    let sparse: Bitmap = filter0
        .maps
        .first()
        .and_then(|m| m.map.regions.first())
        .map(|r| r.selection.clone())
        .ok_or("the first walk's filter has no region to drill into")?;
    let age = table.column("age").map_err(|e| e.to_string())?;
    let education = table.column("education").map_err(|e| e.to_string())?;
    let height = table.column("height_cm").map_err(|e| e.to_string())?;
    let halves = [(f64::NEG_INFINITY, 40.0), (41.0, f64::INFINITY)];
    let groups = [
        vec!["HighSchool".to_string(), "MSc".to_string()],
        vec!["BSc".to_string(), "PhD".to_string()],
    ];
    let ms = repeat(tracer, "columnar.select_ranges_dense", root, 5, || {
        age.select_ranges(&full, &halves)
    });
    put(into, "columnar.select_ranges_dense_ms", ms);
    let ms = repeat(tracer, "columnar.select_in_groups_dense", root, 5, || {
        education.select_in_groups(&full, &groups)
    });
    put(into, "columnar.select_in_groups_dense_ms", ms);
    let ms = repeat(tracer, "columnar.numeric_values_where", root, 5, || {
        height.numeric_values_where(&full)
    });
    put(into, "columnar.numeric_values_where_ms", ms);
    let ms = repeat(tracer, "columnar.select_ranges_sparse", root, 9, || {
        age.select_ranges(&sparse, &halves)
    });
    put(into, "columnar.select_ranges_sparse_ms", ms);
    let ms = repeat(tracer, "columnar.select_range", root, 5, || {
        age.select_range(&full, 30.0, 33.0)
    });
    put(into, "columnar.select_range_ms", ms);

    let by_age = age.select_ranges(&full, &halves);
    let by_education = education.select_in_groups(&full, &groups);
    let (rows, cols): (Vec<&Bitmap>, Vec<&Bitmap>) =
        (by_age.iter().collect(), by_education.iter().collect());
    let ms = repeat(tracer, "stats.contingency", root, 9, || {
        ContingencyTable::from_selections(&rows, &cols)
    });
    put(into, "stats.contingency_ms", ms);
    let heights = height.numeric_values_where(&full);
    let ms = repeat(tracer, "stats.quantile", root, 3, || {
        atlas_stats::quantile::quantile(&heights, 0.5)
    });
    put(into, "stats.quantile_ms", ms);

    // Append and catch-up, engine side.
    let batch_table = CensusGenerator::with_rows(BATCH_ROWS, plan.seed ^ 0xa99e).generate();
    let segment = batch_table
        .segments()
        .first()
        .cloned()
        .ok_or("empty batch")?;
    let ms = repeat(tracer, "core.append", root, 9, || {
        reference
            .append(segment.clone())
            .map(|e| e.table().num_rows())
    });
    put(into, "core.append_ms", ms);
    let grown = reference.append(segment).map_err(|e| e.to_string())?;
    let full_result = reference.explore(&all).map_err(|e| e.to_string())?;
    let ms = repeat(tracer, "explorer.session_new", root, 50, || {
        Session::with_engine(reference.clone())
    });
    put(into, "explorer.session_new_us", ms * 1e3);
    let ms = repeat(tracer, "explorer.adopt_engine", root, 3, || {
        let mut session = Session::with_engine(reference.clone());
        session.record(all.clone(), full_result.clone());
        session.adopt_engine(grown.clone()).map(|_| ())
    });
    put(into, "explorer.adopt_engine_ms", ms);

    // What a cache hit costs, where the replay had none to shadow.
    let mut cache = CachedAtlas::from_engine(reference.clone(), 64);
    cache.insert_result(&all, full_result);
    repeat(tracer, "core.cache_lookup", root, 50, || cache.lookup(&all));
    // Over the in-step lookups too, where the replay hit the server's cache.
    put(
        into,
        "core.cache_lookup_us",
        tracer.median_ms("core.cache_lookup") * 1e3,
    );

    // The span tracer of the system itself: on against off.
    let off = repeat(tracer, "obs.off", root, 3, || {
        reference.explore(&all).map(|r| r.maps.len())
    });
    atlas_obs::set_enabled(true);
    let on = repeat(tracer, "obs.on", root, 3, || {
        reference.explore(&all).map(|r| r.maps.len())
    });
    atlas_obs::set_enabled(false);
    put(into, "obs.enabled_overhead_pct", (on - off) / off * 100.0);

    // The per-request connection tax.
    let addr = deployment.front.addr();
    let mut conn = Conn::open(addr).map_err(|e| format!("connect: {e}"))?;
    let keepalive = request_ms(&mut conn, "GET", "/healthz", b"", 200)?;
    put(into, "serve.healthz_keepalive_us", keepalive * 1e3);
    let mut closes = Vec::new();
    for _ in 0..100 {
        let started = Instant::now();
        let mut fresh = Conn::open(addr).map_err(|e| format!("connect: {e}"))?;
        let (status, _) = fresh
            .request("GET", "/healthz", b"", false)
            .map_err(|e| e.to_string())?;
        if status != 200 {
            return Err(format!("GET /healthz answered {status}"));
        }
        drop(fresh);
        let ended = Instant::now();
        tracer.record("serve.healthz_close", Some(root), started, ended);
        closes.push((ended - started).as_secs_f64() * 1e3);
    }
    put(into, "serve.healthz_close_us", stats::median(&closes) * 1e3);
    // Sessions, where the replay opened none (dist-2shard-1m). A fresh
    // connection per section: the server hangs up on a keep-alive connection
    // that idles while others queue, or for five seconds.
    let mut conn = Conn::open(addr).map_err(|e| format!("connect: {e}"))?;
    let mut creates = Vec::new();
    let mut deletes = Vec::new();
    for _ in 0..20 {
        creates.push(request_ms(&mut conn, "POST", "/sessions", b"", 1)?);
        let token = session_token(conn.body()).ok_or("POST /sessions answered without a token")?;
        deletes.push(request_ms(
            &mut conn,
            "DELETE",
            &format!("/sessions/{token}"),
            b"",
            1,
        )?);
    }
    put(
        into,
        "serve.session_create_us",
        stats::median(&creates) * 1e3,
    );
    put(
        into,
        "serve.session_delete_us",
        stats::median(&deletes) * 1e3,
    );

    distributed(tracer, root, plan, deployment, &table, walks, into)?;

    // Last, because they grow the deployment's table: the append endpoint's
    // body, and a filtered explore with and without an append before it.
    let dataset = deployment
        .front
        .registry()
        .get(DATASET)
        .ok_or("no dataset")?;
    // Generated up front, far from the batches the replay sent.
    let mut batches: Vec<Vec<u8>> = (0..8)
        .map(|k| append_batch(plan.seed, 1_000_000 + k))
        .collect();
    let mut append_error = None;
    let ms = repeat(tracer, "serve.append_csv", root, 5, || {
        let batch = batches.pop().expect("eight batches, eight appends");
        if let Err(error) = dataset.append_csv(&batch) {
            append_error = Some(error.to_string());
        }
    });
    if let Some(error) = append_error {
        return Err(format!("append_csv: {error}"));
    }
    put(into, "serve.append_csv_ms", ms);
    let filter_sql = &walks[3].filter_sql;
    let mut conn = Conn::open(addr).map_err(|e| format!("connect: {e}"))?;
    let (mut with, mut without, mut appends) = (Vec::new(), Vec::new(), Vec::new());
    while let Some(batch) = batches.pop() {
        without.push(filtered_after(&mut conn, filter_sql, None)?.1);
        let (append, filtered) = filtered_after(&mut conn, filter_sql, Some(&batch))?;
        with.push(filtered);
        appends.extend(append);
    }
    put(
        into,
        "serve.catch_up_ms",
        stats::median(&with) - stats::median(&without),
    );
    put(into, "serve.append_p50_ms", stats::median(&appends));
    tracer.end(root);
    Ok(())
}

/// The coordinator without its front hop, the hop, and the frames: on
/// `dist-2shard-1m` against the deployment itself, elsewhere against two
/// shard servers and a front started over the same table for the purpose.
fn distributed(
    tracer: &mut Tracer,
    root: SpanId,
    plan: &Plan,
    deployment: &Deployment,
    table: &std::sync::Arc<atlas_columnar::Table>,
    walks: &[Walk],
    into: &mut BTreeMap<String, f64>,
) -> Result<(), String> {
    let own;
    let dist = if plan.workload == Workload::Dist {
        deployment
    } else {
        own = Deployment::start(Workload::Dist, Source::Table(table.clone()))?;
        &own
    };
    let config: AtlasConfig = Workload::Dist.config();
    let addrs: Vec<String> = dist.shards.iter().map(|s| s.addr().to_string()).collect();
    let coordinator = Coordinator::connect_with(
        &addrs,
        DATASET,
        config.clone(),
        ServeConfig::default().coordinator_options(),
    )
    .map_err(|e| e.to_string())?;
    // The same explore in-process, same configuration, for the tax ratio.
    let (local, _) = dist.shards[0]
        .registry()
        .get(DATASET)
        .ok_or("no dataset")?
        .snapshot();

    let filter = parse(&walks[3].filter_sql)?;
    let filtered = local.explore(&filter).map_err(|e| e.to_string())?;
    let drill = filtered
        .maps
        .first()
        .and_then(|m| m.map.regions.first())
        .map(|r| r.query.clone())
        .ok_or("nothing to drill into")?;
    let all = ConjunctiveQuery::all(DATASET);
    let mut failed = None;
    let mut medians = BTreeMap::new();
    let calls_before = coordinator.metrics().fan_out();
    for (class, query) in [("full", &all), ("filter", &filter), ("drill", &drill)] {
        let ms = repeat(
            tracer,
            &format!("dist.coordinator_explore_{class}"),
            root,
            5,
            || {
                if let Err(error) = coordinator.explore(query) {
                    failed = Some(error.to_string());
                }
            },
        );
        medians.insert(class, ms);
        into.insert(format!("dist.coordinator_explore_{class}_ms"), ms);
    }
    if let Some(error) = failed {
        return Err(format!("coordinator explore: {error}"));
    }
    let calls = coordinator.metrics().fan_out() - calls_before;
    into.insert(
        "dist.round_trips_per_explore".to_string(),
        calls as f64 / 15.0 / addrs.len() as f64,
    );
    let local_ms = repeat(tracer, "dist.local_explore_full", root, 3, || {
        local.explore(&all).map(|r| r.maps.len())
    });
    into.insert("dist.tax_ratio".to_string(), medians["full"] / local_ms);

    let mut conn = Conn::open(dist.front.addr()).map_err(|e| format!("connect: {e}"))?;
    let front_ms = request_ms(
        &mut conn,
        "POST",
        "/distributed/explore",
        FULL_SQL.as_bytes(),
        5,
    )?;
    into.insert("dist.front_hop_ms".to_string(), front_ms - medians["full"]);
    if reply_json(conn.body())
        .as_ref()
        .and_then(pick_targets)
        .is_none()
    {
        return Err("the front's distributed reply has no maps".to_string());
    }

    // Retries and hedges of every coordinator involved: this one, and the
    // front's own (which answered the replay on dist-2shard-1m).
    request_ms(&mut conn, "GET", "/metrics", b"", 1)?;
    let metrics = reply_json(conn.body());
    let front_counter = |key: &str| {
        metrics
            .as_ref()
            .and_then(|m| m.get("distributed")?.get(DATASET)?.get(key)?.num())
            .unwrap_or(0.0)
    };
    into.insert(
        "dist.retries".to_string(),
        coordinator.metrics().retries() as f64 + front_counter("retries"),
    );
    into.insert(
        "dist.hedges".to_string(),
        coordinator.metrics().hedges_launched() as f64 + front_counter("hedges_launched"),
    );

    // The JSON/hex frame of the 1M-row working set, out and back.
    let working = table.full_selection();
    let ms = repeat(tracer, "dist.frame_bitmap_encode", root, 5, || {
        frames::bitmap_to_json(&working).encode()
    });
    into.insert("dist.frame_bitmap_encode_ms".to_string(), ms);
    let frame = frames::bitmap_to_json(&working).encode();
    let ms = repeat(tracer, "dist.frame_bitmap_decode", root, 5, || {
        wire::parse(&frame)
            .ok()
            .and_then(|json| frames::bitmap_from_json(&json).ok())
            .map(|b| b.count())
    });
    into.insert("dist.frame_bitmap_decode_ms".to_string(), ms);
    Ok(())
}
