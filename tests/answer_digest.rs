//! The committed answer digest: one `u64` over what the engine answers across
//! a fixed matrix, held to a committed constant.
//!
//! * Tables: the census and the sky survey (`photo_obj`) at 10 k rows, and
//!   the census with a boolean column, `insured`, that follows `salary` —
//!   sealed into `u8` codes like every other few-valued column.
//! * Configurations: `default`, `fast`, product merge over median cuts, and
//!   every cut strategy there is: each numeric cut (equi-width, k-means;
//!   `Median` is the default's). A categorical attribute has one cut.
//! * Steps: the whole table, a filter, and a drill into region (0, 0) of the
//!   filtered answer.
//! * Threads: 1, 2 and 8. Shards: `fast` and `default` through 1–3
//!   in-process shard servers, over the census and over the census with
//!   NULLs — whose partitions miss rows of their working set, so no cut of
//!   a column with NULLs partitions it. The coordinator's answers are the
//!   released form of the in-process ones, which the digest hashes.
//! * Two gaps closed on purpose: a census with NULLs under `default`, whose
//!   compositions can start from a map that misses the NULL rows (the one
//!   kind of first map that does not partition its working set), and a table
//!   whose answer ranks two maps of equal entropy and different region
//!   counts, which only the region-count tie-break of the ranking orders.
//!
//! Per answer the digest folds the score bits, each region's SQL and count,
//! and a hash of its selection words. CI runs this suite plain and under
//! `ATLAS_SEGMENT_ROWS=1024`, `ATLAS_SEGMENT_ROWS=1000`,
//! `ATLAS_FORCE_SCALAR=1` and `ATLAS_PARALLELISM=1`, so the one constant
//! pins layout, kernel and thread
//! identity against the committed answers, not only within one run. A change
//! that moves answers on purpose updates [`DIGEST`] in the same diff, says
//! why, and commits the scores of the paper's experiments it moves too:
//! `QUALITY.json`, written by a run of all nine (`experiments` in the
//! `atlas-bench` crate) as `QUALITY_CI.json`.

use atlas::datagen::CensusConfig;
use atlas::prelude::*;
use atlas::serve::Coordinator;
use std::sync::Arc;
use std::time::Duration;

/// What the matrix below answered when it was committed.
const DIGEST: u64 = 0xc032_51a1_cbfe_d268;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a, fixed across processes, platforms and toolchains.
struct Digest(u64);

impl Digest {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn word(&mut self, word: u64) {
        self.bytes(&word.to_le_bytes());
    }

    /// One answer — or the error that replaced it.
    fn answer(&mut self, answer: &atlas::core::Result<MapResult>) {
        let result = match answer {
            Ok(result) => result,
            Err(error) => return self.bytes(error.to_string().as_bytes()),
        };
        self.word(result.working_set_size as u64);
        for ranked in &result.maps {
            self.word(ranked.score.to_bits());
            for region in &ranked.map.regions {
                self.bytes(to_sql(&region.query).as_bytes());
                self.word(region.count() as u64);
                let mut words = Digest(FNV_OFFSET);
                region.selection.words().iter().for_each(|&w| words.word(w));
                self.word(words.0);
            }
        }
    }
}

fn with_cut(numeric: NumericCutStrategy) -> AtlasConfig {
    AtlasConfig {
        cut: CutConfig {
            numeric,
            ..CutConfig::default()
        },
        ..AtlasConfig::default()
    }
}

/// Every configuration the matrix runs.
fn configs() -> Vec<AtlasConfig> {
    vec![
        AtlasConfig::default(),
        AtlasConfig::fast(),
        AtlasConfig {
            merge: MergeStrategy::Product,
            ..AtlasConfig::default()
        },
        with_cut(NumericCutStrategy::EquiWidth),
        with_cut(NumericCutStrategy::KMeans { max_iterations: 50 }),
    ]
}

/// The whole table, `filter`, and region (0, 0) of the filtered answer, as
/// `explore` answers them.
fn walk(
    digest: &mut Digest,
    table: &str,
    filter: &str,
    explore: impl Fn(&ConjunctiveQuery) -> atlas::core::Result<MapResult>,
) {
    digest.answer(&explore(&ConjunctiveQuery::all(table)));
    let filtered = explore(&parse_query(filter).unwrap());
    digest.answer(&filtered);
    let drill = filtered
        .ok()
        .and_then(|result| Some(result.maps.first()?.map.regions.first()?.query.clone()));
    if let Some(drill) = drill {
        digest.answer(&explore(&drill));
    }
}

/// The in-process part: every configuration at 1, 2 and 8 threads. Each
/// step is also answered released, which must be the hashed answer with its
/// rows dropped.
fn in_process(digest: &mut Digest, table: &Arc<Table>, filter: &str, configs: &[AtlasConfig]) {
    for config in configs {
        for threads in [1, 2, 8] {
            let engine =
                Atlas::new(Arc::clone(table), config.clone().with_parallelism(threads)).unwrap();
            walk(digest, table.name(), filter, |query| {
                let answer = engine.explore(query);
                assert_released(&answer, &engine.explore_released(query), query);
                answer
            });
        }
    }
}

/// `released` is `answer` with every row dropped: the same scores, region
/// queries and counts, no region holding rows — or the same error.
fn assert_released(
    answer: &atlas::core::Result<MapResult>,
    released: &atlas::core::Result<MapResult>,
    query: &ConjunctiveQuery,
) {
    let what = to_sql(query);
    let (answer, released) = match (answer, released) {
        (Ok(answer), Ok(released)) => (answer, released),
        (answer, released) => {
            let error =
                |r: &atlas::core::Result<MapResult>| r.as_ref().err().map(|e| e.to_string());
            assert_eq!(error(answer), error(released), "{what}");
            assert!(answer.is_err(), "{what}");
            return;
        }
    };
    assert_eq!(answer.working_set_size, released.working_set_size, "{what}");
    assert_eq!(released.working_set.len(), 0, "{what}");
    assert_eq!(answer.num_maps(), released.num_maps(), "{what}");
    for (a, r) in answer.maps.iter().zip(&released.maps) {
        assert_eq!(a.score.to_bits(), r.score.to_bits(), "{what}");
        assert_eq!(a.map.num_regions(), r.map.num_regions(), "{what}");
        for (a, r) in a.map.regions.iter().zip(&r.map.regions) {
            assert_eq!(to_sql(&a.query), to_sql(&r.query), "{what}");
            assert_eq!(a.count(), r.count(), "{what}");
            assert!(!r.holds_rows() && r.selection.is_empty(), "{what}");
        }
    }
}

/// The distributed part: `fast` and `default` over 1–3 shard servers
/// holding a census with a pinned 2 000-row segment layout, then the same
/// census with NULLs (so some partitions miss rows of their working set).
/// Each step hashes the in-process answer, and the coordinator's must be its
/// released form.
fn sharded(digest: &mut Digest) {
    for null_fraction in [0.0, 0.05] {
        sharded_census(digest, null_fraction);
    }
}

fn sharded_census(digest: &mut Digest, null_fraction: f64) {
    let table = Arc::new(
        CensusGenerator::new(CensusConfig {
            rows: 10_000,
            seed: 42,
            null_fraction,
            segment_rows: Some(2_000),
            ..CensusConfig::default()
        })
        .generate(),
    );
    for config in [AtlasConfig::fast(), AtlasConfig::default()] {
        let engine = Atlas::new(Arc::clone(&table), config.clone()).unwrap();
        for shards in 1..=3 {
            let handles: Vec<ServerHandle> = (0..shards)
                .map(|_| {
                    let mut registry = Registry::new();
                    let options = DatasetOptions {
                        config: config.clone(),
                        cache_capacity: 0,
                    };
                    registry
                        .add_table("census", Arc::clone(&table), options)
                        .unwrap();
                    Server::start(registry, ServeConfig::default().with_threads(2)).unwrap()
                })
                .collect();
            let addrs: Vec<String> = handles.iter().map(|h| h.addr().to_string()).collect();
            let coordinator =
                Coordinator::connect(&addrs, "census", config.clone(), Duration::from_secs(30))
                    .unwrap();
            walk(digest, "census", CENSUS_FILTER, |query| {
                let answer = engine.explore(query);
                assert_released(&answer, &coordinator.explore(query), query);
                answer
            });
            handles.into_iter().for_each(ServerHandle::shutdown);
        }
    }
}

/// A census with NULLs in `height_cm` and `hours_per_week`, under `default`
/// twice: in schema order, where every composition starts from a column
/// without NULLs, and with the two NULL columns listed first, so the
/// compositions they start cover fewer rows than their working set.
fn census_with_nulls(digest: &mut Digest) {
    let table = Arc::new(
        CensusGenerator::new(CensusConfig {
            rows: 10_000,
            seed: 42,
            null_fraction: 0.05,
            ..CensusConfig::default()
        })
        .generate(),
    );
    let nulls_first = [
        "hours_per_week",
        "height_cm",
        "age",
        "sex",
        "education",
        "salary",
        "eye_color",
    ];
    let configs = [
        AtlasConfig::default(),
        AtlasConfig {
            attributes: Some(nulls_first.map(String::from).to_vec()),
            ..AtlasConfig::default()
        },
    ];
    in_process(digest, &table, CENSUS_FILTER, &configs);
}

/// The census plus `insured`: true for most `>50k` rows and few `<50k` ones,
/// NULL in every 97th row.
fn census_with_a_flag(rows: usize) -> Arc<Table> {
    let census = CensusGenerator::with_rows(rows, 42).generate();
    let salary = census.column("salary").unwrap();
    let mut fields = census.schema().fields().to_vec();
    fields.push(Field::nullable("insured", DataType::Bool));
    let mut builder = TableBuilder::new("census", Schema::new(fields).unwrap());
    for row in 0..census.num_rows() {
        let rich = salary.value(row) == Value::Str(">50k".into());
        let insured = if rich { row % 7 != 0 } else { row % 5 == 0 };
        let mut values = census.row(row).unwrap();
        values.push(if row % 97 == 0 {
            Value::Null
        } else {
            Value::Bool(insured)
        });
        builder.push_row(&values).unwrap();
    }
    Arc::new(builder.build().unwrap())
}

/// Two maps of equal entropy and different region counts: `x` and `y` are
/// one attribute under two names, so their product (empty regions kept) is
/// two halves and two empty cells — one bit, four regions — beside `a`'s two
/// halves — one bit, two regions. Only the region-count tie-break of the
/// ranking orders them.
fn equal_entropy(digest: &mut Digest) {
    let schema = Schema::new(vec![
        Field::new("a", DataType::Str),
        Field::new("x", DataType::Str),
        Field::new("y", DataType::Str),
    ])
    .unwrap();
    let mut builder = TableBuilder::new("ties", schema);
    for i in 0..64 {
        let half = if i < 32 { "p" } else { "q" };
        let parity = if i % 2 == 0 { "u" } else { "w" };
        builder
            .push_row(&[
                Value::Str(half.into()),
                Value::Str(parity.into()),
                Value::Str(format!("{parity}{parity}")),
            ])
            .unwrap();
    }
    let table = Arc::new(builder.build().unwrap());
    let config = AtlasConfig {
        merge: MergeStrategy::Product,
        drop_empty_regions: false,
        ..AtlasConfig::default()
    };
    in_process(
        digest,
        &table,
        "SELECT * FROM ties WHERE a IN ('p')",
        &[config],
    );
}

const CENSUS_FILTER: &str = "SELECT * FROM census WHERE age BETWEEN 25 AND 60";
const SKY_FILTER: &str = "SELECT * FROM photo_obj WHERE mag_r BETWEEN 15 AND 20";

#[test]
fn answers_hash_to_the_committed_digest() {
    let census = |rows| Arc::new(CensusGenerator::with_rows(rows, 42).generate());
    let sky = |rows| Arc::new(SdssGenerator::with_rows(rows, 2013).generate());

    let mut digest = Digest(FNV_OFFSET);
    in_process(&mut digest, &census(10_000), CENSUS_FILTER, &configs());
    in_process(&mut digest, &sky(10_000), SKY_FILTER, &configs());
    in_process(
        &mut digest,
        &census_with_a_flag(10_000),
        CENSUS_FILTER,
        &configs(),
    );
    census_with_nulls(&mut digest);
    equal_entropy(&mut digest);
    sharded(&mut digest);
    assert_eq!(
        digest.0, DIGEST,
        "the answers moved: {:#018x} (update DIGEST, and QUALITY.json from an `experiments` run, \
         only for a change that moves answers on purpose)",
        digest.0
    );
}
