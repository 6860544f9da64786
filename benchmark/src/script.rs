//! The fixed-work script: a pool of eight seeded walks and the closed-loop
//! replay of one walk per cycle over one keep-alive connection.
//!
//! Everything a request carries is a function of `(workload, seed)` and of
//! the replies before it, which are themselves deterministic, so the same
//! requests reach the server in the same order with the same server state on
//! every epoch. There are no timers and no background threads here: a
//! time-bounded loop samples a different multiset of queries on every run,
//! and that alone spread `engine-1m` by 6-10 % between identical builds.

use crate::conn::{Conn, Timing};
use crate::trace::{SpanId, Tracer};
use atlas_datagen::CensusGenerator;
use atlas_serve::wire::{self, Json};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Walks in the pool; a pass is one cycle per walk.
pub const POOL: usize = 8;
/// Rows per appended batch on `ingest-1m` (one sealed segment each).
pub const BATCH_ROWS: usize = 1024;
/// The whole-table query every walk starts with.
pub const FULL_SQL: &str = "SELECT * FROM census";

/// One explorer's path: explore everything, explore a filter, then drill
/// into the largest region of the filtered reply's top-ranked map (the map
/// an explorer reads first) and, after going back, into the second largest.
#[derive(Debug, Clone, PartialEq)]
pub struct Walk {
    pub filter_sql: String,
}

/// The seeded pool. Slot `i` selects a fixed share of the table, from about
/// 7 % in slot 0 to about 90 % in slot 7, so every pass mixes sparse and
/// dense working sets. The seed chooses *which* rows — where an age window
/// sits, which sex, which eye colours — and never how many: `age` is uniform
/// on 17..=64 and the categories are equiprobable, so a slot costs the same
/// under every seed and a run-to-run difference is the machine's, not the
/// script's.
pub fn walk_pool(seed: u64) -> Vec<Walk> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x77a1_6b00);
    // `years` consecutive ages inside the uniform 17..=64 band.
    let age_window = |rng: &mut StdRng, years: i64| {
        let lo = rng.gen_range(17..=65 - years);
        format!("age BETWEEN {lo} AND {}", lo + years - 1)
    };
    let sexes = ["Male", "Female"];
    let colors = ["Blue", "Green", "Brown"];
    (0..POOL)
        .map(|slot| {
            let predicate = match slot {
                0 => age_window(&mut rng, 4),
                1 => format!(
                    "eye_color IN ('{}') AND {}",
                    colors[rng.gen_range(0..colors.len())],
                    age_window(&mut rng, 15)
                ),
                2 => format!(
                    "sex IN ('{}') AND {}",
                    sexes[rng.gen_range(0..sexes.len())],
                    age_window(&mut rng, 18)
                ),
                3 => age_window(&mut rng, 14),
                4 => format!(
                    "eye_color IN ('{}')",
                    colors[rng.gen_range(0..colors.len())]
                ),
                5 => format!("sex IN ('{}')", sexes[rng.gen_range(0..sexes.len())]),
                6 => {
                    let skip = rng.gen_range(0..colors.len());
                    let kept: Vec<String> = colors
                        .iter()
                        .enumerate()
                        .filter(|(i, _)| *i != skip)
                        .map(|(_, c)| format!("'{c}'"))
                        .collect();
                    format!("eye_color IN ({})", kept.join(", "))
                }
                // All working ages and the first 12-15 of 26 retirement years.
                _ => format!("age <= {}", rng.gen_range(76..=79)),
            };
            Walk {
                filter_sql: format!("{FULL_SQL} WHERE {predicate}"),
            }
        })
        .collect()
}

/// The header-less CSV body `ingest-1m` appends in cycle `cycle` (warm-up
/// cycles included): `BATCH_ROWS` fresh census rows.
pub fn append_batch(seed: u64, cycle: usize) -> Vec<u8> {
    let batch_seed = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(cycle as u64 + 1);
    let table = CensusGenerator::with_rows(BATCH_ROWS, batch_seed).generate();
    let mut csv = Vec::new();
    atlas_columnar::csv::write_csv(&table, &mut csv).expect("writing to memory cannot fail");
    let header_end = csv.iter().position(|&b| b == b'\n').map_or(0, |i| i + 1);
    csv.split_off(header_end)
}

/// What a walk does besides exploring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flavor {
    /// `POST /sessions` … `DELETE`: seven requests.
    Session,
    /// The same with one `POST /datasets/census/rows` between the
    /// whole-table and the filtered explore: eight requests.
    Ingest,
    /// Four `POST /distributed/explore` requests, no session.
    Distributed,
}

/// The explore/drill positions of a walk; `(walk, slot)` names one distinct
/// reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Slot {
    Full,
    Filter,
    Drill,
    Sibling,
}

impl Slot {
    /// The latency class a slot reports under (both drills are `drill`).
    pub fn class(self) -> &'static str {
        match self {
            Slot::Full => "full",
            Slot::Filter => "filter",
            Slot::Drill | Slot::Sibling => "drill",
        }
    }
}

/// Client-observed samples of the measured cycles, in milliseconds.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    pub full: Vec<f64>,
    pub filter: Vec<f64>,
    pub drill: Vec<f64>,
    pub append: Vec<f64>,
    pub create: Vec<f64>,
    pub delete: Vec<f64>,
    /// Wall time of each cycle.
    pub cycle: Vec<f64>,
    /// Client time of each cycle outside the socket wait, per request.
    pub self_per_request: Vec<f64>,
    /// Explore/drill replies flagged `"cache_hit":true`, and all of them.
    pub cache_hits: usize,
    pub explores: usize,
    pub attempted: usize,
    pub failed: usize,
}

impl Samples {
    /// How many `full`, `filter`, `drill` and `cycle` samples there are so
    /// far: read after every cycle, it says which cycle a sample belongs to.
    pub fn recorded(&self) -> [usize; 4] {
        [
            self.full.len(),
            self.filter.len(),
            self.drill.len(),
            self.cycle.len(),
        ]
    }
}

/// What the replay saw of one distinct `(walk, slot)` reply.
#[derive(Debug, Clone)]
pub struct Seen {
    /// Hash of the reply from its `"maps"` member on (timings excluded).
    pub digest: u64,
    /// The SQL the server was asked to explore (for drills: the region's).
    pub sql: String,
    /// The latest reply body.
    pub body: Vec<u8>,
}

/// Word-at-a-time multiplicative hash: a fingerprint for "the same bytes as
/// last time", cheap enough for the 0.7 ms steps of `hot-1m`.
pub fn fingerprint(bytes: &[u8]) -> u64 {
    const K: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut h = (bytes.len() as u64).wrapping_mul(K);
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let word = u64::from_le_bytes(chunk.try_into().expect("chunks_exact yields 8 bytes"));
        h = (h ^ word).wrapping_mul(K).rotate_left(29);
    }
    for &b in chunks.remainder() {
        h = (h ^ u64::from(b)).wrapping_mul(K).rotate_left(29);
    }
    h ^ (h >> 32)
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

/// A reply body as JSON (outside any timed interval).
pub fn reply_json(body: &[u8]) -> Option<Json> {
    wire::parse(std::str::from_utf8(body).ok()?).ok()
}

/// The `"token"` member of a `POST /sessions` reply.
pub fn session_token(reply: &[u8]) -> Option<String> {
    let key = b"\"token\":\"";
    let rest = &reply[find(reply, key)? + key.len()..];
    let end = rest.iter().position(|&b| b == b'"')?;
    String::from_utf8(rest[..end].to_vec()).ok()
}

/// Drills go into the top-ranked map, the one an explorer reads first.
const TOP_MAP: usize = 0;

/// The drill targets a filtered reply offers: the largest region of the top
/// map and the second largest, by index and as SQL.
#[derive(Debug, Clone, PartialEq)]
pub struct Targets {
    pub region: usize,
    pub sibling: usize,
    pub region_sql: String,
    pub sibling_sql: String,
}

/// The positions of the largest and the second largest count (the earlier
/// position wins a tie; a single region is its own sibling). Which region a
/// walk drills into must not depend on the seed: with equi-width cuts the
/// regions of a map differ several-fold in size, and a seeded pick made
/// `drill_p50_ms` a property of the seed.
pub fn two_largest(counts: &[usize]) -> Option<(usize, usize)> {
    let largest = (0..counts.len()).max_by_key(|&i| (counts[i], std::cmp::Reverse(i)))?;
    let second = (0..counts.len())
        .filter(|&i| i != largest)
        .max_by_key(|&i| (counts[i], std::cmp::Reverse(i)))
        .unwrap_or(largest);
    Some((largest, second))
}

/// The drill targets a filtered reply offers.
pub fn pick_targets(reply: &Json) -> Option<Targets> {
    let regions = reply
        .get("maps")?
        .items()?
        .get(TOP_MAP)?
        .get("regions")?
        .items()?;
    let counts: Vec<usize> = regions
        .iter()
        .map(|r| r.get("count").and_then(Json::index))
        .collect::<Option<_>>()?;
    let (region, sibling) = two_largest(&counts)?;
    let sql = |i: usize| Some(regions.get(i)?.get("sql")?.str()?.to_string());
    Some(Targets {
        region,
        sibling,
        region_sql: sql(region)?,
        sibling_sql: sql(sibling)?,
    })
}

/// The requests of a cycle, in order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    Create,
    Explore(Slot),
    Append,
    Back,
    Delete,
}

impl Flavor {
    fn ops(self) -> &'static [Op] {
        use Op::*;
        use Slot::*;
        match self {
            Flavor::Session => &[
                Create,
                Explore(Full),
                Explore(Filter),
                Explore(Drill),
                Back,
                Explore(Sibling),
                Delete,
            ],
            Flavor::Ingest => &[
                Create,
                Explore(Full),
                Append,
                Explore(Filter),
                Explore(Drill),
                Back,
                Explore(Sibling),
                Delete,
            ],
            Flavor::Distributed => &[
                Explore(Full),
                Explore(Filter),
                Explore(Drill),
                Explore(Sibling),
            ],
        }
    }

    /// Requests one cycle sends.
    pub fn requests_per_cycle(self) -> usize {
        self.ops().len()
    }
}

/// What the traced epoch's shadow calls get to see of a finished step.
pub struct StepView<'s> {
    pub span: SpanId,
    pub slot: Slot,
    /// The SQL the server explored for this step.
    pub sql: &'s str,
    pub cache_hit: bool,
    /// The request as it went over the wire, and the reply body.
    pub request: &'s [u8],
    pub reply: &'s [u8],
}

/// Shadow calls of the traced epoch, run inside each explore/drill span.
pub type Shadow<'f> = dyn FnMut(&mut Tracer, &StepView<'_>) + 'f;

/// The closed-loop load generator: one thread, one connection.
pub struct Replay<'a> {
    addr: SocketAddr,
    conn: Conn,
    flavor: Flavor,
    walks: &'a [Walk],
    /// `ingest-1m`: one CSV body per cycle, warm-up included.
    batches: &'a [Vec<u8>],
    /// After this instant no further cycle starts (over-time steps fail).
    deadline: Instant,
    pub samples: Samples,
    /// Every request as sent, session tokens masked.
    pub requests: Vec<String>,
    /// The distinct replies, keyed by `(walk, slot)`.
    pub seen: BTreeMap<(usize, Slot), Seen>,
    /// No `(walk, slot)` reply differed from the same reply a pass earlier.
    pub replies_repeat: bool,
    /// Traced epoch only: explore/drill steps become spans.
    pub tracer: Option<Tracer>,
}

impl<'a> Replay<'a> {
    pub fn connect(
        addr: SocketAddr,
        flavor: Flavor,
        walks: &'a [Walk],
        batches: &'a [Vec<u8>],
        deadline: Instant,
    ) -> std::io::Result<Replay<'a>> {
        Ok(Replay {
            addr,
            conn: Conn::open(addr)?,
            flavor,
            walks,
            batches,
            deadline,
            samples: Samples::default(),
            requests: Vec::new(),
            seen: BTreeMap::new(),
            replies_repeat: true,
            tracer: None,
        })
    }

    /// Drop what the warm-up recorded; the distinct replies stay, so the
    /// first measured pass is already checked against the warm-up's.
    pub fn start_measuring(&mut self) {
        self.samples = Samples::default();
        self.requests.clear();
    }

    /// One request. A transport error or a non-2xx status fails the step; on
    /// a transport error the connection is reopened for the next one.
    fn send(&mut self, method: &str, path: &str, log_path: &str, body: &[u8]) -> Option<Timing> {
        self.samples.attempted += 1;
        self.requests
            .push(format!("{method} {log_path} {:016x}", fingerprint(body)));
        match self.conn.request(method, path, body, true) {
            Ok((status, timing)) if (200..300).contains(&status) => return Some(timing),
            Ok((status, _)) => eprintln!(
                "benchmark: {method} {log_path} answered {status}: {}",
                String::from_utf8_lossy(self.conn.body())
            ),
            Err(error) => {
                eprintln!("benchmark: {method} {log_path} failed: {error}");
                if let Ok(conn) = Conn::open(self.addr) {
                    self.conn = conn;
                }
            }
        }
        self.samples.failed += 1;
        None
    }

    /// The explore that ends set-up: one whole-table explore through a
    /// session (or the coordinator), nothing recorded.
    pub fn first_explore(mut self) -> bool {
        if self.flavor == Flavor::Distributed {
            let path = "/distributed/explore";
            return self.send("POST", path, path, FULL_SQL.as_bytes()).is_some();
        }
        if self.send("POST", "/sessions", "/sessions", b"").is_none() {
            return false;
        }
        let Some(token) = session_token(self.conn.body()) else {
            return false;
        };
        let explored = self
            .send(
                "POST",
                &format!("/sessions/{token}/explore"),
                "",
                FULL_SQL.as_bytes(),
            )
            .is_some();
        explored
            && self
                .send("DELETE", &format!("/sessions/{token}"), "", b"")
                .is_some()
    }

    /// Check and remember the map reply now in the connection buffer;
    /// returns whether the server flagged it a cache hit.
    fn observe(&mut self, walk: usize, slot: Slot, sql: &str) -> bool {
        let body = self.conn.body();
        // Flags and timings sit before "maps"; what must repeat starts there.
        let Some((head, maps)) = find(body, b"\"maps\":").map(|at| body.split_at(at)) else {
            self.replies_repeat = false;
            return false;
        };
        let cache_hit = find(head, b"\"cache_hit\":true").is_some();
        self.samples.explores += 1;
        self.samples.cache_hits += usize::from(cache_hit);
        let digest = fingerprint(maps);
        match self.seen.get_mut(&(walk, slot)) {
            // On ingest-1m the table grows between passes, so only the
            // latest reply is kept (and verified against the final table).
            Some(seen) if self.flavor == Flavor::Ingest => {
                seen.digest = digest;
                seen.sql = sql.to_string();
                seen.body.clear();
                seen.body.extend_from_slice(body);
            }
            Some(seen) => self.replies_repeat &= seen.digest == digest,
            None => {
                self.seen.insert(
                    (walk, slot),
                    Seen {
                        digest,
                        sql: sql.to_string(),
                        body: body.to_vec(),
                    },
                );
            }
        }
        cache_hit
    }

    /// Run cycle number `cycle` (walk `cycle % POOL`). Returns false once the
    /// deadline has passed, without sending anything.
    pub fn cycle(&mut self, cycle: usize, mut shadow: Option<&mut Shadow<'_>>) -> bool {
        if Instant::now() >= self.deadline {
            return false;
        }
        let walk = cycle % POOL;
        let filter_sql = self.walks[walk].filter_sql.clone();
        let planned = self.flavor.requests_per_cycle();
        let (attempted_before, failed_before) = (self.samples.attempted, self.samples.failed);
        let started = Instant::now();
        let mut waited = Duration::ZERO;
        let mut token: Option<String> = None;
        let mut targets: Option<Targets> = None;
        let mut aborted = false;

        for &op in self.flavor.ops() {
            // After a failure only the session clean-up still runs: history
            // retains every MapResult with its bitmaps.
            if aborted && op != Op::Delete {
                continue;
            }
            if op == Op::Delete && token.is_none() {
                continue;
            }
            let session = token.as_deref().unwrap_or("");
            let sql = match op {
                Op::Explore(Slot::Full) => FULL_SQL,
                Op::Explore(Slot::Filter) => filter_sql.as_str(),
                Op::Explore(Slot::Drill) => targets.as_ref().map_or("", |t| &t.region_sql),
                Op::Explore(Slot::Sibling) => targets.as_ref().map_or("", |t| &t.sibling_sql),
                _ => "",
            };
            let (method, path, log_path, body): (&str, String, &str, Cow<'_, [u8]>) = match op {
                Op::Create => (
                    "POST",
                    "/sessions".to_string(),
                    "/sessions",
                    br#"{"dataset":"census"}"#.as_slice().into(),
                ),
                Op::Append => (
                    "POST",
                    "/datasets/census/rows".to_string(),
                    "/datasets/census/rows",
                    self.batches[cycle].as_slice().into(),
                ),
                Op::Back => (
                    "POST",
                    format!("/sessions/{session}/back"),
                    "/sessions/{token}/back",
                    Cow::default(),
                ),
                Op::Delete => (
                    "DELETE",
                    format!("/sessions/{session}"),
                    "/sessions/{token}",
                    Cow::default(),
                ),
                Op::Explore(_) if self.flavor == Flavor::Distributed => (
                    "POST",
                    "/distributed/explore".to_string(),
                    "/distributed/explore",
                    sql.as_bytes().into(),
                ),
                Op::Explore(Slot::Full | Slot::Filter) => (
                    "POST",
                    format!("/sessions/{session}/explore"),
                    "/sessions/{token}/explore",
                    sql.as_bytes().into(),
                ),
                Op::Explore(slot) => {
                    let region = targets.as_ref().map_or(0, |t| {
                        if slot == Slot::Drill {
                            t.region
                        } else {
                            t.sibling
                        }
                    });
                    (
                        "POST",
                        format!("/sessions/{session}/drill"),
                        "/sessions/{token}/drill",
                        format!("{{\"map\":{TOP_MAP},\"region\":{region}}}")
                            .into_bytes()
                            .into(),
                    )
                }
            };

            let explore_slot = match op {
                Op::Explore(slot) => Some(slot),
                _ => None,
            };
            let span = match (explore_slot, self.tracer.as_mut()) {
                (Some(slot), Some(tracer)) => Some(tracer.begin_step(slot.class())),
                _ => None,
            };
            let timing = self.send(method, &path, log_path, &body);
            if let Some(timing) = &timing {
                waited += timing.wait();
                let ms = timing.latency_ms();
                match op {
                    Op::Create => {
                        self.samples.create.push(ms);
                        token = session_token(self.conn.body());
                    }
                    Op::Append => self.samples.append.push(ms),
                    Op::Delete => self.samples.delete.push(ms),
                    Op::Back => {}
                    Op::Explore(slot) => {
                        match slot {
                            Slot::Full => self.samples.full.push(ms),
                            Slot::Filter => self.samples.filter.push(ms),
                            Slot::Drill | Slot::Sibling => self.samples.drill.push(ms),
                        }
                        let cache_hit = self.observe(walk, slot, sql);
                        if let (Some(span), Some(tracer)) = (span, self.tracer.as_mut()) {
                            tracer.wire(span, timing);
                            tracer.record("loadgen.check", Some(span), timing.end, Instant::now());
                            if let Some(shadow) = shadow.as_mut() {
                                shadow(
                                    tracer,
                                    &StepView {
                                        span,
                                        slot,
                                        sql,
                                        cache_hit,
                                        request: self.conn.last_request(),
                                        reply: self.conn.body(),
                                    },
                                );
                            }
                        }
                        if slot == Slot::Filter {
                            targets =
                                reply_json(self.conn.body()).and_then(|reply| pick_targets(&reply));
                        }
                    }
                }
            }
            if let (Some(span), Some(tracer)) = (span, self.tracer.as_mut()) {
                tracer.end(span);
            }
            // A step that failed, or a reply the walk cannot continue from.
            aborted |= timing.is_none()
                || (op == Op::Create && token.is_none())
                || (op == Op::Explore(Slot::Filter) && targets.is_none());
        }

        // A cycle cut short still owes its remaining requests.
        let sent = self.samples.attempted - attempted_before;
        self.samples.attempted += planned - sent;
        self.samples.failed += planned - sent;
        if self.samples.failed == failed_before {
            let wall = started.elapsed();
            self.samples.cycle.push(wall.as_secs_f64() * 1e3);
            self.samples
                .self_per_request
                .push(wall.saturating_sub(waited).as_secs_f64() * 1e3 / planned as f64);
        }
        true
    }

    /// Count the cycles the deadline cut off as attempted and failed.
    pub fn fail_remaining(&mut self, cycles: usize) {
        let steps = cycles * self.flavor.requests_per_cycle();
        self.samples.attempted += steps;
        self.samples.failed += steps;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_pool_is_a_function_of_the_seed() {
        let pool = walk_pool(7);
        assert_eq!(pool.len(), POOL);
        assert_eq!(pool, walk_pool(7));
        let other = walk_pool(8);
        assert!(
            pool.iter()
                .zip(&other)
                .any(|(a, b)| a.filter_sql != b.filter_sql),
            "a different seed must give a different filter pool"
        );
        for walk in &pool {
            atlas_query::parse_query(&walk.filter_sql).expect("every filter parses");
        }
    }

    #[test]
    fn batches_are_seeded_headerless_and_one_segment_long() {
        let batch = append_batch(3, 0);
        assert_eq!(batch, append_batch(3, 0));
        assert_ne!(batch, append_batch(3, 1));
        assert_ne!(batch, append_batch(4, 0));
        let text = String::from_utf8(batch).unwrap();
        assert_eq!(text.lines().count(), BATCH_ROWS);
        assert!(!text.starts_with("age"));
    }

    #[test]
    fn fingerprints_separate_near_identical_replies() {
        let a = br#""maps":[{"score":1.5,"regions":[{"count":10}]}]}"#;
        let b = br#""maps":[{"score":1.5,"regions":[{"count":11}]}]}"#;
        assert_eq!(fingerprint(a), fingerprint(a));
        assert_ne!(fingerprint(a), fingerprint(b));
        assert_ne!(fingerprint(b"abc"), fingerprint(b"abc\0"));
    }

    #[test]
    fn drills_go_into_the_two_largest_regions_of_the_top_map() {
        let reply = wire::parse(
            r#"{"maps":[{"regions":[{"sql":"a","count":5},{"sql":"b","count":9},{"sql":"c","count":9}]},
                        {"regions":[{"sql":"d","count":99}]}]}"#,
        )
        .unwrap();
        let t = pick_targets(&reply).unwrap();
        assert_eq!((t.region, t.sibling), (1, 2));
        assert_eq!((t.region_sql.as_str(), t.sibling_sql.as_str()), ("b", "c"));
        assert!(pick_targets(&wire::parse(r#"{"maps":[]}"#).unwrap()).is_none());
        assert_eq!(two_largest(&[7]), Some((0, 0)));
        assert_eq!(two_largest(&[]), None);
    }
}
