//! The workspace's structure, held as tests: one way to do each thing.
//!
//! The engine and the coordinator share one explore body, a server answers
//! only its protocol, the wire codecs are single, and so on. Each fact is
//! a check over a [`Tree`] of source files: the one this workspace holds,
//! or, in the `mutations` tests, a copy with one edit that the check must
//! reject. Two ratchets print what they count (run with
//! `cargo test --test structure -- --show-output` to see it): the
//! `#[expect(clippy::…)]` attributes (ceiling 8) and the `pub fn`s that only
//! tests call (ceiling 13), with the non-test line count under `crates/`.
//!
//! The checks share three helpers:
//! - [`Tree::file`] and [`Tree::under`] fail on a path that names no file,
//!   so a moved file fails its check instead of leaving it reading nothing;
//! - [`non_test`] cuts a file at its first `#[cfg(test)]` module;
//! - [`forbid`] and [`count`] find needles line by line. A needle is a
//!   literal; a `\b` at either end of it is a word boundary there, as in a
//!   regex. `forbid` takes the files a check allows a needle in.
//!
//! Three patterns need a small scanner of their own: a precision spec in a
//! format string, a `#[expect(` whose `clippy::` may sit on the next line,
//! and a `struct …Ring`.

use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::sync::OnceLock;

/// Directories no check reads: version control and build output.
const SKIPPED: [&str; 4] = [".git", "target", ".bench_build", "benchmark/out"];

/// This file spells every needle, so no check reads it.
const THIS_FILE: &str = "tests/structure.rs";

const SERVE: &str = "crates/serve/src";
const COORDINATOR: &str = "crates/serve/src/distributed";
const TRANSPORT: &str = "crates/serve/src/distributed/transport.rs";
const SOURCE: &str = "crates/serve/src/distributed/source.rs";
const FRAMES: &str = "crates/serve/src/wire/frames.rs";

type Check = Result<(), String>;

/// A file's path, relative to the workspace root, and its text.
type File<'a> = (&'a str, &'a str);

/// A set of source files by path, relative to the workspace root.
#[derive(Clone)]
struct Tree(BTreeMap<String, String>);

impl Tree {
    /// Every file of the workspace but [`SKIPPED`] and this one.
    fn load() -> Tree {
        let mut files = BTreeMap::new();
        read_into(Path::new(env!("CARGO_MANIFEST_DIR")), "", &mut files);
        files.remove(THIS_FILE);
        Tree(files)
    }

    /// Every file of the tree.
    fn all(&self) -> Vec<File<'_>> {
        self.0
            .iter()
            .map(|(name, text)| (name.as_str(), text.as_str()))
            .collect()
    }

    /// The text of the file at `path`.
    fn file(&self, path: &str) -> Result<&str, String> {
        self.0
            .get(path)
            .map(String::as_str)
            .ok_or_else(|| format!("{path}: no such file"))
    }

    /// Every file at or under each of `paths`, failing on a path that names
    /// none.
    fn under(&self, paths: &[&str]) -> Result<Vec<File<'_>>, String> {
        let mut files = Vec::new();
        for path in paths {
            let before = files.len();
            let dir = format!("{path}/");
            files.extend(
                self.0
                    .iter()
                    .filter(|(name, _)| *name == path || name.starts_with(&dir))
                    .map(|(name, text)| (name.as_str(), text.as_str())),
            );
            if files.len() == before {
                return Err(format!("{path}: no such file or directory"));
            }
        }
        Ok(files)
    }

    /// The `.rs` files at or under each of `paths`, failing on a path that
    /// names none.
    fn rust_under(&self, paths: &[&str]) -> Result<Vec<File<'_>>, String> {
        let mut files = Vec::new();
        for path in paths {
            let mut found = self.under(&[path])?;
            found.retain(|(name, _)| name.ends_with(".rs"));
            if found.is_empty() {
                return Err(format!("{path}: no .rs file"));
            }
            files.extend(found);
        }
        Ok(files)
    }
}

/// Read the file or directory `name` (relative to `root`, `""` for the root
/// itself) into `files`, less the directories [`SKIPPED`] names.
fn read_into(root: &Path, name: &str, files: &mut BTreeMap<String, String>) {
    let path = root.join(name);
    if path.is_dir() {
        if SKIPPED
            .iter()
            .any(|skip| name == *skip || name.ends_with(&format!("/{skip}")))
        {
            return;
        }
        let entries = std::fs::read_dir(&path).unwrap_or_else(|e| panic!("{name}: {e}"));
        for entry in entries {
            let entry = entry.unwrap_or_else(|e| panic!("{name}: {e}"));
            let child = entry.file_name();
            let child = child.to_string_lossy();
            let child = if name.is_empty() {
                child.into_owned()
            } else {
                format!("{name}/{child}")
            };
            read_into(root, &child, files);
        }
    } else if let Ok(bytes) = std::fs::read(&path) {
        files.insert(
            name.to_string(),
            String::from_utf8_lossy(&bytes).into_owned(),
        );
    }
}

/// The workspace's own tree, read once.
fn tree() -> &'static Tree {
    static TREE: OnceLock<Tree> = OnceLock::new();
    TREE.get_or_init(Tree::load)
}

/// `text` up to its first `#[cfg(test)]` module: the code a build without
/// tests compiles, less anything after a test module.
fn non_test(text: &str) -> &str {
    let mut from = 0;
    while let Some(at) = text[from..].find("#[cfg(test)]").map(|at| from + at) {
        from = at + "#[cfg(test)]".len();
        let item = text[from..].trim_start_matches(perl_space);
        if item.starts_with("mod") && !item.as_bytes().get(3).copied().is_some_and(is_word) {
            return &text[..at];
        }
    }
    text
}

/// The non-test part of each of `files`.
fn non_test_of<'a>(files: &[File<'a>]) -> Vec<File<'a>> {
    files
        .iter()
        .map(|&(path, text)| (path, non_test(text)))
        .collect()
}

fn is_word(byte: u8) -> bool {
    byte.is_ascii_alphanumeric() || byte == b'_'
}

/// A regex `\s` (no Unicode spaces).
fn perl_space(c: char) -> bool {
    matches!(c, ' ' | '\t' | '\n' | '\x0b' | '\x0c' | '\r')
}

/// A regex `\b` at byte `at` of `text`.
fn boundary(text: &[u8], at: usize) -> bool {
    let before = at > 0 && text.get(at - 1).copied().is_some_and(is_word);
    let after = text.get(at).copied().is_some_and(is_word);
    before != after
}

/// Where `needle` starts in `text`: a literal, with a `\b` at either end
/// standing for a word boundary there.
fn find_all<'a>(text: &'a str, needle: &'a str) -> impl Iterator<Item = usize> + 'a {
    let (left, needle) = match needle.strip_prefix("\\b") {
        Some(rest) => (true, rest),
        None => (false, needle),
    };
    let (right, needle) = match needle.strip_suffix("\\b") {
        Some(rest) => (true, rest),
        None => (false, needle),
    };
    assert!(
        needle.starts_with(|c: char| c.is_ascii()),
        "a needle starts with an ASCII byte"
    );
    let bytes = text.as_bytes();
    let mut from = 0;
    std::iter::from_fn(move || {
        while let Some(at) = text.get(from..)?.find(needle).map(|at| from + at) {
            from = at + 1;
            if (!left || boundary(bytes, at)) && (!right || boundary(bytes, at + needle.len())) {
                return Some(at);
            }
        }
        None
    })
}

/// Whether `line` holds one of `needles`.
fn holds_any(line: &str, needles: &[&str]) -> bool {
    needles
        .iter()
        .any(|needle| find_all(line, needle).next().is_some())
}

/// Fails naming every line of `files` that `hit` picks, outside the files
/// `allowed` lists (a path ending in `/` allows its whole directory).
fn forbid_lines(files: &[File], allowed: &[&str], hit: impl Fn(&str) -> bool) -> Check {
    let mut hits = Vec::new();
    for &(path, text) in files {
        if allowed
            .iter()
            .any(|allow| path == *allow || (allow.ends_with('/') && path.starts_with(allow)))
        {
            continue;
        }
        for (number, line) in text.lines().enumerate() {
            if hit(line) {
                hits.push(format!("{path}:{}: {}", number + 1, line.trim()));
            }
        }
    }
    if hits.is_empty() {
        Ok(())
    } else {
        Err(hits.join("\n"))
    }
}

/// Fails naming every line of `files` that holds one of `needles`, outside
/// the files `allowed` lists.
fn forbid(files: &[File], needles: &[&str], allowed: &[&str]) -> Check {
    forbid_lines(files, allowed, |line| holds_any(line, needles))
}

/// How many lines of `files` hold `needle`.
fn count(files: &[File], needle: &str) -> usize {
    files
        .iter()
        .flat_map(|(_, text)| text.lines())
        .filter(|line| holds_any(line, &[needle]))
        .count()
}

fn at_most(what: &str, found: usize, ceiling: usize) -> Check {
    if found <= ceiling {
        Ok(())
    } else {
        Err(format!("{what}: {found}, above the ceiling of {ceiling}"))
    }
}

/// Whether `line` formats with a precision: a `.` and a digit, letter, `_`
/// or `*` after the `:` of a `{name:…}` spec.
fn precision_spec(line: &str) -> bool {
    let bytes = line.as_bytes();
    (0..bytes.len())
        .filter(|&open| bytes[open] == b'{')
        .any(|open| {
            let name = bytes[open + 1..]
                .iter()
                .take_while(|&&b| is_word(b))
                .count();
            let Some(spec) = bytes[open + 1 + name..].strip_prefix(b":") else {
                return false;
            };
            let end = spec.iter().position(|&b| b == b'}').unwrap_or(spec.len());
            spec[..end]
                .windows(2)
                .any(|pair| pair[0] == b'.' && (is_word(pair[1]) || pair[1] == b'*'))
        })
}

/// Whether `line` declares a `struct` whose name is letters ending in
/// `Ring`.
fn ring_struct(line: &str) -> bool {
    find_all(line, "struct ").any(|at| {
        let rest = &line.as_bytes()[at + "struct ".len()..];
        let name = rest.iter().take_while(|b| b.is_ascii_alphabetic()).count();
        rest[..name].ends_with(b"Ring") && !rest.get(name).copied().is_some_and(is_word)
    })
}

/// The `#[expect(clippy::…)]` attributes in `text`, `clippy::` on a later
/// line included.
fn clippy_expectations(text: &str) -> usize {
    find_all(text, "#[expect(")
        .filter(|&at| {
            text[at + "#[expect(".len()..]
                .trim_start_matches(perl_space)
                .starts_with("clippy::")
        })
        .count()
}

/// The maximal runs of word bytes in `text`.
fn words(text: &str) -> impl Iterator<Item = (usize, &str)> {
    let bytes = text.as_bytes();
    let mut at = 0;
    std::iter::from_fn(move || {
        while bytes.get(at).is_some_and(|&b| !is_word(b)) {
            at += 1;
        }
        let start = at;
        while bytes.get(at).copied().is_some_and(is_word) {
            at += 1;
        }
        (at > start).then(|| (start, &text[start..at]))
    })
}

/// The name after each `fn ` (`pub fn ` when `public`) in `text`, where one
/// space parts the words.
fn fn_names(text: &str, public: bool) -> Vec<&str> {
    let tokens: Vec<(usize, &str)> = words(text).collect();
    // Whether token `i` is `word` and one space parts it from the next.
    let is = |i: usize, word: &str| {
        let (at, token) = tokens[i];
        token == word && text[at + token.len()..tokens[i + 1].0] == *" "
    };
    (1..tokens.len())
        .filter(|&i| is(i - 1, "fn") && (!public || (i >= 2 && is(i - 2, "pub"))))
        .map(|i| tokens[i].1)
        .collect()
}

/// `text` without its `//` lines and its `pub use …;` re-exports, which
/// use no function.
fn without_comments_and_reexports(text: &str) -> String {
    let kept: String = text
        .split_inclusive('\n')
        .filter(|line| !line.trim_start_matches([' ', '\t']).starts_with("//"))
        .collect();
    let mut code = String::with_capacity(kept.len());
    let mut from = 0;
    for at in find_all(&kept, "\\bpub use\\b") {
        if at < from {
            continue;
        }
        let Some(end) = kept[at..].find(';') else {
            break;
        };
        code.push_str(&kept[from..at]);
        from = at + end + 1;
    }
    code.push_str(&kept[from..]);
    code
}

// ---------------------------------------------------------------------------
// The checks
// ---------------------------------------------------------------------------

/// Exceptions may fall, never rise; the replaced linter stays gone; the wire
/// codecs print floats without a precision spec and are single.
///
/// 8 = 2 proved indexes in atlas-serve + 5 order-independent hash
/// iterations (all in colstats.rs) + 1 unwrapping test helper. A new bounds
/// or ordering proof goes into a type or a checked `get`, not into another
/// attribute. Outside their tests the wire codecs print floats with `{}` or
/// as hex bit patterns only — a precision spec would truncate a score. The
/// per-byte hex table and escape scan the word-at-a-time codecs replaced
/// live on only as test oracles.
fn invariant_ratchet(t: &Tree) -> Check {
    let expects: usize = t
        .rust_under(&["crates", "src", "vendor"])?
        .iter()
        .map(|(_, text)| clippy_expectations(text))
        .sum();
    println!("clippy expectations: {expects} (ceiling 8)");
    at_most("clippy expectations", expects, 8)?;
    // The change log alone may name the replaced linter: it records its
    // removal.
    forbid(&t.all(), &["// lint:", "atlas-lint"], &["CHANGES.md"])?;
    let wire = non_test_of(&t.rust_under(&["crates/serve/src/wire"])?);
    forbid_lines(&wire, &[], precision_spec)?;
    let code = non_test_of(&t.rust_under(&["crates", "src"])?);
    forbid(&code, &["HEX_VALUES", "position(needs_escape)"], &[])
}

/// Counted: a `pub fn` in the non-test code of `crates/*/src` outside
/// `crates/bench` whose name no non-test code of `crates/*/src` (bench
/// included), `src` or `examples` names except at its definitions there: a
/// name defined twice and named nowhere else counts once per definition.
/// Non-test code is each file up to its first `#[cfg(test)]` module, without
/// `gather_tests.rs`; `//` lines and `pub use …;` re-exports are no use.
/// `tests/` and `benchmark/` call nothing here.
///
/// 13 = what the harness calls (the three-argument enforce_region_cap,
/// Session::adopt_engine, frames::bitmap_{to,from}_json) + the §5.1 and §5.2
/// extensions no server serves yet (CachedAtlas::{warm_up, prefetch},
/// explain_region) + Coordinator::with_assignment + the checkers tests in
/// several crates read (DataMap::{covered_count, regions_are_disjoint},
/// ConjunctiveQuery::predicate_on, PredicateSet::{contains_number,
/// contains_value}). Also prints the non-test line count under `crates/`.
fn test_only_pub_fns(t: &Tree) -> Check {
    let (mut all, mut set, mut lines) = (String::new(), String::new(), 0);
    let mut defs = Vec::new();
    for (path, text) in t.rust_under(&["crates", "src", "examples"])? {
        let crate_src = path.split('/').nth(2) == Some("src");
        if (path.starts_with("crates/") && !crate_src) || path.ends_with("/gather_tests.rs") {
            continue;
        }
        let kept = non_test(text);
        if path.starts_with("crates/") {
            lines += kept
                .lines()
                .filter(|line| !line.trim().is_empty() && !line.trim_start().starts_with("//"))
                .count();
        }
        let code = without_comments_and_reexports(kept);
        all.push_str(&code);
        if path.starts_with("crates/") && !path.starts_with("crates/bench/") {
            set.push_str(&code);
            defs.extend(
                fn_names(&code, true)
                    .into_iter()
                    .map(|name| (path, name.to_string())),
            );
        }
    }
    let mut named: HashMap<&str, usize> = HashMap::new();
    for (_, word) in words(&all) {
        *named.entry(word).or_default() += 1;
    }
    let mut defined: HashMap<&str, usize> = HashMap::new();
    for name in fn_names(&set, false) {
        *defined.entry(name).or_default() += 1;
    }
    let counted: Vec<_> = defs
        .iter()
        .filter(|(_, name)| named.get(name.as_str()) == defined.get(name.as_str()))
        .collect();
    for (path, name) in &counted {
        println!("{path}  {name}");
    }
    println!("non-test lines under crates/: {lines}");
    println!("test-only pub fns: {} (ceiling 13)", counted.len());
    at_most("test-only pub fns", counted.len(), 13)
}

/// One scan surface: `Column` stores, `kernels.rs` scans a part,
/// `ColumnView` is the method set.
///
/// column.rs takes no selection parameter, view.rs (outside its tests) never
/// matches on a column, and the code lanes of a coded column are read in
/// column.rs, kernels.rs and colstats.rs only. The second coded
/// representation and the boolean-only kernel bodies stay deleted; map
/// distances have one body, and the predicate cap is the clustering cap.
fn one_scan_surface(t: &Tree) -> Check {
    let column = t.under(&["crates/columnar/src/column.rs"])?;
    forbid(&column, &[": &Bitmap"], &[])?;
    let view = t.under(&["crates/columnar/src/view.rs"])?;
    forbid(
        &non_test_of(&view),
        &[
            "Column::Int",
            "Column::Float",
            "Column::Str",
            "Column::Bool",
        ],
        &[],
    )?;
    let rust = t.rust_under(&["crates", "src", "tests", "examples", "benchmark"])?;
    forbid(
        &rust,
        &["\\bLanes::", "\\bCodes::", ".lanes()", ".codes()"],
        &[
            "crates/columnar/src/column.rs",
            "crates/columnar/src/kernels.rs",
            "crates/columnar/src/colstats.rs",
        ],
    )?;
    let deleted = [
        "NULL_CODE",
        "groups_word_codes",
        "groups_scalar_codes",
        "dict_group_table",
        "count_codes_part",
        "member_mask_64_avx2",
        "Encoding::Dict",
        "as_dict(",
    ];
    forbid(&rust, &deleted, &[])?;
    let all = t.under(&["crates", "src", "tests", "examples"])?;
    let deleted = [
        "\\bgroups_word_bool\\b",
        "\\bgroups_scalar_bool\\b",
        "\\bcount_bools_part\\b",
        "\\bmap_distance\\b",
        "\\bfused_compatible\\b",
        "\\bdistance_from_labels\\b",
        "\\bmax_new_predicates\\b",
    ];
    forbid(&all, &deleted, &[])
}

/// One pipeline body: steps 2–4 run inside `atlas_core::explore_from_source`.
/// Distance and ranking are not stage traits, a cut strategy has one
/// method, and the coordinator names none of the calls the body makes.
fn one_pipeline_body(t: &Tree) -> Check {
    let all = t.under(&["crates", "src", "tests", "examples"])?;
    let stages = [
        "\\bMapDistance\\b",
        "\\bViDistance\\b",
        "\\bEntropyRanker\\b",
        "\\bcut_with_stats\\b",
        "trait Ranker\\b",
        "impl Ranker\\b",
    ];
    forbid(&all, &stages, &[])?;
    let body_calls = [
        "\\bcluster_maps_with_pool\\b",
        "\\brank_maps\\b",
        "\\benforce_region_cap_within\\b",
    ];
    forbid(&t.under(&[COORDINATOR])?, &body_calls, &[])
}

/// One transport for the coordinator: `transport.rs` calls the shards,
/// `source.rs` asks them, and neither names the other's vocabulary. Every
/// attempt, hedged or not, runs the one exchange body, so no coordinator
/// module sends a request of its own.
fn one_transport(t: &Tree) -> Check {
    t.file("crates/serve/src/distributed/mod.rs")?;
    let asks = ["frames", "Summar", "CutPlan", "\\bsql\\b", "SQL"];
    forbid(&t.under(&[TRANSPORT])?, &asks, &[])?;
    let calls = [
        "\\bClient\\b",
        "\\bConnection\\b",
        "\\bRetryPolicy\\b",
        "\\bHedgePolicy\\b",
        "\\bCircuitBreaker\\b",
        "\\bsleep\\b",
        "\\brecv_timeout\\b",
    ];
    forbid(&t.under(&[SOURCE])?, &calls, &[])?;
    forbid(
        &t.under(&[COORDINATOR])?,
        &["Client::request", ".request("],
        &[],
    )
}

/// One explore body: the coordinator runs `atlas_core::explore_from_source`
/// over its shards, refuses no merge, and atlas-serve has no flag that picks
/// one. Floats step with `f64::next_up` / `next_down`.
fn one_explore_body(t: &Tree) -> Check {
    let second_body = [
        "explore_pipeline",
        "requires MergeStrategy::Product",
        "\"--merge\"",
    ];
    forbid(&t.under(&[SERVE])?, &second_body, &[])?;
    let steppers = ["fn next_float\\b", "fn prev_float\\b", "fn nudge_up\\b"];
    forbid(&t.rust_under(&["crates"])?, &steppers, &[])
}

/// Wire sessions are histories: no engine per session, no catch-up refresh,
/// no append log.
fn wire_sessions_are_histories(t: &Tree) -> Check {
    let refresh = [
        "catch_up",
        "applied_generation",
        "pending_segments",
        "adopt_engine",
        "append_segment",
    ];
    forbid(&t.under(&[SERVE])?, &refresh, &[])
}

/// One metrics pipeline: `crates/serve/src/metrics` records and renders the
/// self-report. server.rs and the coordinator build no report member, the
/// only latency window lives in the metrics module, and the histogram and
/// the percentile hedge stay deleted.
fn one_metrics_pipeline(t: &Tree) -> Check {
    let reporters = t.under(&["crates/serve/src/server.rs", COORDINATOR])?;
    forbid(&reporters, &["PromSample", "fn obs_extra"], &[])?;
    let serve = t.rust_under(&[SERVE])?;
    let metrics = ["crates/serve/src/metrics/"];
    forbid(&serve, &["LATENCY_", "struct RecentLatencies"], &metrics)?;
    forbid_lines(&serve, &metrics, ring_struct)?;
    let rust = t.rust_under(&["crates", "src", "tests", "examples"])?;
    forbid(&rust, &["EquiWidthHistogram", "Percentile {"], &[])
}

/// One question per row: a shard evaluates a working set in one place, a
/// categorical cut reads the statistics, a cut's rows are asked for in one
/// batch, and the working set and its summaries are one round.
fn one_question_per_row(t: &Tree) -> Check {
    let shard = t.under(&["crates/serve/src/shard.rs"])?;
    let evaluations = count(&shard, "atlas_query::evaluate");
    if evaluations != 1 {
        return Err(format!(
            "shard.rs names atlas_query::evaluate on {evaluations} lines, not 1"
        ));
    }
    forbid(&t.rust_under(&["crates"])?, &["fn categories_for"], &[])?;
    let code = t.rust_under(&["crates", "src"])?;
    forbid(&code, &["\"rest\""], &[FRAMES])?;
    let cutters = t.under(&["crates/core/src/cut.rs", COORDINATOR])?;
    forbid(
        &cutters,
        &["fn select_ranges\\b", "fn select_in_groups\\b"],
        &[],
    )?;
    let coordinator = t.rust_under(&[COORDINATOR])?;
    for endpoint in ["\"/shard/select\"", "\"/shard/working\""] {
        at_most(endpoint, count(&coordinator, endpoint), 1)?;
    }
    forbid(&code, &["Transfer-Encoding"], &["crates/serve/src/http.rs"])?;
    let all = t.under(&["crates", "src", "tests", "examples"])?;
    let summaries_round = [
        "shard/summaries",
        "ShardSummaries",
        "shard_summaries",
        "fetch_summaries",
    ];
    forbid(&all, &summaries_round, &[])
}

/// One median, and it is exact: the Greenwald–Khanna sketch, its config
/// variant, its profile plumbing and its shard round stay deleted.
fn one_exact_median(t: &Tree) -> Check {
    let sketch = [
        "GkSketch",
        "SketchMedian",
        "sketch_for",
        "sketch_epsilon",
        "ShardSketches",
        "shard/sketches",
    ];
    forbid(
        &t.under(&["crates", "src", "tests", "examples"])?,
        &sketch,
        &[],
    )
}

/// Every cut strategy wins a `QUALITY.json` cell: natural breaks and the
/// alphabetic and first-appearance categorical orders, the strategy option
/// they made and the natural-breaks module stay deleted.
fn every_cut_strategy_wins_a_cell(t: &Tree) -> Check {
    let all = t.under(&["crates", "src", "tests", "examples"])?;
    let strategies = [
        "\\bNaturalBreaks\\b",
        "\\bnatural_breaks\\b",
        "\\bAlphabetic\\b",
        "\\bDictionaryOrder\\b",
        "\\bCategoricalCutStrategy\\b",
    ];
    forbid(&all, &strategies, &[])?;
    let rust = t.rust_under(&["crates", "src", "tests", "examples"])?;
    let option = [
        "atlas_stats::breaks",
        "pub mod breaks",
        "cut.categorical",
        "categorical: ",
    ];
    forbid(&rust, &option, &[])
}

/// Served answers hold no rows: outside its tests, nothing in
/// `crates/serve/src` releases rows itself, calls an engine's `explore`,
/// reads a region's `.selection` or an answer's `.working_set`, or builds a
/// region without rows; the one function that counts a plan off its
/// statistics is `CutPlan::counts_from_stats` in `crates/core/src/cut.rs`.
fn served_answers_hold_no_rows(t: &Tree) -> Check {
    let serve = t.rust_under(&[SERVE])?;
    let rows = [
        ".selection\\b",
        ".working_set\\b",
        "release_rows",
        ".explore(",
    ];
    forbid(&non_test_of(&serve), &rows, &[])?;
    forbid(&t.under(&[SERVE])?, &["Region::released"], &[])?;
    // The one plan counter: one line of cut.rs, and no line elsewhere.
    let counter = "fn counts_from_stats\\b";
    let cut = "crates/core/src/cut.rs";
    let counted = count(&t.under(&[cut])?, counter);
    if counted != 1 {
        return Err(format!(
            "{cut} defines counts_from_stats on {counted} lines"
        ));
    }
    let all = t.under(&["crates", "src", "tests", "examples", "benchmark"])?;
    forbid(&all, &[counter], &[cut])
}

/// One bench report module: `crates/bench/src/report.rs` writes, finds and
/// gates every `BENCH_*.json`; experiments.rs names neither smoke
/// subcommand, and the by-name lookup the declared paths replaced stays
/// deleted.
fn one_bench_report_module(t: &Tree) -> Check {
    let experiments = t.under(&["crates/bench/src/bin/experiments.rs"])?;
    forbid(&experiments, &["bench-smoke", "trace-smoke"], &[])?;
    let all = t.under(&["crates", "src", "tests", "examples", "benchmark"])?;
    forbid(&all, &["\\bGATED_PHASES\\b", "\\bfind_number\\b"], &[])?;
    forbid(
        &t.under(&["crates/bench/src"])?,
        &["fs::write", "File::create", "OpenOptions"],
        &["crates/bench/src/report.rs"],
    )
}

/// A server answers only its protocol: the fault-injection endpoint, its
/// plan and the raw or silent replies it made stay deleted. Faults come from
/// the test proxy between coordinator and shard.
fn a_server_answers_only_its_protocol(t: &Tree) -> Check {
    let injection = [
        "shard/inject",
        "ShardInject",
        "consume_fault",
        "InjectState",
        "parse_fault",
        "lengthen_first_bitmap",
        "Reply::Raw",
        "Reply::Hangup",
    ];
    forbid(&t.under(&[SERVE])?, &injection, &[])
}

/// A distributed explore ships counts: no region's rows cross the wire, the
/// coordinator holds no row space, and outside `wire/frames.rs` (where the
/// bitmap codec is defined and tested) nothing in `crates/serve/src` encodes
/// or decodes a bitmap; a shard answers one working partial per run of
/// segments.
fn a_distributed_explore_ships_counts(t: &Tree) -> Check {
    let folds = [
        "RegionFold",
        "select_partial_to_json",
        "select_partial_from_json",
        "Reply::Stream",
        "Intake::Fold",
    ];
    forbid(&t.under(&[SERVE])?, &folds, &[])?;
    let crates = t.under(&["crates"])?;
    let per_segment = [
        "working_partial_to_json",
        "working_partial_from_json",
        "or_shifted",
    ];
    forbid(&crates, &per_segment, &[])?;
    let codec = ["bitmap_to_json(", "bitmap_from_json("];
    forbid(&t.rust_under(&[SERVE])?, &codec, &[FRAMES])?;
    // In frames.rs itself, only at the two definitions.
    let defined = non_test(t.file(FRAMES)?)
        .replace("pub fn bitmap_to_json(", "")
        .replace("pub fn bitmap_from_json(", "");
    forbid(&[(FRAMES, &defined)], &codec, &[])
}

/// A region is counted once, when it is built: the popcounting entropy
/// helper and the partition check no caller used stay deleted.
fn a_region_is_counted_once(t: &Tree) -> Check {
    let all = t.under(&["crates", "src", "tests", "examples"])?;
    forbid(&all, &["entropy_of_selections", "is_partition_of"], &[])
}

/// An integration-test file without a `#[test]` (or a `proptest!` block)
/// compiles, asserts nothing and rots: every `tests/*.rs` of the facade and
/// of each crate holds one.
fn integration_test_files_hold_tests(t: &Tree) -> Check {
    let files: Vec<File> = t
        .rust_under(&["tests", "crates"])?
        .into_iter()
        .filter(|(path, _)| {
            let parts: Vec<&str> = path.split('/').collect();
            matches!(parts[..], ["tests", _] | ["crates", _, "tests", _])
        })
        .collect();
    if files.is_empty() {
        return Err("no integration-test file was found".to_string());
    }
    let empty: Vec<&str> = files
        .iter()
        .filter(|(_, text)| !text.contains("#[test]") && !text.contains("proptest!"))
        .map(|(path, _)| *path)
        .collect();
    if empty.is_empty() {
        Ok(())
    } else {
        Err(format!("no #[test] and no proptest! block in {empty:?}"))
    }
}

/// The facade is the workspace's documented surface: every top-level `pub`
/// item of `src/lib.rs` — the `pub use` re-exports `missing_docs` skips
/// included — has a `///` comment above it (attributes may sit between).
fn facade_exports_are_documented(t: &Tree) -> Check {
    let lines: Vec<&str> = t.file("src/lib.rs")?.lines().collect();
    let mut exports = 0;
    for (at, line) in lines.iter().enumerate() {
        // rustfmt keeps top-level items, and only those, at column 0.
        if !line.starts_with("pub ") {
            continue;
        }
        let above = lines[..at].iter().rev().find(|l| !l.starts_with("#["));
        if !above.is_some_and(|l| l.starts_with("///")) {
            return Err(format!(
                "src/lib.rs:{}: `{line}` has no doc comment",
                at + 1
            ));
        }
        exports += 1;
    }
    if exports == 0 {
        return Err("no facade export was found".to_string());
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// The workspace holds every check
// ---------------------------------------------------------------------------

#[test]
fn clippy_expectations_and_the_wire_codecs_hold() {
    invariant_ratchet(tree()).unwrap();
}

#[test]
fn test_only_public_functions_stay_at_or_below_the_ceiling() {
    test_only_pub_fns(tree()).unwrap();
}

#[test]
fn one_scan_surface_holds() {
    one_scan_surface(tree()).unwrap();
}

#[test]
fn one_pipeline_body_holds() {
    one_pipeline_body(tree()).unwrap();
}

#[test]
fn one_transport_holds() {
    one_transport(tree()).unwrap();
}

#[test]
fn one_explore_body_holds() {
    one_explore_body(tree()).unwrap();
}

#[test]
fn wire_sessions_are_histories_holds() {
    wire_sessions_are_histories(tree()).unwrap();
}

#[test]
fn one_metrics_pipeline_holds() {
    one_metrics_pipeline(tree()).unwrap();
}

#[test]
fn one_question_per_row_holds() {
    one_question_per_row(tree()).unwrap();
}

#[test]
fn one_exact_median_holds() {
    one_exact_median(tree()).unwrap();
}

#[test]
fn every_cut_strategy_wins_a_cell_holds() {
    every_cut_strategy_wins_a_cell(tree()).unwrap();
}

#[test]
fn served_answers_hold_no_rows_holds() {
    served_answers_hold_no_rows(tree()).unwrap();
}

#[test]
fn one_bench_report_module_holds() {
    one_bench_report_module(tree()).unwrap();
}

#[test]
fn a_server_answers_only_its_protocol_holds() {
    a_server_answers_only_its_protocol(tree()).unwrap();
}

#[test]
fn a_distributed_explore_ships_counts_holds() {
    a_distributed_explore_ships_counts(tree()).unwrap();
}

#[test]
fn a_region_is_counted_once_holds() {
    a_region_is_counted_once(tree()).unwrap();
}

#[test]
fn every_integration_test_file_holds_a_test() {
    integration_test_files_hold_tests(tree()).unwrap();
}

#[test]
fn every_facade_export_is_documented() {
    facade_exports_are_documented(tree()).unwrap();
}

// ---------------------------------------------------------------------------
// Each check rejects the edits it exists to stop
// ---------------------------------------------------------------------------

mod mutations {
    use super::*;

    /// The workspace's tree with `code` put at the end of the non-test part
    /// of the file at `path`.
    fn with(path: &str, code: &str) -> Tree {
        let mut t = tree().clone();
        let text =
            t.0.get_mut(path)
                .unwrap_or_else(|| panic!("{path}: no such file"));
        let cut = non_test(text).len();
        text.insert_str(cut, &format!("\n{code}\n"));
        t
    }

    /// The workspace's tree without the file at `path`.
    fn without(path: &str) -> Tree {
        let mut t = tree().clone();
        assert!(t.0.remove(path).is_some(), "{path}: no such file");
        t
    }

    /// `t` with the file at `from` moved to `to`.
    fn moved(mut t: Tree, from: &str, to: &str) -> Tree {
        let text =
            t.0.remove(from)
                .unwrap_or_else(|| panic!("{from}: no such file"));
        t.0.insert(to.to_string(), text);
        t
    }

    type Rule = fn(&Tree) -> Check;

    fn rejects(check: Rule, t: &Tree) {
        assert!(check(t).is_err(), "the check passed the edited tree");
    }

    #[test]
    fn a_ninth_clippy_expectation() {
        let code = "#[expect(\n    clippy::indexing_slicing,\n    reason = \"x\"\n)]\nfn x() {}";
        rejects(
            invariant_ratchet,
            &with("crates/stats/src/quantile.rs", code),
        );
    }

    #[test]
    fn a_precision_spec_in_a_wire_codec() {
        let code = "fn f(x: f64) -> String { format!(\"{x:.3}\") }";
        rejects(
            invariant_ratchet,
            &with("crates/serve/src/wire/json.rs", code),
        );
    }

    #[test]
    fn a_pub_fn_only_tests_call() {
        let code = "pub fn scratch_uncalled() {}";
        rejects(
            test_only_pub_fns,
            &with("crates/stats/src/quantile.rs", code),
        );
    }

    #[test]
    fn compose_maps_put_back() {
        let code = "pub fn compose_maps(maps: &[DataMap]) -> Vec<DataMap> { maps.to_vec() }";
        rejects(test_only_pub_fns, &with("crates/core/src/merge.rs", code));
    }

    #[test]
    fn a_selection_parameter_in_column_rs() {
        let code = "fn scan(selection: &Bitmap) {}";
        rejects(
            one_scan_surface,
            &with("crates/columnar/src/column.rs", code),
        );
    }

    #[test]
    fn column_rs_renamed_with_a_selection_parameter() {
        let t = with(
            "crates/columnar/src/column.rs",
            "fn scan(selection: &Bitmap) {}",
        );
        let t = moved(
            t,
            "crates/columnar/src/column.rs",
            "crates/columnar/src/column/mod.rs",
        );
        rejects(one_scan_surface, &t);
    }

    #[test]
    fn rank_maps_in_the_coordinator() {
        rejects(one_pipeline_body, &with(SOURCE, "fn rank_maps() {}"));
    }

    #[test]
    fn a_cut_plan_in_the_transport() {
        rejects(one_transport, &with(TRANSPORT, "use atlas_core::CutPlan;"));
        rejects(one_transport, &with(TRANSPORT, "use crate::wire::frames;"));
    }

    #[test]
    fn a_connection_or_a_sleep_in_the_source() {
        rejects(
            one_transport,
            &with(SOURCE, "use crate::client::Connection;"),
        );
        rejects(
            one_transport,
            &with(SOURCE, "fn f() { std::thread::sleep(d) }"),
        );
    }

    #[test]
    fn a_request_of_its_own_in_the_coordinator() {
        rejects(
            one_transport,
            &with(TRANSPORT, "fn f() { client.request(r) }"),
        );
    }

    #[test]
    fn source_rs_removed() {
        rejects(one_transport, &without(SOURCE));
    }

    #[test]
    fn a_report_member_in_the_transport() {
        rejects(one_metrics_pipeline, &with(TRANSPORT, "struct PromSample;"));
    }

    #[test]
    fn a_report_member_in_the_transport_while_server_rs_moves() {
        let t = with(TRANSPORT, "struct PromSample;");
        let t = moved(
            t,
            "crates/serve/src/server.rs",
            "crates/serve/src/server/mod.rs",
        );
        rejects(one_metrics_pipeline, &t);
    }

    #[test]
    fn a_latency_ring_outside_the_metrics_module() {
        rejects(
            one_metrics_pipeline,
            &with(TRANSPORT, "struct LatencyRing;"),
        );
    }

    #[test]
    fn select_ranges_in_the_coordinator() {
        rejects(one_question_per_row, &with(SOURCE, "fn select_ranges() {}"));
    }

    #[test]
    fn a_second_select_or_working_round() {
        let mod_rs = "crates/serve/src/distributed/mod.rs";
        let select = "const SELECT: &str = \"/shard/select\";";
        rejects(one_question_per_row, &with(mod_rs, select));
        let working = "const WORKING: &str = \"/shard/working\";";
        rejects(one_question_per_row, &with(mod_rs, working));
    }

    #[test]
    fn a_working_partial_codec_put_back() {
        let code = "pub fn working_partial_to_json(p: &Partial) -> Json { todo() }";
        rejects(a_distributed_explore_ships_counts, &with(FRAMES, code));
    }

    #[test]
    fn or_shifted_put_back() {
        let code = "pub fn or_shifted(&mut self, other: &Bitmap, at: usize) {}";
        let bitmap = "crates/columnar/src/bitmap.rs";
        rejects(a_distributed_explore_ships_counts, &with(bitmap, code));
    }

    #[test]
    fn a_bitmap_decoded_at_the_coordinator() {
        let code = "fn f() { let _ = frames::bitmap_from_json(&Json::Null); }";
        rejects(a_distributed_explore_ships_counts, &with(SOURCE, code));
    }

    #[test]
    fn a_bitmap_encoded_in_a_frame() {
        let code = "fn partial(rows: &Bitmap) -> Json { bitmap_to_json(rows) }";
        rejects(a_distributed_explore_ships_counts, &with(FRAMES, code));
    }

    #[test]
    fn a_served_answer_reading_rows() {
        let code = "fn f(r: &Region) -> usize { r.selection.count() }";
        rejects(
            served_answers_hold_no_rows,
            &with("crates/serve/src/registry.rs", code),
        );
    }

    #[test]
    fn a_second_plan_counter() {
        let code = "fn counts_from_stats() {}";
        rejects(
            served_answers_hold_no_rows,
            &with("crates/core/src/merge.rs", code),
        );
    }

    #[test]
    fn an_integration_test_file_without_a_test() {
        let mut t = tree().clone();
        t.0.insert("tests/empty.rs".to_string(), "fn helper() {}\n".to_string());
        rejects(integration_test_files_hold_tests, &t);
    }

    #[test]
    fn an_undocumented_facade_export() {
        let mut t = tree().clone();
        t.0.get_mut("src/lib.rs")
            .unwrap()
            .push_str("\npub use atlas_core::Atlas as Undocumented;\n");
        rejects(facade_exports_are_documented, &t);
    }

    /// A file a check names is missing: the check fails instead of reading
    /// nothing.
    #[test]
    fn a_missing_named_file() {
        let named: [(Rule, &str); 12] = [
            (one_scan_surface, "crates/columnar/src/column.rs"),
            (one_scan_surface, "crates/columnar/src/view.rs"),
            (one_transport, "crates/serve/src/distributed/mod.rs"),
            (one_transport, TRANSPORT),
            (one_transport, SOURCE),
            (one_metrics_pipeline, "crates/serve/src/server.rs"),
            (one_question_per_row, "crates/serve/src/shard.rs"),
            (one_question_per_row, "crates/core/src/cut.rs"),
            (served_answers_hold_no_rows, "crates/core/src/cut.rs"),
            (
                one_bench_report_module,
                "crates/bench/src/bin/experiments.rs",
            ),
            (a_distributed_explore_ships_counts, FRAMES),
            (facade_exports_are_documented, "src/lib.rs"),
        ];
        for (check, path) in named {
            assert!(
                check(&without(path)).is_err(),
                "the check passed without {path}"
            );
        }
    }
}
