//! The scatter-gather frames of distributed exploration.
//!
//! Everything the coordinator and the shard servers exchange beyond plain
//! counts rides the codecs here. The design constraint is **bit-exactness**:
//! a distributed explore must produce the same ranked maps — score bits,
//! region SQL, tuple counts — as the in-process engine, so every
//! floating-point value that participates in a fold (summary extremes, split
//! bounds) travels as its IEEE-754 **bit pattern** in fixed-width hex, never
//! as a decimal rendering. Bulk payloads (numeric value runs, summary keys
//! and counts) are single concatenated hex strings: dense,
//! allocation-friendly, and immune to JSON number precision limits (`u64`
//! words above 2⁵³ survive).
//!
//! Column summaries are the one frame whose exactness is integral rather
//! than floating-point: row counts, the distinct values (numbers as 64-bit
//! keys), and — for a *counted* summary — how many selected rows hold each
//! value. The counts are what the coordinator's cuts read from — a median
//! cut its split points, a categorical cut its frequency ranking and
//! dictionary order — so they are held to the invariants of a real summary
//! on the way in: one count per value and the counts summing to the non-NULL
//! rows, for numbers positive counts of strictly ascending values, for
//! strings (listed in dictionary order, unselected values with a zero) no
//! value twice. A summary with too many distinct values travels as the plain
//! value list it always was.
//!
//! An explore ships no rows: not the working set, which stays at the shards
//! that evaluated it, and not a region's. The per-segment partials of
//! `/shard/working` and the count replies of `/shard/select` are encoded and
//! decoded here, rules included, so neither side knows the format apart
//! from the other:
//!
//! * a working partial is `{"segment", "count", "columns"}`: how many of
//!   the segment's rows the query selects and, as `"columns"`, the summary
//!   of every column over them, so one round answers both. The decoder
//!   holds the count to the segment's rows and the summaries to the schema
//!   and to the count ([`working_partial_from_json`]);
//! * a `/shard/select` request carries the explore's cuts as `"partitions"`
//!   ([`partition_to_json`]) and, as `"products"`, which combinations of
//!   them to count ([`products_to_json`]): each cut alone, and each pair of
//!   cuts for the map distances, or a cluster of three or more maps for its
//!   product merge. The reply is one document, not one per segment: the
//!   segments it answered for and each product's cells, summed over them
//!   ([`count_reply_to_json`]). Integer sums are exact, so the coordinator's
//!   sum over its shards is the count a local explore takes. The decoder
//!   holds a reply to every invariant the coordinator can check
//!   ([`count_reply_from_json`]): the segments, each product's arity, no
//!   more rows than the segments' working rows, and a pair's row and column
//!   sums within — or, beside a cut that partitions the working rows, equal
//!   to — the region counts.
//!
//! A coordinator of this build refuses an older shard's working partial,
//! which has no `"columns"`, and an older shard's streamed `/shard/select`
//! reply, which has no `"cells"`, with typed errors, and reads an older
//! shard's partial by its count, ignoring the `"bitmap"` beside it. An
//! older coordinator refuses this build's count reply, which has no
//! `"partials"`, and this build's partial of a segment the query selects in
//! part, which has no bitmap, with its typed "no working bitmap" error. No
//! mix gives a wrong map.
//!
//! The hex run carries every bulk payload of the coordinator↔shard
//! exchange. It is handled eight digits per `u64` step (SWAR): encoding
//! spreads a half word's nibbles one to a byte lane in three shift-and-mask
//! steps and adds `'0'` plus `0x27` on the lanes above 9; decoding
//! range-checks eight bytes at once (`'0'..='9'`, or `'a'..='f'` after
//! `| 0x20`; any byte ≥ 0x80 fails) and packs the nibbles back in three
//! more. No formatter, no table, no `unsafe`, one allocation per run; the
//! output is byte-identical to the per-byte codec it replaced (its tests
//! keep that codec as the oracle).
//! Measured on a 1M-row bitmap frame, text included, per-byte → SWAR
//! (scratch best-of-30 runs on a 2-vCPU guest; `bench-smoke` timed the same
//! calls as `frame_bitmap_{encode,decode}_ms` until it moved to the shipped
//! `/shard/working` reply, `frame_working_*`): encode 0.27 → 0.08 ms,
//! `wire::parse` + [`bitmap_from_json`] 0.26 → 0.09 ms. A 250 kB copy is
//! ~0.005 ms, so what is left is the arithmetic, ~2 ns per 8 digits each way.
//!
//! Decoding is defensive — these frames cross sockets. Every accessor
//! returns `Result<_, String>` with a field-naming message; truncated hex
//! runs, wrong-width chunks, unknown type names, and non-finite values in
//! fields that must be finite (a region bound) are rejected, not
//! propagated.

use crate::wire::json::lanes;
use crate::wire::Json;
use atlas_columnar::{Bitmap, DataType, DistinctValues, SummaryParts};
use atlas_core::{CutPlan, Partition};
use std::collections::HashSet;

/// The eight lower-case hex digits of `half`, most significant first.
fn hex_digits(half: u32) -> [u8; 8] {
    // Spread the nibbles one to a byte lane (16 → 8 → 4 bits per lane), so
    // the first digit's nibble lands in the most significant lane.
    let mut n = u64::from(half);
    n = (n | n << 16) & 0x0000_ffff_0000_ffff;
    n = (n | n << 8) & 0x00ff_00ff_00ff_00ff;
    n = (n | n << 4) & 0x0f0f_0f0f_0f0f_0f0f;
    // A lane above 9 carries into bit 4 when 6 is added; those lanes skip
    // from ':' to 'a'. No lane reaches 0x80, so no lane carries into the next.
    let above_nine = ((n + lanes(6)) >> 4) & lanes(1);
    (n + lanes(b'0') + above_nine * 0x27).to_be_bytes()
}

/// The 32 bits eight hex digits (either case) spell, or `None` if any byte
/// is not a hex digit.
fn parse_hex_digits(digits: [u8; 8]) -> Option<u32> {
    let v = u64::from_be_bytes(digits);
    if v & lanes(0x80) != 0 {
        return None;
    }
    // With every lane below 0x80, `x + (0x80 - bound)` sets a lane's top bit
    // iff `x >= bound` and never carries into the next lane.
    let at_least = |x: u64, bound: u8| x + lanes(0x80 - bound);
    let digit = at_least(v, b'0') & !at_least(v, b'9' + 1);
    // `| 0x20` folds 'A'..='F' onto 'a'..='f' and nothing else onto them.
    let folded = v | lanes(0x20);
    let letter = at_least(folded, b'a') & !at_least(folded, b'f' + 1);
    if (digit | letter) & lanes(0x80) != lanes(0x80) {
        return None;
    }
    // A digit's value is its low nibble; a letter's (bit 6 set) is that plus 9.
    let mut n = (v & lanes(0x0f)) + ((v >> 6) & lanes(1)) * 9;
    // Gather the lanes' nibbles into the low 32 bits (8 → 16 → 32 bits).
    n = (n | n >> 4) & 0x00ff_00ff_00ff_00ff;
    n = (n | n >> 8) & 0x0000_ffff_0000_ffff;
    Some((n | n >> 16) as u32)
}

/// Decode one 16-digit word given as its two 8-digit halves.
fn parse_hex_word(high: [u8; 8], low: [u8; 8]) -> Option<u64> {
    Some(u64::from(parse_hex_digits(high)?) << 32 | u64::from(parse_hex_digits(low)?))
}

/// Encode words as one concatenated run of 16 lower-case hex digits each,
/// without going through a formatter.
fn hex_words(words: impl ExactSizeIterator<Item = u64>) -> String {
    let mut out = Vec::with_capacity(words.len() * 16);
    for word in words {
        out.extend_from_slice(&hex_digits((word >> 32) as u32));
        out.extend_from_slice(&hex_digits(word as u32));
    }
    // Every byte is an ASCII hex digit, so the conversion cannot fail.
    String::from_utf8(out).unwrap_or_default()
}

/// Encode a slice of `u64`s as one concatenated hex run (16 digits each).
pub fn hex_u64s(values: &[u64]) -> String {
    hex_words(values.iter().copied())
}

/// Decode a concatenated hex run back into `u64`s. The run length must be a
/// multiple of 16 — a truncated body is an error, never a silent short read —
/// and every byte a hex digit (either case).
pub fn parse_hex_u64s(text: &str) -> Result<Vec<u64>, String> {
    let (halves, rest) = text.as_bytes().as_chunks::<8>();
    let (pairs, odd) = halves.as_chunks::<2>();
    if !rest.is_empty() || !odd.is_empty() {
        return Err(format!(
            "hex run of {} digits is not a multiple of 16 (truncated body?)",
            text.len()
        ));
    }
    let mut words = Vec::with_capacity(pairs.len());
    for &[high, low] in pairs {
        let word = parse_hex_word(high, low)
            .ok_or_else(|| "hex run contains a non-hex character".to_string())?;
        words.push(word);
    }
    Ok(words)
}

/// Encode a slice of `f64`s as one concatenated bit-pattern hex run.
pub fn hex_f64s(values: &[f64]) -> String {
    hex_words(values.iter().map(|x| x.to_bits()))
}

/// Decode a concatenated bit-pattern hex run back into the exact `f64`s.
pub fn parse_hex_f64s(text: &str) -> Result<Vec<f64>, String> {
    Ok(parse_hex_u64s(text)?
        .into_iter()
        .map(f64::from_bits)
        .collect())
}

/// Parse a [`DataType`] from its [`DataType::name`] rendering.
pub fn dtype_from_name(name: &str) -> Result<DataType, String> {
    match name {
        "int" => Ok(DataType::Int),
        "float" => Ok(DataType::Float),
        "str" => Ok(DataType::Str),
        "bool" => Ok(DataType::Bool),
        other => Err(format!("unknown data type '{other}'")),
    }
}

/// The string member `key` of `value`.
pub fn get_str<'a>(value: &'a Json, key: &str) -> Result<&'a str, String> {
    value
        .get(key)
        .and_then(Json::str)
        .ok_or_else(|| format!("missing or non-string member \"{key}\""))
}

/// The numeric member `key` of `value`, as a `usize`.
pub fn get_index(value: &Json, key: &str) -> Result<usize, String> {
    value
        .get(key)
        .and_then(Json::index)
        .ok_or_else(|| format!("missing or non-integral member \"{key}\""))
}

/// The array member `key` of `value`.
pub fn get_items<'a>(value: &'a Json, key: &str) -> Result<&'a [Json], String> {
    value
        .get(key)
        .and_then(Json::items)
        .ok_or_else(|| format!("missing or non-array member \"{key}\""))
}

/// A shard's view of a dataset, as its `/shard/meta` reply states it: the
/// generation, each segment's rows in order, and the schema's
/// `(name, type)` fields. The coordinator requires every shard to agree.
pub type MetaView = (usize, Vec<usize>, Vec<(String, DataType)>);

/// Encode a `/shard/meta` reply for `dataset`. Its `num_rows` is the sum of
/// the segments' rows.
pub fn meta_to_json(dataset: &str, (generation, segments, fields): &MetaView) -> Json {
    let fields = fields.iter().map(|(name, dtype)| {
        Json::object(vec![
            ("name", Json::from(name.as_str())),
            ("dtype", Json::from(dtype.name())),
        ])
    });
    Json::object(vec![
        ("dataset", Json::from(dataset)),
        ("generation", Json::from(*generation)),
        ("num_rows", Json::from(segments.iter().sum::<usize>())),
        (
            "segments",
            Json::array(segments.iter().map(|&rows| Json::from(rows)).collect()),
        ),
        ("fields", Json::array(fields.collect())),
    ])
}

/// Decode a `/shard/meta` reply. Its `num_rows` must be the sum of its
/// segments' rows: every fold reads the segments' rows and coverage reads
/// the total, so a reply where the two disagree is refused.
pub fn meta_from_json(value: &Json) -> Result<MetaView, String> {
    let generation = get_index(value, "generation")?;
    let num_rows = get_index(value, "num_rows")?;
    let segments = get_items(value, "segments")?
        .iter()
        .map(|rows| rows.index().ok_or("non-integral segment row count"))
        .collect::<Result<Vec<usize>, _>>()?;
    let sum = segments
        .iter()
        .try_fold(0usize, |sum, &rows| sum.checked_add(rows));
    if sum != Some(num_rows) {
        return Err(format!(
            "num_rows {num_rows} is not the sum of the {} segments' rows",
            segments.len()
        ));
    }
    let fields = get_items(value, "fields")?
        .iter()
        .map(|field| {
            let name = get_str(field, "name")?.to_string();
            Ok((name, dtype_from_name(get_str(field, "dtype")?)?))
        })
        .collect::<Result<_, String>>()?;
    Ok((generation, segments, fields))
}

/// Encode a selection bitmap: its length plus its backing words as hex.
pub fn bitmap_to_json(bitmap: &Bitmap) -> Json {
    Json::object(vec![
        ("len", Json::from(bitmap.len())),
        ("words", Json::from(hex_u64s(bitmap.words()))),
    ])
}

/// Decode a selection bitmap. The word run must be exactly the length the
/// declared bit count needs.
pub fn bitmap_from_json(value: &Json) -> Result<Bitmap, String> {
    let len = get_index(value, "len")?;
    let words = parse_hex_u64s(get_str(value, "words")?)?;
    if words.len() != len.div_ceil(64) {
        return Err(format!(
            "bitmap of {len} bits needs {} words, got {}",
            len.div_ceil(64),
            words.len()
        ));
    }
    Ok(Bitmap::from_words(len, words))
}

/// Encode one segment's `/shard/working` partial: how many of its rows the
/// query selects, and the summary of every column over those rows, in
/// schema order. The rows themselves stay at the shard.
pub fn working_partial_to_json(segment: usize, count: usize, columns: &[SummaryParts]) -> Json {
    let columns = columns.iter().map(summary_to_json).collect();
    Json::object(vec![
        ("segment", Json::from(segment)),
        ("count", Json::from(count)),
        ("columns", Json::array(columns)),
    ])
}

/// A decoded `/shard/working` partial: how many of the segment's rows the
/// query selects, and the summary of every column over them in schema
/// order.
pub type WorkingPartial = (usize, Vec<SummaryParts>);

/// Decode a `/shard/working` partial of a table whose segments hold
/// `segment_rows` rows each and whose schema is `fields`. The count must be
/// at most the segment's rows. The summaries must be one per schema column,
/// each of the column's type and each over exactly `count` rows — its
/// non-NULL and NULL rows summing to the count — since the coordinator plans
/// its cuts from the summaries and sizes the working set from the counts.
/// Every error names the segment.
pub fn working_partial_from_json(
    partial: &Json,
    segment_rows: &[usize],
    fields: &[(String, DataType)],
) -> Result<WorkingPartial, String> {
    let segment = get_index(partial, "segment")?;
    let rows = *segment_rows
        .get(segment)
        .ok_or_else(|| format!("segment {segment} is out of range"))?;
    let in_segment = |message: String| format!("segment {segment}: {message}");
    let count = get_index(partial, "count").map_err(in_segment)?;
    if count > rows {
        return Err(in_segment(format!(
            "{count} working rows, the segment has {rows}"
        )));
    }
    let columns = columns_from_json(partial, fields, count).map_err(in_segment)?;
    Ok((count, columns))
}

/// The column summaries of a `/shard/working` partial of `count` working
/// rows: one per field of `fields`, each of the field's type and over
/// `count` rows.
fn columns_from_json(
    partial: &Json,
    fields: &[(String, DataType)],
    count: usize,
) -> Result<Vec<SummaryParts>, String> {
    let columns = get_items(partial, "columns")?;
    if columns.len() != fields.len() {
        return Err(format!(
            "{} column summaries, the schema has {} columns",
            columns.len(),
            fields.len()
        ));
    }
    columns
        .iter()
        .zip(fields)
        .map(|(column, (name, dtype))| {
            let parts = summary_from_json(column).map_err(|e| format!("column {name}: {e}"))?;
            if parts.dtype != *dtype {
                return Err(format!(
                    "the summary of {name} is of a {} column, the schema's of a {}",
                    parts.dtype.name(),
                    dtype.name()
                ));
            }
            if parts.non_null.checked_add(parts.nulls) != Some(count) {
                return Err(format!(
                    "the summary of {name} covers {} + {} rows, the count says {count}",
                    parts.non_null, parts.nulls
                ));
            }
            Ok(parts)
        })
        .collect()
}

/// The most cells one `/shard/select` request may ask for, over all of its
/// products: far above what an explore asks (a cluster of three three-way
/// cuts is 27), so a request that would make a shard allocate more is the
/// coordinator's mistake, refused before anything is counted.
const MAX_CELLS: usize = 1 << 16;

/// How many cells the product of `plans` has: one per combination of one
/// region per plan, `regions[plan]` regions each. `None` on an index past
/// `regions`, or past [`MAX_CELLS`].
fn cell_count(plans: &[usize], regions: &[usize]) -> Option<usize> {
    plans.iter().try_fold(1usize, |cells, &plan| {
        let cells = cells.checked_mul(*regions.get(plan)?)?;
        (cells <= MAX_CELLS).then_some(cells)
    })
}

/// Encode a `/shard/select` request's `products`: each a list of indices
/// into its `partitions`, whose cells the shards count.
pub fn products_to_json(products: &[Vec<usize>]) -> Json {
    let product = |plans: &Vec<usize>| Json::array(plans.iter().map(|&p| Json::from(p)).collect());
    Json::array(products.iter().map(product).collect())
}

/// Decode a `/shard/select` request's `products` against its `plans`: every
/// product names one plan or more, each once and in range, and all of them
/// together make at most `MAX_CELLS` (65 536) cells.
pub fn products_from_json(value: &Json, plans: &[CutPlan]) -> Result<Vec<Vec<usize>>, String> {
    let regions: Vec<usize> = plans
        .iter()
        .map(|plan| plan.partition.region_count())
        .collect();
    let mut cells = 0usize;
    get_items(value, "products")?
        .iter()
        .enumerate()
        .map(|(k, product)| {
            let items = product
                .items()
                .ok_or_else(|| format!("product {k} is not an array"))?;
            let indices = items
                .iter()
                .map(|item| item.index().filter(|&at| at < plans.len()))
                .collect::<Option<Vec<usize>>>()
                .ok_or_else(|| format!("product {k} names no plan of the {}", plans.len()))?;
            let mut distinct = indices.clone();
            distinct.sort_unstable();
            distinct.dedup();
            if indices.is_empty() || distinct.len() != indices.len() {
                return Err(format!(
                    "product {k} must name each of one plan or more once"
                ));
            }
            cells = cell_count(&indices, &regions)
                .and_then(|more| cells.checked_add(more))
                .filter(|&cells| cells <= MAX_CELLS)
                .ok_or_else(|| format!("the products ask for more than {MAX_CELLS} cells"))?;
            Ok(indices)
        })
        .collect()
}

/// Encode a shard's `/shard/select` reply: the segments it answered for,
/// and each requested product's cells summed over them, in request order.
/// A product's cells are row-major over its plans' regions (the first
/// plan's region index most significant): a one-plan product is the plan's
/// region counts, a two-plan product the pair's contingency table.
pub fn count_reply_to_json(segments: &[usize], cells: &[Vec<u64>]) -> Json {
    let counts = |cells: &Vec<u64>| Json::array(cells.iter().map(|&n| Json::from(n)).collect());
    Json::object(vec![
        (
            "segments",
            Json::array(segments.iter().map(|&s| Json::from(s)).collect()),
        ),
        ("cells", Json::array(cells.iter().map(counts).collect())),
    ])
}

/// What a `/shard/select` reply must answer: the segments the shard was
/// asked about (ascending), how many regions each plan of the request
/// makes, the products asked for, and how many working rows the segments
/// hold.
#[derive(Debug, Clone, Copy)]
pub struct CountAsk<'a> {
    /// The shard's segments, ascending.
    pub segments: &'a [usize],
    /// How many regions each plan makes, in request order.
    pub regions: &'a [usize],
    /// The products asked for, as plan indices.
    pub products: &'a [Vec<usize>],
    /// The working rows of `segments`.
    pub working_rows: u64,
}

/// Decode a shard's `/shard/select` reply to `ask`: one list of cells per
/// product, in request order. The reply is held to what the asker can
/// check: it covers exactly the asked segments; each product has one cell
/// per combination of its plans' regions; no product counts more rows than
/// the segments' working rows; and where the reply holds a plan's region
/// counts beside a product of it with other plans, the product's rows in
/// each of that plan's regions number at most the region's count — exactly
/// it where every other plan of the product partitions the working rows.
pub fn count_reply_from_json(reply: &Json, ask: &CountAsk) -> Result<Vec<Vec<u64>>, String> {
    let mut answered = get_items(reply, "segments")?
        .iter()
        .map(|segment| segment.index().ok_or("non-integral segment index"))
        .collect::<Result<Vec<usize>, _>>()?;
    answered.sort_unstable();
    if answered != ask.segments {
        return Err(format!(
            "answered for segments {answered:?}, assigned {:?}",
            ask.segments
        ));
    }
    let products = get_items(reply, "cells")?;
    if products.len() != ask.products.len() {
        return Err(format!(
            "answered {} products, asked for {}",
            products.len(),
            ask.products.len()
        ));
    }
    let cells = products
        .iter()
        .zip(ask.products)
        .enumerate()
        .map(|(k, (cells, plans))| {
            let expected = cell_count(plans, ask.regions)
                .ok_or_else(|| format!("product {k} names a plan that was not asked for"))?;
            let cells = cells
                .items()
                .ok_or_else(|| format!("product {k} is not an array"))?;
            if cells.len() != expected {
                return Err(format!(
                    "product {k} answered {} cells, its plans make {expected}",
                    cells.len()
                ));
            }
            cells
                .iter()
                .map(|n| n.index().map(|n| n as u64))
                .collect::<Option<Vec<u64>>>()
                .ok_or_else(|| format!("product {k} has a cell that is not a count"))
        })
        .collect::<Result<Vec<_>, String>>()?;
    check_counts(ask, &cells)?;
    Ok(cells)
}

/// The invariants of [`count_reply_from_json`] that tie products together.
fn check_counts(ask: &CountAsk, cells: &[Vec<u64>]) -> Result<(), String> {
    let sum = |cells: &[u64]| cells.iter().fold(0u64, |sum, &n| sum.saturating_add(n));
    let single = |plan: usize| {
        let at = ask.products.iter().position(|p| p.as_slice() == [plan])?;
        cells.get(at).map(Vec::as_slice)
    };
    let partitions = |plan: usize| single(plan).is_some_and(|c| sum(c) == ask.working_rows);
    for (k, (plans, cells)) in ask.products.iter().zip(cells).enumerate() {
        let total = sum(cells);
        if total > ask.working_rows {
            return Err(format!(
                "product {k} counts {total} rows, more than the {} working rows of its segments",
                ask.working_rows
            ));
        }
        if plans.len() < 2 {
            continue;
        }
        for (axis, &plan) in plans.iter().enumerate() {
            let Some(counts) = single(plan) else { continue };
            let others = plans.iter().enumerate().filter(|&(at, _)| at != axis);
            let exact = others.map(|(_, &other)| other).all(partitions);
            let marginal = marginal(plans, ask.regions, cells, axis);
            for (region, (&held, &count)) in marginal.iter().zip(counts).enumerate() {
                if held > count || (exact && held != count) {
                    return Err(format!(
                        "product {k} holds {held} rows of plan {plan}'s region {region}, \
                         which counts {count}"
                    ));
                }
            }
        }
    }
    Ok(())
}

/// The cells of the product of `plans` summed onto its `axis`-th plan: how
/// many of the product's rows each of that plan's regions holds.
fn marginal(plans: &[usize], regions: &[usize], cells: &[u64], axis: usize) -> Vec<u64> {
    let width = |at: usize| {
        let plan = plans.get(at).copied().unwrap_or_default();
        regions.get(plan).copied().unwrap_or(1).max(1)
    };
    let stride: usize = (axis + 1..plans.len()).map(width).product();
    let mut held = vec![0u64; width(axis)];
    for (at, &n) in cells.iter().enumerate() {
        if let Some(slot) = held.get_mut(at / stride % width(axis)) {
            *slot = slot.saturating_add(n);
        }
    }
    held
}

/// Encode one entry of a `/shard/select` request's `partitions`: the
/// attribute, and either its ranges — `"kind": "ranges"`, one hex run of
/// `(lo, hi)` bit-pattern pairs — or its value groups — `"kind": "groups"`,
/// an array of string arrays.
pub fn partition_to_json(plan: &CutPlan) -> Json {
    let mut members = vec![("attribute", Json::from(plan.attribute.as_str()))];
    match &plan.partition {
        Partition::Ranges(bounds) => {
            let flat: Vec<f64> = bounds.iter().flat_map(|&(lo, hi)| [lo, hi]).collect();
            members.push(("kind", Json::from("ranges")));
            members.push(("bounds", Json::from(hex_f64s(&flat))));
        }
        Partition::Groups(groups) => {
            let groups = groups
                .iter()
                .map(|group| Json::array(group.iter().map(|v| Json::from(v.as_str())).collect()))
                .collect();
            members.push(("kind", Json::from("groups")));
            members.push(("groups", Json::array(groups)));
        }
    }
    Json::object(members)
}

/// Decode one entry of a `/shard/select` request's `partitions`.
pub fn partition_from_json(value: &Json) -> Result<CutPlan, String> {
    let attribute = get_str(value, "attribute")?.to_string();
    let partition = match get_str(value, "kind")? {
        "ranges" => {
            let flat = parse_hex_f64s(get_str(value, "bounds")?)?;
            let (pairs, rest) = flat.as_chunks::<2>();
            if !rest.is_empty() {
                return Err("odd number of range bounds".to_string());
            }
            Partition::Ranges(pairs.iter().map(|&[lo, hi]| (lo, hi)).collect())
        }
        "groups" => Partition::Groups(
            get_items(value, "groups")?
                .iter()
                .map(|group| {
                    group
                        .items()
                        .ok_or_else(|| "non-array value group".to_string())?
                        .iter()
                        .map(|v| {
                            v.str()
                                .map(String::from)
                                .ok_or_else(|| "non-string group value".to_string())
                        })
                        .collect()
                })
                .collect::<Result<_, String>>()?,
        ),
        other => return Err(format!("unknown partition kind '{other}'")),
    };
    Ok(CutPlan {
        attribute,
        partition,
    })
}

/// Encode the mergeable parts of a column summary: row counts as plain
/// numbers, distinct values by kind (`i64`s and float bit patterns as one hex
/// run, strings natively, booleans as their two row counts) — with, for a
/// counted numeric or string summary, a parallel `counts` run of how many
/// rows hold each. Min and max do not travel: the receiver reads them off the
/// folded value set.
pub fn summary_to_json(parts: &SummaryParts) -> Json {
    let distinct = match &parts.distinct {
        DistinctValues::Numbers(keys) => {
            let kind = match parts.dtype {
                DataType::Int => "ints",
                _ => "floats",
            };
            let mut members = vec![
                ("kind", Json::from(kind)),
                ("values", Json::from(hex_u64s(keys))),
            ];
            if let Some(counts) = &parts.counts {
                members.push(("counts", Json::from(hex_u64s(counts))));
            }
            Json::object(members)
        }
        DistinctValues::Strs(values) => {
            let mut members = vec![
                ("kind", Json::from("strs")),
                (
                    "values",
                    Json::array(values.iter().map(|s| Json::from(s.as_str())).collect()),
                ),
            ];
            if let Some(counts) = &parts.counts {
                members.push(("counts", Json::from(hex_u64s(counts))));
            }
            Json::object(members)
        }
        DistinctValues::Bools { t, f } => Json::object(vec![
            ("kind", Json::from("bools")),
            ("t", Json::from(*t)),
            ("f", Json::from(*f)),
        ]),
    };
    Json::object(vec![
        ("dtype", Json::from(parts.dtype.name())),
        ("non_null", Json::from(parts.non_null)),
        ("nulls", Json::from(parts.nulls)),
        ("distinct", distinct),
    ])
}

/// Decode the optional `counts` run of a distinct set of `listed` values,
/// holding it to what every counted summary
/// ([`atlas_columnar::ColumnSummary::to_parts`]) keeps: one count per value,
/// the counts summing to `non_null`. A run of the wrong length is refused
/// before it is decoded.
fn counts_from_json(
    distinct: &Json,
    listed: usize,
    non_null: usize,
) -> Result<Option<Vec<u64>>, String> {
    let run = match distinct.get("counts") {
        None | Some(Json::Null) => return Ok(None),
        Some(run) => run
            .str()
            .ok_or_else(|| "member \"counts\" must be a hex string or null".to_string())?,
    };
    if run.len() / 16 != listed || !run.len().is_multiple_of(16) {
        return Err(format!(
            "{listed} distinct values but a counts run of {} hex digits",
            run.len()
        ));
    }
    let counts = parse_hex_u64s(run)?;
    let total = counts.iter().try_fold(0u64, |sum, &n| sum.checked_add(n));
    if total != u64::try_from(non_null).ok() {
        return Err(format!(
            "value counts do not sum to the {non_null} non-NULL rows"
        ));
    }
    Ok(Some(counts))
}

/// Decode column-summary parts produced by [`summary_to_json`]. The distinct
/// kind must be the one the `dtype` calls for: summaries of mismatched kinds
/// cannot be merged.
pub fn summary_from_json(value: &Json) -> Result<SummaryParts, String> {
    let dtype = dtype_from_name(get_str(value, "dtype")?)?;
    let non_null = get_index(value, "non_null")?;
    let distinct_json = value
        .get("distinct")
        .ok_or_else(|| "missing member \"distinct\"".to_string())?;
    let mut counts = None;
    let distinct = match (get_str(distinct_json, "kind")?, dtype) {
        ("ints", DataType::Int) | ("floats", DataType::Float) => {
            let keys = parse_hex_u64s(get_str(distinct_json, "values")?)?;
            counts = counts_from_json(distinct_json, keys.len(), non_null)?;
            // Counted numbers: every value is held by some row, and they
            // travel in ascending key order.
            if let Some(counts) = &counts {
                if counts.contains(&0) {
                    return Err("a counted distinct value has a zero count".to_string());
                }
                if !keys.is_sorted_by(|a, b| a < b) {
                    return Err("counted distinct values are not strictly ascending".to_string());
                }
            }
            DistinctValues::Numbers(keys)
        }
        ("strs", DataType::Str) => {
            let values: Vec<String> = get_items(distinct_json, "values")?
                .iter()
                .map(|v| {
                    v.str()
                        .map(String::from)
                        .ok_or_else(|| "non-string distinct value".to_string())
                })
                .collect::<Result<_, _>>()?;
            counts = counts_from_json(distinct_json, values.len(), non_null)?;
            // Counted strings: dictionary order, zeros allowed, and — what the
            // order means — no value listed twice.
            if counts.is_some() {
                let mut seen = HashSet::with_capacity(values.len());
                if let Some(twice) = values.iter().find(|value| !seen.insert(value.as_str())) {
                    return Err(format!("counted distinct value '{twice}' is listed twice"));
                }
            }
            DistinctValues::Strs(values)
        }
        ("bools", DataType::Bool) => {
            let (t, f) = (
                get_index(distinct_json, "t")?,
                get_index(distinct_json, "f")?,
            );
            if t.checked_add(f) != Some(non_null) {
                return Err(format!(
                    "value counts do not sum to the {non_null} non-NULL rows"
                ));
            }
            DistinctValues::Bools { t, f }
        }
        (kind, _) => {
            return Err(format!(
                "distinct kind '{kind}' is not the kind of a {} column",
                dtype.name()
            ))
        }
    };
    Ok(SummaryParts {
        dtype,
        non_null,
        nulls: get_index(value, "nulls")?,
        distinct,
        counts,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire;
    use atlas_columnar::{Column, ColumnSummary};
    use proptest::prelude::*;

    /// The first codec of this module, kept as a reference: one `format!`
    /// per word out, one `from_str_radix` per 16-digit chunk in.
    fn reference_hex_u64s(values: &[u64]) -> String {
        values.iter().map(|v| format!("{v:016x}")).collect()
    }

    fn reference_parse_hex_u64s(text: &str) -> Option<Vec<u64>> {
        if !text.len().is_multiple_of(16) || !text.bytes().all(|b| b.is_ascii_hexdigit()) {
            return None;
        }
        (0..text.len() / 16)
            .map(|i| u64::from_str_radix(&text[i * 16..(i + 1) * 16], 16).ok())
            .collect()
    }

    /// The per-byte codec the word-at-a-time one replaced, kept as its
    /// oracle: one digit written per step, one table lookup per digit read.
    fn per_byte_hex_u64s(values: &[u64]) -> String {
        let digit = |nibble: u64| match nibble & 0x0f {
            n @ 0..=9 => b'0' + n as u8,
            n => b'a' + (n - 10) as u8,
        };
        let digits = values
            .iter()
            .flat_map(|&word| (0..16).map(move |i| digit(word >> (60 - 4 * i))));
        String::from_utf8(digits.collect()).unwrap()
    }

    const PER_BYTE_TABLE: [u8; 256] = {
        let mut table = [0xff; 256];
        let mut byte = 0;
        while byte < 256 {
            table[byte] = match byte as u8 {
                b @ b'0'..=b'9' => b - b'0',
                b @ b'a'..=b'f' => b - b'a' + 10,
                b @ b'A'..=b'F' => b - b'A' + 10,
                _ => 0xff,
            };
            byte += 1;
        }
        table
    };

    fn per_byte_parse_hex_word(chunk: &[u8]) -> Option<u64> {
        let mut word = 0u64;
        let mut seen = 0u8;
        for &byte in chunk {
            let value = PER_BYTE_TABLE[usize::from(byte)];
            seen |= value;
            word = (word << 4) | u64::from(value & 0x0f);
        }
        (seen & 0xf0 == 0).then_some(word)
    }

    fn per_byte_parse_hex_u64s(bytes: &[u8]) -> Option<Vec<u64>> {
        if !bytes.len().is_multiple_of(16) {
            return None;
        }
        bytes
            .chunks_exact(16)
            .map(per_byte_parse_hex_word)
            .collect()
    }

    /// `run` with the letters whose bit in `pattern` (cycled) is set
    /// upper-cased.
    fn mixed_case(run: &str, pattern: u64) -> String {
        run.chars()
            .enumerate()
            .map(|(i, c)| match pattern >> (i % 64) & 1 {
                1 => c.to_ascii_uppercase(),
                _ => c,
            })
            .collect()
    }

    /// The two halves of a 16-byte chunk, as the decoder takes them.
    fn halves(chunk: &[u8; 16]) -> ([u8; 8], [u8; 8]) {
        let (high, low) = chunk.split_at(8);
        (high.try_into().unwrap(), low.try_into().unwrap())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn hex_runs_round_trip_and_match_the_reference(
            values in proptest::collection::vec(any::<u64>(), 0..80),
            pattern in any::<u64>(),
        ) {
            let run = hex_u64s(&values);
            prop_assert_eq!(&run, &reference_hex_u64s(&values));
            prop_assert_eq!(&run, &per_byte_hex_u64s(&values));
            prop_assert_eq!(hex_f64s(&values.iter().map(|&v| f64::from_bits(v)).collect::<Vec<_>>()), run.clone());
            prop_assert_eq!(parse_hex_u64s(&run).unwrap(), values.clone());
            // Upper- and mixed-case digits decode to the same words.
            let mixed = mixed_case(&run, pattern);
            prop_assert_eq!(parse_hex_u64s(&mixed).unwrap(), values.clone());
            prop_assert_eq!(per_byte_parse_hex_u64s(mixed.as_bytes()), Some(values.clone()));
            prop_assert_eq!(parse_hex_u64s(&run.to_ascii_uppercase()).unwrap(), values);
        }

        #[test]
        fn decoding_agrees_with_the_reference_at_every_length_and_case(
            text in "[0-9a-fA-F]{0,50}",
        ) {
            let decoded = parse_hex_u64s(&text);
            prop_assert_eq!(decoded.clone().ok(), reference_parse_hex_u64s(&text));
            prop_assert_eq!(decoded.clone().ok(), per_byte_parse_hex_u64s(text.as_bytes()));
            if !text.len().is_multiple_of(16) {
                prop_assert!(decoded.unwrap_err().contains("multiple of 16"));
            }
        }

        #[test]
        fn one_bad_byte_anywhere_rejects_the_run(
            values in proptest::collection::vec(any::<u64>(), 1..20),
            at in 0usize..320,
            bad in prop_oneof![Just('+'), Just('g'), Just('G'), Just(' '), Just('/'), Just(':'), Just('@'), Just('`')],
        ) {
            let mut run = hex_u64s(&values).into_bytes();
            let at = at % run.len();
            run[at] = bad as u8;
            let run = String::from_utf8(run).unwrap();
            prop_assert!(parse_hex_u64s(&run).is_err());
            prop_assert!(reference_parse_hex_u64s(&run).is_none());
            prop_assert!(per_byte_parse_hex_u64s(run.as_bytes()).is_none());
        }

        /// Every byte value at every offset of a mixed-case word — the
        /// neighbours of the digit ranges (`/ : @ G g` and the backtick),
        /// 0x7f, 0x80 and the lead and continuation bytes of multi-byte
        /// scalars among them — is accepted or refused by the word decoder
        /// exactly as by the per-byte one, and decodes to the same word when
        /// accepted.
        #[test]
        fn every_byte_at_every_offset_is_judged_like_the_per_byte_decoder(
            word in any::<u64>(),
            pattern in any::<u64>(),
        ) {
            let digits = mixed_case(&hex_u64s(&[word]), pattern);
            let clean: [u8; 16] = digits.as_bytes().try_into().unwrap();
            for at in 0..16 {
                for byte in 0..=u8::MAX {
                    let mut chunk = clean;
                    chunk[at] = byte;
                    let (high, low) = halves(&chunk);
                    prop_assert_eq!(
                        parse_hex_word(high, low),
                        per_byte_parse_hex_word(&chunk),
                        "byte {:#04x} at {}", byte, at
                    );
                }
            }
        }

        /// A multi-byte scalar written over a run (the byte length kept) is
        /// refused wherever it lands, straddling a half or a word included.
        #[test]
        fn a_multi_byte_scalar_anywhere_rejects_the_run(
            values in proptest::collection::vec(any::<u64>(), 2..4),
            pattern in any::<u64>(),
            scalar in prop_oneof![Just('é'), Just('€'), Just('🦀'), Just('\u{80}')],
        ) {
            let run = mixed_case(&hex_u64s(&values), pattern);
            let width = scalar.len_utf8();
            for at in 0..=16 {
                let text = format!("{}{scalar}{}", &run[..at], &run[at + width..]);
                prop_assert_eq!(text.len(), run.len());
                prop_assert!(parse_hex_u64s(&text).unwrap_err().contains("non-hex"));
                prop_assert!(per_byte_parse_hex_u64s(text.as_bytes()).is_none());
                if at + width <= 16 {
                    prop_assert!(parse_hex_f64s(&text[..16]).is_err());
                }
            }
        }
    }

    #[test]
    fn hex_decoding_keeps_every_rejection() {
        let word = "0123456789abcdef";
        // `from_str_radix` alone would take a leading '+'; the run must not.
        assert!(parse_hex_u64s("+123456789abcdef").is_err());
        assert!(parse_hex_f64s("+123456789abcdef").is_err());
        assert!(parse_hex_u64s("0123456789abcdeg").is_err());
        // A non-ASCII scalar that keeps the byte length at 16.
        assert!(parse_hex_u64s("0123456789abcd\u{e9}").is_err());
        assert!(parse_hex_f64s("0123456789abcd\u{e9}").is_err());
        // Lengths 15 and 17 name the truncation.
        for bad in [&word[..15], "0123456789abcdef0"] {
            let err = parse_hex_u64s(bad).unwrap_err();
            assert!(err.contains("multiple of 16"), "{err}");
        }
        // A wrong word count for the declared bitmap length.
        let short = Json::object(vec![
            ("len", Json::from(65usize)),
            ("words", Json::from(hex_u64s(&[1]))),
        ]);
        assert!(bitmap_from_json(&short).unwrap_err().contains("needs 2"));
        assert_eq!(
            parse_hex_u64s("0123456789ABCDEF").unwrap(),
            [0x0123_4567_89ab_cdef]
        );
    }

    #[test]
    fn f64_bit_patterns_round_trip_exactly() {
        for x in [
            0.0,
            -0.0,
            1.5,
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            0.1 + 0.2,
        ] {
            let back = parse_hex_f64s(&hex_f64s(&[x])).unwrap();
            assert_eq!(back.len(), 1);
            assert_eq!(back[0].to_bits(), x.to_bits());
        }
    }

    #[test]
    fn truncated_and_corrupt_hex_runs_are_rejected() {
        assert!(parse_hex_f64s("abc").is_err());
        assert!(parse_hex_f64s("zzzzzzzzzzzzzzzz").is_err());
        assert!(parse_hex_u64s("0123456789abcdef0").is_err()); // 17 digits
        assert!(parse_hex_u64s("0123456789abcdeg").is_err()); // non-hex
        assert!(parse_hex_f64s("00").is_err());
        assert_eq!(parse_hex_u64s("").unwrap(), Vec::<u64>::new());
    }

    #[test]
    fn bulk_values_round_trip_through_encoded_json() {
        let values = vec![-1.25, 0.0, f64::from_bits(0x7ff8_0000_dead_beef), 3e300];
        let frame = Json::object(vec![("values", Json::from(hex_f64s(&values)))]);
        let parsed = wire::parse(&frame.encode()).unwrap();
        let back = parse_hex_f64s(get_str(&parsed, "values").unwrap()).unwrap();
        let bits: Vec<u64> = back.iter().map(|x| x.to_bits()).collect();
        let expected: Vec<u64> = values.iter().map(|x| x.to_bits()).collect();
        assert_eq!(bits, expected);
    }

    #[test]
    fn bitmaps_round_trip_and_validate_word_counts() {
        let bitmap = Bitmap::from_indices(130, [0usize, 63, 64, 129]);
        let back = bitmap_from_json(&bitmap_to_json(&bitmap)).unwrap();
        assert_eq!(back, bitmap);
        // A word run that does not match the declared length is rejected.
        let bad = Json::object(vec![
            ("len", Json::from(130usize)),
            ("words", Json::from(hex_u64s(&[1u64]))),
        ]);
        assert!(bitmap_from_json(&bad).is_err());
    }

    #[test]
    fn summaries_round_trip_bit_for_bit_including_nan_distincts() {
        let floats = vec![0, f64::NAN.to_bits(), (-0.0f64).to_bits()];
        let plain = SummaryParts {
            dtype: DataType::Float,
            non_null: 7,
            nulls: 2,
            distinct: DistinctValues::Numbers(floats),
            counts: None,
        };
        let counted = SummaryParts {
            counts: Some(vec![4, 1, 2]),
            ..plain.clone()
        };
        let ints = SummaryParts {
            dtype: DataType::Int,
            distinct: DistinctValues::Numbers(vec![0, i64::MAX as u64, i64::MIN as u64, u64::MAX]),
            counts: Some(vec![1, 1, 1, 4]),
            ..plain.clone()
        };
        for parts in [plain, counted, ints] {
            let encoded = summary_to_json(&parts).encode();
            let back = summary_from_json(&wire::parse(&encoded).unwrap()).unwrap();
            assert_eq!(back, parts);
        }

        let strs = DistinctValues::Strs(vec!["a\"b".into(), "π".into(), String::new()]);
        for (dtype, distinct, counts) in [
            (DataType::Str, strs.clone(), None),
            (DataType::Str, strs, Some(vec![3, 0, 1])),
            (DataType::Bool, DistinctValues::Bools { t: 4, f: 0 }, None),
        ] {
            let parts = SummaryParts {
                dtype,
                non_null: 4,
                nulls: 0,
                distinct,
                counts,
            };
            let encoded = summary_to_json(&parts).encode();
            let back = summary_from_json(&wire::parse(&encoded).unwrap()).unwrap();
            assert_eq!(back, parts);
        }
    }

    /// A counted three-value integer summary frame (`1 × 2, 5 × 1, 9 × 3`).
    fn counted_frame() -> Json {
        summary_to_json(&SummaryParts {
            dtype: DataType::Int,
            non_null: 6,
            nulls: 0,
            distinct: DistinctValues::Numbers(vec![1, 5, 9]),
            counts: Some(vec![2, 1, 3]),
        })
    }

    /// `frame` with `member` (of the top level, or of its `distinct` object)
    /// replaced.
    fn with_member(frame: &Json, member: &str, replacement: Json) -> Json {
        let Json::Obj(members) = frame else {
            panic!("summary frames are objects")
        };
        let replaced = members.iter().map(|(k, v)| match k.as_str() {
            k if k == member => (k.to_string(), replacement.clone()),
            "distinct" => (k.clone(), with_member(v, member, replacement.clone())),
            _ => (k.clone(), v.clone()),
        });
        Json::Obj(replaced.collect())
    }

    #[test]
    fn summary_decoding_rejects_malformed_frames() {
        let good = counted_frame();
        assert!(summary_from_json(&good).is_ok());
        // Corrupt one member at a time.
        for (key, replacement) in [
            ("dtype", Json::from("decimal")),
            // Well-formed, but not the kind of column the distinct set is of:
            // the fold would meet summaries it cannot merge.
            ("dtype", Json::from("float")),
            ("dtype", Json::from("str")),
            ("nulls", Json::from("0")),
            ("non_null", Json::from(-1i64)),
            ("kind", Json::from("sets")),
            ("kind", Json::from("bools")),
            ("values", Json::from("12")),
            ("distinct", Json::Null),
        ] {
            assert!(
                summary_from_json(&with_member(&good, key, replacement)).is_err(),
                "corrupt {key} must be rejected"
            );
        }
        assert!(summary_from_json(&Json::Null).is_err());
    }

    #[test]
    fn a_counts_run_of_another_length_than_the_values_is_rejected() {
        for counts in [
            hex_u64s(&[2, 4]),
            hex_u64s(&[2, 1, 2, 1]),
            String::new(),
            // 47 and 49 digits: three values' worth, give or take one.
            hex_u64s(&[2, 1, 3])[1..].to_string(),
            hex_u64s(&[2, 1, 3]) + "0",
        ] {
            let frame = with_member(&counted_frame(), "counts", Json::from(counts.as_str()));
            let err = summary_from_json(&frame).unwrap_err();
            assert!(err.contains("3 distinct values"), "{counts}: {err}");
        }
        // Not a run at all.
        let frame = with_member(&counted_frame(), "counts", Json::from(6usize));
        assert!(summary_from_json(&frame)
            .unwrap_err()
            .contains("hex string"));
        // An explicit null is the plain form.
        let frame = with_member(&counted_frame(), "counts", Json::Null);
        assert_eq!(summary_from_json(&frame).unwrap().counts, None);
    }

    #[test]
    fn a_zero_count_is_rejected() {
        let frame = with_member(
            &with_member(&counted_frame(), "counts", Json::from(hex_u64s(&[2, 0, 3]))),
            "non_null",
            Json::from(5usize),
        );
        let err = summary_from_json(&frame).unwrap_err();
        assert!(err.contains("zero count"), "{err}");
    }

    #[test]
    fn counted_values_that_do_not_ascend_strictly_are_rejected() {
        for values in [[1u64, 9, 5], [1, 5, 5], [5, 1, 9]] {
            let frame = with_member(&counted_frame(), "values", Json::from(hex_u64s(&values)));
            let err = summary_from_json(&frame).unwrap_err();
            assert!(err.contains("strictly ascending"), "{values:?}: {err}");
            // A plain set is a set however it is listed.
            let plain = with_member(&frame, "counts", Json::Null);
            assert!(summary_from_json(&plain).is_ok());
        }
    }

    #[test]
    fn counts_that_do_not_sum_to_the_non_null_rows_are_rejected() {
        for counts in [
            [2u64, 1, 2],
            [2, 1, 4],
            [u64::MAX, 1, 6],
            [1 << 63, 1 << 63, 6],
        ] {
            let frame = with_member(&counted_frame(), "counts", Json::from(hex_u64s(&counts)));
            let err = summary_from_json(&frame).unwrap_err();
            assert!(err.contains("do not sum"), "{counts:?}: {err}");
        }
    }

    /// A counted three-value string summary frame in dictionary order
    /// (`"b" × 2, "a" × 0, "c" × 4`).
    fn counted_strs_frame() -> Json {
        summary_to_json(&SummaryParts {
            dtype: DataType::Str,
            non_null: 6,
            nulls: 1,
            distinct: DistinctValues::Strs(vec!["b".into(), "a".into(), "c".into()]),
            counts: Some(vec![2, 0, 4]),
        })
    }

    #[test]
    fn hostile_counted_string_frames_get_the_errors_of_their_numeric_twins() {
        let good = counted_strs_frame();
        let parts = summary_from_json(&good).unwrap();
        assert_eq!(parts.counts, Some(vec![2, 0, 4]), "a zero count is a fact");
        let strs = |values: &[&str]| Json::array(values.iter().map(|v| Json::from(*v)).collect());
        // A counts run of another length than the values.
        for counts in [
            hex_u64s(&[2, 4]),
            hex_u64s(&[2, 0, 3, 1]),
            String::new(),
            hex_u64s(&[2, 0, 4])[1..].to_string(),
            hex_u64s(&[2, 0, 4]) + "0",
        ] {
            let frame = with_member(&good, "counts", Json::from(counts.as_str()));
            let err = summary_from_json(&frame).unwrap_err();
            assert!(err.contains("3 distinct values"), "{counts}: {err}");
        }
        let frame = with_member(&good, "values", strs(&["b", "a"]));
        let err = summary_from_json(&frame).unwrap_err();
        assert!(err.contains("2 distinct values"), "{err}");
        let frame = with_member(&good, "counts", Json::from(6usize));
        assert!(summary_from_json(&frame)
            .unwrap_err()
            .contains("hex string"));
        // A value listed twice: the counts have no order to be in.
        for values in [["b", "b", "c"], ["b", "a", "b"], ["", "a", ""]] {
            let frame = with_member(&good, "values", strs(&values));
            let err = summary_from_json(&frame).unwrap_err();
            assert!(err.contains("listed twice"), "{values:?}: {err}");
            // A plain set is a set however it is listed.
            let plain = with_member(&frame, "counts", Json::Null);
            assert_eq!(summary_from_json(&plain).unwrap().counts, None);
        }
        // Counts that do not sum to the non-NULL rows.
        for counts in [
            [2u64, 0, 3],
            [2, 1, 4],
            [u64::MAX, 1, 6],
            [1 << 63, 1 << 63, 6],
        ] {
            let frame = with_member(&good, "counts", Json::from(hex_u64s(&counts)));
            let err = summary_from_json(&frame).unwrap_err();
            assert!(err.contains("do not sum"), "{counts:?}: {err}");
        }
        // A value that is not a string, counted or not.
        let mixed = Json::array(vec![Json::from("b"), Json::from(7usize), Json::from("c")]);
        for frame in [
            with_member(&good, "values", mixed.clone()),
            with_member(&with_member(&good, "values", mixed), "counts", Json::Null),
        ] {
            let err = summary_from_json(&frame).unwrap_err();
            assert!(err.contains("non-string distinct value"), "{err}");
        }
        // Boolean row counts are held to the same sum.
        let bools = summary_to_json(&SummaryParts {
            dtype: DataType::Bool,
            non_null: 5,
            nulls: 0,
            distinct: DistinctValues::Bools { t: 3, f: 2 },
            counts: None,
        });
        assert!(summary_from_json(&bools).is_ok());
        for (key, replacement) in [
            ("t", Json::from(2usize)),
            ("f", Json::from(usize::MAX)),
            ("non_null", Json::from(6usize)),
        ] {
            let err = summary_from_json(&with_member(&bools, key, replacement)).unwrap_err();
            assert!(err.contains("do not sum"), "{key}: {err}");
        }
        let flags = with_member(&bools, "t", Json::Bool(true));
        assert!(summary_from_json(&flags).unwrap_err().contains("\"t\""));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Counted and plain numeric summaries alike: `to_parts` → JSON text
        /// → `from_parts` gives a summary that collapses and merges exactly
        /// like the one that was sent, value counts included.
        #[test]
        fn numeric_summaries_survive_the_wire_counts_included(
            raws in proptest::collection::vec(0u64..u64::MAX, 0..2500),
            cardinality in prop_oneof![Just(1u64), Just(70u64), 900u64..1200, Just(1u64 << 40)],
            float in any::<bool>(),
            split in 0usize..2500,
        ) {
            let column = |raws: &[u64]| {
                let values = raws.iter().map(|raw| (raw % 11 != 0).then_some(raw % cardinality));
                if float {
                    let lanes: Vec<Option<f64>> = values
                        .map(|v| v.map(|v| if v == 3 { -0.0 } else { v as f64 / 4.0 }))
                        .collect();
                    Column::Float(lanes.into())
                } else {
                    let lanes: Vec<Option<i64>> = values.map(|v| v.map(|v| v as i64 - 5)).collect();
                    Column::Int(lanes.into())
                }
            };
            let summarize = |raws: &[u64]| {
                ColumnSummary::compute(&column(raws), &Bitmap::new_full(raws.len()), 0)
            };
            let (head, tail) = raws.split_at(split.min(raws.len()));
            let sent = summarize(head);
            let parts = sent.to_parts();
            let text = summary_to_json(&parts).encode();
            let received = summary_from_json(&wire::parse(&text).unwrap()).unwrap();
            prop_assert_eq!(&received, &parts);

            let rebuilt = ColumnSummary::from_parts(received);
            prop_assert_eq!(rebuilt.to_parts(), parts);
            prop_assert_eq!(rebuilt.to_stats(), sent.to_stats());
            // … and folds with the next segment's summary like the original.
            let next = summarize(tail);
            let (mut local, mut remote) = (sent, rebuilt);
            local.merge_from(&next);
            remote.merge_from(&next);
            prop_assert_eq!(remote.to_parts(), local.to_parts());
            prop_assert_eq!(remote.to_stats(), local.to_stats());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The string twin: a summary with category counts (or, past the
        /// counter, without) crosses the wire and then collapses and folds
        /// with the next segment's like the one that was sent.
        #[test]
        fn string_summaries_survive_the_wire_counts_included(
            raws in proptest::collection::vec(0u32..1 << 20, 0..2500),
            cardinality in prop_oneof![Just(1u32), Just(9u32), 900u32..1200, Just(1u32 << 12)],
            split in 0usize..2500,
        ) {
            let summarize = |raws: &[u32]| {
                let mut d = atlas_columnar::column::DictColumn::new();
                for raw in raws {
                    let value = (raw % 11 != 0).then(|| format!("v\"{}", raw % cardinality));
                    d.push(value.as_deref());
                }
                // Two rows in three selected: zero counts occur.
                let sel = Bitmap::from_fn(raws.len(), |row| row % 3 != 1);
                ColumnSummary::compute(&Column::Str(d), &sel, 0)
            };
            let (head, tail) = raws.split_at(split.min(raws.len()));
            let sent = summarize(head);
            let parts = sent.to_parts();
            let text = summary_to_json(&parts).encode();
            let received = summary_from_json(&wire::parse(&text).unwrap()).unwrap();
            prop_assert_eq!(&received, &parts);

            let rebuilt = ColumnSummary::from_parts(received);
            prop_assert_eq!(rebuilt.to_parts(), parts);
            prop_assert_eq!(rebuilt.to_stats(), sent.to_stats());
            let next = summarize(tail);
            let (mut local, mut remote) = (sent, rebuilt);
            local.merge_from(&next);
            remote.merge_from(&next);
            prop_assert_eq!(remote.to_parts(), local.to_parts());
            prop_assert_eq!(remote.to_stats(), local.to_stats());
        }
    }

    /// The products an explore's candidates round asks for over `n` plans:
    /// each plan alone, then every pair.
    fn singles_and_pairs(n: usize) -> Vec<Vec<usize>> {
        let singles = (0..n).map(|p| vec![p]);
        let pairs = (0..n).flat_map(|p| (p + 1..n).map(move |q| vec![p, q]));
        singles.chain(pairs).collect()
    }

    /// A count reply through encode → JSON text → decode against `ask`.
    fn count_round_trip(cells: &[Vec<u64>], ask: &CountAsk) -> Result<Vec<Vec<u64>>, String> {
        let text = count_reply_to_json(ask.segments, cells).encode();
        count_reply_from_json(&wire::parse(&text).unwrap(), ask)
    }

    /// The cells of the products of two cuts of 12 rows, of 3 and 2
    /// regions: `a` partitions the rows, `b` misses row 11 (a NULL).
    fn two_cut_cells() -> Vec<Vec<u64>> {
        let a = |row: u64| row % 3;
        let b = |row: u64| (row != 11).then_some(row / 6);
        let mut cells = vec![vec![0; 3], vec![0; 2], vec![0; 6]];
        for row in 0..12 {
            cells[0][a(row) as usize] += 1;
            if let Some(b) = b(row) {
                cells[1][b as usize] += 1;
                cells[2][(a(row) * 2 + b) as usize] += 1;
            }
        }
        cells
    }

    #[test]
    fn count_replies_round_trip_through_encoded_json() {
        let cells = two_cut_cells();
        assert_eq!(
            cells,
            vec![vec![4, 4, 4], vec![6, 5], vec![2, 2, 2, 2, 2, 1]]
        );
        let products = singles_and_pairs(2);
        let ask = CountAsk {
            segments: &[3, 7],
            regions: &[3, 2],
            products: &products,
            working_rows: 12,
        };
        assert_eq!(count_round_trip(&cells, &ask), Ok(cells.clone()));
        // The segments may come in any order; the spans a traced shard
        // appends are not the reply's business.
        let shuffled = Json::object(vec![
            (
                "cells",
                count_reply_to_json(&[], &cells)
                    .get("cells")
                    .unwrap()
                    .clone(),
            ),
            ("spans", Json::array(vec![])),
            (
                "segments",
                Json::array(vec![Json::from(7usize), Json::from(3usize)]),
            ),
        ]);
        assert_eq!(count_reply_from_json(&shuffled, &ask), Ok(cells));
        // A product of three plans, and a request of no product at all.
        let triple = vec![vec![0, 1, 2]];
        let ask = CountAsk {
            segments: &[0],
            regions: &[2, 2, 2],
            products: &triple,
            working_rows: 8,
        };
        let cells = vec![(0..8u64).map(|n| n % 2).collect()];
        assert_eq!(count_round_trip(&cells, &ask), Ok(cells));
        let ask = CountAsk {
            products: &[],
            ..ask
        };
        assert_eq!(count_round_trip(&[], &ask), Ok(Vec::new()));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Any rows dealt into any cuts, NULLs or not: the singles and
        /// pairs a shard counts decode to what it sent, and a marginal of a
        /// pair is its cut's counts exactly when the other cut has no NULL.
        #[test]
        fn count_replies_round_trip_at_any_arity(
            rows in 0u64..200,
            seed in any::<u64>(),
            regions in proptest::collection::vec(1usize..5, 1..5),
            nulls in any::<bool>(),
        ) {
            let label = |cut: usize, row: u64| {
                let h = ((row ^ seed ^ cut as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize;
                (!nulls || !h.is_multiple_of(17)).then_some(h % regions[cut])
            };
            let products = singles_and_pairs(regions.len());
            let cells: Vec<Vec<u64>> = products
                .iter()
                .map(|plans| {
                    let width = |at: usize| regions[plans[at]];
                    let mut cells = vec![0; plans.iter().map(|&p| regions[p]).product()];
                    for row in 0..rows {
                        let labels: Option<Vec<usize>> =
                            plans.iter().map(|&p| label(p, row)).collect();
                        if let Some(labels) = labels {
                            let at = labels.iter().enumerate().fold(0, |at, (k, &l)| at * width(k) + l);
                            cells[at] += 1;
                        }
                    }
                    cells
                })
                .collect();
            let ask = CountAsk {
                segments: &[0, 1],
                regions: &regions,
                products: &products,
                working_rows: rows,
            };
            prop_assert_eq!(count_round_trip(&cells, &ask), Ok(cells));
        }
    }

    /// `frame` with its top-level member `key` set to `value` (added when
    /// absent).
    fn with_top_member(frame: &Json, key: &str, value: Json) -> Json {
        let Json::Obj(members) = frame else {
            panic!("partials are objects")
        };
        let mut members: Vec<(String, Json)> =
            members.iter().filter(|(k, _)| k != key).cloned().collect();
        members.push((key.to_string(), value));
        Json::Obj(members)
    }

    #[test]
    fn hostile_count_replies_get_typed_errors() {
        let cells = two_cut_cells();
        let products = singles_and_pairs(2);
        let ask = CountAsk {
            segments: &[3, 7],
            regions: &[3, 2],
            products: &products,
            working_rows: 12,
        };
        let good = count_reply_to_json(ask.segments, &cells);
        assert_eq!(count_reply_from_json(&good, &ask), Ok(cells.clone()));
        let refuse = |reply: &Json, ask: &CountAsk, needle: &str| {
            let err = count_reply_from_json(reply, ask).unwrap_err();
            assert!(err.contains(needle), "{needle}: {err}");
        };
        let with_cells = |cells: &[Vec<u64>]| count_reply_to_json(ask.segments, cells);
        // Other segments than the shard's, or none named at all.
        refuse(&count_reply_to_json(&[3], &cells), &ask, "assigned [3, 7]");
        refuse(
            &count_reply_to_json(&[3, 7, 8], &cells),
            &ask,
            "assigned [3, 7]",
        );
        refuse(
            &with_top_member(&good, "segments", Json::array(vec![Json::from("3")])),
            &ask,
            "segment index",
        );
        refuse(
            &Json::object(vec![("cells", Json::array(vec![]))]),
            &ask,
            "\"segments\"",
        );
        // Another number of products, or of a product's cells.
        refuse(
            &with_cells(&cells[..2]),
            &ask,
            "answered 2 products, asked for 3",
        );
        let mut short = cells.clone();
        short[2].pop();
        refuse(
            &with_cells(&short),
            &ask,
            "product 2 answered 5 cells, its plans make 6",
        );
        refuse(
            &with_top_member(&good, "cells", Json::array(vec![Json::from(1usize); 3])),
            &ask,
            "product 0 is not an array",
        );
        // A cell that is not a count.
        for bad in [
            Json::from(-1.0),
            Json::from(0.5),
            Json::from("4"),
            Json::Null,
        ] {
            let mut items: Vec<Json> = cells[0].iter().map(|&n| Json::from(n)).collect();
            items[1] = bad;
            let mut products: Vec<Json> = cells
                .iter()
                .map(|c| Json::array(c.iter().map(|&n| Json::from(n)).collect()))
                .collect();
            products[0] = Json::array(items);
            let reply = with_top_member(&good, "cells", Json::array(products));
            refuse(&reply, &ask, "product 0 has a cell that is not a count");
        }
        // A cut counting more rows than the segments' working rows — the
        // first count raised past them.
        let mut raised = cells.clone();
        raised[0][0] += 1;
        refuse(
            &with_cells(&raised),
            &ask,
            "product 0 counts 13 rows, more than the 12 working rows",
        );
        // A pair whose sums onto a cut disagree with its counts: row 0 of
        // the pair holds 5 rows of `a`'s region 0, which counts 4 …
        let mut over = cells.clone();
        over[2][0] += 1;
        over[2][3] -= 1;
        refuse(
            &with_cells(&over),
            &ask,
            "holds 5 rows of plan 0's region 0, which counts 4",
        );
        // … or, since `a` partitions the rows, fewer of `b`'s region 0 than
        // it counts. (`b` misses a row, so `a`'s region 2 may hold fewer than
        // its 4 rows: the good reply's holds 3.)
        let mut under = cells.clone();
        under[2][0] -= 1;
        refuse(
            &with_cells(&under),
            &ask,
            "holds 5 rows of plan 1's region 0, which counts 6",
        );
        // A request's products are held to its plans, and so is a reply.
        let plans = vec![
            CutPlan {
                attribute: "a".to_string(),
                partition: Partition::Ranges(vec![(0.0, 1.0), (2.0, 3.0), (4.0, 5.0)]),
            },
            CutPlan {
                attribute: "b".to_string(),
                partition: Partition::Groups(vec![vec!["x".to_string()], vec!["y".to_string()]]),
            },
        ];
        let request = |products: Json| Json::object(vec![("products", products)]);
        let sent = request(products_to_json(&products));
        assert_eq!(products_from_json(&sent, &plans), Ok(products.clone()));
        for (bad, needle) in [
            (vec![vec![2]], "product 0 names no plan of the 2"),
            (
                vec![vec![0], vec![]],
                "product 1 must name each of one plan or more once",
            ),
            (
                vec![vec![1, 1]],
                "product 0 must name each of one plan or more once",
            ),
        ] {
            let err = products_from_json(&request(products_to_json(&bad)), &plans).unwrap_err();
            assert!(err.contains(needle), "{needle}: {err}");
        }
        let many = vec![vec![0, 1]; MAX_CELLS / 6 + 1];
        let err = products_from_json(&request(products_to_json(&many)), &plans).unwrap_err();
        assert!(err.contains("more than 65536 cells"), "{err}");
        let unknown = vec![vec![0, 2]];
        let ask = CountAsk {
            products: &unknown,
            ..ask
        };
        refuse(
            &with_cells(&cells[2..]),
            &ask,
            "product 0 names a plan that was not asked for",
        );
    }

    /// The schema the working partials of these tests are decoded against …
    fn working_fields() -> Vec<(String, DataType)> {
        vec![
            ("n".to_string(), DataType::Int),
            ("c".to_string(), DataType::Str),
        ]
    }

    /// … and a summary of each of its columns, both over 7 rows.
    fn working_columns() -> Vec<SummaryParts> {
        let mut columns: Vec<SummaryParts> = [counted_frame(), counted_strs_frame()]
            .iter()
            .map(|frame| summary_from_json(frame).unwrap())
            .collect();
        columns[0].nulls = 1;
        columns
    }

    /// A working partial is the segment's count and its summaries: no rows,
    /// whether the query selects the segment in part, whole or not at all.
    /// It decodes against any segment at least as long as its count.
    #[test]
    fn working_partials_ship_counts_not_rows() {
        let fields = working_fields();
        let empty: Vec<SummaryParts> = fields
            .iter()
            .map(|(_, dtype)| ColumnSummary::empty(*dtype).to_parts())
            .collect();
        for (count, columns, rows) in [
            (7, working_columns(), 100),
            (7, working_columns(), 7),
            (0, empty.clone(), 100),
            (0, empty, 0),
        ] {
            let text = working_partial_to_json(2, count, &columns).encode();
            let json = wire::parse(&text).unwrap();
            let Json::Obj(members) = &json else {
                panic!("partials are objects")
            };
            let keys: Vec<&str> = members.iter().map(|(key, _)| key.as_str()).collect();
            assert_eq!(keys, ["segment", "count", "columns"], "{text}");
            assert_eq!(
                working_partial_from_json(&json, &[rows; 3], &fields),
                Ok((count, columns))
            );
        }
        let partial = working_partial_to_json(0, 7, &working_columns());
        for count in [Json::from("7"), Json::from(-7i64), Json::Null] {
            let err = working_partial_from_json(
                &with_top_member(&partial, "count", count),
                &[100],
                &fields,
            )
            .unwrap_err();
            assert!(err.starts_with("segment 0: "), "{err}");
            assert!(err.contains("\"count\""), "{err}");
        }
    }

    /// A working partial carries its segment's column summaries, and the
    /// decoder holds them to the schema and to the count as it holds the
    /// count to the segment: a partial counting more rows than its segment
    /// holds, without `"columns"`, with another number of them, with a
    /// summary of another type than its column, of another number of rows
    /// than the count, or that breaks a summary's invariants is a typed
    /// error naming the segment.
    #[test]
    fn working_partials_carry_their_summaries_and_hold_them_to_the_schema() {
        let (fields, columns) = (working_fields(), working_columns());
        let layout = [100usize; 4];
        let partial = working_partial_to_json(3, 7, &columns);
        let decoded = wire::parse(&partial.encode()).unwrap();
        assert_eq!(
            working_partial_from_json(&decoded, &layout, &fields),
            Ok((7, columns))
        );
        let refuse = |partial: &Json, needle: &str| {
            let err = working_partial_from_json(partial, &layout, &fields).unwrap_err();
            assert!(err.starts_with("segment 3: "), "{err}");
            assert!(err.contains(needle), "{needle}: {err}");
        };
        // A count above the segment's rows, summaries agreeing with it.
        let over = |count: usize| {
            let mut columns = working_columns();
            columns[0].nulls = count - 6;
            columns[1].nulls = count - 6;
            working_partial_to_json(3, count, &columns)
        };
        assert_eq!(
            working_partial_from_json(&over(100), &layout, &fields).map(|(count, _)| count),
            Ok(100)
        );
        refuse(&over(101), "101 working rows, the segment has 100");
        // Summaries of another number of rows than the count.
        for count in [0usize, 6, 8, 100] {
            refuse(
                &with_top_member(&partial, "count", Json::from(count)),
                &format!("the summary of n covers 6 + 1 rows, the count says {count}"),
            );
        }
        let mut strs = working_columns();
        strs[1].nulls = 2;
        refuse(
            &working_partial_to_json(3, 7, &strs),
            "the summary of c covers 6 + 2 rows, the count says 7",
        );
        let Json::Obj(members) = &partial else {
            panic!("partials are objects")
        };
        let without = members.iter().filter(|(key, _)| key != "columns");
        refuse(&Json::Obj(without.cloned().collect()), "\"columns\"");
        refuse(
            &with_top_member(&partial, "columns", Json::from("n")),
            "\"columns\"",
        );
        for listed in [vec![], vec![counted_frame()], vec![counted_frame(); 3]] {
            let count = listed.len();
            refuse(
                &with_top_member(&partial, "columns", Json::array(listed)),
                &format!("{count} column summaries, the schema has 2 columns"),
            );
        }
        refuse(
            &with_top_member(
                &partial,
                "columns",
                Json::array(vec![counted_strs_frame(), counted_frame()]),
            ),
            "the summary of n is of a str column, the schema's of a int",
        );
        let unsummed = with_member(&counted_frame(), "counts", Json::from(hex_u64s(&[2, 1, 2])));
        refuse(
            &with_top_member(
                &partial,
                "columns",
                Json::array(vec![unsummed, counted_strs_frame()]),
            ),
            "column n: value counts do not sum",
        );
        refuse(
            &with_top_member(
                &partial,
                "columns",
                Json::array(vec![summary_to_json(&working_columns()[0]), Json::Null]),
            ),
            "column c: missing",
        );
        let err = working_partial_from_json(&partial, &layout[..3], &fields).unwrap_err();
        assert!(err.contains("segment 3 is out of range"), "{err}");
    }

    #[test]
    fn deeply_nested_frame_bodies_hit_the_json_depth_limit() {
        let deep = "{\"a\":".repeat(200) + "1" + &"}".repeat(200);
        let err = wire::parse(&deep).unwrap_err();
        assert!(err.message.contains("deep"));
    }

    /// `value` and every value nested in it.
    fn nested(value: &Json) -> Vec<&Json> {
        let mut all = vec![value];
        let mut at = 0;
        while let Some(&next) = all.get(at) {
            match next {
                Json::Arr(items) => all.extend(items),
                Json::Obj(pairs) => all.extend(pairs.iter().map(|(_, v)| v)),
                _ => {}
            }
            at += 1;
        }
        all
    }

    /// Parse `text` and hand every value in it to every frame decoder. None
    /// may panic; a refusal is a typed error, and whatever a decoder accepts
    /// comes back unchanged through its encoder. Returns how many decodes
    /// were accepted.
    fn decode_everything(text: &str) -> usize {
        let json = match wire::parse(text) {
            Ok(json) => json,
            Err(err) => {
                assert!(err.position <= text.len(), "{err} in {text:?}");
                return 0;
            }
        };
        let mut accepted = 0;
        for value in nested(&json) {
            if let Ok(bitmap) = bitmap_from_json(value) {
                assert_eq!(bitmap_from_json(&bitmap_to_json(&bitmap)), Ok(bitmap));
                accepted += 1;
            }
            if let Ok(parts) = summary_from_json(value) {
                assert_eq!(summary_from_json(&summary_to_json(&parts)), Ok(parts));
                accepted += 1;
            }
            if let Ok(view) = meta_from_json(value) {
                assert_eq!(meta_from_json(&meta_to_json("t", &view)), Ok(view));
                accepted += 1;
            }
            if let Ok(plan) = partition_from_json(value) {
                // Bounds may be NaN, so the round trip compares the frames.
                let again = partition_to_json(&plan);
                let decoded = partition_from_json(&again).map(|plan| partition_to_json(&plan));
                assert_eq!(decoded, Ok(again));
                accepted += 1;
            }
            if let Ok(run) = get_str(value, "values") {
                if let Ok(values) = parse_hex_f64s(run) {
                    assert_eq!(hex_f64s(&values), run.to_ascii_lowercase());
                    accepted += 1;
                }
            }
            let (layout, fields) = ([FUZZ_SEGMENT_ROWS; 16], working_fields());
            if let Ok((count, columns)) = working_partial_from_json(value, &layout, &fields) {
                let again = working_partial_to_json(0, count, &columns);
                let decoded = working_partial_from_json(&again, &layout, &fields);
                assert_eq!(decoded, Ok((count, columns)));
                accepted += 1;
            }
            for (regions, products) in fuzz_asks() {
                let ask = CountAsk {
                    segments: &[0],
                    regions: &regions,
                    products: &products,
                    working_rows: 92,
                };
                if let Ok(cells) = count_reply_from_json(value, &ask) {
                    let again = count_reply_to_json(&[0], &cells);
                    assert_eq!(count_reply_from_json(&again, &ask), Ok(cells));
                    accepted += 1;
                }
            }
        }
        accepted
    }

    /// The asks the count-reply decoder is fuzzed against: two plans of two
    /// regions, as one pair or as an explore's singles and pair.
    fn fuzz_asks() -> [(Vec<usize>, Vec<Vec<usize>>); 2] {
        [
            (vec![2, 2], vec![vec![0, 1]]),
            (vec![2, 2], singles_and_pairs(2)),
        ]
    }

    /// The rows of every segment the partial decoder is fuzzed against.
    const FUZZ_SEGMENT_ROWS: usize = 92;

    /// One valid frame of the kind `kind` picks — a bitmap, a value run, four
    /// summaries, a count reply, two working partials (one of part of a
    /// segment with fixed summaries, one of a whole segment summarised from
    /// `values`), a meta reply — built from `bits` and `values`.
    fn sample_frame(kind: usize, bits: u64, values: &[u64]) -> String {
        let whole = Bitmap::new_full(FUZZ_SEGMENT_ROWS);
        let frame = match kind % 11 {
            10 => {
                let ints: Vec<Option<i64>> = (0..whole.len())
                    .map(|row| (row % 7 != 3).then(|| (bits.rotate_left(row as u32) & 7) as i64))
                    .collect();
                let mut strs = atlas_columnar::column::DictColumn::new();
                for row in 0..whole.len() {
                    strs.push(Some(format!("v{}", row % (values.len() + 1)).as_str()));
                }
                let columns: Vec<SummaryParts> = [Column::Int(ints.into()), Column::Str(strs)]
                    .iter()
                    .map(|column| ColumnSummary::compute(column, &whole, 0).to_parts())
                    .collect();
                working_partial_to_json(values.len(), whole.len(), &columns)
            }
            9 => partition_to_json(&CutPlan {
                attribute: "x".to_string(),
                partition: if bits & 1 == 0 {
                    Partition::Ranges(
                        values
                            .chunks(2)
                            .map(|pair| {
                                (
                                    f64::from_bits(pair[0]),
                                    f64::from_bits(pair[pair.len() - 1]),
                                )
                            })
                            .collect(),
                    )
                } else {
                    Partition::Groups(
                        values
                            .chunks(3)
                            .map(|group| group.iter().map(|v| format!("v{v}")).collect())
                            .collect(),
                    )
                },
            }),
            8 => {
                let segments = values.iter().map(|&rows| (rows % 4096) as usize).collect();
                let fields = vec![
                    ("x".to_string(), DataType::Int),
                    ("c".to_string(), DataType::Str),
                ];
                meta_to_json("t", &((bits % 7) as usize, segments, fields))
            }
            6 => {
                // Two two-way cuts of the 92 rows by `bits`, one missing a
                // NULL row when bit 0 is set.
                let a = |row: usize| (bits.rotate_left(row as u32) & 1) as usize;
                let b = |row: usize| (bits & 1 == 0 || row != 5).then_some(row % 2);
                let mut cells = vec![vec![0u64; 2], vec![0; 2], vec![0; 4]];
                for row in 0..92 {
                    cells[0][a(row)] += 1;
                    if let Some(b) = b(row) {
                        cells[1][b] += 1;
                        cells[2][a(row) * 2 + b] += 1;
                    }
                }
                count_reply_to_json(&[0], &cells)
            }
            7 => working_partial_to_json(values.len(), 7, &working_columns()),
            0 => bitmap_to_json(&Bitmap::from_fn(values.len() * 23, |row| {
                bits.rotate_left(row as u32) & 1 == 1
            })),
            1 => Json::object(vec![("values", Json::from(hex_u64s(values)))]),
            2 => counted_frame(),
            3 => counted_strs_frame(),
            4 => summary_to_json(&SummaryParts {
                dtype: DataType::Bool,
                non_null: 5,
                nulls: 1,
                distinct: DistinctValues::Bools { t: 3, f: 2 },
                counts: None,
            }),
            _ => summary_to_json(&SummaryParts {
                dtype: DataType::Float,
                non_null: values.len(),
                nulls: 0,
                distinct: DistinctValues::Numbers(values.to_vec()),
                counts: None,
            }),
        };
        frame.encode()
    }

    /// Apply `edits` — overwrite, delete, insert, truncate, overwrite with a
    /// JSON-structural byte, duplicate a stretch — to `text`'s bytes.
    fn mutate(text: &str, edits: &[(u8, usize, u8)]) -> String {
        const STRUCTURAL: &[u8] = b"\"\\{}[],:0-e.Gf9 u";
        let mut bytes = text.as_bytes().to_vec();
        for &(op, at, byte) in edits {
            let at = at % (bytes.len() + 1);
            let inside = at < bytes.len();
            match op % 6 {
                0 if inside => bytes[at] = byte,
                1 if inside => {
                    bytes.remove(at);
                }
                2 => bytes.insert(at, byte),
                3 => bytes.truncate(at),
                4 if inside => bytes[at] = STRUCTURAL[usize::from(byte) % STRUCTURAL.len()],
                5 => {
                    let stretch: Vec<u8> = bytes[at..]
                        .iter()
                        .take(usize::from(byte))
                        .copied()
                        .collect();
                    bytes.splice(at..at, stretch);
                }
                _ => {}
            }
        }
        String::from_utf8_lossy(&bytes).into_owned()
    }

    /// Pieces of JSON and of the frames' vocabulary, for token soups.
    const TOKENS: [&str; 39] = [
        "{",
        "}",
        "[",
        "]",
        ",",
        ":",
        "\"",
        "\"len\":",
        "\"words\":",
        "\"values\":",
        "\"dtype\":",
        "\"int\"",
        "\"str\"",
        "\"distinct\":",
        "\"kind\":",
        "\"ints\"",
        "\"strs\"",
        "\"counts\":",
        "\"count\":",
        "\"cells\":",
        "\"products\":",
        "\"bitmap\":",
        "\"columns\":",
        "\"segment\":",
        "\"segments\":",
        "\"num_rows\":",
        "\"generation\":",
        "\"fields\":",
        "\"0123456789abcdef\"",
        "\"3fa999999999999A\"",
        "64",
        "1",
        "-0",
        "1e400",
        "null",
        "true",
        "\\u00e9",
        "\\ud800",
        "é\u{1}",
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn random_bytes_get_typed_errors_from_the_wire_decoders(
            bytes in proptest::collection::vec(0u8..=u8::MAX, 0..256),
            soup in proptest::collection::vec(0usize..TOKENS.len(), 0..48),
        ) {
            decode_everything(&String::from_utf8_lossy(&bytes));
            let soup: String = soup.iter().map(|&t| TOKENS[t]).collect();
            decode_everything(&soup);
            decode_everything(&format!("{{{soup}}}"));
        }

        #[test]
        fn mutated_frames_get_typed_errors_from_the_wire_decoders(
            kind in 0usize..11,
            bits in any::<u64>(),
            values in proptest::collection::vec(any::<u64>(), 0..12),
            edits in proptest::collection::vec((0u8..=u8::MAX, 0usize..1 << 20, 0u8..=u8::MAX), 1..6),
        ) {
            let frame = sample_frame(kind, bits, &values);
            prop_assert!(decode_everything(&frame) > 0, "{}", frame);
            decode_everything(&mutate(&frame, &edits));
        }
    }

    /// A fixed stream of frames of every kind — bitmaps, value runs, counted
    /// and plain summaries of every kind (strings with quotes, backslashes,
    /// controls, DEL and multi-byte scalars) — hashed (FNV-1a) into one
    /// digest. The constant is the digest the per-byte codecs wrote for this
    /// stream: the word-at-a-time codecs moved no byte of these frames.
    #[test]
    fn frames_hash_to_the_digest_the_per_byte_codecs_wrote() {
        let mut state = 0x5eed_u64;
        let mut next = move || {
            // splitmix64
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        const ALPHABET: [char; 13] = [
            'a', 'Z', '"', '\\', '\n', '\u{1}', '\u{1f}', '\u{7f}', 'é', '€', '🦀', '/', ' ',
        ];
        let mut digest = 0xcbf2_9ce4_8422_2325_u64;
        for round in 0..120 {
            let n = (next() % 40) as usize;
            let words: Vec<u64> = (0..n).map(|_| next()).collect();
            let density = next();
            let rows = (next() % 3000) as usize;
            let bitmap = Bitmap::from_fn(rows, |row| (row as u64).wrapping_mul(density) >> 62 == 0);
            let strs: Vec<String> = (0..n % 7)
                .map(|_| {
                    let len = next() % 12;
                    (0..len).map(|_| ALPHABET[(next() % 13) as usize]).collect()
                })
                .collect();
            let counts = (round % 2 == 0).then(|| words.iter().map(|w| w % 9).collect());
            let frames = [
                bitmap_to_json(&bitmap),
                Json::object(vec![(
                    "values",
                    Json::from(hex_f64s(
                        &words.iter().map(|&w| f64::from_bits(w)).collect::<Vec<_>>(),
                    )),
                )]),
                summary_to_json(&SummaryParts {
                    dtype: if round % 3 == 0 {
                        DataType::Int
                    } else {
                        DataType::Float
                    },
                    non_null: n,
                    nulls: round,
                    distinct: DistinctValues::Numbers(words.clone()),
                    counts: counts.clone(),
                }),
                summary_to_json(&SummaryParts {
                    dtype: DataType::Str,
                    non_null: n,
                    nulls: 0,
                    distinct: DistinctValues::Strs(strs.clone()),
                    counts: counts.map(|c: Vec<u64>| c.into_iter().take(strs.len()).collect()),
                }),
                summary_to_json(&SummaryParts {
                    dtype: DataType::Bool,
                    non_null: n,
                    nulls: 1,
                    distinct: DistinctValues::Bools {
                        t: n / 3,
                        f: n - n / 3,
                    },
                    counts: None,
                }),
            ];
            for frame in frames {
                for byte in frame.encode().bytes().chain([b'\n']) {
                    digest = (digest ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
        }
        assert_eq!(digest, 0x66d3_fce0_b1bd_5727, "{digest:#018x}");
    }
}
