//! Bit-identity of the word-parallel partition kernels against the scalar
//! reference (`ATLAS_FORCE_SCALAR` / [`with_kernel_path`]).
//!
//! The word-parallel kernels of `atlas-columnar` (64 rows per step, validity
//! driven from null-mask words, lane-wise classification) must produce
//! **bit-identical** selections to the one-row-at-a-time reference on every
//! input. The property tests here generate adversarial cases on random
//! tables:
//!
//! * selections with word-boundary edges, trailing partial words, all-ones
//!   and near-empty patterns;
//! * NaN values, NaN bounds, inverted bounds, `±∞` bounds, and integer
//!   magnitudes beyond 2⁵³ (where `i64 → f64` rounds and naive bound
//!   conversion breaks);
//! * all-null columns and high null fractions;
//! * every segment layout (single-segment, tiny unaligned segments, and the
//!   64-row-aligned case) — the full suite also runs under
//!   `ATLAS_SEGMENT_ROWS=1024`, `ATLAS_SEGMENT_ROWS=1000` (segment edges inside
//!   a word) and `ATLAS_FORCE_SCALAR=1` in CI.

use atlas::columnar::{
    with_kernel_path, Bitmap, DataType, Field, KernelPath, Schema, Table, TableBuilder, Value,
};
use proptest::prelude::*;

type Row = (Option<i64>, Option<f64>, Option<u8>, Option<bool>);

/// One generated row: an integer (small or huge), a float (possibly NaN or
/// signed zero), a category code, and a boolean — each independently NULL.
fn row_strategy() -> impl Strategy<Value = Row> {
    (
        proptest::option::weighted(0.85, prop_oneof![3 => -100i64..100, 1 => any::<i64>()]),
        proptest::option::weighted(
            0.85,
            prop_oneof![
                6 => -120.0..120.0f64,
                1 => Just(f64::NAN),
                1 => Just(0.0f64),
                1 => Just(-0.0f64),
            ],
        ),
        proptest::option::weighted(0.85, 0u8..6),
        proptest::option::weighted(0.85, any::<bool>()),
    )
}

/// A range bound: near the data, a huge integer-valued float, NaN, or ±∞.
fn bound_strategy() -> impl Strategy<Value = f64> {
    prop_oneof![
        5 => -130.0..130.0f64,
        1 => any::<i64>().prop_map(|x| x as f64),
        1 => Just(f64::NAN),
        1 => Just(f64::INFINITY),
        1 => Just(f64::NEG_INFINITY),
    ]
}

fn build_table(rows: &[Row], all_null_col: Option<usize>, segment_rows: usize) -> Table {
    let schema = Schema::new(vec![
        Field::new("i", DataType::Int),
        Field::new("f", DataType::Float),
        Field::new("c", DataType::Str),
        Field::new("b", DataType::Bool),
    ])
    .unwrap();
    let mut builder = TableBuilder::new("t", schema).with_segment_rows(segment_rows);
    for &(i, f, c, b) in rows {
        let null = |col: usize| all_null_col == Some(col);
        builder
            .push_row(&[
                if null(0) {
                    Value::Null
                } else {
                    i.map(Value::Int).unwrap_or(Value::Null)
                },
                if null(1) {
                    Value::Null
                } else {
                    f.map(Value::Float).unwrap_or(Value::Null)
                },
                if null(2) {
                    Value::Null
                } else {
                    c.map(|c| Value::Str(format!("cat{c}")))
                        .unwrap_or(Value::Null)
                },
                if null(3) {
                    Value::Null
                } else {
                    b.map(Value::Bool).unwrap_or(Value::Null)
                },
            ])
            .unwrap();
    }
    builder.build().unwrap()
}

/// Build the selection under test: random bits, all-ones, a word-aligned
/// block, or a block with unaligned edges that straddles word boundaries.
fn build_selection(kind: usize, bits: &[bool], rows: usize) -> Bitmap {
    match kind {
        0 => Bitmap::from_fn(rows, |i| bits[i % bits.len()]),
        1 => Bitmap::new_full(rows),
        2 => Bitmap::from_fn(rows, |i| (64..128).contains(&i)),
        _ => Bitmap::from_fn(rows, |i| {
            let lo = 3.min(rows.saturating_sub(1));
            let hi = rows.saturating_sub(2);
            (lo..=hi).contains(&i) && i % 5 != 0
        }),
    }
}

/// All partition-kernel results for one table and selection, computed on the
/// current thread's kernel path. Bitmap equality is word-for-word, so
/// comparing two of these is a bit-identity check.
#[allow(clippy::type_complexity)]
fn run_kernels(
    table: &Table,
    sel: &Bitmap,
    bounds: &[(f64, f64)],
    groups: &[Vec<String>],
) -> (
    Vec<Vec<Bitmap>>,
    Vec<Bitmap>,
    Vec<Vec<Bitmap>>,
    Vec<Vec<f64>>,
) {
    let mut ranges = Vec::new();
    let mut singles = Vec::new();
    let mut grouped = Vec::new();
    let mut gathered = Vec::new();
    for name in ["i", "f", "c", "b"] {
        let col = table.column(name).unwrap();
        ranges.push(col.select_ranges(sel, bounds));
        if let Some(&(lo, hi)) = bounds.first() {
            singles.push(col.select_range(sel, lo, hi));
        }
        grouped.push(col.select_in_groups(sel, groups));
        gathered.push(col.numeric_values_where(sel));
    }
    (ranges, singles, grouped, gathered)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn word_parallel_kernels_are_bit_identical_to_the_scalar_reference(
        rows in proptest::collection::vec(row_strategy(), 1..300),
        sel_bits in proptest::collection::vec(any::<bool>(), 1..300),
        sel_kind in 0usize..4,
        bounds in proptest::collection::vec((bound_strategy(), bound_strategy()), 1..4),
        group_of_cat in proptest::collection::vec(0u8..5, 6),
        group_of_int in proptest::collection::vec(0u8..5, 7),
        all_null_col in proptest::option::weighted(0.15, 0usize..4),
        segment_rows in prop_oneof![Just(usize::MAX), Just(7usize), Just(64usize), Just(100usize)],
    ) {
        let table = build_table(&rows, all_null_col, segment_rows);
        let sel = build_selection(sel_kind, &sel_bits, rows.len());

        // Four disjoint groups (slot 4 = ungrouped), mixing category names,
        // booleans, and integer renderings — plus one value ("007") that the
        // round-trip parse must keep from ever matching the integer 7.
        let mut groups: Vec<Vec<String>> = vec![Vec::new(); 4];
        for (c, &g) in group_of_cat.iter().enumerate() {
            if let Some(group) = groups.get_mut(g as usize) {
                group.push(format!("cat{c}"));
            }
        }
        for (k, &g) in group_of_int.iter().enumerate() {
            if let Some(group) = groups.get_mut(g as usize) {
                group.push((k as i64 - 3).to_string());
            }
        }
        groups[0].push("true".to_string());
        groups[1].push("false".to_string());
        groups[2].push("007".to_string());

        let word = with_kernel_path(KernelPath::WordParallel, || {
            run_kernels(&table, &sel, &bounds, &groups)
        });
        let scalar = with_kernel_path(KernelPath::Scalar, || {
            run_kernels(&table, &sel, &bounds, &groups)
        });
        prop_assert_eq!(&word.0, &scalar.0, "select_ranges");
        prop_assert_eq!(&word.1, &scalar.1, "select_range");
        prop_assert_eq!(&word.2, &scalar.2, "select_in_groups");
        // Gather order is increasing row order on both paths; f64 bit
        // patterns (NaN, -0.0) must survive untouched.
        let to_bits = |vs: &Vec<Vec<f64>>| -> Vec<Vec<u64>> {
            vs.iter().map(|v| v.iter().map(|x| x.to_bits()).collect()).collect()
        };
        prop_assert_eq!(to_bits(&word.3), to_bits(&scalar.3), "numeric_values_where");

        // The word path is also layout-transparent: a different segment
        // geometry over the same rows yields the same words.
        let relaid = build_table(&rows, all_null_col, 13);
        let other = with_kernel_path(KernelPath::WordParallel, || {
            run_kernels(&relaid, &sel, &bounds, &groups)
        });
        prop_assert_eq!(&word.0, &other.0, "layout transparency (ranges)");
        prop_assert_eq!(&word.2, &other.2, "layout transparency (groups)");
    }

    #[test]
    fn contingency_word_fold_matches_the_scalar_reference(
        rows in proptest::collection::vec(row_strategy(), 1..300),
        splits in 2usize..5,
    ) {
        use atlas::stats::ContingencyTable;
        let table = build_table(&rows, None, 19);
        let sel = table.full_selection();
        let ranges: Vec<(f64, f64)> = (0..splits)
            .map(|k| {
                let w = 240.0 / splits as f64;
                (-120.0 + k as f64 * w, -120.0 + (k + 1) as f64 * w)
            })
            .collect();
        let a = table.column("i").unwrap().select_ranges(&sel, &ranges);
        let b = table.column("f").unwrap().select_ranges(&sel, &ranges);
        let ra: Vec<&Bitmap> = a.iter().collect();
        let rb: Vec<&Bitmap> = b.iter().collect();
        let word = with_kernel_path(KernelPath::WordParallel, || {
            ContingencyTable::from_selections(&ra, &rb)
        });
        let scalar = with_kernel_path(KernelPath::Scalar, || {
            ContingencyTable::from_selections(&ra, &rb)
        });
        prop_assert_eq!(word, scalar);
    }
}

/// A one-column string table whose first `card` rows hold the `card` distinct
/// values in order (so a single-segment layout has a dictionary of exactly
/// `card` codes) and whose remaining rows are drawn from them, NULLs mixed in.
fn dictionary_table(card: usize, tail: &[Option<u32>], segment_rows: usize) -> Table {
    string_table(&dictionary_cells(card, tail), segment_rows)
}

/// The rows of [`dictionary_table`].
fn dictionary_cells(card: usize, tail: &[Option<u32>]) -> Vec<Value> {
    let head = (0..card).map(Some);
    let tail = tail.iter().map(|code| code.map(|c| c as usize % card));
    head.chain(tail)
        .map(|code| code.map_or(Value::Null, |c| Value::Str(format!("v{c}"))))
        .collect()
}

/// A one-column string table over `cells`.
fn string_table(cells: &[Value], segment_rows: usize) -> Table {
    let schema = Schema::new(vec![Field::nullable("c", DataType::Str)]).unwrap();
    let mut builder = TableBuilder::new("t", schema).with_segment_rows(segment_rows);
    for cell in cells {
        builder.push_row(std::slice::from_ref(cell)).unwrap();
    }
    builder.build().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Both sides of the 64-code line: dictionaries of fewer than 64 codes
    /// fold membership words, larger ones gather group slots, and those of a
    /// handful of entries take entry masks (both sides of 9 entries) — and
    /// every answer is the scalar reference's — with NULL lanes, groups naming
    /// values no dictionary holds, a value listed in two groups, an empty
    /// group, dense / half-dense / under-16-lane / empty selection words, and
    /// every segment layout (per-segment dictionaries then sit on either side
    /// of the line within one column).
    #[test]
    fn dictionary_grouping_is_bit_identical_on_both_sides_of_the_64_code_line(
        card in prop_oneof![
            Just(1usize), Just(2usize), Just(3usize), Just(9usize), Just(10usize),
            Just(62usize), Just(63usize), Just(64usize), Just(65usize), Just(200usize)
        ],
        tail in proptest::collection::vec(proptest::option::weighted(0.85, 0u32..1000), 64..400),
        num_groups in 1usize..9,
        group_of_code in proptest::collection::vec(0usize..10, 1..40),
        twice in 0usize..1000,
        emptied in 0usize..8,
        sel_bits in proptest::collection::vec(any::<bool>(), 1..300),
        sel_kind in 0usize..4,
        segment_rows in prop_oneof![Just(usize::MAX), Just(7usize), Just(64usize), Just(100usize)],
    ) {
        let table = dictionary_table(card, &tail, segment_rows);
        let rows = table.num_rows();
        let sel = match sel_kind {
            0 => Bitmap::new_full(rows),
            1 => Bitmap::from_fn(rows, |i| sel_bits[i % sel_bits.len()]),
            2 => Bitmap::from_fn(rows, |i| i % 5 == 0),
            _ => Bitmap::new_empty(rows),
        };

        // Codes are dealt to the groups (slots past `num_groups` stay
        // ungrouped); every group also names a value no row holds, one value
        // is listed in two groups, and one group is emptied afterwards.
        let mut groups: Vec<Vec<String>> = vec![Vec::new(); num_groups];
        for code in 0..card {
            if let Some(group) = groups.get_mut(group_of_code[code % group_of_code.len()]) {
                group.push(format!("v{code}"));
            }
        }
        for (g, group) in groups.iter_mut().enumerate() {
            group.push(format!("absent{g}"));
        }
        let twice = format!("v{}", twice % card);
        groups[0].push(twice.clone());
        groups[num_groups - 1].push(twice);
        if num_groups > 1 {
            groups[emptied % num_groups].clear();
        }

        let column = table.column("c").unwrap();
        let run = || {
            let singles: Vec<Bitmap> = groups.iter().map(|g| column.select_in(&sel, g)).collect();
            (column.select_in_groups(&sel, &groups), singles)
        };
        let word = with_kernel_path(KernelPath::WordParallel, run);
        let scalar = with_kernel_path(KernelPath::Scalar, run);
        prop_assert_eq!(&word.0, &scalar.0, "select_in_groups");
        prop_assert_eq!(&word.1, &scalar.1, "select_in");

        let single_segment = dictionary_table(card, &tail, usize::MAX);
        let relaid = with_kernel_path(KernelPath::WordParallel, || {
            single_segment.column("c").unwrap().select_in_groups(&sel, &groups)
        });
        prop_assert_eq!(&word.0, &relaid, "layout transparency");
    }
}

/// More groups than a gathered byte slot can name: the word path must still
/// agree with the scalar reference (it walks set bits instead of folding).
#[test]
fn more_groups_than_a_byte_can_name_stay_bit_identical() {
    let card = 300;
    let tail: Vec<Option<u32>> = (0..200).map(|i| (i % 9 != 0).then_some(i * 7)).collect();
    let table = dictionary_table(card, &tail, usize::MAX);
    let sel = table.full_selection();
    let groups: Vec<Vec<String>> = (0..card).map(|c| vec![format!("v{c}")]).collect();
    let column = table.column("c").unwrap();
    let word = with_kernel_path(KernelPath::WordParallel, || {
        column.select_in_groups(&sel, &groups)
    });
    let scalar = with_kernel_path(KernelPath::Scalar, || {
        column.select_in_groups(&sel, &groups)
    });
    assert_eq!(word, scalar);
    assert_eq!(
        word.iter().map(Bitmap::count).sum::<usize>(),
        sel.count() - 23
    );
}

// ---------------------------------------------------------------------------
// Coded ≡ plain ≡ scalar: the sealed representation of a numeric column
// ---------------------------------------------------------------------------

use atlas::columnar::{Column, ColumnStats, ColumnView, Encoding, SummaryParts};

/// The `k`-th value of the pool a generated column draws from. The first
/// slots are the values a sorted dictionary has to get right — both zeros,
/// NaNs of both signs and two payloads, the infinities; integers beyond 2⁵³
/// that share an `f64`, and the ends of the type — the rest are evenly spaced
/// with gaps a bound can fall into.
fn pool_value(float: bool, k: usize) -> Value {
    if float {
        Value::Float(match k {
            0 => -0.0,
            1 => 0.0,
            2 => f64::NAN,
            3 => -f64::NAN,
            4 => f64::from_bits(0x7ff8_0000_0000_0001),
            5 => f64::from_bits(0xfff8_0000_0000_0001),
            6 => f64::INFINITY,
            7 => f64::NEG_INFINITY,
            k => (k as f64 - 500.0) / 4.0,
        })
    } else {
        Value::Int(match k {
            0 => 1 << 60,
            1 => (1 << 60) + 1,
            2 => (1 << 60) + 2,
            3 => -(1 << 60) - 1,
            4 => i64::MAX,
            5 => i64::MIN,
            k => (k as i64 - 500) * 3,
        })
    }
}

fn pool_f64(float: bool, k: usize) -> f64 {
    match pool_value(float, k) {
        Value::Float(x) => x,
        Value::Int(x) => x as f64,
        _ => unreachable!("numeric pool"),
    }
}

/// splitmix64: the deterministic draws behind the body of a generated column.
fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed.wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Everything the kernels say about one column under the current kernel
/// path, floats as bit patterns (NaNs and signed zeros must survive).
struct Observed {
    summaries: Vec<SummaryParts>,
    stats: Vec<String>,
    ranges: Vec<Vec<Bitmap>>,
    singles: Vec<Bitmap>,
    members: Vec<Bitmap>,
    grouped: Vec<Vec<Bitmap>>,
    gathered: Vec<Vec<u64>>,
    min_max: Vec<Option<(u64, u64)>>,
    values: Vec<Option<u64>>,
}

impl Observed {
    /// The first field in which `self` and `other` differ, if any — a failed
    /// case names the kernel instead of printing thousands of rows.
    fn first_difference(&self, other: &Observed) -> Option<&'static str> {
        [
            ("summary", self.summaries != other.summaries),
            ("stats", self.stats != other.stats),
            ("select_ranges", self.ranges != other.ranges),
            ("select_range", self.singles != other.singles),
            ("select_in", self.members != other.members),
            ("select_in_groups", self.grouped != other.grouped),
            ("numeric_values_where", self.gathered != other.gathered),
            ("numeric_min_max", self.min_max != other.min_max),
            ("value", self.values != other.values),
        ]
        .into_iter()
        .find_map(|(kernel, differs)| differs.then_some(kernel))
    }
}

fn observe(
    col: ColumnView<'_>,
    sels: &[Bitmap],
    bounds: &[(f64, f64)],
    values: &[String],
    groups: &[Vec<String>],
) -> Observed {
    let bits = |x: f64| x.to_bits();
    let stats = |sel: &Bitmap| {
        let s = col.stats(sel);
        let counts = s.value_counts.map(|pairs| {
            let pairs = pairs.into_iter().map(|(x, n)| (bits(x), n));
            pairs.collect::<Vec<_>>()
        });
        let ends = (s.min.map(bits), s.max.map(bits));
        let rows = (s.non_null_count, s.null_count, s.distinct_count);
        format!("{rows:?} {ends:?} {counts:?} {:?}", s.category_counts)
    };
    Observed {
        summaries: sels.iter().map(|s| col.summary(s).to_parts()).collect(),
        stats: sels.iter().map(stats).collect(),
        ranges: sels.iter().map(|s| col.select_ranges(s, bounds)).collect(),
        singles: sels
            .iter()
            .flat_map(|s| bounds.iter().map(|&(lo, hi)| col.select_range(s, lo, hi)))
            .collect(),
        members: sels.iter().map(|s| col.select_in(s, values)).collect(),
        grouped: sels
            .iter()
            .map(|s| col.select_in_groups(s, groups))
            .collect(),
        gathered: sels
            .iter()
            .map(|s| col.numeric_values_where(s).into_iter().map(bits).collect())
            .collect(),
        min_max: sels
            .iter()
            .map(|s| col.numeric_min_max(s).map(|(lo, hi)| (bits(lo), bits(hi))))
            .collect(),
        values: (0..col.len())
            .map(|row| match col.value(row) {
                Value::Null => None,
                Value::Int(x) => Some(x as u64),
                Value::Float(x) => Some(bits(x)),
                other => unreachable!("numeric column holds {other:?}"),
            })
            .collect(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Sealing chooses a representation; no answer may depend on it. The same
    /// rows are held three ways — a lone unsealed column (plain lanes, the
    /// reference), and tables sealed at five segment sizes, which code the
    /// whole column, none of it, or some parts and not others — and every
    /// kernel must say the same thing about all of them on both kernel paths:
    /// on each side of the `u8`/`u16` and coded/plain lines and of the
    /// entry-mask line (9 entries is the most a count masks), with the values
    /// a sorted dictionary must order (`±0.0`, NaNs, `±∞`, integers sharing
    /// an `f64`), NULL-heavy and all-NULL columns, bounds that are inverted,
    /// NaN, overlapping or between two entries, and selections from dense to
    /// empty — scattered 1 %, 6 % and 50 % ones among them — that leave
    /// partial words at both ends of the parts.
    #[test]
    fn coded_plain_and_scalar_agree_at_every_edge(
        distinct in prop_oneof![
            Just(1usize), Just(2usize), Just(3usize), Just(9usize), Just(10usize),
            Just(255usize), Just(256usize), Just(257usize),
            Just(1023usize), Just(1024usize), Just(1025usize)
        ],
        float in any::<bool>(),
        seed in any::<u64>(),
        tail in 1usize..300,
        null_mode in 0usize..4,
        bound_picks in proptest::collection::vec(
            ((0usize..1100, -2i32..3), (0usize..1100, -2i32..3), 0usize..8),
            1..4,
        ),
        group_of in proptest::collection::vec(0usize..5, 1..40),
    ) {
        // Every pool value once, scrambled, then draws: four rows per value
        // and a ragged tail, so the single-segment layout is within the size
        // rule and the last word is partial.
        let rows = 4 * distinct + tail;
        let null_pct = [0u64, 10, 90, 100][null_mode];
        let cells: Vec<Value> = (0..rows)
            .map(|i| {
                if mix(seed ^ 1, i as u64) % 100 < null_pct {
                    return Value::Null;
                }
                let k = if i < distinct {
                    (i * 7919) % distinct
                } else {
                    (mix(seed, i as u64) % distinct as u64) as usize
                };
                pool_value(float, k)
            })
            .collect();
        let dtype = if float { DataType::Float } else { DataType::Int };
        let mut plain = Column::new_empty(dtype);
        for cell in &cells {
            plain.push(cell).unwrap();
        }
        prop_assert_eq!(plain.encoding(), Encoding::Plain);

        let sels = [
            Bitmap::new_full(rows),
            Bitmap::from_fn(rows, |i| mix(seed ^ 2, i as u64) % 100 < 23),
            Bitmap::from_fn(rows, |i| i % 23 == 0),
            Bitmap::new_empty(rows),
            Bitmap::from_fn(rows, |i| (3..rows.saturating_sub(2)).contains(&i) && i % 5 != 0),
            Bitmap::from_fn(rows, |i| mix(seed ^ 3, i as u64) % 100 < 1),
            Bitmap::from_fn(rows, |i| mix(seed ^ 3, i as u64) % 100 < 6),
            Bitmap::from_fn(rows, |i| mix(seed ^ 3, i as u64) % 100 < 50),
        ];
        // Bounds off the pool: on an entry, just below or above it, halfway
        // to the next — in either order, so inverted and overlapping lists
        // occur — plus NaN and infinite ends.
        let bounds: Vec<(f64, f64)> = bound_picks
            .iter()
            .map(|&((lo, lo_off), (hi, hi_off), special)| {
                let at = |k: usize, off: i32| pool_f64(float, 8 + k % distinct.max(9)) + f64::from(off) * 0.125;
                match special {
                    0 => (f64::NAN, at(hi, hi_off)),
                    1 => (f64::NEG_INFINITY, at(hi, hi_off)),
                    2 => (at(lo, lo_off), f64::INFINITY),
                    _ => (at(lo, lo_off), at(hi, hi_off)),
                }
            })
            .collect();
        // Rendered pool values dealt to four groups (slot 4 = ungrouped), one
        // value listed twice, and look-alikes that must never match.
        let render = |k: usize| match pool_value(float, k % distinct) {
            Value::Float(x) => x.to_string(),
            Value::Int(x) => x.to_string(),
            _ => unreachable!("numeric pool"),
        };
        let mut groups: Vec<Vec<String>> = vec![Vec::new(); 4];
        for (k, &g) in group_of.iter().enumerate() {
            if let Some(group) = groups.get_mut(g) {
                group.push(render(k * 31));
            }
        }
        groups[0].push(render(7));
        groups[3].push(render(7));
        groups[1].extend(["007".to_string(), "+7".to_string(), "1e0".to_string()]);
        let values: Vec<String> = groups[0].iter().chain(&groups[1]).cloned().collect();

        let run = |col: ColumnView<'_>| {
            let word = with_kernel_path(KernelPath::WordParallel, || {
                observe(col, &sels, &bounds, &values, &groups)
            });
            let scalar = with_kernel_path(KernelPath::Scalar, || {
                observe(col, &sels, &bounds, &values, &groups)
            });
            (word, scalar)
        };
        let (reference, reference_scalar) = run(ColumnView::of_column("x", &plain));
        prop_assert_eq!(reference.first_difference(&reference_scalar), None, "plain: scalar");

        let schema = Schema::new(vec![Field::nullable("x", dtype)]).unwrap();
        for segment_rows in [usize::MAX, 7, 64, 100, 1024] {
            let mut builder =
                TableBuilder::new("t", schema.clone()).with_segment_rows(segment_rows);
            for cell in &cells {
                builder.push_row(std::slice::from_ref(cell)).unwrap();
            }
            let table = builder.build().unwrap();
            let col = table.column("x").unwrap();
            if segment_rows == usize::MAX {
                // The seal rule itself: entries a `u8` can name, entries a
                // `u16` must, one value too many.
                let held = match null_mode {
                    3 => 0,
                    0 => distinct,
                    _ => col.stats(&sels[0]).distinct_count,
                };
                let expected = match held {
                    0..=256 => Encoding::CodedU8,
                    257..=1024 => Encoding::CodedU16,
                    _ => Encoding::Plain,
                };
                let encodings: Vec<Encoding> = col.parts().map(|(_, c)| c.encoding()).collect();
                prop_assert_eq!(encodings, vec![expected], "{} distinct", held);
            }
            let (word, scalar) = run(col);
            let layout = segment_rows;
            prop_assert_eq!(word.first_difference(&reference), None, "{} rows: word", layout);
            prop_assert_eq!(scalar.first_difference(&reference), None, "{} rows: scalar", layout);
        }
    }
}

// ---------------------------------------------------------------------------
// Sealed string ≡ open string ≡ scalar: one coded representation for strings
// ---------------------------------------------------------------------------

/// Everything the kernels say about one string column under the current
/// kernel path.
#[derive(PartialEq)]
struct ObservedStrings {
    summaries: Vec<SummaryParts>,
    stats: Vec<String>,
    counts: Vec<Vec<(String, usize)>>,
    grouped: Vec<Vec<Bitmap>>,
    members: Vec<Vec<Bitmap>>,
    dictionary: Vec<String>,
    codes: Vec<u32>,
    values: Vec<Value>,
}

impl ObservedStrings {
    fn first_difference(&self, other: &ObservedStrings) -> Option<&'static str> {
        [
            ("summary", self.summaries != other.summaries),
            ("stats", self.stats != other.stats),
            ("category_counts", self.counts != other.counts),
            ("select_in_groups", self.grouped != other.grouped),
            ("select_in", self.members != other.members),
            ("dictionary", self.dictionary != other.dictionary),
            ("category_codes", self.codes != other.codes),
            ("value", self.values != other.values),
        ]
        .into_iter()
        .find_map(|(kernel, differs)| differs.then_some(kernel))
    }
}

fn observe_strings(
    col: ColumnView<'_>,
    sels: &[Bitmap],
    groups: &[Vec<String>],
) -> ObservedStrings {
    let members = |sel: &Bitmap| groups.iter().map(|g| col.select_in(sel, g)).collect();
    ObservedStrings {
        summaries: sels.iter().map(|s| col.summary(s).to_parts()).collect(),
        stats: sels.iter().map(|s| format!("{:?}", col.stats(s))).collect(),
        counts: sels.iter().map(|s| col.category_counts(s)).collect(),
        grouped: sels
            .iter()
            .map(|s| col.select_in_groups(s, groups))
            .collect(),
        members: sels.iter().map(members).collect(),
        dictionary: col.dictionary(),
        codes: col.category_codes(),
        values: (0..col.len()).map(|row| col.value(row)).collect(),
    }
}

/// Hold one string column three ways — a lone open column (`u32` lanes, the
/// lookup index still there), tables sealed at every layout of
/// [`dictionary_table`] (whose per-segment dictionaries land on either side
/// of the width lines), and both of them through the scalar reference — and
/// require one answer from every kernel; `select_in_groups`,
/// `category_codes`, `category_counts` and `stats` are also held to a
/// row-at-a-time definition that shares nothing with them (a value belongs to
/// the first group that lists it; a label is the value's first-appearance
/// rank, `u32::MAX` for NULL; a count is a tally of the selected rows' values,
/// one per value in first-appearance order, zeros included).
fn check_string_column(cells: &[Value], sels: &[Bitmap], groups: &[Vec<String>]) {
    let rows = cells.len();
    let mut open = Column::new_empty(DataType::Str);
    for cell in cells {
        open.push(cell).unwrap();
    }
    assert_eq!(open.encoding(), Encoding::CodedU32);

    let run = |col: ColumnView<'_>| {
        let word = with_kernel_path(KernelPath::WordParallel, || {
            observe_strings(col, sels, groups)
        });
        let scalar = with_kernel_path(KernelPath::Scalar, || observe_strings(col, sels, groups));
        (word, scalar)
    };
    let (reference, reference_scalar) = run(ColumnView::of_column("c", &open));
    assert_eq!(
        reference.first_difference(&reference_scalar),
        None,
        "open: scalar"
    );

    // The definitions, by rows.
    let text = |cell: &Value| match cell {
        Value::Str(s) => Some(s.clone()),
        _ => None,
    };
    let mut first_seen: Vec<String> = Vec::new();
    let mut rank: std::collections::BTreeMap<String, u32> = Default::default();
    let labels: Vec<u32> = cells
        .iter()
        .map(|cell| match text(cell) {
            None => u32::MAX,
            Some(s) => *rank.entry(s.clone()).or_insert_with(|| {
                first_seen.push(s);
                first_seen.len() as u32 - 1
            }),
        })
        .collect();
    assert_eq!(reference.codes, labels, "category_codes");
    assert_eq!(reference.dictionary, first_seen, "dictionary");
    let mut group_of_value: std::collections::BTreeMap<&str, usize> = Default::default();
    for (g, group) in groups.iter().enumerate() {
        for value in group {
            group_of_value.entry(value).or_insert(g);
        }
    }
    let group_of_row: Vec<Option<usize>> = cells
        .iter()
        .map(|cell| group_of_value.get(text(cell)?.as_str()).copied())
        .collect();
    for (sel, grouped) in sels.iter().zip(&reference.grouped) {
        for (g, region) in grouped.iter().enumerate() {
            let expected =
                Bitmap::from_fn(rows, |row| sel.get(row) && group_of_row[row] == Some(g));
            assert_eq!(region, &expected, "group {g} by rows");
        }
    }
    for (s, sel) in sels.iter().enumerate() {
        let mut tally = vec![0usize; first_seen.len()];
        let mut selected_nulls = 0;
        for row in (0..rows).filter(|&row| sel.get(row)) {
            match text(&cells[row]) {
                Some(value) => tally[rank[&value] as usize] += 1,
                None => selected_nulls += 1,
            }
        }
        let counts: Vec<(String, usize)> = first_seen.iter().cloned().zip(tally).collect();
        assert_eq!(reference.counts[s], counts, "category_counts by rows");
        let expected = ColumnStats {
            dtype: DataType::Str,
            non_null_count: counts.iter().map(|(_, n)| n).sum(),
            null_count: selected_nulls,
            distinct_count: counts.iter().filter(|(_, n)| *n > 0).count(),
            min: None,
            max: None,
            value_counts: None,
            // The counter holds at most 1 024 values.
            category_counts: (counts.len() <= 1024).then_some(counts),
        };
        assert_eq!(reference.stats[s], format!("{expected:?}"), "stats by rows");
    }
    assert_eq!(reference.values, cells, "value");

    for segment_rows in [usize::MAX, 7, 64, 100] {
        let table = string_table(cells, segment_rows);
        let col = table.column("c").unwrap();
        if segment_rows == usize::MAX {
            // The seal rule: the narrowest lane that names every entry.
            let expected = match first_seen.len() {
                0..=256 => Encoding::CodedU8,
                257..=65_536 => Encoding::CodedU16,
                _ => Encoding::CodedU32,
            };
            let encodings: Vec<Encoding> = col.parts().map(|(_, c)| c.encoding()).collect();
            assert_eq!(encodings, [expected], "{} entries", first_seen.len());
        }
        let (word, scalar) = run(col);
        let layout = segment_rows;
        assert_eq!(
            word.first_difference(&reference),
            None,
            "{layout} rows: word"
        );
        assert_eq!(
            scalar.first_difference(&reference),
            None,
            "{layout} rows: scalar"
        );
    }
}

/// Codes dealt to `num_groups` groups as in
/// `dictionary_grouping_is_bit_identical_on_both_sides_of_the_64_code_line`:
/// slots past `num_groups` stay ungrouped, every group names a value no row
/// holds, one value is listed in two groups, one group is emptied.
fn dealt_groups(
    card: usize,
    num_groups: usize,
    group_of_code: &[usize],
    twice: usize,
    emptied: usize,
) -> Vec<Vec<String>> {
    let mut groups: Vec<Vec<String>> = vec![Vec::new(); num_groups];
    for code in 0..card {
        if let Some(group) = groups.get_mut(group_of_code[code % group_of_code.len()]) {
            group.push(format!("v{code}"));
        }
    }
    for (g, group) in groups.iter_mut().enumerate() {
        group.push(format!("absent{g}"));
    }
    let twice = format!("v{}", twice % card);
    groups[0].push(twice.clone());
    groups[num_groups - 1].push(twice);
    if num_groups > 2 {
        groups[1 + emptied % (num_groups - 2)].clear();
    }
    groups
}

/// Dense to empty selections, partial words at both ends, and scattered 1 %,
/// 6 % and 50 % ones, whose words hold from none to most of their lanes.
fn string_selections(rows: usize, bits: &[bool]) -> [Bitmap; 8] {
    let scattered =
        |pct: u64| Bitmap::from_fn(rows, |i| mix(bits.len() as u64, i as u64) % 100 < pct);
    [
        Bitmap::new_full(rows),
        Bitmap::from_fn(rows, |i| bits[i % bits.len()]),
        Bitmap::from_fn(rows, |i| i % 23 == 0),
        Bitmap::new_empty(rows),
        Bitmap::from_fn(rows, |i| {
            (3..rows.saturating_sub(2)).contains(&i) && i % 5 != 0
        }),
        scattered(1),
        scattered(6),
        scattered(50),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Dictionaries on each side of the entry-mask line (9 entries is the
    /// most a count masks), of the 64-code line the retired membership fold
    /// drew and of the `u8` / `u16` width line, NULL lanes (which hold code 0
    /// like the first value's rows), all-NULL columns, dense to empty
    /// selections.
    #[test]
    fn sealed_open_and_scalar_strings_agree_on_each_side_of_every_width_line(
        card in prop_oneof![
            Just(1usize), Just(2usize), Just(3usize), Just(9usize), Just(10usize),
            Just(63usize), Just(64usize), Just(255usize), Just(256usize), Just(257usize)
        ],
        tail in proptest::collection::vec(proptest::option::weighted(0.85, 0u32..100_000), 64..400),
        num_groups in 1usize..9,
        group_of_code in proptest::collection::vec(0usize..10, 1..40),
        twice in 0usize..1000,
        emptied in 0usize..8,
        sel_bits in proptest::collection::vec(any::<bool>(), 1..300),
        all_null in proptest::option::weighted(0.1, Just(())),
    ) {
        let mut cells = dictionary_cells(card, &tail);
        if all_null.is_some() {
            cells.fill(Value::Null);
        }
        let groups = dealt_groups(card, num_groups, &group_of_code, twice, emptied);
        check_string_column(&cells, &string_selections(cells.len(), &sel_bits), &groups);
    }
}

/// One entry past what a `u16` lane names: the sealed single-segment part
/// keeps `u32` lanes, the smaller layouts seal narrower ones.
#[test]
fn a_dictionary_past_65_536_entries_keeps_u32_lanes_and_the_same_answers() {
    let card = 65_537;
    let tail: Vec<Option<u32>> = (0..300u32)
        .map(|i| (i % 9 != 0).then_some(i.wrapping_mul(2_654_435_761)))
        .collect();
    let cells = dictionary_cells(card, &tail);
    let groups = dealt_groups(card, 3, &[0, 5, 1, 2, 7], 65_536, 0);
    let sels = string_selections(cells.len(), &[true, false, true, true, false, false, true]);
    check_string_column(&cells, &sels[..2], &groups);
}

/// The duplicate-value rule, stated once: a value listed in two groups
/// belongs to the **first** group that lists it — for every column type, on
/// both kernel paths, open or sealed. (Strings used to give it to the last one.)
#[test]
fn a_value_listed_in_two_groups_lands_in_the_first() {
    let group = |values: &[&str]| values.iter().map(|v| v.to_string()).collect::<Vec<_>>();
    // Per type: the rows, the groups (one value listed in groups 0 and 2,
    // another in 1 and 2), and the rows each group must select.
    let cases = [
        (
            DataType::Str,
            ["a", "b", "c", "a", "d", "b"]
                .map(|s| Value::Str(s.into()))
                .to_vec(),
            vec![
                group(&["a"]),
                group(&["b", "c"]),
                group(&["c", "a", "d", "b"]),
            ],
            [vec![0, 3], vec![1, 2, 5], vec![4]],
        ),
        (
            DataType::Int,
            [1, 2, 3, 1, 4, 2].map(Value::Int).to_vec(),
            vec![
                group(&["1"]),
                group(&["2", "3"]),
                group(&["3", "1", "4", "2"]),
            ],
            [vec![0, 3], vec![1, 2, 5], vec![4]],
        ),
        (
            DataType::Float,
            [1.5, 2.0, 3.5, 1.5, 4.0, 2.0].map(Value::Float).to_vec(),
            vec![
                group(&["1.5"]),
                group(&["2", "3.5"]),
                group(&["3.5", "1.5", "4", "2"]),
            ],
            [vec![0, 3], vec![1, 2, 5], vec![4]],
        ),
        (
            DataType::Bool,
            [true, false, true, false].map(Value::Bool).to_vec(),
            vec![
                group(&["true"]),
                group(&["false", "TRUE"]),
                group(&["true", "false"]),
            ],
            [vec![0, 2], vec![1, 3], vec![]],
        ),
    ];
    for (dtype, cells, groups, expected) in cases {
        // Enough copies of the rows that full words, and so the word-parallel
        // classifications, are reached; NULLs in between.
        let repeats = 40;
        let mut open = Column::new_empty(dtype);
        let schema = Schema::new(vec![Field::nullable("x", dtype)]).unwrap();
        let mut builder = TableBuilder::new("t", schema);
        let stride = cells.len() + 1;
        for _ in 0..repeats {
            for cell in cells.iter().chain([&Value::Null]) {
                open.push(cell).unwrap();
                builder.push_row(std::slice::from_ref(cell)).unwrap();
            }
        }
        let sealed = builder.build().unwrap();
        let rows = repeats * stride;
        let all = Bitmap::new_full(rows);
        let expected: Vec<Bitmap> = expected
            .iter()
            .map(|local| Bitmap::from_fn(rows, |row| local.contains(&(row % stride))))
            .collect();
        let views = [
            ColumnView::of_column("x", &open),
            sealed.column("x").unwrap(),
        ];
        for view in views {
            for path in [KernelPath::WordParallel, KernelPath::Scalar] {
                let got = with_kernel_path(path, || view.select_in_groups(&all, &groups));
                assert_eq!(got, expected, "{dtype:?} {path:?}");
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Counting a cut's plan off its statistics ≡ partitioning it
// ---------------------------------------------------------------------------

use atlas::core::{
    cut_from_source, CutConfig, CutPlan, CutSource, NumericCutStrategy, Partition, TableCutSource,
};
use std::cell::RefCell;

/// A [`TableCutSource`] that keeps every plan it partitions, with the
/// popcounts of the regions it selected.
struct Recording<'a> {
    inner: TableCutSource<'a>,
    partitioned: RefCell<Vec<(CutPlan, Vec<usize>)>>,
}

impl CutSource for Recording<'_> {
    type Extent = Bitmap;

    fn data_type(&self, attribute: &str) -> atlas::core::Result<DataType> {
        self.inner.data_type(attribute)
    }

    fn numeric_values(&self, attribute: &str) -> atlas::core::Result<Vec<f64>> {
        self.inner.numeric_values(attribute)
    }

    fn category_counts(&self, attribute: &str) -> atlas::core::Result<Vec<(String, usize)>> {
        self.inner.category_counts(attribute)
    }

    fn partition(&self, plans: &[CutPlan]) -> atlas::core::Result<Vec<Vec<Bitmap>>> {
        let regions = self.inner.partition(plans)?;
        let mut seen = self.partitioned.borrow_mut();
        for (plan, bitmaps) in plans.iter().zip(&regions) {
            seen.push((plan.clone(), bitmaps.iter().map(Bitmap::count).collect()));
        }
        Ok(regions)
    }
}

/// Cut `attribute` of `table` over `sel` at `k` ways with `numeric` and
/// return every plan the cut partitioned, with its popcounts, beside the
/// statistics it was planned from. `None` when the cut made no plan.
fn partitioned_plan(
    table: &Table,
    sel: &Bitmap,
    attribute: &str,
    numeric: NumericCutStrategy,
    k: usize,
) -> Option<(CutPlan, Vec<usize>, ColumnStats)> {
    let config = CutConfig {
        num_splits: k,
        numeric,
        max_categories: usize::MAX,
        skip_identifiers: false,
    };
    let stats = table.column_stats(attribute, sel).unwrap();
    let source = Recording {
        inner: TableCutSource::new(table, sel),
        partitioned: RefCell::new(Vec::new()),
    };
    let query = atlas::query::ConjunctiveQuery::all(table.name());
    cut_from_source(&source, &query, attribute, &config, &stats).unwrap();
    let mut seen = source.partitioned.into_inner();
    assert!(seen.len() <= 1, "one attribute, one plan");
    seen.pop().map(|(plan, popcounts)| (plan, popcounts, stats))
}

/// The counts a plan reads off its statistics are the popcounts of its
/// partition; a summary without counts for it gives none.
fn check_counts(plan: &CutPlan, popcounts: &[usize], stats: &ColumnStats, what: &str) {
    let degraded = match &plan.partition {
        Partition::Ranges(_) => stats.value_counts.is_none(),
        Partition::Groups(_) => stats.category_counts.is_none(),
    };
    match plan.counts_from_stats(stats) {
        Some(counts) => {
            assert!(!degraded, "{what}: counted off a degraded summary");
            assert_eq!(counts, popcounts, "{what}: {plan:?}");
        }
        None => assert!(degraded, "{what}: {plan:?} not counted"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Every plan a `Median` or `EquiWidth` cut makes at k = 2 and 3 counts,
    /// off the statistics it was planned from, exactly what partitioning
    /// selects: integers sharing an `f64` past 2⁵³ (whose integer bounds
    /// overlap, so the first range takes them), NaNs in no range, `±0.0`,
    /// NULLs in no region, booleans and strings, over coded and plain parts
    /// at every segment layout; a numeric column past the counter's 1 024
    /// values has no counts and is partitioned.
    #[test]
    fn a_plan_counted_off_its_statistics_selects_what_its_partition_does(
        distinct in prop_oneof![
            Just(2usize), Just(3usize), Just(9usize), Just(10usize),
            Just(40usize), Just(300usize), Just(1100usize)
        ],
        seed in any::<u64>(),
        tail in 1usize..300,
        null_mode in 0usize..3,
        segment_rows in prop_oneof![
            Just(usize::MAX), Just(7usize), Just(64usize), Just(1000usize), Just(1024usize)
        ],
        sel_bits in proptest::collection::vec(any::<bool>(), 1..300),
        sel_kind in 0usize..4,
    ) {
        let rows = 4 * distinct + tail;
        let null_pct = [0u64, 10, 60][null_mode];
        let cell = |column: u64, i: usize, value: Value| {
            if mix(seed ^ column, i as u64) % 100 < null_pct { Value::Null } else { value }
        };
        let pick = |i: usize| if i < distinct {
            (i * 7919) % distinct
        } else {
            (mix(seed, i as u64) % distinct as u64) as usize
        };
        let schema = Schema::new(vec![
            Field::new("i", DataType::Int),
            Field::new("f", DataType::Float),
            Field::new("s", DataType::Str),
            Field::new("b", DataType::Bool),
        ])
        .unwrap();
        let mut builder = TableBuilder::new("t", schema).with_segment_rows(segment_rows);
        for i in 0..rows {
            builder
                .push_row(&[
                    cell(1, i, pool_value(false, pick(i))),
                    cell(2, i, pool_value(true, pick(i))),
                    cell(3, i, Value::Str(format!("v{}", pick(i) % 12))),
                    cell(4, i, Value::Bool(mix(seed ^ 5, i as u64).is_multiple_of(3))),
                ])
                .unwrap();
        }
        let table = builder.build().unwrap();
        let sel = build_selection(sel_kind, &sel_bits, rows);
        for attribute in ["i", "f", "s", "b"] {
            for numeric in [NumericCutStrategy::Median, NumericCutStrategy::EquiWidth] {
                for k in [2, 3] {
                    let what = format!("{attribute}, {numeric:?}, k = {k}");
                    if let Some((plan, popcounts, stats)) =
                        partitioned_plan(&table, &sel, attribute, numeric, k)
                    {
                        check_counts(&plan, &popcounts, &stats, &what);
                    }
                }
            }
        }
    }
}

/// Summaries past the counter — 2 000 distinct floats, a string column whose
/// dictionaries hold 1 100 values while the selected rows hold three — carry
/// no counts, so their plans are partitioned.
#[test]
fn a_degraded_summary_takes_the_partition() {
    let schema = Schema::new(vec![
        Field::new("f", DataType::Float),
        Field::new("s", DataType::Str),
    ])
    .unwrap();
    let mut builder = TableBuilder::new("t", schema).with_segment_rows(1_200);
    for i in 0..4_000 {
        let s = if i < 1_100 {
            format!("c{i}")
        } else {
            ["a", "b", "c"][i % 3].to_string()
        };
        builder
            .push_row(&[Value::Float((i % 2_000) as f64 / 3.0), Value::Str(s)])
            .unwrap();
    }
    let table = builder.build().unwrap();
    let sel = Bitmap::from_fn(4_000, |i| i >= 1_200);
    for attribute in ["f", "s"] {
        let (plan, popcounts, stats) =
            partitioned_plan(&table, &sel, attribute, NumericCutStrategy::Median, 2)
                .expect("the cut partitions a plan");
        assert!(stats.value_counts.is_none() && stats.category_counts.is_none());
        assert_eq!(plan.counts_from_stats(&stats), None, "{attribute}");
        assert_eq!(popcounts.iter().sum::<usize>(), 2_800, "{attribute}");
    }
}
