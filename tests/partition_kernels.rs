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
//!   `ATLAS_SEGMENT_ROWS=1024` and `ATLAS_FORCE_SCALAR=1` in CI.

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
    let schema = Schema::new(vec![Field::new("c", DataType::Str)]).unwrap();
    let mut builder = TableBuilder::new("t", schema).with_segment_rows(segment_rows);
    let head = (0..card).map(Some);
    let tail = tail.iter().map(|code| code.map(|c| c as usize % card));
    for code in head.chain(tail) {
        let value = code.map_or(Value::Null, |c| Value::Str(format!("v{c}")));
        builder.push_row(&[value]).unwrap();
    }
    builder.build().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Both sides of the 64-code line: dictionaries of fewer than 64 codes
    /// fold membership words, larger ones gather group slots, and every
    /// answer is the scalar reference's — with NULL lanes, groups naming
    /// values no dictionary holds, a value listed in two groups, an empty
    /// group, dense / half-dense / under-16-lane / empty selection words, and
    /// every segment layout (per-segment dictionaries then sit on either side
    /// of the line within one column).
    #[test]
    fn dictionary_grouping_is_bit_identical_on_both_sides_of_the_64_code_line(
        card in prop_oneof![
            Just(1usize), Just(2usize), Just(62usize), Just(63usize),
            Just(64usize), Just(65usize), Just(200usize)
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
