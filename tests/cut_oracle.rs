//! A row-at-a-time oracle for `CUT` (paper §3.2; README section map:
//! `cut.rs`), proptested against [`atlas::core::cut_attribute`]: the numeric
//! cut first, the categorical cut in the second half of the file.
//!
//! Every other bit-identity suite compares the engine with itself — scalar vs
//! word-parallel, one thread vs many, one layout vs another — through the
//! same summary, quantile and cut code on both sides. The oracle here shares
//! none of it: the working set is a `Vec<Option<f64>>`, order statistics come
//! from `sort_by(f64::total_cmp)`, the distinct count from a `BTreeSet`, and
//! a row's region from one comparison per split. What it shares with the
//! engine is the *definition*: linear interpolation between order statistics
//! at `p·(n−1)`, equi-width points at `min + i·(max−min)/k`, splits kept when
//! strictly increasing inside `[min, max)`, constant and identifier-like
//! columns skipped, empty regions dropped.
//!
//! The columns are the ones the counted summaries have to get right: NULLs,
//! heavy ties, both zeros, cardinalities of 1, ~70 and ~700 (the census
//! columns), cardinalities straddling the value counter's capacity (where a
//! summary degrades to a plain distinct set and the median goes back to
//! selecting over the gathered values), and near-unique values — as Int and
//! as Float, over random working sets and 1-, 3- and 16-segment layouts.

use atlas::core::cut_attribute;
use atlas::prelude::*;
use proptest::prelude::*;
use std::collections::BTreeSet;

/// The oracle's cut: the non-empty regions as `(upper bound bits, rows)`, or
/// `None` when the column is not cut.
fn oracle_cut(
    working_rows: &[Option<f64>],
    is_int: bool,
    strategy: NumericCutStrategy,
    k: usize,
) -> Option<Vec<(u64, u64)>> {
    let mut sorted: Vec<f64> = working_rows.iter().flatten().copied().collect();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let distinct: BTreeSet<u64> = sorted.iter().map(|x| x.to_bits()).collect();
    if distinct.len() < 2 {
        return None;
    }
    // Identifier-like: an integer column whose values almost never repeat.
    if is_int && n >= 16 && distinct.len() as f64 / n as f64 > 0.95 {
        return None;
    }
    let (min, max) = (sorted[0], sorted[n - 1]);
    let candidates: Vec<f64> = (1..k)
        .map(|i| match strategy {
            NumericCutStrategy::Median => {
                let pos = (i as f64 / k as f64) * (n - 1) as f64;
                let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
                if lo == hi {
                    sorted[lo]
                } else {
                    let frac = pos - lo as f64;
                    sorted[lo] * (1.0 - frac) + sorted[hi] * frac
                }
            }
            NumericCutStrategy::EquiWidth => min + (max - min) / k as f64 * i as f64,
            other => unreachable!("the oracle does not know {other:?}"),
        })
        .collect();
    let mut splits: Vec<f64> = Vec::new();
    for s in candidates {
        if s >= min && s < max && splits.last().is_none_or(|&last| s > last) {
            splits.push(s);
        }
    }
    if splits.is_empty() {
        return None;
    }
    // Region `r` holds the values above exactly `r` of the splits.
    let mut counts = vec![0u64; splits.len() + 1];
    for x in working_rows.iter().flatten() {
        counts[splits.iter().filter(|&&s| *x > s).count()] += 1;
    }
    let regions: Vec<(u64, u64)> = splits
        .iter()
        .chain([&max])
        .map(|hi| hi.to_bits())
        .zip(counts)
        .filter(|&(_, rows)| rows > 0)
        .collect();
    (regions.len() >= 2).then_some(regions)
}

/// The engine's cut in the oracle's terms.
fn engine_cut(
    table: &Table,
    working: &Bitmap,
    strategy: NumericCutStrategy,
    k: usize,
) -> Option<Vec<(u64, u64)>> {
    let config = CutConfig {
        num_splits: k,
        numeric: strategy,
        ..CutConfig::default()
    };
    let map = cut_attribute(table, working, &ConjunctiveQuery::all("t"), "x", &config)
        .expect("x is a column of t")?;
    assert!(map.regions_are_disjoint());
    let regions = map.regions.iter().map(|region| {
        match &region.query.predicate_on("x").expect("cut predicate").set {
            PredicateSet::Range { hi, .. } => (hi.to_bits(), region.count() as u64),
            other => panic!("expected a range predicate, got {other:?}"),
        }
    });
    Some(regions.collect())
}

/// Rows as `(raw value, null roll, working-set roll)`: `raw % cardinality`
/// picks the value, a zero roll makes the row NULL / leaves it out.
fn rows() -> impl Strategy<Value = Vec<(u64, u8, u8)>> {
    proptest::collection::vec((0u64..u64::MAX, 0u8..10, 0u8..8), 0..6000)
}

/// One, the census cardinalities, a band around the 1 024 values a summary
/// can count (about 4 700 working-set values are drawn from it, so both
/// sides of the capacity occur), and near-unique.
fn cardinality() -> impl Strategy<Value = u64> {
    prop_oneof![
        Just(1u64),
        Just(70u64),
        Just(700u64),
        950u64..1150,
        Just(1u64 << 40)
    ]
}

/// The column's values: integers around zero, or — as floats — tenths with
/// both zeros among them.
fn values(rows: &[(u64, u8, u8)], cardinality: u64, float: bool) -> Vec<Option<f64>> {
    rows.iter()
        .map(|&(raw, null_roll, _)| {
            let v = (raw % cardinality) as i64 - 3;
            (null_roll != 0).then_some(match (float, v) {
                (false, v) => v as f64,
                (true, 0) if raw % 2 == 0 => -0.0,
                (true, v) => v as f64 / 10.0,
            })
        })
        .collect()
}

fn table_of(column: &[Option<f64>], float: bool, segments: usize) -> Table {
    let dtype = if float {
        DataType::Float
    } else {
        DataType::Int
    };
    let schema = Schema::new(vec![Field::nullable("x", dtype)]).unwrap();
    let mut builder =
        TableBuilder::new("t", schema).with_segment_rows(column.len().div_ceil(segments).max(1));
    for value in column {
        let value = match value {
            None => Value::Null,
            Some(x) if float => Value::Float(*x),
            Some(x) => Value::Int(*x as i64),
        };
        builder.push_row(&[value]).unwrap();
    }
    builder.build().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn numeric_cuts_match_the_row_at_a_time_oracle(
        rows in rows(),
        cardinality in cardinality(),
        float in any::<bool>(),
        equi_width_k in 2usize..=4,
    ) {
        let column = values(&rows, cardinality, float);
        let working = Bitmap::from_indices(
            rows.len(),
            rows.iter().enumerate().filter(|(_, row)| row.2 != 0).map(|(i, _)| i),
        );
        let working_rows: Vec<Option<f64>> = column
            .iter()
            .zip(&rows)
            .filter(|(_, row)| row.2 != 0)
            .map(|(value, _)| *value)
            .collect();
        let cuts = [
            (NumericCutStrategy::Median, 2),
            (NumericCutStrategy::Median, 3),
            (NumericCutStrategy::Median, 4),
            (NumericCutStrategy::EquiWidth, equi_width_k),
        ];
        for segments in [1usize, 3, 16] {
            let table = table_of(&column, float, segments);
            for (strategy, k) in cuts {
                prop_assert_eq!(
                    engine_cut(&table, &working, strategy, k),
                    oracle_cut(&working_rows, !float, strategy, k),
                    "{:?}, k = {}, {} segment(s), cardinality {}, float {}",
                    strategy, k, segments, cardinality, float
                );
            }
        }
    }
}

/// The straddle the proptest reaches only statistically, pinned: one value
/// under, at, and over the counter's capacity cut identically, by counts on
/// one side and by selection over the gathered values on the other.
#[test]
fn cuts_agree_on_both_sides_of_the_counter_capacity() {
    for distinct in [1023u64, 1024, 1025, 1026] {
        for float in [false, true] {
            // Three copies of each value (so an Int column is not
            // identifier-like), scrambled.
            let rows: Vec<(u64, u8, u8)> = (0..distinct * 3)
                .map(|i| (i.wrapping_mul(2_654_435_761) % distinct, 1, 1))
                .collect();
            let column = values(&rows, distinct, float);
            let counted = distinct <= 1024;
            for segments in [1usize, 16] {
                let table = table_of(&column, float, segments);
                let working = table.full_selection();
                let stats = table.column_stats("x", &working).unwrap();
                assert_eq!(stats.distinct_count as u64, distinct);
                assert_eq!(stats.value_counts.is_some(), counted, "{distinct}");
                for k in 2..=4 {
                    let strategy = NumericCutStrategy::Median;
                    let oracle = oracle_cut(&column, !float, strategy, k);
                    assert!(oracle.is_some());
                    assert_eq!(engine_cut(&table, &working, strategy, k), oracle);
                }
            }
        }
    }
}

/// One column whose segments the seal stores four ways — `u8` codes, `u16`
/// codes, plain lanes, and an all-NULL segment with an empty dictionary —
/// cut like the oracle says, over whole and scattered working sets: the
/// statistics fold coded and plain parts into one value set and the partition
/// compares codes in some segments and values in others.
#[test]
fn cuts_match_the_oracle_on_a_column_that_mixes_encodings() {
    use atlas::columnar::Encoding;
    for float in [false, true] {
        // (rows, distinct values) per segment; `None` = all NULL.
        let layout = [
            (400u64, Some(20u64)),
            (2_000, Some(400)),
            (300, Some(1 << 40)),
            (40, None),
        ];
        let mut column: Vec<Option<f64>> = Vec::new();
        let dtype = if float {
            DataType::Float
        } else {
            DataType::Int
        };
        let schema = Schema::new(vec![Field::nullable("x", dtype)]).unwrap();
        let mut builder = TableBuilder::new("t", schema).with_segment_rows(usize::MAX);
        for (segment, &(rows, distinct)) in layout.iter().enumerate() {
            for i in 0..rows {
                let draw = (i + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15 + segment as u64) >> 20;
                let cell = distinct.filter(|_| i % 13 != 0).map(|d| {
                    let v = (draw % d) as i64 % 100_000 - 7;
                    if float {
                        v as f64 / 10.0
                    } else {
                        v as f64
                    }
                });
                builder
                    .push_row(&[match cell {
                        None => Value::Null,
                        Some(x) if float => Value::Float(x),
                        Some(x) => Value::Int(x as i64),
                    }])
                    .unwrap();
                column.push(cell);
            }
            builder.seal_segment().unwrap();
        }
        let table = builder.build().unwrap();
        let encodings: Vec<Encoding> = table
            .column("x")
            .unwrap()
            .parts()
            .map(|(_, part)| part.encoding())
            .collect();
        assert_eq!(
            encodings,
            [
                Encoding::CodedU8,
                Encoding::CodedU16,
                Encoding::Plain,
                Encoding::CodedU8
            ]
        );
        let scattered = Bitmap::from_fn(column.len(), |row| (row * 7) % 11 < 4);
        for working in [table.full_selection(), scattered] {
            let rows: Vec<Option<f64>> = working.iter_ones().map(|row| column[row]).collect();
            for strategy in [NumericCutStrategy::Median, NumericCutStrategy::EquiWidth] {
                for k in 2..=4 {
                    let oracle = oracle_cut(&rows, !float, strategy, k);
                    assert!(oracle.is_some(), "{strategy:?} k={k} float={float}");
                    assert_eq!(engine_cut(&table, &working, strategy, k), oracle);
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The categorical `CUT` (second slice of the oracle)
// ---------------------------------------------------------------------------
//
// The engine ranks a string column's categories from the counts its
// statistics walk keeps (per dictionary code, folded across segments); the
// oracle below tallies a `Vec<Option<String>>` into a `BTreeMap`, finds each
// value's first appearance with `position`, and assigns rows to regions with
// `contains`. The shared definition: values some working-set row holds,
// in decreasing frequency with ties in first-appearance order over the whole
// column, grouped greedily
// into at most `k` contiguous groups — the open group closes, unless it is
// the last, once its cover reaches `⌈total / k⌉`, or once it is non-empty and
// only as many values are left as groups — constant, identifier-like and
// over-40-value columns skipped, empty regions dropped.

/// The oracle's categorical cut: the non-empty regions as `(values of the
/// group, rows)`, or `None` when the column is not cut. `column` is every row
/// (first appearance is a property of the column), `in_working` marks the
/// working set.
fn oracle_categorical_cut(
    column: &[Option<String>],
    in_working: &[bool],
    k: usize,
) -> Option<Vec<(Vec<String>, u64)>> {
    let working_rows: Vec<&String> = column
        .iter()
        .zip(in_working)
        .filter(|(_, inside)| **inside)
        .filter_map(|(value, _)| value.as_ref())
        .collect();
    let mut tally: std::collections::BTreeMap<&String, u64> = std::collections::BTreeMap::new();
    for value in &working_rows {
        *tally.entry(value).or_default() += 1;
    }
    let n = working_rows.len();
    if tally.len() < 2 || tally.len() > 40 {
        return None;
    }
    if n >= 16 && tally.len() as f64 / n as f64 > 0.95 {
        return None;
    }
    let first_appearance =
        |value: &String| column.iter().position(|row| row.as_ref() == Some(value));
    let mut ordered: Vec<(&String, u64)> = tally.into_iter().collect();
    ordered.sort_by_key(|(value, rows)| (std::cmp::Reverse(*rows), first_appearance(value)));
    let k = k.min(ordered.len());
    let target = (n as u64).div_ceil(k as u64);
    let mut groups: Vec<Vec<String>> = vec![Vec::new()];
    let mut cover = 0u64;
    for (at, (value, rows)) in ordered.iter().enumerate() {
        let values_left = ordered.len() - at;
        let groups_left = k - (groups.len() - 1);
        let open = groups.last_mut().expect("there is always an open group");
        let squeezed = !open.is_empty() && values_left == groups_left;
        open.push((*value).clone());
        cover += rows;
        if groups.len() < k && (cover >= target || squeezed) {
            groups.push(Vec::new());
            cover = 0;
        }
    }
    groups.retain(|group| !group.is_empty());
    if groups.len() < 2 {
        return None;
    }
    let regions: Vec<(Vec<String>, u64)> = groups
        .into_iter()
        .map(|mut group| {
            let rows = working_rows.iter().filter(|v| group.contains(v)).count();
            group.sort();
            (group, rows as u64)
        })
        .filter(|(_, rows)| *rows > 0)
        .collect();
    (regions.len() >= 2).then_some(regions)
}

/// The engine's categorical cut in the oracle's terms.
fn engine_categorical_cut(
    table: &Table,
    working: &Bitmap,
    k: usize,
) -> Option<Vec<(Vec<String>, u64)>> {
    let config = CutConfig {
        num_splits: k,
        ..CutConfig::default()
    };
    let map = cut_attribute(table, working, &ConjunctiveQuery::all("t"), "c", &config)
        .expect("c is a column of t")?;
    assert!(map.regions_are_disjoint());
    let regions = map.regions.iter().map(|region| {
        match &region.query.predicate_on("c").expect("cut predicate").set {
            PredicateSet::Values(values) => {
                (values.iter().cloned().collect(), region.count() as u64)
            }
            other => panic!("expected a value-set predicate, got {other:?}"),
        }
    });
    Some(regions.collect())
}

fn string_table_of(column: &[Option<String>], segments: usize) -> Table {
    let schema = Schema::new(vec![Field::nullable("c", DataType::Str)]).unwrap();
    let mut builder =
        TableBuilder::new("t", schema).with_segment_rows(column.len().div_ceil(segments).max(1));
    for value in column {
        let value = value.clone().map_or(Value::Null, Value::Str);
        builder.push_row(&[value]).unwrap();
    }
    builder.build().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Binary and census-sized columns, the 40-value limit from both sides,
    /// and name-like columns; few rows (ties everywhere) to a few thousand.
    #[test]
    fn categorical_cuts_match_the_row_at_a_time_oracle(
        rows in proptest::collection::vec((0u64..u64::MAX, 0u8..10, 0u8..8), 0..3000),
        cardinality in prop_oneof![
            Just(1u64), Just(2u64), Just(5u64), 38u64..44, Just(300u64), Just(1u64 << 40)
        ],
        skew in 1u64..4,
        keep in prop_oneof![Just(usize::MAX), 2usize..60],
    ) {
        // Names whose alphabetic, first-appearance and frequency orders all
        // differ, so the frequency ranking and its tie-break are what decide
        // the groups; `keep` shortens the column so that small tallies tie.
        let column: Vec<Option<String>> = rows
            .iter()
            .take(keep)
            .map(|&(raw, null_roll, _)| {
                (null_roll != 0).then(|| format!("n{}", (raw % cardinality / skew * 7919) % 10_007))
            })
            .collect();
        let in_working: Vec<bool> = rows.iter().take(keep).map(|row| row.2 != 0).collect();
        let working = Bitmap::from_fn(column.len(), |row| in_working[row]);
        for segments in [1usize, 3, 16] {
            let table = string_table_of(&column, segments);
            for k in 2usize..=4 {
                prop_assert_eq!(
                    engine_categorical_cut(&table, &working, k),
                    oracle_categorical_cut(&column, &in_working, k),
                    "k = {}, {} segment(s), cardinality {}",
                    k, segments, cardinality
                );
            }
        }
    }
}

/// A cut reads its categories off the statistics while the column's
/// dictionaries fit the counter and asks the source when they do not; a
/// working set of a few values inside a column of one value under, at and
/// over the capacity cuts identically on both sides.
#[test]
fn categorical_cuts_agree_on_both_sides_of_the_counter_capacity() {
    for values in [1023usize, 1024, 1025, 1100] {
        // 300 rows over five common values, then every other value once.
        let column: Vec<Option<String>> = (0..300)
            .map(|i| Some(format!("common{}", (i * i + i / 7) % 5)))
            .chain((5..values).map(|i| Some(format!("rare{i}"))))
            .collect();
        let in_working: Vec<bool> = (0..column.len())
            .map(|row| row < 300 && row % 4 != 1)
            .collect();
        let working = Bitmap::from_fn(column.len(), |row| in_working[row]);
        for segments in [1usize, 16] {
            let table = string_table_of(&column, segments);
            let stats = table.column_stats("c", &working).unwrap();
            assert_eq!(stats.distinct_count, 5);
            assert_eq!(stats.category_counts.is_some(), values <= 1024, "{values}");
            for k in 2..=4 {
                let oracle = oracle_categorical_cut(&column, &in_working, k);
                assert!(oracle.is_some());
                assert_eq!(
                    engine_categorical_cut(&table, &working, k),
                    oracle,
                    "k = {k}, {values} values, {segments} segment(s)"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Composition (paper §3.3, Definition 4; README section map: `pipeline.rs`)
// ---------------------------------------------------------------------------
//
// `M1 ∘ M2 ∘ …` by nested loops over rows: the regions of the first map are
// the naive `CUT` of its attribute over the working set; for every further
// attribute of the cluster, every current region — in order — is replaced by
// the naive `CUT` of that attribute over the region's own rows, a region whose
// local cut fails is kept whole, and empty regions never appear (the naive
// cuts above do not return them). The oracle holds a region as its row
// indices plus, per attribute, what bounds it: a range's upper bound or a
// value set — the same terms the two `CUT` oracles above compare in; lower
// bounds are the engine's rendering of a split and are not modelled here
// either. It is compared with `CompositionMerge` region for region: bounds,
// rows (so counts too) and order, through a context with no profile and no
// pool, where every region's statistics are walked, and through a pooled
// context over the table's profile, where regions are re-cut as pool tasks
// and a region's statistics may be derived from the working set's.

enum OracleColumn {
    Numeric {
        values: Vec<Option<f64>>,
        is_int: bool,
    },
    Categorical(Vec<Option<String>>),
}

#[derive(Debug, Clone, PartialEq)]
enum Bound {
    UpTo(u64),
    Among(Vec<String>),
}

/// One region in the oracle's terms: per attribute what bounds it (if
/// anything), and its rows.
type OracleRegion = (Vec<Option<Bound>>, Vec<usize>);

/// The file's naive `CUT` (two-way median / frequency grouping, the default
/// configuration) of one column over `rows`: the bound and rows of each
/// region, in region order.
fn oracle_cut_rows(column: &OracleColumn, rows: &[usize]) -> Option<Vec<(Bound, Vec<usize>)>> {
    match column {
        OracleColumn::Numeric { values, is_int } => {
            let working_rows: Vec<Option<f64>> = rows.iter().map(|&row| values[row]).collect();
            let regions = oracle_cut(&working_rows, *is_int, NumericCutStrategy::Median, 2)?;
            // A value belongs to the first region whose upper bound holds it.
            let mut members = vec![Vec::new(); regions.len()];
            for &row in rows {
                if let Some(x) = values[row] {
                    let region = regions
                        .iter()
                        .position(|&(hi, _)| x <= f64::from_bits(hi))
                        .expect("the last upper bound is the maximum");
                    members[region].push(row);
                }
            }
            let cut = regions.iter().zip(members).map(|(&(hi, count), rows)| {
                assert_eq!(rows.len() as u64, count, "the oracle disagrees with itself");
                (Bound::UpTo(hi), rows)
            });
            Some(cut.collect())
        }
        OracleColumn::Categorical(values) => {
            let mut in_working = vec![false; values.len()];
            for &row in rows {
                in_working[row] = true;
            }
            let regions = oracle_categorical_cut(values, &in_working, 2)?;
            let cut = regions.into_iter().map(|(group, count)| {
                let inside =
                    |row: &&usize| values[**row].as_ref().is_some_and(|v| group.contains(v));
                let rows: Vec<usize> = rows.iter().filter(inside).copied().collect();
                assert_eq!(rows.len() as u64, count, "the oracle disagrees with itself");
                (Bound::Among(group), rows)
            });
            Some(cut.collect())
        }
    }
}

/// The attributes that cut over the working set (the candidates), and their
/// composition in attribute order — `None` when no attribute cuts.
fn oracle_composition(
    columns: &[OracleColumn],
    working: &[usize],
) -> (Vec<usize>, Option<Vec<OracleRegion>>) {
    let members: Vec<usize> = (0..columns.len())
        .filter(|&attribute| oracle_cut_rows(&columns[attribute], working).is_some())
        .collect();
    let Some((&first, rest)) = members.split_first() else {
        return (members, None);
    };
    let bounded = |bounds: &[Option<Bound>], attribute: usize, bound: Bound| {
        let mut bounds = bounds.to_vec();
        bounds[attribute] = Some(bound);
        bounds
    };
    let unbounded = vec![None; columns.len()];
    let mut regions: Vec<OracleRegion> = oracle_cut_rows(&columns[first], working)
        .expect("a member cuts")
        .into_iter()
        .map(|(bound, rows)| (bounded(&unbounded, first, bound), rows))
        .collect();
    for &attribute in rest {
        let mut next = Vec::new();
        for (bounds, rows) in regions {
            match oracle_cut_rows(&columns[attribute], &rows) {
                Some(subs) => next.extend(
                    subs.into_iter()
                        .map(|(bound, rows)| (bounded(&bounds, attribute, bound), rows)),
                ),
                None => next.push((bounds, rows)),
            }
        }
        regions = next;
    }
    (members, Some(regions))
}

/// A composed engine map in the oracle's terms (attribute `a` is column
/// `a{a}`).
fn engine_regions(map: &DataMap, attributes: usize) -> Vec<OracleRegion> {
    assert!(map.regions_are_disjoint());
    map.regions
        .iter()
        .map(|region| {
            let bounds = (0..attributes).map(|attribute| {
                let predicate = region.query.predicate_on(&format!("a{attribute}"))?;
                Some(match &predicate.set {
                    PredicateSet::Range { hi, .. } => Bound::UpTo(hi.to_bits()),
                    PredicateSet::Values(values) => Bound::Among(values.iter().cloned().collect()),
                })
            });
            (bounds.collect(), region.selection.to_indices())
        })
        .collect()
}

fn composition_table(columns: &[OracleColumn], segments: usize) -> Table {
    let fields = columns.iter().enumerate().map(|(attribute, column)| {
        let dtype = match column {
            OracleColumn::Numeric { is_int: true, .. } => DataType::Int,
            OracleColumn::Numeric { is_int: false, .. } => DataType::Float,
            OracleColumn::Categorical(_) => DataType::Str,
        };
        Field::nullable(format!("a{attribute}"), dtype)
    });
    let rows = match &columns[0] {
        OracleColumn::Numeric { values, .. } => values.len(),
        OracleColumn::Categorical(values) => values.len(),
    };
    let mut builder = TableBuilder::new("t", Schema::new(fields.collect()).unwrap())
        .with_segment_rows(rows.div_ceil(segments).max(1));
    for row in 0..rows {
        let values: Vec<Value> = columns
            .iter()
            .map(|column| match column {
                OracleColumn::Numeric { values, is_int } => match values[row] {
                    None => Value::Null,
                    Some(x) if *is_int => Value::Int(x as i64),
                    Some(x) => Value::Float(x),
                },
                OracleColumn::Categorical(values) => {
                    values[row].clone().map_or(Value::Null, Value::Str)
                }
            })
            .collect();
        builder.push_row(&values).unwrap();
    }
    builder.build().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Clusters of two and three attributes, numeric (Int and Float) and
    /// categorical members in every order, NULLs in every column, binary to
    /// near-unique cardinalities (so some members do not cut at all, and many
    /// regions are too uniform or too small to re-cut), random working sets,
    /// one and three segments.
    #[test]
    fn composition_matches_nested_loops_over_rows(
        rows in proptest::collection::vec(
            ((0u64..u64::MAX, 0u64..u64::MAX, 0u64..u64::MAX), 0u8..250, 0u8..8),
            0..400,
        ),
        kinds in proptest::collection::vec(0usize..3, 2..4),
        cardinalities in proptest::collection::vec(
            prop_oneof![Just(1u64), Just(2u64), Just(3u64), Just(6u64), Just(70u64), Just(1u64 << 40)],
            3,
        ),
    ) {
        let columns: Vec<OracleColumn> = kinds
            .iter()
            .enumerate()
            .map(|(attribute, &kind)| {
                let cell = |&((r0, r1, r2), null_roll, _): &((u64, u64, u64), u8, u8)| {
                    let raw = [r0, r1, r2][attribute] % cardinalities[attribute];
                    // About one row in seven is NULL, a different seventh per attribute.
                    (!(null_roll as usize + attribute).is_multiple_of(7)).then_some(raw)
                };
                match kind {
                    0 => OracleColumn::Numeric {
                        values: rows.iter().map(|row| cell(row).map(|raw| raw as i64 as f64 - 3.0)).collect(),
                        is_int: true,
                    },
                    1 => OracleColumn::Numeric {
                        values: rows.iter().map(|row| cell(row).map(|raw| (raw as i64 - 3) as f64 / 10.0)).collect(),
                        is_int: false,
                    },
                    _ => OracleColumn::Categorical(
                        rows.iter().map(|row| cell(row).map(|raw| format!("n{}", raw * 7919 % 10_007))).collect(),
                    ),
                }
            })
            .collect();
        let working_rows: Vec<usize> = (0..rows.len()).filter(|&row| rows[row].2 != 0).collect();
        let working = Bitmap::from_indices(rows.len(), working_rows.iter().copied());
        let (member_attributes, oracle) = oracle_composition(&columns, &working_rows);

        let config = CutConfig::default();
        let all = ConjunctiveQuery::all("t");
        let pool = atlas::core::ThreadPool::new(3);
        for segments in [1usize, 3] {
            let table = composition_table(&columns, segments);
            let mut members = Vec::new();
            for attribute in 0..columns.len() {
                let name = format!("a{attribute}");
                let cut = cut_attribute(&table, &working, &all, &name, &config).expect("a column of t");
                prop_assert_eq!(cut.is_some(), member_attributes.contains(&attribute), "{}", name);
                members.extend(cut);
            }
            let (no_profile, profile) = (TableProfile::empty(table.num_rows()), TableProfile::build(&table));
            let context = |profile, pool| PipelineContext {
                table: &table,
                profile,
                cut_config: &config,
                cut_strategy: &atlas::core::PaperCut,
                drop_empty_regions: true,
                pool,
            };
            let walked = context(&no_profile, atlas::core::ThreadPool::sequential());
            let pooled = context(&profile, &pool);
            let merge = |ctx| atlas::core::CompositionMerge.merge(ctx, &members, &working).unwrap();
            for (path, composed) in [("no profile", merge(&walked)), ("pooled", merge(&pooled))] {
                prop_assert_eq!(
                    composed.as_ref().map(|map| engine_regions(map, columns.len())),
                    oracle.clone(),
                    "{}, {} segment(s), kinds {:?}, cardinalities {:?}",
                    path, segments, kinds, cardinalities
                );
            }
        }
    }
}
