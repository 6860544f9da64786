//! Typed columns with null masks and dictionary encoding for strings.
//!
//! A [`Column`] **stores**: it is built, measured and read a row at a time
//! here, and nothing in this module takes a selection. Every scan goes through
//! [`crate::ColumnView`] — a lone column is its one-part case,
//! [`crate::ColumnView::of_column`] — whose per-part bodies live in
//! [`crate::kernels`].

use crate::bitmap::Bitmap;
use crate::error::{ColumnarError, Result};
use crate::value::{DataType, Value};
use std::collections::HashMap;

/// Sentinel code used for NULL entries in dictionary-encoded columns.
pub const NULL_CODE: u32 = u32::MAX;

/// A primitive column: a dense value vector plus a packed validity bitmap.
///
/// NULL rows hold `T::default()` in the value vector and a zero bit in the
/// validity mask. Splitting values from nullness is what lets the partition
/// kernels run word-parallel: 64 validity bits load in one shift-and-or
/// ([`Bitmap::word_at`]) and the value lanes are a plain `&[T]` slice that
/// classification loops read without per-row `Option` unwrapping.
#[derive(Debug, Clone, PartialEq)]
pub struct PrimitiveColumn<T> {
    values: Vec<T>,
    validity: Bitmap,
}

impl<T: Copy + Default> PrimitiveColumn<T> {
    /// Create an empty column.
    pub fn new() -> Self {
        PrimitiveColumn {
            values: Vec::new(),
            validity: Bitmap::new_empty(0),
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True if the column holds no rows.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Append a value (`None` = NULL).
    pub fn push(&mut self, value: Option<T>) {
        self.values.push(value.unwrap_or_default());
        self.validity.push(value.is_some());
    }

    /// The value at `row`, `None` for NULL.
    ///
    /// # Panics
    /// Panics if `row` is out of bounds.
    pub fn get(&self, row: usize) -> Option<T> {
        let x = self.values[row];
        self.validity.get(row).then_some(x)
    }

    /// The dense value lanes (NULL rows hold `T::default()`; consult
    /// [`PrimitiveColumn::validity`] before trusting a lane).
    pub fn values(&self) -> &[T] {
        &self.values
    }

    /// The validity mask: bit `i` set ⇔ row `i` is non-NULL.
    pub fn validity(&self) -> &Bitmap {
        &self.validity
    }

    /// Number of NULL entries.
    pub fn null_count(&self) -> usize {
        self.values.len() - self.validity.count()
    }

    /// Iterate the rows as `Option<T>`.
    pub fn iter(&self) -> impl Iterator<Item = Option<T>> + '_ {
        (0..self.len()).map(|row| self.get(row))
    }

    /// Copy the rows `start..end` into a new column.
    ///
    /// # Panics
    /// Panics if the range is out of bounds.
    pub fn slice(&self, start: usize, end: usize) -> Self {
        let values = self.values[start..end].to_vec();
        let len = end - start;
        let words = (0..len.div_ceil(64))
            .map(|k| self.validity.word_at(start + k * 64))
            .collect();
        PrimitiveColumn {
            values,
            validity: Bitmap::from_words(len, words),
        }
    }
}

impl<T: Copy + Default> Default for PrimitiveColumn<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Copy + Default> From<Vec<Option<T>>> for PrimitiveColumn<T> {
    fn from(values: Vec<Option<T>>) -> Self {
        let mut out = PrimitiveColumn::new();
        for v in values {
            out.push(v);
        }
        out
    }
}

/// A dictionary-encoded categorical column.
///
/// Values are stored as `u32` codes into `dict`; NULLs are stored as
/// [`NULL_CODE`]. The dictionary preserves first-appearance order, which the
/// query layer uses for the "order in which the user gives them" cutting
/// heuristic of the paper.
#[derive(Debug, Clone, PartialEq)]
pub struct DictColumn {
    dict: Vec<String>,
    codes: Vec<u32>,
    index: HashMap<String, u32>,
}

impl DictColumn {
    /// Create an empty dictionary column.
    pub fn new() -> Self {
        DictColumn {
            dict: Vec::new(),
            codes: Vec::new(),
            index: HashMap::new(),
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// True if the column holds no rows.
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// Append a value, interning it in the dictionary.
    pub fn push(&mut self, value: Option<&str>) {
        match value {
            None => self.codes.push(NULL_CODE),
            Some(s) => {
                let code = self.intern(s);
                self.codes.push(code);
            }
        }
    }

    /// Intern a string, returning its code (without appending a row).
    pub fn intern(&mut self, s: &str) -> u32 {
        if let Some(&code) = self.index.get(s) {
            return code;
        }
        let code = self.dict.len() as u32;
        self.dict.push(s.to_string());
        self.index.insert(s.to_string(), code);
        code
    }

    /// The code stored at `row` ([`NULL_CODE`] for NULL).
    pub fn code(&self, row: usize) -> u32 {
        self.codes[row]
    }

    /// The string at `row`, or `None` for NULL.
    pub fn get(&self, row: usize) -> Option<&str> {
        let c = self.codes[row];
        if c == NULL_CODE {
            None
        } else {
            Some(self.dict[c as usize].as_str())
        }
    }

    /// Look up the code of a string, if it is present in the dictionary.
    pub fn code_of(&self, s: &str) -> Option<u32> {
        self.index.get(s).copied()
    }

    /// The distinct values in first-appearance order.
    pub fn dictionary(&self) -> &[String] {
        &self.dict
    }

    /// The raw code vector.
    pub fn codes(&self) -> &[u32] {
        &self.codes
    }

    /// The number of distinct non-NULL values.
    pub fn cardinality(&self) -> usize {
        self.dict.len()
    }
}

impl Default for DictColumn {
    fn default() -> Self {
        Self::new()
    }
}

/// A typed column of values with NULL support.
///
/// Numeric and boolean columns store dense value lanes plus a validity
/// bitmap ([`PrimitiveColumn`]); string columns are dictionary encoded
/// (see [`DictColumn`]).
#[derive(Debug, Clone, PartialEq)]
pub enum Column {
    /// 64-bit integer column.
    Int(PrimitiveColumn<i64>),
    /// 64-bit float column.
    Float(PrimitiveColumn<f64>),
    /// Dictionary-encoded string column.
    Str(DictColumn),
    /// Boolean column.
    Bool(PrimitiveColumn<bool>),
}

impl Column {
    /// Create an empty column of the given type.
    pub fn new_empty(dtype: DataType) -> Self {
        match dtype {
            DataType::Int => Column::Int(PrimitiveColumn::new()),
            DataType::Float => Column::Float(PrimitiveColumn::new()),
            DataType::Str => Column::Str(DictColumn::new()),
            DataType::Bool => Column::Bool(PrimitiveColumn::new()),
        }
    }

    /// The data type of the column.
    pub fn data_type(&self) -> DataType {
        match self {
            Column::Int(_) => DataType::Int,
            Column::Float(_) => DataType::Float,
            Column::Str(_) => DataType::Str,
            Column::Bool(_) => DataType::Bool,
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            Column::Int(v) => v.len(),
            Column::Float(v) => v.len(),
            Column::Str(d) => d.len(),
            Column::Bool(v) => v.len(),
        }
    }

    /// True if the column holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Append a dynamically-typed value.
    ///
    /// Returns a type-mismatch error if the value does not match the column
    /// type (NULL is accepted by every column).
    pub fn push(&mut self, value: &Value) -> Result<()> {
        match (self, value) {
            (Column::Int(v), Value::Int(x)) => v.push(Some(*x)),
            (Column::Int(v), Value::Null) => v.push(None),
            (Column::Float(v), Value::Float(x)) => v.push(Some(*x)),
            (Column::Float(v), Value::Int(x)) => v.push(Some(*x as f64)),
            (Column::Float(v), Value::Null) => v.push(None),
            (Column::Str(d), Value::Str(s)) => d.push(Some(s)),
            (Column::Str(d), Value::Null) => d.push(None),
            (Column::Bool(v), Value::Bool(b)) => v.push(Some(*b)),
            (Column::Bool(v), Value::Null) => v.push(None),
            (col, value) => {
                return Err(ColumnarError::TypeMismatch {
                    expected: col.data_type().name().to_string(),
                    found: value
                        .data_type()
                        .map(|t| t.name().to_string())
                        .unwrap_or_else(|| "null".to_string()),
                })
            }
        }
        Ok(())
    }

    /// The value at `row` as a dynamically-typed [`Value`].
    ///
    /// # Panics
    /// Panics if `row` is out of bounds.
    pub fn value(&self, row: usize) -> Value {
        match self {
            Column::Int(v) => v.get(row).map(Value::Int).unwrap_or(Value::Null),
            Column::Float(v) => v.get(row).map(Value::Float).unwrap_or(Value::Null),
            Column::Str(d) => d
                .get(row)
                .map(|s| Value::Str(s.to_string()))
                .unwrap_or(Value::Null),
            Column::Bool(v) => v.get(row).map(Value::Bool).unwrap_or(Value::Null),
        }
    }

    /// Checked version of [`Column::value`].
    pub fn try_value(&self, row: usize) -> Result<Value> {
        if row >= self.len() {
            return Err(ColumnarError::RowOutOfBounds {
                row,
                len: self.len(),
            });
        }
        Ok(self.value(row))
    }

    /// True if the value at `row` is NULL.
    pub fn is_null(&self, row: usize) -> bool {
        match self {
            Column::Int(v) => v.get(row).is_none(),
            Column::Float(v) => v.get(row).is_none(),
            Column::Str(d) => d.get(row).is_none(),
            Column::Bool(v) => v.get(row).is_none(),
        }
    }

    /// Number of NULL entries.
    pub fn null_count(&self) -> usize {
        match self {
            Column::Int(v) => v.null_count(),
            Column::Float(v) => v.null_count(),
            Column::Str(d) => d.codes().iter().filter(|&&c| c == NULL_CODE).count(),
            Column::Bool(v) => v.null_count(),
        }
    }

    /// Numeric view of the value at `row` (`None` for NULL or non-numeric).
    pub fn numeric(&self, row: usize) -> Option<f64> {
        match self {
            Column::Int(v) => v.get(row).map(|x| x as f64),
            Column::Float(v) => v.get(row),
            _ => None,
        }
    }

    /// Access the dictionary column if this is a string column.
    pub fn as_dict(&self) -> Option<&DictColumn> {
        match self {
            Column::Str(d) => Some(d),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view::ColumnView;

    fn int_col(values: &[Option<i64>]) -> Column {
        Column::Int(values.to_vec().into())
    }

    /// The one-part view a lone column is scanned through.
    fn view(column: &Column) -> ColumnView<'_> {
        ColumnView::of_column("c", column)
    }

    #[test]
    fn primitive_column_round_trips_options() {
        let p: PrimitiveColumn<i64> = vec![Some(1), None, Some(3)].into();
        assert_eq!(p.len(), 3);
        assert_eq!(p.get(0), Some(1));
        assert_eq!(p.get(1), None);
        assert_eq!(p.get(2), Some(3));
        assert_eq!(p.null_count(), 1);
        assert_eq!(p.values(), &[1, 0, 3]);
        assert!(p.validity().get(0) && !p.validity().get(1));
        assert_eq!(p.iter().collect::<Vec<_>>(), vec![Some(1), None, Some(3)]);
    }

    #[test]
    fn primitive_column_slice_keeps_validity_alignment() {
        let values: Vec<Option<i64>> = (0..200)
            .map(|i| if i % 7 == 0 { None } else { Some(i) })
            .collect();
        let p: PrimitiveColumn<i64> = values.clone().into();
        for (start, end) in [
            (0usize, 200usize),
            (3, 130),
            (64, 128),
            (65, 67),
            (199, 199),
        ] {
            let s = p.slice(start, end);
            assert_eq!(s.len(), end - start);
            for (i, want) in values[start..end].iter().enumerate() {
                assert_eq!(s.get(i), *want, "slice {start}..{end} row {i}");
            }
        }
    }

    #[test]
    fn dict_column_interning() {
        let mut d = DictColumn::new();
        d.push(Some("a"));
        d.push(Some("b"));
        d.push(Some("a"));
        d.push(None);
        assert_eq!(d.len(), 4);
        assert_eq!(d.cardinality(), 2);
        assert_eq!(d.get(0), Some("a"));
        assert_eq!(d.get(2), Some("a"));
        assert_eq!(d.get(3), None);
        assert_eq!(d.code(0), d.code(2));
        assert_eq!(d.code_of("b"), Some(1));
        assert_eq!(d.code_of("zzz"), None);
        assert_eq!(d.dictionary(), &["a".to_string(), "b".to_string()]);
    }

    #[test]
    fn push_and_value_round_trip() {
        let mut col = Column::new_empty(DataType::Int);
        col.push(&Value::Int(1)).unwrap();
        col.push(&Value::Null).unwrap();
        assert_eq!(col.value(0), Value::Int(1));
        assert_eq!(col.value(1), Value::Null);
        assert!(col.is_null(1));
        assert_eq!(col.null_count(), 1);
        assert_eq!(col.len(), 2);

        let mut s = Column::new_empty(DataType::Str);
        s.push(&Value::Str("x".into())).unwrap();
        assert_eq!(s.value(0), Value::Str("x".into()));
        assert!(s.as_dict().is_some());

        // Int into Float column is widened.
        let mut f = Column::new_empty(DataType::Float);
        f.push(&Value::Int(2)).unwrap();
        assert_eq!(f.value(0), Value::Float(2.0));
    }

    #[test]
    fn push_type_mismatch_errors() {
        let mut col = Column::new_empty(DataType::Int);
        let err = col.push(&Value::Str("x".into())).unwrap_err();
        assert!(matches!(err, ColumnarError::TypeMismatch { .. }));
    }

    #[test]
    fn try_value_bounds() {
        let col = int_col(&[Some(1)]);
        assert!(col.try_value(0).is_ok());
        assert!(matches!(
            col.try_value(5),
            Err(ColumnarError::RowOutOfBounds { .. })
        ));
    }

    #[test]
    fn numeric_scan_kernels() {
        let column = int_col(&[Some(10), Some(20), None, Some(30), Some(40)]);
        let col = view(&column);
        let all = Bitmap::new_full(5);
        assert_eq!(col.numeric_values_where(&all), vec![10.0, 20.0, 30.0, 40.0]);
        let sel = Bitmap::from_indices(5, [0, 2, 3]);
        assert_eq!(col.numeric_values_where(&sel), vec![10.0, 30.0]);
        let hit = col.select_range(&all, 15.0, 35.0);
        assert_eq!(hit.to_indices(), vec![1, 3]);
        assert_eq!(col.numeric_min_max(&all), Some((10.0, 40.0)));
        assert_eq!(col.numeric_min_max(&Bitmap::new_empty(5)), None);
    }

    #[test]
    fn select_in_on_strings_bools_and_ints() {
        let mut d = DictColumn::new();
        for s in ["bsc", "msc", "bsc", "phd"] {
            d.push(Some(s));
        }
        let column = Column::Str(d);
        let col = view(&column);
        let all = Bitmap::new_full(4);
        let hit = col.select_in(&all, &["bsc".to_string(), "phd".to_string()]);
        assert_eq!(hit.to_indices(), vec![0, 2, 3]);
        let none = col.select_in(&all, &["unknown".to_string()]);
        assert!(none.is_all_clear());

        let b = Column::Bool(vec![Some(true), Some(false), None, Some(true)].into());
        let allb = Bitmap::new_full(4);
        let hit = view(&b).select_in(&allb, &["true".to_string()]);
        assert_eq!(hit.to_indices(), vec![0, 3]);

        let i = int_col(&[Some(1), Some(2), Some(3)]);
        let alli = Bitmap::new_full(3);
        let hit = view(&i).select_in(&alli, &["2".to_string()]);
        assert_eq!(hit.to_indices(), vec![1]);
    }

    #[test]
    fn categories_by_frequency_orders_desc() {
        let mut d = DictColumn::new();
        for s in ["a", "b", "b", "c", "b", "a"] {
            d.push(Some(s));
        }
        let column = Column::Str(d);
        let col = view(&column);
        let all = Bitmap::new_full(col.len());
        let freq = col.categories_by_frequency(&all);
        assert_eq!(freq[0], ("b".to_string(), 3));
        assert_eq!(freq[1], ("a".to_string(), 2));
        assert_eq!(freq[2], ("c".to_string(), 1));
        // numeric columns: empty
        assert!(view(&int_col(&[Some(1)]))
            .categories_by_frequency(&Bitmap::new_full(1))
            .is_empty());
    }

    #[test]
    fn select_range_ignores_nan_values() {
        // NaN never satisfies an inclusive range, whatever the bounds.
        let column =
            Column::Float(vec![Some(1.0), Some(f64::NAN), Some(2.0), None, Some(3.0)].into());
        let col = view(&column);
        let all = Bitmap::new_full(5);
        let hit = col.select_range(&all, f64::NEG_INFINITY, f64::INFINITY);
        assert_eq!(hit.to_indices(), vec![0, 2, 4]);
        assert_eq!(col.select_range(&all, 1.0, 2.0).to_indices(), vec![0, 2]);
        // NaN bounds match nothing (every comparison is false).
        assert!(col.select_range(&all, f64::NAN, 10.0).is_all_clear());
        assert!(col.select_range(&all, 0.0, f64::NAN).is_all_clear());
        assert!(col.select_range(&all, f64::NAN, f64::NAN).is_all_clear());
    }

    #[test]
    fn select_range_with_inverted_bounds_selects_nothing() {
        // (lo, hi) with lo > hi is an empty interval under the inclusive
        // semantics — pinned so the per-segment kernels keep it.
        let column = int_col(&[Some(1), Some(2), Some(3)]);
        let col = view(&column);
        let all = Bitmap::new_full(3);
        assert!(col.select_range(&all, 3.0, 1.0).is_all_clear());
        // Degenerate single-point interval still matches.
        assert_eq!(col.select_range(&all, 2.0, 2.0).to_indices(), vec![1]);
        // select_ranges agrees per region.
        let regions = col.select_ranges(&all, &[(3.0, 1.0), (2.0, 2.0)]);
        assert!(regions[0].is_all_clear());
        assert_eq!(regions[1].to_indices(), vec![1]);
    }

    #[test]
    fn select_range_on_restricted_selection() {
        let column = Column::Float(vec![Some(1.0), Some(2.0), Some(3.0), Some(4.0)].into());
        let col = view(&column);
        let sel = Bitmap::from_indices(4, [1, 2]);
        let hit = col.select_range(&sel, 0.0, 10.0);
        assert_eq!(hit.to_indices(), vec![1, 2]);
    }

    #[test]
    fn numeric_select_in_groups_is_single_pass_and_matches_per_group_select_in() {
        // The satellite fix: numeric group partitioning used to run one
        // select_in scan per group; the single-pass kernel must keep the
        // same results for disjoint groups.
        let column = int_col(&[Some(1), Some(2), Some(3), None, Some(4), Some(2)]);
        let col = view(&column);
        let all = Bitmap::new_full(6);
        let groups = vec![
            vec!["1".to_string(), "4".to_string()],
            vec!["2".to_string()],
            vec!["007".to_string()], // never matches: round-trip rendering
        ];
        let got = col.select_in_groups(&all, &groups);
        for (g, group) in groups.iter().enumerate() {
            assert_eq!(got[g], col.select_in(&all, group), "group {g}");
        }
        assert_eq!(got[0].to_indices(), vec![0, 4]);
        assert_eq!(got[1].to_indices(), vec![1, 5]);
        assert!(got[2].is_all_clear());

        // Floats match on rendered values, same contract.
        let f = Column::Float(vec![Some(1.5), Some(2.5), None, Some(1.5)].into());
        let allf = Bitmap::new_full(4);
        let fg = vec![vec!["1.5".to_string()], vec!["2.5".to_string()]];
        let got = view(&f).select_in_groups(&allf, &fg);
        assert_eq!(got[0].to_indices(), vec![0, 3]);
        assert_eq!(got[1].to_indices(), vec![1]);
    }
}
