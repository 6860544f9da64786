//! Immutable in-memory relations, stored as ordered lists of segments.

use crate::bitmap::Bitmap;
use crate::colstats::ColumnStats;
use crate::column::{Column, DictColumn};
use crate::error::{ColumnarError, Result};
use crate::kernels;
use crate::schema::Schema;
use crate::segment::{default_segment_rows, Segment};
use crate::value::Value;
use crate::view::ColumnView;
use minirayon::ThreadPool;
use std::fmt;
use std::sync::Arc;

/// An immutable relation: a schema plus an ordered list of [`Segment`]s, each
/// holding a contiguous row range with one column per field.
///
/// Tables are cheap to share (`Arc<Table>`) **and cheap to extend**: because
/// segments are immutable and individually `Arc`-shared,
/// [`Table::append_segment`] produces a new table that reuses every existing
/// segment and adds one — ingested data is never copied or re-encoded. All
/// row addressing is global: a [`Bitmap`] selection ranges over the whole
/// table, and the per-segment scan kernels of [`ColumnView`] assemble their
/// results in global coordinates, so query answers are independent of the
/// segment layout.
#[derive(Debug, Clone)]
pub struct Table {
    pub(crate) name: String,
    pub(crate) schema: Schema,
    pub(crate) segments: Vec<Arc<Segment>>,
    /// Global row index of the first row of each segment.
    pub(crate) offsets: Vec<usize>,
    pub(crate) num_rows: usize,
}

impl Table {
    /// Assemble a table from a schema and matching whole-relation columns.
    ///
    /// All columns must have the same length and their types must match the
    /// schema; violations name the offending column. The rows are chunked
    /// into segments of [`default_segment_rows`] (columns short enough to fit
    /// one segment are moved, not copied).
    pub fn new(name: impl Into<String>, schema: Schema, columns: Vec<Column>) -> Result<Self> {
        let num_rows = crate::segment::validate_columns(&schema, &columns)?;
        let segment_rows = default_segment_rows();
        let mut segments = Vec::new();
        if num_rows <= segment_rows {
            if num_rows > 0 {
                segments.push(Arc::new(Segment::new(&schema, columns)?));
            }
        } else {
            let mut start = 0;
            while start < num_rows {
                let end = (start + segment_rows).min(num_rows);
                let chunk: Vec<Column> = columns
                    .iter()
                    .map(|c| slice_column(c, start, end))
                    .collect();
                segments.push(Arc::new(Segment::new(&schema, chunk)?));
                start = end;
            }
        }
        Table::from_segments(name, schema, segments)
    }

    /// Assemble a table from already-sealed segments (validated against the
    /// schema; zero-row segments are dropped).
    pub fn from_segments(
        name: impl Into<String>,
        schema: Schema,
        segments: Vec<Arc<Segment>>,
    ) -> Result<Self> {
        let mut kept = Vec::with_capacity(segments.len());
        let mut offsets = Vec::with_capacity(segments.len());
        let mut num_rows = 0usize;
        for segment in segments {
            validate_segment(&schema, &segment)?;
            if segment.is_empty() {
                continue;
            }
            offsets.push(num_rows);
            num_rows += segment.num_rows();
            kept.push(segment);
        }
        Ok(Table {
            name: name.into(),
            schema,
            segments: kept,
            offsets,
            num_rows,
        })
    }

    /// A new table extending this one with one more segment (which must match
    /// the schema). Existing segments are shared, not copied: this is the
    /// storage half of incremental ingest.
    pub fn append_segment(&self, segment: impl Into<Arc<Segment>>) -> Result<Table> {
        let segment = segment.into();
        validate_segment(&self.schema, &segment)?;
        let mut out = self.clone();
        if !segment.is_empty() {
            out.offsets.push(out.num_rows);
            out.num_rows += segment.num_rows();
            out.segments.push(segment);
        }
        Ok(out)
    }

    /// The table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.num_rows
    }

    /// Number of columns.
    pub fn num_columns(&self) -> usize {
        self.schema.len()
    }

    /// True if the table holds no rows.
    pub fn is_empty(&self) -> bool {
        self.num_rows == 0
    }

    /// Number of segments.
    pub fn num_segments(&self) -> usize {
        self.segments.len()
    }

    /// The segments, in row order.
    pub fn segments(&self) -> &[Arc<Segment>] {
        &self.segments
    }

    /// A view of the column with the given name, spanning every segment.
    pub fn column(&self, name: &str) -> Result<ColumnView<'_>> {
        let idx = self.schema.index_of(name)?;
        Ok(ColumnView::new(self, idx))
    }

    /// Views of all columns, in schema order.
    pub fn columns(&self) -> Vec<ColumnView<'_>> {
        (0..self.schema.len())
            .map(|idx| ColumnView::new(self, idx))
            .collect()
    }

    /// The value at (`row`, `column_name`).
    pub fn value(&self, row: usize, column_name: &str) -> Result<Value> {
        if row >= self.num_rows {
            return Err(ColumnarError::RowOutOfBounds {
                row,
                len: self.num_rows,
            });
        }
        Ok(self.column(column_name)?.value(row))
    }

    /// The segment containing global row `row`, with its offset.
    ///
    /// # Panics
    /// Panics if `row` is out of bounds.
    pub(crate) fn segment_of(&self, row: usize) -> (usize, &Segment) {
        assert!(
            row < self.num_rows,
            "row index {row} out of bounds for length {}",
            self.num_rows
        );
        let idx = self.offsets.partition_point(|&o| o <= row) - 1;
        (self.offsets[idx], &self.segments[idx])
    }

    /// A full selection over this table (all rows).
    pub fn full_selection(&self) -> Bitmap {
        Bitmap::new_full(self.num_rows)
    }

    /// Compute summary statistics for the named column over the selected rows
    /// (every segment scanned into one [`crate::colstats::ColumnSummary`]).
    pub fn column_stats(&self, name: &str, sel: &Bitmap) -> Result<ColumnStats> {
        Ok(self.column(name)?.stats(sel))
    }

    /// Materialise a row as a vector of values (mostly for display / tests).
    pub fn row(&self, row: usize) -> Result<Vec<Value>> {
        if row >= self.num_rows {
            return Err(ColumnarError::RowOutOfBounds {
                row,
                len: self.num_rows,
            });
        }
        let (offset, segment) = self.segment_of(row);
        Ok(segment
            .columns()
            .iter()
            .map(|c| c.value(row - offset))
            .collect())
    }

    /// The rows `sel` selects, as a table of their own, in row order: the
    /// compact table a sparse explore runs over. `sel` ranges over this
    /// table's rows.
    ///
    /// The result has this table's name and schema and **one segment per
    /// segment of this one**, in order. Each holds its source segment's
    /// selected rows, column by column in the source column's own encoding
    /// and dictionary (shared, not copied; nothing is sealed again), and a
    /// segment no selected row falls in is kept with zero rows. So every
    /// dictionary a statistics walk visits over the selected rows of this
    /// table it visits over the gathered one, in the same order: the
    /// first-appearance order of categories, their zero counts and the
    /// distinct-value counter's decisions are the same. A segment selected
    /// whole is shared.
    ///
    /// Segments are gathered in parallel on `pool` (the part kernel is
    /// [`crate::kernels`]'s gather); the result is the same at every pool
    /// size.
    pub fn gather(&self, sel: &Bitmap, pool: &ThreadPool) -> Table {
        let parent = atlas_obs::current();
        let segments = pool.par_map_indexed(self.segments.len(), 1, |at| {
            let _trace = atlas_obs::with_context(parent);
            let segment = &self.segments[at];
            let part = kernels::PartRows::new(sel, self.offsets[at], segment.num_rows());
            if part.selected() == segment.num_rows() {
                return Arc::clone(segment);
            }
            let columns = segment
                .columns()
                .iter()
                .map(|column| kernels::gather_part(column, &part))
                .collect();
            Arc::new(Segment::from_sealed(columns, part.selected()))
        });
        let mut offsets = Vec::with_capacity(segments.len());
        let mut num_rows = 0;
        for segment in &segments {
            offsets.push(num_rows);
            num_rows += segment.num_rows();
        }
        Table {
            name: self.name.clone(),
            schema: self.schema.clone(),
            segments,
            offsets,
            num_rows,
        }
    }
}

/// Check a sealed segment against a table schema (column count and types;
/// lengths inside a sealed segment are consistent by construction).
fn validate_segment(schema: &Schema, segment: &Segment) -> Result<()> {
    crate::segment::validate_columns(schema, segment.columns()).map(|_| ())
}

/// Copy the rows `start..end` of a whole-relation column into a segment-local
/// column (string columns are re-interned into a segment-local dictionary).
fn slice_column(column: &Column, start: usize, end: usize) -> Column {
    match column {
        Column::Int(v) => Column::Int(v.slice(start, end)),
        Column::Float(v) => Column::Float(v.slice(start, end)),
        Column::Bool(v) => Column::Bool(v.slice(start, end)),
        Column::Str(d) => {
            let mut out = DictColumn::new();
            for row in start..end {
                out.push(d.get(row));
            }
            Column::Str(out)
        }
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{} [{} rows]", self.name, self.schema, self.num_rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::TableBuilder;
    use crate::schema::Field;
    use crate::value::DataType;

    fn sample_table() -> Table {
        let schema = Schema::new(vec![
            Field::new("age", DataType::Int),
            Field::new("name", DataType::Str),
        ])
        .unwrap();
        let ages = Column::Int(vec![Some(20), Some(35), None, Some(50)].into());
        let mut d = DictColumn::new();
        for n in ["ann", "bob", "cid", "dee"] {
            d.push(Some(n));
        }
        Table::new("people", schema, vec![ages, Column::Str(d)]).unwrap()
    }

    #[test]
    fn construction_and_lookup() {
        let t = sample_table();
        assert_eq!(t.name(), "people");
        assert_eq!(t.num_rows(), 4);
        assert_eq!(t.num_columns(), 2);
        assert!(!t.is_empty());
        assert!(t.num_segments() >= 1);
        assert_eq!(t.value(0, "age").unwrap(), Value::Int(20));
        assert_eq!(t.value(2, "age").unwrap(), Value::Null);
        assert_eq!(t.value(1, "name").unwrap(), Value::Str("bob".into()));
        assert!(t.value(9, "age").is_err());
        assert!(t.column("salary").is_err());
        assert_eq!(t.row(0).unwrap().len(), 2);
        assert!(t.row(10).is_err());
        assert_eq!(t.to_string(), "people(age int, name str) [4 rows]");
    }

    #[test]
    fn construction_rejects_mismatches_naming_the_column() {
        let schema = Schema::new(vec![Field::new("age", DataType::Int)]).unwrap();
        // wrong number of columns
        assert!(Table::new("t", schema.clone(), vec![]).is_err());
        // wrong type, named
        let wrong = Column::Float(vec![Some(1.0)].into());
        match Table::new("t", schema.clone(), vec![wrong]) {
            Err(ColumnarError::ColumnTypeMismatch { column, .. }) => assert_eq!(column, "age"),
            other => panic!("unexpected: {other:?}"),
        }
        // mismatched lengths, named
        let schema2 = Schema::new(vec![
            Field::new("a", DataType::Int),
            Field::new("b", DataType::Int),
        ])
        .unwrap();
        let c1 = Column::Int(vec![Some(1), Some(2)].into());
        let c2 = Column::Int(vec![Some(1)].into());
        match Table::new("t", schema2, vec![c1, c2]) {
            Err(ColumnarError::ColumnLengthMismatch {
                column,
                expected,
                found,
            }) => {
                assert_eq!(column, "b");
                assert_eq!((expected, found), (2, 1));
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn selections_and_gather() {
        let t = sample_table();
        assert_eq!(t.full_selection().count(), 4);
        let sel = Bitmap::from_indices(4, [1, 3]);
        let sub = t.gather(&sel, ThreadPool::sequential());
        assert_eq!(sub.num_rows(), 2);
        assert_eq!(sub.name(), "people");
        assert_eq!(sub.num_segments(), t.num_segments());
        assert_eq!(sub.value(0, "age").unwrap(), Value::Int(35));
        assert_eq!(sub.value(1, "name").unwrap(), Value::Str("dee".into()));
        // A NULL stays NULL, and nothing selected is a table of zero rows
        // that keeps its dictionaries.
        let sub = t.gather(&Bitmap::from_indices(4, [2]), ThreadPool::sequential());
        assert_eq!(sub.value(0, "age").unwrap(), Value::Null);
        let none = t.gather(&Bitmap::new_empty(t.num_rows()), ThreadPool::sequential());
        assert_eq!(
            (none.num_rows(), none.num_segments()),
            (0, t.num_segments())
        );
        let names = none.column("name").unwrap();
        let counts = names.category_counts(&none.full_selection());
        assert_eq!(counts.len(), 4);
        assert!(counts.iter().all(|(_, n)| *n == 0));
    }

    #[test]
    fn gather_keeps_every_part_its_encoding_and_dictionary_at_every_pool_size() {
        let schema = Schema::new(vec![
            Field::new("level", DataType::Int),
            Field::new("size", DataType::Float),
            Field::new("name", DataType::Str),
        ])
        .unwrap();
        let mut b = TableBuilder::new("t", schema).with_segment_rows(1000);
        for i in 0..4_500usize {
            let size = (i % 7 != 0).then(|| (i * 37 % 1013) as f64);
            b.push_row(&[
                Value::Int((i % 6) as i64),
                size.map_or(Value::Null, Value::Float),
                Value::Str(format!("n{}", i % 9 + 10 * (i / 1000))),
            ])
            .unwrap();
        }
        let t = b.build().unwrap();
        // Nothing of the second segment, all of the third, some of the rest.
        let sel = Bitmap::from_fn(t.num_rows(), |i| {
            !(1000..2000).contains(&i) && ((2000..3000).contains(&i) || i % 5 < 2)
        });
        let pool = ThreadPool::new(2);
        let gathered = t.gather(&sel, &pool);
        assert_eq!(gathered.num_rows(), sel.count());
        assert_eq!(gathered.num_segments(), t.num_segments());
        assert_eq!(gathered.segments()[1].num_rows(), 0);
        assert!(Arc::ptr_eq(&gathered.segments()[2], &t.segments()[2]));
        for (at, row) in sel.iter_ones().enumerate() {
            assert_eq!(gathered.row(at).unwrap(), t.row(row).unwrap(), "row {row}");
        }
        for (part, source) in gathered.segments().iter().zip(t.segments()) {
            for (column, from) in part.columns().iter().zip(source.columns()) {
                assert_eq!(column.encoding(), from.encoding());
            }
        }
        let sequential = t.gather(&sel, ThreadPool::sequential());
        for (a, b) in gathered.segments().iter().zip(sequential.segments()) {
            assert_eq!(a.columns(), b.columns());
        }
        // The empty part still lists its dictionary's names.
        let names = gathered.column("name").unwrap();
        let counts = names.category_counts(&gathered.full_selection());
        assert!(counts.iter().any(|(name, n)| name == "n10" && *n == 0));
    }

    #[test]
    fn column_stats_smoke() {
        let t = sample_table();
        let stats = t.column_stats("age", &t.full_selection()).unwrap();
        assert_eq!(stats.non_null_count, 3);
        assert_eq!(stats.null_count, 1);
    }

    #[test]
    fn append_segment_shares_existing_segments() {
        let t = sample_table();
        let schema = t.schema().clone();
        let ages = Column::Int(vec![Some(70)].into());
        let mut d = DictColumn::new();
        d.push(Some("eve"));
        let segment = Segment::new(&schema, vec![ages, Column::Str(d)]).unwrap();
        let extended = t.append_segment(segment).unwrap();
        assert_eq!(extended.num_rows(), 5);
        assert_eq!(extended.num_segments(), t.num_segments() + 1);
        // Old segments are the very same allocations.
        for (a, b) in t.segments().iter().zip(extended.segments()) {
            assert!(Arc::ptr_eq(a, b));
        }
        assert_eq!(extended.value(4, "name").unwrap(), Value::Str("eve".into()));
        assert_eq!(extended.offsets.last(), Some(&4));
        // The original table is untouched.
        assert_eq!(t.num_rows(), 4);
        // A segment of the wrong shape is rejected.
        let bad = Segment::new(
            &Schema::new(vec![Field::new("x", DataType::Int)]).unwrap(),
            vec![Column::Int(vec![Some(1)].into())],
        )
        .unwrap();
        assert!(t.append_segment(bad).is_err());
    }

    #[test]
    fn from_segments_drops_empty_segments_and_offsets_accumulate() {
        let schema = Schema::new(vec![Field::new("x", DataType::Int)]).unwrap();
        let seg = |values: Vec<Option<i64>>| {
            Arc::new(Segment::new(&schema, vec![Column::Int(values.into())]).unwrap())
        };
        let t = Table::from_segments(
            "t",
            schema.clone(),
            vec![seg(vec![Some(1), Some(2)]), seg(vec![]), seg(vec![Some(3)])],
        )
        .unwrap();
        assert_eq!(t.num_rows(), 3);
        assert_eq!(t.num_segments(), 2);
        assert_eq!(t.offsets, [0, 2]);
        assert_eq!(t.value(2, "x").unwrap(), Value::Int(3));
    }
}
