//! Immutable row-range segments of a [`crate::Table`].
//!
//! A segment is a horizontal slice of a relation: one column per schema field,
//! all of the same length. Segments are **immutable** and shared by `Arc`, so
//! appending data to a table never touches (or copies) the rows already
//! ingested: a new table is the old segment list plus one new segment, and
//! engine-side statistics extend by merging the new segment's summaries. A
//! segment holds no statistics of its own — [`crate::ColumnSummary`], scanned
//! per segment and merged exactly, is the only way statistics combine — but
//! sealing is where storage is decided: [`Segment::new`] is the one point at
//! which every column becomes immutable (the builder's seal, `Table::new`'s
//! chunking, CSV ingest and row appends all end there), so it is where a
//! numeric column with few distinct values trades its 8-byte lanes for a
//! sorted dictionary and `u8`/`u16` codes (one hash pass per numeric value),
//! and where a string column's `u32` code lanes narrow to what its dictionary
//! needs and its lookup index goes (see [`crate::column`]). The choice is per
//! column per segment, from that segment's data alone: one table column may
//! mix coded and plain parts, or code widths, and no answer depends on which
//! is which.
//!
//! The segment size is a storage-layout knob, not a semantics knob: every scan
//! kernel walks the segments in row order and assembles results in global row
//! coordinates, so query answers are bit-for-bit identical at every segment
//! size for every kernel and every cut strategy — the pipeline end to end
//! (the property `tests/segments.rs` pins). There is no exception: every
//! median is exact, so no split point depends on the chunking.

use crate::column::Column;
use crate::error::{ColumnarError, Result};
use crate::schema::Schema;
use std::fmt;

/// The default number of rows per segment: the `ATLAS_SEGMENT_ROWS`
/// environment variable if set to a positive integer, 65 536 otherwise
/// (a word-aligned size large enough to keep per-segment overheads
/// negligible; CI runs the suite with `ATLAS_SEGMENT_ROWS=1024` to exercise
/// the many-segment paths).
pub fn default_segment_rows() -> usize {
    match std::env::var("ATLAS_SEGMENT_ROWS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
    {
        Some(n) if n >= 1 => n,
        _ => 65_536,
    }
}

/// One immutable row-range of a table: a column per schema field.
#[derive(Debug, Clone)]
pub struct Segment {
    columns: Vec<Column>,
    num_rows: usize,
}

impl Segment {
    /// Seal a segment from columns matching `schema`. All columns must have
    /// the same length and the schema's types; violations are reported with
    /// the offending column's name. Each column takes its sealed
    /// representation here (see the module docs).
    pub fn new(schema: &Schema, columns: Vec<Column>) -> Result<Self> {
        let num_rows = validate_columns(schema, &columns)?;
        let columns = columns.into_iter().map(Column::seal).collect();
        Ok(Segment { columns, num_rows })
    }

    /// A segment of columns that are already sealed and each `num_rows`
    /// long, kept as they are: a gathered part ([`crate::Table::gather`])
    /// keeps its source part's encodings, so it is never sealed again.
    pub(crate) fn from_sealed(columns: Vec<Column>, num_rows: usize) -> Self {
        debug_assert!(columns.iter().all(|c| c.len() == num_rows));
        Segment { columns, num_rows }
    }

    /// Number of rows in this segment.
    pub fn num_rows(&self) -> usize {
        self.num_rows
    }

    /// True if the segment holds no rows.
    pub fn is_empty(&self) -> bool {
        self.num_rows == 0
    }

    /// Number of columns.
    pub fn num_columns(&self) -> usize {
        self.columns.len()
    }

    /// The segment's columns, in schema order.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// The column at schema position `idx`.
    ///
    /// # Panics
    /// Panics if `idx` is out of range.
    pub fn column(&self, idx: usize) -> &Column {
        &self.columns[idx]
    }
}

/// The one shared column-set validation: schema arity, per-column length
/// agreement and schema types, reporting violations with the offending
/// column's name. Returns the common row count. Used by [`Segment::new`],
/// `Table::new` (before chunking) and `Table::from_segments` (on sealed
/// segments, whose lengths are already consistent).
pub(crate) fn validate_columns(schema: &Schema, columns: &[Column]) -> Result<usize> {
    if schema.len() != columns.len() {
        return Err(ColumnarError::LengthMismatch {
            expected: schema.len(),
            found: columns.len(),
        });
    }
    let num_rows = columns.first().map(|c| c.len()).unwrap_or(0);
    for (field, column) in schema.fields().iter().zip(columns.iter()) {
        if column.len() != num_rows {
            return Err(ColumnarError::ColumnLengthMismatch {
                column: field.name.clone(),
                expected: num_rows,
                found: column.len(),
            });
        }
        if column.data_type() != field.dtype {
            return Err(ColumnarError::ColumnTypeMismatch {
                column: field.name.clone(),
                expected: field.dtype.name().to_string(),
                found: column.data_type().name().to_string(),
            });
        }
    }
    Ok(num_rows)
}

impl fmt::Display for Segment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "segment [{} rows x {} columns]",
            self.num_rows,
            self.columns.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::DictColumn;
    use crate::schema::Field;
    use crate::value::DataType;

    fn schema() -> Schema {
        Schema::new(vec![
            Field::new("age", DataType::Int),
            Field::new("name", DataType::Str),
        ])
        .unwrap()
    }

    #[test]
    fn a_sealed_segment_reports_its_shape() {
        let ages = Column::Int(vec![Some(20), None, Some(40)].into());
        let mut d = DictColumn::new();
        for n in ["ann", "bob", "ann"] {
            d.push(Some(n));
        }
        let seg = Segment::new(&schema(), vec![ages, Column::Str(d)]).unwrap();
        assert_eq!(seg.num_rows(), 3);
        assert_eq!(seg.num_columns(), 2);
        assert!(!seg.is_empty());
        assert_eq!(seg.column(0).null_count(), 1);
        assert_eq!(seg.to_string(), "segment [3 rows x 2 columns]");
    }

    #[test]
    fn mismatches_name_the_offending_column() {
        // Length mismatch between the two columns.
        let ages = Column::Int(vec![Some(20), Some(30)].into());
        let mut d = DictColumn::new();
        d.push(Some("ann"));
        let err = Segment::new(&schema(), vec![ages, Column::Str(d)]).unwrap_err();
        match err {
            ColumnarError::ColumnLengthMismatch {
                column,
                expected,
                found,
            } => {
                assert_eq!(column, "name");
                assert_eq!((expected, found), (2, 1));
            }
            other => panic!("unexpected error: {other}"),
        }
        // Type mismatch on a named column.
        let wrong = Column::Float(vec![Some(1.0)].into());
        let mut d = DictColumn::new();
        d.push(Some("ann"));
        let err = Segment::new(&schema(), vec![wrong, Column::Str(d)]).unwrap_err();
        match err {
            ColumnarError::ColumnTypeMismatch { column, .. } => assert_eq!(column, "age"),
            other => panic!("unexpected error: {other}"),
        }
        // Wrong column count keeps the schema-arity error.
        assert!(matches!(
            Segment::new(&schema(), vec![]),
            Err(ColumnarError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn default_segment_rows_is_positive() {
        assert!(default_segment_rows() >= 1);
    }
}
