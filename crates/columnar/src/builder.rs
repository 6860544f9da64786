//! Row-oriented, segment-emitting table construction.

use crate::column::Column;
use crate::error::{ColumnarError, Result};
use crate::schema::Schema;
use crate::segment::{default_segment_rows, Segment};
use crate::table::Table;
use crate::value::Value;
use std::sync::Arc;

/// Incrementally builds a [`Table`] row by row, sealing an immutable
/// [`Segment`] every `segment_rows` rows.
///
/// The data generators and the CSV reader both funnel through this builder so
/// type checking happens in exactly one place — and so every ingest path
/// produces segmented storage: the builder's *mutable* state never exceeds
/// one segment of rows (sealed segments are immutable and final), which is
/// what bounds the streaming CSV reader's working state by the segment size
/// instead of the file size.
#[derive(Debug, Clone)]
pub struct TableBuilder {
    name: String,
    schema: Schema,
    segment_rows: usize,
    current: Vec<Column>,
    current_rows: usize,
    segments: Vec<Arc<Segment>>,
    num_rows: usize,
}

impl TableBuilder {
    /// Start building a table with the given name and schema, sealing
    /// segments at [`default_segment_rows`].
    pub fn new(name: impl Into<String>, schema: Schema) -> Self {
        let current = schema
            .fields()
            .iter()
            .map(|f| Column::new_empty(f.dtype))
            .collect();
        TableBuilder {
            name: name.into(),
            schema,
            segment_rows: default_segment_rows(),
            current,
            current_rows: 0,
            segments: Vec::new(),
            num_rows: 0,
        }
    }

    /// Use a specific segment size (rows per sealed segment) instead of
    /// [`default_segment_rows`]. Values below 1 are clamped to 1.
    pub fn with_segment_rows(mut self, segment_rows: usize) -> Self {
        self.segment_rows = segment_rows.max(1);
        self
    }

    /// Rows per sealed segment.
    pub fn segment_rows(&self) -> usize {
        self.segment_rows
    }

    /// The schema being built against.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows appended so far.
    pub fn num_rows(&self) -> usize {
        self.num_rows
    }

    /// Append one row. The slice must have exactly one value per column, in
    /// schema order. Reaching the segment size seals the open segment.
    pub fn push_row(&mut self, values: &[Value]) -> Result<()> {
        if values.len() != self.current.len() {
            return Err(ColumnarError::LengthMismatch {
                expected: self.current.len(),
                found: values.len(),
            });
        }
        // Validate all values first so a failed push cannot leave ragged columns.
        for (column, value) in self.current.iter().zip(values.iter()) {
            if !value.is_null() {
                let vt = value.data_type().expect("non-null value has a type");
                let ct = column.data_type();
                let compatible = vt == ct
                    || (ct == crate::value::DataType::Float && vt == crate::value::DataType::Int);
                if !compatible {
                    return Err(ColumnarError::TypeMismatch {
                        expected: ct.name().to_string(),
                        found: vt.name().to_string(),
                    });
                }
            }
        }
        for (column, value) in self.current.iter_mut().zip(values.iter()) {
            column.push(value)?;
        }
        self.current_rows += 1;
        self.num_rows += 1;
        if self.current_rows >= self.segment_rows {
            self.seal_segment()?;
        }
        Ok(())
    }

    /// Seal the open segment (a no-op when it holds no rows): its columns
    /// become an immutable [`Segment`], and the builder starts a fresh one.
    /// Called automatically every [`TableBuilder::segment_rows`] rows; calling
    /// it directly places a segment boundary at the current row.
    pub fn seal_segment(&mut self) -> Result<()> {
        if self.current_rows == 0 {
            return Ok(());
        }
        let columns = std::mem::replace(
            &mut self.current,
            self.schema
                .fields()
                .iter()
                .map(|f| Column::new_empty(f.dtype))
                .collect(),
        );
        self.current_rows = 0;
        self.segments
            .push(Arc::new(Segment::new(&self.schema, columns)?));
        Ok(())
    }

    /// Finish building and produce the immutable table.
    pub fn build(mut self) -> Result<Table> {
        self.seal_segment()?;
        Table::from_segments(self.name, self.schema, self.segments)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Field;
    use crate::value::DataType;

    fn schema() -> Schema {
        Schema::new(vec![
            Field::new("age", DataType::Int),
            Field::new("score", DataType::Float),
            Field::nullable("group", DataType::Str),
        ])
        .unwrap()
    }

    #[test]
    fn build_simple_table() {
        let mut b = TableBuilder::new("t", schema());
        b.push_row(&[Value::Int(20), Value::Float(0.5), Value::Str("a".into())])
            .unwrap();
        b.push_row(&[Value::Int(30), Value::Int(1), Value::Null])
            .unwrap();
        assert_eq!(b.num_rows(), 2);
        let t = b.build().unwrap();
        assert_eq!(t.num_rows(), 2);
        assert_eq!(t.value(1, "score").unwrap(), Value::Float(1.0));
        assert_eq!(t.value(1, "group").unwrap(), Value::Null);
    }

    #[test]
    fn push_row_wrong_arity() {
        let mut b = TableBuilder::new("t", schema());
        let err = b.push_row(&[Value::Int(1)]).unwrap_err();
        assert!(matches!(err, ColumnarError::LengthMismatch { .. }));
        assert_eq!(b.num_rows(), 0);
    }

    #[test]
    fn push_row_type_mismatch_keeps_columns_aligned() {
        let mut b = TableBuilder::new("t", schema());
        let err = b
            .push_row(&[Value::Str("oops".into()), Value::Float(0.0), Value::Null])
            .unwrap_err();
        assert!(matches!(err, ColumnarError::TypeMismatch { .. }));
        // The failed row must not have been partially applied.
        assert_eq!(b.num_rows(), 0);
        let t = b.build().unwrap();
        assert_eq!(t.num_rows(), 0);
    }

    #[test]
    fn empty_build_is_valid() {
        let t = TableBuilder::new("empty", schema()).build().unwrap();
        assert!(t.is_empty());
        assert_eq!(t.num_columns(), 3);
        assert_eq!(t.num_segments(), 0);
    }

    #[test]
    fn segments_seal_at_the_configured_size() {
        let mut b = TableBuilder::new("t", schema()).with_segment_rows(3);
        assert_eq!(b.segment_rows(), 3);
        for i in 0..8 {
            b.push_row(&[Value::Int(i), Value::Float(0.0), Value::Null])
                .unwrap();
        }
        assert_eq!(b.segments.len(), 2, "two full segments of 3");
        let t = b.build().unwrap();
        assert_eq!(t.num_segments(), 3, "plus the 2-row tail");
        assert_eq!(t.segments()[0].num_rows(), 3);
        assert_eq!(t.segments()[2].num_rows(), 2);
        assert_eq!(t.offsets[2], 6);
        assert_eq!(t.value(7, "age").unwrap(), Value::Int(7));
    }

    #[test]
    fn manual_seal_places_a_boundary() {
        let mut b = TableBuilder::new("t", schema()).with_segment_rows(100);
        b.push_row(&[Value::Int(1), Value::Float(0.0), Value::Null])
            .unwrap();
        b.seal_segment().unwrap();
        b.seal_segment().unwrap(); // idempotent on an empty segment
        b.push_row(&[Value::Int(2), Value::Float(0.0), Value::Null])
            .unwrap();
        let t = b.build().unwrap();
        assert_eq!(t.num_segments(), 2);
        assert_eq!(t.num_rows(), 2);
    }

    #[test]
    fn build_segments_returns_sealed_segments() {
        let mut b = TableBuilder::new("t", schema()).with_segment_rows(2);
        for i in 0..5 {
            b.push_row(&[Value::Int(i), Value::Float(0.0), Value::Null])
                .unwrap();
        }
        let built = b.build().unwrap();
        let segments = built.segments().to_vec();
        assert_eq!(segments.len(), 3);
        assert_eq!(segments.iter().map(|s| s.num_rows()).sum::<usize>(), 5);
        let t = Table::from_segments("t", built.schema().clone(), segments).unwrap();
        assert_eq!(t.num_rows(), 5);
    }
}
