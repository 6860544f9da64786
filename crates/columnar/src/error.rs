//! Error type shared by the columnar engine.

use std::fmt;

/// Convenience result alias used across the crate.
pub type Result<T> = std::result::Result<T, ColumnarError>;

/// Errors raised by the columnar storage engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ColumnarError {
    /// A column with the given name does not exist in the schema.
    UnknownColumn(String),
    /// Two columns (or a column and a schema) disagree on length.
    LengthMismatch {
        /// The expected number of rows.
        expected: usize,
        /// The number of rows actually found.
        found: usize,
    },
    /// A value of the wrong data type was supplied.
    TypeMismatch {
        /// The type that was expected.
        expected: String,
        /// The type that was found.
        found: String,
    },
    /// A named column disagrees with its table (or segment) on length.
    ColumnLengthMismatch {
        /// The offending column.
        column: String,
        /// The expected number of rows.
        expected: usize,
        /// The number of rows actually found.
        found: usize,
    },
    /// A named column disagrees with its schema field on data type.
    ColumnTypeMismatch {
        /// The offending column.
        column: String,
        /// The type the schema declares.
        expected: String,
        /// The type the column actually has.
        found: String,
    },
    /// A row index was out of bounds.
    RowOutOfBounds {
        /// The offending row index.
        row: usize,
        /// The number of rows in the column or table.
        len: usize,
    },
    /// CSV parsing failed.
    Csv {
        /// 1-based line number at which the error occurred.
        line: usize,
        /// Human-readable description of the problem.
        message: String,
    },
    /// An I/O error occurred (CSV reading / writing).
    Io(String),
    /// A schema was declared with duplicate field names.
    DuplicateField(String),
    /// A schema has no fields or a table has no columns where one is required.
    EmptySchema,
}

impl fmt::Display for ColumnarError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ColumnarError::UnknownColumn(name) => write!(f, "unknown column: {name}"),
            ColumnarError::LengthMismatch { expected, found } => {
                write!(
                    f,
                    "length mismatch: expected {expected} rows, found {found}"
                )
            }
            ColumnarError::TypeMismatch { expected, found } => {
                write!(f, "type mismatch: expected {expected}, found {found}")
            }
            ColumnarError::ColumnLengthMismatch {
                column,
                expected,
                found,
            } => {
                write!(
                    f,
                    "column '{column}': length mismatch, expected {expected} rows, found {found}"
                )
            }
            ColumnarError::ColumnTypeMismatch {
                column,
                expected,
                found,
            } => {
                write!(
                    f,
                    "column '{column}': type mismatch, schema declares {expected}, column is {found}"
                )
            }
            ColumnarError::RowOutOfBounds { row, len } => {
                write!(f, "row index {row} out of bounds for length {len}")
            }
            ColumnarError::Csv { line, message } => {
                write!(f, "csv error at line {line}: {message}")
            }
            ColumnarError::Io(msg) => write!(f, "io error: {msg}"),
            ColumnarError::DuplicateField(name) => write!(f, "duplicate field name: {name}"),
            ColumnarError::EmptySchema => write!(f, "schema must contain at least one field"),
        }
    }
}

impl std::error::Error for ColumnarError {}

impl From<std::io::Error> for ColumnarError {
    fn from(err: std::io::Error) -> Self {
        ColumnarError::Io(err.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_mention_key_details() {
        let err = ColumnarError::UnknownColumn("age".into());
        assert!(err.to_string().contains("age"));
        let err = ColumnarError::LengthMismatch {
            expected: 3,
            found: 5,
        };
        assert!(err.to_string().contains('3'));
        assert!(err.to_string().contains('5'));
        let err = ColumnarError::Csv {
            line: 42,
            message: "bad field".into(),
        };
        assert!(err.to_string().contains("42"));
    }

    #[test]
    fn io_error_converts() {
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "missing");
        let err: ColumnarError = io.into();
        assert!(matches!(err, ColumnarError::Io(_)));
    }
}
