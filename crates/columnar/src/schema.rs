//! Relation schemas.

use crate::error::{ColumnarError, Result};
use crate::value::DataType;
use std::fmt;

/// A single column description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Field {
    /// Column name (case-sensitive).
    pub name: String,
    /// Column data type.
    pub dtype: DataType,
    /// Whether NULLs are expected in this column. This is advisory: the storage
    /// layer always supports NULLs, but generators and the CSV reader use it.
    pub nullable: bool,
}

impl Field {
    /// Create a non-nullable field.
    pub fn new(name: impl Into<String>, dtype: DataType) -> Self {
        Field {
            name: name.into(),
            dtype,
            nullable: false,
        }
    }

    /// Create a nullable field.
    pub fn nullable(name: impl Into<String>, dtype: DataType) -> Self {
        Field {
            name: name.into(),
            dtype,
            nullable: true,
        }
    }
}

impl fmt::Display for Field {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.name, self.dtype)?;
        if self.nullable {
            f.write_str(" null")?;
        }
        Ok(())
    }
}

/// An ordered list of fields describing a relation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    fields: Vec<Field>,
}

impl Schema {
    /// Build a schema from fields, rejecting duplicates and empty schemas.
    pub fn new(fields: Vec<Field>) -> Result<Self> {
        if fields.is_empty() {
            return Err(ColumnarError::EmptySchema);
        }
        for (i, f) in fields.iter().enumerate() {
            if fields[..i].iter().any(|g| g.name == f.name) {
                return Err(ColumnarError::DuplicateField(f.name.clone()));
            }
        }
        Ok(Schema { fields })
    }

    /// The fields, in column order.
    pub fn fields(&self) -> &[Field] {
        &self.fields
    }

    /// Number of columns.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// True if the schema has no columns (never true for a constructed schema).
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// The index of the column with the given name.
    pub fn index_of(&self, name: &str) -> Result<usize> {
        self.fields
            .iter()
            .position(|f| f.name == name)
            .ok_or_else(|| ColumnarError::UnknownColumn(name.to_string()))
    }

    /// The field with the given name.
    pub fn field(&self, name: &str) -> Result<&Field> {
        let idx = self.index_of(name)?;
        Ok(&self.fields[idx])
    }

    /// The names of all columns, in order.
    pub fn names(&self) -> Vec<&str> {
        self.fields.iter().map(|f| f.name.as_str()).collect()
    }

    /// True if a column with this name exists.
    pub fn contains(&self, name: &str) -> bool {
        self.fields.iter().any(|f| f.name == name)
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("(")?;
        for (i, field) in self.fields.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{field}")?;
        }
        f.write_str(")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schema_lookup() {
        let schema = Schema::new(vec![
            Field::new("age", DataType::Int),
            Field::nullable("education", DataType::Str),
        ])
        .unwrap();
        assert_eq!(schema.len(), 2);
        assert_eq!(schema.index_of("education").unwrap(), 1);
        assert!(schema.contains("age"));
        assert!(!schema.contains("salary"));
        assert!(matches!(
            schema.index_of("salary"),
            Err(ColumnarError::UnknownColumn(_))
        ));
        assert_eq!(schema.field("age").unwrap().dtype, DataType::Int);
        assert_eq!(schema.names(), vec!["age", "education"]);
    }

    #[test]
    fn schema_rejects_duplicates_and_empty() {
        let dup = Schema::new(vec![
            Field::new("a", DataType::Int),
            Field::new("a", DataType::Float),
        ]);
        assert!(matches!(dup, Err(ColumnarError::DuplicateField(_))));
        assert!(matches!(
            Schema::new(vec![]),
            Err(ColumnarError::EmptySchema)
        ));
    }

    #[test]
    fn display_is_readable() {
        let schema = Schema::new(vec![
            Field::new("age", DataType::Int),
            Field::nullable("name", DataType::Str),
        ])
        .unwrap();
        assert_eq!(schema.to_string(), "(age int, name str null)");
    }
}
