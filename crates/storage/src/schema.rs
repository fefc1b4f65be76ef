//! Table schemas and the error type shared across the storage crate.

use crate::value::{Value, ValueType};
use std::fmt;

/// A column declaration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Column {
    pub name: String,
    pub ty: ValueType,
}

impl Column {
    pub fn new(name: impl Into<String>, ty: ValueType) -> Column {
        Column {
            name: name.into(),
            ty,
        }
    }
}

/// An ordered list of columns. Column names are case-insensitive, matching
/// the paper's SQL examples which mix cases freely.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    columns: Vec<Column>,
}

impl Schema {
    /// Build a schema; returns an error on duplicate column names.
    pub fn new(columns: Vec<Column>) -> Result<Schema, SchemaError> {
        for (i, c) in columns.iter().enumerate() {
            if columns[..i]
                .iter()
                .any(|o| o.name.eq_ignore_ascii_case(&c.name))
            {
                return Err(SchemaError::DuplicateColumn(c.name.clone()));
            }
        }
        Ok(Schema { columns })
    }

    /// Convenience constructor from `(name, type)` pairs; panics on
    /// duplicates (intended for statically-known schemas in tests/workloads).
    pub fn of(cols: &[(&str, ValueType)]) -> Schema {
        Schema::new(cols.iter().map(|(n, t)| Column::new(*n, *t)).collect())
            .expect("static schema must not contain duplicate columns")
    }

    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// Index of a column by case-insensitive name.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.columns
            .iter()
            .position(|c| c.name.eq_ignore_ascii_case(name))
    }

    pub fn column(&self, idx: usize) -> Option<&Column> {
        self.columns.get(idx)
    }

    /// Check that a row matches this schema (arity and column types).
    pub fn check_row(&self, row: &[Value]) -> Result<(), SchemaError> {
        if row.len() != self.columns.len() {
            return Err(SchemaError::ArityMismatch {
                expected: self.columns.len(),
                got: row.len(),
            });
        }
        for (v, c) in row.iter().zip(&self.columns) {
            if !c.ty.accepts(v.ty()) {
                return Err(SchemaError::TypeMismatch {
                    column: c.name.clone(),
                    expected: c.ty,
                    got: v.ty(),
                });
            }
        }
        Ok(())
    }
}

/// Errors raised by schema construction and row validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchemaError {
    DuplicateColumn(String),
    ArityMismatch {
        expected: usize,
        got: usize,
    },
    TypeMismatch {
        column: String,
        expected: ValueType,
        got: ValueType,
    },
}

impl fmt::Display for SchemaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchemaError::DuplicateColumn(c) => write!(f, "duplicate column `{c}`"),
            SchemaError::ArityMismatch { expected, got } => {
                write!(f, "row arity {got} does not match schema arity {expected}")
            }
            SchemaError::TypeMismatch {
                column,
                expected,
                got,
            } => {
                write!(f, "column `{column}` expects {expected}, got {got}")
            }
        }
    }
}

impl std::error::Error for SchemaError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn flights() -> Schema {
        Schema::of(&[
            ("fno", ValueType::Int),
            ("fdate", ValueType::Date),
            ("dest", ValueType::Str),
        ])
    }

    #[test]
    fn index_is_case_insensitive() {
        let s = flights();
        assert_eq!(s.index_of("FNO"), Some(0));
        assert_eq!(s.index_of("fdate"), Some(1));
        assert_eq!(s.index_of("missing"), None);
    }

    #[test]
    fn duplicate_columns_rejected() {
        let err = Schema::new(vec![
            Column::new("a", ValueType::Int),
            Column::new("A", ValueType::Str),
        ])
        .unwrap_err();
        assert_eq!(err, SchemaError::DuplicateColumn("A".into()));
    }

    #[test]
    fn row_checking() {
        let s = flights();
        assert!(s
            .check_row(&[Value::Int(122), Value::Date(1), Value::str("LA")])
            .is_ok());
        // NULL is allowed in any column.
        assert!(s
            .check_row(&[Value::Null, Value::Null, Value::Null])
            .is_ok());
        assert!(matches!(
            s.check_row(&[Value::Int(122), Value::Date(1)]),
            Err(SchemaError::ArityMismatch {
                expected: 3,
                got: 2
            })
        ));
        assert!(matches!(
            s.check_row(&[Value::str("x"), Value::Date(1), Value::str("LA")]),
            Err(SchemaError::TypeMismatch { .. })
        ));
    }

    #[test]
    fn arity_and_accessors() {
        let s = flights();
        assert_eq!(s.arity(), 3);
        assert_eq!(s.column(2).unwrap().name, "dest");
        assert!(s.column(3).is_none());
        assert_eq!(s.columns().len(), 3);
    }
}
