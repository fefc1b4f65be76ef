//! The catalog: a named collection of tables forming one database.
//!
//! The engine wraps a [`Database`] in shared-state synchronization at a
//! higher layer; the catalog itself is a plain single-threaded structure so
//! the isolation story lives entirely in the lock manager, as in the paper's
//! prototype (which delegated locking to the DBMS).

use crate::mvcc::CommitTs;
use crate::schema::Schema;
use crate::table::{Row, RowId, Table};
use crate::value::Value;
use std::collections::BTreeMap;
use std::fmt;

/// Errors raised by catalog and data operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    NoSuchTable(String),
    TableExists(String),
    NoSuchRow { table: String, row: RowId },
    Schema(crate::schema::SchemaError),
    NoSuchColumn { table: String, column: String },
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::NoSuchTable(t) => write!(f, "no such table `{t}`"),
            StorageError::TableExists(t) => write!(f, "table `{t}` already exists"),
            StorageError::NoSuchRow { table, row } => write!(f, "no row {row} in `{table}`"),
            StorageError::Schema(e) => write!(f, "schema error: {e}"),
            StorageError::NoSuchColumn { table, column } => {
                write!(f, "no column `{column}` in `{table}`")
            }
        }
    }
}

impl std::error::Error for StorageError {}

impl From<crate::schema::SchemaError> for StorageError {
    fn from(e: crate::schema::SchemaError) -> Self {
        StorageError::Schema(e)
    }
}

/// Read access to tables by (case-insensitive) name.
///
/// Implemented by the single-threaded [`Database`] and by pinned views over
/// the concurrent catalog ([`crate::concurrent::TableView`]), so lowering,
/// grounding and SPJ evaluation run identically against either: a plain
/// owned database (recovery, oracles, tests) or a set of latched table
/// handles inside the engine's hot path.
pub trait TableProvider {
    /// Look up a table by name.
    fn table(&self, name: &str) -> Result<&Table, StorageError>;

    /// The commit timestamp this provider's rows are read *as of*, or
    /// `None` for working state. Evaluation resolves every row it touches
    /// accordingly ([`Table::row_at`] for probed candidates,
    /// [`Table::scan`] or [`Table::snapshot_scan`] for scanned stages).
    fn as_of(&self) -> Option<CommitTs> {
        None
    }
}

/// A database: table name → table. Names are case-insensitive and stored
/// lower-cased; the original casing is kept inside [`Table::name`].
#[derive(Debug, Clone, Default)]
pub struct Database {
    tables: BTreeMap<String, Table>,
}

impl TableProvider for Database {
    fn table(&self, name: &str) -> Result<&Table, StorageError> {
        Database::table(self, name)
    }
}

impl Database {
    pub fn new() -> Database {
        Database::default()
    }

    pub(crate) fn key(name: &str) -> String {
        name.to_ascii_lowercase()
    }

    /// Assemble a database from already-built tables (keys are re-derived
    /// from each table's own name).
    pub fn from_tables(tables: impl IntoIterator<Item = Table>) -> Database {
        Database {
            tables: tables
                .into_iter()
                .map(|t| (Self::key(t.name()), t))
                .collect(),
        }
    }

    /// Decompose into the owned tables (used to load a recovered database
    /// into a concurrent catalog).
    pub fn into_tables(self) -> impl Iterator<Item = Table> {
        self.tables.into_values()
    }

    /// Create a table; errors if one with the same (case-insensitive) name
    /// exists.
    pub fn create_table(&mut self, name: &str, schema: Schema) -> Result<(), StorageError> {
        let key = Self::key(name);
        if self.tables.contains_key(&key) {
            return Err(StorageError::TableExists(name.to_string()));
        }
        self.tables.insert(key, Table::new(name, schema));
        Ok(())
    }

    /// Adopt an already-built table (the key is re-derived from its own
    /// name; replaces any existing entry). Used when merging per-shard
    /// recovery partitions, whose table sets are disjoint.
    pub fn adopt_table(&mut self, t: Table) {
        self.tables.insert(Self::key(t.name()), t);
    }

    /// Create a table, replacing any existing one (used by recovery).
    pub fn create_or_replace_table(&mut self, name: &str, schema: Schema) {
        self.tables
            .insert(Self::key(name), Table::new(name, schema));
    }

    pub fn drop_table(&mut self, name: &str) -> Result<(), StorageError> {
        self.tables
            .remove(&Self::key(name))
            .map(|_| ())
            .ok_or_else(|| StorageError::NoSuchTable(name.to_string()))
    }

    pub fn table(&self, name: &str) -> Result<&Table, StorageError> {
        self.tables
            .get(&Self::key(name))
            .ok_or_else(|| StorageError::NoSuchTable(name.to_string()))
    }

    pub fn table_mut(&mut self, name: &str) -> Result<&mut Table, StorageError> {
        self.tables
            .get_mut(&Self::key(name))
            .ok_or_else(|| StorageError::NoSuchTable(name.to_string()))
    }

    pub fn has_table(&self, name: &str) -> bool {
        self.tables.contains_key(&Self::key(name))
    }

    /// All table names, in deterministic (sorted) order.
    pub fn table_names(&self) -> Vec<String> {
        self.tables.values().map(|t| t.name().to_string()).collect()
    }

    /// Insert convenience used pervasively by workloads and tests.
    pub fn insert(&mut self, table: &str, row: Row) -> Result<RowId, StorageError> {
        Ok(self.table_mut(table)?.insert(row)?)
    }

    /// Fetch a row by id.
    pub fn get(&self, table: &str, id: RowId) -> Result<&Row, StorageError> {
        self.table(table)?
            .get(id)
            .ok_or_else(|| StorageError::NoSuchRow {
                table: table.to_string(),
                row: id,
            })
    }

    /// Delete a row by id, returning the before-image.
    pub fn delete(&mut self, table: &str, id: RowId) -> Result<Row, StorageError> {
        let t = self.table_mut(table)?;
        t.delete(id).ok_or_else(|| StorageError::NoSuchRow {
            table: table.to_string(),
            row: id,
        })
    }

    /// Update a row by id, returning the before-image.
    pub fn update(&mut self, table: &str, id: RowId, new: Row) -> Result<Row, StorageError> {
        let t = self.table_mut(table)?;
        t.update(id, new)?.ok_or_else(|| StorageError::NoSuchRow {
            table: table.to_string(),
            row: id,
        })
    }

    /// Total live rows across all tables (diagnostics).
    pub fn total_rows(&self) -> usize {
        self.tables.values().map(|t| t.len()).sum()
    }

    /// Materialize the full contents of a table as sorted rows — the
    /// canonical form used for final-state equivalence checks
    /// (oracle-serializability compares *final databases*, Def. C.7).
    pub fn canonical_rows(&self, table: &str) -> Result<Vec<Row>, StorageError> {
        let mut rows: Vec<Row> = self.table(table)?.scan().map(|(_, r)| r.clone()).collect();
        rows.sort();
        Ok(rows)
    }

    /// Canonical form of the entire database: table name → sorted rows.
    pub fn canonical(&self) -> BTreeMap<String, Vec<Row>> {
        self.tables
            .iter()
            .map(|(k, t)| {
                (k.clone(), {
                    let mut rows: Vec<Row> = t.scan().map(|(_, r)| r.clone()).collect();
                    rows.sort();
                    rows
                })
            })
            .collect()
    }

    /// Column index lookup with a storage-flavoured error.
    pub fn column_index(&self, table: &str, column: &str) -> Result<usize, StorageError> {
        self.table(table)?
            .schema()
            .index_of(column)
            .ok_or_else(|| StorageError::NoSuchColumn {
                table: table.to_string(),
                column: column.to_string(),
            })
    }

    /// Convenience: scan a table filtering on equality pairs
    /// (column name, value).
    pub fn select_eq(
        &self,
        table: &str,
        eqs: &[(&str, Value)],
    ) -> Result<Vec<(RowId, Row)>, StorageError> {
        let t = self.table(table)?;
        let pairs: Vec<(usize, &Value)> =
            eqs.iter()
                .map(|(c, v)| {
                    t.schema().index_of(c).map(|i| (i, v)).ok_or_else(|| {
                        StorageError::NoSuchColumn {
                            table: table.to_string(),
                            column: c.to_string(),
                        }
                    })
                })
                .collect::<Result<_, _>>()?;
        Ok(t.lookup(&pairs)
            .into_iter()
            .map(|(id, r)| (id, r.clone()))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::ValueType;

    fn db() -> Database {
        let mut db = Database::new();
        db.create_table(
            "Flights",
            Schema::of(&[("fno", ValueType::Int), ("dest", ValueType::Str)]),
        )
        .unwrap();
        db.insert("Flights", vec![Value::Int(122), Value::str("LA")])
            .unwrap();
        db.insert("Flights", vec![Value::Int(235), Value::str("Paris")])
            .unwrap();
        db
    }

    #[test]
    fn create_and_lookup_case_insensitive() {
        let db = db();
        assert!(db.has_table("flights"));
        assert!(db.has_table("FLIGHTS"));
        assert_eq!(db.table("fLiGhTs").unwrap().len(), 2);
        assert!(matches!(
            db.table("nope"),
            Err(StorageError::NoSuchTable(_))
        ));
    }

    #[test]
    fn duplicate_table_rejected() {
        let mut db = db();
        let err = db
            .create_table("FLIGHTS", Schema::of(&[("x", ValueType::Int)]))
            .unwrap_err();
        assert!(matches!(err, StorageError::TableExists(_)));
    }

    #[test]
    fn drop_table() {
        let mut db = db();
        db.drop_table("Flights").unwrap();
        assert!(!db.has_table("Flights"));
        assert!(db.drop_table("Flights").is_err());
    }

    #[test]
    fn crud_via_catalog() {
        let mut db = db();
        let id = db
            .insert("Flights", vec![Value::Int(300), Value::str("SF")])
            .unwrap();
        assert_eq!(db.get("Flights", id).unwrap()[1], Value::str("SF"));
        let before = db
            .update("Flights", id, vec![Value::Int(300), Value::str("NYC")])
            .unwrap();
        assert_eq!(before[1], Value::str("SF"));
        let gone = db.delete("Flights", id).unwrap();
        assert_eq!(gone[1], Value::str("NYC"));
        assert!(matches!(
            db.get("Flights", id),
            Err(StorageError::NoSuchRow { .. })
        ));
    }

    #[test]
    fn canonical_rows_sorted_and_stable() {
        let mut db = db();
        db.insert("Flights", vec![Value::Int(1), Value::str("AA")])
            .unwrap();
        let rows = db.canonical_rows("Flights").unwrap();
        assert_eq!(rows[0][0], Value::Int(1));
        let all = db.canonical();
        assert_eq!(all.len(), 1);
        assert_eq!(all["flights"].len(), 3);
    }

    #[test]
    fn select_eq_with_and_without_index() {
        let mut db = db();
        let hits = db
            .select_eq("Flights", &[("dest", Value::str("LA"))])
            .unwrap();
        assert_eq!(hits.len(), 1);
        db.table_mut("Flights")
            .unwrap()
            .create_named_index("flights_dest", &["dest"], crate::IndexKind::Hash)
            .unwrap();
        let hits = db
            .select_eq("Flights", &[("dest", Value::str("LA"))])
            .unwrap();
        assert_eq!(hits.len(), 1);
        assert!(db.select_eq("Flights", &[("bogus", Value::Null)]).is_err());
    }

    #[test]
    fn totals_and_names() {
        let db = db();
        assert_eq!(db.total_rows(), 2);
        assert_eq!(db.table_names(), vec!["Flights".to_string()]);
        assert_eq!(db.column_index("Flights", "dest").unwrap(), 1);
        assert!(db.column_index("Flights", "zzz").is_err());
    }
}
