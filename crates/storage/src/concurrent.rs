//! The concurrent catalog: per-table handles instead of one global latch.
//!
//! [`ConcurrentCatalog`] maps table names to independently lockable
//! [`TableHandle`]s (`Arc<RwLock<Table>>`), so transactions working on
//! disjoint tables — and readers sharing a table — proceed in parallel.
//! The latches here are *physical* protection only (one row operation, or
//! one batch of read guards, at a time); *logical* isolation between
//! transactions is carried entirely by the Strict-2PL lock manager layered
//! above. This mirrors the paper's architecture, where the middleware
//! delegated both to the DBMS; splitting them lets the storage substrate
//! exploit the concurrency that 2PL already guarantees is safe.
//!
//! Deadlock discipline: a thread never blocks on anything else (2PL locks,
//! channels, other latches acquired singly) while holding a latch, and
//! multi-table read views acquire their guards in sorted name order
//! ([`CatalogSnapshot::read_view`]), so latch waits cannot form cycles.

use crate::catalog::{Database, StorageError, TableProvider};
use crate::mvcc::CommitTs;
use crate::schema::Schema;
use crate::table::Table;
use parking_lot::{RwLock, RwLockReadGuard};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// An independently lockable table.
pub type TableHandle = Arc<RwLock<Table>>;

/// A named collection of independently lockable tables.
///
/// The outer map lock is touched only by DDL (`create_table`, [`Self::load`])
/// and by [`Self::snapshot`]; statement execution pins a snapshot once and
/// never takes the map lock again.
#[derive(Default)]
pub struct ConcurrentCatalog {
    tables: RwLock<BTreeMap<String, TableHandle>>,
}

impl fmt::Debug for ConcurrentCatalog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ConcurrentCatalog")
            .field("tables", &self.table_names())
            .finish()
    }
}

impl ConcurrentCatalog {
    pub fn new() -> ConcurrentCatalog {
        ConcurrentCatalog::default()
    }

    fn key(name: &str) -> String {
        name.to_ascii_lowercase()
    }

    /// Create a table; errors if one with the same (case-insensitive) name
    /// exists.
    pub fn create_table(&self, name: &str, schema: Schema) -> Result<(), StorageError> {
        let mut tables = self.tables.write();
        let key = Self::key(name);
        if tables.contains_key(&key) {
            return Err(StorageError::TableExists(name.to_string()));
        }
        tables.insert(key, Arc::new(RwLock::new(Table::new(name, schema))));
        Ok(())
    }

    /// The handle for one table (an `Arc` clone; cheap).
    pub fn handle(&self, name: &str) -> Result<TableHandle, StorageError> {
        self.tables
            .read()
            .get(&Self::key(name))
            .cloned()
            .ok_or_else(|| StorageError::NoSuchTable(name.to_string()))
    }

    pub fn has_table(&self, name: &str) -> bool {
        self.tables.read().contains_key(&Self::key(name))
    }

    /// All table names, in deterministic (sorted-key) order.
    pub fn table_names(&self) -> Vec<String> {
        self.tables
            .read()
            .values()
            .map(|t| t.read().name().to_string())
            .collect()
    }

    /// Pin the current set of table handles. Snapshots are immutable maps
    /// of `Arc`s: once taken, no catalog-map lock is needed again, and the
    /// handles stay valid regardless of later DDL.
    pub fn snapshot(&self) -> CatalogSnapshot {
        CatalogSnapshot {
            tables: self.tables.read().clone(),
        }
    }

    /// Replace the entire contents with a recovered [`Database`]. Callers
    /// must ensure no transactions are in flight (recovery semantics).
    pub fn load(&self, db: Database) {
        let mut tables = self.tables.write();
        tables.clear();
        for t in db.into_tables() {
            tables.insert(Self::key(t.name()), Arc::new(RwLock::new(t)));
        }
    }

    /// Materialize a consistent point-in-time copy as a single-threaded
    /// [`Database`] (diagnostics, tests, oracle runs — not the statement
    /// hot path). All table read guards are held for the duration of the
    /// copy (acquired in sorted order, per the module's deadlock
    /// discipline), so no writer can be half-visible across tables.
    pub fn materialize(&self) -> Database {
        let snapshot = self.snapshot();
        let view = snapshot.read_all();
        Database::from_tables(view.guards.values().map(|g| (**g).clone()))
    }
}

/// An immutable, pinned set of table handles (see
/// [`ConcurrentCatalog::snapshot`]).
#[derive(Clone, Default)]
pub struct CatalogSnapshot {
    tables: BTreeMap<String, TableHandle>,
}

impl fmt::Debug for CatalogSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CatalogSnapshot")
            .field("tables", &self.tables.keys().collect::<Vec<_>>())
            .finish()
    }
}

impl CatalogSnapshot {
    /// The handle for one table.
    pub fn handle(&self, name: &str) -> Result<&TableHandle, StorageError> {
        self.tables
            .get(&ConcurrentCatalog::key(name))
            .ok_or_else(|| StorageError::NoSuchTable(name.to_string()))
    }

    /// Acquire read guards on the named tables (deduplicated; acquired in
    /// sorted key order so concurrent multi-table readers cannot deadlock).
    /// Unknown names are skipped — the resulting view reports
    /// [`StorageError::NoSuchTable`] on lookup, letting lowering produce
    /// its own (better) unknown-table errors. The view reads working
    /// state; [`TableView::at`] turns it into a snapshot read.
    pub fn read_view<S: AsRef<str>>(&self, names: &[S]) -> TableView<'_> {
        let mut keys: Vec<String> = names
            .iter()
            .map(|n| ConcurrentCatalog::key(n.as_ref()))
            .collect();
        keys.sort();
        keys.dedup();
        TableView {
            guards: keys
                .into_iter()
                .filter_map(|k| self.tables.get(&k).map(|h| (k, h.read())))
                .collect(),
            as_of: None,
        }
    }

    /// All table names in the snapshot (display-cased), in deterministic
    /// sorted-key order. Each name takes one short read latch.
    pub fn table_names(&self) -> Vec<String> {
        self.tables
            .values()
            .map(|h| h.read().name().to_string())
            .collect()
    }

    /// Read guards on every table in the snapshot.
    pub fn read_all(&self) -> TableView<'_> {
        TableView {
            // BTreeMap iteration is already in sorted key order.
            guards: self
                .tables
                .iter()
                .map(|(k, h)| (k.clone(), h.read()))
                .collect(),
            as_of: None,
        }
    }
}

/// A set of held table read guards, usable wherever a read-only
/// [`Database`] was: lowering, grounding, SPJ evaluation.
///
/// Visibility is a property of the view, not of the tables behind it:
/// with `as_of` unset the evaluator reads working state (what 2PL-locked
/// execution wants); with `as_of = Some(ts)` it resolves every candidate
/// row through its version chain as of commit timestamp `ts`, on the same
/// live tables and through the same history-union indexes. A snapshot
/// read is therefore a timestamp on the view — nothing is copied, and
/// nothing has to be invalidated when a writer commits.
pub struct TableView<'a> {
    guards: BTreeMap<String, RwLockReadGuard<'a, Table>>,
    as_of: Option<CommitTs>,
}

impl fmt::Debug for TableView<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TableView")
            .field("tables", &self.guards.keys().collect::<Vec<_>>())
            .finish()
    }
}

impl TableView<'_> {
    /// Read the held tables at `as_of`: `None` is working state,
    /// `Some(ts)` the committed history as of `ts`.
    pub fn at(mut self, as_of: Option<CommitTs>) -> Self {
        self.as_of = as_of;
        self
    }

    /// Iterate the held tables in deterministic (sorted-key) order.
    pub fn tables(&self) -> impl Iterator<Item = &Table> {
        self.guards.values().map(|g| &**g)
    }
}

impl TableProvider for TableView<'_> {
    fn table(&self, name: &str) -> Result<&Table, StorageError> {
        self.guards
            .get(&ConcurrentCatalog::key(name))
            .map(|g| &**g)
            .ok_or_else(|| StorageError::NoSuchTable(name.to_string()))
    }

    fn as_of(&self) -> Option<CommitTs> {
        self.as_of
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use crate::value::{Value, ValueType};

    fn catalog() -> ConcurrentCatalog {
        let c = ConcurrentCatalog::new();
        c.create_table(
            "Flights",
            Schema::of(&[("fno", ValueType::Int), ("dest", ValueType::Str)]),
        )
        .unwrap();
        c.handle("Flights")
            .unwrap()
            .write()
            .insert(vec![Value::Int(122), Value::str("LA")])
            .unwrap();
        c
    }

    #[test]
    fn create_lookup_and_duplicates() {
        let c = catalog();
        assert!(c.has_table("FLIGHTS"));
        assert!(matches!(
            c.create_table("flights", Schema::of(&[("x", ValueType::Int)])),
            Err(StorageError::TableExists(_))
        ));
        assert!(matches!(
            c.handle("nope"),
            Err(StorageError::NoSuchTable(_))
        ));
        assert_eq!(c.table_names(), vec!["Flights".to_string()]);
    }

    #[test]
    fn snapshot_pins_handles_across_ddl() {
        let c = catalog();
        let snap = c.snapshot();
        c.create_table("Later", Schema::of(&[("x", ValueType::Int)]))
            .unwrap();
        // The old snapshot does not see the new table…
        assert!(snap.handle("Later").is_err());
        // …but its pinned handles still reach live data.
        assert_eq!(snap.handle("Flights").unwrap().read().len(), 1);
        assert!(c.snapshot().handle("Later").is_ok());
    }

    #[test]
    fn read_view_provides_tables_and_reports_missing() {
        let c = catalog();
        let snap = c.snapshot();
        let view = snap.read_view(&["Flights", "Ghost", "flights"]);
        assert_eq!(TableProvider::table(&view, "fLiGhTs").unwrap().len(), 1);
        assert!(matches!(
            TableProvider::table(&view, "Ghost"),
            Err(StorageError::NoSuchTable(_))
        ));
        let all = snap.read_all();
        assert_eq!(TableProvider::table(&all, "Flights").unwrap().len(), 1);
    }

    #[test]
    fn concurrent_readers_and_disjoint_writers() {
        let c = Arc::new(catalog());
        c.create_table(
            "Hotels",
            Schema::of(&[("hid", ValueType::Int), ("city", ValueType::Str)]),
        )
        .unwrap();
        let mut workers = Vec::new();
        for i in 0..4i64 {
            let c = Arc::clone(&c);
            workers.push(std::thread::spawn(move || {
                let snap = c.snapshot();
                let target = if i % 2 == 0 { "Flights" } else { "Hotels" };
                for j in 0..50 {
                    snap.handle(target)
                        .unwrap()
                        .write()
                        .insert(vec![Value::Int(i * 1000 + j), Value::str("X")])
                        .unwrap();
                    let view = snap.read_view(&["Flights", "Hotels"]);
                    assert!(!TableProvider::table(&view, "Flights").unwrap().is_empty());
                }
            }));
        }
        for w in workers {
            w.join().unwrap();
        }
        assert_eq!(c.handle("Flights").unwrap().read().len(), 1 + 100);
        assert_eq!(c.handle("Hotels").unwrap().read().len(), 100);
    }

    #[test]
    fn as_of_view_serves_committed_versions_only() {
        use crate::{eval_spj, Expr, SpjQuery};
        let c = catalog();
        {
            let h = c.handle("Flights").unwrap();
            h.write().seal_versions(1);
            // Uncommitted working write (a transaction mid-flight).
            h.write()
                .insert(vec![Value::Int(999), Value::str("dirty")])
                .unwrap();
        }
        let snap = c.snapshot();
        let all = SpjQuery::new(
            vec!["Flights".into()],
            Expr::Const(Value::Bool(true)),
            vec![Expr::col(0, 0)],
        );
        let working = snap.read_view(&["Flights", "Ghost"]);
        assert_eq!(working.as_of(), None);
        assert_eq!(eval_spj(&working, &all).unwrap().rows.len(), 2);
        let view = working.at(Some(1));
        assert_eq!(view.as_of(), Some(1));
        assert_eq!(
            eval_spj(&view, &all).unwrap().rows,
            vec![vec![Value::Int(122)]],
            "dirty insert invisible to the snapshot"
        );
        assert!(matches!(
            TableProvider::table(&view, "Ghost"),
            Err(StorageError::NoSuchTable(_))
        ));
        // Before the seal there was nothing committed to see.
        assert!(eval_spj(&view.at(Some(0)), &all).unwrap().rows.is_empty());
    }

    #[test]
    fn load_and_materialize_roundtrip() {
        let c = catalog();
        let db = c.materialize();
        assert_eq!(db.table("Flights").unwrap().len(), 1);
        let c2 = ConcurrentCatalog::new();
        c2.load(db);
        assert_eq!(c2.handle("Flights").unwrap().read().len(), 1);
        assert_eq!(c2.materialize().canonical_rows("Flights").unwrap().len(), 1);
    }
}
