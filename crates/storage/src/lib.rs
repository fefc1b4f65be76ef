//! # youtopia-storage
//!
//! The relational storage substrate for the *Entangled Transactions*
//! reproduction (Gupta et al., PVLDB 4(7), 2011).
//!
//! The paper's prototype is a middle tier over MySQL/InnoDB; this crate is
//! the from-scratch replacement for the parts of that DBMS the middleware
//! actually exercises: a catalog of in-memory heap tables with stable row
//! ids, named hash/btree indexes, typed values (including the dates the travel scenario
//! manipulates), resolved scalar expressions, and a select-project-join
//! evaluator used both for classical statements and for *grounding*
//! entangled queries (Appendix A of the paper).
//!
//! Concurrency *control* and durability deliberately live elsewhere
//! (`youtopia-lock` and `youtopia-wal`): this crate is the data plane,
//! mirroring how the paper's middleware treats the DBMS as a data service
//! and layers entanglement logic on top. It comes in two forms sharing one
//! [`TableProvider`] interface: the single-threaded [`Database`]
//! (recovery, oracles, tests) and the [`ConcurrentCatalog`] of
//! independently lockable per-table handles the engine's hot path runs on
//! — physical latches only; transaction isolation stays with the lock
//! manager above.
//!
//! Tables also carry per-row [`mvcc::VersionChain`]s of *committed*
//! values keyed by commit timestamp, serving lock-free snapshot reads for
//! read-only transactions. A snapshot read is not a different storage
//! face: it is the same [`TableView`] with a timestamp on it
//! ([`TableView::at`], [`TableProvider::as_of`]), and evaluation resolves
//! each row through [`Table::row_at`]. Writers install versions only at
//! commit; the [`mvcc::SnapshotRegistry`] tracks
//! the stable frontier readers pin and the horizon the garbage collector
//! prunes behind. See the [`mvcc`] module docs for the visibility and GC
//! rules.
//!
//! ```
//! use youtopia_storage::{Database, Schema, Value, ValueType};
//!
//! let mut db = Database::new();
//! db.create_table(
//!     "Flights",
//!     Schema::of(&[("fno", ValueType::Int), ("dest", ValueType::Str)]),
//! ).unwrap();
//! db.insert("Flights", vec![Value::Int(122), Value::str("LA")]).unwrap();
//! assert_eq!(db.table("Flights").unwrap().len(), 1);
//! ```

pub mod catalog;
pub mod concurrent;
pub mod expr;
pub mod index;
pub mod mvcc;
pub mod query;
pub mod schema;
pub mod shard;
pub mod table;
pub mod value;

pub use catalog::{Database, StorageError, TableProvider};
pub use concurrent::{CatalogSnapshot, ConcurrentCatalog, TableHandle, TableView};
pub use expr::{CmpOp, EvalError, Expr};
pub use index::{Index, IndexKind, IndexSet};
pub use mvcc::{CommitTs, SnapshotRegistry, VersionChain};
pub use query::{eval_spj, eval_spj_counted, eval_spj_rows, QueryOutput, ScanStats, SpjQuery};
pub use schema::{Column, Schema, SchemaError};
pub use shard::shard_of_table;
pub use table::{Row, RowId, Table};
pub use value::{Value, ValueType};
