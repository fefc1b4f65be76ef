//! The classical-statement executor: one [`TxnContext`] per transaction
//! advance, executing SELECT/INSERT/UPDATE/DELETE/SET against the
//! concurrent catalog.
//!
//! This layer is what replaced the engine's original `RwLock<Database>`
//! monolith: statements now pin only the per-table handles they touch, so
//! transactions on disjoint tables (and readers on shared tables) proceed
//! in parallel through the storage substrate.
//!
//! Durability follows the same discipline: statement execution never
//! touches the shared WAL. Write records accumulate in the transaction's
//! private redo buffer (`Txn::redo`) and are published to the log in one
//! reserved append when the commit batch runs — only commit and abort
//! touch the shared device.

use crate::engine::{Engine, IsolationMode, LockGranularity};
use crate::error::EngineError;
use crate::program::{Txn, Undo};
use std::cell::RefCell;
use youtopia_lock::{LockMode, Resource, TxId};
use youtopia_sql::{
    access_plan, lower_const_scalar, lower_row_scalar, lower_select, lower_table_cond, AccessPlan,
    IndexProbe, RangeProbe, Select, Statement, VarEnv,
};
use youtopia_storage::{
    eval_spj_counted, eval_spj_rows, CatalogSnapshot, CommitTs, Expr, IndexKind, Row, RowId,
    ScanStats, SnapshotTables, StorageError, Table, TableProvider, Value,
};
use youtopia_wal::LogRecord;

/// Per-advance execution context over a pinned catalog snapshot.
///
/// A `TxnContext` is created once per [`Engine::run_until_block`] call. It
/// pins a [`CatalogSnapshot`] (a map of `Arc` table handles — no catalog
/// lock is touched again), and each statement then pins exactly the
/// handles it needs: read guards for lowering and scans, a write guard per
/// row mutation, plus the statement's *pre-resolved* column indexes and
/// row expressions (UPDATE `SET` scalars are lowered to index-bound
/// [`Expr`]s once, so per-row evaluation does no name resolution and no
/// catalog round-trips).
///
/// ## Why 2PL, not the latch, carries isolation
///
/// The table latches inside the snapshot are **physical** protection only:
/// they keep individual row operations and multi-table read batches
/// internally consistent, and are held for strictly bounded, wait-free
/// sections (never across a 2PL lock wait, a channel, or another latch
/// acquired out of sorted order). **Logical** isolation between
/// transactions — repeatable reads, write-write ordering, the §3.3.3
/// grounding-read guarantees — is carried entirely by the Strict-2PL lock
/// manager: every statement acquires its S/X/IS/IX locks *before* touching
/// a handle, and holds them to commit. That separation is exactly what
/// lets the storage layer drop the global `RwLock<Database>` latch: 2PL
/// already serializes conflicting access, so the substrate only has to
/// protect its own memory, not transaction semantics.
///
/// ## The snapshot read path
///
/// A transaction whose attempt pinned a snapshot (`Txn::snapshot`; every
/// read-only classical program) never reaches the locked SELECT path at
/// all: its statements evaluate against [`SnapshotTables`] — owned copies
/// of each table as visible at the pinned commit timestamp, materialized
/// once per transaction advance and cached here. No 2PL lock, no latch beyond the one short read latch
/// per table taken during materialization. Writers can commit freely
/// underneath; the snapshot, by the visibility rule, never sees them.
pub struct TxnContext<'e> {
    engine: &'e Engine,
    snapshot: CatalogSnapshot,
    /// Per-advance cache of snapshot-materialized tables (`Arc`-shared;
    /// grown lazily as statements touch tables).
    snapshot_tables: RefCell<Option<SnapshotTables>>,
}

impl std::fmt::Debug for TxnContext<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TxnContext")
            .field("snapshot", &self.snapshot)
            .finish()
    }
}

impl<'e> TxnContext<'e> {
    /// Pin the current catalog snapshot for one transaction advance.
    pub fn new(engine: &'e Engine) -> TxnContext<'e> {
        TxnContext {
            engine,
            snapshot: engine.catalog.snapshot(),
            snapshot_tables: RefCell::new(None),
        }
    }

    /// The snapshot-materialized view of the named tables at `ts`,
    /// extending the per-advance cache with any table not yet present.
    /// Tables come from the engine's epoch-keyed materialization cache
    /// ([`Engine::snapshot_table`]), so an unchanged table is copied once
    /// per committed write to it — not once per reader. Returns an owned
    /// handle (`Arc` clones — cheap). Unknown names are skipped; lookups
    /// then fail with `NoSuchTable`, mirroring the locked path.
    fn snapshot_view(&self, names: &[String], ts: CommitTs) -> SnapshotTables {
        let mut cache = self.snapshot_tables.borrow_mut();
        let view = cache.get_or_insert_with(|| SnapshotTables::from_parts(ts, []));
        let missing: Vec<&String> = names.iter().filter(|n| !view.contains(n)).collect();
        if !missing.is_empty() {
            view.absorb(SnapshotTables::from_parts(
                ts,
                missing
                    .into_iter()
                    .filter_map(|n| self.engine.snapshot_table(n, ts)),
            ));
        }
        view.clone()
    }

    /// Serve a single-table snapshot SELECT through the **live** table's
    /// history-union index: probe under one short read latch, resolve
    /// every candidate through its version chain at `ts`
    /// ([`Table::visible_row`]), and evaluate the full predicate over the
    /// survivors. No lock, no latch beyond the probe — and no
    /// materialized copy, which is exactly the per-`(timestamp, epoch)`
    /// index rebuild this path deletes (`index_rebuilds_avoided`).
    /// Returns `None` when the plan is a scan (the caller materializes).
    fn snapshot_probe(
        &self,
        table: &str,
        q: &youtopia_storage::SpjQuery,
        ts: CommitTs,
        stats: &mut ScanStats,
    ) -> Result<Option<youtopia_storage::QueryOutput>, EngineError> {
        let plan = {
            let names = [table.to_string()];
            let _latches = self.engine.latch_tokens(&names);
            let view = self.snapshot.read_view(&names);
            access_plan(&view, table, &q.predicate)?
        };
        let handle = self.snapshot.handle(table)?;
        let candidates: Vec<(RowId, Row)> = {
            let _latch = self.engine.latch_token(table);
            let guard = handle.read();
            let named = guard.named_indexes();
            let ids: Vec<RowId> = match &plan {
                AccessPlan::Point(p) => named
                    .get(&p.index)
                    .map(|ix| ix.probe(&p.key).to_vec())
                    .unwrap_or_default(),
                AccessPlan::Range(rp) => named
                    .get(&rp.index)
                    .and_then(|ix| ix.probe_range(&rp.prefix, rp.lo_ref(), rp.hi_ref()))
                    .unwrap_or_default(),
                AccessPlan::Scan => return Ok(None),
            };
            ids.into_iter()
                .filter_map(|id| guard.visible_row(id, ts).map(|r| (id, r.clone())))
                .collect()
        };
        stats.index_lookups += 1;
        stats.rows_scanned += candidates.len() as u64;
        stats.index_rebuilds_avoided += 1;
        Ok(Some(eval_spj_rows(q, &candidates)?))
    }

    /// Execute one SELECT on the snapshot read path: lower and evaluate
    /// against the pinned committed versions, acquiring **no** locks.
    fn select_at_snapshot(
        &self,
        txn: &mut Txn,
        sel: &Select,
        ts: CommitTs,
    ) -> Result<(), EngineError> {
        let mut stats = ScanStats::default();
        let mut footprint = Vec::new();
        sel.collect_tables(&mut footprint);
        // Lowering needs schemas only; resolve against the live catalog so
        // the probe path below can skip materialization entirely.
        let lowered = {
            let _latches = self.engine.latch_tokens(&footprint);
            let view = self.snapshot.read_view(&footprint);
            lower_select(&view, sel, &txn.env)?
        };
        let mut tables = lowered.query.tables.clone();
        tables.sort();
        tables.dedup();
        let out = match tables.as_slice() {
            [table] => match self.snapshot_probe(table, &lowered.query, ts, &mut stats)? {
                Some(out) => out,
                None => {
                    let view = self.snapshot_view(&tables, ts);
                    eval_spj_counted(&view, &lowered.query, &mut stats)?
                }
            },
            _ => {
                let view = self.snapshot_view(&tables, ts);
                eval_spj_counted(&view, &lowered.query, &mut stats)?
            }
        };
        self.engine.note_scan(stats);
        if self.engine.config.record_history {
            for t in &tables {
                self.engine.recorder.snapshot_read(txn.tx, t);
            }
        }
        if let Some(row) = out.rows.first() {
            for (idx, var) in &lowered.bindings {
                txn.env.insert(var.clone(), row[*idx].clone());
            }
        }
        Ok(())
    }

    fn lock(&self, tx: u64, res: Resource, mode: LockMode) -> Result<(), EngineError> {
        self.engine
            .locks
            .lock(TxId(tx), res, mode, Some(self.engine.config.lock_timeout))
            .map_err(EngineError::from)
    }

    /// Table-level locking for UPDATE/DELETE scans: X at table granularity,
    /// SIX-equivalent (S + IX) at row granularity (scan reads the table,
    /// writes individual rows).
    fn lock_for_write_scan(&self, tx: u64, table: &str) -> Result<(), EngineError> {
        match self.engine.config.granularity {
            LockGranularity::Table => self.lock(tx, Resource::table(table), LockMode::X),
            LockGranularity::Row => {
                self.lock(tx, Resource::table(table), LockMode::S)?;
                self.lock(tx, Resource::table(table), LockMode::IX)
            }
        }
    }

    /// Two-level lock acquisition for an index point access: intention
    /// mode on the table, `mode` on the index-key resource, then `mode`
    /// on every candidate row the probe returns. The key lock is what
    /// makes the candidate set stable — any statement that would add or
    /// remove a row at this key must take X on the same resource first —
    /// so probing *after* the key lock is granted cannot miss or leak
    /// membership. Returns the candidate row ids (row locks held).
    ///
    /// Latch discipline: the probe's read latch is dropped before any row
    /// lock is requested — lock waits never happen under a latch.
    fn lock_index_point(
        &self,
        tx: u64,
        table: &str,
        probe: &IndexProbe,
        table_mode: LockMode,
        mode: LockMode,
    ) -> Result<Vec<RowId>, EngineError> {
        self.lock(tx, Resource::table(table), table_mode)?;
        self.lock(
            tx,
            index_key_resource(table, &probe.index, &probe.key),
            mode,
        )?;
        let handle = self.snapshot.handle(table)?;
        let ids: Vec<RowId> = {
            let _latch = self.engine.latch_token(table);
            let guard = handle.read();
            guard
                .named_indexes()
                .get(&probe.index)
                .map(|i| i.probe(&probe.key).to_vec())
                .unwrap_or_default()
        };
        for id in &ids {
            self.lock(tx, Resource::row(table, id.0), mode)?;
        }
        self.engine.note_scan(ScanStats {
            rows_scanned: ids.len() as u64,
            index_lookups: 1,
            ..ScanStats::default()
        });
        Ok(ids)
    }

    /// Next-key lock acquisition for a range access over a btree index:
    /// intention mode on the table, then `mode` on **every existing key
    /// in the probed interval plus the successor key beyond it** (the EOF
    /// sentinel when the range runs off the index), then `mode` on every
    /// candidate row. Any insert into the interval must X-lock the posted
    /// key (an existing in-range key, if a duplicate) and IX-lock its
    /// successor ([`Self::lock_btree_successor`]) — both conflict with the
    /// reader's S — and any delete X-locks the removed key itself. So once
    /// the lock set covers a probe, interval membership is frozen: the
    /// range-phantom hole that previously forced range statements to
    /// table-S is closed.
    ///
    /// Probe → lock → re-probe fixpoint: each probe runs under a short
    /// read latch, locks are taken after it drops (no lock wait under a
    /// latch), and the loop repeats until a probe discovers no key the
    /// set doesn't already cover. The set only grows, so conflicting
    /// traffic makes progress toward convergence; rounds are bounded as a
    /// livelock backstop.
    fn lock_index_range(
        &self,
        tx: u64,
        table: &str,
        rp: &RangeProbe,
        table_mode: LockMode,
        mode: LockMode,
    ) -> Result<Vec<RowId>, EngineError> {
        self.lock(tx, Resource::table(table), table_mode)?;
        let handle = self.snapshot.handle(table)?;
        let mut locked = std::collections::HashSet::new();
        for _ in 0..NEXT_KEY_ROUNDS {
            let probe = {
                let _latch = self.engine.latch_token(table);
                let guard = handle.read();
                guard
                    .named_indexes()
                    .get(&rp.index)
                    .and_then(|ix| ix.probe_range_entries(&rp.prefix, rp.lo_ref(), rp.hi_ref()))
            };
            let Some((entries, successor)) = probe else {
                return Ok(Vec::new()); // index vanished (not reachable for a planned range)
            };
            let mut wanted: Vec<Resource> = entries
                .iter()
                .map(|(k, _)| index_key_resource(table, &rp.index, k))
                .collect();
            wanted.push(match &successor {
                Some(k) => index_key_resource(table, &rp.index, k),
                None => index_eof_resource(table, &rp.index),
            });
            let mut grew = false;
            for res in wanted {
                if locked.insert(res.clone()) {
                    self.lock(tx, res, mode)?;
                    grew = true;
                }
            }
            if !grew {
                // Converged: hand the successor-or-EOF resource this probe
                // relies on to the auditor, which verifies an S-covering
                // lock on it is really held (the next-key invariant).
                self.engine.audit_range_covered(
                    tx,
                    &match &successor {
                        Some(k) => index_key_resource(table, &rp.index, k),
                        None => index_eof_resource(table, &rp.index),
                    },
                );
                let ids: Vec<RowId> = entries.iter().flat_map(|(_, ids)| ids.clone()).collect();
                for id in &ids {
                    self.lock(tx, Resource::row(table, id.0), mode)?;
                }
                self.engine.note_scan(ScanStats {
                    rows_scanned: ids.len() as u64,
                    index_lookups: 1,
                    ..ScanStats::default()
                });
                return Ok(ids);
            }
        }
        Err(EngineError::Protocol(
            "next-key range lock did not converge",
        ))
    }

    /// The inserter half of the next-key protocol: before posting `key`
    /// into btree index `index`, lock the first existing key strictly
    /// greater than it (or the EOF sentinel) — the very key a concurrent
    /// range reader whose interval covers `key` holds S on. The lock is
    /// **IX**, not X: it conflicts with a range reader's S (phantom
    /// protection) but not with another inserter's IX, so two
    /// transactions posting adjacent keys — e.g. entangled partners
    /// booking under each other's uid, holding locks to a *group* commit
    /// — don't re-create the Ab4 standoff on the successor. Same
    /// probe → lock → re-probe fixpoint as the reader side: a committed
    /// interleaving can slide a nearer successor in before our lock
    /// lands, in which case the nearer key is locked too.
    fn lock_btree_successor(
        &self,
        tx: u64,
        table: &str,
        index: &str,
        key: &Value,
    ) -> Result<(), EngineError> {
        let handle = self.snapshot.handle(table)?;
        let mut last: Option<Resource> = None;
        for _ in 0..NEXT_KEY_ROUNDS {
            let succ = {
                let _latch = self.engine.latch_token(table);
                let guard = handle.read();
                match guard.named_indexes().get(index).map(|ix| ix.successor(key)) {
                    Some(Some(s)) => s,
                    // Index vanished or is a hash — no key order to protect.
                    Some(None) | None => return Ok(()),
                }
            };
            let res = match &succ {
                Some(k) => index_key_resource(table, index, k),
                None => index_eof_resource(table, index),
            };
            if last.as_ref() == Some(&res) {
                return Ok(());
            }
            self.lock(tx, res.clone(), LockMode::IX)?;
            last = Some(res);
        }
        Err(EngineError::Protocol(
            "next-key insert lock did not converge",
        ))
    }

    /// X locks on the index-key resources a write invalidates: for every
    /// named index on `table`, the key a row enters or leaves — plus, for
    /// btree indexes, the successor of any key the write *posts* (the
    /// inserter half of the next-key protocol; removals need no successor
    /// lock, the departing key's own X suffices). Taken *before* the heap
    /// mutation, so a point reader holding key S can never observe
    /// membership shift under it, and a range reader's interval can't
    /// grow a phantom. Only needed at row granularity — a table X lock
    /// already excludes the IS readers.
    fn lock_index_keys_for_write(
        &self,
        tx: u64,
        table: &str,
        defs: &[IndexDef],
        old: Option<&[Value]>,
        new: Option<&[Value]>,
    ) -> Result<(), EngineError> {
        if self.engine.config.granularity != LockGranularity::Row {
            return Ok(());
        }
        for def in defs {
            let (o, n) = (old.map(|r| def.key_of(r)), new.map(|r| def.key_of(r)));
            if o == n {
                continue;
            }
            if let Some(key) = &o {
                self.lock(tx, index_key_resource(table, &def.name, key), LockMode::X)?;
            }
            if let Some(key) = &n {
                self.lock(tx, index_key_resource(table, &def.name, key), LockMode::X)?;
                if def.kind == IndexKind::Btree {
                    self.lock_btree_successor(tx, table, &def.name, key)?;
                }
            }
        }
        Ok(())
    }

    /// Lock and collect the target rows of an UPDATE/DELETE. With a point
    /// or range plan at row granularity the statement takes table IX +
    /// key/next-key X + row X and touches only the probe's candidates;
    /// otherwise it falls back to the write-scan protocol (table X, or
    /// S + IX + row X) over a full scan. Probed targets are re-read and
    /// re-filtered after their row locks are granted: the key locks
    /// freeze index membership, but a racing writer that held a
    /// candidate's row lock first may have changed its non-key columns
    /// before releasing — and history-union postings can be stale, which
    /// the same re-filter screens out.
    fn write_targets(
        &self,
        tx: u64,
        table: &str,
        handle: &youtopia_storage::TableHandle,
        pred: &Expr,
        plan: &AccessPlan,
    ) -> Result<Vec<(RowId, Vec<Value>)>, EngineError> {
        let config = &self.engine.config;
        if config.granularity == LockGranularity::Row {
            let ids = match plan {
                AccessPlan::Point(p) => {
                    Some(self.lock_index_point(tx, table, p, LockMode::IX, LockMode::X)?)
                }
                AccessPlan::Range(rp) => {
                    Some(self.lock_index_range(tx, table, rp, LockMode::IX, LockMode::X)?)
                }
                AccessPlan::Scan => None,
            };
            if let Some(ids) = ids {
                let _latch = self.engine.latch_token(table);
                let guard = handle.read();
                let mut targets = Vec::with_capacity(ids.len());
                for id in ids {
                    if let Some(row) = guard.get(id) {
                        if pred
                            .eval_bool(&[row.as_slice()])
                            .map_err(|_| EngineError::Protocol("non-boolean WHERE"))?
                        {
                            targets.push((id, row.clone()));
                        }
                    }
                }
                return Ok(targets);
            }
        }
        self.lock_for_write_scan(tx, table)?;
        let targets = {
            let _latch = self.engine.latch_token(table);
            let guard = handle.read();
            self.engine.note_scan(ScanStats {
                rows_scanned: guard.len() as u64,
                ..ScanStats::default()
            });
            collect_matches(&guard, pred)?
        };
        if config.granularity == LockGranularity::Row {
            for (id, _) in &targets {
                self.lock(tx, Resource::row(table, id.0), LockMode::X)?;
            }
        }
        Ok(targets)
    }

    /// The named-index definitions of `table`, read under a short latch
    /// (empty for unindexed tables — the common case pays one read guard
    /// and no allocation).
    fn named_index_defs(&self, table: &str) -> Result<Vec<IndexDef>, EngineError> {
        let handle = self.snapshot.handle(table)?;
        let _latch = self.engine.latch_token(table);
        let guard = handle.read();
        Ok(guard
            .named_indexes()
            .iter()
            .map(|i| IndexDef {
                name: i.name().to_string(),
                columns: i.columns().to_vec(),
                kind: i.kind(),
            })
            .collect())
    }

    /// Execute one classical statement on behalf of `txn`.
    pub fn execute(&self, txn: &mut Txn, stmt: &Statement) -> Result<(), EngineError> {
        let config = &self.engine.config;
        // Snapshot attempts are read-only by construction (`Program::
        // is_read_only`); route their SELECTs to the versioned path and
        // refuse anything that would mutate state (defense in depth — the
        // begin-time gate should make this unreachable).
        if let Some(ts) = txn.snapshot {
            return match stmt {
                Statement::Select(sel) => self.select_at_snapshot(txn, sel, ts),
                Statement::SetVar { name, expr } => {
                    let v = lower_const_scalar(expr, &txn.env)?;
                    txn.env.insert(name.clone(), v);
                    Ok(())
                }
                _ => Err(EngineError::Protocol("snapshot transactions are read-only")),
            };
        }
        match stmt {
            Statement::Select(sel) => {
                // Lower against the statement's table footprint (needs
                // schemas only), then take 2PL locks, then evaluate on
                // freshly pinned read guards.
                let mut footprint = Vec::new();
                sel.collect_tables(&mut footprint);
                let lowered = {
                    let _latches = self.engine.latch_tokens(&footprint);
                    let view = self.snapshot.read_view(&footprint);
                    lower_select(&view, sel, &txn.env)?
                };
                let mut tables = lowered.query.tables.clone();
                tables.sort();
                tables.dedup();
                // Index-backed point/range read: a single-table SELECT
                // whose predicate the planner serves through a named index
                // takes table IS + index-key S (every in-range key plus
                // the next key, for ranges) + row S on the candidates
                // instead of a table S lock, so probing readers pass point
                // writers on other rows. The key locks freeze index
                // membership (phantom protection the table S lock used to
                // provide — the successor lock closes the range-phantom
                // hole); holding the locks to commit keeps the read
                // repeatable. Not under EarlyReadLockRelease: that
                // ablation's contract is statement-scoped table locks.
                if tables.len() == 1
                    && config.granularity == LockGranularity::Row
                    && config.isolation != IsolationMode::EarlyReadLockRelease
                {
                    let table = &tables[0];
                    let plan = {
                        let _latches = self.engine.latch_tokens(&tables);
                        let view = self.snapshot.read_view(&tables);
                        access_plan(&view, table, &lowered.query.predicate)?
                    };
                    let ids = match &plan {
                        AccessPlan::Point(p) => Some(self.lock_index_point(
                            txn.tx,
                            table,
                            p,
                            LockMode::IS,
                            LockMode::S,
                        )?),
                        AccessPlan::Range(rp) => Some(self.lock_index_range(
                            txn.tx,
                            table,
                            rp,
                            LockMode::IS,
                            LockMode::S,
                        )?),
                        AccessPlan::Scan => None,
                    };
                    if let Some(ids) = ids {
                        let out = match &plan {
                            // Range candidates are already in hand (locked);
                            // evaluate the residual predicate over them
                            // directly — composite prefixes included, which
                            // the generic evaluator cannot serve.
                            AccessPlan::Range(_) => {
                                let handle = self.snapshot.handle(table)?;
                                let candidates: Vec<(RowId, Row)> = {
                                    let _latch = self.engine.latch_token(table);
                                    let guard = handle.read();
                                    ids.iter()
                                        .filter_map(|id| guard.get(*id).map(|r| (*id, r.clone())))
                                        .collect()
                                };
                                eval_spj_rows(&lowered.query, &candidates)?
                            }
                            _ => {
                                let _latches = self.engine.latch_tokens(&tables);
                                let view = self.snapshot.read_view(&tables);
                                let mut stats = ScanStats::default();
                                let out = eval_spj_counted(&view, &lowered.query, &mut stats)?;
                                self.engine.note_scan(stats);
                                out
                            }
                        };
                        if config.record_history {
                            for id in &ids {
                                self.engine.recorder.read_row(txn.tx, table, id.0);
                            }
                        }
                        if let Some(row) = out.rows.first() {
                            for (idx, var) in &lowered.bindings {
                                txn.env.insert(var.clone(), row[*idx].clone());
                            }
                        }
                        return Ok(());
                    }
                }
                for t in &tables {
                    self.lock(txn.tx, Resource::table(t), LockMode::S)?;
                }
                let out = {
                    let _latches = self.engine.latch_tokens(&tables);
                    let view = self.snapshot.read_view(&tables);
                    let mut stats = ScanStats::default();
                    let out = eval_spj_counted(&view, &lowered.query, &mut stats)?;
                    self.engine.note_scan(stats);
                    out
                };
                if config.record_history {
                    for t in &tables {
                        self.engine.recorder.read(txn.tx, t);
                    }
                }
                // Bind host variables from the first row (MySQL-style
                // SELECT-into-variable semantics used by Appendix D).
                if let Some(row) = out.rows.first() {
                    for (idx, var) in &lowered.bindings {
                        txn.env.insert(var.clone(), row[*idx].clone());
                    }
                }
                if config.isolation == IsolationMode::EarlyReadLockRelease {
                    for t in &tables {
                        self.engine.locks.release(TxId(txn.tx), &Resource::table(t));
                    }
                }
                Ok(())
            }
            Statement::Insert {
                table,
                columns,
                values,
            } => {
                match config.granularity {
                    LockGranularity::Table => {
                        self.lock(txn.tx, Resource::table(table), LockMode::X)?
                    }
                    LockGranularity::Row => {
                        self.lock(txn.tx, Resource::table(table), LockMode::IX)?
                    }
                }
                let handle = self.snapshot.handle(table)?;
                let row = {
                    let _latch = self.engine.latch_token(table);
                    build_insert_row(&handle.read(), table, columns, values, &txn.env)?
                };
                // Key locks precede the heap insert: a point reader holding
                // key S must not see this row appear mid-transaction.
                let defs = self.named_index_defs(table)?;
                self.lock_index_keys_for_write(txn.tx, table, &defs, None, Some(&row))?;
                let id = {
                    let _latch = self.engine.latch_token(table);
                    handle
                        .write()
                        .insert(row.clone())
                        .map_err(StorageError::from)?
                };
                if config.granularity == LockGranularity::Row {
                    // Fresh row: uncontended by construction.
                    self.lock(txn.tx, Resource::row(table, id.0), LockMode::X)?;
                }
                txn.redo.push(LogRecord::Insert {
                    tx: txn.tx,
                    table: table.clone(),
                    row: id.0,
                    values: row,
                });
                txn.undo.push(Undo::Insert {
                    table: table.clone(),
                    row: id.0,
                });
                if config.record_history {
                    let row = (config.granularity == LockGranularity::Row).then_some(id.0);
                    self.engine.recorder.write(txn.tx, table, row);
                }
                Ok(())
            }
            Statement::Update {
                table,
                sets,
                where_clause,
            } => {
                let handle = self.snapshot.handle(table)?;
                // Resolve names once per statement: the predicate and every
                // SET scalar become index-bound expressions evaluated per
                // row with no further lookups.
                let (pred, set_exprs, plan) = {
                    let _latch = self.engine.latch_token(table);
                    let view = self.snapshot.read_view(std::slice::from_ref(table));
                    let schema = view.table(table)?.schema();
                    let pred = lower_table_cond(&view, table, where_clause, &txn.env)?;
                    let set_exprs: Vec<(usize, Expr)> =
                        sets.iter()
                            .map(|(c, s)| {
                                let idx = schema.index_of(c).ok_or_else(|| {
                                    StorageError::NoSuchColumn {
                                        table: table.clone(),
                                        column: c.clone(),
                                    }
                                })?;
                                Ok((idx, lower_row_scalar(&view, table, s, &txn.env)?))
                            })
                            .collect::<Result<_, EngineError>>()?;
                    let plan = access_plan(&view, table, &pred)?;
                    (pred, set_exprs, plan)
                };
                let defs = self.named_index_defs(table)?;
                let targets = self.write_targets(txn.tx, table, handle, &pred, &plan)?;
                for (id, old) in targets {
                    let mut new = old.clone();
                    for (col, expr) in &set_exprs {
                        new[*col] = expr
                            .eval(&[old.as_slice()])
                            .map_err(|_| EngineError::Protocol("invalid arithmetic"))?;
                    }
                    self.lock_index_keys_for_write(txn.tx, table, &defs, Some(&old), Some(&new))?;
                    {
                        let _latch = self.engine.latch_token(table);
                        handle
                            .write()
                            .update(id, new.clone())
                            .map_err(StorageError::from)?
                            .ok_or_else(|| StorageError::NoSuchRow {
                                table: table.clone(),
                                row: id,
                            })?;
                    }
                    txn.redo.push(LogRecord::Update {
                        tx: txn.tx,
                        table: table.clone(),
                        row: id.0,
                        before: old.clone(),
                        after: new,
                    });
                    txn.undo.push(Undo::Update {
                        table: table.clone(),
                        row: id.0,
                        before: old,
                    });
                    if config.record_history {
                        let row = (config.granularity == LockGranularity::Row).then_some(id.0);
                        self.engine.recorder.write(txn.tx, table, row);
                    }
                }
                Ok(())
            }
            Statement::Delete {
                table,
                where_clause,
            } => {
                let handle = self.snapshot.handle(table)?;
                let (pred, plan) = {
                    let _latch = self.engine.latch_token(table);
                    let view = self.snapshot.read_view(std::slice::from_ref(table));
                    let pred = lower_table_cond(&view, table, where_clause, &txn.env)?;
                    let plan = access_plan(&view, table, &pred)?;
                    (pred, plan)
                };
                let defs = self.named_index_defs(table)?;
                let targets = self.write_targets(txn.tx, table, handle, &pred, &plan)?;
                for (id, old) in targets {
                    self.lock_index_keys_for_write(txn.tx, table, &defs, Some(&old), None)?;
                    {
                        let _latch = self.engine.latch_token(table);
                        handle
                            .write()
                            .delete(id)
                            .ok_or_else(|| StorageError::NoSuchRow {
                                table: table.clone(),
                                row: id,
                            })?;
                    }
                    txn.redo.push(LogRecord::Delete {
                        tx: txn.tx,
                        table: table.clone(),
                        row: id.0,
                        before: old.clone(),
                    });
                    txn.undo.push(Undo::Delete {
                        table: table.clone(),
                        row: id.0,
                        before: old,
                    });
                    if config.record_history {
                        let row = (config.granularity == LockGranularity::Row).then_some(id.0);
                        self.engine.recorder.write(txn.tx, table, row);
                    }
                }
                Ok(())
            }
            Statement::SetVar { name, expr } => {
                let v = lower_const_scalar(expr, &txn.env)?;
                txn.env.insert(name.clone(), v);
                Ok(())
            }
            Statement::Rollback => Err(EngineError::RolledBack),
            Statement::CreateTable { .. } | Statement::CreateIndex { .. } => Err(
                EngineError::Protocol("DDL inside transactions is not supported"),
            ),
            Statement::Begin { .. } | Statement::Commit => {
                Err(EngineError::Protocol("nested BEGIN/COMMIT"))
            }
            Statement::Entangled(_) => unreachable!("handled by run_until_block"),
        }
    }
}

// ---- helpers ----

/// The 2PL resource guarding membership of one key in one named index.
/// Point readers take S on it; any write that adds or removes a row at
/// the key takes X. The synthetic `table#index` namespace cannot collide
/// with a real table: `#` is not a legal identifier character, so no
/// parsed statement can lock it as a table. The key is collapsed to a
/// 64-bit hash — `DefaultHasher` is deterministic within a process, which
/// is all a lock identity needs (a rare hash collision merely over-locks).
fn index_key_resource(table: &str, index: &str, key: &Value) -> Resource {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    key.hash(&mut h);
    Resource::row(format!("{table}#{index}"), h.finish())
}

/// The "beyond the last key" resource for a btree index. A range probe
/// whose interval runs past the highest posted key locks this instead of
/// a successor key; an insert that would become the new maximum must
/// take X on it, so end-of-index phantoms conflict the same way interior
/// ones do. `u64::MAX` is unreachable by `index_key_resource`'s hasher
/// only probabilistically, but a collision merely over-locks.
fn index_eof_resource(table: &str, index: &str) -> Resource {
    Resource::row(format!("{table}#{index}"), u64::MAX)
}

/// Bound on probe→lock→re-probe rounds in the next-key fixpoint loops.
/// Each round either locks a strictly-nearer successor or converges, so
/// non-convergence within the bound means pathological churn; we fail
/// the statement rather than spin.
const NEXT_KEY_ROUNDS: usize = 8;

/// A named index's identity and key shape, detached from the table latch
/// so writers can compute old/new keys without holding the read guard.
struct IndexDef {
    name: String,
    columns: Vec<usize>,
    kind: IndexKind,
}

impl IndexDef {
    /// The key this index posts for `row`: bare value for single-column
    /// indexes, composite tuple in declaration order otherwise — must
    /// match `Index::key_of` exactly or writer key locks miss.
    fn key_of(&self, row: &[Value]) -> Value {
        if let [c] = self.columns.as_slice() {
            row[*c].clone()
        } else {
            Value::Tuple(self.columns.iter().map(|c| row[*c].clone()).collect())
        }
    }
}

/// Build the row an INSERT produces, resolving the optional column list
/// against the table's schema.
pub(crate) fn build_insert_row(
    t: &Table,
    table: &str,
    columns: &Option<Vec<String>>,
    values: &[youtopia_sql::Scalar],
    env: &VarEnv,
) -> Result<Vec<Value>, EngineError> {
    let schema = t.schema();
    let vals: Vec<Value> = values
        .iter()
        .map(|s| lower_const_scalar(s, env))
        .collect::<Result<_, _>>()?;
    match columns {
        None => Ok(vals),
        Some(cols) => {
            let mut row = vec![Value::Null; schema.arity()];
            for (c, v) in cols.iter().zip(vals) {
                let idx = schema
                    .index_of(c)
                    .ok_or_else(|| StorageError::NoSuchColumn {
                        table: table.to_string(),
                        column: c.clone(),
                    })?;
                row[idx] = v;
            }
            Ok(row)
        }
    }
}

fn collect_matches(t: &Table, pred: &Expr) -> Result<Vec<(RowId, Vec<Value>)>, EngineError> {
    let mut out = Vec::new();
    for (id, row) in t.scan() {
        if pred
            .eval_bool(&[row.as_slice()])
            .map_err(|_| EngineError::Protocol("non-boolean WHERE"))?
        {
            out.push((id, row.clone()));
        }
    }
    Ok(out)
}
