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
use youtopia_lock::{LockMode, Resource, TxId};
use youtopia_sql::{
    access_plan, lower_const_scalar, lower_row_scalar, lower_select, lower_table_cond, AccessPlan,
    Cond, IndexProbe, RangeProbe, Scalar, Select, Statement, VarEnv,
};
use youtopia_storage::{
    eval_spj_counted, eval_spj_rows, CatalogSnapshot, Expr, IndexKind, Row, RowId, ScanStats,
    StorageError, Table, TableProvider, Value,
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
/// read-only classical program) runs the same SELECT arm as everyone
/// else with two differences: it skips the lock step, and its read view
/// carries the pinned commit timestamp ([`youtopia_storage::TableView::at`]),
/// so every candidate row — probed through the live history-union index
/// or walked by a scan — is resolved through its version chain as of that
/// timestamp. It holds exactly the sorted read latches a locked read
/// holds, never waits on a 2PL lock and takes none. Writers can commit
/// freely underneath; the snapshot, by the visibility rule, never sees
/// them.
pub struct TxnContext<'e> {
    engine: &'e Engine,
    snapshot: CatalogSnapshot,
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
        }
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

    /// The candidate row ids of an index-served plan, read from the live
    /// history-union index under one short latch — no lock is taken, so
    /// the caller either already holds the key locks that freeze the
    /// probed membership or is a snapshot reader that does not need them.
    /// Postings may be stale; consumers resolve every id through
    /// [`Table::row_at`] and re-apply the predicate.
    fn probe_ids(&self, table: &str, plan: &AccessPlan) -> Result<Vec<RowId>, EngineError> {
        let handle = self.snapshot.handle(table)?;
        let ids = {
            let _latch = self.engine.latch_token(table);
            let guard = handle.read();
            let named = guard.named_indexes();
            match plan {
                AccessPlan::Point(p) => named.get(&p.index).map(|ix| ix.probe(&p.key).to_vec()),
                AccessPlan::Range(rp) => named
                    .get(&rp.index)
                    .and_then(|ix| ix.probe_range(&rp.prefix, rp.lo_ref(), rp.hi_ref())),
                AccessPlan::Scan => None,
            }
            .unwrap_or_default()
        };
        self.engine.note_scan(ScanStats {
            rows_scanned: ids.len() as u64,
            index_lookups: 1,
        });
        Ok(ids)
    }

    /// The row ids an index-served `plan` reads (`None` for a scan). With
    /// `modes = Some((table mode, key/row mode))` the plan's 2PL locks are
    /// acquired around the probe ([`Self::lock_index_point`] then row
    /// locks, or [`Self::lock_index_range`]); a snapshot attempt passes
    /// `None` and only probes.
    ///
    /// Latch discipline: the probe's read latch is dropped before any row
    /// lock is requested — lock waits never happen under a latch.
    fn plan_ids(
        &self,
        tx: u64,
        table: &str,
        plan: &AccessPlan,
        modes: Option<(LockMode, LockMode)>,
    ) -> Result<Option<Vec<RowId>>, EngineError> {
        match (plan, modes) {
            (AccessPlan::Scan, _) => return Ok(None),
            (AccessPlan::Range(rp), Some((table_mode, mode))) => {
                return self
                    .lock_index_range(tx, table, rp, table_mode, mode)
                    .map(Some)
            }
            (AccessPlan::Point(p), Some((table_mode, mode))) => {
                self.lock_index_point(tx, table, p, table_mode, mode)?
            }
            (_, None) => {}
        }
        let ids = self.probe_ids(table, plan)?;
        if let Some((_, mode)) = modes {
            for id in &ids {
                self.lock(tx, Resource::row(table, id.0), mode)?;
            }
        }
        Ok(Some(ids))
    }

    /// The first two levels of lock acquisition for an index point access:
    /// intention mode on the table, then `mode` on the index-key resource
    /// (the caller then takes `mode` on every candidate row its probe
    /// returns). The key lock is what makes the candidate set stable — any
    /// statement that would add or remove a row at this key must take X
    /// on the same resource first — so probing *after* the key lock is
    /// granted cannot miss or leak membership.
    fn lock_index_point(
        &self,
        tx: u64,
        table: &str,
        probe: &IndexProbe,
        table_mode: LockMode,
        mode: LockMode,
    ) -> Result<(), EngineError> {
        self.lock(tx, Resource::table(table), table_mode)?;
        self.lock(
            tx,
            index_key_resource(table, &probe.index, &probe.key),
            mode,
        )
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
                // Once each: a row re-keyed within the range is posted
                // under its old key too until vacuum.
                let mut seen = std::collections::HashSet::new();
                let ids: Vec<RowId> = entries
                    .iter()
                    .flat_map(|(_, ids)| ids.iter().copied())
                    .filter(|id| seen.insert(*id))
                    .collect();
                for id in &ids {
                    self.lock(tx, Resource::row(table, id.0), mode)?;
                }
                self.engine.note_scan(ScanStats {
                    rows_scanned: ids.len() as u64,
                    index_lookups: 1,
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
    /// or range plan (row granularity only — the caller plans a scan
    /// otherwise) the statement takes table IX + key/next-key X + row X
    /// and touches only the probe's candidates; a scan plan falls back to
    /// the write-scan protocol (table X, or S + IX + row X) over the whole
    /// table. Probed targets are re-read and re-filtered after their row
    /// locks are granted: the key locks freeze index membership, but a
    /// racing writer that held a candidate's row lock first may have
    /// changed its non-key columns before releasing — and history-union
    /// postings can be stale, which the same re-filter screens out.
    fn write_targets(
        &self,
        tx: u64,
        table: &str,
        pred: &Expr,
        plan: &AccessPlan,
    ) -> Result<Vec<(RowId, Row)>, EngineError> {
        let ids = self.plan_ids(tx, table, plan, Some((LockMode::IX, LockMode::X)))?;
        if ids.is_none() {
            self.lock_for_write_scan(tx, table)?;
        }
        let mut targets = Vec::new();
        {
            let _latch = self.engine.latch_token(table);
            let guard = self.snapshot.handle(table)?.read();
            let candidates: &mut dyn Iterator<Item = (RowId, &Row)> = match &ids {
                Some(ids) => &mut ids.iter().filter_map(|id| guard.get(*id).map(|r| (*id, r))),
                None => {
                    self.engine.note_scan(ScanStats {
                        rows_scanned: guard.len() as u64,
                        index_lookups: 0,
                    });
                    &mut guard.scan()
                }
            };
            for (id, row) in candidates {
                if pred
                    .eval_bool(&[row.as_slice()])
                    .map_err(|_| EngineError::Protocol("non-boolean WHERE"))?
                {
                    targets.push((id, row.clone()));
                }
            }
        }
        if ids.is_none() && self.engine.config.granularity == LockGranularity::Row {
            for (id, _) in &targets {
                self.lock(tx, Resource::row(table, id.0), LockMode::X)?;
            }
        }
        Ok(targets)
    }

    /// Execute one SELECT: lower once, plan once, acquire the plan's locks
    /// unless the attempt reads a pinned snapshot, evaluate on a view at
    /// the attempt's visibility, record, bind.
    fn select(&self, txn: &mut Txn, sel: &Select) -> Result<(), EngineError> {
        let config = &self.engine.config;
        let at = txn.snapshot;
        // Lowering and planning need schemas and index statistics only;
        // both read the live catalog whatever the attempt's visibility.
        let mut footprint = Vec::new();
        sel.collect_tables(&mut footprint);
        let (lowered, plan) = {
            let _latches = self.engine.latch_tokens(&footprint);
            let view = self.snapshot.read_view(&footprint);
            let lowered = lower_select(&view, sel, &txn.env)?;
            // Index-served plans are single-table. A locked attempt takes
            // one only where key locks exist (row granularity) and are
            // allowed to outlive the statement: EarlyReadLockRelease's
            // contract is statement-scoped table locks.
            let probing = at.is_some()
                || (config.granularity == LockGranularity::Row
                    && config.isolation != IsolationMode::EarlyReadLockRelease);
            let plan = match lowered.query.tables.as_slice() {
                [table] if probing => access_plan(&view, table, &lowered.query.predicate)?,
                _ => AccessPlan::Scan,
            };
            (lowered, plan)
        };
        let mut tables = lowered.query.tables.clone();
        tables.sort();
        tables.dedup();
        // An index-served locked read takes table IS + index-key S (every
        // in-range key plus the next key, for ranges) + row S on the
        // candidates instead of a table S lock, so probing readers pass
        // point writers on other rows. The key locks freeze index
        // membership (phantom protection the table S lock used to provide
        // — the successor lock closes the range-phantom hole); holding the
        // locks to commit keeps the read repeatable.
        let modes = at.is_none().then_some((LockMode::IS, LockMode::S));
        let ids = match tables.first() {
            Some(table) => self.plan_ids(txn.tx, table, &plan, modes)?,
            None => None,
        };
        let out = match &ids {
            // Candidates are already in hand (row-locked, or resolved at
            // the pin): evaluate the full predicate over them directly —
            // composite prefixes included, which the generic evaluator
            // cannot serve.
            Some(ids) => {
                let _latch = self.engine.latch_token(&tables[0]);
                let guard = self.snapshot.handle(&tables[0])?.read();
                let rows = ids
                    .iter()
                    .filter_map(|id| guard.row_at(*id, at).map(|r| (*id, r)));
                eval_spj_rows(&lowered.query, rows)?
            }
            None => {
                if at.is_none() {
                    for t in &tables {
                        self.lock(txn.tx, Resource::table(t), LockMode::S)?;
                    }
                }
                let _latches = self.engine.latch_tokens(&tables);
                let view = self.snapshot.read_view(&tables).at(at);
                let mut stats = ScanStats::default();
                let out = eval_spj_counted(&view, &lowered.query, &mut stats)?;
                self.engine.note_scan(stats);
                out
            }
        };
        if config.record_history {
            let recorder = &self.engine.recorder;
            match (at, &ids) {
                (Some(_), _) => tables
                    .iter()
                    .for_each(|t| recorder.snapshot_read(txn.tx, t)),
                (None, Some(ids)) => ids
                    .iter()
                    .for_each(|id| recorder.read_row(txn.tx, &tables[0], id.0)),
                (None, None) => tables.iter().for_each(|t| recorder.read(txn.tx, t)),
            }
        }
        // Bind host variables from the first row (MySQL-style
        // SELECT-into-variable semantics used by Appendix D).
        if let Some(row) = out.rows.first() {
            for (idx, var) in &lowered.bindings {
                txn.env.insert(var.clone(), row[*idx].clone());
            }
        }
        if at.is_none() && ids.is_none() && config.isolation == IsolationMode::EarlyReadLockRelease
        {
            for t in &tables {
                self.engine.locks.release(TxId(txn.tx), &Resource::table(t));
            }
        }
        Ok(())
    }

    /// Execute one UPDATE (`sets = Some`) or DELETE (`sets = None`): one
    /// target loop — key locks, heap mutation, redo, undo, history —
    /// parameterised by the row each target becomes.
    fn write_where(
        &self,
        txn: &mut Txn,
        table: &str,
        where_clause: &Cond,
        sets: Option<&[(String, Scalar)]>,
    ) -> Result<(), EngineError> {
        let config = &self.engine.config;
        let handle = self.snapshot.handle(table)?;
        // Resolve names once per statement: the predicate and every SET
        // scalar become index-bound expressions evaluated per row with no
        // further lookups.
        let (pred, set_exprs, plan, defs) = {
            let _latch = self.engine.latch_token(table);
            let view = self.snapshot.read_view(&[table]);
            let t = view.table(table)?;
            let pred = lower_table_cond(&view, table, where_clause, &txn.env)?;
            let set_exprs: Vec<(usize, Expr)> = sets
                .unwrap_or_default()
                .iter()
                .map(|(c, s)| {
                    let idx = t
                        .schema()
                        .index_of(c)
                        .ok_or_else(|| StorageError::NoSuchColumn {
                            table: table.to_string(),
                            column: c.clone(),
                        })?;
                    Ok((idx, lower_row_scalar(&view, table, s, &txn.env)?))
                })
                .collect::<Result<_, EngineError>>()?;
            let plan = match config.granularity {
                LockGranularity::Row => access_plan(&view, table, &pred)?,
                LockGranularity::Table => AccessPlan::Scan,
            };
            (pred, set_exprs, plan, index_defs(t))
        };
        for (id, old) in self.write_targets(txn.tx, table, &pred, &plan)? {
            let new: Option<Row> = match sets {
                None => None,
                Some(_) => {
                    let mut new = old.clone();
                    for (col, expr) in &set_exprs {
                        new[*col] = expr
                            .eval(&[old.as_slice()])
                            .map_err(|_| EngineError::Protocol("invalid arithmetic"))?;
                    }
                    Some(new)
                }
            };
            self.lock_index_keys_for_write(txn.tx, table, &defs, Some(&old), new.as_deref())?;
            {
                let _latch = self.engine.latch_token(table);
                let mut guard = handle.write();
                match &new {
                    Some(new) => guard.update(id, new.clone()).map_err(StorageError::from)?,
                    None => guard.delete(id),
                }
                .ok_or_else(|| StorageError::NoSuchRow {
                    table: table.to_string(),
                    row: id,
                })?;
            }
            let (tx, row, name) = (txn.tx, id.0, table.to_string());
            let (redo, undo) = match new {
                Some(after) => (
                    LogRecord::Update {
                        tx,
                        table: name.clone(),
                        row,
                        before: old.clone(),
                        after,
                    },
                    Undo::Update {
                        table: name,
                        row,
                        before: old,
                    },
                ),
                None => (
                    LogRecord::Delete {
                        tx,
                        table: name.clone(),
                        row,
                        before: old.clone(),
                    },
                    Undo::Delete {
                        table: name,
                        row,
                        before: old,
                    },
                ),
            };
            txn.redo.push(redo);
            txn.undo.push(undo);
            if config.record_history {
                let row = (config.granularity == LockGranularity::Row).then_some(id.0);
                self.engine.recorder.write(txn.tx, table, row);
            }
        }
        Ok(())
    }

    /// Execute one classical statement on behalf of `txn`.
    pub fn execute(&self, txn: &mut Txn, stmt: &Statement) -> Result<(), EngineError> {
        let config = &self.engine.config;
        // Snapshot attempts are read-only by construction (`Program::
        // is_read_only`); refuse anything that would mutate state (defense
        // in depth — the begin-time gate should make this unreachable).
        if txn.snapshot.is_some()
            && !matches!(stmt, Statement::Select(_) | Statement::SetVar { .. })
        {
            return Err(EngineError::Protocol("snapshot transactions are read-only"));
        }
        match stmt {
            Statement::Select(sel) => self.select(txn, sel),
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
                let (row, defs) = {
                    let _latch = self.engine.latch_token(table);
                    let guard = handle.read();
                    let row = build_insert_row(&guard, table, columns, values, &txn.env)?;
                    (row, index_defs(&guard))
                };
                // Key locks precede the heap insert: a point reader holding
                // key S must not see this row appear mid-transaction.
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
            } => self.write_where(txn, table, where_clause, Some(sets)),
            Statement::Delete {
                table,
                where_clause,
            } => self.write_where(txn, table, where_clause, None),
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

/// The named-index definitions of `t` (empty for unindexed tables — the
/// common case allocates nothing).
fn index_defs(t: &Table) -> Vec<IndexDef> {
    t.named_indexes()
        .iter()
        .map(|i| IndexDef {
            name: i.name().to_string(),
            columns: i.columns().to_vec(),
            kind: i.kind(),
        })
        .collect()
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
