//! Entanglement-aware crash recovery.
//!
//! Classical part: redo history, undo losers (ARIES-style passes over a
//! log-structured store — the log is the only durable artefact, so redo
//! rebuilds the data plane from DDL records forward).
//!
//! Entangled part (§4 "Persistence and Recovery" of the paper): *"if two
//! transactions entangle and only one manages to commit prior to a crash,
//! both must be rolled back during recovery."* Transactions that answered an
//! entangled query together form a group ([`LogRecord::EntangleGroup`]);
//! groups chain transitively through shared members. A transaction with a
//! durable `Commit` record is still a **loser** if any of its transitive
//! partners failed to commit — this is the widowed-transaction rule
//! projected onto recovery, and the fixpoint below implements it.

//! Sharded part: with per-shard log segments, a transaction (or entangled
//! group) straddling shards commits via a two-phase cross-shard record —
//! [`LogRecord::CrossPrepare`] durable on *every* participant segment is
//! the commit point, [`LogRecord::CrossCommit`] merely shortcuts the
//! participant consultation. [`recover_sharded`] resolves such in-doubt
//! units globally ([`resolve_cross_shard`]), then replays each shard's
//! segment in parallel with the resolution overlaid on its local analysis.

use crate::record::{CodecError, LogRecord, Lsn};
use std::collections::{BTreeMap, BTreeSet};
use youtopia_storage::{Database, RowId};

/// The result of recovery.
#[derive(Debug)]
pub struct RecoveryOutcome {
    /// The reconstructed database.
    pub db: Database,
    /// Transactions whose effects survived (among replayed records).
    pub winners: BTreeSet<u64>,
    /// Transactions rolled back (incl. entanglement-forced rollbacks).
    pub losers: BTreeSet<u64>,
    /// Transactions that had a durable `Commit` record but were rolled
    /// back because an entanglement partner did not commit. Non-empty only
    /// when the engine crashed between a member commit and its group
    /// commit.
    pub widowed_rollbacks: BTreeSet<u64>,
    /// Group-commit batch boundaries found in the replayed suffix — one
    /// [`LogRecord::CommitBatch`] per completed sync. Recovery sees each
    /// batch as a single durable boundary: a durable boundary implies every
    /// commit it names is durable too.
    pub durable_batches: usize,
    /// The checkpoint image recovery started from (`None` = no complete
    /// checkpoint in the prefix; full replay from the log head).
    pub checkpoint: Option<u64>,
    /// LSN of that checkpoint's begin marker.
    pub checkpoint_lsn: Option<Lsn>,
    /// Log records replayed after the base image — the O(delta) restart
    /// cost checkpointing bounds (O(history) without one).
    pub replayed: usize,
    /// Highest transaction id named anywhere in the durable prefix
    /// (0 if none). A restarted engine must allocate strictly past this,
    /// or fresh transactions would collide with durable history.
    pub max_tx: u64,
    /// Highest commit timestamp named anywhere in the durable prefix —
    /// by a `Commit` record's `ts` or a checkpoint begin marker's `ts`
    /// (0 if none). A restarted engine seals the recovered state as the
    /// committed versions at this timestamp and restarts the snapshot
    /// clock strictly past it, so post-restart snapshots never alias
    /// pre-crash history.
    pub max_commit_ts: u64,
}

/// Locate the last **complete** checkpoint image: the newest
/// [`LogRecord::CheckpointEnd`] whose matching [`LogRecord::Checkpoint`]
/// begin marker is also in the prefix. A checkpoint whose end marker was
/// torn off (crash mid-image) is skipped — recovery falls back to the
/// previous complete image, or to a full replay when none exists. Returns
/// `(begin_index, end_index, ckpt id)`.
fn last_complete_checkpoint(records: &[(Lsn, LogRecord)]) -> Option<(usize, usize, u64)> {
    let mut begins: BTreeMap<u64, usize> = BTreeMap::new();
    let mut complete = None;
    for (i, (_, rec)) in records.iter().enumerate() {
        match rec {
            LogRecord::Checkpoint { ckpt, .. } => {
                begins.insert(*ckpt, i);
            }
            LogRecord::CheckpointEnd { ckpt } => {
                if let Some(&b) = begins.get(ckpt) {
                    complete = Some((b, i, *ckpt));
                }
            }
            _ => {}
        }
    }
    complete
}

/// Highest transaction id named by one record (0 if none).
fn record_max_tx(rec: &LogRecord) -> u64 {
    match rec {
        LogRecord::Begin { tx }
        | LogRecord::Insert { tx, .. }
        | LogRecord::Delete { tx, .. }
        | LogRecord::Update { tx, .. }
        | LogRecord::Commit { tx, .. }
        | LogRecord::Abort { tx } => *tx,
        LogRecord::EntangleGroup { txs, .. }
        | LogRecord::CommitBatch { txs, .. }
        | LogRecord::CrossPrepare { txs, .. } => txs.iter().copied().max().unwrap_or(0),
        LogRecord::Checkpoint { active, .. } => active.iter().copied().max().unwrap_or(0),
        LogRecord::GroupCommit { .. }
        | LogRecord::CreateTable { .. }
        | LogRecord::CreateIndex { .. }
        | LogRecord::CheckpointTable { .. }
        | LogRecord::CheckpointEnd { .. }
        | LogRecord::CrossCommit { .. } => 0,
    }
}

/// The global verdict on cross-shard commit units, computed by
/// [`resolve_cross_shard`] and overlaid on each shard's local analysis:
/// members of a globally-committed unit count as winners even where the
/// local `Commit` record was torn off, and members of a globally-aborted
/// unit lose even where a local `Commit` record *is* durable (the unit's
/// prepare never became durable on every participant).
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct CrossResolution {
    /// Member transactions of units resolved committed.
    pub committed: BTreeSet<u64>,
    /// Member transactions of units resolved aborted.
    pub aborted: BTreeSet<u64>,
    /// Unit ids resolved committed.
    pub committed_xids: BTreeSet<u64>,
    /// Unit ids resolved aborted (in-doubt units whose prepare was torn
    /// off at least one participant segment).
    pub aborted_xids: BTreeSet<u64>,
}

/// Decide every cross-shard unit named in the given per-shard durable
/// logs. Unit `xid` is **committed** iff any segment holds a
/// [`LogRecord::CrossCommit`] for it, or every shard its
/// [`LogRecord::CrossPrepare`] names holds a durable prepare; otherwise it
/// is aborted. Index `i` of `logs` is shard `i`'s durable record stream.
pub fn resolve_cross_shard(logs: &[Vec<(Lsn, LogRecord)>]) -> CrossResolution {
    // xid -> (required participant shards, member transactions).
    let mut units: BTreeMap<u64, (BTreeSet<u64>, BTreeSet<u64>)> = BTreeMap::new();
    // xid -> shards whose segment holds a durable prepare.
    let mut prepared_on: BTreeMap<u64, BTreeSet<u64>> = BTreeMap::new();
    let mut cross_committed: BTreeSet<u64> = BTreeSet::new();
    for (i, log) in logs.iter().enumerate() {
        for (_, rec) in log {
            match rec {
                LogRecord::CrossPrepare { xid, txs, shards } => {
                    let e = units.entry(*xid).or_default();
                    e.0.extend(shards.iter().copied());
                    e.1.extend(txs.iter().copied());
                    prepared_on.entry(*xid).or_default().insert(i as u64);
                }
                LogRecord::CrossCommit { xid } => {
                    cross_committed.insert(*xid);
                }
                _ => {}
            }
        }
    }
    let mut res = CrossResolution::default();
    for (xid, (required, txs)) in units {
        let all_prepared = required
            .iter()
            .all(|s| prepared_on.get(&xid).is_some_and(|p| p.contains(s)));
        if cross_committed.contains(&xid) || all_prepared {
            res.committed.extend(txs);
            res.committed_xids.insert(xid);
        } else {
            res.aborted.extend(txs);
            res.aborted_xids.insert(xid);
        }
    }
    res
}

/// Run analysis, redo and undo over a durable log prefix.
///
/// With a complete checkpoint in the prefix, the base database is loaded
/// from the image's [`LogRecord::CheckpointTable`] records and only the
/// suffix after the image is replayed; restart cost is O(suffix), not
/// O(history). The image is transactionally consistent by the engine's
/// contract (written at a commit-batch boundary with no in-flight work in
/// the shared log), so no undo is needed for pre-checkpoint history.
///
/// Returns [`CodecError::Corrupt`] when the durable prefix is internally
/// inconsistent — e.g. a checkpoint image or redo record referencing
/// table state the log never established. A corrupt log is an operator
/// problem, not a panic.
pub fn recover(records: &[(Lsn, LogRecord)]) -> Result<RecoveryOutcome, CodecError> {
    recover_with(records, None)
}

/// [`recover`] with an optional cross-shard resolution overlay — the
/// per-shard leg of [`recover_sharded`]. The overlay is applied to the
/// local analysis before the entanglement fixpoint: globally-committed
/// members join the committed set (their `Commit` record may live only on
/// a partner segment, or have been torn off locally), globally-aborted
/// members are expelled from it (a durable local `Commit` does not count
/// when the unit's prepare was torn elsewhere).
pub fn recover_with(
    records: &[(Lsn, LogRecord)],
    cross: Option<&CrossResolution>,
) -> Result<RecoveryOutcome, CodecError> {
    // `max_tx` and `max_commit_ts` range over the WHOLE prefix (including
    // records before the checkpoint): tx-id allocation and the snapshot
    // clock must both clear everything durable.
    let max_tx = records
        .iter()
        .map(|(_, r)| record_max_tx(r))
        .max()
        .unwrap_or(0);
    let max_commit_ts = records
        .iter()
        .map(|(_, r)| match r {
            LogRecord::Commit { ts, .. } | LogRecord::Checkpoint { ts, .. } => *ts,
            _ => 0,
        })
        .max()
        .unwrap_or(0);

    // ---- Base image (last complete checkpoint, if any) ----
    let image = last_complete_checkpoint(records);
    let (mut db, suffix, checkpoint, checkpoint_lsn, mut seen) = match image {
        Some((begin, end, ckpt)) => {
            let mut db = Database::new();
            for (_, rec) in &records[begin..=end] {
                if let LogRecord::CheckpointTable {
                    ckpt: c,
                    name,
                    schema,
                    rows,
                } = rec
                {
                    if *c != ckpt {
                        continue;
                    }
                    db.create_or_replace_table(name, schema.clone());
                    let t = db
                        .table_mut(name)
                        .map_err(|_| CodecError::Corrupt("checkpoint image lost its own table"))?;
                    for (row, values) in rows {
                        let _ = t.insert_at(RowId(*row), values.clone());
                    }
                }
            }
            // Index definitions re-logged inside the image (second pass so
            // a definition never races its table's CheckpointTable record).
            // Creation rebuilds contents from the just-loaded heap.
            for (_, rec) in &records[begin..=end] {
                if let LogRecord::CreateIndex {
                    table,
                    name,
                    columns,
                    kind,
                } = rec
                {
                    let cols: Vec<&str> = columns.iter().map(|c| c.as_str()).collect();
                    if let Ok(t) = db.table_mut(table) {
                        let _ = t.create_named_index(name, &cols, *kind);
                    }
                }
            }
            // Fuzzy contract: transactions active at checkpoint time have
            // no effects in the image; they lose unless the suffix commits
            // them.
            let active: BTreeSet<u64> = match &records[begin].1 {
                LogRecord::Checkpoint { active, .. } => active.iter().copied().collect(),
                _ => BTreeSet::new(),
            };
            (
                db,
                &records[end + 1..],
                Some(ckpt),
                Some(records[begin].0),
                active,
            )
        }
        None => (Database::new(), records, None, None, BTreeSet::new()),
    };

    // ---- Analysis (suffix only) ----
    let mut committed: BTreeSet<u64> = BTreeSet::new();
    let mut groups: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    let mut durable_batches = 0usize;
    for (_, rec) in suffix {
        match rec {
            LogRecord::Begin { tx }
            | LogRecord::Insert { tx, .. }
            | LogRecord::Delete { tx, .. }
            | LogRecord::Update { tx, .. }
            | LogRecord::Abort { tx } => {
                seen.insert(*tx);
            }
            LogRecord::Commit { tx, .. } => {
                seen.insert(*tx);
                committed.insert(*tx);
            }
            LogRecord::EntangleGroup { group, txs } => {
                seen.extend(txs.iter().copied());
                groups
                    .entry(*group)
                    .or_default()
                    .extend(txs.iter().copied());
            }
            // A durable batch boundary confirms every commit it names: the
            // leader appends it after the named Commit records and before
            // the sync, so the batch is durable as one unit.
            LogRecord::CommitBatch { txs, .. } => {
                durable_batches += 1;
                seen.extend(txs.iter().copied());
                committed.extend(txs.iter().copied());
            }
            // Members of a cross-shard unit are known to this segment even
            // when their redo lives elsewhere; the overlay decides them.
            LogRecord::CrossPrepare { txs, .. } => {
                seen.extend(txs.iter().copied());
            }
            LogRecord::GroupCommit { .. }
            | LogRecord::CreateTable { .. }
            | LogRecord::CreateIndex { .. }
            | LogRecord::Checkpoint { .. }
            | LogRecord::CheckpointTable { .. }
            | LogRecord::CheckpointEnd { .. }
            | LogRecord::CrossCommit { .. } => {}
        }
    }

    // Cross-shard overlay: global verdicts supersede local evidence.
    if let Some(res) = cross {
        committed.extend(res.committed.iter().copied());
        for t in &res.aborted {
            committed.remove(t);
        }
    }

    // Entanglement fixpoint: a group with any non-winner member sinks all
    // of its members. Chains propagate through shared members.
    let mut winners = committed.clone();
    loop {
        let mut changed = false;
        for txs in groups.values() {
            if txs.iter().any(|t| !winners.contains(t)) {
                for t in txs {
                    changed |= winners.remove(t);
                }
            }
        }
        if !changed {
            break;
        }
    }
    let widowed_rollbacks: BTreeSet<u64> = committed.difference(&winners).copied().collect();
    let losers: BTreeSet<u64> = seen.difference(&winners).copied().collect();

    // ---- Redo (history since the image) ----
    for (_, rec) in suffix {
        match rec {
            LogRecord::CreateTable { name, schema } => {
                db.create_or_replace_table(name, schema.clone());
            }
            // Re-create the definition; the table's mutators keep its
            // contents current through the rest of redo and undo.
            LogRecord::CreateIndex {
                table,
                name,
                columns,
                kind,
            } if db.has_table(table) => {
                let cols: Vec<&str> = columns.iter().map(|c| c.as_str()).collect();
                let _ = db
                    .table_mut(table)
                    .map_err(|_| CodecError::Corrupt("redo/undo target table vanished"))?
                    .create_named_index(name, &cols, *kind);
            }
            LogRecord::Insert {
                table, row, values, ..
            } if db.has_table(table) => {
                let _ = db
                    .table_mut(table)
                    .map_err(|_| CodecError::Corrupt("redo/undo target table vanished"))?
                    .insert_at(RowId(*row), values.clone());
            }
            LogRecord::Delete { table, row, .. } if db.has_table(table) => {
                let _ = db
                    .table_mut(table)
                    .map_err(|_| CodecError::Corrupt("redo/undo target table vanished"))?
                    .delete(RowId(*row));
            }
            LogRecord::Update {
                table, row, after, ..
            } if db.has_table(table) => {
                let _ = db
                    .table_mut(table)
                    .map_err(|_| CodecError::Corrupt("redo/undo target table vanished"))?
                    .update(RowId(*row), after.clone());
            }
            _ => {}
        }
    }

    // ---- Undo (losers, in reverse order; losers have no pre-image
    // records by the checkpoint's consistency contract) ----
    for (_, rec) in suffix.iter().rev() {
        match rec {
            LogRecord::Insert { tx, table, row, .. }
                if losers.contains(tx) && db.has_table(table) =>
            {
                let _ = db
                    .table_mut(table)
                    .map_err(|_| CodecError::Corrupt("redo/undo target table vanished"))?
                    .delete(RowId(*row));
            }
            LogRecord::Delete {
                tx,
                table,
                row,
                before,
            } if losers.contains(tx) && db.has_table(table) => {
                let _ = db
                    .table_mut(table)
                    .map_err(|_| CodecError::Corrupt("redo/undo target table vanished"))?
                    .insert_at(RowId(*row), before.clone());
            }
            LogRecord::Update {
                tx,
                table,
                row,
                before,
                ..
            } if losers.contains(tx) && db.has_table(table) => {
                let _ = db
                    .table_mut(table)
                    .map_err(|_| CodecError::Corrupt("redo/undo target table vanished"))?
                    .update(RowId(*row), before.clone());
            }
            _ => {}
        }
    }

    // Redo/undo run through the table mutators, which defer index-posting
    // removal (history-union postings). A recovered database has no
    // in-flight readers pinning old versions, so settle the postings to
    // exactly the live heap before handing the database over.
    for name in db.table_names() {
        db.table_mut(&name)
            .map_err(|_| CodecError::Corrupt("recovered catalog lost a listed table"))?
            .resync_named_indexes();
    }

    Ok(RecoveryOutcome {
        db,
        winners,
        losers,
        widowed_rollbacks,
        durable_batches,
        checkpoint,
        checkpoint_lsn,
        replayed: suffix.len(),
        max_tx,
        max_commit_ts,
    })
}

/// The result of recovering a set of per-shard log segments.
#[derive(Debug)]
pub struct ShardedRecoveryOutcome {
    /// Per-shard outcomes, indexed by shard (winners, losers, widowed
    /// rollbacks, replay counts). Each one's `db` is **empty**: its
    /// tables were moved, not copied, into the merged [`Self::db`], so
    /// recovery never holds a table twice.
    pub shards: Vec<RecoveryOutcome>,
    /// The merged database (tables are disjoint across shards by the
    /// partitioning rule, so the merge is a union).
    pub db: Database,
    /// The cross-shard verdicts the per-shard replays were overlaid with.
    pub resolution: CrossResolution,
    /// Highest transaction id named on any segment.
    pub max_tx: u64,
    /// Highest commit timestamp named on any segment.
    pub max_commit_ts: u64,
}

/// Recover N per-shard log segments: resolve cross-shard in-doubt units
/// globally, then replay every shard **in parallel** (one thread per
/// shard) with the resolution overlaid on its local analysis, and merge
/// the per-shard partitions. With a single segment and no cross-shard
/// records this is exactly [`recover`].
pub fn recover_sharded(
    logs: &[Vec<(Lsn, LogRecord)>],
) -> Result<ShardedRecoveryOutcome, CodecError> {
    let resolution = resolve_cross_shard(logs);
    let mut slots: Vec<Option<Result<RecoveryOutcome, CodecError>>> = Vec::new();
    slots.resize_with(logs.len(), || None);
    std::thread::scope(|scope| {
        for (log, slot) in logs.iter().zip(slots.iter_mut()) {
            let res = &resolution;
            scope.spawn(move || {
                *slot = Some(recover_with(log, Some(res)));
            });
        }
    });
    let mut shards: Vec<RecoveryOutcome> = Vec::with_capacity(slots.len());
    for slot in slots {
        let out = slot.ok_or(CodecError::Corrupt("shard recovery produced no outcome"))??;
        shards.push(out);
    }
    let mut db = Database::new();
    for out in &mut shards {
        for t in std::mem::take(&mut out.db).into_tables() {
            db.adopt_table(t);
        }
    }
    let max_tx = shards.iter().map(|s| s.max_tx).max().unwrap_or(0);
    let max_commit_ts = shards.iter().map(|s| s.max_commit_ts).max().unwrap_or(0);
    Ok(ShardedRecoveryOutcome {
        shards,
        db,
        resolution,
        max_tx,
        max_commit_ts,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::Wal;
    use youtopia_storage::{Schema, Value, ValueType};

    fn setup_wal() -> Wal {
        let wal = Wal::new();
        wal.append(&LogRecord::CreateTable {
            name: "Reserve".into(),
            schema: Schema::of(&[("uid", ValueType::Int), ("fid", ValueType::Int)]),
        });
        wal
    }

    fn insert(wal: &Wal, tx: u64, row: u64, uid: i64, fid: i64) {
        wal.append(&LogRecord::Insert {
            tx,
            table: "Reserve".into(),
            row,
            values: vec![Value::Int(uid), Value::Int(fid)],
        });
    }

    #[test]
    fn committed_work_survives() {
        let wal = setup_wal();
        wal.append(&LogRecord::Begin { tx: 1 });
        insert(&wal, 1, 0, 10, 122);
        wal.append_sync(&LogRecord::Commit { tx: 1, ts: 0 });
        wal.crash();
        let out = recover(&wal.durable_records().unwrap()).unwrap();
        assert_eq!(out.db.table("Reserve").unwrap().len(), 1);
        assert!(out.winners.contains(&1));
        assert!(out.losers.is_empty());
    }

    #[test]
    fn uncommitted_work_rolled_back() {
        let wal = setup_wal();
        wal.append(&LogRecord::Begin { tx: 1 });
        insert(&wal, 1, 0, 10, 122);
        wal.sync(); // data durable, commit record not
        wal.crash();
        let out = recover(&wal.durable_records().unwrap()).unwrap();
        assert_eq!(out.db.table("Reserve").unwrap().len(), 0);
        assert!(out.losers.contains(&1));
    }

    #[test]
    fn updates_and_deletes_undone_with_before_images() {
        let wal = setup_wal();
        // t1 commits an insert.
        wal.append(&LogRecord::Begin { tx: 1 });
        insert(&wal, 1, 0, 10, 122);
        wal.append(&LogRecord::Commit { tx: 1, ts: 0 });
        // t2 updates then deletes, but never commits.
        wal.append(&LogRecord::Begin { tx: 2 });
        wal.append(&LogRecord::Update {
            tx: 2,
            table: "Reserve".into(),
            row: 0,
            before: vec![Value::Int(10), Value::Int(122)],
            after: vec![Value::Int(10), Value::Int(999)],
        });
        wal.append(&LogRecord::Delete {
            tx: 2,
            table: "Reserve".into(),
            row: 0,
            before: vec![Value::Int(10), Value::Int(999)],
        });
        wal.sync();
        wal.crash();
        let out = recover(&wal.durable_records().unwrap()).unwrap();
        let t = out.db.table("Reserve").unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(
            t.get(RowId(0)).unwrap(),
            &vec![Value::Int(10), Value::Int(122)]
        );
    }

    #[test]
    fn widowed_commit_rolled_back_with_partner() {
        // The paper's rule: t1 and t2 entangled; t1's commit is durable but
        // t2 never committed → recovery rolls BOTH back.
        let wal = setup_wal();
        wal.append(&LogRecord::Begin { tx: 1 });
        wal.append(&LogRecord::Begin { tx: 2 });
        wal.append(&LogRecord::EntangleGroup {
            group: 1,
            txs: vec![1, 2],
        });
        insert(&wal, 1, 0, 10, 122);
        insert(&wal, 2, 1, 20, 122);
        wal.append_sync(&LogRecord::Commit { tx: 1, ts: 0 });
        wal.crash(); // t2's commit never happened
        let out = recover(&wal.durable_records().unwrap()).unwrap();
        assert_eq!(
            out.db.table("Reserve").unwrap().len(),
            0,
            "both rolled back"
        );
        assert_eq!(out.widowed_rollbacks, BTreeSet::from([1]));
        assert_eq!(out.losers, BTreeSet::from([1, 2]));
    }

    #[test]
    fn whole_group_commit_survives() {
        let wal = setup_wal();
        wal.append(&LogRecord::EntangleGroup {
            group: 1,
            txs: vec![1, 2],
        });
        insert(&wal, 1, 0, 10, 122);
        insert(&wal, 2, 1, 20, 122);
        wal.append(&LogRecord::Commit { tx: 1, ts: 0 });
        wal.append(&LogRecord::Commit { tx: 2, ts: 0 });
        wal.append_sync(&LogRecord::GroupCommit { group: 1 });
        wal.crash();
        let out = recover(&wal.durable_records().unwrap()).unwrap();
        assert_eq!(out.db.table("Reserve").unwrap().len(), 2);
        assert_eq!(out.winners, BTreeSet::from([1, 2]));
        assert!(out.widowed_rollbacks.is_empty());
    }

    #[test]
    fn transitive_group_rollback_chains() {
        // Groups {1,2} and {2,3}: if 3 is unresolved, 2 sinks, then 1 sinks.
        let wal = setup_wal();
        wal.append(&LogRecord::EntangleGroup {
            group: 1,
            txs: vec![1, 2],
        });
        wal.append(&LogRecord::EntangleGroup {
            group: 2,
            txs: vec![2, 3],
        });
        insert(&wal, 1, 0, 1, 1);
        insert(&wal, 2, 1, 2, 2);
        insert(&wal, 3, 2, 3, 3);
        wal.append(&LogRecord::Commit { tx: 1, ts: 0 });
        wal.append_sync(&LogRecord::Commit { tx: 2, ts: 0 });
        wal.crash(); // 3 never committed
        let out = recover(&wal.durable_records().unwrap()).unwrap();
        assert_eq!(out.db.table("Reserve").unwrap().len(), 0);
        assert_eq!(out.losers, BTreeSet::from([1, 2, 3]));
        assert_eq!(out.widowed_rollbacks, BTreeSet::from([1, 2]));
    }

    #[test]
    fn independent_transactions_unaffected_by_group_rollback() {
        let wal = setup_wal();
        wal.append(&LogRecord::EntangleGroup {
            group: 1,
            txs: vec![1, 2],
        });
        insert(&wal, 1, 0, 1, 1);
        insert(&wal, 3, 1, 3, 3); // classical bystander
        wal.append(&LogRecord::Commit { tx: 1, ts: 0 });
        wal.append_sync(&LogRecord::Commit { tx: 3, ts: 0 });
        wal.crash();
        let out = recover(&wal.durable_records().unwrap()).unwrap();
        let t = out.db.table("Reserve").unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(RowId(1)).unwrap()[0], Value::Int(3));
        assert!(out.winners.contains(&3));
        assert!(!out.winners.contains(&1));
    }

    #[test]
    fn commit_batch_confirms_its_commits_and_counts_boundaries() {
        // The group-commit pipeline's shape: each member publishes
        // [Begin, writes, Commit] contiguously, the sync leader bounds the
        // batch with CommitBatch before syncing.
        let wal = setup_wal();
        wal.append(&LogRecord::Begin { tx: 1 });
        insert(&wal, 1, 0, 10, 122);
        wal.append(&LogRecord::Commit { tx: 1, ts: 0 });
        wal.append(&LogRecord::CommitBatch {
            batch: 1,
            txs: vec![1],
        });
        wal.sync();
        wal.crash();
        let out = recover(&wal.durable_records().unwrap()).unwrap();
        assert_eq!(out.durable_batches, 1);
        assert!(out.winners.contains(&1));
        assert_eq!(out.db.table("Reserve").unwrap().len(), 1);
    }

    #[test]
    fn crash_inside_a_batch_keeps_group_atomicity() {
        // Entangled pair published in one batch; the torn tail cuts after
        // member 1's commit but before member 2's. The EntangleGroup record
        // precedes both commits, so recovery must sink the whole group.
        let wal = setup_wal();
        wal.append(&LogRecord::Begin { tx: 1 });
        insert(&wal, 1, 0, 10, 122);
        wal.append(&LogRecord::Begin { tx: 2 });
        insert(&wal, 2, 1, 20, 122);
        wal.append(&LogRecord::EntangleGroup {
            group: 1,
            txs: vec![1, 2],
        });
        wal.append(&LogRecord::Commit { tx: 1, ts: 0 });
        wal.sync(); // crash point: inside the batch, before Commit{2}
        wal.append(&LogRecord::Commit { tx: 2, ts: 0 });
        wal.append(&LogRecord::CommitBatch {
            batch: 1,
            txs: vec![1, 2],
        });
        wal.crash();
        let out = recover(&wal.durable_records().unwrap()).unwrap();
        assert_eq!(
            out.db.table("Reserve").unwrap().len(),
            0,
            "no durable widow"
        );
        assert_eq!(out.widowed_rollbacks, BTreeSet::from([1]));
        assert_eq!(out.durable_batches, 0, "the batch boundary was torn off");
    }

    #[test]
    fn empty_log_recovers_to_empty_db() {
        let out = recover(&[]).unwrap();
        assert!(out.db.table_names().is_empty());
        assert!(out.winners.is_empty());
        assert!(out.losers.is_empty());
        assert_eq!(out.checkpoint, None);
        assert_eq!(out.max_tx, 0);
        assert_eq!(out.replayed, 0);
    }

    /// A full checkpoint image for one `Reserve` table with the given rows.
    fn image(wal: &Wal, ckpt: u64, rows: Vec<(u64, Vec<Value>)>) {
        wal.append(&LogRecord::Checkpoint {
            ckpt,
            active: vec![],
            ts: 0,
        });
        wal.append(&LogRecord::CheckpointTable {
            ckpt,
            name: "Reserve".into(),
            schema: Schema::of(&[("uid", ValueType::Int), ("fid", ValueType::Int)]),
            rows,
        });
        wal.append(&LogRecord::CheckpointEnd { ckpt });
    }

    #[test]
    fn recovery_starts_from_last_complete_checkpoint() {
        let wal = Wal::new();
        // Pre-checkpoint history that must NOT be replayed (tx 1 would
        // insert row 0; the image supersedes it with different contents).
        wal.append(&LogRecord::Begin { tx: 1 });
        insert(&wal, 1, 0, 1, 1);
        wal.append(&LogRecord::Commit { tx: 1, ts: 0 });
        image(&wal, 1, vec![(0, vec![Value::Int(99), Value::Int(122)])]);
        // Post-checkpoint suffix: tx 2 commits another row.
        wal.append(&LogRecord::Begin { tx: 2 });
        insert(&wal, 2, 1, 20, 123);
        wal.append_sync(&LogRecord::Commit { tx: 2, ts: 0 });
        wal.crash();
        let out = recover(&wal.durable_records().unwrap()).unwrap();
        assert_eq!(out.checkpoint, Some(1));
        assert_eq!(out.replayed, 3, "only the suffix is replayed");
        assert_eq!(out.max_tx, 2);
        let t = out.db.table("Reserve").unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(
            t.get(RowId(0)).unwrap(),
            &vec![Value::Int(99), Value::Int(122)],
            "the image, not the pre-checkpoint history, is the base"
        );
        assert!(out.winners.contains(&2));
    }

    #[test]
    fn torn_checkpoint_falls_back_to_previous_image() {
        let wal = Wal::new();
        image(&wal, 1, vec![(0, vec![Value::Int(1), Value::Int(122)])]);
        // Suffix after the first image.
        wal.append(&LogRecord::Begin { tx: 5 });
        insert(&wal, 5, 1, 2, 123);
        wal.append(&LogRecord::Commit { tx: 5, ts: 0 });
        // Second checkpoint begins but its end marker is torn off.
        wal.append(&LogRecord::Checkpoint {
            ckpt: 2,
            active: vec![],
            ts: 0,
        });
        wal.append(&LogRecord::CheckpointTable {
            ckpt: 2,
            name: "Reserve".into(),
            schema: Schema::of(&[("uid", ValueType::Int), ("fid", ValueType::Int)]),
            rows: vec![(7, vec![Value::Int(777), Value::Int(7)])],
        });
        wal.sync();
        wal.append(&LogRecord::CheckpointEnd { ckpt: 2 }); // lost in the crash
        wal.crash();
        let out = recover(&wal.durable_records().unwrap()).unwrap();
        assert_eq!(out.checkpoint, Some(1), "torn image 2 skipped");
        let t = out.db.table("Reserve").unwrap();
        assert_eq!(t.len(), 2, "image 1 + replayed tx 5");
        assert!(t.get(RowId(7)).is_none(), "torn image contributes nothing");
        assert!(out.winners.contains(&5));
    }

    #[test]
    fn checkpoint_active_transactions_lose_unless_suffix_commits_them() {
        let wal = Wal::new();
        wal.append(&LogRecord::Checkpoint {
            ckpt: 1,
            active: vec![3, 4],
            ts: 0,
        });
        wal.append(&LogRecord::CheckpointEnd { ckpt: 1 });
        wal.append_sync(&LogRecord::Commit { tx: 4, ts: 0 });
        wal.crash();
        let out = recover(&wal.durable_records().unwrap()).unwrap();
        assert!(
            out.losers.contains(&3),
            "active at checkpoint, never committed"
        );
        assert!(out.winners.contains(&4), "committed in the suffix");
        assert_eq!(out.max_tx, 4);
    }

    #[test]
    fn recovery_after_truncation_replays_only_the_retained_suffix() {
        let wal = setup_wal();
        wal.append(&LogRecord::Begin { tx: 1 });
        insert(&wal, 1, 0, 10, 122);
        wal.append(&LogRecord::Commit { tx: 1, ts: 0 });
        // Checkpoint the committed state, sync, truncate to the image.
        let begin = wal.append(&LogRecord::Checkpoint {
            ckpt: 1,
            active: vec![],
            ts: 0,
        });
        wal.append(&LogRecord::CheckpointTable {
            ckpt: 1,
            name: "Reserve".into(),
            schema: Schema::of(&[("uid", ValueType::Int), ("fid", ValueType::Int)]),
            rows: vec![(0, vec![Value::Int(10), Value::Int(122)])],
        });
        wal.append(&LogRecord::CheckpointEnd { ckpt: 1 });
        wal.sync();
        let dropped = wal.truncate_prefix(begin);
        assert!(dropped > 0);
        // Post-truncation traffic.
        wal.append(&LogRecord::Begin { tx: 2 });
        insert(&wal, 2, 1, 20, 123);
        wal.append_sync(&LogRecord::Commit { tx: 2, ts: 0 });
        wal.crash();
        let records = wal.durable_records().unwrap();
        assert_eq!(records[0].0, begin, "log head is the checkpoint begin LSN");
        let out = recover(&records).unwrap();
        assert_eq!(out.checkpoint, Some(1));
        assert_eq!(out.checkpoint_lsn, Some(begin));
        assert_eq!(out.db.table("Reserve").unwrap().len(), 2);
        assert_eq!(out.max_tx, 2);
    }

    #[test]
    fn index_definition_recovered_and_contents_rebuilt_from_heap() {
        use youtopia_storage::IndexKind;
        let wal = setup_wal();
        wal.append(&LogRecord::CreateIndex {
            table: "Reserve".into(),
            name: "reserve_uid".into(),
            columns: vec!["uid".into()],
            kind: IndexKind::Hash,
        });
        wal.append(&LogRecord::Begin { tx: 1 });
        insert(&wal, 1, 0, 10, 122);
        insert(&wal, 1, 1, 20, 122);
        wal.append_sync(&LogRecord::Commit { tx: 1, ts: 0 });
        // Loser traffic whose undo must also keep the index coherent.
        wal.append(&LogRecord::Begin { tx: 2 });
        insert(&wal, 2, 2, 30, 123);
        wal.sync();
        wal.crash();
        let out = recover(&wal.durable_records().unwrap()).unwrap();
        let t = out.db.table("Reserve").unwrap();
        let idx = t.named_indexes().get("reserve_uid").unwrap();
        assert_eq!(idx.probe(&Value::Int(10)), &[RowId(0)]);
        assert_eq!(idx.probe(&Value::Int(20)), &[RowId(1)]);
        assert!(idx.probe(&Value::Int(30)).is_empty(), "loser undone");
    }

    #[test]
    fn index_definition_survives_truncation_via_checkpoint_image() {
        use youtopia_storage::IndexKind;
        let wal = setup_wal();
        wal.append(&LogRecord::CreateIndex {
            table: "Reserve".into(),
            name: "reserve_uid".into(),
            columns: vec!["uid".into()],
            kind: IndexKind::Btree,
        });
        wal.append(&LogRecord::Begin { tx: 1 });
        insert(&wal, 1, 0, 10, 122);
        wal.append(&LogRecord::Commit { tx: 1, ts: 0 });
        // The checkpoint image re-logs the definition after the table.
        let begin = wal.append(&LogRecord::Checkpoint {
            ckpt: 1,
            active: vec![],
            ts: 0,
        });
        wal.append(&LogRecord::CheckpointTable {
            ckpt: 1,
            name: "Reserve".into(),
            schema: Schema::of(&[("uid", ValueType::Int), ("fid", ValueType::Int)]),
            rows: vec![(0, vec![Value::Int(10), Value::Int(122)])],
        });
        wal.append(&LogRecord::CreateIndex {
            table: "Reserve".into(),
            name: "reserve_uid".into(),
            columns: vec!["uid".into()],
            kind: IndexKind::Btree,
        });
        wal.append(&LogRecord::CheckpointEnd { ckpt: 1 });
        wal.sync();
        // Truncation drops the original CreateIndex record entirely.
        assert!(wal.truncate_prefix(begin) > 0);
        wal.append(&LogRecord::Begin { tx: 2 });
        insert(&wal, 2, 1, 20, 123);
        wal.append_sync(&LogRecord::Commit { tx: 2, ts: 0 });
        wal.crash();
        let out = recover(&wal.durable_records().unwrap()).unwrap();
        let t = out.db.table("Reserve").unwrap();
        let idx = t.named_indexes().get("reserve_uid").unwrap();
        assert_eq!(idx.kind(), IndexKind::Btree);
        assert_eq!(idx.probe(&Value::Int(10)), &[RowId(0)]);
        assert_eq!(idx.probe(&Value::Int(20)), &[RowId(1)], "suffix maintained");
    }

    /// Shard 0 owns `Reserve`, shard 1 owns `Hotels`; one cross-shard
    /// transaction `tx` inserts a row on each. Returns the two logs with
    /// everything up to and including the prepares durable on shards where
    /// `sync[i]` is true (the `CrossCommit` shortcut records are appended
    /// un-synced, as the engine does).
    fn cross_shard_logs(sync: [bool; 2]) -> [Wal; 2] {
        let w0 = Wal::new();
        let w1 = Wal::new();
        w0.append(&LogRecord::CreateTable {
            name: "Reserve".into(),
            schema: Schema::of(&[("uid", ValueType::Int), ("fid", ValueType::Int)]),
        });
        w1.append(&LogRecord::CreateTable {
            name: "Hotels".into(),
            schema: Schema::of(&[("hid", ValueType::Int), ("city", ValueType::Int)]),
        });
        w0.sync();
        w1.sync();
        let prep = LogRecord::CrossPrepare {
            xid: 1,
            txs: vec![7],
            shards: vec![0, 1],
        };
        insert(&w0, 7, 0, 10, 122);
        w0.append(&prep);
        w0.append(&LogRecord::Commit { tx: 7, ts: 5 });
        w1.append(&LogRecord::Insert {
            tx: 7,
            table: "Hotels".into(),
            row: 0,
            values: vec![Value::Int(3), Value::Int(9)],
        });
        w1.append(&prep);
        w1.append(&LogRecord::Commit { tx: 7, ts: 5 });
        if sync[0] {
            w0.sync();
        }
        if sync[1] {
            w1.sync();
        }
        // Phase two: the shortcut record, never force-synced.
        w0.append(&LogRecord::CrossCommit { xid: 1 });
        w1.append(&LogRecord::CrossCommit { xid: 1 });
        w0.crash();
        w1.crash();
        [w0, w1]
    }

    fn durable(logs: &[Wal]) -> Vec<Vec<(Lsn, LogRecord)>> {
        logs.iter().map(|w| w.durable_records().unwrap()).collect()
    }

    #[test]
    fn cross_shard_unit_commits_when_every_prepare_is_durable() {
        let logs = cross_shard_logs([true, true]);
        let out = recover_sharded(&durable(&logs)).unwrap();
        assert_eq!(out.resolution.committed_xids, BTreeSet::from([1]));
        assert_eq!(out.db.table("Reserve").unwrap().len(), 1);
        assert_eq!(out.db.table("Hotels").unwrap().len(), 1);
        assert!(out.shards[0].winners.contains(&7));
        assert!(out.shards[1].winners.contains(&7));
        assert_eq!(out.max_tx, 7);
        assert_eq!(out.max_commit_ts, 5);
    }

    #[test]
    fn torn_prepare_on_one_shard_aborts_the_unit_everywhere() {
        // Shard 0's prepare AND local commit are durable; shard 1's tail
        // (prepare + commit) was torn off. Without the global resolution,
        // shard 0 would keep a half-committed unit.
        let logs = cross_shard_logs([true, false]);
        let out = recover_sharded(&durable(&logs)).unwrap();
        assert_eq!(out.resolution.aborted_xids, BTreeSet::from([1]));
        assert_eq!(
            out.db.table("Reserve").unwrap().len(),
            0,
            "durable local Commit overridden by the missing partner prepare"
        );
        assert_eq!(out.db.table("Hotels").unwrap().len(), 0);
        assert!(out.shards[0].losers.contains(&7));
    }

    #[test]
    fn cross_commit_shortcut_decides_unit_when_partner_log_truncated() {
        // Shard 0 checkpointed and truncated its segment past the prepare
        // (its image already contains the unit's effects); shard 1 still
        // holds its prepare. The durable CrossCommit on shard 1 must keep
        // the unit committed — consulting shard 0 would find nothing.
        let w0 = Wal::new();
        let w1 = Wal::new();
        w1.append(&LogRecord::CreateTable {
            name: "Hotels".into(),
            schema: Schema::of(&[("hid", ValueType::Int), ("city", ValueType::Int)]),
        });
        w1.append(&LogRecord::Insert {
            tx: 7,
            table: "Hotels".into(),
            row: 0,
            values: vec![Value::Int(3), Value::Int(9)],
        });
        w1.append(&LogRecord::CrossPrepare {
            xid: 1,
            txs: vec![7],
            shards: vec![0, 1],
        });
        w1.append(&LogRecord::Commit { tx: 7, ts: 5 });
        w1.append(&LogRecord::CrossCommit { xid: 1 });
        w1.sync();
        w1.crash();
        let out = recover_sharded(&durable(&[w0, w1])).unwrap();
        assert_eq!(out.resolution.committed_xids, BTreeSet::from([1]));
        assert_eq!(out.db.table("Hotels").unwrap().len(), 1);
    }

    #[test]
    fn entangled_group_straddling_shards_sinks_as_a_unit() {
        // Group {1, 2}: tx 1 writes shard 0, tx 2 writes shard 1. The
        // EntangleGroup record names the full membership on both segments;
        // shard 1's prepare is torn off, so BOTH members must roll back —
        // the widowed-transaction rule across segments.
        let w0 = setup_wal();
        let w1 = Wal::new();
        w1.append(&LogRecord::CreateTable {
            name: "Hotels".into(),
            schema: Schema::of(&[("hid", ValueType::Int), ("city", ValueType::Int)]),
        });
        w0.sync();
        w1.sync();
        let eg = LogRecord::EntangleGroup {
            group: 1,
            txs: vec![1, 2],
        };
        let prep = LogRecord::CrossPrepare {
            xid: 9,
            txs: vec![1, 2],
            shards: vec![0, 1],
        };
        insert(&w0, 1, 0, 10, 122);
        w0.append(&eg);
        w0.append(&prep);
        w0.append(&LogRecord::Commit { tx: 1, ts: 4 });
        w0.append(&LogRecord::Commit { tx: 2, ts: 4 });
        w0.sync();
        w1.append(&LogRecord::Insert {
            tx: 2,
            table: "Hotels".into(),
            row: 0,
            values: vec![Value::Int(3), Value::Int(9)],
        });
        w1.append(&eg);
        w1.append(&prep); // torn off below
        w0.crash();
        w1.crash();
        let out = recover_sharded(&durable(&[w0, w1])).unwrap();
        assert_eq!(out.resolution.aborted_xids, BTreeSet::from([9]));
        assert_eq!(out.db.table("Reserve").unwrap().len(), 0, "no widow");
        assert_eq!(out.db.table("Hotels").unwrap().len(), 0);
        assert!(out.shards[0].losers.contains(&1));
        assert!(out.shards[0].losers.contains(&2));
    }

    #[test]
    fn single_segment_recover_sharded_matches_plain_recover() {
        let wal = setup_wal();
        wal.append(&LogRecord::Begin { tx: 1 });
        insert(&wal, 1, 0, 10, 122);
        wal.append_sync(&LogRecord::Commit { tx: 1, ts: 2 });
        wal.crash();
        let records = wal.durable_records().unwrap();
        let plain = recover(&records).unwrap();
        let sharded = recover_sharded(std::slice::from_ref(&records)).unwrap();
        assert_eq!(sharded.shards.len(), 1);
        assert_eq!(sharded.db.canonical(), plain.db.canonical());
        assert_eq!(sharded.shards[0].winners, plain.winners);
        assert_eq!(sharded.max_tx, plain.max_tx);
        assert_eq!(sharded.max_commit_ts, plain.max_commit_ts);
        assert!(sharded.resolution.committed_xids.is_empty());
    }

    #[test]
    fn explicit_abort_is_a_loser_without_widow_status() {
        let wal = setup_wal();
        wal.append(&LogRecord::Begin { tx: 1 });
        insert(&wal, 1, 0, 1, 1);
        wal.append_sync(&LogRecord::Abort { tx: 1 });
        wal.crash();
        let out = recover(&wal.durable_records().unwrap()).unwrap();
        assert_eq!(out.db.table("Reserve").unwrap().len(), 0);
        assert!(out.losers.contains(&1));
        assert!(out.widowed_rollbacks.is_empty());
    }
}
