//! Heap tables: slot-addressed in-memory row storage with stable [`RowId`]s,
//! plus named secondary indexes maintained on mutation.
//!
//! `RowId`s are never reused within a table's lifetime, so WAL records and
//! lock-manager resources can refer to them stably across
//! insert/delete/update sequences — the property ARIES-style undo/redo and
//! row-granularity locking both depend on.

use crate::index::{IndexKind, IndexSet};
use crate::mvcc::{CommitTs, VersionChain};
use crate::schema::{Schema, SchemaError};
use crate::value::Value;
use std::fmt;

/// Stable identifier of a row within one table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RowId(pub u64);

impl fmt::Display for RowId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// A stored row.
pub type Row = Vec<Value>;

/// An in-memory heap table.
///
/// Two read paths share the slot array's `RowId` space:
///
/// * the **working state** (`slots`) — what locked execution reads and
///   mutates in place; a transaction sees its own uncommitted writes here,
///   protected by its 2PL locks;
/// * the **committed history** (`chains`, parallel to `slots`) — per-row
///   [`VersionChain`]s that only ever receive values at commit time
///   ([`Table::install_version`]) and serve lock-free snapshot reads
///   ([`Table::visible_row`]).
///
/// A reader picks one with the `at` argument of [`Table::row_at`] (and
/// [`Table::scan`] vs [`Table::snapshot_scan`] for whole-table walks):
/// `None` is the working state, `Some(ts)` the history as of commit
/// timestamp `ts`.
#[derive(Debug, Clone)]
pub struct Table {
    name: String,
    schema: Schema,
    /// Slot array; `None` marks a deleted row (tombstone). Index = RowId.
    slots: Vec<Option<Row>>,
    live: usize,
    /// Named secondary indexes (`CREATE INDEX`), maintained as a
    /// *history-union superset* of the heap: every mutating method below
    /// posts new keys inside the same critical section that touches
    /// `slots`, but postings for removed or re-keyed rows linger until
    /// [`Table::resync_named_indexes`] (vacuum) reclaims them. The slack is
    /// what lets snapshot readers probe the live index for rows whose
    /// working state has moved on; every probe consumer re-checks
    /// liveness/visibility and the key predicate.
    named: IndexSet,
    /// Stale-posting candidates: `(row id, superseded value)` for every
    /// value a row stopped holding since the last resync — a delete, a
    /// re-keying update, an `insert_at` overwrite, a pruned or displaced
    /// version. Every posting that is neither in the heap nor in a
    /// retained version is covered by a candidate here, which is what lets
    /// [`Table::resync_named_indexes`] visit only these instead of
    /// rebuilding. Empty while the table has no named index.
    stale_postings: Vec<(RowId, Row)>,
    /// Committed version history per slot (grown lazily; a slot with no
    /// chain has no committed versions yet). Index = RowId.
    chains: Vec<VersionChain>,
    /// Vacuum's work-list: exactly the slots whose chain is
    /// [`VersionChain::reclaimable`]. A chain off the list holds at most
    /// one live value, which no future horizon can reclaim, so
    /// [`Table::prune_versions`] never needs to look at it.
    prune_list: Vec<RowId>,
}

impl Table {
    pub fn new(name: impl Into<String>, schema: Schema) -> Table {
        Table {
            name: name.into(),
            schema,
            slots: Vec::new(),
            live: 0,
            named: IndexSet::default(),
            stale_postings: Vec::new(),
            chains: Vec::new(),
            prune_list: Vec::new(),
        }
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of live (non-deleted) rows.
    pub fn len(&self) -> usize {
        self.live
    }

    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Declare a named secondary index over one or more columns and
    /// backfill it from the current heap and retained version history.
    /// Idempotent for an identical definition (returns `false`); a name
    /// clash with a different definition is an error.
    pub fn create_named_index(
        &mut self,
        name: &str,
        columns: &[&str],
        kind: IndexKind,
    ) -> Result<bool, SchemaError> {
        let cols: Vec<usize> = columns
            .iter()
            .map(|c| {
                self.schema
                    .index_of(c)
                    .ok_or_else(|| SchemaError::DuplicateColumn(format!("unknown column {c}")))
            })
            .collect::<Result<_, _>>()?;
        let created = self
            .named
            .create(
                name,
                cols,
                columns.iter().map(|c| c.to_string()).collect(),
                kind,
            )
            .map_err(SchemaError::DuplicateColumn)?;
        if created {
            self.rebuild_named_indexes();
        }
        Ok(created)
    }

    /// The table's named secondary indexes.
    pub fn named_indexes(&self) -> &IndexSet {
        &self.named
    }

    /// Rebuild every named index's contents from scratch: the live heap
    /// plus every retained committed version — the history-union postings
    /// snapshot readers probe (recovery, index creation; normal execution
    /// and vacuum maintain incrementally).
    pub fn rebuild_named_indexes(&mut self) {
        self.stale_postings.clear();
        if self.named.is_empty() {
            return;
        }
        let slots = &self.slots;
        self.named.rebuild(
            slots
                .iter()
                .enumerate()
                .filter_map(|(i, s)| s.as_ref().map(|r| (RowId(i as u64), r))),
        );
        for (i, chain) in self.chains.iter().enumerate() {
            for row in chain.version_rows() {
                self.named.insert_row(RowId(i as u64), row);
            }
        }
    }

    /// Reclaim stale named-index postings. Called by vacuum, after version
    /// pruning, so postings converge back to exactly the heap ∪ retained
    /// history — at a cost proportional to the mutations since the last
    /// call, not to the table: each recorded candidate's posting is
    /// removed from an index iff neither the row's heap value nor any
    /// retained version of it still carries that key. Returns whether
    /// there was any candidate to check.
    pub fn resync_named_indexes(&mut self) -> bool {
        let any = !self.stale_postings.is_empty();
        for (id, old) in self.stale_postings.drain(..) {
            let idx = id.0 as usize;
            let heap = self.slots.get(idx).and_then(Option::as_ref);
            let versions = self
                .chains
                .get(idx)
                .into_iter()
                .flat_map(|c| c.version_rows());
            self.named
                .remove_stale(id, &old, heap.into_iter().chain(versions));
        }
        any
    }

    /// Note that row `id` stopped holding `old`: its postings are stale
    /// unless a retained version still carries their keys.
    fn note_stale(&mut self, id: RowId, old: &Row) {
        if !self.named.is_empty() {
            self.stale_postings.push((id, old.clone()));
        }
    }

    /// Insert a row, returning its new stable id.
    pub fn insert(&mut self, row: Row) -> Result<RowId, SchemaError> {
        self.schema.check_row(&row)?;
        let id = RowId(self.slots.len() as u64);
        self.named.insert_row(id, &row);
        self.slots.push(Some(row));
        self.live += 1;
        Ok(id)
    }

    /// Re-insert a row at a specific id (used only by recovery redo, which
    /// replays inserts in LSN order so ids always land at or past the end).
    pub fn insert_at(&mut self, id: RowId, row: Row) -> Result<(), SchemaError> {
        self.schema.check_row(&row)?;
        let idx = id.0 as usize;
        if idx >= self.slots.len() {
            self.slots.resize(idx + 1, None);
        }
        self.named.insert_row(id, &row);
        match self.slots[idx].replace(row) {
            None => self.live += 1,
            // Named postings for the old contents linger (vacuum's job).
            Some(old) => self.note_stale(id, &old),
        }
        Ok(())
    }

    /// Fetch a live row.
    pub fn get(&self, id: RowId) -> Option<&Row> {
        self.slots.get(id.0 as usize).and_then(|s| s.as_ref())
    }

    /// Delete a row, returning its prior contents (the before-image the WAL
    /// needs).
    pub fn delete(&mut self, id: RowId) -> Option<Row> {
        let slot = self.slots.get_mut(id.0 as usize)?;
        let old = slot.take()?;
        // The named posting stays: a snapshot reader pinned before this
        // delete commits must still find the row by probing. Vacuum
        // reclaims it once no retained version needs it.
        self.note_stale(id, &old);
        self.live -= 1;
        Some(old)
    }

    /// Overwrite a row in place, returning the before-image.
    pub fn update(&mut self, id: RowId, new: Row) -> Result<Option<Row>, SchemaError> {
        self.schema.check_row(&new)?;
        let Some(Some(row)) = self.slots.get_mut(id.0 as usize) else {
            return Ok(None);
        };
        let old = std::mem::replace(row, new);
        // Post the new key; the old key's posting stays for snapshot
        // readers until vacuum reclaims it.
        if self.named.post_update(id, &old, row) {
            self.note_stale(id, &old);
        }
        Ok(Some(old))
    }

    /// Iterate over live rows in id order.
    pub fn scan(&self) -> impl Iterator<Item = (RowId, &Row)> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|r| (RowId(i as u64), r)))
    }

    /// The one row accessor every read path resolves candidates through:
    /// the working row ([`Table::get`]) when `at` is `None`, the committed
    /// value visible at `ts` ([`Table::visible_row`]) when it is `Some(ts)`.
    pub fn row_at(&self, id: RowId, at: Option<CommitTs>) -> Option<&Row> {
        match at {
            None => self.get(id),
            Some(ts) => self.visible_row(id, ts),
        }
    }

    /// Look up working rows by an exact match on a column set; falls back
    /// to a scan when no index covers the columns. `pairs` maps column
    /// index → required value.
    pub fn lookup(&self, pairs: &[(usize, &Value)]) -> Vec<(RowId, &Row)> {
        if let Some(hits) = self.lookup_indexed(pairs, None) {
            return hits;
        }
        self.scan()
            .filter(|(_, row)| pairs.iter().all(|(c, v)| &row[*c] == *v))
            .collect()
    }

    /// The index-served half of [`Table::lookup`], for a reader at `at`:
    /// `None` when no named index's column set is covered exactly by
    /// `pairs` (callers that need to know whether a probe or a scan
    /// happened — scan accounting — use this directly). The probe key is
    /// built as [`crate::Index::key_of`] builds it; every posting is
    /// resolved through [`Table::row_at`] and its key re-checked, because
    /// postings are a history-union superset (a re-keyed row's old posting
    /// lingers until vacuum, and serves readers pinned before the re-key).
    pub fn lookup_indexed(
        &self,
        pairs: &[(usize, &Value)],
        at: Option<CommitTs>,
    ) -> Option<Vec<(RowId, &Row)>> {
        let bound = |c: usize| pairs.iter().find(|(pc, _)| *pc == c).map(|(_, v)| *v);
        let ix = self.named.covering(pairs.len(), |c| bound(c).is_some())?;
        let ids = match ix.columns() {
            [c] => ix.probe(bound(*c)?),
            cols => {
                let parts: Option<Vec<Value>> = cols.iter().map(|c| bound(*c).cloned()).collect();
                ix.probe(&Value::Tuple(parts?))
            }
        };
        Some(
            ids.iter()
                .filter_map(|id| self.row_at(*id, at).map(|r| (*id, r)))
                .filter(|(_, r)| pairs.iter().all(|(c, v)| &r[*c] == *v))
                .collect(),
        )
    }

    /// Remove every row (used by tests and recovery reset).
    pub fn truncate(&mut self) {
        self.slots.clear();
        self.live = 0;
        self.named.clear();
        self.stale_postings.clear();
        self.chains.clear();
        self.prune_list.clear();
    }

    /// Snapshot all live rows (id, row) — used to build read-only copies.
    pub fn rows_cloned(&self) -> Vec<(RowId, Row)> {
        self.scan().map(|(id, r)| (id, r.clone())).collect()
    }

    // ---- multi-version read path (see `crate::mvcc`) ----

    /// Install the committed value of row `id` at commit timestamp `ts`
    /// (`None` = the commit deleted the row). Called only by the commit
    /// path, after the write's redo record is durable — working state and
    /// uncommitted data never enter a chain.
    pub fn install_version(&mut self, id: RowId, ts: CommitTs, row: Option<Row>) {
        let idx = id.0 as usize;
        if idx >= self.chains.len() {
            self.chains.resize_with(idx + 1, VersionChain::default);
        }
        // Normally a no-op (the heap mutation posted this value already);
        // it makes "postings ⊇ heap ∪ retained versions" hold by
        // construction rather than by the caller's discipline.
        if let Some(row) = &row {
            self.named.insert_row(id, row);
        }
        let chain = &mut self.chains[idx];
        let listed = chain.reclaimable();
        let displaced = chain.install(ts, row);
        if !listed && chain.reclaimable() {
            self.prune_list.push(id);
        }
        if let Some(old) = displaced {
            self.note_stale(id, &old);
        }
    }

    /// Iterate the rows visible to a snapshot pinned at `ts`, in id order
    /// — [`Table::scan`]'s counterpart for a reader as of a timestamp.
    pub fn snapshot_scan(&self, ts: CommitTs) -> impl Iterator<Item = (RowId, &Row)> + '_ {
        self.chains
            .iter()
            .enumerate()
            .filter_map(move |(i, c)| c.visible(ts).map(|r| (RowId(i as u64), r)))
    }

    /// The committed value of row `id` visible to a snapshot pinned at
    /// `ts` — the per-candidate visibility filter behind every snapshot
    /// read: probe the live history-union index (or walk the slots), then
    /// resolve each candidate through the row's version chain.
    pub fn visible_row(&self, id: RowId, ts: CommitTs) -> Option<&Row> {
        self.chains.get(id.0 as usize).and_then(|c| c.visible(ts))
    }

    /// Seal the current working state as the one committed version of
    /// every live row at `ts`, discarding all prior history. Used at
    /// bootstrap (the setup script's commit) and after recovery, where the
    /// loaded state carries only the latest committed rows.
    pub fn seal_versions(&mut self, ts: CommitTs) {
        let had_history = self.chains.iter().any(|c| !c.is_empty());
        self.chains.clear();
        self.chains
            .resize_with(self.slots.len(), VersionChain::default);
        for (i, slot) in self.slots.iter().enumerate() {
            if let Some(row) = slot {
                self.chains[i].install(ts, Some(row.clone()));
            }
        }
        // One live version per chain: nothing left for vacuum to prune.
        self.prune_list.clear();
        // Discarded history drops postings' last holders without naming
        // them; settle the indexes to the sealed state in one pass.
        if had_history || !self.stale_postings.is_empty() {
            self.rebuild_named_indexes();
        }
    }

    /// Prune versions unreachable from any snapshot at or after `horizon`
    /// (see [`VersionChain::prune`]); returns how many were reclaimed.
    /// Visits only the chains on the work-list — those with a superseded
    /// version or a lone tombstone — and keeps a chain listed while a
    /// later horizon could still reclaim something from it.
    pub fn prune_versions(&mut self, horizon: CommitTs) -> usize {
        let track = !self.named.is_empty();
        let (chains, stale) = (&mut self.chains, &mut self.stale_postings);
        let mut pruned = 0;
        self.prune_list.retain(|&id| {
            let chain = &mut chains[id.0 as usize];
            pruned += chain.prune_with(horizon, |row| {
                // A pruned version may have been a posting's last holder.
                if track {
                    stale.push((id, row));
                }
            });
            chain.reclaimable()
        });
        pruned
    }

    /// Total retained versions across all chains (diagnostics/tests).
    pub fn version_count(&self) -> usize {
        self.chains.iter().map(|c| c.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::ValueType;

    fn flights_table() -> Table {
        let mut t = Table::new(
            "Flights",
            Schema::of(&[
                ("fno", ValueType::Int),
                ("fdate", ValueType::Date),
                ("dest", ValueType::Str),
            ]),
        );
        // Figure 1(a) of the paper.
        t.insert(vec![Value::Int(122), Value::Date(100), Value::str("LA")])
            .unwrap();
        t.insert(vec![Value::Int(123), Value::Date(101), Value::str("LA")])
            .unwrap();
        t.insert(vec![Value::Int(124), Value::Date(100), Value::str("LA")])
            .unwrap();
        t.insert(vec![Value::Int(235), Value::Date(102), Value::str("Paris")])
            .unwrap();
        t
    }

    #[test]
    fn insert_get_len() {
        let t = flights_table();
        assert_eq!(t.len(), 4);
        assert!(!t.is_empty());
        assert_eq!(t.get(RowId(0)).unwrap()[0], Value::Int(122));
        assert!(t.get(RowId(9)).is_none());
    }

    #[test]
    fn delete_leaves_tombstone_and_preserves_ids() {
        let mut t = flights_table();
        let old = t.delete(RowId(1)).unwrap();
        assert_eq!(old[0], Value::Int(123));
        assert_eq!(t.len(), 3);
        assert!(t.get(RowId(1)).is_none());
        // Remaining ids unchanged.
        assert_eq!(t.get(RowId(2)).unwrap()[0], Value::Int(124));
        // Double delete is a no-op.
        assert!(t.delete(RowId(1)).is_none());
        // New insert gets a fresh id, not the tombstoned one.
        let id = t
            .insert(vec![Value::Int(500), Value::Date(1), Value::str("SF")])
            .unwrap();
        assert_eq!(id, RowId(4));
    }

    #[test]
    fn update_returns_before_image() {
        let mut t = flights_table();
        let before = t
            .update(
                RowId(0),
                vec![Value::Int(122), Value::Date(100), Value::str("SFO")],
            )
            .unwrap()
            .unwrap();
        assert_eq!(before[2], Value::str("LA"));
        assert_eq!(t.get(RowId(0)).unwrap()[2], Value::str("SFO"));
        // Updating a missing row returns None.
        assert!(t
            .update(
                RowId(99),
                vec![Value::Int(1), Value::Date(1), Value::str("x")]
            )
            .unwrap()
            .is_none());
    }

    #[test]
    fn schema_violations_rejected() {
        let mut t = flights_table();
        assert!(t
            .insert(vec![Value::str("bad"), Value::Date(1), Value::str("LA")])
            .is_err());
        assert!(t.insert(vec![Value::Int(1)]).is_err());
        assert_eq!(t.len(), 4);
    }

    #[test]
    fn scan_skips_tombstones() {
        let mut t = flights_table();
        t.delete(RowId(0)).unwrap();
        let ids: Vec<u64> = t.scan().map(|(id, _)| id.0).collect();
        assert_eq!(ids, vec![1, 2, 3]);
    }

    #[test]
    fn index_lookup_matches_scan() {
        let mut t = flights_table();
        let pairs = [(2, &Value::str("LA"))];
        let scanned: Vec<RowId> = t.lookup(&pairs).iter().map(|(id, _)| *id).collect();
        assert!(t.lookup_indexed(&pairs, None).is_none(), "no index yet");
        t.create_named_index("by_dest", &["dest"], IndexKind::Hash)
            .unwrap();
        let probed = t.lookup_indexed(&pairs, None).expect("index covers dest");
        let probed: Vec<RowId> = probed.iter().map(|(id, _)| *id).collect();
        assert_eq!(probed, scanned);
        assert_eq!(probed.len(), 3);
        let paris = t.lookup(&[(2, &Value::str("Paris"))]);
        assert_eq!(paris.len(), 1);
        assert_eq!(paris[0].1[0], Value::Int(235));
        // No match.
        assert!(t.lookup(&[(2, &Value::str("Tokyo"))]).is_empty());
    }

    #[test]
    fn index_maintained_on_mutation() {
        let mut t = flights_table();
        t.create_named_index("by_dest", &["dest"], IndexKind::Btree)
            .unwrap();
        t.seal_versions(1);
        t.delete(RowId(0)).unwrap();
        assert_eq!(t.lookup(&[(2, &Value::str("LA"))]).len(), 2);
        t.update(
            RowId(1),
            vec![Value::Int(123), Value::Date(101), Value::str("Paris")],
        )
        .unwrap();
        assert_eq!(t.lookup(&[(2, &Value::str("LA"))]).len(), 1);
        assert_eq!(t.lookup(&[(2, &Value::str("Paris"))]).len(), 2);
        let id = t
            .insert(vec![Value::Int(900), Value::Date(50), Value::str("LA")])
            .unwrap();
        let la = t.lookup(&[(2, &Value::str("LA"))]);
        assert!(la.iter().any(|(rid, _)| *rid == id));
        assert_eq!(la.len(), 2);
        // None of it is committed: a reader as of ts 1 probes the same
        // index and still finds the three sealed LA rows, not the new one.
        let la = [(2, &Value::str("LA"))];
        let ids = |hits: Vec<(RowId, &Row)>| hits.iter().map(|(id, _)| id.0).collect::<Vec<_>>();
        assert_eq!(ids(t.lookup_indexed(&la, Some(1)).unwrap()), vec![0, 1, 2]);
        let paris = [(2, &Value::str("Paris"))];
        assert_eq!(ids(t.lookup_indexed(&paris, Some(1)).unwrap()), vec![3]);
    }

    #[test]
    fn multi_column_index() {
        let mut t = flights_table();
        t.create_named_index("by_dest_date", &["dest", "fdate"], IndexKind::Hash)
            .unwrap();
        // Pairs in any order: the key is built in declaration order.
        let pairs = [(1, &Value::Date(100)), (2, &Value::str("LA"))];
        assert_eq!(t.lookup_indexed(&pairs, None).unwrap().len(), 2);
        // A pair set the index does not cover exactly is not index-served…
        assert!(t.lookup_indexed(&pairs[..1], None).is_none());
        // …and falls back to scan and still works.
        let hits = t.lookup(&[(0, &Value::Int(122))]);
        assert_eq!(hits.len(), 1);
    }

    #[test]
    fn create_index_idempotent_and_unknown_column() {
        let mut t = flights_table();
        assert!(t
            .create_named_index("by_dest", &["dest"], IndexKind::Hash)
            .unwrap());
        assert!(!t
            .create_named_index("by_dest", &["dest"], IndexKind::Hash)
            .unwrap());
        assert!(t
            .create_named_index("by_nope", &["nope"], IndexKind::Hash)
            .is_err());
    }

    #[test]
    fn insert_at_for_recovery() {
        let mut t = Table::new("T", Schema::of(&[("a", ValueType::Int)]));
        t.insert_at(RowId(3), vec![Value::Int(30)]).unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(RowId(3)).unwrap()[0], Value::Int(30));
        assert!(t.get(RowId(0)).is_none());
        // Overwrite at same slot keeps live count correct.
        t.insert_at(RowId(3), vec![Value::Int(31)]).unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(RowId(3)).unwrap()[0], Value::Int(31));
        // Next fresh insert goes after.
        let id = t.insert(vec![Value::Int(99)]).unwrap();
        assert_eq!(id, RowId(4));
    }

    #[test]
    fn version_install_and_snapshot_scan() {
        let mut t = flights_table();
        t.seal_versions(1);
        assert_eq!(t.version_count(), 4);
        // Working mutation is invisible to snapshots until installed.
        t.update(
            RowId(0),
            vec![Value::Int(122), Value::Date(100), Value::str("SFO")],
        )
        .unwrap();
        t.delete(RowId(3)).unwrap();
        assert_eq!(t.snapshot_scan(1).count(), 4);
        assert_eq!(t.row_at(RowId(0), Some(1)).unwrap()[2], Value::str("LA"));
        assert_eq!(t.row_at(RowId(3), Some(1)).unwrap()[2], Value::str("Paris"));
        assert_eq!(t.scan().count(), 3, "working state moved on");
        // Commit installs the update + a tombstone at ts 2.
        t.install_version(
            RowId(0),
            2,
            Some(vec![Value::Int(122), Value::Date(100), Value::str("SFO")]),
        );
        t.install_version(RowId(3), 2, None);
        assert_eq!(t.snapshot_scan(2).count(), 3);
        assert_eq!(t.row_at(RowId(0), Some(2)).unwrap()[2], Value::str("SFO"));
        assert!(t.row_at(RowId(3), Some(2)).is_none());
        // The older snapshot is unchanged (that is the point).
        assert_eq!(t.row_at(RowId(0), Some(1)).unwrap()[2], Value::str("LA"));
        assert_eq!(t.snapshot_scan(1).count(), 4);
    }

    #[test]
    fn prune_versions_respects_the_horizon() {
        let mut t = flights_table();
        t.seal_versions(1);
        t.install_version(
            RowId(0),
            2,
            Some(vec![Value::Int(1), Value::Date(1), Value::str("A")]),
        );
        t.install_version(
            RowId(0),
            3,
            Some(vec![Value::Int(2), Value::Date(2), Value::str("B")]),
        );
        assert_eq!(t.version_count(), 6);
        // A snapshot at ts 2 is still live: only the ts-1 version of row 0
        // is superseded below the horizon.
        assert_eq!(t.prune_versions(2), 1);
        assert_eq!(t.visible_row(RowId(0), 2).unwrap()[2], Value::str("A"));
        // Horizon catches up: ts-2 goes too.
        assert_eq!(t.prune_versions(3), 1);
        assert_eq!(t.visible_row(RowId(0), 3).unwrap()[2], Value::str("B"));
    }

    #[test]
    fn prune_work_list_holds_exactly_the_reclaimable_chains() {
        let la = |n: i64| vec![Value::Int(n), Value::Date(1), Value::str("LA")];
        let mut t = flights_table();
        t.seal_versions(1);
        assert!(t.prune_list.is_empty(), "one live version per row");
        // A fresh row's first version supersedes nothing.
        let id = t.insert(la(900)).unwrap();
        t.install_version(id, 2, Some(la(900)));
        assert!(t.prune_list.is_empty());
        // Two commits on row 0: listed once.
        t.install_version(RowId(0), 3, Some(la(1)));
        t.install_version(RowId(0), 4, Some(la(2)));
        assert_eq!(t.prune_list, vec![RowId(0)]);
        // A snapshot pinned at 3 holds the horizon back: ts 1 goes, ts 3
        // must stay, and the chain stays listed for a later vacuum.
        assert_eq!(t.prune_versions(3), 1);
        assert_eq!(t.prune_list, vec![RowId(0)]);
        assert_eq!(t.prune_versions(3), 0);
        assert_eq!(t.prune_versions(4), 1);
        assert!(t.prune_list.is_empty(), "down to one live version");
        // Insert + delete inside one commit leaves a lone tombstone; it is
        // reclaimed once the horizon passes it.
        let gone = t.insert(la(901)).unwrap();
        t.install_version(gone, 5, Some(la(901)));
        t.delete(gone).unwrap();
        t.install_version(gone, 5, None);
        assert_eq!(t.prune_list, vec![gone]);
        assert_eq!(t.prune_versions(4), 0);
        assert_eq!(t.prune_list, vec![gone]);
        assert_eq!(t.prune_versions(5), 1);
        assert!(t.prune_list.is_empty());
        assert_eq!(t.prune_versions(u64::MAX), 0);
    }

    #[test]
    fn resync_drops_a_posting_only_when_nothing_holds_its_key() {
        let mut t = flights_table();
        t.create_named_index("by_dest", &["dest"], IndexKind::Btree)
            .unwrap();
        t.seal_versions(1);
        let paris = Value::str("Paris");
        let probe =
            |t: &Table, v: &Value| t.named_indexes().get("by_dest").unwrap().probe(v).to_vec();
        // Row 3 (Paris) moves to LA and commits at ts 2.
        let moved = vec![Value::Int(235), Value::Date(102), Value::str("LA")];
        t.update(RowId(3), moved.clone()).unwrap();
        t.install_version(RowId(3), 2, Some(moved));
        // A snapshot pinned at 1 still needs to find it under Paris.
        t.prune_versions(1);
        assert!(t.resync_named_indexes());
        assert_eq!(
            probe(&t, &paris),
            vec![RowId(3)],
            "held by the ts-1 version"
        );
        // Once that version is pruned, so is the posting.
        assert_eq!(t.prune_versions(2), 1);
        assert!(t.resync_named_indexes());
        assert!(probe(&t, &paris).is_empty());
        assert_eq!(probe(&t, &Value::str("LA")).len(), 4);
        assert!(!t.resync_named_indexes(), "nothing changed since");
    }

    #[test]
    fn seal_and_truncate_leave_empty_work_lists() {
        let mut t = flights_table();
        t.create_named_index("by_dest", &["dest"], IndexKind::Hash)
            .unwrap();
        t.seal_versions(1);
        t.delete(RowId(3)).unwrap();
        t.install_version(RowId(3), 2, None);
        assert!(!t.prune_list.is_empty() && !t.stale_postings.is_empty());
        t.seal_versions(3);
        assert!(t.prune_list.is_empty() && t.stale_postings.is_empty());
        let ix = t.named_indexes().get("by_dest").unwrap();
        assert!(
            ix.probe(&Value::str("Paris")).is_empty(),
            "settled by the seal"
        );
        t.delete(RowId(0)).unwrap();
        t.install_version(RowId(0), 4, None);
        t.truncate();
        assert!(t.prune_list.is_empty() && t.stale_postings.is_empty());
    }

    #[test]
    fn snapshot_of_unsealed_table_is_empty() {
        let t = flights_table();
        assert_eq!(t.snapshot_scan(u64::MAX).count(), 0);
        assert_eq!(t.version_count(), 0);
    }

    #[test]
    fn truncate_resets() {
        let mut t = flights_table();
        t.create_named_index("by_dest", &["dest"], IndexKind::Hash)
            .unwrap();
        t.truncate();
        assert_eq!(t.len(), 0);
        assert!(t.lookup(&[(2, &Value::str("LA"))]).is_empty());
        assert!(t.scan().next().is_none());
    }
}
