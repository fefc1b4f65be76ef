//! Named secondary indexes: per-table [`IndexSet`]s of [`Index`]es over one
//! or more columns, each hash- or btree-backed.
//!
//! These are the indexes `CREATE INDEX` declares — the only index
//! implementation there is. A named index maps a key — the indexed column's
//! value, or a [`Value::Tuple`] of the column values for a composite index —
//! to the [`RowId`]s of rows holding it. Postings are *supersets* of the
//! live heap: the table adds a posting inside the same mutation that touches
//! the heap, but removal is deferred to vacuum so that multi-version
//! snapshot readers can probe the live index and find rows whose current
//! heap state has moved on (see `Table::resync_named_indexes`). Every probe
//! consumer therefore re-checks liveness/visibility and the key predicate.
//!
//! [`IndexKind::Hash`] serves equality probes in O(1); [`IndexKind::Btree`]
//! additionally serves ordered range probes ([`Index::probe_range`]) —
//! including prefix ranges over composite keys, because a tuple prefix sorts
//! immediately before all its extensions. Durability is the engine's
//! business: index *definitions* are logged and carried in checkpoint
//! images, index *contents* are always rebuilt from the recovered heap (see
//! `youtopia-wal`), which is why this module needs no persistence of its
//! own.

use crate::table::{Row, RowId};
use crate::value::Value;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::ops::Bound;

/// The backing structure of a named index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexKind {
    /// Hash map: equality probes only.
    Hash,
    /// Ordered map: equality and range probes.
    Btree,
}

impl IndexKind {
    /// The SQL keyword naming this kind (`USING HASH` / `USING BTREE`).
    pub fn keyword(&self) -> &'static str {
        match self {
            IndexKind::Hash => "HASH",
            IndexKind::Btree => "BTREE",
        }
    }
}

/// What one latched range probe hands a next-key-locking reader: the
/// in-range `(key, postings)` entries in key order, plus the successor
/// key beyond the range (`None` when the range runs off the index).
pub type RangeEntries = (Vec<(Value, Vec<RowId>)>, Option<Value>);

/// Key → row-id postings, in the shape the kind dictates.
#[derive(Debug, Clone)]
enum IndexData {
    Hash(HashMap<Value, Vec<RowId>>),
    Btree(BTreeMap<Value, Vec<RowId>>),
}

/// One named secondary index over one or more columns.
#[derive(Debug, Clone)]
pub struct Index {
    name: String,
    columns: Vec<usize>,
    column_names: Vec<String>,
    kind: IndexKind,
    data: IndexData,
}

impl Index {
    fn new(name: String, columns: Vec<usize>, column_names: Vec<String>, kind: IndexKind) -> Index {
        assert!(!columns.is_empty(), "index must cover at least one column");
        let data = match kind {
            IndexKind::Hash => IndexData::Hash(HashMap::new()),
            IndexKind::Btree => IndexData::Btree(BTreeMap::new()),
        };
        Index {
            name,
            columns,
            column_names,
            kind,
            data,
        }
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    /// Position of the first indexed column in the table's schema.
    pub fn column(&self) -> usize {
        self.columns[0]
    }

    /// Positions of every indexed column, in key order.
    pub fn columns(&self) -> &[usize] {
        &self.columns
    }

    pub fn column_name(&self) -> &str {
        &self.column_names[0]
    }

    pub fn column_names(&self) -> &[String] {
        &self.column_names
    }

    pub fn kind(&self) -> IndexKind {
        self.kind
    }

    /// The index key of a row: the bare column value for a single-column
    /// index, a [`Value::Tuple`] in column order for a composite one.
    pub fn key_of(&self, row: &Row) -> Value {
        if let [c] = self.columns.as_slice() {
            row[*c].clone()
        } else {
            Value::Tuple(self.columns.iter().map(|c| row[*c].clone()).collect())
        }
    }

    /// Row ids whose index key equals `key`, in row-id order (may include
    /// ids the caller must still check for liveness/visibility and key
    /// match — postings are a superset of the live heap between vacuums).
    pub fn probe(&self, key: &Value) -> &[RowId] {
        match &self.data {
            IndexData::Hash(m) => m.get(key).map(Vec::as_slice).unwrap_or(&[]),
            IndexData::Btree(m) => m.get(key).map(Vec::as_slice).unwrap_or(&[]),
        }
    }

    /// Walk the keys matching `prefix` on the leading columns whose next
    /// component falls within `(lo, hi)`, in key order. The visitor returns
    /// `false` to stop early. Returns `None` for hash indexes; otherwise
    /// `Some(successor)` — the first existing key *past* the range (the
    /// next-key lock target), or `None` inside when the range runs off the
    /// end of the index. The successor is meaningless if the visitor
    /// stopped the walk.
    fn visit_range(
        &self,
        prefix: &[Value],
        lo: Bound<&Value>,
        hi: Bound<&Value>,
        mut visit: impl FnMut(&Value, &[RowId]) -> bool,
    ) -> Option<Option<Value>> {
        let m = match &self.data {
            IndexData::Hash(_) => return None,
            IndexData::Btree(m) => m,
        };
        // Starting point: for bare keys the lower bound itself; for
        // composite keys the tuple `prefix ++ [lo]` — a proper prefix of
        // every full-arity key it bounds, so `Included` is always safe and
        // the `Excluded` edge is enforced by the per-key check below.
        let start: Bound<Value> = if prefix.is_empty() && self.columns.len() == 1 {
            match lo {
                Bound::Included(v) => Bound::Included(v.clone()),
                Bound::Excluded(v) => Bound::Excluded(v.clone()),
                Bound::Unbounded => Bound::Unbounded,
            }
        } else {
            let mut head = prefix.to_vec();
            match lo {
                Bound::Included(v) | Bound::Excluded(v) => head.push(v.clone()),
                Bound::Unbounded => {}
            }
            Bound::Included(Value::Tuple(head))
        };
        let pos = prefix.len();
        for (key, ids) in m.range::<Value, _>((start, Bound::Unbounded)) {
            let comp = if self.columns.len() == 1 {
                key
            } else {
                let Value::Tuple(parts) = key else {
                    return Some(Some(key.clone()));
                };
                if parts[..pos] != *prefix {
                    // Ran off the prefix run; this key is the successor.
                    return Some(Some(key.clone()));
                }
                &parts[pos]
            };
            match lo {
                Bound::Included(v) if comp < v => continue,
                Bound::Excluded(v) if comp <= v => continue,
                _ => {}
            }
            match hi {
                Bound::Included(v) if comp > v => return Some(Some(key.clone())),
                Bound::Excluded(v) if comp >= v => return Some(Some(key.clone())),
                _ => {}
            }
            if !visit(key, ids) {
                return Some(None);
            }
        }
        Some(None)
    }

    /// Row ids whose index key matches `prefix` on the leading columns and
    /// whose next component falls within the bounds, in key order. `None`
    /// for hash indexes, which cannot serve ranges. Like [`Index::probe`],
    /// the result may include stale postings the caller must re-check —
    /// but each id appears once, under the first in-range key it is posted
    /// at: a row re-keyed within the range stays posted under its old key
    /// too until vacuum, and must not become two candidates.
    pub fn probe_range(
        &self,
        prefix: &[Value],
        lo: Bound<&Value>,
        hi: Bound<&Value>,
    ) -> Option<Vec<RowId>> {
        let (mut out, mut seen) = (Vec::new(), HashSet::new());
        self.visit_range(prefix, lo, hi, |_, ids| {
            out.extend(ids.iter().filter(|id| seen.insert(**id)));
            true
        })?;
        Some(out)
    }

    /// In-range `(key, ids)` entries plus the successor key beyond the
    /// range — everything a next-key-locking range read needs from one
    /// latched probe. `None` for hash indexes.
    pub fn probe_range_entries(
        &self,
        prefix: &[Value],
        lo: Bound<&Value>,
        hi: Bound<&Value>,
    ) -> Option<RangeEntries> {
        let mut out = Vec::new();
        let successor = self.visit_range(prefix, lo, hi, |key, ids| {
            out.push((key.clone(), ids.to_vec()));
            true
        })?;
        Some((out, successor))
    }

    /// Posting count within the range, capped at `cap` — the selectivity
    /// guess the planner's cost gate compares against the table length.
    /// `None` for hash indexes.
    pub fn estimate_range(
        &self,
        prefix: &[Value],
        lo: Bound<&Value>,
        hi: Bound<&Value>,
        cap: usize,
    ) -> Option<usize> {
        let mut n = 0usize;
        self.visit_range(prefix, lo, hi, |_, ids| {
            n += ids.len();
            n <= cap
        })?;
        Some(n.min(cap.saturating_add(1)))
    }

    /// The first indexed key strictly greater than `key` — the next-key
    /// lock target a btree inserter must take before posting `key`.
    /// `Some(None)` means `key` would land past every existing key (lock
    /// the EOF sentinel); `None` means the index is a hash (no key order,
    /// no phantom protocol).
    pub fn successor(&self, key: &Value) -> Option<Option<Value>> {
        let m = match &self.data {
            IndexData::Hash(_) => return None,
            IndexData::Btree(m) => m,
        };
        Some(
            m.range::<Value, _>((Bound::Excluded(key), Bound::Unbounded))
                .next()
                .map(|(k, _)| k.clone()),
        )
    }

    /// Number of distinct keys currently indexed.
    pub fn key_count(&self) -> usize {
        match &self.data {
            IndexData::Hash(m) => m.len(),
            IndexData::Btree(m) => m.len(),
        }
    }

    /// All postings as `(key, sorted row ids)`, sorted by key — the
    /// canonical form coherence tests compare against a heap-rebuilt
    /// oracle.
    pub fn entries(&self) -> Vec<(Value, Vec<RowId>)> {
        let mut out: Vec<(Value, Vec<RowId>)> = match &self.data {
            IndexData::Hash(m) => m.iter().map(|(k, v)| (k.clone(), v.clone())).collect(),
            IndexData::Btree(m) => m.iter().map(|(k, v)| (k.clone(), v.clone())).collect(),
        };
        out.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Whether rows `a` and `b` post under the same key in this index.
    fn same_key(&self, a: &Row, b: &Row) -> bool {
        self.columns.iter().all(|&c| a[c] == b[c])
    }

    /// Post `id` under `key`. Each posting list stays sorted by row id, so
    /// an index maintained incrementally is identical to a rebuilt one
    /// and re-posting a row (a version install after the heap mutation
    /// already posted it) is a no-op found by binary search.
    fn insert(&mut self, id: RowId, key: Value) {
        let ids = match &mut self.data {
            IndexData::Hash(m) => m.entry(key).or_default(),
            IndexData::Btree(m) => m.entry(key).or_default(),
        };
        if let Err(pos) = ids.binary_search(&id) {
            ids.insert(pos, id);
        }
    }

    /// Drop `id`'s posting under `key` (and the key itself once its list
    /// is empty); a no-op when no such posting exists.
    fn remove(&mut self, id: RowId, key: &Value) {
        fn take(ids: &mut Vec<RowId>, id: RowId) -> bool {
            if let Ok(pos) = ids.binary_search(&id) {
                ids.remove(pos);
            }
            ids.is_empty()
        }
        match &mut self.data {
            IndexData::Hash(m) => {
                if m.get_mut(key).is_some_and(|ids| take(ids, id)) {
                    m.remove(key);
                }
            }
            IndexData::Btree(m) => {
                if m.get_mut(key).is_some_and(|ids| take(ids, id)) {
                    m.remove(key);
                }
            }
        }
    }

    fn clear(&mut self) {
        match &mut self.data {
            IndexData::Hash(m) => m.clear(),
            IndexData::Btree(m) => m.clear(),
        }
    }
}

/// All named indexes of one table, maintained as a unit.
#[derive(Debug, Clone, Default)]
pub struct IndexSet {
    indexes: Vec<Index>,
}

impl IndexSet {
    /// Declare an index. Idempotent when an index of the same name,
    /// columns and kind already exists (returns `false`); errors if the
    /// name is taken by a different definition.
    pub fn create(
        &mut self,
        name: &str,
        columns: Vec<usize>,
        column_names: Vec<String>,
        kind: IndexKind,
    ) -> Result<bool, String> {
        if let Some(ix) = self.get(name) {
            if ix.columns == columns && ix.kind == kind {
                return Ok(false);
            }
            return Err(format!(
                "index {name} already exists with a different definition"
            ));
        }
        self.indexes
            .push(Index::new(name.to_string(), columns, column_names, kind));
        Ok(true)
    }

    /// Find an index by name (ASCII-case-insensitive, like the catalog).
    pub fn get(&self, name: &str) -> Option<&Index> {
        self.indexes
            .iter()
            .find(|ix| ix.name.eq_ignore_ascii_case(name))
    }

    /// The first index over exactly `n` columns, every one of which is
    /// `bound` — an equality probe's pairs cover its key exactly —
    /// preferring a hash index for the equality probes joins and the
    /// executor issue most.
    pub fn covering(&self, n: usize, bound: impl Fn(usize) -> bool) -> Option<&Index> {
        self.indexes
            .iter()
            .filter(|ix| ix.columns.len() == n && ix.columns.iter().all(|c| bound(*c)))
            .min_by_key(|ix| match ix.kind {
                IndexKind::Hash => 0,
                IndexKind::Btree => 1,
            })
    }

    /// The first single-column index over `column` (hash preferred).
    pub fn on_column(&self, column: usize) -> Option<&Index> {
        self.covering(1, |c| c == column)
    }

    /// A single-column btree index over `column`, for range probes.
    pub fn btree_on_column(&self, column: usize) -> Option<&Index> {
        self.indexes
            .iter()
            .find(|ix| ix.columns.as_slice() == [column] && ix.kind == IndexKind::Btree)
    }

    pub fn iter(&self) -> impl Iterator<Item = &Index> + '_ {
        self.indexes.iter()
    }

    pub fn is_empty(&self) -> bool {
        self.indexes.is_empty()
    }

    pub fn len(&self) -> usize {
        self.indexes.len()
    }

    // -- maintenance, called by the owning table inside heap mutations --

    /// Post `row` under its key in every index (idempotent per row/key).
    pub(crate) fn insert_row(&mut self, id: RowId, row: &Row) {
        for ix in &mut self.indexes {
            let key = ix.key_of(row);
            ix.insert(id, key);
        }
    }

    /// Post the new key of an updated row wherever it changed, leaving the
    /// old posting in place for snapshot readers (vacuum reclaims it).
    /// Returns whether any index key actually changed.
    pub(crate) fn post_update(&mut self, id: RowId, old: &Row, new: &Row) -> bool {
        let mut changed = false;
        for ix in &mut self.indexes {
            if !ix.same_key(old, new) {
                ix.insert(id, ix.key_of(new));
                changed = true;
            }
        }
        changed
    }

    /// Vacuum's stale-candidate rule: `old` is a superseded value of row
    /// `id`; drop its posting from every index in which none of `holders`
    /// — the row's current heap value and its retained versions — still
    /// carries `old`'s key.
    pub(crate) fn remove_stale<'a>(
        &mut self,
        id: RowId,
        old: &Row,
        holders: impl Iterator<Item = &'a Row> + Clone,
    ) {
        for ix in &mut self.indexes {
            if !holders.clone().any(|held| ix.same_key(old, held)) {
                let key = ix.key_of(old);
                ix.remove(id, &key);
            }
        }
    }

    pub(crate) fn clear(&mut self) {
        for ix in &mut self.indexes {
            ix.clear();
        }
    }

    /// Rebuild every index's contents from the given rows (recovery,
    /// index creation). Callers feeding both live rows and retained
    /// version rows get the history-union postings snapshot reads probe.
    pub(crate) fn rebuild<'a>(&mut self, rows: impl Iterator<Item = (RowId, &'a Row)>) {
        self.clear();
        for (id, row) in rows {
            self.insert_row(id, row);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn row(v: i64) -> Row {
        vec![Value::Int(v), Value::str("x")]
    }

    fn set() -> IndexSet {
        let mut s = IndexSet::default();
        s.create("h", vec![0], vec!["a".into()], IndexKind::Hash)
            .unwrap();
        s.create("b", vec![0], vec!["a".into()], IndexKind::Btree)
            .unwrap();
        s
    }

    #[test]
    fn create_is_idempotent_and_conflicts_error() {
        let mut s = set();
        assert_eq!(
            s.create("h", vec![0], vec!["a".into()], IndexKind::Hash),
            Ok(false)
        );
        assert!(s
            .create("H", vec![1], vec!["b".into()], IndexKind::Hash)
            .is_err());
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn probe_and_maintenance() {
        let mut s = set();
        s.insert_row(RowId(0), &row(5));
        s.insert_row(RowId(1), &row(5));
        s.insert_row(RowId(2), &row(9));
        s.insert_row(RowId(2), &row(9)); // dedup: same row/key posts once
        let h = s.get("h").unwrap();
        assert_eq!(h.probe(&Value::Int(5)), &[RowId(0), RowId(1)]);
        assert_eq!(h.probe(&Value::Int(9)), &[RowId(2)]);
        assert_eq!(h.probe(&Value::Int(7)), &[] as &[RowId]);
        // Still held by some version of the row: the posting stays.
        s.remove_stale(RowId(0), &row(5), [&row(5)].into_iter());
        assert_eq!(s.get("b").unwrap().probe(&Value::Int(5)).len(), 2);
        // Held only under another key: it goes, from every index.
        s.remove_stale(RowId(0), &row(5), [&row(6)].into_iter());
        assert_eq!(s.get("b").unwrap().probe(&Value::Int(5)), &[RowId(1)]);
        assert_eq!(s.get("h").unwrap().probe(&Value::Int(5)), &[RowId(1)]);
        // The last posting takes its key along.
        s.remove_stale(RowId(2), &row(9), std::iter::empty());
        assert_eq!(s.get("b").unwrap().key_count(), 1);
        assert_eq!(s.get("b").unwrap().successor(&Value::Int(5)), Some(None));
    }

    #[test]
    fn range_probe_btree_only() {
        let mut s = set();
        for (i, v) in [3, 1, 7, 5].into_iter().enumerate() {
            s.insert_row(RowId(i as u64), &row(v));
        }
        let b = s.get("b").unwrap();
        let ids = b
            .probe_range(
                &[],
                Bound::Included(&Value::Int(3)),
                Bound::Excluded(&Value::Int(7)),
            )
            .unwrap();
        assert_eq!(ids, vec![RowId(0), RowId(3)], "key order: 3 then 5");
        assert!(s
            .get("h")
            .unwrap()
            .probe_range(&[], Bound::Unbounded, Bound::Unbounded)
            .is_none());
        // The successor of [3, 7) is the first key past the range: 7.
        let (entries, succ) = b
            .probe_range_entries(
                &[],
                Bound::Included(&Value::Int(3)),
                Bound::Excluded(&Value::Int(7)),
            )
            .unwrap();
        assert_eq!(entries.len(), 2);
        assert_eq!(succ, Some(Value::Int(7)));
        // An unbounded tail has no successor (EOF).
        let (_, succ) = b
            .probe_range_entries(&[], Bound::Excluded(&Value::Int(5)), Bound::Unbounded)
            .unwrap();
        assert_eq!(succ, None);
    }

    #[test]
    fn composite_prefix_range_probe() {
        let mut s = IndexSet::default();
        s.create(
            "ab",
            vec![0, 1],
            vec!["a".into(), "b".into()],
            IndexKind::Btree,
        )
        .unwrap();
        let mk = |a: i64, b: i64| vec![Value::Int(a), Value::Int(b)];
        for (i, (a, b)) in [(1, 10), (2, 10), (2, 20), (2, 30), (3, 5)]
            .iter()
            .enumerate()
        {
            s.insert_row(RowId(i as u64), &mk(*a, *b));
        }
        let ix = s.get("ab").unwrap();
        assert_eq!(
            ix.key_of(&mk(2, 20)),
            Value::Tuple(vec![Value::Int(2), Value::Int(20)])
        );
        // Prefix a=2, b in [10, 30): rows 1 and 2, in key order.
        let ids = ix
            .probe_range(
                &[Value::Int(2)],
                Bound::Included(&Value::Int(10)),
                Bound::Excluded(&Value::Int(30)),
            )
            .unwrap();
        assert_eq!(ids, vec![RowId(1), RowId(2)]);
        // Unbounded within the prefix: all a=2 rows; successor is the
        // first key of the next prefix run.
        let (entries, succ) = ix
            .probe_range_entries(&[Value::Int(2)], Bound::Unbounded, Bound::Unbounded)
            .unwrap();
        assert_eq!(entries.len(), 3);
        assert_eq!(succ, Some(Value::Tuple(vec![Value::Int(3), Value::Int(5)])));
        // Full-key point probes still work on the composite key.
        assert_eq!(
            ix.probe(&Value::Tuple(vec![Value::Int(2), Value::Int(20)])),
            &[RowId(2)]
        );
        // Cost-gate estimate caps early.
        assert_eq!(
            ix.estimate_range(&[Value::Int(2)], Bound::Unbounded, Bound::Unbounded, 2),
            Some(3)
        );
        assert_eq!(
            ix.estimate_range(&[Value::Int(2)], Bound::Unbounded, Bound::Unbounded, 10),
            Some(3)
        );
    }

    #[test]
    fn entries_are_canonical_and_rebuild_matches() {
        let mut s = set();
        s.insert_row(RowId(1), &row(4));
        s.insert_row(RowId(0), &row(4));
        s.insert_row(RowId(2), &row(2));
        let before = s.get("b").unwrap().entries();
        assert_eq!(before[0].0, Value::Int(2));
        assert_eq!(before[1].1, vec![RowId(0), RowId(1)], "ids sorted");
        let rows = [(RowId(1), row(4)), (RowId(0), row(4)), (RowId(2), row(2))];
        let mut rebuilt = s.clone();
        rebuilt.rebuild(rows.iter().map(|(id, r)| (*id, r)));
        assert_eq!(rebuilt.get("b").unwrap().entries(), before);
        assert_eq!(rebuilt.get("h").unwrap().entries(), before);
        assert_eq!(s.get("h").unwrap().key_count(), 2);
    }

    proptest! {
        /// `probe_range` over a btree index equals filtering a scan of the
        /// posted rows by the same bounds — including duplicate keys and
        /// both `Excluded` edges.
        #[test]
        fn probe_range_equals_filtered_scan(
            keys in prop::collection::vec(-20i64..20, 0..60),
            lo in -25i64..25,
            span in 0i64..12,
            lo_excl in any::<bool>(),
            hi_excl in any::<bool>(),
        ) {
            let mut s = IndexSet::default();
            s.create("b", vec![0], vec!["a".into()], IndexKind::Btree).unwrap();
            let rows: Vec<Row> = keys.iter().map(|k| row(*k)).collect();
            for (i, r) in rows.iter().enumerate() {
                s.insert_row(RowId(i as u64), r);
            }
            let hi = lo + span;
            let (lo_v, hi_v) = (Value::Int(lo), Value::Int(hi));
            let lo_b = if lo_excl { Bound::Excluded(&lo_v) } else { Bound::Included(&lo_v) };
            let hi_b = if hi_excl { Bound::Excluded(&hi_v) } else { Bound::Included(&hi_v) };
            let mut probed = s.get("b").unwrap().probe_range(&[], lo_b, hi_b).unwrap();
            probed.sort_unstable();
            let mut scanned: Vec<RowId> = rows
                .iter()
                .enumerate()
                .filter(|(_, r)| {
                    let k = r[0].as_int().unwrap();
                    (if lo_excl { k > lo } else { k >= lo })
                        && (if hi_excl { k < hi } else { k <= hi })
                })
                .map(|(i, _)| RowId(i as u64))
                .collect();
            scanned.sort_unstable();
            prop_assert_eq!(probed, scanned);
            // The estimate agrees with the true count when uncapped.
            let est = s.get("b").unwrap()
                .estimate_range(&[], lo_b, hi_b, usize::MAX >> 1)
                .unwrap();
            prop_assert_eq!(est, scanned.len());
        }

        /// Composite-key prefix ranges equal the two-column filtered scan.
        #[test]
        fn composite_probe_range_equals_filtered_scan(
            pairs in prop::collection::vec((-4i64..4, -10i64..10), 0..40),
            a in -5i64..5,
            lo in -12i64..12,
            span in 0i64..8,
            lo_excl in any::<bool>(),
            hi_excl in any::<bool>(),
        ) {
            let mut s = IndexSet::default();
            s.create("ab", vec![0, 1], vec!["a".into(), "b".into()], IndexKind::Btree).unwrap();
            let rows: Vec<Row> = pairs
                .iter()
                .map(|(a, b)| vec![Value::Int(*a), Value::Int(*b)])
                .collect();
            for (i, r) in rows.iter().enumerate() {
                s.insert_row(RowId(i as u64), r);
            }
            let hi = lo + span;
            let (lo_v, hi_v) = (Value::Int(lo), Value::Int(hi));
            let lo_b = if lo_excl { Bound::Excluded(&lo_v) } else { Bound::Included(&lo_v) };
            let hi_b = if hi_excl { Bound::Excluded(&hi_v) } else { Bound::Included(&hi_v) };
            let prefix = [Value::Int(a)];
            let mut probed = s.get("ab").unwrap().probe_range(&prefix, lo_b, hi_b).unwrap();
            probed.sort_unstable();
            let mut scanned: Vec<RowId> = rows
                .iter()
                .enumerate()
                .filter(|(_, r)| {
                    let (ka, kb) = (r[0].as_int().unwrap(), r[1].as_int().unwrap());
                    ka == a
                        && (if lo_excl { kb > lo } else { kb >= lo })
                        && (if hi_excl { kb < hi } else { kb <= hi })
                })
                .map(|(i, _)| RowId(i as u64))
                .collect();
            scanned.sort_unstable();
            prop_assert_eq!(probed, scanned);
        }
    }
}
