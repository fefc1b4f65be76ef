//! Multi-version row storage: per-row version chains keyed by commit
//! timestamp, and the snapshot registry that hands out read timestamps.
//!
//! ## Why versions exist
//!
//! Strict 2PL alone makes every reader queue behind writers (an S lock
//! conflicts with IX/X), even when the reader is a pure SELECT transaction
//! that could happily run against a slightly older committed state. This
//! module gives the storage substrate a second, lock-free read path:
//!
//! * every committed write **installs a version** — `(commit timestamp,
//!   row value)` — into the row's [`VersionChain`] (a deletion installs a
//!   tombstone version);
//! * a read-only transaction **pins a snapshot**: the current *stable
//!   frontier* of the [`SnapshotRegistry`] (the largest timestamp `F` such
//!   that every commit with timestamp ≤ `F` has fully installed its
//!   versions);
//! * the **visibility rule**: at snapshot `S`, a row's visible value is
//!   the newest version with `ts <= S` (none, or a tombstone, means the
//!   row does not exist at `S`). Uncommitted working state never enters a
//!   chain, so a snapshot can never observe dirty or half-committed data.
//!
//! ## Garbage collection
//!
//! Versions accumulate as writers commit. [`VersionChain::prune`] reclaims
//! every version that is superseded by a newer version whose timestamp is
//! still at or below the *horizon* — the oldest timestamp any live
//! snapshot still pins ([`SnapshotRegistry::horizon`]). Pruning is safe
//! because a reader pinned at `S >= horizon` resolves to the newest
//! version `<= S`, and the newest version `<= horizon` (the one pruning
//! keeps) is at or below that.
//!
//! Writers and entangled grounding reads never look at chains: they run on
//! the working slots under 2PL exactly as before (the §3.3.3 argument for
//! grounding-read S locks is untouched).
//!
//! ## Example: snapshot visibility vs. read-your-writes
//!
//! The locked path reads the *working* state (a transaction sees its own
//! uncommitted writes); the snapshot path sees only versions installed at
//! or before its pin:
//!
//! ```
//! use youtopia_storage::{Schema, Table, Value, ValueType};
//!
//! let mut t = Table::new("Accounts", Schema::of(&[("balance", ValueType::Int)]));
//! let id = t.insert(vec![Value::Int(100)]).unwrap();
//! t.install_version(id, 1, Some(vec![Value::Int(100)])); // committed @ ts 1
//!
//! // A writer (holding its 2PL X lock) updates the working row…
//! t.update(id, vec![Value::Int(42)]).unwrap();
//! // …and *it* reads its own write through the working state:
//! assert_eq!(t.get(id).unwrap()[0], Value::Int(42));
//! // …but a snapshot pinned at ts 1 still sees the committed value:
//! assert_eq!(t.visible_row(id, 1).unwrap()[0], Value::Int(100));
//!
//! // Only at commit does the new version become visible to later pins:
//! t.install_version(id, 2, Some(vec![Value::Int(42)]));
//! assert_eq!(t.visible_row(id, 2).unwrap()[0], Value::Int(42));
//! assert_eq!(t.visible_row(id, 1).unwrap()[0], Value::Int(100));
//! ```

use crate::table::Row;
use parking_lot::Mutex;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};

/// A commit timestamp. `0` is "before all data"; the bootstrap commit
/// installs at `1`.
pub type CommitTs = u64;

/// One committed version of a row: its value as of `ts`, or a tombstone
/// (`None`) if the row was deleted by the commit at `ts`.
#[derive(Debug, Clone)]
pub struct Version {
    pub ts: CommitTs,
    pub row: Option<Row>,
}

/// The committed history of one row slot, oldest first.
///
/// Installs arrive in timestamp order *per chain*: conflicting writers are
/// serialized by 2PL (the second writer can only touch the row after the
/// first released its locks, which happens after the first installed), so
/// a chain never needs sorting. [`VersionChain::visible`] still scans for
/// the maximum qualifying timestamp, so the rule holds even for
/// hand-assembled chains.
///
/// ```
/// use youtopia_storage::mvcc::VersionChain;
/// use youtopia_storage::Value;
///
/// let mut chain = VersionChain::default();
/// chain.install(2, Some(vec![Value::Int(10)]));
/// chain.install(5, Some(vec![Value::Int(20)]));
/// chain.install(9, None); // deleted at ts 9
///
/// assert!(chain.visible(1).is_none(), "before the first version");
/// assert_eq!(chain.visible(2).unwrap()[0], Value::Int(10));
/// assert_eq!(chain.visible(7).unwrap()[0], Value::Int(20));
/// assert!(chain.visible(9).is_none(), "tombstone hides the row");
///
/// // GC: with no snapshot older than ts 6 alive, ts-2 is superseded.
/// assert_eq!(chain.prune(6), 1);
/// assert_eq!(chain.visible(7).unwrap()[0], Value::Int(20));
/// ```
#[derive(Debug, Clone, Default)]
pub struct VersionChain {
    versions: Vec<Version>,
}

impl VersionChain {
    /// Install the committed value (or tombstone) of this row at `ts`.
    /// A chain keeps **one** version per commit timestamp: when a
    /// transaction touches the same row several times (insert → update →
    /// delete), later installs at the same `ts` replace the earlier ones —
    /// only the transaction's final state is a committed version. Returns
    /// the row value such a replacement displaced, if any.
    pub fn install(&mut self, ts: CommitTs, row: Option<Row>) -> Option<Row> {
        if let Some(last) = self.versions.last_mut() {
            if last.ts == ts {
                return std::mem::replace(&mut last.row, row);
            }
        }
        self.versions.push(Version { ts, row });
        None
    }

    /// The row value visible to a snapshot pinned at `ts`: the newest
    /// version with `version.ts <= ts`; `None` if no version qualifies or
    /// the qualifying version is a tombstone.
    pub fn visible(&self, ts: CommitTs) -> Option<&Row> {
        self.versions
            .iter()
            .filter(|v| v.ts <= ts)
            .max_by_key(|v| v.ts)
            .and_then(|v| v.row.as_ref())
    }

    /// Drop every version that no live snapshot can reach: a version is
    /// reclaimable when a *newer* version with `ts <= horizon` supersedes
    /// it. Tombstones at or below the horizon with nothing newer are also
    /// dropped (the row is dead for every reachable snapshot). Returns the
    /// number of versions reclaimed.
    pub fn prune(&mut self, horizon: CommitTs) -> usize {
        self.prune_with(horizon, drop)
    }

    /// [`VersionChain::prune`], handing every reclaimed row value to
    /// `reclaimed` (vacuum checks their index postings for staleness).
    pub(crate) fn prune_with(
        &mut self,
        horizon: CommitTs,
        mut reclaimed: impl FnMut(Row),
    ) -> usize {
        let newest_at_horizon = self
            .versions
            .iter()
            .filter(|v| v.ts <= horizon)
            .map(|v| v.ts)
            .max();
        let Some(keep) = newest_at_horizon else {
            return 0;
        };
        let before = self.versions.len();
        self.versions.retain_mut(|v| {
            let retained = v.ts > keep || (v.ts == keep && v.row.is_some());
            if !retained {
                if let Some(row) = v.row.take() {
                    reclaimed(row);
                }
            }
            retained
        });
        before - self.versions.len()
    }

    /// Whether some future horizon could reclaim anything from this
    /// chain: a superseded version, or a lone tombstone. A chain holding
    /// at most one live value is at its fixpoint — [`VersionChain::prune`]
    /// returns 0 for it at every horizon.
    pub fn reclaimable(&self) -> bool {
        match self.versions.as_slice() {
            [] => false,
            [only] => only.row.is_none(),
            _ => true,
        }
    }

    /// Iterate the non-tombstone row values of every retained version —
    /// the keys vacuum must keep posted in the named indexes so snapshot
    /// readers can probe for rows whose working state has moved on.
    pub fn version_rows(&self) -> impl Iterator<Item = &Row> + Clone + '_ {
        self.versions.iter().filter_map(|v| v.row.as_ref())
    }

    /// Number of versions currently retained.
    pub fn len(&self) -> usize {
        self.versions.len()
    }

    pub fn is_empty(&self) -> bool {
        self.versions.is_empty()
    }

    /// Drop all history (used when a recovered table is re-sealed).
    pub fn clear(&mut self) {
        self.versions.clear();
    }
}

/// Hands out commit timestamps to writers and snapshot timestamps to
/// readers, and tracks which snapshots are still alive (the GC horizon).
///
/// The subtlety is out-of-order completion: commit batches *reserve*
/// timestamps in publish order but may finish installing their versions in
/// any order (they run on different scheduler threads). The **stable
/// frontier** only advances to `ts` once every batch with a timestamp
/// `<= ts` has completed, so a reader pinned at the frontier can never
/// observe a half-installed commit — and never misses a fully-installed
/// one below its pin.
#[derive(Debug, Default)]
pub struct SnapshotRegistry {
    /// Next timestamp to hand to a reserving commit batch (frontier-ahead).
    next: AtomicU64,
    inner: Mutex<RegistryInner>,
}

#[derive(Debug, Default)]
struct RegistryInner {
    /// Largest `ts` with every reservation `<= ts` completed.
    frontier: CommitTs,
    /// Completed reservations above the frontier (waiting on a gap).
    completed: BTreeSet<CommitTs>,
    /// Live snapshot pins: timestamp → refcount.
    pins: BTreeMap<CommitTs, usize>,
}

impl SnapshotRegistry {
    pub fn new() -> SnapshotRegistry {
        SnapshotRegistry::default()
    }

    /// Reserve the next commit timestamp (called once per commit batch,
    /// before its WAL publish, so the `Commit` records can carry it).
    pub fn reserve(&self) -> CommitTs {
        self.next.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Mark a reserved timestamp as fully installed. Returns the new
    /// stable frontier (which may still be below `ts` if an older batch
    /// has not completed yet).
    pub fn complete(&self, ts: CommitTs) -> CommitTs {
        let mut g = self.inner.lock();
        g.completed.insert(ts);
        loop {
            let next = g.frontier + 1;
            if !g.completed.remove(&next) {
                break;
            }
            g.frontier = next;
        }
        g.frontier
    }

    /// The current stable frontier.
    pub fn frontier(&self) -> CommitTs {
        self.inner.lock().frontier
    }

    /// Pin a snapshot at the stable frontier; pair with
    /// [`SnapshotRegistry::unpin`].
    pub fn pin(&self) -> CommitTs {
        let mut g = self.inner.lock();
        let ts = g.frontier;
        *g.pins.entry(ts).or_insert(0) += 1;
        ts
    }

    /// Release a pin taken by [`SnapshotRegistry::pin`].
    pub fn unpin(&self, ts: CommitTs) {
        let mut g = self.inner.lock();
        if let Some(n) = g.pins.get_mut(&ts) {
            *n -= 1;
            if *n == 0 {
                g.pins.remove(&ts);
            }
        }
    }

    /// The GC horizon: the oldest live snapshot, or the frontier when no
    /// snapshot is pinned. Versions superseded at or below this are
    /// unreachable.
    pub fn horizon(&self) -> CommitTs {
        let g = self.inner.lock();
        g.pins.keys().next().copied().unwrap_or(g.frontier)
    }

    /// Number of live pins (diagnostics/tests).
    pub fn live_pins(&self) -> usize {
        self.inner.lock().pins.values().sum()
    }

    /// Reset after recovery: the clock restarts at `ts` (all pre-crash
    /// snapshots are gone; the recovered state is sealed at `ts`).
    pub fn reset_to(&self, ts: CommitTs) {
        self.next.store(ts, Ordering::SeqCst);
        let mut g = self.inner.lock();
        g.frontier = ts;
        g.completed.clear();
        g.pins.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    fn row(v: i64) -> Row {
        vec![Value::Int(v)]
    }

    #[test]
    fn visibility_picks_newest_at_or_below() {
        let mut c = VersionChain::default();
        c.install(2, Some(row(10)));
        c.install(4, Some(row(20)));
        assert!(c.visible(0).is_none());
        assert!(c.visible(1).is_none());
        assert_eq!(c.visible(2).unwrap()[0], Value::Int(10));
        assert_eq!(c.visible(3).unwrap()[0], Value::Int(10));
        assert_eq!(c.visible(4).unwrap()[0], Value::Int(20));
        assert_eq!(c.visible(u64::MAX).unwrap()[0], Value::Int(20));
    }

    #[test]
    fn tombstones_hide_rows() {
        let mut c = VersionChain::default();
        c.install(1, Some(row(1)));
        c.install(3, None);
        c.install(5, Some(row(2)));
        assert_eq!(c.visible(2).unwrap()[0], Value::Int(1));
        assert!(c.visible(3).is_none());
        assert!(c.visible(4).is_none());
        assert_eq!(c.visible(5).unwrap()[0], Value::Int(2));
    }

    #[test]
    fn prune_keeps_the_horizon_version_and_everything_newer() {
        let mut c = VersionChain::default();
        c.install(1, Some(row(1)));
        c.install(3, Some(row(3)));
        c.install(7, Some(row(7)));
        assert_eq!(c.prune(0), 0, "nothing reachable to supersede");
        assert_eq!(c.prune(4), 1, "ts-1 superseded by ts-3");
        assert_eq!(c.len(), 2);
        assert_eq!(c.visible(4).unwrap()[0], Value::Int(3));
        assert_eq!(c.prune(7), 1, "ts-3 superseded by ts-7");
        assert_eq!(c.visible(9).unwrap()[0], Value::Int(7));
        assert_eq!(c.prune(9), 0, "latest version never pruned");
    }

    #[test]
    fn prune_drops_dead_tombstones() {
        let mut c = VersionChain::default();
        c.install(1, Some(row(1)));
        c.install(2, None);
        assert_eq!(c.prune(5), 2, "tombstone + its predecessor both dead");
        assert!(c.is_empty());
        // But a tombstone above the horizon survives.
        let mut c = VersionChain::default();
        c.install(1, Some(row(1)));
        c.install(9, None);
        assert_eq!(c.prune(5), 0);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn registry_frontier_waits_for_gaps() {
        let r = SnapshotRegistry::new();
        let t1 = r.reserve();
        let t2 = r.reserve();
        assert_eq!((t1, t2), (1, 2));
        // t2 completes first: the frontier must not jump over t1.
        assert_eq!(r.complete(t2), 0);
        assert_eq!(r.frontier(), 0);
        assert_eq!(r.complete(t1), 2, "gap filled, frontier covers both");
        assert_eq!(r.frontier(), 2);
    }

    #[test]
    fn pins_hold_the_horizon_back() {
        let r = SnapshotRegistry::new();
        let t1 = r.reserve();
        r.complete(t1);
        let s1 = r.pin();
        assert_eq!(s1, 1);
        let t2 = r.reserve();
        r.complete(t2);
        assert_eq!(r.frontier(), 2);
        assert_eq!(r.horizon(), 1, "oldest live pin, not the frontier");
        let s2 = r.pin();
        assert_eq!(s2, 2);
        r.unpin(s1);
        assert_eq!(r.horizon(), 2);
        r.unpin(s2);
        assert_eq!(r.horizon(), 2, "no pins: horizon = frontier");
        assert_eq!(r.live_pins(), 0);
    }

    #[test]
    fn reset_clears_everything() {
        let r = SnapshotRegistry::new();
        let t = r.reserve();
        r.complete(t);
        r.pin();
        r.reset_to(7);
        assert_eq!(r.frontier(), 7);
        assert_eq!(r.live_pins(), 0);
        assert_eq!(r.reserve(), 8, "clock restarts past the seal point");
    }
}
