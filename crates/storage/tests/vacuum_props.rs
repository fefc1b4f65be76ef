//! Incremental vacuum equals the full scan it replaced.
//!
//! `Table::prune_versions` visits only the chains on its work-list and
//! `Table::resync_named_indexes` only the recorded stale-posting
//! candidates. Under arbitrary mutation sequences both must land exactly
//! where the O(table) versions did: the pruned count and retained-version
//! total of a full scan over every chain (modelled with public
//! `VersionChain`s), and index contents identical to a from-scratch
//! rebuild of a cloned table.

use proptest::prelude::*;
use youtopia_storage::{IndexKind, Row, RowId, Schema, Table, Value, ValueType, VersionChain};

#[derive(Debug, Clone)]
enum Op {
    Insert(i64, i64),
    /// Re-keys every index, only the composite one, or none, depending on
    /// how the drawn values fall against the row's current ones.
    Update(u8, i64, i64),
    Delete(u8),
    /// Abort-style undo: put a value back at a slot, live or deleted.
    InsertAt(u8, i64, i64),
    /// Commit the slot's heap state (a tombstone if deleted); `false`
    /// reuses the previous commit timestamp, displacing that version.
    Commit(u8, bool),
    /// Install a value the heap never held.
    Install(u8, i64, i64),
    Prune(u8),
    Resync,
    Seal,
    Truncate,
}

/// `op` once in `one_in` draws, a resync otherwise (the shim's
/// `prop_oneof!` is uniform; the resets would otherwise keep histories
/// too short to be interesting).
fn rarely(op: Op, one_in: u8) -> impl Strategy<Value = Op> {
    (0..one_in).prop_map(move |n| if n == 0 { op.clone() } else { Op::Resync })
}

fn arb_op() -> impl Strategy<Value = Op> {
    let key = || (0i64..4, 0i64..3);
    prop_oneof![
        key().prop_map(|(a, b)| Op::Insert(a, b)),
        key().prop_map(|(a, b)| Op::Insert(a, b)),
        (any::<u8>(), key()).prop_map(|(r, (a, b))| Op::Update(r, a, b)),
        (any::<u8>(), key()).prop_map(|(r, (a, b))| Op::Update(r, a, b)),
        any::<u8>().prop_map(Op::Delete),
        (any::<u8>(), key()).prop_map(|(r, (a, b))| Op::InsertAt(r, a, b)),
        (any::<u8>(), any::<bool>()).prop_map(|(r, bump)| Op::Commit(r, bump)),
        (any::<u8>(), any::<bool>()).prop_map(|(r, bump)| Op::Commit(r, bump)),
        (any::<u8>(), any::<bool>()).prop_map(|(r, bump)| Op::Commit(r, bump)),
        (any::<u8>(), key()).prop_map(|(r, (a, b))| Op::Install(r, a, b)),
        any::<u8>().prop_map(Op::Prune),
        any::<u8>().prop_map(Op::Prune),
        Just(Op::Resync),
        Just(Op::Resync),
        rarely(Op::Seal, 12),
        rarely(Op::Truncate, 24),
    ]
}

fn row(a: i64, b: i64) -> Row {
    vec![Value::Int(a), Value::Int(b)]
}

fn indexed_table() -> Table {
    let mut t = Table::new(
        "t",
        Schema::of(&[("a", ValueType::Int), ("b", ValueType::Int)]),
    );
    t.create_named_index("a_hash", &["a"], IndexKind::Hash)
        .expect("index");
    t.create_named_index("a_btree", &["a"], IndexKind::Btree)
        .expect("index");
    t.create_named_index("ab", &["a", "b"], IndexKind::Btree)
        .expect("index");
    t
}

/// The full-scan model of the committed history: one public
/// `VersionChain` per slot, pruned by visiting all of them.
#[derive(Default)]
struct History {
    chains: Vec<VersionChain>,
}

impl History {
    fn install(&mut self, id: RowId, ts: u64, row: Option<Row>) {
        let idx = id.0 as usize;
        if idx >= self.chains.len() {
            self.chains.resize_with(idx + 1, VersionChain::default);
        }
        self.chains[idx].install(ts, row);
    }

    fn prune(&mut self, horizon: u64) -> usize {
        self.chains.iter_mut().map(|c| c.prune(horizon)).sum()
    }

    fn version_count(&self) -> usize {
        self.chains.iter().map(|c| c.len()).sum()
    }
}

fn assert_indexes_match_rebuild(t: &Table) -> Result<(), TestCaseError> {
    let mut rebuilt = t.clone();
    rebuilt.rebuild_named_indexes();
    for (ix, want) in t.named_indexes().iter().zip(rebuilt.named_indexes().iter()) {
        prop_assert_eq!(ix.entries(), want.entries(), "index {}", ix.name());
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn incremental_vacuum_equals_full_scan_and_rebuild(
        ops in prop::collection::vec(arb_op(), 1..120),
    ) {
        let mut t = indexed_table();
        let mut history = History::default();
        let mut slots = 0u64;
        let mut ts = 1u64;
        for op in ops {
            let pick = |r: u8| RowId(r as u64 % slots.max(1));
            match op {
                Op::Insert(a, b) => {
                    t.insert(row(a, b)).expect("schema ok");
                    slots += 1;
                }
                Op::Update(r, a, b) if slots > 0 => {
                    t.update(pick(r), row(a, b)).expect("schema ok");
                }
                Op::Delete(r) if slots > 0 => {
                    t.delete(pick(r));
                }
                Op::InsertAt(r, a, b) if slots > 0 => {
                    t.insert_at(pick(r), row(a, b)).expect("schema ok");
                }
                Op::Commit(r, bump) if slots > 0 => {
                    ts += bump as u64;
                    let id = pick(r);
                    let committed = t.get(id).cloned();
                    history.install(id, ts, committed.clone());
                    t.install_version(id, ts, committed);
                }
                Op::Install(r, a, b) if slots > 0 => {
                    ts += 1;
                    let id = pick(r);
                    history.install(id, ts, Some(row(a, b)));
                    t.install_version(id, ts, Some(row(a, b)));
                }
                Op::Prune(h) => {
                    let horizon = h as u64 % (ts + 2);
                    let pruned = t.prune_versions(horizon);
                    prop_assert_eq!(pruned, history.prune(horizon), "horizon {}", horizon);
                }
                Op::Resync => {
                    t.resync_named_indexes();
                    assert_indexes_match_rebuild(&t)?;
                    prop_assert!(!t.resync_named_indexes(), "candidates are consumed");
                }
                Op::Seal => {
                    ts += 1;
                    t.seal_versions(ts);
                    history = History::default();
                    for id in 0..slots {
                        if let Some(r) = t.get(RowId(id)) {
                            history.install(RowId(id), ts, Some(r.clone()));
                        }
                    }
                    // Sealing settles both work-lists on its own.
                    assert_indexes_match_rebuild(&t)?;
                    prop_assert!(!t.resync_named_indexes());
                    prop_assert_eq!(t.prune_versions(u64::MAX), 0);
                }
                Op::Truncate => {
                    t.truncate();
                    history = History::default();
                    slots = 0;
                    prop_assert!(!t.resync_named_indexes());
                    prop_assert_eq!(t.prune_versions(u64::MAX), 0);
                    prop_assert!(t.named_indexes().iter().all(|ix| ix.key_count() == 0));
                }
                _ => {}
            }
            prop_assert_eq!(t.version_count(), history.version_count());
        }
        // Snapshot visibility is what the retained versions are for.
        for at in 0..=ts {
            for id in 0..slots {
                let want = history.chains.get(id as usize).and_then(|c| c.visible(at));
                prop_assert_eq!(t.visible_row(RowId(id), at), want);
            }
        }
        // With the horizon past every commit, one last vacuum leaves one
        // live version per surviving row and exact postings.
        prop_assert_eq!(t.prune_versions(u64::MAX), history.prune(u64::MAX));
        prop_assert_eq!(t.version_count(), history.version_count());
        t.resync_named_indexes();
        assert_indexes_match_rebuild(&t)?;
    }
}
