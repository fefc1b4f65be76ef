//! A snapshot read is a timestamp on the read view, not a copy of the
//! table — and the two must agree.
//!
//! Evaluation *as of* `ts` runs on the live tables: candidates come from
//! the history-union indexes (or a slot walk), each is resolved through
//! its version chain, and the key is re-checked on the resolved row. The
//! reference is the path this replaced: materialize a bare from-scratch
//! copy of exactly the rows visible at `ts` and evaluate on that, at
//! working state, by scans. Under random insert / update / delete / commit
//! / abort / vacuum histories on two indexed tables, both must return the
//! same rows with the same provenance for random single- and two-table SPJ
//! queries, at every timestamp a snapshot may still be pinned at and at
//! working state.

use proptest::prelude::*;
use youtopia_storage::{
    eval_spj, CmpOp, ConcurrentCatalog, Database, Expr, IndexKind, Row, RowId, Schema, SpjQuery,
    Table, Value, ValueType,
};

const TABLES: [&str; 2] = ["T", "U"];
const COLS: usize = 3;

#[derive(Debug, Clone)]
enum Op {
    Insert(u8, [i64; COLS]),
    Update(u8, u8, [i64; COLS]),
    Delete(u8, u8),
    /// Install every uncommitted change at a fresh timestamp.
    Commit,
    /// Undo every uncommitted change (`insert_at` / `delete`, as the
    /// engine's abort does).
    Abort,
    /// Vacuum: prune behind a horizon at or below the frontier, resync.
    Prune(u8),
}

fn arb_op() -> impl Strategy<Value = Op> {
    let vals = || (0i64..4, 0i64..4, 0i64..3).prop_map(|(a, b, c)| [a, b, c]);
    prop_oneof![
        (any::<u8>(), vals()).prop_map(|(t, v)| Op::Insert(t, v)),
        (any::<u8>(), vals()).prop_map(|(t, v)| Op::Insert(t, v)),
        (any::<u8>(), any::<u8>(), vals()).prop_map(|(t, r, v)| Op::Update(t, r, v)),
        (any::<u8>(), any::<u8>(), vals()).prop_map(|(t, r, v)| Op::Update(t, r, v)),
        (any::<u8>(), any::<u8>()).prop_map(|(t, r)| Op::Delete(t, r)),
        Just(Op::Commit),
        Just(Op::Commit),
        Just(Op::Abort),
        any::<u8>().prop_map(Op::Prune),
    ]
}

/// One conjunct, undecoded: (stage, column, operator, right-hand side,
/// constant). Decoded against the query's table count by [`query`].
type RawConjunct = (u8, u8, u8, u8, i64);

/// A random SPJ query over one or two of the tables (self-joins
/// included), plus the byte that picks the timestamp it is read at.
fn arb_query() -> impl Strategy<Value = (Vec<u8>, Vec<RawConjunct>, u8)> {
    (
        prop::collection::vec(any::<u8>(), 1..3),
        prop::collection::vec(
            (any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>(), 0i64..4),
            0..4,
        ),
        any::<u8>(),
    )
}

fn query(tables: &[u8], conjuncts: &[RawConjunct]) -> SpjQuery {
    let n = tables.len();
    let conjuncts = conjuncts.iter().map(|&(stage, col, op, rhs, k)| {
        let stage = stage as usize % n;
        let op = [
            CmpOp::Eq,
            CmpOp::Eq,
            CmpOp::Eq,
            CmpOp::Lt,
            CmpOp::Ge,
            CmpOp::Le,
        ][op as usize % 6];
        // An inner-stage conjunct may compare against an outer column —
        // the bound equi-join keys the evaluator pushes into index probes.
        let rhs = if stage == 1 && rhs % 2 == 0 {
            Expr::col(0, rhs as usize / 2 % COLS)
        } else {
            Expr::Const(Value::Int(k))
        };
        Expr::cmp(op, Expr::col(stage, col as usize % COLS), rhs)
    });
    SpjQuery::new(
        tables
            .iter()
            .map(|t| TABLES[*t as usize % 2].to_string())
            .collect(),
        Expr::and_all(conjuncts.collect()),
        (0..n)
            .flat_map(|t| (0..COLS).map(move |c| Expr::col(t, c)))
            .collect(),
    )
}

fn schema() -> Schema {
    Schema::of(&[
        ("a", ValueType::Int),
        ("b", ValueType::Int),
        ("c", ValueType::Int),
    ])
}

fn row(v: [i64; COLS]) -> Row {
    v.iter().map(|x| Value::Int(*x)).collect()
}

/// The committed history of one table as the test itself recorded it:
/// per row id, every `(commit ts, value-or-tombstone)` in commit order.
/// Never pruned — reads below a vacuum horizon are simply not asked for.
type History = Vec<Vec<(u64, Option<Row>)>>;

fn visible(history: &History, id: usize, ts: u64) -> Option<&Row> {
    let newest = history[id].iter().rev().find(|(t, _)| *t <= ts)?;
    newest.1.as_ref()
}

/// The reference materializer — the per-snapshot table copy the engine
/// used to build, kept here as the thing to agree with: a bare table
/// holding exactly `rows`, at their row ids, with no index, so the
/// reference evaluation is all scans over working state.
fn materialize<'a>(name: &str, rows: impl Iterator<Item = (RowId, &'a Row)>) -> Table {
    let mut t = Table::new(name, schema());
    for (id, r) in rows {
        t.insert_at(id, r.clone()).expect("schema ok");
    }
    t
}

/// Output rows paired with their provenance, order-insensitive (a range
/// probe walks key order, a scan id order).
fn canonical(db: &dyn youtopia_storage::TableProvider, q: &SpjQuery) -> Vec<(Row, Vec<RowId>)> {
    let out = eval_spj(db, q).expect("query evaluates");
    let mut rows: Vec<_> = out.rows.into_iter().zip(out.provenance).collect();
    rows.sort();
    rows
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn as_of_evaluation_equals_evaluation_on_a_materialized_copy(
        ops in prop::collection::vec(arb_op(), 1..80),
        queries in prop::collection::vec(arb_query(), 1..6),
    ) {
        let catalog = ConcurrentCatalog::new();
        for name in TABLES {
            catalog.create_table(name, schema()).expect("fresh catalog");
        }
        {
            let t = catalog.handle("T").expect("created");
            let mut t = t.write();
            t.create_named_index("t_a", &["a"], IndexKind::Hash).expect("index");
            t.create_named_index("t_bc", &["b", "c"], IndexKind::Btree).expect("index");
            let u = catalog.handle("U").expect("created");
            let mut u = u.write();
            u.create_named_index("u_a", &["a"], IndexKind::Btree).expect("index");
            u.create_named_index("u_cb", &["c", "b"], IndexKind::Hash).expect("index");
        }
        let handles = [catalog.handle("T").expect("created"), catalog.handle("U").expect("created")];
        let mut history: [History; 2] = [Vec::new(), Vec::new()];
        let mut dirty: [Vec<usize>; 2] = [Vec::new(), Vec::new()];
        let (mut now, mut horizon) = (0u64, 0u64);

        for (step, op) in ops.iter().enumerate() {
            match *op {
                Op::Insert(t, v) => {
                    let t = t as usize % 2;
                    let id = handles[t].write().insert(row(v)).expect("schema ok");
                    history[t].push(Vec::new());
                    dirty[t].push(id.0 as usize);
                }
                Op::Update(t, r, v) if !history[t as usize % 2].is_empty() => {
                    let t = t as usize % 2;
                    let id = r as usize % history[t].len();
                    if handles[t].write().update(RowId(id as u64), row(v)).expect("schema ok").is_some() {
                        dirty[t].push(id);
                    }
                }
                Op::Delete(t, r) if !history[t as usize % 2].is_empty() => {
                    let t = t as usize % 2;
                    let id = r as usize % history[t].len();
                    if handles[t].write().delete(RowId(id as u64)).is_some() {
                        dirty[t].push(id);
                    }
                }
                Op::Commit => {
                    now += 1;
                    for t in 0..2 {
                        let mut table = handles[t].write();
                        for id in dirty[t].drain(..) {
                            let committed = table.get(RowId(id as u64)).cloned();
                            if history[t][id].last().is_some_and(|(ts, _)| *ts == now) {
                                history[t][id].pop();
                            }
                            history[t][id].push((now, committed.clone()));
                            table.install_version(RowId(id as u64), now, committed);
                        }
                    }
                }
                Op::Abort => {
                    for t in 0..2 {
                        let mut table = handles[t].write();
                        for id in dirty[t].drain(..) {
                            match visible(&history[t], id, now) {
                                Some(r) => table.insert_at(RowId(id as u64), r.clone()).expect("schema ok"),
                                None => drop(table.delete(RowId(id as u64))),
                            }
                        }
                    }
                }
                Op::Prune(h) => {
                    horizon = horizon.max(h as u64 % (now + 1));
                    for h in &handles {
                        let mut table = h.write();
                        table.prune_versions(horizon);
                        table.resync_named_indexes();
                    }
                }
                _ => {}
            }

            // One query per step, at one timestamp a snapshot could still
            // be pinned at — or at working state.
            let (tables, conjuncts, pick) = &queries[step % queries.len()];
            let q = query(tables, conjuncts);
            let at = match *pick as u64 % (now - horizon + 2) {
                0 => None,
                n => Some(horizon + n - 1),
            };
            let snapshot = catalog.snapshot();
            let live = snapshot.read_view(&TABLES).at(at);
            let copy = Database::from_tables((0..2).map(|t| {
                let table = handles[t].read();
                match at {
                    None => materialize(TABLES[t], table.scan()),
                    Some(ts) => materialize(
                        TABLES[t],
                        (0..history[t].len())
                            .filter_map(|id| visible(&history[t], id, ts).map(|r| (RowId(id as u64), r))),
                    ),
                }
            }));
            prop_assert_eq!(canonical(&live, &q), canonical(&copy, &q), "at {:?}: {:?}", at, q);

            // The probe itself, not just the evaluator above it (which
            // re-applies every conjunct): what an index lookup returns as
            // of `at` is what a scan of the copy finds.
            let (k, m) = (Value::Int(pick.count_ones() as i64 % 4), Value::Int(*pick as i64 % 3));
            for (t, pairs) in [
                (0, vec![(0, &k)]),
                (0, vec![(2, &m), (1, &k)]),
                (1, vec![(0, &k)]),
                (1, vec![(1, &k), (2, &m)]),
            ] {
                let table = handles[t].read();
                let probed = table.lookup_indexed(&pairs, at);
                prop_assert!(probed.is_some(), "{:?} is covered by an index", pairs);
                let reference = copy.table(TABLES[t]).expect("copied");
                prop_assert!(reference.lookup_indexed(&pairs, None).is_none(), "the copy is bare");
                prop_assert_eq!(probed.unwrap_or_default(), reference.lookup(&pairs), "at {:?}", at);
            }
        }
    }
}
