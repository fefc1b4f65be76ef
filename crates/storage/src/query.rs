//! Select-project-join evaluation over any [`TableProvider`].
//!
//! Entangled-query WHERE clauses are restricted to select-project-join form
//! (§2 of the paper), and the classical statements in the workloads are SPJ
//! plus `INSERT`/`UPDATE`/`DELETE`. One evaluator therefore serves both the
//! SQL executor and grounding: a left-deep nested-loop join that pushes
//! constant filters and bound equi-join keys into per-table index lookups.

use crate::catalog::{StorageError, TableProvider};
use crate::expr::{CmpOp, Expr};
use crate::mvcc::CommitTs;
use crate::table::{Row, RowId, Table};
use crate::value::Value;
use std::ops::Bound;

/// A resolved SPJ query: join order, one predicate (conjunction), projection.
#[derive(Debug, Clone)]
pub struct SpjQuery {
    /// Tables in join order. The same table may appear twice (self-join via
    /// aliases, e.g. `User as u1, User as u2` in Appendix D).
    pub tables: Vec<String>,
    /// Boolean predicate over the join environment.
    pub predicate: Expr,
    /// Output expressions.
    pub projection: Vec<Expr>,
    /// Drop duplicate output rows.
    pub distinct: bool,
    /// Stop after this many output rows (the Social workload uses LIMIT 1).
    pub limit: Option<usize>,
}

impl SpjQuery {
    pub fn new(tables: Vec<String>, predicate: Expr, projection: Vec<Expr>) -> SpjQuery {
        SpjQuery {
            tables,
            predicate,
            projection,
            distinct: false,
            limit: None,
        }
    }
}

/// The result of evaluating an [`SpjQuery`]: output rows plus, when the
/// query is a bare single-table scan-with-equality, the ids of base rows
/// that matched (used for row-granularity locking).
#[derive(Debug, Clone, Default)]
pub struct QueryOutput {
    pub rows: Vec<Row>,
    /// For each output row, the base-table row ids (join order) it came
    /// from. Parallel to `rows` unless `distinct` merged duplicates, in
    /// which case provenance of the first witness is kept.
    pub provenance: Vec<Vec<RowId>>,
}

/// Access-path accounting for one evaluation: how many base rows were
/// materialized as join candidates (`rows_scanned` — O(table) per scanned
/// stage, O(matches) per probed stage) and how many stages were served by
/// an index (`index_lookups`, equality or btree-range).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ScanStats {
    pub rows_scanned: u64,
    pub index_lookups: u64,
}

impl ScanStats {
    /// Accumulate another evaluation's counts.
    pub fn add(&mut self, other: ScanStats) {
        self.rows_scanned += other.rows_scanned;
        self.index_lookups += other.index_lookups;
    }
}

/// Evaluate an SPJ query against any table source (an owned [`Database`]
/// or a pinned [`crate::concurrent::TableView`]), reading every row at the
/// source's visibility ([`TableProvider::as_of`]).
///
/// [`Database`]: crate::catalog::Database
pub fn eval_spj(db: &dyn TableProvider, q: &SpjQuery) -> Result<QueryOutput, StorageError> {
    let mut stats = ScanStats::default();
    eval_spj_counted(db, q, &mut stats)
}

/// [`eval_spj`] with access-path accounting: `stats` is incremented with
/// the rows scanned and index probes this evaluation performed.
pub fn eval_spj_counted(
    db: &dyn TableProvider,
    q: &SpjQuery,
    stats: &mut ScanStats,
) -> Result<QueryOutput, StorageError> {
    // Validate tables early so errors surface deterministically.
    for t in &q.tables {
        db.table(t)?;
    }
    let conjuncts: Vec<&Expr> = q.predicate.conjuncts();

    // Stage at which each conjunct becomes applicable.
    let mut stage_conjuncts: Vec<Vec<&Expr>> = vec![Vec::new(); q.tables.len().max(1)];
    let mut const_conjuncts: Vec<&Expr> = Vec::new();
    for c in &conjuncts {
        match c.max_table() {
            Some(k) => stage_conjuncts[k].push(c),
            None => const_conjuncts.push(c),
        }
    }
    // Constant-only conjuncts: if any is false, the result is empty.
    for c in const_conjuncts {
        if !c.eval_bool(&[]).map_err(eval_err)? {
            return Ok(QueryOutput::default());
        }
    }

    let mut out = QueryOutput::default();
    let mut seen = std::collections::HashSet::new();
    let mut env_rows: Vec<(RowId, Row)> = Vec::with_capacity(q.tables.len());
    join_rec(
        db,
        q,
        &stage_conjuncts,
        0,
        &mut env_rows,
        &mut out,
        &mut seen,
        stats,
    )?;
    Ok(out)
}

fn eval_err(_: crate::expr::EvalError) -> StorageError {
    // Type confusion inside a predicate behaves like an empty/failed scan in
    // the loose dialect; map it onto a schema error for visibility.
    StorageError::Schema(crate::schema::SchemaError::ArityMismatch {
        expected: 0,
        got: 0,
    })
}

/// Extract `(col-of-stage-k, value)` lookup pairs from the conjuncts
/// applicable at stage `k`, given already-bound rows.
fn lookup_pairs(stage: usize, conjs: &[&Expr], env: &[&[Value]]) -> Vec<(usize, Value)> {
    let mut pairs = Vec::new();
    for c in conjs {
        if let Expr::Cmp {
            op: CmpOp::Eq,
            lhs,
            rhs,
        } = c
        {
            let (colref, other) = match (lhs.as_ref(), rhs.as_ref()) {
                (Expr::Col { tbl, col }, o) if *tbl == stage => (Some(*col), o),
                (o, Expr::Col { tbl, col }) if *tbl == stage => (Some(*col), o),
                _ => (None, &Expr::Const(Value::Null)),
            };
            if let Some(col) = colref {
                // `other` must be computable from earlier stages only.
                let computable = other.max_table().is_none_or(|t| t < stage);
                if computable {
                    if let Ok(v) = other.eval(env) {
                        pairs.push((col, v));
                    }
                }
            }
        }
    }
    pairs
}

/// Serve stage `k`'s candidates from a named btree index when a range
/// conjunct (`<`, `<=`, `>`, `>=`) constrains an indexed column with a
/// bound computable from earlier stages. One-sided; residual conjuncts are
/// re-checked on every candidate (resolved at `at`), so over-approximation
/// and stale history-union postings are both safe.
fn range_probe<'t>(
    table: &'t Table,
    stage: usize,
    conjs: &[&Expr],
    env: &[&[Value]],
    at: Option<CommitTs>,
) -> Option<Vec<(RowId, &'t Row)>> {
    for c in conjs {
        let Expr::Cmp { op, lhs, rhs } = c else {
            continue;
        };
        // Normalize to `col <op> bound` with the column on stage `k`.
        let (col, other, op) = match (lhs.as_ref(), rhs.as_ref()) {
            (Expr::Col { tbl, col }, o) if *tbl == stage => (*col, o, *op),
            (o, Expr::Col { tbl, col }) if *tbl == stage => (*col, o, op.flip()),
            _ => continue,
        };
        if !matches!(op, CmpOp::Lt | CmpOp::Le | CmpOp::Gt | CmpOp::Ge) {
            continue;
        }
        if other.max_table().is_some_and(|t| t >= stage) {
            continue;
        }
        let Ok(bound) = other.eval(env) else { continue };
        let ix = table.named_indexes().btree_on_column(col)?;
        let (lo, hi) = match op {
            CmpOp::Lt => (Bound::Unbounded, Bound::Excluded(&bound)),
            CmpOp::Le => (Bound::Unbounded, Bound::Included(&bound)),
            CmpOp::Gt => (Bound::Excluded(&bound), Bound::Unbounded),
            CmpOp::Ge => (Bound::Included(&bound), Bound::Unbounded),
            _ => unreachable!(),
        };
        let ids = ix.probe_range(&[], lo, hi)?;
        return Some(
            ids.into_iter()
                .filter_map(|id| table.row_at(id, at).map(|r| (id, r)))
                .collect(),
        );
    }
    None
}

/// Evaluate a **single-table** query over a pre-filtered candidate set —
/// the tail of an index-served plan, locked or snapshot: candidates came
/// from a probe and were resolved at the reader's visibility
/// ([`Table::row_at`]), and this applies the full predicate (which also
/// screens out stale history-union postings), projection, DISTINCT and
/// LIMIT. Candidates are borrowed: only rows that make it into the output
/// are copied.
pub fn eval_spj_rows<'r>(
    q: &SpjQuery,
    candidates: impl IntoIterator<Item = (RowId, &'r Row)>,
) -> Result<QueryOutput, StorageError> {
    debug_assert_eq!(q.tables.len(), 1, "candidate evaluation is single-table");
    let conjuncts: Vec<&Expr> = q.predicate.conjuncts();
    // The same cheap equality pre-filter a scanned join stage applies:
    // most candidates of a multi-conjunct point read fall to it before
    // the expression evaluator (which copies values) runs.
    let pairs = lookup_pairs(0, &conjuncts, &[]);
    let mut out = QueryOutput::default();
    let mut seen = std::collections::HashSet::new();
    'rows: for (id, row) in candidates {
        if !pairs.iter().all(|(c, v)| &row[*c] == v) {
            continue;
        }
        let env = [row.as_slice()];
        for c in &conjuncts {
            if !c.eval_bool(&env).map_err(eval_err)? {
                continue 'rows;
            }
        }
        let projected: Row = q
            .projection
            .iter()
            .map(|e| e.eval(&env).map_err(eval_err))
            .collect::<Result<_, _>>()?;
        if q.distinct && !seen.insert(projected.clone()) {
            continue;
        }
        out.provenance.push(vec![id]);
        out.rows.push(projected);
        if let Some(lim) = q.limit {
            if out.rows.len() >= lim {
                break;
            }
        }
    }
    Ok(out)
}

#[allow(clippy::too_many_arguments)]
fn join_rec(
    db: &dyn TableProvider,
    q: &SpjQuery,
    stage_conjuncts: &[Vec<&Expr>],
    stage: usize,
    env_rows: &mut Vec<(RowId, Row)>,
    out: &mut QueryOutput,
    seen: &mut std::collections::HashSet<Row>,
    stats: &mut ScanStats,
) -> Result<(), StorageError> {
    if let Some(lim) = q.limit {
        if out.rows.len() >= lim {
            return Ok(());
        }
    }
    if stage == q.tables.len() {
        let env: Vec<&[Value]> = env_rows.iter().map(|(_, r)| r.as_slice()).collect();
        let row: Row = q
            .projection
            .iter()
            .map(|e| e.eval(&env).map_err(eval_err))
            .collect::<Result<_, _>>()?;
        if q.distinct && !seen.insert(row.clone()) {
            return Ok(());
        }
        out.provenance
            .push(env_rows.iter().map(|(id, _)| *id).collect());
        out.rows.push(row);
        return Ok(());
    }

    // Candidate rows: indexed lookup when equality pairs exist, else scan
    // — either way read at the provider's visibility. Collected into owned
    // form so the borrow of `env_rows` ends before the recursion mutates it.
    let candidates: Vec<(RowId, Row)> = {
        let table = db.table(&q.tables[stage])?;
        let at = db.as_of();
        let env: Vec<&[Value]> = env_rows.iter().map(|(_, r)| r.as_slice()).collect();
        let pairs_owned = lookup_pairs(stage, &stage_conjuncts[stage], &env);
        let pairs: Vec<(usize, &Value)> = pairs_owned.iter().map(|(c, v)| (*c, v)).collect();
        // Access path, best first: equality probe of a named index the
        // pairs cover, btree range probe, full scan.
        let probed: Option<Vec<(RowId, &Row)>> = if pairs.is_empty() {
            None
        } else {
            table.lookup_indexed(&pairs, at)
        };
        let probed =
            probed.or_else(|| range_probe(table, stage, &stage_conjuncts[stage], &env, at));
        let hits: Vec<(RowId, &Row)> = match probed {
            Some(hits) => {
                stats.index_lookups += 1;
                stats.rows_scanned += hits.len() as u64;
                hits
            }
            None => {
                // Every row the reader sees is examined, whether or not
                // it survives the equality filter.
                let keep = |(_, row): &(RowId, &Row)| pairs.iter().all(|(c, v)| &row[*c] == *v);
                let (hits, examined) = match at {
                    None => (table.scan().filter(keep).collect(), table.len() as u64),
                    Some(ts) => {
                        let mut visible = 0;
                        let rows = table.snapshot_scan(ts).inspect(|_| visible += 1);
                        (rows.filter(keep).collect(), visible)
                    }
                };
                stats.rows_scanned += examined;
                hits
            }
        };
        hits.into_iter().map(|(id, r)| (id, r.clone())).collect()
    };

    for (id, row) in candidates {
        env_rows.push((id, row));
        // Check all conjuncts that become applicable at this stage.
        let ok = {
            let env: Vec<&[Value]> = env_rows.iter().map(|(_, r)| r.as_slice()).collect();
            let mut ok = true;
            for c in &stage_conjuncts[stage] {
                if !c.eval_bool(&env).map_err(eval_err)? {
                    ok = false;
                    break;
                }
            }
            ok
        };
        if ok {
            join_rec(
                db,
                q,
                stage_conjuncts,
                stage + 1,
                env_rows,
                out,
                seen,
                stats,
            )?;
        }
        env_rows.pop();
        if let Some(lim) = q.limit {
            if out.rows.len() >= lim {
                return Ok(());
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Database;
    use crate::schema::Schema;
    use crate::value::ValueType;

    /// Figure 1(a): the flight database with airlines.
    fn fig1_db() -> Database {
        let mut db = Database::new();
        db.create_table(
            "Flights",
            Schema::of(&[
                ("fno", ValueType::Int),
                ("fdate", ValueType::Date),
                ("dest", ValueType::Str),
            ]),
        )
        .unwrap();
        db.create_table(
            "Airlines",
            Schema::of(&[("fno", ValueType::Int), ("airline", ValueType::Str)]),
        )
        .unwrap();
        for (fno, d, dest) in [
            (122, 100, "LA"),
            (123, 101, "LA"),
            (124, 100, "LA"),
            (235, 102, "Paris"),
        ] {
            db.insert(
                "Flights",
                vec![Value::Int(fno), Value::Date(d), Value::str(dest)],
            )
            .unwrap();
        }
        for (fno, a) in [
            (122, "United"),
            (123, "United"),
            (124, "USAir"),
            (235, "Delta"),
        ] {
            db.insert("Airlines", vec![Value::Int(fno), Value::str(a)])
                .unwrap();
        }
        db
    }

    #[test]
    fn single_table_filter() {
        let db = fig1_db();
        // SELECT fno FROM Flights WHERE dest = 'LA'
        let q = SpjQuery::new(
            vec!["Flights".into()],
            Expr::eq(Expr::col(0, 2), Expr::Const(Value::str("LA"))),
            vec![Expr::col(0, 0)],
        );
        let out = eval_spj(&db, &q).unwrap();
        let fnos: Vec<i64> = out.rows.iter().map(|r| r[0].as_int().unwrap()).collect();
        assert_eq!(fnos, vec![122, 123, 124]);
        assert_eq!(out.provenance.len(), 3);
    }

    #[test]
    fn minnies_join() {
        let db = fig1_db();
        // SELECT fno, fdate FROM Flights F, Airlines A
        // WHERE F.dest='LA' AND F.fno=A.fno AND A.airline='United'
        let q = SpjQuery::new(
            vec!["Flights".into(), "Airlines".into()],
            Expr::and_all(vec![
                Expr::eq(Expr::col(0, 2), Expr::Const(Value::str("LA"))),
                Expr::eq(Expr::col(0, 0), Expr::col(1, 0)),
                Expr::eq(Expr::col(1, 1), Expr::Const(Value::str("United"))),
            ]),
            vec![Expr::col(0, 0), Expr::col(0, 1)],
        );
        let out = eval_spj(&db, &q).unwrap();
        let fnos: Vec<i64> = out.rows.iter().map(|r| r[0].as_int().unwrap()).collect();
        assert_eq!(fnos, vec![122, 123]);
    }

    #[test]
    fn join_uses_index_when_present() {
        let mut db = fig1_db();
        db.table_mut("Airlines")
            .unwrap()
            .create_named_index("airlines_af", &["airline", "fno"], crate::IndexKind::Hash)
            .unwrap();
        let q = SpjQuery::new(
            vec!["Flights".into(), "Airlines".into()],
            Expr::and_all(vec![
                Expr::eq(Expr::col(0, 0), Expr::col(1, 0)),
                Expr::eq(Expr::col(1, 1), Expr::Const(Value::str("United"))),
            ]),
            vec![Expr::col(0, 0)],
        );
        let mut stats = ScanStats::default();
        let out = eval_spj_counted(&db, &q, &mut stats).unwrap();
        let fnos: Vec<i64> = out.rows.iter().map(|r| r[0].as_int().unwrap()).collect();
        assert_eq!(fnos, vec![122, 123]);
        // The outer table is scanned (4 rows); the inner stage's two
        // equality pairs cover the composite index exactly, so it is probed
        // once per outer row and only the two United flights come back.
        assert_eq!(stats.index_lookups, 4);
        assert_eq!(stats.rows_scanned, 4 + 2);
    }

    #[test]
    fn self_join_with_aliases() {
        let mut db = Database::new();
        db.create_table(
            "Friends",
            Schema::of(&[("uid1", ValueType::Int), ("uid2", ValueType::Int)]),
        )
        .unwrap();
        db.insert("Friends", vec![Value::Int(1), Value::Int(2)])
            .unwrap();
        db.insert("Friends", vec![Value::Int(2), Value::Int(3)])
            .unwrap();
        // Friends-of-friends: F1.uid2 = F2.uid1.
        let q = SpjQuery::new(
            vec!["Friends".into(), "Friends".into()],
            Expr::eq(Expr::col(0, 1), Expr::col(1, 0)),
            vec![Expr::col(0, 0), Expr::col(1, 1)],
        );
        let out = eval_spj(&db, &q).unwrap();
        assert_eq!(out.rows, vec![vec![Value::Int(1), Value::Int(3)]]);
    }

    #[test]
    fn distinct_and_limit() {
        let db = fig1_db();
        let q = SpjQuery {
            tables: vec!["Flights".into()],
            predicate: Expr::eq(Expr::col(0, 2), Expr::Const(Value::str("LA"))),
            projection: vec![Expr::col(0, 2)],
            distinct: true,
            limit: None,
        };
        let out = eval_spj(&db, &q).unwrap();
        assert_eq!(out.rows, vec![vec![Value::str("LA")]]);

        let q = SpjQuery {
            tables: vec!["Flights".into()],
            predicate: Expr::Const(Value::Bool(true)),
            projection: vec![Expr::col(0, 0)],
            distinct: false,
            limit: Some(2),
        };
        let out = eval_spj(&db, &q).unwrap();
        assert_eq!(out.rows.len(), 2);
    }

    #[test]
    fn constant_false_short_circuits() {
        let db = fig1_db();
        let q = SpjQuery::new(
            vec!["Flights".into(), "Airlines".into()],
            Expr::Const(Value::Bool(false)),
            vec![Expr::col(0, 0)],
        );
        let out = eval_spj(&db, &q).unwrap();
        assert!(out.rows.is_empty());
    }

    #[test]
    fn missing_table_errors() {
        let db = fig1_db();
        let q = SpjQuery::new(vec!["Nope".into()], Expr::Const(Value::Bool(true)), vec![]);
        assert!(matches!(
            eval_spj(&db, &q),
            Err(StorageError::NoSuchTable(_))
        ));
    }

    #[test]
    fn projection_with_arithmetic() {
        let db = fig1_db();
        // SELECT fdate + 1 FROM Flights WHERE fno = 122
        let q = SpjQuery::new(
            vec!["Flights".into()],
            Expr::eq(Expr::col(0, 0), Expr::Const(Value::Int(122))),
            vec![Expr::Add(
                Box::new(Expr::col(0, 1)),
                Box::new(Expr::Const(Value::Int(1))),
            )],
        );
        let out = eval_spj(&db, &q).unwrap();
        assert_eq!(out.rows, vec![vec![Value::Date(101)]]);
    }

    #[test]
    fn range_predicates() {
        let db = fig1_db();
        let q = SpjQuery::new(
            vec!["Flights".into()],
            Expr::cmp(CmpOp::Ge, Expr::col(0, 1), Expr::Const(Value::Date(101))),
            vec![Expr::col(0, 0)],
        );
        let out = eval_spj(&db, &q).unwrap();
        let fnos: Vec<i64> = out.rows.iter().map(|r| r[0].as_int().unwrap()).collect();
        assert_eq!(fnos, vec![123, 235]);
    }

    #[test]
    fn empty_join_order_yields_single_projected_row() {
        let db = fig1_db();
        // SELECT 1 WHERE TRUE — zero tables: one output row.
        let q = SpjQuery::new(
            vec![],
            Expr::Const(Value::Bool(true)),
            vec![Expr::Const(Value::Int(1))],
        );
        let out = eval_spj(&db, &q).unwrap();
        assert_eq!(out.rows, vec![vec![Value::Int(1)]]);
    }
}
