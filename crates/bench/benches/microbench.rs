//! Component microbenchmarks: entangled-query evaluation (grounding +
//! coordinating-set search), lock manager throughput, WAL append/recovery,
//! entanglement-group lookups, and the storage vacuum.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use entangled_txn::GroupManager;
use youtopia_entangle::{from_ast, ground, solve, SolveInput, SolverConfig};
use youtopia_lock::{LockManager, LockMode, Resource, TxId};
use youtopia_sql::{parse_statement, Statement, VarEnv};
use youtopia_storage::{Database, IndexKind, RowId, Schema, Table, Value, ValueType};
use youtopia_wal::{recover, LogRecord, Wal};

fn flights_db(n: i64) -> Database {
    let mut db = Database::new();
    db.create_table(
        "Flights",
        Schema::of(&[("fno", ValueType::Int), ("dest", ValueType::Str)]),
    )
    .unwrap();
    for i in 0..n {
        db.insert("Flights", vec![Value::Int(i), Value::str("LA")])
            .unwrap();
    }
    db
}

fn bench_entangle(c: &mut Criterion) {
    let mut group = c.benchmark_group("entangle-eval");
    for n in [10i64, 100, 1000] {
        let db = flights_db(n);
        let q = |me: &str, other: &str| {
            let sql = format!(
                "SELECT '{me}', fno INTO ANSWER R \
                 WHERE fno IN (SELECT fno FROM Flights WHERE dest='LA') \
                 AND ('{other}', fno) IN ANSWER R CHOOSE 1"
            );
            let Statement::Entangled(eq) = parse_statement(&sql).unwrap() else {
                panic!()
            };
            from_ast(&eq, &VarEnv::new()).unwrap()
        };
        let (a, b) = (q("Mickey", "Minnie"), q("Minnie", "Mickey"));
        group.bench_with_input(BenchmarkId::new("pair", n), &n, |bch, _| {
            bch.iter(|| {
                let ga = ground(&db, &a, &VarEnv::new()).unwrap();
                let gb = ground(&db, &b, &VarEnv::new()).unwrap();
                let inputs = vec![
                    SolveInput {
                        ir: &a,
                        grounding: &ga,
                    },
                    SolveInput {
                        ir: &b,
                        grounding: &gb,
                    },
                ];
                solve(&inputs, &SolverConfig::default())
            });
        });
    }
    group.finish();
}

fn bench_locks(c: &mut Criterion) {
    c.bench_function("lock-acquire-release", |b| {
        let lm = LockManager::new();
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            let tx = TxId(i);
            lm.lock(tx, Resource::table("flights"), LockMode::S, None)
                .unwrap();
            lm.lock(tx, Resource::row("reserve", i), LockMode::X, None)
                .unwrap();
            lm.unlock_all(tx);
        });
    });
}

fn bench_wal(c: &mut Criterion) {
    c.bench_function("wal-append-sync", |b| {
        let wal = Wal::new();
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            wal.append(&LogRecord::Insert {
                tx: i,
                table: "Reserve".into(),
                row: i,
                values: vec![Value::Int(i as i64), Value::Int(122)],
            });
            wal.append_sync(&LogRecord::Commit { tx: i, ts: 0 });
        });
    });
    c.bench_function("wal-recovery-1k-txns", |b| {
        let wal = Wal::new();
        wal.append(&LogRecord::CreateTable {
            name: "Reserve".into(),
            schema: Schema::of(&[("uid", ValueType::Int), ("fid", ValueType::Int)]),
        });
        for i in 0..1000u64 {
            wal.append(&LogRecord::Insert {
                tx: i,
                table: "Reserve".into(),
                row: i,
                values: vec![Value::Int(i as i64), Value::Int(122)],
            });
            wal.append(&LogRecord::Commit { tx: i, ts: 0 });
        }
        wal.sync();
        let records = wal.durable_records().unwrap();
        b.iter(|| recover(&records).unwrap());
    });
}

/// The scheduler asks `is_grouped` about every ready transaction. The
/// answer for a classical one must cost the same however many
/// transactions — entangled or not — have come and gone before it.
fn bench_groups(c: &mut Criterion) {
    let mut group = c.benchmark_group("groups-is-grouped");
    for finished in [0u64, 10_000] {
        let gm = GroupManager::new();
        for tx in (0..finished).step_by(2) {
            gm.link(&[tx, tx + 1]);
        }
        for tx in 0..finished {
            gm.finish(tx);
        }
        let mut tx = finished;
        group.bench_with_input(BenchmarkId::new("finished", finished), &finished, |b, _| {
            b.iter(|| {
                tx += 1;
                gm.is_grouped(tx)
            });
        });
    }
    group.finish();
}

/// One committed re-keying update followed by the settle-boundary vacuum
/// (prune + index resync). The cost must follow the one write, not the
/// size of the table it landed in (posting lists are 4 ids long at both
/// sizes, so list length — a separate cost — is held fixed).
fn bench_vacuum(c: &mut Criterion) {
    let mut group = c.benchmark_group("vacuum-after-one-write");
    for rows in [200u64, 20_000] {
        let keys = rows / 4;
        let row = |n: u64| {
            vec![
                Value::Int((n % keys) as i64),
                Value::Int((n * 7 % keys) as i64),
            ]
        };
        let mut t = Table::new(
            "Sched",
            Schema::of(&[("day", ValueType::Int), ("seats", ValueType::Int)]),
        );
        for i in 0..rows {
            t.insert(row(i)).unwrap();
        }
        t.create_named_index("by_day", &["day"], IndexKind::Btree)
            .unwrap();
        t.create_named_index("by_seats", &["seats"], IndexKind::Hash)
            .unwrap();
        let mut ts = 1u64;
        t.seal_versions(ts);
        group.bench_with_input(BenchmarkId::new("rows", rows), &rows, |b, _| {
            b.iter(|| {
                ts += 1;
                let id = RowId(ts * 31 % rows);
                t.update(id, row(ts)).unwrap();
                t.install_version(id, ts, Some(row(ts)));
                let pruned = t.prune_versions(ts);
                t.resync_named_indexes();
                pruned
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_entangle,
    bench_locks,
    bench_wal,
    bench_groups,
    bench_vacuum
);
criterion_main!(benches);
