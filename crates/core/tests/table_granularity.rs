//! The `LockGranularity::Table` fallback (the Ab4 ablation) must not
//! rot: classical transactions still commit, scan plans still return
//! the same answers the row-granularity point plans do, recovery still
//! rebuilds indexes from the heap — and the entangled-pair livelock
//! stays a *documented negative result*, not an accident.
//!
//! Every engine here pins its granularity explicitly.

use entangled_txn::{Engine, EngineConfig, LockGranularity, Program, Scheduler, SchedulerConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;
use youtopia_storage::{RowId, Value};

const SETUP: &str = "CREATE TABLE Flights (fno INT, dest TEXT);\
     CREATE TABLE Reserve (uid TEXT, fid INT);\
     CREATE TABLE Counters (k INT, v INT);\
     CREATE TABLE Audit (uid INT, note INT);\
     CREATE INDEX counters_k ON Counters (k);\
     CREATE INDEX audit_uid ON Audit (uid) USING BTREE;\
     INSERT INTO Flights VALUES (122, 'LA');\
     INSERT INTO Counters VALUES (0, 0);\
     INSERT INTO Counters VALUES (1, 0);\
     INSERT INTO Counters VALUES (2, 0);\
     INSERT INTO Counters VALUES (3, 0);";

fn engine(granularity: LockGranularity) -> Arc<Engine> {
    let e = Engine::new(EngineConfig {
        granularity,
        lock_timeout: Duration::from_millis(25),
        ..EngineConfig::default()
    });
    e.setup(SETUP).unwrap();
    Arc::new(e)
}

/// Classical-only mix: increments, inserts, deletes, and in-transaction
/// point reads — everything the fallback must keep supporting. Returns
/// the programs plus the number of increment transactions (the serial
/// oracle for the counter sum).
fn classical_mix(seed: u64, count: usize) -> (Vec<Program>, i64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(count);
    let mut increments = 0i64;
    for i in 0..count {
        match rng.gen_range(0..4u32) {
            0 => {
                increments += 1;
                let k = rng.gen_range(0..4i64);
                out.push(
                    Program::parse(&format!(
                        "BEGIN; UPDATE Counters SET v = v + 1 WHERE k = {k}; COMMIT;"
                    ))
                    .unwrap(),
                );
            }
            1 => out.push(
                Program::parse(&format!(
                    "BEGIN; INSERT INTO Audit (uid, note) VALUES ({i}, {}); COMMIT;",
                    rng.gen_range(0..1000i64)
                ))
                .unwrap(),
            ),
            2 => {
                let uid = rng.gen_range(0..(i + 1) as i64);
                out.push(
                    Program::parse(&format!(
                        "BEGIN; DELETE FROM Audit WHERE uid = {uid}; COMMIT;"
                    ))
                    .unwrap(),
                );
            }
            _ => {
                let k = rng.gen_range(0..4i64);
                out.push(
                    Program::parse(&format!(
                        "BEGIN; SELECT v AS @v FROM Counters WHERE k = {k}; \
                         INSERT INTO Audit (uid, note) VALUES ({i}, -1); COMMIT;"
                    ))
                    .unwrap(),
                );
            }
        }
    }
    (out, increments)
}

/// Every named index equals a rebuilt-from-heap oracle (maintenance is
/// granularity-independent; only the *locking plan* changes).
fn assert_indexes_match_heap(engine: &Engine, context: &str) {
    engine.with_db(|db| {
        let mut checked = 0usize;
        for name in db.table_names() {
            let t = db.table(&name).expect("listed table");
            for idx in t.named_indexes().iter() {
                let mut oracle: BTreeMap<Value, Vec<RowId>> = BTreeMap::new();
                for (id, row) in t.scan() {
                    oracle
                        .entry(row[idx.column()].clone())
                        .or_default()
                        .push(id);
                }
                let mut oracle: Vec<(Value, Vec<RowId>)> = oracle.into_iter().collect();
                for (_, ids) in &mut oracle {
                    ids.sort_unstable();
                }
                assert_eq!(idx.entries(), oracle, "{context}: {name}.{}", idx.name());
                checked += 1;
            }
        }
        assert_eq!(checked, 2, "{context}: both named indexes checked");
    });
}

#[test]
fn classical_traffic_commits_and_stays_coherent_at_table_granularity() {
    for seed in [3u64, 17] {
        let engine = engine(LockGranularity::Table);
        let mut sched = Scheduler::new(
            Arc::clone(&engine),
            SchedulerConfig {
                connections: 8,
                max_attempts: 1000,
                ..SchedulerConfig::default()
            },
        );
        let (programs, increments) = classical_mix(seed, 40);
        for p in &programs {
            sched.submit(p.clone());
        }
        let stats = sched.drain();
        assert_eq!(stats.committed, programs.len(), "seed {seed}: {stats:?}");
        // Table-X writers fully serialize, so the counter sum is exact.
        engine.with_db(|db| {
            let sum: i64 = db
                .table("Counters")
                .unwrap()
                .scan()
                .map(|(_, row)| match row[1] {
                    Value::Int(v) => v,
                    ref other => panic!("non-int counter {other:?}"),
                })
                .sum();
            assert_eq!(sum, increments, "seed {seed}");
        });
        assert_indexes_match_heap(&engine, &format!("seed {seed}"));
    }
}

#[test]
fn scan_fallback_answers_match_row_granularity_point_plans() {
    // Identical deterministic traffic through both granularities at one
    // connection: the locking plans differ (table-S/X vs intent + key +
    // row locks — probing is an evaluator concern and happens in both),
    // final state and SELECT answers must not.
    let run = |granularity: LockGranularity| {
        let engine = engine(granularity);
        let mut sched = Scheduler::new(Arc::clone(&engine), SchedulerConfig::default());
        let (programs, _) = classical_mix(11, 32);
        for p in &programs {
            sched.submit(p.clone());
        }
        let stats = sched.drain();
        assert_eq!(stats.committed, programs.len(), "{granularity:?}");
        let mut answers: Vec<Option<Value>> = Vec::new();
        for r in sched.take_results() {
            answers.push(r.env.get("v").cloned());
        }
        let heap = engine.with_db(|db| {
            let mut rows: Vec<(String, Vec<Vec<Value>>)> = Vec::new();
            for name in db.table_names() {
                let mut t: Vec<Vec<Value>> = db
                    .table(&name)
                    .unwrap()
                    .scan()
                    .map(|(_, r)| r.clone())
                    .collect();
                t.sort();
                rows.push((name, t));
            }
            rows
        });
        (answers, heap)
    };
    let (scan_answers, scan_heap) = run(LockGranularity::Table);
    let (point_answers, point_heap) = run(LockGranularity::Row);
    assert_eq!(scan_answers, point_answers);
    assert_eq!(scan_heap, point_heap);
}

#[test]
fn range_plans_fall_back_to_table_locks_and_match_answers() {
    // Range traffic — BETWEEN windows in read-write transactions, window
    // UPDATEs, inserts landing inside windows — through both
    // granularities. Under `Table` the planner's range probes and the
    // next-key protocol are bypassed entirely (plain table-S/X); the
    // committed answers and final heap must match `Row` exactly.
    let mix = |seed: u64, count: usize| {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut out = Vec::with_capacity(count);
        for i in 0..count {
            let lo = rng.gen_range(0..40i64);
            let hi = lo + rng.gen_range(1..5i64);
            match rng.gen_range(0..3u32) {
                0 => out.push(
                    Program::parse(&format!(
                        "BEGIN; SELECT note AS @v FROM Audit \
                          WHERE uid BETWEEN {lo} AND {hi}; \
                         INSERT INTO Audit (uid, note) VALUES ({}, {i}); COMMIT;",
                        rng.gen_range(0..40i64)
                    ))
                    .unwrap(),
                ),
                1 => out.push(
                    Program::parse(&format!(
                        "BEGIN; UPDATE Audit SET note = note + 1 \
                          WHERE uid >= {lo} AND uid <= {hi}; COMMIT;"
                    ))
                    .unwrap(),
                ),
                _ => out.push(
                    Program::parse(&format!(
                        "BEGIN; INSERT INTO Audit (uid, note) VALUES ({}, 0); COMMIT;",
                        rng.gen_range(0..40i64)
                    ))
                    .unwrap(),
                ),
            }
        }
        out
    };
    let run = |granularity: LockGranularity| {
        let engine = engine(granularity);
        engine
            .setup(
                &(0..20)
                    .map(|u| format!("INSERT INTO Audit VALUES ({}, 0);", u * 2))
                    .collect::<String>(),
            )
            .unwrap();
        let mut sched = Scheduler::new(Arc::clone(&engine), SchedulerConfig::default());
        for p in mix(23, 32) {
            sched.submit(p);
        }
        let stats = sched.drain();
        assert_eq!(stats.committed, 32, "{granularity:?}: {stats:?}");
        let answers: Vec<Option<Value>> = sched
            .take_results()
            .into_iter()
            .map(|r| r.env.get("v").cloned())
            .collect();
        let heap = engine.with_db(|db| {
            let mut rows: Vec<Vec<Value>> = db
                .table("Audit")
                .unwrap()
                .scan()
                .map(|(_, r)| r.clone())
                .collect();
            rows.sort();
            rows
        });
        (answers, heap, engine)
    };
    let (scan_answers, scan_heap, scan_engine) = run(LockGranularity::Table);
    let (range_answers, range_heap, range_engine) = run(LockGranularity::Row);
    assert_eq!(scan_answers, range_answers);
    assert_eq!(scan_heap, range_heap);
    // The fallback really did bypass the range *plans*: probing remains
    // an evaluator concern in both lanes, but only the Row lane adds the
    // planner's range probes on top — and its heap footprint shrinks from
    // O(table) write-scans to O(window) accordingly.
    assert!(
        range_engine.index_lookups() > scan_engine.index_lookups(),
        "Row lane must add range-plan probes: row={} table={}",
        range_engine.index_lookups(),
        scan_engine.index_lookups()
    );
    assert!(
        range_engine.rows_scanned() < scan_engine.rows_scanned(),
        "range plans must shrink the heap footprint: row={} table={}",
        range_engine.rows_scanned(),
        scan_engine.rows_scanned()
    );
}

#[test]
fn recovery_at_table_granularity_preserves_classical_commits() {
    let engine = engine(LockGranularity::Table);
    let mut sched = Scheduler::new(
        Arc::clone(&engine),
        SchedulerConfig {
            connections: 4,
            max_attempts: 1000,
            ..SchedulerConfig::default()
        },
    );
    let (programs, increments) = classical_mix(29, 24);
    for p in &programs {
        sched.submit(p.clone());
    }
    assert_eq!(sched.drain().committed, programs.len());

    let widowed = engine.crash_and_recover().expect("clean log");
    assert!(widowed.is_empty(), "classical traffic has no widows");
    engine.with_db(|db| {
        let sum: i64 = db
            .table("Counters")
            .unwrap()
            .scan()
            .map(|(_, row)| match row[1] {
                Value::Int(v) => v,
                ref other => panic!("non-int counter {other:?}"),
            })
            .sum();
        assert_eq!(sum, increments, "recovered counter state diverged");
    });
    // Index definitions survive the log and contents rebuild from the
    // recovered heap, granularity notwithstanding.
    assert_indexes_match_heap(&engine, "post-recovery");
}

#[test]
fn entangled_pairs_livelock_at_table_granularity_by_design() {
    // The Ab4 negative result, pinned as a test: both partners table-X
    // `Reserve`, hold to a group commit that needs the other, and fail
    // together. No commit, no partial booking, no leaked locks.
    let engine = Arc::new(Engine::new(EngineConfig {
        granularity: LockGranularity::Table,
        lock_timeout: Duration::from_millis(10),
        ..EngineConfig::default()
    }));
    engine.setup(SETUP).unwrap();
    let mut sched = Scheduler::new(
        Arc::clone(&engine),
        SchedulerConfig {
            connections: 2,
            max_attempts: 4,
            ..SchedulerConfig::default()
        },
    );
    let q = |me: &str, other: &str| {
        Program::parse(&format!(
            "BEGIN; SELECT '{me}', fno AS @fno INTO ANSWER R \
             WHERE fno IN (SELECT fno FROM Flights WHERE dest='LA') \
             AND ('{other}', fno) IN ANSWER R CHOOSE 1; \
             INSERT INTO Reserve (uid, fid) VALUES ('{me}', @fno); COMMIT;"
        ))
        .unwrap()
    };
    sched.submit(q("Mickey", "Minnie"));
    sched.submit(q("Minnie", "Mickey"));
    let stats = sched.drain();
    assert_eq!(stats.committed, 0, "the standoff must not resolve");
    engine.with_db(|db| {
        assert_eq!(db.table("Reserve").unwrap().len(), 0, "no partial booking");
    });
    assert!(engine.locks.quiescent(), "failed pairs must release locks");
}
