//! Tier-1 assertion that the engine's real execution paths are
//! **audit-clean**: debug builds install the strict lock-protocol auditor
//! ([`youtopia_audit::ProtocolAuditor`]) in `Engine::new`, so every lock
//! event this workload produces is checked online against the
//! multigranularity, strict-2PL, latch-discipline, and next-key rules — a
//! violation panics the run. This test additionally pins down that the
//! auditor really is installed and really is seeing events (a silently
//! uninstalled sink would make the whole audit lane vacuous), and that
//! the lock-order graph and run-report counters are live.

use entangled_txn::{Engine, EngineConfig, Program, Scheduler, SchedulerConfig, TxnStatus};
use std::sync::Arc;
use std::time::Duration;

const SETUP: &str = "CREATE TABLE Flights (fno INT, dest TEXT);\
     CREATE TABLE Reserve (uid TEXT, fid INT);\
     CREATE INDEX reserve_uid ON Reserve (uid) USING BTREE;\
     INSERT INTO Flights VALUES (122, 'LA');\
     INSERT INTO Flights VALUES (123, 'LA');";

#[test]
fn workload_is_audit_clean_and_counters_are_live() {
    let engine = Arc::new(Engine::new(EngineConfig {
        lock_timeout: Duration::from_millis(25),
        ..EngineConfig::default()
    }));
    engine.setup(SETUP).unwrap();
    assert!(
        engine.auditor().is_some(),
        "debug/test builds must install the protocol auditor"
    );

    let mut sched = Scheduler::new(
        Arc::clone(&engine),
        SchedulerConfig {
            connections: 4,
            max_attempts: 100,
            ..SchedulerConfig::default()
        },
    );
    for i in 0..12 {
        sched.submit(
            Program::parse(&format!(
                "BEGIN; INSERT INTO Reserve (uid, fid) VALUES ('u{i}', 122); \
                 SELECT fid AS @f FROM Reserve WHERE uid = 'u{i}'; COMMIT;"
            ))
            .unwrap(),
        );
        sched.submit(
            Program::parse("BEGIN; SELECT fno AS @n FROM Flights WHERE dest = 'LA'; COMMIT;")
                .unwrap(),
        );
    }
    let stats = sched.drain();
    for r in sched.take_results() {
        assert_eq!(r.status, TxnStatus::Committed, "client {:?}", r.client);
    }

    // The auditor observed the run (strict mode: reaching here at all
    // means zero violations were flagged).
    assert!(engine.audit_events() > 0, "auditor saw no events");
    assert!(engine.auditor().unwrap().violations().is_empty());

    // Committed work acquires locks in growth order, so the lock-order
    // graph must have accumulated edges and be serializable.
    let json = engine.lock_order_graph_json().expect("audited build");
    assert!(json.contains("\"edges\""), "graph json malformed: {json}");
    assert!(json.contains("\"cycles\""), "graph json malformed: {json}");

    // Deadlock/timeout counters are wired through (this workload should
    // not need either, but the plumbing must report *something* sane).
    assert_eq!(stats.deadlocks, engine.deadlocks());
    assert_eq!(stats.timeouts, engine.timeouts());
}
