//! Transaction programs: the parsed body of a `BEGIN … COMMIT` block
//! (§3.1 syntax), plus the runtime transaction state the engine threads
//! through the scheduler.

use crate::error::EngineError;
use std::time::{Duration, Instant};
use youtopia_sql::{parse_script, Statement, VarEnv};
use youtopia_storage::Value;
use youtopia_wal::LogRecord;

/// A client-visible transaction identifier, stable across retries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ClientId(pub u64);

/// A parsed entangled-transaction program.
#[derive(Debug, Clone)]
pub struct Program {
    /// Body statements (without BEGIN/COMMIT brackets).
    pub statements: Vec<Statement>,
    /// `WITH TIMEOUT` from the BEGIN statement.
    pub timeout: Option<Duration>,
}

impl Program {
    /// Parse a full `BEGIN …; …; COMMIT;` script (Figure 2 style).
    pub fn parse(script: &str) -> Result<Program, EngineError> {
        let statements = parse_script(script)?;
        let mut it = statements.into_iter();
        let timeout = match it.next() {
            Some(Statement::Begin { timeout }) => timeout,
            _ => {
                return Err(EngineError::Protocol(
                    "program must start with BEGIN TRANSACTION",
                ))
            }
        };
        let mut body: Vec<Statement> = it.collect();
        match body.pop() {
            Some(Statement::Commit) => {}
            _ => return Err(EngineError::Protocol("program must end with COMMIT")),
        }
        if body
            .iter()
            .any(|s| matches!(s, Statement::Begin { .. } | Statement::Commit))
        {
            return Err(EngineError::Protocol("nested BEGIN/COMMIT not supported"));
        }
        Ok(Program {
            statements: body,
            timeout,
        })
    }

    /// Build a program directly from statements (used by workload
    /// generators that skip the parser for speed).
    pub fn from_statements(statements: Vec<Statement>, timeout: Option<Duration>) -> Program {
        Program {
            statements,
            timeout,
        }
    }

    /// How many entangled queries the program contains.
    pub fn entangled_query_count(&self) -> usize {
        self.statements.iter().filter(|s| s.is_entangled()).count()
    }

    /// A classical read-only program: nothing but `SELECT` and `SET @var`.
    /// Such a transaction writes nothing, entangles with nobody, and needs
    /// no durable record — the engine routes it to the lock-free snapshot
    /// read path ([`crate::Engine::begin`]).
    pub fn is_read_only(&self) -> bool {
        self.statements
            .iter()
            .all(|s| matches!(s, Statement::Select(_) | Statement::SetVar { .. }))
    }
}

/// Where a transaction stands in its lifecycle (§4's run states).
#[derive(Debug, Clone, PartialEq)]
pub enum TxnStatus {
    /// In the dormant pool, waiting to be scheduled into a run.
    Dormant,
    /// Executing inside a run.
    Running,
    /// Blocked on the entangled query at `statement` (evaluated in batch
    /// at the synchronization point of the run).
    Blocked {
        statement: usize,
    },
    /// Finished its body; waiting for its entanglement group (if any) to
    /// also be ready — "ready to commit, pending partner's commit".
    ReadyToCommit,
    Committed,
    /// Aborted this attempt; the scheduler decides whether to retry.
    Aborted(EngineError),
    /// Gave up permanently (timeout expired).
    Failed(EngineError),
}

/// Undo-log entry for in-memory rollback (the WAL handles durability; this
/// handles live aborts without a recovery pass).
#[derive(Debug, Clone)]
pub enum Undo {
    Insert {
        table: String,
        row: u64,
    },
    Delete {
        table: String,
        row: u64,
        before: Vec<Value>,
    },
    Update {
        table: String,
        row: u64,
        before: Vec<Value>,
    },
}

/// The runtime state of one transaction attempt.
#[derive(Debug)]
pub struct Txn {
    /// Stable client id (same across retries).
    pub client: ClientId,
    /// Engine-level transaction id for this attempt (fresh per retry —
    /// each retry is a new transaction in the formal model).
    pub tx: u64,
    pub program: Program,
    pub status: TxnStatus,
    /// Next statement to execute.
    pub pc: usize,
    /// Host-variable environment.
    pub env: VarEnv,
    pub undo: Vec<Undo>,
    /// Transaction-local redo buffer: `Begin` and the write records of
    /// this attempt accumulate here **privately** during execution and hit
    /// the shared WAL only when the commit batch publishes them in one
    /// reserved append. An abort simply drops the buffer — aborted work
    /// never reaches the log, and a crashed run leaves no mid-execution
    /// records of in-flight transactions in the durable prefix.
    pub redo: Vec<LogRecord>,
    /// Pinned snapshot timestamp, when this attempt runs on the
    /// multi-version read path (read-only classical transactions only):
    /// every SELECT evaluates against the committed versions visible at
    /// this timestamp, with no S locks. `None` = the locked path. The
    /// engine pins in [`begin`](crate::Engine::begin) and unpins at
    /// commit/abort.
    pub snapshot: Option<u64>,
    /// Arrival time — the `WITH TIMEOUT` deadline is measured from here,
    /// across retries (§3.1: the timeout limits total waiting).
    pub arrived: Instant,
    /// Retry count.
    pub attempt: u32,
    /// Answers received so far (for inspection/tests), one per answered
    /// entangled query: the head tuple.
    pub answers: Vec<Vec<Value>>,
}

impl Txn {
    pub fn new(client: ClientId, tx: u64, program: Program) -> Txn {
        Txn {
            client,
            tx,
            program,
            status: TxnStatus::Dormant,
            pc: 0,
            env: VarEnv::new(),
            undo: Vec::new(),
            redo: Vec::new(),
            snapshot: None,
            arrived: Instant::now(),
            attempt: 0,
            answers: Vec::new(),
        }
    }

    /// Has the WITH TIMEOUT deadline passed?
    pub fn deadline_passed(&self, now: Instant) -> bool {
        match self.program.timeout {
            Some(t) => now.duration_since(self.arrived) >= t,
            None => false,
        }
    }

    /// Reset per-attempt state for a retry (fresh engine tx id assigned by
    /// the scheduler).
    pub fn reset_for_retry(&mut self, new_tx: u64) {
        self.tx = new_tx;
        self.pc = 0;
        self.env.clear();
        self.undo.clear();
        self.redo.clear();
        self.snapshot = None;
        self.answers.clear();
        self.status = TxnStatus::Dormant;
        self.attempt += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FIG2: &str = "BEGIN TRANSACTION WITH TIMEOUT 2 DAYS;\
        SELECT 'Mickey', fno, fdate AS @ArrivalDay INTO ANSWER FlightRes \
        WHERE fno, fdate IN (SELECT fno, fdate FROM Flights WHERE dest='LA') \
        AND ('Minnie', fno, fdate) IN ANSWER FlightRes CHOOSE 1;\
        SET @StayLength = '2011-05-06' - @ArrivalDay;\
        SELECT 'Mickey', hid, @ArrivalDay, @StayLength INTO ANSWER HotelRes \
        WHERE hid IN (SELECT hid FROM Hotels WHERE location='LA') \
        AND ('Minnie', hid, @ArrivalDay, @StayLength) IN ANSWER HotelRes CHOOSE 1;\
        COMMIT;";

    #[test]
    fn figure2_program_parses() {
        let p = Program::parse(FIG2).unwrap();
        assert_eq!(p.timeout, Some(Duration::from_secs(2 * 86400)));
        assert_eq!(p.statements.len(), 3);
        assert_eq!(p.entangled_query_count(), 2);
    }

    #[test]
    fn brackets_required() {
        assert!(matches!(
            Program::parse("SELECT 1; COMMIT;"),
            Err(EngineError::Protocol(_))
        ));
        assert!(matches!(
            Program::parse("BEGIN; SELECT 1;"),
            Err(EngineError::Protocol(_))
        ));
        assert!(matches!(
            Program::parse("BEGIN; BEGIN; COMMIT; COMMIT;"),
            Err(EngineError::Protocol(_))
        ));
    }

    #[test]
    fn read_only_detection() {
        let ro = Program::parse("BEGIN; SET @x = 1; SELECT a FROM T; COMMIT;").unwrap();
        assert!(ro.is_read_only());
        let w = Program::parse("BEGIN; SELECT a FROM T; INSERT INTO T (a) VALUES (1); COMMIT;")
            .unwrap();
        assert!(!w.is_read_only());
        assert!(!Program::parse(FIG2).unwrap().is_read_only(), "entangled");
        let rb = Program::parse("BEGIN; SELECT a FROM T; ROLLBACK; COMMIT;").unwrap();
        assert!(!rb.is_read_only(), "rollback takes the classical path");
    }

    #[test]
    fn deadline_logic() {
        let p = Program::parse("BEGIN WITH TIMEOUT 1 SECONDS; SELECT 1; COMMIT;").unwrap();
        let t = Txn::new(ClientId(1), 1, p);
        assert!(!t.deadline_passed(t.arrived));
        assert!(t.deadline_passed(t.arrived + Duration::from_secs(2)));
        // No timeout = never expires.
        let p = Program::parse("BEGIN; SELECT 1; COMMIT;").unwrap();
        let t = Txn::new(ClientId(1), 2, p);
        assert!(!t.deadline_passed(t.arrived + Duration::from_secs(3600)));
    }

    #[test]
    fn retry_resets_attempt_state() {
        let p = Program::parse("BEGIN; SELECT 1; COMMIT;").unwrap();
        let mut t = Txn::new(ClientId(3), 7, p);
        t.pc = 5;
        t.env.insert("x".into(), Value::Int(1));
        t.answers.push(vec![Value::Int(2)]);
        t.redo.push(LogRecord::Begin { tx: 7 });
        t.status = TxnStatus::Aborted(EngineError::TimedOut);
        let arrived = t.arrived;
        t.reset_for_retry(8);
        assert_eq!(t.tx, 8);
        assert_eq!(t.pc, 0);
        assert!(t.env.is_empty());
        assert!(t.answers.is_empty());
        assert!(t.redo.is_empty(), "stale redo must not leak into a retry");
        assert_eq!(t.attempt, 1);
        assert_eq!(t.status, TxnStatus::Dormant);
        assert_eq!(t.arrived, arrived, "arrival time preserved across retries");
    }
}
