//! # entangled-txn
//!
//! The paper's primary contribution — **entangled transactions** (Gupta et
//! al., *Entangled Transactions*, PVLDB 4(7), 2011) — as a Rust library:
//! transaction-like units of work that communicate with concurrent
//! transactions through entangled queries, with the semantic model of §3
//! (oracle consistency, entangled isolation, group atomicity/durability)
//! and the run-based execution model of §4.
//!
//! ## Layers
//!
//! * [`program`] — `BEGIN … COMMIT` programs (Figure 2 syntax), runtime
//!   transaction state, timeouts, retries.
//! * [`engine`] — the middle-tier engine of §5.1: transaction lifecycle
//!   over a per-table concurrent catalog, joint entangled-query evaluation
//!   with grounding-read locks (§3.3.3), two-phase batched commit (redo
//!   buffers publish in one reserved append; a leader/follower
//!   group-commit sync covers whole batches; committed row versions
//!   install at a batch commit timestamp before locks release), in-memory
//!   undo for live aborts, snapshot pin/unpin + version GC
//!   (`Engine::vacuum`), crash simulation + recovery.
//! * [`executor`] — classical statement execution: a [`TxnContext`] pins
//!   per-table handles and pre-resolved column indexes per statement;
//!   Strict 2PL (not a storage latch) carries isolation, and write
//!   records accumulate in the transaction-private redo buffer — only
//!   commit/abort touch the shared WAL device. Read-only transactions
//!   bypass all of that: they evaluate against a pinned commit-timestamp
//!   snapshot of the multi-version store, acquiring no locks at all.
//! * [`scheduler`] — the §4 run-based scheduler: dormant pool, arrival-
//!   triggered runs (the paper's frequency `f`), phase loop with batch
//!   query evaluation (Figure 4), group-commit settlement, retry and
//!   `WITH TIMEOUT` expiry.
//! * [`oracle`] — the entangled query oracle of Definitions 3.2–3.4 for
//!   executing a *single* entangled transaction to completion.
//! * [`recorder`] — emits `youtopia-isolation` schedules from real
//!   executions so every run can be audited against Appendix C.
//! * [`groups`] — transitive entanglement groups for group commit/abort.
//!
//! ## Quickstart
//!
//! ```
//! use std::sync::Arc;
//! use entangled_txn::{Engine, EngineConfig, Program, Scheduler, SchedulerConfig};
//!
//! let engine = Arc::new(Engine::new(EngineConfig::default()));
//! engine.setup(
//!     "CREATE TABLE Flights (fno INT, dest TEXT);
//!      INSERT INTO Flights VALUES (122, 'LA');",
//! ).unwrap();
//! let mut sched = Scheduler::new(engine, SchedulerConfig::default());
//! for (me, other) in [("Mickey", "Minnie"), ("Minnie", "Mickey")] {
//!     sched.submit(Program::parse(&format!(
//!         "BEGIN WITH TIMEOUT 10 SECONDS;
//!          SELECT '{me}', fno INTO ANSWER Reservation
//!          WHERE fno IN (SELECT fno FROM Flights WHERE dest='LA')
//!          AND ('{other}', fno) IN ANSWER Reservation CHOOSE 1;
//!          COMMIT;"
//!     )).unwrap());
//! }
//! let report = sched.run_once();
//! assert_eq!(report.committed, 2);
//! ```

pub mod engine;
pub mod error;
pub mod executor;
pub mod groups;
pub mod oracle;
pub mod program;
pub mod recorder;
pub mod scheduler;

pub use engine::{
    CheckpointReport, CostModel, DeadlockPolicy, EmptyAnswerPolicy, Engine, EngineConfig,
    EvalReport, IsolationMode, LockGranularity, StepOutcome,
};
pub use error::EngineError;
pub use executor::TxnContext;
pub use groups::{GroupManager, GroupVictimPolicy};
pub use oracle::{run_with_oracle, GroundingOracle, QueryOracle, ReplayOracle};
pub use program::{ClientId, Program, Txn, TxnStatus};
pub use recorder::Recorder;
pub use scheduler::{
    CheckpointPolicy, ClientResult, RunReport, RunTrigger, Scheduler, SchedulerConfig, Stats,
};
