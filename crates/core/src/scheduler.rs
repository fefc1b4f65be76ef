//! The run-based scheduler of §4 for non-interactive entangled
//! transactions.
//!
//! Transactions arrive into a **dormant pool**. A **run** takes every
//! pooled transaction and executes it until it blocks on an entangled
//! query, aborts, or reaches ready-to-commit; then all pending entangled
//! queries are evaluated **as one batch**; answered transactions resume.
//! This repeats until a fixpoint ("the run terminates when each transaction
//! has either aborted, reached the ready to commit state, or blocked on an
//! entangled query and is unable to proceed"). Ready transactions that
//! satisfy the group-commit constraint commit; blocked ones are aborted and
//! returned to the pool for later runs — exactly the Figure 4 walkthrough.
//!
//! Concurrency is bounded by `connections`, mirroring §5.2.1's observation
//! that MySQL throughput is connection-bound (one transaction per
//! connection).

use crate::engine::{Engine, EvalReport, IsolationMode};
use crate::error::EngineError;
use crate::program::{ClientId, Program, Txn, TxnStatus};
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;
use std::time::Instant;

/// When to start a run (§4 "Scheduling": "the system may schedule a new
/// run once ten new transactions have arrived" — that is `Arrivals(10)`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunTrigger {
    /// Start a run automatically after this many arrivals (the paper's
    /// run frequency `f`).
    Arrivals(usize),
    /// Runs start only when [`Scheduler::run_once`] is called.
    Manual,
}

/// When to write a fuzzy checkpoint (and truncate the log prefix it
/// supersedes). The settle phase of a run is the only checkpoint site:
/// every transaction of the run has committed or aborted there, so the
/// image is a transactionally-consistent run-boundary state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointPolicy {
    /// Checkpoint after this many runs (`None` = no run cadence).
    pub every_runs: Option<usize>,
    /// Checkpoint once this many bytes were published to the WAL since
    /// the last checkpoint (`None` = no byte cadence). Whichever cadence
    /// fires first wins.
    pub every_bytes: Option<u64>,
    /// Truncate the log prefix after each checkpoint (the bounded-WAL
    /// behaviour; `false` keeps full history with inline images — useful
    /// for crash-matrix tests and ablations).
    pub truncate: bool,
}

impl CheckpointPolicy {
    /// Checkpointing off (the default): the log grows with history.
    pub const DISABLED: CheckpointPolicy = CheckpointPolicy {
        every_runs: None,
        every_bytes: None,
        truncate: true,
    };

    /// Checkpoint + truncate every `n` runs.
    pub fn every_runs(n: usize) -> CheckpointPolicy {
        CheckpointPolicy {
            every_runs: Some(n),
            ..CheckpointPolicy::DISABLED
        }
    }

    /// Checkpoint + truncate once `bytes` of log were published since the
    /// last image.
    pub fn every_bytes(bytes: u64) -> CheckpointPolicy {
        CheckpointPolicy {
            every_bytes: Some(bytes),
            ..CheckpointPolicy::DISABLED
        }
    }

    pub fn is_enabled(&self) -> bool {
        self.every_runs.is_some() || self.every_bytes.is_some()
    }

    fn due(&self, runs_since: usize, bytes_since: u64) -> bool {
        self.every_runs.is_some_and(|n| runs_since >= n.max(1))
            || self.every_bytes.is_some_and(|m| bytes_since >= m)
    }
}

impl Default for CheckpointPolicy {
    fn default() -> Self {
        CheckpointPolicy::DISABLED
    }
}

/// Scheduler configuration.
#[derive(Debug, Clone)]
pub struct SchedulerConfig {
    /// Concurrent connections (threads advancing transactions per run, the
    /// caller's included). `1` gives fully deterministic execution.
    pub connections: usize,
    pub trigger: RunTrigger,
    /// Retry ceiling per transaction (the `WITH TIMEOUT` deadline is the
    /// paper's mechanism; this is a safety valve for untimed programs).
    pub max_attempts: u32,
    /// Checkpoint cadence (off by default).
    pub checkpoint: CheckpointPolicy,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            connections: 1,
            trigger: RunTrigger::Manual,
            max_attempts: 50,
            checkpoint: CheckpointPolicy::DISABLED,
        }
    }
}

/// Final outcome of a client transaction.
#[derive(Debug)]
pub struct ClientResult {
    pub client: ClientId,
    pub status: TxnStatus,
    pub attempts: u32,
    /// Entangled answers received by the successful attempt.
    pub answers: Vec<Vec<youtopia_storage::Value>>,
    /// Host-variable environment at the end of the final attempt — the
    /// values the transaction's SELECTs bound (how tests observe what a
    /// snapshot read actually saw).
    pub env: youtopia_sql::VarEnv,
}

/// Counters for one run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunReport {
    pub executed: usize,
    pub committed: usize,
    pub returned_to_pool: usize,
    pub failed: usize,
    pub eval_rounds: usize,
    pub eval: EvalReport,
    /// Checkpoints written at this run's settle boundary (0 or 1).
    pub checkpoints: u64,
    /// Log bytes reclaimed by this run's checkpoint truncation.
    pub truncated_bytes: u64,
    /// Row versions reclaimed by the settle-boundary vacuum (multi-version
    /// GC: everything older than the oldest live snapshot).
    pub versions_pruned: u64,
    /// Waits-for cycles broken by victim selection during this run,
    /// summed over every lock shard (local enqueue-time detections plus
    /// cross-shard probe convictions).
    pub deadlocks: u64,
    /// Lock waits that expired during this run. With detection on,
    /// cross-shard cycles are convicted instead of landing here; the
    /// timeout backstops the `DeadlockPolicy::Timeout` ablation.
    pub timeouts: u64,
    /// Victims convicted by the cross-shard deadlock detector during
    /// this run (a subset of `deadlocks`; 0 with detection off).
    pub deadlock_victims: u64,
    /// Edge-chasing probes blocked waiters launched during this run.
    pub detection_probes: u64,
}

/// Cumulative statistics: what this scheduler decided, plus the lock-abort
/// deltas of its runs. Engine-wide counters (syncs, access paths,
/// cross-shard traffic, audit events) are read from [`Engine`] directly.
#[derive(Debug, Clone, Default)]
pub struct Stats {
    pub runs: usize,
    pub committed: usize,
    pub failed: usize,
    pub total_attempts: u64,
    pub group_commits: usize,
    pub group_aborts: usize,
    /// Checkpoint images written at settle boundaries.
    pub checkpoints: u64,
    /// Total log bytes reclaimed by checkpoint truncations — the
    /// bounded-WAL dividend.
    pub truncated_bytes: u64,
    /// Total row versions reclaimed by settle-boundary vacuums — the
    /// bounded-version-store dividend of the multi-version read path.
    pub versions_pruned: u64,
    /// Waits-for cycles broken by victim selection across all runs.
    pub deadlocks: u64,
    /// Expired lock waits across all runs (the timeout backstop; with
    /// detection on, cross-shard cycles surface as `deadlock_victims`
    /// instead).
    pub timeouts: u64,
    /// Cross-shard detector convictions across all runs.
    pub deadlock_victims: u64,
    /// Edge-chasing probes across all runs.
    pub detection_probes: u64,
}

/// The run-based scheduler.
pub struct Scheduler {
    pub engine: Arc<Engine>,
    pub config: SchedulerConfig,
    dormant: VecDeque<Txn>,
    arrivals_since_run: usize,
    results: Vec<ClientResult>,
    stats: Stats,
    next_client: u64,
    /// Checkpoint cadence state: runs settled and WAL length at the last
    /// checkpoint (logical bytes, so truncation does not reset growth
    /// accounting).
    runs_since_checkpoint: usize,
    wal_len_at_checkpoint: u64,
}

impl Scheduler {
    pub fn new(engine: Arc<Engine>, config: SchedulerConfig) -> Scheduler {
        let wal_len = engine.wal.len();
        Scheduler {
            engine,
            config,
            dormant: VecDeque::new(),
            arrivals_since_run: 0,
            results: Vec::new(),
            stats: Stats::default(),
            next_client: 1,
            runs_since_checkpoint: 0,
            wal_len_at_checkpoint: wal_len,
        }
    }

    /// Submit a program; returns its client id. May trigger a run
    /// (depending on [`RunTrigger`]).
    pub fn submit(&mut self, program: Program) -> ClientId {
        let client = ClientId(self.next_client);
        self.next_client += 1;
        let txn = Txn::new(client, self.engine.alloc_tx(), program);
        self.dormant.push_back(txn);
        self.arrivals_since_run += 1;
        if let RunTrigger::Arrivals(f) = self.config.trigger {
            if self.arrivals_since_run >= f {
                self.run_once();
            }
        }
        client
    }

    /// Transactions currently waiting in the dormant pool.
    pub fn pool_len(&self) -> usize {
        self.dormant.len()
    }

    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// Completed transactions (committed or permanently failed).
    pub fn results(&self) -> &[ClientResult] {
        &self.results
    }

    pub fn take_results(&mut self) -> Vec<ClientResult> {
        std::mem::take(&mut self.results)
    }

    /// Execute one run over the whole dormant pool (§4).
    pub fn run_once(&mut self) -> RunReport {
        self.arrivals_since_run = 0;
        self.stats.runs += 1;
        let mut report = RunReport::default();
        let deadlocks_before = self.engine.deadlocks();
        let timeouts_before = self.engine.timeouts();
        let victims_before = self.engine.deadlock_victims();
        let probes_before = self.engine.detection_probes();
        let now = Instant::now();

        // Pull the pool; expire transactions whose deadline passed.
        let mut run: Vec<Txn> = Vec::with_capacity(self.dormant.len());
        while let Some(txn) = self.dormant.pop_front() {
            if txn.deadline_passed(now) || txn.attempt >= self.config.max_attempts {
                self.finish(txn, TxnStatus::Failed(EngineError::TimedOut));
                report.failed += 1;
            } else {
                run.push(txn);
            }
        }
        report.executed = run.len();
        if run.is_empty() {
            return report;
        }

        // Open each attempt's private redo buffer with its BEGIN record.
        for txn in &mut run {
            self.engine.begin(txn);
        }

        // Phase loop: advance everyone, then evaluate the pending
        // entangled queries in one batch; repeat while progress is made.
        let mut to_advance: Vec<usize> = (0..run.len()).collect();
        loop {
            self.advance_parallel(&mut run, &to_advance);
            let blocked: Vec<usize> = run
                .iter()
                .enumerate()
                .filter(|(_, t)| matches!(t.status, TxnStatus::Blocked { .. }))
                .map(|(i, _)| i)
                .collect();
            if blocked.is_empty() {
                break;
            }
            report.eval_rounds += 1;
            let eval = {
                let mut refs = disjoint_muts(&mut run, &blocked);
                self.engine.evaluate_queries(&mut refs)
            };
            report.eval.answered += eval.answered;
            report.eval.empty += eval.empty;
            report.eval.no_partner += eval.no_partner;
            report.eval.aborted += eval.aborted;
            // Whoever resumed needs advancing; everyone else is settled.
            to_advance = run
                .iter()
                .enumerate()
                .filter(|(_, t)| t.status == TxnStatus::Running)
                .map(|(i, _)| i)
                .collect();
            if to_advance.is_empty() {
                break;
            }
        }

        // ---- End of run: group commit / abort / return to pool ----
        self.settle(run, &mut report);
        // Settle boundary = GC boundary: every transaction of the run has
        // committed or aborted, so the only snapshots still pinned belong
        // to other schedulers sharing the engine — the vacuum horizon
        // (oldest live snapshot) makes pruning safe regardless.
        report.versions_pruned = self.engine.vacuum();
        self.stats.versions_pruned += report.versions_pruned;
        self.maybe_checkpoint(&mut report);
        report.deadlocks = self.engine.deadlocks() - deadlocks_before;
        report.timeouts = self.engine.timeouts() - timeouts_before;
        report.deadlock_victims = self.engine.deadlock_victims() - victims_before;
        report.detection_probes = self.engine.detection_probes() - probes_before;
        self.stats.deadlocks += report.deadlocks;
        self.stats.timeouts += report.timeouts;
        self.stats.deadlock_victims += report.deadlock_victims;
        self.stats.detection_probes += report.detection_probes;
        report
    }

    /// Settle-boundary checkpoint: every transaction of the run has
    /// committed or aborted (the engine's quiesce precondition), so if the
    /// cadence is due, write an image and reclaim the superseded prefix.
    fn maybe_checkpoint(&mut self, report: &mut RunReport) {
        self.runs_since_checkpoint += 1;
        if !self.config.checkpoint.is_enabled() {
            return;
        }
        let published = self
            .engine
            .wal
            .len()
            .saturating_sub(self.wal_len_at_checkpoint);
        if !self
            .config
            .checkpoint
            .due(self.runs_since_checkpoint, published)
        {
            return;
        }
        match self.engine.checkpoint(self.config.checkpoint.truncate) {
            Ok(cp) => {
                report.checkpoints += 1;
                report.truncated_bytes += cp.truncated_bytes;
                report.versions_pruned += cp.versions_pruned;
                self.stats.checkpoints += 1;
                self.stats.truncated_bytes += cp.truncated_bytes;
                self.stats.versions_pruned += cp.versions_pruned;
                self.runs_since_checkpoint = 0;
                self.wal_len_at_checkpoint = self.engine.wal.len();
            }
            Err(_) => {
                // Not quiescent (e.g. another scheduler shares the
                // engine): skip this boundary, try again next run.
            }
        }
    }

    /// Advance the given transactions until block/ready/abort on up to
    /// `connections` threads, the calling thread among them. At `n`
    /// connections exactly `n` threads are runnable and each transaction is
    /// advanced in place, so no thread wakes per transaction to collect
    /// results: on a host with `n` cores a run's time does not hang on
    /// where the kernel fits an `n + 1`-th thread.
    fn advance_parallel(&self, run: &mut [Txn], indices: &[usize]) {
        let workers = self.config.connections.max(1).min(indices.len());
        let queue = parking_lot::Mutex::new(disjoint_muts(run, indices).into_iter());
        let work = || loop {
            let next = queue.lock().next();
            let Some(txn) = next else { break };
            self.engine.run_until_block(txn);
            // Classical transactions are executed "as-is" (§5.1): a
            // transaction that reaches ready-to-commit without having
            // entangled has no group-commit constraint and commits
            // immediately, releasing its locks mid-run instead of holding
            // them to the settle point.
            if txn.status == TxnStatus::ReadyToCommit && !self.engine.groups.is_grouped(txn.tx) {
                self.engine.commit_group(&mut [txn]);
            }
        };
        crossbeam::scope(|s| {
            for _ in 1..workers {
                s.spawn(|_| work());
            }
            work();
        })
        .expect("worker panicked");
    }

    /// Apply end-of-run outcomes: group commit for fully-ready groups,
    /// group aborts where a member failed, retries for the still-blocked.
    fn settle(&mut self, mut run: Vec<Txn>, report: &mut RunReport) {
        let engine = self.engine.clone();
        let group_commit_enabled = engine.config.isolation != IsolationMode::AllowWidows;

        // Group membership over engine tx ids.
        let mut by_tx: HashMap<u64, usize> = HashMap::new();
        for (i, t) in run.iter().enumerate() {
            by_tx.insert(t.tx, i);
        }

        // Decide fate of every ready transaction.
        let mut committed_idx: HashSet<usize> = HashSet::new();
        let mut group_abort_idx: HashSet<usize> = HashSet::new();
        let ready: Vec<usize> = run
            .iter()
            .enumerate()
            .filter(|(_, t)| t.status == TxnStatus::ReadyToCommit)
            .map(|(i, _)| i)
            .collect();

        // Plan which groups can commit (cheap, single-threaded)…
        let mut commit_plans: Vec<Vec<usize>> = Vec::new();
        if group_commit_enabled {
            let mut handled: HashSet<usize> = HashSet::new();
            for &i in &ready {
                if handled.contains(&i) {
                    continue;
                }
                let members = engine.groups.members(run[i].tx);
                let member_idx: Vec<usize> = members
                    .iter()
                    .filter_map(|t| by_tx.get(t))
                    .copied()
                    .collect();
                let all_ready = members.len() == member_idx.len()
                    && member_idx
                        .iter()
                        .all(|&j| run[j].status == TxnStatus::ReadyToCommit);
                if all_ready {
                    if member_idx.len() > 1 {
                        self.stats.group_commits += 1;
                    }
                    committed_idx.extend(member_idx.iter().copied());
                    handled.extend(member_idx.iter().copied());
                    commit_plans.push(member_idx);
                } else {
                    // Widow prevention: some member aborted or is blocked —
                    // the ready members must abort too.
                    group_abort_idx.insert(i);
                    handled.insert(i);
                }
            }
        } else {
            // AllowWidows: commit the ready ones individually.
            for &i in &ready {
                commit_plans.push(vec![i]);
                committed_idx.insert(i);
            }
        }

        // …then drain every ready group into ONE commit batch: all redo
        // buffers publish back-to-back in a single reserved append and one
        // group-commit sync covers the whole wave — instead of one commit
        // (and one sync) per group. Group boundaries within the batch are
        // reconstructed by the engine from the `GroupManager`.
        let batch: Vec<usize> = commit_plans.iter().flatten().copied().collect();
        if !batch.is_empty() {
            let mut refs = disjoint_muts(&mut run, &batch);
            engine.commit_batch(&mut refs);
        }

        for i in group_abort_idx.iter().copied() {
            let t = &mut run[i];
            engine.abort(t, EngineError::GroupAbort);
            self.stats.group_aborts += 1;
        }

        // Settle every transaction.
        for (i, mut txn) in run.into_iter().enumerate() {
            if committed_idx.contains(&i) {
                report.committed += 1;
                self.finish(txn, TxnStatus::Committed);
                continue;
            }
            match txn.status.clone() {
                TxnStatus::Blocked { .. } => {
                    // Abort the attempt and return to the pool (§4).
                    engine.abort(&mut txn, EngineError::Protocol("blocked at end of run"));
                    self.requeue(txn, report);
                }
                TxnStatus::Aborted(EngineError::GroupAbort)
                | TxnStatus::Aborted(EngineError::Lock(_)) => {
                    // Transient: retry.
                    self.requeue(txn, report);
                }
                TxnStatus::Aborted(e) => {
                    // Business/semantic abort: final.
                    report.failed += 1;
                    self.finish(txn, TxnStatus::Failed(e));
                }
                TxnStatus::ReadyToCommit => {
                    // Unreachable under group_commit_enabled=false; under
                    // group commit the ready-but-unhandled case went
                    // through group_abort_idx. Defensive requeue.
                    engine.abort(&mut txn, EngineError::Protocol("unsettled ready txn"));
                    self.requeue(txn, report);
                }
                TxnStatus::Committed => {
                    report.committed += 1;
                    self.finish(txn, TxnStatus::Committed);
                }
                s @ (TxnStatus::Dormant | TxnStatus::Running | TxnStatus::Failed(_)) => {
                    // Running/Dormant cannot survive the phase loop.
                    self.finish(txn, s);
                }
            }
        }
    }

    fn requeue(&mut self, mut txn: Txn, report: &mut RunReport) {
        let now = Instant::now();
        if txn.deadline_passed(now) || txn.attempt + 1 >= self.config.max_attempts {
            report.failed += 1;
            self.finish(txn, TxnStatus::Failed(EngineError::TimedOut));
            return;
        }
        let new_tx = self.engine.alloc_tx();
        txn.reset_for_retry(new_tx);
        report.returned_to_pool += 1;
        self.dormant.push_back(txn);
    }

    fn finish(&mut self, txn: Txn, status: TxnStatus) {
        self.stats.total_attempts += (txn.attempt + 1) as u64;
        match status {
            TxnStatus::Committed => self.stats.committed += 1,
            TxnStatus::Failed(_) => self.stats.failed += 1,
            _ => {}
        }
        self.results.push(ClientResult {
            client: txn.client,
            answers: txn.answers.clone(),
            env: txn.env.clone(),
            attempts: txn.attempt + 1,
            status,
        });
    }

    /// Run until the pool drains or no further progress is possible;
    /// transactions still pooled after two consecutive zero-progress runs
    /// fail with [`EngineError::TimedOut`]. A run that ended in transient
    /// lock aborts (timeouts, deadlock victims) is not zero-progress: its
    /// transactions retry, bounded by `max_attempts` and their deadlines.
    /// Only a run in which nothing committed, failed, left the pool *or*
    /// lost a lock race counts — everything left is waiting for a partner
    /// that is not coming.
    pub fn drain(&mut self) -> Stats {
        let mut zero_progress = 0;
        while !self.dormant.is_empty() {
            let before_pool = self.dormant.len();
            let report = self.run_once();
            let lock_aborts = report.timeouts + report.deadlocks + report.deadlock_victims;
            let progressed = report.committed > 0
                || report.failed > 0
                || self.dormant.len() < before_pool
                || lock_aborts > 0;
            if progressed {
                zero_progress = 0;
            } else {
                zero_progress += 1;
                if zero_progress >= 2 {
                    while let Some(txn) = self.dormant.pop_front() {
                        self.finish(txn, TxnStatus::Failed(EngineError::TimedOut));
                    }
                    break;
                }
            }
        }
        self.stats.clone()
    }
}

/// Safely materialize mutable references to the given **distinct** indices
/// of `slice`, preserving the order of `indices`.
///
/// Implemented by walking the slice with `split_at_mut` in ascending index
/// order — no `unsafe`, no aliasing: each reference comes from a disjoint
/// subslice. Panics if an index repeats or is out of range (both are
/// scheduler invariants: a transaction belongs to exactly one blocked set
/// / commit plan per phase).
fn disjoint_muts<'a, T>(slice: &'a mut [T], indices: &[usize]) -> Vec<&'a mut T> {
    let mut order: Vec<usize> = (0..indices.len()).collect();
    order.sort_unstable_by_key(|&k| indices[k]);
    let mut out: Vec<Option<&'a mut T>> = Vec::with_capacity(indices.len());
    out.resize_with(indices.len(), || None);
    let mut rest = slice;
    let mut consumed = 0usize;
    for &k in &order {
        let i = indices[k];
        assert!(i >= consumed, "indices must be distinct");
        let (_, tail) = std::mem::take(&mut rest).split_at_mut(i - consumed);
        let (item, tail) = tail.split_at_mut(1);
        out[k] = Some(&mut item[0]);
        rest = tail;
        consumed = i + 1;
    }
    out.into_iter()
        .map(|r| r.expect("every slot filled"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{EngineConfig, IsolationMode};
    use std::time::Duration;
    use youtopia_isolation::is_entangled_isolated;
    use youtopia_storage::Value;

    fn engine() -> Arc<Engine> {
        let e = Engine::new(EngineConfig::default());
        e.setup(
            "CREATE TABLE Flights (fno INT, fdate DATE, dest TEXT);\
             CREATE TABLE Hotels (hid INT, location TEXT);\
             CREATE TABLE Reserve (uid TEXT, fid INT);\
             INSERT INTO Flights VALUES (122, '1970-04-11', 'LA');\
             INSERT INTO Flights VALUES (123, '1970-04-12', 'LA');\
             INSERT INTO Hotels VALUES (7, 'LA');\
             INSERT INTO Hotels VALUES (8, 'LA');",
        )
        .unwrap();
        Arc::new(e)
    }

    fn flight_txn(me: &str, other: &str) -> Program {
        Program::parse(&format!(
            "BEGIN WITH TIMEOUT 10 SECONDS; \
             SELECT '{me}', fno AS @fno INTO ANSWER FlightRes \
             WHERE fno IN (SELECT fno FROM Flights WHERE dest='LA') \
             AND ('{other}', fno) IN ANSWER FlightRes CHOOSE 1; \
             INSERT INTO Reserve (uid, fid) VALUES ('{me}', @fno); COMMIT;"
        ))
        .unwrap()
    }

    /// Figure 2-style: coordinate on flight, then hotel.
    fn travel_txn(me: &str, other: &str) -> Program {
        Program::parse(&format!(
            "BEGIN WITH TIMEOUT 10 SECONDS; \
             SELECT '{me}', fno AS @fno INTO ANSWER FlightRes \
             WHERE fno IN (SELECT fno FROM Flights WHERE dest='LA') \
             AND ('{other}', fno) IN ANSWER FlightRes CHOOSE 1; \
             INSERT INTO Reserve (uid, fid) VALUES ('{me}', @fno); \
             SELECT '{me}', hid AS @hid INTO ANSWER HotelRes \
             WHERE hid IN (SELECT hid FROM Hotels WHERE location='LA') \
             AND ('{other}', hid) IN ANSWER HotelRes CHOOSE 1; \
             INSERT INTO Reserve (uid, fid) VALUES ('{me}', @hid); COMMIT;"
        ))
        .unwrap()
    }

    #[test]
    fn disjoint_muts_preserves_index_order() {
        let mut v = vec![10, 20, 30, 40, 50];
        let refs = disjoint_muts(&mut v, &[4, 0, 2]);
        assert_eq!(refs.iter().map(|r| **r).collect::<Vec<_>>(), [50, 10, 30]);
        for r in refs {
            *r += 1;
        }
        assert_eq!(v, vec![11, 20, 31, 40, 51]);
        assert!(disjoint_muts(&mut v, &[]).is_empty());
        let all = disjoint_muts(&mut v, &[0, 1, 2, 3, 4]);
        assert_eq!(all.len(), 5);
    }

    #[test]
    #[should_panic(expected = "distinct")]
    fn disjoint_muts_rejects_duplicates() {
        let mut v = vec![1, 2, 3];
        let _ = disjoint_muts(&mut v, &[1, 1]);
    }

    #[test]
    fn pair_commits_in_one_run() {
        let mut s = Scheduler::new(engine(), SchedulerConfig::default());
        s.submit(flight_txn("Mickey", "Minnie"));
        s.submit(flight_txn("Minnie", "Mickey"));
        let report = s.run_once();
        assert_eq!(report.executed, 2);
        assert_eq!(report.committed, 2);
        assert_eq!(s.stats().group_commits, 1);
        assert_eq!(s.pool_len(), 0);
        s.engine.with_db(|db| {
            assert_eq!(db.table("Reserve").unwrap().len(), 2);
        });
    }

    #[test]
    fn figure_4_walkthrough() {
        // Mickey & Donald arrive first: a run answers nobody (Donald's
        // partner Daffy is absent; Mickey's partner Minnie too).
        let mut s = Scheduler::new(engine(), SchedulerConfig::default());
        s.submit(travel_txn("Mickey", "Minnie"));
        s.submit(travel_txn("Donald", "Daffy"));
        let r1 = s.run_once();
        assert_eq!(r1.committed, 0);
        assert_eq!(r1.returned_to_pool, 2);
        assert_eq!(s.pool_len(), 2);

        // Minnie arrives; the second run commits Mickey & Minnie through
        // BOTH entangled queries while Donald blocks again.
        s.submit(travel_txn("Minnie", "Mickey"));
        let r2 = s.run_once();
        assert_eq!(r2.committed, 2, "{r2:?}");
        assert!(r2.eval_rounds >= 2, "flight round then hotel round");
        assert_eq!(r2.returned_to_pool, 1, "Donald returns to the pool");
        assert_eq!(s.pool_len(), 1);

        // Bookings: flight + hotel for each of Mickey and Minnie.
        s.engine.with_db(|db| {
            assert_eq!(db.table("Reserve").unwrap().len(), 4);
        });

        // The recorded history is valid and entangled-isolated.
        let sched = s.engine.recorder.schedule();
        // Donald is still in flight (pooled) so the history is incomplete;
        // check after failing him out.
        let stats = s.drain();
        assert_eq!(stats.committed, 2);
        assert_eq!(stats.failed, 1, "Donald eventually times out");
        let sched = {
            let _ = sched;
            s.engine.recorder.schedule()
        };
        sched.validate().unwrap();
        assert!(is_entangled_isolated(&sched));
    }

    #[test]
    fn arrival_trigger_runs_automatically() {
        let mut s = Scheduler::new(
            engine(),
            SchedulerConfig {
                trigger: RunTrigger::Arrivals(2),
                ..Default::default()
            },
        );
        s.submit(flight_txn("Mickey", "Minnie"));
        assert_eq!(s.stats().runs, 0);
        s.submit(flight_txn("Minnie", "Mickey"));
        assert_eq!(s.stats().runs, 1, "second arrival triggered the run");
        assert_eq!(s.stats().committed, 2);
    }

    #[test]
    fn multi_connection_run_matches_single_connection_result() {
        for connections in [1usize, 4] {
            let mut s = Scheduler::new(
                engine(),
                SchedulerConfig {
                    connections,
                    ..Default::default()
                },
            );
            for i in 0..8 {
                let a = format!("u{i}a");
                let b = format!("u{i}b");
                s.submit(flight_txn(&a, &b));
                s.submit(flight_txn(&b, &a));
            }
            let stats = s.drain();
            assert_eq!(stats.committed, 16, "connections={connections}");
            s.engine.with_db(|db| {
                assert_eq!(db.table("Reserve").unwrap().len(), 16);
            });
        }
    }

    #[test]
    fn widowed_partner_forces_group_abort_and_retry() {
        // Minnie's program rolls back AFTER entangling on the flight:
        // Mickey must not commit (Figure 3(a)); he retries and eventually
        // fails by timeout (his partner is gone for good).
        let e = engine();
        let mut s = Scheduler::new(e, SchedulerConfig::default());
        s.submit(flight_txn("Mickey", "Minnie"));
        s.submit(
            Program::parse(
                "BEGIN WITH TIMEOUT 10 SECONDS; \
                 SELECT 'Minnie', fno INTO ANSWER FlightRes \
                 WHERE fno IN (SELECT fno FROM Flights WHERE dest='LA') \
                 AND ('Mickey', fno) IN ANSWER FlightRes CHOOSE 1; \
                 ROLLBACK; COMMIT;",
            )
            .unwrap(),
        );
        let r = s.run_once();
        assert_eq!(r.committed, 0, "widow prevented: {r:?}");
        assert_eq!(s.stats().group_aborts, 1);
        // Mickey is pooled again; Minnie failed for good.
        assert_eq!(s.pool_len(), 1);
        assert_eq!(s.stats().failed, 1);
        // Nothing leaked into the database.
        s.engine
            .with_db(|db| assert_eq!(db.table("Reserve").unwrap().len(), 0));
        // The final history shows no widowed-transaction anomaly.
        let sched = s.engine.recorder.schedule();
        assert!(
            !youtopia_isolation::find_anomalies(&sched.expand_quasi_reads())
                .iter()
                .any(|a| matches!(a, youtopia_isolation::Anomaly::WidowedTransaction { .. })),
            "group abort must prevent widows"
        );
    }

    #[test]
    fn allow_widows_mode_commits_the_survivor() {
        // Ablation Ab2: with group commit off, Mickey commits even though
        // Minnie rolled back — the recorded history exhibits the
        // widowed-transaction anomaly.
        let e = Engine::new(EngineConfig {
            isolation: IsolationMode::AllowWidows,
            ..EngineConfig::default()
        });
        e.setup(
            "CREATE TABLE Flights (fno INT, dest TEXT);\
             CREATE TABLE Reserve (uid TEXT, fid INT);\
             INSERT INTO Flights VALUES (122, 'LA');",
        )
        .unwrap();
        let mut s = Scheduler::new(Arc::new(e), SchedulerConfig::default());
        s.submit(
            Program::parse(
                "BEGIN; SELECT 'Mickey', fno AS @fno INTO ANSWER R \
                 WHERE fno IN (SELECT fno FROM Flights WHERE dest='LA') \
                 AND ('Minnie', fno) IN ANSWER R CHOOSE 1; \
                 INSERT INTO Reserve (uid, fid) VALUES ('Mickey', @fno); COMMIT;",
            )
            .unwrap(),
        );
        s.submit(
            Program::parse(
                "BEGIN; SELECT 'Minnie', fno INTO ANSWER R \
                 WHERE fno IN (SELECT fno FROM Flights WHERE dest='LA') \
                 AND ('Mickey', fno) IN ANSWER R CHOOSE 1; \
                 ROLLBACK; COMMIT;",
            )
            .unwrap(),
        );
        let r = s.run_once();
        assert_eq!(r.committed, 1, "Mickey committed despite Minnie's abort");
        // The history now contains a genuine widowed transaction. The
        // recorder omits entangle links in AllowWidows mode only for group
        // *commit* purposes; the E op is still recorded.
        let sched = s.engine.recorder.schedule();
        let anomalies = youtopia_isolation::find_anomalies(&sched.expand_quasi_reads());
        assert!(
            anomalies
                .iter()
                .any(|a| matches!(a, youtopia_isolation::Anomaly::WidowedTransaction { .. })),
            "expected a widow, got {anomalies:?}"
        );
    }

    #[test]
    fn checkpoint_cadence_bounds_the_retained_log() {
        let mut s = Scheduler::new(
            engine(),
            SchedulerConfig {
                checkpoint: CheckpointPolicy::every_runs(1),
                ..SchedulerConfig::default()
            },
        );
        let mut retained = Vec::new();
        for i in 0..6 {
            let a = format!("a{i}");
            let b = format!("b{i}");
            s.submit(flight_txn(&a, &b));
            s.submit(flight_txn(&b, &a));
            let r = s.run_once();
            assert_eq!(r.committed, 2);
            assert_eq!(r.checkpoints, 1, "cadence: one checkpoint per run");
            assert!(r.truncated_bytes > 0);
            retained.push(s.engine.wal.retained_len());
        }
        assert_eq!(s.stats().checkpoints, 6);
        assert!(s.stats().truncated_bytes > 0);
        // Bounded WAL: the retained log is a suffix since the last image,
        // not full history — so it stays flat while logical length grows.
        let spread = retained.iter().max().unwrap() - retained.iter().min().unwrap();
        let logical = s.engine.wal.len();
        assert!(
            spread * 4 < logical,
            "retained log should be ~flat (spread {spread}) vs logical growth ({logical})"
        );
        assert!(s.engine.wal.retained_len() < logical);
        // The recovered engine still has everything.
        s.engine.crash_and_recover().unwrap();
        s.engine.with_db(|db| {
            assert_eq!(db.table("Reserve").unwrap().len(), 12);
        });
    }

    #[test]
    fn byte_cadence_checkpoints_when_the_log_grows_enough() {
        let mut s = Scheduler::new(
            engine(),
            SchedulerConfig {
                // Tiny byte budget: every run's publish crosses it.
                checkpoint: CheckpointPolicy::every_bytes(1),
                ..SchedulerConfig::default()
            },
        );
        s.submit(flight_txn("Mickey", "Minnie"));
        s.submit(flight_txn("Minnie", "Mickey"));
        let r = s.run_once();
        assert_eq!(r.checkpoints, 1);
        // No growth since the image → the next run skips the checkpoint.
        let r2 = s.run_once();
        assert_eq!(r2.checkpoints, 0);
        assert_eq!(s.stats().checkpoints, 1);
    }

    #[test]
    fn drain_times_out_partnerless_transactions() {
        let mut s = Scheduler::new(engine(), SchedulerConfig::default());
        s.submit(flight_txn("Donald", "Daffy"));
        let stats = s.drain();
        assert_eq!(stats.committed, 0);
        assert_eq!(stats.failed, 1);
        let results = s.take_results();
        assert!(matches!(
            results[0].status,
            TxnStatus::Failed(EngineError::TimedOut)
        ));
    }

    #[test]
    fn drain_retries_through_runs_that_end_in_lock_aborts() {
        // An outside transaction holds X on the row every pooled client
        // updates, so whole runs end with every client timed out and
        // nothing committed. That is contention, not "no further progress
        // is possible": drain must keep retrying, and everyone commits
        // once the holder lets go — which happens only after two such
        // runs have completed (4 timeouts), exactly where drain used to
        // give up and fail the pool.
        let e = Arc::new(Engine::new(EngineConfig {
            lock_timeout: Duration::from_millis(10),
            ..EngineConfig::default()
        }));
        e.setup("CREATE TABLE T (a INT); INSERT INTO T VALUES (0);")
            .unwrap();
        let mut holder = Txn::new(
            ClientId(u64::MAX),
            e.alloc_tx(),
            Program::parse("BEGIN; UPDATE T SET a = a + 100; COMMIT;").unwrap(),
        );
        e.begin(&mut holder);
        e.run_until_block(&mut holder);
        assert_eq!(holder.status, TxnStatus::ReadyToCommit);

        let mut s = Scheduler::new(e.clone(), SchedulerConfig::default());
        for _ in 0..2 {
            s.submit(Program::parse("BEGIN; UPDATE T SET a = a + 1; COMMIT;").unwrap());
        }
        let drained = std::sync::atomic::AtomicBool::new(false);
        let stats = std::thread::scope(|scope| {
            scope.spawn(|| {
                while e.timeouts() < 4 && !drained.load(std::sync::atomic::Ordering::SeqCst) {
                    std::thread::yield_now();
                }
                e.commit_group(&mut [&mut holder]);
            });
            let stats = s.drain();
            drained.store(true, std::sync::atomic::Ordering::SeqCst);
            stats
        });
        assert!(e.timeouts() >= 4, "two whole runs ended in lock aborts");
        assert_eq!(stats.failed, 0, "{stats:?}");
        assert_eq!(stats.committed, 2, "{stats:?}");
        e.with_db(|db| assert_eq!(db.canonical_rows("T").unwrap(), vec![vec![Value::Int(102)]]));
    }

    #[test]
    fn drained_mixed_pool_leaves_no_group_entries() {
        // Entangled pairs, a widowed pair (Minnie rolls back after
        // entangling, Mickey group-aborts and finally times out) and
        // classical transactions: once the pool has drained, every group
        // has retired and the classical ones never made an entry.
        let e = engine();
        let mut s = Scheduler::new(
            e.clone(),
            SchedulerConfig {
                connections: 2,
                ..Default::default()
            },
        );
        for i in 0..10 {
            let (a, b) = (format!("a{i}"), format!("b{i}"));
            let pair = if i % 2 == 0 { flight_txn } else { travel_txn };
            s.submit(pair(&a, &b));
            s.submit(pair(&b, &a));
            s.submit(
                Program::parse(&format!(
                    "BEGIN; INSERT INTO Reserve (uid, fid) VALUES ('c{i}', 122); COMMIT;"
                ))
                .unwrap(),
            );
        }
        s.submit(flight_txn("Mickey", "Minnie"));
        s.submit(
            Program::parse(
                "BEGIN WITH TIMEOUT 10 SECONDS; \
                 SELECT 'Minnie', fno INTO ANSWER FlightRes \
                 WHERE fno IN (SELECT fno FROM Flights WHERE dest='LA') \
                 AND ('Mickey', fno) IN ANSWER FlightRes CHOOSE 1; \
                 ROLLBACK; COMMIT;",
            )
            .unwrap(),
        );
        let stats = s.drain();
        assert_eq!(stats.committed, 30, "{stats:?}");
        assert_eq!(stats.failed, 2, "{stats:?}");
        assert!(stats.group_commits >= 10 && stats.group_aborts >= 1);
        assert_eq!(e.groups.tracked(), 0, "every group retired");
    }

    #[test]
    fn answers_surface_in_results() {
        let mut s = Scheduler::new(engine(), SchedulerConfig::default());
        s.submit(flight_txn("Mickey", "Minnie"));
        s.submit(flight_txn("Minnie", "Mickey"));
        s.run_once();
        let results = s.take_results();
        assert_eq!(results.len(), 2);
        for r in &results {
            assert_eq!(r.status, TxnStatus::Committed);
            assert_eq!(r.attempts, 1);
            assert_eq!(r.answers.len(), 1);
            assert_eq!(
                r.answers[0][1],
                Value::Int(122),
                "deterministic first choice"
            );
        }
    }

    #[test]
    fn hundred_pairs_drain_cleanly() {
        let mut s = Scheduler::new(
            engine(),
            SchedulerConfig {
                connections: 8,
                ..Default::default()
            },
        );
        for i in 0..100 {
            let a = format!("a{i}");
            let b = format!("b{i}");
            s.submit(flight_txn(&a, &b));
            s.submit(flight_txn(&b, &a));
        }
        let stats = s.drain();
        assert_eq!(stats.committed, 200);
        assert_eq!(stats.failed, 0);
        let sched = s.engine.recorder.schedule();
        sched.validate().unwrap();
        assert!(is_entangled_isolated(&sched));
    }
}
