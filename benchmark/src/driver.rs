//! The closed-loop driver: one thread hands waves of SQL text to a
//! scheduler and runs it until each wave has settled. The same loop drives
//! the real [`Scheduler`] (measured runs and the coarse trace pass) and the
//! benchmark's own single-threaded [`Mirror`] of it (the phases pass).

use crate::host::{Speed, SAMPLE_EVERY_WAVES};
use crate::inputs::{Inputs, Spec};
use crate::trace::Tracer;
use entangled_txn::{
    ClientId, CostModel, DeadlockPolicy, Engine, EngineConfig, EngineError, LockGranularity,
    Program, RunTrigger, Scheduler, SchedulerConfig, StepOutcome, Txn, TxnStatus,
};
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The settle loop gives up on a wave after this many runs; whatever is
/// still pooled then counts as failed.
const MAX_RUNS_PER_WAVE: usize = 60;
const MAX_ATTEMPTS: u32 = 50;
const CHECKPOINT_EVERY_BYTES: u64 = 1 << 20;

/// Everything set explicitly that an environment variable could change.
pub fn engine_config(spec: Spec, record_history: bool) -> EngineConfig {
    EngineConfig {
        cost: CostModel::ZERO,
        record_history,
        shards: spec.shards,
        granularity: LockGranularity::Row,
        deadlock: DeadlockPolicy::Detect,
        ..EngineConfig::default()
    }
}

/// `Engine::new` → schema, data and index DDL loaded. Returns the engine
/// and how long that took.
pub fn build_engine(spec: Spec, inputs: &Inputs, record_history: bool) -> (Arc<Engine>, Duration) {
    let t0 = Instant::now();
    let engine = Engine::new(engine_config(spec, record_history));
    engine
        .setup(&inputs.setup)
        .expect("generated setup script is valid");
    (Arc::new(engine), t0.elapsed())
}

/// One untraced rep through the real scheduler on a fresh engine; returns
/// the engine with it.
pub fn untraced(
    spec: Spec,
    inputs: &Inputs,
    connections: usize,
    record_history: bool,
) -> (Arc<Engine>, Rep) {
    let (engine, _) = build_engine(spec, inputs, record_history);
    let mut pool = Real::new(engine.clone(), connections);
    let rep = drive(spec, inputs, &mut pool, &mut Tracer::off(), |_, _| {});
    (engine, rep)
}

/// What the wave loop needs from a scheduler.
pub trait Pool {
    fn engine(&self) -> &Arc<Engine>;
    fn submit(&mut self, program: Program, tr: &mut Tracer);
    /// One run over the whole pool; returns the row versions it pruned.
    fn run_once(&mut self, tr: &mut Tracer) -> u64;
    fn pool_len(&self) -> usize;
    /// `(committed, failed, attempts)` so far.
    fn settled(&self) -> (usize, usize, u64);
}

pub struct Real(pub Scheduler);

impl Real {
    pub fn new(engine: Arc<Engine>, connections: usize) -> Real {
        Real(Scheduler::new(
            engine,
            SchedulerConfig {
                connections,
                trigger: RunTrigger::Manual,
                max_attempts: MAX_ATTEMPTS,
                ..SchedulerConfig::default()
            },
        ))
    }
}

impl Pool for Real {
    fn engine(&self) -> &Arc<Engine> {
        &self.0.engine
    }

    fn submit(&mut self, program: Program, tr: &mut Tracer) {
        tr.span("scheduler.submit", |_| self.0.submit(program));
    }

    fn run_once(&mut self, tr: &mut Tracer) -> u64 {
        tr.span("scheduler.run_once", |_| self.0.run_once())
            .versions_pruned
    }

    fn pool_len(&self) -> usize {
        self.0.pool_len()
    }

    fn settled(&self) -> (usize, usize, u64) {
        let s = self.0.stats();
        (s.committed, s.failed, s.total_attempts)
    }
}

/// The §4 phase loop of `Scheduler::run_once` at one connection, written
/// against `Engine`'s public lifecycle only, one span per call. It must
/// commit the same transactions and leave the same database as the real
/// scheduler (the trace run checks both).
pub struct Mirror {
    engine: Arc<Engine>,
    dormant: VecDeque<Txn>,
    next_client: u64,
    committed: usize,
    failed: usize,
    attempts: u64,
}

impl Mirror {
    pub fn new(engine: Arc<Engine>) -> Mirror {
        Mirror {
            engine,
            dormant: VecDeque::new(),
            next_client: 1,
            committed: 0,
            failed: 0,
            attempts: 0,
        }
    }

    fn finish(&mut self, txn: &Txn, committed: bool) {
        self.attempts += u64::from(txn.attempt) + 1;
        if committed {
            self.committed += 1;
        } else {
            self.failed += 1;
        }
    }

    fn requeue(&mut self, mut txn: Txn) {
        if txn.attempt + 1 >= MAX_ATTEMPTS {
            self.finish(&txn, false);
            return;
        }
        txn.reset_for_retry(self.engine.alloc_tx());
        self.dormant.push_back(txn);
    }
}

impl Pool for Mirror {
    fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }

    fn submit(&mut self, program: Program, tr: &mut Tracer) {
        let tx = tr.span("engine.alloc_tx", |_| self.engine.alloc_tx());
        let client = ClientId(self.next_client);
        self.next_client += 1;
        self.dormant.push_back(Txn::new(client, tx, program));
    }

    fn run_once(&mut self, tr: &mut Tracer) -> u64 {
        let engine = self.engine.clone();
        let mut run: Vec<Txn> = self.dormant.drain(..).collect();
        for txn in &mut run {
            tr.span("engine.begin", |_| engine.begin(txn));
        }

        // Phase loop: advance everyone, commit the ungrouped ready ones at
        // once, evaluate the blocked ones jointly, repeat while any resume.
        let mut to_advance: Vec<usize> = (0..run.len()).collect();
        loop {
            for &i in &to_advance {
                let txn = &mut run[i];
                let ready = tr.span("executor.run_until_block", |_| engine.run_until_block(txn))
                    == StepOutcome::Ready;
                if ready && !tr.span("groups.is_grouped", |_| engine.groups.is_grouped(txn.tx)) {
                    tr.span("engine.commit_group", |_| engine.commit_group(&mut [txn]));
                }
            }
            let mut blocked: Vec<&mut Txn> = run
                .iter_mut()
                .filter(|t| matches!(t.status, TxnStatus::Blocked { .. }))
                .collect();
            if blocked.is_empty() {
                break;
            }
            tr.span("engine.evaluate_queries", |_| {
                engine.evaluate_queries(&mut blocked)
            });
            to_advance = (0..run.len())
                .filter(|&i| run[i].status == TxnStatus::Running)
                .collect();
            if to_advance.is_empty() {
                break;
            }
        }

        // Settle: a group commits when every member is in this run and
        // ready; a ready member of any other group aborts with it.
        let by_tx: HashMap<u64, usize> = run.iter().enumerate().map(|(i, t)| (t.tx, i)).collect();
        let mut handled: HashSet<usize> = HashSet::new();
        let mut batch: Vec<usize> = Vec::new();
        let mut group_aborts: Vec<usize> = Vec::new();
        for i in 0..run.len() {
            if run[i].status != TxnStatus::ReadyToCommit || handled.contains(&i) {
                continue;
            }
            let members = tr.span("groups.members", |_| engine.groups.members(run[i].tx));
            let idx: Vec<usize> = members
                .iter()
                .filter_map(|t| by_tx.get(t).copied())
                .collect();
            if idx.len() == members.len()
                && idx
                    .iter()
                    .all(|&j| run[j].status == TxnStatus::ReadyToCommit)
            {
                handled.extend(&idx);
                batch.extend(idx);
            } else {
                handled.insert(i);
                group_aborts.push(i);
            }
        }
        if !batch.is_empty() {
            let in_batch: HashSet<usize> = batch.iter().copied().collect();
            let mut slots: Vec<Option<&mut Txn>> = run
                .iter_mut()
                .enumerate()
                .map(|(i, t)| in_batch.contains(&i).then_some(t))
                .collect();
            // Groups must stay contiguous, in plan order.
            let mut refs: Vec<&mut Txn> = batch
                .iter()
                .map(|&i| slots[i].take().expect("distinct batch indices"))
                .collect();
            tr.span("engine.commit_batch", |_| engine.commit_batch(&mut refs));
        }
        for i in group_aborts {
            tr.span("engine.abort", |_| {
                engine.abort(&mut run[i], EngineError::GroupAbort)
            });
        }
        for mut txn in run {
            match txn.status.clone() {
                TxnStatus::Committed => self.finish(&txn, true),
                TxnStatus::Blocked { .. } => {
                    tr.span("engine.abort", |_| {
                        engine.abort(&mut txn, EngineError::Protocol("blocked at end of run"))
                    });
                    self.requeue(txn);
                }
                TxnStatus::Aborted(EngineError::GroupAbort | EngineError::Lock(_)) => {
                    self.requeue(txn)
                }
                _ => self.finish(&txn, false),
            }
        }
        tr.span("engine.vacuum", |_| engine.vacuum())
    }

    fn pool_len(&self) -> usize {
        self.dormant.len()
    }

    fn settled(&self) -> (usize, usize, u64) {
        (self.committed, self.failed, self.attempts)
    }
}

/// What one pass over the inputs produced.
#[derive(Debug, Clone, Default)]
pub struct Rep {
    pub submitted: usize,
    pub committed: usize,
    pub failed: usize,
    pub attempts: u64,
    /// Statements in the submitted programs.
    pub statements: usize,
    /// Per wave: SQL text handed over → every transaction settled.
    pub wave_ms: Vec<f64>,
    pub checkpoint_ms: Vec<f64>,
    /// Host speed while the rep ran, sampled between waves.
    pub speed: Speed,
    pub runs: usize,
    pub versions_pruned: u64,
    /// Logical log bytes written by the waves (checkpoint images included).
    pub log_bytes: u64,
}

impl Rep {
    /// Σ wave time + Σ checkpoint time, as measured: first
    /// `Program::parse` → last wave settled, less what the driver itself
    /// does between waves (host-speed samples, a traced pass's counting).
    pub fn busy_ms(&self) -> f64 {
        self.wave_ms.iter().sum::<f64>() + self.checkpoint_ms.iter().sum::<f64>()
    }

    /// Wave times on the nominal host (see [`crate::host`]).
    pub fn nominal_wave_ms(&self) -> Vec<f64> {
        let to_nominal = self.speed.to_nominal();
        self.wave_ms.iter().map(|ms| ms * to_nominal).collect()
    }

    /// [`Self::busy_ms`] on the nominal host.
    pub fn nominal_busy_ms(&self) -> f64 {
        self.busy_ms() * self.speed.to_nominal()
    }
}

/// Drive every wave of `inputs` through `pool`. `around_checkpoint` runs
/// just before (`false`) and just after (`true`) each checkpoint, outside
/// every span and wave time: the log is about to lose, or has just lost,
/// its prefix.
pub fn drive(
    spec: Spec,
    inputs: &Inputs,
    pool: &mut dyn Pool,
    tr: &mut Tracer,
    mut around_checkpoint: impl FnMut(&Engine, bool),
) -> Rep {
    let engine = pool.engine().clone();
    let mut rep = Rep::default();
    let log_start = engine.wal.len();
    let mut log_at_checkpoint = log_start;
    for (w, wave) in inputs.waves.iter().enumerate() {
        tr.set_wave(w);
        let t_wave = Instant::now();
        tr.span("wave", |tr| {
            for sql in &wave.sql {
                let program = tr
                    .span("sql.parse", |_| Program::parse(sql))
                    .expect("generated transaction parses");
                rep.statements += program.statements.len();
                pool.submit(program, tr);
            }
            for _ in 0..MAX_RUNS_PER_WAVE {
                rep.versions_pruned += pool.run_once(tr);
                rep.runs += 1;
                if pool.pool_len() <= wave.carry {
                    break;
                }
            }
        });
        rep.wave_ms.push(t_wave.elapsed().as_secs_f64() * 1e3);
        if w % SAMPLE_EVERY_WAVES == 0 {
            rep.speed.sample();
        }
        if spec.checkpoint && engine.wal.len() - log_at_checkpoint >= CHECKPOINT_EVERY_BYTES {
            around_checkpoint(&engine, false);
            let t_ckpt = Instant::now();
            let report = tr
                .span("engine.checkpoint", |_| engine.checkpoint(true))
                .expect("the engine is quiescent between waves");
            rep.checkpoint_ms.push(t_ckpt.elapsed().as_secs_f64() * 1e3);
            rep.versions_pruned += report.versions_pruned;
            log_at_checkpoint = engine.wal.len();
            around_checkpoint(&engine, true);
        }
    }
    rep.submitted = inputs.txns();
    (rep.committed, rep.failed, rep.attempts) = pool.settled();
    // Whatever never settled (still pooled after the run cap) failed.
    rep.failed = rep.failed.max(rep.submitted - rep.committed);
    rep.log_bytes = engine.wal.len() - log_start;
    rep
}
