//! The traced run: per-layer metrics from three passes over the same
//! inputs, all at one connection so that counts repeat exactly.
//!
//! 1. **coarse** — the real `Scheduler`, spans around its public calls.
//! 2. **phases** — the benchmark's [`Mirror`] of the §4 phase loop, one
//!    span per `Engine` lifecycle call. Checked against pass 1.
//! 3. **probes** — the leaf crates replayed with the workload's own
//!    statements, log records and lock requests.
//!
//! Two untraced reps (one and two connections) give the tracing overhead
//! and everything that exists only under contention.

use crate::checks::{isolation_prefix, verify_isolation, verify_outputs};
use crate::driver::{build_engine, drive, untraced, Mirror, Pool, Real, Rep};
use crate::host::Speed;
use crate::inputs::{generate, Inputs, Scale, Spec};
use crate::measure::{Metric, Outcome, CONNECTIONS};
use crate::stats::{median, percentile, ratio};
use crate::trace::{totals, Span, Total, Tracer};
use entangled_txn::{Engine, Program};
use std::collections::BTreeMap;
use youtopia_entangle::{from_ast, ground, solve, GroundingSet, QueryIr, QueryOutcome, SolveInput};
use youtopia_lock::{LockManager, LockMode, Resource, TxId};
use youtopia_sql::{access_plan, lower_select, lower_table_cond, AccessPlan, Statement, VarEnv};
use youtopia_storage::{eval_spj_counted, Database, Expr, Row, ScanStats};
use youtopia_wal::{recover, recover_sharded, LogRecord, Lsn, Wal};

/// Waves of the workload the statement probes replay.
const PROBE_WAVES: usize = 32;
const LOCK_PROBE_CYCLES: u64 = 50_000;

type Totals = BTreeMap<&'static str, Total>;

fn get(t: &Totals, name: &str) -> Total {
    t.get(name).copied().unwrap_or_default()
}

/// Mean duration in µs of the spans named `name`.
fn mean_us(t: &Totals, name: &str) -> f64 {
    let s = get(t, name);
    ratio(s.total_us(), s.count as f64)
}

/// Run `pass` inside a root span and return the totals of the spans it
/// recorded, the root included, on the nominal host (see [`crate::host`]):
/// `pass` also returns the host speed it sampled while it ran.
fn traced_pass<T>(
    tr: &mut Tracer,
    name: &'static str,
    pass: impl FnOnce(&mut Tracer) -> (T, Speed),
) -> (T, Totals) {
    let first = tr.spans().len();
    let (out, speed) = tr.span(name, pass);
    let mut totals = totals(&tr.spans()[first..]);
    for t in totals.values_mut() {
        t.total_ns = (t.total_ns as f64 * speed.to_nominal()) as u64;
        t.self_ns = (t.self_ns as f64 * speed.to_nominal()) as u64;
    }
    (out, totals)
}

/// Log records the engine retains, over all segments.
fn retained_records(engine: &Engine) -> usize {
    engine
        .wal
        .all_records()
        .expect("the retained log decodes")
        .len()
}

/// What the coarse pass leaves behind once its engine is gone.
struct Coarse {
    rep: Rep,
    /// The canonical database the waves produced.
    state: BTreeMap<String, Vec<Row>>,
    /// Log records the waves wrote (checkpoint images not counted).
    records: usize,
    syncs: u64,
    /// Engine counters at the end of the waves.
    rows_scanned: u64,
    index_lookups: u64,
    grants: u64,
    cross_prepares: u64,
    retained_bytes: u64,
    /// The durable log per segment, for the `wal` probes.
    logs: Vec<Vec<(Lsn, LogRecord)>>,
}

/// Pass 1: the real `Scheduler` at one connection. The engine is dropped
/// on return, so that the next pass starts from the heap this one did.
fn coarse_pass(
    spec: Spec,
    inputs: &Inputs,
    tr: &mut Tracer,
    violations: &mut Vec<String>,
) -> Coarse {
    let (engine, _) = build_engine(spec, inputs, false);
    let syncs_at_start = engine.wal.sync_count();
    let mut base = retained_records(&engine);
    let mut records = 0;
    let mut pool = Real::new(engine.clone(), 1);
    let rep = drive(spec, inputs, &mut pool, tr, |engine, after| {
        // A checkpoint truncates the prefix: count what the waves wrote
        // before it goes, and start again from the image it leaves.
        if after {
            base = retained_records(engine);
        } else {
            records += retained_records(engine) - base;
        }
    });
    records += retained_records(&engine) - base;
    violations.extend(verify_outputs(spec, inputs, &engine, &rep));
    let coarse = Coarse {
        state: engine.with_db(|db| db.canonical()),
        records,
        syncs: engine.wal.sync_count() - syncs_at_start,
        rows_scanned: engine.rows_scanned(),
        index_lookups: engine.index_lookups(),
        grants: engine.locks.total_grants(),
        cross_prepares: engine.cross_shard_prepares(),
        retained_bytes: engine.wal.retained_len(),
        logs: engine
            .wal
            .durable_records_sharded()
            .expect("the durable log decodes"),
        rep,
    };
    tr.span("engine.crash_and_recover", |_| {
        engine
            .crash_and_recover()
            .expect("the durable log recovers")
    });
    coarse
}

/// One transaction walked through the leaf crates, statement by statement.
struct ProbeTxn {
    program: Program,
    pc: usize,
    env: VarEnv,
}

/// An entangled query waiting for the joint evaluation of its wave.
struct Pending {
    txn: ProbeTxn,
    ir: QueryIr,
    grounding: GroundingSet,
}

#[derive(Default)]
struct ProbeCounts {
    plans: [u64; 3],
    queries: u64,
    groundings: u64,
    answered: u64,
}

/// Advance `txn` through `sql` lowering/planning and `storage`
/// evaluation until it ends or reaches an entangled query, which is
/// grounded and returned for the wave's joint solve.
fn probe_advance(
    db: &Database,
    mut txn: ProbeTxn,
    tr: &mut Tracer,
    n: &mut ProbeCounts,
) -> Option<Pending> {
    while txn.pc < txn.program.statements.len() {
        let stmt = txn.program.statements[txn.pc].clone();
        txn.pc += 1;
        let mut plan_of = |table: &str, pred: &Expr| {
            let plan = access_plan(db, table, pred).expect("generated statement plans");
            n.plans[match plan {
                AccessPlan::Point(_) => 0,
                AccessPlan::Range(_) => 1,
                AccessPlan::Scan => 2,
            }] += 1;
        };
        match &stmt {
            Statement::Select(sel) => {
                let lowered = tr.span("probe.sql.lower", |_| {
                    let lowered =
                        lower_select(db, sel, &txn.env).expect("generated statement lowers");
                    if let [table] = lowered.query.tables.as_slice() {
                        plan_of(table, &lowered.query.predicate);
                    }
                    lowered
                });
                let out = tr.span("probe.storage.eval", |_| {
                    eval_spj_counted(db, &lowered.query, &mut ScanStats::default())
                        .expect("generated statement evaluates")
                });
                if let Some(row) = out.rows.first() {
                    for (idx, var) in &lowered.bindings {
                        txn.env.insert(var.clone(), row[*idx].clone());
                    }
                }
            }
            Statement::Update {
                table,
                where_clause,
                ..
            }
            | Statement::Delete {
                table,
                where_clause,
            } => {
                tr.span("probe.sql.lower", |_| {
                    let pred = lower_table_cond(db, table, where_clause, &txn.env)
                        .expect("generated statement lowers");
                    plan_of(table, &pred);
                });
            }
            Statement::Entangled(eq) => {
                n.queries += 1;
                let (ir, grounding) = tr.span("probe.entangle.ground", |_| {
                    let ir = from_ast(eq, &txn.env).expect("generated query translates");
                    let grounding = ground(db, &ir, &txn.env).expect("generated query grounds");
                    (ir, grounding)
                });
                n.groundings += grounding.groundings.len() as u64;
                return Some(Pending { txn, ir, grounding });
            }
            _ => {}
        }
    }
    None
}

/// Pass 3a: the workload's statements through `lower_select` /
/// `lower_table_cond` / `access_plan` and `eval_spj_counted`, and its
/// entangled statements through `from_ast` / `ground` / `solve` wave by
/// wave, against the seed database.
fn probe_statements(spec: Spec, inputs: &Inputs, tr: &mut Tracer) -> ProbeCounts {
    let (engine, _) = build_engine(spec, inputs, false);
    let mut n = ProbeCounts::default();
    engine.with_db(|db| {
        let mut pending: Vec<Pending> = Vec::new();
        for (w, wave) in inputs.waves.iter().take(PROBE_WAVES).enumerate() {
            tr.set_wave(w);
            for sql in &wave.sql {
                let txn = ProbeTxn {
                    program: Program::parse(sql).expect("generated transaction parses"),
                    pc: 0,
                    env: VarEnv::new(),
                };
                pending.extend(probe_advance(db, txn, tr, &mut n));
            }
            if pending.is_empty() {
                continue;
            }
            let solution = tr.span("probe.entangle.solve", |_| {
                let inputs: Vec<SolveInput> = pending
                    .iter()
                    .map(|p| SolveInput {
                        ir: &p.ir,
                        grounding: &p.grounding,
                    })
                    .collect();
                solve(&inputs, &engine.config.solver)
            });
            // Answered queries resume; the others wait for the next wave.
            let mut waiting = Vec::new();
            for (p, outcome) in pending.drain(..).zip(&solution.outcomes) {
                let QueryOutcome::Answered { grounding } = outcome else {
                    waiting.push(p);
                    continue;
                };
                n.answered += 1;
                let mut txn = p.txn;
                let answer = &p.grounding.groundings[*grounding].answer_row;
                for (idx, var) in &p.ir.bindings {
                    txn.env.insert(var.clone(), answer[*idx].clone());
                }
                waiting.extend(probe_advance(db, txn, tr, &mut n));
            }
            pending = waiting;
        }
    });
    n
}

struct WalProbe {
    records: usize,
    bytes: usize,
}

/// Pass 3b: the log the workload left behind through `LogRecord::encode`,
/// a fresh `Wal::publish` + `sync`, and `recover` / `recover_sharded`.
fn probe_wal(logs: &[Vec<(Lsn, LogRecord)>], tr: &mut Tracer) -> WalProbe {
    let mut probe = WalProbe {
        records: logs.iter().map(Vec::len).sum(),
        bytes: 0,
    };
    tr.span("probe.wal.encode", |_| {
        for (_, rec) in logs.iter().flatten() {
            probe.bytes += std::hint::black_box(rec.encode()).len();
        }
    });
    let segments: Vec<Vec<LogRecord>> = logs
        .iter()
        .map(|log| log.iter().map(|(_, r)| r.clone()).collect())
        .collect();
    tr.span("probe.wal.publish", |_| {
        for segment in &segments {
            let wal = Wal::new();
            wal.publish(segment);
            std::hint::black_box(wal.sync());
        }
    });
    tr.span("probe.wal.recover", |_| match logs {
        [log] => drop(recover(log).expect("the durable log recovers")),
        _ => drop(recover_sharded(logs).expect("the durable log recovers")),
    });
    probe
}

/// Pass 3c: a fresh `LockManager` through the cycle a point UPDATE takes:
/// table IX, index-key X, row X, then `unlock_all`.
fn probe_locks(tr: &mut Tracer) {
    let locks = LockManager::new();
    tr.span("probe.lock.cycles", |_| {
        for i in 0..LOCK_PROBE_CYCLES {
            let tx = TxId(i + 1);
            let grants = [
                (Resource::table("Reserve"), LockMode::IX),
                (Resource::row("Reserve#reserve_uid", i), LockMode::X),
                (Resource::row("Reserve", i), LockMode::X),
            ];
            for (res, mode) in grants {
                locks
                    .lock(tx, res, mode, None)
                    .expect("uncontended lock is granted");
            }
            locks.unlock_all(tx);
        }
    });
}

/// Σ duration of the pass-2 spans that stand for work `run_once` does.
fn mirrored_run_once_us(phases: &Totals) -> f64 {
    [
        "engine.begin",
        "executor.run_until_block",
        "groups.is_grouped",
        "groups.members",
        "engine.commit_group",
        "engine.evaluate_queries",
        "engine.commit_batch",
        "engine.abort",
        "engine.vacuum",
    ]
    .iter()
    .map(|name| get(phases, name).total_us())
    .sum()
}

/// The engine's lock counters after the rep at two connections.
struct Contended {
    deadlocks: u64,
    timeouts: u64,
    probes: u64,
    victims: u64,
}

/// The traced run of `spec`. Returns every per-layer metric and the spans.
pub fn trace(spec: Spec, scale: Scale, seed: u64) -> (Outcome, Vec<Span>) {
    let inputs = generate(spec, scale, seed);
    let mut out = Outcome::default();
    let mut tr = Tracer::on();

    // Reps that are compared with each other run next to each other:
    // later passes of a process have been seen 15–20 % slower than its
    // first two (heap layout), whatever they are.
    let (two_engine, two) = untraced(spec, &inputs, CONNECTIONS, false);
    out.violations
        .extend(verify_outputs(spec, &inputs, &two_engine, &two));
    let waits: Vec<f64> = two_engine
        .lock_wait_micros()
        .iter()
        .map(|&us| us as f64 * two.speed.to_nominal())
        .collect();

    let contended = Contended {
        deadlocks: two_engine.deadlocks(),
        timeouts: two_engine.timeouts(),
        probes: two_engine.detection_probes(),
        victims: two_engine.deadlock_victims(),
    };
    drop(two_engine);

    let (one_engine, one) = untraced(spec, &inputs, 1, false);
    out.violations
        .extend(verify_outputs(spec, &inputs, &one_engine, &one));
    drop(one_engine);

    let (coarse, c) = traced_pass(&mut tr, "pass.coarse", |tr| {
        let coarse = coarse_pass(spec, &inputs, tr, &mut out.violations);
        let speed = coarse.rep.speed.clone();
        (coarse, speed)
    });

    let (phases_rep, p) = traced_pass(&mut tr, "pass.phases", |tr| {
        let (engine, _) = build_engine(spec, &inputs, false);
        let mut pool = Mirror::new(engine.clone());
        let rep = drive(spec, &inputs, &mut pool, tr, |_, _| {});
        if pool.settled().0 != coarse.rep.committed {
            out.violations.push(format!(
                "phases pass committed {}, the scheduler {}",
                pool.settled().0,
                coarse.rep.committed
            ));
        }
        if engine.with_db(|db| db.canonical()) != coarse.state {
            out.violations
                .push("phases pass and scheduler left different databases".to_string());
        }
        let speed = rep.speed.clone();
        (rep, speed)
    });

    let ((counts, wal), probes) = traced_pass(&mut tr, "pass.probes", |tr| {
        let mut speed = Speed::default();
        speed.sample();
        let counts = probe_statements(spec, &inputs, tr);
        speed.sample();
        let wal = probe_wal(&coarse.logs, tr);
        speed.sample();
        probe_locks(tr);
        speed.sample();
        ((counts, wal), speed)
    });

    // The watchers' price when on: the recorded prefix against the same
    // prefix unrecorded, both at one connection.
    let recorded = verify_isolation(spec, scale, seed, 1);
    out.violations.extend(recorded.violations);
    let prefix = isolation_prefix(spec);
    let (_, unrecorded) = untraced(prefix, &generate(prefix, scale, seed), 1, false);

    let rep = &coarse.rep;
    let (txns, waves) = (rep.submitted as f64, inputs.waves.len() as f64);
    let (committed, statements) = (rep.committed as f64, rep.statements as f64);
    let planned = counts.plans.iter().sum::<u64>() as f64;
    let [point, range, scan] = counts.plans.map(|n| ratio(n as f64, planned));
    let queries = counts.queries as f64;
    // Σ µs of the spans of one name, per pass (`c`oarse, `p`hases, probes).
    let us = |t: &Totals, name: &str| get(t, name).total_us();
    let advance = us(&p, "executor.run_until_block");
    let run_once = us(&c, "scheduler.run_once");
    let batched = phases_rep.committed as f64 - get(&p, "engine.commit_group").count as f64;
    let lock_ns = get(&probes, "probe.lock.cycles").total_ns as f64;
    let wal_records = wal.records as f64;
    let wave = get(&p, "wave");
    let covered = (wave.total_ns - wave.self_ns) as f64;
    // One row per metric, in report order (`BENCHMARK.json` lists the same).
    #[rustfmt::skip]
    let rows: [(&'static str, &'static str, f64); 52] = [
        ("sql.parse_us_per_txn", "us", mean_us(&c, "sql.parse")),
        ("sql.lower_us_per_stmt", "us", mean_us(&probes, "probe.sql.lower")),
        ("sql.plan_point_frac", "frac", point),
        ("sql.plan_range_frac", "frac", range),
        ("sql.plan_scan_frac", "frac", scan),
        ("storage.eval_us_per_stmt", "us", mean_us(&probes, "probe.storage.eval")),
        ("storage.rows_scanned_per_stmt", "count", ratio(coarse.rows_scanned as f64, statements)),
        ("storage.index_lookups_per_stmt", "count", ratio(coarse.index_lookups as f64, statements)),
        ("storage.versions_pruned_per_txn", "count", ratio(rep.versions_pruned as f64, txns)),
        ("executor.advance_us_per_txn", "us", ratio(advance, txns)),
        ("executor.advance_us_per_stmt", "us", ratio(advance, statements)),
        ("lock.grants_per_txn", "count", ratio(coarse.grants as f64, txns)),
        ("lock.acquire_ns", "ns", ratio(lock_ns, (3 * LOCK_PROBE_CYCLES) as f64)),
        ("lock.waits_per_txn", "count", ratio(waits.len() as f64, txns)),
        ("lock.wait_us_p50", "us", median(&waits)),
        ("lock.wait_us_p95", "us", percentile(&waits, 95.0)),
        ("lock.deadlocks_per_txn", "count", ratio(contended.deadlocks as f64, txns)),
        ("lock.timeouts", "count", contended.timeouts as f64),
        ("lock.detect_probes", "count", contended.probes as f64),
        ("lock.detect_victims", "count", contended.victims as f64),
        ("wal.records_per_commit", "count", ratio(coarse.records as f64, committed)),
        ("wal.syncs_per_commit", "count", ratio(coarse.syncs as f64, committed)),
        ("wal.encode_ns_per_record", "ns", ratio(1e3 * us(&probes, "probe.wal.encode"), wal_records)),
        ("wal.publish_mb_per_s", "MB/s", ratio(wal.bytes as f64, us(&probes, "probe.wal.publish"))),
        ("wal.recover_us_per_record", "us", ratio(us(&probes, "probe.wal.recover"), wal_records)),
        ("wal.retained_bytes", "bytes", coarse.retained_bytes as f64),
        ("entangle.ground_us_per_query", "us", mean_us(&probes, "probe.entangle.ground")),
        ("entangle.solve_us_per_wave", "us", mean_us(&probes, "probe.entangle.solve")),
        ("entangle.groundings_per_query", "count", ratio(counts.groundings as f64, queries)),
        ("entangle.answered_frac", "frac", ratio(counts.answered as f64, queries)),
        ("engine.begin_us_per_txn", "us", mean_us(&p, "engine.begin")),
        ("engine.evaluate_us_per_wave", "us", ratio(us(&p, "engine.evaluate_queries"), waves)),
        ("engine.commit_group_us_per_txn", "us", mean_us(&p, "engine.commit_group")),
        ("engine.commit_batch_us_per_txn", "us", ratio(us(&p, "engine.commit_batch"), batched)),
        ("engine.abort_us_per_abort", "us", mean_us(&p, "engine.abort")),
        ("engine.vacuum_us_per_wave", "us", ratio(us(&p, "engine.vacuum"), waves)),
        ("engine.checkpoint_ms_per_call", "ms", mean_us(&c, "engine.checkpoint") / 1e3),
        ("engine.recover_ms", "ms", mean_us(&c, "engine.crash_and_recover") / 1e3),
        ("engine.cross_prepares_per_commit", "count", ratio(coarse.cross_prepares as f64, committed)),
        ("groups.is_grouped_us_per_call", "us", mean_us(&p, "groups.is_grouped")),
        ("scheduler.submit_us_per_txn", "us", mean_us(&c, "scheduler.submit")),
        ("scheduler.run_once_us_per_wave", "us", ratio(run_once, waves)),
        ("scheduler.self_us_per_txn", "us", ratio(run_once - mirrored_run_once_us(&p), txns)),
        ("scheduler.attempts_per_commit", "count", ratio(two.attempts as f64, two.committed as f64)),
        ("scheduler.runs_per_wave", "count", ratio(rep.runs as f64, waves)),
        ("scheduler.conn_speedup_x", "x", ratio(one.nominal_busy_ms(), two.nominal_busy_ms())),
        ("recorder.ops_per_txn", "count", ratio(recorded.ops as f64, recorded.txns as f64)),
        ("recorder.overhead_x", "x", ratio(recorded.recorded_ms, unrecorded.nominal_busy_ms())),
        ("isolation.check_ms", "ms", recorded.check_ms),
        ("host.reference_us", "us", rep.speed.reference_us()),
        ("trace.overhead_x", "x", ratio(rep.nominal_busy_ms(), one.nominal_busy_ms())),
        ("trace.coverage_frac", "frac", ratio(covered, wave.total_ns as f64)),
    ];
    out.metrics = rows
        .into_iter()
        .map(|(name, unit, value)| Metric { name, unit, value })
        .collect();
    out.attempted = rep.submitted;
    out.failed = rep.failed;
    out.reps = 1;
    (out, tr.spans().to_vec())
}
