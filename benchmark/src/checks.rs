//! Correctness checks on what the program produced. Each returns the
//! violations it found; an empty list means the outputs are correct.

use crate::driver::{build_engine, untraced, Rep};
use crate::host::Speed;
use crate::inputs::{generate, Inputs, Scale, Spec, WAVE};
use entangled_txn::Engine;
use std::collections::BTreeMap;
use std::time::Instant;
use youtopia_isolation::is_entangled_isolated;
use youtopia_storage::{Row, Value};

/// Transactions in the recorded prefix the isolation check replays. The
/// checker is superlinear in schedule length (0.5 s at 4 waves of
/// `booking`, 6.6 s at 16), and every run pays for it.
const ISOLATION_PREFIX: usize = 4 * WAVE;
const RECOVERIES: usize = 7;

type Canonical = BTreeMap<String, Vec<Row>>;

fn canonical(engine: &Engine) -> Canonical {
    engine.with_db(|db| db.canonical())
}

/// Counts, lock timeouts and the workload's own invariants.
pub fn verify_outputs(spec: Spec, inputs: &Inputs, engine: &Engine, rep: &Rep) -> Vec<String> {
    let mut bad = Vec::new();
    if rep.committed + rep.failed != rep.submitted || rep.failed != 0 {
        bad.push(format!(
            "{} submitted, {} committed, {} failed",
            rep.submitted, rep.committed, rep.failed
        ));
    }
    if engine.timeouts() != 0 {
        bad.push(format!("{} lock waits timed out", engine.timeouts()));
    }
    let state = canonical(engine);
    let reserve = state.get("reserve").map_or(&[][..], |r| r.as_slice());
    if reserve.len() != inputs.expect.reserve_rows {
        bad.push(format!(
            "Reserve holds {} rows, expected {}",
            reserve.len(),
            inputs.expect.reserve_rows
        ));
    }
    if !inputs.expect.pairs.is_empty() {
        if !rep.committed.is_multiple_of(2) {
            bad.push(format!("odd committed count {}", rep.committed));
        }
        bad.extend(verify_pairs(inputs, reserve));
    }
    if inputs.expect.unchanged {
        let (seed, _) = build_engine(spec, inputs, false);
        if canonical(&seed) != state {
            bad.push("database differs from its seed state".to_string());
        }
    }
    bad
}

/// Both members of every pair hold a `Reserve` row with the same flight,
/// one that serves their route, and nobody holds anything else.
fn verify_pairs(inputs: &Inputs, reserve: &[Row]) -> Vec<String> {
    let mut booked: Vec<Vec<usize>> = vec![Vec::new(); inputs.scale.users];
    for row in reserve {
        match (&row[0], &row[1]) {
            (Value::Int(uid), Value::Int(fid)) => booked[*uid as usize].push(*fid as usize),
            other => return vec![format!("malformed Reserve row {other:?}")],
        }
    }
    let mut bad = Vec::new();
    for (uid, fids) in booked.iter_mut().enumerate() {
        match fids.iter().position(|&f| f == inputs.seed_flight(uid)) {
            Some(i) => {
                fids.swap_remove(i);
            }
            None => bad.push(format!("user {uid} lost the seeded reservation")),
        }
    }
    for p in &inputs.expect.pairs {
        let home = inputs.hometown[p.a];
        let shared = booked[p.a]
            .iter()
            .copied()
            .find(|&f| inputs.flight_serves(f, home, p.dest) && booked[p.b].contains(&f));
        match shared {
            Some(f) => {
                for uid in [p.a, p.b] {
                    let i = booked[uid]
                        .iter()
                        .position(|&x| x == f)
                        .expect("just found");
                    booked[uid].swap_remove(i);
                }
            }
            None => bad.push(format!("pair {p:?} holds no common flight")),
        }
    }
    if booked.iter().any(|fids| !fids.is_empty()) {
        bad.push("reservations beyond the seeded and paired ones".to_string());
    }
    bad
}

/// Durability: the simulated device drops its unsynced tail at a crash,
/// so the recovered database equals the pre-crash one only if every
/// acknowledged commit was synced. Recovers [`RECOVERIES`] times and
/// appends each restart time (ms, on the nominal host) to `restart_ms`.
pub fn verify_durability(engine: &Engine, restart_ms: &mut Vec<f64>) -> Vec<String> {
    let before = canonical(engine);
    let mut bad = Vec::new();
    for _ in 0..RECOVERIES {
        let ((widowed, took), to_nominal) = Speed::around(1, || {
            let t0 = Instant::now();
            (engine.crash_and_recover(), t0.elapsed())
        });
        restart_ms.push(took.as_secs_f64() * 1e3 * to_nominal);
        match widowed {
            Ok(w) if w.is_empty() => {}
            Ok(w) => bad.push(format!("{} widowed rollbacks at recovery", w.len())),
            Err(e) => bad.push(format!("recovery failed: {e}")),
        }
    }
    if canonical(engine) != before {
        bad.push("recovered database differs from the pre-crash state".to_string());
    }
    bad
}

/// `spec` cut to the prefix the isolation check replays.
pub fn isolation_prefix(mut spec: Spec) -> Spec {
    spec.txns = spec.txns.min(ISOLATION_PREFIX);
    spec
}

/// What the recorded pass over the workload's first transactions found.
pub struct IsolationCheck {
    pub violations: Vec<String>,
    /// Driving the prefix with the recorder on (on the nominal host, like
    /// every time the benchmark reports).
    pub recorded_ms: f64,
    /// `is_entangled_isolated` on the recorded schedule.
    pub check_ms: f64,
    /// Operations in the recorded schedule.
    pub ops: usize,
    pub txns: usize,
}

/// Isolation: replay the first [`ISOLATION_PREFIX`] transactions on a
/// fresh engine with `record_history` on, and check the schedule the
/// engine recorded against Definition C.5.
pub fn verify_isolation(spec: Spec, scale: Scale, seed: u64, connections: usize) -> IsolationCheck {
    let spec = isolation_prefix(spec);
    let inputs = generate(spec, scale, seed);
    let (engine, rep) = untraced(spec, &inputs, connections, true);
    let schedule = engine.recorder.schedule();
    let t0 = Instant::now();
    let isolated = is_entangled_isolated(&schedule);
    let check_ms = t0.elapsed().as_secs_f64() * 1e3 * rep.speed.to_nominal();
    let mut violations = verify_outputs(spec, &inputs, &engine, &rep);
    if !isolated {
        violations.push("recorded schedule is not entangled-isolated".to_string());
    }
    IsolationCheck {
        violations,
        recorded_ms: rep.nominal_busy_ms(),
        check_ms,
        ops: schedule.ops.len(),
        txns: rep.submitted,
    }
}
