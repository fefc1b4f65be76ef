//! The lock manager: blocking acquisition, Strict 2PL release, waits-for
//! deadlock detection, timeouts and victim cancellation.
//!
//! The paper's prototype "uses Strict 2PL to prevent all other isolation
//! anomalies … implemented using the lock manager of the DBMS" (§5.1). This
//! is that lock manager. Grounding reads take shared locks that are held to
//! commit, which is exactly what rules out the Figure 3(b) unrepeatable
//! quasi-read; relaxed isolation levels release read locks early via
//! [`LockManager::release`].

use crate::event::{LockEvent, LockEventSink, SinkSlot};
use crate::mode::LockMode;
use crate::resource::{Resource, TxId};
use parking_lot::{Condvar, Mutex};
use std::collections::{HashMap, HashSet, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Why a lock request failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LockError {
    /// Granting would close a waits-for cycle; the requester is the victim.
    Deadlock,
    /// The request did not succeed within its timeout.
    Timeout,
    /// The transaction was cancelled (aborted externally) while waiting.
    Canceled,
}

impl fmt::Display for LockError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LockError::Deadlock => write!(f, "deadlock detected; requester chosen as victim"),
            LockError::Timeout => write!(f, "lock wait timed out"),
            LockError::Canceled => write!(f, "transaction cancelled while waiting for lock"),
        }
    }
}

impl std::error::Error for LockError {}

/// Why a transaction's pending and future lock requests are refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CancelKind {
    /// Externally aborted (engine-initiated): waits fail with
    /// [`LockError::Canceled`].
    External,
    /// Convicted by the global deadlock detector: waits fail with
    /// [`LockError::Deadlock`] and count as a broken cycle.
    Victim,
}

/// Probe schedule + callback for [`LockManager::lock_probed`]: `run` is
/// fired on the waiting thread with the shard's state mutex released,
/// first after `grace` of blocking, then every `period` until the wait
/// resolves. The sharded facade points it at the global detector.
pub(crate) struct ProbeHook<'a> {
    pub grace: Duration,
    pub period: Duration,
    pub run: &'a dyn Fn(),
}

#[derive(Debug, Clone)]
struct Request {
    tx: TxId,
    mode: LockMode,
}

#[derive(Debug, Default)]
struct Queue {
    granted: Vec<Request>,
    waiting: VecDeque<Request>,
}

impl Queue {
    fn granted_mode(&self, tx: TxId) -> Option<LockMode> {
        self.granted.iter().find(|r| r.tx == tx).map(|r| r.mode)
    }

    /// Can `tx` be granted `mode` given current grants (ignoring waiters)?
    fn compatible_with_granted(&self, tx: TxId, mode: LockMode) -> bool {
        self.granted
            .iter()
            .filter(|r| r.tx != tx)
            .all(|r| r.mode.compatible(mode))
    }
}

#[derive(Default)]
pub(crate) struct State {
    queues: HashMap<Resource, Queue>,
    /// Resources each transaction holds (for O(held) release).
    held: HashMap<TxId, HashSet<Resource>>,
    canceled: HashMap<TxId, CancelKind>,
    /// Completed blocked-wait durations in microseconds, in completion
    /// order — grants, timeouts, and cancellations alike (requests
    /// served without blocking record nothing).
    wait_micros: Vec<u64>,
}

impl State {
    /// Promote waiters on `res` in FIFO order; upgrades are considered
    /// first. Returns true if anything was granted.
    fn promote(&mut self, res: &Resource) -> bool {
        let State {
            queues,
            held,
            canceled,
            ..
        } = self;
        let Some(q) = queues.get_mut(res) else {
            return false;
        };
        // Canceled waiters never receive a grant, and must not block the
        // FIFO head either: drop their queue entries here. The waiting
        // thread learns its fate from the cancellation map, not from
        // queue membership.
        q.waiting.retain(|r| !canceled.contains_key(&r.tx));
        let mut granted_any = false;
        loop {
            // Upgrade waiters (already in granted with a lesser mode) may
            // jump the queue: find the first waiting upgrade that fits.
            let mut advanced = false;
            for i in 0..q.waiting.len() {
                let w = q.waiting[i].clone();
                let already = q.granted_mode(w.tx);
                let target = match already {
                    Some(m) => m.combine(w.mode),
                    None => w.mode,
                };
                let fits = q.compatible_with_granted(w.tx, target);
                let is_upgrade = already.is_some();
                // FIFO for fresh requests: only the head may be granted;
                // upgrades may be granted from any position.
                if fits && (is_upgrade || i == 0) {
                    q.waiting.remove(i);
                    match q.granted.iter_mut().find(|r| r.tx == w.tx) {
                        Some(r) => r.mode = target,
                        None => q.granted.push(Request {
                            tx: w.tx,
                            mode: target,
                        }),
                    }
                    held.entry(w.tx).or_default().insert(res.clone());
                    granted_any = true;
                    advanced = true;
                    break;
                }
            }
            if !advanced {
                break;
            }
        }
        if q.granted.is_empty() && q.waiting.is_empty() {
            queues.remove(res);
        }
        granted_any
    }

    /// Build the waits-for edge set: waiter → (incompatible holders and
    /// incompatible earlier waiters) per resource. Canceled transactions
    /// contribute no edges in either direction among waiters: they are
    /// leaving the queue, so neither their own wait nor their place ahead
    /// of others constrains anyone — a convicted victim's cycle is broken
    /// in this view the instant it is marked.
    pub(crate) fn waits_for(&self) -> HashMap<TxId, HashSet<TxId>> {
        let mut edges: HashMap<TxId, HashSet<TxId>> = HashMap::new();
        for q in self.queues.values() {
            for (i, w) in q.waiting.iter().enumerate() {
                if self.canceled.contains_key(&w.tx) {
                    continue;
                }
                let target = match q.granted_mode(w.tx) {
                    Some(m) => m.combine(w.mode),
                    None => w.mode,
                };
                let e = edges.entry(w.tx).or_default();
                for g in &q.granted {
                    if g.tx != w.tx && !g.mode.compatible(target) {
                        e.insert(g.tx);
                    }
                }
                for earlier in q.waiting.iter().take(i) {
                    if earlier.tx != w.tx
                        && !self.canceled.contains_key(&earlier.tx)
                        && !earlier.mode.compatible(target)
                    {
                        e.insert(earlier.tx);
                    }
                }
            }
        }
        edges
    }

    /// Transactions currently marked canceled on this shard (any kind).
    pub(crate) fn canceled_txs(&self) -> impl Iterator<Item = TxId> + '_ {
        self.canceled.keys().copied()
    }

    /// Mark `tx` a deadlock victim (an existing external cancellation
    /// wins — the transaction is dying either way and `Canceled` is the
    /// stronger verdict for the caller that asked for it).
    pub(crate) fn mark_victim(&mut self, tx: TxId) {
        self.canceled.entry(tx).or_insert(CancelKind::Victim);
    }

    /// Undo a grant `promote` may have handed `tx` on `res` after it was
    /// marked canceled (the mark-vs-promote race): restore the mode held
    /// at enqueue time, or remove the grant entirely for a fresh request,
    /// so a canceled waiter never carries a granted mode out of the
    /// manager.
    fn revert_grant(&mut self, tx: TxId, res: &Resource, already: Option<LockMode>) {
        let Some(q) = self.queues.get_mut(res) else {
            return;
        };
        match already {
            Some(m) => {
                if let Some(r) = q.granted.iter_mut().find(|r| r.tx == tx) {
                    r.mode = m;
                }
            }
            None => {
                q.granted.retain(|r| r.tx != tx);
                if let Some(h) = self.held.get_mut(&tx) {
                    h.remove(res);
                }
            }
        }
    }

    /// Does the waits-for graph contain a cycle through `start`?
    fn in_cycle(&self, start: TxId) -> bool {
        let edges = self.waits_for();
        // DFS from start looking for a path back to start.
        let mut stack: Vec<TxId> = edges.get(&start).into_iter().flatten().copied().collect();
        let mut seen = HashSet::new();
        while let Some(n) = stack.pop() {
            if n == start {
                return true;
            }
            if seen.insert(n) {
                if let Some(next) = edges.get(&n) {
                    stack.extend(next.iter().copied());
                }
            }
        }
        false
    }

    fn remove_waiter(&mut self, tx: TxId, res: &Resource) {
        if let Some(q) = self.queues.get_mut(res) {
            q.waiting.retain(|r| r.tx != tx);
            if q.granted.is_empty() && q.waiting.is_empty() {
                self.queues.remove(res);
            }
        }
    }
}

/// Counters exposed for benchmarks and tests.
#[derive(Debug, Default)]
pub struct LockStats {
    pub grants: AtomicU64,
    pub waits: AtomicU64,
    pub deadlocks: AtomicU64,
    pub timeouts: AtomicU64,
}

/// A blocking, deadlock-detecting Strict 2PL lock manager.
pub struct LockManager {
    state: Mutex<State>,
    cv: Condvar,
    stats: LockStats,
    sink: Option<SinkSlot>,
}

impl Default for LockManager {
    fn default() -> Self {
        Self::new()
    }
}

impl LockManager {
    pub fn new() -> LockManager {
        LockManager {
            state: Mutex::new(State::default()),
            cv: Condvar::new(),
            stats: LockStats::default(),
            sink: None,
        }
    }

    pub fn stats(&self) -> &LockStats {
        &self.stats
    }

    /// Install an audit sink that observes every lock event this manager
    /// emits, stamped with `shard`. Must be called before the manager is
    /// shared across threads (hence `&mut self` — no runtime cost when no
    /// sink is installed).
    pub fn set_sink(&mut self, shard: usize, sink: Arc<dyn LockEventSink>) {
        self.sink = Some(SinkSlot { shard, sink });
    }

    #[inline]
    fn emit(&self, mk: impl FnOnce(usize) -> LockEvent) {
        if let Some(slot) = &self.sink {
            slot.sink.on_event(&mk(slot.shard));
        }
    }

    /// Acquire `mode` on `res` for `tx`, blocking up to `timeout`
    /// (`None` = wait forever). Re-acquiring a covered mode is a no-op;
    /// acquiring a stronger mode performs an upgrade.
    pub fn lock(
        &self,
        tx: TxId,
        res: Resource,
        mode: LockMode,
        timeout: Option<Duration>,
    ) -> Result<(), LockError> {
        self.lock_probed(tx, res, mode, timeout, None)
    }

    /// [`Self::lock`] plus an optional probe hook: while blocked, the
    /// waiter periodically fires `probe.run` with this shard's state
    /// mutex **released** (the hook takes every shard's mutex to build a
    /// consistent cross-shard cut — see [`crate::detect`]). The first
    /// probe fires after `probe.grace`, then every `probe.period`.
    pub(crate) fn lock_probed(
        &self,
        tx: TxId,
        res: Resource,
        mode: LockMode,
        timeout: Option<Duration>,
        probe: Option<ProbeHook<'_>>,
    ) -> Result<(), LockError> {
        let deadline = timeout.map(|t| Instant::now() + t);
        let mut st = self.state.lock();
        match st.canceled.get(&tx) {
            Some(CancelKind::External) => return Err(LockError::Canceled),
            Some(CancelKind::Victim) => return Err(LockError::Deadlock),
            None => {}
        }
        let q = st.queues.entry(res.clone()).or_default();
        let already = q.granted_mode(tx);
        let target = match already {
            Some(m) if m.covers(mode) => {
                self.stats.grants.fetch_add(1, Ordering::Relaxed);
                self.emit(|shard| LockEvent::Granted {
                    tx,
                    res,
                    mode: m,
                    shard,
                });
                return Ok(());
            }
            Some(m) => m.combine(mode),
            None => mode,
        };

        // Immediate grant: compatible with grants, and — for fresh requests
        // — nobody already waiting (FIFO fairness). Upgrades may overtake.
        let can_grant =
            q.compatible_with_granted(tx, target) && (already.is_some() || q.waiting.is_empty());
        if can_grant {
            match q.granted.iter_mut().find(|r| r.tx == tx) {
                Some(r) => r.mode = target,
                None => q.granted.push(Request { tx, mode: target }),
            }
            st.held.entry(tx).or_default().insert(res.clone());
            self.stats.grants.fetch_add(1, Ordering::Relaxed);
            self.emit(|shard| LockEvent::Granted {
                tx,
                res,
                mode: target,
                shard,
            });
            return Ok(());
        }

        // Must wait. Upgrades go to the front so they cannot starve behind
        // fresh requests they are incompatible with.
        let req = Request { tx, mode };
        if already.is_some() {
            q.waiting.push_front(req);
        } else {
            q.waiting.push_back(req);
        }
        self.stats.waits.fetch_add(1, Ordering::Relaxed);
        self.emit(|shard| LockEvent::Wait {
            tx,
            res: res.clone(),
            mode,
            shard,
        });

        // Deadlock check with the new edge in place: requester is victim.
        if st.in_cycle(tx) {
            st.remove_waiter(tx, &res);
            self.stats.deadlocks.fetch_add(1, Ordering::Relaxed);
            // Our departure may unblock others.
            st.promote(&res);
            self.cv.notify_all();
            self.emit(|shard| LockEvent::Deadlock {
                tx,
                res: res.clone(),
                mode,
                shard,
            });
            return Err(LockError::Deadlock);
        }

        let wait_start = Instant::now();
        let mut next_probe = probe.as_ref().map(|p| Instant::now() + p.grace);
        loop {
            // 1. Cancellation wins over a racing grant: revert anything
            //    promote handed us after the mark, leave the queue, and
            //    fail with the kind's error — a victim must never carry a
            //    grant out of the cycle the detector is dismantling.
            if let Some(kind) = st.canceled.get(&tx).copied() {
                st.revert_grant(tx, &res, already);
                st.remove_waiter(tx, &res);
                st.promote(&res);
                st.wait_micros.push(wait_start.elapsed().as_micros() as u64);
                self.cv.notify_all();
                return match kind {
                    CancelKind::External => Err(LockError::Canceled),
                    CancelKind::Victim => {
                        self.stats.deadlocks.fetch_add(1, Ordering::Relaxed);
                        self.emit(|shard| LockEvent::Deadlock {
                            tx,
                            res: res.clone(),
                            mode,
                            shard,
                        });
                        Err(LockError::Deadlock)
                    }
                };
            }
            // 2. Granted?
            let won = st
                .queues
                .get(&res)
                .and_then(|q| q.granted_mode(tx).filter(|m| m.covers(mode)));
            if let Some(m) = won {
                st.wait_micros.push(wait_start.elapsed().as_micros() as u64);
                self.stats.grants.fetch_add(1, Ordering::Relaxed);
                self.emit(|shard| LockEvent::Granted {
                    tx,
                    res,
                    mode: m,
                    shard,
                });
                return Ok(());
            }
            // 3. Deadline passed? The grant check above ran under this
            //    same mutex hold, so a requester that actually won the
            //    grant can never reach this branch — the timeout cannot
            //    double-count against a successful acquisition, and no
            //    granted mode is left behind by the departure.
            if let Some(d) = deadline {
                if Instant::now() >= d {
                    st.remove_waiter(tx, &res);
                    st.promote(&res);
                    st.wait_micros.push(wait_start.elapsed().as_micros() as u64);
                    self.cv.notify_all();
                    self.stats.timeouts.fetch_add(1, Ordering::Relaxed);
                    self.emit(|shard| LockEvent::Timeout {
                        tx,
                        res: res.clone(),
                        mode,
                        shard,
                    });
                    return Err(LockError::Timeout);
                }
            }
            // 4. Probe due? Run it with the state mutex released, then
            //    re-evaluate from the top (the probe may have marked us).
            if let Some(p) = probe.as_ref() {
                let due = next_probe.expect("next_probe set when probing");
                if Instant::now() >= due {
                    drop(st);
                    (p.run)();
                    next_probe = Some(Instant::now() + p.period);
                    st = self.state.lock();
                    continue;
                }
            }
            // 5. Sleep until the earliest of deadline and next probe.
            let wake = match (deadline, next_probe) {
                (Some(d), Some(p)) => Some(d.min(p)),
                (Some(d), None) => Some(d),
                (None, p) => p,
            };
            match wake {
                Some(w) => {
                    let _ = self.cv.wait_until(&mut st, w);
                }
                None => self.cv.wait(&mut st),
            }
        }
    }

    /// Non-blocking acquire.
    pub fn try_lock(&self, tx: TxId, res: Resource, mode: LockMode) -> bool {
        let mut st = self.state.lock();
        if st.canceled.contains_key(&tx) {
            return false;
        }
        let q = st.queues.entry(res.clone()).or_default();
        let target = match q.granted_mode(tx) {
            Some(m) if m.covers(mode) => {
                self.emit(|shard| LockEvent::Granted {
                    tx,
                    res,
                    mode: m,
                    shard,
                });
                return true;
            }
            Some(m) => m.combine(mode),
            None => mode,
        };
        let fresh = q.granted_mode(tx).is_none();
        if q.compatible_with_granted(tx, target) && (!fresh || q.waiting.is_empty()) {
            match q.granted.iter_mut().find(|r| r.tx == tx) {
                Some(r) => r.mode = target,
                None => q.granted.push(Request { tx, mode: target }),
            }
            st.held.entry(tx).or_default().insert(res.clone());
            self.stats.grants.fetch_add(1, Ordering::Relaxed);
            self.emit(|shard| LockEvent::Granted {
                tx,
                res,
                mode: target,
                shard,
            });
            true
        } else {
            false
        }
    }

    /// Release one resource early (used by relaxed isolation levels — this
    /// is exactly the "altering the length of time locks are held" knob §4
    /// mentions). Under full entangled isolation this is never called;
    /// everything is released at commit/abort by [`Self::unlock_all`].
    pub fn release(&self, tx: TxId, res: &Resource) {
        let mut st = self.state.lock();
        if let Some(q) = st.queues.get_mut(res) {
            q.granted.retain(|r| r.tx != tx);
        }
        if let Some(h) = st.held.get_mut(&tx) {
            h.remove(res);
        }
        st.promote(res);
        self.cv.notify_all();
        self.emit(|shard| LockEvent::Released {
            tx,
            res: res.clone(),
            shard,
        });
    }

    /// Strict 2PL release: drop every lock `tx` holds (call at
    /// commit/abort).
    pub fn unlock_all(&self, tx: TxId) {
        let mut st = self.state.lock();
        let held: Vec<Resource> = st.held.remove(&tx).into_iter().flatten().collect();
        for res in &held {
            if let Some(q) = st.queues.get_mut(res) {
                q.granted.retain(|r| r.tx != tx);
                q.waiting.retain(|r| r.tx != tx);
            }
        }
        for res in &held {
            st.promote(res);
        }
        st.canceled.remove(&tx);
        self.cv.notify_all();
        self.emit(|shard| LockEvent::ReleasedAll { tx, shard });
    }

    /// Forget every lock, waiter, and cancellation — the crash-recovery
    /// reset. A restarted engine has no lock table; leaving pre-crash
    /// grants behind would block post-recovery transactions on owners
    /// that no longer exist. Callers must guarantee no thread is waiting
    /// inside [`Self::lock`] (recovery quiesce).
    pub fn reset(&self) {
        let mut st = self.state.lock();
        st.queues.clear();
        st.held.clear();
        st.canceled.clear();
        st.wait_micros.clear();
        self.cv.notify_all();
        self.emit(|shard| LockEvent::Reset { shard });
    }

    /// Completed blocked-wait durations (µs) since creation or the last
    /// [`Self::reset`]: one sample per request that actually slept,
    /// whether it ended in a grant, a timeout, or a cancellation.
    pub fn wait_micros(&self) -> Vec<u64> {
        self.state.lock().wait_micros.clone()
    }

    /// True when no transaction holds or awaits any lock — the quiesce
    /// precondition for a transactionally-consistent checkpoint image.
    pub fn quiescent(&self) -> bool {
        let st = self.state.lock();
        st.queues
            .values()
            .all(|q| q.granted.is_empty() && q.waiting.is_empty())
    }

    /// Cancel a transaction: any in-flight or future waits fail with
    /// [`LockError::Canceled`]. Held locks stay until `unlock_all`.
    pub fn cancel(&self, tx: TxId) {
        let mut st = self.state.lock();
        st.canceled.entry(tx).or_insert(CancelKind::External);
        self.cv.notify_all();
    }

    /// Convict a transaction as a deadlock victim: its in-flight wait
    /// wakes with [`LockError::Deadlock`] (counted in
    /// [`LockStats::deadlocks`] and emitted as [`LockEvent::Deadlock`] by
    /// the waiting thread), and further requests fail the same way until
    /// `unlock_all` clears the mark. The global detector's cancellation
    /// path; an already-external cancellation keeps its `Canceled`
    /// verdict.
    pub fn cancel_victim(&self, tx: TxId) {
        let mut st = self.state.lock();
        st.mark_victim(tx);
        self.cv.notify_all();
    }

    /// Lock this shard's state for a multi-shard consistent cut (the
    /// global detector holds every shard's guard at once; ordinary lock
    /// traffic only ever holds one).
    pub(crate) fn state_guard(&self) -> parking_lot::MutexGuard<'_, State> {
        self.state.lock()
    }

    /// Wake every waiter on this shard (used after victim marking under
    /// [`Self::state_guard`], once the guards are dropped).
    pub(crate) fn notify_waiters(&self) {
        self.cv.notify_all();
    }

    /// Locks currently held by `tx`.
    pub fn held(&self, tx: TxId) -> Vec<(Resource, LockMode)> {
        let st = self.state.lock();
        let mut out: Vec<(Resource, LockMode)> = st
            .held
            .get(&tx)
            .into_iter()
            .flatten()
            .filter_map(|res| {
                st.queues
                    .get(res)
                    .and_then(|q| q.granted_mode(tx))
                    .map(|m| (res.clone(), m))
            })
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Total number of resources with at least one granted or waiting
    /// request (diagnostics).
    pub fn active_resources(&self) -> usize {
        self.state.lock().queues.len()
    }

    /// Snapshot of the waits-for edges (diagnostics/tests).
    pub fn waits_for_edges(&self) -> Vec<(TxId, TxId)> {
        let st = self.state.lock();
        let mut out: Vec<(TxId, TxId)> = st
            .waits_for()
            .into_iter()
            .flat_map(|(w, hs)| hs.into_iter().map(move |h| (w, h)))
            .collect();
        out.sort();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mode::LockMode::*;
    use std::sync::Arc;

    fn t(n: u64) -> TxId {
        TxId(n)
    }

    #[test]
    fn reset_clears_grants_and_quiescence_tracks_them() {
        let lm = LockManager::new();
        assert!(lm.quiescent());
        lm.lock(t(1), Resource::table("a"), X, None).unwrap();
        lm.cancel(t(2));
        assert!(!lm.quiescent());
        lm.reset();
        assert!(lm.quiescent());
        assert!(lm.held(t(1)).is_empty());
        // A new owner can take the lock immediately, and the stale
        // cancellation is gone.
        lm.lock(t(3), Resource::table("a"), X, None).unwrap();
        lm.lock(t(2), Resource::table("b"), S, None).unwrap();
        lm.unlock_all(t(3));
        lm.unlock_all(t(2));
        assert!(lm.quiescent());
    }

    #[test]
    fn shared_locks_coexist() {
        let lm = LockManager::new();
        let r = Resource::table("flights");
        lm.lock(t(1), r.clone(), S, None).unwrap();
        lm.lock(t(2), r.clone(), S, None).unwrap();
        assert_eq!(lm.held(t(1)), vec![(r.clone(), S)]);
        assert_eq!(lm.held(t(2)), vec![(r, S)]);
    }

    #[test]
    fn reacquire_is_noop_and_upgrade_works() {
        let lm = LockManager::new();
        let r = Resource::table("flights");
        lm.lock(t(1), r.clone(), S, None).unwrap();
        lm.lock(t(1), r.clone(), S, None).unwrap();
        lm.lock(t(1), r.clone(), X, None).unwrap();
        assert_eq!(lm.held(t(1)), vec![(r.clone(), X)]);
        // X covers S: re-requesting S is a no-op.
        lm.lock(t(1), r.clone(), S, None).unwrap();
        assert_eq!(lm.held(t(1)), vec![(r, X)]);
    }

    #[test]
    fn exclusive_blocks_and_try_lock_fails() {
        let lm = LockManager::new();
        let r = Resource::table("flights");
        lm.lock(t(1), r.clone(), X, None).unwrap();
        assert!(!lm.try_lock(t(2), r.clone(), S));
        assert_eq!(
            lm.lock(t(2), r.clone(), S, Some(Duration::from_millis(20))),
            Err(LockError::Timeout)
        );
        lm.unlock_all(t(1));
        assert!(lm.try_lock(t(2), r, S));
    }

    #[test]
    fn unlock_all_wakes_waiter() {
        let lm = Arc::new(LockManager::new());
        let r = Resource::table("flights");
        lm.lock(t(1), r.clone(), X, None).unwrap();
        let lm2 = lm.clone();
        let r2 = r.clone();
        let h = std::thread::spawn(move || lm2.lock(t(2), r2, S, Some(Duration::from_secs(5))));
        std::thread::sleep(Duration::from_millis(30));
        lm.unlock_all(t(1));
        assert_eq!(h.join().unwrap(), Ok(()));
        assert_eq!(lm.held(t(2)), vec![(r, S)]);
    }

    #[test]
    fn deadlock_detected_requester_victim() {
        let lm = Arc::new(LockManager::new());
        let a = Resource::table("a");
        let b = Resource::table("b");
        lm.lock(t(1), a.clone(), X, None).unwrap();
        lm.lock(t(2), b.clone(), X, None).unwrap();
        let lm2 = lm.clone();
        let (a2, b2) = (a.clone(), b.clone());
        // t1 waits for b (held by t2).
        let h = std::thread::spawn(move || lm2.lock(t(1), b2, X, Some(Duration::from_secs(5))));
        std::thread::sleep(Duration::from_millis(30));
        // t2 requesting a closes the cycle: t2 is the victim.
        let err = lm
            .lock(t(2), a.clone(), X, Some(Duration::from_secs(5)))
            .unwrap_err();
        assert_eq!(err, LockError::Deadlock);
        assert_eq!(lm.stats().deadlocks.load(Ordering::Relaxed), 1);
        // Victim aborts, releasing b; t1 proceeds.
        lm.unlock_all(t(2));
        assert_eq!(h.join().unwrap(), Ok(()));
        let _ = a2;
    }

    #[test]
    fn upgrade_deadlock_detected() {
        // Two transactions holding S both requesting X: classic upgrade
        // deadlock; the second requester must be told.
        let lm = Arc::new(LockManager::new());
        let r = Resource::table("t");
        lm.lock(t(1), r.clone(), S, None).unwrap();
        lm.lock(t(2), r.clone(), S, None).unwrap();
        let lm2 = lm.clone();
        let rr = r.clone();
        let h = std::thread::spawn(move || lm2.lock(t(1), rr, X, Some(Duration::from_secs(5))));
        std::thread::sleep(Duration::from_millis(30));
        let err = lm
            .lock(t(2), r.clone(), X, Some(Duration::from_secs(5)))
            .unwrap_err();
        assert_eq!(err, LockError::Deadlock);
        lm.unlock_all(t(2));
        assert_eq!(h.join().unwrap(), Ok(()));
    }

    #[test]
    fn cancel_aborts_waiter() {
        let lm = Arc::new(LockManager::new());
        let r = Resource::table("flights");
        lm.lock(t(1), r.clone(), X, None).unwrap();
        let lm2 = lm.clone();
        let r2 = r.clone();
        let h = std::thread::spawn(move || lm2.lock(t(2), r2, S, None));
        std::thread::sleep(Duration::from_millis(30));
        lm.cancel(t(2));
        assert_eq!(h.join().unwrap(), Err(LockError::Canceled));
        // A cancelled tx cannot take new locks until unlock_all clears it.
        assert!(!lm.try_lock(t(2), Resource::table("other"), S));
        lm.unlock_all(t(2));
        assert!(lm.try_lock(t(2), Resource::table("other"), S));
    }

    #[test]
    fn fifo_fairness_blocks_overtaking_reader() {
        // t1 holds X; t2 waits for S; t3 requests S. Under FIFO, t3 must
        // not be granted before t2 (it queues), even though S||S.
        let lm = Arc::new(LockManager::new());
        let r = Resource::table("flights");
        lm.lock(t(1), r.clone(), X, None).unwrap();
        let lm2 = lm.clone();
        let r2 = r.clone();
        let w2 = std::thread::spawn(move || lm2.lock(t(2), r2, S, Some(Duration::from_secs(5))));
        std::thread::sleep(Duration::from_millis(30));
        assert!(
            !lm.try_lock(t(3), r.clone(), S),
            "fresh request must queue behind waiter"
        );
        lm.unlock_all(t(1));
        assert_eq!(w2.join().unwrap(), Ok(()));
        // Now t2 holds S, and t3 can join it.
        assert!(lm.try_lock(t(3), r, S));
    }

    #[test]
    fn intention_locks() {
        let lm = LockManager::new();
        let table = Resource::table("flights");
        let row = Resource::row("flights", 0);
        lm.lock(t(1), table.clone(), IX, None).unwrap();
        lm.lock(t(1), row.clone(), X, None).unwrap();
        // IS is compatible with IX at table level.
        lm.lock(t(2), table.clone(), IS, None).unwrap();
        // But the row itself is blocked.
        assert!(!lm.try_lock(t(2), row.clone(), S));
        // And a full-table S is blocked by the IX.
        assert_eq!(
            lm.lock(t(3), table.clone(), S, Some(Duration::from_millis(20))),
            Err(LockError::Timeout)
        );
        lm.unlock_all(t(1));
        assert!(lm.try_lock(t(2), row, S));
    }

    #[test]
    fn early_release_unblocks() {
        let lm = Arc::new(LockManager::new());
        let r = Resource::table("flights");
        lm.lock(t(1), r.clone(), S, None).unwrap();
        let lm2 = lm.clone();
        let r2 = r.clone();
        let h = std::thread::spawn(move || lm2.lock(t(2), r2, X, Some(Duration::from_secs(5))));
        std::thread::sleep(Duration::from_millis(30));
        lm.release(t(1), &r);
        assert_eq!(h.join().unwrap(), Ok(()));
    }

    #[test]
    fn held_and_resource_accounting() {
        let lm = LockManager::new();
        lm.lock(t(1), Resource::table("a"), S, None).unwrap();
        lm.lock(t(1), Resource::table("b"), X, None).unwrap();
        assert_eq!(lm.held(t(1)).len(), 2);
        assert_eq!(lm.active_resources(), 2);
        lm.unlock_all(t(1));
        assert_eq!(lm.held(t(1)).len(), 0);
        assert_eq!(lm.active_resources(), 0);
    }

    #[test]
    fn waits_for_edges_snapshot() {
        let lm = Arc::new(LockManager::new());
        let r = Resource::table("flights");
        lm.lock(t(1), r.clone(), X, None).unwrap();
        let lm2 = lm.clone();
        let r2 = r.clone();
        let h = std::thread::spawn(move || lm2.lock(t(2), r2, S, Some(Duration::from_secs(2))));
        std::thread::sleep(Duration::from_millis(30));
        assert_eq!(lm.waits_for_edges(), vec![(t(2), t(1))]);
        lm.unlock_all(t(1));
        h.join().unwrap().unwrap();
    }

    #[test]
    fn concurrent_stress_no_lost_grants() {
        // 8 threads × 50 increments under an X table lock must serialize.
        let lm = Arc::new(LockManager::new());
        let counter = Arc::new(Mutex::new(0u64));
        let mut handles = Vec::new();
        for i in 0..8u64 {
            let lm = lm.clone();
            let counter = counter.clone();
            handles.push(std::thread::spawn(move || {
                for j in 0..50u64 {
                    let tx = TxId(1 + i * 1000 + j);
                    lm.lock(tx, Resource::table("c"), X, None).unwrap();
                    {
                        let mut c = counter.lock();
                        let v = *c;
                        std::hint::black_box(&v);
                        *c = v + 1;
                    }
                    lm.unlock_all(tx);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*counter.lock(), 400);
    }

    #[test]
    fn timeout_promotion_race_no_double_count_or_leak() {
        // Hammer the window where a waiter's deadline expires at the same
        // instant the holder releases. Whichever way each round lands,
        // the outcome must be atomic: a won grant is really held (and not
        // also counted as a timeout), a timeout leaves no granted mode
        // behind, and the timeouts counter equals the number of
        // Err(Timeout) returns exactly.
        let lm = Arc::new(LockManager::new());
        let r = Resource::table("hot");
        let mut timeouts_returned = 0u64;
        for round in 0..40u64 {
            let holder = TxId(10_000 + round);
            let waiter = TxId(20_000 + round);
            lm.lock(holder, r.clone(), X, None).unwrap();
            let lm2 = lm.clone();
            let r2 = r.clone();
            let h =
                std::thread::spawn(move || lm2.lock(waiter, r2, X, Some(Duration::from_millis(2))));
            // Release right around the waiter's deadline.
            std::thread::sleep(Duration::from_millis(2));
            lm.unlock_all(holder);
            match h.join().unwrap() {
                Ok(()) => {
                    assert_eq!(
                        lm.held(waiter),
                        vec![(r.clone(), X)],
                        "round {round}: a won grant must be held"
                    );
                }
                Err(LockError::Timeout) => {
                    timeouts_returned += 1;
                    assert!(
                        lm.held(waiter).is_empty(),
                        "round {round}: a timed-out waiter must not leak a grant"
                    );
                }
                Err(e) => panic!("round {round}: unexpected {e:?}"),
            }
            lm.unlock_all(waiter);
            assert!(lm.quiescent(), "round {round} left lock state behind");
        }
        assert_eq!(
            lm.stats().timeouts.load(Ordering::Relaxed),
            timeouts_returned,
            "timeouts counter must match Err(Timeout) returns exactly"
        );
        assert_eq!(lm.stats().deadlocks.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn canceled_waiter_never_receives_promotion_grant() {
        // t1 holds X; t2 waits for X; t3 queues behind t2 for S. Cancel
        // t2, then release t1: promotion must skip the canceled waiter
        // (no leaked grant) and hand the lock to t3 even though the
        // canceled t2 sat ahead of it in FIFO order.
        let lm = Arc::new(LockManager::new());
        let r = Resource::table("hot");
        lm.lock(t(1), r.clone(), X, None).unwrap();
        let (lm2, r2) = (lm.clone(), r.clone());
        let w2 = std::thread::spawn(move || lm2.lock(t(2), r2, X, None));
        std::thread::sleep(Duration::from_millis(30));
        let (lm3, r3) = (lm.clone(), r.clone());
        let w3 = std::thread::spawn(move || lm3.lock(t(3), r3, S, Some(Duration::from_secs(5))));
        std::thread::sleep(Duration::from_millis(30));
        lm.cancel(t(2));
        assert_eq!(w2.join().unwrap(), Err(LockError::Canceled));
        assert!(lm.held(t(2)).is_empty(), "canceled waiter holds nothing");
        lm.unlock_all(t(1));
        assert_eq!(w3.join().unwrap(), Ok(()));
        assert_eq!(lm.held(t(3)), vec![(r, S)]);
        lm.unlock_all(t(2));
        lm.unlock_all(t(3));
        assert!(lm.quiescent());
    }

    #[test]
    fn victim_cancellation_surfaces_deadlock_not_timeout() {
        // A waiter convicted by the (external) victim path wakes with
        // Deadlock, counts one broken cycle, and stays convicted until
        // unlock_all clears the mark.
        let lm = Arc::new(LockManager::new());
        let r = Resource::table("hot");
        lm.lock(t(1), r.clone(), X, None).unwrap();
        let (lm2, r2) = (lm.clone(), r.clone());
        let w2 = std::thread::spawn(move || lm2.lock(t(2), r2, S, Some(Duration::from_secs(5))));
        std::thread::sleep(Duration::from_millis(30));
        lm.cancel_victim(t(2));
        assert_eq!(w2.join().unwrap(), Err(LockError::Deadlock));
        assert_eq!(lm.stats().deadlocks.load(Ordering::Relaxed), 1);
        assert_eq!(lm.stats().timeouts.load(Ordering::Relaxed), 0);
        // Still convicted: further requests fail fast with Deadlock.
        assert_eq!(
            lm.lock(t(2), Resource::table("other"), S, None),
            Err(LockError::Deadlock)
        );
        lm.unlock_all(t(2));
        lm.unlock_all(t(1));
        assert!(lm.try_lock(t(2), Resource::table("other"), S));
        lm.unlock_all(t(2));
        assert!(lm.quiescent());
    }

    #[test]
    fn upgrade_waiter_canceled_keeps_prior_mode_only() {
        // t1 and t2 hold S; t2 waits to upgrade to X; cancel t2. Its S
        // must survive (held locks stay until unlock_all) but the X must
        // never materialize — and t1's own upgrade can then proceed.
        let lm = Arc::new(LockManager::new());
        let r = Resource::table("hot");
        lm.lock(t(1), r.clone(), S, None).unwrap();
        lm.lock(t(2), r.clone(), S, None).unwrap();
        let (lm2, r2) = (lm.clone(), r.clone());
        let w2 = std::thread::spawn(move || lm2.lock(t(2), r2, X, None));
        std::thread::sleep(Duration::from_millis(30));
        lm.cancel(t(2));
        assert_eq!(w2.join().unwrap(), Err(LockError::Canceled));
        assert_eq!(lm.held(t(2)), vec![(r.clone(), S)]);
        // t2's abandoned upgrade no longer blocks t1's.
        lm.unlock_all(t(2));
        lm.lock(t(1), r.clone(), X, Some(Duration::from_secs(5)))
            .unwrap();
        assert_eq!(lm.held(t(1)), vec![(r, X)]);
        lm.unlock_all(t(1));
        assert!(lm.quiescent());
    }
}
