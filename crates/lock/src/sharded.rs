//! Per-shard lock managers behind one routing facade.
//!
//! [`ShardedLocks`] owns N independent [`LockManager`]s and routes every
//! resource to one of them through a caller-supplied function (the engine
//! routes by the resource's table shard, so a shard-local transaction
//! contends only on its own manager's mutex). Shard-local waits-for
//! cycles are caught at enqueue time by each manager's own check; a cycle
//! that **straddles** shards is invisible to any single manager, so the
//! facade carries an optional [`GlobalDetector`]: blocked waiters run
//! edge-chasing probes over a consistent all-shard cut and convict a
//! victim instead of letting the cycle die by the lock timeout (which
//! remains the backstop when detection is disabled or every cycle member
//! is immune — see [`crate::detect`]).
//!
//! Transaction-scoped operations (`unlock_all`, `cancel`, `held`)
//! broadcast to every shard; a transaction's locks may be spread over
//! several of them.

use crate::detect::GlobalDetector;
use crate::event::LockEventSink;
use crate::manager::{LockError, LockManager, ProbeHook};
use crate::mode::LockMode;
use crate::resource::{Resource, TxId};
use std::fmt;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

/// Picks the shard owning a resource.
pub type Router = Box<dyn Fn(&Resource) -> usize + Send + Sync>;

/// N per-shard [`LockManager`]s plus the routing rule between them.
pub struct ShardedLocks {
    shards: Vec<LockManager>,
    route: Router,
    /// Cross-shard deadlock detector; `None` = timeout-only fallback.
    detect: Option<GlobalDetector>,
}

impl fmt::Debug for ShardedLocks {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShardedLocks")
            .field("shards", &self.shards.len())
            .finish()
    }
}

impl Default for ShardedLocks {
    fn default() -> ShardedLocks {
        ShardedLocks::single()
    }
}

impl ShardedLocks {
    /// One shard, trivial routing — behaviourally a plain [`LockManager`].
    pub fn single() -> ShardedLocks {
        ShardedLocks::with_router(1, Box::new(|_| 0))
    }

    /// `n` shards (clamped to at least 1) with the given routing rule.
    /// The router must be total and stable: the same resource always maps
    /// to the same shard in `0..n`.
    pub fn with_router(n: usize, route: Router) -> ShardedLocks {
        ShardedLocks {
            shards: (0..n.max(1)).map(|_| LockManager::new()).collect(),
            route,
            detect: None,
        }
    }

    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Install a cross-shard deadlock detector. Like sink installation,
    /// this must run before the facade is shared. Probing only engages
    /// with two or more shards — a single manager's enqueue-time check
    /// already sees every cycle it can form.
    pub fn enable_detection(&mut self, det: GlobalDetector) {
        self.detect = Some(det);
    }

    /// The installed detector, if any.
    pub fn detector(&self) -> Option<&GlobalDetector> {
        self.detect.as_ref()
    }

    /// Victims convicted by the cross-shard detector (0 when detection is
    /// off — every local enqueue-time victim counts under
    /// [`Self::total_deadlocks`] either way).
    pub fn total_deadlock_victims(&self) -> u64 {
        self.detect.as_ref().map_or(0, |d| d.victims())
    }

    /// Edge-chasing probes launched by blocked waiters (0 when detection
    /// is off).
    pub fn total_detection_probes(&self) -> u64 {
        self.detect.as_ref().map_or(0, |d| d.probes())
    }

    /// Install one audit sink on every shard; each shard stamps its own
    /// index on the events it emits. Must run before the facade is shared
    /// (see [`LockManager::set_sink`]).
    pub fn install_sink(&mut self, sink: Arc<dyn LockEventSink>) {
        for (i, m) in self.shards.iter_mut().enumerate() {
            m.set_sink(i, sink.clone());
        }
    }

    /// The manager owning shard `i`.
    pub fn shard(&self, i: usize) -> &LockManager {
        &self.shards[i]
    }

    /// The shard `res` routes to.
    pub fn shard_of(&self, res: &Resource) -> usize {
        (self.route)(res).min(self.shards.len() - 1)
    }

    /// Acquire `mode` on `res` for `tx` on the owning shard (see
    /// [`LockManager::lock`]).
    pub fn lock(
        &self,
        tx: TxId,
        res: Resource,
        mode: LockMode,
        timeout: Option<Duration>,
    ) -> Result<(), LockError> {
        let s = self.shard_of(&res);
        match &self.detect {
            Some(det) if self.shards.len() > 1 => {
                let run = || {
                    det.probe(&self.shards, tx);
                };
                self.shards[s].lock_probed(
                    tx,
                    res,
                    mode,
                    timeout,
                    Some(ProbeHook {
                        grace: det.grace(),
                        period: det.period(),
                        run: &run,
                    }),
                )
            }
            _ => self.shards[s].lock(tx, res, mode, timeout),
        }
    }

    /// Non-blocking acquire on the owning shard.
    pub fn try_lock(&self, tx: TxId, res: Resource, mode: LockMode) -> bool {
        let s = self.shard_of(&res);
        self.shards[s].try_lock(tx, res, mode)
    }

    /// Release one resource on its owning shard.
    pub fn release(&self, tx: TxId, res: &Resource) {
        self.shards[self.shard_of(res)].release(tx, res);
    }

    /// Release everything `tx` holds, on every shard.
    pub fn unlock_all(&self, tx: TxId) {
        for m in &self.shards {
            m.unlock_all(tx);
        }
    }

    /// Cancel `tx`'s pending waits on every shard.
    pub fn cancel(&self, tx: TxId) {
        for m in &self.shards {
            m.cancel(tx);
        }
    }

    /// Drop all state on every shard (recovery).
    pub fn reset(&self) {
        for m in &self.shards {
            m.reset();
        }
    }

    /// Whether **every** shard is quiescent.
    pub fn quiescent(&self) -> bool {
        self.shards.iter().all(|m| m.quiescent())
    }

    /// Whether shard `i` alone is quiescent — the per-shard checkpoint
    /// gate: one busy shard no longer blocks checkpointing the others.
    pub fn quiescent_shard(&self, i: usize) -> bool {
        self.shards[i].quiescent()
    }

    /// Everything `tx` holds, across all shards.
    pub fn held(&self, tx: TxId) -> Vec<(Resource, LockMode)> {
        let mut out = Vec::new();
        for m in &self.shards {
            out.extend(m.held(tx));
        }
        out
    }

    /// Total grants across shards (diagnostics).
    pub fn total_grants(&self) -> u64 {
        self.shards
            .iter()
            .map(|m| m.stats().grants.load(Ordering::Relaxed))
            .sum()
    }

    /// Total waits-for cycles broken by victim selection, across shards —
    /// both local enqueue-time detections and victims convicted by the
    /// cross-shard probe overlay.
    pub fn total_deadlocks(&self) -> u64 {
        self.shards
            .iter()
            .map(|m| m.stats().deadlocks.load(Ordering::Relaxed))
            .sum()
    }

    /// Total lock waits that expired, across shards. With detection on,
    /// cross-shard cycles are convicted by the probe overlay instead of
    /// landing here; the timeout remains the backstop for detection-off
    /// runs and all-immune cycles.
    pub fn total_timeouts(&self) -> u64 {
        self.shards
            .iter()
            .map(|m| m.stats().timeouts.load(Ordering::Relaxed))
            .sum()
    }

    /// Completed blocked-wait durations (µs) across every shard, in no
    /// particular order.
    pub fn all_wait_micros(&self) -> Vec<u64> {
        self.shards.iter().flat_map(|m| m.wait_micros()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_sharded() -> ShardedLocks {
        // Route by first byte parity: "a…" → 0, "b…" → 1, etc.
        ShardedLocks::with_router(
            2,
            Box::new(|r| (r.table_name().as_bytes().first().copied().unwrap_or(0) % 2) as usize),
        )
    }

    #[test]
    fn routing_is_stable_and_operations_land_on_one_shard() {
        let l = two_sharded();
        let ra = Resource::table("aa");
        let rb = Resource::table("bb");
        assert_ne!(l.shard_of(&ra), l.shard_of(&rb));
        l.lock(TxId(1), ra.clone(), LockMode::X, None).unwrap();
        l.lock(TxId(1), rb.clone(), LockMode::S, None).unwrap();
        assert_eq!(l.held(TxId(1)).len(), 2, "held() spans shards");
        assert!(!l.quiescent());
        // The shard that holds nothing is quiescent on its own.
        let busy = l.shard_of(&ra);
        assert!(!l.quiescent_shard(busy));
        l.release(TxId(1), &ra);
        assert!(l.quiescent_shard(busy));
        assert!(!l.quiescent_shard(1 - busy));
        l.unlock_all(TxId(1));
        assert!(l.quiescent());
    }

    #[test]
    fn conflicts_on_different_shards_do_not_interact() {
        let l = two_sharded();
        l.lock(TxId(1), Resource::table("aa"), LockMode::X, None)
            .unwrap();
        // A second transaction on the other shard is not delayed.
        assert!(l.try_lock(TxId(2), Resource::table("bb"), LockMode::X));
        // But the same resource conflicts as usual.
        assert!(!l.try_lock(TxId(2), Resource::table("aa"), LockMode::S));
        l.reset();
        assert!(l.quiescent());
    }

    fn two_sharded_detecting() -> Arc<ShardedLocks> {
        let mut l = two_sharded();
        l.enable_detection(
            GlobalDetector::new().with_timing(Duration::from_millis(1), Duration::from_millis(2)),
        );
        Arc::new(l)
    }

    #[test]
    fn cross_shard_cycle_convicts_youngest_not_timeout() {
        // t1 holds X("aa") on shard 0, t2 holds X("bb") on shard 1; each
        // then requests the other's resource. Neither shard's local check
        // can see the cycle; the probe overlay must convict the youngest
        // (t2) well before the generous timeout, leaving zero timeouts.
        let l = two_sharded_detecting();
        let (ra, rb) = (Resource::table("aa"), Resource::table("bb"));
        l.lock(TxId(1), ra.clone(), LockMode::X, None).unwrap();
        l.lock(TxId(2), rb.clone(), LockMode::X, None).unwrap();
        let (l1, rb1) = (l.clone(), rb.clone());
        let w1 = std::thread::spawn(move || {
            l1.lock(TxId(1), rb1, LockMode::X, Some(Duration::from_secs(10)))
        });
        std::thread::sleep(Duration::from_millis(20));
        let err = l
            .lock(
                TxId(2),
                ra.clone(),
                LockMode::X,
                Some(Duration::from_secs(10)),
            )
            .unwrap_err();
        assert_eq!(err, LockError::Deadlock, "victim convicted, not timed out");
        assert_eq!(l.total_deadlock_victims(), 1);
        assert!(l.total_detection_probes() >= 1);
        assert_eq!(l.total_timeouts(), 0);
        // Victim aborts; the survivor's wait completes.
        l.unlock_all(TxId(2));
        assert_eq!(w1.join().unwrap(), Ok(()));
        l.unlock_all(TxId(1));
        assert!(l.quiescent());
    }

    #[test]
    fn three_shard_ring_breaks_with_one_victim() {
        // t1→t2→t3→t1 across three shards; exactly one member aborts and
        // the other two complete.
        let mut l = ShardedLocks::with_router(
            3,
            Box::new(|r| (r.table_name().as_bytes().first().copied().unwrap_or(0) as usize) % 3),
        );
        l.enable_detection(
            GlobalDetector::new().with_timing(Duration::from_millis(1), Duration::from_millis(2)),
        );
        let l = Arc::new(l);
        // Bytes 'c','d','e' → shards 2,0,1: three distinct shards.
        let res: Vec<Resource> = ["cc", "dd", "ee"].iter().map(Resource::table).collect();
        let shard_set: std::collections::BTreeSet<usize> =
            res.iter().map(|r| l.shard_of(r)).collect();
        assert_eq!(shard_set.len(), 3, "ring must straddle three shards");
        for (i, r) in res.iter().enumerate() {
            l.lock(TxId(i as u64 + 1), r.clone(), LockMode::X, None)
                .unwrap();
        }
        let mut waiters = Vec::new();
        for i in 0..3u64 {
            let l2 = l.clone();
            let want = res[((i as usize) + 1) % 3].clone();
            waiters.push(std::thread::spawn(move || {
                let out = l2.lock(
                    TxId(i + 1),
                    want,
                    LockMode::X,
                    Some(Duration::from_secs(10)),
                );
                if out.is_err() {
                    // Victim: abort, releasing its held resource.
                    l2.unlock_all(TxId(i + 1));
                } else {
                    l2.unlock_all(TxId(i + 1));
                }
                out
            }));
        }
        let outcomes: Vec<_> = waiters.into_iter().map(|w| w.join().unwrap()).collect();
        let victims = outcomes.iter().filter(|o| o.is_err()).count();
        assert_eq!(victims, 1, "exactly one ring member aborts: {outcomes:?}");
        assert!(outcomes
            .iter()
            .all(|o| !matches!(o, Err(LockError::Timeout))));
        assert_eq!(l.total_timeouts(), 0);
        assert_eq!(l.total_deadlock_victims(), 1);
        assert!(l.quiescent());
    }

    #[test]
    fn immune_members_defer_to_older_candidates() {
        // Same two-shard cycle, but the youngest (t2) is immune per the
        // installed policy: the detector must convict t1 instead.
        struct Shield;
        impl crate::detect::VictimPolicy for Shield {
            fn immune(&self, tx: TxId) -> bool {
                tx == TxId(2)
            }
        }
        let mut l = two_sharded();
        l.enable_detection(
            GlobalDetector::with_policy(Box::new(Shield))
                .with_timing(Duration::from_millis(1), Duration::from_millis(2)),
        );
        let l = Arc::new(l);
        let (ra, rb) = (Resource::table("aa"), Resource::table("bb"));
        l.lock(TxId(1), ra.clone(), LockMode::X, None).unwrap();
        l.lock(TxId(2), rb.clone(), LockMode::X, None).unwrap();
        let (l1, ra1) = (l.clone(), ra.clone());
        let w2 = std::thread::spawn(move || {
            l1.lock(TxId(2), ra1, LockMode::X, Some(Duration::from_secs(10)))
        });
        std::thread::sleep(Duration::from_millis(20));
        let err = l
            .lock(
                TxId(1),
                rb.clone(),
                LockMode::X,
                Some(Duration::from_secs(10)),
            )
            .unwrap_err();
        assert_eq!(
            err,
            LockError::Deadlock,
            "older non-immune member convicted"
        );
        l.unlock_all(TxId(1));
        assert_eq!(w2.join().unwrap(), Ok(()), "immune member survives");
        l.unlock_all(TxId(2));
        assert!(l.quiescent());
    }

    #[test]
    fn acyclic_cross_shard_contention_has_no_victims() {
        // Plain contention (no cycle) under aggressive probing: the
        // detector must stay quiet — soundness at the facade level.
        let l = two_sharded_detecting();
        let r = Resource::table("aa");
        l.lock(TxId(1), r.clone(), LockMode::X, None).unwrap();
        let mut waiters = Vec::new();
        for i in 2..=5u64 {
            let (l2, r2) = (l.clone(), r.clone());
            waiters.push(std::thread::spawn(move || {
                l2.lock(TxId(i), r2, LockMode::S, Some(Duration::from_secs(10)))
            }));
        }
        std::thread::sleep(Duration::from_millis(30));
        l.unlock_all(TxId(1));
        for w in waiters {
            assert_eq!(w.join().unwrap(), Ok(()));
        }
        assert_eq!(l.total_deadlock_victims(), 0, "no false victims");
        assert_eq!(l.total_deadlocks(), 0);
        for i in 2..=5u64 {
            l.unlock_all(TxId(i));
        }
        assert!(l.quiescent());
    }

    #[test]
    fn single_shard_facade_matches_plain_manager() {
        let l = ShardedLocks::single();
        assert_eq!(l.shards(), 1);
        l.lock(TxId(1), Resource::row("t", 3), LockMode::X, None)
            .unwrap();
        assert_eq!(l.shard_of(&Resource::row("t", 3)), 0);
        assert_eq!(l.held(TxId(1)).len(), 1);
        l.unlock_all(TxId(1));
        assert!(l.quiescent());
    }
}
