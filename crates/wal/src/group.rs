//! Group commit: batching concurrent sync requests behind a leader.
//!
//! The paper's §4 argues that entangled partners must become durable
//! together and that batching their commit points amortizes the expensive
//! sync. This module generalizes that to *every* committer: a transaction
//! that has published its commit batch ([`crate::Wal::publish`]) asks the
//! [`GroupCommitter`] to make its range durable. The first asker becomes
//! the **leader**: it logs a [`LogRecord::CommitBatch`] boundary naming
//! every commit the sync will cover, pays the (simulated) device latency,
//! and syncs once. **Followers** that arrive while a sync is in flight
//! wait on the leader's condvar; whoever is still uncovered when a sync
//! completes elects the next leader. One device sync thus covers many
//! commits — syncs-per-commit drops below 1 as concurrency rises.
//!
//! The device is serial, as a real fsync queue is: syncs execute one at a
//! time, which is exactly the cost group commit exists to amortize.

use crate::log::Wal;
use crate::record::LogRecord;
use parking_lot::{Condvar, Mutex};
use std::time::Duration;

/// Leader/follower sync batching over a [`Wal`].
#[derive(Debug)]
pub struct GroupCommitter {
    /// Simulated device-sync latency (the fsync cost being amortized).
    sync_latency: Duration,
    inner: Mutex<Inner>,
    cv: Condvar,
}

#[derive(Debug, Default)]
struct Inner {
    /// Durable frontier as of the last completed sync.
    durable: u64,
    /// A leader is currently inside the device sync.
    syncing: bool,
    /// `(tx, upto)` commit points awaiting a covering sync; the next
    /// leader names the still-uncovered ones in its `CommitBatch` record
    /// and withdraws the rest (covered by an earlier sync mid-flight).
    pending: Vec<(u64, u64)>,
    /// Completed batches (== `CommitBatch` records written).
    batches: u64,
}

impl GroupCommitter {
    pub fn new(sync_latency: Duration) -> GroupCommitter {
        GroupCommitter {
            sync_latency,
            inner: Mutex::new(Inner::default()),
            cv: Condvar::new(),
        }
    }

    /// Make everything up to `upto` durable, batching with concurrent
    /// callers: lead a sync if none is in flight, otherwise wait for a
    /// sync that covers `upto`. `txs` are the commit points this call
    /// publishes; the covering leader names them in its `CommitBatch`
    /// boundary record (ids covered by a sync that was already mid-flight
    /// are withdrawn instead, never attributed to a later batch). Returns
    /// the batch sequence number that covered the range.
    pub fn sync_covering(&self, wal: &Wal, upto: u64, txs: &[u64]) -> u64 {
        let mut g = self.inner.lock();
        g.pending.extend(txs.iter().map(|&t| (t, upto)));
        loop {
            if g.durable >= upto {
                // Covered by a sync whose leader did not drain us (it was
                // already mid-sync when we enqueued, or our range was
                // durable before we got the lock): withdraw our ids so a
                // later, unrelated batch does not claim them.
                g.pending.retain(|&(t, _)| !txs.contains(&t));
                return g.batches;
            }
            if g.syncing {
                // A leader is mid-sync; its completion wakes us. If that
                // sync predates our publish we loop and lead the next one.
                self.cv.wait(&mut g);
                continue;
            }
            // Become the leader of the next batch: withdraw pending entries
            // an earlier sync already covered (their owners may not have
            // woken to withdraw them yet), then name the rest — only
            // commits this sync newly covers.
            g.syncing = true;
            let batch = g.batches + 1;
            let watermark = g.durable;
            g.pending.retain(|&(_, u)| u > watermark);
            let covered: Vec<u64> = std::mem::take(&mut g.pending)
                .into_iter()
                .map(|(t, _)| t)
                .collect();
            drop(g);
            // The boundary record lands before the sync, so a durable
            // CommitBatch implies every listed Commit is durable too.
            wal.append(&LogRecord::CommitBatch {
                batch,
                txs: covered,
            });
            if !self.sync_latency.is_zero() {
                std::thread::sleep(self.sync_latency);
            }
            let durable = wal.sync();
            g = self.inner.lock();
            g.durable = g.durable.max(durable);
            g.batches = batch;
            g.syncing = false;
            self.cv.notify_all();
            // The leader's own range precedes its sync, so the next loop
            // iteration returns.
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn single_caller_leads_its_own_sync() {
        let wal = Wal::new();
        let gc = GroupCommitter::new(Duration::ZERO);
        let range = wal.publish(&[
            LogRecord::Begin { tx: 1 },
            LogRecord::Commit { tx: 1, ts: 0 },
        ]);
        let batch = gc.sync_covering(&wal, range.end, &[1]);
        assert_eq!(batch, 1);
        assert_eq!(wal.sync_count(), 1);
        // The boundary record is durable and lists the commit it covered.
        let recs = wal.durable_records().unwrap();
        assert_eq!(
            recs.last().unwrap().1,
            LogRecord::CommitBatch {
                batch: 1,
                txs: vec![1]
            }
        );
        // Already-durable ranges return without another sync.
        let again = gc.sync_covering(&wal, range.end, &[]);
        assert_eq!(again, 1);
        assert_eq!(wal.sync_count(), 1);
    }

    #[test]
    fn concurrent_commits_share_syncs() {
        let wal = Arc::new(Wal::new());
        let gc = Arc::new(GroupCommitter::new(Duration::from_millis(2)));
        let threads: u64 = 8;
        let handles: Vec<_> = (0..threads)
            .map(|i| {
                let wal = wal.clone();
                let gc = gc.clone();
                std::thread::spawn(move || {
                    let tx = i + 1;
                    let range =
                        wal.publish(&[LogRecord::Begin { tx }, LogRecord::Commit { tx, ts: 0 }]);
                    gc.sync_covering(&wal, range.end, &[tx]);
                    assert!(wal.durable_len() >= range.end, "sync must cover the range");
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        // With a 2ms sync latency, 8 commits racing through the committer
        // batch behind leaders: strictly fewer syncs than commits.
        assert!(
            wal.sync_count() < threads,
            "expected batching, got {} syncs for {threads} commits",
            wal.sync_count()
        );
        // Every sync wrote its `CommitBatch` boundary, and every commit is
        // durable.
        let recs = wal.durable_records().unwrap();
        let count =
            |pred: fn(&LogRecord) -> bool| recs.iter().filter(|(_, r)| pred(r)).count() as u64;
        assert_eq!(
            count(|r| matches!(r, LogRecord::CommitBatch { .. })),
            wal.sync_count()
        );
        assert_eq!(count(|r| matches!(r, LogRecord::Commit { .. })), threads);
    }
}
