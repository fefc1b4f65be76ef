//! A log partitioned into independent per-shard segments.
//!
//! [`ShardedWal`] owns N [`Wal`]s, one per shard. Each segment is its own
//! device with its own durable frontier, sync counter, and LSN coordinate
//! space — a sync on one shard never waits on another, which is the whole
//! point: N shards are N parallel commit pipelines. The engine routes
//! records by the owning table's shard (`shard_of_table` lives in
//! `youtopia-storage`) and the cross-shard commit protocol
//! ([`crate::LogRecord::CrossPrepare`] / [`crate::LogRecord::CrossCommit`])
//! keeps multi-shard units atomic across segments.
//!
//! Aggregate accessors (`len`, `sync_count`, `retained_len`,
//! `durable_records`) sum or concatenate across shards so existing
//! single-log call sites keep working; with one shard every method is
//! byte-for-byte the plain [`Wal`] behaviour.

use crate::log::Wal;
use crate::record::{CodecError, LogRecord, Lsn};

/// N independent WAL segments, one per shard.
#[derive(Debug)]
pub struct ShardedWal {
    shards: Vec<Wal>,
}

impl ShardedWal {
    /// Create `n` empty segments (`n` is clamped to at least 1).
    pub fn new(n: usize) -> ShardedWal {
        ShardedWal {
            shards: (0..n.max(1)).map(|_| Wal::new()).collect(),
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// The segment owned by shard `i`.
    pub fn shard(&self, i: usize) -> &Wal {
        &self.shards[i]
    }

    /// Total logical length across all segments (monotone, like
    /// [`Wal::len`]).
    pub fn len(&self) -> u64 {
        self.shards.iter().map(|w| w.len()).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|w| w.is_empty())
    }

    /// Total bytes currently retained across segments.
    pub fn retained_len(&self) -> u64 {
        self.shards.iter().map(|w| w.retained_len()).sum()
    }

    /// Total fsync-equivalents across segments.
    pub fn sync_count(&self) -> u64 {
        self.shards.iter().map(|w| w.sync_count()).sum()
    }

    /// Force every segment durable.
    pub fn sync_all(&self) {
        for w in &self.shards {
            w.sync();
        }
    }

    /// Simulate a crash on every segment: each un-synced tail is lost.
    pub fn crash(&self) {
        for w in &self.shards {
            w.crash();
        }
    }

    /// The durable records of every segment, one `Vec` per shard — the
    /// input shape of [`crate::recover_sharded`].
    pub fn durable_records_sharded(&self) -> Result<Vec<Vec<(Lsn, LogRecord)>>, CodecError> {
        self.shards.iter().map(|w| w.durable_records()).collect()
    }

    /// All segments' durable records concatenated in shard order. LSNs are
    /// per-segment coordinates; callers scanning for record *presence*
    /// (tests, diagnostics) can use this directly.
    pub fn durable_records(&self) -> Result<Vec<(Lsn, LogRecord)>, CodecError> {
        let mut out = Vec::new();
        for w in &self.shards {
            out.extend(w.durable_records()?);
        }
        Ok(out)
    }

    /// All segments' appended records concatenated in shard order.
    pub fn all_records(&self) -> Result<Vec<(Lsn, LogRecord)>, CodecError> {
        let mut out = Vec::new();
        for w in &self.shards {
            out.extend(w.all_records()?);
        }
        Ok(out)
    }

    /// Head of shard 0's segment — meaningful for single-shard
    /// configurations that treat the sharded log as one [`Wal`].
    pub fn head(&self) -> Lsn {
        self.shards[0].head()
    }
}

impl Default for ShardedWal {
    fn default() -> ShardedWal {
        ShardedWal::new(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_shard_matches_plain_wal() {
        let sw = ShardedWal::new(1);
        let plain = Wal::new();
        for rec in [
            LogRecord::Begin { tx: 1 },
            LogRecord::Commit { tx: 1, ts: 3 },
        ] {
            sw.shard(0).append(&rec);
            plain.append(&rec);
        }
        sw.sync_all();
        plain.sync();
        assert_eq!(sw.len(), plain.len());
        assert_eq!(sw.durable_records(), plain.durable_records());
        assert_eq!(sw.sync_count(), 1);
    }

    #[test]
    fn shards_have_independent_frontiers() {
        let sw = ShardedWal::new(3);
        sw.shard(0).append_sync(&LogRecord::Begin { tx: 1 });
        sw.shard(1).append(&LogRecord::Begin { tx: 2 }); // never synced
        sw.shard(2).append_sync(&LogRecord::Begin { tx: 3 });
        sw.crash();
        let per = sw.durable_records_sharded().unwrap();
        assert_eq!(per[0].len(), 1);
        assert_eq!(per[1].len(), 0, "unsynced shard-1 tail lost alone");
        assert_eq!(per[2].len(), 1);
        assert_eq!(sw.durable_records().unwrap().len(), 2);
        assert_eq!(sw.sync_count(), 2);
    }

    #[test]
    fn zero_clamps_to_one_shard() {
        let sw = ShardedWal::new(0);
        assert_eq!(sw.shards(), 1);
        assert!(sw.is_empty());
    }
}
