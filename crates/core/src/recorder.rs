//! History recorder: turns real engine executions into the abstract
//! schedules of `youtopia-isolation`, so every run of the system can be
//! audited against the formal anomaly definitions of Appendix C.
//!
//! Reads (scans, grounding reads) are recorded at **table granularity** —
//! the paper's §3.3.3 argument is phrased in terms of read locks on whole
//! tables like `Airlines` — while writes are recorded at **row
//! granularity** when the engine uses row locks, so that two partners
//! inserting different rows into `Reserve` do not register a false
//! write-write conflict. The isolation crate's multigranularity objects
//! make a table-level read conflict with any row write in that table.
//! Index-backed point reads, which hold row S locks instead of a table S
//! lock, record at row granularity ([`Recorder::read_row`]) to match —
//! recording them table-wide would claim conflicts their locks no longer
//! enforce.

use parking_lot::Mutex;
use std::collections::HashMap;
use youtopia_isolation::{Obj, Op, Schedule, Tx};

/// Thread-safe schedule recorder.
#[derive(Debug, Default)]
pub struct Recorder {
    inner: Mutex<Inner>,
}

#[derive(Debug, Default)]
struct Inner {
    ops: Vec<Op>,
    objs: HashMap<String, u32>,
    next_entangle: u32,
    /// Position in `ops` of each in-flight transaction's first write.
    first_write: HashMap<Tx, usize>,
}

impl Inner {
    fn space(&mut self, table: &str) -> u32 {
        let next = self.objs.len() as u32;
        *self.objs.entry(table.to_ascii_lowercase()).or_insert(next)
    }
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder::default()
    }

    /// A table-granularity read (scan; conflicts with any write in the
    /// table).
    pub fn read(&self, tx: u64, table: &str) {
        let mut g = self.inner.lock();
        let space = g.space(table);
        g.ops.push(Op::Read {
            tx: Tx(tx as u32),
            obj: Obj::flat(space),
        });
    }

    /// A row-granularity read (index-backed point read holding row S locks
    /// instead of a table S lock; conflicts only with writes to that row).
    pub fn read_row(&self, tx: u64, table: &str, row: u64) {
        let mut g = self.inner.lock();
        let space = g.space(table);
        g.ops.push(Op::Read {
            tx: Tx(tx as u32),
            obj: Obj::row(space, row),
        });
    }

    /// A write; `row` gives row granularity, `None` whole-table
    /// granularity (the Ab4 ablation).
    pub fn write(&self, tx: u64, table: &str, row: Option<u64>) {
        let mut g = self.inner.lock();
        let space = g.space(table);
        let obj = match row {
            Some(r) => Obj::row(space, r),
            None => Obj::flat(space),
        };
        let at = g.ops.len();
        g.first_write.entry(Tx(tx as u32)).or_insert(at);
        g.ops.push(Op::Write {
            tx: Tx(tx as u32),
            obj,
        });
    }

    /// A snapshot pin: from here on, `tx`'s snapshot reads observe the
    /// committed prefix of this schedule. Recorded by the engine at the
    /// moment the transaction pins its multi-version read timestamp.
    pub fn snapshot_pin(&self, tx: u64) {
        self.inner
            .lock()
            .ops
            .push(Op::SnapshotPin { tx: Tx(tx as u32) });
    }

    /// A snapshot read (table granularity, like ordinary reads) — takes no
    /// locks, conflicts with nothing; audited by the snapshot-cut oracle
    /// check instead of the conflict graph.
    pub fn snapshot_read(&self, tx: u64, table: &str) {
        let mut g = self.inner.lock();
        let space = g.space(table);
        g.ops.push(Op::SnapshotRead {
            tx: Tx(tx as u32),
            obj: Obj::flat(space),
        });
    }

    /// A grounding read (always table-granularity, like the shared locks
    /// that protect it).
    pub fn ground_read(&self, tx: u64, table: &str) {
        let mut g = self.inner.lock();
        let space = g.space(table);
        g.ops.push(Op::GroundRead {
            tx: Tx(tx as u32),
            obj: Obj::flat(space),
        });
    }

    /// Record an entanglement operation; returns its id. Singleton groups
    /// model "combined query evaluated, empty/self answer" so that
    /// grounding reads are always followed by an entangle op (validity
    /// constraint C.1).
    pub fn entangle(&self, txs: &[u64]) -> u32 {
        let mut g = self.inner.lock();
        g.next_entangle += 1;
        let id = g.next_entangle;
        g.ops.push(Op::Entangle {
            id,
            txs: txs.iter().map(|&t| Tx(t as u32)).collect(),
        });
        id
    }

    pub fn commit(&self, tx: u64) {
        let mut g = self.inner.lock();
        g.first_write.remove(&Tx(tx as u32));
        g.ops.push(Op::Commit { tx: Tx(tx as u32) });
    }

    /// Record `tx`'s abort; the engine calls this after undoing `tx`'s
    /// writes in place and before releasing its locks.
    ///
    /// The abstract schedules have no undo: there, an aborted write stays
    /// in the database, and any committed transaction that later reads
    /// the object has read from an aborted transaction (Requirement C.3).
    /// The engine does undo, so a write nobody else touched before the
    /// abort restored its before-image was never observable — all that
    /// is left of it is that `tx` accessed the object, and it is recorded
    /// as that: a read. Writes that another transaction *did* read or
    /// overwrite before the abort stay writes, so a dirty read that slips
    /// past the lock protocol is still flagged.
    pub fn abort(&self, tx: u64) {
        let mut g = self.inner.lock();
        let tx = Tx(tx as u32);
        if let Some(start) = g.first_write.remove(&tx) {
            let mut written: Vec<Obj> = Vec::new();
            let mut observed = false;
            for op in &g.ops[start..] {
                match op {
                    Op::Write { tx: w, obj } if *w == tx => written.push(*obj),
                    // Snapshot reads see committed versions only.
                    Op::SnapshotRead { .. } => {}
                    _ => {
                        observed |= op.tx() != Some(tx)
                            && op
                                .obj()
                                .is_some_and(|o| written.iter().any(|w| w.overlaps(&o)));
                    }
                }
            }
            if !observed {
                for op in &mut g.ops[start..] {
                    if let Op::Write { tx: w, obj } = *op {
                        if w == tx {
                            *op = Op::Read { tx, obj };
                        }
                    }
                }
            }
        }
        g.ops.push(Op::Abort { tx });
    }

    /// Snapshot the recorded schedule (raw; expand quasi-reads before
    /// anomaly checking).
    pub fn schedule(&self) -> Schedule {
        Schedule::new(self.inner.lock().ops.clone())
    }

    /// The table-name ↔ object-space mapping used (for diagnostics).
    pub fn object_names(&self) -> Vec<(String, u32)> {
        let g = self.inner.lock();
        let mut v: Vec<(String, u32)> = g.objs.iter().map(|(k, v)| (k.clone(), *v)).collect();
        v.sort_by_key(|(_, o)| *o);
        v
    }

    pub fn clear(&self) {
        let mut g = self.inner.lock();
        g.ops.clear();
        g.objs.clear();
        g.next_entangle = 0;
        g.first_write.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use youtopia_isolation::is_entangled_isolated;

    #[test]
    fn records_a_clean_history() {
        let r = Recorder::new();
        r.ground_read(1, "Flights");
        r.ground_read(2, "Flights");
        r.entangle(&[1, 2]);
        r.write(1, "Reserve", Some(0));
        r.write(2, "Reserve", Some(1));
        r.commit(1);
        r.commit(2);
        let s = r.schedule();
        s.validate().unwrap();
        assert!(is_entangled_isolated(&s));
    }

    #[test]
    fn records_widowed_history_as_anomalous() {
        let r = Recorder::new();
        r.ground_read(1, "Flights");
        r.ground_read(2, "Flights");
        r.entangle(&[1, 2]);
        r.commit(1);
        r.abort(2);
        assert!(!is_entangled_isolated(&r.schedule()));
    }

    #[test]
    fn undone_writes_are_not_read_from_but_dirty_reads_still_are() {
        // T1 writes a row, aborts (the engine undoes the write under its
        // X lock), and only then T2 reads the row and commits: T2 saw the
        // restored before-image, not T1's write.
        let r = Recorder::new();
        r.write(1, "Acct", Some(7));
        r.abort(1);
        r.read_row(2, "Acct", 7);
        r.commit(2);
        let s = r.schedule();
        s.validate().unwrap();
        assert!(is_entangled_isolated(&s), "{:?}", s.ops);
        // The same read *before* the abort is a dirty read and must stay
        // one — whole-table reads included.
        for table_read in [false, true] {
            let r = Recorder::new();
            r.write(1, "Acct", Some(7));
            if table_read {
                r.read(2, "Acct");
            } else {
                r.read_row(2, "Acct", 7);
            }
            r.abort(1);
            r.commit(2);
            assert!(!is_entangled_isolated(&r.schedule()));
        }
    }

    #[test]
    fn object_mapping_is_stable_and_case_insensitive() {
        let r = Recorder::new();
        r.read(1, "Flights");
        r.write(1, "FLIGHTS", None);
        r.read(1, "Hotels");
        r.commit(1);
        let names = r.object_names();
        assert_eq!(names.len(), 2);
        assert_eq!(names[0].0, "flights");
        let s = r.schedule();
        assert_eq!(s.ops[0].obj(), s.ops[1].obj());
        // Row-granular writes on the same table share a space but are
        // distinct objects.
        let r2 = Recorder::new();
        r2.write(1, "t", Some(0));
        r2.write(1, "t", Some(1));
        r2.read(1, "t");
        let s2 = r2.schedule();
        let (a, b, c) = (
            s2.ops[0].obj().unwrap(),
            s2.ops[1].obj().unwrap(),
            s2.ops[2].obj().unwrap(),
        );
        assert_ne!(a, b);
        assert!(a.overlaps(&c) && b.overlaps(&c));
        assert!(!a.overlaps(&b));
    }

    #[test]
    fn snapshot_ops_record_and_stay_isolated() {
        let r = Recorder::new();
        // A writer and a concurrent snapshot reader: the reader's ops must
        // not create conflict edges (no false cycles with the writer).
        r.snapshot_pin(2);
        r.write(1, "Counters", Some(0));
        r.commit(1);
        r.snapshot_read(2, "Counters");
        r.commit(2);
        let s = r.schedule();
        s.validate().unwrap();
        assert!(is_entangled_isolated(&s));
        assert!(youtopia_isolation::check_snapshot_serializable(
            &s,
            &youtopia_isolation::Db::new()
        )
        .is_ok());
    }

    #[test]
    fn entangle_ids_increment() {
        let r = Recorder::new();
        let a = r.entangle(&[1]);
        let b = r.entangle(&[2, 3]);
        assert!(b > a);
    }

    #[test]
    fn clear_resets() {
        let r = Recorder::new();
        r.read(1, "t");
        r.commit(1);
        r.clear();
        assert!(r.schedule().ops.is_empty());
        assert!(r.object_names().is_empty());
    }
}
