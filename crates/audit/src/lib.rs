//! # youtopia-audit
//!
//! Machine-checked locking: a runtime auditor for the engine's lock
//! protocol plus an offline lock-order (deadlock-potential) analysis.
//!
//! The engine's correctness rests on conventions no single component can
//! see whole: the two-level intent/key/row protocol, next-key locking for
//! phantom protection, strict-2PL phase discipline, and the latch rules
//! that keep physical and logical synchronization from deadlocking each
//! other. [`ProtocolAuditor`] implements
//! [`youtopia_lock::LockEventSink`] and re-derives every transaction's
//! held set from the event stream, checking **online**:
//!
//! * **Multigranularity legality** — a row or index-key lock requires a
//!   held ancestor *table* lock of the right strength (S/IS under at
//!   least IS; X/IX/SIX under at least IX).
//! * **Strict-2PL phasing** — no lock is acquired after the transaction
//!   first released one, and no single-resource release happens at all
//!   unless the transaction was explicitly exempted (the relaxed
//!   isolation levels release read locks early by design).
//! * **Latch discipline** — storage latches are acquired in sorted order
//!   and are never held while the thread blocks on a lock-manager wait.
//! * **Next-key coverage** — every locked range read reports the
//!   successor-or-EOF resource it fenced; the auditor verifies the
//!   transaction really holds an S-covering lock on it.
//!
//! Violations panic (in the engine's debug/test configuration) with the
//! offending rule and the most recent event trace, or are collected for
//! inspection when built with [`ProtocolAuditor::collecting`] — the mode
//! the deliberate-violation tests use.
//!
//! Independently of the rule checks, the auditor aggregates a global
//! **lock-order graph**: an edge `a → b` means some transaction acquired
//! `b` while holding `a`. Edges are tagged with the lock shard each
//! resource routes to, and [`ProtocolAuditor::cycles`] reports the
//! strongly-connected components — cycles that span more than one shard
//! are exactly the deadlocks the per-shard detector cannot see and the
//! 250 ms timeout currently papers over.

use parking_lot::Mutex;
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use youtopia_lock::{LockEvent, LockEventSink, LockMode, Resource, TxId};

/// How many formatted events the rolling trace keeps for violation
/// reports.
const TRACE_DEPTH: usize = 64;

/// One broken protocol rule, with enough context to debug it.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Stable rule identifier (`multigranularity`, `2pl-phase`,
    /// `early-release`, `latch-order`, `latch-across-wait`, `next-key`).
    pub rule: &'static str,
    /// Human-readable description of the offending transition.
    pub detail: String,
    /// The most recent lock events, oldest first, ending at the offense.
    pub trace: Vec<String>,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "lock protocol violation [{}]: {}",
            self.rule, self.detail
        )?;
        writeln!(f, "recent events (oldest first):")?;
        for line in &self.trace {
            writeln!(f, "  {line}")?;
        }
        Ok(())
    }
}

#[derive(Default)]
struct TxState {
    /// Resource → (held mode, owning shard).
    held: HashMap<Resource, (LockMode, usize)>,
    /// The transaction has released at least one lock (shrink phase).
    shrunk: bool,
}

#[derive(Default)]
struct AuditState {
    txs: HashMap<TxId, TxState>,
    /// Transactions exempt from the 2PL phasing rule (relaxed isolation).
    exempt: BTreeSet<TxId>,
    trace: VecDeque<String>,
    violations: Vec<Violation>,
    /// Lock-order edges: (held, then-acquired) → (held shard, acquired
    /// shard).
    edges: BTreeMap<(Resource, Resource), (usize, usize)>,
    /// Online victim convictions, in stream order.
    detections: Vec<Detection>,
}

thread_local! {
    /// Names of the storage latches the current thread holds, in
    /// acquisition order. Thread-local because latches are held across
    /// short critical sections on one thread only.
    static LATCH_STACK: RefCell<Vec<String>> = const { RefCell::new(Vec::new()) };
}

/// RAII witness of one held storage latch; unregisters on drop.
#[derive(Debug)]
pub struct LatchToken {
    name: String,
}

impl Drop for LatchToken {
    fn drop(&mut self) {
        LATCH_STACK.with(|s| {
            let mut s = s.borrow_mut();
            if let Some(i) = s.iter().rposition(|n| n == &self.name) {
                s.remove(i);
            }
        });
    }
}

/// One online victim conviction observed on the event stream: the
/// cross-shard probe overlay (or a shard-local waits-for check) refused
/// `tx`'s request and aborted it to break a cycle.
#[derive(Debug, Clone)]
pub struct Detection {
    /// The convicted transaction.
    pub tx: TxId,
    /// The resource the victim was blocked on when convicted.
    pub requested: String,
    /// The lock shard that surfaced the conviction.
    pub shard: usize,
    /// Resources the victim held at conviction time — the sources of the
    /// ordering edges its blocked request proved.
    pub held: Vec<String>,
}

/// A cycle (strongly-connected component) in the lock-order graph.
#[derive(Debug, Clone)]
pub struct CycleReport {
    /// The resources in the component, sorted.
    pub resources: Vec<String>,
    /// Every lock shard the component's internal edges touch.
    pub shards: BTreeSet<usize>,
    /// True when the cycle spans more than one shard — invisible to the
    /// per-shard waits-for detector, breakable only by timeout.
    pub cross_shard: bool,
}

/// The runtime protocol checker. Install with
/// [`youtopia_lock::ShardedLocks::install_sink`]; feed latch and range
/// events from the executor via [`Self::latch`] and
/// [`Self::range_probe_covered`].
pub struct ProtocolAuditor {
    panic_on_violation: bool,
    /// Engine-wide phasing waiver: the `EarlyReadLockRelease` isolation
    /// level releases read locks mid-transaction by design, so the
    /// strict-2PL phasing rules don't apply to any of its transactions.
    relaxed_phasing: AtomicBool,
    events_seen: AtomicU64,
    inner: Mutex<AuditState>,
}

impl fmt::Debug for ProtocolAuditor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ProtocolAuditor")
            .field("panic_on_violation", &self.panic_on_violation)
            .field("events_seen", &self.events_seen.load(Ordering::Relaxed))
            .finish()
    }
}

impl Default for ProtocolAuditor {
    fn default() -> Self {
        Self::strict()
    }
}

impl ProtocolAuditor {
    /// Panic on the first violation — the engine's debug/test mode.
    pub fn strict() -> ProtocolAuditor {
        ProtocolAuditor {
            panic_on_violation: true,
            relaxed_phasing: AtomicBool::new(false),
            events_seen: AtomicU64::new(0),
            inner: Mutex::new(AuditState::default()),
        }
    }

    /// Record violations without panicking — for the auditor's own
    /// deliberate-violation tests.
    pub fn collecting() -> ProtocolAuditor {
        ProtocolAuditor {
            panic_on_violation: false,
            ..ProtocolAuditor::strict()
        }
    }

    /// Exempt `tx` from the 2PL phasing rule: the relaxed isolation
    /// levels (§3.3.1) release read locks before commit by design. The
    /// exemption dies with the transaction's final release.
    pub fn exempt_phasing(&self, tx: TxId) {
        self.inner.lock().exempt.insert(tx);
    }

    /// Waive the phasing rules for *every* transaction — set when the
    /// whole engine runs `EarlyReadLockRelease` isolation.
    pub fn set_relaxed_phasing(&self, relaxed: bool) {
        self.relaxed_phasing.store(relaxed, Ordering::Relaxed);
    }

    /// Total audit events processed (lock events + latch + range
    /// checks) — surfaced as `Engine::audit_events`.
    pub fn events_seen(&self) -> u64 {
        self.events_seen.load(Ordering::Relaxed)
    }

    /// Violations collected so far (empty in strict mode unless a panic
    /// was caught upstream).
    pub fn violations(&self) -> Vec<Violation> {
        self.inner.lock().violations.clone()
    }

    /// Register a storage latch acquisition on this thread and check the
    /// sorted-order discipline: a new latch name must not sort before one
    /// already held (equal names are re-entrant reads and fine). Hold the
    /// returned token exactly as long as the latch guard.
    pub fn latch(&self, name: &str) -> LatchToken {
        self.events_seen.fetch_add(1, Ordering::Relaxed);
        let offending = LATCH_STACK.with(|s| {
            let held = s.borrow();
            held.iter().find(|h| name < h.as_str()).cloned()
        });
        if let Some(prior) = offending {
            self.flag(
                "latch-order",
                format!("latch '{name}' acquired while holding later-sorting latch '{prior}'"),
            );
        }
        LATCH_STACK.with(|s| s.borrow_mut().push(name.to_string()));
        LatchToken {
            name: name.to_string(),
        }
    }

    /// Verify next-key coverage: after a locked range read converges, the
    /// executor reports the successor-or-EOF resource that fences the
    /// range; `tx` must hold an S-covering lock on it or phantoms can
    /// slip past the probe.
    pub fn range_probe_covered(&self, tx: TxId, successor: &Resource) {
        self.events_seen.fetch_add(1, Ordering::Relaxed);
        let mut st = self.inner.lock();
        let covered = st
            .txs
            .get(&tx)
            .and_then(|t| t.held.get(successor))
            .is_some_and(|(m, _)| m.covers(LockMode::S));
        if !covered {
            let v = Self::violation_in(
                &mut st,
                "next-key",
                format!(
                    "{tx} finished a locked range read without S on next-key fence {successor}"
                ),
            );
            drop(st);
            self.raise(v);
        }
    }

    /// JSON rendering of the lock-order graph plus its cycle report —
    /// the artifact CI uploads next to the BENCH jsons.
    pub fn graph_json(&self) -> String {
        let st = self.inner.lock();
        let mut out = String::from("{\n  \"edges\": [\n");
        let mut first = true;
        for ((from, to), (fs, ts)) in &st.edges {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            out.push_str(&format!(
                "    {{\"from\": \"{}\", \"to\": \"{}\", \"from_shard\": {fs}, \"to_shard\": {ts}}}",
                escape(&from.to_string()),
                escape(&to.to_string()),
            ));
        }
        out.push_str("\n  ],\n  \"detections\": [\n");
        first = true;
        for d in &st.detections {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            let held = d
                .held
                .iter()
                .map(|r| format!("\"{}\"", escape(r)))
                .collect::<Vec<_>>()
                .join(", ");
            out.push_str(&format!(
                "    {{\"tx\": {}, \"requested\": \"{}\", \"shard\": {}, \"held\": [{held}]}}",
                d.tx.0,
                escape(&d.requested),
                d.shard,
            ));
        }
        out.push_str("\n  ],\n  \"cycles\": [\n");
        let cycles = Self::cycles_in(&st);
        drop(st);
        first = true;
        for c in &cycles {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            let members = c
                .resources
                .iter()
                .map(|r| format!("\"{}\"", escape(r)))
                .collect::<Vec<_>>()
                .join(", ");
            let shards = c
                .shards
                .iter()
                .map(|s| s.to_string())
                .collect::<Vec<_>>()
                .join(", ");
            out.push_str(&format!(
                "    {{\"resources\": [{members}], \"shards\": [{shards}], \"cross_shard\": {}}}",
                c.cross_shard
            ));
        }
        out.push_str("\n  ]\n}\n");
        out
    }

    /// Cycles (SCCs of size > 1, or self-loops) in the lock-order graph.
    /// A non-empty result means some interleaving of the observed
    /// transactions can deadlock; `cross_shard` members are the ones the
    /// per-shard detector cannot break.
    pub fn cycles(&self) -> Vec<CycleReport> {
        Self::cycles_in(&self.inner.lock())
    }

    /// Number of lock-order edges observed (diagnostics).
    pub fn edge_count(&self) -> usize {
        self.inner.lock().edges.len()
    }

    /// Every online victim conviction seen on the event stream, in order.
    pub fn detections(&self) -> Vec<Detection> {
        self.inner.lock().detections.clone()
    }

    /// Cross-check the online detector against the offline analysis:
    /// detections whose blocked resource appears in **no** lock-order
    /// cycle. A sound detector leaves this empty — every runtime
    /// conviction corresponds to a cycle the offline Tarjan pass also
    /// finds (the victim's own edges are recorded at conviction, the
    /// survivors' when their stalled grants land), so a non-empty result
    /// means the detector convicted a transaction that was never actually
    /// entangled in an ordering cycle.
    pub fn uncovered_detections(&self) -> Vec<Detection> {
        let st = self.inner.lock();
        let cycles = Self::cycles_in(&st);
        st.detections
            .iter()
            .filter(|d| !cycles.iter().any(|c| c.resources.contains(&d.requested)))
            .cloned()
            .collect()
    }

    // ---- internals ----------------------------------------------------

    fn flag(&self, rule: &'static str, detail: String) {
        let mut st = self.inner.lock();
        let v = Self::violation_in(&mut st, rule, detail);
        drop(st);
        self.raise(v);
    }

    fn violation_in(st: &mut AuditState, rule: &'static str, detail: String) -> Violation {
        let v = Violation {
            rule,
            detail,
            trace: st.trace.iter().cloned().collect(),
        };
        st.violations.push(v.clone());
        v
    }

    fn raise(&self, v: Violation) {
        if self.panic_on_violation {
            panic!("{v}");
        }
    }

    fn tarjan_sccs(adj: &BTreeMap<&Resource, Vec<&Resource>>) -> Vec<Vec<Resource>> {
        // Iterative Tarjan: indices assigned in DFS order, lowlink
        // tracking via an explicit frame stack.
        #[derive(Clone)]
        struct Node {
            index: usize,
            lowlink: usize,
            on_stack: bool,
        }
        let mut meta: HashMap<&Resource, Node> = HashMap::new();
        let mut stack: Vec<&Resource> = Vec::new();
        let mut sccs: Vec<Vec<Resource>> = Vec::new();
        let mut next_index = 0usize;
        for &start in adj.keys() {
            if meta.contains_key(start) {
                continue;
            }
            // Frame: (node, next child position).
            let mut frames: Vec<(&Resource, usize)> = vec![(start, 0)];
            meta.insert(
                start,
                Node {
                    index: next_index,
                    lowlink: next_index,
                    on_stack: true,
                },
            );
            stack.push(start);
            next_index += 1;
            while let Some(&mut (v, ref mut child)) = frames.last_mut() {
                let succs = adj.get(v).map(|s| s.as_slice()).unwrap_or(&[]);
                if *child < succs.len() {
                    let w = succs[*child];
                    *child += 1;
                    match meta.get(w) {
                        None => {
                            meta.insert(
                                w,
                                Node {
                                    index: next_index,
                                    lowlink: next_index,
                                    on_stack: true,
                                },
                            );
                            stack.push(w);
                            next_index += 1;
                            frames.push((w, 0));
                        }
                        Some(n) if n.on_stack => {
                            let wi = n.index;
                            let m = meta.get_mut(v).unwrap();
                            m.lowlink = m.lowlink.min(wi);
                        }
                        Some(_) => {}
                    }
                } else {
                    frames.pop();
                    let vm = meta[v].clone();
                    if let Some(&mut (p, _)) = frames.last_mut() {
                        let low = vm.lowlink;
                        let pm = meta.get_mut(p).unwrap();
                        pm.lowlink = pm.lowlink.min(low);
                    }
                    if vm.lowlink == vm.index {
                        let mut comp = Vec::new();
                        while let Some(w) = stack.pop() {
                            meta.get_mut(w).unwrap().on_stack = false;
                            comp.push(w.clone());
                            if w == v {
                                break;
                            }
                        }
                        sccs.push(comp);
                    }
                }
            }
        }
        sccs
    }

    fn cycles_in(st: &AuditState) -> Vec<CycleReport> {
        let mut adj: BTreeMap<&Resource, Vec<&Resource>> = BTreeMap::new();
        for (from, to) in st.edges.keys() {
            adj.entry(from).or_default().push(to);
            adj.entry(to).or_default();
        }
        let mut out = Vec::new();
        for comp in Self::tarjan_sccs(&adj) {
            let cyclic = comp.len() > 1
                || (comp.len() == 1 && st.edges.contains_key(&(comp[0].clone(), comp[0].clone())));
            if !cyclic {
                continue;
            }
            let members: BTreeSet<&Resource> = comp.iter().collect();
            let mut shards = BTreeSet::new();
            for ((from, to), (fs, ts)) in &st.edges {
                if members.contains(from) && members.contains(to) {
                    shards.insert(*fs);
                    shards.insert(*ts);
                }
            }
            out.push(CycleReport {
                resources: comp
                    .iter()
                    .map(|r| r.to_string())
                    .collect::<BTreeSet<_>>()
                    .into_iter()
                    .collect(),
                cross_shard: shards.len() > 1,
                shards,
            });
        }
        out
    }

    /// The table at the root of a resource's granularity hierarchy. Index
    /// key/EOF resources are rows of a synthetic `table#index` name; their
    /// locking ancestor is the *base* table (the same rule
    /// `shard_of_table` uses for routing).
    fn ancestor_table(res: &Resource) -> Resource {
        let base = res.table_name().split('#').next().unwrap_or_default();
        Resource::table(base)
    }

    fn check_granted(&self, tx: TxId, res: &Resource, mode: LockMode, shard: usize) {
        let mut st = self.inner.lock();
        let grew = st
            .txs
            .get(&tx)
            .and_then(|t| t.held.get(res))
            .map(|(m, _)| *m)
            != Some(mode);
        let mut pending = Vec::new();
        if grew {
            // Strict-2PL phasing: growth after any shrink is illegal
            // unless the transaction runs a relaxed isolation level.
            let relaxed = self.relaxed_phasing.load(Ordering::Relaxed);
            let t = st.txs.entry(tx).or_default();
            if t.shrunk && !relaxed && !st.exempt.contains(&tx) {
                pending.push((
                    "2pl-phase",
                    format!("{tx} acquired {mode:?} on {res} after releasing a lock"),
                ));
            }
            // Multigranularity: row-level locks need a table ancestor of
            // the right strength already held.
            if matches!(res, Resource::Row(..)) {
                let ancestor = Self::ancestor_table(res);
                let parent_mode = st
                    .txs
                    .get(&tx)
                    .and_then(|t| t.held.get(&ancestor))
                    .map(|(m, _)| *m);
                let needs_write_intent = matches!(mode, LockMode::X | LockMode::IX | LockMode::SIX);
                let ok = match parent_mode {
                    Some(pm) if needs_write_intent => {
                        matches!(pm, LockMode::IX | LockMode::SIX | LockMode::X)
                    }
                    Some(_) => true,
                    None => false,
                };
                if !ok {
                    pending.push((
                        "multigranularity",
                        format!(
                            "{tx} took {mode:?} on {res} holding {} on ancestor {ancestor}",
                            parent_mode.map_or("nothing".to_string(), |m| format!("{m:?}")),
                        ),
                    ));
                }
            }
            // Lock-order graph: every held resource was ordered before
            // the new one by this transaction.
            let snapshot: Vec<(Resource, usize)> = st
                .txs
                .get(&tx)
                .map(|t| {
                    t.held
                        .iter()
                        .filter(|(r, _)| *r != res)
                        .map(|(r, (_, s))| (r.clone(), *s))
                        .collect()
                })
                .unwrap_or_default();
            for (prior, prior_shard) in snapshot {
                st.edges
                    .entry((prior, res.clone()))
                    .or_insert((prior_shard, shard));
            }
        }
        st.txs
            .entry(tx)
            .or_default()
            .held
            .insert(res.clone(), (mode, shard));
        let raised: Vec<Violation> = pending
            .into_iter()
            .map(|(rule, detail)| Self::violation_in(&mut st, rule, detail))
            .collect();
        drop(st);
        for v in raised {
            self.raise(v);
        }
    }
}

impl LockEventSink for ProtocolAuditor {
    fn on_event(&self, event: &LockEvent) {
        self.events_seen.fetch_add(1, Ordering::Relaxed);
        {
            let mut st = self.inner.lock();
            if st.trace.len() == TRACE_DEPTH {
                st.trace.pop_front();
            }
            st.trace.push_back(event.to_string());
        }
        match event {
            LockEvent::Granted {
                tx,
                res,
                mode,
                shard,
            } => self.check_granted(*tx, res, *mode, *shard),
            LockEvent::Wait { tx, res, .. } => {
                let held = LATCH_STACK.with(|s| s.borrow().clone());
                if !held.is_empty() {
                    self.flag(
                        "latch-across-wait",
                        format!(
                            "{tx} blocked on lock {res} while this thread holds latch(es) [{}]",
                            held.join(", ")
                        ),
                    );
                }
            }
            LockEvent::Released { tx, res, .. } => {
                let mut st = self.inner.lock();
                let exempt = self.relaxed_phasing.load(Ordering::Relaxed) || st.exempt.contains(tx);
                let t = st.txs.entry(*tx).or_default();
                t.held.remove(res);
                t.shrunk = true;
                if !exempt {
                    let v = Self::violation_in(
                        &mut st,
                        "early-release",
                        format!("{tx} released {res} before commit without a relaxed-isolation exemption"),
                    );
                    drop(st);
                    self.raise(v);
                }
            }
            LockEvent::ReleasedAll { tx, .. } => {
                let mut st = self.inner.lock();
                st.txs.remove(tx);
                st.exempt.remove(tx);
            }
            LockEvent::Deadlock { tx, res, shard, .. } => {
                // A legal outcome, but one that asserts a resource
                // ordering: the victim demonstrably tried to acquire
                // `res` while holding its current set, so those edges
                // belong in the lock-order graph even though the grant
                // never happened. Recording them here is what makes the
                // online ⊆ offline cross-check sound — the surviving
                // cycle members contribute their edges when their stalled
                // requests are eventually granted, and the victim's edge
                // would otherwise be lost with the abort.
                let mut st = self.inner.lock();
                let held_snapshot: Vec<(Resource, usize)> = st
                    .txs
                    .get(tx)
                    .map(|t| t.held.iter().map(|(r, (_, s))| (r.clone(), *s)).collect())
                    .unwrap_or_default();
                for (prior, prior_shard) in &held_snapshot {
                    if prior != res {
                        st.edges
                            .entry((prior.clone(), res.clone()))
                            .or_insert((*prior_shard, *shard));
                    }
                }
                let mut held: Vec<String> =
                    held_snapshot.iter().map(|(r, _)| r.to_string()).collect();
                held.sort();
                st.detections.push(Detection {
                    tx: *tx,
                    requested: res.to_string(),
                    shard: *shard,
                    held,
                });
            }
            LockEvent::Timeout { .. } => {
                // A legal outcome; it reaches RunReport via LockStats.
            }
            LockEvent::Reset { .. } => {
                let mut st = self.inner.lock();
                st.txs.clear();
                st.exempt.clear();
            }
        }
    }
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;
    use youtopia_lock::{LockManager, ShardedLocks};

    fn t(n: u64) -> TxId {
        TxId(n)
    }

    fn audited_manager() -> (Arc<ProtocolAuditor>, LockManager) {
        let auditor = Arc::new(ProtocolAuditor::collecting());
        let mut lm = LockManager::new();
        lm.set_sink(0, auditor.clone());
        (auditor, lm)
    }

    #[test]
    fn clean_two_level_protocol_passes() {
        let (a, lm) = audited_manager();
        lm.lock(t(1), Resource::table("flights"), LockMode::IX, None)
            .unwrap();
        lm.lock(t(1), Resource::row("flights", 7), LockMode::X, None)
            .unwrap();
        lm.lock(t(1), Resource::row("flights#by_day", 3), LockMode::X, None)
            .unwrap();
        lm.unlock_all(t(1));
        assert!(a.violations().is_empty(), "{:?}", a.violations());
        assert!(a.events_seen() > 0);
    }

    #[test]
    fn row_lock_without_table_intent_is_flagged() {
        let (a, lm) = audited_manager();
        lm.lock(t(1), Resource::row("flights", 1), LockMode::X, None)
            .unwrap();
        let v = a.violations();
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "multigranularity");
        assert!(v[0].detail.contains("t1"), "{}", v[0].detail);
        assert!(!v[0].trace.is_empty(), "violation must carry its trace");
    }

    #[test]
    fn row_write_under_read_intent_is_flagged() {
        let (a, lm) = audited_manager();
        lm.lock(t(1), Resource::table("flights"), LockMode::IS, None)
            .unwrap();
        lm.lock(t(1), Resource::row("flights", 1), LockMode::X, None)
            .unwrap();
        let v = a.violations();
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "multigranularity");
    }

    #[test]
    fn acquire_after_release_is_flagged() {
        let (a, lm) = audited_manager();
        let r1 = Resource::table("a");
        lm.lock(t(1), r1.clone(), LockMode::S, None).unwrap();
        lm.release(t(1), &r1);
        lm.lock(t(1), Resource::table("b"), LockMode::S, None)
            .unwrap();
        let rules: Vec<&str> = a.violations().iter().map(|v| v.rule).collect();
        assert!(rules.contains(&"early-release"), "{rules:?}");
        assert!(rules.contains(&"2pl-phase"), "{rules:?}");
    }

    #[test]
    fn exempt_transaction_may_release_early() {
        let (a, lm) = audited_manager();
        a.exempt_phasing(t(1));
        let r1 = Resource::table("a");
        lm.lock(t(1), r1.clone(), LockMode::S, None).unwrap();
        lm.release(t(1), &r1);
        lm.lock(t(1), Resource::table("b"), LockMode::S, None)
            .unwrap();
        lm.unlock_all(t(1));
        assert!(a.violations().is_empty(), "{:?}", a.violations());
        // The exemption died with the transaction.
        let r2 = Resource::table("c");
        lm.lock(t(1), r2.clone(), LockMode::S, None).unwrap();
        lm.release(t(1), &r2);
        assert_eq!(a.violations().len(), 1);
    }

    #[test]
    fn latch_across_wait_is_flagged() {
        let auditor = Arc::new(ProtocolAuditor::collecting());
        let mut lm = LockManager::new();
        lm.set_sink(0, auditor.clone());
        let lm = Arc::new(lm);
        let r = Resource::table("flights");
        lm.lock(t(1), r.clone(), LockMode::X, None).unwrap();
        let token = auditor.latch("flights");
        // t2 must wait for the X holder — with a latch held on this
        // thread, that wait is the violation.
        let _ = lm.lock(t(2), r, LockMode::S, Some(Duration::from_millis(10)));
        drop(token);
        let v = auditor.violations();
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "latch-across-wait");
        assert!(v[0].detail.contains("flights"), "{}", v[0].detail);
    }

    #[test]
    fn unsorted_latch_order_is_flagged() {
        let a = ProtocolAuditor::collecting();
        let t1 = a.latch("hotels");
        let t2 = a.latch("flights"); // "flights" < "hotels": out of order
        drop(t2);
        drop(t1);
        let v = a.violations();
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "latch-order");
        // Sorted acquisition (with re-entry) is clean.
        let t1 = a.latch("flights");
        let t2 = a.latch("flights");
        let t3 = a.latch("hotels");
        drop((t1, t2, t3));
        assert_eq!(a.violations().len(), 1);
    }

    #[test]
    fn range_read_missing_next_key_lock_is_flagged() {
        let (a, lm) = audited_manager();
        lm.lock(t(1), Resource::table("flights"), LockMode::IS, None)
            .unwrap();
        lm.lock(t(1), Resource::row("flights#by_day", 10), LockMode::S, None)
            .unwrap();
        // The successor key was never locked.
        a.range_probe_covered(t(1), &Resource::row("flights#by_day", 11));
        let v = a.violations();
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "next-key");
        // And with the fence held, the same check is clean.
        lm.lock(t(1), Resource::row("flights#by_day", 11), LockMode::S, None)
            .unwrap();
        a.range_probe_covered(t(1), &Resource::row("flights#by_day", 11));
        assert_eq!(a.violations().len(), 1);
    }

    #[test]
    fn strict_mode_panics_with_trace() {
        let a = Arc::new(ProtocolAuditor::strict());
        let mut lm = LockManager::new();
        lm.set_sink(0, a.clone());
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            lm.lock(t(1), Resource::row("flights", 1), LockMode::X, None)
                .unwrap();
        }))
        .unwrap_err();
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("multigranularity"), "{msg}");
        assert!(msg.contains("recent events"), "{msg}");
    }

    #[test]
    fn lock_order_graph_detects_cross_shard_cycle() {
        let auditor = Arc::new(ProtocolAuditor::collecting());
        // Two shards routed by first byte parity, like the engine's hash
        // router: "a…" on shard 0 (b'a' is odd → 1… keep it simple and
        // route by explicit table name instead).
        let mut locks = ShardedLocks::with_router(
            2,
            Box::new(|r| usize::from(r.table_name().starts_with('b'))),
        );
        locks.install_sink(auditor.clone());
        let a = Resource::table("aa");
        let b = Resource::table("bb");
        // t1 orders aa → bb; t2 orders bb → aa. No runtime deadlock (the
        // acquisitions are sequential) but the order graph has the cycle.
        locks.lock(t(1), a.clone(), LockMode::S, None).unwrap();
        locks.lock(t(1), b.clone(), LockMode::S, None).unwrap();
        locks.unlock_all(t(1));
        locks.lock(t(2), b.clone(), LockMode::S, None).unwrap();
        locks.lock(t(2), a.clone(), LockMode::S, None).unwrap();
        locks.unlock_all(t(2));
        let cycles = auditor.cycles();
        assert_eq!(cycles.len(), 1, "{cycles:?}");
        assert!(cycles[0].cross_shard);
        assert_eq!(
            cycles[0].shards.iter().copied().collect::<Vec<_>>(),
            vec![0, 1]
        );
        assert_eq!(
            cycles[0].resources,
            vec!["aa".to_string(), "bb".to_string()]
        );
        let json = auditor.graph_json();
        assert!(json.contains("\"cross_shard\": true"), "{json}");
        assert!(json.contains("\"from\": \"aa\""), "{json}");
    }

    #[test]
    fn online_detection_is_covered_by_offline_cycle() {
        use youtopia_lock::GlobalDetector;
        let auditor = Arc::new(ProtocolAuditor::collecting());
        let mut locks = ShardedLocks::with_router(
            2,
            Box::new(|r| usize::from(r.table_name().starts_with('b'))),
        );
        locks.install_sink(auditor.clone());
        locks.enable_detection(
            GlobalDetector::new().with_timing(Duration::from_millis(1), Duration::from_millis(2)),
        );
        let locks = Arc::new(locks);
        let a = Resource::table("aa");
        let b = Resource::table("bb");
        locks.lock(t(1), a.clone(), LockMode::X, None).unwrap();
        locks.lock(t(2), b.clone(), LockMode::X, None).unwrap();
        let l2 = locks.clone();
        let b2 = b.clone();
        let survivor = std::thread::spawn(move || {
            // t1 closes the cycle: it wants bb while t2 wants aa.
            l2.lock(t(1), b2, LockMode::X, Some(Duration::from_secs(10)))
        });
        // t2 is the younger id: the detector convicts it, t1 survives.
        let verdict = locks.lock(t(2), a.clone(), LockMode::X, Some(Duration::from_secs(10)));
        assert!(
            matches!(verdict, Err(youtopia_lock::LockError::Deadlock)),
            "{verdict:?}"
        );
        locks.unlock_all(t(2));
        survivor.join().unwrap().unwrap();
        locks.unlock_all(t(1));
        let detections = auditor.detections();
        assert_eq!(detections.len(), 1, "{detections:?}");
        assert_eq!(detections[0].tx, t(2));
        assert_eq!(detections[0].requested, "aa");
        assert_eq!(detections[0].held, vec!["bb".to_string()]);
        // The conviction is backed by an offline cycle: online ⊆ offline.
        assert!(
            auditor.uncovered_detections().is_empty(),
            "{:?}",
            auditor.uncovered_detections()
        );
        let json = auditor.graph_json();
        assert!(json.contains("\"requested\": \"aa\""), "{json}");
    }

    #[test]
    fn acyclic_order_graph_reports_no_cycles() {
        let (a, lm) = audited_manager();
        lm.lock(t(1), Resource::table("aa"), LockMode::S, None)
            .unwrap();
        lm.lock(t(1), Resource::table("bb"), LockMode::S, None)
            .unwrap();
        lm.unlock_all(t(1));
        lm.lock(t(2), Resource::table("aa"), LockMode::S, None)
            .unwrap();
        lm.lock(t(2), Resource::table("bb"), LockMode::S, None)
            .unwrap();
        lm.unlock_all(t(2));
        assert!(a.cycles().is_empty());
        assert_eq!(a.edge_count(), 1);
    }
}
