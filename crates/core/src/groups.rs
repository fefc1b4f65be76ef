//! Group-commit bookkeeping (§3.3.3): transactions that entangle —
//! directly or transitively — must commit or abort together. The paper's
//! pairwise requirement "induces a requirement on groups of transactions
//! that have entangled with each other directly or transitively".

use parking_lot::Mutex;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use youtopia_lock::{TxId, VictimPolicy};

/// Union-find over engine transaction ids, tracking the entanglement
/// groups of transactions still in flight.
///
/// Only transactions that were [`link`](GroupManager::link)ed own an
/// entry: a query about a classical transaction is one failed hash
/// lookup and leaves no trace. Each root carries its group's member
/// list, so [`members`](GroupManager::members) costs O(group), not
/// O(history). A group **retires** — all its entries are dropped — once
/// every member has [`finish`](GroupManager::finish)ed (committed or
/// aborted). Until then an aborted member stays visible: its partners
/// must still see the full group at settle time, or a ready partner
/// would look ungrouped and commit alone (a widow).
#[derive(Debug, Default)]
pub struct GroupManager {
    inner: Mutex<Inner>,
}

#[derive(Debug)]
struct Node {
    parent: u64,
    finished: bool,
}

#[derive(Debug)]
struct Group {
    /// Persistent group id for WAL records (assigned by the first `link`
    /// that leaves this group without one).
    id: Option<u64>,
    members: Vec<u64>,
    /// Members that have not finished yet; the group retires at zero.
    unfinished: usize,
}

#[derive(Debug, Default)]
struct Inner {
    /// One node per linked transaction of a not-yet-retired group.
    nodes: HashMap<u64, Node>,
    /// Root transaction → its group.
    groups: HashMap<u64, Group>,
    next_group: u64,
}

/// The union-find invariant every `expect` below leans on.
const ROOT_OWNS_GROUP: &str = "every union-find root has a node and owns a group";

impl Inner {
    /// The root of `x`'s group, or `None` if `x` was never linked (or its
    /// group retired). Iterative with path halving; never inserts.
    fn find(&mut self, mut x: u64) -> Option<u64> {
        let mut p = self.nodes.get(&x)?.parent;
        while p != x {
            let gp = self.nodes.get(&p)?.parent;
            self.nodes.get_mut(&x)?.parent = gp;
            x = p;
            p = gp;
        }
        Some(x)
    }

    /// The root of `x`'s group, starting a singleton group for a
    /// transaction linked for the first time.
    fn find_or_insert(&mut self, x: u64) -> u64 {
        if let Some(root) = self.find(x) {
            return root;
        }
        self.nodes.insert(
            x,
            Node {
                parent: x,
                finished: false,
            },
        );
        self.groups.insert(
            x,
            Group {
                id: None,
                members: vec![x],
                unfinished: 1,
            },
        );
        x
    }

    /// Merge the groups of `a` and `b`, smaller into larger; the merged
    /// group keeps the survivor's id if it has one, else the absorbed one.
    fn union(&mut self, a: u64, b: u64) {
        let (ra, rb) = (self.find_or_insert(a), self.find_or_insert(b));
        if ra == rb {
            return;
        }
        let size = |r: &u64| self.groups[r].members.len();
        let (small, big) = if size(&ra) < size(&rb) {
            (ra, rb)
        } else {
            (rb, ra)
        };
        let absorbed = self.groups.remove(&small).expect(ROOT_OWNS_GROUP);
        self.nodes.get_mut(&small).expect(ROOT_OWNS_GROUP).parent = big;
        let g = self.groups.get_mut(&big).expect(ROOT_OWNS_GROUP);
        g.id = g.id.or(absorbed.id);
        g.members.extend(absorbed.members);
        g.unfinished += absorbed.unfinished;
    }

    fn group_of(&mut self, tx: u64) -> Option<&Group> {
        let root = self.find(tx)?;
        self.groups.get(&root)
    }
}

impl GroupManager {
    pub fn new() -> GroupManager {
        GroupManager::default()
    }

    /// Record that `txs` entangled together (one entanglement operation).
    /// Returns the stable group id for WAL logging.
    pub fn link(&self, txs: &[u64]) -> u64 {
        let mut g = self.inner.lock();
        for w in txs.windows(2) {
            g.union(w[0], w[1]);
        }
        let root = g.find_or_insert(txs[0]);
        if let Some(id) = g.groups.get(&root).and_then(|group| group.id) {
            return id;
        }
        g.next_group += 1;
        let id = g.next_group;
        g.groups.get_mut(&root).expect(ROOT_OWNS_GROUP).id = Some(id);
        id
    }

    /// Every transaction in the same group as `tx` (including itself),
    /// or just `{tx}` if it never entangled.
    pub fn members(&self, tx: u64) -> HashSet<u64> {
        match self.inner.lock().group_of(tx) {
            Some(group) => group.members.iter().copied().collect(),
            None => HashSet::from([tx]),
        }
    }

    /// Did `tx` entangle with anyone else?
    pub fn is_grouped(&self, tx: u64) -> bool {
        self.inner
            .lock()
            .group_of(tx)
            .is_some_and(|g| g.members.len() > 1)
    }

    /// The WAL group id of `tx`'s group, if it has one.
    pub fn group_id(&self, tx: u64) -> Option<u64> {
        self.inner.lock().group_of(tx).and_then(|g| g.id)
    }

    /// `tx` committed or aborted. Its group's entries are dropped once
    /// every member has finished; until then `tx` stays visible to its
    /// partners' [`members`](GroupManager::members). Idempotent, and a
    /// no-op for a transaction that never entangled.
    pub fn finish(&self, tx: u64) {
        let mut g = self.inner.lock();
        match g.nodes.get_mut(&tx) {
            Some(node) if !node.finished => node.finished = true,
            _ => return,
        }
        let root = g.find(tx).expect(ROOT_OWNS_GROUP);
        let group = g.groups.get_mut(&root).expect(ROOT_OWNS_GROUP);
        group.unfinished -= 1;
        if group.unfinished == 0 {
            let group = g.groups.remove(&root).expect(ROOT_OWNS_GROUP);
            for m in group.members {
                g.nodes.remove(&m);
            }
        }
    }

    /// Number of transactions currently tracked: zero whenever no
    /// entangled transaction is in flight.
    pub fn tracked(&self) -> usize {
        self.inner.lock().nodes.len()
    }

    /// Forget everything (between runs the engine keeps groups only for
    /// transactions still in flight; completed groups are dropped).
    pub fn clear(&self) {
        let mut g = self.inner.lock();
        g.nodes.clear();
        g.groups.clear();
    }
}

/// The engine's deadlock victim policy, backed by its entanglement
/// groups: a candidate's **abort unit** is its whole group (the paper's
/// commit-together requirement is also an abort-together requirement),
/// and a unit is **immune** while any member sits inside the commit
/// pipeline (the engine's `preparing` set) — a group with a prepared
/// partner must not be half-aborted by victim conviction, so the
/// detector skips it and, if every cycle member is immune, leaves the
/// cycle to the timeout backstop.
pub struct GroupVictimPolicy {
    groups: Arc<GroupManager>,
    preparing: Arc<Mutex<HashSet<u64>>>,
}

impl GroupVictimPolicy {
    pub fn new(
        groups: Arc<GroupManager>,
        preparing: Arc<Mutex<HashSet<u64>>>,
    ) -> GroupVictimPolicy {
        GroupVictimPolicy { groups, preparing }
    }
}

impl VictimPolicy for GroupVictimPolicy {
    fn immune(&self, tx: TxId) -> bool {
        let prep = self.preparing.lock();
        if prep.is_empty() {
            return false;
        }
        if prep.contains(&tx.0) {
            return true;
        }
        self.groups.members(tx.0).iter().any(|m| prep.contains(m))
    }

    fn abort_unit(&self, tx: TxId) -> Vec<TxId> {
        let mut unit: Vec<u64> = self.groups.members(tx.0).into_iter().collect();
        unit.sort_unstable();
        unit.into_iter().map(TxId).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn link_and_members() {
        let gm = GroupManager::new();
        gm.link(&[1, 2]);
        assert_eq!(gm.members(1), HashSet::from([1, 2]));
        assert_eq!(gm.members(2), HashSet::from([1, 2]));
        assert_eq!(gm.members(3), HashSet::from([3]));
        assert!(gm.is_grouped(1));
        assert!(!gm.is_grouped(3));
    }

    #[test]
    fn transitive_groups_merge() {
        // The paper: groups chain through shared members.
        let gm = GroupManager::new();
        let id1 = gm.link(&[1, 2]);
        let id2 = gm.link(&[2, 3]);
        assert_eq!(gm.members(1), HashSet::from([1, 2, 3]));
        // The merged group keeps a single stable id.
        assert_eq!(gm.group_id(1), gm.group_id(3));
        let _ = (id1, id2);
    }

    #[test]
    fn multiway_link() {
        let gm = GroupManager::new();
        gm.link(&[5, 6, 7]);
        assert_eq!(gm.members(6).len(), 3);
    }

    #[test]
    fn group_ids_stable_per_group() {
        let gm = GroupManager::new();
        let a = gm.link(&[1, 2]);
        let b = gm.link(&[1, 2]);
        assert_eq!(a, b, "re-linking the same group keeps its id");
        let c = gm.link(&[8, 9]);
        assert_ne!(a, c);
    }

    #[test]
    fn clear_forgets() {
        let gm = GroupManager::new();
        gm.link(&[1, 2]);
        gm.clear();
        assert!(!gm.is_grouped(1));
    }

    #[test]
    fn classical_queries_leave_no_entry() {
        let gm = GroupManager::new();
        for tx in 0..100 {
            assert!(!gm.is_grouped(tx));
            assert_eq!(gm.members(tx), HashSet::from([tx]));
            assert_eq!(gm.group_id(tx), None);
            gm.finish(tx);
        }
        assert_eq!(gm.tracked(), 0);
    }

    #[test]
    fn group_retires_only_when_every_member_finished() {
        let gm = GroupManager::new();
        gm.link(&[1, 2]);
        // An aborted member stays visible until its partner settles: a
        // ready partner that looked ungrouped would commit alone.
        gm.finish(1);
        assert_eq!(gm.members(2), HashSet::from([1, 2]));
        assert!(gm.is_grouped(2));
        assert!(gm.group_id(1).is_some());
        // Finishing twice must not count the member twice.
        gm.finish(1);
        assert_eq!(gm.tracked(), 2);
        gm.finish(2);
        assert_eq!(gm.tracked(), 0);
        assert!(!gm.is_grouped(1));
        assert_eq!(gm.group_id(2), None);
        gm.finish(2);
        assert_eq!(gm.tracked(), 0);
    }

    #[test]
    fn merged_groups_retire_as_one() {
        let gm = GroupManager::new();
        let id = gm.link(&[1, 2]);
        assert_eq!(gm.link(&[2, 3]), id, "a merged group keeps one id");
        gm.link(&[8, 9]);
        gm.finish(1);
        gm.finish(3);
        assert_eq!(gm.members(2), HashSet::from([1, 2, 3]));
        gm.finish(2);
        assert_eq!(gm.tracked(), 2, "only the other group is left");
        assert_eq!(gm.members(8), HashSet::from([8, 9]));
    }

    #[test]
    fn long_link_chain_does_not_recurse() {
        let gm = GroupManager::new();
        const N: u64 = 10_000;
        // Linking towards the fresh member would build an N-deep parent
        // chain under a naive union; union by size keeps it flat, and
        // `find` is iterative either way.
        for tx in (0..N).rev() {
            gm.link(&[tx + 1, tx]);
        }
        assert_eq!(gm.members(0).len(), N as usize + 1);
        assert_eq!(gm.group_id(0), gm.group_id(N));
        for tx in 0..=N {
            gm.finish(tx);
        }
        assert_eq!(gm.tracked(), 0);
    }

    #[test]
    fn victim_policy_units_and_immunity() {
        let gm = Arc::new(GroupManager::new());
        let preparing: Arc<Mutex<HashSet<u64>>> = Arc::default();
        let policy = GroupVictimPolicy::new(gm.clone(), preparing.clone());
        gm.link(&[4, 5]);
        assert_eq!(policy.abort_unit(TxId(4)), vec![TxId(4), TxId(5)]);
        assert_eq!(policy.abort_unit(TxId(9)), vec![TxId(9)]);
        assert!(!policy.immune(TxId(4)));
        // A partner enters the commit pipeline: the whole group is
        // immune, strangers are not.
        preparing.lock().insert(5);
        assert!(policy.immune(TxId(4)));
        assert!(policy.immune(TxId(5)));
        assert!(!policy.immune(TxId(9)));
        preparing.lock().remove(&5);
        assert!(!policy.immune(TxId(4)));
    }
}
