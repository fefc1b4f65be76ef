//! The travel scenario of Appendix D: schema, deterministic data
//! generation, and the engine/scheduler configurations for the
//! transactional (`-T`) and non-transactional (`-Q`) workload variants of
//! §5.2.2.

use crate::social::SocialGraph;
use entangled_txn::{
    CostModel, EmptyAnswerPolicy, Engine, EngineConfig, IsolationMode, Scheduler, SchedulerConfig,
};
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Duration;

/// City codes used as hometowns and destinations (three-letter strings
/// like the paper's 'FAT', 'CAT', 'PHF').
pub fn city(i: usize) -> String {
    let a = (b'A' + (i / 26 / 26 % 26) as u8) as char;
    let b = (b'A' + (i / 26 % 26) as u8) as char;
    let c = (b'A' + (i % 26) as u8) as char;
    format!("{a}{b}{c}")
}

/// Travel-scenario parameters.
#[derive(Debug, Clone, Copy)]
pub struct TravelParams {
    pub users: usize,
    pub cities: usize,
    /// Flights generated per ordered city pair that is connected.
    pub flights: usize,
    pub seed: u64,
}

impl Default for TravelParams {
    fn default() -> Self {
        TravelParams {
            users: 400,
            cities: 12,
            flights: 400,
            seed: 1,
        }
    }
}

/// The generated travel database, carried as a setup script plus the
/// deterministic assignments the workload generators need.
#[derive(Debug, Clone)]
pub struct TravelData {
    pub params: TravelParams,
    /// hometown city index per user.
    pub hometown: Vec<usize>,
    /// (source city, destination city, fid) triples.
    pub flights: Vec<(usize, usize, i64)>,
    pub graph: SocialGraph,
}

impl TravelData {
    /// Generate users (hometowns), a flight network and friendships.
    pub fn generate(params: TravelParams, graph: SocialGraph) -> TravelData {
        assert_eq!(
            graph.len(),
            params.users,
            "graph size must match user count"
        );
        let mut rng = StdRng::seed_from_u64(params.seed);
        let hometown: Vec<usize> = (0..params.users)
            .map(|_| rng.gen_range(0..params.cities))
            .collect();
        let mut flights = Vec::with_capacity(params.flights);
        for fid in 0..params.flights {
            let s = rng.gen_range(0..params.cities);
            let mut d = rng.gen_range(0..params.cities);
            if d == s {
                d = (d + 1) % params.cities;
            }
            flights.push((s, d, fid as i64));
        }
        TravelData {
            params,
            hometown,
            flights,
            graph,
        }
    }

    /// Appendix D schema + data as a setup script.
    pub fn setup_script(&self) -> String {
        let mut out = String::with_capacity(1 << 16);
        out.push_str(
            "CREATE TABLE User (uid INT, hometown TEXT);\
             CREATE TABLE Friends (uid1 INT, uid2 INT);\
             CREATE TABLE Flight (source TEXT, destination TEXT, fid INT);\
             CREATE TABLE Reserve (uid INT, fid INT);\
             CREATE INDEX user_uid ON User (uid);\
             CREATE INDEX friends_uid1 ON Friends (uid1);\
             CREATE INDEX friends_pair ON Friends (uid1, uid2);\
             CREATE INDEX flight_source ON Flight (source);",
        );
        for (uid, h) in self.hometown.iter().enumerate() {
            out.push_str(&format!("INSERT INTO User VALUES ({uid}, '{}');", city(*h)));
        }
        for u in 0..self.graph.len() as u32 {
            for &v in self.graph.friends(u) {
                // Directed representation of the friendship relation.
                out.push_str(&format!("INSERT INTO Friends VALUES ({u}, {v});"));
            }
        }
        for (s, d, fid) in &self.flights {
            out.push_str(&format!(
                "INSERT INTO Flight VALUES ('{}', '{}', {fid});",
                city(*s),
                city(*d)
            ));
        }
        out
    }

    /// A destination reachable from `uid`'s hometown (deterministic pick),
    /// or an arbitrary city when the hometown has no outbound flights.
    pub fn reachable_destination(&self, uid: usize, rng: &mut StdRng) -> usize {
        let home = self.hometown[uid];
        let outs: Vec<usize> = self
            .flights
            .iter()
            .filter(|(s, _, _)| *s == home)
            .map(|(_, d, _)| *d)
            .collect();
        if outs.is_empty() {
            (home + 1) % self.params.cities
        } else {
            outs[rng.gen_range(0..outs.len())]
        }
    }

    /// A destination reachable from BOTH users' hometowns (for
    /// coordinating pairs); falls back to `reachable_destination`.
    pub fn common_destination(&self, a: usize, b: usize, rng: &mut StdRng) -> usize {
        let (ha, hb) = (self.hometown[a], self.hometown[b]);
        let outs_a: std::collections::HashSet<usize> = self
            .flights
            .iter()
            .filter(|(s, _, _)| *s == ha)
            .map(|(_, d, _)| *d)
            .collect();
        let common: Vec<usize> = self
            .flights
            .iter()
            .filter(|(s, d, _)| *s == hb && outs_a.contains(d))
            .map(|(_, d, _)| *d)
            .collect();
        if common.is_empty() {
            self.reachable_destination(a, rng)
        } else {
            common[rng.gen_range(0..common.len())]
        }
    }

    /// Build and populate an engine with this data.
    pub fn build_engine(&self, config: EngineConfig) -> Arc<Engine> {
        let engine = Arc::new(Engine::new(config));
        engine
            .setup(&self.setup_script())
            .expect("valid setup script");
        engine
    }
}

/// Transactional (`-T`) vs bare-query (`-Q`) execution, §5.2.2: the `-Q`
/// variants run "the same code without enclosing it within a transaction
/// block" — modelled as no commit cost, no group commit and immediate read
/// lock release.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadMode {
    Transactional,
    QueryOnly,
}

/// Engine configuration for a workload mode with a given cost model.
pub fn engine_config(mode: WorkloadMode, cost: CostModel, record: bool) -> EngineConfig {
    let mut cfg = EngineConfig {
        cost,
        record_history: record,
        empty_answer: EmptyAnswerPolicy::Proceed,
        ..EngineConfig::default()
    };
    if mode == WorkloadMode::QueryOnly {
        cfg.isolation = IsolationMode::EarlyReadLockRelease;
        cfg.cost.per_commit = Duration::ZERO;
    }
    cfg
}

/// Scheduler for `connections` concurrent connections (manual runs).
pub fn scheduler_for(engine: Arc<Engine>, connections: usize) -> Scheduler {
    Scheduler::new(
        engine,
        SchedulerConfig {
            connections,
            ..SchedulerConfig::default()
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data() -> TravelData {
        let params = TravelParams {
            users: 60,
            cities: 6,
            flights: 80,
            seed: 2,
        };
        TravelData::generate(params, SocialGraph::slashdot_like(60, 2))
    }

    #[test]
    fn city_codes() {
        assert_eq!(city(0), "AAA");
        assert_eq!(city(1), "AAB");
        assert_eq!(city(26), "ABA");
        assert_ne!(city(5), city(6));
    }

    #[test]
    fn generation_is_deterministic() {
        let a = data();
        let b = data();
        assert_eq!(a.hometown, b.hometown);
        assert_eq!(a.flights, b.flights);
    }

    #[test]
    fn setup_script_builds_engine() {
        let d = data();
        let engine = d.build_engine(EngineConfig::default());
        engine.with_db(|db| {
            assert_eq!(db.table("User").unwrap().len(), 60);
            assert_eq!(db.table("Flight").unwrap().len(), 80);
            assert!(db.table("Friends").unwrap().len() > 100);
            assert_eq!(db.table("Reserve").unwrap().len(), 0);
        });
    }

    #[test]
    fn workload_indexes_survive_crash_recovery() {
        let engine = data().build_engine(EngineConfig::default());
        let indexes = |engine: &Engine| {
            engine.with_db(|db| {
                let mut names: Vec<String> = ["User", "Friends", "Flight", "Reserve"]
                    .iter()
                    .flat_map(|t| db.table(t).unwrap().named_indexes().iter())
                    .map(|ix| format!("{}({})", ix.name(), ix.column_names().join(",")))
                    .collect();
                names.sort();
                names
            })
        };
        let declared = vec![
            "flight_source(source)",
            "friends_pair(uid1,uid2)",
            "friends_uid1(uid1)",
            "user_uid(uid)",
        ];
        assert_eq!(indexes(&engine), declared);
        engine.crash_and_recover().unwrap();
        assert_eq!(indexes(&engine), declared, "declared indexes are logged");
        // …and rebuilt from the recovered heap, not merely re-declared.
        engine.with_db(|db| {
            let flight = db.table("Flight").unwrap();
            let ix = flight.named_indexes().get("flight_source").unwrap();
            let posted: usize = ix.entries().iter().map(|(_, ids)| ids.len()).sum();
            assert_eq!(posted, flight.len());
        });
    }

    #[test]
    fn destinations_are_reachable() {
        let d = data();
        let mut rng = StdRng::seed_from_u64(3);
        for uid in 0..20 {
            let dest = d.reachable_destination(uid, &mut rng);
            assert!(dest < d.params.cities);
        }
        let dest = d.common_destination(0, 1, &mut rng);
        assert!(dest < d.params.cities);
    }

    #[test]
    fn query_only_mode_strips_transaction_overhead() {
        let cost = CostModel {
            per_commit: Duration::from_millis(5),
            ..CostModel::ZERO
        };
        let t = engine_config(WorkloadMode::Transactional, cost, false);
        let q = engine_config(WorkloadMode::QueryOnly, cost, false);
        assert_eq!(t.cost.per_commit, Duration::from_millis(5));
        assert_eq!(q.cost.per_commit, Duration::ZERO);
        assert_eq!(q.isolation, IsolationMode::EarlyReadLockRelease);
    }
}
