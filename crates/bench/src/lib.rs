//! Experiment drivers for the paper's evaluation (§5.2): Figure 6(a)–(c)
//! and the Ab1–Ab4 ablations of DESIGN.md, used by both the Criterion
//! benches and the `repro` binary. All four are instances of one
//! experiment shape — engine config, scheduler config, programs, stop
//! condition — executed by one private runner.
//!
//! Absolute numbers will not match the paper's 2011 testbed (MySQL on a
//! Core i7); the drivers are built so the *shapes* match. What the engine
//! itself costs, without a sleep-based [`CostModel`], is measured by the
//! repo benchmark under `benchmark/`.

use entangled_txn::{
    CostModel, EngineConfig, IsolationMode, LockGranularity, Program, RunTrigger, Scheduler,
    SchedulerConfig,
};
use std::time::{Duration, Instant};
use youtopia_entangle::SolverConfig;
use youtopia_workload::{
    engine_config, generate, generate_structured, pending_plan, Family, SocialGraph, Structure,
    TravelData, TravelParams, WorkloadMode,
};

/// Experiment scale, trading fidelity for wall-clock time.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Transactions per Figure 6(a)/(b) data point (paper: 10 000).
    pub txns: usize,
    pub users: usize,
    pub cities: usize,
    pub flights: usize,
    /// Simulated per-statement connection/IO latency.
    pub cost: CostModel,
    pub seed: u64,
}

impl Scale {
    /// Quick scale for CI / `cargo bench` (seconds per point). The cost
    /// model approximates per-statement connection/IO latency; it must
    /// dominate scheduling overhead for the Figure 6(a) inverse-scaling
    /// shape to emerge, as it did on the paper's MySQL setup.
    pub fn quick() -> Scale {
        Scale {
            txns: 600,
            users: 300,
            cities: 8,
            flights: 300,
            cost: CostModel {
                per_statement: Duration::from_micros(500),
                per_entangled_eval: Duration::from_micros(500),
                per_commit: Duration::from_millis(1),
            },
            seed: 11,
        }
    }

    /// Fuller scale for the `repro --full` run.
    pub fn full() -> Scale {
        Scale {
            txns: 3_000,
            ..Scale::quick()
        }
    }

    pub fn data(&self) -> TravelData {
        let params = TravelParams {
            users: self.users,
            cities: self.cities,
            flights: self.flights,
            seed: self.seed,
        };
        let mut d = TravelData::generate(params, SocialGraph::slashdot_like(self.users, self.seed));
        d.align_pair_hometowns(self.seed);
        d
    }
}

/// One measured point.
#[derive(Debug, Clone)]
pub struct Point {
    pub label: String,
    pub x: f64,
    pub seconds: f64,
    pub committed: usize,
    pub failed: usize,
}

/// Everything that distinguishes one experiment run from another.
struct Experiment {
    label: String,
    x: f64,
    config: EngineConfig,
    scheduler: SchedulerConfig,
    /// Submitted in order; the scheduler's trigger decides when runs start.
    programs: Vec<Program>,
    /// Stop once this many transactions have committed (the rest of the
    /// pool is pending by design); `None` drains the pool.
    until_committed: Option<usize>,
}

/// The one runner: build an engine over `data`, submit every program,
/// finish as the experiment asks, and time submit-to-finish.
fn run(data: &TravelData, exp: Experiment) -> Point {
    let engine = data.build_engine(exp.config);
    let mut sched = Scheduler::new(engine, exp.scheduler);
    let start = Instant::now();
    for p in exp.programs {
        sched.submit(p);
    }
    let stats = match exp.until_committed {
        None => sched.drain(),
        Some(target) => {
            // Finish whatever the arrival trigger has not flushed; the
            // run cap only guards against a workload that cannot finish.
            let mut runs = 0;
            while sched.stats().committed < target && runs < target * 4 + 16 {
                sched.run_once();
                runs += 1;
            }
            sched.stats().clone()
        }
    };
    Point {
        label: exp.label,
        x: exp.x,
        seconds: start.elapsed().as_secs_f64(),
        committed: stats.committed,
        failed: stats.failed,
    }
}

/// Scheduler whose runs start every `f` arrivals and whose transactions
/// retry until their own deadline (Figure 6(b)/(c)).
fn arrival_scheduler(connections: usize, f: usize) -> SchedulerConfig {
    SchedulerConfig {
        connections,
        trigger: RunTrigger::Arrivals(f.max(1)),
        max_attempts: u32::MAX,
        ..SchedulerConfig::default()
    }
}

/// Figure 6(a): execute `scale.txns` transactions of one workload at a
/// given connection count; returns elapsed seconds.
pub fn run_fig6a(scale: &Scale, family: Family, mode: WorkloadMode, connections: usize) -> Point {
    let data = scale.data();
    let suffix = match mode {
        WorkloadMode::Transactional => "T",
        WorkloadMode::QueryOnly => "Q",
    };
    let exp = Experiment {
        label: format!("{}-{}", family.label(), suffix),
        x: connections as f64,
        config: engine_config(mode, scale.cost, false),
        scheduler: SchedulerConfig {
            connections,
            ..SchedulerConfig::default()
        },
        programs: generate(family, &data, scale.txns, scale.seed),
        until_committed: None,
    };
    run(&data, exp)
}

/// Figure 6(b): `p` permanently-pending transactions cycle through every
/// run while paired transactions arrive `f` per run; measures the time for
/// all paired transactions to commit.
pub fn run_fig6b(scale: &Scale, p: usize, f: usize, connections: usize) -> Point {
    let data = scale.data();
    let plan = pending_plan(&data, scale.txns, p, scale.seed);
    let paired = plan.paired.len();
    let exp = Experiment {
        label: format!("f={f}"),
        x: p as f64,
        config: engine_config(WorkloadMode::Transactional, scale.cost, false),
        scheduler: arrival_scheduler(connections, f),
        programs: plan.pending.into_iter().chain(plan.paired).collect(),
        until_committed: Some(paired),
    };
    run(&data, exp)
}

/// Figure 6(c): coordination groups of size `k` with the given structure;
/// arrivals trigger runs every `f` submissions.
pub fn run_fig6c(
    scale: &Scale,
    structure: Structure,
    k: usize,
    groups: usize,
    f: usize,
    connections: usize,
) -> Point {
    let data = scale.data();
    let programs = generate_structured(structure, &data, groups, k, Duration::from_secs(120));
    let total = programs.len();
    let exp = Experiment {
        label: format!("{}, f={f}", structure.label()),
        x: k as f64,
        config: engine_config(WorkloadMode::Transactional, scale.cost, false),
        scheduler: arrival_scheduler(connections, f),
        programs,
        until_committed: Some(total),
    };
    run(&data, exp)
}

/// Ablation configurations (DESIGN.md Ab2–Ab4; Ab1 is the run trigger,
/// which [`run_fig6b`]'s `f` already sweeps).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ablation {
    GroupCommitOff,
    SolverGeneralOnly,
    TableGranularity,
}

/// Run a workload family under an ablated engine configuration.
///
/// Note: `TableGranularity` + `Family::Entangled` livelocks by design —
/// partners insert into the same `Reserve` table, and a table-X lock held
/// to a group commit that cannot happen without the partner is a structural
/// standoff (the negative result in DESIGN.md "Ablations"). Measure that
/// ablation on `NoSocial`/`Social`.
pub fn run_ablated(
    scale: &Scale,
    ablation: Option<Ablation>,
    family: Family,
    connections: usize,
) -> Point {
    let data = scale.data();
    let mut config = engine_config(WorkloadMode::Transactional, scale.cost, false);
    let label = match ablation {
        None => "baseline",
        Some(Ablation::GroupCommitOff) => {
            config.isolation = IsolationMode::AllowWidows;
            "group-commit-off"
        }
        Some(Ablation::SolverGeneralOnly) => {
            config.solver = SolverConfig {
                pairwise_fast_path: false,
                ..SolverConfig::default()
            };
            "solver-general"
        }
        Some(Ablation::TableGranularity) => {
            config.granularity = LockGranularity::Table;
            "table-locks"
        }
    };
    let exp = Experiment {
        label: label.into(),
        x: connections as f64,
        config,
        // Few retries: ablated configurations that livelock should fail
        // fast rather than grind through the default retry budget.
        scheduler: SchedulerConfig {
            connections,
            max_attempts: 8,
            ..SchedulerConfig::default()
        },
        programs: generate(family, &data, scale.txns, scale.seed),
        until_committed: None,
    };
    run(&data, exp)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Scale {
        Scale {
            txns: 24,
            users: 60,
            cities: 4,
            flights: 80,
            cost: CostModel::ZERO,
            seed: 4,
        }
    }

    #[test]
    fn fig6a_driver_completes_all_families() {
        let s = tiny();
        for family in Family::ALL {
            for mode in [WorkloadMode::Transactional, WorkloadMode::QueryOnly] {
                let p = run_fig6a(&s, family, mode, 4);
                assert!(p.committed >= 20, "{} {:?}: {p:?}", family.label(), mode);
                assert_eq!(p.committed + p.failed, 24, "drain settles everyone");
            }
        }
    }

    #[test]
    fn fig6b_driver_commits_paired_only() {
        let s = tiny();
        let p = run_fig6b(&s, 3, 5, 2);
        assert_eq!(p.committed, 24, "{p:?}");
    }

    #[test]
    fn fig6c_driver_handles_both_structures() {
        let s = tiny();
        for structure in [Structure::SpokeHub, Structure::Cyclic] {
            let p = run_fig6c(&s, structure, 3, 4, 3, 2);
            assert_eq!(p.committed, 12, "{}: {p:?}", structure.label());
        }
    }

    #[test]
    fn ablations_complete() {
        let s = tiny();
        for ab in [
            None,
            Some(Ablation::GroupCommitOff),
            Some(Ablation::SolverGeneralOnly),
        ] {
            let p = run_ablated(&s, ab, Family::Entangled, 2);
            assert!(p.committed >= 20, "{ab:?}: {p:?}");
        }
        // Table granularity: measured on NoSocial (no partner coupling).
        let p = run_ablated(&s, Some(Ablation::TableGranularity), Family::NoSocial, 2);
        assert!(p.committed >= 20, "table granularity: {p:?}");
    }

    #[test]
    fn table_granularity_livelocks_entangled_pairs() {
        // The structural standoff documented in DESIGN.md "Ablations":
        // partners cannot group-commit while one holds a table-X lock the
        // other needs. All pairs time out.
        let mut s = tiny();
        s.txns = 4;
        let p = run_ablated(&s, Some(Ablation::TableGranularity), Family::Entangled, 2);
        assert_eq!(p.committed, 0, "{p:?}");
    }
}
