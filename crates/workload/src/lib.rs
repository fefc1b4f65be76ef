//! # youtopia-workload
//!
//! Workload generation for the evaluation of *Entangled Transactions*
//! (§5.2): the synthetic [`social`] graph standing in for the Slashdot
//! dataset, the Appendix D [`travel`] schema and data, the six
//! Figure 6(a) workloads of [`fig6a`] (`NoSocial`/`Social`/`Entangled` ×
//! `-T`/`-Q`), and in [`fig6bc`] the pending-transaction plans of
//! Figure 6(b) and the spoke-hub / cyclic coordination structures of
//! Figure 6(c).
//!
//! Everything is seeded and deterministic, so bench results replay.

pub mod fig6a;
pub mod fig6bc;
pub mod social;
pub mod travel;

pub use fig6a::{entangled_program, generate, nosocial_program, social_program, Family};
pub use fig6bc::{
    cyclic_group, generate_structured, partnerless_program, pending_plan, spoke_hub_group,
    PendingPlan, Structure,
};
pub use social::SocialGraph;
pub use travel::{city, engine_config, scheduler_for, TravelData, TravelParams, WorkloadMode};
