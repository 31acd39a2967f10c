//! # mps-sched — two-step mixed-parallel schedulers
//!
//! The scheduling algorithms of the paper's case study: **CPA** (the base
//! algorithm), **HCPA** and **MCPA** (the two extensions the paper
//! compares). All follow the two-phase decomposition of §II-A: an
//! *allocation* phase chooses how many processors each moldable task gets,
//! and a *mapping* phase places tasks on concrete processors by
//! bottom-level list scheduling.
//!
//! ```
//! use mps_dag::gen::{paper_corpus, PAPER_CORPUS_SEED};
//! use mps_model::AnalyticModel;
//! use mps_platform::Cluster;
//! use mps_sched::{Hcpa, Mcpa, Scheduler};
//!
//! let g = &paper_corpus(PAPER_CORPUS_SEED)[0];
//! let cluster = Cluster::bayreuth();
//! let model = AnalyticModel::paper_jvm();
//! let schedule = Hcpa.schedule(&g.dag, &cluster, &model);
//! schedule.validate(&g.dag, &cluster).unwrap();
//! assert_eq!(schedule.tasks.len(), 10);
//! ```

#![warn(missing_docs)]

pub mod algorithms;
pub mod allocation;
pub mod mapping;
pub mod schedule;

pub use algorithms::{paper_algorithms, Cpa, Hcpa, Mcpa, Scheduler};
pub use allocation::{
    allocate, AllocKey, AllocationConfig, AllocationEngine, LevelBudget, SelectionRule, StopRule,
    TauTable,
};
pub use mapping::{default_redist_estimate, map_tasks, MappingCosts};
pub use schedule::{Schedule, ScheduleError, ScheduledTask};

#[cfg(test)]
mod proptests {
    use super::*;
    use mps_dag::{generate, DagGenParams};
    use mps_model::AnalyticModel;
    use mps_platform::Cluster;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Every algorithm yields a valid schedule for arbitrary generated
        /// DAGs, and allocations stay within the cluster.
        #[test]
        fn schedules_are_always_valid(
            tasks in 1usize..16,
            width_exp in 1u32..4,
            ratio in 0.0f64..1.0,
            seed in 0u64..5000,
        ) {
            let params = DagGenParams {
                tasks,
                input_matrices: 2usize.pow(width_exp),
                add_ratio: ratio,
                matrix_size: 2000,
            };
            let dag = generate(&params, seed);
            let cluster = Cluster::bayreuth();
            let model = AnalyticModel::paper_jvm();
            for algo in [&Cpa as &dyn Scheduler, &Hcpa, &Mcpa] {
                let s = algo.schedule(&dag, &cluster, &model);
                prop_assert!(s.validate(&dag, &cluster).is_ok());
                for st in &s.tasks {
                    prop_assert!(st.p() >= 1 && st.p() <= cluster.node_count());
                }
                prop_assert!(s.est_makespan.is_finite());
            }
        }
    }
}
