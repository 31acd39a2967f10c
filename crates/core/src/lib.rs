//! # mps-core — facade over the `mps` workspace
//!
//! One crate to depend on: re-exports every subsystem of the reproduction
//! of *"From Simulation to Experiment: A Case Study on Multiprocessor Task
//! Scheduling"* (Hunold, Casanova, Suter, APDCM 2011).
//!
//! | module | contents |
//! |---|---|
//! | [`des`] | discrete-event kernel + max-min fair-share solver |
//! | [`platform`] | cluster platform model (hosts, links, routes) |
//! | [`l07`] | SimGrid-like `Ptask_L07` parallel-task simulation |
//! | [`dag`] | mixed-parallel DAGs + the Table I random generator |
//! | [`kernels`] | 1-D matrix kernels, cost models, redistribution plans |
//! | [`sched`] | CPA / HCPA / MCPA two-phase schedulers |
//! | [`model`] | analytic / profile / empirical performance models |
//! | [`sim`] | the three simulator versions + schedule executor |
//! | [`faults`] | seeded fault-injection plans and the fault model hook |
//! | [`journal`] | write-ahead result journal for crash-safe, resumable campaigns |
//! | [`serve`] | scheduling-as-a-service daemon: wire protocol, admission control, drain |
//! | [`online`] | streaming arrival-process workloads: admission, moldable allocation, million-event horizons |
//! | [`testbed`] | the emulated execution environment (ground truth) |
//! | [`regress`] | least-squares fitting (Table II machinery) |
//! | [`stats`] | statistics, box plots, figure-data helpers |
//!
//! ## Quickstart
//!
//! ```
//! use mps_core::prelude::*;
//!
//! // A DAG from the paper's corpus, scheduled by HCPA under the analytic
//! // model, simulated, then "run" on the emulated testbed:
//! let g = &paper_corpus(PAPER_CORPUS_SEED)[0];
//! let testbed = Testbed::bayreuth(42);
//! let sim = Simulator::new(testbed.nominal_cluster(), AnalyticModel::paper_jvm());
//! let out = sim.schedule_and_simulate(&g.dag, &Hcpa).unwrap();
//! let real = testbed.execute(&g.dag, &out.schedule, 0).unwrap();
//! // The analytic simulator underestimates reality:
//! assert!(real.makespan > out.result.makespan);
//! ```

#![warn(missing_docs)]

pub use mps_dag as dag;
pub use mps_des as des;
pub use mps_faults as faults;
pub use mps_journal as journal;
pub use mps_kernels as kernels;
pub use mps_l07 as l07;
pub use mps_model as model;
pub use mps_online as online;
pub use mps_platform as platform;
pub use mps_regress as regress;
pub use mps_sched as sched;
pub use mps_serve as serve;
pub use mps_sim as sim;
pub use mps_stats as stats;
pub use mps_testbed as testbed;

/// One error type covering every layer of the stack, for applications
/// that drive the whole pipeline and want a single `?`-able error.
#[derive(Debug, Clone, PartialEq)]
pub enum MpsError {
    /// Discrete-event engine failure (including watchdog timeouts).
    Engine(mps_des::EngineError),
    /// Max-min fair solver failure.
    Solver(mps_des::SolverError),
    /// L07 parallel-task simulation failure.
    L07(mps_l07::L07Error),
    /// Schedule execution failure (stall, timeout, exhausted retries).
    Exec(mps_sim::ExecError),
    /// Malformed fault-plan description.
    FaultPlan(mps_faults::PlanParseError),
    /// Campaign journal failure (I/O, corruption, header mismatch).
    Journal(mps_journal::JournalError),
}

impl std::fmt::Display for MpsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MpsError::Engine(e) => write!(f, "engine: {e}"),
            MpsError::Solver(e) => write!(f, "solver: {e}"),
            MpsError::L07(e) => write!(f, "l07: {e}"),
            MpsError::Exec(e) => write!(f, "exec: {e}"),
            MpsError::FaultPlan(e) => write!(f, "fault plan: {e}"),
            MpsError::Journal(e) => write!(f, "journal: {e}"),
        }
    }
}

impl std::error::Error for MpsError {}

impl From<mps_des::EngineError> for MpsError {
    fn from(e: mps_des::EngineError) -> Self {
        MpsError::Engine(e)
    }
}

impl From<mps_des::SolverError> for MpsError {
    fn from(e: mps_des::SolverError) -> Self {
        MpsError::Solver(e)
    }
}

impl From<mps_l07::L07Error> for MpsError {
    fn from(e: mps_l07::L07Error) -> Self {
        MpsError::L07(e)
    }
}

impl From<mps_sim::ExecError> for MpsError {
    fn from(e: mps_sim::ExecError) -> Self {
        MpsError::Exec(e)
    }
}

impl From<mps_faults::PlanParseError> for MpsError {
    fn from(e: mps_faults::PlanParseError) -> Self {
        MpsError::FaultPlan(e)
    }
}

impl From<mps_journal::JournalError> for MpsError {
    fn from(e: mps_journal::JournalError) -> Self {
        MpsError::Journal(e)
    }
}

/// The most commonly used items, flattened.
pub mod prelude {
    pub use mps_dag::gen::{paper_corpus, DagGenParams, GeneratedDag, PAPER_CORPUS_SEED};
    pub use mps_dag::{Dag, TaskId};
    pub use mps_des::{ActivitySpec, Engine, Watchdog};
    pub use mps_faults::{FaultModel, FaultPlan, ScriptedFaults};
    pub use mps_journal::{
        CancelToken, JournalHeader, JournalWriter, Manifest, RunControl, StopReason,
    };
    pub use mps_kernels::{BlockDist1D, Kernel, RedistPlan};
    pub use mps_l07::{L07Sim, PTaskSpec};
    pub use mps_model::{AnalyticModel, EmpiricalModel, PerfModel, ProfileModel, ProfileTables};
    pub use mps_platform::{Cluster, ClusterSpec, HostId};
    pub use mps_regress::{fit_affine, AffineModel, Basis, PiecewiseModel};
    pub use mps_sched::{Cpa, Hcpa, Mcpa, Schedule, Scheduler};
    pub use mps_sim::{
        ExecError, ExecPolicy, ExecutionResult, FaultyExecution, SimOutcome, Simulator,
    };
    pub use mps_stats::{boxplot, count_agreement, relative_makespan, summary};
    pub use mps_testbed::{
        build_profile_model, fit_empirical_model, CrayPdgemmEnv, GroundTruth, ProfilingConfig,
        Testbed,
    };
}

#[cfg(test)]
mod facade_tests {
    use crate::prelude::*;

    #[test]
    fn prelude_exposes_the_full_pipeline() {
        // Compile-time + smoke check that the facade wires every layer.
        let g = &paper_corpus(PAPER_CORPUS_SEED)[0];
        let testbed = Testbed::bayreuth(1);
        let sim = Simulator::new(testbed.nominal_cluster(), AnalyticModel::paper_jvm());
        let out = sim.schedule_and_simulate(&g.dag, &Mcpa).unwrap();
        let real = testbed.execute(&g.dag, &out.schedule, 0).unwrap();
        assert!(real.makespan > 0.0);
        // Stats layer.
        let rel = relative_makespan(out.result.makespan, real.makespan);
        assert!(rel.is_finite());
        // Regression layer.
        let m = fit_affine(Basis::Identity, &[1.0, 2.0, 3.0], &[2.0, 4.0, 6.0]).unwrap();
        assert!((m.a - 2.0).abs() < 1e-12);
        // Kernel layer.
        assert_eq!(Kernel::MatAdd { n: 2000 }.n(), 2000);
        // DES layer.
        let mut e = Engine::new();
        let r = e.add_resource(1.0);
        e.start(&ActivitySpec::new(1.0).on(r, 1.0)).unwrap();
        assert!((e.run_to_idle().unwrap()[0].time - 1.0).abs() < 1e-12);
    }

    #[test]
    fn unified_error_wraps_every_layer() {
        let e: crate::MpsError = mps_sim::ExecError::Timeout { time: 3.0 }.into();
        assert!(e.to_string().contains("exec"));
        let e: crate::MpsError = mps_des::EngineError::Timeout {
            time: 1.0,
            steps: 2,
        }
        .into();
        assert!(matches!(e, crate::MpsError::Engine(_)));
        let parse_err = FaultPlan::parse("bogus-clause", 4, 100.0).unwrap_err();
        let e: crate::MpsError = parse_err.into();
        assert!(e.to_string().contains("fault plan"));
        // Round-trip through the std error trait.
        let boxed: Box<dyn std::error::Error> = Box::new(e);
        assert!(!boxed.to_string().is_empty());
    }

    #[test]
    fn prelude_exposes_fault_injection() {
        // A crash plan through the facade: wrap the testbed path via
        // Testbed::execute_with_faults and check determinism.
        let g = &paper_corpus(PAPER_CORPUS_SEED)[0];
        let testbed = Testbed::bayreuth(1);
        let sim = Simulator::new(testbed.nominal_cluster(), AnalyticModel::paper_jvm());
        let out = sim.schedule_and_simulate(&g.dag, &Hcpa).unwrap();
        let plan = FaultPlan::builder(3)
            .node_crash(HostId(0), 0.0, 5.0)
            .build();
        let policy = ExecPolicy {
            max_retries: 6,
            ..ExecPolicy::default()
        };
        let a = testbed
            .execute_with_faults(&g.dag, &out.schedule, 0, &plan, &policy)
            .unwrap();
        let b = testbed
            .execute_with_faults(&g.dag, &out.schedule, 0, &plan, &policy)
            .unwrap();
        assert_eq!(a, b);
        assert!(a.total_retries() > 0);
    }

    #[test]
    fn module_paths_are_reachable() {
        // The per-subsystem module re-exports.
        let _ = crate::des::Engine::new();
        let _ = crate::platform::ClusterSpec::bayreuth();
        let _ = crate::kernels::vanilla_plan(10, 2, 2);
        let _ = crate::stats::median(&[1.0, 2.0]);
        let _ = crate::model::EmpiricalModel::table_ii();
        let _ = crate::regress::Basis::Recip;
        let _ = crate::dag::shapes::chain(crate::kernels::Kernel::MatAdd { n: 100 }, 2);
        let _ = crate::testbed::GroundTruth::bayreuth();
        let _ = crate::faults::FaultPlan::none();
    }
}
