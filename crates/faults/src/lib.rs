//! # mps-faults — seeded, scripted fault injection
//!
//! The paper's experiments ran on a real cluster, where nodes slow down,
//! crash and recover, links degrade, and task launches fail. This crate
//! models those hazards as a deterministic, seedable **fault plan** that
//! the schedule executor (`mps-sim`) and the emulated testbed
//! (`mps-testbed`) consume through the [`FaultModel`] hook:
//!
//! * a [`FaultPlan`] is a script of [`FaultEvent`]s — permanent node
//!   slowdowns, transient node crash-and-recover windows, link
//!   degradation windows, straggler tasks, and a transient task-failure
//!   probability;
//! * plans are built in code ([`FaultPlan::builder`]), generated from a
//!   seed and an intensity ([`FaultPlan::random`]), or parsed from the
//!   compact CLI grammar ([`FaultPlan::parse`]) used by `repro --faults`;
//! * [`ScriptedFaults`] turns a plan into a [`FaultModel`]: every
//!   stochastic decision derives its randomness by *hashing*
//!   `(plan seed, task, attempt)` rather than consuming a shared stream,
//!   so outcomes are independent of executor event order — the bedrock of
//!   the bit-identical-replay guarantee tested in
//!   `tests/simulation_fidelity.rs`.
//!
//! ```
//! use mps_faults::{FaultPlan, ScriptedFaults, FaultModel, TaskDisposition};
//! use mps_dag::TaskId;
//! use mps_platform::HostId;
//!
//! let plan = FaultPlan::builder(42)
//!     .node_crash(HostId(3), 10.0, 5.0)
//!     .task_failure(0.05)
//!     .build();
//! let mut faults = ScriptedFaults::new(plan);
//! // Host 3 is down during [10, 15): launching there reports a failure
//! // with the time until recovery.
//! match faults.task_disposition(TaskId(0), &[HostId(3)], 0, 12.0) {
//!     TaskDisposition::Fail { retry_after } => assert!((retry_after - 3.0).abs() < 1e-12),
//!     d => panic!("expected failure, got {d:?}"),
//! }
//! ```

#![warn(missing_docs)]

pub mod clause;
pub mod disturb;
pub mod io;
pub mod model;
pub mod plan;

pub use clause::PlanParseError;
pub use disturb::{
    DisturbReport, Disturbance, DisturbancePlan, DisturbancePlanBuilder, RecoveryPolicy,
    DISTURB_HORIZON,
};
pub use io::{
    ChaosIo, ChaosStream, InjectedIo, InjectedWire, IoEnv, IoFaultPlan, IoFile, RealIo,
    WireFaultPlan,
};
pub use model::{FaultModel, NoFaults, ScriptedFaults, TaskDisposition};
pub use plan::{FaultEvent, FaultPlan, FaultPlanBuilder};
