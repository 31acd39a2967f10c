//! # mps-sim — the three simulator versions
//!
//! One schedule-execution engine (host queues + L07 network contention)
//! parameterized by a performance model:
//!
//! * **analytic** simulator (§IV): flop counts and communication matrices
//!   through the L07 engine, no environment overheads;
//! * **profile** simulator (§VI): measured task durations + measured
//!   startup and redistribution overheads;
//! * **empirical** simulator (§VII): regression-model durations and
//!   overheads.
//!
//! The [`executor`] module is also the substrate of the emulated testbed
//! (`mps-testbed`), which injects hidden ground-truth quantities through
//! the same [`ExecutionModel`] interface — so simulators and "experiments"
//! share execution semantics and differ exactly where the paper says they
//! do: in the quantities.

#![warn(missing_docs)]

pub mod executor;
mod flows;
pub mod gantt;
pub mod simulator;

pub use executor::{
    execute, execute_disturbed_with_slab_prevalidated, execute_with_policy, execute_with_slab,
    execute_with_slab_prevalidated, DisturbSetup, ExecError, ExecPolicy, ExecSlab, ExecutionModel,
    ExecutionResult, FaultyExecution, TaskExecution,
};
pub use gantt::render_gantt;
pub use simulator::{ModelExecution, SimOutcome, Simulator};
