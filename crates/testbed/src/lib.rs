//! # mps-testbed — the emulated execution environment
//!
//! The stand-in for the paper's physical cluster (see DESIGN.md §2): a
//! high-fidelity emulation of the 32-node Bayreuth cluster running
//! TGrid/MPIJava, with **hidden** ground-truth performance behaviour —
//! JVM-inefficient task times calibrated to the paper's Table II curves,
//! planted outliers at `p = 8/16`, a non-monotonic startup-overhead curve,
//! a `p_dst`-dominated redistribution protocol overhead, TCP-derated
//! network bandwidth, and seeded run-to-run noise.
//!
//! Simulators interact with the testbed the way the paper's authors
//! interacted with their cluster:
//!
//! * [`Testbed::execute`] — run a schedule and measure its makespan ("the
//!   experiment");
//! * [`measure`] — the profiling/benchmarking APIs used to *instantiate*
//!   the refined simulation models (§VI brute-force profiles, §VII sparse
//!   regression samples).
//!
//! ```
//! use mps_testbed::{measure, Testbed};
//! use mps_kernels::Kernel;
//!
//! let tb = Testbed::bayreuth(42);
//! // Brute-force profile one kernel (3 trials, as a quick check):
//! let cfg = measure::ProfilingConfig { task_trials: 3, ..Default::default() };
//! let profiles = measure::profile_tasks(&tb, &[Kernel::MatMul { n: 2000 }], &cfg);
//! assert_eq!(profiles[0].1.len(), 32); // p = 1..=32
//! ```

#![warn(missing_docs)]

pub mod ground_truth;
pub mod measure;
#[allow(clippy::module_inception)]
pub mod testbed;

pub use ground_truth::{hash_noise, GroundTruth};
pub use measure::{
    build_profile_model, fit_empirical_model, measure_redist_surface, measure_startup_curve,
    paper_kernels, profile_tasks, redist_by_dst, ProfilingConfig,
};
pub use testbed::{
    CrayPdgemmEnv, Testbed, REDIST_NOISE_SIGMA, STARTUP_NOISE_SIGMA, TASK_NOISE_SIGMA,
};
