//! # mps-online — streaming online scheduling at engine speed
//!
//! The paper's pipeline is batch-shaped: fix a DAG, fix a platform, run
//! each algorithm once, compare makespans. This crate turns the same
//! machinery into a *service-shaped* workload: a seeded arrival process
//! ([`ArrivalSpec`]: Poisson or bursty two-state MMPP) draws DAG jobs
//! from the shared corpus; a bounded backlog sheds overload with the
//! EMA-derived retry hints of [`mps_stats::ShedPolicy`]; admitted jobs
//! claim exclusive host subsets of the live cluster through memoized
//! moldable CPA/HCPA/MCPA plans and execute on the incremental DES —
//! sustained over million-event horizons at engine speed with bounded
//! memory ([`OnlineEngine`]).
//!
//! Every run is a pure function of its [`OnlineConfig`]: the
//! [`OnlineRun`] report (throughput, utilization, P²-sketched latency
//! quantiles, and an FNV digest over the full event trace) is
//! byte-identical across repeats, batch sizes, and worker counts.

#![warn(missing_docs)]

pub mod arrival;
pub mod engine;

pub use arrival::{ArrivalProcess, ArrivalSpec, SplitMix};
pub use engine::{
    OnlineAlgo, OnlineConfig, OnlineEngine, OnlineHighWater, OnlineOutcome, OnlineRun,
};

/// Errors from the streaming engine.
#[derive(Debug)]
pub enum OnlineError {
    /// A configuration value is unusable.
    Config(String),
    /// The underlying DES refused an operation.
    Engine(mps_des::EngineError),
}

impl std::fmt::Display for OnlineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OnlineError::Config(msg) => write!(f, "online config error: {msg}"),
            OnlineError::Engine(e) => write!(f, "online engine error: {e}"),
        }
    }
}

impl std::error::Error for OnlineError {}

impl From<mps_des::EngineError> for OnlineError {
    fn from(e: mps_des::EngineError) -> Self {
        OnlineError::Engine(e)
    }
}
