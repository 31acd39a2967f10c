//! # mps-exp — the experiment harness
//!
//! Regenerates every table and figure of the paper's evaluation against
//! the emulated testbed. See the `repro` binary:
//!
//! ```text
//! cargo run -p mps-exp --bin repro -- all          # everything
//! cargo run -p mps-exp --bin repro -- fig1         # one figure
//! cargo run -p mps-exp --bin repro -- table2
//! cargo run -p mps-exp --bin repro -- --json out/  # also dump JSON
//! ```
//!
//! `faultsweep`, `disturb` and `campaign` run on one sweep point loop.
//! The chaos soak over the durability paths is a test target:
//! `cargo test -p mps-exp --test chaos_soak`.

#![warn(missing_docs)]

pub mod ablation;
pub mod campaign;
pub mod disturb;
mod driver;
pub mod figures;
pub mod journaled;
pub mod online;
pub mod report;
pub mod runner;
pub mod serve_backend;
mod sweep;

pub use campaign::{CampaignManifest, CampaignOpts, CampaignReport, PointSummary};
pub use disturb::{run_disturb_sweep, DisturbPoint, DisturbSweepOpts, DisturbSweepReport};
pub use journaled::{GridStatus, JournaledGrid};
pub use online::{run_online_sweep, OnlineLevel, OnlineOpts, OnlineSweepReport, OnlineWall};
pub use report::{Attempt, AttemptOutcome, CrashReport, FailureKind};
pub use runner::{
    cell_key, grid_csv, grid_health, health_notes, paired_relative_makespans, CellOutcome,
    CellResult, DisturbConfig, GridHealth, Harness, Hazards, SimVariant, CELL_WALL_LIMIT,
    ERROR_PCT_SENTINEL,
};
#[doc(hidden)]
pub use runner::{PoisonAction, PoisonRule};
pub use serve_backend::{parse_cell_names, ServeBackend};
pub use sweep::fold_seed;
